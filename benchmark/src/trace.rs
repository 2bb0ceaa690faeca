//! In-memory spans, their self-time roll-up, and the JSONL trace writer.
//!
//! Spans are recorded from the benchmark's own files, around the calls
//! into each layer (`name` = `<layer>.<operation>`). Each thread appends
//! to its own buffer, so recording takes no lock; a buffer is handed to
//! the global sink when its thread ends (the manager joins its shard
//! threads in `drain`, and `pthread_join` returns only after thread-local
//! destructors ran) or when the owning thread calls [`collect`].
//!
//! With tracing off, [`span`] costs one relaxed atomic load.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// "No query" marker for spans that belong to no single arrival.
pub const NO_QUERY: u32 = u32::MAX;

static EPOCH: OnceLock<Instant> = OnceLock::new();
static TRACING: AtomicBool = AtomicBool::new(false);
static NEXT_THREAD: AtomicU32 = AtomicU32::new(0);
static SINK: Mutex<Vec<Span>> = Mutex::new(Vec::new());

/// Nanoseconds since the process-wide benchmark epoch — the one clock
/// every stamp (due times, completion stamps, spans) is taken on.
pub fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Turn span recording on or off (process-wide).
pub fn set_tracing(on: bool) {
    TRACING.store(on, Ordering::SeqCst);
}

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Recording thread (dense ids in first-span order).
    pub thread: u32,
    /// Index of the span on its thread, in start order.
    pub id: u32,
    /// `id` of the enclosing span on the same thread, if any.
    pub parent: Option<u32>,
    /// `<layer>.<operation>`.
    pub name: &'static str,
    /// Start, ns since the epoch.
    pub start_ns: u64,
    /// End, ns since the epoch.
    pub end_ns: u64,
    /// `bench_seq` of the (first) arrival the span worked on.
    pub query: Option<u32>,
    /// Arrivals covered (a shard chunk covers several).
    pub n: u32,
}

impl Span {
    /// The layer prefix of the span name.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

struct ThreadBuf {
    thread: u32,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl ThreadBuf {
    fn flush(&mut self) {
        if !self.spans.is_empty() {
            // A poisoned sink only means another thread panicked while
            // flushing; the spans already in it are still whole.
            let mut sink = SINK.lock().unwrap_or_else(|e| e.into_inner());
            sink.append(&mut self.spans);
        }
        self.open.clear();
    }
}

impl Drop for ThreadBuf {
    fn drop(&mut self) {
        self.flush();
    }
}

thread_local! {
    static BUF: RefCell<ThreadBuf> = RefCell::new(ThreadBuf {
        thread: NEXT_THREAD.fetch_add(1, Ordering::Relaxed),
        spans: Vec::new(),
        open: Vec::new(),
    });
}

/// Closes its span when dropped.
pub struct SpanGuard(Option<u32>);

/// Open a span on this thread; it nests under the innermost open one.
pub fn span(name: &'static str, query: u32, n: u32) -> SpanGuard {
    if !TRACING.load(Ordering::Relaxed) {
        return SpanGuard(None);
    }
    let start_ns = now_ns();
    BUF.with(|b| {
        let mut b = b.borrow_mut();
        // Ids restart after a flush, so every span in one collected set
        // refers to parents inside that set.
        let id = b.spans.len() as u32;
        let parent = b.open.last().copied();
        let thread = b.thread;
        b.spans.push(Span {
            thread,
            id,
            parent,
            name,
            start_ns,
            end_ns: start_ns,
            query: (query != NO_QUERY).then_some(query),
            n,
        });
        b.open.push(id);
        SpanGuard(Some(id))
    })
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(id) = self.0 {
            let end_ns = now_ns();
            BUF.with(|b| {
                let mut b = b.borrow_mut();
                if let Some(s) = b.spans.get_mut(id as usize) {
                    s.end_ns = end_ns;
                }
                if b.open.last() == Some(&id) {
                    b.open.pop();
                }
            });
        }
    }
}

/// Flush the calling thread's buffer and take every span recorded so
/// far (call after `drain`, when the shard threads have ended).
pub fn collect() -> Vec<Span> {
    BUF.with(|b| b.borrow_mut().flush());
    let mut sink = SINK.lock().unwrap_or_else(|e| e.into_inner());
    let mut spans = std::mem::take(&mut *sink);
    spans.sort_by_key(|s| (s.thread, s.id));
    spans
}

/// Per-name totals of a span set.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Rollup {
    /// Spans with this name.
    pub count: u64,
    /// Summed durations.
    pub total_ns: u64,
    /// Summed self times: duration minus the part covered by direct
    /// children.
    pub self_ns: u64,
}

/// Self time of every span: its duration minus its direct children's.
/// `spans` must be one [`collect`]ed set (sorted by thread, then id).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
    let mut first_of_thread = 0usize;
    for (i, s) in spans.iter().enumerate() {
        if i > 0 && spans[i - 1].thread != s.thread {
            first_of_thread = i;
        }
        if let Some(p) = s.parent {
            let pi = first_of_thread + p as usize;
            own[pi] = own[pi].saturating_sub(s.dur_ns());
        }
    }
    own
}

/// Roll a span set up by name.
pub fn rollup(spans: &[Span]) -> BTreeMap<&'static str, Rollup> {
    let own = self_times(spans);
    let mut out: BTreeMap<&'static str, Rollup> = BTreeMap::new();
    for (s, own_ns) in spans.iter().zip(own) {
        let r = out.entry(s.name).or_default();
        r.count += 1;
        r.total_ns += s.dur_ns();
        r.self_ns += own_ns;
    }
    out
}

/// Roll the spans of one thread up by **layer**: self time per layer.
pub fn layer_self_ns(spans: &[Span], thread: u32) -> BTreeMap<&'static str, u64> {
    let own = self_times(spans);
    let mut out = BTreeMap::new();
    for (s, own_ns) in spans.iter().zip(own) {
        if s.thread == thread {
            *out.entry(s.layer()).or_insert(0) += own_ns;
        }
    }
    out
}

/// Write spans as JSON lines: one object per span with the keys
/// `thread,id,parent,name,layer,start_ns,end_ns,query,n`.
pub fn write_jsonl(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let opt = |v: Option<u32>| v.map_or("null".to_string(), |v| v.to_string());
        writeln!(
            w,
            "{{\"thread\":{},\"id\":{},\"parent\":{},\"name\":\"{}\",\"layer\":\"{}\",\
             \"start_ns\":{},\"end_ns\":{},\"query\":{},\"n\":{}}}",
            s.thread,
            s.id,
            opt(s.parent),
            s.name,
            s.layer(),
            s.start_ns,
            s.end_ns,
            opt(s.query),
            s.n
        )?;
    }
    w.flush()
}
