//! The measuring instruments: thin wrappers around the public
//! `WorkloadApp`, `Embedder` and `querc_learn::Classifier` traits.
//!
//! Each wrapper delegates everything, so labels, cache namespaces and
//! snapshots are those of the wrapped value. What they add:
//!
//! * [`Probe`] stamps every chunk a shard labels — entry and return of
//!   `label_batch` — against the `bench_seq` label each arrival carries.
//!   The return stamp is the completion time of the due→labeled latency;
//!   it is taken in traced and untraced runs alike.
//! * [`TimedEmbedder`] counts calls, documents and busy time of
//!   inference, wherever it runs (ingress on the generator thread, or an
//!   app's own miss path on a shard).
//! * [`KnnProbe`] does the same for the registry kNN classifier and keeps
//!   the last `IndexStats` of its index readable from outside.
//!
//! All three open a span when tracing is on.

use crate::trace::{self, now_ns, NO_QUERY};
use querc::apps::{AppOutput, AppReport, TrainCorpus, WorkloadApp};
use querc::{EnrichedQuery, Result};
use querc_embed::Embedder;
use querc_index::IndexStats;
use querc_learn::{Classifier, ClassifierState, Knn};
use querc_linalg::Pcg32;
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// The label carrying an arrival's sequence id through the service.
pub const SEQ_LABEL: &str = "bench_seq";

thread_local! {
    /// When this shard thread first touched the chunk it is working on:
    /// set by [`KnnProbe`] (registry classifiers run before the app in a
    /// worker), consumed by the [`Probe`] that finishes the chunk.
    static CHUNK_ENTRY_NS: Cell<Option<u64>> = const { Cell::new(None) };
}

/// One labeled arrival as a shard saw it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stamp {
    /// The arrival's `bench_seq`.
    pub seq: u32,
    /// When the shard first touched the arrival's chunk.
    pub entry_ns: u64,
    /// When `label_batch` returned for that chunk.
    pub done_ns: u64,
}

/// Counters one [`Probe`] shares with the harness.
#[derive(Debug, Default)]
pub struct Slot {
    stamps: Mutex<Vec<Stamp>>,
    /// Time inside `label_batch`, all shards of the app.
    pub busy_ns: AtomicU64,
    /// Chunks labeled.
    pub chunks: AtomicU64,
    /// Queries labeled.
    pub queries: AtomicU64,
}

impl Slot {
    /// Take the stamps recorded since the last call and zero the counters.
    pub fn take(&self) -> SlotTotals {
        let stamps = std::mem::take(&mut *self.stamps.lock().expect("no probe panics mid-push"));
        SlotTotals {
            stamps,
            busy_ns: self.busy_ns.swap(0, Ordering::Relaxed),
            chunks: self.chunks.swap(0, Ordering::Relaxed),
            queries: self.queries.swap(0, Ordering::Relaxed),
        }
    }
}

/// What a [`Slot`] held when it was taken.
#[derive(Debug, Default, Clone)]
pub struct SlotTotals {
    /// One stamp per labeled arrival that carried a `bench_seq`.
    pub stamps: Vec<Stamp>,
    /// Time inside `label_batch`.
    pub busy_ns: u64,
    /// Chunks labeled.
    pub chunks: u64,
    /// Queries labeled.
    pub queries: u64,
}

/// A `WorkloadApp` that stamps its chunks. See the module docs.
pub struct Probe<A> {
    inner: A,
    span_name: &'static str,
    slot: Arc<Slot>,
}

impl<A: WorkloadApp> Probe<A> {
    /// Wrap `inner`; `span_name` is `apps.<name>.label_batch`.
    pub fn new(inner: A, span_name: &'static str, slot: Arc<Slot>) -> Probe<A> {
        Probe {
            inner,
            span_name,
            slot,
        }
    }
}

fn seq_of(q: &EnrichedQuery) -> Option<u32> {
    q.get(SEQ_LABEL)?.parse().ok()
}

impl<A: WorkloadApp> WorkloadApp for Probe<A> {
    type Model = A::Model;

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn task(&self) -> &'static str {
        self.inner.task()
    }

    fn fit(&self, corpus: &TrainCorpus) -> Result<Self::Model> {
        self.inner.fit(corpus)
    }

    fn label_batch(&self, model: &Self::Model, batch: &[EnrichedQuery]) -> Result<Vec<AppOutput>> {
        let first = batch.first().and_then(seq_of).unwrap_or(NO_QUERY);
        let entered = now_ns();
        let entry_ns = CHUNK_ENTRY_NS.take().unwrap_or(entered);
        let out = {
            let _span = trace::span(self.span_name, first, batch.len() as u32);
            self.inner.label_batch(model, batch)
        };
        let done_ns = now_ns();
        self.slot
            .busy_ns
            .fetch_add(done_ns - entered, Ordering::Relaxed);
        self.slot.chunks.fetch_add(1, Ordering::Relaxed);
        self.slot
            .queries
            .fetch_add(batch.len() as u64, Ordering::Relaxed);
        let mut stamps = self.slot.stamps.lock().expect("no probe panics mid-push");
        stamps.extend(batch.iter().filter_map(seq_of).map(|seq| Stamp {
            seq,
            entry_ns,
            done_ns,
        }));
        out
    }

    fn embedder(&self) -> Option<Arc<dyn Embedder>> {
        self.inner.embedder()
    }

    fn index_stats(&self, model: &Self::Model) -> Option<IndexStats> {
        self.inner.index_stats(model)
    }

    fn report(&self, model: &Self::Model) -> AppReport {
        self.inner.report(model)
    }

    fn save_model(&self, model: &Self::Model) -> Option<String> {
        self.inner.save_model(model)
    }

    fn load_model(&self, json: &str) -> Result<Self::Model> {
        self.inner.load_model(json)
    }
}

/// Work counters shared by an instrument and the harness.
#[derive(Debug, Default)]
pub struct Work {
    /// Calls into the wrapped value.
    pub calls: AtomicU64,
    /// Items (documents, vectors) those calls covered.
    pub items: AtomicU64,
    /// Time inside those calls.
    pub busy_ns: AtomicU64,
}

impl Work {
    fn add(&self, items: usize, busy_ns: u64) {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.items.fetch_add(items as u64, Ordering::Relaxed);
        self.busy_ns.fetch_add(busy_ns, Ordering::Relaxed);
    }

    /// Read and zero: `(calls, items, busy_ns)`.
    pub fn take(&self) -> (u64, u64, u64) {
        (
            self.calls.swap(0, Ordering::Relaxed),
            self.items.swap(0, Ordering::Relaxed),
            self.busy_ns.swap(0, Ordering::Relaxed),
        )
    }
}

/// An `Embedder` that counts and times inference. `cache_namespace` and
/// `export_spec` are the wrapped embedder's, so cached vectors and
/// snapshots are interchangeable with it.
pub struct TimedEmbedder {
    inner: Arc<dyn Embedder>,
    work: Arc<Work>,
}

impl TimedEmbedder {
    /// Wrap `inner`, reporting into `work`.
    pub fn new(inner: Arc<dyn Embedder>, work: Arc<Work>) -> TimedEmbedder {
        TimedEmbedder { inner, work }
    }
}

impl Embedder for TimedEmbedder {
    fn dim(&self) -> usize {
        self.inner.dim()
    }

    fn embed(&self, tokens: &[String]) -> Vec<f32> {
        let _span = trace::span("embed.embed", NO_QUERY, 1);
        let t = now_ns();
        let v = self.inner.embed(tokens);
        self.work.add(1, now_ns() - t);
        v
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn embed_batch(&self, docs: &[Vec<String>]) -> Vec<Vec<f32>> {
        let _span = trace::span("embed.embed_batch", NO_QUERY, docs.len() as u32);
        let t = now_ns();
        let v = self.inner.embed_batch(docs);
        self.work.add(docs.len(), now_ns() - t);
        v
    }

    fn cache_namespace(&self) -> u64 {
        self.inner.cache_namespace()
    }

    fn export_spec(&self) -> Option<(&'static str, String)> {
        self.inner.export_spec()
    }
}

/// What [`KnnProbe`] shares with the harness.
#[derive(Debug, Default)]
pub struct KnnShared {
    /// Predict calls, vectors and busy time.
    pub work: Work,
    /// Stats of the fitted index, refreshed after every predict call.
    pub index: Mutex<Option<IndexStats>>,
}

/// A `querc_learn::Classifier` around [`Knn`] that counts and times
/// prediction. See the module docs.
pub struct KnnProbe {
    inner: Knn,
    shared: Arc<KnnShared>,
}

impl KnnProbe {
    /// Wrap an unfitted `inner`, reporting into `shared`.
    pub fn new(inner: Knn, shared: Arc<KnnShared>) -> KnnProbe {
        KnnProbe { inner, shared }
    }

    fn publish_stats(&self) {
        let stats = self.inner.index().map(|ix| ix.stats());
        *self
            .shared
            .index
            .lock()
            .expect("stats lock is never held across a panic") = stats;
    }

    fn timed<T>(&self, items: usize, f: impl FnOnce(&Knn) -> T) -> T {
        let t = now_ns();
        CHUNK_ENTRY_NS.with(|c| {
            if c.get().is_none() {
                c.set(Some(t));
            }
        });
        let out = {
            let _span = trace::span("learn.knn_predict", NO_QUERY, items as u32);
            f(&self.inner)
        };
        self.shared.work.add(items, now_ns() - t);
        self.publish_stats();
        out
    }
}

impl Classifier for KnnProbe {
    fn fit(&mut self, x: &[Vec<f32>], y: &[u32], n_classes: usize, rng: &mut Pcg32) {
        self.inner.fit(x, y, n_classes, rng);
        self.publish_stats();
    }

    fn predict(&self, x: &[f32]) -> u32 {
        self.timed(1, |knn| knn.predict(x))
    }

    fn predict_proba(&self, x: &[f32], n_classes: usize) -> Vec<f32> {
        self.inner.predict_proba(x, n_classes)
    }

    fn predict_batch(&self, xs: &[Vec<f32>]) -> Vec<u32> {
        self.timed(xs.len(), |knn| knn.predict_batch(xs))
    }

    fn predict_batch_refs(&self, xs: &[&[f32]]) -> Vec<u32> {
        self.timed(xs.len(), |knn| knn.predict_batch_refs(xs))
    }

    fn export_state(&self) -> Option<ClassifierState> {
        self.inner.export_state()
    }
}
