//! Integration: a forged length inside a snapshot costs an error, never
//! memory. The binary cache records carry a `dim` the reader must check
//! against the bytes that remain **before** allocating for it; this
//! binary watches the largest single allocation made while a forged file
//! restores. One test only — the watch is process-wide.

use querc::apps::{ResourcesApp, TrainCorpus};
use querc::{LabeledQuery, QuercError, WorkloadManager, WorkloadManagerConfig};
use querc_embed::BagOfTokens;
use querc_persist::{Snapshot, SnapshotReader};
use querc_workloads::QueryRecord;
use std::alloc::{GlobalAlloc, Layout, System};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

static ARMED: AtomicBool = AtomicBool::new(false);
static LARGEST: AtomicUsize = AtomicUsize::new(0);

/// The system allocator, noting the largest request while armed.
struct Watch;

fn note(size: usize) {
    if ARMED.load(Ordering::Relaxed) {
        LARGEST.fetch_max(size, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; `note` only touches atomics.
unsafe impl GlobalAlloc for Watch {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static WATCH: Watch = Watch;

/// Restore `path`, returning the outcome and the largest allocation made
/// on the way.
fn watched_restore(path: &Path) -> (Result<(), QuercError>, usize) {
    LARGEST.store(0, Ordering::Relaxed);
    ARMED.store(true, Ordering::Relaxed);
    let outcome = WorkloadManager::restore(path, WorkloadManagerConfig::default());
    ARMED.store(false, Ordering::Relaxed);
    let largest = LARGEST.load(Ordering::Relaxed);
    (outcome.map(|mgr| drop(mgr.drain())), largest)
}

#[test]
fn forged_cache_dims_are_corrupt_and_never_sized_for() {
    let dir = std::env::temp_dir();
    let path = dir.join(format!("querc_persist_alloc_{}.snap", std::process::id()));
    let records: Vec<QueryRecord> = (0..48u64)
        .map(|i| QueryRecord {
            sql: format!("select c{} from t{} where k = {i}", i % 5, i % 3),
            user: format!("acct/u{}", i % 2),
            account: "acct".into(),
            cluster: "c0".into(),
            dialect: "generic".into(),
            runtime_ms: [5.0, 300.0, 2000.0][(i % 3) as usize],
            mem_mb: 10.0,
            error_code: None,
            timestamp: i,
        })
        .collect();
    let corpus = TrainCorpus::from_records(records.clone(), 7);
    let mut mgr = WorkloadManager::new(WorkloadManagerConfig::default());
    mgr.register(
        ResourcesApp::new(Arc::new(BagOfTokens::new(64, true))),
        &corpus,
    )
    .unwrap();
    mgr.submit_batch("resources", records.iter().map(LabeledQuery::from_record))
        .unwrap();
    mgr.checkpoint(&path).unwrap();
    drop(mgr.drain());

    let (outcome, honest_largest) = watched_restore(&path);
    outcome.expect("the honest snapshot restores");

    let reader = SnapshotReader::open(&path).unwrap();
    let cache = reader.section("embed_cache").unwrap().to_vec();
    assert!(cache.len() > 20 + 64 * 4, "at least one 64-float record");
    let file_len = std::fs::metadata(&path).unwrap().len() as usize;

    // Rewrite the file with record 0's `dim` (bytes 16..20) forged, in the
    // full section or in an appended delta.
    let forge = |dim: u32, as_delta: bool| {
        let mut forged = cache.clone();
        forged[16..20].copy_from_slice(&dim.to_le_bytes());
        let mut snap = Snapshot::new();
        for name in reader.section_names() {
            let payload = reader.section(name).unwrap();
            if name == "embed_cache" && !as_delta {
                snap.add_section(name, forged.clone());
            } else {
                snap.add_section(name, payload);
            }
        }
        if as_delta {
            snap.add_section("embed_cache_delta", forged);
        }
        snap.write_to(&path).unwrap();
    };
    let one_past = (cache.len() - 20) as u32 / 4 + 1;
    for dim in [one_past, 1 << 28, u32::MAX] {
        for as_delta in [false, true] {
            forge(dim, as_delta);
            let (outcome, largest) = watched_restore(&path);
            match outcome {
                Err(QuercError::Corrupt { detail }) => {
                    assert!(detail.contains("embed_cache"), "{detail}")
                }
                other => panic!("dim {dim} (delta {as_delta}): want Corrupt, got {other:?}"),
            }
            assert!(
                largest <= honest_largest.max(2 * file_len),
                "dim {dim} (delta {as_delta}): a {largest}-byte allocation for a {file_len}-byte \
                 file (the honest restore peaked at {honest_largest})"
            );
        }
    }
    let _ = std::fs::remove_file(&path);
}
