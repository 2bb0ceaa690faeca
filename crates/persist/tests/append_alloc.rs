//! Integration: appending a delta to a large snapshot never holds the
//! base in memory. [`append_to`] validates the base by streaming it
//! through a fixed read buffer; this binary watches the largest single
//! allocation made while it appends to a multi-megabyte base. One test
//! only — the watch is process-wide.

use querc_persist::{append_to, Snapshot, SnapshotReader};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

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

/// Run `f`, returning its result and the largest allocation it made.
fn watched<T>(f: impl FnOnce() -> T) -> (T, usize) {
    LARGEST.store(0, Ordering::Relaxed);
    ARMED.store(true, Ordering::Relaxed);
    let out = f();
    ARMED.store(false, Ordering::Relaxed);
    (out, LARGEST.load(Ordering::Relaxed))
}

const MIB: usize = 1 << 20;

#[test]
fn append_to_a_large_base_makes_no_large_allocation() {
    let path = std::env::temp_dir().join(format!(
        "querc_persist_append_alloc_{}.snap",
        std::process::id()
    ));
    // A 4.5 MB base: three 1.5 MB payloads, each larger than the bound.
    let mut base = Snapshot::new();
    for (i, name) in ["embed_cache", "registry", "apps"].into_iter().enumerate() {
        let payload: Vec<u8> = (0..3 * MIB / 2)
            .map(|j| (j.wrapping_mul(31) ^ i) as u8)
            .collect();
        base.add_section(name, payload);
    }
    base.write_to(&path).unwrap();
    drop(base);
    let base_len = std::fs::metadata(&path).unwrap().len() as usize;
    assert!(base_len >= 4 * MIB, "base is {base_len} bytes");

    let delta = vec![("embed_cache_delta".to_string(), vec![7u8; 4096])];
    let (outcome, largest) = watched(|| append_to(&path, &delta));
    outcome.expect("the append succeeds");
    assert!(
        largest < MIB,
        "append_to made a {largest}-byte allocation against a {base_len}-byte base"
    );

    // The instrument sees a whole-file read: opening the base for reading
    // (which keeps the file in one buffer) trips the same bound.
    let (reader, largest_read) = watched(|| SnapshotReader::open(&path));
    let reader = reader.unwrap();
    assert!(
        largest_read >= base_len,
        "the watch missed a whole-file read"
    );
    assert_eq!(
        reader.section_names(),
        ["embed_cache", "registry", "apps", "embed_cache_delta"]
    );
    assert_eq!(reader.section("embed_cache_delta"), Some(&[7u8; 4096][..]));
    std::fs::remove_file(&path).ok();
}
