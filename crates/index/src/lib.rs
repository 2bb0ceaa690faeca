//! # querc-index
//!
//! The vector search plane: every nearest-neighbor lookup in the
//! workspace — kNN labeling, centroid assignment in the recommend and
//! summarize apps, workload-summary witnesses — goes through one
//! [`VectorIndex`] abstraction instead of ad-hoc linear scans over
//! pointer-chasing `Vec<Vec<f32>>` data.
//!
//! Three layers:
//!
//! * [`VectorStore`] — contiguous row-major `f32` storage with aligned
//!   rows and bulk insert, the cache-friendly replacement for every
//!   training-set clone;
//! * [`Metric`] — squared-Euclidean or cosine distance with a **total
//!   order** ([`f32::total_cmp`] + id tie-break), so a NaN produced by a
//!   degenerate vector can never poison a top-k selection;
//! * [`VectorIndex`] — `search` / `search_batch` over a store, with two
//!   implementations: [`FlatIndex`] (exact blocked scan, the
//!   correctness baseline) and [`IvfIndex`] (inverted-file ANN using
//!   `querc_cluster::kmeans` as the coarse quantizer, with an `nprobe`
//!   recall knob and per-index hit/probe counters).
//!
//! Exact search stays bit-identical to the historical brute-force path:
//! distances are computed row-by-row with the same `querc_linalg::ops`
//! kernels, only the storage layout and the selection rule (total order
//! instead of `partial_cmp`) changed. The IVF index trades a bounded
//! recall loss (tunable via `nprobe`) for scanning `O(n·nprobe/nlist)`
//! candidates instead of `O(n)`.

#![deny(missing_docs)]

pub mod flat;
pub mod ivf;
pub mod metric;
pub mod sq8;
pub mod store;

pub use flat::FlatIndex;
pub use ivf::{IvfConfig, IvfIndex};
pub use metric::Metric;
pub use sq8::{Sq8Config, Sq8Index};
pub use store::VectorStore;

use std::collections::BinaryHeap;

/// One search hit: `(row id, distance under the index's metric)`.
pub type Hit = (u32, f32);

/// Cumulative per-index search counters, snapshotted by
/// [`VectorIndex::stats`]. Counters are monotone over the index's
/// lifetime and safe to read while other threads search.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IndexStats {
    /// Queries answered (`search` calls; `search_batch` counts each
    /// query in the batch).
    pub searches: u64,
    /// Partitions (inverted lists) scanned. For an exact index every
    /// search probes its single partition, so `probes == searches`.
    pub probes: u64,
    /// Candidate vectors whose distance was computed. The work an exact
    /// scan does is `searches × len`; the gap between that product and
    /// this counter is what the ANN index saved.
    pub candidates: u64,
    /// Partitions the index maintains (1 for flat, `nlist` for IVF).
    pub partitions: usize,
    /// Whether results are exact (`FlatIndex`) or approximate
    /// (`IvfIndex` with `nprobe < nlist`).
    pub exact: bool,
    /// Index implementation: `"flat"`, `"ivf"`, `"sq8"` or
    /// `"ivf+sq8"` (`""` on a default-constructed stats value).
    pub backend: &'static str,
    /// Distance-kernel arm the process is dispatching to — `"avx512"`,
    /// `"avx2"` or `"scalar"` (`""` on a default-constructed stats
    /// value). See [`querc_linalg::kernel::kernel_name`].
    pub kernel: &'static str,
    /// Bytes resident for search: vectors/codes plus index structure,
    /// including the row norms a cosine index caches at build.
    /// The SQ8 backends report roughly a quarter of flat's footprint
    /// (an eighth of the vector payload, plus quantizer and list
    /// overhead); re-ranking adds the exact store back on top.
    pub resident_bytes: usize,
}

impl IndexStats {
    /// Mean candidates scanned per search; `0.0` before any search.
    pub fn candidates_per_search(&self) -> f64 {
        if self.searches == 0 {
            0.0
        } else {
            self.candidates as f64 / self.searches as f64
        }
    }
}

/// A k-nearest-neighbor index over fixed-dimension `f32` vectors.
///
/// Implementations are `Send + Sync` and searchable through `&self`, so
/// one built index can serve many worker threads behind an `Arc`.
///
/// **Determinism contract:** hits are ordered by `(distance, id)` under
/// [`f32::total_cmp`] — equal-distance neighbors always resolve to the
/// lower id, identically across runs and across implementations, and a
/// NaN distance sorts after every real number so it can never displace
/// a genuine neighbor.
pub trait VectorIndex: Send + Sync {
    /// The `k` nearest rows to `query`, closest first. Returns fewer
    /// than `k` hits when fewer candidates were considered: an index
    /// with fewer than `k` rows (empty index ⇒ empty result), or an
    /// approximate index whose probed partitions held fewer than `k`
    /// vectors (e.g. `IvfIndex` at low `nprobe` over a skewed
    /// partition). `query` must have [`VectorIndex::dim`] components.
    fn search(&self, query: &[f32], k: usize) -> Vec<Hit>;

    /// [`VectorIndex::search`] for a chunk of queries; `out[i]` answers
    /// `queries[i]`. Implementations amortize per-call setup and scan
    /// storage block-wise across the whole batch.
    fn search_batch(&self, queries: &[&[f32]], k: usize) -> Vec<Vec<Hit>> {
        queries.iter().map(|q| self.search(q, k)).collect()
    }

    /// Id of the single nearest row — the centroid-assignment idiom —
    /// or `None` on an empty index.
    fn nearest(&self, query: &[f32]) -> Option<u32> {
        self.search(query, 1).first().map(|&(id, _)| id)
    }

    /// [`VectorIndex::nearest`] for a chunk of queries through the
    /// batched scan; `out[i]` answers `queries[i]`.
    fn nearest_batch(&self, queries: &[&[f32]]) -> Vec<Option<u32>> {
        self.search_batch(queries, 1)
            .iter()
            .map(|hits| hits.first().map(|&(id, _)| id))
            .collect()
    }

    /// Number of indexed vectors.
    fn len(&self) -> usize;

    /// True when no vectors are indexed.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Dimensionality of indexed vectors.
    fn dim(&self) -> usize;

    /// Snapshot of the cumulative search counters.
    fn stats(&self) -> IndexStats;
}

/// Max-heap entry ordered by `(distance, id)` under the total order —
/// the largest (worst) retained hit sits on top.
#[derive(Debug, Clone, Copy)]
struct HeapHit {
    dist: f32,
    id: u32,
}

impl PartialEq for HeapHit {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == std::cmp::Ordering::Equal
    }
}
impl Eq for HeapHit {}
impl PartialOrd for HeapHit {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapHit {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.dist
            .total_cmp(&other.dist)
            .then(self.id.cmp(&other.id))
    }
}

/// Bounded top-k accumulator enforcing the crate's determinism
/// contract: keeps the `k` smallest `(distance, id)` pairs under
/// [`f32::total_cmp`] + id tie-break.
#[derive(Debug)]
pub struct TopK {
    k: usize,
    heap: BinaryHeap<HeapHit>,
}

impl TopK {
    /// An empty accumulator for the `k` best hits (`k == 0` keeps none).
    pub fn new(k: usize) -> TopK {
        TopK {
            k,
            heap: BinaryHeap::with_capacity(k.min(1024) + 1),
        }
    }

    /// Offer one candidate; it is retained iff it beats the current
    /// worst retained hit under the total order.
    #[inline]
    pub fn push(&mut self, id: u32, dist: f32) {
        if self.k == 0 {
            return;
        }
        let hit = HeapHit { dist, id };
        if self.heap.len() < self.k {
            self.heap.push(hit);
        } else if let Some(worst) = self.heap.peek() {
            if hit < *worst {
                self.heap.pop();
                self.heap.push(hit);
            }
        }
    }

    /// Offer a block of consecutive-id candidates: `dists[j]` is the
    /// distance of id `start_id + j`. Semantically identical to calling
    /// [`TopK::push`] per element, but once `k` hits are held the scan
    /// skips candidates strictly above the current bound with one
    /// predictable compare — the hot path of a full-corpus scan, where
    /// almost nothing beats the running top-k. Candidates at or below
    /// the bound (and everything, while the bound is `NaN` or the heap
    /// underfilled) still go through `push`, which enforces the exact
    /// `(distance, id)` total order.
    #[inline]
    // `!(d <= b)` is deliberate, not a misspelled `d > b`: the negation
    // must also be true for NaN `d` so NaN candidates are skipped here
    // instead of round-tripping through `push` (which would reject them
    // against a non-NaN bound anyway — NaN sorts after every real
    // distance in the total order).
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    pub fn push_block(&mut self, start_id: u32, dists: &[f32]) {
        let mut bound = self.bound();
        for (j, &d) in dists.iter().enumerate() {
            if let Some(b) = bound {
                if !b.is_nan() && !(d <= b) {
                    continue;
                }
            }
            self.push(start_id + j as u32, d);
            bound = self.bound();
        }
    }

    /// Current worst retained distance, once `k` hits are held — the
    /// pruning bound for scans that can skip whole partitions.
    pub fn bound(&self) -> Option<f32> {
        if self.heap.len() == self.k {
            self.heap.peek().map(|h| h.dist)
        } else {
            None
        }
    }

    /// Retained hits, closest first.
    pub fn into_sorted(self) -> Vec<Hit> {
        let mut hits = self.heap.into_vec();
        hits.sort_unstable();
        hits.into_iter().map(|h| (h.id, h.dist)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn topk_keeps_smallest_and_breaks_ties_by_id() {
        let mut t = TopK::new(3);
        for (id, d) in [(5u32, 2.0f32), (1, 1.0), (9, 1.0), (2, 3.0), (0, 1.0)] {
            t.push(id, d);
        }
        // Three hits at distance 1.0 fill k=3; ties resolve to lower ids.
        assert_eq!(t.into_sorted(), vec![(0, 1.0), (1, 1.0), (9, 1.0)]);
    }

    #[test]
    fn topk_nan_never_displaces_real_hits() {
        let mut t = TopK::new(2);
        t.push(0, f32::NAN);
        t.push(1, 10.0);
        t.push(2, 5.0);
        let hits = t.into_sorted();
        assert_eq!(hits.iter().map(|h| h.0).collect::<Vec<_>>(), vec![2, 1]);
    }

    #[test]
    fn topk_underfilled_returns_what_it_saw() {
        let mut t = TopK::new(8);
        t.push(3, 0.5);
        assert_eq!(t.bound(), None, "not full yet");
        assert_eq!(t.into_sorted(), vec![(3, 0.5)]);
        assert_eq!(TopK::new(0).into_sorted(), Vec::new());
    }

    #[test]
    fn stats_candidates_per_search() {
        let s = IndexStats {
            searches: 4,
            candidates: 100,
            ..Default::default()
        };
        assert_eq!(s.candidates_per_search(), 25.0);
        assert_eq!(IndexStats::default().candidates_per_search(), 0.0);
    }
}
