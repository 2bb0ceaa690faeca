//! Exact nearest-neighbor search by blocked linear scan.

use crate::metric::{Metric, Rows};
use crate::store::VectorStore;
use crate::{Hit, IndexStats, VectorIndex};
use querc_linalg::kernel;
use std::sync::atomic::{AtomicU64, Ordering};

/// Exact k-NN over a [`VectorStore`] — the correctness baseline every
/// approximate index is measured against.
///
/// Distances are computed by the fused [`querc_linalg::kernel`] block
/// kernels (one query against a whole contiguous block, no per-row call
/// overhead), dispatched at runtime between the SIMD arms and the
/// `querc_linalg::ops` scalar reference. Under [`Metric::Cosine`] the
/// row norms are computed once, here at build, by the canonical
/// reduction, and the scan is dot-only (a NaN/∞ row keeps a NaN/∞ norm
/// and still sorts last). The arms are bit-identical, so results
/// (values *and* bits) still match the historical row-by-row brute
/// force; only the selection rule is newly deterministic
/// (`(distance, id)` total order, see the crate docs).
#[derive(Debug)]
pub struct FlatIndex {
    rows: Rows,
    searches: AtomicU64,
    candidates: AtomicU64,
}

impl FlatIndex {
    /// Index an existing store under `metric`.
    pub fn new(store: VectorStore, metric: Metric) -> FlatIndex {
        FlatIndex {
            rows: Rows::new(store, metric),
            searches: AtomicU64::new(0),
            candidates: AtomicU64::new(0),
        }
    }

    /// Bulk-build from row data (see [`VectorStore::from_rows`]).
    ///
    /// # Panics
    /// If `rows` is empty or ragged.
    pub fn from_rows(rows: &[Vec<f32>], metric: Metric) -> FlatIndex {
        FlatIndex::new(VectorStore::from_rows(rows), metric)
    }

    /// The indexed store.
    pub fn store(&self) -> &VectorStore {
        self.rows.store()
    }

    /// The index's metric.
    pub fn metric(&self) -> Metric {
        self.rows.metric()
    }

    fn count(&self, searches: usize) {
        self.searches.fetch_add(searches as u64, Ordering::Relaxed);
        self.candidates
            .fetch_add((searches * self.len()) as u64, Ordering::Relaxed);
    }
}

impl VectorIndex for FlatIndex {
    fn search(&self, query: &[f32], k: usize) -> Vec<Hit> {
        debug_assert_eq!(query.len(), self.dim());
        self.count(1);
        self.rows.top_k(query, k)
    }

    fn search_batch(&self, queries: &[&[f32]], k: usize) -> Vec<Vec<Hit>> {
        debug_assert!(queries.iter().all(|q| q.len() == self.dim()));
        self.count(queries.len());
        self.rows.top_k_batch(queries, k)
    }

    fn len(&self) -> usize {
        self.store().len()
    }

    fn dim(&self) -> usize {
        self.store().dim()
    }

    fn stats(&self) -> IndexStats {
        let searches = self.searches.load(Ordering::Relaxed);
        IndexStats {
            searches,
            probes: searches,
            candidates: self.candidates.load(Ordering::Relaxed),
            partitions: 1,
            exact: true,
            backend: "flat",
            kernel: kernel::kernel_name(),
            resident_bytes: self.rows.memory_bytes(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metric::SCAN_BLOCK;

    fn grid() -> Vec<Vec<f32>> {
        (0..20).map(|i| vec![i as f32, 0.0]).collect()
    }

    #[test]
    fn search_finds_exact_neighbors_in_order() {
        let ix = FlatIndex::from_rows(&grid(), Metric::Euclidean);
        let hits = ix.search(&[7.2, 0.0], 3);
        assert_eq!(hits.iter().map(|h| h.0).collect::<Vec<_>>(), vec![7, 8, 6]);
        assert!(hits[0].1 <= hits[1].1 && hits[1].1 <= hits[2].1);
    }

    #[test]
    fn batch_matches_single_and_spans_blocks() {
        // More rows than one scan block, to exercise block boundaries:
        // narrow rows fill the 256-row cap, wide rows (stride 136) get
        // 24-row blocks.
        for dim in [2usize, 130] {
            let rows: Vec<Vec<f32>> = (0..(SCAN_BLOCK * 2 + 17))
                .map(|i| (0..dim).map(|d| ((i * dim + d) as f32).sin()).collect())
                .collect();
            let queries: Vec<Vec<f32>> = (0..5)
                .map(|i| (0..dim).map(|d| (i * d) as f32 * 0.3 + 0.5).collect())
                .collect();
            let refs: Vec<&[f32]> = queries.iter().map(Vec::as_slice).collect();
            for metric in [Metric::Euclidean, Metric::Cosine] {
                let ix = FlatIndex::from_rows(&rows, metric);
                let batched = ix.search_batch(&refs, 4);
                for (q, hits) in refs.iter().zip(&batched) {
                    assert_eq!(*hits, ix.search(q, 4));
                    let mut brute: Vec<Hit> = (0..rows.len())
                        .map(|i| (i as u32, metric.distance(q, &rows[i])))
                        .collect();
                    brute.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
                    assert_eq!(*hits, brute[..4], "{metric:?} dim={dim}");
                }
            }
        }
    }

    #[test]
    fn k_clamps_to_len_and_empty_k() {
        let ix = FlatIndex::from_rows(&grid(), Metric::Euclidean);
        assert_eq!(ix.search(&[0.0, 0.0], 100).len(), 20);
        assert_eq!(ix.search(&[0.0, 0.0], 0).len(), 0);
    }

    #[test]
    fn counters_accumulate() {
        let ix = FlatIndex::from_rows(&grid(), Metric::Euclidean);
        let _ = ix.search(&[1.0, 0.0], 2);
        let q = [[2.0f32, 0.0], [3.0, 0.0]];
        let refs: Vec<&[f32]> = q.iter().map(|v| v.as_slice()).collect();
        let _ = ix.search_batch(&refs, 2);
        let s = ix.stats();
        assert_eq!(s.searches, 3);
        assert_eq!(s.probes, 3);
        assert_eq!(s.candidates, 60, "3 searches × 20 rows");
        assert!(s.exact);
        assert_eq!(s.partitions, 1);
        assert_eq!(s.candidates_per_search(), 20.0);
        assert_eq!(s.backend, "flat");
        assert_eq!(s.kernel, kernel::kernel_name());
        assert_eq!(s.resident_bytes, ix.store().memory_bytes());
    }

    #[test]
    fn cosine_metric_is_supported() {
        let rows = vec![vec![1.0f32, 0.0], vec![0.0, 1.0], vec![-1.0, 0.0]];
        let ix = FlatIndex::from_rows(&rows, Metric::Cosine);
        let hits = ix.search(&[10.0, 0.1], 1);
        assert_eq!(hits[0].0, 0, "cosine ignores magnitude");
    }
}
