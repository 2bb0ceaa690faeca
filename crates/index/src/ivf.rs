//! Inverted-file (IVF) approximate nearest-neighbor index.
//!
//! Classic two-level ANN: a k-means **coarse quantizer**
//! (`querc_cluster::kmeans`) partitions the corpus into `nlist`
//! inverted lists; a search ranks the centroids, scans only the
//! `nprobe` nearest lists exactly, and top-k-selects over those
//! candidates. Per-query work drops from `O(n)` to roughly
//! `O(nlist + n·nprobe/nlist)` — minimized around `nlist ≈ √n` — at the
//! cost of missing neighbors whose list was not probed. `nprobe` is the
//! recall knob: `nprobe == nlist` degenerates to an exact (if
//! re-ordered) scan, `nprobe == 1` is the fastest and least recalled.

use crate::metric::{Metric, Rows};
use crate::store::VectorStore;
use crate::{Hit, IndexStats, TopK, VectorIndex};
use querc_cluster::{kmeans, KMeansConfig};
use querc_linalg::{kernel, ops, Pcg32};
use std::sync::atomic::{AtomicU64, Ordering};

/// Build/search knobs for an [`IvfIndex`].
#[derive(Debug, Clone)]
pub struct IvfConfig {
    /// Inverted lists (coarse centroids). `0` ⇒ auto: `⌈√n⌉`, clamped
    /// to `[1, n]` — the classical sweet spot.
    pub nlist: usize,
    /// Lists scanned per query, clamped to `[1, nlist]` at search time.
    /// Higher = better recall, more candidates scanned.
    pub nprobe: usize,
    /// Lloyd iterations for the coarse quantizer. IVF needs a rough
    /// partition, not a converged clustering, so this is kept small.
    pub train_iters: usize,
    /// Rows the coarse quantizer trains on. `0` ⇒ all rows. When the
    /// corpus is larger, a deterministic sample of this size is
    /// clustered instead and the *full* corpus is then assigned to the
    /// trained centroids through the fused SIMD scan — k-means over
    /// 1M×`nlist` points is minutes of work for a partition whose
    /// quality a 100k sample already saturates.
    pub train_sample: usize,
    /// Seed for the quantizer's k-means++ initialization (and the
    /// training-row sample).
    pub seed: u64,
}

impl Default for IvfConfig {
    fn default() -> Self {
        IvfConfig {
            nlist: 0,
            nprobe: 8,
            train_iters: 10,
            train_sample: 100_000,
            seed: 0x1df5,
        }
    }
}

/// Shared coarse-quantization step for [`IvfIndex`] and
/// [`crate::Sq8Index`]: k-means the (possibly sampled) rows, then
/// assign **every** row to its nearest centroid. Returns the centroids
/// (in clustering space — unit-normalized for cosine) and the inverted
/// lists. Empty store ⇒ `(empty, [])`.
pub(crate) fn coarse_partition(
    store: &VectorStore,
    metric: Metric,
    nlist: usize,
    train_iters: usize,
    train_sample: usize,
    seed: u64,
) -> (VectorStore, Vec<Vec<u32>>) {
    let n = store.len();
    if n == 0 {
        return (VectorStore::new(store.dim()), Vec::new());
    }
    let nlist = if nlist == 0 {
        (n as f64).sqrt().ceil() as usize
    } else {
        nlist
    }
    .clamp(1, n);
    let mut rng = Pcg32::with_stream(seed, 0x1df5);
    let sampled = train_sample > 0 && train_sample < n;
    let train_ids: Vec<usize> = if sampled {
        // Partial Fisher–Yates: the first `train_sample` slots of a
        // uniformly shuffled 0..n, deterministic under the seed.
        let mut ids: Vec<u32> = (0..n as u32).collect();
        for i in 0..train_sample {
            let j = i + rng.below_usize(n - i);
            ids.swap(i, j);
        }
        ids.truncate(train_sample);
        ids.into_iter().map(|i| i as usize).collect()
    } else {
        (0..n).collect()
    };
    // Materialize training points for the quantizer (normalized for
    // cosine so centroids live on the unit sphere).
    let points: Vec<Vec<f32>> = train_ids
        .iter()
        .map(|&i| {
            let mut v = store.row_vec(i);
            if metric == Metric::Cosine {
                ops::normalize(&mut v);
            }
            v
        })
        .collect();
    let result = kmeans(
        &points,
        &KMeansConfig {
            k: nlist.min(points.len()),
            max_iters: train_iters.max(1),
            tol: 1e-3,
        },
        &mut rng,
    );
    let mut lists = vec![Vec::new(); result.centroids.len()];
    if sampled {
        // Assign the full corpus to the trained centroids with the
        // fused block kernels. Cosine distance is magnitude-invariant,
        // so original (un-normalized) rows assign identically to their
        // normalized copies.
        let assigner = Rows::new(VectorStore::from_rows(&result.centroids), metric);
        const CHUNK: usize = 1024;
        let mut start = 0usize;
        while start < n {
            let end = (start + CHUNK).min(n);
            let rows: Vec<&[f32]> = (start..end).map(|i| store.row(i)).collect();
            for (i, best) in assigner.top_k_batch(&rows, 1).into_iter().enumerate() {
                // A scan over ≥1 centroids always yields a hit.
                if let Some(&(c, _)) = best.first() {
                    lists[c as usize].push((start + i) as u32);
                }
            }
            start = end;
        }
    } else {
        for (id, &c) in result.assignments.iter().enumerate() {
            lists[c].push(id as u32);
        }
    }
    (VectorStore::from_rows(&result.centroids), lists)
}

/// Inverted-file ANN index over a [`VectorStore`].
///
/// Searchable through `&self` (counters are atomic), so one built index
/// serves many threads behind an `Arc`. Hit ordering follows the
/// crate-wide `(distance, id)` total order, so for the candidates it
/// *does* scan an IVF search is exactly as deterministic as the flat
/// scan — and with `nprobe == nlist` the results are identical to
/// [`crate::FlatIndex`].
#[derive(Debug)]
pub struct IvfIndex {
    rows: Rows,
    /// Coarse centroids, in the clustering space (unit-normalized when
    /// the metric is cosine).
    centroids: Rows,
    /// `lists[c]` = ids of rows whose nearest centroid is `c`.
    lists: Vec<Vec<u32>>,
    nprobe: usize,
    searches: AtomicU64,
    probes: AtomicU64,
    candidates: AtomicU64,
}

impl IvfIndex {
    /// Build the index: run the coarse quantizer over `store` and
    /// assign every row to its nearest centroid's list.
    ///
    /// For [`Metric::Cosine`] the quantizer clusters unit-normalized
    /// copies of the rows (angular geometry); the stored vectors and
    /// all reported distances remain the originals'.
    pub fn build(store: VectorStore, metric: Metric, cfg: &IvfConfig) -> IvfIndex {
        let (centroids, lists) = coarse_partition(
            &store,
            metric,
            cfg.nlist,
            cfg.train_iters,
            cfg.train_sample,
            cfg.seed,
        );
        IvfIndex {
            centroids: Rows::new(centroids, metric),
            lists,
            nprobe: cfg.nprobe.max(1),
            rows: Rows::new(store, metric),
            searches: AtomicU64::new(0),
            probes: AtomicU64::new(0),
            candidates: AtomicU64::new(0),
        }
    }

    /// Bulk-build from row data (see [`VectorStore::from_rows`]).
    ///
    /// # Panics
    /// If `rows` is empty or ragged.
    pub fn from_rows(rows: &[Vec<f32>], metric: Metric, cfg: &IvfConfig) -> IvfIndex {
        IvfIndex::build(VectorStore::from_rows(rows), metric, cfg)
    }

    /// Reassemble an index from previously exported parts — the restore
    /// path for a persisted snapshot. `centroids`/`lists` must come from
    /// [`IvfIndex::centroids`]/[`IvfIndex::lists`] of an index built
    /// over the same `store`; search counters restart at zero.
    ///
    /// Returns `None` when the parts are inconsistent (centroid/list
    /// count mismatch, centroid dimension ≠ store dimension, or a list
    /// entry referencing a row the store doesn't have) — a corrupt
    /// snapshot must surface an error, not an index panic at search
    /// time.
    pub fn from_parts(
        store: VectorStore,
        metric: Metric,
        centroids: VectorStore,
        lists: Vec<Vec<u32>>,
        nprobe: usize,
    ) -> Option<IvfIndex> {
        if centroids.len() != lists.len() {
            return None;
        }
        if !centroids.is_empty() && centroids.dim() != store.dim() {
            return None;
        }
        let n = store.len();
        if lists.iter().flatten().any(|&id| id as usize >= n) {
            return None;
        }
        Some(IvfIndex {
            rows: Rows::new(store, metric),
            centroids: Rows::new(centroids, metric),
            lists,
            nprobe: nprobe.max(1),
            searches: AtomicU64::new(0),
            probes: AtomicU64::new(0),
            candidates: AtomicU64::new(0),
        })
    }

    /// The coarse quantizer's centroids (clustering space — unit
    /// normalized when the metric is cosine). Export half of
    /// [`IvfIndex::from_parts`].
    pub fn centroids(&self) -> &VectorStore {
        self.centroids.store()
    }

    /// The inverted lists: `lists()[c]` holds the row ids assigned to
    /// centroid `c`. Export half of [`IvfIndex::from_parts`].
    pub fn lists(&self) -> &[Vec<u32>] {
        &self.lists
    }

    /// Builder-style recall knob (clamped to `[1, nlist]` per search).
    pub fn with_nprobe(mut self, nprobe: usize) -> IvfIndex {
        self.set_nprobe(nprobe);
        self
    }

    /// Set the recall knob at runtime (≥ 1 enforced).
    pub fn set_nprobe(&mut self, nprobe: usize) {
        self.nprobe = nprobe.max(1);
    }

    /// Current `nprobe` setting.
    pub fn nprobe(&self) -> usize {
        self.nprobe
    }

    /// Number of inverted lists.
    pub fn nlist(&self) -> usize {
        self.lists.len()
    }

    /// The indexed store.
    pub fn store(&self) -> &VectorStore {
        self.rows.store()
    }
}

impl VectorIndex for IvfIndex {
    fn search(&self, query: &[f32], k: usize) -> Vec<Hit> {
        debug_assert_eq!(query.len(), self.dim());
        self.searches.fetch_add(1, Ordering::Relaxed);
        if self.lists.is_empty() {
            return Vec::new();
        }
        let probed = self.centroids.top_k(query, self.nprobe.min(self.nlist()));
        self.probes
            .fetch_add(probed.len() as u64, Ordering::Relaxed);
        let nq = self.rows.query_norm(query);
        let mut scanned = 0u64;
        let mut top = TopK::new(k);
        for (c, _) in probed {
            let list = &self.lists[c as usize];
            scanned += list.len() as u64;
            for &id in list {
                top.push(id, self.rows.distance(query, nq, id as usize));
            }
        }
        self.candidates.fetch_add(scanned, Ordering::Relaxed);
        top.into_sorted()
    }

    /// Batched IVF search inverts the loop: queries are first grouped
    /// by probed list, then each inverted list is walked **once** for
    /// the whole batch — every row is read while hot for all queries
    /// probing it. The candidate sets (and therefore the results) are
    /// identical to per-query [`VectorIndex::search`]; only the
    /// traversal order changes, which the `(distance, id)` total order
    /// is insensitive to.
    fn search_batch(&self, queries: &[&[f32]], k: usize) -> Vec<Vec<Hit>> {
        debug_assert!(queries.iter().all(|q| q.len() == self.dim()));
        self.searches
            .fetch_add(queries.len() as u64, Ordering::Relaxed);
        if self.lists.is_empty() {
            return vec![Vec::new(); queries.len()];
        }
        let mut probed_total = 0u64;
        let mut by_list: Vec<Vec<u32>> = vec![Vec::new(); self.lists.len()];
        let nprobe = self.nprobe.min(self.nlist());
        for (qi, probed) in self
            .centroids
            .top_k_batch(queries, nprobe)
            .iter()
            .enumerate()
        {
            probed_total += probed.len() as u64;
            for &(c, _) in probed {
                by_list[c as usize].push(qi as u32);
            }
        }
        self.probes.fetch_add(probed_total, Ordering::Relaxed);
        let norms: Vec<f32> = queries.iter().map(|q| self.rows.query_norm(q)).collect();
        let mut scanned = 0u64;
        let mut tops: Vec<TopK> = queries.iter().map(|_| TopK::new(k)).collect();
        for (c, probers) in by_list.iter().enumerate() {
            if probers.is_empty() {
                continue;
            }
            let list = &self.lists[c];
            scanned += (list.len() * probers.len()) as u64;
            for &id in list {
                for &qi in probers {
                    let (q, nq) = (queries[qi as usize], norms[qi as usize]);
                    tops[qi as usize].push(id, self.rows.distance(q, nq, id as usize));
                }
            }
        }
        self.candidates.fetch_add(scanned, Ordering::Relaxed);
        tops.into_iter().map(TopK::into_sorted).collect()
    }

    fn len(&self) -> usize {
        self.store().len()
    }

    fn dim(&self) -> usize {
        self.store().dim()
    }

    fn stats(&self) -> IndexStats {
        let lists_bytes = self
            .lists
            .iter()
            .map(|l| l.len() * std::mem::size_of::<u32>())
            .sum::<usize>();
        IndexStats {
            searches: self.searches.load(Ordering::Relaxed),
            probes: self.probes.load(Ordering::Relaxed),
            candidates: self.candidates.load(Ordering::Relaxed),
            partitions: self.nlist(),
            // Full probe degenerates to an exact (re-ordered) scan, and
            // the flag reflects the *current* nprobe setting.
            exact: self.nprobe >= self.nlist(),
            backend: "ivf",
            kernel: kernel::kernel_name(),
            resident_bytes: self.rows.memory_bytes() + self.centroids.memory_bytes() + lists_bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FlatIndex;

    /// Well-separated 2-D blobs: IVF's best case, and the shape of an
    /// embedded templated workload.
    fn blobs(n_per: usize, centers: &[(f32, f32)], seed: u64) -> Vec<Vec<f32>> {
        let mut rng = Pcg32::new(seed);
        let mut pts = Vec::new();
        for &(cx, cy) in centers {
            for _ in 0..n_per {
                pts.push(vec![cx + rng.normal() * 0.3, cy + rng.normal() * 0.3]);
            }
        }
        pts
    }

    #[test]
    fn probed_search_finds_in_cluster_neighbors() {
        let pts = blobs(50, &[(0.0, 0.0), (10.0, 10.0), (0.0, 10.0), (10.0, 0.0)], 1);
        let ix = IvfIndex::from_rows(
            &pts,
            Metric::Euclidean,
            &IvfConfig {
                nlist: 4,
                nprobe: 1,
                ..Default::default()
            },
        );
        assert_eq!(ix.nlist(), 4);
        let hits = ix.search(&[10.1, 9.9], 5);
        assert_eq!(hits.len(), 5);
        for (id, _) in hits {
            let p = ix.store().row(id as usize);
            assert!(
                p[0] > 5.0 && p[1] > 5.0,
                "hit {p:?} is not in the (10,10) blob"
            );
        }
        let s = ix.stats();
        assert_eq!(s.searches, 1);
        assert_eq!(s.probes, 1, "nprobe=1 scans one list");
        assert!(s.candidates < 200, "scanned one blob, not the corpus");
        assert!(!s.exact);
    }

    #[test]
    fn full_probe_matches_flat_exactly() {
        let pts = blobs(40, &[(0.0, 0.0), (6.0, 6.0), (0.0, 7.0)], 2);
        let flat = FlatIndex::from_rows(&pts, Metric::Euclidean);
        let ivf = IvfIndex::from_rows(
            &pts,
            Metric::Euclidean,
            &IvfConfig {
                nlist: 6,
                nprobe: 6,
                ..Default::default()
            },
        );
        for q in [[0.2f32, 0.1], [5.9, 6.2], [3.0, 3.0]] {
            assert_eq!(
                ivf.search(&q, 7),
                flat.search(&q, 7),
                "nprobe==nlist is exact"
            );
        }
        assert!(
            ivf.stats().exact,
            "full probe must report itself as exact in stats"
        );
    }

    #[test]
    fn nprobe_is_a_live_recall_knob() {
        let pts = blobs(30, &[(0.0, 0.0), (8.0, 8.0)], 3);
        let mut ix = IvfIndex::from_rows(
            &pts,
            Metric::Euclidean,
            &IvfConfig {
                nlist: 2,
                nprobe: 1,
                ..Default::default()
            },
        );
        assert_eq!(ix.nprobe(), 1);
        ix.set_nprobe(0);
        assert_eq!(ix.nprobe(), 1, "clamped to ≥ 1");
        let ix = ix.with_nprobe(2);
        assert_eq!(ix.nprobe(), 2);
        // Over-asking is clamped to nlist at search time.
        let ix = ix.with_nprobe(99);
        let _ = ix.search(&[1.0, 1.0], 3);
        assert_eq!(ix.stats().probes, 2);
    }

    #[test]
    fn cosine_clusters_on_the_unit_sphere() {
        // Two angular families with wildly different magnitudes.
        let mut pts = Vec::new();
        for i in 1..=40 {
            let m = i as f32;
            pts.push(vec![m, 0.1 * m]);
            pts.push(vec![0.1 * m, m]);
        }
        let ix = IvfIndex::from_rows(
            &pts,
            Metric::Cosine,
            &IvfConfig {
                nlist: 2,
                nprobe: 1,
                ..Default::default()
            },
        );
        let hits = ix.search(&[100.0, 8.0], 10);
        for (id, d) in hits {
            let p = ix.store().row(id as usize);
            assert!(p[0] > p[1], "angularly wrong hit {p:?} (d={d})");
        }
    }

    #[test]
    fn empty_and_auto_nlist() {
        let empty = IvfIndex::build(
            VectorStore::new(4),
            Metric::Euclidean,
            &IvfConfig::default(),
        );
        assert!(empty.is_empty());
        assert!(empty.search(&[0.0; 4], 3).is_empty());

        let pts = blobs(50, &[(0.0, 0.0), (5.0, 5.0)], 4);
        let auto = IvfIndex::from_rows(&pts, Metric::Euclidean, &IvfConfig::default());
        assert_eq!(auto.nlist(), 10, "⌈√100⌉");
        assert_eq!(auto.len(), 100);
        assert_eq!(auto.dim(), 2);
    }

    #[test]
    fn search_batch_matches_single_searches_and_counters() {
        let pts = blobs(40, &[(0.0, 0.0), (7.0, 7.0), (0.0, 7.0)], 6);
        let ix = IvfIndex::from_rows(
            &pts,
            Metric::Euclidean,
            &IvfConfig {
                nlist: 6,
                nprobe: 2,
                ..Default::default()
            },
        );
        let queries: Vec<Vec<f32>> = (0..9)
            .map(|i| vec![i as f32, (i % 3) as f32 * 3.0])
            .collect();
        let refs: Vec<&[f32]> = queries.iter().map(Vec::as_slice).collect();
        let single: Vec<_> = refs.iter().map(|q| ix.search(q, 5)).collect();
        let after_single = ix.stats();
        let batched = ix.search_batch(&refs, 5);
        assert_eq!(
            batched, single,
            "list-grouped traversal must not change results"
        );
        let after_batch = ix.stats();
        // The batch accounts exactly like 9 single searches.
        assert_eq!(after_batch.searches, after_single.searches + 9);
        assert_eq!(
            after_batch.probes - after_single.probes,
            after_single.probes,
        );
        assert_eq!(
            after_batch.candidates - after_single.candidates,
            after_single.candidates,
        );
    }

    #[test]
    fn from_parts_round_trips_and_validates() {
        let pts = blobs(30, &[(0.0, 0.0), (6.0, 6.0)], 7);
        let built = IvfIndex::from_rows(
            &pts,
            Metric::Euclidean,
            &IvfConfig {
                nlist: 4,
                nprobe: 2,
                ..Default::default()
            },
        );
        let rebuilt = IvfIndex::from_parts(
            built.store().clone(),
            Metric::Euclidean,
            built.centroids().clone(),
            built.lists().to_vec(),
            built.nprobe(),
        )
        .expect("exported parts are consistent");
        for q in [[0.5f32, 0.2], [5.8, 6.1], [3.0, 3.0]] {
            assert_eq!(rebuilt.search(&q, 5), built.search(&q, 5));
        }
        assert_eq!(rebuilt.stats().searches, 3, "counters restart at zero");

        // Inconsistent parts are refused, not deferred to a panic.
        assert!(
            IvfIndex::from_parts(
                built.store().clone(),
                Metric::Euclidean,
                built.centroids().clone(),
                vec![vec![9999u32]; built.nlist()],
                2,
            )
            .is_none(),
            "out-of-range list entry"
        );
        assert!(
            IvfIndex::from_parts(
                built.store().clone(),
                Metric::Euclidean,
                built.centroids().clone(),
                vec![Vec::new(); built.nlist() + 1],
                2,
            )
            .is_none(),
            "centroid/list count mismatch"
        );
    }

    #[test]
    fn deterministic_under_seed() {
        let pts = blobs(25, &[(0.0, 0.0), (4.0, 4.0), (8.0, 0.0)], 5);
        let cfg = IvfConfig {
            nlist: 5,
            nprobe: 2,
            ..Default::default()
        };
        let a = IvfIndex::from_rows(&pts, Metric::Euclidean, &cfg);
        let b = IvfIndex::from_rows(&pts, Metric::Euclidean, &cfg);
        for q in [[1.0f32, 1.0], [7.5, 0.5]] {
            assert_eq!(a.search(&q, 4), b.search(&q, 4));
        }
    }
}
