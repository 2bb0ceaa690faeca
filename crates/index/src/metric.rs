//! Distance metrics with a total order.
//!
//! The historical call sites each hand-rolled their distance and their
//! comparison — `partial_cmp(..).unwrap_or(Equal)` in the kNN labeler
//! silently corrupted the k-selection whenever a zero vector pushed
//! `1 − cosine` to NaN. Here the distance definitions and the ordering
//! rule live in one place: distances are semantically defined by the
//! `querc_linalg::ops` reference kernels and computed by the
//! runtime-dispatched [`querc_linalg::kernel`] twins (bit-identical on
//! every arm, so values still match the historical scans), and every
//! comparison goes through [`f32::total_cmp`], under which NaN sorts
//! after every real number and therefore can never win a
//! nearest-neighbor slot.

use crate::store::VectorStore;
use crate::{Hit, TopK};
use querc_linalg::{kernel, ops};

/// How two vectors' distance is measured.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Metric {
    /// **Squared** Euclidean distance (`ops::sq_dist`) — monotone in
    /// true Euclidean distance and cheaper, matching what every
    /// historical scan in the workspace computed.
    #[default]
    Euclidean,
    /// Cosine distance `1 − cosine(a, b)`, in `[0, 2]`.
    ///
    /// Zero vectors are defined to be orthogonal to everything
    /// (`ops::cosine` returns 0 for them), so the distance from a zero
    /// vector — to anything, including another zero vector — is exactly
    /// `1.0`, never NaN. Denormal components behave like any other
    /// finite value.
    ///
    /// An index computes each row's norm **once, at build**, by the
    /// canonical reduction (`ops::norm`) and each query's once per
    /// search; a scan is then one dot per row plus
    /// `ops::cosine_finish`, bit-identical to `ops::cosine_dist`. A
    /// NaN/∞ row keeps a NaN/∞ norm, so it still sorts last.
    Cosine,
}

impl Metric {
    /// Distance between `a` and `b`. Finite for all finite inputs;
    /// inputs containing NaN/∞ may yield NaN, which the total order
    /// ranks after every real distance. Dispatches through
    /// [`querc_linalg::kernel`], bit-identical to the
    /// `querc_linalg::ops` reference on every arm.
    #[inline]
    pub fn distance(&self, a: &[f32], b: &[f32]) -> f32 {
        match self {
            Metric::Euclidean => kernel::sq_dist(a, b),
            Metric::Cosine => kernel::cosine_dist(a, b),
        }
    }

    /// Short lowercase name (`"euclidean"` / `"cosine"`), for reports.
    pub fn name(&self) -> &'static str {
        match self {
            Metric::Euclidean => "euclidean",
            Metric::Cosine => "cosine",
        }
    }
}

/// Most rows per scan block. Batched queries revisit each block while
/// it is cache-hot: the store is walked once per *block*, not once per
/// query, which is what makes `search_batch` faster than k independent
/// scans even though the arithmetic is identical.
pub(crate) const SCAN_BLOCK: usize = 256;

/// Most bytes of rows per scan block: inside any x86 L1d (32–48 KiB)
/// beside the queries, norms and distance buffer, so a batch re-reads
/// each block from L1 (256 rows of 128 dims would stream from L2).
const BLOCK_BYTES: usize = 16 << 10;

/// A [`VectorStore`] under one [`Metric`] plus what the metric caches
/// per row. Every index owns one per store it scans (rows, centroids,
/// re-rank rows); the norms are rebuilt from the rows on restore and
/// never persisted.
#[derive(Debug)]
pub(crate) struct Rows {
    store: VectorStore,
    metric: Metric,
    /// `ops::norm(row)` per row under cosine; empty under Euclidean.
    norms: Vec<f32>,
}

impl Rows {
    pub(crate) fn new(store: VectorStore, metric: Metric) -> Rows {
        let norms = match metric {
            Metric::Euclidean => Vec::new(),
            Metric::Cosine => store.iter().map(kernel::norm).collect(),
        };
        Rows {
            store,
            metric,
            norms,
        }
    }

    pub(crate) fn store(&self) -> &VectorStore {
        &self.store
    }

    pub(crate) fn metric(&self) -> Metric {
        self.metric
    }

    pub(crate) fn memory_bytes(&self) -> usize {
        self.store.memory_bytes() + self.norms.len() * std::mem::size_of::<f32>()
    }

    /// What a search hoists per query: `‖query‖` under cosine.
    #[inline]
    pub(crate) fn query_norm(&self, query: &[f32]) -> f32 {
        match self.metric {
            Metric::Euclidean => 0.0,
            Metric::Cosine => kernel::norm(query),
        }
    }

    /// `metric.distance(query, row(id))` bit for bit, given
    /// `nq = query_norm(query)`.
    #[inline]
    pub(crate) fn distance(&self, query: &[f32], nq: f32, id: usize) -> f32 {
        let row = self.store.row(id);
        match self.metric {
            Metric::Euclidean => kernel::sq_dist(query, row),
            Metric::Cosine => ops::cosine_finish(kernel::dot(query, row), nq, self.norms[id]),
        }
    }

    /// Blocked linear scan of every row for every query, block-major
    /// (each block is scanned for all queries while it is cache-hot);
    /// `norms[i]` is `query_norm(queries[i])`, `tops[i]` collects its hits.
    fn scan(&self, queries: &[&[f32]], norms: &[f32], tops: &mut [TopK]) {
        let stride = self.store.stride();
        // Whole 8-row kernel groups, at least one, at most the buffer.
        let block = (BLOCK_BYTES / (4 * stride)).clamp(8, SCAN_BLOCK) & !7;
        let mut buf = [0.0f32; SCAN_BLOCK];
        for start in (0..self.store.len()).step_by(block) {
            let end = (start + block).min(self.store.len());
            let data = &self.store.data()[start * stride..end * stride];
            let out = &mut buf[..end - start];
            for ((q, &nq), top) in queries.iter().zip(norms).zip(tops.iter_mut()) {
                match self.metric {
                    Metric::Euclidean => kernel::sq_dist_block(q, data, stride, out),
                    Metric::Cosine => {
                        let norms = &self.norms[start..end];
                        kernel::cosine_dist_block_normed(q, nq, data, stride, norms, out)
                    }
                }
                top.push_block(start as u32, out);
            }
        }
    }

    /// Exact top-`k` of `query`.
    pub(crate) fn top_k(&self, query: &[f32], k: usize) -> Vec<Hit> {
        let mut top = [TopK::new(k)];
        self.scan(&[query], &[self.query_norm(query)], &mut top);
        let [top] = top;
        top.into_sorted()
    }

    /// [`Rows::top_k`] per query; `out[i]` answers `queries[i]`.
    pub(crate) fn top_k_batch(&self, queries: &[&[f32]], k: usize) -> Vec<Vec<Hit>> {
        let norms: Vec<f32> = queries.iter().map(|q| self.query_norm(q)).collect();
        let mut tops: Vec<TopK> = queries.iter().map(|_| TopK::new(k)).collect();
        self.scan(queries, &norms, &mut tops);
        tops.into_iter().map(TopK::into_sorted).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn euclidean_is_squared_distance() {
        assert_eq!(Metric::Euclidean.distance(&[0.0, 0.0], &[3.0, 4.0]), 25.0);
    }

    #[test]
    fn cosine_zero_vectors_are_orthogonal_not_nan() {
        let z = [0.0f32, 0.0];
        let x = [1.0f32, 0.0];
        assert_eq!(Metric::Cosine.distance(&z, &x), 1.0);
        assert_eq!(Metric::Cosine.distance(&x, &z), 1.0);
        assert_eq!(Metric::Cosine.distance(&z, &z), 1.0);
    }

    #[test]
    fn cosine_denormals_are_finite() {
        let tiny = [f32::MIN_POSITIVE / 2.0, 0.0];
        let x = [1.0f32, 0.0];
        let d = Metric::Cosine.distance(&tiny, &x);
        assert!(d.is_finite(), "denormal vector produced {d}");
    }

    #[test]
    fn names() {
        assert_eq!(Metric::Euclidean.name(), "euclidean");
        assert_eq!(Metric::Cosine.name(), "cosine");
        assert_eq!(Metric::default(), Metric::Euclidean);
    }
}
