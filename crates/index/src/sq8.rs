//! SQ8 scalar-quantized nearest-neighbor search.
//!
//! An [`Sq8Index`] stores each row as one byte per dimension instead of
//! four: per-dimension affine quantization `x̂_d = min_d + code_d ·
//! step_d` with `step_d = (max_d − min_d) / 255` trained over the
//! indexed rows. Search runs **asymmetric distance computation** (ADC):
//! the query stays full-precision f32 and is compared against decoded
//! codes on the fly by the fused [`querc_linalg::kernel`] u8 kernels — the codes
//! are never materialized back to f32 rows.
//!
//! Two compositions:
//!
//! * `nlist == 0` — a flat ADC scan over all codes;
//! * `nlist > 0` (or [`Sq8Config::AUTO_NLIST`]) — IVF coarse
//!   quantization on top (the same `coarse_partition` as
//!   [`crate::IvfIndex`]), scanning only the `nprobe` nearest lists.
//!   For squared-Euclidean the quantizer then encodes **residuals**
//!   `x − centroid` with one quantizer shared across lists: residual
//!   ranges are a fraction of raw coordinate ranges, so the per-dim
//!   step (and with it the ADC error) shrinks by the same factor and
//!   recall stays within noise of the exact-IVF scan at equal `nprobe`.
//!
//! `rerank_factor` trades memory for exactness: with `r > 0` the
//! original f32 store is retained and the top `r × k` ADC candidates
//! are re-scored exactly (reported distances are then bit-identical to
//! a [`crate::FlatIndex`] over the same rows); with `r == 0` the f32
//! rows are dropped entirely — codes + ids are all that stays resident
//! (≈ ¼ of the f32 bytes) and ADC distances are reported.
//!
//! Determinism: codes, centroids and the quantizer are deterministic
//! under the config seed; ADC kernels are bit-identical across the
//! scalar/AVX2 arms; hits follow the crate-wide `(distance, id)` total
//! order. A persisted index restored through [`Sq8Index::from_parts`]
//! reproduces search results bit for bit.

use crate::ivf::coarse_partition;
use crate::metric::{Metric, Rows, SCAN_BLOCK};
use crate::store::VectorStore;
use crate::{Hit, IndexStats, TopK, VectorIndex};
use querc_linalg::{kernel, ops};
use std::sync::atomic::{AtomicU64, Ordering};

/// Build/search knobs for an [`Sq8Index`].
#[derive(Debug, Clone)]
pub struct Sq8Config {
    /// Coarse inverted lists on top of the codes. `0` ⇒ none: a flat
    /// ADC scan. [`Sq8Config::AUTO_NLIST`] ⇒ `⌈√n⌉` like
    /// [`crate::IvfConfig`]'s auto mode.
    pub nlist: usize,
    /// Lists scanned per query when a coarse layer exists (clamped to
    /// `[1, nlist]` at search time).
    pub nprobe: usize,
    /// Exact re-rank breadth: the top `rerank_factor × k` ADC
    /// candidates are re-scored against retained f32 rows. `0` drops
    /// the f32 store entirely (maximum memory reduction, ADC distances
    /// reported).
    pub rerank_factor: usize,
    /// Lloyd iterations for the coarse quantizer.
    pub train_iters: usize,
    /// Coarse-quantizer training sample (see
    /// [`crate::IvfConfig::train_sample`]). `0` ⇒ all rows.
    pub train_sample: usize,
    /// Seed for the coarse quantizer.
    pub seed: u64,
}

impl Sq8Config {
    /// Marker for `nlist`: pick `⌈√n⌉` coarse lists at build time.
    pub const AUTO_NLIST: usize = usize::MAX;
}

impl Default for Sq8Config {
    fn default() -> Self {
        Sq8Config {
            nlist: 0,
            nprobe: 8,
            rerank_factor: 4,
            train_iters: 10,
            train_sample: 100_000,
            seed: 0x1df5,
        }
    }
}

/// Per-dimension affine quantizer: `encode(x) = round((x − min) / step)`
/// clamped to `[0, 255]`, `decode(c) = min + c · step`. Degenerate
/// dimensions (`max == min`) get `step == 0` and always encode to 0.
#[derive(Debug, Clone)]
struct Sq8Quantizer {
    min: Vec<f32>,
    step: Vec<f32>,
    inv_step: Vec<f32>,
}

impl Sq8Quantizer {
    fn from_min_step(min: Vec<f32>, step: Vec<f32>) -> Sq8Quantizer {
        let inv_step = step
            .iter()
            .map(|&s| if s > 0.0 { 1.0 / s } else { 0.0 })
            .collect();
        Sq8Quantizer {
            min,
            step,
            inv_step,
        }
    }

    /// Train on per-dim ranges of `residual(i)` over all rows.
    fn train(n: usize, dim: usize, mut residual: impl FnMut(usize, &mut [f32])) -> Sq8Quantizer {
        let mut lo = vec![f32::INFINITY; dim];
        let mut hi = vec![f32::NEG_INFINITY; dim];
        let mut r = vec![0.0f32; dim];
        for i in 0..n {
            residual(i, &mut r);
            for d in 0..dim {
                lo[d] = lo[d].min(r[d]);
                hi[d] = hi[d].max(r[d]);
            }
        }
        let mut min = Vec::with_capacity(dim);
        let mut step = Vec::with_capacity(dim);
        for d in 0..dim {
            let (l, h) = if lo[d] <= hi[d] {
                (lo[d], hi[d])
            } else {
                (0.0, 0.0) // n == 0
            };
            min.push(l);
            let s = (h - l) / 255.0;
            step.push(if s.is_finite() && s > 0.0 { s } else { 0.0 });
        }
        Sq8Quantizer::from_min_step(min, step)
    }

    #[inline]
    fn encode_into(&self, r: &[f32], out: &mut [u8]) {
        for d in 0..r.len() {
            let c = ((r[d] - self.min[d]) * self.inv_step[d]).round();
            out[d] = c.clamp(0.0, 255.0) as u8;
        }
    }

    #[inline]
    fn decode_into(&self, codes: &[u8], out: &mut [f32]) {
        for d in 0..codes.len() {
            out[d] = self.min[d] + codes[d] as f32 * self.step[d];
        }
    }
}

/// Contiguous row-major u8 code storage, stride padded to a multiple
/// of 8 bytes (the ADC kernels widen 8 codes per step).
#[derive(Debug, Clone)]
struct CodeStore {
    data: Vec<u8>,
    dim: usize,
    stride: usize,
}

impl CodeStore {
    fn new(dim: usize, rows: usize) -> CodeStore {
        let stride = dim.div_ceil(8) * 8;
        CodeStore {
            data: vec![0u8; rows * stride],
            dim,
            stride,
        }
    }

    #[inline]
    fn row(&self, i: usize) -> &[u8] {
        &self.data[i * self.stride..i * self.stride + self.dim]
    }

    #[inline]
    fn row_mut(&mut self, i: usize) -> &mut [u8] {
        let s = self.stride;
        &mut self.data[i * s..i * s + self.dim]
    }
}

/// Scalar-quantized (optionally IVF-composed) ANN index over u8 codes
/// with asymmetric-distance search — see the module docs.
#[derive(Debug)]
pub struct Sq8Index {
    metric: Metric,
    dim: usize,
    quant: Sq8Quantizer,
    /// Coarse centroids; empty ⇒ flat ADC scan over one implicit list.
    centroids: Rows,
    /// Codes permuted so each list's rows are contiguous: permuted row
    /// `j` encodes original row `ids[j]`; list `c` spans
    /// `offsets[c]..offsets[c + 1]`.
    codes: CodeStore,
    ids: Vec<u32>,
    offsets: Vec<usize>,
    /// Decoded-row L2 norms per permuted row (cosine only; empty for
    /// squared-Euclidean).
    norms: Vec<f32>,
    /// Retained f32 rows (original id order) when `rerank_factor > 0`.
    exact: Option<Rows>,
    nprobe: usize,
    rerank_factor: usize,
    searches: AtomicU64,
    probes: AtomicU64,
    candidates: AtomicU64,
}

impl Sq8Index {
    /// Quantize `store` under `metric` and `cfg`. With a positive
    /// `rerank_factor` the store is retained for exact re-ranking;
    /// with `0` it is dropped once encoded.
    pub fn build(store: VectorStore, metric: Metric, cfg: &Sq8Config) -> Sq8Index {
        let n = store.len();
        let dim = store.dim();
        let (centroids, lists) = if cfg.nlist == 0 || n == 0 {
            (
                VectorStore::new(dim),
                if n == 0 {
                    Vec::new()
                } else {
                    vec![(0..n as u32).collect::<Vec<u32>>()]
                },
            )
        } else {
            let nlist = if cfg.nlist == Sq8Config::AUTO_NLIST {
                0
            } else {
                cfg.nlist
            };
            coarse_partition(
                &store,
                metric,
                nlist,
                cfg.train_iters,
                cfg.train_sample,
                cfg.seed,
            )
        };
        // Residuals only pay off where the centroid lives in the rows'
        // own space: squared-Euclidean. Cosine centroids are
        // unit-normalized while rows have arbitrary magnitude, so raw
        // rows are quantized there.
        let residual_coarse = metric == Metric::Euclidean && !centroids.is_empty();
        // Map permuted slot -> original id, and original id -> its list.
        let mut ids = Vec::with_capacity(n);
        let mut offsets = Vec::with_capacity(lists.len() + 1);
        offsets.push(0usize);
        let mut list_of = vec![0u32; n];
        for (c, list) in lists.iter().enumerate() {
            for &id in list {
                list_of[id as usize] = c as u32;
                ids.push(id);
            }
            offsets.push(ids.len());
        }
        let residual = |i: usize, out: &mut [f32]| {
            let row = store.row(i);
            if residual_coarse {
                let mu = centroids.row(list_of[i] as usize);
                for d in 0..dim {
                    out[d] = row[d] - mu[d];
                }
            } else {
                out[..dim].copy_from_slice(row);
            }
        };
        let quant = Sq8Quantizer::train(n, dim, residual);
        let mut codes = CodeStore::new(dim, n);
        let mut r = vec![0.0f32; dim];
        for (j, &id) in ids.iter().enumerate() {
            residual(id as usize, &mut r);
            quant.encode_into(&r, codes.row_mut(j));
        }
        let norms = if metric == Metric::Cosine {
            let mut dec = vec![0.0f32; dim];
            (0..n)
                .map(|j| {
                    quant.decode_into(codes.row(j), &mut dec);
                    ops::norm(&dec)
                })
                .collect()
        } else {
            Vec::new()
        };
        Sq8Index {
            metric,
            dim,
            quant,
            centroids: Rows::new(centroids, metric),
            codes,
            ids,
            offsets,
            norms,
            exact: (cfg.rerank_factor > 0).then(|| Rows::new(store, metric)),
            nprobe: cfg.nprobe.max(1),
            rerank_factor: cfg.rerank_factor,
            searches: AtomicU64::new(0),
            probes: AtomicU64::new(0),
            candidates: AtomicU64::new(0),
        }
    }

    /// Bulk-build from row data (see [`VectorStore::from_rows`]).
    ///
    /// # Panics
    /// If `rows` is empty or ragged.
    pub fn from_rows(rows: &[Vec<f32>], metric: Metric, cfg: &Sq8Config) -> Sq8Index {
        Sq8Index::build(VectorStore::from_rows(rows), metric, cfg)
    }

    /// Reassemble an index from previously exported parts — the restore
    /// path for a persisted snapshot. `codes_by_row` is in **original
    /// row order** (row `i`'s `dim` codes at `i * dim`), as returned by
    /// [`Sq8Index::codes_by_row`]; `centroids`/`lists` must both be
    /// empty (flat) or consistent; `exact` re-enables re-ranking and
    /// must hold the original rows. Search counters restart at zero,
    /// search results are bit-identical to the exported index's.
    ///
    /// Returns `None` on any inconsistency (dimension mismatches, list
    /// ids out of range or not a permutation of the rows, code length
    /// not a multiple of `dim`) — a corrupt snapshot must surface an
    /// error, not a panic at search time.
    #[allow(clippy::too_many_arguments)]
    pub fn from_parts(
        metric: Metric,
        dim: usize,
        quant_min: Vec<f32>,
        quant_step: Vec<f32>,
        codes_by_row: &[u8],
        centroids: VectorStore,
        lists: Vec<Vec<u32>>,
        exact: Option<VectorStore>,
        nprobe: usize,
        rerank_factor: usize,
    ) -> Option<Sq8Index> {
        if dim == 0 || quant_min.len() != dim || quant_step.len() != dim {
            return None;
        }
        if !codes_by_row.len().is_multiple_of(dim) {
            return None;
        }
        let n = codes_by_row.len() / dim;
        if centroids.len() != lists.len() {
            return None;
        }
        if !centroids.is_empty() && centroids.dim() != dim {
            return None;
        }
        if let Some(ex) = &exact {
            if ex.len() != n || ex.dim() != dim {
                return None;
            }
        }
        let lists = if lists.is_empty() && n > 0 {
            vec![(0..n as u32).collect::<Vec<u32>>()]
        } else {
            lists
        };
        // Every row must appear in exactly one list.
        let mut seen = vec![false; n];
        for &id in lists.iter().flatten() {
            match seen.get_mut(id as usize) {
                Some(s) if !*s => *s = true,
                _ => return None,
            }
        }
        if seen.iter().any(|s| !*s) {
            return None;
        }
        let quant = Sq8Quantizer::from_min_step(quant_min, quant_step);
        let mut ids = Vec::with_capacity(n);
        let mut offsets = Vec::with_capacity(lists.len() + 1);
        offsets.push(0usize);
        let mut codes = CodeStore::new(dim, n);
        for list in &lists {
            for &id in list {
                let j = ids.len();
                codes
                    .row_mut(j)
                    .copy_from_slice(&codes_by_row[id as usize * dim..(id as usize + 1) * dim]);
                ids.push(id);
            }
            offsets.push(ids.len());
        }
        let norms = if metric == Metric::Cosine {
            let mut dec = vec![0.0f32; dim];
            (0..n)
                .map(|j| {
                    quant.decode_into(codes.row(j), &mut dec);
                    ops::norm(&dec)
                })
                .collect()
        } else {
            Vec::new()
        };
        // The flat placeholder list is an internal detail, not a coarse
        // layer — keep centroids authoritative for `partitions`.
        Some(Sq8Index {
            metric,
            dim,
            quant,
            centroids: Rows::new(centroids, metric),
            codes,
            ids,
            offsets,
            norms,
            exact: exact.map(|rows| Rows::new(rows, metric)),
            nprobe: nprobe.max(1),
            rerank_factor,
            searches: AtomicU64::new(0),
            probes: AtomicU64::new(0),
            candidates: AtomicU64::new(0),
        })
    }

    /// Codes in original row order (`n × dim` bytes) — the export half
    /// of [`Sq8Index::from_parts`].
    pub fn codes_by_row(&self) -> Vec<u8> {
        let mut out = vec![0u8; self.ids.len() * self.dim];
        for (j, &id) in self.ids.iter().enumerate() {
            out[id as usize * self.dim..(id as usize + 1) * self.dim]
                .copy_from_slice(self.codes.row(j));
        }
        out
    }

    /// The quantizer's per-dimension `(min, step)`.
    pub fn quantizer(&self) -> (&[f32], &[f32]) {
        (&self.quant.min, &self.quant.step)
    }

    /// Coarse centroids (empty for a flat SQ8 index).
    pub fn centroids(&self) -> &VectorStore {
        self.centroids.store()
    }

    /// Inverted lists (empty for a flat SQ8 index).
    pub fn lists(&self) -> Vec<Vec<u32>> {
        if self.nlist() == 0 {
            return Vec::new();
        }
        (0..self.offsets.len() - 1)
            .map(|c| self.ids[self.offsets[c]..self.offsets[c + 1]].to_vec())
            .collect()
    }

    /// The retained f32 rows, when re-ranking is enabled.
    pub fn exact_store(&self) -> Option<&VectorStore> {
        self.exact.as_ref().map(Rows::store)
    }

    /// The index's metric.
    pub fn metric(&self) -> Metric {
        self.metric
    }

    /// Current `nprobe` setting.
    pub fn nprobe(&self) -> usize {
        self.nprobe
    }

    /// Set the recall knob at runtime (≥ 1 enforced).
    pub fn set_nprobe(&mut self, nprobe: usize) {
        self.nprobe = nprobe.max(1);
    }

    /// Exact re-rank breadth (`0` = re-ranking disabled, f32 rows
    /// dropped).
    pub fn rerank_factor(&self) -> usize {
        self.rerank_factor
    }

    /// Number of coarse lists (0 for a flat SQ8 index).
    pub fn nlist(&self) -> usize {
        self.centroids.store().len()
    }

    /// Internal scan lists (the flat index has one implicit list).
    fn scan_lists(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    /// Probe order over scan lists for `query`.
    fn probe_order(&self, query: &[f32]) -> Vec<u32> {
        if self.nlist() == 0 {
            return if self.scan_lists() == 0 {
                Vec::new()
            } else {
                vec![0]
            };
        }
        let probed = self.centroids.top_k(query, self.nprobe.min(self.nlist()));
        probed.into_iter().map(|(c, _)| c).collect()
    }

    /// ADC-scan list `c`, pushing `(original id, adc distance)` into
    /// `top`. `scratch` holds the per-query translated operands.
    fn scan_list(&self, c: usize, scratch: &QueryScratch, top: &mut TopK) -> u64 {
        let (start, end) = (self.offsets[c], self.offsets[c + 1]);
        let stride = self.codes.stride;
        let mut buf = [0.0f32; SCAN_BLOCK];
        let mut row = start;
        match self.metric {
            Metric::Euclidean => {
                // t = q − µ_c − min, folded once per (query, list).
                let mut t = scratch.t_base.clone();
                if self.nlist() > 0 {
                    let mu = self.centroids.store().row(c);
                    for d in 0..self.dim {
                        t[d] -= mu[d];
                    }
                }
                while row < end {
                    let chunk = (end - row).min(SCAN_BLOCK);
                    let codes = &self.codes.data[row * stride..(row + chunk) * stride];
                    kernel::adc_sq_block(&t, &self.quant.step, codes, stride, &mut buf[..chunk]);
                    for (j, &d) in buf[..chunk].iter().enumerate() {
                        top.push(self.ids[row + j], d);
                    }
                    row += chunk;
                }
            }
            Metric::Cosine => {
                while row < end {
                    let chunk = (end - row).min(SCAN_BLOCK);
                    let codes = &self.codes.data[row * stride..(row + chunk) * stride];
                    kernel::adc_dot_block(&scratch.w, codes, stride, &mut buf[..chunk]);
                    for (j, &wcs) in buf[..chunk].iter().enumerate() {
                        let dist =
                            ops::cosine_finish(scratch.qb + wcs, scratch.nq, self.norms[row + j]);
                        top.push(self.ids[row + j], dist);
                    }
                    row += chunk;
                }
            }
        }
        (end - start) as u64
    }

    /// Re-rank the ADC candidates exactly against the retained f32
    /// rows; falls through unchanged when re-ranking is disabled.
    fn finalize(&self, query: &[f32], k: usize, adc_top: TopK) -> Vec<Hit> {
        let adc_hits = adc_top.into_sorted();
        let Some(exact) = &self.exact else {
            return adc_hits.into_iter().take(k).collect();
        };
        let nq = exact.query_norm(query);
        let mut top = TopK::new(k);
        for (id, _) in adc_hits {
            top.push(id, exact.distance(query, nq, id as usize));
        }
        top.into_sorted()
    }

    /// ADC candidate breadth for a top-`k` request.
    fn adc_k(&self, k: usize) -> usize {
        if self.exact.is_some() {
            k.saturating_mul(self.rerank_factor.max(1))
        } else {
            k
        }
    }
}

/// Per-query precomputed ADC operands. Everything here is computed
/// with the *scalar* reference kernels, so the values are independent
/// of the active kernel arm — arm parity of full search results then
/// reduces to arm parity of the block kernels.
struct QueryScratch {
    /// Euclidean: `q − min` (per-list centroid folded in later).
    t_base: Vec<f32>,
    /// Cosine: `q ⊙ step`.
    w: Vec<f32>,
    /// Cosine: `dot(q, min)`.
    qb: f32,
    /// Cosine: `‖q‖`.
    nq: f32,
}

impl QueryScratch {
    fn new(ix: &Sq8Index, query: &[f32]) -> QueryScratch {
        match ix.metric {
            Metric::Euclidean => QueryScratch {
                t_base: query
                    .iter()
                    .zip(&ix.quant.min)
                    .map(|(q, m)| q - m)
                    .collect(),
                w: Vec::new(),
                qb: 0.0,
                nq: 0.0,
            },
            Metric::Cosine => QueryScratch {
                t_base: Vec::new(),
                w: query
                    .iter()
                    .zip(&ix.quant.step)
                    .map(|(q, s)| q * s)
                    .collect(),
                qb: ops::dot(query, &ix.quant.min),
                nq: ops::norm(query),
            },
        }
    }
}

impl VectorIndex for Sq8Index {
    fn search(&self, query: &[f32], k: usize) -> Vec<Hit> {
        debug_assert_eq!(query.len(), self.dim());
        self.searches.fetch_add(1, Ordering::Relaxed);
        let probed = self.probe_order(query);
        self.probes
            .fetch_add(probed.len() as u64, Ordering::Relaxed);
        if probed.is_empty() {
            return Vec::new();
        }
        let scratch = QueryScratch::new(self, query);
        let mut adc_top = TopK::new(self.adc_k(k));
        let mut scanned = 0u64;
        for &c in &probed {
            scanned += self.scan_list(c as usize, &scratch, &mut adc_top);
        }
        self.candidates.fetch_add(scanned, Ordering::Relaxed);
        self.finalize(query, k, adc_top)
    }

    /// Batched search groups queries by probed list (like
    /// [`crate::IvfIndex`]): each code block is ADC-scanned while hot
    /// for every query probing it. Results are identical to per-query
    /// [`VectorIndex::search`].
    fn search_batch(&self, queries: &[&[f32]], k: usize) -> Vec<Vec<Hit>> {
        debug_assert!(queries.iter().all(|q| q.len() == self.dim()));
        self.searches
            .fetch_add(queries.len() as u64, Ordering::Relaxed);
        if self.scan_lists() == 0 {
            return vec![Vec::new(); queries.len()];
        }
        let mut by_list: Vec<Vec<u32>> = vec![Vec::new(); self.scan_lists()];
        let mut probed_total = 0u64;
        for (qi, q) in queries.iter().enumerate() {
            let probed = self.probe_order(q);
            probed_total += probed.len() as u64;
            for c in probed {
                by_list[c as usize].push(qi as u32);
            }
        }
        self.probes.fetch_add(probed_total, Ordering::Relaxed);
        let scratches: Vec<QueryScratch> =
            queries.iter().map(|q| QueryScratch::new(self, q)).collect();
        let mut tops: Vec<TopK> = queries.iter().map(|_| TopK::new(self.adc_k(k))).collect();
        let mut scanned = 0u64;
        for (c, probers) in by_list.iter().enumerate() {
            for &qi in probers {
                scanned += self.scan_list(c, &scratches[qi as usize], &mut tops[qi as usize]);
            }
        }
        self.candidates.fetch_add(scanned, Ordering::Relaxed);
        queries
            .iter()
            .zip(tops)
            .map(|(q, top)| self.finalize(q, k, top))
            .collect()
    }

    fn len(&self) -> usize {
        self.ids.len()
    }

    fn dim(&self) -> usize {
        self.dim
    }

    fn stats(&self) -> IndexStats {
        let quant_bytes =
            (self.quant.min.len() + self.quant.step.len() + self.quant.inv_step.len())
                * std::mem::size_of::<f32>();
        let resident = self.codes.data.len()
            + self.ids.len() * std::mem::size_of::<u32>()
            + self.offsets.len() * std::mem::size_of::<usize>()
            + self.norms.len() * std::mem::size_of::<f32>()
            + self.centroids.memory_bytes()
            + quant_bytes
            + self.exact.as_ref().map_or(0, Rows::memory_bytes);
        IndexStats {
            searches: self.searches.load(Ordering::Relaxed),
            probes: self.probes.load(Ordering::Relaxed),
            candidates: self.candidates.load(Ordering::Relaxed),
            partitions: self.nlist().max(usize::from(!self.ids.is_empty())),
            exact: false,
            backend: if self.nlist() == 0 { "sq8" } else { "ivf+sq8" },
            kernel: kernel::kernel_name(),
            resident_bytes: resident,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FlatIndex;
    use querc_linalg::kernel::Kernel;
    use querc_linalg::Pcg32;

    fn blobs(n_per: usize, centers: &[(f32, f32, f32)], seed: u64) -> Vec<Vec<f32>> {
        let mut rng = Pcg32::new(seed);
        let mut pts = Vec::new();
        for &(cx, cy, cz) in centers {
            for _ in 0..n_per {
                pts.push(vec![
                    cx + rng.normal() * 0.4,
                    cy + rng.normal() * 0.4,
                    cz + rng.normal() * 0.4,
                ]);
            }
        }
        pts
    }

    fn recall(truth: &[Hit], got: &[Hit]) -> f64 {
        let t: std::collections::HashSet<u32> = truth.iter().map(|h| h.0).collect();
        got.iter().filter(|h| t.contains(&h.0)).count() as f64 / truth.len().max(1) as f64
    }

    #[test]
    fn flat_sq8_with_rerank_matches_exact_search() {
        let pts = blobs(80, &[(0.0, 0.0, 0.0), (6.0, 6.0, 6.0), (0.0, 6.0, 0.0)], 11);
        let flat = FlatIndex::from_rows(&pts, Metric::Euclidean);
        let sq8 = Sq8Index::from_rows(&pts, Metric::Euclidean, &Sq8Config::default());
        for q in [[0.3f32, 0.1, 0.2], [5.8, 6.1, 6.0], [3.0, 3.0, 3.0]] {
            let exact = flat.search(&q, 10);
            let got = sq8.search(&q, 10);
            assert!(
                recall(&exact, &got) >= 0.9,
                "rerank recall too low: {exact:?} vs {got:?}"
            );
            // Re-ranked distances are the exact f32 distances.
            for (id, d) in &got {
                let want = Metric::Euclidean.distance(&q, flat.store().row(*id as usize));
                assert_eq!(d.to_bits(), want.to_bits());
            }
        }
    }

    #[test]
    fn ivf_sq8_composes_and_counts() {
        let pts = blobs(60, &[(0.0, 0.0, 0.0), (8.0, 8.0, 8.0), (0.0, 8.0, 0.0)], 12);
        let ix = Sq8Index::from_rows(
            &pts,
            Metric::Euclidean,
            &Sq8Config {
                nlist: 3,
                nprobe: 1,
                ..Default::default()
            },
        );
        assert_eq!(ix.nlist(), 3);
        let hits = ix.search(&[8.1, 7.9, 8.0], 5);
        assert_eq!(hits.len(), 5);
        for (id, _) in &hits {
            let p = ix.exact_store().unwrap().row(*id as usize);
            assert!(p[0] > 4.0, "hit {p:?} not in the (8,8,8) blob");
        }
        let s = ix.stats();
        assert_eq!(s.searches, 1);
        assert_eq!(s.probes, 1);
        assert!(s.candidates < 180 * 60, "one blob scanned, not the corpus");
        assert_eq!(s.backend, "ivf+sq8");
        assert!(!s.exact);
    }

    #[test]
    fn rerank_zero_drops_the_f32_store() {
        let pts = blobs(80, &[(0.0, 0.0, 0.0), (9.0, 9.0, 9.0)], 13);
        let lean = Sq8Index::from_rows(
            &pts,
            Metric::Euclidean,
            &Sq8Config {
                rerank_factor: 0,
                ..Default::default()
            },
        );
        let fat = Sq8Index::from_rows(&pts, Metric::Euclidean, &Sq8Config::default());
        assert!(lean.exact_store().is_none());
        assert!(
            lean.stats().resident_bytes * 2 < fat.stats().resident_bytes,
            "lean {} vs fat {}",
            lean.stats().resident_bytes,
            fat.stats().resident_bytes
        );
        // ADC-only search still ranks the right region first.
        let hits = lean.search(&[9.0, 9.0, 9.0], 5);
        assert_eq!(hits.len(), 5);
        assert!(hits.iter().all(|&(id, _)| id >= 80));
    }

    #[test]
    fn cosine_sq8_ranks_by_angle() {
        let mut pts = Vec::new();
        for i in 1..=50 {
            let m = i as f32;
            pts.push(vec![m, 0.05 * m, 0.0]);
            pts.push(vec![0.05 * m, m, 0.0]);
        }
        let ix = Sq8Index::from_rows(&pts, Metric::Cosine, &Sq8Config::default());
        let hits = ix.search(&[100.0, 6.0, 0.0], 8);
        assert_eq!(hits.len(), 8);
        for (id, d) in hits {
            let p = ix.exact_store().unwrap().row(id as usize);
            assert!(p[0] > p[1], "angularly wrong hit {p:?} (d={d})");
        }
        // Zero query is at distance exactly 1 from everything.
        let z = ix.search(&[0.0, 0.0, 0.0], 3);
        assert!(z.iter().all(|&(_, d)| d == 1.0), "{z:?}");
    }

    #[test]
    fn search_batch_matches_single() {
        let pts = blobs(50, &[(0.0, 0.0, 0.0), (7.0, 7.0, 0.0), (0.0, 7.0, 7.0)], 14);
        for metric in [Metric::Euclidean, Metric::Cosine] {
            let ix = Sq8Index::from_rows(
                &pts,
                metric,
                &Sq8Config {
                    nlist: 3,
                    nprobe: 2,
                    ..Default::default()
                },
            );
            let queries: Vec<Vec<f32>> = (0..7)
                .map(|i| vec![i as f32, (i % 3) as f32 * 3.0, 1.0])
                .collect();
            let refs: Vec<&[f32]> = queries.iter().map(Vec::as_slice).collect();
            let single: Vec<_> = refs.iter().map(|q| ix.search(q, 5)).collect();
            assert_eq!(ix.search_batch(&refs, 5), single, "metric {metric:?}");
        }
    }

    #[test]
    fn from_parts_round_trips_bit_identically_and_validates() {
        let pts = blobs(40, &[(0.0, 0.0, 0.0), (6.0, 0.0, 6.0)], 15);
        for (nlist, rerank) in [(0usize, 4usize), (2, 4), (2, 0)] {
            let built = Sq8Index::from_rows(
                &pts,
                Metric::Euclidean,
                &Sq8Config {
                    nlist,
                    nprobe: 2,
                    rerank_factor: rerank,
                    ..Default::default()
                },
            );
            let (min, step) = built.quantizer();
            let rebuilt = Sq8Index::from_parts(
                Metric::Euclidean,
                built.dim(),
                min.to_vec(),
                step.to_vec(),
                &built.codes_by_row(),
                built.centroids().clone(),
                built.lists(),
                built.exact_store().cloned(),
                built.nprobe(),
                built.rerank_factor(),
            )
            .expect("exported parts are consistent");
            for q in [[0.5f32, 0.2, 0.1], [5.8, 0.1, 6.1], [3.0, 0.0, 3.0]] {
                let a = built.search(&q, 6);
                let b = rebuilt.search(&q, 6);
                assert_eq!(a.len(), b.len());
                for (x, y) in a.iter().zip(&b) {
                    assert_eq!(x.0, y.0);
                    assert_eq!(
                        x.1.to_bits(),
                        y.1.to_bits(),
                        "nlist={nlist} rerank={rerank}"
                    );
                }
            }
        }

        let built = Sq8Index::from_rows(&pts, Metric::Euclidean, &Sq8Config::default());
        let (min, step) = built.quantizer();
        let codes = built.codes_by_row();
        // Truncated codes.
        assert!(Sq8Index::from_parts(
            Metric::Euclidean,
            3,
            min.to_vec(),
            step.to_vec(),
            &codes[..codes.len() - 1],
            VectorStore::new(3),
            Vec::new(),
            None,
            1,
            0,
        )
        .is_none());
        // Quantizer length mismatch.
        assert!(Sq8Index::from_parts(
            Metric::Euclidean,
            3,
            min[..2].to_vec(),
            step.to_vec(),
            &codes,
            VectorStore::new(3),
            Vec::new(),
            None,
            1,
            0,
        )
        .is_none());
        // A list id out of range / duplicated.
        let n = pts.len() as u32;
        assert!(Sq8Index::from_parts(
            Metric::Euclidean,
            3,
            min.to_vec(),
            step.to_vec(),
            &codes,
            VectorStore::from_rows(&pts[..2]),
            vec![(0..n).collect(), vec![0u32]],
            None,
            1,
            0,
        )
        .is_none());
    }

    #[test]
    #[cfg(target_arch = "x86_64")]
    fn kernel_arms_agree_on_full_search_results() {
        if !is_x86_feature_detected!("avx2") {
            return;
        }
        let pts = blobs(70, &[(0.0, 0.0, 0.0), (5.0, 5.0, 5.0)], 16);
        for metric in [Metric::Euclidean, Metric::Cosine] {
            let ix = Sq8Index::from_rows(
                &pts,
                metric,
                &Sq8Config {
                    nlist: 2,
                    nprobe: 1,
                    ..Default::default()
                },
            );
            let q = [2.5f32, 2.4, 2.6];
            kernel::set_kernel_override(Some(Kernel::Scalar));
            let scalar = ix.search(&q, 8);
            kernel::set_kernel_override(Some(Kernel::Avx2));
            let avx2 = ix.search(&q, 8);
            kernel::set_kernel_override(None);
            assert_eq!(scalar.len(), avx2.len());
            for (a, b) in scalar.iter().zip(&avx2) {
                assert_eq!(a.0, b.0, "{metric:?}");
                assert_eq!(a.1.to_bits(), b.1.to_bits(), "{metric:?}");
            }
        }
    }

    #[test]
    fn empty_and_tiny_indexes() {
        let empty = Sq8Index::build(
            VectorStore::new(4),
            Metric::Euclidean,
            &Sq8Config::default(),
        );
        assert!(empty.is_empty());
        assert!(empty.search(&[0.0; 4], 3).is_empty());
        assert_eq!(empty.stats().backend, "sq8");

        let one = Sq8Index::from_rows(
            &[vec![1.0f32, 2.0]],
            Metric::Euclidean,
            &Sq8Config::default(),
        );
        let hits = one.search(&[1.0, 2.0], 5);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].0, 0);
        // A single row makes every dimension degenerate: step == 0,
        // decode == min == the row itself, so even ADC is exact here.
        let lean = Sq8Index::from_rows(
            &[vec![1.0f32, 2.0]],
            Metric::Euclidean,
            &Sq8Config {
                rerank_factor: 0,
                ..Default::default()
            },
        );
        assert_eq!(lean.search(&[1.0, 2.0], 1)[0].1, 0.0);
    }
}
