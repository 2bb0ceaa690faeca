//! Runtime-dispatched scalar/AVX2/AVX-512 compute kernels — the
//! workspace's shared **compute plane**.
//!
//! Every distance the index plane computes and every hot inner loop of
//! the training stack (GEMV/GEMM, negative-sampling dots, centroid
//! scans) flows through this module. Three arms exist:
//!
//! * **scalar** — the [`crate::ops`] lane-strided reference loops
//!   (element `i` accumulates into lane `i % 8`, lanes collapse through
//!   `ops::lane_sum`). This is the semantic definition.
//! * **avx2** — `std::arch` intrinsics performing the *identical*
//!   IEEE-754 operation sequence: one `vaddps` per 8-element chunk,
//!   scalar remainder folded into the same lanes, the same `lane_sum`
//!   reduction tree. The chain is written once, in two generic drivers
//!   (one row; a block of rows, four at a time on tail-free dims); each
//!   reduction — squared distance, dot, and the two SQ8
//!   asymmetric-distance terms — only says what one 8-element chunk of
//!   a row contributes. No FMA is used in the accumulation (fusing
//!   changes rounding), so **both arms are bit-for-bit identical** —
//!   for squared-Euclidean, cosine, dot, axpy, the gathered-row and
//!   blocked-GEMM kernels, and the SQ8 kernels alike. The cosine ulp
//!   bound between arms is therefore 0.
//! * **avx512** — a 16-wide [`axpy`] (elementwise — no reduction, so
//!   register width is invisible to the result), the inner loop of
//!   [`gemm`] and of SGD training. Every reduction is a loop-carried
//!   8-lane chain per row that wider registers cannot shorten without
//!   changing the operation order, so this arm runs the AVX2 bodies for
//!   them. Bit-identical to both other arms by the same argument.
//!
//! The active arm is picked once per process: the `QUERC_SIMD`
//! environment variable (`scalar`/`off`/`0` forces the reference path,
//! `avx2`/`on`/`1` requests AVX2, `avx512` requests AVX-512) wins over
//! CPU detection, and a programmatic [`set_kernel_override`] wins over
//! both. Requesting an arm the
//! CPU lacks falls back to the widest available one. Because the arms
//! are bit-identical, flipping the kernel mid-process is benign — only
//! throughput changes, never a result.
//!
//! The `*_with` variants take an explicit [`Kernel`] and exist for the
//! parity suite and the benchmarks (timing one arm against the other
//! without touching process-global state).
//!
//! The index plane (`querc-index`) and the training stack
//! (`querc-embed`, `querc-learn`, `querc-cluster`, [`crate::Matrix`])
//! both import this module directly; there is no other path to it.

use crate::ops;
use std::sync::atomic::{AtomicU8, Ordering};

/// A compute-kernel implementation arm.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kernel {
    /// The [`crate::ops`] lane-strided reference loops.
    Scalar,
    /// Hand-vectorized AVX2 intrinsics (x86-64 only), bit-identical to
    /// [`Kernel::Scalar`].
    Avx2,
    /// AVX-512 (x86-64 only): a 16-wide axpy — the GEMM and SGD inner
    /// loop — and the AVX2 bodies for every reduction. Bit-identical to
    /// [`Kernel::Scalar`].
    Avx512,
}

impl Kernel {
    /// Short lowercase name (`"scalar"` / `"avx2"` / `"avx512"`), for
    /// reports.
    pub fn name(&self) -> &'static str {
        match self {
            Kernel::Scalar => "scalar",
            Kernel::Avx2 => "avx2",
            Kernel::Avx512 => "avx512",
        }
    }
}

/// 0 = unset, 1 = force scalar, 2 = force avx2, 3 = force avx512
/// (each "force" still degrades to the widest available arm).
static OVERRIDE: AtomicU8 = AtomicU8::new(0);

/// Whether this CPU can run the AVX2 arm (benchmarks use this to size
/// their sweep; dispatch consults it automatically).
#[cfg(target_arch = "x86_64")]
pub fn avx2_available() -> bool {
    use std::sync::OnceLock;
    static AVX2: OnceLock<bool> = OnceLock::new();
    *AVX2.get_or_init(|| is_x86_feature_detected!("avx2"))
}

/// Whether this CPU can run the AVX2 arm (benchmarks use this to size
/// their sweep; dispatch consults it automatically).
#[cfg(not(target_arch = "x86_64"))]
pub fn avx2_available() -> bool {
    false
}

/// Whether this CPU can run the AVX-512 arm: AVX-512 F for its 16-wide
/// axpy, plus AVX2, whose bodies run every reduction.
#[cfg(target_arch = "x86_64")]
pub fn avx512_available() -> bool {
    use std::sync::OnceLock;
    static AVX512: OnceLock<bool> = OnceLock::new();
    *AVX512.get_or_init(|| is_x86_feature_detected!("avx512f") && avx2_available())
}

/// Whether this CPU can run the AVX-512 arm.
#[cfg(not(target_arch = "x86_64"))]
pub fn avx512_available() -> bool {
    false
}

fn env_kernel() -> Option<Kernel> {
    use std::sync::OnceLock;
    static ENV: OnceLock<Option<Kernel>> = OnceLock::new();
    *ENV.get_or_init(|| match std::env::var("QUERC_SIMD") {
        Ok(v) => match v.to_ascii_lowercase().as_str() {
            "scalar" | "off" | "0" => Some(Kernel::Scalar),
            "avx2" | "on" | "1" => Some(Kernel::Avx2),
            "avx512" => Some(Kernel::Avx512),
            _ => None,
        },
        Err(_) => None,
    })
}

/// Force (or clear, with `None`) the kernel arm for the whole process,
/// overriding both `QUERC_SIMD` and CPU detection. Requesting
/// [`Kernel::Avx2`] on a CPU without AVX2 still runs scalar. Returns
/// the now-active kernel. Safe to call at any time: the arms are
/// bit-identical, so in-flight searches and fits are unaffected.
pub fn set_kernel_override(kernel: Option<Kernel>) -> Kernel {
    let code = match kernel {
        None => 0,
        Some(Kernel::Scalar) => 1,
        Some(Kernel::Avx2) => 2,
        Some(Kernel::Avx512) => 3,
    };
    OVERRIDE.store(code, Ordering::Relaxed);
    active_kernel()
}

/// The kernel arm distances are currently computed with.
pub fn active_kernel() -> Kernel {
    let requested = match OVERRIDE.load(Ordering::Relaxed) {
        1 => Some(Kernel::Scalar),
        2 => Some(Kernel::Avx2),
        3 => Some(Kernel::Avx512),
        _ => env_kernel(),
    };
    match requested {
        Some(Kernel::Scalar) => Kernel::Scalar,
        Some(Kernel::Avx512) if avx512_available() => Kernel::Avx512,
        Some(Kernel::Avx512) if avx2_available() => Kernel::Avx2,
        Some(Kernel::Avx512) => Kernel::Scalar,
        Some(Kernel::Avx2) if avx2_available() => Kernel::Avx2,
        Some(Kernel::Avx2) => Kernel::Scalar,
        None if avx512_available() => Kernel::Avx512,
        None if avx2_available() => Kernel::Avx2,
        None => Kernel::Scalar,
    }
}

/// Name of the active kernel arm (`"avx512"` / `"avx2"` / `"scalar"`), as surfaced
/// in index stats and the serving-layer throughput reports.
pub fn kernel_name() -> &'static str {
    active_kernel().name()
}

// ---------------------------------------------------------------------
// Row kernels (one query × one row).
// ---------------------------------------------------------------------

/// Squared Euclidean distance, on the active kernel. Bit-identical to
/// `ops::sq_dist` on every arm. Panics if the lengths differ.
#[inline]
pub fn sq_dist(a: &[f32], b: &[f32]) -> f32 {
    sq_dist_with(active_kernel(), a, b)
}

/// [`sq_dist`] on an explicit arm (parity tests / benchmarks).
#[inline]
pub fn sq_dist_with(kernel: Kernel, a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len());
    match kernel {
        Kernel::Scalar => ops::sq_dist(a, b),
        #[cfg(target_arch = "x86_64")]
        Kernel::Avx2 | Kernel::Avx512 => unsafe { avx2::sq_dist(a, b) },
        #[cfg(not(target_arch = "x86_64"))]
        Kernel::Avx2 | Kernel::Avx512 => ops::sq_dist(a, b),
    }
}

/// Cosine distance `1 − cosine(a, b)`, on the active kernel.
/// Bit-identical to `ops::cosine_dist` on every arm (zero vectors →
/// exactly `1.0`, never NaN).
#[inline]
pub fn cosine_dist(a: &[f32], b: &[f32]) -> f32 {
    cosine_dist_with(active_kernel(), a, b)
}

/// [`cosine_dist`] on an explicit arm (parity tests / benchmarks).
#[inline]
pub fn cosine_dist_with(kernel: Kernel, a: &[f32], b: &[f32]) -> f32 {
    ops::cosine_finish(
        dot_with(kernel, a, b),
        norm_with(kernel, a),
        norm_with(kernel, b),
    )
}

/// Euclidean norm, on the active kernel. Bit-identical to `ops::norm`
/// — what the cosine indexes cache per row and hoist per query.
#[inline]
pub fn norm(x: &[f32]) -> f32 {
    norm_with(active_kernel(), x)
}

/// [`norm`] on an explicit arm.
#[inline]
pub fn norm_with(kernel: Kernel, x: &[f32]) -> f32 {
    dot_with(kernel, x, x).sqrt()
}

/// Dot product, on the active kernel. Bit-identical to `ops::dot`.
/// Panics if the lengths differ.
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    dot_with(active_kernel(), a, b)
}

/// [`dot`] on an explicit arm (parity tests / benchmarks).
#[inline]
pub fn dot_with(kernel: Kernel, a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len());
    match kernel {
        Kernel::Scalar => ops::dot(a, b),
        #[cfg(target_arch = "x86_64")]
        Kernel::Avx2 | Kernel::Avx512 => unsafe { avx2::dot(a, b) },
        #[cfg(not(target_arch = "x86_64"))]
        Kernel::Avx2 | Kernel::Avx512 => ops::dot(a, b),
    }
}

/// `y += alpha * x`, on the active kernel. Bit-identical to
/// `ops::axpy`: the operation is elementwise (no reduction), so both
/// arms perform literally the same multiply-then-add per component.
/// Panics if the lengths differ.
#[inline]
pub fn axpy(alpha: f32, x: &[f32], y: &mut [f32]) {
    axpy_with(active_kernel(), alpha, x, y)
}

/// [`axpy`] on an explicit arm (parity tests / benchmarks).
#[inline]
pub fn axpy_with(kernel: Kernel, alpha: f32, x: &[f32], y: &mut [f32]) {
    assert_eq!(x.len(), y.len());
    match kernel {
        Kernel::Scalar => ops::axpy(alpha, x, y),
        #[cfg(target_arch = "x86_64")]
        Kernel::Avx2 => unsafe { avx2::axpy(alpha, x, y) },
        #[cfg(target_arch = "x86_64")]
        Kernel::Avx512 => unsafe { avx512::axpy(alpha, x, y) },
        #[cfg(not(target_arch = "x86_64"))]
        Kernel::Avx2 | Kernel::Avx512 => ops::axpy(alpha, x, y),
    }
}

// ---------------------------------------------------------------------
// Fused block kernels (one query × a contiguous row-major block).
//
// `data` is padded row-major storage (`VectorStore::data`): row `r`
// starts at `r * stride` and its first `q.len()` components are real;
// `data.len() >= out.len() * stride` must hold. On tail-free dims the
// fused kernels run rows in quads, reducing four accumulators at once
// through a transposed copy of the `lane_sum` tree — which is where
// the flat-scan speedup over per-row calls comes from.
// ---------------------------------------------------------------------

/// Squared Euclidean distances from `q` to `out.len()` consecutive
/// rows of `data`, on the active kernel. `out[r]` is bit-identical to
/// `ops::sq_dist(q, row_r)`.
#[inline]
pub fn sq_dist_block(q: &[f32], data: &[f32], stride: usize, out: &mut [f32]) {
    sq_dist_block_with(active_kernel(), q, data, stride, out)
}

/// [`sq_dist_block`] on an explicit arm.
pub fn sq_dist_block_with(kernel: Kernel, q: &[f32], data: &[f32], stride: usize, out: &mut [f32]) {
    assert!(q.len() <= stride && data.len() >= out.len() * stride);
    match kernel {
        Kernel::Scalar => {
            for (r, o) in out.iter_mut().enumerate() {
                *o = ops::sq_dist(q, &data[r * stride..r * stride + q.len()]);
            }
        }
        #[cfg(target_arch = "x86_64")]
        Kernel::Avx2 | Kernel::Avx512 => unsafe { avx2::sq_dist_block(q, data, stride, out) },
        #[cfg(not(target_arch = "x86_64"))]
        Kernel::Avx2 | Kernel::Avx512 => sq_dist_block_with(Kernel::Scalar, q, data, stride, out),
    }
}

/// Cosine distances from `q` to `out.len()` consecutive rows of
/// `data`, on the active kernel. `out[r]` is bit-identical to
/// `ops::cosine_dist(q, row_r)`.
///
/// The uncached form: it computes every norm, then runs
/// [`cosine_dist_block_normed`], which an index that caches its row
/// norms calls directly.
#[inline]
pub fn cosine_dist_block(q: &[f32], data: &[f32], stride: usize, out: &mut [f32]) {
    cosine_dist_block_with(active_kernel(), q, data, stride, out)
}

/// [`cosine_dist_block`] on an explicit arm.
pub fn cosine_dist_block_with(
    kernel: Kernel,
    q: &[f32],
    data: &[f32],
    stride: usize,
    out: &mut [f32],
) {
    assert!(q.len() <= stride && data.len() >= out.len() * stride);
    const CHUNK: usize = 256;
    let nq = norm_with(kernel, q);
    let mut norms = [0.0f32; CHUNK];
    for (c, out) in out.chunks_mut(CHUNK).enumerate() {
        let data = &data[c * CHUNK * stride..];
        let norms = &mut norms[..out.len()];
        for (r, n) in norms.iter_mut().enumerate() {
            *n = norm_with(kernel, &data[r * stride..r * stride + q.len()]);
        }
        cosine_dist_block_normed_with(kernel, q, nq, data, stride, norms, out);
    }
}

/// [`cosine_dist_block`] with the norms already known: `nq` must be
/// [`norm`]`(q)` and `norms[r]` [`norm`]`(row_r)`. The scan is
/// **dot-only** — one `dot(q, row)` per row, then
/// [`ops::cosine_finish`] — so `out[r]` is still bit-identical to
/// `ops::cosine_dist(q, row_r)`, at half the arithmetic.
#[inline]
pub fn cosine_dist_block_normed(
    q: &[f32],
    nq: f32,
    data: &[f32],
    stride: usize,
    norms: &[f32],
    out: &mut [f32],
) {
    cosine_dist_block_normed_with(active_kernel(), q, nq, data, stride, norms, out)
}

/// [`cosine_dist_block_normed`] on an explicit arm.
pub fn cosine_dist_block_normed_with(
    kernel: Kernel,
    q: &[f32],
    nq: f32,
    data: &[f32],
    stride: usize,
    norms: &[f32],
    out: &mut [f32],
) {
    assert!(q.len() <= stride && data.len() >= out.len() * stride && norms.len() == out.len());
    match kernel {
        Kernel::Scalar => {
            for (r, o) in out.iter_mut().enumerate() {
                let row = &data[r * stride..r * stride + q.len()];
                *o = ops::cosine_finish(ops::dot(q, row), nq, norms[r]);
            }
        }
        #[cfg(target_arch = "x86_64")]
        Kernel::Avx2 | Kernel::Avx512 => unsafe {
            avx2::cosine_dist_block_normed(q, nq, data, stride, norms, out)
        },
        #[cfg(not(target_arch = "x86_64"))]
        Kernel::Avx2 | Kernel::Avx512 => {
            cosine_dist_block_normed_with(Kernel::Scalar, q, nq, data, stride, norms, out)
        }
    }
}

/// Dot products of `q` against **gathered** rows of `data`:
/// `out[j] = dot(q, data[ids[j]·stride ..][..q.len()])`, on the active
/// kernel — the negative-sampling kernel (one hidden vector against a
/// target row plus its noise rows) and the sampled-softmax scorer.
/// `out[j]` is bit-identical to `ops::dot(q, row_ids[j])` on every arm.
#[inline]
pub fn dot_gather(q: &[f32], data: &[f32], stride: usize, ids: &[usize], out: &mut [f32]) {
    dot_gather_with(active_kernel(), q, data, stride, ids, out)
}

/// [`dot_gather`] on an explicit arm.
pub fn dot_gather_with(
    kernel: Kernel,
    q: &[f32],
    data: &[f32],
    stride: usize,
    ids: &[usize],
    out: &mut [f32],
) {
    assert!(q.len() <= stride && ids.len() == out.len());
    assert!(ids.iter().all(|&id| id * stride + q.len() <= data.len()));
    match kernel {
        Kernel::Scalar => {
            for (o, &id) in out.iter_mut().zip(ids) {
                *o = ops::dot(q, &data[id * stride..id * stride + q.len()]);
            }
        }
        #[cfg(target_arch = "x86_64")]
        Kernel::Avx2 | Kernel::Avx512 => unsafe { avx2::dot_gather(q, data, stride, ids, out) },
        #[cfg(not(target_arch = "x86_64"))]
        Kernel::Avx2 | Kernel::Avx512 => dot_gather_with(Kernel::Scalar, q, data, stride, ids, out),
    }
}

// ---------------------------------------------------------------------
// Blocked GEMM.
// ---------------------------------------------------------------------

/// `c += a × b` for row-major `a` (`m × k`), `b` (`k × n`), `c`
/// (`m × n`), on the active kernel.
///
/// The loop order is the workspace's canonical (i, k, j) axpy form —
/// each `c[i][j]` accumulates its `k` terms in ascending order — with
/// the `k` dimension blocked so a panel of `b` stays cache-resident
/// across the `i` sweep. Blocking never reorders any element's
/// accumulation sequence, and the inner axpy arms are elementwise, so
/// the result is **bit-identical** across arms *and* block sizes.
/// Zero `a[i][k]` entries skip their axpy entirely, exactly like
/// [`crate::Matrix::matmul`] always has (sparse one-hot rows stay
/// cheap, and `0 × ∞`/`0 × NaN` never pollute `c`).
#[inline]
pub fn gemm(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    gemm_with(active_kernel(), a, b, c, m, k, n)
}

/// [`gemm`] on an explicit arm.
pub fn gemm_with(
    kernel: Kernel,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
) {
    assert!(a.len() >= m * k && b.len() >= k * n && c.len() >= m * n);
    // Panel height: 64 rows of b × n floats ≈ 16–64 KiB for the dims
    // the models use — L1/L2-resident across the whole i sweep.
    const KC: usize = 64;
    let mut k0 = 0;
    while k0 < k {
        let kb = (k - k0).min(KC);
        for i in 0..m {
            let arow = &a[i * k..i * k + k];
            let crow = &mut c[i * n..i * n + n];
            for kk in k0..k0 + kb {
                let alpha = arow[kk];
                if alpha == 0.0 {
                    continue;
                }
                axpy_with(kernel, alpha, &b[kk * n..kk * n + n], crow);
            }
        }
        k0 += kb;
    }
}

// ---------------------------------------------------------------------
// SQ8 asymmetric-distance (ADC) kernels: f32 query vs u8 codes.
//
// `codes` is padded row-major u8 storage (`CodeStore::data` in
// `querc-index`): row `r` starts at `r * stride`. The caller pre-folds
// the quantizer into the query — see `querc_index::sq8` for the
// algebra — so these kernels only ever see `t` (translated query) and
// `step` / `w` (per-dim weights).
// ---------------------------------------------------------------------

/// ADC squared distances: `out[r] = Σ_d (t[d] − codes[r][d]·step[d])²`
/// with lane-strided accumulation, on the active kernel.
#[inline]
pub fn adc_sq_block(t: &[f32], step: &[f32], codes: &[u8], stride: usize, out: &mut [f32]) {
    adc_sq_block_with(active_kernel(), t, step, codes, stride, out)
}

/// [`adc_sq_block`] on an explicit arm.
pub fn adc_sq_block_with(
    kernel: Kernel,
    t: &[f32],
    step: &[f32],
    codes: &[u8],
    stride: usize,
    out: &mut [f32],
) {
    assert!(t.len() == step.len() && t.len() <= stride && codes.len() >= out.len() * stride);
    match kernel {
        Kernel::Scalar => {
            for (r, o) in out.iter_mut().enumerate() {
                *o = adc_sq_row_scalar(t, step, &codes[r * stride..r * stride + t.len()]);
            }
        }
        #[cfg(target_arch = "x86_64")]
        Kernel::Avx2 | Kernel::Avx512 => unsafe { avx2::adc_sq_block(t, step, codes, stride, out) },
        #[cfg(not(target_arch = "x86_64"))]
        Kernel::Avx2 | Kernel::Avx512 => {
            adc_sq_block_with(Kernel::Scalar, t, step, codes, stride, out)
        }
    }
}

/// ADC weighted code sums: `out[r] = Σ_d w[d]·codes[r][d]` with
/// lane-strided accumulation, on the active kernel — the data-dependent
/// half of an SQ8 cosine dot product.
#[inline]
pub fn adc_dot_block(w: &[f32], codes: &[u8], stride: usize, out: &mut [f32]) {
    adc_dot_block_with(active_kernel(), w, codes, stride, out)
}

/// [`adc_dot_block`] on an explicit arm.
pub fn adc_dot_block_with(kernel: Kernel, w: &[f32], codes: &[u8], stride: usize, out: &mut [f32]) {
    assert!(w.len() <= stride && codes.len() >= out.len() * stride);
    match kernel {
        Kernel::Scalar => {
            for (r, o) in out.iter_mut().enumerate() {
                *o = adc_dot_row_scalar(w, &codes[r * stride..r * stride + w.len()]);
            }
        }
        #[cfg(target_arch = "x86_64")]
        Kernel::Avx2 | Kernel::Avx512 => unsafe { avx2::adc_dot_block(w, codes, stride, out) },
        #[cfg(not(target_arch = "x86_64"))]
        Kernel::Avx2 | Kernel::Avx512 => adc_dot_block_with(Kernel::Scalar, w, codes, stride, out),
    }
}

/// Scalar ADC squared-distance reference: lane-strided like
/// `ops::sq_dist`, with the subtrahend decoded from `codes` on the fly.
#[inline]
fn adc_sq_row_scalar(t: &[f32], step: &[f32], codes: &[u8]) -> f32 {
    let mut l = [0.0f32; ops::LANES];
    let n = t.len();
    let head = n - n % ops::LANES;
    let mut i = 0;
    while i < head {
        for k in 0..ops::LANES {
            let d = t[i + k] - codes[i + k] as f32 * step[i + k];
            l[k] += d * d;
        }
        i += ops::LANES;
    }
    for k in 0..n - head {
        let d = t[head + k] - codes[head + k] as f32 * step[head + k];
        l[k] += d * d;
    }
    ops::lane_sum(l)
}

/// Scalar ADC weighted-code-sum reference, lane-strided like `ops::dot`.
#[inline]
fn adc_dot_row_scalar(w: &[f32], codes: &[u8]) -> f32 {
    let mut l = [0.0f32; ops::LANES];
    let n = w.len();
    let head = n - n % ops::LANES;
    let mut i = 0;
    while i < head {
        for k in 0..ops::LANES {
            l[k] += w[i + k] * codes[i + k] as f32;
        }
        i += ops::LANES;
    }
    for k in 0..n - head {
        l[k] += w[head + k] * codes[head + k] as f32;
    }
    ops::lane_sum(l)
}

// ---------------------------------------------------------------------
// AVX2 arm.
// ---------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod avx2 {
    //! Bit-parity twins of the scalar reference kernels, written once:
    //! a [`Term`] says what one row adds to its lanes, and the two
    //! generic drivers [`row`] and [`rows`] run the canonical 8-lane
    //! chain over it — one `vaddps` per 8-element chunk, the scalar
    //! tail folded into the same lanes, the [`lane_sum`] tree (or its
    //! four-row transpose, [`reduce4`]).
    //!
    //! Safety: every entry point is `#[target_feature(enable = "avx2")]`
    //! and must only be reached through the dispatcher above, which has
    //! either verified `is_x86_feature_detected!("avx2")` or been
    //! explicitly handed [`super::Kernel::Avx2`] by the parity suite (which
    //! performs the same check). All loads are unaligned (`loadu`) —
    //! `VectorStore` pads row *strides* to 32 bytes but `Vec<f32>` does
    //! not guarantee a 32-byte base address, and query slices are
    //! arbitrary.

    use crate::ops::{lane_sum, LANES};
    use std::arch::x86_64::*;

    /// What one row of a reduction adds to its accumulator lanes: the
    /// query side lives in `self`, `p` points at the row. Callers keep
    /// every element they name readable in both, and `chunk` needs AVX2.
    trait Term {
        /// Row element: `f32` components or `u8` SQ8 codes.
        type Elem;
        /// The contributions of elements `i..i + 8`, one per lane.
        unsafe fn chunk(&self, p: *const Self::Elem, i: usize) -> __m256;
        /// The contribution of tail element `i`.
        unsafe fn one(&self, p: *const Self::Elem, i: usize) -> f32;
    }

    /// `(q − row)²`.
    struct SqDist<'a>(&'a [f32]);

    impl Term for SqDist<'_> {
        type Elem = f32;

        #[inline]
        #[target_feature(enable = "avx2")]
        unsafe fn chunk(&self, p: *const f32, i: usize) -> __m256 {
            let d = _mm256_sub_ps(
                _mm256_loadu_ps(self.0.as_ptr().add(i)),
                _mm256_loadu_ps(p.add(i)),
            );
            _mm256_mul_ps(d, d)
        }

        #[inline(always)]
        unsafe fn one(&self, p: *const f32, i: usize) -> f32 {
            let d = self.0[i] - *p.add(i);
            d * d
        }
    }

    /// `q·row`.
    struct Dot<'a>(&'a [f32]);

    impl Term for Dot<'_> {
        type Elem = f32;

        #[inline]
        #[target_feature(enable = "avx2")]
        unsafe fn chunk(&self, p: *const f32, i: usize) -> __m256 {
            _mm256_mul_ps(
                _mm256_loadu_ps(self.0.as_ptr().add(i)),
                _mm256_loadu_ps(p.add(i)),
            )
        }

        #[inline(always)]
        unsafe fn one(&self, p: *const f32, i: usize) -> f32 {
            self.0[i] * *p.add(i)
        }
    }

    /// ADC `(t − code·step)²`. Widening a `u8` code to `f32` is exact.
    struct AdcSq<'a> {
        t: &'a [f32],
        step: &'a [f32],
    }

    impl Term for AdcSq<'_> {
        type Elem = u8;

        #[inline]
        #[target_feature(enable = "avx2")]
        unsafe fn chunk(&self, p: *const u8, i: usize) -> __m256 {
            let c = _mm256_cvtepi32_ps(_mm256_cvtepu8_epi32(_mm_loadl_epi64(p.add(i).cast())));
            let s = _mm256_mul_ps(c, _mm256_loadu_ps(self.step.as_ptr().add(i)));
            let d = _mm256_sub_ps(_mm256_loadu_ps(self.t.as_ptr().add(i)), s);
            _mm256_mul_ps(d, d)
        }

        #[inline(always)]
        unsafe fn one(&self, p: *const u8, i: usize) -> f32 {
            let d = self.t[i] - *p.add(i) as f32 * self.step[i];
            d * d
        }
    }

    /// ADC `w·code`.
    struct AdcDot<'a>(&'a [f32]);

    impl Term for AdcDot<'_> {
        type Elem = u8;

        #[inline]
        #[target_feature(enable = "avx2")]
        unsafe fn chunk(&self, p: *const u8, i: usize) -> __m256 {
            let c = _mm256_cvtepi32_ps(_mm256_cvtepu8_epi32(_mm_loadl_epi64(p.add(i).cast())));
            _mm256_mul_ps(_mm256_loadu_ps(self.0.as_ptr().add(i)), c)
        }

        #[inline(always)]
        unsafe fn one(&self, p: *const u8, i: usize) -> f32 {
            self.0[i] * *p.add(i) as f32
        }
    }

    /// One row: one accumulator over the 8-element chunks, the tail
    /// folded into the same lanes, then [`lane_sum`] — the operation
    /// sequence of the `ops` reference loops.
    ///
    /// # Safety
    /// AVX2 must be available; `dim` elements readable at `p` and in
    /// the query.
    #[inline(always)]
    unsafe fn row<T: Term>(term: &T, p: *const T::Elem, dim: usize) -> f32 {
        let head = dim - dim % LANES;
        let mut acc = _mm256_setzero_ps();
        let mut i = 0;
        while i < head {
            acc = _mm256_add_ps(acc, term.chunk(p, i));
            i += LANES;
        }
        let mut l = [0.0f32; LANES];
        _mm256_storeu_ps(l.as_mut_ptr(), acc);
        for (k, lane) in l.iter_mut().enumerate().take(dim - head) {
            *lane += term.one(p, head + k);
        }
        lane_sum(l)
    }

    /// A block of rows, row `r` at `at(r)`. On tail-free dims the rows
    /// run four at a time, four accumulators retired by one [`reduce4`];
    /// remainder rows, and every row of a tail-carrying dim, run through
    /// [`row`]. `finish(r, sums)` maps the sums of rows `r..r + 4` to
    /// their outputs (identity, or [`cosine_finish4`]); in a block's
    /// last group of fewer than four rows the missing lanes are zero and
    /// their outputs dropped.
    ///
    /// # Safety
    /// AVX2 must be available; `dim` elements readable at every `at(r)`
    /// for `r < out.len()`, and in the query.
    #[inline(always)]
    unsafe fn rows<T: Term>(
        term: &T,
        dim: usize,
        out: &mut [f32],
        at: impl Fn(usize) -> *const T::Elem,
        finish: impl Fn(usize, __m128) -> __m128,
    ) {
        let n = out.len();
        let mut r = 0;
        if dim.is_multiple_of(LANES) {
            while r + 4 <= n {
                let p = [at(r), at(r + 1), at(r + 2), at(r + 3)];
                let mut acc = [_mm256_setzero_ps(); 4];
                let mut i = 0;
                while i < dim {
                    for (a, &p) in acc.iter_mut().zip(&p) {
                        *a = _mm256_add_ps(*a, term.chunk(p, i));
                    }
                    i += LANES;
                }
                let sums = reduce4(acc[0], acc[1], acc[2], acc[3]);
                _mm_storeu_ps(out.as_mut_ptr().add(r), finish(r, sums));
                r += 4;
            }
        }
        while r < n {
            let m = (n - r).min(4);
            let mut sums = [0.0f32; 4];
            for (j, s) in sums[..m].iter_mut().enumerate() {
                *s = row(term, at(r + j), dim);
            }
            _mm_storeu_ps(sums.as_mut_ptr(), finish(r, _mm_loadu_ps(sums.as_ptr())));
            out[r..r + m].copy_from_slice(&sums[..m]);
            r += m;
        }
    }

    /// Collapse four AVX2 accumulators into four results at once: the
    /// 128-bit halves are added (`s_i = l[i] + l[i+4]`), the four
    /// `[s0..s3]` vectors are transposed, and the vertical adds
    /// `(c0+c2)+(c1+c3)` perform, per lane, exactly the
    /// `(s0+s2)+(s1+s3)` tree of [`lane_sum`] — same operands, same
    /// order, so the results are bit-identical to reducing each row
    /// alone.
    ///
    /// # Safety
    /// AVX2 must be available.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn reduce4(a0: __m256, a1: __m256, a2: __m256, a3: __m256) -> __m128 {
        let s0 = _mm_add_ps(_mm256_castps256_ps128(a0), _mm256_extractf128_ps(a0, 1));
        let s1 = _mm_add_ps(_mm256_castps256_ps128(a1), _mm256_extractf128_ps(a1, 1));
        let s2 = _mm_add_ps(_mm256_castps256_ps128(a2), _mm256_extractf128_ps(a2, 1));
        let s3 = _mm_add_ps(_mm256_castps256_ps128(a3), _mm256_extractf128_ps(a3, 1));
        // 4×4 transpose: c_j[r] = s_r[j].
        let t0 = _mm_unpacklo_ps(s0, s1);
        let t1 = _mm_unpacklo_ps(s2, s3);
        let t2 = _mm_unpackhi_ps(s0, s1);
        let t3 = _mm_unpackhi_ps(s2, s3);
        let c0 = _mm_movelh_ps(t0, t1);
        let c1 = _mm_movehl_ps(t1, t0);
        let c2 = _mm_movelh_ps(t2, t3);
        let c3 = _mm_movehl_ps(t3, t2);
        _mm_add_ps(_mm_add_ps(c0, c2), _mm_add_ps(c1, c3))
    }

    /// [`crate::ops::cosine_finish`] four rows wide. IEEE `mul`/`div`/
    /// `sub` round the same in a vector lane as in a scalar register;
    /// `max`/`min` return their *second* operand when either is NaN, so
    /// with the bound first a NaN quotient stays NaN as `f32::clamp`
    /// leaves it; zero-norm lanes blend to 1.0 last (the scalar early
    /// return).
    ///
    /// # Safety
    /// AVX2 must be available.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn cosine_finish4(dots: __m128, nq: __m128, nr: __m128) -> __m128 {
        let one = _mm_set1_ps(1.0);
        let cos = _mm_div_ps(dots, _mm_mul_ps(nq, nr));
        let cos = _mm_min_ps(one, _mm_max_ps(_mm_set1_ps(-1.0), cos));
        let zero = _mm_setzero_ps();
        let zero_norm = _mm_or_ps(_mm_cmpeq_ps(nq, zero), _mm_cmpeq_ps(nr, zero));
        _mm_blendv_ps(_mm_sub_ps(one, cos), one, zero_norm)
    }

    /// # Safety
    /// AVX2 must be available; `a.len() == b.len()`.
    #[target_feature(enable = "avx2")]
    pub unsafe fn sq_dist(a: &[f32], b: &[f32]) -> f32 {
        row(&SqDist(a), b.as_ptr(), a.len())
    }

    /// # Safety
    /// AVX2 must be available; `a.len() == b.len()`.
    #[target_feature(enable = "avx2")]
    pub unsafe fn dot(a: &[f32], b: &[f32]) -> f32 {
        row(&Dot(a), b.as_ptr(), a.len())
    }

    /// `y += alpha * x`, vertical (no reduction): one `vmulps` +
    /// `vaddps` per chunk, scalar multiply-add on the tail — exactly
    /// the per-component operation of `ops::axpy`, so results are
    /// bit-identical by construction.
    ///
    /// # Safety
    /// AVX2 must be available; `x.len() == y.len()`.
    #[target_feature(enable = "avx2")]
    pub unsafe fn axpy(alpha: f32, x: &[f32], y: &mut [f32]) {
        let n = x.len();
        let head = n - n % LANES;
        let va = _mm256_set1_ps(alpha);
        let px = x.as_ptr();
        let py = y.as_mut_ptr();
        let mut i = 0;
        while i < head {
            let prod = _mm256_mul_ps(va, _mm256_loadu_ps(px.add(i)));
            _mm256_storeu_ps(py.add(i), _mm256_add_ps(_mm256_loadu_ps(py.add(i)), prod));
            i += LANES;
        }
        for k in head..n {
            *py.add(k) += alpha * *px.add(k);
        }
    }

    /// # Safety
    /// AVX2 must be available; `q.len() <= stride`,
    /// `data.len() >= out.len() * stride`.
    #[target_feature(enable = "avx2")]
    pub unsafe fn sq_dist_block(q: &[f32], data: &[f32], stride: usize, out: &mut [f32]) {
        let pd = data.as_ptr();
        rows(&SqDist(q), q.len(), out, |r| pd.add(r * stride), |_, s| s);
    }

    /// The dot-only cosine scan: [`rows`] of [`Dot`] with the finish
    /// four wide.
    ///
    /// # Safety
    /// AVX2 must be available; `q.len() <= stride`,
    /// `data.len() >= out.len() * stride`, `norms.len() == out.len()`.
    #[target_feature(enable = "avx2")]
    pub unsafe fn cosine_dist_block_normed(
        q: &[f32],
        nq: f32,
        data: &[f32],
        stride: usize,
        norms: &[f32],
        out: &mut [f32],
    ) {
        let pd = data.as_ptr();
        let vnq = _mm_set1_ps(nq);
        rows(
            &Dot(q),
            q.len(),
            out,
            |r| pd.add(r * stride),
            |r, dots| {
                let nr = match norms.get(r..r + 4) {
                    Some(nr) => _mm_loadu_ps(nr.as_ptr()),
                    None => {
                        let mut nr = [0.0f32; 4];
                        nr[..norms.len() - r].copy_from_slice(&norms[r..]);
                        _mm_loadu_ps(nr.as_ptr())
                    }
                };
                cosine_finish4(dots, vnq, nr)
            },
        );
    }

    /// The dot scan with row addresses taken from `ids`.
    ///
    /// # Safety
    /// AVX2 must be available; `q.len() <= stride`,
    /// `ids.len() == out.len()`, every
    /// `ids[j] * stride + q.len() <= data.len()`.
    #[target_feature(enable = "avx2")]
    pub unsafe fn dot_gather(
        q: &[f32],
        data: &[f32],
        stride: usize,
        ids: &[usize],
        out: &mut [f32],
    ) {
        let pd = data.as_ptr();
        rows(&Dot(q), q.len(), out, |j| pd.add(ids[j] * stride), |_, s| s);
    }

    /// # Safety
    /// AVX2 must be available; `t.len() == step.len() <= stride`,
    /// `codes.len() >= out.len() * stride`.
    #[target_feature(enable = "avx2")]
    pub unsafe fn adc_sq_block(
        t: &[f32],
        step: &[f32],
        codes: &[u8],
        stride: usize,
        out: &mut [f32],
    ) {
        let pc = codes.as_ptr();
        rows(
            &AdcSq { t, step },
            t.len(),
            out,
            |r| pc.add(r * stride),
            |_, s| s,
        );
    }

    /// # Safety
    /// AVX2 must be available; `w.len() <= stride`,
    /// `codes.len() >= out.len() * stride`.
    #[target_feature(enable = "avx2")]
    pub unsafe fn adc_dot_block(w: &[f32], codes: &[u8], stride: usize, out: &mut [f32]) {
        let pc = codes.as_ptr();
        rows(&AdcDot(w), w.len(), out, |r| pc.add(r * stride), |_, s| s);
    }
}

// ---------------------------------------------------------------------
// AVX-512 arm.
// ---------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod avx512 {
    //! The one op wider registers win without touching the 8-lane
    //! canon: `axpy` is elementwise (no reduction), so it runs 16-wide.
    //! Every reduction dispatches to the AVX2 arm.
    //!
    //! Safety: `axpy` is `#[target_feature(enable = "avx512f,avx2")]`
    //! and is only reached through the dispatcher after
    //! [`super::avx512_available`] verified both features.

    use super::avx2;
    use std::arch::x86_64::*;

    /// `y += alpha * x`, 16 components per iteration; the sub-16
    /// remainder reuses the AVX2 twin (8-wide + scalar tail). Every
    /// component sees the same multiply-then-add as `ops::axpy`.
    ///
    /// # Safety
    /// AVX-512 F + AVX2 must be available; `x.len() == y.len()`.
    #[target_feature(enable = "avx512f,avx2")]
    pub unsafe fn axpy(alpha: f32, x: &[f32], y: &mut [f32]) {
        const W: usize = 16;
        let n = x.len();
        let head = n - n % W;
        let va = _mm512_set1_ps(alpha);
        let px = x.as_ptr();
        let py = y.as_mut_ptr();
        let mut i = 0;
        while i < head {
            let prod = _mm512_mul_ps(va, _mm512_loadu_ps(px.add(i)));
            _mm512_storeu_ps(py.add(i), _mm512_add_ps(_mm512_loadu_ps(py.add(i)), prod));
            i += W;
        }
        avx2::axpy(alpha, &x[head..], &mut y[head..]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn both_arms() -> Vec<Kernel> {
        let mut arms = vec![Kernel::Scalar];
        if avx2_available() {
            arms.push(Kernel::Avx2);
        }
        if avx512_available() {
            arms.push(Kernel::Avx512);
        }
        arms
    }

    fn pseudo(seed: u64, n: usize) -> Vec<f32> {
        let mut rng = crate::rng::Pcg32::with_stream(seed, 7);
        (0..n).map(|_| rng.normal()).collect()
    }

    #[test]
    fn dispatch_resolves_and_reports() {
        let k = active_kernel();
        assert_eq!(kernel_name(), k.name());
        // CI runs this with --nocapture so each QUERC_SIMD cell's log
        // shows the arm it really dispatched to.
        println!(
            "QUERC_SIMD={:?} -> kernel arm {}",
            std::env::var("QUERC_SIMD").ok(),
            kernel_name()
        );
        assert_eq!(set_kernel_override(Some(Kernel::Scalar)), Kernel::Scalar);
        let back = set_kernel_override(None);
        assert_eq!(back, active_kernel());
    }

    #[test]
    fn row_kernels_bit_identical_across_arms() {
        for n in [0usize, 1, 5, 8, 13, 16, 31, 32, 100] {
            let a = pseudo(n as u64 + 1, n);
            let b = pseudo(n as u64 + 1000, n);
            let sq = ops::sq_dist(&a, &b);
            let cd = ops::cosine_dist(&a, &b);
            let d = ops::dot(&a, &b);
            for arm in both_arms() {
                assert_eq!(sq_dist_with(arm, &a, &b).to_bits(), sq.to_bits(), "n={n}");
                assert_eq!(
                    cosine_dist_with(arm, &a, &b).to_bits(),
                    cd.to_bits(),
                    "n={n}"
                );
                assert_eq!(dot_with(arm, &a, &b).to_bits(), d.to_bits(), "n={n}");
            }
        }
    }

    #[test]
    fn axpy_bit_identical_across_arms() {
        for n in [0usize, 1, 7, 8, 9, 24, 100] {
            let x = pseudo(n as u64 + 3, n);
            let base = pseudo(n as u64 + 4000, n);
            for alpha in [0.0f32, 1.0, -2.5, 1e-3] {
                let mut want = base.clone();
                ops::axpy(alpha, &x, &mut want);
                for arm in both_arms() {
                    let mut got = base.clone();
                    axpy_with(arm, alpha, &x, &mut got);
                    for (g, w) in got.iter().zip(&want) {
                        assert_eq!(g.to_bits(), w.to_bits(), "n={n} alpha={alpha}");
                    }
                }
            }
        }
    }

    #[test]
    fn block_kernels_match_row_kernels() {
        let dim = 13; // forces a 5-element scalar tail
        let stride = 16;
        let rows = 7; // odd: exercises the unpaired trailing row
        let q = pseudo(42, dim);
        let mut data = pseudo(43, rows * stride);
        // Zero the padding like VectorStore does.
        for r in 0..rows {
            for p in dim..stride {
                data[r * stride + p] = 0.0;
            }
        }
        for arm in both_arms() {
            let mut sq = vec![0.0f32; rows];
            let mut co = vec![0.0f32; rows];
            sq_dist_block_with(arm, &q, &data, stride, &mut sq);
            cosine_dist_block_with(arm, &q, &data, stride, &mut co);
            for r in 0..rows {
                let row = &data[r * stride..r * stride + dim];
                assert_eq!(sq[r].to_bits(), ops::sq_dist(&q, row).to_bits());
                assert_eq!(co[r].to_bits(), ops::cosine_dist(&q, row).to_bits());
            }
        }
    }

    #[test]
    fn wide_blocks_bit_identical_across_arms() {
        // A tail-free dim with a row count that is not a multiple of
        // four: exercises the quad path (four rows per transposed
        // reduce) and the remainder rows that run one at a time, for
        // the strided scan and the gathered dots alike.
        let dim = 16;
        let stride = 16;
        let rows = 19;
        let q = pseudo(21, dim);
        let data = pseudo(22, rows * stride);
        let ids: Vec<usize> = (0..rows).rev().chain([3, 3, 5]).collect();
        for arm in both_arms() {
            let mut sq = vec![0.0f32; rows];
            sq_dist_block_with(arm, &q, &data, stride, &mut sq);
            for r in 0..rows {
                let row = &data[r * stride..r * stride + dim];
                assert_eq!(
                    sq[r].to_bits(),
                    ops::sq_dist(&q, row).to_bits(),
                    "arm={arm:?} r={r}"
                );
            }
            let mut got = vec![0.0f32; ids.len()];
            dot_gather_with(arm, &q, &data, stride, &ids, &mut got);
            for (j, &id) in ids.iter().enumerate() {
                let row = &data[id * stride..id * stride + dim];
                assert_eq!(
                    got[j].to_bits(),
                    ops::dot(&q, row).to_bits(),
                    "arm={arm:?} j={j}"
                );
            }
        }
    }

    #[test]
    fn dot_gather_matches_row_dots_on_every_arm() {
        for dim in [8usize, 13, 32] {
            let stride = dim.div_ceil(8) * 8;
            let rows = 9;
            let q = pseudo(5, dim);
            let data = pseudo(6, rows * stride);
            // Repeats, reverse order, and the last row all gathered.
            let ids = vec![3usize, 3, 8, 0, 7, 1, 2];
            let mut out = vec![0.0f32; ids.len()];
            for arm in both_arms() {
                dot_gather_with(arm, &q, &data, stride, &ids, &mut out);
                for (j, &id) in ids.iter().enumerate() {
                    let row = &data[id * stride..id * stride + dim];
                    assert_eq!(
                        out[j].to_bits(),
                        ops::dot(&q, row).to_bits(),
                        "dim={dim} id={id}"
                    );
                }
            }
        }
    }

    #[test]
    fn gemm_bit_identical_across_arms_and_matches_naive() {
        let (m, k, n) = (5usize, 70usize, 13usize); // k > KC: exercises blocking
        let a = pseudo(11, m * k);
        let b = pseudo(12, k * n);
        // Naive (i, k, j) accumulation — the semantic definition.
        let mut want = vec![0.0f32; m * n];
        for i in 0..m {
            for kk in 0..k {
                let alpha = a[i * k + kk];
                if alpha == 0.0 {
                    continue;
                }
                for j in 0..n {
                    want[i * n + j] += alpha * b[kk * n + j];
                }
            }
        }
        for arm in both_arms() {
            let mut c = vec![0.0f32; m * n];
            gemm_with(arm, &a, &b, &mut c, m, k, n);
            for (g, w) in c.iter().zip(&want) {
                assert_eq!(g.to_bits(), w.to_bits());
            }
        }
    }

    #[test]
    fn adc_kernels_bit_identical_across_arms() {
        // Dim 21 carries a tail (every row runs alone); dim 32 is
        // tail-free, so rows 0..4 take the quad path and row 4 the
        // remainder.
        for dim in [21usize, 32] {
            let stride = dim.div_ceil(8) * 8;
            let rows = 5;
            let t = pseudo(7, dim);
            let step: Vec<f32> = pseudo(8, dim).iter().map(|v| v.abs() / 100.0).collect();
            let mut rng = crate::rng::Pcg32::with_stream(9, 7);
            let codes: Vec<u8> = (0..rows * stride)
                .map(|_| rng.below_usize(256) as u8)
                .collect();
            let mut want_sq = vec![0.0f32; rows];
            let mut want_dot = vec![0.0f32; rows];
            adc_sq_block_with(Kernel::Scalar, &t, &step, &codes, stride, &mut want_sq);
            adc_dot_block_with(Kernel::Scalar, &t, &codes, stride, &mut want_dot);
            for arm in both_arms() {
                let mut got_sq = vec![0.0f32; rows];
                let mut got_dot = vec![0.0f32; rows];
                adc_sq_block_with(arm, &t, &step, &codes, stride, &mut got_sq);
                adc_dot_block_with(arm, &t, &codes, stride, &mut got_dot);
                for r in 0..rows {
                    assert_eq!(got_sq[r].to_bits(), want_sq[r].to_bits(), "dim={dim}");
                    assert_eq!(got_dot[r].to_bits(), want_dot[r].to_bits(), "dim={dim}");
                }
            }
        }
    }

    #[test]
    fn row_kernels_panic_on_length_mismatch_on_every_arm() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        // The short operand is a prefix of a longer buffer, so a kernel
        // that ran to the long operand's length would read or write
        // inside one allocation rather than fault.
        let long = pseudo(31, 64);
        let mut buf = vec![0.0f32; 64];
        for arm in both_arms() {
            let short = &buf[..8];
            assert!(
                catch_unwind(|| sq_dist_with(arm, &long, short)).is_err(),
                "{arm:?}"
            );
            assert!(
                catch_unwind(|| dot_with(arm, &long, short)).is_err(),
                "{arm:?}"
            );
            let y = &mut buf[..8];
            assert!(catch_unwind(AssertUnwindSafe(|| axpy_with(arm, 1.0, &long, y))).is_err());
            assert!(buf.iter().all(|&v| v == 0.0), "{arm:?} wrote past y");
        }
    }

    #[test]
    fn zero_vector_cosine_is_exactly_one_on_every_arm() {
        let z = vec![0.0f32; 16];
        let x = pseudo(1, 16);
        for arm in both_arms() {
            assert_eq!(cosine_dist_with(arm, &z, &x), 1.0);
            assert_eq!(cosine_dist_with(arm, &x, &z), 1.0);
            assert_eq!(cosine_dist_with(arm, &z, &z), 1.0);
        }
    }
}
