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
//! * **avx2** — hand-written `std::arch` intrinsics performing the
//!   *identical* IEEE-754 operation sequence: one `vsubps`/`vmulps`/
//!   `vaddps` chain per 8-element chunk, scalar remainder folded into
//!   the same lanes, the same `lane_sum` reduction tree. No FMA is used
//!   in the accumulation (fusing changes rounding), so **both arms are
//!   bit-for-bit identical** — for squared-Euclidean, cosine, dot,
//!   axpy, the gathered-row and blocked-GEMM kernels, and the SQ8
//!   asymmetric-distance kernels alike. The cosine ulp bound between
//!   arms is therefore 0.
//! * **avx512** — the same 8-lane accumulation sequences, but with
//!   **two independent rows packed per 512-bit register** in the
//!   blocked and gathered kernels (each 256-bit half runs one row's
//!   canonical chunk chain, so no per-row operation order changes) and
//!   a 16-wide [`axpy`] (elementwise — no reduction, so register width
//!   is invisible to the result). Single-row reductions are
//!   latency-bound on the 8-lane canon and gain nothing from wider
//!   registers, so they delegate to the AVX2 twins. Bit-identical to
//!   both other arms by the same argument.
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
    /// AVX-512 row-pair kernels (x86-64 only): two rows per 512-bit
    /// register in the blocked/gathered scans, 16-wide axpy.
    /// Bit-identical to [`Kernel::Scalar`].
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

/// Whether this CPU can run the AVX-512 arm. Requires AVX-512 F + DQ
/// (`_mm512_broadcast_f32x8` / `_mm512_extractf32x8_ps`) plus AVX2,
/// whose kernels the arm delegates single-row work to.
#[cfg(target_arch = "x86_64")]
pub fn avx512_available() -> bool {
    use std::sync::OnceLock;
    static AVX512: OnceLock<bool> = OnceLock::new();
    *AVX512.get_or_init(|| {
        is_x86_feature_detected!("avx512f")
            && is_x86_feature_detected!("avx512dq")
            && avx2_available()
    })
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
/// `ops::sq_dist` on every arm.
#[inline]
pub fn sq_dist(a: &[f32], b: &[f32]) -> f32 {
    sq_dist_with(active_kernel(), a, b)
}

/// [`sq_dist`] on an explicit arm (parity tests / benchmarks).
#[inline]
pub fn sq_dist_with(kernel: Kernel, a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
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
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    dot_with(active_kernel(), a, b)
}

/// [`dot`] on an explicit arm (parity tests / benchmarks).
#[inline]
pub fn dot_with(kernel: Kernel, a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
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
#[inline]
pub fn axpy(alpha: f32, x: &[f32], y: &mut [f32]) {
    axpy_with(active_kernel(), alpha, x, y)
}

/// [`axpy`] on an explicit arm (parity tests / benchmarks).
#[inline]
pub fn axpy_with(kernel: Kernel, alpha: f32, x: &[f32], y: &mut [f32]) {
    debug_assert_eq!(x.len(), y.len());
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
// `data.len() >= out.len() * stride` must hold. The fused kernels keep
// the query hot in registers across rows and unroll rows in quads
// (pairs on tail-carrying dims), reducing four accumulators at once
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
        Kernel::Avx2 => unsafe { avx2::sq_dist_block(q, data, stride, out) },
        #[cfg(target_arch = "x86_64")]
        Kernel::Avx512 => unsafe { avx512::sq_dist_block(q, data, stride, out) },
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
        // No AVX-512 twin: the row-pair layout measured within ±8% of
        // this scan (CHANGES.md, PR 20), under the 10% a third body
        // has to earn.
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
        Kernel::Avx2 => unsafe { avx2::dot_gather(q, data, stride, ids, out) },
        #[cfg(target_arch = "x86_64")]
        Kernel::Avx512 => unsafe { avx512::dot_gather(q, data, stride, ids, out) },
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
    //! Bit-parity twins of the scalar reference kernels.
    //!
    //! Safety: every function is `#[target_feature(enable = "avx2")]`
    //! and must only be reached through the dispatcher above, which has
    //! either verified `is_x86_feature_detected!("avx2")` or been
    //! explicitly handed [`Kernel::Avx2`] by the parity suite (which
    //! performs the same check). All loads are unaligned (`loadu`) —
    //! `VectorStore` pads row *strides* to 32 bytes but `Vec<f32>` does
    //! not guarantee a 32-byte base address, and query slices are
    //! arbitrary.

    use super::Kernel;
    use crate::ops::{cosine_finish, lane_sum, LANES};
    use std::arch::x86_64::*;

    /// Collapse one AVX2 accumulator plus the scalar-tail lanes.
    ///
    /// # Safety
    /// AVX2 must be available.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn reduce(acc: __m256, tail: impl FnOnce(&mut [f32; LANES])) -> f32 {
        let mut l = [0.0f32; LANES];
        _mm256_storeu_ps(l.as_mut_ptr(), acc);
        tail(&mut l);
        lane_sum(l)
    }

    /// # Safety
    /// AVX2 must be available; `a.len() == b.len()`.
    #[target_feature(enable = "avx2")]
    pub unsafe fn sq_dist(a: &[f32], b: &[f32]) -> f32 {
        let n = a.len();
        let head = n - n % LANES;
        let (pa, pb) = (a.as_ptr(), b.as_ptr());
        let mut acc = _mm256_setzero_ps();
        let mut i = 0;
        while i < head {
            let d = _mm256_sub_ps(_mm256_loadu_ps(pa.add(i)), _mm256_loadu_ps(pb.add(i)));
            acc = _mm256_add_ps(acc, _mm256_mul_ps(d, d));
            i += LANES;
        }
        reduce(acc, |l| {
            for k in 0..n - head {
                let d = a[head + k] - b[head + k];
                l[k] += d * d;
            }
        })
    }

    /// # Safety
    /// AVX2 must be available; `a.len() == b.len()`.
    #[target_feature(enable = "avx2")]
    pub unsafe fn dot(a: &[f32], b: &[f32]) -> f32 {
        let n = a.len();
        let head = n - n % LANES;
        let (pa, pb) = (a.as_ptr(), b.as_ptr());
        let mut acc = _mm256_setzero_ps();
        let mut i = 0;
        while i < head {
            let p = _mm256_mul_ps(_mm256_loadu_ps(pa.add(i)), _mm256_loadu_ps(pb.add(i)));
            acc = _mm256_add_ps(acc, p);
            i += LANES;
        }
        reduce(acc, |l| {
            for k in 0..n - head {
                l[k] += a[head + k] * b[head + k];
            }
        })
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
    pub(super) unsafe fn reduce4(a0: __m256, a1: __m256, a2: __m256, a3: __m256) -> __m128 {
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

    /// Fused flat scan: query held in registers; rows unrolled in
    /// quads (tail-free dims) with a transposed SIMD reduce, in pairs
    /// otherwise.
    ///
    /// # Safety
    /// AVX2 must be available; `q.len() <= stride`,
    /// `data.len() >= out.len() * stride`.
    #[target_feature(enable = "avx2")]
    pub unsafe fn sq_dist_block(q: &[f32], data: &[f32], stride: usize, out: &mut [f32]) {
        let dim = q.len();
        let head = dim - dim % LANES;
        let pq = q.as_ptr();
        let pd = data.as_ptr();
        let rows = out.len();
        let mut r = 0;
        // Quad-row fast path: the per-row horizontal reduce is the
        // bottleneck once the block is cache-hot, and `reduce4` retires
        // it at ~4 ops/row instead of a store + scalar tree. Only valid
        // tail-free (`dim % 8 == 0`) — tail lanes must be folded before
        // the tree, which the pair path below handles.
        if dim.is_multiple_of(LANES) && dim > 0 {
            while r + 4 <= rows {
                let p0 = pd.add(r * stride);
                let p1 = pd.add((r + 1) * stride);
                let p2 = pd.add((r + 2) * stride);
                let p3 = pd.add((r + 3) * stride);
                let mut a0 = _mm256_setzero_ps();
                let mut a1 = _mm256_setzero_ps();
                let mut a2 = _mm256_setzero_ps();
                let mut a3 = _mm256_setzero_ps();
                let mut i = 0;
                while i < head {
                    let vq = _mm256_loadu_ps(pq.add(i));
                    let d0 = _mm256_sub_ps(vq, _mm256_loadu_ps(p0.add(i)));
                    let d1 = _mm256_sub_ps(vq, _mm256_loadu_ps(p1.add(i)));
                    let d2 = _mm256_sub_ps(vq, _mm256_loadu_ps(p2.add(i)));
                    let d3 = _mm256_sub_ps(vq, _mm256_loadu_ps(p3.add(i)));
                    a0 = _mm256_add_ps(a0, _mm256_mul_ps(d0, d0));
                    a1 = _mm256_add_ps(a1, _mm256_mul_ps(d1, d1));
                    a2 = _mm256_add_ps(a2, _mm256_mul_ps(d2, d2));
                    a3 = _mm256_add_ps(a3, _mm256_mul_ps(d3, d3));
                    i += LANES;
                }
                _mm_storeu_ps(out.as_mut_ptr().add(r), reduce4(a0, a1, a2, a3));
                r += 4;
            }
        }
        while r + 2 <= rows {
            let p0 = pd.add(r * stride);
            let p1 = pd.add((r + 1) * stride);
            let mut a0 = _mm256_setzero_ps();
            let mut a1 = _mm256_setzero_ps();
            let mut i = 0;
            while i < head {
                let vq = _mm256_loadu_ps(pq.add(i));
                let d0 = _mm256_sub_ps(vq, _mm256_loadu_ps(p0.add(i)));
                let d1 = _mm256_sub_ps(vq, _mm256_loadu_ps(p1.add(i)));
                a0 = _mm256_add_ps(a0, _mm256_mul_ps(d0, d0));
                a1 = _mm256_add_ps(a1, _mm256_mul_ps(d1, d1));
                i += LANES;
            }
            out[r] = reduce(a0, |l| {
                for k in 0..dim - head {
                    let d = q[head + k] - *p0.add(head + k);
                    l[k] += d * d;
                }
            });
            out[r + 1] = reduce(a1, |l| {
                for k in 0..dim - head {
                    let d = q[head + k] - *p1.add(head + k);
                    l[k] += d * d;
                }
            });
            r += 2;
        }
        if r < rows {
            let row = std::slice::from_raw_parts(pd.add(r * stride), dim);
            out[r] = sq_dist(q, row);
        }
    }

    /// Dots of `q` against four rows at once through the [`reduce4`]
    /// transposed tree; lane `j` is bit-identical to `dot(q, row_j)`.
    ///
    /// # Safety
    /// AVX2 must be available; `dim` is a multiple of [`LANES`] and
    /// `dim` floats are readable at `pq` and at each `p[j]`.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn dot4(pq: *const f32, p: [*const f32; 4], dim: usize) -> __m128 {
        let mut a0 = _mm256_setzero_ps();
        let mut a1 = _mm256_setzero_ps();
        let mut a2 = _mm256_setzero_ps();
        let mut a3 = _mm256_setzero_ps();
        let mut i = 0;
        while i < dim {
            let vq = _mm256_loadu_ps(pq.add(i));
            a0 = _mm256_add_ps(a0, _mm256_mul_ps(vq, _mm256_loadu_ps(p[0].add(i))));
            a1 = _mm256_add_ps(a1, _mm256_mul_ps(vq, _mm256_loadu_ps(p[1].add(i))));
            a2 = _mm256_add_ps(a2, _mm256_mul_ps(vq, _mm256_loadu_ps(p[2].add(i))));
            a3 = _mm256_add_ps(a3, _mm256_mul_ps(vq, _mm256_loadu_ps(p[3].add(i))));
            i += LANES;
        }
        reduce4(a0, a1, a2, a3)
    }

    /// [`cosine_finish`] four rows wide. IEEE `mul`/`div`/`sub` round
    /// the same in a vector lane as in a scalar register; `max`/`min`
    /// return their *second* operand when either is NaN, so with the
    /// bound first a NaN quotient stays NaN as `f32::clamp` leaves it;
    /// zero-norm lanes blend to 1.0 last (the scalar early return).
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

    /// Normed cosine scan: rows in quads through [`dot4`] with the
    /// finish four wide (tail-free dims); remainder rows and
    /// tail-carrying dims take [`dot`] and the scalar finish.
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
        let dim = q.len();
        let pd = data.as_ptr();
        let rows = out.len();
        let mut r = 0;
        if dim.is_multiple_of(LANES) && dim > 0 {
            let vnq = _mm_set1_ps(nq);
            while r + 4 <= rows {
                let p = pd.add(r * stride);
                let rows4 = [p, p.add(stride), p.add(2 * stride), p.add(3 * stride)];
                let dots = dot4(q.as_ptr(), rows4, dim);
                let vnr = _mm_loadu_ps(norms.as_ptr().add(r));
                _mm_storeu_ps(out.as_mut_ptr().add(r), cosine_finish4(dots, vnq, vnr));
                r += 4;
            }
        }
        for j in r..rows {
            let row = std::slice::from_raw_parts(pd.add(j * stride), dim);
            out[j] = cosine_finish(dot(q, row), nq, norms[j]);
        }
    }

    /// Gathered quad-dot: four gathered rows dotted per iteration
    /// through [`dot4`] (tail-free dims), falling back to per-row
    /// [`dot`] otherwise — the [`cosine_dist_block_normed`] scan with
    /// row addresses taken from `ids` instead of consecutive.
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
        let dim = q.len();
        let pd = data.as_ptr();
        let rows = out.len();
        let mut r = 0;
        if dim.is_multiple_of(LANES) && dim > 0 {
            while r + 4 <= rows {
                let rows4 = [
                    pd.add(ids[r] * stride),
                    pd.add(ids[r + 1] * stride),
                    pd.add(ids[r + 2] * stride),
                    pd.add(ids[r + 3] * stride),
                ];
                _mm_storeu_ps(out.as_mut_ptr().add(r), dot4(q.as_ptr(), rows4, dim));
                r += 4;
            }
        }
        for j in r..rows {
            let row = std::slice::from_raw_parts(pd.add(ids[j] * stride), dim);
            out[j] = dot(q, row);
        }
    }

    /// Widen 8 `u8` codes to 8 `f32` lanes (exact — every `u8` is
    /// representable).
    ///
    /// # Safety
    /// AVX2 must be available; at least 8 bytes readable at `p`.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn load_codes8(p: *const u8) -> __m256 {
        let lo = _mm_loadl_epi64(p as *const __m128i);
        _mm256_cvtepi32_ps(_mm256_cvtepu8_epi32(lo))
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
        let dim = t.len();
        let head = dim - dim % LANES;
        let pt = t.as_ptr();
        let ps = step.as_ptr();
        let pc = codes.as_ptr();
        for (r, o) in out.iter_mut().enumerate() {
            let row = pc.add(r * stride);
            let mut acc = _mm256_setzero_ps();
            let mut i = 0;
            while i < head {
                let c = load_codes8(row.add(i));
                let d = _mm256_sub_ps(
                    _mm256_loadu_ps(pt.add(i)),
                    _mm256_mul_ps(c, _mm256_loadu_ps(ps.add(i))),
                );
                acc = _mm256_add_ps(acc, _mm256_mul_ps(d, d));
                i += LANES;
            }
            *o = reduce(acc, |l| {
                for k in 0..dim - head {
                    let d = t[head + k] - *row.add(head + k) as f32 * step[head + k];
                    l[k] += d * d;
                }
            });
        }
    }

    /// # Safety
    /// AVX2 must be available; `w.len() <= stride`,
    /// `codes.len() >= out.len() * stride`.
    #[target_feature(enable = "avx2")]
    pub unsafe fn adc_dot_block(w: &[f32], codes: &[u8], stride: usize, out: &mut [f32]) {
        let dim = w.len();
        let head = dim - dim % LANES;
        let pw = w.as_ptr();
        let pc = codes.as_ptr();
        for (r, o) in out.iter_mut().enumerate() {
            let row = pc.add(r * stride);
            let mut acc = _mm256_setzero_ps();
            let mut i = 0;
            while i < head {
                let c = load_codes8(row.add(i));
                acc = _mm256_add_ps(acc, _mm256_mul_ps(_mm256_loadu_ps(pw.add(i)), c));
                i += LANES;
            }
            *o = reduce(acc, |l| {
                for k in 0..dim - head {
                    l[k] += w[head + k] * *row.add(head + k) as f32;
                }
            });
        }
    }

    /// Compile-time guard: this module is only ever entered through the
    /// [`Kernel`] dispatcher.
    #[allow(dead_code)]
    const _ARM: Kernel = Kernel::Avx2;
}

// ---------------------------------------------------------------------
// AVX-512 arm.
// ---------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod avx512 {
    //! Row-pair twins of the AVX2 block kernels.
    //!
    //! The 8-lane accumulation canon is a loop-carried dependency per
    //! row, so a single reduction cannot use wider registers without
    //! changing the operation order. Independent *rows* can: each
    //! 512-bit accumulator carries two rows — the row's canonical
    //! 8-lane chain in each 256-bit half — and one `vsubps`/`vmulps`/
    //! `vaddps` retires both. The halves never mix until the final
    //! extract, which feeds the exact [`super::avx2::reduce4`] tree the
    //! AVX2 arm uses, so every output is bit-identical to the scalar
    //! canon. `axpy` is elementwise (no reduction), so it simply runs
    //! 16-wide.
    //!
    //! Safety: every function is
    //! `#[target_feature(enable = "avx512f,avx512dq,avx2")]` and is
    //! only reached through the dispatcher after
    //! [`super::avx512_available`] verified all three features.

    use super::avx2;
    use crate::ops::LANES;
    use std::arch::x86_64::*;

    /// One row chunk in each 256-bit half: `a` low, `b` high.
    ///
    /// # Safety
    /// AVX-512 F/DQ must be available; 8 floats readable at each
    /// pointer.
    #[inline]
    #[target_feature(enable = "avx512f,avx512dq,avx2")]
    unsafe fn load_pair(a: *const f32, b: *const f32) -> __m512 {
        _mm512_insertf32x8(
            _mm512_castps256_ps512(_mm256_loadu_ps(a)),
            _mm256_loadu_ps(b),
            1,
        )
    }

    /// Widest query the row-pair paths pre-broadcast into registers:
    /// one `__m512` per 8-element chunk, the query chunk mirrored into
    /// both halves. Past this the AVX2 scan handles the call.
    const MAX_CHUNKS: usize = 32;

    /// Pre-broadcast `q`'s chunks (`head` must be a multiple of
    /// [`LANES`], at most `MAX_CHUNKS` chunks). Hoisting the broadcast
    /// out of the row loop keeps the shuffle port free for the
    /// row-pair inserts.
    ///
    /// # Safety
    /// AVX-512 F/DQ must be available; `head` floats readable at `pq`.
    #[inline]
    #[target_feature(enable = "avx512f,avx512dq,avx2")]
    unsafe fn broadcast_query(pq: *const f32, head: usize) -> [__m512; MAX_CHUNKS] {
        let mut qv = [_mm512_setzero_ps(); MAX_CHUNKS];
        for (j, chunk) in qv.iter_mut().take(head / LANES).enumerate() {
            *chunk = _mm512_broadcast_f32x8(_mm256_loadu_ps(pq.add(j * LANES)));
        }
        qv
    }

    /// `y += alpha * x`, 16 components per iteration; the sub-16
    /// remainder reuses the AVX2 twin (8-wide + scalar tail). Every
    /// component sees the same multiply-then-add as `ops::axpy`.
    ///
    /// # Safety
    /// AVX-512 F/DQ + AVX2 must be available; `x.len() == y.len()`.
    #[target_feature(enable = "avx512f,avx512dq,avx2")]
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

    /// Fused flat scan, eight rows per iteration (two per accumulator).
    /// Remainder rows fall through to the AVX2 quad/pair scan.
    ///
    /// # Safety
    /// AVX-512 F/DQ + AVX2 must be available; `q.len() <= stride`,
    /// `data.len() >= out.len() * stride`.
    #[target_feature(enable = "avx512f,avx512dq,avx2")]
    pub unsafe fn sq_dist_block(q: &[f32], data: &[f32], stride: usize, out: &mut [f32]) {
        let dim = q.len();
        let head = dim - dim % LANES;
        let pq = q.as_ptr();
        let pd = data.as_ptr();
        let rows = out.len();
        let mut r = 0;
        if dim.is_multiple_of(LANES) && dim > 0 && dim <= MAX_CHUNKS * LANES {
            let qv = broadcast_query(pq, head);
            let nchunks = head / LANES;
            while r + 8 <= rows {
                let p0 = pd.add(r * stride);
                let p1 = pd.add((r + 1) * stride);
                let p2 = pd.add((r + 2) * stride);
                let p3 = pd.add((r + 3) * stride);
                let p4 = pd.add((r + 4) * stride);
                let p5 = pd.add((r + 5) * stride);
                let p6 = pd.add((r + 6) * stride);
                let p7 = pd.add((r + 7) * stride);
                let mut a01 = _mm512_setzero_ps();
                let mut a23 = _mm512_setzero_ps();
                let mut a45 = _mm512_setzero_ps();
                let mut a67 = _mm512_setzero_ps();
                for (j, &vq) in qv.iter().take(nchunks).enumerate() {
                    let i = j * LANES;
                    let d01 = _mm512_sub_ps(vq, load_pair(p0.add(i), p1.add(i)));
                    let d23 = _mm512_sub_ps(vq, load_pair(p2.add(i), p3.add(i)));
                    let d45 = _mm512_sub_ps(vq, load_pair(p4.add(i), p5.add(i)));
                    let d67 = _mm512_sub_ps(vq, load_pair(p6.add(i), p7.add(i)));
                    a01 = _mm512_add_ps(a01, _mm512_mul_ps(d01, d01));
                    a23 = _mm512_add_ps(a23, _mm512_mul_ps(d23, d23));
                    a45 = _mm512_add_ps(a45, _mm512_mul_ps(d45, d45));
                    a67 = _mm512_add_ps(a67, _mm512_mul_ps(d67, d67));
                }
                let q0 = avx2::reduce4(
                    _mm512_castps512_ps256(a01),
                    _mm512_extractf32x8_ps::<1>(a01),
                    _mm512_castps512_ps256(a23),
                    _mm512_extractf32x8_ps::<1>(a23),
                );
                let q1 = avx2::reduce4(
                    _mm512_castps512_ps256(a45),
                    _mm512_extractf32x8_ps::<1>(a45),
                    _mm512_castps512_ps256(a67),
                    _mm512_extractf32x8_ps::<1>(a67),
                );
                _mm_storeu_ps(out.as_mut_ptr().add(r), q0);
                _mm_storeu_ps(out.as_mut_ptr().add(r + 4), q1);
                r += 8;
            }
        }
        avx2::sq_dist_block(q, &data[r * stride..], stride, &mut out[r..]);
    }

    /// Gathered dots, four rows per iteration (two per accumulator).
    /// Remainder rows use per-row AVX2 dots — the same fallback the
    /// AVX2 quad path carries.
    ///
    /// # Safety
    /// AVX-512 F/DQ + AVX2 must be available; `q.len() <= stride`,
    /// `ids.len() == out.len()`, every
    /// `ids[j] * stride + q.len() <= data.len()`.
    #[target_feature(enable = "avx512f,avx512dq,avx2")]
    pub unsafe fn dot_gather(
        q: &[f32],
        data: &[f32],
        stride: usize,
        ids: &[usize],
        out: &mut [f32],
    ) {
        let dim = q.len();
        let head = dim - dim % LANES;
        let pq = q.as_ptr();
        let pd = data.as_ptr();
        let rows = out.len();
        let mut r = 0;
        if dim.is_multiple_of(LANES) && dim > 0 && dim <= MAX_CHUNKS * LANES && rows >= 4 {
            let qv = broadcast_query(pq, head);
            let nchunks = head / LANES;
            while r + 4 <= rows {
                let p0 = pd.add(ids[r] * stride);
                let p1 = pd.add(ids[r + 1] * stride);
                let p2 = pd.add(ids[r + 2] * stride);
                let p3 = pd.add(ids[r + 3] * stride);
                let mut a01 = _mm512_setzero_ps();
                let mut a23 = _mm512_setzero_ps();
                for (j, &vq) in qv.iter().take(nchunks).enumerate() {
                    let i = j * LANES;
                    a01 = _mm512_add_ps(a01, _mm512_mul_ps(vq, load_pair(p0.add(i), p1.add(i))));
                    a23 = _mm512_add_ps(a23, _mm512_mul_ps(vq, load_pair(p2.add(i), p3.add(i))));
                }
                let quad = avx2::reduce4(
                    _mm512_castps512_ps256(a01),
                    _mm512_extractf32x8_ps::<1>(a01),
                    _mm512_castps512_ps256(a23),
                    _mm512_extractf32x8_ps::<1>(a23),
                );
                _mm_storeu_ps(out.as_mut_ptr().add(r), quad);
                r += 4;
            }
        }
        for j in r..rows {
            let row = std::slice::from_raw_parts(pd.add(ids[j] * stride), dim);
            out[j] = avx2::dot(q, row);
        }
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
        // rows > 8 with a tail-free dim: exercises the AVX-512
        // row-pair paths (8-row sq_dist scan, 4-row gathered dots)
        // plus their remainder handoff into the AVX2 scan.
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
        let dim = 21;
        let stride = 24;
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
                assert_eq!(got_sq[r].to_bits(), want_sq[r].to_bits());
                assert_eq!(got_dot[r].to_bits(), want_dot[r].to_bits());
            }
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
