//! Vector kernels shared by the embedding models and classifiers.
//!
//! The reduction kernels (`dot`, `sq_dist`, and everything built on
//! them: `norm`, `cosine`, `dist`) are **lane-strided**: element `i`
//! accumulates into lane `i % LANES` and the eight lanes collapse
//! through the fixed [`lane_sum`] tree. This is the workspace's
//! *canonical* floating-point summation order — [`crate::kernel`]
//! implements the same kernels with AVX2 intrinsics (one lane per
//! register slot, the identical reduction tree; its AVX-512 arm only
//! adds a 16-wide `axpy`, which has no reduction) and is bit-for-bit
//! interchangeable with these reference loops, which is what lets the
//! index plane dispatch between scalar and SIMD at runtime without the
//! choice ever being observable in results. Change a kernel here and
//! the SIMD twin (and its parity suite) must change with it.

/// Accumulator lanes of the lane-strided reduction kernels: 8 `f32`s =
/// one AVX2 register, so the scalar loops and the SIMD kernels share
/// one summation order.
pub const LANES: usize = 8;

/// Collapse the eight accumulator lanes in the canonical order: 128-bit
/// halves first (`l[k] + l[k+4]`), then pairwise — exactly the
/// extract/movehl/shuffle reduction an AVX2 kernel performs, so scalar
/// and SIMD totals agree bit for bit.
#[inline]
pub fn lane_sum(l: [f32; LANES]) -> f32 {
    let s0 = l[0] + l[4];
    let s1 = l[1] + l[5];
    let s2 = l[2] + l[6];
    let s3 = l[3] + l[7];
    (s0 + s2) + (s1 + s3)
}

/// Dot product (lane-strided — see the module docs). Panics in debug
/// builds if lengths differ.
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let mut l = [0.0f32; LANES];
    for (ca, cb) in a.chunks_exact(LANES).zip(b.chunks_exact(LANES)) {
        for k in 0..LANES {
            l[k] += ca[k] * cb[k];
        }
    }
    let head = a.len() - a.len() % LANES;
    for k in 0..a.len() - head {
        l[k] += a[head + k] * b[head + k];
    }
    lane_sum(l)
}

/// `y += alpha * x`.
#[inline]
pub fn axpy(alpha: f32, x: &[f32], y: &mut [f32]) {
    debug_assert_eq!(x.len(), y.len());
    for i in 0..x.len() {
        y[i] += alpha * x[i];
    }
}

/// Elementwise in-place scale: `x *= alpha`.
#[inline]
pub fn scale(alpha: f32, x: &mut [f32]) {
    for v in x {
        *v *= alpha;
    }
}

/// Euclidean (L2) norm.
#[inline]
pub fn norm(x: &[f32]) -> f32 {
    dot(x, x).sqrt()
}

/// Squared Euclidean distance between two vectors (lane-strided — see
/// the module docs).
#[inline]
pub fn sq_dist(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let mut l = [0.0f32; LANES];
    for (ca, cb) in a.chunks_exact(LANES).zip(b.chunks_exact(LANES)) {
        for k in 0..LANES {
            let d = ca[k] - cb[k];
            l[k] += d * d;
        }
    }
    let head = a.len() - a.len() % LANES;
    for k in 0..a.len() - head {
        let d = a[head + k] - b[head + k];
        l[k] += d * d;
    }
    lane_sum(l)
}

/// Euclidean distance.
#[inline]
pub fn dist(a: &[f32], b: &[f32]) -> f32 {
    sq_dist(a, b).sqrt()
}

/// Cosine similarity in `[-1, 1]`; zero vectors are treated as
/// orthogonal to everything (similarity exactly `0.0`, never NaN).
///
/// This is the *single* cosine definition in the workspace —
/// `querc_index::Metric::Cosine` and every embedder test route through
/// it (as [`cosine_dist`]), and the SIMD kernels in [`crate::kernel`]
/// are bit-for-bit twins of this exact sequence: `norm(a)`, `norm(b)`,
/// `dot(a, b)`, one divide, one clamp.
pub fn cosine(a: &[f32], b: &[f32]) -> f32 {
    cosine_of(dot(a, b), norm(a), norm(b))
}

/// Cosine similarity from its three reductions — the one place the
/// zero-norm guard and the clamp are written.
#[inline]
fn cosine_of(dot: f32, na: f32, nb: f32) -> f32 {
    if na == 0.0 || nb == 0.0 {
        return 0.0;
    }
    (dot / (na * nb)).clamp(-1.0, 1.0)
}

/// Cosine **distance** `1 − cosine(a, b)`, in `[0, 2]` — the canonical
/// form the index plane scans with. Zero vectors (either side, or
/// both) are at distance exactly `1.0` from everything, never NaN;
/// denormal components behave like any other finite value.
#[inline]
pub fn cosine_dist(a: &[f32], b: &[f32]) -> f32 {
    cosine_finish(dot(a, b), norm(a), norm(b))
}

/// [`cosine_dist`] from already-reduced operands: `1 − clamp(dot / (na ·
/// nb))`, a zero norm ⇒ exactly `1.0`. Scans that cache `norm(row)` or
/// hoist `norm(query)` end here, bit-identical to recomputing both.
#[inline]
pub fn cosine_finish(dot: f32, na: f32, nb: f32) -> f32 {
    1.0 - cosine_of(dot, na, nb)
}

/// Normalize `x` to unit L2 norm in place; leaves zero vectors untouched.
pub fn normalize(x: &mut [f32]) {
    let n = norm(x);
    if n > 0.0 {
        scale(1.0 / n, x);
    }
}

/// Numerically stable logistic sigmoid.
#[inline]
pub fn sigmoid(x: f32) -> f32 {
    if x >= 0.0 {
        let e = (-x).exp();
        1.0 / (1.0 + e)
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

/// Hyperbolic tangent (thin wrapper so models read uniformly).
#[inline]
pub fn tanh(x: f32) -> f32 {
    x.tanh()
}

/// In-place numerically stable softmax. No-op on empty input.
pub fn softmax(x: &mut [f32]) {
    if x.is_empty() {
        return;
    }
    let max = x.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
    let mut sum = 0.0;
    for v in x.iter_mut() {
        *v = (*v - max).exp();
        sum += *v;
    }
    if sum > 0.0 {
        scale(1.0 / sum, x);
    }
}

/// Log-sum-exp of a slice, stable.
pub fn log_sum_exp(x: &[f32]) -> f32 {
    let max = x.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
    if max.is_infinite() {
        return max;
    }
    max + x.iter().map(|v| (v - max).exp()).sum::<f32>().ln()
}

/// Clip every component of `x` into `[-c, c]` (gradient clipping).
pub fn clip(x: &mut [f32], c: f32) {
    debug_assert!(c > 0.0);
    for v in x {
        *v = v.clamp(-c, c);
    }
}

/// Rescale `x` so its global L2 norm is at most `max_norm`.
pub fn clip_norm(x: &mut [f32], max_norm: f32) {
    let n = norm(x);
    if n > max_norm && n > 0.0 {
        scale(max_norm / n, x);
    }
}

/// Index of the smallest value under the `total_cmp` total order —
/// ties resolve to the lowest index, NaN ranks after every real number
/// so it can never win while a finite value exists. `None` on empty
/// input. The shared argmin of every nearest-centroid / nearest-row
/// scan in the workspace.
pub fn argmin(values: &[f32]) -> Option<usize> {
    let mut best: Option<usize> = None;
    for (i, v) in values.iter().enumerate() {
        match best {
            None => best = Some(i),
            Some(b) if v.total_cmp(&values[b]) == std::cmp::Ordering::Less => best = Some(i),
            Some(_) => {}
        }
    }
    best
}

/// Elementwise mean of several equal-length vectors.
///
/// Panics on empty input or ragged rows.
pub fn mean_of(vecs: &[&[f32]]) -> Vec<f32> {
    assert!(!vecs.is_empty());
    let dim = vecs[0].len();
    let mut out = vec![0.0; dim];
    for v in vecs {
        axpy(1.0, v, &mut out);
    }
    scale(1.0 / vecs.len() as f32, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_and_axpy() {
        let a = [1.0, 2.0, 3.0];
        let mut y = [1.0, 1.0, 1.0];
        assert_eq!(dot(&a, &y), 6.0);
        axpy(2.0, &a, &mut y);
        assert_eq!(y, [3.0, 5.0, 7.0]);
    }

    #[test]
    fn cosine_of_parallel_and_orthogonal() {
        assert!((cosine(&[1.0, 0.0], &[2.0, 0.0]) - 1.0).abs() < 1e-6);
        assert!(cosine(&[1.0, 0.0], &[0.0, 5.0]).abs() < 1e-6);
        assert!((cosine(&[1.0, 0.0], &[-3.0, 0.0]) + 1.0).abs() < 1e-6);
        assert_eq!(cosine(&[0.0, 0.0], &[1.0, 1.0]), 0.0);
    }

    #[test]
    fn normalize_gives_unit_norm() {
        let mut x = [3.0, 4.0];
        normalize(&mut x);
        assert!((norm(&x) - 1.0).abs() < 1e-6);
        let mut z = [0.0, 0.0];
        normalize(&mut z);
        assert_eq!(z, [0.0, 0.0]);
    }

    #[test]
    fn sigmoid_properties() {
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-6);
        assert!(sigmoid(100.0) > 0.999_999);
        assert!(sigmoid(-100.0) < 1e-6);
        // Symmetry: sigma(-x) = 1 - sigma(x)
        for x in [-3.0f32, -0.5, 0.7, 2.0] {
            assert!((sigmoid(-x) - (1.0 - sigmoid(x))).abs() < 1e-6);
        }
        // No NaN at extremes.
        assert!(sigmoid(1e10).is_finite());
        assert!(sigmoid(-1e10).is_finite());
    }

    #[test]
    fn softmax_sums_to_one_and_is_shift_invariant() {
        let mut a = [1.0, 2.0, 3.0];
        let mut b = [1001.0, 1002.0, 1003.0];
        softmax(&mut a);
        softmax(&mut b);
        assert!((a.iter().sum::<f32>() - 1.0).abs() < 1e-5);
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-5);
        }
        assert!(a[2] > a[1] && a[1] > a[0]);
    }

    #[test]
    fn log_sum_exp_stable() {
        let x = [1000.0f32, 1000.0];
        let lse = log_sum_exp(&x);
        assert!((lse - (1000.0 + 2.0f32.ln())).abs() < 1e-3);
    }

    #[test]
    fn clip_norm_caps_but_preserves_direction() {
        let mut x = [3.0, 4.0];
        clip_norm(&mut x, 1.0);
        assert!((norm(&x) - 1.0).abs() < 1e-6);
        assert!((x[1] / x[0] - 4.0 / 3.0).abs() < 1e-5);
        let mut small = [0.1, 0.1];
        let before = small;
        clip_norm(&mut small, 1.0);
        assert_eq!(small, before);
    }

    #[test]
    fn mean_of_vectors() {
        let a = [1.0, 2.0];
        let b = [3.0, 4.0];
        assert_eq!(mean_of(&[&a, &b]), vec![2.0, 3.0]);
    }

    #[test]
    fn distances() {
        assert_eq!(sq_dist(&[0.0, 0.0], &[3.0, 4.0]), 25.0);
        assert_eq!(dist(&[0.0, 0.0], &[3.0, 4.0]), 5.0);
    }

    #[test]
    fn argmin_total_order() {
        assert_eq!(argmin(&[]), None);
        assert_eq!(argmin(&[3.0]), Some(0));
        assert_eq!(
            argmin(&[2.0, 1.0, 1.0, 5.0]),
            Some(1),
            "ties → lowest index"
        );
        assert_eq!(argmin(&[f32::NAN, 7.0]), Some(1), "NaN never beats a real");
        assert_eq!(
            argmin(&[f32::NAN, f32::NAN]),
            Some(0),
            "all-NaN is still deterministic"
        );
        assert_eq!(argmin(&[f32::INFINITY, 1e30]), Some(1));
    }
}
