//! Property tests for the SIMD kernel parity contract and the SQ8
//! quantizer's error bounds.
//!
//! Five families:
//!
//! * **SIMD ≡ scalar, bit for bit** — fuzzed over random lengths
//!   (including every tail residue `n % 8`), denormal components, and
//!   unaligned query slices. `to_bits` equality, not approximate.
//! * **Normed cosine scan ≡ `ops::cosine_dist`, bit for bit** —
//!   enumerated, not sampled: every dim 1..=67 × every row count
//!   0..=13 × two strides × every arm, with zero, denormal, NaN and ∞
//!   rows and zero/denormal queries, so each branch of the scan (quad
//!   rows, remainder rows, tail-carrying dims, the zero-norm blend) is
//!   provably taken.
//! * **Cosine indexes ≡ brute force** — `FlatIndex`, full-probe
//!   `IvfIndex` and re-ranked `Sq8Index` return the brute-force
//!   `ops::cosine_dist` ranking, distances bit-identical, and
//!   `search_batch` ≡ `search`.
//! * **Quantizer round-trip** — `decode(encode(x))` is within half a
//!   quantization step of `x` in every dimension.
//! * **ADC error bound** — the asymmetric (f32 query × u8 codes)
//!   Euclidean distance differs from the exact f32 distance by at most
//!   the quantization noise: `|√adc − √exact| ≤ ‖step‖ / 2`, up to f32
//!   rounding slack.

use proptest::prelude::*;
use querc_index::{
    FlatIndex, Hit, IvfConfig, IvfIndex, Metric, Sq8Config, Sq8Index, VectorIndex, VectorStore,
};
use querc_linalg::kernel::{self, Kernel};
use querc_linalg::{ops, Pcg32};

/// Kernels whose parity this machine can witness: always the scalar
/// reference; the AVX2 / AVX-512 arms when the CPU has them.
fn arms() -> Vec<Kernel> {
    let mut arms = vec![Kernel::Scalar];
    if kernel::avx2_available() {
        arms.push(Kernel::Avx2);
    }
    if kernel::avx512_available() {
        arms.push(Kernel::Avx512);
    }
    arms
}

/// Mix denormals and a huge spread of magnitudes into a fuzzed vector:
/// index-selected components are replaced with subnormal values.
fn seed_denormals(v: &mut [f32], mask: u64) {
    for (i, x) in v.iter_mut().enumerate() {
        if (mask >> (i % 64)) & 1 == 1 {
            *x = f32::MIN_POSITIVE / 4.0 * x.signum();
        }
    }
}

/// Bit equality, except that any NaN equals any NaN: IEEE 754 leaves
/// the payload of a generated NaN to the implementation, and a NaN
/// distance only ever needs to *be* NaN to sort last.
fn same_bits(a: f32, b: f32) -> bool {
    a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
}

/// The row kinds the cosine scan must survive, cycled by row index so
/// every quad, every remainder position and every row count sees each.
fn special_row(kind: usize, dim: usize, rng: &mut Pcg32) -> Vec<f32> {
    let mut row: Vec<f32> = (0..dim).map(|_| rng.normal() * 3.0).collect();
    match kind % 7 {
        1 => row.fill(0.0),
        2 => row
            .iter_mut()
            .for_each(|x| *x = f32::MIN_POSITIVE / 4.0 * x.signum()),
        3 => row[dim / 2] = f32::NAN,
        4 => row[dim - 1] = f32::INFINITY,
        5 => row[0] = f32::MIN_POSITIVE / 2.0,
        _ => {}
    }
    row
}

/// Enumerated parity of the normed scan and of the re-expressed
/// `cosine_dist_block` against `ops::cosine_dist`: dims 1..=67 (tails
/// and non-multiples of 8), row counts 0..=13 (quad and single
/// remainders, more than two quads), padded and unaligned strides with
/// NaN in the padding (a kernel that read it would show), on every arm
/// this machine has.
#[test]
fn normed_cosine_scan_is_bit_identical_to_ops_on_every_arm() {
    let mut rng = Pcg32::new(0x5ca9);
    let mut checked = 0usize;
    for dim in 1usize..=67 {
        let queries = [
            (0..dim).map(|_| rng.normal()).collect::<Vec<f32>>(),
            vec![0.0f32; dim],
            special_row(2, dim, &mut rng),
        ];
        for rows in 0usize..=13 {
            for stride in [dim.div_ceil(8) * 8, dim + 3] {
                let mut data = vec![f32::NAN; rows * stride];
                for r in 0..rows {
                    let row = special_row(r + rows + dim, dim, &mut rng);
                    data[r * stride..r * stride + dim].copy_from_slice(&row);
                }
                for q in &queries {
                    let want: Vec<f32> = (0..rows)
                        .map(|r| ops::cosine_dist(q, &data[r * stride..r * stride + dim]))
                        .collect();
                    for &arm in &arms() {
                        let norms: Vec<f32> = (0..rows)
                            .map(|r| kernel::norm_with(arm, &data[r * stride..r * stride + dim]))
                            .collect();
                        for (r, n) in norms.iter().enumerate() {
                            let row = &data[r * stride..r * stride + dim];
                            assert!(
                                same_bits(*n, ops::norm(row)),
                                "norm {arm:?} dim={dim} r={r}"
                            );
                        }
                        let nq = kernel::norm_with(arm, q);
                        assert!(same_bits(nq, ops::norm(q)));
                        let mut normed = vec![0.0f32; rows];
                        kernel::cosine_dist_block_normed_with(
                            arm,
                            q,
                            nq,
                            &data,
                            stride,
                            &norms,
                            &mut normed,
                        );
                        let mut block = vec![0.0f32; rows];
                        kernel::cosine_dist_block_with(arm, q, &data, stride, &mut block);
                        for r in 0..rows {
                            assert!(
                                same_bits(normed[r], want[r]),
                                "normed scan {arm:?} dim={dim} rows={rows} stride={stride} r={r}: \
                                 {} vs {}",
                                normed[r],
                                want[r]
                            );
                            assert!(
                                same_bits(block[r], want[r]),
                                "cosine_dist_block {arm:?} dim={dim} rows={rows} stride={stride} r={r}"
                            );
                            checked += 1;
                        }
                    }
                }
            }
        }
    }
    assert!(checked > 30_000, "enumeration shrank: {checked}");
}

/// `cosine_dist_block` chunks its norm buffer at 256 rows; cross the
/// boundary.
#[test]
fn cosine_dist_block_spans_its_norm_chunks() {
    let (dim, rows) = (16usize, 600usize);
    let mut rng = Pcg32::new(77);
    let data: Vec<f32> = (0..rows * dim).map(|_| rng.normal()).collect();
    let q: Vec<f32> = (0..dim).map(|_| rng.normal()).collect();
    for &arm in &arms() {
        let mut out = vec![0.0f32; rows];
        kernel::cosine_dist_block_with(arm, &q, &data, dim, &mut out);
        for r in 0..rows {
            let want = ops::cosine_dist(&q, &data[r * dim..(r + 1) * dim]);
            assert_eq!(out[r].to_bits(), want.to_bits(), "{arm:?} r={r}");
        }
    }
}

/// Brute-force top-`k` under the crate's `(distance, id)` total order.
fn brute_force(rows: &[Vec<f32>], q: &[f32], k: usize) -> Vec<Hit> {
    let mut all: Vec<Hit> = rows
        .iter()
        .enumerate()
        .map(|(i, r)| (i as u32, ops::cosine_dist(q, r)))
        .collect();
    all.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
    all.truncate(k);
    all
}

fn assert_hits_eq(got: &[Hit], want: &[Hit], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: {got:?} vs {want:?}");
    for (g, w) in got.iter().zip(want) {
        assert!(
            g.0 == w.0 && same_bits(g.1, w.1),
            "{what}: {got:?} vs {want:?}"
        );
    }
}

/// A query of the wrong dimension is a caller bug the indexes now
/// refuse in debug builds instead of scoring row prefixes or reading
/// stride padding.
#[test]
#[cfg(debug_assertions)]
fn wrong_dimension_queries_are_refused_in_debug_builds() {
    let rows: Vec<Vec<f32>> = (0..12).map(|i| vec![i as f32, 1.0, 2.0]).collect();
    let indexes: Vec<Box<dyn VectorIndex>> = vec![
        Box::new(FlatIndex::from_rows(&rows, Metric::Cosine)),
        Box::new(IvfIndex::from_rows(
            &rows,
            Metric::Cosine,
            &IvfConfig::default(),
        )),
        Box::new(Sq8Index::from_rows(
            &rows,
            Metric::Cosine,
            &Sq8Config::default(),
        )),
    ];
    for ix in &indexes {
        for bad in [&[1.0f32, 2.0][..], &[1.0, 2.0, 3.0, 4.0]] {
            let single =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| ix.search(bad, 1)));
            assert!(single.is_err(), "{} search", ix.stats().backend);
            let batch = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                ix.search_batch(&[&[0.0f32, 0.0, 1.0][..], bad], 1)
            }));
            assert!(batch.is_err(), "{} search_batch", ix.stats().backend);
        }
        assert_eq!(ix.search(&[1.0, 0.0, 0.0], 1).len(), 1);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Every cosine index answers with the brute-force
    /// `ops::cosine_dist` ranking — ids and distance bits — and its
    /// batched search equals its single search. IVF probes every list
    /// and SQ8 re-ranks every row, so both are exact here; zero and
    /// denormal rows and a zero query ride along.
    #[test]
    fn cosine_indexes_match_brute_force(
        dim in 1usize..40,
        n in 1usize..48,
        k in 1usize..8,
        seed in any::<u64>(),
    ) {
        let mut rng = Pcg32::new(seed);
        let rows: Vec<Vec<f32>> = (0..n)
            .map(|r| special_row(if r % 5 == 0 { r / 5 % 3 } else { 0 }, dim, &mut rng))
            .collect();
        let mut queries: Vec<Vec<f32>> = (0..4)
            .map(|_| (0..dim).map(|_| rng.normal()).collect())
            .collect();
        queries.push(vec![0.0; dim]);
        queries.push(rows[n / 2].clone());
        let refs: Vec<&[f32]> = queries.iter().map(Vec::as_slice).collect();

        let nlist = n.min(4);
        let indexes: Vec<Box<dyn VectorIndex>> = vec![
            Box::new(FlatIndex::from_rows(&rows, Metric::Cosine)),
            Box::new(IvfIndex::from_rows(&rows, Metric::Cosine, &IvfConfig {
                nlist,
                nprobe: nlist,
                ..Default::default()
            })),
            Box::new(Sq8Index::from_rows(&rows, Metric::Cosine, &Sq8Config {
                nlist,
                nprobe: nlist,
                rerank_factor: n, // k·n ≥ n candidates: every row is re-ranked
                ..Default::default()
            })),
        ];
        for ix in &indexes {
            let what = ix.stats().backend;
            let batched = ix.search_batch(&refs, k);
            for (q, hits) in refs.iter().zip(&batched) {
                assert_hits_eq(&ix.search(q, k), &brute_force(&rows, q, k), what);
                assert_hits_eq(hits, &ix.search(q, k), what);
            }
        }
    }

    /// Row kernels agree bit-for-bit across arms, for any length
    /// (tails of every residue), with denormal components, reading the
    /// query from an unaligned slice.
    #[test]
    fn row_kernels_bit_identical(
        mut a in prop::collection::vec(-100.0f32..100.0, 0..70),
        mask in any::<u64>(),
        bseed in any::<u64>(),
    ) {
        seed_denormals(&mut a, mask);
        let n = a.len();
        let b: Vec<f32> = (0..n)
            .map(|i| ((bseed.wrapping_add(i as u64 * 0x9e37) % 2000) as f32 - 1000.0) / 10.0)
            .collect();
        // Unaligned views: one element of padding shifts the slice off
        // any 32-byte boundary the Vec allocation happened to land on.
        let mut a_pad = vec![0.0f32; n + 1];
        a_pad[1..].copy_from_slice(&a);
        let a_off = &a_pad[1..];

        let arms = arms();
        let sq: Vec<u32> = arms.iter().map(|&k| kernel::sq_dist_with(k, a_off, &b).to_bits()).collect();
        let co: Vec<u32> = arms.iter().map(|&k| kernel::cosine_dist_with(k, a_off, &b).to_bits()).collect();
        let dt: Vec<u32> = arms.iter().map(|&k| kernel::dot_with(k, a_off, &b).to_bits()).collect();
        for w in [&sq, &co, &dt] {
            prop_assert!(w.windows(2).all(|p| p[0] == p[1]), "arm mismatch: {w:?}");
        }
        // And the scalar arm IS the ops reference.
        prop_assert_eq!(sq[0], ops::sq_dist(a_off, &b).to_bits());
        prop_assert_eq!(co[0], ops::cosine_dist(a_off, &b).to_bits());
        prop_assert_eq!(dt[0], ops::dot(a_off, &b).to_bits());
    }

    /// Fused block kernels agree bit-for-bit across arms AND with the
    /// row kernels, over padded stores of fuzzed dim/row-count.
    #[test]
    fn block_kernels_bit_identical(
        dim in 1usize..40,
        rows in 1usize..20,
        mask in any::<u64>(),
        seed in any::<u64>(),
    ) {
        let mut store = VectorStore::with_capacity(dim, rows);
        for r in 0..rows {
            let mut row: Vec<f32> = (0..dim)
                .map(|d| ((seed.wrapping_add((r * dim + d) as u64 * 0x1df5) % 4000) as f32 - 2000.0) / 40.0)
                .collect();
            seed_denormals(&mut row, mask.rotate_left(r as u32));
            store.push(&row);
        }
        let mut q: Vec<f32> = (0..dim).map(|d| (d as f32).sin() * 9.0).collect();
        seed_denormals(&mut q, mask);

        for metric in [Metric::Euclidean, Metric::Cosine] {
            let mut outs: Vec<Vec<f32>> = Vec::new();
            for &k in &arms() {
                let mut out = vec![0.0f32; rows];
                match metric {
                    Metric::Euclidean =>
                        kernel::sq_dist_block_with(k, &q, store.data(), store.stride(), &mut out),
                    Metric::Cosine =>
                        kernel::cosine_dist_block_with(k, &q, store.data(), store.stride(), &mut out),
                }
                outs.push(out);
            }
            for out in &outs[1..] {
                for (x, y) in outs[0].iter().zip(out) {
                    prop_assert!(x.to_bits() == y.to_bits(), "{metric:?} block arm mismatch");
                }
            }
            for (r, &d) in outs[0].iter().enumerate() {
                let row_d = metric.distance(&q, store.row(r));
                prop_assert!(
                    d.to_bits() == row_d.to_bits(),
                    "{metric:?} block vs row mismatch at row {r}: {d} vs {row_d}"
                );
            }
        }
    }

    /// ADC block kernels agree bit-for-bit across arms for arbitrary
    /// codes and fuzzed dims.
    #[test]
    fn adc_kernels_bit_identical(
        dim in 1usize..40,
        rows in 1usize..12,
        seed in any::<u64>(),
    ) {
        let stride = dim.div_ceil(8) * 8;
        let codes: Vec<u8> = (0..rows * stride)
            .map(|i| (seed.wrapping_mul(0x2545_f491_4f6c_dd1d).wrapping_add(i as u64 * 0x9e37) >> 24) as u8)
            .collect();
        let t: Vec<f32> = (0..dim).map(|d| (d as f32 * 0.7).cos() * 50.0).collect();
        let step: Vec<f32> = (0..dim).map(|d| 0.01 + (d as f32 * 0.13).sin().abs()).collect();

        let mut sq_outs: Vec<Vec<f32>> = Vec::new();
        let mut dot_outs: Vec<Vec<f32>> = Vec::new();
        for &k in &arms() {
            let mut sq = vec![0.0f32; rows];
            let mut dt = vec![0.0f32; rows];
            kernel::adc_sq_block_with(k, &t, &step, &codes, stride, &mut sq);
            kernel::adc_dot_block_with(k, &t, &codes, stride, &mut dt);
            sq_outs.push(sq);
            dot_outs.push(dt);
        }
        for outs in [&sq_outs, &dot_outs] {
            for out in &outs[1..] {
                for (x, y) in outs[0].iter().zip(out) {
                    prop_assert!(x.to_bits() == y.to_bits(), "ADC arm mismatch: {x} vs {y}");
                }
            }
        }
    }

    /// Quantizer round-trip: decoding a code reproduces the original
    /// component to within half a step (plus f32 rounding slack).
    #[test]
    fn quantizer_round_trip_error_is_bounded(
        dim in 1usize..24,
        rows in 2usize..30,
        seed in any::<u64>(),
        scale in 0.01f32..1000.0,
    ) {
        let rows_v: Vec<Vec<f32>> = (0..rows)
            .map(|r| (0..dim)
                .map(|d| ((seed.wrapping_add((r * dim + d) as u64 * 0x517c) % 2001) as f32 - 1000.0)
                    / 1000.0 * scale)
                .collect())
            .collect();
        // Flat (nlist 0): codes quantize the raw rows, so the
        // round-trip bound is directly checkable against the inputs.
        let ix = Sq8Index::from_rows(&rows_v, Metric::Euclidean, &Sq8Config {
            nlist: 0,
            rerank_factor: 0,
            ..Default::default()
        });
        let (min, step) = ix.quantizer();
        let codes = ix.codes_by_row();
        for (r, row) in rows_v.iter().enumerate() {
            for (d, &x) in row.iter().enumerate() {
                let c = codes[r * dim + d] as f32;
                let decoded = min[d] + c * step[d];
                let slack = step[d] * 0.5 + step[d] * 1e-4 + scale * 1e-5;
                prop_assert!(
                    (decoded - x).abs() <= slack,
                    "row {r} dim {d}: decoded {decoded} vs {x}, step {}", step[d]
                );
            }
        }
    }

    /// ADC Euclidean distances are within the quantization-noise bound
    /// of the exact f32 distances: `|√adc − √exact| ≤ ‖step‖/2` (+f32
    /// slack). Checked over every row via a full-k search.
    #[test]
    fn adc_distance_is_within_quantization_noise(
        dim in 1usize..16,
        rows in 2usize..24,
        seed in any::<u64>(),
    ) {
        let rows_v: Vec<Vec<f32>> = (0..rows)
            .map(|r| (0..dim)
                .map(|d| ((seed.wrapping_add((r * dim + d) as u64 * 0x6d2b) % 2001) as f32 - 1000.0) / 50.0)
                .collect())
            .collect();
        let ix = Sq8Index::from_rows(&rows_v, Metric::Euclidean, &Sq8Config {
            nlist: 0,
            rerank_factor: 0, // report raw ADC distances
            ..Default::default()
        });
        let (_, step) = ix.quantizer();
        let half_step_norm = ops::norm(step) * 0.5;
        let q: Vec<f32> = (0..dim).map(|d| (d as f32 * 1.3).sin() * 18.0).collect();
        for (id, adc) in ix.search(&q, rows) {
            let exact = ops::sq_dist(&q, &rows_v[id as usize]);
            let (da, de) = (adc.max(0.0).sqrt(), exact.sqrt());
            prop_assert!(
                (da - de).abs() <= half_step_norm * 1.001 + 1e-3,
                "row {id}: √adc {da} vs √exact {de}, bound {half_step_norm}"
            );
        }
    }
}
