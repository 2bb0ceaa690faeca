//! Vector-plane parity suite: the new index layer must be a drop-in
//! for the brute-force scans it replaced.
//!
//! * `FlatIndex` ≡ the pre-refactor linear scan, **bit for bit**: same
//!   distance kernels in the same order, so distances compare equal as
//!   raw `u32` bits, and the deterministic `(distance, id)` order
//!   returns exactly the reference neighbor set.
//! * `Knn` with the default exact backend predicts identically to the
//!   historical `Vec<Vec<f32>>` brute force (re-implemented here
//!   verbatim as the reference).
//! * `IvfIndex` holds recall@10 ≥ 0.95 on clustered data — the shape
//!   of an embedded templated workload — while scanning a fraction of
//!   the corpus.
//! * The scalar and AVX2 kernel arms return **identical top-k
//!   orderings with bit-identical distances** across the whole index
//!   plane — forcing either arm through the dispatch override changes
//!   nothing observable.
//! * `Sq8Index` with re-ranking holds recall@10 ≥ 0.95 on the same
//!   clustered regime at a fraction of flat's resident bytes.
//! * `Sq8Index` also holds recall@10 ≥ 0.95 on real embedded SQL (a
//!   SnowCloud trace through `BagOfTokens`), with re-ranking and as
//!   IVF+SQ8 codes alone.

use querc_embed::{BagOfTokens, Embedder};
use querc_index::{
    FlatIndex, IvfConfig, IvfIndex, Metric, Sq8Config, Sq8Index, VectorIndex, VectorStore,
};
use querc_learn::{Classifier, Knn, KnnMetric};
use querc_linalg::kernel::{self, Kernel};
use querc_linalg::{ops, Pcg32};
use querc_workloads::{SnowCloud, SnowCloudConfig};

/// Gaussian blobs around `centers` — clustered data, IVF's target
/// regime and what embedded SQL templates look like.
fn blobs(n_per: usize, centers: usize, dim: usize, seed: u64) -> Vec<Vec<f32>> {
    let mut rng = Pcg32::new(seed);
    let mut pts = Vec::new();
    for _ in 0..centers {
        let center: Vec<f32> = (0..dim).map(|_| rng.normal() * 10.0).collect();
        for _ in 0..n_per {
            pts.push(center.iter().map(|c| c + rng.normal() * 0.5).collect());
        }
    }
    pts
}

/// The pre-refactor brute force: walk the corpus in row order with
/// `ops::sq_dist`, keep the k smallest, ties to the lower row id.
fn reference_knn(corpus: &[Vec<f32>], q: &[f32], k: usize) -> Vec<(u32, f32)> {
    let mut dists: Vec<(u32, f32)> = corpus
        .iter()
        .enumerate()
        .map(|(i, row)| (i as u32, ops::sq_dist(q, row)))
        .collect();
    dists.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
    dists.truncate(k);
    dists
}

#[test]
fn flat_index_is_bit_identical_to_brute_force() {
    let corpus = blobs(200, 5, 16, 0xf1a7);
    let flat = FlatIndex::from_rows(&corpus, Metric::Euclidean);
    let mut rng = Pcg32::new(7);
    for _ in 0..50 {
        let q: Vec<f32> = (0..16).map(|_| rng.normal() * 10.0).collect();
        let expect = reference_knn(&corpus, &q, 10);
        let got = flat.search(&q, 10);
        assert_eq!(got.len(), expect.len());
        for (g, e) in got.iter().zip(&expect) {
            assert_eq!(g.0, e.0, "neighbor ids must match the brute force");
            assert_eq!(
                g.1.to_bits(),
                e.1.to_bits(),
                "distances must be bit-identical, not approximately equal"
            );
        }
    }
}

#[test]
fn flat_search_batch_is_the_single_path_verbatim() {
    let corpus = blobs(150, 4, 8, 0xba7c);
    let flat = FlatIndex::from_rows(&corpus, Metric::Euclidean);
    let mut rng = Pcg32::new(8);
    let queries: Vec<Vec<f32>> = (0..20)
        .map(|_| (0..8).map(|_| rng.normal() * 10.0).collect())
        .collect();
    let refs: Vec<&[f32]> = queries.iter().map(Vec::as_slice).collect();
    let batched = flat.search_batch(&refs, 7);
    for (q, hits) in refs.iter().zip(&batched) {
        assert_eq!(*hits, flat.search(q, 7));
    }
}

#[test]
fn knn_exact_backend_matches_the_old_brute_force_classifier() {
    // The historical Knn::predict vote, computed from the k nearest:
    // returns the per-class counts so the test can distinguish the
    // determinate case (unique majority — the old code and the new one
    // must agree exactly) from a vote tie, where the old
    // `max_by_key` happened to keep the *highest* tied class and the
    // new rule deliberately picks the *lowest* (the documented
    // determinism contract) — asserting byte equality there would pin
    // the old ambiguity, not the behavior.
    fn old_votes(x: &[Vec<f32>], y: &[u32], n_classes: usize, k: usize, q: &[f32]) -> Vec<u32> {
        let mut dists: Vec<(f32, u32)> = x
            .iter()
            .zip(y)
            .map(|(xi, &yi)| (ops::sq_dist(q, xi), yi))
            .collect();
        let k = k.min(dists.len());
        dists.select_nth_unstable_by(k - 1, |a, b| {
            a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal)
        });
        let mut votes = vec![0u32; n_classes.max(1)];
        for &(_, label) in &dists[..k] {
            votes[label as usize] += 1;
        }
        votes
    }

    let x = blobs(80, 4, 12, 0x01d0);
    let y: Vec<u32> = (0..x.len()).map(|i| (i / 80) as u32).collect();
    let mut knn = Knn::new(5, KnnMetric::Euclidean);
    knn.fit(&x, &y, 4, &mut Pcg32::new(1));
    let mut rng = Pcg32::new(2);
    let mut determinate = 0;
    for _ in 0..60 {
        let q: Vec<f32> = (0..12).map(|_| rng.normal() * 10.0).collect();
        let votes = old_votes(&x, &y, 4, 5, &q);
        let max = *votes.iter().max().unwrap();
        let winners: Vec<u32> = (0..votes.len() as u32)
            .filter(|&c| votes[c as usize] == max)
            .collect();
        let got = knn.predict(&q);
        if winners.len() == 1 {
            determinate += 1;
            assert_eq!(
                got, winners[0],
                "index-backed kNN must predict exactly as the old brute force"
            );
        } else {
            assert_eq!(
                got, winners[0],
                "on a vote tie the new rule picks the lowest tied class"
            );
        }
    }
    assert!(
        determinate >= 50,
        "parity needs mostly tie-free queries to mean anything, got {determinate}/60"
    );
}

/// recall@k of `got` against exact ground truth `expect` (id overlap).
fn recall(got: &[(u32, f32)], expect: &[(u32, f32)]) -> f64 {
    let truth: std::collections::HashSet<u32> = expect.iter().map(|h| h.0).collect();
    got.iter().filter(|h| truth.contains(&h.0)).count() as f64 / expect.len() as f64
}

#[test]
fn ivf_recall_at_10_on_clustered_data() {
    let corpus = blobs(125, 40, 16, 0x1ecf); // 5 000 vectors, 40 clusters
    let store = VectorStore::from_rows(&corpus);
    let flat = FlatIndex::new(store.clone(), Metric::Euclidean);
    let ivf = IvfIndex::build(
        store,
        Metric::Euclidean,
        &IvfConfig {
            nlist: 64,
            nprobe: 8,
            ..Default::default()
        },
    );
    let mut rng = Pcg32::new(3);
    // Queries near the data (perturbed corpus points): the serving case.
    let queries: Vec<Vec<f32>> = (0..200)
        .map(|_| {
            let base = &corpus[rng.below_usize(corpus.len())];
            base.iter().map(|v| v + rng.normal() * 0.3).collect()
        })
        .collect();
    let mut total_recall = 0.0;
    for q in &queries {
        total_recall += recall(&ivf.search(q, 10), &flat.search(q, 10));
    }
    let mean_recall = total_recall / queries.len() as f64;
    assert!(
        mean_recall >= 0.95,
        "IVF recall@10 must hold ≥ 0.95 on clustered data, got {mean_recall:.3}"
    );
    // And it must have *earned* it: an 8-of-64 probe cannot have scanned
    // anything close to the whole corpus per query.
    let stats = ivf.stats();
    assert_eq!(stats.searches, 200);
    assert!(
        stats.candidates_per_search() < corpus.len() as f64 / 3.0,
        "ANN scanned {} candidates/search over a {}-vector corpus",
        stats.candidates_per_search(),
        corpus.len()
    );
}

#[test]
fn full_probe_ivf_equals_flat_on_every_query() {
    let corpus = blobs(50, 6, 8, 0xe9a1);
    let flat = FlatIndex::from_rows(&corpus, Metric::Euclidean);
    let ivf = IvfIndex::from_rows(
        &corpus,
        Metric::Euclidean,
        &IvfConfig {
            nlist: 10,
            nprobe: 10,
            ..Default::default()
        },
    );
    let mut rng = Pcg32::new(5);
    for _ in 0..40 {
        let q: Vec<f32> = (0..8).map(|_| rng.normal() * 10.0).collect();
        assert_eq!(ivf.search(&q, 10), flat.search(&q, 10));
    }
}

/// Every backend, forced through each kernel arm in turn, returns the
/// same `(id, distance)` sequences bit for bit. The override is
/// process-global, but because the arms are bit-identical by contract,
/// flipping it under concurrently running tests is unobservable — that
/// invariance is exactly what this test pins.
#[test]
fn kernel_arms_agree_on_every_backend_top_k() {
    let corpus = blobs(100, 8, 20, 0x51d3); // dim 20: tail residue 4
    let store = VectorStore::from_rows(&corpus);
    let mut arms = vec![Kernel::Scalar];
    if kernel::avx2_available() {
        arms.push(Kernel::Avx2);
    }
    if kernel::avx512_available() {
        arms.push(Kernel::Avx512);
    }
    let mut rng = Pcg32::new(11);
    let queries: Vec<Vec<f32>> = (0..30)
        .map(|_| (0..20).map(|_| rng.normal() * 8.0).collect())
        .collect();

    for metric in [Metric::Euclidean, Metric::Cosine] {
        let flat = FlatIndex::new(store.clone(), metric);
        let ivf = IvfIndex::build(
            store.clone(),
            metric,
            &IvfConfig {
                nlist: 12,
                nprobe: 4,
                ..Default::default()
            },
        );
        let sq8 = Sq8Index::build(
            store.clone(),
            metric,
            &Sq8Config {
                nlist: 0,
                rerank_factor: 4,
                ..Default::default()
            },
        );
        let indexes: [(&str, &dyn VectorIndex); 3] =
            [("flat", &flat), ("ivf", &ivf), ("sq8", &sq8)];
        for (tag, ix) in indexes {
            let mut per_arm: Vec<Vec<Vec<(u32, u32)>>> = Vec::new();
            for &arm in &arms {
                let prev = kernel::set_kernel_override(Some(arm));
                assert_eq!(prev, arm, "override must force the requested arm");
                per_arm.push(
                    queries
                        .iter()
                        .map(|q| {
                            ix.search(q, 10)
                                .into_iter()
                                .map(|(id, d)| (id, d.to_bits()))
                                .collect()
                        })
                        .collect(),
                );
                kernel::set_kernel_override(None);
            }
            for other in &per_arm[1..] {
                assert_eq!(
                    &per_arm[0], other,
                    "{metric:?}/{tag}: kernel arms must return identical top-k \
                     orderings with bit-identical distances"
                );
            }
        }
    }
}

#[test]
fn sq8_rerank_recall_at_10_on_clustered_data() {
    let corpus = blobs(125, 40, 16, 0x1ecf); // same regime as the IVF gate
    let store = VectorStore::from_rows(&corpus);
    let flat = FlatIndex::new(store.clone(), Metric::Euclidean);
    let sq8 = Sq8Index::build(
        store.clone(),
        Metric::Euclidean,
        &Sq8Config {
            nlist: Sq8Config::AUTO_NLIST,
            nprobe: 8,
            rerank_factor: 4,
            ..Default::default()
        },
    );
    let mut rng = Pcg32::new(3);
    let queries: Vec<Vec<f32>> = (0..200)
        .map(|_| {
            let base = &corpus[rng.below_usize(corpus.len())];
            base.iter().map(|v| v + rng.normal() * 0.3).collect()
        })
        .collect();
    let mut total_recall = 0.0;
    for q in &queries {
        total_recall += recall(&sq8.search(q, 10), &flat.search(q, 10));
    }
    let mean_recall = total_recall / queries.len() as f64;
    assert!(
        mean_recall >= 0.95,
        "IVF+SQ8 recall@10 must hold ≥ 0.95 with re-ranking, got {mean_recall:.3}"
    );
    // The memory story is the point: quantized codes + coarse structure
    // must undercut the flat store even with the re-rank rows resident.
    let (flat_bytes, sq8_bytes) = (flat.stats().resident_bytes, sq8.stats().resident_bytes);
    assert!(
        sq8_bytes < flat_bytes * 3 / 2,
        "sq8-with-rerank resident bytes {sq8_bytes} vs flat {flat_bytes}"
    );
    // Without the exact rows (rerank_factor 0) it must be far below.
    let codes_only = Sq8Index::build(
        store,
        Metric::Euclidean,
        &Sq8Config {
            nlist: Sq8Config::AUTO_NLIST,
            nprobe: 8,
            rerank_factor: 0,
            ..Default::default()
        },
    );
    assert!(
        codes_only.stats().resident_bytes * 3 <= flat_bytes,
        "codes-only sq8 must hold ≤ ⅓ of flat's bytes, got {} vs {flat_bytes}",
        codes_only.stats().resident_bytes
    );
}

/// SQ8 on real embedded SQL rather than Gaussian blobs: the first half
/// of a ten-account SnowCloud trace (750 queries) through
/// `BagOfTokens`, every 7th vector as a probe, exact ground truth from
/// `FlatIndex`. Both serving shapes hold recall@10 ≥ 0.95: a flat ADC
/// scan with re-ranking, and IVF+SQ8 codes alone (memory parity).
#[test]
fn sq8_recall_at_10_on_embedded_sql() {
    const K: usize = 10;
    const RECALL_FLOOR: f64 = 0.95;
    let workload = SnowCloud::generate(&SnowCloudConfig::pretrain(10, 150, 0x10ad));
    let embedder = BagOfTokens::new(128, true);
    let vectors: Vec<Vec<f32>> = workload.records[..workload.records.len() / 2]
        .iter()
        .map(|r| embedder.embed_sql(&r.sql))
        .collect();
    assert_eq!(vectors.len(), 750);
    let flat = FlatIndex::from_rows(&vectors, Metric::Euclidean);
    let probes: Vec<&[f32]> = vectors.iter().step_by(7).map(Vec::as_slice).collect();
    assert_eq!(probes.len(), 108);

    for (tag, cfg) in [
        (
            "sq8",
            Sq8Config {
                nlist: 0,
                rerank_factor: 4,
                ..Default::default()
            },
        ),
        (
            "ivf+sq8",
            Sq8Config {
                nlist: Sq8Config::AUTO_NLIST,
                nprobe: 8,
                rerank_factor: 0,
                ..Default::default()
            },
        ),
    ] {
        let sq8 = Sq8Index::from_rows(&vectors, Metric::Euclidean, &cfg);
        let total: f64 = probes
            .iter()
            .map(|q| recall(&sq8.search(q, K), &flat.search(q, K)))
            .sum();
        let mean_recall = total / probes.len() as f64;
        assert!(
            mean_recall >= RECALL_FLOOR,
            "{tag}: recall@{K} on embedded SQL {mean_recall:.3} fell below {RECALL_FLOOR}"
        );
    }
}
