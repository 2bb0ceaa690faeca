//! Lloyd's K-means with k-means++ seeding and empty-cluster repair.
//!
//! The assignment step — the O(n·k·dim) heart of every Lloyd iteration
//! — runs on the compute plane: centroids are packed once per iteration
//! into a padded row-major block and each point is scored with the
//! fused `kernel::sq_dist_block` scan (scalar/AVX2, bit-identical
//! arms), with points processed in fixed-size chunks distributed over a
//! [`ComputePool`]. Per-chunk partial sums, counts and SSE are reduced
//! **in chunk order**, so the fit is bit-identical for every
//! `training_threads` value; corpora up to one chunk (1024 points)
//! reduce in exactly the historical single-pass point order.

use querc_linalg::{kernel, ops, ComputePool, Pcg32};

/// Index of the centroid nearest `point` (squared Euclidean distance) —
/// the assignment step shared by every serving path that maps a fresh
/// query onto a trained clustering — or `None` when `centroids` is
/// empty.
///
/// Ties resolve to the lowest centroid index, and a NaN distance never
/// beats a finite one (`total_cmp` order, matching `ops::argmin`).
/// Allocation-free: this is the per-point assignment primitive, called
/// in a loop by every serving path.
pub fn try_nearest_centroid(point: &[f32], centroids: &[Vec<f32>]) -> Option<usize> {
    let kern = kernel::active_kernel();
    let mut best: Option<(usize, f32)> = None;
    for (c, centroid) in centroids.iter().enumerate() {
        let d = kernel::sq_dist_with(kern, point, centroid);
        match best {
            Some((_, bd)) if d.total_cmp(&bd) != std::cmp::Ordering::Less => {}
            _ => best = Some((c, d)),
        }
    }
    best.map(|(c, _)| c)
}

/// K-means parameters.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct KMeansConfig {
    pub k: usize,
    /// Maximum Lloyd iterations.
    pub max_iters: usize,
    /// Stop when the relative SSE improvement drops below this.
    pub tol: f64,
}

impl Default for KMeansConfig {
    fn default() -> Self {
        KMeansConfig {
            k: 8,
            max_iters: 100,
            tol: 1e-4,
        }
    }
}

/// Result of a K-means run.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct KMeansResult {
    /// Cluster index per input point.
    pub assignments: Vec<usize>,
    /// `k` centroids.
    pub centroids: Vec<Vec<f32>>,
    /// Final within-cluster sum of squared distances.
    pub sse: f64,
    /// Lloyd iterations executed.
    pub iterations: usize,
}

impl KMeansResult {
    /// Index of the input point nearest each centroid — the "witness"
    /// queries used as the workload summary.
    pub fn witnesses(&self, points: &[Vec<f32>]) -> Vec<usize> {
        let kern = kernel::active_kernel();
        self.centroids
            .iter()
            .map(|c| {
                let mut best = 0usize;
                let mut best_d = f32::INFINITY;
                for (i, p) in points.iter().enumerate() {
                    let d = kernel::sq_dist_with(kern, p, c);
                    if d < best_d {
                        best_d = d;
                        best = i;
                    }
                }
                best
            })
            .collect()
    }

    /// Number of points in each cluster.
    pub fn sizes(&self) -> Vec<usize> {
        let mut sizes = vec![0usize; self.centroids.len()];
        for &a in &self.assignments {
            sizes[a] += 1;
        }
        sizes
    }
}

/// Fixed chunk width for the parallel assignment step. The
/// decomposition depends only on the corpus size — never on the thread
/// count — which is half of the determinism argument; the other half is
/// that the per-chunk partials are folded in chunk order.
const ASSIGN_CHUNK: usize = 1024;

/// Per-chunk partial results of one assignment pass.
struct ChunkStats {
    assignments: Vec<usize>,
    sse: f64,
    /// `k × dim` row-major per-cluster sums, accumulated in point order.
    sums: Vec<f32>,
    counts: Vec<usize>,
}

/// Padded row-major copy of the centroids (stride rounded to the SIMD
/// lane width, padding zeroed) so assignment can use the fused block
/// scan. Rebuilt once per Lloyd iteration — O(k·dim), noise next to
/// the O(n·k·dim) scan it accelerates.
fn pack_centroids(centroids: &[Vec<f32>], dim: usize) -> (Vec<f32>, usize) {
    let stride = dim.div_ceil(ops::LANES) * ops::LANES;
    let mut buf = vec![0.0f32; centroids.len() * stride];
    for (c, cent) in centroids.iter().enumerate() {
        buf[c * stride..c * stride + dim].copy_from_slice(cent);
    }
    (buf, stride)
}

/// One full assignment pass: nearest centroid, SSE, per-cluster sums
/// and counts, chunk-parallel over `pool`. Ties resolve to the lowest
/// centroid index and NaN distances rank last (`ops::argmin` total
/// order) — the same winner the historical `d < best_d` scan picked.
fn assign_pass(
    points: &[Vec<f32>],
    centroids: &[Vec<f32>],
    dim: usize,
    pool: &ComputePool,
) -> (Vec<usize>, f64, Vec<f32>, Vec<usize>) {
    let k = centroids.len();
    let (cent_buf, stride) = pack_centroids(centroids, dim);
    let kern = kernel::active_kernel();
    let n_chunks = points.len().div_ceil(ASSIGN_CHUNK);
    let parts = pool.map(n_chunks, |ci| {
        let lo = ci * ASSIGN_CHUNK;
        let hi = (lo + ASSIGN_CHUNK).min(points.len());
        let mut stats = ChunkStats {
            assignments: Vec::with_capacity(hi - lo),
            sse: 0.0,
            sums: vec![0.0f32; k * dim],
            counts: vec![0usize; k],
        };
        let mut dists = vec![0.0f32; k];
        for p in &points[lo..hi] {
            kernel::sq_dist_block_with(kern, p, &cent_buf, stride, &mut dists);
            let best = ops::argmin(&dists).expect("k >= 1");
            stats.assignments.push(best);
            stats.sse += dists[best] as f64;
            ops::axpy(1.0, p, &mut stats.sums[best * dim..(best + 1) * dim]);
            stats.counts[best] += 1;
        }
        stats
    });
    // Fixed-order reduce: chunk 0, then 1, … — identical for every
    // thread count, and identical to the historical single-pass point
    // order whenever there is one chunk.
    let mut assignments = Vec::with_capacity(points.len());
    let mut sse = 0.0f64;
    let mut sums = vec![0.0f32; k * dim];
    let mut counts = vec![0usize; k];
    for part in parts {
        assignments.extend_from_slice(&part.assignments);
        sse += part.sse;
        ops::axpy(1.0, &part.sums, &mut sums);
        for (c, n) in counts.iter_mut().zip(&part.counts) {
            *c += n;
        }
    }
    (assignments, sse, sums, counts)
}

/// Run K-means over `points`. Panics if `points` is empty or `k == 0`;
/// `k` larger than the number of points is clamped.
///
/// Runs on the compute plane: the result is bit-identical for every
/// kernel arm and every `training_threads` value.
pub fn kmeans(points: &[Vec<f32>], cfg: &KMeansConfig, rng: &mut Pcg32) -> KMeansResult {
    assert!(!points.is_empty(), "kmeans on empty input");
    assert!(cfg.k > 0, "k must be positive");
    let k = cfg.k.min(points.len());
    let dim = points[0].len();
    let pool = ComputePool::current();
    let mut centroids = plus_plus_init(points, k, rng);
    let mut prev_sse = f64::INFINITY;
    let mut iterations = 0;
    for iter in 0..cfg.max_iters {
        iterations = iter + 1;
        // Assign + accumulate (one fused chunk-parallel pass).
        let (_, sse, sums, counts) = assign_pass(points, &centroids, dim, &pool);
        // Update.
        for c in 0..k {
            if counts[c] == 0 {
                // Empty cluster: reseed at the point farthest from its
                // centroid (standard repair).
                let far = points
                    .iter()
                    .enumerate()
                    .max_by(|(_, a), (_, b)| {
                        let da = ops::sq_dist(a, &centroids[assignments_of(a, &centroids)]);
                        let db = ops::sq_dist(b, &centroids[assignments_of(b, &centroids)]);
                        da.partial_cmp(&db).unwrap_or(std::cmp::Ordering::Equal)
                    })
                    .map(|(i, _)| i)
                    .unwrap_or(0);
                centroids[c] = points[far].clone();
            } else {
                let inv = 1.0 / counts[c] as f32;
                for (dst, s) in centroids[c].iter_mut().zip(&sums[c * dim..(c + 1) * dim]) {
                    *dst = s * inv;
                }
            }
        }
        // Converged?
        let converged =
            prev_sse.is_finite() && (prev_sse - sse).abs() / prev_sse.max(1e-12) < cfg.tol;
        prev_sse = sse;
        if converged {
            break;
        }
    }
    // Final assignment + SSE against the last centroids.
    let (assignments, sse, _, _) = assign_pass(points, &centroids, dim, &pool);
    KMeansResult {
        assignments,
        centroids,
        sse,
        iterations,
    }
}

fn assignments_of(p: &[f32], centroids: &[Vec<f32>]) -> usize {
    nearest(p, centroids).0
}

fn nearest(p: &[f32], centroids: &[Vec<f32>]) -> (usize, f32) {
    let kern = kernel::active_kernel();
    let mut best = 0usize;
    let mut best_d = f32::INFINITY;
    for (c, cent) in centroids.iter().enumerate() {
        let d = kernel::sq_dist_with(kern, p, cent);
        if d < best_d {
            best_d = d;
            best = c;
        }
    }
    (best, best_d)
}

/// k-means++ seeding: first centroid uniform, then proportional to the
/// squared distance to the nearest chosen centroid.
fn plus_plus_init(points: &[Vec<f32>], k: usize, rng: &mut Pcg32) -> Vec<Vec<f32>> {
    let kern = kernel::active_kernel();
    let mut centroids = Vec::with_capacity(k);
    centroids.push(points[rng.below_usize(points.len())].clone());
    let mut d2: Vec<f64> = points
        .iter()
        .map(|p| kernel::sq_dist_with(kern, p, &centroids[0]) as f64)
        .collect();
    while centroids.len() < k {
        let total: f64 = d2.iter().sum();
        let next = if total <= 0.0 {
            // All points coincide with chosen centroids; pick uniformly.
            rng.below_usize(points.len())
        } else {
            rng.weighted(&d2)
        };
        centroids.push(points[next].clone());
        for (i, p) in points.iter().enumerate() {
            let d = kernel::sq_dist_with(kern, p, centroids.last().expect("just pushed")) as f64;
            if d < d2[i] {
                d2[i] = d;
            }
        }
    }
    centroids
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blobs(rng: &mut Pcg32, centers: &[(f32, f32)], n_per: usize, noise: f32) -> Vec<Vec<f32>> {
        let mut pts = Vec::new();
        for &(cx, cy) in centers {
            for _ in 0..n_per {
                pts.push(vec![cx + rng.normal() * noise, cy + rng.normal() * noise]);
            }
        }
        pts
    }

    #[test]
    fn kmeans_result_round_trips_through_json() {
        let mut rng = Pcg32::new(42);
        let pts = blobs(&mut rng, &[(0.0, 0.0), (6.0, 6.0)], 25, 0.4);
        let res = kmeans(
            &pts,
            &KMeansConfig {
                k: 2,
                ..Default::default()
            },
            &mut rng,
        );
        let json = serde_json::to_string(&res).unwrap();
        let back: KMeansResult = serde_json::from_str(&json).unwrap();
        assert_eq!(back.assignments, res.assignments);
        assert_eq!(back.centroids, res.centroids, "centroids are bit-exact");
        assert_eq!(back.iterations, res.iterations);
        assert_eq!(back.witnesses(&pts), res.witnesses(&pts));
    }

    #[test]
    fn recovers_well_separated_blobs() {
        let mut rng = Pcg32::new(1);
        let pts = blobs(&mut rng, &[(0.0, 0.0), (10.0, 10.0), (0.0, 10.0)], 40, 0.5);
        let res = kmeans(
            &pts,
            &KMeansConfig {
                k: 3,
                ..Default::default()
            },
            &mut rng,
        );
        // Each blob should be internally consistent.
        for blob in 0..3 {
            let first = res.assignments[blob * 40];
            let same = (0..40)
                .filter(|i| res.assignments[blob * 40 + i] == first)
                .count();
            assert!(same >= 39, "blob {blob} split: {same}/40");
        }
        assert_eq!(res.sizes().iter().sum::<usize>(), pts.len());
    }

    #[test]
    fn sse_decreases_with_k() {
        let mut rng = Pcg32::new(2);
        let pts = blobs(
            &mut rng,
            &[(0.0, 0.0), (5.0, 5.0), (9.0, 0.0), (0.0, 9.0)],
            30,
            0.8,
        );
        let mut last = f64::INFINITY;
        for k in [1usize, 2, 4, 8] {
            let res = kmeans(
                &pts,
                &KMeansConfig {
                    k,
                    ..Default::default()
                },
                &mut Pcg32::new(3),
            );
            assert!(
                res.sse <= last * 1.02,
                "sse should be (weakly) decreasing in k: k={k} sse={} last={last}",
                res.sse
            );
            last = res.sse;
        }
    }

    #[test]
    fn k1_centroid_is_the_mean() {
        let pts = vec![
            vec![0.0, 0.0],
            vec![2.0, 0.0],
            vec![0.0, 2.0],
            vec![2.0, 2.0],
        ];
        let res = kmeans(
            &pts,
            &KMeansConfig {
                k: 1,
                ..Default::default()
            },
            &mut Pcg32::new(4),
        );
        assert!((res.centroids[0][0] - 1.0).abs() < 1e-5);
        assert!((res.centroids[0][1] - 1.0).abs() < 1e-5);
        assert!((res.sse - 8.0).abs() < 1e-4);
    }

    #[test]
    fn k_clamped_to_n_points() {
        let pts = vec![vec![0.0], vec![1.0]];
        let res = kmeans(
            &pts,
            &KMeansConfig {
                k: 10,
                ..Default::default()
            },
            &mut Pcg32::new(5),
        );
        assert_eq!(res.centroids.len(), 2);
        assert!(res.sse < 1e-9);
    }

    #[test]
    fn witnesses_are_valid_and_near_centroids() {
        let mut rng = Pcg32::new(6);
        let pts = blobs(&mut rng, &[(0.0, 0.0), (8.0, 8.0)], 25, 0.5);
        let res = kmeans(
            &pts,
            &KMeansConfig {
                k: 2,
                ..Default::default()
            },
            &mut rng,
        );
        let w = res.witnesses(&pts);
        assert_eq!(w.len(), 2);
        for (c, &wi) in w.iter().enumerate() {
            assert!(wi < pts.len());
            // The witness's own assignment is its centroid's cluster.
            assert_eq!(res.assignments[wi], c);
        }
    }

    #[test]
    fn identical_points_do_not_diverge() {
        let pts = vec![vec![3.0, 3.0]; 20];
        let res = kmeans(
            &pts,
            &KMeansConfig {
                k: 4,
                ..Default::default()
            },
            &mut Pcg32::new(7),
        );
        assert!(res.sse < 1e-9);
        assert!(res.centroids.iter().all(|c| c[0] == 3.0 && c[1] == 3.0));
    }

    #[test]
    fn deterministic_under_seed() {
        let mut rng = Pcg32::new(8);
        let pts = blobs(&mut rng, &[(0.0, 0.0), (6.0, 6.0)], 30, 1.0);
        let r1 = kmeans(
            &pts,
            &KMeansConfig {
                k: 2,
                ..Default::default()
            },
            &mut Pcg32::new(9),
        );
        let r2 = kmeans(
            &pts,
            &KMeansConfig {
                k: 2,
                ..Default::default()
            },
            &mut Pcg32::new(9),
        );
        assert_eq!(r1.assignments, r2.assignments);
        assert_eq!(r1.sse, r2.sse);
    }

    #[test]
    #[should_panic(expected = "empty input")]
    fn empty_input_panics() {
        kmeans(&[], &KMeansConfig::default(), &mut Pcg32::new(10));
    }

    #[test]
    fn nearest_centroid_contract() {
        let cents = vec![vec![0.0, 0.0], vec![5.0, 5.0], vec![5.0, 5.0]];
        // Nearest by distance.
        assert_eq!(try_nearest_centroid(&[4.9, 5.2], &cents), Some(1));
        assert_eq!(try_nearest_centroid(&[0.1, -0.1], &cents), Some(0));
        // Duplicate centroids tie → lowest index, deterministically.
        assert_eq!(try_nearest_centroid(&[6.0, 6.0], &cents), Some(1));
        // Empty set: an explicit None.
        assert_eq!(try_nearest_centroid(&[1.0], &[]), None);
        // NaN point: no panic, a deterministic (first) index comes back.
        assert_eq!(try_nearest_centroid(&[f32::NAN, 0.0], &cents), Some(0));
    }
}
