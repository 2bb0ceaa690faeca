//! Standalone timings of each layer's public functions over the
//! workload's own inputs (traced runs only). These are the numbers a
//! change to one layer should move first; the spans of the serving
//! sections say how much of the end-to-end time that layer had.

use crate::report::Metrics;
use crate::stack::{Inputs, Stack};
use querc::qos::QosState;
use querc::{
    DrrScheduler, EmbedPlane, EmbedPlaneConfig, EnrichedQuery, LabeledQuery, QosConfig, RateLimit,
};
use querc_cluster::{kmeans, KMeansConfig};
use querc_embed::Embedder;
use querc_index::{FlatIndex, Metric, Sq8Config, Sq8Index, VectorIndex};
use querc_linalg::{kernel, Pcg32};
use std::hint::black_box;
use std::time::Instant;

/// Documents, vectors or queries a standalone timing samples.
const SAMPLE: usize = 256;
/// Rows of the standalone index and k-means inputs.
const INDEX_ROWS: usize = 4096;

/// Seconds per call of `f`, over at least 20 ms and 3 calls.
fn secs_per_call(mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    let mut calls = 0u32;
    while calls < 3 || start.elapsed().as_secs_f64() < 0.02 {
        f();
        calls += 1;
    }
    start.elapsed().as_secs_f64() / f64::from(calls)
}

/// An embedder that does no work, so `EmbedPlane::enrich_batch`'s miss
/// path is timed for its own part: dedupe, insert, evict.
struct ZeroEmbedder(usize);

impl Embedder for ZeroEmbedder {
    fn dim(&self) -> usize {
        self.0
    }
    fn embed(&self, _tokens: &[String]) -> Vec<f32> {
        vec![0.0; self.0]
    }
    fn name(&self) -> &'static str {
        "zero"
    }
}

fn sql_layer(m: &mut Metrics, sqls: &[&str]) {
    let n = sqls.len().max(1) as f64;
    let lex_s = secs_per_call(|| {
        for sql in sqls {
            black_box(querc_embed::sql_tokens(black_box(sql)));
        }
    });
    let tokens: Vec<Vec<String>> = sqls.iter().map(|s| querc_embed::sql_tokens(s)).collect();
    let fp_s = secs_per_call(|| {
        for t in &tokens {
            black_box(querc_sql::fingerprint_tokens(black_box(t)));
        }
    });
    m.put("sql.lex_ns_per_query", lex_s * 1e9 / n);
    m.put("sql.fingerprint_ns_per_query", fp_s * 1e9 / n);
    m.put(
        "sql.tokens_per_query",
        tokens.iter().map(Vec::len).sum::<usize>() as f64 / n,
    );
}

fn embed_plane_layer(m: &mut Metrics, sqls: &[&str], dim: usize) {
    let embedder = ZeroEmbedder(dim);
    // Queries arrive already lexed and fingerprinted (memoized), so only
    // the plane's own work is inside the timed call.
    let fresh = || -> Vec<EnrichedQuery> {
        sqls.iter()
            .map(|s| {
                let q = EnrichedQuery::new(LabeledQuery::new(*s));
                q.fingerprint();
                q
            })
            .collect()
    };
    let n = sqls.len().max(1) as f64;
    let time = |capacity: usize, prefill: bool| -> f64 {
        // Untimed preparation (a new plane, freshly lexed queries) is most
        // of an iteration, so the loop is bounded by its own wall time.
        let started = Instant::now();
        let mut total = 0.0;
        let mut calls = 0u32;
        while calls < 3 || started.elapsed().as_secs_f64() < 0.05 {
            let plane = EmbedPlane::new(&EmbedPlaneConfig {
                capacity,
                ..Default::default()
            });
            if prefill {
                plane.enrich_batch(&embedder, &mut fresh());
            }
            let mut batch = fresh();
            let t = Instant::now();
            black_box(plane.enrich_batch(&embedder, &mut batch));
            total += t.elapsed().as_secs_f64();
            calls += 1;
        }
        total / f64::from(calls)
    };
    m.put(
        "embed_plane.enrich_hit_ns_per_query",
        time(sqls.len().max(1), true) * 1e9 / n,
    );
    // A quarter of the batch fits: three inserts in four evict.
    m.put(
        "embed_plane.enrich_miss_ns_per_query",
        time((sqls.len() / 4).max(1), false) * 1e9 / n,
    );
}

fn qos_layer(m: &mut Metrics, tenants: &[String]) {
    if tenants.is_empty() {
        m.put("qos.admit_ns", 0.0);
        m.put("qos.drr_ns_per_item", 0.0);
        return;
    }
    let state = QosState::new(&QosConfig {
        enabled: true,
        default_rate: Some(RateLimit {
            rate_per_sec: 1e9,
            burst: 1e9,
        }),
        max_pending_per_tenant: 0,
        ..Default::default()
    });
    let n = tenants.len() as f64;
    let admit_s = secs_per_call(|| {
        let now = Instant::now();
        for t in tenants {
            black_box(state.admit_at(t, now).is_ok());
        }
    });
    let drr_s = secs_per_call(|| {
        let mut sched: DrrScheduler<u32> = DrrScheduler::new(8);
        for (i, t) in tenants.iter().enumerate() {
            sched.enqueue(t, 1, i as u32);
        }
        while !sched.is_empty() {
            black_box(sched.dequeue_chunk(32));
        }
    });
    m.put("qos.admit_ns", admit_s * 1e9 / n);
    m.put("qos.drr_ns_per_item", drr_s * 1e9 / n);
}

fn index_layer(m: &mut Metrics, rows: &[Vec<f32>]) {
    let probes: Vec<&[f32]> = rows
        .iter()
        .step_by(16)
        .take(SAMPLE)
        .map(Vec::as_slice)
        .collect();
    let n = probes.len().max(1) as f64;
    let flat = FlatIndex::from_rows(rows, Metric::Cosine);
    let ivfsq8 = Sq8Index::from_rows(
        rows,
        Metric::Cosine,
        &Sq8Config {
            nlist: Sq8Config::AUTO_NLIST,
            ..Default::default()
        },
    );
    let flat_s = secs_per_call(|| {
        black_box(flat.search_batch(&probes, 10));
    });
    let ivf_s = secs_per_call(|| {
        black_box(ivfsq8.search_batch(&probes, 10));
    });
    let truth = flat.search_batch(&probes, 10);
    let got = ivfsq8.search_batch(&probes, 10);
    let recall: f64 = truth
        .iter()
        .zip(&got)
        .map(|(t, g)| {
            t.iter().filter(|h| g.iter().any(|x| x.0 == h.0)).count() as f64 / t.len().max(1) as f64
        })
        .sum::<f64>()
        / n;
    m.put("index.flat_search_us_per_query", flat_s * 1e6 / n);
    m.put("index.ivfsq8_search_us_per_query", ivf_s * 1e6 / n);
    m.put("index.ivfsq8_recall_at_10", recall);
}

fn linalg_layer(m: &mut Metrics, rows: &[Vec<f32>]) {
    let dim = rows.first().map_or(1, Vec::len);
    let block: Vec<f32> = rows.iter().take(1024).flatten().copied().collect();
    let n_rows = block.len() / dim;
    let q = rows.first().cloned().unwrap_or_else(|| vec![0.0; dim]);
    let mut out = vec![0.0f32; n_rows];
    let cos_s = secs_per_call(|| {
        kernel::cosine_dist_block(black_box(&q), black_box(&block), dim, &mut out);
        black_box(&out);
    });
    let sq_s = secs_per_call(|| {
        kernel::sq_dist_block(black_box(&q), black_box(&block), dim, &mut out);
        black_box(&out);
    });
    let dot_s = secs_per_call(|| {
        for r in block.chunks_exact(dim) {
            black_box(kernel::dot(black_box(&q), black_box(r)));
        }
    });
    // C[64×dim] = A[64×dim] · B[dim×dim] at the workload's dimension.
    let (gm, gk, gn) = (64usize, dim, dim);
    let a: Vec<f32> = block.iter().cycle().take(gm * gk).copied().collect();
    let b: Vec<f32> = block.iter().rev().cycle().take(gk * gn).copied().collect();
    let mut c = vec![0.0f32; gm * gn];
    let gemm_s = secs_per_call(|| {
        c.fill(0.0);
        kernel::gemm(black_box(&a), black_box(&b), &mut c, gm, gk, gn);
        black_box(&c);
    });
    let per_row = n_rows.max(1) as f64;
    m.put("linalg.cosine_block_ns_per_row", cos_s * 1e9 / per_row);
    m.put("linalg.sq_dist_block_ns_per_row", sq_s * 1e9 / per_row);
    m.put("linalg.dot_ns", dot_s * 1e9 / per_row);
    m.put(
        "linalg.gemm_gflops",
        2.0 * (gm * gk * gn) as f64 / gemm_s / 1e9,
    );
    m.put(
        "linalg.pool_threads",
        querc_linalg::pool::training_threads() as f64,
    );
}

/// Time every layer standalone and record the `sql.*`,
/// `embed.infer_us_per_doc`, `embed_plane.enrich_*`, `qos.admit_ns`,
/// `qos.drr_ns_per_item`, `cluster.*`, `index.*search*`, `index.*recall*`
/// and `linalg.*` metrics. `tenants` are the workload's tenant names
/// (empty when QoS is off).
pub fn standalone(m: &mut Metrics, stack: &Stack, inputs: &Inputs, tenants: &[String]) {
    let sqls: Vec<&str> = inputs
        .replay
        .iter()
        .take(SAMPLE)
        .map(|r| r.sql.as_str())
        .collect();
    sql_layer(m, &sqls);

    let docs: Vec<Vec<String>> = sqls.iter().map(|s| querc_embed::sql_tokens(s)).collect();
    let infer_s = secs_per_call(|| {
        black_box(stack.embedder.embed_batch(black_box(&docs)));
    });
    m.put(
        "embed.infer_us_per_doc",
        infer_s * 1e6 / docs.len().max(1) as f64,
    );

    embed_plane_layer(m, &sqls, stack.embedder.dim());
    qos_layer(m, tenants);

    // The vectors the workload's own index holds: the kNN rows, or the
    // embedded training window the apps cluster.
    let rows: Vec<Vec<f32>> = match &stack.knn {
        Some(knn) => knn.vectors().iter().take(INDEX_ROWS).cloned().collect(),
        None => {
            let docs: Vec<Vec<String>> = inputs
                .train
                .iter()
                .take(INDEX_ROWS)
                .map(|r| r.tokens())
                .collect();
            stack.embedder.embed_batch(&docs)
        }
    };
    let t = Instant::now();
    black_box(kmeans(
        &rows,
        &KMeansConfig {
            k: 8,
            ..Default::default()
        },
        &mut Pcg32::new(0x5eed),
    ));
    m.put("cluster.kmeans_fit_s", t.elapsed().as_secs_f64());
    index_layer(m, &rows);
    linalg_layer(m, &rows);
}
