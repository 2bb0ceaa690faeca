//! Workload summarization for index recommendation (paper §5.1).
//!
//! The Querc pipeline: embed every query, pick K with the elbow method,
//! run K-means, and keep the query nearest each centroid ("witnesses") as
//! the compressed workload handed to the tuning advisor. The
//! [`SummarizeApp`] serves the same clustering per query as one
//! configuration of [`ClusterApp`].
//!
//! Two classical comparators are provided for the ablation benches:
//! K-medoids over hand-engineered syntactic features (the Chaudhuri-style
//! approach the paper argues requires per-workload distance engineering)
//! and uniform random sampling (what a tuning advisor's native compressor
//! does).

use super::cluster::{kmeans_witnesses, ClusterApp, ClusterSpec};
use querc_cluster::choose_k_elbow;
use querc_embed::Embedder;
use querc_linalg::Pcg32;
use querc_sql::features::feature_vector;
use querc_sql::Dialect;
use std::sync::Arc;

/// How to compress the workload.
pub enum SummaryMethod<'a> {
    /// Learned embeddings + K-means + elbow (the paper's method).
    Embedding(&'a dyn Embedder),
    /// K-medoids over fixed syntactic features (classical baseline).
    SyntacticKMedoids,
    /// Uniform random sample (native-advisor strawman).
    RandomSample,
}

/// Summarization knobs.
#[derive(Debug, Clone)]
pub struct SummaryConfig {
    /// Fix K instead of running the elbow scan.
    pub k: Option<usize>,
    /// Elbow scan lower bound (used when `k` is None).
    pub k_min: usize,
    /// Elbow scan upper bound (used when `k` is None).
    pub k_max: usize,
    /// Elbow plateau threshold (relative gain vs initial SSE).
    pub plateau: f64,
    /// RNG seed for k-means initialization and sampling.
    pub seed: u64,
}

impl Default for SummaryConfig {
    fn default() -> Self {
        SummaryConfig {
            k: None,
            k_min: 4,
            k_max: 40,
            plateau: 0.01,
            seed: 0x5a11,
        }
    }
}

/// Compress `sqls` to a witness subset; returns indices into `sqls`.
pub fn summarize_workload(
    sqls: &[&str],
    method: &SummaryMethod<'_>,
    cfg: &SummaryConfig,
) -> Vec<usize> {
    if sqls.is_empty() {
        return Vec::new();
    }
    let mut rng = Pcg32::with_stream(cfg.seed, SUMMARIZE.stream);
    match method {
        SummaryMethod::Embedding(embedder) => {
            let points: Vec<Vec<f32>> = sqls.iter().map(|s| embedder.embed_sql(s)).collect();
            dedup_witnesses(kmeans_witnesses(&points, cfg, &mut rng).1)
        }
        SummaryMethod::SyntacticKMedoids => {
            let points: Vec<Vec<f32>> = sqls
                .iter()
                .map(|s| feature_vector(s, Dialect::Generic))
                .collect();
            let k = effective_k(cfg, &points, &mut rng);
            let res = querc_cluster::kmedoids::kmedoids_euclidean(&points, k, &mut rng);
            dedup_witnesses(res.medoids)
        }
        SummaryMethod::RandomSample => {
            let k = cfg.k.unwrap_or(cfg.k_max).min(sqls.len());
            rng.sample_indices(sqls.len(), k)
        }
    }
}

pub(super) fn effective_k(cfg: &SummaryConfig, points: &[Vec<f32>], rng: &mut Pcg32) -> usize {
    match cfg.k {
        Some(k) => k.min(points.len()),
        None => choose_k_elbow(
            points,
            cfg.k_min.min(points.len().max(1)),
            cfg.k_max.min(points.len()),
            cfg.plateau,
            rng,
        ),
    }
}

fn dedup_witnesses(mut w: Vec<usize>) -> Vec<usize> {
    w.sort_unstable();
    w.dedup();
    w
}

pub(super) const SUMMARIZE: ClusterSpec = ClusterSpec {
    name: "summarize",
    task: "compress the workload to cluster witnesses for index tuning",
    keys: ("summary_cluster", "summary_witness"),
    k: None,
    seed: 0x5a11,
    stream: 0x5a12,
    sessions: None,
};

/// [`summarize_workload`]'s clustering as a [`ClusterApp`]: `fit`
/// clusters the training workload and keeps per-cluster witnesses;
/// `label_batch` labels each query's `summary_cluster` and that
/// cluster's `summary_witness` (what the tuning advisor would see in
/// the compressed workload).
pub struct SummarizeApp;

impl SummarizeApp {
    /// The summarization app over `embedder` with the default elbow scan.
    #[allow(clippy::new_ret_no_self)] // both configurations are one type, `ClusterApp`
    pub fn new(embedder: Arc<dyn Embedder>) -> ClusterApp {
        ClusterApp::new(&SUMMARIZE, embedder)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apps::{TrainCorpus, WorkloadApp};
    use crate::enriched::EnrichedQuery;
    use querc_embed::BagOfTokens;

    fn mixed_workload() -> Vec<String> {
        let mut sqls = Vec::new();
        for i in 0..25 {
            sqls.push(format!(
                "select c{}, sum(v) from sales_orders where d > {} group by c{}",
                i % 3,
                i,
                i % 3
            ));
            sqls.push(format!("insert into raw_events values ({i}, 'x')"));
            sqls.push(format!("select * from users where user_id = {i}"));
        }
        sqls
    }

    #[test]
    fn embedding_summary_covers_query_families() {
        let sqls = mixed_workload();
        let refs: Vec<&str> = sqls.iter().map(String::as_str).collect();
        let embedder = BagOfTokens::new(128, true);
        let cfg = SummaryConfig {
            k: Some(6),
            ..Default::default()
        };
        let witnesses = summarize_workload(&refs, &SummaryMethod::Embedding(&embedder), &cfg);
        assert!(!witnesses.is_empty() && witnesses.len() <= 6);
        // The witnesses must span all three families.
        let kinds: std::collections::HashSet<&str> = witnesses
            .iter()
            .map(|&i| {
                if refs[i].starts_with("insert") {
                    "insert"
                } else if refs[i].contains("group by") {
                    "agg"
                } else {
                    "lookup"
                }
            })
            .collect();
        assert_eq!(kinds.len(), 3, "summary misses a family: {witnesses:?}");
    }

    #[test]
    fn syntactic_kmedoids_also_covers_families() {
        let sqls = mixed_workload();
        let refs: Vec<&str> = sqls.iter().map(String::as_str).collect();
        let cfg = SummaryConfig {
            k: Some(6),
            ..Default::default()
        };
        let witnesses = summarize_workload(&refs, &SummaryMethod::SyntacticKMedoids, &cfg);
        assert!(!witnesses.is_empty() && witnesses.len() <= 6);
    }

    #[test]
    fn random_sample_has_requested_size() {
        let sqls = mixed_workload();
        let refs: Vec<&str> = sqls.iter().map(String::as_str).collect();
        let cfg = SummaryConfig {
            k: Some(10),
            ..Default::default()
        };
        let w = summarize_workload(&refs, &SummaryMethod::RandomSample, &cfg);
        assert_eq!(w.len(), 10);
        assert!(w.iter().all(|&i| i < refs.len()));
    }

    #[test]
    fn elbow_mode_picks_small_k_for_three_families() {
        let sqls = mixed_workload();
        let refs: Vec<&str> = sqls.iter().map(String::as_str).collect();
        let embedder = BagOfTokens::new(128, true);
        let cfg = SummaryConfig {
            k: None,
            k_min: 2,
            k_max: 15,
            plateau: 0.05,
            ..Default::default()
        };
        let w = summarize_workload(&refs, &SummaryMethod::Embedding(&embedder), &cfg);
        assert!(
            (2..=15).contains(&w.len()),
            "elbow K out of range: {}",
            w.len()
        );
    }

    #[test]
    fn summarize_app_implements_workload_app() {
        use querc_workloads::QueryRecord;
        let sqls = mixed_workload();
        let records: Vec<QueryRecord> = sqls
            .iter()
            .enumerate()
            .map(|(i, sql)| QueryRecord {
                sql: sql.clone(),
                user: "u".into(),
                account: "a".into(),
                cluster: "c".into(),
                dialect: "generic".into(),
                runtime_ms: 1.0,
                mem_mb: 1.0,
                error_code: None,
                timestamp: i as u64,
            })
            .collect();
        let corpus = TrainCorpus::from_records(records, 11);
        let app =
            SummarizeApp::new(Arc::new(BagOfTokens::new(128, true))).with_config(SummaryConfig {
                k: Some(6),
                ..Default::default()
            });
        let model = app.fit(&corpus).unwrap();
        let report = app.report(&model);
        assert_eq!(report.detail[1], ("clusters".to_string(), "6".to_string()));
        let out = app
            .label_batch(
                &model,
                &[
                    EnrichedQuery::from_sql("insert into raw_events values (99, 'x')"),
                    EnrichedQuery::from_sql("select * from users where user_id = 99"),
                ],
            )
            .unwrap();
        assert!(out[0].get("summary_cluster").is_some());
        assert!(out[0].get("summary_witness").is_some());
        // Distinct query families land in distinct summary clusters.
        assert_ne!(
            out[0].get("summary_cluster"),
            out[1].get("summary_cluster"),
            "insert and lookup should not share a cluster"
        );
        assert_eq!(report.app, "summarize");
    }

    #[test]
    fn model_round_trips_through_save_load() {
        use querc_workloads::QueryRecord;
        let records: Vec<QueryRecord> = mixed_workload()
            .iter()
            .enumerate()
            .map(|(i, sql)| QueryRecord {
                sql: sql.clone(),
                user: "u".into(),
                account: "a".into(),
                cluster: "c".into(),
                dialect: "generic".into(),
                runtime_ms: 1.0,
                mem_mb: 1.0,
                error_code: None,
                timestamp: i as u64,
            })
            .collect();
        let corpus = TrainCorpus::from_records(records, 11);
        let app =
            SummarizeApp::new(Arc::new(BagOfTokens::new(128, true))).with_config(SummaryConfig {
                k: Some(6),
                ..Default::default()
            });
        let model = app.fit(&corpus).unwrap();
        let json = app.save_model(&model).expect("centroids are persistable");
        let restored = app.load_model(&json).unwrap();
        let batch: Vec<EnrichedQuery> = [
            "insert into raw_events values (99, 'x')",
            "select * from users where user_id = 99",
            "select c1, sum(v) from sales_orders where d > 9 group by c1",
        ]
        .iter()
        .map(|s| EnrichedQuery::from_sql(*s))
        .collect();
        assert_eq!(
            app.label_batch(&model, &batch).unwrap(),
            app.label_batch(&restored, &batch).unwrap()
        );
        assert_eq!(app.report(&restored), app.report(&model));
    }

    #[test]
    fn empty_workload() {
        let embedder = BagOfTokens::new(16, false);
        let w = summarize_workload(
            &[],
            &SummaryMethod::Embedding(&embedder),
            &SummaryConfig::default(),
        );
        assert!(w.is_empty());
    }

    #[test]
    fn deterministic_under_seed() {
        let sqls = mixed_workload();
        let refs: Vec<&str> = sqls.iter().map(String::as_str).collect();
        let embedder = BagOfTokens::new(64, true);
        let cfg = SummaryConfig {
            k: Some(5),
            ..Default::default()
        };
        let a = summarize_workload(&refs, &SummaryMethod::Embedding(&embedder), &cfg);
        let b = summarize_workload(&refs, &SummaryMethod::Embedding(&embedder), &cfg);
        assert_eq!(a, b);
    }
}
