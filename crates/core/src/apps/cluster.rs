//! One clustering app, two configurations.
//!
//! `recommend` and `summarize` are one program: embed the training
//! queries session by session, pick k and run k-means, take the query
//! nearest each centroid as its witness, and label each query with its
//! nearest centroid plus one SQL string from a per-cluster table. A
//! constant `ClusterSpec` in each app's module ([`super::recommend`],
//! [`super::summarize`]) holds what differs.

use super::summarize::{effective_k, SummaryConfig};
use super::{AppOutput, AppReport, TrainCorpus, WorkloadApp};
use crate::enriched::EnrichedQuery;
use crate::error::{QuercError, Result};
use querc_cluster::{kmeans, KMeansConfig, KMeansResult};
use querc_embed::Embedder;
use querc_index::{FlatIndex, IndexStats, Metric, VectorIndex};
use querc_linalg::Pcg32;
use querc_workloads::QueryRecord;
use std::sync::Arc;

/// Groups training records into ordered sessions of record indices.
pub(super) type Sessions = fn(&[QueryRecord]) -> Vec<Vec<usize>>;

/// The constants that make a [`ClusterApp`] one app.
pub(super) struct ClusterSpec {
    pub(super) name: &'static str,
    pub(super) task: &'static str,
    /// The `(cluster id, SQL)` label keys written per query.
    pub(super) keys: (&'static str, &'static str),
    /// Default [`SummaryConfig::k`].
    pub(super) k: Option<usize>,
    /// Default [`SummaryConfig::seed`].
    pub(super) seed: u64,
    /// The k-means RNG is `Pcg32::with_stream(corpus.seed ^ cfg.seed, stream)`.
    pub(super) stream: u64,
    /// `Some(sessions)`: the training records grouped into ordered
    /// sessions, and `table[c]` is the witness of the cluster that most
    /// often follows `c` within a session. `None`: one session, the
    /// records in order, and `table[c]` is `c`'s own witness.
    pub(super) sessions: Option<Sessions>,
}

/// A clustering app: one app's constant settings over one embedder.
pub struct ClusterApp {
    spec: &'static ClusterSpec,
    embedder: Arc<dyn Embedder>,
    cfg: SummaryConfig,
}

impl ClusterApp {
    pub(super) fn new(spec: &'static ClusterSpec, embedder: Arc<dyn Embedder>) -> ClusterApp {
        ClusterApp {
            spec,
            embedder,
            cfg: SummaryConfig {
                k: spec.k,
                seed: spec.seed,
                ..SummaryConfig::default()
            },
        }
    }

    /// Fix the number of clusters (≥ 1) instead of the elbow scan.
    pub fn with_clusters(mut self, k: usize) -> ClusterApp {
        self.cfg.k = Some(k.max(1));
        self
    }

    /// Override the clustering configuration.
    pub fn with_config(mut self, cfg: SummaryConfig) -> ClusterApp {
        self.cfg = cfg;
        self
    }
}

/// A fitted [`ClusterApp`] model: the centroids, one SQL string per
/// cluster, and the app that fitted it.
pub struct ClusterModel {
    app: &'static str,
    /// Exact index over the centroids; serving assigns each query's
    /// vector with a k=1 search.
    centroids: FlatIndex,
    /// The SQL labeled for each cluster (see [`ClusterSpec::sessions`]).
    table: Vec<String>,
    trained_queries: usize,
}

/// Pick k by `cfg`, run k-means, and return the result with each
/// cluster's witness: the index of the point nearest its centroid.
pub(super) fn kmeans_witnesses(
    points: &[Vec<f32>],
    cfg: &SummaryConfig,
    rng: &mut Pcg32,
) -> (KMeansResult, Vec<usize>) {
    let k = effective_k(cfg, points, rng);
    let result = kmeans(
        points,
        &KMeansConfig {
            k,
            ..Default::default()
        },
        rng,
    );
    let witnesses = result.witnesses(points);
    (result, witnesses)
}

impl WorkloadApp for ClusterApp {
    type Model = ClusterModel;

    fn name(&self) -> &'static str {
        self.spec.name
    }

    fn task(&self) -> &'static str {
        self.spec.task
    }

    fn fit(&self, corpus: &TrainCorpus) -> Result<ClusterModel> {
        corpus.require_records(self.spec.name)?;
        let records = &corpus.records;
        let sessions = match self.spec.sessions {
            Some(group) => group(records),
            None => vec![(0..records.len()).collect()],
        };
        let order = sessions.concat();
        let docs: Vec<Vec<String>> = order.iter().map(|&i| records[i].tokens()).collect();
        let points = self.embedder.embed_batch(&docs);
        let mut rng = Pcg32::with_stream(corpus.seed ^ self.cfg.seed, self.spec.stream);
        let (result, witnesses) = kmeans_witnesses(&points, &self.cfg, &mut rng);
        let sql = |point: usize| records[order[point]].sql.clone();
        let table = if self.spec.sessions.is_none() {
            witnesses.iter().map(|&w| sql(w)).collect()
        } else {
            let k = result.centroids.len();
            let mut counts = vec![vec![0usize; k]; k];
            let mut at = 0;
            for session in &sessions {
                for w in result.assignments[at..at + session.len()].windows(2) {
                    counts[w[0]][w[1]] += 1;
                }
                at += session.len();
            }
            // `max_by_key` keeps the last of tied maxima, so a cluster
            // no transition leaves maps to cluster k-1.
            counts
                .iter()
                .map(|row| sql(witnesses[(0..k).max_by_key(|&to| row[to]).unwrap_or(0)]))
                .collect()
        };
        Ok(ClusterModel {
            app: self.spec.name,
            centroids: FlatIndex::from_rows(&result.centroids, Metric::Euclidean),
            table,
            trained_queries: corpus.len(),
        })
    }

    fn label_batch(&self, model: &ClusterModel, batch: &[EnrichedQuery]) -> Result<Vec<AppOutput>> {
        if model.app != self.spec.name {
            return Err(QuercError::ModelTypeMismatch {
                app: self.spec.name.to_string(),
            });
        }
        let vectors = EnrichedQuery::vectors(batch, self.embedder.as_ref());
        let refs: Vec<&[f32]> = vectors.iter().map(|v| v.as_slice()).collect();
        let dim = model.centroids.dim();
        if let Some(v) = refs.iter().find(|v| v.len() != dim) {
            return Err(QuercError::DimensionMismatch {
                context: self.spec.name,
                expected: dim,
                got: v.len(),
            });
        }
        let (cluster_key, sql_key) = self.spec.keys;
        // One batched k=1 search over the centroid index for the chunk.
        Ok(model
            .centroids
            .nearest_batch(&refs)
            .into_iter()
            .map(|c| {
                let cluster = c.unwrap_or(0) as usize;
                let mut out = AppOutput::new();
                out.set(cluster_key, cluster.to_string());
                out.set(sql_key, model.table[cluster].clone());
                out
            })
            .collect())
    }

    fn embedder(&self) -> Option<Arc<dyn Embedder>> {
        Some(Arc::clone(&self.embedder))
    }

    fn index_stats(&self, model: &ClusterModel) -> Option<IndexStats> {
        Some(model.centroids.stats())
    }

    fn report(&self, model: &ClusterModel) -> AppReport {
        AppReport {
            app: self.spec.name.to_string(),
            task: self.spec.task.to_string(),
            trained_queries: model.trained_queries,
            detail: vec![
                ("embedder".to_string(), self.embedder.name().to_string()),
                ("clusters".to_string(), model.centroids.len().to_string()),
            ],
        }
    }

    fn save_model(&self, model: &ClusterModel) -> Option<String> {
        let store = model.centroids.store();
        crate::persist::to_json(&ClusterState {
            dim: store.dim(),
            centroids: store.iter().flatten().copied().collect(),
            table: model.table.clone(),
            trained_queries: model.trained_queries,
        })
    }

    fn load_model(&self, json: &str) -> Result<ClusterModel> {
        let (name, want) = (self.spec.name, self.embedder.dim());
        let state: ClusterState = crate::persist::from_json(json, name)?;
        let (dim, flat) = (state.dim, &state.centroids);
        if dim == 0 || dim != want {
            return Err(crate::persist::corrupt(format!(
                "{name} model centroids have dim {dim} but embedder has dim {want}"
            )));
        }
        if flat.is_empty() || !flat.len().is_multiple_of(dim) {
            return Err(crate::persist::corrupt(format!(
                "{name} model centroid matrix has {} floats, not a positive multiple of dim {dim}",
                flat.len()
            )));
        }
        let rows: Vec<Vec<f32>> = flat.chunks_exact(dim).map(<[f32]>::to_vec).collect();
        // label_batch indexes the table by centroid id unchecked.
        if state.table.len() != rows.len() {
            return Err(crate::persist::corrupt(format!(
                "{name} model has {} table rows for {} centroids",
                state.table.len(),
                rows.len()
            )));
        }
        Ok(ClusterModel {
            app: name,
            centroids: FlatIndex::from_rows(&rows, Metric::Euclidean),
            table: state.table,
            trained_queries: state.trained_queries,
        })
    }
}

/// Serialized form of a [`ClusterModel`]: the centroid rows flattened
/// row-major (`dim` floats each), the per-cluster SQL table and the
/// training size. The app's name is the snapshot section's.
#[derive(serde::Serialize, serde::Deserialize)]
struct ClusterState {
    dim: usize,
    centroids: Vec<f32>,
    table: Vec<String>,
    trained_queries: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apps::{DynWorkloadApp, RecommendApp, SummarizeApp};
    use querc_embed::BagOfTokens;

    /// Both configurations over one embedder width.
    fn apps(dim: usize) -> [ClusterApp; 2] {
        let e: Arc<dyn Embedder> = Arc::new(BagOfTokens::new(dim, true));
        [
            RecommendApp::new(Arc::clone(&e)).with_clusters(3),
            SummarizeApp::new(e).with_clusters(3),
        ]
    }

    /// Three query shapes across two users.
    fn corpus() -> TrainCorpus {
        let shapes = [
            "select v from kv_store where k = {i}",
            "select g, count(*) from mid_table where t > {i} group by g",
            "insert into lake_events select * from staging_{i}",
        ];
        let records = (0..30u64)
            .map(|i| QueryRecord {
                sql: shapes[i as usize % 3].replace("{i}", &i.to_string()),
                user: format!("u{}", i % 2),
                account: "a".into(),
                cluster: "c".into(),
                dialect: "generic".into(),
                runtime_ms: 1.0,
                mem_mb: 1.0,
                error_code: None,
                timestamp: i,
            })
            .collect();
        TrainCorpus::from_records(records, 5)
    }

    fn batch() -> Vec<EnrichedQuery> {
        ["select v from kv_store where k = 99", "select 1"]
            .iter()
            .map(|s| EnrichedQuery::from_sql(*s))
            .collect()
    }

    #[test]
    fn both_apps_round_trip_and_refuse_bad_payloads() {
        let (corpus, batch) = (corpus(), batch());
        for (app, narrow) in apps(64).into_iter().zip(apps(8)) {
            let model = app.fit(&corpus).unwrap();
            let json = app.save_model(&model).expect("centroids are persistable");
            let restored = app.load_model(&json).unwrap();
            assert_eq!(
                app.label_batch(&restored, &batch).unwrap(),
                app.label_batch(&model, &batch).unwrap()
            );
            assert_eq!(app.report(&restored), app.report(&model));
            // A short table would index-panic at label time.
            let mut state: ClusterState = crate::persist::from_json(&json, "t").unwrap();
            state.table.pop();
            let short = crate::persist::to_json(&state).unwrap();
            for bad in [
                narrow.load_model(&json),
                app.load_model(&short),
                app.load_model("{broken"),
            ] {
                assert!(
                    matches!(bad, Err(QuercError::Corrupt { .. })),
                    "{}",
                    app.spec.name
                );
            }
            assert!(matches!(
                app.fit(&TrainCorpus::default()),
                Err(QuercError::EmptyCorpus { context }) if context == app.spec.name
            ));
        }
    }

    #[test]
    fn a_chunk_of_the_wrong_dimension_is_an_error_not_a_panic() {
        let corpus = corpus();
        for app in apps(64) {
            let model = app.fit(&corpus).unwrap();
            let mut q = EnrichedQuery::from_sql("select 1");
            q.set_vector(app.embedder.cache_namespace(), Arc::new(vec![0.0; 3]));
            assert!(matches!(
                app.label_batch(&model, &[q]),
                Err(QuercError::DimensionMismatch {
                    expected: 64,
                    got: 3,
                    ..
                })
            ));
        }
    }

    #[test]
    fn an_app_refuses_the_other_apps_model() {
        let (corpus, [recommend, summarize]) = (corpus(), apps(64));
        let model = recommend.fit_dyn(&corpus).unwrap();
        assert!(recommend.label_batch_dyn(model.as_ref(), &batch()).is_ok());
        assert!(matches!(
            summarize.label_batch_dyn(model.as_ref(), &batch()),
            Err(QuercError::ModelTypeMismatch { app }) if app == "summarize"
        ));
    }
}
