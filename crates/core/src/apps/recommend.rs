//! Next-query recommendation (paper §4, "Query recommendation").
//!
//! Model: cluster the embedding space, learn a per-user first-order
//! Markov chain over cluster transitions from session history, and
//! recommend the witness query of the most likely next cluster. Simple,
//! but exactly the structure SnipSuggest-style systems refine — and built
//! entirely from generic embeddings, no query-fragment engineering.

use super::{AppOutput, AppReport, TrainCorpus, WorkloadApp};
use crate::enriched::EnrichedQuery;
use crate::error::{QuercError, Result};
use querc_cluster::{kmeans, KMeansConfig};
use querc_embed::Embedder;
use querc_index::{FlatIndex, IndexStats, Metric, VectorIndex};
use querc_linalg::Pcg32;
use std::sync::Arc;

/// A trained next-query recommender.
pub struct QueryRecommender {
    embedder: Arc<dyn Embedder>,
    /// Exact index over the cluster centroids — every fresh query's
    /// cluster assignment is a k=1 search through the vector plane.
    centroids: FlatIndex,
    /// Witness SQL per cluster.
    witnesses: Vec<String>,
    /// `transitions[from][to]` = observed count + 1 (Laplace smoothing).
    transitions: Vec<Vec<f64>>,
    /// Queries across all training histories.
    pub trained_queries: usize,
}

impl QueryRecommender {
    /// Train from per-user ordered query histories.
    ///
    /// Thin wrapper over [`QueryRecommender::try_train`]; panics with
    /// the error message on an empty history set.
    pub fn train(
        histories: &[Vec<String>],
        embedder: Arc<dyn Embedder>,
        k: usize,
        seed: u64,
    ) -> QueryRecommender {
        Self::try_train(histories, embedder, k, seed).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible training: reports an empty history set as
    /// [`QuercError::EmptyCorpus`] instead of asserting.
    pub fn try_train(
        histories: &[Vec<String>],
        embedder: Arc<dyn Embedder>,
        k: usize,
        seed: u64,
    ) -> Result<QueryRecommender> {
        let all: Vec<&str> = histories
            .iter()
            .flat_map(|h| h.iter().map(String::as_str))
            .collect();
        if all.is_empty() {
            return Err(QuercError::EmptyCorpus {
                context: "recommend.fit",
            });
        }
        let docs: Vec<Vec<String>> = all.iter().map(|s| querc_embed::sql_tokens(s)).collect();
        let points = embedder.embed_batch(&docs);
        let mut rng = Pcg32::with_stream(seed, 0x4ec0);
        let result = kmeans(
            &points,
            &KMeansConfig {
                k: k.min(points.len()),
                ..Default::default()
            },
            &mut rng,
        );
        let witnesses: Vec<String> = result
            .witnesses(&points)
            .into_iter()
            .map(|i| all[i].to_string())
            .collect();
        let kk = result.centroids.len();
        let mut transitions = vec![vec![1.0f64; kk]; kk];
        // Re-embed per history to track positions.
        let mut cursor = 0usize;
        for h in histories {
            let assigns: Vec<usize> = (0..h.len())
                .map(|j| result.assignments[cursor + j])
                .collect();
            cursor += h.len();
            for w in assigns.windows(2) {
                transitions[w[0]][w[1]] += 1.0;
            }
        }
        Ok(QueryRecommender {
            embedder,
            centroids: FlatIndex::from_rows(&result.centroids, Metric::Euclidean),
            witnesses,
            transitions,
            trained_queries: all.len(),
        })
    }

    /// Cluster id of a query.
    pub fn cluster_of(&self, sql: &str) -> usize {
        self.cluster_of_vector(&self.embedder.embed_sql(sql))
    }

    /// Cluster id of a precomputed embedding vector — shared by the
    /// SQL-level, batched, and serving paths. A k=1 search of the
    /// centroid index, bit-identical to a
    /// `querc_cluster::try_nearest_centroid` linear scan (a trained
    /// model always has ≥ 1 centroid).
    pub fn cluster_of_vector(&self, v: &[f32]) -> usize {
        self.centroids.nearest(v).unwrap_or(0) as usize
    }

    /// Cluster ids for a chunk of precomputed vectors in **one** index
    /// `search_batch` — the serving hot path.
    pub fn clusters_of_vectors(&self, vectors: &[&[f32]]) -> Vec<usize> {
        self.centroids
            .nearest_batch(vectors)
            .into_iter()
            .map(|c| c.unwrap_or(0) as usize)
            .collect()
    }

    /// Cluster ids for a chunk of pre-tokenized queries through the
    /// embedder's batched path.
    pub fn clusters_of_batch(&self, docs: &[Vec<String>]) -> Vec<usize> {
        let vectors = self.embedder.embed_batch(docs);
        let refs: Vec<&[f32]> = vectors.iter().map(Vec::as_slice).collect();
        self.clusters_of_vectors(&refs)
    }

    /// Search counters of the centroid index.
    pub fn index_stats(&self) -> IndexStats {
        self.centroids.stats()
    }

    /// Witness of the most likely next cluster after cluster `from`.
    fn next_witness(&self, from: usize) -> (usize, &str) {
        let row = &self.transitions[from];
        let to = row
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
            .map(|(i, _)| i)
            .unwrap_or(from);
        (to, &self.witnesses[to])
    }

    /// Number of clusters in the transition model.
    pub fn num_clusters(&self) -> usize {
        self.centroids.len()
    }

    /// Recommend the most likely next query given the last one.
    pub fn recommend(&self, last_sql: &str) -> &str {
        let from = self.cluster_of(last_sql);
        self.next_witness(from).1
    }

    /// Top-n next-cluster witnesses, most likely first.
    pub fn recommend_n(&self, last_sql: &str, n: usize) -> Vec<&str> {
        let from = self.cluster_of(last_sql);
        let mut ranked: Vec<(usize, f64)> = self.transitions[from]
            .iter()
            .enumerate()
            .map(|(i, &p)| (i, p))
            .collect();
        ranked.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
        ranked
            .into_iter()
            .take(n)
            .map(|(i, _)| self.witnesses[i].as_str())
            .collect()
    }

    /// Witness SQL of a cluster.
    pub fn witness(&self, cluster: usize) -> Option<&str> {
        self.witnesses.get(cluster).map(String::as_str)
    }

    /// Held-out hit rate: fraction of consecutive pairs where the true
    /// next cluster is the recommended one.
    pub fn holdout_hit_rate(&self, histories: &[Vec<String>]) -> f64 {
        let mut hits = 0usize;
        let mut total = 0usize;
        for h in histories {
            for w in h.windows(2) {
                let rec = self.recommend(&w[0]);
                if self.cluster_of(rec) == self.cluster_of(&w[1]) {
                    hits += 1;
                }
                total += 1;
            }
        }
        if total == 0 {
            0.0
        } else {
            hits as f64 / total as f64
        }
    }
}

/// [`QueryRecommender`] behind the uniform [`WorkloadApp`] interface.
///
/// Labels attached per query: `query_cluster` (embedding-cluster id)
/// and `next_query` (the witness of the most likely next cluster given
/// this query — the session-continuation recommendation).
pub struct RecommendApp {
    embedder: Arc<dyn Embedder>,
    /// Number of embedding clusters in the transition model.
    pub k: usize,
}

impl RecommendApp {
    /// A recommendation app over `embedder` with the default cluster count.
    pub fn new(embedder: Arc<dyn Embedder>) -> RecommendApp {
        RecommendApp { embedder, k: 8 }
    }

    /// Override the number of embedding clusters (≥ 1).
    pub fn with_clusters(mut self, k: usize) -> RecommendApp {
        self.k = k.max(1);
        self
    }
}

impl WorkloadApp for RecommendApp {
    type Model = QueryRecommender;

    fn name(&self) -> &'static str {
        "recommend"
    }

    fn task(&self) -> &'static str {
        "recommend the next query from session transition patterns"
    }

    fn fit(&self, corpus: &TrainCorpus) -> Result<QueryRecommender> {
        QueryRecommender::try_train(
            &corpus.histories,
            Arc::clone(&self.embedder),
            self.k,
            corpus.seed ^ 0x4ec0,
        )
    }

    fn label_batch(
        &self,
        model: &QueryRecommender,
        batch: &[EnrichedQuery],
    ) -> Result<Vec<AppOutput>> {
        let vectors = EnrichedQuery::vectors(batch, model.embedder.as_ref());
        let refs: Vec<&[f32]> = vectors.iter().map(|v| v.as_slice()).collect();
        Ok(model
            .clusters_of_vectors(&refs)
            .into_iter()
            .map(|cluster| {
                let (_, witness) = model.next_witness(cluster);
                let mut out = AppOutput::new();
                out.set("query_cluster", cluster.to_string());
                out.set("next_query", witness);
                out
            })
            .collect())
    }

    fn embedder(&self) -> Option<Arc<dyn Embedder>> {
        Some(Arc::clone(&self.embedder))
    }

    fn index_stats(&self, model: &QueryRecommender) -> Option<IndexStats> {
        Some(model.index_stats())
    }

    fn report(&self, model: &QueryRecommender) -> AppReport {
        AppReport {
            app: self.name().to_string(),
            task: self.task().to_string(),
            trained_queries: model.trained_queries,
            detail: vec![
                ("embedder".to_string(), model.embedder.name().to_string()),
                ("clusters".to_string(), model.num_clusters().to_string()),
            ],
        }
    }

    fn save_model(&self, model: &QueryRecommender) -> Option<String> {
        let store = model.centroids.store();
        let mut flat = Vec::with_capacity(store.len() * store.dim());
        for row in store.iter() {
            flat.extend_from_slice(row);
        }
        crate::persist::to_json(&RecommendState {
            dim: store.dim(),
            centroids: flat,
            witnesses: model.witnesses.clone(),
            transitions: model.transitions.clone(),
            trained_queries: model.trained_queries,
        })
    }

    fn load_model(&self, json: &str) -> Result<QueryRecommender> {
        let state: RecommendState = crate::persist::from_json(json, "recommend model")?;
        let rows = crate::apps::summarize::restore_centroids(
            &state.dim,
            &state.centroids,
            self.embedder.dim(),
            "recommend",
        )?;
        let kk = rows.len();
        // next_witness indexes transitions[from][to] and witnesses[to]
        // unchecked, so both must be exactly kk-sized.
        if state.witnesses.len() != kk
            || state.transitions.len() != kk
            || state.transitions.iter().any(|row| row.len() != kk)
        {
            return Err(crate::persist::corrupt(format!(
                "recommend model shapes disagree: {} centroids, {} witnesses, {}x? transitions",
                kk,
                state.witnesses.len(),
                state.transitions.len()
            )));
        }
        Ok(QueryRecommender {
            embedder: Arc::clone(&self.embedder),
            centroids: FlatIndex::from_rows(&rows, Metric::Euclidean),
            witnesses: state.witnesses,
            transitions: state.transitions,
            trained_queries: state.trained_queries,
        })
    }
}

/// Serialized form of a [`QueryRecommender`]: the centroid matrix
/// (flattened row-major), the witness table, and the `k×k` smoothed
/// transition-count matrix.
#[derive(serde::Serialize, serde::Deserialize)]
struct RecommendState {
    dim: usize,
    centroids: Vec<f32>,
    witnesses: Vec<String>,
    transitions: Vec<Vec<f64>>,
    trained_queries: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use querc_embed::BagOfTokens;

    /// Users alternate deterministically: lookup → aggregate → lookup …
    fn histories(n_users: usize, len: usize) -> Vec<Vec<String>> {
        (0..n_users)
            .map(|u| {
                (0..len)
                    .map(|i| {
                        if i % 2 == 0 {
                            format!("select v from point_lookup where k = {}", u * 100 + i)
                        } else {
                            format!("select g, sum(v) from rollup_facts group by g -- {u}")
                        }
                    })
                    .collect()
            })
            .collect()
    }

    fn recommender() -> QueryRecommender {
        QueryRecommender::train(
            &histories(5, 20),
            Arc::new(BagOfTokens::new(64, true)),
            2,
            7,
        )
    }

    #[test]
    fn learns_the_alternating_pattern() {
        let r = recommender();
        let after_lookup = r.recommend("select v from point_lookup where k = 999");
        assert!(
            after_lookup.contains("group by"),
            "after a lookup, recommend the rollup: {after_lookup}"
        );
        let after_rollup = r.recommend("select g, sum(v) from rollup_facts group by g -- x");
        assert!(
            after_rollup.contains("point_lookup"),
            "after a rollup, recommend the lookup: {after_rollup}"
        );
    }

    #[test]
    fn holdout_hit_rate_beats_chance() {
        let r = recommender();
        let held = histories(3, 12);
        let rate = r.holdout_hit_rate(&held);
        assert!(rate > 0.8, "alternation is deterministic; got {rate}");
    }

    #[test]
    fn recommend_n_is_ranked_and_bounded() {
        let r = recommender();
        let recs = r.recommend_n("select v from point_lookup where k = 1", 5);
        assert!(!recs.is_empty() && recs.len() <= 2, "only 2 clusters exist");
    }

    #[test]
    fn recommend_app_implements_workload_app() {
        let corpus = TrainCorpus {
            records: Vec::new(),
            histories: histories(5, 20),
            seed: 7,
        };
        let app = RecommendApp::new(Arc::new(BagOfTokens::new(64, true))).with_clusters(2);
        let model = app.fit(&corpus).unwrap();
        let out = app
            .label_batch(
                &model,
                &[EnrichedQuery::from_sql(
                    "select v from point_lookup where k = 999",
                )],
            )
            .unwrap();
        assert!(out[0].get("next_query").unwrap().contains("group by"));
        assert!(out[0].get("query_cluster").is_some());
        let report = app.report(&model);
        assert_eq!(report.app, "recommend");
        assert_eq!(report.trained_queries, 100);
        // No histories at all → EmptyCorpus.
        assert!(app.fit(&TrainCorpus::default()).is_err());
    }

    #[test]
    fn model_round_trips_through_save_load() {
        let corpus = TrainCorpus {
            records: Vec::new(),
            histories: histories(5, 20),
            seed: 7,
        };
        let app = RecommendApp::new(Arc::new(BagOfTokens::new(64, true))).with_clusters(2);
        let model = app.fit(&corpus).unwrap();
        let json = app.save_model(&model).expect("recommender is persistable");
        let restored = app.load_model(&json).unwrap();
        let batch: Vec<EnrichedQuery> = [
            "select v from point_lookup where k = 999",
            "select g, sum(v) from rollup_facts group by g -- z",
        ]
        .iter()
        .map(|s| EnrichedQuery::from_sql(*s))
        .collect();
        assert_eq!(
            app.label_batch(&model, &batch).unwrap(),
            app.label_batch(&restored, &batch).unwrap()
        );
        assert_eq!(restored.num_clusters(), model.num_clusters());

        // A ragged transition matrix would index-panic in next_witness.
        let mut state: RecommendState = crate::persist::from_json(&json, "t").unwrap();
        state.transitions[0].pop();
        let ragged = crate::persist::to_json(&state).unwrap();
        assert!(matches!(
            app.load_model(&ragged),
            Err(crate::error::QuercError::Corrupt { .. })
        ));
    }

    #[test]
    fn single_history_single_cluster() {
        let h = vec![vec!["select 1".to_string(), "select 1".to_string()]];
        let r = QueryRecommender::train(&h, Arc::new(BagOfTokens::new(16, false)), 1, 3);
        assert_eq!(r.recommend("select 1"), "select 1");
    }
}
