//! Next-query recommendation (paper §4, "Query recommendation").
//!
//! Model: cluster the embedding space, learn a first-order Markov chain
//! over cluster transitions from per-user sessions, and recommend the
//! witness query of the most likely next cluster. Simple, but exactly
//! the structure SnipSuggest-style systems refine — and built entirely
//! from generic embeddings, no query-fragment engineering.

use super::cluster::{ClusterApp, ClusterSpec};
use querc_embed::Embedder;
use querc_workloads::QueryRecord;
use std::collections::BTreeMap;
use std::sync::Arc;

pub(super) const RECOMMEND: ClusterSpec = ClusterSpec {
    name: "recommend",
    task: "recommend the next query from session transition patterns",
    keys: ("query_cluster", "next_query"),
    k: Some(8),
    seed: 0x4ec0,
    stream: 0x4ec0,
    sessions: Some(user_sessions),
};

/// One session per user, users in name order, each session's records
/// stably sorted by `timestamp` (ties keep record order).
fn user_sessions(records: &[QueryRecord]) -> Vec<Vec<usize>> {
    let mut by_user: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    for (i, r) in records.iter().enumerate() {
        by_user.entry(r.user.as_str()).or_default().push(i);
    }
    by_user
        .into_values()
        .map(|mut session| {
            session.sort_by_key(|&i| records[i].timestamp);
            session
        })
        .collect()
}

/// Recommendation as a [`ClusterApp`]: labels each query's
/// `query_cluster` (embedding-cluster id) and `next_query` (the witness
/// of the most likely next cluster given this query — the
/// session-continuation recommendation). 8 clusters by default.
pub struct RecommendApp;

impl RecommendApp {
    /// The recommendation app over `embedder`.
    #[allow(clippy::new_ret_no_self)] // both configurations are one type, `ClusterApp`
    pub fn new(embedder: Arc<dyn Embedder>) -> ClusterApp {
        ClusterApp::new(&RECOMMEND, embedder)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apps::{AppOutput, ClusterModel, TrainCorpus, WorkloadApp};
    use crate::enriched::EnrichedQuery;
    use querc_embed::BagOfTokens;

    fn record(user: &str, sql: &str, timestamp: u64) -> QueryRecord {
        QueryRecord {
            sql: sql.into(),
            user: user.into(),
            account: "a".into(),
            cluster: "c".into(),
            dialect: "generic".into(),
            runtime_ms: 1.0,
            mem_mb: 1.0,
            error_code: None,
            timestamp,
        }
    }

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

    /// A corpus whose user sessions are `histories`, under a seed that
    /// gives the k-means stream `Pcg32::with_stream(seed, 0x4ec0)`.
    fn corpus(histories: &[Vec<String>], seed: u64) -> TrainCorpus {
        let records = histories
            .iter()
            .enumerate()
            .flat_map(|(u, h)| {
                h.iter()
                    .enumerate()
                    .map(move |(t, sql)| record(&format!("u{u}"), sql, t as u64))
            })
            .collect();
        TrainCorpus::from_records(records, seed ^ RECOMMEND.seed)
    }

    /// A 2-cluster recommender fitted on `histories(5, 20)`.
    fn fitted(seed: u64) -> (ClusterApp, ClusterModel) {
        let app = RecommendApp::new(Arc::new(BagOfTokens::new(64, true))).with_clusters(2);
        let model = app.fit(&corpus(&histories(5, 20), seed)).unwrap();
        (app, model)
    }

    fn label(app: &ClusterApp, model: &ClusterModel, sqls: &[&str]) -> Vec<AppOutput> {
        let batch: Vec<EnrichedQuery> = sqls.iter().map(|s| EnrichedQuery::from_sql(*s)).collect();
        app.label_batch(model, &batch).unwrap()
    }

    #[test]
    fn sessions_group_users_in_order_and_sort_stably_by_timestamp() {
        let records = [
            record("u1", "select 2", 20),
            record("u2", "select 9", 5),
            record("u1", "select 1", 10),
            record("u1", "select 3", 20),
        ];
        assert_eq!(user_sessions(&records), vec![vec![2, 0, 3], vec![1]]);
    }

    #[test]
    fn learns_the_alternating_pattern() {
        let (app, model) = fitted(7);
        let out = label(
            &app,
            &model,
            &[
                "select v from point_lookup where k = 999",
                "select g, sum(v) from rollup_facts group by g -- x",
            ],
        );
        let after_lookup = out[0].get("next_query").unwrap();
        assert!(
            after_lookup.contains("group by"),
            "after a lookup, recommend the rollup: {after_lookup}"
        );
        let after_rollup = out[1].get("next_query").unwrap();
        assert!(
            after_rollup.contains("point_lookup"),
            "after a rollup, recommend the lookup: {after_rollup}"
        );
    }

    #[test]
    fn holdout_hit_rate_beats_chance() {
        let (app, model) = fitted(7);
        let (mut hits, mut total) = (0, 0);
        for h in histories(3, 12) {
            let sqls: Vec<&str> = h.iter().map(String::as_str).collect();
            let out = label(&app, &model, &sqls);
            for w in out.windows(2) {
                let rec = label(&app, &model, &[w[0].get("next_query").unwrap()]);
                hits += usize::from(rec[0].get("query_cluster") == w[1].get("query_cluster"));
                total += 1;
            }
        }
        let rate = hits as f64 / total as f64;
        assert!(rate > 0.8, "alternation is deterministic; got {rate}");
    }

    #[test]
    fn recommend_app_implements_workload_app() {
        let (app, model) = fitted(7 ^ RECOMMEND.seed);
        let out = label(&app, &model, &["select v from point_lookup where k = 999"]);
        assert!(out[0].get("next_query").unwrap().contains("group by"));
        assert!(out[0].get("query_cluster").is_some());
        let report = app.report(&model);
        assert_eq!(report.app, "recommend");
        assert_eq!(report.trained_queries, 100);
        // No records at all → EmptyCorpus.
        assert!(app.fit(&TrainCorpus::default()).is_err());
    }

    #[test]
    fn model_round_trips_through_save_load() {
        let (app, model) = fitted(7 ^ RECOMMEND.seed);
        let json = app.save_model(&model).expect("recommender is persistable");
        let restored = app.load_model(&json).unwrap();
        let sqls = [
            "select v from point_lookup where k = 999",
            "select g, sum(v) from rollup_facts group by g -- z",
        ];
        assert_eq!(label(&app, &model, &sqls), label(&app, &restored, &sqls));
        assert_eq!(app.report(&restored), app.report(&model));
    }

    #[test]
    fn a_cluster_no_transition_leaves_maps_to_the_last_cluster() {
        // One query per user: no session has a transition, every row
        // ties, and the last of the tied maxima is cluster 1.
        let h: Vec<Vec<String>> = (0..20)
            .map(|i| match i % 2 {
                0 => vec![format!("select v from point_lookup where k = {i}")],
                _ => vec![format!("insert into raw_events values ({i})")],
            })
            .collect();
        let app = RecommendApp::new(Arc::new(BagOfTokens::new(64, true))).with_clusters(2);
        let model = app.fit(&corpus(&h, 7)).unwrap();
        let out = label(&app, &model, &[&h[0][0], &h[1][0]]);
        assert_ne!(out[0].get("query_cluster"), out[1].get("query_cluster"));
        let in_1 = match out[0].get("query_cluster") {
            Some("1") => &h[0][0],
            _ => &h[1][0],
        };
        for o in &out {
            let next = o.get("next_query").unwrap();
            assert_eq!(next.split(' ').next(), in_1.split(' ').next(), "{next}");
        }
    }

    #[test]
    fn single_history_single_cluster() {
        let h = vec![vec!["select 1".to_string(), "select 1".to_string()]];
        let app = RecommendApp::new(Arc::new(BagOfTokens::new(16, false))).with_clusters(1);
        let model = app.fit(&corpus(&h, 3)).unwrap();
        let out = label(&app, &model, &["select 1"]);
        assert_eq!(out[0].get("next_query"), Some("select 1"));
    }
}
