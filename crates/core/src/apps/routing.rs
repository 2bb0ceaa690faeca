//! Query-routing policy checking (paper §4, "Enforcing query routing
//! policies").
//!
//! Routing policies (SLAs, isolation, audit requirements) assign queries
//! to clusters; in practice they are hand-maintained and drift. Under the
//! paper's hypothesis that queries governed by one policy look alike,
//! a classifier trained on historical (query → cluster) assignments can
//! flag queries whose predicted cluster disagrees with the assigned one —
//! surfacing policy misconfigurations without parsing a single rule.

use super::label::{LabelApp, LabelSpec, Output};
use querc_embed::Embedder;
use std::sync::Arc;

pub(super) const ROUTING: LabelSpec = LabelSpec {
    name: "routing",
    task: "learn historical query routing; flag assignments the model contradicts",
    target: |r| r.cluster.as_str(),
    classes: &[],
    salt: 0x4072,
    outputs: &[
        Output::Disagrees("routing_anomaly", "cluster", 0.6),
        Output::Class("predicted_cluster"),
        Output::Confidence("routing_confidence"),
    ],
};

/// Routing checking as a [`LabelApp`]: labels `predicted_cluster` and
/// `routing_confidence`, plus `routing_anomaly=true` when the query
/// carries a `cluster` that a prediction of confidence ≥ 0.6 contradicts.
pub struct RoutingApp;

impl RoutingApp {
    /// The routing-check app over `embedder`.
    #[allow(clippy::new_ret_no_self)] // every configuration is one type, `LabelApp`
    pub fn new(embedder: Arc<dyn Embedder>) -> LabelApp {
        LabelApp::new(&ROUTING, embedder)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apps::label::tests::{label, query};
    use crate::apps::{AppOutput, LabelModel, TrainCorpus, WorkloadApp};
    use crate::enriched::EnrichedQuery;
    use querc_embed::BagOfTokens;
    use querc_workloads::QueryRecord;

    fn records() -> Vec<QueryRecord> {
        (0..60)
            .map(|i| {
                let (cluster, sql) = if i % 2 == 0 {
                    (
                        "etl-cluster",
                        format!("insert into lake_events select * from staging_{}", i % 3),
                    )
                } else {
                    (
                        "bi-cluster",
                        format!("select sum(x) from finance_cube group by dim{}", i % 4),
                    )
                };
                QueryRecord {
                    sql,
                    user: "u".into(),
                    account: "a".into(),
                    cluster: cluster.into(),
                    dialect: "generic".into(),
                    runtime_ms: 1.0,
                    mem_mb: 1.0,
                    error_code: None,
                    timestamp: i,
                }
            })
            .collect()
    }

    /// `spec` fitted on `recs` with the forest stream `seed`.
    fn checker(
        spec: &'static LabelSpec,
        recs: &[QueryRecord],
        seed: u64,
    ) -> (LabelApp, LabelModel) {
        let app = LabelApp::new(spec, Arc::new(BagOfTokens::new(64, true)));
        let corpus = TrainCorpus::from_records(recs.to_vec(), seed ^ 0x4072);
        let model = app.fit(&corpus).unwrap();
        (app, model)
    }

    /// Label `recs` with their assigned clusters; the flagged indices.
    fn check(app: &LabelApp, model: &LabelModel, recs: &[QueryRecord]) -> Vec<(usize, AppOutput)> {
        let batch: Vec<EnrichedQuery> = recs
            .iter()
            .map(|r| query(&r.sql, &[("cluster", &r.cluster)]))
            .collect();
        label(app, model, &batch)
            .into_iter()
            .enumerate()
            .filter(|(_, o)| o.get("routing_anomaly") == Some("true"))
            .collect()
    }

    #[test]
    fn consistent_routing_raises_no_anomalies() {
        let recs = records();
        let (app, model) = checker(&ROUTING, &recs, 1);
        let anomalies = check(&app, &model, &recs);
        assert!(
            anomalies.len() <= recs.len() / 10,
            "clean assignments flagged: {anomalies:?}"
        );
    }

    #[test]
    fn misrouted_query_is_detected() {
        let mut recs = records();
        // A BI query somehow routed to the ETL cluster.
        recs[1].cluster = "etl-cluster".into();
        let (app, model) = checker(&ROUTING, &records(), 2); // train on CLEAN history
        let anomalies = check(&app, &model, &recs);
        let a = anomalies.iter().find(|(i, _)| *i == 1).map(|(_, a)| a);
        assert_eq!(
            a.and_then(|a| a.get("predicted_cluster")),
            Some("bi-cluster"),
            "{anomalies:?}"
        );
    }

    #[test]
    fn confidence_threshold_suppresses_weak_flags() {
        const STRICT: LabelSpec = LabelSpec {
            outputs: &[
                Output::Disagrees("routing_anomaly", "cluster", 1.01), // impossible confidence
                Output::Class("predicted_cluster"),
            ],
            ..ROUTING
        };
        let recs = records();
        let (app, model) = checker(&STRICT, &recs, 3);
        assert!(check(&app, &model, &recs).is_empty());
    }

    #[test]
    fn only_a_prediction_of_confidence_0_6_or_more_flags_a_disagreement() {
        let app = RoutingApp::new(Arc::new(BagOfTokens::new(64, true)));
        let model = app.fit(&TrainCorpus::from_records(records(), 2)).unwrap();
        // Mixed-shape queries the forest splits its votes on, each routed
        // to the cluster it does not predict.
        let out = label(
            &app,
            &model,
            &[
                query(
                    "select * from staging_1 group by dim1",
                    &[("cluster", "bi-cluster")],
                ),
                query(
                    "insert into finance_cube select sum(x) from lake_events",
                    &[("cluster", "etl-cluster")],
                ),
            ],
        );
        let confidence =
            |o: &AppOutput| -> f64 { o.get("routing_confidence").unwrap().parse().unwrap() };
        assert_eq!(
            out[0].get("predicted_cluster"),
            Some("etl-cluster"),
            "{out:?}"
        );
        assert!((0.6..0.7).contains(&confidence(&out[0])), "{out:?}");
        assert_eq!(out[0].get("routing_anomaly"), Some("true"));
        assert_eq!(
            out[1].get("predicted_cluster"),
            Some("bi-cluster"),
            "{out:?}"
        );
        assert!((0.5..0.6).contains(&confidence(&out[1])), "{out:?}");
        assert_eq!(out[1].get("routing_anomaly"), Some("false"));
    }

    #[test]
    fn routing_app_implements_workload_app() {
        let corpus = TrainCorpus::from_records(records(), 2);
        let app = RoutingApp::new(Arc::new(BagOfTokens::new(64, true)));
        let model = app.fit(&corpus).unwrap();
        // A BI query mislabeled as routed to the ETL cluster.
        let mut misrouted =
            EnrichedQuery::from_sql("select sum(x) from finance_cube group by dim1");
        misrouted.set("cluster", "etl-cluster");
        let clean = EnrichedQuery::from_sql("insert into lake_events select * from staging_1");
        let out = app.label_batch(&model, &[misrouted, clean]).unwrap();
        assert_eq!(out[0].get("predicted_cluster"), Some("bi-cluster"));
        assert_eq!(out[0].get("routing_anomaly"), Some("true"));
        assert_eq!(out[1].get("predicted_cluster"), Some("etl-cluster"));
        assert_eq!(out[1].get("routing_anomaly"), None);
        let report = app.report(&model);
        assert_eq!(report.app, "routing");
        assert_eq!(report.trained_queries, 60);
    }

    #[test]
    fn model_round_trips_through_save_load() {
        let corpus = TrainCorpus::from_records(records(), 5);
        let app = RoutingApp::new(Arc::new(BagOfTokens::new(64, true)));
        let model = app.fit(&corpus).unwrap();
        let json = app.save_model(&model).expect("forest is persistable");
        let restored = app.load_model(&json).unwrap();
        let mut misrouted =
            EnrichedQuery::from_sql("select sum(x) from finance_cube group by dim1");
        misrouted.set("cluster", "etl-cluster");
        let clean = EnrichedQuery::from_sql("insert into lake_events select * from staging_1");
        let batch = [misrouted, clean];
        assert_eq!(
            app.label_batch(&model, &batch).unwrap(),
            app.label_batch(&restored, &batch).unwrap()
        );
        assert_eq!(restored.labeler().labels().len(), 2);
    }

    #[test]
    fn predict_routes_new_queries() {
        let (app, model) = checker(&ROUTING, &records(), 4);
        let out = label(
            &app,
            &model,
            &[
                query("select sum(y) from finance_cube group by dim9", &[]),
                query("insert into lake_events select * from staging_9", &[]),
            ],
        );
        assert_eq!(out[0].get("predicted_cluster"), Some("bi-cluster"));
        assert_eq!(out[1].get("predicted_cluster"), Some("etl-cluster"));
    }
}
