//! Error prediction from query syntax (paper §4, "Error prediction").
//!
//! Syntax patterns correlate with resource errors and engine bugs; with
//! learned features "a classifier to predict errors from syntax is
//! trivial to engineer". Predicted-risky queries can be routed to an
//! instrumented or higher-memory runtime before they fail.

use super::label::{LabelApp, LabelSpec, Output};
use querc_embed::Embedder;
use std::sync::Arc;

pub(super) const ERRORS: LabelSpec = LabelSpec {
    name: "errors",
    task: "predict failure probability from query syntax",
    target: |r| if r.is_error() { "true" } else { "false" },
    classes: &["false", "true"],
    salt: 0xe440,
    outputs: &[
        Output::Probability("error_probability", 1),
        Output::AtLeast("error_risky", 1, 0.5),
    ],
};

/// Error prediction as a [`LabelApp`]: labels `error_probability` (the
/// forest's vote share for failure) and `error_risky` (share ≥ 0.5).
pub struct ErrorsApp;

impl ErrorsApp {
    /// The error-prediction app over `embedder`.
    #[allow(clippy::new_ret_no_self)] // every configuration is one type, `LabelApp`
    pub fn new(embedder: Arc<dyn Embedder>) -> LabelApp {
        LabelApp::new(&ERRORS, embedder)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apps::label::tests::{label, query};
    use crate::apps::{AppOutput, LabelModel, TrainCorpus, WorkloadApp};
    use crate::enriched::EnrichedQuery;
    use querc_workloads::QueryRecord;

    /// A workload where one query shape reliably blows memory.
    fn records(seed_off: u64) -> Vec<QueryRecord> {
        (0..80)
            .map(|i| {
                let i = i + seed_off * 1000;
                let flaky = i.is_multiple_of(4);
                let sql = if flaky {
                    format!(
                        "select a.*, b.* from giant_facts a join giant_facts b on a.k = b.k where a.x > {i}"
                    )
                } else {
                    format!("select c from small_dim where id = {i}")
                };
                QueryRecord {
                    sql,
                    user: "u".into(),
                    account: "a".into(),
                    cluster: "c".into(),
                    dialect: "generic".into(),
                    runtime_ms: 1.0,
                    mem_mb: 1.0,
                    // The flaky shape fails most of the time.
                    error_code: (flaky && i % 8 != 4).then_some(604),
                    timestamp: i,
                }
            })
            .collect()
    }

    fn predictor() -> (LabelApp, LabelModel) {
        // seed ^ 0xe440 == 1: the forest stream these bounds were set on.
        let app = ErrorsApp::new(Arc::new(querc_embed::BagOfTokens::new(64, true)));
        let model = app
            .fit(&TrainCorpus::from_records(records(0), 0xe441))
            .unwrap();
        (app, model)
    }

    fn probability(out: &AppOutput) -> f64 {
        out.get("error_probability").unwrap().parse().unwrap()
    }

    #[test]
    fn flaky_shape_is_risky_safe_shape_is_not() {
        let (app, model) = predictor();
        let out = label(
            &app,
            &model,
            &[
                query("select a.*, b.* from giant_facts a join giant_facts b on a.k = b.k where a.x > 999", &[]),
                query("select c from small_dim where id = 999", &[]),
            ],
        );
        assert!(probability(&out[0]) > probability(&out[1]));
        assert_eq!(out[0].get("error_risky"), Some("true"), "{out:?}");
        assert_eq!(out[1].get("error_risky"), Some("false"), "{out:?}");
    }

    #[test]
    fn holdout_accuracy_beats_base_rate() {
        let (app, model) = predictor();
        let held = records(7);
        let batch: Vec<EnrichedQuery> = held.iter().map(|r| query(&r.sql, &[])).collect();
        let hits = label(&app, &model, &batch)
            .iter()
            .zip(&held)
            .filter(|(o, r)| o.get("error_risky") == Some(&r.is_error().to_string()))
            .count();
        let acc = hits as f64 / held.len() as f64;
        // Base rate of the majority class ("no error") is ~81%.
        assert!(acc > 0.85, "accuracy {acc}");
    }

    #[test]
    fn errors_app_implements_workload_app() {
        // seed ^ 0xe440 == 1 → the exact forest `predictor()` exercises.
        let corpus = TrainCorpus::from_records(records(0), 0xe441);
        let app = ErrorsApp::new(Arc::new(querc_embed::BagOfTokens::new(64, true)));
        let model = app.fit(&corpus).unwrap();
        let risky = EnrichedQuery::from_sql(
            "select a.*, b.* from giant_facts a join giant_facts b on a.k = b.k where a.x > 999",
        );
        let safe = EnrichedQuery::from_sql("select c from small_dim where id = 999");
        let out = app.label_batch(&model, &[risky, safe]).unwrap();
        assert_eq!(out[0].get("error_risky"), Some("true"));
        assert_eq!(out[1].get("error_risky"), Some("false"));
        let p0: f64 = out[0].get("error_probability").unwrap().parse().unwrap();
        let p1: f64 = out[1].get("error_probability").unwrap().parse().unwrap();
        assert!(p0 > p1);
        assert_eq!(app.report(&model).app, "errors");
    }

    #[test]
    fn model_round_trips_through_save_load() {
        let corpus = TrainCorpus::from_records(records(0), 3);
        let app = ErrorsApp::new(Arc::new(querc_embed::BagOfTokens::new(64, true)));
        let model = app.fit(&corpus).unwrap();
        let json = app.save_model(&model).expect("forest is persistable");
        let restored = app.load_model(&json).unwrap();
        let batch: Vec<EnrichedQuery> = [
            "select a.*, b.* from giant_facts a join giant_facts b on a.k = b.k where a.x > 7",
            "select c from small_dim where id = 7",
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
    fn load_rejects_forest_wider_than_the_embedder() {
        let corpus = TrainCorpus::from_records(records(0), 3);
        let wide = ErrorsApp::new(Arc::new(querc_embed::BagOfTokens::new(64, true)));
        let json = wide.save_model(&wide.fit(&corpus).unwrap()).unwrap();
        // Restoring under a narrower embedder would index-panic at
        // label time; it must be rejected up front.
        let narrow = ErrorsApp::new(Arc::new(querc_embed::BagOfTokens::new(4, true)));
        assert!(matches!(
            narrow.load_model(&json),
            Err(crate::error::QuercError::Corrupt { .. })
        ));
        assert!(matches!(
            wide.load_model("{broken"),
            Err(crate::error::QuercError::Corrupt { .. })
        ));
    }

    #[test]
    fn probabilities_in_unit_interval() {
        let (app, model) = predictor();
        let batch: Vec<EnrichedQuery> = ["select 1", "drop table x", ""]
            .iter()
            .map(|sql| query(sql, &[]))
            .collect();
        for out in label(&app, &model, &batch) {
            assert!((0.0..=1.0).contains(&probability(&out)));
        }
    }
}
