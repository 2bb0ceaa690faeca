//! Resource classes for speculative allocation (paper §4, "Resource
//! allocation").
//!
//! Syntax cannot predict exact runtimes, but coarse classes (short /
//! medium / long) are learnable and already useful for load balancing
//! and admission control. [`ResourcesApp`] learns them from the
//! log's measured runtime column, bucketed by [`ResourceBuckets`].

use super::label::{LabelApp, LabelSpec, Output};
use querc_embed::Embedder;
use std::sync::Arc;

pub(super) const RESOURCES: LabelSpec = LabelSpec {
    name: "resources",
    task: "predict coarse runtime class before execution",
    target: |r| ResourceBuckets::default().classify(r.runtime_ms).name(),
    classes: &["short", "medium", "long"],
    salt: 0x4e50,
    outputs: &[Output::Class("resource_class")],
};

/// Resource-class prediction as a [`LabelApp`]: labels `resource_class`,
/// the coarse short/medium/long bucket for admission control and load
/// balancing.
pub struct ResourcesApp;

impl ResourcesApp {
    /// The resource-class app over `embedder`.
    #[allow(clippy::new_ret_no_self)] // every configuration is one type, `LabelApp`
    pub fn new(embedder: Arc<dyn Embedder>) -> LabelApp {
        LabelApp::new(&RESOURCES, embedder)
    }
}

/// Coarse resource classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ResourceClass {
    /// Runs in well under the short threshold (point lookups).
    Short,
    /// Between the two thresholds (typical aggregations).
    Medium,
    /// At or above the long threshold (joins, ETL).
    Long,
}

impl ResourceClass {
    /// Lower-case label value (`short` / `medium` / `long`).
    pub fn name(&self) -> &'static str {
        match self {
            ResourceClass::Short => "short",
            ResourceClass::Medium => "medium",
            ResourceClass::Long => "long",
        }
    }
}

/// Thresholds (milliseconds) splitting the three classes.
#[derive(Debug, Clone, Copy)]
pub struct ResourceBuckets {
    /// Runtimes strictly below this are `Short`.
    pub short_below_ms: f64,
    /// Runtimes at or above this are `Long`.
    pub long_above_ms: f64,
}

impl Default for ResourceBuckets {
    fn default() -> Self {
        ResourceBuckets {
            short_below_ms: 100.0,
            long_above_ms: 600.0,
        }
    }
}

impl ResourceBuckets {
    /// Bucket a measured runtime.
    pub fn classify(&self, runtime_ms: f64) -> ResourceClass {
        if runtime_ms < self.short_below_ms {
            ResourceClass::Short
        } else if runtime_ms >= self.long_above_ms {
            ResourceClass::Long
        } else {
            ResourceClass::Medium
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apps::label::tests::{label, query};
    use crate::apps::{LabelModel, TrainCorpus, WorkloadApp};
    use crate::enriched::EnrichedQuery;
    use querc_workloads::QueryRecord;

    fn records(offset: u64) -> Vec<QueryRecord> {
        (0..90)
            .map(|i| {
                let i = i + offset * 917;
                let (sql, ms) = match i % 3 {
                    0 => (format!("select v from kv_store where k = {i}"), 5.0),
                    1 => (
                        format!("select g, count(*) from mid_table where t > {i} group by g"),
                        300.0,
                    ),
                    _ => (
                        "select a.g, sum(b.v) from big_facts a join big_facts b on a.k = b.k group by a.g".to_string(),
                        2000.0,
                    ),
                };
                QueryRecord {
                    sql,
                    user: "u".into(),
                    account: "a".into(),
                    cluster: "c".into(),
                    dialect: "generic".into(),
                    runtime_ms: ms,
                    mem_mb: ms / 2.0,
                    error_code: None,
                    timestamp: i,
                }
            })
            .collect()
    }

    /// The app fitted on `records(0)` with the forest stream `seed`.
    fn predictor(seed: u64) -> (LabelApp, LabelModel) {
        let app = ResourcesApp::new(Arc::new(querc_embed::BagOfTokens::new(64, true)));
        let corpus = TrainCorpus::from_records(records(0), seed ^ 0x4e50);
        let model = app.fit(&corpus).unwrap();
        (app, model)
    }

    #[test]
    fn buckets_classify_correctly() {
        let b = ResourceBuckets::default();
        assert_eq!(b.classify(1.0), ResourceClass::Short);
        assert_eq!(b.classify(100.0), ResourceClass::Medium);
        assert_eq!(b.classify(599.9), ResourceClass::Medium);
        assert_eq!(b.classify(600.0), ResourceClass::Long);
    }

    #[test]
    fn predicts_classes_from_syntax() {
        let (app, model) = predictor(1);
        let out = label(
            &app,
            &model,
            &[
                query("select v from kv_store where k = 999", &[]),
                query(
                    "select a.g, sum(b.v) from big_facts a join big_facts b on a.k = b.k group by a.g",
                    &[],
                ),
            ],
        );
        assert_eq!(out[0].get("resource_class"), Some("short"));
        assert_eq!(out[1].get("resource_class"), Some("long"));
    }

    #[test]
    fn holdout_accuracy_is_high_on_separable_shapes() {
        let (app, model) = predictor(2);
        let held = records(5);
        let batch: Vec<EnrichedQuery> = held.iter().map(|r| query(&r.sql, &[])).collect();
        let buckets = ResourceBuckets::default();
        let hits = label(&app, &model, &batch)
            .iter()
            .zip(&held)
            .filter(|(o, r)| o.get("resource_class") == Some(buckets.classify(r.runtime_ms).name()))
            .count();
        let acc = hits as f64 / held.len() as f64;
        assert!(acc > 0.9, "accuracy {acc}");
    }

    #[test]
    fn resources_app_implements_workload_app() {
        let corpus = TrainCorpus::from_records(records(0), 1);
        let app = ResourcesApp::new(Arc::new(querc_embed::BagOfTokens::new(64, true)));
        let model = app.fit(&corpus).unwrap();
        let out = app
            .label_batch(
                &model,
                &[
                    EnrichedQuery::from_sql("select v from kv_store where k = 999"),
                    EnrichedQuery::from_sql(
                        "select a.g, sum(b.v) from big_facts a join big_facts b on a.k = b.k group by a.g",
                    ),
                ],
            )
            .unwrap();
        assert_eq!(out[0].get("resource_class"), Some("short"));
        assert_eq!(out[1].get("resource_class"), Some("long"));
        assert_eq!(app.report(&model).app, "resources");
    }

    #[test]
    fn model_round_trips_through_save_load() {
        let corpus = TrainCorpus::from_records(records(0), 4);
        let app = ResourcesApp::new(Arc::new(querc_embed::BagOfTokens::new(64, true)));
        let model = app.fit(&corpus).unwrap();
        let json = app.save_model(&model).expect("forest is persistable");
        let restored = app.load_model(&json).unwrap();
        let batch: Vec<EnrichedQuery> = [
            "select v from kv_store where k = 999",
            "select g, count(*) from mid_table where t > 9 group by g",
            "select a.g, sum(b.v) from big_facts a join big_facts b on a.k = b.k group by a.g",
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
    fn class_names() {
        assert_eq!(ResourceClass::Short.name(), "short");
        assert_eq!(ResourceClass::Medium.name(), "medium");
        assert_eq!(ResourceClass::Long.name(), "long");
    }
}
