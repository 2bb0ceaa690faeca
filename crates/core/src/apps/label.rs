//! One labeling app, four configurations.
//!
//! `audit`, `errors`, `resources` and `routing` are one program: embed
//! through [`EnrichedQuery::vectors`], fit an extra-trees forest on a
//! target read from each training record, and write one to three labels
//! per query from the forest's class probabilities, optionally against a
//! label the query already carries. A constant `LabelSpec` in each
//! app's module ([`super::audit`], [`super::errors`],
//! [`super::resources`], [`super::routing`]) holds what differs.

use super::{AppOutput, AppReport, TrainCorpus, WorkloadApp};
use crate::classifier::TrainedLabeler;
use crate::enriched::EnrichedQuery;
use crate::error::{QuercError, Result};
use querc_embed::Embedder;
use querc_learn::{ForestConfig, RandomForest};
use querc_linalg::Pcg32;
use querc_workloads::QueryRecord;
use std::sync::Arc;

/// One label a [`LabelApp`] writes per query, from its forest's class
/// probabilities. A spec lists them in output order.
pub(super) enum Output {
    /// `(key, field, floor)`: `"true"` when the query's `field` label is
    /// not the predicted class and the prediction's vote share is at
    /// least `floor`; omitted when the query has no `field`.
    Disagrees(&'static str, &'static str, f64),
    /// The predicted class: the argmax, first of a tie.
    Class(&'static str),
    /// The predicted class's vote share, `{:.3}`.
    Confidence(&'static str),
    /// `(key, class id)`: that class's vote share, `{:.3}`.
    Probability(&'static str, usize),
    /// `(key, class id, at)`: `"true"` when that class's share is ≥ `at`.
    AtLeast(&'static str, usize, f64),
}

/// The constants that make a [`LabelApp`] one app.
pub(super) struct LabelSpec {
    pub(super) name: &'static str,
    pub(super) task: &'static str,
    /// The training target, read from each record.
    pub(super) target: fn(&QueryRecord) -> &str,
    /// Classes with fixed ids, in id order; empty for first-seen order.
    pub(super) classes: &'static [&'static str],
    /// The forest's RNG is `Pcg32::with_stream(seed ^ salt, salt)`.
    pub(super) salt: u64,
    pub(super) outputs: &'static [Output],
}

/// A labeling app: one app's constant settings over one embedder.
pub struct LabelApp {
    spec: &'static LabelSpec,
    embedder: Arc<dyn Embedder>,
    n_trees: usize,
}

impl LabelApp {
    pub(super) fn new(spec: &'static LabelSpec, embedder: Arc<dyn Embedder>) -> LabelApp {
        LabelApp {
            spec,
            embedder,
            n_trees: 40,
        }
    }

    /// Override the number of trees in the forest (default 40).
    pub fn with_trees(mut self, n_trees: usize) -> LabelApp {
        self.n_trees = n_trees;
        self
    }
}

/// A fitted [`LabelApp`] model: the labeler plus the app that fitted it.
pub struct LabelModel {
    app: &'static str,
    labeler: TrainedLabeler,
    trained_queries: usize,
}

impl LabelModel {
    /// The trained labeler (its [`crate::LabelMap`] names the classes).
    pub fn labeler(&self) -> &TrainedLabeler {
        &self.labeler
    }
}

impl WorkloadApp for LabelApp {
    type Model = LabelModel;

    fn name(&self) -> &'static str {
        self.spec.name
    }

    fn task(&self) -> &'static str {
        self.spec.task
    }

    fn fit(&self, corpus: &TrainCorpus) -> Result<LabelModel> {
        corpus.require_records(self.spec.name)?;
        let docs: Vec<Vec<String>> = corpus.records.iter().map(|r| r.tokens()).collect();
        let vectors = self.embedder.embed_batch(&docs);
        let targets: Vec<&str> = corpus.records.iter().map(self.spec.target).collect();
        let salt = self.spec.salt;
        let labeler = TrainedLabeler::try_train_classes(
            RandomForest::new(ForestConfig::extra_trees(self.n_trees)),
            &vectors,
            self.spec.classes,
            &targets,
            &mut Pcg32::with_stream(corpus.seed ^ salt, salt),
        )?;
        Ok(LabelModel {
            app: self.spec.name,
            labeler,
            trained_queries: corpus.len(),
        })
    }

    fn label_batch(&self, model: &LabelModel, batch: &[EnrichedQuery]) -> Result<Vec<AppOutput>> {
        if model.app != self.spec.name {
            return Err(QuercError::ModelTypeMismatch {
                app: self.spec.name.to_string(),
            });
        }
        let vectors = EnrichedQuery::vectors(batch, self.embedder.as_ref());
        let refs: Vec<&[f32]> = vectors.iter().map(|v| v.as_slice()).collect();
        let probas = model.labeler.try_proba_refs(&refs)?;
        let names = model.labeler.labels();
        Ok(batch
            .iter()
            .zip(probas)
            .map(|(q, p)| {
                let share = |class: usize| f64::from(p.get(class).copied().unwrap_or(0.0));
                let best = querc_linalg::stats::argmax(&p).unwrap_or(0);
                let class = names.name(best as u32).unwrap_or("<unknown>");
                let mut out = AppOutput::new();
                for rule in self.spec.outputs {
                    let (key, value) = match *rule {
                        Output::Disagrees(key, field, floor) => match q.get(field) {
                            Some(actual) => {
                                (key, (actual != class && share(best) >= floor).to_string())
                            }
                            None => continue,
                        },
                        Output::Class(key) => (key, class.to_string()),
                        Output::Confidence(key) => (key, format!("{:.3}", share(best))),
                        Output::Probability(key, id) => (key, format!("{:.3}", share(id))),
                        Output::AtLeast(key, id, at) => (key, (share(id) >= at).to_string()),
                    };
                    out.set(key, value);
                }
                out
            })
            .collect())
    }

    fn embedder(&self) -> Option<Arc<dyn Embedder>> {
        Some(Arc::clone(&self.embedder))
    }

    fn report(&self, model: &LabelModel) -> AppReport {
        let classes = model.labeler.labels().len();
        AppReport {
            app: self.spec.name.to_string(),
            task: self.spec.task.to_string(),
            trained_queries: model.trained_queries,
            detail: vec![
                ("embedder".to_string(), self.embedder.name().to_string()),
                ("classes".to_string(), classes.to_string()),
                ("trees".to_string(), self.n_trees.to_string()),
            ],
        }
    }

    fn save_model(&self, model: &LabelModel) -> Option<String> {
        crate::persist::to_json(&LabelState {
            labeler: model.labeler.export_state()?,
            trained_queries: model.trained_queries,
        })
    }

    fn load_model(&self, json: &str) -> Result<LabelModel> {
        let (name, classes, dim) = (self.spec.name, self.spec.classes, self.embedder.dim());
        let state: LabelState = crate::persist::from_json(json, name)?;
        let labeler = TrainedLabeler::from_state(state.labeler)?;
        let names = labeler.labels().names();
        if labeler.dim() != dim || !(classes.is_empty() || names.iter().eq(classes)) {
            return Err(crate::persist::corrupt(format!(
                "{name} model has dim {} and classes {names:?}; want dim {dim}, classes {classes:?}",
                labeler.dim()
            )));
        }
        Ok(LabelModel {
            app: name,
            labeler,
            trained_queries: state.trained_queries,
        })
    }
}

/// Serialized form of a [`LabelModel`]: the labeler and the training
/// size. The embedder is app state and travels in the snapshot's app
/// header; the app's name is the snapshot section's.
#[derive(serde::Serialize, serde::Deserialize)]
struct LabelState {
    labeler: crate::classifier::LabelerState,
    trained_queries: usize,
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::apps::{AuditApp, DynWorkloadApp, ErrorsApp, ResourcesApp, RoutingApp};
    use querc_embed::BagOfTokens;

    /// A query carrying `labels`.
    pub(crate) fn query(sql: &str, labels: &[(&str, &str)]) -> EnrichedQuery {
        let mut q = EnrichedQuery::from_sql(sql);
        for (name, value) in labels {
            q.set(*name, *value);
        }
        q
    }

    /// `app.label_batch`, unwrapped.
    pub(crate) fn label(
        app: &LabelApp,
        model: &LabelModel,
        batch: &[EnrichedQuery],
    ) -> Vec<AppOutput> {
        app.label_batch(model, batch).unwrap()
    }

    /// The four configurations over one embedder width.
    fn apps(dim: usize) -> [LabelApp; 4] {
        let e: Arc<dyn Embedder> = Arc::new(BagOfTokens::new(dim, true));
        [
            AuditApp::new(Arc::clone(&e)).with_trees(10),
            ErrorsApp::new(Arc::clone(&e)).with_trees(10),
            ResourcesApp::new(Arc::clone(&e)).with_trees(10),
            RoutingApp::new(e).with_trees(10),
        ]
    }

    /// Four query shapes, each with its own user, cluster, runtime and
    /// error rate.
    fn corpus() -> TrainCorpus {
        let shapes = [
            ("select v from kv_store where k = {i}", 5.0),
            (
                "select g, count(*) from mid_table where t > {i} group by g",
                300.0,
            ),
            ("insert into lake_events select * from staging_{i}", 900.0),
            (
                "select a.*, b.* from giant_facts a join giant_facts b on a.k = b.k",
                2000.0,
            ),
        ];
        let records = (0..48u64)
            .map(|i| {
                let (sql, ms) = shapes[i as usize % 4];
                QueryRecord {
                    sql: sql.replace("{i}", &i.to_string()),
                    user: format!("acct/u{}", i % 4),
                    account: "acct".into(),
                    cluster: format!("c{}", i % 2),
                    dialect: "generic".into(),
                    runtime_ms: ms,
                    mem_mb: 1.0,
                    error_code: (i % 4 == 3).then_some(604),
                    timestamp: i,
                }
            })
            .collect();
        TrainCorpus::from_records(records, 9)
    }

    fn batch() -> Vec<EnrichedQuery> {
        vec![
            query("select v from kv_store where k = 7", &[("user", "acct/u0")]),
            query(
                "insert into lake_events select * from staging_7",
                &[("cluster", "c1")],
            ),
            query(
                "select a.*, b.* from giant_facts a join giant_facts b on a.k = b.k",
                &[],
            ),
        ]
    }

    #[test]
    fn every_app_round_trips_and_refuses_a_narrow_embedder() {
        let (corpus, batch) = (corpus(), batch());
        for (app, narrow) in apps(64).into_iter().zip(apps(8)) {
            let model = app.fit(&corpus).unwrap();
            let json = app.save_model(&model).expect("forests are persistable");
            let restored = app.load_model(&json).unwrap();
            assert_eq!(label(&app, &restored, &batch), label(&app, &model, &batch));
            assert_eq!(app.report(&restored), app.report(&model));
            for bad in [narrow.load_model(&json), app.load_model("{broken")] {
                assert!(
                    matches!(bad, Err(QuercError::Corrupt { .. })),
                    "{}",
                    app.spec.name
                );
            }
            assert!(matches!(
                app.fit(&TrainCorpus::default()),
                Err(QuercError::EmptyCorpus { .. })
            ));
        }
    }

    #[test]
    fn an_app_refuses_another_apps_model() {
        let corpus = corpus();
        let apps = apps(64);
        let models: Vec<_> = apps.iter().map(|a| a.fit_dyn(&corpus).unwrap()).collect();
        for (i, app) in apps.iter().enumerate() {
            for (j, model) in models.iter().enumerate() {
                let got = app.label_batch_dyn(model.as_ref(), &batch());
                match got {
                    Ok(out) => assert_eq!((i, out.len()), (j, 3)),
                    Err(QuercError::ModelTypeMismatch { app: name }) => {
                        assert!(i != j);
                        assert_eq!(name, app.spec.name);
                    }
                    Err(e) => panic!("{}: {e}", app.spec.name),
                }
            }
        }
        // The case the shared model type makes possible: an audit model
        // handed to routing.
        assert!(matches!(
            apps[3].label_batch_dyn(models[0].as_ref(), &batch()),
            Err(QuercError::ModelTypeMismatch { app }) if app == "routing"
        ));
    }

    #[test]
    fn fixed_class_order_holds_whatever_the_corpus_and_is_checked_on_load() {
        let mut corpus = corpus();
        // First-seen order would put `true` first and `long` first.
        corpus.records.rotate_left(3);
        let [_, errors, resources, _] = apps(64);
        for (app, want) in [
            (errors, &["false", "true"][..]),
            (resources, &["short", "medium", "long"][..]),
        ] {
            let model = app.fit(&corpus).unwrap();
            assert_eq!(model.labeler().labels().names(), want);
            let json = app.save_model(&model).unwrap();
            let mut state: LabelState = crate::persist::from_json(&json, "test").unwrap();
            state.labeler.labels.swap(0, 1);
            let permuted = crate::persist::to_json(&state).unwrap();
            assert!(matches!(
                app.load_model(&permuted),
                Err(QuercError::Corrupt { .. })
            ));
        }
    }

    #[test]
    fn a_chunk_of_the_wrong_dimension_is_an_error_not_a_panic() {
        let corpus = corpus();
        for app in apps(64) {
            let model = app.fit(&corpus).unwrap();
            let mut q = query("select 1", &[]);
            q.set_vector(app.embedder.cache_namespace(), Arc::new(vec![0.0; 3]));
            assert!(matches!(
                app.label_batch(&model, &[q]),
                Err(QuercError::DimensionMismatch { .. })
            ));
        }
    }
}
