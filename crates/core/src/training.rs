//! The central training module — "Training, Evaluation & Offline
//! Labeling" in the paper's Fig 1.
//!
//! Collects labeled queries from the manager's training mirror
//! ([`crate::service::ServiceDrain::training_log`]) and from exported
//! database logs, trains embedders on the pooled corpus, trains labelers on
//! labeled subsets, and deploys (embedder, labeler) pairs through the
//! [`crate::registry::ModelRegistry`]. Training is an explicit batch
//! call, matching the paper's design choice that Querc is *not* a
//! continuous-learning system ("model training is assumed to occur
//! infrequently as a batch job").

use crate::classifier::{QueryClassifier, TrainedLabeler};
use crate::error::{QuercError, Result};
use crate::labeled::LabeledQuery;
use crate::registry::ModelRegistry;
use querc_embed::{BagOfTokens, Doc2Vec, Doc2VecConfig, Embedder, LstmAutoencoder, LstmConfig};
use querc_learn::{ForestConfig, RandomForest};
use querc_linalg::Pcg32;
use std::sync::Arc;

/// Which representation learner to train.
#[derive(Debug, Clone)]
pub enum EmbedderKind {
    /// Paragraph-vector embedder (the paper's primary model).
    Doc2Vec(Doc2VecConfig),
    /// LSTM-autoencoder embedder (the paper's Fig 2 alternative).
    Lstm(LstmConfig),
    /// Training-free hashed bag of tokens (ablation baseline).
    BagOfTokens {
        /// Output dimensionality of the hashed vector.
        dim: usize,
    },
}

/// Trees in the default random-forest labeler.
const FOREST_TREES: usize = 40;

/// Training-module configuration.
#[derive(Debug, Clone)]
pub struct TrainingConfig {
    /// Master seed for training jobs.
    pub seed: u64,
}

impl Default for TrainingConfig {
    fn default() -> Self {
        TrainingConfig { seed: 0x7a11 }
    }
}

/// Accumulates labeled queries and runs batch training jobs.
pub struct TrainingModule {
    log: Vec<LabeledQuery>,
    cfg: TrainingConfig,
}

impl TrainingModule {
    /// An empty training module with the given configuration.
    pub fn new(cfg: TrainingConfig) -> Self {
        TrainingModule {
            log: Vec::new(),
            cfg,
        }
    }

    /// Record one labeled query.
    pub fn ingest(&mut self, lq: LabeledQuery) {
        self.log.push(lq);
    }

    /// Bulk-load database log exports.
    pub fn ingest_records(&mut self, records: &[querc_workloads::QueryRecord]) {
        self.log
            .extend(records.iter().map(LabeledQuery::from_record));
    }

    /// The accumulated log.
    pub fn log(&self) -> &[LabeledQuery] {
        &self.log
    }

    /// Train an embedder on an explicit corpus of token streams.
    pub fn train_embedder_on(corpus: &[Vec<String>], kind: &EmbedderKind) -> Arc<dyn Embedder> {
        match kind {
            EmbedderKind::Doc2Vec(cfg) => Arc::new(Doc2Vec::train(corpus, cfg.clone())),
            EmbedderKind::Lstm(cfg) => Arc::new(LstmAutoencoder::train(corpus, cfg.clone())),
            EmbedderKind::BagOfTokens { dim } => Arc::new(BagOfTokens::new(*dim, true)),
        }
    }

    /// Train an embedder on the module's whole log (the pooled,
    /// cross-application corpus — the paper's central data advantage).
    pub fn train_embedder(&self, kind: &EmbedderKind) -> Arc<dyn Embedder> {
        let corpus: Vec<Vec<String>> = self.log.iter().map(LabeledQuery::tokens).collect();
        Self::train_embedder_on(&corpus, kind)
    }

    /// Train a labeler for `label` over the queries that carry it.
    /// Returns `None` when no logged query has the label.
    pub fn train_labeler(
        &self,
        embedder: &Arc<dyn Embedder>,
        label: &str,
    ) -> Option<TrainedLabeler> {
        self.try_train_labeler(embedder, label).ok()
    }

    /// Fallible variant of [`TrainingModule::train_labeler`]: reports
    /// *why* training was impossible (no query carries the label, or the
    /// labeled rows were malformed) instead of collapsing to `None`.
    ///
    /// Embeds the labeled subset through the embedder's batched path.
    pub fn try_train_labeler(
        &self,
        embedder: &Arc<dyn Embedder>,
        label: &str,
    ) -> Result<TrainedLabeler> {
        let labeled: Vec<(&LabeledQuery, &str)> = self
            .log
            .iter()
            .filter_map(|lq| lq.get(label).map(|v| (lq, v)))
            .collect();
        if labeled.is_empty() {
            return Err(QuercError::MissingLabel {
                label: label.to_string(),
            });
        }
        let docs: Vec<Vec<String>> = labeled.iter().map(|(lq, _)| lq.tokens()).collect();
        let vectors = embedder.embed_batch(&docs);
        let names: Vec<&str> = labeled.iter().map(|(_, v)| *v).collect();
        let mut rng = Pcg32::with_stream(self.cfg.seed, 0x1ab3);
        TrainedLabeler::try_train(
            RandomForest::new(ForestConfig::extra_trees(FOREST_TREES)),
            &vectors,
            &names,
            &mut rng,
        )
    }

    /// Train and deploy a classifier for `label` in one step. Returns the
    /// deployed version, or `None` when no training data carries `label`.
    pub fn train_and_deploy(
        &self,
        registry: &ModelRegistry,
        embedder: &Arc<dyn Embedder>,
        label: &str,
    ) -> Option<u64> {
        self.try_train_and_deploy(registry, embedder, label).ok()
    }

    /// Fallible variant of [`TrainingModule::train_and_deploy`].
    pub fn try_train_and_deploy(
        &self,
        registry: &ModelRegistry,
        embedder: &Arc<dyn Embedder>,
        label: &str,
    ) -> Result<u64> {
        let labeler = self.try_train_labeler(embedder, label)?;
        let clf = QueryClassifier::new(label, Arc::clone(embedder), labeler);
        Ok(registry.deploy(label, clf))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use querc_embed::VocabConfig;

    fn demo_log() -> Vec<LabeledQuery> {
        (0..40)
            .map(|i| {
                let mut lq = if i % 2 == 0 {
                    LabeledQuery::new(format!("select c{} from sales_orders where k = {i}", i % 4))
                } else {
                    LabeledQuery::new(format!("insert into audit_log values ({i})"))
                };
                lq.set("team", if i % 2 == 0 { "bi" } else { "pipeline" });
                lq
            })
            .collect()
    }

    #[test]
    fn ingest_and_log() {
        let mut tm = TrainingModule::new(TrainingConfig::default());
        for lq in demo_log() {
            tm.ingest(lq);
        }
        assert_eq!(tm.log().len(), 40);
    }

    #[test]
    fn train_deploy_and_serve_roundtrip() {
        let mut tm = TrainingModule::new(TrainingConfig::default());
        for lq in demo_log() {
            tm.ingest(lq);
        }
        let embedder = tm.train_embedder(&EmbedderKind::BagOfTokens { dim: 64 });
        let registry = ModelRegistry::new();
        let v = tm.train_and_deploy(&registry, &embedder, "team").unwrap();
        assert_eq!(v, 1);
        let clf = registry.get("team").unwrap();
        assert_eq!(
            clf.label_sql("select c9 from sales_orders where k = 99"),
            "bi"
        );
        assert_eq!(
            clf.label_sql("insert into audit_log values (7)"),
            "pipeline"
        );
    }

    #[test]
    fn missing_label_yields_none() {
        let mut tm = TrainingModule::new(TrainingConfig::default());
        tm.ingest(LabeledQuery::new("select 1"));
        let embedder = tm.train_embedder(&EmbedderKind::BagOfTokens { dim: 16 });
        assert!(tm.train_labeler(&embedder, "nonexistent").is_none());
        // The fallible path names the missing label.
        let err = match tm.try_train_labeler(&embedder, "nonexistent") {
            Err(e) => e,
            Ok(_) => panic!("label should be missing"),
        };
        assert!(matches!(err, QuercError::MissingLabel { ref label } if label == "nonexistent"));
    }

    #[test]
    fn doc2vec_kind_trains_via_module() {
        let mut tm = TrainingModule::new(TrainingConfig::default());
        for lq in demo_log() {
            tm.ingest(lq);
        }
        let cfg = Doc2VecConfig {
            dim: 16,
            epochs: 5,
            vocab: VocabConfig {
                min_count: 1,
                max_size: 200,
                hash_buckets: 32,
            },
            ..Default::default()
        };
        let embedder = tm.train_embedder(&EmbedderKind::Doc2Vec(cfg));
        assert_eq!(embedder.dim(), 16);
        assert_eq!(embedder.name(), "doc2vec");
    }

    #[test]
    fn ingest_records_imports_labels() {
        let mut tm = TrainingModule::new(TrainingConfig::default());
        let records = vec![querc_workloads::QueryRecord {
            sql: "select 1".into(),
            user: "u".into(),
            account: "a".into(),
            cluster: "c".into(),
            dialect: "generic".into(),
            runtime_ms: 1.0,
            mem_mb: 1.0,
            error_code: None,
            timestamp: 0,
        }];
        tm.ingest_records(&records);
        assert_eq!(tm.log()[0].get("account"), Some("a"));
    }
}
