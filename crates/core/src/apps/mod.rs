//! Applications — the paper's §4 use cases behind one uniform trait.
//!
//! The paper's core claim is that *every* workload-management task
//! reduces to query labeling. This module makes that claim the API:
//! each application implements [`WorkloadApp`] — fit a model from a
//! [`TrainCorpus`], label query batches into [`AppOutput`]s, describe
//! itself with an [`AppReport`] — and is served uniformly by the
//! [`crate::service::WorkloadManager`] (paper Fig 1's Qworker fabric).
//!
//! * [`label`] — one [`LabelApp`] (embed → extra-trees forest → labels
//!   per query) in four configurations: [`AuditApp`] (user prediction
//!   for security auditing, §5.2, with [`audit::per_account_accuracy`]
//!   for Table 2), [`RoutingApp`] (routing-policy misconfiguration
//!   detection), [`ErrorsApp`] (error prediction from syntax) and
//!   [`ResourcesApp`] (coarse runtime classes, bucketed by
//!   [`resources::ResourceBuckets`]);
//! * [`cluster`] — one [`ClusterApp`] (embed → k-means → one witness
//!   query per cluster → the nearest centroid and one SQL string per
//!   query) in two configurations: [`SummarizeApp`] (workload
//!   summarization for index recommendation, §5.1's headline
//!   experiment, labeling each query with its cluster's witness) and
//!   [`RecommendApp`] (next-query recommendation, labeling each query
//!   with the witness of the cluster that most often follows its own
//!   in per-user sessions).
//!
//! The paper binaries, examples and tests call these apps directly.
//! The offline summarizer [`summarize::summarize_workload`] returns the
//! witness indices of a workload and shares the app's k → k-means →
//! witnesses step; its syntactic k-medoids and random-sample baselines
//! stand alone.
//!
//! Apps label [`crate::EnrichedQuery`] batches: the enriched envelope
//! carries memoized tokens and (when the query came through the
//! manager's ingress embed plane) a precomputed embedding vector, so an
//! app only embeds when no upstream component already did. Every app is
//! fit/label/report — usable directly, without a manager:
//!
//! ```
//! use querc::apps::{ResourcesApp, TrainCorpus, WorkloadApp};
//! use querc::EnrichedQuery;
//! use querc_workloads::{SnowCloud, SnowCloudConfig};
//! use std::sync::Arc;
//!
//! let wl = SnowCloud::generate(&SnowCloudConfig::pretrain(2, 40, 7));
//! let corpus = TrainCorpus::from_records(wl.records.clone(), 7);
//! let app = ResourcesApp::new(Arc::new(querc_embed::BagOfTokens::new(64, true)));
//!
//! let model = app.fit(&corpus).unwrap();
//! let batch = [EnrichedQuery::from_sql("select 1")];
//! let outputs = app.label_batch(&model, &batch).unwrap();
//! assert_eq!(outputs.len(), 1);
//! assert!(outputs[0].get("resource_class").is_some());
//! assert_eq!(app.report(&model).trained_queries, corpus.len());
//! ```

pub mod audit;
pub mod cluster;
pub mod errors;
pub mod label;
pub mod recommend;
pub mod resources;
pub mod routing;
pub mod summarize;

pub use audit::AuditApp;
pub use cluster::{ClusterApp, ClusterModel};
pub use errors::ErrorsApp;
pub use label::{LabelApp, LabelModel};
pub use recommend::RecommendApp;
pub use resources::ResourcesApp;
pub use routing::RoutingApp;
pub use summarize::SummarizeApp;

use crate::enriched::EnrichedQuery;
use crate::error::{QuercError, Result};
use crate::labeled::LabeledQuery;
use querc_embed::Embedder;
use querc_workloads::QueryRecord;
use std::any::Any;
use std::sync::Arc;

/// Training input shared by every application: labeled log records and
/// the master seed.
#[derive(Debug, Clone, Default)]
pub struct TrainCorpus {
    /// Labeled log records — the `(Q, c1, c2, …)` tuples of §2.
    pub records: Vec<QueryRecord>,
    /// Master seed; each app derives its own stream from it.
    pub seed: u64,
}

impl TrainCorpus {
    /// A corpus of `records` under `seed`.
    pub fn from_records(records: Vec<QueryRecord>, seed: u64) -> TrainCorpus {
        TrainCorpus { records, seed }
    }

    /// Number of training records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when the corpus holds no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Normalized token streams of every record (embedder input).
    pub fn token_corpus(&self) -> Vec<Vec<String>> {
        self.records.iter().map(|r| r.tokens()).collect()
    }

    /// Guard used by app `fit` implementations.
    pub(crate) fn require_records(&self, context: &'static str) -> Result<()> {
        if self.records.is_empty() {
            Err(QuercError::EmptyCorpus { context })
        } else {
            Ok(())
        }
    }
}

/// Labels an application attaches to one query — the `ci` components of
/// the paper's labeled-query tuple, produced app-side.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AppOutput {
    /// `(label name, value)` pairs in attachment order.
    pub labels: Vec<(String, String)>,
}

impl AppOutput {
    /// An output with no labels attached yet.
    pub fn new() -> AppOutput {
        AppOutput::default()
    }

    /// Attach or replace a label.
    pub fn set(&mut self, name: impl Into<String>, value: impl Into<String>) -> &mut Self {
        let name = name.into();
        let value = value.into();
        match self.labels.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.labels.push((name, value)),
        }
        self
    }

    /// First value of a label, if attached.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.labels
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// Merge these labels into a query (serving-path sink).
    pub fn apply_to(&self, lq: &mut LabeledQuery) {
        for (name, value) in &self.labels {
            lq.set(name.clone(), value.clone());
        }
    }
}

/// A fitted model's self-description, surfaced by the manager.
#[derive(Debug, Clone, PartialEq)]
pub struct AppReport {
    /// Application name (registration key).
    pub app: String,
    /// One-line task description.
    pub task: String,
    /// Queries the model was fitted on.
    pub trained_queries: usize,
    /// App-specific `(key, value)` diagnostics.
    pub detail: Vec<(String, String)>,
}

/// One workload-management task expressed as query labeling.
///
/// Implementations are *stateless configurations*: `fit` produces the
/// trained model as a value, so one app instance can train against many
/// corpora and replicated Qworkers can share one immutable model behind
/// an `Arc`. All methods that can fail report [`QuercError`] — no
/// panicking paths are reachable from the serving fabric.
pub trait WorkloadApp: Send + Sync {
    /// The trained-model artifact `fit` produces.
    type Model: Send + Sync + 'static;

    /// Registration key (e.g. `"audit"`).
    fn name(&self) -> &'static str;

    /// One-line task description for reports.
    fn task(&self) -> &'static str;

    /// Train a model from the corpus.
    fn fit(&self, corpus: &TrainCorpus) -> Result<Self::Model>;

    /// Label a batch of queries. Must return exactly `batch.len()`
    /// outputs, `outputs[i]` belonging to `batch[i]`.
    ///
    /// Implementations obtain vectors with [`EnrichedQuery::vectors`]:
    /// a vector precomputed under the app embedder's cache namespace
    /// (the manager's ingress embed plane, or an earlier consumer in the
    /// same worker) is reused as-is, and only the remainder is embedded —
    /// in one [`querc_embed::Embedder::embed_batch`] call over the
    /// memoized token streams. Either way the labels are identical:
    /// caching is an amortization, never a semantic change.
    fn label_batch(&self, model: &Self::Model, batch: &[EnrichedQuery]) -> Result<Vec<AppOutput>>;

    /// The embedder this app labels through, if it has exactly one. The
    /// manager embeds through it **at ingress** (batched, via the shared
    /// vector cache) so that by the time a chunk reaches the app shard
    /// the vectors are already attached. `None` (the default) opts out
    /// of ingress embedding; the app then embeds inside `label_batch`.
    fn embedder(&self) -> Option<Arc<dyn Embedder>> {
        None
    }

    /// Live search counters of the fitted model's vector index, if the
    /// app serves nearest-neighbor lookups through the
    /// `querc_index::VectorIndex` plane (default `None`). The manager
    /// surfaces this next to the embed-cache hit-rates in
    /// [`crate::service::AppThroughput::index`].
    fn index_stats(&self, _model: &Self::Model) -> Option<querc_index::IndexStats> {
        None
    }

    /// Describe a fitted model.
    fn report(&self, model: &Self::Model) -> AppReport;

    /// Serialize a fitted model for a snapshot (the persistence plane's
    /// checkpoint path). `None` — the default — opts the app out of
    /// persistence: it is skipped at checkpoint time and refits after a
    /// restore.
    fn save_model(&self, _model: &Self::Model) -> Option<String> {
        None
    }

    /// Rebuild a fitted model from [`WorkloadApp::save_model`] output.
    /// Implementations must **validate** everything label-time code
    /// trusts (matrix shapes, index bounds, the embedder's
    /// dimensionality) and surface [`QuercError::Corrupt`] on anything
    /// off — a snapshot section that passed its CRC can still be
    /// adversarially or bit-rot wrong. The restored model must label
    /// bit-identically to the saved one.
    fn load_model(&self, _json: &str) -> Result<Self::Model> {
        Err(QuercError::Corrupt {
            detail: format!("app `{}` does not support model restore", self.name()),
        })
    }
}

/// Object-safe erasure of [`WorkloadApp`] — what the manager stores.
/// Blanket-implemented for every `WorkloadApp`, so user code only ever
/// implements the typed trait.
pub trait DynWorkloadApp: Send + Sync {
    /// Registration key (see [`WorkloadApp::name`]).
    fn name(&self) -> &'static str;
    /// Type-erased [`WorkloadApp::fit`].
    fn fit_dyn(&self, corpus: &TrainCorpus) -> Result<Box<dyn Any + Send + Sync>>;
    /// Type-erased [`WorkloadApp::label_batch`]; fails with
    /// [`QuercError::ModelTypeMismatch`] if `model` was fitted by a
    /// different app ([`LabelApp`]'s and [`ClusterApp`]'s configurations
    /// each share one model type, and their `label_batch` checks which
    /// app fitted the model).
    fn label_batch_dyn(
        &self,
        model: &(dyn Any + Send + Sync),
        batch: &[EnrichedQuery],
    ) -> Result<Vec<AppOutput>>;
    /// Type-erased [`WorkloadApp::embedder`].
    fn embedder_dyn(&self) -> Option<Arc<dyn Embedder>>;
    /// Type-erased [`WorkloadApp::index_stats`]; `None` for apps without
    /// an index plane (or on a model-type mismatch).
    fn index_stats_dyn(&self, model: &(dyn Any + Send + Sync)) -> Option<querc_index::IndexStats>;
    /// Type-erased [`WorkloadApp::report`].
    fn report_dyn(&self, model: &(dyn Any + Send + Sync)) -> Result<AppReport>;
    /// Type-erased [`WorkloadApp::save_model`]; `None` when the app opts
    /// out of persistence (or on a model-type mismatch).
    fn save_model_dyn(&self, model: &(dyn Any + Send + Sync)) -> Option<String>;
    /// Type-erased [`WorkloadApp::load_model`].
    fn load_model_dyn(&self, json: &str) -> Result<Box<dyn Any + Send + Sync>>;
}

impl<A: WorkloadApp> DynWorkloadApp for A {
    fn name(&self) -> &'static str {
        WorkloadApp::name(self)
    }

    fn fit_dyn(&self, corpus: &TrainCorpus) -> Result<Box<dyn Any + Send + Sync>> {
        Ok(Box::new(self.fit(corpus)?))
    }

    fn label_batch_dyn(
        &self,
        model: &(dyn Any + Send + Sync),
        batch: &[EnrichedQuery],
    ) -> Result<Vec<AppOutput>> {
        let model =
            model
                .downcast_ref::<A::Model>()
                .ok_or_else(|| QuercError::ModelTypeMismatch {
                    app: WorkloadApp::name(self).to_string(),
                })?;
        self.label_batch(model, batch)
    }

    fn embedder_dyn(&self) -> Option<Arc<dyn Embedder>> {
        self.embedder()
    }

    fn index_stats_dyn(&self, model: &(dyn Any + Send + Sync)) -> Option<querc_index::IndexStats> {
        self.index_stats(model.downcast_ref::<A::Model>()?)
    }

    fn report_dyn(&self, model: &(dyn Any + Send + Sync)) -> Result<AppReport> {
        let model =
            model
                .downcast_ref::<A::Model>()
                .ok_or_else(|| QuercError::ModelTypeMismatch {
                    app: WorkloadApp::name(self).to_string(),
                })?;
        Ok(self.report(model))
    }

    fn save_model_dyn(&self, model: &(dyn Any + Send + Sync)) -> Option<String> {
        self.save_model(model.downcast_ref::<A::Model>()?)
    }

    fn load_model_dyn(&self, json: &str) -> Result<Box<dyn Any + Send + Sync>> {
        Ok(Box::new(self.load_model(json)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn app_output_set_get_apply() {
        let mut out = AppOutput::new();
        out.set("resource_class", "short").set("x", "1");
        out.set("x", "2");
        assert_eq!(out.get("x"), Some("2"));
        assert_eq!(out.labels.len(), 2);
        let mut lq = LabeledQuery::new("select 1");
        out.apply_to(&mut lq);
        assert_eq!(lq.get("resource_class"), Some("short"));
    }

    #[test]
    fn empty_corpus_guard() {
        let corpus = TrainCorpus::default();
        assert!(corpus.is_empty());
        assert!(matches!(
            corpus.require_records("t"),
            Err(QuercError::EmptyCorpus { context: "t" })
        ));
    }
}
