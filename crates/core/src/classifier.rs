//! Classifiers: pre-trained (embedder, labeler) pairs.
//!
//! The split is the architectural point of the paper (§2): one embedder —
//! trained once on a large combined workload — can serve many labelers,
//! each trained on a small application-specific labeled set. Labelers map
//! vectors to *string* labels through a [`LabelMap`], because everything
//! downstream (audit verdicts, routing decisions) speaks in names, not
//! class ids.

use crate::error::{QuercError, Result};
use querc_embed::Embedder;
use querc_learn::Classifier;
use querc_linalg::Pcg32;
use std::collections::HashMap;
use std::sync::Arc;

/// Bidirectional label-name ↔ class-id mapping.
#[derive(Debug, Clone, Default)]
pub struct LabelMap {
    to_id: HashMap<String, u32>,
    names: Vec<String>,
}

impl LabelMap {
    /// Build from a label column, assigning ids in first-seen order.
    pub fn from_labels<'a, I: IntoIterator<Item = &'a str>>(labels: I) -> (LabelMap, Vec<u32>) {
        let mut map = LabelMap::default();
        let ids = labels.into_iter().map(|l| map.intern(l)).collect();
        (map, ids)
    }

    /// Get or create the id for a name.
    pub fn intern(&mut self, name: &str) -> u32 {
        if let Some(&id) = self.to_id.get(name) {
            return id;
        }
        let id = self.names.len() as u32;
        self.to_id.insert(name.to_string(), id);
        self.names.push(name.to_string());
        id
    }

    /// Id of a known name.
    pub fn id(&self, name: &str) -> Option<u32> {
        self.to_id.get(name).copied()
    }

    /// Name of an id.
    pub fn name(&self, id: u32) -> Option<&str> {
        self.names.get(id as usize).map(String::as_str)
    }

    /// Number of classes.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// True when no classes have been registered.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Label names in id order (`names()[id as usize]` is `name(id)`).
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// Rebuild a map from names in id order — the inverse of
    /// [`LabelMap::names`]. Returns `None` when the list repeats a name
    /// (ids would silently shift), which a well-formed export never does.
    pub fn from_names(names: &[String]) -> Option<LabelMap> {
        let mut map = LabelMap::default();
        for (i, n) in names.iter().enumerate() {
            if map.intern(n) != i as u32 {
                return None;
            }
        }
        Some(map)
    }
}

/// A trained labeler: a `querc-learn` model plus its label vocabulary.
pub struct TrainedLabeler {
    model: Box<dyn Classifier>,
    labels: LabelMap,
    /// Input dimensionality seen at training time, guarded on predict.
    dim: usize,
}

impl TrainedLabeler {
    /// Train `model` to map `vectors[i]` to `label_names[i]`.
    ///
    /// Thin wrapper over [`TrainedLabeler::try_train`] for callers that
    /// construct their inputs; panics with the underlying
    /// [`QuercError`] message on malformed data.
    pub fn train<C: Classifier + 'static>(
        model: C,
        vectors: &[Vec<f32>],
        label_names: &[&str],
        rng: &mut Pcg32,
    ) -> TrainedLabeler {
        Self::try_train(model, vectors, label_names, rng).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible training: reports empty corpora, row/label mismatches,
    /// and ragged vector dimensions instead of panicking downstream.
    /// Class ids follow first-seen order.
    pub fn try_train<C: Classifier + 'static>(
        model: C,
        vectors: &[Vec<f32>],
        label_names: &[&str],
        rng: &mut Pcg32,
    ) -> Result<TrainedLabeler> {
        Self::try_train_classes(model, vectors, &[], label_names, rng)
    }

    /// [`TrainedLabeler::try_train`] with fixed ids for `classes`: they
    /// take ids `0..classes.len()` in the order given, whether or not
    /// the corpus holds them, and any other name follows in first-seen
    /// order. The id order decides which class wins a tied vote.
    pub fn try_train_classes<C: Classifier + 'static>(
        mut model: C,
        vectors: &[Vec<f32>],
        classes: &[&str],
        label_names: &[&str],
        rng: &mut Pcg32,
    ) -> Result<TrainedLabeler> {
        if vectors.is_empty() {
            return Err(QuercError::EmptyCorpus {
                context: "labeler.train",
            });
        }
        if vectors.len() != label_names.len() {
            return Err(QuercError::LabelMismatch {
                vectors: vectors.len(),
                labels: label_names.len(),
            });
        }
        let dim = vectors[0].len();
        if let Some(bad) = vectors.iter().find(|v| v.len() != dim) {
            return Err(QuercError::DimensionMismatch {
                context: "labeler.train",
                expected: dim,
                got: bad.len(),
            });
        }
        let mut labels = LabelMap::default();
        for class in classes {
            labels.intern(class);
        }
        let ids: Vec<u32> = label_names.iter().map(|l| labels.intern(l)).collect();
        model.fit(vectors, &ids, labels.len().max(1), rng);
        Ok(TrainedLabeler {
            model: Box::new(model),
            labels,
            dim,
        })
    }

    /// Predict the label name for a vector.
    pub fn predict(&self, v: &[f32]) -> &str {
        self.try_predict(v).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible prediction: rejects vectors of the wrong dimensionality
    /// (the former silent-corruption / index-panic path).
    pub fn try_predict(&self, v: &[f32]) -> Result<&str> {
        if v.len() != self.dim {
            return Err(QuercError::DimensionMismatch {
                context: "labeler.predict",
                expected: self.dim,
                got: v.len(),
            });
        }
        let id = self.model.predict(v);
        Ok(self.labels.name(id).unwrap_or("<unknown>"))
    }

    /// Predict label names for a chunk of borrowed vectors through the
    /// model's batched path ([`Classifier::predict_batch_refs`]) — one
    /// call into the model per chunk, so an index-backed model (kNN
    /// over a `querc_index::VectorIndex`) amortizes a single
    /// `search_batch` across the whole chunk. Rejects any vector of the
    /// wrong dimensionality before touching the model.
    pub fn try_predict_refs(&self, vectors: &[&[f32]]) -> Result<Vec<&str>> {
        self.check_dims(vectors)?;
        Ok(self
            .model
            .predict_batch_refs(vectors)
            .into_iter()
            .map(|id| self.labels.name(id).unwrap_or("<unknown>"))
            .collect())
    }

    /// Class probabilities for a chunk of borrowed vectors: `out[i][id]`
    /// is the model's vote share for class `id` on `vectors[i]`, one
    /// entry per label. For a forest or a tree, a row's argmax (first of
    /// a tie) is the class [`TrainedLabeler::try_predict_refs`] names.
    /// Rejects any vector of the wrong dimensionality before touching
    /// the model.
    pub fn try_proba_refs(&self, vectors: &[&[f32]]) -> Result<Vec<Vec<f32>>> {
        self.check_dims(vectors)?;
        let n_classes = self.labels.len().max(1);
        Ok(vectors
            .iter()
            .map(|v| self.model.predict_proba(v, n_classes))
            .collect())
    }

    fn check_dims(&self, vectors: &[&[f32]]) -> Result<()> {
        match vectors.iter().find(|v| v.len() != self.dim) {
            Some(v) => Err(QuercError::DimensionMismatch {
                context: "labeler.predict",
                expected: self.dim,
                got: v.len(),
            }),
            None => Ok(()),
        }
    }

    /// Input dimensionality the labeler was trained on.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The label vocabulary.
    pub fn labels(&self) -> &LabelMap {
        &self.labels
    }

    /// Serialize for a snapshot. `None` when the underlying model has no
    /// persistence support (it then simply refits after a restore).
    pub fn export_state(&self) -> Option<LabelerState> {
        Some(LabelerState {
            classifier: self.model.export_state()?,
            labels: self.labels.names().to_vec(),
            dim: self.dim,
        })
    }

    /// Rebuild from [`TrainedLabeler::export_state`] output, validating
    /// the model's shape against `state.dim` so a corrupt-but-parseable
    /// snapshot surfaces [`QuercError::Corrupt`] instead of an index
    /// panic at label time. The restored labeler predicts bit-identically
    /// to the exported one.
    pub fn from_state(state: LabelerState) -> Result<TrainedLabeler> {
        if state.dim == 0 {
            return Err(QuercError::Corrupt {
                detail: "labeler state: dim must be positive".to_string(),
            });
        }
        crate::persist::check_classifier_dim(&state.classifier, state.dim)?;
        let labels = LabelMap::from_names(&state.labels).ok_or_else(|| QuercError::Corrupt {
            detail: "labeler state: duplicate label names".to_string(),
        })?;
        let model = state
            .classifier
            .into_classifier()
            .map_err(|e| QuercError::Corrupt {
                detail: format!("labeler state: {e}"),
            })?;
        Ok(TrainedLabeler {
            model,
            labels,
            dim: state.dim,
        })
    }
}

/// Serializable snapshot of a [`TrainedLabeler`]: the model's exported
/// state plus the label vocabulary and training dimensionality.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct LabelerState {
    /// The underlying `querc-learn` model's snapshot.
    pub classifier: querc_learn::ClassifierState,
    /// Label names in class-id order.
    pub labels: Vec<String>,
    /// Input dimensionality the labeler was trained on.
    pub dim: usize,
}

/// A deployable classifier: (embedder, labeler) with the label name it
/// attaches (e.g. `user`, `cluster`, `resource_class`).
pub struct QueryClassifier {
    /// The label this classifier attaches to queries.
    pub label_name: String,
    embedder: Arc<dyn Embedder>,
    labeler: TrainedLabeler,
}

impl QueryClassifier {
    /// Assemble a classifier from a trained (embedder, labeler) pair.
    pub fn new(
        label_name: impl Into<String>,
        embedder: Arc<dyn Embedder>,
        labeler: TrainedLabeler,
    ) -> Self {
        QueryClassifier {
            label_name: label_name.into(),
            embedder,
            labeler,
        }
    }

    /// Label one SQL text.
    pub fn label_sql(&self, sql: &str) -> String {
        let v = self.embedder.embed_sql(sql);
        self.labeler.predict(&v).to_string()
    }

    /// Label a chunk of **precomputed** vectors. `vectors[i]` must come
    /// from this classifier's embedder (same
    /// [`querc_embed::Embedder::cache_namespace`]); the output is then
    /// identical to [`QueryClassifier::label_sql`] on each query. The
    /// whole chunk goes through the labeler's batched path in **one**
    /// call ([`TrainedLabeler::try_predict_refs`]), so index-backed
    /// models run a single `search_batch` per chunk. Panics when the
    /// vectors' dimension is not the labeler's; the manager's shard
    /// workers call `try_predict_refs` directly and label such a chunk
    /// `classifier_error` instead.
    pub fn label_vectors_batch(&self, vectors: &[Arc<Vec<f32>>]) -> Vec<String> {
        let refs: Vec<&[f32]> = vectors.iter().map(|v| v.as_slice()).collect();
        self.labeler
            .try_predict_refs(&refs)
            .unwrap_or_else(|e| panic!("{e}"))
            .into_iter()
            .map(str::to_string)
            .collect()
    }

    /// The embedder half (shared across classifiers).
    pub fn embedder(&self) -> &Arc<dyn Embedder> {
        &self.embedder
    }

    /// The labeler half — what the persistence plane snapshots.
    pub fn labeler(&self) -> &TrainedLabeler {
        &self.labeler
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use querc_embed::BagOfTokens;
    use querc_learn::{ForestConfig, RandomForest};

    #[test]
    fn label_map_roundtrip() {
        let (map, ids) = LabelMap::from_labels(["a", "b", "a", "c"]);
        assert_eq!(ids, vec![0, 1, 0, 2]);
        assert_eq!(map.len(), 3);
        assert_eq!(map.name(1), Some("b"));
        assert_eq!(map.id("c"), Some(2));
        assert_eq!(map.id("zzz"), None);
    }

    fn train_demo_classifier() -> QueryClassifier {
        let embedder: Arc<dyn Embedder> = Arc::new(BagOfTokens::new(64, true));
        // Train: "select from sales_*" → team-a, "insert into logs" → team-b.
        let sqls: Vec<String> = (0..30)
            .map(|i| {
                if i % 2 == 0 {
                    format!("select col{} from sales_orders where x = {}", i % 5, i)
                } else {
                    format!("insert into app_logs values ({i}, 'event')")
                }
            })
            .collect();
        let labels: Vec<&str> = (0..30)
            .map(|i| if i % 2 == 0 { "team-a" } else { "team-b" })
            .collect();
        let vectors: Vec<Vec<f32>> = sqls.iter().map(|s| embedder.embed_sql(s)).collect();
        let labeler = TrainedLabeler::train(
            RandomForest::new(ForestConfig::extra_trees(15)),
            &vectors,
            &labels,
            &mut Pcg32::new(1),
        );
        QueryClassifier::new("team", embedder, labeler)
    }

    #[test]
    fn classifier_labels_unseen_queries() {
        let clf = train_demo_classifier();
        assert_eq!(
            clf.label_sql("select col9 from sales_orders where x = 999"),
            "team-a"
        );
        assert_eq!(
            clf.label_sql("insert into app_logs values (77, 'other')"),
            "team-b"
        );
    }

    #[test]
    fn label_sql_and_label_vectors_batch_agree() {
        let clf = train_demo_classifier();
        let sql = "select col1 from sales_orders where x = 5";
        let v = Arc::new(clf.embedder().embed(&querc_embed::sql_tokens(sql)));
        assert_eq!(clf.label_vectors_batch(&[v]), [clf.label_sql(sql)]);
    }

    #[test]
    fn label_vectors_batch_matches_single_path() {
        // One batched call over a chunk labels each query as a one-query
        // chunk would, and as label_sql does.
        let clf = train_demo_classifier();
        let sqls = [
            "select col1 from sales_orders where x = 5",
            "insert into app_logs values (9, 'event')",
            "select col4 from sales_orders where x = 77",
        ];
        let vectors: Vec<Arc<Vec<f32>>> = sqls
            .iter()
            .map(|s| Arc::new(clf.embedder().embed_sql(s)))
            .collect();
        let batch = clf.label_vectors_batch(&vectors);
        for ((sql, v), label) in sqls.iter().zip(&vectors).zip(&batch) {
            let alone = clf.label_vectors_batch(std::slice::from_ref(v));
            assert_eq!(alone.as_slice(), std::slice::from_ref(label));
            assert_eq!(*label, clf.label_sql(sql));
        }
    }

    #[test]
    fn label_vectors_batch_matches_token_path() {
        // Vectors from the embedder's batched path label exactly as the
        // labeler does on each query's tokens embedded one at a time.
        let clf = train_demo_classifier();
        let sqls = [
            "select col1 from sales_orders where x = 5",
            "insert into app_logs values (9, 'event')",
            "select col4 from sales_orders where x = 77",
        ];
        let docs: Vec<Vec<String>> = sqls.iter().map(|s| querc_embed::sql_tokens(s)).collect();
        let vectors: Vec<Arc<Vec<f32>>> = clf
            .embedder()
            .embed_batch(&docs)
            .into_iter()
            .map(Arc::new)
            .collect();
        let batch = clf.label_vectors_batch(&vectors);
        let single: Vec<&str> = docs
            .iter()
            .map(|d| clf.labeler().predict(&clf.embedder().embed(d)))
            .collect();
        assert_eq!(batch, single);
        assert_eq!(batch, ["team-a", "team-b", "team-a"]);
    }

    #[test]
    fn try_train_reports_malformed_inputs() {
        use crate::error::QuercError;
        use querc_learn::{ForestConfig, RandomForest};
        let mut rng = Pcg32::new(1);
        let empty = TrainedLabeler::try_train(
            RandomForest::new(ForestConfig::extra_trees(2)),
            &[],
            &[],
            &mut rng,
        );
        assert!(matches!(empty, Err(QuercError::EmptyCorpus { .. })));
        let mismatched = TrainedLabeler::try_train(
            RandomForest::new(ForestConfig::extra_trees(2)),
            &[vec![0.0; 4]],
            &["a", "b"],
            &mut rng,
        );
        assert!(matches!(mismatched, Err(QuercError::LabelMismatch { .. })));
        let ragged = TrainedLabeler::try_train(
            RandomForest::new(ForestConfig::extra_trees(2)),
            &[vec![0.0; 4], vec![0.0; 3]],
            &["a", "b"],
            &mut rng,
        );
        assert!(matches!(
            ragged,
            Err(QuercError::DimensionMismatch {
                expected: 4,
                got: 3,
                ..
            })
        ));
    }

    #[test]
    fn knn_labeler_batches_through_one_index_search() {
        use querc_learn::{Knn, KnnMetric};
        let embedder: Arc<dyn Embedder> = Arc::new(BagOfTokens::new(32, false));
        let sqls = [
            "select a from sales_orders",
            "insert into app_logs values (1)",
            "select b from sales_orders",
            "insert into app_logs values (2)",
        ];
        let labels = ["read", "write", "read", "write"];
        let docs: Vec<Vec<String>> = sqls.iter().map(|s| querc_embed::sql_tokens(s)).collect();
        let vectors = embedder.embed_batch(&docs);
        let labeler = TrainedLabeler::train(
            Knn::new(1, KnnMetric::Euclidean),
            &vectors,
            &labels,
            &mut Pcg32::new(3),
        );
        let clf = QueryClassifier::new("kind", embedder, labeler);
        let arcs: Vec<Arc<Vec<f32>>> = clf
            .embedder()
            .embed_batch(&docs)
            .into_iter()
            .map(Arc::new)
            .collect();
        assert_eq!(
            clf.label_vectors_batch(&arcs),
            vec!["read", "write", "read", "write"]
        );
        // Ragged chunk is rejected up front, not deep in the index.
        let refs = [vectors[0].as_slice(), &vectors[1][..7]];
        assert!(matches!(
            clf.labeler.try_predict_refs(&refs),
            Err(crate::error::QuercError::DimensionMismatch { got: 7, .. })
        ));
    }

    #[test]
    fn try_predict_rejects_wrong_dimension() {
        use crate::error::QuercError;
        use querc_learn::{ForestConfig, RandomForest};
        let mut rng = Pcg32::new(2);
        let labeler = TrainedLabeler::try_train(
            RandomForest::new(ForestConfig::extra_trees(2)),
            &[vec![0.0; 4], vec![1.0; 4]],
            &["a", "b"],
            &mut rng,
        )
        .unwrap();
        assert_eq!(labeler.dim(), 4);
        assert!(labeler.try_predict(&[0.0; 4]).is_ok());
        assert!(matches!(
            labeler.try_predict(&[0.0; 7]),
            Err(QuercError::DimensionMismatch {
                expected: 4,
                got: 7,
                ..
            })
        ));
    }

    #[test]
    fn labeler_state_round_trips_bit_identically() {
        let clf = train_demo_classifier();
        let state = clf.labeler().export_state().expect("forest is persistable");
        let restored = TrainedLabeler::from_state(state).unwrap();
        for sql in [
            "select col2 from sales_orders where x = 11",
            "insert into app_logs values (3, 'event')",
        ] {
            let v = clf.embedder().embed_sql(sql);
            assert_eq!(clf.labeler().predict(&v), restored.predict(&v));
        }
        assert_eq!(restored.dim(), clf.labeler().dim());
        assert_eq!(restored.labels().names(), clf.labeler().labels().names());
    }

    #[test]
    fn labeler_state_rejects_bad_shapes() {
        let clf = train_demo_classifier();
        let good = clf.labeler().export_state().unwrap();

        // A forest splitting on features past the advertised dim would
        // index-panic at predict time; restore must reject it instead.
        let mut narrow = good.clone();
        narrow.dim = 1;
        assert!(matches!(
            TrainedLabeler::from_state(narrow),
            Err(QuercError::Corrupt { .. })
        ));

        let mut dup = good.clone();
        dup.labels = vec!["x".to_string(), "x".to_string()];
        assert!(matches!(
            TrainedLabeler::from_state(dup),
            Err(QuercError::Corrupt { .. })
        ));

        let mut zero = good;
        zero.dim = 0;
        assert!(matches!(
            TrainedLabeler::from_state(zero),
            Err(QuercError::Corrupt { .. })
        ));
    }
}
