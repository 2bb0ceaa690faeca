//! # querc-learn
//!
//! Off-the-shelf classifiers over dense feature vectors — the "labeler"
//! half of Querc's (embedder, labeler) classifier pairs.
//!
//! The paper's point is that once queries are numeric vectors, *simple*
//! machine learning suffices: its §5.2 uses randomized decision trees.
//! This crate provides that ([`forest::RandomForest`] with extra-trees
//! splits) plus a linear softmax baseline, k-nearest-neighbours, the usual
//! classification metrics, and stratified k-fold cross-validation used by
//! the Table 1/2 experiments.
//!
//! Everything is deterministic under a caller-supplied [`querc_linalg::Pcg32`].

pub mod cv;
pub mod forest;
pub mod knn;
pub mod linear;
pub mod metrics;
pub mod state;
pub mod tree;

pub use cv::{cross_val_accuracy, stratified_folds};
pub use forest::{ForestConfig, RandomForest};
pub use knn::{Knn, KnnBackend, KnnMetric};
pub use linear::SoftmaxRegression;
pub use metrics::{accuracy, confusion_matrix, macro_f1, ClassMetrics};
pub use state::{ClassifierState, ForestState, KnnState, SoftmaxState, TreeState};
pub use tree::{DecisionTree, SplitStrategy, TreeConfig};

use querc_linalg::Pcg32;

/// Failures the fallible classifier constructors report (the legacy
/// constructors keep their panicking signatures but panic with these
/// messages). `querc` converts this into its workspace-wide
/// `QuercError`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LearnError {
    /// A neighborhood size of zero was requested (`k` must be ≥ 1).
    InvalidK {
        /// The rejected `k`.
        k: usize,
    },
    /// A persisted classifier state failed validation on restore
    /// (out-of-range tree indices, mismatched shapes, bad labels) —
    /// see [`state`].
    BadState {
        /// What failed to validate.
        detail: String,
    },
}

impl std::fmt::Display for LearnError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LearnError::InvalidK { k } => {
                write!(f, "knn requires k >= 1, got k = {k}")
            }
            LearnError::BadState { detail } => {
                write!(f, "invalid classifier state: {detail}")
            }
        }
    }
}

impl std::error::Error for LearnError {}

/// A trainable multi-class classifier over dense `f32` features.
///
/// `fit` receives the full training matrix; `predict` classifies one row.
/// Implementations must be deterministic given the RNG passed to `fit`.
pub trait Classifier: Send + Sync {
    /// Train on `x[i]` → `y[i]`, with labels in `0..n_classes`.
    fn fit(&mut self, x: &[Vec<f32>], y: &[u32], n_classes: usize, rng: &mut Pcg32);

    /// Predict the label of one feature vector.
    fn predict(&self, x: &[f32]) -> u32;

    /// Predict class probabilities (default: one-hot of `predict`).
    fn predict_proba(&self, x: &[f32], n_classes: usize) -> Vec<f32> {
        let mut p = vec![0.0; n_classes];
        let c = self.predict(x) as usize;
        if c < n_classes {
            p[c] = 1.0;
        }
        p
    }

    /// Predict labels for many rows.
    fn predict_batch(&self, xs: &[Vec<f32>]) -> Vec<u32> {
        xs.iter().map(|x| self.predict(x)).collect()
    }

    /// [`Classifier::predict_batch`] over borrowed rows — the serving
    /// hot path, where vectors arrive as shared `Arc` slices. Models
    /// with a batched substrate (kNN's `VectorIndex::search_batch`)
    /// override this to amortize one index pass per chunk.
    fn predict_batch_refs(&self, xs: &[&[f32]]) -> Vec<u32> {
        xs.iter().map(|x| self.predict(x)).collect()
    }

    /// Snapshot the trained model as a serializable
    /// [`state::ClassifierState`], if this classifier supports
    /// persistence (all the built-in ones do; the default is `None` so
    /// exotic external impls simply opt out of checkpointing).
    fn export_state(&self) -> Option<state::ClassifierState> {
        None
    }
}
