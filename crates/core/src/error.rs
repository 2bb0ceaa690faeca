//! The workspace-wide error type for the labeling pipeline.
//!
//! Before this module existed, bad inputs died as `assert!`s deep inside
//! training code (dimension mismatches, empty corpora) or as index
//! panics inside `querc-learn`. Everything reachable from the
//! [`crate::apps::WorkloadApp`] / [`crate::service::WorkloadManager`]
//! surface now reports a [`QuercError`] instead; the legacy bespoke
//! entry points keep their panicking signatures but route through the
//! same checks, so they fail with a named error message rather than an
//! index out of bounds.
//!
//! Hand-rolled in `thiserror` style — the build environment is offline,
//! so no derive dependency.

use std::fmt;

/// Convenience alias used across `querc`.
pub type Result<T> = std::result::Result<T, QuercError>;

/// Every failure the labeling pipeline can report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QuercError {
    /// A training entry point received zero usable queries.
    EmptyCorpus {
        /// Which component rejected the corpus (e.g. `"audit"`).
        context: &'static str,
    },
    /// A vector's dimensionality disagrees with the trained model.
    DimensionMismatch {
        /// Which component detected the mismatch.
        context: &'static str,
        /// Dimensionality the model was trained with.
        expected: usize,
        /// Dimensionality actually received.
        got: usize,
    },
    /// Training rows and label rows have different lengths.
    LabelMismatch {
        /// Number of training vectors.
        vectors: usize,
        /// Number of labels.
        labels: usize,
    },
    /// No logged query carries the requested label.
    MissingLabel {
        /// The label name that was requested.
        label: String,
    },
    /// `submit`/`report` named an application the manager doesn't know.
    UnknownApp {
        /// The unregistered application name.
        app: String,
    },
    /// A registry lookup missed — the classifier was never deployed (or
    /// was undeployed).
    ModelNotDeployed {
        /// The classifier name that was looked up.
        name: String,
    },
    /// A serving channel hung up while the manager still needed it.
    ChannelClosed {
        /// Which operation hit the closed channel.
        context: &'static str,
    },
    /// An app's `label_batch` was handed a model fitted by a different
    /// app: one of another type, or another configuration of
    /// [`crate::apps::LabelApp`] (only reachable through the type-erased
    /// serving path).
    ModelTypeMismatch {
        /// The application that refused the model.
        app: String,
    },
    /// Catch-all for app-specific training failures.
    Training {
        /// Which component failed.
        context: &'static str,
        /// Human-readable failure description.
        message: String,
    },
    /// QoS admission control shed this query instead of enqueuing it —
    /// the tenant exceeded its rate, its backlog cap, or its shard's
    /// queue was full. An explicit per-tenant outcome, not a failure of
    /// the serving plane: other tenants proceed unaffected.
    Rejected {
        /// The routing key whose budget was exceeded.
        tenant: String,
        /// Which admission check shed the query.
        reason: crate::qos::RejectReason,
    },
    /// A snapshot failed validation: bad magic, CRC mismatch,
    /// truncation, or structurally-valid bytes that decode to an
    /// inconsistent state (e.g. out-of-range tree indices). Restore
    /// never panics on corrupt input — it reports this.
    Corrupt {
        /// What failed to validate, and where.
        detail: String,
    },
}

impl fmt::Display for QuercError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QuercError::EmptyCorpus { context } => {
                write!(f, "{context}: training corpus is empty")
            }
            QuercError::DimensionMismatch {
                context,
                expected,
                got,
            } => write!(
                f,
                "{context}: dimension mismatch (expected {expected}, got {got})"
            ),
            QuercError::LabelMismatch { vectors, labels } => write!(
                f,
                "training rows and labels disagree ({vectors} vectors, {labels} labels)"
            ),
            QuercError::MissingLabel { label } => {
                write!(f, "no logged query carries label `{label}`")
            }
            QuercError::UnknownApp { app } => {
                write!(f, "no application registered under `{app}`")
            }
            QuercError::ModelNotDeployed { name } => {
                write!(f, "no classifier deployed under `{name}`")
            }
            QuercError::ChannelClosed { context } => {
                write!(f, "{context}: serving channel closed")
            }
            QuercError::ModelTypeMismatch { app } => {
                write!(f, "app `{app}` was handed a model of the wrong type")
            }
            QuercError::Training { context, message } => {
                write!(f, "{context}: {message}")
            }
            QuercError::Rejected { tenant, reason } => {
                write!(f, "query from tenant `{tenant}` rejected: {reason}")
            }
            QuercError::Corrupt { detail } => {
                write!(f, "corrupt snapshot: {detail}")
            }
        }
    }
}

impl std::error::Error for QuercError {}

impl From<querc_learn::LearnError> for QuercError {
    fn from(e: querc_learn::LearnError) -> QuercError {
        QuercError::Training {
            context: "learn",
            message: e.to_string(),
        }
    }
}

impl From<querc_persist::PersistError> for QuercError {
    fn from(e: querc_persist::PersistError) -> QuercError {
        match e {
            querc_persist::PersistError::Corrupt { detail } => QuercError::Corrupt { detail },
            querc_persist::PersistError::Io { detail } => QuercError::Training {
                context: "persist.io",
                message: detail,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = QuercError::DimensionMismatch {
            context: "labeler.predict",
            expected: 64,
            got: 16,
        };
        let s = e.to_string();
        assert!(s.contains("64") && s.contains("16") && s.contains("labeler.predict"));
        assert!(QuercError::UnknownApp { app: "x".into() }
            .to_string()
            .contains("`x`"));
    }

    #[test]
    fn error_trait_object_works() {
        let e: Box<dyn std::error::Error> = Box::new(QuercError::EmptyCorpus { context: "test" });
        assert!(e.to_string().contains("empty"));
    }
}
