//! # querc-cluster
//!
//! Unsupervised building blocks for offline workload analysis.
//!
//! The paper's workload-summarization pipeline (§5.1) is: embed every
//! query, run K-means with K chosen by the elbow method, and keep the
//! query nearest each centroid as the summary. This crate supplies that
//! ([`mod@kmeans`], [`elbow`]) plus the classical comparator — K-medoids
//! with a pluggable distance function, the Chaudhuri-et-al.-style approach
//! the paper argues requires custom per-workload distance engineering
//! ([`mod@kmedoids`]) — and [`silhouette`] scores for diagnostics.

pub mod elbow;
pub mod kmeans;
pub mod kmedoids;
pub mod silhouette;

pub use elbow::{choose_k_elbow, sse_curve};
pub use kmeans::{kmeans, try_nearest_centroid, KMeansConfig, KMeansResult};
pub use kmedoids::{kmedoids, KMedoidsResult};
pub use silhouette::mean_silhouette;
