//! # querc — database-agnostic workload management
//!
//! A from-scratch reproduction of the system described in *Database-
//! Agnostic Workload Management* (Jain, Yan, Cruanes, Howe — CIDR 2019).
//!
//! Querc models every workload-management task as **query labeling**:
//!
//! * a [`classifier::QueryClassifier`] is a pre-trained *(embedder,
//!   labeler)* pair — the embedder maps SQL text to a vector
//!   (`querc-embed`), the labeler maps vectors to string labels
//!   (`querc-learn`);
//! * Qworkers — the [`service::WorkloadManager`]'s shard threads —
//!   consume per-application query streams, attach labels, and forward
//!   the labeled queries to the database and the training module
//!   (paper Fig 1);
//! * the [`training::TrainingModule`] accumulates labeled queries,
//!   periodically (re)trains embedders and labelers as batch jobs, and
//!   deploys them through the versioned [`registry::ModelRegistry`];
//! * applications live under [`apps`], every one behind the uniform
//!   [`apps::WorkloadApp`] trait: workload summarization for index
//!   recommendation (§5.1), security auditing (§5.2), query-routing
//!   policy checks, error prediction, resource allocation hints, and
//!   next-query recommendation (§4);
//! * the [`service::WorkloadManager`] is the serving façade: it owns the
//!   registry, fits and registers apps by name, shards each app's query
//!   stream across single-consumer Qworker threads (hash-routed by
//!   tenant so per-tenant order is preserved), applies backpressure
//!   through bounded shard queues, and batches the hot path end to end
//!   (`submit`/`submit_batch`/`drain`, per-app throughput counters and
//!   [`histogram::LatencyHistogram`] p50/p95/p99 latency);
//! * multi-tenant **QoS** ([`qos`]) isolates tenants on that serving
//!   path: per-tenant token-bucket admission control at `submit`,
//!   deficit-round-robin fair dequeue across per-tenant subqueues
//!   inside every shard worker, and explicit load shedding
//!   ([`error::QuercError::Rejected`] with per-tenant counts and
//!   latency quantiles in [`service::ServiceDrain::qos`]) instead of
//!   blanket backpressure — off by default, enabled via
//!   [`service::WorkloadManagerConfig::qos`];
//! * queries are parsed, fingerprinted, and embedded **once at manager
//!   ingress**: the [`embed_plane::EmbedPlane`] keys a sharded, bounded
//!   LRU vector cache by template fingerprint
//!   (`querc_sql::fingerprint`) and embedder namespace, and the
//!   resulting `Arc<Vec<f32>>` rides the [`enriched::EnrichedQuery`]
//!   envelope to every app shard — repeated templates serve with zero
//!   embedding work, and cache hit-rates surface per app in
//!   [`service::AppThroughput`];
//! * every nearest-neighbor lookup behind those labels (kNN labelers,
//!   centroid assignment in the recommend/summarize apps) goes through
//!   the `querc-index` **vector search plane** — contiguous stores,
//!   exact blocked scans, opt-in IVF ANN — and each app's search
//!   counters (probes, candidates scanned, exact vs ANN) surface in
//!   [`service::AppThroughput::index`] next to the embed-cache
//!   hit-rates;
//! * the whole serving stack is **restartable**:
//!   [`service::WorkloadManager::checkpoint`] writes a versioned,
//!   per-section-checksummed snapshot (`querc-persist`) of every fitted
//!   app, the registry's pinned versions and history, and the warm
//!   embed-cache entries; [`service::WorkloadManager::restore`] brings
//!   it all back — bit-identical labels without refitting, warm cache
//!   from the first batch — and
//!   [`service::WorkloadManager::checkpoint_delta`] appends
//!   newly-cached vectors between full checkpoints;
//! * every fallible surface reports [`error::QuercError`] instead of
//!   panicking — a torn or hand-edited snapshot included
//!   ([`error::QuercError::Corrupt`]).
//!
//! The only message type between components is a query plus labels —
//! [`labeled::LabeledQuery`], the `(Q, c1, c2, …)` tuple of the paper's
//! data model ([`enriched::EnrichedQuery`] is that tuple plus memoized
//! derived artifacts on the serving hot path).

#![deny(missing_docs)]

pub mod apps;
pub mod classifier;
pub mod embed_plane;
pub mod enriched;
pub mod error;
pub mod histogram;
pub mod labeled;
mod persist;
pub mod qos;
mod qworker;
pub mod registry;
pub mod service;
pub mod training;

pub use apps::{AppOutput, AppReport, TrainCorpus, WorkloadApp};
pub use classifier::{LabelMap, LabelerState, QueryClassifier, TrainedLabeler};
pub use embed_plane::{EmbedCacheStats, EmbedPlane, EmbedPlaneConfig};
pub use enriched::EnrichedQuery;
pub use error::{QuercError, Result};
pub use histogram::{LatencyHistogram, LatencySnapshot};
pub use labeled::LabeledQuery;
pub use qos::{
    DrrScheduler, QosConfig, QosDrain, RateLimit, RejectReason, TenantPolicy, TenantSnapshot,
    TokenBucket,
};
pub use registry::{ModelRegistry, RegistryEvent};
pub use service::{
    lineage_routing_key, routing_key, shard_for, AppThroughput, FittedApp, RoutingPolicy,
    ServiceDrain, WorkloadManager, WorkloadManagerConfig,
};
pub use training::{EmbedderKind, TrainingConfig, TrainingModule};
