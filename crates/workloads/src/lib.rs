//! # querc-workloads
//!
//! Workload generators and the query-log record model.
//!
//! Two workload families drive the paper's evaluation:
//!
//! * [`tpch`] — all 22 TPC-H query templates with spec-style parameter
//!   substitution. ~38 instances per template reproduces the ~800-query
//!   workload of the §5.1 index-selection experiment.
//! * [`snowcloud`] — "SnowCloud", a synthetic multi-tenant cloud warehouse
//!   workload standing in for the proprietary Snowflake logs of §5.2:
//!   per-account schemas (disjoint identifier vocabularies), per-user
//!   query-habit mixtures, dialect variation, and *repetitive* accounts in
//!   which many users issue verbatim-identical query text — the exact
//!   mechanism the paper identifies for its low per-account user-labeling
//!   accuracies (Table 2).
//!
//! [`record::QueryRecord`] is the labeled-query tuple `(Q, c1, c2, …)` of
//! the paper's data model, carrying the training labels (user, account,
//! cluster, runtime, memory, error code) used by the application layer.
//!
//! [`replay`] turns either corpus into a timed, deterministic query
//! stream (configurable QPS and burstiness) for load-testing the
//! serving layer.

#![deny(missing_docs)]

pub mod record;
pub mod replay;
pub mod snowcloud;
pub mod tpch;

pub use record::QueryRecord;
pub use replay::{ReplayConfig, ReplayEvent, ReplaySchedule, TenantMix};
pub use snowcloud::{AccountSpec, SnowCloud, SnowCloudConfig};
pub use tpch::{TpchQuery, TpchWorkload};
