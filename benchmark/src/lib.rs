//! The benchmark of the querc labeling service: five workloads, each run
//! either untraced (end-to-end metrics) or traced (per-layer metrics).
//! `BENCHMARK.json` at the repository root declares the names; `README.md`
//! beside this package says what each one means and how they interact.
//!
//! Every layer is measured from outside, through the crates' public
//! functions and traits; nothing under `crates/` is instrumented.

#![deny(missing_docs)]

pub mod alloc;
pub mod check;
pub mod compare;
pub mod layers;
pub mod probe;
pub mod report;
pub mod run;
pub mod serve;
pub mod snapshot;
pub mod spec;
pub mod stack;
pub mod trace;
