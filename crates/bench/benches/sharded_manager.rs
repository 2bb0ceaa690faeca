//! Sharded-manager serving throughput: 1 shard vs 4 shards.
//!
//! Replays a deterministic SnowCloud trace (unpaced — we measure the
//! serving ceiling, not the arrival process) through a `WorkloadManager`
//! at different `shards_per_app`, pinning the speedup of sharding the
//! per-app stream across worker threads over the single-lane PR 1
//! layout. Queries are hash-routed by account, so the comparison also
//! carries the ordering guarantee (asserted by
//! `per_tenant_order_is_preserved_across_shards` in `querc::service`
//! and the pipeline_manager integration tests — benches only measure).
//!
//! Expect ≥2× aggregate queries/sec at 4 shards on ≥4 hardware threads;
//! on a single-core host (as in some CI containers) the configurations
//! tie, since labeling is CPU-bound and there is nothing to overlap.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use querc::apps::{ResourcesApp, TrainCorpus};
use querc::{FittedApp, LabeledQuery, WorkloadManager, WorkloadManagerConfig};
use querc_embed::{BagOfTokens, Embedder};
use querc_workloads::{ReplayConfig, ReplaySchedule, SnowCloud, SnowCloudConfig};
use std::hint::black_box;
use std::sync::Arc;

const SUBMIT_CHUNK: usize = 64;

fn embedder() -> Arc<dyn Embedder> {
    Arc::new(BagOfTokens::new(128, true))
}

/// Serve the whole schedule through a pre-fitted app, drain, and return
/// how many queries were processed. Fitting happens once outside the
/// timed loop (`register_fitted`), so the measured path is shard spawn +
/// submit + label + drain — the part sharding actually changes.
fn serve_stream(schedule: &ReplaySchedule, fitted: &Arc<FittedApp>, shards_per_app: usize) -> u64 {
    let mut mgr = WorkloadManager::new(WorkloadManagerConfig {
        shards_per_app,
        batch: SUBMIT_CHUNK,
        queue_depth: 4096,
        ..Default::default()
    });
    mgr.register_fitted(Arc::clone(fitted)).unwrap();
    let mut buf: Vec<LabeledQuery> = Vec::with_capacity(SUBMIT_CHUNK);
    for event in schedule.events() {
        buf.push(LabeledQuery::from_record(&event.record));
        if buf.len() == SUBMIT_CHUNK {
            mgr.submit_batch("resources", buf.drain(..)).unwrap();
        }
    }
    if !buf.is_empty() {
        mgr.submit_batch("resources", buf.drain(..)).unwrap();
    }
    let drained = mgr.drain();
    drained.throughput[0].processed
}

fn bench_sharded_manager(c: &mut Criterion) {
    // A multi-tenant trace: 12 accounts so 4 shards all get traffic.
    let workload = SnowCloud::generate(&SnowCloudConfig::pretrain(12, 180, 0x51a2));
    let corpus = TrainCorpus::from_records(workload.records[..200].to_vec(), 0x51a2);
    let fitted = Arc::new(FittedApp::fit(ResourcesApp::new(embedder()), &corpus).unwrap());
    let schedule = ReplaySchedule::from_records(
        &workload.records,
        &ReplayConfig {
            qps: 1.0, // offsets ignored: the unpaced loop measures the ceiling
            ..Default::default()
        },
    );

    let mut g = c.benchmark_group("sharded_manager");
    g.sample_size(10);
    g.throughput(Throughput::Elements(schedule.len() as u64));
    for shards in [1usize, 4] {
        g.bench_function(format!("shards_{shards}"), |b| {
            b.iter(|| black_box(serve_stream(&schedule, &fitted, shards)))
        });
    }
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_sharded_manager
}
criterion_main!(benches);
