//! Persistence-plane benchmark: checkpoint/restore wall time and
//! snapshot size, on two stacks.
//!
//! * `resources+bow` — one cheap app, the warm embed cache grown to 10k
//!   and 100k vectors (64 floats each): the snapshot is the cache, models
//!   and registry state are a fixed few kilobytes.
//! * `six_apps+doc2vec` — the paper's deployment, six labeling apps on
//!   one trained Doc2Vec: the snapshot is the models, and the one thing
//!   that must not happen is the shared model shipping once per app.
//!
//! Alongside the criterion timings, the harness writes
//! `BENCH_persist.json` at the repo root — absolute wall-times and
//! byte counts per row — so the perf trajectory is tracked across PRs.
//! Rows carry the snapshot format they were measured under; rows of any
//! other format already in the file are kept as history. A delta append
//! of a tenth of the warm set is timed too: it must cost ~that tenth.

use criterion::{criterion_group, criterion_main, Criterion};
use querc::apps::summarize::SummaryConfig;
use querc::apps::{
    AuditApp, ErrorsApp, RecommendApp, ResourcesApp, RoutingApp, SummarizeApp, TrainCorpus,
};
use querc::{LabeledQuery, WorkloadManager, WorkloadManagerConfig};
use querc_embed::{BagOfTokens, Doc2Vec, Doc2VecConfig, Embedder};
use querc_workloads::{QueryRecord, SnowCloud, SnowCloudConfig};
use std::hint::black_box;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

fn training_corpus() -> TrainCorpus {
    let records: Vec<QueryRecord> = (0..64u64)
        .map(|i| QueryRecord {
            sql: format!("select v from kv_store where k = {i}"),
            user: format!("acct/u{}", i % 4),
            account: "acct".into(),
            cluster: "c0".into(),
            dialect: "generic".into(),
            runtime_ms: [5.0, 300.0, 2000.0][(i % 3) as usize],
            mem_mb: 10.0,
            error_code: None,
            timestamp: i,
        })
        .collect();
    TrainCorpus::from_records(records, 0xbe7c)
}

/// One distinct template per `i` — each lands one vector in the cache.
fn distinct_template(i: usize) -> LabeledQuery {
    LabeledQuery::new(format!("select c0, c1 from table_{i} where x = 1"))
}

/// A manager whose embed cache holds exactly `vectors` warm entries.
fn warm_manager(corpus: &TrainCorpus, vectors: usize) -> WorkloadManager {
    let mut mgr = WorkloadManager::new(WorkloadManagerConfig {
        shards_per_app: 2,
        batch: 256,
        embed_cache_capacity: 1 << 17,
        ..Default::default()
    });
    let shared: Arc<dyn Embedder> = Arc::new(BagOfTokens::new(64, true));
    mgr.register(ResourcesApp::new(shared), corpus).unwrap();
    let mut i = 0;
    while i < vectors {
        let chunk = (vectors - i).min(2048);
        mgr.submit_batch("resources", (i..i + chunk).map(distinct_template))
            .unwrap();
        i += chunk;
    }
    mgr
}

/// Six apps sharing one Doc2Vec trained on the first `train` records of
/// a SnowCloud trace, the cache warmed with the next `warm`; the
/// records after those are returned as never-seen delta traffic.
fn six_app_manager(train: usize, warm: usize) -> (WorkloadManager, Vec<LabeledQuery>) {
    let trace = SnowCloud::generate(&SnowCloudConfig::pretrain(8, 500, 0x5ca1e)).records;
    let corpus = TrainCorpus::from_records(trace[..train].to_vec(), 0xbe7c);
    let shared: Arc<dyn Embedder> = Arc::new(Doc2Vec::train(
        &corpus.token_corpus(),
        Doc2VecConfig::default(),
    ));
    let mut mgr = WorkloadManager::new(WorkloadManagerConfig {
        batch: 256,
        ..Default::default()
    });
    let e = || Arc::clone(&shared);
    mgr.register(AuditApp::new(e()), &corpus).unwrap();
    mgr.register(ErrorsApp::new(e()), &corpus).unwrap();
    mgr.register(RecommendApp::new(e()), &corpus).unwrap();
    mgr.register(ResourcesApp::new(e()), &corpus).unwrap();
    mgr.register(RoutingApp::new(e()), &corpus).unwrap();
    let summary = SummaryConfig {
        k: Some(8),
        ..Default::default()
    };
    mgr.register(SummarizeApp::new(e()).with_config(summary), &corpus)
        .unwrap();
    let queries = |records: &[QueryRecord]| -> Vec<LabeledQuery> {
        records.iter().map(LabeledQuery::from_record).collect()
    };
    // One namespace: warming through one app warms all six.
    mgr.submit_batch("resources", queries(&trace[train..train + warm]))
        .unwrap();
    (mgr, queries(&trace[train + warm..]))
}

struct Measured {
    stack: &'static str,
    vectors: u64,
    snapshot_bytes: u64,
    checkpoint_ms: f64,
    restore_ms: f64,
    delta_append_ms: f64,
    delta_bytes: u64,
}

fn measure_resources(corpus: &TrainCorpus, vectors: usize, path: &PathBuf) -> Measured {
    let mgr = warm_manager(corpus, vectors);
    // A tenth of the warm set arrives as fresh templates after the full
    // snapshot → delta append must cost ~that tenth, not the whole set.
    let delta_n = (vectors / 10).max(16);
    let fresh = (0..delta_n)
        .map(|i| distinct_template(vectors + i))
        .collect();
    measure("resources+bow", mgr, fresh, path)
}

fn measure(
    stack: &'static str,
    mgr: WorkloadManager,
    fresh: Vec<LabeledQuery>,
    path: &PathBuf,
) -> Measured {
    let vectors = mgr.embed_cache_stats().entries;
    let t = Instant::now();
    mgr.checkpoint(path).unwrap();
    let checkpoint_ms = t.elapsed().as_secs_f64() * 1e3;
    let snapshot_bytes = std::fs::metadata(path).unwrap().len();

    mgr.submit_batch("resources", fresh).unwrap();
    let t = Instant::now();
    mgr.checkpoint_delta(path).unwrap();
    let delta_append_ms = t.elapsed().as_secs_f64() * 1e3;
    let delta_bytes = std::fs::metadata(path).unwrap().len() - snapshot_bytes;
    drop(mgr.drain());

    let t = Instant::now();
    let restored = WorkloadManager::restore(
        path,
        WorkloadManagerConfig {
            embed_cache_capacity: 1 << 17,
            ..Default::default()
        },
    )
    .unwrap();
    let restore_ms = t.elapsed().as_secs_f64() * 1e3;
    drop(restored.drain());

    Measured {
        stack,
        vectors,
        snapshot_bytes,
        checkpoint_ms,
        restore_ms,
        delta_append_ms,
        delta_bytes,
    }
}

fn write_report(rows: &[Measured]) {
    let dest = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_persist.json");
    let format = format!("{{\"format\": \"{}\"", querc_persist::MAGIC);
    // Rows measured under another snapshot format stay as history.
    let mut lines: Vec<String> = std::fs::read_to_string(&dest)
        .unwrap_or_default()
        .lines()
        .map(|l| l.trim().trim_end_matches(',').to_string())
        .filter(|l| l.starts_with("{\"format\"") && !l.starts_with(&format))
        .collect();
    lines.extend(rows.iter().map(|r| {
        format!(
            "{format}, \"stack\": \"{}\", \"vectors\": {}, \"snapshot_bytes\": {}, \"checkpoint_ms\": {:.2}, \"restore_ms\": {:.2}, \"delta_append_ms\": {:.2}, \"delta_bytes\": {}}}",
            r.stack,
            r.vectors,
            r.snapshot_bytes,
            r.checkpoint_ms,
            r.restore_ms,
            r.delta_append_ms,
            r.delta_bytes,
        )
    }));
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let out = format!(
        "{{\n  \"bench\": \"persist\",\n  \"unit\": \"ms\",\n  \"cores\": {cores},\n  \"results\": [\n    {}\n  ]\n}}\n",
        lines.join(",\n    ")
    );
    std::fs::write(&dest, out).unwrap();
    println!("wrote {}", dest.display());
}

fn bench_persist(c: &mut Criterion) {
    // Smoke mode covers both `--test` runs and the CI bench-smoke step
    // (`cargo test --benches` runs harness-less benches under the test
    // profile, where debug_assertions are on): tiny sizes, and the
    // committed trajectory report is left alone — only a real
    // `cargo bench` run may rewrite BENCH_persist.json.
    let test_mode = std::env::args().any(|a| a == "--test") || cfg!(debug_assertions);
    let corpus = training_corpus();
    let snap =
        std::env::temp_dir().join(format!("querc_bench_persist_{}.snap", std::process::id()));

    let sizes: &[usize] = if test_mode {
        &[256]
    } else {
        &[10_000, 100_000]
    };
    let mut rows: Vec<Measured> = sizes
        .iter()
        .map(|&n| measure_resources(&corpus, n, &snap))
        .collect();
    let (train, warm) = if test_mode { (96, 64) } else { (2000, 1500) };
    let (six, fresh) = six_app_manager(train, warm);
    rows.push(measure("six_apps+doc2vec", six, fresh, &snap));
    for r in &rows {
        assert!(r.snapshot_bytes > 0);
        assert!(
            r.delta_bytes < r.snapshot_bytes,
            "{}: a delta must be smaller than the full snapshot",
            r.stack
        );
    }
    if !test_mode {
        write_report(&rows);
    }

    // Criterion timings at the small size: steady-state checkpoint and
    // restore latency, snapshot reused across iterations.
    let mgr = warm_manager(&corpus, sizes[0]);
    let mut g = c.benchmark_group("persist");
    g.sample_size(10);
    g.bench_function("checkpoint_10k", |b| {
        b.iter(|| {
            mgr.checkpoint(&snap).unwrap();
            black_box(());
        })
    });
    mgr.checkpoint(&snap).unwrap();
    g.bench_function("restore_10k", |b| {
        b.iter(|| {
            let m = WorkloadManager::restore(&snap, WorkloadManagerConfig::default()).unwrap();
            black_box(m.app_names().len());
        })
    });
    g.finish();
    drop(mgr.drain());
    let _ = std::fs::remove_file(&snap);
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_persist
}
criterion_main!(benches);
