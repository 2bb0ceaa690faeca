//! Load-test the sharded serving layer: all six workload apps under a
//! timed trace replay, with the per-app latency histogram table.
//!
//! Run with: `cargo run --release --example load_test [qps] [shards] [queries]`
//!
//! * `qps`     — aggregate arrival rate of the open-loop replay (default 600)
//! * `shards`  — `shards_per_app` worker threads (default 4)
//! * `queries` — arrivals to replay (default 600)
//!
//! Every arrival fans out to all six registered apps (six labeling
//! passes per query), so the served rate is 6× the arrival rate. The
//! replay is open-loop: if the manager can't keep up, arrivals are
//! dispatched late and the schedule slip is reported as `max lag`.
//!
//! All six apps share ONE embedder, so the ingress embed plane turns
//! the 6× fan-out into at most one embedding per distinct query
//! template; the table reports each app's cache hit-rate and the run
//! exits nonzero if the cache never hit (CI runs this as a regression
//! gate on the ingress plane). A second table reports each index-backed
//! app's vector-plane search counters (searches, probes, candidates
//! scanned, exact vs ANN), and the run also exits nonzero if the replay
//! recorded zero index searches — the same style of gate for the
//! vector search plane.
//!
//! The replay uses the heavy-tailed Zipf tenant mix (a few whales, many
//! minnows — the paper's multi-tenant shape), and after the main replay
//! a **QoS isolation gate** runs a whale/minnow scenario twice through
//! a QoS-enabled manager: eight minnows alone, then the same minnow
//! schedule with a whale flooding at 10× their aggregate volume. The
//! gate asserts the whale's overload surfaces as `Rejected` (never
//! minnow sheds) and that the worst minnow p99 degrades ≤3× (plus 10ms
//! slack), writing both p99s and the shed counts to `BENCH_qos.json`
//! at the repo root for cross-PR tracking.

use querc::apps::summarize::SummaryConfig;
use querc::apps::{
    AuditApp, ErrorsApp, RecommendApp, ResourcesApp, RoutingApp, SummarizeApp, TrainCorpus,
};
use querc::{
    LabeledQuery, QosConfig, QuercError, RateLimit, ServiceDrain, TenantPolicy, WorkloadManager,
    WorkloadManagerConfig,
};
use querc_embed::{BagOfTokens, Embedder};
use querc_workloads::{ReplayConfig, ReplaySchedule, SnowCloud, SnowCloudConfig, TenantMix};
use std::path::PathBuf;
use std::sync::Arc;

fn arg(n: usize, default: f64) -> f64 {
    std::env::args()
        .nth(n)
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

fn main() {
    let qps = arg(1, 600.0);
    let shards = arg(2, 4.0) as usize;
    let queries = arg(3, 600.0) as usize;

    // Train on one slice of a multi-tenant trace, replay another.
    let workload = SnowCloud::generate(&SnowCloudConfig::pretrain(10, 150, 0x10ad));
    let split = workload.records.len() / 2;
    let corpus = TrainCorpus::from_records(workload.records[..split].to_vec(), 0x10ad);
    let schedule = ReplaySchedule::from_records(
        &workload.records[split..],
        &ReplayConfig {
            qps,
            burstiness: 0.7,
            seed: 0x10ad,
            limit: Some(queries),
            // Heavy-tailed tenant popularity: rank 0 is the whale.
            tenant_mix: Some(TenantMix {
                tenants: 12,
                exponent: 1.1,
            }),
        },
    );
    println!(
        "corpus: {} training queries | replay: {} arrivals ({} distinct templates, \
         {} distinct tenants, Zipf s=1.1) at {qps:.0} q/s (bursty), {} shards/app",
        corpus.len(),
        schedule.len(),
        schedule.distinct_templates(),
        schedule.distinct_tenants(),
        shards
    );

    let embedder: Arc<dyn Embedder> = Arc::new(BagOfTokens::new(128, true));
    let mut mgr = WorkloadManager::new(WorkloadManagerConfig {
        shards_per_app: shards,
        batch: 32,
        queue_depth: 2048,
        ..Default::default()
    });
    mgr.register(AuditApp::new(embedder.clone()).with_trees(20), &corpus)
        .unwrap();
    mgr.register(ErrorsApp::new(embedder.clone()), &corpus)
        .unwrap();
    mgr.register(
        RecommendApp::new(embedder.clone()).with_clusters(6),
        &corpus,
    )
    .unwrap();
    mgr.register(ResourcesApp::new(embedder.clone()), &corpus)
        .unwrap();
    mgr.register(RoutingApp::new(embedder.clone()), &corpus)
        .unwrap();
    mgr.register(
        SummarizeApp::new(embedder.clone()).with_config(SummaryConfig {
            k: Some(8),
            ..Default::default()
        }),
        &corpus,
    )
    .unwrap();

    // Open-loop replay: every arrival fans out to all six apps.
    let apps = mgr.app_names();
    let stats = schedule.replay(|record| {
        let lq = LabeledQuery::from_record(record);
        for app in &apps {
            mgr.submit(app, lq.clone()).expect("serving fabric up");
        }
    });
    println!(
        "\nreplay done: {} arrivals in {:.2?} (max schedule lag {:.2?})",
        stats.dispatched, stats.elapsed, stats.max_lag
    );

    let drained = mgr.drain();
    let served: u64 = drained.throughput.iter().map(|t| t.processed).sum();
    println!(
        "served {served} labeling requests ({:.0} req/s end to end)\n",
        served as f64 / stats.elapsed.as_secs_f64()
    );
    println!(
        "{:<11} {:>9} {:>8} {:>9} {:>9} {:>9} {:>9} {:>9}",
        "app", "processed", "cache", "p50 µs", "p95 µs", "p99 µs", "max µs", "mean µs"
    );
    for tp in &drained.throughput {
        let l = &tp.latency;
        println!(
            "{:<11} {:>9} {:>7.1}% {:>9} {:>9} {:>9} {:>9} {:>9}",
            tp.app,
            tp.processed,
            100.0 * tp.cache_hit_rate(),
            l.p50_us,
            l.p95_us,
            l.p99_us,
            l.max_us,
            l.mean_us
        );
    }
    let cache = &drained.embed_cache;
    println!(
        "\nembed plane: {} hits / {} misses ({:.1}% hit rate), {} cached vectors, \
         {} evictions — each miss is one template embedded for all six apps",
        cache.hits,
        cache.misses,
        100.0 * cache.hit_rate(),
        cache.entries,
        cache.evictions
    );
    // Vector search plane: per-app index stats, next to the cache rates.
    println!(
        "\n{:<11} {:>8} {:>7} {:>6} {:>9} {:>8} {:>12} {:>11} {:>10}",
        "index",
        "backend",
        "kernel",
        "kind",
        "searches",
        "probes",
        "candidates",
        "cand/search",
        "bytes"
    );
    let mut index_searches = 0u64;
    for tp in &drained.throughput {
        if let Some(ix) = &tp.index {
            index_searches += ix.searches;
            println!(
                "{:<11} {:>8} {:>7} {:>6} {:>9} {:>8} {:>12} {:>11.1} {:>10}",
                tp.app,
                ix.backend,
                ix.kernel,
                if ix.exact { "exact" } else { "ann" },
                ix.searches,
                ix.probes,
                ix.candidates,
                ix.candidates_per_search(),
                ix.resident_bytes
            );
        }
    }
    println!(
        "training mirror captured {} labeled queries",
        drained.training_log.len()
    );
    // CI gate: a templated trace through six apps sharing one embedder
    // MUST hit the ingress cache; a zero hit-count means the embed-once
    // plane silently stopped fanning vectors out.
    assert!(
        cache.hits > 0,
        "ingress embed cache never hit on a templated trace"
    );
    // CI gate: the recommend/summarize apps serve cluster assignment
    // through the vector search plane; zero recorded searches after a
    // replay means the index layer silently fell out of the hot path.
    assert!(
        index_searches > 0,
        "vector index plane recorded zero searches during the replay"
    );

    sq8_recall_gate(&corpus, &embedder);
    qos_isolation_gate(&corpus, shards);
    lineage_routing_gate(&corpus, shards);
}

// ---------------------------------------------------------------------
// Lineage routing gate: per-table co-location under RoutingPolicy::Lineage.
// ---------------------------------------------------------------------

/// Replay a multi-dialect trace and show, per table-lineage key, how
/// many shards the queries touching those tables would occupy under
/// tenant routing versus lineage routing. The gate asserts lineage
/// routing pins every table's queries to exactly one shard while at
/// least one multi-tenant table would have scattered, then serves the
/// whole trace through a `RoutingPolicy::Lineage` manager end to end.
fn lineage_routing_gate(corpus: &TrainCorpus, shards: usize) {
    use querc::{lineage_routing_key, routing_key, shard_for, RoutingPolicy};
    use std::collections::{BTreeMap, HashSet};

    let shards = shards.max(2);
    let trace = SnowCloud::generate(&SnowCloudConfig::paper_table2(0.01, 0x11de));

    #[derive(Default)]
    struct KeyStats {
        queries: usize,
        tenants: HashSet<String>,
        tenant_shards: HashSet<usize>,
        lineage_shards: HashSet<usize>,
    }
    let mut by_key: BTreeMap<String, KeyStats> = BTreeMap::new();
    for r in &trace.records {
        let lq = LabeledQuery::from_record(r);
        let lkey = lineage_routing_key(&lq);
        let e = by_key.entry(lkey.clone()).or_default();
        e.queries += 1;
        e.tenants.insert(r.account.clone());
        e.tenant_shards.insert(shard_for(routing_key(&lq), shards));
        e.lineage_shards.insert(shard_for(&lkey, shards));
    }

    let mut rows: Vec<(&String, &KeyStats)> = by_key.iter().collect();
    rows.sort_by_key(|r| std::cmp::Reverse(r.1.queries));
    println!(
        "\nlineage routing gate: {} queries over {} lineage keys, {shards} shards",
        trace.records.len(),
        by_key.len()
    );
    println!(
        "{:<44} {:>7} {:>7} {:>13} {:>14}",
        "lineage key", "queries", "tenants", "tenant-shards", "lineage-shards"
    );
    for (key, s) in rows.iter().take(8) {
        let shown: String = key.chars().take(44).collect();
        println!(
            "{shown:<44} {:>7} {:>7} {:>13} {:>14}",
            s.queries,
            s.tenants.len(),
            s.tenant_shards.len(),
            s.lineage_shards.len()
        );
    }
    for (key, s) in &by_key {
        assert_eq!(
            s.lineage_shards.len(),
            1,
            "lineage key {key:?} must co-locate on one shard"
        );
    }
    assert!(
        by_key
            .values()
            .any(|s| s.tenants.len() >= 2 && s.tenant_shards.len() > 1),
        "trace should contain a multi-tenant table that tenant routing scatters"
    );

    // End-to-end: the same trace served through a lineage-routed manager.
    let mut mgr = WorkloadManager::new(WorkloadManagerConfig {
        shards_per_app: shards,
        routing: RoutingPolicy::Lineage,
        ..Default::default()
    });
    let embedder: Arc<dyn Embedder> = Arc::new(BagOfTokens::new(128, true));
    mgr.register(ResourcesApp::new(embedder), corpus).unwrap();
    for r in &trace.records {
        mgr.submit("resources", LabeledQuery::from_record(r))
            .expect("lineage-routed serving fabric up");
    }
    let drained = mgr.drain();
    let served = drained.outputs["resources"].len();
    assert_eq!(
        served,
        trace.records.len(),
        "every query must drain under lineage routing"
    );
    println!("gate passed: {served} queries served under RoutingPolicy::Lineage");
}

// ---------------------------------------------------------------------
// SQ8 recall gate: quantized search over this trace's real embeddings.
// ---------------------------------------------------------------------

/// Recall floor the quantized index must hold against exact search.
const SQ8_RECALL_FLOOR: f64 = 0.95;

/// Build exact and SQ8 indexes over the corpus's actual embeddings and
/// fail the run if quantized recall@10 drops below the floor — the
/// serving-shaped regression gate for the quantization plane (property
/// tests bound the per-distance error; this checks end-to-end ranking
/// on real embedded SQL).
fn sq8_recall_gate(corpus: &TrainCorpus, embedder: &Arc<dyn Embedder>) {
    use querc_index::{FlatIndex, Metric, Sq8Config, Sq8Index, VectorIndex};
    use querc_linalg::kernel;
    const K: usize = 10;

    let vectors: Vec<Vec<f32>> = corpus
        .records
        .iter()
        .map(|r| embedder.embed_sql(&r.sql))
        .collect();
    let flat = FlatIndex::from_rows(&vectors, Metric::Euclidean);
    let probes: Vec<&[f32]> = vectors.iter().step_by(7).map(Vec::as_slice).collect();

    let report = |tag: &str, ix: &dyn VectorIndex| {
        let mut total = 0.0;
        for q in &probes {
            let truth: Vec<u32> = flat.search(q, K).iter().map(|h| h.0).collect();
            let got = ix.search(q, K);
            total += got.iter().filter(|h| truth.contains(&h.0)).count() as f64
                / truth.len().max(1) as f64;
        }
        let recall = total / probes.len() as f64;
        let s = ix.stats();
        println!(
            "  {tag:<9} recall@{K}={recall:.3}  bytes {} ({:.2}× of flat)",
            s.resident_bytes,
            s.resident_bytes as f64 / flat.stats().resident_bytes as f64
        );
        assert!(
            recall >= SQ8_RECALL_FLOOR,
            "{tag}: quantized recall@{K} {recall:.3} fell below the {SQ8_RECALL_FLOOR} gate"
        );
    };

    println!(
        "\nsq8 recall gate: {} embedded templates, {} probes, kernel={}",
        vectors.len(),
        probes.len(),
        kernel::kernel_name()
    );
    let reranked = Sq8Index::from_rows(
        &vectors,
        Metric::Euclidean,
        &Sq8Config {
            nlist: 0,
            rerank_factor: 4,
            ..Default::default()
        },
    );
    report("sq8", &reranked);
    let memory_parity = Sq8Index::from_rows(
        &vectors,
        Metric::Euclidean,
        &Sq8Config {
            nlist: Sq8Config::AUTO_NLIST,
            nprobe: 8,
            rerank_factor: 0,
            ..Default::default()
        },
    );
    report("ivf+sq8", &memory_parity);
    println!("gate passed (recall ≥ {SQ8_RECALL_FLOOR})");
}

// ---------------------------------------------------------------------
// QoS isolation gate: whale at 10× minnow aggregate volume.
// ---------------------------------------------------------------------

const QOS_APPS: [&str; 6] = [
    "audit",
    "errors",
    "recommend",
    "resources",
    "routing",
    "summarize",
];
const MINNOWS: usize = 8;
const PER_MINNOW: usize = 60;
const WHALE_TOTAL: usize = 10 * MINNOWS * PER_MINNOW;
/// Whale admissions before its zero-refill bucket runs dry — the rest
/// of its flood is `Rejected`, deterministically.
const WHALE_BURST: usize = 120;

fn register_six(mgr: &mut WorkloadManager, corpus: &TrainCorpus) {
    let shared: Arc<dyn Embedder> = Arc::new(BagOfTokens::new(128, true));
    mgr.register(AuditApp::new(Arc::clone(&shared)).with_trees(20), corpus)
        .unwrap();
    mgr.register(ErrorsApp::new(Arc::clone(&shared)), corpus)
        .unwrap();
    mgr.register(
        RecommendApp::new(Arc::clone(&shared)).with_clusters(6),
        corpus,
    )
    .unwrap();
    mgr.register(ResourcesApp::new(Arc::clone(&shared)), corpus)
        .unwrap();
    mgr.register(RoutingApp::new(Arc::clone(&shared)), corpus)
        .unwrap();
    mgr.register(
        SummarizeApp::new(Arc::clone(&shared)).with_config(SummaryConfig {
            k: Some(8),
            ..Default::default()
        }),
        corpus,
    )
    .unwrap();
}

/// One scenario run: `PER_MINNOW` rounds of one query per minnow (apps
/// round-robin, so every minnow crosses all six), with ten whale
/// queries per minnow query interleaved when the whale is on.
fn qos_run(corpus: &TrainCorpus, shards: usize, with_whale: bool) -> ServiceDrain {
    let mut mgr = WorkloadManager::new(WorkloadManagerConfig {
        shards_per_app: shards.max(1),
        batch: 16,
        queue_depth: 4096,
        qos: QosConfig {
            enabled: true,
            quantum: 4,
            ..Default::default()
        },
        ..Default::default()
    });
    register_six(&mut mgr, corpus);
    mgr.set_tenant_policy(
        "whale",
        TenantPolicy {
            weight: 1,
            rate: Some(RateLimit {
                rate_per_sec: 0.0,
                burst: WHALE_BURST as f64,
            }),
        },
    );
    let whale_per_round = WHALE_TOTAL / PER_MINNOW;
    let mut whale_i = 0usize;
    for round in 0..PER_MINNOW {
        for m in 0..MINNOWS {
            let app = QOS_APPS[(round + m) % QOS_APPS.len()];
            let mut lq = LabeledQuery::new(format!("select v from kv_store where k = {round}"));
            lq.set("account", format!("minnow{m:02}"));
            mgr.submit(app, lq)
                .unwrap_or_else(|e| panic!("minnow {m} shed in round {round}: {e}"));
        }
        if with_whale {
            for _ in 0..whale_per_round {
                let app = QOS_APPS[whale_i % QOS_APPS.len()];
                let mut lq =
                    LabeledQuery::new(format!("select v from kv_store where k = {whale_i}"));
                lq.set("account", "whale");
                whale_i += 1;
                match mgr.submit(app, lq) {
                    Ok(()) | Err(QuercError::Rejected { .. }) => {}
                    Err(other) => panic!("unexpected submit error: {other}"),
                }
            }
        }
    }
    mgr.drain()
}

fn worst_minnow_p99(drained: &ServiceDrain) -> u64 {
    (0..MINNOWS)
        .map(|m| drained.qos.tenants[&format!("minnow{m:02}")].latency.p99_us)
        .max()
        .unwrap()
}

fn qos_isolation_gate(corpus: &TrainCorpus, shards: usize) {
    let baseline = qos_run(corpus, shards, false);
    let p99_without = worst_minnow_p99(&baseline);
    let flooded = qos_run(corpus, shards, true);
    let p99_with = worst_minnow_p99(&flooded);
    let whale = &flooded.qos.tenants["whale"];
    println!(
        "\nqos isolation gate: {MINNOWS} minnows × {PER_MINNOW} queries, \
         whale at 10× their aggregate ({WHALE_TOTAL} offers)\n\
         worst minnow p99: {p99_without}µs alone, {p99_with}µs under the whale\n\
         whale: {} processed, {} rejected ({} rate-limited)",
        whale.processed,
        whale.rejected(),
        whale.rejected_rate_limited
    );
    for m in 0..MINNOWS {
        let snap = &flooded.qos.tenants[&format!("minnow{m:02}")];
        assert_eq!(
            (snap.processed, snap.rejected()),
            (PER_MINNOW as u64, 0),
            "minnow {m} must be served whole under the whale"
        );
    }
    assert_eq!(
        whale.rejected_rate_limited,
        (WHALE_TOTAL - WHALE_BURST) as u64,
        "whale overload must surface as Rejected"
    );
    assert!(
        p99_with <= 3 * p99_without + 10_000,
        "minnow p99 degraded more than 3x under the whale: \
         {p99_with}µs with vs {p99_without}µs without"
    );
    let out = format!(
        "{{\n  \"bench\": \"qos\",\n  \"unit\": \"us\",\n  \"results\": [\n    \
         {{\"minnows\": {MINNOWS}, \"per_minnow\": {PER_MINNOW}, \"whale_offers\": {WHALE_TOTAL}, \
         \"minnow_p99_us_whale_absent\": {p99_without}, \
         \"minnow_p99_us_whale_present\": {p99_with}, \
         \"whale_processed\": {}, \"whale_rejected\": {}}}\n  ]\n}}\n",
        whale.processed,
        whale.rejected()
    );
    let dest = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("BENCH_qos.json");
    std::fs::write(&dest, out).unwrap();
    println!(
        "gate passed (p99 ≤ 3× + 10ms slack); wrote {}",
        dest.display()
    );
}
