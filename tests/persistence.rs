//! Integration: the persistence plane end to end — kill-and-restore.
//!
//! A warm `WorkloadManager` (all six apps on one shared embedder, a
//! registry classifier attached to every query) checkpoints to disk;
//! a second process-worth of state is rebuilt with
//! `WorkloadManager::restore` and must serve **bit-identical labels**
//! to the same probe batch, hit the embed cache on its very first
//! post-restore lookups, and resume registry version numbering where
//! the snapshot left off. Torn or flipped bytes must surface as
//! `QuercError::Corrupt` — never a panic, never silently-wrong models.

use querc::apps::{
    AuditApp, ErrorsApp, RecommendApp, ResourcesApp, RoutingApp, SummarizeApp, TrainCorpus,
};
use querc::{
    LabeledQuery, ModelRegistry, QuercError, QueryClassifier, TrainedLabeler, WorkloadManager,
    WorkloadManagerConfig,
};
use querc_embed::{BagOfTokens, Doc2Vec, Doc2VecConfig, Embedder};
use querc_learn::{ForestConfig, RandomForest};
use querc_linalg::Pcg32;
use querc_persist::SnapshotReader;
use querc_workloads::{QueryRecord, SnowCloud, SnowCloudConfig};
use std::path::PathBuf;
use std::sync::Arc;

/// A synthetic multi-tenant log with structure for every app: two users
/// with distinct habits, two routing clusters, one flaky join shape,
/// and three runtime classes.
fn training_records() -> Vec<QueryRecord> {
    (0..120u64)
        .map(|i| {
            let (user, cluster, sql, ms, err) = match i % 4 {
                0 => (
                    "acct/ana",
                    "bi-cluster",
                    format!("select revenue, region from finance_cube where q = {i} group by region"),
                    400.0,
                    None,
                ),
                1 => (
                    "acct/bo",
                    "etl-cluster",
                    format!("insert into lake_events select * from staging_{}", i % 3),
                    30.0,
                    None,
                ),
                2 => (
                    "acct/ana",
                    "bi-cluster",
                    format!("select v from kv_store where k = {i}"),
                    5.0,
                    None,
                ),
                _ => (
                    "acct/bo",
                    "etl-cluster",
                    format!(
                        "select a.*, b.* from giant_facts a join giant_facts b on a.k = b.k where a.x > {i}"
                    ),
                    2000.0,
                    (i % 8 != 3).then_some(604),
                ),
            };
            QueryRecord {
                sql,
                user: user.into(),
                account: "acct".into(),
                cluster: cluster.into(),
                dialect: "generic".into(),
                runtime_ms: ms,
                mem_mb: ms / 2.0,
                error_code: err,
                timestamp: i,
            }
        })
        .collect()
}

fn snapshot_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "querc_persist_it_{}_{tag}.snap",
        std::process::id()
    ))
}

/// The four template shapes of the workload, with varying literals.
fn query_for(i: u64) -> LabeledQuery {
    match i % 4 {
        0 => LabeledQuery::new(format!(
            "select revenue, region from finance_cube where q = {i} group by region"
        )),
        1 => LabeledQuery::new(format!(
            "insert into lake_events select * from staging_{}",
            i % 3
        )),
        2 => LabeledQuery::new(format!("select v from kv_store where k = {i}")),
        _ => LabeledQuery::new(format!(
            "select a.*, b.* from giant_facts a join giant_facts b on a.k = b.k where a.x > {i}"
        )),
    }
}

const APPS: [&str; 6] = [
    "audit",
    "errors",
    "recommend",
    "resources",
    "routing",
    "summarize",
];

/// Register all six apps on ONE shared embedder (the blessed deployment
/// — one cache namespace, one embed per template for everyone).
fn register_all(mgr: &mut WorkloadManager, corpus: &TrainCorpus) -> Arc<dyn Embedder> {
    register_all_on(mgr, corpus, Arc::new(BagOfTokens::new(128, true)))
}

fn register_all_on(
    mgr: &mut WorkloadManager,
    corpus: &TrainCorpus,
    shared: Arc<dyn Embedder>,
) -> Arc<dyn Embedder> {
    mgr.register(AuditApp::new(Arc::clone(&shared)).with_trees(20), corpus)
        .unwrap();
    mgr.register(ErrorsApp::new(Arc::clone(&shared)), corpus)
        .unwrap();
    mgr.register(
        RecommendApp::new(Arc::clone(&shared)).with_clusters(4),
        corpus,
    )
    .unwrap();
    mgr.register(ResourcesApp::new(Arc::clone(&shared)), corpus)
        .unwrap();
    mgr.register(RoutingApp::new(Arc::clone(&shared)), corpus)
        .unwrap();
    let summary_cfg = querc::apps::summarize::SummaryConfig {
        k: Some(6),
        ..Default::default()
    };
    mgr.register(
        SummarizeApp::new(Arc::clone(&shared)).with_config(summary_cfg),
        corpus,
    )
    .unwrap();
    shared
}

/// Submit the probe batch (same literals both times — label determinism
/// is the point) tagged so it can be fished out of the drain.
fn submit_probes(mgr: &WorkloadManager) {
    for i in 0..48u64 {
        let app = APPS[(i % 6) as usize];
        let mut lq = query_for(i);
        lq.set("user", if i % 2 == 0 { "acct/ana" } else { "acct/bo" });
        lq.set("probe", i.to_string());
        mgr.submit(app, lq).unwrap();
    }
}

/// One app's probe outputs, sorted by probe id — completion order
/// varies across shard threads, label content must not.
fn probe_outputs(drained: &querc::ServiceDrain, app: &str) -> Vec<LabeledQuery> {
    let mut probes: Vec<LabeledQuery> = drained.outputs[app]
        .iter()
        .filter(|lq| lq.get("probe").is_some())
        .cloned()
        .collect();
    probes.sort_by_key(|lq| lq.get("probe").unwrap().parse::<u64>().unwrap());
    probes
}

#[test]
fn kill_and_restore_serves_bit_identical_labels_with_a_warm_cache() {
    let path = snapshot_path("kill_restore");
    let corpus = TrainCorpus::from_records(training_records(), 0x2019);
    let cfg = WorkloadManagerConfig {
        shards_per_app: 2,
        batch: 16,
        attach_labels: vec!["user".to_string()],
        ..Default::default()
    };

    // ---- Original process: train, deploy, serve warm traffic. ----
    let mut mgr = WorkloadManager::new(cfg.clone());
    // A registry classifier every Qworker attaches — restored managers
    // must be able to resolve it at registration time.
    let mut tm = querc::TrainingModule::new(querc::TrainingConfig::default());
    tm.ingest_records(&corpus.records);
    let emb = tm.train_embedder(&querc::EmbedderKind::BagOfTokens { dim: 64 });
    tm.try_train_and_deploy(mgr.registry(), &emb, "user")
        .unwrap();
    register_all(&mut mgr, &corpus);

    // Warm traffic covering all four templates fills the embed cache.
    for i in 0..96u64 {
        mgr.submit(APPS[(i % 6) as usize], query_for(i)).unwrap();
    }

    // ---- Checkpoint, then keep serving the probe batch. ----
    mgr.checkpoint(&path).unwrap();
    submit_probes(&mgr);
    let before = mgr.drain();

    // ---- "New process": restore and serve the same probes. ----
    let restored = WorkloadManager::restore(&path, cfg.clone()).unwrap();
    assert_eq!(restored.app_names(), APPS, "all six apps came back");
    assert_eq!(
        restored.registry().version("user"),
        Some(1),
        "registry deployment restored at its pinned version"
    );
    for (orig, back) in mgr_reports(&corpus).iter().zip(restored.reports().unwrap()) {
        assert_eq!(orig.app, back.app);
        assert_eq!(
            orig.trained_queries, back.trained_queries,
            "{}: fitted size survives",
            back.app
        );
    }

    submit_probes(&restored);
    let cache = restored.embed_cache_stats();
    assert!(
        cache.hits > 0,
        "first post-restore batch must hit the warmed cache"
    );
    assert_eq!(
        cache.misses, 0,
        "every probe template was cached pre-checkpoint; nothing re-embeds"
    );
    let after = restored.drain();

    // Bit-identical labels, app by app, probe by probe.
    for app in APPS {
        let b = probe_outputs(&before, app);
        let a = probe_outputs(&after, app);
        assert_eq!(b.len(), 8, "{app}: 8 probes each");
        assert_eq!(b, a, "{app}: restored labels must be bit-identical");
    }
    // The restored run attached the registry label too (attach_labels
    // only works if deployments are live before apps register).
    for lq in &after.outputs["resources"] {
        if lq.get("probe").is_some() {
            assert!(lq.get("predicted_user").is_some());
        }
    }

    let _ = std::fs::remove_file(&path);
}

/// Re-fit reports for comparison without holding the first manager
/// alive (reports only depend on the corpus and app set).
fn mgr_reports(corpus: &TrainCorpus) -> Vec<querc::AppReport> {
    let mut mgr = WorkloadManager::new(WorkloadManagerConfig::default());
    register_all(&mut mgr, corpus);
    mgr.reports().unwrap()
}

#[test]
fn checkpoint_delta_appends_vectors_cached_since_the_last_snapshot() {
    let path = snapshot_path("delta");
    let corpus = TrainCorpus::from_records(training_records(), 7);
    let mut mgr = WorkloadManager::new(WorkloadManagerConfig::default());
    let shared: Arc<dyn Embedder> = Arc::new(BagOfTokens::new(64, true));
    mgr.register(ResourcesApp::new(Arc::clone(&shared)), &corpus)
        .unwrap();

    // Full snapshot holds only the kv_store template…
    mgr.submit(
        "resources",
        LabeledQuery::new("select v from kv_store where k = 1"),
    )
    .unwrap();
    mgr.checkpoint(&path).unwrap();
    // …then a brand-new template arrives and a delta captures it.
    mgr.submit(
        "resources",
        LabeledQuery::new("select late, arrival from delta_only_shape where id = 9"),
    )
    .unwrap();
    mgr.checkpoint_delta(&path).unwrap();
    // A second delta with no new templates appends nothing (no-op).
    mgr.checkpoint_delta(&path).unwrap();
    drop(mgr.drain());

    let restored = WorkloadManager::restore(&path, WorkloadManagerConfig::default()).unwrap();
    restored
        .submit(
            "resources",
            LabeledQuery::new("select late, arrival from delta_only_shape where id = 77"),
        )
        .unwrap();
    restored
        .submit(
            "resources",
            LabeledQuery::new("select v from kv_store where k = 42"),
        )
        .unwrap();
    let stats = restored.embed_cache_stats();
    assert_eq!(
        (stats.hits, stats.misses),
        (2, 0),
        "both the full-snapshot template and the delta-appended one are warm"
    );
    drop(restored.drain());
    let _ = std::fs::remove_file(&path);
}

#[test]
fn registry_version_history_survives_a_deploy_undeploy_storm() {
    let path = snapshot_path("registry_storm");

    fn classifier(label_name: &str, tag: &str) -> QueryClassifier {
        let embedder: Arc<dyn Embedder> = Arc::new(BagOfTokens::new(16, false));
        let vectors = vec![vec![0.0; 16], vec![1.0; 16]];
        let labels = vec![tag, tag];
        let labeler = TrainedLabeler::train(
            RandomForest::new(ForestConfig::extra_trees(2)),
            &vectors,
            &labels,
            &mut Pcg32::new(1),
        );
        QueryClassifier::new(label_name, embedder, labeler)
    }

    let mgr = WorkloadManager::new(WorkloadManagerConfig::default());
    let reg: &Arc<ModelRegistry> = mgr.registry();
    // The storm: user churns to v3, cluster deploys twice then dies,
    // team deploys once.
    reg.deploy("user", classifier("user", "u1"));
    reg.deploy("user", classifier("user", "u2"));
    reg.deploy("user", classifier("user", "u3"));
    reg.deploy("cluster", classifier("cluster", "c1"));
    reg.deploy("cluster", classifier("cluster", "c2"));
    reg.undeploy("cluster");
    reg.deploy("team", classifier("team", "t1"));
    let history_before = reg.history();
    assert_eq!(history_before.len(), 7);

    mgr.checkpoint(&path).unwrap();
    drop(mgr.drain());

    // Restore with attach_labels pointing at the snapshot's deployments:
    // registration-time resolution must succeed purely from the snapshot.
    let cfg = WorkloadManagerConfig {
        attach_labels: vec!["user".to_string(), "team".to_string()],
        ..Default::default()
    };
    let mut restored = WorkloadManager::restore(&path, cfg).unwrap();
    let corpus = TrainCorpus::from_records(training_records(), 7);
    let shared: Arc<dyn Embedder> = Arc::new(BagOfTokens::new(64, true));
    restored
        .register(ResourcesApp::new(shared), &corpus)
        .unwrap();

    let reg = restored.registry();
    assert_eq!(reg.version("user"), Some(3), "pinned, not restarted at 1");
    assert_eq!(reg.version("team"), Some(1));
    assert_eq!(reg.version("cluster"), None, "undeployed stays undeployed");
    assert_eq!(reg.get("user").unwrap().label_sql("select 1"), "u3");
    assert_eq!(reg.history(), history_before, "event log survives verbatim");
    // Post-restore deploys continue the version sequence.
    assert_eq!(reg.deploy("user", classifier("user", "u4")), 4);

    // Attached labels resolve through the restored deployments.
    restored
        .submit(
            "resources",
            LabeledQuery::new("select v from kv_store where k = 1"),
        )
        .unwrap();
    let drained = restored.drain();
    let lq = &drained.outputs["resources"][0];
    assert!(lq.get("predicted_user").is_some());
    assert!(lq.get("predicted_team").is_some());

    let _ = std::fs::remove_file(&path);
}

#[test]
fn sq8_knn_deployments_round_trip_bit_identical() {
    use querc_learn::{Knn, KnnBackend, KnnMetric};

    let path = snapshot_path("sq8_knn");
    let records = training_records();
    let embedder: Arc<dyn Embedder> = Arc::new(BagOfTokens::new(64, true));
    let vectors: Vec<Vec<f32>> = records.iter().map(|r| embedder.embed_sql(&r.sql)).collect();
    let labels: Vec<&str> = records.iter().map(|r| r.user.as_str()).collect();

    // Two SQ8 flavors: re-ranked (exact f32 rows retained) and
    // memory-parity (rerank 0 — only codes survive the snapshot).
    let reranked = Knn::new(3, KnnMetric::Cosine).with_backend(KnnBackend::Sq8 {
        nlist: 4,
        nprobe: 4,
        rerank_factor: 2,
    });
    let codes_only = Knn::new(3, KnnMetric::Euclidean).with_backend(KnnBackend::Sq8 {
        nlist: 0,
        nprobe: 1,
        rerank_factor: 0,
    });

    let mgr = WorkloadManager::new(WorkloadManagerConfig::default());
    for (name, knn) in [("sq8_rerank", reranked), ("sq8_codes", codes_only)] {
        let labeler = TrainedLabeler::train(knn, &vectors, &labels, &mut Pcg32::new(0x508));
        mgr.registry().deploy(
            name,
            QueryClassifier::new(name, Arc::clone(&embedder), labeler),
        );
    }
    mgr.checkpoint(&path).unwrap();

    let probe_labels = |m: &WorkloadManager, name: &str| -> Vec<String> {
        let clf = m.registry().get(name).unwrap();
        (0..32u64)
            .map(|i| clf.label_sql(&query_for(i).sql))
            .collect()
    };
    let before_rerank = probe_labels(&mgr, "sq8_rerank");
    let before_codes = probe_labels(&mgr, "sq8_codes");
    drop(mgr.drain());

    let restored = WorkloadManager::restore(&path, WorkloadManagerConfig::default()).unwrap();
    assert_eq!(
        probe_labels(&restored, "sq8_rerank"),
        before_rerank,
        "re-ranked SQ8 deployment must label bit-identically after restore"
    );
    assert_eq!(
        probe_labels(&restored, "sq8_codes"),
        before_codes,
        "codes-only SQ8 deployment must label bit-identically after restore"
    );
    drop(restored.drain());
    let _ = std::fs::remove_file(&path);
}

/// The registry `Knn(k=5, cosine)` labeler caches its row norms at fit;
/// they are derived state, never persisted, and a restore rebuilds
/// them from the rows — so the restored deployment must return the
/// same neighbors at the same distances, bit for bit, as the fitted
/// one and as the `ops::cosine_dist` brute force.
#[test]
fn cosine_knn_deployment_restores_bit_identical_hits_and_distances() {
    use querc_learn::{Classifier, ClassifierState, Knn, KnnMetric, KnnState};

    let path = snapshot_path("cosine_knn");
    let records = training_records();
    let embedder: Arc<dyn Embedder> = Arc::new(BagOfTokens::new(64, true));
    let vectors: Vec<Vec<f32>> = records.iter().map(|r| embedder.embed_sql(&r.sql)).collect();
    let labels: Vec<&str> = records.iter().map(|r| r.user.as_str()).collect();

    let mgr = WorkloadManager::new(WorkloadManagerConfig::default());
    let labeler = TrainedLabeler::train(
        Knn::new(5, KnnMetric::Cosine),
        &vectors,
        &labels,
        &mut Pcg32::new(0x508),
    );
    mgr.registry().deploy(
        "account",
        QueryClassifier::new("account", Arc::clone(&embedder), labeler),
    );
    mgr.checkpoint(&path).unwrap();

    let knn_state = |m: &WorkloadManager| -> KnnState {
        let clf = m.registry().get("account").unwrap();
        match clf.labeler().export_state().unwrap().classifier {
            ClassifierState::Knn(state) => state,
            other => panic!("expected a kNN state, got {other:?}"),
        }
    };
    let fitted_state = knn_state(&mgr);
    let before_labels: Vec<String> = {
        let clf = mgr.registry().get("account").unwrap();
        (0..32u64)
            .map(|i| clf.label_sql(&query_for(i).sql))
            .collect()
    };
    drop(mgr.drain());

    let restored = WorkloadManager::restore(&path, WorkloadManagerConfig::default()).unwrap();
    let restored_state = knn_state(&restored);
    assert_eq!(restored_state, fitted_state, "snapshot state round-trips");
    // Exhaustive destructuring: a new `KnnState` field (say, persisted
    // norms) fails to compile here.
    let KnnState {
        k,
        cosine,
        n_classes: _,
        y,
        dim,
        rows,
        ivf,
        nprobe: _,
        centroids,
        lists,
        sq8,
        rerank: _,
        qmin,
        qstep,
        codes,
    } = restored_state.clone();
    assert!(cosine && !ivf && !sq8 && k == 5);
    assert_eq!(rows.len(), y.len() * dim, "rows only — no norms persisted");
    assert!(centroids.is_empty() && lists.is_empty());
    assert!(qmin.is_empty() && qstep.is_empty() && codes.is_empty());

    let fitted = Knn::from_state(fitted_state).unwrap();
    let rebuilt = Knn::from_state(restored_state).unwrap();
    let clf = restored.registry().get("account").unwrap();
    for i in 0..32u64 {
        let sql = query_for(i).sql;
        let q = embedder.embed_sql(&sql);
        let want = fitted.index().unwrap().search(&q, 5);
        let got = rebuilt.index().unwrap().search(&q, 5);
        let mut brute: Vec<(u32, f32)> = vectors
            .iter()
            .enumerate()
            .map(|(id, row)| (id as u32, querc_linalg::ops::cosine_dist(&q, row)))
            .collect();
        brute.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        assert_eq!(got.len(), 5);
        for ((g, w), b) in got.iter().zip(&want).zip(&brute) {
            assert_eq!((g.0, g.1.to_bits()), (w.0, w.1.to_bits()), "query {i}");
            assert_eq!((g.0, g.1.to_bits()), (b.0, b.1.to_bits()), "query {i}");
        }
        assert_eq!(clf.label_sql(&sql), before_labels[i as usize]);
        assert_eq!(rebuilt.predict(&q), fitted.predict(&q));
    }
    drop(restored.drain());
    let _ = std::fs::remove_file(&path);
}

#[test]
fn corrupted_and_truncated_snapshots_report_corrupt_never_panic() {
    let path = snapshot_path("corrupt");
    let corpus = TrainCorpus::from_records(training_records(), 7);
    let mut mgr = WorkloadManager::new(WorkloadManagerConfig::default());
    let shared: Arc<dyn Embedder> = Arc::new(BagOfTokens::new(64, true));
    mgr.register(ResourcesApp::new(Arc::clone(&shared)), &corpus)
        .unwrap();
    mgr.submit(
        "resources",
        LabeledQuery::new("select v from kv_store where k = 1"),
    )
    .unwrap();
    mgr.checkpoint(&path).unwrap();
    drop(mgr.drain());

    let pristine = std::fs::read(&path).unwrap();
    // Sanity: the pristine copy restores.
    WorkloadManager::restore(&path, WorkloadManagerConfig::default()).unwrap();

    // A single flipped bit anywhere in the body must be caught by a
    // section CRC (or the header/footer parsers) and reported.
    for at in [
        0,
        pristine.len() / 3,
        pristine.len() / 2,
        pristine.len() - 2,
    ] {
        let mut torn = pristine.clone();
        torn[at] ^= 0x40;
        std::fs::write(&path, &torn).unwrap();
        let err = match WorkloadManager::restore(&path, WorkloadManagerConfig::default()) {
            Err(e) => e,
            Ok(_) => panic!("byte {at}: flipped byte must not restore"),
        };
        assert!(
            matches!(err, QuercError::Corrupt { .. }),
            "byte {at}: want Corrupt, got {err:?}"
        );
    }

    // Truncation at any depth: a torn tail is Corrupt, not a panic.
    for keep in [1, pristine.len() / 4, pristine.len() - 1] {
        std::fs::write(&path, &pristine[..keep]).unwrap();
        let err = match WorkloadManager::restore(&path, WorkloadManagerConfig::default()) {
            Err(e) => e,
            Ok(_) => panic!("keep {keep}: truncated snapshot must not restore"),
        };
        assert!(
            matches!(err, QuercError::Corrupt { .. }),
            "keep {keep}: want Corrupt, got {err:?}"
        );
    }

    let _ = std::fs::remove_file(&path);
}

#[test]
fn qos_policies_round_trip_and_pre_qos_snapshots_still_restore() {
    use querc::{QosConfig, QuercError, RateLimit, RejectReason, TenantPolicy};
    let corpus = TrainCorpus::from_records(training_records(), 0x2019);
    let qos_cfg = WorkloadManagerConfig {
        shards_per_app: 2,
        batch: 16,
        qos: QosConfig::enabled(),
        ..Default::default()
    };

    // ---- QoS-active manager: serve, install a policy, checkpoint. ----
    let path = snapshot_path("qos_roundtrip");
    let mut mgr = WorkloadManager::new(qos_cfg.clone());
    register_all(&mut mgr, &corpus);
    mgr.set_tenant_policy(
        "whale",
        TenantPolicy {
            weight: 3,
            rate: Some(RateLimit {
                rate_per_sec: 0.0,
                burst: 2.0,
            }),
        },
    );
    for i in 0..24u64 {
        let mut lq = query_for(i);
        lq.set("account", "acct");
        mgr.submit(APPS[(i % 6) as usize], lq).unwrap();
    }
    mgr.checkpoint(&path).unwrap();
    drop(mgr.drain());

    // ---- Restore with QoS on: the policy must be back in force. ----
    let restored = WorkloadManager::restore(&path, qos_cfg.clone()).unwrap();
    assert_eq!(restored.app_names(), APPS);
    // The whale's zero-refill bucket was restored with burst 2: exactly
    // two admits, then RateLimited — proof the policy survived the trip.
    for i in 0..4u64 {
        let mut lq = query_for(i);
        lq.set("account", "whale");
        let got = restored.submit("resources", lq);
        if i < 2 {
            got.unwrap_or_else(|e| panic!("whale admit {i} within burst: {e}"));
        } else {
            match got {
                Err(QuercError::Rejected { tenant, reason }) => {
                    assert_eq!(tenant, "whale");
                    assert_eq!(reason, RejectReason::RateLimited);
                }
                other => panic!("whale over burst must be Rejected, got {other:?}"),
            }
        }
    }
    let drained = restored.drain();
    let whale = &drained.qos.tenants["whale"];
    assert_eq!(whale.weight, 3, "DRR weight restored");
    assert_eq!((whale.processed, whale.rejected_rate_limited), (2, 2));

    // ---- A QoS snapshot also restores into a QoS-disabled manager
    //      (the section is simply ignored — additive, no version bump).
    let plain = WorkloadManager::restore(&path, WorkloadManagerConfig::default()).unwrap();
    assert_eq!(plain.app_names(), APPS);
    let mut lq = query_for(0);
    lq.set("account", "whale");
    plain.submit("resources", lq).unwrap();
    plain.submit("resources", query_for(1)).unwrap();
    plain.submit("resources", query_for(2)).unwrap();
    let plain_drained = plain.drain();
    assert_eq!(plain_drained.outputs["resources"].len(), 3);
    assert!(
        plain_drained.qos.tenants.is_empty(),
        "QoS accounting stays off when the config says off"
    );
    let _ = std::fs::remove_file(&path);

    // ---- Pre-QoS-shaped snapshot (written with QoS off, so no "qos"
    //      section) restores into a QoS-enabled manager cleanly. ----
    let old_path = snapshot_path("qos_pre");
    let mut old = WorkloadManager::new(WorkloadManagerConfig {
        shards_per_app: 2,
        batch: 16,
        ..Default::default()
    });
    register_all(&mut old, &corpus);
    for i in 0..12u64 {
        old.submit(APPS[(i % 6) as usize], query_for(i)).unwrap();
    }
    old.checkpoint(&old_path).unwrap();
    drop(old.drain());

    let upgraded = WorkloadManager::restore(&old_path, qos_cfg).unwrap();
    assert_eq!(upgraded.app_names(), APPS, "pre-QoS snapshot restores");
    for i in 0..12u64 {
        let mut lq = query_for(i);
        lq.set("account", "acct");
        upgraded.submit(APPS[(i % 6) as usize], lq).unwrap();
    }
    let up = upgraded.drain();
    let acct = &up.qos.tenants["acct"];
    assert_eq!(
        (acct.submitted, acct.processed, acct.rejected()),
        (12, 12, 0),
        "QoS accounting live on a restored pre-QoS stack"
    );
    let _ = std::fs::remove_file(&old_path);
}

/// The deployment the paper draws — one learned representation, many
/// labeling apps — at a size where the v1 layout showed: the model was
/// written once per app, and its multi-MB escaped copy took the restore
/// minutes to parse.
#[test]
fn six_apps_on_one_doc2vec_ship_it_once_and_restore_in_seconds() {
    let path = snapshot_path("full_size");
    let trace = SnowCloud::generate(&SnowCloudConfig::pretrain(8, 160, 0x5ca1e)).records;
    let (train, held_out) = trace.split_at(1200);
    let corpus = TrainCorpus::from_records(train.to_vec(), 0x2019);
    // Full-size weights; fewer passes, so an unoptimized build fits in seconds.
    let doc2vec_cfg = Doc2VecConfig {
        epochs: 3,
        infer_epochs: 3,
        ..Default::default()
    };
    let doc2vec = Doc2Vec::train(&corpus.token_corpus(), doc2vec_cfg);

    let cfg = WorkloadManagerConfig {
        shards_per_app: 2,
        batch: 16,
        ..Default::default()
    };
    let mut mgr = WorkloadManager::new(cfg.clone());
    register_all_on(&mut mgr, &corpus, Arc::new(doc2vec));
    let probe = |mgr: &WorkloadManager| {
        for (i, record) in held_out.iter().take(48).enumerate() {
            let mut lq = LabeledQuery::from_record(record);
            lq.set("probe", i.to_string());
            mgr.submit(APPS[i % 6], lq).unwrap();
        }
    };
    mgr.checkpoint(&path).unwrap();
    probe(&mgr);
    let before = mgr.drain();

    let reader = SnapshotReader::open(&path).unwrap();
    let names = reader.section_names();
    let embedders: Vec<&&str> = names
        .iter()
        .filter(|n| n.starts_with("embedder:"))
        .collect();
    assert_eq!(embedders.len(), 1, "one section per namespace: {names:?}");
    let model_bytes = reader.section(embedders[0]).unwrap().len();
    assert!(
        model_bytes > 1 << 20,
        "a non-toy model: {model_bytes} bytes"
    );
    for app in APPS {
        let header = reader.section(&format!("app:{app}")).unwrap();
        assert!(header.len() < 256, "{app}: the header only names the model");
        assert!(names.contains(&format!("app:{app}:model").as_str()));
    }
    drop(reader);

    let t = std::time::Instant::now();
    let restored = WorkloadManager::restore(&path, cfg).unwrap();
    assert!(
        t.elapsed() < std::time::Duration::from_secs(10),
        "restore took {:?}",
        t.elapsed()
    );
    assert_eq!(restored.app_names(), APPS);
    let shared = restored.embedder(APPS[0]).unwrap().expect("audit embeds");
    for app in APPS {
        let theirs = restored.embedder(app).unwrap().expect("every app embeds");
        assert!(
            Arc::ptr_eq(&shared, &theirs),
            "{app}: one Arc after restore"
        );
    }
    probe(&restored);
    let after = restored.drain();
    for app in APPS {
        let b = probe_outputs(&before, app);
        assert_eq!(b.len(), 8, "{app}: 8 probes each");
        assert_eq!(b, probe_outputs(&after, app), "{app}: bit-identical labels");
    }
    let _ = std::fs::remove_file(&path);
}

/// The cache sections are raw little-endian records, so every `f32` bit
/// pattern survives a restore and a second checkpoint (the JSON path
/// turned ±∞ into NaN and dropped NaN payloads).
#[test]
fn non_finite_cache_entries_come_back_bit_identical() {
    let (first, second) = (snapshot_path("bits_a"), snapshot_path("bits_b"));
    let corpus = TrainCorpus::from_records(training_records(), 7);
    let mut mgr = WorkloadManager::new(WorkloadManagerConfig::default());
    mgr.register(
        ResourcesApp::new(Arc::new(BagOfTokens::new(64, true))),
        &corpus,
    )
    .unwrap();
    mgr.checkpoint(&first).unwrap();
    drop(mgr.drain());

    // One hand-built record — ns u64, fp u64, dim u32, f32 × dim — under
    // a namespace no embedder serves.
    let (ns, fp) = (0xfeed_face_dead_beef_u64, 42u64);
    let odd = [
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::from_bits(0x7fc0_1234),
        f32::from_bits(0xffa5_5a5a),
        -0.0,
        f32::MIN_POSITIVE / 4.0,
    ];
    let mut record = Vec::new();
    record.extend_from_slice(&ns.to_le_bytes());
    record.extend_from_slice(&fp.to_le_bytes());
    record.extend_from_slice(&(odd.len() as u32).to_le_bytes());
    odd.iter()
        .for_each(|x| record.extend_from_slice(&x.to_le_bytes()));
    querc_persist::append_to(&first, &[("embed_cache_delta".to_string(), record.clone())]).unwrap();

    let restored = WorkloadManager::restore(&first, WorkloadManagerConfig::default()).unwrap();
    assert_eq!(restored.embed_cache_stats().entries, 1);
    restored.checkpoint(&second).unwrap();
    drop(restored.drain());
    let reader = SnapshotReader::open(&second).unwrap();
    assert_eq!(reader.section("embed_cache"), Some(&record[..]));

    for f in [first, second] {
        let _ = std::fs::remove_file(f);
    }
}

#[test]
fn a_v1_snapshot_is_refused_by_version_not_read() {
    let path = snapshot_path("v1");
    let mgr = WorkloadManager::new(WorkloadManagerConfig::default());
    mgr.checkpoint(&path).unwrap();
    drop(mgr.drain());
    let current = std::fs::read(&path).unwrap();
    let body = current
        .strip_prefix(querc_persist::MAGIC.as_bytes())
        .expect("the one version string");
    std::fs::write(&path, [b"QUERCSNAP v1", body].concat()).unwrap();
    match WorkloadManager::restore(&path, WorkloadManagerConfig::default()) {
        Err(QuercError::Corrupt { detail }) => assert!(detail.contains("\"v1\""), "{detail}"),
        Err(other) => panic!("want Corrupt naming v1, got {other:?}"),
        Ok(_) => panic!("a v1 file must not restore"),
    }
    let _ = std::fs::remove_file(&path);
}
