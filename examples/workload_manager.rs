//! The unified serving façade end to end: all six workload apps behind
//! one `WorkloadManager`, fed a mixed query stream.
//!
//! Run with: `cargo run --release --example workload_manager`

use querc::apps::summarize::SummaryConfig;
use querc::apps::{
    AuditApp, ErrorsApp, RecommendApp, ResourcesApp, RoutingApp, SummarizeApp, TrainCorpus,
};
use querc::{LabeledQuery, WorkloadManager, WorkloadManagerConfig};
use querc_embed::{BagOfTokens, Embedder};
use querc_workloads::{SnowCloud, SnowCloudConfig};
use std::sync::Arc;

fn main() {
    // 1. A multi-tenant query log → training corpus (the recommend app
    //    groups it into per-user sessions itself).
    let workload = SnowCloud::generate(&SnowCloudConfig::pretrain(6, 80, 0x2019));
    let corpus = TrainCorpus::from_records(workload.records.clone(), 0x2019);
    let users: std::collections::BTreeSet<&str> =
        corpus.records.iter().map(|r| r.user.as_str()).collect();
    println!(
        "corpus: {} queries, {} user sessions",
        corpus.len(),
        users.len()
    );

    // 2. One shared embedder, six apps, one manager.
    let embedder: Arc<dyn Embedder> = Arc::new(BagOfTokens::new(128, true));
    let mut mgr = WorkloadManager::new(WorkloadManagerConfig {
        shards_per_app: 2,
        batch: 32,
        ..Default::default()
    });
    mgr.register(AuditApp::new(embedder.clone()), &corpus)
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

    println!("\nregistered apps:");
    for report in mgr.reports().unwrap() {
        println!(
            "  {:<10} {:<62} ({} training queries)",
            report.app, report.task, report.trained_queries
        );
    }

    // 3. Error paths are typed, not panics.
    let err = mgr
        .submit("no-such-app", LabeledQuery::new("select 1"))
        .unwrap_err();
    println!("\nsubmit to unknown app -> {err}");
    let err = mgr
        .register(AuditApp::new(embedder.clone()), &TrainCorpus::default())
        .unwrap_err();
    println!("register on empty corpus -> {err}");

    // 4. A mixed stream, round-robin across the apps.
    let apps = mgr.app_names();
    for (i, record) in workload.records.iter().take(240).enumerate() {
        let mut lq = LabeledQuery::from_record(record);
        lq.set("user", record.user.clone());
        mgr.submit(&apps[i % apps.len()], lq).unwrap();
    }

    // 5. Drain: labeled outputs per app + training mirror + counters.
    let drained = mgr.drain();
    println!("\nper-app throughput:");
    for tp in &drained.throughput {
        println!(
            "  {:<10} submitted {:>3}  processed {:>3}  {}",
            tp.app,
            tp.submitted,
            tp.processed,
            tp.latency.display()
        );
    }
    println!("training mirror: {} queries", drained.training_log.len());

    // App-attached labels are appended after the record's imported
    // metadata, so the tail of the label list is each app's output.
    println!("\nsample app-attached labels:");
    for (app, queries) in &drained.outputs {
        if let Some(lq) = queries.first() {
            let labels: Vec<String> = lq
                .labels
                .iter()
                .rev()
                .take(3)
                .rev()
                .map(|(n, v)| format!("{n}={}", v.chars().take(36).collect::<String>()))
                .collect();
            println!("  {:<10} {}", app, labels.join("  "));
        }
    }
}
