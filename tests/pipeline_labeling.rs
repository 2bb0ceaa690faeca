//! Integration: the §5.2 labeling pipeline across crates.
//!
//! SnowCloud generation → embedding → classifier training → audits,
//! plus the streaming path: a manager's training mirror into the training
//! module and a deploy/serve round-trip through a second manager's
//! registry.

use querc::apps::audit::{per_account_accuracy, SecurityAuditor};
use querc::apps::{ResourcesApp, TrainCorpus};
use querc::{
    EmbedderKind, FittedApp, LabeledQuery, TrainingConfig, TrainingModule, WorkloadManager,
    WorkloadManagerConfig,
};
use querc_embed::{LstmAutoencoder, LstmConfig, VocabConfig};
use querc_linalg::Pcg32;
use querc_workloads::record::split_holdout;
use querc_workloads::{SnowCloud, SnowCloudConfig};
use std::sync::Arc;

fn small_lstm(corpus: &[Vec<String>]) -> LstmAutoencoder {
    LstmAutoencoder::train(
        corpus,
        LstmConfig {
            embed_dim: 20,
            hidden: 28,
            max_len: 64,
            epochs: 2,
            vocab: VocabConfig {
                min_count: 2,
                max_size: 8000,
                hash_buckets: 256,
            },
            ..Default::default()
        },
    )
}

#[test]
fn account_labeling_is_strong_and_repetitive_users_are_hard() {
    // Enough volume that tail accounts hold several training queries per
    // user (the same scale sensitivity Table 2 documents).
    let wl = SnowCloud::generate(&SnowCloudConfig::paper_table2(0.06, 4242));
    let mut rng = Pcg32::new(8);
    let (train, test) = split_holdout(&wl.records, 0.3, &mut rng);
    let corpus: Vec<Vec<String>> = train.iter().map(|r| r.tokens()).collect();
    let embedder: Arc<dyn querc_embed::Embedder> = Arc::new(small_lstm(&corpus));

    // Account prediction via a relabeled auditor (account as the "user").
    let mut account_records = train.clone();
    for r in &mut account_records {
        r.user = r.account.clone();
    }
    let account_clf = SecurityAuditor::train(&account_records, Arc::clone(&embedder), 30, 5);
    let mut hits = 0;
    for r in &test {
        if !account_clf.audit(&r.sql, &r.account).flagged {
            hits += 1;
        }
    }
    let account_acc = hits as f64 / test.len() as f64;
    assert!(
        account_acc > 0.75,
        "account labeling should be strong, got {account_acc:.2}"
    );

    // User prediction: repetitive accounts must sit clearly below the
    // clean tail accounts.
    let auditor = SecurityAuditor::train(&train, Arc::clone(&embedder), 30, 6);
    let rows = per_account_accuracy(&auditor, &test);
    let rep: Vec<f64> = rows
        .iter()
        .filter(|r| matches!(r.account.as_str(), "acct00" | "acct01"))
        .map(|r| r.accuracy)
        .collect();
    let tail: Vec<f64> = rows
        .iter()
        .filter(|r| !matches!(r.account.as_str(), "acct00" | "acct01" | "acct02"))
        .map(|r| r.accuracy)
        .collect();
    let rep_mean = rep.iter().sum::<f64>() / rep.len().max(1) as f64;
    let tail_mean = tail.iter().sum::<f64>() / tail.len().max(1) as f64;
    assert!(
        tail_mean > rep_mean,
        "clean accounts ({tail_mean:.2}) must beat repetitive ones ({rep_mean:.2})"
    );
}

#[test]
fn stream_label_train_deploy_roundtrip() {
    // Queries stream through one manager into the training module; a
    // classifier is trained, deployed into a second manager's registry
    // and attached to every query that manager serves.
    let wl = SnowCloud::generate(&SnowCloudConfig::pretrain(2, 30, 7));
    let corpus = TrainCorpus::from_records(wl.records, 7);
    let app = ResourcesApp::new(Arc::new(querc_embed::BagOfTokens::new(32, true)));
    let fitted = Arc::new(FittedApp::fit(app, &corpus).unwrap());

    let mut ingest = WorkloadManager::new(WorkloadManagerConfig::default());
    ingest.register_fitted(Arc::clone(&fitted)).unwrap();
    let stream = (0..40).map(|i| {
        let mut lq = if i % 2 == 0 {
            LabeledQuery::new(format!("select spend from marketing_roi where week = {i}"))
        } else {
            LabeledQuery::new(format!("insert into iot_readings values ({i}, {i})"))
        };
        lq.set(
            "pipeline",
            if i % 2 == 0 { "reporting" } else { "telemetry" },
        );
        lq
    });
    assert_eq!(ingest.submit_batch("resources", stream).unwrap(), 40);
    let training_log = ingest.drain().training_log;
    assert_eq!(training_log.len(), 40);

    let mut trainer = TrainingModule::new(TrainingConfig::default());
    for lq in training_log {
        trainer.ingest(lq);
    }
    let embedder = trainer.train_embedder(&EmbedderKind::BagOfTokens { dim: 64 });
    let mut serving = WorkloadManager::new(WorkloadManagerConfig {
        attach_labels: vec!["pipeline".to_string()],
        ..Default::default()
    });
    trainer
        .train_and_deploy(serving.registry(), &embedder, "pipeline")
        .expect("label present");
    serving.register_fitted(fitted).unwrap();
    serving
        .submit(
            "resources",
            LabeledQuery::new("select spend from marketing_roi where week = 99"),
        )
        .unwrap();
    let outputs = serving.drain().outputs;
    let labeled = &outputs["resources"][0];
    assert_eq!(labeled.get("application"), Some("resources"));
    assert_eq!(labeled.get("predicted_pipeline"), Some("reporting"));
}

#[test]
fn transfer_embedder_labels_a_different_workload() {
    // Train the embedder on one service's workload, use it for labeling
    // on an entirely different tenant mix (the paper's transfer story).
    let pretrain = SnowCloud::generate(&SnowCloudConfig::pretrain(8, 60, 71));
    let embedder: Arc<dyn querc_embed::Embedder> = Arc::new(small_lstm(&pretrain.token_corpus()));

    let target = SnowCloud::generate(&SnowCloudConfig::paper_table2(0.01, 99));
    let mut rng = Pcg32::new(12);
    let (train, test) = split_holdout(&target.records, 0.3, &mut rng);
    let mut account_records = train.clone();
    for r in &mut account_records {
        r.user = r.account.clone();
    }
    let clf = SecurityAuditor::train(&account_records, embedder, 30, 13);
    let hits = test
        .iter()
        .filter(|r| !clf.audit(&r.sql, &r.account).flagged)
        .count();
    let acc = hits as f64 / test.len() as f64;
    // 13 accounts → chance ≈ 18% by majority class; transfer must do far
    // better even though no target-tenant query was seen in pre-training.
    assert!(acc > 0.5, "transfer account labeling {acc:.2}");
}
