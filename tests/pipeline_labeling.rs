//! Integration: the §5.2 labeling pipeline across crates.
//!
//! SnowCloud generation → embedding → classifier training → audits,
//! plus the streaming path: a manager's training mirror into the training
//! module and a deploy/serve round-trip through a second manager's
//! registry.

use querc::apps::audit::per_account_accuracy;
use querc::apps::{AuditApp, LabelApp, LabelModel, ResourcesApp, TrainCorpus, WorkloadApp};
use querc::{
    EmbedderKind, EnrichedQuery, FittedApp, LabeledQuery, TrainingConfig, TrainingModule,
    WorkloadManager, WorkloadManagerConfig,
};
use querc_embed::{LstmAutoencoder, LstmConfig, VocabConfig};
use querc_linalg::Pcg32;
use querc_workloads::record::split_holdout;
use querc_workloads::{QueryRecord, SnowCloud, SnowCloudConfig};
use std::sync::Arc;

/// A 30-tree audit app fitted on `records`. The app draws its forest
/// from `Pcg32::with_stream(corpus_seed ^ 0xa0d1, 0xa0d1)`, so the
/// forest's stream is `seed`.
fn audit(
    records: &[QueryRecord],
    embedder: Arc<dyn querc_embed::Embedder>,
    seed: u64,
) -> (LabelApp, LabelModel) {
    let app = AuditApp::new(embedder).with_trees(30);
    let corpus = TrainCorpus::from_records(records.to_vec(), seed ^ 0xa0d1);
    let model = app.fit(&corpus).unwrap();
    (app, model)
}

/// Share of `records` whose `account` the app predicts, when the app was
/// fitted with each record's account in its `user` field.
fn account_accuracy(app: &LabelApp, model: &LabelModel, records: &[QueryRecord]) -> f64 {
    let batch: Vec<EnrichedQuery> = records
        .iter()
        .map(|r| {
            let mut q = EnrichedQuery::from_sql(r.sql.clone());
            q.set("user", r.account.clone());
            q
        })
        .collect();
    let outputs = app.label_batch(model, &batch).unwrap();
    let hits = outputs
        .iter()
        .filter(|o| o.get("audit_flag") == Some("false"))
        .count();
    hits as f64 / records.len() as f64
}

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
    let (account_app, account_model) = audit(&account_records, Arc::clone(&embedder), 5);
    let account_acc = account_accuracy(&account_app, &account_model, &test);
    assert!(
        account_acc > 0.75,
        "account labeling should be strong, got {account_acc:.2}"
    );

    // User prediction: repetitive accounts must sit clearly below the
    // clean tail accounts.
    let (app, model) = audit(&train, Arc::clone(&embedder), 6);
    let rows = per_account_accuracy(&app, &model, &test).unwrap();
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
    let (app, model) = audit(&account_records, embedder, 13);
    let acc = account_accuracy(&app, &model, &test);
    // 13 accounts → chance ≈ 18% by majority class; transfer must do far
    // better even though no target-tenant query was seen in pre-training.
    assert!(acc > 0.5, "transfer account labeling {acc:.2}");
}
