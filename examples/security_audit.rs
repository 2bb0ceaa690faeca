//! Security auditing by user prediction (paper §5.2 / §4).
//!
//! Trains a `query → user` classifier over a multi-tenant workload, then
//! audits a stream containing an injected compromise: one account's
//! credentials suddenly issuing another user's habitual queries.
//!
//! Run with: `cargo run --release --example security_audit`

use querc::apps::audit::per_account_accuracy;
use querc::apps::{AuditApp, TrainCorpus, WorkloadApp};
use querc::EnrichedQuery;
use querc_embed::{LstmAutoencoder, LstmConfig, VocabConfig};
use querc_linalg::Pcg32;
use querc_workloads::record::split_holdout;
use querc_workloads::{SnowCloud, SnowCloudConfig};
use std::sync::Arc;

fn main() {
    // A small multi-tenant workload with labeled users.
    let wl = SnowCloud::generate(&SnowCloudConfig::paper_table2(0.02, 99));
    let mut rng = Pcg32::new(5);
    let (train, test) = split_holdout(&wl.records, 0.3, &mut rng);
    println!(
        "workload: {} train / {} test queries",
        train.len(),
        test.len()
    );

    // Embedder trained on the same service's traffic.
    let corpus: Vec<Vec<String>> = train.iter().map(|r| r.tokens()).collect();
    let embedder: Arc<dyn querc_embed::Embedder> = Arc::new(LstmAutoencoder::train(
        &corpus,
        LstmConfig {
            embed_dim: 24,
            hidden: 32,
            epochs: 2,
            vocab: VocabConfig {
                min_count: 2,
                max_size: 10_000,
                hash_buckets: 256,
            },
            ..Default::default()
        },
    ));

    let app = AuditApp::new(embedder).with_trees(30);
    let model = app
        .fit(&TrainCorpus::from_records(train, 17))
        .expect("non-empty train split");

    // Per-account accuracy — Table 2's view of the same model.
    println!("\nper-account user-prediction accuracy (held out):");
    let rows = per_account_accuracy(&app, &model, &test).expect("an audit model");
    for row in rows.iter().take(6) {
        println!(
            "  {:<8} {:>5} queries {:>3} users  {:>5.1}%",
            row.account,
            row.queries,
            row.users,
            row.accuracy * 100.0
        );
    }

    // Inject a compromise: take a victim user from a high-accuracy tail
    // account and replay another account's query under their name.
    let victim = test
        .iter()
        .find(|r| r.account == "acct05")
        .map(|r| r.user.clone())
        .unwrap_or_else(|| test[0].user.clone());
    let foreign_sql = test
        .iter()
        .find(|r| r.account == "acct07")
        .map(|r| r.sql.clone())
        .unwrap_or_else(|| "select * from somewhere_else".into());

    println!("\ninjected audit scenario:");
    let mut submission = EnrichedQuery::from_sql(foreign_sql.clone());
    submission.set("user", victim.clone());
    let verdict = app
        .label_batch(&model, &[submission])
        .expect("an audit model")
        .remove(0);
    println!(
        "  user `{victim}` submitted: {}",
        &foreign_sql[..foreign_sql.len().min(80)]
    );
    println!(
        "  predicted author: `{}` — {}",
        verdict.get("predicted_user").unwrap_or("?"),
        if verdict.get("audit_flag") == Some("true") {
            "FLAGGED for audit"
        } else {
            "passed"
        }
    );
}
