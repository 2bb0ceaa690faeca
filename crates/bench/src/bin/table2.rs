//! **Table 2** — per-account user-prediction accuracy.
//!
//! The paper's diagnosis of the modest global user-labeling score: most
//! accounts predict at > 95%, but a few accounts in which *multiple users
//! run the exact same query text* are nearly unpredictable — and those
//! repetitive accounts cover ~65% of total query volume, dragging the
//! average down.
//!
//! This binary trains the LSTM-embedder user classifier on a train split,
//! reports held-out per-account accuracy sorted by volume (the paper's
//! table layout), and checks the shape: repetitive accounts at the top
//! with low accuracy, the long tail of normal accounts high.

use querc::apps::audit::{per_account_accuracy, AccountAccuracy};
use querc::apps::{AuditApp, TrainCorpus, WorkloadApp};
use querc_bench::harness;
use querc_linalg::Pcg32;
use querc_workloads::record::split_holdout;
use std::sync::Arc;

fn main() {
    println!("== Table 2: per-account user prediction accuracy ==");
    println!("seed = {:#x}, scale = {}", harness::SEED, harness::scale());

    let pretrain = harness::snowcloud_pretrain_corpus();
    eprintln!("training lstm embedder on {} queries…", pretrain.len());
    let lstm: Arc<dyn querc_embed::Embedder> = Arc::new(querc_embed::LstmAutoencoder::train(
        &pretrain,
        harness::lstm_config(),
    ));

    // Larger slice than Table 1: per-account accuracy needs enough held-out
    // queries per user in the tail accounts (the paper's smallest account
    // still has ~1100 queries).
    let labeled = harness::snowcloud_labeled(0.08);
    let mut rng = Pcg32::with_stream(harness::SEED, 0x7ab2);
    let (train, test) = split_holdout(&labeled.records, 0.3, &mut rng);
    eprintln!(
        "labeled workload: {} train / {} test queries",
        train.len(),
        test.len()
    );

    eprintln!("training user classifier…");
    // The audit app seeds its forest with `Pcg32::with_stream(seed ^
    // 0xa0d1, 0xa0d1)`; this corpus seed keeps the stream at
    // `SEED ^ 0x7ab3`, the one the table has always been printed with.
    let corpus = TrainCorpus::from_records(train, harness::SEED ^ 0x7ab3 ^ 0xa0d1);
    let app = AuditApp::new(Arc::clone(&lstm));
    let model = app.fit(&corpus).expect("the train split is not empty");
    let rows = per_account_accuracy(&app, &model, &test).expect("the model is the audit app's");

    println!(
        "\n{:>10} {:>9} {:>7} {:>9}",
        "account", "#queries", "#users", "accuracy"
    );
    for r in &rows {
        println!(
            "{:>10} {:>9} {:>7} {:>8.1}%",
            r.account,
            r.queries,
            r.users,
            r.accuracy * 100.0
        );
    }
    let total: usize = rows.iter().map(|r| r.queries).sum();
    let overall: f64 = rows
        .iter()
        .map(|r| r.accuracy * r.queries as f64)
        .sum::<f64>()
        / total as f64;
    println!("\noverall held-out user accuracy: {:.1}%", overall * 100.0);

    // ---- shape checks ----------------------------------------------------
    // acct00/acct01 are the repetitive accounts; acct02 is the
    // many-users/moderate-repetition one (paper's third row).
    println!("\nshape checks:");
    let mut ok = true;
    let acc = |name: &str| rows.iter().find(|r| r.account == name).map(|r| r.accuracy);
    let a0 = acc("acct00").unwrap_or(1.0);
    let a1 = acc("acct01").unwrap_or(1.0);
    ok &= harness::check(
        "repetitive accounts score poorly",
        a0 < 0.7 && a1 < 0.7,
        format!("acct00 {:.1}%, acct01 {:.1}%", a0 * 100.0, a1 * 100.0),
    );
    let top2: usize = rows
        .iter()
        .filter(|r| r.account == "acct00" || r.account == "acct01")
        .map(|r| r.queries)
        .sum();
    ok &= harness::check(
        "repetitive accounts dominate query volume (~65% in the paper)",
        (0.45..0.85).contains(&(top2 as f64 / total as f64)),
        format!("{:.0}% of volume", 100.0 * top2 as f64 / total as f64),
    );
    let normal: Vec<&AccountAccuracy> = rows
        .iter()
        .filter(|r| !matches!(r.account.as_str(), "acct00" | "acct01" | "acct02"))
        .collect();
    let high = normal.iter().filter(|r| r.accuracy > 0.8).count();
    ok &= harness::check(
        "majority of non-repetitive accounts score high",
        high * 2 > normal.len(),
        format!("{high}/{} accounts above 80%", normal.len()),
    );
    ok &= harness::check(
        "overall accuracy is dragged into the middle band",
        (0.30..0.85).contains(&overall),
        format!("{:.1}%", overall * 100.0),
    );
    harness::finish(ok);
}
