//! Label-output goldens for the two clustering apps: `recommend` and
//! `summarize`.
//!
//! Each app is fitted with `BagOfTokens::new(64, true)` on one small
//! SnowCloud corpus at a fixed seed and labels the same 64 held-out
//! queries: `recommend` with 4 clusters, `summarize` at a fixed k and
//! on the elbow path. The training split is shuffled, so `recommend`'s
//! per-user sessions depend on its own grouping and timestamp order.
//! The test pins the exact [`AppOutput`]s: literal labels for the first
//! queries, plus an FNV-1a hash over every output's label names, values
//! and order. Any change to the k-means stream, the point order, the
//! witness choice, the transition argmax or the label keys moves it.
//!
//! For each app it also checks that save → load → label gives the same
//! outputs, and that a snapshot restored under an embedder of another
//! dimension is refused with `Corrupt`. A summarize model handed to
//! recommend is refused with `ModelTypeMismatch`.

use querc::apps::summarize::SummaryConfig;
use querc::apps::{
    AppOutput, DynWorkloadApp, RecommendApp, SummarizeApp, TrainCorpus, WorkloadApp,
};
use querc::{EnrichedQuery, QuercError};
use querc_embed::{BagOfTokens, Embedder};
use querc_linalg::Pcg32;
use querc_workloads::record::split_holdout;
use querc_workloads::{SnowCloud, SnowCloudConfig};
use std::sync::Arc;

const SEED: u64 = 0xc1a5;

fn embedder(dim: usize) -> Arc<dyn Embedder> {
    Arc::new(BagOfTokens::new(dim, true))
}

/// The training corpus and 64 held-out queries.
fn corpus_and_batch() -> (TrainCorpus, Vec<EnrichedQuery>) {
    let wl = SnowCloud::generate(&SnowCloudConfig::pretrain(4, 60, 11));
    let mut rng = Pcg32::with_stream(SEED, 7);
    let (train, held) = split_holdout(&wl.records, 0.3, &mut rng);
    assert!(held.len() >= 64, "held-out split too small: {}", held.len());
    let batch = held[..64]
        .iter()
        .map(|r| EnrichedQuery::from_sql(r.sql.clone()))
        .collect();
    (TrainCorpus::from_records(train, SEED), batch)
}

/// FNV-1a over every label name and value, in order, with separators.
fn hash(outputs: &[AppOutput]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for out in outputs {
        for (name, value) in &out.labels {
            eat(name.as_bytes());
            eat(b"=");
            eat(value.as_bytes());
            eat(b";");
        }
        eat(b"\n");
    }
    h
}

/// Fit `app`, label the batch, check the round trip and the dimension
/// guard (`narrow` is the same app over a 16-dimensional embedder), and
/// compare the outputs with the goldens.
fn check<A: WorkloadApp>(app: A, narrow: A, first: &[&[(&str, &str)]], want_hash: u64) {
    let (corpus, batch) = corpus_and_batch();
    let model = app.fit(&corpus).unwrap();
    let outputs = app.label_batch(&model, &batch).unwrap();
    assert_eq!(outputs.len(), batch.len());

    let json = app.save_model(&model).expect("the model is persistable");
    let restored = app.load_model(&json).unwrap();
    assert_eq!(app.label_batch(&restored, &batch).unwrap(), outputs);
    assert!(matches!(
        narrow.load_model(&json),
        Err(QuercError::Corrupt { .. })
    ));

    for (i, want) in first.iter().enumerate() {
        let got: Vec<(&str, &str)> = outputs[i]
            .labels
            .iter()
            .map(|(n, v)| (n.as_str(), v.as_str()))
            .collect();
        assert_eq!(&got, want, "{} output {i}", app.name());
    }
    assert_eq!(
        hash(&outputs),
        want_hash,
        "{} outputs moved: {outputs:?}",
        app.name()
    );
}

fn fixed_k() -> SummaryConfig {
    SummaryConfig {
        k: Some(6),
        ..Default::default()
    }
}

fn elbow() -> SummaryConfig {
    SummaryConfig {
        k: None,
        k_min: 2,
        k_max: 16,
        ..Default::default()
    }
}

#[test]
fn recommend_labels_are_pinned() {
    check(
        RecommendApp::new(embedder(64)).with_clusters(4),
        RecommendApp::new(embedder(16)).with_clusters(4),
        &[
            &[
                ("query_cluster", "3"),
                ("next_query", "select tr_91a9_region, tr_91a9_status, tr_91a9_price, tr_91a9_price from ship_91a9.trades where tr_91a9_code > 490 and tr_91a9_status > 961 and tr_91a9_status >= 8040 order by tr_91a9_status desc limit 87"),
            ],
            &[
                ("query_cluster", "1"),
                ("next_query", "with rollup_cte as (select in_8ff6_amount, sum(in_8ff6_source) as total from auto_8ff6.invoices where in_8ff6_kind > 708 and in_8ff6_rate > 2168 group by in_8ff6_amount) select * from rollup_cte where total > 52502"),
            ],
            &[
                ("query_cluster", "3"),
                ("next_query", "select tr_91a9_region, tr_91a9_status, tr_91a9_price, tr_91a9_price from ship_91a9.trades where tr_91a9_code > 490 and tr_91a9_status > 961 and tr_91a9_status >= 8040 order by tr_91a9_status desc limit 87"),
            ],
        ],
        11533126929180697220,
    );
}

#[test]
fn summarize_labels_at_a_fixed_k_are_pinned() {
    check(
        SummarizeApp::new(embedder(64)).with_config(fixed_k()),
        SummarizeApp::new(embedder(16)).with_config(fixed_k()),
        &[
            &[
                ("summary_cluster", "5"),
                ("summary_witness", "select d.tr_8e43_cnt, count(*) from (select tr_8e43_cnt, tr_8e43_amount from hr_8e43.trades where tr_8e43_price > 57 and tr_8e43_amount = 3576) d group by d.tr_8e43_cnt"),
            ],
            &[
                ("summary_cluster", "2"),
                ("summary_witness", "select us_8ff6_code, count(*) as n, sum(us_8ff6_qty) as total from auto_8ff6.users where us_8ff6_score >= '2018-05-18' and us_8ff6_label > 1742 group by us_8ff6_code order by total desc"),
            ],
            &[
                ("summary_cluster", "1"),
                ("summary_witness", "select cl_8c90_level, cl_8c90_id, cl_8c90_score, cl_8c90_label, cl_8c90_ts from travel_8c90.claims where cl_8c90_status > 213 and cl_8c90_level >= 2744 order by cl_8c90_id desc limit 26"),
            ],
        ],
        16692168520707251561,
    );
}

#[test]
fn summarize_labels_on_the_elbow_path_are_pinned() {
    check(
        SummarizeApp::new(embedder(64)).with_config(elbow()),
        SummarizeApp::new(embedder(16)).with_config(elbow()),
        &[
            &[
                ("summary_cluster", "5"),
                ("summary_witness", "select d.tr_8e43_cnt, count(*) from (select tr_8e43_cnt, tr_8e43_amount from hr_8e43.trades where tr_8e43_price > 70 and tr_8e43_flag <> 5926) d group by d.tr_8e43_cnt"),
            ],
            &[
                ("summary_cluster", "9"),
                ("summary_witness", "select us_8ff6_code, count(*) as n, sum(us_8ff6_qty) as total from auto_8ff6.users where us_8ff6_score >= '2018-08-13' and us_8ff6_label < 575 group by us_8ff6_code order by total desc"),
            ],
            &[
                ("summary_cluster", "7"),
                ("summary_witness", "select tr_91a9_code, tr_91a9_status, tr_91a9_label from ship_91a9.trades where tr_91a9_price > 603 and tr_91a9_price > 1746 order by tr_91a9_status desc limit 72"),
            ],
        ],
        12410736193895326954,
    );
}

#[test]
fn recommend_refuses_a_summarize_model() {
    let (corpus, batch) = corpus_and_batch();
    let summarize = SummarizeApp::new(embedder(64)).with_config(fixed_k());
    let model = summarize.fit_dyn(&corpus).unwrap();
    let recommend = RecommendApp::new(embedder(64)).with_clusters(4);
    assert!(matches!(
        recommend.label_batch_dyn(model.as_ref(), &batch),
        Err(QuercError::ModelTypeMismatch { app }) if app == "recommend"
    ));
}
