//! Label-output goldens for the four labeling apps: `audit`, `errors`,
//! `resources` and `routing`.
//!
//! Each app is fitted on one small SnowCloud corpus at a fixed seed and
//! labels the same 64 held-out queries; every other query carries its
//! actual `user` and `cluster`, so the comparison labels (`audit_flag`,
//! `routing_anomaly`) are exercised too. The test pins the exact
//! [`AppOutput`]s: literal labels for the first queries, plus an FNV-1a
//! hash over every output's label names, values and order. Any change
//! to class-id order, RNG streams, tie-breaking or output formatting
//! moves the hash.
//!
//! For each app it also checks that save → load → label gives the same
//! outputs, and that a snapshot restored under an embedder of another
//! dimension is refused with `Corrupt`.

use querc::apps::{
    AppOutput, AuditApp, ErrorsApp, ResourcesApp, RoutingApp, TrainCorpus, WorkloadApp,
};
use querc::{EnrichedQuery, QuercError};
use querc_embed::{BagOfTokens, Embedder};
use querc_linalg::Pcg32;
use querc_workloads::record::split_holdout;
use querc_workloads::{SnowCloud, SnowCloudConfig};
use std::sync::Arc;

const SEED: u64 = 0x1abe1;

fn embedder(dim: usize) -> Arc<dyn Embedder> {
    Arc::new(BagOfTokens::new(dim, true))
}

/// The training corpus and 64 held-out queries; the even-numbered ones
/// carry their actual `user` and `cluster`.
fn corpus_and_batch() -> (TrainCorpus, Vec<EnrichedQuery>) {
    let wl = SnowCloud::generate(&SnowCloudConfig::pretrain(4, 60, 11));
    let mut rng = Pcg32::with_stream(SEED, 7);
    let (train, held) = split_holdout(&wl.records, 0.3, &mut rng);
    assert!(held.len() >= 64, "held-out split too small: {}", held.len());
    let batch = held[..64]
        .iter()
        .enumerate()
        .map(|(i, r)| {
            let mut q = EnrichedQuery::from_sql(r.sql.clone());
            if i % 2 == 0 {
                q.set("user", r.user.clone());
                q.set("cluster", r.cluster.clone());
            }
            q
        })
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

#[test]
fn audit_labels_are_pinned() {
    check(
        AuditApp::new(embedder(64)).with_trees(20),
        AuditApp::new(embedder(16)),
        &[
            &[("audit_flag", "false"), ("predicted_user", "pre01/u01")],
            &[("predicted_user", "pre03/u01")],
            &[("audit_flag", "false"), ("predicted_user", "pre00/u02")],
            &[("predicted_user", "pre02/u00")],
        ],
        11286542078884527041,
    );
}

#[test]
fn errors_labels_are_pinned() {
    check(
        ErrorsApp::new(embedder(64)),
        ErrorsApp::new(embedder(16)),
        &[
            &[("error_probability", "0.000"), ("error_risky", "false")],
            &[("error_probability", "0.025"), ("error_risky", "false")],
            &[("error_probability", "0.000"), ("error_risky", "false")],
            &[("error_probability", "0.000"), ("error_risky", "false")],
        ],
        14356199728735426707,
    );
}

#[test]
fn resources_labels_are_pinned() {
    check(
        ResourcesApp::new(embedder(64)),
        ResourcesApp::new(embedder(16)),
        &[
            &[("resource_class", "medium")],
            &[("resource_class", "long")],
            &[("resource_class", "short")],
            &[("resource_class", "medium")],
        ],
        12475652521750780833,
    );
}

#[test]
fn routing_labels_are_pinned() {
    check(
        RoutingApp::new(embedder(64)),
        RoutingApp::new(embedder(16)),
        &[
            &[
                ("routing_anomaly", "false"),
                ("predicted_cluster", "cluster1"),
                ("routing_confidence", "1.000"),
            ],
            &[
                ("predicted_cluster", "cluster3"),
                ("routing_confidence", "0.725"),
            ],
            &[
                ("routing_anomaly", "false"),
                ("predicted_cluster", "cluster0"),
                ("routing_confidence", "1.000"),
            ],
            &[
                ("predicted_cluster", "cluster2"),
                ("routing_confidence", "1.000"),
            ],
        ],
        13825139344975379404,
    );
}
