//! Security auditing by user/account prediction (paper §5.2).
//!
//! [`AuditApp`] learns `V → user` from query syntax alone; at
//! serving time a query whose *predicted* user differs from the
//! *actual* submitting user is flagged for audit (a possibly
//! compromised account). [`per_account_accuracy`] reads the same
//! labels back as the paper's Table 2.

use super::label::{LabelApp, LabelModel, LabelSpec, Output};
use super::WorkloadApp;
use crate::enriched::EnrichedQuery;
use crate::error::Result;
use querc_embed::Embedder;
use querc_workloads::QueryRecord;
use std::collections::{BTreeMap, HashSet};
use std::sync::Arc;

pub(super) const AUDIT: LabelSpec = LabelSpec {
    name: "audit",
    task: "predict the submitting user from syntax; flag out-of-character queries",
    target: |r| r.user.as_str(),
    classes: &[],
    salt: 0xa0d1,
    outputs: &[
        Output::Disagrees("audit_flag", "user", 0.0),
        Output::Class("predicted_user"),
    ],
};

/// Auditing as a [`LabelApp`]: labels `predicted_user`, plus
/// `audit_flag=true` when the query carries a `user` label that
/// disagrees with the prediction (§5.2's compromised-account signal).
pub struct AuditApp;

impl AuditApp {
    /// The auditing app over `embedder`.
    #[allow(clippy::new_ret_no_self)] // every configuration is one type, `LabelApp`
    pub fn new(embedder: Arc<dyn Embedder>) -> LabelApp {
        LabelApp::new(&AUDIT, embedder)
    }
}

/// Per-account labeling accuracy (Table 2's rows).
#[derive(Debug, Clone, PartialEq)]
pub struct AccountAccuracy {
    /// Account (tenant) name.
    pub account: String,
    /// Held-out queries scored for this account.
    pub queries: usize,
    /// Distinct users seen in those queries.
    pub users: usize,
    /// Fraction of queries whose predicted user matched the actual one.
    pub accuracy: f64,
}

/// Per-account user-prediction accuracy over held-out records, sorted by
/// query volume descending — exactly the layout of the paper's Table 2.
/// Each record is labeled by `app` (an [`AuditApp`]) through its
/// own `label_batch`, carrying its actual `user`; a hit is an
/// `audit_flag` of `"false"`.
pub fn per_account_accuracy(
    app: &LabelApp,
    model: &LabelModel,
    records: &[QueryRecord],
) -> Result<Vec<AccountAccuracy>> {
    let batch: Vec<EnrichedQuery> = records
        .iter()
        .map(|r| {
            let mut q = EnrichedQuery::from_sql(r.sql.clone());
            q.set("user", r.user.clone());
            q
        })
        .collect();
    // (hits, queries, users) per account.
    let mut by_account: BTreeMap<&str, (usize, usize, HashSet<&str>)> = BTreeMap::new();
    for (r, out) in records.iter().zip(app.label_batch(model, &batch)?) {
        let (hits, queries, users) = by_account.entry(r.account.as_str()).or_default();
        *hits += usize::from(out.get("audit_flag") == Some("false"));
        *queries += 1;
        users.insert(r.user.as_str());
    }
    let mut rows: Vec<AccountAccuracy> = by_account
        .into_iter()
        .map(|(account, (hits, queries, users))| AccountAccuracy {
            account: account.to_string(),
            queries,
            users: users.len(),
            accuracy: hits as f64 / queries as f64,
        })
        .collect();
    rows.sort_by_key(|row| std::cmp::Reverse(row.queries));
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apps::label::tests::{label, query};
    use crate::apps::TrainCorpus;
    use querc_embed::BagOfTokens;

    fn records() -> Vec<QueryRecord> {
        // Two users with sharply distinct habits.
        (0..40)
            .map(|i| {
                let (user, sql) = if i % 2 == 0 {
                    (
                        "acct/alice",
                        format!("select revenue from finance_reports where q = {i}"),
                    )
                } else {
                    (
                        "acct/bob",
                        format!("insert into sensor_stream values ({i}, {i})"),
                    )
                };
                QueryRecord {
                    sql,
                    user: user.into(),
                    account: "acct".into(),
                    cluster: "c0".into(),
                    dialect: "generic".into(),
                    runtime_ms: 1.0,
                    mem_mb: 1.0,
                    error_code: None,
                    timestamp: i,
                }
            })
            .collect()
    }

    /// A 15-tree auditor fitted on `records` with the forest stream `seed`.
    fn train(records: &[QueryRecord], seed: u64) -> (LabelApp, LabelModel) {
        let app = AuditApp::new(Arc::new(BagOfTokens::new(64, true))).with_trees(15);
        let corpus = TrainCorpus::from_records(records.to_vec(), seed ^ 0xa0d1);
        let model = app.fit(&corpus).unwrap();
        (app, model)
    }

    fn auditor() -> (LabelApp, LabelModel) {
        train(&records(), 7)
    }

    #[test]
    fn normal_queries_pass_audit() {
        let (app, model) = auditor();
        let sql = "select revenue from finance_reports where q = 99";
        let v = label(&app, &model, &[query(sql, &[("user", "acct/alice")])]);
        assert_eq!(v[0].get("audit_flag"), Some("false"), "{v:?}");
    }

    #[test]
    fn out_of_character_query_is_flagged() {
        let (app, model) = auditor();
        // Alice's account suddenly issues Bob-style ingest traffic.
        let sql = "insert into sensor_stream values (1, 2)";
        let v = label(&app, &model, &[query(sql, &[("user", "acct/alice")])]);
        assert_eq!(v[0].get("audit_flag"), Some("true"));
        assert_eq!(v[0].get("predicted_user"), Some("acct/bob"));
    }

    #[test]
    fn audit_batch_returns_only_flags() {
        let (app, model) = auditor();
        let mut recs = records();
        // Corrupt one record: bob's query under alice's name.
        recs[1].user = "acct/alice".into();
        let batch: Vec<EnrichedQuery> = recs
            .iter()
            .map(|r| query(&r.sql, &[("user", &r.user)]))
            .collect();
        let flags: Vec<usize> = (label(&app, &model, &batch).iter().enumerate())
            .filter(|(_, o)| o.get("audit_flag") == Some("true"))
            .map(|(i, _)| i)
            .collect();
        assert!(flags.contains(&1));
        // Mostly unflagged.
        assert!(flags.len() < recs.len() / 4);
    }

    #[test]
    fn per_account_accuracy_shape() {
        let (app, model) = auditor();
        let rows = per_account_accuracy(&app, &model, &records()).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].users, 2);
        assert_eq!(rows[0].queries, 40);
        assert!(
            rows[0].accuracy > 0.9,
            "separable users: {}",
            rows[0].accuracy
        );
    }

    #[test]
    fn audit_app_implements_workload_app() {
        let corpus = TrainCorpus::from_records(records(), 7);
        let app = AuditApp::new(Arc::new(BagOfTokens::new(64, true))).with_trees(15);
        let model = app.fit(&corpus).unwrap();
        let mut suspicious = EnrichedQuery::from_sql("insert into sensor_stream values (1, 2)");
        suspicious.set("user", "acct/alice");
        let unlabeled = EnrichedQuery::from_sql("select revenue from finance_reports where q = 3");
        let out = app.label_batch(&model, &[suspicious, unlabeled]).unwrap();
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].get("predicted_user"), Some("acct/bob"));
        assert_eq!(out[0].get("audit_flag"), Some("true"));
        assert_eq!(out[1].get("predicted_user"), Some("acct/alice"));
        assert_eq!(out[1].get("audit_flag"), None, "no actual user to compare");
        let report = app.report(&model);
        assert_eq!(report.app, "audit");
        assert_eq!(report.trained_queries, 40);
        assert!(app.fit(&TrainCorpus::default()).is_err(), "empty corpus");
    }

    #[test]
    fn model_round_trips_through_save_load() {
        let corpus = TrainCorpus::from_records(records(), 7);
        let app = AuditApp::new(Arc::new(BagOfTokens::new(64, true))).with_trees(15);
        let model = app.fit(&corpus).unwrap();
        let json = app
            .save_model(&model)
            .expect("forest labeler is persistable");
        let restored = app.load_model(&json).unwrap();
        let mut suspicious = EnrichedQuery::from_sql("insert into sensor_stream values (1, 2)");
        suspicious.set("user", "acct/alice");
        let clean = EnrichedQuery::from_sql("select revenue from finance_reports where q = 3");
        let batch = [suspicious, clean];
        assert_eq!(
            app.label_batch(&model, &batch).unwrap(),
            app.label_batch(&restored, &batch).unwrap()
        );
        assert_eq!(
            restored.labeler().labels().len(),
            model.labeler().labels().len()
        );
        // A dim-mismatched embedder is rejected, not index-panicked on.
        let narrow = AuditApp::new(Arc::new(BagOfTokens::new(8, true)));
        assert!(matches!(
            narrow.load_model(&json),
            Err(crate::error::QuercError::Corrupt { .. })
        ));
    }

    #[test]
    fn indistinguishable_users_cap_accuracy() {
        // All users run the SAME verbatim query — the paper's Table 2
        // failure mode. Accuracy cannot exceed the majority share.
        let shared: Vec<QueryRecord> = (0..30)
            .map(|i| QueryRecord {
                sql: "select * from shared_dashboard".into(),
                user: format!("acct/u{}", i % 3),
                account: "acct".into(),
                cluster: "c0".into(),
                dialect: "generic".into(),
                runtime_ms: 1.0,
                mem_mb: 1.0,
                error_code: None,
                timestamp: i,
            })
            .collect();
        let (app, model) = train(&shared, 3);
        let rows = per_account_accuracy(&app, &model, &shared).unwrap();
        assert!(
            rows[0].accuracy < 0.5,
            "verbatim-identical queries must be nearly unpredictable, got {}",
            rows[0].accuracy
        );
    }
}
