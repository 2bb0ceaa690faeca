//! Routing-policy misconfiguration detection (paper §4).
//!
//! Learns historical query→cluster routing, then scans a batch in which a
//! policy drift sent analytics traffic to the ETL cluster. Queries whose
//! predicted cluster disagrees confidently with the assigned one are
//! reported — no policy rules are ever parsed.
//!
//! Run with: `cargo run --release --example query_routing`

use querc::apps::{RoutingApp, TrainCorpus, WorkloadApp};
use querc::EnrichedQuery;
use querc_embed::BagOfTokens;
use querc_workloads::QueryRecord;
use std::sync::Arc;

fn record(sql: &str, cluster: &str, i: u64) -> QueryRecord {
    QueryRecord {
        sql: sql.to_string(),
        user: format!("u{}", i % 7),
        account: "acme".into(),
        cluster: cluster.into(),
        dialect: "generic".into(),
        runtime_ms: 50.0,
        mem_mb: 100.0,
        error_code: None,
        timestamp: i,
    }
}

fn main() {
    // Clean routing history: BI rollups on `bi-cluster`, pipeline loads on
    // `etl-cluster`.
    let history: Vec<QueryRecord> = (0..120)
        .map(|i| {
            if i % 2 == 0 {
                record(
                    &format!(
                        "select dim{}, sum(revenue) from finance_mart group by dim{}",
                        i % 4,
                        i % 4
                    ),
                    "bi-cluster",
                    i,
                )
            } else {
                record(
                    &format!("insert into lake_raw select * from staging_batch_{}", i % 5),
                    "etl-cluster",
                    i,
                )
            }
        })
        .collect();

    // Flags only disagreements at confidence 0.6 or more.
    let app = RoutingApp::new(Arc::new(BagOfTokens::new(128, true)));
    let model = app
        .fit(&TrainCorpus::from_records(history.clone(), 11))
        .expect("non-empty history");

    // Live batch with two misrouted analytics queries.
    let mut live = history[..20].to_vec();
    live.push(record(
        "select dim1, sum(revenue) from finance_mart group by dim1",
        "etl-cluster", // drifted policy!
        500,
    ));
    live.push(record(
        "select dim3, sum(revenue) from finance_mart group by dim3",
        "etl-cluster",
        501,
    ));

    let batch: Vec<EnrichedQuery> = live
        .iter()
        .map(|r| {
            let mut q = EnrichedQuery::from_sql(r.sql.clone());
            q.set("cluster", r.cluster.clone());
            q
        })
        .collect();
    let outputs = app.label_batch(&model, &batch).expect("a routing model");
    let anomalies: Vec<usize> = (0..outputs.len())
        .filter(|&i| outputs[i].get("routing_anomaly") == Some("true"))
        .collect();
    println!(
        "checked {} routed queries, {} suspected misroutings:",
        live.len(),
        anomalies.len()
    );
    for i in anomalies {
        println!(
            "  query #{i:>3}: assigned `{}` but looks like `{}` traffic (confidence {})",
            live[i].cluster,
            outputs[i].get("predicted_cluster").unwrap_or("?"),
            outputs[i].get("routing_confidence").unwrap_or("?")
        );
    }

    // The same labels route brand-new queries.
    let fresh =
        EnrichedQuery::from_sql("select dim9, sum(revenue) from finance_mart group by dim9");
    let suggestion = app.label_batch(&model, &[fresh]).expect("a routing model");
    println!(
        "\nsuggested cluster for a new query: {}",
        suggestion[0].get("predicted_cluster").unwrap_or("?")
    );
}
