//! Offline workload analytics: clustering, error prediction, resource
//! classes and next-query recommendation, all from one embedding space.
//!
//! Demonstrates the architectural point of Querc: one learned
//! representation feeds every application (paper §2's split design).
//!
//! Run with: `cargo run --release --example workload_explorer`

use querc::apps::resources::ResourceBuckets;
use querc::apps::{ErrorsApp, RecommendApp, ResourcesApp, TrainCorpus, WorkloadApp};
use querc::EnrichedQuery;
use querc_cluster::{choose_k_elbow, kmeans, mean_silhouette, KMeansConfig};
use querc_embed::{BagOfTokens, Embedder};
use querc_linalg::Pcg32;
use querc_workloads::{SnowCloud, SnowCloudConfig};
use std::sync::Arc;

fn main() {
    let wl = SnowCloud::generate(&SnowCloudConfig::pretrain(6, 80, 3));
    println!("workload: {} queries from 6 tenants", wl.records.len());

    // One shared embedder for every application below.
    let embedder: Arc<dyn Embedder> = Arc::new(BagOfTokens::new(128, true));

    // --- clustering + elbow + silhouette ---------------------------------
    let points: Vec<Vec<f32>> = wl
        .records
        .iter()
        .map(|r| embedder.embed(&r.tokens()))
        .collect();
    let mut rng = Pcg32::new(21);
    let k = choose_k_elbow(&points, 2, 16, 0.02, &mut rng);
    let clustering = kmeans(
        &points,
        &KMeansConfig {
            k,
            ..Default::default()
        },
        &mut rng,
    );
    let sil = mean_silhouette(&points, &clustering.assignments);
    println!("\nclustering: elbow chose k = {k}, silhouette {sil:.2}");
    let witnesses = clustering.witnesses(&points);
    for (c, (&w, size)) in witnesses.iter().zip(clustering.sizes()).enumerate() {
        let sql = &wl.records[w].sql;
        println!(
            "  cluster {c} ({size:>3} queries): {}",
            &sql[..sql.len().min(84)]
        );
    }

    // --- error prediction -------------------------------------------------
    let batch: Vec<EnrichedQuery> = wl
        .records
        .iter()
        .map(|r| EnrichedQuery::from_sql(r.sql.clone()))
        .collect();
    let errors = wl.records.iter().filter(|r| r.is_error()).count();
    let errors_app = ErrorsApp::new(Arc::clone(&embedder));
    let errors_model = errors_app
        .fit(&TrainCorpus::from_records(wl.records.clone(), 5))
        .expect("non-empty log");
    println!("\nerror prediction: {errors} failures in the log");
    let risky = errors_app
        .label_batch(&errors_model, &batch)
        .expect("an errors model")
        .iter()
        .filter(|o| o.get("error_risky") == Some("true"))
        .count();
    println!("  {risky} queries flagged as risky before execution");

    // --- resource classes --------------------------------------------------
    let buckets = ResourceBuckets::default();
    let resources_app = ResourcesApp::new(Arc::clone(&embedder));
    let resources_model = resources_app
        .fit(&TrainCorpus::from_records(wl.records.clone(), 9))
        .expect("non-empty log");
    let classes = resources_app
        .label_batch(&resources_model, &batch)
        .expect("a resources model");
    let hits = classes
        .iter()
        .zip(&wl.records)
        .filter(|(o, r)| o.get("resource_class") == Some(buckets.classify(r.runtime_ms).name()))
        .count();
    println!(
        "\nresource hints (held-in accuracy {:.0}%):",
        100.0 * hits as f64 / wl.records.len() as f64
    );
    for (r, o) in wl.records.iter().zip(&classes).take(3) {
        println!(
            "  predicted `{}` for: {}",
            o.get("resource_class").unwrap_or("?"),
            &r.sql[..r.sql.len().min(70)]
        );
    }

    // --- next-query recommendation -----------------------------------------
    // Sessions are each user's queries in timestamp order.
    let recommend_app = RecommendApp::new(Arc::clone(&embedder)).with_clusters(k);
    let recommend_model = recommend_app
        .fit(&TrainCorpus::from_records(wl.records.clone(), 13))
        .expect("non-empty log");
    let next = recommend_app
        .label_batch(&recommend_model, &batch[..1])
        .expect("a recommend model");
    let last = &wl.records[0].sql;
    println!("\nafter: {}", &last[..last.len().min(84)]);
    let rec = next[0].get("next_query").unwrap_or("?");
    println!("recommend next: {}", &rec[..rec.len().min(84)]);
}
