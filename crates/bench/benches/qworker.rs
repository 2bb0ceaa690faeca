//! Shard-worker labeling benchmarks: per-query vs batched labeling.
//!
//! A manager's shard worker labels a chunk by embedding the queries
//! that carry no cached vector in one [`EnrichedQuery::vectors`] call and
//! predicting the whole chunk in one batched call; this pins the win of
//! [`querc_embed::Embedder::embed_batch`] on that path. Doc2Vec is where batching matters most — its per-call setup
//! (the unigram^0.75 alias table over the whole vocabulary) is hoisted
//! out of the chunk — while bag-of-tokens bounds the benefit from
//! buffer reuse alone. Throughput is reported in queries/sec.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use querc::{EnrichedQuery, QueryClassifier, TrainedLabeler};
use querc_embed::{BagOfTokens, Doc2Vec, Doc2VecConfig, Embedder, VocabConfig};
use querc_learn::{ForestConfig, RandomForest};
use querc_linalg::Pcg32;
use querc_workloads::{SnowCloud, SnowCloudConfig};
use std::hint::black_box;
use std::sync::Arc;

/// The multi-tenant pre-training workload: its per-tenant schema
/// vocabulary is what makes the Doc2Vec noise table (rebuilt per query
/// on the unbatched path) expensive, as in the paper's setting.
fn snowcloud() -> SnowCloud {
    SnowCloud::generate(&SnowCloudConfig::pretrain(24, 60, 9))
}

fn serving_stream(workload: &SnowCloud, n: usize) -> Vec<String> {
    workload
        .records
        .iter()
        .take(n)
        .map(|r| r.sql.clone())
        .collect()
}

fn classifier(workload: &SnowCloud, embedder: Arc<dyn Embedder>) -> Arc<QueryClassifier> {
    let train = &workload.records[..400.min(workload.records.len())];
    let docs: Vec<Vec<String>> = train.iter().map(|r| r.tokens()).collect();
    let vectors = embedder.embed_batch(&docs);
    let labels: Vec<&str> = train.iter().map(|r| r.cluster.as_str()).collect();
    let labeler = TrainedLabeler::train(
        RandomForest::new(ForestConfig::extra_trees(10)),
        &vectors,
        &labels,
        &mut Pcg32::new(5),
    );
    Arc::new(QueryClassifier::new("cluster", embedder, labeler))
}

fn doc2vec(workload: &SnowCloud) -> Arc<dyn Embedder> {
    Arc::new(Doc2Vec::train(
        &workload.token_corpus(),
        Doc2VecConfig {
            dim: 32,
            epochs: 2,
            infer_epochs: 10,
            vocab: VocabConfig {
                min_count: 1,
                max_size: 20_000,
                hash_buckets: 1024,
            },
            ..Default::default()
        },
    ))
}

/// Label the stream in chunks of `chunk` queries, as a shard worker
/// does: fresh (uncached) queries, one batched embed and one batched
/// prediction per chunk.
fn label_stream(clf: &QueryClassifier, stream: &[String], chunk: usize) -> usize {
    let mut labeled = 0;
    for sqls in stream.chunks(chunk) {
        let queries: Vec<EnrichedQuery> = sqls.iter().map(EnrichedQuery::from_sql).collect();
        let vectors = EnrichedQuery::vectors(&queries, clf.embedder().as_ref());
        labeled += black_box(clf.label_vectors_batch(&vectors)).len();
    }
    labeled
}

fn bench_qworker(c: &mut Criterion) {
    let workload = snowcloud();
    let stream = serving_stream(&workload, 128);

    for (tag, embedder) in [
        (
            "bow",
            Arc::new(BagOfTokens::new(128, true)) as Arc<dyn Embedder>,
        ),
        ("doc2vec", doc2vec(&workload)),
    ] {
        let clf = classifier(&workload, embedder);
        let mut g = c.benchmark_group(format!("qworker_{tag}"));
        g.sample_size(10);
        g.throughput(Throughput::Elements(stream.len() as u64));
        // chunk 1 → the per-query path; chunk 64 → chunked embed_batch.
        g.bench_function("per_query", |b| b.iter(|| label_stream(&clf, &stream, 1)));
        g.bench_function("batched_64", |b| b.iter(|| label_stream(&clf, &stream, 64)));
        g.finish();
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_qworker
}
criterion_main!(benches);
