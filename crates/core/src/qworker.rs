//! The Qworker — one shard thread of a
//! [`crate::service::WorkloadManager`], the per-application serving
//! process of paper Fig 1.
//!
//! A worker drains its shard's bounded queue in **chunks** — one blocking
//! `recv`, then non-blocking receives up to the batch size — so a busy
//! stream is embedded and predicted in batches while a trickle flows
//! query by query with no added latency. With QoS on, arrivals park in
//! per-tenant subqueues and chunks are dealt by deficit round robin
//! ([`DrrScheduler`]) instead. Both loops end in one tail,
//! [`Qworker::finish`]: label the chunk, record each query's
//! submit→labeled latency, forward every labeled query to the app's
//! output lane (the database sink) and its training mirror, count it.
//!
//! Labels come from the `application` name, every registry classifier
//! named in [`crate::service::WorkloadManagerConfig::attach_labels`] and
//! the fitted app. Each query is lexed at most once and each embedder
//! embeds it at most once (memoized on the [`EnrichedQuery`], reusing
//! ingress-cached vectors). Registry classifiers are re-resolved once
//! per chunk, so a concurrent `deploy` hot-swaps the model between
//! chunks, never inside one. A classifier or app that fails on a chunk
//! labels it `classifier_error` / `app_error`, and the shard serves on.

use crate::classifier::QueryClassifier;
use crate::enriched::EnrichedQuery;
use crate::histogram::LatencyHistogram;
use crate::labeled::LabeledQuery;
use crate::qos::{DrrScheduler, QosState};
use crate::registry::ModelRegistry;
use crate::service::{routing_key, AppCounters, FittedApp};
use crossbeam::channel::{Receiver, Sender, TryRecvError};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

/// A query stamped with its submit time — the message on shard queues.
/// The [`EnrichedQuery`] carries ingress artifacts (tokens, fingerprint,
/// cached vectors) to the shard instead of recomputing them there.
pub(crate) struct TimedQuery {
    /// The query being served, with its derived artifacts.
    pub(crate) query: EnrichedQuery,
    /// When the producer called `submit`/`submit_batch`: before ingress
    /// embedding and the (possibly blocking) send, so the measured
    /// latency is what a client observes, not just time in the queue.
    pub(crate) enqueued_at: Instant,
}

/// Everything one shard of one registered app serves with.
pub(crate) struct Qworker {
    /// The fitted app labeling every chunk; its name is the
    /// `application` label.
    pub(crate) app: Arc<FittedApp>,
    /// Where `labels` are resolved, once per chunk.
    pub(crate) registry: Arc<ModelRegistry>,
    /// Registry classifiers attached as `predicted_<label>`; one that is
    /// undeployed at a chunk boundary is skipped for that chunk.
    pub(crate) labels: Vec<String>,
    /// Maximum chunk size (≥ 1).
    pub(crate) batch: usize,
    /// The app's live counters; the worker bumps `processed`.
    pub(crate) counters: Arc<AppCounters>,
    /// The app's submit→labeled latency histogram.
    pub(crate) histogram: Arc<LatencyHistogram>,
    /// `Some` drains the shard by deficit round robin and reports
    /// per-tenant completions.
    pub(crate) qos: Option<Arc<QosState>>,
    /// The output lane (the database sink).
    pub(crate) output: Sender<LabeledQuery>,
    /// The training mirror.
    pub(crate) training: Sender<LabeledQuery>,
}

/// A chunk being assembled: queries and their submit stamps, in the
/// order they will be labeled.
struct Chunk {
    queries: Vec<EnrichedQuery>,
    stamps: Vec<Instant>,
}

impl Chunk {
    fn new(capacity: usize) -> Chunk {
        Chunk {
            queries: Vec::with_capacity(capacity),
            stamps: Vec::with_capacity(capacity),
        }
    }

    fn push(&mut self, t: TimedQuery) {
        self.queries.push(t.query);
        self.stamps.push(t.enqueued_at);
    }
}

impl Qworker {
    /// Serve `input` until every sender is dropped and everything
    /// accepted is labeled and forwarded. Run it on the shard's one
    /// thread: a single FIFO consumer is what makes hash routing an
    /// ordering guarantee.
    pub(crate) fn run(self, input: Receiver<TimedQuery>) {
        match self.qos.clone() {
            Some(qos) => self.run_drr(&qos, input),
            None => self.run_fifo(input),
        }
    }

    /// The FIFO loop: block for the first query of each chunk, then
    /// greedily fill it up to the batch size.
    fn run_fifo(&self, input: Receiver<TimedQuery>) {
        while let Ok(first) = input.recv() {
            let mut chunk = Chunk::new(self.batch);
            chunk.push(first);
            for t in input.try_iter().take(self.batch - 1) {
                chunk.push(t);
            }
            self.finish(chunk, None);
        }
    }

    /// The QoS loop: pull every available arrival off the bounded
    /// channel into the per-tenant [`DrrScheduler`] (the per-tenant
    /// admission cap bounds its memory), then dequeue one fair chunk and
    /// label it. Per-tenant FIFO holds end to end: the channel keeps
    /// arrival order and the scheduler pops each subqueue from the front.
    fn run_drr(&self, qos: &QosState, input: Receiver<TimedQuery>) {
        let mut sched: DrrScheduler<TimedQuery> = DrrScheduler::new(qos.quantum());
        let mut open = true;
        let enqueue = |sched: &mut DrrScheduler<TimedQuery>, t: TimedQuery| {
            let tenant = routing_key(t.query.labeled()).to_string();
            sched.enqueue(&tenant, qos.weight_of(&tenant), t);
        };
        while open || !sched.is_empty() {
            if open && sched.is_empty() {
                // Nothing parked: block for the next arrival (or close).
                match input.recv() {
                    Ok(t) => enqueue(&mut sched, t),
                    Err(_) => {
                        open = false;
                        continue;
                    }
                }
            }
            // Absorb everything already queued so the scheduler sees the
            // full cross-tenant picture before picking a chunk.
            while open {
                match input.try_recv() {
                    Ok(t) => enqueue(&mut sched, t),
                    Err(TryRecvError::Empty) => break,
                    Err(TryRecvError::Disconnected) => open = false,
                }
            }
            let timed = sched.dequeue_chunk(self.batch);
            if timed.is_empty() {
                continue;
            }
            let tenants: Vec<String> = timed
                .iter()
                .map(|t| routing_key(t.query.labeled()).to_string())
                .collect();
            let mut chunk = Chunk::new(timed.len());
            for t in timed {
                chunk.push(t);
            }
            self.finish(chunk, Some((qos, &tenants)));
        }
    }

    /// The one chunk tail of both loops: label, record each query's
    /// submit→labeled latency (and, under QoS, its tenant's completion),
    /// forward every labeled query to both lanes, count the chunk.
    fn finish(&self, chunk: Chunk, qos: Option<(&QosState, &[String])>) {
        let n = chunk.queries.len();
        let labeled = self.process_chunk(chunk.queries);
        let done = Instant::now();
        for (i, at) in chunk.stamps.iter().enumerate() {
            let elapsed = done.duration_since(*at);
            self.histogram.record(elapsed);
            if let Some((qos, tenants)) = qos {
                qos.complete(&tenants[i], Some(elapsed));
            }
        }
        for lq in labeled {
            // The sink may have hung up (tests, shutdown); labeling
            // continues because the training mirror matters more.
            let _ = self.output.send(lq.clone());
            let _ = self.training.send(lq);
        }
        self.counters
            .processed
            .fetch_add(n as u64, Ordering::Relaxed);
    }

    /// Label a chunk with the `application` name, every resolved
    /// registry classifier and the app. Output `i` is input `i`.
    fn process_chunk(&self, mut chunk: Vec<EnrichedQuery>) -> Vec<LabeledQuery> {
        let application = self.app.name();
        for q in &mut chunk {
            q.set("application", application);
        }
        for label in &self.labels {
            // Hold the resolved Arc until the whole chunk is labeled: a
            // concurrent deploy swaps versions between chunks only.
            if let Some(clf) = self.registry.get(label) {
                Self::apply_classifier(&mut chunk, &clf);
            }
        }
        // Pre-fill the app embedder's vectors (memoized) so
        // `label_batch`, which sees the chunk immutably, finds them.
        if let Some(embedder) = self.app.embedder() {
            let _ = EnrichedQuery::vectors_memo(&mut chunk, embedder.as_ref());
        }
        match self.app.label_batch(&chunk) {
            Ok(outputs) => {
                for (q, out) in chunk.iter_mut().zip(outputs) {
                    out.apply_to(q.labeled_mut());
                }
            }
            Err(e) => {
                for q in &mut chunk {
                    q.set("app_error", e.to_string());
                }
            }
        }
        chunk.into_iter().map(EnrichedQuery::into_labeled).collect()
    }

    /// Attach one classifier's `predicted_<label>` to every query in the
    /// chunk from shared vectors (cached ones reused, the rest embedded
    /// in one batch and memoized), in one batched prediction. A labeler
    /// that rejects the vectors labels the chunk `classifier_error`.
    fn apply_classifier(chunk: &mut [EnrichedQuery], clf: &QueryClassifier) {
        let vectors = EnrichedQuery::vectors_memo(chunk, clf.embedder().as_ref());
        let refs: Vec<&[f32]> = vectors.iter().map(|v| v.as_slice()).collect();
        match clf.labeler().try_predict_refs(&refs) {
            Ok(values) => {
                let name = format!("predicted_{}", clf.label_name);
                for (q, value) in chunk.iter_mut().zip(values) {
                    q.set(name.as_str(), value);
                }
            }
            Err(e) => {
                let error = format!("{}: {e}", clf.label_name);
                for q in chunk.iter_mut() {
                    q.set("classifier_error", error.as_str());
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apps::{ResourcesApp, TrainCorpus};
    use crate::classifier::TrainedLabeler;
    use crossbeam::channel::unbounded;
    use querc_embed::{BagOfTokens, Embedder};
    use querc_learn::{ForestConfig, RandomForest};
    use querc_linalg::Pcg32;
    use querc_workloads::QueryRecord;

    fn team_classifier(label: &str) -> QueryClassifier {
        let embedder: Arc<dyn Embedder> = Arc::new(BagOfTokens::new(64, true));
        let sqls: Vec<String> = (0..20)
            .map(|i| {
                if i % 2 == 0 {
                    format!("select a{} from warehouse_facts", i)
                } else {
                    format!("insert into event_log values ({i})")
                }
            })
            .collect();
        let labels: Vec<&str> = (0..20)
            .map(|i| if i % 2 == 0 { "analytics" } else { "ingest" })
            .collect();
        let vectors: Vec<Vec<f32>> = sqls.iter().map(|s| embedder.embed_sql(s)).collect();
        let labeler = TrainedLabeler::train(
            RandomForest::new(ForestConfig::extra_trees(10)),
            &vectors,
            &labels,
            &mut Pcg32::new(5),
        );
        QueryClassifier::new(label, embedder, labeler)
    }

    fn resources_app() -> Arc<FittedApp> {
        let records: Vec<QueryRecord> = (0..30)
            .map(|i| QueryRecord {
                sql: format!("select v from kv_store where k = {i}"),
                user: "u".into(),
                account: "a".into(),
                cluster: "c".into(),
                dialect: "generic".into(),
                runtime_ms: (i % 3) as f64 * 400.0,
                mem_mb: 1.0,
                error_code: None,
                timestamp: i,
            })
            .collect();
        let corpus = TrainCorpus::from_records(records, 3);
        let app = ResourcesApp::new(Arc::new(BagOfTokens::new(32, false)));
        Arc::new(FittedApp::fit(app, &corpus).unwrap())
    }

    /// A shard worker for the resources app attaching `labels` from
    /// `registry`, plus its output and training receivers.
    fn worker(
        registry: &Arc<ModelRegistry>,
        labels: &[&str],
        batch: usize,
    ) -> (Qworker, Receiver<LabeledQuery>, Receiver<LabeledQuery>) {
        let (output, output_rx) = unbounded();
        let (training, training_rx) = unbounded();
        let worker = Qworker {
            app: resources_app(),
            registry: Arc::clone(registry),
            labels: labels.iter().map(|l| l.to_string()).collect(),
            batch,
            counters: Arc::default(),
            histogram: Arc::new(LatencyHistogram::new()),
            qos: None,
            output,
            training,
        };
        (worker, output_rx, training_rx)
    }

    /// A registry with the team classifier deployed as `workload_class`.
    fn team_registry() -> Arc<ModelRegistry> {
        let registry = Arc::new(ModelRegistry::new());
        registry.deploy("workload_class", team_classifier("workload_class"));
        registry
    }

    /// Run `worker` over `sqls` on a closed stream; returns its counters.
    fn serve(worker: Qworker, sqls: impl IntoIterator<Item = String>) -> Arc<AppCounters> {
        let (tx, rx) = unbounded();
        for sql in sqls {
            let query = EnrichedQuery::from_sql(sql);
            let enqueued_at = Instant::now();
            tx.send(TimedQuery { query, enqueued_at }).unwrap();
        }
        drop(tx);
        let counters = Arc::clone(&worker.counters);
        worker.run(rx);
        counters
    }

    #[test]
    fn process_attaches_application_and_predictions() {
        let (worker, _, _) = worker(&team_registry(), &["workload_class"], 32);
        let chunk = vec![EnrichedQuery::from_sql("select a2 from warehouse_facts")];
        let out = worker.process_chunk(chunk).pop().unwrap();
        assert_eq!(out.get("application"), Some("resources"));
        assert_eq!(out.get("predicted_workload_class"), Some("analytics"));
        assert!(out.get("resource_class").is_some());
    }

    #[test]
    fn process_chunk_matches_query_at_a_time() {
        let (worker, _, _) = worker(&team_registry(), &["workload_class"], 32);
        let sqls = [
            "select a4 from warehouse_facts",
            "insert into event_log values (9)",
            "select a8 from warehouse_facts",
        ];
        let chunk: Vec<EnrichedQuery> = sqls.iter().map(|s| EnrichedQuery::from_sql(*s)).collect();
        let batched = worker.process_chunk(chunk);
        for (sql, out) in sqls.iter().zip(&batched) {
            let single = worker.process_chunk(vec![EnrichedQuery::from_sql(*sql)]);
            assert_eq!(*out, single[0], "chunked and single paths must agree");
        }
    }

    #[test]
    fn inline_mode_forwards_to_database_and_trainer() {
        // Every worker is inline: each labeled query goes to the output
        // lane (the database sink) and to the training mirror.
        let (worker, db_rx, tr_rx) = worker(&team_registry(), &["workload_class"], 32);
        let histogram = Arc::clone(&worker.histogram);
        let counters = serve(
            worker,
            (0..5).map(|i| format!("insert into event_log values ({i})")),
        );
        assert_eq!(counters.processed.load(Ordering::Relaxed), 5);
        assert_eq!(histogram.snapshot().count, 5);
        let outputs: Vec<LabeledQuery> = db_rx.iter().collect();
        assert_eq!(outputs, tr_rx.iter().collect::<Vec<_>>());
        assert_eq!(outputs.len(), 5);
        for lq in &outputs {
            assert_eq!(lq.get("predicted_workload_class"), Some("ingest"));
        }
    }

    #[test]
    fn tiny_batch_size_still_processes_everything() {
        let (worker, db_rx, tr_rx) = worker(&team_registry(), &["workload_class"], 1);
        let counters = serve(
            worker,
            (0..7).map(|i| format!("select a{i} from warehouse_facts")),
        );
        assert_eq!(counters.processed.load(Ordering::Relaxed), 7);
        assert_eq!(db_rx.iter().count(), 7);
        assert_eq!(tr_rx.iter().count(), 7);
    }

    #[test]
    fn chunk_lexes_each_query_exactly_once() {
        // Two registry classifiers plus a fitted app with a *distinct*
        // embedder config: before the EnrichedQuery memoization, each
        // consumer re-tokenized the chunk (3 lexes per query); now the
        // OnceLock serves every consumer from one lex.
        let registry = team_registry();
        registry.deploy("workload_class_2", team_classifier("workload_class_2"));
        let (worker, _, _) = worker(&registry, &["workload_class", "workload_class_2"], 32);

        let chunk: Vec<EnrichedQuery> = (0..9)
            .map(|i| EnrichedQuery::from_sql(format!("select a{i} from warehouse_facts")))
            .collect();
        let before = querc_sql::lex_calls_this_thread();
        let labeled = worker.process_chunk(chunk);
        let lexes = querc_sql::lex_calls_this_thread() - before;
        assert_eq!(labeled.len(), 9);
        assert_eq!(
            lexes, 9,
            "2 classifiers + 1 app must share one lex per query, saw {lexes}"
        );
        for lq in &labeled {
            assert!(lq.get("predicted_workload_class").is_some());
            assert!(lq.get("predicted_workload_class_2").is_some());
            assert!(lq.get("resource_class").is_some());
        }
    }

    #[test]
    fn registry_hot_swap_is_never_mid_chunk() {
        // A classifier whose every prediction is its version tag: train
        // a single-class labeler so predict() is constant.
        fn tagged(tag: &str) -> QueryClassifier {
            let embedder: Arc<dyn Embedder> = Arc::new(BagOfTokens::new(16, false));
            let docs: Vec<Vec<String>> = (0..4)
                .map(|i| querc_embed::sql_tokens(&format!("select {i} from t")))
                .collect();
            let vectors = embedder.embed_batch(&docs);
            let labels: Vec<&str> = vec![tag; 4];
            let labeler = TrainedLabeler::train(
                RandomForest::new(ForestConfig::extra_trees(2)),
                &vectors,
                &labels,
                &mut Pcg32::new(9),
            );
            QueryClassifier::new("version", embedder, labeler)
        }

        let registry = Arc::new(ModelRegistry::new());
        registry.deploy("version", tagged("v0"));
        let (worker, _, _) = worker(&registry, &["version"], 32);

        // Deployer thread: hot-swaps (and briefly undeploys) while the
        // main thread labels chunks.
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let deployer = {
            let registry = Arc::clone(&registry);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut v = 1u64;
                while !stop.load(Ordering::SeqCst) {
                    registry.deploy("version", tagged(&format!("v{v}")));
                    if v.is_multiple_of(7) {
                        registry.undeploy("version");
                        registry.deploy("version", tagged(&format!("v{v}")));
                    }
                    v += 1;
                    std::thread::yield_now();
                }
            })
        };

        for round in 0..300 {
            let chunk: Vec<EnrichedQuery> = (0..8)
                .map(|i| EnrichedQuery::from_sql(format!("select {i} from t where x = {round}")))
                .collect();
            let labeled = worker.process_chunk(chunk);
            // Consistency: within one chunk, every query saw the SAME
            // model version (one pinned Arc) — or, if the label was
            // undeployed at the chunk boundary, none did.
            let tags: std::collections::HashSet<Option<&str>> = labeled
                .iter()
                .map(|lq| lq.get("predicted_version"))
                .collect();
            assert_eq!(
                tags.len(),
                1,
                "round {round}: chunk saw a mid-chunk model swap: {tags:?}"
            );
        }
        stop.store(true, Ordering::SeqCst);
        deployer.join().unwrap();
    }

    #[test]
    fn hung_up_database_does_not_stop_labeling() {
        let (worker, db_rx, tr_rx) = worker(&team_registry(), &["workload_class"], 32);
        drop(db_rx); // database sink gone
        let counters = serve(worker, ["select 1".to_string()]);
        assert_eq!(counters.processed.load(Ordering::Relaxed), 1);
        assert_eq!(tr_rx.iter().count(), 1);
    }
}
