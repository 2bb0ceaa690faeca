//! The serving façade — paper Fig 1 as a sharded, multi-threaded API.
//!
//! A [`WorkloadManager`] owns the versioned [`ModelRegistry`], registers
//! applications by name, and shards each app's query stream across
//! [`WorkloadManagerConfig::shards_per_app`] single-consumer [`Qworker`]
//! threads. Producers call [`WorkloadManager::submit`] /
//! [`WorkloadManager::submit_batch`]; each query is hash-routed to one
//! shard by its tenant key (see [`routing_key`]), so all of a tenant's
//! queries land on the same FIFO queue and their relative order is
//! preserved end to end. Shard queues are **bounded**
//! ([`WorkloadManagerConfig::queue_depth`]) — a producer outrunning the
//! workers blocks on `submit`, which is the backpressure story: memory
//! stays flat under overload instead of queues growing without limit.
//!
//! Workers drain their shard in chunks and label through
//! [`querc_embed::Embedder::embed_batch`], so the hot path stays batched
//! end to end, and record each query's submit→labeled latency into a
//! per-app [`LatencyHistogram`]. [`WorkloadManager::throughput`] exposes
//! live counters plus p50/p95/p99 snapshots; [`WorkloadManager::drain`]
//! closes every shard, joins all workers, and hands back every labeled
//! query (plus the training mirror) with final per-app stats.
//!
//! ```
//! use querc::apps::{ResourcesApp, TrainCorpus};
//! use querc::service::{WorkloadManager, WorkloadManagerConfig};
//! use querc::LabeledQuery;
//! use querc_workloads::{SnowCloud, SnowCloudConfig};
//! use std::sync::Arc;
//!
//! let wl = SnowCloud::generate(&SnowCloudConfig::pretrain(2, 30, 7));
//! let corpus = TrainCorpus::from_records(wl.records.clone(), 7);
//! let embedder: Arc<dyn querc_embed::Embedder> =
//!     Arc::new(querc_embed::BagOfTokens::new(64, true));
//!
//! let cfg = WorkloadManagerConfig {
//!     shards_per_app: 4,
//!     ..Default::default()
//! };
//! let mut mgr = WorkloadManager::new(cfg);
//! mgr.register(ResourcesApp::new(embedder), &corpus).unwrap();
//! mgr.submit("resources", LabeledQuery::new("select 1")).unwrap();
//! let drained = mgr.drain();
//! assert_eq!(drained.outputs["resources"].len(), 1);
//! let stats = &drained.throughput[0];
//! assert_eq!((stats.submitted, stats.processed), (1, 1));
//! assert_eq!(stats.latency.count, 1);
//! ```

use crate::apps::{AppReport, DynWorkloadApp, TrainCorpus, WorkloadApp};
use crate::embed_plane::{EmbedCacheStats, EmbedPlane, EmbedPlaneConfig};
use crate::enriched::EnrichedQuery;
use crate::error::{QuercError, Result};
use crate::histogram::{LatencyHistogram, LatencySnapshot};
use crate::labeled::LabeledQuery;
use crate::qos::{QosConfig, QosDrain, QosState, RejectReason, TenantPolicy};
use crate::qworker::{Qworker, QworkerMode, TimedQuery};
use crate::registry::ModelRegistry;
use crossbeam::channel::{bounded, unbounded, Receiver, Sender, TrySendError};
use parking_lot::Mutex;
use querc_embed::Embedder;
use std::any::Any;
use std::collections::{BTreeMap, HashSet};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

/// The shard-routing key of a query: the `account` label when present
/// (the paper's tenant), else the `user` label, else the SQL text
/// itself. Queries sharing a key always land on the same shard, which
/// is what preserves per-tenant ordering under multi-threaded serving.
pub fn routing_key(lq: &LabeledQuery) -> &str {
    lq.get("account")
        .or_else(|| lq.get("user"))
        .unwrap_or(&lq.sql)
}

/// How the manager picks a shard for an incoming query.
///
/// Shard choice is the manager's locality lever: everything that hashes
/// to one key drains through one Qworker in FIFO order, sharing that
/// worker's warm state (embed cache lines, app model pages).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RoutingPolicy {
    /// Hash the tenant key ([`routing_key`]): account, else user, else
    /// SQL text. Preserves per-tenant ordering — the default, and the
    /// paper's serving layout.
    #[default]
    Tenant,
    /// Hash the query's *table lineage* ([`lineage_routing_key`]):
    /// queries touching the same base tables co-locate on one shard
    /// regardless of tenant, so per-table working sets (index pages,
    /// cached embeddings of that table's templates) stay hot on one
    /// worker. Queries whose lineage is empty (`SHOW`, `SET`, garbage)
    /// fall back to the tenant key. QoS admission is **unaffected** —
    /// token buckets and backlog caps stay per-tenant.
    Lineage,
}

/// The lineage-routing key of a query: the canonical
/// [`querc_sql::ast::Lineage::key`] of its parsed table dependency set
/// (read set joined `,`, or `w:<target>` for pure writes), in the
/// dialect named by the query's `dialect` label (`Generic` when
/// unlabeled). Falls back to [`routing_key`] when the statement touches
/// no tables at all, so every query still routes deterministically.
pub fn lineage_routing_key(lq: &LabeledQuery) -> String {
    let dialect = lq
        .get("dialect")
        .map(querc_sql::Dialect::from_name)
        .unwrap_or(querc_sql::Dialect::Generic);
    let key = querc_sql::parse_query(&lq.sql, dialect).lineage().key();
    if key.is_empty() {
        routing_key(lq).to_string()
    } else {
        key
    }
}

/// Deterministic shard assignment: FNV-1a hash of `key`, reduced modulo
/// `shards`. Pure function of its arguments — stable across processes,
/// runs, and manager instances with the same shard count.
pub fn shard_for(key: &str, shards: usize) -> usize {
    let mut h: u64 = 0xcbf29ce484222325;
    for b in key.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    (h % shards.max(1) as u64) as usize
}

/// A type-erased application plus the model it was fitted to — the unit
/// replicated Qworkers share behind an `Arc`.
pub struct FittedApp {
    app: Box<dyn DynWorkloadApp>,
    model: Box<dyn Any + Send + Sync>,
}

impl FittedApp {
    /// Fit `app` against `corpus` and package the result for serving.
    pub fn fit<A: WorkloadApp + 'static>(app: A, corpus: &TrainCorpus) -> Result<FittedApp> {
        let model = app.fit_dyn(corpus)?;
        Ok(FittedApp {
            app: Box::new(app),
            model,
        })
    }

    /// Registration name of the underlying app.
    pub fn name(&self) -> &'static str {
        self.app.name()
    }

    /// The app's serving embedder, if it declared one (see
    /// [`WorkloadApp::embedder`]) — what the manager embeds through at
    /// ingress.
    pub fn embedder(&self) -> Option<Arc<dyn Embedder>> {
        self.app.embedder_dyn()
    }

    /// Label a batch through the app.
    pub fn label_batch(&self, batch: &[EnrichedQuery]) -> Result<Vec<crate::apps::AppOutput>> {
        self.app.label_batch_dyn(self.model.as_ref(), batch)
    }

    /// Live counters of the fitted model's vector index, if the app
    /// serves nearest-neighbor lookups through the
    /// `querc_index::VectorIndex` plane (see
    /// [`WorkloadApp::index_stats`]).
    pub fn index_stats(&self) -> Option<querc_index::IndexStats> {
        self.app.index_stats_dyn(self.model.as_ref())
    }

    /// The fitted model's self-description.
    pub fn report(&self) -> Result<AppReport> {
        self.app.report_dyn(self.model.as_ref())
    }

    /// Reassemble a fitted app from restored parts — the
    /// [`WorkloadManager::restore`] path, where the model comes out of a
    /// snapshot instead of a fit.
    pub fn from_parts(
        app: Box<dyn DynWorkloadApp>,
        model: Box<dyn Any + Send + Sync>,
    ) -> FittedApp {
        FittedApp { app, model }
    }

    /// Serialize the fitted model for a snapshot, if the app supports
    /// persistence (see [`WorkloadApp::save_model`]). `None` means the
    /// app is skipped at checkpoint time and refits after a restore.
    pub fn save_model(&self) -> Option<String> {
        self.app.save_model_dyn(self.model.as_ref())
    }
}

/// Serving knobs.
#[derive(Debug, Clone)]
pub struct WorkloadManagerConfig {
    /// Shards (single-consumer Qworker threads) per registered app.
    /// Queries are hash-routed to shards by the configured [`routing`]
    /// policy key; more shards means more serving parallelism while
    /// per-key order still holds, because one key always maps to one
    /// shard.
    ///
    /// [`routing`]: WorkloadManagerConfig::routing
    pub shards_per_app: usize,
    /// Shard-selection policy: per-tenant (default) or per-table-lineage
    /// (see [`RoutingPolicy`]). Lineage routing changes *only* which
    /// shard a query lands on; QoS admission control remains keyed by
    /// tenant either way.
    pub routing: RoutingPolicy,
    /// Maximum queries a worker drains per chunk (embed_batch size).
    pub batch: usize,
    /// Capacity of each shard's bounded input queue. A full queue makes
    /// `submit`/`submit_batch` block until the shard catches up —
    /// backpressure instead of unbounded memory growth.
    pub queue_depth: usize,
    /// Registry classifier names every Qworker additionally attaches
    /// (as `predicted_<label>`). Validated against the registry at
    /// registration time, then re-resolved **once per chunk** while
    /// serving, so a later [`ModelRegistry::deploy`] hot-swaps the model
    /// at the next chunk boundary — never mid-chunk.
    pub attach_labels: Vec<String>,
    /// Capacity (in vectors) of the shared ingress embed cache — the
    /// template-fingerprint → vector LRU every registered app reads
    /// from. `0` disables ingress embedding entirely: queries reach the
    /// shards bare and each app embeds for itself (the pre-embed-plane
    /// behavior, useful as a benchmark baseline).
    ///
    /// **Sizing:** one entry costs ~`dim × 4` bytes; size to the
    /// workload's *template* cardinality (distinct statement shapes
    /// after literal stripping — see
    /// `querc_workloads::ReplaySchedule::distinct_templates`), times the
    /// number of distinct embedder namespaces your apps use (apps
    /// sharing one embedder `Arc` share one namespace). Templated cloud
    /// traces typically have 10²–10⁴ templates, so the 64 Ki default is
    /// generous; an undersized cache still serves correctly, it just
    /// evicts (watch [`EmbedCacheStats::evictions`]).
    pub embed_cache_capacity: usize,
    /// Multi-tenant QoS knobs (see [`crate::qos`]). Disabled by default;
    /// when enabled, submissions pass per-tenant token-bucket admission
    /// control, shard workers dequeue by deficit round robin across
    /// per-tenant subqueues, and overload sheds with
    /// [`QuercError::Rejected`] instead of blocking the producer.
    pub qos: QosConfig,
    /// Worker threads for the training/fit compute pool
    /// (`querc_linalg::ComputePool`). `None` keeps the ambient
    /// resolution — a `QUERC_THREADS` env override if set, otherwise the
    /// detected core count; `Some(n)` pins `n` **process-wide** at
    /// [`WorkloadManager::new`]. Every fit path folds parallel work in a
    /// fixed order, so this knob changes wall-clock, never model bits.
    pub training_threads: Option<usize>,
}

impl Default for WorkloadManagerConfig {
    fn default() -> Self {
        WorkloadManagerConfig {
            shards_per_app: 2,
            routing: RoutingPolicy::default(),
            batch: 32,
            queue_depth: 1024,
            attach_labels: Vec::new(),
            embed_cache_capacity: EmbedPlaneConfig::default().capacity,
            qos: QosConfig::default(),
            training_threads: None,
        }
    }
}

/// Per-app throughput counters (live — readable while serving).
#[derive(Debug, Default)]
pub struct AppCounters {
    /// Queries offered to this app. Without QoS this counts queries
    /// accepted onto a shard queue; with QoS enabled it counts every
    /// offered query — admitted **and** rejected — so that after a
    /// drain `submitted == processed + rejected`.
    pub submitted: AtomicU64,
    /// Queries fully labeled by a shard worker.
    pub processed: AtomicU64,
    /// Queries shed by QoS admission control (always 0 without QoS).
    pub rejected: AtomicU64,
    /// Ingress embed-cache hits attributed to this app's submissions.
    pub cache_hits: AtomicU64,
    /// Ingress embed-cache misses attributed to this app's submissions.
    pub cache_misses: AtomicU64,
}

/// Snapshot of one app's serving stats.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AppThroughput {
    /// Application name.
    pub app: String,
    /// Queries offered to this app so far. Without QoS: accepted onto
    /// the shard queues. With QoS enabled: admitted **and** rejected, so
    /// a fully-drained app satisfies `submitted == processed + rejected`
    /// (see [`AppCounters::submitted`]).
    pub submitted: u64,
    /// Queries fully labeled so far.
    pub processed: u64,
    /// Queries shed by QoS admission control — an explicit per-tenant
    /// outcome ([`QuercError::Rejected`]), never a silent drop. Always 0
    /// when QoS is disabled; per-tenant breakdowns live in
    /// [`ServiceDrain::qos`] / [`WorkloadManager::qos_stats`].
    pub rejected: u64,
    /// Ingress embed-cache hits for this app's submissions (a hit means
    /// the query's vector was served from the shared template cache and
    /// no embedding ran anywhere on its serving path).
    ///
    /// Hits and misses count **ingress lookups** — the embedding work
    /// done or avoided — not accepted submissions: a `submit_batch`
    /// that fails mid-way on a closed shard has already looked up (and
    /// embedded) its whole batch, so `cache_hits + cache_misses` can
    /// exceed `submitted` in that failure case.
    pub cache_hits: u64,
    /// Ingress embed-cache misses (the template's first sighting — it
    /// was embedded once and cached for everyone). See
    /// [`AppThroughput::cache_hits`] for the lookup-vs-submission
    /// accounting.
    pub cache_misses: u64,
    /// Submit→labeled latency quantiles (microseconds). Measured from
    /// the `submit`/`submit_batch` call, so ingress embedding and
    /// backpressure wait on a full shard queue are included — this is
    /// client-perceived latency.
    pub latency: LatencySnapshot,
    /// Vector-index search counters of the app's fitted model —
    /// searches served, partitions probed, candidates scanned, and
    /// whether the index is exact or ANN — when the app serves
    /// nearest-neighbor lookups through the `querc_index` plane
    /// (`None` for apps without one). Counters are cumulative over the
    /// **current model generation**; a re-registration starts a fresh
    /// index.
    pub index: Option<querc_index::IndexStats>,
}

impl AppThroughput {
    /// Cache hits over lookups for this app; `0.0` before any lookup
    /// (including when the cache is disabled).
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }
}

/// One registered app: its current model generation (fitted model,
/// shards, workers) and the state that outlives generations.
pub(crate) struct AppEntry {
    pub(crate) fitted: Arc<FittedApp>,
    /// The app's serving embedder — what ingress enrichment embeds
    /// through. `None` opts the app out of ingress embedding.
    pub(crate) embedder: Option<Arc<dyn Embedder>>,
    /// One bounded sender per shard, indexed by [`shard_for`] of the
    /// configured routing-policy key.
    shards: Vec<Sender<TimedQuery>>,
    workers: Vec<JoinHandle<usize>>,
    lanes: AppLanes,
}

impl AppEntry {
    /// Close this generation's shards and join its workers: afterwards
    /// everything they accepted is labeled and on the app's lanes.
    fn retire(&mut self) {
        self.shards.clear();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }

    /// The app's stats as of now; index counters are those of the
    /// current model generation.
    fn throughput(&self, app: &str) -> AppThroughput {
        let c = &self.lanes.counters;
        AppThroughput {
            app: app.to_string(),
            submitted: c.submitted.load(Ordering::Relaxed),
            processed: c.processed.load(Ordering::Relaxed),
            rejected: c.rejected.load(Ordering::Relaxed),
            cache_hits: c.cache_hits.load(Ordering::Relaxed),
            cache_misses: c.cache_misses.load(Ordering::Relaxed),
            latency: self.lanes.latency.snapshot(),
            index: self.fitted.index_stats(),
        }
    }
}

/// An app's output and training channels, counters and latency
/// histogram: created at its first registration and handed to every
/// later generation's workers, so a redeploy neither drops nor reorders
/// what the old generation labeled.
struct AppLanes {
    output: (Sender<LabeledQuery>, Receiver<LabeledQuery>),
    training: (Sender<LabeledQuery>, Receiver<LabeledQuery>),
    counters: Arc<AppCounters>,
    latency: Arc<LatencyHistogram>,
}

/// Everything [`WorkloadManager::drain`] returns.
#[derive(Debug)]
pub struct ServiceDrain {
    /// Fully-labeled queries per app, in completion order.
    pub outputs: BTreeMap<String, Vec<LabeledQuery>>,
    /// The training mirror: every labeled query, ready for
    /// [`crate::training::TrainingModule::ingest`].
    pub training_log: Vec<LabeledQuery>,
    /// Final per-app counters.
    pub throughput: Vec<AppThroughput>,
    /// Final plane-wide embed-cache counters (all zeros when the cache
    /// was disabled via `embed_cache_capacity: 0`).
    pub embed_cache: EmbedCacheStats,
    /// Final per-tenant QoS accounting (empty when QoS was disabled):
    /// per-tenant submitted/processed/rejected counts and latency
    /// quantiles — what the tenant-isolation tests gate on.
    pub qos: QosDrain,
}

/// The batched, replicated serving façade over all registered apps.
pub struct WorkloadManager {
    pub(crate) registry: Arc<ModelRegistry>,
    /// The shared ingress embed plane; `None` when disabled by config.
    pub(crate) plane: Option<Arc<EmbedPlane>>,
    /// Per-tenant QoS state shared with every shard worker; `None` when
    /// QoS is disabled by config.
    pub(crate) qos: Option<Arc<QosState>>,
    pub(crate) apps: BTreeMap<String, AppEntry>,
    cfg: WorkloadManagerConfig,
    /// `(namespace, fingerprint)` cache keys already captured by the
    /// last full [`WorkloadManager::checkpoint`] (or appended by a
    /// [`WorkloadManager::checkpoint_delta`]) — what makes deltas
    /// incremental instead of rewriting the warm set every time.
    pub(crate) persisted_keys: Mutex<HashSet<(u64, u64)>>,
}

impl WorkloadManager {
    /// An empty manager (no apps registered) with the given knobs.
    pub fn new(cfg: WorkloadManagerConfig) -> WorkloadManager {
        if cfg.training_threads.is_some() {
            querc_linalg::pool::set_training_threads(cfg.training_threads);
        }
        let plane = (cfg.embed_cache_capacity > 0).then(|| {
            Arc::new(EmbedPlane::new(&EmbedPlaneConfig {
                capacity: cfg.embed_cache_capacity,
                ..EmbedPlaneConfig::default()
            }))
        });
        let qos = cfg.qos.enabled.then(|| Arc::new(QosState::new(&cfg.qos)));
        WorkloadManager {
            registry: Arc::new(ModelRegistry::new()),
            plane,
            qos,
            apps: BTreeMap::new(),
            cfg,
            persisted_keys: Mutex::new(HashSet::new()),
        }
    }

    /// The registry this manager deploys generic classifiers through.
    pub fn registry(&self) -> &Arc<ModelRegistry> {
        &self.registry
    }

    /// Live plane-wide embed-cache counters (all zeros when the cache is
    /// disabled). Per-app attribution lives in
    /// [`WorkloadManager::throughput`].
    pub fn embed_cache_stats(&self) -> EmbedCacheStats {
        self.plane.as_ref().map(|p| p.stats()).unwrap_or_default()
    }

    /// Fit `app` on `corpus`, then spawn its shard workers. Returns the
    /// fitted model's report.
    ///
    /// Registering a name twice replaces the previous app's model: its
    /// shards are closed and its workers drain and join before the new
    /// generation's workers start on the same output and training
    /// channels, counters and latency histogram. Queries accepted by
    /// `submit` are never silently dropped by a redeploy, and every
    /// query the old generation labeled precedes every one the new
    /// generation labels in [`WorkloadManager::drain`]'s outputs.
    pub fn register<A: WorkloadApp + 'static>(
        &mut self,
        app: A,
        corpus: &TrainCorpus,
    ) -> Result<AppReport> {
        self.register_fitted(Arc::new(FittedApp::fit(app, corpus)?))
    }

    /// [`WorkloadManager::register`] for an app that is already fitted —
    /// the redeploy path when the model hasn't changed, and the way to
    /// serve one trained model from several managers without refitting.
    pub fn register_fitted(&mut self, fitted: Arc<FittedApp>) -> Result<AppReport> {
        let name = fitted.name().to_string();
        let report = fitted.report()?;

        // Fail registration fast if an attach label has no deployment;
        // while serving, workers re-resolve per chunk so later deploys
        // hot-swap without re-registering.
        for label in &self.cfg.attach_labels {
            self.registry.resolve(label)?;
        }

        // Retire the previous generation (if any) BEFORE spawning the new
        // one: its workers join here, so everything it labeled is on the
        // lanes ahead of anything the new generation labels.
        let lanes = match self.apps.remove(&name) {
            Some(mut old) => {
                old.retire();
                old.lanes
            }
            None => AppLanes {
                output: unbounded(),
                training: unbounded(),
                counters: Arc::new(AppCounters::default()),
                latency: Arc::new(LatencyHistogram::new()),
            },
        };

        let mut shards = Vec::new();
        let mut workers = Vec::new();
        for _ in 0..self.cfg.shards_per_app.max(1) {
            // One bounded queue and exactly one consumer thread per
            // shard: FIFO consumption is what makes hash routing an
            // ordering guarantee rather than a load-balancing heuristic.
            let (in_tx, in_rx) = bounded(self.cfg.queue_depth.max(1));
            let mut worker = Qworker::new(name.clone(), Vec::new(), QworkerMode::Inline)
                .with_registry(Arc::clone(&self.registry), self.cfg.attach_labels.clone())
                .with_app(Arc::clone(&fitted))
                .with_batch(self.cfg.batch)
                .with_counter(Arc::clone(&lanes.counters))
                .with_histogram(Arc::clone(&lanes.latency));
            if let Some(qos) = &self.qos {
                worker = worker.with_qos(Arc::clone(qos));
            }
            let db = lanes.output.0.clone();
            let tr = lanes.training.0.clone();
            shards.push(in_tx);
            workers.push(std::thread::spawn(move || worker.run_timed(in_rx, db, tr)));
        }

        self.apps.insert(
            name,
            AppEntry {
                embedder: fitted.embedder(),
                fitted,
                shards,
                workers,
                lanes,
            },
        );
        Ok(report)
    }

    fn entry(&self, app: &str) -> Result<&AppEntry> {
        self.apps.get(app).ok_or_else(|| QuercError::UnknownApp {
            app: app.to_string(),
        })
    }

    /// The serving embedder `app` was registered with — one `Arc` for
    /// every app sharing it — or `None` for an app without one.
    pub fn embedder(&self, app: &str) -> Result<Option<Arc<dyn Embedder>>> {
        Ok(self.entry(app)?.embedder.clone())
    }

    /// Names of all registered apps, sorted.
    pub fn app_names(&self) -> Vec<String> {
        self.apps.keys().cloned().collect()
    }

    /// Enqueue one query for `app` on its tenant's shard. The query is
    /// enriched at ingress — fingerprinted and, on a template-cache hit,
    /// handed its embedding vector for free — before being routed.
    ///
    /// Without QoS, blocks while that shard's bounded queue is full
    /// (backpressure). With QoS enabled
    /// ([`WorkloadManagerConfig::qos`]), the query first passes the
    /// tenant's token bucket and backlog cap, and a full shard queue
    /// **sheds instead of blocking** — all three produce
    /// [`QuercError::Rejected`] naming the tenant and reason, counted in
    /// [`AppThroughput::rejected`] and the tenant's
    /// [`crate::qos::TenantSnapshot`].
    pub fn submit(&self, app: &str, query: LabeledQuery) -> Result<()> {
        let entry = self.entry(app)?;
        let enqueued_at = Instant::now();
        let mut enriched = [EnrichedQuery::new(query)];
        self.enrich(entry, &mut enriched);
        let [q] = enriched;
        self.send(entry, TimedQuery::at(q, enqueued_at), "manager.submit")
    }

    /// Enqueue a batch for `app`, each query hash-routed to its tenant's
    /// shard; returns how many were accepted. The whole batch is
    /// enriched through the embed plane first (cache misses are
    /// deduplicated by template and embedded in **one**
    /// `embed_batch` call), then routed. The `submitted` counter is
    /// bumped per successful send, so a mid-batch [`QuercError::ChannelClosed`]
    /// leaves the counter equal to what actually reached the queues —
    /// `processed` can never exceed `submitted`.
    ///
    /// On `Err`, some prefix of the batch was already accepted and will
    /// still be served; the rest of the batch is dropped (the iterator
    /// is consumed up front for batched ingress embedding). The error
    /// itself doesn't carry the prefix length — reconcile against
    /// [`WorkloadManager::throughput`] (`submitted` counts every
    /// accepted query) before retrying, or a retry will double-submit
    /// the accepted prefix.
    /// With QoS enabled, a shed query does **not** abort the batch: it
    /// is counted against its tenant (and in
    /// [`AppThroughput::rejected`]) and the rest of the batch proceeds,
    /// so the returned count is the *admitted* subset and after a drain
    /// `submitted == processed + rejected` still holds. Only
    /// [`QuercError::ChannelClosed`] (a dead shard) aborts.
    pub fn submit_batch(
        &self,
        app: &str,
        queries: impl IntoIterator<Item = LabeledQuery>,
    ) -> Result<usize> {
        let entry = self.entry(app)?;
        let enqueued_at = Instant::now();
        let mut batch: Vec<EnrichedQuery> = queries.into_iter().map(EnrichedQuery::new).collect();
        self.enrich(entry, &mut batch);
        let mut n = 0usize;
        for q in batch {
            match self.send(
                entry,
                TimedQuery::at(q, enqueued_at),
                "manager.submit_batch",
            ) {
                Ok(()) => n += 1,
                Err(QuercError::Rejected { .. }) => {}
                Err(e) => return Err(e),
            }
        }
        Ok(n)
    }

    /// Ingress enrichment: embed through the shared plane under the
    /// app's embedder namespace, attributing hits/misses to the app. A
    /// disabled plane or an app without a declared embedder skips this —
    /// the shards then embed for themselves, exactly as before the
    /// embed plane existed.
    fn enrich(&self, entry: &AppEntry, batch: &mut [EnrichedQuery]) {
        if let (Some(plane), Some(embedder)) = (&self.plane, &entry.embedder) {
            let (hits, misses) = plane.enrich_batch(embedder.as_ref(), batch);
            let counters = &entry.lanes.counters;
            counters.cache_hits.fetch_add(hits, Ordering::Relaxed);
            counters.cache_misses.fetch_add(misses, Ordering::Relaxed);
        }
    }

    /// Offer one enriched query to its shard: through QoS admission when
    /// QoS is on, else by a blocking routed send.
    fn send(&self, entry: &AppEntry, timed: TimedQuery, context: &'static str) -> Result<()> {
        match &self.qos {
            Some(qos) => self.send_admitted(entry, qos, timed, context),
            None => self.send_routed(entry, timed, context),
        }
    }

    /// The shard index for a query under the configured routing policy.
    fn shard_index(&self, entry: &AppEntry, lq: &LabeledQuery) -> usize {
        let shards = entry.shards.len();
        match self.cfg.routing {
            RoutingPolicy::Tenant => shard_for(routing_key(lq), shards),
            RoutingPolicy::Lineage => shard_for(&lineage_routing_key(lq), shards),
        }
    }

    /// Route one enriched query to its shard, send (blocking on a full
    /// queue), and count the accepted submission.
    fn send_routed(
        &self,
        entry: &AppEntry,
        timed: TimedQuery,
        context: &'static str,
    ) -> Result<()> {
        let shard = self.shard_index(entry, timed.query.labeled());
        entry.shards[shard]
            .send(timed)
            .map_err(|_| QuercError::ChannelClosed { context })?;
        entry
            .lanes
            .counters
            .submitted
            .fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// The QoS ingress path: per-tenant admission (token bucket, then
    /// backlog cap), then a **non-blocking** send to the tenant's shard
    /// — a full queue sheds with [`RejectReason::ShardFull`] instead of
    /// blocking the producer. Every offer is counted in `submitted`;
    /// every shed in `rejected` (app-level and per-tenant), so the two
    /// reconcile with `processed` after a drain. A dead shard
    /// ([`QuercError::ChannelClosed`]) rolls the offer back instead:
    /// the query had no outcome.
    fn send_admitted(
        &self,
        entry: &AppEntry,
        qos: &QosState,
        timed: TimedQuery,
        context: &'static str,
    ) -> Result<()> {
        let tenant = routing_key(timed.query.labeled()).to_string();
        let counters = &entry.lanes.counters;
        counters.submitted.fetch_add(1, Ordering::Relaxed);
        let state = match qos.admit_at(&tenant, Instant::now()) {
            Ok(state) => state,
            Err(reason) => {
                counters.rejected.fetch_add(1, Ordering::Relaxed);
                return Err(QuercError::Rejected { tenant, reason });
            }
        };
        let shard = self.shard_index(entry, timed.query.labeled());
        // Reserve the pending slot BEFORE the send: once the query is in
        // the queue a shard worker may complete it immediately, and the
        // completion must observe the reservation (see `committed`).
        QosState::committed(&state);
        match entry.shards[shard].try_send(timed) {
            Ok(()) => Ok(()),
            Err(TrySendError::Full(_)) => {
                QosState::shed_shard_full(&state);
                counters.rejected.fetch_add(1, Ordering::Relaxed);
                Err(QuercError::Rejected {
                    tenant,
                    reason: RejectReason::ShardFull,
                })
            }
            Err(TrySendError::Disconnected(_)) => {
                QosState::unsubmit(&state);
                counters.submitted.fetch_sub(1, Ordering::Relaxed);
                Err(QuercError::ChannelClosed { context })
            }
        }
    }

    /// Live per-tenant QoS accounting (empty when QoS is disabled).
    pub fn qos_stats(&self) -> QosDrain {
        self.qos
            .as_ref()
            .map(|q| q.drain_snapshot())
            .unwrap_or_default()
    }

    /// Install (or replace) a tenant's QoS policy — DRR weight and rate
    /// limit — live, while serving. No-op when QoS is disabled.
    pub fn set_tenant_policy(&self, tenant: &str, policy: TenantPolicy) {
        if let Some(qos) = &self.qos {
            qos.set_policy(tenant, policy);
        }
    }

    /// Live per-app stats — counters plus latency quantiles, spanning
    /// every model generation of a re-registered app — sorted by app
    /// name.
    pub fn throughput(&self) -> Vec<AppThroughput> {
        self.apps
            .iter()
            .map(|(name, e)| e.throughput(name))
            .collect()
    }

    /// One app's fitted-model report.
    pub fn report(&self, app: &str) -> Result<AppReport> {
        self.entry(app)?.fitted.report()
    }

    /// Reports for every registered app, sorted by app name.
    pub fn reports(&self) -> Result<Vec<AppReport>> {
        self.apps.values().map(|e| e.fitted.report()).collect()
    }

    /// Write a full, versioned snapshot of the serving stack to `path`:
    /// every persistable fitted app's model, each distinct embedder
    /// **once** however many apps and deployments share it, the
    /// registry's deployments **with their pinned version numbers** and
    /// full deploy/undeploy history, and the warm entries of the shared
    /// embed cache. The write is atomic (tmp file + rename) and every
    /// section carries its own CRC, so a crash mid-checkpoint leaves the
    /// previous snapshot intact and a torn copy reads back as
    /// [`QuercError::Corrupt`], never as silently-wrong models.
    ///
    /// Apps whose embedder doesn't serialize
    /// ([`querc_embed::Embedder::export_spec`] returns `None`) or whose
    /// model doesn't ([`WorkloadApp::save_model`] returns `None`) are
    /// skipped — they simply refit after a restore. Registry
    /// deployments are skipped on the same terms.
    ///
    /// In-flight queries sitting on shard queues are **not** part of a
    /// snapshot; checkpoint after [`WorkloadManager::drain`] or at a
    /// quiesced moment if the queue contents matter.
    pub fn checkpoint(&self, path: impl AsRef<Path>) -> Result<()> {
        self.write_checkpoint(path)
    }

    /// Append the embed-cache entries cached **since the last
    /// [`WorkloadManager::checkpoint`]** (or `checkpoint_delta`) to an
    /// existing snapshot at `path` — the cheap between-checkpoints way
    /// to keep the warm set current without rewriting models that
    /// haven't changed. No-op when nothing new was cached. A restore
    /// replays deltas in append order on top of the full snapshot's
    /// entries, so recency survives too.
    pub fn checkpoint_delta(&self, path: impl AsRef<Path>) -> Result<()> {
        self.append_checkpoint_delta(path)
    }

    /// Rebuild a serving stack from a snapshot written by
    /// [`WorkloadManager::checkpoint`] (plus any
    /// [`WorkloadManager::checkpoint_delta`] appends): restored apps
    /// serve **bit-identical labels** without refitting, the registry
    /// resumes at its pinned versions with its history intact, and the
    /// embed cache comes back warm — the first post-restore batch hits
    /// on every template the old process had cached.
    ///
    /// `cfg` is the *new* process's serving shape (shards, queue depth,
    /// cache capacity) — topology is deliberately not part of the
    /// snapshot, so a restore can resize. A smaller cache keeps the
    /// hottest entries; `embed_cache_capacity: 0` skips cache warming
    /// entirely. Any mismatch between the snapshot and itself (missing
    /// sections, torn bytes, shapes that don't fit their embedders)
    /// reports [`QuercError::Corrupt`].
    pub fn restore(path: impl AsRef<Path>, cfg: WorkloadManagerConfig) -> Result<WorkloadManager> {
        WorkloadManager::restore_checkpoint(path, cfg)
    }

    /// Close every shard, join all workers, and collect the labeled
    /// outputs, the training mirror, and final stats — including work
    /// done by generations retired via re-registration.
    pub fn drain(self) -> ServiceDrain {
        let mut outputs = BTreeMap::new();
        let mut training_log = Vec::new();
        let mut throughput = Vec::new();
        for (name, mut entry) in self.apps {
            // Once its workers join, the lanes hold all they will ever
            // hold and the index counters cover every chunk.
            entry.retire();
            throughput.push(entry.throughput(&name));
            training_log.extend(entry.lanes.training.1.try_iter());
            outputs.insert(name, entry.lanes.output.1.try_iter().collect());
        }
        ServiceDrain {
            outputs,
            training_log,
            throughput,
            embed_cache: self.plane.map(|p| p.stats()).unwrap_or_default(),
            qos: self.qos.map(|q| q.drain_snapshot()).unwrap_or_default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apps::{AuditApp, ResourcesApp};
    use querc_embed::{BagOfTokens, Embedder};
    use querc_workloads::QueryRecord;

    fn embedder() -> Arc<dyn Embedder> {
        Arc::new(BagOfTokens::new(64, true))
    }

    fn corpus() -> TrainCorpus {
        let records: Vec<QueryRecord> = (0..40)
            .map(|i| {
                let (user, sql, ms) = if i % 2 == 0 {
                    (
                        "acct/alice",
                        format!("select revenue from finance_reports where q = {i}"),
                        5.0,
                    )
                } else {
                    (
                        "acct/bob",
                        format!(
                            "select a.g, sum(b.v) from big_facts a join big_facts b on a.k = b.k group by a.g -- {i}"
                        ),
                        2000.0,
                    )
                };
                QueryRecord {
                    sql,
                    user: user.into(),
                    account: "acct".into(),
                    cluster: "c0".into(),
                    dialect: "generic".into(),
                    runtime_ms: ms,
                    mem_mb: 1.0,
                    error_code: None,
                    timestamp: i,
                }
            })
            .collect();
        TrainCorpus::from_records(records, 0x5eed)
    }

    #[test]
    fn register_submit_drain_roundtrip() {
        let corpus = corpus();
        let mut mgr = WorkloadManager::new(WorkloadManagerConfig::default());
        mgr.register(AuditApp::new(embedder()).with_trees(15), &corpus)
            .unwrap();
        mgr.register(ResourcesApp::new(embedder()), &corpus)
            .unwrap();
        assert_eq!(mgr.app_names(), vec!["audit", "resources"]);

        for i in 0..10 {
            mgr.submit(
                "audit",
                LabeledQuery::new(format!("select revenue from finance_reports where q = {i}")),
            )
            .unwrap();
        }
        let accepted = mgr
            .submit_batch(
                "resources",
                (0..6).map(|i| LabeledQuery::new(format!("select v from kv_store where k = {i}"))),
            )
            .unwrap();
        assert_eq!(accepted, 6);

        let drained = mgr.drain();
        assert_eq!(drained.outputs["audit"].len(), 10);
        assert_eq!(drained.outputs["resources"].len(), 6);
        for lq in &drained.outputs["audit"] {
            assert_eq!(lq.get("application"), Some("audit"));
            assert_eq!(lq.get("predicted_user"), Some("acct/alice"));
        }
        for lq in &drained.outputs["resources"] {
            assert!(lq.get("resource_class").is_some());
        }
        // Training mirror saw everything.
        assert_eq!(drained.training_log.len(), 16);
        let audit_tp = drained
            .throughput
            .iter()
            .find(|t| t.app == "audit")
            .unwrap();
        assert_eq!(audit_tp.submitted, 10);
        assert_eq!(audit_tp.processed, 10);
    }

    #[test]
    fn reregistration_preserves_inflight_work_and_counters() {
        let corpus = corpus();
        let mut mgr = WorkloadManager::new(WorkloadManagerConfig::default());
        mgr.register(ResourcesApp::new(embedder()), &corpus)
            .unwrap();
        for i in 0..8 {
            mgr.submit(
                "resources",
                LabeledQuery::new(format!("select v from kv_store where k = {i}")),
            )
            .unwrap();
        }
        // Redeploy (the periodic-retrain flow) while work is in flight.
        mgr.register(ResourcesApp::new(embedder()), &corpus)
            .unwrap();
        for i in 0..5 {
            mgr.submit(
                "resources",
                LabeledQuery::new(format!("select v from kv_store where k = {}", 100 + i)),
            )
            .unwrap();
        }
        let tp = mgr.throughput();
        assert_eq!(tp[0].submitted, 13, "counters span generations");
        let drained = mgr.drain();
        assert_eq!(
            drained.outputs["resources"].len(),
            13,
            "pre-redeploy outputs must survive"
        );
        assert_eq!(drained.training_log.len(), 13);
        let tp = &drained.throughput[0];
        assert_eq!((tp.submitted, tp.processed), (13, 13));
    }

    #[test]
    fn per_tenant_order_is_preserved_across_shards() {
        let corpus = corpus();
        let mut mgr = WorkloadManager::new(WorkloadManagerConfig {
            shards_per_app: 4,
            batch: 4,
            ..Default::default()
        });
        mgr.register(ResourcesApp::new(embedder()), &corpus)
            .unwrap();
        // Eight tenants interleaved round-robin; each carries a per-tenant
        // sequence number. Hash routing pins a tenant to one shard, and a
        // shard is a single FIFO consumer, so sequence numbers must come
        // back monotone per tenant even with 4 worker threads.
        let tenants: Vec<String> = (0..8).map(|t| format!("tenant{t:02}")).collect();
        let mut next_seq = vec![0u32; tenants.len()];
        for i in 0..240 {
            let t = i % tenants.len();
            let mut lq = LabeledQuery::new(format!("select v from kv_store where k = {i}"));
            lq.set("account", &tenants[t]);
            lq.set("seq", next_seq[t].to_string());
            next_seq[t] += 1;
            mgr.submit("resources", lq).unwrap();
        }
        let drained = mgr.drain();
        let outputs = &drained.outputs["resources"];
        assert_eq!(outputs.len(), 240);
        let mut last_seen = vec![-1i64; tenants.len()];
        for lq in outputs {
            let t = tenants
                .iter()
                .position(|name| Some(name.as_str()) == lq.get("account"))
                .unwrap();
            let seq: i64 = lq.get("seq").unwrap().parse().unwrap();
            assert!(
                seq > last_seen[t],
                "tenant {t} replayed out of order: {seq} after {}",
                last_seen[t]
            );
            last_seen[t] = seq;
        }
        // Multiple shards actually participated.
        let used: std::collections::HashSet<usize> =
            tenants.iter().map(|name| shard_for(name, 4)).collect();
        assert!(used.len() > 1, "8 tenants should spread over >1 shard");
    }

    #[test]
    fn one_fitted_model_serves_many_managers_without_refitting() {
        let corpus = corpus();
        let fitted = Arc::new(FittedApp::fit(ResourcesApp::new(embedder()), &corpus).unwrap());
        for shards in [1usize, 3] {
            let mut mgr = WorkloadManager::new(WorkloadManagerConfig {
                shards_per_app: shards,
                ..Default::default()
            });
            let report = mgr.register_fitted(Arc::clone(&fitted)).unwrap();
            assert_eq!(report.app, "resources");
            mgr.submit(
                "resources",
                LabeledQuery::new("select v from kv_store where k = 1"),
            )
            .unwrap();
            let drained = mgr.drain();
            assert_eq!(drained.outputs["resources"].len(), 1);
            assert!(drained.outputs["resources"][0]
                .get("resource_class")
                .is_some());
        }
    }

    #[test]
    fn routing_key_prefers_account_then_user_then_sql() {
        let mut lq = LabeledQuery::new("select 1");
        assert_eq!(routing_key(&lq), "select 1");
        lq.set("user", "acct/alice");
        assert_eq!(routing_key(&lq), "acct/alice");
        lq.set("account", "acct");
        assert_eq!(routing_key(&lq), "acct");
    }

    #[test]
    fn lineage_key_is_the_sorted_read_set() {
        let lq = LabeledQuery::new("select * from orders o join customer c on c.id = o.cid");
        assert_eq!(lineage_routing_key(&lq), "customer,orders");
        // Same tables, different tenant, different dialect casing — one key.
        let mut other = LabeledQuery::new("SELECT * FROM customer, orders WHERE 1 = 1");
        other.set("account", "someone_else");
        assert_eq!(lineage_routing_key(&other), "customer,orders");
    }

    #[test]
    fn lineage_key_uses_write_target_and_tenant_fallback() {
        let lq = LabeledQuery::new("insert into audit_log values (1)");
        assert_eq!(lineage_routing_key(&lq), "w:audit_log");
        // No tables at all: fall back to the tenant key.
        let mut bare = LabeledQuery::new("SET warehouse = 'XL'");
        bare.set("account", "acct07");
        assert_eq!(lineage_routing_key(&bare), "acct07");
    }

    #[test]
    fn lineage_key_honors_dialect_label() {
        let mut lq = LabeledQuery::new("select * from `proj.ds.events`");
        lq.set("dialect", "bigquery");
        assert_eq!(lineage_routing_key(&lq), "proj.ds.events");
        // Same text under the generic lexer reads backticks differently,
        // which is exactly why the label matters.
        let generic = LabeledQuery::new("select * from `proj.ds.events`");
        assert_ne!(lineage_routing_key(&generic), "");
    }

    /// Queries from many tenants over one table share a single lineage
    /// key — so under [`RoutingPolicy::Lineage`] they all land on one
    /// shard while their tenant keys would have spread them — and a
    /// manager configured with the policy still drains every query.
    #[test]
    fn lineage_policy_co_locates_same_table_queries() {
        // Pure-function half: one lineage key (hence one shard) where
        // tenant keys scatter.
        let tenants: Vec<String> = (0..8).map(|i| format!("acct{i:03}")).collect();
        let tenant_shards: std::collections::HashSet<usize> =
            tenants.iter().map(|t| shard_for(t, 8)).collect();
        assert!(tenant_shards.len() > 1, "tenant keys must spread");
        let lineage_shards: std::collections::HashSet<usize> = tenants
            .iter()
            .map(|t| {
                let mut lq = LabeledQuery::new("select v from kv_store where k = 9");
                lq.set("account", t);
                shard_for(&lineage_routing_key(&lq), 8)
            })
            .collect();
        assert_eq!(lineage_shards.len(), 1, "one table → one shard");

        // Serving half: the policy end-to-end, every query labeled once.
        let corpus = corpus();
        let mut mgr = WorkloadManager::new(WorkloadManagerConfig {
            shards_per_app: 8,
            routing: RoutingPolicy::Lineage,
            ..Default::default()
        });
        mgr.register(ResourcesApp::new(embedder()), &corpus)
            .unwrap();
        for t in &tenants {
            let mut lq = LabeledQuery::new("select v from kv_store where k = 9");
            lq.set("account", t);
            mgr.submit("resources", lq).unwrap();
        }
        let drained = mgr.drain();
        assert_eq!(drained.outputs["resources"].len(), 8);
    }

    #[test]
    fn shard_assignment_is_deterministic_and_in_range() {
        for shards in [1usize, 2, 3, 4, 8, 16] {
            let mut hit = std::collections::HashSet::new();
            for i in 0..200 {
                let key = format!("acct{i:03}");
                let s = shard_for(&key, shards);
                assert!(s < shards);
                assert_eq!(s, shard_for(&key, shards), "stable per (key, count)");
                hit.insert(s);
            }
            if shards > 1 {
                assert!(
                    hit.len() > shards / 2,
                    "200 keys should spread over most of {shards} shards, got {}",
                    hit.len()
                );
            }
        }
        // Pure function of its inputs: independent call sites agree.
        assert_eq!(shard_for("acct00", 4), shard_for("acct00", 4));
        assert_eq!(shard_for("", 5), shard_for("", 5));
    }

    #[test]
    fn drain_reports_latency_quantiles() {
        let corpus = corpus();
        let mut mgr = WorkloadManager::new(WorkloadManagerConfig::default());
        mgr.register(ResourcesApp::new(embedder()), &corpus)
            .unwrap();
        for i in 0..50 {
            mgr.submit(
                "resources",
                LabeledQuery::new(format!("select v from kv_store where k = {i}")),
            )
            .unwrap();
        }
        let drained = mgr.drain();
        let stats = &drained.throughput[0];
        assert_eq!(stats.latency.count, 50, "every query timed");
        assert!(stats.latency.p50_us <= stats.latency.p95_us);
        assert!(stats.latency.p95_us <= stats.latency.p99_us);
        assert!(stats.latency.p99_us <= stats.latency.max_us.max(1));
    }

    #[test]
    fn shared_embedder_fans_one_embedding_out_to_every_app() {
        let corpus = corpus();
        // ONE embedder Arc for both apps — the blessed deployment.
        let shared = embedder();
        let mut mgr = WorkloadManager::new(WorkloadManagerConfig::default());
        mgr.register(AuditApp::new(Arc::clone(&shared)).with_trees(10), &corpus)
            .unwrap();
        mgr.register(ResourcesApp::new(Arc::clone(&shared)), &corpus)
            .unwrap();

        // The same template (literals vary) to both apps, repeatedly.
        for i in 0..10 {
            let lq = LabeledQuery::new(format!("select v from kv_store where k = {i}"));
            mgr.submit("audit", lq.clone()).unwrap();
            mgr.submit("resources", lq).unwrap();
        }
        let live = mgr.embed_cache_stats();
        assert_eq!(live.misses, 1, "one template, embedded exactly once");
        assert_eq!(live.hits, 19, "all 19 other submissions reused it");
        assert_eq!(live.entries, 1);

        let drained = mgr.drain();
        assert_eq!(drained.embed_cache.misses, 1);
        // Per-app attribution: audit saw the first sighting.
        let audit = drained
            .throughput
            .iter()
            .find(|t| t.app == "audit")
            .unwrap();
        let res = drained
            .throughput
            .iter()
            .find(|t| t.app == "resources")
            .unwrap();
        assert_eq!((audit.cache_hits, audit.cache_misses), (9, 1));
        assert_eq!((res.cache_hits, res.cache_misses), (10, 0));
        assert_eq!(res.cache_hit_rate(), 1.0);
        // And the labels are all there despite nobody re-embedding.
        for lq in &drained.outputs["resources"] {
            assert!(lq.get("resource_class").is_some());
        }
        for lq in &drained.outputs["audit"] {
            assert!(lq.get("predicted_user").is_some());
        }
    }

    #[test]
    fn disabled_cache_serves_identically_with_zero_counters() {
        let corpus = corpus();
        let queries: Vec<LabeledQuery> = (0..12)
            .map(|i| {
                let mut lq = LabeledQuery::new(format!(
                    "select revenue from finance_reports where q = {}",
                    i % 3
                ));
                lq.set("user", "acct/alice");
                lq
            })
            .collect();
        let run = |capacity: usize| {
            let shared = embedder();
            let mut mgr = WorkloadManager::new(WorkloadManagerConfig {
                embed_cache_capacity: capacity,
                ..Default::default()
            });
            mgr.register(AuditApp::new(shared).with_trees(10), &corpus)
                .unwrap();
            mgr.submit_batch("audit", queries.clone()).unwrap();
            mgr.drain()
        };
        let off = run(0);
        let on = run(1024);
        assert_eq!(off.embed_cache, EmbedCacheStats::default());
        assert_eq!(
            off.throughput[0].cache_hits + off.throughput[0].cache_misses,
            0
        );
        assert!(on.embed_cache.hits > 0);
        // Bit-identical serving: caching is an amortization, never a
        // semantic change. Completion order may differ across shard
        // threads, so compare as multisets.
        let sort = |mut v: Vec<LabeledQuery>| {
            v.sort_by(|a, b| format!("{a:?}").cmp(&format!("{b:?}")));
            v
        };
        assert_eq!(
            sort(off.outputs["audit"].clone()),
            sort(on.outputs["audit"].clone())
        );
    }

    #[test]
    fn index_backed_apps_surface_search_stats() {
        use crate::apps::summarize::{SummarizeApp, SummaryConfig};
        let corpus = corpus();
        let mut mgr = WorkloadManager::new(WorkloadManagerConfig::default());
        mgr.register(
            SummarizeApp::new(embedder()).with_config(SummaryConfig {
                k: Some(4),
                ..Default::default()
            }),
            &corpus,
        )
        .unwrap();
        mgr.register(ResourcesApp::new(embedder()), &corpus)
            .unwrap();
        for i in 0..12 {
            mgr.submit(
                "summarize",
                LabeledQuery::new(format!("select v from kv_store where k = {i}")),
            )
            .unwrap();
        }
        let drained = mgr.drain();
        let summarize = drained
            .throughput
            .iter()
            .find(|t| t.app == "summarize")
            .unwrap();
        let ix = summarize.index.as_ref().expect("summarize has an index");
        assert_eq!(ix.searches, 12, "one centroid search per query");
        assert!(ix.exact && ix.partitions == 1);
        assert_eq!(ix.candidates, 12 * 4, "k=4 centroids scanned per search");
        // Apps without a vector index report None, not zeros.
        let resources = drained
            .throughput
            .iter()
            .find(|t| t.app == "resources")
            .unwrap();
        assert!(resources.index.is_none());
    }

    #[test]
    fn unknown_app_is_an_error() {
        let mgr = WorkloadManager::new(WorkloadManagerConfig::default());
        let err = mgr
            .submit("ghost", LabeledQuery::new("select 1"))
            .unwrap_err();
        assert!(matches!(err, QuercError::UnknownApp { .. }));
        assert!(mgr.report("ghost").is_err());
    }

    #[test]
    fn qos_submit_surfaces_rejected_with_tenant_and_reason() {
        use crate::qos::{QosConfig, RateLimit, RejectReason, TenantPolicy};
        let corpus = corpus();
        let mut mgr = WorkloadManager::new(WorkloadManagerConfig {
            qos: QosConfig::enabled(),
            ..Default::default()
        });
        mgr.register(ResourcesApp::new(embedder()), &corpus)
            .unwrap();
        mgr.set_tenant_policy(
            "cutoff",
            TenantPolicy {
                weight: 1,
                rate: Some(RateLimit {
                    rate_per_sec: 0.0,
                    burst: 0.0,
                }),
            },
        );
        let mut lq = LabeledQuery::new("select v from kv_store where k = 1");
        lq.set("account", "cutoff");
        let err = mgr.submit("resources", lq).unwrap_err();
        match err {
            QuercError::Rejected { tenant, reason } => {
                assert_eq!(tenant, "cutoff");
                assert_eq!(reason, RejectReason::RateLimited);
            }
            other => panic!("expected Rejected, got {other}"),
        }
        // Unlimited tenants proceed untouched on the same manager.
        let mut ok = LabeledQuery::new("select v from kv_store where k = 2");
        ok.set("account", "open");
        mgr.submit("resources", ok).unwrap();
        let drained = mgr.drain();
        let tp = &drained.throughput[0];
        assert_eq!((tp.submitted, tp.processed, tp.rejected), (2, 1, 1));
        assert_eq!(drained.outputs["resources"].len(), 1);
    }

    #[test]
    fn qos_drain_accounts_submitted_as_processed_plus_rejected_mid_batch() {
        use crate::qos::{QosConfig, RateLimit, TenantPolicy};
        let corpus = corpus();
        let mut mgr = WorkloadManager::new(WorkloadManagerConfig {
            qos: QosConfig::enabled(),
            ..Default::default()
        });
        mgr.register(ResourcesApp::new(embedder()), &corpus)
            .unwrap();
        // One tenant is cut off entirely; sheds land mid-batch,
        // interleaved with admitted queries from the open tenant.
        mgr.set_tenant_policy(
            "cutoff",
            TenantPolicy {
                weight: 1,
                rate: Some(RateLimit {
                    rate_per_sec: 0.0,
                    burst: 0.0,
                }),
            },
        );
        let batch: Vec<LabeledQuery> = (0..40)
            .map(|i| {
                let mut lq = LabeledQuery::new(format!("select v from kv_store where k = {i}"));
                lq.set("account", if i % 2 == 0 { "cutoff" } else { "open" });
                lq
            })
            .collect();
        let accepted = mgr.submit_batch("resources", batch).unwrap();
        assert_eq!(accepted, 20, "the admitted subset, not the whole batch");
        let drained = mgr.drain();
        let tp = &drained.throughput[0];
        assert_eq!(tp.submitted, 40, "offers counted, admitted or not");
        assert_eq!(
            tp.processed + tp.rejected,
            tp.submitted,
            "every offer has exactly one outcome"
        );
        assert_eq!((tp.processed, tp.rejected), (20, 20));
        let cutoff = &drained.qos.tenants["cutoff"];
        assert_eq!(cutoff.rejected_rate_limited, 20);
        assert_eq!((cutoff.processed, cutoff.pending), (0, 0));
        let open = &drained.qos.tenants["open"];
        assert_eq!(
            (open.submitted, open.processed, open.rejected()),
            (20, 20, 0)
        );
        assert_eq!(open.latency.count, 20, "per-tenant quantiles recorded");
        assert!(open.latency.p50_us <= open.latency.p99_us);
        assert_eq!(drained.outputs["resources"].len(), 20);
        assert_eq!(drained.qos.total_rejected(), 20);
    }

    #[test]
    fn qos_preserves_per_tenant_order_and_drains_everything() {
        use crate::qos::QosConfig;
        let corpus = corpus();
        let mut mgr = WorkloadManager::new(WorkloadManagerConfig {
            shards_per_app: 4,
            batch: 4,
            qos: QosConfig {
                enabled: true,
                quantum: 2,
                ..Default::default()
            },
            ..Default::default()
        });
        mgr.register(ResourcesApp::new(embedder()), &corpus)
            .unwrap();
        // Same shape as per_tenant_order_is_preserved_across_shards, but
        // through the DRR dequeue path: fairness must not break FIFO.
        let tenants: Vec<String> = (0..8).map(|t| format!("tenant{t:02}")).collect();
        let mut next_seq = vec![0u32; tenants.len()];
        for i in 0..240 {
            let t = i % tenants.len();
            let mut lq = LabeledQuery::new(format!("select v from kv_store where k = {i}"));
            lq.set("account", &tenants[t]);
            lq.set("seq", next_seq[t].to_string());
            next_seq[t] += 1;
            mgr.submit("resources", lq).unwrap();
        }
        let drained = mgr.drain();
        let outputs = &drained.outputs["resources"];
        assert_eq!(outputs.len(), 240, "nothing lost, nothing shed");
        let mut last_seen = vec![-1i64; tenants.len()];
        for lq in outputs {
            let t = tenants
                .iter()
                .position(|name| Some(name.as_str()) == lq.get("account"))
                .unwrap();
            let seq: i64 = lq.get("seq").unwrap().parse().unwrap();
            assert!(
                seq > last_seen[t],
                "tenant {t} replayed out of order under DRR: {seq} after {}",
                last_seen[t]
            );
            last_seen[t] = seq;
        }
        assert_eq!(drained.qos.tenants.len(), 8);
        for (name, snap) in &drained.qos.tenants {
            assert_eq!(snap.submitted, 30, "{name}");
            assert_eq!(snap.processed, 30, "{name}");
            assert_eq!(snap.rejected(), 0, "{name}");
        }
    }

    /// A redeploy mid-stream with QoS on: sheds and labels of both
    /// generations land in one account, per-tenant FIFO holds across
    /// the generation boundary, and the old generation's outputs all
    /// precede the new one's.
    #[test]
    fn qos_redeploy_keeps_accounting_and_order_across_generations() {
        use crate::qos::{QosConfig, RateLimit, TenantPolicy};
        let corpus = corpus();
        let mut mgr = WorkloadManager::new(WorkloadManagerConfig {
            shards_per_app: 2,
            batch: 4,
            qos: QosConfig::enabled(),
            ..Default::default()
        });
        mgr.register(ResourcesApp::new(embedder()), &corpus)
            .unwrap();
        // A burst of 4 and no refill: exactly 4 of its 64 offers pass.
        mgr.set_tenant_policy(
            "capped",
            TenantPolicy {
                weight: 1,
                rate: Some(RateLimit {
                    rate_per_sec: 0.0,
                    burst: 4.0,
                }),
            },
        );
        let tenants = ["capped", "t0", "t1", "t2"];
        let mut next_seq = [0u32; 4];
        let mut offer = |mgr: &WorkloadManager, generation: &str| {
            let batch: Vec<LabeledQuery> = (0..128)
                .map(|i| {
                    let t = i % tenants.len();
                    let mut lq = LabeledQuery::new(format!("select v from kv_store where k = {i}"));
                    lq.set("account", tenants[t]);
                    lq.set("seq", next_seq[t].to_string());
                    lq.set("generation", generation);
                    next_seq[t] += 1;
                    lq
                })
                .collect();
            let (singles, rest) = batch.split_at(8);
            for lq in singles {
                let _ = mgr.submit("resources", lq.clone());
            }
            mgr.submit_batch("resources", rest.to_vec()).unwrap();
        };
        // Fitted up front, so the redeploy lands while the old
        // generation still has queries in flight.
        let next = Arc::new(FittedApp::fit(ResourcesApp::new(embedder()), &corpus).unwrap());
        offer(&mgr, "old");
        mgr.register_fitted(next).unwrap();
        offer(&mgr, "new");

        let drained = mgr.drain();
        let tp = &drained.throughput[0];
        assert_eq!(tp.submitted, 256);
        assert_eq!(tp.submitted, tp.processed + tp.rejected);
        assert_eq!((tp.processed, tp.rejected), (196, 60));
        assert_eq!(tp.latency.count, tp.processed);
        assert_eq!(drained.qos.tenants["capped"].rejected_rate_limited, 60);

        let outputs = &drained.outputs["resources"];
        assert_eq!(outputs.len() as u64, tp.processed);
        let mut last_seen = [-1i64; 4];
        for lq in outputs {
            let t = tenants
                .iter()
                .position(|name| Some(*name) == lq.get("account"))
                .unwrap();
            let seq: i64 = lq.get("seq").unwrap().parse().unwrap();
            assert!(
                seq > last_seen[t],
                "tenant {t}: {seq} after {}",
                last_seen[t]
            );
            last_seen[t] = seq;
        }
        let generations: Vec<&str> = outputs
            .iter()
            .map(|lq| lq.get("generation").unwrap())
            .collect();
        let first_new = generations.iter().position(|g| *g == "new").unwrap();
        assert!(
            generations[first_new..].iter().all(|g| *g == "new"),
            "an old-generation query was labeled after a new one"
        );
    }

    #[test]
    fn attach_labels_requires_deployed_classifier() {
        let corpus = corpus();
        let cfg = WorkloadManagerConfig {
            attach_labels: vec!["team".to_string()],
            ..Default::default()
        };
        let mut mgr = WorkloadManager::new(cfg);
        let err = mgr
            .register(ResourcesApp::new(embedder()), &corpus)
            .unwrap_err();
        assert!(matches!(err, QuercError::ModelNotDeployed { .. }));
    }

    #[test]
    fn attached_registry_classifier_labels_ride_along() {
        use crate::training::{EmbedderKind, TrainingConfig, TrainingModule};

        let corpus = corpus();
        let cfg = WorkloadManagerConfig {
            attach_labels: vec!["user".to_string()],
            ..Default::default()
        };
        let mut mgr = WorkloadManager::new(cfg);
        // Deploy a generic `user` classifier through the manager's registry.
        let mut tm = TrainingModule::new(TrainingConfig::default());
        tm.ingest_records(&corpus.records);
        let emb = tm.train_embedder(&EmbedderKind::BagOfTokens { dim: 64 });
        tm.try_train_and_deploy(mgr.registry(), &emb, "user")
            .unwrap();

        mgr.register(ResourcesApp::new(embedder()), &corpus)
            .unwrap();
        mgr.submit(
            "resources",
            LabeledQuery::new("select revenue from finance_reports where q = 99"),
        )
        .unwrap();
        let drained = mgr.drain();
        let lq = &drained.outputs["resources"][0];
        assert_eq!(lq.get("predicted_user"), Some("acct/alice"));
        assert!(lq.get("resource_class").is_some());
    }
}
