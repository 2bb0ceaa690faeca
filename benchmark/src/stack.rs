//! Set-up: generate a workload's inputs from the seed, train and fit its
//! serving stack once, and build fresh managers from the fitted parts.
//!
//! `--seed` reaches only [`Inputs::generate`]; model seeds are constants,
//! so the program under test sees generated inputs and nothing else of
//! the seed.

use crate::probe::{KnnProbe, KnnShared, Probe, Slot, TimedEmbedder, Work};
use crate::spec::{EmbedderChoice, Plan};
use querc::apps::summarize::SummaryConfig;
use querc::apps::{
    AuditApp, ErrorsApp, RecommendApp, ResourcesApp, RoutingApp, SummarizeApp, TrainCorpus,
};
use querc::{
    FittedApp, LabeledQuery, QosConfig, QuercError, QueryClassifier, RateLimit, Result,
    TenantPolicy, TrainedLabeler, WorkloadManager, WorkloadManagerConfig,
};
use querc_embed::{BagOfTokens, Doc2Vec, Doc2VecConfig, Embedder};
use querc_learn::{Knn, KnnMetric};
use querc_linalg::Pcg32;
use querc_workloads::{QueryRecord, SnowCloud, SnowCloudConfig};
use std::collections::HashSet;
use std::sync::Arc;
use std::time::Instant;

/// Seed of every model fit: fixed, so the workload seed varies inputs only.
const MODEL_SEED: u64 = 0x9e3779b97f4a7c15;
/// Registry name (and label) of the kNN classifier.
pub const KNN_LABEL: &str = "account";

/// Everything generated from `--seed`.
pub struct Inputs {
    /// Records the stack is fitted on.
    pub train: Vec<QueryRecord>,
    /// Held-out arrivals the serving sections replay (cycled when a
    /// section needs more).
    pub replay: Vec<QueryRecord>,
    /// One arrival per distinct replay template that fits the cache,
    /// for warming a fresh manager.
    pub warm: Vec<QueryRecord>,
    /// Held-out arrivals whose templates the replay never shows, one
    /// per template: what gets cached between checkpoint deltas.
    pub fresh: Vec<QueryRecord>,
    /// Trace generation time.
    pub gen_s: f64,
    /// Distinct templates in the replay.
    pub distinct_templates: usize,
}

fn fingerprint(r: &QueryRecord) -> u64 {
    querc_sql::template_fingerprint(&r.sql, querc_sql::Dialect::Generic)
}

impl Inputs {
    /// Generate the trace for `plan` and split it.
    pub fn generate(plan: &Plan, seed: u64) -> Inputs {
        let t = Instant::now();
        let records = SnowCloud::generate(&SnowCloudConfig::pretrain(
            plan.accounts,
            plan.per_account,
            seed,
        ))
        .records;
        let split = plan.train.min(records.len() / 2);
        let (train, held_out) = records.split_at(split);

        let mut seen = HashSet::new();
        let mut replay = Vec::new();
        let mut warm = Vec::new();
        let mut rest = held_out.iter();
        for r in rest.by_ref() {
            let first = seen.insert(fingerprint(r));
            if first {
                warm.push(r.clone());
            }
            if first || !plan.distinct_only {
                replay.push(r.clone());
            }
            if replay.len() == plan.replay {
                break;
            }
        }
        let fresh: Vec<QueryRecord> = rest
            .filter(|r| seen.insert(fingerprint(r)))
            .cloned()
            .collect();
        // A cache smaller than the template set is warmed with the most
        // recent templates, as it would be after a long replay.
        let skip = warm.len().saturating_sub(plan.cache_capacity);
        warm.drain(..skip);
        Inputs {
            train: train.to_vec(),
            distinct_templates: replay.iter().map(fingerprint).collect::<HashSet<_>>().len(),
            replay,
            warm,
            fresh,
            gen_s: t.elapsed().as_secs_f64(),
        }
    }
}

/// Where set-up time went.
#[derive(Debug, Clone, Default)]
pub struct FitTimes {
    /// Embedder training.
    pub embed_train_s: f64,
    /// `FittedApp::fit`, per app.
    pub apps: Vec<(&'static str, f64)>,
    /// Embedding the kNN rows and fitting the classifier once.
    pub knn_fit_s: f64,
}

impl FitTimes {
    /// Embedder training + every app fit + the kNN classifier.
    pub fn total_s(&self) -> f64 {
        self.embed_train_s + self.apps.iter().map(|a| a.1).sum::<f64>() + self.knn_fit_s
    }
}

/// Training rows of the registry kNN classifier.
pub struct KnnRows {
    vectors: Vec<Vec<f32>>,
    accounts: Vec<String>,
    /// Counters of every deployed [`KnnProbe`].
    pub shared: Arc<KnnShared>,
}

/// A fitted serving stack: build as many managers from it as needed.
pub struct Stack {
    /// The plan it was built for.
    pub plan: Plan,
    /// The shared (timed) embedder.
    pub embedder: Arc<dyn Embedder>,
    /// Inference counters of [`Stack::embedder`].
    pub embed_work: Arc<Work>,
    /// Fitted, probe-wrapped apps in name order.
    pub fitted: Vec<Arc<FittedApp>>,
    /// Each app's probe counters, same order.
    pub slots: Vec<(&'static str, Arc<Slot>)>,
    /// The kNN classifier's rows, when the plan has one.
    pub knn: Option<KnnRows>,
    /// Where the fit time went.
    pub times: FitTimes,
    /// Shards per app after capping at the core count.
    pub shards_per_app: usize,
    /// Training threads after capping at the core count.
    pub training_threads: usize,
}

/// Cores this process may use.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn fit_app(
    name: &'static str,
    e: Arc<dyn Embedder>,
    corpus: &TrainCorpus,
    slot: Arc<Slot>,
) -> Result<FittedApp> {
    // App knobs are those `examples/load_test.rs` registers with.
    match name {
        "audit" => FittedApp::fit(
            Probe::new(
                AuditApp::new(e).with_trees(20),
                "apps.audit.label_batch",
                slot,
            ),
            corpus,
        ),
        "errors" => FittedApp::fit(
            Probe::new(ErrorsApp::new(e), "apps.errors.label_batch", slot),
            corpus,
        ),
        "recommend" => FittedApp::fit(
            Probe::new(
                RecommendApp::new(e).with_clusters(6),
                "apps.recommend.label_batch",
                slot,
            ),
            corpus,
        ),
        "resources" => FittedApp::fit(
            Probe::new(ResourcesApp::new(e), "apps.resources.label_batch", slot),
            corpus,
        ),
        "routing" => FittedApp::fit(
            Probe::new(RoutingApp::new(e), "apps.routing.label_batch", slot),
            corpus,
        ),
        "summarize" => FittedApp::fit(
            Probe::new(
                SummarizeApp::new(e).with_config(SummaryConfig {
                    k: Some(8),
                    ..Default::default()
                }),
                "apps.summarize.label_batch",
                slot,
            ),
            corpus,
        ),
        other => Err(QuercError::UnknownApp {
            app: other.to_string(),
        }),
    }
}

impl Stack {
    /// Train the embedder, fit every app and the kNN classifier.
    pub fn build(plan: &Plan, inputs: &Inputs) -> Result<Stack> {
        let training_threads = nproc().min(2);
        querc_linalg::pool::set_training_threads(Some(training_threads));
        let mut times = FitTimes::default();
        let corpus = TrainCorpus::from_records(inputs.train.clone(), MODEL_SEED);

        let t = Instant::now();
        let raw: Arc<dyn Embedder> = match plan.embedder {
            EmbedderChoice::Doc2Vec => Arc::new(Doc2Vec::train(
                &corpus.token_corpus(),
                Doc2VecConfig::default(),
            )),
            EmbedderChoice::Bow => Arc::new(BagOfTokens::new(128, true)),
        };
        times.embed_train_s = t.elapsed().as_secs_f64();
        let embed_work = Arc::new(Work::default());
        let embedder: Arc<dyn Embedder> =
            Arc::new(TimedEmbedder::new(raw, Arc::clone(&embed_work)));

        let mut fitted = Vec::new();
        let mut slots = Vec::new();
        for &name in plan.apps {
            let slot = Arc::new(Slot::default());
            let t = Instant::now();
            let app = fit_app(name, Arc::clone(&embedder), &corpus, Arc::clone(&slot))?;
            times.apps.push((name, t.elapsed().as_secs_f64()));
            fitted.push(Arc::new(app));
            slots.push((name, slot));
        }

        let knn = if plan.knn_rows > 0 {
            let t = Instant::now();
            let rows = &inputs.train[..plan.knn_rows.min(inputs.train.len())];
            let docs: Vec<Vec<String>> = rows.iter().map(QueryRecord::tokens).collect();
            let rows = KnnRows {
                vectors: embedder.embed_batch(&docs),
                accounts: rows.iter().map(|r| r.account.clone()).collect(),
                shared: Arc::new(KnnShared::default()),
            };
            rows.classifier(&embedder, true)?;
            times.knn_fit_s = t.elapsed().as_secs_f64();
            Some(rows)
        } else {
            None
        };

        Ok(Stack {
            plan: plan.clone(),
            embedder,
            embed_work,
            fitted,
            slots,
            knn,
            times,
            shards_per_app: plan.shards_per_app.clamp(1, nproc()),
            training_threads,
        })
    }

    /// The manager configuration of a section. With `qos` on, admission
    /// and DRR run and no tenant is limited: limits are set per tenant,
    /// live, once the cache is warm (see [`limit_tenants`]).
    pub fn config(&self, qos: bool) -> WorkloadManagerConfig {
        WorkloadManagerConfig {
            shards_per_app: self.shards_per_app,
            // With QoS on a full shard queue sheds instead of blocking;
            // the designed sheds here are rate-limit sheds only.
            queue_depth: if qos { 1 << 16 } else { 1024 },
            attach_labels: self.knn.iter().map(|_| KNN_LABEL.to_string()).collect(),
            embed_cache_capacity: self.plan.cache_capacity,
            qos: QosConfig {
                enabled: qos,
                max_pending_per_tenant: 0,
                ..Default::default()
            },
            training_threads: Some(self.training_threads),
            ..Default::default()
        }
    }

    /// Whether this plan serves with QoS on.
    pub fn qos(&self) -> bool {
        self.plan.tenants > 0
    }

    /// A fresh manager over the fitted parts, cache cold.
    pub fn manager(&self, qos: bool) -> Result<WorkloadManager> {
        let mut mgr = WorkloadManager::new(self.config(qos));
        self.deploy_knn(&mgr)?;
        for app in &self.fitted {
            mgr.register_fitted(Arc::clone(app))?;
        }
        Ok(mgr)
    }

    /// Deploy the probe-wrapped kNN classifier into `mgr`'s registry.
    pub fn deploy_knn(&self, mgr: &WorkloadManager) -> Result<()> {
        if let Some(rows) = &self.knn {
            mgr.registry()
                .deploy(KNN_LABEL, rows.classifier(&self.embedder, true)?);
        }
        Ok(())
    }

    /// Serve every warm-set arrival through the first app and wait for
    /// the shards to go idle, so a section starts on a steady cache. The
    /// kNN classifier is undeployed meanwhile: warming is about the
    /// cache, and a full index scan per template would dwarf it.
    pub fn warm(&self, mgr: &WorkloadManager, inputs: &Inputs) -> Result<()> {
        if self.knn.is_some() {
            mgr.registry().undeploy(KNN_LABEL);
        }
        let app = self.fitted[0].name();
        for chunk in inputs.warm.chunks(crate::spec::SUBMIT_CHUNK) {
            mgr.submit_batch(app, chunk.iter().map(LabeledQuery::from_record))?;
        }
        wait_idle(mgr);
        self.deploy_knn(mgr)
    }
}

/// Limit each of `tenants` to `rate_per_sec` labelings per second, with
/// a burst allowance of 50 ms of that rate (at least 16).
pub fn limit_tenants<'a>(
    mgr: &WorkloadManager,
    tenants: impl IntoIterator<Item = &'a str>,
    rate_per_sec: f64,
) {
    for tenant in tenants {
        mgr.set_tenant_policy(
            tenant,
            TenantPolicy {
                weight: 1,
                rate: Some(RateLimit {
                    rate_per_sec,
                    burst: (0.05 * rate_per_sec).max(16.0),
                }),
            },
        );
    }
}

/// Spin until every accepted query has been labeled.
pub fn wait_idle(mgr: &WorkloadManager) {
    while mgr
        .throughput()
        .iter()
        .any(|t| t.processed + t.rejected < t.submitted)
    {
        std::thread::sleep(std::time::Duration::from_micros(200));
    }
}

impl KnnRows {
    /// A freshly fitted `Knn(k=5, cosine)` classifier over the rows on
    /// the default exact flat backend; `probed` wraps it in [`KnnProbe`].
    pub fn classifier(
        &self,
        embedder: &Arc<dyn Embedder>,
        probed: bool,
    ) -> Result<QueryClassifier> {
        let names: Vec<&str> = self.accounts.iter().map(String::as_str).collect();
        let mut rng = Pcg32::new(MODEL_SEED);
        let knn = Knn::new(5, KnnMetric::Cosine);
        let labeler = if probed {
            let probe = KnnProbe::new(knn, Arc::clone(&self.shared));
            TrainedLabeler::try_train(probe, &self.vectors, &names, &mut rng)?
        } else {
            TrainedLabeler::try_train(knn, &self.vectors, &names, &mut rng)?
        };
        Ok(QueryClassifier::new(
            KNN_LABEL,
            Arc::clone(embedder),
            labeler,
        ))
    }

    /// The rows' vectors (inputs of the standalone index timings).
    pub fn vectors(&self) -> &[Vec<f32>] {
        &self.vectors
    }
}
