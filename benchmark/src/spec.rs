//! What the benchmark declares: the metric lists of `BENCHMARK.json` and
//! the fixed shape of every workload.
//!
//! `BENCHMARK.json` is compiled in, so the names, units and bounds the
//! binary prints and compares are the ones the repository commits. The
//! workload constants (trace sizes, arrival rates, latency limits) live
//! here because `BENCHMARK.json` has a fixed set of keys.

use serde::json::{self, Value};

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// One declared metric.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSpec {
    /// Metric name.
    pub name: String,
    /// Unit printed beside every value.
    pub unit: String,
    /// Whether a higher value is the better one.
    pub higher_is_better: bool,
    /// Share of the baseline by which an end-to-end metric may worsen;
    /// per-layer metrics have none.
    pub bound: Option<f64>,
}

/// The parsed `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    /// Workload names, in file order.
    pub workloads: Vec<String>,
    /// Default `--seconds`.
    pub run_seconds: f64,
    /// Metrics of an untraced run.
    pub end_to_end: Vec<MetricSpec>,
    /// Metrics of a traced run.
    pub per_layer: Vec<MetricSpec>,
}

fn metric(v: &Value) -> Result<MetricSpec, json::Error> {
    let better = v.field("better")?.as_str()?;
    if better != "higher" && better != "lower" {
        return Err(json::Error::msg(format!("better: {better:?}")));
    }
    let bound = match v.field("bound") {
        Ok(b) => Some(
            b.as_number()?
                .parse()
                .map_err(|_| json::Error::msg("bound is not a number"))?,
        ),
        Err(_) => None,
    };
    Ok(MetricSpec {
        name: v.field("name")?.as_str()?.to_string(),
        unit: v.field("unit")?.as_str()?.to_string(),
        higher_is_better: better == "higher",
        bound,
    })
}

impl Spec {
    /// The committed `BENCHMARK.json`.
    pub fn load() -> Result<Spec, json::Error> {
        let doc = json::parse(BENCHMARK_JSON)?;
        let list = |key: &str| -> Result<Vec<MetricSpec>, json::Error> {
            doc.field(key)?.as_array()?.iter().map(metric).collect()
        };
        Ok(Spec {
            workloads: doc
                .field("workloads")?
                .as_array()?
                .iter()
                .map(|w| Ok(w.field("name")?.as_str()?.to_string()))
                .collect::<Result<_, json::Error>>()?,
            run_seconds: doc
                .field("run_seconds")?
                .as_number()?
                .parse()
                .map_err(|_| json::Error::msg("run_seconds is not a number"))?,
            end_to_end: list("end_to_end")?,
            per_layer: list("per_layer")?,
        })
    }
}

/// Which embedder a workload's stack shares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EmbedderChoice {
    /// Default `Doc2Vec`, trained on the workload's training window:
    /// inference is ~100 µs a document, so the ingress cache matters.
    Doc2Vec,
    /// `BagOfTokens(128, bigrams)`: inference is a few µs, so everything
    /// else shows.
    Bow,
}

/// The fixed shape of one workload. Every field is a constant of the
/// benchmark: changing one changes what the committed baseline means.
#[derive(Debug, Clone, PartialEq)]
pub struct Plan {
    /// Workload name (as in `BENCHMARK.json`).
    pub name: &'static str,
    /// SnowCloud `pretrain(accounts, per_account, seed)` trace shape.
    pub accounts: usize,
    /// Queries per account.
    pub per_account: usize,
    /// Leading records the apps (and a Doc2Vec) are fitted on.
    pub train: usize,
    /// Arrivals in the replay pool, taken after the training window.
    pub replay: usize,
    /// Keep only the first arrival of each template in the pool.
    pub distinct_only: bool,
    /// Embedder the stack shares.
    pub embedder: EmbedderChoice,
    /// Apps registered, by name.
    pub apps: &'static [&'static str],
    /// Rows of the registry kNN `account` classifier (0 = none).
    pub knn_rows: usize,
    /// Shards per app (capped at the core count at run time).
    pub shards_per_app: usize,
    /// `embed_cache_capacity`.
    pub cache_capacity: usize,
    /// Synthetic Zipf(1.1) tenants with QoS on (0 = original tenants, QoS off).
    pub tenants: usize,
    /// Arrivals per unpaced pass.
    pub pass: usize,
    /// Open-loop arrival rates `lo/mid/hi`, arrivals per second: about
    /// 25/50/75% of the reference box's unpaced rate.
    pub rates: [f64; 3],
    /// Share of `--seconds` given to the unpaced section and to each
    /// paced rate.
    pub serve_share: f64,
    /// p99 limit deciding `service.max_rate_ok_qps`, µs.
    pub p99_limit_us: f64,
    /// Fewest timed repeats of checkpoint and delta (more while cheap).
    pub persist_reps: usize,
    /// Fresh templates served before each `checkpoint_delta`.
    pub delta_templates: usize,
}

const SIX_APPS: &[&str] = &[
    "audit",
    "errors",
    "recommend",
    "resources",
    "routing",
    "summarize",
];

/// Per-tenant rate limit of `tenant_storm`'s paced sections, as a share
/// of the section's arrival rate. Under Zipf(1.1) over 64 tenants the
/// four hottest ranks offer more than this and shed; the tail never does.
pub const TENANT_LIMIT_SHARE: f64 = 0.05;

/// Burstiness of every paced schedule (`ReplayConfig::burstiness`).
pub const BURSTINESS: f64 = 0.5;

/// Arrivals per `submit_batch` call in unpaced passes.
pub const SUBMIT_CHUNK: usize = 64;

/// Probe queries that must label identically before and after a restore.
pub const RESTORE_PROBES: usize = 256;

/// The five workloads at their committed sizes.
pub fn plans() -> Vec<Plan> {
    let base = Plan {
        name: "",
        accounts: 12,
        per_account: 1000,
        train: 1000,
        replay: 8000,
        distinct_only: false,
        embedder: EmbedderChoice::Doc2Vec,
        apps: SIX_APPS,
        knn_rows: 0,
        shards_per_app: 1,
        cache_capacity: 65536,
        tenants: 0,
        pass: 8000,
        rates: [1000.0, 2000.0, 3000.0],
        serve_share: 0.25,
        p99_limit_us: 5000.0,
        persist_reps: 5,
        delta_templates: 100,
    };
    vec![
        Plan {
            name: "serve_warm",
            ..base.clone()
        },
        Plan {
            name: "serve_cold",
            distinct_only: true,
            cache_capacity: 1024,
            replay: 3000,
            pass: 2400,
            rates: [400.0, 800.0, 1200.0],
            p99_limit_us: 10000.0,
            ..base.clone()
        },
        Plan {
            name: "serve_knn",
            embedder: EmbedderChoice::Bow,
            apps: &["resources"],
            per_account: 1500,
            knn_rows: 8000,
            train: 8000,
            replay: 4000,
            pass: 2000,
            rates: [400.0, 800.0, 1200.0],
            p99_limit_us: 20000.0,
            ..base.clone()
        },
        Plan {
            name: "tenant_storm",
            embedder: EmbedderChoice::Bow,
            apps: &["resources", "routing"],
            shards_per_app: 2,
            tenants: 64,
            // Two cheap apps fit 1000 records in 70 ms, a time that swung
            // by 40% with the seed: 4000 records make `fit_s` 0.3 s.
            per_account: 1500,
            train: 4000,
            pass: 16000,
            rates: [4000.0, 8000.0, 12000.0],
            ..base.clone()
        },
        Plan {
            name: "retrain_restore",
            per_account: 1500,
            train: 2000,
            replay: 10000,
            pass: 4000,
            serve_share: 0.1,
            ..base
        },
    ]
}

/// A plan shrunk for the smoke test: same structure, tiny sizes.
pub fn tiny(plan: &Plan) -> Plan {
    Plan {
        accounts: 4,
        per_account: 100,
        train: plan.train.min(100),
        replay: plan.replay.min(150),
        knn_rows: plan.knn_rows.min(100),
        pass: 100,
        rates: [300.0, 600.0, 900.0],
        persist_reps: 1,
        delta_templates: 20,
        tenants: plan.tenants.min(16),
        cache_capacity: if plan.distinct_only {
            32
        } else {
            plan.cache_capacity
        },
        ..plan.clone()
    }
}

/// The plan named `name`.
pub fn plan(name: &str) -> Option<Plan> {
    plans().into_iter().find(|p| p.name == name)
}
