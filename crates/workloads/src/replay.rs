//! Trace replay — turning a query corpus into a timed load.
//!
//! A [`ReplaySchedule`] rewrites a corpus's log timestamps into wall-
//! clock offsets at a configurable aggregate QPS with tunable
//! burstiness, preserving the corpus order (and therefore every
//! tenant's relative order).
//!
//! The schedule is deterministic in [`ReplayConfig::seed`], so a replay
//! is exactly repeatable — the property load tests need to be
//! comparable across configurations (1 shard vs 4 shards, etc.).
//!
//! ```
//! use querc_workloads::{ReplayConfig, ReplaySchedule, SnowCloud, SnowCloudConfig};
//!
//! let wl = SnowCloud::generate(&SnowCloudConfig::pretrain(3, 40, 7));
//! let cfg = ReplayConfig {
//!     qps: 500.0,
//!     ..Default::default()
//! };
//! let schedule = ReplaySchedule::from_records(&wl.records, &cfg);
//! assert_eq!(schedule.len(), 120);
//! // 120 queries at 500 q/s ≈ 0.24 s of simulated arrivals.
//! assert!(schedule.duration().as_secs_f64() < 0.5);
//! ```

use crate::record::QueryRecord;
use querc_linalg::Pcg32;
use std::time::Duration;

/// Heavy-tailed tenant popularity for a replay: each scheduled query is
/// reassigned to one of `tenants` synthetic tenants drawn from a Zipf
/// distribution with the given exponent — rank 0 (`tenant000000`, the
/// **whale**) dominates while the long tail of **minnows** trickles.
/// This is the multi-tenant traffic shape the QoS scheduler is built
/// for; cloud query logs are famously Zipf-like in per-tenant volume.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TenantMix {
    /// Number of synthetic tenants (≥ 1); names are `tenant{rank:06}`
    /// in popularity order (rank 0 is hottest).
    pub tenants: usize,
    /// Zipf exponent `s` — tenant rank `i` gets weight `1/(i+1)^s`.
    /// `0.0` is uniform; `1.0` is the classic heavy tail; higher values
    /// concentrate even harder on the whale.
    pub exponent: f64,
}

/// Knobs for rewriting a corpus into a timed arrival process.
#[derive(Debug, Clone)]
pub struct ReplayConfig {
    /// Target aggregate arrival rate, queries per second.
    pub qps: f64,
    /// Arrival-process shape in `[0, 1]`: `0.0` is a perfectly paced
    /// stream (constant gaps), `1.0` is a Poisson process (exponential
    /// gaps — bursts and lulls). Values between blend the two.
    pub burstiness: f64,
    /// Seed for the gap sampler; equal seeds give equal schedules.
    pub seed: u64,
    /// Replay at most this many queries (`None` = the whole corpus).
    pub limit: Option<usize>,
    /// Overwrite each record's tenant (`account`/`user`) with a draw
    /// from a Zipf popularity distribution — the whales-and-minnows
    /// traffic shape for tenant-isolation testing. `None` keeps the
    /// corpus's original tenants. The tenant sampler runs on its own
    /// deterministic RNG stream, so enabling a mix does **not** perturb
    /// the arrival-gap schedule: offsets are identical with and without
    /// it for the same seed.
    pub tenant_mix: Option<TenantMix>,
}

impl Default for ReplayConfig {
    fn default() -> Self {
        ReplayConfig {
            qps: 1000.0,
            burstiness: 0.5,
            seed: 0x4e9a,
            limit: None,
            tenant_mix: None,
        }
    }
}

/// One scheduled arrival: a record and its offset from replay start.
#[derive(Debug, Clone)]
pub struct ReplayEvent {
    /// When this query arrives, relative to the start of the replay.
    pub offset: Duration,
    /// The query (with its original log labels) to submit.
    pub record: QueryRecord,
}

/// Inverse-CDF Zipf sampler over tenant ranks: weight `1/(i+1)^s`,
/// normalized partial sums, binary search per draw. Deterministic in
/// the RNG handed to [`ZipfSampler::sample`].
struct ZipfSampler {
    /// Cumulative distribution over ranks, ending at 1.0.
    cdf: Vec<f64>,
}

impl ZipfSampler {
    fn new(mix: TenantMix) -> ZipfSampler {
        let n = mix.tenants.max(1);
        let mut cdf = Vec::with_capacity(n);
        let mut total = 0.0f64;
        for i in 0..n {
            total += 1.0 / ((i + 1) as f64).powf(mix.exponent);
            cdf.push(total);
        }
        for c in &mut cdf {
            *c /= total;
        }
        ZipfSampler { cdf }
    }

    /// Draw a rank in `0..tenants` (0 = most popular).
    fn sample(&self, rng: &mut Pcg32) -> usize {
        let u = rng.f64();
        self.cdf.partition_point(|c| *c < u).min(self.cdf.len() - 1)
    }
}

/// A corpus rewritten into a deterministic timed arrival sequence.
#[derive(Debug, Clone)]
pub struct ReplaySchedule {
    events: Vec<ReplayEvent>,
}

impl ReplaySchedule {
    /// Build a schedule over `records` (in corpus order — per-tenant
    /// relative order is preserved) with gaps drawn per `cfg`.
    pub fn from_records(records: &[QueryRecord], cfg: &ReplayConfig) -> ReplaySchedule {
        let n = cfg.limit.unwrap_or(records.len()).min(records.len());
        let mean_gap = 1.0 / cfg.qps.max(1e-6);
        let burst = cfg.burstiness.clamp(0.0, 1.0);
        let mut rng = Pcg32::with_stream(cfg.seed, 0x4e9b);
        // The tenant sampler gets its own stream off the same seed:
        // adding/removing a tenant mix never shifts the gap schedule.
        let mut tenant_sampler = cfg
            .tenant_mix
            .map(|mix| (ZipfSampler::new(mix), Pcg32::with_stream(cfg.seed, 0x4e9c)));
        let mut at = 0.0f64;
        let events = records[..n]
            .iter()
            .map(|r| {
                // Blend a constant gap with an Exp(1)-distributed one;
                // both have unit mean, so the aggregate rate stays at
                // `qps` for every burstiness setting.
                let u: f64 = (1.0 - rng.f64()).max(1e-12);
                let exp_gap = -u.ln();
                let gap = mean_gap * ((1.0 - burst) + burst * exp_gap);
                let mut record = r.clone();
                if let Some((zipf, trng)) = &mut tenant_sampler {
                    let rank = zipf.sample(trng);
                    record.account = format!("tenant{rank:06}");
                    record.user = format!("tenant{rank:06}/u0");
                }
                let event = ReplayEvent {
                    offset: Duration::from_secs_f64(at),
                    record,
                };
                at += gap;
                event
            })
            .collect();
        ReplaySchedule { events }
    }

    /// Scheduled arrivals, in dispatch order.
    pub fn events(&self) -> &[ReplayEvent] {
        &self.events
    }

    /// Number of scheduled queries.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when nothing is scheduled.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Offset of the last arrival (zero for an empty schedule).
    pub fn duration(&self) -> Duration {
        self.events.last().map(|e| e.offset).unwrap_or_default()
    }

    /// Number of distinct query *templates* in the schedule — fingerprints
    /// over literal-stripped, case-folded token streams
    /// (`querc_sql::template_fingerprint`). Cloud traces are overwhelmingly
    /// templated, and this is the load harness's cache-planning number: an
    /// ingress vector cache sized at or above this count converges to a
    /// hit rate of `1 − distinct_templates() / len()` on the replay.
    pub fn distinct_templates(&self) -> usize {
        self.events
            .iter()
            .map(|e| querc_sql::template_fingerprint(&e.record.sql, querc_sql::Dialect::Generic))
            .collect::<std::collections::HashSet<_>>()
            .len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn records(n: usize) -> Vec<QueryRecord> {
        (0..n)
            .map(|i| QueryRecord {
                sql: format!("select {i} from t"),
                user: format!("acct{}/u0", i % 3),
                account: format!("acct{}", i % 3),
                cluster: "c0".into(),
                dialect: "generic".into(),
                runtime_ms: 1.0,
                mem_mb: 1.0,
                error_code: None,
                timestamp: i as u64,
            })
            .collect()
    }

    #[test]
    fn schedule_preserves_corpus_order_and_monotone_offsets() {
        let schedule = ReplaySchedule::from_records(&records(100), &ReplayConfig::default());
        assert_eq!(schedule.len(), 100);
        for (i, e) in schedule.events().iter().enumerate() {
            assert_eq!(e.record.sql, format!("select {i} from t"));
        }
        for w in schedule.events().windows(2) {
            assert!(w[0].offset <= w[1].offset, "offsets must be monotone");
        }
    }

    #[test]
    fn zero_burstiness_is_perfectly_paced() {
        let cfg = ReplayConfig {
            qps: 100.0,
            burstiness: 0.0,
            ..Default::default()
        };
        let schedule = ReplaySchedule::from_records(&records(11), &cfg);
        let gaps: Vec<f64> = schedule
            .events()
            .windows(2)
            .map(|w| (w[1].offset - w[0].offset).as_secs_f64())
            .collect();
        for gap in gaps {
            assert!((gap - 0.01).abs() < 1e-9, "constant 10ms gaps, got {gap}");
        }
    }

    #[test]
    fn mean_rate_tracks_qps_for_any_burstiness() {
        for burstiness in [0.0, 0.5, 1.0] {
            let cfg = ReplayConfig {
                qps: 1000.0,
                burstiness,
                seed: 42,
                ..Default::default()
            };
            let schedule = ReplaySchedule::from_records(&records(2000), &cfg);
            let secs = schedule.duration().as_secs_f64();
            // 2000 arrivals at 1000 q/s ≈ 2s; exponential noise averages out.
            assert!(
                (1.6..=2.4).contains(&secs),
                "burstiness {burstiness}: schedule span {secs}s"
            );
        }
    }

    #[test]
    fn bursty_schedules_have_spread_gaps() {
        let cfg = ReplayConfig {
            qps: 1000.0,
            burstiness: 1.0,
            ..Default::default()
        };
        let schedule = ReplaySchedule::from_records(&records(500), &cfg);
        let gaps: Vec<f64> = schedule
            .events()
            .windows(2)
            .map(|w| (w[1].offset - w[0].offset).as_secs_f64())
            .collect();
        let short = gaps.iter().filter(|g| **g < 0.0005).count();
        let long = gaps.iter().filter(|g| **g > 0.002).count();
        assert!(short > 50, "Poisson arrivals bunch up: {short} short gaps");
        assert!(long > 20, "and leave lulls: {long} long gaps");
    }

    #[test]
    fn deterministic_under_seed_and_limit_respected() {
        let cfg = ReplayConfig {
            limit: Some(7),
            ..Default::default()
        };
        let a = ReplaySchedule::from_records(&records(50), &cfg);
        let b = ReplaySchedule::from_records(&records(50), &cfg);
        assert_eq!(a.len(), 7);
        assert_eq!(b.len(), 7);
        for (x, y) in a.events().iter().zip(b.events()) {
            assert_eq!(x.offset, y.offset);
            assert_eq!(x.record, y.record);
        }
    }

    #[test]
    fn distinct_templates_collapses_literal_variants() {
        // `records(n)` varies only the selected literal → one template.
        let schedule = ReplaySchedule::from_records(&records(50), &ReplayConfig::default());
        assert_eq!(schedule.distinct_templates(), 1);
        // Mixing in a structurally different shape adds exactly one.
        let mut recs = records(20);
        let mut other = recs[0].clone();
        other.sql = "insert into logs values (1, 'x')".into();
        recs.push(other);
        let schedule = ReplaySchedule::from_records(&recs, &ReplayConfig::default());
        assert_eq!(schedule.distinct_templates(), 2);
        assert_eq!(
            ReplaySchedule::from_records(&[], &ReplayConfig::default()).distinct_templates(),
            0
        );
    }

    #[test]
    fn tenant_mix_is_deterministic_per_seed() {
        let cfg = |seed| ReplayConfig {
            seed,
            tenant_mix: Some(TenantMix {
                tenants: 50,
                exponent: 1.1,
            }),
            ..Default::default()
        };
        let a = ReplaySchedule::from_records(&records(400), &cfg(7));
        let b = ReplaySchedule::from_records(&records(400), &cfg(7));
        for (x, y) in a.events().iter().zip(b.events()) {
            assert_eq!(x.record.account, y.record.account, "same seed, same draw");
            assert_eq!(x.offset, y.offset);
        }
        // A different seed draws a different tenant sequence.
        let c = ReplaySchedule::from_records(&records(400), &cfg(8));
        assert!(
            a.events()
                .iter()
                .zip(c.events())
                .any(|(x, y)| x.record.account != y.record.account),
            "different seeds should diverge somewhere in 400 draws"
        );
    }

    #[test]
    fn tenant_mix_does_not_perturb_the_gap_schedule() {
        let base = ReplayConfig::default();
        let mixed = ReplayConfig {
            tenant_mix: Some(TenantMix {
                tenants: 20,
                exponent: 1.0,
            }),
            ..Default::default()
        };
        let plain = ReplaySchedule::from_records(&records(200), &base);
        let zipf = ReplaySchedule::from_records(&records(200), &mixed);
        for (p, z) in plain.events().iter().zip(zipf.events()) {
            assert_eq!(
                p.offset, z.offset,
                "tenant sampling must ride a separate RNG stream"
            );
            assert_eq!(p.record.sql, z.record.sql, "only tenancy is rewritten");
        }
    }

    #[test]
    fn tenant_mix_is_heavy_tailed_with_rank_zero_whale() {
        let cfg = ReplayConfig {
            tenant_mix: Some(TenantMix {
                tenants: 40,
                exponent: 1.2,
            }),
            ..Default::default()
        };
        let schedule = ReplaySchedule::from_records(&records(2000), &cfg);
        let mut counts = std::collections::HashMap::new();
        for e in schedule.events() {
            *counts.entry(e.record.account.clone()).or_insert(0usize) += 1;
            assert!(e.record.account.starts_with("tenant"));
            assert_eq!(e.record.user, format!("{}/u0", e.record.account));
        }
        let whale = counts.get("tenant000000").copied().unwrap_or(0);
        let max = counts.values().copied().max().unwrap();
        assert_eq!(whale, max, "rank 0 is the most popular tenant");
        assert!(
            whale > 2000 / 40 * 4,
            "whale far exceeds the uniform share: {whale}"
        );
        // Most of the 40 ranks are drawn, and all share one template.
        assert!(counts.len() > 10);
        assert!(counts.len() <= 40);
        assert_eq!(schedule.distinct_templates(), 1);
        // Without a mix, the corpus's own 3 accounts survive.
        let plain = ReplaySchedule::from_records(&records(100), &ReplayConfig::default());
        let accounts: std::collections::HashSet<&str> = plain
            .events()
            .iter()
            .map(|e| e.record.account.as_str())
            .collect();
        assert_eq!(accounts.len(), 3);
    }

    #[test]
    fn empty_corpus_yields_empty_schedule() {
        let schedule = ReplaySchedule::from_records(&[], &ReplayConfig::default());
        assert!(schedule.is_empty());
        assert_eq!(schedule.duration(), Duration::ZERO);
    }
}
