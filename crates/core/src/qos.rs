//! Multi-tenant QoS: deficit-round-robin fair dequeue, token-bucket
//! admission control, and per-tenant accounting for the serving plane.
//!
//! The sharded [`crate::service::WorkloadManager`] hash-routes queries
//! by tenant ([`crate::service::routing_key`]), which preserves
//! per-tenant order — but a single noisy tenant hashed onto a shard can
//! monopolize that shard's FIFO queue and starve every small tenant
//! routed alongside it. This module is the isolation story, in three
//! layers that compose on the ingress path:
//!
//! 1. **Admission control** ([`TokenBucket`] per tenant, plus a
//!    per-tenant backlog cap): a tenant exceeding its configured rate or
//!    holding too many in-flight queries is **shed** with an explicit
//!    [`crate::error::QuercError::Rejected`] carrying the tenant and a
//!    [`RejectReason`] — instead of blanket backpressure that blocks
//!    every producer behind the noisy one. Rejections are counted per
//!    tenant and per app; nothing is silently dropped.
//! 2. **Fair dequeue** ([`DrrScheduler`] inside each shard worker):
//!    arrivals are parked in per-tenant FIFO subqueues and dequeued by
//!    deficit round robin — each backlogged tenant earns
//!    `quantum × weight` dequeues per round, so service share converges
//!    to weight share within one round's slack no matter how deep one
//!    tenant's backlog grows. Per-tenant FIFO order is preserved: a
//!    subqueue is only ever popped from the front.
//! 3. **Accounting** ([`QosState`]): per-tenant submitted / processed /
//!    rejected counters and a per-tenant [`LatencyHistogram`]
//!    (p50/p95/p99), surfaced live via
//!    [`crate::service::WorkloadManager::qos_stats`] and finally in
//!    [`crate::service::ServiceDrain::qos`] — the measurements the
//!    tenant-isolation tests gate on.
//!
//! Everything here is off by default ([`QosConfig::enabled`] is
//! `false`): a manager without QoS behaves exactly as before — blocking
//! backpressure, single FIFO per shard.

use crate::histogram::{LatencyHistogram, LatencySnapshot};
use parking_lot::{Mutex, RwLock};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::fmt;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Why a query was shed at admission instead of enqueued.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RejectReason {
    /// The tenant's token bucket is empty — it exceeded its configured
    /// sustained rate (and has spent its burst allowance).
    RateLimited,
    /// The tenant already has [`QosConfig::max_pending_per_tenant`]
    /// queries in flight; admitting more would let one tenant's backlog
    /// grow without bound inside the shard schedulers.
    Backlogged,
    /// The target shard's bounded input queue was full. With QoS
    /// enabled the manager sheds instead of blocking, so one saturated
    /// shard cannot stall producers serving other shards.
    ShardFull,
}

impl fmt::Display for RejectReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            RejectReason::RateLimited => "rate limited",
            RejectReason::Backlogged => "per-tenant backlog cap reached",
            RejectReason::ShardFull => "shard queue full",
        })
    }
}

/// A tenant's sustained-rate limit: `rate_per_sec` tokens refill per
/// second into a bucket holding at most `burst` tokens; each admitted
/// query spends one token. `rate_per_sec == 0` with `burst == 0`
/// rejects everything — the "tenant is cut off" switch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RateLimit {
    /// Tokens (queries) refilled per second.
    pub rate_per_sec: f64,
    /// Bucket capacity — the burst a previously-idle tenant may spend
    /// instantly before the sustained rate takes over.
    pub burst: f64,
}

/// Admission state for one rate-limited tenant. Refill is computed
/// lazily from elapsed time at each [`TokenBucket::admit_at`] call, so
/// the bucket needs no timer thread — and because the caller supplies
/// the clock, refill is exactly reproducible under a mocked sequence of
/// instants (see the unit tests).
#[derive(Debug, Clone)]
pub struct TokenBucket {
    limit: RateLimit,
    tokens: f64,
    last: Instant,
}

impl TokenBucket {
    /// A bucket that starts **full** (a fresh tenant may spend its whole
    /// burst immediately), with `now` as its refill epoch.
    pub fn new(limit: RateLimit, now: Instant) -> TokenBucket {
        TokenBucket {
            limit,
            tokens: limit.burst.max(0.0),
            last: now,
        }
    }

    /// Try to admit one query at time `now`: refill
    /// `elapsed × rate_per_sec` tokens (capped at `burst`), then spend
    /// one. Returns `false` — and spends nothing — when less than one
    /// token is available. A `now` earlier than the last call refills
    /// nothing (the clock never runs backwards inside the bucket).
    pub fn admit_at(&mut self, now: Instant) -> bool {
        let elapsed = now.checked_duration_since(self.last).unwrap_or_default();
        self.tokens = (self.tokens + elapsed.as_secs_f64() * self.limit.rate_per_sec.max(0.0))
            .min(self.limit.burst.max(0.0));
        self.last = now;
        if self.tokens >= 1.0 {
            self.tokens -= 1.0;
            true
        } else {
            false
        }
    }

    /// Tokens currently available (after the last refill).
    pub fn available(&self) -> f64 {
        self.tokens
    }
}

/// Per-tenant QoS knobs — what [`QosConfig`] defaults can be overridden
/// with for a specific tenant via
/// [`crate::service::WorkloadManager::set_tenant_policy`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TenantPolicy {
    /// DRR weight (≥ 1): a weight-3 tenant earns 3× the dequeues of a
    /// weight-1 tenant per round while both are backlogged.
    pub weight: u32,
    /// Rate limit; `None` means no token bucket for this tenant.
    pub rate: Option<RateLimit>,
}

impl Default for TenantPolicy {
    fn default() -> Self {
        TenantPolicy {
            weight: 1,
            rate: None,
        }
    }
}

/// QoS knobs on [`crate::service::WorkloadManagerConfig`]. Disabled by
/// default; enabling changes two ingress behaviors: over-limit tenants
/// are shed with [`crate::error::QuercError::Rejected`] (instead of
/// nothing), and a full shard queue sheds (instead of blocking the
/// producer).
///
/// **Sizing:** `quantum` is the queries a weight-1 tenant may dequeue
/// per DRR round; small values (4–16) bound how long a shard serves one
/// tenant before rotating (lower cross-tenant jitter), large values
/// amortize rotation overhead. `max_pending_per_tenant` bounds the
/// memory one tenant can pin inside the schedulers — total scheduler
/// memory is at most `live_tenants × max_pending_per_tenant` queries —
/// and is the knob that converts a whale's flood into `Rejected`
/// results; size it to a few rounds' worth of service
/// (`quantum × weight × shards`). `default_rate` is the plane-wide
/// per-tenant ceiling; leave `None` and rely on the backlog cap unless
/// tenants have contracted rates.
#[derive(Debug, Clone)]
pub struct QosConfig {
    /// Master switch; `false` preserves pre-QoS serving exactly.
    pub enabled: bool,
    /// Dequeues a weight-1 tenant earns per DRR round (≥ 1).
    pub quantum: u32,
    /// Token bucket applied to tenants without an explicit policy;
    /// `None` disables rate limiting for them.
    pub default_rate: Option<RateLimit>,
    /// Maximum in-flight (admitted but not yet labeled) queries per
    /// tenant across the whole manager; `0` means uncapped.
    pub max_pending_per_tenant: usize,
    /// Per-tenant overrides applied at construction (more can be added
    /// live via [`crate::service::WorkloadManager::set_tenant_policy`]).
    /// A tenant without one has weight 1 and `default_rate`.
    pub policies: Vec<(String, TenantPolicy)>,
}

impl Default for QosConfig {
    fn default() -> Self {
        QosConfig {
            enabled: false,
            quantum: 8,
            default_rate: None,
            max_pending_per_tenant: 1024,
            policies: Vec::new(),
        }
    }
}

impl QosConfig {
    /// An enabled config with the given defaults — shorthand for tests
    /// and examples.
    pub fn enabled() -> QosConfig {
        QosConfig {
            enabled: true,
            ..Default::default()
        }
    }
}

/// Live per-tenant accounting shared between the manager (admission
/// side) and every shard worker (completion side).
pub struct TenantState {
    weight: AtomicU32,
    bucket: Mutex<Option<TokenBucket>>,
    pending: AtomicU64,
    submitted: AtomicU64,
    processed: AtomicU64,
    rejected_rate: AtomicU64,
    rejected_backlog: AtomicU64,
    rejected_shard_full: AtomicU64,
    latency: LatencyHistogram,
}

impl TenantState {
    fn new(policy: TenantPolicy, now: Instant) -> TenantState {
        TenantState {
            weight: AtomicU32::new(policy.weight.max(1)),
            bucket: Mutex::new(policy.rate.map(|r| TokenBucket::new(r, now))),
            pending: AtomicU64::new(0),
            submitted: AtomicU64::new(0),
            processed: AtomicU64::new(0),
            rejected_rate: AtomicU64::new(0),
            rejected_backlog: AtomicU64::new(0),
            rejected_shard_full: AtomicU64::new(0),
            latency: LatencyHistogram::new(),
        }
    }

    /// Current DRR weight.
    pub fn weight(&self) -> u32 {
        self.weight.load(Ordering::Relaxed)
    }

    fn snapshot(&self) -> TenantSnapshot {
        TenantSnapshot {
            weight: self.weight(),
            submitted: self.submitted.load(Ordering::Relaxed),
            processed: self.processed.load(Ordering::Relaxed),
            pending: self.pending.load(Ordering::Relaxed),
            rejected_rate_limited: self.rejected_rate.load(Ordering::Relaxed),
            rejected_backlogged: self.rejected_backlog.load(Ordering::Relaxed),
            rejected_shard_full: self.rejected_shard_full.load(Ordering::Relaxed),
            latency: self.latency.snapshot(),
        }
    }
}

/// Point-in-time view of one tenant's QoS accounting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantSnapshot {
    /// DRR weight in force.
    pub weight: u32,
    /// Queries this tenant offered to `submit`/`submit_batch` (admitted
    /// **and** rejected).
    pub submitted: u64,
    /// Queries fully labeled.
    pub processed: u64,
    /// Admitted queries not yet labeled at snapshot time.
    pub pending: u64,
    /// Sheds due to an empty token bucket.
    pub rejected_rate_limited: u64,
    /// Sheds due to the per-tenant backlog cap.
    pub rejected_backlogged: u64,
    /// Sheds due to a full shard queue.
    pub rejected_shard_full: u64,
    /// This tenant's submit→labeled latency quantiles (µs).
    pub latency: LatencySnapshot,
}

impl TenantSnapshot {
    /// Total sheds across all reasons.
    pub fn rejected(&self) -> u64 {
        self.rejected_rate_limited + self.rejected_backlogged + self.rejected_shard_full
    }
}

/// Final per-tenant QoS accounting, returned by
/// [`crate::service::WorkloadManager::drain`]. Empty when QoS was
/// disabled.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct QosDrain {
    /// Every tenant seen at admission, by routing key, sorted.
    pub tenants: BTreeMap<String, TenantSnapshot>,
}

impl QosDrain {
    /// Sum of sheds across every tenant and reason.
    pub fn total_rejected(&self) -> u64 {
        self.tenants.values().map(|t| t.rejected()).sum()
    }
}

/// The manager-wide QoS brain: tenant policies, per-tenant accounting,
/// and the admission decision. One `Arc<QosState>` is shared by the
/// manager (admission) and every shard worker (DRR weights, completion
/// accounting).
pub struct QosState {
    quantum: u32,
    default_policy: TenantPolicy,
    max_pending: usize,
    tenants: RwLock<HashMap<String, Arc<TenantState>>>,
    policies: RwLock<HashMap<String, TenantPolicy>>,
}

impl QosState {
    /// Build from config (policies listed there are installed
    /// immediately).
    pub fn new(cfg: &QosConfig) -> QosState {
        let state = QosState {
            quantum: cfg.quantum.max(1),
            default_policy: TenantPolicy {
                weight: 1,
                rate: cfg.default_rate,
            },
            max_pending: cfg.max_pending_per_tenant,
            tenants: RwLock::new(HashMap::new()),
            policies: RwLock::new(HashMap::new()),
        };
        for (tenant, policy) in &cfg.policies {
            state.set_policy(tenant, *policy);
        }
        state
    }

    /// Dequeues a weight-1 tenant earns per DRR round.
    pub fn quantum(&self) -> u32 {
        self.quantum
    }

    /// Install (or replace) a tenant's policy. Takes effect immediately
    /// for admission (the token bucket is swapped, starting full) and at
    /// the tenant's next backlog episode for DRR weight.
    pub fn set_policy(&self, tenant: &str, policy: TenantPolicy) {
        self.policies.write().insert(tenant.to_string(), policy);
        if let Some(state) = self.tenants.read().get(tenant) {
            state.weight.store(policy.weight.max(1), Ordering::Relaxed);
            *state.bucket.lock() = policy.rate.map(|r| TokenBucket::new(r, Instant::now()));
        }
    }

    /// Every explicitly-installed tenant policy, sorted by tenant — the
    /// set a checkpoint persists.
    pub fn policies(&self) -> Vec<(String, TenantPolicy)> {
        let mut v: Vec<(String, TenantPolicy)> = self
            .policies
            .read()
            .iter()
            .map(|(k, p)| (k.clone(), *p))
            .collect();
        v.sort_by(|a, b| a.0.cmp(&b.0));
        v
    }

    /// The policy in force for `tenant` (explicit, else defaults).
    pub fn policy_for(&self, tenant: &str) -> TenantPolicy {
        self.policies
            .read()
            .get(tenant)
            .copied()
            .unwrap_or(self.default_policy)
    }

    /// Accounting slot for `tenant`, created on first sight.
    pub fn tenant(&self, tenant: &str) -> Arc<TenantState> {
        if let Some(state) = self.tenants.read().get(tenant) {
            return Arc::clone(state);
        }
        let mut map = self.tenants.write();
        Arc::clone(
            map.entry(tenant.to_string()).or_insert_with(|| {
                Arc::new(TenantState::new(self.policy_for(tenant), Instant::now()))
            }),
        )
    }

    /// DRR weight for `tenant` without creating accounting state.
    pub fn weight_of(&self, tenant: &str) -> u32 {
        if let Some(state) = self.tenants.read().get(tenant) {
            return state.weight();
        }
        self.policy_for(tenant).weight.max(1)
    }

    /// The admission decision for one query from `tenant` at `now`:
    /// counts the offer, then checks the token bucket and the backlog
    /// cap. `Ok` hands back the tenant state so the caller can commit
    /// the pending slot once the shard accepts the query.
    pub fn admit_at(
        &self,
        tenant: &str,
        now: Instant,
    ) -> std::result::Result<Arc<TenantState>, RejectReason> {
        let state = self.tenant(tenant);
        state.submitted.fetch_add(1, Ordering::Relaxed);
        if let Some(bucket) = &mut *state.bucket.lock() {
            if !bucket.admit_at(now) {
                state.rejected_rate.fetch_add(1, Ordering::Relaxed);
                return Err(RejectReason::RateLimited);
            }
        }
        if self.max_pending > 0 && state.pending.load(Ordering::Relaxed) >= self.max_pending as u64
        {
            state.rejected_backlog.fetch_add(1, Ordering::Relaxed);
            return Err(RejectReason::Backlogged);
        }
        Ok(state)
    }

    /// Reserve the admitted query's pending slot. Must be called
    /// **before** the shard send: once the query is visible to a shard
    /// worker, its completion may race this bookkeeping, and a
    /// `complete` that lands before the increment would saturate at
    /// zero and leak the slot. Reserve-then-send makes `pending ≥ 1`
    /// whenever a completion for this tenant runs.
    pub fn committed(state: &TenantState) {
        state.pending.fetch_add(1, Ordering::Relaxed);
    }

    /// The shard queue was full — the admitted query was shed after
    /// all: release its reserved pending slot and count the shed.
    pub fn shed_shard_full(state: &TenantState) {
        state.pending.fetch_sub(1, Ordering::Relaxed);
        state.rejected_shard_full.fetch_add(1, Ordering::Relaxed);
    }

    /// The shard channel was closed (dead shard): release the reserved
    /// pending slot and roll the offer back so
    /// `submitted == processed + rejected` accounting ignores queries
    /// that never had an outcome.
    pub fn unsubmit(state: &TenantState) {
        state.pending.fetch_sub(1, Ordering::Relaxed);
        state.submitted.fetch_sub(1, Ordering::Relaxed);
    }

    /// A query finished labeling: release its pending slot and record
    /// its submit→labeled latency into the tenant histogram.
    pub fn complete(&self, tenant: &str, latency: Option<Duration>) {
        let state = self.tenant(tenant);
        state.processed.fetch_add(1, Ordering::Relaxed);
        // Saturate at zero: completions for queries admitted before QoS
        // was sharing state (or double drains in tests) must not wrap.
        let _ = state
            .pending
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |p| {
                Some(p.saturating_sub(1))
            });
        if let Some(elapsed) = latency {
            state.latency.record(elapsed);
        }
    }

    /// Snapshot every tenant's accounting, sorted by tenant key.
    pub fn drain_snapshot(&self) -> QosDrain {
        QosDrain {
            tenants: self
                .tenants
                .read()
                .iter()
                .map(|(k, s)| (k.clone(), s.snapshot()))
                .collect(),
        }
    }
}

/// One tenant's parked arrivals inside a [`DrrScheduler`].
struct TenantQueue<T> {
    items: VecDeque<T>,
    /// Dequeue credit carried across rounds while backlogged; reset to
    /// zero when the subqueue empties (classic DRR).
    deficit: u64,
    /// Whether this head-of-line visit already earned its quantum — a
    /// chunk-size cutoff mid-service must not double-credit the tenant
    /// when the next chunk resumes.
    charged: bool,
    weight: u64,
}

/// Deficit-round-robin fair scheduler over per-tenant FIFO subqueues —
/// the dequeue discipline inside each shard worker when QoS is enabled.
///
/// Each backlogged tenant, on its turn, earns `quantum × weight`
/// dequeue credit and is served until the credit runs out (rotating to
/// the back of the active ring with the remainder) or its subqueue
/// empties (credit is forfeited). With unit-cost items this guarantees:
/// over any window in which a set of tenants stays backlogged, tenant
/// `i` receives dequeues proportional to `weight_i` within one round's
/// slack (`quantum × weight_i` items) — property-tested below. FIFO
/// within a tenant is structural: items only ever leave a subqueue from
/// the front.
pub struct DrrScheduler<T> {
    queues: HashMap<String, TenantQueue<T>>,
    /// Backlogged tenants, in service order (front = next to serve).
    active: VecDeque<String>,
    quantum: u64,
    len: usize,
}

impl<T> DrrScheduler<T> {
    /// An empty scheduler; `quantum` is clamped to ≥ 1.
    pub fn new(quantum: u32) -> DrrScheduler<T> {
        DrrScheduler {
            queues: HashMap::new(),
            active: VecDeque::new(),
            quantum: quantum.max(1) as u64,
            len: 0,
        }
    }

    /// Parked items across all tenants.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no tenant has parked items.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of currently-backlogged tenants.
    pub fn backlogged_tenants(&self) -> usize {
        self.active.len()
    }

    /// Park one item on `tenant`'s subqueue. `weight` (clamped to ≥ 1)
    /// is latched when the tenant *enters* backlog — a mid-backlog
    /// weight change takes effect at the tenant's next backlog episode,
    /// so one round never mixes two weights for one tenant.
    pub fn enqueue(&mut self, tenant: &str, weight: u32, item: T) {
        match self.queues.get_mut(tenant) {
            Some(q) => q.items.push_back(item),
            None => {
                self.queues.insert(
                    tenant.to_string(),
                    TenantQueue {
                        items: VecDeque::from([item]),
                        deficit: 0,
                        charged: false,
                        weight: weight.max(1) as u64,
                    },
                );
                self.active.push_back(tenant.to_string());
            }
        }
        self.len += 1;
    }

    /// Dequeue up to `max` items by deficit round robin. Items from one
    /// tenant come out in FIFO order; tenants are served in ring order
    /// with their earned credit. A `max` cutoff mid-tenant resumes that
    /// tenant (with its remaining credit) on the next call.
    pub fn dequeue_chunk(&mut self, max: usize) -> Vec<T> {
        let mut out = Vec::new();
        while out.len() < max {
            let Some(tenant) = self.active.front().cloned() else {
                break;
            };
            let q = self
                .queues
                .get_mut(&tenant)
                .expect("active tenants always have a queue");
            if !q.charged {
                q.deficit = q.deficit.saturating_add(self.quantum * q.weight);
                q.charged = true;
            }
            while q.deficit > 0 && !q.items.is_empty() && out.len() < max {
                out.push(q.items.pop_front().expect("checked non-empty"));
                q.deficit -= 1;
                self.len -= 1;
            }
            if q.items.is_empty() {
                // Backlog episode over: forfeit leftover credit so an
                // idle tenant cannot bank service for later.
                self.queues.remove(&tenant);
                self.active.pop_front();
            } else if q.deficit == 0 {
                q.charged = false;
                self.active.rotate_left(1);
            } else {
                // Chunk is full mid-service; resume this tenant (credit
                // intact, no re-charge) on the next call.
                break;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn at(base: Instant, ms: u64) -> Instant {
        base + Duration::from_millis(ms)
    }

    #[test]
    fn token_bucket_burst_then_sustain() {
        let base = Instant::now();
        let mut b = TokenBucket::new(
            RateLimit {
                rate_per_sec: 10.0,
                burst: 5.0,
            },
            base,
        );
        // The full burst is admitted instantly…
        for i in 0..5 {
            assert!(b.admit_at(base), "burst token {i} must admit");
        }
        // …then the bucket is dry until time passes.
        assert!(!b.admit_at(base));
        // 100ms at 10/s refills exactly one token.
        assert!(b.admit_at(at(base, 100)));
        assert!(!b.admit_at(at(base, 100)));
        // Sustained: one admit per 100ms, no more — the window from the
        // last refill (t=100ms) to t=1100ms is exactly 1s at 10/s.
        let mut admitted = 0;
        for ms in (150..=1100).step_by(50) {
            if b.admit_at(at(base, ms)) {
                admitted += 1;
            }
        }
        assert_eq!(admitted, 10, "1s at 10/s sustains exactly 10 admits");
    }

    #[test]
    fn token_bucket_refill_is_deterministic_under_a_mocked_clock() {
        let base = Instant::now();
        let limit = RateLimit {
            rate_per_sec: 3.0,
            burst: 2.0,
        };
        let drive = |steps: &[u64]| -> (Vec<bool>, f64) {
            let mut b = TokenBucket::new(limit, base);
            let decisions = steps.iter().map(|ms| b.admit_at(at(base, *ms))).collect();
            (decisions, b.available())
        };
        let steps = [0u64, 0, 0, 100, 400, 400, 450, 2000, 2001, 2002, 2003];
        let (first, tokens_a) = drive(&steps);
        let (second, tokens_b) = drive(&steps);
        assert_eq!(first, second, "same instants, same decisions");
        assert_eq!(
            tokens_a.to_bits(),
            tokens_b.to_bits(),
            "bit-identical refill"
        );
        // And the clock never refills backwards.
        let mut b = TokenBucket::new(limit, at(base, 1000));
        assert!(b.admit_at(at(base, 1000)));
        assert!(b.admit_at(at(base, 500)), "spends the second burst token");
        assert!(
            !b.admit_at(at(base, 500)),
            "an earlier instant must not refill"
        );
    }

    #[test]
    fn zero_rate_bucket_rejects_everything() {
        let base = Instant::now();
        let mut b = TokenBucket::new(
            RateLimit {
                rate_per_sec: 0.0,
                burst: 0.0,
            },
            base,
        );
        for ms in [0u64, 1000, 1_000_000] {
            assert!(!b.admit_at(at(base, ms)));
        }
    }

    #[test]
    fn zero_rate_tenant_rejects_while_others_proceed() {
        let cfg = QosConfig {
            enabled: true,
            policies: vec![(
                "blocked".into(),
                TenantPolicy {
                    weight: 1,
                    rate: Some(RateLimit {
                        rate_per_sec: 0.0,
                        burst: 0.0,
                    }),
                },
            )],
            ..Default::default()
        };
        let qos = QosState::new(&cfg);
        let now = Instant::now();
        for _ in 0..10 {
            assert!(matches!(
                qos.admit_at("blocked", now),
                Err(RejectReason::RateLimited)
            ));
            let ok = qos
                .admit_at("free", now)
                .unwrap_or_else(|r| panic!("unlimited tenant must admit, got {r}"));
            QosState::committed(&ok);
        }
        let drain = qos.drain_snapshot();
        assert_eq!(drain.tenants["blocked"].rejected_rate_limited, 10);
        assert_eq!(drain.tenants["blocked"].pending, 0);
        assert_eq!(drain.tenants["free"].rejected(), 0);
        assert_eq!(drain.tenants["free"].pending, 10);
        assert_eq!(drain.total_rejected(), 10);
    }

    #[test]
    fn backlog_cap_sheds_and_completions_reopen_admission() {
        let cfg = QosConfig {
            enabled: true,
            max_pending_per_tenant: 3,
            ..Default::default()
        };
        let qos = QosState::new(&cfg);
        let now = Instant::now();
        for _ in 0..3 {
            QosState::committed(&qos.admit_at("whale", now).ok().unwrap());
        }
        assert!(matches!(
            qos.admit_at("whale", now),
            Err(RejectReason::Backlogged)
        ));
        // A completion frees a slot.
        qos.complete("whale", Some(Duration::from_micros(250)));
        QosState::committed(&qos.admit_at("whale", now).ok().unwrap());
        let snap = qos.drain_snapshot();
        let whale = &snap.tenants["whale"];
        assert_eq!(whale.submitted, 5);
        assert_eq!(whale.rejected_backlogged, 1);
        assert_eq!(whale.processed, 1);
        assert_eq!(whale.pending, 3);
        assert_eq!(whale.latency.count, 1);
    }

    #[test]
    fn set_policy_swaps_weight_and_bucket_live() {
        let qos = QosState::new(&QosConfig::enabled());
        let now = Instant::now();
        QosState::committed(&qos.admit_at("t", now).ok().unwrap());
        assert_eq!(qos.weight_of("t"), 1);
        qos.set_policy(
            "t",
            TenantPolicy {
                weight: 4,
                rate: Some(RateLimit {
                    rate_per_sec: 0.0,
                    burst: 0.0,
                }),
            },
        );
        assert_eq!(qos.weight_of("t"), 4);
        assert!(matches!(
            qos.admit_at("t", now),
            Err(RejectReason::RateLimited)
        ));
        assert_eq!(
            qos.policies(),
            vec![(
                "t".to_string(),
                TenantPolicy {
                    weight: 4,
                    rate: Some(RateLimit {
                        rate_per_sec: 0.0,
                        burst: 0.0,
                    }),
                }
            )]
        );
    }

    #[test]
    fn drr_round_robins_equal_weights() {
        let mut s: DrrScheduler<u32> = DrrScheduler::new(2);
        for i in 0..6u32 {
            s.enqueue("a", 1, i);
            s.enqueue("b", 1, 100 + i);
        }
        // quantum 2: two from a, two from b, alternating.
        assert_eq!(s.dequeue_chunk(8), vec![0, 1, 100, 101, 2, 3, 102, 103]);
        assert_eq!(s.len(), 4);
        assert_eq!(s.dequeue_chunk(100), vec![4, 5, 104, 105]);
        assert!(s.is_empty());
    }

    #[test]
    fn drr_chunk_cutoff_resumes_without_double_credit() {
        let mut s: DrrScheduler<u32> = DrrScheduler::new(4);
        for i in 0..8u32 {
            s.enqueue("a", 1, i);
            s.enqueue("b", 1, 100 + i);
        }
        // Chunk of 2 cuts tenant a off mid-credit; the next chunks must
        // finish a's round (2 more) before b's turn — not re-credit a.
        assert_eq!(s.dequeue_chunk(2), vec![0, 1]);
        assert_eq!(s.dequeue_chunk(2), vec![2, 3]);
        assert_eq!(s.dequeue_chunk(2), vec![100, 101]);
        assert_eq!(s.dequeue_chunk(2), vec![102, 103]);
        assert_eq!(s.dequeue_chunk(2), vec![4, 5]);
    }

    #[test]
    fn drr_idle_tenant_forfeits_credit() {
        let mut s: DrrScheduler<u32> = DrrScheduler::new(8);
        s.enqueue("a", 1, 0);
        for i in 0..8u32 {
            s.enqueue("b", 1, 100 + i);
        }
        // a empties on its first turn (7 credits unspent, forfeited).
        assert_eq!(
            s.dequeue_chunk(16),
            vec![0, 100, 101, 102, 103, 104, 105, 106, 107]
        );
        // Re-backlogged a starts from zero credit, not 7 + quantum.
        for i in 1..=2u32 {
            s.enqueue("a", 1, i);
        }
        for i in 8..16u32 {
            s.enqueue("b", 1, 100 + i);
        }
        let out = s.dequeue_chunk(10);
        assert_eq!(&out[..2], &[1, 2], "a serves its (whole) backlog first");
    }

    /// Deterministic fairness + FIFO harness used by the property test
    /// below (items carry their tenant + sequence number, so shares and
    /// ordering are countable).
    fn drr_run(
        quantum: u32,
        weights: &[u32],
        order_seed: u64,
        chunk: usize,
    ) -> (Vec<u64>, bool, u64) {
        let n = weights.len();
        let per_tenant = 64usize * quantum as usize;
        let mut s: DrrScheduler<(usize, usize)> = DrrScheduler::new(quantum);
        let mut remaining: Vec<usize> = vec![per_tenant; n];
        let mut seq: Vec<usize> = vec![0; n];
        let mut state = order_seed | 1;
        let mut arrivals = 0usize;
        while arrivals < per_tenant * n {
            state = state
                .wrapping_mul(0x5851_f42d_4c95_7f2d)
                .wrapping_add(0x1405_7b7e_f767_814f);
            let t = (state >> 33) as usize % n;
            if remaining[t] > 0 {
                remaining[t] -= 1;
                s.enqueue(&format!("t{t}"), weights[t], (t, seq[t]));
                seq[t] += 1;
                arrivals += 1;
            }
        }
        let weight_sum: u64 = weights.iter().map(|w| *w as u64).sum();
        // A window every tenant survives: tenant i is dequeued
        // quantum×w_i per round, so `rounds` rounds consume at most
        // rounds×quantum×w_i ≤ per_tenant items from each tenant.
        let max_weight = *weights.iter().max().unwrap() as u64;
        let rounds = (per_tenant as u64 / (quantum as u64 * max_weight)).clamp(2, 16);
        let window = (rounds * quantum as u64 * weight_sum) as usize;
        let mut served: Vec<u64> = vec![0; n];
        let mut next_seq: Vec<usize> = vec![0; n];
        let mut fifo_ok = true;
        let mut drawn = 0usize;
        while drawn < window {
            let take = chunk.min(window - drawn);
            let got = s.dequeue_chunk(take);
            if got.is_empty() {
                break;
            }
            drawn += got.len();
            for (t, sq) in got {
                served[t] += 1;
                fifo_ok &= sq == next_seq[t];
                next_seq[t] = sq + 1;
            }
        }
        (served, fifo_ok, rounds)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// DRR fairness: over random arrival orders, weights, quantum
        /// sizes, and chunk cutoffs, every continuously-backlogged
        /// tenant's dequeue count is exactly `rounds × quantum × weight`
        /// within one round's slack, and per-tenant FIFO never breaks.
        #[test]
        fn drr_fairness_and_fifo(
            quantum in 1u32..9,
            weights in proptest::collection::vec(1u32..5, 2..6),
            order_seed in 0u64..u64::MAX,
            chunk in 1usize..12,
        ) {
            let (served, fifo_ok, rounds) =
                drr_run(quantum, &weights, order_seed, chunk);
            prop_assert!(fifo_ok, "per-tenant FIFO violated");
            for (t, &count) in served.iter().enumerate() {
                let ideal = rounds * quantum as u64 * weights[t] as u64;
                let slack = quantum as u64 * weights[t] as u64; // one round
                prop_assert!(
                    count + slack >= ideal && count <= ideal + slack,
                    "tenant {t} (w={}) served {count}, ideal {ideal} ± {slack}",
                    weights[t]
                );
            }
        }
    }
}
