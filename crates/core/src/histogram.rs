//! Lock-free fixed-bucket latency histograms for the serving path.
//!
//! HDR-histogram-style bucketing without the dependency: values (in
//! microseconds) land in power-of-two ranges subdivided into linear
//! sub-buckets, so relative quantile error is bounded by 1/16 (~6%)
//! across nine decades while the whole
//! table stays a flat array of atomics. Recording is a single
//! `fetch_add` — shard workers on the hot path share one histogram per
//! app with no locking — and reading is a consistent-enough sweep of
//! relaxed loads (quantiles over a live histogram are approximate by
//! nature; exact numbers come from [`LatencyHistogram::snapshot`] after
//! [`crate::service::WorkloadManager::drain`] has joined the workers).

use std::sync::atomic::{AtomicU64, Ordering};

/// Linear region size: values below this (µs) get a bucket each. Each
/// power-of-two range above it is subdivided into `SUB_BUCKETS / 2`
/// linear sub-buckets, bounding relative error at 1/16 ≈ 6%.
const SUB_BUCKETS: usize = 32;
const SUB_BITS: u32 = 5; // log2(SUB_BUCKETS)
const HALF: usize = SUB_BUCKETS / 2;
/// Power-of-two ranges tracked above the linear region; values cap at
/// 2^(SUB_BITS + RANGES) − 1 µs ≈ 17 minutes.
const RANGES: u32 = 25;
const BUCKETS: usize = SUB_BUCKETS + RANGES as usize * HALF;
const MAX_TRACKED_US: u64 = (1 << (SUB_BITS + RANGES)) - 1;

/// Bucket index of `value` (µs): values below [`SUB_BUCKETS`] map
/// linearly; larger values map to (octave, sub-bucket) pairs.
fn bucket_of(value: u64) -> usize {
    let value = value.min(MAX_TRACKED_US);
    if value < SUB_BUCKETS as u64 {
        return value as usize;
    }
    let msb = 63 - value.leading_zeros(); // ≥ SUB_BITS here
    let octave = msb - SUB_BITS + 1; // 1..=RANGES after the cap
    let sub = ((value >> octave) & (HALF as u64 - 1)) as usize;
    SUB_BUCKETS + (octave as usize - 1) * HALF + sub
}

/// Lower bound (µs) of bucket `i` — the value reported for quantiles
/// that land in it.
fn bucket_floor(i: usize) -> u64 {
    if i < SUB_BUCKETS {
        return i as u64;
    }
    let past = i - SUB_BUCKETS;
    let octave = (past / HALF) as u32 + 1;
    let sub = (past % HALF) as u64;
    (1u64 << (octave + SUB_BITS - 1)) + (sub << octave)
}

/// A concurrent fixed-memory latency histogram (microsecond domain).
///
/// ```
/// use querc::histogram::LatencyHistogram;
///
/// let h = LatencyHistogram::new();
/// for us in [100, 200, 300, 400, 1000] {
///     h.record_us(us);
/// }
/// let snap = h.snapshot();
/// assert_eq!(snap.count, 5);
/// assert!(snap.p50_us >= 200 && snap.p50_us <= 320);
/// assert!(snap.max_us >= 1000);
/// ```
#[derive(Debug)]
pub struct LatencyHistogram {
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum_us: AtomicU64,
    max_us: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram::new()
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> LatencyHistogram {
        LatencyHistogram {
            buckets: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum_us: AtomicU64::new(0),
            max_us: AtomicU64::new(0),
        }
    }

    /// Record one latency observation, in microseconds.
    pub fn record_us(&self, us: u64) {
        self.buckets[bucket_of(us)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_us.fetch_add(us, Ordering::Relaxed);
        self.max_us.fetch_max(us, Ordering::Relaxed);
    }

    /// Record one latency observation from a [`std::time::Duration`].
    pub fn record(&self, elapsed: std::time::Duration) {
        self.record_us(elapsed.as_micros().min(u64::MAX as u128) as u64);
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Approximate value (µs, bucket floor) at quantile `q` ∈ [0, 1].
    /// Returns 0 for an empty histogram.
    pub fn quantile_us(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= rank {
                return bucket_floor(i);
            }
        }
        self.max_us.load(Ordering::Relaxed)
    }

    /// A point-in-time summary of the distribution.
    pub fn snapshot(&self) -> LatencySnapshot {
        let count = self.count();
        LatencySnapshot {
            count,
            p50_us: self.quantile_us(0.50),
            p95_us: self.quantile_us(0.95),
            p99_us: self.quantile_us(0.99),
            max_us: self.max_us.load(Ordering::Relaxed),
            mean_us: self
                .sum_us
                .load(Ordering::Relaxed)
                .checked_div(count)
                .unwrap_or(0),
        }
    }
}

/// Summary quantiles of a [`LatencyHistogram`] (all microseconds).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LatencySnapshot {
    /// Observations recorded.
    pub count: u64,
    /// Median latency.
    pub p50_us: u64,
    /// 95th-percentile latency.
    pub p95_us: u64,
    /// 99th-percentile latency.
    pub p99_us: u64,
    /// Largest observation (exact, not bucketed).
    pub max_us: u64,
    /// Arithmetic mean (exact sum / count).
    pub mean_us: u64,
}

impl LatencySnapshot {
    /// Render as `p50=…µs p95=…µs p99=…µs max=…µs` for log lines and the
    /// load-test table.
    pub fn display(&self) -> String {
        format!(
            "p50={}µs p95={}µs p99={}µs max={}µs (n={})",
            self.p50_us, self.p95_us, self.p99_us, self.max_us, self.count
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_monotone_and_cover_the_domain() {
        let mut last = 0usize;
        let mut v = 1u64;
        while v < (1 << 40) {
            let b = bucket_of(v);
            assert!(b >= last, "bucket_of must be monotone at {v}");
            assert!(b < BUCKETS, "bucket_of out of range at {v}");
            // The bucket's floor never exceeds the value it indexes.
            assert!(bucket_floor(b) <= v, "floor({b})={} > {v}", bucket_floor(b));
            last = b;
            v = v * 3 / 2 + 1;
        }
    }

    #[test]
    fn relative_error_is_bounded() {
        for v in [10u64, 100, 1_000, 10_000, 100_000, 1_000_000, 50_000_000] {
            let floor = bucket_floor(bucket_of(v));
            assert!(floor <= v);
            assert!(
                (v - floor) as f64 <= v as f64 / 8.0 + 1.0,
                "bucket floor {floor} too far below {v}"
            );
        }
    }

    #[test]
    fn quantiles_of_a_uniform_ramp() {
        let h = LatencyHistogram::new();
        for us in 1..=1000u64 {
            h.record_us(us);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count, 1000);
        assert!((450..=520).contains(&snap.p50_us), "p50={}", snap.p50_us);
        assert!((850..=960).contains(&snap.p95_us), "p95={}", snap.p95_us);
        assert!((900..=1000).contains(&snap.p99_us), "p99={}", snap.p99_us);
        assert_eq!(snap.max_us, 1000);
        assert_eq!(snap.mean_us, 500);
    }

    #[test]
    fn empty_histogram_reports_zeros() {
        let h = LatencyHistogram::new();
        assert_eq!(h.snapshot(), LatencySnapshot::default());
    }

    #[test]
    fn concurrent_recording_is_lossless() {
        let h = std::sync::Arc::new(LatencyHistogram::new());
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let h = std::sync::Arc::clone(&h);
                std::thread::spawn(move || {
                    for i in 0..1000u64 {
                        h.record_us(t * 1000 + i);
                    }
                })
            })
            .collect();
        for handle in handles {
            handle.join().unwrap();
        }
        assert_eq!(h.count(), 4000);
    }
}
