//! Metric collection, order statistics, and the result documents.

use crate::spec::MetricSpec;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Metrics of one run, by name. A name is recorded once.
#[derive(Debug, Default, Clone)]
pub struct Metrics(BTreeMap<String, f64>);

impl Metrics {
    /// Record `name`; recording a name twice is a bug in the harness.
    pub fn put(&mut self, name: &str, value: f64) {
        let previous = self.0.insert(name.to_string(), value);
        assert!(previous.is_none(), "metric {name} recorded twice");
    }

    /// The recorded value of `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    /// Recorded names, sorted.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.0.keys().map(String::as_str)
    }

    /// The `"metrics"` object for the declared list `specs`: every
    /// declared name exactly once with its unit, and nothing else.
    /// Errors name what is missing, undeclared or not finite.
    pub fn to_json(&self, specs: &[MetricSpec]) -> Result<String, String> {
        let mut out = String::from("{");
        for (i, spec) in specs.iter().enumerate() {
            let value = self
                .get(&spec.name)
                .ok_or_else(|| format!("metric {} was not measured", spec.name))?;
            if !value.is_finite() {
                return Err(format!("metric {} is {value}", spec.name));
            }
            let sep = if i == 0 { "" } else { ", " };
            write!(
                out,
                "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                spec.name, spec.unit
            )
            .expect("writing to a String cannot fail");
        }
        out.push('}');
        if let Some(extra) = self.names().find(|n| !specs.iter().any(|s| s.name == *n)) {
            return Err(format!("metric {extra} is not declared in BENCHMARK.json"));
        }
        Ok(out)
    }
}

/// Median of `values`: the middle one, or the mean of the middle two
/// (0 for an empty slice).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The `q`-quantile of `values` by nearest rank (0 for an empty slice).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((v.len() as f64 * q).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (its default "exclusive" method), so the spreads printed
/// here are the ones the driver computes. Needs two values or more.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// The highest of `q`, p95, p90 and the median that leaves at least ten
/// samples of `n` beyond it.
pub fn supported_quantile(q: f64, n: usize) -> f64 {
    [q, 0.95, 0.90]
        .into_iter()
        .filter(|c| *c <= q)
        .find(|c| (n as f64 * (1.0 - c)).floor() >= 10.0)
        .unwrap_or(0.5)
}

/// The `q`-quantile of a nanosecond sample, in µs, steadied: the sample
/// is cut into `windows` equal runs in sequence order, the quantile of
/// each run is taken (lowered by [`supported_quantile`] when a run is
/// short), and the median run is reported. One stall of the box then
/// moves one window, not the result.
pub fn windowed_quantile_us(samples_by_seq: &[u64], windows: usize, q: f64) -> f64 {
    if samples_by_seq.is_empty() {
        return 0.0;
    }
    let per = samples_by_seq.len().div_ceil(windows.max(1));
    let tails: Vec<f64> = samples_by_seq
        .chunks(per)
        .map(|w| quantile_us(w, supported_quantile(q, w.len())))
        .collect();
    median(&tails)
}

/// The `q`-quantile of a nanosecond sample, in µs.
pub fn quantile_us(samples_ns: &[u64], q: f64) -> f64 {
    let v: Vec<f64> = samples_ns.iter().map(|ns| *ns as f64 / 1e3).collect();
    quantile(&v, q)
}

/// Peak resident set of this process, MB (`VmHWM`), 0 when unreadable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The commit of the checkout the benchmark runs in, or `"unknown"`
/// outside a git repository.
pub fn commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let hash = match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}")).unwrap_or_default(),
        None => head.to_string(),
    };
    let hash = hash.trim();
    if hash.is_empty() {
        "unknown".to_string()
    } else {
        hash.to_string()
    }
}
