//! `compare <dirA> <dirB>`: one row per (workload, end-to-end metric).
//!
//! A directory holds result files `<workload>.json`, directly or one
//! level down (one sub-directory per set of runs). All samples of a side
//! are pooled: the value compared is their median, and with four or more
//! samples the distance between their quartiles, as a share of the
//! median, is the side's spread.

use crate::report::{median, quartiles};
use crate::spec::Spec;
use serde::json;
use std::path::Path;

/// Read the value of every end-to-end metric in one result file.
fn read_metrics(path: &Path) -> Option<Vec<(String, f64)>> {
    let doc = json::parse(&std::fs::read_to_string(path).ok()?).ok()?;
    let metrics = doc.field("metrics").ok()?.as_object().ok()?;
    metrics
        .iter()
        .map(|(name, m)| {
            Some((
                name.clone(),
                m.field("value").ok()?.as_number().ok()?.parse().ok()?,
            ))
        })
        .collect()
}

/// Every sample of `metric` for `workload` under `dir`.
fn samples(dir: &Path, workload: &str, metric: &str) -> Vec<f64> {
    let file = format!("{workload}.json");
    let mut files = vec![dir.join(&file)];
    if let Ok(entries) = std::fs::read_dir(dir) {
        let mut subs: Vec<_> = entries.flatten().map(|e| e.path().join(&file)).collect();
        subs.sort();
        files.extend(subs);
    }
    files
        .iter()
        .filter_map(|f| read_metrics(f))
        .filter_map(|m| m.into_iter().find(|(n, _)| n == metric).map(|(_, v)| v))
        .collect()
}

fn spread(values: &[f64]) -> Option<f64> {
    if values.len() < 4 {
        return None;
    }
    let (q1, q3) = quartiles(values)?;
    Some((q3 - q1) / median(values).abs().max(f64::MIN_POSITIVE))
}

/// Print the comparison table; returns whether any row regressed.
pub fn compare(spec: &Spec, a: &Path, b: &Path) -> bool {
    println!(
        "{:<16} {:<16} {:>14} {:>14} {:>9} {:>7} {:>8}  verdict",
        "workload", "metric", "A (base)", "B", "B/A", "bound", "spread"
    );
    let mut regressed = false;
    for workload in &spec.workloads {
        for metric in &spec.end_to_end {
            let (va, vb) = (
                samples(a, workload, &metric.name),
                samples(b, workload, &metric.name),
            );
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let (ma, mb) = (median(&va), median(&vb));
            let bound = metric.bound.unwrap_or(0.0);
            // Worsening as a share of the base, whichever way is worse.
            let worse = if metric.higher_is_better {
                ma - mb
            } else {
                mb - ma
            } / ma.abs().max(f64::MIN_POSITIVE);
            let widest = spread(&va)
                .into_iter()
                .chain(spread(&vb))
                .fold(None, |w: Option<f64>, s| Some(w.map_or(s, |w| w.max(s))));
            let verdict = if worse > bound {
                regressed = true;
                "regressed"
            } else if widest.is_some_and(|s| s > bound) {
                "unresolved"
            } else {
                "ok"
            };
            println!(
                "{:<16} {:<16} {:>14.4} {:>14.4} {:>9.4} {:>7.2} {:>8}  {verdict}",
                workload,
                metric.name,
                ma,
                mb,
                mb / ma,
                bound,
                widest.map_or("-".to_string(), |s| format!("{s:.3}")),
            );
        }
    }
    regressed
}
