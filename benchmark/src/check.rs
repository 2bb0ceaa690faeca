//! Correctness: a single-threaded reference pass, the comparison of every
//! served output against it, accounting identities, and label accuracy
//! against the ground truth in the held-out records.

use crate::probe::SEQ_LABEL;
use crate::serve::{Arrivals, Served};
use crate::stack::{Inputs, Stack, KNN_LABEL};
use querc::apps::resources::ResourceBuckets;
use querc::{EnrichedQuery, LabeledQuery, Result};
use querc_workloads::QueryRecord;
use std::collections::BTreeMap;

type Labels = Vec<(String, String)>;

/// What every app (and the kNN classifier) must attach to each replay
/// record, computed by calling `FittedApp::label_batch` directly.
pub struct Reference {
    /// `apps[a][r]`: labels app `a` attaches to replay record `r`.
    pub apps: Vec<Vec<Labels>>,
    /// `knn[r]`: the `predicted_account` of replay record `r`.
    pub knn: Option<Vec<String>>,
}

/// Label every replay record once, on the calling thread.
pub fn reference(stack: &Stack, inputs: &Inputs) -> Result<Reference> {
    let mut apps: Vec<Vec<Labels>> =
        vec![Vec::with_capacity(inputs.replay.len()); stack.fitted.len()];
    let mut knn = stack.knn.as_ref().map(|_| Vec::new());
    // An unprobed classifier over the same rows: the reference must not
    // feed the instruments.
    let classifier = match &stack.knn {
        Some(rows) => Some(rows.classifier(&stack.embedder, false)?),
        None => None,
    };
    for records in inputs.replay.chunks(crate::spec::SUBMIT_CHUNK) {
        let mut chunk: Vec<EnrichedQuery> = records
            .iter()
            .map(|r| EnrichedQuery::new(LabeledQuery::from_record(r)))
            .collect();
        let vectors = EnrichedQuery::vectors_memo(&mut chunk, stack.embedder.as_ref());
        for (fitted, out) in stack.fitted.iter().zip(&mut apps) {
            out.extend(fitted.label_batch(&chunk)?.into_iter().map(|o| o.labels));
        }
        if let (Some(clf), Some(out)) = (&classifier, &mut knn) {
            out.extend(clf.label_vectors_batch(&vectors));
        }
    }
    Ok(Reference { apps, knn })
}

/// Result of checking one section.
#[derive(Debug, Default, Clone)]
pub struct Verdict {
    /// Labelings offered.
    pub attempted: u64,
    /// Labelings refused as the workload designs (rate-limited tenants).
    pub shed: u64,
    /// Labelings that errored, went missing, were refused without the
    /// workload designing it, or came back with a wrong label.
    pub failed: u64,
    /// First few problems, for the log.
    pub problems: Vec<String>,
}

impl Verdict {
    fn fail(&mut self, n: u64, what: impl FnOnce() -> String) {
        if n > 0 {
            self.failed += n;
            if self.problems.len() < 8 {
                self.problems.push(what());
            }
        }
    }

    /// Fold another section's verdict into this one.
    pub fn absorb(&mut self, other: Verdict) {
        self.attempted += other.attempted;
        self.shed += other.shed;
        self.failed += other.failed;
        self.problems.extend(other.problems);
        self.problems.truncate(8);
    }
}

/// Check a served section: every output equals the reference, outputs
/// returned == offered − refused, and refusals are the designed ones.
/// `limit_per_tenant` is the section's per-tenant labeling rate limit,
/// if it has one.
pub fn verify(
    stack: &Stack,
    served: &Served,
    arrivals: &Arrivals,
    reference: &Reference,
    limit_per_tenant: Option<f64>,
) -> Verdict {
    let mut v = Verdict {
        attempted: served.offered.offered,
        ..Default::default()
    };
    v.fail(served.offered.errored, || {
        format!("{} submits errored", served.offered.errored)
    });
    let n = arrivals.queries.len() as u64;
    for (ai, fitted) in stack.fitted.iter().enumerate() {
        let name = fitted.name();
        let refused = served.offered.rejected.iter().filter(|r| r.1 == ai).count() as u64;
        // Warm-up arrivals carry no sequence id and are not part of the
        // section.
        let outputs: Vec<&LabeledQuery> = served
            .drained
            .outputs
            .get(name)
            .map_or(&[][..], |o| &o[..])
            .iter()
            .filter(|o| o.get(SEQ_LABEL).is_some())
            .collect();
        let expected = n.saturating_sub(refused);
        v.fail(expected.abs_diff(outputs.len() as u64), || {
            format!("{name}: {} outputs, expected {expected}", outputs.len())
        });
        let mut wrong = 0u64;
        for out in &outputs {
            let rec = out
                .get(SEQ_LABEL)
                .and_then(|s| s.parse::<usize>().ok())
                .map(|seq| seq % arrivals.pool);
            let ok = rec.is_some_and(|rec| {
                reference.apps[ai][rec]
                    .iter()
                    .all(|(k, want)| out.get(k) == Some(want.as_str()))
                    && reference.knn.as_ref().is_none_or(|knn| {
                        out.get(&format!("predicted_{KNN_LABEL}")) == Some(knn[rec].as_str())
                    })
            });
            wrong += u64::from(!ok);
        }
        v.fail(wrong, || {
            format!("{name}: {wrong} outputs differ from the reference")
        });
    }

    let refused = served.offered.rejected.len() as u64;
    match limit_per_tenant {
        None => v.fail(refused, || {
            format!("{refused} labelings refused with no limit set")
        }),
        Some(limit) => {
            v.shed = refused;
            let undesigned = undesigned_sheds(served, arrivals, limit, stack.fitted.len());
            v.shed -= undesigned.min(refused);
            v.fail(undesigned, || {
                format!("{undesigned} sheds hit under-limit tenants or were not rate-limit sheds")
            });
        }
    }
    for (tenant, t) in &served.drained.qos.tenants {
        let balanced = t.submitted == t.processed + t.rejected();
        v.fail(u64::from(!balanced), || {
            format!(
                "{tenant}: submitted {} != processed {} + rejected {}",
                t.submitted,
                t.processed,
                t.rejected()
            )
        });
    }
    v
}

/// Offered labelings per second, by tenant, over the section's schedule.
pub fn offered_rates(arrivals: &Arrivals, apps: usize) -> BTreeMap<&str, f64> {
    let span_s = arrivals
        .due_ns
        .last()
        .map_or(1.0, |d| (*d as f64 / 1e9).max(1e-9));
    let mut rates: BTreeMap<&str, f64> = BTreeMap::new();
    for t in &arrivals.tenants {
        *rates.entry(t.as_str()).or_insert(0.0) += apps as f64 / span_s;
    }
    rates
}

/// A tenant offering less than this share of its limit must never shed;
/// one offering more than the limit is expected to. Tenants in between
/// sit too close to the bucket's edge to assert either way.
pub const UNDER_LIMIT: f64 = 0.5;

/// Sheds the workload does not design: any shed of a tenant offering
/// under [`UNDER_LIMIT`] of its limit, and any shed that is not a
/// rate-limit shed (backlog cap, full shard queue).
fn undesigned_sheds(served: &Served, arrivals: &Arrivals, limit: f64, apps: usize) -> u64 {
    let rates = offered_rates(arrivals, apps);
    served
        .drained
        .qos
        .tenants
        .iter()
        .map(|(tenant, t)| {
            let under = rates.get(tenant.as_str()).copied().unwrap_or(0.0) < UNDER_LIMIT * limit;
            t.rejected_backlogged
                + t.rejected_shard_full
                + if under { t.rejected_rate_limited } else { 0 }
        })
        .sum()
}

/// Mean accuracy over the labels that have ground truth in the held-out
/// records: `predicted_user`, `predicted_cluster`, `error_risky`,
/// `resource_class`, and the kNN classifier's `predicted_account`.
/// Deterministic for a seed: it is computed on the reference labels.
pub fn label_accuracy(reference: &Reference, replay: &[QueryRecord]) -> f64 {
    let buckets = ResourceBuckets::default();
    let truth = |label: &str, r: &QueryRecord| -> Option<String> {
        Some(match label {
            "predicted_user" => r.user.clone(),
            "predicted_cluster" => r.cluster.clone(),
            "error_risky" => r.is_error().to_string(),
            "resource_class" => buckets.classify(r.runtime_ms).name().to_string(),
            _ => return None,
        })
    };
    // (hits, total) per label, so every label weighs the same.
    let mut scores: BTreeMap<String, (u64, u64)> = BTreeMap::new();
    for per_record in &reference.apps {
        for (labels, record) in per_record.iter().zip(replay) {
            for (name, value) in labels {
                if let Some(want) = truth(name, record) {
                    let s = scores.entry(name.clone()).or_default();
                    s.0 += u64::from(*value == want);
                    s.1 += 1;
                }
            }
        }
    }
    if let Some(knn) = &reference.knn {
        let hits = knn
            .iter()
            .zip(replay)
            .filter(|(p, r)| **p == r.account)
            .count();
        scores.insert(KNN_LABEL.to_string(), (hits as u64, knn.len() as u64));
    }
    let per_label: Vec<f64> = scores
        .values()
        .filter(|s| s.1 > 0)
        .map(|s| s.0 as f64 / s.1 as f64)
        .collect();
    per_label.iter().sum::<f64>() / per_label.len().max(1) as f64
}
