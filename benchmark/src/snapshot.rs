//! The persistence section: checkpoint and delta of the workload's warm
//! manager, timed from outside, and the restore of a reduced stack with
//! the probe queries that must label identically before and after it.

use crate::probe::SEQ_LABEL;
use crate::spec::{RESTORE_PROBES, SUBMIT_CHUNK};
use crate::stack::{wait_idle, Inputs, Stack};
use crate::trace::{self, NO_QUERY};
use querc::{LabeledQuery, QuercError, Result, WorkloadManager};
use querc_persist::{Snapshot, SnapshotReader};
use std::collections::{BTreeMap, HashSet};
use std::path::Path;
use std::time::Instant;

/// What the persistence section measured.
#[derive(Debug, Default, Clone)]
pub struct Persisted {
    /// `WorkloadManager::checkpoint`, each repeat.
    pub checkpoint_s: Vec<f64>,
    /// `checkpoint_delta` after a batch of fresh templates, each repeat.
    pub delta_s: Vec<f64>,
    /// Size of the full snapshot file, before any delta.
    pub snapshot_bytes: u64,
    /// Payload bytes per section name of the final file (deltas included).
    pub section_bytes: BTreeMap<String, u64>,
    /// Vectors in the cache when the full snapshot was written.
    pub cached_vectors: u64,
    /// `Snapshot::write_to` of the same sections, each repeat.
    pub container_write_s: Vec<f64>,
    /// `SnapshotReader::open` of the final file, each repeat.
    pub container_read_s: Vec<f64>,
}

/// What [`restore_small`] measured.
#[derive(Debug, Default, Clone)]
pub struct Restored {
    /// `WorkloadManager::restore`, each repeat.
    pub restore_s: Vec<f64>,
    /// Size of the reduced snapshot.
    pub snapshot_bytes: u64,
    /// Probe labelings compared across the restore.
    pub probes: u64,
    /// Probe labelings that differed (or went missing).
    pub probe_mismatches: u64,
}

fn io(e: std::io::Error) -> QuercError {
    QuercError::Corrupt {
        detail: format!("benchmark snapshot i/o: {e}"),
    }
}

/// Label the probe queries through every app of `mgr` and return the
/// outputs sorted by `(app, seq)`.
fn label_probes(mgr: WorkloadManager, probes: &[LabeledQuery]) -> Result<Vec<LabeledQuery>> {
    for app in mgr.app_names() {
        for chunk in probes.chunks(SUBMIT_CHUNK) {
            mgr.submit_batch(&app, chunk.iter().cloned())?;
        }
    }
    let seq = |q: &LabeledQuery| q.get(SEQ_LABEL).and_then(|s| s.parse::<u64>().ok());
    // Warm-up arrivals carry no sequence id and are not probes.
    let mut out: Vec<LabeledQuery> = mgr
        .drain()
        .outputs
        .into_values()
        .flatten()
        .filter(|q| seq(q).is_some())
        .collect();
    out.sort_by_key(|q| (q.get("application").map(str::to_string), seq(q)));
    Ok(out)
}

/// Run the section on a fresh, warmed manager. Files live in `dir`.
/// Checkpoints repeat beyond the plan's count while they took less than
/// `repeat_budget_s` in all; `container` adds the timings of the bare
/// container read and write.
pub fn persist_section(
    stack: &Stack,
    inputs: &Inputs,
    dir: &Path,
    repeat_budget_s: f64,
    container: bool,
) -> Result<Persisted> {
    let plan = &stack.plan;
    let path = dir.join(format!("{}-{}.snap", plan.name, std::process::id()));
    let mut p = Persisted::default();
    let mgr = stack.manager(stack.qos())?;
    stack.warm(&mgr, inputs)?;
    p.cached_vectors = mgr.embed_cache_stats().entries;

    // At least `persist_reps` checkpoints, and up to three times as many
    // while they are cheap: a 60 ms write needs more repeats than a
    // 500 ms one for its median to hold still.
    while p.checkpoint_s.len() < plan.persist_reps
        || (p.checkpoint_s.len() < 3 * plan.persist_reps
            && p.checkpoint_s.iter().sum::<f64>() < repeat_budget_s)
    {
        let t = Instant::now();
        {
            let _span = trace::span("persist.checkpoint", NO_QUERY, 0);
            mgr.checkpoint(&path)?;
        }
        p.checkpoint_s.push(t.elapsed().as_secs_f64());
    }
    p.snapshot_bytes = std::fs::metadata(&path).map_err(io)?.len();

    // One delta per checkpoint repeat, each after the same number of
    // never-seen templates, as far as the fresh pool reaches.
    let app = stack.fitted[0].name();
    for batch in inputs
        .fresh
        .chunks_exact(plan.delta_templates.max(1))
        .take(p.checkpoint_s.len())
    {
        mgr.submit_batch(app, batch.iter().map(LabeledQuery::from_record))?;
        wait_idle(&mgr);
        let t = Instant::now();
        {
            let _span = trace::span("persist.checkpoint_delta", NO_QUERY, batch.len() as u32);
            mgr.checkpoint_delta(&path)?;
        }
        p.delta_s.push(t.elapsed().as_secs_f64());
    }
    WorkloadManager::drain(mgr);

    if !container {
        std::fs::remove_file(&path).map_err(io)?;
        return Ok(p);
    }
    // The container alone: the manager's own file read back and the same
    // sections written again, so `checkpoint_s` minus the write is what
    // encoding the sections costs.
    let mut sections: Vec<(String, Vec<u8>)> = Vec::new();
    for _ in 0..plan.persist_reps {
        let t = Instant::now();
        let reader = {
            let _span = trace::span("persist.container_read", NO_QUERY, 0);
            SnapshotReader::open(&path).map_err(QuercError::from)?
        };
        p.container_read_s.push(t.elapsed().as_secs_f64());
        if sections.is_empty() {
            let mut seen = HashSet::new();
            for name in reader.section_names() {
                if seen.insert(name) {
                    for payload in reader.sections(name) {
                        sections.push((name.to_string(), payload.to_vec()));
                    }
                }
            }
        }
    }
    for (name, payload) in &sections {
        *p.section_bytes.entry(name.clone()).or_insert(0) += payload.len() as u64;
    }
    let copy = path.with_extension("copy");
    for _ in 0..plan.persist_reps {
        let mut snap = Snapshot::new();
        for (name, payload) in &sections {
            snap.add_section(name, payload.clone());
        }
        let t = Instant::now();
        {
            let _span = trace::span("persist.container_write", NO_QUERY, 0);
            snap.write_to(&copy).map_err(QuercError::from)?;
        }
        p.container_write_s.push(t.elapsed().as_secs_f64());
    }
    for f in [&path, &copy] {
        std::fs::remove_file(f).map_err(io)?;
    }
    Ok(p)
}

/// Records the reduced stack of [`restore_small`] is fitted on.
const SMALL_TRAIN: usize = 64;
/// Templates cached in the reduced stack's snapshot.
const SMALL_CACHE: usize = 128;

/// Checkpoint and restore a **reduced** stack — `BagOfTokens` and the
/// `resources` app fitted on the first [`SMALL_TRAIN`] training records,
/// [`SMALL_CACHE`] cached templates — and check that the probe queries
/// label identically through the original and the restored manager.
///
/// Reduced, because `WorkloadManager::restore` of any workload's own
/// stack takes minutes at the parent commit: the snapshot sections are
/// JSON, and the JSON string parser re-validates the rest of the
/// document for every character it reads, so restore time grows with
/// the square of a section's size (146 s for `tenant_storm`'s two apps,
/// over ten minutes for a Doc2Vec stack). See `README.md`.
pub fn restore_small(inputs: &Inputs, dir: &Path, reps: usize) -> Result<Restored> {
    let plan = crate::spec::Plan {
        train: SMALL_TRAIN,
        embedder: crate::spec::EmbedderChoice::Bow,
        apps: &["resources"],
        knn_rows: 0,
        tenants: 0,
        cache_capacity: SMALL_CACHE,
        ..crate::spec::plan("serve_warm").expect("serve_warm is a declared workload")
    };
    let small = Inputs {
        train: inputs.train.iter().take(SMALL_TRAIN).cloned().collect(),
        replay: inputs.replay.iter().take(RESTORE_PROBES).cloned().collect(),
        warm: inputs.warm.iter().take(SMALL_CACHE).cloned().collect(),
        fresh: Vec::new(),
        gen_s: 0.0,
        distinct_templates: 0,
    };
    let stack = Stack::build(&plan, &small)?;
    let path = dir.join(format!("small-{}.snap", std::process::id()));
    let mgr = stack.manager(stack.qos())?;
    stack.warm(&mgr, &small)?;
    mgr.checkpoint(&path)?;
    let mut r = Restored {
        snapshot_bytes: std::fs::metadata(&path).map_err(io)?.len(),
        ..Default::default()
    };
    let probes: Vec<LabeledQuery> = small
        .replay
        .iter()
        .enumerate()
        .map(|(seq, record)| {
            let mut lq = LabeledQuery::from_record(record);
            lq.set(SEQ_LABEL, seq.to_string());
            lq
        })
        .collect();
    let before = label_probes(mgr, &probes)?;

    let mut restored = None;
    for _ in 0..reps.max(1) {
        if let Some(previous) = restored.take() {
            WorkloadManager::drain(previous);
        }
        let t = Instant::now();
        let mgr = {
            let _span = trace::span("persist.restore", NO_QUERY, 0);
            WorkloadManager::restore(&path, stack.config(stack.qos()))?
        };
        r.restore_s.push(t.elapsed().as_secs_f64());
        restored = Some(mgr);
    }
    let after = match restored {
        Some(mgr) => label_probes(mgr, &probes)?,
        None => Vec::new(),
    };
    r.probes = before.len() as u64;
    r.probe_mismatches = before.len().abs_diff(after.len()) as u64
        + before.iter().zip(&after).filter(|(a, b)| a != b).count() as u64;
    std::fs::remove_file(&path).map_err(io)?;
    Ok(r)
}
