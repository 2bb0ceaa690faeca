//! One run of one workload: set-up, the serving sections, the persistence
//! section, the checks, and the metrics of either mode.

use crate::check::{self, Reference, Verdict, UNDER_LIMIT};
use crate::report::{self, median, quantile_us, windowed_quantile_us, Metrics};
use crate::serve::{self, Arrivals, Served};
use crate::snapshot::{persist_section, restore_small, Persisted, Restored};
use crate::spec::{Plan, Spec, TENANT_LIMIT_SHARE};
use crate::stack::{limit_tenants, nproc, Inputs, Stack};
use crate::{alloc, layers, trace};
use querc::{EmbedCacheStats, WorkloadManager};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

/// Append one formatted line to a `String` log.
macro_rules! logln {
    ($log:expr, $($arg:tt)*) => {
        writeln!($log, $($arg)*).expect("writing to a String cannot fail")
    };
}

/// Windows a paced section's latencies are cut into for the reported tail.
const TAIL_WINDOWS: usize = 5;
/// Set-ups timed per untraced run (`setup_s` and `fit_s` are their
/// medians): at least three, and up to seven while they are cheap.
const SETUPS: std::ops::RangeInclusive<usize> = 3..=7;
/// Set-up time after which no further set-up is started, as a share of
/// `--seconds` (6 s at the committed 8).
const SETUP_BUDGET_SHARE: f64 = 0.75;
/// Distance between `--seed` and the seeds of the extra set-ups: far
/// enough that runs on neighbouring seeds draw no trace twice.
const SETUP_SEED_STRIDE: u64 = 0x9e37_79b9_7f4a_7c15;
/// Checkpoint time after which no repeat beyond the plan's is started,
/// as a share of `--seconds` (1.5 s at the committed 8).
const CHECKPOINT_BUDGET_SHARE: f64 = 0.1875;
/// Fewest closed-loop passes per mode.
const MIN_PASSES: usize = 3;

/// Command-line options of one run.
#[derive(Debug, Clone)]
pub struct Options {
    /// Workload seed: reaches the input generators only.
    pub seed: u64,
    /// Measured seconds, shared out by [`Plan::serve_share`].
    pub seconds: f64,
    /// Record spans and report per-layer metrics.
    pub traced: bool,
    /// Where result files, the trace and snapshots go.
    pub out_dir: PathBuf,
}

/// What one run produced.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Every check passed.
    pub correct: bool,
    /// Labelings offered in measured sections, plus restore probes.
    pub attempted: u64,
    /// Labelings that failed a check.
    pub failed: u64,
    /// The metrics of the run's mode.
    pub metrics: Metrics,
    /// Human-readable log: section counts and problems.
    pub log: String,
    /// Traced runs: layer self times on the generator thread over its
    /// wall time in the closed-loop passes (1.0 = fully accounted).
    pub generator_self_share: Option<f64>,
}

/// One paced section, summarized.
struct PacedStats {
    rate: f64,
    p50_us: f64,
    p90_us: f64,
    tail_us: f64,
    ok: bool,
    served: Served,
    arrivals: Arrivals,
    cache: EmbedCacheStats,
    index_before: (u64, u64),
}

fn cache_delta(after: &EmbedCacheStats, before: &EmbedCacheStats) -> EmbedCacheStats {
    EmbedCacheStats {
        hits: after.hits - before.hits,
        misses: after.misses - before.misses,
        evictions: after.evictions - before.evictions,
        entries: after.entries,
    }
}

/// `(searches, candidates)` summed over the fitted apps' indexes.
fn app_index_totals(stack: &Stack) -> (u64, u64) {
    stack
        .fitted
        .iter()
        .filter_map(|f| f.index_stats())
        .fold((0, 0), |acc, s| (acc.0 + s.searches, acc.1 + s.candidates))
}

struct Run<'a> {
    plan: &'a Plan,
    opts: &'a Options,
    stack: Stack,
    inputs: Inputs,
    reference: Reference,
    verdict: Verdict,
    log: String,
}

impl Run<'_> {
    fn warm_manager(&self, qos: bool) -> Result<WorkloadManager, String> {
        let mgr = self.stack.manager(qos).map_err(|e| e.to_string())?;
        self.stack
            .warm(&mgr, &self.inputs)
            .map_err(|e| e.to_string())?;
        Ok(mgr)
    }

    fn budget_s(&self) -> f64 {
        self.plan.serve_share * self.opts.seconds
    }

    fn note(&mut self, section: &str, v: &Verdict) {
        logln!(
            self.log,
            "{section}: attempted {} succeeded {} shed {} failed {}",
            v.attempted,
            v.attempted - v.shed - v.failed.min(v.attempted - v.shed),
            v.shed,
            v.failed
        );
        for p in &v.problems {
            logln!(self.log, "  problem: {p}");
        }
    }

    /// Closed-loop passes until the budget is used, at least
    /// [`MIN_PASSES`] per mode. A traced run alternates
    /// untraced and traced passes, so the two medians see the same box.
    /// Returns `(untraced, traced)` passes.
    fn unpaced(
        &mut self,
        first: Option<WorkloadManager>,
        alternate: bool,
    ) -> Result<(Vec<Served>, Vec<Served>), String> {
        let arrivals =
            Arrivals::schedule(&self.inputs.replay, self.plan.pass, 1.0, self.plan.tenants);
        let mut first = first;
        let (mut plain, mut traced) = (Vec::new(), Vec::new());
        let mut measured_s = 0.0;
        let modes = if alternate { 2 } else { 1 };
        while plain.len() < MIN_PASSES
            || traced.len() < MIN_PASSES * (modes - 1)
            || measured_s < self.budget_s() * modes as f64
        {
            let mgr = match first.take() {
                Some(mgr) => mgr,
                None => self.warm_manager(self.stack.qos())?,
            };
            let tracing = alternate && plain.len() > traced.len();
            trace::set_tracing(tracing);
            let mut served = serve::unpaced_pass(&self.stack, mgr, &arrivals);
            trace::set_tracing(false);
            measured_s += served.wall_s;
            let v = check::verify(&self.stack, &served, &arrivals, &self.reference, None);
            served.release_outputs();
            self.note(
                if tracing {
                    "unpaced (traced)"
                } else {
                    "unpaced"
                },
                &v,
            );
            self.verdict.absorb(v);
            if tracing {
                traced.push(served);
            } else {
                plain.push(served);
            }
        }
        Ok((plain, traced))
    }

    /// One open-loop section at `rate`, `seconds` of schedule long.
    fn paced(&mut self, rate: f64, seconds: f64, tracing: bool) -> Result<PacedStats, String> {
        let apps = self.stack.fitted.len();
        let n = ((rate * seconds).ceil() as usize).max(16);
        let arrivals = Arrivals::schedule(&self.inputs.replay, n, rate, self.plan.tenants);
        let limit = (self.plan.tenants > 0).then_some(TENANT_LIMIT_SHARE * rate * apps as f64);
        let mgr = self.warm_manager(self.stack.qos())?;
        if let Some(limit) = limit {
            let tenants: std::collections::BTreeSet<&str> =
                arrivals.tenants.iter().map(String::as_str).collect();
            limit_tenants(&mgr, tenants, limit);
        }
        let cache_before = mgr.embed_cache_stats();
        let index_before = app_index_totals(&self.stack);
        trace::set_tracing(tracing);
        let mut served = serve::paced(&self.stack, mgr, &arrivals);
        trace::set_tracing(false);
        let v = check::verify(&self.stack, &served, &arrivals, &self.reference, limit);
        served.release_outputs();

        let mut lat = serve::latencies(&served, &arrivals);
        lat.sort_unstable();
        let by_seq: Vec<u64> = lat.iter().map(|l| l.1).collect();
        let quarter = (by_seq.len() / 4).max(1);
        let head = quantile_us(&by_seq[..quarter.min(by_seq.len())], 0.5);
        let tail = quantile_us(&by_seq[by_seq.len().saturating_sub(quarter)..], 0.5);
        let schedule_s = arrivals.due_ns.last().map_or(0.0, |d| *d as f64 / 1e9);
        let p50_us = quantile_us(&by_seq, 0.5);
        let p90_us = windowed_quantile_us(&by_seq, TAIL_WINDOWS, 0.90);
        let tail_us = windowed_quantile_us(&by_seq, TAIL_WINDOWS, 0.99);
        let growing = tail > 2.0 * head;
        let on_schedule = served.generator_done_s <= schedule_s * 1.01 + 0.002;
        let ok = tail_us <= self.plan.p99_limit_us && v.failed == 0 && !growing && on_schedule;
        logln!(
            self.log,
            "paced {rate:.0}/s: {} latencies, p50 {p50_us:.1} us, p90 {p90_us:.1} us and p99 {tail_us:.1} us \
             (medians of {TAIL_WINDOWS} windows), whole-section p99 {:.1} us, first/last quarter median \
             {head:.1}/{tail:.1} us, generator done {:.3}s of {schedule_s:.3}s, late share {:.4}, rate ok: {ok}",
            by_seq.len(),
            quantile_us(&by_seq, report::supported_quantile(0.99, by_seq.len())),
            served.generator_done_s,
            serve::late_share(&served.offered.lag_ns),
        );
        self.note(&format!("paced {rate:.0}/s"), &v);
        self.verdict.absorb(v);
        Ok(PacedStats {
            rate,
            p50_us,
            p90_us,
            tail_us,
            ok,
            cache: cache_delta(&served.drained.embed_cache, &cache_before),
            index_before,
            served,
            arrivals,
        })
    }
}

fn served_qps(passes: &[Served]) -> f64 {
    let qps: Vec<f64> = passes
        .iter()
        .map(|s| s.returned as f64 / s.wall_s.max(1e-9))
        .collect();
    median(&qps)
}

/// Run `plan` once. `Err` is a harness failure (nothing was measured);
/// a failed check comes back as `correct: false`.
pub fn run(plan: &Plan, spec: &Spec, opts: &Options) -> Result<Outcome, String> {
    std::fs::create_dir_all(&opts.out_dir)
        .map_err(|e| format!("{}: {e}", opts.out_dir.display()))?;
    let mut m = Metrics::default();

    // Set-up, several times over in an untraced run: its cost is an
    // end-to-end metric of its own, so it has to be steady. A fit's time
    // follows its trace (±15% from one seed to the next, ±2% on one
    // seed), so the extra set-ups each draw a trace of their own from a
    // seed derived from `--seed` and are dropped once timed; the last
    // set-up is on `--seed` itself and is the one served.
    let (mut setup_s, mut fit_s) = (Vec::new(), Vec::new());
    let mut set_up = |seed: u64| -> Result<(Inputs, Stack, WorkloadManager), String> {
        let t = Instant::now();
        let inputs = Inputs::generate(plan, seed);
        let stack = Stack::build(plan, &inputs).map_err(|e| e.to_string())?;
        let mgr = stack.manager(stack.qos()).map_err(|e| e.to_string())?;
        stack.warm(&mgr, &inputs).map_err(|e| e.to_string())?;
        setup_s.push(t.elapsed().as_secs_f64());
        fit_s.push(stack.times.total_s());
        Ok((inputs, stack, mgr))
    };
    let (mut extra, mut extra_s) = (0, 0.0);
    // `extra_s / extra` stands for the last set-up, which is still to come.
    while !opts.traced
        && (extra + 1 < *SETUPS.start()
            || (extra + 1 < *SETUPS.end()
                && extra_s + extra_s / (extra as f64) < SETUP_BUDGET_SHARE * opts.seconds))
    {
        extra += 1;
        let t = Instant::now();
        let (_, _, mgr) = set_up(
            opts.seed
                .wrapping_add(SETUP_SEED_STRIDE.wrapping_mul(extra as u64)),
        )?;
        WorkloadManager::drain(mgr);
        extra_s += t.elapsed().as_secs_f64();
    }
    let (inputs, stack, first_mgr) = set_up(opts.seed)?;
    let phase = Instant::now();
    let reference = check::reference(&stack, &inputs).map_err(|e| e.to_string())?;
    let accuracy = check::label_accuracy(&reference, &inputs.replay);
    let mut run = Run {
        plan,
        opts,
        stack,
        inputs,
        reference,
        verdict: Verdict::default(),
        log: String::new(),
    };
    logln!(
        run.log,
        "{} seed {} seconds {} traced {} | nproc {} kernel {} training_threads {} shards_per_app {} \
         commit {} | train {} replay {} ({} templates) warm {} fresh {}",
        plan.name,
        opts.seed,
        opts.seconds,
        opts.traced,
        nproc(),
        querc_linalg::kernel::kernel_name(),
        run.stack.training_threads,
        run.stack.shards_per_app,
        report::commit(),
        run.inputs.train.len(),
        run.inputs.replay.len(),
        run.inputs.distinct_templates,
        run.inputs.warm.len(),
        run.inputs.fresh.len(),
    );

    let mut phases = format!("phases: set-up {:.1}s", setup_s.iter().sum::<f64>());
    let mut lap = |name: &str, since: &mut f64| {
        let now = phase.elapsed().as_secs_f64();
        write!(phases, ", {name} {:.1}s", now - *since).expect("writing to a String cannot fail");
        *since = now;
    };
    let mut since = 0.0;
    lap("reference", &mut since);

    // Serving: closed loop, then open loop at lo/mid/hi.
    let (plain, traced_passes) = run.unpaced(Some(first_mgr), opts.traced)?;
    let unpaced_spans = trace::collect();
    lap("unpaced", &mut since);
    // The end-to-end latencies are those at `mid`, so an untraced run
    // spends the whole open-loop time there; a traced run needs all
    // three rates for `service.max_rate_ok_qps`.
    let budget = run.budget_s();
    let mut paced = Vec::new();
    if opts.traced {
        for (i, rate) in plan.rates.into_iter().enumerate() {
            paced.push(run.paced(rate, budget, i == 1)?);
        }
    } else {
        paced.push(run.paced(plan.rates[1], 3.0 * budget, false)?);
    }
    let mid_spans = trace::collect();
    lap("paced", &mut since);

    // Persistence.
    trace::set_tracing(opts.traced);
    let persisted: Persisted = persist_section(
        &run.stack,
        &run.inputs,
        &opts.out_dir,
        CHECKPOINT_BUDGET_SHARE * opts.seconds,
        opts.traced,
    )
    .map_err(|e| e.to_string())?;
    let restored: Restored = restore_small(
        &run.inputs,
        &opts.out_dir,
        if opts.traced { plan.persist_reps } else { 1 },
    )
    .map_err(|e| e.to_string())?;
    trace::set_tracing(false);
    let persist_spans = trace::collect();
    let probe_verdict = Verdict {
        attempted: restored.probes,
        failed: restored.probe_mismatches,
        problems: if restored.probe_mismatches > 0 {
            vec![format!(
                "{} of {} probe labelings differ after restore",
                restored.probe_mismatches, restored.probes
            )]
        } else {
            Vec::new()
        },
        ..Default::default()
    };
    logln!(
        run.log,
        "persist: checkpoint {:.3?} delta {:.3?} container read {:.3?} write {:.3?} | reduced stack: \
         {} bytes, restore {:.3?}",
        persisted.checkpoint_s,
        persisted.delta_s,
        persisted.container_read_s,
        persisted.container_write_s,
        restored.snapshot_bytes,
        restored.restore_s
    );
    run.note("restore probes", &probe_verdict);
    run.verdict.absorb(probe_verdict);
    lap("persist", &mut since);

    let generator_self_share = generator_self_share(&unpaced_spans);
    if opts.traced {
        let measured = Measured {
            plain: &plain,
            traced: &traced_passes,
            paced: &paced,
            persisted: &persisted,
            restored: &restored,
            mid_spans: &mid_spans,
        };
        per_layer(&mut m, &run, &measured)?;
        let mut spans = unpaced_spans;
        spans.extend(mid_spans);
        spans.extend(persist_spans);
        let path = opts.out_dir.join(format!("trace-{}.jsonl", plan.name));
        trace::write_jsonl(&path, &spans).map_err(|e| format!("{}: {e}", path.display()))?;
    } else {
        m.put("setup_s", median(&setup_s));
        m.put("served_qps", served_qps(&plain));
        m.put("lat_mid_p50_us", paced[0].p50_us);
        m.put("label_accuracy", accuracy);
        m.put("fit_s", median(&fit_s));
        m.put("checkpoint_s", median(&persisted.checkpoint_s));
        m.put("delta_s", median(&persisted.delta_s));
        m.put("snapshot_bytes", persisted.snapshot_bytes as f64);
        m.put("peak_rss_mb", report::peak_rss_mb());
    }

    lap("layers", &mut since);
    logln!(run.log, "{phases}");
    let declared = if opts.traced {
        &spec.per_layer
    } else {
        &spec.end_to_end
    };
    for s in declared {
        if let Some(v) = m.get(&s.name) {
            logln!(run.log, "{:<44} {v:>16.4} {}", s.name, s.unit);
        }
    }
    Ok(Outcome {
        correct: run.verdict.failed == 0,
        attempted: run.verdict.attempted.max(1),
        failed: run.verdict.failed,
        metrics: m,
        log: run.log,
        generator_self_share,
    })
}

/// What a traced run measured, section by section.
struct Measured<'a> {
    /// Untraced closed-loop passes.
    plain: &'a [Served],
    /// Traced closed-loop passes, alternated with the untraced ones.
    traced: &'a [Served],
    /// Open-loop sections at `lo/mid/hi`.
    paced: &'a [PacedStats],
    persisted: &'a Persisted,
    restored: &'a Restored,
    /// Spans of the open-loop `mid` section.
    mid_spans: &'a [trace::Span],
}

/// Everything a traced run reports. Serving counters come from the paced
/// `mid` section unless a metric says otherwise.
fn per_layer(m: &mut Metrics, run: &Run<'_>, measured: &Measured<'_>) -> Result<(), String> {
    let Measured {
        plain,
        traced,
        paced,
        persisted,
        restored,
        mid_spans,
    } = *measured;
    let (stack, inputs, plan) = (&run.stack, &run.inputs, run.plan);
    let (mid, hi) = (&paced[1], &paced[2]);
    let s = &mid.served;
    let secs = |ns: u64| ns as f64 / 1e9;

    m.put("workloads.gen_s", inputs.gen_s);
    m.put(
        "workloads.distinct_templates",
        inputs.distinct_templates as f64,
    );
    m.put(
        "workloads.distinct_tenants",
        mid.arrivals.distinct_tenants() as f64,
    );
    m.put(
        "workloads.gen_lag_p99_us",
        quantile_us(&s.offered.lag_ns, 0.99),
    );
    m.put("workloads.late_share", serve::late_share(&s.offered.lag_ns));

    m.put("embed.infer_calls", s.embed.0 as f64);
    m.put("embed.infer_docs", s.embed.1 as f64);
    m.put("embed.infer_busy_s", secs(s.embed.2));
    m.put("embed.train_s", stack.times.embed_train_s);

    m.put("embed_plane.hits", mid.cache.hits as f64);
    m.put("embed_plane.misses", mid.cache.misses as f64);
    m.put("embed_plane.evictions", mid.cache.evictions as f64);
    m.put("embed_plane.hit_ratio", mid.cache.hit_rate());

    // Generator-thread accounting: a submit span's self time is what the
    // service did at ingress besides inference (lex, fingerprint, cache
    // lookup, routing, admission, send).
    let rolled = trace::rollup(mid_spans);
    let submit = rolled.get("service.submit").copied().unwrap_or_default();
    m.put("service.submit_busy_s", secs(s.offered.submit_busy_ns));
    m.put(
        "service.submit_us_p50",
        quantile_us(&s.offered.submit_ns, 0.5),
    );
    m.put(
        "service.submit_us_p99",
        quantile_us(&s.offered.submit_ns, 0.99),
    );
    m.put("service.ingress_self_s", secs(submit.self_ns));
    m.put("service.drain_s", s.drain_s);
    let busy_share: Vec<f64> = traced
        .iter()
        .map(|p| secs(p.offered.submit_busy_ns) / p.wall_s.max(1e-9))
        .collect();
    m.put("service.generator_busy_share", median(&busy_share));
    m.put(
        "service.trace_overhead_share",
        1.0 - served_qps(traced) / served_qps(plain).max(1e-9),
    );
    m.put("service.lat_mid_p90_us", mid.p90_us);
    m.put("service.lat_mid_p99_us", mid.tail_us);
    m.put("service.lat_hi_p50_us", hi.p50_us);
    m.put("service.lat_hi_p90_us", hi.p90_us);
    m.put("service.lat_hi_p99_us", hi.tail_us);
    m.put(
        "service.max_rate_ok_qps",
        paced
            .iter()
            .filter(|p| p.ok)
            .map(|p| p.rate)
            .fold(0.0, f64::max),
    );

    // Allocations of one more closed-loop pass, counted with tracing off
    // so span buffers are not in the count.
    let arrivals = Arrivals::schedule(&inputs.replay, plan.pass, 1.0, plan.tenants);
    let mgr = run.warm_manager(stack.qos())?;
    let before = alloc::counting(true);
    let pass = serve::unpaced_pass(stack, mgr, &arrivals);
    let after = alloc::counting(false);
    drop(pass);
    let n = arrivals.queries.len().max(1) as f64;
    m.put(
        "service.allocs_per_arrival",
        (after.0 - before.0) as f64 / n,
    );
    m.put(
        "service.alloc_bytes_per_arrival",
        (after.1 - before.1) as f64 / n,
    );

    // QoS: counters of the mid section; the closed-loop cost of having
    // QoS on at all, where the workload has it on.
    let tenants = &s.drained.qos.tenants;
    let sum = |f: fn(&querc::TenantSnapshot) -> u64| tenants.values().map(f).sum::<u64>() as f64;
    m.put("qos.admitted", sum(|t| t.submitted - t.rejected()));
    m.put(
        "qos.rejected_rate_limited",
        sum(|t| t.rejected_rate_limited),
    );
    m.put("qos.rejected_backlogged", sum(|t| t.rejected_backlogged));
    m.put("qos.rejected_shard_full", sum(|t| t.rejected_shard_full));
    let overhead = if plan.tenants > 0 {
        let mut off = Vec::new();
        for _ in 0..MIN_PASSES {
            let mgr = run.warm_manager(false)?;
            off.push(serve::unpaced_pass(stack, mgr, &arrivals));
        }
        1.0 - served_qps(plain) / served_qps(&off).max(1e-9)
    } else {
        0.0
    };
    m.put("qos.overhead_share", overhead);
    m.put("qos.minnow_p99_us", minnow_tail_us(mid, stack.fitted.len()));

    let waits = serve::queue_waits(s);
    m.put("qworker.queue_wait_us_p50", quantile_us(&waits, 0.5));
    m.put("qworker.queue_wait_us_p99", quantile_us(&waits, 0.99));
    let chunks: u64 = s.slots.iter().map(|t| t.chunks).sum();
    let labeled: u64 = s.slots.iter().map(|t| t.queries).sum();
    m.put("qworker.chunks", chunks as f64);
    m.put(
        "qworker.chunk_size_mean",
        labeled as f64 / chunks.max(1) as f64,
    );
    let label_busy: u64 = s.slots.iter().map(|t| t.busy_ns).sum();
    m.put("qworker.shard_busy_s", secs(label_busy + s.knn.2));

    for name in [
        "audit",
        "errors",
        "recommend",
        "resources",
        "routing",
        "summarize",
    ] {
        let slot = stack.slots.iter().position(|(n, _)| *n == name);
        m.put(
            &format!("apps.{name}.label_busy_s"),
            slot.map_or(0.0, |i| secs(s.slots[i].busy_ns)),
        );
        let fit = stack.times.apps.iter().find(|a| a.0 == name);
        m.put(&format!("apps.{name}.fit_s"), fit.map_or(0.0, |a| a.1));
    }
    m.put(
        "apps.label_us_per_query",
        label_busy as f64 / 1e3 / labeled.max(1) as f64,
    );

    m.put("learn.knn_predict_busy_s", secs(s.knn.2));
    m.put(
        "learn.knn_predict_us_per_query",
        s.knn.2 as f64 / 1e3 / s.knn.1.max(1) as f64,
    );
    m.put("learn.knn_fit_s", stack.times.knn_fit_s);

    // Index work of the mid section: the apps' centroid indexes plus the
    // kNN classifier's (a fresh instance per manager, so its counters
    // start at the section).
    let after = app_index_totals(stack);
    let knn_index = stack
        .knn
        .as_ref()
        .and_then(|k| k.shared.index.lock().ok()?.clone());
    let searches = after.0 - mid.index_before.0 + knn_index.as_ref().map_or(0, |i| i.searches);
    let candidates = after.1 - mid.index_before.1 + knn_index.as_ref().map_or(0, |i| i.candidates);
    let resident: usize = stack
        .fitted
        .iter()
        .filter_map(|f| f.index_stats())
        .map(|i| i.resident_bytes)
        .sum::<usize>()
        + knn_index.as_ref().map_or(0, |i| i.resident_bytes);
    m.put("index.searches", searches as f64);
    m.put(
        "index.candidates_per_search",
        candidates as f64 / searches.max(1) as f64,
    );
    m.put("index.resident_bytes", resident as f64);

    let section = |prefix: &str| -> f64 {
        persisted
            .section_bytes
            .iter()
            .filter(|(name, _)| {
                name.as_str() == prefix
                    || name
                        .strip_prefix(prefix)
                        .is_some_and(|r| r.starts_with(':'))
            })
            .map(|(_, b)| *b)
            .sum::<u64>() as f64
    };
    m.put("persist.section_bytes.manifest", section("manifest"));
    m.put("persist.section_bytes.registry", section("registry"));
    m.put("persist.section_bytes.apps", section("app"));
    m.put("persist.section_bytes.embed_cache", section("embed_cache"));
    m.put(
        "persist.section_bytes.embed_cache_delta",
        section("embed_cache_delta"),
    );
    m.put("persist.section_bytes.qos", section("qos"));
    m.put(
        "persist.bytes_per_vector",
        section("embed_cache") / persisted.cached_vectors.max(1) as f64,
    );
    let write_s = median(&persisted.container_write_s);
    m.put("persist.container_write_s", write_s);
    m.put(
        "persist.container_read_s",
        median(&persisted.container_read_s),
    );
    m.put("persist.restore_small_s", median(&restored.restore_s));
    m.put(
        "persist.restore_small_bytes",
        restored.snapshot_bytes as f64,
    );
    m.put(
        "persist.encode_self_s",
        (median(&persisted.checkpoint_s) - write_s).max(0.0),
    );

    let mut tenant_names: Vec<String> = tenants.keys().cloned().collect();
    tenant_names.truncate(256);
    layers::standalone(m, stack, inputs, &tenant_names);
    Ok(())
}

/// Pooled tail latency of the tenants that offered less than
/// [`UNDER_LIMIT`] of their rate limit (0 without tenants).
fn minnow_tail_us(mid: &PacedStats, apps: usize) -> f64 {
    if mid.served.drained.qos.tenants.is_empty() {
        return 0.0;
    }
    let rates = check::offered_rates(&mid.arrivals, apps);
    let limit = TENANT_LIMIT_SHARE * mid.rate * apps as f64;
    let mut lat = serve::latencies(&mid.served, &mid.arrivals);
    lat.retain(|(seq, _)| {
        rates
            .get(mid.arrivals.tenants[*seq as usize].as_str())
            .is_some_and(|r| *r < UNDER_LIMIT * limit)
    });
    lat.sort_unstable();
    let by_seq: Vec<u64> = lat.iter().map(|l| l.1).collect();
    windowed_quantile_us(&by_seq, TAIL_WINDOWS, 0.99)
}

/// On the thread that recorded the `workloads.unpaced` roots (the
/// generator), the per-layer self times as a share of the roots' wall
/// time: 1.0 when every nanosecond of the thread is accounted to a layer.
pub fn generator_self_share(spans: &[trace::Span]) -> Option<f64> {
    let thread = spans.iter().find(|s| s.name == "workloads.unpaced")?.thread;
    let wall: u64 = spans
        .iter()
        .filter(|s| s.thread == thread && s.parent.is_none())
        .map(trace::Span::dur_ns)
        .sum();
    let own: u64 = trace::layer_self_ns(spans, thread).values().sum();
    Some(own as f64 / wall.max(1) as f64)
}
