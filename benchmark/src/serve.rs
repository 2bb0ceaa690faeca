//! The serving sections: one generator thread (the caller) drives a fresh
//! manager, whose shard threads are the system under test.
//!
//! * [`unpaced_pass`] — closed loop: `submit_batch` in chunks of 64 to
//!   every app, then `drain`.
//! * [`paced`] — open loop: each arrival is `submit`ted to every app when
//!   its offset from `ReplaySchedule::events()` is due, however long the
//!   previous one took. A labeling's latency runs from its **due time** to
//!   the return of the `label_batch` call that labeled it, so a stalled
//!   `submit` charges the arrivals queued behind it.

use crate::probe::{SlotTotals, Stamp, SEQ_LABEL};
use crate::spec::{BURSTINESS, SUBMIT_CHUNK};
use crate::stack::Stack;
use crate::trace::{self, now_ns, NO_QUERY};
use querc::{LabeledQuery, QuercError, ServiceDrain, WorkloadManager};
use querc_workloads::{QueryRecord, ReplayConfig, ReplaySchedule, TenantMix};
use std::time::Duration;

/// Zipf exponent of the synthetic tenant mix.
const TENANT_EXPONENT: f64 = 1.1;
/// An arrival dispatched later than this after its due time is "late".
const LATE_NS: u64 = 1_000_000;

/// One section's arrivals: queries (carrying their `bench_seq`), due
/// offsets and tenants, all derived from the generated inputs.
pub struct Arrivals {
    /// `queries[seq]` — the arrival with that `bench_seq`.
    pub queries: Vec<LabeledQuery>,
    /// Due offset of each arrival from the section start, ns.
    pub due_ns: Vec<u64>,
    /// Tenant (routing key) of each arrival.
    pub tenants: Vec<String>,
    /// Length of the replay pool the arrivals cycle over: arrival `seq`
    /// replays record `seq % pool`.
    pub pool: usize,
}

impl Arrivals {
    /// `n` arrivals cycling over `replay` at `rate` arrivals per second.
    /// `tenants > 0` reassigns each arrival to a Zipf(1.1) synthetic tenant.
    pub fn schedule(replay: &[QueryRecord], n: usize, rate: f64, tenants: usize) -> Arrivals {
        let records: Vec<QueryRecord> = replay.iter().cycle().take(n).cloned().collect();
        let schedule = ReplaySchedule::from_records(
            &records,
            &ReplayConfig {
                qps: rate,
                burstiness: BURSTINESS,
                tenant_mix: (tenants > 0).then_some(TenantMix {
                    tenants,
                    exponent: TENANT_EXPONENT,
                }),
                ..Default::default()
            },
        );
        let mut out = Arrivals {
            queries: Vec::with_capacity(n),
            due_ns: Vec::with_capacity(n),
            tenants: Vec::with_capacity(n),
            pool: replay.len().max(1),
        };
        for (seq, event) in schedule.events().iter().enumerate() {
            let mut lq = LabeledQuery::from_record(&event.record);
            lq.set(SEQ_LABEL, seq.to_string());
            out.tenants.push(querc::routing_key(&lq).to_string());
            out.queries.push(lq);
            out.due_ns.push(event.offset.as_nanos() as u64);
        }
        out
    }

    /// Distinct tenants among the arrivals.
    pub fn distinct_tenants(&self) -> usize {
        self.tenants
            .iter()
            .collect::<std::collections::HashSet<_>>()
            .len()
    }
}

/// What the generator offered in one section and what `submit` said.
#[derive(Debug, Default, Clone)]
pub struct Offered {
    /// Labelings offered (arrivals × apps).
    pub offered: u64,
    /// Refused by QoS admission, by `(seq, app index)`.
    pub rejected: Vec<(u32, usize)>,
    /// `submit` errors other than a QoS refusal.
    pub errored: u64,
    /// Time inside `submit`/`submit_batch`, ns.
    pub submit_busy_ns: u64,
    /// Return time of `submit` for arrival `seq` and app `a` at
    /// `seq * apps + a`, ns on the benchmark clock (paced only).
    pub submitted_ns: Vec<u64>,
    /// Each `submit` call's duration, same indexing (paced only).
    pub submit_ns: Vec<u64>,
    /// Dispatch lag of each arrival behind its due time, ns (paced only).
    pub lag_ns: Vec<u64>,
}

/// A finished section: the drained manager plus the instrument readings.
pub struct Served {
    /// What the generator offered.
    pub offered: Offered,
    /// Everything `drain` returned.
    pub drained: ServiceDrain,
    /// Labelings of this section among the outputs (warm-up arrivals
    /// carry no sequence id and do not count).
    pub returned: u64,
    /// Probe readings per app, in stack (= app name) order.
    pub slots: Vec<SlotTotals>,
    /// Section start on the benchmark clock, ns.
    pub start_ns: u64,
    /// First `submit` to `drain` return, seconds.
    pub wall_s: f64,
    /// When the generator finished, seconds after the section start.
    pub generator_done_s: f64,
    /// Time inside `drain`, seconds.
    pub drain_s: f64,
    /// Inference the shared embedder did meanwhile: `(calls, docs, busy_ns)`.
    pub embed: (u64, u64, u64),
    /// kNN prediction meanwhile: `(calls, vectors, busy_ns)`.
    pub knn: (u64, u64, u64),
}

impl Served {
    /// Drop the labeled queries once they are checked: a run keeps every
    /// section's readings, and the outputs are most of their memory.
    pub fn release_outputs(&mut self) {
        self.drained.outputs.clear();
        self.drained.training_log.clear();
    }
}

fn reset_instruments(stack: &Stack) {
    for (_, slot) in &stack.slots {
        slot.take();
    }
    stack.embed_work.take();
    if let Some(knn) = &stack.knn {
        knn.shared.work.take();
    }
}

/// Drain the manager and read the instruments.
fn finish(stack: &Stack, mgr: WorkloadManager, start_ns: u64, offered: Offered) -> Served {
    let drain_start = now_ns();
    let drained = {
        let _span = trace::span("service.drain", NO_QUERY, 0);
        mgr.drain()
    };
    let end = now_ns();
    let returned = drained
        .outputs
        .values()
        .flatten()
        .filter(|o| o.get(SEQ_LABEL).is_some())
        .count() as u64;
    Served {
        offered,
        drained,
        returned,
        slots: stack.slots.iter().map(|(_, s)| s.take()).collect(),
        start_ns,
        wall_s: (end - start_ns) as f64 / 1e9,
        generator_done_s: (drain_start - start_ns) as f64 / 1e9,
        drain_s: (end - drain_start) as f64 / 1e9,
        embed: stack.embed_work.take(),
        knn: stack
            .knn
            .as_ref()
            .map_or((0, 0, 0), |k| k.shared.work.take()),
    }
}

/// Closed loop over `arrivals` on a warmed manager: `submit_batch` in
/// chunks of [`SUBMIT_CHUNK`] to every app, then `drain`.
pub fn unpaced_pass(stack: &Stack, mgr: WorkloadManager, arrivals: &Arrivals) -> Served {
    let apps = mgr.app_names();
    let mut offered = Offered::default();
    reset_instruments(stack);
    let start_ns = now_ns();
    let _section = trace::span("workloads.unpaced", NO_QUERY, arrivals.queries.len() as u32);
    for (c, chunk) in arrivals.queries.chunks(SUBMIT_CHUNK).enumerate() {
        let first = (c * SUBMIT_CHUNK) as u32;
        for (ai, app) in apps.iter().enumerate() {
            let t = now_ns();
            let accepted = {
                let _span = trace::span("service.submit_batch", first, chunk.len() as u32);
                mgr.submit_batch(app, chunk.iter().cloned())
            };
            offered.submit_busy_ns += now_ns() - t;
            offered.offered += chunk.len() as u64;
            match accepted {
                // `submit_batch` reports how many it admitted, not which:
                // refusals are charged to the chunk's last sequence ids.
                Ok(n) => offered
                    .rejected
                    .extend((n..chunk.len()).map(|i| (first + i as u32, ai))),
                Err(_) => offered.errored += chunk.len() as u64,
            }
        }
    }
    finish(stack, mgr, start_ns, offered)
}

/// Wait until `due_ns` on the benchmark clock: sleep while far, then spin.
fn wait_until(due_ns: u64) {
    loop {
        let now = now_ns();
        if now >= due_ns {
            return;
        }
        let left = due_ns - now;
        if left > 300_000 {
            std::thread::sleep(Duration::from_nanos(left - 200_000));
        } else {
            std::hint::spin_loop();
        }
    }
}

/// Open loop over `arrivals` on a warmed manager. See the module docs.
pub fn paced(stack: &Stack, mgr: WorkloadManager, arrivals: &Arrivals) -> Served {
    let apps = mgr.app_names();
    let n = arrivals.queries.len();
    let mut offered = Offered {
        submitted_ns: Vec::with_capacity(n * apps.len()),
        submit_ns: Vec::with_capacity(n * apps.len()),
        lag_ns: Vec::with_capacity(n),
        ..Default::default()
    };
    reset_instruments(stack);
    let start_ns = now_ns();
    let _section = trace::span("workloads.paced", NO_QUERY, n as u32);
    for (seq, query) in arrivals.queries.iter().enumerate() {
        let due = start_ns + arrivals.due_ns[seq];
        {
            let _wait = trace::span("workloads.wait", seq as u32, 1);
            wait_until(due);
        }
        offered.lag_ns.push(now_ns().saturating_sub(due));
        for (ai, app) in apps.iter().enumerate() {
            let t = now_ns();
            let result = {
                let _span = trace::span("service.submit", seq as u32, 1);
                mgr.submit(app, query.clone())
            };
            let done = now_ns();
            offered.submit_busy_ns += done - t;
            offered.submit_ns.push(done - t);
            offered.submitted_ns.push(done);
            offered.offered += 1;
            match result {
                Ok(()) => {}
                Err(QuercError::Rejected { .. }) => offered.rejected.push((seq as u32, ai)),
                Err(_) => offered.errored += 1,
            }
        }
    }
    finish(stack, mgr, start_ns, offered)
}

/// Due→labeled latencies of a paced section, ns, with each labeling's
/// sequence id: one entry per stamp the probes took.
pub fn latencies(served: &Served, arrivals: &Arrivals) -> Vec<(u32, u64)> {
    served
        .slots
        .iter()
        .flat_map(|slot| slot.stamps.iter())
        .map(|s: &Stamp| {
            let due = served.start_ns + arrivals.due_ns[s.seq as usize];
            (s.seq, s.done_ns.saturating_sub(due))
        })
        .collect()
}

/// Submit-return → shard-entry waits of a paced section, ns.
pub fn queue_waits(served: &Served) -> Vec<u64> {
    let apps = served.slots.len();
    let mut waits = Vec::new();
    for (ai, slot) in served.slots.iter().enumerate() {
        for s in &slot.stamps {
            if let Some(submitted) = served.offered.submitted_ns.get(s.seq as usize * apps + ai) {
                waits.push(s.entry_ns.saturating_sub(*submitted));
            }
        }
    }
    waits
}

/// Share of arrivals dispatched more than 1 ms after they were due.
pub fn late_share(lag_ns: &[u64]) -> f64 {
    if lag_ns.is_empty() {
        return 0.0;
    }
    lag_ns.iter().filter(|l| **l > LATE_NS).count() as f64 / lag_ns.len() as f64
}
