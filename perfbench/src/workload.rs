//! What every workload hands back to the main loop, and the per-run
//! bookkeeping shared by the three simulator workloads.

use crate::rng::Digest;
use crate::spans::SpanList;
use mce_simnet::{SimResult, SimStats};
use std::collections::BTreeMap;

/// Deterministic work counters of one round. Each must repeat exactly
/// across the rounds of one invocation.
pub type Counters = BTreeMap<&'static str, u64>;

/// Counters folded by maximum rather than sum.
fn is_peak(key: &str) -> bool {
    key.ends_with("peak_pending")
}

/// Add `from` into `into` (sums, except peaks, which take the max).
pub fn merge(into: &mut Counters, from: &Counters) {
    for (&k, &v) in from {
        let e = into.entry(k).or_insert(0);
        *e = if is_peak(k) { (*e).max(v) } else { *e + v };
    }
}

/// One pass over a workload's op list.
#[derive(Debug, Default)]
pub struct RoundOut {
    /// Host latency of every op, in op order.
    pub latencies_ns: Vec<u64>,
    /// Ops whose result failed its check (or errored).
    pub failed: u64,
    pub counters: Counters,
    /// Digest of the simulated outcome (or the planner's answers).
    pub digest: Digest,
    /// Simulated transmissions: algorithm, background and retransmitted.
    pub sim_tx: u64,
    /// Per-op |simulated − modelled| / modelled finish time.
    pub model_err: Vec<f64>,
    /// Spans of this round (empty unless traced).
    pub spans: SpanList,
}

/// A workload after set-up: runs rounds until the main loop stops it.
pub trait Workload {
    /// Worker threads the workload's fan-outs use.
    fn workers(&self) -> usize;
    /// Run one round; `traced` records spans.
    fn round(&mut self, traced: bool) -> RoundOut;
    /// Checks made once, outside the timed loop, after `rounds`
    /// rounds. Returns the number of ops that failed them.
    fn final_check(&mut self, _rounds: usize) -> u64 {
        0
    }
}

/// Worker threads a `mce_simnet::batch` fan-out of `items` uses: the
/// vendored rayon pool runs one worker per available core.
pub fn batch_workers(items: usize) -> usize {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    cores.min(items).max(1)
}

/// The outcome of one simulated run, reduced to what a round keeps:
/// counters, digest words and transmissions. Host telemetry
/// (`compile_ns`, which cache served the compile) stays out of the
/// digest; so do scheduler and shard telemetry, which describe how the
/// engine ran, not what it simulated.
#[derive(Debug, Default)]
pub struct SimOutcome {
    pub counters: Counters,
    pub words: Vec<u64>,
    pub sim_tx: u64,
}

impl SimOutcome {
    pub fn of(r: &SimResult) -> SimOutcome {
        let s = &r.stats;
        let mut counters = Counters::new();
        let mut put = |k: &'static str, v: u64| {
            counters.insert(k, v);
        };
        put("engine.tx", s.transmissions);
        put("engine.link_crossings", s.link_crossings);
        put("engine.contention_events", s.edge_contention_events);
        put("sched.peak_pending", s.sched_peak_pending);
        put("sched.resizes", s.sched_bucket_resizes);
        put("sched.spills", s.sched_overflow_spills);
        put("shard.windows", s.shard_windows);
        put("shard.barrier_stalls", s.shard_barrier_stalls);
        put("shard.cross_events", s.shard_cross_events);
        put("shard.peak_pending", s.shard_peak_pending);
        put("traffic.retransmissions", s.retransmissions);
        put("traffic.flow_drops", s.flow_drops);
        put("netcond.background_tx", s.background_transmissions);
        put("compile.misses", s.compile_misses);
        put("compile.hits", s.compile_local_hits + s.compile_shared_hits);
        SimOutcome {
            counters,
            words: outcome_words(r),
            sim_tx: s.transmissions + s.background_transmissions + s.retransmissions,
        }
    }
}

/// Finish times and the simulated-outcome fields of [`SimStats`].
fn outcome_words(r: &SimResult) -> Vec<u64> {
    let SimStats {
        transmissions,
        bytes_moved,
        link_crossings,
        edge_contention_events,
        edge_contention_wait_ns,
        nic_serialization_events,
        nic_serialization_wait_ns,
        forced_drops,
        reserve_handshakes,
        barriers,
        background_transmissions,
        background_bytes,
        retransmissions,
        flow_drops,
        jobs,
        marks,
        ..
    } = &r.stats;
    let mut w = vec![r.finish_time.as_ns()];
    w.extend(r.node_finish.iter().map(|t| t.as_ns()));
    w.extend([
        *transmissions,
        *bytes_moved,
        *link_crossings,
        *edge_contention_events,
        *edge_contention_wait_ns,
        *nic_serialization_events,
        *nic_serialization_wait_ns,
        *forced_drops,
        *reserve_handshakes,
        *barriers,
        *background_transmissions,
        *background_bytes,
        *retransmissions,
        *flow_drops,
    ]);
    for j in jobs {
        w.extend([
            j.job as u64,
            j.start_ns,
            j.finish_ns,
            j.transmissions,
            j.bytes_moved,
            j.edge_contention_wait_ns,
            j.nic_wait_ns,
            j.retransmissions,
            j.drops,
            j.dead_pairs_skipped,
        ]);
    }
    for (label, t) in marks {
        w.extend([*label as u64, t.as_ns()]);
    }
    w
}

/// One finished simulator op as it leaves a worker.
#[derive(Debug, Default)]
pub struct SimOp {
    pub latency_ns: u64,
    pub ok: bool,
    pub outcome: SimOutcome,
    /// `Some` for the workloads that compare against the model.
    pub model_err: Option<f64>,
    /// Layer-call counters of the op (`build.calls`, `verify.*`).
    pub calls: Counters,
    pub spans: SpanList,
}

impl SimOp {
    /// End the op now: close its root span and set its latency.
    pub fn close(&mut self, root: usize, start: u64) {
        let end = crate::spans::now_ns();
        if let Some(s) = self.spans.spans.get_mut(root) {
            s.end = end;
        }
        self.latency_ns = end - start;
    }
}

/// Fold a batch's ops, in op order, into one round under a `batch` span
/// covering `start..end`.
pub fn batch_round(ops: Vec<SimOp>, (start, end): (u64, u64), traced: bool) -> RoundOut {
    let mut out = RoundOut { spans: SpanList::new(traced), ..RoundOut::default() };
    let batch = out.spans.push("batch", start, end, None, u64::MAX);
    out.counters.insert("batch.cells", ops.len() as u64);
    out.counters.insert("batch.workers", batch_workers(ops.len()) as u64);
    for mut op in ops {
        out.spans.adopt(std::mem::take(&mut op.spans), Some(batch));
        out.absorb(op);
    }
    out
}

impl RoundOut {
    /// Fold one op into the round, in op order.
    pub fn absorb(&mut self, op: SimOp) {
        self.latencies_ns.push(op.latency_ns);
        self.failed += u64::from(!op.ok);
        merge(&mut self.counters, &op.outcome.counters);
        merge(&mut self.counters, &op.calls);
        self.digest.words(op.outcome.words);
        self.sim_tx += op.outcome.sim_tx;
        self.model_err.extend(op.model_err);
    }
}

/// Push an `engine` span with its `compile` child, placed at the start
/// of the run call from the duration the run reports.
pub fn engine_span(
    spans: &mut SpanList,
    name: &'static str,
    parent: Option<usize>,
    (start, end): (u64, u64),
    compile_ns: u64,
    op: u64,
) {
    let run = spans.push(name, start, end, parent, op);
    spans.push("compile", start, (start + compile_ns).min(end), Some(run), op);
}

/// Run `verify_complete_exchange` on one job's slice of memories,
/// recording a `verify` span and the `verify.*` counters.
pub fn verify_slice(
    d: u32,
    m: usize,
    memories: &[Vec<u8>],
    calls: &mut Counters,
    spans: &mut SpanList,
    parent: Option<usize>,
    op: u64,
) -> bool {
    let t0 = crate::spans::now_ns();
    let bad = mce_core::verify::verify_complete_exchange(d, m, memories).len() as u64;
    spans.push("verify", t0, crate::spans::now_ns(), parent, op);
    let n = 1u64 << d;
    merge(
        calls,
        &Counters::from([
            ("verify.calls", 1),
            ("verify.bytes", n * n * m as u64),
            ("verify.mismatches", bad),
        ]),
    );
    bad == 0
}

/// |simulated − modelled| / modelled.
pub fn rel_err(simulated_us: f64, modelled_us: f64) -> f64 {
    (simulated_us - modelled_us).abs() / modelled_us
}
