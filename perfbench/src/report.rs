//! Turning a workload's rounds into the printed metrics.

use crate::spans::SpanList;
use crate::stats::{median, quartiles, windowed_tail};
use crate::workload::{Counters, RoundOut};
use std::collections::BTreeMap;

/// A named value with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    // JSON has no NaN or infinity; an undefined ratio reads 0.
    Metric { name: name.into(), value: if value.is_finite() { value } else { 0.0 }, unit }
}

/// One timed round as the main loop saw it.
pub struct Timed {
    pub traced: bool,
    pub wall_ns: u64,
    pub out: RoundOut,
}

/// Layers of the self-time split, and the span names each covers. A
/// planner call is one layer split three ways by how it was answered.
const LAYERS: [(&str, &[&str]); 11] = [
    ("build", &["build"]),
    ("stamp", &["stamp"]),
    ("compile", &["compile"]),
    ("engine", &["engine"]),
    ("verify", &["verify"]),
    ("plan_hit", &["plan.hit"]),
    ("plan_build", &["plan.build"]),
    ("plan_fallback", &["plan.fallback"]),
    ("plan_fill", &["plan.fill", "plan.warm"]),
    ("model", &["model"]),
    ("other", &["op", "setup"]),
];

/// Self-time share of each layer in `spans`. Span names outside
/// [`LAYERS`] (batch spans, reference runs) are left out.
pub fn self_split(spans: &SpanList) -> Vec<(&'static str, f64)> {
    let by = spans.self_by_name();
    let per: Vec<(&str, u64)> = LAYERS
        .iter()
        .map(|(layer, names)| (*layer, names.iter().map(|n| by.get(n).copied().unwrap_or(0)).sum()))
        .collect();
    let total: u64 = per.iter().map(|(_, t)| t).sum();
    per.into_iter()
        .map(|(l, t)| (l, if total == 0 { 0.0 } else { t as f64 / total as f64 }))
        .collect()
}

/// The spans of every traced round in one list.
pub fn traced_spans(rounds: &[Timed]) -> SpanList {
    let mut all = SpanList::new(true);
    for t in rounds.iter().filter(|t| t.traced) {
        all.adopt(t.out.spans.clone(), None);
    }
    all
}

/// The layer with the largest share.
pub fn dominant(split: &[(&'static str, f64)]) -> &'static str {
    split.iter().max_by(|a, b| a.1.total_cmp(&b.1)).map_or("none", |(l, _)| l)
}

/// End-to-end metrics from the untraced rounds.
pub struct EndToEnd {
    pub metrics: Vec<Metric>,
    /// Printed only: `fail_frac` is zero by design (failures show in
    /// the JSON's `failed`), and `sim_tx_per_s` and `model_rel_err` are
    /// not defined on every workload.
    pub extra: Vec<String>,
}

pub fn end_to_end(setup_s: &[f64], rounds: &[&Timed], peak_rss_mb: f64, failed: u64) -> EndToEnd {
    // Ops per second per round, median over rounds, so a burst of host
    // noise in one round does not move the figure; scaled by the share
    // of ops that passed their checks.
    let rates: Vec<f64> = rounds
        .iter()
        .map(|t| t.out.latencies_ns.len() as f64 / (t.wall_ns as f64 * 1e-9))
        .collect();
    let per_round: Vec<Vec<f64>> = rounds
        .iter()
        .map(|t| t.out.latencies_ns.iter().map(|&n| n as f64 * 1e-3).collect())
        .collect();
    let lat_us: Vec<f64> = per_round.concat();
    let ops = lat_us.len() as u64;
    let passed = ops.saturating_sub(failed);
    let (t, windows) = windowed_tail(&per_round);
    let q = if lat_us.len() >= 2 { quartiles(&lat_us) } else { [lat_us[0]; 3] };
    let sim_tx: u64 = rounds.iter().map(|t| t.out.sim_tx).sum();
    let errs: Vec<f64> = rounds.iter().flat_map(|t| t.out.model_err.iter().copied()).collect();
    let mut extra = vec![
        format!(
            "op_tail_us is the median over {windows} windows of whole rounds of each \
             window's tail: p{:.4} of {} samples, {} beyond it (medians over windows)",
            t.percentile, t.samples, t.beyond
        ),
        format!("op latency quartiles {:.3} / {:.3} / {:.3} us", q[0], q[1], q[2]),
        format!("fail_frac {} ({failed} of {ops}) ratio", failed as f64 / ops.max(1) as f64),
    ];
    if t.beyond < crate::stats::TAIL_MIN_BEYOND {
        extra.push(format!(
            "warning: fewer than {} samples beyond the tail",
            crate::stats::TAIL_MIN_BEYOND
        ));
    }
    if sim_tx > 0 {
        let tx_rates: Vec<f64> =
            rounds.iter().map(|t| t.out.sim_tx as f64 / (t.wall_ns as f64 * 1e-9)).collect();
        extra.push(format!("sim_tx_per_s {} 1/s", median(&tx_rates)));
    }
    if !errs.is_empty() {
        extra.push(format!(
            "model_rel_err {} ratio (median over {} runs)",
            median(&errs),
            errs.len()
        ));
    }
    EndToEnd {
        metrics: vec![
            metric("setup_s", median(setup_s), "s"),
            metric("ops_per_s", median(&rates) * passed as f64 / ops as f64, "1/s"),
            metric("op_p50_us", median(&lat_us), "us"),
            metric("op_tail_us", t.value, "us"),
            metric("peak_rss_mb", peak_rss_mb, "MB"),
        ],
        extra,
    }
}

/// Per-layer counters read straight from a round.
const COUNTS: [&str; 26] = [
    "build.calls",
    "compile.misses",
    "compile.hits",
    "engine.tx",
    "engine.link_crossings",
    "engine.contention_events",
    "sched.peak_pending",
    "sched.resizes",
    "sched.spills",
    "shard.windows",
    "shard.barrier_stalls",
    "shard.cross_events",
    "shard.peak_pending",
    "traffic.retransmissions",
    "traffic.flow_drops",
    "netcond.background_tx",
    "batch.cells",
    "batch.workers",
    "verify.calls",
    "verify.bytes",
    "verify.mismatches",
    "plan.hits",
    "plan.misses",
    "plan.evictions",
    "plan.fallbacks",
    "plan.fallback_errors",
];

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Span time of one traced round, per span name: total and self.
struct RoundTimes {
    total: BTreeMap<&'static str, u64>,
    own: BTreeMap<&'static str, u64>,
}

impl RoundTimes {
    fn total_ms(&self, name: &str) -> f64 {
        self.total.get(name).copied().unwrap_or(0) as f64 * 1e-6
    }

    fn self_ms(&self, name: &str) -> f64 {
        self.own.get(name).copied().unwrap_or(0) as f64 * 1e-6
    }
}

/// Per-layer metrics: counters per round (they repeat exactly, so the
/// first traced round's stand for all), busy times per round as medians
/// over the traced rounds, and the self-time split of ops and set-up.
pub fn per_layer(setup: &SpanList, rounds: &[Timed]) -> Vec<Metric> {
    let traced: Vec<&Timed> = rounds.iter().filter(|t| t.traced).collect();
    let plain: Vec<&Timed> = rounds.iter().filter(|t| !t.traced).collect();
    let c: &Counters = &traced[0].out.counters;
    let count = |k: &str| c.get(k).copied().unwrap_or(0) as f64;
    let times: Vec<RoundTimes> = traced
        .iter()
        .map(|t| RoundTimes { total: t.out.spans.total_by_name(), own: t.out.spans.self_by_name() })
        .collect();
    let med = |f: &dyn Fn(&RoundTimes) -> f64| median(&times.iter().map(f).collect::<Vec<_>>());

    let mut out: Vec<Metric> = COUNTS.iter().map(|&k| metric(k, count(k), "count")).collect();
    // Ops of a batch round run inside its `batch` span; other workloads
    // have no batch layer.
    let batched = count("batch.cells") > 0.0;
    let batch_wall = if batched { med(&|t| t.total_ms("batch")) } else { 0.0 };
    let batch_busy = if batched { med(&|t| t.total_ms("op")) } else { 0.0 };
    let has_seq = times.iter().any(|t| t.own.contains_key("engine_seq"));
    out.extend([
        metric("build.busy_ms", med(&|t| t.total_ms("build")), "ms"),
        metric("compile.busy_ms", med(&|t| t.total_ms("compile")), "ms"),
        metric(
            "compile.hit_ratio",
            ratio(count("compile.hits"), count("compile.hits") + count("compile.misses")),
            "ratio",
        ),
        metric("engine.busy_ms", med(&|t| t.self_ms("engine")), "ms"),
        metric(
            "shard.net_ms",
            if has_seq { med(&|t| t.self_ms("engine") - t.self_ms("engine_seq")) } else { 0.0 },
            "ms",
        ),
        metric(
            "traffic.goodput_ratio",
            ratio(count("engine.tx"), count("engine.tx") + count("traffic.retransmissions")),
            "ratio",
        ),
        metric("batch.wall_ms", batch_wall, "ms"),
        metric("batch.busy_ms", batch_busy, "ms"),
        metric("batch.efficiency", ratio(batch_busy, batch_wall * count("batch.workers")), "ratio"),
        metric("verify.busy_ms", med(&|t| t.total_ms("verify")), "ms"),
        metric(
            "plan.hit_ratio",
            ratio(count("plan.hits"), count("plan.hits") + count("plan.misses")),
            "ratio",
        ),
        metric("plan.hit_busy_ms", med(&|t| t.total_ms("plan.hit")), "ms"),
        metric("plan.build_busy_ms", med(&|t| t.total_ms("plan.build")), "ms"),
        metric("plan.fallback_busy_ms", med(&|t| t.total_ms("plan.fallback")), "ms"),
    ]);
    // Tracing overhead: host time per op of the traced rounds against
    // the untraced rounds interleaved with them. Reference runs made
    // only in traced rounds are not tracing overhead.
    let per_op = |ts: &[&Timed]| {
        let wall: u64 = ts
            .iter()
            .map(|t| {
                t.wall_ns - t.out.spans.total_by_name().get("engine_seq").copied().unwrap_or(0)
            })
            .sum();
        let ops: usize = ts.iter().map(|t| t.out.latencies_ns.len()).sum();
        wall as f64 / ops.max(1) as f64
    };
    out.push(metric("trace.overhead_frac", per_op(&traced) / per_op(&plain) - 1.0, "ratio"));
    for (prefix, spans) in [("op_self", &traced_spans(rounds)), ("setup_self", setup)] {
        for (layer, share) in self_split(spans) {
            out.push(metric(format!("{prefix}.{layer}_frac"), share, "ratio"));
        }
    }
    out
}
