//! `tenants_d6`: the E16 interference shape at d6 through
//! `mce_simnet::batch::run_cells`. Four regimes — solo, a blocking
//! `{6}` co-tenant, and co-tenants under drop-tail and NACK link
//! policies with AIMD go-back-n sources — each crossed with the d6
//! figure partitions and a block-size ladder. Every job's slice of
//! memory is verified.
//!
//! Runs take the sequential, shard-ineligible multi-tenant path with
//! retransmissions, drops and conditioned links: a drain or shard
//! change that helps clean circuits but costs flow control shows here.

use crate::rng::Rng;
use crate::spans::{now_ns, SpanList};
use crate::workload::{
    batch_round, batch_workers, engine_span, verify_slice, Counters, RoundOut, SimOp, SimOutcome,
    Workload,
};
use mce_core::builder::build_multiphase_programs;
use mce_core::verify::stamped_memories;
use mce_model::MachineParams;
use mce_partitions::Partition;
use mce_simnet::batch::{run_cells, Memories, RunSpec};
use mce_simnet::conformance::candidate_partitions;
use mce_simnet::traffic::{compose_memories, compose_programs};
use mce_simnet::{CwndAlg, FlowCtl, JobSpec, LinkPolicy, NetCondition, SimConfig};
use std::cell::Cell;
use std::sync::Arc;

const D: u32 = 6;
/// Study-job block sizes, bytes (the E16 quick ladder).
const SIZES: [usize; 4] = [16, 64, 160, 320];
/// Co-tenant block size, bytes.
const COTENANT_BLOCK: usize = 200;
const JITTER: f64 = 0.02;

#[derive(Debug, Clone, Copy)]
enum Regime {
    Solo,
    Blocking,
    DropTail,
    Nack,
}

const REGIMES: [Regime; 4] = [Regime::Solo, Regime::Blocking, Regime::DropTail, Regime::Nack];

impl Regime {
    /// The co-tenant's flow control and the link policy it runs under
    /// (`None` for a blocking co-tenant or none at all).
    fn reactive(self) -> Option<(LinkPolicy, FlowCtl)> {
        let flow = FlowCtl {
            rto_ns: 200_000,
            // Bounded, so a pathological cell fails typed instead of
            // hanging, but never reached by these cells.
            max_retries: 100_000,
            cwnd: CwndAlg::Aimd { window_max: 8 },
        };
        match self {
            Regime::Solo | Regime::Blocking => None,
            Regime::DropTail => Some((LinkPolicy::DropTail { queue_limit: 0 }, flow)),
            Regime::Nack => Some((LinkPolicy::Nack { queue_limit: 0 }, flow)),
        }
    }
}

/// Seeded inputs: one jitter seed per cell.
pub fn jitter_seeds(seed: u64, cells: usize) -> Vec<u64> {
    let mut rng = Rng::new(seed, 0x7e6);
    (0..cells).map(|_| rng.next_u64()).collect()
}

pub struct Tenants {
    cells: Vec<(Regime, Partition, usize)>,
    seeds: Vec<u64>,
    next_op: u64,
}

#[derive(Debug, Clone, Copy, Default)]
struct Clock {
    start: u64,
    built: u64,
    ready: u64,
    /// Program sets built for the op (study job, plus co-tenant).
    builds: u64,
}

struct Item {
    index: usize,
    op: u64,
    clock: Cell<Clock>,
}

impl Tenants {
    pub fn setup(seed: u64, spans: &mut SpanList) -> Tenants {
        let t0 = now_ns();
        let m_max = *SIZES.last().expect("sizes") as f64;
        let parts = candidate_partitions(&MachineParams::ipsc860(), D, m_max);
        let cells: Vec<(Regime, Partition, usize)> = REGIMES
            .iter()
            .flat_map(|&r| parts.iter().flat_map(move |p| SIZES.map(|m| (r, p.clone(), m))))
            .collect();
        spans.push("model", t0, now_ns(), None, u64::MAX);
        let seeds = jitter_seeds(seed, cells.len());
        let mut tenants = Tenants { cells, seeds, next_op: 0 };
        // The first arena run: the first blocking co-tenant cell.
        let first = tenants.cells.len() / REGIMES.len();
        let warm = tenants.run(&[first], spans.is_on());
        spans.adopt(warm.spans, None);
        assert_eq!(warm.failed, 0, "tenants_d6 set-up op failed");
        tenants
    }

    fn spec(&self, index: usize) -> (RunSpec, u64) {
        let (regime, part, m) = &self.cells[index];
        let mut jobs = vec![JobSpec::default().shaped(part.parts(), *m)];
        let study = build_multiphase_programs(D, part.parts(), *m);
        let mut cfg = SimConfig::ipsc860(D).with_jitter(JITTER, self.seeds[index]);
        let (programs, builds) = if let Regime::Solo = regime {
            (study, 1)
        } else {
            let mut tenant = JobSpec::default().shaped(&[D], COTENANT_BLOCK);
            if let Some((policy, flow)) = regime.reactive() {
                tenant = tenant.with_flow(flow);
                cfg = cfg.with_netcond(NetCondition::default().with_link_policy(policy));
            }
            jobs.push(tenant);
            let other = build_multiphase_programs(D, &[D], COTENANT_BLOCK);
            (compose_programs(D, &[study, other]), 2)
        };
        (
            RunSpec {
                cfg: cfg.with_jobs(jobs),
                programs: Arc::new(programs),
                memories: Memories::Owned(Vec::new()),
                trace: None,
            },
            builds,
        )
    }

    fn memories(&self, index: usize) -> Vec<Vec<u8>> {
        let (regime, _, m) = &self.cells[index];
        let study = stamped_memories(D, *m);
        match regime {
            Regime::Solo => study,
            _ => compose_memories(D, &[study, stamped_memories(D, COTENANT_BLOCK)]),
        }
    }

    fn run(&mut self, indices: &[usize], traced: bool) -> RoundOut {
        let items: Vec<Item> = indices
            .iter()
            .map(|&index| {
                self.next_op += 1;
                Item { index, op: self.next_op, clock: Cell::default() }
            })
            .collect();
        let this = &*self;
        let n = 1usize << D;
        let batch_start = now_ns();
        let ops = run_cells(
            items,
            |it| {
                let start = now_ns();
                let (mut spec, builds) = this.spec(it.index);
                let built = now_ns();
                spec.memories = Memories::Owned(this.memories(it.index));
                it.clock.set(Clock { start, built, ready: now_ns(), builds });
                spec
            },
            |it, result| {
                let run_end = now_ns();
                let clock = it.clock.get();
                let mut op = SimOp { spans: SpanList::new(traced), ..SimOp::default() };
                let root = op.spans.push("op", clock.start, 0, None, it.op);
                op.spans.push("build", clock.start, clock.built, Some(root), it.op);
                op.spans.push("stamp", clock.built, clock.ready, Some(root), it.op);
                op.calls = Counters::from([("build.calls", clock.builds)]);
                let (regime, _, m) = &this.cells[it.index];
                match result {
                    Ok(r) => {
                        engine_span(
                            &mut op.spans,
                            "engine",
                            Some(root),
                            (clock.ready, run_end),
                            r.stats.compile_ns,
                            it.op,
                        );
                        let mut ok = verify_slice(
                            D,
                            *m,
                            &r.memories[..n],
                            &mut op.calls,
                            &mut op.spans,
                            Some(root),
                            it.op,
                        );
                        if !matches!(regime, Regime::Solo) {
                            ok &= verify_slice(
                                D,
                                COTENANT_BLOCK,
                                &r.memories[n..2 * n],
                                &mut op.calls,
                                &mut op.spans,
                                Some(root),
                                it.op,
                            );
                        }
                        op.ok = ok;
                        op.outcome = SimOutcome::of(&r);
                    }
                    Err(e) => eprintln!("tenants_d6 op {} failed: {e}", it.index),
                }
                op.close(root, clock.start);
                op
            },
        );
        batch_round(ops, (batch_start, now_ns()), traced)
    }
}

impl Workload for Tenants {
    fn workers(&self) -> usize {
        batch_workers(self.cells.len())
    }

    fn round(&mut self, traced: bool) -> RoundOut {
        let all: Vec<usize> = (0..self.cells.len()).collect();
        self.run(&all, traced)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jitter_seeds_repeat_per_seed_and_differ_across_seeds() {
        assert_eq!(jitter_seeds(5, 64), jitter_seeds(5, 64));
        assert_ne!(jitter_seeds(5, 64), jitter_seeds(6, 64));
    }
}
