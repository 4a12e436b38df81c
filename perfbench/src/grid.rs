//! `grid_d7`: the Figure-6 grid. The d7 figure partitions (the clean
//! hull plus Standard Exchange) crossed with a block-size ladder, with
//! jitter replicates per cell that share one program `Arc`, run through
//! `mce_simnet::batch::run_cells`.
//!
//! Many small runs make batch fan-out, per-run engine drain and
//! compile-cache hits and misses the main costs; shard and traffic code
//! stay idle.

use crate::rng::Rng;
use crate::spans::{now_ns, SpanList};
use crate::workload::{
    batch_round, batch_workers, engine_span, rel_err, verify_slice, Counters, RoundOut, SimOp,
    SimOutcome, Workload,
};
use mce_core::builder::build_multiphase_programs;
use mce_core::verify::stamped_memories;
use mce_model::MachineParams;
use mce_partitions::Partition;
use mce_simnet::batch::{run_cells, Memories, RunSpec};
use mce_simnet::conformance::{candidate_partitions, predicted_us};
use mce_simnet::{Program, SimConfig};
use std::cell::Cell;
use std::sync::{Arc, OnceLock};

const D: u32 = 7;
/// Block sizes, bytes: the Figure-6 axis at a coarser step.
const SIZES: [usize; 10] = [40, 80, 120, 160, 200, 240, 280, 320, 360, 400];
const REPLICATES: usize = 3;
/// Jitter fraction of the replicates (as `repro figure` uses).
const JITTER: f64 = 0.02;

/// Seeded inputs: one jitter seed per (cell, replicate) op.
pub fn jitter_seeds(seed: u64, ops: usize) -> Vec<u64> {
    let mut rng = Rng::new(seed, 0x6d7);
    (0..ops).map(|_| rng.next_u64()).collect()
}

pub struct Grid {
    /// `(partition, block size)` cells; each has `REPLICATES` ops.
    cells: Vec<(Partition, usize)>,
    /// Modelled finish time per cell, µs.
    predicted: Vec<f64>,
    seeds: Vec<u64>,
    next_op: u64,
}

type Shared = (Arc<Vec<Program>>, Arc<Vec<Vec<u8>>>);

/// Host times an op's build closure hands to its finish closure (they
/// run back to back on one worker).
#[derive(Debug, Clone, Copy, Default)]
struct Clock {
    start: u64,
    /// `(start, built, stamped)` when this op built its cell's programs.
    built: Option<(u64, u64, u64)>,
    ready: u64,
}

struct Item {
    cell: usize,
    index: usize,
    op: u64,
    clock: Cell<Clock>,
}

impl Grid {
    pub fn setup(seed: u64, spans: &mut SpanList) -> Grid {
        let params = MachineParams::ipsc860();
        let t0 = now_ns();
        let m_max = *SIZES.last().expect("sizes") as f64;
        let cells: Vec<(Partition, usize)> = candidate_partitions(&params, D, m_max)
            .into_iter()
            .flat_map(|p| SIZES.map(|m| (p.clone(), m)))
            .collect();
        let cfg = SimConfig::ipsc860(D);
        let predicted = cells.iter().map(|(p, m)| predicted_us(&cfg, p.parts(), *m)).collect();
        spans.push("model", t0, now_ns(), None, u64::MAX);
        let seeds = jitter_seeds(seed, cells.len() * REPLICATES);
        let mut grid = Grid { cells, predicted, seeds, next_op: 0 };
        // The first arena run: one op, so code and allocator are warm.
        let warm = grid.run(&[0], spans.is_on());
        spans.adopt(warm.spans, None);
        assert_eq!(warm.failed, 0, "grid_d7 set-up op failed");
        grid
    }

    /// Run the ops `indices` (each `cell * REPLICATES + replicate`).
    fn run(&mut self, indices: &[usize], traced: bool) -> RoundOut {
        let items: Vec<Item> = indices
            .iter()
            .map(|&index| {
                self.next_op += 1;
                Item { cell: index / REPLICATES, index, op: self.next_op, clock: Cell::default() }
            })
            .collect();
        let shared: Vec<OnceLock<Shared>> = self.cells.iter().map(|_| OnceLock::new()).collect();
        let cells = &self.cells;
        let seeds = &self.seeds;
        let predicted = &self.predicted;
        let batch_start = now_ns();
        let ops = run_cells(
            items,
            |it| {
                let start = now_ns();
                let mut built = None;
                let (programs, memories) = shared[it.cell].get_or_init(|| {
                    let (part, m) = &cells[it.cell];
                    let b0 = now_ns();
                    let programs = build_multiphase_programs(D, part.parts(), *m);
                    let b1 = now_ns();
                    let memories = stamped_memories(D, *m);
                    built = Some((b0, b1, now_ns()));
                    (Arc::new(programs), Arc::new(memories))
                });
                it.clock.set(Clock { start, built, ready: now_ns() });
                RunSpec {
                    cfg: SimConfig::ipsc860(D).with_jitter(JITTER, seeds[it.index]),
                    programs: Arc::clone(programs),
                    memories: Memories::Shared(Arc::clone(memories)),
                    trace: None,
                }
            },
            |it, result| {
                let run_end = now_ns();
                let clock = it.clock.get();
                let mut op = SimOp { spans: SpanList::new(traced), ..SimOp::default() };
                let root = op.spans.push("op", clock.start, 0, None, it.op);
                if let Some((b0, b1, b2)) = clock.built {
                    op.spans.push("build", b0, b1, Some(root), it.op);
                    op.spans.push("stamp", b1, b2, Some(root), it.op);
                    op.calls = Counters::from([("build.calls", 1)]);
                }
                let m = cells[it.cell].1;
                match result {
                    Ok(r) => {
                        let compile_ns = r.stats.compile_ns;
                        engine_span(
                            &mut op.spans,
                            "engine",
                            Some(root),
                            (clock.ready, run_end),
                            compile_ns,
                            it.op,
                        );
                        op.ok = verify_slice(
                            D,
                            m,
                            &r.memories,
                            &mut op.calls,
                            &mut op.spans,
                            Some(root),
                            it.op,
                        );
                        op.model_err = Some(rel_err(r.finish_time.as_us(), predicted[it.cell]));
                        op.outcome = SimOutcome::of(&r);
                    }
                    Err(e) => eprintln!("grid_d7 op {} failed: {e}", it.index),
                }
                op.close(root, clock.start);
                op
            },
        );
        batch_round(ops, (batch_start, now_ns()), traced)
    }
}

impl Workload for Grid {
    fn workers(&self) -> usize {
        batch_workers(self.seeds.len())
    }

    fn round(&mut self, traced: bool) -> RoundOut {
        let all: Vec<usize> = (0..self.seeds.len()).collect();
        self.run(&all, traced)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jitter_seeds_repeat_per_seed_and_differ_across_seeds() {
        assert_eq!(jitter_seeds(1, 120), jitter_seeds(1, 120));
        assert_ne!(jitter_seeds(1, 120), jitter_seeds(2, 120));
    }
}
