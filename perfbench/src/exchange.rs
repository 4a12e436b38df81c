//! `exchange_d11`: Bokhari's `[5,6]` exchange on 2048 nodes, m = 40,
//! 64 shards, declared pairwise-synchronized — the large-cube headline
//! and the only workload where sharding does work.
//!
//! Set-up builds the program set, stamps the memories and runs once
//! cold; each op is one warm sharded run of the shared program set on a
//! persistent arena plus `verify_complete_exchange`.
//!
//! Sharding needs a jitter-free run without network conditions, and the
//! memory stamps are fixed by `mce_core::verify`, so this workload's
//! inputs are the same for every seed.

use crate::spans::{now_ns, SpanList};
use crate::workload::{engine_span, rel_err, verify_slice, RoundOut, SimOp, SimOutcome, Workload};
use mce_core::builder::build_multiphase_programs;
use mce_core::verify::stamped_memories;
use mce_simnet::batch::{Memories, RunSpec};
use mce_simnet::conformance::predicted_us;
use mce_simnet::{Program, SimArena, SimConfig, SimResult};
use std::sync::Arc;

const D: u32 = 11;
const DIMS: [u32; 2] = [5, 6];
const M: usize = 40;
const SHARDS: u32 = 64;

pub struct Exchange {
    cfg: SimConfig,
    programs: Arc<Vec<Program>>,
    memories: Arc<Vec<Vec<u8>>>,
    arena: SimArena,
    predicted: f64,
    next_op: u64,
}

impl Exchange {
    pub fn setup(_seed: u64, spans: &mut SpanList) -> Exchange {
        let t0 = now_ns();
        let programs = Arc::new(build_multiphase_programs(D, &DIMS, M));
        let t1 = now_ns();
        let memories = Arc::new(stamped_memories(D, M));
        let t2 = now_ns();
        spans.push("build", t0, t1, None, u64::MAX);
        spans.push("stamp", t1, t2, None, u64::MAX);
        let cfg = SimConfig::ipsc860(D).with_shards(SHARDS).with_declared_sync();
        let predicted = predicted_us(&cfg, &DIMS, M);
        let mut ex =
            Exchange { cfg, programs, memories, arena: SimArena::new(), predicted, next_op: 0 };
        // The first run: cold compile into the arena's cache.
        let warm = ex.op(spans.is_on());
        spans.adopt(warm.spans, None);
        assert_eq!(warm.failed, 0, "exchange_d11 set-up op failed");
        ex
    }

    fn run(&mut self, cfg: &SimConfig) -> Result<SimResult, mce_simnet::SimError> {
        self.arena.run_spec(RunSpec {
            cfg: cfg.clone(),
            programs: Arc::clone(&self.programs),
            memories: Memories::Shared(Arc::clone(&self.memories)),
            trace: None,
        })
    }

    fn op(&mut self, traced: bool) -> RoundOut {
        self.next_op += 1;
        let id = self.next_op;
        let mut op = SimOp { spans: SpanList::new(traced), ..SimOp::default() };
        let start = now_ns();
        let root = op.spans.push("op", start, 0, None, id);
        let cfg = self.cfg.clone();
        let result = self.run(&cfg);
        let run_end = now_ns();
        match result {
            Ok(r) => {
                engine_span(
                    &mut op.spans,
                    "engine",
                    Some(root),
                    (start, run_end),
                    r.stats.compile_ns,
                    id,
                );
                op.ok =
                    verify_slice(D, M, &r.memories, &mut op.calls, &mut op.spans, Some(root), id);
                op.model_err = Some(rel_err(r.finish_time.as_us(), self.predicted));
                op.outcome = SimOutcome::of(&r);
            }
            Err(e) => eprintln!("exchange_d11 op {id} failed: {e}"),
        }
        op.close(root, start);
        let mut out = RoundOut { spans: std::mem::take(&mut op.spans), ..RoundOut::default() };
        out.absorb(op);
        out
    }
}

impl Workload for Exchange {
    fn workers(&self) -> usize {
        crate::workload::batch_workers(SHARDS as usize)
    }

    fn round(&mut self, traced: bool) -> RoundOut {
        let mut out = self.op(traced);
        if traced {
            // The shard layer's net effect, measured from outside: the
            // same program set on the sequential engine, outside the op.
            // Sharded runs are bit-identical to sequential ones, so a
            // differing outcome fails the op.
            let t0 = now_ns();
            let seq = SimConfig::ipsc860(D);
            let result = self.run(&seq);
            let t1 = now_ns();
            let same = result.as_ref().is_ok_and(|r| {
                let mut d = crate::rng::Digest::default();
                d.words(SimOutcome::of(r).words);
                d == out.digest
            });
            if !same {
                eprintln!("exchange_d11: sequential reference run disagrees with the sharded run");
                out.failed += 1;
            }
            let compile_ns = result.map_or(0, |r| r.stats.compile_ns);
            engine_span(&mut out.spans, "engine_seq", None, (t0, t1), compile_ns, u64::MAX);
        }
        out
    }
}
