//! `plan_stream`: one closed-loop client calling `PlanEngine::answer`
//! over d ∈ {6, 8, 10} — the only workload that exercises `mce_plan`.
//!
//! The seeded condition pool holds twice the default hull-cache
//! capacity (16 shards × 64), and popularity is skewed, so hits, hull
//! builds and evictions all occur. Every [`FALLBACK_EVERY`]-th query
//! carries a dense-hotspot `NetCondition` at d6, which
//! `FallbackPolicy::Auto` sends to the simulator.
//!
//! Each round replays the same query stream. The stream visits every
//! pool entry at least once, so each cache shard sees more distinct
//! keys per round than it holds, and the LRU state at the end of a
//! round depends on that round's queries alone: after the set-up's warm
//! pass every round starts from the same cache state, and its counters
//! repeat exactly.

use crate::rng::Rng;
use crate::spans::{now_ns, SpanList};
use crate::workload::{Counters, RoundOut, Workload};
use mce_model::{conditioned_best_partition, ConditionSummary, MachineParams};
use mce_partitions::Partition;
use mce_plan::fallback::simulate_answer;
use mce_plan::{AnswerSource, PlanAnswer, PlanEngine, PlanOptions, PlanQuery, PlanStats};
use mce_simnet::conformance::hotspot_condition;
use mce_simnet::SimConfig;
use std::collections::BTreeMap;

/// Cube dimensions of the hull-path pool.
const DIMS: [u32; 3] = [6, 8, 10];
/// Distinct hull-path conditions: twice the default cache capacity.
pub const POOL: usize = 2 * 16 * 64;
/// Queries per round, fallbacks included.
pub const STREAM: usize = 8192;
/// One query in this many is a simulator fallback. Fallbacks are the
/// slowest calls by three orders of magnitude. At two a round, a run
/// holds a few dozen, so the tail (the sample with ten beyond it) falls
/// inside them and measures what a fallback costs; with hundreds it
/// would measure the host's worst stalls instead.
pub const FALLBACK_EVERY: usize = 4096;
/// Dense-hotspot stream counts of the fallback conditions (both out of
/// the model's accuracy envelope at d6) ...
const FALLBACK_LEVELS: [u32; 2] = [48, 56];
/// ... crossed with these block sizes.
const FALLBACK_SIZES: [usize; 1] = [40];
const FALLBACK_D: u32 = 6;

/// One hull-path condition: background streams `(path mask, busy µs)`
/// with a 2400 µs period, summarized without a simulator.
#[derive(Debug, Clone, PartialEq)]
pub struct PoolCond {
    pub d: u32,
    pub streams: Vec<(u32, f64)>,
}

impl PoolCond {
    fn summary(&self) -> ConditionSummary {
        let mut c = ConditionSummary::noop(self.d);
        for &(mask, busy) in &self.streams {
            c.add_stream(mask, busy, 2400.0);
        }
        c
    }
}

/// One query of the stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Query {
    /// Pool condition `cond` at block size `m`.
    Hull { cond: usize, m: f64 },
    /// Fallback condition `FALLBACK_LEVELS[level]` at `FALLBACK_SIZES[size]`.
    Fallback { level: usize, size: usize },
}

/// The seeded pool and query stream.
pub fn generate(seed: u64) -> (Vec<PoolCond>, Vec<Query>) {
    let mut rng = Rng::new(seed, 0x91a);
    let pool: Vec<PoolCond> = (0..POOL)
        .map(|i| {
            let d = DIMS[i % DIMS.len()];
            let streams = (0..1 + rng.below(3))
                .map(|_| (1 + rng.below((1 << d) - 1) as u32, 40.0 + 400.0 * rng.unit()))
                .collect();
            PoolCond { d, streams }
        })
        .collect();
    // Skewed popularity: a seeded rank order over the pool, drawn with
    // probability ∝ 1 / rank, on top of one visit per entry. Ranks take
    // the dimensions in turn, so every seed gives each dimension the
    // same share of the popular conditions, and the hull-build cost of
    // a round does not depend on the seed.
    let mut per_dim: Vec<Vec<usize>> =
        (0..DIMS.len()).map(|k| (k..POOL).step_by(DIMS.len()).collect()).collect();
    for list in &mut per_dim {
        rng.shuffle(list);
    }
    let by_rank: Vec<usize> = (0..POOL).map(|r| per_dim[r % DIMS.len()][r / DIMS.len()]).collect();
    let cumulative: Vec<f64> = (1..=POOL)
        .scan(0.0, |acc, r| {
            *acc += 1.0 / r as f64;
            Some(*acc)
        })
        .collect();
    let total = *cumulative.last().expect("pool");
    let fallbacks = STREAM / FALLBACK_EVERY;
    let mut conds: Vec<usize> = (0..POOL).collect();
    while conds.len() < STREAM - fallbacks {
        let u = rng.unit() * total;
        let rank = cumulative.partition_point(|&c| c < u).min(POOL - 1);
        conds.push(by_rank[rank]);
    }
    rng.shuffle(&mut conds);
    // Every fallback condition equally often, in a seeded order.
    let cast = FALLBACK_LEVELS.len() * FALLBACK_SIZES.len();
    let mut fb: Vec<usize> = (0..fallbacks).map(|i| i % cast).collect();
    rng.shuffle(&mut fb);
    let mut conds = conds.into_iter();
    let mut fb = fb.into_iter();
    let queries = (0..STREAM)
        .map(|i| {
            if i % FALLBACK_EVERY == FALLBACK_EVERY - 1 {
                let k = fb.next().expect("fallback count");
                Query::Fallback { level: k / FALLBACK_SIZES.len(), size: k % FALLBACK_SIZES.len() }
            } else {
                let cond = conds.next().expect("hull count");
                Query::Hull { cond, m: (1 + rng.below(1024)) as f64 }
            }
        })
        .collect();
    (pool, queries)
}

pub struct Plan {
    engine: PlanEngine,
    machine: MachineParams,
    summaries: Vec<ConditionSummary>,
    queries: Vec<PlanQuery>,
    stream: Vec<Query>,
    /// Answers of the first timed round, checked after the loop.
    first_answers: Option<Vec<PlanAnswer>>,
    next_op: u64,
}

fn fallback_cfg(machine: &MachineParams, level: usize) -> SimConfig {
    let mut cfg = SimConfig::ipsc860(FALLBACK_D);
    cfg.params = machine.clone();
    cfg.with_netcond(hotspot_condition(FALLBACK_D, FALLBACK_LEVELS[level]))
}

impl Plan {
    pub fn setup(seed: u64, spans: &mut SpanList) -> Plan {
        let t0 = now_ns();
        let machine = MachineParams::ipsc860();
        let (pool, stream) = generate(seed);
        let summaries: Vec<ConditionSummary> = pool.iter().map(PoolCond::summary).collect();
        let queries: Vec<PlanQuery> = stream
            .iter()
            .map(|q| match *q {
                Query::Hull { cond, m } => PlanQuery::clean(pool[cond].d, m, machine.clone())
                    .with_summary(summaries[cond].clone()),
                Query::Fallback { level, size } => {
                    PlanQuery::clean(FALLBACK_D, FALLBACK_SIZES[size] as f64, machine.clone())
                        .with_netcond(hotspot_condition(FALLBACK_D, FALLBACK_LEVELS[level]))
                }
            })
            .collect();
        let t1 = now_ns();
        spans.push("model", t0, t1, None, u64::MAX);
        // The cold hull fill: one batch query per pool entry.
        let engine = PlanEngine::new(PlanOptions::default());
        let fill: Vec<PlanQuery> = pool
            .iter()
            .zip(&summaries)
            .map(|(c, s)| PlanQuery::clean(c.d, 40.0, machine.clone()).with_summary(s.clone()))
            .collect();
        engine.answer_batch(&fill);
        let t2 = now_ns();
        spans.push("plan.fill", t1, t2, None, u64::MAX);
        // Warm pass over the hull queries, so the first timed round
        // starts from the cache state every later round starts from.
        for (q, s) in queries.iter().zip(&stream) {
            if let Query::Hull { .. } = s {
                engine.answer(q);
            }
        }
        spans.push("plan.warm", t2, now_ns(), None, u64::MAX);
        Plan { engine, machine, summaries, queries, stream, first_answers: None, next_op: 0 }
    }
}

fn counters(before: PlanStats, after: PlanStats) -> Counters {
    Counters::from([
        ("plan.hits", after.hits - before.hits),
        ("plan.misses", after.misses - before.misses),
        ("plan.evictions", after.evictions - before.evictions),
        ("plan.fallbacks", after.fallbacks - before.fallbacks),
        ("plan.fallback_errors", after.fallback_errors - before.fallback_errors),
    ])
}

fn answer_words(a: &PlanAnswer) -> impl Iterator<Item = u64> + '_ {
    let source = match a.source {
        AnswerSource::Hull => 0,
        AnswerSource::Fallback => 1,
    };
    a.best_partition.parts().iter().map(|&p| p as u64).chain([
        u64::MAX,
        a.predicted_us.to_bits(),
        source,
    ])
}

impl Workload for Plan {
    fn workers(&self) -> usize {
        1
    }

    fn round(&mut self, traced: bool) -> RoundOut {
        let mut out = RoundOut { spans: SpanList::new(traced), ..RoundOut::default() };
        let round_before = self.engine.stats();
        let mut answers = Vec::with_capacity(self.queries.len());
        for q in &self.queries {
            self.next_op += 1;
            let before = if traced { Some(self.engine.stats()) } else { None };
            let t0 = now_ns();
            let a = self.engine.answer(q);
            let t1 = now_ns();
            out.latencies_ns.push(t1 - t0);
            if let Some(before) = before {
                // Classify the call from its answer and the counter
                // delta it caused.
                let name = if a.source == AnswerSource::Fallback {
                    "plan.fallback"
                } else if self.engine.stats().misses > before.misses {
                    "plan.build"
                } else {
                    "plan.hit"
                };
                out.spans.push(name, t0, t1, None, self.next_op);
            }
            out.digest.words(answer_words(&a));
            answers.push(a);
        }
        out.counters = counters(round_before, self.engine.stats());
        self.first_answers.get_or_insert(answers);
        out
    }

    fn final_check(&mut self, rounds: usize) -> u64 {
        let Some(answers) = &self.first_answers else { return 0 };
        // Each distinct question is asked of the reference once. Rounds
        // repeat the stream and their digests are checked equal, so one
        // round's answers stand for all.
        let mut expected: BTreeMap<(usize, u64), Option<(Partition, f64)>> = BTreeMap::new();
        let mut bad_ops = 0u64;
        let (mut max_err, mut over, mut hull_answers) = (0.0f64, 0u64, 0u64);
        for (q, a) in self.stream.iter().zip(answers) {
            let (want, source, exact) = match *q {
                Query::Hull { cond, m } => {
                    let s = &self.summaries[cond];
                    let want = expected.entry((cond, m.to_bits())).or_insert_with(|| {
                        Some(conditioned_best_partition(&self.machine, m, s.dimension(), s))
                    });
                    (want, AnswerSource::Hull, false)
                }
                Query::Fallback { level, size } => {
                    let want =
                        expected.entry((usize::MAX - level, size as u64)).or_insert_with(|| {
                            simulate_answer(
                                &fallback_cfg(&self.machine, level),
                                FALLBACK_SIZES[size],
                            )
                            .ok()
                        });
                    (want, AnswerSource::Fallback, true)
                }
            };
            // The answer is the decision: the winning partition, and for
            // a fallback the simulated time, which repeats exactly. A hull
            // answer's predicted time is an affine recombination of the
            // model, documented to stay within 1e-9 of it; its deviation
            // is reported below rather than failed, since it does not
            // change the decision.
            let ok = want.as_ref().is_some_and(|(best, t)| {
                a.source == source && a.best_partition == *best && (!exact || a.predicted_us == *t)
            });
            if let (false, Some((_, t))) = (exact, want.as_ref()) {
                let err = (a.predicted_us - t).abs() / t;
                max_err = max_err.max(err);
                over += u64::from(err > 1e-9);
                hull_answers += 1;
            }
            if !ok {
                eprintln!("plan_stream: wrong answer to {q:?}: got {a:?}, reference {want:?}");
                bad_ops += 1;
            }
        }
        println!(
            "hull predictions vs conditioned model: max relative error {max_err:e}; \
             {over} of {hull_answers} answers beyond the documented 1e-9"
        );
        bad_ops * rounds as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_repeats_per_seed_and_differs_across_seeds() {
        let a = generate(11);
        assert_eq!(a, generate(11));
        let b = generate(12);
        assert_ne!(a.0, b.0);
        assert_ne!(a.1, b.1);
    }

    #[test]
    fn stream_shape() {
        let (pool, stream) = generate(1);
        assert_eq!((pool.len(), stream.len()), (POOL, STREAM));
        let mut visits = vec![0usize; POOL];
        let mut fallbacks = BTreeMap::new();
        for q in &stream {
            match *q {
                Query::Hull { cond, m } => {
                    visits[cond] += 1;
                    assert!((1.0..=1024.0).contains(&m));
                }
                Query::Fallback { level, size } => {
                    *fallbacks.entry((level, size)).or_insert(0) += 1
                }
            }
        }
        // Every pool entry at least once, and popularity is skewed.
        assert!(visits.iter().all(|&v| v >= 1));
        assert!(*visits.iter().max().unwrap() > 100);
        // The most popular conditions cover every dimension evenly.
        let mut ranked: Vec<usize> = (0..POOL).collect();
        ranked.sort_by_key(|&i| std::cmp::Reverse(visits[i]));
        for d in DIMS {
            let top = ranked[..30].iter().filter(|&&i| pool[i].d == d).count();
            assert!((5..=15).contains(&top), "d{d}: {top} of the top 30");
        }
        // Each fallback condition equally often.
        assert_eq!(fallbacks.len(), FALLBACK_LEVELS.len() * FALLBACK_SIZES.len());
        assert!(fallbacks.values().all(|&c| c == STREAM / FALLBACK_EVERY / fallbacks.len()));
        // Pool streams stay inside each cube.
        assert!(pool
            .iter()
            .all(|c| c.streams.iter().all(|&(mask, _)| mask > 0 && mask < 1 << c.d)));
    }
}
