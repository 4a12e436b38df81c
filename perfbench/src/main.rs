//! `mce-perfbench`: the repository's one benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <grid_d7|tenants_d6|exchange_d11|plan_stream|all> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The process pins itself to one CPU. A run repeats rounds of ops for
//! `--seconds`, with bursts of set-ups spread over it (`setup_s` is the
//! median set-up time), checks every op's output, and checks that the
//! deterministic counters and outcome digest repeat exactly from round
//! to round. The last line of stdout is one JSON object: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`. A
//! traced run interleaves traced and untraced rounds, so it also
//! measures the tracing overhead, and writes its spans to
//! `perfbench/out/` at exit. See `METRICS.md`.

mod exchange;
mod grid;
mod plan;
mod report;
mod rng;
mod spans;
mod stats;
mod tenants;
mod workload;

use report::{Metric, Timed};
use spans::{now_ns, SpanList};
use std::io::Write;
use std::process::ExitCode;
use workload::Workload;

const WORKLOADS: [&str; 4] = ["grid_d7", "tenants_d6", "exchange_d11", "plan_stream"];

/// Set-up bursts per run, `setup_s` being the median of all their
/// set-ups. A burst repeats set-ups until it has lasted
/// `SETUP_BURST_NS`, so cheap set-ups get many samples.
const SETUP_BURSTS: u64 = 5;
const SETUP_BURST_NS: u64 = 200_000_000;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let num = || value.parse::<u64>().map_err(|e| format!("{flag} {value}: {e}"));
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?),
            "--trace" => trace = Some(num()?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?} or all"));
    }
    let seconds = seconds.unwrap_or(10);
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    let trace = match trace.unwrap_or(0) {
        0 => false,
        1 => true,
        t => return Err(format!("--trace {t}: 0 or 1")),
    };
    Ok(Args { workload, seed: seed.unwrap_or(1), seconds, trace })
}

fn setup(name: &str, seed: u64, spans: &mut SpanList) -> Box<dyn Workload> {
    match name {
        "grid_d7" => Box::new(grid::Grid::setup(seed, spans)),
        "tenants_d6" => Box::new(tenants::Tenants::setup(seed, spans)),
        "exchange_d11" => Box::new(exchange::Exchange::setup(seed, spans)),
        "plan_stream" => Box::new(plan::Plan::setup(seed, spans)),
        _ => unreachable!("workload names are checked when parsed"),
    }
}

extern "C" {
    // glibc, which std links already.
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// Pin this process to the highest-numbered CPU it may run on, before
/// it starts any thread. Every fan-out (batch workers, shard windows,
/// the compile pipeline) sizes itself by the CPUs the process may use,
/// so the whole benchmark then runs on one worker. On a shared host
/// with few cores, two workers measure the scheduler and the other
/// tenants as much as the program: a stall of either core stalls every
/// join. Returns the CPU, or `None` if the mask could not be read or
/// set (the benchmark then runs unpinned).
fn pin_to_one_cpu() -> Option<usize> {
    const WORDS: usize = 16; // 1024 CPUs, glibc's cpu_set_t
    let mut mask = [0u64; WORDS];
    // SAFETY: `mask` is a writable buffer of exactly the size passed.
    if unsafe { sched_getaffinity(0, WORDS * 8, mask.as_mut_ptr()) } != 0 {
        return None;
    }
    let cpu = (0..WORDS * 64).rev().find(|&c| mask[c / 64] >> (c % 64) & 1 == 1)?;
    let mut one = [0u64; WORDS];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a readable buffer of exactly the size passed.
    (unsafe { sched_setaffinity(0, WORDS * 8, one.as_ptr()) } == 0).then_some(cpu)
}

/// Host peak resident memory of this process, MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// Outcome of one workload run.
struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
}

fn run(name: &str, args: &Args) -> Result<Outcome, String> {
    let trace = args.trace;
    println!(
        "workload {name} seed {} seconds {} trace {} (nproc {})",
        args.seed,
        args.seconds,
        u8::from(trace),
        workload::batch_workers(usize::MAX)
    );
    // Set-up bursts spread evenly over the run, with timed rounds
    // between them: `setup_s` is the median of every set-up, so, like
    // the op metrics, it sees the whole run rather than one moment of
    // the host. Each set-up starts from nothing and replaces the
    // workload the rounds run on. A traced run alternates untraced and
    // traced rounds and needs at least one of each.
    let budget = args.seconds * 1_000_000_000;
    let mut setup_s = Vec::new();
    let mut setup_spans = SpanList::new(trace);
    let mut wl: Option<Box<dyn Workload>> = None;
    let mut bursts = 0;
    let mut rounds: Vec<Timed> = Vec::new();
    let start = now_ns();
    loop {
        if bursts < SETUP_BURSTS && now_ns() - start >= bursts * budget / SETUP_BURSTS {
            let burst_start = now_ns();
            loop {
                drop(wl.take());
                let mut inner = SpanList::new(trace);
                let t0 = now_ns();
                wl = Some(setup(name, args.seed, &mut inner));
                let t1 = now_ns();
                let root = setup_spans.push("setup", t0, t1, None, u64::MAX);
                setup_spans.adopt(inner, Some(root));
                setup_s.push((t1 - t0) as f64 * 1e-9);
                if t1 - burst_start >= SETUP_BURST_NS {
                    break;
                }
            }
            bursts += 1;
        }
        let wl = wl.as_mut().expect("a set-up precedes every round");
        let traced = trace && rounds.len() % 2 == 1;
        let t0 = now_ns();
        let out = wl.round(traced);
        let t1 = now_ns();
        rounds.push(Timed { traced, wall_ns: t1 - t0, out });
        if t1 - start >= budget && bursts == SETUP_BURSTS && (!trace || rounds.len() >= 2) {
            break;
        }
    }
    let mut wl = wl.expect("at least one set-up");
    println!("set-ups {}, workers {}", setup_s.len(), wl.workers());
    let checked_failures = wl.final_check(rounds.len());
    drop(wl);

    // Exact repeats: every round's counters and outcome digest.
    let first = &rounds[0].out;
    let mut repeats = true;
    for (i, t) in rounds.iter().enumerate().skip(1) {
        if t.out.counters != first.counters || t.out.digest != first.digest {
            repeats = false;
            eprintln!("{name}: round {i} does not repeat round 0");
            for (k, v) in &t.out.counters {
                if first.counters.get(k) != Some(v) {
                    eprintln!("  {k}: {v} vs {:?}", first.counters.get(k));
                }
            }
        }
    }
    let attempted: u64 = rounds.iter().map(|t| t.out.latencies_ns.len() as u64).sum();
    let failed = rounds.iter().map(|t| t.out.failed).sum::<u64>() + checked_failures;
    println!(
        "rounds {} ops {attempted} failed {failed}; digest {:016x} and {} counters {} across rounds",
        rounds.len(),
        first.digest.0,
        first.counters.len(),
        if repeats { "repeat exactly" } else { "DIFFER" }
    );
    let counters: Vec<String> = first.counters.iter().map(|(k, v)| format!("{k}={v}")).collect();
    println!("counters per round: {}", counters.join(" "));

    let plain: Vec<&Timed> = rounds.iter().filter(|t| !t.traced).collect();
    let e2e = report::end_to_end(&setup_s, &plain, peak_rss_mb()?, failed);
    for m in &e2e.metrics {
        println!("  {:<22} {:>16.4} {}", m.name, m.value, m.unit);
    }
    for line in &e2e.extra {
        println!("  {line}");
    }
    let metrics = if trace {
        let layers = report::per_layer(&setup_spans, &rounds);
        for m in &layers {
            println!("  {:<28} {:>16.4} {}", m.name, m.value, m.unit);
        }
        println!(
            "dominant layer: op {}, set-up {}",
            report::dominant(&report::self_split(&report::traced_spans(&rounds))),
            report::dominant(&report::self_split(&setup_spans))
        );
        write_spans(name, args.seed, &setup_spans, &rounds);
        layers
    } else {
        e2e.metrics
    };
    Ok(Outcome { correct: repeats && failed == 0, attempted, failed, metrics })
}

/// Write every recorded span as JSON lines under `perfbench/out/`.
fn write_spans(name: &str, seed: u64, setup: &SpanList, rounds: &[Timed]) {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!("spans-{name}-seed{seed}.jsonl"));
    let write = || -> std::io::Result<()> {
        std::fs::create_dir_all(&dir)?;
        let mut f = std::io::BufWriter::new(std::fs::File::create(&path)?);
        setup.write_jsonl(&mut f)?;
        for t in rounds.iter().filter(|t| t.traced) {
            t.out.spans.write_jsonl(&mut f)?;
        }
        f.flush()
    };
    match write() {
        Ok(()) => println!("spans written to {}", path.display()),
        Err(e) => eprintln!("could not write spans to {}: {e}", path.display()),
    }
}

/// Reset the peak-RSS mark to the current RSS before each workload of
/// `all`. Memory an earlier workload left resident still counts.
fn reset_peak_rss() {
    if let Err(e) = std::fs::write("/proc/self/clear_refs", "5") {
        eprintln!("could not reset peak RSS: {e}");
    }
}

fn json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, m.value, m.unit))
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("mce-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match pin_to_one_cpu() {
        Some(cpu) => println!("pinned to cpu {cpu}"),
        None => eprintln!("mce-perfbench: could not pin to one cpu; running unpinned"),
    }
    let names: Vec<&str> =
        if args.workload == "all" { WORKLOADS.to_vec() } else { vec![args.workload.as_str()] };
    let (mut correct, mut attempted, mut failed) = (true, 0, 0);
    let mut metrics = Vec::new();
    for name in &names {
        if names.len() > 1 {
            reset_peak_rss();
        }
        let outcome = match run(name, &args) {
            Ok(o) => o,
            Err(e) => {
                eprintln!("mce-perfbench: {name}: {e}");
                return ExitCode::FAILURE;
            }
        };
        correct &= outcome.correct;
        attempted += outcome.attempted;
        failed += outcome.failed;
        metrics.extend(outcome.metrics.into_iter().map(|m| Metric {
            name: if names.len() > 1 { format!("{name}.{}", m.name) } else { m.name },
            ..m
        }));
    }
    println!("{}", json(correct, attempted, failed, &metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
