//! One benchmark for the MT-elastic simulator.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <pipeline|md5|cpu|sweep> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload is a closed loop with one client issuing calls into the
//! crates' public entry points back to back (only `sweep` runs a worker
//! pool behind its client). Every call's outputs are checked against an
//! independent reference. The run sets up `SETUP_REPS` times, makes at
//! least `MIN_PASSES` passes of calls and as many more as fit in
//! `--seconds`, and sets up once more (untimed for the calls) every
//! `SETUP_EVERY` calls; `setup_s` is the median of all the setups, so it
//! samples the host over the whole run.
//!
//! A pass is one call per input of the workload, and every pass repeats
//! the same inputs, so call `i` does the same work as call `i - inputs`;
//! a repeat whose simulated statistics differ from the first run of its
//! input is a failed `replay` check. A shared host can slow one CPU or all
//! of them by up to 2x for seconds to minutes at a time, so the end-to-end
//! timings take each input's fastest repeat: `call_ms_*` are percentiles
//! over inputs of that best time, and the throughputs divide the work of
//! one pass by the sum of the best times. A workload whose calls run on
//! the client thread alone is pinned to the process's CPUs in turn, one
//! pass each, so every input is also repeated on every CPU.
//!
//! `--trace 0` prints the end-to-end metrics. `--trace 1` alternates
//! plain and traced calls: traced calls arm settle timing and record the
//! self-time of each layer the call reaches, timed from outside around
//! that layer's public functions; the remainder is reported as
//! `bench.other_share`, so layers plus remainder add up to the call's
//! wall time. Plain calls of the same run give `bench.trace_overhead`.
//!
//! Simulated statistics (cycles, transfers, IPC, outputs) of the first
//! pass are folded into a digest printed before the result line; that
//! pass also gives every deterministic metric, so a simulator-only change
//! leaves the digest and those metrics identical.
//!
//! `--short` shrinks every workload for the self-test in `tests/`, and
//! `--corrupt` falsifies the first checked result to prove the checks
//! count failures.

mod cpu;
mod md5;
mod pipeline;
mod sweep;
mod util;

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use elastic_sim::{available_workers, Circuit, FusedOpKind, KernelBackend, KernelStats, Token};
use elastic_synth::{ElasticIr, PassManager};

use util::{affinity, median, nanos, percentile, ratio, Digest};

/// End-to-end metrics printed with `--trace 0`, as in `BENCHMARK.json`.
pub const END_TO_END: [(&str, &str); 8] = [
    ("sim_cycles_per_s", "1/s"),
    ("items_per_s", "1/s"),
    ("call_ms_p50", "ms"),
    ("call_ms_p90", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("sim_cycles_per_item", "cycles/item"),
    ("ok_rate", "frac"),
];

/// Per-layer metrics printed with `--trace 1`, as in `BENCHMARK.json`.
pub const PER_LAYER: [(&str, &str); 41] = [
    ("synth.ir_us", "us"),
    ("synth.passes_us", "us"),
    ("synth.elaborate_us", "us"),
    ("synth.fuse_us", "us"),
    ("synth.hash_us", "us"),
    ("sim.settle_ns_per_cycle", "ns"),
    ("sim.ns_per_eval", "ns"),
    ("sim.evals_per_cycle", "evals/cycle"),
    ("sim.rounds_per_cycle", "rounds/cycle"),
    ("sim.single_sweep_frac", "frac"),
    ("sim.settle_share", "frac"),
    ("sim.step_rest_ns_per_cycle", "ns"),
    ("sim.op.meb_reduced", "evals/cycle"),
    ("sim.op.meb_full", "evals/cycle"),
    ("sim.op.source", "evals/cycle"),
    ("sim.op.sink", "evals/cycle"),
    ("sim.op.fork", "evals/cycle"),
    ("sim.op.merge", "evals/cycle"),
    ("sim.op.branch", "evals/cycle"),
    ("sim.op.barrier", "evals/cycle"),
    ("sim.op.varlat", "evals/cycle"),
    ("sim.op.transform", "evals/cycle"),
    ("sim.op.custom", "evals/cycle"),
    ("md5.run_us_per_call", "us"),
    ("md5.elab_share", "frac"),
    ("proc.run_rest_ns_per_cycle", "ns"),
    ("proc.ipc", "instr/cycle"),
    ("core.stall_frac", "frac"),
    ("core.mean_backlog", "cycles"),
    ("par.busy_s", "s"),
    ("par.efficiency", "frac"),
    ("par.idle_s", "s"),
    ("par.job_ms_p90", "ms"),
    ("sweep.hits", "count"),
    ("sweep.misses", "count"),
    ("sweep.hit_frac", "frac"),
    ("sweep.evictions", "count"),
    ("sweep.key_us", "us"),
    ("bench.trace_overhead", "frac"),
    ("bench.other_share", "frac"),
    ("bench.traced_calls", "count"),
];

/// Setups before the first call; the last one is kept for the calls.
const SETUP_REPS: usize = 5;

/// Calls between two further setups, whose result is dropped. It shares
/// no factor with any workload's input count, so the call a setup
/// precedes is a different input from pass to pass.
const SETUP_EVERY: usize = 37;

/// Passes every run makes at least, so every input has a repeat.
const MIN_PASSES: usize = 2;

/// A run stops calling after this long even if `MIN_PASSES` is not met,
/// so it always ends inside the 180 s a run may take.
const HARD_STOP: Duration = Duration::from_secs(120);

/// What one timed call produced.
#[derive(Default)]
pub struct Call {
    /// Host time spent inside the crates' public entry points only.
    pub wall: Duration,
    /// Simulated cycles.
    pub cycles: u64,
    /// Completed work items (tokens, blocks, instructions or points).
    pub items: u64,
    /// Kernel counters of the call, where the entry point exposes them.
    pub kernel: KernelStats,
    /// Traced calls: self-time of each layer nested inside `wall`.
    pub spans: Vec<(&'static str, Duration)>,
    /// Simulated statistics for the digest.
    pub sim_words: Vec<u64>,
    /// Handshake statistics of the MEB output channels.
    pub core: Option<CoreStats>,
}

/// Stall and backlog counters summed over MEB output channels.
#[derive(Clone, Copy, Default)]
pub struct CoreStats {
    pub busy: u64,
    pub stalls: u64,
    pub backlog_hist: [u64; elastic_sim::OCCUPANCY_BUCKETS],
}

impl CoreStats {
    /// Counters of every channel driven by an elastic buffer of `circuit`.
    pub fn of<T: Token>(circuit: &Circuit<T>) -> Self {
        let kinds = circuit.component_kinds();
        let mut s = Self::default();
        for ch in circuit.channel_ids() {
            if kinds[circuit.channel_driver(ch)] != elastic_sim::NetlistNodeKind::Buffer {
                continue;
            }
            let c = circuit.stats().channel(ch);
            s.busy += c.busy_cycles;
            s.stalls += c.total_stall_cycles();
            for (h, v) in s.backlog_hist.iter_mut().zip(c.occupancy_hist) {
                *h += v;
            }
        }
        s
    }

    fn merge(&mut self, o: &CoreStats) {
        self.busy += o.busy;
        self.stalls += o.stalls;
        for (h, v) in self.backlog_hist.iter_mut().zip(o.backlog_hist) {
            *h += v;
        }
    }

    fn mean_backlog(&self) -> f64 {
        let total: u64 = self.backlog_hist.iter().sum();
        let weighted: u64 = (1..)
            .zip(self.backlog_hist)
            .map(|(depth, n)| depth * n)
            .sum();
        ratio(weighted as f64, total as f64)
    }
}

/// Run-wide state a call may touch while checking its outputs.
#[derive(Default)]
pub struct Ctx {
    /// Reference checks run, by kind.
    pub checks: BTreeMap<&'static str, u64>,
    /// Traced calls only: workload-specific measurements outside the
    /// call's wall time (sums, averaged by the workload).
    pub extra: BTreeMap<&'static str, f64>,
    corrupt: bool,
}

impl Ctx {
    pub fn checked(&mut self, kind: &'static str) {
        *self.checks.entry(kind).or_default() += 1;
    }

    /// True once if `--corrupt` asked for a falsified result: the caller
    /// then alters its observed output before comparing it.
    pub fn corrupt_now(&mut self) -> bool {
        std::mem::take(&mut self.corrupt)
    }

    pub fn add(&mut self, key: &'static str, v: f64) {
        *self.extra.entry(key).or_default() += v;
    }

    pub fn get(&self, key: &str) -> f64 {
        self.extra.get(key).copied().unwrap_or(0.0)
    }
}

/// Measurements of the first pass, which repeat exactly for a given
/// seed.
#[derive(Default)]
pub struct Det {
    pub calls: usize,
    pub cycles: u64,
    pub items: u64,
    pub core: Option<CoreStats>,
    pub digest: Digest,
}

/// Traced-call totals.
#[derive(Default)]
pub struct TraceAcc {
    pub calls: u64,
    pub wall: Duration,
    pub cycles: u64,
    pub kernel: KernelStats,
    pub spans: BTreeMap<&'static str, f64>,
    pub other_ns: f64,
    /// Plain calls of the traced run (for the overhead).
    plain_wall: Duration,
    plain_cycles: u64,
}

impl TraceAcc {
    pub fn span(&self, name: &str) -> f64 {
        self.spans.get(name).copied().unwrap_or(0.0)
    }
}

/// One benchmark workload.
pub trait Workload {
    /// Inputs of the workload, which is the number of calls in a pass.
    /// Call `index` runs input `index % inputs()`, and repeats of an input
    /// must simulate exactly what its first run did.
    fn inputs(&self) -> usize;
    /// Makes call `index` and checks its outputs (checks are not timed).
    fn call(&mut self, index: usize, traced: bool, ctx: &mut Ctx) -> Result<Call, String>;
    /// Checks outputs the calls left pending.
    fn finish(&mut self, _ctx: &mut Ctx) -> Result<(), String> {
        Ok(())
    }
    /// Workload-specific per-layer metrics (override the common ones).
    fn layers(&self, acc: &TraceAcc, det: &Det, ctx: &Ctx, out: &mut BTreeMap<&'static str, f64>);
    /// Per-layer metrics this workload cannot reach from outside, and why.
    fn unreachable(&self) -> &'static str {
        ""
    }
    /// True if calls run work on threads other than the client's; such
    /// threads inherit the client's CPUs, so the client is not pinned.
    fn pooled(&self) -> bool {
        false
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    short: bool,
    corrupt: bool,
}

fn parse_args() -> Result<Args, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<String, String> {
        let i = args
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        args.get(i + 1)
            .cloned()
            .ok_or(format!("{flag} needs a value"))
    };
    let number = |flag: &str| -> Result<f64, String> {
        let v = value(flag)?;
        v.parse::<f64>()
            .ok()
            .filter(|x| x.is_finite() && *x >= 0.0)
            .ok_or(format!("{flag}: `{v}` is not a non-negative number"))
    };
    let trace = match value("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace: `{other}` is not 0 or 1")),
    };
    let seed = value("--seed")?;
    Ok(Args {
        workload: value("--workload")?,
        seed: seed
            .parse()
            .map_err(|_| format!("--seed: `{seed}` is not a whole number"))?,
        seconds: number("--seconds")?,
        trace,
        short: args.iter().any(|a| a == "--short"),
        corrupt: args.iter().any(|a| a == "--corrupt"),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let (seed, short) = (args.seed, args.short);
    match args.workload.as_str() {
        "pipeline" => run(&args, || pipeline::Pipeline::setup(seed, short)),
        "md5" => run(&args, || md5::Md5::setup(seed, short)),
        "cpu" => run(&args, || cpu::CpuSort::setup(seed, short)),
        "sweep" => run(&args, || sweep::Sweep::setup(seed, short)),
        other => {
            eprintln!("perfbench: unknown workload `{other}` (pipeline, md5, cpu, sweep)");
            ExitCode::from(2)
        }
    }
}

fn run<W: Workload>(args: &Args, setup: impl Fn() -> W) -> ExitCode {
    let mut setups = Vec::new();
    let mut timed_setup = || {
        let start = Instant::now();
        let w = setup();
        setups.push(start.elapsed().as_secs_f64());
        w
    };
    for _ in 1..SETUP_REPS {
        drop(timed_setup());
    }
    let mut w = timed_setup();
    let inputs = w.inputs();

    let mut ctx = Ctx {
        corrupt: args.corrupt,
        ..Ctx::default()
    };
    let mut det = Det::default();
    let mut acc = TraceAcc::default();
    let (mut attempted, mut failed) = (0usize, 0usize);
    // Per input: the digest of its first run, its fastest run in ms, and
    // its simulated cycles and items.
    let mut first_run: Vec<Option<u64>> = vec![None; inputs];
    let mut best_ms = vec![f64::INFINITY; inputs];
    let mut work = vec![(0u64, 0u64); inputs];
    let budget = Duration::from_secs_f64(args.seconds);
    let start = Instant::now();
    // A pass is finished once begun; the next begins only if a pass as
    // long as the mean so far still ends inside the budget.
    let more = |attempted: usize, elapsed: Duration| {
        let passes = attempted / inputs;
        let wanted = passes < MIN_PASSES
            || !attempted.is_multiple_of(inputs)
            || elapsed + elapsed / passes as u32 <= budget;
        wanted && elapsed < HARD_STOP
    };
    // Read before any pinning narrows it.
    let workers = available_workers();
    let cpus = if w.pooled() {
        Vec::new()
    } else {
        affinity::allowed()
    };
    let mut pinned = cpus.len() > 1;
    while more(attempted, start.elapsed()) {
        let index = attempted;
        if pinned && index.is_multiple_of(inputs) {
            pinned = affinity::pin(cpus[(index / inputs) % cpus.len()]);
        }
        if index > 0 && index.is_multiple_of(SETUP_EVERY) {
            drop(timed_setup());
        }
        let traced = args.trace && index % 2 == 1;
        attempted += 1;
        let outcome = catch_unwind(AssertUnwindSafe(|| w.call(index, traced, &mut ctx)));
        let call = match outcome {
            Ok(Ok(call)) => call,
            Ok(Err(e)) => {
                eprintln!("call {index} failed: {e}");
                failed += 1;
                continue;
            }
            Err(_) => {
                eprintln!("call {index} panicked");
                failed += 1;
                continue;
            }
        };
        let input = index % inputs;
        let mut replay = Digest::default();
        replay.extend([call.cycles, call.items]);
        replay.extend(call.sim_words.iter().copied());
        match first_run[input] {
            None => first_run[input] = Some(replay.value()),
            Some(first) => {
                ctx.checked("replay");
                if first != replay.value() {
                    eprintln!("call {index} failed: input {input} simulated differently on repeat");
                    failed += 1;
                    continue;
                }
            }
        }
        if index < inputs {
            det.calls += 1;
            det.cycles += call.cycles;
            det.items += call.items;
            det.digest.push(call.cycles);
            det.digest.extend(call.sim_words.iter().copied());
            if let Some(core) = &call.core {
                det.core.get_or_insert_with(CoreStats::default).merge(core);
            }
        }
        best_ms[input] = best_ms[input].min(call.wall.as_secs_f64() * 1e3);
        work[input] = (call.cycles, call.items);
        if traced {
            acc.calls += 1;
            acc.wall += call.wall;
            acc.cycles += call.cycles;
            acc.kernel.merge(&call.kernel);
            let mut inside = 0.0;
            for (name, d) in &call.spans {
                *acc.spans.entry(name).or_default() += nanos(*d);
                inside += nanos(*d);
            }
            acc.other_ns += nanos(call.wall) - inside;
        } else if args.trace {
            acc.plain_wall += call.wall;
            acc.plain_cycles += call.cycles;
        }
    }
    match catch_unwind(AssertUnwindSafe(|| w.finish(&mut ctx))) {
        Ok(Ok(())) => {}
        Ok(Err(e)) => {
            eprintln!("final check failed: {e}");
            failed += 1;
        }
        Err(_) => {
            eprintln!("final check panicked");
            failed += 1;
        }
    }

    println!(
        "host nproc={} available_workers={} rustc=\"{}\" commit={} calls={attempted} inputs={inputs} passes={} client_cpus={}",
        online_cpus(),
        workers,
        env!("PERFBENCH_RUSTC"),
        env!("PERFBENCH_COMMIT"),
        attempted / inputs,
        if pinned { cpus.len() } else { 0 },
    );
    println!(
        "digest {}={:016x} over {} calls ({} cycles, {} items)",
        args.workload,
        det.digest.value(),
        det.calls,
        det.cycles,
        det.items
    );
    let checks: Vec<String> = ctx.checks.iter().map(|(k, n)| format!("{k}={n}")).collect();
    println!("checks {}", checks.join(" "));
    println!(
        "error_rate={} ({failed} of {attempted} calls failed)",
        ratio(failed as f64, attempted as f64)
    );

    let mut metrics: Vec<(&str, &str, f64)> = Vec::new();
    if args.trace {
        let mut layer = common_layers(&acc, &det);
        w.layers(&acc, &det, &ctx, &mut layer);
        let mut unreached = Vec::new();
        for (name, unit) in PER_LAYER {
            let v = layer.get(name).copied().unwrap_or_else(|| {
                unreached.push(name);
                0.0
            });
            metrics.push((name, unit, v));
        }
        let wall = nanos(acc.wall);
        let shares: Vec<String> = acc
            .spans
            .iter()
            .map(|(name, ns)| format!("{name}={:.4}", ratio(*ns, wall)))
            .chain([format!("other={:.4}", ratio(acc.other_ns, wall))])
            .collect();
        println!(
            "split of traced call wall ({} calls, shares sum to 1): {}",
            acc.calls,
            shares.join(" ")
        );
        let why = w.unreachable();
        if !unreached.is_empty() {
            println!(
                "not reached on {} (printed as 0, not estimated): {}{}{}",
                args.workload,
                unreached.join(" "),
                if why.is_empty() { "" } else { " -- " },
                why
            );
        }
    } else {
        // Inputs whose every run failed have no time and are left out.
        let timed: Vec<usize> = (0..inputs).filter(|&i| best_ms[i].is_finite()).collect();
        let mut latencies_ms: Vec<f64> = timed.iter().map(|&i| best_ms[i]).collect();
        latencies_ms.sort_by(f64::total_cmp);
        let secs = latencies_ms.iter().sum::<f64>() / 1e3;
        let cycles: u64 = timed.iter().map(|&i| work[i].0).sum();
        let items: u64 = timed.iter().map(|&i| work[i].1).sum();
        let values = [
            ratio(cycles as f64, secs),
            ratio(items as f64, secs),
            percentile(&latencies_ms, 0.5),
            percentile(&latencies_ms, 0.9),
            median(&setups),
            peak_rss_mb(),
            ratio(det.cycles as f64, det.items as f64),
            1.0 - ratio(failed as f64, attempted as f64),
        ];
        for ((name, unit), v) in END_TO_END.into_iter().zip(values) {
            metrics.push((name, unit, v));
        }
    }

    let correct = failed == 0 && metrics.iter().all(|(_, _, v)| v.is_finite());
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, v)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Per-layer metrics every workload derives the same way.
fn common_layers(acc: &TraceAcc, det: &Det) -> BTreeMap<&'static str, f64> {
    let mut m = BTreeMap::new();
    let k = &acc.kernel;
    let stepped = k.stepped_cycles as f64;
    if k.stepped_cycles > 0 {
        m.insert("sim.evals_per_cycle", k.evals_per_cycle());
        m.insert("sim.rounds_per_cycle", k.rounds_per_cycle());
        m.insert(
            "sim.single_sweep_frac",
            k.single_sweep_cycles as f64 / stepped,
        );
        for (kind, &n) in FusedOpKind::ALL.iter().zip(&k.fused_op_evals) {
            if let Some((name, _)) = PER_LAYER
                .iter()
                .find(|(name, _)| name.strip_prefix("sim.op.") == Some(kind.label()))
            {
                m.insert(*name, n as f64 / stepped);
            }
        }
    }
    if k.settle_nanos > 0 {
        let settle = k.settle_nanos as f64;
        m.insert("sim.settle_ns_per_cycle", settle / stepped);
        m.insert("sim.ns_per_eval", ratio(settle, k.component_evals as f64));
        m.insert("sim.settle_share", settle / nanos(acc.wall));
    }
    if let Some(core) = &det.core {
        m.insert(
            "core.stall_frac",
            ratio(core.stalls as f64, core.busy as f64),
        );
        m.insert("core.mean_backlog", core.mean_backlog());
    }
    if acc.calls > 0 {
        m.insert("bench.other_share", acc.other_ns / nanos(acc.wall));
        m.insert("bench.traced_calls", acc.calls as f64);
        let plain = ratio(acc.plain_cycles as f64, acc.plain_wall.as_secs_f64());
        let traced = ratio(acc.cycles as f64, acc.wall.as_secs_f64());
        m.insert("bench.trace_overhead", ratio(plain, traced) - 1.0);
    }
    m
}

/// Times each `synth` layer of one design outside the call: IR build,
/// passes, structural hash, and interpreted against fused elaboration of
/// the same IR. The two elaborations run in an order that alternates
/// with `flip`, so neither always pays for the other's cache warm-up.
pub fn time_synth<T: Token>(
    ctx: &mut Ctx,
    flip: bool,
    ir: impl Fn() -> ElasticIr<T>,
    passes: impl Fn() -> PassManager<T>,
) {
    let t = Instant::now();
    let mut interpreted = ir();
    ctx.add("ir_ns", nanos(t.elapsed()));
    let t = Instant::now();
    passes()
        .run(&mut interpreted)
        .expect("netlist passes lints");
    ctx.add("passes_ns", nanos(t.elapsed()));
    let t = Instant::now();
    std::hint::black_box(interpreted.structural_hash());
    ctx.add("hash_ns", nanos(t.elapsed()));

    let mut fused = ir();
    passes().run(&mut fused).expect("netlist passes lints");
    fused.set_backend(KernelBackend::Fused);
    let elaborate = |ir: ElasticIr<T>| {
        let t = Instant::now();
        let built = ir.elaborate().expect("netlist elaborates");
        (nanos(t.elapsed()), built)
    };
    let ((elab, a), (fuse, b)) = if flip {
        let f = elaborate(fused);
        (elaborate(interpreted), f)
    } else {
        let i = elaborate(interpreted);
        (i, elaborate(fused))
    };
    drop((a, b));
    ctx.add("elab_ns", elab);
    ctx.add("fuse_ns", fuse - elab);
}

/// Inserts the `synth` metrics recorded by [`time_synth`] (or by a
/// workload under the same keys), averaged over `per` designs.
pub fn synth_layers(ctx: &Ctx, per: f64, out: &mut BTreeMap<&'static str, f64>) {
    for (metric, key) in [
        ("synth.ir_us", "ir_ns"),
        ("synth.passes_us", "passes_ns"),
        ("synth.hash_us", "hash_ns"),
        ("synth.elaborate_us", "elab_ns"),
        ("synth.fuse_us", "fuse_ns"),
    ] {
        if let Some(ns) = ctx.extra.get(key) {
            out.insert(metric, ratio(*ns, per) / 1e3);
        }
    }
}

/// Online CPUs of the host, as `nproc --all` counts them.
fn online_cpus() -> usize {
    std::fs::read_to_string("/proc/cpuinfo")
        .map(|s| s.lines().filter(|l| l.starts_with("processor")).count())
        .unwrap_or(0)
}

/// Peak resident set of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}
