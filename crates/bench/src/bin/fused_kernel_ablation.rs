//! Fused settle-kernel ablation: interpreted vs fused vs exhaustive
//! oracle on the packed-handshake workloads.
//!
//! For every workload the campaign runs the *same* circuit under three
//! kernels —
//!
//! * `interpreted` — event-driven dirty-set kernel, `Box<dyn Component>`
//!   vtable dispatch (the reference);
//! * `fused` — event-driven dirty-set kernel executing the lowered
//!   [`elastic_synth::fuse`] op table (linear `match` dispatch, word-level
//!   `Source`/`Sink`/`ReducedMeb` specialisations);
//! * `oracle` — the exhaustive full-resweep kernel, interpreted dispatch
//!   (the semantic gold standard) —
//!
//! asserts the sink-capture digests are byte-identical across all three,
//! prints the fused run's per-op eval breakdown, and writes
//! `BENCH_fused_kernel.json`. The pipeline workloads (S = 8/16/64) carry
//! a **gate**: the fused *settle wall* — the accumulated phase-1 time
//! reported by [`KernelStats::settle_nanos`] under
//! `Circuit::set_settle_timing`, i.e. exactly the phase the backend
//! changes — must be at least 1.5x faster than interpreted or the binary
//! exits nonzero (disable with `--no-gate` for exploratory runs on noisy
//! machines). Whole-run wall times are reported alongside for context;
//! the tick/capture/stats phases they include are identical code across
//! backends by construction.
//!
//! ```text
//! cargo run --release --bin fused_kernel_ablation
//! cargo run --release --bin fused_kernel_ablation -- --reps 9 --out BENCH_fused_kernel.json
//! ```

use std::process::ExitCode;
use std::time::{Duration, Instant};

use elastic_core::{MebKind, PipelineConfig, PipelineHarness};
use elastic_md5::{Md5Error, Md5Hasher};
use elastic_proc::{programs, Cpu, CpuConfig};
use elastic_sim::{
    EvalMode, FusedOpKind, KernelBackend, KernelStats, ReadyPolicy, SimError, Tagged,
};

/// One pipeline workload of the campaign (mirrors `packed_handshake`).
#[derive(Clone, Copy)]
struct Case {
    name: &'static str,
    threads: usize,
    stages: usize,
    tokens: u64,
    cycles: u64,
    seed: u64,
}

const CASES: [Case; 3] = [
    Case {
        name: "pipeline S=8",
        threads: 8,
        stages: 12,
        tokens: 240,
        cycles: 2_400,
        seed: 0x0805,
    },
    Case {
        name: "pipeline S=16",
        threads: 16,
        stages: 8,
        tokens: 120,
        cycles: 2_400,
        seed: 0x1605,
    },
    Case {
        name: "pipeline S=64",
        threads: 64,
        stages: 4,
        tokens: 30,
        cycles: 2_400,
        seed: 0x6405,
    },
];

/// Which kernel a measurement ran under.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Kernel {
    Interpreted,
    Fused,
    Oracle,
}

impl Kernel {
    const ALL: [Kernel; 3] = [Kernel::Interpreted, Kernel::Fused, Kernel::Oracle];

    fn label(self) -> &'static str {
        match self {
            Kernel::Interpreted => "interpreted",
            Kernel::Fused => "fused",
            Kernel::Oracle => "oracle",
        }
    }
}

/// FNV-1a over the capture dump: a short stable digest for identity
/// checks across kernels.
fn fnv1a(bytes: &[u8]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x1_0000_01b3);
    }
    format!("{h:016x}")
}

/// One timed execution: digest, whole-run wall time (construction
/// excluded where the harness allows), kernel counters — including the
/// settle-phase nanoseconds when the workload armed settle timing.
struct Run {
    digest: String,
    wall: Duration,
    stats: KernelStats,
}

impl Run {
    /// The metric compared across kernels: the settle-loop wall when the
    /// workload armed settle timing (every row does; md5 through
    /// `Md5Hasher::hash_messages_instrumented`), the whole-run wall
    /// otherwise.
    fn metric_nanos(&self) -> u64 {
        if self.stats.settle_nanos > 0 {
            self.stats.settle_nanos
        } else {
            self.wall.as_nanos() as u64
        }
    }
}

/// Runs one pipeline case once under `kernel`.
fn run_pipeline(case: Case, kernel: Kernel) -> Result<Run, SimError> {
    let mut cfg =
        PipelineConfig::free_flowing(case.threads, case.stages, MebKind::Reduced, case.tokens);
    for t in 0..case.threads {
        cfg.sink_policies[t] = ReadyPolicy::Random {
            p: 0.6,
            seed: case.seed ^ t as u64,
        };
    }
    cfg = match kernel {
        Kernel::Interpreted => cfg,
        Kernel::Fused => {
            cfg.with_backend(KernelBackend::Fused, Some(elastic_synth::fuse::<Tagged>))
        }
        Kernel::Oracle => cfg.with_eval_mode(EvalMode::Exhaustive),
    };
    let mut h = PipelineHarness::build(cfg);
    h.circuit.set_settle_timing(true);
    let start = Instant::now();
    h.circuit.run(case.cycles)?;
    let wall = start.elapsed();
    let captures: Vec<Vec<(u64, u64)>> = (0..case.threads)
        .map(|t| {
            h.sink()
                .captured(t)
                .iter()
                .map(|(c, tok)| (*c, tok.seq))
                .collect()
        })
        .collect();
    Ok(Run {
        digest: fnv1a(format!("{captures:?}").as_bytes()),
        wall,
        stats: *h.circuit.stats().kernel(),
    })
}

/// The Sec. V-A MD5 circuit, 8 threads. The instrumented hasher arms
/// settle timing, so the row compares settle walls like the others; its
/// whole-run wall includes elaboration (the hasher rebuilds its circuit
/// per call). The row is informational, not gated.
fn run_md5(kernel: Kernel) -> Result<Run, SimError> {
    let msgs: Vec<Vec<u8>> = (0..8)
        .map(|i| format!("fused kernel message {i}").into_bytes())
        .collect();
    let refs: Vec<&[u8]> = msgs.iter().map(|m| m.as_slice()).collect();
    let mut hasher = Md5Hasher::new(8, MebKind::Reduced);
    hasher = match kernel {
        Kernel::Interpreted => hasher,
        Kernel::Fused => hasher.with_backend(KernelBackend::Fused),
        Kernel::Oracle => hasher.with_eval_mode(EvalMode::Exhaustive),
    };
    let start = Instant::now();
    let (digests, cycles, stats) =
        hasher
            .hash_messages_instrumented(&refs)
            .map_err(|e| match e {
                Md5Error::Sim(s) => s,
                other => panic!("md5 harness misconfigured: {other}"),
            })?;
    let wall = start.elapsed();
    Ok(Run {
        digest: fnv1a(format!("{digests:?} in {cycles} cycles").as_bytes()),
        wall,
        stats,
    })
}

/// The Sec. V-B processor running the sieve on 4 threads (seeded
/// variable latencies — deterministic across kernels).
fn run_proc(kernel: Kernel) -> Result<Run, SimError> {
    let mut config = CpuConfig::new(4);
    if kernel == Kernel::Fused {
        config = config.with_backend(KernelBackend::Fused);
    }
    let mut cpu = Cpu::from_asm(config, programs::SIEVE).expect("sieve assembles");
    if kernel == Kernel::Oracle {
        cpu.circuit.set_eval_mode(EvalMode::Exhaustive);
    }
    cpu.circuit.set_settle_timing(true);
    let start = Instant::now();
    let stats = cpu.run_to_halt(2_000_000).expect("sieve halts");
    let wall = start.elapsed();
    let regs: Vec<Vec<u32>> = (0..4)
        .map(|t| (0..8).map(|r| cpu.reg(t, r)).collect())
        .collect();
    Ok(Run {
        digest: fnv1a(format!("{regs:?} in {} cycles", stats.cycles).as_bytes()),
        wall,
        stats: *cpu.circuit.stats().kernel(),
    })
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    let get = |flag: &str| -> Option<String> {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1).cloned())
    };
    let reps: u32 = get("--reps").map_or(7, |r| r.parse().expect("--reps N"));
    let details = args.iter().any(|a| a == "--details");
    let gate = !args.iter().any(|a| a == "--no-gate");
    let out = get("--out").unwrap_or_else(|| "BENCH_fused_kernel.json".into());

    // (name, gated, runner) — every workload runs under all three kernels.
    type Runner = Box<dyn Fn(Kernel) -> Result<Run, SimError>>;
    let mut workloads: Vec<(&'static str, bool, Runner)> = Vec::new();
    for case in CASES {
        workloads.push((case.name, true, Box::new(move |k| run_pipeline(case, k))));
    }
    workloads.push(("md5 8t", false, Box::new(run_md5)));
    workloads.push(("proc sieve 4t", false, Box::new(run_proc)));

    println!("fused_kernel_ablation ({reps} reps, best-of, settle-wall gated)\n");
    println!(
        "{:<16} {:>12} {:>10} {:>10} {:>8} {:>10} {:>18}",
        "workload", "interp ms", "fused ms", "oracle ms", "speedup", "wall x", "digest"
    );
    println!("{}", "-".repeat(92));

    let mut rows = Vec::new();
    let mut fused_totals = [0u64; FusedOpKind::COUNT];
    let mut min_gated_speedup = f64::INFINITY;
    for (name, gated, runner) in &workloads {
        // Interleave kernel repetitions (I, F, O, I, F, O, …) and keep
        // the best metric per kernel: slow machine drift — frequency
        // ramps, steal bursts on shared vCPUs — then lands on every
        // kernel equally instead of on whichever block ran last.
        let mut best: Vec<Option<Run>> = vec![None, None, None];
        for _rep in 0..=reps {
            for (ki, kernel) in Kernel::ALL.into_iter().enumerate() {
                let run =
                    runner(kernel).unwrap_or_else(|e| panic!("{name} [{}]: {e}", kernel.label()));
                match &mut best[ki] {
                    None => best[ki] = Some(run),
                    Some(b) => {
                        assert_eq!(
                            run.digest,
                            b.digest,
                            "{name} [{}]: digest unstable across repetitions",
                            kernel.label()
                        );
                        if run.metric_nanos() < b.metric_nanos() {
                            *b = run;
                        }
                    }
                }
            }
        }
        let runs: Vec<Run> = best
            .into_iter()
            .map(|b| b.expect("at least one repetition ran"))
            .collect();
        let [interp, fused, oracle] = <[Run; 3]>::try_from(runs).ok().expect("three kernels");
        assert_eq!(
            interp.digest, fused.digest,
            "{name}: fused kernel diverged from interpreted"
        );
        assert_eq!(
            interp.digest, oracle.digest,
            "{name}: event-driven kernels diverged from the exhaustive oracle"
        );
        // Gate metric: settle-loop wall (armed on every row). The
        // whole-run ratio rides along as context.
        let speedup = interp.metric_nanos() as f64 / (fused.metric_nanos() as f64).max(1e-12);
        let wall_speedup = interp.wall.as_secs_f64() / fused.wall.as_secs_f64().max(1e-12);
        if *gated {
            min_gated_speedup = min_gated_speedup.min(speedup);
        }
        // The fused run must have answered every eval from the op table.
        let fused_evals: u64 = fused.stats.fused_op_evals.iter().sum();
        assert_eq!(
            fused_evals, fused.stats.component_evals,
            "{name}: fused run has evals outside the op table"
        );
        for (acc, d) in fused_totals
            .iter_mut()
            .zip(fused.stats.fused_op_evals.iter())
        {
            *acc += *d;
        }
        if details {
            for (kernel, run) in Kernel::ALL.into_iter().zip([&interp, &fused, &oracle]) {
                let evals = run.stats.component_evals.max(1);
                println!(
                    "  {name} [{}]: {} evals, {} rounds, {:.1} ns/eval, hist {:?}",
                    kernel.label(),
                    run.stats.component_evals,
                    run.stats.settle_rounds,
                    run.metric_nanos() as f64 / evals as f64,
                    run.stats.settle_round_hist
                );
            }
        }
        let settle_ms = |r: &Run| r.metric_nanos() as f64 / 1e6;
        println!(
            "{name:<16} {:>12.3} {:>10.3} {:>10.3} {speedup:>7.2}x {wall_speedup:>9.2}x {:>18}",
            settle_ms(&interp),
            settle_ms(&fused),
            settle_ms(&oracle),
            interp.digest
        );
        rows.push(format!(
            "    {{\"workload\": \"{name}\", \"interpreted_settle_ms\": {:.3}, \
             \"fused_settle_ms\": {:.3}, \"oracle_settle_ms\": {:.3}, \
             \"interpreted_wall_ms\": {:.3}, \"fused_wall_ms\": {:.3}, \
             \"oracle_wall_ms\": {:.3}, \"speedup\": {speedup:.3}, \
             \"wall_speedup\": {wall_speedup:.3}, \
             \"gated\": {gated}, \"digest\": \"{}\", \"digests_identical\": true}}",
            settle_ms(&interp),
            settle_ms(&fused),
            settle_ms(&oracle),
            ms(interp.wall),
            ms(fused.wall),
            ms(oracle.wall),
            interp.digest
        ));
    }

    println!("\nper-op fused evals (all workloads, best reps):");
    let mut op_rows = Vec::new();
    for kind in FusedOpKind::ALL {
        let n = fused_totals[kind as usize];
        if n > 0 {
            println!("  {:<12} {n:>12}", kind.label());
            op_rows.push(format!(
                "    {{\"op\": \"{}\", \"evals\": {n}}}",
                kind.label()
            ));
        }
    }

    let json = format!(
        "{{\n  \"bench\": \"fused_kernel_ablation\",\n  \"reps\": {reps},\n  \
         \"min_gated_speedup\": {min_gated_speedup:.3},\n  \
         \"gate\": 1.5,\n  \"digests_identical\": true,\n  \
         \"workloads\": [\n{}\n  ],\n  \"fused_op_evals\": [\n{}\n  ]\n}}\n",
        rows.join(",\n"),
        op_rows.join(",\n")
    );
    std::fs::write(&out, json).expect("write output file");
    println!("\nwrote {out} (min gated speedup {min_gated_speedup:.2}x)");

    if gate && min_gated_speedup < 1.5 {
        eprintln!(
            "GATE FAILED: fused/interpreted speedup {min_gated_speedup:.2}x \
             below the 1.5x floor on a pipeline workload"
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
