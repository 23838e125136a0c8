//! `cpu`: the paper's Sec. V-B multithreaded processor. Eight threads
//! each insertion-sort their own seeded words in data memory, through
//! `Cpu::new` (from a program the benchmark generates and assembles at
//! setup), `set_mem` and `run_to_halt`. Settle is dominated by `Custom`
//! ops (fetcher, registers, data memory) and variable-latency units, and
//! `run_to_halt` drives `step()` with transfer collection and looks up the
//! fetcher by name every cycle: a different harness path from `md5`'s.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use elastic_proc::{assemble, Cpu, CpuConfig};
use elastic_sim::KernelBackend;
use elastic_synth::{CycleCoverLint, MebSubstitution, PassManager, ProtocolLint};

use crate::util::{ratio, Rng};
use crate::{synth_layers, time_synth, Call, CoreStats, Ctx, Det, TraceAcc, Workload};

struct Size {
    /// Words each thread sorts.
    words: usize,
    /// Data sets generated at setup; each pass of calls runs every one.
    inputs: usize,
}

const FULL: Size = Size {
    words: 16,
    inputs: 100,
};

const SHORT: Size = Size {
    words: 4,
    inputs: 3,
};

const THREADS: usize = 8;
/// Each thread's words start at `tid << REGION_SHIFT`.
const REGION_SHIFT: u32 = 6;
const MAX_CYCLES: u64 = 5_000_000;

/// Insertion sort of `n` unsigned words at `tid << REGION_SHIFT`.
fn sort_program(n: usize) -> String {
    format!(
        "      tid  r1
      sll  r10, r1, {REGION_SHIFT}   # base
      addi r2, r0, 1       # i = 1
outer:
      addi r3, r0, {n}
      beq  r2, r3, done
      add  r4, r10, r2
      lw   r5, 0(r4)       # key = a[i]
      mov  r6, r4          # p = &a[i]
inner:
      beq  r6, r10, place  # p == base
      lw   r7, -1(r6)
      sltu r8, r5, r7      # key < a[p - 1] ?
      beq  r8, r0, place
      sw   r7, 0(r6)       # shift a[p - 1] up
      addi r6, r6, -1
      j    inner
place:
      sw   r5, 0(r6)
      addi r2, r2, 1
      j    outer
done:
      halt
"
    )
}

struct DataSet {
    words: Vec<Vec<u32>>,
    latency_seed: u64,
}

pub struct CpuSort {
    size: &'static Size,
    config: CpuConfig,
    program: Vec<u32>,
    data: Vec<DataSet>,
}

fn base(thread: usize) -> usize {
    thread << REGION_SHIFT
}

impl CpuSort {
    pub fn setup(seed: u64, short: bool) -> Self {
        let size = if short { &SHORT } else { &FULL };
        let rng = Rng::new(seed);
        let data = (0..size.inputs)
            .map(|i| {
                let mut r = rng.fork(i as u64);
                DataSet {
                    words: (0..THREADS)
                        .map(|_| (0..size.words).map(|_| r.next_u64() as u32).collect())
                        .collect(),
                    latency_seed: r.next_u64(),
                }
            })
            .collect();
        let program = assemble(&sort_program(size.words)).expect("sort program assembles");
        let config = CpuConfig::new(THREADS).with_backend(KernelBackend::Fused);
        drop(Cpu::new(config.clone(), program.clone(), vec![0; THREADS]));
        Self {
            size,
            config,
            program,
            data,
        }
    }
}

impl Workload for CpuSort {
    fn inputs(&self) -> usize {
        self.size.inputs
    }

    fn call(&mut self, index: usize, traced: bool, ctx: &mut Ctx) -> Result<Call, String> {
        let set = &self.data[index % self.data.len()];
        let config = self.config.clone().with_seed(set.latency_seed);

        let start = Instant::now();
        let mut cpu = Cpu::new(config.clone(), self.program.clone(), vec![0; THREADS]);
        let built = start.elapsed();
        for (t, words) in set.words.iter().enumerate() {
            for (j, &w) in words.iter().enumerate() {
                cpu.set_mem(base(t) + j, w);
            }
        }
        cpu.circuit.set_settle_timing(traced);
        let run_start = Instant::now();
        let stats = cpu.run_to_halt(MAX_CYCLES).map_err(|e| e.to_string())?;
        let run = run_start.elapsed();
        let wall = start.elapsed();

        let corrupt = ctx.corrupt_now();
        for (t, words) in set.words.iter().enumerate() {
            let mut expected = words.clone();
            expected.sort_unstable();
            let mut got: Vec<u32> = (0..words.len()).map(|j| cpu.mem(base(t) + j)).collect();
            if corrupt && t == 0 {
                got.swap(0, words.len() - 1);
            }
            ctx.checked("cpu_sort");
            if got != expected {
                return Err(format!("thread {t}: data memory is not the sorted input"));
            }
        }

        let kernel = *cpu.circuit.stats().kernel();
        let mut sim_words = stats.executed.clone();
        sim_words.extend(cpu.circuit.stats().iter().map(|c| c.total_transfers()));
        sim_words.push(stats.ipc.to_bits());
        let mut spans = Vec::new();
        if traced {
            let settle = Duration::from_nanos(kernel.settle_nanos);
            spans.push(("synth.build", built));
            spans.push(("sim.settle", settle));
            spans.push(("proc.run_rest", run.saturating_sub(settle)));
            time_synth(
                ctx,
                index % 4 == 1,
                || Cpu::ir(&config, self.program.clone(), vec![0; THREADS]).ir,
                || {
                    PassManager::new()
                        .with(MebSubstitution::auto(config.meb).with_arbiter(config.arbiter))
                        .with(ProtocolLint)
                        .with(CycleCoverLint)
                },
            );
        }
        Ok(Call {
            wall,
            cycles: stats.cycles,
            items: stats.executed.iter().sum(),
            kernel,
            spans,
            sim_words,
            core: Some(CoreStats::of(&cpu.circuit)),
        })
    }

    fn layers(&self, acc: &TraceAcc, det: &Det, ctx: &Ctx, out: &mut BTreeMap<&'static str, f64>) {
        out.insert("proc.ipc", ratio(det.items as f64, det.cycles as f64));
        let calls = acc.calls as f64;
        if calls == 0.0 {
            return;
        }
        out.insert(
            "proc.run_rest_ns_per_cycle",
            ratio(acc.span("proc.run_rest"), acc.cycles as f64),
        );
        synth_layers(ctx, calls, out);
    }

    fn unreachable(&self) -> &'static str {
        "run_to_halt drives step(), not Circuit::run; its phases 2-4 are in proc.run_rest_ns_per_cycle"
    }
}
