//! `pipeline`: a 64-thread reduced-MEB pipeline with seeded random sink
//! stalls, driven by fixed windows of `Circuit::run`. It builds once per
//! epoch (between calls) and has no harness or pool, so settle and the
//! rest of `step` dominate: it isolates `sim` and the `core` MEB and
//! arbiter ops on a full-word `ThreadMask`.
//!
//! A pass of calls is a fixed number of epochs whose stall seeds repeat
//! in every pass, so call `i` of every pass simulates the same window.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use elastic_core::{MebKind, PipelineConfig, PipelineHarness};
use elastic_sim::{KernelBackend, ReadyPolicy, Source, Tagged};

use crate::util::{nanos, ratio, Rng};
use crate::{synth_layers, Call, CoreStats, Ctx, Det, TraceAcc, Workload};

struct Size {
    threads: usize,
    stages: usize,
    /// Cycles per call.
    window: u64,
    /// Calls per epoch; each epoch builds a fresh harness, which bounds
    /// the sink's capture memory. It divides `inputs`.
    windows_per_epoch: usize,
    /// Probability that a thread's sink is ready in a cycle.
    p_ready: f64,
    inputs: usize,
}

const FULL: Size = Size {
    threads: 64,
    stages: 4,
    window: 10_000,
    windows_per_epoch: 25,
    p_ready: 0.02,
    inputs: 100,
};

const SHORT: Size = Size {
    threads: 8,
    stages: 3,
    window: 200,
    windows_per_epoch: 2,
    p_ready: 0.3,
    inputs: 4,
};

/// Before each call every thread's source queue is topped up to this
/// many windows' worth of its fair share of the sink's one token per
/// cycle, so no thread runs dry inside a call.
const FILL_WINDOWS: f64 = 1.5;

pub struct Pipeline {
    size: &'static Size,
    rng: Rng,
    harness: PipelineHarness,
    /// Tokens queued per thread so far in this epoch.
    injected: Vec<u64>,
    epoch: u64,
    windows_done: usize,
}

fn build(size: &Size, tokens: u64, rng: &Rng, backend: KernelBackend) -> PipelineHarness {
    let mut cfg = PipelineConfig::free_flowing(size.threads, size.stages, MebKind::Reduced, tokens);
    for t in 0..size.threads {
        let seed = rng.fork(t as u64).next_u64();
        cfg = cfg.with_sink_policy(
            t,
            ReadyPolicy::Random {
                p: size.p_ready,
                seed,
            },
        );
    }
    if backend == KernelBackend::Fused {
        cfg = cfg.with_backend(backend, Some(elastic_synth::fuse::<Tagged>));
    }
    PipelineHarness::build(cfg)
}

impl Pipeline {
    pub fn setup(seed: u64, short: bool) -> Self {
        let size = if short { &SHORT } else { &FULL };
        let rng = Rng::new(seed);
        let fill = Self::fill(size);
        let harness = build(size, fill, &rng.fork(0), KernelBackend::Fused);
        Self {
            size,
            rng,
            harness,
            injected: vec![fill; size.threads],
            epoch: 0,
            windows_done: 0,
        }
    }

    fn fill(size: &Size) -> u64 {
        (size.window as f64 * FILL_WINDOWS / size.threads as f64).ceil() as u64
    }

    /// Queues fresh tokens so every thread has `fill` pending (untimed).
    fn top_up(&mut self) {
        let fill = Self::fill(self.size) as usize;
        let source: &mut Source<Tagged> = self
            .harness
            .circuit
            .get_mut("src")
            .expect("harness source exists");
        for (t, next) in self.injected.iter_mut().enumerate() {
            while source.pending(t) < fill {
                source.push(t, Tagged::new(t, *next, *next));
                *next += 1;
            }
        }
    }

    /// Drains the epoch's queued tokens (untimed) and checks that every
    /// thread's tokens reached the sink complete, in order and once.
    fn check_epoch(&mut self, ctx: &mut Ctx) -> Result<(), String> {
        let total: u64 = self.injected.iter().sum();
        let limit = self.harness.circuit.cycle() + 64 * total;
        while self.harness.sink().consumed_total() < total && self.harness.circuit.cycle() < limit {
            self.harness
                .circuit
                .run(self.size.window)
                .map_err(|e| format!("drain: {e}"))?;
        }
        let corrupt = ctx.corrupt_now();
        for (t, &injected) in self.injected.iter().enumerate() {
            let mut seqs: Vec<u64> = self
                .harness
                .sink()
                .captured(t)
                .iter()
                .map(|(_, tok)| tok.seq)
                .collect();
            if corrupt && t == 0 {
                seqs.swap(0, 1);
            }
            ctx.checked("pipeline_stream");
            if !seqs.iter().copied().eq(0..injected) {
                return Err(format!(
                    "epoch {}: thread {t} delivered {} tokens out of order, duplicated or \
                     incomplete (expected seq 0..{injected})",
                    self.epoch,
                    seqs.len(),
                ));
            }
        }
        Ok(())
    }
}

impl Workload for Pipeline {
    fn inputs(&self) -> usize {
        self.size.inputs
    }

    fn call(&mut self, _index: usize, traced: bool, ctx: &mut Ctx) -> Result<Call, String> {
        if self.windows_done == self.size.windows_per_epoch {
            let checked = self.check_epoch(ctx);
            self.epoch += 1;
            self.windows_done = 0;
            let epochs_per_pass = (self.size.inputs / self.size.windows_per_epoch) as u64;
            let rng = self.rng.fork(self.epoch % epochs_per_pass);
            let fill = Self::fill(self.size);
            self.harness = build(self.size, fill, &rng, KernelBackend::Fused);
            self.injected = vec![fill; self.size.threads];
            checked?;
            if traced {
                // Elaboration cost of this design with and without lowering.
                // The order alternates so neither build always pays for the
                // other's cache warm-up.
                let time = |backend| {
                    let t = Instant::now();
                    let built = build(self.size, fill, &rng, backend);
                    (nanos(t.elapsed()), built)
                };
                let ((elab, a), (fuse, b)) = if self.epoch.is_multiple_of(2) {
                    let f = time(KernelBackend::Fused);
                    (time(KernelBackend::Interpreted), f)
                } else {
                    let i = time(KernelBackend::Interpreted);
                    (i, time(KernelBackend::Fused))
                };
                drop((a, b));
                ctx.add("elab_ns", elab);
                ctx.add("fuse_ns", fuse - elab);
                ctx.add("builds", 1.0);
            }
        }
        self.windows_done += 1;
        self.top_up();
        let consumed = self.harness.sink().consumed_total();
        let circuit = &mut self.harness.circuit;
        circuit.set_settle_timing(traced);
        circuit.reset_stats();

        let start = Instant::now();
        circuit.run(self.size.window).map_err(|e| e.to_string())?;
        let wall = start.elapsed();

        let kernel = *circuit.stats().kernel();
        let sim_words = circuit
            .stats()
            .iter()
            .flat_map(|c| [c.total_transfers(), c.total_stall_cycles()])
            .collect();
        let core = CoreStats::of(circuit);
        let source = self.harness.source();
        if (0..self.size.threads).any(|t| source.pending(t) == 0) {
            return Err("a thread's source ran dry inside a call (raise FILL_WINDOWS)".into());
        }
        let mut spans = Vec::new();
        if traced {
            spans.push(("sim.settle", Duration::from_nanos(kernel.settle_nanos)));
        }
        Ok(Call {
            wall,
            cycles: self.size.window,
            items: self.harness.sink().consumed_total() - consumed,
            kernel,
            spans,
            sim_words,
            core: Some(core),
        })
    }

    fn finish(&mut self, ctx: &mut Ctx) -> Result<(), String> {
        self.check_epoch(ctx)
    }

    fn layers(&self, acc: &TraceAcc, _det: &Det, ctx: &Ctx, out: &mut BTreeMap<&'static str, f64>) {
        // Calls are `Circuit::run` alone, so the remainder of each call
        // beyond settle is phases 2-4 of `step`.
        out.insert(
            "sim.step_rest_ns_per_cycle",
            ratio(acc.other_ns, acc.kernel.stepped_cycles as f64),
        );
        synth_layers(ctx, ctx.get("builds"), out);
    }

    fn unreachable(&self) -> &'static str {
        "the harness is built by CircuitBuilder, bypassing the IR, passes and hashing"
    }
}
