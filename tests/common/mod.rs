//! Proptest scaffolding shared by the kernel-equivalence suites
//! (`ranked_schedule.rs`, `fused_kernel.rs`): a randomized MEB network,
//! a deterministic shuffle of its builder insertion order, and a runner
//! that returns the sink captures and the evaluation count.

use mt_elastic::core::{ArbiterKind, Fork, ForkMode, Join, MebKind};
use mt_elastic::sim::{
    CircuitBuilder, Component, EvalMode, KernelBackend, LatencyModel, ReadyPolicy, Sink, Source,
    Tagged, VarLatency,
};
use proptest::prelude::*;

/// The MEB microarchitectures the random networks draw from.
pub fn meb_kind_strategy() -> impl Strategy<Value = MebKind> {
    prop_oneof![
        Just(MebKind::Full),
        Just(MebKind::Reduced),
        (2usize..4).prop_map(|depth| MebKind::Fifo { depth }),
    ]
}

/// Deterministic Fisher–Yates (LCG-driven) over the builder insertion
/// order, so the same `order_seed` always yields the same permutation.
fn shuffle<T>(items: &mut [T], mut seed: u64) {
    for i in (1..items.len()).rev() {
        seed = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let j = (seed >> 33) as usize % (i + 1);
        items.swap(i, j);
    }
}

/// Randomized topology: source → MEB → (fork/join diamond over skewed
/// variable-latency arms, or a single variable-latency unit) → a short
/// MEB chain → randomly-stalling sink.
#[derive(Clone, Debug)]
pub struct NetParams {
    pub threads: usize,
    pub tokens: u64,
    pub kind: MebKind,
    pub diamond: bool,
    pub tail_stages: usize,
    pub p_ready: f64,
    pub seed: u64,
}

/// Per-thread captures plus the evaluation count of the run.
pub type RunResult = (Vec<Vec<(u64, u64)>>, u64);

/// Builds and runs the network under the requested backend and settle
/// mode, adding components in the permutation selected by `order_seed`.
pub fn run_net(
    p: &NetParams,
    backend: KernelBackend,
    mode: EvalMode,
    order_seed: u64,
) -> RunResult {
    let mut b = CircuitBuilder::<Tagged>::new();
    let src_ch = b.channel("src", p.threads);
    let work = b.channel("work", p.threads);
    let mid = b.channel("mid", p.threads);
    let tail = b.channels("tail", p.threads, p.tail_stages + 1);

    let mut comps: Vec<Box<dyn Component<Tagged>>> = Vec::new();
    let mut src = Source::new("src", src_ch, p.threads);
    for t in 0..p.threads {
        src.extend(t, (0..p.tokens).map(|i| Tagged::new(t, i, i)));
    }
    comps.push(Box::new(src));
    comps.push(p.kind.build_with::<Tagged>(
        "head",
        src_ch,
        work,
        p.threads,
        ArbiterKind::RoundRobin,
    ));
    if p.diamond {
        let arm_a = b.channel("arm_a", p.threads);
        let arm_b = b.channel("arm_b", p.threads);
        let done_a = b.channel("done_a", p.threads);
        let done_b = b.channel("done_b", p.threads);
        comps.push(Box::new(Fork::new(
            "split",
            work,
            vec![arm_a, arm_b],
            p.threads,
            ForkMode::Eager,
        )));
        comps.push(Box::new(VarLatency::new(
            "ua",
            arm_a,
            done_a,
            p.threads,
            2,
            LatencyModel::Uniform {
                min: 1,
                max: 3,
                seed: p.seed,
            },
        )));
        comps.push(Box::new(VarLatency::new(
            "ub",
            arm_b,
            done_b,
            p.threads,
            2,
            LatencyModel::Uniform {
                min: 1,
                max: 2,
                seed: p.seed ^ 7,
            },
        )));
        comps.push(Box::new(Join::new(
            "pair",
            vec![done_a, done_b],
            mid,
            p.threads,
            |ins: &[&Tagged]| ins[0].clone(),
        )));
    } else {
        comps.push(Box::new(VarLatency::new(
            "u",
            work,
            mid,
            p.threads,
            2,
            LatencyModel::Uniform {
                min: 1,
                max: 3,
                seed: p.seed,
            },
        )));
    }
    comps.push(p.kind.build_with::<Tagged>(
        "bridge",
        mid,
        tail[0],
        p.threads,
        ArbiterKind::RoundRobin,
    ));
    for i in 0..p.tail_stages {
        comps.push(p.kind.build_with::<Tagged>(
            format!("tail{i}"),
            tail[i],
            tail[i + 1],
            p.threads,
            ArbiterKind::RoundRobin,
        ));
    }
    let out = tail[p.tail_stages];
    comps.push(Box::new(Sink::with_capture(
        "snk",
        out,
        p.threads,
        ReadyPolicy::Random {
            p: p.p_ready,
            seed: p.seed ^ 13,
        },
    )));

    shuffle(&mut comps, order_seed);
    for c in comps {
        b.add_boxed(c);
    }
    if backend == KernelBackend::Fused {
        b.set_fuser(mt_elastic::synth::fuse);
    }
    let mut circuit = b.build().expect("random acyclic net is well-formed");
    circuit.set_eval_mode(mode);
    circuit.set_deadlock_watchdog(Some(400));
    let expected = p.tokens * p.threads as u64;
    let budget = 400 + expected * 24;
    let done = circuit.run_until(budget, move |c| c.stats().total_transfers(out) >= expected);
    assert!(matches!(done, Ok(true)), "net did not drain: {done:?}");
    let snk: &Sink<Tagged> = circuit.get("snk").expect("sink");
    let captures = (0..p.threads)
        .map(|t| {
            snk.captured(t)
                .iter()
                .map(|(c, tok)| (*c, tok.seq))
                .collect()
        })
        .collect();
    (captures, circuit.stats().kernel().component_evals)
}
