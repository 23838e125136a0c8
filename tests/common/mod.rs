//! Proptest scaffolding shared by the kernel-equivalence suites
//! (`ranked_schedule.rs`, `fused_kernel.rs`): a randomized MEB network,
//! a deterministic shuffle of its builder insertion order, and a runner
//! that returns the sink captures and the evaluation count.

use mt_elastic::core::{ArbiterKind, Barrier, Branch, Fork, ForkMode, Join, MebKind, Merge};
use mt_elastic::sim::{
    CircuitBuilder, Component, EvalMode, KernelBackend, LatencyModel, ReadyPolicy, SimError, Sink,
    Source, Tagged, Transform, VarLatency,
};
use proptest::prelude::*;

/// Trips every token makes around the ring (MD5 makes one per round).
const RING_TRIPS: u64 = 4;

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

/// The middle section of the random network, between the head MEB and
/// the tail chain.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Shape {
    /// A single variable-latency unit.
    Chain,
    /// An eager fork/join diamond over skewed variable-latency arms.
    Diamond,
    /// The MD5 loop shape: merge → MEB → Transform → MEB → Barrier →
    /// Branch, each token looping [`RING_TRIPS`] times before it exits.
    /// `masked` restricts the barrier to the even threads; the others
    /// pass it freely.
    Ring { masked: bool },
}

impl Shape {
    /// Whether the shape closes a (damped) combinational feedback cycle,
    /// where the fixed point may legitimately depend on evaluation order.
    pub fn has_feedback(self) -> bool {
        self != Shape::Chain
    }
}

/// Every [`Shape`], the ring with and without a participant mask.
pub fn shape_strategy() -> impl Strategy<Value = Shape> {
    prop_oneof![
        Just(Shape::Chain),
        Just(Shape::Diamond),
        any::<bool>().prop_map(|masked| Shape::Ring { masked }),
    ]
}

/// Randomized topology: source → MEB → a [`Shape`] → a short MEB chain →
/// randomly-stalling sink.
#[derive(Clone, Debug)]
pub struct NetParams {
    pub threads: usize,
    pub tokens: u64,
    pub kind: MebKind,
    pub shape: Shape,
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
    try_run_net(p, backend, mode, order_seed).expect("net runs clean")
}

/// [`run_net`], returning the first simulation error instead of
/// panicking on it (a net that runs clean but never drains still
/// panics).
pub fn try_run_net(
    p: &NetParams,
    backend: KernelBackend,
    mode: EvalMode,
    order_seed: u64,
) -> Result<RunResult, SimError> {
    let mut b = CircuitBuilder::<Tagged>::new();
    let src_ch = b.channel("src", p.threads);
    let work = b.channel("work", p.threads);
    let mid = b.channel("mid", p.threads);
    let tail = b.channels("tail", p.threads, p.tail_stages + 1);

    let mut comps: Vec<Box<dyn Component<Tagged>>> = Vec::new();
    let ring = matches!(p.shape, Shape::Ring { .. });
    let mut src = Source::new("src", src_ch, p.threads);
    for t in 0..p.threads {
        // The ring is fed one token per thread at a time (see below);
        // the open shapes take every token up front.
        let queued = if ring { 1 } else { p.tokens };
        src.extend(t, (0..queued).map(|i| Tagged::new(t, i, 0)));
    }
    comps.push(Box::new(src));
    comps.push(p.kind.build_with::<Tagged>(
        "head",
        src_ch,
        work,
        p.threads,
        ArbiterKind::RoundRobin,
    ));
    match p.shape {
        Shape::Chain => {
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
        Shape::Diamond => {
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
        }
        Shape::Ring { masked } => {
            let lp = b.channel("loop", p.threads);
            let [into, staged, stepped, buffered, released] =
                ["ring_in", "staged", "stepped", "buffered", "released"]
                    .map(|name| b.channel(name, p.threads));
            comps.push(Box::new(Merge::new(
                "entry",
                vec![lp, work],
                into,
                p.threads,
            )));
            comps.push(p.kind.build_with::<Tagged>(
                "meb_in",
                into,
                staged,
                p.threads,
                ArbiterKind::RoundRobin,
            ));
            // The payload counts trips, like MD5's `steps_done`.
            comps.push(Box::new(Transform::new(
                "step",
                staged,
                stepped,
                p.threads,
                |tok: &Tagged| Tagged::new(tok.thread, tok.seq, tok.payload + 1),
            )));
            comps.push(p.kind.build_with::<Tagged>(
                "meb_out",
                stepped,
                buffered,
                p.threads,
                ArbiterKind::RoundRobin,
            ));
            let mut barrier = Barrier::new("barrier", buffered, released, p.threads);
            if masked {
                barrier = barrier.with_participants((0..p.threads).map(|t| t % 2 == 0).collect());
            }
            comps.push(Box::new(barrier));
            comps.push(Box::new(Branch::new(
                "exit",
                released,
                mid,
                lp,
                p.threads,
                |tok: &Tagged| tok.payload >= RING_TRIPS,
            )));
        }
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
    if ring {
        // Like the MD5 harness, admit a thread's next token only once its
        // previous one has left the ring: a ring filled with tokens and
        // no bubble deadlocks, and one token per thread always finds its
        // own MEB slot free on the way round.
        let mut fed = vec![1u64; p.threads];
        while circuit.stats().total_transfers(out) < expected {
            assert!(circuit.cycle() < budget, "ring did not drain");
            circuit.run(1)?;
            for (t, fed) in fed.iter_mut().enumerate() {
                if *fed < p.tokens && circuit.stats().transfers(mid, t) == *fed {
                    let src: &mut Source<Tagged> = circuit.get_mut("src").expect("source");
                    src.push(t, Tagged::new(t, *fed, 0));
                    *fed += 1;
                }
            }
        }
    } else {
        let done =
            circuit.run_until(budget, move |c| c.stats().total_transfers(out) >= expected)?;
        assert!(done, "net did not drain");
    }
    let snk: &Sink<Tagged> = circuit.get("snk").expect("sink");
    let captures = (0..p.threads)
        .map(|t| {
            snk.captured(t)
                .iter()
                .map(|(c, tok)| (*c, tok.seq))
                .collect()
        })
        .collect();
    Ok((captures, circuit.stats().kernel().component_evals))
}
