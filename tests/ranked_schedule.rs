//! Property tests for the build-time levelized rank schedule.
//!
//! Two equivalence bars, in decreasing strength:
//!
//! 1. **Kernel soundness** — for every shuffled builder insertion order,
//!    the event-driven dirty-set kernel must match the exhaustive oracle
//!    byte for byte. Holds unconditionally.
//! 2. **Insertion-order independence** — on *signal-acyclic* nets every
//!    eval is a pure function of the handshake state, the cycle's fixed
//!    point is unique, and the captures are identical across builder
//!    insertion orders (the purity argument of `docs/kernel.md`).
//!    The fork/join diamond and the MD5-shaped ring are deliberately
//!    *excluded* from this bar: the Join's valid→ready coupling closes a
//!    (damped) signal cycle through the two variable-latency arms, the
//!    ring closes one through its loopback merge, and on feedback
//!    channels the anti-swap hysteresis legitimately picks an
//!    order-dependent — but individually valid — fixed point. There the
//!    weaker guarantee is token conservation per thread.
//!
//! A deterministic S = 8 pipeline test then pins the rank schedule's
//! one-round settle and the backends' identical work.

mod common;

use common::{meb_kind_strategy, run_net, shape_strategy, NetParams};
use mt_elastic::core::{MebKind, PipelineConfig, PipelineHarness};
use mt_elastic::sim::{EvalMode, KernelBackend, KernelStats, ReadyPolicy, Tagged};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Both equivalence bars on random topologies, including shuffled
    /// builder insertion orders.
    #[test]
    fn schedules_and_oracle_agree_on_random_topologies(
        threads in 1usize..4,
        tokens in 1u64..12,
        kind in meb_kind_strategy(),
        shape in shape_strategy(),
        tail_stages in 0usize..3,
        p_ready in 0.3f64..1.0,
        seed in any::<u64>(),
        order_seed in any::<u64>(),
    ) {
        let p = NetParams { threads, tokens, kind, shape, tail_stages, p_ready, seed };
        let run = |mode, order_seed| run_net(&p, KernelBackend::Interpreted, mode, order_seed).0;
        let fast = run(EvalMode::EventDriven, order_seed);

        // Bar 1: the dirty-set kernel matches the exhaustive oracle on
        // every topology.
        let oracle = run(EvalMode::Exhaustive, order_seed);
        prop_assert_eq!(
            &fast, &oracle,
            "event-driven kernel diverged from the exhaustive oracle"
        );
        if shape.has_feedback() {
            // Feedback (damped) signal cycle through the join: insertion
            // orders may settle on different — individually valid —
            // arbitration orders, but never lose or forge tokens.
            for (t, caps) in fast.iter().enumerate() {
                let mut seqs: Vec<u64> = caps.iter().map(|&(_, s)| s).collect();
                seqs.sort_unstable();
                prop_assert_eq!(&seqs, &(0..tokens).collect::<Vec<_>>(), "thread {}", t);
            }
        } else {
            // Bar 2: a different builder insertion order must not change
            // behaviour on acyclic nets — the rank schedule (and the
            // fixed point itself) is a property of the netlist, not of
            // construction order.
            let reshuffled = run(EvalMode::EventDriven, order_seed ^ 0xDEAD_BEEF);
            prop_assert_eq!(
                &fast, &reshuffled,
                "builder insertion order leaked into behaviour"
            );
        }
    }
}

/// Runs the 8-thread × 8-stage reduced-MEB pipeline for 1,500 cycles and
/// returns its per-thread captures and kernel counters. `backpressured`
/// adds irregular per-thread sink stalls so downstream ready keeps
/// changing.
fn run_s8(
    backpressured: bool,
    mode: EvalMode,
    backend: KernelBackend,
) -> (Vec<Vec<(u64, u64)>>, KernelStats) {
    const THREADS: usize = 8;
    const STAGES: usize = 8;
    let fuser = match backend {
        KernelBackend::Fused => Some(mt_elastic::synth::fuse::<Tagged> as _),
        KernelBackend::Interpreted => None,
    };
    let mut cfg = PipelineConfig::free_flowing(THREADS, STAGES, MebKind::Reduced, 64)
        .with_eval_mode(mode)
        .with_backend(backend, fuser);
    if backpressured {
        for t in 0..THREADS {
            cfg.sink_policies[t] = ReadyPolicy::Random {
                p: 0.35,
                seed: 0xC0FFEE ^ t as u64,
            };
        }
    }
    let mut h = PipelineHarness::build(cfg);
    h.circuit.run(1_500).expect("S = 8 pipeline runs clean");
    let captures = (0..THREADS)
        .map(|t| {
            h.sink()
                .captured(t)
                .iter()
                .map(|(c, tok)| (*c, tok.seq))
                .collect()
        })
        .collect();
    (captures, *h.circuit.stats().kernel())
}

/// The rank schedule settles the straight S = 8 pipeline in one round
/// per cycle; under backpressure the interpreted, fused and exhaustive
/// kernels capture identically, and the fused backend performs exactly
/// the interpreted evaluation and round counts.
#[test]
fn s8_pipeline_settles_in_one_round_and_backends_agree() {
    let (_, straight) = run_s8(false, EvalMode::EventDriven, KernelBackend::Interpreted);
    let straight_mean = straight.rounds_per_cycle();
    assert!(
        straight_mean <= 1.05,
        "straight pipeline settle-round mean {straight_mean:.3} exceeds 1.05"
    );

    let (interp, ik) = run_s8(true, EvalMode::EventDriven, KernelBackend::Interpreted);
    let (fused, fk) = run_s8(true, EvalMode::EventDriven, KernelBackend::Fused);
    let (oracle, _) = run_s8(true, EvalMode::Exhaustive, KernelBackend::Interpreted);
    assert_eq!(interp, fused, "fused captures diverged from interpreted");
    assert_eq!(
        interp, oracle,
        "event-driven captures diverged from the oracle"
    );
    assert_eq!(
        fk.component_evals, ik.component_evals,
        "fused backend changed the evaluation count"
    );
    assert_eq!(
        fk.settle_rounds, ik.settle_rounds,
        "fused backend changed the settle-round count"
    );
}
