//! Equivalence property tests for the fused settle-kernel backend.
//!
//! The fused backend compiles the elaborated netlist into a dense op
//! table and replaces per-eval vtable dispatch with a linear `match`;
//! it must be *behaviourally invisible*. The bars, all byte-for-byte on
//! the sink captures:
//!
//! 1. **Backend transparency** — for every shuffled builder insertion
//!    order and both settle modes (event-driven, exhaustive oracle), the
//!    fused backend matches the interpreted backend exactly. This holds on feedback topologies
//!    too: the fused fast paths fall back to the interpreted selection
//!    logic wherever hysteretic damping makes the trajectory
//!    order-sensitive.
//! 2. **Kernel soundness under fusion** — the fused event-driven kernel
//!    matches the fused exhaustive oracle, mirroring the interpreted
//!    kernel's own soundness bar in `ranked_schedule.rs`.
//! 3. **Word-boundary widths** — a deterministic S = 65 pipeline and an
//!    S = 65 MD5-shaped ring (masks spill past the inline word) agree
//!    across backends and modes, and the two backends perform identical
//!    evaluation counts.

mod common;

use common::{meb_kind_strategy, run_net, shape_strategy, try_run_net, NetParams, Shape};
use mt_elastic::core::{MebKind, PipelineConfig, PipelineHarness};
use mt_elastic::sim::{EvalMode, KernelBackend, ReadyPolicy, SimError, Sink, Tagged};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Backend transparency and fused-kernel soundness on random
    /// topologies, including shuffled builder insertion orders.
    #[test]
    fn fused_backend_is_behaviourally_invisible(
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

        // Bar 1: the fused backend is invisible — same rank schedule,
        // same mode, different dispatch.
        let interp = run_net(&p, KernelBackend::Interpreted, EvalMode::EventDriven, order_seed);
        let fused = run_net(&p, KernelBackend::Fused, EvalMode::EventDriven, order_seed);
        prop_assert_eq!(
            &interp.0, &fused.0,
            "fused backend diverged from interpreted (event-driven)"
        );
        prop_assert_eq!(interp.1, fused.1, "fused backend changed the evaluation count");

        // Bar 2: fused event-driven vs fused exhaustive oracle.
        let fused_oracle = run_net(&p, KernelBackend::Fused, EvalMode::Exhaustive, order_seed);
        prop_assert_eq!(
            &fused.0, &fused_oracle.0,
            "fused dirty-set kernel diverged from the fused oracle"
        );

        // Builder insertion order must not leak through the lowering on
        // signal-acyclic nets (on the diamond and the ring the damped
        // feedback makes the fixed point legitimately order-sensitive,
        // exactly as in `ranked_schedule.rs`).
        if !shape.has_feedback() {
            let b = run_net(
                &p, KernelBackend::Fused, EvalMode::EventDriven, order_seed ^ 0xDEAD_BEEF,
            );
            prop_assert_eq!(&fused.0, &b.0, "insertion order leaked through the fused lowering");
        }
    }
}

/// Deterministic S = 65 word-boundary case: every `ThreadMask` in the
/// net spills past the inline word, exercising the multi-word paths of
/// the fused word-level commits, the rotation scans, and the occupancy
/// complement. Checked across backends and modes.
#[test]
fn fused_backend_matches_interpreted_at_the_word_boundary() {
    let p = NetParams {
        threads: 65,
        tokens: 3,
        kind: MebKind::Reduced,
        shape: Shape::Chain,
        tail_stages: 2,
        p_ready: 0.55,
        seed: 0x65,
    };
    let interp = run_net(
        &p,
        KernelBackend::Interpreted,
        EvalMode::EventDriven,
        0x5eed,
    );
    let fused = run_net(&p, KernelBackend::Fused, EvalMode::EventDriven, 0x5eed);
    let oracle = run_net(&p, KernelBackend::Fused, EvalMode::Exhaustive, 0x5eed);
    assert_eq!(
        interp.0, fused.0,
        "S=65 fused captures diverged from interpreted"
    );
    assert_eq!(interp.1, fused.1, "S=65 fused evaluation count diverged");
    assert_eq!(
        fused.0, oracle.0,
        "S=65 fused kernel diverged from its oracle"
    );
}

/// The S = 65 word-boundary case on the MD5-shaped ring: the word-level
/// Merge, Transform, Barrier and Branch commits and the barrier's
/// registered gate all span two mask words. Checked across backends and
/// modes.
#[test]
fn fused_backend_matches_interpreted_on_the_s65_ring() {
    let p = s65_ring(false);
    let interp = run_net(
        &p,
        KernelBackend::Interpreted,
        EvalMode::EventDriven,
        0x5eed,
    );
    let fused = run_net(&p, KernelBackend::Fused, EvalMode::EventDriven, 0x5eed);
    let oracle = run_net(&p, KernelBackend::Fused, EvalMode::Exhaustive, 0x5eed);
    assert_eq!(
        interp.0, fused.0,
        "S=65 ring captures diverged across backends"
    );
    assert_eq!(interp.1, fused.1, "S=65 ring evaluation count diverged");
    assert_eq!(
        fused.0, oracle.0,
        "S=65 ring kernel diverged from its oracle"
    );
}

/// Known defect, pinned so that a fix has to update this test: once
/// non-participating tokens loop through a masked barrier (S ≥ 8), a
/// participant leaving the ring and a non-participant looping back make
/// the output MEB's selection alternate every settle round — the
/// stalled offer moves against the rotating priority that the anti-swap
/// guard then restores — and the cycle never settles. Both backends
/// report the same typed error.
#[test]
fn masked_s65_ring_does_not_settle_yet() {
    let p = s65_ring(true);
    for backend in [KernelBackend::Interpreted, KernelBackend::Fused] {
        let err = try_run_net(&p, backend, EvalMode::EventDriven, 0x5eed)
            .expect_err("the masked ring oscillates");
        assert!(
            matches!(err, SimError::CombinationalLoop { .. }),
            "{backend:?}: {err}"
        );
    }
}

fn s65_ring(masked: bool) -> NetParams {
    NetParams {
        threads: 65,
        tokens: 2,
        kind: MebKind::Reduced,
        shape: Shape::Ring { masked },
        tail_stages: 1,
        p_ready: 0.55,
        seed: 0x65,
    }
}

/// Mixed sink policies on an S = 65 pipeline, reconfigured mid-run with
/// `Sink::set_policy`: the fused sink builds its ready word from the
/// policies compiled to integer rules, the interpreted sink calls
/// `ReadyPolicy::is_ready` per thread, and the captures (cycle and
/// payload of every token) and evaluation counts must agree.
#[test]
fn fused_sink_tracks_mid_run_set_policy_at_the_word_boundary() {
    let policy = |t: usize, phase: u64| match (t as u64 + phase) % 7 {
        0 => ReadyPolicy::Always,
        1 => ReadyPolicy::StallWindow {
            from: 3 + phase,
            to: 40 + 3 * phase,
        },
        2 => ReadyPolicy::Period {
            on: 1 + t as u64 % 3,
            off: 2,
            phase,
        },
        3 => ReadyPolicy::Random {
            p: 0.02,
            seed: t as u64,
        },
        4 => ReadyPolicy::Random {
            p: 1.0,
            seed: phase,
        },
        5 => ReadyPolicy::Never,
        _ => ReadyPolicy::Random {
            p: 0.5,
            seed: 0x5eed ^ phase,
        },
    };
    let run = |backend: KernelBackend| {
        let mut cfg = PipelineConfig::free_flowing(65, 3, MebKind::Reduced, 6)
            .with_backend(backend, Some(mt_elastic::synth::fuse));
        for t in 0..65 {
            cfg = cfg.with_sink_policy(t, policy(t, 0));
        }
        let mut h = PipelineHarness::build(cfg);
        for phase in 1..4 {
            h.circuit.run(60).expect("pipeline runs clean");
            let sink: &mut Sink<Tagged> = h.circuit.get_mut("snk").expect("sink");
            for t in (0..65).filter(|t| t % 2 == phase as usize % 2) {
                sink.set_policy(t, policy(t, phase));
            }
        }
        // Finally release every thread so the run drains.
        h.circuit.run(60).expect("pipeline runs clean");
        let sink: &mut Sink<Tagged> = h.circuit.get_mut("snk").expect("sink");
        for t in 0..65 {
            sink.set_policy(t, ReadyPolicy::Always);
        }
        h.circuit.run(200).expect("pipeline drains clean");
        let captures: Vec<Vec<(u64, Tagged)>> =
            (0..65).map(|t| h.sink().captured(t).to_vec()).collect();
        (captures, h.circuit.stats().kernel().component_evals)
    };
    let interp = run(KernelBackend::Interpreted);
    let fused = run(KernelBackend::Fused);
    assert_eq!(
        interp.0.iter().map(Vec::len).sum::<usize>(),
        65 * 6,
        "every token drains"
    );
    assert_eq!(
        interp.0, fused.0,
        "fused sink diverged from is_ready after set_policy"
    );
    assert_eq!(interp.1, fused.1, "fused sink changed the evaluation count");
}
