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
//! 3. **Word-boundary widths** — a deterministic S = 65 pipeline (masks
//!    spill past the inline word) agrees across backends and modes, and
//!    the two backends perform identical evaluation counts.

mod common;

use common::{meb_kind_strategy, run_net, NetParams};
use mt_elastic::core::MebKind;
use mt_elastic::sim::{EvalMode, KernelBackend};
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
        diamond in any::<bool>(),
        tail_stages in 0usize..3,
        p_ready in 0.3f64..1.0,
        seed in any::<u64>(),
        order_seed in any::<u64>(),
    ) {
        let p = NetParams { threads, tokens, kind, diamond, tail_stages, p_ready, seed };

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
        // signal-acyclic nets (on the diamond the damped feedback makes
        // the fixed point legitimately order-sensitive, exactly as in
        // `ranked_schedule.rs`).
        if !diamond {
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
        diamond: false,
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
