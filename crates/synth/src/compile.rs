//! The compile backend: lower a built component sequence into the fused
//! op table (see [`crate::lower`] for the table itself and
//! `docs/kernel.md` § "Fused settle kernel" for the full pipeline).
//!
//! [`fuse`] is the [`FuseFn`] installed on `CircuitBuilder` to make a
//! circuit [`KernelBackend::Fused`] — either directly, or via
//! [`ElasticIr::set_backend`](crate::ElasticIr::set_backend) before
//! elaboration. The builder calls it *after* applying the levelized rank
//! permutation, so the op table it returns is already in evaluation
//! order and the kernel's linear table walk is the levelized sweep.
//!
//! Lowering is a per-component typed downcast: each box is probed
//! against the closed set of paper primitives (`as_any().is::<C>()`,
//! then the consuming `into_any()` downcast) and stored unboxed in the
//! matching [`FusedOp`] variant. Anything unrecognised — custom user
//! primitives, [`IrNodeKind::Custom`] nodes — stays boxed as
//! [`FusedOp::Boxed`] and keeps vtable dispatch, so fusing is always
//! safe, merely less profitable on foreign components.
//!
//! [`KernelBackend::Fused`]: elastic_sim::KernelBackend::Fused
//! [`IrNodeKind::Custom`]: crate::IrNodeKind::Custom

use elastic_core::{
    Barrier, Branch, ElasticBuffer, FifoMeb, Fork, FullMeb, Join, Merge, ReducedMeb,
};
use elastic_sim::{Component, FuseFn, FusedTable, Sink, Source, Token, Transform, VarLatency};

use crate::lower::{FusedOp, OpTable};

/// Lowers one boxed component to its fused op, falling back to
/// [`FusedOp::Boxed`] when the concrete type is not a known primitive.
fn lower_one<T: Token>(c: Box<dyn Component<T>>) -> FusedOp<T> {
    macro_rules! probe {
        ($($ty:ty => $variant:ident),+ $(,)?) => {
            $(
                if c.as_any().is::<$ty>() {
                    let op = c
                        .into_any()
                        .downcast::<$ty>()
                        .expect("type verified by as_any().is() probe");
                    return FusedOp::$variant(*op);
                }
            )+
        };
    }
    probe! {
        Source<T> => Source,
        Sink<T> => Sink,
        ElasticBuffer<T> => Eb,
        FullMeb<T> => MebFull,
        ReducedMeb<T> => MebReduced,
        FifoMeb<T> => MebFifo,
        Fork<T> => Fork,
        Join<T> => Join,
        Branch<T> => Branch,
        Merge<T> => Merge,
        Barrier<T> => Barrier,
        VarLatency<T> => VarLatency,
        Transform<T> => Transform,
    }
    FusedOp::Boxed(c)
}

/// The fused-backend lowering: consumes the builder's rank-permuted
/// component vector and compiles it into an [`OpTable`].
///
/// This is the function to pass to
/// [`CircuitBuilder::set_fuser`](elastic_sim::CircuitBuilder::set_fuser)
/// (or to carry in `PipelineConfig::fuser`); its signature is exactly
/// [`FuseFn`]. [`ElasticIr::elaborate`](crate::ElasticIr::elaborate)
/// installs it automatically when the IR's backend is set to `Fused`.
pub fn fuse<T: Token>(components: Vec<Box<dyn Component<T>>>) -> Box<dyn FusedTable<T>> {
    // Bind through the alias so signature drift fails to compile here,
    // not at every distant install site.
    let _check: FuseFn<T> = fuse::<T>;
    Box::new(OpTable::new(
        components.into_iter().map(lower_one).collect(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use elastic_core::ArbiterKind;
    use elastic_sim::{
        impl_as_any, CircuitBuilder, EvalCtx, KernelBackend, Ports, ReadyPolicy, TickCtx,
    };

    #[test]
    fn known_primitives_lower_unboxed() {
        let mut b = CircuitBuilder::<u64>::new();
        let a = b.channel("a", 2);
        let c = b.channel("c", 2);
        let comps: Vec<Box<dyn Component<u64>>> = vec![
            Box::new(Source::new("src", a, 2)),
            Box::new(ReducedMeb::new(
                "meb",
                a,
                c,
                2,
                ArbiterKind::RoundRobin.build(),
            )),
            Box::new(Sink::new("snk", c, 2, ReadyPolicy::Always)),
        ];
        let ops: Vec<FusedOp<u64>> = comps.into_iter().map(lower_one).collect();
        assert!(matches!(ops[0], FusedOp::Source(_)));
        assert!(matches!(ops[1], FusedOp::MebReduced(_)));
        assert!(matches!(ops[2], FusedOp::Sink(_)));
        // Names survive the unboxing (cold paths reuse the trait surface).
        assert_eq!(ops[1].as_component().name(), "meb");
    }

    /// A component the lowering has never heard of must keep working
    /// through the boxed fallback.
    struct Alien;
    impl Component<u64> for Alien {
        fn name(&self) -> &str {
            "alien"
        }
        fn ports(&self) -> Ports {
            Ports::default()
        }
        fn eval(&mut self, _ctx: &mut EvalCtx<'_, u64>) {}
        fn tick(&mut self, _ctx: &TickCtx<'_, u64>) {}
        impl_as_any!();
    }

    #[test]
    fn unknown_components_fall_back_to_boxed_dispatch() {
        let op = lower_one::<u64>(Box::new(Alien));
        assert!(matches!(op, FusedOp::Boxed(_)));
        assert_eq!(op.as_component().name(), "alien");
        let table = OpTable::new(vec![op]);
        assert_eq!(table.boxed_fallbacks(), 1);
    }

    #[test]
    fn fused_circuit_matches_interpreted_end_to_end() {
        let build = |backend: KernelBackend| {
            let mut b = CircuitBuilder::<u64>::new();
            let a = b.channel("a", 2);
            let c = b.channel("c", 2);
            let mut src = Source::new("src", a, 2);
            src.extend(0, 0..20u64);
            src.extend(1, 100..120u64);
            b.add(src);
            b.add(ReducedMeb::new(
                "meb",
                a,
                c,
                2,
                ArbiterKind::RoundRobin.build(),
            ));
            let mut snk = Sink::with_capture("snk", c, 2, ReadyPolicy::Always);
            snk.set_policy(1, ReadyPolicy::Random { p: 0.6, seed: 5 });
            b.add(snk);
            if backend == KernelBackend::Fused {
                b.set_fuser(fuse::<u64>);
            }
            b.build().expect("valid")
        };
        let mut interp = build(KernelBackend::Interpreted);
        let mut fused = build(KernelBackend::Fused);
        assert_eq!(interp.backend(), KernelBackend::Interpreted);
        assert_eq!(fused.backend(), KernelBackend::Fused);
        interp.run(400).expect("clean");
        fused.run(400).expect("clean");
        for t in 0..2 {
            let a: &Sink<u64> = interp.get("snk").expect("sink");
            let b: &Sink<u64> = fused.get("snk").expect("sink");
            assert_eq!(a.captured(t), b.captured(t), "thread {t} diverged");
        }
        // The fused run tallied per-op eval counters; interpreted did not.
        let ops: u64 = fused.stats().kernel().fused_op_evals.iter().sum();
        assert_eq!(ops, fused.stats().kernel().component_evals);
        assert_eq!(
            interp.stats().kernel().fused_op_evals.iter().sum::<u64>(),
            0
        );
    }
}
