//! The lowered op table executed by the fused settle kernel.
//!
//! [`FusedOp`] is the *bytecode* of the fused backend: one enum variant
//! per paper primitive, holding the component **unboxed** so the settle
//! loop dispatches through a dense, branch-predictable `match` instead of
//! a `Box<dyn Component>` vtable call. [`OpTable`] strings the ops
//! together in the builder's rank order (fusion happens *after* the
//! levelizing permutation, so op index `i` *is* evaluation index `i`) and
//! implements [`FusedTable`], the mechanism contract defined in
//! `elastic-sim`. The lowering that produces the table lives in
//! [`crate::compile`].
//!
//! Three ops run a fused-only `eval_fused` that commits whole handshake
//! words and caches them across the settle rounds of a cycle; their
//! interpreted `eval` keeps a per-thread loop as the reference the
//! fused path is checked against (observable behaviour is identical, see
//! `docs/kernel.md`):
//!
//! * [`Sink::eval_fused`] caches the per-thread ready-policy word once
//!   per cycle and commits it with a single masked write;
//! * [`ReducedMeb::eval_fused`] rebuilds its upstream ready word once
//!   per cycle (it is a function of registered state only) and commits
//!   it in one word-level call;
//! * [`Source::eval_fused`] caches the released-head word per cycle and
//!   picks the offered thread with a word-level wrapping scan.
//!
//! Every other op's `Component::eval` already commits whole words
//! (`docs/perf.md` §1) and is dispatched statically to that same method,
//! so for them the fused backend removes only the vtable call.
//!
//! The clock edge is one statically dispatched pass as well:
//! [`OpTable::tick_all`](FusedTable::tick_all) ticks every op and takes
//! the first latched protocol fault (lowest op index) in the same loop.
//! The ticks read the offered/fired outcome the kernel latched per
//! channel after settle, so none of them scans a handshake mask.
//! Components the lowering does not recognise (custom user primitives,
//! [`IrNodeKind::Custom`] nodes) stay boxed in [`FusedOp::Boxed`] and
//! keep their vtable path.
//!
//! [`IrNodeKind::Custom`]: crate::IrNodeKind::Custom

use elastic_core::{
    Barrier, Branch, ElasticBuffer, FifoMeb, Fork, FullMeb, Join, Merge, ReducedMeb,
};
use elastic_sim::{
    Component, EvalCtx, FusedOpKind, FusedTable, ProtocolError, Sink, Source, SweepCtx, TickCtx,
    Token, Transform, VarLatency,
};

/// One fused settle-kernel op: a paper primitive stored unboxed, or the
/// boxed fallback for unrecognised components.
///
/// The variant order mirrors [`FusedOpKind::ALL`] so `kind()` is a plain
/// discriminant read.
pub enum FusedOp<T: Token> {
    /// Token source ([`elastic_sim::Source`]).
    Source(Source<T>),
    /// Token sink ([`elastic_sim::Sink`]), evaluated via its word-level
    /// ready-policy cache.
    Sink(Sink<T>),
    /// Single-thread elastic buffer.
    Eb(ElasticBuffer<T>),
    /// Full MEB (`2·S` slots).
    MebFull(FullMeb<T>),
    /// Reduced MEB (`S + 1` slots), evaluated via its word-level ready
    /// scratch mask.
    MebReduced(ReducedMeb<T>),
    /// FIFO MEB.
    MebFifo(FifoMeb<T>),
    /// M-Fork.
    Fork(Fork<T>),
    /// M-Join.
    Join(Join<T>),
    /// M-Branch.
    Branch(Branch<T>),
    /// M-Merge.
    Merge(Merge<T>),
    /// Thread barrier.
    Barrier(Barrier<T>),
    /// Variable-latency unit.
    VarLatency(VarLatency<T>),
    /// Stateless transform.
    Transform(Transform<T>),
    /// Unrecognised component: still evaluated through its vtable so
    /// custom primitives work unchanged under the fused backend.
    Boxed(Box<dyn Component<T>>),
}

/// Statically dispatches `$body` over every variant's payload. `Boxed`
/// payloads auto-deref, so trait-method bodies work uniformly.
macro_rules! for_each_op {
    ($self:expr, $op:ident => $body:expr) => {
        match $self {
            FusedOp::Source($op) => $body,
            FusedOp::Sink($op) => $body,
            FusedOp::Eb($op) => $body,
            FusedOp::MebFull($op) => $body,
            FusedOp::MebReduced($op) => $body,
            FusedOp::MebFifo($op) => $body,
            FusedOp::Fork($op) => $body,
            FusedOp::Join($op) => $body,
            FusedOp::Branch($op) => $body,
            FusedOp::Merge($op) => $body,
            FusedOp::Barrier($op) => $body,
            FusedOp::VarLatency($op) => $body,
            FusedOp::Transform($op) => $body,
            FusedOp::Boxed($op) => $body,
        }
    };
}

impl<T: Token> FusedOp<T> {
    /// This op's class label (indexes the per-op eval counters in
    /// [`KernelStats`](elastic_sim::KernelStats)).
    pub fn kind(&self) -> FusedOpKind {
        match self {
            FusedOp::Source(_) => FusedOpKind::Source,
            FusedOp::Sink(_) => FusedOpKind::Sink,
            FusedOp::Eb(_) => FusedOpKind::Eb,
            FusedOp::MebFull(_) => FusedOpKind::MebFull,
            FusedOp::MebReduced(_) => FusedOpKind::MebReduced,
            FusedOp::MebFifo(_) => FusedOpKind::MebFifo,
            FusedOp::Fork(_) => FusedOpKind::Fork,
            FusedOp::Join(_) => FusedOpKind::Join,
            FusedOp::Branch(_) => FusedOpKind::Branch,
            FusedOp::Merge(_) => FusedOpKind::Merge,
            FusedOp::Barrier(_) => FusedOpKind::Barrier,
            FusedOp::VarLatency(_) => FusedOpKind::VarLatency,
            FusedOp::Transform(_) => FusedOpKind::Transform,
            FusedOp::Boxed(_) => FusedOpKind::Custom,
        }
    }

    /// Combinational evaluation with static dispatch; `Source`, `Sink`
    /// and `ReducedMeb` take their cached fused paths, everything else
    /// runs its ordinary `Component::eval`.
    #[inline]
    fn eval_op(&mut self, ctx: &mut EvalCtx<'_, T>) {
        match self {
            FusedOp::Source(op) => op.eval_fused(ctx),
            FusedOp::Sink(op) => op.eval_fused(ctx),
            FusedOp::Eb(op) => op.eval(ctx),
            FusedOp::MebFull(op) => op.eval(ctx),
            FusedOp::MebReduced(op) => op.eval_fused(ctx),
            FusedOp::MebFifo(op) => op.eval(ctx),
            FusedOp::Fork(op) => op.eval(ctx),
            FusedOp::Join(op) => op.eval(ctx),
            FusedOp::Branch(op) => op.eval(ctx),
            FusedOp::Merge(op) => op.eval(ctx),
            FusedOp::Barrier(op) => op.eval(ctx),
            FusedOp::VarLatency(op) => op.eval(ctx),
            FusedOp::Transform(op) => op.eval(ctx),
            FusedOp::Boxed(op) => op.eval(ctx),
        }
    }

    /// Borrows the payload through the plain component trait (cold
    /// paths: names, slots, typed downcasts, next-event scans).
    pub fn as_component(&self) -> &dyn Component<T> {
        match self {
            FusedOp::Source(op) => op,
            FusedOp::Sink(op) => op,
            FusedOp::Eb(op) => op,
            FusedOp::MebFull(op) => op,
            FusedOp::MebReduced(op) => op,
            FusedOp::MebFifo(op) => op,
            FusedOp::Fork(op) => op,
            FusedOp::Join(op) => op,
            FusedOp::Branch(op) => op,
            FusedOp::Merge(op) => op,
            FusedOp::Barrier(op) => op,
            FusedOp::VarLatency(op) => op,
            FusedOp::Transform(op) => op,
            FusedOp::Boxed(op) => &**op,
        }
    }

    /// Mutably borrows the payload through the plain component trait
    /// (reset, `Circuit::get_mut` reconfiguration).
    pub fn as_component_mut(&mut self) -> &mut dyn Component<T> {
        match self {
            FusedOp::Source(op) => op,
            FusedOp::Sink(op) => op,
            FusedOp::Eb(op) => op,
            FusedOp::MebFull(op) => op,
            FusedOp::MebReduced(op) => op,
            FusedOp::MebFifo(op) => op,
            FusedOp::Fork(op) => op,
            FusedOp::Join(op) => op,
            FusedOp::Branch(op) => op,
            FusedOp::Merge(op) => op,
            FusedOp::Barrier(op) => op,
            FusedOp::VarLatency(op) => op,
            FusedOp::Transform(op) => op,
            FusedOp::Boxed(op) => &mut **op,
        }
    }
}

/// The fused op table: the builder's rank-permuted component sequence
/// lowered to a contiguous [`FusedOp`] array. Executing the array in
/// storage order *is* the levelized settle sweep.
pub struct OpTable<T: Token> {
    ops: Vec<FusedOp<T>>,
}

impl<T: Token> OpTable<T> {
    /// Wraps an already-lowered op sequence (see [`crate::compile::fuse`]).
    pub fn new(ops: Vec<FusedOp<T>>) -> Self {
        Self { ops }
    }

    /// How many ops fell back to [`FusedOp::Boxed`] dispatch.
    pub fn boxed_fallbacks(&self) -> usize {
        self.ops
            .iter()
            .filter(|op| matches!(op, FusedOp::Boxed(_)))
            .count()
    }
}

impl<T: Token> FusedTable<T> for OpTable<T> {
    fn len(&self) -> usize {
        self.ops.len()
    }

    fn sweep(
        &mut self,
        ctx: &mut SweepCtx<'_, T>,
        full: bool,
        op_evals: &mut [u64; FusedOpKind::COUNT],
    ) -> usize {
        // `SweepCtx::drain` owns the skip/claim bookkeeping and hands
        // every scheduled op one reused context, so the per-eval cost
        // here is the dispatch `match` and the class counter alone.
        let ops = &mut self.ops;
        ctx.drain(full, |i, ectx| {
            let op = &mut ops[i];
            op.eval_op(ectx);
            op_evals[op.kind() as usize] += 1;
        })
    }

    fn tick_all(&mut self, ctx: &TickCtx<'_, T>) -> Option<(usize, ProtocolError)> {
        // One pass ticks and picks up faults: the first latched fault
        // (lowest op index) is taken, later ones stay latched.
        let mut first = None;
        for (i, op) in self.ops.iter_mut().enumerate() {
            first = for_each_op!(op, c => {
                c.tick(ctx);
                match first {
                    None => c.take_fault().map(|e| (i, e)),
                    some => some,
                }
            });
        }
        first
    }

    fn component(&self, i: usize) -> &dyn Component<T> {
        self.ops[i].as_component()
    }

    fn component_mut(&mut self, i: usize) -> &mut dyn Component<T> {
        self.ops[i].as_component_mut()
    }
}
