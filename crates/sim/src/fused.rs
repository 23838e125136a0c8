//! The settle kernel's **op-table contract** and its two backends.
//!
//! Every circuit runs its settle rounds and clock edges (with their
//! fault pick-up) through one [`FusedTable`]. The interpreted backend is
//! the plain boxed component vector (`impl FusedTable for Vec<Box<dyn
//! Component>>` below): one vtable call per eval. After elaboration, though, the
//! component sequence and the levelized rank schedule are fully known —
//! so the whole sweep can also be *compiled* into a flat op table
//! executed as one linear `match`-dispatch pass per settle round (the
//! fused backend). This module defines the machinery the kernel needs to
//! host either table:
//!
//! * [`KernelBackend`] — the `Interpreted`/`Fused` label a circuit
//!   reports; a circuit is fused iff a [`FuseFn`] was installed on its
//!   `CircuitBuilder` (higher-level configs decide whether to install
//!   one);
//! * [`FusedTable`] — the object-safe contract both tables implement:
//!   **one** dynamic call per settle round ([`sweep`](FusedTable::sweep)),
//!   one per clock edge ([`tick_all`](FusedTable::tick_all), which ticks
//!   every op and returns the first latched protocol fault from the same
//!   pass), and per-index component accessors so introspection
//!   (`Circuit::get`, tracing, reset) works unchanged;
//! * [`SweepCtx`] — the split-borrow view of the circuit a sweep runs
//!   against, bridging to [`EvalCtx`] per op;
//! * [`FusedOpKind`] — the dense op-class label used for per-op eval
//!   counters in [`KernelStats`](crate::KernelStats);
//! * [`FuseFn`] — the plain function pointer through which a *policy*
//!   crate (the lowering lives in `elastic-synth`, which knows the
//!   concrete primitive types) injects its compiler into this crate's
//!   builder without inverting the dependency graph.
//!
//! The concrete op enum and the lowering itself live in
//! `elastic_synth::lower` / `elastic_synth::compile`; see
//! `docs/kernel.md` § "Fused settle kernel" for the contract.

use crate::channel::ChannelState;
use crate::circuit::{EvalCtx, TickCtx};
use crate::component::Component;
use crate::error::ProtocolError;
use crate::mask::ThreadMask;
use crate::token::Token;

/// Which [`FusedTable`] executes component evaluations.
///
/// Both backends reach the same fixed point with the same wake
/// semantics; they differ only in dispatch cost. The interpreted kernel
/// is the default and the reference; a circuit is fused exactly when a
/// lowering function ([`FuseFn`]) was installed at build time.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum KernelBackend {
    /// Dispatch every eval through `Box<dyn Component>` (default).
    #[default]
    Interpreted,
    /// Execute a pre-lowered [`FusedTable`]: one dynamic call per settle
    /// round, branch-predictable `match` dispatch per op inside, no
    /// per-eval allocation.
    Fused,
}

/// Dense label for one fused op class — the axis of the per-op eval
/// counters in [`KernelStats`](crate::KernelStats). One variant per
/// `IrNodeKind` primitive; `Custom` covers boxed fallback nodes.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum FusedOpKind {
    /// Token source.
    Source,
    /// Token sink.
    Sink,
    /// Single-thread elastic buffer.
    Eb,
    /// Full MEB (`2·S` slots).
    MebFull,
    /// Reduced MEB (`S + 1` slots).
    MebReduced,
    /// FIFO MEB.
    MebFifo,
    /// M-Fork.
    Fork,
    /// M-Join.
    Join,
    /// M-Branch.
    Branch,
    /// M-Merge.
    Merge,
    /// Thread barrier.
    Barrier,
    /// Variable-latency unit.
    VarLatency,
    /// Stateless transform.
    Transform,
    /// Boxed fallback (`IrNodeKind::Custom` or any unrecognised
    /// component) — still evaluated through its vtable.
    Custom,
}

impl FusedOpKind {
    /// Number of op classes (the length of the per-op counter array).
    pub const COUNT: usize = 14;

    /// Every op class, in counter-array order.
    pub const ALL: [FusedOpKind; FusedOpKind::COUNT] = [
        FusedOpKind::Source,
        FusedOpKind::Sink,
        FusedOpKind::Eb,
        FusedOpKind::MebFull,
        FusedOpKind::MebReduced,
        FusedOpKind::MebFifo,
        FusedOpKind::Fork,
        FusedOpKind::Join,
        FusedOpKind::Branch,
        FusedOpKind::Merge,
        FusedOpKind::Barrier,
        FusedOpKind::VarLatency,
        FusedOpKind::Transform,
        FusedOpKind::Custom,
    ];

    /// Short stable label for tables and JSON.
    pub fn label(self) -> &'static str {
        match self {
            FusedOpKind::Source => "source",
            FusedOpKind::Sink => "sink",
            FusedOpKind::Eb => "eb",
            FusedOpKind::MebFull => "meb_full",
            FusedOpKind::MebReduced => "meb_reduced",
            FusedOpKind::MebFifo => "meb_fifo",
            FusedOpKind::Fork => "fork",
            FusedOpKind::Join => "join",
            FusedOpKind::Branch => "branch",
            FusedOpKind::Merge => "merge",
            FusedOpKind::Barrier => "barrier",
            FusedOpKind::VarLatency => "varlat",
            FusedOpKind::Transform => "transform",
            FusedOpKind::Custom => "custom",
        }
    }
}

/// A lowering function: consumes the builder's rank-permuted component
/// vector and produces the fused op table that will execute it.
///
/// A plain `fn` pointer (hence `Copy` + `Debug`) so configuration
/// structs can carry it through `derive`d impls, and so crates *below*
/// the lowering crate in the dependency graph (e.g. the pipeline
/// harness in `elastic-core`) can accept one opaquely.
pub type FuseFn<T> = fn(Vec<Box<dyn Component<T>>>) -> Box<dyn FusedTable<T>>;

/// Split-borrow view of the circuit during one settle round. Wraps the
/// channel/wake/listen state of the kernel; [`drain`](SweepCtx::drain)
/// is the only way external code can mint an [`EvalCtx`], which keeps
/// signal-ownership enforcement inside this crate.
pub struct SweepCtx<'a, T: Token> {
    pub(crate) channels: &'a mut [ChannelState<T>],
    pub(crate) woke: &'a mut ThreadMask,
    pub(crate) changed: &'a mut bool,
    pub(crate) driver: &'a [usize],
    pub(crate) reader: &'a [usize],
    pub(crate) listen_valid: &'a [bool],
    pub(crate) listen_ready: &'a [bool],
    pub(crate) feedback: &'a [bool],
    pub(crate) hysteretic: &'a [bool],
    pub(crate) cycle: u64,
}

impl<'a, T: Token> SweepCtx<'a, T> {
    /// Runs one settle round's op scan with a **single reused**
    /// [`EvalCtx`]: the skip-unless-woken test, the claim-before-eval
    /// wake consumption and the current-component bookkeeping happen
    /// inline, and `eval` is called once per scheduled op (in rank
    /// order, `0..n`) with the context already positioned on it.
    /// Building the borrow bundle once per round instead of once per op
    /// keeps the per-evaluation setup to one index store — the tables'
    /// preferred sweep shape. Returns the number of evaluations
    /// performed.
    #[inline]
    pub fn drain<F>(&mut self, full: bool, mut eval: F) -> usize
    where
        F: FnMut(usize, &mut EvalCtx<'_, T>),
    {
        let mut evals = 0;
        let n = self.woke.threads();
        let mut ectx = EvalCtx {
            channels: &mut *self.channels,
            woke: &mut *self.woke,
            changed: &mut *self.changed,
            current: 0,
            driver: self.driver,
            reader: self.reader,
            listen_valid: self.listen_valid,
            listen_ready: self.listen_ready,
            feedback: self.feedback,
            hysteretic: self.hysteretic,
            cycle: self.cycle,
        };
        for i in 0..n {
            if !full && !ectx.woke.get(i) {
                continue;
            }
            // Claim before eval, so wakes issued mid-eval carry over to
            // the next round.
            ectx.woke.set(i, false);
            ectx.current = i;
            eval(i, &mut ectx);
            evals += 1;
        }
        evals
    }
}

/// The contract an op table implements so the kernel can execute it.
/// Implemented by the interpreted boxed component vector (below) and by
/// `elastic_synth::lower::OpTable`; the kernel holds it as
/// `Box<dyn FusedTable<T>>` and pays exactly one dynamic call per settle
/// round plus one per clock edge.
///
/// Implementations must preserve the settle semantics exactly: iterate
/// ops in storage (rank) order — already levelized so consumers precede
/// the producers that listen to their `ready` commits — skip non-woken
/// ops on partial rounds, claim the wake flag before evaluating, and
/// count every evaluation ([`SweepCtx::drain`] does all of this).
/// Re-ordering is not an optimisation surface: the rank
/// schedule settles busy acyclic pipelines in a single round, and on
/// feedback cycles the hysteretic damping makes the trajectory
/// order-sensitive, so any other order is slower, unfaithful, or both.
pub trait FusedTable<T: Token>: Send {
    /// Number of ops (equals the component count).
    fn len(&self) -> usize;

    /// Whether the table is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Executes one settle round: a full sweep when `full`, otherwise
    /// only ops whose wake flag is set. Returns the number of
    /// evaluations performed and tallies them per op class into
    /// `op_evals`.
    fn sweep(
        &mut self,
        ctx: &mut SweepCtx<'_, T>,
        full: bool,
        op_evals: &mut [u64; FusedOpKind::COUNT],
    ) -> usize;

    /// Clock edge: ticks every op, in storage order, with static
    /// dispatch, and returns the first `(component index, fault)` an op
    /// latched — lowest index first — from the same pass. Once a fault
    /// is found, later ops are still ticked but their faults are not
    /// taken: they stay latched, as if never polled.
    fn tick_all(&mut self, ctx: &TickCtx<'_, T>) -> Option<(usize, ProtocolError)>;

    /// Borrows op `i` as a plain component (name, slots, downcasts,
    /// next-event scheduling — every cold path reuses the trait
    /// surface).
    fn component(&self, i: usize) -> &dyn Component<T>;

    /// Mutably borrows op `i` as a plain component (reset,
    /// `Circuit::get_mut` reconfiguration).
    fn component_mut(&mut self, i: usize) -> &mut dyn Component<T>;
}

/// The interpreted backend: every eval dispatches through the boxed
/// component's vtable. Leaves `op_evals` untouched, so interpreted runs
/// report zero per-op fused counters.
impl<T: Token> FusedTable<T> for Vec<Box<dyn Component<T>>> {
    fn len(&self) -> usize {
        Vec::len(self)
    }

    fn sweep(
        &mut self,
        ctx: &mut SweepCtx<'_, T>,
        full: bool,
        _op_evals: &mut [u64; FusedOpKind::COUNT],
    ) -> usize {
        ctx.drain(full, |i, ectx| self[i].eval(ectx))
    }

    fn tick_all(&mut self, ctx: &TickCtx<'_, T>) -> Option<(usize, ProtocolError)> {
        let mut first = None;
        for (i, c) in self.iter_mut().enumerate() {
            c.tick(ctx);
            if first.is_none() {
                first = c.take_fault().map(|e| (i, e));
            }
        }
        first
    }

    fn component(&self, i: usize) -> &dyn Component<T> {
        self[i].as_ref()
    }

    fn component_mut(&mut self, i: usize) -> &mut dyn Component<T> {
        self[i].as_mut()
    }
}
