//! Output-thread selection shared by MEBs, merges and other modules that
//! drive a multithreaded channel.
//!
//! # The selection rule
//!
//! Given the set of threads that *have data* to offer, the driver must
//! assert exactly one `valid(i)`. The paper's arbiter "takes into account
//! which threads are ready downstream"; in a network with M-Joins the
//! downstream `ready(i)` is itself a combinational function of *other*
//! channels' `valid` bits, so a naive choice can oscillate during the
//! settle phase (two buffers feeding a join endlessly swapping offers).
//!
//! [`select_output_thread`] therefore applies two rules, in order:
//!
//! 1. **Ready-first** — ask the arbiter to pick among threads with data
//!    *and* downstream ready. Because the settle loop re-evaluates
//!    components in sequence (Gauss–Seidel style) and the arbiter's choice
//!    is deterministic within a cycle, a mutually-ready pairing locks in
//!    as soon as it appears.
//! 2. **Stalled offer** — otherwise offer the first thread with data at or
//!    after a *stall pointer* that the caller rotates every cycle in which
//!    the offer did not fire (`valid` without `ready` is legal — the offer
//!    simply stalls, and rotation guarantees every waiting thread is
//!    eventually presented, which modules like the [`Barrier`] rely on to
//!    observe arrivals).
//!
//! [`Barrier`]: crate::Barrier

use elastic_sim::{ChannelId, EvalCtx, ThreadMask, TickCtx, Token};

use crate::arbiter::Arbiter;

/// Chooses which thread should drive `out` this settle iteration.
///
/// `has_data.get(t)` must be true iff thread `t` has a token available at
/// the module's head, and `ready_requests` must be `has_data ∩ ready(out)`
/// — callers keep it in a persistent scratch mask (see
/// [`SelectState::select`]) so no per-evaluation allocation happens.
/// `stall_start` is the rotating start index for stalled offers (see
/// [`advance_stall_pointer`]). Returns `None` when no thread has data.
///
/// The caller is responsible for calling [`Arbiter::commit`] at the clock
/// edge if (and only if) the selected transfer fired.
pub fn select_output_thread<T: Token>(
    ctx: &EvalCtx<'_, T>,
    out: ChannelId,
    arbiter: &dyn Arbiter,
    has_data: &ThreadMask,
    ready_requests: &ThreadMask,
    stall_start: usize,
    fresh: bool,
) -> Option<usize> {
    let threads = has_data.threads();
    debug_assert_eq!(threads, ctx.threads(out));
    debug_assert_eq!(ready_requests.threads(), threads);

    if ready_requests.any() {
        let pick = arbiter
            .choose(ready_requests)
            .expect("non-empty request set");
        // Anti-swap guard — settle-phase damping only (`fresh == false`),
        // and only on feedback channels: when this module is already
        // offering a thread that still has data but is not ready, it may
        // abandon that offer for a ready thread only in the direction of
        // the global rotating priority. Two modules feeding an M-Join
        // otherwise chase each other's offers forever (each one's
        // downstream ready(i) is the other's valid(i)); the shared
        // priority makes exactly one of them yield, so the pairing
        // converges within a bounded number of switches. On the first
        // evaluation of a cycle the decision is fresh — the previous
        // cycle's (possibly stalled) offer holds no claim. Off feedback
        // cycles the rank schedule evaluates the consumer first, so the
        // first evaluation already sees final ready bits and the pure
        // ready-first pick is kept: selection stays a function of the
        // inputs alone, independent of evaluation order.
        if !fresh && ctx.in_feedback(out) {
            let current = ctx.valid_mask(out).first_one();
            if let Some(c) = current {
                if has_data.get(c) && !ctx.ready(out, c) {
                    let rank =
                        |t: usize| (t + threads - (ctx.cycle() as usize % threads)) % threads;
                    let best = ready_requests
                        .iter_ones()
                        .min_by_key(|&t| rank(t))
                        .expect("non-empty request set");
                    return if rank(best) < rank(c) {
                        Some(best)
                    } else {
                        Some(c)
                    };
                }
            }
        }
        return Some(pick);
    }

    // No thread is ready: rotating stalled offer.
    has_data.next_one_wrapping(stall_start)
}

/// Stateful wrapper around [`select_output_thread`] /
/// [`advance_stall_pointer`]: tracks the stalled-offer rotation pointer
/// and whether the current evaluation is the first of its cycle (the
/// settle loop calls `eval` several times per cycle).
///
/// Embed one per driven multithreaded output channel; call
/// [`select`](SelectState::select) from `eval` and
/// [`on_tick`](SelectState::on_tick) from `tick`.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct SelectState {
    stall: usize,
    last_cycle: Option<u64>,
    /// Scratch for `has_data ∩ ready`, sized lazily on first use and
    /// reused every evaluation thereafter (zero steady-state allocation).
    requests: ThreadMask,
}

impl SelectState {
    /// Fresh state (stall pointer at thread 0).
    pub fn new() -> Self {
        Self::default()
    }

    /// Chooses the thread to drive `out` this settle iteration.
    pub fn select<T: Token>(
        &mut self,
        ctx: &EvalCtx<'_, T>,
        out: ChannelId,
        arbiter: &dyn Arbiter,
        has_data: &ThreadMask,
    ) -> Option<usize> {
        let fresh = self.last_cycle != Some(ctx.cycle());
        self.last_cycle = Some(ctx.cycle());
        if self.requests.threads() != has_data.threads() {
            self.requests = ThreadMask::new(has_data.threads());
        }
        self.requests.copy_from(has_data);
        self.requests.and_with(ctx.ready_mask(out));
        select_output_thread(
            ctx,
            out,
            arbiter,
            has_data,
            &self.requests,
            self.stall,
            fresh,
        )
    }

    /// The current stalled-offer rotation start (rule 2 of
    /// [`select_output_thread`]). Fused fast paths that bypass
    /// [`select`](SelectState::select) — possible on DAG channels, where
    /// the anti-swap damping is disabled anyway — read the pointer here
    /// and keep [`on_tick`](SelectState::on_tick) advancing it.
    #[must_use]
    pub fn stall_start(&self) -> usize {
        self.stall
    }

    /// Clock-edge bookkeeping: rotates the stalled-offer pointer.
    pub fn on_tick<T: Token>(&mut self, ctx: &TickCtx<'_, T>, out: ChannelId) {
        advance_stall_pointer(ctx, out, &mut self.stall);
    }

    /// Rewinds to the freshly constructed state (stall pointer at thread
    /// 0, no cycle seen). The scratch request mask is kept — it is sized
    /// storage, not state.
    pub fn reset(&mut self) {
        self.stall = 0;
        self.last_cycle = None;
    }
}

/// Advances a module's stalled-offer pointer at the clock edge: if the
/// module offered a thread on `out` this cycle and the transfer did not
/// fire, the next stalled offer starts one past the offered thread.
///
/// Without this rotation a persistently stalled module would present the
/// same thread forever (its arbiter state only advances on fired
/// transfers), starving observers — e.g. a closed [`Barrier`] would never
/// see the other threads arrive.
///
/// [`Barrier`]: crate::Barrier
pub fn advance_stall_pointer<T: Token>(ctx: &TickCtx<'_, T>, out: ChannelId, stall: &mut usize) {
    if let Some(t) = ctx.offered(out) {
        if !ctx.fired(out, t) {
            *stall = (t + 1) % ctx.threads(out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arbiter::RoundRobin;
    use elastic_sim::{impl_as_any, CircuitBuilder, Component, Ports, ReadyPolicy, Sink, TickCtx};

    /// A probe component that exposes what `select_output_thread` decides
    /// for a fixed `has_data` mask, against a scripted sink.
    struct Probe {
        out: ChannelId,
        has: ThreadMask,
        arb: RoundRobin,
        select: SelectState,
    }

    impl Probe {
        fn new(out: ChannelId, has: &[bool]) -> Self {
            Self {
                out,
                has: ThreadMask::from_bools(has),
                arb: RoundRobin::new(),
                select: SelectState::new(),
            }
        }
    }

    impl Component<u64> for Probe {
        fn name(&self) -> &str {
            "probe"
        }
        fn ports(&self) -> Ports {
            Ports::new([], [self.out])
        }
        fn comb_paths(&self) -> Vec<elastic_sim::CombPath> {
            // Selection reads ready(out) to pick the offered thread; the
            // anti-swap guard damps it.
            vec![elastic_sim::CombPath::ReadyToValid {
                from: self.out,
                to: self.out,
                damped: true,
            }]
        }
        fn eval(&mut self, ctx: &mut EvalCtx<'_, u64>) {
            match self.select.select(ctx, self.out, &self.arb, &self.has) {
                Some(t) => ctx.drive_token(self.out, t, t as u64),
                None => ctx.drive_idle(self.out),
            }
        }
        fn tick(&mut self, ctx: &TickCtx<'_, u64>) {
            if let Some((t, _)) = ctx.fired_any(self.out) {
                self.arb.commit(t);
            }
            self.select.on_tick(ctx, self.out);
        }
        impl_as_any!();
    }

    #[test]
    fn prefers_downstream_ready_thread() {
        // Thread 0 and 1 both have data; the sink is only ever ready for
        // thread 1 — selection must route around the blocked thread.
        let mut b = CircuitBuilder::<u64>::new();
        let ch = b.channel("c", 2);
        b.add(Probe::new(ch, &[true, true]));
        let mut sink = Sink::with_capture("snk", ch, 2, ReadyPolicy::Never);
        sink.set_policy(1, ReadyPolicy::Always);
        b.add(sink);
        let mut circuit = b.build().expect("valid");
        circuit.run(10).expect("clean");
        assert_eq!(circuit.stats().transfers(ch, 0), 0);
        // The anti-swap guard may cost one cycle at cold start before the
        // selection pivots to the ready thread.
        assert!(circuit.stats().transfers(ch, 1) >= 9);
    }

    #[test]
    fn no_data_drives_idle() {
        let mut b = CircuitBuilder::<u64>::new();
        let ch = b.channel("c", 2);
        b.add(Probe::new(ch, &[false, false]));
        b.add(Sink::new("snk", ch, 2, ReadyPolicy::Always));
        let mut circuit = b.build().expect("valid");
        circuit.run(5).expect("clean");
        assert_eq!(circuit.stats().total_transfers(ch), 0);
        assert_eq!(circuit.stats().utilization(ch), 0.0);
    }

    #[test]
    fn alternates_threads_when_both_ready() {
        let mut b = CircuitBuilder::<u64>::new();
        let ch = b.channel("c", 2);
        b.add(Probe::new(ch, &[true, true]));
        b.add(Sink::new("snk", ch, 2, ReadyPolicy::Always));
        let mut circuit = b.build().expect("valid");
        circuit.run(10).expect("clean");
        assert_eq!(circuit.stats().transfers(ch, 0), 5);
        assert_eq!(circuit.stats().transfers(ch, 1), 5);
    }
}
