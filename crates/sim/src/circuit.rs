//! The synchronous simulation kernel.
//!
//! Each cycle proceeds in three phases, mirroring synchronous hardware:
//!
//! 1. **Combinational settle** — components' [`eval`](crate::Component::eval)
//!    run until no signal changes (fixed point). Components are evaluated
//!    in the *rank order* the builder compiled from their declared
//!    combinational paths ([`Component::comb_paths`](crate::Component::comb_paths)):
//!    every component comes after everything it depends on, so on an
//!    acyclic net the single full sweep of round 1 *is* the fixed point.
//!    The default [`EvalMode::EventDriven`] kernel then re-evaluates only
//!    *dirty* components: when a channel's `valid`/`data` changes its
//!    reader is woken **iff it declared a path triggered by that signal**,
//!    likewise the driver on a `ready` change; residual rounds fire only
//!    for hysteretic arbiters on feedback channels. Zero-latency handshake
//!    cycles are rejected at `build()` time
//!    ([`BuildError::CombinationalLoop`](crate::BuildError::CombinationalLoop))
//!    — exactly the class of circuit that is illegal in elastic design
//!    unless cut by an elastic buffer; the runtime
//!    [`SimError::CombinationalLoop`] cap survives only as a safety net
//!    for damped feedback loops.
//! 2. **Channel pass** — one pass over the channels checks the protocol
//!    invariant (at most one `valid` thread, data present) and latches
//!    each channel's clock-edge outcome: the offered thread and whether
//!    it fired (`valid(i) && ready(i)`). Statistics, the trace recorder
//!    and [`TickCtx`] read the latch, never the masks.
//! 3. **Clock edge** — one pass over the components calls every
//!    [`tick`](crate::Component::tick) and picks up the first protocol
//!    fault a component latched, lowest evaluation index first.
//!
//! Two fast-paths keep the event-driven kernel cheap (see
//! `docs/kernel.md`): a cycle that converges after its single full sweep
//! goes straight to the clock edge, and a *quiescent* network (no token
//! offered anywhere) can be fast-forwarded across empty cycles to the next
//! self-scheduled component event ([`Component::next_event`]).
//!
//! The hot loop is allocation-free (see `docs/perf.md`): handshake bits
//! live in packed [`ThreadMask`] words, the dirty set is itself a mask
//! over components, change detection happens word-level inside the
//! signal setters, and the batch drivers [`Circuit::run`] /
//! [`Circuit::run_until`] and [`Circuit::step_fired`] skip
//! transfer-record collection entirely.

use crate::channel::{ChannelId, ChannelState};
use crate::component::{Component, NextEvent};
use crate::error::SimError;
use crate::fused::{FusedOpKind, FusedTable, KernelBackend, SweepCtx};
use crate::mask::ThreadMask;
use crate::rank::Schedule;
use crate::stats::Stats;
use crate::token::Token;
use crate::trace::{ChannelTrace, CycleTrace, TraceRecorder};

/// How the settle phase schedules component evaluations each cycle.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum EvalMode {
    /// Event-driven dirty-set kernel (default): after one full sweep,
    /// only components woken by a signal change on a channel they read
    /// or drive are re-evaluated, until the worklist drains.
    #[default]
    EventDriven,
    /// Reference kernel: every settle iteration re-evaluates every
    /// component until an iteration changes nothing. Kept as the
    /// equivalence oracle for tests, benches and the ablation binary.
    Exhaustive,
}

/// Combinational-phase view of the circuit handed to
/// [`Component::eval`](crate::Component::eval).
///
/// Setters enforce signal ownership: a component may drive `valid`/`data`
/// only on its output channels and `ready` only on its input channels.
/// Every effective change is recorded in the kernel's dirty set — a
/// `valid`/`data` change wakes the channel's reader, a `ready` change
/// wakes its driver. Change detection is word-level: the packed masks
/// report whether a write flipped anything, so the kernel never clones
/// channel state to diff it.
pub struct EvalCtx<'a, T: Token> {
    pub(crate) channels: &'a mut [ChannelState<T>],
    /// Per-component wake flags: set when a signal a component depends on
    /// changes, consumed by the settle loop's worklist rounds.
    pub(crate) woke: &'a mut ThreadMask,
    /// Whether any signal changed during the current settle round.
    pub(crate) changed: &'a mut bool,
    pub(crate) current: usize,
    pub(crate) driver: &'a [usize],
    pub(crate) reader: &'a [usize],
    /// Per-channel: the reader declared a combinational path triggered by
    /// this channel's `valid`/`data` (see [`Component::comb_paths`]).
    pub(crate) listen_valid: &'a [bool],
    /// Per-channel: the driver declared a path triggered by `ready`.
    pub(crate) listen_ready: &'a [bool],
    /// Per-channel: `valid` and `ready` share a combinational SCC.
    pub(crate) feedback: &'a [bool],
    /// Per-component: owns a damped path, so its eval reads signals it
    /// drives (see [`Component::comb_paths`]).
    pub(crate) hysteretic: &'a [bool],
    pub(crate) cycle: u64,
}

impl<'a, T: Token> EvalCtx<'a, T> {
    /// Index of the cycle currently being evaluated (0-based).
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// True when channel `ch` takes part in a combinational feedback
    /// cycle (its `valid` and `ready` belong to one SCC of the declared
    /// path graph — necessarily through a damped hysteretic path, or the
    /// netlist would have been rejected at build time).
    ///
    /// Ready-aware arbiters use this to decide whether their anti-swap
    /// settle guard is needed: on a feedback channel the downstream
    /// `ready` can combinationally depend on the arbiter's own `valid`,
    /// so the selection must be damped to converge; on a DAG channel the
    /// guard is unnecessary and disabling it keeps the evaluation a pure
    /// function of its inputs (hence order-independent).
    pub fn in_feedback(&self, ch: ChannelId) -> bool {
        self.feedback[ch.0]
    }

    /// Thread count of channel `ch`.
    pub fn threads(&self, ch: ChannelId) -> usize {
        self.channels[ch.0].spec.threads
    }

    /// Current `valid(thread)` on `ch`.
    pub fn valid(&self, ch: ChannelId, thread: usize) -> bool {
        self.channels[ch.0].valid.get(thread)
    }

    /// Current `ready(thread)` on `ch`.
    pub fn ready(&self, ch: ChannelId, thread: usize) -> bool {
        self.channels[ch.0].ready.get(thread)
    }

    /// The packed `valid` mask of `ch` (all threads at once).
    pub fn valid_mask(&self, ch: ChannelId) -> &ThreadMask {
        &self.channels[ch.0].valid
    }

    /// The packed `ready` mask of `ch` (all threads at once).
    pub fn ready_mask(&self, ch: ChannelId) -> &ThreadMask {
        &self.channels[ch.0].ready
    }

    /// Current data word on `ch` (driven by the producer).
    pub fn data(&self, ch: ChannelId) -> Option<&T> {
        self.channels[ch.0].data.as_ref()
    }

    /// The single asserted thread and its data, if exactly one `valid(i)`
    /// is high and data is present.
    pub fn incoming(&self, ch: ChannelId) -> Option<(usize, &T)> {
        let st = &self.channels[ch.0];
        let t = st.single_valid()?;
        st.data.as_ref().map(|d| (t, d))
    }

    /// Marks the channel's reader dirty — but only if it declared a path
    /// triggered by this channel's `valid`/`data`; an unlistened signal
    /// provably cannot change the reader's eval.
    ///
    /// On a feedback channel a *hysteretic* current component — one that
    /// owns a damped path ([`CombPath::ReadyToValid`] with
    /// `damped: true`) — also self-wakes: its selection guard reads the
    /// signals it drives itself, so its eval must re-run until it is a
    /// no-op, the oracle's convergence condition. Every other component
    /// is a pure function of its inputs and registered state, so its
    /// self-wake re-eval would be a guaranteed no-op and is skipped. The
    /// contract this relies on: **an eval that reads a signal it drives
    /// must declare a damped path.** On DAG channels the guards are
    /// disabled and every eval is pure, so no self-wake is needed.
    ///
    /// [`CombPath::ReadyToValid`]: crate::CombPath::ReadyToValid
    #[inline]
    fn wake_reader(&mut self, ch: usize) {
        *self.changed = true;
        if self.listen_valid[ch] {
            self.woke.set(self.reader[ch], true);
        }
        if self.feedback[ch] && self.hysteretic[self.current] {
            self.woke.set(self.current, true);
        }
    }

    /// Marks the channel's driver dirty (same filtering as
    /// [`wake_reader`](Self::wake_reader), for `ready` changes).
    #[inline]
    fn wake_driver(&mut self, ch: usize) {
        *self.changed = true;
        if self.listen_ready[ch] {
            self.woke.set(self.driver[ch], true);
        }
        if self.feedback[ch] && self.hysteretic[self.current] {
            self.woke.set(self.current, true);
        }
    }

    #[inline]
    fn assert_drives(&self, ch: ChannelId, signal: &str) {
        assert_eq!(
            self.driver[ch.0], self.current,
            "component tried to drive {signal} on channel `{}` it does not own",
            self.channels[ch.0].spec.name
        );
    }

    #[inline]
    fn assert_reads(&self, ch: ChannelId) {
        assert_eq!(
            self.reader[ch.0], self.current,
            "component tried to drive ready on channel `{}` it does not read",
            self.channels[ch.0].spec.name
        );
    }

    /// Drives `valid(thread)` on an output channel.
    ///
    /// # Panics
    ///
    /// Panics if the calling component is not the registered driver of
    /// `ch` — this is a component-implementation bug.
    pub fn set_valid(&mut self, ch: ChannelId, thread: usize, value: bool) {
        self.assert_drives(ch, "valid");
        if self.channels[ch.0].valid.set(thread, value) {
            self.wake_reader(ch.0);
        }
    }

    /// Drives `valid(thread)` high and every other thread's valid low in
    /// one word-level pass (the MT channel invariant: at most one valid
    /// thread per cycle).
    ///
    /// # Panics
    ///
    /// Panics if the calling component is not the registered driver of `ch`.
    pub fn set_valid_only(&mut self, ch: ChannelId, thread: usize) {
        self.assert_drives(ch, "valid");
        if self.channels[ch.0].valid.set_only(thread) {
            self.wake_reader(ch.0);
        }
    }

    /// Drives the data word on an output channel.
    ///
    /// # Panics
    ///
    /// Panics if the calling component is not the registered driver of `ch`.
    pub fn set_data(&mut self, ch: ChannelId, value: Option<T>) {
        self.assert_drives(ch, "data");
        let slot = &mut self.channels[ch.0].data;
        if *slot != value {
            *slot = value;
            self.wake_reader(ch.0);
        }
    }

    /// Drives `ready(thread)` on an input channel.
    ///
    /// # Panics
    ///
    /// Panics if the calling component is not the registered reader of `ch`.
    pub fn set_ready(&mut self, ch: ChannelId, thread: usize, value: bool) {
        self.assert_reads(ch);
        if self.channels[ch.0].ready.set(thread, value) {
            self.wake_driver(ch.0);
        }
    }

    /// Drives `ready(thread)` high and every other thread's ready low in
    /// one word-level pass.
    ///
    /// # Panics
    ///
    /// Panics if the calling component is not the registered reader of `ch`.
    pub fn set_ready_only(&mut self, ch: ChannelId, thread: usize) {
        self.assert_reads(ch);
        if self.channels[ch.0].ready.set_only(thread) {
            self.wake_driver(ch.0);
        }
    }

    /// Drives the whole packed `valid` mask of an output channel in one
    /// word-level commit. Observably identical to calling
    /// [`set_valid`](Self::set_valid) for every thread: the wake targets
    /// of a `valid` change do not depend on *which* thread flipped, so a
    /// single reader wake after a word-level diff ([`ThreadMask::assign`])
    /// reaches exactly the same dirty set.
    ///
    /// # Panics
    ///
    /// Panics if the calling component is not the registered driver of
    /// `ch`, or if the mask width differs from the channel's.
    pub fn set_valid_mask(&mut self, ch: ChannelId, mask: &ThreadMask) {
        self.assert_drives(ch, "valid");
        if self.channels[ch.0].valid.assign(mask) {
            self.wake_reader(ch.0);
        }
    }

    /// Drives the whole packed `ready` mask of an input channel in one
    /// word-level commit (the `ready`-side counterpart of
    /// [`set_valid_mask`](Self::set_valid_mask)).
    ///
    /// # Panics
    ///
    /// Panics if the calling component is not the registered reader of
    /// `ch`, or if the mask width differs from the channel's.
    pub fn set_ready_mask(&mut self, ch: ChannelId, mask: &ThreadMask) {
        self.assert_reads(ch);
        if self.channels[ch.0].ready.assign(mask) {
            self.wake_driver(ch.0);
        }
    }

    /// Convenience: drives all `valid` bits low and clears data on an
    /// output channel (an idle producer). Word-level: one clear per mask
    /// word instead of a per-thread loop.
    pub fn drive_idle(&mut self, ch: ChannelId) {
        self.assert_drives(ch, "valid");
        if self.channels[ch.0].valid.clear() {
            self.wake_reader(ch.0);
        }
        self.set_data(ch, None);
    }

    /// Convenience: asserts `valid(thread)` with `data`, deasserting every
    /// other thread's valid bit (the MT channel invariant).
    pub fn drive_token(&mut self, ch: ChannelId, thread: usize, data: T) {
        self.set_valid_only(ch, thread);
        self.set_data(ch, Some(data));
    }

    /// Convenience: drives every `ready` bit of an input channel low.
    /// Word-level: one clear per mask word instead of a per-thread loop.
    pub fn drive_unready(&mut self, ch: ChannelId) {
        self.assert_reads(ch);
        if self.channels[ch.0].ready.clear() {
            self.wake_driver(ch.0);
        }
    }

    /// Convenience: drives every `ready` bit of an input channel high (a
    /// consumer that never stalls, or a shared free slot every thread may
    /// claim). Word-level: one fill per mask word.
    pub fn drive_ready_all(&mut self, ch: ChannelId) {
        self.assert_reads(ch);
        if self.channels[ch.0].ready.fill() {
            self.wake_driver(ch.0);
        }
    }
}

/// Clock-edge view of the circuit handed to
/// [`Component::tick`](crate::Component::tick): read-only access to the
/// settled signals of the finishing cycle.
///
/// [`offered`](Self::offered), [`fired`](Self::fired) and
/// [`fired_any`](Self::fired_any) are O(1): they read the outcome the
/// kernel latched per channel after settle, not the `valid`/`ready`
/// masks. Debug builds check every such read against the masks.
pub struct TickCtx<'a, T: Token> {
    pub(crate) channels: &'a [ChannelState<T>],
    pub(crate) cycle: u64,
}

impl<'a, T: Token> TickCtx<'a, T> {
    /// Index of the cycle whose clock edge is being processed.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Thread count of channel `ch`.
    pub fn threads(&self, ch: ChannelId) -> usize {
        self.channels[ch.0].spec.threads
    }

    /// Settled `valid(thread)`.
    pub fn valid(&self, ch: ChannelId, thread: usize) -> bool {
        self.channels[ch.0].valid.get(thread)
    }

    /// Settled `ready(thread)`.
    pub fn ready(&self, ch: ChannelId, thread: usize) -> bool {
        self.channels[ch.0].ready.get(thread)
    }

    /// The settled packed `valid` mask of `ch`.
    pub fn valid_mask(&self, ch: ChannelId) -> &ThreadMask {
        &self.channels[ch.0].valid
    }

    /// The settled packed `ready` mask of `ch`.
    pub fn ready_mask(&self, ch: ChannelId) -> &ThreadMask {
        &self.channels[ch.0].ready
    }

    /// Settled data word.
    pub fn data(&self, ch: ChannelId) -> Option<&T> {
        self.channels[ch.0].data.as_ref()
    }

    /// The latched state of `ch`, checked against its masks in debug
    /// builds.
    #[inline]
    fn latched(&self, ch: ChannelId) -> &ChannelState<T> {
        let st = &self.channels[ch.0];
        debug_assert_eq!(
            (st.offered, st.fired),
            {
                let t = st.single_valid();
                (t, t.is_some_and(|t| st.ready.get(t)))
            },
            "stale clock-edge latch on channel `{}`",
            st.spec.name
        );
        st
    }

    /// The thread offered on `ch` this cycle — its one settled `valid`
    /// bit — whether or not the transfer fired.
    #[inline]
    pub fn offered(&self, ch: ChannelId) -> Option<usize> {
        self.latched(ch).offered
    }

    /// Whether thread `t`'s transfer fired on `ch` this cycle.
    #[inline]
    pub fn fired(&self, ch: ChannelId, thread: usize) -> bool {
        let st = self.latched(ch);
        st.fired && st.offered == Some(thread)
    }

    /// The thread and token of the transfer that fired on `ch`, if any.
    #[inline]
    pub fn fired_any(&self, ch: ChannelId) -> Option<(usize, &T)> {
        let st = self.latched(ch);
        if st.fired {
            st.offered.zip(st.data.as_ref())
        } else {
            None
        }
    }
}

/// One fired transfer, as reported by [`Circuit::step`].
///
/// Carries only the interned [`ChannelId`] and thread index; resolve the
/// channel name at render time via
/// [`Circuit::channel_name`](Circuit::channel_name) instead of cloning a
/// `String` per transfer on the hot path.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Transfer {
    /// Channel on which the transfer fired.
    pub channel: ChannelId,
    /// Thread that moved.
    pub thread: usize,
}

/// Summary of one simulated cycle.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct CycleReport {
    /// Index of the cycle that just completed.
    pub cycle: u64,
    /// All transfers that fired.
    pub transfers: Vec<Transfer>,
    /// Number of settle rounds the combinational phase needed (the full
    /// sweep counts as round one).
    pub settle_iterations: usize,
    /// Number of `Component::eval` invocations the settle phase performed.
    pub evals: usize,
}

/// What one stepped cycle did, for the public step drivers to report.
struct Stepped {
    /// Settle rounds (the full sweep counts as round one).
    rounds: usize,
    /// `Component::eval` invocations of the settle phase.
    evals: usize,
    /// Transfers that fired at the clock edge.
    fired: usize,
}

/// A fully wired synchronous elastic circuit.
///
/// Build one with [`CircuitBuilder`](crate::CircuitBuilder), then drive it
/// with [`step`](Circuit::step) / [`run`](Circuit::run).
pub struct Circuit<T: Token> {
    /// The components in rank order, as the op table that settles, ticks
    /// and fault-scans them: the boxed vector (interpreted) or a lowered
    /// table (fused).
    pub(crate) components: Box<dyn FusedTable<T>>,
    backend: KernelBackend,
    pub(crate) channels: Vec<ChannelState<T>>,
    /// Per-channel driving component — doubles as the `ready`-change wake
    /// map of the event-driven kernel.
    pub(crate) driver: Vec<usize>,
    /// Per-channel reading component — doubles as the `valid`/`data`
    /// wake map of the event-driven kernel.
    pub(crate) reader: Vec<usize>,
    /// Per-channel wake filter: reader listens to `valid`/`data` changes.
    listen_valid: Vec<bool>,
    /// Per-channel wake filter: driver listens to `ready` changes.
    listen_ready: Vec<bool>,
    /// Per-channel: part of a (damped) combinational feedback cycle.
    feedback: Vec<bool>,
    /// Per-component (rank order): owns a damped path, so it self-wakes
    /// when it changes a feedback channel.
    hysteretic: Vec<bool>,
    /// Widest rank level of the compiled schedule.
    rank_width: u64,
    mode: EvalMode,
    /// Scratch wake flags, one bit per component (the dirty set).
    woke: ThreadMask,
    /// Whether the last stepped cycle ended with no token anywhere.
    quiescent: bool,
    cycle: u64,
    stats: Stats,
    recorder: Option<TraceRecorder>,
    watchdog: Option<u64>,
    idle_cycles: u64,
    /// Cycle of the most recent fired transfer, for watchdog reports.
    last_progress: Option<u64>,
    /// Accumulate settle-phase wall time into
    /// [`KernelStats::settle_nanos`] (off by default: two clock reads per
    /// cycle are pure overhead outside backend-ablation runs).
    time_settle: bool,
}

impl<T: Token> Circuit<T> {
    pub(crate) fn from_parts(
        components: Box<dyn FusedTable<T>>,
        backend: KernelBackend,
        channels: Vec<ChannelState<T>>,
        driver: Vec<usize>,
        reader: Vec<usize>,
        schedule: Schedule,
    ) -> Self {
        let stats = Stats::new(
            channels
                .iter()
                .map(|c| (c.spec.name.clone(), c.spec.threads)),
        );
        let woke = ThreadMask::new(components.len());
        Self {
            components,
            backend,
            channels,
            driver,
            reader,
            listen_valid: schedule.listen_valid,
            listen_ready: schedule.listen_ready,
            feedback: schedule.feedback,
            hysteretic: schedule.hysteretic,
            rank_width: schedule.rank_width,
            mode: EvalMode::default(),
            woke,
            quiescent: false,
            cycle: 0,
            stats,
            recorder: None,
            watchdog: None,
            idle_cycles: 0,
            last_progress: None,
            time_settle: false,
        }
    }

    /// Index of the next cycle to simulate (0 before the first
    /// [`step`](Circuit::step)).
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// The active settle-phase scheduling mode.
    pub fn eval_mode(&self) -> EvalMode {
        self.mode
    }

    /// Which kernel backend this circuit was built with: `Interpreted`
    /// (boxed components, vtable dispatch) or `Fused` (lowered op table).
    pub fn backend(&self) -> KernelBackend {
        self.backend
    }

    /// Selects the settle-phase scheduling mode. Both modes reach the
    /// same fixed point (the exhaustive sweep is kept as the equivalence
    /// oracle); they differ only in how many `eval` calls they spend.
    pub fn set_eval_mode(&mut self, mode: EvalMode) {
        self.mode = mode;
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &Stats {
        &self.stats
    }

    /// Resets the statistics counters (e.g. after a warm-up phase).
    pub fn reset_stats(&mut self) {
        self.stats.reset();
    }

    /// Rewinds the circuit to its freshly built state **without
    /// re-running elaboration**: every component is reset to empty
    /// ([`Component::reset`]), all channel signals are cleared, and the
    /// clock, statistics, dirty set and watchdog bookkeeping start over.
    ///
    /// This is what lets the parallel sweep pool reuse one elaborated
    /// circuit per worker across many sweep points
    /// ([`SimJob::on_circuit`](crate::SimJob::on_circuit)) instead of
    /// paying `build()` per job. The structure (components, channels,
    /// compiled rank schedule), the eval mode and any armed watchdog
    /// persist; recorded traces are dropped and tracing is switched off
    /// (call [`enable_trace`](Circuit::enable_trace) again if needed).
    ///
    /// # Errors
    ///
    /// [`SimError::ResetUnsupported`] if any component keeps the
    /// conservative default `reset` (the circuit is left partially reset
    /// and must be rebuilt). All shipped primitives support reset.
    pub fn reset(&mut self) -> Result<(), SimError> {
        for i in 0..self.components.len() {
            let c = self.components.component_mut(i);
            if !c.reset() {
                return Err(SimError::ResetUnsupported {
                    index: i,
                    component: c.name().to_string(),
                });
            }
        }
        for ch in &mut self.channels {
            ch.clear();
        }
        self.woke.clear();
        self.quiescent = false;
        self.cycle = 0;
        self.stats.reset();
        self.recorder = None;
        self.idle_cycles = 0;
        self.last_progress = None;
        Ok(())
    }

    /// Starts recording cycle traces (unbounded).
    pub fn enable_trace(&mut self) {
        let mut r = TraceRecorder::new();
        r.set_names(self.component_names());
        self.recorder = Some(r);
    }

    /// Starts recording cycle traces, keeping at most `limit` cycles.
    pub fn enable_trace_limited(&mut self, limit: usize) {
        let mut r = TraceRecorder::with_limit(limit);
        r.set_names(self.component_names());
        self.recorder = Some(r);
    }

    /// The recorded trace, if tracing was enabled.
    pub fn trace(&self) -> Option<&TraceRecorder> {
        self.recorder.as_ref()
    }

    /// Arms (or disarms) settle-phase wall timing: while enabled, every
    /// stepped cycle adds the wall time of its combinational settle loop
    /// to [`KernelStats::settle_nanos`]. The clock reads sit outside the
    /// measured span, and the flag is off by default so ordinary runs pay
    /// nothing. Backend ablations gate on this number — it isolates the
    /// phase the dispatch backend actually changes from the tick/capture
    /// phases that are identical across backends.
    ///
    /// [`KernelStats::settle_nanos`]: crate::KernelStats::settle_nanos
    pub fn set_settle_timing(&mut self, enabled: bool) {
        self.time_settle = enabled;
    }

    /// Arms a deadlock watchdog: [`step`](Circuit::step) returns
    /// [`SimError::Deadlock`] after `cycles` consecutive transfer-free
    /// cycles. Disarm with `None`.
    pub fn set_deadlock_watchdog(&mut self, cycles: Option<u64>) {
        self.watchdog = cycles;
        self.idle_cycles = 0;
    }

    /// Evaluation-order index of the component named `name`, if any.
    ///
    /// A by-name lookup is a linear scan over the component names. A
    /// harness that reaches the same component every cycle resolves the
    /// index once with this and then uses [`get_at`](Self::get_at) /
    /// [`get_at_mut`](Self::get_at_mut); [`get`](Self::get) and
    /// [`get_mut`](Self::get_mut) stay the cold-path API.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        (0..self.components.len()).find(|&i| self.components.component(i).name() == name)
    }

    /// Immutable access to a component by instance name.
    pub fn component(&self, name: &str) -> Option<&dyn Component<T>> {
        self.index_of(name).map(|i| self.components.component(i))
    }

    /// Typed immutable access to a component by instance name.
    ///
    /// Returns `None` if no component has that name *or* it is not a `C`.
    pub fn get<C: Component<T> + 'static>(&self, name: &str) -> Option<&C> {
        self.get_at(self.index_of(name)?)
    }

    /// Typed mutable access to a component by instance name.
    pub fn get_mut<C: Component<T> + 'static>(&mut self, name: &str) -> Option<&mut C> {
        self.get_at_mut(self.index_of(name)?)
    }

    /// Typed immutable access to the component at evaluation-order
    /// `index` (see [`index_of`](Self::index_of)).
    ///
    /// Returns `None` if `index` is out of range *or* the component is
    /// not a `C`.
    pub fn get_at<C: Component<T> + 'static>(&self, index: usize) -> Option<&C> {
        if index >= self.components.len() {
            return None;
        }
        self.components
            .component(index)
            .as_any()
            .downcast_ref::<C>()
    }

    /// Typed mutable access to the component at evaluation-order `index`.
    pub fn get_at_mut<C: Component<T> + 'static>(&mut self, index: usize) -> Option<&mut C> {
        if index >= self.components.len() {
            return None;
        }
        self.components
            .component_mut(index)
            .as_any_mut()
            .downcast_mut::<C>()
    }

    /// Names of all components, in evaluation order.
    pub fn component_names(&self) -> Vec<String> {
        (0..self.components.len())
            .map(|i| self.components.component(i).name().to_string())
            .collect()
    }

    /// Structural class of every component, in evaluation order (see
    /// [`Component::netlist_kind`]).
    pub fn component_kinds(&self) -> Vec<crate::netlist::NetlistNodeKind> {
        (0..self.components.len())
            .map(|i| self.components.component(i).netlist_kind())
            .collect()
    }

    /// Name of channel `ch`.
    pub fn channel_name(&self, ch: ChannelId) -> &str {
        &self.channels[ch.0].spec.name
    }

    /// Thread count of channel `ch`.
    pub fn channel_threads(&self, ch: ChannelId) -> usize {
        self.channels[ch.0].spec.threads
    }

    /// All channel ids, in creation order.
    pub fn channel_ids(&self) -> Vec<ChannelId> {
        (0..self.channels.len()).map(ChannelId).collect()
    }

    /// Evaluation-order index of the component driving channel `ch`.
    pub fn channel_driver(&self, ch: ChannelId) -> usize {
        self.driver[ch.0]
    }

    /// Evaluation-order index of the component reading channel `ch`.
    pub fn channel_reader(&self, ch: ChannelId) -> usize {
        self.reader[ch.0]
    }

    /// Simulates one clock cycle.
    ///
    /// # Errors
    ///
    /// * [`SimError::CombinationalLoop`] — the handshake network did not
    ///   settle within the iteration cap (only reachable through a damped
    ///   feedback loop whose hysteresis guarantee is broken; all-strict
    ///   cycles are already rejected at build time);
    /// * [`SimError::ChannelInvariant`] — two threads asserted valid on the
    ///   same channel in the same cycle;
    /// * [`SimError::MissingData`] — a producer asserted valid without data;
    /// * [`SimError::Component`] — a component latched a protocol fault at
    ///   the clock edge;
    /// * [`SimError::Deadlock`] — the watchdog fired (if armed).
    pub fn step(&mut self) -> Result<CycleReport, SimError> {
        let cycle = self.cycle;
        let mut transfers = Vec::new();
        let stepped = self.step_inner(Some(&mut transfers))?;
        Ok(CycleReport {
            cycle,
            transfers,
            settle_iterations: stepped.rounds,
            evals: stepped.evals,
        })
    }

    /// Simulates one clock cycle exactly like [`step`](Circuit::step)
    /// (no quiescence fast-forward) but without materialising transfer
    /// records; returns how many transfers fired. This is the per-cycle
    /// driver for harnesses that only need to know whether anything
    /// moved — it allocates nothing.
    ///
    /// # Errors
    ///
    /// Same as [`step`](Circuit::step).
    pub fn step_fired(&mut self) -> Result<usize, SimError> {
        Ok(self.step_inner(None)?.fired)
    }

    /// The cycle loop body. Fired transfers are pushed to `transfers`
    /// when given — the batch drivers ([`run`](Circuit::run),
    /// [`run_until`](Circuit::run_until)) and [`step_fired`](Circuit::step_fired)
    /// pass `None` and skip the per-transfer record pushes entirely.
    /// Statistics, traces, invariant checks and the watchdog behave
    /// identically either way.
    fn step_inner(
        &mut self,
        mut transfers: Option<&mut Vec<Transfer>>,
    ) -> Result<Stepped, SimError> {
        // Phase 1: combinational fixed point. Signals are *warm-started*
        // from the previous cycle's settled values: every component
        // re-drives all signals it owns whenever it is evaluated (the
        // total-drive rule), so stale values cannot survive to the fixed
        // point, and the previous cycle is usually an excellent initial
        // guess — both faster and closer to how real combinational logic
        // leaves the previous cycle's voltages on the wires.
        //
        // Round 1 is always a full sweep (eval may depend on the cycle
        // number — sink ready policies, source release times). Subsequent
        // rounds depend on the mode: the exhaustive oracle re-sweeps
        // everything until a sweep changes nothing, the event-driven
        // kernel drains the dirty worklist. Each round claims a
        // component's wake flag *before* evaluating it, so a wake issued
        // by an earlier component in the same round is serviced in-round
        // (the sweep stays Gauss–Seidel in component index order) while a
        // wake aimed at an already-evaluated component carries over to
        // the next round.
        let n = self.components.len();
        let max_rounds = 2 * n + 8;
        let exhaustive = self.mode == EvalMode::Exhaustive;
        let mut rounds = 0usize;
        let mut evals = 0usize;
        let mut stable = false;
        let mut op_evals = [0u64; FusedOpKind::COUNT];
        self.woke.clear();
        let settle_start = self.time_settle.then(std::time::Instant::now);
        while rounds < max_rounds {
            let full = exhaustive || rounds == 0;
            let (round_evals, changed) = self.sweep(full, &mut op_evals);
            evals += round_evals;
            rounds += 1;
            // Convergence: the oracle stops when a sweep changes nothing
            // (the historical criterion); the dirty-set kernel stops as
            // soon as the worklist is empty — every component whose
            // inputs changed has been re-evaluated, so the network is at
            // a fixed point even if this round did change signals.
            let converged = if exhaustive {
                !changed
            } else {
                !self.woke.any()
            };
            if converged {
                stable = true;
                break;
            }
        }
        let settle_elapsed = settle_start.map(|t0| t0.elapsed());
        if !stable {
            return Err(SimError::CombinationalLoop {
                cycle: self.cycle,
                iterations: rounds,
                toggling: self.toggling_channels(),
            });
        }
        let kernel = self.stats.kernel_mut();
        if let Some(elapsed) = settle_elapsed {
            kernel.settle_nanos += elapsed.as_nanos() as u64;
        }
        kernel.component_evals += evals as u64;
        kernel.settle_rounds += rounds as u64;
        kernel.components_skipped += (rounds * n - evals) as u64;
        kernel.stepped_cycles += 1;
        if rounds == 1 {
            kernel.single_sweep_cycles += 1;
        }
        // Re-stamped every cycle (rather than once at construction) so it
        // survives `reset_stats` after a warm-up window.
        kernel.rank_width = kernel.rank_width.max(self.rank_width);
        kernel.settle_round_hist[rounds.min(8) - 1] += 1;
        for (acc, delta) in kernel.fused_op_evals.iter_mut().zip(op_evals.iter()) {
            *acc += *delta;
        }

        // Phase 2: one pass over the channels checks the protocol
        // invariant — word-level popcounts; the per-thread index list is
        // materialised only on the error path — and latches each
        // channel's clock-edge outcome. Everything after this reads the
        // latch instead of the masks.
        let mut fired = 0usize;
        let mut any_valid = false;
        for ch in &mut self.channels {
            let offered = match ch.valid.count_ones() {
                0 => None,
                1 => ch.valid.first_one(),
                _ => {
                    return Err(SimError::ChannelInvariant {
                        cycle: self.cycle,
                        channel: ch.spec.name.clone(),
                        threads: ch.valid.iter_ones().collect(),
                    });
                }
            };
            if let (Some(t), None) = (offered, &ch.data) {
                return Err(SimError::MissingData {
                    cycle: self.cycle,
                    channel: ch.spec.name.clone(),
                    thread: t,
                });
            }
            ch.latch(offered);
            any_valid |= offered.is_some();
            fired += usize::from(ch.fired);
        }

        // Phase 3: statistics, transfer records and trace, from the
        // latch. Kept apart from phase 2 so a cycle that fails its checks
        // leaves the statistics untouched.
        for (ci, ch) in self.channels.iter().enumerate() {
            let cs = self.stats.channel_mut(ChannelId(ci));
            let Some(t) = ch.offered else {
                // An idle cycle ends any backpressure streak in progress.
                cs.stall_streak = 0;
                continue;
            };
            cs.busy_cycles += 1;
            if ch.fired {
                cs.transfers[t] += 1;
                cs.stall_streak = 0;
                if let Some(transfers) = transfers.as_deref_mut() {
                    transfers.push(Transfer {
                        channel: ChannelId(ci),
                        thread: t,
                    });
                }
            } else {
                cs.stall_cycles[t] += 1;
                cs.record_stall_occupancy();
            }
        }
        self.stats.record_cycle();

        if let Some(recorder) = &mut self.recorder {
            let channels = self
                .channels
                .iter()
                .map(|ch| ChannelTrace {
                    valid_thread: ch.offered,
                    label: ch.data.as_ref().map(|d| d.label()),
                    fired: ch.fired,
                })
                .collect();
            // Slots are keyed by component index — the recorder's name
            // table resolves them at render time, so the hot path never
            // clones a component name.
            let mut slots = Vec::new();
            for i in 0..self.components.len() {
                let s = self.components.component(i).slots();
                if !s.is_empty() {
                    slots.push((i, s));
                }
            }
            let record = CycleTrace {
                cycle: self.cycle,
                channels,
                slots,
            };
            recorder.push(record);
        }

        // Watchdog: a cycle counts as "stuck" only when some token is
        // offered (a valid is asserted) yet nothing moves. A circuit with
        // no valid tokens at all is quiescent, not deadlocked.
        self.quiescent = fired == 0 && !any_valid;
        if fired > 0 {
            self.last_progress = Some(self.cycle);
        }
        if fired == 0 && any_valid {
            self.idle_cycles += 1;
        } else {
            self.idle_cycles = 0;
        }
        if let Some(limit) = self.watchdog {
            if self.idle_cycles >= limit {
                // Name the culprits: every (channel, thread) whose token
                // is being offered (valid high) without acceptance
                // (ready low) in the settled final cycle.
                let stalled = self
                    .channels
                    .iter()
                    .filter(|ch| !ch.fired)
                    .filter_map(|ch| ch.offered.map(|t| (ch.spec.name.clone(), t)))
                    .collect();
                return Err(SimError::Deadlock {
                    cycle: self.cycle,
                    idle_cycles: self.idle_cycles,
                    last_progress: self.last_progress,
                    stalled,
                });
            }
        }

        // Phase 4: clock edge. The same pass that ticks the components
        // picks up the first fault one latched while processing it (the
        // typed replacement for in-component panics).
        let tick_ctx = TickCtx {
            channels: &self.channels,
            cycle: self.cycle,
        };
        if let Some((i, error)) = self.components.tick_all(&tick_ctx) {
            return Err(SimError::Component {
                cycle: self.cycle,
                component: self.components.component(i).name().to_string(),
                error,
            });
        }

        self.cycle += 1;
        Ok(Stepped {
            rounds,
            evals,
            fired,
        })
    }

    /// One settle round over the op table: a full sweep when `full`,
    /// otherwise only the woken components. Returns the number of evals
    /// and whether any signal changed.
    fn sweep(&mut self, full: bool, op_evals: &mut [u64; FusedOpKind::COUNT]) -> (usize, bool) {
        let mut changed = false;
        let mut ctx = SweepCtx {
            channels: &mut self.channels,
            woke: &mut self.woke,
            changed: &mut changed,
            driver: &self.driver,
            reader: &self.reader,
            listen_valid: &self.listen_valid,
            listen_ready: &self.listen_ready,
            feedback: &self.feedback,
            hysteretic: &self.hysteretic,
            cycle: self.cycle,
        };
        let evals = self.components.sweep(&mut ctx, full, op_evals);
        (evals, changed)
    }

    /// Error-path diagnosis for a settle that hit the round cap: runs one
    /// more full sweep and names every channel whose `valid` or `ready`
    /// it changed.
    fn toggling_channels(&mut self) -> Vec<String> {
        let before: Vec<(ThreadMask, ThreadMask)> = self
            .channels
            .iter()
            .map(|ch| (ch.valid.clone(), ch.ready.clone()))
            .collect();
        self.sweep(true, &mut [0; FusedOpKind::COUNT]);
        self.channels
            .iter()
            .zip(before)
            .filter(|(ch, (valid, ready))| ch.valid != *valid || ch.ready != *ready)
            .map(|(ch, _)| ch.spec.name.clone())
            .collect()
    }

    /// True when the last stepped cycle completed with no transfer and no
    /// asserted `valid` anywhere — the network holds no visible token.
    pub fn is_quiescent(&self) -> bool {
        self.quiescent
    }

    /// The earliest future component event: `Some(None)` when every
    /// component is purely reactive (idle forever), `Some(Some(c))` for
    /// the earliest scheduled cycle, `None` when some component is
    /// time-sensitive every cycle and the fast-path must stay off.
    fn next_component_event(&self) -> Option<Option<u64>> {
        let mut earliest: Option<u64> = None;
        for i in 0..self.components.len() {
            match self.components.component(i).next_event(self.cycle) {
                NextEvent::EveryCycle => return None,
                NextEvent::Idle => {}
                NextEvent::At(at) => {
                    earliest = Some(earliest.map_or(at, |e| e.min(at)));
                }
            }
        }
        Some(earliest)
    }

    /// Quiescence fast-path: advances the clock directly to the next
    /// self-scheduled component event — or to `limit` (exclusive end of
    /// the simulation window) when every component is idle — without
    /// evaluating anything. A cycle can only be skipped when the network
    /// is [quiescent](Circuit::is_quiescent): with no `valid` asserted
    /// anywhere, no transfer can fire and no reactive component can
    /// change state, so the skipped cycles are provably empty. Skipped
    /// cycles still count toward [`Stats::cycles`] (and are tallied in
    /// [`KernelStats::quiesced_cycles`](crate::KernelStats)).
    ///
    /// Returns the number of cycles skipped (0 when the last cycle was
    /// not quiescent, a trace is being recorded, or a component reports
    /// [`NextEvent::EveryCycle`]).
    pub fn fast_forward(&mut self, limit: u64) -> u64 {
        if !self.quiescent || self.recorder.is_some() || self.cycle >= limit {
            return 0;
        }
        let target = match self.next_component_event() {
            None => return 0,
            Some(None) => limit,
            Some(Some(at)) => at.min(limit).max(self.cycle),
        };
        let skipped = target - self.cycle;
        if skipped > 0 {
            self.cycle = target;
            self.stats.record_quiesced(skipped);
        }
        skipped
    }

    /// Simulates `cycles` clock cycles.
    ///
    /// Quiescent stretches (no token anywhere) are fast-forwarded to the
    /// next scheduled component event when tracing is off; the skipped
    /// cycles still count toward the simulated total, so the observable
    /// end state matches stepping cycle by cycle. Unlike
    /// [`step`](Circuit::step), no per-transfer records are collected —
    /// the batch loop allocates nothing per cycle.
    ///
    /// # Errors
    ///
    /// Propagates the first error from [`step`](Circuit::step).
    pub fn run(&mut self, cycles: u64) -> Result<(), SimError> {
        let end = self.cycle.saturating_add(cycles);
        while self.cycle < end {
            self.step_inner(None)?;
            if self.quiescent {
                self.fast_forward(end);
            }
        }
        Ok(())
    }

    /// Steps until `pred` holds (checked *before* each step) or `max_cycles`
    /// elapse. Returns `true` if the predicate was satisfied.
    ///
    /// Quiescent stretches are fast-forwarded exactly as in
    /// [`run`](Circuit::run); the predicate is re-checked after each jump
    /// (it cannot change during skipped cycles, which by construction
    /// move no token and touch no component state).
    ///
    /// # Errors
    ///
    /// Propagates the first error from [`step`](Circuit::step).
    pub fn run_until(
        &mut self,
        max_cycles: u64,
        mut pred: impl FnMut(&Self) -> bool,
    ) -> Result<bool, SimError> {
        let end = self.cycle.saturating_add(max_cycles);
        while self.cycle < end {
            if pred(self) {
                return Ok(true);
            }
            self.step_inner(None)?;
            if self.quiescent {
                self.fast_forward(end);
            }
        }
        Ok(pred(self))
    }
}

impl<T: Token> std::fmt::Debug for Circuit<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Circuit")
            .field("cycle", &self.cycle)
            .field("mode", &self.mode)
            .field("components", &self.component_names())
            .field(
                "channels",
                &self
                    .channels
                    .iter()
                    .map(|c| &c.spec.name)
                    .collect::<Vec<_>>(),
            )
            .finish()
    }
}
