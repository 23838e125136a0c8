//! Testbench endpoints: token sources and sinks with stall policies.

use std::collections::VecDeque;

use crate::channel::ChannelId;
use crate::circuit::{EvalCtx, TickCtx};
use crate::component::{CombPath, Component, NextEvent, Ports};
use crate::mask::ThreadMask;
use crate::netlist::NetlistNodeKind;
use crate::token::Token;

/// Deterministic 64-bit mix (splitmix64 finalizer). Used to derive
/// per-cycle pseudo-random decisions that are *stable across settle
/// iterations* — `eval` must be idempotent within a cycle.
pub(crate) fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// When a [`Sink`] asserts `ready` for a thread.
#[derive(Clone, Debug)]
pub enum ReadyPolicy {
    /// Always ready.
    Always,
    /// Never ready (a permanently blocked consumer).
    Never,
    /// Ready except during the half-open cycle range `from..to`.
    ///
    /// This reproduces scripted stalls such as "thread B stalls during
    /// cycles 2–4" in the paper's Figure 5.
    StallWindow {
        /// First stalled cycle.
        from: u64,
        /// First cycle after the stall.
        to: u64,
    },
    /// Periodically ready: `on` ready cycles followed by `off` stalled
    /// cycles, starting at `phase`.
    Period {
        /// Ready cycles per period.
        on: u64,
        /// Stalled cycles per period.
        off: u64,
        /// Offset of the pattern start.
        phase: u64,
    },
    /// Ready with probability `p` each cycle, deterministically derived
    /// from `seed` (same decision on every settle iteration of a cycle).
    ///
    /// Exactly: with `h = mix64(seed ^ cycle·0x5851_f42d_4c95_7f2d ^
    /// thread << 48)` (the splitmix64 finalizer, wrapping arithmetic),
    /// the thread is ready iff `(h as f64 / u64::MAX as f64) < p`. The
    /// edges follow from that predicate: `p ≤ 0` and NaN are never
    /// ready, `p > 1` is always ready, and `p == 1.0` is ready for every
    /// `h` whose `f64` rounding stays below 2⁶⁴ (all but the top 2¹⁰
    /// hashes).
    Random {
        /// Probability of being ready in a given cycle (0.0–1.0).
        p: f64,
        /// Seed for the per-cycle hash.
        seed: u64,
    },
}

impl ReadyPolicy {
    /// Whether the policy is ready for `thread` at `cycle`.
    pub fn is_ready(&self, cycle: u64, thread: usize) -> bool {
        match *self {
            ReadyPolicy::Always => true,
            ReadyPolicy::Never => false,
            ReadyPolicy::StallWindow { from, to } => !(cycle >= from && cycle < to),
            ReadyPolicy::Period { on, off, phase } => {
                let period = on + off;
                if period == 0 {
                    return true;
                }
                (cycle.wrapping_add(phase)) % period < on
            }
            ReadyPolicy::Random { p, seed } => {
                let h =
                    mix64(seed ^ cycle.wrapping_mul(0x5851_f42d_4c95_7f2d) ^ (thread as u64) << 48);
                (h as f64 / u64::MAX as f64) < p
            }
        }
    }
}

/// The cycle multiplier of [`ReadyPolicy::Random`]'s hash, as spelled
/// out in [`ReadyPolicy::is_ready`] (the spec the compiled rules are
/// tested against).
const RANDOM_CYCLE_MUL: u64 = 0x5851_f42d_4c95_7f2d;

/// The exact integer threshold of [`ReadyPolicy::Random`]: the smallest
/// hash `h` for which the spec predicate `h as f64 / u64::MAX as f64 < p`
/// is false, so a thread is ready iff its hash is below it. `None` when
/// the predicate holds for every hash (`p > 1`); `Some(0)` when it holds
/// for none (`p ≤ 0`, NaN).
///
/// `h ↦ h as f64` is monotone and the division is by a positive
/// constant, so the ready hashes are a prefix of `0..=u64::MAX` and a
/// binary search on the predicate itself finds its end.
fn random_below(p: f64) -> Option<u64> {
    let ready = |h: u64| (h as f64 / u64::MAX as f64) < p;
    if ready(u64::MAX) {
        return None;
    }
    let (mut lo, mut hi) = (0u64, u64::MAX);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if ready(mid) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    Some(lo)
}

/// One thread's [`ReadyPolicy::Random`] compiled to integers: ready iff
/// `mix64(salt ^ cycle·K) < below`, with `salt = seed ^ thread << 48`.
/// In every rule, `bit` is the thread's one-hot bit in its 64-thread
/// word (`1 << thread % 64`).
#[derive(Clone, Copy, Debug)]
struct RandomBit {
    salt: u64,
    below: u64,
    bit: u64,
}

/// One thread's [`ReadyPolicy::StallWindow`]: stalled iff
/// `from <= cycle < to`.
#[derive(Clone, Copy, Debug)]
struct WindowBit {
    from: u64,
    to: u64,
    bit: u64,
}

/// One thread's [`ReadyPolicy::Period`]: ready iff
/// `(cycle + phase) % period < on`, with `0 < on < period`.
#[derive(Clone, Copy, Debug)]
struct PeriodBit {
    on: u64,
    period: u64,
    phase: u64,
    bit: u64,
}

/// The compiled ready policies of one 64-thread word of a [`Sink`]: the
/// constant-ready bits plus one homogeneous list per cycle-dependent
/// rule kind, so building the word is three branch-free loops with no
/// per-thread dispatch and no floating point.
#[derive(Clone, Debug, Default)]
struct ReadyWord {
    always: u64,
    random: Vec<RandomBit>,
    window: Vec<WindowBit>,
    period: Vec<PeriodBit>,
}

impl ReadyWord {
    /// Drops whatever rule the thread of `bit` had (it then reads
    /// never-ready).
    fn remove(&mut self, bit: u64) {
        self.always &= !bit;
        self.random.retain(|r| r.bit != bit);
        self.window.retain(|r| r.bit != bit);
        self.period.retain(|r| r.bit != bit);
    }

    /// The word at `cycle`. Each rule ORs in its one-hot `bit` under an
    /// all-ones/all-zeros mask of its test, so no loop branches.
    fn eval(&self, cycle: u64) -> u64 {
        let mut w = self.always;
        let mixed = cycle.wrapping_mul(RANDOM_CYCLE_MUL);
        for r in &self.random {
            w |= r.bit & u64::from(mix64(r.salt ^ mixed) < r.below).wrapping_neg();
        }
        for r in &self.window {
            w |= r.bit & u64::from(cycle < r.from || cycle >= r.to).wrapping_neg();
        }
        for r in &self.period {
            w |= r.bit & u64::from(cycle.wrapping_add(r.phase) % r.period < r.on).wrapping_neg();
        }
        w
    }
}

/// A sink's per-thread policies compiled once (on construction and on
/// every [`Sink::set_policy`]) into exact integer rules, one
/// [`ReadyWord`] per 64 threads. [`ReadyPolicy::is_ready`] stays the
/// spec; this is the form the fused kernel evaluates every cycle.
#[derive(Clone, Debug)]
struct ReadyRules {
    words: Vec<ReadyWord>,
    /// `(p.to_bits(), random_below(p))` for every distinct `p` seen, so
    /// a sink configured thread by thread derives each threshold once.
    below_memo: Vec<(u64, Option<u64>)>,
}

impl ReadyRules {
    fn new(threads: usize) -> Self {
        Self {
            words: vec![ReadyWord::default(); threads.div_ceil(64)],
            below_memo: Vec::new(),
        }
    }

    fn below(&mut self, p: f64) -> Option<u64> {
        let key = p.to_bits();
        if let Some(&(_, below)) = self.below_memo.iter().find(|(k, _)| *k == key) {
            return below;
        }
        let below = random_below(p);
        self.below_memo.push((key, below));
        below
    }

    /// Compiles `policy` for `thread`, replacing its previous rule.
    /// Policies that do not depend on the cycle (including degenerate
    /// windows, periods and probabilities) fold into the constant word.
    fn set(&mut self, thread: usize, policy: &ReadyPolicy) {
        let below = match *policy {
            ReadyPolicy::Random { p, .. } => self.below(p),
            _ => None,
        };
        let bit = 1u64 << (thread % 64);
        let word = &mut self.words[thread / 64];
        word.remove(bit);
        match *policy {
            ReadyPolicy::Always => word.always |= bit,
            ReadyPolicy::Never => {}
            ReadyPolicy::StallWindow { from, to } => {
                if from < to {
                    word.window.push(WindowBit { from, to, bit });
                } else {
                    word.always |= bit;
                }
            }
            ReadyPolicy::Period { on, off, phase } => {
                if off == 0 {
                    word.always |= bit;
                } else if on > 0 {
                    word.period.push(PeriodBit {
                        on,
                        period: on + off,
                        phase,
                        bit,
                    });
                }
            }
            ReadyPolicy::Random { seed, .. } => match below {
                None => word.always |= bit,
                Some(0) => {}
                Some(below) => word.random.push(RandomBit {
                    salt: seed ^ (thread as u64) << 48,
                    below,
                    bit,
                }),
            },
        }
    }

    /// Writes the ready word of every 64-thread block for `cycle` into
    /// `mask`.
    fn fill(&self, cycle: u64, mask: &mut ThreadMask) {
        for (idx, word) in self.words.iter().enumerate() {
            mask.set_word(idx, word.eval(cycle));
        }
    }
}

/// Injects tokens into a multithreaded elastic channel.
///
/// Each thread owns a FIFO of `(release_cycle, token)` pairs. Every cycle
/// the source considers the threads whose head token is released *and*
/// whose downstream `ready(i)` is high, and offers exactly one of them
/// (round-robin) — respecting the MT channel invariant that only one
/// `valid(i)` may be asserted per cycle.
pub struct Source<T: Token> {
    name: String,
    out: ChannelId,
    threads: usize,
    queues: Vec<VecDeque<(u64, T)>>,
    rr: usize,
    injected: Vec<u64>,
    /// Released-head word for [`Source::eval_fused`]: bit `t` set iff
    /// thread `t`'s queue head is released this cycle. Queues change only
    /// at the clock edge (or between cycles via `push*`), so one rebuild
    /// per cycle serves every settle re-evaluation.
    fused_eligible: ThreadMask,
    /// Cycle-cache stamp for `fused_eligible`: `cycle + 1` when current,
    /// 0 = invalid.
    fused_stamp: u64,
    /// Bit `t` set iff thread `t`'s queue is non-empty, maintained
    /// incrementally on `push*`/tick. While no time-gated token is queued
    /// ([`timed`](Self::timed) is 0) this *is* the eligibility word, so
    /// the per-cycle rebuild collapses to a word copy.
    fused_nonempty: ThreadMask,
    /// Number of queued tokens with a non-zero release cycle. Zero on the
    /// common release-immediately workloads; while non-zero the
    /// eligibility rebuild falls back to the per-thread head scan.
    timed: usize,
}

impl<T: Token> Source<T> {
    /// A source with empty per-thread queues driving `out`.
    pub fn new(name: impl Into<String>, out: ChannelId, threads: usize) -> Self {
        Self {
            name: name.into(),
            out,
            threads,
            queues: (0..threads).map(|_| VecDeque::new()).collect(),
            rr: 0,
            injected: vec![0; threads],
            fused_eligible: ThreadMask::new(threads),
            fused_stamp: 0,
            fused_nonempty: ThreadMask::new(threads),
            timed: 0,
        }
    }

    /// Queues `token` on `thread`, available immediately.
    ///
    /// # Panics
    ///
    /// Panics if `thread` is out of range.
    pub fn push(&mut self, thread: usize, token: T) {
        self.queues[thread].push_back((0, token));
        self.fused_nonempty.set(thread, true);
    }

    /// Queues `token` on `thread`, released no earlier than `cycle`.
    ///
    /// Release cycles are clamped to stay FIFO-monotonic per thread: a
    /// `cycle` earlier than the previously queued token's release (e.g. a
    /// push "in the past" issued mid-run, after the simulation clock — or
    /// a quiescence fast-forward jump — has already passed `cycle`) makes
    /// the token eligible at the next cycle the thread's queue head can
    /// legally release, instead of panicking or wedging the
    /// [`next_event`](Component::next_event) schedule behind an
    /// unreachable timestamp.
    ///
    /// # Panics
    ///
    /// Panics if `thread` is out of range.
    pub fn push_at(&mut self, thread: usize, cycle: u64, token: T) {
        let release = match self.queues[thread].back() {
            Some((last, _)) => cycle.max(*last),
            None => cycle,
        };
        if release > 0 {
            self.timed += 1;
        }
        self.queues[thread].push_back((release, token));
        self.fused_nonempty.set(thread, true);
    }

    /// Queues every token from `iter` on `thread`, available immediately.
    pub fn extend(&mut self, thread: usize, iter: impl IntoIterator<Item = T>) {
        for t in iter {
            self.push(thread, t);
        }
    }

    /// Tokens not yet injected, per thread.
    pub fn pending(&self, thread: usize) -> usize {
        self.queues[thread].len()
    }

    /// Total tokens not yet injected.
    pub fn pending_total(&self) -> usize {
        self.queues.iter().map(VecDeque::len).sum()
    }

    /// Tokens injected so far, per thread.
    pub fn injected(&self, thread: usize) -> u64 {
        self.injected[thread]
    }

    /// True when every queue is drained.
    pub fn is_drained(&self) -> bool {
        self.pending_total() == 0
    }

    fn eligible(&self, cycle: u64) -> impl Iterator<Item = usize> + '_ {
        (0..self.threads)
            .filter(move |&t| self.queues[t].front().is_some_and(|(rel, _)| *rel <= cycle))
    }

    /// Fused-kernel evaluation: identical observable behaviour to
    /// [`Component::eval`], but the released-head scan over the
    /// per-thread queues runs once per cycle into a packed word, and the
    /// round-robin "released ∧ downstream-ready" pick becomes a word-level
    /// wrapping scan instead of per-thread queue probes.
    pub fn eval_fused(&mut self, ctx: &mut EvalCtx<'_, T>) {
        let cycle = ctx.cycle();
        if self.fused_stamp != cycle + 1 {
            if self.timed == 0 {
                // No time-gated token anywhere: every non-empty queue's
                // head is released, so the incrementally maintained
                // occupancy word is the eligibility word.
                self.fused_eligible.copy_from(&self.fused_nonempty);
            } else {
                for t in 0..self.threads {
                    self.fused_eligible.set(
                        t,
                        self.queues[t].front().is_some_and(|(rel, _)| *rel <= cycle),
                    );
                }
            }
            self.fused_stamp = cycle + 1;
        }
        // Ready-first in round-robin order, else the round-robin first
        // released thread (valid may precede ready — the offer stalls).
        // The intersection with `ready(out)` is folded into the wrapping
        // scan, so no scratch mask is touched per evaluation.
        let chosen = self
            .fused_eligible
            .next_one_wrapping_and(ctx.ready_mask(self.out), self.rr)
            .or_else(|| self.fused_eligible.next_one_wrapping(self.rr));
        match chosen {
            Some(t) => {
                let data = self.queues[t]
                    .front()
                    .map(|(_, d)| d.clone())
                    .expect("eligible head");
                ctx.drive_token(self.out, t, data);
            }
            None => ctx.drive_idle(self.out),
        }
    }
}

impl<T: Token> Component<T> for Source<T> {
    fn netlist_kind(&self) -> NetlistNodeKind {
        NetlistNodeKind::Endpoint
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn ports(&self) -> Ports {
        Ports::new([], [self.out])
    }

    fn comb_paths(&self) -> Vec<CombPath> {
        // The arbiter reads `ready(out)` to pick which thread to offer, so
        // downstream ready feeds into `valid(out)`. The offer is re-derived
        // deterministically from the ready mask each sweep (ready request
        // wins, else round-robin fallback), so settle iteration converges
        // even when the channel sits on a ready→valid cycle: damped.
        vec![CombPath::ReadyToValid {
            from: self.out,
            to: self.out,
            damped: true,
        }]
    }

    fn eval(&mut self, ctx: &mut EvalCtx<'_, T>) {
        let cycle = ctx.cycle();
        // Requests: token available and downstream ready (the paper's MEB
        // arbiter likewise "takes into account which threads are ready
        // downstream").
        let mut chosen = None;
        for off in 0..self.threads {
            let t = (self.rr + off) % self.threads;
            let has = self.queues[t].front().is_some_and(|(rel, _)| *rel <= cycle);
            if has && ctx.ready(self.out, t) {
                chosen = Some(t);
                break;
            }
        }
        // If nobody is ready downstream, still offer the round-robin first
        // eligible thread so `valid` precedes `ready` (elastic protocol
        // permits valid-without-ready; the token simply stalls).
        if chosen.is_none() {
            chosen = self
                .eligible(cycle)
                .min_by_key(|&t| (t + self.threads - self.rr) % self.threads);
        }
        match chosen {
            Some(t) => {
                let data = self.queues[t]
                    .front()
                    .map(|(_, d)| d.clone())
                    .expect("eligible head");
                ctx.drive_token(self.out, t, data);
            }
            None => ctx.drive_idle(self.out),
        }
    }

    fn tick(&mut self, ctx: &TickCtx<'_, T>) {
        let Some(t) = ctx.offered(self.out) else {
            return;
        };
        if ctx.fired(self.out, t) {
            if let Some((rel, _)) = self.queues[t].pop_front() {
                if rel > 0 {
                    self.timed -= 1;
                }
            }
            if self.queues[t].is_empty() {
                self.fused_nonempty.set(t, false);
            }
            self.injected[t] += 1;
        }
        // Rotate past the offered thread whether it fired or stalled, so
        // every waiting thread is eventually presented downstream (a
        // closed barrier must be able to observe all arrivals).
        self.rr = (t + 1) % self.threads;
    }

    fn reset(&mut self) -> bool {
        for q in &mut self.queues {
            q.clear();
        }
        self.rr = 0;
        self.injected.iter_mut().for_each(|n| *n = 0);
        self.fused_stamp = 0;
        self.fused_nonempty.clear();
        self.timed = 0;
        true
    }

    fn next_event(&self, now: u64) -> NextEvent {
        // An already-released head means the source is (or should be)
        // asserting valid — report the conservative answer. Otherwise the
        // earliest future release is the next moment this source can act.
        let mut earliest: Option<u64> = None;
        for q in &self.queues {
            if let Some(&(rel, _)) = q.front() {
                if rel <= now {
                    return NextEvent::EveryCycle;
                }
                earliest = Some(earliest.map_or(rel, |e| e.min(rel)));
            }
        }
        match earliest {
            Some(rel) => NextEvent::At(rel),
            None => NextEvent::Idle,
        }
    }

    crate::impl_as_any!();
}

/// Consumes tokens from a channel according to a per-thread
/// [`ReadyPolicy`], optionally capturing everything it accepts.
pub struct Sink<T: Token> {
    name: String,
    inp: ChannelId,
    policies: Vec<ReadyPolicy>,
    captured: Vec<Vec<(u64, T)>>,
    counts: Vec<u64>,
    capture: bool,
    /// `policies` compiled to integer rules, kept in step by
    /// [`set_policy`](Sink::set_policy); [`eval_fused`](Sink::eval_fused)
    /// builds the ready word from these.
    rules: ReadyRules,
    /// Policy-word cache for [`eval_fused`](Sink::eval_fused): the ready
    /// mask computed for cycle `fused_stamp - 1` (`0` = invalid).
    fused_ready: ThreadMask,
    fused_stamp: u64,
}

impl<T: Token> Sink<T> {
    /// A sink applying the same `policy` to every thread, not capturing.
    pub fn new(
        name: impl Into<String>,
        inp: ChannelId,
        threads: usize,
        policy: ReadyPolicy,
    ) -> Self {
        let mut rules = ReadyRules::new(threads);
        for t in 0..threads {
            rules.set(t, &policy);
        }
        Self {
            name: name.into(),
            inp,
            policies: vec![policy; threads],
            captured: (0..threads).map(|_| Vec::new()).collect(),
            counts: vec![0; threads],
            capture: false,
            rules,
            fused_ready: ThreadMask::new(threads),
            fused_stamp: 0,
        }
    }

    /// A sink that records every `(cycle, token)` it consumes.
    pub fn with_capture(
        name: impl Into<String>,
        inp: ChannelId,
        threads: usize,
        policy: ReadyPolicy,
    ) -> Self {
        let mut s = Self::new(name, inp, threads, policy);
        s.capture = true;
        s
    }

    /// Overrides the policy of a single thread (e.g. "thread B stalls").
    ///
    /// # Panics
    ///
    /// Panics if `thread` is out of range.
    pub fn set_policy(&mut self, thread: usize, policy: ReadyPolicy) {
        self.rules.set(thread, &policy);
        self.policies[thread] = policy;
        // A sweep harness reconfigures policies between runs on a reused
        // circuit; the cached policy word is stale the moment one changes.
        self.fused_stamp = 0;
    }

    /// Tokens consumed by `thread`, with the cycle at which each arrived.
    pub fn captured(&self, thread: usize) -> &[(u64, T)] {
        &self.captured[thread]
    }

    /// Number of tokens consumed by `thread` (counted even when payload
    /// capture is disabled).
    pub fn consumed(&self, thread: usize) -> u64 {
        self.counts[thread]
    }

    /// Total tokens consumed across threads.
    pub fn consumed_total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Writes the ready word this sink drives at `cycle` into `out`, as
    /// [`eval_fused`](Sink::eval_fused) builds it: from the compiled
    /// integer rules, equal bit for bit to [`ReadyPolicy::is_ready`] of
    /// every thread.
    ///
    /// # Panics
    ///
    /// Panics if `out` is not as wide as the sink.
    pub fn ready_word(&self, cycle: u64, out: &mut ThreadMask) {
        assert_eq!(out.threads(), self.policies.len(), "mask width mismatch");
        self.rules.fill(cycle, out);
    }

    /// Fused-kernel evaluation: identical observable behaviour to
    /// [`eval`](Component::eval), but the ready word is built once per
    /// *cycle* from the policies compiled to exact integer rules (no
    /// floating point, no per-thread policy dispatch), one local `u64`
    /// per 64 threads, and committed with a single word-level mask write
    /// instead of a per-thread setter loop.
    pub fn eval_fused(&mut self, ctx: &mut EvalCtx<'_, T>) {
        let cycle = ctx.cycle();
        if self.fused_stamp != cycle + 1 {
            self.rules.fill(cycle, &mut self.fused_ready);
            self.fused_stamp = cycle + 1;
            // Commit once per cycle: the sink is the only driver of
            // `ready(inp)` and the word depends on the cycle number
            // alone, so re-commits on settle re-evaluations would be
            // guaranteed no-ops — skip them.
            ctx.set_ready_mask(self.inp, &self.fused_ready);
        }
    }
}

impl<T: Token> Component<T> for Sink<T> {
    fn netlist_kind(&self) -> NetlistNodeKind {
        NetlistNodeKind::Endpoint
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn ports(&self) -> Ports {
        Ports::new([self.inp], [])
    }

    fn comb_paths(&self) -> Vec<CombPath> {
        // Ready is a pure function of the cycle number and the policy —
        // it never looks at `valid(inp)`, so there is no valid→ready path
        // (the conservative default would wrongly declare one and drag the
        // sink into a feedback cycle with its source).
        Vec::new()
    }

    fn eval(&mut self, ctx: &mut EvalCtx<'_, T>) {
        let cycle = ctx.cycle();
        for (t, policy) in self.policies.iter().enumerate() {
            ctx.set_ready(self.inp, t, policy.is_ready(cycle, t));
        }
    }

    fn tick(&mut self, ctx: &TickCtx<'_, T>) {
        if let Some((t, data)) = ctx.fired_any(self.inp) {
            self.counts[t] += 1;
            if self.capture {
                self.captured[t].push((ctx.cycle(), data.clone()));
            }
        }
    }

    fn reset(&mut self) -> bool {
        // Policies and the capture flag are configuration; only the
        // recorded consumption rewinds. The policy-word cache is keyed by
        // cycle, which restarts at 0, so it must be invalidated too.
        for c in &mut self.captured {
            c.clear();
        }
        self.counts.iter_mut().for_each(|n| *n = 0);
        self.fused_stamp = 0;
        true
    }

    fn next_event(&self, _now: u64) -> NextEvent {
        // Purely reactive. Ready policies do depend on the cycle number,
        // but while the network is quiescent no token exists for a ready
        // change to release, and the first stepped cycle after a jump
        // re-sweeps every component, recomputing the policies at the new
        // cycle.
        NextEvent::Idle
    }

    crate::impl_as_any!();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ready_policy_windows_and_periods() {
        let w = ReadyPolicy::StallWindow { from: 2, to: 5 };
        assert!(w.is_ready(1, 0));
        assert!(!w.is_ready(2, 0));
        assert!(!w.is_ready(4, 0));
        assert!(w.is_ready(5, 0));

        let p = ReadyPolicy::Period {
            on: 1,
            off: 2,
            phase: 0,
        };
        assert!(p.is_ready(0, 0));
        assert!(!p.is_ready(1, 0));
        assert!(!p.is_ready(2, 0));
        assert!(p.is_ready(3, 0));
    }

    #[test]
    fn random_policy_is_cycle_deterministic() {
        let r = ReadyPolicy::Random { p: 0.5, seed: 42 };
        for cycle in 0..64 {
            assert_eq!(r.is_ready(cycle, 0), r.is_ready(cycle, 0));
        }
        // Roughly half ready over a long horizon.
        let ready = (0..10_000).filter(|&c| r.is_ready(c, 0)).count();
        assert!((3_000..7_000).contains(&ready), "ready={ready}");
    }

    /// The probabilities the compiled `Random` rule must get exactly
    /// right: the never/always edges, the smallest subnormal, the
    /// workload values and the neighbours of 1.0.
    const EDGE_PS: [f64; 9] = [
        0.0,
        -1.0,
        f64::NAN,
        f64::from_bits(1),
        0.02,
        0.5,
        1.0 - f64::EPSILON / 2.0,
        1.0,
        1.0 + f64::EPSILON,
    ];

    const WIDTHS: [usize; 5] = [1, 63, 64, 65, 100];

    /// Inverse of `x ^= x >> s`.
    fn unxorshift(y: u64, s: u32) -> u64 {
        let mut x = y;
        for _ in 0..64 / s + 1 {
            x = y ^ (x >> s);
        }
        x
    }

    /// Multiplicative inverse of an odd `c` modulo 2⁶⁴ (Newton).
    fn inverse(c: u64) -> u64 {
        let mut inv = c;
        for _ in 0..6 {
            inv = inv.wrapping_mul(2u64.wrapping_sub(c.wrapping_mul(inv)));
        }
        inv
    }

    /// Inverse of [`mix64`], so a test can pick the hash a thread sees.
    fn unmix64(h: u64) -> u64 {
        let x = unxorshift(h, 31).wrapping_mul(inverse(0x94d0_49bb_1331_11eb));
        let x = unxorshift(x, 27).wrapping_mul(inverse(0xbf58_476d_1ce4_e5b9));
        unxorshift(x, 30).wrapping_sub(0x9e37_79b9_7f4a_7c15)
    }

    /// The ready word the spec gives: one `is_ready` call per thread.
    fn spec_word(policies: &[ReadyPolicy], cycle: u64) -> ThreadMask {
        let bits: Vec<bool> = policies
            .iter()
            .enumerate()
            .map(|(t, p)| p.is_ready(cycle, t))
            .collect();
        ThreadMask::from_bools(&bits)
    }

    fn compiled_word(sink: &Sink<u64>, cycle: u64) -> ThreadMask {
        let mut mask = ThreadMask::new(sink.policies.len());
        sink.ready_word(cycle, &mut mask);
        mask
    }

    #[test]
    fn unmix64_inverts_mix64() {
        for x in [0, 1, 42, u64::MAX, 0x0123_4567_89ab_cdef] {
            assert_eq!(mix64(unmix64(x)), x);
        }
    }

    #[test]
    fn random_below_is_the_spec_boundary() {
        let spec = |h: u64, p: f64| (h as f64 / u64::MAX as f64) < p;
        for p in EDGE_PS {
            match random_below(p) {
                None => assert!((0..64).all(|k| spec(u64::MAX >> k, p)), "p={p:e}"),
                Some(below) => {
                    assert!(!spec(below, p), "p={p:e}: hash {below} must stall");
                    if below > 0 {
                        assert!(
                            spec(below - 1, p),
                            "p={p:e}: hash {} must be ready",
                            below - 1
                        );
                    }
                }
            }
        }
        assert_eq!(random_below(0.0), Some(0));
        assert_eq!(random_below(-1.0), Some(0));
        assert_eq!(random_below(f64::NAN), Some(0));
        assert_eq!(random_below(f64::from_bits(1)), Some(1));
        assert_eq!(random_below(1.0), Some(u64::MAX - 1023));
        assert_eq!(random_below(1.0 + f64::EPSILON), None);
    }

    /// The compiled ready word equals the per-thread spec bits for every
    /// edge probability and width, on hashes aimed at the threshold:
    /// each thread's seed is chosen (through [`unmix64`]) so its hash at
    /// the probed cycle is `below − 1`, `below`, `below + 1`, 0,
    /// `u64::MAX` or a random value. An off-by-one threshold fails here.
    #[test]
    fn compiled_random_word_matches_is_ready_at_the_threshold() {
        for (case, p) in EDGE_PS.into_iter().enumerate() {
            let below = random_below(p).unwrap_or(u64::MAX);
            for threads in WIDTHS {
                for probe in 0..8u64 {
                    let r = mix64(case as u64 ^ (threads as u64) << 8 ^ probe << 16);
                    let cycle = if probe == 0 { 0 } else { r >> 20 };
                    let mut sink =
                        Sink::<u64>::new("snk", ChannelId(0), threads, ReadyPolicy::Always);
                    for t in 0..threads {
                        let target = match t % 6 {
                            0 => below.wrapping_sub(1),
                            1 => below,
                            2 => below.wrapping_add(1),
                            3 => 0,
                            4 => u64::MAX,
                            _ => mix64(r ^ t as u64),
                        };
                        let seed = unmix64(target)
                            ^ cycle.wrapping_mul(RANDOM_CYCLE_MUL)
                            ^ (t as u64) << 48;
                        sink.set_policy(t, ReadyPolicy::Random { p, seed });
                    }
                    // The probed cycle, and its neighbours on plain hashes.
                    for c in [cycle, cycle.wrapping_add(1), cycle.wrapping_add(977)] {
                        assert_eq!(
                            compiled_word(&sink, c),
                            spec_word(&sink.policies, c),
                            "p={p:e} threads={threads} cycle={c}"
                        );
                    }
                }
            }
        }
    }

    /// Mixed policies of every kind, including degenerate windows and
    /// periods, reconfigured thread by thread between probes: the
    /// compiled word tracks the spec after every `set_policy`.
    #[test]
    fn compiled_mixed_policies_track_set_policy() {
        let policy = |k: u64| match k % 9 {
            0 => ReadyPolicy::Always,
            1 => ReadyPolicy::Never,
            2 => ReadyPolicy::StallWindow {
                from: k % 7,
                to: 3 + k % 11,
            },
            3 => ReadyPolicy::StallWindow { from: 9, to: 9 },
            4 => ReadyPolicy::Period {
                on: k % 4,
                off: k % 3,
                phase: k % 5,
            },
            5 => ReadyPolicy::Period {
                on: 0,
                off: 0,
                phase: 1,
            },
            _ => ReadyPolicy::Random {
                p: EDGE_PS[(k >> 4) as usize % EDGE_PS.len()],
                seed: mix64(k),
            },
        };
        for threads in WIDTHS {
            let mut sink = Sink::<u64>::new(
                "snk",
                ChannelId(0),
                threads,
                ReadyPolicy::Random { p: 0.5, seed: 3 },
            );
            for round in 0..40u64 {
                let k = mix64(round ^ (threads as u64) << 32);
                let t = (k % threads as u64) as usize;
                sink.set_policy(t, policy(k >> 8));
                for cycle in (round * 5)..(round * 5 + 5) {
                    assert_eq!(
                        compiled_word(&sink, cycle),
                        spec_word(&sink.policies, cycle),
                        "threads={threads} round={round} cycle={cycle}"
                    );
                }
            }
        }
    }

    #[test]
    fn source_release_cycles_are_clamped_monotonic() {
        // A push "before" an already-queued release keeps FIFO order by
        // clamping: the new token becomes eligible when its predecessor
        // is, rather than panicking (the old behaviour) or producing a
        // release schedule that runs backwards.
        let mut s = Source::<u64>::new("s", ChannelId(0), 1);
        s.push_at(0, 5, 1);
        s.push_at(0, 3, 2);
        assert_eq!(s.next_event(0), NextEvent::At(5));
        assert_eq!(
            s.queues[0].iter().map(|(r, _)| *r).collect::<Vec<_>>(),
            vec![5, 5],
            "late push clamps to the predecessor's release cycle"
        );
    }

    #[test]
    fn push_in_the_past_mid_run_releases_next_eligible_cycle() {
        // Regression: a token pushed with a release cycle the simulation
        // clock has already passed (easy to do after a quiescence
        // fast-forward jump) must flow on the next cycle, not stall and
        // not corrupt the fast-forward accounting.
        use crate::builder::CircuitBuilder;

        let mut b = CircuitBuilder::<u64>::new();
        let ch = b.channel("ch", 1);
        let mut src = Source::<u64>::new("src", ch, 1);
        src.push(0, 1);
        b.add(src);
        b.add(Sink::with_capture("snk", ch, 1, ReadyPolicy::Always));
        let mut c = b.build().expect("valid");

        // Token 1 is delivered at cycle 0; the rest of the window is
        // quiescent and fast-forwarded.
        c.run(40).expect("clean");
        assert_eq!(c.cycle(), 40);
        assert!(c.is_quiescent());
        assert!(c.stats().kernel().quiesced_cycles > 0, "gap was stepped");

        // Now push "at cycle 3" — 37 cycles in the past.
        let src: &mut Source<u64> = c.get_mut("src").expect("source");
        src.push_at(0, 3, 2);
        assert_eq!(
            src.next_event(40),
            NextEvent::EveryCycle,
            "released head reports conservative next_event"
        );
        c.run(5).expect("clean");

        let snk: &Sink<u64> = c.get("snk").expect("sink");
        assert_eq!(
            snk.captured(0),
            &[(0, 1), (40, 2)],
            "past-released token must fire on the first cycle after the push"
        );
        // Cycle accounting stayed consistent across the jump + late push.
        assert_eq!(c.cycle(), 45);
        assert_eq!(c.stats().cycles(), 45);
    }

    #[test]
    fn source_eval_is_idempotent_within_a_cycle() {
        // Regression for the stalled-offer fallback: with no thread ready
        // downstream, a second settle sweep must re-derive exactly the
        // same offer — `eval` may not depend on how many times it ran.
        use crate::channel::{ChannelSpec, ChannelState};

        let mut src = Source::<u64>::new("src", ChannelId(0), 3);
        src.push(0, 10);
        src.push(1, 11);
        src.push(2, 12);
        src.rr = 1; // mid-rotation, as after a few simulated cycles

        let mut channels = vec![ChannelState::<u64>::new(ChannelSpec {
            name: "ch".into(),
            threads: 3,
        })];
        let driver = vec![0usize];
        let reader = vec![0usize];
        let listen_valid = vec![false];
        let listen_ready = vec![true];
        let feedback = vec![false];
        let hysteretic = vec![true];
        let mut woke = crate::ThreadMask::new(1);
        let mut sweep = |src: &mut Source<u64>, channels: &mut Vec<ChannelState<u64>>| {
            let mut changed = false;
            let mut ctx = EvalCtx {
                channels,
                woke: &mut woke,
                changed: &mut changed,
                current: 0,
                driver: &driver,
                reader: &reader,
                listen_valid: &listen_valid,
                listen_ready: &listen_ready,
                feedback: &feedback,
                hysteretic: &hysteretic,
                cycle: 4,
            };
            src.eval(&mut ctx);
            changed
        };

        // Nobody ready: the fallback offer must be stable across sweeps.
        sweep(&mut src, &mut channels);
        let first = (channels[0].valid.clone(), channels[0].data);
        let changed = sweep(&mut src, &mut channels);
        assert!(
            !changed,
            "second sweep changed signals the first already settled"
        );
        assert_eq!((channels[0].valid.clone(), channels[0].data), first);
        assert_eq!(
            channels[0].single_valid(),
            Some(1),
            "fallback follows the rr pointer"
        );

        // Downstream becomes ready for thread 2 only: again stable.
        channels[0].ready = crate::ThreadMask::from_bools(&[false, false, true]);
        sweep(&mut src, &mut channels);
        let first = (channels[0].valid.clone(), channels[0].data);
        let changed = sweep(&mut src, &mut channels);
        assert!(!changed);
        assert_eq!((channels[0].valid.clone(), channels[0].data), first);
        assert_eq!(
            channels[0].single_valid(),
            Some(2),
            "ready request wins over fallback"
        );
    }

    #[test]
    fn source_next_event_reports_earliest_release() {
        let mut s = Source::<u64>::new("s", ChannelId(0), 2);
        assert_eq!(s.next_event(0), NextEvent::Idle);
        s.push_at(0, 9, 1);
        s.push_at(1, 5, 2);
        assert_eq!(s.next_event(3), NextEvent::At(5));
        assert_eq!(s.next_event(5), NextEvent::EveryCycle);
    }

    #[test]
    fn source_tracks_pending_counts() {
        let mut s = Source::<u64>::new("s", ChannelId(0), 2);
        s.extend(0, [1, 2, 3]);
        s.push(1, 9);
        assert_eq!(s.pending(0), 3);
        assert_eq!(s.pending(1), 1);
        assert_eq!(s.pending_total(), 4);
        assert!(!s.is_drained());
    }
}
