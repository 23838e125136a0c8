//! Datapath units: zero-latency combinational transforms and
//! variable-latency servers.
//!
//! The paper treats "instruction and data memory as well as the execution
//! units" as *variable latency units* (Sec. V-B); elasticity exists
//! precisely to tolerate them. [`VarLatency`] models such a unit: it
//! accepts one token per cycle, holds it for a (possibly data-dependent or
//! random) number of cycles, and emits completed tokens in per-thread FIFO
//! order through an internal round-robin selector.

use std::collections::VecDeque;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::channel::ChannelId;
use crate::circuit::{EvalCtx, TickCtx};
use crate::component::{CombPath, Component, NextEvent, Ports, SlotView};
use crate::mask::ThreadMask;
use crate::netlist::NetlistNodeKind;
use crate::token::Token;

/// Per-token latency function (see [`LatencyModel::PerToken`]).
pub type TokenLatencyFn<T> = Box<dyn Fn(&T) -> u32 + Send>;

/// Emission transform function (see [`VarLatency::with_transform`]).
type TransformFn<T> = Box<dyn Fn(&T) -> T + Send>;

/// How a [`VarLatency`] unit chooses each token's service latency.
pub enum LatencyModel<T> {
    /// Every token takes exactly `n` cycles (`n >= 1`).
    Fixed(u32),
    /// Uniform in `min..=max` cycles, drawn from a seeded RNG at insert
    /// time (deterministic for a given seed and arrival order).
    Uniform {
        /// Minimum latency (>= 1).
        min: u32,
        /// Maximum latency.
        max: u32,
        /// RNG seed.
        seed: u64,
    },
    /// Latency computed from the token itself.
    PerToken(TokenLatencyFn<T>),
}

impl<T> LatencyModel<T> {
    fn sample(&self, token: &T, rng: &mut StdRng) -> u32 {
        let l = match self {
            LatencyModel::Fixed(n) => *n,
            LatencyModel::Uniform { min, max, .. } => rng.gen_range(*min..=*max),
            LatencyModel::PerToken(f) => f(token),
        };
        l.max(1)
    }

    fn seed(&self) -> u64 {
        match self {
            LatencyModel::Uniform { seed, .. } => *seed,
            _ => 0,
        }
    }
}

impl<T> std::fmt::Debug for LatencyModel<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LatencyModel::Fixed(n) => write!(f, "Fixed({n})"),
            LatencyModel::Uniform { min, max, seed } => {
                write!(f, "Uniform({min}..={max}, seed={seed})")
            }
            LatencyModel::PerToken(_) => write!(f, "PerToken(..)"),
        }
    }
}

#[derive(Clone, Debug)]
struct Entry<T> {
    thread: usize,
    token: T,
    done_at: u64,
}

/// A variable-latency elastic server with `capacity` internal slots.
///
/// * `ready(i)` upstream is asserted while a slot is free (shared across
///   threads, like a small reservation station);
/// * a completed token becomes eligible when it is the *oldest in-flight
///   token of its thread* (per-thread order is preserved);
/// * among eligible tokens whose downstream `ready(i)` is high, a
///   round-robin pointer picks one per cycle.
///
/// With `LatencyModel::Fixed(1)` and capacity 1 this degenerates to a
/// registered function unit.
pub struct VarLatency<T: Token> {
    name: String,
    inp: ChannelId,
    out: ChannelId,
    threads: usize,
    capacity: usize,
    latency: LatencyModel<T>,
    transform: Option<TransformFn<T>>,
    entries: VecDeque<Entry<T>>,
    rng: StdRng,
    rr: usize,
    /// First-eval-of-cycle detection for the anti-swap guard (see
    /// `choose`).
    last_eval_cycle: Option<u64>,
    /// Threads whose oldest in-flight entry is complete, rebuilt in place
    /// by [`scan_heads`](Self::scan_heads) every eval.
    heads: ThreadMask,
    /// Threads already met during that scan (scratch).
    seen: ThreadMask,
}

impl<T: Token> VarLatency<T> {
    /// A unit reading `inp` and driving `out` for `threads` threads.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(
        name: impl Into<String>,
        inp: ChannelId,
        out: ChannelId,
        threads: usize,
        capacity: usize,
        latency: LatencyModel<T>,
    ) -> Self {
        assert!(
            capacity > 0,
            "a variable-latency unit needs at least one slot"
        );
        let seed = latency.seed();
        Self {
            name: name.into(),
            inp,
            out,
            threads,
            capacity,
            latency,
            transform: None,
            entries: VecDeque::new(),
            rng: StdRng::seed_from_u64(seed ^ 0xE1A5),
            rr: 0,
            last_eval_cycle: None,
            heads: ThreadMask::new(threads),
            seen: ThreadMask::new(threads),
        }
    }

    /// Applies `f` to every token when it is emitted (a latent function
    /// unit rather than a pure delay).
    #[must_use]
    pub fn with_transform(mut self, f: impl Fn(&T) -> T + Send + 'static) -> Self {
        self.transform = Some(Box::new(f));
        self
    }

    /// Number of tokens currently in flight.
    pub fn occupancy(&self) -> usize {
        self.entries.len()
    }

    /// Rebuilds [`heads`](Self::heads): the threads whose oldest
    /// in-flight entry is complete at `cycle`. `entries` is globally FIFO,
    /// so the first entry met per thread is that thread's oldest.
    fn scan_heads(&mut self, cycle: u64) {
        self.seen.clear();
        self.heads.clear();
        for e in &self.entries {
            if self.seen.set(e.thread, true) && e.done_at <= cycle {
                self.heads.set(e.thread, true);
            }
        }
    }

    /// Chooses the thread to offer among [`heads`](Self::heads). Mirrors
    /// the MEB selection discipline (ready-first, anti-swap guard between
    /// settle passes, rotating stalled offer) so that two
    /// variable-latency units feeding a join cannot chase each other's
    /// offers — the same convergence argument as `elastic-core`'s
    /// `select_output_thread` (see `docs/kernel.md` §3). Every scan is a
    /// word-level rotation over `heads ∩ ready(out)`.
    fn choose(&self, ctx: &EvalCtx<'_, T>, fresh: bool) -> Option<usize> {
        let ready = ctx.ready_mask(self.out);
        let Some(ready_pick) = self.heads.next_one_wrapping_and(ready, self.rr) else {
            return self.heads.next_one_wrapping(self.rr);
        };
        // The anti-swap guard only matters when downstream ready can
        // change *between* settle passes, i.e. when `out` sits on a
        // feedback cycle. On a DAG the rank schedule evaluates the
        // consumer first, so the first pass already sees final ready and
        // the pure ready-first pick keeps eval order-independent.
        if !fresh && ctx.in_feedback(self.out) {
            if let Some(c) = ctx.valid_mask(self.out).first_one() {
                if self.heads.get(c) && !ready.get(c) {
                    // Yield the current offer only to a ready thread that
                    // ranks earlier in the global rotating priority.
                    let start = ctx.cycle() as usize % self.threads;
                    let rank = |t: usize| (t + self.threads - start) % self.threads;
                    let best = self
                        .heads
                        .next_one_wrapping_and(ready, start)
                        .expect("ready pick exists");
                    return Some(if rank(best) < rank(c) { best } else { c });
                }
            }
        }
        Some(ready_pick)
    }
}

impl<T: Token> Component<T> for VarLatency<T> {
    fn netlist_kind(&self) -> NetlistNodeKind {
        NetlistNodeKind::Unit
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn ports(&self) -> Ports {
        Ports::new([self.inp], [self.out])
    }

    fn comb_paths(&self) -> Vec<CombPath> {
        // Upstream ready depends only on registered occupancy; output
        // valid depends only on registered entries plus downstream ready
        // (the arbiter's ready-first pick), which is damped by the
        // anti-swap guard. There is no input→output combinational path.
        vec![CombPath::ReadyToValid {
            from: self.out,
            to: self.out,
            damped: true,
        }]
    }

    fn eval(&mut self, ctx: &mut EvalCtx<'_, T>) {
        // Upstream ready: any free slot, shared by all threads.
        if self.entries.len() < self.capacity {
            ctx.drive_ready_all(self.inp);
        } else {
            ctx.drive_unready(self.inp);
        }
        // Downstream valid: the chosen completed head.
        let fresh = self.last_eval_cycle != Some(ctx.cycle());
        self.last_eval_cycle = Some(ctx.cycle());
        self.scan_heads(ctx.cycle());
        match self.choose(ctx, fresh) {
            Some(t) => {
                let idx = self
                    .entries
                    .iter()
                    .position(|e| e.thread == t)
                    .expect("chosen thread has a head entry");
                let token = &self.entries[idx].token;
                let data = match &self.transform {
                    Some(f) => f(token),
                    None => token.clone(),
                };
                ctx.drive_token(self.out, t, data);
            }
            None => ctx.drive_idle(self.out),
        }
    }

    fn tick(&mut self, ctx: &TickCtx<'_, T>) {
        // Emit first (frees the slot next cycle, not this one — the input
        // ready this cycle already accounted for the pre-emission count).
        if let Some(t) = ctx.offered(self.out) {
            if ctx.fired(self.out, t) {
                if let Some(pos) = self
                    .entries
                    .iter()
                    .position(|e| e.thread == t && e.done_at <= ctx.cycle())
                {
                    self.entries.remove(pos);
                }
            }
            // Rotate past the offered thread whether it fired or stalled,
            // so a stalled offer does not starve the other done threads.
            self.rr = (t + 1) % self.threads;
        }
        if let Some((t, data)) = ctx.fired_any(self.inp) {
            let lat = self.latency.sample(data, &mut self.rng);
            self.entries.push_back(Entry {
                thread: t,
                token: data.clone(),
                done_at: ctx.cycle() + u64::from(lat),
            });
        }
    }

    fn reset(&mut self) -> bool {
        self.entries.clear();
        // Re-seed so a reset-then-rerun draws the same latency stream as a
        // fresh build (byte-identical campaigns across reuse).
        self.rng = StdRng::seed_from_u64(self.latency.seed() ^ 0xE1A5);
        self.rr = 0;
        self.last_eval_cycle = None;
        true
    }

    fn slots(&self) -> Vec<SlotView> {
        (0..self.capacity)
            .map(|i| match self.entries.get(i) {
                Some(e) => SlotView::full(format!("slot[{i}]"), e.thread, e.token.label()),
                None => SlotView::empty(format!("slot[{i}]")),
            })
            .collect()
    }

    fn next_event(&self, now: u64) -> NextEvent {
        // The unit acts spontaneously when an in-flight token completes:
        // the earliest per-thread head deadline is the next event. A head
        // already complete means valid is (or should be) asserted.
        let mut seen = ThreadMask::new(self.threads);
        let mut earliest: Option<u64> = None;
        for e in &self.entries {
            if !seen.get(e.thread) {
                seen.set(e.thread, true);
                if e.done_at <= now {
                    return NextEvent::EveryCycle;
                }
                earliest = Some(earliest.map_or(e.done_at, |x| x.min(e.done_at)));
            }
        }
        match earliest {
            Some(at) => NextEvent::At(at),
            None => NextEvent::Idle,
        }
    }

    crate::impl_as_any!();
}

/// A zero-latency combinational function unit: passes the handshake
/// through unchanged and maps the data word with `f`.
///
/// Placing a [`Transform`] between two elastic buffers models a pipeline
/// stage's combinational logic (e.g. one unrolled MD5 round).
pub struct Transform<T: Token> {
    name: String,
    inp: ChannelId,
    out: ChannelId,
    /// Scratch word: each handshake mask is copied across in one
    /// word-level commit.
    word: ThreadMask,
    f: Box<dyn Fn(&T) -> T + Send>,
}

impl<T: Token> Transform<T> {
    /// A combinational unit computing `f` between `inp` and `out`.
    pub fn new(
        name: impl Into<String>,
        inp: ChannelId,
        out: ChannelId,
        threads: usize,
        f: impl Fn(&T) -> T + Send + 'static,
    ) -> Self {
        Self {
            name: name.into(),
            inp,
            out,
            word: ThreadMask::new(threads),
            f: Box::new(f),
        }
    }
}

impl<T: Token> Component<T> for Transform<T> {
    fn netlist_kind(&self) -> NetlistNodeKind {
        NetlistNodeKind::Unit
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn ports(&self) -> Ports {
        Ports::new([self.inp], [self.out])
    }

    fn comb_paths(&self) -> Vec<CombPath> {
        // Pure pass-through: valid and data flow forward, ready flows
        // backward, both zero-latency.
        vec![
            CombPath::ValidToValid {
                from: self.inp,
                to: self.out,
            },
            CombPath::ReadyToReady {
                from: self.out,
                to: self.inp,
            },
        ]
    }

    fn eval(&mut self, ctx: &mut EvalCtx<'_, T>) {
        self.word.copy_from(ctx.valid_mask(self.inp));
        ctx.set_valid_mask(self.out, &self.word);
        self.word.copy_from(ctx.ready_mask(self.out));
        ctx.set_ready_mask(self.inp, &self.word);
        let data = ctx.data(self.inp).map(|d| (self.f)(d));
        ctx.set_data(self.out, data);
    }

    fn tick(&mut self, _ctx: &TickCtx<'_, T>) {}

    fn reset(&mut self) -> bool {
        true // stateless
    }

    fn next_event(&self, _now: u64) -> NextEvent {
        NextEvent::Idle
    }

    crate::impl_as_any!();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_model_samples_at_least_one() {
        let mut rng = StdRng::seed_from_u64(1);
        let m = LatencyModel::<u64>::Fixed(0);
        assert_eq!(m.sample(&0, &mut rng), 1);
        let m = LatencyModel::<u64>::Uniform {
            min: 2,
            max: 5,
            seed: 7,
        };
        for _ in 0..32 {
            let l = m.sample(&0, &mut rng);
            assert!((2..=5).contains(&l));
        }
        let m = LatencyModel::PerToken(Box::new(|t: &u64| *t as u32));
        assert_eq!(m.sample(&9, &mut rng), 9);
    }

    #[test]
    fn completed_heads_respects_per_thread_order() {
        let mut v = VarLatency::<u64>::new(
            "v",
            ChannelId(0),
            ChannelId(1),
            2,
            4,
            LatencyModel::Fixed(1),
        );
        v.entries.push_back(Entry {
            thread: 0,
            token: 1,
            done_at: 10,
        });
        v.entries.push_back(Entry {
            thread: 0,
            token: 2,
            done_at: 0,
        });
        v.entries.push_back(Entry {
            thread: 1,
            token: 3,
            done_at: 0,
        });
        // Thread 0's head is not done; its second (done) entry must wait.
        v.scan_heads(5);
        assert_eq!(v.heads.iter_ones().collect::<Vec<_>>(), vec![1]);
    }

    #[test]
    fn next_event_tracks_per_thread_head_deadlines() {
        let mut v = VarLatency::<u64>::new(
            "v",
            ChannelId(0),
            ChannelId(1),
            2,
            4,
            LatencyModel::Fixed(1),
        );
        assert_eq!(v.next_event(0), NextEvent::Idle);
        v.entries.push_back(Entry {
            thread: 0,
            token: 1,
            done_at: 12,
        });
        v.entries.push_back(Entry {
            thread: 1,
            token: 2,
            done_at: 8,
        });
        // Thread 0's second entry completes earlier but is not the head.
        v.entries.push_back(Entry {
            thread: 0,
            token: 3,
            done_at: 5,
        });
        assert_eq!(v.next_event(3), NextEvent::At(8));
        assert_eq!(v.next_event(8), NextEvent::EveryCycle);
    }

    #[test]
    fn slots_report_occupancy() {
        let mut v = VarLatency::<u64>::new(
            "v",
            ChannelId(0),
            ChannelId(1),
            1,
            2,
            LatencyModel::Fixed(1),
        );
        v.entries.push_back(Entry {
            thread: 0,
            token: 42,
            done_at: 3,
        });
        let slots = v.slots();
        assert_eq!(slots.len(), 2);
        assert_eq!(slots[0].occupant, Some((0, "42".to_string())));
        assert_eq!(slots[1].occupant, None);
    }
}
