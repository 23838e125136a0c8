//! Fork: replication of one channel to several consumers (paper, Fig. 3
//! and Fig. 7(b)).
//!
//! Two classic control disciplines are provided:
//!
//! * **lazy** — all outputs must be ready simultaneously; the token is
//!   delivered to everybody in one cycle;
//! * **eager** — each output takes the token as soon as it is ready; a
//!   per-(output, thread) `done` bit remembers partial delivery and the
//!   input is consumed once every output has been served. Eager forks
//!   decouple slow consumers and avoid throughput loss.
//!
//! The multithreaded M-Fork is the per-thread replication of the baseline
//! fork; the `done` state is therefore indexed by thread as well.

use elastic_sim::{
    impl_as_any, ChannelId, CombPath, Component, EvalCtx, NetlistNodeKind, NextEvent, Ports,
    ThreadMask, TickCtx, Token,
};

/// Per-token output-routing function (see [`Fork::with_route`]).
type RouteFn<T> = Box<dyn Fn(&T) -> Vec<bool> + Send>;

/// Fork control discipline.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum ForkMode {
    /// All-or-nothing delivery.
    Lazy,
    /// Per-output delivery with done bits (the default).
    #[default]
    Eager,
}

/// A 1-to-N fork.
///
/// # Examples
///
/// ```
/// use elastic_core::{Fork, ForkMode};
/// use elastic_sim::{CircuitBuilder, ReadyPolicy, Sink, Source};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = CircuitBuilder::<u64>::new();
/// let x = b.channel("x", 1);
/// let y0 = b.channel("y0", 1);
/// let y1 = b.channel("y1", 1);
/// let mut src = Source::new("src", x, 1);
/// src.extend(0, [5, 6]);
/// b.add(src);
/// b.add(Fork::new("f", x, vec![y0, y1], 1, ForkMode::Eager));
/// b.add(Sink::with_capture("s0", y0, 1, ReadyPolicy::Always));
/// b.add(Sink::with_capture("s1", y1, 1, ReadyPolicy::Always));
/// let mut circuit = b.build()?;
/// circuit.run(5)?;
/// let s0: &Sink<u64> = circuit.get("s0").expect("sink");
/// assert_eq!(s0.consumed_total(), 2);
/// # Ok(())
/// # }
/// ```
pub struct Fork<T: Token> {
    name: String,
    inp: ChannelId,
    outputs: Vec<ChannelId>,
    mode: ForkMode,
    /// `done[o]` bit `t`: output `o` has already received thread `t`'s
    /// current token (eager mode only).
    done: Vec<ThreadMask>,
    /// Optional per-token routing: outputs whose mask entry is `false` do
    /// not receive the token (they are treated as already done).
    route: Option<RouteFn<T>>,
    /// Scratch word for the per-output commits.
    word: ThreadMask,
    /// Scratch word accumulating `ready(inp)` across the outputs.
    ready_word: ThreadMask,
    _marker: std::marker::PhantomData<T>,
}

impl<T: Token> Fork<T> {
    /// A fork from `inp` to `outputs`.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two outputs are given.
    pub fn new(
        name: impl Into<String>,
        inp: ChannelId,
        outputs: Vec<ChannelId>,
        threads: usize,
        mode: ForkMode,
    ) -> Self {
        assert!(outputs.len() >= 2, "a fork needs at least two outputs");
        let n = outputs.len();
        Self {
            name: name.into(),
            inp,
            outputs,
            mode,
            done: vec![ThreadMask::new(threads); n],
            route: None,
            word: ThreadMask::new(threads),
            ready_word: ThreadMask::new(threads),
            _marker: std::marker::PhantomData,
        }
    }

    /// Makes the fork *routing*: `f` returns, per token, which outputs
    /// receive it (`true` entries). A token routed to a single output
    /// behaves like a demultiplexed branch; a token routed to several
    /// outputs is replicated to exactly those. Only meaningful in
    /// [`ForkMode::Eager`].
    ///
    /// # Panics
    ///
    /// The component panics during simulation if `f` returns a mask whose
    /// length differs from the output count, or an all-`false` mask (the
    /// token could never be consumed and the pipeline would wedge).
    #[must_use]
    pub fn with_route(mut self, f: impl Fn(&T) -> Vec<bool> + Send + 'static) -> Self {
        self.route = Some(Box::new(f));
        self
    }

    /// The fork's control discipline.
    pub fn mode(&self) -> ForkMode {
        self.mode
    }

    /// Routing mask for the current token; `None` means "all outputs"
    /// (the common non-routing case, which allocates nothing).
    fn route_mask(&self, token: Option<&T>) -> Option<Vec<bool>> {
        let mask = self.route.as_ref()?(token?);
        assert_eq!(mask.len(), self.outputs.len(), "route mask length mismatch");
        assert!(
            mask.iter().any(|&m| m),
            "route mask must select at least one output"
        );
        Some(mask)
    }
}

impl<T: Token> Component<T> for Fork<T> {
    fn netlist_kind(&self) -> NetlistNodeKind {
        NetlistNodeKind::Route
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn ports(&self) -> Ports {
        Ports::new([self.inp], self.outputs.clone())
    }

    fn comb_paths(&self) -> Vec<CombPath> {
        let mut paths = Vec::new();
        match self.mode {
            ForkMode::Lazy => {
                // valid(out_o) = valid(inp) ∧ ready(every other output);
                // ready(inp) = ready(every output).
                for (o, &out) in self.outputs.iter().enumerate() {
                    paths.push(CombPath::ValidToValid {
                        from: self.inp,
                        to: out,
                    });
                    for (p, &other) in self.outputs.iter().enumerate() {
                        if p != o {
                            paths.push(CombPath::ReadyToValid {
                                from: other,
                                to: out,
                                damped: false,
                            });
                        }
                    }
                    paths.push(CombPath::ReadyToReady {
                        from: out,
                        to: self.inp,
                    });
                }
            }
            ForkMode::Eager => {
                // valid(out_o) = valid(inp) ∧ ¬done; ready(inp) reads the
                // offered thread (valid(inp) itself, for routing) plus
                // every output's ready.
                for &out in &self.outputs {
                    paths.push(CombPath::ValidToValid {
                        from: self.inp,
                        to: out,
                    });
                    paths.push(CombPath::ReadyToReady {
                        from: out,
                        to: self.inp,
                    });
                }
                paths.push(CombPath::ValidToReady {
                    from: self.inp,
                    to: self.inp,
                });
            }
        }
        paths
    }

    fn eval(&mut self, ctx: &mut EvalCtx<'_, T>) {
        let data = ctx.data(self.inp).cloned();
        self.ready_word.fill();
        match self.mode {
            ForkMode::Lazy => {
                // valid(out_o) = valid(inp) ∧ ready(every other output);
                // ready(inp) = ready(every output).
                for (o, &out) in self.outputs.iter().enumerate() {
                    self.word.copy_from(ctx.valid_mask(self.inp));
                    for (p, &other) in self.outputs.iter().enumerate() {
                        if p != o {
                            self.word.and_with(ctx.ready_mask(other));
                        }
                    }
                    ctx.set_valid_mask(out, &self.word);
                    self.ready_word.and_with(ctx.ready_mask(out));
                }
            }
            ForkMode::Eager => {
                let mask = self.route_mask(data.as_ref());
                let offered = ctx.valid_mask(self.inp).first_one();
                for (o, &out) in self.outputs.iter().enumerate() {
                    let routed = mask.as_ref().is_none_or(|m| m[o]);
                    // valid(out_o) = valid(inp) ∧ ¬done[o] on a routed
                    // output, low on an unrouted one.
                    if routed {
                        self.word.copy_from(ctx.valid_mask(self.inp));
                        self.word.and_not_with(&self.done[o]);
                    } else {
                        self.word.clear();
                    }
                    ctx.set_valid_mask(out, &self.word);
                    // Input consumed once every (routed) output is done
                    // or accepting. The mask belongs to the *offered*
                    // token; for any other thread the data bus does not
                    // hold its token, so answer conservatively as if it
                    // routed to every output — a conservative ready can
                    // only be upgraded once the thread is offered, which
                    // keeps the upstream selection from chasing a false
                    // ready.
                    self.word.copy_from(&self.done[o]);
                    self.word.or_with(ctx.ready_mask(out));
                    if let (false, Some(t)) = (routed, offered) {
                        self.word.set(t, true);
                    }
                    self.ready_word.and_with(&self.word);
                }
            }
        }
        ctx.set_ready_mask(self.inp, &self.ready_word);
        for &out in &self.outputs {
            ctx.set_data(out, data.clone());
        }
    }

    fn tick(&mut self, ctx: &TickCtx<'_, T>) {
        if self.mode == ForkMode::Lazy {
            return;
        }
        let Some(t) = ctx.offered(self.inp) else {
            return;
        };
        if ctx.fired(self.inp, t) {
            // Token fully delivered: clear this thread's done bits.
            for d in &mut self.done {
                d.set(t, false);
            }
        } else {
            // Partial delivery: latch which outputs took it.
            for (o, &out) in self.outputs.iter().enumerate() {
                if ctx.fired(out, t) {
                    self.done[o].set(t, true);
                }
            }
        }
    }

    fn next_event(&self, _now: u64) -> NextEvent {
        NextEvent::Idle
    }

    fn reset(&mut self) -> bool {
        for d in &mut self.done {
            d.clear();
        }
        true
    }

    impl_as_any!();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eb::ElasticBuffer;
    use elastic_sim::{Circuit, CircuitBuilder, ReadyPolicy, Sink, Source, Tagged};

    fn fork_fixture(mode: ForkMode, p0: ReadyPolicy, p1: ReadyPolicy) -> Circuit<u64> {
        let mut b = CircuitBuilder::<u64>::new();
        let x = b.channel("x", 1);
        let y0 = b.channel("y0", 1);
        let y1 = b.channel("y1", 1);
        let mut src = Source::new("src", x, 1);
        src.extend(0, 0..10u64);
        b.add(src);
        b.add(Fork::new("f", x, vec![y0, y1], 1, mode));
        b.add(Sink::with_capture("s0", y0, 1, p0));
        b.add(Sink::with_capture("s1", y1, 1, p1));
        b.build().expect("valid")
    }

    #[test]
    fn lazy_fork_delivers_to_all_simultaneously() {
        let mut c = fork_fixture(ForkMode::Lazy, ReadyPolicy::Always, ReadyPolicy::Always);
        c.run(15).expect("clean");
        let s0: &Sink<u64> = c.get("s0").expect("s0");
        let s1: &Sink<u64> = c.get("s1").expect("s1");
        assert_eq!(s0.consumed(0), 10);
        assert_eq!(s1.consumed(0), 10);
        // Same arrival cycles on both branches.
        let c0: Vec<u64> = s0.captured(0).iter().map(|&(c, _)| c).collect();
        let c1: Vec<u64> = s1.captured(0).iter().map(|&(c, _)| c).collect();
        assert_eq!(c0, c1);
    }

    #[test]
    fn lazy_fork_is_blocked_by_slowest_branch() {
        let mut c = fork_fixture(
            ForkMode::Lazy,
            ReadyPolicy::Always,
            ReadyPolicy::Period {
                on: 1,
                off: 3,
                phase: 0,
            },
        );
        c.run(60).expect("clean");
        let s0: &Sink<u64> = c.get("s0").expect("s0");
        let s1: &Sink<u64> = c.get("s1").expect("s1");
        // Both branches advance in lock-step at the slow branch's rate.
        assert_eq!(s0.consumed(0), s1.consumed(0));
        assert_eq!(s0.consumed(0), 10);
    }

    #[test]
    fn eager_fork_lets_fast_branch_run_ahead_by_one_token() {
        let mut c = fork_fixture(ForkMode::Eager, ReadyPolicy::Always, ReadyPolicy::Never);
        c.run(10).expect("clean");
        let s0: &Sink<u64> = c.get("s0").expect("s0");
        let s1: &Sink<u64> = c.get("s1").expect("s1");
        // The fast branch received the head token; the input then waits
        // for the blocked branch (done bit set, no duplication).
        assert_eq!(s0.consumed(0), 1);
        assert_eq!(s1.consumed(0), 0);
    }

    #[test]
    fn eager_fork_never_duplicates_or_reorders() {
        let mut c = fork_fixture(
            ForkMode::Eager,
            ReadyPolicy::Random { p: 0.5, seed: 1 },
            ReadyPolicy::Random { p: 0.3, seed: 2 },
        );
        c.run(200).expect("clean");
        for s in ["s0", "s1"] {
            let snk: &Sink<u64> = c.get(s).expect("sink");
            let vals: Vec<u64> = snk.captured(0).iter().map(|&(_, v)| v).collect();
            assert_eq!(vals, (0..10u64).collect::<Vec<_>>(), "{s} stream corrupted");
        }
    }

    /// M-Fork: per-thread done bits mean a stalled thread on one branch
    /// does not corrupt another thread's delivery.
    #[test]
    fn mfork_tracks_done_bits_per_thread() {
        let mut b = CircuitBuilder::<Tagged>::new();
        let x0 = b.channel("x0", 2);
        let x1 = b.channel("x1", 2);
        let y0 = b.channel("y0", 2);
        let y1 = b.channel("y1", 2);
        let mut src = Source::new("src", x0, 2);
        for t in 0..2 {
            src.extend(t, (0..6).map(|i| Tagged::new(t, i, i)));
        }
        b.add(src);
        b.add(crate::meb::ReducedMeb::new(
            "meb",
            x0,
            x1,
            2,
            crate::arbiter::ArbiterKind::RoundRobin.build(),
        ));
        b.add(Fork::new("f", x1, vec![y0, y1], 2, ForkMode::Eager));
        // Branch y1 blocks thread 0 for a while; thread 1 must keep moving
        // on both branches.
        let mut s1 = Sink::with_capture("s1", y1, 2, ReadyPolicy::Always);
        s1.set_policy(0, ReadyPolicy::StallWindow { from: 0, to: 20 });
        b.add(Sink::with_capture("s0", y0, 2, ReadyPolicy::Always));
        b.add(s1);
        let mut circuit = b.build().expect("valid");
        circuit.set_deadlock_watchdog(Some(60));
        circuit.run(100).expect("clean");
        for s in ["s0", "s1"] {
            let snk: &Sink<Tagged> = circuit.get(s).expect("sink");
            for t in 0..2 {
                let seqs: Vec<u64> = snk.captured(t).iter().map(|(_, tok)| tok.seq).collect();
                assert_eq!(seqs, (0..6).collect::<Vec<_>>(), "{s} thread {t}");
            }
        }
    }

    /// A routing fork sends each token to exactly the outputs its mask
    /// selects — and to several when the mask says so.
    #[test]
    fn routing_fork_demultiplexes_and_replicates() {
        let mut b = CircuitBuilder::<u64>::new();
        let x = b.channel("x", 1);
        let y0 = b.channel("y0", 1);
        let y1 = b.channel("y1", 1);
        let mut src = Source::new("src", x, 1);
        src.extend(0, 0..9u64);
        b.add(src);
        // Multiples of 3 go to both outputs, even → y0, odd → y1.
        b.add(
            Fork::new("f", x, vec![y0, y1], 1, ForkMode::Eager).with_route(|v: &u64| {
                if v.is_multiple_of(3) {
                    vec![true, true]
                } else {
                    vec![v.is_multiple_of(2), !v.is_multiple_of(2)]
                }
            }),
        );
        b.add(Sink::with_capture("s0", y0, 1, ReadyPolicy::Always));
        b.add(Sink::with_capture("s1", y1, 1, ReadyPolicy::Always));
        let mut c = b.build().expect("valid");
        c.run(20).expect("clean");
        let s0: &Sink<u64> = c.get("s0").expect("s0");
        let s1: &Sink<u64> = c.get("s1").expect("s1");
        let v0: Vec<u64> = s0.captured(0).iter().map(|&(_, v)| v).collect();
        let v1: Vec<u64> = s1.captured(0).iter().map(|&(_, v)| v).collect();
        assert_eq!(v0, vec![0, 2, 3, 4, 6, 8]);
        assert_eq!(v1, vec![0, 1, 3, 5, 6, 7]);
    }

    /// A fork inside an EB-bounded stage sustains full throughput when
    /// both branches are free-flowing (eager mode).
    #[test]
    fn eager_fork_full_throughput_between_ebs() {
        let mut b = CircuitBuilder::<u64>::new();
        let a = b.channel("a", 1);
        let x = b.channel("x", 1);
        let y0 = b.channel("y0", 1);
        let y1 = b.channel("y1", 1);
        let mut src = Source::new("src", a, 1);
        src.extend(0, 0..50u64);
        b.add(src);
        b.add(ElasticBuffer::new("eb", a, x));
        b.add(Fork::new("f", x, vec![y0, y1], 1, ForkMode::Eager));
        b.add(Sink::new("s0", y0, 1, ReadyPolicy::Always));
        b.add(Sink::new("s1", y1, 1, ReadyPolicy::Always));
        let mut circuit = b.build().expect("valid");
        circuit.run(56).expect("clean");
        assert_eq!(circuit.stats().total_transfers(y0), 50);
        assert_eq!(circuit.stats().total_transfers(y1), 50);
    }
}
