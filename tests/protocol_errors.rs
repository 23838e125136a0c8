//! The kernel's protocol checks, exercised deliberately: ill-formed
//! circuits must be *reported*, not mis-simulated.

use mt_elastic::sim::{
    impl_as_any, BuildError, ChannelId, Circuit, CircuitBuilder, CombPath, Component, EvalCtx,
    KernelBackend, Ports, ProtocolError, ReadyPolicy, SimError, Sink, Source, TickCtx, Transform,
};

/// A misbehaving producer that asserts two valids at once.
struct DoubleValid {
    out: ChannelId,
}

impl Component<u64> for DoubleValid {
    fn name(&self) -> &str {
        "double_valid"
    }
    fn ports(&self) -> Ports {
        Ports::new([], [self.out])
    }
    fn eval(&mut self, ctx: &mut EvalCtx<'_, u64>) {
        ctx.set_valid(self.out, 0, true);
        ctx.set_valid(self.out, 1, true);
        ctx.set_data(self.out, Some(1));
    }
    fn tick(&mut self, _ctx: &TickCtx<'_, u64>) {}
    impl_as_any!();
}

/// A producer that asserts valid but never drives data.
struct NoData {
    out: ChannelId,
}

impl Component<u64> for NoData {
    fn name(&self) -> &str {
        "no_data"
    }
    fn ports(&self) -> Ports {
        Ports::new([], [self.out])
    }
    fn eval(&mut self, ctx: &mut EvalCtx<'_, u64>) {
        ctx.set_valid(self.out, 0, true);
        ctx.set_data(self.out, None);
    }
    fn tick(&mut self, _ctx: &TickCtx<'_, u64>) {}
    impl_as_any!();
}

#[test]
fn multiple_valids_violate_the_mt_channel_invariant() {
    let mut b = CircuitBuilder::<u64>::new();
    let ch = b.channel("bus", 2);
    b.add(DoubleValid { out: ch });
    b.add(Sink::new("snk", ch, 2, ReadyPolicy::Always));
    let mut circuit = b.build().expect("structurally valid");
    let err = circuit.step().expect_err("invariant must trip");
    match err {
        SimError::ChannelInvariant {
            channel, threads, ..
        } => {
            assert_eq!(channel, "bus");
            assert_eq!(threads, vec![0, 1]);
        }
        other => panic!("unexpected: {other}"),
    }
}

#[test]
fn valid_without_data_is_reported() {
    let mut b = CircuitBuilder::<u64>::new();
    let ch = b.channel("bus", 1);
    b.add(NoData { out: ch });
    b.add(Sink::new("snk", ch, 1, ReadyPolicy::Always));
    let mut circuit = b.build().expect("structurally valid");
    let err = circuit.step().expect_err("missing data must trip");
    assert!(
        matches!(err, SimError::MissingData { thread: 0, .. }),
        "{err}"
    );
}

/// Two combinational transforms wired in a loop: structurally legal (one
/// driver/reader per channel) but has no settling fixed point — the
/// circuit class elastic design forbids without a buffer. The rank
/// schedule rejects it at build time, naming the offending components.
#[test]
fn unbuffered_combinational_loop_is_detected() {
    struct Gate {
        name: &'static str,
        invert: bool,
        inp: ChannelId,
        out: ChannelId,
    }
    impl Component<u64> for Gate {
        fn name(&self) -> &str {
            self.name
        }
        fn ports(&self) -> Ports {
            Ports::new([self.inp], [self.out])
        }
        fn eval(&mut self, ctx: &mut EvalCtx<'_, u64>) {
            let v = ctx.valid(self.inp, 0);
            ctx.set_valid(self.out, 0, v ^ self.invert);
            ctx.set_data(self.out, Some(0));
            ctx.set_ready(self.inp, 0, false);
        }
        fn tick(&mut self, _ctx: &TickCtx<'_, u64>) {}
        impl_as_any!();
    }
    // x = !y and y = x ⇒ x = !x: no fixed point exists.
    let mut b = CircuitBuilder::<u64>::new();
    let x = b.channel("x", 1);
    let y = b.channel("y", 1);
    b.add(Gate {
        name: "not",
        invert: true,
        inp: x,
        out: y,
    });
    b.add(Gate {
        name: "wire",
        invert: false,
        inp: y,
        out: x,
    });
    let err = b
        .build()
        .expect_err("combinational loop must be rejected at build()");
    match err {
        BuildError::CombinationalLoop { components } => {
            assert_eq!(
                components,
                vec!["not".to_string(), "wire".to_string()],
                "both gates on the cycle must be named"
            );
        }
        other => panic!("expected CombinationalLoop, got {other}"),
    }
}

/// A ring whose components declare their arcs damped but break the
/// hysteresis promise (they flip their outputs on every eval) passes
/// `build()` and never settles: the runtime round cap fires and the
/// error names both ring channels as still toggling.
#[test]
fn broken_damping_fails_at_run_time_naming_the_toggling_channels() {
    struct Flipper {
        name: &'static str,
        inp: ChannelId,
        out: ChannelId,
        phase: bool,
    }
    impl Component<u64> for Flipper {
        fn name(&self) -> &str {
            self.name
        }
        fn ports(&self) -> Ports {
            Ports::new([self.inp], [self.out])
        }
        fn comb_paths(&self) -> Vec<CombPath> {
            vec![
                CombPath::ReadyToValid {
                    from: self.out,
                    to: self.out,
                    damped: true,
                },
                CombPath::ValidToReady {
                    from: self.inp,
                    to: self.inp,
                },
            ]
        }
        fn eval(&mut self, ctx: &mut EvalCtx<'_, u64>) {
            self.phase = !self.phase;
            if self.phase {
                ctx.drive_token(self.out, 0, 0);
            } else {
                ctx.drive_idle(self.out);
            }
            ctx.set_ready(self.inp, 0, self.phase);
        }
        fn tick(&mut self, _ctx: &TickCtx<'_, u64>) {}
        impl_as_any!();
    }
    let mut b = CircuitBuilder::<u64>::new();
    let x = b.channel("x", 1);
    let y = b.channel("y", 1);
    for (name, inp, out) in [("f0", x, y), ("f1", y, x)] {
        b.add(Flipper {
            name,
            inp,
            out,
            phase: false,
        });
    }
    let mut circuit = b.build().expect("damped ring is legal at build time");
    let err = circuit.step().expect_err("the ring never settles");
    match &err {
        SimError::CombinationalLoop { toggling, .. } => {
            assert_eq!(toggling, &vec!["x".to_string(), "y".to_string()]);
        }
        other => panic!("expected CombinationalLoop, got {other}"),
    }
    assert!(err.to_string().contains("`x`, `y`"), "{err}");
}

/// A component driving a channel it does not own is a programming error
/// caught by the eval context's ownership assertions.
#[test]
fn driving_a_foreign_channel_panics() {
    struct Trespasser {
        mine: ChannelId,
        theirs: ChannelId,
    }
    impl Component<u64> for Trespasser {
        fn name(&self) -> &str {
            "trespasser"
        }
        fn ports(&self) -> Ports {
            Ports::new([], [self.mine])
        }
        fn eval(&mut self, ctx: &mut EvalCtx<'_, u64>) {
            ctx.drive_idle(self.mine);
            ctx.set_valid(self.theirs, 0, true); // not ours!
        }
        fn tick(&mut self, _ctx: &TickCtx<'_, u64>) {}
        impl_as_any!();
    }
    let mut b = CircuitBuilder::<u64>::new();
    let mine = b.channel("mine", 1);
    let theirs = b.channel("theirs", 1);
    b.add(Trespasser { mine, theirs });
    let mut src = Source::new("src", theirs, 1);
    src.push(0, 1);
    b.add(src);
    b.add(Sink::new("s1", mine, 1, ReadyPolicy::Always));
    b.add(Sink::new("s2", theirs, 1, ReadyPolicy::Always));
    let mut circuit = b.build().expect("structurally valid");
    let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| circuit.step()));
    assert!(r.is_err(), "ownership assertion must panic");
}

/// A component that latches a protocol fault at its clock edge is
/// reported as a typed [`SimError::Component`] by the kernel — no panic,
/// no `catch_unwind`.
#[test]
fn latched_component_fault_is_surfaced_as_typed_error() {
    struct Faulty {
        out: ChannelId,
        fault: Option<ProtocolError>,
    }
    impl Component<u64> for Faulty {
        fn name(&self) -> &str {
            "faulty_eb"
        }
        fn ports(&self) -> Ports {
            Ports::new([], [self.out])
        }
        fn eval(&mut self, ctx: &mut EvalCtx<'_, u64>) {
            ctx.drive_idle(self.out);
        }
        fn tick(&mut self, ctx: &TickCtx<'_, u64>) {
            if ctx.cycle() == 2 {
                self.fault = Some(ProtocolError::BufferUnderflow);
            }
        }
        fn take_fault(&mut self) -> Option<ProtocolError> {
            self.fault.take()
        }
        impl_as_any!();
    }
    let mut b = CircuitBuilder::<u64>::new();
    let ch = b.channel("bus", 1);
    b.add(Faulty {
        out: ch,
        fault: None,
    });
    b.add(Sink::new("snk", ch, 1, ReadyPolicy::Always));
    let mut circuit = b.build().expect("structurally valid");
    let err = circuit.run(10).expect_err("fault must surface");
    match err {
        SimError::Component {
            cycle,
            component,
            error,
        } => {
            assert_eq!(cycle, 2);
            assert_eq!(component, "faulty_eb");
            assert_eq!(error, ProtocolError::BufferUnderflow);
        }
        other => panic!("unexpected: {other}"),
    }
}

/// The elastic-buffer FSM reports violations as values, and seeding a MEB
/// beyond its per-thread capacity is a typed error too (these used to be
/// `panic!`s that tests had to catch as unwinds).
#[test]
fn buffer_protocol_violations_are_typed_values() {
    use mt_elastic::core::{ArbiterKind, EbState, ReducedMeb};

    assert_eq!(
        EbState::Empty.advance(false, true),
        Err(ProtocolError::BufferUnderflow)
    );
    assert_eq!(
        EbState::Full.advance(true, false),
        Err(ProtocolError::BufferOverflow)
    );
    assert_eq!(EbState::Half.advance(true, false), Ok(EbState::Full));

    let mut b = CircuitBuilder::<u64>::new();
    let a = b.channel("a", 2);
    let c = b.channel("c", 2);
    let err = ReducedMeb::<u64>::new("m", a, c, 2, ArbiterKind::RoundRobin.build())
        .with_initial(vec![(1, 5), (1, 6)])
        .err()
        .expect("reduced MEB holds one initial token per thread");
    assert_eq!(
        err,
        ProtocolError::ExcessInitialTokens {
            thread: 1,
            capacity: 1
        }
    );
    assert!(err.to_string().contains("thread 1"));
}

/// The same loop, legalized with an elastic buffer, settles fine — the
/// canonical fix the error message suggests.
#[test]
fn a_buffer_cuts_the_loop() {
    use mt_elastic::core::ElasticBuffer;
    let mut b = CircuitBuilder::<u64>::new();
    let x = b.channel("x", 1);
    let y = b.channel("y", 1);
    let z = b.channel("z", 1);
    let mut src = Source::new("src", x, 1);
    src.extend(0, 0..5u64);
    b.add(src);
    b.add(Transform::new("inc", x, y, 1, |v| v + 1));
    b.add(ElasticBuffer::new("eb", y, z));
    b.add(Sink::with_capture("snk", z, 1, ReadyPolicy::Always));
    let mut circuit = b.build().expect("valid");
    circuit.run(10).expect("settles every cycle");
    let snk: &Sink<u64> = circuit.get("snk").expect("sink");
    assert_eq!(snk.consumed_total(), 5);
}

/// How [`GoesBad`] breaks the channel protocol once it turns bad.
#[derive(Clone, Copy)]
enum Breach {
    /// Two valid threads at once.
    TwoValids,
    /// A valid thread without data.
    NoData,
}

/// A producer that offers a well-formed token on thread 0 every cycle
/// until `bad_from`, then breaks the protocol.
struct GoesBad {
    out: ChannelId,
    bad_from: u64,
    breach: Breach,
}

impl Component<u64> for GoesBad {
    fn name(&self) -> &str {
        "goes_bad"
    }
    fn ports(&self) -> Ports {
        Ports::new([], [self.out])
    }
    fn eval(&mut self, ctx: &mut EvalCtx<'_, u64>) {
        ctx.drive_token(self.out, 0, ctx.cycle());
        if ctx.cycle() >= self.bad_from {
            match self.breach {
                Breach::TwoValids => ctx.set_valid(self.out, 1, true),
                Breach::NoData => ctx.set_data(self.out, None),
            }
        }
    }
    fn tick(&mut self, _ctx: &TickCtx<'_, u64>) {}
    impl_as_any!();
}

/// A cycle that fails the channel checks records nothing: the kernel
/// checks every channel before it updates any statistic, so the cycle
/// count and every channel's statistics (including those of healthy
/// channels checked before the failing one) stay as they were.
#[test]
fn failed_channel_check_leaves_statistics_untouched() {
    for breach in [Breach::TwoValids, Breach::NoData] {
        let mut b = CircuitBuilder::<u64>::new();
        // Created first, so the kernel checks it before the failing bus.
        let good = b.channel("good", 2);
        let bus = b.channel("bus", 2);
        let mut src = Source::new("src", good, 2);
        src.extend(0, 0..100);
        src.extend(1, 0..100);
        b.add(src);
        let mut snk = Sink::new("snk", good, 2, ReadyPolicy::Always);
        // A stalled thread gives the healthy channel stall statistics too.
        snk.set_policy(1, ReadyPolicy::Never);
        b.add(snk);
        b.add(GoesBad {
            out: bus,
            bad_from: 4,
            breach,
        });
        b.add(Sink::new("bus_snk", bus, 2, ReadyPolicy::Never));
        let mut circuit = b.build().expect("structurally valid");
        circuit.run(4).expect("well-formed until cycle 4");
        let cycles = circuit.stats().cycles();
        let before = [
            circuit.stats().channel(good).clone(),
            circuit.stats().channel(bus).clone(),
        ];
        assert!(before[0].busy_cycles > 0 && before[1].busy_cycles > 0);
        let err = circuit.step().expect_err("the bus breaks at cycle 4");
        assert!(
            matches!(
                (breach, &err),
                (Breach::TwoValids, SimError::ChannelInvariant { .. })
                    | (Breach::NoData, SimError::MissingData { .. })
            ),
            "{err}"
        );
        assert_eq!(circuit.stats().cycles(), cycles);
        assert_eq!(circuit.stats().channel(good), &before[0]);
        assert_eq!(circuit.stats().channel(bus), &before[1]);
    }
}

/// A component that latches `error` at the clock edge of cycle 2, once.
struct FaultsOnce {
    name: &'static str,
    inputs: Vec<ChannelId>,
    out: ChannelId,
    error: ProtocolError,
    latched: Option<ProtocolError>,
    fired: bool,
}

impl Component<u64> for FaultsOnce {
    fn name(&self) -> &str {
        self.name
    }
    fn ports(&self) -> Ports {
        Ports::new(self.inputs.clone(), [self.out])
    }
    fn comb_paths(&self) -> Vec<CombPath> {
        // The pass-through stage reads its input's valid, so it ranks
        // after the stage that drives it.
        self.inputs
            .iter()
            .map(|&from| CombPath::ValidToValid { from, to: self.out })
            .collect()
    }
    fn eval(&mut self, ctx: &mut EvalCtx<'_, u64>) {
        for &inp in &self.inputs {
            ctx.drive_unready(inp);
        }
        ctx.drive_idle(self.out);
    }
    fn tick(&mut self, ctx: &TickCtx<'_, u64>) {
        if ctx.cycle() == 2 && !self.fired {
            self.fired = true;
            self.latched = Some(self.error.clone());
        }
    }
    fn take_fault(&mut self) -> Option<ProtocolError> {
        self.latched.take()
    }
    impl_as_any!();
}

/// Two components that latch faults at the same clock edge: the error
/// names the one with the lower rank (evaluation) index, on both
/// backends, and the other fault stays latched for the next step. The
/// stages are inserted downstream-first, so rank order is not insertion
/// order.
#[test]
fn same_cycle_faults_report_the_lower_rank_index() {
    for fused in [false, true] {
        let mut b = CircuitBuilder::<u64>::new();
        let a_out = b.channel("a_out", 1);
        let b_out = b.channel("b_out", 1);
        b.add(FaultsOnce {
            name: "stage_b",
            inputs: vec![a_out],
            out: b_out,
            error: ProtocolError::BufferOverflow,
            latched: None,
            fired: false,
        });
        b.add(FaultsOnce {
            name: "stage_a",
            inputs: vec![],
            out: a_out,
            error: ProtocolError::BufferUnderflow,
            latched: None,
            fired: false,
        });
        b.add(Sink::new("snk", b_out, 1, ReadyPolicy::Always));
        if fused {
            b.set_fuser(mt_elastic::synth::fuse);
        }
        let mut circuit: Circuit<u64> = b.build().expect("structurally valid");
        let backend = if fused {
            KernelBackend::Fused
        } else {
            KernelBackend::Interpreted
        };
        assert_eq!(circuit.backend(), backend);
        let (a, b) = (
            circuit.index_of("stage_a").expect("stage_a"),
            circuit.index_of("stage_b").expect("stage_b"),
        );
        assert!(a < b, "stage_a drives stage_b's input, so it ranks first");
        let err = circuit.run(10).expect_err("faults must surface");
        match err {
            SimError::Component {
                cycle,
                component,
                error,
            } => {
                assert_eq!(cycle, 2, "{backend:?}");
                assert_eq!(component, "stage_a", "{backend:?}");
                assert_eq!(error, ProtocolError::BufferUnderflow, "{backend:?}");
            }
            other => panic!("unexpected on {backend:?}: {other}"),
        }
        // The higher-index fault was not taken: the next clock edge
        // reports it.
        match circuit
            .step()
            .expect_err("stage_b's fault is still latched")
        {
            SimError::Component {
                component, error, ..
            } => {
                assert_eq!(component, "stage_b", "{backend:?}");
                assert_eq!(error, ProtocolError::BufferOverflow, "{backend:?}");
            }
            other => panic!("unexpected on {backend:?}: {other}"),
        }
    }
}
