//! Pipeline stage components: fetch, decode/writeback (register unit),
//! execute, and the data-memory unit.
//!
//! Every pipeline register between stages is a MEB (paper, Sec. V-B:
//! "Every pipeline register has been replaced by a MEB that selects
//! independently at each stage which thread to promote for execution").
//! Each thread has "a private program counter" and "a different copy of
//! the register file"; memories and execution units are variable-latency.

use std::sync::{Arc, Mutex};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use elastic_core::{Arbiter, RoundRobin, SelectState};
use elastic_sim::{
    impl_as_any, ChannelId, CombPath, Component, EvalCtx, Ports, SlotView, ThreadMask, TickCtx,
};

use crate::isa::{Instr, NUM_REGS};
use crate::token::ProcToken;

/// Per-thread fetch status.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ThreadStatus {
    /// Fetching normally.
    Running,
    /// A control-flow instruction is in flight; fetch stalls until the
    /// redirect arrives (the elastic pipeline fills the slot with other
    /// threads — the paper's central point).
    WaitControl,
    /// `halt` predecoded; the thread fetches no more.
    Halted,
}

/// Shared speculation squash state: per-thread, per-epoch boundaries.
///
/// A token fetched in epoch `e` with per-thread fetch sequence `q` is
/// **squashed** iff `q > boundary[e]` — i.e. it was fetched *after* the
/// mispredicted branch that ended epoch `e`. Older same-epoch
/// instructions (smaller `q`) stay architecturally live even while they
/// linger in the variable-latency memory path, and post-redirect fetches
/// live in a new epoch whose boundary is still open.
#[derive(Debug)]
pub struct SpecState {
    /// `boundaries[thread][epoch]` = fetch sequence of the mispredicted
    /// branch that closed the epoch (`u64::MAX` while open).
    boundaries: Vec<Mutex<Vec<u64>>>,
}

impl SpecState {
    /// Fresh state for `threads` threads (epoch 0 open everywhere).
    pub fn new(threads: usize) -> Arc<Self> {
        Arc::new(Self {
            boundaries: (0..threads).map(|_| Mutex::new(vec![u64::MAX])).collect(),
        })
    }

    /// The thread's current (open) epoch.
    pub fn current_epoch(&self, thread: usize) -> u32 {
        (self.boundaries[thread]
            .lock()
            .expect("spec state lock")
            .len()
            - 1) as u32
    }

    /// Whether a token is on a squashed (wrong) path.
    pub fn is_squashed(&self, thread: usize, epoch: u32, seq: u64) -> bool {
        let b = self.boundaries[thread].lock().expect("spec state lock");
        seq > b[epoch as usize]
    }

    /// Records a misprediction by the branch at `(epoch, seq)`. Returns
    /// `true` if the branch was live (its epoch closes; a new one opens);
    /// `false` if the branch itself was already squashed.
    pub fn mispredict(&self, thread: usize, epoch: u32, seq: u64) -> bool {
        let mut b = self.boundaries[thread].lock().expect("spec state lock");
        if seq > b[epoch as usize] {
            return false;
        }
        debug_assert_eq!(
            epoch as usize,
            b.len() - 1,
            "live branch must be in the open epoch"
        );
        let last = b.len() - 1;
        b[last] = seq;
        b.push(u64::MAX);
        true
    }
}

/// The fetch stage: private per-thread PCs over a shared instruction
/// memory, stall-on-control-flow (or predict-not-taken speculation with
/// epoch-based squash), redirect absorption.
pub struct Fetcher {
    name: String,
    out: ChannelId,
    redirect: ChannelId,
    threads: usize,
    pcs: Vec<u32>,
    status: Vec<ThreadStatus>,
    imem: Arc<Vec<u32>>,
    arbiter: RoundRobin,
    select: SelectState,
    /// Request mask: the threads that can fetch ([`Fetcher::runnable`]),
    /// refreshed per touched thread at the clock edge.
    has: ThreadMask,
    fetched: Vec<u64>,
    /// Predict-not-taken speculation for conditional branches; direct
    /// jumps are taken at predecode; `jr` still stalls.
    speculate: bool,
    /// Shared squash state (the hardware's squash broadcast).
    spec: Option<Arc<SpecState>>,
    /// Wrong-path instructions squashed per thread (statistics).
    squashed: Vec<u64>,
}

impl Fetcher {
    /// A fetcher for `threads` threads with the given entry PCs.
    ///
    /// # Panics
    ///
    /// Panics if `entry_pcs.len() != threads`.
    pub fn new(
        name: impl Into<String>,
        out: ChannelId,
        redirect: ChannelId,
        threads: usize,
        imem: Arc<Vec<u32>>,
        entry_pcs: Vec<u32>,
    ) -> Self {
        assert_eq!(entry_pcs.len(), threads, "one entry PC per thread");
        let mut fetcher = Self {
            name: name.into(),
            out,
            redirect,
            threads,
            pcs: entry_pcs,
            status: vec![ThreadStatus::Running; threads],
            imem,
            arbiter: RoundRobin::new(),
            select: SelectState::new(),
            has: ThreadMask::new(threads),
            fetched: vec![0; threads],
            speculate: false,
            spec: None,
            squashed: vec![0; threads],
        };
        for t in 0..threads {
            fetcher.refresh(t);
        }
        fetcher
    }

    /// Enables predict-not-taken speculation with the shared squash state
    /// used by the downstream units to neuter wrong-path instructions.
    #[must_use]
    pub fn with_speculation(mut self, spec: Arc<SpecState>) -> Self {
        self.speculate = true;
        self.spec = Some(spec);
        self
    }

    /// Wrong-path instructions squashed for `thread`.
    pub fn squashed(&self, thread: usize) -> u64 {
        self.squashed[thread]
    }

    fn epoch(&self, t: usize) -> u32 {
        self.spec.as_ref().map_or(0, |s| s.current_epoch(t))
    }

    /// Status of `thread`.
    pub fn status(&self, thread: usize) -> ThreadStatus {
        self.status[thread]
    }

    /// True when every thread has halted.
    pub fn all_halted(&self) -> bool {
        self.status.iter().all(|&s| s == ThreadStatus::Halted)
    }

    /// Instructions fetched by `thread`.
    pub fn fetched(&self, thread: usize) -> u64 {
        self.fetched[thread]
    }

    /// Current PC of `thread`.
    pub fn pc(&self, thread: usize) -> u32 {
        self.pcs[thread]
    }

    fn runnable(&self, t: usize) -> bool {
        self.status[t] == ThreadStatus::Running && (self.pcs[t] as usize) < self.imem.len()
    }

    /// Re-derives thread `t`'s request bit after its PC or status moved.
    fn refresh(&mut self, t: usize) {
        let runnable = self.runnable(t);
        self.has.set(t, runnable);
    }
}

impl Component<ProcToken> for Fetcher {
    fn name(&self) -> &str {
        &self.name
    }

    fn ports(&self) -> Ports {
        Ports::new([self.redirect], [self.out])
    }

    fn comb_paths(&self) -> Vec<CombPath> {
        // Redirect ready is constant; fetch selection depends only on
        // registered PC/status state plus downstream ready (the arbiter's
        // ready-first pick), damped by the anti-swap guard. Crucially, no
        // combinational path runs from the redirect input to the fetch
        // output — that is what makes the processor's control-flow
        // feedback loop legal.
        vec![CombPath::ReadyToValid {
            from: self.out,
            to: self.out,
            damped: true,
        }]
    }

    fn eval(&mut self, ctx: &mut EvalCtx<'_, ProcToken>) {
        // Redirects are always absorbed.
        ctx.drive_ready_all(self.redirect);
        match self.select.select(ctx, self.out, &self.arbiter, &self.has) {
            Some(t) => {
                let pc = self.pcs[t];
                let word = self.imem[pc as usize];
                let epoch = self.epoch(t);
                let seq = self.fetched[t];
                ctx.drive_token(
                    self.out,
                    t,
                    ProcToken::Fetched {
                        thread: t,
                        pc,
                        word,
                        epoch,
                        seq,
                    },
                );
            }
            None => ctx.drive_idle(self.out),
        }
    }

    fn tick(&mut self, ctx: &TickCtx<'_, ProcToken>) {
        // A fetch left for the pipeline: advance or block the thread.
        if let Some((t, tok)) = ctx.fired_any(self.out) {
            let ProcToken::Fetched { word, .. } = tok else {
                unreachable!("fetch output carries Fetched tokens");
            };
            let instr = Instr::decode(*word)
                .unwrap_or_else(|e| panic!("thread {t} fetched invalid instruction: {e}"));
            self.fetched[t] += 1;
            match instr {
                Instr::Halt => self.status[t] = ThreadStatus::Halted,
                // Direct jumps: under speculation the target is known at
                // predecode — take it immediately, no stall.
                Instr::J { target } | Instr::Jal { target } if self.speculate => {
                    self.pcs[t] = target;
                }
                // Conditional branches: predict not-taken, keep fetching.
                Instr::Beq { .. } | Instr::Bne { .. } if self.speculate => self.pcs[t] += 1,
                i if i.is_control_flow() => self.status[t] = ThreadStatus::WaitControl,
                _ => self.pcs[t] += 1,
            }
            self.refresh(t);
            self.arbiter.commit(t);
        }
        // A control-flow instruction resolved.
        if let Some((t, tok)) = ctx.fired_any(self.redirect) {
            let ProcToken::Executed {
                instr,
                pc,
                taken,
                target,
                epoch,
                seq,
                ..
            } = tok
            else {
                unreachable!("redirect carries Executed tokens");
            };
            if self.speculate {
                let spec = self
                    .spec
                    .as_ref()
                    .expect("speculation state present")
                    .clone();
                match instr {
                    Instr::Halt | Instr::J { .. } | Instr::Jal { .. } => {
                        // Halt handled at predecode; direct jumps already
                        // taken at predecode.
                    }
                    Instr::Beq { .. } | Instr::Bne { .. } => {
                        if *taken && spec.mispredict(t, *epoch, *seq) {
                            // Misprediction: redirect and squash the wrong
                            // path fetched since this branch. Any
                            // wrong-path `halt`/`jr` froze the thread's
                            // status — that freeze was bogus, so resume.
                            self.squashed[t] += self.fetched[t] - (seq + 1);
                            self.pcs[t] = *target;
                            self.status[t] = ThreadStatus::Running;
                        }
                        // Correct prediction or stale (already squashed):
                        // nothing to do.
                    }
                    _ => {
                        // jr still uses stall-and-wait even when
                        // speculating (its target is data-dependent).
                        if !spec.is_squashed(t, *epoch, *seq) {
                            debug_assert_eq!(self.status[t], ThreadStatus::WaitControl);
                            self.pcs[t] = if *taken { *target } else { pc + 1 };
                            self.status[t] = ThreadStatus::Running;
                        }
                    }
                }
            } else {
                match instr {
                    Instr::Halt => {}
                    _ => {
                        debug_assert_eq!(self.status[t], ThreadStatus::WaitControl);
                        self.pcs[t] = if *taken { *target } else { pc + 1 };
                        self.status[t] = ThreadStatus::Running;
                    }
                }
            }
            self.refresh(t);
        }
        self.select.on_tick(ctx, self.out);
    }

    fn slots(&self) -> Vec<SlotView> {
        (0..self.threads)
            .map(|t| {
                let label = match self.status[t] {
                    ThreadStatus::Running => format!("pc={}", self.pcs[t]),
                    ThreadStatus::WaitControl => "wait".to_string(),
                    ThreadStatus::Halted => "halt".to_string(),
                };
                SlotView::full(format!("thread[{t}]"), t, label)
            })
            .collect()
    }

    impl_as_any!();
}

/// The decode + writeback stage: per-thread register files, per-thread
/// scoreboards, hazard-gated issue.
pub struct RegUnit {
    name: String,
    id_in: ChannelId,
    wb_in: ChannelId,
    id_out: ChannelId,
    regs: Vec<[u32; NUM_REGS]>,
    /// In-flight writers per (thread, register).
    pending: Vec<[u8; NUM_REGS]>,
    /// Threads with no in-flight register write at all (every `pending`
    /// entry zero) — the conservative issue gate of unoffered threads,
    /// refreshed per touched thread at the clock edge.
    clean: ThreadMask,
    /// Scratch word for the `ready(id_in)` commit.
    gate: ThreadMask,
    retired: Vec<u64>,
    /// Squash state (absent when not speculating): wrong-path writebacks
    /// release their scoreboard entry but leave the register file alone.
    spec: Option<Arc<SpecState>>,
}

impl RegUnit {
    /// A register unit for `threads` threads, all registers zeroed.
    pub fn new(
        name: impl Into<String>,
        id_in: ChannelId,
        wb_in: ChannelId,
        id_out: ChannelId,
        threads: usize,
    ) -> Self {
        let mut clean = ThreadMask::new(threads);
        clean.fill();
        Self {
            name: name.into(),
            id_in,
            wb_in,
            id_out,
            regs: vec![[0; NUM_REGS]; threads],
            pending: vec![[0; NUM_REGS]; threads],
            clean,
            gate: ThreadMask::new(threads),
            retired: vec![0; threads],
            spec: None,
        }
    }

    /// Shares the speculation squash state (see
    /// [`Fetcher::with_speculation`]).
    #[must_use]
    pub fn with_speculation(mut self, spec: Arc<SpecState>) -> Self {
        self.spec = Some(spec);
        self
    }

    fn is_stale(&self, t: usize, epoch: u32, seq: u64) -> bool {
        self.spec
            .as_ref()
            .is_some_and(|s| s.is_squashed(t, epoch, seq))
    }

    /// Architectural register value (r0 is always 0).
    pub fn reg(&self, thread: usize, r: usize) -> u32 {
        self.regs[thread][r]
    }

    /// Presets a register before the program starts (test setup).
    ///
    /// # Panics
    ///
    /// Panics on out-of-range indices; writes to r0 are ignored.
    pub fn set_reg(&mut self, thread: usize, r: usize, value: u32) {
        if r != 0 {
            self.regs[thread][r] = value;
        }
    }

    /// Instructions written back for `thread` (loads, ALU ops, stores and
    /// nops all pass through writeback; control flow retires at the
    /// fetcher instead).
    pub fn retired(&self, thread: usize) -> u64 {
        self.retired[thread]
    }

    fn hazard(&self, t: usize, instr: &Instr) -> bool {
        let busy = |r: u8| r != 0 && self.pending[t][r as usize] > 0;
        instr.sources().into_iter().any(busy) || instr.dest().is_some_and(busy)
    }

    fn decode_read(&self, t: usize, pc: u32, word: u32, tok_epoch: u32, tok_seq: u64) -> ProcToken {
        let instr = Instr::decode(word)
            .unwrap_or_else(|e| panic!("thread {t} decoded invalid instruction at pc {pc}: {e}"));
        let src = |r: u8| self.regs[t][r as usize];
        let epoch = tok_epoch;
        let seq = tok_seq;
        let (a, b) = match instr {
            Instr::Add { rs, rt, .. }
            | Instr::Sub { rs, rt, .. }
            | Instr::And { rs, rt, .. }
            | Instr::Or { rs, rt, .. }
            | Instr::Xor { rs, rt, .. }
            | Instr::Nor { rs, rt, .. }
            | Instr::Slt { rs, rt, .. }
            | Instr::Sltu { rs, rt, .. }
            | Instr::Mul { rs, rt, .. }
            | Instr::Beq { rs, rt, .. }
            | Instr::Bne { rs, rt, .. }
            | Instr::Sw { rs, rt, .. } => (src(rs), src(rt)),
            Instr::Sll { rt, .. } | Instr::Srl { rt, .. } | Instr::Sra { rt, .. } => (0, src(rt)),
            Instr::Jr { rs }
            | Instr::Addi { rs, .. }
            | Instr::Andi { rs, .. }
            | Instr::Ori { rs, .. }
            | Instr::Xori { rs, .. }
            | Instr::Slti { rs, .. }
            | Instr::Lw { rs, .. } => (src(rs), 0),
            Instr::Lui { .. }
            | Instr::Tid { .. }
            | Instr::J { .. }
            | Instr::Jal { .. }
            | Instr::Nop
            | Instr::Halt => (0, 0),
        };
        ProcToken::Decoded {
            thread: t,
            pc,
            instr,
            a,
            b,
            epoch,
            seq,
        }
    }
}

impl Component<ProcToken> for RegUnit {
    fn name(&self) -> &str {
        &self.name
    }

    fn ports(&self) -> Ports {
        Ports::new([self.id_in, self.wb_in], [self.id_out])
    }

    fn comb_paths(&self) -> Vec<CombPath> {
        // Writeback ready is constant (no paths from wb_in). Issue is a
        // gated pass-through: the hazard gate inspects the *offered*
        // instruction (valid/data of id_in) and the next stage's ready.
        vec![
            CombPath::ValidToValid {
                from: self.id_in,
                to: self.id_out,
            },
            CombPath::ValidToReady {
                from: self.id_in,
                to: self.id_in,
            },
            CombPath::ReadyToReady {
                from: self.id_out,
                to: self.id_in,
            },
        ]
    }

    fn eval(&mut self, ctx: &mut EvalCtx<'_, ProcToken>) {
        // Writeback never stalls.
        ctx.drive_ready_all(self.wb_in);
        // Issue: pass the offered instruction through decode if it is
        // hazard-free and the next stage accepts. Only the offered thread's
        // instruction word is visible on the channel, so its gate is the
        // exact hazard check; for every other thread we answer
        // *conservatively* from the scoreboard (ready only when the thread
        // has no in-flight register writes at all — a state in which no
        // instruction can be hazarded). Conservative answers can only be
        // upgraded when a thread is actually offered, so the upstream
        // MEB's selection never chases a false ready and the settle loop
        // converges.
        let offered = ctx.incoming(self.id_in).map(|(t, tok)| (t, tok.clone()));
        self.gate.copy_from(&self.clean);
        if let Some((t, ProcToken::Fetched { pc, word, .. })) = &offered {
            let instr = Instr::decode(*word).unwrap_or_else(|e| {
                panic!("thread {t} offered invalid instruction at pc {pc}: {e}")
            });
            let free = !self.hazard(*t, &instr);
            self.gate.set(*t, free);
        }
        self.gate.and_with(ctx.ready_mask(self.id_out));
        ctx.set_ready_mask(self.id_in, &self.gate);
        // Drive the decoded token downstream.
        match &offered {
            Some((
                t,
                ProcToken::Fetched {
                    pc,
                    word,
                    epoch,
                    seq,
                    ..
                },
            )) => {
                let instr = Instr::decode(*word).expect("validated above");
                if self.hazard(*t, &instr) {
                    ctx.drive_idle(self.id_out);
                } else {
                    let decoded = self.decode_read(*t, *pc, *word, *epoch, *seq);
                    ctx.drive_token(self.id_out, *t, decoded);
                }
            }
            _ => ctx.drive_idle(self.id_out),
        }
    }

    fn tick(&mut self, ctx: &TickCtx<'_, ProcToken>) {
        // Retire writebacks first (a dependent issue still waits one cycle;
        // there is no same-cycle bypass, cf. module docs).
        if let Some((t, tok)) = ctx.fired_any(self.wb_in) {
            let ProcToken::Executed {
                instr,
                result,
                epoch,
                seq,
                ..
            } = tok
            else {
                unreachable!("writeback carries Executed tokens");
            };
            let stale = self.is_stale(t, *epoch, *seq);
            if let Some(rd) = instr.dest() {
                if rd != 0 {
                    if !stale {
                        self.regs[t][rd as usize] = *result;
                    }
                    // The scoreboard entry is released either way — the
                    // wrong-path instruction did occupy the writer slot.
                    let p = &mut self.pending[t][rd as usize];
                    debug_assert!(*p > 0, "writeback without a pending issue");
                    *p -= 1;
                    let clean = self.pending[t].iter().all(|&p| p == 0);
                    self.clean.set(t, clean);
                }
            }
            if !stale {
                self.retired[t] += 1;
            }
        }
        // Record the issue.
        if let Some((t, tok)) = ctx.fired_any(self.id_out) {
            let ProcToken::Decoded { instr, .. } = tok else {
                unreachable!("issue output carries Decoded tokens");
            };
            if let Some(rd) = instr.dest() {
                if rd != 0 {
                    self.pending[t][rd as usize] += 1;
                    self.clean.set(t, false);
                }
            }
        }
    }

    impl_as_any!();
}

/// Computes an [`Instr`] on its operands — the pure function the execute
/// stage applies (wired into a
/// [`VarLatency`](elastic_sim::VarLatency) with a per-token latency).
///
/// # Panics
///
/// Panics if `tok` is not a [`ProcToken::Decoded`].
pub fn execute(tok: &ProcToken) -> ProcToken {
    let ProcToken::Decoded {
        thread,
        pc,
        instr,
        a,
        b,
        epoch,
        seq,
    } = tok.clone()
    else {
        panic!("execute stage received a non-decoded token");
    };
    let (mut result, mut addr, mut taken, mut target) = (0u32, 0u32, false, 0u32);
    match instr {
        Instr::Add { .. } => result = a.wrapping_add(b),
        Instr::Sub { .. } => result = a.wrapping_sub(b),
        Instr::And { .. } => result = a & b,
        Instr::Or { .. } => result = a | b,
        Instr::Xor { .. } => result = a ^ b,
        Instr::Nor { .. } => result = !(a | b),
        Instr::Slt { .. } => result = u32::from((a as i32) < (b as i32)),
        Instr::Sltu { .. } => result = u32::from(a < b),
        Instr::Mul { .. } => result = a.wrapping_mul(b),
        Instr::Sll { shamt, .. } => result = b << shamt,
        Instr::Srl { shamt, .. } => result = b >> shamt,
        Instr::Sra { shamt, .. } => result = ((b as i32) >> shamt) as u32,
        Instr::Tid { .. } => result = thread as u32,
        Instr::Addi { imm, .. } => result = a.wrapping_add(imm as i32 as u32),
        Instr::Andi { imm, .. } => result = a & u32::from(imm),
        Instr::Ori { imm, .. } => result = a | u32::from(imm),
        Instr::Xori { imm, .. } => result = a ^ u32::from(imm),
        Instr::Slti { imm, .. } => result = u32::from((a as i32) < i32::from(imm)),
        Instr::Lui { imm, .. } => result = u32::from(imm) << 16,
        Instr::Lw { imm, .. } => addr = a.wrapping_add(imm as i32 as u32),
        Instr::Sw { imm, .. } => {
            addr = a.wrapping_add(imm as i32 as u32);
            result = b; // store value travels in `result`
        }
        Instr::Beq { imm, .. } => {
            taken = a == b;
            target = pc.wrapping_add(1).wrapping_add(imm as i32 as u32);
        }
        Instr::Bne { imm, .. } => {
            taken = a != b;
            target = pc.wrapping_add(1).wrapping_add(imm as i32 as u32);
        }
        Instr::J { target: t } => {
            taken = true;
            target = t;
        }
        Instr::Jal { target: t } => {
            taken = true;
            target = t;
            result = pc + 1; // link value
        }
        Instr::Jr { .. } => {
            taken = true;
            target = a;
        }
        Instr::Nop | Instr::Halt => {}
    }
    ProcToken::Executed {
        thread,
        pc,
        instr,
        result,
        addr,
        taken,
        target,
        epoch,
        seq,
    }
}

/// The variable-latency data-memory unit. Loads and stores take effect at
/// the *accept* edge (so per-thread program order through memory is
/// architectural); the reply is delayed by a random latency.
pub struct MemUnit {
    name: String,
    inp: ChannelId,
    out: ChannelId,
    capacity: usize,
    lat_min: u32,
    lat_max: u32,
    mem: Vec<u32>,
    entries: Vec<(usize, ProcToken, u64)>,
    rng: StdRng,
    arbiter: RoundRobin,
    select: SelectState,
    /// Scratch request mask rebuilt each eval (threads with a completed
    /// head entry).
    has: ThreadMask,
    /// Threads already met while rebuilding `has` (scratch).
    seen: ThreadMask,
    /// Squash state (absent when not speculating): wrong-path loads and
    /// stores must not touch memory.
    spec: Option<Arc<SpecState>>,
}

impl MemUnit {
    /// A memory of `words` words, latency uniform in `lat_min..=lat_max`.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0` or `lat_min > lat_max` or `lat_min == 0`.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        name: impl Into<String>,
        inp: ChannelId,
        out: ChannelId,
        threads: usize,
        capacity: usize,
        words: usize,
        (lat_min, lat_max): (u32, u32),
        seed: u64,
    ) -> Self {
        assert!(capacity > 0, "memory unit needs at least one slot");
        assert!(lat_min > 0 && lat_min <= lat_max, "invalid latency range");
        Self {
            name: name.into(),
            inp,
            out,
            capacity,
            lat_min,
            lat_max,
            mem: vec![0; words],
            entries: Vec::new(),
            rng: StdRng::seed_from_u64(seed ^ 0xD3E),
            arbiter: RoundRobin::new(),
            select: SelectState::new(),
            has: ThreadMask::new(threads),
            seen: ThreadMask::new(threads),
            spec: None,
        }
    }

    /// Shares the speculation squash state (see
    /// [`Fetcher::with_speculation`]).
    #[must_use]
    pub fn with_speculation(mut self, spec: Arc<SpecState>) -> Self {
        self.spec = Some(spec);
        self
    }

    /// Reads a word (test inspection).
    pub fn read(&self, addr: usize) -> u32 {
        self.mem[addr]
    }

    /// Writes a word before the program starts (test setup).
    pub fn write(&mut self, addr: usize, value: u32) {
        self.mem[addr] = value;
    }

    /// Words of storage.
    pub fn size(&self) -> usize {
        self.mem.len()
    }

    /// Rebuilds `has` with the oldest completed entry per thread.
    fn rebuild_heads(&mut self, cycle: u64) {
        self.seen.clear();
        self.has.clear();
        for (t, _, done) in &self.entries {
            if self.seen.set(*t, true) {
                self.has.set(*t, *done <= cycle);
            }
        }
    }

    fn head_token(&self, t: usize) -> &ProcToken {
        &self
            .entries
            .iter()
            .find(|(et, _, _)| *et == t)
            .expect("selected thread has an entry")
            .1
    }
}

impl Component<ProcToken> for MemUnit {
    fn name(&self) -> &str {
        &self.name
    }

    fn ports(&self) -> Ports {
        Ports::new([self.inp], [self.out])
    }

    fn comb_paths(&self) -> Vec<CombPath> {
        // Like VarLatency: ready is registered occupancy, the output
        // arbiter reads downstream ready (damped), and no combinational
        // path crosses from input to output.
        vec![CombPath::ReadyToValid {
            from: self.out,
            to: self.out,
            damped: true,
        }]
    }

    fn eval(&mut self, ctx: &mut EvalCtx<'_, ProcToken>) {
        // Upstream ready: any free slot, shared by all threads.
        if self.entries.len() < self.capacity {
            ctx.drive_ready_all(self.inp);
        } else {
            ctx.drive_unready(self.inp);
        }
        self.rebuild_heads(ctx.cycle());
        match self.select.select(ctx, self.out, &self.arbiter, &self.has) {
            Some(t) => {
                let tok = self.head_token(t).clone();
                ctx.drive_token(self.out, t, tok);
            }
            None => ctx.drive_idle(self.out),
        }
    }

    fn tick(&mut self, ctx: &TickCtx<'_, ProcToken>) {
        if let Some((t, _)) = ctx.fired_any(self.out) {
            let pos = self
                .entries
                .iter()
                .position(|(et, _, _)| *et == t)
                .expect("emitted thread has an entry");
            self.entries.remove(pos);
            self.arbiter.commit(t);
        } else {
            self.select.on_tick(ctx, self.out);
        }
        if let Some((t, tok)) = ctx.fired_any(self.inp) {
            let mut tok = tok.clone();
            let stale = self
                .spec
                .as_ref()
                .is_some_and(|s| s.is_squashed(t, tok.epoch(), tok.seq()));
            let latency = if let ProcToken::Executed {
                instr,
                addr,
                result,
                ..
            } = &mut tok
            {
                match instr {
                    _ if stale => 1, // squashed: no side effects, no service time
                    Instr::Lw { .. } => {
                        let a = *addr as usize;
                        assert!(a < self.mem.len(), "load address {a} out of bounds");
                        *result = self.mem[a];
                        self.rng.gen_range(self.lat_min..=self.lat_max)
                    }
                    Instr::Sw { .. } => {
                        let a = *addr as usize;
                        assert!(a < self.mem.len(), "store address {a} out of bounds");
                        self.mem[a] = *result;
                        self.rng.gen_range(self.lat_min..=self.lat_max)
                    }
                    // Non-memory instructions pass through in one cycle.
                    _ => 1,
                }
            } else {
                unreachable!("memory stage receives Executed tokens");
            };
            self.entries
                .push((t, tok, ctx.cycle() + u64::from(latency)));
        }
    }

    fn slots(&self) -> Vec<SlotView> {
        (0..self.capacity)
            .map(|i| match self.entries.get(i) {
                Some((t, tok, _)) => {
                    SlotView::full(format!("slot[{i}]"), *t, elastic_sim::Token::label(tok))
                }
                None => SlotView::empty(format!("slot[{i}]")),
            })
            .collect()
    }

    impl_as_any!();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn execute_computes_alu_results() {
        let dec = |instr, a, b| ProcToken::Decoded {
            thread: 0,
            pc: 10,
            instr,
            a,
            b,
            epoch: 0,
            seq: 0,
        };
        let get = |tok: ProcToken| match tok {
            ProcToken::Executed { result, .. } => result,
            _ => panic!("expected executed"),
        };
        assert_eq!(
            get(execute(&dec(
                Instr::Add {
                    rd: 1,
                    rs: 2,
                    rt: 3
                },
                7,
                5
            ))),
            12
        );
        assert_eq!(
            get(execute(&dec(
                Instr::Sub {
                    rd: 1,
                    rs: 2,
                    rt: 3
                },
                3,
                5
            ))),
            3u32.wrapping_sub(5)
        );
        assert_eq!(
            get(execute(&dec(
                Instr::Slt {
                    rd: 1,
                    rs: 2,
                    rt: 3
                },
                (-1i32) as u32,
                0
            ))),
            1
        );
        assert_eq!(
            get(execute(&dec(
                Instr::Sltu {
                    rd: 1,
                    rs: 2,
                    rt: 3
                },
                (-1i32) as u32,
                0
            ))),
            0
        );
        assert_eq!(
            get(execute(&dec(
                Instr::Sra {
                    rd: 1,
                    rt: 2,
                    shamt: 4
                },
                0,
                (-64i32) as u32
            ))),
            (-4i32) as u32
        );
        assert_eq!(get(execute(&dec(Instr::Tid { rd: 1 }, 0, 0))), 0);
    }

    #[test]
    fn execute_resolves_branches() {
        let dec = |instr, a, b| ProcToken::Decoded {
            thread: 0,
            pc: 10,
            instr,
            a,
            b,
            epoch: 0,
            seq: 0,
        };
        match execute(&dec(
            Instr::Beq {
                rs: 1,
                rt: 2,
                imm: -3,
            },
            9,
            9,
        )) {
            ProcToken::Executed { taken, target, .. } => {
                assert!(taken);
                assert_eq!(target, 8); // 10 + 1 - 3
            }
            _ => panic!("expected executed"),
        }
        match execute(&dec(Instr::Jal { target: 99 }, 0, 0)) {
            ProcToken::Executed {
                taken,
                target,
                result,
                ..
            } => {
                assert!(taken);
                assert_eq!(target, 99);
                assert_eq!(result, 11); // link = pc + 1
            }
            _ => panic!("expected executed"),
        }
    }

    #[test]
    fn execute_forms_memory_addresses() {
        let dec = |instr, a, b| ProcToken::Decoded {
            thread: 1,
            pc: 0,
            instr,
            a,
            b,
            epoch: 0,
            seq: 0,
        };
        match execute(&dec(
            Instr::Sw {
                rt: 2,
                rs: 1,
                imm: 4,
            },
            100,
            77,
        )) {
            ProcToken::Executed { addr, result, .. } => {
                assert_eq!(addr, 104);
                assert_eq!(result, 77);
            }
            _ => panic!("expected executed"),
        }
    }
}
