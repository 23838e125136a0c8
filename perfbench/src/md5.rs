//! `md5`: the paper's Sec. V-A design. An 8-thread `Md5Hasher` with
//! reduced MEBs hashes seeded batches of 8 messages from a few bytes to
//! 7 KiB; the unequal lengths exercise phantom-block equalisation.
//! The hasher elaborates a fresh circuit on every call and scans its sink
//! every cycle, so `synth` elaboration and harness driving carry weight
//! here and none in `pipeline`.

use std::collections::BTreeMap;
use std::time::Instant;

use elastic_core::MebKind;
use elastic_md5::{algo, Md5Circuit, Md5Hasher};
use elastic_sim::KernelBackend;
use elastic_synth::{CycleCoverLint, MebSubstitution, PassManager, ProtocolLint};

use crate::util::{nanos, ratio, Rng};
use crate::{synth_layers, time_synth, Call, Ctx, Det, TraceAcc, Workload};

struct Size {
    /// Message lengths of every batch before jitter; a seeded permutation
    /// assigns them to threads. Fixed lengths keep the per-call work, and
    /// so the call-latency percentiles, independent of the seed.
    lengths: &'static [usize],
    /// Seeded extra bytes per message, below this bound.
    jitter: u64,
    /// Batches generated at setup; each pass of calls hashes every one.
    inputs: usize,
}

const FULL: Size = Size {
    lengths: &[3, 64, 350, 1_000, 2_250, 3_500, 5_000, 7_000],
    jitter: 64,
    inputs: 100,
};

const SHORT: Size = Size {
    lengths: &[3, 64, 150],
    jitter: 8,
    inputs: 3,
};

const THREADS: usize = 8;
const KIND: MebKind = MebKind::Reduced;

pub struct Md5 {
    size: &'static Size,
    hasher: Md5Hasher,
    batches: Vec<Vec<Vec<u8>>>,
}

/// MD5 blocks a message pads to.
pub fn blocks(len: usize) -> u64 {
    (len as u64 + 8) / 64 + 1
}

impl Md5 {
    pub fn setup(seed: u64, short: bool) -> Self {
        let size = if short { &SHORT } else { &FULL };
        let rng = Rng::new(seed);
        let batches = (0..size.inputs)
            .map(|b| {
                let mut r = rng.fork(b as u64);
                let order = r.permutation(size.lengths.len());
                order
                    .into_iter()
                    .map(|i| {
                        let len = size.lengths[i] + r.below(size.jitter) as usize;
                        r.bytes(len)
                    })
                    .collect()
            })
            .collect();
        drop(Md5Circuit::with_stages_on(
            THREADS,
            size.lengths.len(),
            KIND,
            1,
            KernelBackend::Fused,
        ));
        Self {
            size,
            hasher: Md5Hasher::new(THREADS, KIND).with_backend(KernelBackend::Fused),
            batches,
        }
    }
}

impl Workload for Md5 {
    fn inputs(&self) -> usize {
        self.size.inputs
    }

    fn call(&mut self, index: usize, traced: bool, ctx: &mut Ctx) -> Result<Call, String> {
        let batch = &self.batches[index % self.batches.len()];
        let messages: Vec<&[u8]> = batch.iter().map(Vec::as_slice).collect();

        let start = Instant::now();
        let (digests, cycles, kernel) = if traced {
            self.hasher.hash_messages_instrumented(&messages)
        } else {
            self.hasher
                .hash_messages(&messages)
                .map(|(d, c)| (d, c, Default::default()))
        }
        .map_err(|e| e.to_string())?;
        let wall = start.elapsed();

        let corrupt = ctx.corrupt_now();
        let mut sim_words = Vec::with_capacity(digests.len());
        for (t, (msg, digest)) in messages.iter().zip(&digests).enumerate() {
            let mut got = *digest;
            if corrupt && t == 0 {
                got[0] ^= 1;
            }
            ctx.checked("md5_digest");
            if got != algo::md5(msg) {
                return Err(format!("thread {t}: digest differs from the reference"));
            }
            sim_words.push(u64::from_le_bytes(digest[..8].try_into().expect("8 bytes")));
        }
        if digests.len() != messages.len() {
            return Err(format!(
                "{} digests for {} messages",
                digests.len(),
                messages.len()
            ));
        }

        let mut spans = Vec::new();
        if traced {
            // The hasher's circuit is internal: its elaboration is timed by
            // building the same shape separately, and the rest of the call
            // (settle and harness driving together) is the remainder.
            let t = Instant::now();
            drop(Md5Circuit::with_stages_on(
                THREADS,
                messages.len(),
                KIND,
                1,
                KernelBackend::Fused,
            ));
            spans.push(("synth.build", t.elapsed()));
            let participants = messages.len();
            time_synth(
                ctx,
                index % 4 == 1,
                || Md5Circuit::ir(THREADS, participants, 1).ir,
                || {
                    PassManager::new()
                        .with(MebSubstitution::all(KIND))
                        .with(ProtocolLint)
                        .with(CycleCoverLint)
                },
            );
        }
        Ok(Call {
            wall,
            cycles,
            items: messages.iter().map(|m| blocks(m.len())).sum(),
            kernel,
            spans,
            sim_words,
            core: None,
        })
    }

    fn layers(&self, acc: &TraceAcc, _det: &Det, ctx: &Ctx, out: &mut BTreeMap<&'static str, f64>) {
        let calls = acc.calls as f64;
        if calls == 0.0 {
            return;
        }
        out.insert("md5.run_us_per_call", acc.other_ns / calls / 1e3);
        out.insert(
            "md5.elab_share",
            ratio(acc.span("synth.build"), nanos(acc.wall)),
        );
        synth_layers(ctx, calls, out);
    }

    fn unreachable(&self) -> &'static str {
        "Md5Hasher owns its circuit, so settle timing, the settle/harness split of \
         md5.run_us_per_call and channel statistics cannot be reached from outside"
    }
}
