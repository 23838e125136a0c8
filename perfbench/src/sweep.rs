//! `sweep`: a `SweepService` campaign over the paper's design axes:
//! threads x `MebKind` x (library processor program or short MD5 batch)
//! x latency seed, each point keyed by `campaign_key(structural_hash,
//! config, seed)`. One call submits a campaign and then a second one in
//! which half of the keys repeat. It is the only workload that exercises
//! `par` (work stealing over jobs of uneven length) and the campaign
//! cache, and it runs many short elaborations next to short simulations.

use std::collections::{BTreeMap, HashMap};
use std::time::{Duration, Instant};

use elastic_core::MebKind;
use elastic_md5::{algo, Md5Circuit, Md5Error, Md5Hasher};
use elastic_proc::{assemble, programs, Cpu, CpuConfig, CpuError};
use elastic_sim::{
    available_workers, campaign_key, KernelBackend, KernelStats, SimJob, SweepReport, SweepService,
};

use crate::util::{nanos, percentile, ratio, Digest, Rng};
use crate::{synth_layers, Call, Ctx, Det, TraceAcc, Workload};

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Design {
    SumLoop,
    Fibonacci,
    Md5,
}

const DESIGNS: [Design; 3] = [Design::SumLoop, Design::Fibonacci, Design::Md5];
const KINDS: [MebKind; 2] = [MebKind::Full, MebKind::Reduced];

struct Size {
    threads: &'static [usize],
    inputs: usize,
    /// Campaign-cache entries: room for the fresh points of one call (27
    /// in `FULL`, 9 in `SHORT`), so the repeats of the second submission
    /// always hit and every call evicts older keys, while memory stays
    /// independent of the number of calls. It is too small for a pass's
    /// keys, so a repeated call finds none of its keys cached.
    cache_capacity: usize,
}

const FULL: Size = Size {
    threads: &[2, 4, 8],
    inputs: 100,
    cache_capacity: 64,
};

const SHORT: Size = Size {
    threads: &[2],
    inputs: 3,
    cache_capacity: 12,
};

const MAX_CYCLES: u64 = 1_000_000;
/// Longest message of an MD5 point, in bytes.
const MD5_MAX_LEN: u64 = 120;

#[derive(Clone, Copy, Debug)]
struct Point {
    design: Design,
    threads: usize,
    kind: MebKind,
    seed: u64,
}

impl Point {
    fn config(&self) -> CpuConfig {
        CpuConfig::new(self.threads)
            .with_meb(self.kind)
            .with_seed(self.seed)
            .with_backend(KernelBackend::Fused)
    }

    fn messages(&self) -> Vec<Vec<u8>> {
        let mut r = Rng::new(self.seed);
        (0..self.threads)
            .map(|_| {
                let len = r.below(MD5_MAX_LEN) as usize;
                r.bytes(len)
            })
            .collect()
    }

    fn label(&self) -> String {
        format!(
            "{:?}/{}t/{:?}/{:x}",
            self.design, self.threads, self.kind, self.seed
        )
    }
}

/// What a point reports: simulated cycles, work done and its outputs.
#[derive(Clone, PartialEq, Eq, Debug)]
struct PointOut {
    cycles: u64,
    work: u64,
    outputs: Vec<u32>,
}

pub struct Sweep {
    size: &'static Size,
    rng: Rng,
    service: SweepService<PointOut>,
    /// Assembled `sum_loop` and `fibonacci`.
    sum_loop: Vec<u32>,
    fibonacci: Vec<u32>,
    /// Traced calls: wall of every job that simulated, in ms.
    job_ms: Vec<f64>,
}

/// An MD5 digest as four little-endian words.
fn digest_words(digest: &[u8; 16]) -> [u32; 4] {
    std::array::from_fn(|i| {
        u32::from_le_bytes(digest[4 * i..4 * i + 4].try_into().expect("4 bytes"))
    })
}

fn fib(n: usize) -> u32 {
    let (mut a, mut b) = (0u32, 1u32);
    for _ in 0..n {
        (a, b) = (b, a.wrapping_add(b));
    }
    a
}

impl Sweep {
    pub fn setup(seed: u64, short: bool) -> Self {
        let size = if short { &SHORT } else { &FULL };
        let sum_loop = assemble(programs::SUM_LOOP).expect("sum_loop assembles");
        let fibonacci = assemble(programs::FIBONACCI).expect("fibonacci assembles");
        let first = Point {
            design: Design::SumLoop,
            threads: size.threads[0],
            kind: KINDS[0],
            seed,
        };
        drop(Cpu::new(
            first.config(),
            sum_loop.clone(),
            vec![0; first.threads],
        ));
        Self {
            size,
            rng: Rng::new(seed),
            service: SweepService::new(available_workers())
                .with_cache_capacity(size.cache_capacity),
            sum_loop,
            fibonacci,
            job_ms: Vec::new(),
        }
    }

    fn program(&self, design: Design) -> Vec<u32> {
        match design {
            Design::SumLoop => self.sum_loop.clone(),
            Design::Fibonacci => self.fibonacci.clone(),
            Design::Md5 => unreachable!("md5 points run no program"),
        }
    }

    /// Every grid point once, with seeds drawn from `rng`.
    fn campaign(&self, rng: &mut Rng) -> Vec<Point> {
        let mut points = Vec::new();
        for &design in &DESIGNS {
            for &threads in self.size.threads {
                for kind in KINDS {
                    points.push(Point {
                        design,
                        threads,
                        kind,
                        seed: rng.next_u64(),
                    });
                }
            }
        }
        points
    }

    /// The campaign key of `p`: hashes the point's elaborated-IR
    /// structure, its configuration and its seed. Traced calls time the
    /// IR build and the hash.
    fn key(&self, p: &Point, traced: bool, ctx: &mut Ctx) -> u64 {
        let t = Instant::now();
        let (hash, built) = match p.design {
            Design::Md5 => {
                let ir = Md5Circuit::ir(p.threads, p.threads, 1).ir;
                let built = t.elapsed();
                (ir.structural_hash(), built)
            }
            design => {
                let ir = Cpu::ir(&p.config(), self.program(design), vec![0; p.threads]).ir;
                let built = t.elapsed();
                (ir.structural_hash(), built)
            }
        };
        if traced {
            ctx.add("ir_ns", nanos(built));
            ctx.add("hash_ns", nanos(t.elapsed() - built));
            ctx.add("keys", 1.0);
        }
        let mut config = Digest::default();
        config.extend([
            p.design as u64,
            u64::from(p.kind == MebKind::Full),
            p.threads as u64,
        ]);
        campaign_key(hash, config.value(), p.seed)
    }

    fn job(&self, p: Point, key: u64) -> SimJob<PointOut> {
        let job = match p.design {
            Design::Md5 => SimJob::instrumented(p.label(), move || {
                let messages = p.messages();
                let refs: Vec<&[u8]> = messages.iter().map(Vec::as_slice).collect();
                let (digests, cycles, kernel) = Md5Hasher::new(p.threads, p.kind)
                    .with_backend(KernelBackend::Fused)
                    .hash_messages_instrumented(&refs)
                    .map_err(|e| match e {
                        Md5Error::Sim(s) => s,
                        other => panic!("md5 point {}: {other}", p.label()),
                    })?;
                let outputs = digests.iter().flat_map(digest_words).collect();
                let work = messages.iter().map(|m| crate::md5::blocks(m.len())).sum();
                Ok((
                    PointOut {
                        cycles,
                        work,
                        outputs,
                    },
                    kernel,
                ))
            }),
            design => {
                let program = self.program(design);
                SimJob::instrumented(p.label(), move || {
                    let mut cpu = Cpu::new(p.config(), program, vec![0; p.threads]);
                    let stats = cpu.run_to_halt(MAX_CYCLES).map_err(|e| match e {
                        CpuError::Sim(s) => s,
                        other => panic!("cpu point {}: {other}", p.label()),
                    })?;
                    let outputs = (0..p.threads)
                        .map(|t| match design {
                            Design::SumLoop => cpu.reg(t, 2),
                            _ => cpu.mem(t),
                        })
                        .collect();
                    Ok((
                        PointOut {
                            cycles: stats.cycles,
                            work: stats.executed.iter().sum(),
                            outputs,
                        },
                        *cpu.circuit.stats().kernel(),
                    ))
                })
            }
        };
        job.with_cache_key(key)
    }

    /// Checks a freshly simulated point against its reference.
    fn check_fresh(p: &Point, out: &PointOut, ctx: &mut Ctx) -> Result<(), String> {
        let expected: Vec<u32> = match p.design {
            Design::SumLoop => (0..p.threads)
                .map(|t| ((8 + t) * (9 + t) / 2) as u32)
                .collect(),
            Design::Fibonacci => (0..p.threads).map(|t| fib(10 + t)).collect(),
            Design::Md5 => p
                .messages()
                .iter()
                .flat_map(|m| digest_words(&algo::md5(m)))
                .collect(),
        };
        ctx.checked("sweep_reference");
        if out.outputs != expected {
            return Err(format!(
                "point {}: outputs differ from the reference",
                p.label()
            ));
        }
        Ok(())
    }
}

impl Workload for Sweep {
    fn inputs(&self) -> usize {
        self.size.inputs
    }

    fn call(&mut self, index: usize, traced: bool, ctx: &mut Ctx) -> Result<Call, String> {
        let mut rng = self.rng.fork((index % self.size.inputs) as u64);
        let first = self.campaign(&mut rng);
        // Every other point repeats; the rest get fresh seeds.
        let fresh_seeds = self.campaign(&mut rng);
        let second: Vec<Point> = first
            .iter()
            .zip(&fresh_seeds)
            .enumerate()
            .map(|(i, (a, b))| if i % 2 == 0 { *a } else { *b })
            .collect();

        let mut key_time = Duration::ZERO;
        let mut pool_time = Duration::ZERO;
        let mut reports = Vec::new();
        let start = Instant::now();
        for points in [&first, &second] {
            let t = Instant::now();
            let keys: Vec<u64> = points.iter().map(|p| self.key(p, traced, ctx)).collect();
            key_time += t.elapsed();
            let jobs = points
                .iter()
                .zip(&keys)
                .map(|(p, &k)| self.job(*p, k))
                .collect();
            let report: SweepReport<PointOut> = self.service.run(jobs);
            pool_time += report.wall;
            reports.push(report);
        }
        let wall = start.elapsed();

        let mut fresh: HashMap<u64, PointOut> = HashMap::new();
        let mut kernel = KernelStats::default();
        let (mut cycles, mut sim_words) = (0u64, Vec::new());
        for (points, report) in [&first, &second].into_iter().zip(&reports) {
            for (p, job) in points.iter().zip(&report.jobs) {
                let out = job
                    .outcome
                    .as_ref()
                    .map_err(|e| format!("point {}: {e}", p.label()))?;
                let key = job.cache_key.expect("every job is keyed");
                if job.memoized {
                    let mut seen = out.clone();
                    if ctx.corrupt_now() {
                        seen.cycles += 1;
                    }
                    ctx.checked("sweep_memo");
                    if fresh.get(&key) != Some(&seen) {
                        return Err(format!(
                            "point {}: memoized result differs from the fresh one",
                            p.label()
                        ));
                    }
                } else {
                    Self::check_fresh(p, out, ctx)?;
                    fresh.insert(key, out.clone());
                    cycles += out.cycles;
                    kernel.merge(&job.kernel);
                    if traced {
                        self.job_ms.push(job.wall.as_secs_f64() * 1e3);
                    }
                }
                sim_words.extend([u64::from(job.memoized), out.cycles, out.work]);
                sim_words.extend(out.outputs.iter().map(|&w| u64::from(w)));
            }
        }
        if traced {
            for r in &reports {
                let busy: f64 = r.jobs.iter().map(|j| j.wall.as_secs_f64()).sum();
                ctx.add("busy_s", busy);
                ctx.add("capacity_s", r.workers_used as f64 * r.wall.as_secs_f64());
                ctx.add("hits", r.cache_hits as f64);
                ctx.add("misses", r.cache_misses as f64);
                ctx.add("evictions", r.cache_evictions as f64);
            }
        }
        Ok(Call {
            wall,
            cycles,
            items: (first.len() + second.len()) as u64,
            kernel,
            spans: if traced {
                vec![("sweep.key", key_time), ("par.pool", pool_time)]
            } else {
                Vec::new()
            },
            sim_words,
            core: None,
        })
    }

    fn layers(&self, acc: &TraceAcc, _det: &Det, ctx: &Ctx, out: &mut BTreeMap<&'static str, f64>) {
        let busy = ctx.get("busy_s");
        let capacity = ctx.get("capacity_s");
        out.insert("par.busy_s", busy);
        out.insert("par.efficiency", ratio(busy, capacity));
        out.insert("par.idle_s", capacity - busy);
        let mut jobs = self.job_ms.clone();
        jobs.sort_by(f64::total_cmp);
        out.insert("par.job_ms_p90", percentile(&jobs, 0.9));
        let (hits, misses) = (ctx.get("hits"), ctx.get("misses"));
        out.insert("sweep.hits", hits);
        out.insert("sweep.misses", misses);
        out.insert("sweep.hit_frac", ratio(hits, hits + misses));
        out.insert("sweep.evictions", ctx.get("evictions"));
        let keys = ctx.get("keys");
        out.insert("sweep.key_us", ratio(acc.span("sweep.key"), keys) / 1e3);
        synth_layers(ctx, keys, out);
    }

    fn pooled(&self) -> bool {
        true
    }

    fn unreachable(&self) -> &'static str {
        "jobs build and run their designs inside the pool, where passes, elaboration, \
         lowering and settle are not split"
    }
}
