//! Criterion bench: the packed-handshake settle-loop fast path.
//!
//! Measures the simulation kernel's inner settle loop on backpressured
//! MEB pipelines (the workload behind `BENCH_packed_handshake.json`) and
//! the raw cost of the `ThreadMask` operations the loop is built from.
//! Random sink readiness keeps every channel's valid/ready masks churning,
//! so the loop cannot quiesce early — this is the worst case the packed
//! refactor targets. The `sink_ready_word` group times the stall
//! stimulus alone: the per-cycle ready word of a 64-thread sink with a
//! per-thread `Random` policy, built from the compiled integer rules
//! versus one `ReadyPolicy::is_ready` call per thread. See
//! `docs/perf.md` for the full methodology.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use elastic_core::{MebKind, PipelineConfig, PipelineHarness};
use elastic_sim::{CircuitBuilder, KernelBackend, ReadyPolicy, Sink, Tagged, ThreadMask};

const CYCLES: u64 = 1_000;

fn run_backpressured_on(threads: usize, stages: usize, backend: KernelBackend) -> u64 {
    let fuser = match backend {
        KernelBackend::Fused => Some(elastic_synth::fuse as _),
        KernelBackend::Interpreted => None,
    };
    let mut cfg = PipelineConfig::free_flowing(threads, stages, MebKind::Reduced, CYCLES)
        .with_backend(backend, fuser);
    for t in 0..threads {
        cfg = cfg.with_sink_policy(
            t,
            ReadyPolicy::Random {
                p: 0.6,
                seed: 0xC0FF_EE00 ^ t as u64,
            },
        );
    }
    let mut h = PipelineHarness::build(cfg);
    h.circuit.run(CYCLES).expect("pipeline runs clean");
    h.sink().consumed_total()
}

fn run_backpressured(threads: usize, stages: usize) -> u64 {
    run_backpressured_on(threads, stages, KernelBackend::Interpreted)
}

fn bench_settle_loop(c: &mut Criterion) {
    let mut group = c.benchmark_group("settle_hot_path");
    group.throughput(Throughput::Elements(CYCLES));
    for threads in [8usize, 16, 64] {
        group.bench_with_input(
            BenchmarkId::new("backpressured", threads),
            &threads,
            |b, &threads| b.iter(|| run_backpressured(threads, 4)),
        );
    }
    group.finish();
}

/// The same backpressured workloads under both settle-kernel backends:
/// the interpreted `Box<dyn Component>` reference vs the fused op table
/// (`elastic_synth::fuse`). The pair behind `BENCH_fused_kernel.json`.
fn bench_fused_vs_interpreted(c: &mut Criterion) {
    let mut group = c.benchmark_group("fused_vs_interpreted");
    group.throughput(Throughput::Elements(CYCLES));
    for threads in [8usize, 16, 64] {
        for (label, backend) in [
            ("interpreted", KernelBackend::Interpreted),
            ("fused", KernelBackend::Fused),
        ] {
            group.bench_with_input(BenchmarkId::new(label, threads), &threads, |b, &threads| {
                b.iter(|| run_backpressured_on(threads, 4, backend))
            });
        }
    }
    group.finish();
}

/// The per-cycle ready word of an S = 64 sink with per-thread `Random`
/// policies (the `pipeline` workload's stall stimulus), over `CYCLES`
/// consecutive cycles: the compiled word the fused kernel commits, and
/// the per-thread spec it must equal.
fn bench_sink_ready_word(c: &mut Criterion) {
    const THREADS: usize = 64;
    let policies: Vec<ReadyPolicy> = (0..THREADS)
        .map(|t| ReadyPolicy::Random {
            p: 0.02,
            seed: 0xC0FF_EE00 ^ t as u64,
        })
        .collect();
    let ch = CircuitBuilder::<Tagged>::new().channel("snk", THREADS);
    let mut sink = Sink::<Tagged>::new("snk", ch, THREADS, ReadyPolicy::Always);
    for (t, p) in policies.iter().enumerate() {
        sink.set_policy(t, p.clone());
    }
    let mut mask = ThreadMask::new(THREADS);
    let mut group = c.benchmark_group("sink_ready_word");
    group.throughput(Throughput::Elements(CYCLES));
    group.bench_function(BenchmarkId::new("compiled", THREADS), |b| {
        b.iter(|| {
            for cycle in 0..CYCLES {
                sink.ready_word(cycle, &mut mask);
                std::hint::black_box(&mask);
            }
        })
    });
    group.bench_function(BenchmarkId::new("is_ready", THREADS), |b| {
        b.iter(|| {
            for cycle in 0..CYCLES {
                for (t, p) in policies.iter().enumerate() {
                    mask.set(t, p.is_ready(cycle, t));
                }
                std::hint::black_box(&mask);
            }
        })
    });
    group.finish();
}

fn bench_mask_ops(c: &mut Criterion) {
    let mut group = c.benchmark_group("thread_mask");
    for threads in [8usize, 64, 65] {
        let bits: Vec<bool> = (0..threads).map(|i| i % 3 == 0).collect();
        let mask = ThreadMask::from_bools(&bits);
        group.bench_with_input(
            BenchmarkId::new("iter_ones_sum", threads),
            &threads,
            |b, _| b.iter(|| std::hint::black_box(&mask).iter_ones().sum::<usize>()),
        );
        group.bench_with_input(
            BenchmarkId::new("next_one_wrapping", threads),
            &threads,
            |b, _| b.iter(|| std::hint::black_box(&mask).next_one_wrapping(threads / 2)),
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_settle_loop,
    bench_fused_vs_interpreted,
    bench_sink_ready_word,
    bench_mask_ops
);
criterion_main!(benches);
