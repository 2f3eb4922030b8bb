//! Criterion micro-benchmarks of the batching phase (Algorithm 1): ingest
//! throughput and heartbeat (seal) cost of the frequency-aware accumulator
//! versus the post-sort baseline.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use prompt_core::buffering::{
    AccumulatorConfig, BatchAccumulator, FrequencyAwareAccumulator, PostSortAccumulator,
};
use prompt_core::source::TupleSource;
use prompt_core::types::{Interval, Time, Tuple};
use prompt_workloads::datasets;
use prompt_workloads::rate::RateProfile;

fn tweet_tuples(n: usize, cardinality: u64) -> Vec<Tuple> {
    let iv = Interval::new(Time::ZERO, Time::from_secs(1));
    let mut src = datasets::tweets(RateProfile::Constant { rate: n as f64 }, cardinality, 3);
    let mut out = Vec::new();
    src.fill(iv, &mut out);
    out
}

fn bench_ingest(c: &mut Criterion) {
    let mut group = c.benchmark_group("buffering_ingest");
    group.sample_size(20);
    for &n in &[10_000usize, 100_000] {
        let tuples = tweet_tuples(n, n as u64 / 10);
        group.throughput(Throughput::Elements(tuples.len() as u64));
        let iv = Interval::new(Time::ZERO, Time::from_secs(1));
        let next = Interval::new(Time::from_secs(1), Time::from_secs(2));
        let cfg = AccumulatorConfig {
            budget: 8,
            est_tuples: tuples.len() as f64,
            avg_keys: tuples.len() as f64 / 10.0,
        };
        group.bench_with_input(BenchmarkId::new("frequency_aware", n), &tuples, |b, ts| {
            b.iter(|| {
                let mut acc = FrequencyAwareAccumulator::new(cfg, iv);
                for &t in ts {
                    acc.ingest(t);
                }
                acc.seal(next).n_tuples
            })
        });
        // What the engine runs: `PromptPartitioner` keeps one accumulator
        // and refills it, so index, log and counters are already sized.
        group.bench_with_input(
            BenchmarkId::new("frequency_aware_reused", n),
            &tuples,
            |b, ts| {
                let mut acc = FrequencyAwareAccumulator::new(cfg, iv);
                b.iter(|| {
                    for &t in ts {
                        acc.ingest(t);
                    }
                    acc.seal(iv).n_tuples
                })
            },
        );
        group.bench_with_input(BenchmarkId::new("post_sort", n), &tuples, |b, ts| {
            b.iter(|| {
                let mut acc = PostSortAccumulator::new(iv);
                for &t in ts {
                    acc.ingest(t);
                }
                acc.seal(next).n_tuples
            })
        });
    }
    group.finish();
}

fn bench_seal_only(c: &mut Criterion) {
    // Isolate the heartbeat-visible cost: ingest outside the timer.
    let mut group = c.benchmark_group("buffering_seal");
    group.sample_size(20);
    let n = 100_000;
    let tuples = tweet_tuples(n, 10_000);
    let iv = Interval::new(Time::ZERO, Time::from_secs(1));
    let next = Interval::new(Time::from_secs(1), Time::from_secs(2));
    group.bench_function("frequency_aware_seal", |b| {
        b.iter_batched(
            || {
                let cfg = AccumulatorConfig {
                    budget: 8,
                    est_tuples: n as f64,
                    avg_keys: 10_000.0,
                };
                let mut acc = FrequencyAwareAccumulator::new(cfg, iv);
                for &t in &tuples {
                    acc.ingest(t);
                }
                acc
            },
            |mut acc| acc.seal(next).n_tuples,
            criterion::BatchSize::LargeInput,
        )
    });
    group.bench_function("post_sort_seal", |b| {
        b.iter_batched(
            || {
                let mut acc = PostSortAccumulator::new(iv);
                for &t in &tuples {
                    acc.ingest(t);
                }
                acc
            },
            |mut acc| acc.seal(next).n_tuples,
            criterion::BatchSize::LargeInput,
        )
    });
    group.finish();
}

criterion_group!(benches, bench_ingest, bench_seal_only);
criterion_main!(benches);
