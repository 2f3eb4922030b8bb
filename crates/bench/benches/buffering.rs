//! Criterion micro-benchmarks of the batching phase (Algorithm 1): the
//! paper's frequency-aware accumulator (budgeted `CountTree`) versus the
//! post-sort accumulator the engine runs — whole ingest + seal cycles, and
//! the two phases timed apart from 62k to 4M keys (EXPERIMENTS.md,
//! "Algorithm 1 without the tree").

use std::cell::RefCell;

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion, Throughput};
use prompt_core::batch::MicroBatch;
use prompt_core::buffering::{
    AccumulatorConfig, BatchAccumulator, FrequencyAwareAccumulator, PostSortAccumulator,
};
use prompt_core::source::TupleSource;
use prompt_core::types::{Interval, Time, Tuple};
use prompt_workloads::datasets;
use prompt_workloads::rate::RateProfile;

/// One batch of `n` tuples over `keys` keys: Zipf with exponent `z`, or
/// uniform for `z = 0`.
fn synd_batch(n: usize, keys: u64, z: f64) -> MicroBatch {
    let iv = Interval::new(Time::ZERO, Time::from_secs(1));
    let mut src = datasets::synd(RateProfile::Constant { rate: n as f64 }, keys, z, 3);
    let mut tuples = Vec::new();
    src.fill(iv, &mut tuples);
    MicroBatch::new(tuples, iv)
}

fn bench_ingest(c: &mut Criterion) {
    let mut group = c.benchmark_group("buffering_ingest");
    group.sample_size(20);
    for &n in &[10_000usize, 100_000] {
        // Tweets: word frequencies are Zipf 1.0.
        let tuples = synd_batch(n, n as u64 / 10, 1.0).tuples;
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

/// Time `ingest` (what a live source amortises over the batch interval) and
/// `seal` (what sits between the heartbeat and the plan) apart, on one
/// accumulator refilled batch after batch the way `PromptPartitioner` holds
/// it. Whatever has to happen between two samples — sealing the batch just
/// ingested, refilling for the next seal, dropping the sealed batch — runs
/// in the untimed set-up.
fn bench_phases<A: BatchAccumulator>(
    group: &mut criterion::BenchmarkGroup<'_>,
    name: &str,
    acc: A,
    tuples: &[Tuple],
) {
    let iv = Interval::new(Time::ZERO, Time::from_secs(1));
    let acc = RefCell::new(acc);
    let sealed = RefCell::new(None);
    let fill = |acc: &mut A| {
        for &t in tuples {
            acc.ingest(t);
        }
    };
    group.bench_function(BenchmarkId::new(name, "ingest"), |b| {
        b.iter_batched(
            || {
                let mut acc = acc.borrow_mut();
                if acc.stats().n_tuples > 0 {
                    acc.seal(iv);
                }
            },
            |()| fill(&mut acc.borrow_mut()),
            BatchSize::LargeInput,
        )
    });
    group.bench_function(BenchmarkId::new(name, "seal"), |b| {
        b.iter_batched(
            || {
                sealed.borrow_mut().take();
                let mut acc = acc.borrow_mut();
                if acc.stats().n_tuples == 0 {
                    fill(&mut acc);
                }
            },
            |()| *sealed.borrow_mut() = Some(acc.borrow_mut().seal(iv)),
            BatchSize::LargeInput,
        )
    });
}

fn bench_phases_apart(c: &mut Criterion) {
    let mut group = c.benchmark_group("alg1_phases");
    group.sample_size(9);
    // The benchmark's regime (Zipf 1.0 over 100k keys: ≈ 62k distinct keys
    // in 500k tuples), then uniform draws that push the distinct-key count
    // — what the heartbeat sort scales with — towards the batch size.
    let cells: [(usize, u64, f64); 7] = [
        (500_000, 100_000, 1.0),
        (500_000, 62_000, 0.0),
        (500_000, 500_000, 0.0),
        (500_000, 4_000_000, 0.0),
        (2_000_000, 62_000, 0.0),
        (2_000_000, 500_000, 0.0),
        (2_000_000, 4_000_000, 0.0),
    ];
    for (n, keys, z) in cells {
        let batch = synd_batch(n, keys, z);
        let (distinct, tuples) = (batch.distinct_keys(), &batch.tuples);
        let cell = format!("{n}t_{keys}k_z{z}_{distinct}distinct");
        let iv = Interval::new(Time::ZERO, Time::from_secs(1));
        // The estimates `PromptPartitioner` seeds the tree's steps with.
        let cfg = AccumulatorConfig {
            est_tuples: tuples.len() as f64,
            ..AccumulatorConfig::default()
        };
        bench_phases(
            &mut group,
            &format!("count_tree/{cell}"),
            FrequencyAwareAccumulator::new(cfg, iv),
            tuples,
        );
        bench_phases(
            &mut group,
            &format!("post_sort/{cell}"),
            PostSortAccumulator::new(iv),
            tuples,
        );
    }
    group.finish();
}

criterion_group!(benches, bench_ingest, bench_phases_apart);
criterion_main!(benches);
