//! Criterion micro-benchmarks of the sharded parallel ingest pipeline:
//! Algorithm 1 throughput of the serial accumulator versus the
//! [`ShardedAccumulator`] at 8 shards across worker-thread counts, on a
//! Zipf(1.5) stream — for the paper's count-tree buffer (`serial`,
//! `shards8`) and for the exact buffer the engine runs (`exact_serial`,
//! `exact_shards8`) — plus serial versus parallel Algorithm 2 block
//! materialization.
//!
//! The sharded rows are deterministic and thread-invariant (the exact ones
//! bit-identical to their serial row for any shard count — see
//! `crates/core/tests/accumulator_props.rs` and
//! `tests/sharded_differential.rs`), so the comparison is purely about
//! throughput. The thread scaling only materialises on
//! multi-core hosts: worker `w` scans the whole arrival slice but ingests
//! only its own shards, so per-worker time is `scan(n) + ingest(n/threads)`
//! — at 8 shards on ≥ 4 cores the ingest term dominates and throughput
//! exceeds 2× serial, while a single-core host serialises the scans and
//! shows a net loss instead.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use prompt_core::buffering::{
    AccumulatorConfig, BatchAccumulator, FrequencyAwareAccumulator, PostSortAccumulator,
    ShardedAccumulator,
};
use prompt_core::partitioner::PromptPartitioner;
use prompt_core::source::TupleSource;
use prompt_core::types::{Interval, Time, Tuple};
use prompt_workloads::datasets;
use prompt_workloads::rate::RateProfile;

const KEYS: u64 = 50_000;
const ZIPF_EXPONENT: f64 = 1.5;

fn zipf_tuples(n: usize) -> Vec<Tuple> {
    let iv = Interval::new(Time::ZERO, Time::from_secs(1));
    let mut src = datasets::synd(
        RateProfile::Constant { rate: n as f64 },
        KEYS,
        ZIPF_EXPONENT,
        7,
    );
    let mut out = Vec::new();
    src.fill(iv, &mut out);
    out
}

fn config(tuples: &[Tuple]) -> AccumulatorConfig {
    AccumulatorConfig {
        budget: 8,
        est_tuples: tuples.len() as f64,
        avg_keys: KEYS as f64,
    }
}

fn bench_sharded_ingest(c: &mut Criterion) {
    let mut group = c.benchmark_group("parallel_ingest_zipf1.5");
    group.sample_size(20);
    let tuples = zipf_tuples(400_000);
    let cfg = config(&tuples);
    let iv = Interval::new(Time::ZERO, Time::from_secs(1));
    let next = Interval::new(Time::from_secs(1), Time::from_secs(2));
    group.throughput(Throughput::Elements(tuples.len() as u64));

    group.bench_with_input(BenchmarkId::new("serial", 1), &tuples, |b, ts| {
        b.iter(|| {
            let mut acc = FrequencyAwareAccumulator::new(cfg, iv);
            for &t in ts {
                acc.ingest(t);
            }
            acc.seal(next).n_tuples
        })
    });
    for &threads in &[1usize, 2, 4, 8] {
        group.bench_with_input(BenchmarkId::new("shards8", threads), &tuples, |b, ts| {
            b.iter(|| {
                let mut acc = ShardedAccumulator::new(cfg, 8, iv);
                acc.par_ingest(ts, threads);
                acc.seal(next).n_tuples
            })
        });
    }
    // The engine's buffer: with ingest this cheap, does sharding still pay
    // for its scatter and its second arena copy at the merge?
    group.bench_with_input(BenchmarkId::new("exact_serial", 1), &tuples, |b, ts| {
        b.iter(|| {
            let mut acc = PostSortAccumulator::new(iv);
            for &t in ts {
                acc.ingest(t);
            }
            acc.seal(next).n_tuples
        })
    });
    for &threads in &[1usize, 2, 4, 8] {
        group.bench_with_input(
            BenchmarkId::new("exact_shards8", threads),
            &tuples,
            |b, ts| {
                b.iter(|| {
                    let mut acc = ShardedAccumulator::exact(8, iv);
                    acc.par_ingest(ts, threads);
                    acc.seal(next).n_tuples
                })
            },
        );
    }
    group.finish();
}

fn bench_parallel_materialization(c: &mut Criterion) {
    let mut group = c.benchmark_group("parallel_materialization");
    group.sample_size(20);
    let tuples = zipf_tuples(400_000);
    let cfg = config(&tuples);
    let iv = Interval::new(Time::ZERO, Time::from_secs(1));
    let next = Interval::new(Time::from_secs(1), Time::from_secs(2));
    let mut acc = FrequencyAwareAccumulator::new(cfg, iv);
    for &t in &tuples {
        acc.ingest(t);
    }
    let sealed = acc.seal(next);
    let p = 32;
    group.throughput(Throughput::Elements(sealed.n_tuples as u64));
    group.bench_function("serial", |b| {
        b.iter(|| PromptPartitioner::partition_sealed(&sealed, p).total_tuples())
    });
    for &threads in &[2usize, 4, 8] {
        group.bench_with_input(BenchmarkId::new("par", threads), &sealed, |b, s| {
            b.iter(|| PromptPartitioner::partition_sealed_par(s, p, threads).total_tuples())
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_sharded_ingest,
    bench_parallel_materialization
);
criterion_main!(benches);
