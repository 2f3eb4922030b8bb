//! Criterion micro-benchmarks of the Reduce bucket allocator (Algorithm 3)
//! versus conventional hashing, per Map task and for a whole plan.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use prompt_core::batch::MicroBatch;
use prompt_core::hash::KeySet;
use prompt_core::partitioner::Technique;
use prompt_core::reduce::{
    allocate_reduce, HashReduceAssigner, KeyCluster, PromptReduceAllocator, ReduceAssigner,
};
use prompt_core::source::TupleSource;
use prompt_core::types::{Interval, Key, Time};
use prompt_workloads::datasets;
use prompt_workloads::rate::RateProfile;

fn clusters(n: usize) -> Vec<KeyCluster> {
    // Zipf-ish cluster sizes.
    (0..n)
        .map(|i| KeyCluster {
            key: Key(i as u64),
            size: 1 + 5_000 / (i + 1),
        })
        .collect()
}

fn bench_single_task(c: &mut Criterion) {
    let mut group = c.benchmark_group("reduce_assign_one_task");
    group.sample_size(30);
    for &n in &[1_000usize, 10_000] {
        let cs = clusters(n);
        let split = KeySet::default();
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::new("prompt_worst_fit", n), &cs, |b, cs| {
            let a = PromptReduceAllocator::new(3);
            b.iter(|| a.assign(0, cs, &split, 32).len())
        });
        group.bench_with_input(BenchmarkId::new("hash", n), &cs, |b, cs| {
            let a = HashReduceAssigner::new(3);
            b.iter(|| a.assign(0, cs, &split, 32).len())
        });
    }
    group.finish();
}

fn bench_whole_plan(c: &mut Criterion) {
    let iv = Interval::new(Time::ZERO, Time::from_secs(1));
    let mut src = datasets::synd(RateProfile::Constant { rate: 100_000.0 }, 10_000, 1.0, 5);
    let mut tuples = Vec::new();
    src.fill(iv, &mut tuples);
    let batch = MicroBatch::new(tuples, iv);
    let plan = Technique::Prompt.build(3).partition(&batch, 32);

    let mut group = c.benchmark_group("reduce_allocate_plan");
    group.sample_size(20);
    group.bench_function("prompt", |b| {
        b.iter(|| allocate_reduce(&plan, &PromptReduceAllocator::new(3), 32).sizes())
    });
    group.bench_function("hash", |b| {
        b.iter(|| allocate_reduce(&plan, &HashReduceAssigner::new(3), 32).sizes())
    });
    group.finish();
}

criterion_group!(benches, bench_single_task, bench_whole_plan);
criterion_main!(benches);
