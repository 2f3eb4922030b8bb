//! Criterion micro-benchmarks of every batching-phase partitioner on a
//! Zipfian micro-batch — the "high-quality partitioning for thousands of
//! items in milliseconds" requirement of §4.2.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use prompt_core::batch::MicroBatch;
use prompt_core::partitioner::Technique;
use prompt_core::source::TupleSource;
use prompt_core::types::{Interval, Time};
use prompt_workloads::datasets;
use prompt_workloads::rate::RateProfile;

fn zipf_batch(n: usize, cardinality: u64, z: f64) -> MicroBatch {
    let iv = Interval::new(Time::ZERO, Time::from_secs(1));
    let mut src = datasets::synd(RateProfile::Constant { rate: n as f64 }, cardinality, z, 5);
    let mut tuples = Vec::new();
    src.fill(iv, &mut tuples);
    MicroBatch::new(tuples, iv)
}

fn bench_partitioners(c: &mut Criterion) {
    let mut group = c.benchmark_group("partition_batch");
    group.sample_size(15);
    for &n in &[50_000usize, 200_000] {
        let batch = zipf_batch(n, n as u64 / 10, 1.0);
        group.throughput(Throughput::Elements(batch.len() as u64));
        // `policy::technique_overhead` derives its Prompt entries from these
        // rows, so both Prompt buffers and D-Choices are timed too.
        let extra = [Technique::DChoices(5), Technique::PromptCountTree];
        for tech in Technique::EVALUATION_SET.into_iter().chain(extra) {
            group.bench_with_input(BenchmarkId::new(tech.label(), n), &batch, |b, batch| {
                let mut part = tech.build(9);
                b.iter(|| part.partition(batch, 32).total_tuples())
            });
        }
    }
    group.finish();
}

fn bench_prompt_vs_skew(c: &mut Criterion) {
    // Algorithm 2's cost as skew grows (more heavy keys → more residuals).
    let mut group = c.benchmark_group("prompt_by_skew");
    group.sample_size(15);
    for &z in &[0.5f64, 1.0, 1.5] {
        let batch = zipf_batch(100_000, 10_000, z);
        group.bench_with_input(BenchmarkId::from_parameter(z), &batch, |b, batch| {
            let mut part = Technique::Prompt.build(9);
            b.iter(|| part.partition(batch, 32).total_tuples())
        });
    }
    group.finish();
}

criterion_group!(benches, bench_partitioners, bench_prompt_vs_skew);
criterion_main!(benches);
