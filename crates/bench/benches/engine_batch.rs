//! Criterion benchmarks of whole-batch execution through the engine: the
//! full partition → Map → shuffle → Reduce path per technique (simulated
//! cluster costs; wall time measures the engine's own work per batch), and
//! the real threaded backend.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use prompt_core::partitioner::Technique;
use prompt_core::source::TupleSource;
use prompt_core::types::{Duration, Interval, Time};
use prompt_engine::cluster::Cluster;
use prompt_engine::config::EngineConfig;
use prompt_engine::cost::CostModel;
use prompt_engine::driver::StreamingEngine;
use prompt_engine::job::{Job, ReduceOp};
use prompt_engine::threaded::ThreadedExecutor;
use prompt_workloads::datasets;
use prompt_workloads::rate::RateProfile;

fn bench_engine_run(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_5_batches");
    group.sample_size(10);
    let rate = 100_000.0;
    group.throughput(Throughput::Elements(5 * rate as u64));
    for tech in [
        Technique::TimeBased,
        Technique::Shuffle,
        Technique::Hash,
        Technique::Pkg(5),
        Technique::Prompt,
    ] {
        group.bench_function(BenchmarkId::from_parameter(tech.label()), |b| {
            b.iter(|| {
                let cfg = EngineConfig {
                    batch_interval: Duration::from_secs(1),
                    map_tasks: 16,
                    reduce_tasks: 16,
                    cluster: Cluster::new(2, 8),
                    cost: CostModel::default().scaled(20.0),
                    ..EngineConfig::default()
                };
                let mut engine = StreamingEngine::new(
                    cfg,
                    tech,
                    11,
                    Job::identity("WordCount", ReduceOp::Count),
                );
                let mut source = datasets::tweets(RateProfile::Constant { rate }, 10_000, 11);
                engine.run(&mut source, 5).batches.len()
            })
        });
    }
    group.finish();
}

fn bench_threaded_backend(c: &mut Criterion) {
    let iv = Interval::new(Time::ZERO, Time::from_secs(1));
    let mut src = datasets::synd(RateProfile::Constant { rate: 200_000.0 }, 20_000, 1.0, 5);
    let mut tuples = Vec::new();
    src.fill(iv, &mut tuples);
    let batch = prompt_core::batch::MicroBatch::new(tuples, iv);
    let job = Job::identity("WordCount", ReduceOp::Count);

    let mut group = c.benchmark_group("threaded_execute_200k");
    group.sample_size(10);
    group.throughput(Throughput::Elements(batch.len() as u64));
    for threads in [1usize, 4, 8] {
        let plan = Technique::Prompt.build(5).partition(&batch, 8);
        group.bench_with_input(BenchmarkId::from_parameter(threads), &plan, |b, plan| {
            let exec = ThreadedExecutor::new(threads);
            b.iter(|| {
                let assigner = prompt_core::reduce::PromptReduceAllocator::new(5);
                exec.execute(plan, &job, &assigner, 8).0.len()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_engine_run, bench_threaded_backend);
criterion_main!(benches);
