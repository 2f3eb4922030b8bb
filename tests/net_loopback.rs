//! Fast-tier loopback smoke test for the distributed runtime.
//!
//! Runs real batches through `DistributedRuntime` over loopback TCP with the
//! workers as in-process threads (no spawned binaries — this tier must work
//! from a bare `cargo test`), and checks the outputs and per-bucket stats
//! are bit-identical to the serial engine's. Multi-process runs are held to
//! the serial engine by `crates/engine/tests/oracle.rs`.

use prompt_core::batch::{MicroBatch, PartitionPlan};
use prompt_core::partitioner::{BufferingMode, Partitioner, PromptPartitioner};
use prompt_core::reduce::PromptReduceAllocator;
use prompt_core::types::{Interval, Key, Time, Tuple};
use prompt_engine::prelude::*;
use prompt_engine::stage;

/// A skewed workload: key 0 holds ~half the tuples, the rest follow a
/// round-robin tail — enough skew for split keys to appear.
fn skewed_batch(n: usize, keys: u64, seq: u64) -> MicroBatch {
    let interval = Interval::new(Time(1_000_000 * seq), Time(1_000_000 * (seq + 1)));
    let tuples: Vec<Tuple> = (0..n)
        .map(|i| {
            let key = if i % 2 == 0 {
                0
            } else {
                1 + (i as u64 % (keys - 1))
            };
            Tuple {
                ts: Time(interval.start.0 + 1 + i as u64),
                key: Key(key),
                value: (i % 13) as f64 - 3.0,
            }
        })
        .collect();
    MicroBatch::new(tuples, interval)
}

fn plan_of(batch: &MicroBatch, p: usize) -> PartitionPlan {
    PromptPartitioner::new(BufferingMode::FrequencyAware).partition(batch, p)
}

fn thread_opts(workers: usize) -> DistributedOptions {
    let mut opts = DistributedOptions::new(workers, 0);
    opts.launch = LaunchMode::Thread;
    opts
}

/// One in-process worker thread serves a batch over loopback TCP and its
/// output matches the serial engine bit-for-bit.
#[test]
fn single_worker_loopback_matches_serial() {
    let job = Job::identity("sum", ReduceOp::Sum);
    let spec = job.wire_spec().expect("identity job is wire-expressible");
    let (p, r) = (4, 3);
    let batch = skewed_batch(500, 19, 0);
    let plan = plan_of(&batch, p);

    let cost = CostModel::default();
    let cluster = Cluster::new(1, 4);
    let serial_assigner = PromptReduceAllocator::new(42);
    let (serial_out, serial_times) =
        execute_batch(&plan, &job, &serial_assigner, r, &cost, &cluster);

    let mut rt = DistributedRuntime::launch(thread_opts(1)).expect("launch one worker thread");
    let dist_assigner = PromptReduceAllocator::new(42);
    let (dist_out, stats) = rt
        .execute_batch(0, &plan, &spec, &dist_assigner, r, None)
        .expect("no faults scheduled");
    rt.shutdown();

    assert_eq!(
        dist_out.aggregates, serial_out.aggregates,
        "distributed aggregates must be bit-identical to serial"
    );
    // The virtual stage times recovered from the real run's bucket stats
    // equal the simulated ones exactly — same cost model, same counts.
    let dist_times = times_from_stats(&plan, &stats, &cost, &cluster);
    assert_eq!(dist_times, serial_times);
}

/// Several batches across two worker threads, with the stateful Algorithm 3
/// allocator carried across batches on both sides.
#[test]
fn two_workers_stay_identical_across_batches() {
    let job = Job::identity("count", ReduceOp::Count);
    let spec = job.wire_spec().expect("identity job is wire-expressible");
    let (p, r) = (6, 4);
    let cost = CostModel::default();
    let cluster = Cluster::new(2, 4);

    let mut rt = DistributedRuntime::launch(thread_opts(2)).expect("launch two worker threads");
    let serial_assigner = PromptReduceAllocator::new(7);
    let dist_assigner = PromptReduceAllocator::new(7);
    for seq in 0..4u64 {
        let batch = skewed_batch(400 + 37 * seq as usize, 13, seq);
        let plan = plan_of(&batch, p);
        let (serial_out, _) =
            stage::execute_batch(&plan, &job, &serial_assigner, r, &cost, &cluster);
        let (dist_out, stats) = rt
            .execute_batch(seq, &plan, &spec, &dist_assigner, r, None)
            .expect("no faults scheduled");
        assert_eq!(dist_out.aggregates, serial_out.aggregates, "batch {seq}");
        let tuples: usize = stats.iter().map(|s| s.tuples).sum();
        assert_eq!(tuples, batch.len(), "batch {seq} tuple conservation");
    }
    let net = rt.stats();
    assert!(net.frames_sent > 0 && net.bytes_received > 0);
    assert_eq!(net.workers_lost, 0);
    rt.shutdown();
}

/// Three workers, six batches, six buckets: every reduce task fans its
/// fetches out to two remote sources concurrently, and each (fetcher,
/// source) pair funnels all of them through one pooled connection — the
/// dialed-connections counter stays at most `workers × (workers − 1)` while
/// reuse dominates. Outputs stay bit-identical.
#[test]
fn pooled_connections_are_reused_across_fetches_and_batches() {
    let job = Job::identity("sum", ReduceOp::Sum);
    let spec = job.wire_spec().expect("identity job is wire-expressible");
    let (p, r) = (6, 6);
    let cost = CostModel::default();
    let cluster = Cluster::new(3, 4);

    let mut rt = DistributedRuntime::launch(thread_opts(3)).expect("launch three worker threads");
    let serial_assigner = PromptReduceAllocator::new(5);
    let dist_assigner = PromptReduceAllocator::new(5);
    for seq in 0..6u64 {
        let batch = skewed_batch(300 + 11 * seq as usize, 17, seq);
        let plan = plan_of(&batch, p);
        let (serial_out, _) =
            stage::execute_batch(&plan, &job, &serial_assigner, r, &cost, &cluster);
        let (dist_out, _) = rt
            .execute_batch(seq, &plan, &spec, &dist_assigner, r, None)
            .expect("no faults scheduled");
        assert_eq!(dist_out.aggregates, serial_out.aggregates, "batch {seq}");
    }
    let net = rt.stats();
    assert!(
        net.shuffle_conns_dialed <= 6,
        "3 workers need at most one dial per ordered pair, got {}",
        net.shuffle_conns_dialed
    );
    assert!(
        net.shuffle_conns_reused > net.shuffle_conns_dialed,
        "pool hits ({}) must dominate dials ({}) across 6 batches",
        net.shuffle_conns_reused,
        net.shuffle_conns_dialed
    );
    assert!(net.shuffle_bytes_wire > 0, "remote fetches happened");
    rt.shutdown();
}

/// The full engine driver on `Backend::Distributed` (thread launch via the
/// runtime's fallback is not used here — the engine resolves the worker
/// binary; this test forces thread mode through the env-independent path by
/// running the runtime directly) — covered instead at the engine tier.
/// Here: a scripted mid-run worker kill recovers and still matches serial.
#[test]
fn kill_mid_batch_recovers_and_matches_serial() {
    let job = Job::identity("sum", ReduceOp::Sum);
    let spec = job.wire_spec().expect("identity job is wire-expressible");
    let (p, r) = (4, 2);
    let cost = CostModel::default();
    let cluster = Cluster::new(1, 8);

    let mut rt = DistributedRuntime::launch(thread_opts(2)).expect("launch two worker threads");
    rt.set_fault_plan(NetFaultPlan::none().kill_after_map(1, 0))
        .expect("worker 0 exists");
    let serial_assigner = PromptReduceAllocator::new(11);
    let dist_assigner = PromptReduceAllocator::new(11);
    for seq in 0..3u64 {
        let batch = skewed_batch(300, 9, seq);
        let plan = plan_of(&batch, p);
        let (serial_out, _) =
            stage::execute_batch(&plan, &job, &serial_assigner, r, &cost, &cluster);
        let dist_out = match rt.execute_batch(seq, &plan, &spec, &dist_assigner, r, None) {
            Ok((out, _)) => out,
            Err(loss) => {
                assert_eq!(seq, 1, "only batch 1 schedules a kill");
                assert_eq!(loss.worker, 0);
                // An assignment is a pure function of the block, so a plain
                // retry lands every cluster where the serial side put it.
                let (out, _) = rt
                    .execute_batch(seq, &plan, &spec, &dist_assigner, r, None)
                    .expect("survivor completes the recompute");
                out
            }
        };
        assert_eq!(dist_out.aggregates, serial_out.aggregates, "batch {seq}");
    }
    assert_eq!(rt.stats().workers_lost, 1);
    rt.shutdown();
}
