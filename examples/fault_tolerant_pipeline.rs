//! The consistency machinery of §8 end-to-end: a jittery (out-of-order)
//! delivery network in front of a bounded-delay reordering receiver, with
//! injected executor failures each recovered by re-running the lost batch's
//! plan (its data blocks are its replicated input) — and the window answers
//! coming out exactly-once identical.
//!
//! ```sh
//! cargo run --release --example fault_tolerant_pipeline
//! ```

use prompt::prelude::*;
use prompt_engine::recovery::FaultPlan;
use prompt_engine::reorder::ReorderingReceiver;
use prompt_workloads::jitter::JitterSource;

fn engine(faults: FaultPlan) -> StreamingEngine {
    let cfg = EngineConfig {
        batch_interval: Duration::from_secs(1),
        map_tasks: 8,
        reduce_tasks: 8,
        cluster: Cluster::new(2, 4),
        ..EngineConfig::default()
    };
    StreamingEngine::new(
        cfg,
        Technique::Prompt,
        77,
        Job::identity("WordCount", ReduceOp::Count),
    )
    .with_window(WindowSpec::sliding(
        Duration::from_secs(5),
        Duration::from_secs(1),
    ))
    .with_fault_tolerance(2, faults)
}

fn tweets() -> prompt_workloads::generator::StreamGenerator {
    prompt::workloads::datasets::tweets(RateProfile::Constant { rate: 20_000.0 }, 5_000, 77)
}

fn main() {
    // Clean reference run: in-order delivery, no failures.
    let reference = engine(FaultPlan::none()).run(&mut tweets(), 15);

    // Chaos run: delivery jitter up to 120 ms (within the receiver's 150 ms
    // bound) and three injected state losses.
    let faults = FaultPlan::none()
        .lose_once(3)
        .lose_once(7)
        .lose_times(11, 2);
    let mut receiver = ReorderingReceiver::new(
        JitterSource::new(tweets(), Duration::from_millis(120), 9),
        Duration::from_millis(150),
    );
    let chaotic = engine(faults).run(&mut receiver, 15);

    println!(
        "reference run : {} batches, {} windows",
        reference.batches.len(),
        reference.windows.len()
    );
    println!(
        "chaotic run   : {} batches, {} windows, {} recoveries, {} late drops",
        chaotic.batches.len(),
        chaotic.windows.len(),
        chaotic.recoveries,
        receiver.late_dropped()
    );

    // Recovery cost is visible in the affected batches.
    for seq in [3usize, 7, 11] {
        println!(
            "batch {seq:>2}: processing {:>7.1} ms clean vs {:>7.1} ms with recovery",
            reference.batches[seq].processing.as_secs_f64() * 1e3,
            chaotic.batches[seq].processing.as_secs_f64() * 1e3,
        );
    }

    // Exactly-once check: every window answer identical.
    let mut mismatches = 0;
    for (a, b) in reference.windows.iter().zip(&chaotic.windows) {
        if a.aggregates.len() != b.aggregates.len()
            || a.aggregates
                .iter()
                .any(|(k, v)| b.aggregates.get(k) != Some(v))
        {
            mismatches += 1;
        }
    }
    println!(
        "\nexactly-once verification: {}/{} windows identical ({})",
        reference.windows.len() - mismatches,
        reference.windows.len(),
        if mismatches == 0 { "PASS" } else { "FAIL" }
    );
    assert_eq!(mismatches, 0);
}
