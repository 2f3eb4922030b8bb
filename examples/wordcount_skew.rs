//! WordCount under skew: how each partitioning technique behaves as the
//! Zipf exponent grows, on both the simulated cluster (deterministic stage
//! times) and the real multi-threaded backend (wall-clock times).
//!
//! ```sh
//! cargo run --release --example wordcount_skew
//! ```

use prompt::prelude::*;

fn main() {
    let rate = 150_000.0;
    let keys = 50_000;

    // --- Simulated engine: processing time vs skew per technique.
    println!("simulated processing time (ms/batch) by Zipf exponent:");
    println!(
        "{:<12} {:>8} {:>8} {:>8} {:>8}",
        "technique", "z=0.4", "z=0.8", "z=1.2", "z=1.6"
    );
    for tech in [
        Technique::Shuffle,
        Technique::Hash,
        Technique::Pkg(2),
        Technique::Pkg(5),
        Technique::Cam(4),
        Technique::Prompt,
    ] {
        let mut cells = Vec::new();
        for z in [0.4, 0.8, 1.2, 1.6] {
            let cfg = EngineConfig {
                batch_interval: Duration::from_secs(1),
                map_tasks: 16,
                reduce_tasks: 16,
                cluster: Cluster::new(2, 8),
                cost: CostModel::default().scaled(4.0),
                ..EngineConfig::default()
            };
            let mut engine =
                StreamingEngine::new(cfg, tech, 11, Job::identity("WordCount", ReduceOp::Count));
            let mut source =
                prompt::workloads::datasets::synd(RateProfile::Constant { rate }, keys, z, 11);
            let result = engine.run(&mut source, 6);
            cells.push(result.steady_state_mean(|b| b.processing.as_secs_f64() * 1e3));
        }
        println!(
            "{:<12} {:>8.1} {:>8.1} {:>8.1} {:>8.1}",
            tech.label(),
            cells[0],
            cells[1],
            cells[2],
            cells[3]
        );
    }

    // --- Real threads: wall-clock of one heavy batch, Prompt vs Hash.
    println!("\nreal threaded execution of one 400k-tuple batch (8 threads):");
    let mut source =
        prompt::workloads::datasets::synd(RateProfile::Constant { rate: 400_000.0 }, keys, 1.2, 5);
    let interval = Interval::new(Time::ZERO, Time::from_secs(1));
    let mut tuples = Vec::new();
    source.fill(interval, &mut tuples);
    let batch = MicroBatch::new(tuples, interval);
    let job = Job::identity("WordCount", ReduceOp::Count);
    let exec = ThreadedExecutor::new(8);
    for tech in [Technique::Hash, Technique::Prompt] {
        let plan = tech.build(5).partition(&batch, 8);
        let assigner = PromptReduceAllocator::new(5);
        let (out, wall) = exec.execute(&plan, &job, &assigner, 8);
        println!(
            "  {:<8} map {:>7.2?}  shuffle {:>7.2?}  reduce {:>7.2?}  total {:>7.2?}  ({} keys)",
            tech.label(),
            wall.map,
            wall.shuffle,
            wall.reduce,
            wall.total(),
            out.len()
        );
    }
}
