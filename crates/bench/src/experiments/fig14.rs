//! Figure 14 — the cost of Prompt itself:
//!
//! * **14a**: throughput of Prompt with the paper's online frequency-aware
//!   accumulator (Algorithm 1, a budgeted `CountTree`) versus post-sort
//!   buffering, which counts during the interval and sorts the keys *after*
//!   the heartbeat. Post-sorting puts the sort inside the processing window;
//!   Algorithm 1 spreads tree upkeep across the batching phase and leaves
//!   only the traversal + Algorithm 2 at the heartbeat. The engine runs the
//!   post-sort side (`Technique::Prompt`): on this implementation the sort
//!   is a few ms while the tree upkeep is tens of ms of arrival-side CPU
//!   (EXPERIMENTS.md, "Algorithm 1 without the tree"). This figure keeps
//!   timing the two accumulators directly, whatever the engine defaults to.
//! * **14b**: the heartbeat-visible partitioning cost as a percentage of the
//!   batch interval, across batch sizes — the paper observes it stays under
//!   5%, fully hidden by early batch release.
//!
//! These are the only experiments that measure *real* wall-clock time (the
//! partitioning code is actually executed and timed); the task execution
//! remains simulated.

use std::time::Instant;

use prompt_core::buffering::{
    AccumulatorConfig, BatchAccumulator, FrequencyAwareAccumulator, PostSortAccumulator,
};
use prompt_core::partitioner::PromptPartitioner;
use prompt_core::reduce::PromptReduceAllocator;
use prompt_core::source::TupleSource;
use prompt_core::types::{Duration, Interval, Time, Tuple};
use prompt_engine::job::{Job, ReduceOp};
use prompt_engine::stage::execute_batch;
use prompt_workloads::datasets;
use prompt_workloads::rate::RateProfile;

use crate::experiments::{standard_cluster, standard_config};
use crate::report::{f3, krate, stage_breakdown_table, Table};

/// Wall-clock costs of preparing one batch of `n_tuples` for processing.
#[derive(Clone, Copy, Debug)]
pub struct OverheadSample {
    /// Batch size.
    pub n_tuples: usize,
    /// Frequency-aware: ingest cost paid *during* the batching phase (µs).
    pub fa_ingest_us: f64,
    /// Frequency-aware: heartbeat cost — CountTree traversal + Algorithm 2
    /// (µs). This is what early release must hide.
    pub fa_heartbeat_us: f64,
    /// Post-sort: heartbeat cost — group drain + exact sort + Algorithm 2
    /// (µs).
    pub ps_heartbeat_us: f64,
}

fn tweet_batch(n_tuples: usize, cardinality: u64, seed: u64) -> Vec<Tuple> {
    let iv = Interval::new(Time::ZERO, Time::from_secs(1));
    let mut src = datasets::tweets(
        RateProfile::Constant {
            rate: n_tuples as f64,
        },
        cardinality,
        seed,
    );
    let mut out = Vec::new();
    src.fill(iv, &mut out);
    out
}

/// Measure preparation costs for a batch of roughly `n_tuples` tweets.
pub fn measure_overhead(n_tuples: usize, cardinality: u64, blocks: usize) -> OverheadSample {
    let tuples = tweet_batch(n_tuples, cardinality, 31);
    let iv = Interval::new(Time::ZERO, Time::from_secs(1));
    let next = Interval::new(Time::from_secs(1), Time::from_secs(2));
    let cfg = AccumulatorConfig {
        budget: 8,
        est_tuples: tuples.len() as f64,
        avg_keys: cardinality as f64 / 4.0,
    };

    // Frequency-aware: ingest during batching, traversal + Alg. 2 at the
    // heartbeat.
    let mut fa = FrequencyAwareAccumulator::new(cfg, iv);
    let t0 = Instant::now();
    for &t in &tuples {
        fa.ingest(t);
    }
    let fa_ingest_us = t0.elapsed().as_secs_f64() * 1e6;
    let t1 = Instant::now();
    let sealed = fa.seal(next);
    let plan = PromptPartitioner::partition_sealed(&sealed, blocks);
    let fa_heartbeat_us = t1.elapsed().as_secs_f64() * 1e6;
    assert_eq!(plan.total_tuples(), tuples.len());

    // Post-sort: plain buffering during batching, drain + sort + Alg. 2 at
    // the heartbeat.
    let mut ps = PostSortAccumulator::new(iv);
    for &t in &tuples {
        ps.ingest(t);
    }
    let t2 = Instant::now();
    let sealed = ps.seal(next);
    let plan = PromptPartitioner::partition_sealed(&sealed, blocks);
    let ps_heartbeat_us = t2.elapsed().as_secs_f64() * 1e6;
    assert_eq!(plan.total_tuples(), tuples.len());

    OverheadSample {
        n_tuples: tuples.len(),
        fa_ingest_us,
        fa_heartbeat_us,
        ps_heartbeat_us,
    }
}

/// Figure 14b: heartbeat-visible overhead as % of a 1 s batch interval.
pub fn run_overhead(quick: bool) -> Table {
    let sizes: Vec<usize> = if quick {
        vec![5_000, 20_000, 50_000]
    } else {
        vec![50_000, 100_000, 250_000, 500_000, 1_000_000]
    };
    let cardinality = if quick { 2_000 } else { 50_000 };
    let mut t = Table::new(
        "fig14b",
        "Partitioning overhead as % of a 1s batch interval",
        &[
            "batch size",
            "Alg.1 heartbeat %",
            "post-sort heartbeat %",
            "Alg.1 ingest µs/tuple",
        ],
    );
    for n in sizes {
        // Median of 3 runs to tame wall-clock noise.
        let mut samples: Vec<OverheadSample> = (0..3)
            .map(|_| measure_overhead(n, cardinality, 32))
            .collect();
        samples.sort_by(|a, b| a.fa_heartbeat_us.total_cmp(&b.fa_heartbeat_us));
        let s = samples[1];
        t.row(vec![
            s.n_tuples.to_string(),
            f3(s.fa_heartbeat_us / 1e6 * 100.0),
            f3(s.ps_heartbeat_us / 1e6 * 100.0),
            f3(s.fa_ingest_us / s.n_tuples as f64),
        ]);
    }
    t
}

/// Figure 14a: sustainable throughput of the two buffering modes once the
/// (measured) heartbeat cost is charged against the processing window,
/// minus the early-release slack.
pub fn run_throughput(quick: bool) -> Table {
    let cardinality = if quick { 2_000 } else { 50_000 };
    let (hi, iters) = if quick {
        (300_000.0, 5)
    } else {
        (2_000_000.0, 9)
    };
    let cfg = standard_config(Duration::from_secs(1));
    let slack = cfg.early_release_slack();
    let interval = cfg.batch_interval;
    let job = Job::identity("WordCount", ReduceOp::Count);
    let cluster = standard_cluster();

    let probe = |post_sort: bool, rate: f64| -> bool {
        let s = measure_overhead(rate as usize, cardinality, cfg.map_tasks);
        let heartbeat_us = if post_sort {
            s.ps_heartbeat_us
        } else {
            s.fa_heartbeat_us
        };
        let visible = Duration::from_micros(heartbeat_us as u64) - slack;
        // Build the plan and cost the stages.
        let tuples = tweet_batch(rate as usize, cardinality, 37);
        let iv = Interval::new(Time::ZERO, Time::from_secs(1));
        let mb = prompt_core::batch::MicroBatch::new(tuples, iv);
        let mut part = PromptPartitioner::new(prompt_core::partitioner::BufferingMode::PostSort);
        use prompt_core::partitioner::Partitioner;
        let plan = part.partition(&mb, cfg.map_tasks);
        let (_, times) = execute_batch(
            &plan,
            &job,
            &PromptReduceAllocator::new(1),
            cfg.reduce_tasks,
            &cfg.cost,
            &cluster,
        );
        times.processing() + visible <= interval
    };

    let mut t = Table::new(
        "fig14a",
        "Throughput: Algorithm 1 (online count tree) vs post-sort buffering (engine default)",
        &["buffering", "max rate (tuples/s)"],
    );
    for (label, post_sort) in [("Count-tree (Alg.1)", false), ("Post-sort (Prompt)", true)] {
        let rate = prompt_engine::backpressure::max_sustainable_rate(
            |r| probe(post_sort, r),
            1_000.0,
            hi,
            iters,
        );
        t.row(vec![label.to_string(), krate(rate)]);
    }
    t
}

/// Figure 14c (companion view): where a real heartbeat goes, from the trace
/// export of a driver run with measured overhead and sharded parallel
/// ingest. Unlike 14a/b, which time the accumulator in isolation, this
/// charges the measured partitioning cost against the batch and reads the
/// per-stage split back out of the JSON-lines export — the same path the
/// observability layer exposes to external consumers.
pub fn run_trace_breakdown(quick: bool) -> Table {
    use prompt_core::partitioner::Technique;
    use prompt_engine::config::OverheadMode;
    use prompt_engine::driver::StreamingEngine;
    use prompt_engine::trace::{parse_jsonl, TraceLevel};

    let (batches, rate, cardinality) = if quick {
        (30, 30_000.0, 2_000)
    } else {
        (300, 60_000.0, 50_000)
    };
    let mut cfg = standard_config(Duration::from_secs(1));
    cfg.overhead = OverheadMode::Measured;
    cfg.ingest_shards = 4;
    cfg.ingest_threads = 2;
    cfg.trace = TraceLevel::Full;
    let mut engine = StreamingEngine::new(
        cfg,
        Technique::Prompt,
        31,
        Job::identity("WordCount", ReduceOp::Count),
    );
    let mut source = datasets::tweets(RateProfile::Constant { rate }, cardinality, 31);
    let (_, rec) = engine.run_traced(&mut source, batches);
    // Round-trip through the JSON-lines export: the table is built from
    // exactly what an external consumer of the trace would see.
    let events = parse_jsonl(&rec.to_jsonl()).expect("export must round-trip");
    stage_breakdown_table(
        "fig14c",
        "Per-stage breakdown under measured overhead (from the JSONL trace export)",
        &[("prompt/measured".to_string(), events)],
    )
}

/// Run the full Figure 14 experiment.
pub fn run(quick: bool) -> Vec<Table> {
    vec![
        run_throughput(quick),
        run_overhead(quick),
        run_trace_breakdown(quick),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn heartbeat_cost_grows_with_batch_size() {
        // Median over several runs: single-shot wall-clock samples are too
        // noisy in debug builds (warm-up lands entirely on the first size).
        let med = |n: usize, f: &dyn Fn(&OverheadSample) -> f64| {
            let mut v: Vec<f64> = (0..5).map(|_| f(&measure_overhead(n, 500, 16))).collect();
            v.sort_by(|a, b| a.total_cmp(b));
            v[2]
        };
        assert!(med(40_000, &|o| o.fa_heartbeat_us) > med(2_000, &|o| o.fa_heartbeat_us) * 0.8);
        assert!(med(40_000, &|o| o.fa_ingest_us) > med(2_000, &|o| o.fa_ingest_us));
        assert_eq!(measure_overhead(40_000, 500, 16).n_tuples, 40_000);
    }

    #[test]
    fn online_heartbeat_is_cheaper_than_post_sort() {
        // Median over several runs: the FA heartbeat only traverses and
        // partitions; post-sort additionally drains + exact-sorts.
        let med = |f: &dyn Fn() -> f64| {
            let mut v: Vec<f64> = (0..5).map(|_| f()).collect();
            v.sort_by(|a, b| a.total_cmp(b));
            v[2]
        };
        let fa = med(&|| measure_overhead(50_000, 5_000, 32).fa_heartbeat_us);
        let ps = med(&|| measure_overhead(50_000, 5_000, 32).ps_heartbeat_us);
        assert!(
            fa <= ps * 1.3,
            "Alg.1 heartbeat {fa}µs should not exceed post-sort {ps}µs"
        );
    }

    #[test]
    fn trace_breakdown_reports_visible_overhead_and_stages() {
        let t = run_trace_breakdown(true);
        let stages: Vec<&str> = t.rows.iter().map(|r| r[1].as_str()).collect();
        // Under measured overhead the heartbeat-visible partitioning cost
        // shows up as its own processing span, and the wall-clock phases of
        // the sharded seal/partition pipeline ride along.
        assert!(stages.contains(&"map_stage"), "rows: {stages:?}");
        assert!(stages.contains(&"reduce_stage"));
        assert!(stages.contains(&"seal (wall)"));
        assert!(stages.contains(&"partition_materialize (wall)"));
        // Every processing-share cell parses and the shares sum to ~100%.
        let share: f64 = t
            .rows
            .iter()
            .filter(|r| r[7] != "-")
            .map(|r| r[7].parse::<f64>().unwrap())
            .sum();
        assert!((share - 100.0).abs() < 0.5, "shares sum to {share}");
    }

    #[test]
    fn overhead_stays_small_relative_to_interval() {
        // The paper's observation: ≤ 5% of the interval. Generous bound of
        // 20% here to absorb slow CI machines on debug-opt test builds, and
        // median-of-5 so a single descheduled sample can't fail the run.
        let mut v: Vec<f64> = (0..5)
            .map(|_| measure_overhead(50_000, 5_000, 32).fa_heartbeat_us)
            .collect();
        v.sort_by(|a, b| a.total_cmp(b));
        let med = v[2];
        assert!(
            med / 1e6 < 0.20,
            "median heartbeat cost {med}µs too large for a 1s interval"
        );
    }
}
