//! Ablations of the design choices DESIGN.md calls out — beyond the paper's
//! own figures:
//!
//! * **A1 — update budget** (Algorithm 1): how the per-key `CountTree`
//!   budget trades tree-update work against quasi-sort quality and final
//!   plan quality.
//! * **A2 — residual capacity tolerance** (Algorithm 2, DESIGN.md §4b):
//!   the BSI-vs-BCI trade of letting the residual phase overfill blocks.
//! * **A3 — candidates per key**: the `d` sweep for PK-d / cAM / D-Choices
//!   (the paper tunes cAM's candidate count per workload; §7).
//! * **A4 — batch resizing vs better partitioning**: the §1 argument that
//!   resizing restores stability only by surrendering latency, while Prompt
//!   holds the interval.

use prompt_core::batch::MicroBatch;
use prompt_core::buffering::{AccumulatorConfig, BatchAccumulator, FrequencyAwareAccumulator};
use prompt_core::metrics::PlanMetrics;
use prompt_core::partitioner::{PromptPartitioner, Technique};
use prompt_core::source::TupleSource;
use prompt_core::types::{Duration, Interval, Time};
use prompt_engine::driver::StreamingEngine;
use prompt_engine::job::{Job, ReduceOp};
use prompt_workloads::datasets;
use prompt_workloads::rate::RateProfile;

use crate::batch_resize::{run_with_resizing, BatchSizeController};
use crate::experiments::standard_config;
use crate::report::{f1, f3, Table};

fn tweet_batch(rate: f64, cardinality: u64, seed: u64) -> MicroBatch {
    let iv = Interval::new(Time::ZERO, Time::from_secs(1));
    let mut src = datasets::tweets(RateProfile::Constant { rate }, cardinality, seed);
    let mut tuples = Vec::new();
    src.fill(iv, &mut tuples);
    MicroBatch::new(tuples, iv)
}

/// A1: Algorithm 1's per-key update budget.
pub fn budget_sweep(quick: bool) -> Table {
    let (rate, cardinality) = if quick {
        (20_000.0, 2_000)
    } else {
        (200_000.0, 50_000)
    };
    let batch = tweet_batch(rate, cardinality, 41);
    let mut t = Table::new(
        "ablation_budget",
        "Alg.1 update budget: tree work vs sort quality vs plan quality",
        &["budget", "tree updates", "adjacent inversions", "plan MPI"],
    );
    for budget in [1u32, 2, 4, 8, 16, 32] {
        let iv = batch.interval;
        let mut acc = FrequencyAwareAccumulator::new(
            AccumulatorConfig {
                budget,
                est_tuples: batch.len() as f64,
                avg_keys: cardinality as f64 / 4.0,
            },
            iv,
        );
        for &tuple in &batch.tuples {
            acc.ingest(tuple);
        }
        let updates = acc.stats().tree_updates;
        let sealed = acc.seal(iv);
        let inversions = sealed.adjacent_inversions();
        let plan = PromptPartitioner::partition_sealed(&sealed, 32);
        t.row(vec![
            budget.to_string(),
            updates.to_string(),
            inversions.to_string(),
            f3(PlanMetrics::of(&plan).mpi),
        ]);
    }
    t
}

/// A2: the residual capacity tolerance of Algorithm 2 (DESIGN.md §4b).
pub fn tolerance_sweep(quick: bool) -> Table {
    let (rate, cardinality) = if quick {
        (20_000.0, 2_000)
    } else {
        (200_000.0, 50_000)
    };
    let batch = tweet_batch(rate, cardinality, 43);
    // Seal once with an exact sort, isolating the partitioner ablation from
    // quasi-sort noise.
    let mut acc = prompt_core::buffering::PostSortAccumulator::new(batch.interval);
    for &tuple in &batch.tuples {
        acc.ingest(tuple);
    }
    let sealed = acc.seal(batch.interval);
    let mut t = Table::new(
        "ablation_tolerance",
        "Alg.2 residual capacity tolerance: BSI vs BCI trade",
        &["tolerance", "BSI", "BCI", "KSR"],
    );
    for tolerance in [0.0, 1.0 / 128.0, 1.0 / 64.0, 1.0 / 16.0, 1.0 / 8.0] {
        let plan = PromptPartitioner::partition_sealed_with(&sealed, 32, tolerance);
        let m = PlanMetrics::of(&plan);
        t.row(vec![
            format!("{tolerance:.4}"),
            f1(m.bsi),
            f1(m.bci),
            f3(m.ksr),
        ]);
    }
    t
}

/// A3: candidates-per-key sweep for the d-choice families.
pub fn candidates_sweep(quick: bool) -> Table {
    let (rate, cardinality) = if quick {
        (20_000.0, 2_000)
    } else {
        (200_000.0, 50_000)
    };
    let batch = tweet_batch(rate, cardinality, 47);
    let mut t = Table::new(
        "ablation_candidates",
        "Candidates per key (d): MPI by technique",
        &["d", "PK-d", "cAM(d)", "D-Choices(d)"],
    );
    for d in [2usize, 3, 4, 5, 6, 8] {
        let mpi = |tech: Technique| {
            let plan = tech.build(7).partition(&batch, 32);
            f3(PlanMetrics::of(&plan).mpi)
        };
        t.row(vec![
            d.to_string(),
            mpi(Technique::Pkg(d)),
            mpi(Technique::Cam(d)),
            mpi(Technique::DChoices(d)),
        ]);
    }
    t
}

/// A4: adaptive batch resizing (time-based partitioning) versus Prompt at a
/// fixed interval, at a load the fixed-interval time-based engine cannot
/// sustain.
pub fn batch_resize_comparison(quick: bool) -> Table {
    let (rate, cardinality, batches) = if quick {
        (45_000.0, 3_000u64, 24)
    } else {
        (45_000.0, 20_000, 60)
    };
    // A cost regime where resizing *can* work: substantial fixed task costs
    // (which longer intervals amortise) on top of linear per-tuple costs.
    // Prompt fits the load into 1 s batches; time-based partitioning
    // doesn't (straggler blocks under the sinusoid + split-key merges), and
    // only recovers stability by growing the interval.
    let mut cfg = standard_config(Duration::from_secs(1));
    cfg.cost = prompt_engine::cost::CostModel {
        map_fixed: Duration::from_millis(175),
        map_per_tuple: Duration::from_micros(60),
        map_per_key: Duration::from_micros(8),
        reduce_fixed: Duration::from_millis(175),
        reduce_per_tuple: Duration::from_micros(60),
        reduce_per_key: Duration::from_micros(8),
        merge_per_fragment: Duration::from_micros(12),
    };
    let job = Job::identity("WordCount", ReduceOp::Count);
    let profile = RateProfile::Sinusoidal {
        base: rate,
        amplitude: 0.4 * rate,
        period: Duration::from_secs(4),
    };
    let mut t = Table::new(
        "ablation_batch_resize",
        "Stabilising by resizing vs by partitioning (same workload)",
        &[
            "configuration",
            "stable",
            "final interval s",
            "steady latency s",
        ],
    );

    // (a) Time-based partitioning, fixed 1 s interval: overloads.
    let mut eng = StreamingEngine::new(cfg.clone(), Technique::TimeBased, 3, job.clone());
    let mut src = datasets::tweets(profile, cardinality, 3);
    let res = eng.run(&mut src, batches);
    t.row(vec![
        "Time-based, fixed 1s".into(),
        res.stable().to_string(),
        "1.0".into(),
        f3(res.steady_state_mean(|b| b.latency.as_secs_f64())),
    ]);

    // (b) Time-based partitioning + adaptive batch resizing: stabilises by
    // growing the interval (latency follows it up).
    let mut controller =
        BatchSizeController::new(Duration::from_millis(250), Duration::from_secs(20), 0.9);
    let mut src = datasets::tweets(profile, cardinality, 3);
    let res = run_with_resizing(
        &cfg,
        Technique::TimeBased,
        3,
        &job,
        &mut src,
        batches,
        &mut controller,
    );
    let final_interval = res
        .batches
        .last()
        .map(|b| b.interval.as_secs_f64())
        .unwrap_or(0.0);
    t.row(vec![
        "Time-based + resizing".into(),
        res.stable().to_string(),
        f3(final_interval),
        f3(res.steady_state_latency()),
    ]);

    // (c) Prompt, fixed 1 s interval: stabilises by partitioning better,
    // keeping the latency bound.
    let mut eng = StreamingEngine::new(cfg, Technique::Prompt, 3, job);
    let mut src = datasets::tweets(profile, cardinality, 3);
    let res = eng.run(&mut src, batches);
    t.row(vec![
        "Prompt, fixed 1s".into(),
        res.stable().to_string(),
        "1.0".into(),
        f3(res.steady_state_mean(|b| b.latency.as_secs_f64())),
    ]);
    t
}

/// Run all ablations.
pub fn run(quick: bool) -> Vec<Table> {
    vec![
        budget_sweep(quick),
        tolerance_sweep(quick),
        candidates_sweep(quick),
        batch_resize_comparison(quick),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn col_f(t: &Table, row: usize, col: usize) -> f64 {
        t.rows[row][col].parse().unwrap()
    }

    #[test]
    fn budget_monotonics() {
        let t = budget_sweep(true);
        assert_eq!(t.rows.len(), 6);
        // More budget → more tree updates, fewer (or equal) inversions.
        let updates: Vec<f64> = (0..t.rows.len()).map(|r| col_f(&t, r, 1)).collect();
        assert!(updates.windows(2).all(|w| w[1] >= w[0]), "{updates:?}");
        let inv_first = col_f(&t, 0, 2);
        let inv_last = col_f(&t, 5, 2);
        assert!(
            inv_last <= inv_first,
            "budget 32 should sort better than budget 1: {inv_first} → {inv_last}"
        );
    }

    #[test]
    fn tolerance_trades_bsi_for_bci() {
        let t = tolerance_sweep(true);
        // BSI grows with tolerance, BCI shrinks (or stays).
        let bsi_zero = col_f(&t, 0, 1);
        let bsi_max = col_f(&t, t.rows.len() - 1, 1);
        let bci_zero = col_f(&t, 0, 2);
        let bci_max = col_f(&t, t.rows.len() - 1, 2);
        assert!(
            bsi_max >= bsi_zero,
            "BSI should grow: {bsi_zero} → {bsi_max}"
        );
        assert!(
            bci_max <= bci_zero,
            "BCI should fall: {bci_zero} → {bci_max}"
        );
    }

    #[test]
    fn resizing_stabilises_at_a_latency_cost() {
        let t = batch_resize_comparison(true);
        assert_eq!(t.rows.len(), 3);
        let stable = |r: usize| t.rows[r][1] == "true";
        let latency = |r: usize| -> f64 { t.rows[r][3].parse().unwrap() };
        // Time-based fixed: unstable. Resizing: stable but slower than
        // Prompt. Prompt: stable at the original interval.
        assert!(!stable(0), "premise: time-based overloads at this rate");
        assert!(stable(1), "resizing must restore stability");
        assert!(stable(2), "Prompt must hold the fixed interval");
        assert!(
            latency(1) > latency(2),
            "resizing latency {} should exceed Prompt {}",
            latency(1),
            latency(2)
        );
    }

    #[test]
    fn candidate_sweep_has_all_rows() {
        let t = candidates_sweep(true);
        assert_eq!(t.rows.len(), 6);
        for row in &t.rows {
            for cell in &row[1..] {
                let v: f64 = cell.parse().unwrap();
                assert!(v.is_finite() && v >= 0.0);
            }
        }
    }
}
