//! Figure 11 — maximum sustainable throughput:
//!
//! * **11a–c**: sinusoidal input rate (variable spikes), batch interval ∈
//!   {1 s, 2 s, 3 s}, WordCount over Tweets. The reported number per
//!   technique is the highest base rate the engine sustains before
//!   back-pressure.
//! * **11d**: skew sweep — SynD with Zipf exponent `z ∈ {0.1 … 2.0}`,
//!   3 s batches.

use prompt_core::partitioner::Technique;
use prompt_core::source::TupleSource;
use prompt_core::types::Duration;
use prompt_engine::backpressure::max_sustainable_rate;
use prompt_engine::driver::StreamingEngine;
use prompt_engine::job::{Job, ReduceOp};
use prompt_workloads::datasets;
use prompt_workloads::rate::RateProfile;

use crate::experiments::standard_config;
use crate::report::{krate, Table};

/// One throughput probe: is `base_rate` sustainable for `technique`?
fn sustainable(
    technique: Technique,
    batch_interval: Duration,
    n_batches: usize,
    mk_source: &dyn Fn(f64) -> Box<dyn TupleSource>,
    base_rate: f64,
) -> bool {
    let cfg = standard_config(batch_interval);
    let job = Job::identity("WordCount", ReduceOp::Count);
    let mut engine = StreamingEngine::new(cfg, technique, 11, job);
    let mut source = mk_source(base_rate);
    let res = engine.run(source.as_mut(), n_batches);
    res.stable() && res.steady_state_mean(|b| b.w) <= 1.0
}

/// Locate the max sustainable base rate for one technique.
pub fn probe_max_rate(
    technique: Technique,
    batch_interval: Duration,
    n_batches: usize,
    iters: usize,
    hi: f64,
    mk_source: &dyn Fn(f64) -> Box<dyn TupleSource>,
) -> f64 {
    max_sustainable_rate(
        |rate| sustainable(technique, batch_interval, n_batches, mk_source, rate),
        1_000.0,
        hi,
        iters,
    )
}

/// Run Figures 11a–c (variable rate, batch interval sweep).
pub fn run_rate_sweep(quick: bool) -> Vec<Table> {
    let (cardinality, n_batches, iters, hi) = if quick {
        (3_000u64, 4, 5, 400_000.0)
    } else {
        (50_000u64, 8, 9, 1_200_000.0)
    };
    let intervals = [1u64, 2, 3];
    let mut tables = Vec::new();
    for (idx, secs) in intervals.iter().enumerate() {
        let bi = Duration::from_secs(*secs);
        let mut t = Table::new(
            &format!("fig11{}", (b'a' + idx as u8) as char),
            &format!("Max throughput, sinusoidal rate, batch interval {secs}s (Tweets WordCount)"),
            &["technique", "max rate (tuples/s)"],
        );
        let mk = move |base: f64| -> Box<dyn TupleSource> {
            Box::new(datasets::tweets(
                RateProfile::Sinusoidal {
                    base,
                    amplitude: 0.4 * base,
                    // Period spans a few batches so the rate swings both
                    // across batches and within them.
                    period: Duration::from_secs(4 * secs),
                },
                cardinality,
                13,
            ))
        };
        for tech in Technique::EVALUATION_SET {
            let rate = probe_max_rate(tech, bi, n_batches, iters, hi, &mk);
            t.row(vec![tech.label(), krate(rate)]);
        }
        tables.push(t);
    }
    tables
}

/// Run Figure 11d (skew sweep at 3 s batches).
pub fn run_skew_sweep(quick: bool) -> Vec<Table> {
    let (cardinality, n_batches, iters, hi, zs): (u64, usize, usize, f64, Vec<f64>) = if quick {
        (3_000, 4, 5, 400_000.0, vec![0.1, 1.0, 2.0])
    } else {
        (
            100_000,
            6,
            8,
            1_200_000.0,
            vec![0.1, 0.4, 0.7, 1.0, 1.3, 1.6, 2.0],
        )
    };
    let bi = Duration::from_secs(3);
    let mut cols = vec!["technique".to_string()];
    cols.extend(zs.iter().map(|z| format!("z={z}")));
    let mut t = Table::new_owned(
        "fig11d",
        "Max throughput vs Zipf exponent (SynD, 3s batches)",
        cols,
    );
    for tech in Technique::EVALUATION_SET {
        let mut row = vec![tech.label()];
        for &z in &zs {
            let mk = move |rate: f64| -> Box<dyn TupleSource> {
                Box::new(datasets::synd(
                    RateProfile::Constant { rate },
                    cardinality,
                    z,
                    17,
                ))
            };
            let rate = probe_max_rate(tech, bi, n_batches, iters, hi, &mk);
            row.push(krate(rate));
        }
        t.row(row);
    }
    vec![t]
}

/// Run the full Figure 11 experiment.
pub fn run(quick: bool) -> Vec<Table> {
    let mut tables = run_rate_sweep(quick);
    tables.extend(run_skew_sweep(quick));
    tables
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    fn parse_krate(s: &str) -> f64 {
        s.trim_end_matches('k').parse::<f64>().unwrap() * 1000.0
    }

    /// The quick rate sweep, computed once per test process.
    fn quick_rate_sweep() -> &'static [Table] {
        static TABLES: OnceLock<Vec<Table>> = OnceLock::new();
        TABLES.get_or_init(|| run_rate_sweep(true))
    }

    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "back-pressure searches: run with --release"
    )]
    fn prompt_beats_time_based_and_hash_under_variable_rate() {
        let tables = quick_rate_sweep();
        assert_eq!(tables.len(), 3);
        for t in tables {
            let rate_of =
                |label: &str| parse_krate(&t.rows.iter().find(|r| r[0] == label).unwrap()[1]);
            let prompt = rate_of("Prompt");
            assert!(
                prompt >= rate_of("Time-based"),
                "{}: Prompt {prompt} vs Time-based {}",
                t.id,
                rate_of("Time-based")
            );
            assert!(prompt >= rate_of("Hash"), "{}: vs hash", t.id);
        }
    }

    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "back-pressure searches: run with --release"
    )]
    fn larger_batch_interval_helps_every_technique() {
        let tables = quick_rate_sweep();
        // Fixed task-launch overheads amortise over longer intervals, so
        // throughput should not degrade from 1 s to 3 s (paper: "all the
        // techniques perform better when increasing the batch interval").
        let rate = |t: &Table, label: &str| {
            parse_krate(&t.rows.iter().find(|r| r[0] == label).unwrap()[1])
        };
        for label in ["Prompt", "Shuffle"] {
            let r1 = rate(&tables[0], label);
            let r3 = rate(&tables[2], label);
            assert!(
                r3 >= r1 * 0.8,
                "{label}: 3s rate {r3} should not collapse vs 1s rate {r1}"
            );
        }
    }

    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "back-pressure searches: run with --release"
    )]
    fn skew_hurts_hash_more_than_prompt() {
        let tables = run_skew_sweep(true);
        let t = &tables[0];
        let row = |label: &str| {
            t.rows
                .iter()
                .find(|r| r[0] == label)
                .unwrap()
                .iter()
                .skip(1)
                .map(|s| parse_krate(s))
                .collect::<Vec<f64>>()
        };
        let prompt = row("Prompt");
        let hash = row("Hash");
        // At the highest skew (last column) Prompt sustains more than hash.
        assert!(
            prompt.last().unwrap() >= hash.last().unwrap(),
            "prompt {prompt:?} vs hash {hash:?}"
        );
    }
}
