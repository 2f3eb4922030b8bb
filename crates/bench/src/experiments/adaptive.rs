//! Adaptive policy vs every fixed technique on a drifting workload.
//!
//! Runs a phase-drifting stream — a dense near-uniform prefix, then a hot
//! key ramping up to 40% of the batch mass — through the real engine once
//! per strategy: the adaptive per-batch policy against each fixed
//! technique of the evaluation set. The per-strategy score is the mean
//! simulated batch cost in milliseconds: the cost-model processing
//! makespan (which charges imbalanced blocks at the Map stage and split
//! keys at the Reduce merge) plus the technique's modelled per-tuple
//! selection work ([`technique_overhead`] × tuples × the scaled per-tuple
//! Map cost). A fixed technique pays its weakness on one phase or the
//! other — hashing's hot block dominates the skewed tail, Prompt's
//! accumulator and fragment merges tax the uniform prefix — while the
//! adaptive policy hot-swaps at the boundary and pays neither.
//!
//! The run is virtual-time deterministic, so `results/BENCH_adaptive.json`
//! is an exact baseline: the CI gate re-runs the experiment and diffs each
//! strategy's score against the checked-in file with a relative tolerance
//! band that only absorbs intentional re-baselines.

use std::collections::BTreeSet;

use prompt_core::partitioner::Technique;
use prompt_core::types::{Duration, Interval, Key, Time, Tuple};
use prompt_engine::driver::{RunResult, StreamingEngine};
use prompt_engine::job::{Job, ReduceOp};
use prompt_engine::policy::{technique_overhead, AdaptiveConfig, PolicySpec};

use crate::report::{f3, Table};

/// Batches per run: eight dense-uniform batches, then the hot-key share
/// ramps 10% → 40% over the last four.
pub const BATCHES: usize = 12;

/// Tuples per one-second batch.
pub const RATE: u64 = 2500;

/// Engine seed shared by every strategy (identical input streams — the
/// source itself is deterministic in stream time).
pub const SEED: u64 = 0xADA97;

/// The drifting stream every strategy is measured on: a dense uniform
/// prefix (`RATE` tuples spread over ~800 keys, where hashing is
/// near-balanced and its selection work is cheapest), then a hot key that
/// ramps from 10% to 40% of the batch mass (where hashing's hot block
/// dominates the Map makespan and Prompt's balanced fragments win).
pub fn drift_source() -> impl FnMut(Interval, &mut Vec<Tuple>) {
    move |iv: Interval, out: &mut Vec<Tuple>| {
        let sec = iv.start.0 / 1_000_000;
        let step = iv.len().0 / (RATE + 1);
        for i in 0..RATE {
            let key = if sec < 8 {
                (i * 7 + sec * 13) % 797
            } else {
                let hot_pct = ((sec - 7) * 10).min(40);
                if i % 100 < hot_pct {
                    0
                } else {
                    1 + (i * 11 + sec) % 613
                }
            };
            out.push(Tuple::keyed(Time(iv.start.0 + step * (i + 1)), Key(key)));
        }
    }
}

/// One measured strategy row.
#[derive(Clone, Debug)]
pub struct StrategyRow {
    /// Display name (`Adaptive` or the fixed technique label).
    pub name: String,
    /// Mean cost-model processing makespan per batch, ms.
    pub mean_proc_ms: f64,
    /// Mean modelled selection cost per batch, ms.
    pub mean_select_ms: f64,
    /// The score being minimised: `mean_proc_ms + mean_select_ms`.
    pub score_ms: f64,
    /// Mean plan MPI over the run's batches (context column).
    pub mean_mpi: f64,
    /// Technique switches (0 for fixed strategies).
    pub switches: usize,
    /// Distinct techniques used, `+`-joined in first-use order.
    pub techniques: String,
}

fn run_strategy(policy: PolicySpec, technique: Technique, name: &str) -> StrategyRow {
    let mut cfg = super::standard_config(Duration::from_secs(1));
    cfg.policy = policy;
    // Selection work is modelled, not wall-clocked, to keep the score
    // deterministic: `technique_overhead` is a fraction of the per-tuple
    // Map cost, so a batch's selection cost scales with its volume.
    let per_tuple_ms = cfg.cost.map_per_tuple.0 as f64 / 1e3;
    let mut engine = StreamingEngine::new(
        cfg,
        technique,
        SEED,
        Job::identity("count", ReduceOp::Count),
    );
    let mut source = drift_source();
    let result: RunResult = engine.run(&mut source, BATCHES);

    let n = result.batches.len().max(1) as f64;
    let mut proc_ms = 0.0;
    let mut select_ms = 0.0;
    let mut mpi = 0.0;
    let mut used: Vec<Technique> = Vec::new();
    for b in &result.batches {
        let t = b.technique;
        proc_ms += b.processing.0 as f64 / 1e3;
        select_ms += technique_overhead(t) * b.n_tuples as f64 * per_tuple_ms;
        mpi += b.plan_metrics.mpi;
        if !used.contains(&t) {
            used.push(t);
        }
    }
    let switches = result
        .policy_decisions
        .iter()
        .filter(|d| d.switched)
        .count();
    StrategyRow {
        name: name.to_string(),
        mean_proc_ms: proc_ms / n,
        mean_select_ms: select_ms / n,
        score_ms: (proc_ms + select_ms) / n,
        mean_mpi: mpi / n,
        switches,
        techniques: used
            .iter()
            .map(Technique::label)
            .collect::<Vec<_>>()
            .join("+"),
    }
}

/// Measure the adaptive policy against every fixed technique, sorted by
/// score ascending (rank 1 = cheapest).
pub fn measure() -> Vec<StrategyRow> {
    // The sketch is sized past the prefix's ~800 distinct keys: a saturated
    // SpaceSaving sketch overestimates the top key's share, which reads as
    // phantom skew and makes the policy flap on a genuinely uniform phase.
    let adaptive = AdaptiveConfig {
        sketch_counters: 1024,
        ..AdaptiveConfig::default()
    };
    let mut rows = vec![run_strategy(
        PolicySpec::Adaptive(adaptive),
        Technique::Hash,
        "Adaptive",
    )];
    for t in Technique::EVALUATION_SET {
        rows.push(run_strategy(PolicySpec::default(), t, &t.label()));
    }
    rows.sort_by(|a, b| a.score_ms.total_cmp(&b.score_ms));
    rows
}

/// Run the adaptive-vs-fixed experiment. The workload is already CI-sized
/// (20k tuples per strategy), so quick and full mode measure identically —
/// which keeps the checked-in baseline valid for both.
pub fn run(_quick: bool) -> Vec<Table> {
    let rows = measure();
    let mut t = Table::new(
        "BENCH_adaptive",
        "Adaptive policy vs fixed techniques — uniform-to-skew drift, score = batch cost + selection (ms)",
        &[
            "rank",
            "strategy",
            "proc ms",
            "select ms",
            "score ms",
            "mean mpi",
            "switches",
            "techniques",
        ],
    );
    for (i, r) in rows.iter().enumerate() {
        t.row(vec![
            (i + 1).to_string(),
            r.name.clone(),
            f3(r.mean_proc_ms),
            f3(r.mean_select_ms),
            f3(r.score_ms),
            f3(r.mean_mpi),
            r.switches.to_string(),
            r.techniques.clone(),
        ]);
    }
    vec![t]
}

/// Diff a fresh measurement against the checked-in `BENCH_adaptive.json`
/// baseline: every strategy's score must stay within `tolerance`
/// (relative), adaptive must still rank first, and its run must still use
/// at least two distinct techniques. Returns the regression messages.
pub fn check_against_baseline(baseline_json: &str, tolerance: f64) -> Vec<String> {
    let mut problems = Vec::new();
    let baseline = match parse_scores(baseline_json) {
        Ok(b) => b,
        Err(e) => return vec![format!("baseline unreadable: {e}")],
    };
    let fresh = measure();
    if fresh[0].name != "Adaptive" {
        problems.push(format!(
            "adaptive lost rank 1 to {} ({:.3} vs {:.3})",
            fresh[0].name, fresh[0].score_ms, fresh[1].score_ms
        ));
    }
    let adaptive = fresh.iter().find(|r| r.name == "Adaptive").unwrap();
    let distinct: BTreeSet<&str> = adaptive.techniques.split('+').collect();
    if distinct.len() < 2 {
        problems.push(format!(
            "adaptive run no longer multi-technique (used only {})",
            adaptive.techniques
        ));
    }
    for r in &fresh {
        let Some(&base) = baseline.iter().find(|(n, _)| *n == r.name).map(|(_, s)| s) else {
            problems.push(format!("strategy {} missing from baseline", r.name));
            continue;
        };
        let band = base.abs().max(1e-9) * tolerance;
        if (r.score_ms - base).abs() > band {
            problems.push(format!(
                "{}: score {:.3} outside {:.3} ± {:.3}",
                r.name, r.score_ms, base, band
            ));
        }
    }
    problems
}

/// Parse `(strategy, score)` pairs back out of the table JSON written by
/// [`Table::to_json`]. Row cells carry no escapes, so splitting on the
/// quoted-cell delimiter is exact.
fn parse_scores(json: &str) -> Result<Vec<(String, f64)>, String> {
    let mut out = Vec::new();
    for line in json.lines() {
        let line = line.trim();
        if !line.starts_with('[') {
            continue;
        }
        let cells: Vec<&str> = line
            .trim_start_matches('[')
            .trim_end_matches(',')
            .trim_end_matches(']')
            .split("\", \"")
            .map(|c| c.trim_matches(|ch| ch == '"' || ch == ' '))
            .collect();
        // rank, strategy, proc, select, score, mpi, switches, techniques
        if cells.len() == 8 && cells[0].parse::<usize>().is_ok() {
            let score: f64 = cells[4]
                .parse()
                .map_err(|e| format!("bad score in row {line:?}: {e}"))?;
            out.push((cells[1].to_string(), score));
        }
    }
    if out.is_empty() {
        return Err("no strategy rows found".into());
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adaptive_beats_every_fixed_strategy_on_drift() {
        let rows = measure();
        assert_eq!(rows[0].name, "Adaptive", "ranking: {rows:#?}");
        let adaptive = &rows[0];
        for r in &rows[1..] {
            assert!(
                adaptive.score_ms < r.score_ms,
                "adaptive {:.4} !< {} {:.4}",
                adaptive.score_ms,
                r.name,
                r.score_ms
            );
        }
        // The drift run must actually exercise the hot-swap: at least two
        // distinct techniques and at least one switch.
        assert!(
            adaptive.techniques.contains('+'),
            "single technique: {}",
            adaptive.techniques
        );
        assert!(adaptive.switches >= 1);
        // Fixed strategies never switch and never change technique.
        for r in &rows[1..] {
            assert_eq!(r.switches, 0, "{}", r.name);
            assert!(!r.techniques.contains('+'), "{}", r.name);
        }
    }

    #[test]
    fn checked_in_baseline_is_within_tolerance() {
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../results/BENCH_adaptive.json"
        );
        let json = std::fs::read_to_string(path).expect("results/BENCH_adaptive.json checked in");
        let problems = check_against_baseline(&json, 0.10);
        assert!(problems.is_empty(), "regressions: {problems:#?}");
    }

    #[test]
    fn score_parser_roundtrips_the_emitted_table() {
        let tables = run(true);
        let scores = parse_scores(&tables[0].to_json()).unwrap();
        assert_eq!(scores.len(), 1 + Technique::EVALUATION_SET.len());
        assert!(scores.iter().any(|(n, _)| n == "Adaptive"));
        assert!(scores.iter().all(|(_, s)| s.is_finite() && *s >= 0.0));
    }
}
