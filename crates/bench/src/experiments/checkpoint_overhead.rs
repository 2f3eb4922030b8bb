//! Checkpoint overhead and recovery payoff.
//!
//! Two tables on the common WordCount workload:
//!
//! * `checkpoint_overhead` — the cost side: running with checkpointing off
//!   vs committing every batch vs every fourth batch. Reports wall time,
//!   commit/snapshot counts, bytes written, and the high-water mark of
//!   batches kept for a scheduled store loss (zero here: this table
//!   schedules none).
//! * `checkpoint_recovery` — the payoff side: the same scheduled loss of
//!   the whole keyed state store, recovered by recompute-from-scratch
//!   (no checkpoint) vs checkpoint-restore plus suffix recompute. Reports
//!   batches recomputed, restore bytes, and wall time; window outputs must
//!   stay bit-identical to an undisturbed run in every row.
//!
//! Checkpoint files land in a per-run temp directory that is removed
//! afterwards; only the measurements persist.

use std::time::Instant;

use prompt_core::partitioner::Technique;
use prompt_core::types::Duration;
use prompt_engine::driver::{RunResult, StreamingEngine};
use prompt_engine::job::{Job, ReduceOp};
use prompt_engine::recovery::FaultPlan;
use prompt_engine::state::CheckpointConfig;
use prompt_engine::window::WindowSpec;
use prompt_workloads::datasets;
use prompt_workloads::rate::RateProfile;

use crate::experiments::standard_config;
use crate::report::{f3, Table};

/// One configuration's run.
struct CkptRun {
    label: String,
    result: RunResult,
    wall_ms: f64,
}

/// A fresh, collision-free checkpoint directory under the system temp dir.
fn temp_ckpt_dir(tag: &str) -> std::path::PathBuf {
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .unwrap()
        .subsec_nanos();
    std::env::temp_dir().join(format!("prompt-bench-{tag}-{}-{nanos}", std::process::id()))
}

#[allow(clippy::too_many_arguments)]
fn run_one(
    label: &str,
    interval: Option<usize>,
    plan: FaultPlan,
    window_secs: u64,
    batches: usize,
    rate: f64,
    cardinality: u64,
    dir: &std::path::Path,
) -> CkptRun {
    let mut cfg = standard_config(Duration::from_secs(1));
    cfg.checkpoint = interval.map(|i| CheckpointConfig::new(dir).interval(i));
    let mut engine = StreamingEngine::new(
        cfg,
        Technique::Prompt,
        17,
        Job::identity("WordCount", ReduceOp::Count),
    )
    .with_window(WindowSpec::sliding(
        Duration::from_secs(window_secs),
        Duration::from_secs(1),
    ))
    .with_stateful(prompt_engine::state::StatefulOp::SessionCount)
    .with_fault_tolerance(2, plan);
    let mut source = datasets::tweets(RateProfile::Constant { rate }, cardinality, 17);
    let t0 = Instant::now();
    let result = engine.run(&mut source, batches);
    CkptRun {
        label: label.to_string(),
        result,
        wall_ms: t0.elapsed().as_secs_f64() * 1e3,
    }
}

/// Whether two runs emitted bit-identical window aggregates.
fn outputs_identical(a: &RunResult, b: &RunResult) -> bool {
    a.windows.len() == b.windows.len()
        && a.windows
            .iter()
            .zip(&b.windows)
            .all(|(x, y)| x.aggregates == y.aggregates)
}

fn mib(bytes: u64) -> String {
    f3(bytes as f64 / (1 << 20) as f64)
}

/// Run the checkpoint overhead + recovery experiment.
pub fn run(quick: bool) -> Vec<Table> {
    let (batches, rate, cardinality) = if quick {
        (8, 10_000.0, 2_000)
    } else {
        (30, 40_000.0, 20_000)
    };
    // The window spans the whole run so recompute-from-scratch recovery
    // stays feasible (nothing expires) — the worst case the checkpoint is
    // up against.
    let window_secs = batches as u64;
    let loss_at = (batches - 2) as u64;

    // --- Cost side: no faults, vary the commit interval. ---
    let configs: [(&str, Option<usize>); 3] = [
        ("off", None),
        ("interval 1", Some(1)),
        ("interval 4", Some(4)),
    ];
    let runs: Vec<CkptRun> = configs
        .iter()
        .map(|(label, interval)| {
            let dir = temp_ckpt_dir("overhead");
            let r = run_one(
                label,
                *interval,
                FaultPlan::none(),
                window_secs,
                batches,
                rate,
                cardinality,
                &dir,
            );
            let _ = std::fs::remove_dir_all(&dir);
            r
        })
        .collect();

    let baseline = &runs[0];
    let mut cost = Table::new(
        "checkpoint_overhead",
        "Incremental checkpointing cost on the common WordCount workload",
        &[
            "checkpoint",
            "wall ms",
            "wall ms / batch",
            "commits",
            "snapshots",
            "ckpt MiB",
            "snapshot MiB",
            "max retained batches",
            "identical to off",
        ],
    );
    for r in &runs {
        let s = r.result.state.expect("state layer on");
        cost.row(vec![
            r.label.clone(),
            f3(r.wall_ms),
            f3(r.wall_ms / batches as f64),
            s.checkpoints.to_string(),
            s.snapshots.to_string(),
            mib(s.checkpoint_bytes),
            mib(s.snapshot_bytes),
            s.max_retained_batches.to_string(),
            if outputs_identical(&baseline.result, &r.result) {
                "yes".into()
            } else {
                "NO".into()
            },
        ]);
    }

    // --- Payoff side: lose the whole state store near the end of the run.
    let plan = || FaultPlan::none().lose_store_at(loss_at);
    let recovery_runs: Vec<CkptRun> = configs
        .iter()
        .map(|(label, interval)| {
            let dir = temp_ckpt_dir("recovery");
            let label = match interval {
                None => "recompute only".to_string(),
                Some(_) => format!("restore, {label}"),
            };
            let r = run_one(
                &label,
                *interval,
                plan(),
                window_secs,
                batches,
                rate,
                cardinality,
                &dir,
            );
            let _ = std::fs::remove_dir_all(&dir);
            r
        })
        .collect();

    let mut recovery = Table::new(
        "checkpoint_recovery",
        "State-loss recovery: checkpoint restore vs recompute-from-scratch",
        &[
            "recovery",
            "wall ms",
            "restores",
            "recomputed batches",
            "identical to undisturbed",
        ],
    );
    for r in &recovery_runs {
        let s = r.result.state.expect("state layer on");
        recovery.row(vec![
            r.label.clone(),
            f3(r.wall_ms),
            s.restores.to_string(),
            s.recomputed_batches.to_string(),
            if outputs_identical(&baseline.result, &r.result) {
                "yes".into()
            } else {
                "NO".into()
            },
        ]);
    }

    vec![cost, recovery]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_tables_report_cost_and_payoff() {
        let tables = run(true);
        assert_eq!(tables.len(), 2);
        let cost = &tables[0];
        assert_eq!(cost.rows.len(), 3);
        // Checkpointing off writes nothing; on writes something.
        assert_eq!(cost.rows[0][3], "0");
        assert_ne!(cost.rows[1][3], "0");
        // Every configuration reproduced the baseline bit-for-bit.
        for row in &cost.rows {
            assert_eq!(row[8], "yes", "{} diverged", row[0]);
        }
        // Interval 1 commits more often than interval 4.
        let commits = |row: &Vec<String>| row[3].parse::<u64>().unwrap();
        assert!(commits(&cost.rows[1]) > commits(&cost.rows[2]));

        let recovery = &tables[1];
        assert_eq!(recovery.rows.len(), 3);
        let recomputed = |row: &Vec<String>| row[3].parse::<u64>().unwrap();
        // Recompute-only rebuilds the whole prefix; checkpoint restore
        // recomputes strictly fewer batches.
        assert!(recomputed(&recovery.rows[0]) > recomputed(&recovery.rows[1]));
        assert!(recomputed(&recovery.rows[0]) > recomputed(&recovery.rows[2]));
        // And every recovery leaves the answers untouched.
        for row in &recovery.rows {
            assert_eq!(row[4], "yes", "{} diverged", row[0]);
        }
    }
}
