//! Net overhead — what the real distributed runtime costs on top of the
//! in-process engine.
//!
//! Runs the same workload through every execution backend and reports
//! wall-clock time plus the driver-side wire totals of the TCP runtime.
//! Because all backends are bit-identical by construction (the differential
//! suite enforces it), the *only* thing that varies is where the work runs —
//! the table isolates serialization + socket cost.
//!
//! The distributed rows use spawned `prompt-worker` processes when the
//! binary is resolvable (`PROMPT_WORKER_BIN`, or next to the current
//! executable); otherwise the runtime falls back to in-process worker
//! threads that still speak the full TCP protocol over loopback, so the
//! wire-cost numbers remain meaningful either way.

use std::time::Instant;

use prompt_core::partitioner::Technique;
use prompt_core::types::Duration;
use prompt_engine::config::Backend;
use prompt_engine::driver::{RunResult, StreamingEngine};
use prompt_engine::job::{Job, ReduceOp};
use prompt_engine::window::WindowSpec;
use prompt_workloads::datasets;
use prompt_workloads::rate::RateProfile;

use crate::experiments::standard_config;
use crate::report::{f3, Table};

/// One backend's run over the common workload.
struct BackendRun {
    label: String,
    result: RunResult,
    wall_ms: f64,
}

fn run_backend(
    label: &str,
    backend: Backend,
    depth: usize,
    batches: usize,
    rate: f64,
    cardinality: u64,
) -> BackendRun {
    let mut cfg = standard_config(Duration::from_secs(1));
    cfg.backend = backend;
    cfg.pipeline_depth = depth;
    let mut engine = StreamingEngine::new(
        cfg,
        Technique::Prompt,
        17,
        Job::identity("WordCount", ReduceOp::Count),
    )
    .with_window(WindowSpec::tumbling(Duration::from_secs(2)));
    let mut source = datasets::tweets(RateProfile::Constant { rate }, cardinality, 17);
    let t0 = Instant::now();
    let result = engine.run(&mut source, batches);
    BackendRun {
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

/// Run the backend comparison.
pub fn run(quick: bool) -> Vec<Table> {
    let (batches, rate, cardinality) = if quick {
        (6, 20_000.0, 2_000)
    } else {
        (30, 60_000.0, 20_000)
    };

    // The depth2 rows re-run the distributed scenarios with the driver's
    // in-flight window at 2: batch N+1's partition + Map dispatch overlap
    // batch N's shuffle/reduce. Outputs stay bit-identical (same `identical
    // to serial` gate); only the wall clock moves.
    let runs: Vec<BackendRun> = [
        ("in-process", Backend::InProcess, 1),
        ("threaded x4", Backend::Threaded { threads: 4 }, 1),
        (
            "distributed x2",
            Backend::Distributed {
                workers: 2,
                base_port: 0,
            },
            1,
        ),
        (
            "distributed x2 depth2",
            Backend::Distributed {
                workers: 2,
                base_port: 0,
            },
            2,
        ),
        (
            "distributed x4",
            Backend::Distributed {
                workers: 4,
                base_port: 0,
            },
            1,
        ),
        (
            "distributed x4 depth2",
            Backend::Distributed {
                workers: 4,
                base_port: 0,
            },
            2,
        ),
    ]
    .into_iter()
    .map(|(label, backend, depth)| run_backend(label, backend, depth, batches, rate, cardinality))
    .collect();

    let serial = &runs[0];
    let mut t = Table::new(
        "net_overhead",
        "Execution-backend overhead on the common WordCount workload",
        &[
            "backend",
            "wall ms",
            "wall ms / batch",
            "ctrl MiB sent",
            "shuffle KiB wire",
            "conns dialed",
            "conns reused",
            "fetch wait ms",
            "frames",
            "worker losses",
            "identical to serial",
        ],
    );
    let mib = |b: u64| f3(b as f64 / (1 << 20) as f64);
    let kib = |b: u64| f3(b as f64 / (1 << 10) as f64);
    for r in &runs {
        let cols = match r.result.net {
            Some(n) => [
                mib(n.bytes_sent),
                kib(n.shuffle_bytes_wire),
                n.shuffle_conns_dialed.to_string(),
                n.shuffle_conns_reused.to_string(),
                f3(n.shuffle_wait_us as f64 / 1e3),
                (n.frames_sent + n.frames_received).to_string(),
                n.workers_lost.to_string(),
            ],
            None => std::array::from_fn(|_| "-".into()),
        };
        let mut row = vec![
            r.label.clone(),
            f3(r.wall_ms),
            f3(r.wall_ms / batches as f64),
        ];
        row.extend(cols);
        row.push(if outputs_identical(&serial.result, &r.result) {
            "yes".into()
        } else {
            "NO".into()
        });
        t.row(row);
    }
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distributed_rows_match_serial_and_report_wire_bytes() {
        let serial = run_backend("serial", Backend::InProcess, 1, 4, 10_000.0, 1_000);
        let dist = run_backend(
            "dist",
            Backend::Distributed {
                workers: 2,
                base_port: 0,
            },
            1,
            4,
            10_000.0,
            1_000,
        );
        assert!(outputs_identical(&serial.result, &dist.result));
        let net = dist.result.net.expect("wire stats");
        assert!(net.bytes_sent > 0 && net.frames_received > 0);
        assert_eq!(net.workers_lost, 0);
        assert!(serial.result.net.is_none());
        // Pooled data plane: reuse dominates dialing.
        assert!(
            net.shuffle_conns_dialed <= 2,
            "{}",
            net.shuffle_conns_dialed
        );
        assert!(net.shuffle_conns_reused > net.shuffle_conns_dialed);
    }

    #[test]
    fn pipelined_distributed_row_matches_serial() {
        let serial = run_backend("serial", Backend::InProcess, 1, 6, 10_000.0, 1_000);
        let piped = run_backend(
            "dist depth2",
            Backend::Distributed {
                workers: 2,
                base_port: 0,
            },
            2,
            6,
            10_000.0,
            1_000,
        );
        assert!(outputs_identical(&serial.result, &piped.result));
        let net = piped.result.net.expect("wire stats");
        assert_eq!(net.workers_lost, 0);
    }

    #[test]
    fn quick_table_has_all_backends() {
        let tables = run(true);
        assert_eq!(tables.len(), 1);
        let labels: Vec<&str> = tables[0].rows.iter().map(|r| r[0].as_str()).collect();
        assert_eq!(
            labels,
            [
                "in-process",
                "threaded x4",
                "distributed x2",
                "distributed x2 depth2",
                "distributed x4",
                "distributed x4 depth2"
            ]
        );
        // Every row reproduced the serial outputs bit-for-bit.
        for row in &tables[0].rows {
            assert_eq!(row[10], "yes", "{} diverged from serial", row[0]);
        }
    }
}
