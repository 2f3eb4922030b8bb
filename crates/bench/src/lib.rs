//! # prompt-bench
//!
//! The experiment harness that regenerates every table and figure of the
//! Prompt (SIGMOD 2020) evaluation section, plus criterion micro-benchmarks
//! of the underlying algorithms.
//!
//! Binaries (one per paper artifact):
//!
//! | binary | reproduces |
//! |---|---|
//! | `table1_datasets` | Table 1 — dataset properties |
//! | `fig10_partitioning` | Fig. 10 — BSI/BCI partitioning metrics |
//! | `fig11_throughput` | Fig. 11 — max throughput under variable rate & skew |
//! | `fig12_elasticity` | Fig. 12 — auto-scaling time series |
//! | `fig13_latency` | Fig. 13 — reduce-task latency distribution |
//! | `fig14_overhead` | Fig. 14 — Prompt's own overhead: count-tree vs post-sort buffering |
//! | `ablations` | A1–A4 — update budget, residual tolerance, candidates per key, batch resizing ([`batch_resize`]) vs partitioning |
//! | `net_overhead` | backend comparison — in-process vs threaded vs distributed TCP |
//! | `checkpoint_overhead` | checkpoint cost (off vs per-batch vs every 4th) & recovery payoff |
//! | `run_all` | everything above, sequentially |
//!
//! Pass `--quick` to any binary for a seconds-scale smoke version; the full
//! runs are what EXPERIMENTS.md records. JSON rows land in `results/`.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod batch_resize;
pub mod experiments;
pub mod report;

/// Parse the common `--quick` flag from argv.
pub fn quick_flag() -> bool {
    std::env::args().any(|a| a == "--quick" || a == "-q")
}

/// Emit a set of tables to stdout + the results directory.
pub fn emit_all(tables: &[report::Table]) {
    let dir = experiments::results_dir();
    for t in tables {
        t.emit(&dir);
    }
}
