//! One module per table/figure of the paper's evaluation (§7.2).
//!
//! Every experiment exposes `run(quick) -> Vec<Table>`: `quick = true` runs
//! a minutes-to-seconds reduced version (used by the test suite), `false`
//! the full harness the binaries invoke. Results print to stdout and persist
//! as JSON under `results/`.

pub mod ablation;
pub mod adaptive;
pub mod checkpoint_overhead;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig13;
pub mod fig14;
pub mod fig6;
pub mod net_overhead;
pub mod rebalance;
pub mod table1;

use prompt_core::types::Duration;
use prompt_engine::cluster::Cluster;
use prompt_engine::config::EngineConfig;
use prompt_engine::cost::CostModel;

/// The cost-model scaling used by all throughput experiments: inflates the
/// default per-record costs so the simulated cluster saturates at
/// laptop-friendly batch sizes (~10⁵ tuples per second-long batch on 16
/// slots) while keeping the *ratios* between per-tuple, per-key, and
/// per-fragment costs fixed.
pub const COST_SCALE: f64 = 20.0;

/// The standard simulated cluster: 2 executors × 8 cores (16 slots).
pub fn standard_cluster() -> Cluster {
    Cluster::new(2, 8)
}

/// The standard engine configuration for throughput experiments.
pub fn standard_config(batch_interval: Duration) -> EngineConfig {
    EngineConfig {
        batch_interval,
        map_tasks: 16,
        reduce_tasks: 16,
        cluster: standard_cluster(),
        cost: CostModel::default().scaled(COST_SCALE),
        ..EngineConfig::default()
    }
}

/// Where experiment JSON lands.
pub fn results_dir() -> std::path::PathBuf {
    std::path::PathBuf::from(
        std::env::var("PROMPT_RESULTS_DIR").unwrap_or_else(|_| "results".into()),
    )
}
