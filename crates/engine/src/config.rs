//! Engine configuration.

use prompt_core::types::Duration;

use crate::cluster::Cluster;
use crate::cost::CostModel;
use crate::elasticity::ScalerConfig;
use crate::policy::PolicySpec;
use crate::rebalance::{RebalanceSpec, RoutingTable};
use crate::state::CheckpointConfig;
use crate::trace::TraceLevel;

/// How the batching-phase partitioning overhead is charged against the
/// processing budget.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum OverheadMode {
    /// Ideal: partitioning is free. The default for deterministic
    /// experiments whose subject is partitioning *quality*.
    None,
    /// Measure the real wall-clock time of the `partition()` call and charge
    /// it as virtual time. Used by the overhead experiments (Fig. 14);
    /// introduces host-machine variance, so not used for correctness tests.
    Measured,
    /// Charge a fixed virtual cost per batch.
    Fixed(Duration),
}

/// Which execution substrate runs the Map/shuffle/Reduce of each batch.
///
/// All backends produce bit-identical per-batch outputs and (cost-model)
/// stage times — the partitioning/assignment decisions are always computed
/// in the same deterministic order — so experiments can switch substrate
/// without changing their numbers.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Backend {
    /// In-process execution on the calling thread: the local executor
    /// (`threaded`) at one thread, spawning nothing. The default.
    #[default]
    InProcess,
    /// The same executor with its Map and Reduce phases on OS threads.
    Threaded {
        /// Threads for the Map and Reduce phases (the shuffle is serial),
        /// and for Prompt's assignment and run tables.
        threads: usize,
    },
    /// Multi-process execution over the TCP runtime (`net`): tasks run on
    /// spawned local worker processes, shuffle bytes cross sockets, and a
    /// lost worker's batches are resubmitted to the survivors from the plans
    /// the driver holds.
    Distributed {
        /// Worker processes to spawn.
        workers: usize,
        /// Driver control-plane port; `0` picks an ephemeral port (the
        /// test-friendly default — no port collisions between runs).
        base_port: u16,
    },
}

/// Full engine configuration.
#[derive(Clone, Debug)]
pub struct EngineConfig {
    /// The batch interval (heartbeat period). Fixed per run, per the
    /// paper's design goals (§3.1).
    pub batch_interval: Duration,
    /// Initial number of Map tasks (= data blocks per batch).
    pub map_tasks: usize,
    /// Initial number of Reduce tasks (= Reduce buckets).
    pub reduce_tasks: usize,
    /// The simulated cluster.
    pub cluster: Cluster,
    /// The task-time cost model.
    pub cost: CostModel,
    /// Partitioning-overhead accounting.
    pub overhead: OverheadMode,
    /// Queue depth (in batches of delay) at which back-pressure triggers.
    pub backpressure_queue: f64,
    /// Enable the Algorithm 4 auto-scaler.
    pub elasticity: Option<ScalerConfig>,
    /// Has no effect: the batching phase is one serial accumulator per
    /// batch (§4.1), and the engine's parallelism comes from the pipeline
    /// ([`pipeline_depth`](EngineConfig::pipeline_depth)) and the backend.
    /// It once sharded Prompt's accumulator by key hash. It stays only so
    /// that struct literals naming it keep compiling.
    #[deprecated(note = "has no effect: the batching phase is one serial accumulator")]
    pub ingest_shards: usize,
    /// Has no effect: the partitioner runs as wide as the backend —
    /// [`Backend::Threaded`]'s `threads`, else one thread. It stays only so
    /// that struct literals naming it keep compiling.
    #[deprecated(note = "has no effect: the partitioner's width is the backend's")]
    pub ingest_threads: usize,
    /// Observability verbosity: what [`StreamingEngine::run_traced`]
    /// records (see `crate::trace`). `Off` keeps the hot path free of any
    /// recording cost.
    ///
    /// [`StreamingEngine::run_traced`]: crate::driver::StreamingEngine::run_traced
    pub trace: TraceLevel,
    /// Execution substrate for batch processing.
    pub backend: Backend,
    /// Durable keyed-state checkpointing (see `crate::state`). When set,
    /// window state is kept in a [`crate::state::KeyedStateStore`] of
    /// [`crate::state::STATE_SHARDS`] shards — whatever `reduce_tasks` is,
    /// or elasticity makes of it: a scale action forces no commit —
    /// committed as changelog deltas + periodic snapshots. The batch inputs
    /// a [`FaultPlan`](crate::recovery::FaultPlan) retains are truncated at
    /// the checkpoint watermark instead of at window expiry; a checkpoint
    /// retains none of its own (a resume reads the checkpoint). Requires a
    /// window on the engine.
    pub checkpoint: Option<CheckpointConfig>,
    /// Bounded in-flight window of the driver's batch-state machine: how
    /// many batches may be past *buffering* (partitioned or executing)
    /// before the oldest commits. `1` (the default) is the classic
    /// one-lifecycle-at-a-time loop; at `d > 1` the driver fills up to `d`
    /// batches ahead, and it means that in every configuration — elasticity,
    /// durable state, a non-`Fixed` policy, fault plans and the rebalancer
    /// all run at the configured depth.
    ///
    /// The contract (DESIGN §4h): the loop's schedule is fixed — batch `s`
    /// is pulled after `commit(s − d)` — so what a controller has seen when it
    /// decides for batch `s` is a function of `(s, d)` alone; a batch
    /// carries the task counts, technique and routing it was prepared under
    /// through execution and commit; answers (windows, stateful emissions)
    /// never depend on depth; and a depth-`d` run equals the serial run
    /// forced through the same decision sequence. The scaler has no forced
    /// log, so under elasticity a batch runs under the task counts its depth
    /// lets the scaler set, and a floating `Sum` of a key split across Map
    /// blocks rounds accordingly. Every recovery re-runs a plan the batch
    /// carries, at its commit, so a scheduled
    /// [`FaultPlan`](crate::recovery::FaultPlan) loss and a scripted *worker*
    /// kill ([`NetFaultPlan`](crate::recovery::NetFaultPlan)) are both
    /// survived at any depth.
    ///
    /// Work overlaps at `d > 1` on every backend (§4.1, Fig. 7): the next
    /// batch is pulled from the source on the driver thread and partitioned
    /// on a second thread while the driver thread executes and commits the
    /// oldest. On [`Backend::Distributed`] that execute is where a batch's
    /// Map tasks go on the wire — the oldest's, and at `d > 2` every younger
    /// prepared one's not yet in flight — so encoding and sending overlap the
    /// next batch's partition, and the worker fleet pipelines wire transfer
    /// and execution across batches.
    pub pipeline_depth: usize,
    /// Which partitioner runs each batch (see [`crate::policy`]).
    /// `Fixed` (the default) is the classic run-constant behaviour —
    /// [`StreamingEngine::new`](crate::driver::StreamingEngine::new)
    /// normalises it to the constructor's technique, so existing call
    /// sites are unaffected. `Adaptive` scores the live frequency sketch
    /// and plan metrics each batch and hot-swaps strategies at batch
    /// boundaries; `Forced` replays an explicit per-batch sequence (the
    /// differential-test oracle).
    pub policy: PolicySpec,
    /// Executor-level key-group rebalancing (see [`crate::rebalance`]).
    /// When on, the reduce side routes every key through the versioned
    /// group routing table instead of the technique's own assigner — under
    /// any partitioner policy: the policy picks how a batch is partitioned,
    /// the table where its keys reduce — and the configured
    /// [`RebalancePolicy`](crate::rebalance::RebalancePolicy) may migrate
    /// hot groups between workers at batch boundaries. Each batch is routed
    /// by a snapshot of the table taken at its fill, so a plan applied for
    /// a younger batch never re-routes one still in flight and the feature
    /// runs at any [`pipeline_depth`](EngineConfig::pipeline_depth) `d`: a
    /// plan for batch `s` is computed from the commits through `s − d`, and
    /// the run equals the depth-1 `Forced` replay of its migration log.
    /// Refused together with `elasticity` — the one feature pair
    /// [`EngineConfig::validate`] excludes: the table is sized to
    /// `reduce_tasks`, and re-laying it out on a scale action is the
    /// controller-composition follow-up (ROADMAP).
    pub rebalance: RebalanceSpec,
    /// Has no effect: the engine partitions and executes every batch in
    /// rows. It once chose a columnar data plane whose every plan, output,
    /// stage time, controller decision and wire frame was bit-identical to
    /// the row path's, and lost to it on every measured workload; it stays
    /// only so that struct literals naming it keep compiling. The columnar
    /// types remain in [`prompt_core::columnar`] as adapters.
    #[deprecated(note = "has no effect: the engine runs rows only")]
    pub columnar: bool,
}

impl Default for EngineConfig {
    #[allow(deprecated)]
    fn default() -> EngineConfig {
        EngineConfig {
            batch_interval: Duration::from_secs(1),
            map_tasks: 8,
            reduce_tasks: 8,
            cluster: Cluster::new(2, 8),
            cost: CostModel::default(),
            overhead: OverheadMode::None,
            backpressure_queue: 2.0,
            elasticity: None,
            ingest_shards: 1,
            ingest_threads: 1,
            trace: TraceLevel::Off,
            backend: Backend::default(),
            checkpoint: None,
            pipeline_depth: 1,
            policy: PolicySpec::default(),
            rebalance: RebalanceSpec::default(),
            columnar: false,
        }
    }
}

/// Early-batch-release slack as a fraction of the batch interval (§4.2,
/// Fig. 7 — the paper observes ≤ 5% suffices).
pub const EARLY_RELEASE_FRAC: f64 = 0.05;

impl EngineConfig {
    /// The early-release slack in absolute time.
    pub fn early_release_slack(&self) -> Duration {
        self.batch_interval.mul_f64(EARLY_RELEASE_FRAC)
    }

    /// Validate internal consistency.
    pub fn validate(&self) -> Result<(), String> {
        if self.batch_interval.0 == 0 {
            return Err("batch interval must be positive".into());
        }
        if self.map_tasks == 0 || self.reduce_tasks == 0 {
            return Err("task counts must be positive".into());
        }
        if self.backpressure_queue <= 0.0 {
            return Err("backpressure queue threshold must be positive".into());
        }
        // A config can describe a cluster shape directly (the fields are
        // public), so report emptiness here instead of panicking later.
        Cluster::try_new(self.cluster.executors, self.cluster.cores_per_executor)?;
        match self.backend {
            Backend::InProcess => {}
            Backend::Threaded { threads } => {
                if threads == 0 {
                    return Err("threaded backend needs at least one thread".into());
                }
            }
            Backend::Distributed { workers, base_port } => {
                if workers == 0 {
                    return Err("distributed backend needs at least one worker".into());
                }
                if workers > 64 {
                    return Err(format!(
                        "distributed backend capped at 64 local workers, got {workers}"
                    ));
                }
                if base_port != 0 && base_port < 1024 {
                    return Err(format!(
                        "base_port must be 0 (ephemeral) or >= 1024, got {base_port}"
                    ));
                }
            }
        }
        if self.pipeline_depth == 0 {
            return Err("pipeline depth must be at least 1".into());
        }
        if self.pipeline_depth > 32 {
            return Err(format!(
                "pipeline depth capped at 32 in-flight batches, got {}",
                self.pipeline_depth
            ));
        }
        if let Some(ckpt) = &self.checkpoint {
            ckpt.validate()?;
        }
        if let Some(sc) = &self.elasticity {
            if !(sc.thres > 0.0 && sc.step >= 0.0 && sc.d >= 1) {
                return Err("the scaler needs thres > 0, step >= 0 and d >= 1".into());
            }
            let bounds = sc.min_tasks..=sc.max_tasks;
            if !bounds.contains(&self.map_tasks) || !bounds.contains(&self.reduce_tasks) {
                return Err(format!(
                    "task counts ({}, {}) outside the scaler's bounds {}..={}",
                    self.map_tasks, self.reduce_tasks, sc.min_tasks, sc.max_tasks
                ));
            }
        }
        self.policy.validate()?;
        self.rebalance.validate()?;
        if !self.rebalance.is_off() {
            // The one feature pair refused: the routing table is sized to
            // `reduce_tasks`, and re-laying it out when the scaler moves the
            // count is not built (every other combination composes — each
            // batch carries what it was prepared under).
            if self.elasticity.is_some() {
                return Err(
                    "rebalance and elasticity are mutually exclusive: the rebalancer keeps \
                     the cluster fixed and migrates key-groups instead of scaling tasks"
                        .into(),
                );
            }
            if let Some(n_groups) = self.rebalance.n_groups() {
                if n_groups < self.reduce_tasks {
                    return Err(format!(
                        "rebalance n_groups ({n_groups}) must cover the reduce count \
                         ({}): fewer groups than workers leaves workers unroutable",
                        self.reduce_tasks
                    ));
                }
            }
            // A run's table is always the fresh one at `reduce_tasks` (no
            // scaler moves it, above), so a recorded log that cannot apply
            // is known here rather than at its batch, mid-run.
            if let RebalanceSpec::Forced { n_groups, plans } = &self.rebalance {
                let mut table = RoutingTable::new(*n_groups, self.reduce_tasks);
                for (seq, plan) in plans {
                    table.apply(plan).map_err(|why| {
                        format!("forced rebalance plan at batch {seq} cannot apply: {why}")
                    })?;
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rebalance::{GroupMove, MigrationPlan};

    #[test]
    fn default_is_valid() {
        assert!(EngineConfig::default().validate().is_ok());
    }

    #[test]
    fn slack_is_fraction_of_interval() {
        let cfg = EngineConfig {
            batch_interval: Duration::from_secs(2),
            ..EngineConfig::default()
        };
        assert_eq!(cfg.early_release_slack(), Duration::from_millis(100));
    }

    #[test]
    fn validation_catches_bad_configs() {
        let bad = [
            EngineConfig {
                map_tasks: 0,
                ..EngineConfig::default()
            },
            EngineConfig {
                batch_interval: Duration::ZERO,
                ..EngineConfig::default()
            },
            EngineConfig {
                backpressure_queue: 0.0,
                ..EngineConfig::default()
            },
            EngineConfig {
                cluster: Cluster {
                    executors: 0,
                    cores_per_executor: 8,
                },
                ..EngineConfig::default()
            },
            EngineConfig {
                backend: Backend::Threaded { threads: 0 },
                ..EngineConfig::default()
            },
            EngineConfig {
                backend: Backend::Distributed {
                    workers: 0,
                    base_port: 0,
                },
                ..EngineConfig::default()
            },
            EngineConfig {
                backend: Backend::Distributed {
                    workers: 65,
                    base_port: 0,
                },
                ..EngineConfig::default()
            },
            EngineConfig {
                backend: Backend::Distributed {
                    workers: 2,
                    base_port: 80,
                },
                ..EngineConfig::default()
            },
            EngineConfig {
                checkpoint: Some(CheckpointConfig::new("/tmp/ckpt").interval(0)),
                ..EngineConfig::default()
            },
            // A scaler whose bounds exclude the initial task counts.
            EngineConfig {
                reduce_tasks: 2,
                elasticity: Some(ScalerConfig {
                    min_tasks: 3,
                    ..ScalerConfig::default()
                }),
                ..EngineConfig::default()
            },
            EngineConfig {
                pipeline_depth: 0,
                ..EngineConfig::default()
            },
            EngineConfig {
                pipeline_depth: 33,
                ..EngineConfig::default()
            },
            EngineConfig {
                policy: crate::policy::PolicySpec::Forced(vec![]),
                ..EngineConfig::default()
            },
            EngineConfig {
                policy: crate::policy::PolicySpec::Adaptive(crate::policy::AdaptiveConfig {
                    min_dwell: 0,
                    ..crate::policy::AdaptiveConfig::default()
                }),
                ..EngineConfig::default()
            },
            EngineConfig {
                policy: crate::policy::PolicySpec::Adaptive(crate::policy::AdaptiveConfig {
                    margin: 1.0,
                    ..crate::policy::AdaptiveConfig::default()
                }),
                ..EngineConfig::default()
            },
            EngineConfig {
                rebalance: crate::rebalance::RebalanceSpec::Auto(
                    crate::rebalance::RebalanceConfig {
                        min_dwell: 0,
                        ..crate::rebalance::RebalanceConfig::default()
                    },
                ),
                ..EngineConfig::default()
            },
            // Fewer groups than reduce workers.
            EngineConfig {
                reduce_tasks: 8,
                rebalance: crate::rebalance::RebalanceSpec::Auto(
                    crate::rebalance::RebalanceConfig {
                        n_groups: 4,
                        ..crate::rebalance::RebalanceConfig::default()
                    },
                ),
                ..EngineConfig::default()
            },
            // Rebalance + elasticity.
            EngineConfig {
                elasticity: Some(ScalerConfig::default()),
                rebalance: crate::rebalance::RebalanceSpec::Auto(
                    crate::rebalance::RebalanceConfig::default(),
                ),
                ..EngineConfig::default()
            },
        ];
        for cfg in bad {
            assert!(cfg.validate().is_err(), "{:?}", cfg.backend);
        }
        // A forced log that cannot apply to the run's fresh table (8 groups
        // round-robin over 8 workers) is refused with `RoutingTable::apply`'s
        // reason, not accepted and left to panic at its batch.
        let forced = |log: &[(u64, (u32, u32, u32))]| {
            let plan = |&(seq, (group, from, to))| {
                let moves = vec![GroupMove { group, from, to }];
                (seq, MigrationPlan { moves })
            };
            EngineConfig {
                rebalance: RebalanceSpec::Forced {
                    n_groups: 8,
                    plans: log.iter().map(plan).collect(),
                },
                ..EngineConfig::default()
            }
        };
        for (log, why) in [
            (&[(2, (99, 0, 1))][..], "group 99 out of range"),
            (&[(2, (0, 0, 8))], "destination 8 out of range"),
            (
                &[(2, (0, 0, 1)), (5, (0, 0, 2))],
                "batch 5 cannot apply: move 0: group 0 owned by 1, plan says 0",
            ),
        ] {
            let err = forced(log).validate().expect_err(why);
            assert!(err.contains(why), "{err}");
        }
        assert_eq!(forced(&[(2, (0, 0, 1)), (5, (0, 1, 2))]).validate(), Ok(()));
    }

    #[test]
    fn good_backends_validate() {
        for backend in [
            Backend::InProcess,
            Backend::Threaded { threads: 4 },
            Backend::Distributed {
                workers: 2,
                base_port: 0,
            },
            Backend::Distributed {
                workers: 4,
                base_port: 45_000,
            },
        ] {
            let cfg = EngineConfig {
                backend,
                ..EngineConfig::default()
            };
            assert!(cfg.validate().is_ok(), "{backend:?}");
        }
    }
}
