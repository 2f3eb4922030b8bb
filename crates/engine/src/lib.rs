//! # prompt-engine
//!
//! A distributed micro-batch stream processing engine substrate — the
//! Spark-Streaming stand-in the Prompt partitioning scheme (SIGMOD 2020) is
//! evaluated inside.
//!
//! The engine reproduces the computational model of §2.1: a receiver
//! accumulates tuples per heartbeat interval, a batching-phase partitioner
//! cuts each micro-batch into data blocks, Map tasks process blocks and
//! scatter key clusters into Reduce buckets, and windowed query state is
//! maintained across batch outputs with inverse-Reduce eviction. Batching
//! and processing are pipelined (Fig. 2): a batch whose processing exceeds
//! the interval delays its successors, and sustained queueing triggers
//! back-pressure.
//!
//! Three execution backends (selected by
//! [`config::EngineConfig::backend`]) are built from two executors that
//! share one Map / assign / Reduce kernel set, and are **bit-identical**
//! given the same plan and assigner state. Virtual time is the same on all
//! of them: task times from an explicit [`cost::CostModel`], stage times as
//! LPT makespans (Eqn. 1 generalised to waves).
//!
//! * [`threaded::ThreadedExecutor`] — the **local executor**. At one thread
//!   it is the default `InProcess` backend every experiment runs on
//!   ([`stage::execute_batch`] is its one-call form): deterministic, inline
//!   on the calling thread. At `n` threads it is the `Threaded` backend: the
//!   same code with its Map and Reduce loops fanned out.
//! * [`net::DistributedRuntime`] — a real multi-*process* backend: tasks run
//!   on spawned `prompt-worker` processes over a binary TCP protocol, with
//!   heartbeat failure detection, and recovery that resubmits the plans a
//!   lost worker held: a batch's plan is its replicated input.
//!
//! [`driver::StreamingEngine`] is the top-level entry point;
//! [`elasticity::AutoScaler`] implements the Algorithm 4 controller.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod backend;
pub mod backpressure;
pub mod cluster;
pub mod config;
pub mod cost;
pub mod driver;
pub mod elasticity;
pub mod job;
mod kernel;
pub mod net;
pub mod policy;
pub mod rebalance;
pub mod recovery;
pub mod reorder;
/// Re-export of the stream-source abstraction from `prompt-core`.
pub mod source {
    pub use prompt_core::source::TupleSource;
}
pub mod stage;
pub mod state;
pub mod stats;
pub mod threaded;
pub mod trace;
pub mod window;

/// Convenient import surface.
pub mod prelude {
    pub use crate::backpressure::max_sustainable_rate;
    pub use crate::cluster::Cluster;
    pub use crate::config::{Backend, EngineConfig, OverheadMode};
    pub use crate::cost::CostModel;
    pub use crate::driver::{BatchRecord, ReduceStrategy, RunResult, RunSummary, StreamingEngine};
    pub use crate::elasticity::{AutoScaler, Observation, ScaleAction, ScalerConfig};
    pub use crate::job::{Job, JobSpec, MapSpec, ReduceOp};
    pub use crate::net::{
        DistributedOptions, DistributedRuntime, LaunchMode, NetStats, WorkerLoss,
    };
    pub use crate::policy::{
        build_policy, AdaptiveConfig, AdaptivePolicy, BatchObservation, ForcedSequencePolicy,
        PartitionerPolicy, PolicyDecision, PolicySpec,
    };
    pub use crate::rebalance::{
        group_of, group_weights, imbalance_ratio, AutoRebalance, ForcedMigrations, ForcedRebalance,
        GroupMove, LoadLedger, MigrationPlan, RebalanceConfig, RebalanceObservation,
        RebalancePolicy, RebalanceSpec, RoutingTable, GROUP_HASH_SEED,
    };
    pub use crate::recovery::{FaultPlan, FaultPoint, NetFault, NetFaultPlan};
    pub use crate::reorder::ReorderingReceiver;
    pub use crate::source::TupleSource;
    pub use crate::stage::{execute_batch, times_from_stats, BatchOutput, BucketStats, StageTimes};
    pub use crate::state::{
        CheckpointConfig, CheckpointError, Checkpointer, KeyedStateStore, StateDelta, StateStats,
        StatefulOp, STATE_SHARDS,
    };
    pub use crate::stats::{percentile_sorted, summarize, Summary};
    pub use crate::threaded::{ThreadedExecutor, WallTimes};
    pub use crate::trace::{
        parse_jsonl, to_jsonl, Counter, StageKind, StageSummary, TraceEvent, TraceLevel,
        TraceRecorder, TraceSummary, PROCESSING_KINDS,
    };
    pub use crate::window::{WindowResult, WindowSpec, WindowState};
}
