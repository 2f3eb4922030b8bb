//! Durable keyed state: sharded window state and incremental checkpointing.
//!
//! The engine's recovery story before this module was recompute-from-input:
//! `ReplicatedBatchStore` retains every batch's tuples and a lost batch is
//! re-executed from scratch. That bounds neither recovery time nor retained
//! bytes. This module adds the missing layer:
//!
//! * [`KeyedStateStore`] — the window state of `crate::window::WindowState`,
//!   sharded by bucket with a fixed hash seed, bit-identical to the serial
//!   path (see the store module docs for why).
//! * [`Checkpointer`] / [`restore`] — per-batch changelog deltas plus
//!   periodic full snapshots in CRC-validated binary frames, committed via
//!   an atomically replaced manifest.
//!
//! The driver's store is the only copy on every backend (Reduce tasks are
//! stateless per batch) and its shard count is its own ([`STATE_SHARDS`]), so
//! elasticity and durable state do not touch: a scale action by the
//! Algorithm 4 auto-scaler changes the task counts of the next batch filled
//! and moves no state.
//!
//! With checkpointing on, the driver truncates retained inputs at the
//! checkpoint watermark and recovery recomputes only the post-checkpoint
//! suffix — both visible as trace events.

mod checkpoint;
mod store;

pub use checkpoint::{
    decode_frame, encode_frame, frame_kind, restore, CheckpointConfig, CheckpointError,
    CheckpointStats, Checkpointer, CommitInfo, CompactorTimes, RestoredState, CHECKPOINT_MAGIC,
    CHECKPOINT_VERSION, FRAME_HEADER_LEN, FRAME_TRAILER_LEN, MAX_FRAME_PAYLOAD,
};
pub use store::{
    get_delta, get_shard, get_store, put_delta, put_shard, put_store, KeyedStateStore, Pane,
    StateDelta, StateShard, STATE_SHARDS, STATE_SHARD_SEED,
};

/// A stateful per-key operator evaluated against the live state store —
/// the query-layer entry point into this subsystem.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StatefulOp {
    /// Per-key count of in-window batches the key appeared in (a "session
    /// count": how many intervals of the window the key was active in).
    SessionCount,
}

impl StatefulOp {
    /// Evaluate the operator against a store.
    pub fn eval(&self, store: &KeyedStateStore) -> prompt_core::hash::KeyMap<f64> {
        match self {
            StatefulOp::SessionCount => store.session_counts(),
        }
    }
}

/// Cumulative state-layer accounting for one run, reported on
/// `crate::driver::RunResult`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StateStats {
    /// Checkpoint commits.
    pub checkpoints: u64,
    /// Commits that wrote a full snapshot.
    pub snapshots: u64,
    /// Total checkpoint bytes written (deltas + snapshots + manifests).
    pub checkpoint_bytes: u64,
    /// Snapshot bytes written.
    pub snapshot_bytes: u64,
    /// Final checkpoint watermark (last durable batch), if any.
    pub watermark: Option<u64>,
    /// State restores performed (lost state or resumed run).
    pub restores: u64,
    /// Batches recomputed from retained input after restores.
    pub recomputed_batches: u64,
    /// High-water mark of tuples retained by the replicated batch store
    /// over the run (the memory bound the watermark truncation enforces).
    pub max_retained_tuples: u64,
    /// High-water mark of batches retained by the replicated batch store.
    pub max_retained_batches: u64,
}
