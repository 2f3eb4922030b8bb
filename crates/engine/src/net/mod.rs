//! `prompt-net`: the real multi-process distributed runtime.
//!
//! Everything the simulated engine computes in one address space, this
//! module executes across N local worker processes (or threads) over TCP:
//!
//! - [`wire`] — the versioned length-prefixed binary protocol (no serde);
//! - [`transport`] — framed connections, per-connection byte accounting,
//!   retry/backoff;
//! - [`worker`] — the worker runtime: map/reduce execution plus the
//!   shuffle data-plane server other workers fetch buckets from;
//! - [`driver`] — the driver runtime: worker lifecycle, per-batch task
//!   orchestration, heartbeat/connection failure detection.
//!
//! The design constraint throughout is *bit-identity with the serial
//! engine*: map folds and reduce merge order are preserved exactly and the
//! shuffle assignment is the same pure function of each block
//! (`kernel::assign_block`), so a distributed run's per-batch plans and outputs
//! equal the in-process engine's, `f64` for `f64`. The differential oracle
//! (`tests/oracle.rs`) enforces this.

pub mod driver;
pub mod transport;
pub mod wire;
pub mod worker;

pub use driver::{DistributedOptions, DistributedRuntime, LaunchMode, NetStats, WorkerLoss};
pub use transport::{ConnPool, FrameConn, NetCounters, NetError, RetryPolicy};
pub use wire::{FetchStats, Message, ShuffleSegment, ShuffleSource, WireError, PROTOCOL_VERSION};
pub use worker::{run_worker, WorkerOptions};
