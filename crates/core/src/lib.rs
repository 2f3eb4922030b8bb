//! # prompt-core
//!
//! From-scratch implementation of **Prompt** — the dynamic data-partitioning
//! scheme for distributed micro-batch stream processing systems (Abdelhamid
//! et al., SIGMOD 2020) — together with every baseline partitioning technique
//! the paper evaluates against.
//!
//! The crate is engine-agnostic: it operates on [`types::Tuple`] streams and
//! produces [`batch::PartitionPlan`]s. The sibling `prompt-engine` crate
//! embeds these algorithms in a micro-batch processing engine.
//!
//! ## The pieces
//!
//! * [`buffering`] — Algorithm 1: frequency-aware micro-batch buffering. The
//!   engine's buffer counts keys exactly and sorts them once at the
//!   heartbeat; the paper's budgeted [`buffering::CountTree`], which yields
//!   quasi-sorted key frequencies with no sort, is kept for fidelity.
//! * [`partitioner`] — Algorithm 2 (the B-BPFI heuristic) plus the
//!   time-based, shuffle, hash, PK-d and cAM baselines behind one
//!   [`partitioner::Partitioner`] trait.
//! * [`reduce`] — Algorithm 3: the B-BPVC Worst-Fit reduce-bucket allocator
//!   and the conventional hashing assigner.
//! * [`metrics`] — the cost model of §3.3: BSI, BCI, KSR and the combined
//!   MPI.
//! * [`binpack`] — the underlying bin-packing formalisation, classical
//!   heuristics (Fig. 6), and an exact reference solver for tiny instances.
//!
//! ## Quick example
//!
//! ```
//! use prompt_core::prelude::*;
//!
//! // A skewed micro-batch: key 1 is hot.
//! let interval = Interval::new(Time::ZERO, Time::from_secs(1));
//! let mut tuples = Vec::new();
//! for i in 0..1000u64 {
//!     let key = if i % 2 == 0 { Key(1) } else { Key(1 + i % 50) };
//!     tuples.push(Tuple::keyed(Time::from_micros(i * 999), key));
//! }
//! let batch = MicroBatch::new(tuples, interval);
//!
//! // Partition with Prompt and with plain hashing; compare imbalance.
//! let mut prompt = Technique::Prompt.build(42);
//! let mut hash = Technique::Hash.build(42);
//! let prompt_plan = prompt.partition(&batch, 8);
//! let hash_plan = hash.partition(&batch, 8);
//! assert!(prompt_core::metrics::bsi(&prompt_plan)
//!     < prompt_core::metrics::bsi(&hash_plan));
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod analysis;
pub mod batch;
pub mod binpack;
pub mod buffering;
pub mod bytes;
pub mod columnar;
pub mod hash;
pub mod metrics;
pub mod par;
pub mod partitioner;
pub mod reduce;
pub mod sketch;
pub mod sort;
pub mod source;
pub mod types;

/// Convenient glob-import surface for downstream crates and examples.
pub mod prelude {
    pub use crate::analysis::{BlockRow, PlanReport};
    pub use crate::batch::{
        DataBlock, KeyFragment, KeyGroup, MicroBatch, PartitionPlan, SealedBatch,
    };
    pub use crate::buffering::{
        AccumulatorConfig, BatchAccumulator, BatchStats, CountTree, FrequencyAwareAccumulator,
        PostSortAccumulator, ShardedAccumulator,
    };
    pub use crate::bytes::{ByteReader, ByteWriter, BytesSink, CodecError};
    pub use crate::columnar::{
        ColRange, ColumnarBatch, ColumnarBlock, ColumnarPlan, ColumnarSealed,
    };
    pub use crate::metrics::{MpiWeights, PlanMetrics};
    pub use crate::partitioner::{
        BufferingMode, CamPartitioner, DChoicesPartitioner, HashPartitioner, Partitioner,
        PkgPartitioner, PromptPartitioner, ShufflePartitioner, Technique, TimeBasedPartitioner,
    };
    pub use crate::reduce::{
        allocate_reduce, HashReduceAssigner, KeyCluster, PromptReduceAllocator, ReduceAllocation,
        ReduceAssigner,
    };
    pub use crate::sketch::SpaceSaving;
    pub use crate::source::TupleSource;
    pub use crate::types::{Duration, Interval, Key, Time, Tuple};
}
