//! Consistency and fault tolerance (§8).
//!
//! The micro-batch model gets exactly-once semantics *at batch granularity*:
//! the input of every batch is replicated on ingestion; if a batch's
//! computed state is lost (executor failure), it is recomputed from the
//! replicated input. Once a batch's output has been produced *and* the
//! batch has expired from every query window, its replicated input can be
//! discarded.
//!
//! [`ReplicatedBatchStore`] implements that retention protocol and
//! [`FaultPlan`] injects failures into the driver loop: losing a batch's
//! state forces a recompute (which shows up in that batch's processing
//! time); losing more replicas than exist is the unrecoverable case and
//! surfaces as an error.

use std::collections::VecDeque;
use std::sync::Arc;

use prompt_core::partitioner::Technique;
use prompt_core::types::Tuple;

/// A retained batch input with its remaining replica count and the
/// technique that partitioned it (a recompute must re-partition with the
/// strategy the original run used). The input is shared (`Arc<[Tuple]>`), so
/// recovery reads hand out the buffer without copying it.
#[derive(Clone, Debug)]
struct RetainedBatch {
    seq: u64,
    replicas_left: usize,
    input: Arc<[Tuple]>,
    technique: Technique,
}

/// Replicated storage of recent batch inputs.
///
/// Retention is driven by the window geometry: the engine calls
/// [`ReplicatedBatchStore::expire_through`] once a batch has left every
/// window, mirroring "once the batch output is produced and the batch
/// expires from the query window, this batch can be removed" (§8).
#[derive(Debug)]
pub struct ReplicatedBatchStore {
    replicas: usize,
    retained: VecDeque<RetainedBatch>,
    /// Total tuples currently retained (for memory accounting).
    retained_tuples: usize,
}

/// Why a recovery attempt failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RecoveryError {
    /// The batch's replicated input was already discarded (it had expired
    /// from all windows) — recomputation is impossible.
    Expired {
        /// The requested batch.
        seq: u64,
    },
    /// Every replica of the batch has been lost.
    ReplicasExhausted {
        /// The requested batch.
        seq: u64,
    },
}

impl std::fmt::Display for RecoveryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecoveryError::Expired { seq } => {
                write!(f, "batch {seq} expired from all windows; input discarded")
            }
            RecoveryError::ReplicasExhausted { seq } => {
                write!(f, "all replicas of batch {seq} lost")
            }
        }
    }
}

impl std::error::Error for RecoveryError {}

impl ReplicatedBatchStore {
    /// A store keeping `replicas ≥ 1` copies of each retained batch input.
    pub fn new(replicas: usize) -> ReplicatedBatchStore {
        assert!(replicas >= 1, "need at least one replica");
        ReplicatedBatchStore {
            replicas,
            retained: VecDeque::new(),
            retained_tuples: 0,
        }
    }

    /// Retain the input of batch `seq` (called on ingestion) next to the
    /// `technique` that partitions it. The buffer is shared, not copied —
    /// callers pass an `Arc<[Tuple]>` (a `Vec` converts with one allocation)
    /// and recovery reads clone the handle only.
    pub fn retain(&mut self, seq: u64, input: Arc<[Tuple]>, technique: Technique) {
        if let Some(last) = self.retained.back() {
            assert!(last.seq < seq, "batches must be retained in order");
        }
        self.retained_tuples += input.len();
        self.retained.push_back(RetainedBatch {
            seq,
            replicas_left: self.replicas,
            input,
            technique,
        });
    }

    /// Discard every batch with `seq ≤ through` — they have produced output
    /// and exited all windows.
    pub fn expire_through(&mut self, through: u64) {
        while let Some(front) = self.retained.front() {
            if front.seq > through {
                break;
            }
            self.retained_tuples -= front.input.len();
            self.retained.pop_front();
        }
    }

    /// Fetch the replicated input of `seq` for recomputation — with the
    /// technique it was retained under — consuming one replica (the failed
    /// copy is gone; a recovery read re-replicates in a real system, here we
    /// only track the budget). Returns a shared handle: no tuple is copied.
    pub fn recover(&mut self, seq: u64) -> Result<(Arc<[Tuple]>, Technique), RecoveryError> {
        let batch = self
            .retained
            .iter_mut()
            .find(|b| b.seq == seq)
            .ok_or(RecoveryError::Expired { seq })?;
        if batch.replicas_left == 0 {
            return Err(RecoveryError::ReplicasExhausted { seq });
        }
        batch.replicas_left -= 1;
        Ok((Arc::clone(&batch.input), batch.technique))
    }

    /// Replicas remaining for batch `seq`, or `None` if it is not retained
    /// (never was, or already expired).
    pub fn replicas_left(&self, seq: u64) -> Option<usize> {
        self.retained
            .iter()
            .find(|b| b.seq == seq)
            .map(|b| b.replicas_left)
    }

    /// Number of batches currently retained.
    pub fn len(&self) -> usize {
        self.retained.len()
    }

    /// Whether nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.retained.is_empty()
    }

    /// Total tuples retained across batches (the replication memory bill is
    /// `replicas ×` this).
    pub fn retained_tuples(&self) -> usize {
        self.retained_tuples
    }
}

/// Scripted failure injection for the driver loop.
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    /// For each entry `(seq, times)`: the state of batch `seq` is lost
    /// `times` times, each loss forcing one recomputation from the store.
    pub lose_state: Vec<(u64, usize)>,
    /// Batch sequence numbers at whose start the *keyed window state* is
    /// lost wholesale (an executor holding the state store dies). The driver
    /// restores from the latest checkpoint and recomputes only the
    /// post-watermark suffix from retained inputs — or, with no checkpoint,
    /// replays from batch zero.
    pub lose_store: Vec<u64>,
}

impl FaultPlan {
    /// No failures.
    pub fn none() -> FaultPlan {
        FaultPlan::default()
    }

    /// Lose the state of `seq` once.
    pub fn lose_once(mut self, seq: u64) -> FaultPlan {
        self.lose_state.push((seq, 1));
        self
    }

    /// Lose the state of `seq` `times` times.
    pub fn lose_times(mut self, seq: u64, times: usize) -> FaultPlan {
        self.lose_state.push((seq, times));
        self
    }

    /// Lose the whole keyed state store at the start of batch `seq`.
    pub fn lose_store_at(mut self, seq: u64) -> FaultPlan {
        self.lose_store.push(seq);
        self
    }

    /// How many state losses are scheduled for `seq`.
    pub fn losses_for(&self, seq: u64) -> usize {
        self.lose_state
            .iter()
            .filter(|&&(s, _)| s == seq)
            .map(|&(_, n)| n)
            .sum()
    }

    /// Whether the keyed state store is scheduled to be lost at `seq`.
    pub fn loses_store_at(&self, seq: u64) -> bool {
        self.lose_store.contains(&seq)
    }

    /// Whether any failure is scheduled.
    pub fn is_empty(&self) -> bool {
        self.lose_state.is_empty() && self.lose_store.is_empty()
    }
}

/// Where in a batch's distributed execution an injected worker kill fires.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultPoint {
    /// Kill the worker before any task of the batch is dispatched to it.
    BeforeMap,
    /// Kill the worker after the Map stage completes, mid-shuffle — the
    /// worker's un-fetched map outputs die with it.
    AfterMap,
}

/// One scripted worker kill for the distributed backend.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NetFault {
    /// Batch sequence number the kill fires during.
    pub seq: u64,
    /// The worker id to kill.
    pub worker: u32,
    /// Where in the batch the kill fires.
    pub point: FaultPoint,
}

/// Scripted worker kills for the distributed backend — the `FaultPlan`
/// analogue whose failure source is a real dead process rather than
/// simulated state loss. Each kill terminates the worker (process kill or
/// socket shutdown for thread-mode workers); the driver then observes the
/// loss, spends one unit of the run's recovery budget, and re-dispatches the
/// in-flight batches on the survivors from the plans it still holds. A kill
/// must name a worker the fleet has (`DistributedRuntime::set_fault_plan`).
#[derive(Clone, Debug, Default)]
pub struct NetFaultPlan {
    /// The scripted kills, in no particular order.
    pub kills: Vec<NetFault>,
}

impl NetFaultPlan {
    /// No kills.
    pub fn none() -> NetFaultPlan {
        NetFaultPlan::default()
    }

    /// Kill `worker` before batch `seq` dispatches any task to it.
    pub fn kill_before(mut self, seq: u64, worker: u32) -> NetFaultPlan {
        self.kills.push(NetFault {
            seq,
            worker,
            point: FaultPoint::BeforeMap,
        });
        self
    }

    /// Kill `worker` mid-batch: after `seq`'s Map stage, before its
    /// shuffle completes.
    pub fn kill_after_map(mut self, seq: u64, worker: u32) -> NetFaultPlan {
        self.kills.push(NetFault {
            seq,
            worker,
            point: FaultPoint::AfterMap,
        });
        self
    }

    /// Whether any kill is scheduled.
    pub fn is_empty(&self) -> bool {
        self.kills.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prompt_core::types::{Key, Time};

    fn tuples(n: usize) -> Vec<Tuple> {
        (0..n)
            .map(|i| Tuple::keyed(Time::from_micros(i as u64), Key(i as u64 % 7)))
            .collect()
    }

    #[test]
    fn retain_recover_roundtrip() {
        let mut store = ReplicatedBatchStore::new(2);
        store.retain(0, tuples(10).into(), Technique::Prompt);
        store.retain(1, tuples(20).into(), Technique::Hash);
        assert_eq!(store.len(), 2);
        assert_eq!(store.retained_tuples(), 30);
        let (got, technique) = store.recover(1).expect("recoverable");
        assert_eq!(got.len(), 20);
        assert_eq!(technique, Technique::Hash);
        // Second recovery consumes the last replica…
        assert!(store.recover(1).is_ok());
        // …and the third fails.
        assert_eq!(
            store.recover(1),
            Err(RecoveryError::ReplicasExhausted { seq: 1 })
        );
        // Batch 0 is untouched.
        assert!(store
            .recover(0)
            .is_ok_and(|(_, technique)| technique == Technique::Prompt));
    }

    #[test]
    fn expiry_discards_and_frees_memory() {
        let mut store = ReplicatedBatchStore::new(1);
        for seq in 0..5 {
            store.retain(seq, tuples(10).into(), Technique::Prompt);
        }
        store.expire_through(2);
        assert_eq!(store.len(), 2);
        assert_eq!(store.retained_tuples(), 20);
        assert_eq!(store.recover(1), Err(RecoveryError::Expired { seq: 1 }));
        assert!(store.recover(3).is_ok());
        store.expire_through(10);
        assert!(store.is_empty());
    }

    #[test]
    #[should_panic(expected = "retained in order")]
    fn out_of_order_retention_rejected() {
        let mut store = ReplicatedBatchStore::new(1);
        store.retain(3, tuples(1).into(), Technique::Hash);
        store.retain(2, tuples(1).into(), Technique::Hash);
    }

    #[test]
    fn fault_plan_accounting() {
        let plan = FaultPlan::none().lose_once(3).lose_times(5, 2).lose_once(3);
        assert_eq!(plan.losses_for(3), 2);
        assert_eq!(plan.losses_for(5), 2);
        assert_eq!(plan.losses_for(4), 0);
        assert!(!plan.is_empty());
        assert!(FaultPlan::none().is_empty());
    }

    #[test]
    fn error_display() {
        let e = RecoveryError::Expired { seq: 7 };
        assert!(e.to_string().contains("7"));
        let e = RecoveryError::ReplicasExhausted { seq: 9 };
        assert!(e.to_string().contains("replicas"));
    }
}
