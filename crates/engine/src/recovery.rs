//! Consistency and fault tolerance (§8): the scripted failures a run
//! recovers from.
//!
//! The micro-batch model gets exactly-once semantics *at batch granularity*:
//! the input of every batch is replicated on ingestion, and a batch whose
//! computed state is lost is recomputed from it. Here a batch's replicated
//! input is the plan it carries — its data blocks hold every tuple — so each
//! recovery re-runs that plan, under the Reduce count, technique and routing
//! snapshot the batch was prepared with, and no recovery partitions anything.
//!
//! [`FaultPlan`] injects failures at a batch's commit: losing its state
//! re-runs it once per loss, spending one of its replicas (losing more
//! replicas than exist is fatal); losing the keyed state store rebuilds it
//! from the latest checkpoint and re-runs the committed batches after it,
//! which the driver keeps only while such a loss is scheduled — until they
//! have left every window, or a checkpoint covers them. [`NetFaultPlan`]
//! kills real workers; the driver resubmits the plans in flight.

/// Scripted failure injection for the driver loop.
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    /// For each entry `(seq, times)`: the state of batch `seq` is lost
    /// `times` times at its commit, each loss re-running its plan once.
    pub lose_state: Vec<(u64, usize)>,
    /// Batch sequence numbers at whose commit the *keyed window state* is
    /// lost wholesale (an executor holding the state store dies), before the
    /// batch's output is pushed. The driver restores from the latest
    /// checkpoint and re-runs only the committed batches after its watermark
    /// — or, with no checkpoint, every batch from zero.
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

    /// Lose the whole keyed state store at the commit of batch `seq`.
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

    #[test]
    fn fault_plan_accounting() {
        let plan = FaultPlan::none().lose_once(3).lose_times(5, 2).lose_once(3);
        assert_eq!(plan.losses_for(3), 2);
        assert_eq!(plan.losses_for(5), 2);
        assert_eq!(plan.losses_for(4), 0);
        assert!(!plan.is_empty());
        assert!(FaultPlan::none().is_empty());
    }
}
