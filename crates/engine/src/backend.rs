//! The execution backend, per [`EngineConfig::backend`]: launched, used and
//! shut down by the one run of the batch loop ([`crate::driver`]) it serves.
//!
//! [`BackendRuntime::execute`] is the one place a planned batch is dispatched
//! by backend kind — this process (one executor, one thread or many) or the
//! worker fleet — and its distributed arm is where a worker loss is
//! survived: a single submit→wait path at every pipeline depth (depth 1
//! is a window of one) that, on a loss, charges the recovery and resubmits
//! the plans still in hand. Nothing is re-partitioned, and the retry lands
//! every cluster where the lost attempt did: a batch's assigner is a pure
//! function it carries with its plan, and the fleet runs it at submit, over
//! the plan's own fragment tables. Dispatch is all a backend does:
//! keyed state never leaves the driver ([`crate::state`]), so a key-group
//! migration is not a backend operation.

use prompt_core::batch::PartitionPlan;
use prompt_core::reduce::ReduceAssigner;

use crate::config::{Backend, EngineConfig};
use crate::job::Job;
use crate::net::{DistributedOptions, DistributedRuntime, NetStats, WorkerLoss};
use crate::stage::{times_from_stats, BatchOutput, StageTimes};
use crate::threaded::ThreadedExecutor;
use crate::trace::{Counter, TraceEvent, TraceRecorder};

/// A partitioned batch as a backend sees it: what to run, under which job,
/// into how many Reduce buckets and through which assigner (the count and the
/// technique / routing snapshot the batch was prepared under).
#[derive(Clone, Copy)]
pub(crate) struct Planned<'a> {
    /// The batch's sequence number: in the run, its trace and on the wire.
    pub(crate) seq: u64,
    pub(crate) plan: &'a PartitionPlan,
    pub(crate) job: &'a Job,
    pub(crate) r: usize,
    pub(crate) assigner: &'a dyn ReduceAssigner,
}

/// See the module docs.
pub(crate) enum BackendRuntime {
    /// This process: the one local executor, on the calling thread for
    /// [`Backend::InProcess`] (the default) and on `n` threads for
    /// [`Backend::Threaded`]. Either stamps the Map / scatter / Reduce wall
    /// times it measures into the trace.
    Local(ThreadedExecutor),
    /// Real worker processes/threads over TCP (boxed: the runtime holds
    /// per-worker channels and is much larger than the other variant).
    Distributed(Box<DistributedRuntime>),
}

impl BackendRuntime {
    /// Instantiate `backend` for one run.
    pub(crate) fn launch(backend: Backend) -> BackendRuntime {
        match backend {
            Backend::InProcess => BackendRuntime::Local(ThreadedExecutor::new(1)),
            Backend::Threaded { threads } => BackendRuntime::Local(ThreadedExecutor::new(threads)),
            Backend::Distributed { workers, base_port } => {
                let rt = DistributedRuntime::launch(DistributedOptions::new(workers, base_port))
                    .expect("failed to launch distributed workers");
                BackendRuntime::Distributed(Box::new(rt))
            }
        }
    }

    /// The worker fleet, when the run is distributed.
    pub(crate) fn distributed(&mut self) -> Option<&mut DistributedRuntime> {
        match self {
            BackendRuntime::Distributed(rt) => Some(rt),
            _ => None,
        }
    }

    /// Execute `batch`, returning its output, virtual stage times, and how
    /// many worker losses were survived on the way — at most `budget`.
    ///
    /// Both arms produce bit-identical outputs and virtual
    /// [`StageTimes`] given the same plan and assigner: each reports
    /// raw [`BucketStats`](crate::stage::BucketStats), which
    /// [`times_from_stats`] costs once, after the dispatch.
    ///
    /// On the distributed backend this is where a batch goes on the wire:
    /// `batch` and every `younger` prepared batch not yet in flight are
    /// dispatched (Map tasks, then bucket assignments) before the wait, so a
    /// batch leaves while the loop partitions the next one beside this call.
    /// Waiting drives the shared event pump, which also advances the
    /// younger in-flight batches. A worker lost mid-batch aborts every
    /// unfinished batch of the window: the loss is charged against `budget`
    /// by [`on_worker_loss`] and the window is re-dispatched in batch order
    /// from the plans in hand, each assigned again through the assigner it
    /// carries. Failed attempts contribute no virtual time — virtual time
    /// models the healthy cluster.
    pub(crate) fn execute<'a>(
        &mut self,
        batch: &Planned<'a>,
        younger: impl Iterator<Item = Planned<'a>> + Clone,
        cfg: &EngineConfig,
        rec: &TraceRecorder,
        budget: usize,
    ) -> (BatchOutput, StageTimes, u64) {
        let trace = rec.enabled().then_some(rec);
        let (plan, job, r) = (batch.plan, batch.job, batch.r);
        let mut losses = 0;
        let (output, stats) = match self {
            BackendRuntime::Local(exec) => {
                let (output, stats, wall) = exec.execute_plan(plan, job, batch.assigner, r, trace);
                if let Some(rec) = trace {
                    wall.record(rec, batch.seq);
                }
                (output, stats)
            }
            BackendRuntime::Distributed(rt) => loop {
                // A seq already in flight is skipped; after a loss every
                // batch of the aborted window goes out again.
                for q in std::iter::once(*batch).chain(younger.clone()) {
                    let spec = q
                        .job
                        .wire_spec()
                        .expect("wire-serialisable: checked by Run::new");
                    rt.submit(q.seq, q.plan, &spec, q.assigner, q.r, trace);
                }
                match rt.wait_batch(batch.seq, trace) {
                    Ok(done) => break done,
                    Err(loss) => {
                        losses += 1;
                        on_worker_loss(&loss, batch.seq, losses, budget, rec);
                    }
                }
            },
        };
        let times = times_from_stats(plan, &stats, &cfg.cost, &cfg.cluster);
        (output, times, losses as u64)
    }

    /// Stop the worker fleet, reporting its wire totals.
    pub(crate) fn shutdown(&mut self) -> Option<NetStats> {
        self.distributed().map(|rt| {
            let stats = rt.stats();
            rt.shutdown();
            stats
        })
    }
}

/// Charge the `losses`-th worker loss of one execution (§8): the failed
/// attempt left nothing behind, and the caller resubmits the plan it still
/// holds, so a loss reads no retained input — it only spends the recovery
/// budget, and the run aborts once an execution has lost more than `budget`
/// attempts.
fn on_worker_loss(loss: &WorkerLoss, seq: u64, losses: usize, budget: usize, rec: &TraceRecorder) {
    let Some(replicas_left) = budget.checked_sub(losses) else {
        panic!(
            "worker loss on batch {seq} beyond recovery budget: {losses} losses, budget {budget}"
        );
    };
    rec.incr(Counter::WorkersLost, 1);
    rec.incr(Counter::Recoveries, 1);
    rec.event(TraceEvent::WorkerLost {
        seq,
        worker: loss.worker,
    });
    rec.event(TraceEvent::Recovery { seq, replicas_left });
}
