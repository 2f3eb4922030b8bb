//! The execution backend, per [`EngineConfig::backend`]: launched by whoever
//! drives the batch loop — the solo driver ([`crate::driver`]) for its one
//! `Run`, the multi-tenant engine ([`crate::tenancy`]) for all its tenants'
//! — and lent to each step that dispatches.
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

use prompt_core::reduce::ReduceAssigner;

use crate::config::{Backend, EngineConfig};
use crate::job::Job;
use crate::kernel::PlanView;
use crate::net::{DistributedOptions, DistributedRuntime, NetStats, WorkerLoss};
use crate::stage::{times_from_view, BatchOutput, StageTimes};
use crate::threaded::ThreadedExecutor;
use crate::trace::{Counter, TraceEvent, TraceRecorder};

/// A partitioned batch as a backend sees it: what to run, under which job,
/// into how many Reduce buckets and through which assigner (the count and the
/// technique / routing snapshot the batch was prepared under).
#[derive(Clone, Copy)]
pub(crate) struct Planned<'a> {
    /// Sequence number on the wire (the run's `WireSeqs` mapping of `tseq`).
    pub(crate) seq: u64,
    /// Sequence number traces and the run know the batch by.
    pub(crate) tseq: u64,
    /// The plan, in the layout the batch was sealed in.
    pub(crate) view: PlanView<'a>,
    pub(crate) job: &'a Job,
    pub(crate) r: usize,
    pub(crate) assigner: &'a dyn ReduceAssigner,
}

impl Planned<'_> {
    /// Put the batch's Map tasks and its bucket assignments on the wire; a
    /// no-op while the seq is still in flight.
    fn submit(&self, rt: &mut DistributedRuntime, rec: &TraceRecorder) {
        let spec = self
            .job
            .wire_spec()
            .expect("wire-serialisable: checked by Run::new");
        let trace = rec.enabled().then_some(rec);
        let (seq, tseq) = (self.seq, self.tseq);
        rt.submit(seq, tseq, self.view, &spec, self.assigner, self.r, trace);
    }
}

/// See the module docs.
pub(crate) enum BackendRuntime {
    /// This process: the one local executor, on the calling thread for
    /// [`Backend::InProcess`] (the default) and on `n` threads for
    /// [`Backend::Threaded`] — which also asks for the measured phase times
    /// in the trace (`wall_phases`), the only other thing the two differ in.
    Local {
        exec: ThreadedExecutor,
        wall_phases: bool,
    },
    /// Real worker processes/threads over TCP (boxed: the runtime holds
    /// per-worker channels and is much larger than the other variant).
    Distributed(Box<DistributedRuntime>),
}

impl BackendRuntime {
    /// Instantiate `backend`, for one run or for several sharing it.
    pub(crate) fn launch(backend: Backend) -> BackendRuntime {
        let local = |threads, wall_phases| BackendRuntime::Local {
            exec: ThreadedExecutor::new(threads),
            wall_phases,
        };
        match backend {
            Backend::InProcess => local(1, false),
            Backend::Threaded { threads } => local(threads, true),
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

    /// Eager dispatch: on the distributed backend `batch`'s Map tasks and
    /// assignments go on the wire now, overlapping older in-flight batches'
    /// reduce and wire transfer; its Reduce tasks follow as soon as its own
    /// maps are acked.
    pub(crate) fn submit(&mut self, batch: &Planned<'_>, rec: &TraceRecorder) {
        if let Some(rt) = self.distributed() {
            batch.submit(rt, rec);
        }
    }

    /// Execute `batch`, returning its output, virtual stage times, and how
    /// many worker losses were survived on the way — at most `budget`.
    ///
    /// Both arms produce bit-identical outputs and virtual
    /// [`StageTimes`] given the same plan and assigner: each reports
    /// raw [`BucketStats`](crate::stage::BucketStats), which
    /// [`times_from_view`] costs once, after the dispatch.
    ///
    /// On the distributed backend the batch may already be in flight (maps
    /// dispatched by [`BackendRuntime::submit`]); waiting drives the shared
    /// event pump, which also advances the `younger` in-flight batches. A
    /// worker lost mid-batch aborts every unfinished batch of the window: the
    /// loss is charged against `budget` by [`on_worker_loss`] and the window
    /// is re-dispatched in batch order from the plans in hand, each assigned
    /// again through the assigner it carries. Failed attempts contribute no
    /// virtual time — virtual time models the healthy cluster.
    pub(crate) fn execute<'a>(
        &mut self,
        batch: &Planned<'a>,
        younger: impl Iterator<Item = Planned<'a>> + Clone,
        cfg: &EngineConfig,
        rec: &TraceRecorder,
        budget: usize,
    ) -> (BatchOutput, StageTimes, u64) {
        let trace = rec.enabled().then_some(rec);
        let (view, job, r) = (batch.view, batch.job, batch.r);
        let mut losses = 0;
        let (output, stats) = match self {
            BackendRuntime::Local { exec, wall_phases } => {
                let (output, stats, wall) = exec.execute_view(view, job, batch.assigner, r, trace);
                if let Some(rec) = trace.filter(|_| *wall_phases) {
                    wall.record(rec, batch.tseq);
                }
                (output, stats)
            }
            BackendRuntime::Distributed(rt) => loop {
                // No-ops while the seqs are in flight (or already done);
                // after a loss these re-dispatch the aborted window.
                batch.submit(rt, rec);
                for q in younger.clone() {
                    q.submit(rt, rec);
                }
                match rt.wait_batch(batch.seq, trace) {
                    Ok(done) => break done,
                    Err(loss) => {
                        losses += 1;
                        on_worker_loss(&loss, batch.tseq, losses, budget, rec);
                    }
                }
            },
        };
        let times = times_from_view(view, &stats, &cfg.cost, &cfg.cluster);
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
