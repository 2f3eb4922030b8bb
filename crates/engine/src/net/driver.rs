//! The driver side of the distributed runtime: worker lifecycle, the
//! per-batch Map → shuffle-assign → Reduce protocol, and failure detection.
//!
//! [`DistributedRuntime::launch`] binds the control listener, spawns `N`
//! local workers (separate processes running the `prompt-worker` binary, or
//! in-process threads as a fallback), collects their registrations and
//! starts one reader thread per worker that funnels every inbound message
//! into a single channel.
//!
//! Batches move through an explicit in-flight state machine, `Mapping →
//! Reducing → Done` (`submit` / `wait_batch`;
//! [`DistributedRuntime::execute_batch`] is the submit-then-wait
//! convenience for one batch at a time):
//!
//! 1. `submit` fans Map tasks out round-robin over live workers (each
//!    carries its data block on the wire) and, behind them on the same FIFO
//!    control streams, every block's bucket assignment (`ShuffleAssign`).
//!    Algorithm 3 needs no reply for that: every wire-expressible Map keeps
//!    every tuple under its own key ([`crate::job::MapSpec`]), so a block's
//!    fragment table — already in the plan — *is* its Map output's
//!    `(key, count)` table. An assignment is a pure function of one block's
//!    table and its block index, so batches need no ordering among
//!    themselves and several may be mapping at once. Assigning also tallies
//!    each bucket's tuples and fragments: with the reply's key count, they
//!    are the bucket's [`BucketStats`];
//! 2. a worker acks a block once its assignment has filed it, so the moment
//!    a batch's last `MapComplete` is back every source holds the batch and
//!    its Reduce tasks fan out, each fetching its bucket from the map
//!    workers' shuffle listeners;
//! 3. `ReduceComplete` aggregates are merged into the batch output, taken
//!    by `wait_batch` in strict submission order.
//!
//! All progress is driven from one event pump: every worker's inbound
//! messages funnel into a single channel (one blocking reader thread per
//! connection stands in for poll(2) readiness on a std-only build), and
//! the pump blocks with an *exact* timeout — the earliest of the
//! heartbeat-liveness deadlines and the in-flight stage deadlines — never
//! a fixed polling period. The in-flight window is the only thing the pump
//! ever waits for: keyed state lives in the driver's store (`crate::state`),
//! so a scale action or a key-group migration sends the fleet nothing.
//!
//! Failure is detected organically — a broken control connection, a
//! heartbeat that stops, a worker blaming an unreachable shuffle source —
//! and reported as [`WorkerLoss`], leaving the caller to resubmit the
//! aborted batches (their plans are unchanged). A retry simply assigns
//! again and gets the same buckets; what an aborted attempt had tallied for
//! the shuffle counters is dropped with it, so a batch is counted once.

use std::net::{Ipv4Addr, SocketAddrV4, TcpListener, TcpStream};
use std::path::PathBuf;
use std::process::{Child, Command};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::time::{Duration as WallDuration, Instant};

use prompt_core::batch::PartitionPlan;
use prompt_core::reduce::ReduceAssigner;
use prompt_core::types::Key;

use super::transport::{FrameConn, NetCounters, NetError, RetryPolicy};
use super::wire::{FetchStats, Message, ShuffleSource};
use super::worker::{run_worker, WorkerOptions};
use crate::job::JobSpec;
use crate::kernel::{assign_block, gather_buckets, PlanView, ShuffleTally};
use crate::recovery::{FaultPoint, NetFaultPlan};
use crate::stage::{BatchOutput, BucketStats};
use crate::trace::{Counter, StageKind, TraceRecorder};

/// How workers are spawned.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum LaunchMode {
    /// Use worker processes when a `prompt-worker` binary can be found
    /// (explicit path, `PROMPT_WORKER_BIN`, or next to the current
    /// executable), in-process threads otherwise.
    #[default]
    Auto,
    /// Require worker processes; launching fails without a binary.
    Process,
    /// Always run workers as in-process threads (tests, constrained
    /// environments). Still exercises the full TCP protocol on loopback.
    Thread,
}

/// Configuration of a [`DistributedRuntime`].
#[derive(Clone, Debug)]
pub struct DistributedOptions {
    /// Number of workers to spawn.
    pub workers: usize,
    /// Control-plane listen port on loopback; `0` picks an ephemeral port.
    pub base_port: u16,
    /// Process vs thread workers.
    pub launch: LaunchMode,
    /// Explicit path to the worker binary (overrides discovery).
    pub worker_bin: Option<PathBuf>,
    /// Heartbeat period workers are told to keep.
    pub heartbeat_interval: WallDuration,
    /// Silence longer than this declares a worker lost.
    pub heartbeat_timeout: WallDuration,
    /// Overall deadline for each collection phase of a batch.
    pub io_timeout: WallDuration,
    /// Connect-retry policy (driver dial and worker registration wait).
    pub retry: RetryPolicy,
}

impl DistributedOptions {
    /// Defaults for `workers` workers on `base_port` (0 = ephemeral).
    pub fn new(workers: usize, base_port: u16) -> DistributedOptions {
        DistributedOptions {
            workers,
            base_port,
            launch: LaunchMode::Auto,
            worker_bin: None,
            heartbeat_interval: WallDuration::from_millis(100),
            heartbeat_timeout: WallDuration::from_secs(3),
            io_timeout: WallDuration::from_secs(30),
            retry: RetryPolicy::default(),
        }
    }
}

/// A worker was declared lost while a batch was in flight. The batch left
/// nothing behind (no output, no counters); resubmit it.
#[derive(Debug)]
pub struct WorkerLoss {
    /// The lost worker's id.
    pub worker: u32,
    /// How the loss was detected.
    pub detail: String,
}

impl std::fmt::Display for WorkerLoss {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "worker {} lost: {}", self.worker, self.detail)
    }
}

impl std::error::Error for WorkerLoss {}

/// Wire-traffic totals of one distributed run, as seen from the driver.
///
/// The byte/frame counters sum the driver's control connections, lost
/// workers' included (task dispatch including data blocks, replies,
/// heartbeats). Worker-to-worker shuffle fetches happen on the workers' own
/// sockets, invisible to the driver — the `shuffle_*` fields instead
/// aggregate (saturating) the [`FetchStats`] every reducing worker reports on
/// `ReduceComplete`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Bytes the driver wrote.
    pub bytes_sent: u64,
    /// Bytes the driver read.
    pub bytes_received: u64,
    /// Frames the driver wrote.
    pub frames_sent: u64,
    /// Frames the driver read.
    pub frames_received: u64,
    /// Shuffle connections dialed by reducing workers (pool misses).
    pub shuffle_conns_dialed: u64,
    /// Pooled shuffle connections reused by reducing workers (pool hits).
    pub shuffle_conns_reused: u64,
    /// Wall-clock µs workers spent waiting on shuffle fetches (summed over
    /// tasks; concurrent fetches overlap, so this exceeds elapsed time).
    pub shuffle_wait_us: u64,
    /// Fetch-reply bytes received by workers.
    pub shuffle_bytes_wire: u64,
    /// Workers declared lost over the run.
    pub workers_lost: u64,
}

/// Handle to a spawned worker.
#[derive(Debug)]
enum WorkerHandle {
    Process(Child),
    Thread(Option<std::thread::JoinHandle<Result<(), NetError>>>),
}

#[derive(Debug)]
struct WorkerSlot {
    id: u32,
    /// Write half of the control connection (reads happen on the reader
    /// thread's clone, which counts into the same ledger).
    conn: FrameConn,
    /// The worker's shuffle listener.
    shuffle: SocketAddrV4,
    handle: WorkerHandle,
    alive: bool,
    last_seen: Instant,
}

/// Where an in-flight batch is in its lifecycle.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Stage {
    /// Map tasks and assignments dispatched; collecting the `MapComplete`s
    /// that say each block is filed.
    Mapping,
    /// Reduce tasks dispatched; collecting `ReduceComplete`s.
    Reducing,
    /// Output merged and ready for [`DistributedRuntime::wait_batch`].
    Done,
}

/// One batch in flight between `submit` and `wait_batch`.
struct Inflight {
    seq: u64,
    /// Seq used for trace phases (tenancy runs batches under namespaced
    /// wire seqs but records traces under the tenant-local seq).
    tseq: u64,
    epoch: u32,
    r: usize,
    spec: JobSpec,
    /// Live workers at submission, the fan-out targets.
    owners: Vec<u32>,
    /// Worker that mapped each block (shuffle sources).
    block_owner: Vec<u32>,
    /// Which blocks' `MapComplete` is in.
    mapped: Vec<bool>,
    outstanding_maps: usize,
    /// Each bucket's key-sorted aggregates, once its reply is in.
    buckets: Vec<Option<Vec<(Key, f64)>>>,
    outstanding_reduces: usize,
    stage: Stage,
    /// Current collection phase's overall deadline.
    deadline: Instant,
    t_map: Instant,
    t_reduce: Instant,
    output: BatchOutput,
    /// Each bucket's tuples and fragments, tallied from the assignment at
    /// submit; `keys` is its reply's length, set at gather.
    stats: Vec<BucketStats>,
    /// What this attempt's shuffle routed: taken at submit, recorded when it
    /// reaches `Done`.
    tally: ShuffleTally,
}

/// A running fleet of local workers executing batches over TCP.
pub struct DistributedRuntime {
    opts: DistributedOptions,
    slots: Vec<WorkerSlot>,
    rx: Receiver<(u32, Result<Message, NetError>)>,
    /// Kept so the channel never disconnects even if every reader exits.
    _tx: Sender<(u32, Result<Message, NetError>)>,
    epoch: u32,
    fault: NetFaultPlan,
    workers_lost: u64,
    /// Shuffle-plane totals reported by workers on `ReduceComplete`.
    shuffle: FetchStats,
    shut_down: bool,
    /// Batches between `submit` and `wait_batch`; looked up by seq, in no
    /// particular order.
    inflight: Vec<Inflight>,
    /// A loss detected while dispatching inside `submit`, surfaced by the
    /// next `wait_batch`.
    pending_loss: Option<WorkerLoss>,
}

impl std::fmt::Debug for DistributedRuntime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DistributedRuntime")
            .field("workers", &self.slots.len())
            .field("alive", &self.workers_alive())
            .field("epoch", &self.epoch)
            .finish()
    }
}

/// Find a worker binary: explicit option, `PROMPT_WORKER_BIN`, or a
/// `prompt-worker` next to (or one directory above, for test binaries in
/// `target/<profile>/deps/`) the current executable.
fn resolve_worker_bin(opts: &DistributedOptions) -> Option<PathBuf> {
    if let Some(p) = &opts.worker_bin {
        return Some(p.clone());
    }
    if let Ok(p) = std::env::var("PROMPT_WORKER_BIN") {
        if !p.is_empty() {
            return Some(PathBuf::from(p));
        }
    }
    let exe = std::env::current_exe().ok()?;
    let dir = exe.parent()?;
    let name = format!("prompt-worker{}", std::env::consts::EXE_SUFFIX);
    [dir.join(&name), dir.parent().map(|d| d.join(&name))?]
        .into_iter()
        .find(|cand| cand.is_file())
}

impl DistributedRuntime {
    /// Spawn and register the workers. Blocks until every worker has
    /// registered (bounded by `opts.io_timeout`).
    pub fn launch(opts: DistributedOptions) -> Result<DistributedRuntime, NetError> {
        assert!(opts.workers >= 1, "need at least one worker");
        let listener = TcpListener::bind(("127.0.0.1", opts.base_port))?;
        let addr = listener.local_addr()?;

        let bin = match opts.launch {
            LaunchMode::Thread => None,
            LaunchMode::Auto => resolve_worker_bin(&opts),
            LaunchMode::Process => Some(resolve_worker_bin(&opts).ok_or_else(|| {
                NetError::Protocol(
                    "LaunchMode::Process but no prompt-worker binary found \
                     (set PROMPT_WORKER_BIN or DistributedOptions::worker_bin)"
                        .into(),
                )
            })?),
        };

        let mut handles: Vec<WorkerHandle> = Vec::with_capacity(opts.workers);
        for id in 0..opts.workers as u32 {
            let handle = match &bin {
                Some(bin) => {
                    let child = Command::new(bin)
                        .arg("--driver")
                        .arg(addr.to_string())
                        .arg("--worker")
                        .arg(id.to_string())
                        .stdin(std::process::Stdio::null())
                        .spawn();
                    match child {
                        Ok(c) => WorkerHandle::Process(c),
                        Err(e) => {
                            for h in &mut handles {
                                if let WorkerHandle::Process(c) = h {
                                    let _ = c.kill();
                                    let _ = c.wait();
                                }
                            }
                            return Err(NetError::Io(e));
                        }
                    }
                }
                None => {
                    let retry = opts.retry;
                    WorkerHandle::Thread(Some(std::thread::spawn(move || {
                        run_worker(addr, WorkerOptions { worker: id, retry })
                    })))
                }
            };
            handles.push(handle);
        }

        match Self::register_all(&listener, &opts, handles) {
            Ok(slots) => {
                let (tx, rx) = std::sync::mpsc::channel();
                for slot in &slots {
                    let mut reader = slot.conn.try_clone()?;
                    reader.set_read_timeout(None)?;
                    let tx = tx.clone();
                    let id = slot.id;
                    std::thread::spawn(move || loop {
                        match reader.recv() {
                            Ok(msg) => {
                                if tx.send((id, Ok(msg))).is_err() {
                                    return;
                                }
                            }
                            Err(e) if e.is_timeout() => continue,
                            Err(e) => {
                                let _ = tx.send((id, Err(e)));
                                return;
                            }
                        }
                    });
                }
                Ok(DistributedRuntime {
                    opts,
                    slots,
                    rx,
                    _tx: tx,
                    epoch: 0,
                    fault: NetFaultPlan::none(),
                    workers_lost: 0,
                    shuffle: FetchStats::default(),
                    shut_down: false,
                    inflight: Vec::new(),
                    pending_loss: None,
                })
            }
            Err((mut handles, e)) => {
                for h in &mut handles {
                    if let WorkerHandle::Process(c) = h {
                        let _ = c.kill();
                        let _ = c.wait();
                    }
                    // Thread workers exit on their own once the listener and
                    // any accepted connections drop.
                }
                Err(e)
            }
        }
    }

    /// Accept and ack `Register` from every spawned worker, pairing each
    /// with its handle. On failure returns the handles for cleanup.
    ///
    /// An acceptor thread owns a (blocking) clone of the listener and
    /// feeds accepted streams over a channel; this thread waits on the
    /// channel with the exact registration deadline instead of
    /// sleep-polling a nonblocking accept. The acceptor is terminated by
    /// a stop flag plus a self-connect wakeup.
    fn register_all(
        listener: &TcpListener,
        opts: &DistributedOptions,
        handles: Vec<WorkerHandle>,
    ) -> Result<Vec<WorkerSlot>, (Vec<WorkerHandle>, NetError)> {
        let n = opts.workers;
        let mut registered: Vec<Option<(FrameConn, SocketAddrV4)>> = Vec::new();
        registered.resize_with(n, || None);
        let mut pending = n;
        let deadline = Instant::now() + opts.io_timeout;

        let addr = match listener.local_addr() {
            Ok(a) => a,
            Err(e) => return Err((handles, e.into())),
        };
        let accept_stop = Arc::new(AtomicBool::new(false));
        let (atx, arx) = std::sync::mpsc::channel::<std::io::Result<TcpStream>>();
        let acceptor = {
            let listener = match listener.try_clone() {
                Ok(l) => l,
                Err(e) => return Err((handles, e.into())),
            };
            let stop = Arc::clone(&accept_stop);
            std::thread::spawn(move || loop {
                match listener.accept() {
                    Ok((stream, _)) => {
                        if stop.load(Ordering::SeqCst) {
                            return; // the wakeup self-connect
                        }
                        if atx.send(Ok(stream)).is_err() {
                            return;
                        }
                    }
                    Err(e) => {
                        let _ = atx.send(Err(e));
                        return;
                    }
                }
            })
        };

        let outcome = (|| -> Result<(), NetError> {
            while pending > 0 {
                let timeout = deadline.saturating_duration_since(Instant::now());
                let stream = match arx.recv_timeout(timeout) {
                    Ok(Ok(stream)) => stream,
                    Ok(Err(e)) => return Err(e.into()),
                    Err(RecvTimeoutError::Timeout) => {
                        return Err(NetError::Protocol(format!(
                            "timed out waiting for {pending} of {n} workers to register"
                        )))
                    }
                    Err(RecvTimeoutError::Disconnected) => {
                        return Err(NetError::Protocol("registration acceptor exited".into()))
                    }
                };
                let mut conn = FrameConn::new(stream);
                conn.set_read_timeout(Some(opts.io_timeout))?;
                let (worker, shuffle) = match conn.recv()? {
                    Message::Register {
                        worker,
                        shuffle_port,
                    } => {
                        if worker as usize >= n {
                            return Err(NetError::Protocol(format!(
                                "registration from unknown worker {worker}"
                            )));
                        }
                        conn.send(&Message::RegisterAck {
                            heartbeat_ms: opts.heartbeat_interval.as_millis().max(1) as u32,
                        })?;
                        (worker, SocketAddrV4::new(Ipv4Addr::LOCALHOST, shuffle_port))
                    }
                    other => {
                        return Err(NetError::Protocol(format!(
                            "expected register, got {}",
                            other.kind()
                        )))
                    }
                };
                let slot = &mut registered[worker as usize];
                if slot.is_some() {
                    return Err(NetError::Protocol(format!(
                        "worker {worker} registered twice"
                    )));
                }
                *slot = Some((conn, shuffle));
                pending -= 1;
            }
            Ok(())
        })();

        accept_stop.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(addr); // unblock the acceptor's accept()
        let _ = acceptor.join();
        if let Err(e) = outcome {
            return Err((handles, e));
        }

        let now = Instant::now();
        let slots = handles
            .into_iter()
            .enumerate()
            .map(|(id, handle)| {
                let (conn, shuffle) = registered[id].take().expect("all registered");
                WorkerSlot {
                    id: id as u32,
                    conn,
                    shuffle,
                    handle,
                    alive: true,
                    last_seen: now,
                }
            })
            .collect();
        Ok(slots)
    }

    /// Number of workers still considered alive.
    pub fn workers_alive(&self) -> usize {
        self.slots.iter().filter(|s| s.alive).count()
    }

    /// Install the scripted kill plan (replaces any previous plan), or
    /// refuse it, installing nothing, when a kill names a worker the fleet
    /// does not have.
    pub fn set_fault_plan(&mut self, plan: NetFaultPlan) -> Result<(), String> {
        let n = self.slots.len();
        if let Some(kill) = plan.kills.iter().find(|k| k.worker as usize >= n) {
            return Err(format!(
                "kill plan names worker {} of batch {}, but the fleet has {n} workers",
                kill.worker, kill.seq
            ));
        }
        self.fault = plan;
        Ok(())
    }

    /// Driver-side wire totals, worker-reported shuffle totals, and loss
    /// count so far.
    pub fn stats(&self) -> NetStats {
        let sum = |count: fn(&NetCounters) -> u64| -> u64 {
            self.slots.iter().map(|s| count(s.conn.counters())).sum()
        };
        NetStats {
            bytes_sent: sum(NetCounters::bytes_sent),
            bytes_received: sum(NetCounters::bytes_received),
            frames_sent: sum(NetCounters::frames_sent),
            frames_received: sum(NetCounters::frames_received),
            shuffle_conns_dialed: self.shuffle.dialed,
            shuffle_conns_reused: self.shuffle.reused,
            shuffle_wait_us: self.shuffle.wait_us,
            shuffle_bytes_wire: self.shuffle.bytes_wire,
            workers_lost: self.workers_lost,
        }
    }

    /// Terminate a worker without declaring it lost — the crash is meant to
    /// be *detected* (reader error, heartbeat silence), exactly like an
    /// unannounced real failure. Public for fault-injection tests.
    pub fn inject_kill(&mut self, worker: u32) {
        let slot = &mut self.slots[worker as usize];
        slot.conn.shutdown();
        match &mut slot.handle {
            WorkerHandle::Process(child) => {
                let _ = child.kill();
                let _ = child.wait();
            }
            WorkerHandle::Thread(h) => {
                // The control-connection shutdown above unblocks the worker
                // thread's recv; it then stops its shuffle plane and exits.
                if let Some(h) = h.take() {
                    let _ = h.join();
                }
            }
        }
    }

    /// Mark `worker` lost (idempotent) and build the loss report.
    fn declare_lost(&mut self, worker: u32, detail: String) -> WorkerLoss {
        if let Some(slot) = self.slots.get(worker as usize) {
            if slot.alive {
                self.slots[worker as usize].alive = false;
                self.workers_lost += 1;
                self.inject_kill(worker);
            }
        }
        WorkerLoss { worker, detail }
    }

    /// `sender` said something about batch `seq` no worker following the
    /// protocol could — completed a task it was never given (or that does not
    /// exist), blamed a peer that is not there: nothing it says can be
    /// trusted, so it is lost.
    fn protocol_violation(&mut self, sender: u32, what: &str, id: u32, seq: u64) -> WorkerLoss {
        let detail = format!("protocol violation: {what} {id} of batch {seq}");
        self.declare_lost(sender, detail)
    }

    /// Remove and return the scripted kills for (`seq`, `point`) so each
    /// fires exactly once even when the batch is re-executed.
    fn take_kills(&mut self, seq: u64, point: FaultPoint) -> Vec<u32> {
        let mut fired = Vec::new();
        self.fault.kills.retain(|f| {
            if f.seq == seq && f.point == point {
                fired.push(f.worker);
                false
            } else {
                true
            }
        });
        fired
    }

    fn send_to(&mut self, worker: u32, msg: &Message) -> Result<(), WorkerLoss> {
        let kind = msg.kind();
        match self.slots[worker as usize].conn.send(msg) {
            Ok(()) => Ok(()),
            Err(e) => Err(self.declare_lost(worker, format!("send of {kind} failed: {e}"))),
        }
    }

    /// Any alive worker gone silent past the heartbeat timeout?
    fn check_heartbeats(&mut self) -> Result<(), WorkerLoss> {
        let timeout = self.opts.heartbeat_timeout;
        let silent = self
            .slots
            .iter()
            .find(|s| s.alive && s.last_seen.elapsed() > timeout)
            .map(|s| s.id);
        match silent {
            Some(w) => Err(self.declare_lost(w, "heartbeat timeout".into())),
            None => Ok(()),
        }
    }

    /// One blocking wait on the event channel with an *exact* timeout: the
    /// earlier of `overall` and the next heartbeat-liveness deadline.
    /// Heartbeats refresh liveness and are consumed here; every failure
    /// signal (reader error of a live worker, heartbeat silence, `overall`
    /// expiring with `label_seq` blamed on the quietest worker) becomes
    /// `Err(WorkerLoss)`. Anything else is returned to the caller, with the
    /// worker it came from.
    fn recv_deadline(
        &mut self,
        overall: Instant,
        label_seq: u64,
    ) -> Result<(u32, Message), WorkerLoss> {
        loop {
            self.check_heartbeats()?;
            let now = Instant::now();
            let next_hb = self
                .slots
                .iter()
                .filter(|s| s.alive)
                .map(|s| s.last_seen + self.opts.heartbeat_timeout)
                .min();
            let wake = next_hb.map_or(overall, |hb| overall.min(hb));
            match self.rx.recv_timeout(wake.saturating_duration_since(now)) {
                Ok((w, Ok(msg))) => {
                    if let Some(slot) = self.slots.get_mut(w as usize) {
                        slot.last_seen = Instant::now();
                    }
                    if matches!(msg, Message::Heartbeat) {
                        continue;
                    }
                    return Ok((w, msg));
                }
                Ok((w, Err(e))) => {
                    let alive = self.slots.get(w as usize).map(|s| s.alive).unwrap_or(false);
                    if alive {
                        return Err(self.declare_lost(w, format!("connection lost: {e}")));
                    }
                    // Reader of an already-declared worker winding down.
                }
                Err(RecvTimeoutError::Timeout) => {
                    if Instant::now() > overall {
                        // Deadlock breaker: blame the quietest worker.
                        let w = self
                            .slots
                            .iter()
                            .filter(|s| s.alive)
                            .min_by_key(|s| s.last_seen)
                            .map(|s| s.id)
                            .expect("at least one alive worker while waiting");
                        return Err(
                            self.declare_lost(w, format!("batch {label_seq} collection timed out"))
                        );
                    }
                    // A heartbeat-liveness deadline fired; re-check at top.
                }
                Err(RecvTimeoutError::Disconnected) => {
                    unreachable!("runtime holds a sender; channel cannot disconnect")
                }
            }
        }
    }

    /// Dispatch one batch's Map tasks and bucket assignments without waiting
    /// for anything — the entry point of the in-flight state machine. Several
    /// batches may be submitted back to back; their results are taken in
    /// submission order via `wait_batch`. A columnar plan's frames are
    /// encoded straight from its arena slices and are byte-identical to its
    /// row rendering's — so are the workers' view, the protocol state machine
    /// and the results.
    ///
    /// Resubmitting a seq that is still in flight (a completed-but-untaken
    /// batch surviving a loss abort) is a no-op, as is submitting after a
    /// loss was detected mid-dispatch (the loss surfaces on the next
    /// `wait_batch`).
    ///
    /// # Panics
    ///
    /// Panics when no workers are left alive — with nothing to run on,
    /// recompute-and-retry cannot make progress.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn submit(
        &mut self,
        seq: u64,
        tseq: u64,
        view: PlanView<'_>,
        spec: &JobSpec,
        assigner: &dyn ReduceAssigner,
        r: usize,
        trace: Option<&TraceRecorder>,
    ) {
        if self.pending_loss.is_some() || self.inflight.iter().any(|e| e.seq == seq) {
            return;
        }
        if let Err(loss) = self.dispatch_maps(seq, tseq, view, spec, assigner, r, trace) {
            self.abort_unfinished();
            self.pending_loss = Some(loss);
        }
    }

    /// The fan-out: epoch bump, scripted pre-map kills, round-robin
    /// ownership, one Map frame per block, then Algorithm 3 over each block's
    /// fragment table and one assignment frame per block, the in-flight
    /// record. All Map frames go first, so no worker waits on the driver's
    /// assigning. Each routed cluster adds its tuples and one fragment to its
    /// bucket's stats: the merge a reducer runs counts exactly that.
    #[allow(clippy::too_many_arguments)]
    fn dispatch_maps(
        &mut self,
        seq: u64,
        tseq: u64,
        view: PlanView<'_>,
        spec: &JobSpec,
        assigner: &dyn ReduceAssigner,
        r: usize,
        trace: Option<&TraceRecorder>,
    ) -> Result<(), WorkerLoss> {
        let n_blocks = view.n_blocks();
        self.epoch += 1;
        let epoch = self.epoch;

        // Scripted pre-batch kills: the worker dies unannounced; dispatch
        // proceeds and the loss is detected like any real crash.
        for w in self.take_kills(seq, FaultPoint::BeforeMap) {
            self.inject_kill(w);
        }

        let alive = self.slots.iter().filter(|s| s.alive);
        let owners: Vec<u32> = alive.map(|s| s.id).collect();
        assert!(
            !owners.is_empty(),
            "all distributed workers lost; batch {seq} cannot execute"
        );

        let t_map = Instant::now();
        let mut block_owner = Vec::with_capacity(n_blocks);
        for i in 0..n_blocks {
            let w = owners[i % owners.len()];
            block_owner.push(w);
            let frame = view.encode_map_task(i, seq, epoch, spec);
            if let Err(e) = self.slots[w as usize].conn.send_frame(&frame) {
                return Err(self.declare_lost(w, format!("send of map_task failed: {e}")));
            }
        }
        let t_scatter = Instant::now();
        let mut tally = ShuffleTally::default();
        let mut stats = vec![BucketStats::default(); r];
        let mut descs = Vec::new();
        for (i, &w) in block_owner.iter().enumerate() {
            let fragments = view.fragments(i);
            let clusters = fragments.iter().map(|f| (f.key, f.count));
            let tally = trace.and(Some(&mut tally));
            let split = view.split_keys();
            let assignment = assign_block(i, clusters, split, assigner, r, tally, &mut descs);
            for (f, &b) in fragments.iter().zip(&assignment) {
                stats[b].tuples += f.count;
                stats[b].fragments += 1;
            }
            let assign = Message::ShuffleAssign {
                seq,
                epoch,
                block_id: i as u32,
                assignment: assignment.into_iter().map(|b| b as u32).collect(),
            };
            self.send_to(w, &assign)?;
        }
        if let Some(rec) = trace {
            rec.phase(tseq, StageKind::Scatter, wall(t_scatter.elapsed()));
        }
        self.inflight.push(Inflight {
            seq,
            tseq,
            epoch,
            r,
            spec: *spec,
            owners,
            block_owner,
            mapped: vec![false; n_blocks],
            outstanding_maps: n_blocks,
            buckets: vec![None; r],
            outstanding_reduces: r,
            stage: Stage::Mapping,
            deadline: Instant::now() + self.opts.io_timeout,
            t_map,
            t_reduce: t_map,
            output: BatchOutput::default(),
            stats,
            tally,
        });
        Ok(())
    }

    /// Drop every in-flight batch that has not completed. Completed results
    /// stay available for `wait_batch`.
    fn abort_unfinished(&mut self) {
        self.inflight.retain(|e| e.stage == Stage::Done);
    }

    /// Block until batch `seq` completes and take its result.
    ///
    /// Runs the serial engine's exact logical pipeline over the wire; given
    /// the same plans, assigners and `r`, the outputs and per-bucket stats
    /// are bit-identical to [`crate::stage::execute_batch`]'s at any
    /// pipeline depth. Younger in-flight batches keep advancing during the
    /// wait.
    ///
    /// On `Err(WorkerLoss)` every unfinished in-flight batch was aborted
    /// (completed-but-untaken results survive); resubmit the aborted batches
    /// and wait again.
    pub(crate) fn wait_batch(
        &mut self,
        seq: u64,
        trace: Option<&TraceRecorder>,
    ) -> Result<(BatchOutput, Vec<BucketStats>), WorkerLoss> {
        loop {
            if let Some(loss) = self.pending_loss.take() {
                return Err(loss);
            }
            let Some(i) = self.inflight.iter().position(|e| e.seq == seq) else {
                panic!("wait_batch({seq}) without a submitted batch");
            };
            if self.inflight[i].stage == Stage::Done {
                let done = self.inflight.remove(i);
                return Ok((done.output, done.stats));
            }
            if let Err(loss) = self.pump_event(trace) {
                self.abort_unfinished();
                return Err(loss);
            }
        }
    }

    /// Batch `i`'s maps are all acked (its assignments went out at submit):
    /// fan the Reduce tasks out.
    fn begin_reduce(&mut self, i: usize) -> Result<(), WorkerLoss> {
        let t_reduce = Instant::now();
        let e = &self.inflight[i];
        let (seq, epoch, r, reduce) = (e.seq, e.epoch, e.r, e.spec.reduce);
        let owners = e.owners.clone();
        let mut src_ids = e.block_owner.clone();
        src_ids.sort_unstable();
        src_ids.dedup();
        let sources: Vec<ShuffleSource> = src_ids
            .iter()
            .map(|&w| ShuffleSource {
                worker: w,
                addr: self.slots[w as usize].shuffle,
            })
            .collect();
        for b in 0..r {
            self.send_to(
                owners[b % owners.len()],
                &Message::ReduceTask {
                    seq,
                    epoch,
                    bucket: b as u32,
                    reduce,
                    sources: sources.clone(),
                },
            )?;
        }
        let e = &mut self.inflight[i];
        e.stage = Stage::Reducing;
        e.deadline = Instant::now() + self.opts.io_timeout;
        e.t_reduce = t_reduce;
        Ok(())
    }

    /// Wait for one event and apply it to the in-flight window.
    fn pump_event(&mut self, trace: Option<&TraceRecorder>) -> Result<(), WorkerLoss> {
        let (overall, label_seq) = self
            .inflight
            .iter()
            .filter(|e| e.stage != Stage::Done)
            .map(|e| (e.deadline, e.seq))
            .min_by_key(|&(d, _)| d)
            .expect("pump with nothing to wait for");
        let (sender, msg) = self.recv_deadline(overall, label_seq)?;
        match msg {
            Message::MapComplete {
                seq,
                epoch,
                block_id,
            } => {
                let Some(i) = self
                    .inflight
                    .iter()
                    .position(|e| e.seq == seq && e.epoch == epoch && e.stage == Stage::Mapping)
                else {
                    return Ok(()); // stale attempt's reply
                };
                // `block_id` is off the wire: only the worker the block was
                // sent to may report it.
                if self.inflight[i].block_owner.get(block_id as usize) != Some(&sender) {
                    return Err(self.protocol_violation(
                        sender,
                        "completed map task",
                        block_id,
                        seq,
                    ));
                }
                let e = &mut self.inflight[i];
                if !std::mem::replace(&mut e.mapped[block_id as usize], true) {
                    e.outstanding_maps -= 1;
                }
                if e.outstanding_maps > 0 {
                    return Ok(());
                }
                if let Some(rec) = trace {
                    rec.phase(e.tseq, StageKind::MapStage, wall(e.t_map.elapsed()));
                }
                // Scripted mid-batch kills: the worker's un-fetched map
                // outputs die with it. Detection is organic — the next send
                // to it fails, or its reader error is pumped.
                for w in self.take_kills(seq, FaultPoint::AfterMap) {
                    self.inject_kill(w);
                }
                self.begin_reduce(i)?;
            }
            Message::ReduceComplete {
                seq,
                epoch,
                bucket,
                aggregates,
                net,
            } => {
                let Some(i) = self
                    .inflight
                    .iter()
                    .position(|e| e.seq == seq && e.epoch == epoch && e.stage != Stage::Done)
                else {
                    return Ok(()); // stale attempt's reply
                };
                // Likewise `bucket`: only the worker the task was sent to —
                // and while the batch is `Mapping` no Reduce task of this
                // epoch exists at all.
                let e = &self.inflight[i];
                let reducer = e.owners[bucket as usize % e.owners.len()];
                if e.stage == Stage::Mapping || bucket as usize >= e.r || reducer != sender {
                    let what = "completed reduce task";
                    return Err(self.protocol_violation(sender, what, bucket, seq));
                }
                let e = &mut self.inflight[i];
                let slot = &mut e.buckets[bucket as usize];
                if slot.is_some() {
                    return Ok(());
                }
                *slot = Some(aggregates);
                e.outstanding_reduces -= 1;
                self.shuffle.absorb(net);
                if let Some(rec) = trace {
                    rec.incr(Counter::ShuffleConnsDialed, net.dialed);
                    rec.incr(Counter::ShuffleConnsReused, net.reused);
                    rec.incr(Counter::ShuffleWaitUs, net.wait_us);
                    rec.incr(Counter::ShuffleBytesWire, net.bytes_wire);
                }
                let e = &mut self.inflight[i];
                if e.outstanding_reduces > 0 {
                    return Ok(());
                }
                let replies = e.buckets.drain(..).zip(&e.stats).map(|(aggs, s)| {
                    let aggs = aggs.expect("all reduce completes collected");
                    let keys = aggs.len();
                    (aggs, BucketStats { keys, ..*s })
                });
                // Two buckets answering for one key cannot both be honest;
                // the reducer of the later bucket is lost.
                (e.output, e.stats) = match gather_buckets(replies) {
                    Ok(gathered) => gathered,
                    Err((b, key)) => {
                        let reducer = e.owners[b % e.owners.len()];
                        let what = &format!("key {key:?} reduced in two buckets; bucket");
                        return Err(self.protocol_violation(reducer, what, b as u32, seq));
                    }
                };
                e.stage = Stage::Done;
                if let Some(rec) = trace {
                    rec.phase(e.tseq, StageKind::ReduceStage, wall(e.t_reduce.elapsed()));
                    e.tally.record(rec);
                }
                // Commit: let the workers drop the batch's shuffle state. A
                // send failure here is a loss for a later pump to discover —
                // this batch is already complete.
                for slot in self.slots.iter_mut().filter(|s| s.alive) {
                    let _ = slot.conn.send(&Message::BatchDone { seq });
                }
            }
            Message::WorkerError {
                seq,
                epoch,
                blame,
                detail,
            } => {
                let current = self
                    .inflight
                    .iter()
                    .any(|e| e.seq == seq && e.epoch == epoch && e.stage != Stage::Done);
                if !current {
                    return Ok(()); // a stale attempt's failure; already handled
                }
                // `blame` is off the wire too: losing "a worker" that has no
                // slot, or is already lost, would abort the window and charge
                // a recovery with nobody gone — as often as the peer repeats.
                let live = self.slots.get(blame as usize).is_some_and(|s| s.alive);
                return Err(if live {
                    self.declare_lost(blame, format!("worker {sender} reported: {detail}"))
                } else {
                    self.protocol_violation(sender, "blamed absent worker", blame, seq)
                });
            }
            _ => {}
        }
        Ok(())
    }

    /// Execute one batch across the live workers: submit, then wait.
    ///
    /// The one-batch-at-a-time convenience over `submit` / `wait_batch` —
    /// identical semantics at pipeline depth 1. On `Err(WorkerLoss)` the attempt left
    /// nothing behind — call again with the same plan.
    ///
    /// # Panics
    ///
    /// Panics when no workers are left alive — with nothing to run on,
    /// recompute-and-retry cannot make progress.
    pub fn execute_batch(
        &mut self,
        seq: u64,
        plan: &PartitionPlan,
        spec: &JobSpec,
        assigner: &dyn ReduceAssigner,
        r: usize,
        trace: Option<(&TraceRecorder, u64)>,
    ) -> Result<(BatchOutput, Vec<BucketStats>), WorkerLoss> {
        let (rec, tseq) = trace.map_or((None, seq), |(rec, t)| (Some(rec), t));
        self.submit(seq, tseq, PlanView::Rows(plan), spec, assigner, r, rec);
        self.wait_batch(seq, rec)
    }

    /// Shut the fleet down: `Shutdown` to every live worker, then reap
    /// processes / join threads. Idempotent; also runs on drop.
    ///
    /// Process workers are reaped concurrently under ONE shared grace
    /// deadline: `try_wait` passes round-robin over all still-running
    /// children, so a wedged N-worker cluster tears down in ~5 s total
    /// (kill + wait on whatever is left at the deadline), not N×5 s as the
    /// old serial per-worker loop did.
    pub fn shutdown(&mut self) {
        if self.shut_down {
            return;
        }
        self.shut_down = true;
        for slot in &mut self.slots {
            if slot.alive {
                let _ = slot.conn.send(&Message::Shutdown);
            }
        }
        // Thread workers: shutting the socket down guarantees the worker's
        // recv unblocks even if the Shutdown frame was lost; the join is
        // then prompt.
        for slot in &mut self.slots {
            if let WorkerHandle::Thread(h) = &mut slot.handle {
                slot.conn.shutdown();
                if let Some(h) = h.take() {
                    let _ = h.join();
                }
            }
        }
        let deadline = Instant::now() + WallDuration::from_secs(5);
        let mut running: Vec<usize> = self
            .slots
            .iter()
            .enumerate()
            .filter(|(_, s)| matches!(s.handle, WorkerHandle::Process(_)))
            .map(|(i, _)| i)
            .collect();
        loop {
            running.retain(|&i| {
                let WorkerHandle::Process(child) = &mut self.slots[i].handle else {
                    return false;
                };
                matches!(child.try_wait(), Ok(None))
            });
            if running.is_empty() {
                break;
            }
            if Instant::now() > deadline {
                for &i in &running {
                    if let WorkerHandle::Process(child) = &mut self.slots[i].handle {
                        let _ = child.kill();
                        let _ = child.wait();
                    }
                }
                break;
            }
            std::thread::sleep(WallDuration::from_millis(10));
        }
        for slot in &mut self.slots {
            slot.conn.shutdown();
        }
    }
}

impl Drop for DistributedRuntime {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Convert a wall-clock duration into the trace's µs representation.
fn wall(d: WallDuration) -> prompt_core::types::Duration {
    prompt_core::types::Duration::from_micros(d.as_micros() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{MapSpec, ReduceOp};
    use prompt_core::batch::MicroBatch;
    use prompt_core::partitioner::{BufferingMode, Partitioner, PromptPartitioner};
    use prompt_core::reduce::PromptReduceAllocator;
    use prompt_core::types::{Interval, Time, Tuple};

    fn thread_opts(workers: usize) -> DistributedOptions {
        let mut opts = DistributedOptions::new(workers, 0);
        opts.launch = LaunchMode::Thread;
        opts
    }

    fn small_plan(n_tuples: usize, keys: u64, p: usize) -> PartitionPlan {
        let interval = Interval::new(Time(0), Time(1_000_000));
        let tuples: Vec<Tuple> = (0..n_tuples)
            .map(|i| Tuple::keyed(Time(1 + i as u64), Key(i as u64 % keys)))
            .collect();
        let batch = MicroBatch::new(tuples, interval);
        PromptPartitioner::new(BufferingMode::FrequencyAware).partition(&batch, p)
    }

    #[test]
    fn thread_fleet_registers_executes_and_shuts_down() {
        let mut rt = DistributedRuntime::launch(thread_opts(2)).expect("launch");
        assert_eq!(rt.workers_alive(), 2);
        let plan = small_plan(300, 17, 4);
        let spec = JobSpec {
            map: MapSpec::Identity,
            reduce: ReduceOp::Count,
        };
        let assigner = PromptReduceAllocator::new(7);
        let (out, stats) = rt
            .execute_batch(0, &plan, &spec, &assigner, 3, None)
            .expect("no faults scheduled");
        assert_eq!(out.len(), 17, "one aggregate per distinct key");
        assert_eq!(stats.len(), 3);
        let tuples: usize = stats.iter().map(|s| s.tuples).sum();
        assert_eq!(tuples, 300);
        let s = rt.stats();
        assert!(s.frames_sent > 0 && s.frames_received > 0);
        assert_eq!(s.workers_lost, 0);
        rt.shutdown();
        rt.shutdown(); // idempotent
    }

    #[test]
    fn scripted_kill_is_detected_and_survivors_finish() {
        let mut rt = DistributedRuntime::launch(thread_opts(2)).expect("launch");
        rt.set_fault_plan(NetFaultPlan::none().kill_before(0, 1))
            .expect("worker 1 exists");
        let plan = small_plan(200, 11, 4);
        let spec = JobSpec {
            map: MapSpec::Identity,
            reduce: ReduceOp::Sum,
        };
        let assigner = PromptReduceAllocator::new(3);
        let loss = rt
            .execute_batch(0, &plan, &spec, &assigner, 2, None)
            .expect_err("worker 1 is scripted to die");
        assert_eq!(loss.worker, 1);
        assert_eq!(rt.workers_alive(), 1);
        assert_eq!(rt.stats().workers_lost, 1);
        // The retry (same seq, fresh epoch) completes on the survivor.
        let (out, _) = rt
            .execute_batch(0, &plan, &spec, &assigner, 2, None)
            .expect("kill fires only once");
        assert_eq!(out.len(), 11);
    }

    #[test]
    fn pipelined_submits_match_serial_execution_bit_for_bit() {
        let spec = JobSpec {
            map: MapSpec::Identity,
            reduce: ReduceOp::Sum,
        };
        let plans: Vec<PartitionPlan> = (0..4).map(|i| small_plan(200 + i * 50, 13, 4)).collect();

        // Reference: one batch at a time through the compat wrapper.
        type BatchResult = (Vec<(Key, u64)>, Vec<BucketStats>);
        let mut serial: Vec<BatchResult> = Vec::new();
        {
            let mut rt = DistributedRuntime::launch(thread_opts(2)).expect("launch");
            let assigner = PromptReduceAllocator::new(7);
            for (seq, plan) in plans.iter().enumerate() {
                let (out, stats) = rt
                    .execute_batch(seq as u64, plan, &spec, &assigner, 3, None)
                    .expect("no faults");
                let mut aggs: Vec<(Key, u64)> = out
                    .aggregates
                    .iter()
                    .map(|(&k, &v)| (k, v.to_bits()))
                    .collect();
                aggs.sort_unstable_by_key(|&(k, _)| k.0);
                serial.push((aggs, stats));
            }
        }

        // Pipelined: all four batches in flight before the first wait, each
        // assigned as it is submitted.
        let mut rt = DistributedRuntime::launch(thread_opts(2)).expect("launch");
        let assigner = PromptReduceAllocator::new(7);
        for (seq, plan) in plans.iter().enumerate() {
            let view = PlanView::Rows(plan);
            rt.submit(seq as u64, seq as u64, view, &spec, &assigner, 3, None);
        }
        for (seq, expect) in serial.iter().enumerate() {
            let (out, stats) = rt.wait_batch(seq as u64, None).expect("no faults");
            let mut aggs: Vec<(Key, u64)> = out
                .aggregates
                .iter()
                .map(|(&k, &v)| (k, v.to_bits()))
                .collect();
            aggs.sort_unstable_by_key(|&(k, _)| k.0);
            assert_eq!(&(aggs, stats.clone()), expect, "batch {seq} diverged");
        }
    }

    /// A loss aborts every unfinished batch of the window; the retry assigns
    /// again and lands every cluster where the unfaulted run does, and the
    /// shuffle counters count each batch once.
    #[test]
    fn a_retried_window_produces_the_bucket_stats_of_the_unfaulted_run() {
        use crate::trace::TraceLevel;
        let spec = JobSpec {
            map: MapSpec::Identity,
            reduce: ReduceOp::Count,
        };
        let plans: Vec<PartitionPlan> = (0..2).map(|i| small_plan(200 + 40 * i, 11, 4)).collect();
        let assigner = PromptReduceAllocator::new(5);
        let counters = |rec: &TraceRecorder| {
            let shuffle = [Counter::ScatterFragments, Counter::SplitKeyFragments];
            shuffle.map(|c| rec.counter(c))
        };

        let clean_rec = TraceRecorder::new(TraceLevel::Summary);
        let mut clean = DistributedRuntime::launch(thread_opts(2)).expect("launch");
        let expect: Vec<Vec<BucketStats>> = (plans.iter().enumerate())
            .map(|(seq, plan)| {
                let trace = Some((&clean_rec, seq as u64));
                let done = clean.execute_batch(seq as u64, plan, &spec, &assigner, 3, trace);
                done.expect("no faults").1
            })
            .collect();
        assert!(counters(&clean_rec)[0] > 0);

        for fault in [
            // Worker 1 dies right before batch 1's maps dispatch, with batch
            // 0 in flight too; or right after batch 0's maps, so that attempt
            // has assigned (and tallied) before its sends find the worker gone.
            NetFaultPlan::none().kill_before(1, 1),
            NetFaultPlan::none().kill_after_map(0, 1),
        ] {
            let rec = TraceRecorder::new(TraceLevel::Summary);
            let mut rt = DistributedRuntime::launch(thread_opts(2)).expect("launch");
            rt.set_fault_plan(fault.clone()).expect("worker 1 exists");
            let submit = |rt: &mut DistributedRuntime, seq: usize| {
                let view = PlanView::Rows(&plans[seq]);
                rt.submit(
                    seq as u64,
                    seq as u64,
                    view,
                    &spec,
                    &assigner,
                    3,
                    Some(&rec),
                );
            };
            submit(&mut rt, 0);
            submit(&mut rt, 1);
            let loss = rt
                .wait_batch(0, Some(&rec))
                .expect_err("worker 1 is scripted to die");
            assert_eq!(loss.worker, 1, "{fault:?}");
            assert_eq!(rt.workers_alive(), 1, "{fault:?}");
            // Resubmit both: an already-Done survivor is skipped, aborted
            // ones re-dispatch on the survivor. Outputs still arrive in order.
            submit(&mut rt, 0);
            submit(&mut rt, 1);
            for (seq, expect) in expect.iter().enumerate() {
                let (out, stats) = rt.wait_batch(seq as u64, Some(&rec)).expect("retry");
                assert_eq!(out.len(), 11, "{fault:?}");
                assert_eq!(&stats, expect, "{fault:?}: batch {seq}");
            }
            assert_eq!(counters(&rec), counters(&clean_rec), "{fault:?}");
        }
    }

    /// Indices, ownership claims, blame and answers read off the wire must
    /// not take the driver down, nor spin it: a completion for a task that
    /// does not exist (yet), or that was given to another worker, a
    /// `WorkerError` blaming nobody, and an answer for a key another bucket
    /// answered for lose their sender like any other failure — once. Fetch
    /// stats at `u64::MAX` saturate instead of overflowing.
    #[test]
    fn a_completion_for_a_task_the_sender_was_not_given_loses_the_sender() {
        let spec = JobSpec {
            map: MapSpec::Identity,
            reduce: ReduceOp::Count,
        };
        // 4 blocks and 3 buckets over workers 0 and 1: worker 0 maps blocks 0
        // and 2 and reduces buckets 0 and 2. Worker 2 is lost before the
        // batch: an id with a slot and nobody in it.
        let plan = small_plan(300, 17, 4);
        let assigner = PromptReduceAllocator::new(7);
        let map = |block_id| Message::MapComplete {
            seq: 0,
            epoch: 1,
            block_id,
        };
        let reply = |bucket, keys: &[u64], net| Message::ReduceComplete {
            seq: 0,
            epoch: 1,
            bucket,
            aggregates: keys.iter().map(|&k| (Key(k), 1.0)).collect(),
            net,
        };
        let none = FetchStats::default();
        let reduce = |bucket| (1, reply(bucket, &[1], none));
        let max = FetchStats {
            dialed: u64::MAX,
            reused: u64::MAX,
            wait_us: u64::MAX,
            bytes_wire: u64::MAX,
        };
        let error = |blame| Message::WorkerError {
            seq: 0,
            epoch: 1,
            blame,
            detail: "forged".into(),
        };
        // `true`: delivered to a batch already `Reducing`, where only the
        // bucket's range and owner tell a forged completion from a real one.
        // Each row's frames are delivered from the workers named; every row
        // must end in worker 1's loss.
        for (what, forged, reducing) in [
            ("map block out of range", vec![(1, map(99))], false),
            ("map block of another worker", vec![(1, map(0))], false),
            (
                "reduce bucket before any reduce task",
                vec![reduce(1)],
                false,
            ),
            ("reduce bucket out of range", vec![reduce(99)], true),
            ("reduce bucket of another worker", vec![reduce(2)], true),
            ("blame of an id out of range", vec![(1, error(99))], false),
            ("blame of a worker already lost", vec![(1, error(2))], false),
            (
                "a key bucket 0 also reduced",
                vec![
                    (0, reply(0, &[1, 2], none)),
                    (1, reply(1, &[2, 3], none)),
                    (0, reply(2, &[], none)),
                ],
                true,
            ),
            (
                "fetch stats at u64::MAX, twice",
                vec![(0, reply(0, &[], max)), (1, reply(1, &[], max)), reduce(99)],
                true,
            ),
        ] {
            let mut rt = DistributedRuntime::launch(thread_opts(3)).expect("launch");
            let _ = rt.declare_lost(2, "before the batch".into());
            // Ahead of every real event of the batch.
            for (sender, msg) in forged {
                rt._tx.send((sender, Ok(msg))).unwrap();
            }
            let view = PlanView::Rows(&plan);
            rt.submit(0, 0, view, &spec, &assigner, 3, None);
            if reducing {
                rt.inflight[0].stage = Stage::Reducing;
            }
            let loss = rt
                .wait_batch(0, None)
                .expect_err("the forged message is a protocol violation");
            assert_eq!(loss.worker, 1, "{what}: {loss}");
            assert!(loss.detail.contains("protocol violation"), "{what}: {loss}");
            assert_eq!(rt.workers_alive(), 1, "{what}");
            // The retry completes on the survivor.
            rt.submit(0, 0, view, &spec, &assigner, 3, None);
            let (out, stats) = rt.wait_batch(0, None).expect("retry");
            assert_eq!(out.len(), 17, "{what}");
            assert_eq!(stats.iter().map(|s| s.tuples).sum::<usize>(), 300, "{what}");
            assert_eq!(rt.stats().workers_lost, 2, "{what}");
        }
    }

    /// A kill naming a worker the fleet does not have is refused when the
    /// plan is installed — naming the worker and the fleet size, installing
    /// nothing — and an engine run reports the refusal before batch 0, the
    /// way it reports an invalid config. The fleet used to index its slots
    /// with the id when the kill fired, panicking out of bounds mid-run.
    #[test]
    #[should_panic(
        expected = "invalid net fault plan: \"kill plan names worker 5 of batch 1, but the fleet has 2 workers\""
    )]
    fn a_kill_plan_naming_a_missing_worker_is_refused_before_batch_0() {
        use crate::config::{Backend, EngineConfig};
        use crate::driver::StreamingEngine;
        use crate::job::Job;
        use prompt_core::partitioner::Technique;

        let missing = NetFaultPlan::none().kill_after_map(0, 1).kill_before(1, 5);
        let mut rt = DistributedRuntime::launch(thread_opts(2)).expect("launch");
        rt.set_fault_plan(missing.clone())
            .expect_err("the fleet has no worker 5");
        let plan = small_plan(200, 11, 4);
        let spec = JobSpec {
            map: MapSpec::Identity,
            reduce: ReduceOp::Sum,
        };
        let assigner = PromptReduceAllocator::new(3);
        for seq in 0..2 {
            rt.execute_batch(seq, &plan, &spec, &assigner, 2, None)
                .expect("the refused plan's kill of worker 1 was not installed");
        }
        rt.shutdown();

        let cfg = EngineConfig {
            backend: Backend::Distributed {
                workers: 2,
                base_port: 0,
            },
            ..EngineConfig::default()
        };
        let job = Job::identity("sum", ReduceOp::Sum);
        let mut engine =
            StreamingEngine::new(cfg, Technique::Prompt, 1, job).with_net_faults(missing);
        engine.run(&mut |_: Interval, _: &mut Vec<Tuple>| {}, 3);
    }

    #[test]
    fn unannounced_crash_surfaces_organically() {
        let mut rt = DistributedRuntime::launch(thread_opts(3)).expect("launch");
        rt.inject_kill(2);
        let plan = small_plan(150, 9, 3);
        let spec = JobSpec {
            map: MapSpec::Identity,
            reduce: ReduceOp::Count,
        };
        let assigner = PromptReduceAllocator::new(1);
        let loss = rt
            .execute_batch(0, &plan, &spec, &assigner, 2, None)
            .expect_err("dead worker must be detected");
        assert_eq!(loss.worker, 2);
        let (out, _) = rt
            .execute_batch(0, &plan, &spec, &assigner, 2, None)
            .expect("two survivors suffice");
        assert_eq!(out.len(), 9);
    }
}
