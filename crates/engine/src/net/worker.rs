//! The worker side of the distributed runtime: control-plane loop, map/reduce
//! task execution, and the shuffle data-plane server.
//!
//! A worker is a plain function ([`run_worker`]) so it can run as a spawned
//! process (`prompt-worker` binary) or as an in-process thread (tests, and
//! the fallback when no worker binary can be found). Lifecycle:
//!
//! 1. bind an ephemeral loopback shuffle listener;
//! 2. connect to the driver (with retry — the worker may start first),
//!    `Register` with the shuffle port, receive `RegisterAck`;
//! 3. heartbeat from a side thread at the acked period;
//! 4. serve control messages until `Shutdown` or connection loss.
//!
//! Per batch the control stream carries the `MapTask`s, then — already sent
//! when the first block is mapped, because the driver assigns at submit from
//! the fragment tables it ships — their `ShuffleAssign`s, then the
//! `ReduceTask`s. A mapped block therefore waits in `pending` only while the
//! rest of the batch's Map frames are read, and `MapComplete` is a bare ack.
//!
//! Determinism: the map fold and the bucket merge are literally the serial
//! engine's (`kernel::map_block`, `kernel::merge_bucket`), and the merge is
//! fed fetched segments in global block order then key order — the serial
//! engine's exact sequence, so `f64` aggregates are bit-identical. Fetches
//! are pipelined (every remote source fetched concurrently over pooled
//! connections, segments parked in per-block accumulators as they land),
//! which reorders only the *arrival* of segments, never the fold.

use std::collections::{BTreeMap, HashMap};
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration as WallDuration, Instant};

use prompt_core::types::Key;

use super::transport::{ConnPool, FrameConn, NetCounters, NetError, RetryPolicy};
use super::wire::{FetchStats, Message, ShuffleSegment, ShuffleSource};
use crate::job::ReduceOp;
use crate::kernel::{map_block, merge_bucket, ClusterList};

/// Fetch round-trips before blaming the source. The serving side parks
/// each request up to [`FETCH_PARK`], so the budget is ≈ attempts × park.
const NOT_READY_ATTEMPTS: u32 = 10;

/// How long the shuffle server holds a `Fetch` whose bucket is not ready
/// yet before replying `ready: false` (the long-poll park deadline).
const FETCH_PARK: WallDuration = WallDuration::from_millis(500);

/// Granularity at which a parked fetch re-checks the stop flag.
const PARK_SLICE: WallDuration = WallDuration::from_millis(50);

/// Cap on the shuffle acceptor's backoff between empty accept polls.
const ACCEPT_BACKOFF_MAX: WallDuration = WallDuration::from_millis(20);

/// Read timeout on shuffle-plane sockets (must exceed [`FETCH_PARK`], or a
/// parked fetch would look like a dead peer).
const SHUFFLE_IO_TIMEOUT: WallDuration = WallDuration::from_secs(5);

/// Options for [`run_worker`].
#[derive(Clone, Copy, Debug)]
pub struct WorkerOptions {
    /// This worker's id (assigned by the spawner; must be unique per run).
    pub worker: u32,
    /// Retry policy for dialing the driver and shuffle peers.
    pub retry: RetryPolicy,
}

impl WorkerOptions {
    /// Default options for worker `worker`.
    pub fn new(worker: u32) -> WorkerOptions {
        WorkerOptions {
            worker,
            retry: RetryPolicy::default(),
        }
    }
}

/// Map outputs filed under their Reduce buckets, keyed by `(seq, epoch)`: a
/// block enters when its `ShuffleAssign` — already on the control stream
/// behind the batch's `MapTask`s — is read.
#[derive(Debug, Default)]
struct ShuffleStore {
    batches: HashMap<(u64, u32), BatchShuffle>,
}

#[derive(Debug, Default)]
struct BatchShuffle {
    /// Blocks mapped on this worker whose assignment has not arrived yet.
    /// A bucket is fetchable only once this drains to zero.
    pending_blocks: usize,
    buckets: HashMap<u32, Vec<ShuffleSegment>>,
}

impl ShuffleStore {
    fn is_ready(&self, seq: u64, epoch: u32) -> bool {
        matches!(self.batches.get(&(seq, epoch)), Some(b) if b.pending_blocks == 0)
    }

    fn begin_block(&mut self, seq: u64, epoch: u32) {
        self.batches.entry((seq, epoch)).or_default().pending_blocks += 1;
    }

    /// File block `block_id`'s clusters under the buckets `assignment` names.
    /// An assignment that does not pair up with the clusters is refused — a
    /// zip would drop the unpaired keys from the answer — and leaves the
    /// block pending, so no bucket of the batch ever reads as ready.
    fn add_block(
        &mut self,
        seq: u64,
        epoch: u32,
        block_id: u32,
        ordered: &ClusterList,
        assignment: &[u32],
    ) -> Result<(), String> {
        let batch = self
            .batches
            .get_mut(&(seq, epoch))
            .expect("assignment for a block never begun");
        if assignment.len() != ordered.len() {
            return Err(format!(
                "block {block_id}: {} buckets assigned to {} clusters",
                assignment.len(),
                ordered.len()
            ));
        }
        for (&(key, (value, n)), &bucket) in ordered.iter().zip(assignment) {
            let segs = batch.buckets.entry(bucket).or_default();
            match segs.last_mut() {
                Some(seg) if seg.block_id == block_id => seg.items.push((key, value, n as u64)),
                _ => segs.push(ShuffleSegment {
                    block_id,
                    items: vec![(key, value, n as u64)],
                }),
            }
        }
        batch.pending_blocks -= 1;
        Ok(())
    }

    fn fetch(&self, seq: u64, epoch: u32, bucket: u32) -> Message {
        match self.batches.get(&(seq, epoch)) {
            Some(b) if b.pending_blocks == 0 => Message::FetchReply {
                ready: true,
                segments: b.buckets.get(&bucket).cloned().unwrap_or_default(),
            },
            _ => Message::FetchReply {
                ready: false,
                segments: Vec::new(),
            },
        }
    }

    fn gc(&mut self, seq: u64) {
        self.batches.retain(|&(s, _), _| s != seq);
    }
}

/// Deadline-driven heartbeat schedule. The next beat is always a whole
/// number of periods from the previous *scheduled* beat — never from the
/// moment the thread happened to wake — so scheduler delay on one sleep
/// cannot stretch the effective period. (The previous implementation
/// accumulated `elapsed += tick` across sleeps, which under-counts real
/// time whenever a sleep overshoots; the period drifted long and could
/// trip the driver's heartbeat timeout spuriously.) A stall longer than
/// one period emits a single catch-up beat and re-anchors on the grid
/// rather than bursting once per missed tick.
struct Ticker {
    period: WallDuration,
    next: Instant,
}

impl Ticker {
    fn new(period: WallDuration, now: Instant) -> Ticker {
        Ticker {
            period,
            next: now + period,
        }
    }

    /// Whether a beat is due at `now`. When due, advances the schedule past
    /// `now` by whole periods (skipping missed ticks, not queueing them).
    fn due(&mut self, now: Instant) -> bool {
        if now < self.next {
            return false;
        }
        while self.next <= now {
            self.next += self.period;
        }
        true
    }

    /// How long to sleep before re-checking, capped so the thread keeps
    /// noticing the stop flag promptly.
    fn sleep_hint(&self, now: Instant, cap: WallDuration) -> WallDuration {
        self.next.saturating_duration_since(now).min(cap)
    }
}

/// The shuffle store plus the condvar that long-polling fetch servers park
/// on. `add_block` signals it whenever a batch may have become complete.
#[derive(Debug, Default)]
struct SharedStore {
    store: Mutex<ShuffleStore>,
    became_ready: Condvar,
    /// Fetches currently parked on the condvar. Incremented under the store
    /// lock before the first wait, so observing a non-zero count proves a
    /// fetch really reached the parked state (test observability).
    waiters: AtomicUsize,
}

impl SharedStore {
    fn begin_block(&self, seq: u64, epoch: u32) {
        self.store
            .lock()
            .expect("store lock")
            .begin_block(seq, epoch);
    }

    fn add_block(
        &self,
        seq: u64,
        epoch: u32,
        block_id: u32,
        ordered: &ClusterList,
        a: &[u32],
    ) -> Result<(), String> {
        let mut store = self.store.lock().expect("store lock");
        let added = store.add_block(seq, epoch, block_id, ordered, a);
        drop(store);
        self.became_ready.notify_all();
        added
    }

    fn fetch(&self, seq: u64, epoch: u32, bucket: u32) -> Message {
        self.store
            .lock()
            .expect("store lock")
            .fetch(seq, epoch, bucket)
    }

    fn gc(&self, seq: u64) {
        self.store.lock().expect("store lock").gc(seq);
    }

    /// Long-poll fetch: if the batch's shuffle state is incomplete, park on
    /// the condvar (in stop-aware slices) until it completes or `park`
    /// elapses, then answer. The reply clones the segments out under the
    /// lock; encoding and sending happen after it is released.
    fn fetch_wait(
        &self,
        seq: u64,
        epoch: u32,
        bucket: u32,
        park: WallDuration,
        stop: &AtomicBool,
    ) -> Message {
        let deadline = Instant::now() + park;
        let mut guard = self.store.lock().expect("store lock");
        let mut parked = false;
        let reply = loop {
            if guard.is_ready(seq, epoch) || stop.load(Ordering::SeqCst) {
                break guard.fetch(seq, epoch, bucket);
            }
            let now = Instant::now();
            if now >= deadline {
                break guard.fetch(seq, epoch, bucket);
            }
            if !parked {
                parked = true;
                self.waiters.fetch_add(1, Ordering::SeqCst);
            }
            let slice = (deadline - now).min(PARK_SLICE);
            guard = self
                .became_ready
                .wait_timeout(guard, slice)
                .expect("store lock")
                .0;
        };
        if parked {
            self.waiters.fetch_sub(1, Ordering::SeqCst);
        }
        reply
    }

    /// Fetches currently parked in [`SharedStore::fetch_wait`].
    #[cfg(test)]
    fn waiters(&self) -> usize {
        self.waiters.load(Ordering::SeqCst)
    }
}

/// Run a worker against the driver at `driver`. Returns when the driver
/// sends `Shutdown` (Ok) or the control connection fails (Err).
pub fn run_worker(driver: SocketAddr, opts: WorkerOptions) -> Result<(), NetError> {
    let counters = NetCounters::shared();
    let stop = Arc::new(AtomicBool::new(false));
    let store = Arc::new(SharedStore::default());

    // Shuffle data plane: always an ephemeral loopback port, reported to the
    // driver in Register.
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let shuffle_port = listener.local_addr()?.port();
    let acceptor = spawn_shuffle_acceptor(
        listener,
        Arc::clone(&store),
        Arc::clone(&stop),
        Arc::clone(&counters),
    );

    let result = control_loop(driver, opts, &counters, &store, shuffle_port, &stop);

    stop.store(true, Ordering::SeqCst);
    let _ = acceptor.join();
    result
}

fn control_loop(
    driver: SocketAddr,
    opts: WorkerOptions,
    counters: &Arc<NetCounters>,
    store: &Arc<SharedStore>,
    shuffle_port: u16,
    stop: &Arc<AtomicBool>,
) -> Result<(), NetError> {
    let mut conn = opts.retry.connect(driver, counters)?;
    conn.send(&Message::Register {
        worker: opts.worker,
        shuffle_port,
    })?;
    let heartbeat_ms = match conn.recv()? {
        Message::RegisterAck { heartbeat_ms, .. } => heartbeat_ms,
        other => {
            return Err(NetError::Protocol(format!(
                "expected register_ack, got {}",
                other.kind()
            )))
        }
    };

    // Writes are shared between the main loop (task replies) and the
    // heartbeat thread; reads stay exclusive to the main loop.
    let writer = Arc::new(Mutex::new(conn.try_clone()?));
    let heartbeat = {
        let writer = Arc::clone(&writer);
        let stop = Arc::clone(stop);
        let worker = opts.worker;
        let period = WallDuration::from_millis(u64::from(heartbeat_ms.max(1)));
        std::thread::spawn(move || {
            let cap = WallDuration::from_millis(25);
            let mut ticker = Ticker::new(period, Instant::now());
            while !stop.load(Ordering::SeqCst) {
                if ticker.due(Instant::now())
                    && writer
                        .lock()
                        .expect("writer lock")
                        .send(&Message::Heartbeat { worker })
                        .is_err()
                {
                    break;
                }
                std::thread::sleep(ticker.sleep_hint(Instant::now(), cap));
            }
        })
    };

    let result = serve_tasks(&mut conn, &writer, opts, counters, store);

    stop.store(true, Ordering::SeqCst);
    // Unblock nothing — the heartbeat thread only sleeps in short ticks.
    let _ = heartbeat.join();
    result
}

fn serve_tasks(
    conn: &mut FrameConn,
    writer: &Arc<Mutex<FrameConn>>,
    opts: WorkerOptions,
    counters: &Arc<NetCounters>,
    store: &Arc<SharedStore>,
) -> Result<(), NetError> {
    // Shuffle connections persist here across fetches and batches; a fetch
    // failure evicts the peer's pooled entries before retrying or blaming.
    let pool = Arc::new(ConnPool::new(opts.retry, Arc::clone(counters)));
    // One long-lived reduce executor: ReduceTasks are enqueued and run
    // serially off the control loop. Serial execution preserves the pooled
    // data plane's one-dial-per-peer-direction property (concurrent
    // reduces would check out concurrent connections to the same peer),
    // while still freeing the control loop to run the next in-flight
    // batch's Map tasks — the cross-batch overlap `pipeline_depth > 1`
    // relies on. Dropping the sender (any exit path) winds the executor
    // down; it is deliberately not joined, mirroring the old detached
    // reduce threads (a wind-down blocked in a fetch is bounded by the
    // shuffle timeouts and must not stall worker shutdown).
    let (reduce_tx, reduce_rx) = std::sync::mpsc::channel::<ReduceJob>();
    {
        let pool = Arc::clone(&pool);
        let store = Arc::clone(store);
        let writer = Arc::clone(writer);
        std::thread::spawn(move || {
            while let Ok(job) = reduce_rx.recv() {
                let reply = match reduce_bucket(
                    opts,
                    &pool,
                    &store,
                    job.seq,
                    job.epoch,
                    job.bucket,
                    job.reduce,
                    &job.sources,
                ) {
                    Ok(done) => done,
                    Err((blame, detail)) => Message::WorkerError {
                        worker: opts.worker,
                        seq: job.seq,
                        epoch: job.epoch,
                        blame,
                        detail,
                    },
                };
                // A dead control connection surfaces on the main loop's
                // next recv; nothing more to do about it here.
                if writer.lock().expect("writer lock").send(&reply).is_err() {
                    break;
                }
            }
        });
    }
    // Map outputs awaiting their ShuffleAssign, in full precision.
    let mut pending: HashMap<(u64, u32, u32), ClusterList> = HashMap::new();
    loop {
        match conn.recv()? {
            Message::MapTask {
                seq,
                epoch,
                block_id,
                job,
                block,
            } => {
                let job = job.instantiate("net-task");
                store.begin_block(seq, epoch);
                pending.insert((seq, epoch, block_id), map_block(&block, &job));
                writer
                    .lock()
                    .expect("writer lock")
                    .send(&Message::MapComplete {
                        seq,
                        epoch,
                        block_id,
                    })?;
            }
            Message::ShuffleAssign {
                seq,
                epoch,
                block_id,
                assignment,
            } => {
                let Some(ordered) = pending.remove(&(seq, epoch, block_id)) else {
                    continue;
                };
                // A malformed assignment fails this attempt of the batch: the
                // driver loses this worker and retries on the others.
                if let Err(detail) = store.add_block(seq, epoch, block_id, &ordered, &assignment) {
                    writer
                        .lock()
                        .expect("writer lock")
                        .send(&Message::WorkerError {
                            worker: opts.worker,
                            seq,
                            epoch,
                            blame: opts.worker,
                            detail,
                        })?;
                }
            }
            Message::ReduceTask {
                seq,
                epoch,
                bucket,
                reduce,
                sources,
            } => {
                // Hand the fetch+merge to the reduce executor so Map tasks
                // for the next in-flight batch are not serialized behind
                // this batch's shuffle. The local-store readiness argument
                // still holds at enqueue time: the control stream is FIFO,
                // so every ShuffleAssign for this worker's blocks of `seq`
                // was applied before this ReduceTask was read. The driver
                // sends BatchDone (which GCs the store) only after
                // collecting this bucket's reply, so the store cannot be
                // swept mid-reduce. A send error means the executor died
                // with the control connection; the main loop's next recv
                // surfaces that.
                let _ = reduce_tx.send(ReduceJob {
                    seq,
                    epoch,
                    bucket,
                    reduce,
                    sources,
                });
            }
            Message::BatchDone { seq } => {
                pending.retain(|&(s, _, _), _| s != seq);
                store.gc(seq);
            }
            Message::Shutdown => return Ok(()),
            // RegisterAck duplicates or anything unexpected: ignore.
            _ => {}
        }
    }
}

/// One queued Reduce task for the worker's reduce-executor thread.
struct ReduceJob {
    seq: u64,
    epoch: u32,
    bucket: u32,
    reduce: ReduceOp,
    sources: Vec<ShuffleSource>,
}

/// Per-block partial accumulator: segment items keyed by the globally
/// unique block id they were mapped under.
type BlockPartials = BTreeMap<u32, Vec<(Key, f64, u64)>>;

/// Execute one Reduce task: fetch the bucket's segments from every source
/// concurrently (pooled connections), park each segment in a per-block
/// accumulator as it lands, then merge deterministically and return the
/// `ReduceComplete`. On failure returns `(blamed worker, detail)`.
#[allow(clippy::too_many_arguments)]
fn reduce_bucket(
    opts: WorkerOptions,
    pool: &ConnPool,
    store: &Arc<SharedStore>,
    seq: u64,
    epoch: u32,
    bucket: u32,
    reduce: ReduceOp,
    sources: &[ShuffleSource],
) -> Result<Message, (u32, String)> {
    // Per-block partial accumulators. Block ids are globally unique (each
    // block is mapped by exactly one worker), so keying arrivals by block
    // id and folding the BTreeMap in ascending order reproduces the exact
    // sort-by-block merge sequence of the serial engine no matter which
    // source's reply lands first.
    let partials: Mutex<BlockPartials> = Mutex::new(BTreeMap::new());
    let net = Mutex::new(FetchStats::default());
    let failure: Mutex<Option<(u32, String)>> = Mutex::new(None);

    let park = |segs: Vec<ShuffleSegment>| {
        let mut map = partials.lock().expect("partials lock");
        for seg in segs {
            map.entry(seg.block_id).or_default().extend(seg.items);
        }
    };

    std::thread::scope(|scope| {
        for src in sources {
            if src.worker == opts.worker {
                continue; // handled below, overlapping the remote fetches
            }
            scope.spawn(|| match fetch_remote(pool, src, seq, epoch, bucket) {
                Ok((segs, stats)) => {
                    park(segs);
                    net.lock().expect("net lock").absorb(stats);
                }
                Err(blamed) => {
                    failure.lock().expect("failure lock").get_or_insert(blamed);
                }
            });
        }
        if sources.iter().any(|s| s.worker == opts.worker) {
            // Local map outputs: the control stream is FIFO, so every
            // ShuffleAssign for this worker's blocks was processed before
            // this ReduceTask — the store is necessarily ready.
            match store.fetch(seq, epoch, bucket) {
                Message::FetchReply {
                    ready: true,
                    segments: segs,
                } => park(segs),
                _ => {
                    failure
                        .lock()
                        .expect("failure lock")
                        .get_or_insert((opts.worker, "local shuffle state incomplete".into()));
                }
            }
        }
    });

    if let Some(blamed) = failure.into_inner().expect("failure lock") {
        return Err(blamed);
    }

    // Global block order, then within-block key order: the serial engine's
    // exact merge sequence (bit-identical f64 results).
    let items = partials
        .into_inner()
        .expect("partials lock")
        .into_values()
        .flatten()
        .map(|(key, value, n)| (key, value, n as usize));
    let (acc, stats) = merge_bucket(items, reduce);
    let mut aggregates: Vec<(Key, f64)> = acc.into_iter().collect();
    aggregates.sort_unstable_by_key(|&(k, _)| k.0);
    Ok(Message::ReduceComplete {
        seq,
        epoch,
        bucket,
        tuples: stats.tuples as u64,
        keys: stats.keys as u64,
        fragments: stats.fragments as u64,
        aggregates,
        net: net.into_inner().expect("net lock"),
    })
}

/// Fetch one bucket from a remote source over a pooled connection,
/// re-requesting while the source long-polls `NotReady`. A pooled
/// connection that fails its first exchange (the peer closed it between
/// health check and use) is thrown away along with every idle sibling, and
/// the fetch redials once before blaming the source.
fn fetch_remote(
    pool: &ConnPool,
    src: &ShuffleSource,
    seq: u64,
    epoch: u32,
    bucket: u32,
) -> Result<(Vec<ShuffleSegment>, FetchStats), (u32, String)> {
    let addr = SocketAddr::V4(src.addr);
    let blame = |e: String| {
        pool.evict(addr);
        (
            src.worker,
            format!("shuffle fetch from worker {}: {e}", src.worker),
        )
    };
    let started = Instant::now();
    let mut stats = FetchStats::default();

    let checkout = |stats: &mut FetchStats| -> Result<FrameConn, (u32, String)> {
        let (conn, reused) = pool
            .checkout(addr)
            .map_err(|e| blame(format!("connect: {e}")))?;
        if reused {
            stats.reused += 1;
        } else {
            stats.dialed += 1;
        }
        conn.set_read_timeout(Some(SHUFFLE_IO_TIMEOUT))
            .map_err(|e| blame(format!("timeout setup: {e}")))?;
        Ok(conn)
    };

    let mut conn = checkout(&mut stats)?;
    let mut exchanges = 0u32;
    for _ in 0..NOT_READY_ATTEMPTS {
        let exchange = conn
            .send(&Message::Fetch { seq, epoch, bucket })
            .and_then(|()| conn.recv_counted());
        match exchange {
            Ok((reply, wire)) => {
                exchanges += 1;
                stats.bytes_wire += wire as u64;
                stats.bytes_raw += (super::wire::HEADER_LEN + reply.v1_payload_len()) as u64;
                match reply {
                    Message::FetchReply {
                        ready: true,
                        segments,
                    } => {
                        stats.wait_us = started.elapsed().as_micros() as u64;
                        pool.checkin(addr, conn);
                        return Ok((segments, stats));
                    }
                    // Server-side park expired with the bucket still
                    // pending; re-request immediately (no client sleep).
                    Message::FetchReply { ready: false, .. } => {}
                    other => return Err(blame(format!("unexpected reply {}", other.kind()))),
                }
            }
            Err(_) if exchanges == 0 && stats.reused > 0 && stats.dialed == 0 => {
                // The pooled conn died since its health check. Evict the
                // peer's idle conns and redial fresh exactly once.
                pool.evict(addr);
                drop(conn);
                conn = checkout(&mut stats)?;
            }
            Err(e) => return Err(blame(format!("exchange: {e}"))),
        }
    }
    Err(blame("bucket never became ready".into()))
}

/// Accept shuffle connections until `stop`; each connection gets a serving
/// thread answering `Fetch` requests from the shared store. Empty polls
/// back off exponentially (reset on every accept) instead of spinning at a
/// fixed period, and threads whose connection closed are reaped as the
/// loop goes rather than accumulating until shutdown.
fn spawn_shuffle_acceptor(
    listener: TcpListener,
    store: Arc<SharedStore>,
    stop: Arc<AtomicBool>,
    counters: Arc<NetCounters>,
) -> std::thread::JoinHandle<()> {
    std::thread::spawn(move || {
        listener
            .set_nonblocking(true)
            .expect("shuffle listener nonblocking");
        let mut serving: Vec<std::thread::JoinHandle<()>> = Vec::new();
        let mut backoff = WallDuration::from_millis(1);
        while !stop.load(Ordering::SeqCst) {
            match listener.accept() {
                Ok((stream, _)) => {
                    backoff = WallDuration::from_millis(1);
                    stream
                        .set_nonblocking(false)
                        .expect("accepted stream blocking");
                    let conn = FrameConn::new(stream, Arc::clone(&counters));
                    let store = Arc::clone(&store);
                    let stop = Arc::clone(&stop);
                    serving.push(std::thread::spawn(move || serve_fetches(conn, store, stop)));
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(backoff);
                    backoff = (backoff * 2).min(ACCEPT_BACKOFF_MAX);
                    let mut i = 0;
                    while i < serving.len() {
                        if serving[i].is_finished() {
                            let _ = serving.swap_remove(i).join();
                        } else {
                            i += 1;
                        }
                    }
                }
                Err(_) => break,
            }
        }
        for h in serving {
            let _ = h.join();
        }
    })
}

fn serve_fetches(mut conn: FrameConn, store: Arc<SharedStore>, stop: Arc<AtomicBool>) {
    if conn
        .set_read_timeout(Some(WallDuration::from_millis(100)))
        .is_err()
    {
        return;
    }
    loop {
        if stop.load(Ordering::SeqCst) {
            return;
        }
        match conn.recv() {
            Ok(Message::Fetch { seq, epoch, bucket }) => {
                // Long-poll: park until the bucket is ready or the park
                // deadline passes. The store lock is released before the
                // reply is encoded and sent.
                let reply = store.fetch_wait(seq, epoch, bucket, FETCH_PARK, &stop);
                if conn.send(&reply).is_err() {
                    return;
                }
            }
            Ok(_) => return,
            Err(e) if e.is_timeout() => continue,
            Err(_) => return,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn store_readiness_follows_pending_blocks() {
        let mut store = ShuffleStore::default();
        store.begin_block(4, 1);
        store.begin_block(4, 1);
        let ordered: ClusterList = vec![(Key(1), (2.0, 2)), (Key(5), (1.0, 1))];
        assert!(matches!(
            store.fetch(4, 1, 0),
            Message::FetchReply { ready: false, .. }
        ));
        store.add_block(4, 1, 0, &ordered, &[0, 1]).unwrap();
        assert!(
            matches!(
                store.fetch(4, 1, 0),
                Message::FetchReply { ready: false, .. }
            ),
            "one block still unassigned"
        );
        store.add_block(4, 1, 1, &ordered, &[1, 1]).unwrap();
        match store.fetch(4, 1, 1) {
            Message::FetchReply { ready, segments } => {
                assert!(ready);
                // Bucket 1 got key 5 from block 0 and both keys from block 1.
                assert_eq!(segments.len(), 2);
                assert_eq!(segments[0].items, vec![(Key(5), 1.0, 1)]);
                assert_eq!(segments[1].items, vec![(Key(1), 2.0, 2), (Key(5), 1.0, 1)]);
            }
            other => panic!("unexpected {other:?}"),
        }
        // Unknown (seq, epoch) is not ready; GC forgets the batch.
        assert!(matches!(
            store.fetch(9, 1, 0),
            Message::FetchReply { ready: false, .. }
        ));
        store.gc(4);
        assert!(matches!(
            store.fetch(4, 1, 1),
            Message::FetchReply { ready: false, .. }
        ));
    }

    /// A short (or long) assignment would silently drop keys from the answer
    /// if it were zipped with the clusters: it is refused, and the batch
    /// never reads as ready on this worker.
    #[test]
    fn an_assignment_that_does_not_match_its_clusters_is_refused() {
        let mut store = ShuffleStore::default();
        store.begin_block(4, 1);
        let ordered: ClusterList = vec![(Key(1), (2.0, 2)), (Key(5), (1.0, 1))];
        for bad in [&[0][..], &[], &[0, 1, 1]] {
            let err = store.add_block(4, 1, 0, &ordered, bad).unwrap_err();
            assert!(err.contains("block 0"), "{err}");
            assert!(matches!(
                store.fetch(4, 1, 0),
                Message::FetchReply { ready: false, .. }
            ));
        }
        // Nothing of a refused assignment was filed.
        store.add_block(4, 1, 0, &ordered, &[1, 0]).unwrap();
        match store.fetch(4, 1, 0) {
            Message::FetchReply { ready, segments } => {
                assert!(ready);
                assert_eq!(segments.len(), 1);
                assert_eq!(segments[0].items, vec![(Key(5), 1.0, 1)]);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn fetch_wait_parks_until_the_batch_completes() {
        let shared = Arc::new(SharedStore::default());
        shared.begin_block(1, 0);
        let waiter = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || {
                let stop = AtomicBool::new(false);
                shared.fetch_wait(1, 0, 0, WallDuration::from_secs(5), &stop)
            })
        };
        // Observe the parked state directly instead of racing a sleep
        // against thread spawn: the waiter count is incremented under the
        // store lock before the first condvar wait, so reading 1 proves the
        // fetch is parked — only then is the final block assigned.
        while shared.waiters() != 1 {
            std::thread::yield_now();
        }
        let ordered: ClusterList = vec![(Key(1), (2.0, 2))];
        shared.add_block(1, 0, 0, &ordered, &[0]).unwrap();
        match waiter.join().unwrap() {
            Message::FetchReply { ready, segments } => {
                assert!(ready, "park must end when the last block is assigned");
                assert_eq!(segments.len(), 1);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(shared.waiters(), 0, "waiter count must drop on return");
    }

    #[test]
    fn heartbeat_ticker_period_does_not_drift_under_delay() {
        let t0 = Instant::now();
        let ms = |n: u64| t0 + WallDuration::from_millis(n);
        let mut ticker = Ticker::new(WallDuration::from_millis(100), t0);
        assert!(!ticker.due(ms(99)), "before the first deadline");
        // The check runs 30 ms late; the beat fires, and the schedule stays
        // anchored on the t0 grid. The old `elapsed += tick` accounting
        // would have pushed the next beat to ~t0+230 here.
        assert!(ticker.due(ms(130)));
        assert!(!ticker.due(ms(199)));
        assert!(ticker.due(ms(200)), "second beat must stay on the grid");
    }

    #[test]
    fn heartbeat_ticker_skips_missed_beats_after_a_stall() {
        let t0 = Instant::now();
        let ms = |n: u64| t0 + WallDuration::from_millis(n);
        let mut ticker = Ticker::new(WallDuration::from_millis(100), t0);
        // A 750 ms stall: one catch-up beat, no burst of seven.
        assert!(ticker.due(ms(750)));
        assert!(!ticker.due(ms(750)), "missed beats are skipped, not queued");
        assert!(!ticker.due(ms(799)));
        assert!(ticker.due(ms(800)), "schedule re-anchors on the grid");
        // Sleep hints aim at the next deadline but stay stop-responsive.
        let cap = WallDuration::from_millis(25);
        assert_eq!(ticker.sleep_hint(ms(850), cap), cap);
        assert_eq!(
            ticker.sleep_hint(ms(895), cap),
            WallDuration::from_millis(5)
        );
        assert_eq!(ticker.sleep_hint(ms(950), cap), WallDuration::ZERO);
    }

    #[test]
    fn fetch_wait_deadline_answers_not_ready() {
        let shared = SharedStore::default();
        shared.begin_block(1, 0);
        let stop = AtomicBool::new(false);
        let start = Instant::now();
        let reply = shared.fetch_wait(1, 0, 0, WallDuration::from_millis(60), &stop);
        assert!(matches!(reply, Message::FetchReply { ready: false, .. }));
        assert!(
            start.elapsed() >= WallDuration::from_millis(55),
            "must actually park until the deadline"
        );
    }
}
