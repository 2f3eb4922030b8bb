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
//! Per batch the control stream carries the `MapTask`s — each block's key
//! runs and the values its job reads — then, already sent when the first block is mapped,
//! because the driver assigns at submit from its own plan's fragment tables,
//! their `ShuffleAssign`s, then the
//! `ReduceTask`s. A mapped block waits in `pending` only while the rest of
//! the batch's Map frames are read. `MapComplete` is sent once the block is
//! filed, so by the time the driver hands out Reduce tasks every source
//! holds the batch and a fetch is one exchange.
//!
//! Determinism: the map fold and the bucket merge are literally the local
//! executor's (`kernel::map_block`, `kernel::reduce_bucket`), and the merge
//! is fed fetched segments in global block order then key order — the local
//! executor's exact sequence, so `f64` aggregates are bit-identical, and the
//! kernel's answer is already key-ascending, as `ReduceComplete` carries it.
//! Fetches are pipelined (every remote source fetched concurrently over
//! pooled connections, segments collected as they land, then ordered by
//! block id), which reorders only the *arrival* of segments, never the fold.

use std::collections::HashMap;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration as WallDuration, Instant};

use prompt_core::sort::RadixSort;

use super::transport::{connect, ConnPool, FrameConn, NetError};
use super::wire::{FetchStats, Message, ShuffleSegment, ShuffleSource};
use crate::job::ReduceOp;
use crate::kernel::{self, map_block, BucketItem, ClusterList};

/// Cap on the shuffle acceptor's backoff between empty accept polls.
const ACCEPT_BACKOFF_MAX: WallDuration = WallDuration::from_millis(20);

/// Read timeout on shuffle-plane sockets: a source answers from what it
/// already holds, so this much silence is a dead peer.
const SHUFFLE_IO_TIMEOUT: WallDuration = WallDuration::from_secs(5);

/// Options for [`run_worker`].
#[derive(Clone, Copy, Debug)]
pub struct WorkerOptions {
    /// This worker's id (assigned by the spawner; must be unique per run).
    pub worker: u32,
}

impl WorkerOptions {
    /// Options for worker `worker`.
    pub fn new(worker: u32) -> WorkerOptions {
        WorkerOptions { worker }
    }
}

/// Map outputs filed under their Reduce buckets, keyed by `(seq, epoch)`: a
/// batch attempt enters when its first block's `ShuffleAssign` — already on
/// the control stream behind the batch's `MapTask`s — is filed.
#[derive(Debug, Default)]
struct ShuffleStore {
    batches: HashMap<(u64, u32), HashMap<u32, Vec<ShuffleSegment>>>,
}

impl ShuffleStore {
    /// File block `block_id`'s clusters under the buckets `assignment` names.
    /// An assignment that does not pair up with the clusters is refused — a
    /// zip would drop the unpaired keys from the answer — and files nothing.
    fn add_block(
        &mut self,
        seq: u64,
        epoch: u32,
        block_id: u32,
        ordered: &ClusterList,
        assignment: &[u32],
    ) -> Result<(), String> {
        if assignment.len() != ordered.len() {
            return Err(format!(
                "block {block_id}: {} buckets assigned to {} clusters",
                assignment.len(),
                ordered.len()
            ));
        }
        let buckets = self.batches.entry((seq, epoch)).or_default();
        for (&(key, (value, n)), &bucket) in ordered.iter().zip(assignment) {
            let segs = buckets.entry(bucket).or_default();
            match segs.last_mut() {
                Some(seg) if seg.block_id == block_id => seg.items.push((key, value, n as u64)),
                _ => segs.push(ShuffleSegment {
                    block_id,
                    items: vec![(key, value, n as u64)],
                }),
            }
        }
        Ok(())
    }

    /// The bucket's segments, `ready: false` when this worker holds nothing
    /// of the batch attempt. The reply clones the segments out, so the
    /// caller encodes and sends it after releasing the lock.
    fn fetch(&self, seq: u64, epoch: u32, bucket: u32) -> Message {
        let held = self.batches.get(&(seq, epoch));
        Message::FetchReply {
            ready: held.is_some(),
            segments: held
                .and_then(|b| b.get(&bucket))
                .cloned()
                .unwrap_or_default(),
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

/// Run a worker against the driver at `driver`. Returns when the driver
/// sends `Shutdown` (Ok) or the control connection fails (Err).
pub fn run_worker(driver: SocketAddr, opts: WorkerOptions) -> Result<(), NetError> {
    let stop = Arc::new(AtomicBool::new(false));
    let store = Arc::new(Mutex::new(ShuffleStore::default()));

    // Shuffle data plane: always an ephemeral loopback port, reported to the
    // driver in Register.
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let shuffle_port = listener.local_addr()?.port();
    let acceptor = spawn_shuffle_acceptor(listener, Arc::clone(&store), Arc::clone(&stop));

    let result = control_loop(driver, opts, &store, shuffle_port, &stop);

    stop.store(true, Ordering::SeqCst);
    let _ = acceptor.join();
    result
}

fn control_loop(
    driver: SocketAddr,
    opts: WorkerOptions,
    store: &Arc<Mutex<ShuffleStore>>,
    shuffle_port: u16,
    stop: &Arc<AtomicBool>,
) -> Result<(), NetError> {
    let mut conn = connect(driver)?;
    conn.send(&Message::Register {
        worker: opts.worker,
        shuffle_port,
    })?;
    let heartbeat_ms = match conn.recv()? {
        Message::RegisterAck { heartbeat_ms } => heartbeat_ms,
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
        let period = WallDuration::from_millis(u64::from(heartbeat_ms.max(1)));
        std::thread::spawn(move || {
            let cap = WallDuration::from_millis(25);
            let mut ticker = Ticker::new(period, Instant::now());
            while !stop.load(Ordering::SeqCst) {
                if ticker.due(Instant::now())
                    && writer
                        .lock()
                        .expect("writer lock")
                        .send(&Message::Heartbeat)
                        .is_err()
                {
                    break;
                }
                std::thread::sleep(ticker.sleep_hint(Instant::now(), cap));
            }
        })
    };

    let result = serve_tasks(&mut conn, &writer, opts, store);

    stop.store(true, Ordering::SeqCst);
    // Unblock nothing — the heartbeat thread only sleeps in short ticks.
    let _ = heartbeat.join();
    result
}

fn serve_tasks(
    conn: &mut FrameConn,
    writer: &Arc<Mutex<FrameConn>>,
    opts: WorkerOptions,
    store: &Arc<Mutex<ShuffleStore>>,
) -> Result<(), NetError> {
    // Shuffle connections persist here across fetches and batches; a fetch
    // failure evicts the peer's pooled entries before retrying or blaming.
    let pool = Arc::new(ConnPool::new());
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
            let mut sort = RadixSort::default();
            while let Ok(job) = reduce_rx.recv() {
                let reply = match reduce_bucket(opts, &pool, &store, &job, &mut sort) {
                    Ok(done) => done,
                    Err((blame, detail)) => Message::WorkerError {
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
                let mut ordered = ClusterList::new();
                map_block(&block, &job, &mut ordered);
                pending.insert((seq, epoch, block_id), ordered);
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
                // The ack means filed: once the driver has them all, every
                // source holds the batch. A malformed assignment fails this
                // attempt instead: the driver loses this worker and retries
                // on the others.
                let mut shuffle = store.lock().expect("store lock");
                let filed = shuffle.add_block(seq, epoch, block_id, &ordered, &assignment);
                drop(shuffle);
                let reply = match filed {
                    Ok(()) => Message::MapComplete {
                        seq,
                        epoch,
                        block_id,
                    },
                    Err(detail) => Message::WorkerError {
                        seq,
                        epoch,
                        blame: opts.worker,
                        detail,
                    },
                };
                writer.lock().expect("writer lock").send(&reply)?;
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
                // this batch's shuffle. The driver sends a Reduce task only
                // once every block of the batch is acked as filed, and
                // BatchDone (which GCs the store) only after collecting this
                // bucket's reply, so every source holds the batch for the
                // whole reduce. A send error means the executor died with
                // the control connection; the main loop's next recv
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
                store.lock().expect("store lock").gc(seq);
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

/// Execute one Reduce task: fetch the bucket's segments from every source
/// concurrently (pooled connections), then merge them in block order with
/// the local executor's kernel (in `sort`'s kept buffers) and return the
/// `ReduceComplete`. On failure returns `(blamed worker, detail)`: its own,
/// if it holds nothing of the batch, else the first failed source's.
fn reduce_bucket(
    opts: WorkerOptions,
    pool: &ConnPool,
    store: &Arc<Mutex<ShuffleStore>>,
    job: &ReduceJob,
    sort: &mut RadixSort<BucketItem>,
) -> Result<Message, (u32, String)> {
    let ReduceJob {
        seq,
        epoch,
        bucket,
        reduce,
        ref sources,
    } = *job;
    let fetched = std::thread::scope(|scope| {
        let remote: Vec<_> = (sources.iter())
            .filter(|src| src.worker != opts.worker)
            .map(|src| scope.spawn(move || fetch_remote(pool, src, seq, epoch, bucket)))
            .collect();
        // Local map outputs, read while the remote fetches run: this worker
        // acked its blocks as filed before the driver sent this ReduceTask.
        let own = sources.iter().any(|src| src.worker == opts.worker);
        let local = own.then(|| {
            let held = store.lock().expect("store lock").fetch(seq, epoch, bucket);
            match held {
                Message::FetchReply {
                    ready: true,
                    segments,
                } => Ok((segments, FetchStats::default())),
                _ => Err((opts.worker, "local shuffle state missing".to_string())),
            }
        });
        let remote = (remote.into_iter()).map(|fetch| fetch.join().expect("fetch thread"));
        local.into_iter().chain(remote).collect::<Vec<_>>()
    });
    let (mut segments, mut net) = (Vec::new(), FetchStats::default());
    for fetch in fetched {
        let (segs, stats) = fetch?;
        segments.extend(segs);
        net.absorb(stats);
    }

    // Block ids are globally unique (each block is mapped by exactly one
    // worker), so ordered by block id the segments are the local executor's
    // merge sequence — global block order, then key order within a block —
    // whichever source's reply landed first.
    segments.sort_by_key(|seg| seg.block_id);
    let mut items = Vec::with_capacity(segments.iter().map(|seg| seg.items.len()).sum());
    for seg in &segments {
        items.extend((seg.items.iter()).map(|&(key, value, n)| (key, value, n as usize)));
    }
    let mut aggregates = Vec::with_capacity(items.len());
    kernel::reduce_bucket(&mut items, reduce, sort, &mut aggregates);
    Ok(Message::ReduceComplete {
        seq,
        epoch,
        bucket,
        aggregates,
        net,
    })
}

/// Fetch one bucket from a remote source over a pooled connection: one
/// exchange, since the source acked its blocks as filed before this Reduce
/// task existed, so a source that does not hold the batch is blamed at
/// once. A pooled connection that fails its exchange (the peer closed it
/// between health check and use) is thrown away along with every idle
/// sibling, and the fetch redials once before blaming the source.
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

    let exchange = |conn: &mut FrameConn| {
        conn.send(&Message::Fetch { seq, epoch, bucket })
            .and_then(|()| conn.recv_counted())
    };
    let mut conn = checkout(&mut stats)?;
    let (reply, wire) = match exchange(&mut conn) {
        Ok(done) => done,
        Err(_) if stats.reused > 0 => {
            // The pooled conn died since its health check. Evict the peer's
            // idle conns and redial fresh exactly once.
            pool.evict(addr);
            conn = checkout(&mut stats)?;
            exchange(&mut conn).map_err(|e| blame(format!("exchange: {e}")))?
        }
        Err(e) => return Err(blame(format!("exchange: {e}"))),
    };
    stats.bytes_wire += wire as u64;
    match reply {
        Message::FetchReply {
            ready: true,
            segments,
        } => {
            stats.wait_us = started.elapsed().as_micros() as u64;
            pool.checkin(addr, conn);
            Ok((segments, stats))
        }
        Message::FetchReply { ready: false, .. } => {
            Err(blame(format!("batch {seq} epoch {epoch} not held")))
        }
        other => Err(blame(format!("unexpected reply {}", other.kind()))),
    }
}

/// Accept shuffle connections until `stop`; each connection gets a serving
/// thread answering `Fetch` requests from the shared store. Empty polls
/// back off exponentially (reset on every accept) instead of spinning at a
/// fixed period, and threads whose connection closed are reaped as the
/// loop goes rather than accumulating until shutdown.
fn spawn_shuffle_acceptor(
    listener: TcpListener,
    store: Arc<Mutex<ShuffleStore>>,
    stop: Arc<AtomicBool>,
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
                    let conn = FrameConn::new(stream);
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

fn serve_fetches(mut conn: FrameConn, store: Arc<Mutex<ShuffleStore>>, stop: Arc<AtomicBool>) {
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
                let reply = store.lock().expect("store lock").fetch(seq, epoch, bucket);
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
    use crate::job::{JobSpec, MapSpec};
    use prompt_core::batch::DataBlock;
    use prompt_core::types::Key;
    use std::net::{Ipv4Addr, SocketAddrV4, TcpStream};
    use std::sync::mpsc::{Receiver, RecvTimeoutError};

    /// A worker thread with the test as its driver: the driver's end of the
    /// control connection, what the worker sends on it (heartbeats dropped),
    /// and its shuffle listener.
    struct ByHand {
        control: FrameConn,
        inbound: Receiver<Message>,
        shuffle: SocketAddrV4,
        worker: std::thread::JoinHandle<Result<(), NetError>>,
        reader: std::thread::JoinHandle<()>,
    }

    impl ByHand {
        fn launch() -> ByHand {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let addr = listener.local_addr().unwrap();
            let worker = std::thread::spawn(move || run_worker(addr, WorkerOptions::new(0)));
            let mut control = FrameConn::new(listener.accept().unwrap().0);
            let Message::Register { shuffle_port, .. } = control.recv().unwrap() else {
                panic!("a worker registers first");
            };
            control
                .send(&Message::RegisterAck { heartbeat_ms: 100 })
                .unwrap();
            let mut reader = control.try_clone().unwrap();
            let (tx, inbound) = std::sync::mpsc::channel();
            // Ends when the worker closes its end, or the test drops `inbound`.
            let reader = std::thread::spawn(move || {
                while let Ok(msg) = reader.recv() {
                    if !matches!(msg, Message::Heartbeat) && tx.send(msg).is_err() {
                        return;
                    }
                }
            });
            let shuffle = SocketAddrV4::new(Ipv4Addr::LOCALHOST, shuffle_port);
            ByHand {
                control,
                inbound,
                shuffle,
                worker,
                reader,
            }
        }

        /// Map block 0 of batch `(4, 1)`: keys 1 (2.0 + 0.5) and 5 (1.0).
        fn send_map_task(&mut self) {
            let block: DataBlock = [(1, 2.0), (5, 1.0), (1, 0.5)]
                .map(|(k, v)| (Key(k), v))
                .into_iter()
                .collect();
            let job = JobSpec {
                map: MapSpec::Identity,
                reduce: ReduceOp::Sum,
            };
            let (seq, epoch, block_id) = (4, 1, 0);
            let task = Message::MapTask {
                seq,
                epoch,
                block_id,
                job,
                block,
            };
            self.control.send(&task).unwrap();
        }

        fn send_assignment(&mut self, assignment: Vec<u32>) {
            let (seq, epoch, block_id) = (4, 1, 0);
            let assign = Message::ShuffleAssign {
                seq,
                epoch,
                block_id,
                assignment,
            };
            self.control.send(&assign).unwrap();
        }

        fn next(&self, within: WallDuration) -> Result<Message, RecvTimeoutError> {
            self.inbound.recv_timeout(within)
        }

        fn fetch(&self, seq: u64, bucket: u32) -> Message {
            let stream = TcpStream::connect(self.shuffle).unwrap();
            let mut conn = FrameConn::new(stream);
            conn.send(&Message::Fetch {
                seq,
                epoch: 1,
                bucket,
            })
            .unwrap();
            conn.recv().unwrap()
        }

        fn shut_down(mut self) {
            self.control.send(&Message::Shutdown).unwrap();
            self.worker.join().unwrap().unwrap();
            self.reader.join().unwrap();
        }
    }

    /// v4: a block is acked once it is filed, not once it is mapped, so a
    /// batch whose acks are in is fetchable on the first exchange.
    #[test]
    fn a_map_task_is_acked_once_its_assignment_has_filed_it() {
        let mut w = ByHand::launch();
        w.send_map_task();
        let early = w.next(WallDuration::from_millis(300));
        assert_eq!(early, Err(RecvTimeoutError::Timeout), "acked before filing");
        w.send_assignment(vec![1, 0]);
        let ack = w.next(WallDuration::from_secs(5)).unwrap();
        let (seq, epoch, block_id) = (4, 1, 0);
        let filed = Message::MapComplete {
            seq,
            epoch,
            block_id,
        };
        assert_eq!(ack, filed);
        let items = vec![(Key(1), 2.5, 2)];
        let segments = vec![ShuffleSegment { block_id, items }];
        let ready = true;
        assert_eq!(w.fetch(4, 1), Message::FetchReply { ready, segments });
        w.shut_down();
    }

    /// A source that answers one `Fetch`, `after` it arrives, with
    /// `segments`: a remote source whose reply lands when the test says.
    fn slow_source(
        worker: u32,
        segments: Vec<ShuffleSegment>,
        after: WallDuration,
    ) -> (ShuffleSource, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let std::net::SocketAddr::V4(addr) = listener.local_addr().unwrap() else {
            unreachable!("a loopback v4 listener")
        };
        let serve = std::thread::spawn(move || {
            let mut conn = FrameConn::new(listener.accept().unwrap().0);
            let Ok(Message::Fetch { .. }) = conn.recv() else {
                panic!("a reducer fetches first");
            };
            std::thread::sleep(after);
            let ready = true;
            conn.send(&Message::FetchReply { ready, segments }).unwrap();
        });
        (ShuffleSource { worker, addr }, serve)
    }

    /// A Reduce task's answer does not depend on which source answers
    /// first: the worker orders the segments by block before the merge.
    /// Blocks 0 and 2 are its own (block 0 files through `send_map_task`),
    /// blocks 1, 3 and 4 come from two remote sources whose replies land in
    /// either order; keys recur across blocks, with values whose Sum shows
    /// its fold order in the bits. Every order must put the same
    /// `ReduceComplete` bytes on the wire, fetch statistics aside (they time
    /// the fetches), and that answer is the kernel's over the items in block
    /// order.
    #[test]
    fn a_reduce_answer_is_the_same_whichever_source_lands_first() {
        let mut w = ByHand::launch();
        let (seq, epoch, bucket) = (4, 1, 0);
        w.send_map_task();
        w.send_assignment(vec![0, 0]);
        let block: DataBlock = [(1, 1e-3), (5, 0.7), (9, -2.2)]
            .map(|(k, v)| (Key(k), v))
            .into_iter()
            .collect();
        let job = JobSpec {
            map: MapSpec::Identity,
            reduce: ReduceOp::Sum,
        };
        let block_id = 2;
        let task = Message::MapTask {
            seq,
            epoch,
            block_id,
            job,
            block,
        };
        w.control.send(&task).unwrap();
        let assignment = vec![0; 3];
        let assign = Message::ShuffleAssign {
            seq,
            epoch,
            block_id,
            assignment,
        };
        w.control.send(&assign).unwrap();
        for _ in 0..2 {
            let ack = w.next(WallDuration::from_secs(5)).unwrap();
            assert!(matches!(ack, Message::MapComplete { .. }), "{ack:?}");
        }
        let segment = |block_id, items: &[(u64, f64, u64)]| ShuffleSegment {
            block_id,
            items: items.iter().map(|&(k, v, n)| (Key(k), v, n)).collect(),
        };
        let first = vec![
            segment(1, &[(1, 0.1, 1), (5, 1e16, 2)]),
            segment(4, &[(1, 0.2, 3), (5, -1e16, 1), (9, 0.3, 1)]),
        ];
        let second = vec![segment(3, &[(1, 0.3, 2), (5, 1.0, 1), (7, 2.5, 4)])];

        let mut frames = Vec::new();
        for (lag_first, lag_second) in [(0, 150), (150, 0)] {
            let lag = WallDuration::from_millis;
            let (a, serve_a) = slow_source(1, first.clone(), lag(lag_first));
            let (b, serve_b) = slow_source(2, second.clone(), lag(lag_second));
            let own = ShuffleSource {
                worker: 0,
                addr: w.shuffle,
            };
            let reduce = ReduceOp::Sum;
            let sources = vec![a, own, b];
            let task = Message::ReduceTask {
                seq,
                epoch,
                bucket,
                reduce,
                sources,
            };
            w.control.send(&task).unwrap();
            let Message::ReduceComplete {
                seq,
                epoch,
                bucket,
                aggregates,
                ..
            } = w.next(WallDuration::from_secs(5)).unwrap()
            else {
                panic!("the reducer answers");
            };
            let net = FetchStats::default();
            let done = Message::ReduceComplete {
                seq,
                epoch,
                bucket,
                aggregates,
                net,
            };
            frames.push(done.encode());
            serve_a.join().unwrap();
            serve_b.join().unwrap();
        }
        assert_eq!(
            frames[0], frames[1],
            "the answer moved with the arrival order"
        );

        let own = [
            segment(0, &[(1, 2.5, 2), (5, 1.0, 1)]),
            segment(2, &[(1, 1e-3, 1), (5, 0.7, 1), (9, -2.2, 1)]),
        ];
        let mut by_block: Vec<ShuffleSegment> =
            own.into_iter().chain(first).chain(second).collect();
        by_block.sort_by_key(|seg| seg.block_id);
        let items = by_block.iter().flat_map(|seg| &seg.items);
        let mut items: Vec<BucketItem> = items.map(|&(k, v, n)| (k, v, n as usize)).collect();
        let mut aggregates = Vec::new();
        kernel::reduce_bucket(
            &mut items,
            ReduceOp::Sum,
            &mut RadixSort::default(),
            &mut aggregates,
        );
        let net = FetchStats::default();
        let want = Message::ReduceComplete {
            seq,
            epoch,
            bucket,
            aggregates,
            net,
        };
        assert_eq!(frames[0], want.encode());
        w.shut_down();
    }

    /// A source that does not hold the batch says so at once, and the
    /// fetcher blames it after that one exchange.
    #[test]
    fn a_fetch_for_a_batch_the_source_does_not_hold_is_refused_at_once() {
        let w = ByHand::launch();
        let started = Instant::now();
        let segments = Vec::new();
        let ready = false;
        assert_eq!(w.fetch(9, 0), Message::FetchReply { ready, segments });
        assert!(started.elapsed() < WallDuration::from_millis(250));

        let pool = ConnPool::new();
        let src = ShuffleSource {
            worker: 3,
            addr: w.shuffle,
        };
        let started = Instant::now();
        let (blamed, detail) = fetch_remote(&pool, &src, 9, 1, 0).unwrap_err();
        assert!(started.elapsed() < WallDuration::from_millis(250));
        assert_eq!(blamed, 3);
        assert!(detail.contains("batch 9 epoch 1 not held"), "{detail}");
        w.shut_down();
    }

    /// A short (or long) assignment would silently drop keys from the answer
    /// if it were zipped with the clusters: it is refused, nothing of it is
    /// filed, and the worker answers with an error instead of the ack.
    #[test]
    fn an_assignment_that_does_not_match_its_clusters_is_refused() {
        let mut store = ShuffleStore::default();
        let ordered: ClusterList = vec![(Key(1), (2.0, 2)), (Key(5), (1.0, 1))];
        for bad in [&[0][..], &[], &[0, 1, 1]] {
            let err = store.add_block(4, 1, 0, &ordered, bad).unwrap_err();
            assert!(err.contains("block 0"), "{err}");
            assert!(matches!(
                store.fetch(4, 1, 0),
                Message::FetchReply { ready: false, .. }
            ));
        }
        // Filing appends one segment per block to each bucket.
        store.add_block(4, 1, 0, &ordered, &[1, 0]).unwrap();
        store.add_block(4, 1, 1, &ordered, &[1, 1]).unwrap();
        let Message::FetchReply { ready, segments } = store.fetch(4, 1, 1) else {
            unreachable!()
        };
        assert!(ready);
        let items: Vec<_> = segments
            .iter()
            .map(|s| (s.block_id, s.items.len()))
            .collect();
        assert_eq!(items, [(0, 1), (1, 2)]);
        store.gc(4);
        assert!(matches!(
            store.fetch(4, 1, 1),
            Message::FetchReply { ready: false, .. }
        ));

        let mut w = ByHand::launch();
        w.send_map_task();
        w.send_assignment(vec![0]);
        match w.next(WallDuration::from_secs(5)).unwrap() {
            Message::WorkerError { blame, detail, .. } => {
                assert_eq!(blame, 0);
                assert!(detail.contains("block 0"), "{detail}");
            }
            other => panic!("expected the refusal, got {other:?}"),
        }
        let ack = w.next(WallDuration::from_millis(100));
        assert_eq!(ack, Err(RecvTimeoutError::Timeout), "a refused block acked");
        w.shut_down();
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
}
