//! Framed TCP transport: length-prefixed message I/O, byte accounting,
//! connect/read retry with exponential backoff, and a per-peer connection
//! pool for the shuffle data plane.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration as WallDuration;

use super::wire::{Message, WireError, HEADER_LEN};

/// Transport-layer error.
#[derive(Debug)]
pub enum NetError {
    /// Socket-level failure.
    Io(std::io::Error),
    /// The peer sent bytes that are not a valid protocol frame.
    Wire(WireError),
    /// The peer violated the message protocol (valid frame, wrong message).
    Protocol(String),
}

impl NetError {
    /// Whether the error is a read timeout (the connection may still be
    /// healthy; the caller decides whether to keep waiting).
    pub fn is_timeout(&self) -> bool {
        matches!(
            self,
            NetError::Io(e) if e.kind() == std::io::ErrorKind::WouldBlock
                || e.kind() == std::io::ErrorKind::TimedOut
        )
    }
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::Io(e) => write!(f, "io: {e}"),
            NetError::Wire(e) => write!(f, "wire: {e}"),
            NetError::Protocol(what) => write!(f, "protocol: {what}"),
        }
    }
}

impl std::error::Error for NetError {}

impl From<std::io::Error> for NetError {
    fn from(e: std::io::Error) -> NetError {
        NetError::Io(e)
    }
}

impl From<WireError> for NetError {
    fn from(e: WireError) -> NetError {
        NetError::Wire(e)
    }
}

/// Shared atomic counters of wire traffic, aggregated into the run's
/// [`super::NetStats`].
#[derive(Debug, Default)]
pub struct NetCounters {
    bytes_sent: AtomicU64,
    bytes_received: AtomicU64,
    frames_sent: AtomicU64,
    frames_received: AtomicU64,
    raw_bytes_sent: AtomicU64,
    raw_bytes_received: AtomicU64,
    conns_dialed: AtomicU64,
    conns_reused: AtomicU64,
}

impl NetCounters {
    /// Fresh zeroed counters behind an `Arc` (every connection of one
    /// runtime shares them).
    pub fn shared() -> Arc<NetCounters> {
        Arc::new(NetCounters::default())
    }

    /// Total bytes written to sockets.
    pub fn bytes_sent(&self) -> u64 {
        self.bytes_sent.load(Ordering::Relaxed)
    }

    /// Total bytes read from sockets.
    pub fn bytes_received(&self) -> u64 {
        self.bytes_received.load(Ordering::Relaxed)
    }

    /// Frames written.
    pub fn frames_sent(&self) -> u64 {
        self.frames_sent.load(Ordering::Relaxed)
    }

    /// Frames read.
    pub fn frames_received(&self) -> u64 {
        self.frames_received.load(Ordering::Relaxed)
    }

    /// What the sent frames would have cost in the fixed-width v1 layout
    /// (compare with [`NetCounters::bytes_sent`] for the encoding win).
    pub fn raw_bytes_sent(&self) -> u64 {
        self.raw_bytes_sent.load(Ordering::Relaxed)
    }

    /// v1-layout equivalent of the received frames.
    pub fn raw_bytes_received(&self) -> u64 {
        self.raw_bytes_received.load(Ordering::Relaxed)
    }

    /// Connections dialed through a [`ConnPool`] (pool misses).
    pub fn conns_dialed(&self) -> u64 {
        self.conns_dialed.load(Ordering::Relaxed)
    }

    /// Pooled connections reused by a [`ConnPool`] (pool hits).
    pub fn conns_reused(&self) -> u64 {
        self.conns_reused.load(Ordering::Relaxed)
    }

    fn record_send(&self, bytes: usize, raw: usize) {
        self.bytes_sent.fetch_add(bytes as u64, Ordering::Relaxed);
        self.raw_bytes_sent.fetch_add(raw as u64, Ordering::Relaxed);
        self.frames_sent.fetch_add(1, Ordering::Relaxed);
    }

    fn record_recv(&self, bytes: usize, raw: usize) {
        self.bytes_received
            .fetch_add(bytes as u64, Ordering::Relaxed);
        self.raw_bytes_received
            .fetch_add(raw as u64, Ordering::Relaxed);
        self.frames_received.fetch_add(1, Ordering::Relaxed);
    }
}

/// A TCP stream speaking the framed protocol.
#[derive(Debug)]
pub struct FrameConn {
    stream: TcpStream,
    counters: Arc<NetCounters>,
}

impl FrameConn {
    /// Wrap an accepted/connected stream. Disables Nagle — the protocol is
    /// request/reply with small control frames, where coalescing only adds
    /// latency.
    pub fn new(stream: TcpStream, counters: Arc<NetCounters>) -> FrameConn {
        let _ = stream.set_nodelay(true);
        FrameConn { stream, counters }
    }

    /// Clone the underlying socket (shared file description): one half can
    /// read while the other writes.
    pub fn try_clone(&self) -> std::io::Result<FrameConn> {
        Ok(FrameConn {
            stream: self.stream.try_clone()?,
            counters: Arc::clone(&self.counters),
        })
    }

    /// Bound every blocking read; `None` blocks forever.
    pub fn set_read_timeout(&self, t: Option<WallDuration>) -> std::io::Result<()> {
        self.stream.set_read_timeout(t)
    }

    /// The peer's address.
    pub fn peer_addr(&self) -> std::io::Result<SocketAddr> {
        self.stream.peer_addr()
    }

    /// Shut down both directions; concurrent reads unblock with an error.
    pub fn shutdown(&self) {
        let _ = self.stream.shutdown(std::net::Shutdown::Both);
    }

    /// Write one message as a frame.
    pub fn send(&mut self, msg: &Message) -> Result<(), NetError> {
        let frame = msg.encode();
        self.send_frame(&frame, msg.v1_payload_len())
    }

    /// Write one pre-encoded frame (header + payload), accounting
    /// `v1_payload_len` as its fixed-width v1 size. Lets the data plane
    /// encode straight from columnar slices without building a `Message`.
    pub fn send_frame(&mut self, frame: &[u8], v1_payload_len: usize) -> Result<(), NetError> {
        self.stream.write_all(frame)?;
        self.counters
            .record_send(frame.len(), HEADER_LEN + v1_payload_len);
        Ok(())
    }

    /// Read one complete frame and decode it.
    pub fn recv(&mut self) -> Result<Message, NetError> {
        Ok(self.recv_counted()?.0)
    }

    /// [`FrameConn::recv`], also returning the frame's bytes-on-wire (for
    /// callers accounting per-fetch transfer, not just the shared totals).
    pub fn recv_counted(&mut self) -> Result<(Message, usize), NetError> {
        let mut header = [0u8; HEADER_LEN];
        self.stream.read_exact(&mut header)?;
        let (msg_type, len) = Message::check_header(&header)?;
        let mut payload = vec![0u8; len as usize];
        self.stream.read_exact(&mut payload)?;
        let msg = Message::decode_payload(msg_type, &payload)?;
        let wire = HEADER_LEN + payload.len();
        self.counters
            .record_recv(wire, HEADER_LEN + msg.v1_payload_len());
        Ok((msg, wire))
    }

    /// Whether an idle connection is still usable: the peer has not closed
    /// it and no stray bytes are queued (a leftover byte means the last
    /// request/reply exchange desynced — the framing can't be trusted).
    pub fn is_healthy(&self) -> bool {
        if self.stream.set_nonblocking(true).is_err() {
            return false;
        }
        let mut probe = [0u8; 1];
        let healthy = match self.stream.peek(&mut probe) {
            Ok(0) => false, // peer closed
            Ok(_) => false, // desynced
            Err(e) => e.kind() == std::io::ErrorKind::WouldBlock,
        };
        healthy && self.stream.set_nonblocking(false).is_ok()
    }
}

/// Per-peer pool of idle shuffle connections. A fetch checks a connection
/// out (reusing an idle healthy one, else dialing), runs its request/reply
/// exchanges, and checks it back in; connections thereby persist across
/// fetches and batches. Stale entries (peer closed, or bytes left queued)
/// are dropped at checkout, and [`ConnPool::evict`] throws away every idle
/// connection to a dead peer so recovery never retries a doomed socket.
#[derive(Debug)]
pub struct ConnPool {
    idle: Mutex<HashMap<SocketAddr, Vec<FrameConn>>>,
    retry: RetryPolicy,
    counters: Arc<NetCounters>,
}

impl ConnPool {
    /// An empty pool dialing with `retry` and accounting into `counters`.
    pub fn new(retry: RetryPolicy, counters: Arc<NetCounters>) -> ConnPool {
        ConnPool {
            idle: Mutex::new(HashMap::new()),
            retry,
            counters,
        }
    }

    /// Check a connection to `addr` out: the most recently returned healthy
    /// idle connection if any (`reused = true`), else a fresh dial under
    /// the retry policy (`reused = false`).
    pub fn checkout(&self, addr: SocketAddr) -> Result<(FrameConn, bool), NetError> {
        loop {
            let candidate = self
                .idle
                .lock()
                .expect("pool lock")
                .get_mut(&addr)
                .and_then(Vec::pop);
            match candidate {
                Some(conn) if conn.is_healthy() => {
                    self.counters.conns_reused.fetch_add(1, Ordering::Relaxed);
                    return Ok((conn, true));
                }
                Some(stale) => drop(stale), // closed or desynced: try the next one
                None => break,
            }
        }
        let conn = self.retry.connect(addr, &self.counters)?;
        self.counters.conns_dialed.fetch_add(1, Ordering::Relaxed);
        Ok((conn, false))
    }

    /// Return a connection after a clean request/reply exchange. Never
    /// check in a connection whose last exchange errored mid-frame — drop
    /// it instead, so the pool only holds frame-aligned sockets.
    pub fn checkin(&self, addr: SocketAddr, conn: FrameConn) {
        self.idle
            .lock()
            .expect("pool lock")
            .entry(addr)
            .or_default()
            .push(conn);
    }

    /// Drop every idle connection to `addr` (the peer died or was declared
    /// lost); subsequent checkouts dial anew.
    pub fn evict(&self, addr: SocketAddr) {
        self.idle.lock().expect("pool lock").remove(&addr);
    }

    /// Idle connections currently held for `addr` (tests and diagnostics).
    pub fn idle_count(&self, addr: SocketAddr) -> usize {
        self.idle
            .lock()
            .expect("pool lock")
            .get(&addr)
            .map_or(0, Vec::len)
    }
}

/// Connect/retry policy with exponential backoff.
#[derive(Clone, Copy, Debug)]
pub struct RetryPolicy {
    /// Maximum attempts before giving up.
    pub attempts: u32,
    /// Delay after the first failed attempt.
    pub base: WallDuration,
    /// Backoff cap.
    pub max: WallDuration,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            attempts: 8,
            base: WallDuration::from_millis(10),
            max: WallDuration::from_millis(500),
        }
    }
}

impl RetryPolicy {
    /// The backoff before retry number `attempt` (1-based): doubles from
    /// [`RetryPolicy::base`], capped at [`RetryPolicy::max`].
    pub fn delay(&self, attempt: u32) -> WallDuration {
        let factor = 1u32 << attempt.saturating_sub(1).min(16);
        self.base.saturating_mul(factor).min(self.max)
    }

    /// Connect to `addr`, retrying with backoff — the peer may not have
    /// bound its listener yet (worker startup races the driver's first
    /// dial, and shuffle listeners come up while a batch is in flight).
    pub fn connect(
        &self,
        addr: SocketAddr,
        counters: &Arc<NetCounters>,
    ) -> Result<FrameConn, NetError> {
        let mut last: Option<std::io::Error> = None;
        for attempt in 1..=self.attempts.max(1) {
            match TcpStream::connect(addr) {
                Ok(stream) => return Ok(FrameConn::new(stream, Arc::clone(counters))),
                Err(e) => {
                    last = Some(e);
                    if attempt < self.attempts {
                        std::thread::sleep(self.delay(attempt));
                    }
                }
            }
        }
        Err(NetError::Io(last.expect("at least one attempt")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn send_recv_roundtrip_counts_bytes() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let counters = NetCounters::shared();
        let server_counters = Arc::clone(&counters);
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut conn = FrameConn::new(stream, server_counters);
            let msg = conn.recv().unwrap();
            conn.send(&msg).unwrap();
        });
        let mut conn = RetryPolicy::default()
            .connect(addr, &counters)
            .expect("connect");
        let msg = Message::Heartbeat { worker: 42 };
        conn.send(&msg).unwrap();
        let echo = conn.recv().unwrap();
        assert_eq!(echo, msg);
        server.join().unwrap();
        assert_eq!(counters.frames_sent(), 2, "client + server sends");
        assert_eq!(counters.frames_received(), 2);
        assert_eq!(counters.bytes_sent(), counters.bytes_received());
        assert!(counters.bytes_sent() > 0);
    }

    #[test]
    fn read_timeout_is_distinguishable() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let counters = NetCounters::shared();
        let mut conn = RetryPolicy::default().connect(addr, &counters).unwrap();
        conn.set_read_timeout(Some(WallDuration::from_millis(30)))
            .unwrap();
        let err = conn.recv().expect_err("nothing to read");
        assert!(err.is_timeout(), "{err}");
    }

    #[test]
    fn connect_retry_gives_up_with_io_error() {
        // A port nothing listens on: bind-then-drop reserves one.
        let addr = {
            let l = TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap()
        };
        let policy = RetryPolicy {
            attempts: 2,
            base: WallDuration::from_millis(1),
            max: WallDuration::from_millis(2),
        };
        let err = policy
            .connect(addr, &NetCounters::shared())
            .expect_err("no listener");
        assert!(matches!(err, NetError::Io(_)));
        assert!(!err.is_timeout());
    }

    #[test]
    fn pool_reuses_one_connection_per_peer() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server_counters = NetCounters::shared();
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut conn = FrameConn::new(stream, server_counters);
            // Echo until the client side drops (recv returns EOF).
            while let Ok(msg) = conn.recv() {
                conn.send(&msg).unwrap();
            }
        });
        let counters = NetCounters::shared();
        let pool = ConnPool::new(RetryPolicy::default(), Arc::clone(&counters));
        for round in 0..3u32 {
            let (mut conn, reused) = pool.checkout(addr).unwrap();
            assert_eq!(reused, round > 0, "round {round}");
            conn.send(&Message::Heartbeat { worker: round }).unwrap();
            conn.recv().unwrap();
            pool.checkin(addr, conn);
        }
        assert_eq!(counters.conns_dialed(), 1, "one dial serves every round");
        assert_eq!(counters.conns_reused(), 2);
        assert_eq!(pool.idle_count(addr), 1);
        pool.evict(addr);
        assert_eq!(pool.idle_count(addr), 0, "evicted peers hold nothing");
        server.join().unwrap();
    }

    #[test]
    fn pool_drops_closed_connections_at_checkout() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let counters = NetCounters::shared();
        let pool = ConnPool::new(RetryPolicy::default(), Arc::clone(&counters));
        let (conn, reused) = pool.checkout(addr).unwrap();
        assert!(!reused);
        let (server_side, _) = listener.accept().unwrap();
        drop(server_side);
        pool.checkin(addr, conn);
        // Let the FIN land so the health probe sees the close.
        std::thread::sleep(WallDuration::from_millis(20));
        let (_conn, reused) = pool.checkout(addr).unwrap();
        assert!(!reused, "closed idle conn must be dropped, not reused");
        assert_eq!(counters.conns_dialed(), 2);
        assert_eq!(counters.conns_reused(), 0);
    }

    #[test]
    fn raw_byte_accounting_tracks_v1_layout() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let counters = NetCounters::shared();
        let mut conn = RetryPolicy::default().connect(addr, &counters).unwrap();
        let msg = Message::ShuffleAssign {
            seq: 1,
            epoch: 0,
            block_id: 0,
            assignment: (0..32).collect(),
        };
        conn.send(&msg).unwrap();
        assert_eq!(
            counters.raw_bytes_sent() as usize,
            HEADER_LEN + msg.v1_payload_len()
        );
        assert!(
            counters.bytes_sent() < counters.raw_bytes_sent(),
            "v2 on-wire {} should beat v1 {}",
            counters.bytes_sent(),
            counters.raw_bytes_sent()
        );
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let p = RetryPolicy {
            attempts: 10,
            base: WallDuration::from_millis(10),
            max: WallDuration::from_millis(60),
        };
        assert_eq!(p.delay(1), WallDuration::from_millis(10));
        assert_eq!(p.delay(2), WallDuration::from_millis(20));
        assert_eq!(p.delay(3), WallDuration::from_millis(40));
        assert_eq!(p.delay(4), WallDuration::from_millis(60), "capped");
        assert_eq!(p.delay(9), WallDuration::from_millis(60));
    }
}
