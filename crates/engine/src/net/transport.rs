//! Framed TCP transport: length-prefixed message I/O, per-connection byte
//! accounting, connect/read retry with exponential backoff, and a per-peer
//! connection pool for the shuffle data plane.

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

/// Bytes and frames one connection has moved, kept by the connection and
/// shared with its [`FrameConn::try_clone`]s (a reader thread's clone counts
/// into the same ledger). The driver's [`super::NetStats`] sums its workers'.
#[derive(Debug, Default)]
pub struct NetCounters {
    bytes_sent: AtomicU64,
    bytes_received: AtomicU64,
    frames_sent: AtomicU64,
    frames_received: AtomicU64,
}

impl NetCounters {
    /// Total bytes written to the socket.
    pub fn bytes_sent(&self) -> u64 {
        self.bytes_sent.load(Ordering::Relaxed)
    }

    /// Total bytes read from the socket.
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

    fn record_send(&self, bytes: usize) {
        self.bytes_sent.fetch_add(bytes as u64, Ordering::Relaxed);
        self.frames_sent.fetch_add(1, Ordering::Relaxed);
    }

    fn record_recv(&self, bytes: usize) {
        self.bytes_received
            .fetch_add(bytes as u64, Ordering::Relaxed);
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
    pub fn new(stream: TcpStream) -> FrameConn {
        let _ = stream.set_nodelay(true);
        FrameConn {
            stream,
            counters: Arc::default(),
        }
    }

    /// What this connection (and every clone of it) has moved so far.
    pub(crate) fn counters(&self) -> &NetCounters {
        &self.counters
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
        self.send_frame(&msg.encode())
    }

    /// Write one pre-encoded frame (header + payload). Lets the data plane
    /// encode straight from columnar slices without building a `Message`.
    pub fn send_frame(&mut self, frame: &[u8]) -> Result<(), NetError> {
        self.stream.write_all(frame)?;
        self.counters.record_send(frame.len());
        Ok(())
    }

    /// Read one complete frame and decode it.
    pub fn recv(&mut self) -> Result<Message, NetError> {
        Ok(self.recv_counted()?.0)
    }

    /// [`FrameConn::recv`], also returning the frame's bytes-on-wire (for
    /// callers accounting per-fetch transfer, not just the connection's).
    pub fn recv_counted(&mut self) -> Result<(Message, usize), NetError> {
        let mut header = [0u8; HEADER_LEN];
        self.stream.read_exact(&mut header)?;
        let (msg_type, len) = Message::check_header(&header)?;
        let mut payload = vec![0u8; len as usize];
        self.stream.read_exact(&mut payload)?;
        let msg = Message::decode_payload(msg_type, &payload)?;
        let wire = HEADER_LEN + payload.len();
        self.counters.record_recv(wire);
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
/// Dials and reuses are counted by the caller, from `checkout`'s flag.
#[derive(Debug)]
pub struct ConnPool {
    idle: Mutex<HashMap<SocketAddr, Vec<FrameConn>>>,
    retry: RetryPolicy,
}

impl ConnPool {
    /// An empty pool dialing with `retry`.
    pub fn new(retry: RetryPolicy) -> ConnPool {
        ConnPool {
            idle: Mutex::new(HashMap::new()),
            retry,
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
                Some(conn) if conn.is_healthy() => return Ok((conn, true)),
                Some(stale) => drop(stale), // closed or desynced: try the next one
                None => break,
            }
        }
        Ok((self.retry.connect(addr)?, false))
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
    pub fn connect(&self, addr: SocketAddr) -> Result<FrameConn, NetError> {
        let mut last: Option<std::io::Error> = None;
        for attempt in 1..=self.attempts.max(1) {
            match TcpStream::connect(addr) {
                Ok(stream) => return Ok(FrameConn::new(stream)),
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

    /// Each connection keeps its own ledger, and a clone counts into it: the
    /// client's clone sends, the original receives, and one ledger has both.
    #[test]
    fn send_recv_roundtrip_counts_bytes() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut conn = FrameConn::new(stream);
            let msg = conn.recv().unwrap();
            conn.send(&msg).unwrap();
            let c = conn.counters();
            [c.bytes_sent(), c.bytes_received()]
        });
        let mut conn = RetryPolicy::default().connect(addr).expect("connect");
        let msg = Message::BatchDone { seq: 42 };
        conn.try_clone().unwrap().send(&msg).unwrap();
        let echo = conn.recv().unwrap();
        assert_eq!(echo, msg);
        let c = conn.counters();
        assert_eq!((c.frames_sent(), c.frames_received()), (1, 1));
        assert_eq!(c.bytes_sent(), msg.encode().len() as u64);
        assert_eq!(c.bytes_sent(), c.bytes_received());
        let served = server.join().unwrap();
        assert_eq!(served, [c.bytes_received(), c.bytes_sent()]);
    }

    #[test]
    fn read_timeout_is_distinguishable() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut conn = RetryPolicy::default().connect(addr).unwrap();
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
        let err = policy.connect(addr).expect_err("no listener");
        assert!(matches!(err, NetError::Io(_)));
        assert!(!err.is_timeout());
    }

    #[test]
    fn pool_reuses_one_connection_per_peer() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut conn = FrameConn::new(stream);
            // Echo until the client side drops (recv returns EOF).
            while let Ok(msg) = conn.recv() {
                conn.send(&msg).unwrap();
            }
        });
        let pool = ConnPool::new(RetryPolicy::default());
        let mut reuses = Vec::new();
        for seq in 0..3 {
            let (mut conn, reused) = pool.checkout(addr).unwrap();
            reuses.push(reused);
            conn.send(&Message::BatchDone { seq }).unwrap();
            conn.recv().unwrap();
            pool.checkin(addr, conn);
        }
        assert_eq!(reuses, [false, true, true], "one dial serves every round");
        assert_eq!(pool.idle_count(addr), 1);
        pool.evict(addr);
        assert_eq!(pool.idle_count(addr), 0, "evicted peers hold nothing");
        server.join().unwrap();
    }

    #[test]
    fn pool_drops_closed_connections_at_checkout() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let pool = ConnPool::new(RetryPolicy::default());
        let (conn, reused) = pool.checkout(addr).unwrap();
        assert!(!reused);
        let (server_side, _) = listener.accept().unwrap();
        drop(server_side);
        pool.checkin(addr, conn);
        // Let the FIN land so the health probe sees the close.
        std::thread::sleep(WallDuration::from_millis(20));
        let (_conn, reused) = pool.checkout(addr).unwrap();
        assert!(!reused, "closed idle conn must be dropped and redialed");
        assert_eq!(pool.idle_count(addr), 0);
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
