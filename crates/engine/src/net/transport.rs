//! Framed TCP transport: length-prefixed message I/O, per-connection byte
//! accounting, a connect that retries on one fixed backoff schedule, and a
//! per-peer connection pool for the shuffle data plane. Crate-private: the
//! fleet's driver and workers are its only users.

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

/// The largest read buffer a connection keeps between frames. A frame above
/// it (up to [`super::wire::MAX_PAYLOAD_LEN`]) is read into a buffer that is
/// freed once the frame is decoded, so one large frame does not pin its size
/// for the connection's life. A benchmark Map frame is ≈ 0.8 MiB.
const KEPT_READ_BUF: usize = 4 << 20;

/// A TCP stream speaking the framed protocol.
#[derive(Debug)]
pub struct FrameConn {
    stream: TcpStream,
    counters: Arc<NetCounters>,
    /// Where each payload is read: kept across frames while it is at most
    /// [`KEPT_READ_BUF`], and zero-filled only when it grows.
    read_buf: Vec<u8>,
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
            read_buf: Vec::new(),
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
            read_buf: Vec::new(),
        })
    }

    /// Bound every blocking read; `None` blocks forever.
    pub fn set_read_timeout(&self, t: Option<WallDuration>) -> std::io::Result<()> {
        self.stream.set_read_timeout(t)
    }

    /// Shut down both directions; concurrent reads unblock with an error.
    pub fn shutdown(&self) {
        let _ = self.stream.shutdown(std::net::Shutdown::Both);
    }

    /// Write one message as a frame.
    pub fn send(&mut self, msg: &Message) -> Result<(), NetError> {
        self.send_frame(&msg.encode())
    }

    /// Write one pre-encoded frame (header + payload). Lets the driver
    /// encode a Map task straight from its borrowed block
    /// (`wire::encode_map_task`) without building a `Message`.
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
        let len = len as usize;
        if self.read_buf.len() < len {
            // Grown to a power of two within the bound, so frames of
            // similar sizes settle on one buffer; the old bytes are garbage.
            let size = len.next_power_of_two().min(KEPT_READ_BUF).max(len);
            self.read_buf = vec![0u8; size];
        }
        let payload = &mut self.read_buf[..len];
        let msg = match self.stream.read_exact(payload) {
            Ok(()) => Message::decode_payload(msg_type, payload).map_err(NetError::from),
            Err(e) => Err(NetError::from(e)),
        };
        if self.read_buf.len() > KEPT_READ_BUF {
            self.read_buf = Vec::new();
        }
        let msg = msg?;
        let wire = HEADER_LEN + len;
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
}

impl ConnPool {
    /// An empty pool.
    pub fn new() -> ConnPool {
        ConnPool {
            idle: Mutex::new(HashMap::new()),
        }
    }

    /// Check a connection to `addr` out: the most recently returned healthy
    /// idle connection if any (`reused = true`), else a fresh [`connect`]
    /// (`reused = false`).
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
        Ok((connect(addr)?, false))
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

    /// Idle connections currently held for `addr`.
    #[cfg(test)]
    pub fn idle_count(&self, addr: SocketAddr) -> usize {
        self.idle
            .lock()
            .expect("pool lock")
            .get(&addr)
            .map_or(0, Vec::len)
    }
}

/// Dial attempts before [`connect`] gives up.
const CONNECT_ATTEMPTS: u32 = 8;

/// The backoff after the first failed dial; it doubles after each further
/// failure, up to [`CONNECT_BACKOFF_MAX`].
const CONNECT_BACKOFF_BASE: WallDuration = WallDuration::from_millis(10);

/// The longest backoff between two dials.
const CONNECT_BACKOFF_MAX: WallDuration = WallDuration::from_millis(500);

/// The backoff before dial number `attempt + 1` (`attempt` is 1-based):
/// doubles from [`CONNECT_BACKOFF_BASE`], capped at [`CONNECT_BACKOFF_MAX`].
/// The sleeps of a dial that never connects total 1.13 s.
fn backoff(attempt: u32) -> WallDuration {
    let factor = 1u32 << attempt.saturating_sub(1).min(16);
    CONNECT_BACKOFF_BASE
        .saturating_mul(factor)
        .min(CONNECT_BACKOFF_MAX)
}

/// Connect to `addr`, retrying with backoff — the peer may not have bound
/// its listener yet (worker startup races the driver's first dial, and
/// shuffle listeners come up while a batch is in flight).
pub(crate) fn connect(addr: SocketAddr) -> Result<FrameConn, NetError> {
    let mut attempt = 1;
    loop {
        match TcpStream::connect(addr) {
            Ok(stream) => return Ok(FrameConn::new(stream)),
            Err(e) if attempt == CONNECT_ATTEMPTS => return Err(NetError::Io(e)),
            Err(_) => {
                std::thread::sleep(backoff(attempt));
                attempt += 1;
            }
        }
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
        let mut conn = connect(addr).expect("connect");
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

    /// A Map frame of `n` tuples, each its own key's run, whose value bits
    /// vary with `salt` (NaN payloads and `-0.0` included).
    fn map_frame(n: u64, salt: u64) -> Message {
        use crate::job::{JobSpec, MapSpec, ReduceOp};
        use prompt_core::batch::DataBlock;
        use prompt_core::types::Key;
        let block: DataBlock = (0..n)
            .map(|i| {
                let bits = prompt_core::hash::mix64(i ^ salt);
                let value = match i % 4 {
                    0 => f64::from_bits(0x7ff8_0000_0000_0000 | bits >> 13),
                    1 => -0.0,
                    _ => f64::from_bits(bits >> 2),
                };
                (Key(i), value)
            })
            .collect();
        Message::MapTask {
            seq: salt,
            epoch: 1,
            block_id: 2,
            job: JobSpec {
                map: MapSpec::Identity,
                reduce: ReduceOp::Sum,
            },
            block,
        }
    }

    /// A connected pair: the accepted side reads, the dialed side writes.
    fn pair() -> (FrameConn, FrameConn) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let writer = connect(addr).unwrap();
        let (stream, _) = listener.accept().unwrap();
        (FrameConn::new(stream), writer)
    }

    /// Every frame is read into the one buffer the connection keeps: a large
    /// frame, a small one and a smaller large one decode bit-exactly, though
    /// each leaves the last one's bytes behind its own.
    #[test]
    fn large_small_large_frames_decode_bit_exactly_from_one_kept_buffer() {
        let (mut reader, mut writer) = pair();
        let sent = [
            map_frame(40_000, 1),
            Message::BatchDone { seq: 9 },
            map_frame(30_000, 2),
        ];
        let frames: Vec<Vec<u8>> = sent.iter().map(Message::encode).collect();
        let writing = std::thread::spawn(move || {
            for frame in &frames {
                writer.send_frame(frame).unwrap();
            }
        });
        let mut kept = Vec::new();
        for msg in &sent {
            let (got, wire) = reader.recv_counted().unwrap();
            assert_eq!(wire, msg.encode().len());
            // By bytes: NaN values compare unequal as `f64`s.
            assert_eq!(got.encode(), msg.encode(), "{} diverged", msg.kind());
            kept.push((reader.read_buf.as_ptr(), reader.read_buf.len()));
        }
        writing.join().unwrap();
        assert!(
            kept.iter().all(|&k| k == kept[0]),
            "one buffer served all: {kept:?}"
        );
        assert!(kept[0].1 <= KEPT_READ_BUF);
    }

    /// A length above `MAX_PAYLOAD_LEN` fails at the header, before the
    /// connection allocates anything for its payload.
    #[test]
    fn an_oversized_header_is_refused_before_any_allocation() {
        use super::super::wire::{MAGIC, MAX_PAYLOAD_LEN, PROTOCOL_VERSION};
        let (mut reader, mut writer) = pair();
        let mut header = MAGIC.to_le_bytes().to_vec();
        header.extend([PROTOCOL_VERSION, 4]);
        header.extend((MAX_PAYLOAD_LEN + 1).to_le_bytes());
        writer.send_frame(&header).unwrap();
        let err = reader.recv().expect_err("oversized header");
        assert!(
            matches!(err, NetError::Wire(WireError::FrameTooLarge(n)) if n == MAX_PAYLOAD_LEN + 1),
            "{err}"
        );
        assert_eq!(reader.read_buf.capacity(), 0);
    }

    /// A legal frame above the kept bound is read into a buffer freed once
    /// it is decoded, and so is a hostile header at the cap whose payload
    /// never comes: neither pins its size for the connection's life.
    #[test]
    fn a_frame_above_the_kept_bound_does_not_pin_its_buffer() {
        use super::super::wire::{MAGIC, MAX_PAYLOAD_LEN, PROTOCOL_VERSION};
        let (mut reader, mut writer) = pair();
        let big = map_frame(200_000, 3);
        let frame = big.encode();
        assert!(frame.len() > KEPT_READ_BUF);
        let small = map_frame(1_000, 4);
        let small_frame = small.encode();
        let writing = std::thread::spawn(move || {
            writer.send_frame(&frame).unwrap();
            writer.send_frame(&small_frame).unwrap();
            let mut header = MAGIC.to_le_bytes().to_vec();
            header.extend([PROTOCOL_VERSION, 4]);
            header.extend(MAX_PAYLOAD_LEN.to_le_bytes());
            writer.send_frame(&header).unwrap();
            writer.shutdown();
        });
        assert_eq!(reader.recv().unwrap().encode(), big.encode());
        assert_eq!(
            reader.read_buf.capacity(),
            0,
            "the large frame's buffer was kept"
        );
        assert_eq!(reader.recv().unwrap().encode(), small.encode());
        assert!(reader.read_buf.len() <= KEPT_READ_BUF);
        let err = reader.recv().expect_err("the payload never comes");
        assert!(matches!(err, NetError::Io(_)), "{err}");
        assert_eq!(
            reader.read_buf.capacity(),
            0,
            "the capped frame's buffer was kept"
        );
        writing.join().unwrap();
    }

    #[test]
    fn read_timeout_is_distinguishable() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut conn = connect(addr).unwrap();
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
        let started = std::time::Instant::now();
        let err = connect(addr).expect_err("no listener");
        assert!(matches!(err, NetError::Io(_)));
        assert!(!err.is_timeout());
        // 10 + 20 + 40 + 80 + 160 + 320 + 500 ms between the eight dials.
        let slept = started.elapsed();
        assert!(slept >= WallDuration::from_millis(1_130), "{slept:?}");
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
        let pool = ConnPool::new();
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
        let pool = ConnPool::new();
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
        let ms: Vec<u128> = (1..CONNECT_ATTEMPTS)
            .map(|a| backoff(a).as_millis())
            .collect();
        assert_eq!(ms, [10, 20, 40, 80, 160, 320, 500], "capped at 500 ms");
        assert_eq!(backoff(30), CONNECT_BACKOFF_MAX);
    }
}
