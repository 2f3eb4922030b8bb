//! The binary wire protocol: versioned frames and the message set.
//!
//! Every frame is `[magic u32][version u8][msg-type u8][payload-len u32]`
//! followed by `payload-len` payload bytes, all little-endian, encoded with
//! the hand-rolled codecs in [`prompt_core::bytes`] (no serde, per repo
//! policy). The magic and version are checked before the payload is even
//! read, so a peer speaking a future protocol fails fast with a clear error
//! instead of a garbage decode.
//!
//! Protocol v2 compacts the data-plane payloads: collection counts and
//! small integers travel as LEB128 varints, and the key ids of key-sorted
//! runs (shuffle-segment items, reduce aggregates) are
//! delta-encoded against the previous key as zigzag varints — ascending ids
//! a few apart take 1–2 bytes instead of 8. `f64` aggregates stay fixed
//! 8-byte bit patterns (bit-identity is non-negotiable, and mantissas do
//! not compress).
//!
//! Protocol v3 takes the key table out of `MapComplete`: every
//! wire-expressible Map keeps every tuple under its own key
//! ([`MapSpec`]), so the fragment table a `MapTask` carries *is* the block's
//! `(key, count)` cluster table and the driver assigns from its own copy. No
//! other frame changed a byte.
//!
//! Protocol v4 moves the ack and trims the reply. A worker sends
//! `MapComplete` once the block's `ShuffleAssign` has filed it into buckets,
//! so a batch whose acks are all in is fetchable on every source.
//! `ReduceComplete` carries the aggregates and the fetch stats only: the
//! driver tallies each bucket's tuples and fragments from its own assignment.
//!
//! Protocol v5 drops what no reader used: the v1-layout byte count from the
//! `FetchStats` trailer, and the worker ids `Heartbeat`, `RegisterAck` and
//! `WorkerError` carried — the connection a frame arrives on already names
//! its sender. `MapTask` frames did not change a byte.
//!
//! Protocol v6 ships a block as what the Map reads of it: `(key, count)`
//! runs over a value column, 16 bytes a run and 8 a value, where v5 sent
//! 24-byte `{ts, key, value}` tuples and a 16-byte-a-key fragment table.
//! No worker read the timestamps (the Map is `Map(k, v)`) or the table (the
//! driver assigns from its own copy, and a worker pairs its output with the
//! driver's `ShuffleAssign`). A Prompt block is one run per key, so its
//! frame fell from `24·n + 16·f` to `8·n + 16·f` block bytes. No other frame
//! changed.
//!
//! Protocol v7 keeps v6's layout and narrows what a `MapTask` block may be:
//! what every block is, one run per key, keys strictly ascending. A block
//! whose run keys repeat or descend is `Malformed`, so the worker's Map
//! folds every block it decodes in one walk. v6 accepted such blocks, so a
//! v6 peer is turned away at the header.
//!
//! An encoder writes the header in place, then the payload behind it, into
//! one buffer, and patches the payload length in last; a `MapTask`'s buffer
//! is sized exactly up front (`18 + 4 + 16·r + 4 + 8·n` payload bytes for
//! `r` runs over `n` values), so encoding one makes one allocation. Runs and
//! values go to the buffer from a stack block, 256 entries a write. A reader
//! (`transport::FrameConn`) reads each payload into a buffer the
//! connection keeps across frames, bounded so that one large frame does not
//! pin its size for the connection's life.

use std::net::{Ipv4Addr, SocketAddrV4};

use prompt_core::batch::DataBlock;
use prompt_core::bytes::{
    self, ByteReader, ByteWriter, BytesSink, CodecError, FRAGMENT_WIRE_SIZE, TUPLE_WIRE_SIZE,
    VALUE_WIRE_SIZE,
};
use prompt_core::columnar::{ColumnarBatch, ColumnarBlock};
use prompt_core::types::Key;

use crate::job::{JobSpec, MapSpec, ReduceOp};

/// Frame magic: `"PNET"` little-endian.
pub const MAGIC: u32 = 0x5445_4e50;

/// Current protocol version. Bump on any incompatible layout change.
/// v2: varint/delta-compacted data-plane payloads (see module docs).
/// v3: `MapComplete` is a bare ack — it no longer carries a key table.
/// v4: `MapComplete` means filed; `ReduceComplete` carries no counts.
/// v5: no v1 byte count in `FetchStats`, no worker id where the connection
/// names the sender.
/// v6: a `MapTask` block is key runs over a value column: no timestamps, no
/// fragment table.
/// v7: a `MapTask` block's run keys strictly ascend; the layout is v6's.
pub const PROTOCOL_VERSION: u8 = 7;

/// Frame header length: magic + version + msg type + payload length.
pub const HEADER_LEN: usize = 10;

/// The frame header's msg-type byte of [`Message::MapTask`].
const MAP_TASK: u8 = 4;

/// Upper bound on a payload (256 MiB) — rejects garbage length fields
/// before any allocation.
pub const MAX_PAYLOAD_LEN: u32 = 256 << 20;

/// Protocol-layer error: the bytes are not a valid frame of this protocol.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WireError {
    /// The frame does not start with [`MAGIC`].
    BadMagic(u32),
    /// The frame's version byte is not [`PROTOCOL_VERSION`].
    BadVersion(u8),
    /// Unknown message-type byte.
    UnknownType(u8),
    /// Declared payload length exceeds [`MAX_PAYLOAD_LEN`].
    FrameTooLarge(u32),
    /// The payload failed to decode.
    Codec(CodecError),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::BadMagic(m) => write!(f, "bad frame magic {m:#010x}"),
            WireError::BadVersion(v) => {
                write!(f, "protocol version {v} (expected {PROTOCOL_VERSION})")
            }
            WireError::UnknownType(t) => write!(f, "unknown message type {t}"),
            WireError::FrameTooLarge(n) => write!(f, "payload of {n} bytes exceeds frame cap"),
            WireError::Codec(e) => write!(f, "payload decode: {e}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<CodecError> for WireError {
    fn from(e: CodecError) -> WireError {
        WireError::Codec(e)
    }
}

/// Where a reduce worker fetches one shuffle bucket's segments from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShuffleSource {
    /// The worker holding map outputs.
    pub worker: u32,
    /// Its shuffle listener address.
    pub addr: SocketAddrV4,
}

/// One map output's contribution to a shuffle bucket: the block it came
/// from and its `(key, partial, mapped-tuple-count)` items in key order.
#[derive(Clone, Debug, PartialEq)]
pub struct ShuffleSegment {
    /// The data block (map task) the items came from.
    pub block_id: u32,
    /// Key-ordered `(key, partial aggregate, tuples folded)` triples.
    pub items: Vec<(Key, f64, u64)>,
}

/// Shuffle data-plane cost of one Reduce task, measured by the fetching
/// worker and reported to the driver on `ReduceComplete` (the driver's own
/// counters only see the control plane — worker-to-worker fetch sockets
/// are invisible to it).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FetchStats {
    /// Shuffle connections dialed for this task (pool misses).
    pub dialed: u64,
    /// Pooled shuffle connections reused for this task (pool hits).
    pub reused: u64,
    /// Wall-clock µs spent waiting on shuffle fetches, summed per source.
    pub wait_us: u64,
    /// Fetch-reply bytes actually received.
    pub bytes_wire: u64,
}

impl FetchStats {
    /// Accumulate another task's (or source's) stats into this one. The
    /// driver adds numbers a peer sent, so the sums saturate.
    pub fn absorb(&mut self, other: FetchStats) {
        self.dialed = self.dialed.saturating_add(other.dialed);
        self.reused = self.reused.saturating_add(other.reused);
        self.wait_us = self.wait_us.saturating_add(other.wait_us);
        self.bytes_wire = self.bytes_wire.saturating_add(other.bytes_wire);
    }
}

/// Every message of the control and data planes.
#[derive(Clone, Debug, PartialEq)]
pub enum Message {
    /// Worker → driver: first message on the control connection.
    Register {
        /// The worker's id (assigned at spawn).
        worker: u32,
        /// Port of the worker's shuffle listener (on loopback).
        shuffle_port: u16,
    },
    /// Driver → worker: registration accepted.
    RegisterAck {
        /// Heartbeat period the worker should keep.
        heartbeat_ms: u32,
    },
    /// Worker → driver: liveness beacon (the connection names the worker).
    Heartbeat,
    /// Driver → worker: map one data block.
    MapTask {
        /// Batch sequence number.
        seq: u64,
        /// Execution attempt epoch (stale-epoch replies are dropped).
        epoch: u32,
        /// Block index within the batch's plan.
        block_id: u32,
        /// The job to run.
        job: JobSpec,
        /// The block: its runs and values cross the wire, its fragment table
        /// does not (a decoded block has none).
        block: DataBlock,
    },
    /// Worker → driver: the block is mapped and filed under the buckets its
    /// `ShuffleAssign` named, so its segments are fetchable. A bare ack: the
    /// driver assigned the block from its own plan's fragment table.
    MapComplete {
        /// Batch sequence number.
        seq: u64,
        /// Execution attempt epoch.
        epoch: u32,
        /// Block index mapped.
        block_id: u32,
    },
    /// Driver → worker: the bucket assignment for one block, sent behind its
    /// `MapTask` (`assignment[i]` = Reduce bucket of the block's i-th cluster).
    ShuffleAssign {
        /// Batch sequence number.
        seq: u64,
        /// Execution attempt epoch.
        epoch: u32,
        /// Block index the assignment applies to.
        block_id: u32,
        /// Bucket per cluster, in the block's key order.
        assignment: Vec<u32>,
    },
    /// Driver → worker: reduce one bucket by fetching segments from the
    /// listed sources.
    ReduceTask {
        /// Batch sequence number.
        seq: u64,
        /// Execution attempt epoch.
        epoch: u32,
        /// Reduce bucket index.
        bucket: u32,
        /// The merge operation.
        reduce: ReduceOp,
        /// Workers holding map outputs for this batch.
        sources: Vec<ShuffleSource>,
    },
    /// Worker → driver: one bucket reduced. Its tuple and fragment counts are
    /// the driver's own tally of the assignment; its key count is
    /// `aggregates.len()`.
    ReduceComplete {
        /// Batch sequence number.
        seq: u64,
        /// Execution attempt epoch.
        epoch: u32,
        /// Reduce bucket index.
        bucket: u32,
        /// Final `(key, aggregate)` pairs, in key order.
        aggregates: Vec<(Key, f64)>,
        /// Shuffle-fetch cost of the task, as seen by the reducing worker.
        net: FetchStats,
    },
    /// Driver → worker: batch committed; garbage-collect its shuffle state.
    BatchDone {
        /// Batch sequence number.
        seq: u64,
    },
    /// Driver → worker: exit cleanly.
    Shutdown,
    /// Reduce worker → map worker (shuffle plane): request one bucket.
    Fetch {
        /// Batch sequence number.
        seq: u64,
        /// Execution attempt epoch.
        epoch: u32,
        /// Reduce bucket index.
        bucket: u32,
    },
    /// Map worker → reduce worker (shuffle plane): the bucket's segments.
    FetchReply {
        /// Whether the source holds the batch attempt; if `false` the
        /// segments are empty and the fetcher blames the source.
        ready: bool,
        /// The bucket's segments (unordered; the fetcher sorts by block).
        segments: Vec<ShuffleSegment>,
    },
    /// Worker → driver: a task failed; `blame` names the peer at fault
    /// (e.g. an unreachable shuffle source) so the driver can declare it
    /// lost rather than the reporter, whom the connection names.
    WorkerError {
        /// Batch in flight.
        seq: u64,
        /// Execution attempt epoch.
        epoch: u32,
        /// The worker id held responsible.
        blame: u32,
        /// Human-readable detail for traces/logs.
        detail: String,
    },
}

impl Message {
    /// The message-type byte written into the frame header.
    fn type_id(&self) -> u8 {
        match self {
            Message::Register { .. } => 1,
            Message::RegisterAck { .. } => 2,
            Message::Heartbeat => 3,
            Message::MapTask { .. } => MAP_TASK,
            Message::MapComplete { .. } => 5,
            Message::ShuffleAssign { .. } => 6,
            Message::ReduceTask { .. } => 7,
            Message::ReduceComplete { .. } => 8,
            Message::BatchDone { .. } => 9,
            Message::Shutdown => 10,
            Message::Fetch { .. } => 11,
            Message::FetchReply { .. } => 12,
            Message::WorkerError { .. } => 13,
        }
    }

    /// Short human-readable name (for logs and errors).
    pub fn kind(&self) -> &'static str {
        match self {
            Message::Register { .. } => "register",
            Message::RegisterAck { .. } => "register_ack",
            Message::Heartbeat => "heartbeat",
            Message::MapTask { .. } => "map_task",
            Message::MapComplete { .. } => "map_complete",
            Message::ShuffleAssign { .. } => "shuffle_assign",
            Message::ReduceTask { .. } => "reduce_task",
            Message::ReduceComplete { .. } => "reduce_complete",
            Message::BatchDone { .. } => "batch_done",
            Message::Shutdown => "shutdown",
            Message::Fetch { .. } => "fetch",
            Message::FetchReply { .. } => "fetch_reply",
            Message::WorkerError { .. } => "worker_error",
        }
    }

    /// Encode as one complete frame (header + payload), written once into
    /// one buffer.
    pub fn encode(&self) -> Vec<u8> {
        write_frame(self.type_id(), self.payload_capacity(), |w| {
            self.encode_payload(w)
        })
    }

    /// Payload bytes to reserve: exact for a `MapTask`, every field of which
    /// is fixed-width; the other payloads grow as they are written.
    fn payload_capacity(&self) -> usize {
        match self {
            Message::MapTask { block, .. } => map_task_len(block.runs.len(), block.size()),
            _ => 64,
        }
    }

    fn encode_payload(&self, w: &mut ByteWriter) {
        match self {
            Message::Register {
                worker,
                shuffle_port,
            } => {
                w.put_u32(*worker);
                w.put_u16(*shuffle_port);
            }
            Message::RegisterAck { heartbeat_ms } => w.put_u32(*heartbeat_ms),
            Message::Heartbeat => {}
            Message::MapTask {
                seq,
                epoch,
                block_id,
                job,
                block,
            } => put_map_task(w, *seq, *epoch, *block_id, job, |w| {
                bytes::put_block(w, block)
            }),
            Message::MapComplete {
                seq,
                epoch,
                block_id,
            } => {
                w.put_u64(*seq);
                w.put_u32(*epoch);
                w.put_u32(*block_id);
            }
            Message::ShuffleAssign {
                seq,
                epoch,
                block_id,
                assignment,
            } => {
                w.put_u64(*seq);
                w.put_u32(*epoch);
                w.put_u32(*block_id);
                w.put_varint_len(assignment.len());
                for &b in assignment {
                    w.put_varint(u64::from(b));
                }
            }
            Message::ReduceTask {
                seq,
                epoch,
                bucket,
                reduce,
                sources,
            } => {
                w.put_u64(*seq);
                w.put_u32(*epoch);
                w.put_u32(*bucket);
                w.put_u8(reduce.wire_code());
                w.put_len(sources.len());
                for s in sources {
                    w.put_u32(s.worker);
                    w.put_bytes(&s.addr.ip().octets());
                    w.put_u16(s.addr.port());
                }
            }
            Message::ReduceComplete {
                seq,
                epoch,
                bucket,
                aggregates,
                net,
            } => {
                w.put_u64(*seq);
                w.put_u32(*epoch);
                w.put_u32(*bucket);
                w.put_varint_len(aggregates.len());
                let mut prev = 0u64;
                for &(k, v) in aggregates {
                    bytes::put_key_delta(w, prev, k.0);
                    prev = k.0;
                    w.put_f64(v);
                }
                w.put_varint(net.dialed);
                w.put_varint(net.reused);
                w.put_varint(net.wait_us);
                w.put_varint(net.bytes_wire);
            }
            Message::BatchDone { seq } => w.put_u64(*seq),
            Message::Shutdown => {}
            Message::Fetch { seq, epoch, bucket } => {
                w.put_u64(*seq);
                w.put_u32(*epoch);
                w.put_u32(*bucket);
            }
            Message::FetchReply { ready, segments } => {
                w.put_u8(u8::from(*ready));
                w.put_varint_len(segments.len());
                for seg in segments {
                    w.put_varint(u64::from(seg.block_id));
                    w.put_varint_len(seg.items.len());
                    let mut prev = 0u64;
                    for &(k, v, n) in &seg.items {
                        bytes::put_key_delta(w, prev, k.0);
                        prev = k.0;
                        w.put_f64(v);
                        w.put_varint(n);
                    }
                }
            }
            Message::WorkerError {
                seq,
                epoch,
                blame,
                detail,
            } => {
                w.put_u64(*seq);
                w.put_u32(*epoch);
                w.put_u32(*blame);
                w.put_str(detail);
            }
        }
    }

    /// What this message's payload occupied in the retired fixed-width v1
    /// layout (8-byte keys/counts, 4-byte length prefixes, no deltas, a
    /// worker id in every worker-sent control frame). No transport counts it:
    /// its one caller outside tests is the benchmark's `wire.bytes_raw`
    /// probe.
    pub fn v1_payload_len(&self) -> usize {
        match self {
            Message::Register { .. } => 6,
            Message::RegisterAck { .. } => 8,
            Message::Heartbeat => 4,
            Message::MapTask { block, .. } => {
                let (tuples, fragments) = (block.size(), block.cardinality());
                MAP_TASK_HEADER_LEN
                    + 4
                    + TUPLE_WIRE_SIZE * tuples
                    + 4
                    + FRAGMENT_WIRE_SIZE * fragments
            }
            Message::MapComplete { .. } => 16,
            Message::ShuffleAssign { assignment, .. } => 8 + 4 + 4 + 4 + 4 * assignment.len(),
            Message::ReduceTask { sources, .. } => 8 + 4 + 4 + 1 + 4 + 10 * sources.len(),
            // v1 carried no FetchStats trailer.
            Message::ReduceComplete { aggregates, .. } => 8 + 4 + 4 + 4 + 16 * aggregates.len(),
            Message::BatchDone { .. } => 8,
            Message::Shutdown => 0,
            Message::Fetch { .. } => 16,
            Message::FetchReply { segments, .. } => {
                1 + 4
                    + segments
                        .iter()
                        .map(|s| 4 + 4 + TUPLE_WIRE_SIZE * s.items.len())
                        .sum::<usize>()
            }
            Message::WorkerError { detail, .. } => 4 + 8 + 4 + 4 + 4 + detail.len(),
        }
    }

    /// Validate a frame header, returning `(msg_type, payload_len)`.
    pub fn check_header(header: &[u8; HEADER_LEN]) -> Result<(u8, u32), WireError> {
        let mut r = ByteReader::new(header);
        let magic = r.get_u32().expect("header is long enough");
        if magic != MAGIC {
            return Err(WireError::BadMagic(magic));
        }
        let version = r.get_u8().expect("header is long enough");
        if version != PROTOCOL_VERSION {
            return Err(WireError::BadVersion(version));
        }
        let msg_type = r.get_u8().expect("header is long enough");
        let len = r.get_u32().expect("header is long enough");
        if len > MAX_PAYLOAD_LEN {
            return Err(WireError::FrameTooLarge(len));
        }
        Ok((msg_type, len))
    }

    /// Decode one complete frame (header + payload), as produced by
    /// [`Message::encode`].
    pub fn decode(frame: &[u8]) -> Result<Message, WireError> {
        if frame.len() < HEADER_LEN {
            return Err(WireError::Codec(CodecError::Truncated {
                needed: HEADER_LEN,
                available: frame.len(),
            }));
        }
        let header: &[u8; HEADER_LEN] = frame[..HEADER_LEN].try_into().expect("checked length");
        let (msg_type, len) = Message::check_header(header)?;
        let payload = &frame[HEADER_LEN..];
        if payload.len() != len as usize {
            return Err(WireError::Codec(CodecError::Truncated {
                needed: len as usize,
                available: payload.len(),
            }));
        }
        Message::decode_payload(msg_type, payload)
    }

    /// Decode a payload whose header was already validated.
    pub fn decode_payload(msg_type: u8, payload: &[u8]) -> Result<Message, WireError> {
        let mut r = ByteReader::new(payload);
        let msg = match msg_type {
            1 => Message::Register {
                worker: r.get_u32()?,
                shuffle_port: r.get_u16()?,
            },
            2 => Message::RegisterAck {
                heartbeat_ms: r.get_u32()?,
            },
            3 => Message::Heartbeat,
            MAP_TASK => {
                let seq = r.get_u64()?;
                let epoch = r.get_u32()?;
                let block_id = r.get_u32()?;
                let map = MapSpec::from_wire_code(r.get_u8()?)
                    .ok_or(WireError::Codec(CodecError::Malformed("map spec tag")))?;
                let reduce = ReduceOp::from_wire_code(r.get_u8()?)
                    .ok_or(WireError::Codec(CodecError::Malformed("reduce op tag")))?;
                Message::MapTask {
                    seq,
                    epoch,
                    block_id,
                    job: JobSpec { map, reduce },
                    block: bytes::get_block(&mut r)?,
                }
            }
            5 => Message::MapComplete {
                seq: r.get_u64()?,
                epoch: r.get_u32()?,
                block_id: r.get_u32()?,
            },
            6 => {
                let seq = r.get_u64()?;
                let epoch = r.get_u32()?;
                let block_id = r.get_u32()?;
                let n = r.get_varint_len(1)?;
                let mut assignment = Vec::with_capacity(n);
                for _ in 0..n {
                    assignment.push(get_small_u32(&mut r)?);
                }
                Message::ShuffleAssign {
                    seq,
                    epoch,
                    block_id,
                    assignment,
                }
            }
            7 => {
                let seq = r.get_u64()?;
                let epoch = r.get_u32()?;
                let bucket = r.get_u32()?;
                let reduce = ReduceOp::from_wire_code(r.get_u8()?)
                    .ok_or(WireError::Codec(CodecError::Malformed("reduce op tag")))?;
                let n = r.get_len(10)?;
                let mut sources = Vec::with_capacity(n);
                for _ in 0..n {
                    let worker = r.get_u32()?;
                    let ip = Ipv4Addr::new(r.get_u8()?, r.get_u8()?, r.get_u8()?, r.get_u8()?);
                    let port = r.get_u16()?;
                    sources.push(ShuffleSource {
                        worker,
                        addr: SocketAddrV4::new(ip, port),
                    });
                }
                Message::ReduceTask {
                    seq,
                    epoch,
                    bucket,
                    reduce,
                    sources,
                }
            }
            8 => {
                let seq = r.get_u64()?;
                let epoch = r.get_u32()?;
                let bucket = r.get_u32()?;
                // Minimal aggregate: 1-byte key delta + 8-byte value.
                let n = r.get_varint_len(9)?;
                let mut aggregates = Vec::with_capacity(n);
                let mut prev = 0u64;
                for _ in 0..n {
                    let k = bytes::get_key_delta(&mut r, prev)?;
                    prev = k;
                    aggregates.push((Key(k), r.get_f64()?));
                }
                let net = FetchStats {
                    dialed: r.get_varint()?,
                    reused: r.get_varint()?,
                    wait_us: r.get_varint()?,
                    bytes_wire: r.get_varint()?,
                };
                Message::ReduceComplete {
                    seq,
                    epoch,
                    bucket,
                    aggregates,
                    net,
                }
            }
            9 => Message::BatchDone { seq: r.get_u64()? },
            10 => Message::Shutdown,
            11 => Message::Fetch {
                seq: r.get_u64()?,
                epoch: r.get_u32()?,
                bucket: r.get_u32()?,
            },
            12 => {
                let ready = match r.get_u8()? {
                    0 => false,
                    1 => true,
                    _ => return Err(WireError::Codec(CodecError::Malformed("ready flag"))),
                };
                // Minimal segment: 1-byte block id + 1-byte item count.
                let n = r.get_varint_len(2)?;
                let mut segments = Vec::with_capacity(n);
                for _ in 0..n {
                    let block_id = get_small_u32(&mut r)?;
                    // Minimal item: key delta + fixed f64 + tuple count.
                    let m = r.get_varint_len(10)?;
                    let mut items = Vec::with_capacity(m);
                    let mut prev = 0u64;
                    for _ in 0..m {
                        let k = bytes::get_key_delta(&mut r, prev)?;
                        prev = k;
                        items.push((Key(k), r.get_f64()?, r.get_varint()?));
                    }
                    segments.push(ShuffleSegment { block_id, items });
                }
                Message::FetchReply { ready, segments }
            }
            13 => Message::WorkerError {
                seq: r.get_u64()?,
                epoch: r.get_u32()?,
                blame: r.get_u32()?,
                detail: r.get_str()?,
            },
            other => return Err(WireError::UnknownType(other)),
        };
        r.expect_empty()?;
        Ok(msg)
    }
}

/// Write one frame into a single buffer of `HEADER_LEN + capacity` bytes:
/// the header first, `payload` after it, and then the payload's length into
/// the header — so no payload is built apart and copied behind a header.
fn write_frame(msg_type: u8, capacity: usize, payload: impl FnOnce(&mut ByteWriter)) -> Vec<u8> {
    let mut w = ByteWriter::with_capacity(HEADER_LEN + capacity);
    w.put_u32(MAGIC);
    w.put_u8(PROTOCOL_VERSION);
    w.put_u8(msg_type);
    w.put_u32(0);
    payload(&mut w);
    let len = w.len() - HEADER_LEN;
    assert!(
        len <= MAX_PAYLOAD_LEN as usize,
        "oversized frame: {len} bytes"
    );
    w.patch_u32(HEADER_LEN - 4, len as u32);
    w.into_bytes()
}

/// The [`Message::MapTask`] payload: the task header, then the block body
/// `put_block` writes. [`Message::encode`] and both borrowing encoders below
/// go through here, so the three cannot drift.
fn put_map_task(
    w: &mut ByteWriter,
    seq: u64,
    epoch: u32,
    block_id: u32,
    job: &JobSpec,
    put_block: impl FnOnce(&mut ByteWriter),
) {
    w.put_u64(seq);
    w.put_u32(epoch);
    w.put_u32(block_id);
    w.put_u8(job.map.wire_code());
    w.put_u8(job.reduce.wire_code());
    put_block(w);
}

/// Bytes of a [`Message::MapTask`] payload before its block: seq, epoch,
/// block id and the job's two tags.
const MAP_TASK_HEADER_LEN: usize = 8 + 4 + 4 + 1 + 1;

/// Size of a [`Message::MapTask`] payload whose block has `runs` runs over
/// `values` values.
fn map_task_len(runs: usize, values: usize) -> usize {
    MAP_TASK_HEADER_LEN + (4 + FRAGMENT_WIRE_SIZE * runs) + (4 + VALUE_WIRE_SIZE * values)
}

/// Encode one [`Message::MapTask`] frame from a borrowed row block — what
/// `Message::MapTask { block, .. }.encode()` produces, without owning (and
/// so without cloning) the block.
pub fn encode_map_task(
    seq: u64,
    epoch: u32,
    block_id: u32,
    job: &JobSpec,
    block: &DataBlock,
) -> Vec<u8> {
    let len = map_task_len(block.runs.len(), block.size());
    write_frame(MAP_TASK, len, |w| {
        put_map_task(w, seq, epoch, block_id, job, |w| bytes::put_block(w, block))
    })
}

/// Encode one [`Message::MapTask`] frame straight from columnar block
/// slices — no intermediate row [`DataBlock`] is built. The payload bytes
/// are identical to encoding the equivalent row block
/// ([`bytes::put_block_columnar`] sends the ranges as its runs and walks
/// their values in assignment order, the order `ColumnarPlan::to_row_plan`
/// concatenates), so workers decode it with the ordinary
/// [`Message::decode`] path.
pub fn encode_map_task_columnar(
    seq: u64,
    epoch: u32,
    block_id: u32,
    job: &JobSpec,
    arena: &ColumnarBatch,
    block: &ColumnarBlock,
) -> Vec<u8> {
    let len = map_task_len(block.ranges.len(), block.size());
    write_frame(MAP_TASK, len, |w| {
        put_map_task(w, seq, epoch, block_id, job, |w| {
            bytes::put_block_columnar(w, arena, block)
        })
    })
}

/// Decode a varint that must fit in a `u32` (block ids, bucket indices).
fn get_small_u32(r: &mut ByteReader<'_>) -> Result<u32, CodecError> {
    u32::try_from(r.get_varint()?).map_err(|_| CodecError::Malformed("varint overflows u32"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use prompt_core::types::{Time, Tuple};

    /// A frame around a payload built by hand (for payloads no `Message`
    /// encodes).
    fn frame(msg_type: u8, payload: &[u8]) -> Vec<u8> {
        write_frame(msg_type, payload.len(), |w| w.put_bytes(payload))
    }

    /// One exemplar of every message variant.
    pub(crate) fn exemplars() -> Vec<Message> {
        let block = [(Key(7), 1.5), (Key(7), -0.5), (Key(2), 4.0)]
            .into_iter()
            .collect();
        vec![
            Message::Register {
                worker: 3,
                shuffle_port: 40_001,
            },
            Message::RegisterAck { heartbeat_ms: 100 },
            Message::Heartbeat,
            Message::MapTask {
                seq: 9,
                epoch: 2,
                block_id: 1,
                job: JobSpec {
                    map: MapSpec::Identity,
                    reduce: ReduceOp::Sum,
                },
                block,
            },
            Message::MapComplete {
                seq: 9,
                epoch: 2,
                block_id: 1,
            },
            Message::ShuffleAssign {
                seq: 9,
                epoch: 2,
                block_id: 1,
                assignment: vec![0, 3, 1],
            },
            Message::ReduceTask {
                seq: 9,
                epoch: 2,
                bucket: 3,
                reduce: ReduceOp::Max,
                sources: vec![ShuffleSource {
                    worker: 1,
                    addr: SocketAddrV4::new(Ipv4Addr::LOCALHOST, 40_002),
                }],
            },
            Message::ReduceComplete {
                seq: 9,
                epoch: 2,
                bucket: 3,
                aggregates: vec![(Key(7), 1.0), (Key(9), f64::NEG_INFINITY)],
                net: FetchStats {
                    dialed: 1,
                    reused: 2,
                    wait_us: 350,
                    bytes_wire: 64,
                },
            },
            Message::BatchDone { seq: 9 },
            Message::Shutdown,
            Message::Fetch {
                seq: 9,
                epoch: 2,
                bucket: 3,
            },
            Message::FetchReply {
                ready: true,
                segments: vec![ShuffleSegment {
                    block_id: 1,
                    items: vec![(Key(7), 1.0, 2), (Key(9), -0.0, 1)],
                }],
            },
            Message::WorkerError {
                seq: 9,
                epoch: 2,
                blame: 1,
                detail: "fetch from worker 1 timed out".into(),
            },
        ]
    }

    #[test]
    fn borrowed_map_task_frames_are_byte_identical_to_the_owned_message() {
        use prompt_core::batch::MicroBatch;
        use prompt_core::columnar::ColumnarPlan;
        use prompt_core::partitioner::Technique;
        use prompt_core::types::Interval;

        let interval = Interval::new(Time(0), Time(1_000_000));
        let tuples: Vec<Tuple> = (0..400)
            .map(|i| Tuple::new(Time(1 + i), Key(i % 23), i as f64 * 0.25 - 3.0))
            .collect();
        let batch = MicroBatch::new(tuples, interval);
        let plan = Technique::Prompt.build(7).partition(&batch, 4);
        let cols = ColumnarPlan::from_row_plan(&plan);
        let job = JobSpec {
            map: MapSpec::Identity,
            reduce: ReduceOp::Sum,
        };
        for (i, (row, col)) in plan.blocks.iter().zip(&cols.blocks).enumerate() {
            let msg = Message::MapTask {
                seq: 42,
                epoch: 3,
                block_id: i as u32,
                job,
                block: row.clone(),
            };
            for (layout, frame) in [
                ("rows", encode_map_task(42, 3, i as u32, &job, row)),
                (
                    "columns",
                    encode_map_task_columnar(42, 3, i as u32, &job, &cols.arena, col),
                ),
            ] {
                assert_eq!(frame, msg.encode(), "block {i} {layout} frame diverged");
                let Message::MapTask { block, .. } = Message::decode(&frame).unwrap() else {
                    panic!("block {i} {layout} decoded to another message");
                };
                assert_eq!(&block, row, "block {i} {layout}");
            }
        }
    }

    #[test]
    fn every_variant_round_trips() {
        for msg in exemplars() {
            let frame = msg.encode();
            let back = Message::decode(&frame).unwrap_or_else(|e| panic!("{}: {e}", msg.kind()));
            assert_eq!(back, msg);
        }
    }

    #[test]
    fn v2_data_plane_payloads_beat_the_v1_layout() {
        for msg in exemplars() {
            let encoded = msg.encode().len() - HEADER_LEN;
            if matches!(
                msg,
                Message::ShuffleAssign { .. }
                    | Message::ReduceComplete { .. }
                    | Message::FetchReply { .. }
            ) {
                assert!(
                    encoded < msg.v1_payload_len(),
                    "{}: v2 {} bytes, v1 {} bytes",
                    msg.kind(),
                    encoded,
                    msg.v1_payload_len()
                );
            }
        }
    }

    #[test]
    fn bad_magic_and_version_rejected() {
        let mut frame = Message::Shutdown.encode();
        frame[0] ^= 0xff;
        assert!(matches!(
            Message::decode(&frame),
            Err(WireError::BadMagic(_))
        ));
        let mut frame = Message::Shutdown.encode();
        frame[4] = PROTOCOL_VERSION + 1;
        assert_eq!(
            Message::decode(&frame),
            Err(WireError::BadVersion(PROTOCOL_VERSION + 1))
        );
    }

    /// v4: a `MapComplete` is still an ack of fixed size whatever was mapped,
    /// and a peer still speaking v3 — whose acks come before filing — is
    /// turned away at the header, before a payload is read.
    #[test]
    fn map_complete_is_a_bare_ack_and_v3_peers_are_refused() {
        for (seq, epoch, block_id) in [(0, 0, 0), (u64::MAX, u32::MAX, u32::MAX)] {
            let ack = Message::MapComplete {
                seq,
                epoch,
                block_id,
            };
            assert_eq!(ack.encode().len(), HEADER_LEN + 16);
            assert_eq!(ack.v1_payload_len(), 16);
        }
        for msg in exemplars() {
            let mut frame = msg.encode();
            frame[4] = 3;
            assert_eq!(Message::decode(&frame), Err(WireError::BadVersion(3)));
        }
    }

    /// v5: `FetchStats` is four varints and the worker-sent control frames
    /// carry no worker id. A v4 peer is turned away at the header, and a
    /// v4-shaped `ReduceComplete` payload under a v5 header — its fifth
    /// trailer varint, the v1 byte count — is an error, not other stats.
    #[test]
    fn v5_frames_carry_no_v1_count_and_no_sender_id() {
        for msg in exemplars() {
            let mut frame = msg.encode();
            frame[4] = 4;
            assert_eq!(Message::decode(&frame), Err(WireError::BadVersion(4)));
        }
        let payload = |msg: &Message| msg.encode().len() - HEADER_LEN;
        assert_eq!(payload(&Message::Heartbeat), 0);
        assert_eq!(payload(&Message::RegisterAck { heartbeat_ms: 7 }), 4);
        let error = Message::WorkerError {
            seq: 9,
            epoch: 2,
            blame: 1,
            detail: String::new(),
        };
        assert_eq!(payload(&error), 8 + 4 + 4 + 4);
        let reply = |trailer: &[u64]| {
            let mut w = ByteWriter::new();
            w.put_u64(9);
            w.put_u32(2);
            w.put_u32(1);
            w.put_varint(0); // no aggregates
            for &v in trailer {
                w.put_varint(v);
            }
            frame(8, &w.into_bytes())
        };
        let net = FetchStats {
            dialed: 1,
            reused: 2,
            wait_us: 350,
            bytes_wire: 64,
        };
        let v5 = Message::ReduceComplete {
            seq: 9,
            epoch: 2,
            bucket: 1,
            aggregates: Vec::new(),
            net,
        };
        assert_eq!(reply(&[1, 2, 350, 64]), v5.encode());
        let v4 = reply(&[1, 2, 350, 64, 128]);
        assert!(matches!(Message::decode(&v4), Err(WireError::Codec(_))));
    }

    /// v7: a `MapTask`'s block is its runs and its values — 16 bytes a run,
    /// 8 a value, no timestamp and no fragment table, as at v6 — and its run
    /// keys strictly ascend. A v6 peer, which may send runs that do not, and
    /// a v5 peer, whose frames carry timestamps and a fragment table, are
    /// turned away at the header.
    #[test]
    fn v7_map_tasks_carry_ascending_runs_and_values_only() {
        assert_eq!(PROTOCOL_VERSION, 7);
        for msg in exemplars() {
            for old in [5, 6] {
                let mut frame = msg.encode();
                frame[4] = old;
                assert_eq!(Message::decode(&frame), Err(WireError::BadVersion(old)));
            }
        }
        let task = (exemplars().into_iter())
            .find(|m| matches!(m, Message::MapTask { .. }))
            .expect("a MapTask exemplar");
        let Message::MapTask { block, .. } = &task else {
            unreachable!()
        };
        assert_eq!((block.runs.len(), block.size()), (2, 3));
        let payload = task.encode().len() - HEADER_LEN;
        assert_eq!(payload, 18 + (4 + 2 * 16) + (4 + 3 * 8));
        assert!(payload < task.v1_payload_len());
        assert_eq!(Message::decode(&task.encode()), Ok(task));
    }

    #[test]
    fn truncation_rejected_at_every_cut() {
        for msg in exemplars() {
            let frame = msg.encode();
            for cut in 0..frame.len() {
                assert!(
                    Message::decode(&frame[..cut]).is_err(),
                    "{} decoded from {cut}/{} bytes",
                    msg.kind(),
                    frame.len()
                );
            }
        }
    }

    #[test]
    fn oversized_length_field_rejected() {
        let mut frame = Message::Shutdown.encode();
        frame[6..10].copy_from_slice(&(MAX_PAYLOAD_LEN + 1).to_le_bytes());
        assert_eq!(
            Message::decode(&frame),
            Err(WireError::FrameTooLarge(MAX_PAYLOAD_LEN + 1))
        );
    }

    #[test]
    fn unknown_type_rejected() {
        // 13 is the last live type: 0 and everything past it is unassigned.
        for ty in [0, 14, 15, 16, 200] {
            let mut frame = Message::Shutdown.encode();
            frame[5] = ty;
            assert_eq!(Message::decode(&frame), Err(WireError::UnknownType(ty)));
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut frame = Message::BatchDone { seq: 1 }.encode();
        // Grow the payload by one byte and fix up the length field.
        frame.push(0);
        let len = (frame.len() - HEADER_LEN) as u32;
        frame[6..10].copy_from_slice(&len.to_le_bytes());
        assert!(Message::decode(&frame).is_err());
    }
}
