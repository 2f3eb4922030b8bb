//! Property tests for the `prompt-net` wire codec.
//!
//! Every message variant must round-trip bit-exactly through
//! `encode`/`decode` for arbitrary field values, and every malformed frame
//! (truncated at any byte, wrong magic, wrong version, unknown type,
//! oversized length) must be rejected with a typed error — never a panic or
//! a garbage decode — and so must bytes that never were a frame: a valid
//! header over an arbitrary payload decodes to a message or to a typed error.
//! These run in the fast root tier; the deterministic exemplar-based unit
//! tests live next to the codec itself.

use proptest::collection::vec;
use proptest::prelude::*;

use prompt_core::batch::{Columns, DataBlock};
use prompt_core::bytes::{self, ByteReader, ByteWriter, BytesSink, CodecError};
use prompt_core::types::Key;
use prompt_engine::job::{JobSpec, MapSpec, ReduceOp};
use prompt_engine::net::wire::{
    FetchStats, Message, ShuffleSegment, ShuffleSource, WireError, HEADER_LEN, MAGIC,
    PROTOCOL_VERSION,
};
use std::net::{Ipv4Addr, SocketAddrV4};

/// A finite payload value: full-precision mantissa exercise without the
/// NaN != NaN equality hole (bit-preservation of the sign/infinities is
/// covered by the codec's exemplar unit tests).
fn value() -> impl Strategy<Value = f64> {
    -1.0e12f64..1.0e12
}

/// One piece of a hostile payload: raw bytes, or a field a decoder would
/// size an allocation or a loop by — varint counts (mostly huge), `u32`
/// length prefixes, an over-long varint — or a plausible small count, so
/// that some payloads get past the first guard.
fn hostile_chunk() -> impl Strategy<Value = Vec<u8>> {
    fn varint(v: u64) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_varint(v);
        w.into_bytes()
    }
    (0u8..7, any::<u64>(), vec(any::<u8>(), 0..64)).prop_map(|(kind, n, raw)| match kind {
        0 => raw,
        1 => varint(n),
        2 => varint(u64::MAX >> (n % 24)),
        3 => varint(n % 300),
        4 => (n as u32).to_le_bytes().to_vec(),
        5 => (u32::MAX >> (n % 8)).to_le_bytes().to_vec(),
        _ => vec![0xff; 11],
    })
}

/// A `MapTask` frame around `payload`.
fn reframe(payload: &[u8]) -> Vec<u8> {
    let mut frame = ByteWriter::with_capacity(HEADER_LEN + payload.len());
    frame.put_u32(MAGIC);
    frame.put_u8(PROTOCOL_VERSION);
    frame.put_u8(4);
    frame.put_u32(payload.len() as u32);
    frame.put_bytes(payload);
    frame.into_bytes()
}

fn round_trip(msg: Message) -> Result<(), proptest::test_runner::TestCaseError> {
    let frame = msg.encode();
    let back = Message::decode(&frame);
    prop_assert_eq!(back.as_ref(), Ok(&msg), "kind = {}", msg.kind());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn fixed_size_variants_round_trip(
        worker in any::<u32>(),
        port in any::<u16>(),
        hb in any::<u32>(),
        seq in any::<u64>(),
        epoch in any::<u32>(),
        bucket in any::<u32>(),
    ) {
        for msg in [
            Message::Register { worker, shuffle_port: port },
            Message::RegisterAck { heartbeat_ms: hb },
            Message::Heartbeat,
            Message::BatchDone { seq },
            Message::Shutdown,
            Message::Fetch { seq, epoch, bucket },
        ] {
            round_trip(msg)?;
        }
    }

    /// A block is its runs and the values its job reads (v8): one run per
    /// key, keys strictly ascending, as every block is. Any such runs round
    /// trip, with their values bit for bit under a job that reads values and
    /// with none under a count, which reads runs alone; no fragment table is
    /// sent. The same frame with a run emptied, two runs swapped so that
    /// their keys descend, or a value column added under a count is a
    /// `Malformed` error; under a job that reads values, so is a run one
    /// longer or shorter than the values allow, or the value column dropped.
    #[test]
    fn map_task_round_trips(
        seq in any::<u64>(),
        epoch in any::<u32>(),
        block_id in any::<u32>(),
        reduce_code in 0u8..4,
        first in any::<u64>(),
        runs in vec((1u64..1 << 40, vec(value(), 1..6)), 0..20),
        pick in any::<usize>(),
        other in any::<usize>(),
        longer in any::<bool>(),
    ) {
        // Each run's key is the last one's plus its gap, while that fits.
        let keys = runs.iter().scan(Some(first), |key, &(gap, _)| {
            let this = (*key)?;
            *key = this.checked_add(gap);
            Some(this)
        });
        let pairs = (keys.zip(&runs)).flat_map(|(key, (_, values))| values.iter().map(move |&v| (Key(key), v)));
        let block: DataBlock = pairs.collect();
        let (n_runs, tuples) = (block.runs.len(), block.size());
        let job = JobSpec {
            map: MapSpec::Identity,
            reduce: ReduceOp::from_wire_code(reduce_code).unwrap(),
        };
        let reads_values = job.columns() == Columns::RunsAndValues;
        let msg = Message::MapTask { seq, epoch, block_id, job, block };
        let frame = msg.encode();
        let Message::MapTask { mut block, .. } = msg else { unreachable!() };
        if !reads_values {
            block.values.clear();
        }
        round_trip(Message::MapTask { seq, epoch, block_id, job, block })?;
        if n_runs == 0 {
            return Ok(());
        }
        // The run table follows the 18-byte task header and its u32 count;
        // a run is its key, then its count, eight bytes each; then the value
        // column's u32 count and its values.
        let run_at = |i: usize| HEADER_LEN + 18 + 4 + 16 * i;
        let values_at = run_at(n_runs);
        let malformed = |what| Err(WireError::Codec(CodecError::Malformed(what)));
        let mut runs_alone = frame[HEADER_LEN..values_at].to_vec();
        if reads_values {
            // The block's values dropped: its runs alone, to a job that
            // reads values.
            runs_alone.extend_from_slice(&0u32.to_le_bytes());
            prop_assert_eq!(
                Message::decode(&reframe(&runs_alone)),
                malformed("runs do not sum to the value count")
            );
        } else {
            // A value column to a count, which reads none.
            runs_alone.extend_from_slice(&(tuples as u32).to_le_bytes());
            runs_alone.extend((0..tuples).flat_map(|i| (i as f64).to_bits().to_le_bytes()));
            prop_assert_eq!(
                Message::decode(&reframe(&runs_alone)),
                malformed("a value column under a job that reads none")
            );
        }
        let count_at = run_at(pick % n_runs) + 8;
        let count = u64::from_le_bytes(frame[count_at..count_at + 8].try_into().unwrap());
        // A run of one cannot shrink without emptying: it grows instead.
        let off_by_one = if longer || count == 1 { count + 1 } else { count - 1 };
        let mut refused = vec![(0, "empty run")];
        // Under a count the runs alone give the block's size.
        if reads_values {
            refused.push((off_by_one, "runs do not sum to the value count"));
        }
        for (bad, what) in refused {
            let mut corrupt = frame.clone();
            corrupt[count_at..count_at + 8].copy_from_slice(&bad.to_le_bytes());
            prop_assert_eq!(Message::decode(&corrupt), malformed(what));
        }
        if n_runs < 2 {
            return Ok(());
        }
        // Two distinct runs swapped, counts and all: the counts still sum
        // to the values, but the keys no longer ascend.
        let (a, b) = (pick % n_runs, other % (n_runs - 1));
        let (a, b) = if b >= a { (a, b + 1) } else { (b, a) };
        let mut swapped = frame.clone();
        let (head, tail) = swapped.split_at_mut(run_at(b));
        head[run_at(a)..run_at(a) + 16].swap_with_slice(&mut tail[..16]);
        prop_assert_eq!(Message::decode(&swapped), malformed("run keys do not ascend"));
    }

    #[test]
    fn map_complete_and_shuffle_assign_round_trip(
        seq in any::<u64>(),
        epoch in any::<u32>(),
        block_id in any::<u32>(),
        assignment in vec(any::<u32>(), 0..60),
        trailing in vec(any::<u8>(), 1..40),
    ) {
        // The ack is three fixed fields: one size, and nothing may follow.
        let ack = Message::MapComplete { seq, epoch, block_id };
        let mut frame = ack.encode();
        prop_assert_eq!(frame.len(), HEADER_LEN + 16);
        round_trip(ack)?;
        frame.extend_from_slice(&trailing);
        let len = (frame.len() - HEADER_LEN) as u32;
        frame[6..10].copy_from_slice(&len.to_le_bytes());
        prop_assert!(matches!(Message::decode(&frame), Err(WireError::Codec(_))));
        round_trip(Message::ShuffleAssign { seq, epoch, block_id, assignment })?;
    }

    #[test]
    fn reduce_task_round_trips(
        seq in any::<u64>(),
        epoch in any::<u32>(),
        bucket in any::<u32>(),
        reduce_code in 0u8..4,
        sources in vec((any::<u32>(), any::<u32>(), any::<u16>()), 0..8),
    ) {
        round_trip(Message::ReduceTask {
            seq,
            epoch,
            bucket,
            reduce: ReduceOp::from_wire_code(reduce_code).unwrap(),
            sources: sources
                .into_iter()
                .map(|(worker, ip, port)| ShuffleSource {
                    worker,
                    addr: SocketAddrV4::new(Ipv4Addr::from(ip), port),
                })
                .collect(),
        })?;
    }

    #[test]
    fn reduce_complete_round_trips(
        seq in any::<u64>(),
        epoch in any::<u32>(),
        bucket in any::<u32>(),
        aggregates in vec((any::<u64>(), value()), 0..60),
        dialed in any::<u64>(),
        reused in any::<u64>(),
        wait_us in any::<u64>(),
        bytes_wire in any::<u64>(),
    ) {
        round_trip(Message::ReduceComplete {
            seq,
            epoch,
            bucket,
            aggregates: aggregates.into_iter().map(|(k, v)| (Key(k), v)).collect(),
            net: FetchStats { dialed, reused, wait_us, bytes_wire },
        })?;
    }

    #[test]
    fn fetch_reply_and_worker_error_round_trip(
        ready in any::<bool>(),
        segments in vec((any::<u32>(), vec((any::<u64>(), value(), any::<u64>()), 0..20)), 0..8),
        seq in any::<u64>(),
        epoch in any::<u32>(),
        blame in any::<u32>(),
        detail in vec(any::<u8>(), 0..80),
    ) {
        round_trip(Message::FetchReply {
            ready,
            segments: segments
                .into_iter()
                .map(|(block_id, items)| ShuffleSegment {
                    block_id,
                    items: items.into_iter().map(|(k, v, n)| (Key(k), v, n)).collect(),
                })
                .collect(),
        })?;
        round_trip(Message::WorkerError {
            seq,
            epoch,
            blame,
            detail: String::from_utf8_lossy(&detail).into_owned(),
        })?;
    }

    #[test]
    fn truncation_at_any_cut_is_rejected(
        seq in any::<u64>(),
        aggregates in vec((any::<u64>(), value()), 1..30),
        cut_pick in any::<u16>(),
    ) {
        let frame = Message::ReduceComplete {
            seq,
            epoch: 1,
            bucket: 0,
            aggregates: aggregates.into_iter().map(|(k, v)| (Key(k), v)).collect(),
            net: FetchStats::default(),
        }
        .encode();
        let cut = cut_pick as usize % frame.len();
        prop_assert!(
            Message::decode(&frame[..cut]).is_err(),
            "decoded from {cut}/{} bytes",
            frame.len()
        );
    }

    #[test]
    fn varints_round_trip_and_reject_truncation(values in vec(any::<u64>(), 1..50)) {
        let mut w = ByteWriter::new();
        for &v in &values {
            w.put_varint(v);
        }
        let encoded = w.into_bytes();
        let mut r = ByteReader::new(&encoded);
        for &v in &values {
            prop_assert_eq!(r.get_varint().unwrap(), v);
        }
        prop_assert_eq!(r.remaining(), 0);
        // Cutting the buffer anywhere strictly inside leaves a final varint
        // truncated: the last read must fail (earlier complete ones may
        // still succeed — that is the framing layer's job to prevent).
        for cut in 0..encoded.len() {
            let mut r = ByteReader::new(&encoded[..cut]);
            let mut decoded = 0usize;
            while r.get_varint().is_ok() {
                decoded += 1;
            }
            prop_assert!(
                decoded < values.len(),
                "all {} values decoded from {cut}/{} bytes",
                values.len(),
                encoded.len()
            );
        }
    }

    #[test]
    fn key_deltas_round_trip_for_arbitrary_sequences(keys in vec(any::<u64>(), 1..50)) {
        // Deltas are zigzag-encoded wrapping differences — a total
        // bijection on u64, so even unsorted key sequences round-trip.
        let mut w = ByteWriter::new();
        let mut prev = 0u64;
        for &k in &keys {
            bytes::put_key_delta(&mut w, prev, k);
            prev = k;
        }
        let encoded = w.into_bytes();
        let mut r = ByteReader::new(&encoded);
        let mut prev = 0u64;
        for &k in &keys {
            let got = bytes::get_key_delta(&mut r, prev).unwrap();
            prop_assert_eq!(got, k);
            prev = got;
        }
        prop_assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn corrupt_headers_are_rejected_with_typed_errors(
        seq in any::<u64>(),
        magic in any::<u32>(),
        version in any::<u8>(),
        // 1..=13 are live message types; anything above must be rejected.
        msg_type in 14u8..=255,
    ) {
        let good = Message::BatchDone { seq }.encode();

        // Wrong magic: rejected before anything else is interpreted.
        let mut frame = good.clone();
        frame[..4].copy_from_slice(&magic.to_le_bytes());
        if magic != MAGIC {
            prop_assert_eq!(Message::decode(&frame), Err(WireError::BadMagic(magic)));
        }

        // Wrong version: a future/corrupt peer fails fast.
        let mut frame = good.clone();
        frame[4] = version;
        if version != PROTOCOL_VERSION {
            prop_assert_eq!(Message::decode(&frame), Err(WireError::BadVersion(version)));
        }

        // Unknown message type: the header is fine, the type byte is not.
        let mut frame = good;
        frame[5] = msg_type;
        prop_assert_eq!(Message::decode(&frame), Err(WireError::UnknownType(msg_type)));
    }
}

proptest! {
    // Cheap cases (thirteen decodes of ≤ 4 KiB each), so many of them.
    #![proptest_config(ProptestConfig::with_cases(2000))]

    /// ROADMAP item 10 (1), the wire half: whatever follows a valid header
    /// — not a mutation of a valid frame — `decode` answers with a message
    /// or a typed error. A panic (an index, an overflow, an allocation sized
    /// by a length prefix) or a loop sized by a count fails the case.
    #[test]
    fn arbitrary_bytes_are_an_error_or_a_message(
        chunks in vec(hostile_chunk(), 0..160),
    ) {
        let mut payload = chunks.concat();
        payload.truncate(4096);
        for msg_type in 1u8..=13 {
            let mut frame = ByteWriter::with_capacity(HEADER_LEN + payload.len());
            frame.put_u32(MAGIC);
            frame.put_u8(PROTOCOL_VERSION);
            frame.put_u8(msg_type);
            frame.put_u32(payload.len() as u32);
            frame.put_bytes(&payload);
            match Message::decode(frame.as_bytes()) {
                // What was accepted is a frame: it encodes, and no larger
                // than the bytes it was read from allow — a `MapComplete`
                // (type 5) to exactly the sixteen bytes it was read from.
                Ok(msg) => {
                    prop_assert!(msg.encode().len() <= HEADER_LEN + 8 * payload.len() + 8);
                    prop_assert!(msg_type != 5 || payload.len() == 16);
                }
                Err(WireError::Codec(_)) => {}
                Err(other) => prop_assert!(false, "type {msg_type}: header error {other:?}"),
            }
        }
    }
}

#[test]
fn header_len_matches_layout() {
    // magic u32 + version u8 + type u8 + len u32.
    assert_eq!(HEADER_LEN, 4 + 1 + 1 + 4);
    let frame = Message::Shutdown.encode();
    assert_eq!(frame.len(), HEADER_LEN, "shutdown has an empty payload");
}
