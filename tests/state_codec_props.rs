//! Property tests for the `prompt-state` snapshot/changelog codec.
//!
//! Stores built from arbitrary push sequences must round-trip bit-exactly
//! through the snapshot codec (and keep evolving identically afterwards),
//! deltas must round-trip through the changelog codec, and every malformed
//! checkpoint frame (truncated at any byte, wrong magic, wrong version,
//! unknown record kind, oversized length, flipped bit) must be rejected
//! with a typed error — never a panic or a garbage decode. These run in
//! the fast root tier, mirroring `wire_codec_props.rs`; the deterministic
//! exemplar tests live next to the codec itself.

use proptest::collection::vec;
use proptest::prelude::*;

use prompt_core::bytes::{ByteReader, ByteWriter, CodecError};
use prompt_core::hash::KeyMap;
use prompt_core::types::{Duration, Key};
use prompt_engine::job::ReduceOp;
use prompt_engine::stage::BatchOutput;
use prompt_engine::state::{
    decode_frame, encode_frame, frame_kind, get_delta, get_shard, get_store, put_delta, put_shard,
    put_store, CheckpointError, KeyedStateStore, CHECKPOINT_MAGIC, CHECKPOINT_VERSION,
    FRAME_HEADER_LEN, FRAME_TRAILER_LEN, MAX_FRAME_PAYLOAD,
};
use prompt_engine::window::WindowSpec;

/// Finite values only: the NaN != NaN equality hole would fail comparisons
/// the codec is not responsible for. Bit-exactness of what is stored is
/// checked via `to_bits`.
fn value() -> impl Strategy<Value = f64> {
    -1.0e12f64..1.0e12
}

/// A sequence of batch outputs: per-batch `(key, value)` entries.
fn batches() -> impl Strategy<Value = Vec<Vec<(u64, f64)>>> {
    vec(vec((0u64..200, value()), 0..25), 1..12)
}

fn output(entries: &[(u64, f64)]) -> BatchOutput {
    let mut aggregates = KeyMap::default();
    for &(k, v) in entries {
        aggregates.insert(Key(k), v);
    }
    BatchOutput { aggregates }
}

/// Build a store by pushing every batch, at geometry derived from the
/// inputs (window of `len` batches sliding by `slide`).
fn build_store(
    op: ReduceOp,
    r: usize,
    len: u64,
    slide: u64,
    inputs: &[Vec<(u64, f64)>],
) -> KeyedStateStore {
    let spec = WindowSpec::sliding(Duration::from_secs(len), Duration::from_secs(slide));
    let mut store = KeyedStateStore::new(spec, Duration::from_secs(1), op, r);
    for entries in inputs {
        store.push(&output(entries));
    }
    store
}

fn encode_store(store: &KeyedStateStore) -> Vec<u8> {
    let mut w = ByteWriter::new();
    put_store(&mut w, store);
    w.into_bytes()
}

fn shard_bytes(store: &KeyedStateStore, bucket: usize) -> Vec<u8> {
    let mut w = ByteWriter::new();
    put_shard(&mut w, &store.shards()[bucket]);
    w.into_bytes()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn store_snapshot_round_trips_for_every_op(
        op_code in 0u8..4,
        r in 1usize..7,
        len in 1u64..6,
        slide_pick in any::<u64>(),
        inputs in batches(),
    ) {
        let op = ReduceOp::from_wire_code(op_code).unwrap();
        let slide = slide_pick % len + 1;
        let store = build_store(op, r, len, slide, &inputs);
        let bytes = encode_store(&store);
        prop_assert_eq!(bytes.len(), store.encoded_len());
        let mut rd = ByteReader::new(&bytes);
        let back = get_store(&mut rd).unwrap();
        rd.expect_empty().unwrap();
        prop_assert_eq!(back.seq(), store.seq());
        prop_assert_eq!(back.shard_count(), store.shard_count());
        prop_assert_eq!(back.op(), store.op());
        // Canonical encoding: re-encoding reproduces the exact bytes.
        prop_assert_eq!(encode_store(&back), bytes);
        // The decoded aggregate state is bit-identical.
        let a = store.current();
        let b = back.current();
        prop_assert_eq!(a.len(), b.len());
        for (k, v) in &a {
            prop_assert_eq!(v.to_bits(), b[k].to_bits(), "{:?} key {:?}", op, k);
        }
        let sa = store.session_counts();
        let sb = back.session_counts();
        prop_assert_eq!(sa.len(), sb.len());
        for (k, v) in &sa {
            prop_assert_eq!(*v, sb[k]);
        }
    }

    #[test]
    fn restored_store_evolves_identically(
        r in 1usize..5,
        inputs in batches(),
        extra in vec((0u64..200, value()), 0..25),
    ) {
        let mut live = build_store(ReduceOp::Sum, r, 3, 1, &inputs);
        let bytes = encode_store(&live);
        let mut rd = ByteReader::new(&bytes);
        let mut back = get_store(&mut rd).unwrap();
        let next = output(&extra);
        let a = live.push(&next);
        let b = back.push(&next);
        prop_assert_eq!(a.is_some(), b.is_some());
        if let (Some(a), Some(b)) = (a, b) {
            prop_assert_eq!(a.last_batch_seq, b.last_batch_seq);
            prop_assert_eq!(a.aggregates.len(), b.aggregates.len());
            for (k, v) in &a.aggregates {
                prop_assert_eq!(v.to_bits(), b.aggregates[k].to_bits());
            }
        }
    }

    /// The writer keeps every shard at exactly `min(seq, len)` panes —
    /// each shard evicts on its own pane count — so a CRC-valid store whose
    /// shards disagree with each other, or all fall short of the batch
    /// count, is malformed, not a window that silently keeps a batch too
    /// long.
    #[test]
    fn misaligned_or_missing_panes_are_rejected(
        r in 2usize..6,
        len in 2u64..6,
        inputs in batches(),
        short_pick in any::<usize>(),
        victim_pick in any::<usize>(),
    ) {
        let full = build_store(ReduceOp::Sum, r, len, 1, &inputs);
        let panes = |pushes: usize| pushes.min(len as usize);
        // A store over a strictly shorter prefix with a different pane count.
        let shorter: Vec<usize> = (0..inputs.len())
            .filter(|&n| panes(n) != panes(inputs.len()))
            .collect();
        let short = shorter[short_pick % shorter.len()];
        let short = build_store(ReduceOp::Sum, r, len, 1, &inputs[..short]);
        let bytes = encode_store(&full);
        let shards_len: usize = (0..r).map(|b| shard_bytes(&full, b).len()).sum();
        let header = &bytes[..bytes.len() - shards_len];
        let victim = victim_pick % r;
        // `header` + shard `b` from `short` where `from_short[b]`, else `full`.
        let splice = |from_short: Vec<bool>| {
            let mut out = header.to_vec();
            for (b, &pick) in from_short.iter().enumerate() {
                out.extend(shard_bytes(if pick { &short } else { &full }, b));
            }
            out
        };
        let cases = [
            ("one shard misaligned", splice((0..r).map(|b| b == victim).collect())),
            ("too few panes everywhere", splice(vec![true; r])),
        ];
        for (what, bytes) in cases {
            let decoded = get_store(&mut ByteReader::new(&bytes));
            prop_assert!(
                matches!(decoded, Err(CodecError::Malformed(_))),
                "{}: {:?}", what, decoded.map(|s| s.seq())
            );
        }
        // Control: the unspliced shard set decodes.
        let ok = get_store(&mut ByteReader::new(&splice(vec![false; r]))).unwrap();
        prop_assert_eq!(ok.shard_count(), r);
    }

    #[test]
    fn shard_codec_round_trips(
        r in 1usize..7,
        inputs in batches(),
    ) {
        let store = build_store(ReduceOp::Max, r, 4, 2, &inputs);
        for bucket in 0..store.shard_count() {
            let bytes = shard_bytes(&store, bucket);
            let mut rd = ByteReader::new(&bytes);
            let shard = get_shard(&mut rd).unwrap();
            rd.expect_empty().unwrap();
            // Canonical: re-encoding the decoded shard is byte-identical.
            let mut w = ByteWriter::new();
            put_shard(&mut w, &shard);
            prop_assert_eq!(w.into_bytes(), bytes, "bucket {}", bucket);
        }
    }

    #[test]
    fn delta_codec_round_trips(
        r in 1usize..7,
        inputs in batches(),
    ) {
        let spec = WindowSpec::sliding(Duration::from_secs(4), Duration::from_secs(1));
        let mut store = KeyedStateStore::new(spec, Duration::from_secs(1), ReduceOp::Sum, r);
        for entries in &inputs {
            let (_, delta) = store.push_with_delta(&output(entries));
            let mut w = ByteWriter::new();
            put_delta(&mut w, &delta);
            let bytes = w.into_bytes();
            let mut rd = ByteReader::new(&bytes);
            let back = get_delta(&mut rd).unwrap();
            rd.expect_empty().unwrap();
            prop_assert_eq!(back, delta);
        }
    }

    #[test]
    fn frame_round_trips_every_kind(
        kind_pick in 0usize..3,
        payload in vec(any::<u8>(), 0..300),
    ) {
        let kind = [frame_kind::SNAPSHOT, frame_kind::DELTA, frame_kind::MANIFEST][kind_pick];
        let frame = encode_frame(kind, &payload);
        prop_assert_eq!(
            frame.len(),
            FRAME_HEADER_LEN + payload.len() + FRAME_TRAILER_LEN
        );
        let (k, body, used) = decode_frame(&frame).unwrap();
        prop_assert_eq!(k, kind);
        prop_assert_eq!(body, &payload[..]);
        prop_assert_eq!(used, frame.len());
    }

    #[test]
    fn truncated_frames_are_rejected_at_any_cut(
        payload in vec(any::<u8>(), 1..200),
        cut_pick in any::<u16>(),
    ) {
        let frame = encode_frame(frame_kind::DELTA, &payload);
        let cut = cut_pick as usize % frame.len();
        match decode_frame(&frame[..cut]) {
            Err(CheckpointError::TruncatedFrame { needed, available }) => {
                prop_assert_eq!(available, cut);
                prop_assert!(needed > cut);
            }
            other => prop_assert!(false, "cut at {cut}: {other:?}"),
        }
    }

    #[test]
    fn corrupt_frames_are_rejected_with_typed_errors(
        payload in vec(any::<u8>(), 0..120),
        magic in any::<u32>(),
        version in any::<u8>(),
        kind in any::<u8>(),
        flip_pick in any::<u16>(),
    ) {
        let good = encode_frame(frame_kind::SNAPSHOT, &payload);

        // Wrong magic fails before anything else is interpreted.
        if magic != CHECKPOINT_MAGIC {
            let mut frame = good.clone();
            frame[..4].copy_from_slice(&magic.to_le_bytes());
            prop_assert!(matches!(
                decode_frame(&frame),
                Err(CheckpointError::BadMagic(m)) if m == magic
            ));
        }

        // A frame from another format version fails fast.
        if version != CHECKPOINT_VERSION {
            let mut frame = good.clone();
            frame[4] = version;
            prop_assert!(matches!(
                decode_frame(&frame),
                Err(CheckpointError::BadVersion(v)) if v == version
            ));
        }

        // Unknown record kinds are rejected even with a valid header.
        if !matches!(kind, 1..=3) {
            let mut frame = good.clone();
            frame[5] = kind;
            prop_assert!(matches!(
                decode_frame(&frame),
                Err(CheckpointError::BadRecord(k)) if k == kind
            ));
        }

        // A corrupt length field must not drive a giant allocation.
        let mut frame = good.clone();
        frame[6..10].copy_from_slice(&(MAX_FRAME_PAYLOAD + 1).to_le_bytes());
        prop_assert!(matches!(
            decode_frame(&frame),
            Err(CheckpointError::FrameTooLarge(_))
        ));

        // Any single flipped bit fails the CRC (or an earlier header check).
        let mut frame = good.clone();
        let pos = flip_pick as usize % frame.len();
        frame[pos] ^= 0x01;
        prop_assert!(decode_frame(&frame).is_err(), "flip at {pos} accepted");
    }
}

#[test]
fn frame_header_matches_layout() {
    // magic u32 + version u8 + kind u8 + payload-len u32, then a CRC u32.
    assert_eq!(FRAME_HEADER_LEN, 4 + 1 + 1 + 4);
    assert_eq!(FRAME_TRAILER_LEN, 4);
    let frame = encode_frame(frame_kind::MANIFEST, &[]);
    assert_eq!(frame.len(), FRAME_HEADER_LEN + FRAME_TRAILER_LEN);
}
