//! Property tests for the `prompt-state` snapshot/changelog codec.
//!
//! Stores built from arbitrary push sequences must round-trip bit-exactly
//! through the snapshot codec (and keep evolving identically afterwards),
//! deltas must round-trip through the changelog codec, and every malformed
//! checkpoint frame (truncated at any byte, wrong magic, wrong version,
//! unknown record kind, oversized length, flipped bit) must be rejected
//! with a typed error — never a panic or a garbage decode — and so must
//! bytes that never were a checkpoint: the payload decoders and the frame
//! decoder answer arbitrary input with a value or a typed error, allocating
//! no more than the input could hold. So does `restore` over a directory
//! whose `MANIFEST` or changelog is hostile (a value whose batch count
//! matches its watermark, or a typed error). These run in the fast root tier,
//! mirroring `wire_codec_props.rs`; the deterministic exemplar tests live
//! next to the codec itself.

use proptest::collection::vec;
use proptest::prelude::*;

use prompt_core::bytes::{ByteReader, ByteWriter, BytesSink, CodecError};
use prompt_core::hash::KeyMap;
use prompt_core::types::{Duration, Key};
use prompt_engine::job::ReduceOp;
use prompt_engine::stage::BatchOutput;
use prompt_engine::state::{
    decode_frame, encode_frame, frame_kind, get_delta, get_shard, get_store, put_delta, put_shard,
    put_store, restore, CheckpointConfig, CheckpointError, Checkpointer, KeyedStateStore,
    StateDelta, CHECKPOINT_MAGIC, CHECKPOINT_VERSION, FRAME_HEADER_LEN, FRAME_TRAILER_LEN,
    MAX_FRAME_PAYLOAD,
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

    /// The writer keeps every shard of a sliding store at exactly `min(seq, len)` panes —
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

/// One piece of a hostile checkpoint payload: raw bytes, or a field a
/// decoder would size an allocation or a loop by — `u32` length prefixes
/// (mostly huge) — or a stretch that is nearly well-formed (a store header, a
/// shard, an entry, their counts drawn from the bits of `n` and as often
/// wrong as right), so that some payloads get past the first guards.
fn hostile_chunk() -> impl Strategy<Value = Vec<u8>> {
    // Bucket, 0–2 running entries, 0–3 panes of 0–2 entries.
    fn shard(w: &mut ByteWriter, n: u64, panes: u64) {
        w.put_u32((n % 3) as u32);
        w.put_u32(((n >> 2) % 3) as u32);
        for i in 0..(n >> 2) % 3 {
            w.put_u64(n >> (8 + i));
            w.put_f64(i as f64 - 0.5);
            w.put_u32(((n >> 4) % 4) as u32);
        }
        w.put_u32(panes as u32);
        for i in 0..panes {
            w.put_u32(((n >> (6 + i)) % 3) as u32);
            for j in 0..(n >> (6 + i)) % 3 {
                w.put_u64((n >> 12) % 50 + j * ((n >> 20) % 3));
                w.put_f64(j as f64);
            }
        }
    }
    (0u8..9, any::<u64>(), vec(any::<u8>(), 0..48)).prop_map(|(kind, n, raw)| {
        let mut w = ByteWriter::new();
        match kind {
            0 => return raw,
            1 => w.put_u32(n as u32),
            2 => w.put_u32(u32::MAX >> (n % 12)),
            3 => w.put_u32((n % 4) as u32),
            4 => w.put_u64(n),
            5 => w.put_u64(n % 6),
            // A store: op tag, `len ≥ slide ≥ 1`, `seq`, `since_emit`, the
            // shard count and the first shard.
            6 => {
                let (len, seq) = (1 + (n >> 8) % 3, (n >> 16) % 4);
                w.put_u8((n % 5) as u8);
                w.put_u32(len as u32);
                w.put_u32(1 + ((n >> 10) % 2) as u32);
                w.put_u64(seq);
                w.put_u32(((n >> 11) % 2) as u32);
                w.put_u32(1 + ((n >> 24) % 2) as u32);
                shard(&mut w, n >> 28 << 2, seq.min(len) + (n >> 26) % 2);
            }
            7 => shard(&mut w, n, (n >> 32) % 4),
            // One entry, as a pane or a delta holds them.
            _ => {
                w.put_u64(n);
                w.put_f64(n as f64);
            }
        }
        w.into_bytes()
    })
}

proptest! {
    // Cheap cases (six decodes of ≤ 4 KiB each), so many of them.
    #![proptest_config(ProptestConfig::with_cases(2000))]

    /// ROADMAP item 10 (1), the state half: bytes that never were a
    /// checkpoint — not mutations of a valid one — decode to a value or to a
    /// typed error. A panic (an index, an overflow, an allocation sized by a
    /// length prefix) or a loop sized by a count fails the case; what was
    /// accepted re-encodes to no more than the bytes it was read from.
    #[test]
    fn arbitrary_bytes_are_an_error_or_a_value(
        chunks in vec(hostile_chunk(), 0..120),
        kind in 1u8..=3,
    ) {
        let mut payload = chunks.concat();
        payload.truncate(4096);
        // Every accepted element consumed at least its own width.
        let (mut store_w, mut shard_w, mut delta_w) =
            (ByteWriter::new(), ByteWriter::new(), ByteWriter::new());
        if let Ok(store) = get_store(&mut ByteReader::new(&payload)) {
            prop_assert!(store.encoded_len() <= payload.len());
            put_store(&mut store_w, &store);
        }
        if let Ok(shard) = get_shard(&mut ByteReader::new(&payload)) {
            put_shard(&mut shard_w, &shard);
        }
        if let Ok(delta) = get_delta(&mut ByteReader::new(&payload)) {
            prop_assert!(delta.encoded_len() <= payload.len());
            put_delta(&mut delta_w, &delta);
        }
        for w in [store_w, shard_w, delta_w] {
            prop_assert!(w.as_bytes().len() <= payload.len());
        }

        // The frame decoder: over the bytes as they are (a header error,
        // nearly always), over a good magic, version and kind in front of
        // them — the payload's first four bytes are then the length field —
        // and over a whole good frame around them.
        let mut headed = ByteWriter::new();
        headed.put_u32(CHECKPOINT_MAGIC);
        headed.put_u8(CHECKPOINT_VERSION);
        headed.put_u8(kind);
        headed.put_bytes(&payload);
        for buf in [&payload[..], headed.as_bytes()] {
            match decode_frame(buf) {
                Ok((_, body, used)) => prop_assert!(body.len() < used && used <= buf.len()),
                Err(CheckpointError::Io(_) | CheckpointError::Codec(_)) => {
                    prop_assert!(false, "not a frame error")
                }
                Err(_) => {}
            }
        }
        let frame = encode_frame(kind, &payload);
        let (k, body, used) = decode_frame(&frame).expect("a frame");
        prop_assert_eq!((k, body, used), (kind, &payload[..], frame.len()));
    }
}

/// A checkpoint directory a real `Checkpointer` committed — one epoch: a
/// snapshot, its changelog, the manifest — read back once, so that every
/// hostile-file case below starts from the same good bytes.
struct Fixture {
    files: Vec<(String, Vec<u8>)>,
    /// The manifest's watermark and its epoch's generation.
    watermark: u64,
    gen: u64,
    /// The snapshot's batch count and shard count.
    seq: u64,
    shards: usize,
}

fn fixture() -> &'static Fixture {
    static FIXTURE: std::sync::OnceLock<Fixture> = std::sync::OnceLock::new();
    FIXTURE.get_or_init(|| {
        let dir = case_dir("fixture");
        let cfg = CheckpointConfig::new(&dir).interval(1).snapshot_every(100);
        let mut store = build_store(ReduceOp::Sum, 3, 3, 1, &[]);
        let mut ckpt = Checkpointer::create(&cfg).expect("create");
        for i in 0..6u64 {
            let entries: Vec<(u64, f64)> = (0..8).map(|k| (k * 7 + i, k as f64 - 0.5)).collect();
            let (_, delta) = store.push_with_delta(&output(&entries));
            ckpt.record(&delta, &store).expect("commit");
        }
        drop(ckpt);
        let mut files: Vec<(String, Vec<u8>)> = (std::fs::read_dir(&dir).unwrap())
            .map(|e| e.unwrap())
            .map(|e| {
                (
                    e.file_name().into_string().unwrap(),
                    std::fs::read(e.path()).unwrap(),
                )
            })
            .collect();
        files.sort();
        let file = |name: &str| &files.iter().find(|(n, _)| n == name).unwrap().1;
        let (_, manifest, _) = decode_frame(file("MANIFEST")).unwrap();
        let mut r = ByteReader::new(manifest);
        let (watermark, gen) = (r.get_u64().unwrap(), r.get_u64().unwrap());
        let (_, snapshot, _) = decode_frame(file(&format!("snapshot-{gen}.ckpt"))).unwrap();
        let snapshot = get_store(&mut ByteReader::new(snapshot)).unwrap();
        assert_eq!(restore(&dir).unwrap().unwrap().store.seq(), watermark + 1);
        let _ = std::fs::remove_dir_all(&dir);
        Fixture {
            files,
            watermark,
            gen,
            seq: snapshot.seq(),
            shards: snapshot.shard_count(),
        }
    })
}

fn case_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("prompt-props-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The fixture's files in `dir`, then `name` replaced by `bytes`.
fn write_case(dir: &std::path::Path, name: &str, bytes: &[u8]) {
    for (file, good) in &fixture().files {
        std::fs::write(dir.join(file), good).unwrap();
    }
    std::fs::write(dir.join(name), bytes).unwrap();
}

/// A manifest payload: watermark, then base and head epochs as (generation,
/// committed bytes, committed frames) — 48 bytes.
fn manifest_payload(watermark: u64, base: (u64, u64, u32), head: (u64, u64, u32)) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_u64(watermark);
    for (gen, len, frames) in [base, head] {
        w.put_u64(gen);
        w.put_u64(len);
        w.put_u32(frames);
    }
    w.into_bytes()
}

/// A `u64` field a hostile file might carry: the good value (most often, so
/// that some cases get past every check), one off it, zero, the maximum, or
/// anything.
fn near(good: u64, pick: u8, any: u64) -> u64 {
    match pick % 8 {
        0..=4 => good,
        5 => good.wrapping_add(1),
        6 => [0, u64::MAX, u64::MAX - 1, good.wrapping_sub(1)][(any % 4) as usize],
        _ => any,
    }
}

/// What `restore` may answer for a hostile directory: a store whose batch
/// count is one past the watermark it reports, or a typed error.
fn restored_or_typed(dir: &std::path::Path) -> Result<(), TestCaseError> {
    match restore(dir) {
        Ok(Some(state)) => prop_assert_eq!(Some(state.store.seq()), state.watermark.checked_add(1)),
        Ok(None) => prop_assert!(false, "a manifest was written"),
        Err(_) => {}
    }
    Ok(())
}

proptest! {
    // Each case writes three small files and restores them.
    #![proptest_config(ProptestConfig::with_cases(400))]

    /// ROADMAP item 10 (1), the file half: arbitrary bytes as `MANIFEST` —
    /// raw, or a CRC-valid frame around fields near the good ones — restore
    /// a store consistent with the watermark it reports or fail with a typed
    /// error; no panic, no allocation sized by a field, no endless loop.
    #[test]
    fn an_arbitrary_manifest_is_an_error_or_a_store(
        raw in vec(any::<u8>(), 0..80),
        picks in vec(any::<u8>(), 8),
        anys in vec(any::<u64>(), 8),
        shape in 0u8..4,
    ) {
        let f = fixture();
        let changelog = f.files.iter().find(|(n, _)| n == &format!("changelog-{}.ckpt", f.gen));
        let (len, frames) = (changelog.map_or(0, |(_, b)| b.len() as u64), f.watermark + 1 - f.seq);
        let epoch = |i: usize| {
            (
                near(f.gen, picks[i], anys[i]),
                near(len, picks[i + 1], anys[i + 1]),
                near(frames, picks[i + 2], anys[i + 2]) as u32,
            )
        };
        let base = epoch(1);
        let head = if picks[7].is_multiple_of(3) { epoch(4) } else { base };
        let payload = manifest_payload(near(f.watermark, picks[0], anys[0]), base, head);
        let bytes = match shape {
            0 => raw,
            1 => encode_frame(frame_kind::MANIFEST, &raw),
            2 => encode_frame(frame_kind::MANIFEST, &payload[..raw.len().min(payload.len())]),
            _ => encode_frame(frame_kind::MANIFEST, &payload),
        };
        let dir = case_dir("manifest");
        write_case(&dir, "MANIFEST", &bytes);
        restored_or_typed(&dir)?;
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The same for the changelog the manifest names: raw bytes, hostile
    /// delta payloads in CRC-valid frames, or well-formed deltas for the
    /// right batches with arbitrary keys — under a manifest whose committed
    /// length and frame count are the file's or near them.
    #[test]
    fn an_arbitrary_changelog_is_an_error_or_a_store(
        raw in vec(any::<u8>(), 0..200),
        chunks in vec(hostile_chunk(), 0..12),
        deltas in vec((0u32..4, vec((0u64..40, value()), 1..6)), 0..5),
        picks in vec(any::<u8>(), 4),
        anys in vec(any::<u64>(), 4),
        shape in 0u8..3,
    ) {
        let f = fixture();
        let mut w = ByteWriter::new();
        let frames = match shape {
            0 => {
                w.put_bytes(&raw);
                1
            }
            1 => {
                for (i, chunk) in chunks.iter().enumerate() {
                    let kind = if picks[0] as usize % 8 == i { frame_kind::SNAPSHOT } else { frame_kind::DELTA };
                    w.put_bytes(&encode_frame(kind, chunk));
                }
                chunks.len()
            }
            _ => {
                for (i, (bucket, entries)) in deltas.iter().enumerate() {
                    let mut pane = entries.clone();
                    pane.sort_by_key(|e| e.0);
                    pane.dedup_by_key(|e| e.0);
                    let pane: Vec<(Key, f64)> = pane.into_iter().map(|(k, v)| (Key(k), v)).collect();
                    let delta = StateDelta {
                        seq: f.seq + i as u64,
                        shards: vec![(*bucket % (f.shards as u32 + 1), std::sync::Arc::new(pane))],
                    };
                    let mut d = ByteWriter::new();
                    put_delta(&mut d, &delta);
                    w.put_bytes(&encode_frame(frame_kind::DELTA, d.as_bytes()));
                }
                deltas.len()
            }
        };
        let bytes = w.into_bytes();
        let epoch = (
            f.gen,
            near(bytes.len() as u64, picks[1], anys[1]),
            near(frames as u64, picks[2], anys[2]) as u32,
        );
        let watermark = near((f.seq + frames as u64).saturating_sub(1), picks[3], anys[3]);
        let dir = case_dir("changelog");
        write_case(&dir, &format!("changelog-{}.ckpt", f.gen), &bytes);
        std::fs::write(
            dir.join("MANIFEST"),
            encode_frame(frame_kind::MANIFEST, &manifest_payload(watermark, epoch, epoch)),
        )
        .unwrap();
        restored_or_typed(&dir)?;
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A CRC-valid snapshot whose running table lists key 5 twice — 3.0, then
/// 99.0 — over a pane holding 3.0. Its contribution count matches the pane,
/// so only the decoder's order check stands between it and a window reading
/// 99.0.
#[test]
fn a_running_key_listed_twice_is_malformed() {
    let mut w = ByteWriter::new();
    // Store header: Sum over a one-batch window, one batch pushed, one shard.
    w.put_u8(ReduceOp::Sum.wire_code());
    w.put_u32(1);
    w.put_u32(1);
    w.put_u64(1);
    w.put_u32(0);
    w.put_u32(1);
    // Shard 0: two running entries for key 5, then one pane.
    w.put_u32(0);
    w.put_u32(2);
    for v in [3.0, 99.0] {
        w.put_u64(5);
        w.put_f64(v);
        w.put_u32(1);
    }
    w.put_u32(1);
    w.put_u32(1);
    w.put_u64(5);
    w.put_f64(3.0);
    let dir = case_dir("running-dup");
    let gen = 1;
    std::fs::write(
        dir.join(format!("snapshot-{gen}.ckpt")),
        encode_frame(frame_kind::SNAPSHOT, w.as_bytes()),
    )
    .unwrap();
    let epoch = (gen, 0, 0);
    std::fs::write(
        dir.join("MANIFEST"),
        encode_frame(frame_kind::MANIFEST, &manifest_payload(0, epoch, epoch)),
    )
    .unwrap();
    let restored = restore(&dir);
    let _ = std::fs::remove_dir_all(&dir);
    match restored {
        Err(CheckpointError::Codec(CodecError::Malformed(what))) => {
            assert_eq!(what, "running keys not strictly sorted")
        }
        Ok(Some(state)) => panic!(
            "restored a window reading {:?}",
            state.store.current().get(&Key(5))
        ),
        other => panic!("{other:?}"),
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
