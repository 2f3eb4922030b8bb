//! Incremental checkpointing: changelog deltas, periodic snapshots, and a
//! CRC-validated manifest.
//!
//! ## File layout
//!
//! A checkpointed job owns one directory:
//!
//! ```text
//! <dir>/snapshot-<seq>.ckpt   one Snapshot frame: the whole store
//! <dir>/changelog.ckpt        Delta frames appended since that snapshot
//! <dir>/MANIFEST              one Manifest frame, replaced atomically
//! ```
//!
//! ## Frame format
//!
//! Every record is a self-checking frame:
//!
//! ```text
//! [magic u32 "PCKP"] [version u8] [kind u8] [payload-len u32] [payload] [crc32 u32]
//! ```
//!
//! The CRC covers header *and* payload, so a torn header, a torn payload,
//! or a frame from a different version all fail closed. The manifest is the
//! commit point: it records the snapshot file and exactly how many changelog
//! bytes/frames are durable, and is replaced via write-to-temp + rename (as
//! is a snapshot). Changelog bytes past the manifest's committed length are
//! an aborted commit and are ignored on restore. A commit never modifies a
//! file the durable manifest references: a snapshot commit empties the
//! changelog and drops the previous snapshot only after its own manifest is
//! durable, so a crash at any point restores the previous commit or the new.

use std::fs::{self, File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

use prompt_core::bytes::{crc32, ByteReader, ByteWriter, BytesSink, CodecError};

use super::store::{get_delta, get_store, put_delta, put_store, KeyedStateStore, StateDelta};

/// Checkpoint frame magic: "PCKP" little-endian.
pub const CHECKPOINT_MAGIC: u32 = u32::from_le_bytes(*b"PCKP");

/// Checkpoint format version.
pub const CHECKPOINT_VERSION: u8 = 1;

/// Frame header length: magic + version + kind + payload length.
pub const FRAME_HEADER_LEN: usize = 10;

/// Frame trailer length: the CRC.
pub const FRAME_TRAILER_LEN: usize = 4;

/// Refuse frames above this payload size (a corrupt length field must not
/// drive a giant allocation).
pub const MAX_FRAME_PAYLOAD: u32 = 256 * 1024 * 1024;

/// Frame record kinds.
pub mod frame_kind {
    /// A full-store snapshot.
    pub const SNAPSHOT: u8 = 1;
    /// A per-batch changelog delta.
    pub const DELTA: u8 = 2;
    /// The manifest (commit record).
    pub const MANIFEST: u8 = 3;
}

/// Why a checkpoint could not be written or read back.
#[derive(Debug)]
pub enum CheckpointError {
    /// Filesystem failure.
    Io(std::io::Error),
    /// Frame did not start with the checkpoint magic.
    BadMagic(u32),
    /// Frame written by an incompatible format version.
    BadVersion(u8),
    /// Unknown frame kind, or a kind that is invalid where it appeared.
    BadRecord(u8),
    /// CRC mismatch: the frame bytes are corrupt.
    BadCrc {
        /// CRC stored in the frame trailer.
        expected: u32,
        /// CRC recomputed over the frame bytes.
        actual: u32,
    },
    /// Fewer bytes than a whole frame.
    TruncatedFrame {
        /// Bytes the frame needed.
        needed: usize,
        /// Bytes actually present.
        available: usize,
    },
    /// Payload length field exceeds [`MAX_FRAME_PAYLOAD`].
    FrameTooLarge(u32),
    /// Payload failed to decode.
    Codec(CodecError),
    /// Files are individually valid but mutually inconsistent.
    Corrupt(&'static str),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint io: {e}"),
            CheckpointError::BadMagic(m) => write!(f, "bad checkpoint magic {m:#010x}"),
            CheckpointError::BadVersion(v) => write!(f, "unsupported checkpoint version {v}"),
            CheckpointError::BadRecord(k) => write!(f, "unexpected checkpoint record kind {k}"),
            CheckpointError::BadCrc { expected, actual } => {
                write!(
                    f,
                    "checkpoint crc mismatch: stored {expected:#010x}, computed {actual:#010x}"
                )
            }
            CheckpointError::TruncatedFrame { needed, available } => {
                write!(
                    f,
                    "truncated checkpoint frame: needed {needed} bytes, had {available}"
                )
            }
            CheckpointError::FrameTooLarge(n) => {
                write!(f, "checkpoint frame payload {n} too large")
            }
            CheckpointError::Codec(e) => write!(f, "checkpoint payload: {e}"),
            CheckpointError::Corrupt(what) => write!(f, "corrupt checkpoint: {what}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> CheckpointError {
        CheckpointError::Io(e)
    }
}

impl From<CodecError> for CheckpointError {
    fn from(e: CodecError) -> CheckpointError {
        CheckpointError::Codec(e)
    }
}

/// Encode one frame: header, payload, CRC trailer.
pub fn encode_frame(kind: u8, payload: &[u8]) -> Vec<u8> {
    frame_of(kind, payload.len(), |w| w.put_bytes(payload))
}

/// A frame whose `len`-byte payload `put` writes in place, for a payload too
/// large to build first and copy in.
fn frame_of(kind: u8, len: usize, put: impl FnOnce(&mut ByteWriter)) -> Vec<u8> {
    assert!(
        len <= MAX_FRAME_PAYLOAD as usize,
        "checkpoint frame payload over cap"
    );
    let mut w = ByteWriter::with_capacity(FRAME_HEADER_LEN + len + FRAME_TRAILER_LEN);
    w.put_u32(CHECKPOINT_MAGIC);
    w.put_u8(CHECKPOINT_VERSION);
    w.put_u8(kind);
    w.put_u32(len as u32);
    put(&mut w);
    assert_eq!(w.len(), FRAME_HEADER_LEN + len, "frame payload length");
    let crc = crc32(w.as_bytes());
    w.put_u32(crc);
    w.into_bytes()
}

/// Decode the frame at the front of `buf`. Returns `(kind, payload, bytes
/// consumed)`; the caller advances by the consumed length to read a frame
/// sequence.
pub fn decode_frame(buf: &[u8]) -> Result<(u8, &[u8], usize), CheckpointError> {
    if buf.len() < FRAME_HEADER_LEN {
        return Err(CheckpointError::TruncatedFrame {
            needed: FRAME_HEADER_LEN,
            available: buf.len(),
        });
    }
    let mut r = ByteReader::new(&buf[..FRAME_HEADER_LEN]);
    let magic = r.get_u32().expect("header length checked");
    if magic != CHECKPOINT_MAGIC {
        return Err(CheckpointError::BadMagic(magic));
    }
    let version = r.get_u8().expect("header length checked");
    if version != CHECKPOINT_VERSION {
        return Err(CheckpointError::BadVersion(version));
    }
    let kind = r.get_u8().expect("header length checked");
    if !matches!(
        kind,
        frame_kind::SNAPSHOT | frame_kind::DELTA | frame_kind::MANIFEST
    ) {
        return Err(CheckpointError::BadRecord(kind));
    }
    let payload_len = r.get_u32().expect("header length checked");
    if payload_len > MAX_FRAME_PAYLOAD {
        return Err(CheckpointError::FrameTooLarge(payload_len));
    }
    let total = FRAME_HEADER_LEN + payload_len as usize + FRAME_TRAILER_LEN;
    if buf.len() < total {
        return Err(CheckpointError::TruncatedFrame {
            needed: total,
            available: buf.len(),
        });
    }
    let body = &buf[..FRAME_HEADER_LEN + payload_len as usize];
    let stored = u32::from_le_bytes(
        buf[FRAME_HEADER_LEN + payload_len as usize..total]
            .try_into()
            .expect("trailer length checked"),
    );
    let actual = crc32(body);
    if stored != actual {
        return Err(CheckpointError::BadCrc {
            expected: stored,
            actual,
        });
    }
    Ok((kind, &body[FRAME_HEADER_LEN..], total))
}

/// Checkpointing policy and location.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CheckpointConfig {
    /// Per-job checkpoint directory (created on first use).
    pub dir: PathBuf,
    /// Batches between commits. `1` commits every batch.
    pub interval: usize,
    /// Commits between full snapshots; commits in between append changelog
    /// deltas only. `1` snapshots on every commit.
    pub snapshot_every: usize,
    /// On startup, restore from an existing checkpoint in `dir` (a restarted
    /// run) instead of starting fresh.
    pub resume: bool,
}

impl CheckpointConfig {
    /// Checkpoint into `dir`, committing every batch, snapshotting every
    /// eighth commit.
    pub fn new(dir: impl Into<PathBuf>) -> CheckpointConfig {
        CheckpointConfig {
            dir: dir.into(),
            interval: 1,
            snapshot_every: 8,
            resume: false,
        }
    }

    /// Set the commit interval in batches.
    pub fn interval(mut self, batches: usize) -> CheckpointConfig {
        self.interval = batches;
        self
    }

    /// Set the snapshot cadence in commits.
    pub fn snapshot_every(mut self, commits: usize) -> CheckpointConfig {
        self.snapshot_every = commits;
        self
    }

    /// Restore from `dir` on startup if a valid checkpoint exists.
    pub fn resume(mut self) -> CheckpointConfig {
        self.resume = true;
        self
    }

    /// Validate the policy.
    pub fn validate(&self) -> Result<(), String> {
        if self.interval == 0 {
            return Err("checkpoint interval must be positive".into());
        }
        if self.snapshot_every == 0 {
            return Err("checkpoint snapshot cadence must be positive".into());
        }
        if self.dir.as_os_str().is_empty() {
            return Err("checkpoint directory must be set".into());
        }
        Ok(())
    }
}

/// Cumulative checkpoint I/O counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CheckpointStats {
    /// Commits (manifest replacements).
    pub commits: u64,
    /// Commits that wrote a full snapshot.
    pub snapshots: u64,
    /// Changelog bytes appended.
    pub delta_bytes: u64,
    /// Snapshot bytes written.
    pub snapshot_bytes: u64,
}

/// What one commit wrote (for trace events).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CommitInfo {
    /// Last batch sequence number the commit covers (the new watermark).
    pub seq: u64,
    /// Whether this commit wrote a full snapshot (vs changelog deltas).
    pub snapshot: bool,
    /// Bytes written, manifest included.
    pub bytes: u64,
    /// Wall-clock time of the commit in microseconds.
    pub wall_us: u64,
}

/// A restored store plus the recovery bookkeeping around it.
#[derive(Debug)]
pub struct RestoredState {
    /// The store, advanced to `watermark + 1` batches.
    pub store: KeyedStateStore,
    /// Last batch sequence number the checkpoint covers.
    pub watermark: u64,
    /// Bytes read and validated during restore.
    pub bytes_read: u64,
}

const MANIFEST_NAME: &str = "MANIFEST";
const CHANGELOG_NAME: &str = "changelog.ckpt";

/// The incremental checkpoint writer: buffers per-batch deltas, commits them
/// every `interval` batches, and rolls the changelog into a full snapshot
/// every `snapshot_every` commits.
#[derive(Debug)]
pub struct Checkpointer {
    dir: PathBuf,
    interval: usize,
    snapshot_every: usize,
    /// Encoded delta frames awaiting the next commit.
    pending: Vec<u8>,
    pending_frames: u32,
    since_commit: usize,
    commits: u64,
    watermark: Option<u64>,
    snapshot_file: String,
    changelog_len: u64,
    changelog_frames: u32,
    stats: CheckpointStats,
}

impl Checkpointer {
    /// Open (and create) the checkpoint directory for writing.
    pub fn create(cfg: &CheckpointConfig) -> Result<Checkpointer, CheckpointError> {
        fs::create_dir_all(&cfg.dir)?;
        Ok(Checkpointer {
            dir: cfg.dir.clone(),
            interval: cfg.interval,
            snapshot_every: cfg.snapshot_every,
            pending: Vec::new(),
            pending_frames: 0,
            since_commit: 0,
            commits: 0,
            watermark: None,
            snapshot_file: String::new(),
            changelog_len: 0,
            changelog_frames: 0,
            stats: CheckpointStats::default(),
        })
    }

    /// Last durable batch sequence number, if any commit has happened.
    pub fn watermark(&self) -> Option<u64> {
        self.watermark
    }

    /// Cumulative I/O counters.
    pub fn stats(&self) -> CheckpointStats {
        self.stats
    }

    /// Record one batch's delta; commits (and possibly snapshots) when the
    /// interval is reached. `store` is the live store *after* the push.
    pub fn record(
        &mut self,
        delta: &StateDelta,
        store: &KeyedStateStore,
    ) -> Result<Option<CommitInfo>, CheckpointError> {
        // A snapshot subsumes the deltas of its interval: none is written,
        // so none is encoded.
        let snapshot = self.commits.is_multiple_of(self.snapshot_every as u64);
        if !snapshot {
            let mut w = ByteWriter::new();
            put_delta(&mut w, delta);
            self.pending
                .extend_from_slice(&encode_frame(frame_kind::DELTA, w.as_bytes()));
            self.pending_frames += 1;
        }
        self.since_commit += 1;
        if self.since_commit < self.interval {
            return Ok(None);
        }
        self.commit(delta.seq, snapshot.then_some(store)).map(Some)
    }

    /// Force a full snapshot commit of the live store immediately, outside
    /// the interval cadence. Used after a shard migration: deltas are keyed
    /// by shard bucket, so the changelog must never mix shard counts — a
    /// snapshot at the new count is the commit point. The buffered deltas
    /// are subsumed by the snapshot and dropped.
    pub fn snapshot_now(&mut self, store: &KeyedStateStore) -> Result<CommitInfo, CheckpointError> {
        assert!(
            store.seq() > 0,
            "cannot snapshot before any batch is pushed"
        );
        self.commit(store.seq() - 1, Some(store))
    }

    /// One commit through `watermark`: the buffered deltas appended to the
    /// changelog, or a full `snapshot` of the store in their place. The order
    /// is the crash-safety contract: no file the durable manifest references
    /// is modified before the manifest that stops referencing it is durable.
    fn commit(
        &mut self,
        watermark: u64,
        snapshot: Option<&KeyedStateStore>,
    ) -> Result<CommitInfo, CheckpointError> {
        let started = std::time::Instant::now();
        let mut bytes;
        let mut old_snapshot = None;
        if let Some(store) = snapshot {
            let frame = frame_of(frame_kind::SNAPSHOT, store.encoded_len(), |w| {
                put_store(w, store)
            });
            // Renamed into place: after a re-shard at the watermark the
            // cadence has just snapshotted, the name is the one the durable
            // manifest holds (with an empty changelog, so either content
            // restores).
            let name = format!("snapshot-{watermark}.ckpt");
            self.replace_file(&name, &frame)?;
            bytes = frame.len() as u64;
            self.stats.snapshots += 1;
            self.stats.snapshot_bytes += bytes;
            old_snapshot = Some(std::mem::replace(&mut self.snapshot_file, name));
            self.changelog_len = 0;
            self.changelog_frames = 0;
        } else {
            // Appended bytes are past the durable manifest's committed length.
            let mut f = OpenOptions::new()
                .create(true)
                .append(true)
                .open(self.dir.join(CHANGELOG_NAME))?;
            f.write_all(&self.pending)?;
            f.sync_all()?;
            bytes = self.pending.len() as u64;
            self.stats.delta_bytes += bytes;
            self.changelog_len += bytes;
            self.changelog_frames += self.pending_frames;
        }
        self.pending.clear();
        self.pending_frames = 0;
        self.since_commit = 0;
        self.commits += 1;
        self.watermark = Some(watermark);
        bytes += self.write_manifest()? as u64;
        if let Some(old) = old_snapshot {
            // Only now are the previous changelog and snapshot unreferenced
            // (`restore` skips a changelog the manifest gives length 0);
            // removing the snapshot is best-effort.
            write_durable(&self.dir.join(CHANGELOG_NAME), &[])?;
            if !old.is_empty() && old != self.snapshot_file {
                #[cfg(test)]
                tests::crash_point(None)?;
                let _ = fs::remove_file(self.dir.join(old));
            }
        }
        self.stats.commits += 1;
        Ok(CommitInfo {
            seq: watermark,
            snapshot: snapshot.is_some(),
            bytes,
            wall_us: started.elapsed().as_micros() as u64,
        })
    }

    /// Replace the manifest atomically. Returns the bytes written.
    fn write_manifest(&self) -> Result<usize, CheckpointError> {
        let mut w = ByteWriter::new();
        w.put_u64(self.watermark.expect("manifest written after first commit"));
        w.put_str(&self.snapshot_file);
        w.put_u64(self.changelog_len);
        w.put_u32(self.changelog_frames);
        let frame = encode_frame(frame_kind::MANIFEST, w.as_bytes());
        self.replace_file(MANIFEST_NAME, &frame)?;
        Ok(frame.len())
    }

    /// Put `bytes` under `name` atomically: durable temp file, then rename —
    /// a reader sees the old content or the new, never a torn write.
    fn replace_file(&self, name: &str, bytes: &[u8]) -> Result<(), CheckpointError> {
        let tmp = self.dir.join(format!("{name}.tmp"));
        write_durable(&tmp, bytes)?;
        #[cfg(test)]
        tests::crash_point(None)?;
        fs::rename(&tmp, self.dir.join(name))?;
        Ok(())
    }
}

fn write_durable(path: &Path, bytes: &[u8]) -> Result<(), CheckpointError> {
    #[cfg(test)]
    tests::crash_point(Some((path, bytes)))?;
    let mut f = File::create(path)?;
    f.write_all(bytes)?;
    f.sync_all()?;
    Ok(())
}

fn read_file(path: &Path) -> Result<Vec<u8>, CheckpointError> {
    let mut buf = Vec::new();
    File::open(path)?.read_to_end(&mut buf)?;
    Ok(buf)
}

/// Restore the latest durable state from a checkpoint directory. `Ok(None)`
/// when no checkpoint has been committed there; any torn, truncated or
/// corrupt file is an error, never silently trusted.
pub fn restore(dir: &Path) -> Result<Option<RestoredState>, CheckpointError> {
    let manifest_bytes = match read_file(&dir.join(MANIFEST_NAME)) {
        Ok(b) => b,
        Err(CheckpointError::Io(e)) if e.kind() == std::io::ErrorKind::NotFound => {
            return Ok(None);
        }
        Err(e) => return Err(e),
    };
    let (kind, payload, consumed) = decode_frame(&manifest_bytes)?;
    if kind != frame_kind::MANIFEST {
        return Err(CheckpointError::BadRecord(kind));
    }
    if consumed != manifest_bytes.len() {
        return Err(CheckpointError::Corrupt("trailing bytes after manifest"));
    }
    let mut r = ByteReader::new(payload);
    let watermark = r.get_u64()?;
    let snapshot_file = r.get_str()?;
    let changelog_len = r.get_u64()? as usize;
    let changelog_frames = r.get_u32()?;
    r.expect_empty()?;
    if snapshot_file.contains(['/', '\\']) {
        return Err(CheckpointError::Corrupt("snapshot name escapes directory"));
    }
    let mut bytes_read = manifest_bytes.len() as u64;

    let snapshot_bytes = read_file(&dir.join(&snapshot_file))?;
    let (kind, payload, consumed) = decode_frame(&snapshot_bytes)?;
    if kind != frame_kind::SNAPSHOT {
        return Err(CheckpointError::BadRecord(kind));
    }
    if consumed != snapshot_bytes.len() {
        return Err(CheckpointError::Corrupt("trailing bytes after snapshot"));
    }
    let mut r = ByteReader::new(payload);
    let mut store = get_store(&mut r)?;
    r.expect_empty()?;
    bytes_read += snapshot_bytes.len() as u64;

    if changelog_len > 0 {
        let changelog = read_file(&dir.join(CHANGELOG_NAME))?;
        if changelog.len() < changelog_len {
            return Err(CheckpointError::Corrupt("changelog shorter than manifest"));
        }
        // Bytes past the committed length are an aborted commit: ignore.
        let mut rest = &changelog[..changelog_len];
        let mut frames = 0u32;
        while !rest.is_empty() {
            let (kind, payload, consumed) = decode_frame(rest)?;
            if kind != frame_kind::DELTA {
                return Err(CheckpointError::BadRecord(kind));
            }
            let mut r = ByteReader::new(payload);
            let delta = get_delta(&mut r)?;
            r.expect_empty()?;
            if delta.seq != store.seq() {
                return Err(CheckpointError::Corrupt("changelog delta out of order"));
            }
            store.apply_delta(&delta);
            rest = &rest[consumed..];
            frames += 1;
        }
        if frames != changelog_frames {
            return Err(CheckpointError::Corrupt("changelog frame count mismatch"));
        }
        bytes_read += changelog_len as u64;
    } else if changelog_frames != 0 {
        return Err(CheckpointError::Corrupt("changelog frame count mismatch"));
    }

    if store.seq() != watermark + 1 {
        return Err(CheckpointError::Corrupt(
            "store seq does not match watermark",
        ));
    }
    Ok(Some(RestoredState {
        store,
        watermark,
        bytes_read,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::ReduceOp;
    use crate::stage::BatchOutput;
    use crate::window::WindowSpec;
    use prompt_core::hash::KeyMap;
    use prompt_core::types::{Duration, Key};

    thread_local! {
        /// The crash a test has armed on this thread: how many file
        /// operations of the commit still complete, and whether a write the
        /// crash lands on is torn (half-written) rather than never started.
        static CRASH: std::cell::Cell<Option<(usize, bool)>> =
            const { std::cell::Cell::new(None) };
    }

    /// The test-only seam: the commit path calls this ahead of each file
    /// operation, naming the target and content of a write.
    pub(super) fn crash_point(write: Option<(&Path, &[u8])>) -> Result<(), CheckpointError> {
        let Some((left, torn)) = CRASH.get() else {
            return Ok(());
        };
        if left > 0 {
            CRASH.set(Some((left - 1, torn)));
            return Ok(());
        }
        if let (true, Some((path, bytes))) = (torn, write) {
            fs::write(path, &bytes[..bytes.len() / 2]).unwrap();
        }
        Err(std::io::Error::other("injected crash").into())
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .subsec_nanos();
        let dir =
            std::env::temp_dir().join(format!("prompt-ckpt-{tag}-{}-{nanos}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn out(entries: &[(u64, f64)]) -> BatchOutput {
        let mut aggregates = KeyMap::default();
        for &(k, v) in entries {
            aggregates.insert(Key(k), v);
        }
        BatchOutput { aggregates }
    }

    fn fresh_store(r: usize) -> KeyedStateStore {
        KeyedStateStore::new(
            WindowSpec::sliding(Duration::from_secs(4), Duration::from_secs(1)),
            Duration::from_secs(1),
            ReduceOp::Sum,
            r,
        )
    }

    fn feed(store: &mut KeyedStateStore, ckpt: &mut Checkpointer, n: usize) {
        for i in 0..n {
            let b = out(&[(i as u64 % 5, 1.0 + i as f64 * 0.125), (7, -0.5 * i as f64)]);
            let (_, delta) = store.push_with_delta(&b);
            ckpt.record(&delta, store).unwrap();
        }
    }

    fn assert_same_state(a: &KeyedStateStore, b: &KeyedStateStore) {
        assert_eq!(a.seq(), b.seq());
        let ca = a.current();
        let cb = b.current();
        assert_eq!(ca.len(), cb.len());
        for (k, v) in &ca {
            assert_eq!(v.to_bits(), cb[k].to_bits(), "key {k:?}");
        }
    }

    #[test]
    fn frame_round_trips_and_rejects_corruption() {
        let frame = encode_frame(frame_kind::DELTA, b"hello frame");
        let (kind, payload, consumed) = decode_frame(&frame).unwrap();
        assert_eq!(kind, frame_kind::DELTA);
        assert_eq!(payload, b"hello frame");
        assert_eq!(consumed, frame.len());

        // Truncation at every cut.
        for cut in 0..frame.len() {
            assert!(decode_frame(&frame[..cut]).is_err(), "cut {cut}");
        }
        // Any single bit flip breaks magic, version, kind, length or CRC.
        for pos in 0..frame.len() {
            let mut bad = frame.clone();
            bad[pos] ^= 0x01;
            assert!(decode_frame(&bad).is_err(), "flip at {pos} accepted");
        }
    }

    #[test]
    fn restore_round_trips_snapshot_plus_changelog() {
        let dir = temp_dir("roundtrip");
        let cfg = CheckpointConfig::new(&dir).interval(1).snapshot_every(4);
        let mut store = fresh_store(3);
        let mut ckpt = Checkpointer::create(&cfg).unwrap();
        // 6 commits: snapshot at 0 and 4, deltas elsewhere.
        feed(&mut store, &mut ckpt, 6);
        assert_eq!(ckpt.watermark(), Some(5));
        assert_eq!(ckpt.stats().snapshots, 2);
        let restored = restore(&dir).unwrap().expect("checkpoint exists");
        assert_eq!(restored.watermark, 5);
        assert!(restored.bytes_read > 0);
        assert_same_state(&store, &restored.store);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_dir_restores_to_none() {
        let dir = temp_dir("empty");
        assert!(restore(&dir).unwrap().is_none());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn interval_batches_deltas_between_commits() {
        let dir = temp_dir("interval");
        let cfg = CheckpointConfig::new(&dir).interval(3).snapshot_every(100);
        let mut store = fresh_store(2);
        let mut ckpt = Checkpointer::create(&cfg).unwrap();
        feed(&mut store, &mut ckpt, 7);
        // Commits at batches 2 and 5; batch 6 still pending.
        assert_eq!(ckpt.watermark(), Some(5));
        assert_eq!(ckpt.stats().commits, 2);
        let restored = restore(&dir).unwrap().unwrap();
        assert_eq!(restored.watermark, 5);
        assert_eq!(restored.store.seq(), 6);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_changelog_is_rejected() {
        let dir = temp_dir("corrupt");
        let cfg = CheckpointConfig::new(&dir).interval(1).snapshot_every(100);
        let mut store = fresh_store(2);
        let mut ckpt = Checkpointer::create(&cfg).unwrap();
        feed(&mut store, &mut ckpt, 4);
        let path = dir.join(CHANGELOG_NAME);
        let mut bytes = fs::read(&path).unwrap();
        // The committed changelog ends in a frame's CRC trailer: flipping its
        // last byte must surface as a CRC mismatch.
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        fs::write(&path, &bytes).unwrap();
        assert!(matches!(restore(&dir), Err(CheckpointError::BadCrc { .. })));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_snapshot_is_rejected() {
        let dir = temp_dir("truncated");
        let cfg = CheckpointConfig::new(&dir).interval(1).snapshot_every(1);
        let mut store = fresh_store(2);
        let mut ckpt = Checkpointer::create(&cfg).unwrap();
        feed(&mut store, &mut ckpt, 2);
        let snap = fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .find(|e| e.file_name().to_string_lossy().starts_with("snapshot-"))
            .unwrap()
            .path();
        let bytes = fs::read(&snap).unwrap();
        fs::write(&snap, &bytes[..bytes.len() - 7]).unwrap();
        assert!(matches!(
            restore(&dir),
            Err(CheckpointError::TruncatedFrame { .. })
        ));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn uncommitted_changelog_tail_is_ignored() {
        let dir = temp_dir("tail");
        let cfg = CheckpointConfig::new(&dir).interval(1).snapshot_every(100);
        let mut store = fresh_store(2);
        let mut ckpt = Checkpointer::create(&cfg).unwrap();
        feed(&mut store, &mut ckpt, 3);
        let snapshot = store.clone();
        // Simulate a torn commit: bytes appended after the last manifest.
        let mut f = OpenOptions::new()
            .append(true)
            .open(dir.join(CHANGELOG_NAME))
            .unwrap();
        f.write_all(b"torn garbage never committed").unwrap();
        drop(f);
        let restored = restore(&dir).unwrap().unwrap();
        assert_eq!(restored.watermark, 2);
        assert_same_state(&snapshot, &restored.store);
        let _ = fs::remove_dir_all(&dir);
    }

    /// A crash at any point of a snapshot commit — between any two of its
    /// file operations, or tearing the write in progress — leaves a directory
    /// that restores to the previous commit or to the new one, never to an
    /// error: the manifest is the commit point, and nothing it references is
    /// touched before its successor is durable.
    #[test]
    fn snapshot_commit_survives_a_crash_after_every_step() {
        fn encoded(store: &KeyedStateStore) -> Vec<u8> {
            let mut w = ByteWriter::new();
            put_store(&mut w, store);
            w.into_bytes()
        }
        // `(case, commits before it, re-shard + snapshot_now?)` at `interval 1,
        // snapshot_every 4`: commits 0 and 4 are the cadence's snapshots.
        let cases = [
            ("cadence snapshot", 4, false),
            ("snapshot_now", 3, true),
            ("snapshot_now at the cadence snapshot's watermark", 5, true),
        ];
        for (case, history, reshard) in cases {
            for torn in [false, true] {
                // Crashes seen restoring the previous commit / the new one.
                let (mut kept, mut advanced) = (false, false);
                for ops in 0.. {
                    let at = format!("{case}: crash at file operation {ops} (torn: {torn})");
                    let dir = temp_dir("crash");
                    let cfg = CheckpointConfig::new(&dir).interval(1).snapshot_every(4);
                    let mut store = fresh_store(3);
                    let mut ckpt = Checkpointer::create(&cfg).unwrap();
                    feed(&mut store, &mut ckpt, history);
                    let before = (store.seq() - 1, encoded(&store));
                    CRASH.set(Some((ops, torn)));
                    let commit = if reshard {
                        store.migrate(5);
                        ckpt.snapshot_now(&store)
                    } else {
                        let (_, delta) = store.push_with_delta(&out(&[(1, 2.5), (9, -1.0)]));
                        ckpt.record(&delta, &store).map(|c| c.expect("interval 1"))
                    };
                    CRASH.set(None);
                    let after = (store.seq() - 1, encoded(&store));
                    let restored = restore(&dir)
                        .unwrap_or_else(|e| panic!("{at}: {e}"))
                        .expect("earlier commits are durable");
                    let got = (restored.watermark, encoded(&restored.store));
                    let _ = fs::remove_dir_all(&dir);
                    if let Ok(info) = commit {
                        // Past the commit's last file operation.
                        assert!(info.snapshot && got == after, "{at}");
                        break;
                    }
                    assert!(got == before || got == after, "{at}");
                    kept |= got == before;
                    advanced |= got == after;
                }
                assert!(
                    kept && advanced,
                    "{case}: no crash on each side of the commit point"
                );
            }
        }
    }

    #[test]
    fn bad_version_is_rejected() {
        let mut frame = encode_frame(frame_kind::SNAPSHOT, b"x");
        frame[4] = CHECKPOINT_VERSION + 1;
        // Fix the CRC so the version check itself is what rejects.
        let body_len = frame.len() - FRAME_TRAILER_LEN;
        let crc = crc32(&frame[..body_len]).to_le_bytes();
        frame[body_len..].copy_from_slice(&crc);
        assert!(matches!(
            decode_frame(&frame),
            Err(CheckpointError::BadVersion(_))
        ));
    }
}
