//! Incremental checkpointing: a changelog of per-batch deltas, compacted
//! into full snapshots off the committing thread, under a CRC-validated
//! manifest.
//!
//! ## File layout
//!
//! A checkpointed job owns one directory:
//!
//! ```text
//! <dir>/snapshot-<gen>.ckpt    one Snapshot frame: the whole store
//! <dir>/changelog-<gen>.ckpt   Delta frames: the batches after that snapshot
//! <dir>/MANIFEST               one Manifest frame, replaced atomically
//! ```
//!
//! A generation's snapshot and changelog are one *epoch*. Generations only
//! grow (a writer over a used directory continues after what it finds), so a
//! name is written once and a file the durable manifest names is never
//! modified. The manifest is the commit point: a watermark and two epochs in
//! fixed-width fields — `base`, whose snapshot restore loads and whose
//! changelog it replays, and `head`, which deltas are appended to and whose
//! changelog is replayed next when it is not `base` itself. For each it
//! records how many changelog bytes and frames are committed; bytes past
//! that are an aborted commit and are ignored, and a file the manifest does
//! not name — a snapshot nobody published, a temp file — is garbage, never
//! input.
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
//! or a frame from a different version all fail closed.
//!
//! ## Who writes what
//!
//! The committing thread (the driver) does two things to the directory,
//! both on every commit and both flushed before [`Checkpointer::record`]
//! returns: it appends the commit's delta frames to `head`'s changelog, and
//! it replaces the manifest (temp file, flush, rename). Everything else
//! belongs to one *compactor* thread, spawned with its first job and fed in
//! order: writing a snapshot (temp file, flush, rename, directory flush) and
//! unlinking the epochs a durable manifest has stopped naming.
//!
//! A snapshot is therefore compaction, not a commit: what it holds is
//! already durable in the changelog. On the `snapshot_every` cadence a
//! commit — after its own delta and manifest — freezes a copy of the store
//! at its watermark (into the copy the compactor handed back last time: the
//! panes are shared, the running maps copied in place), hands it over as the
//! next generation, and makes that generation `head`: later deltas go to the
//! new changelog, and the manifest keeps naming the old epoch as `base`. The
//! first commit that finds the snapshot finished *publishes* it with the
//! manifest it writes anyway (`base = head`), and then has the old epoch
//! removed. At most one snapshot is in flight: the next cadence point waits
//! for the last. The first commit of a writer, which has no epoch to append
//! to, is the same steps with the wait in the middle — schedule, wait,
//! publish — and the only commit that waits for its own snapshot.
//! [`Checkpointer::settle`] — before the directory is read back mid-run, at
//! the end of a run, on drop — waits and publishes with a manifest of its
//! own.
//!
//! The compactor's speed reaches no result: a snapshot and its bytes are
//! counted when it is taken (`encoded_len` is arithmetic), the manifest has
//! one size, and a directory is only read back settled.
//!
//! ## What a crash leaves
//!
//! | crash at | on disk | restores to |
//! |---|---|---|
//! | the delta append (or half of it) | bytes past `head`'s committed length | the previous commit |
//! | the manifest's temp file (or half of it), or before its rename | a stray `MANIFEST.tmp` | the previous commit |
//! | after the manifest's rename | — | this commit |
//! | the snapshot's temp file (or half of it), or before its rename | a stray `snapshot-<gen>.ckpt.tmp` | the last commit, from `base` and both changelogs |
//! | after the snapshot's rename, before a manifest publishes it | an unnamed `snapshot-<gen>.ckpt` | the same |
//! | after the publishing manifest, before or while the old epoch is unlinked | unnamed files of the old epoch | the last commit, from the new snapshot and its changelog |
//!
//! Never an error and never an older state: the next [`Checkpointer::create`]
//! over the directory sweeps what the durable manifest does not name, and its
//! first commit supersedes the rest. A compactor that fails (or panics)
//! surfaces as the [`CheckpointError`] of the next commit that needs it and
//! of every commit after.
//!
//! ## Flushes knowingly absent
//!
//! The directory is flushed after a snapshot's rename (free on the
//! compactor) but not after the manifest's rename, nor when an epoch's
//! changelog is created by its first append: each would put one more flush
//! (≈ 10 ms here) on a commit's critical path. On the journalling file
//! systems this runs on a flushed new file's name and an ordered rename
//! survive; whether to pay for the guarantee is the robustness sweep's to
//! decide with numbers (ROADMAP).

use std::fs::{self, File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::sync::mpsc::{self, Receiver, Sender, TryRecvError};
use std::thread::{self, JoinHandle};
use std::time::Instant;

use prompt_core::bytes::{crc32, ByteReader, ByteWriter, BytesSink, CodecError};

use super::store::{
    get_delta, get_store, put_delta, put_store_in, KeyedStateStore, RunningOrder, StateDelta,
};

/// Checkpoint frame magic: "PCKP" little-endian.
pub const CHECKPOINT_MAGIC: u32 = u32::from_le_bytes(*b"PCKP");

/// Checkpoint format version. 2: the manifest names epochs by generation
/// in fixed-width fields (1 named one snapshot file and one changelog).
pub const CHECKPOINT_VERSION: u8 = 2;

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
    let mut w = ByteWriter::new();
    put_frame(&mut w, kind, payload.len(), |w| w.put_bytes(payload));
    w.into_bytes()
}

/// Bytes a frame with a `payload`-byte payload takes.
const fn frame_len(payload: usize) -> usize {
    FRAME_HEADER_LEN + payload + FRAME_TRAILER_LEN
}

/// Append one frame to `w`, whose `len`-byte payload `put` writes in place —
/// for a payload too large to build first and copy in, into a buffer the
/// caller keeps.
fn put_frame(w: &mut ByteWriter, kind: u8, len: usize, put: impl FnOnce(&mut ByteWriter)) {
    assert!(
        len <= MAX_FRAME_PAYLOAD as usize,
        "checkpoint frame payload over cap"
    );
    let start = w.len();
    w.reserve(frame_len(len));
    w.put_u32(CHECKPOINT_MAGIC);
    w.put_u8(CHECKPOINT_VERSION);
    w.put_u8(kind);
    w.put_u32(len as u32);
    put(w);
    assert_eq!(
        w.len(),
        start + FRAME_HEADER_LEN + len,
        "frame payload length"
    );
    let crc = crc32(&w.as_bytes()[start..]);
    w.put_u32(crc);
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
    /// Commits (manifest replacements that advanced the watermark).
    pub commits: u64,
    /// Full snapshots, counted when they are scheduled.
    pub snapshots: u64,
    /// Changelog bytes appended.
    pub delta_bytes: u64,
    /// Snapshot bytes, counted with the snapshot.
    pub snapshot_bytes: u64,
}

/// What one commit wrote (for trace events).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CommitInfo {
    /// Last batch sequence number the commit covers (the new watermark).
    pub seq: u64,
    /// Whether this commit took a full snapshot of the store: handed to the
    /// compactor and left with it (the `snapshot_every` cadence) or waited
    /// for (a writer's first commit).
    pub snapshot: bool,
    /// Bytes the commit puts on disk: deltas, manifest, and the snapshot it
    /// took — independent of when a compacted snapshot lands.
    pub bytes: u64,
    /// Wall-clock time the caller spent in the commit, in microseconds.
    pub wall_us: u64,
}

/// Wall-clock accounting of the snapshot compactor. Never part of a result:
/// it says where the time went, not what was computed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CompactorTimes {
    /// Time the compactor thread spent encoding and writing snapshots (µs).
    pub busy_us: u64,
    /// Time the committing thread spent blocked on it (µs): at a cadence
    /// point whose predecessor was still being written, in `settle`, and in
    /// the one commit that waits by design (a writer's first).
    pub wait_us: u64,
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

fn snapshot_name(gen: u64) -> String {
    format!("snapshot-{gen}.ckpt")
}

fn changelog_name(gen: u64) -> String {
    format!("changelog-{gen}.ckpt")
}

/// One epoch of the checkpoint: the snapshot of generation `gen` and the
/// deltas that follow it, of which `len` bytes in `frames` frames are
/// committed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Epoch {
    gen: u64,
    len: u64,
    frames: u32,
}

impl Epoch {
    fn new(gen: u64) -> Epoch {
        Epoch {
            gen,
            len: 0,
            frames: 0,
        }
    }
}

/// The commit record: restore loads `base`'s snapshot and replays `base`'s
/// changelog, then `head`'s when the two differ (a snapshot of `head` is
/// being written or waits for publication). Fixed width, so that a commit
/// writes the same bytes whenever a compaction lands.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Manifest {
    watermark: u64,
    base: Epoch,
    head: Epoch,
}

impl Manifest {
    fn frame(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_u64(self.watermark);
        for e in [self.base, self.head] {
            w.put_u64(e.gen);
            w.put_u64(e.len);
            w.put_u32(e.frames);
        }
        encode_frame(frame_kind::MANIFEST, w.as_bytes())
    }

    /// The durable manifest of `dir` and its size in bytes, `None` when
    /// nothing was ever committed there.
    fn read(dir: &Path) -> Result<Option<(Manifest, u64)>, CheckpointError> {
        let bytes = match read_file(&dir.join(MANIFEST_NAME)) {
            Ok(b) => b,
            Err(CheckpointError::Io(e)) if e.kind() == std::io::ErrorKind::NotFound => {
                return Ok(None);
            }
            Err(e) => return Err(e),
        };
        let payload = whole_frame(
            &bytes,
            frame_kind::MANIFEST,
            "trailing bytes after manifest",
        )?;
        let mut r = ByteReader::new(payload);
        let watermark = r.get_u64()?;
        let mut epoch = || -> Result<Epoch, CodecError> {
            Ok(Epoch {
                gen: r.get_u64()?,
                len: r.get_u64()?,
                frames: r.get_u32()?,
            })
        };
        let (base, head) = (epoch()?, epoch()?);
        r.expect_empty()?;
        if head.gen < base.gen || (head.gen == base.gen && head != base) {
            return Err(CheckpointError::Corrupt("manifest epochs out of order"));
        }
        // The batch after the watermark and the generation after the head
        // must exist: `restore` and `create` count on them.
        if watermark == u64::MAX || head.gen == u64::MAX {
            return Err(CheckpointError::Corrupt("manifest field out of range"));
        }
        let manifest = Manifest {
            watermark,
            base,
            head,
        };
        Ok(Some((manifest, bytes.len() as u64)))
    }

    /// The epochs restore replays, oldest first.
    fn epochs(&self) -> impl Iterator<Item = Epoch> {
        let head = (self.head.gen != self.base.gen).then_some(self.head);
        std::iter::once(self.base).chain(head)
    }
}

/// The payload of the one `kind` frame that is all of `bytes`.
fn whole_frame<'a>(
    bytes: &'a [u8],
    kind: u8,
    trailing: &'static str,
) -> Result<&'a [u8], CheckpointError> {
    let (got, payload, consumed) = decode_frame(bytes)?;
    if got != kind {
        return Err(CheckpointError::BadRecord(got));
    }
    if consumed != bytes.len() {
        return Err(CheckpointError::Corrupt(trailing));
    }
    Ok(payload)
}

/// A point at which the checkpoint protocol touches its directory; the test
/// seam is consulted ahead of each (`Write` and `Append` carry what a torn
/// operation leaves half of).
#[cfg_attr(not(test), allow(dead_code))]
enum FileOp<'a> {
    Write(&'a Path, &'a [u8]),
    Append(&'a Path, &'a [u8]),
    /// A rename, an unlink or a directory flush.
    Other,
}

/// A point at which a test orders the committing thread and the compactor.
#[cfg_attr(not(test), allow(dead_code))]
enum SyncPoint {
    /// The compactor is about to start a snapshot.
    CompactionStarts,
    /// The committing thread starts (`true`) or stops blocking on the
    /// compactor.
    DriverWaits(bool),
    /// A commit returned.
    Committed,
    /// The committing thread handed over a removal; a test has it wait for
    /// [`SyncPoint::RemovalDone`], so that what a crash finds does not
    /// depend on which thread ran first.
    RemovalSent,
    /// The compactor is through with a removal.
    RemovalDone,
}

/// The checkpoint directory as one thread of the protocol sees it: every
/// file operation, on either thread, is a method here.
#[derive(Clone, Debug)]
struct Dir {
    path: PathBuf,
    #[cfg(test)]
    seam: tests::SeamHandle,
}

impl Dir {
    #[cfg(not(test))]
    #[inline]
    fn file_op(&self, _op: FileOp<'_>) -> Result<(), CheckpointError> {
        Ok(())
    }

    #[cfg(not(test))]
    #[inline]
    fn sync_point(&self, _at: SyncPoint) {}

    #[cfg(test)]
    fn file_op(&self, op: FileOp<'_>) -> Result<(), CheckpointError> {
        self.seam.file_op(op)
    }

    #[cfg(test)]
    fn sync_point(&self, at: SyncPoint) {
        self.seam.sync_point(at)
    }

    /// Write `bytes` to `name` and flush them.
    fn write_durable(&self, name: &str, bytes: &[u8]) -> Result<(), CheckpointError> {
        let path = self.path.join(name);
        self.file_op(FileOp::Write(&path, bytes))?;
        let mut f = File::create(&path)?;
        f.write_all(bytes)?;
        f.sync_all()?;
        Ok(())
    }

    /// Put `bytes` under `name` atomically: durable temp file, then rename —
    /// a reader sees the old content or the new, never a torn write.
    fn replace(&self, name: &str, bytes: &[u8]) -> Result<(), CheckpointError> {
        let tmp = format!("{name}.tmp");
        self.write_durable(&tmp, bytes)?;
        self.file_op(FileOp::Other)?;
        fs::rename(self.path.join(tmp), self.path.join(name))?;
        Ok(())
    }

    /// Append `bytes` to `name` and flush them; `fresh` starts the file
    /// over (an epoch's first append never extends what it finds).
    fn append(&self, name: &str, bytes: &[u8], fresh: bool) -> Result<(), CheckpointError> {
        let path = self.path.join(name);
        self.file_op(FileOp::Append(&path, bytes))?;
        let mut open = OpenOptions::new();
        if fresh {
            open.write(true).truncate(true);
        } else {
            open.append(true);
        }
        let mut f = open.create(true).open(&path)?;
        f.write_all(bytes)?;
        f.sync_all()?;
        Ok(())
    }

    /// Unlink `name`, best-effort: a file that stays is garbage the next
    /// `create` sweeps, not an error.
    fn remove(&self, name: &str) {
        if self.file_op(FileOp::Other).is_ok() {
            let _ = fs::remove_file(self.path.join(name));
        }
    }

    /// Flush the directory itself, making the renames in it durable.
    fn sync(&self) -> Result<(), CheckpointError> {
        self.file_op(FileOp::Other)?;
        File::open(&self.path)?.sync_all()?;
        Ok(())
    }

    /// The one snapshot-writing routine, run by the compactor for the cadence
    /// and for the first commit alike: the whole store as one frame
    /// in `frame`, its running entries sorted in `order` (the caller keeps
    /// both allocations), put under the generation's name atomically, name
    /// flushed. When this returns a manifest may name the snapshot.
    fn write_snapshot(
        &self,
        gen: u64,
        store: &KeyedStateStore,
        frame: &mut ByteWriter,
        order: &mut RunningOrder,
    ) -> Result<(), CheckpointError> {
        frame.clear();
        put_frame(frame, frame_kind::SNAPSHOT, store.encoded_len(), |w| {
            put_store_in(w, store, order)
        });
        self.replace(&snapshot_name(gen), frame.as_bytes())?;
        self.sync()
    }

    /// Remove what the protocol left in the directory and `keep` does not
    /// name: temp files of a torn commit, snapshots and changelogs no
    /// manifest references. Best-effort throughout.
    fn sweep(&self, keep: &[String]) {
        let Ok(entries) = fs::read_dir(&self.path) else {
            return;
        };
        for entry in entries.flatten() {
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            let ours = name.ends_with(".ckpt") || name.ends_with(".tmp");
            if ours && !keep.iter().any(|k| k == name) {
                let _ = fs::remove_file(entry.path());
            }
        }
    }
}

/// Work for the compactor thread: everything the protocol does to the
/// directory that no commit has to wait for.
enum Job {
    /// Write a frozen copy of the store as generation `gen`'s snapshot;
    /// answered with a [`Done`].
    Snapshot { gen: u64, store: KeyedStateStore },
    /// Unlink the files of generations no durable manifest names any more
    /// (tens of megabytes: milliseconds each on the committing thread).
    Remove(Vec<u64>),
}

/// The compactor's answer: the copy back (its allocations are reused for the
/// next snapshot), whether the snapshot is durable, and how long it took.
struct Done {
    store: KeyedStateStore,
    result: Result<(), CheckpointError>,
    busy_us: u64,
}

/// The compactor thread. Spawned with its first [`Job`], given them in
/// order (so a generation's files are gone before the next snapshot is
/// written), stopped and joined on drop — after the jobs it still holds.
#[derive(Debug)]
struct Compactor {
    jobs: Option<Sender<Job>>,
    done: Receiver<Done>,
    thread: Option<JoinHandle<()>>,
}

impl Compactor {
    fn spawn(dir: Dir) -> Result<Compactor, CheckpointError> {
        let (jobs, inbox) = mpsc::channel::<Job>();
        let (outbox, done) = mpsc::channel();
        let run = move || {
            let mut frame = ByteWriter::new();
            let mut order = RunningOrder::default();
            for job in inbox {
                match job {
                    Job::Remove(gens) => {
                        for gen in gens {
                            dir.remove(&snapshot_name(gen));
                            dir.remove(&changelog_name(gen));
                        }
                        dir.sync_point(SyncPoint::RemovalDone);
                    }
                    Job::Snapshot { gen, mut store } => {
                        dir.sync_point(SyncPoint::CompactionStarts);
                        let started = Instant::now();
                        let result = dir.write_snapshot(gen, &store, &mut frame, &mut order);
                        store.release_panes();
                        let busy_us = started.elapsed().as_micros() as u64;
                        let done = Done {
                            store,
                            result,
                            busy_us,
                        };
                        if outbox.send(done).is_err() {
                            return;
                        }
                    }
                }
            }
        };
        let thread = thread::Builder::new()
            .name("prompt-compactor".into())
            .spawn(run)?;
        Ok(Compactor {
            jobs: Some(jobs),
            done,
            thread: Some(thread),
        })
    }
}

impl Drop for Compactor {
    fn drop(&mut self) {
        // Closing the channel ends the thread's loop; a panic in it has
        // already surfaced as a lost compactor.
        self.jobs = None;
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

fn compactor_lost() -> CheckpointError {
    CheckpointError::Io(std::io::Error::other(
        "the snapshot compactor failed or panicked",
    ))
}

/// The incremental checkpoint writer: buffers per-batch deltas, commits them
/// to the changelog every `interval` batches, and every `snapshot_every`
/// commits has the changelog compacted into a full snapshot off the
/// committing thread. See the module docs for the protocol.
#[derive(Debug)]
pub struct Checkpointer {
    dir: Dir,
    interval: usize,
    snapshot_every: usize,
    /// Encoded delta frames awaiting the next commit.
    pending: ByteWriter,
    pending_frames: u32,
    since_commit: usize,
    /// Last batch this writer has made durable; until it is `Some`, `head`
    /// and `base` name nothing.
    watermark: Option<u64>,
    /// The epoch deltas are appended to.
    head: Epoch,
    /// The epoch before `head`, for as long as `head`'s snapshot is being
    /// written or is unpublished: still what the manifest restores from.
    base: Option<Epoch>,
    next_gen: u64,
    /// Generations the next manifest stops naming — at first, whatever a
    /// previous run's manifest names; their files are removed once it is
    /// durable.
    garbage: Vec<u64>,
    compactor: Option<Compactor>,
    /// `head`'s snapshot is with the compactor (and stays "in flight" for
    /// good once the compactor has failed: every later commit fails too).
    in_flight: bool,
    /// The frozen copy the compactor handed back, refreshed in place.
    frozen: Option<KeyedStateStore>,
    times: CompactorTimes,
    stats: CheckpointStats,
}

impl Checkpointer {
    /// Open (and create) the checkpoint directory for writing, and sweep it:
    /// whatever a crashed or earlier run left that the durable manifest does
    /// not name is removed now, and what it does name once this writer's
    /// first commit has superseded it.
    pub fn create(cfg: &CheckpointConfig) -> Result<Checkpointer, CheckpointError> {
        fs::create_dir_all(&cfg.dir)?;
        let dir = Dir {
            path: cfg.dir.clone(),
            #[cfg(test)]
            seam: tests::SeamHandle::take(),
        };
        // An unreadable manifest names nothing: the run that follows either
        // refused to resume from it already or starts over.
        let prior = Manifest::read(&dir.path).ok().flatten().map(|(m, _)| m);
        let epochs = prior.iter().flat_map(Manifest::epochs);
        let garbage: Vec<u64> = epochs.map(|e| e.gen).collect();
        let mut keep = vec![MANIFEST_NAME.to_string()];
        for &gen in &garbage {
            keep.extend([snapshot_name(gen), changelog_name(gen)]);
        }
        dir.sweep(&keep);
        let next_gen = garbage.last().map_or(0, |last| last + 1);
        Ok(Checkpointer {
            dir,
            interval: cfg.interval,
            snapshot_every: cfg.snapshot_every,
            pending: ByteWriter::new(),
            pending_frames: 0,
            since_commit: 0,
            watermark: None,
            head: Epoch::new(next_gen),
            base: None,
            next_gen,
            garbage,
            compactor: None,
            in_flight: false,
            frozen: None,
            times: CompactorTimes::default(),
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

    /// Where the compactor's time, and the time spent waiting on it, went.
    pub fn compactor_times(&self) -> CompactorTimes {
        self.times
    }

    /// Record one batch's delta; every `interval` batches, commit: the
    /// buffered deltas are appended to the changelog and the manifest is
    /// replaced, so everything through `delta.seq` is durable on return. On
    /// the `snapshot_every` cadence the commit also hands a frozen copy of
    /// `store` — the live store *after* the push — to the compactor.
    pub fn record(
        &mut self,
        delta: &StateDelta,
        store: &KeyedStateStore,
    ) -> Result<Option<CommitInfo>, CheckpointError> {
        put_frame(
            &mut self.pending,
            frame_kind::DELTA,
            delta.encoded_len(),
            |w| put_delta(w, delta),
        );
        self.pending_frames += 1;
        self.since_commit += 1;
        if self.since_commit < self.interval {
            return Ok(None);
        }
        let started = Instant::now();
        if self.stats.commits == 0 {
            // No snapshot of this run's to apply a delta to yet: one is
            // scheduled like the cadence's, waited for, and published as the
            // one epoch of the directory (the buffered deltas are subsumed by
            // it). A retry after a first commit whose snapshot failed meets
            // that failure in `settle`.
            self.settle()?;
            let bytes = self.schedule(store)?;
            self.settle_compaction(true)?;
            let bytes = bytes + self.publish(delta.seq)?;
            return Ok(Some(self.committed(delta.seq, true, bytes, started)));
        }
        // At most one compaction in flight: a cadence point waits for the
        // last one, every other commit only looks whether it has finished.
        let cadence = self
            .stats
            .commits
            .is_multiple_of(self.snapshot_every as u64);
        self.settle_compaction(cadence)?;
        let mut bytes = self.pending.len() as u64;
        let name = changelog_name(self.head.gen);
        self.dir
            .append(&name, self.pending.as_bytes(), self.head.len == 0)?;
        self.head.len += bytes;
        self.head.frames += self.pending_frames;
        self.stats.delta_bytes += bytes;
        bytes += self.publish(delta.seq)?;
        if cadence {
            bytes += self.schedule(store)?;
        }
        Ok(Some(self.committed(delta.seq, cadence, bytes, started)))
    }

    /// Wait for the snapshot in flight, if any, and publish it: afterwards
    /// the directory holds one epoch and is what it would be had the
    /// compactor been infinitely fast. Called before anything reads the
    /// directory back mid-run and at the end of a run (`Drop` does it too,
    /// dropping the error).
    pub fn settle(&mut self) -> Result<(), CheckpointError> {
        self.settle_compaction(true)?;
        match self.watermark {
            Some(watermark) if !self.garbage.is_empty() => self.publish(watermark).map(drop),
            _ => Ok(()),
        }
    }

    /// Look for the snapshot in flight — with `wait`, block until it is
    /// done. Finished, `head` restores on its own: the epoch before it is
    /// garbage as soon as a manifest says so.
    fn settle_compaction(&mut self, wait: bool) -> Result<(), CheckpointError> {
        if !self.in_flight {
            return Ok(());
        }
        let compactor = self.compactor.as_ref().ok_or_else(compactor_lost)?;
        let done = if wait {
            self.dir.sync_point(SyncPoint::DriverWaits(true));
            let started = Instant::now();
            let done = compactor.done.recv();
            self.times.wait_us += started.elapsed().as_micros() as u64;
            self.dir.sync_point(SyncPoint::DriverWaits(false));
            done.map_err(|_| compactor_lost())
        } else {
            match compactor.done.try_recv() {
                Ok(done) => Ok(done),
                Err(TryRecvError::Empty) => return Ok(()),
                Err(TryRecvError::Disconnected) => Err(compactor_lost()),
            }
        };
        let result = done.and_then(|done| {
            self.times.busy_us += done.busy_us;
            self.frozen = Some(done.store);
            done.result
        });
        match result {
            Ok(()) => {
                self.in_flight = false;
                self.garbage.extend(self.base.take().map(|e| e.gen));
                Ok(())
            }
            Err(e) => {
                self.compactor = None;
                Err(e)
            }
        }
    }

    /// Replace the manifest — the commit point, and what publishes a
    /// finished snapshot — and only then have the files it stopped naming
    /// removed. Returns the manifest's size.
    fn publish(&mut self, watermark: u64) -> Result<u64, CheckpointError> {
        let manifest = Manifest {
            watermark,
            base: self.base.unwrap_or(self.head),
            head: self.head,
        };
        let frame = manifest.frame();
        self.dir.replace(MANIFEST_NAME, &frame)?;
        self.watermark = Some(watermark);
        if !self.garbage.is_empty() {
            let garbage = std::mem::take(&mut self.garbage);
            self.send(Job::Remove(garbage))?;
            self.dir.sync_point(SyncPoint::RemovalSent);
        }
        Ok(frame.len() as u64)
    }

    /// Hand a frozen copy of `store`, as of the watermark just committed, to
    /// the compactor, and open the next epoch: deltas from here on follow
    /// that snapshot. Returns the bytes the snapshot takes.
    fn schedule(&mut self, store: &KeyedStateStore) -> Result<u64, CheckpointError> {
        debug_assert!(self.base.is_none() && !self.in_flight);
        let copy = match self.frozen.take() {
            Some(mut copy) => {
                copy.clone_from(store);
                copy
            }
            None => store.clone(),
        };
        let gen = self.next_gen;
        self.next_gen += 1;
        self.send(Job::Snapshot { gen, store: copy })?;
        // Before the first commit there is no epoch to fall back on.
        self.base = self.watermark.map(|_| self.head);
        self.head = Epoch::new(gen);
        self.in_flight = true;
        // Counted now, whenever the snapshot lands: `encoded_len` is
        // arithmetic.
        let bytes = frame_len(store.encoded_len()) as u64;
        self.stats.snapshots += 1;
        self.stats.snapshot_bytes += bytes;
        Ok(bytes)
    }

    /// Give the compactor a job, spawning it with its first.
    fn send(&mut self, job: Job) -> Result<(), CheckpointError> {
        if self.compactor.is_none() {
            let dir = Dir {
                path: self.dir.path.clone(),
                #[cfg(test)]
                seam: self.dir.seam.for_compactor(),
            };
            self.compactor = Some(Compactor::spawn(dir)?);
        }
        let compactor = self.compactor.as_ref().expect("spawned above");
        let jobs = compactor.jobs.as_ref().expect("open until the drop");
        jobs.send(job).map_err(|_| compactor_lost())
    }

    fn committed(&mut self, seq: u64, snapshot: bool, bytes: u64, started: Instant) -> CommitInfo {
        self.pending.clear();
        self.pending_frames = 0;
        self.since_commit = 0;
        self.stats.commits += 1;
        self.dir.sync_point(SyncPoint::Committed);
        CommitInfo {
            seq,
            snapshot,
            bytes,
            wall_us: started.elapsed().as_micros() as u64,
        }
    }
}

impl Drop for Checkpointer {
    fn drop(&mut self) {
        // Leave a directory with nothing in flight; the compactor itself is
        // stopped and joined when the field drops.
        let _ = self.settle();
    }
}

fn read_file(path: &Path) -> Result<Vec<u8>, CheckpointError> {
    let mut buf = Vec::new();
    File::open(path)?.read_to_end(&mut buf)?;
    Ok(buf)
}

/// Restore the latest durable state from a checkpoint directory. `Ok(None)`
/// when no checkpoint has been committed there; any torn, truncated or
/// corrupt file the manifest names is an error, never silently trusted —
/// and a file it does not name is never read.
pub fn restore(dir: &Path) -> Result<Option<RestoredState>, CheckpointError> {
    let Some((manifest, mut bytes_read)) = Manifest::read(dir)? else {
        return Ok(None);
    };
    let snapshot = read_file(&dir.join(snapshot_name(manifest.base.gen)))?;
    let payload = whole_frame(
        &snapshot,
        frame_kind::SNAPSHOT,
        "trailing bytes after snapshot",
    )?;
    let mut r = ByteReader::new(payload);
    let mut store = get_store(&mut r)?;
    r.expect_empty()?;
    // Checked here, once, rather than on every push: a replayed delta
    // evicts by the snapshot's running maps.
    if !store.tracks_its_panes() {
        return Err(CheckpointError::Corrupt(
            "snapshot running state does not match its panes",
        ));
    }
    bytes_read += snapshot.len() as u64;
    for epoch in manifest.epochs() {
        replay(dir, epoch, &mut store)?;
        bytes_read += epoch.len;
    }
    if store.seq() != manifest.watermark + 1 {
        return Err(CheckpointError::Corrupt(
            "store seq does not match watermark",
        ));
    }
    Ok(Some(RestoredState {
        store,
        watermark: manifest.watermark,
        bytes_read,
    }))
}

/// Apply the committed part of `epoch`'s changelog to `store`.
fn replay(dir: &Path, epoch: Epoch, store: &mut KeyedStateStore) -> Result<(), CheckpointError> {
    let mut frames = 0u32;
    // An epoch nothing was committed to may not have a file at all.
    if epoch.len > 0 {
        let changelog = read_file(&dir.join(changelog_name(epoch.gen)))?;
        // Bytes past the committed length are an aborted commit: ignore.
        let mut rest = changelog
            .get(..epoch.len as usize)
            .ok_or(CheckpointError::Corrupt("changelog shorter than manifest"))?;
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
            // `get_delta` admits strictly ascending buckets only.
            let last = delta.shards.last();
            if last.is_some_and(|(b, _)| *b as usize >= store.shard_count()) {
                return Err(CheckpointError::Corrupt(
                    "delta bucket past the store's shard count",
                ));
            }
            store.apply_delta(&delta);
            rest = &rest[consumed..];
            frames += 1;
        }
    }
    if frames != epoch.frames {
        return Err(CheckpointError::Corrupt("changelog frame count mismatch"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EngineConfig;
    use crate::driver::{RunResult, StreamingEngine};
    use crate::job::{Job, ReduceOp};
    use crate::recovery::FaultPlan;
    use crate::stage::BatchOutput;
    use crate::state::{put_store, STATE_SHARDS};
    use crate::trace::{TraceEvent, TraceLevel};
    use crate::window::WindowSpec;
    use prompt_core::hash::KeyMap;
    use prompt_core::partitioner::Technique;
    use prompt_core::types::{Duration, Interval, Key, Time, Tuple};
    use std::cell::RefCell;
    use std::sync::{Arc, Condvar, Mutex};

    /// Which thread of the protocol an operation runs on.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub(super) enum Side {
        Driver,
        Compactor,
    }

    /// An armed crash: `ops` more file operations on `side` complete, the
    /// next does not — and, `torn`, leaves half of what it was writing.
    #[derive(Clone, Copy, Debug)]
    struct Crash {
        side: Side,
        ops: usize,
        torn: bool,
    }

    #[derive(Debug, Default)]
    struct Plan {
        crash: Option<Crash>,
        /// The crash has fired: the process is gone, and no file operation
        /// on either thread completes from here on.
        crashed: bool,
        /// Commits the compactor sits out before it starts a snapshot — or
        /// until the committing thread blocks on it.
        hold: u64,
        commits: u64,
        driver_waits: bool,
        /// Removals handed to the compactor, and those it is through with.
        removals: (u64, u64),
    }

    /// The test seam: a value a `Checkpointer` and its compactor share, and
    /// the only way a test reaches into either. Crashes one thread at a
    /// chosen file operation, and orders the two threads (a sleep would
    /// not).
    #[derive(Debug, Default)]
    pub(super) struct Seam {
        plan: Mutex<Plan>,
        wake: Condvar,
    }

    impl Seam {
        fn plan(&self) -> std::sync::MutexGuard<'_, Plan> {
            self.plan.lock().expect("no test panics holding the seam")
        }

        fn crashed(&self) -> bool {
            self.plan().crashed
        }
    }

    thread_local! {
        /// The seam the next `Checkpointer` created on this thread takes —
        /// how a test hands one to a writer it does not construct itself (a
        /// run's).
        static ARMED: RefCell<Option<Arc<Seam>>> = const { RefCell::new(None) };
    }

    /// Arm a seam for the next `Checkpointer` this thread creates.
    fn arm(hold: u64) -> Arc<Seam> {
        let seam = Arc::new(Seam::default());
        seam.plan().hold = hold;
        ARMED.set(Some(Arc::clone(&seam)));
        seam
    }

    /// Hold the compactor until the committing thread waits for it.
    const HELD: u64 = u64::MAX / 2;

    #[derive(Clone, Debug)]
    pub(super) struct SeamHandle {
        seam: Arc<Seam>,
        side: Side,
    }

    impl SeamHandle {
        pub(super) fn take() -> SeamHandle {
            SeamHandle {
                seam: ARMED.take().unwrap_or_default(),
                side: Side::Driver,
            }
        }

        pub(super) fn for_compactor(&self) -> SeamHandle {
            SeamHandle {
                seam: Arc::clone(&self.seam),
                side: Side::Compactor,
            }
        }

        pub(super) fn file_op(&self, op: FileOp<'_>) -> Result<(), CheckpointError> {
            let injected = || Err(std::io::Error::other("injected crash").into());
            let mut plan = self.seam.plan();
            if plan.crashed {
                return injected();
            }
            let Some(crash) = plan.crash.as_mut().filter(|c| c.side == self.side) else {
                return Ok(());
            };
            if crash.ops > 0 {
                crash.ops -= 1;
                return Ok(());
            }
            match op {
                FileOp::Write(path, bytes) if crash.torn => {
                    fs::write(path, &bytes[..bytes.len() / 2]).unwrap();
                }
                FileOp::Append(path, bytes) if crash.torn => {
                    let mut f = OpenOptions::new().create(true).append(true).open(path);
                    f.as_mut()
                        .unwrap()
                        .write_all(&bytes[..bytes.len() / 2])
                        .unwrap();
                }
                _ => {}
            }
            plan.crashed = true;
            self.seam.wake.notify_all();
            injected()
        }

        pub(super) fn sync_point(&self, at: SyncPoint) {
            let mut plan = self.seam.plan();
            match at {
                SyncPoint::CompactionStarts => {
                    let until = plan.commits.saturating_add(plan.hold);
                    while plan.commits < until && !plan.driver_waits && !plan.crashed {
                        plan = self.seam.wake.wait(plan).expect("seam poisoned");
                    }
                }
                SyncPoint::DriverWaits(waits) => plan.driver_waits = waits,
                SyncPoint::Committed => plan.commits += 1,
                SyncPoint::RemovalSent => {
                    plan.removals.0 += 1;
                    while plan.removals.1 < plan.removals.0 {
                        plan = self.seam.wake.wait(plan).expect("seam poisoned");
                    }
                }
                SyncPoint::RemovalDone => plan.removals.1 += 1,
            }
            self.seam.wake.notify_all();
        }
    }

    fn temp_dir(tag: &str) -> PathBuf {
        static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("prompt-ckpt-{tag}-{}-{n}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// The checkpoint files in `dir` whose names start with `prefix`.
    fn files(dir: &Path, prefix: &str) -> Vec<PathBuf> {
        let mut found: Vec<PathBuf> = fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| p.file_name().unwrap().to_string_lossy().starts_with(prefix))
            .collect();
        found.sort();
        found
    }

    /// What a settled writer leaves: the manifest and the one epoch it names.
    fn assert_one_epoch(dir: &Path, at: &str) {
        let changelogs = files(dir, "changelog-").len();
        assert_eq!(files(dir, "snapshot-").len(), 1, "{at}: snapshots");
        assert!(changelogs <= 1, "{at}: changelogs");
        assert_eq!(files(dir, "").len(), 2 + changelogs, "{at}: garbage left");
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

    fn encoded(store: &KeyedStateStore) -> Vec<u8> {
        let mut w = ByteWriter::new();
        put_store(&mut w, store);
        w.into_bytes()
    }

    fn assert_same_state(a: &KeyedStateStore, b: &KeyedStateStore) {
        assert_eq!(a.seq(), b.seq());
        assert_eq!(encoded(a), encoded(b));
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
        // 6 commits: a snapshot at 0 and at 4, a delta at every one after 0.
        feed(&mut store, &mut ckpt, 6);
        assert_eq!(ckpt.watermark(), Some(5));
        assert_eq!(ckpt.stats().snapshots, 2);
        assert_eq!(ckpt.stats().commits, 6);
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
        let path = files(&dir, "changelog-")
            .pop()
            .expect("deltas were committed");
        let mut bytes = fs::read(&path).unwrap();
        // The committed changelog ends in a frame's CRC trailer: flipping its
        // last byte must surface as a CRC mismatch.
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        fs::write(&path, &bytes).unwrap();
        assert!(matches!(restore(&dir), Err(CheckpointError::BadCrc { .. })));
        let _ = fs::remove_dir_all(&dir);
    }

    /// A delta that passes every frame check but names a bucket the
    /// snapshot's store does not have is a typed error, not an index panic.
    #[test]
    fn delta_bucket_past_the_shard_count_is_rejected() {
        let dir = temp_dir("bucket");
        let cfg = CheckpointConfig::new(&dir).interval(1).snapshot_every(100);
        let mut store = fresh_store(2);
        feed(&mut store, &mut Checkpointer::create(&cfg).unwrap(), 2);
        // The changelog is batch 1's delta. Re-address its last shard: same
        // length, valid CRC, buckets still ascending.
        let path = files(&dir, "changelog-").pop().expect("a delta");
        let bytes = fs::read(&path).unwrap();
        let (_, payload, _) = decode_frame(&bytes).unwrap();
        let mut delta = get_delta(&mut ByteReader::new(payload)).unwrap();
        delta.shards.last_mut().expect("a shard was touched").0 = 2;
        let mut w = ByteWriter::new();
        put_delta(&mut w, &delta);
        fs::write(&path, encode_frame(frame_kind::DELTA, w.as_bytes())).unwrap();
        let err = restore(&dir).expect_err("bucket 2 of a 2-shard store");
        let past = matches!(err, CheckpointError::Corrupt(what) if what.contains("shard count"));
        assert!(past, "{err}");
        let _ = fs::remove_dir_all(&dir);
    }

    /// A snapshot that passes every frame check but whose pane names a key
    /// its shard's running map does not track, then one committed delta
    /// whose push evicts that pane: `restore` answers `Corrupt` instead of
    /// panicking in the eviction.
    #[test]
    fn a_pane_key_the_running_map_lacks_is_corrupt() {
        let dir = temp_dir("untracked");
        let mut store = fresh_store(2);
        let batch = |i: usize| out(&[(i as u64 % 5, 1.0 + i as f64), (7, -0.5)]);
        for i in 0..store.len_batches() {
            store.push(&batch(i));
        }
        // The snapshot: the store with a key of a full shard's oldest pane
        // dropped from that shard's running map.
        let mut w = ByteWriter::new();
        w.put_bytes(&encoded(&store)[..25]); // `put_store`'s header
        for shard in store.shards() {
            let mut shard = shard.clone();
            if let Some(&(key, _)) = shard.panes[0].first() {
                shard.running.remove(&key);
            }
            crate::state::put_shard(&mut w, &shard);
        }
        fs::write(
            dir.join(snapshot_name(0)),
            encode_frame(frame_kind::SNAPSHOT, w.as_bytes()),
        )
        .unwrap();
        // The next batch's delta, committed.
        let (_, delta) = store.push_with_delta(&batch(store.len_batches()));
        let mut w = ByteWriter::new();
        put_delta(&mut w, &delta);
        let changelog = encode_frame(frame_kind::DELTA, w.as_bytes());
        fs::write(dir.join(changelog_name(0)), &changelog).unwrap();
        let epoch = Epoch {
            gen: 0,
            len: changelog.len() as u64,
            frames: 1,
        };
        let manifest = Manifest {
            watermark: delta.seq,
            base: epoch,
            head: epoch,
        };
        fs::write(dir.join(MANIFEST_NAME), manifest.frame()).unwrap();
        let err = restore(&dir).expect_err("an untracked pane key");
        assert!(matches!(err, CheckpointError::Corrupt(_)), "{err}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_snapshot_is_rejected() {
        let dir = temp_dir("truncated");
        let cfg = CheckpointConfig::new(&dir).interval(1).snapshot_every(1);
        let mut store = fresh_store(2);
        let mut ckpt = Checkpointer::create(&cfg).unwrap();
        feed(&mut store, &mut ckpt, 2);
        drop(ckpt);
        let snap = files(&dir, "snapshot-")
            .pop()
            .expect("a snapshot is published");
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
        // Simulate a torn commit: bytes appended after the last manifest.
        let path = files(&dir, "changelog-")
            .pop()
            .expect("deltas were committed");
        let mut f = OpenOptions::new().append(true).open(path).unwrap();
        f.write_all(b"torn garbage never committed").unwrap();
        drop(f);
        let restored = restore(&dir).unwrap().unwrap();
        assert_eq!(restored.watermark, 2);
        assert_same_state(&store, &restored.store);
        let _ = fs::remove_dir_all(&dir);
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

    // ---- The stream the crash, resume and held-compactor tests share ------
    //
    // Batch `seq` holds key `k` `copies(seq, k)` times, so a store driven by
    // hand with `counted(seq)` and a `Count` run over `stream()` hold the
    // same state batch for batch: a directory a hand-driven `Checkpointer`
    // crashed in is one a run can resume from.

    /// Not [`STATE_SHARDS`]: a run that resumes over a hand-driven directory
    /// carries on at the count it finds there.
    const SHARDS: usize = 8;

    fn copies(seq: u64, key: u64) -> u64 {
        if key < 5 + seq % 3 {
            1 + (seq + key) % 3
        } else {
            0
        }
    }

    fn counted(seq: u64) -> BatchOutput {
        let keys = (0..8).filter(|&k| copies(seq, k) > 0);
        out(&keys.map(|k| (k, copies(seq, k) as f64)).collect::<Vec<_>>())
    }

    fn stream() -> impl FnMut(Interval, &mut Vec<Tuple>) {
        |iv: Interval, tuples: &mut Vec<Tuple>| {
            let seq = iv.start.0 / Duration::from_secs(1).0;
            for key in 0..8 {
                for _ in 0..copies(seq, key) {
                    tuples.push(Tuple::keyed(
                        Time(iv.start.0 + tuples.len() as u64),
                        Key(key),
                    ));
                }
            }
        }
    }

    fn window() -> WindowSpec {
        WindowSpec::sliding(Duration::from_secs(4), Duration::from_secs(1))
    }

    fn count_store() -> KeyedStateStore {
        KeyedStateStore::new(window(), Duration::from_secs(1), ReduceOp::Count, SHARDS)
    }

    fn engine(checkpoint: Option<CheckpointConfig>) -> StreamingEngine {
        let cfg = EngineConfig {
            batch_interval: Duration::from_secs(1),
            map_tasks: 2,
            trace: TraceLevel::Full,
            checkpoint,
            ..EngineConfig::default()
        };
        let job = Job::identity("count", ReduceOp::Count);
        StreamingEngine::new(cfg, Technique::Hash, 1, job).with_window(window())
    }

    /// Batches every run of the stream goes through: more than any script
    /// below pushes by hand.
    const BATCHES: usize = 18;

    // ---- Crash enumeration -----------------------------------------------

    #[derive(Clone, Copy, Debug)]
    enum Step {
        /// Push the next batch and `record` it.
        Push,
        /// Wait for the compactor without publishing (what a fast compactor
        /// is to the commit after).
        Idle,
    }
    use Step::{Idle, Push};

    /// A script run once per file operation it performs on `side`, crashing
    /// there: `history` first, with nothing armed, then `steps`, then the
    /// drop of the writer.
    struct Scenario {
        name: &'static str,
        interval: usize,
        snapshot_every: usize,
        /// Whether the compactor starts only once the committing thread
        /// waits for it — otherwise the script says where it runs (`Idle`).
        held: bool,
        side: Side,
        history: usize,
        steps: &'static [Step],
    }

    /// `interval 1, snapshot_every 4`: commit 0 is the first (synchronous)
    /// snapshot, commits 4 and 8 are the cadence's.
    const SCENARIOS: &[Scenario] = &[
        Scenario {
            name: "first commit",
            interval: 1,
            snapshot_every: 4,
            held: true,
            side: Side::Driver,
            history: 0,
            steps: &[Push],
        },
        Scenario {
            name: "the compactor at the first commit",
            interval: 1,
            snapshot_every: 4,
            held: true,
            side: Side::Compactor,
            history: 0,
            steps: &[Push, Push],
        },
        Scenario {
            name: "delta commit",
            interval: 1,
            snapshot_every: 4,
            held: true,
            side: Side::Driver,
            history: 2,
            steps: &[Push],
        },
        Scenario {
            name: "two epochs back to back, the first compaction held to the second cadence point",
            interval: 1,
            snapshot_every: 4,
            held: true,
            side: Side::Driver,
            history: 4,
            steps: &[Push, Push, Push, Push, Push, Push],
        },
        Scenario {
            name: "the compactor, held to the second cadence point",
            interval: 1,
            snapshot_every: 4,
            held: true,
            side: Side::Compactor,
            history: 4,
            steps: &[Push, Push, Push, Push, Push, Push],
        },
        Scenario {
            name: "a compaction finished at once, published by the next commit",
            interval: 1,
            snapshot_every: 4,
            held: false,
            side: Side::Driver,
            history: 4,
            steps: &[Push, Idle, Push, Push],
        },
        Scenario {
            name: "the compactor, running at once",
            interval: 1,
            snapshot_every: 4,
            held: false,
            side: Side::Compactor,
            history: 4,
            steps: &[Push, Idle, Push],
        },
        Scenario {
            name: "a writer dropped with a compaction in flight",
            interval: 1,
            snapshot_every: 4,
            held: true,
            side: Side::Driver,
            history: 4,
            steps: &[Push, Push],
        },
        Scenario {
            name: "snapshot_every 1: each commit settles the last one's snapshot",
            interval: 1,
            snapshot_every: 1,
            held: true,
            side: Side::Driver,
            history: 2,
            steps: &[Push, Push],
        },
        Scenario {
            name: "snapshot_every 1, the compactor",
            interval: 1,
            snapshot_every: 1,
            held: true,
            side: Side::Compactor,
            history: 2,
            steps: &[Push, Push],
        },
        Scenario {
            name: "interval 3, snapshot_every 2",
            interval: 3,
            snapshot_every: 2,
            held: true,
            side: Side::Driver,
            history: 7,
            steps: &[Push, Push, Push, Push, Push, Push, Push, Push],
        },
    ];

    /// One run of a scenario: the directory it left and what must be in it.
    struct Left {
        at: String,
        dir: PathBuf,
        /// The encoded live store at each watermark, in order.
        states: Vec<(u64, Vec<u8>)>,
        /// How many of `states` there were when the last commit returned:
        /// the state it made durable is the last of them.
        returned: usize,
        /// Whether the armed crash fired (it does not in a scenario's last
        /// run: the script and the drop went through).
        crashed: bool,
    }

    impl Left {
        /// The index in `states` of what the directory restores to; `None`
        /// when it holds no checkpoint.
        fn restored(&self) -> Option<usize> {
            let restored = restore(&self.dir).unwrap_or_else(|e| panic!("{}: {e}", self.at))?;
            let got = (restored.watermark, encoded(&restored.store));
            let found = self.states.iter().position(|s| *s == got);
            Some(found.unwrap_or_else(|| panic!("{}: restored a state that never was", self.at)))
        }
    }

    fn run_script(sc: &Scenario, crash: Crash) -> Left {
        let at = format!(
            "{}: crash at file operation {} (torn: {})",
            sc.name, crash.ops, crash.torn
        );
        let dir = temp_dir("crash");
        let cfg = CheckpointConfig::new(&dir)
            .interval(sc.interval)
            .snapshot_every(sc.snapshot_every);
        let seam = arm(if sc.held { HELD } else { 0 });
        let mut ckpt = Checkpointer::create(&cfg).unwrap();
        let mut store = count_store();
        let (mut states, mut returned) = (Vec::new(), 0);
        let mut run = |step: Step| -> Result<(), CheckpointError> {
            let commit = match step {
                Push => {
                    let (_, delta) = store.push_with_delta(&counted(store.seq()));
                    states.push((delta.seq, encoded(&store)));
                    ckpt.record(&delta, &store)?
                }
                Idle => {
                    ckpt.settle_compaction(true)?;
                    None
                }
            };
            if commit.is_some() {
                returned = states.len();
            }
            // Disk stays bounded whatever the compactor is doing.
            for kind in ["snapshot-", "changelog-"] {
                assert!(files(&dir, kind).len() <= 2, "{at}: {kind}* piling up");
            }
            Ok(())
        };
        for _ in 0..sc.history {
            run(Push).unwrap();
        }
        seam.plan().crash = Some(crash);
        let outcome = sc.steps.iter().try_for_each(|&step| run(step));
        drop(ckpt);
        let crashed = seam.crashed();
        assert!(outcome.is_ok() || crashed, "{at}: {outcome:?}");
        Left {
            at,
            dir,
            states,
            returned,
            crashed,
        }
    }

    /// Every directory a crash can leave: each scenario, crashed at each file
    /// operation its side performs, cleanly and mid-write — and once more
    /// with no crash at all.
    fn for_each_crash(mut check: impl FnMut(&Scenario, &Left)) {
        for sc in SCENARIOS {
            for torn in [false, true] {
                for ops in 0.. {
                    let side = sc.side;
                    let left = run_script(sc, Crash { side, ops, torn });
                    check(sc, &left);
                    let _ = fs::remove_dir_all(&left.dir);
                    if !left.crashed {
                        break;
                    }
                }
            }
        }
    }

    /// A crash at any file operation of the protocol, on either thread —
    /// between any two of them, or tearing the write in progress — leaves a
    /// directory that restores to exactly the last commit that returned,
    /// byte for byte the live store of that moment: the manifest is the
    /// commit point (and the last thing a commit does to the directory),
    /// nothing it names is touched before its successor is durable, and no
    /// snapshot is named before it is.
    #[test]
    fn snapshot_commit_survives_a_crash_after_every_step() {
        let mut stops = 0;
        for_each_crash(|_, left| {
            let durable = left.restored().map_or(0, |i| i + 1);
            assert_eq!(durable, left.returned, "{}: states durable", left.at);
            if left.crashed {
                stops += 1;
            } else {
                // Script and drop went through: one epoch, no garbage.
                assert_one_epoch(&left.dir, &left.at);
            }
        });
        assert!(
            stops > 150,
            "only {stops} crashes: the seam is not consulted"
        );
    }

    fn assert_windows_from(first: u64, got: &RunResult, want: &RunResult, at: &str) {
        let want: Vec<_> = (want.windows.iter())
            .filter(|w| w.last_batch_seq >= first)
            .collect();
        assert_eq!(got.windows.len(), want.len(), "{at}: windows from {first}");
        for (got, want) in got.windows.iter().zip(want) {
            assert_eq!(got.last_batch_seq, want.last_batch_seq, "{at}");
            assert_eq!(got.aggregates.len(), want.aggregates.len(), "{at}");
            for (k, v) in &want.aggregates {
                assert_eq!(got.aggregates[k].to_bits(), v.to_bits(), "{at}: {k:?}");
            }
        }
    }

    /// A run resumes over every crash-left directory — garbage, torn files
    /// and unpublished snapshots included — to the windows of the run that
    /// was never interrupted, from the first batch the directory does not
    /// cover on; and leaves one epoch behind.
    #[test]
    fn a_run_resumes_over_every_crash_left_directory() {
        let uninterrupted = engine(None).run(&mut stream(), BATCHES);
        for_each_crash(|_, left| {
            let covered = left.restored().map_or(0, |i| left.states[i].0 + 1);
            let cfg = CheckpointConfig::new(&left.dir).snapshot_every(4).resume();
            let resumed = engine(Some(cfg)).run(&mut stream(), BATCHES);
            assert_eq!(
                resumed.batches.len() as u64,
                BATCHES as u64 - covered,
                "{}",
                left.at
            );
            assert_windows_from(covered, &resumed, &uninterrupted, &left.at);
            assert_one_epoch(&left.dir, &left.at);
            let end = restore(&left.dir)
                .unwrap()
                .expect("the resumed run committed");
            assert_eq!(end.watermark, BATCHES as u64 - 1, "{}", left.at);
            // A restored store keeps the count its snapshot records.
            let shards = if covered > 0 { SHARDS } else { STATE_SHARDS };
            assert_eq!(end.store.shard_count(), shards, "{}", left.at);
        });
    }

    /// The compactor's speed never reaches a result: a run whose compactor
    /// sits out 1 or 3 commits before every snapshot (or 0: the seam armed,
    /// nothing held) is the run nobody held, in every answer, every
    /// `StateStats` field, every counter and every restore it performed —
    /// and leaves the same directory.
    #[test]
    fn a_held_compactor_changes_no_result() {
        let geometries = [(1, 4), (1, 1), (3, 2), (2, 3)];
        for (interval, snapshot_every) in geometries {
            let run = |hold: Option<u64>| {
                let dir = temp_dir("held");
                let cfg = CheckpointConfig::new(&dir)
                    .interval(interval)
                    .snapshot_every(snapshot_every);
                let seam = hold.map(arm);
                // The store is lost twice: once with a snapshot likely in
                // flight, once more further on.
                let plan = FaultPlan::none().lose_store_at(6).lose_store_at(13);
                let (res, rec) = engine(Some(cfg))
                    .with_fault_tolerance(2, plan)
                    .run_traced(&mut stream(), BATCHES);
                assert!(!seam.is_some_and(|s| s.crashed()));
                let restores: Vec<TraceEvent> = (rec.events().into_iter())
                    .filter(|e| matches!(e, TraceEvent::StateRestore { .. }))
                    .collect();
                let end = restore(&dir).unwrap().expect("the run committed");
                let names: Vec<_> = files(&dir, "")
                    .iter()
                    .map(|p| p.file_name().unwrap().to_owned())
                    .collect();
                let _ = fs::remove_dir_all(&dir);
                let left = (end.watermark, end.bytes_read, encoded(&end.store), names);
                (res, rec.summary().counters, restores, left)
            };
            let unheld = run(None);
            assert_eq!(unheld.2.len(), 2, "both store losses restored");
            for hold in [0, 1, 3] {
                let at =
                    format!("interval {interval}, snapshot_every {snapshot_every}, hold {hold}");
                let held = run(Some(hold));
                assert_eq!(unheld.0.first_difference(&held.0), None, "{at}");
                assert_eq!(unheld.0.state, held.0.state, "{at}: StateStats");
                assert_eq!(unheld.1, held.1, "{at}: counters");
                assert_eq!(unheld.2, held.2, "{at}: restores");
                assert!(unheld.3 == held.3, "{at}: the directory left behind");
            }
        }
    }

    /// A compactor that cannot write its snapshot surfaces as the typed
    /// error of the commit that needs it — the next cadence point — and of
    /// every commit after: not a hang, not a changelog growing for ever.
    #[test]
    fn a_failed_compaction_is_the_next_cadence_commits_error() {
        let dir = temp_dir("unwritable");
        let cfg = CheckpointConfig::new(&dir).interval(1).snapshot_every(2);
        let _seam = arm(HELD);
        let mut store = fresh_store(2);
        let mut ckpt = Checkpointer::create(&cfg).unwrap();
        // Commit 2 schedules generation 1; its temp file's name is taken by
        // a directory before the (held) compactor gets to create it.
        feed(&mut store, &mut ckpt, 3);
        fs::create_dir(dir.join(format!("{}.tmp", snapshot_name(1)))).unwrap();
        feed(&mut store, &mut ckpt, 1);
        let durable = store.clone();
        for _ in 0..2 {
            let (_, delta) = store.push_with_delta(&out(&[(1, 1.0)]));
            let err = ckpt
                .record(&delta, &store)
                .expect_err("the compaction failed");
            assert!(matches!(err, CheckpointError::Io(_)), "{err}");
        }
        assert!(ckpt.settle().is_err());
        drop(ckpt);
        let restored = restore(&dir).unwrap().unwrap();
        assert_same_state(&durable, &restored.store);
        let _ = fs::remove_dir_all(&dir);
    }

    /// `create` sweeps what a crashed or earlier run left: temp files and
    /// unnamed snapshots and changelogs at once, what the manifest names as
    /// soon as the new writer's first commit has superseded it. Files that
    /// are not the protocol's are not touched.
    #[test]
    fn create_sweeps_what_the_manifest_does_not_name() {
        let dir = temp_dir("sweep");
        let cfg = CheckpointConfig::new(&dir).interval(1).snapshot_every(4);
        let mut store = fresh_store(2);
        let mut first = Checkpointer::create(&cfg).unwrap();
        feed(&mut store, &mut first, 7);
        drop(first);
        let named: Vec<PathBuf> = files(&dir, "");
        assert_eq!(named.len(), 3, "manifest, snapshot, changelog: {named:?}");
        let before = restore(&dir).unwrap().unwrap();
        for garbage in [
            "MANIFEST.tmp",
            "snapshot-9.ckpt",
            "snapshot-9.ckpt.tmp",
            "changelog-0.ckpt",
        ] {
            fs::write(dir.join(garbage), b"left by a crash").unwrap();
        }
        fs::write(dir.join("notes.txt"), b"not ours").unwrap();

        let mut second = Checkpointer::create(&cfg).unwrap();
        let mut kept = named.clone();
        kept.push(dir.join("notes.txt"));
        kept.sort();
        assert_eq!(files(&dir, ""), kept, "swept to what the manifest names");
        let after = restore(&dir).unwrap().unwrap();
        assert_eq!(after.watermark, before.watermark);
        assert_same_state(&before.store, &after.store);

        // A fresh run over the used directory: its first commit supersedes
        // the old epoch, names never collide, nothing is stranded.
        let mut fresh = fresh_store(2);
        feed(&mut fresh, &mut second, 2);
        drop(second);
        let end = files(&dir, "");
        assert_eq!(end.len(), 4, "{end:?}");
        assert!(named[1..].iter().all(|old| !end.contains(old)), "{end:?}");
        assert_same_state(&fresh, &restore(&dir).unwrap().unwrap().store);
        let _ = fs::remove_dir_all(&dir);
    }
}
