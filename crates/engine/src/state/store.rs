//! The sharded keyed state store.
//!
//! [`KeyedStateStore`] holds the same windowed query state as
//! [`crate::window::WindowState`], but split into per-bucket shards.
//! Bit-identity with the serial window is load-bearing: every per-key
//! floating-point operation happens in exactly the order `WindowState::push`
//! would perform it, so a run that checkpoints produces the same window
//! results, bit for bit, as one that does not — at any shard count. For a
//! sliding window that is the merge of each entering pane and the inverse
//! Reduce of each exiting one. For a tumbling window it is the fold of the
//! window's own panes in batch order: the window's first push clears every
//! shard's running map and panes (keeping their allocations) and nothing is
//! evicted, as `WindowState` folds a tumbling window's outputs. The clear
//! waits for that first push, not the emission, because the emitted
//! window's panes are still read after it (session counts, the checkpoint
//! record); a snapshot therefore holds the open window's panes alone
//! mid-window, and the whole emitted window at a boundary.
//!
//! A shard keeps each pane it merges twice: in key order, the pane the
//! changelog delta and the snapshot write, and in its running table's slot
//! order (see [`slot_mask`]), so merging the entering pane and inverting the
//! leaving one each sweep the table front to back. The emission draws from
//! every shard's table in slices, so it fills front to back too. The slot
//! order only affects speed: no per-key operation depends on where a key
//! sits in a pane. A pane restored from a snapshot has no slot-ordered copy
//! and is evicted in key order.
//!
//! The sharding is a memory layout, not a unit of ownership: the driver's
//! store is the only copy of keyed state, and the split buys cache-sized
//! running maps and short per-pane sorts (EXPERIMENTS "State shard count").
//! So the count is the store's own — [`STATE_SHARDS`] when the engine builds
//! it, what the snapshot records when it is restored — never the Reduce task
//! count a scale action moves. Placement uses the store's own fixed seed, not
//! the reduce allocator's bucket assignment (mutable run state: split keys
//! move between buckets as skew evolves): a restarted run must recompute it
//! from the key alone.

use std::collections::VecDeque;
use std::sync::Arc;

use prompt_core::bytes::{self, ByteReader, BytesSink, CodecError};
use prompt_core::hash::{bucket_of, mix64, KeyMap};
use prompt_core::sort::RadixSort;
use prompt_core::types::{Duration, Key};

use crate::job::ReduceOp;
use crate::stage::BatchOutput;
use crate::window::{WindowResult, WindowSpec};

/// Fixed hash seed for state-shard placement. Stable across runs and
/// processes — a restored store must agree on where a key lives.
pub const STATE_SHARD_SEED: u64 = 0x5354_4154_4553_4844; // "STATESHD"

/// Shards of a store the engine builds. Flat within noise from 8 to 64 on
/// both measured output shapes and ahead of 1 on each (EXPERIMENTS "State
/// shard count"); 16 is what the `uniform_state` benchmark has always run.
pub const STATE_SHARDS: usize = 16;

/// One batch's contribution to one shard: the per-key mapped aggregates,
/// sorted by key (the canonical order: map iteration order is not). A pane
/// is immutable once built, so the shard, the batch's [`StateDelta`] and a
/// frozen copy of the store share it by `Arc` instead of copying entries.
pub type Pane = Vec<(Key, f64)>;

/// Slices `current()` draws each shard's running table in, round-robin:
/// a slice of each table lands in the same stretches of the emission.
const EMISSION_SLICES: usize = 64;

/// The bucket mask of `table`: a std `KeyMap` iterates in ascending
/// `mix64(key) & mask`, its slot order, but for keys displaced from their
/// home slot within a probe group (`std_keymap_iterates_in_slot_order` pins
/// this). `capacity()` is the items plus the growth left, seven eighths of
/// the buckets in a table without tombstones, and less by the tombstones.
fn slot_mask<V>(table: &KeyMap<V>) -> u64 {
    ((table.capacity() * 8 / 7).next_power_of_two() - 1) as u64
}

/// One state shard: the running aggregates and in-window panes for the keys
/// that hash to its bucket.
#[derive(Debug, Default)]
pub struct StateShard {
    /// The shard's bucket index (its position in the store).
    pub(crate) bucket: u32,
    /// Running per-key aggregate with contribution counts (invertible
    /// operations only — mirrors `WindowState::running`).
    pub(crate) running: KeyMap<(f64, u32)>,
    /// In-window panes, oldest first. Every push appends one pane to every
    /// shard (possibly empty), so pane indices align across shards.
    pub(crate) panes: VecDeque<Arc<Pane>>,
    /// The newest panes again, oldest first, each in `running`'s slot order
    /// as of its merge: what the merge and the eviction walk. A pane
    /// restored from a snapshot has none, so these are the last
    /// `slotted.len()` of `panes`. Only speed rests on them: a copy of the
    /// store, and the snapshot, leave them out.
    slotted: VecDeque<Pane>,
}

impl Clone for StateShard {
    fn clone(&self) -> StateShard {
        StateShard {
            bucket: self.bucket,
            running: self.running.clone(),
            panes: self.panes.clone(),
            slotted: VecDeque::new(),
        }
    }

    /// Into the allocations `self` already holds: what makes a frozen copy
    /// refreshed every snapshot cheap (the panes are shared, the running map
    /// is copied into its existing table).
    fn clone_from(&mut self, source: &StateShard) {
        self.bucket = source.bucket;
        self.running.clone_from(&source.running);
        self.panes.clone_from(&source.panes);
        self.slotted.clear();
    }
}

impl StateShard {
    fn empty(bucket: u32) -> StateShard {
        StateShard {
            bucket,
            running: KeyMap::default(),
            panes: VecDeque::new(),
            slotted: VecDeque::new(),
        }
    }

    /// Distinct keys present in this shard (running entries for invertible
    /// operations, pane membership otherwise).
    pub fn key_count(&self) -> usize {
        if !self.running.is_empty() {
            return self.running.len();
        }
        let mut keys = prompt_core::hash::KeySet::default();
        for pane in &self.panes {
            for &(k, _) in pane.iter() {
                keys.insert(k);
            }
        }
        keys.len()
    }
}

/// One batch's state change, split by shard — the changelog record. Replaying
/// a delta against the store it was captured from reproduces the push
/// bit-exactly.
#[derive(Clone, Debug, PartialEq)]
pub struct StateDelta {
    /// Sequence number of the batch this delta applies to (the store's `seq`
    /// at capture time).
    pub seq: u64,
    /// `(bucket, sorted entries)` for every shard the batch touched — the
    /// panes the shards themselves hold.
    pub shards: Vec<(u32, Arc<Pane>)>,
}

/// Keyed window state sharded by bucket. See the module docs for the
/// bit-identity contract.
#[derive(Debug)]
pub struct KeyedStateStore {
    op: ReduceOp,
    len_batches: usize,
    slide_batches: usize,
    shards: Vec<StateShard>,
    seq: u64,
    since_emit: usize,
    /// What each push builds its panes in, kept across pushes.
    kept: PaneBuffers,
}

/// The buffers a push lays its panes out in: every push fills one per
/// shard in key order and, for a running table, one in its slot order, in
/// the buffers of the panes and copies it evicts.
#[derive(Debug, Default)]
struct PaneBuffers {
    /// The sort of each new pane, by key and by slot.
    radix: RadixSort<(Key, f64)>,
    /// Emptied panes to fill again.
    spare: Vec<Pane>,
}

impl PaneBuffers {
    /// An empty pane: a spare one, else one sized for about `n` entries.
    /// It is sized up front, since one grown from empty reallocates at
    /// every doubling, and with room to spare, since buffers move between
    /// panes: a shard's key count is binomial about its mean, so four
    /// standard deviations (≈ √n) above it hold every pane but a rare one,
    /// which then grows once.
    fn take(&mut self, n: usize) -> Pane {
        (self.spare.pop()).unwrap_or_else(|| Pane::with_capacity(n + 4 * n.isqrt() + 16))
    }

    /// Keep `pane`'s buffer.
    fn keep(&mut self, mut pane: Pane) {
        pane.clear();
        self.spare.push(pane);
    }

    /// Keep `pane`'s buffer, unless a delta or a frozen copy still holds it.
    fn give_back(&mut self, pane: Arc<Pane>) {
        if let Ok(entries) = Arc::try_unwrap(pane) {
            self.keep(entries);
        }
    }
}

impl Clone for KeyedStateStore {
    fn clone(&self) -> KeyedStateStore {
        KeyedStateStore {
            shards: self.shards.clone(),
            kept: PaneBuffers::default(),
            ..*self
        }
    }

    /// Shard by shard into the copy's existing allocations (see
    /// [`StateShard::clone_from`]).
    fn clone_from(&mut self, source: &KeyedStateStore) {
        self.shards.clone_from(&source.shards);
        *self = KeyedStateStore {
            shards: std::mem::take(&mut self.shards),
            kept: std::mem::take(&mut self.kept),
            ..*source
        };
    }
}

impl KeyedStateStore {
    /// Create a store for `spec` over batches of `batch_interval`, split
    /// into `shards` shards for the store's whole life ([`STATE_SHARDS`] is
    /// what the engine passes).
    pub fn new(
        spec: WindowSpec,
        batch_interval: Duration,
        op: ReduceOp,
        shards: usize,
    ) -> KeyedStateStore {
        assert!(shards >= 1, "state store needs at least one shard");
        let (len_batches, slide_batches) = spec.in_batches(batch_interval);
        KeyedStateStore {
            op,
            len_batches,
            slide_batches,
            shards: (0..shards).map(|b| StateShard::empty(b as u32)).collect(),
            seq: 0,
            since_emit: 0,
            kept: PaneBuffers::default(),
        }
    }

    /// Window length in batches.
    pub fn len_batches(&self) -> usize {
        self.len_batches
    }

    /// The reduce aggregation this store maintains.
    pub fn op(&self) -> ReduceOp {
        self.op
    }

    /// Number of shards: fixed when the store was built or restored.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Batches pushed so far (equivalently: the next batch's sequence
    /// number).
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// The shard a key lives in.
    pub fn shard_of(&self, key: Key) -> usize {
        bucket_of(STATE_SHARD_SEED, key, self.shards.len())
    }

    /// Borrow the shards (for snapshots).
    pub fn shards(&self) -> &[StateShard] {
        &self.shards
    }

    /// Distinct keys with live state across all shards.
    pub fn key_count(&self) -> usize {
        self.shards.iter().map(StateShard::key_count).sum()
    }

    /// Whether every key lives in its own shard and every shard's running map
    /// tracks exactly the keys of its panes, each with the number of panes
    /// naming it (and nothing, for an operation that keeps no running state)
    /// — what an eviction relies on. Pushes keep this by construction; a
    /// store read from disk is checked once, when it is restored.
    pub(crate) fn tracks_its_panes(&self) -> bool {
        self.shards.iter().all(|shard| {
            let keys = || shard.panes.iter().flat_map(|p| p.iter().map(|&(k, _)| k));
            if keys().any(|k| self.shard_of(k) != shard.bucket as usize) {
                return false;
            }
            if !self.op.invertible() {
                return shard.running.is_empty();
            }
            let mut counts: KeyMap<u32> = KeyMap::default();
            for k in keys() {
                *counts.entry(k).or_insert(0) += 1;
            }
            counts.len() == shard.running.len()
                && (counts.iter()).all(|(k, &n)| shard.running.get(k).is_some_and(|e| e.1 == n))
        })
    }

    /// Let go of the panes (a frozen copy that has been written out): the
    /// live store evicts them on its own schedule, and a copy kept for reuse
    /// must not keep them alive past that.
    pub(crate) fn release_panes(&mut self) {
        for shard in &mut self.shards {
            shard.panes.clear();
        }
    }

    /// Push one batch output; returns the window result at slide boundaries.
    pub fn push(&mut self, out: &BatchOutput) -> Option<WindowResult> {
        self.push_with_delta(out).0
    }

    /// Push one batch output, also returning the changelog delta that
    /// describes the change.
    pub fn push_with_delta(&mut self, out: &BatchOutput) -> (Option<WindowResult>, StateDelta) {
        let r = self.shards.len();
        let mean = out.aggregates.len() / r;
        let mut split: Vec<Pane> = (0..r).map(|_| self.kept.take(mean)).collect();
        for (&k, &v) in &out.aggregates {
            split[bucket_of(STATE_SHARD_SEED, k, r)].push((k, v));
        }
        let split: Vec<Arc<Pane>> = split
            .into_iter()
            .map(|mut entries| {
                self.kept.radix.sort(&mut entries, |&(k, _)| k.0);
                Arc::new(entries)
            })
            .collect();
        let delta = StateDelta {
            seq: self.seq,
            shards: split
                .iter()
                .enumerate()
                .filter(|(_, e)| !e.is_empty())
                .map(|(b, e)| (b as u32, Arc::clone(e)))
                .collect(),
        };
        (self.apply_panes(split), delta)
    }

    /// Replay a previously captured delta (checkpoint restore). The delta
    /// must be the next batch in sequence and name only buckets this store
    /// has; `restore` checks both of a changelog's deltas before it calls.
    pub fn apply_delta(&mut self, delta: &StateDelta) -> Option<WindowResult> {
        assert_eq!(delta.seq, self.seq, "delta replayed out of order");
        let mut split: Vec<Arc<Pane>> = vec![Arc::default(); self.shards.len()];
        for (b, entries) in &delta.shards {
            split[*b as usize] = Arc::clone(entries);
        }
        self.apply_panes(split)
    }

    /// Whether consecutive answers share no batch (slide = length, in
    /// batches).
    fn tumbling(&self) -> bool {
        self.len_batches == self.slide_batches
    }

    /// Ready every shard for a push of `len(b)` entries into shard `b`.
    ///
    /// A tumbling window's first push starts every shard afresh, its running
    /// map and panes cleared with their allocations kept, so the window is a
    /// fold of its own panes and nothing is evicted. It clears here and not
    /// at the emission, since the caller still reads the emitted window
    /// (session counts, the checkpoint record) after the push that emitted
    /// it returns. The first push is the persisted `since_emit == 0`: a store
    /// restored mid-window from one that kept the older window's panes (it
    /// evicted a tumbling window's panes one by one) evicts them as that
    /// store would, until its window closes.
    ///
    /// A running table then makes room for every key of the pane before the
    /// merge, which adds them before the eviction removes any: the pane's
    /// copy is laid out in the table it is merged into, and the table grows
    /// while the window fills, not once tombstones have used up its room.
    fn ready(&mut self, len: impl Fn(usize) -> usize) {
        let fresh = self.tumbling() && self.since_emit == 0;
        let invertible = self.op.invertible();
        for (b, shard) in self.shards.iter_mut().enumerate() {
            if fresh {
                shard.running.clear();
                for pane in shard.panes.drain(..) {
                    self.kept.give_back(pane);
                }
                for copy in shard.slotted.drain(..) {
                    self.kept.keep(copy);
                }
            }
            if invertible {
                shard.running.reserve(len(b));
            }
        }
    }

    /// The shard-wise mirror of `WindowState::push`: merge each shard's
    /// entries into its running state, append the pane, evict the batch
    /// leaving the window. The merge and the eviction walk a pane's
    /// slot-ordered copy where it has one; per key, every merge and inverse
    /// happens in batch order whatever the order of a pane's keys.
    fn apply_panes(&mut self, split: Vec<Arc<Pane>>) -> Option<WindowResult> {
        self.ready(|b| split[b].len());
        let op = self.op;
        let invertible = op.invertible();
        let len_batches = self.len_batches;
        for (shard, entries) in self.shards.iter_mut().zip(split) {
            if invertible {
                let mask = slot_mask(&shard.running);
                let mut copy = self.kept.take(entries.len());
                copy.extend_from_slice(&entries);
                (self.kept.radix).sort(&mut copy, |&(k, _)| mix64(k.0) & mask);
                for &(k, v) in &copy {
                    let e = shard.running.entry(k).or_insert((0.0, 0));
                    e.0 = if e.1 == 0 { v } else { op.merge(e.0, v) };
                    e.1 += 1;
                }
                shard.slotted.push_back(copy);
            }
            shard.panes.push_back(entries);
            if shard.panes.len() > len_batches {
                let old = shard.panes.pop_front().expect("pane non-empty");
                let copy = (shard.slotted.len() > shard.panes.len())
                    .then(|| shard.slotted.pop_front().expect("copy non-empty"));
                if invertible {
                    for &(k, v) in copy.as_deref().unwrap_or(&old) {
                        let e = shard.running.get_mut(&k).expect("evicted key tracked");
                        e.1 -= 1;
                        if e.1 == 0 {
                            shard.running.remove(&k);
                        } else {
                            e.0 = op.invert(e.0, v);
                        }
                    }
                }
                if let Some(copy) = copy {
                    self.kept.keep(copy);
                }
                self.kept.give_back(old);
            }
        }
        self.seq += 1;
        self.since_emit += 1;
        if self.since_emit >= self.slide_batches {
            self.since_emit = 0;
            Some(WindowResult {
                last_batch_seq: self.seq - 1,
                aggregates: self.current(),
            })
        } else {
            None
        }
    }

    /// The current window aggregate (incremental when invertible, recomputed
    /// from the panes otherwise) — per-key bits identical to
    /// `WindowState::current`. An emission is retained by the caller, so the
    /// incremental map is sized exactly: the shards' running entries are its
    /// keys. They are drawn from every shard's table in turn, a 64th of
    /// each table at a time: each table is read in its slot order, which is
    /// the emission's at a coarser mask, so the emission fills front to back
    /// once instead of once per shard.
    pub fn current(&self) -> KeyMap<f64> {
        let op = self.op;
        let mut acc: KeyMap<f64> = KeyMap::default();
        if op.invertible() {
            acc.reserve(self.shards.iter().map(|s| s.running.len()).sum());
            let mut tables: Vec<_> = (self.shards.iter())
                .map(|s| (s.running.len(), s.running.iter()))
                .collect();
            for slice in 0..EMISSION_SLICES {
                for (len, entries) in &mut tables {
                    let n = (slice + 1) * *len / EMISSION_SLICES - slice * *len / EMISSION_SLICES;
                    for (&k, &(v, _)) in entries.take(n) {
                        acc.insert(k, v);
                    }
                }
            }
        } else {
            for shard in &self.shards {
                for pane in &shard.panes {
                    for &(k, v) in pane.iter() {
                        acc.entry(k)
                            .and_modify(|a| *a = op.merge(*a, v))
                            .or_insert(v);
                    }
                }
            }
        }
        acc
    }

    /// Per-key count of in-window batches the key appeared in — the
    /// "session count" the stateful query operator exposes. Derived from
    /// pane membership, so it works for every `ReduceOp`.
    pub fn session_counts(&self) -> KeyMap<f64> {
        let mut acc: KeyMap<f64> = KeyMap::default();
        for shard in &self.shards {
            for pane in &shard.panes {
                for &(k, _) in pane.iter() {
                    *acc.entry(k).or_insert(0.0) += 1.0;
                }
            }
        }
        acc
    }
}

/// Encode `(key, value)` entries at 16 B each.
fn put_entries<S: BytesSink>(s: &mut S, entries: &[(Key, f64)]) {
    bytes::put_blocked(s, entries, |&(k, v)| {
        let mut out = [0u8; 16];
        out[..8].copy_from_slice(&k.0.to_le_bytes());
        out[8..].copy_from_slice(&v.to_bits().to_le_bytes());
        out
    });
}

/// A shard's running entries in key order, and the sort that puts them
/// there: kept by a caller that encodes store after store (the compactor),
/// so that once it has grown a snapshot sorts in buffers it already holds.
#[derive(Debug, Default)]
pub(crate) struct RunningOrder {
    entries: Vec<(Key, (f64, u32))>,
    radix: RadixSort<(Key, (f64, u32))>,
}

/// Encode one shard: running entries in sorted key order, then the panes
/// (already sorted) oldest first.
pub fn put_shard<S: BytesSink>(s: &mut S, shard: &StateShard) {
    put_shard_in(s, shard, &mut RunningOrder::default());
}

/// [`put_shard`], sorting in `order`'s buffers.
fn put_shard_in<S: BytesSink>(s: &mut S, shard: &StateShard, order: &mut RunningOrder) {
    s.put_u32(shard.bucket);
    let running = &mut order.entries;
    running.clear();
    running.extend(shard.running.iter().map(|(&k, &e)| (k, e)));
    order.radix.sort(running, |&(k, _)| k.0);
    s.put_len(running.len());
    bytes::put_blocked(s, &*running, |&(k, (v, c))| {
        let mut out = [0u8; 20];
        out[..8].copy_from_slice(&k.0.to_le_bytes());
        out[8..16].copy_from_slice(&v.to_bits().to_le_bytes());
        out[16..].copy_from_slice(&c.to_le_bytes());
        out
    });
    s.put_len(shard.panes.len());
    for pane in &shard.panes {
        s.put_len(pane.len());
        put_entries(s, pane);
    }
}

/// Decode one shard.
pub fn get_shard(r: &mut ByteReader<'_>) -> Result<StateShard, CodecError> {
    let bucket = r.get_u32()?;
    // `get_len` bounds the count by the bytes left, so it may size the map.
    let n_running = r.get_len(20)?;
    let mut running = KeyMap::default();
    running.reserve(n_running);
    let mut last: Option<u64> = None;
    for _ in 0..n_running {
        let k = r.get_u64()?;
        // A key listed twice would keep its second value.
        if last.is_some_and(|p| p >= k) {
            return Err(CodecError::Malformed("running keys not strictly sorted"));
        }
        last = Some(k);
        let v = r.get_f64()?;
        let c = r.get_u32()?;
        if c == 0 {
            return Err(CodecError::Malformed("zero contribution count"));
        }
        running.insert(Key(k), (v, c));
    }
    let n_panes = r.get_len(4)?;
    let mut panes = VecDeque::with_capacity(n_panes);
    for _ in 0..n_panes {
        let n = r.get_len(16)?;
        let mut pane = Pane::with_capacity(n);
        let mut last: Option<u64> = None;
        for _ in 0..n {
            let k = r.get_u64()?;
            if last.is_some_and(|p| p >= k) {
                return Err(CodecError::Malformed("pane keys not strictly sorted"));
            }
            last = Some(k);
            pane.push((Key(k), r.get_f64()?));
        }
        panes.push_back(Arc::new(pane));
    }
    Ok(StateShard {
        bucket,
        running,
        panes,
        slotted: VecDeque::new(),
    })
}

/// Encode a whole store (the snapshot payload).
pub fn put_store<S: BytesSink>(s: &mut S, store: &KeyedStateStore) {
    put_store_in(s, store, &mut RunningOrder::default());
}

/// [`put_store`], sorting each shard's running entries in `order`'s buffers.
pub(crate) fn put_store_in<S: BytesSink>(
    s: &mut S,
    store: &KeyedStateStore,
    order: &mut RunningOrder,
) {
    s.put_u8(store.op.wire_code());
    s.put_u32(store.len_batches as u32);
    s.put_u32(store.slide_batches as u32);
    s.put_u64(store.seq);
    s.put_u32(store.since_emit as u32);
    s.put_len(store.shards.len());
    for shard in &store.shards {
        put_shard_in(s, shard, order);
    }
}

/// Decode a whole store.
pub fn get_store(r: &mut ByteReader<'_>) -> Result<KeyedStateStore, CodecError> {
    let op = ReduceOp::from_wire_code(r.get_u8()?).ok_or(CodecError::Malformed("reduce op tag"))?;
    let len_batches = r.get_u32()? as usize;
    let slide_batches = r.get_u32()? as usize;
    if len_batches == 0 || slide_batches == 0 || slide_batches > len_batches {
        return Err(CodecError::Malformed("window geometry"));
    }
    let seq = r.get_u64()?;
    let since_emit = r.get_u32()? as usize;
    if since_emit >= slide_batches {
        return Err(CodecError::Malformed("since_emit past slide"));
    }
    let n_shards = r.get_len(12)?;
    if n_shards == 0 {
        return Err(CodecError::Malformed("store needs at least one shard"));
    }
    // Every push appends one pane to every shard and evicts past the window,
    // so pane indices align across shards. A tumbling window's first push
    // clears them instead, so mid-window it holds the open window's panes
    // alone — or, written by a store that evicted tumbling panes one by
    // one, the last `min(seq, length)` too.
    let held = seq.min(len_batches as u64) as usize;
    let open = if slide_batches == len_batches && since_emit > 0 {
        since_emit
    } else {
        held
    };
    let mut shards: Vec<StateShard> = Vec::with_capacity(n_shards);
    for i in 0..n_shards {
        let shard = get_shard(r)?;
        if shard.bucket != i as u32 {
            return Err(CodecError::Malformed("shard buckets out of order"));
        }
        let n_panes = shards.first().map_or(shard.panes.len(), |s| s.panes.len());
        if shard.panes.len() != n_panes || (n_panes != held && n_panes != open) {
            return Err(CodecError::Malformed(
                "shard pane count is not the window's batches",
            ));
        }
        shards.push(shard);
    }
    Ok(KeyedStateStore {
        op,
        len_batches,
        slide_batches,
        shards,
        seq,
        since_emit,
        kept: PaneBuffers::default(),
    })
}

/// Encode a changelog delta.
pub fn put_delta<S: BytesSink>(s: &mut S, d: &StateDelta) {
    s.put_u64(d.seq);
    s.put_len(d.shards.len());
    for (b, entries) in &d.shards {
        s.put_u32(*b);
        s.put_len(entries.len());
        put_entries(s, entries);
    }
}

/// Decode a changelog delta.
pub fn get_delta(r: &mut ByteReader<'_>) -> Result<StateDelta, CodecError> {
    let seq = r.get_u64()?;
    let n = r.get_len(8)?;
    let mut shards = Vec::with_capacity(n);
    let mut last_bucket: Option<u32> = None;
    for _ in 0..n {
        let b = r.get_u32()?;
        if last_bucket.is_some_and(|p| p >= b) {
            return Err(CodecError::Malformed("delta buckets not strictly sorted"));
        }
        last_bucket = Some(b);
        let n_entries = r.get_len(16)?;
        if n_entries == 0 {
            return Err(CodecError::Malformed("empty delta shard"));
        }
        let mut pane = Pane::with_capacity(n_entries);
        let mut last: Option<u64> = None;
        for _ in 0..n_entries {
            let k = r.get_u64()?;
            if last.is_some_and(|p| p >= k) {
                return Err(CodecError::Malformed("delta keys not strictly sorted"));
            }
            last = Some(k);
            pane.push((Key(k), r.get_f64()?));
        }
        shards.push((b, Arc::new(pane)));
    }
    Ok(StateDelta { seq, shards })
}

impl StateDelta {
    /// Encoded size in bytes (what [`put_delta`] writes): the sequence
    /// number and shard count, then per shard the bucket id, the entry count
    /// and 16 B an entry.
    pub fn encoded_len(&self) -> usize {
        let shard = |(_, entries): &(u32, Arc<Pane>)| 8 + 16 * entries.len();
        12 + self.shards.iter().map(shard).sum::<usize>()
    }
}

impl KeyedStateStore {
    /// Encoded size of the whole store in bytes (what a snapshot would
    /// write).
    pub fn encoded_len(&self) -> usize {
        // `put_store`'s 25 B header; per shard the bucket id and two length
        // prefixes, then `put_shard`'s entry widths under a prefix per pane.
        let shard = |s: &StateShard| {
            let panes: usize = s.panes.iter().map(|p| 4 + 16 * p.len()).sum();
            12 + 20 * s.running.len() + panes
        };
        25 + self.shards.iter().map(shard).sum::<usize>()
    }

    /// Bytes of keyed state each of `n_groups` key-groups holds — what a
    /// rebalance reports for a group that changes owner. State sharding
    /// (fixed [`STATE_SHARD_SEED`]) is independent of the rebalancer's
    /// key-grouping, so a group's keys are scattered across shards: one pass
    /// over every entry, costed at [`put_shard`]'s widths (20 B per running
    /// entry, 16 B per pane entry).
    pub fn group_bytes(&self, n_groups: usize) -> Vec<u64> {
        let mut bytes = vec![0u64; n_groups];
        let group = |k: Key| crate::rebalance::group_of(k, n_groups);
        for shard in &self.shards {
            for &k in shard.running.keys() {
                bytes[group(k)] += 20;
            }
            for &(k, _) in shard.panes.iter().flat_map(|p| p.iter()) {
                bytes[group(k)] += 16;
            }
        }
        bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::StatefulOp;
    use crate::window::WindowState;
    use prompt_core::bytes::ByteWriter;

    fn out(entries: &[(u64, f64)]) -> BatchOutput {
        let mut aggregates = KeyMap::default();
        for &(k, v) in entries {
            aggregates.insert(Key(k), v);
        }
        BatchOutput { aggregates }
    }

    fn batches(n: usize, keys: u64) -> Vec<BatchOutput> {
        (0..n)
            .map(|i| {
                let entries: Vec<(u64, f64)> = (0..keys)
                    .filter(|k| !(i as u64 + k).is_multiple_of(3))
                    .map(|k| (k, (i as f64 + 1.0) * 0.1 + k as f64))
                    .collect();
                out(&entries)
            })
            .collect()
    }

    fn spec() -> WindowSpec {
        WindowSpec::sliding(Duration::from_secs(4), Duration::from_secs(2))
    }

    /// Thousands of keys a batch over a key range that slides by a tenth of
    /// its width each batch, with signed non-integer values of mixed
    /// magnitude: at this size every shard's running table grows while the
    /// window fills, and keys leaving the window churn it after.
    fn sliding_batches(n: usize) -> Vec<BatchOutput> {
        (0..n as u64)
            .map(|i| {
                let entries: Vec<(u64, f64)> = (i * 400..i * 400 + 4_000)
                    .filter(|&k| mix64(k ^ (i << 40)) % 5 < 3)
                    .map(|k| {
                        let h = mix64(k.wrapping_mul(i + 1));
                        let scale = [1e-3, 1.0, 1e6][(h % 3) as usize];
                        (k, ((h >> 8) % 20_001) as f64 * 0.37e-2 * scale - 37.0)
                    })
                    .collect();
                out(&entries)
            })
            .collect()
    }

    /// A sliding window of 4 batches, sliding by 1.
    fn four_by_one() -> WindowSpec {
        WindowSpec::sliding(Duration::from_secs(4), Duration::from_secs(1))
    }

    /// The sliding spec and tumbling windows of 1, 2 and 3 batches.
    fn specs() -> [WindowSpec; 4] {
        [
            spec(),
            WindowSpec::tumbling(Duration::from_secs(1)),
            WindowSpec::tumbling(Duration::from_secs(2)),
            WindowSpec::tumbling(Duration::from_secs(3)),
        ]
    }

    /// Two window answers, bit for bit.
    fn assert_same_answer(expect: &KeyMap<f64>, got: &KeyMap<f64>, what: &str) {
        assert_eq!(expect.len(), got.len(), "{what}");
        for (k, v) in expect {
            assert_eq!(v.to_bits(), got[k].to_bits(), "{what}: key {k:?} differs");
        }
    }

    /// Two emissions (or non-emissions), bit for bit.
    fn assert_same_emission(expect: Option<WindowResult>, got: Option<WindowResult>, what: &str) {
        match (expect, got) {
            (None, None) => {}
            (Some(e), Some(g)) => {
                assert_eq!(e.last_batch_seq, g.last_batch_seq, "{what}");
                assert_same_answer(&e.aggregates, &g.aggregates, what);
            }
            (e, g) => panic!("{what}: emission mismatch: {e:?} vs {g:?}"),
        }
    }

    #[test]
    fn store_matches_window_state_bit_for_bit() {
        for spec in specs() {
            for op in [ReduceOp::Sum, ReduceOp::Count, ReduceOp::Max, ReduceOp::Min] {
                let mut window = WindowState::new(spec, Duration::from_secs(1), op);
                let mut store = KeyedStateStore::new(spec, Duration::from_secs(1), op, 4);
                for b in batches(12, 9) {
                    let expect = window.push(b.clone());
                    let got = store.push(&b);
                    assert_same_emission(expect, got, &format!("{spec:?} {op:?}"));
                }
            }
        }
        for op in [ReduceOp::Sum, ReduceOp::Max] {
            let spec = four_by_one();
            let mut window = WindowState::new(spec, Duration::from_secs(1), op);
            let mut store = KeyedStateStore::new(spec, Duration::from_secs(1), op, 4);
            for (i, b) in sliding_batches(14).into_iter().enumerate() {
                let expect = window.push(b.clone());
                let got = store.push(&b);
                assert_same_emission(expect, got, &format!("sliding keys {op:?} batch {i}"));
            }
        }
    }

    #[test]
    fn delta_replay_reproduces_push() {
        for spec in specs() {
            let mut live = KeyedStateStore::new(spec, Duration::from_secs(1), ReduceOp::Sum, 3);
            let mut replayed = live.clone();
            for b in batches(10, 7) {
                let (expect, delta) = live.push_with_delta(&b);
                let got = replayed.apply_delta(&delta);
                assert_same_emission(expect, got, &format!("{spec:?}"));
            }
            assert_same_answer(&live.current(), &replayed.current(), &format!("{spec:?}"));
        }
        for op in [ReduceOp::Sum, ReduceOp::Max] {
            let mut live = KeyedStateStore::new(four_by_one(), Duration::from_secs(1), op, 3);
            let mut replayed = live.clone();
            for (i, b) in sliding_batches(14).iter().enumerate() {
                let (expect, delta) = live.push_with_delta(b);
                let got = replayed.apply_delta(&delta);
                assert_same_emission(expect, got, &format!("sliding keys {op:?} batch {i}"));
            }
            assert_same_answer(&live.current(), &replayed.current(), "sliding keys");
        }
    }

    /// A std `KeyMap` iterates in its slot order, ascending `mix64(key) &
    /// mask` under [`slot_mask`], but for a key displaced from its home slot
    /// by less than one probe group: the order a shard's copy of each pane is
    /// laid out in, so that merging and evicting it sweep the table front to
    /// back.
    /// Only speed rests on this, so a std change must fail here instead of
    /// slowing the commit unseen. The tables are the store's shard sizes,
    /// 2¹⁰–2¹⁶ buckets: fresh, at the load a shard's table rests at and at the
    /// most it reaches mid-push, and a store's one shard after a sliding
    /// window's churn has left tombstones. The mask one bit wider must not
    /// describe the order, so the derivation is the table's bucket count,
    /// not twice it.
    #[test]
    fn std_keymap_iterates_in_slot_order() {
        /// Buckets in one probe group.
        const GROUP: u64 = 16;
        /// The share of consecutive steps that go back by less than a group.
        fn in_order<V>(table: &KeyMap<V>, mask: u64) -> f64 {
            let slots: Vec<u64> = table.keys().map(|k| mix64(k.0) & mask).collect();
            let ok = slots.windows(2).filter(|w| w[1] + GROUP > w[0]).count();
            ok as f64 / (slots.len() - 1) as f64
        }
        fn check<V>(table: &KeyMap<V>, buckets: u64, what: &str) {
            let mask = slot_mask(table);
            assert_eq!(mask + 1, buckets, "{what}: capacity {}", table.capacity());
            let own = in_order(table, mask);
            assert!(own >= 0.99, "{what}: {own:.4} of steps in slot order");
            let wide = in_order(table, 2 * mask + 1);
            assert!(
                wide < 0.9,
                "{what}: {wide:.4} in order under twice the buckets"
            );
        }
        for bits in 10..=16 {
            let buckets = 1u64 << bits;
            for load in [0.45, 0.6] {
                let mut table: KeyMap<(f64, u32)> = KeyMap::default();
                for k in 0..(buckets as f64 * load) as u64 {
                    table.insert(Key(k), (0.0, 1));
                }
                check(&table, buckets, &format!("fresh, 2^{bits} at {load}"));
            }
            // Four batches of two in five keys of a space of half the
            // buckets hold 0.43 of them, 0.64 with the pane the next push
            // makes room for.
            let space = buckets / 2;
            let mut store =
                KeyedStateStore::new(four_by_one(), Duration::from_secs(1), ReduceOp::Sum, 1);
            for i in 0..24u64 {
                let entries: Vec<(u64, f64)> = (0..space)
                    .filter(|&k| mix64(k ^ (i << 40)) % 5 < 2)
                    .map(|k| (k, 1.0))
                    .collect();
                store.push(&out(&entries));
            }
            let table = &store.shards()[0].running;
            let what = format!("churned, 2^{bits}");
            assert!(
                table.capacity() < (buckets * 7 / 8) as usize,
                "{what}: no tombstone"
            );
            check(table, buckets, &what);
        }
    }

    /// The store's half of the window's residue test: a tumbling 2-batch
    /// Sum's second window is the fold of its own two batches.
    #[test]
    fn tumbling_sum_carries_no_residue_of_the_window_before() {
        let spec = WindowSpec::tumbling(Duration::from_secs(2));
        let mut store = KeyedStateStore::new(spec, Duration::from_secs(1), ReduceOp::Sum, 2);
        assert!(store.push(&out(&[(7, 1e20), (8, 0.1)])).is_none());
        assert!(store.push(&out(&[(8, 0.2)])).is_some());
        assert!(store.push(&out(&[(7, 1.0), (8, 0.3)])).is_none());
        let second = store
            .push(&out(&[(8, 0.4)]))
            .expect("the second window closes");
        assert_eq!(second.last_batch_seq, 3);
        assert_eq!(second.aggregates.len(), 2);
        assert_eq!(second.aggregates[&Key(7)].to_bits(), 1.0f64.to_bits());
        assert_eq!(
            second.aggregates[&Key(8)].to_bits(),
            (0.3f64 + 0.4).to_bits()
        );
        // The emitted window stays readable until the next push.
        assert_eq!(store.session_counts()[&Key(8)], 2.0);
        assert_eq!(store.session_counts()[&Key(7)], 1.0);
    }

    /// A snapshot taken at every point of a tumbling window — mid-window and
    /// at each boundary — restores to a store that goes on exactly as the
    /// live one: the same emissions, bit for bit, and the same session
    /// counts at each emission.
    #[test]
    fn a_tumbling_snapshot_restores_and_continues_bit_identically() {
        let inputs = batches(10, 9);
        for len in 1..=3 {
            let spec = WindowSpec::tumbling(Duration::from_secs(len));
            for op in [ReduceOp::Sum, ReduceOp::Max] {
                for at in 0..inputs.len() {
                    let mut live = KeyedStateStore::new(spec, Duration::from_secs(1), op, 3);
                    for b in &inputs[..at] {
                        live.push(b);
                    }
                    let mut w = ByteWriter::new();
                    put_store(&mut w, &live);
                    let mut back = get_store(&mut ByteReader::new(w.as_bytes())).unwrap();
                    assert!(back.tracks_its_panes());
                    for b in &inputs[at..] {
                        let what = format!("len {len} {op:?} snapshot after {at}");
                        let expect = live.push(b);
                        let got = back.push(b);
                        if expect.is_some() {
                            let sessions = StatefulOp::SessionCount;
                            assert_same_answer(&sessions.eval(&live), &sessions.eval(&back), &what);
                        }
                        assert_same_emission(expect, got, &what);
                    }
                }
            }
        }
    }

    /// A tumbling store's snapshot holds the open window's panes or the last
    /// `min(seq, length)`: a pane count that is neither is malformed.
    #[test]
    fn a_tumbling_pane_count_of_neither_layout_is_refused() {
        let spec = WindowSpec::tumbling(Duration::from_secs(3));
        let mut store = KeyedStateStore::new(spec, Duration::from_secs(1), ReduceOp::Sum, 2);
        for b in batches(4, 5) {
            store.push(&b);
        }
        let mut w = ByteWriter::new();
        put_store(&mut w, &store);
        let mut bytes = w.into_bytes();
        assert!(get_store(&mut ByteReader::new(&bytes)).is_ok());
        // One pane held, as `since_emit` 1 says; claim 2.
        bytes[17..21].copy_from_slice(&2u32.to_le_bytes());
        assert!(matches!(
            get_store(&mut ByteReader::new(&bytes)),
            Err(CodecError::Malformed(_))
        ));
    }

    /// A tumbling store snapshotted mid-window by a writer that evicted its
    /// panes one by one — holding the older window's panes, with their
    /// contributions in the running map — finishes that window as that
    /// writer would: a sliding store of the same length holds exactly that
    /// state, and answers the window's last batch alike. The next window is
    /// a fold of its own batches again.
    #[test]
    fn a_mid_window_snapshot_that_kept_the_older_panes_finishes_its_window() {
        let inputs = batches(9, 7);
        let len = 3usize;
        let tumbling = WindowSpec::tumbling(Duration::from_secs(len as u64));
        let one_by_one =
            WindowSpec::sliding(Duration::from_secs(len as u64), Duration::from_secs(1));
        for at in (len + 1)..(2 * len) {
            let mut evicting =
                KeyedStateStore::new(one_by_one, Duration::from_secs(1), ReduceOp::Sum, 2);
            for b in &inputs[..at] {
                evicting.push(b);
            }
            // The same bytes with the tumbling geometry and its position in
            // the window: what a store that kept the older panes wrote.
            let mut w = ByteWriter::new();
            put_store(&mut w, &evicting);
            let mut bytes = w.into_bytes();
            bytes[5..9].copy_from_slice(&(len as u32).to_le_bytes());
            bytes[17..21].copy_from_slice(&((at % len) as u32).to_le_bytes());
            let mut back = get_store(&mut ByteReader::new(&bytes)).unwrap();
            assert!(back.tracks_its_panes());
            let mut fresh = WindowState::new(tumbling, Duration::from_secs(1), ReduceOp::Sum);
            for b in &inputs[..at] {
                fresh.push(b.clone());
            }
            for (i, b) in inputs.iter().enumerate().skip(at) {
                let got = back.push(b);
                let expect_evicting = evicting.push(b);
                let expect_fresh = fresh.push(b.clone());
                let what = format!("snapshot after {at}, batch {i}");
                if i < 2 * len {
                    // Still the restored window: the evicting writer's answer.
                    assert_eq!(got.is_some(), i == 2 * len - 1, "{what}");
                    if got.is_some() {
                        assert_same_emission(expect_evicting, got, &what);
                    }
                } else {
                    assert_same_emission(expect_fresh, got, &what);
                }
            }
        }
    }

    #[test]
    fn store_round_trips_through_codec() {
        let mut store = KeyedStateStore::new(spec(), Duration::from_secs(1), ReduceOp::Sum, 5);
        for b in batches(7, 11) {
            store.push(&b);
        }
        let mut w = ByteWriter::new();
        put_store(&mut w, &store);
        assert_eq!(w.len(), store.encoded_len());
        let mut r = ByteReader::new(w.as_bytes());
        let back = get_store(&mut r).unwrap();
        r.expect_empty().unwrap();
        assert_eq!(back.seq(), store.seq());
        assert_eq!(back.shard_count(), store.shard_count());
        let a = store.current();
        let b = back.current();
        assert_eq!(a.len(), b.len());
        for (k, v) in &a {
            assert_eq!(v.to_bits(), b[k].to_bits());
        }
        // And the decoded store keeps evolving identically.
        let extra = out(&[(3, 1.25), (100, -2.5)]);
        let mut s1 = store.clone();
        let mut s2 = back;
        assert_eq!(
            s1.push(&extra).map(|r| r.last_batch_seq),
            s2.push(&extra).map(|r| r.last_batch_seq)
        );
    }

    #[test]
    fn session_counts_track_pane_membership() {
        let mut store = KeyedStateStore::new(
            WindowSpec::sliding(Duration::from_secs(3), Duration::from_secs(1)),
            Duration::from_secs(1),
            ReduceOp::Max,
            2,
        );
        store.push(&out(&[(1, 5.0)]));
        store.push(&out(&[(1, 5.0), (2, 1.0)]));
        store.push(&out(&[(2, 1.0)]));
        let counts = store.session_counts();
        assert_eq!(counts[&Key(1)], 2.0);
        assert_eq!(counts[&Key(2)], 2.0);
        // Window length 3: the first batch evicts on the fourth push.
        store.push(&out(&[]));
        let counts = store.session_counts();
        assert_eq!(counts[&Key(1)], 1.0);
    }

    #[test]
    fn group_slices_partition_the_store() {
        let mut store = KeyedStateStore::new(spec(), Duration::from_secs(1), ReduceOp::Sum, 3);
        for b in batches(6, 20) {
            store.push(&b);
        }
        // Every entry belongs to exactly one group: the slices' sizes sum to
        // what the snapshot codec writes for the store's entries — its
        // encoding less the store header (25 B) and, per shard, the bucket id
        // and the running / pane-count / per-pane length prefixes.
        let bytes = store.group_bytes(8);
        assert_eq!(bytes.len(), 8);
        let shards = store.shards();
        let framing: usize = shards.iter().map(|s| 12 + 4 * s.panes.len()).sum();
        let entries = store.encoded_len() - 25 - framing;
        assert!(entries > 0);
        assert_eq!(bytes.iter().sum::<u64>(), entries as u64);
        // A group's slice is its keys' entries, not an even share.
        let of_group_0 = |k: &Key| crate::rebalance::group_of(*k, 8) == 0;
        let running_0 = shards
            .iter()
            .flat_map(|s| s.running.keys())
            .filter(|k| of_group_0(k))
            .count();
        let paned_0 = shards
            .iter()
            .flat_map(|s| s.panes.iter().flat_map(|p| p.iter()))
            .filter(|(k, _)| of_group_0(k))
            .count();
        assert_eq!(bytes[0], (20 * running_0 + 16 * paned_0) as u64);
    }

    #[test]
    fn keys_land_on_their_hashed_shard() {
        let store = KeyedStateStore::new(spec(), Duration::from_secs(1), ReduceOp::Sum, 7);
        for k in 0..100 {
            let s = store.shard_of(Key(k));
            assert!(s < 7);
            assert_eq!(s, bucket_of(STATE_SHARD_SEED, Key(k), 7));
        }
    }
}
