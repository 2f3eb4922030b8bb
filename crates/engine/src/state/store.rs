//! The sharded keyed state store.
//!
//! [`KeyedStateStore`] holds the same windowed query state as
//! [`crate::window::WindowState`], but split into per-bucket shards.
//! Bit-identity with the serial window is load-bearing: every per-key
//! floating-point operation happens in exactly the order `WindowState::push`
//! would perform it, so a run that checkpoints produces the same window
//! results, bit for bit, as one that does not — at any shard count.
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
use prompt_core::hash::{bucket_of, KeyMap};
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
}

impl Clone for StateShard {
    fn clone(&self) -> StateShard {
        StateShard {
            bucket: self.bucket,
            running: self.running.clone(),
            panes: self.panes.clone(),
        }
    }

    /// Into the allocations `self` already holds: what makes a frozen copy
    /// refreshed every snapshot cheap (the panes are shared, the running map
    /// is copied into its existing table).
    fn clone_from(&mut self, source: &StateShard) {
        self.bucket = source.bucket;
        self.running.clone_from(&source.running);
        self.panes.clone_from(&source.panes);
    }
}

impl StateShard {
    fn empty(bucket: u32) -> StateShard {
        StateShard {
            bucket,
            running: KeyMap::default(),
            panes: VecDeque::new(),
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
    /// The sort of each new pane, kept across pushes.
    radix: RadixSort<(Key, f64)>,
}

impl Clone for KeyedStateStore {
    fn clone(&self) -> KeyedStateStore {
        KeyedStateStore {
            shards: self.shards.clone(),
            radix: RadixSort::default(),
            ..*self
        }
    }

    /// Shard by shard into the copy's existing allocations (see
    /// [`StateShard::clone_from`]).
    fn clone_from(&mut self, source: &KeyedStateStore) {
        self.shards.clone_from(&source.shards);
        *self = KeyedStateStore {
            shards: std::mem::take(&mut self.shards),
            radix: std::mem::take(&mut self.radix),
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
            radix: RadixSort::default(),
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
        // Sized up front, since a pane grown from empty reallocates at every
        // doubling: a shard's key count is binomial about `n / r`, so four
        // standard deviations (≈ √(n / r)) above it hold every pane but a
        // rare one, which then grows once.
        let mean = out.aggregates.len() / r;
        let cap = mean + 4 * mean.isqrt() + 16;
        let mut split: Vec<Pane> = (0..r).map(|_| Pane::with_capacity(cap)).collect();
        for (&k, &v) in &out.aggregates {
            split[bucket_of(STATE_SHARD_SEED, k, r)].push((k, v));
        }
        let split: Vec<Arc<Pane>> = split
            .into_iter()
            .map(|mut entries| {
                self.radix.sort(&mut entries, |&(k, _)| k.0);
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

    /// The shard-wise mirror of `WindowState::push`: merge each shard's
    /// entries into its running state in sorted-key order, append the pane,
    /// evict the batch leaving the window.
    fn apply_panes(&mut self, split: Vec<Arc<Pane>>) -> Option<WindowResult> {
        let op = self.op;
        let invertible = op.invertible();
        let len_batches = self.len_batches;
        for (shard, entries) in self.shards.iter_mut().zip(split) {
            if invertible {
                for &(k, v) in entries.iter() {
                    let e = shard.running.entry(k).or_insert((0.0, 0));
                    e.0 = if e.1 == 0 { v } else { op.merge(e.0, v) };
                    e.1 += 1;
                }
            }
            shard.panes.push_back(entries);
            if shard.panes.len() > len_batches {
                let old = shard.panes.pop_front().expect("pane non-empty");
                if invertible {
                    for &(k, v) in old.iter() {
                        let e = shard.running.get_mut(&k).expect("evicted key tracked");
                        e.1 -= 1;
                        if e.1 == 0 {
                            shard.running.remove(&k);
                        } else {
                            e.0 = op.invert(e.0, v);
                        }
                    }
                }
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
    /// keys.
    pub fn current(&self) -> KeyMap<f64> {
        let op = self.op;
        let mut acc: KeyMap<f64> = KeyMap::default();
        if op.invertible() {
            acc.reserve(self.shards.iter().map(|s| s.running.len()).sum());
            for shard in &self.shards {
                for (&k, &(v, _)) in &shard.running {
                    acc.insert(k, v);
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
    // so pane indices align across shards.
    let n_panes = seq.min(len_batches as u64) as usize;
    let mut shards = Vec::with_capacity(n_shards);
    for i in 0..n_shards {
        let shard = get_shard(r)?;
        if shard.bucket != i as u32 {
            return Err(CodecError::Malformed("shard buckets out of order"));
        }
        if shard.panes.len() != n_panes {
            return Err(CodecError::Malformed(
                "shard pane count is not min(seq, window length)",
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
        radix: RadixSort::default(),
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

    #[test]
    fn store_matches_window_state_bit_for_bit() {
        for op in [ReduceOp::Sum, ReduceOp::Count, ReduceOp::Max, ReduceOp::Min] {
            let mut window = WindowState::new(spec(), Duration::from_secs(1), op);
            let mut store = KeyedStateStore::new(spec(), Duration::from_secs(1), op, 4);
            for b in batches(12, 9) {
                let expect = window.push(b.clone());
                let got = store.push(&b);
                match (expect, got) {
                    (None, None) => {}
                    (Some(e), Some(g)) => {
                        assert_eq!(e.last_batch_seq, g.last_batch_seq);
                        assert_eq!(e.aggregates.len(), g.aggregates.len(), "{op:?}");
                        for (k, v) in &e.aggregates {
                            assert_eq!(
                                v.to_bits(),
                                g.aggregates[k].to_bits(),
                                "{op:?} key {k:?} differs"
                            );
                        }
                    }
                    (e, g) => panic!("emission mismatch: {e:?} vs {g:?}"),
                }
            }
        }
    }

    #[test]
    fn delta_replay_reproduces_push() {
        let mut live = KeyedStateStore::new(spec(), Duration::from_secs(1), ReduceOp::Sum, 3);
        let mut replayed = live.clone();
        for b in batches(10, 7) {
            let (_, delta) = live.push_with_delta(&b);
            replayed.apply_delta(&delta);
        }
        let a = live.current();
        let b = replayed.current();
        assert_eq!(a.len(), b.len());
        for (k, v) in &a {
            assert_eq!(v.to_bits(), b[k].to_bits());
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
