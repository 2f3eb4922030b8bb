//! Micro-batch buffering: what Algorithm 1 (§4.1) hands Algorithm 2 at the
//! heartbeat — the batch's tuples grouped by key, most frequent key first.
//!
//! Two accumulators produce that list from the same arrivals:
//!
//! * [`PostSortAccumulator`] — **what the engine runs** (`Technique::Prompt`).
//!   During the interval it keeps one exact counter per key and nothing else;
//!   at the heartbeat it sorts the keys once by `(count desc, key asc)`, with
//!   a stable radix sort it keeps ([`crate::sort`]). The order is exact and
//!   canonical — a function of the batch's key counts alone.
//! * [`FrequencyAwareAccumulator`] — **the paper's Algorithm 1**, kept for
//!   fidelity (`Technique::PromptCountTree`, Fig. 14, the ablations). Beside
//!   the counters it maintains a [`CountTree`] of approximate key
//!   frequencies. Updating the tree for *every* tuple would thrash it, so
//!   each key is granted a per-batch `budget` of tree updates, triggered
//!   either by a frequency step (`f.step` new tuples of the key) or a time
//!   step (`t.step` elapsed since the key's last update, so rare keys still
//!   get refreshed). At the heartbeat an in-order traversal yields the keys
//!   in quasi-descending frequency order with no sorting step.
//!
//! The engine runs one of them, serially, per batch: the batching phase has
//! no shards. [`ShardedAccumulator`] splits the budgeted one by key hash for
//! callers that time a parallel Algorithm 1 by hand.
//!
//! The paper's argument for the tree is that the sort would sit inside the
//! processing window (Fig. 14a). Measured on this implementation the whole
//! order — the keys collected, sorted and their groups laid out — is
//! ≈ 3 ms for the ≈ 62k distinct keys of a 500k-tuple Zipf batch,
//! while the tree's upkeep is ≈ 40 ms of ingest; EXPERIMENTS.md, "Algorithm 1
//! without the tree", has the table and says where the trade turns.
//!
//! ## Layout
//!
//! Both accumulators share one index from each key to its slot and its exact
//! count (the paper's `HTable` with `Freq_Current`; the budgeted one keeps
//! the rest of each key's entry in a dense vector by slot), and keep no copy
//! of the batch: per arrival they record only its key's slot and its
//! position in the slice the scatter reads (`ArrivalSlots`). The engine hands
//! its batch over as a slice, so the tuples stay where it keeps them; callers
//! that pass tuples one at a time have them held in one buffer instead. The
//! index (`KeyIndex`) is an open-addressing table of 16-byte entries — key,
//! `slot + 1` (0 marks an empty entry) and count — probed linearly from the
//! home entry `mix64(key) & mask`, at most half full, and cleared at every
//! seal with its capacity kept, so a steady stream of batches allocates none.
//!
//! The heartbeat has two halves. *Order* sorts the keys as `(count, key,
//! slot)` — one radix sort, or the count tree's walk — and lays their
//! groups out from counts alone. *Scatter* writes each
//! arrival once, from the slice to the next free position of its key's
//! destination: a slice, then further slices in turn, one table entry per
//! slot. The arena seal ([`BatchAccumulator::seal_into`] and its kin) gives
//! every group its range of one arena, which the [`SealedBatch`] groups then
//! index. The Prompt partitioner's row path runs the same two halves as
//! record → order → assign → scatter: Algorithm 2 assigns pieces between
//! them, and each key's destination is its pieces' slices of their blocks,
//! so no arena is filled. Nothing is allocated per key.
//!
//! The two per-arrival loops, record and scatter, wait on memory, not on
//! instructions: a probe into an index of ≈ 2 MB for a batch's 62k keys, and
//! a write to one of as many destinations. So each loop looks ahead, and
//! hints the hardware to fetch what a later arrival will touch while it
//! works on this one, and the misses overlap instead of queuing. The record
//! loops (the serial one, and each shard's walk of its runs in
//! [`ShardedAccumulator::par_ingest`]) fetch the home entry of the key
//! `RECORD_AHEAD` arrivals on; the scatter fetches the destination-table
//! entry of the arrival 2 · `SCATTER_AHEAD` on, and then, `SCATTER_AHEAD`
//! arrivals on, the position that entry points to.

mod count_tree;
mod sharded;

pub use count_tree::CountTree;
pub use sharded::ShardedAccumulator;

use std::slice::IterMut;

use crate::batch::{KeyGroup, SealedBatch};
use crate::columnar::ColumnarSealed;
use crate::hash::mix64;
use crate::sort::RadixSort;
use crate::types::{Duration, Interval, Key, Time, Tuple};

/// Why a batch's arrival positions are `u32`: the bound every entry point
/// that numbers arrivals asserts.
const POSITIONS_FIT: &str = "arrival positions per batch fit in u32";

/// Tuning parameters for Algorithm 1.
#[derive(Clone, Copy, Debug)]
pub struct AccumulatorConfig {
    /// Maximum `CountTree` updates allowed per key per batch ("budget").
    pub budget: u32,
    /// `N_Est`: estimated tuples per batch (from recent data rate × interval).
    pub est_tuples: f64,
    /// `K_Avg`: average distinct keys over recent batches.
    pub avg_keys: f64,
}

impl Default for AccumulatorConfig {
    fn default() -> Self {
        AccumulatorConfig {
            budget: 8,
            est_tuples: 100_000.0,
            avg_keys: 1_000.0,
        }
    }
}

impl AccumulatorConfig {
    /// The initial frequency step `f = N_Est / (K_Avg · budget)`: the best
    /// step assuming a uniform key distribution (§4.1).
    pub fn initial_f_step(&self) -> u64 {
        let f = self.est_tuples / (self.avg_keys.max(1.0) * self.budget.max(1) as f64);
        (f.round() as u64).max(1)
    }
}

/// How many arrivals ahead the record loops prefetch a key's home entry. A
/// probe that misses waits on memory for far longer than one arrival's few
/// ns of work, so the hint must go out several arrivals early, yet not so
/// early that the line is evicted again before its arrival comes. On a
/// 500k-tuple Zipf batch (62k keys, a 2 MB index), on a 2-vCPU x86_64 Xeon
/// with 2 MiB of L2 per core, the record loop ran fastest at 16, against 4,
/// 8, 32 and 64, in alternating runs.
const RECORD_AHEAD: usize = 16;

/// How many arrivals ahead the scatter prefetches: twice this for a key's
/// destination-table entry, once for the position that entry points to.
/// The second hint reads the entry the first one fetched, so the first must
/// go out earlier. On the same batch 4, 8 and 16 were within run-to-run
/// noise of each other, in alternating runs.
const SCATTER_AHEAD: usize = 8;

/// Hint the hardware to load the cache line holding `p` into every cache
/// level, so a later access finds it there. Nothing is read: `p` may point
/// anywhere, even out of bounds, so callers compute it with `wrapping_add`.
/// On targets without the hint it does nothing.
#[inline(always)]
fn prefetch<T>(p: *const T) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: a prefetch is only a hint to the cache: it reads nothing the
    // program observes and never faults, whatever address it is given, and
    // `_mm_prefetch` needs only SSE, which is in the x86_64 baseline.
    unsafe {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        _mm_prefetch::<_MM_HINT_T0>(p.cast::<i8>());
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = p;
}

/// One entry of [`KeyIndex`]: 16 bytes, four to a cache line.
#[derive(Clone, Copy, Debug)]
struct IndexEntry {
    key: Key,
    /// The key's slot + 1; 0 marks an empty entry, so key 0 needs no
    /// sentinel of its own.
    slot_1: u32,
    /// The key's exact count so far.
    count: u32,
}

impl IndexEntry {
    const EMPTY: IndexEntry = IndexEntry {
        key: Key(0),
        slot_1: 0,
        count: 0,
    };
}

/// The `HTable`: each key of the batch to its slot (dense, in first-sighting
/// order) and its exact count. Open addressing with linear probing from the
/// home entry `mix64(key) & mask`, at most half full, so a probe usually
/// reads one line, and [`KeyIndex::prefetch`] can fetch that line ahead of
/// the probe. [`KeyIndex::clear`] keeps the capacity for the next batch.
#[derive(Clone, Debug, Default)]
struct KeyIndex {
    /// A power of two in length, or empty before the first key.
    entries: Vec<IndexEntry>,
    len: usize,
}

impl KeyIndex {
    /// The capacity of the first table: grown past 512 keys, then doubled
    /// each time the keys pass half of it.
    const FIRST_CAPACITY: usize = 1024;

    #[inline]
    fn home(&self, key: Key) -> usize {
        mix64(key.0) as usize & (self.entries.len() - 1)
    }

    /// Start loading `key`'s home entry into the cache.
    #[inline]
    fn prefetch(&self, key: Key) {
        if !self.entries.is_empty() {
            prefetch(self.entries.as_ptr().wrapping_add(self.home(key)));
        }
    }

    /// Count one arrival of `key`: its slot and its count, this arrival
    /// included. A key not seen before takes the next slot.
    #[inline]
    fn record(&mut self, key: Key) -> (u32, u32) {
        if 2 * (self.len + 1) > self.entries.len() {
            self.grow();
        }
        let mask = self.entries.len() - 1;
        let mut i = self.home(key);
        loop {
            let entry = &mut self.entries[i];
            if entry.slot_1 == 0 {
                let slot_1 =
                    u32::try_from(self.len + 1).expect("distinct keys per batch fit in u32");
                *entry = IndexEntry {
                    key,
                    slot_1,
                    count: 1,
                };
                self.len += 1;
                return (slot_1 - 1, 1);
            }
            if entry.key == key {
                entry.count += 1;
                return (entry.slot_1 - 1, entry.count);
            }
            i = (i + 1) & mask;
        }
    }

    /// `key`'s slot and count, if it arrived.
    fn get(&self, key: Key) -> Option<(u32, u32)> {
        if self.entries.is_empty() {
            return None;
        }
        let mask = self.entries.len() - 1;
        let mut i = self.home(key);
        loop {
            let entry = self.entries[i];
            if entry.slot_1 == 0 {
                return None;
            }
            if entry.key == key {
                return Some((entry.slot_1 - 1, entry.count));
            }
            i = (i + 1) & mask;
        }
    }

    /// Append every key as `(count, key, slot)` to `out`, in table order.
    /// Every entry is stored and only an occupied one kept, so the walk has
    /// no branch to mispredict on a table about half full.
    fn keys_into(&self, out: &mut Vec<OrderEntry>) {
        let start = out.len();
        out.resize(start + self.len + 1, (0, Key(0), 0));
        let mut at = start;
        for e in &self.entries {
            out[at] = (e.count, e.key, e.slot_1.wrapping_sub(1));
            at += usize::from(e.slot_1 != 0);
        }
        debug_assert_eq!(at - start, self.len, "the index miscounts its keys");
        out.truncate(start + self.len);
    }

    #[inline]
    fn len(&self) -> usize {
        self.len
    }

    /// Double the table (or make the first one) and re-home every entry;
    /// slots and counts move with their keys.
    #[cold]
    fn grow(&mut self) {
        let capacity = (2 * self.entries.len()).max(Self::FIRST_CAPACITY);
        let old = std::mem::replace(&mut self.entries, vec![IndexEntry::EMPTY; capacity]);
        let mask = capacity - 1;
        for entry in old.into_iter().filter(|e| e.slot_1 != 0) {
            let mut i = self.home(entry.key);
            while self.entries[i].slot_1 != 0 {
                i = (i + 1) & mask;
            }
            self.entries[i] = entry;
        }
    }

    /// Forget every key, keeping the table's capacity.
    fn clear(&mut self) {
        if self.len > 0 {
            self.entries.fill(IndexEntry::EMPTY);
            self.len = 0;
        }
    }
}

/// What a batch leaves in an accumulator until the heartbeat: an index from
/// each key to its slot (slots are dense, in first-sighting order) and its
/// exact count, and, per arrival in arrival order, its position in the slice
/// the seal reads and its key's slot. Tuples are kept only for callers that
/// hand them over one at a time.
#[derive(Clone, Debug, Default)]
struct ArrivalSlots {
    index: KeyIndex,
    /// `(position, slot)` of every arrival, in arrival order.
    marks: Vec<(u32, u32)>,
    /// The tuples [`BatchAccumulator::ingest`] was handed, which a seal given
    /// no slice reads. The slice seal leaves it empty.
    held: Vec<Tuple>,
    /// Seal scratch: every key with its count and slot, in seal order.
    order: Vec<OrderEntry>,
}

impl ArrivalSlots {
    /// Record an arrival of `key` that the seal reads at position `at`.
    /// Returns its key's slot and its count so far, this arrival included.
    #[inline]
    fn record(&mut self, at: u32, key: Key) -> (usize, u32) {
        let (slot, count) = self.index.record(key);
        self.marks.push((at, slot));
        (slot as usize, count)
    }

    /// Hold `t` for the seal; returns its position among the held tuples.
    #[inline]
    fn hold(&mut self, t: Tuple) -> u32 {
        let at = u32::try_from(self.held.len()).expect(POSITIONS_FIT);
        self.held.push(t);
        at
    }

    #[inline]
    fn n_tuples(&self) -> usize {
        self.marks.len()
    }

    #[inline]
    fn n_keys(&self) -> usize {
        self.index.len()
    }

    /// The heartbeat's first half, once `order` holds every key of the batch
    /// with its exact count and its slot, in seal order: lay the key groups
    /// out back to back from index `base` of the batch's whole arena,
    /// appending them to `groups`, and each group's slot to `slots`.
    fn order_into(&self, base: usize, groups: &mut Vec<KeyGroup>, slots: &mut Vec<u32>) {
        debug_assert_eq!(self.order.len(), self.index.len(), "order misses keys");
        let mut offset = base;
        groups.extend(self.order.iter().map(|&(count, key, _)| {
            let group = KeyGroup {
                key,
                count: count as usize,
                offset,
            };
            offset += group.count;
            group
        }));
        slots.extend(self.order.iter().map(|&(_, _, slot)| slot));
        debug_assert_eq!(offset - base, self.marks.len(), "counts miss tuples");
    }

    /// The heartbeat's second half, the one scatter loop: write every
    /// arrival, read at its position in `arrivals` (the held tuples when
    /// `None`), to the front of its key's destination `heads[slot]`, which
    /// moves on to the next slice of `more[slot]` once full (`more` is empty
    /// when no key has a second slice) — the whole tuple into an arena, its
    /// value alone into a block ([`Lane`]). Each group keeps arrival order
    /// and every destination is filled. Then forget the batch, keeping every
    /// allocation for the next one.
    fn scatter_to<'a, T: Lane>(
        &mut self,
        arrivals: Option<&[Tuple]>,
        heads: &mut Heads<'a, T>,
        more: &mut More<'a, '_, T>,
    ) {
        assert_eq!(heads.len(), self.index.len(), "one destination per key");
        let arrivals = arrivals.unwrap_or(&self.held);
        let marks = &self.marks;
        for (i, &(at, slot)) in marks.iter().enumerate() {
            // Two steps of look-ahead: the destination-table entry first,
            // then, once it has had time to arrive, the position it points to.
            if let Some(&(_, later)) = marks.get(i + 2 * SCATTER_AHEAD) {
                prefetch(heads.as_ptr().wrapping_add(later as usize));
            }
            if let Some(&(_, soon)) = marks.get(i + SCATTER_AHEAD) {
                prefetch(heads[soon as usize].as_slice().as_ptr());
            }
            // The tuple is read only once its destination is known: held
            // across the cold call, it would be spilled on every arrival.
            let head = &mut heads[slot as usize];
            let to = match head.next() {
                Some(to) => to,
                None => next_slice(head, more.get_mut(slot as usize)),
            };
            *to = T::of(&arrivals[at as usize]);
        }
        // A slot left short would leave stale tuples in a recycled block.
        assert!(
            heads.iter().all(|h| h.len() == 0) && more.iter().all(|m| m.is_empty()),
            "a destination was not filled"
        );
        self.forget();
    }

    /// Forget the batch, keeping every allocation for the next one.
    fn forget(&mut self) {
        self.index.clear();
        self.marks.clear();
        self.held.clear();
        self.order.clear();
    }
}

/// One key of a batch at the heartbeat: `(count, key, slot)`.
type OrderEntry = (u32, Key, u32);

/// The shard a group of slot `slot` is in, of `shards` as [`carve_groups`]
/// takes them: the last whose first slot is not past it. A shard with no
/// keys shares its first slot with the next and is never the last such.
/// Counted, not searched: in seal order a group's shard is as good as
/// random, and a search would mispredict a branch on most groups.
#[inline]
fn shard_of_slot(shards: &[(u32, usize)], slot: u32) -> usize {
    (shards[1..].iter())
        .map(|&(first, _)| usize::from(first <= slot))
        .sum()
}

/// Lay the ordered `groups`, whose slots are `slots`, over the arena cut
/// into one slice per shard of `shards` (`arena`, each exactly its shard's
/// tuples; `shards` holds each shard's first slot, ascending from 0): each
/// group takes the front of what is left of its shard's slice, which is the
/// range its shard's order laid it out in — a shard's groups lie back to
/// back in its slice, in seal order — and that range becomes the
/// destination `heads[slot]`.
pub(crate) fn carve_groups<'a>(
    groups: &[KeyGroup],
    slots: &[u32],
    arena: &mut [&'a mut [Tuple]],
    shards: &[(u32, usize)],
    heads: &mut Heads<'a, Tuple>,
) {
    for (g, &slot) in groups.iter().zip(slots) {
        let s = shard_of_slot(shards, slot);
        let (mine, rest) = std::mem::take(&mut arena[s]).split_at_mut(g.count);
        heads[slot as usize] = mine.iter_mut();
        arena[s] = rest;
    }
    assert!(
        arena.iter().all(|rest| rest.is_empty()),
        "arena slice is not the batch's size"
    );
}

/// Move a key's full destination on to the first of its remaining slices,
/// and take that slice's first position.
#[cold]
fn next_slice<'a, T>(
    head: &mut IterMut<'a, T>,
    more: Option<&mut &mut [IterMut<'a, T>]>,
) -> &'a mut T {
    const FULL: &str = "more arrivals than the key's destination holds";
    let more = more.expect(FULL);
    let (next, rest) = std::mem::take(more).split_first_mut().expect(FULL);
    (*head, *more) = (std::mem::take(next), rest);
    head.next().expect("destination slices are never empty")
}

/// `v`'s allocation, emptied, as a vector of another element type of the
/// same layout: a collect over the emptied vector reuses its buffer in place.
/// This is how a destination table, which borrows one batch's buffers,
/// keeps its own allocation for the next batch.
pub(crate) fn relabel<T, U>(mut v: Vec<T>) -> Vec<U> {
    v.clear();
    v.into_iter()
        .map(|_| unreachable!("the vector is empty"))
        .collect()
}

/// What the scatter writes of an arrival: the whole tuple into a sealed
/// arena, or its value alone into a data block — after the seal a tuple is
/// its value, its key being its destination's.
pub(crate) trait Lane: Copy + Send {
    /// The part of `t` a destination of this lane holds.
    fn of(t: &Tuple) -> Self;
}

impl Lane for Tuple {
    #[inline(always)]
    fn of(t: &Tuple) -> Tuple {
        *t
    }
}

impl Lane for f64 {
    #[inline(always)]
    fn of(t: &Tuple) -> f64 {
        t.value
    }
}

/// The scatter's destination tables and the seal's group-to-slot table,
/// kept from batch to batch: a key's destination is `heads[slot]`, then each
/// slice of `more[slot]` in turn. Between batches `heads` and `more` are
/// empty; a table lent for one lane keeps its allocation for either.
#[derive(Debug, Default)]
pub(crate) struct ScatterTables {
    heads: Vec<IterMut<'static, Tuple>>,
    more: Vec<&'static mut [IterMut<'static, Tuple>]>,
    pub(crate) slots: Vec<u32>,
}

/// Every key's current destination slice, as the positions left in it.
pub(crate) type Heads<'a, T> = [IterMut<'a, T>];
/// Every key's later destination slices, in order.
pub(crate) type More<'a, 'b, T> = [&'b mut [IterMut<'a, T>]];

impl ScatterTables {
    /// `n` empty destinations and, when `chained`, `n` empty lists of later
    /// slices (else none), in the kept allocations.
    pub(crate) fn lend<'a, 'b, T>(
        &mut self,
        n: usize,
        chained: bool,
    ) -> (Vec<IterMut<'a, T>>, Vec<&'b mut [IterMut<'a, T>]>) {
        let mut heads = relabel(std::mem::take(&mut self.heads));
        let mut more = relabel(std::mem::take(&mut self.more));
        heads.resize_with(n, Default::default);
        more.resize_with(if chained { n } else { 0 }, Default::default);
        (heads, more)
    }

    /// Keep the tables' allocations.
    pub(crate) fn keep<T>(&mut self, heads: Vec<IterMut<'_, T>>, more: Vec<&mut [IterMut<'_, T>]>) {
        self.heads = relabel(heads);
        self.more = relabel(more);
    }
}

/// Record a whole batch handed over as the caller's arrival-ordered slice:
/// the accumulator must hold no arrivals.
pub(crate) fn record_slice<A: BatchAccumulator + ?Sized>(acc: &mut A, arrivals: &[Tuple]) {
    assert!(u32::try_from(arrivals.len()).is_ok(), "{POSITIONS_FIT}");
    assert_eq!(
        acc.stats().n_tuples,
        0,
        "a slice seal starts from an empty accumulator"
    );
    acc.record_all(arrivals);
}

/// The arena seal: order the keys, lay their groups over `arena` and scatter
/// the arrivals into it, with `tables` lent for the destinations.
pub(crate) fn seal_arena<A: BatchAccumulator + ?Sized>(
    acc: &mut A,
    arrivals: Option<&[Tuple]>,
    arena: &mut [Tuple],
    base: usize,
    next_interval: Interval,
    groups: &mut Vec<KeyGroup>,
    tables: &mut ScatterTables,
) -> Interval {
    tables.slots.clear();
    let first = groups.len();
    acc.order(base, groups, &mut tables.slots);
    let (mut heads, mut more) = tables.lend(acc.stats().n_keys as usize, false);
    acc.carve(&groups[first..], &tables.slots, arena, &mut heads);
    let interval = acc.scatter(arrivals, &mut heads, &mut more, next_interval);
    tables.keep(heads, more);
    interval
}

/// Per-key bookkeeping stored in the `HTable` beside the exact count
/// (`k.Freq_Current`, kept in the shared index), indexed by slot.
#[derive(Clone, Copy, Debug)]
struct KeyEntry {
    /// `k.Freq_Updated`: frequency currently recorded in the `CountTree`.
    freq_in_tree: u64,
    /// Remaining tree-update budget for this batch.
    budget_left: u32,
    /// `k.f_step`: tuples of this key between tree updates.
    f_step: u64,
    /// `k.t_step`: elapsed time between tree updates.
    t_step: Duration,
    /// Time of the key's last tree update (or first arrival).
    last_update: Time,
}

/// Summary statistics of one accumulated batch, consumed by the elasticity
/// controller (Algorithm 4 reads data rate and key-cardinality trends).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct BatchStats {
    /// `N_C`: tuples received in the batch.
    pub n_tuples: u64,
    /// `|K|`: distinct keys received in the batch.
    pub n_keys: u64,
    /// How many `CountTree` update operations were performed (diagnostics;
    /// bounded by `n_keys × budget`).
    pub tree_updates: u64,
}

/// The record, order and scatter steps every accumulator shares, through
/// which [`ShardedAccumulator`] drives its shards and the partitioner writes
/// each arrival straight into its block. The module is private to the
/// crate, so only this crate implements [`BatchAccumulator`].
pub(crate) mod sealed {
    use super::{Heads, More};
    use crate::batch::KeyGroup;
    use crate::types::{Interval, Key, Time, Tuple};

    pub trait Slots {
        /// Record one arrival of `key` at time `ts` that the seal reads at
        /// `arrivals[at]`: its key's slot and count, and nothing else of the
        /// tuple. Only the budgeted accumulator reads `ts`.
        fn record(&mut self, at: u32, key: Key, ts: Time);

        /// Record every tuple of `arrivals` at its own index.
        fn record_all(&mut self, arrivals: &[Tuple]) {
            for (at, t) in arrivals.iter().enumerate() {
                if let Some(later) = arrivals.get(at + super::RECORD_AHEAD) {
                    self.prefetch(later.key);
                }
                self.record(at as u32, t.key, t.ts);
            }
        }

        /// Start loading what [`Slots::record`] of `key` will probe, a few
        /// arrivals before it does. Only a hint: it changes nothing.
        fn prefetch(&self, _key: Key) {}

        /// The heartbeat's first half: order the recorded keys, append
        /// their groups to `groups`, laid out from `base` as the arena seal
        /// lays them out, and each group's index in the destination table
        /// [`Slots::scatter`] takes to `slots`. Only counts are read.
        fn order(&mut self, base: usize, groups: &mut Vec<KeyGroup>, slots: &mut Vec<u32>);

        /// Lay `groups`, as [`Slots::order`] laid them out and numbered
        /// them (`slots`), over `arena`, exactly the batch's length: each
        /// group's range becomes its destination in `heads` (one per key).
        fn carve<'a>(
            &self,
            groups: &[KeyGroup],
            slots: &[u32],
            arena: &'a mut [Tuple],
            heads: &mut Heads<'a, Tuple>,
        ) {
            super::carve_groups(groups, slots, &mut [arena], &[(0, 0)], heads);
        }

        /// The heartbeat's second half: write every recorded arrival, read
        /// from `arrivals` (the held tuples when `None`), to its group's
        /// destination — `heads[slot]`, then each slice of `more[slot]` in
        /// turn, indexed as [`Slots::order`] numbered the groups; `more` is
        /// empty when no group has a second slice — filling every one; reset
        /// for `next_interval`. Returns the interval the batch was buffered
        /// over.
        fn scatter<'a>(
            &mut self,
            arrivals: Option<&[Tuple]>,
            heads: &mut Heads<'a, Tuple>,
            more: &mut More<'a, '_, Tuple>,
            next_interval: Interval,
        ) -> Interval;

        /// [`Slots::scatter`] of each arrival's value alone, into the
        /// partitioner's data blocks.
        fn scatter_values<'a>(
            &mut self,
            arrivals: &[Tuple],
            heads: &mut Heads<'a, f64>,
            more: &mut More<'a, '_, f64>,
            next_interval: Interval,
        ) -> Interval;

        /// The heartbeat with no scatter, for a plan that carries no
        /// value: forget every recorded arrival and reset for
        /// `next_interval`, as [`Slots::scatter`] does once it has written
        /// them. Returns the interval the batch was buffered over.
        fn forget(&mut self, next_interval: Interval) -> Interval;

        /// Length and capacity of the held-tuple buffers.
        #[cfg(test)]
        fn held(&self) -> (usize, usize);
    }
}

/// The common interface of batching-phase accumulators: the exact one the
/// engine runs, the paper's budgeted one, and the budgeted one sharded.
pub trait BatchAccumulator: std::fmt::Debug + Send + sealed::Slots {
    /// Ingest one tuple; `t.ts` is used as the receiver-local clock. The
    /// accumulator holds the tuple until the seal.
    fn ingest(&mut self, t: Tuple);

    /// Re-seed the expected tuple and key counts of the batch about to be
    /// ingested. Only the budgeted accumulator reads them (for its initial
    /// frequency step); exact counts have nothing to estimate.
    fn set_estimates(&mut self, _est_tuples: f64, _avg_keys: f64) {}

    /// Seal the batch: emit the key groups, most frequent first (exactly or
    /// approximately, by implementation), and reset internal state for the
    /// next interval.
    fn seal(&mut self, next_interval: Interval) -> SealedBatch {
        // What the arena holds is never read: the seal overwrites all of it.
        let filler = Tuple::keyed(Time::ZERO, Key(0));
        let mut arena = vec![filler; self.stats().n_tuples as usize];
        let mut groups = Vec::new();
        let interval = self.seal_into(&mut arena, 0, next_interval, &mut groups);
        SealedBatch::new(groups, arena, interval)
    }

    /// [`BatchAccumulator::seal`] into a caller's buffers: scatter the tuples
    /// the accumulator was handed one at a time, each once, into `arena`,
    /// exactly [`BatchStats::n_tuples`] long and overwritten whatever it
    /// holds, which starts at index `base` of the batch's whole arena, and
    /// append its groups to `groups` in seal order, offsets counted from
    /// `base`. Returns the interval the batch was buffered over; resets like
    /// `seal`.
    fn seal_into(
        &mut self,
        arena: &mut [Tuple],
        base: usize,
        next_interval: Interval,
        groups: &mut Vec<KeyGroup>,
    ) -> Interval {
        let tables = &mut ScatterTables::default();
        seal_arena(self, None, arena, base, next_interval, groups, tables)
    }

    /// Buffer a whole batch handed over as the caller's arrival-ordered
    /// slice and seal it like [`BatchAccumulator::seal_into`]. The accumulator
    /// records each arrival's slot and position only, and the scatter reads
    /// the tuples from `arrivals`: no tuple is copied before the arena. The
    /// batch equals ingesting `arrivals` one by one and sealing; the
    /// accumulator must hold no arrivals when it is called.
    fn seal_slice_into(
        &mut self,
        arrivals: &[Tuple],
        arena: &mut [Tuple],
        base: usize,
        next_interval: Interval,
        groups: &mut Vec<KeyGroup>,
    ) -> Interval {
        record_slice(self, arrivals);
        let tables = &mut ScatterTables::default();
        seal_arena(
            self,
            Some(arrivals),
            arena,
            base,
            next_interval,
            groups,
            tables,
        )
    }

    /// Move the (empty) accumulator to another batch interval, when the one
    /// given to the previous `seal` turned out not to be the next batch's.
    fn set_interval(&mut self, interval: Interval);

    /// Seal into the columnar (struct-of-arrays) layout: the same group order
    /// and per-group tuple order as [`BatchAccumulator::seal`], with the
    /// arena split into columns laid out in group order. No engine path
    /// calls it: it is kept for the benchmark's columnar seal probe and the
    /// seal-order tests.
    fn seal_columnar(&mut self, next_interval: Interval) -> ColumnarSealed {
        ColumnarSealed::from_sealed(&self.seal(next_interval))
    }

    /// Statistics of the batch accumulated so far.
    fn stats(&self) -> BatchStats;
}

/// Algorithm 1: the frequency-aware micro-batch accumulator.
///
/// One instance serves batch after batch: a seal hands the batch out and
/// keeps the index, slot and counter allocations for the next interval.
#[derive(Clone, Debug)]
pub struct FrequencyAwareAccumulator {
    cfg: AccumulatorConfig,
    interval: Interval,
    slots: ArrivalSlots,
    /// The `HTable`'s per-key update state, by slot.
    entries: Vec<KeyEntry>,
    tree: CountTree,
    tree_updates: u64,
}

impl FrequencyAwareAccumulator {
    /// Create an accumulator for the given batch interval.
    pub fn new(cfg: AccumulatorConfig, interval: Interval) -> FrequencyAwareAccumulator {
        FrequencyAwareAccumulator {
            cfg,
            interval,
            slots: ArrivalSlots::default(),
            entries: Vec::new(),
            tree: CountTree::new(),
            tree_updates: 0,
        }
    }

    /// The batch interval currently being accumulated.
    pub fn interval(&self) -> Interval {
        self.interval
    }

    /// Direct read-only access to the count tree (tests, diagnostics).
    pub fn tree(&self) -> &CountTree {
        &self.tree
    }

    /// After the scatter: clear the `HTable` and the `CountTree`, as every
    /// heartbeat does (§4.1), and move on to `next_interval`.
    fn reset(&mut self, next_interval: Interval) -> Interval {
        self.entries.clear();
        self.tree.clear();
        self.tree_updates = 0;
        std::mem::replace(&mut self.interval, next_interval)
    }
}

impl sealed::Slots for FrequencyAwareAccumulator {
    #[inline]
    fn record(&mut self, at: u32, key: Key, now: Time) {
        let cfg = self.cfg;
        let t_end = self.interval.end;
        let (slot, count) = self.slots.record(at, key);
        let n_c = self.slots.n_tuples() as u64;

        if count == 1 {
            // Insert into HTable and CountTree (Alg. 1 l.25-30).
            self.entries.push(KeyEntry {
                freq_in_tree: 1,
                budget_left: cfg.budget,
                f_step: cfg.initial_f_step(),
                t_step: Duration(t_end.since(now).0 / cfg.budget.max(1) as u64),
                last_update: now,
            });
            self.tree.insert(1, key);
            return;
        }

        let entry = &mut self.entries[slot];
        if entry.budget_left == 0 {
            return;
        }
        let freq_current = u64::from(count);
        let by_frequency = freq_current - entry.freq_in_tree >= entry.f_step;
        if !by_frequency && now.since(entry.last_update) < entry.t_step {
            // Not yet eligible for an update (Alg. 1 l.21).
            return;
        }
        let (old, new) = (entry.freq_in_tree, freq_current);
        entry.budget_left -= 1;
        entry.freq_in_tree = new;
        entry.last_update = now;
        if by_frequency {
            // f.step = (N_EST / budget) · Freq_Current / N_C  (Alg. 1 l.13)
            let step = (cfg.est_tuples / cfg.budget.max(1) as f64) * (new as f64 / n_c as f64);
            entry.f_step = (step.round() as u64).max(1);
        } else {
            // The time step keeps low-frequency keys fresh:
            // t.step = (t_end − now) / k.budget  (Alg. 1 l.19)
            entry.t_step = Duration(t_end.since(now).0 / entry.budget_left.max(1) as u64);
        }
        let removed = self.tree.remove(old, key);
        debug_assert!(removed, "stale tree count for {key:?}");
        self.tree.insert(new, key);
        self.tree_updates += 1;
    }

    #[inline]
    fn prefetch(&self, key: Key) {
        self.slots.index.prefetch(key);
    }

    /// The heartbeat in tree order.
    fn order(&mut self, base: usize, groups: &mut Vec<KeyGroup>, slots: &mut Vec<u32>) {
        // The traversal yields keys in quasi-descending frequency order, one
        // index lookup each for the slot; the groups carry the *exact*
        // counts from the `HTable`.
        debug_assert_eq!(
            self.tree.len(),
            self.slots.n_keys(),
            "tree and HTable differ"
        );
        let arrivals = &mut self.slots;
        arrivals.order.extend(self.tree.iter_desc().map(|(key, _)| {
            let (slot, count) = arrivals.index.get(key).expect("tree and HTable differ");
            (count, key, slot)
        }));
        arrivals.order_into(base, groups, slots);
    }

    fn scatter<'a>(
        &mut self,
        arrivals: Option<&[Tuple]>,
        heads: &mut Heads<'a, Tuple>,
        more: &mut More<'a, '_, Tuple>,
        next_interval: Interval,
    ) -> Interval {
        self.slots.scatter_to(arrivals, heads, more);
        self.reset(next_interval)
    }

    fn scatter_values<'a>(
        &mut self,
        arrivals: &[Tuple],
        heads: &mut Heads<'a, f64>,
        more: &mut More<'a, '_, f64>,
        next_interval: Interval,
    ) -> Interval {
        self.slots.scatter_to(Some(arrivals), heads, more);
        self.reset(next_interval)
    }

    fn forget(&mut self, next_interval: Interval) -> Interval {
        self.slots.forget();
        self.reset(next_interval)
    }

    #[cfg(test)]
    fn held(&self) -> (usize, usize) {
        (self.slots.held.len(), self.slots.held.capacity())
    }
}

impl BatchAccumulator for FrequencyAwareAccumulator {
    #[inline]
    fn ingest(&mut self, t: Tuple) {
        let at = self.slots.hold(t);
        sealed::Slots::record(self, at, t.key, t.ts);
    }

    fn set_estimates(&mut self, est_tuples: f64, avg_keys: f64) {
        self.cfg.est_tuples = est_tuples;
        self.cfg.avg_keys = avg_keys;
    }

    fn set_interval(&mut self, interval: Interval) {
        debug_assert_eq!(self.slots.n_tuples(), 0, "interval changed mid-batch");
        self.interval = interval;
    }

    fn stats(&self) -> BatchStats {
        BatchStats {
            n_tuples: self.slots.n_tuples() as u64,
            n_keys: self.slots.n_keys() as u64,
            tree_updates: self.tree_updates,
        }
    }
}

/// The engine's buffer: exact per-key counts while tuples arrive, one sort of
/// the keys by `(count desc, key asc)` *after* the heartbeat — the "post-sort"
/// side of the paper's Fig. 14a — by a radix sort it keeps. The order is
/// exact and depends only on the batch's key counts; the sort is the one
/// cost it puts inside the processing window.
#[derive(Clone, Debug, Default)]
pub struct PostSortAccumulator {
    interval: Interval,
    slots: ArrivalSlots,
    sort: RadixSort<OrderEntry>,
}

impl PostSortAccumulator {
    /// Create an accumulator for the given batch interval.
    pub fn new(interval: Interval) -> PostSortAccumulator {
        PostSortAccumulator {
            interval,
            ..PostSortAccumulator::default()
        }
    }
}

impl sealed::Slots for PostSortAccumulator {
    #[inline]
    fn record(&mut self, at: u32, key: Key, _ts: Time) {
        self.slots.record(at, key);
    }

    #[inline]
    fn prefetch(&self, key: Key) {
        self.slots.index.prefetch(key);
    }

    /// The heartbeat in sorted order.
    fn order(&mut self, base: usize, groups: &mut Vec<KeyGroup>, slots: &mut Vec<u32>) {
        // The sort the frequency-aware accumulator avoids: every key, by
        // exact `(count desc, key asc)`, carrying its slot so the layout
        // probes no index. Keys are unique, so the order is total.
        let arrivals = &mut self.slots;
        arrivals.index.keys_into(&mut arrivals.order);
        let order = &mut arrivals.order;
        self.sort
            .order_by_count(order, |e| u64::from(e.0), |e| e.1 .0);
        arrivals.order_into(base, groups, slots);
    }

    fn scatter<'a>(
        &mut self,
        arrivals: Option<&[Tuple]>,
        heads: &mut Heads<'a, Tuple>,
        more: &mut More<'a, '_, Tuple>,
        next_interval: Interval,
    ) -> Interval {
        self.slots.scatter_to(arrivals, heads, more);
        std::mem::replace(&mut self.interval, next_interval)
    }

    fn scatter_values<'a>(
        &mut self,
        arrivals: &[Tuple],
        heads: &mut Heads<'a, f64>,
        more: &mut More<'a, '_, f64>,
        next_interval: Interval,
    ) -> Interval {
        self.slots.scatter_to(Some(arrivals), heads, more);
        std::mem::replace(&mut self.interval, next_interval)
    }

    fn forget(&mut self, next_interval: Interval) -> Interval {
        self.slots.forget();
        std::mem::replace(&mut self.interval, next_interval)
    }

    #[cfg(test)]
    fn held(&self) -> (usize, usize) {
        (self.slots.held.len(), self.slots.held.capacity())
    }
}

impl BatchAccumulator for PostSortAccumulator {
    #[inline]
    fn ingest(&mut self, t: Tuple) {
        let at = self.slots.hold(t);
        sealed::Slots::record(self, at, t.key, t.ts);
    }

    fn set_interval(&mut self, interval: Interval) {
        debug_assert_eq!(self.slots.n_tuples(), 0, "interval changed mid-batch");
        self.interval = interval;
    }

    fn stats(&self) -> BatchStats {
        BatchStats {
            n_tuples: self.slots.n_tuples() as u64,
            n_keys: self.slots.n_keys() as u64,
            tree_updates: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn interval_secs(a: u64, b: u64) -> Interval {
        Interval::new(Time::from_secs(a), Time::from_secs(b))
    }

    /// Feed `spec` = [(key, count)] with tuples interleaved round-robin and
    /// timestamps spread over the interval.
    fn feed<A: BatchAccumulator>(acc: &mut A, spec: &[(u64, usize)], iv: Interval) {
        let total: usize = spec.iter().map(|&(_, c)| c).sum();
        let mut remaining: Vec<(u64, usize)> = spec.to_vec();
        let step = iv.len().0 / (total as u64 + 1);
        let mut ts = iv.start;
        let mut emitted = 0;
        while emitted < total {
            for r in remaining.iter_mut() {
                if r.1 > 0 {
                    r.1 -= 1;
                    ts = ts + Duration(step);
                    acc.ingest(Tuple::keyed(ts, Key(r.0)));
                    emitted += 1;
                }
            }
        }
    }

    #[test]
    fn exact_counts_survive_approximation() {
        let iv = interval_secs(0, 1);
        let mut acc = FrequencyAwareAccumulator::new(
            AccumulatorConfig {
                budget: 3,
                est_tuples: 100.0,
                avg_keys: 4.0,
            },
            iv,
        );
        let spec = [(1u64, 50usize), (2, 30), (3, 15), (4, 5)];
        feed(&mut acc, &spec, iv);
        assert_eq!(acc.stats().n_tuples, 100);
        assert_eq!(acc.stats().n_keys, 4);
        let sealed = acc.seal(interval_secs(1, 2));
        assert_eq!(sealed.n_tuples, 100);
        assert_eq!(sealed.n_keys(), 4);
        // Exact counts regardless of tree staleness.
        for &(k, c) in &spec {
            let gi = sealed.groups.iter().position(|g| g.key == Key(k)).unwrap();
            assert_eq!(sealed.groups[gi].count, c, "exact count for key {k}");
            assert_eq!(sealed.tuples(gi).len(), c);
            assert!(sealed.tuples(gi).iter().all(|t| t.key == Key(k)));
        }
    }

    #[test]
    fn quasi_sorted_output_is_nearly_descending() {
        let iv = interval_secs(0, 2);
        let mut acc = FrequencyAwareAccumulator::new(
            AccumulatorConfig {
                budget: 6,
                est_tuples: 385.0,
                avg_keys: 8.0,
            },
            iv,
        );
        // The paper's Fig. 5 example: 385 tuples over 8 keys.
        let spec = [
            (1u64, 120usize),
            (2, 90),
            (3, 60),
            (4, 45),
            (5, 30),
            (6, 20),
            (7, 12),
            (8, 8),
        ];
        feed(&mut acc, &spec, iv);
        let sealed = acc.seal(interval_secs(2, 4));
        // With a reasonable budget the order should be close to exact: allow
        // at most 2 adjacent inversions on this strongly skewed input.
        assert!(
            sealed.adjacent_inversions() <= 2,
            "too many inversions: {} (order: {:?})",
            sealed.adjacent_inversions(),
            sealed
                .groups
                .iter()
                .map(|g| (g.key, g.count))
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn budget_bounds_tree_updates() {
        let iv = interval_secs(0, 1);
        let budget = 4u32;
        let mut acc = FrequencyAwareAccumulator::new(
            AccumulatorConfig {
                budget,
                est_tuples: 10_000.0,
                avg_keys: 10.0,
            },
            iv,
        );
        feed(&mut acc, &[(1, 5000), (2, 3000), (3, 2000)], iv);
        let updates = acc.stats().tree_updates;
        assert!(
            updates <= 3 * budget as u64,
            "updates {updates} exceed budget bound"
        );
        let sealed = acc.seal(interval_secs(1, 2));
        assert_eq!(sealed.n_tuples, 10_000);
    }

    #[test]
    fn seal_resets_for_next_batch() {
        let iv = interval_secs(0, 1);
        let mut acc = FrequencyAwareAccumulator::new(AccumulatorConfig::default(), iv);
        feed(&mut acc, &[(1, 10), (2, 5)], iv);
        let first = acc.seal(interval_secs(1, 2));
        assert_eq!(first.n_tuples, 15);
        assert_eq!(acc.stats(), BatchStats::default());
        assert_eq!(acc.interval(), interval_secs(1, 2));
        // Second batch starts clean.
        feed(&mut acc, &[(7, 3)], interval_secs(1, 2));
        let second = acc.seal(interval_secs(2, 3));
        assert_eq!(second.n_tuples, 3);
        assert_eq!(second.groups[0].key, Key(7));
    }

    #[test]
    fn time_step_refreshes_slow_keys() {
        // A key that arrives steadily but slowly should still get tree
        // updates via t.step even though f.step is never reached.
        let iv = interval_secs(0, 10);
        let mut acc = FrequencyAwareAccumulator::new(
            AccumulatorConfig {
                budget: 5,
                est_tuples: 1_000_000.0, // huge f.step
                avg_keys: 1.0,
            },
            iv,
        );
        for i in 0..50u64 {
            let ts = Time::from_millis(i * 200); // spread over 10 s
            acc.ingest(Tuple::keyed(ts, Key(1)));
        }
        assert!(
            acc.stats().tree_updates >= 2,
            "time-triggered updates expected, got {}",
            acc.stats().tree_updates
        );
        let sealed = acc.seal(interval_secs(10, 20));
        assert_eq!(sealed.groups[0].count, 50);
    }

    #[test]
    fn post_sort_is_exactly_sorted() {
        let iv = interval_secs(0, 1);
        let mut acc = PostSortAccumulator::new(iv);
        feed(&mut acc, &[(1, 3), (2, 9), (3, 6)], iv);
        assert_eq!(acc.stats().n_tuples, 18);
        assert_eq!(acc.stats().n_keys, 3);
        let sealed = acc.seal(interval_secs(1, 2));
        assert_eq!(sealed.adjacent_inversions(), 0);
        let keys: Vec<Key> = sealed.groups.iter().map(|g| g.key).collect();
        assert_eq!(keys, vec![Key(2), Key(3), Key(1)]);
        assert_eq!(acc.stats().n_tuples, 0, "seal resets");
    }

    #[test]
    fn matching_totals_between_accumulators() {
        let iv = interval_secs(0, 1);
        let spec = [(1u64, 40usize), (2, 25), (3, 20), (4, 10), (5, 5)];
        let mut fa = FrequencyAwareAccumulator::new(AccumulatorConfig::default(), iv);
        let mut ps = PostSortAccumulator::new(iv);
        feed(&mut fa, &spec, iv);
        feed(&mut ps, &spec, iv);
        let a = fa.seal(interval_secs(1, 2));
        let b = ps.seal(interval_secs(1, 2));
        assert_eq!(a.n_tuples, b.n_tuples);
        assert_eq!(a.n_keys(), b.n_keys());
        // Same multiset of (key, count).
        let mut ka: Vec<(u64, usize)> = a.groups.iter().map(|g| (g.key.0, g.count)).collect();
        let mut kb: Vec<(u64, usize)> = b.groups.iter().map(|g| (g.key.0, g.count)).collect();
        ka.sort_unstable();
        kb.sort_unstable();
        assert_eq!(ka, kb);
    }

    #[test]
    fn columnar_seal_matches_row_seal() {
        let iv = interval_secs(0, 1);
        let spec = [(1u64, 40usize), (2, 25), (3, 20), (4, 10), (5, 5)];
        let mut row = FrequencyAwareAccumulator::new(AccumulatorConfig::default(), iv);
        let mut col = FrequencyAwareAccumulator::new(AccumulatorConfig::default(), iv);
        feed(&mut row, &spec, iv);
        feed(&mut col, &spec, iv);
        let a = row.seal(interval_secs(1, 2));
        let b = col.seal_columnar(interval_secs(1, 2));
        assert_eq!(b.to_sealed(), a);
        assert_eq!(
            col.stats(),
            BatchStats::default(),
            "columnar seal resets too"
        );

        let mut row = PostSortAccumulator::new(iv);
        let mut col = PostSortAccumulator::new(iv);
        feed(&mut row, &spec, iv);
        feed(&mut col, &spec, iv);
        let a = row.seal(interval_secs(1, 2));
        let b = col.seal_columnar(interval_secs(1, 2));
        assert_eq!(b.to_sealed(), a);
    }

    /// The destination tables borrow each batch's buffers, yet keep their
    /// allocation from batch to batch, and from one lane to the other:
    /// relabelling moves no element and keeps the buffer.
    #[test]
    fn relabel_keeps_the_allocation() {
        let mut arena = [Tuple::keyed(Time::ZERO, Key(1)); 4];
        let mut heads: Vec<IterMut<'_, Tuple>> = Vec::with_capacity(1000);
        heads.push(arena.iter_mut());
        let buffer = heads.as_ptr() as usize;
        let kept: Vec<IterMut<'static, f64>> = relabel(heads);
        assert_eq!((kept.as_ptr() as usize, kept.capacity()), (buffer, 1000));
        assert!(kept.is_empty());
    }

    /// The key index against a `KeyMap` reference, batch after batch:
    /// first-sighting slots, exact counts and `get` for every key (0 and
    /// `u64::MAX` among them) while it grows past 512 and 1,024 keys, then a
    /// clear that keeps its table for a batch of few keys.
    #[test]
    fn key_index_matches_a_key_map_and_keeps_its_table() {
        use crate::hash::KeyMap;
        let many = (0..6_000u64).map(|i| match i % 5 {
            0 => 0,
            1 => u64::MAX - i % 700,
            _ => mix64(i % 1_900),
        });
        let few = (0..500u64).map(|i| u64::MAX - i % 4);
        let mut index = KeyIndex::default();
        let mut table = None;
        for batch in [many.collect::<Vec<_>>(), few.collect()] {
            let mut want: KeyMap<(u32, u32)> = KeyMap::default();
            for &k in &batch {
                let next = want.len() as u32;
                let (slot, count) = want.entry(Key(k)).or_insert((next, 0));
                *count += 1;
                assert_eq!(index.record(Key(k)), (*slot, *count), "key {k}");
                index.prefetch(Key(k));
            }
            assert_eq!(index.len(), want.len());
            assert!(2 * index.len() <= index.entries.len(), "over half full");
            for (&key, &entry) in &want {
                assert_eq!(index.get(key), Some(entry), "{key:?}");
            }
            assert_eq!(index.get(Key(12_345)), None);
            let mut got = Vec::new();
            index.keys_into(&mut got);
            let mut got: Vec<_> = got.into_iter().map(|(c, k, s)| (k, (s, c))).collect();
            let mut want: Vec<_> = want.into_iter().collect();
            got.sort_unstable();
            want.sort_unstable();
            assert_eq!(got, want);

            let kept = (index.entries.as_ptr(), index.entries.len());
            assert!(kept.1 >= 4 * KeyIndex::FIRST_CAPACITY, "grown twice");
            assert_eq!(*table.get_or_insert(kept), kept, "table reallocated");
            index.clear();
            let mut left = Vec::new();
            index.keys_into(&mut left);
            assert_eq!((index.len(), left.len()), (0, 0));
            assert_eq!(index.get(Key(0)), None, "an empty entry read as key 0");
            assert_eq!((index.entries.as_ptr(), index.entries.len()), kept);
        }
    }

    #[test]
    fn initial_f_step_formula() {
        let cfg = AccumulatorConfig {
            budget: 10,
            est_tuples: 1000.0,
            avg_keys: 10.0,
        };
        // f = 1000 / (10 · 10) = 10
        assert_eq!(cfg.initial_f_step(), 10);
        let tiny = AccumulatorConfig {
            budget: 100,
            est_tuples: 10.0,
            avg_keys: 50.0,
        };
        assert_eq!(tiny.initial_f_step(), 1, "step is floored at 1");
    }
}
