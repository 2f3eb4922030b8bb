//! Micro-batch buffering: what Algorithm 1 (§4.1) hands Algorithm 2 at the
//! heartbeat — the batch's tuples grouped by key, most frequent key first.
//!
//! Two accumulators produce that list from the same arrival log:
//!
//! * [`PostSortAccumulator`] — **what the engine runs** (`Technique::Prompt`).
//!   During the interval it keeps one exact counter per key and nothing else;
//!   at the heartbeat it sorts the keys once by `(count desc, key asc)`. The
//!   order is exact and canonical — a function of the batch's key counts
//!   alone — which is what lets [`ShardedAccumulator`] seal the same batch
//!   for any shard and thread count.
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
//! The paper's argument for the tree is that the sort would sit inside the
//! processing window (Fig. 14a). Measured on this implementation the sort is
//! ≈ 3 ms for the ≈ 62k distinct keys of a 500k-tuple Zipf batch, while the
//! tree's upkeep is ≈ 40 ms of ingest; EXPERIMENTS.md, "Algorithm 1 without
//! the tree", has the table and says where the trade turns.
//!
//! ## Layout
//!
//! Both accumulators share a key→slot index plus a dense vector of per-key
//! counters (the paper's `HTable`), and hold the tuple lists as one
//! arrival-ordered log with each entry's slot beside it (`ArrivalLog`).
//! Nothing is allocated per key. Sealing turns the key order into one arena
//! offset per slot and scatters the log once into that arena, which the
//! [`SealedBatch`] groups then index as ranges.

mod count_tree;
mod sharded;

pub use count_tree::CountTree;
pub use sharded::ShardedAccumulator;

use crate::batch::{KeyGroup, SealedBatch};
use crate::columnar::ColumnarSealed;
use crate::hash::KeyMap;
use crate::types::{Duration, Interval, Key, Time, Tuple};

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

/// Where a batch's tuples wait for the heartbeat: a key→slot index (slots
/// are dense, in first-sighting order) and one arrival-ordered log with each
/// entry's slot beside it.
#[derive(Clone, Debug, Default)]
struct ArrivalLog {
    slots: KeyMap<u32>,
    tuples: Vec<Tuple>,
    slot_of: Vec<u32>,
    /// Seal scratch: the arena index each slot's next tuple scatters to.
    cursors: Vec<usize>,
}

impl ArrivalLog {
    /// Append one arrival. Returns its key's slot and whether this is the
    /// key's first sighting.
    #[inline]
    fn push(&mut self, t: Tuple) -> (usize, bool) {
        let next = u32::try_from(self.slots.len()).expect("distinct keys per batch fit in u32");
        let slot = *self.slots.entry(t.key).or_insert(next);
        self.tuples.push(t);
        self.slot_of.push(slot);
        (slot as usize, slot == next)
    }

    #[inline]
    fn n_tuples(&self) -> usize {
        self.tuples.len()
    }

    #[inline]
    fn n_keys(&self) -> usize {
        self.slots.len()
    }

    /// The heartbeat: lay the key groups out back to back in `order` (every
    /// key of the batch, once), sized by `count_of(slot)`, from index `base`
    /// of the batch's whole arena, appending them to `groups`; get this log's
    /// slice of that arena, its length exactly the log's, from `arena(log)`;
    /// scatter the log once into it, each tuple to its group's next free
    /// index, so groups keep arrival order and every entry is overwritten;
    /// and forget the batch, keeping every allocation for the next one.
    /// Returns the arena. `arena` runs after the layout, so a copy of the
    /// log made there is still in cache when the scatter reads the log
    /// again.
    fn scatter_into<A: AsMut<[Tuple]>>(
        &mut self,
        order: impl Iterator<Item = Key>,
        count_of: impl Fn(usize) -> usize,
        base: usize,
        groups: &mut Vec<KeyGroup>,
        arena: impl FnOnce(&[Tuple]) -> A,
    ) -> A {
        self.cursors.clear();
        self.cursors.resize(self.slots.len(), 0);
        let mut offset = 0;
        let first = groups.len();
        groups.extend(order.map(|key| {
            let slot = self.slots[&key] as usize;
            let group = KeyGroup {
                key,
                count: count_of(slot),
                offset: base + offset,
            };
            self.cursors[slot] = offset;
            offset += group.count;
            group
        }));
        debug_assert_eq!(groups.len() - first, self.slots.len(), "order misses keys");
        debug_assert_eq!(offset, self.tuples.len(), "counts miss tuples");

        let mut arena = arena(&self.tuples);
        let slice = arena.as_mut();
        assert_eq!(
            slice.len(),
            self.tuples.len(),
            "arena slice is not the batch's size"
        );
        for (t, &slot) in self.tuples.iter().zip(&self.slot_of) {
            let at = &mut self.cursors[slot as usize];
            slice[*at] = *t;
            *at += 1;
        }

        self.slots.clear();
        self.tuples.clear();
        self.slot_of.clear();
        arena
    }
}

/// Per-key bookkeeping stored in the `HTable`, indexed by slot.
#[derive(Clone, Copy, Debug)]
struct KeyEntry {
    /// `k.Freq_Current`: exact frequency so far.
    freq_current: u64,
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

/// The common interface of batching-phase accumulators: the exact one the
/// engine runs, the paper's budgeted one, and either of them sharded.
pub trait BatchAccumulator: std::fmt::Debug + Send {
    /// Ingest one tuple; `t.ts` is used as the receiver-local clock.
    fn ingest(&mut self, t: Tuple);

    /// Ingest an arrival-ordered slice, on up to `threads` threads where the
    /// accumulator can use them (the sharded one does); same result as
    /// ingesting the tuples one by one.
    fn ingest_all(&mut self, tuples: &[Tuple], _threads: usize) {
        for &t in tuples {
            self.ingest(t);
        }
    }

    /// Re-seed the expected tuple and key counts of the batch about to be
    /// ingested. Only the budgeted accumulator reads them (for its initial
    /// frequency step); exact counts have nothing to estimate.
    fn set_estimates(&mut self, _est_tuples: f64, _avg_keys: f64) {}

    /// How many key-hash shards ingest is spread over (1 = serial).
    fn n_shards(&self) -> usize {
        1
    }

    /// Seal the batch: emit the key groups, most frequent first (exactly or
    /// approximately, by implementation), and reset internal state for the
    /// next interval.
    fn seal(&mut self, next_interval: Interval) -> SealedBatch;

    /// [`BatchAccumulator::seal`] into a caller's buffers: scatter the batch
    /// into `arena`, exactly [`BatchStats::n_tuples`] long and overwritten
    /// whatever it holds, which starts at index `base` of the batch's whole
    /// arena, and append its groups to `groups` in seal order, offsets
    /// counted from `base`. Returns the interval the batch was buffered
    /// over; resets like `seal`.
    fn seal_into(
        &mut self,
        arena: &mut [Tuple],
        base: usize,
        next_interval: Interval,
        groups: &mut Vec<KeyGroup>,
    ) -> Interval;

    /// Move the (empty) accumulator to another batch interval, when the one
    /// given to the previous `seal` turned out not to be the next batch's.
    fn set_interval(&mut self, interval: Interval);

    /// Seal into the columnar (struct-of-arrays) layout: the same group order
    /// and per-group tuple order as [`BatchAccumulator::seal`], with the
    /// arena split into columns laid out in group order.
    fn seal_columnar(&mut self, next_interval: Interval) -> ColumnarSealed {
        ColumnarSealed::from_sealed(&self.seal(next_interval))
    }

    /// Statistics of the batch accumulated so far.
    fn stats(&self) -> BatchStats;
}

/// Algorithm 1: the frequency-aware micro-batch accumulator.
///
/// One instance serves batch after batch: `seal` hands the batch out and
/// keeps the index, log and counter allocations for the next interval.
#[derive(Clone, Debug)]
pub struct FrequencyAwareAccumulator {
    cfg: AccumulatorConfig,
    interval: Interval,
    log: ArrivalLog,
    /// The `HTable`'s per-key counters, by slot.
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
            log: ArrivalLog::default(),
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

    /// The heartbeat in tree order (`ArrivalLog::scatter_into`), then the
    /// reset for `next_interval`. Returns the arena and the interval the
    /// batch was buffered over.
    fn seal_with<A: AsMut<[Tuple]>>(
        &mut self,
        base: usize,
        next_interval: Interval,
        groups: &mut Vec<KeyGroup>,
        arena: impl FnOnce(&[Tuple]) -> A,
    ) -> (A, Interval) {
        // The traversal yields keys in quasi-descending frequency order; the
        // groups carry the *exact* counts from the `HTable`.
        debug_assert_eq!(self.tree.len(), self.log.n_keys(), "tree and HTable differ");
        let entries = &self.entries;
        let arena = self.log.scatter_into(
            self.tree.iter_desc().map(|(key, _)| key),
            |slot| entries[slot].freq_current as usize,
            base,
            groups,
            arena,
        );
        // HTable and CountTree are cleared at every heartbeat (§4.1).
        self.entries.clear();
        self.tree.clear();
        self.tree_updates = 0;
        let interval = std::mem::replace(&mut self.interval, next_interval);
        (arena, interval)
    }
}

impl BatchAccumulator for FrequencyAwareAccumulator {
    #[inline]
    fn ingest(&mut self, t: Tuple) {
        let now = t.ts;
        let cfg = self.cfg;
        let t_end = self.interval.end;
        let (slot, first_sighting) = self.log.push(t);
        let n_c = self.log.n_tuples() as u64;

        if first_sighting {
            // Insert into HTable and CountTree (Alg. 1 l.25-30).
            self.entries.push(KeyEntry {
                freq_current: 1,
                freq_in_tree: 1,
                budget_left: cfg.budget,
                f_step: cfg.initial_f_step(),
                t_step: Duration(t_end.since(now).0 / cfg.budget.max(1) as u64),
                last_update: now,
            });
            self.tree.insert(1, t.key);
            return;
        }

        let entry = &mut self.entries[slot];
        entry.freq_current += 1;
        if entry.budget_left == 0 {
            return;
        }
        let by_frequency = entry.freq_current - entry.freq_in_tree >= entry.f_step;
        if !by_frequency && now.since(entry.last_update) < entry.t_step {
            // Not yet eligible for an update (Alg. 1 l.21).
            return;
        }
        let (old, new) = (entry.freq_in_tree, entry.freq_current);
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
        let removed = self.tree.remove(old, t.key);
        debug_assert!(removed, "stale tree count for {:?}", t.key);
        self.tree.insert(new, t.key);
        self.tree_updates += 1;
    }

    fn set_estimates(&mut self, est_tuples: f64, avg_keys: f64) {
        self.cfg.est_tuples = est_tuples;
        self.cfg.avg_keys = avg_keys;
    }

    fn seal(&mut self, next_interval: Interval) -> SealedBatch {
        // Scatter into a copy of the log; the scatter overwrites every entry.
        let mut groups = Vec::new();
        let (arena, interval) = self.seal_with(0, next_interval, &mut groups, <[Tuple]>::to_vec);
        SealedBatch::new(groups, arena, interval)
    }

    fn seal_into(
        &mut self,
        arena: &mut [Tuple],
        base: usize,
        next_interval: Interval,
        groups: &mut Vec<KeyGroup>,
    ) -> Interval {
        self.seal_with(base, next_interval, groups, |_| arena).1
    }

    fn set_interval(&mut self, interval: Interval) {
        debug_assert_eq!(self.log.n_tuples(), 0, "interval changed mid-batch");
        self.interval = interval;
    }

    fn stats(&self) -> BatchStats {
        BatchStats {
            n_tuples: self.log.n_tuples() as u64,
            n_keys: self.log.n_keys() as u64,
            tree_updates: self.tree_updates,
        }
    }
}

/// The engine's buffer: exact per-key counts while tuples arrive, one sort of
/// the keys by `(count desc, key asc)` *after* the heartbeat — the "post-sort"
/// side of the paper's Fig. 14a. The order is exact and depends only on the
/// batch's key counts, so any sharding of it merges back to the same batch;
/// the sort is the one cost it puts inside the processing window.
#[derive(Clone, Debug, Default)]
pub struct PostSortAccumulator {
    interval: Interval,
    log: ArrivalLog,
    /// Exact per-key counts, by slot.
    counts: Vec<usize>,
    /// Seal scratch: every key and its count, in seal order.
    order: Vec<(usize, Key)>,
}

impl PostSortAccumulator {
    /// Create an accumulator for the given batch interval.
    pub fn new(interval: Interval) -> PostSortAccumulator {
        PostSortAccumulator {
            interval,
            ..PostSortAccumulator::default()
        }
    }

    /// The heartbeat in sorted order (`ArrivalLog::scatter_into`), then the
    /// reset for `next_interval`. Returns the arena and the interval the
    /// batch was buffered over.
    fn seal_with<A: AsMut<[Tuple]>>(
        &mut self,
        base: usize,
        next_interval: Interval,
        groups: &mut Vec<KeyGroup>,
        arena: impl FnOnce(&[Tuple]) -> A,
    ) -> (A, Interval) {
        // The sort the frequency-aware accumulator avoids: every key, by
        // exact `(count desc, key asc)`.
        let (counts, order) = (&self.counts, &mut self.order);
        order.clear();
        order.extend((self.log.slots.iter()).map(|(&key, &slot)| (counts[slot as usize], key)));
        order.sort_unstable_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
        let arena = self.log.scatter_into(
            order.iter().map(|&(_, key)| key),
            |slot| counts[slot],
            base,
            groups,
            arena,
        );
        self.counts.clear();
        let interval = std::mem::replace(&mut self.interval, next_interval);
        (arena, interval)
    }
}

impl BatchAccumulator for PostSortAccumulator {
    #[inline]
    fn ingest(&mut self, t: Tuple) {
        let (slot, first_sighting) = self.log.push(t);
        if first_sighting {
            self.counts.push(0);
        }
        self.counts[slot] += 1;
    }

    fn seal(&mut self, next_interval: Interval) -> SealedBatch {
        // Scatter into a copy of the log; the scatter overwrites every entry.
        let mut groups = Vec::new();
        let (arena, interval) = self.seal_with(0, next_interval, &mut groups, <[Tuple]>::to_vec);
        SealedBatch::new(groups, arena, interval)
    }

    fn seal_into(
        &mut self,
        arena: &mut [Tuple],
        base: usize,
        next_interval: Interval,
        groups: &mut Vec<KeyGroup>,
    ) -> Interval {
        self.seal_with(base, next_interval, groups, |_| arena).1
    }

    fn set_interval(&mut self, interval: Interval) {
        debug_assert_eq!(self.log.n_tuples(), 0, "interval changed mid-batch");
        self.interval = interval;
    }

    fn stats(&self) -> BatchStats {
        BatchStats {
            n_tuples: self.log.n_tuples() as u64,
            n_keys: self.log.n_keys() as u64,
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
