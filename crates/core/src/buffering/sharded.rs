//! Sharded parallel ingest for the batching phase.
//!
//! One accumulator is inherently serial: every `ingest` touches its key
//! index and counters (and, for the paper's Algorithm 1, the `CountTree`). To
//! scale the batching phase across receiver cores, the accumulator is split
//! into `n` independent shards, each a full accumulator over the keys that
//! hash to it. Tuples route by a fixed key hash, so a key's entire group
//! lives in exactly one shard and per-key state never crosses shard
//! boundaries.
//!
//! ## Determinism contract
//!
//! * **Counts are exact and shard-invariant.** Sealed groups carry exact
//!   per-key counts, so the frequency table is identical to the serial
//!   accumulator's for *any* shard count.
//! * **Parallel ≡ serial.** [`ShardedAccumulator::par_ingest`] and the
//!   slice seal route the arrival slice to the shards in two phases: the
//!   positions and keys of contiguous arrival chunks go into per-(chunk,
//!   shard) runs, in arrival order, then each worker walks the runs of a contiguous shard
//!   range it owns. Routing keeps arrival order within every shard, so each
//!   shard sees exactly the sub-stream it would see under serial ingest, in
//!   the same order. The sealed output is bit-identical to serially
//!   ingesting the same tuples, regardless of thread count. Both phases run
//!   on the process's fan-out pool ([`crate::par`]): each shard range is one
//!   task, handed out once, and the runs are cleared for the next batch, not
//!   rebuilt.
//! * **The heartbeat is parallel and in place.** On the same workers, each
//!   shard orders its own keys, then scatters its own arrivals to its own
//!   keys' destinations: in the arena seal, one slice of a single arena per
//!   shard; on the partitioner's row path, its keys' pieces of the blocks,
//!   carved with `split_at_mut`, so no two shards write one position. On the
//!   engine's path a shard keeps no tuples, only each arrival's position,
//!   and its scatter reads `arrivals[pos]` from the caller's slice; tuples
//!   handed over one at a time are held by the shard they route to. A
//!   group's tuples stay contiguous, in arrival order, in its shard's slice,
//!   so the arena is not in group order — only the group descriptors are
//!   merged.
//! * **Exact shards: any shard count ≡ the serial seal.** At seal the
//!   per-shard group lists are combined by a k-way merge on exact
//!   `(count desc, key asc)`. [`ShardedAccumulator::exact`]'s shards are
//!   [`PostSortAccumulator`]s, each already sorted on that same total order,
//!   so the merge *is* the global sort: the sealed batch — and any
//!   downstream [`PartitionPlan`] — equals the serial `PostSortAccumulator`'s
//!   for every shard and thread count. This is what the engine runs.
//! * **Budgeted shards: one shard ≡ the serial seal.**
//!   [`ShardedAccumulator::new`]'s shards are the paper's
//!   [`FrequencyAwareAccumulator`]s, whose lists are only quasi-sorted (and
//!   tie-break the other way), so the merge is deterministic and
//!   quasi-descending but differs from the serial tree walk unless `n = 1`.
//!
//! [`PartitionPlan`]: crate::batch::PartitionPlan

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::ops::{Deref, DerefMut, Range};

use crate::batch::KeyGroup;
use crate::buffering::sealed::Slots;
use crate::buffering::{
    AccumulatorConfig, BatchAccumulator, BatchStats, FrequencyAwareAccumulator, Heads, More,
    PostSortAccumulator, POSITIONS_FIT, RECORD_AHEAD,
};
use crate::hash::bucket_of;
use crate::par::map_mut;
use crate::types::{Interval, Key, Time, Tuple};

/// Fixed routing seed: shard placement is part of the accumulator's
/// deterministic behaviour, not a per-run random choice.
const SHARD_SEED: u64 = 0x5ca1_ab1e_0d15_ea5e;

/// A shard's share of the whole accumulator's estimates: it sees roughly
/// `1/n` of the tuples and keys, which keeps the initial `f.step` unchanged
/// and the in-flight step updates comparable to the serial accumulator's.
fn shard_estimates(est_tuples: f64, avg_keys: f64, n_shards: usize) -> (f64, f64) {
    (
        (est_tuples / n_shards as f64).max(1.0),
        (avg_keys / n_shards as f64).max(1.0),
    )
}

/// A value on cache lines of its own. Neighbouring shards, and neighbouring
/// scatter runs, are written by different workers tuple by tuple: sharing a
/// line, every write would take it from the other worker's cache.
#[derive(Clone, Debug, Default)]
#[repr(align(128))]
struct OwnLines<T>(T);

impl<T> Deref for OwnLines<T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.0
    }
}

impl<T> DerefMut for OwnLines<T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.0
    }
}

/// An accumulator sharded `n` ways by key hash for parallel ingest.
#[derive(Clone, Debug)]
pub struct ShardedAccumulator<A = FrequencyAwareAccumulator> {
    shards: Vec<OwnLines<A>>,
    /// The workers the last routing ([`ShardedAccumulator::par_ingest`] or a
    /// slice seal) ran on; the seal runs on as many.
    threads: usize,
    /// The routing's per-(chunk, shard) runs of arrival positions and keys,
    /// chunk by chunk, kept from batch to batch: cleared, never dropped.
    runs: Vec<OwnLines<Vec<(u32, Key)>>>,
    /// Each shard's sealed group list and its groups' slots, merged and
    /// cleared at every seal.
    lists: Vec<(Vec<KeyGroup>, Vec<u32>)>,
}

impl<A> ShardedAccumulator<A> {
    fn with_shards(shards: Vec<A>) -> Self {
        assert!(!shards.is_empty(), "need at least one shard");
        let lists = vec![(Vec::new(), Vec::new()); shards.len()];
        ShardedAccumulator {
            shards: shards.into_iter().map(OwnLines).collect(),
            threads: 1,
            runs: Vec::new(),
            lists,
        }
    }
}

impl ShardedAccumulator<PostSortAccumulator> {
    /// `n_shards` exact shards: seals the batch the serial
    /// [`PostSortAccumulator`] seals, whatever `n_shards` is.
    pub fn exact(n_shards: usize, interval: Interval) -> Self {
        Self::with_shards(
            (0..n_shards)
                .map(|_| PostSortAccumulator::new(interval))
                .collect(),
        )
    }
}

impl ShardedAccumulator<FrequencyAwareAccumulator> {
    /// Create an accumulator with `n_shards` independent Algorithm 1
    /// instances, each seeded with its share of the estimates.
    pub fn new(cfg: AccumulatorConfig, n_shards: usize, interval: Interval) -> Self {
        let (est_tuples, avg_keys) = shard_estimates(cfg.est_tuples, cfg.avg_keys, n_shards);
        let shard_cfg = AccumulatorConfig {
            budget: cfg.budget,
            est_tuples,
            avg_keys,
        };
        Self::with_shards(
            (0..n_shards)
                .map(|_| FrequencyAwareAccumulator::new(shard_cfg, interval))
                .collect(),
        )
    }
}

impl<A: BatchAccumulator> ShardedAccumulator<A> {
    /// The shard a key routes to.
    #[inline]
    pub fn shard_of(&self, key: Key) -> usize {
        bucket_of(SHARD_SEED, key, self.shards.len())
    }

    /// Ingest an arrival-ordered slice on `threads` workers: route each
    /// arrival to the shard of its key ([`Self::shard_of`]), and each shard
    /// holds its own sub-stream for the seal. The result is bit-identical to
    /// serial ingest for any thread count. The next seal runs on as many
    /// workers.
    pub fn par_ingest(&mut self, tuples: &[Tuple], threads: usize) {
        self.route(tuples, threads, |shard, at, _| {
            shard.ingest(tuples[at as usize])
        });
    }

    /// Hand every arrival to its shard as `f(shard, position, key)` on
    /// `threads` workers, in two parallel phases: route the positions and
    /// keys of contiguous arrival chunks into per-(chunk, shard) runs (one
    /// hash and no tuple copy per arrival), then walk each shard's runs on
    /// the worker owning it. Routing preserves arrival order within every
    /// shard, so each shard sees exactly the sub-stream serial ingest would
    /// deliver, in the same order.
    fn route(&mut self, tuples: &[Tuple], threads: usize, f: impl Fn(&mut A, u32, Key) + Sync) {
        assert!(u32::try_from(tuples.len()).is_ok(), "{POSITIONS_FIT}");
        let n_shards = self.shards.len();
        self.threads = threads.clamp(1, n_shards);
        if self.threads == 1 {
            for (at, t) in tuples.iter().enumerate() {
                let s = self.shard_of(t.key);
                f(&mut self.shards[s], at as u32, t.key);
            }
            return;
        }
        // Phase 1 (parallel): route contiguous arrival chunks into
        // per-(chunk, shard) runs of `(position, key)`. Chunks are taken in
        // arrival order, so the concatenation of a shard's runs is the stable
        // sub-stream serial ingest would deliver, whatever the chunk
        // boundaries.
        let chunk_len = tuples.len().div_ceil(self.threads).max(1);
        let n_runs = tuples.len().div_ceil(chunk_len) * n_shards;
        if self.runs.len() < n_runs {
            self.runs.resize_with(n_runs, OwnLines::default);
        }
        let mut chunks: Vec<_> = self.runs[..n_runs].chunks_mut(n_shards).collect();
        map_mut(&mut chunks, self.threads, |c, runs| {
            let first = c * chunk_len;
            let chunk = &tuples[first..tuples.len().min(first + chunk_len)];
            for run in runs.iter_mut() {
                run.clear();
                run.reserve(chunk.len() / n_shards + 1);
            }
            for (at, t) in (first as u32..).zip(chunk) {
                runs[bucket_of(SHARD_SEED, t.key, n_shards)].push((at, t.key));
            }
        });
        // Phase 2 (parallel): each shard takes its runs in chunk (= arrival)
        // order on the worker owning it.
        let runs = &self.runs[..n_runs];
        per_shard(&mut self.shards, self.threads, |si, shard| {
            for run in runs.iter().skip(si).step_by(n_shards) {
                for (i, &(at, key)) in run.iter().enumerate() {
                    if let Some(&(_, later)) = run.get(i + RECORD_AHEAD) {
                        shard.prefetch(later);
                    }
                    f(shard, at, key);
                }
            }
        });
    }

    /// Each shard scatters its own arrivals to its own keys' destinations
    /// through `scatter`, in parallel: the tables are cut at the shards'
    /// key counts, a shard's slots following the shards' before it.
    /// Returns the interval the batch was buffered over.
    fn per_shard_scatter<'a, T: Send>(
        &mut self,
        heads: &mut Heads<'a, T>,
        more: &mut More<'a, '_, T>,
        scatter: impl Fn(&mut A, &mut Heads<'a, T>, &mut More<'a, '_, T>) -> Interval + Sync,
    ) -> Interval {
        let chained = !more.is_empty();
        let keys = || self.shards.iter().map(|s| s.stats().n_keys as usize);
        let heads = cut(heads, keys());
        let more = cut(more, keys().map(|n| if chained { n } else { 0 }));
        let mut jobs: Vec<_> = self.shards.iter_mut().zip(heads).zip(more).collect();
        let intervals = per_shard(&mut jobs, self.threads, |_, ((shard, heads), more)| {
            scatter(shard, heads, more)
        });
        intervals[0]
    }
}

/// `n` shards split over `min(threads, n)` workers (at least one), as
/// contiguous ranges in shard order whose sizes differ by at most one.
fn shard_ranges(n: usize, threads: usize) -> Vec<Range<usize>> {
    let workers = threads.clamp(1, n.max(1));
    let (size, longer) = (n / workers, n % workers);
    let mut start = 0;
    (0..workers)
        .map(|w| {
            let range = start..start + size + usize::from(w < longer);
            start = range.end;
            range
        })
        .collect()
}

/// `f(i, &mut items[i])` for every item, results in index order: each of
/// [`shard_ranges`]' contiguous ranges is one fan-out task, handed out once,
/// so one worker runs a whole range, in index order. With one range the
/// pool is not touched.
fn per_shard<S: Send, R: Send>(
    items: &mut [S],
    threads: usize,
    f: impl Fn(usize, &mut S) -> R + Sync,
) -> Vec<R> {
    let mut rest = items;
    let mut ranges: Vec<(usize, &mut [S])> = (shard_ranges(rest.len(), threads).into_iter())
        .map(|range| {
            let (mine, tail) = std::mem::take(&mut rest).split_at_mut(range.len());
            rest = tail;
            (range.start, mine)
        })
        .collect();
    let workers = ranges.len();
    let per_range = map_mut(&mut ranges, workers, |_, (start, mine)| {
        (mine.iter_mut().enumerate())
            .map(|(j, s)| f(*start + j, s))
            .collect::<Vec<R>>()
    });
    per_range.into_iter().flatten().collect()
}

/// The k-way merge of the shards' group lists on exact
/// `(count desc, key asc)`, appended to `merged`, with each group's slot to
/// `slots`: its shard's slot, past the keys of the shards before it. Keys are
/// unique across shards, so the heap order is total and the merge
/// deterministic; it keeps each shard's own order, so lists already sorted on
/// that order merge into the global sort. Only the descriptors move: each
/// group keeps the arena range its shard laid out.
fn merge_order(
    lists: &[(Vec<KeyGroup>, Vec<u32>)],
    merged: &mut Vec<KeyGroup>,
    slots: &mut Vec<u32>,
) {
    let head = |si: usize, gi: usize| {
        let g = lists[si].0.get(gi)?;
        Some((g.count, Reverse(g.key.0), si, gi))
    };
    let mut first_slot = Vec::with_capacity(lists.len());
    let mut keys = 0;
    for (list, _) in lists {
        first_slot.push(keys);
        keys += list.len() as u32;
    }
    let mut heap: BinaryHeap<_> = (0..lists.len()).filter_map(|si| head(si, 0)).collect();
    merged.reserve(keys as usize);
    slots.reserve(keys as usize);
    while let Some((_, _, si, gi)) = heap.pop() {
        merged.push(lists[si].0[gi]);
        slots.push(first_slot[si] + lists[si].1[gi]);
        heap.extend(head(si, gi + 1));
    }
}

/// `items` cut into consecutive sub-slices of the given lengths.
fn cut<T>(items: &mut [T], lens: impl Iterator<Item = usize>) -> Vec<&mut [T]> {
    let mut rest = items;
    lens.map(|len| {
        let (mine, tail) = std::mem::take(&mut rest).split_at_mut(len);
        rest = tail;
        mine
    })
    .collect()
}

impl<A: BatchAccumulator> Slots for ShardedAccumulator<A> {
    fn record(&mut self, at: u32, key: Key, ts: Time) {
        let s = self.shard_of(key);
        self.shards[s].record(at, key, ts);
    }

    fn record_all(&mut self, arrivals: &[Tuple], threads: usize) {
        // An exact shard ignores `ts`, so once `record` inlines the load is
        // dead and the shard reads the slice only to scatter.
        let ts = |at: u32| arrivals[at as usize].ts;
        self.route(arrivals, threads, |shard, at, key| {
            shard.record(at, key, ts(at))
        });
    }

    /// Each shard orders its keys and lays them out in its own slice of the
    /// arena, in parallel; then the shards' group lists merge. A shard's
    /// slots follow the slots of the shards before it.
    fn order(&mut self, base: usize, groups: &mut Vec<KeyGroup>, slots: &mut Vec<u32>) {
        let mut at = base;
        let mut jobs: Vec<_> = (self.shards.iter_mut().zip(&mut self.lists))
            .map(|(shard, (list, slots))| {
                list.clear();
                slots.clear();
                let first = at;
                at += shard.stats().n_tuples as usize;
                (shard, first, list, slots)
            })
            .collect();
        per_shard(&mut jobs, self.threads, |_, (shard, base, list, slots)| {
            shard.order(*base, list, slots)
        });
        merge_order(&self.lists, groups, slots);
    }

    /// Each shard lays its groups over its own slice of `arena`.
    fn carve<'a>(&self, arena: &'a mut [Tuple], heads: &mut Heads<'a, Tuple>) {
        assert_eq!(
            arena.len() as u64,
            self.stats().n_tuples,
            "arena slice is not the batch's size"
        );
        let stats = || self.shards.iter().map(|s| s.stats());
        let slices = cut(arena, stats().map(|s| s.n_tuples as usize));
        let tables = cut(heads, stats().map(|s| s.n_keys as usize));
        for ((shard, slice), table) in self.shards.iter().zip(slices).zip(tables) {
            shard.carve(slice, table);
        }
    }

    fn scatter<'a>(
        &mut self,
        arrivals: Option<&[Tuple]>,
        heads: &mut Heads<'a, Tuple>,
        more: &mut More<'a, '_, Tuple>,
        next_interval: Interval,
    ) -> Interval {
        self.per_shard_scatter(heads, more, |shard, heads, more| {
            shard.scatter(arrivals, heads, more, next_interval)
        })
    }

    fn scatter_values<'a>(
        &mut self,
        arrivals: &[Tuple],
        heads: &mut Heads<'a, f64>,
        more: &mut More<'a, '_, f64>,
        next_interval: Interval,
    ) -> Interval {
        self.per_shard_scatter(heads, more, |shard, heads, more| {
            shard.scatter_values(arrivals, heads, more, next_interval)
        })
    }

    #[cfg(test)]
    fn held(&self) -> (usize, usize) {
        (self.shards.iter().map(|s| s.held())).fold((0, 0), |(len, cap), (l, c)| (len + l, cap + c))
    }
}

impl<A: BatchAccumulator> BatchAccumulator for ShardedAccumulator<A> {
    fn ingest(&mut self, t: Tuple) {
        let s = self.shard_of(t.key);
        self.shards[s].ingest(t);
    }

    fn ingest_all(&mut self, tuples: &[Tuple], threads: usize) {
        self.par_ingest(tuples, threads);
    }

    /// Every shard takes its share of the whole-batch estimates.
    fn set_estimates(&mut self, est_tuples: f64, avg_keys: f64) {
        let (est_tuples, avg_keys) = shard_estimates(est_tuples, avg_keys, self.shards.len());
        for shard in &mut self.shards {
            shard.set_estimates(est_tuples, avg_keys);
        }
    }

    fn n_shards(&self) -> usize {
        self.shards.len()
    }

    fn set_interval(&mut self, interval: Interval) {
        for shard in &mut self.shards {
            shard.set_interval(interval);
        }
    }

    fn stats(&self) -> BatchStats {
        self.shards
            .iter()
            .map(|s| s.stats())
            .fold(BatchStats::default(), |acc, s| BatchStats {
                n_tuples: acc.n_tuples + s.n_tuples,
                n_keys: acc.n_keys + s.n_keys,
                tree_updates: acc.tree_updates + s.tree_updates,
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::SealedBatch;
    use crate::types::Duration;

    fn interval_secs(a: u64, b: u64) -> Interval {
        Interval::new(Time::from_secs(a), Time::from_secs(b))
    }

    /// An arrival-ordered stream: `spec` = [(key, count)], round-robin
    /// interleaved with timestamps spread over the interval.
    fn stream(spec: &[(u64, usize)], iv: Interval) -> Vec<Tuple> {
        let total: usize = spec.iter().map(|&(_, c)| c).sum();
        let mut remaining: Vec<(u64, usize)> = spec.to_vec();
        let step = iv.len().0 / (total as u64 + 1);
        let mut ts = iv.start;
        let mut out = Vec::with_capacity(total);
        while out.len() < total {
            for r in remaining.iter_mut() {
                if r.1 > 0 {
                    r.1 -= 1;
                    ts = ts + Duration(step);
                    out.push(Tuple::keyed(ts, Key(r.0)));
                }
            }
        }
        out
    }

    fn spec() -> Vec<(u64, usize)> {
        (0..40u64).map(|k| (k, 5 + (k as usize * 7) % 90)).collect()
    }

    #[test]
    fn counts_are_exact_for_any_shard_count() {
        let iv = interval_secs(0, 1);
        let tuples = stream(&spec(), iv);
        for n_shards in [1, 2, 3, 8] {
            let mut acc = ShardedAccumulator::new(AccumulatorConfig::default(), n_shards, iv);
            for &t in &tuples {
                acc.ingest(t);
            }
            assert_eq!(acc.stats().n_tuples, tuples.len() as u64);
            assert_eq!(acc.stats().n_keys, 40);
            let sealed = acc.seal(interval_secs(1, 2));
            assert_eq!(sealed.n_tuples, tuples.len());
            let mut got: Vec<(u64, usize)> =
                sealed.groups.iter().map(|g| (g.key.0, g.count)).collect();
            got.sort_unstable();
            let mut want = spec();
            want.sort_unstable();
            assert_eq!(got, want, "{n_shards} shards");
        }
    }

    #[test]
    fn parallel_ingest_is_bit_identical_to_serial() {
        let iv = interval_secs(0, 1);
        let tuples = stream(&spec(), iv);
        for (n_shards, threads) in [(4, 2), (8, 3), (8, 8), (3, 16)] {
            let cfg = AccumulatorConfig::default();
            let mut serial = ShardedAccumulator::new(cfg, n_shards, iv);
            for &t in &tuples {
                serial.ingest(t);
            }
            let mut parallel = ShardedAccumulator::new(cfg, n_shards, iv);
            parallel.par_ingest(&tuples, threads);
            assert_eq!(serial.stats(), parallel.stats());
            let a = serial.seal(interval_secs(1, 2));
            let b = parallel.seal(interval_secs(1, 2));
            assert_eq!(a, b, "{n_shards} shards / {threads} threads");
        }
    }

    #[test]
    fn one_shard_matches_legacy_accumulator_exactly() {
        let iv = interval_secs(0, 1);
        let tuples = stream(&spec(), iv);
        let cfg = AccumulatorConfig::default();
        let mut legacy = FrequencyAwareAccumulator::new(cfg, iv);
        let mut sharded = ShardedAccumulator::new(cfg, 1, iv);
        for &t in &tuples {
            legacy.ingest(t);
            sharded.ingest(t);
        }
        let a = legacy.seal(interval_secs(1, 2));
        let b = sharded.seal(interval_secs(1, 2));
        let order = |s: &SealedBatch| s.groups.iter().map(|g| g.key).collect::<Vec<_>>();
        assert_eq!(order(&a), order(&b), "merge of one shard is the identity");
    }

    #[test]
    fn merged_output_is_quasi_descending() {
        let iv = interval_secs(0, 1);
        let tuples = stream(&spec(), iv);
        let mut acc = ShardedAccumulator::new(AccumulatorConfig::default(), 4, iv);
        acc.par_ingest(&tuples, 4);
        let sealed = acc.seal(interval_secs(1, 2));
        // The k-way merge picks the max exact head each step; with per-shard
        // quasi-sorted lists the global order stays near-descending.
        assert!(
            sealed.adjacent_inversions() <= sealed.n_keys() / 4,
            "too many inversions: {}",
            sealed.adjacent_inversions()
        );
    }

    #[test]
    fn seal_resets_for_next_interval() {
        let iv = interval_secs(0, 1);
        let mut acc = ShardedAccumulator::new(AccumulatorConfig::default(), 4, iv);
        acc.par_ingest(&stream(&[(1, 10), (2, 5)], iv), 2);
        let first = acc.seal(interval_secs(1, 2));
        assert_eq!(first.n_tuples, 15);
        assert_eq!(acc.stats(), BatchStats::default());
        let iv2 = interval_secs(1, 2);
        acc.par_ingest(&stream(&[(7, 3)], iv2), 2);
        let second = acc.seal(interval_secs(2, 3));
        assert_eq!(second.n_tuples, 3);
        assert_eq!(second.groups[0].key, Key(7));
        assert_eq!(second.interval, iv2);
    }

    #[test]
    fn columnar_seal_matches_row_seal() {
        let iv = interval_secs(0, 1);
        let tuples = stream(&spec(), iv);
        for n_shards in [1, 3, 8] {
            let cfg = AccumulatorConfig::default();
            let mut row = ShardedAccumulator::new(cfg, n_shards, iv);
            let mut col = ShardedAccumulator::new(cfg, n_shards, iv);
            row.par_ingest(&tuples, 4);
            col.par_ingest(&tuples, 4);
            let a = row.seal(interval_secs(1, 2));
            let b = col.seal_columnar(interval_secs(1, 2));
            assert_eq!(b.to_sealed(), a, "{n_shards} shards");
        }
    }

    #[test]
    fn shard_ranges_keep_every_worker_busy() {
        for n in 1..=8 {
            for threads in 1..=9 {
                let ranges = shard_ranges(n, threads);
                assert_eq!(
                    ranges.len(),
                    threads.min(n),
                    "{n} shards / {threads} threads"
                );
                assert_eq!(ranges[0].start, 0);
                assert_eq!(ranges[ranges.len() - 1].end, n);
                assert!(ranges.windows(2).all(|w| w[0].end == w[1].start));
                let lens: Vec<usize> = ranges.iter().map(Range::len).collect();
                let (lo, hi) = (lens.iter().min().unwrap(), lens.iter().max().unwrap());
                assert!(*lo >= 1 && hi - lo <= 1, "{n} / {threads}: {lens:?}");
            }
        }
    }

    /// Every item is visited once, in index order, and a whole shard range
    /// by one worker: the caller (worker 0) or a pool helper.
    #[test]
    fn per_shard_runs_every_item_once_in_index_order() {
        let me = std::thread::current().id();
        for threads in [1, 2, 3, 8] {
            let mut items: Vec<usize> = (0..7).collect();
            let out = per_shard(&mut items, threads, |i, x| {
                *x += 10;
                let thread = std::thread::current();
                let pooled = thread.name().is_some_and(|n| n.starts_with("prompt-par-"));
                assert!(
                    thread.id() == me || pooled,
                    "{threads}: item {i} off the pool"
                );
                (i, thread.id())
            });
            assert_eq!(items, (10..17).collect::<Vec<_>>());
            assert!(out.iter().enumerate().all(|(i, &(j, _))| i == j));
            for range in shard_ranges(7, threads) {
                let ids: Vec<_> = out[range.clone()].iter().map(|&(_, id)| id).collect();
                assert!(
                    ids.iter().all(|&id| id == ids[0]),
                    "{threads}: {range:?} split"
                );
            }
            if threads == 1 {
                assert!(
                    out.iter().all(|&(_, id)| id == me),
                    "one range ran off the caller"
                );
            }
        }
    }

    #[test]
    fn shard_routing_is_total_and_stable() {
        let acc = ShardedAccumulator::new(AccumulatorConfig::default(), 6, interval_secs(0, 1));
        assert_eq!(acc.n_shards(), 6);
        for k in 0..1000u64 {
            let s = acc.shard_of(Key(k));
            assert!(s < 6);
            assert_eq!(s, acc.shard_of(Key(k)), "routing must be stable");
        }
    }
}
