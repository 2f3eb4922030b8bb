//! Micro-batch containers: the raw arrival buffer, the sealed (key-grouped,
//! frequency-sorted) batch that Algorithm 2 consumes, and the partitioned output
//! (data blocks with split-key reference tables) that the Map stage consumes.

use crate::hash::{KeyMap, KeySet};
use crate::types::{Interval, Key, Time, Tuple};

/// A micro-batch as accumulated by the receiver: the tuples of one batch
/// interval in arrival order.
///
/// Per-tuple partitioners (time-based, shuffle, hash, PK-d, cAM) replay this
/// arrival sequence to make their online decisions; Prompt consumes the
/// [`SealedBatch`] its frequency-aware accumulator builds alongside it.
#[derive(Clone, Debug)]
pub struct MicroBatch {
    /// Tuples in arrival order (timestamp-sorted, paper assumption 1).
    pub tuples: Vec<Tuple>,
    /// The batch interval the tuples were collected over.
    pub interval: Interval,
}

impl MicroBatch {
    /// Wrap an arrival-ordered tuple vector.
    pub fn new(tuples: Vec<Tuple>, interval: Interval) -> MicroBatch {
        MicroBatch { tuples, interval }
    }

    /// Number of tuples in the batch (`N_C` in Algorithm 1).
    #[inline]
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// Whether the batch holds no tuples.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// Number of distinct keys (`|K|` in Algorithm 1). O(n).
    pub fn distinct_keys(&self) -> usize {
        let mut seen = KeySet::default();
        seen.reserve(self.tuples.len() / 4 + 16);
        for t in &self.tuples {
            seen.insert(t.key);
        }
        seen.len()
    }
}

/// All tuples of one key within a sealed batch (`<k_i, count_i, tupleList_i>`
/// in Algorithm 1's output): `count` consecutive tuples of the batch's arena,
/// starting at `offset`, read through [`SealedBatch::tuples`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct KeyGroup {
    /// The shared key.
    pub key: Key,
    /// Exact tuple count.
    pub count: usize,
    /// Arena index of the group's first tuple.
    pub offset: usize,
}

/// The output of the batching phase for Prompt: key-grouped tuples, most
/// frequent key first, plus batch statistics. All groups share one arena, so
/// sealing allocates nothing per key.
///
/// The engine's buffer seals in exact `(count desc, key asc)` order. The
/// paper's online `CountTree` seals in *quasi*-descending order — it trades
/// exact ordering for bounded update cost (§4.1) — and
/// [`SealedBatch::adjacent_inversions`] measures how far off it is;
/// [`SealedBatch::sort_exact`] restores the exact order.
///
/// Two sealed batches are equal when they hold the same groups with the same
/// tuples in the same order, wherever each arena happens to store them.
#[derive(Clone, Debug)]
pub struct SealedBatch {
    /// Key groups, largest (approximately) first.
    pub groups: Vec<KeyGroup>,
    /// Total number of tuples across all groups.
    pub n_tuples: usize,
    /// The batch interval.
    pub interval: Interval,
    /// The groups' tuples; each group's are contiguous and in arrival order.
    arena: Vec<Tuple>,
}

impl SealedBatch {
    /// Build a sealed batch from groups laid out over `arena`, computing
    /// totals. Panics if a group reaches past the arena.
    pub fn new(groups: Vec<KeyGroup>, arena: Vec<Tuple>, interval: Interval) -> SealedBatch {
        assert!(
            groups.iter().all(|g| g.offset + g.count <= arena.len()),
            "key group outside the arena"
        );
        let n_tuples = groups.iter().map(|g| g.count).sum();
        SealedBatch {
            groups,
            n_tuples,
            interval,
            arena,
        }
    }

    /// A batch with the given `(key, count)` groups in the given order, each
    /// filled with unit-value tuples at time zero — for callers that exercise
    /// Algorithm 2 on sizes alone (the bin-packing comparisons, tests).
    pub fn synthetic(counts: &[(Key, usize)], interval: Interval) -> SealedBatch {
        let mut arena = Vec::with_capacity(counts.iter().map(|&(_, c)| c).sum());
        let groups = counts
            .iter()
            .map(|&(key, count)| {
                let offset = arena.len();
                arena.resize(offset + count, Tuple::keyed(Time::ZERO, key));
                KeyGroup { key, count, offset }
            })
            .collect();
        SealedBatch::new(groups, arena, interval)
    }

    /// Number of distinct keys in the batch.
    #[inline]
    pub fn n_keys(&self) -> usize {
        self.groups.len()
    }

    /// The tuples of group `gi`, in arrival order.
    #[inline]
    pub fn tuples(&self, gi: usize) -> &[Tuple] {
        let g = &self.groups[gi];
        &self.arena[g.offset..g.offset + g.count]
    }

    /// Re-sort groups into exact descending count order (stable on key for
    /// determinism). Only the group list moves; the arena stays as sealed.
    pub fn sort_exact(&mut self) {
        self.groups
            .sort_by(|a, b| b.count.cmp(&a.count).then(a.key.0.cmp(&b.key.0)));
    }

    /// How far the quasi-sorted order deviates from exact descending order:
    /// the number of adjacent inversions. Zero means exactly sorted.
    pub fn adjacent_inversions(&self) -> usize {
        self.groups
            .windows(2)
            .filter(|w| w[0].count < w[1].count)
            .count()
    }
}

impl PartialEq for SealedBatch {
    fn eq(&self, other: &SealedBatch) -> bool {
        self.interval == other.interval
            && self.groups.len() == other.groups.len()
            && (0..self.groups.len()).all(|gi| {
                self.groups[gi].key == other.groups[gi].key && self.tuples(gi) == other.tuples(gi)
            })
    }
}

/// One fragment of a key placed in a data block: `count` of the key's tuples,
/// which the block holds as one run of `count` consecutive values.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct KeyFragment {
    /// The key this fragment belongs to.
    pub key: Key,
    /// Number of tuples of the key in this block (or in this run).
    pub count: usize,
}

/// A data block: one partition of a micro-batch, the input of one Map task.
///
/// After the seal a tuple is its value: the timestamp served batching alone
/// (§4.1) and the Map is `Map(k, v)` (§2.1), so a block holds its values
/// grouped by key and says which key each belongs to by runs — `(key,
/// count)` for `count` consecutive values — not per value. Every technique
/// builds its blocks so: one run per key, keys strictly ascending, each
/// key's values in placement order. The runs are thus the block's per-key
/// reference table (§5), its fragment table.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct DataBlock {
    /// `(key, count)` runs over `values`, one per key, keys strictly
    /// ascending; no run is empty and their counts sum to `values.len()`.
    pub runs: Vec<KeyFragment>,
    /// The block's values, run by run.
    pub values: Vec<f64>,
}

impl DataBlock {
    /// `|block|`: number of tuples.
    #[inline]
    pub fn size(&self) -> usize {
        self.values.len()
    }

    /// `‖block‖`: number of distinct keys.
    #[inline]
    pub fn cardinality(&self) -> usize {
        self.runs.len()
    }

    /// Each run's key with its values, in key order.
    pub fn key_runs(&self) -> impl Iterator<Item = (Key, &[f64])> + '_ {
        let mut rest = &self.values[..];
        self.runs.iter().map(move |run| {
            let (mine, tail) = rest.split_at(run.count);
            rest = tail;
            (run.key, mine)
        })
    }
}

/// `(key, value)` pairs in placement order, grouped by key with a stable
/// sort: one run per key, keys ascending, each key's values in the order
/// given.
impl FromIterator<(Key, f64)> for DataBlock {
    fn from_iter<I: IntoIterator<Item = (Key, f64)>>(pairs: I) -> DataBlock {
        let mut pairs: Vec<(Key, f64)> = pairs.into_iter().collect();
        pairs.sort_by_key(|&(key, _)| key.0);
        let mut block = DataBlock::default();
        for (key, value) in pairs {
            match block.runs.last_mut() {
                Some(run) if run.key == key => run.count += 1,
                _ => block.runs.push(KeyFragment { key, count: 1 }),
            }
            block.values.push(value);
        }
        block
    }
}

/// The result of partitioning one micro-batch: `p` data blocks plus the
/// reference table of split keys (§5: "each data block is equipped with a
/// reference table \[marking\] if keys are split over other data blocks").
#[derive(Clone, Debug, PartialEq)]
pub struct PartitionPlan {
    /// The data blocks, one per prospective Map task.
    pub blocks: Vec<DataBlock>,
    /// Keys whose tuples span more than one block.
    pub split_keys: KeySet,
}

impl PartitionPlan {
    /// Assemble a plan from blocks, deriving the split-key reference table.
    pub fn from_blocks(blocks: Vec<DataBlock>) -> PartitionPlan {
        let split_keys = split_keys(&blocks, &mut KeyMap::default());
        PartitionPlan { blocks, split_keys }
    }

    /// Number of blocks (`p`).
    #[inline]
    pub fn n_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Total tuples across blocks — must equal the input batch size.
    pub fn total_tuples(&self) -> usize {
        self.blocks.iter().map(|b| b.size()).sum()
    }

    /// Total key fragments across blocks (denominator-side of KSR, Eqn. 5).
    pub fn total_fragments(&self) -> usize {
        self.blocks.iter().map(|b| b.runs.len()).sum()
    }

    /// Number of distinct keys across the whole plan.
    pub fn total_keys(&self) -> usize {
        total_keys(&self.block_fragments(), &self.split_keys)
    }

    /// Every block's runs — its fragment list — in block order: all the cost
    /// model (§3.3), the partitioner policy and the rebalancer read of a
    /// plan.
    pub fn block_fragments(&self) -> Vec<&[KeyFragment]> {
        self.blocks.iter().map(|b| &b.runs[..]).collect()
    }
}

/// The keys held by more than one of `blocks`, counted in `holders` (empty,
/// and drained again before returning). Each key has at most one fragment
/// per block, so a key's fragment count is the number of blocks holding it.
pub(crate) fn split_keys(blocks: &[DataBlock], holders: &mut KeyMap<usize>) -> KeySet {
    for f in blocks.iter().flat_map(|b| &b.runs) {
        *holders.entry(f.key).or_insert(0) += 1;
    }
    (holders.drain())
        .filter(|&(_, n)| n > 1)
        .map(|(k, _)| k)
        .collect()
}

/// Number of distinct keys across per-block fragment lists, given the plan's
/// split-key table: a key has one fragment per block holding it, so every
/// fragment is a distinct key but those of split keys, which count once.
/// With no split key (every hash plan) that is O(p).
pub fn total_keys(blocks: &[&[KeyFragment]], split_keys: &KeySet) -> usize {
    let fragments = || blocks.iter().flat_map(|b| b.iter());
    let of_split = if split_keys.is_empty() {
        0
    } else {
        fragments().filter(|f| split_keys.contains(&f.key)).count()
    };
    let keys = blocks.iter().map(|b| b.len()).sum::<usize>() - of_split + split_keys.len();
    let hashed = || fragments().map(|f| f.key).collect::<KeySet>().len();
    debug_assert_eq!(
        keys,
        hashed(),
        "split-key table does not match the fragments"
    );
    keys
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(k: u64) -> Tuple {
        Tuple::keyed(Time::ZERO, Key(k))
    }

    #[test]
    fn microbatch_counts() {
        let iv = Interval::new(Time::ZERO, Time::from_secs(1));
        let mb = MicroBatch::new(vec![t(1), t(2), t(1)], iv);
        assert_eq!(mb.len(), 3);
        assert!(!mb.is_empty());
        assert_eq!(mb.distinct_keys(), 2);
        assert!(MicroBatch::new(vec![], iv).is_empty());
    }

    /// A block holding one tuple of each of `keys`, distinct and ascending.
    fn block(keys: &[u64]) -> DataBlock {
        keys.iter().map(|&k| (Key(k), 1.0)).collect()
    }

    fn fragment(k: u64, count: usize) -> KeyFragment {
        KeyFragment { key: Key(k), count }
    }

    #[test]
    fn pairs_group_by_key_in_placement_order() {
        let pairs = [(3, 0.5), (3, 1.5), (1, 2.0), (3, -1.0), (2, 4.0), (2, 0.0)];
        let block: DataBlock = pairs.iter().map(|&(k, v)| (Key(k), v)).collect();
        assert_eq!(block.runs, [fragment(1, 1), fragment(2, 2), fragment(3, 3)]);
        assert_eq!(block.values, [2.0, 4.0, 0.0, 0.5, 1.5, -1.0]);
        assert_eq!((block.size(), block.cardinality()), (6, 3));
        let by_run: Vec<(Key, Vec<f64>)> = (block.key_runs())
            .map(|(k, values)| (k, values.to_vec()))
            .collect();
        assert_eq!(by_run[2], (Key(3), vec![0.5, 1.5, -1.0]));
    }

    #[test]
    fn plan_derives_split_keys() {
        let plan = PartitionPlan::from_blocks(vec![block(&[1, 2]), block(&[1, 3])]);
        assert_eq!(plan.n_blocks(), 2);
        assert_eq!(plan.total_tuples(), 4);
        assert_eq!(plan.total_keys(), 3);
        assert_eq!(plan.total_fragments(), 4);
        assert!(plan.split_keys.contains(&Key(1)));
        assert!(!plan.split_keys.contains(&Key(2)));
        assert_eq!(plan.split_keys.len(), 1);
    }

    #[test]
    fn sealed_batch_sorting_and_inversions() {
        let iv = Interval::new(Time::ZERO, Time::from_secs(1));
        let mut sb = SealedBatch::synthetic(&[(Key(1), 3), (Key(2), 5), (Key(3), 4)], iv);
        assert_eq!(sb.n_tuples, 12);
        assert_eq!(sb.n_keys(), 3);
        assert_eq!(sb.adjacent_inversions(), 1);
        let unsorted = sb.clone();
        sb.sort_exact();
        assert_eq!(sb.adjacent_inversions(), 0);
        assert_eq!(sb.groups[0].key, Key(2));
        // The groups moved, their tuples did not.
        assert_eq!(sb.tuples(0), vec![t(2); 5]);
        assert_ne!(sb, unsorted);
    }

    #[test]
    fn sealed_batch_equality_ignores_arena_layout() {
        let iv = Interval::new(Time::ZERO, Time::from_secs(1));
        let a = SealedBatch::synthetic(&[(Key(1), 2), (Key(2), 1)], iv);
        // Same groups, stored in the opposite arena order.
        let groups = vec![
            KeyGroup {
                key: Key(1),
                count: 2,
                offset: 1,
            },
            KeyGroup {
                key: Key(2),
                count: 1,
                offset: 0,
            },
        ];
        let b = SealedBatch::new(groups, vec![t(2), t(1), t(1)], iv);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "key group outside the arena")]
    fn sealed_batch_rejects_groups_past_the_arena() {
        let iv = Interval::new(Time::ZERO, Time::from_secs(1));
        let g = KeyGroup {
            key: Key(1),
            count: 2,
            offset: 0,
        };
        let _ = SealedBatch::new(vec![g], vec![t(1)], iv);
    }
}
