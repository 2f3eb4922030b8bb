//! The per-tuple placement loop every baseline runs (§2.2, §7).
//!
//! A per-tuple technique is a routing decision: given an arrival and the
//! blocks placed so far, pick a block. [`PerTuple`] does the rest, in four
//! passes over buffers that outlive the batch. The first asks the chooser
//! for each arrival's block and counts the blocks' sizes. The second
//! scatters each arrival's key and value into its block's range of one pair
//! buffer, in arrival order. The third sorts each range by key with the
//! stable radix sort of [`crate::sort`], so each key's values stay in the
//! order they arrived, and the fourth writes the range out as its block's
//! runs and, when the job reads them, its values. So a baseline's block is
//! what every block is — one run per key, keys ascending, each key's values
//! in arrival order — and its Map folds each key's values in the order they
//! arrived, with no key table and no comparison sort on the way. The split-key table is derived as
//! [`PartitionPlan::from_blocks`] derives it, and the blocks of the last
//! plan are recycled.

use crate::batch::{split_keys, Columns, KeyFragment, PartitionPlan};
use crate::hash::{KeyMap, KeySet};
use crate::partitioner::Spare;
use crate::sort::RadixSort;
use crate::types::{Key, Tuple};

/// What a block chooser reads of the blocks placed so far.
pub(crate) struct Placed<'a> {
    sizes: &'a [usize],
}

impl Placed<'_> {
    /// `|block b|`: tuples placed in it so far.
    pub(crate) fn size(&self, b: usize) -> usize {
        self.sizes[b]
    }
}

/// The placement loop's state, refilled batch after batch.
#[derive(Clone, Debug, Default)]
pub(crate) struct PerTuple {
    /// Each block's tuples so far; from the scatter on, the next position
    /// of its range in `pairs`.
    sizes: Vec<usize>,
    /// Each arrival's block, in arrival order.
    chosen: Vec<u32>,
    /// Every arrival's key and value, block after block.
    pairs: Vec<(Key, f64)>,
    /// The sort of each block's range of `pairs`.
    radix: RadixSort<(Key, f64)>,
    /// Each key's number of holding blocks, drained into the split keys.
    holders: KeyMap<usize>,
    /// The buffers of the last plan handed back.
    spare: Spare,
}

impl PerTuple {
    /// Place every arrival of `tuples`, in order, in the block `choose`
    /// picks for it from its arrival index, the tuple and the blocks placed
    /// so far. With `split` the plan carries the keys held by more than one
    /// block, as [`PartitionPlan::from_blocks`] derives them; without it the
    /// caller vouches that no key is split and the table stays empty. The
    /// blocks carry `columns`.
    pub(crate) fn place(
        &mut self,
        tuples: &[Tuple],
        p: usize,
        split: bool,
        columns: Columns,
        mut choose: impl FnMut(usize, &Tuple, &Placed<'_>) -> usize,
    ) -> PartitionPlan {
        assert!(p > 0, "need at least one block");
        assert!(u32::try_from(tuples.len()).is_ok(), "over 2^32 arrivals");
        self.sizes.clear();
        self.sizes.resize(p, 0);
        self.chosen.clear();
        for (i, t) in tuples.iter().enumerate() {
            let b = choose(i, t, &Placed { sizes: &self.sizes });
            self.sizes[b] += 1;
            self.chosen.push(b as u32);
        }
        let mut blocks = self.spare.sized_row_blocks(&self.sizes, false, columns);
        let mut start = 0;
        for at in &mut self.sizes {
            (*at, start) = (start, start + *at);
        }
        self.pairs.clear();
        self.pairs.resize(tuples.len(), (Key(0), 0.0));
        for (&b, t) in self.chosen.iter().zip(tuples) {
            let at = &mut self.sizes[b as usize];
            self.pairs[*at] = (t.key, t.value);
            *at += 1;
        }
        // Each block's range now ends where its next position stopped.
        let mut start = 0;
        for (block, &end) in blocks.iter_mut().zip(&self.sizes) {
            let pairs = &mut self.pairs[start..end];
            self.radix.sort(pairs, |&(key, _)| key.0);
            let runs = &mut block.runs;
            if columns == Columns::Runs {
                pairs.iter().for_each(|&(key, _)| add_to_runs(runs, key));
            } else {
                for (v, &(key, value)) in block.values.iter_mut().zip(&*pairs) {
                    *v = value;
                    add_to_runs(runs, key);
                }
            }
            start = end;
        }
        let split_keys = if split {
            split_keys(&blocks, &mut self.holders)
        } else {
            KeySet::default()
        };
        PartitionPlan { blocks, split_keys }
    }

    /// Keep `plan`'s buffers for the next batch.
    pub(crate) fn recycle(&mut self, plan: PartitionPlan) {
        self.spare.keep(plan);
    }
}

/// Count one more tuple of `key`, which sorts at or after every key in
/// `runs`, into them.
#[inline]
fn add_to_runs(runs: &mut Vec<KeyFragment>, key: Key) {
    match runs.last_mut() {
        Some(run) if run.key == key => run.count += 1,
        _ => runs.push(KeyFragment { key, count: 1 }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::KeySet;
    use crate::types::Time;

    fn t(k: u64) -> Tuple {
        Tuple::keyed(Time::ZERO, Key(k))
    }

    /// The chooser sees the sizes the first pass counted, and the radix
    /// sort lays each block out as one run per key, keys ascending, each
    /// key's values in the order they arrived.
    #[test]
    fn chooser_reads_what_the_loop_placed() {
        let keys = [2, 1, 2, 3, 3, 1];
        let tuples: Vec<Tuple> = (keys.iter().enumerate())
            .map(|(i, &k)| Tuple::new(Time(i as u64), Key(k), i as f64))
            .collect();
        // Each block's size so far, kept beside the loop.
        let mut model = [0; 2];
        let plan =
            PerTuple::default().place(&tuples, 2, true, Columns::RunsAndValues, |i, t, placed| {
                for (b, &size) in model.iter().enumerate() {
                    assert_eq!(placed.size(b), size, "arrival {i}");
                }
                let b = usize::from(t.key == Key(3));
                model[b] += 1;
                b
            });
        let run = |k, count| KeyFragment { key: Key(k), count };
        assert_eq!(plan.blocks[0].runs, [run(1, 2), run(2, 2)]);
        assert_eq!(plan.blocks[0].values, [1.0, 5.0, 0.0, 2.0]);
        assert_eq!(plan.blocks[1].runs, [run(3, 2)]);
        assert_eq!(plan.blocks[1].values, [3.0, 4.0]);
        assert!(plan.split_keys.is_empty());
    }

    #[test]
    fn split_keys_are_derived_only_when_asked() {
        let tuples: Vec<Tuple> = [1, 1, 2, 3].map(t).to_vec();
        let mut loop_ = PerTuple::default();
        let plan = loop_.place(&tuples, 2, true, Columns::RunsAndValues, |i, _, _| i % 2);
        assert_eq!(plan.split_keys, KeySet::from_iter([Key(1)]));
        assert_eq!(plan, PartitionPlan::from_blocks(plan.blocks.clone()));
        let unsplit = loop_.place(&tuples, 2, false, Columns::RunsAndValues, |i, _, _| i % 2);
        assert!(unsplit.split_keys.is_empty());
        assert_eq!(unsplit.blocks, plan.blocks);
    }

    #[test]
    fn a_recycled_plan_is_refilled_not_reallocated() {
        let tuples: Vec<Tuple> = (0..64).map(|i| t(i % 5)).collect();
        let mut loop_ = PerTuple::default();
        let first = loop_.place(&tuples, 4, true, Columns::RunsAndValues, |i, _, _| i % 4);
        let held: Vec<*const f64> = first.blocks.iter().map(|b| b.values.as_ptr()).collect();
        loop_.recycle(first);
        let second = loop_.place(&tuples, 4, true, Columns::RunsAndValues, |i, _, _| {
            (i + 1) % 4
        });
        let again: Vec<*const f64> = second.blocks.iter().map(|b| b.values.as_ptr()).collect();
        assert_eq!(held, again, "the blocks are the recycled plan's");
        let fresh =
            PerTuple::default().place(&tuples, 4, true, Columns::RunsAndValues, |i, _, _| {
                (i + 1) % 4
            });
        assert_eq!(second, fresh);
    }
}
