//! The per-tuple placement loop every baseline runs (§2.2, §7).
//!
//! A per-tuple technique is a routing decision: given an arrival and the
//! blocks placed so far, pick a block. [`PerTuple`] does the rest — writes
//! the arrival into its block, counts it, hands over key-sorted fragment
//! tables and the split-key table — in buffers that outlive the batch: count
//! tables drained, not dropped, and the blocks of the last plan recycled.

use crate::batch::{split_keys, DataBlock, KeyFragment, PartitionPlan};
use crate::hash::{KeyMap, KeySet};
use crate::partitioner::{Plan, Spare};
use crate::types::{Key, Tuple};

/// What a block chooser reads of the blocks placed so far.
pub(crate) struct Placed<'a> {
    blocks: &'a [DataBlock],
    counts: &'a [KeyMap<usize>],
}

impl Placed<'_> {
    /// `|block b|`: tuples placed in it so far.
    pub(crate) fn size(&self, b: usize) -> usize {
        self.blocks[b].tuples.len()
    }

    /// Whether block `b` holds a tuple of `key` yet.
    pub(crate) fn holds(&self, b: usize, key: Key) -> bool {
        self.counts[b].contains_key(&key)
    }

    /// `‖block b‖`: distinct keys placed in it so far.
    pub(crate) fn cardinality(&self, b: usize) -> usize {
        self.counts[b].len()
    }
}

/// The placement loop's state, refilled batch after batch.
#[derive(Clone, Debug, Default)]
pub(crate) struct PerTuple {
    /// Each block's per-key counts, drained into its fragment table.
    counts: Vec<KeyMap<usize>>,
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
    /// caller vouches that no key is split and the table stays empty.
    pub(crate) fn place(
        &mut self,
        tuples: &[Tuple],
        p: usize,
        split: bool,
        mut choose: impl FnMut(usize, &Tuple, &Placed<'_>) -> usize,
    ) -> PartitionPlan {
        assert!(p > 0, "need at least one block");
        let mut blocks = self.spare.row_blocks(p, tuples.len() / p + 1);
        self.counts.resize_with(p, KeyMap::default);
        for (i, &t) in tuples.iter().enumerate() {
            let placed = Placed {
                blocks: &blocks,
                counts: &self.counts,
            };
            let b = choose(i, &t, &placed);
            blocks[b].tuples.push(t);
            *self.counts[b].entry(t.key).or_insert(0) += 1;
        }
        for (block, counts) in blocks.iter_mut().zip(&mut self.counts) {
            let fragments = (counts.drain()).map(|(key, count)| KeyFragment { key, count });
            block.fragments.extend(fragments);
            // Keys are unique, so an unstable sort gives one order whatever
            // the table's iteration order.
            block.fragments.sort_unstable_by_key(|f| f.key.0);
        }
        let split_keys = if split {
            split_keys(&blocks, &mut self.holders)
        } else {
            KeySet::default()
        };
        PartitionPlan { blocks, split_keys }
    }

    /// Keep `plan`'s buffers for the next batch.
    pub(crate) fn recycle(&mut self, plan: Plan) {
        self.spare.keep(plan);
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

    #[test]
    fn chooser_reads_what_the_loop_placed() {
        let tuples: Vec<Tuple> = [1, 2, 1, 3, 3, 1].map(t).to_vec();
        // What each block holds so far, kept beside the loop.
        let mut model: Vec<Vec<Key>> = vec![Vec::new(); 2];
        let plan = PerTuple::default().place(&tuples, 2, true, |i, t, placed| {
            for (b, keys) in model.iter().enumerate() {
                assert_eq!(placed.size(b), keys.len(), "arrival {i}");
                let distinct: KeySet = keys.iter().copied().collect();
                assert_eq!(placed.cardinality(b), distinct.len(), "arrival {i}");
                assert_eq!(placed.holds(b, t.key), distinct.contains(&t.key));
            }
            let b = usize::from(t.key == Key(3));
            model[b].push(t.key);
            b
        });
        let fragment = |k, count| KeyFragment { key: Key(k), count };
        assert_eq!(plan.blocks[0].fragments, [fragment(1, 3), fragment(2, 1)]);
        assert_eq!(plan.blocks[1].fragments, [fragment(3, 2)]);
        assert_eq!(plan.blocks[0].tuples, [1, 2, 1, 1].map(t));
        assert!(plan.split_keys.is_empty());
    }

    #[test]
    fn split_keys_are_derived_only_when_asked() {
        let tuples: Vec<Tuple> = [1, 1, 2, 3].map(t).to_vec();
        let mut loop_ = PerTuple::default();
        let plan = loop_.place(&tuples, 2, true, |i, _, _| i % 2);
        assert_eq!(plan.split_keys, KeySet::from_iter([Key(1)]));
        assert_eq!(plan, PartitionPlan::from_blocks(plan.blocks.clone()));
        let unsplit = loop_.place(&tuples, 2, false, |i, _, _| i % 2);
        assert!(unsplit.split_keys.is_empty());
        assert_eq!(unsplit.blocks, plan.blocks);
    }

    #[test]
    fn a_recycled_plan_is_refilled_not_reallocated() {
        let tuples: Vec<Tuple> = (0..64).map(|i| t(i % 5)).collect();
        let mut loop_ = PerTuple::default();
        let first = loop_.place(&tuples, 4, true, |i, _, _| i % 4);
        let held: Vec<*const Tuple> = first.blocks.iter().map(|b| b.tuples.as_ptr()).collect();
        loop_.recycle(Plan::Rows(first));
        let second = loop_.place(&tuples, 4, true, |i, _, _| (i + 1) % 4);
        let again: Vec<*const Tuple> = second.blocks.iter().map(|b| b.tuples.as_ptr()).collect();
        assert_eq!(held, again, "the blocks are the recycled plan's");
        let fresh = PerTuple::default().place(&tuples, 4, true, |i, _, _| (i + 1) % 4);
        assert_eq!(second, fresh);
    }
}
