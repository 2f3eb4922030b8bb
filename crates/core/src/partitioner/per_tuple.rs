//! The per-tuple placement loop every baseline runs (§2.2, §7).
//!
//! A per-tuple technique is a routing decision: given an arrival and the
//! blocks placed so far, pick a block. [`PerTuple`] does the rest, in two
//! passes over buffers that outlive the batch. The first asks the chooser
//! for each arrival's block, finds or adds its key's slot in that block's
//! table, counts the arrival there and notes the slot. The second is a
//! counting sort, as Prompt's scatter is: each block's slots, sorted by key,
//! become its runs, and every value is written once to its key's next
//! position. So a baseline's block is what every block is — one run per
//! key, keys ascending, each key's values in arrival order — and its Map
//! folds each key's values in the order they arrived. The split-key table
//! is derived as [`PartitionPlan::from_blocks`] derives it; key tables are
//! cleared, not dropped, and the blocks of the last plan recycled.

use crate::batch::{split_keys, KeyFragment, PartitionPlan};
use crate::hash::{KeyMap, KeySet};
use crate::partitioner::{Plan, Spare};
use crate::types::{Key, Tuple};

/// What a block chooser reads of the blocks placed so far.
pub(crate) struct Placed<'a> {
    sizes: &'a [usize],
    tables: &'a [KeyMap<u32>],
}

impl Placed<'_> {
    /// `|block b|`: tuples placed in it so far.
    pub(crate) fn size(&self, b: usize) -> usize {
        self.sizes[b]
    }

    /// Whether block `b` holds a tuple of `key` yet.
    pub(crate) fn holds(&self, b: usize, key: Key) -> bool {
        self.tables[b].contains_key(&key)
    }

    /// `‖block b‖`: distinct keys placed in it so far.
    pub(crate) fn cardinality(&self, b: usize) -> usize {
        self.tables[b].len()
    }
}

/// One key of one block: the key and, in the first pass, its arrivals so
/// far; once the block's runs are laid out, the position its next value
/// goes to.
#[derive(Clone, Copy, Debug)]
struct Slot {
    key: Key,
    at: usize,
}

/// The placement loop's state, refilled batch after batch.
#[derive(Clone, Debug, Default)]
pub(crate) struct PerTuple {
    /// Each block's key table: key → the key's slot in `slots`.
    tables: Vec<KeyMap<u32>>,
    /// Each block's slots, in the order its keys first arrived.
    slots: Vec<Vec<Slot>>,
    /// Each block's tuples so far.
    sizes: Vec<usize>,
    /// Each arrival's `(block, slot)`, in arrival order.
    arrivals: Vec<(u32, u32)>,
    /// One block's `(key, slot)`s, sorted by key.
    order: Vec<(u64, u32)>,
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
        assert!(u32::try_from(tuples.len()).is_ok(), "over 2^32 arrivals");
        self.tables.resize_with(p, KeyMap::default);
        self.slots.resize_with(p, Vec::new);
        self.sizes.clear();
        self.sizes.resize(p, 0);
        self.arrivals.clear();
        for (i, t) in tuples.iter().enumerate() {
            let placed = Placed {
                sizes: &self.sizes,
                tables: &self.tables,
            };
            let b = choose(i, t, &placed);
            let slots = &mut self.slots[b];
            let slot = *self.tables[b].entry(t.key).or_insert_with(|| {
                slots.push(Slot { key: t.key, at: 0 });
                (slots.len() - 1) as u32
            });
            slots[slot as usize].at += 1;
            self.sizes[b] += 1;
            self.arrivals.push((b as u32, slot));
        }
        let mut blocks = self.spare.sized_row_blocks(&self.sizes, false);
        for ((block, slots), table) in blocks.iter_mut().zip(&mut self.slots).zip(&mut self.tables)
        {
            table.clear();
            self.order.clear();
            let keyed = slots
                .iter()
                .enumerate()
                .map(|(s, slot)| (slot.key.0, s as u32));
            self.order.extend(keyed);
            // A block's keys are unique, so an unstable sort gives one
            // order whatever order they first arrived in.
            self.order.sort_unstable();
            let mut at = 0;
            for &(key, s) in &self.order {
                let slot = &mut slots[s as usize];
                let count = slot.at;
                block.runs.push(KeyFragment {
                    key: Key(key),
                    count,
                });
                (slot.at, at) = (at, at + count);
            }
        }
        for (&(b, s), t) in self.arrivals.iter().zip(tuples) {
            let slot = &mut self.slots[b as usize][s as usize];
            blocks[b as usize].values[slot.at] = t.value;
            slot.at += 1;
        }
        self.slots.iter_mut().for_each(Vec::clear);
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

    /// The chooser sees what the first pass placed, and the counting sort
    /// lays each block out as one run per key, keys ascending, each key's
    /// values in the order they arrived.
    #[test]
    fn chooser_reads_what_the_loop_placed() {
        let keys = [2, 1, 2, 3, 3, 1];
        let tuples: Vec<Tuple> = (keys.iter().enumerate())
            .map(|(i, &k)| Tuple::new(Time(i as u64), Key(k), i as f64))
            .collect();
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
        let held: Vec<*const f64> = first.blocks.iter().map(|b| b.values.as_ptr()).collect();
        loop_.recycle(Plan::Rows(first));
        let second = loop_.place(&tuples, 4, true, |i, _, _| (i + 1) % 4);
        let again: Vec<*const f64> = second.blocks.iter().map(|b| b.values.as_ptr()).collect();
        assert_eq!(held, again, "the blocks are the recycled plan's");
        let fresh = PerTuple::default().place(&tuples, 4, true, |i, _, _| (i + 1) % 4);
        assert_eq!(second, fresh);
    }
}
