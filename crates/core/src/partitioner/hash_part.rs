//! Hash partitioning / key grouping (§2.2.3, Fig. 4c).
//!
//! Every tuple is routed by a hash of its key, so all tuples of a key share
//! one block (perfect key locality, KSR = 1) — but under skew the block that
//! receives a hot key balloons, producing the size imbalance that Fig. 10
//! normalises every other technique against.

use crate::batch::{KeyFragment, PartitionPlan};
use crate::hash::{bucket_of, KeyMap, KeySet};
use crate::partitioner::{Partitioner, Plan, Spare};
use crate::types::{Interval, Tuple};

/// Key-grouping (hash) partitioner.
#[derive(Debug)]
pub struct HashPartitioner {
    seed: u64,
    /// Each block's per-key counts, refilled every batch.
    counts: Vec<KeyMap<usize>>,
    /// The buffers of the last plan handed back.
    spare: Spare,
}

impl HashPartitioner {
    /// Construct with a hash seed (deterministic across runs).
    pub fn new(seed: u64) -> HashPartitioner {
        HashPartitioner {
            seed,
            counts: Vec::new(),
            spare: Spare::default(),
        }
    }
}

impl Partitioner for HashPartitioner {
    fn name(&self) -> &'static str {
        "Hash"
    }

    fn partition_slice(
        &mut self,
        tuples: &[Tuple],
        _interval: Interval,
        p: usize,
    ) -> PartitionPlan {
        assert!(p > 0, "need at least one block");
        let mut blocks = self.spare.row_blocks(p);
        self.counts.resize_with(p, KeyMap::default);
        for block in &mut blocks {
            block.tuples.reserve(tuples.len() / p + 1);
        }
        for &t in tuples {
            let b = bucket_of(self.seed, t.key, p);
            blocks[b].tuples.push(t);
            *self.counts[b].entry(t.key).or_insert(0) += 1;
        }
        for (block, counts) in blocks.iter_mut().zip(&mut self.counts) {
            let fragments = counts
                .drain()
                .map(|(key, count)| KeyFragment { key, count });
            block.fragments.extend(fragments);
            // Keys are unique, so an unstable sort gives one order whatever
            // the table's iteration order.
            block.fragments.sort_unstable_by_key(|f| f.key.0);
        }
        // A key's tuples all hash to one block, so the split-key reference
        // table is empty by construction: nothing to derive.
        PartitionPlan {
            blocks,
            split_keys: KeySet::default(),
        }
    }

    fn recycle(&mut self, plan: Plan) {
        self.spare.keep(plan);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics;
    use crate::partitioner::test_support::*;

    #[test]
    fn perfect_key_locality() {
        let batch = zipfish_batch(50, 120);
        let plan = HashPartitioner::new(3).partition(&batch, 8);
        assert_plan_valid(&batch, &plan, 8);
        assert!(plan.split_keys.is_empty(), "hashing never splits keys");
        assert_eq!(metrics::ksr(&plan), 1.0);
    }

    #[test]
    fn skew_causes_size_imbalance() {
        // One key holds 80% of the batch: its block dwarfs the rest.
        let batch = skewed_batch(&[(1, 800), (2, 50), (3, 50), (4, 50), (5, 50)]);
        let plan = HashPartitioner::new(3).partition(&batch, 4);
        assert_plan_valid(&batch, &plan, 4);
        assert!(
            metrics::bsi(&plan) > 100.0,
            "hot key should create imbalance, BSI = {}",
            metrics::bsi(&plan)
        );
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let batch = zipfish_batch(20, 60);
        let a = HashPartitioner::new(11).partition(&batch, 4);
        let b = HashPartitioner::new(11).partition(&batch, 4);
        for (x, y) in a.blocks.iter().zip(&b.blocks) {
            assert_eq!(x.size(), y.size());
            assert_eq!(x.fragments, y.fragments);
        }
    }

    #[test]
    fn different_seeds_give_different_layouts() {
        let batch = zipfish_batch(64, 64);
        let a = HashPartitioner::new(1).partition(&batch, 8);
        let b = HashPartitioner::new(2).partition(&batch, 8);
        let sa: Vec<usize> = a.blocks.iter().map(|x| x.size()).collect();
        let sb: Vec<usize> = b.blocks.iter().map(|x| x.size()).collect();
        assert_ne!(sa, sb, "seed should influence the layout");
    }
}
