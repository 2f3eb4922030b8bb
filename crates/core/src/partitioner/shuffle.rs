//! Shuffle partitioning (§2.2.2, Fig. 4b): round-robin over arrival order.
//!
//! Guarantees equal block sizes regardless of the data rate, but provides no
//! key locality: tuples of one key scatter across (up to) all blocks, which
//! inflates the per-key aggregation work of the Reduce stage.

use crate::batch::PartitionPlan;
use crate::partitioner::per_tuple::PerTuple;
use crate::partitioner::{PartitionPhases, Partitioner};
use crate::types::{Interval, Tuple};

/// Round-robin partitioner.
#[derive(Debug, Default, Clone)]
pub struct ShufflePartitioner {
    blocks: PerTuple,
}

impl ShufflePartitioner {
    /// Construct the partitioner (it decides from the arrival order alone).
    pub fn new() -> ShufflePartitioner {
        ShufflePartitioner::default()
    }
}

impl Partitioner for ShufflePartitioner {
    fn name(&self) -> &'static str {
        "Shuffle"
    }

    fn partition_slice(
        &mut self,
        tuples: &[Tuple],
        _interval: Interval,
        p: usize,
    ) -> (PartitionPlan, PartitionPhases) {
        let plan = self.blocks.place(tuples, p, true, |i, _, _| i % p);
        (plan, PartitionPhases::default())
    }

    fn recycle(&mut self, plan: PartitionPlan) {
        self.blocks.recycle(plan);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics;
    use crate::partitioner::test_support::*;

    #[test]
    fn blocks_differ_by_at_most_one() {
        let batch = zipfish_batch(13, 97);
        let mut part = ShufflePartitioner::new();
        for p in [2usize, 3, 5, 8] {
            let plan = part.partition(&batch, p);
            assert_plan_valid(&batch, &plan, p);
            let sizes: Vec<usize> = plan.blocks.iter().map(|b| b.size()).collect();
            let max = *sizes.iter().max().unwrap();
            let min = *sizes.iter().min().unwrap();
            assert!(max - min <= 1, "round-robin sizes: {sizes:?}");
            assert!(metrics::bsi(&plan) < 1.0);
        }
    }

    #[test]
    fn skewed_keys_are_heavily_split() {
        // One dominant key: shuffle splits it across every block.
        let batch = skewed_batch(&[(1, 100), (2, 4)]);
        let plan = ShufflePartitioner::new().partition(&batch, 4);
        assert!(plan.split_keys.contains(&crate::types::Key(1)));
        assert!(metrics::ksr(&plan) > 1.5, "shuffle should shred locality");
    }

    #[test]
    fn single_block_degenerates_gracefully() {
        let batch = skewed_batch(&[(1, 10)]);
        let plan = ShufflePartitioner::new().partition(&batch, 1);
        assert_eq!(plan.blocks[0].size(), 10);
        assert!(plan.split_keys.is_empty());
    }
}
