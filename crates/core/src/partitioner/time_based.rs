//! Time-based partitioning (§2.2.1, Fig. 4a): Spark Streaming's default.
//!
//! The batch interval is split into `p` equal, consecutive *block intervals*;
//! every tuple lands in the block of its arrival slot. Block sizes therefore
//! track the instantaneous data rate: a rate spike inside one slot inflates
//! that slot's block, which is exactly the weakness Fig. 11 exposes.

use crate::batch::{Columns, PartitionPlan};
use crate::partitioner::per_tuple::PerTuple;
use crate::partitioner::{PartitionPhases, Partitioner};
use crate::types::{Interval, Tuple};

/// Time-based (arrival-slot) partitioner.
#[derive(Debug, Default, Clone)]
pub struct TimeBasedPartitioner {
    blocks: PerTuple,
}

impl TimeBasedPartitioner {
    /// Construct the partitioner (it decides from arrival times alone).
    pub fn new() -> TimeBasedPartitioner {
        TimeBasedPartitioner::default()
    }
}

impl Partitioner for TimeBasedPartitioner {
    fn name(&self) -> &'static str {
        "Time-based"
    }

    fn partition_slice(
        &mut self,
        tuples: &[Tuple],
        interval: Interval,
        p: usize,
        columns: Columns,
    ) -> (PartitionPlan, PartitionPhases) {
        let span = interval.len().as_micros().max(1);
        let start = interval.start.as_micros();
        let plan = self.blocks.place(tuples, p, true, columns, |_, t, _| {
            // Slot index by arrival time; clamp tuples at/after the interval
            // end (e.g. boundary timestamps) into the last slot.
            let offset = t.ts.as_micros().saturating_sub(start);
            let slot = ((offset as u128 * p as u128) / span as u128) as usize;
            slot.min(p - 1)
        });
        (plan, PartitionPhases::default())
    }

    fn recycle(&mut self, plan: PartitionPlan) {
        self.blocks.recycle(plan);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::MicroBatch;
    use crate::partitioner::test_support::*;
    use crate::types::{Key, Time};

    #[test]
    fn uniform_rate_gives_equal_blocks() {
        let batch = skewed_batch(&[(1, 50), (2, 50)]);
        let mut part = TimeBasedPartitioner::new();
        let plan = part.partition(&batch, 4);
        assert_plan_valid(&batch, &plan, 4);
        let sizes: Vec<usize> = plan.blocks.iter().map(|b| b.size()).collect();
        let max = *sizes.iter().max().unwrap();
        let min = *sizes.iter().min().unwrap();
        assert!(max - min <= 2, "uniform arrivals should balance: {sizes:?}");
    }

    #[test]
    fn bursty_rate_gives_unequal_blocks() {
        // All tuples arrive in the first quarter of the interval.
        let iv = Interval::new(Time::ZERO, Time::from_secs(4));
        let tuples: Vec<Tuple> = (0..100)
            .map(|i| Tuple::keyed(Time::from_millis(i * 10), Key(i % 7)))
            .collect();
        let batch = MicroBatch::new(tuples, iv);
        let mut part = TimeBasedPartitioner::new();
        let plan = part.partition(&batch, 4);
        assert_plan_valid(&batch, &plan, 4);
        assert_eq!(plan.blocks[0].size(), 100, "burst lands in slot 0");
        assert_eq!(plan.blocks[3].size(), 0);
    }

    #[test]
    fn boundary_timestamp_clamps_to_last_block() {
        let iv = Interval::new(Time::ZERO, Time::from_secs(1));
        let batch = MicroBatch::new(vec![Tuple::keyed(Time::from_secs(1), Key(1))], iv);
        let plan = TimeBasedPartitioner::new().partition(&batch, 3);
        assert_eq!(plan.blocks[2].size(), 1);
    }

    #[test]
    fn no_key_locality_guarantee() {
        // The same key spread over time is split across blocks.
        let iv = Interval::new(Time::ZERO, Time::from_secs(1));
        let tuples: Vec<Tuple> = (0..8)
            .map(|i| Tuple::keyed(Time::from_millis(i * 125), Key(1)))
            .collect();
        let batch = MicroBatch::new(tuples, iv);
        let plan = TimeBasedPartitioner::new().partition(&batch, 4);
        assert!(plan.split_keys.contains(&Key(1)));
    }
}
