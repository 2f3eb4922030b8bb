//! Partial key grouping — PK-d (§2.2.4; Nasir et al. ICDE'15/'16).
//!
//! Each key has `d` candidate blocks given by `d` independent hash functions;
//! every arriving tuple goes to the least-loaded candidate ("the power of
//! both choices", generalised to `d = 5` in PK5). Keys thus split over at
//! most `d` blocks, trading a bounded loss of locality for much better size
//! balance than plain hashing.
//!
//! As in the original per-tuple setting, the decision uses only the running
//! block sizes — no batch-wide statistics.

use crate::batch::{Columns, PartitionPlan};
use crate::hash::HashFamily;
use crate::partitioner::per_tuple::PerTuple;
use crate::partitioner::{PartitionPhases, Partitioner};
use crate::types::{Interval, Tuple};

/// PK-d partitioner with `d` candidate blocks per key.
#[derive(Debug, Clone)]
pub struct PkgPartitioner {
    family: HashFamily,
    d: usize,
    blocks: PerTuple,
}

impl PkgPartitioner {
    /// Construct with a seed and the number of candidates `d ≥ 1`.
    pub fn new(seed: u64, d: usize) -> PkgPartitioner {
        assert!(d >= 1, "PK-d needs at least one choice");
        PkgPartitioner {
            family: HashFamily::new(seed, d),
            d,
            blocks: PerTuple::default(),
        }
    }

    /// The number of candidate blocks per key.
    pub fn choices(&self) -> usize {
        self.d
    }
}

impl Partitioner for PkgPartitioner {
    fn name(&self) -> &'static str {
        "PK-d"
    }

    fn partition_slice(
        &mut self,
        tuples: &[Tuple],
        _interval: Interval,
        p: usize,
        columns: Columns,
    ) -> (PartitionPlan, PartitionPhases) {
        let plan = self.blocks.place(tuples, p, true, columns, |_, t, placed| {
            // Least-loaded among the d candidates (first minimum wins, which
            // keeps the decision deterministic).
            (self.family.candidates(t.key, p))
                .min_by_key(|&b| (placed.size(b), b))
                .expect("family is non-empty")
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
    use crate::metrics;
    use crate::partitioner::test_support::*;
    use crate::types::Key;

    #[test]
    fn keys_split_over_at_most_d_blocks() {
        let batch = zipfish_batch(30, 300);
        for d in [2usize, 5] {
            let plan = PkgPartitioner::new(9, d).partition(&batch, 16);
            assert_plan_valid(&batch, &plan, 16);
            // Count blocks per key.
            use crate::hash::KeyMap;
            let mut blocks_per_key: KeyMap<usize> = KeyMap::default();
            for b in &plan.blocks {
                for f in &b.runs {
                    *blocks_per_key.entry(f.key).or_insert(0) += 1;
                }
            }
            for (k, n) in blocks_per_key {
                assert!(n <= d, "key {k:?} split over {n} > d = {d} blocks");
            }
        }
    }

    #[test]
    fn better_balance_than_hash_under_skew() {
        let batch = skewed_batch(&[(1, 1000), (2, 60), (3, 60), (4, 60), (5, 60)]);
        let hash_plan = crate::partitioner::HashPartitioner::new(9).partition(&batch, 4);
        let pkg_plan = PkgPartitioner::new(9, 2).partition(&batch, 4);
        assert!(
            metrics::bsi(&pkg_plan) < metrics::bsi(&hash_plan),
            "PK2 BSI {} should beat hash BSI {}",
            metrics::bsi(&pkg_plan),
            metrics::bsi(&hash_plan)
        );
    }

    #[test]
    fn pk5_balances_better_than_pk2_on_hot_keys() {
        let batch = skewed_batch(&[(1, 2000), (2, 2000), (3, 100), (4, 100)]);
        let pk2 = PkgPartitioner::new(3, 2).partition(&batch, 8);
        let pk5 = PkgPartitioner::new(3, 5).partition(&batch, 8);
        assert!(
            metrics::bsi(&pk5) <= metrics::bsi(&pk2) + 1.0,
            "more choices should not hurt balance much: PK5 {} vs PK2 {}",
            metrics::bsi(&pk5),
            metrics::bsi(&pk2)
        );
    }

    #[test]
    fn d_one_degenerates_to_hashing() {
        let batch = zipfish_batch(25, 80);
        let plan = PkgPartitioner::new(5, 1).partition(&batch, 4);
        assert!(plan.split_keys.is_empty(), "d = 1 cannot split keys");
        assert_eq!(metrics::ksr(&plan), 1.0);
    }

    #[test]
    fn choices_accessor() {
        assert_eq!(PkgPartitioner::new(0, 5).choices(), 5);
    }

    #[test]
    fn heavy_key_actually_splits() {
        let batch = skewed_batch(&[(1, 500), (2, 3), (3, 3)]);
        let plan = PkgPartitioner::new(1, 2).partition(&batch, 8);
        assert!(
            plan.split_keys.contains(&Key(1)),
            "hot key should use both choices"
        );
    }
}
