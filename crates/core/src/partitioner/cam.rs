//! Cardinality-aware mixing — cAM (Katsipoulakis et al., "A holistic view of
//! stream partitioning costs", VLDB 2017).
//!
//! Like PK-d, every key has `d` candidate blocks; unlike PK-d, the per-tuple
//! choice optimises a *holistic* cost that mixes tuple-count imbalance with
//! key-cardinality imbalance (the aggregation cost proxy):
//!
//! * a candidate that already holds the key adds no cardinality, so among
//!   those the least-loaded wins;
//! * otherwise the candidate minimising `size + γ·cardinality` wins, where
//!   γ weighs the relative aggregation cost of introducing a new key
//!   fragment.
//!
//! The paper's evaluation (§7) sweeps the number of candidates per key for
//! cAM and reports the best configuration; the harness does the same.

use crate::batch::{Columns, PartitionPlan};
use crate::hash::{HashFamily, KeySet};
use crate::partitioner::per_tuple::PerTuple;
use crate::partitioner::{PartitionPhases, Partitioner};
use crate::types::{Interval, Tuple};

/// Default weight of the cardinality term in the placement cost.
pub const DEFAULT_GAMMA: f64 = 1.0;

/// cAM partitioner with `d` candidates per key.
#[derive(Debug, Clone)]
pub struct CamPartitioner {
    family: HashFamily,
    d: usize,
    gamma: f64,
    /// Each block's keys so far.
    key_sets: Vec<KeySet>,
    blocks: PerTuple,
}

impl CamPartitioner {
    /// Construct with a seed and `d ≥ 1` candidates, default γ.
    pub fn new(seed: u64, d: usize) -> CamPartitioner {
        CamPartitioner::with_gamma(seed, d, DEFAULT_GAMMA)
    }

    /// Construct with an explicit cardinality weight γ ≥ 0.
    pub fn with_gamma(seed: u64, d: usize, gamma: f64) -> CamPartitioner {
        assert!(d >= 1, "cAM needs at least one candidate");
        assert!(gamma >= 0.0, "gamma must be non-negative");
        CamPartitioner {
            family: HashFamily::new(seed, d),
            d,
            gamma,
            key_sets: Vec::new(),
            blocks: PerTuple::default(),
        }
    }

    /// Number of candidate blocks per key.
    pub fn choices(&self) -> usize {
        self.d
    }
}

impl Partitioner for CamPartitioner {
    fn name(&self) -> &'static str {
        "cAM"
    }

    fn partition_slice(
        &mut self,
        tuples: &[Tuple],
        _interval: Interval,
        p: usize,
        columns: Columns,
    ) -> (PartitionPlan, PartitionPhases) {
        // The loop counts sizes only: the key sets the choice reads are
        // cAM's own, one per block, cleared each batch and kept.
        self.key_sets.iter_mut().for_each(KeySet::clear);
        self.key_sets.resize_with(p, KeySet::default);
        let (family, gamma, sets) = (&self.family, self.gamma, &mut self.key_sets);
        let plan = self.blocks.place(tuples, p, true, columns, |_, t, placed| {
            let candidates = || family.candidates(t.key, p);
            let holds = |b: usize| sets[b].contains(&t.key);
            let cost = |b: usize| placed.size(b) as f64 + gamma * sets[b].len() as f64;
            // Candidates that hold the key compare by size only, the others
            // by `cost`; the first minimum wins.
            let local = (candidates().filter(|&b| holds(b))).min_by_key(|&b| (placed.size(b), b));
            let fresh = (candidates().filter(|&b| !holds(b)))
                .map(|b| (cost(b), b))
                .min_by(|x, y| x.partial_cmp(y).expect("costs are finite"));
            // Prefer a candidate that already holds the key unless a fresh
            // candidate is strictly cheaper even after paying the
            // cardinality penalty.
            let b = match (local, fresh) {
                (Some(lb), Some((cost, b))) if cost + gamma < placed.size(lb) as f64 => b,
                (Some(lb), _) => lb,
                (None, fresh) => fresh.expect("family is non-empty").1,
            };
            sets[b].insert(t.key);
            b
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
    use crate::partitioner::{HashPartitioner, PkgPartitioner, ShufflePartitioner};

    #[test]
    fn valid_plans_across_candidate_counts() {
        let batch = zipfish_batch(60, 240);
        for d in [1usize, 2, 4, 8] {
            let plan = CamPartitioner::new(13, d).partition(&batch, 8);
            assert_plan_valid(&batch, &plan, 8);
        }
    }

    #[test]
    fn keys_split_over_at_most_d_blocks() {
        let batch = zipfish_batch(30, 400);
        let d = 3;
        let plan = CamPartitioner::new(2, d).partition(&batch, 12);
        use crate::hash::KeyMap;
        let mut blocks_per_key: KeyMap<usize> = KeyMap::default();
        for b in &plan.blocks {
            for f in &b.runs {
                *blocks_per_key.entry(f.key).or_insert(0) += 1;
            }
        }
        assert!(blocks_per_key.values().all(|&n| n <= d));
    }

    #[test]
    fn lower_cardinality_imbalance_than_pkg() {
        // Many distinct rare keys plus hot keys: cAM's cardinality term
        // should spread key counts more evenly than pure least-loaded.
        let mut spec: Vec<(u64, usize)> = vec![(1, 500), (2, 400)];
        spec.extend((3..200u64).map(|k| (k, 3)));
        let batch = skewed_batch(&spec);
        let cam = CamPartitioner::new(5, 4).partition(&batch, 8);
        let pkg = PkgPartitioner::new(5, 4).partition(&batch, 8);
        assert!(
            metrics::bci(&cam) <= metrics::bci(&pkg) + 1.0,
            "cAM BCI {} should not exceed PKG BCI {} by much",
            metrics::bci(&cam),
            metrics::bci(&pkg)
        );
    }

    #[test]
    fn better_locality_than_shuffle_better_balance_than_hash() {
        let batch = skewed_batch(&[(1, 600), (2, 300), (3, 100), (4, 50), (5, 50)]);
        let cam = CamPartitioner::new(3, 4).partition(&batch, 4);
        let shuffle = ShufflePartitioner::new().partition(&batch, 4);
        let hash = HashPartitioner::new(3).partition(&batch, 4);
        assert!(metrics::ksr(&cam) < metrics::ksr(&shuffle));
        assert!(metrics::bsi(&cam) < metrics::bsi(&hash));
    }

    #[test]
    fn gamma_zero_reduces_to_pkg_like_behaviour() {
        let batch = zipfish_batch(40, 100);
        let cam = CamPartitioner::with_gamma(7, 2, 0.0).partition(&batch, 4);
        assert_plan_valid(&batch, &cam, 4);
        // With gamma = 0 the cost is pure size, so balance matches PK2.
        let pkg = PkgPartitioner::new(7, 2).partition(&batch, 4);
        assert!((metrics::bsi(&cam) - metrics::bsi(&pkg)).abs() <= 2.0);
    }

    /// cAM's key sets are cleared each batch, not dropped: batch after batch,
    /// at fewer blocks and at more, a recycled instance places what a fresh
    /// one places.
    #[test]
    fn a_recycled_instance_places_as_a_fresh_one() {
        let batches = [zipfish_batch(80, 300), zipfish_batch(40, 500)];
        let mut cam = CamPartitioner::new(9, 3);
        for (i, p) in [8, 3, 12, 8].into_iter().enumerate() {
            let batch = &batches[i % 2];
            let plan = cam.partition(batch, p);
            assert_eq!(plan, CamPartitioner::new(9, 3).partition(batch, p), "p={p}");
            cam.recycle(plan);
        }
    }

    #[test]
    #[should_panic(expected = "gamma must be non-negative")]
    fn negative_gamma_rejected() {
        let _ = CamPartitioner::with_gamma(0, 2, -1.0);
    }
}
