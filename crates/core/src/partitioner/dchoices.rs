//! D-Choices: heavy-hitter-aware partial key grouping (Nasir et al.,
//! ICDE 2016 — "When two choices are not enough").
//!
//! Plain PKG gives *every* key two candidate blocks, which splits even rare
//! keys and inflates the aggregation cost. The ICDE'16 refinement detects
//! the heavy hitters online (here with a [`SpaceSaving`] sketch, as in the
//! original) and gives only them `d` candidate blocks; the long tail routes
//! by a single hash, preserving its key locality.

use crate::batch::PartitionPlan;
use crate::hash::{bucket_of, HashFamily};
use crate::partitioner::per_tuple::PerTuple;
use crate::partitioner::{PartitionPhases, Partitioner};
use crate::sketch::SpaceSaving;
use crate::types::{Interval, Tuple};

/// Default heavy-hitter frequency threshold (fraction of the stream).
pub const DEFAULT_PHI: f64 = 0.001;

/// Heavy-hitter-aware d-choices partitioner.
#[derive(Debug, Clone)]
pub struct DChoicesPartitioner {
    family: HashFamily,
    seed: u64,
    d: usize,
    phi: f64,
    sketch_counters: usize,
    blocks: PerTuple,
}

impl DChoicesPartitioner {
    /// Construct with `d ≥ 2` choices for heavy hitters and the default
    /// detection threshold.
    pub fn new(seed: u64, d: usize) -> DChoicesPartitioner {
        DChoicesPartitioner::with_phi(seed, d, DEFAULT_PHI)
    }

    /// Construct with an explicit heavy-hitter threshold `phi`.
    pub fn with_phi(seed: u64, d: usize, phi: f64) -> DChoicesPartitioner {
        assert!(d >= 2, "d-choices needs at least two choices");
        assert!(phi > 0.0 && phi < 1.0, "phi must be a fraction");
        DChoicesPartitioner {
            family: HashFamily::new(seed, d),
            seed,
            d,
            phi,
            // Counters sized so every key above phi is guaranteed tracked.
            sketch_counters: (2.0 / phi).ceil() as usize,
            blocks: PerTuple::default(),
        }
    }

    /// Number of candidate blocks given to heavy hitters.
    pub fn choices(&self) -> usize {
        self.d
    }

    /// Heavy-hitter detection threshold.
    pub fn phi(&self) -> f64 {
        self.phi
    }

    /// The select phase: run the arrivals through the heavy-hitter sketch
    /// and flag every tuple whose key is heavy as of its own arrival.
    fn flag_heavy(&self, tuples: &[Tuple]) -> Vec<bool> {
        let mut sketch = SpaceSaving::new(self.sketch_counters);
        tuples
            .iter()
            .map(|t| {
                sketch.observe(t.key);
                sketch.is_heavy(t.key, self.phi)
            })
            .collect()
    }
}

impl Partitioner for DChoicesPartitioner {
    fn name(&self) -> &'static str {
        "D-Choices"
    }

    fn partition_slice(
        &mut self,
        tuples: &[Tuple],
        _interval: Interval,
        p: usize,
    ) -> (PartitionPlan, PartitionPhases) {
        // The sketch probe is the technique-specific select/score work,
        // timed apart from placement so stage-breakdown tables can
        // attribute it.
        let t0 = std::time::Instant::now();
        let heavy = self.flag_heavy(tuples);
        let select_us = t0.elapsed().as_micros() as u64;
        let t1 = std::time::Instant::now();
        let plan = self.blocks.place(tuples, p, true, |i, t, placed| {
            if heavy[i] {
                // Heavy: least-loaded of the d candidates.
                (self.family.candidates(t.key, p))
                    .min_by_key(|&b| (placed.size(b), b))
                    .expect("family non-empty")
            } else {
                // Tail: single hash keeps locality.
                bucket_of(self.seed, t.key, p)
            }
        });
        let materialize_us = t1.elapsed().as_micros() as u64;
        let phases = PartitionPhases {
            select_us,
            materialize_us,
            ..PartitionPhases::default()
        };
        (plan, phases)
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
    use crate::partitioner::PkgPartitioner;
    use crate::types::Key;

    #[test]
    fn valid_plans() {
        let batch = zipfish_batch(60, 600);
        for d in [2usize, 5] {
            let plan = DChoicesPartitioner::new(7, d).partition(&batch, 8);
            assert_plan_valid(&batch, &plan, 8);
        }
    }

    #[test]
    fn tail_keys_keep_locality_heavy_keys_split() {
        // One dominant key plus a long uniform tail.
        let mut spec = vec![(1u64, 5_000usize)];
        spec.extend((2..200u64).map(|k| (k, 10)));
        let batch = skewed_batch(&spec);
        let plan = DChoicesPartitioner::with_phi(3, 5, 0.01).partition(&batch, 8);
        assert_plan_valid(&batch, &plan, 8);
        assert!(
            plan.split_keys.contains(&Key(1)),
            "the hot key must use its choices"
        );
        // The tail stays unsplit: far fewer split keys than PKG.
        let pkg_plan = PkgPartitioner::new(3, 5).partition(&batch, 8);
        assert!(
            plan.split_keys.len() * 4 < pkg_plan.split_keys.len().max(1) * 5,
            "d-choices split {} keys vs PKG {}",
            plan.split_keys.len(),
            pkg_plan.split_keys.len()
        );
        assert!(metrics::ksr(&plan) < metrics::ksr(&pkg_plan));
    }

    #[test]
    fn balances_the_hot_key_like_pkg() {
        let mut spec = vec![(1u64, 4_000usize)];
        spec.extend((2..50u64).map(|k| (k, 20)));
        let batch = skewed_batch(&spec);
        let dchoices = DChoicesPartitioner::with_phi(3, 5, 0.01).partition(&batch, 8);
        let hash = crate::partitioner::HashPartitioner::new(3).partition(&batch, 8);
        assert!(
            metrics::bsi(&dchoices) < metrics::bsi(&hash) / 2.0,
            "d-choices BSI {} vs hash {}",
            metrics::bsi(&dchoices),
            metrics::bsi(&hash)
        );
    }

    #[test]
    fn phased_path_is_bit_identical_to_plain() {
        let batch = zipfish_batch(60, 600);
        let (plan, phases) =
            DChoicesPartitioner::new(7, 5).partition_slice(&batch.tuples, batch.interval, 8);
        let plain = DChoicesPartitioner::new(7, 5).partition(&batch, 8);
        assert_plan_valid(&batch, &plan, 8);
        assert_eq!(plan.blocks.len(), plain.blocks.len());
        for (a, b) in plan.blocks.iter().zip(&plain.blocks) {
            assert_eq!(a.size(), b.size());
            assert_eq!(a.runs, b.runs);
        }
        // Only the select/materialize phases are populated (no seal or
        // symbolic stage in d-choices); values are wall-clock and may be 0.
        assert_eq!(phases.seal_us, 0);
        assert_eq!(phases.symbolic_us, 0);
    }

    #[test]
    fn accessors_and_validation() {
        let d = DChoicesPartitioner::with_phi(0, 4, 0.05);
        assert_eq!(d.choices(), 4);
        assert_eq!(d.phi(), 0.05);
        assert_eq!(d.name(), "D-Choices");
    }

    #[test]
    #[should_panic(expected = "at least two choices")]
    fn single_choice_rejected() {
        let _ = DChoicesPartitioner::new(0, 1);
    }
}
