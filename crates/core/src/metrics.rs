//! Partitioning-imbalance cost model (§3.3, Eqns. 2–6).
//!
//! * **BSI** — Block Size-Imbalance: `max |Block_i| − avg |Block_i|`.
//! * **BCI** — Block Cardinality-Imbalance: `max ‖Block_i‖ − avg ‖Block_i‖`.
//! * **KSR** — Key Split Ratio: `Σ fragments / Σ keys` (1.0 when no key is
//!   split).
//! * **MPI** — Micro-batch Partitioning-Imbalance: `p1·BSI + p2·BCI + p3·KSR`
//!   with `p1+p2+p3 = 1` (the paper uses 1/3 each).
//!
//! All four are functions of the per-block fragment lists alone — a block's
//! size is the sum of its fragment counts, its cardinality their number
//! ([`PlanMetrics::of_blocks`]).
//!
//! BSI applies equally to Reduce buckets (Eqn. 3); the helpers here take any
//! slice of sizes.

use crate::batch::{total_keys, KeyFragment, PartitionPlan};

/// Size imbalance over raw sizes: `max − avg` (Eqns. 2 and 3).
///
/// Returns 0 for an empty slice.
pub fn size_imbalance(sizes: &[usize]) -> f64 {
    if sizes.is_empty() {
        return 0.0;
    }
    let max = *sizes.iter().max().expect("non-empty") as f64;
    let avg = sizes.iter().sum::<usize>() as f64 / sizes.len() as f64;
    max - avg
}

/// `|Block_i|` per block.
fn sizes(blocks: &[&[KeyFragment]]) -> Vec<usize> {
    let size = |b: &&[KeyFragment]| b.iter().map(|f| f.count).sum::<usize>();
    blocks.iter().map(size).collect()
}

/// Block Size-Imbalance of a partition plan (Eqn. 2).
pub fn bsi(plan: &PartitionPlan) -> f64 {
    bsi_of(&plan.block_fragments())
}

fn bsi_of(blocks: &[&[KeyFragment]]) -> f64 {
    size_imbalance(&sizes(blocks))
}

/// Block Cardinality-Imbalance of a partition plan (Eqn. 4).
pub fn bci(plan: &PartitionPlan) -> f64 {
    bci_of(&plan.block_fragments())
}

fn bci_of(blocks: &[&[KeyFragment]]) -> f64 {
    let cards: Vec<usize> = blocks.iter().map(|b| b.len()).collect();
    size_imbalance(&cards)
}

/// Key Split Ratio (Eqn. 5): total key fragments over distinct keys.
///
/// `1.0` means perfect key locality; `p` (the block count) is the worst case
/// where every key is split across every block. Returns 1.0 for an empty
/// plan.
pub fn ksr(plan: &PartitionPlan) -> f64 {
    ksr_over(&plan.block_fragments(), plan.total_keys())
}

/// [`ksr`] given the plan's distinct-key count (O(keys) to derive, so
/// callers that need it more than once compute it once).
fn ksr_over(blocks: &[&[KeyFragment]], keys: usize) -> f64 {
    if keys == 0 {
        return 1.0;
    }
    blocks.iter().map(|b| b.len()).sum::<usize>() as f64 / keys as f64
}

/// Weights of the combined MPI metric (Eqn. 6). Must sum to 1.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MpiWeights {
    /// Weight of BSI (`p1`). `p1 = 1` reproduces shuffle's objective.
    pub p1: f64,
    /// Weight of BCI (`p2`).
    pub p2: f64,
    /// Weight of KSR (`p3`). `p3 = 1` reproduces hashing's objective.
    pub p3: f64,
}

impl Default for MpiWeights {
    /// The paper's unbiased setting `p1 = p2 = p3 = 1/3`.
    fn default() -> Self {
        MpiWeights {
            p1: 1.0 / 3.0,
            p2: 1.0 / 3.0,
            p3: 1.0 / 3.0,
        }
    }
}

impl MpiWeights {
    /// Validate that the weights form a convex combination.
    pub fn validate(&self) -> Result<(), String> {
        let sum = self.p1 + self.p2 + self.p3;
        if (sum - 1.0).abs() > 1e-9 {
            return Err(format!("MPI weights must sum to 1, got {sum}"));
        }
        if self.p1 < 0.0 || self.p2 < 0.0 || self.p3 < 0.0 {
            return Err("MPI weights must be non-negative".into());
        }
        Ok(())
    }
}

/// The combined Micro-batch Partitioning-Imbalance (Eqn. 6).
///
/// BSI and BCI are normalised by the average block size / cardinality so the
/// three addends are commensurable (raw BSI is in tuples, KSR is a ratio);
/// the paper's relative-to-baseline reporting (Fig. 10) makes this
/// normalisation choice immaterial for comparisons.
pub fn mpi(plan: &PartitionPlan, w: MpiWeights) -> f64 {
    mpi_over(&plan.block_fragments(), plan.total_keys(), w)
}

/// [`mpi`] given the plan's distinct-key count.
fn mpi_over(blocks: &[&[KeyFragment]], keys: usize, w: MpiWeights) -> f64 {
    let p = blocks.len().max(1) as f64;
    let sizes = sizes(blocks);
    let avg_size = sizes.iter().sum::<usize>() as f64 / p;
    let avg_card = keys as f64 / p;
    let bsi_n = if avg_size > 0.0 {
        size_imbalance(&sizes) / avg_size
    } else {
        0.0
    };
    let bci_n = if avg_card > 0.0 {
        bci_of(blocks) / avg_card
    } else {
        0.0
    };
    w.p1 * bsi_n + w.p2 * bci_n + w.p3 * ksr_over(blocks, keys)
}

/// All four metrics of one plan, for experiment reporting.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct PlanMetrics {
    /// Block Size-Imbalance (tuples).
    pub bsi: f64,
    /// Block Cardinality-Imbalance (keys).
    pub bci: f64,
    /// Key Split Ratio (≥ 1).
    pub ksr: f64,
    /// Combined MPI under the default weights.
    pub mpi: f64,
}

impl PlanMetrics {
    /// Measure a plan. The distinct-key count behind KSR and MPI is taken
    /// once, from the fragments and the split-key table.
    pub fn of(plan: &PartitionPlan) -> PlanMetrics {
        let blocks = plan.block_fragments();
        PlanMetrics::of_blocks(&blocks, total_keys(&blocks, &plan.split_keys))
    }

    /// Measure a plan of either layout from its per-block fragment lists,
    /// for a caller that already counted their distinct keys
    /// ([`total_keys`]).
    pub fn of_blocks(blocks: &[&[KeyFragment]], keys: usize) -> PlanMetrics {
        PlanMetrics {
            bsi: bsi_of(blocks),
            bci: bci_of(blocks),
            ksr: ksr_over(blocks, keys),
            mpi: mpi_over(blocks, keys, MpiWeights::default()),
        }
    }
}

/// `value / baseline`, the relative reporting used in Fig. 10 (BSI relative
/// to hashing, BCI relative to shuffle). Returns 0 when the baseline is 0 and
/// the value is 0 too; saturates to `f64::INFINITY` when only the baseline
/// is 0.
pub fn relative(value: f64, baseline: f64) -> f64 {
    if baseline == 0.0 {
        if value == 0.0 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        value / baseline
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::DataBlock;
    use crate::types::Key;

    fn block(spec: &[(u64, usize)]) -> DataBlock {
        (spec.iter())
            .flat_map(|&(k, c)| std::iter::repeat_n((Key(k), 1.0), c))
            .collect()
    }

    #[test]
    fn perfectly_balanced_plan_scores_zero_imbalance() {
        let plan =
            PartitionPlan::from_blocks(vec![block(&[(1, 5), (2, 5)]), block(&[(3, 5), (4, 5)])]);
        assert_eq!(bsi(&plan), 0.0);
        assert_eq!(bci(&plan), 0.0);
        assert_eq!(ksr(&plan), 1.0);
        let m = mpi(&plan, MpiWeights::default());
        assert!((m - 1.0 / 3.0).abs() < 1e-12, "only the KSR term remains");
    }

    #[test]
    fn bsi_measures_max_minus_avg() {
        let plan =
            PartitionPlan::from_blocks(vec![block(&[(1, 10)]), block(&[(2, 4)]), block(&[(3, 4)])]);
        // sizes 10,4,4 → max 10, avg 6 → BSI 4
        assert_eq!(bsi(&plan), 4.0);
    }

    #[test]
    fn bci_measures_cardinality_spread() {
        let plan = PartitionPlan::from_blocks(vec![
            block(&[(1, 1), (2, 1), (3, 1), (4, 1)]),
            block(&[(5, 4)]),
        ]);
        // cards 4,1 → max 4, avg 2.5 → BCI 1.5
        assert_eq!(bci(&plan), 1.5);
    }

    #[test]
    fn ksr_counts_fragments() {
        // Key 1 split across both blocks: 2 keys total, 3 fragments.
        let plan = PartitionPlan::from_blocks(vec![block(&[(1, 3), (2, 2)]), block(&[(1, 2)])]);
        assert!((ksr(&plan) - 1.5).abs() < 1e-12);
        assert!(plan.split_keys.contains(&Key(1)));
    }

    #[test]
    fn empty_plan_is_neutral() {
        let plan = PartitionPlan::from_blocks(vec![]);
        assert_eq!(bsi(&plan), 0.0);
        assert_eq!(bci(&plan), 0.0);
        assert_eq!(ksr(&plan), 1.0);
    }

    #[test]
    fn weights_validation() {
        assert!(MpiWeights::default().validate().is_ok());
        assert!(MpiWeights {
            p1: 1.0,
            p2: 0.0,
            p3: 0.0
        }
        .validate()
        .is_ok());
        assert!(MpiWeights {
            p1: 0.5,
            p2: 0.5,
            p3: 0.5
        }
        .validate()
        .is_err());
        assert!(MpiWeights {
            p1: 1.5,
            p2: -0.5,
            p3: 0.0
        }
        .validate()
        .is_err());
    }

    /// The worked 3-worker example from the cost-model walkthrough: every
    /// metric pinned to its hand-computed value.
    ///
    /// Three blocks: A = {k1×8, k2×4}, B = {k2×2, k3×5, k4×2},
    /// C = {k5×6, k6×3}. So sizes are (12, 9, 9), cardinalities (2, 3, 2),
    /// 6 distinct keys in 7 fragments (only k2 is split).
    #[test]
    fn worked_three_worker_example_pins_all_metrics() {
        let plan = PartitionPlan::from_blocks(vec![
            block(&[(1, 8), (2, 4)]),
            block(&[(2, 2), (3, 5), (4, 2)]),
            block(&[(5, 6), (6, 3)]),
        ]);
        assert_eq!(plan.total_tuples(), 30);
        assert_eq!(plan.total_keys(), 6);
        assert_eq!(plan.total_fragments(), 7);
        assert_eq!(plan.split_keys.len(), 1);
        assert!(plan.split_keys.contains(&Key(2)));

        // Eqn. 2: BSI = max size − avg size = 12 − 30/3 = 2.
        assert_eq!(bsi(&plan), 2.0);
        // Eqn. 4: BCI = max card − avg card = 3 − 7/3 = 2/3.
        assert!((bci(&plan) - 2.0 / 3.0).abs() < 1e-12);
        // Eqn. 5: KSR = fragments / keys = 7/6.
        assert!((ksr(&plan) - 7.0 / 6.0).abs() < 1e-12);
        // Eqn. 6 with p1 = p2 = p3 = 1/3 and the normalised addends
        // BSI/avg_size = 2/10 and BCI/avg_card = (2/3)/2 = 1/3:
        // MPI = (1/5 + 1/3 + 7/6)/3 = 51/90 = 17/30.
        let m = mpi(&plan, MpiWeights::default());
        assert!((m - 17.0 / 30.0).abs() < 1e-12, "got {m}");

        // Degenerate weights recover the single-objective baselines.
        let only_bsi = mpi(
            &plan,
            MpiWeights {
                p1: 1.0,
                p2: 0.0,
                p3: 0.0,
            },
        );
        assert!((only_bsi - 0.2).abs() < 1e-12);
        let only_ksr = mpi(
            &plan,
            MpiWeights {
                p1: 0.0,
                p2: 0.0,
                p3: 1.0,
            },
        );
        assert!((only_ksr - 7.0 / 6.0).abs() < 1e-12);

        // And the bundle agrees with the individual functions.
        let pm = PlanMetrics::of(&plan);
        assert_eq!(pm.bsi, bsi(&plan));
        assert_eq!(pm.bci, bci(&plan));
        assert_eq!(pm.ksr, ksr(&plan));
        assert_eq!(pm.mpi, m);
    }

    #[test]
    fn relative_handles_zero_baseline() {
        assert_eq!(relative(4.0, 2.0), 2.0);
        assert_eq!(relative(0.0, 0.0), 0.0);
        assert!(relative(1.0, 0.0).is_infinite());
    }

    #[test]
    fn plan_metrics_bundles_all() {
        let plan = PartitionPlan::from_blocks(vec![block(&[(1, 6)]), block(&[(2, 2), (3, 2)])]);
        let m = PlanMetrics::of(&plan);
        assert_eq!(m.bsi, 1.0); // sizes 6,4 → max 6 avg 5
        assert_eq!(m.bci, 0.5); // cards 1,2 → max 2 avg 1.5
        assert_eq!(m.ksr, 1.0);
        assert!(m.mpi > 0.0);
    }
}
