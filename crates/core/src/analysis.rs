//! Plan diagnostics: a human-readable breakdown of a partition plan, used
//! by the CLI's verbose mode and by debugging sessions ("why is this block
//! the straggler?").

use crate::batch::PartitionPlan;
use crate::hash::KeyMap;
use crate::metrics::PlanMetrics;
use crate::types::Key;

/// Per-block row of a plan report.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BlockRow {
    /// Block index.
    pub block: usize,
    /// Tuples in the block.
    pub size: usize,
    /// Distinct keys in the block.
    pub cardinality: usize,
    /// How many of the block's keys are split across other blocks.
    pub split_keys: usize,
}

/// A diagnostic breakdown of one [`PartitionPlan`].
#[derive(Clone, Debug)]
pub struct PlanReport {
    /// Imbalance metrics of the plan.
    pub metrics: PlanMetrics,
    /// One row per block, in block order.
    pub blocks: Vec<BlockRow>,
    /// The most-fragmented keys: `(key, total tuples, blocks touched)`,
    /// sorted by blocks touched then size, descending.
    pub top_split_keys: Vec<(Key, usize, usize)>,
}

impl PlanReport {
    /// Analyse a plan, keeping the `top_n` most-fragmented keys.
    pub fn analyse(plan: &PartitionPlan, top_n: usize) -> PlanReport {
        let mut per_key: KeyMap<(usize, usize)> = KeyMap::default(); // (tuples, blocks)
        for block in &plan.blocks {
            for f in &block.runs {
                let e = per_key.entry(f.key).or_insert((0, 0));
                e.0 += f.count;
                e.1 += 1;
            }
        }
        let blocks = plan
            .blocks
            .iter()
            .enumerate()
            .map(|(i, b)| BlockRow {
                block: i,
                size: b.size(),
                cardinality: b.cardinality(),
                split_keys: b
                    .runs
                    .iter()
                    .filter(|f| plan.split_keys.contains(&f.key))
                    .count(),
            })
            .collect();
        let mut top_split_keys: Vec<(Key, usize, usize)> = per_key
            .into_iter()
            .filter(|&(_, (_, nblocks))| nblocks > 1)
            .map(|(k, (tuples, nblocks))| (k, tuples, nblocks))
            .collect();
        top_split_keys.sort_by(|a, b| b.2.cmp(&a.2).then(b.1.cmp(&a.1)).then(a.0 .0.cmp(&b.0 .0)));
        top_split_keys.truncate(top_n);
        PlanReport {
            metrics: PlanMetrics::of(plan),
            blocks,
            top_split_keys,
        }
    }

    /// The straggler candidate: the largest block.
    pub fn largest_block(&self) -> Option<BlockRow> {
        self.blocks.iter().copied().max_by_key(|b| b.size)
    }

    /// Render as an aligned multi-line string.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "metrics: BSI {:.1}  BCI {:.1}  KSR {:.3}  MPI {:.3}\n",
            self.metrics.bsi, self.metrics.bci, self.metrics.ksr, self.metrics.mpi
        ));
        out.push_str("block      size   keys  split\n");
        for b in &self.blocks {
            out.push_str(&format!(
                "{:>5} {:>9} {:>6} {:>6}\n",
                b.block, b.size, b.cardinality, b.split_keys
            ));
        }
        if !self.top_split_keys.is_empty() {
            out.push_str("most-fragmented keys (key, tuples, blocks):\n");
            for &(k, tuples, blocks) in &self.top_split_keys {
                out.push_str(&format!("  k{:<10} {:>8} {:>4}\n", k.0, tuples, blocks));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partitioner::Technique;
    use crate::types::{Interval, Time, Tuple};

    fn plan() -> PartitionPlan {
        let interval = Interval::new(Time::ZERO, Time::from_secs(1));
        let mut tuples = Vec::new();
        for i in 0..4000u64 {
            let key = if i % 2 == 0 { 1 } else { 1 + i % 40 };
            tuples.push(Tuple::keyed(Time::from_micros(i * 200), Key(key)));
        }
        Technique::Prompt
            .build(3)
            .partition(&crate::batch::MicroBatch::new(tuples, interval), 8)
    }

    #[test]
    fn report_is_consistent_with_plan() {
        let p = plan();
        let report = PlanReport::analyse(&p, 5);
        assert_eq!(report.blocks.len(), 8);
        let total: usize = report.blocks.iter().map(|b| b.size).sum();
        assert_eq!(total, 4000);
        // The hot key (≈ 2000 tuples, block share 500) must be fragmented.
        assert!(!report.top_split_keys.is_empty());
        assert_eq!(report.top_split_keys[0].0, Key(1));
        assert!(report.top_split_keys[0].1 >= 2000);
        assert!(report.top_split_keys[0].2 >= 4);
        assert!(report.top_split_keys.len() <= 5);
    }

    #[test]
    fn largest_block_matches_max() {
        let p = plan();
        let report = PlanReport::analyse(&p, 3);
        let max_size = p.blocks.iter().map(|b| b.size()).max().unwrap();
        assert_eq!(report.largest_block().unwrap().size, max_size);
    }

    #[test]
    fn split_counts_match_reference_table() {
        let p = plan();
        let report = PlanReport::analyse(&p, 100);
        // Every reported fragmented key is in the plan's split set, and the
        // totals agree.
        for &(k, _, blocks) in &report.top_split_keys {
            assert!(p.split_keys.contains(&k));
            assert!(blocks >= 2);
        }
        assert_eq!(report.top_split_keys.len(), p.split_keys.len());
    }

    #[test]
    fn render_contains_all_blocks() {
        let p = plan();
        let text = PlanReport::analyse(&p, 2).render();
        assert!(text.contains("metrics: BSI"));
        assert!(text.lines().count() >= 8 + 2);
        assert!(text.contains("most-fragmented"));
    }

    #[test]
    fn unsplit_plan_has_empty_top_keys() {
        let interval = Interval::new(Time::ZERO, Time::from_secs(1));
        let tuples: Vec<Tuple> = (0..100u64)
            .map(|i| Tuple::keyed(Time::from_micros(i), Key(i % 10)))
            .collect();
        let p = Technique::Hash
            .build(1)
            .partition(&crate::batch::MicroBatch::new(tuples, interval), 4);
        let report = PlanReport::analyse(&p, 5);
        assert!(report.top_split_keys.is_empty());
        assert!(!report.render().contains("most-fragmented"));
    }
}
