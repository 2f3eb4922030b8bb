//! Struct-of-arrays (columnar) micro-batch containers.
//!
//! The engine partitions and executes every batch in rows: a row
//! [`DataBlock`] is a value column under key runs. These containers keep one
//! contiguous arena of three flat columns (`ts`, `keys`, `values`) and
//! describe key groups and data blocks as `(offset, len)` ranges into it; a
//! block's ranges are its runs, and its Map task's frame is the row block's,
//! byte for byte. They were the engine's second data plane, which lost to
//! rows on every measured workload; what remains serves the end-to-end
//! benchmark's columnar probes and the property tests, through
//! `Partitioner::partition_columnar`, `BatchAccumulator::seal_columnar`,
//! `stage::execute_columnar_traced` and `wire::encode_map_task_columnar`.
//!
//! **Fold-order guarantee.** Every columnar container converts to its row
//! twin ([`ColumnarSealed::to_sealed`], [`ColumnarPlan::to_row_plan`]) by
//! concatenating ranges in assignment order — exactly the order the row
//! pipeline builds them — so a columnar block enumerates tuples in the same
//! sequence as its row block. `columnar_props`,
//! `plan_derivation_props` and the engine's `wire_codec_props` hold the
//! conversions, Prompt's columnar cut and the Map frames to the row ones.

use std::sync::Arc;

use crate::batch::{DataBlock, KeyFragment, KeyGroup, PartitionPlan, SealedBatch};
use crate::hash::KeySet;
use crate::types::{Interval, Key, Time, Tuple};

/// A micro-batch in struct-of-arrays layout: three parallel columns, one
/// logical tuple per index.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ColumnarBatch {
    /// Event timestamps, in arrival order.
    pub ts: Vec<Time>,
    /// Partitioning keys, parallel to `ts`.
    pub keys: Vec<Key>,
    /// Payload values, parallel to `ts`.
    pub values: Vec<f64>,
}

impl ColumnarBatch {
    /// An empty batch.
    pub fn new() -> ColumnarBatch {
        ColumnarBatch::default()
    }

    /// An empty batch with all three columns pre-allocated for `n` tuples.
    pub fn with_capacity(n: usize) -> ColumnarBatch {
        ColumnarBatch {
            ts: Vec::with_capacity(n),
            keys: Vec::with_capacity(n),
            values: Vec::with_capacity(n),
        }
    }

    /// Number of logical tuples.
    #[inline]
    pub fn len(&self) -> usize {
        self.ts.len()
    }

    /// Whether the batch holds no tuples.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.ts.is_empty()
    }

    /// Append one tuple (decomposed into the three columns).
    #[inline]
    pub fn push(&mut self, t: Tuple) {
        self.ts.push(t.ts);
        self.keys.push(t.key);
        self.values.push(t.value);
    }

    /// Append a row slice, splitting each tuple into the columns.
    pub fn extend_from_tuples(&mut self, tuples: &[Tuple]) {
        self.ts.reserve(tuples.len());
        self.keys.reserve(tuples.len());
        self.values.reserve(tuples.len());
        for t in tuples {
            self.ts.push(t.ts);
            self.keys.push(t.key);
            self.values.push(t.value);
        }
    }

    /// Convert a row slice (AoS → SoA).
    pub fn from_tuples(tuples: &[Tuple]) -> ColumnarBatch {
        let mut b = ColumnarBatch::with_capacity(tuples.len());
        b.extend_from_tuples(tuples);
        b
    }

    /// Reassemble the logical tuple at index `i` (SoA → AoS, one row).
    #[inline]
    pub fn tuple_at(&self, i: usize) -> Tuple {
        Tuple {
            ts: self.ts[i],
            key: self.keys[i],
            value: self.values[i],
        }
    }

    /// Convert back to rows in index order (SoA → AoS).
    pub fn to_tuples(&self) -> Vec<Tuple> {
        (0..self.len()).map(|i| self.tuple_at(i)).collect()
    }

    /// Copy one range back to rows, appending to `out` in index order.
    pub fn extend_rows_into(&self, r: ColRange, out: &mut Vec<Tuple>) {
        out.reserve(r.len);
        for i in r.offset..r.end() {
            out.push(self.tuple_at(i));
        }
    }

    /// Drop all tuples, keeping the column allocations.
    pub fn clear(&mut self) {
        self.ts.clear();
        self.keys.clear();
        self.values.clear();
    }
}

/// A contiguous `[offset, offset + len)` range of arena indices — the
/// columnar analogue of a tuple slice.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ColRange {
    /// First arena index of the range.
    pub offset: usize,
    /// Number of tuples in the range.
    pub len: usize,
}

impl ColRange {
    /// Construct a range.
    #[inline]
    pub fn new(offset: usize, len: usize) -> ColRange {
        ColRange { offset, len }
    }

    /// One past the last arena index.
    #[inline]
    pub fn end(self) -> usize {
        self.offset + self.len
    }

    /// Whether the range covers no tuples.
    #[inline]
    pub fn is_empty(self) -> bool {
        self.len == 0
    }
}

/// The columnar twin of [`SealedBatch`]: key groups as ranges into a shared
/// arena whose columns hold the groups' tuples back to back, in the same
/// (descending frequency) group order Algorithm 1 seals.
#[derive(Clone, Debug)]
pub struct ColumnarSealed {
    /// The group tuples, concatenated in group order.
    pub arena: Arc<ColumnarBatch>,
    /// `(key, range)` per group, largest (approximately) first; `range.len`
    /// is the group's exact count.
    pub groups: Vec<(Key, ColRange)>,
    /// Total number of tuples across all groups.
    pub n_tuples: usize,
    /// The batch interval.
    pub interval: Interval,
}

impl ColumnarSealed {
    /// Build from groups already laid out in `arena` order.
    pub fn new(
        arena: Arc<ColumnarBatch>,
        groups: Vec<(Key, ColRange)>,
        interval: Interval,
    ) -> ColumnarSealed {
        let n_tuples = groups.iter().map(|&(_, r)| r.len).sum();
        debug_assert_eq!(n_tuples, arena.len(), "groups must tile the arena");
        ColumnarSealed {
            arena,
            groups,
            n_tuples,
            interval,
        }
    }

    /// Number of distinct keys in the batch.
    #[inline]
    pub fn n_keys(&self) -> usize {
        self.groups.len()
    }

    /// Convert a row sealed batch (AoS → SoA), preserving group order.
    pub fn from_sealed(sealed: &SealedBatch) -> ColumnarSealed {
        let mut arena = ColumnarBatch::with_capacity(sealed.n_tuples);
        let groups = (sealed.groups.iter().enumerate())
            .map(|(gi, g)| {
                let offset = arena.len();
                arena.extend_from_tuples(sealed.tuples(gi));
                (g.key, ColRange::new(offset, g.count))
            })
            .collect();
        ColumnarSealed {
            arena: Arc::new(arena),
            groups,
            n_tuples: sealed.n_tuples,
            interval: sealed.interval,
        }
    }

    /// Convert back to the row representation (SoA → AoS), preserving group
    /// order and per-group tuple order.
    pub fn to_sealed(&self) -> SealedBatch {
        let mut arena = Vec::with_capacity(self.n_tuples);
        let groups = self
            .groups
            .iter()
            .map(|&(key, r)| {
                let offset = arena.len();
                self.arena.extend_rows_into(r, &mut arena);
                KeyGroup {
                    key,
                    count: r.len,
                    offset,
                }
            })
            .collect();
        SealedBatch::new(groups, arena, self.interval)
    }
}

/// The columnar twin of [`DataBlock`]: the block's tuples as arena ranges —
/// the row block's runs.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ColumnarBlock {
    /// `(key, range)` pieces, one per key, keys strictly ascending, as a row
    /// block's runs are.
    pub ranges: Vec<(Key, ColRange)>,
}

impl ColumnarBlock {
    /// `|block|`: number of tuples.
    #[inline]
    pub fn size(&self) -> usize {
        self.ranges.iter().map(|&(_, r)| r.len).sum()
    }

    /// The ranges as the row block's `(key, count)` runs.
    pub fn runs(&self) -> impl ExactSizeIterator<Item = KeyFragment> + '_ {
        (self.ranges.iter()).map(|&(key, r)| KeyFragment { key, count: r.len })
    }

    /// `‖block‖`: number of distinct keys.
    #[inline]
    pub fn cardinality(&self) -> usize {
        self.ranges.len()
    }
}

/// The columnar twin of [`PartitionPlan`]: blocks as range lists into a
/// shared arena, plus the split-key reference table.
#[derive(Clone, Debug)]
pub struct ColumnarPlan {
    /// The arena all block ranges index into.
    pub arena: Arc<ColumnarBatch>,
    /// The data blocks, one per prospective Map task.
    pub blocks: Vec<ColumnarBlock>,
    /// Keys whose tuples span more than one block.
    pub split_keys: KeySet,
}

impl ColumnarPlan {
    /// Number of blocks (`p`).
    #[inline]
    pub fn n_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Total tuples across blocks.
    pub fn total_tuples(&self) -> usize {
        self.blocks.iter().map(|b| b.size()).sum()
    }

    /// Materialize the row representation. Each block's runs are its ranges
    /// and its values the ranges' values, concatenated in assignment order —
    /// the order the row materializer copies pieces — so the result is
    /// bit-identical to the plan the row pipeline builds from the same
    /// assignment.
    pub fn to_row_plan(&self) -> PartitionPlan {
        let blocks = self
            .blocks
            .iter()
            .map(|b| {
                let mut values = Vec::with_capacity(b.size());
                for &(_, r) in &b.ranges {
                    values.extend_from_slice(&self.arena.values[r.offset..r.end()]);
                }
                DataBlock {
                    runs: b.runs().collect(),
                    values,
                }
            })
            .collect();
        PartitionPlan {
            blocks,
            split_keys: self.split_keys.clone(),
        }
    }

    /// Convert a row plan: the arena is the blocks' values concatenated,
    /// each under its run's key, and each block's ranges are its runs. A row
    /// block carries no timestamps, so the arena's are zero. Round-tripping
    /// through [`ColumnarPlan::to_row_plan`] is exact.
    pub fn from_row_plan(plan: &PartitionPlan) -> ColumnarPlan {
        let total: usize = plan.blocks.iter().map(|b| b.size()).sum();
        let mut arena = ColumnarBatch::with_capacity(total);
        let mut blocks = Vec::with_capacity(plan.blocks.len());
        for b in &plan.blocks {
            let mut ranges: Vec<(Key, ColRange)> = Vec::with_capacity(b.runs.len());
            for (key, values) in b.key_runs() {
                ranges.push((key, ColRange::new(arena.len(), values.len())));
                for &value in values {
                    arena.push(Tuple::new(Time::ZERO, key, value));
                }
            }
            blocks.push(ColumnarBlock { ranges });
        }
        ColumnarPlan {
            arena: Arc::new(arena),
            blocks,
            split_keys: plan.split_keys.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::MicroBatch;
    use crate::partitioner::Technique;

    fn tuples(n: usize, keys: u64) -> Vec<Tuple> {
        (0..n)
            .map(|i| {
                Tuple::new(
                    Time::from_micros(i as u64),
                    Key(i as u64 % keys),
                    i as f64 * 0.5,
                )
            })
            .collect()
    }

    #[test]
    fn aos_soa_round_trip_is_exact() {
        let rows = tuples(1000, 37);
        let cols = ColumnarBatch::from_tuples(&rows);
        assert_eq!(cols.len(), rows.len());
        assert_eq!(cols.to_tuples(), rows);
        assert_eq!(cols.tuple_at(13), rows[13]);
    }

    #[test]
    fn push_and_clear() {
        let mut b = ColumnarBatch::new();
        assert!(b.is_empty());
        b.push(Tuple::new(Time::from_secs(1), Key(9), 2.5));
        assert_eq!(b.len(), 1);
        assert_eq!(b.tuple_at(0).value, 2.5);
        b.clear();
        assert!(b.is_empty());
    }

    #[test]
    fn col_range_accessors() {
        let r = ColRange::new(10, 5);
        assert_eq!(r.end(), 15);
        assert!(!r.is_empty());
        assert!(ColRange::new(3, 0).is_empty());
    }

    #[test]
    fn sealed_round_trip_preserves_group_order() {
        let iv = Interval::new(Time::ZERO, Time::from_secs(1));
        let mb = MicroBatch::new(tuples(500, 13), iv);
        let mut part = Technique::Prompt.build(3);
        // Row plan exercises sealing; rebuild the sealed batch directly.
        let _ = part.partition(&mb, 4);
        let sealed = {
            use crate::buffering::{BatchAccumulator, PostSortAccumulator};
            let mut acc = PostSortAccumulator::new(iv);
            for &t in &mb.tuples {
                acc.ingest(t);
            }
            acc.seal(iv)
        };
        let cols = ColumnarSealed::from_sealed(&sealed);
        assert_eq!(cols.n_tuples, sealed.n_tuples);
        assert_eq!(cols.n_keys(), sealed.n_keys());
        assert_eq!(cols.to_sealed(), sealed);
        // Groups tile the arena without gaps.
        let mut next = 0;
        for &(_, r) in &cols.groups {
            assert_eq!(r.offset, next);
            next = r.end();
        }
        assert_eq!(next, cols.arena.len());
    }

    #[test]
    fn row_plan_round_trip_is_exact() {
        let iv = Interval::new(Time::ZERO, Time::from_secs(1));
        let mb = MicroBatch::new(tuples(2000, 29), iv);
        for tech in [Technique::Prompt, Technique::Hash, Technique::Shuffle] {
            let plan = tech.build(7).partition(&mb, 6);
            let cols = ColumnarPlan::from_row_plan(&plan);
            assert_eq!(cols.n_blocks(), plan.n_blocks());
            assert_eq!(cols.total_tuples(), plan.total_tuples());
            assert_eq!(cols.to_row_plan(), plan, "{tech:?}");
        }
    }
}
