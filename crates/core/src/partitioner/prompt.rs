//! The Prompt micro-batch partitioner (§4.2, Algorithm 2).
//!
//! The batch-partitioning problem is a *Balanced Bin Packing with
//! Fragmentable Items* instance (Definition 1): keys are items sized by their
//! tuple counts, blocks are equal-capacity bins, and the plan must balance
//! sizes, balance cardinalities, and minimise key fragmentation. B-BPFI is
//! NP-complete (Theorem 1); Algorithm 2 is the paper's millisecond-scale
//! heuristic over the sorted (in the paper, quasi-sorted) key list produced
//! by Algorithm 1:
//!
//! 1. **Heavy-key splitting** — any key with more tuples than
//!    `S_cut = P_size / P_card` contributes one `S_cut`-sized fragment to the
//!    next block (cycling), and parks its residual in `RList`; the block that
//!    received the first fragment is remembered (`lookupLargePos`).
//! 2. **Zigzag assignment** — remaining keys are dealt one per block, with
//!    the block order reversed after each pass. On a (quasi-)sorted key list
//!    this emulates Best-Fit-Decreasing without maintaining block sizes.
//! 3. **Residual placement** — each parked residual first tries the block
//!    that holds its sibling fragment (key locality); overflow goes to the
//!    block with the *least* remaining capacity that can hold it (Best-Fit),
//!    fragmenting further only when unavoidable. A block's fragment table is
//!    its pieces summed per key, and a key is split iff its residual left
//!    its home block: nothing is re-derived by hashing.
//!
//! A partitioner serves batch after batch, and nothing it needs at steady
//! state is allocated twice: the batch seals into the arena the previous
//! batch sealed into, the symbolic phase refills its block lists, and the
//! blocks materialize into the buffers of the last plan handed back through
//! [`Partitioner::recycle`].

use crate::batch::{DataBlock, KeyFragment, KeyGroup, MicroBatch, PartitionPlan, SealedBatch};
use crate::buffering::{
    AccumulatorConfig, BatchAccumulator, FrequencyAwareAccumulator, PostSortAccumulator,
    ShardedAccumulator,
};
use crate::columnar::{ColRange, ColumnarPlan, ColumnarSealed};
use crate::par::map_mut;
use crate::partitioner::{PartitionPhases, Partitioner, Plan, Spare};
use crate::types::{Interval, Key, Time, Tuple};

/// How the partitioner obtains the sorted key list when driven through the
/// arrival-ordered [`Partitioner`] interface.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BufferingMode {
    /// The paper's Algorithm 1: online quasi-sorting in a budgeted
    /// `CountTree` during the batching phase. Kept for fidelity.
    FrequencyAware,
    /// What the engine runs: exact counts during the batching phase, one
    /// exact sort after the heartbeat (the other side of Fig. 14a).
    PostSort,
}

/// The Prompt batch partitioner.
#[derive(Debug)]
pub struct PromptPartitioner {
    mode: BufferingMode,
    /// `K_Avg` the frequency-aware accumulator is re-seeded with every batch.
    avg_keys: f64,
    /// The batching-phase buffer, refilled every batch so the index, log,
    /// counter and shard allocations are made once per run. Either mode
    /// runs serial or sharded for parallel ingest; an exact buffer seals
    /// the same batch either way.
    buffer: Box<dyn BatchAccumulator>,
    /// Worker threads for parallel ingest and plan materialization.
    threads: usize,
    /// The group list and arena the last batch sealed into, handed back
    /// once its plan was materialized: the next seal clears the one and
    /// resizes the other instead of allocating them.
    sealed: (Vec<KeyGroup>, Vec<Tuple>),
    /// The symbolic phase's block lists, refilled every batch.
    symbolic: SymbolicBlocks,
    /// The buffers of the last plan handed back.
    spare: Spare,
}

impl PromptPartitioner {
    /// Construct the serial pipeline: one shard, one thread.
    pub fn new(mode: BufferingMode) -> PromptPartitioner {
        Self::with_parallelism(mode, 1, 1)
    }

    /// Construct the parallel pipeline: `shards`-way sharded ingest and
    /// `threads` workers for ingest and block materialization. The sharded
    /// accumulator's determinism contract (see
    /// [`ShardedAccumulator`](crate::buffering::ShardedAccumulator)) makes
    /// the output independent of `threads` — and, for
    /// [`BufferingMode::PostSort`], of `shards` too; `shards = 1,
    /// threads = 1` is exactly the serial path.
    pub fn with_parallelism(
        mode: BufferingMode,
        shards: usize,
        threads: usize,
    ) -> PromptPartitioner {
        assert!(shards >= 1, "need at least one shard");
        assert!(threads >= 1, "need at least one thread");
        let acc_cfg = AccumulatorConfig::default();
        // Every batch sets its own interval before it is replayed.
        let iv = Interval::default();
        let buffer: Box<dyn BatchAccumulator> = match (mode, shards > 1) {
            (BufferingMode::PostSort, false) => Box::new(PostSortAccumulator::new(iv)),
            (BufferingMode::PostSort, true) => Box::new(ShardedAccumulator::exact(shards, iv)),
            (BufferingMode::FrequencyAware, false) => {
                Box::new(FrequencyAwareAccumulator::new(acc_cfg, iv))
            }
            (BufferingMode::FrequencyAware, true) => {
                Box::new(ShardedAccumulator::new(acc_cfg, shards, iv))
            }
        };
        PromptPartitioner {
            mode,
            avg_keys: acc_cfg.avg_keys.max(1.0),
            buffer,
            threads,
            sealed: (Vec::new(), Vec::new()),
            symbolic: SymbolicBlocks::default(),
            spare: Spare::default(),
        }
    }

    /// The buffering mode in use.
    pub fn mode(&self) -> BufferingMode {
        self.mode
    }

    /// How many ways the batching-phase buffer is sharded (1 = serial).
    pub fn ingest_shards(&self) -> usize {
        self.buffer.n_shards()
    }

    /// Default residual-phase capacity tolerance (fraction of `P_size`),
    /// see DESIGN.md §4b.
    pub const DEFAULT_TOLERANCE: f64 = 1.0 / 64.0;

    /// Algorithm 2 proper: partition an already-sealed (quasi-sorted) batch
    /// into `p` blocks. This is the API the engine calls at the heartbeat.
    pub fn partition_sealed(batch: &SealedBatch, p: usize) -> PartitionPlan {
        Self::partition_sealed_with(batch, p, Self::DEFAULT_TOLERANCE)
    }

    /// [`Self::partition_sealed`] with an explicit residual capacity
    /// tolerance (fraction of `P_size` the residual phase may overfill a
    /// block by). `0.0` reproduces the paper's literal Best-Fit capacity;
    /// larger values trade bounded size imbalance for cardinality balance.
    /// Exposed for the ablation benches.
    pub fn partition_sealed_with(batch: &SealedBatch, p: usize, tolerance: f64) -> PartitionPlan {
        let mut symbolic = SymbolicBlocks::default();
        let split_keys = Self::assign_pieces(batch, p, tolerance, &mut symbolic);
        Self::materialize_pieces(batch, &symbolic.pieces, split_keys, 1, vec![])
    }

    /// [`Self::partition_sealed`] with block materialization fanned out over
    /// `threads` workers. The assignment phase is shared with the serial
    /// path and blocks materialize independently, so the plan is
    /// bit-identical to [`Self::partition_sealed`] for any thread count.
    pub fn partition_sealed_par(batch: &SealedBatch, p: usize, threads: usize) -> PartitionPlan {
        let mut symbolic = SymbolicBlocks::default();
        let split_keys = Self::assign_pieces(batch, p, Self::DEFAULT_TOLERANCE, &mut symbolic);
        Self::materialize_pieces(batch, &symbolic.pieces, split_keys, threads, vec![])
    }

    /// Turn the symbolic assignment into a [`ColumnarPlan`] built in
    /// `spare`'s buffers: the batch is laid out in columns in seal order, and
    /// each piece `[start, end)` of group `g` becomes the arena range
    /// `[g.offset + start, g.offset + end)`. Pieces keep assignment order, so
    /// enumerating a block's ranges visits tuples in exactly the order the
    /// row materializer pushes them.
    fn materialize_pieces_columnar(
        batch: &SealedBatch,
        pieces: &[Vec<Piece>],
        split_keys: Vec<Key>,
        spare: &mut Spare,
    ) -> ColumnarPlan {
        let cols = ColumnarSealed::from_sealed_in(batch, spare.column_arena());
        let mut blocks = spare.column_blocks(pieces.len());
        for (block, pieces) in blocks.iter_mut().zip(pieces) {
            block.ranges.extend(pieces.iter().map(|pc| {
                let (key, r) = cols.groups[pc.group];
                (key, ColRange::new(r.offset + pc.start, pc.end - pc.start))
            }));
            fragments_into(batch, pieces, &mut block.fragments);
        }
        ColumnarPlan {
            arena: cols.arena,
            blocks,
            split_keys: split_keys.into_iter().collect(),
        }
    }

    /// Materialize every block from its assigned pieces into `blocks` (one
    /// per block of `pieces`, empty; missing ones start empty), on up to
    /// `threads` workers. Blocks materialize independently, so the plan is
    /// bit-identical for any thread count.
    fn materialize_pieces(
        batch: &SealedBatch,
        pieces: &[Vec<Piece>],
        split_keys: Vec<Key>,
        threads: usize,
        mut blocks: Vec<DataBlock>,
    ) -> PartitionPlan {
        blocks.resize_with(pieces.len(), DataBlock::default);
        map_mut(&mut blocks, threads, |b, block| {
            materialize_block(batch, &pieces[b], block)
        });
        let split_keys = split_keys.into_iter().collect();
        PartitionPlan { blocks, split_keys }
    }

    /// The decision core of Algorithm 2: compute which range of which key
    /// group lands in which block, without touching any tuple data, into
    /// `blocks` (whatever it held before). Returns the split keys. The
    /// symbolic state (block sizes and distinct-key counts) is exactly what
    /// the placement decisions read, so the assignment — and hence the final
    /// plan — is independent of materialization, which can run per-block in
    /// parallel, in either layout.
    fn assign_pieces(
        batch: &SealedBatch,
        p: usize,
        tolerance: f64,
        blocks: &mut SymbolicBlocks,
    ) -> Vec<Key> {
        assert!(p > 0, "need at least one block");
        assert!((0.0..=1.0).contains(&tolerance), "tolerance is a fraction");
        let n = batch.n_tuples;
        let k = batch.n_keys();
        blocks.reset(p);
        let mut split_keys = Vec::new();
        if n == 0 {
            return split_keys;
        }
        let group = |gi: usize| {
            let g = &batch.groups[gi];
            (g.key, g.count)
        };

        // Partition-Size, Partition-Cardinality, Key-Split-CutOff (Alg. 2
        // lines 1–3). Ceilings keep total capacity ≥ total size (Eqn. 13).
        let p_size = n.div_ceil(p);
        let p_card = (k / p).max(1);
        let s_cut = (p_size / p_card).max(1);

        // Phase 1: fragment the high-frequency keys (lines 5–9). Residuals
        // are `(group, lookupLargePos)`.
        let (mut normal, mut residuals) = blocks.take_lists();
        let mut bi = 0usize;
        for gi in 0..k {
            let (_, count) = group(gi);
            if count > s_cut {
                blocks.place(bi, gi, 0, s_cut, true);
                residuals.push((gi, bi));
                bi = (bi + 1) % p;
            } else {
                normal.push(gi);
            }
        }

        // Phase 2: zigzag the remaining keys (lines 10–16). The key list is
        // (quasi-)sorted descending, so dealing one key per block and
        // reversing the block order each pass approximates
        // Best-Fit-Decreasing without tracking block sizes. The rotation
        // continues from phase 1's cursor (`b_i` is shared across the two
        // phases in Alg. 2) so the heavy fragments and the first zigzag
        // pass interleave instead of stacking on the low-index blocks.
        let offset = bi;
        for (i, &gi) in normal.iter().enumerate() {
            let pass = i / p;
            let pos = i % p;
            let idx = if pass.is_multiple_of(2) {
                pos
            } else {
                p - 1 - pos
            };
            let (_, count) = group(gi);
            blocks.place((offset + idx) % p, gi, 0, count, true);
        }

        // Phase 3: place the residuals of the fragmented keys (lines 17–25).
        // The placement capacity carries a small (~1.5%) tolerance above
        // P_size: without it, the last open blocks absorb the whole tail of
        // small residuals and their cardinality balloons. The tolerance
        // bounds the extra size imbalance by itself while letting the tail
        // spread over all blocks — BSI stays ~0 relative to hashing and BCI
        // stays at shuffle level, the trade Fig. 10 reports.
        let cap_limit = p_size + (p_size as f64 * tolerance) as usize + 1;
        'residuals: for &(gi, home) in &residuals {
            let (key, count) = group(gi);
            let (mut start, end) = (s_cut, count);
            // Only here can a key reach a second block, and every block past
            // its home that a residual reaches is new to the key: the
            // residual left no room in the blocks it reached before. The
            // first such block puts the key in the split-key table.
            let mut put = |blocks: &mut SymbolicBlocks, b: usize, start: usize, end: usize| {
                if b != home && split_keys.last() != Some(&key) {
                    split_keys.push(key);
                }
                blocks.place(b, gi, start, end, b != home);
            };
            // Key-locality first: the block already holding this key's
            // S_cut fragment.
            let cap = blocks.capacity(home, cap_limit);
            if end - start <= cap {
                put(blocks, home, start, end);
                continue;
            }
            if cap > 0 {
                put(blocks, home, start, start + cap);
                start += cap;
            }
            // Place the rest in a block that can hold it whole. Among those,
            // prefer the block with the fewest distinct keys (cardinality
            // balance — objective 2), breaking ties Best-Fit style by lowest
            // remaining capacity. A literal Best-Fit-only rule (Alg. 2
            // line 23) stacks the many small residuals a Zipf batch produces
            // into whichever block happens to be fullest, wrecking BCI; the
            // capacity bound already enforces size balance, so cardinality
            // is the right discriminator here (§3.2, cost model Eqn. 6).
            while start < end {
                let fit = (0..p)
                    .filter(|&b| blocks.capacity(b, cap_limit) >= end - start)
                    .min_by_key(|&b| (blocks.cardinalities[b], blocks.capacity(b, cap_limit), b));
                if let Some(b) = fit {
                    put(blocks, b, start, end);
                    continue 'residuals;
                }
                // No single block fits the residual: pour into the block
                // with the most remaining capacity to minimise the number
                // of extra fragments. Some block has room: the capacity
                // limits sum to at least `n + p`, the sizes to at most `n`.
                let (b, cap) = (0..p)
                    .map(|b| (b, blocks.capacity(b, cap_limit)))
                    .max_by_key(|&(b, c)| (c, usize::MAX - b))
                    .expect("p > 0");
                assert!(cap > 0, "groups hold more tuples than the batch counts");
                put(blocks, b, start, start + cap);
                start += cap;
            }
        }
        blocks.put_lists(normal, residuals);
        split_keys
    }
}

/// One contiguous range `[start, end)` of key group `group`'s tuples,
/// assigned to a block by [`PromptPartitioner::assign_pieces`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Piece {
    group: usize,
    start: usize,
    end: usize,
}

/// The symbolic block state the assignment phase reads back: per-block
/// pieces, sizes and distinct-key counts — everything the placement decisions
/// depend on, with no tuple data — and the two group lists phase 1 sorts the
/// keys into. Refilled, not rebuilt, batch after batch.
#[derive(Debug, Default)]
struct SymbolicBlocks {
    pieces: Vec<Vec<Piece>>,
    sizes: Vec<usize>,
    cardinalities: Vec<usize>,
    normal: Vec<usize>,
    residuals: Vec<(usize, usize)>,
}

impl SymbolicBlocks {
    /// `p` empty blocks.
    fn reset(&mut self, p: usize) {
        self.pieces.resize_with(p, Vec::new);
        self.pieces.iter_mut().for_each(Vec::clear);
        self.sizes.clear();
        self.sizes.resize(p, 0);
        self.cardinalities.clear();
        self.cardinalities.resize(p, 0);
    }

    /// The phase-1 lists, empty, to fill while blocks are placed.
    fn take_lists(&mut self) -> (Vec<usize>, Vec<(usize, usize)>) {
        self.normal.clear();
        self.residuals.clear();
        (
            std::mem::take(&mut self.normal),
            std::mem::take(&mut self.residuals),
        )
    }

    /// Keep the phase-1 lists' allocations for the next batch.
    fn put_lists(&mut self, normal: Vec<usize>, residuals: Vec<(usize, usize)>) {
        (self.normal, self.residuals) = (normal, residuals);
    }

    /// Append a piece to block `b`; `new_key` says the block does not hold
    /// the piece's key yet.
    fn place(&mut self, b: usize, group: usize, start: usize, end: usize, new_key: bool) {
        debug_assert!(start < end, "empty piece");
        self.pieces[b].push(Piece { group, start, end });
        self.sizes[b] += end - start;
        self.cardinalities[b] += usize::from(new_key);
    }

    #[inline]
    fn capacity(&self, b: usize, cap_limit: usize) -> usize {
        cap_limit.saturating_sub(self.sizes[b])
    }
}

/// A block's fragment table from its pieces, into `out` (empty): their sizes
/// summed per key, sorted by key id. A key has one piece per block, but for a
/// heavy key's home block, where its residual can follow its `S_cut`
/// fragment.
fn fragments_into(batch: &SealedBatch, pieces: &[Piece], out: &mut Vec<KeyFragment>) {
    out.extend(pieces.iter().map(|pc| KeyFragment {
        key: batch.groups[pc.group].key,
        count: pc.end - pc.start,
    }));
    out.sort_unstable_by_key(|f| f.key.0);
    out.dedup_by(|next, kept| {
        let same = next.key == kept.key;
        kept.count += if same { next.count } else { 0 };
        same
    });
}

/// Copy one block's assigned ranges out of the sealed batch into `block`
/// (empty). Pieces are appended in assignment order — the same order the old
/// interleaved implementation pushed tuples — so the block content is
/// bit-identical.
fn materialize_block(batch: &SealedBatch, pieces: &[Piece], block: &mut DataBlock) {
    // Sized exactly: the residual tolerance lets a block run a few tuples
    // past `N/p`, and a guess that low would double the block's allocation.
    let size = pieces.iter().map(|pc| pc.end - pc.start).sum();
    block.tuples.reserve_exact(size);
    for pc in pieces {
        block
            .tuples
            .extend_from_slice(&batch.tuples(pc.group)[pc.start..pc.end]);
    }
    fragments_into(batch, pieces, &mut block.fragments);
}

impl Partitioner for PromptPartitioner {
    fn name(&self) -> &'static str {
        match self.mode() {
            BufferingMode::PostSort => "Prompt",
            BufferingMode::FrequencyAware => "Prompt(count-tree)",
        }
    }

    fn partition_slice(&mut self, tuples: &[Tuple], interval: Interval, p: usize) -> PartitionPlan {
        self.partition_rows(tuples, interval, p).0
    }

    fn partition_phased(
        &mut self,
        batch: &MicroBatch,
        p: usize,
    ) -> (PartitionPlan, PartitionPhases) {
        self.partition_rows(&batch.tuples, batch.interval, p)
    }

    fn partition_columnar(
        &mut self,
        batch: &MicroBatch,
        p: usize,
    ) -> Option<(ColumnarPlan, PartitionPhases)> {
        // The same seal and assignment as the row layout; materialization
        // lays the sealed batch out in columns (in seal order, as
        // `seal_columnar` would) and emits arena ranges instead of tuple
        // copies, so `to_row_plan()` of this result is bit-identical to the
        // row layout's plan — gated by the engine's differential oracle.
        Some(self.pipeline(
            &batch.tuples,
            batch.interval,
            p,
            Self::materialize_pieces_columnar,
        ))
    }

    fn recycle(&mut self, plan: Plan) {
        self.spare.keep(plan);
    }
}

impl PromptPartitioner {
    /// [`Self::pipeline`] in the row layout.
    fn partition_rows(
        &mut self,
        tuples: &[Tuple],
        interval: Interval,
        p: usize,
    ) -> (PartitionPlan, PartitionPhases) {
        let threads = self.threads;
        self.pipeline(tuples, interval, p, |sealed, pieces, split, spare| {
            let blocks = spare.row_blocks(pieces.len());
            Self::materialize_pieces(sealed, pieces, split, threads, blocks)
        })
    }

    /// The one partition pipeline: replay the arrivals through the owned
    /// accumulator and seal it into the spare arena (Algorithm 1), assign
    /// pieces symbolically (Algorithm 2 — the same code for either layout),
    /// `materialize` the plan from the spare plan's buffers, and take the
    /// arena back; with a wall clock around each phase. The timings drive
    /// the observability layer's per-stage breakdowns (Fig. 14's overhead
    /// story) and never influence the plan.
    fn pipeline<P>(
        &mut self,
        tuples: &[Tuple],
        interval: Interval,
        p: usize,
        materialize: impl FnOnce(&SealedBatch, &[Vec<Piece>], Vec<Key>, &mut Spare) -> P,
    ) -> (P, PartitionPhases) {
        let t0 = std::time::Instant::now();
        let (mut groups, mut arena) = std::mem::take(&mut self.sealed);
        let acc = self.buffer_arrivals(tuples, interval);
        // What the arena holds is never read: the seal overwrites all of it.
        let filler = Tuple::keyed(Time::ZERO, Key(0));
        arena.resize(acc.stats().n_tuples as usize, filler);
        groups.clear();
        let interval = acc.seal_into(&mut arena, 0, interval, &mut groups);
        let sealed = SealedBatch::new(groups, arena, interval);
        let seal_us = t0.elapsed().as_micros() as u64;
        let t1 = std::time::Instant::now();
        let split_keys =
            Self::assign_pieces(&sealed, p, Self::DEFAULT_TOLERANCE, &mut self.symbolic);
        let symbolic_us = t1.elapsed().as_micros() as u64;
        let t2 = std::time::Instant::now();
        let plan = materialize(&sealed, &self.symbolic.pieces, split_keys, &mut self.spare);
        let materialize_us = t2.elapsed().as_micros() as u64;
        self.sealed = sealed.into_parts();
        let phases = PartitionPhases {
            select_us: 0,
            seal_us,
            symbolic_us,
            materialize_us,
        };
        (plan, phases)
    }

    /// Replay one batch's arrivals through the owned accumulator (the
    /// batching phase of §4.1), ready to seal at the heartbeat. With no
    /// history from the caller, the frequency-aware `N_Est` is re-seeded
    /// from the batch itself.
    fn buffer_arrivals(
        &mut self,
        tuples: &[Tuple],
        interval: Interval,
    ) -> &mut dyn BatchAccumulator {
        let est_tuples = tuples.len().max(1) as f64;
        self.buffer.set_estimates(est_tuples, self.avg_keys);
        self.buffer.set_interval(interval);
        self.buffer.ingest_all(tuples, self.threads);
        &mut *self.buffer
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics;
    use crate::partitioner::test_support::*;
    use crate::types::Time;

    fn sealed(spec: &[(u64, usize)]) -> SealedBatch {
        let iv = Interval::new(Time::ZERO, Time::from_secs(1));
        let mut counts: Vec<(Key, usize)> = spec.iter().map(|&(k, c)| (Key(k), c)).collect();
        counts.sort_by_key(|&(_, c)| std::cmp::Reverse(c));
        SealedBatch::synthetic(&counts, iv)
    }

    #[test]
    fn paper_figure5_example_balances_all_three_objectives() {
        // Fig. 5: 385 tuples, 8 keys. Counts chosen to match the paper's
        // shape: a few heavy keys, several light ones, 4 blocks.
        let batch = sealed(&[
            (1, 140),
            (2, 90),
            (3, 45),
            (4, 40),
            (5, 30),
            (6, 20),
            (7, 12),
            (8, 8),
        ]);
        let plan = PromptPartitioner::partition_sealed(&batch, 4);
        assert_eq!(plan.total_tuples(), 385);
        // Near-equal block sizes: the BSI (max − avg) stays within the
        // residual-phase capacity tolerance of a few tuples.
        let sizes: Vec<usize> = plan.blocks.iter().map(|b| b.size()).collect();
        let max = *sizes.iter().max().unwrap() as f64;
        let avg = sizes.iter().sum::<usize>() as f64 / sizes.len() as f64;
        assert!(max - avg <= 4.0, "sizes should be near-equal: {sizes:?}");
        // Few fragmented keys (the paper's Fig. 6c fragments 2 of 8).
        assert!(
            plan.split_keys.len() <= 3,
            "too many split keys: {:?}",
            plan.split_keys
        );
        // Cardinality spread stays small.
        assert!(metrics::bci(&plan) <= 2.0, "BCI = {}", metrics::bci(&plan));
    }

    #[test]
    fn block_sizes_within_one_of_ceiling_on_divisible_input() {
        let batch = sealed(&[(1, 100), (2, 100), (3, 100), (4, 100)]);
        let plan = PromptPartitioner::partition_sealed(&batch, 4);
        let sizes: Vec<usize> = plan.blocks.iter().map(|b| b.size()).collect();
        for &s in &sizes {
            assert_eq!(s, 100, "uniform keys should map 1:1: {sizes:?}");
        }
        assert!(plan.split_keys.is_empty());
    }

    #[test]
    fn single_giant_key_splits_across_all_blocks() {
        let batch = sealed(&[(1, 1000)]);
        let plan = PromptPartitioner::partition_sealed(&batch, 4);
        let sizes: Vec<usize> = plan.blocks.iter().map(|b| b.size()).collect();
        let max = *sizes.iter().max().unwrap();
        let min = *sizes.iter().min().unwrap();
        assert!(max - min <= 250, "giant key should spread: {sizes:?}");
        assert!(plan.split_keys.contains(&Key(1)));
        assert_eq!(plan.total_tuples(), 1000);
    }

    #[test]
    fn zigzag_balances_without_size_tracking() {
        // S_cut = P_size / P_card = N/K = the mean count, so a pure-zigzag
        // batch needs no above-average key. Eight equal keys over two
        // blocks: the snake draft deals four keys to each, perfectly
        // balanced with no splits and no size bookkeeping.
        let batch = sealed(&[
            (1, 45),
            (2, 45),
            (3, 45),
            (4, 45),
            (5, 45),
            (6, 45),
            (7, 45),
            (8, 45),
        ]);
        let plan = PromptPartitioner::partition_sealed(&batch, 2);
        let sizes: Vec<usize> = plan.blocks.iter().map(|b| b.size()).collect();
        assert_eq!(sizes, vec![180, 180]);
        assert!(plan.split_keys.is_empty());
        assert_eq!(metrics::bci(&plan), 0.0);
    }

    #[test]
    fn above_average_keys_are_fragmented_at_s_cut() {
        // S_cut = N/K: any above-average key enters phase 1. Here the mean
        // count is 45, so keys 1 (80) and 2 (70) must be fragmented and the
        // below-average keys must stay whole.
        let batch = sealed(&[
            (1, 80),
            (2, 70),
            (3, 45),
            (4, 45),
            (5, 40),
            (6, 40),
            (7, 25),
            (8, 15),
        ]);
        let plan = PromptPartitioner::partition_sealed(&batch, 2);
        assert_eq!(plan.total_tuples(), 360);
        for k in 3..=8u64 {
            assert!(
                !plan.split_keys.contains(&Key(k)),
                "below-average key {k} must not split"
            );
        }
        let sizes: Vec<usize> = plan.blocks.iter().map(|b| b.size()).collect();
        let max = *sizes.iter().max().unwrap();
        let min = *sizes.iter().min().unwrap();
        // Spread bounded by the residual capacity tolerance.
        assert!(max - min <= 8, "sizes {sizes:?} should be near-equal");
    }

    #[test]
    fn more_blocks_than_keys() {
        let batch = sealed(&[(1, 30), (2, 20)]);
        let plan = PromptPartitioner::partition_sealed(&batch, 8);
        assert_eq!(plan.n_blocks(), 8);
        assert_eq!(plan.total_tuples(), 50);
        // Heavy keys (both exceed S_cut) get spread.
        let nonempty = plan.blocks.iter().filter(|b| b.size() > 0).count();
        assert!(nonempty >= 6, "should use most blocks, used {nonempty}");
    }

    #[test]
    fn beats_hash_on_bsi_and_shuffle_on_ksr() {
        let batch = zipfish_batch(100, 1000);
        let mut prompt = PromptPartitioner::new(BufferingMode::PostSort);
        let prompt_plan = prompt.partition(&batch, 8);
        assert_plan_valid(&batch, &prompt_plan, 8);
        let hash_plan = crate::partitioner::HashPartitioner::new(7).partition(&batch, 8);
        let shuffle_plan = crate::partitioner::ShufflePartitioner::new().partition(&batch, 8);
        assert!(
            metrics::bsi(&prompt_plan) < metrics::bsi(&hash_plan) / 2.0,
            "Prompt BSI {} vs hash {}",
            metrics::bsi(&prompt_plan),
            metrics::bsi(&hash_plan)
        );
        assert!(
            metrics::ksr(&prompt_plan) < metrics::ksr(&shuffle_plan) / 2.0,
            "Prompt KSR {} vs shuffle {}",
            metrics::ksr(&prompt_plan),
            metrics::ksr(&shuffle_plan)
        );
    }

    #[test]
    fn frequency_aware_mode_close_to_post_sort_quality() {
        let batch = zipfish_batch(200, 2000);
        let fa = PromptPartitioner::new(BufferingMode::FrequencyAware).partition(&batch, 8);
        let ps = PromptPartitioner::new(BufferingMode::PostSort).partition(&batch, 8);
        assert_plan_valid(&batch, &fa, 8);
        let m_fa = metrics::PlanMetrics::of(&fa);
        let m_ps = metrics::PlanMetrics::of(&ps);
        assert!(
            m_fa.mpi <= m_ps.mpi * 1.5 + 0.1,
            "quasi-sorted quality too far off: {m_fa:?} vs {m_ps:?}"
        );
    }

    #[test]
    fn residuals_prefer_home_block() {
        // One heavy key (count 120 > S_cut) and light keys. After phase 1
        // the heavy key's home block holds S_cut of it; the residual should
        // return there if capacity allows.
        let batch = sealed(&[(1, 60), (2, 10), (3, 10), (4, 10), (5, 10)]);
        let plan = PromptPartitioner::partition_sealed(&batch, 2);
        // Key 1 should occupy few blocks.
        let blocks_with_k1 = plan
            .blocks
            .iter()
            .filter(|b| b.fragments.iter().any(|f| f.key == Key(1)))
            .count();
        assert!(blocks_with_k1 <= 2);
        assert_eq!(plan.total_tuples(), 100);
    }

    #[test]
    fn empty_sealed_batch() {
        let batch = sealed(&[]);
        let plan = PromptPartitioner::partition_sealed(&batch, 3);
        assert_eq!(plan.n_blocks(), 3);
        assert_eq!(plan.total_tuples(), 0);
    }

    #[test]
    fn p_equals_one_puts_everything_in_one_block() {
        let batch = sealed(&[(1, 10), (2, 20)]);
        let plan = PromptPartitioner::partition_sealed(&batch, 1);
        assert_eq!(plan.blocks[0].size(), 30);
        assert!(plan.split_keys.is_empty());
    }

    #[test]
    fn parallel_materialization_is_bit_identical() {
        // The symbolic assignment is shared; only materialization fans out.
        let spec: Vec<(u64, usize)> = (1..=60u64)
            .map(|k| (k, 3 + (k as usize * 13) % 120))
            .collect();
        let batch = sealed(&spec);
        let want = PromptPartitioner::partition_sealed(&batch, 8);
        for threads in [2, 3, 5, 16] {
            let got = PromptPartitioner::partition_sealed_par(&batch, 8, threads);
            assert_eq!(want, got, "{threads} threads");
        }
    }

    #[test]
    fn parallel_pipeline_with_one_shard_matches_serial_exactly() {
        // shards = 1 keeps the legacy accumulator order, and parallel
        // materialization is bit-identical, so the whole pipeline is.
        let mb = zipfish_batch(200, 2000);
        let want = PromptPartitioner::new(BufferingMode::FrequencyAware).partition(&mb, 8);
        let got = PromptPartitioner::with_parallelism(BufferingMode::FrequencyAware, 1, 4)
            .partition(&mb, 8);
        assert_eq!(want, got);
    }

    #[test]
    fn sharded_pipeline_produces_valid_plans_of_comparable_quality() {
        let mb = zipfish_batch(200, 4000);
        let serial = PromptPartitioner::new(BufferingMode::FrequencyAware).partition(&mb, 8);
        let plan = PromptPartitioner::with_parallelism(BufferingMode::FrequencyAware, 8, 4)
            .partition(&mb, 8);
        assert_plan_valid(&mb, &plan, 8);
        let m_serial = metrics::PlanMetrics::of(&serial);
        let m_sharded = metrics::PlanMetrics::of(&plan);
        assert!(
            m_sharded.mpi <= m_serial.mpi * 1.5 + 0.1,
            "sharded quality too far off: {m_sharded:?} vs {m_serial:?}"
        );
    }

    #[test]
    fn phased_partition_is_bit_identical_and_times_phases() {
        let mb = zipfish_batch(150, 1500);
        let want = PromptPartitioner::new(BufferingMode::FrequencyAware).partition(&mb, 8);
        let (got, phases) =
            PromptPartitioner::new(BufferingMode::FrequencyAware).partition_phased(&mb, 8);
        assert_eq!(want, got, "phase timing must not change the plan");
        // Wall clocks are monotonic; phases can be fast but never negative,
        // and the default-trait fallback (all zeros) must not be what the
        // override returns for a non-trivial batch... except on a machine
        // fast enough to stay under 1 µs per phase, so only sanity-check
        // the type here.
        let _ = phases.seal_us + phases.symbolic_us + phases.materialize_us;
        // A non-Prompt partitioner keeps the zero-phase default.
        let (_, zero) = crate::partitioner::HashPartitioner::new(1).partition_phased(&mb, 8);
        assert_eq!(zero, PartitionPhases::default());
    }

    #[test]
    fn partition_columnar_matches_partition_for_all_modes() {
        let mb = zipfish_batch(120, 900);
        for (mode, shards, threads) in [
            (BufferingMode::FrequencyAware, 1, 1),
            (BufferingMode::FrequencyAware, 4, 3),
            (BufferingMode::PostSort, 1, 1),
            (BufferingMode::PostSort, 4, 3),
        ] {
            for p in [1usize, 2, 4, 8] {
                let want =
                    PromptPartitioner::with_parallelism(mode, shards, threads).partition(&mb, p);
                let (cols, _) = PromptPartitioner::with_parallelism(mode, shards, threads)
                    .partition_columnar(&mb, p)
                    .expect("Prompt has a columnar path");
                let what = format!("{mode:?} shards={shards} threads={threads} p={p}");
                assert_eq!(cols.to_row_plan(), want, "{what}");
                assert_eq!(cols.split_keys, want.split_keys, "{what}");
            }
        }
    }

    /// Shape guard: a plan's fragment tables and split-key table come from
    /// the symbolic assignment, so this file's production half builds no
    /// hash set or map and calls none of the hashing derivations. The
    /// needles are spelt in halves so that the guard does not match itself.
    #[test]
    fn prompt_shape_no_hashing_rederivation() {
        let production = include_str!("prompt.rs")
            .lines()
            .take_while(|l| *l != "#[cfg(test)]");
        let needles = [
            ["Key", "Set"],
            ["Key", "Map"],
            ["Block", "Builder"],
            ["from_", "blocks("],
            ["from_", "ranges("],
        ]
        .map(|halves| halves.concat());
        for (n, line) in production.enumerate() {
            for needle in &needles {
                assert!(!line.contains(needle), "prompt.rs:{}: `{needle}`", n + 1);
            }
        }
    }

    #[test]
    fn baseline_partitioners_have_no_columnar_path() {
        let mb = zipfish_batch(10, 30);
        assert!(crate::partitioner::HashPartitioner::new(1)
            .partition_columnar(&mb, 4)
            .is_none());
    }

    #[test]
    fn every_mode_honours_its_ingest_geometry() {
        for mode in [BufferingMode::PostSort, BufferingMode::FrequencyAware] {
            assert_eq!(PromptPartitioner::new(mode).ingest_shards(), 1);
            let part = PromptPartitioner::with_parallelism(mode, 4, 2);
            assert_eq!(part.mode(), mode);
            assert_eq!(part.ingest_shards(), 4, "{mode:?} dropped its shards");
        }
    }

    #[test]
    fn post_sort_plans_are_independent_of_the_ingest_geometry() {
        let mb = zipfish_batch(200, 4000);
        let want = PromptPartitioner::new(BufferingMode::PostSort).partition(&mb, 8);
        for (shards, threads) in [(1, 4), (2, 1), (8, 4), (3, 16)] {
            let got = PromptPartitioner::with_parallelism(BufferingMode::PostSort, shards, threads)
                .partition(&mb, 8);
            assert_eq!(want, got, "{shards} shards / {threads} threads");
        }
    }
}
