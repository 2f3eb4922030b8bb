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
//!    fragmenting further only when unavoidable. What returns home extends
//!    the key's `S_cut` piece, so a block holds one piece per key: its
//!    fragment table is its pieces, and a key is split iff its residual left
//!    its home block: nothing is re-derived by hashing.
//!
//! Every block is then laid out in key order, its pieces sorted by key, so a
//! block is one run per key, keys ascending: its pieces are its runs and its
//! fragment table at once. The Map kernel folds such a block run by run into
//! its key-ordered output.
//!
//! Driven through the [`Partitioner`] interface, the row pipeline is
//! record → order → assign → scatter: the accumulator records each arrival's
//! key slot (Algorithm 1's batching phase), the heartbeat orders the key
//! groups from their counts alone, Algorithm 2 assigns pieces of those groups
//! to blocks from the same counts, and only then is each arrival's value
//! written, once, from the batch's own slice to its final position in its
//! block (a block holds values, its runs naming their keys). A
//! group's destination is its first piece's slice of its block, then its
//! later pieces' slices in `start` order. The batching phase is one serial
//! accumulator, as §4.1 has it; the partitioner's `threads` widen only the
//! assignment's per-block key sort and the run tables. The row path fills
//! no sealed arena: only [`PromptPartitioner::partition_sealed`]
//! and [`Partitioner::partition_columnar`] (which the engine never calls; it
//! lays the batch out in seal order, in buffers of its own) read one. A plan
//! of runs alone ([`Columns::Runs`], for a job that reads no value) is
//! record → order → assign: its runs are the pieces, so nothing is
//! scattered.
//!
//! A partitioner serves batch after batch, and nothing it needs at steady
//! state is allocated twice: the accumulator, the group list, the symbolic
//! block lists and the destination tables are refilled, and the blocks are
//! written into the buffers of the last plan handed back through
//! [`Partitioner::recycle`].

use std::slice::IterMut;

use crate::batch::{
    Columns, DataBlock, KeyFragment, KeyGroup, MicroBatch, PartitionPlan, SealedBatch,
};
use crate::buffering::{
    record_slice, relabel, seal_arena, AccumulatorConfig, BatchAccumulator,
    FrequencyAwareAccumulator, PostSortAccumulator, ScatterTables,
};
use crate::columnar::{ColRange, ColumnarBlock, ColumnarPlan, ColumnarSealed};
use crate::par::map_mut;
use crate::partitioner::{PartitionPhases, Partitioner, Spare};
use crate::sort::RadixSort;
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
    /// The batching-phase buffer, one serial accumulator of the mode,
    /// refilled every batch so the index, slot and counter allocations are
    /// made once per run; it is handed each batch's slice and holds no tuple.
    buffer: Box<dyn BatchAccumulator>,
    /// Worker threads for each block's key sort and the run tables.
    threads: usize,
    /// The group list the last batch was ordered into: the next batch
    /// clears it instead of allocating it.
    groups: Vec<KeyGroup>,
    /// The symbolic phase's block lists, refilled every batch.
    symbolic: SymbolicBlocks,
    /// The scatter's destination and slot tables, refilled every batch.
    tables: ScatterTables,
    /// The row scatter's slices of later pieces, empty between batches.
    tiles: Vec<IterMut<'static, f64>>,
    /// The buffers of the last plan handed back.
    spare: Spare,
}

impl PromptPartitioner {
    /// Construct the serial pipeline: one thread.
    pub fn new(mode: BufferingMode) -> PromptPartitioner {
        Self::with_threads(mode, 1)
    }

    /// Construct the pipeline with `threads` workers for each block's key
    /// sort and the run tables. Blocks are laid out independently, so the
    /// plan is the same for every thread count; the record, order and
    /// scatter of the batching phase run on the calling thread.
    pub fn with_threads(mode: BufferingMode, threads: usize) -> PromptPartitioner {
        assert!(threads >= 1, "need at least one thread");
        let acc_cfg = AccumulatorConfig::default();
        // Every batch sets its own interval before it is replayed.
        let iv = Interval::default();
        let buffer: Box<dyn BatchAccumulator> = match mode {
            BufferingMode::PostSort => Box::new(PostSortAccumulator::new(iv)),
            BufferingMode::FrequencyAware => Box::new(FrequencyAwareAccumulator::new(acc_cfg, iv)),
        };
        PromptPartitioner {
            mode,
            avg_keys: acc_cfg.avg_keys.max(1.0),
            buffer,
            threads,
            groups: Vec::new(),
            symbolic: SymbolicBlocks::default(),
            tables: ScatterTables::default(),
            tiles: Vec::new(),
            spare: Spare::default(),
        }
    }

    /// [`Self::with_threads`]: `shards` has no effect. The batching phase
    /// is one serial accumulator; this spelling stays only because the
    /// end-to-end benchmark's hand pipeline (`benchmark/src/trace.rs`)
    /// compiles against it.
    #[deprecated(note = "the batching phase is one serial accumulator: use `with_threads`")]
    pub fn with_parallelism(
        mode: BufferingMode,
        _shards: usize,
        threads: usize,
    ) -> PromptPartitioner {
        Self::with_threads(mode, threads)
    }

    /// The buffering mode in use.
    pub fn mode(&self) -> BufferingMode {
        self.mode
    }

    /// Default residual-phase capacity tolerance (fraction of `P_size`),
    /// see DESIGN.md §4b.
    pub const DEFAULT_TOLERANCE: f64 = 1.0 / 64.0;

    /// Algorithm 2 over an already-sealed (quasi-sorted) batch: the pieces
    /// the row pipeline assigns, copied out of the sealed arena into `p`
    /// blocks, for callers holding a sealed batch (ablations, benchmark
    /// probes, tests). The engine runs [`Partitioner::partition_slice`].
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
        let split_keys = Self::assign_pieces(&batch.groups, p, tolerance, 1, &mut symbolic);
        Self::materialize_pieces(batch, &symbolic.pieces, split_keys, 1)
    }

    /// [`Self::partition_sealed`] with block materialization fanned out over
    /// `threads` workers. The assignment phase is shared with the serial
    /// path and blocks materialize independently, so the plan is
    /// bit-identical to [`Self::partition_sealed`] for any thread count.
    pub fn partition_sealed_par(batch: &SealedBatch, p: usize, threads: usize) -> PartitionPlan {
        let mut symbolic = SymbolicBlocks::default();
        let tolerance = Self::DEFAULT_TOLERANCE;
        let split_keys = Self::assign_pieces(&batch.groups, p, tolerance, threads, &mut symbolic);
        Self::materialize_pieces(batch, &symbolic.pieces, split_keys, threads)
    }

    /// Turn the symbolic assignment into a [`ColumnarPlan`]: the batch is
    /// laid out in columns in seal order, and each piece `[start, end)` of
    /// group `g` becomes the arena range `[g.offset + start, g.offset +
    /// end)`. Ranges take the pieces' key order, so enumerating a block's
    /// ranges visits tuples in exactly the order the row materializer
    /// pushes them.
    fn materialize_pieces_columnar(
        batch: &SealedBatch,
        pieces: &[Vec<Piece>],
        split_keys: Vec<Key>,
    ) -> ColumnarPlan {
        let cols = ColumnarSealed::from_sealed(batch);
        let blocks = (pieces.iter())
            .map(|pieces| ColumnarBlock {
                ranges: (pieces.iter())
                    .map(|pc| {
                        let (key, r) = cols.groups[pc.group()];
                        (key, ColRange::new(r.offset + pc.range().start, pc.len()))
                    })
                    .collect(),
            })
            .collect();
        ColumnarPlan {
            arena: cols.arena,
            blocks,
            split_keys: split_keys.into_iter().collect(),
        }
    }

    /// Materialize every block from its assigned pieces, copied out of the
    /// sealed batch's arena, on up to `threads` workers. Blocks materialize
    /// independently, so the plan is bit-identical for any thread count.
    fn materialize_pieces(
        batch: &SealedBatch,
        pieces: &[Vec<Piece>],
        split_keys: Vec<Key>,
        threads: usize,
    ) -> PartitionPlan {
        let mut blocks = Vec::new();
        blocks.resize_with(pieces.len(), DataBlock::default);
        map_mut(&mut blocks, threads, |b, block| {
            materialize_block(batch, &pieces[b], block)
        });
        let split_keys = split_keys.into_iter().collect();
        PartitionPlan { blocks, split_keys }
    }

    /// The decision core of Algorithm 2: compute which range of which key
    /// group lands in which block from the groups' counts alone, without
    /// touching any tuple data, into `blocks` (whatever it held before).
    /// Returns the split keys. The symbolic state (block sizes and
    /// distinct-key counts) is exactly what the placement decisions read, so
    /// the assignment — and hence the final plan — is independent of how the
    /// tuples reach their blocks, in either layout. Once every piece is
    /// placed, each block's pieces are sorted by key, which is the order
    /// every materializer lays them out in.
    fn assign_pieces(
        groups: &[KeyGroup],
        p: usize,
        tolerance: f64,
        threads: usize,
        blocks: &mut SymbolicBlocks,
    ) -> Vec<Key> {
        assert!(p > 0, "need at least one block");
        assert!((0.0..=1.0).contains(&tolerance), "tolerance is a fraction");
        let n: usize = groups.iter().map(|g| g.count).sum();
        let k = groups.len();
        blocks.reset(p);
        let mut split_keys = Vec::new();
        if n == 0 {
            return split_keys;
        }
        // Pieces hold group indices and offsets as `u32`.
        assert!(
            u32::try_from(n.max(k)).is_ok(),
            "a batch holds fewer than 2^32 tuples"
        );
        let group = |gi: usize| {
            let g = &groups[gi];
            (g.key, g.count)
        };

        // Partition-Size, Partition-Cardinality, Key-Split-CutOff (Alg. 2
        // lines 1–3). Ceilings keep total capacity ≥ total size (Eqn. 13).
        let p_size = n.div_ceil(p);
        let p_card = (k / p).max(1);
        let s_cut = (p_size / p_card).max(1);

        // Phase 1: fragment the high-frequency keys (lines 5–9). Residuals
        // are `(group, lookupLargePos, its S_cut piece there)`.
        let (mut normal, mut residuals) = blocks.take_lists();
        let mut bi = 0usize;
        for gi in 0..k {
            let (key, count) = group(gi);
            if count > s_cut {
                let at = blocks.place(bi, key, gi, 0, s_cut);
                residuals.push((gi, bi, at));
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
            let (key, count) = group(gi);
            blocks.place((offset + idx) % p, key, gi, 0, count);
        }

        // Phase 3: place the residuals of the fragmented keys (lines 17–25).
        // The placement capacity carries a small (~1.5%) tolerance above
        // P_size: without it, the last open blocks absorb the whole tail of
        // small residuals and their cardinality balloons. The tolerance
        // bounds the extra size imbalance by itself while letting the tail
        // spread over all blocks — BSI stays ~0 relative to hashing and BCI
        // stays at shuffle level, the trade Fig. 10 reports.
        let cap_limit = p_size + (p_size as f64 * tolerance) as usize + 1;
        'residuals: for &(gi, home, at) in &residuals {
            let (key, count) = group(gi);
            let (mut start, end) = (s_cut, count);
            // What returns home continues the `S_cut` piece, so a block holds
            // one piece per key. Only here can a key reach a second block,
            // and every block past its home that a residual reaches is new
            // to the key: the residual left no room in the blocks it reached
            // before. The first such block puts the key in the split-key
            // table.
            let mut put = |blocks: &mut SymbolicBlocks, b: usize, start: usize, end: usize| {
                if b == home {
                    blocks.extend(home, at, start, end);
                } else {
                    if split_keys.last() != Some(&key) {
                        split_keys.push(key);
                    }
                    blocks.place(b, key, gi, start, end);
                }
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
        blocks.lay_out_by_key(threads);
        split_keys
    }
}

/// One contiguous range `[start, end)` of key group `group`'s tuples, whose
/// key is `key`, assigned to a block by [`PromptPartitioner::assign_pieces`];
/// a block holds at most one piece of a key. A piece past its group's first
/// (`start > 0`) is a residual's that left the key's home block, and `later`
/// is its place among those in placement order, which is group by group, in
/// `start` order within a group. Indices and offsets are `u32`, which keeps
/// the per-block sort's elements at 24 bytes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Piece {
    key: Key,
    group: u32,
    start: u32,
    end: u32,
    later: u32,
}

impl Piece {
    fn group(&self) -> usize {
        self.group as usize
    }

    /// The piece's tuples as offsets into its group.
    fn range(&self) -> std::ops::Range<usize> {
        self.start as usize..self.end as usize
    }

    fn len(&self) -> usize {
        (self.end - self.start) as usize
    }

    /// The piece as its block's run of its key, and so its fragment: a
    /// block holds one piece per key.
    fn fragment(&self) -> KeyFragment {
        KeyFragment {
            key: self.key,
            count: self.len(),
        }
    }
}

/// The symbolic block state the assignment phase reads back: per-block
/// pieces, sizes and distinct-key counts — everything the placement decisions
/// depend on, with no tuple data — the group of every later piece in
/// placement order, the two group lists phase 1 sorts the keys into, and the
/// radix sorters that lay each block out, one per worker. Refilled, not
/// rebuilt, batch after batch.
#[derive(Debug, Default)]
struct SymbolicBlocks {
    pieces: Vec<Vec<Piece>>,
    sizes: Vec<usize>,
    cardinalities: Vec<usize>,
    later: Vec<usize>,
    normal: Vec<usize>,
    residuals: Vec<(usize, usize, usize)>,
    sorters: Vec<RadixSort<Piece>>,
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
        self.later.clear();
    }

    /// The phase-1 lists, empty, to fill while blocks are placed.
    fn take_lists(&mut self) -> (Vec<usize>, Vec<(usize, usize, usize)>) {
        self.normal.clear();
        self.residuals.clear();
        (
            std::mem::take(&mut self.normal),
            std::mem::take(&mut self.residuals),
        )
    }

    /// Keep the phase-1 lists' allocations for the next batch.
    fn put_lists(&mut self, normal: Vec<usize>, residuals: Vec<(usize, usize, usize)>) {
        (self.normal, self.residuals) = (normal, residuals);
    }

    /// Append a piece of group `group`, keyed `key`, to block `b`, which
    /// does not hold the key yet, and return its index there.
    /// `assign_pieces` has checked that every value fits a `u32`.
    fn place(&mut self, b: usize, key: Key, group: usize, start: usize, end: usize) -> usize {
        debug_assert!(start < end, "empty piece");
        let later = self.later.len() as u32;
        if start > 0 {
            self.later.push(group);
        }
        let (group, start, end) = (group as u32, start as u32, end as u32);
        self.pieces[b].push(Piece {
            key,
            group,
            start,
            end,
            later,
        });
        self.sizes[b] += (end - start) as usize;
        self.cardinalities[b] += 1;
        self.pieces[b].len() - 1
    }

    /// Extend block `b`'s piece `at` by `[start, end)`: a residual returning
    /// to its home block, straight after its `S_cut` fragment.
    fn extend(&mut self, b: usize, at: usize, start: usize, end: usize) {
        let pc = &mut self.pieces[b][at];
        debug_assert_eq!(pc.end as usize, start, "a residual continues its piece");
        self.sizes[b] += end - start;
        pc.end = end as u32;
    }

    #[inline]
    fn capacity(&self, b: usize, cap_limit: usize) -> usize {
        cap_limit.saturating_sub(self.sizes[b])
    }

    /// Placement is decided: lay each block out in key order. A block holds
    /// one piece per key, so every block becomes one run per key, keys
    /// ascending. The blocks are cut into one contiguous range per worker,
    /// up to `threads`, and each worker sorts its range with its own kept
    /// sorter.
    fn lay_out_by_key(&mut self, threads: usize) {
        let workers = threads.clamp(1, self.pieces.len().max(1));
        if self.sorters.len() < workers {
            self.sorters.resize_with(workers, RadixSort::default);
        }
        let per_worker = self.pieces.len().div_ceil(workers).max(1);
        let ranges = self.pieces.chunks_mut(per_worker);
        let mut jobs: Vec<_> = self.sorters.iter_mut().zip(ranges).collect();
        map_mut(&mut jobs, workers, |_, (sort, blocks)| {
            for pieces in blocks.iter_mut() {
                sort.sort(pieces, |pc| pc.key.0);
            }
        });
    }
}

/// A block's runs from its key-ordered pieces, into `block`'s (empty): a
/// block holds one piece per key, so each piece is one run.
fn runs_into(pieces: &[Piece], block: &mut DataBlock) {
    block.runs.extend(pieces.iter().map(Piece::fragment));
}

/// Copy the values of one block's assigned ranges out of the sealed batch
/// into `block` (empty). Pieces are appended in key order, the order the row
/// scatter lays them out in, so either way the block is bit-identical.
fn materialize_block(batch: &SealedBatch, pieces: &[Piece], block: &mut DataBlock) {
    // Sized exactly: the residual tolerance lets a block run a few tuples
    // past `N/p`, and a guess that low would double the block's allocation.
    let size = pieces.iter().map(Piece::len).sum();
    block.values.reserve_exact(size);
    for pc in pieces {
        let tuples = &batch.tuples(pc.group())[pc.range()];
        block.values.extend(tuples.iter().map(|t| t.value));
    }
    block.set_size(size);
    runs_into(pieces, block);
}

impl Partitioner for PromptPartitioner {
    fn name(&self) -> &'static str {
        match self.mode() {
            BufferingMode::PostSort => "Prompt",
            BufferingMode::FrequencyAware => "Prompt(count-tree)",
        }
    }

    /// The row pipeline, record → order → assign → scatter, with a wall
    /// clock around each phase: `seal_us` holds the record step, `order_us`
    /// the keys' order, `symbolic_us` the assignment and each block's key
    /// sort, and
    /// `materialize_us` holds the scatter and the run tables. A plan of
    /// runs alone ([`Columns::Runs`]) skips the scatter: its runs are the
    /// pieces'. The timings drive the observability layer's per-stage
    /// breakdowns (Fig. 14's overhead story) and never influence the plan.
    fn partition_slice(
        &mut self,
        tuples: &[Tuple],
        interval: Interval,
        p: usize,
        columns: Columns,
    ) -> (PartitionPlan, PartitionPhases) {
        let t0 = std::time::Instant::now();
        let mut groups = std::mem::take(&mut self.groups);
        groups.clear();
        self.record(tuples, interval);
        let seal_us = t0.elapsed().as_micros() as u64;
        let t_order = std::time::Instant::now();
        self.tables.slots.clear();
        self.buffer.order(0, &mut groups, &mut self.tables.slots);
        let order_us = t_order.elapsed().as_micros() as u64;
        let t1 = std::time::Instant::now();
        let tolerance = Self::DEFAULT_TOLERANCE;
        let split_keys =
            Self::assign_pieces(&groups, p, tolerance, self.threads, &mut self.symbolic);
        let symbolic_us = t1.elapsed().as_micros() as u64;
        let t2 = std::time::Instant::now();
        let sizes = &self.symbolic.sizes;
        let mut blocks = self.spare.sized_row_blocks(sizes, true, columns);
        match columns {
            Columns::RunsAndValues => self.scatter_rows(tuples, interval, &mut blocks),
            Columns::Runs => _ = self.buffer.forget(interval),
        }
        let pieces = &self.symbolic.pieces;
        map_mut(&mut blocks, self.threads, |b, block| {
            runs_into(&pieces[b], block)
        });
        let materialize_us = t2.elapsed().as_micros() as u64;
        self.groups = groups;
        let plan = PartitionPlan {
            blocks,
            split_keys: split_keys.into_iter().collect(),
        };
        let phases = PartitionPhases {
            select_us: 0,
            seal_us,
            order_us,
            symbolic_us,
            materialize_us,
        };
        (plan, phases)
    }

    fn partition_columnar(
        &mut self,
        batch: &MicroBatch,
        p: usize,
    ) -> Option<(ColumnarPlan, PartitionPhases)> {
        // The same record, order and assignment as the row layout, but the
        // batch is scattered into the sealed arena in seal order (as
        // `seal_columnar` lays it out), and the blocks are arena ranges, so
        // `to_row_plan()` of this result is bit-identical to the row
        // layout's plan (`plan_derivation_props`, `columnar_props`). The
        // arena and the blocks are allocated afresh.
        let (tuples, interval) = (&batch.tuples[..], batch.interval);
        let t0 = std::time::Instant::now();
        let mut groups = std::mem::take(&mut self.groups);
        groups.clear();
        self.record(tuples, interval);
        let seal_us = t0.elapsed().as_micros() as u64;
        let t_order = std::time::Instant::now();
        // What the arena holds is never read: the scatter overwrites all of it.
        let mut arena = vec![Tuple::keyed(Time::ZERO, Key(0)); tuples.len()];
        let buffer = &mut *self.buffer;
        let interval = seal_arena(
            buffer,
            Some(tuples),
            &mut arena,
            0,
            interval,
            &mut groups,
            &mut self.tables,
        );
        let sealed = SealedBatch::new(groups, arena, interval);
        let order_us = t_order.elapsed().as_micros() as u64;
        let t1 = std::time::Instant::now();
        let split_keys = Self::assign_pieces(
            &sealed.groups,
            p,
            Self::DEFAULT_TOLERANCE,
            self.threads,
            &mut self.symbolic,
        );
        let symbolic_us = t1.elapsed().as_micros() as u64;
        let t2 = std::time::Instant::now();
        let pieces = &self.symbolic.pieces;
        let plan = Self::materialize_pieces_columnar(&sealed, pieces, split_keys);
        let materialize_us = t2.elapsed().as_micros() as u64;
        self.groups = sealed.groups;
        let phases = PartitionPhases {
            select_us: 0,
            seal_us,
            order_us,
            symbolic_us,
            materialize_us,
        };
        Some((plan, phases))
    }

    fn recycle(&mut self, plan: PartitionPlan) {
        self.spare.keep(plan);
    }
}

impl PromptPartitioner {
    /// The batching phase of §4.1 for a batch handed over as its own slice:
    /// the accumulator, reset for `interval`, records each arrival's key
    /// slot and position, and keeps no tuple.
    fn record(&mut self, tuples: &[Tuple], interval: Interval) {
        // With no history from the caller, the frequency-aware `N_Est` is
        // re-seeded from the batch itself.
        let buffer = &mut *self.buffer;
        buffer.set_estimates(tuples.len().max(1) as f64, self.avg_keys);
        buffer.set_interval(interval);
        record_slice(buffer, tuples);
    }

    /// Write the value of every arrival of `tuples` once, straight to its
    /// position in `blocks`, each already as long as its assigned pieces:
    /// carve every block into its pieces' slices, in key order; a group's
    /// destination is its first piece's slice, then its later pieces' slices
    /// in `start` order; and the accumulator scatters its arrivals to them.
    fn scatter_rows(&mut self, tuples: &[Tuple], interval: Interval, blocks: &mut [DataBlock]) {
        let symbolic = &self.symbolic;
        let slots = std::mem::take(&mut self.tables.slots);
        let (mut heads, mut more) = self.tables.lend(slots.len(), true);
        let mut tiles: Vec<IterMut<'_, f64>> = relabel(std::mem::take(&mut self.tiles));
        tiles.resize_with(symbolic.later.len(), Default::default);
        for (block, pieces) in blocks.iter_mut().zip(&symbolic.pieces) {
            let mut rest = &mut block.values[..];
            for pc in pieces {
                let (mine, tail) = std::mem::take(&mut rest).split_at_mut(pc.len());
                rest = tail;
                if pc.start == 0 {
                    heads[slots[pc.group()] as usize] = mine.iter_mut();
                } else {
                    tiles[pc.later as usize] = mine.iter_mut();
                }
            }
        }
        // Later pieces were placed group by group, in `start` order.
        let mut rest = &mut tiles[..];
        for run in symbolic.later.chunk_by(|a, b| a == b) {
            let (mine, tail) = std::mem::take(&mut rest).split_at_mut(run.len());
            more[slots[run[0]] as usize] = mine;
            rest = tail;
        }
        self.buffer
            .scatter_values(tuples, &mut heads, &mut more, interval);
        self.tables.keep(heads, more);
        self.tiles = relabel(tiles);
        self.tables.slots = slots;
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
            .filter(|b| b.runs.iter().any(|f| f.key == Key(1)))
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
    fn phased_partition_is_bit_identical_and_times_phases() {
        let mb = zipfish_batch(150, 1500);
        let want = PromptPartitioner::new(BufferingMode::FrequencyAware).partition(&mb, 8);
        let (got, phases) = PromptPartitioner::new(BufferingMode::FrequencyAware).partition_slice(
            &mb.tuples,
            mb.interval,
            8,
            Columns::RunsAndValues,
        );
        assert_eq!(want, got, "phase timing must not change the plan");
        // Wall clocks are monotonic; phases can be fast but never negative,
        // and a machine fast enough to stay under 1 µs per phase reads all
        // zeros, so only sanity-check the type here.
        let _ = phases.seal_us + phases.order_us + phases.symbolic_us + phases.materialize_us;
        // A technique with no phase split reports zeros.
        let (_, zero) = crate::partitioner::HashPartitioner::new(1).partition_slice(
            &mb.tuples,
            mb.interval,
            8,
            Columns::Runs,
        );
        assert_eq!(zero, PartitionPhases::default());
    }

    #[test]
    fn partition_columnar_matches_partition_for_all_modes() {
        let mb = zipfish_batch(120, 900);
        for (mode, threads) in [
            (BufferingMode::FrequencyAware, 1),
            (BufferingMode::FrequencyAware, 3),
            (BufferingMode::PostSort, 1),
            (BufferingMode::PostSort, 3),
        ] {
            for p in [1usize, 2, 4, 8] {
                let want = PromptPartitioner::with_threads(mode, threads).partition(&mb, p);
                let (cols, _) = PromptPartitioner::with_threads(mode, threads)
                    .partition_columnar(&mb, p)
                    .expect("Prompt has a columnar path");
                let what = format!("{mode:?} threads={threads} p={p}");
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

    /// Shape guard: every baseline is a block chooser over the one
    /// placement loop, so no production half under `partitioner/` but
    /// `per_tuple.rs`' writes an arrival into a block — its value written
    /// to a position, its key and value scattered as a pair, a push of its
    /// key and value, or a push onto a value column — and that one does so
    /// once; no file names the builder the loop replaced. The loop lays its
    /// blocks out with the radix sort alone: `per_tuple.rs` names no
    /// `KeyMap` but the split-key derivation's `holders`, and calls no
    /// comparison sort. Every file in the directory is read, so a new one is
    /// checked too. Needles are spelt in halves.
    #[test]
    fn baseline_shape_one_placement_loop() {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/src/partitioner");
        let pushes_of = [
            ["= t.", "value"].concat(),
            ["(t.key, ", "t.value)"].concat(),
            [".push(", "t.key,"].concat(),
            ["values.", "push("].concat(),
        ];
        let builder = ["Block", "Builder"].concat();
        let key_map = ["Key", "Map"].concat();
        let sorts = [["sort_", "unstable"].concat(), ["sort_", "by"].concat()];
        let mut pushes = Vec::new();
        for entry in std::fs::read_dir(dir).expect("partitioner sources") {
            let path = entry.expect("a directory entry").path();
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            let source = std::fs::read_to_string(&path).expect("a source file");
            let production = source.lines().take_while(|l| *l != "#[cfg(test)]");
            for (n, line) in production.enumerate() {
                let at = format!("{name}:{}", n + 1);
                if pushes_of.iter().any(|push| line.contains(push)) {
                    pushes.push(at.clone());
                }
                assert!(!line.contains(&builder), "{at}: `{builder}`");
                if name != "per_tuple.rs" {
                    continue;
                }
                let table = line.contains(&key_map) && !line.starts_with("use ");
                assert!(!table || line.contains("holders"), "{at}: `{key_map}`");
                for sort in &sorts {
                    assert!(!line.contains(sort), "{at}: `{sort}`");
                }
            }
        }
        assert_eq!(pushes.len(), 1, "arrival writes: {pushes:?}");
        assert!(pushes[0].starts_with("per_tuple.rs:"), "{pushes:?}");
    }

    /// Shape guard: the pipeline hands the accumulator the batch's own
    /// slice, so no tuple is copied before the seal: after a partition in
    /// either layout, in every mode and at every width, the accumulator's
    /// held-tuple buffer is empty and has never allocated. (The row path
    /// scatters every arrival straight into its block: the partitioner
    /// keeps no sealed arena to fill.)
    #[test]
    fn prompt_shape_the_accumulator_holds_no_tuples() {
        let mb = zipfish_batch(120, 900);
        for mode in [BufferingMode::PostSort, BufferingMode::FrequencyAware] {
            for threads in [1, 3] {
                let mut part = PromptPartitioner::with_threads(mode, threads);
                let what = format!("{mode:?} threads={threads}");
                for _ in 0..2 {
                    let plan = part.partition(&mb, 4);
                    assert_eq!(plan.total_tuples(), mb.len(), "{what}");
                    assert_eq!(part.buffer.held(), (0, 0), "{what}: rows");
                    part.recycle(plan);
                }
                part.partition_columnar(&mb, 4)
                    .expect("Prompt has a columnar path");
                assert_eq!(part.buffer.held(), (0, 0), "{what}: columns");
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

    /// In either mode the plan is the same at every width, and the
    /// deprecated `shards` argument changes nothing.
    #[test]
    #[allow(deprecated)]
    fn plans_are_independent_of_the_width_and_of_shards() {
        let mb = zipfish_batch(200, 4000);
        for mode in [BufferingMode::PostSort, BufferingMode::FrequencyAware] {
            let want = PromptPartitioner::new(mode).partition(&mb, 8);
            for threads in [2, 4, 16] {
                let got = PromptPartitioner::with_threads(mode, threads).partition(&mb, 8);
                assert_eq!(want, got, "{mode:?}, {threads} threads");
            }
            let mut part = PromptPartitioner::with_parallelism(mode, 8, 2);
            assert_eq!(part.mode(), mode);
            assert_eq!(want, part.partition(&mb, 8), "{mode:?}, 8 shards");
        }
    }
}
