//! Oracle property tests for what a plan's consumers used to re-derive by
//! hashing and now take from the partitioner, and for the block shape the
//! Map kernel relies on:
//!
//! 1. Prompt's fragment tables and split-key table — against the hashing
//!    derivations (`PartitionPlan::from_blocks`, a per-block tuple count, and
//!    the columnar `from_ranges` / `from_blocks` Prompt used to call, kept
//!    here verbatim), in both layouts;
//! 2. Algorithm 3's counting sort and per-round bucket order — against the
//!    per-cluster scan, kept here verbatim as [`reference_assign`], on
//!    arbitrary and on key-ascending clusters;
//! 3. `total_keys(blocks, split_keys)` — against a `KeySet` over every
//!    fragment, for every technique's plan;
//! 4. every per-tuple technique's fragment tables and split-key table, which
//!    the one placement loop builds in buffers that outlive the batch (key
//!    grouping's split-key table empty, derived from nothing) — against
//!    `PartitionPlan::from_blocks` and a per-block count, batch after batch;
//! 5. Prompt's row pipeline, which writes each arrival straight into its
//!    block — against `partition_sealed` of the same accumulator's arena
//!    seal, in every mode and ingest geometry, batch after batch.
//! 6. the shape every Prompt block has, which the Map kernel's run walk
//!    relies on — one run per key, keys ascending — in every mode and
//!    geometry, in both layouts and through `partition_sealed`.
//! 7. the stable radix sort every baseline block, state pane and snapshot
//!    is laid out with — against `slice::sort_by_key`, which is stable, on
//!    `(key, tag)` pairs whose tags are their input positions — and the
//!    exact heartbeat order every exact accumulator sorts its keys into
//!    with it, `(count desc, key asc)` — against `slice::sort_by` on that
//!    comparison, on `(count, key, tag)` triples.
//! 8. a plan of runs alone, which a count under the identity map reads —
//!    against the plan that carries values, with its value columns dropped,
//!    for every technique and Prompt geometry, batch after batch through
//!    one instance as the job's columns alternate.
//!
//! The vendored proptest shim replays cases by test name, not by seed, so
//! the regression cases (`plan_derivation_props.proptest-regressions`) are
//! pinned as the explicit `pinned_*` tests at the bottom.

use prompt_core::batch::{
    total_keys, Columns, DataBlock, KeyFragment, MicroBatch, PartitionPlan, SealedBatch,
};
use prompt_core::buffering::{
    AccumulatorConfig, BatchAccumulator, FrequencyAwareAccumulator, PostSortAccumulator,
    ShardedAccumulator,
};
use prompt_core::columnar::{ColRange, ColumnarBlock, ColumnarPlan};
use prompt_core::hash::{bucket_of, mix64, KeyMap, KeySet};
use prompt_core::partitioner::{BufferingMode, Partitioner, PromptPartitioner, Technique};
use prompt_core::reduce::{KeyCluster, PromptReduceAllocator, ReduceAssigner};
use prompt_core::sort::{RadixSort, FALLBACK_LEN};
use prompt_core::types::{Interval, Key, Time, Tuple};
use proptest::prelude::*;

const TOLERANCES: [f64; 3] = [0.0, 1.0 / 64.0, 1.0];

fn interval() -> Interval {
    Interval::new(Time::ZERO, Time::from_secs(1))
}

/// A key-count list of one of five shapes: empty, one key, all equal, Zipf,
/// or arbitrary. Key ids are scrambled so that key order is not seal order.
fn counts() -> impl Strategy<Value = Vec<(Key, usize)>> {
    (0u8..5, 1usize..40, 1usize..600, any::<u64>()).prop_map(|(shape, n, top, bits)| {
        let counts: Vec<usize> = match shape {
            0 => vec![],
            1 => vec![top],
            2 => vec![1 + top % 40; n],
            3 => (1..=n).map(|i| top.div_ceil(i)).collect(),
            _ => (0..n)
                .map(|i| 1 + (bits.rotate_left(7 * i as u32) % top as u64) as usize)
                .collect(),
        };
        let key = |i: usize| Key((i as u64).wrapping_mul(0x9E37_79B9) % 10_007);
        counts
            .into_iter()
            .enumerate()
            .map(|(i, c)| (key(i), c))
            .collect()
    })
}

/// Seal order: exact `(count desc, key asc)` or, when `quasi`, as drawn —
/// the count tree's quasi-sorted order is an input Algorithm 2 accepts too.
fn sealed(counts: &[(Key, usize)], quasi: bool) -> SealedBatch {
    let mut sealed = SealedBatch::synthetic(counts, interval());
    if !quasi {
        sealed.sort_exact();
    }
    sealed
}

/// The same counts as an arrival stream, keys interleaved round-robin and
/// values varied, for the partitioners that seal their own batch.
fn arrivals(counts: &[(Key, usize)]) -> MicroBatch {
    let mut left: Vec<(Key, usize)> = counts.to_vec();
    let mut tuples = Vec::new();
    while left.iter().any(|&(_, n)| n > 0) {
        for (key, n) in left.iter_mut().filter(|(_, n)| *n > 0) {
            *n -= 1;
            let i = tuples.len() as u64;
            tuples.push(Tuple::new(Time::from_micros(1 + i), *key, i as f64 * 0.5));
        }
    }
    MicroBatch::new(tuples, interval())
}

/// A block's fragment table the hashing way: count its tuples per key.
fn counted_fragments(block: &DataBlock) -> Vec<KeyFragment> {
    let mut counts: KeyMap<usize> = KeyMap::default();
    for (key, values) in block.key_runs() {
        for _ in values {
            *counts.entry(key).or_insert(0) += 1;
        }
    }
    let mut fragments: Vec<KeyFragment> = (counts.into_iter())
        .map(|(key, count)| KeyFragment { key, count })
        .collect();
    fragments.sort_by_key(|f| f.key.0);
    fragments
}

fn hashed_key_count(blocks: &[&[KeyFragment]]) -> usize {
    let keys: KeySet = blocks
        .iter()
        .flat_map(|b| b.iter().map(|f| f.key))
        .collect();
    keys.len()
}

/// Prompt's row plan against the hashing derivations; `what` names the case.
fn check_row_plan(plan: &PartitionPlan, what: &str) -> Result<(), TestCaseError> {
    for (b, block) in plan.blocks.iter().enumerate() {
        let want = counted_fragments(block);
        prop_assert_eq!(&block.runs, &want, "{}: block {} runs", what, b);
    }
    let rebuilt = PartitionPlan::from_blocks(plan.blocks.clone());
    prop_assert_eq!(
        &plan.split_keys,
        &rebuilt.split_keys,
        "{}: split keys",
        what
    );
    let blocks = plan.block_fragments();
    let keys = total_keys(&blocks, &plan.split_keys);
    prop_assert_eq!(keys, hashed_key_count(&blocks), "{}: total_keys", what);
    Ok(())
}

/// `ColumnarBlock::from_ranges` as it stood before the symbolic fragments,
/// verbatim but for taking the ranges by reference: count per key.
fn from_ranges(ranges: &[(Key, ColRange)]) -> Vec<KeyFragment> {
    let mut counts: KeyMap<usize> = KeyMap::default();
    for &(key, r) in ranges {
        if r.len > 0 {
            *counts.entry(key).or_insert(0) += r.len;
        }
    }
    let mut fragments: Vec<KeyFragment> = counts
        .into_iter()
        .map(|(key, count)| KeyFragment { key, count })
        .collect();
    fragments.sort_by_key(|f| f.key.0);
    fragments
}

/// `ColumnarPlan::from_blocks`' holders map as it stood before the symbolic
/// split-key table, verbatim but for returning only the table.
fn from_blocks(blocks: &[ColumnarBlock]) -> KeySet {
    let mut seen: KeyMap<usize> = KeyMap::default();
    for b in blocks {
        for f in b.runs() {
            *seen.entry(f.key).or_insert(0) += 1;
        }
    }
    let split_keys: KeySet = seen
        .into_iter()
        .filter(|&(_, blocks)| blocks > 1)
        .map(|(k, _)| k)
        .collect();
    split_keys
}

/// Prompt's columnar plan against [`from_ranges`] / [`from_blocks`] and
/// against the row plan of the same batch.
fn check_columnar_plan(
    cols: &ColumnarPlan,
    rows: &PartitionPlan,
    what: &str,
) -> Result<(), TestCaseError> {
    for (b, block) in cols.blocks.iter().enumerate() {
        let want = from_ranges(&block.ranges);
        prop_assert_eq!(
            block.runs().collect::<Vec<_>>(),
            want,
            "{}: block {}",
            what,
            b
        );
    }
    prop_assert_eq!(
        &cols.split_keys,
        &from_blocks(&cols.blocks),
        "{}: split keys",
        what
    );
    prop_assert_eq!(&cols.to_row_plan(), rows, "{}: layouts differ", what);
    Ok(())
}

/// Algorithm 3 as it stood before the preference table, verbatim but for
/// `self.seed` becoming an argument: the oracle for
/// [`PromptReduceAllocator::assign`].
fn reference_assign(
    seed: u64,
    task: usize,
    clusters: &[KeyCluster],
    split: &KeySet,
    r: usize,
) -> Vec<usize> {
    assert!(r > 0, "need at least one bucket");
    let total: usize = clusters.iter().map(|c| c.size).sum();
    // Expected bucket size |I| / r (line 1), as a ceiling so capacities
    // cover the input.
    let bucket_size = total.div_ceil(r).max(1);

    let mut out = vec![usize::MAX; clusters.len()];
    // Capacities may go negative when hashed split keys overflow a
    // bucket; keep them signed so Worst-Fit still orders correctly.
    let mut capacity: Vec<i64> = vec![bucket_size as i64; r];

    // Line 2: split keys are routed by hashing (consistency across Map
    // tasks); their sizes consume bucket capacity.
    let mut non_split: Vec<(usize, KeyCluster)> = Vec::with_capacity(clusters.len());
    for (i, c) in clusters.iter().enumerate() {
        if split.contains(&c.key) {
            let b = bucket_of(seed, c.key, r);
            out[i] = b;
            capacity[b] -= c.size as i64;
        } else {
            non_split.push((i, *c));
        }
    }

    // Line 4: sort non-split clusters in descending size order
    // (ties by key for determinism).
    non_split.sort_by(|a, b| b.1.size.cmp(&a.1.size).then(a.1.key.0.cmp(&b.1.key.0)));

    // Lines 5–12: Worst-Fit with bucket retirement — the chosen bucket
    // leaves the candidate list until every bucket has received one
    // cluster, promoting balanced cluster counts per bucket. Ties are
    // broken by a rotation derived from the task's block index so that
    // concurrent tasks do not all favour the same bucket.
    let offset = task % r;
    let preference = |b: usize| r - ((b + r - offset) % r); // higher = preferred

    // Refill the candidate list with the buckets that still have spare
    // capacity; buckets already overflown by hashed split keys are only
    // used when nothing else remains ("limits bucket overflow", §5).
    let refill = |capacity: &[i64], available: &mut [bool]| -> usize {
        let mut n = 0;
        for b in 0..available.len() {
            available[b] = capacity[b] > 0;
            n += available[b] as usize;
        }
        if n == 0 {
            available.fill(true);
            n = available.len();
        }
        n
    };
    let mut available = vec![false; r];
    let mut n_available = refill(&capacity, &mut available);
    for (i, c) in non_split {
        let b = (0..r)
            .filter(|&b| available[b])
            .max_by_key(|&b| (capacity[b], preference(b)))
            .expect("candidate list refilled before exhaustion");
        out[i] = b;
        capacity[b] -= c.size as i64;
        available[b] = false;
        n_available -= 1;
        if n_available == 0 {
            n_available = refill(&capacity, &mut available);
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// (1) Prompt's plans carry the fragments and split keys the hashing
    /// derivations find, at every tolerance, in either seal order, and the
    /// columnar plan of a batch agrees with its row plan.
    #[test]
    fn prompt_plans_carry_what_hashing_would_derive(
        counts in counts(),
        p in 1usize..=17,
        quasi in any::<bool>(),
    ) {
        let batch = sealed(&counts, quasi);
        for tolerance in TOLERANCES {
            let plan = PromptPartitioner::partition_sealed_with(&batch, p, tolerance);
            prop_assert_eq!(plan.n_blocks(), p);
            prop_assert_eq!(plan.total_tuples(), batch.n_tuples);
            check_row_plan(&plan, &format!("p={p} tolerance={tolerance} quasi={quasi}"))?;
        }
        let mb = arrivals(&counts);
        for technique in [Technique::Prompt, Technique::PromptCountTree] {
            let what = format!("{technique:?} p={p}");
            let rows = technique.build(1).partition(&mb, p);
            check_row_plan(&rows, &what)?;
            let (cols, _) = technique
                .build(1)
                .partition_columnar(&mb, p)
                .expect("Prompt has a columnar path");
            check_columnar_plan(&cols, &rows, &what)?;
        }
    }

    /// (2) The preference-table scan places every cluster where the
    /// pre-table scan did — duplicate sizes, duplicate keys, any split
    /// subset, tasks past `r`.
    #[test]
    fn assign_matches_the_reference_scan(
        raw in proptest::collection::vec((0u64..24, 1usize..8), 0..60),
        split in proptest::collection::vec(0u64..24, 0..10),
        seed in any::<u64>(),
        r in 1usize..=33,
        task_pick in any::<usize>(),
    ) {
        // Sizes from a small range so that ties are common; keys repeat.
        let clusters: Vec<KeyCluster> = (raw.iter())
            .map(|&(k, s)| KeyCluster { key: Key(k), size: s * 3 })
            .collect();
        let split: KeySet = split.iter().map(|&k| Key(k)).collect();
        let task = task_pick % (2 * r);
        let got = PromptReduceAllocator::new(seed).assign(task, &clusters, &split, r);
        let want = reference_assign(seed, task, &clusters, &split, r);
        prop_assert_eq!(got, want, "task {} of r = {}", task, r);
    }

    /// (2b) The engine's input — clusters in strictly ascending key order,
    /// as every block's fragment table is — takes the counting sort without
    /// a key pre-sort: sizes on both sides of its counting range, a few
    /// past 10⁴, any split subset, tasks past `r`.
    #[test]
    fn assign_of_key_ascending_clusters_matches_the_reference_scan(
        raw in proptest::collection::vec((1u64..40, 0u8..8, 1usize..8_200), 0..120),
        split_bits in any::<u64>(),
        seed in any::<u64>(),
        r in 1usize..=33,
        task_pick in any::<usize>(),
    ) {
        let mut key = 0;
        let clusters: Vec<KeyCluster> = (raw.iter())
            .map(|&(gap, kind, size)| {
                key += gap;
                // One in eight is large; small sizes repeat, so ties are common.
                let size = match kind {
                    0 => 10_000 + size * 7,
                    1..=3 => 1 + size % 24,
                    _ => size,
                };
                KeyCluster { key: Key(key), size }
            })
            .collect();
        let split: KeySet = (clusters.iter().enumerate())
            .filter(|&(i, _)| split_bits.rotate_left(i as u32) & 3 == 0)
            .map(|(_, c)| c.key)
            .collect();
        let task = task_pick % (2 * r);
        let got = PromptReduceAllocator::new(seed).assign(task, &clusters, &split, r);
        let want = reference_assign(seed, task, &clusters, &split, r);
        prop_assert_eq!(got, want, "task {} of r = {}", task, r);
    }

    /// (3) `total_keys` from fragments and split keys equals a hashing
    /// count over the fragments, for every technique's plan.
    #[test]
    fn total_keys_matches_a_hashing_count_for_every_technique(
        counts in counts(),
        p in 1usize..=17,
        seed in any::<u64>(),
    ) {
        let mb = arrivals(&counts);
        let techniques = Technique::EVALUATION_SET
            .into_iter()
            .chain([Technique::DChoices(2), Technique::PromptCountTree]);
        for technique in techniques {
            let plan = technique.build(seed).partition(&mb, p);
            let blocks = plan.block_fragments();
            prop_assert_eq!(
                total_keys(&blocks, &plan.split_keys),
                hashed_key_count(&blocks),
                "{:?} p={}", technique, p
            );
            prop_assert_eq!(plan.total_keys(), counts.len(), "{:?} p={}", technique, p);
        }
    }

    /// (4) Every per-tuple technique's plan is what `from_blocks` derives
    /// from its blocks — key grouping's split-key table, which it derives
    /// from nothing, empty — and every block's fragment table is the
    /// per-key count, strictly ascending by key. A second batch through the
    /// same instance at another `p`, after the first plan is handed back,
    /// builds the plan a fresh instance builds.
    #[test]
    fn per_tuple_plans_are_what_from_blocks_would_derive(
        first in counts(),
        second in counts(),
        p in 1usize..=32,
        seed in any::<u64>(),
    ) {
        check_per_tuple_plans(&arrivals(&first), &arrivals(&second), p, seed)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// (8) A plan of runs alone is the plan that carries values with its
    /// value columns dropped — the same runs, sizes and split keys — for
    /// every technique and Prompt geometry, through one instance whose
    /// plans are handed back between batches of alternating columns.
    #[test]
    fn a_plan_of_runs_alone_is_the_value_plan_without_its_values(
        first in counts(),
        second in counts(),
        p in 1usize..=17,
        seed in any::<u64>(),
    ) {
        check_runs_alone(&[arrivals(&first), arrivals(&second), arrivals(&first)], p, seed)?;
    }
}

/// Every technique, and Prompt sharded in either mode, built afresh.
fn every_partitioner(seed: u64) -> Vec<(String, Box<dyn Partitioner>)> {
    let techniques = PER_TUPLE
        .into_iter()
        .chain([Technique::Prompt, Technique::PromptCountTree]);
    let mut built: Vec<(String, Box<dyn Partitioner>)> = techniques
        .map(|t| (format!("{t:?}"), t.build(seed)))
        .collect();
    for mode in [BufferingMode::PostSort, BufferingMode::FrequencyAware] {
        let sharded = PromptPartitioner::with_parallelism(mode, 4, 2);
        built.push((format!("{mode:?} 4 shards / 2 threads"), Box::new(sharded)));
    }
    built
}

/// Every partitioner partitions `batches` through one instance — runs
/// alone, then values, then runs alone, each plan handed back before the
/// next — into the plans a fresh instance builds with values, less their
/// values where the batch was partitioned without.
fn check_runs_alone(batches: &[MicroBatch], p: usize, seed: u64) -> Result<(), TestCaseError> {
    let mut reused = every_partitioner(seed);
    for (i, batch) in batches.iter().enumerate() {
        let columns = if i % 2 == 0 {
            Columns::Runs
        } else {
            Columns::RunsAndValues
        };
        for ((name, part), (_, mut fresh)) in reused.iter_mut().zip(every_partitioner(seed)) {
            let (plan, _) = part.partition_slice(&batch.tuples, batch.interval, p, columns);
            let mut want = fresh.partition(batch, p);
            if columns == Columns::Runs {
                want.blocks.iter_mut().for_each(|b| b.values.clear());
            }
            prop_assert_eq!(&plan, &want, "{} batch {} {:?}", name, i, columns);
            for block in &plan.blocks {
                let carried = if block.size() == 0 {
                    Columns::RunsAndValues
                } else {
                    columns
                };
                prop_assert_eq!(block.columns(), carried, "{} batch {}", name, i);
            }
            part.recycle(plan);
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// (5) The row pipeline's direct scatter builds the plan
    /// `partition_sealed` builds from the same accumulator's arena seal, in
    /// both modes and every ingest geometry, and again for a second batch
    /// through the same partitioner, into the blocks of the first plan.
    #[test]
    fn direct_scatter_builds_the_arena_plan(
        first in counts(),
        second in counts(),
        p in 1usize..=17,
    ) {
        check_direct_scatter(&[arrivals(&first), arrivals(&second)], p)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// (6) Every Prompt block is key runs, keys ascending, one run per
    /// fragment: `partition_sealed` at every tolerance in either seal order,
    /// and the partitioner's row plan and columnar plan (as rows) in both
    /// modes and every ingest geometry.
    #[test]
    fn key_ordered_blocks_in_every_mode_and_geometry(
        counts in counts(),
        p in 1usize..=17,
        quasi in any::<bool>(),
    ) {
        check_key_ordered_plans(&counts, p, quasi)?;
    }
}

/// A Prompt plan's blocks are each one run per key, keys strictly ascending.
fn check_key_ordered(plan: &PartitionPlan, what: &str) -> Result<(), TestCaseError> {
    for (b, block) in plan.blocks.iter().enumerate() {
        let runs: Vec<u64> = block.runs.iter().map(|run| run.key.0).collect();
        prop_assert!(
            runs.windows(2).all(|w| w[0] < w[1]),
            "{}: block {} runs {:?} are not key-ascending",
            what,
            b,
            runs
        );
    }
    Ok(())
}

/// [`check_key_ordered`] over every way a Prompt plan of `counts` is built.
fn check_key_ordered_plans(
    counts: &[(Key, usize)],
    p: usize,
    quasi: bool,
) -> Result<(), TestCaseError> {
    let batch = sealed(counts, quasi);
    for tolerance in TOLERANCES {
        let plan = PromptPartitioner::partition_sealed_with(&batch, p, tolerance);
        let what = format!("partition_sealed p={p} tolerance={tolerance}");
        check_key_ordered(&plan, &what)?;
    }
    let mb = arrivals(counts);
    for mode in [BufferingMode::PostSort, BufferingMode::FrequencyAware] {
        for (shards, threads) in [(1, 1), (1, 2), (4, 1), (4, 2), (7, 3)] {
            let what = format!("{mode:?} shards={shards} threads={threads} p={p}");
            let mut part = PromptPartitioner::with_parallelism(mode, shards, threads);
            check_key_ordered(&part.partition(&mb, p), &format!("{what} rows"))?;
            let (cols, _) = part.partition_columnar(&mb, p).expect("a columnar path");
            check_key_ordered(&cols.to_row_plan(), &format!("{what} columns"))?;
        }
    }
    Ok(())
}

/// [`check_key_ordered_plans`] of the degenerate batches: empty, one tuple,
/// one key over every block, every key above `S_cut`, more blocks than
/// tuples, and one block.
#[test]
fn key_ordered_blocks_of_degenerate_batches() {
    let one_tuple = [(Key(7), 1)];
    let one_key = [(Key(3), 1000)];
    let all_above_s_cut = [(Key(42), 500), (Key(11), 500), (Key(3), 500)];
    let few_tuples = [(Key(5), 2), (Key(6), 1), (Key(9), 1)];
    let cases = [
        (&[][..], &[1, 3][..]),
        (&one_tuple, &[1, 4]),
        (&one_key, &[1, 2, 5]),
        (&all_above_s_cut, &[1, 2, 4, 8]),
        (&few_tuples, &[1, 9, 17]),
    ];
    for (counts, ps) in cases {
        for &p in ps {
            for quasi in [false, true] {
                check_key_ordered_plans(counts, p, quasi).unwrap();
            }
        }
    }
}

/// Ingest geometries the direct scatter is checked over.
const SHARDS: [usize; 4] = [1, 2, 4, 7];
const THREADS: [usize; 3] = [1, 2, 3];

/// `mb` sealed by the accumulator a [`PromptPartitioner`] of this mode and
/// geometry owns, seeded as the partitioner seeds it, through the arena path
/// (one tuple at a time, or `par_ingest`), and partitioned from the arena.
fn arena_plan(
    mode: BufferingMode,
    shards: usize,
    threads: usize,
    mb: &MicroBatch,
    p: usize,
) -> PartitionPlan {
    let iv = mb.interval;
    let cfg = AccumulatorConfig {
        est_tuples: mb.len().max(1) as f64,
        ..AccumulatorConfig::default()
    };
    let mut acc: Box<dyn BatchAccumulator> = match (mode, shards > 1) {
        (BufferingMode::PostSort, false) => Box::new(PostSortAccumulator::new(iv)),
        (BufferingMode::PostSort, true) => Box::new(ShardedAccumulator::exact(shards, iv)),
        (BufferingMode::FrequencyAware, false) => Box::new(FrequencyAwareAccumulator::new(cfg, iv)),
        (BufferingMode::FrequencyAware, true) => Box::new(ShardedAccumulator::new(cfg, shards, iv)),
    };
    acc.ingest_all(&mb.tuples, threads);
    PromptPartitioner::partition_sealed(&acc.seal(iv), p)
}

/// Every batch of `batches` in turn through one partitioner per mode and
/// geometry, each plan handed back before the next batch, against
/// [`arena_plan`].
fn check_direct_scatter(batches: &[MicroBatch], p: usize) -> Result<(), TestCaseError> {
    for mode in [BufferingMode::PostSort, BufferingMode::FrequencyAware] {
        for shards in SHARDS {
            for threads in THREADS {
                let mut part = PromptPartitioner::with_parallelism(mode, shards, threads);
                for (i, mb) in batches.iter().enumerate() {
                    let plan = part.partition(mb, p);
                    let want = arena_plan(mode, shards, threads, mb, p);
                    prop_assert_eq!(
                        &plan,
                        &want,
                        "{:?} shards={} threads={} p={} batch {}",
                        mode,
                        shards,
                        threads,
                        p,
                        i
                    );
                    part.recycle(plan);
                }
            }
        }
    }
    Ok(())
}

/// The direct scatter's degenerate batches: empty, one tuple, one key, every
/// key above `S_cut` (fewer equal keys than blocks), more blocks than tuples,
/// and one block — each after a Zipf batch, so the first plan's blocks are
/// recycled into a plan of another shape.
#[test]
fn direct_scatter_of_degenerate_batches() {
    let zipf: Vec<(Key, usize)> = (1..=30).map(|i| (Key(i * 7), 300 / i as usize)).collect();
    let one_tuple = [(Key(7), 1)];
    let one_key = [(Key(3), 1000)];
    let all_above_s_cut = [(Key(3), 500), (Key(11), 500), (Key(42), 500)];
    let few_tuples = [(Key(5), 2), (Key(6), 1), (Key(9), 1)];
    let cases = [
        (&[][..], &[1, 3][..]),
        (&one_tuple, &[1, 4]),
        (&one_key, &[1, 2, 5]),
        (&all_above_s_cut, &[4, 8]),
        (&few_tuples, &[1, 9, 17]),
    ];
    for (counts, ps) in cases {
        for &p in ps {
            let batches = [arrivals(&zipf), arrivals(counts)];
            check_direct_scatter(&batches, p).unwrap();
        }
    }
}

/// The per-tuple techniques: every technique the placement loop runs.
const PER_TUPLE: [Technique; 7] = [
    Technique::TimeBased,
    Technique::Shuffle,
    Technique::Hash,
    Technique::Pkg(2),
    Technique::Pkg(5),
    Technique::Cam(4),
    Technique::DChoices(2),
];

/// Every per-tuple technique's plans of `first` at `p` and, through the same
/// instance once the first plan is handed back, of `second` at another
/// block count, against the derivations the placement loop replaced.
fn check_per_tuple_plans(
    first: &MicroBatch,
    second: &MicroBatch,
    p: usize,
    seed: u64,
) -> Result<(), TestCaseError> {
    let q = p % 32 + 1;
    for technique in PER_TUPLE {
        let mut part = technique.build(seed);
        let plan = part.partition(first, p);
        check_derivations(&plan, technique, p)?;
        part.recycle(plan);
        let again = part.partition(second, q);
        check_derivations(&again, technique, q)?;
        let fresh = technique.build(seed).partition(second, q);
        prop_assert_eq!(&again, &fresh, "{:?} p={}: recycled vs fresh", technique, q);
    }
    Ok(())
}

/// A per-tuple plan against `from_blocks` and a per-block count.
fn check_derivations(
    plan: &PartitionPlan,
    technique: Technique,
    p: usize,
) -> Result<(), TestCaseError> {
    let what = format!("{technique:?} p={p}");
    prop_assert_eq!(plan.n_blocks(), p, "{}", what);
    let derived = PartitionPlan::from_blocks(plan.blocks.clone());
    prop_assert_eq!(&plan.split_keys, &derived.split_keys, "{}", what);
    if technique == Technique::Hash {
        prop_assert!(plan.split_keys.is_empty(), "{}: a split key", what);
    }
    for (b, block) in plan.blocks.iter().enumerate() {
        let keys: Vec<u64> = block.runs.iter().map(|f| f.key.0).collect();
        prop_assert!(
            keys.windows(2).all(|w| w[0] < w[1]),
            "{}: block {} order",
            what,
            b
        );
        prop_assert_eq!(
            &block.runs,
            &counted_fragments(block),
            "{}: block {}",
            what,
            b
        );
    }
    Ok(())
}

/// The per-tuple techniques' degenerate batches: empty, one tuple, one key
/// holding the whole batch, and a few keys each holding a third of it, each
/// followed through the same instance by a Zipf batch.
#[test]
fn pinned_per_tuple_plans_of_degenerate_batches() {
    let zipf: Vec<(Key, usize)> = (1..=30).map(|i| (Key(i * 7), 300 / i as usize)).collect();
    let one_tuple = [(Key(7), 1)];
    let one_hot = [(Key(3), 1000)];
    let all_hot = [(Key(3), 500), (Key(11), 500), (Key(42), 500)];
    for counts in [&[][..], &one_tuple[..], &one_hot[..], &all_hot[..]] {
        for p in [1, 2, 5, 32] {
            check_per_tuple_plans(&arrivals(counts), &arrivals(&zipf), p, 9).unwrap();
        }
    }
}

/// A heavy key whose residual returns whole to its home block (tolerance 1
/// leaves it room): two pieces, one fragment, no split.
#[test]
fn pinned_a_residual_merges_into_its_home_fragment() {
    let counts = [(1, 60), (2, 10), (3, 10), (4, 10), (5, 10)].map(|(k, c)| (Key(k), c));
    let plan = PromptPartitioner::partition_sealed_with(&sealed(&counts, false), 2, 1.0);
    check_row_plan(&plan, "home merge").unwrap();
    let of_key_1: Vec<usize> = (plan.blocks.iter())
        .flat_map(|b| b.runs.iter().filter(|f| f.key == Key(1)))
        .map(|f| f.count)
        .collect();
    assert_eq!(of_key_1, [60], "the residual fits its home block");
    assert!(plan.split_keys.is_empty());
}

/// One giant key over four blocks: its `S_cut` fragment and one tuple of
/// residual share the home block, as one piece, the rest pours over the
/// three others — the split key of a plan whose every block holds it.
#[test]
fn pinned_a_poured_residual_reaches_every_block() {
    let counts = [(Key(1), 1000)];
    let plan = PromptPartitioner::partition_sealed(&sealed(&counts, false), 4);
    check_row_plan(&plan, "poured").unwrap();
    let sizes: Vec<usize> = plan.blocks.iter().map(|b| b.runs[0].count).collect();
    assert_eq!(sizes, [254, 254, 254, 238]);
    assert_eq!(plan.split_keys, [Key(1)].into_iter().collect::<KeySet>());
    let mb = arrivals(&counts);
    let rows = Technique::Prompt.build(1).partition(&mb, 4);
    let (cols, _) = Technique::Prompt
        .build(1)
        .partition_columnar(&mb, 4)
        .unwrap();
    assert_eq!(cols.blocks[0].ranges.len(), 1, "home holds one piece");
    check_columnar_plan(&cols, &rows, "poured").unwrap();
}

/// Ties on size and on key: the unstable sort's position tie-break keeps
/// the stable sort's order.
#[test]
fn pinned_duplicate_keys_and_sizes_keep_the_stable_order() {
    let clusters: Vec<KeyCluster> = [(3, 6), (3, 6), (1, 6), (3, 6), (2, 9), (1, 6)]
        .iter()
        .map(|&(k, s)| KeyCluster {
            key: Key(k),
            size: s,
        })
        .collect();
    let split: KeySet = [Key(2)].into_iter().collect();
    for r in [1, 2, 3, 4, 7] {
        for task in 0..2 * r {
            let got = PromptReduceAllocator::new(11).assign(task, &clusters, &split, r);
            assert_eq!(
                got,
                reference_assign(11, task, &clusters, &split, r),
                "r={r}"
            );
        }
    }
}

/// `(key, tag)` pairs, the tag each pair's input position: as many as the
/// fallback sorts or several thousand, over a few distinct keys (so most
/// repeat) of one of five shapes — below 2^11 (one live digit), spread over
/// every digit, differing only in the top digit, all equal, or `0` and
/// `u64::MAX`.
fn tagged_pairs() -> impl Strategy<Value = Vec<(u64, u32)>> {
    let sizes = (any::<bool>(), 0usize..2 * FALLBACK_LEN, 0usize..6000);
    (sizes, 0u8..5, 1u64..200, any::<u64>()).prop_map(
        |((short, few, many), shape, distinct, bits)| {
            let n = if short { few } else { many };
            (0..n as u64)
                .map(|i| {
                    let r = mix64(bits ^ i) % distinct;
                    let key = match shape {
                        0 => r % (1 << 11),
                        1 => mix64(r ^ bits),
                        2 => r << 55,
                        3 => bits,
                        _ => [0, u64::MAX][r as usize % 2],
                    };
                    (key, i as u32)
                })
                .collect()
        },
    )
}

/// `pairs` through the radix sort must equal `pairs` through the standard
/// library's stable sort: keys ascending, equal keys in input order.
fn check_radix_sort(
    sort: &mut RadixSort<(u64, u32)>,
    pairs: &[(u64, u32)],
) -> Result<(), TestCaseError> {
    let mut want = pairs.to_vec();
    want.sort_by_key(|&(key, _)| key);
    let mut got = pairs.to_vec();
    sort.sort(&mut got, |&(key, _)| key);
    prop_assert_eq!(got, want, "{} pairs", pairs.len());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// (7) The radix sort is the stable comparison sort, through one sorter
    /// kept across two slices as its callers keep theirs.
    #[test]
    fn radix_sort_matches_the_stable_comparison_sort(
        first in tagged_pairs(),
        second in tagged_pairs(),
    ) {
        let mut sort = RadixSort::default();
        check_radix_sort(&mut sort, &first)?;
        check_radix_sort(&mut sort, &second)?;
    }
}

/// The radix sort's edge cases, each at lengths on both sides of the
/// fallback: empty and one-element slices, all-equal keys, keys that differ
/// only in the top digit, `0` and `u64::MAX`, and runs of duplicate keys
/// whose tags show their input order kept.
#[test]
fn radix_sort_of_edge_cases() {
    let tagged =
        |keys: &mut dyn Iterator<Item = u64>| -> Vec<(u64, u32)> { keys.zip(0..).collect() };
    let mut sort = RadixSort::default();
    let mut check = |pairs: Vec<(u64, u32)>| check_radix_sort(&mut sort, &pairs).unwrap();
    check(Vec::new());
    check(vec![(u64::MAX, 0)]);
    for n in [2, FALLBACK_LEN - 1, FALLBACK_LEN, FALLBACK_LEN + 1, 5000] {
        let n = n as u64;
        check(tagged(&mut (0..n).map(|_| 0x5eed)));
        check(tagged(&mut (0..n).map(|i| ((n - i) % 3) << 61)));
        check(tagged(&mut (0..n).map(|i| (((n - i) % 9) << 55) | 0x7ff)));
        check(tagged(
            &mut (0..n).map(|i| [u64::MAX, 0, 1, u64::MAX - 1][i as usize % 4]),
        ));
        check(tagged(&mut (0..n).map(|i| mix64(i % 7))));
    }
}

/// `(count, key, tag)` triples, the tag each triple's input position: as
/// many as the fallback sorts or several thousand, with counts and keys
/// drawn from a few values each, so both repeat and tie. Keys are of one of
/// three shapes: spread over all 64 bits, so every digit is live, with `0`
/// and `u64::MAX` among them (the sort by key, then by count); below 2^17;
/// or differing in their low 20 bits only, above which every key has the
/// same bits set (both one sort of count and key cut to their widths).
/// Counts are of one of four scales: below 2^11, past 2^11, past 2^22, or
/// near `u32::MAX`.
fn counted_keys() -> impl Strategy<Value = Vec<(u32, u64, u32)>> {
    let sizes = (any::<bool>(), 0usize..FALLBACK_LEN, 0usize..5000);
    let shapes = (0u8..3, 0u8..4);
    (sizes, shapes, 1u64..300, 1u64..40, any::<u64>()).prop_map(
        |((short, few, many), (keys_shape, scale), keys, counts, bits)| {
            let n = if short { few } else { many };
            (0..n as u64)
                .map(|i| {
                    let k = mix64(bits ^ i) % keys;
                    let key = match (keys_shape, k % 8) {
                        (0, 0) => 0,
                        (0, 1) => u64::MAX,
                        (0, _) => mix64(k ^ bits),
                        (1, _) => mix64(k ^ bits) % (1 << 17),
                        _ => (0xabcd << 44) | (mix64(k ^ bits) % (1 << 20)),
                    };
                    let c = mix64(!bits ^ i) % counts;
                    let count = match scale {
                        0 => c * 37,
                        1 => (1 << 11) + c * 4099,
                        2 => (1 << 22) + c * 7919,
                        _ => u64::from(u32::MAX) - c,
                    };
                    (count as u32, key, i as u32)
                })
                .collect()
        },
    )
}

/// `triples` through the radix sort's exact order must equal `triples`
/// through the standard library's stable sort on `(count desc, key asc)`.
fn check_exact_order(
    sort: &mut RadixSort<(u32, u64, u32)>,
    triples: &[(u32, u64, u32)],
) -> Result<(), TestCaseError> {
    let mut want = triples.to_vec();
    want.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
    let mut got = triples.to_vec();
    sort.order_by_count(&mut got, |&(count, _, _)| count.into(), |&(_, key, _)| key);
    prop_assert_eq!(got, want, "{} triples", triples.len());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// (7) The exact heartbeat order is the comparison sort's, through one
    /// sorter kept across two lists as every exact accumulator keeps its.
    #[test]
    fn exact_order_matches_the_comparison_sort(
        first in counted_keys(),
        second in counted_keys(),
    ) {
        let mut sort = RadixSort::default();
        check_exact_order(&mut sort, &first)?;
        check_exact_order(&mut sort, &second)?;
    }
}

/// The exact order's edge cases, at lengths on both sides of the fallback:
/// one count with keys at both ends of the key space, counts at the digit
/// boundaries 2^11 and 2^22 and at `u32::MAX` over wide and narrow keys,
/// keys that differ only in their top bits, and duplicate triples whose
/// tags show their input order kept.
#[test]
fn exact_order_of_edge_cases() {
    const EDGES: [u32; 7] = [
        0,
        1,
        (1 << 11) - 1,
        1 << 11,
        (1 << 22) - 1,
        1 << 22,
        u32::MAX,
    ];
    /// `(count, key)` of element `i` of `n`.
    type Case = fn(u64, u64) -> (u32, u64);
    let cases: [Case; 6] = [
        |i, _| (7, [0, u64::MAX][i as usize % 2]),
        |i, _| (EDGES[i as usize % 7], mix64(i % 5)),
        |i, n| (EDGES[(n - i) as usize % 7], i << 58),
        |i, _| (u32::MAX - (i % 3) as u32, u64::MAX - i % 2),
        |i, _| (EDGES[i as usize % 7], i % 11),
        |i, _| (EDGES[i as usize % 3], ((i % 5) << 60) | 7),
    ];
    let mut sort = RadixSort::default();
    let mut check = |triples: Vec<(u32, u64, u32)>| check_exact_order(&mut sort, &triples).unwrap();
    check(Vec::new());
    check(vec![(u32::MAX, u64::MAX, 0)]);
    for n in [2, FALLBACK_LEN - 1, FALLBACK_LEN, FALLBACK_LEN + 1, 5000] {
        let n = n as u64;
        for case in cases {
            check(
                (0..n)
                    .map(|i| (case(i, n), i as u32))
                    .map(|((c, k), t)| (c, k, t))
                    .collect(),
            );
        }
    }
}
