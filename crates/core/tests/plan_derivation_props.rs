//! Oracle property tests for the four things a plan's consumers used to
//! re-derive by hashing and now take from the partitioner:
//!
//! 1. Prompt's fragment tables and split-key table — against the hashing
//!    derivations (`PartitionPlan::from_blocks`, a per-block tuple count, and
//!    the columnar `from_ranges` / `from_blocks` Prompt used to call, kept
//!    here verbatim), in both layouts;
//! 2. Algorithm 3's Worst-Fit scan — against the pre-table scan, kept here
//!    verbatim as [`reference_assign`];
//! 3. `total_keys(blocks, split_keys)` — against a `KeySet` over every
//!    fragment, for every technique's plan;
//! 4. key grouping's empty split-key table and unstably sorted fragment
//!    tables — against `PartitionPlan::from_blocks` and a per-block count.
//!
//! The vendored proptest shim replays cases by test name, not by seed, so
//! the regression cases (`plan_derivation_props.proptest-regressions`) are
//! pinned as the explicit `pinned_*` tests at the bottom.

use prompt_core::batch::{total_keys, KeyFragment, MicroBatch, PartitionPlan, SealedBatch};
use prompt_core::columnar::{ColRange, ColumnarBlock, ColumnarPlan};
use prompt_core::hash::{bucket_of, KeyMap, KeySet};
use prompt_core::partitioner::{HashPartitioner, Partitioner, PromptPartitioner, Technique};
use prompt_core::reduce::{KeyCluster, PromptReduceAllocator, ReduceAssigner};
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
fn counted_fragments(tuples: &[Tuple]) -> Vec<KeyFragment> {
    let mut counts: KeyMap<usize> = KeyMap::default();
    for t in tuples {
        *counts.entry(t.key).or_insert(0) += 1;
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
        let want = counted_fragments(&block.tuples);
        prop_assert_eq!(&block.fragments, &want, "{}: block {} fragments", what, b);
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
        for f in &b.fragments {
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
        prop_assert_eq!(&block.fragments, &want, "{}: block {}", what, b);
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

    /// (4) Key grouping derives no split-key table: its plan equals the one
    /// `from_blocks` derives from its blocks, and every block's fragment
    /// table is the per-key count, strictly ascending by key.
    #[test]
    fn hash_plans_are_what_from_blocks_would_derive(
        counts in counts(),
        p in 1usize..=32,
        seed in any::<u64>(),
    ) {
        check_hash_plan(&arrivals(&counts), p, seed)?;
    }
}

/// [`HashPartitioner`]'s plan of `mb` against the derivations it skips.
fn check_hash_plan(mb: &MicroBatch, p: usize, seed: u64) -> Result<(), TestCaseError> {
    let plan = HashPartitioner::new(seed).partition(mb, p);
    prop_assert_eq!(
        &plan,
        &PartitionPlan::from_blocks(plan.blocks.clone()),
        "p={}",
        p
    );
    for (b, block) in plan.blocks.iter().enumerate() {
        let keys: Vec<u64> = block.fragments.iter().map(|f| f.key.0).collect();
        prop_assert!(keys.windows(2).all(|w| w[0] < w[1]), "block {} order", b);
        prop_assert_eq!(
            &block.fragments,
            &counted_fragments(&block.tuples),
            "block {}",
            b
        );
    }
    Ok(())
}

/// Key grouping's degenerate batches: empty, one tuple, one key holding the
/// whole batch, and a few keys each holding a third of it.
#[test]
fn pinned_hash_plans_of_degenerate_batches() {
    let one_tuple = [(Key(7), 1)];
    let one_hot = [(Key(3), 1000)];
    let all_hot = [(Key(3), 500), (Key(11), 500), (Key(42), 500)];
    for counts in [&[][..], &one_tuple[..], &one_hot[..], &all_hot[..]] {
        for p in [1, 2, 5, 32] {
            check_hash_plan(&arrivals(counts), p, 9).unwrap();
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
        .flat_map(|b| b.fragments.iter().filter(|f| f.key == Key(1)))
        .map(|f| f.count)
        .collect();
    assert_eq!(of_key_1, [60], "the residual fits its home block");
    assert!(plan.split_keys.is_empty());
}

/// One giant key over four blocks: its `S_cut` fragment and one tuple of
/// residual share the home block, the rest pours over the three others —
/// the split key of a plan whose every block holds it.
#[test]
fn pinned_a_poured_residual_reaches_every_block() {
    let counts = [(Key(1), 1000)];
    let plan = PromptPartitioner::partition_sealed(&sealed(&counts, false), 4);
    check_row_plan(&plan, "poured").unwrap();
    let sizes: Vec<usize> = plan.blocks.iter().map(|b| b.fragments[0].count).collect();
    assert_eq!(sizes, [254, 254, 254, 238]);
    assert_eq!(plan.split_keys, [Key(1)].into_iter().collect::<KeySet>());
    let mb = arrivals(&counts);
    let rows = Technique::Prompt.build(1).partition(&mb, 4);
    let (cols, _) = Technique::Prompt
        .build(1)
        .partition_columnar(&mb, 4)
        .unwrap();
    assert_eq!(cols.blocks[0].ranges.len(), 2, "home holds two pieces");
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
