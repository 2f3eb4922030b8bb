//! Differential safety net for the sharded parallel ingest & partitioning
//! pipeline, plus property-based validation of the B-BPFI heuristic.
//!
//! The parallel pipeline's contract for the paper's budgeted shards (see
//! `prompt_core::buffering::ShardedAccumulator::new`; the engine's exact
//! shards, which seal the serial batch for *any* shard count, are covered by
//! `crates/core/tests/accumulator_props.rs`) is checked differentially
//! against the serial reference over generated skewed streams:
//!
//! * sharded ingest produces the *exact* per-key frequencies of the serial
//!   Algorithm 1 accumulator, for any shard count;
//! * parallel ingest is bit-identical to serial ingest of the same sharded
//!   accumulator, for any thread count;
//! * one shard reproduces the legacy accumulator — and hence the legacy
//!   partition plan — exactly;
//! * parallel block materialization is bit-identical to serial.
//!
//! The B-BPFI plan itself is validated against its paper invariants (mass
//! conservation, bounded block overfill, imbalance no worse than hashing)
//! and, on small instances, against the exact branch-and-bound optimum in
//! `prompt_core::binpack`.

use std::collections::BTreeMap;

use prompt::prelude::*;
use prompt_core::binpack::{
    exact_min_fragments, fragmentation_minimization, prompt_heuristic, Instance,
};
use prompt_core::metrics;
use proptest::prelude::*;

// ---------------------------------------------------------------------------
// Stream generators
// ---------------------------------------------------------------------------

const IV: Interval = Interval {
    start: Time(0),
    end: Time(1_000_000),
};

/// Merge a generated `(key, count)` list into a deterministic spec (repeated
/// keys summed, key-sorted).
fn merge_spec(raw: &[(u64, usize)]) -> Vec<(u64, usize)> {
    let mut m: BTreeMap<u64, usize> = BTreeMap::new();
    for &(k, c) in raw {
        *m.entry(k).or_insert(0) += c;
    }
    m.into_iter().collect()
}

/// Round-robin interleave the spec into an arrival-ordered stream, so hot
/// keys are spread over the whole batch the way a real stream delivers them.
fn interleaved_stream(spec: &[(u64, usize)]) -> Vec<Tuple> {
    let total: usize = spec.iter().map(|&(_, c)| c).sum();
    let mut remaining: Vec<(u64, usize)> = spec.to_vec();
    let mut tuples = Vec::with_capacity(total);
    let mut ts = 0u64;
    while tuples.len() < total {
        for r in remaining.iter_mut() {
            if r.1 > 0 {
                r.1 -= 1;
                ts += 1;
                tuples.push(Tuple::keyed(Time(ts), Key(r.0)));
            }
        }
    }
    tuples
}

/// A Zipf-flavoured spec: the i-th distinct generated key gets
/// `ceil(heaviest / rank)` tuples.
fn zipf_spec(keys: &[u64], heaviest: usize) -> Vec<(u64, usize)> {
    let distinct: Vec<u64> = {
        let mut seen = std::collections::BTreeSet::new();
        keys.iter().copied().filter(|&k| seen.insert(k)).collect()
    };
    distinct
        .iter()
        .enumerate()
        .map(|(i, &k)| (k, heaviest.div_ceil(i + 1)))
        .collect()
}

fn zipf_keys() -> impl Strategy<Value = Vec<u64>> {
    proptest::collection::vec(1u64..5_000, 4..80)
}

/// A stream whose hot key shifts mid-batch: the first half is dominated by
/// one key, the second half by another, over a shared background.
fn shifting_hot_stream(keys: &[u64], heavy: usize) -> Vec<Tuple> {
    let spec = merge_spec(&zipf_spec(keys, heavy.div_ceil(4)));
    let hot_a = keys[0];
    let hot_b = keys[keys.len() / 2].wrapping_add(7_919);
    let mut first = spec.clone();
    first.push((hot_a, heavy));
    let mut second = spec;
    second.push((hot_b, heavy));
    let mut tuples = interleaved_stream(&merge_spec(&first));
    tuples.extend(interleaved_stream(&merge_spec(&second)));
    // Re-stamp so timestamps stay monotone across the two halves.
    for (i, t) in tuples.iter_mut().enumerate() {
        t.ts = Time(i as u64 + 1);
    }
    tuples
}

fn acc_config(tuples: &[Tuple]) -> AccumulatorConfig {
    let keys: std::collections::BTreeSet<u64> = tuples.iter().map(|t| t.key.0).collect();
    AccumulatorConfig {
        budget: 8,
        est_tuples: tuples.len().max(1) as f64,
        avg_keys: keys.len().max(1) as f64,
    }
}

fn seal_serial(tuples: &[Tuple], cfg: AccumulatorConfig) -> SealedBatch {
    let mut acc = FrequencyAwareAccumulator::new(cfg, IV);
    for &t in tuples {
        acc.ingest(t);
    }
    acc.seal(IV)
}

fn seal_sharded(
    tuples: &[Tuple],
    cfg: AccumulatorConfig,
    shards: usize,
    threads: usize,
) -> SealedBatch {
    let mut acc = ShardedAccumulator::new(cfg, shards, IV);
    acc.par_ingest(tuples, threads);
    acc.seal(IV)
}

fn frequencies(batch: &SealedBatch) -> BTreeMap<u64, usize> {
    batch.groups.iter().map(|g| (g.key.0, g.count)).collect()
}

// ---------------------------------------------------------------------------
// Differential: sharded vs serial accumulator
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The sharded accumulator reports the exact per-key frequencies of the
    /// serial Algorithm 1 accumulator for any shard count, on Zipf streams.
    #[test]
    fn sharded_frequencies_match_serial_exactly(
        keys in zipf_keys(),
        heaviest in 20usize..300,
        shards in 2usize..10,
    ) {
        let tuples = interleaved_stream(&merge_spec(&zipf_spec(&keys, heaviest)));
        let cfg = acc_config(&tuples);
        let serial = seal_serial(&tuples, cfg);
        let sharded = seal_sharded(&tuples, cfg, shards, 1);
        prop_assert_eq!(frequencies(&sharded), frequencies(&serial));
        prop_assert_eq!(sharded.n_tuples, serial.n_tuples);
        prop_assert_eq!(sharded.n_keys(), serial.n_keys());
    }

    /// Same exact-frequency guarantee when the hot key shifts mid-batch —
    /// the adversarial case for any frequency-tracking shortcut.
    #[test]
    fn sharded_frequencies_survive_shifting_hot_keys(
        keys in zipf_keys(),
        heavy in 50usize..400,
        shards in 2usize..10,
        threads in 1usize..9,
    ) {
        let tuples = shifting_hot_stream(&keys, heavy);
        let cfg = acc_config(&tuples);
        let serial = seal_serial(&tuples, cfg);
        let sharded = seal_sharded(&tuples, cfg, shards, threads);
        prop_assert_eq!(frequencies(&sharded), frequencies(&serial));
    }

    /// Parallel ingest is bit-identical (groups, order, tuples) to serial
    /// ingest of the same sharded accumulator, for any thread count.
    #[test]
    fn parallel_ingest_is_bit_identical_to_serial(
        keys in zipf_keys(),
        heaviest in 20usize..300,
        shards in 2usize..10,
        threads in 2usize..9,
    ) {
        let tuples = interleaved_stream(&merge_spec(&zipf_spec(&keys, heaviest)));
        let cfg = acc_config(&tuples);
        let serial = seal_sharded(&tuples, cfg, shards, 1);
        let parallel = seal_sharded(&tuples, cfg, shards, threads);
        prop_assert_eq!(parallel, serial);
    }

    /// With one shard the pipeline reproduces the legacy accumulator — and
    /// therefore the legacy partition plan — bit for bit.
    #[test]
    fn one_shard_reproduces_the_legacy_plan(
        keys in zipf_keys(),
        heaviest in 20usize..300,
        threads in 1usize..9,
        p in 2usize..10,
    ) {
        let tuples = interleaved_stream(&merge_spec(&zipf_spec(&keys, heaviest)));
        let cfg = acc_config(&tuples);
        let legacy = seal_serial(&tuples, cfg);
        let sharded = seal_sharded(&tuples, cfg, 1, threads);
        prop_assert_eq!(&sharded, &legacy);
        prop_assert_eq!(
            PromptPartitioner::partition_sealed(&sharded, p),
            PromptPartitioner::partition_sealed(&legacy, p)
        );
    }

    /// After the exact re-sort (the ablation path), the sharded and serial
    /// pipelines agree on the *entire* sealed batch and partition plan for
    /// any shard count: the k-way merge loses nothing.
    #[test]
    fn exact_sorted_plans_agree_for_any_shard_count(
        keys in zipf_keys(),
        heaviest in 20usize..300,
        shards in 2usize..10,
        p in 2usize..10,
    ) {
        let tuples = interleaved_stream(&merge_spec(&zipf_spec(&keys, heaviest)));
        let cfg = acc_config(&tuples);
        let mut serial = seal_serial(&tuples, cfg);
        let mut sharded = seal_sharded(&tuples, cfg, shards, 4);
        serial.sort_exact();
        sharded.sort_exact();
        prop_assert_eq!(&sharded, &serial);
        prop_assert_eq!(
            PromptPartitioner::partition_sealed(&sharded, p),
            PromptPartitioner::partition_sealed(&serial, p)
        );
    }

    /// Parallel block materialization yields the identical plan to the
    /// serial Algorithm 2 path for any thread count.
    #[test]
    fn parallel_materialization_is_bit_identical(
        keys in zipf_keys(),
        heaviest in 20usize..300,
        p in 2usize..10,
        threads in 2usize..9,
    ) {
        let tuples = interleaved_stream(&merge_spec(&zipf_spec(&keys, heaviest)));
        let sealed = seal_serial(&tuples, acc_config(&tuples));
        prop_assert_eq!(
            PromptPartitioner::partition_sealed_par(&sealed, p, threads),
            PromptPartitioner::partition_sealed(&sealed, p)
        );
    }
}

// ---------------------------------------------------------------------------
// B-BPFI plan invariants
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Mass conservation across the S_cut split: every key's fragments sum
    /// to its input count, no key appears from nowhere, and the fragment
    /// summaries agree with the tuple payloads.
    #[test]
    fn plan_conserves_mass_across_the_split(
        keys in zipf_keys(),
        heaviest in 20usize..300,
        p in 2usize..10,
    ) {
        let spec = merge_spec(&zipf_spec(&keys, heaviest));
        let tuples = interleaved_stream(&spec);
        let sealed = seal_serial(&tuples, acc_config(&tuples));
        let plan = PromptPartitioner::partition_sealed(&sealed, p);

        prop_assert_eq!(plan.n_blocks(), p);
        prop_assert_eq!(plan.total_tuples(), tuples.len());
        let mut got: BTreeMap<u64, usize> = BTreeMap::new();
        for b in &plan.blocks {
            let from_fragments: usize = b.fragments.iter().map(|f| f.count).sum();
            prop_assert_eq!(from_fragments, b.size(), "fragment summary out of sync");
            for f in &b.fragments {
                *got.entry(f.key.0).or_insert(0) += f.count;
            }
        }
        let want: BTreeMap<u64, usize> = spec.iter().copied().collect();
        prop_assert_eq!(got, want);
    }

    /// Bounded overfill: no block exceeds the bin capacity `P_size` by more
    /// than the residual tolerance slack plus two `S_cut` fragments (one
    /// from the heavy round-robin, one from the zigzag — the analysis in
    /// DESIGN.md §4). The residual phase itself never overfills past the
    /// tolerance, so this caps the worst block absolutely.
    #[test]
    fn no_block_exceeds_capacity_by_more_than_the_residual_bound(
        keys in zipf_keys(),
        heaviest in 20usize..300,
        p in 2usize..10,
    ) {
        let tuples = interleaved_stream(&merge_spec(&zipf_spec(&keys, heaviest)));
        let sealed = seal_serial(&tuples, acc_config(&tuples));
        let plan = PromptPartitioner::partition_sealed(&sealed, p);

        let n = sealed.n_tuples;
        let k = sealed.n_keys();
        let p_size = n.div_ceil(p);
        let s_cut = (p_size / (k / p).max(1)).max(1);
        let slack = (p_size as f64 * PromptPartitioner::DEFAULT_TOLERANCE) as usize + 1;
        let bound = p_size + slack + 2 * s_cut;
        for (i, b) in plan.blocks.iter().enumerate() {
            prop_assert!(
                b.size() <= bound,
                "block {} holds {} tuples, over the {} capacity bound \
                 (P_size {}, S_cut {}, slack {})",
                i, b.size(), bound, p_size, s_cut, slack
            );
        }
    }

    /// On skewed batches (a head key holding at least 3/p of the mass, as a
    /// Zipf stream always has), Prompt's size imbalance is no worse than
    /// hash partitioning's: hashing cannot split the head key, Prompt can.
    #[test]
    fn size_imbalance_is_no_worse_than_hashing(
        keys in zipf_keys(),
        p in 2usize..10,
        seed in 0u64..1_000,
    ) {
        let mut spec = merge_spec(&zipf_spec(&keys, 64));
        // Force a genuinely heavy head: 3 blocks' worth of one key, on top
        // of a batch at least 16 tuples per block.
        let background: usize = spec.iter().map(|&(_, c)| c).sum();
        let heavy = (3 * (background + 16 * p).div_ceil(p)).max(48);
        spec.push((5_001 + seed, heavy));
        let tuples = interleaved_stream(&merge_spec(&spec));
        let batch = MicroBatch::new(tuples, IV);

        let sealed = seal_serial(&batch.tuples, acc_config(&batch.tuples));
        let prompt_plan = PromptPartitioner::partition_sealed(&sealed, p);
        let hash_plan = HashPartitioner::new(seed).partition(&batch, p);
        prop_assert!(
            metrics::bsi(&prompt_plan) <= metrics::bsi(&hash_plan) + 1e-9,
            "prompt BSI {} vs hash BSI {}",
            metrics::bsi(&prompt_plan),
            metrics::bsi(&hash_plan)
        );
    }
}

// ---------------------------------------------------------------------------
// Differential: heuristics vs the exact branch-and-bound optimum
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// On instances small enough for the exact solver (≤ 12 items), the
    /// shipping heuristics stay within a fixed additive gap of the optimal
    /// fragment count — and never beat it (the optimum really is one).
    #[test]
    fn heuristics_stay_within_fixed_gap_of_exact_optimum(
        items in proptest::collection::vec(1usize..40, 2..13),
        bins in 2usize..5,
    ) {
        let inst = Instance::balanced(items, bins);
        let Some(exact) = exact_min_fragments(&inst) else {
            // Balanced instances are always feasible; infeasibility here
            // would itself be a solver bug.
            return Err(TestCaseError::fail("balanced instance reported infeasible".into()));
        };
        exact.validate(&inst);

        let fmin = fragmentation_minimization(&inst);
        let prompt = prompt_heuristic(&inst);
        // fmin plays by the instance's strict capacity, so the optimum is a
        // true lower bound for it. Algorithm 2 carries its residual
        // tolerance (capacity `P_size(1 + 1/64) + 1`), which on tight
        // instances lets it legitimately undercut the strict-capacity
        // optimum — so only the upper gap is asserted for it.
        prop_assert!(exact.fragments() <= fmin.fragments());
        // Fragmentation minimisation carries a ≤ bins−1 extra-splits
        // guarantee; the full Algorithm 2 pays at most two fragments per bin
        // over the optimum (heavy round-robin + residual Best-Fit).
        prop_assert!(
            fmin.fragments() < exact.fragments() + inst.bins,
            "frag-min {} vs exact {} on {} bins",
            fmin.fragments(), exact.fragments(), inst.bins
        );
        prop_assert!(
            prompt.fragments() <= exact.fragments() + 2 * inst.bins,
            "prompt {} vs exact {} on {} bins",
            prompt.fragments(), exact.fragments(), inst.bins
        );
    }
}
