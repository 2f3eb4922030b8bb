//! Property-based invariants of every batching-phase partitioner, spanning
//! `prompt-core` + `prompt-workloads`: whatever the input distribution,
//! partitioning must conserve the batch exactly and the structural
//! guarantees of each technique must hold.

use proptest::prelude::*;

use prompt::prelude::*;
use prompt_core::hash::KeyMap;

/// Build a micro-batch from a per-key count spec, interleaving arrivals.
fn batch_from_spec(spec: &[(u64, usize)]) -> MicroBatch {
    let total: usize = spec.iter().map(|&(_, c)| c).sum();
    let interval = Interval::new(Time::ZERO, Time::from_secs(1));
    let mut remaining: Vec<(u64, usize)> = spec.to_vec();
    let mut tuples = Vec::with_capacity(total);
    let step = interval.len().0 / (total.max(1) as u64 + 1);
    let mut ts = 0u64;
    while tuples.len() < total {
        for r in remaining.iter_mut() {
            if r.1 > 0 {
                r.1 -= 1;
                ts += step;
                tuples.push(Tuple::new(Time::from_micros(ts), Key(r.0), r.0 as f64));
            }
        }
    }
    MicroBatch::new(tuples, interval)
}

fn key_counts(batch: &MicroBatch) -> KeyMap<usize> {
    let mut m = KeyMap::default();
    for t in &batch.tuples {
        *m.entry(t.key).or_insert(0) += 1;
    }
    m
}

fn spec_strategy() -> impl Strategy<Value = Vec<(u64, usize)>> {
    // Up to 60 keys, counts up to 400 with occasional heavy hitters.
    proptest::collection::vec((0u64..100, 1usize..400), 1..60).prop_map(|mut v| {
        v.dedup_by_key(|e| e.0);
        v
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn every_technique_conserves_every_key(spec in spec_strategy(), p in 1usize..12) {
        let batch = batch_from_spec(&spec);
        let want = key_counts(&batch);
        let mut techniques: Vec<Technique> = Technique::EVALUATION_SET.to_vec();
        techniques.push(Technique::DChoices(5));
        for tech in techniques {
            let plan = tech.build(3).partition(&batch, p);
            // The technique's own columnar cut, where it has one, as rows.
            let columnar = (tech.build(3).partition_columnar(&batch, p))
                .map(|(cols, _)| cols.to_row_plan());
            for plan in std::iter::once(plan).chain(columnar) {
                prop_assert_eq!(plan.n_blocks(), p);
                prop_assert_eq!(plan.total_tuples(), batch.len());
                // Per-key totals across fragments equal the input.
                let mut got: KeyMap<usize> = KeyMap::default();
                for block in &plan.blocks {
                    // One run per key, keys strictly ascending: the runs
                    // are the block's fragment table.
                    let ascend = block.runs.windows(2).all(|w| w[0].key.0 < w[1].key.0);
                    prop_assert!(ascend, "{:?}: runs {:?}", tech, block.runs);
                    let mut block_tuples: KeyMap<usize> = KeyMap::default();
                    for (key, values) in block.key_runs() {
                        *block_tuples.entry(key).or_insert(0) += values.len();
                    }
                    prop_assert_eq!(block.runs.len(), block_tuples.len());
                    for f in &block.runs {
                        prop_assert_eq!(block_tuples.get(&f.key).copied(), Some(f.count));
                        *got.entry(f.key).or_insert(0) += f.count;
                    }
                }
                prop_assert_eq!(&got, &want, "{:?}", tech);
            }
        }
    }

    #[test]
    fn split_key_reference_table_is_exact(spec in spec_strategy(), p in 2usize..10) {
        let batch = batch_from_spec(&spec);
        for tech in Technique::EVALUATION_SET {
            let plan = tech.build(9).partition(&batch, p);
            let mut blocks_per_key: KeyMap<usize> = KeyMap::default();
            for block in &plan.blocks {
                for f in &block.runs {
                    *blocks_per_key.entry(f.key).or_insert(0) += 1;
                }
            }
            for (key, n_blocks) in blocks_per_key {
                prop_assert_eq!(
                    plan.split_keys.contains(&key),
                    n_blocks > 1,
                    "{:?}: key {:?} in {} blocks", tech, key, n_blocks
                );
            }
        }
    }

    #[test]
    fn hash_never_splits_and_prompt_balances(spec in spec_strategy(), p in 2usize..10) {
        let batch = batch_from_spec(&spec);
        let hash_plan = Technique::Hash.build(1).partition(&batch, p);
        prop_assert!(hash_plan.split_keys.is_empty());

        let prompt_plan = Technique::Prompt.build(1).partition(&batch, p);
        let p_size = batch.len().div_ceil(p);
        let keys = key_counts(&batch).len();
        // Block sizes are bounded by P_size plus one zigzag round of slack
        // (the snake draft on a sorted list can overshoot by at most the
        // largest below-S_cut key, i.e. S_cut) plus the residual tolerance.
        let s_cut = (p_size / (keys / p).max(1)).max(1);
        let cap = p_size + 2 * s_cut + p_size / 64 + 2;
        let oversize = prompt_plan.blocks.iter().filter(|b| b.size() > cap).count();
        prop_assert_eq!(oversize, 0, "blocks exceed capacity {}", cap);
    }

    #[test]
    fn pkg_splits_at_most_d_ways(spec in spec_strategy(), d in 2usize..6) {
        let batch = batch_from_spec(&spec);
        let plan = Technique::Pkg(d).build(5).partition(&batch, 8);
        let mut blocks_per_key: KeyMap<usize> = KeyMap::default();
        for block in &plan.blocks {
            for f in &block.runs {
                *blocks_per_key.entry(f.key).or_insert(0) += 1;
            }
        }
        for (key, n) in blocks_per_key {
            prop_assert!(n <= d, "key {key:?} split {n} > {d} ways");
        }
    }

    #[test]
    fn metrics_are_finite_and_ksr_at_least_one(spec in spec_strategy(), p in 1usize..8) {
        use prompt_core::metrics::{bci, bsi, ksr, mpi, MpiWeights};
        let batch = batch_from_spec(&spec);
        for tech in Technique::EVALUATION_SET {
            let plan = tech.build(2).partition(&batch, p);
            let (s, c, k) = (bsi(&plan), bci(&plan), ksr(&plan));
            prop_assert!(s.is_finite() && s >= 0.0);
            prop_assert!(c.is_finite() && c >= 0.0);
            prop_assert!(k >= 1.0 - 1e-12 && k <= p as f64 + 1e-12);
            prop_assert!(mpi(&plan, MpiWeights::default()).is_finite());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn reduce_allocation_conserves_and_is_consistent(
        spec in spec_strategy(),
        p in 2usize..8,
        r in 1usize..8,
    ) {
        use prompt_core::reduce::{allocate_reduce, PromptReduceAllocator, HashReduceAssigner};
        let batch = batch_from_spec(&spec);
        for tech in [Technique::Prompt, Technique::Shuffle, Technique::Hash] {
            let plan = tech.build(4).partition(&batch, p);
            for assigner in [true, false] {
                let alloc = if assigner {
                    allocate_reduce(&plan, &PromptReduceAllocator::new(4), r)
                } else {
                    allocate_reduce(&plan, &HashReduceAssigner::new(4), r)
                };
                // allocate_reduce itself panics on split-key inconsistency;
                // here we check conservation.
                let total: usize = alloc.sizes().iter().sum();
                prop_assert_eq!(total, batch.len());
                let cardinality: usize = alloc.buckets.iter().map(|b| b.cardinality).sum();
                prop_assert_eq!(cardinality, key_counts(&batch).len());
            }
        }
    }
}

#[test]
fn zipf_stress_all_techniques_at_scale() {
    // One deterministic heavy case outside proptest: 200k tuples, z = 1.2.
    let mut source = prompt::workloads::datasets::synd(
        RateProfile::Constant { rate: 200_000.0 },
        30_000,
        1.2,
        77,
    );
    let interval = Interval::new(Time::ZERO, Time::from_secs(1));
    let mut tuples = Vec::new();
    source.fill(interval, &mut tuples);
    let batch = MicroBatch::new(tuples, interval);
    let want = key_counts(&batch);
    for tech in Technique::EVALUATION_SET {
        let plan = tech.build(1).partition(&batch, 32);
        assert_eq!(plan.total_tuples(), batch.len(), "{tech:?}");
        assert_eq!(plan.total_keys(), want.len(), "{tech:?}");
    }
}
