//! Property-based tests of Algorithm 3's Reduce bucket allocator.
//!
//! Four invariants the driver relies on:
//! 1. split keys route identically from every Map task (Reduce correctness);
//! 2. the Worst-Fit tie-break rotation actually varies with the task index,
//!    so concurrent Map tasks do not stack their largest cluster on the same
//!    bucket — `r` tasks spread it over all `r` buckets;
//! 3. bucket retirement survives hashed split keys overflowing every
//!    bucket's capacity (the refill path) without panicking or emitting an
//!    out-of-range bucket;
//! 4. an assignment is a function of `assign`'s arguments alone: not of the
//!    instance, of what was assigned before, or of the calling thread.

use prompt_core::hash::{bucket_of, KeyMap, KeySet};
use prompt_core::reduce::{
    sort_split_keys, split_flags, KeyCluster, PromptReduceAllocator, ReduceAssigner,
};
use prompt_core::types::Key;
use proptest::prelude::*;

/// Collapse raw (key, size) pairs into one cluster per distinct key, as a
/// real Map task's grouped output would be.
fn dedup_clusters(raw: &[(u64, usize)]) -> Vec<KeyCluster> {
    let mut sizes: KeyMap<usize> = KeyMap::default();
    let mut order: Vec<Key> = Vec::new();
    for &(k, s) in raw {
        let key = Key(k);
        if sizes.insert(key, s).is_none() {
            order.push(key);
        } else {
            *sizes.get_mut(&key).unwrap() += s;
        }
    }
    order
        .into_iter()
        .map(|key| KeyCluster {
            key,
            size: sizes[&key],
        })
        .collect()
}

/// `assigner`'s buckets for `clusters` under the split-key table `split`.
fn assign(
    assigner: &dyn ReduceAssigner,
    task: usize,
    clusters: &[KeyCluster],
    split: &KeySet,
    r: usize,
) -> Vec<usize> {
    let (mut sorted, mut flags, mut out) = (Vec::new(), Vec::new(), Vec::new());
    sort_split_keys(split, &mut sorted);
    split_flags(clusters, &sorted, &mut flags);
    assigner.assign(task, clusters, &flags, r, &mut out);
    out.into_iter().map(|b| b as usize).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn split_keys_route_identically_across_map_tasks(
        tasks in proptest::collection::vec(
            proptest::collection::vec((0u64..20, 1usize..500), 1..30),
            2..6,
        ),
        split in proptest::collection::vec(0u64..20, 0..12),
        seed in any::<u64>(),
        r in 1usize..9,
    ) {
        let mut split_set = KeySet::default();
        for &k in &split {
            split_set.insert(Key(k));
        }
        let alloc = PromptReduceAllocator::new(seed);
        let mut routed: KeyMap<usize> = KeyMap::default();
        for (task, raw) in tasks.iter().enumerate() {
            let cs = dedup_clusters(raw);
            let out = assign(&alloc, task, &cs, &split_set, r);
            prop_assert_eq!(out.len(), cs.len());
            for (c, &b) in cs.iter().zip(&out) {
                prop_assert!(b < r, "bucket {b} out of range for r = {r}");
                if split_set.contains(&c.key) {
                    // Split keys take the shared hash route, so every Map
                    // task lands them on the same bucket...
                    prop_assert_eq!(b, bucket_of(seed, c.key, r));
                    // ...including across tasks seen so far.
                    if let Some(&prev) = routed.get(&c.key) {
                        prop_assert_eq!(b, prev);
                    }
                    routed.insert(c.key, b);
                }
            }
        }
    }

    #[test]
    fn tie_break_rotation_spreads_the_largest_cluster_over_every_bucket(
        raw in proptest::collection::vec((0u64..1000, 1usize..500), 1..40),
        first_task in 0usize..64,
        r in 2usize..9,
    ) {
        let cs = dedup_clusters(&raw);
        let split = KeySet::default();
        let alloc = PromptReduceAllocator::new(0);
        // The cluster placed first (largest size, ties by smallest key —
        // the allocator's own sort order) faces all-equal capacities, so
        // only the rotation decides its bucket: `r` consecutive Map tasks
        // with identical clusters must send it to `r` distinct buckets —
        // the property the run-global task counter used to provide.
        let largest = (0..cs.len())
            .max_by(|&a, &b| {
                cs[a].size
                    .cmp(&cs[b].size)
                    .then(cs[b].key.0.cmp(&cs[a].key.0))
            })
            .unwrap();
        let mut hit = vec![false; r];
        for task in first_task..first_task + r {
            let b = assign(&alloc, task, &cs, &split, r)[largest];
            prop_assert!(!hit[b], "two of {r} tasks stacked the largest cluster on bucket {b}");
            hit[b] = true;
        }
    }

    #[test]
    fn assign_is_a_function_of_its_arguments(
        tasks in proptest::collection::vec(
            proptest::collection::vec((0u64..40, 1usize..500), 0..30),
            1..8,
        ),
        split in proptest::collection::vec(0u64..40, 0..8),
        order in proptest::collection::vec(any::<usize>(), 0..24),
        seed in any::<u64>(),
        r in 1usize..9,
    ) {
        let split_set: KeySet = split.iter().map(|&k| Key(k)).collect();
        let inputs: Vec<Vec<KeyCluster>> = tasks.iter().map(|raw| dedup_clusters(raw)).collect();
        let one = PromptReduceAllocator::new(seed);
        let in_order: Vec<Vec<usize>> = (0..inputs.len())
            .map(|t| assign(&one, t, &inputs[t], &split_set, r))
            .collect();

        // Another instance, called in an arbitrary order, some tasks twice.
        let other = PromptReduceAllocator::new(seed);
        for t in order.iter().map(|pick| pick % inputs.len()) {
            prop_assert_eq!(&assign(&other, t, &inputs[t], &split_set, r), &in_order[t], "task {}", t);
        }

        // Two threads sharing one `&dyn ReduceAssigner`, odd and even tasks.
        let shared: &dyn ReduceAssigner = &one;
        let halves: Vec<Vec<(usize, Vec<usize>)>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..2)
                .map(|half| {
                    let (inputs, split_set) = (&inputs, &split_set);
                    s.spawn(move || {
                        (half..inputs.len())
                            .step_by(2)
                            .map(|t| (t, assign(shared, t, &inputs[t], split_set, r)))
                            .collect()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for (t, out) in halves.into_iter().flatten() {
            prop_assert_eq!(&out, &in_order[t], "task {} on a second thread", t);
        }
    }

    #[test]
    fn overflowing_split_keys_never_panic(
        split_raw in proptest::collection::vec((0u64..6, 1_000usize..10_000), 1..20),
        extra_raw in proptest::collection::vec((6u64..30, 1usize..100), 0..30),
        seed in any::<u64>(),
        r in 1usize..6,
    ) {
        // Every key below 6 is split, with sizes that dwarf the non-split
        // tail — the hashed placements drive some (often all) bucket
        // capacities negative, exercising the candidate-list refill.
        let mut split_set = KeySet::default();
        for k in 0..6u64 {
            split_set.insert(Key(k));
        }
        let mut cs = dedup_clusters(&split_raw);
        cs.extend(dedup_clusters(&extra_raw));
        let alloc = PromptReduceAllocator::new(seed);
        let out = assign(&alloc, 0, &cs, &split_set, r);
        prop_assert_eq!(out.len(), cs.len());
        for (c, &b) in cs.iter().zip(&out) {
            prop_assert!(b < r, "bucket {b} out of range for r = {r}");
            if split_set.contains(&c.key) {
                prop_assert_eq!(b, bucket_of(seed, c.key, r));
            }
        }
    }
}
