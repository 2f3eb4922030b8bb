//! Processing-phase partitioning: assigning Map outputs to Reduce buckets
//! (§5, Algorithm 3).
//!
//! Each Map task groups its output into key clusters and must scatter them
//! over `r` Reduce buckets. Keys that are *split* across data blocks must go
//! to the same bucket from every Map task (correctness: one Reduce task per
//! key), so they are routed by hashing with a shared seed. Non-split keys
//! exist in exactly one Map task, so that task is free to place them — a
//! *Balanced Bin Packing with Variable Capacity* (B-BPVC) instance
//! (Definition 2, NP-complete by Theorem 2). Algorithm 3's heuristic sorts
//! the non-split clusters descending and Worst-Fits them into the bucket
//! with the most remaining capacity, removing each chosen bucket from the
//! candidate list until every bucket has received a cluster. No coordination
//! between Map tasks is needed; the imbalance reductions add up.
//!
//! The trait says so in its types: [`ReduceAssigner::assign`] takes `&self`
//! and the Map task's block index, so an assignment is a function of one Map
//! task's output and nothing else — it can be computed in any order, on any
//! thread, twice, or wherever the Map output happens to be.

use crate::batch::PartitionPlan;
use crate::hash::{bucket_of, KeyMap, KeySet};
use crate::types::Key;

/// One key cluster in a Map task's output: all values of one key.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct KeyCluster {
    /// The cluster's key.
    pub key: Key,
    /// Number of tuples (values) in the cluster.
    pub size: usize,
}

/// Strategy for assigning one Map task's key clusters to Reduce buckets: a
/// pure function of its arguments.
pub trait ReduceAssigner: Send + Sync {
    /// Technique name for reporting.
    fn name(&self) -> &'static str;

    /// Return the bucket index (`< r`) for each cluster, in order.
    ///
    /// `task` is the Map task's block index within its batch. `split_keys`
    /// is the data block's reference table: keys split across blocks
    /// **must** be routed consistently by every Map task.
    fn assign(
        &self,
        task: usize,
        clusters: &[KeyCluster],
        split_keys: &KeySet,
        r: usize,
    ) -> Vec<usize>;
}

/// Conventional hashing assignment (Fig. 8a): every key, split or not, is
/// routed by a shared hash function. Ignores cluster sizes entirely.
#[derive(Debug, Clone)]
pub struct HashReduceAssigner {
    seed: u64,
}

impl HashReduceAssigner {
    /// Construct with the shared routing seed.
    pub fn new(seed: u64) -> HashReduceAssigner {
        HashReduceAssigner { seed }
    }
}

impl ReduceAssigner for HashReduceAssigner {
    fn name(&self) -> &'static str {
        "Hash"
    }

    fn assign(&self, _: usize, clusters: &[KeyCluster], _: &KeySet, r: usize) -> Vec<usize> {
        assert!(r > 0, "need at least one bucket");
        clusters
            .iter()
            .map(|c| bucket_of(self.seed, c.key, r))
            .collect()
    }
}

/// Algorithm 3: Prompt's Reduce bucket allocator (Fig. 8b).
///
/// Worst-Fit ties are broken by a rotation of `task % r`. All buckets start
/// with equal capacity, so without rotation every Map task would
/// deterministically place its largest cluster in the same bucket,
/// systematically overloading it; rotating the preference by the task's own
/// block index restores the additive-balance property the paper relies on
/// (§5) without the tasks knowing anything of each other.
#[derive(Debug, Clone)]
pub struct PromptReduceAllocator {
    seed: u64,
}

impl PromptReduceAllocator {
    /// Construct with the shared routing seed for split keys. All Map tasks
    /// of a batch must use the same seed.
    pub fn new(seed: u64) -> PromptReduceAllocator {
        PromptReduceAllocator { seed }
    }
}

impl ReduceAssigner for PromptReduceAllocator {
    fn name(&self) -> &'static str {
        "Prompt"
    }

    fn assign(&self, task: usize, clusters: &[KeyCluster], split: &KeySet, r: usize) -> Vec<usize> {
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
        for (i, c) in clusters.iter().enumerate() {
            if split.contains(&c.key) {
                let b = bucket_of(self.seed, c.key, r);
                out[i] = b;
                capacity[b] -= c.size as i64;
            }
        }

        // Line 4: the non-split clusters, still unassigned, in descending
        // size order, ties by key, then by position.
        let non_split = by_size_descending(clusters, |i| out[i] == usize::MAX);

        // Lines 5–12: Worst-Fit with bucket retirement — the chosen bucket
        // leaves the candidate list until every bucket has received one
        // cluster, promoting balanced cluster counts per bucket. No
        // candidate's capacity changes until it is chosen, so each round
        // deals its clusters to the candidates in one order: most remaining
        // capacity first, ties to the bucket the task prefers. Preference is
        // a rotation by the task's block index so that concurrent tasks do
        // not all favour the same bucket: `task % r` first, then upwards.
        let offset = task % r;
        let rank = |b: usize| (b + r - offset) % r;
        let mut non_split = non_split.into_iter().map(|i| i as usize);
        let mut candidates = Vec::with_capacity(r);
        loop {
            // Refill the candidate list with the buckets that still have
            // spare capacity; buckets already overflown by hashed split keys
            // are only used when nothing else remains ("limits bucket
            // overflow", §5).
            candidates.clear();
            candidates.extend((0..r).filter(|&b| capacity[b] > 0));
            if candidates.is_empty() {
                candidates.extend(0..r);
            }
            candidates.sort_unstable_by_key(|&b| (std::cmp::Reverse(capacity[b]), rank(b)));
            for &b in &candidates {
                let Some(i) = non_split.next() else {
                    return out;
                };
                out[i] = b;
                capacity[b] -= clusters[i].size as i64;
            }
        }
    }
}

/// Cluster sizes below this are ordered by counting; the few at or above it
/// by comparison.
const COUNTED_SIZES: usize = 1 << 12;

/// The positions of the clusters `pick` selects, by size descending, then
/// key, then position. A stable sort by size keeps key order, so clusters not
/// already in key order (no engine caller's) are sorted by key first; the
/// sort by size is a counting sort for the sizes below [`COUNTED_SIZES`].
fn by_size_descending(clusters: &[KeyCluster], pick: impl Fn(usize) -> bool) -> Vec<u32> {
    assert!(
        u32::try_from(clusters.len()).is_ok(),
        "clusters per task fit in u32"
    );
    let picked = (0..clusters.len()).filter(|&i| pick(i));
    if clusters.windows(2).all(|w| w[0].key.0 <= w[1].key.0) {
        return counting_sort(clusters, picked);
    }
    let mut by_key: Vec<usize> = picked.collect();
    by_key.sort_by_key(|&i| clusters[i].key.0);
    counting_sort(clusters, by_key.into_iter())
}

/// `positions` stably sorted by their clusters' sizes, largest first.
fn counting_sort(
    clusters: &[KeyCluster],
    positions: impl Iterator<Item = usize> + Clone,
) -> Vec<u32> {
    let size = |i: usize| clusters[i].size;
    let small = move |i: &usize| size(*i) < COUNTED_SIZES;
    let mut sorted = Vec::with_capacity(positions.clone().count());
    sorted.extend(positions.clone().filter(|i| !small(i)).map(|i| i as u32));
    sorted.sort_by_key(|&i| std::cmp::Reverse(size(i as usize)));
    let Some(largest) = positions.clone().filter(small).map(size).max() else {
        return sorted;
    };
    // `next[s]`: where the next cluster of size `s` goes.
    let mut next = vec![0usize; largest + 1];
    positions
        .clone()
        .filter(small)
        .for_each(|i| next[size(i)] += 1);
    let mut at = sorted.len();
    for slot in next.iter_mut().rev() {
        (*slot, at) = (at, at + *slot);
    }
    sorted.resize(at, u32::MAX);
    for i in positions.filter(small) {
        sorted[next[size(i)]] = i as u32;
        next[size(i)] += 1;
    }
    sorted
}

/// Aggregate view of one Reduce bucket after all Map tasks assigned their
/// clusters — the input-size model of one Reduce task.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct BucketStats {
    /// Total tuples routed to the bucket (`|bucket|`).
    pub size: usize,
    /// Distinct keys in the bucket (`‖bucket‖`).
    pub cardinality: usize,
    /// Total (key, map-task) partial results — the per-key aggregation work:
    /// a key arriving from `m` Map tasks contributes `m` partials.
    pub fragments: usize,
}

/// The combined outcome of running a [`ReduceAssigner`] on every block of a
/// partition plan.
#[derive(Clone, Debug)]
pub struct ReduceAllocation {
    /// Per-bucket aggregate statistics, length `r`.
    pub buckets: Vec<BucketStats>,
    /// For each map task (block), the bucket chosen for each of its
    /// fragments, parallel to `plan.blocks[m].fragments`.
    pub per_map: Vec<Vec<usize>>,
}

impl ReduceAllocation {
    /// Bucket sizes, for imbalance metrics (Eqn. 3).
    pub fn sizes(&self) -> Vec<usize> {
        self.buckets.iter().map(|b| b.size).collect()
    }
}

/// Run `assigner` for every Map task of `plan` (treating each block's key
/// fragments as that task's key clusters, i.e. an identity Map, and its
/// block index as the task index) and combine the per-bucket statistics.
///
/// Panics if the assigner routes a split key inconsistently across Map
/// tasks — that would break Reduce correctness. Only split keys are tracked:
/// any other key has one fragment, so it is one key of one bucket.
pub fn allocate_reduce(
    plan: &PartitionPlan,
    assigner: &dyn ReduceAssigner,
    r: usize,
) -> ReduceAllocation {
    let mut buckets = vec![BucketStats::default(); r];
    let mut split_bucket: KeyMap<usize> = KeyMap::default();
    let mut per_map = Vec::with_capacity(plan.blocks.len());

    for (task, block) in plan.blocks.iter().enumerate() {
        let clusters: Vec<KeyCluster> = block
            .fragments
            .iter()
            .map(|f| KeyCluster {
                key: f.key,
                size: f.count,
            })
            .collect();
        let assignment = assigner.assign(task, &clusters, &plan.split_keys, r);
        assert_eq!(assignment.len(), clusters.len(), "assigner output length");
        for (c, &b) in clusters.iter().zip(&assignment) {
            assert!(b < r, "bucket index out of range");
            buckets[b].size += c.size;
            buckets[b].fragments += 1;
            if !plan.split_keys.contains(&c.key) {
                buckets[b].cardinality += 1;
                continue;
            }
            match split_bucket.entry(c.key) {
                std::collections::hash_map::Entry::Occupied(e) => {
                    assert_eq!(
                        *e.get(),
                        b,
                        "split key {:?} routed to different buckets",
                        c.key
                    );
                }
                std::collections::hash_map::Entry::Vacant(e) => {
                    e.insert(b);
                    buckets[b].cardinality += 1;
                }
            }
        }
        per_map.push(assignment);
    }
    ReduceAllocation { buckets, per_map }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::size_imbalance;
    use crate::partitioner::test_support::zipfish_batch;
    use crate::partitioner::{BufferingMode, Partitioner, PromptPartitioner, ShufflePartitioner};

    fn clusters(spec: &[(u64, usize)]) -> Vec<KeyCluster> {
        spec.iter()
            .map(|&(k, s)| KeyCluster {
                key: Key(k),
                size: s,
            })
            .collect()
    }

    #[test]
    fn hash_assigner_is_consistent_and_in_range() {
        let a = HashReduceAssigner::new(5);
        let cs = clusters(&[(1, 10), (2, 20), (3, 30)]);
        let split = KeySet::default();
        let out1 = a.assign(0, &cs, &split, 4);
        let out2 = a.assign(1, &cs, &split, 4);
        assert_eq!(out1, out2);
        assert!(out1.iter().all(|&b| b < 4));
    }

    #[test]
    fn prompt_allocator_balances_sizes() {
        // Clusters 50,30,20,20,10,10,5,5 into 2 buckets: worst-fit
        // descending lands near 75/75; hashing is oblivious.
        let cs = clusters(&[
            (1, 50),
            (2, 30),
            (3, 20),
            (4, 20),
            (5, 10),
            (6, 10),
            (7, 5),
            (8, 5),
        ]);
        let split = KeySet::default();
        let prompt = PromptReduceAllocator::new(7);
        let out = prompt.assign(0, &cs, &split, 2);
        let mut sizes = [0usize; 2];
        for (c, &b) in cs.iter().zip(&out) {
            sizes[b] += c.size;
        }
        // Bucket retirement trades a little size balance for cluster-count
        // balance; the residual gap is bounded by the largest cluster placed
        // in one retirement round.
        let diff = sizes[0].abs_diff(sizes[1]);
        assert!(diff <= 20, "bucket sizes {sizes:?} should be near-equal");
    }

    #[test]
    fn split_keys_follow_the_hash_route() {
        let cs = clusters(&[(1, 100), (2, 10)]);
        let mut split = KeySet::default();
        split.insert(Key(1));
        let prompt = PromptReduceAllocator::new(42);
        let out = prompt.assign(3, &cs, &split, 8);
        assert_eq!(out[0], bucket_of(42, Key(1), 8), "split key must hash");
    }

    #[test]
    fn bucket_retirement_spreads_cluster_counts() {
        // 8 equal clusters into 4 buckets: each bucket gets exactly 2.
        let cs = clusters(&[
            (1, 10),
            (2, 10),
            (3, 10),
            (4, 10),
            (5, 10),
            (6, 10),
            (7, 10),
            (8, 10),
        ]);
        let split = KeySet::default();
        let prompt = PromptReduceAllocator::new(0);
        let out = prompt.assign(1, &cs, &split, 4);
        let mut counts = [0usize; 4];
        for &b in &out {
            counts[b] += 1;
        }
        assert_eq!(counts, [2, 2, 2, 2]);
    }

    #[test]
    fn allocation_over_prompt_plan_beats_hashing_on_moderate_skew() {
        // Moderate skew: most mass sits in non-split clusters that the
        // Worst-Fit allocator is free to place, so it should clearly beat
        // oblivious hashing on bucket-size balance.
        let spec: Vec<(u64, usize)> = (1..=80u64)
            .map(|i| (i, (80.0 / (i as f64).sqrt()) as usize + 1))
            .collect();
        let batch = crate::partitioner::test_support::skewed_batch(&spec);
        let mut part = PromptPartitioner::new(BufferingMode::PostSort);
        let plan = part.partition(&batch, 8);
        let prompt_alloc = allocate_reduce(&plan, &PromptReduceAllocator::new(3), 8);
        let hash_alloc = allocate_reduce(&plan, &HashReduceAssigner::new(3), 8);
        let prompt_bsi = size_imbalance(&prompt_alloc.sizes());
        let hash_bsi = size_imbalance(&hash_alloc.sizes());
        assert!(
            prompt_bsi < hash_bsi,
            "Prompt bucket BSI {prompt_bsi} should beat hash {hash_bsi}"
        );
        // Totals conserved either way.
        let total: usize = prompt_alloc.sizes().iter().sum();
        assert_eq!(total, batch.len());
        let total: usize = hash_alloc.sizes().iter().sum();
        assert_eq!(total, batch.len());
    }

    #[test]
    fn allocation_under_heavy_skew_tracks_the_hash_floor() {
        // Under extreme skew the bucket imbalance is dominated by hot keys
        // that are split across blocks and therefore *must* be routed by the
        // shared hash on both techniques (Reduce correctness). Prompt's
        // local Worst-Fit cannot remove that floor — it must only avoid
        // making things materially worse while balancing the rest.
        let batch = zipfish_batch(80, 800);
        let mut part = PromptPartitioner::new(BufferingMode::PostSort);
        let plan = part.partition(&batch, 8);
        let prompt_alloc = allocate_reduce(&plan, &PromptReduceAllocator::new(3), 8);
        let hash_alloc = allocate_reduce(&plan, &HashReduceAssigner::new(3), 8);
        let prompt_bsi = size_imbalance(&prompt_alloc.sizes());
        let hash_bsi = size_imbalance(&hash_alloc.sizes());
        assert!(
            prompt_bsi <= hash_bsi * 1.2 + 1.0,
            "Prompt bucket BSI {prompt_bsi} strays too far above hash {hash_bsi}"
        );
    }

    #[test]
    fn allocation_counts_fragments_for_split_keys() {
        // Shuffle shreds keys across blocks; every (key, map task) pair is
        // one fragment at the Reduce side.
        let batch = zipfish_batch(10, 40);
        let plan = ShufflePartitioner::new().partition(&batch, 4);
        let alloc = allocate_reduce(&plan, &HashReduceAssigner::new(1), 2);
        let fragments: usize = alloc.buckets.iter().map(|b| b.fragments).sum();
        let plan_fragments: usize = plan.blocks.iter().map(|b| b.fragments.len()).sum();
        assert_eq!(fragments, plan_fragments);
        let cardinality: usize = alloc.buckets.iter().map(|b| b.cardinality).sum();
        assert_eq!(cardinality, 10);
    }

    #[test]
    #[should_panic(expected = "routed to different buckets")]
    fn inconsistent_split_routing_is_detected() {
        struct Bad;
        impl ReduceAssigner for Bad {
            fn name(&self) -> &'static str {
                "Bad"
            }
            fn assign(&self, task: usize, cs: &[KeyCluster], _: &KeySet, _: usize) -> Vec<usize> {
                vec![task % 2; cs.len()] // different bucket each map task
            }
        }
        let batch = zipfish_batch(4, 40);
        let plan = ShufflePartitioner::new().partition(&batch, 2);
        let _ = allocate_reduce(&plan, &Bad, 2);
    }

    #[test]
    fn empty_cluster_list() {
        let prompt = PromptReduceAllocator::new(0);
        let out = prompt.assign(0, &[], &KeySet::default(), 4);
        assert!(out.is_empty());
    }

    #[test]
    fn names() {
        assert_eq!(PromptReduceAllocator::new(0).name(), "Prompt");
        assert_eq!(HashReduceAssigner::new(0).name(), "Hash");
    }
}
