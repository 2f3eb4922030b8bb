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

    /// Write the bucket index (`< r`, and `r` fits in `u32`, as it does on
    /// the wire) of each cluster, in order, into `out`, replacing whatever it
    /// held.
    ///
    /// `task` is the Map task's block index within its batch. `split` holds
    /// one flag per cluster: whether its key is in the data block's
    /// reference table ([`split_flags`]). Keys split across blocks **must**
    /// be routed consistently by every Map task.
    fn assign(
        &self,
        task: usize,
        clusters: &[KeyCluster],
        split: &[bool],
        r: usize,
        out: &mut Vec<u32>,
    );
}

/// `split_keys`, the batch's split-key reference table, in ascending order
/// into `sorted` (whatever it held): the form [`split_flags`] walks.
pub fn sort_split_keys(split_keys: &KeySet, sorted: &mut Vec<Key>) {
    sorted.clear();
    sorted.extend(split_keys);
    sorted.sort_unstable();
}

/// Fill `flags` (whatever it held) with one flag per cluster: whether its
/// key is in `split_keys`, the batch's split-key reference table in
/// ascending order ([`sort_split_keys`]). A key-ascending cluster list, as
/// every Map task's is, takes one merge walk of the two lists; a cluster
/// whose key is below the one before starts the walk again from the first
/// split key. No key is looked at when the table is empty, as it is for
/// every plan that splits no key.
pub fn split_flags(clusters: &[KeyCluster], split_keys: &[Key], flags: &mut Vec<bool>) {
    debug_assert!(split_keys.is_sorted(), "split keys ascend");
    flags.clear();
    if split_keys.is_empty() {
        flags.resize(clusters.len(), false);
        return;
    }
    // The split keys not below the last cluster's key.
    let mut rest = split_keys;
    let mut last = Key(0);
    flags.extend(clusters.iter().map(|c| {
        if c.key < last {
            rest = split_keys;
        }
        last = c.key;
        while rest.first().is_some_and(|&k| k < c.key) {
            rest = &rest[1..];
        }
        rest.first() == Some(&c.key)
    }));
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

    fn assign(&self, _: usize, clusters: &[KeyCluster], _: &[bool], r: usize, out: &mut Vec<u32>) {
        assert!(r > 0, "need at least one bucket");
        assert!(u32::try_from(r).is_ok(), "buckets fit in u32");
        out.clear();
        out.extend(
            clusters
                .iter()
                .map(|c| bucket_of(self.seed, c.key, r) as u32),
        );
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

    fn assign(
        &self,
        task: usize,
        clusters: &[KeyCluster],
        split: &[bool],
        r: usize,
        out: &mut Vec<u32>,
    ) {
        assert!(r > 0, "need at least one bucket");
        assert_eq!(split.len(), clusters.len(), "one split flag per cluster");
        let total: usize = clusters.iter().map(|c| c.size).sum();
        // Expected bucket size |I| / r (line 1), as a ceiling so capacities
        // cover the input.
        let bucket_size = total.div_ceil(r).max(1);

        out.clear();
        out.resize(clusters.len(), u32::MAX);
        // Capacities may go negative when hashed split keys overflow a
        // bucket; keep them signed so Worst-Fit still orders correctly.
        let mut capacity: Vec<i64> = vec![bucket_size as i64; r];

        // Line 2: split keys are routed by hashing (consistency across Map
        // tasks); their sizes consume bucket capacity.
        for (i, c) in clusters.iter().enumerate() {
            if split[i] {
                let b = bucket_of(self.seed, c.key, r);
                out[i] = b as u32;
                capacity[b] -= c.size as i64;
            }
        }

        // Line 4: the non-split clusters in descending size order, ties by
        // key, then by position.
        let non_split = by_size_descending(clusters, |i| !split[i]);

        // Lines 5–12: Worst-Fit with bucket retirement — the chosen bucket
        // leaves the candidate list until every bucket has received one
        // cluster, promoting balanced cluster counts per bucket. No
        // candidate's capacity changes until it is chosen, so each round
        // deals its clusters to the candidates in one order: most remaining
        // capacity first, ties to the bucket the task prefers. Preference is
        // a rotation by the task's block index so that concurrent tasks do
        // not all favour the same bucket: `task % r` first, then upwards.
        let offset = task % r;
        let mut non_split = non_split.into_iter().map(|i| i as usize);
        let mut round = Round::with_capacity(r);
        round.refill(&capacity, offset);
        loop {
            // One cluster to each candidate, in order; a round that deals
            // every candidate the same size keeps their order.
            let mut dealt = None;
            let mut uniform = true;
            for &(_, _, b) in &round.candidates {
                let Some(i) = non_split.next() else {
                    return;
                };
                let size = clusters[i].size;
                out[i] = b;
                capacity[b as usize] -= size as i64;
                uniform &= *dealt.get_or_insert(size) == size;
            }
            if !(uniform && round.keep_order(&capacity)) {
                round.refill(&capacity, offset);
            }
        }
    }
}

/// Algorithm 3's candidate list for one retirement round: each candidate
/// bucket as `(−capacity, rank, bucket)`, where `rank` is the bucket's place
/// in the task's rotated preference, in dealing order.
struct Round {
    candidates: Vec<(i64, u32, u32)>,
    /// Whether the list is every bucket, none having spare capacity.
    every_bucket: bool,
}

impl Round {
    fn with_capacity(r: usize) -> Round {
        assert!(u32::try_from(r).is_ok(), "buckets fit in u32");
        Round {
            candidates: Vec::with_capacity(r),
            every_bucket: false,
        }
    }

    /// Refill the list with the buckets that still have spare capacity;
    /// buckets already overflown by hashed split keys are only used when
    /// nothing else remains ("limits bucket overflow", §5). Sorted by
    /// precomputed keys, so no comparison computes a rank.
    fn refill(&mut self, capacity: &[i64], offset: usize) {
        let r = capacity.len();
        let key = |b: usize| (-capacity[b], ((b + r - offset) % r) as u32, b as u32);
        self.candidates.clear();
        self.candidates
            .extend((0..r).filter(|&b| capacity[b] > 0).map(key));
        self.every_bucket = self.candidates.is_empty();
        if self.every_bucket {
            self.candidates.extend((0..r).map(key));
        }
        self.candidates.sort_unstable();
    }

    /// After a round that dealt every candidate the same size, make the list
    /// the next round's without sorting, if it can be: every capacity fell
    /// by the same amount, so the order holds, and the buckets that reached
    /// ≤ 0 are a suffix, which leaves. Every bucket stays on a list of every
    /// bucket (none regained capacity). `false` when no candidate is left
    /// with spare capacity and the list must become every bucket.
    fn keep_order(&mut self, capacity: &[i64]) -> bool {
        if self.every_bucket {
            return true;
        }
        let spare = (self.candidates).partition_point(|&(_, _, b)| capacity[b as usize] > 0);
        self.candidates.truncate(spare);
        spare > 0
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

/// `positions` stably sorted by their clusters' sizes, largest first: one
/// pass counts the small sizes and keeps the large positions, a second
/// places the small ones.
fn counting_sort(
    clusters: &[KeyCluster],
    positions: impl Iterator<Item = usize> + Clone,
) -> Vec<u32> {
    let size = |i: usize| clusters[i].size;
    let mut sorted = Vec::with_capacity(clusters.len());
    // `next[s]`: how many small clusters have size `s`; below, where the
    // next one goes.
    let mut next: Vec<usize> = Vec::new();
    for i in positions.clone() {
        match size(i) {
            s if s < COUNTED_SIZES => {
                if s >= next.len() {
                    next.resize(s + 1, 0);
                }
                next[s] += 1;
            }
            _ => sorted.push(i as u32),
        }
    }
    sorted.sort_by_key(|&i| std::cmp::Reverse(size(i as usize)));
    let mut at = sorted.len();
    for slot in next.iter_mut().rev() {
        (*slot, at) = (at, at + *slot);
    }
    sorted.resize(at, u32::MAX);
    for i in positions {
        let s = size(i);
        if s < COUNTED_SIZES {
            sorted[next[s]] = i as u32;
            next[s] += 1;
        }
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
    /// fragments, parallel to `plan.blocks[m].runs`.
    pub per_map: Vec<Vec<u32>>,
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
    let mut split_bucket: KeyMap<u32> = KeyMap::default();
    let mut per_map = Vec::with_capacity(plan.blocks.len());
    let (mut clusters, mut split, mut split_keys) = (Vec::new(), Vec::new(), Vec::new());
    sort_split_keys(&plan.split_keys, &mut split_keys);

    for (task, block) in plan.blocks.iter().enumerate() {
        clusters.clear();
        clusters.extend(block.runs.iter().map(|f| KeyCluster {
            key: f.key,
            size: f.count,
        }));
        split_flags(&clusters, &split_keys, &mut split);
        let mut assignment = Vec::new();
        assigner.assign(task, &clusters, &split, r, &mut assignment);
        assert_eq!(assignment.len(), clusters.len(), "assigner output length");
        for ((c, &b), &is_split) in clusters.iter().zip(&assignment).zip(&split) {
            assert!((b as usize) < r, "bucket index out of range");
            let bucket = &mut buckets[b as usize];
            bucket.size += c.size;
            bucket.fragments += 1;
            if !is_split {
                bucket.cardinality += 1;
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
                    bucket.cardinality += 1;
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

    /// `assigner`'s buckets for `cs` under the split-key table `split`.
    fn assign(
        assigner: &dyn ReduceAssigner,
        task: usize,
        cs: &[KeyCluster],
        split: &KeySet,
        r: usize,
    ) -> Vec<usize> {
        let (mut sorted, mut flags, mut out) = (Vec::new(), Vec::new(), Vec::new());
        sort_split_keys(split, &mut sorted);
        split_flags(cs, &sorted, &mut flags);
        assigner.assign(task, cs, &flags, r, &mut out);
        out.into_iter().map(|b| b as usize).collect()
    }

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
        let out1 = assign(&a, 0, &cs, &split, 4);
        let out2 = assign(&a, 1, &cs, &split, 4);
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
        let out = assign(&prompt, 0, &cs, &split, 2);
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
        let out = assign(&prompt, 3, &cs, &split, 8);
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
        let out = assign(&prompt, 1, &cs, &split, 4);
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
        let plan_fragments: usize = plan.blocks.iter().map(|b| b.runs.len()).sum();
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
            fn assign(
                &self,
                task: usize,
                _: &[KeyCluster],
                split: &[bool],
                _: usize,
                out: &mut Vec<u32>,
            ) {
                *out = vec![task as u32 % 2; split.len()]; // different bucket each map task
            }
        }
        let batch = zipfish_batch(4, 40);
        let plan = ShufflePartitioner::new().partition(&batch, 2);
        let _ = allocate_reduce(&plan, &Bad, 2);
    }

    #[test]
    fn empty_cluster_list() {
        let prompt = PromptReduceAllocator::new(0);
        let out = assign(&prompt, 0, &[], &KeySet::default(), 4);
        assert!(out.is_empty());
    }

    /// The merge walk flags what a probe of the table would, for a
    /// key-ascending list (every Map task's), a descending one, one with
    /// repeated keys and split keys above and below every cluster, and
    /// under an empty table.
    #[test]
    fn split_flags_match_a_probe_of_the_table() {
        let keys = |ks: &[u64]| clusters(&ks.iter().map(|&k| (k, 1)).collect::<Vec<_>>());
        let table: KeySet = [0, 4, 5, 9, 30, 31, 99].into_iter().map(Key).collect();
        let mut sorted = Vec::new();
        sort_split_keys(&table, &mut sorted);
        assert!(sorted.windows(2).all(|w| w[0] < w[1]));
        let mut flags = Vec::new();
        for list in [
            keys(&[1, 4, 5, 6, 9, 10, 31, 40]),
            keys(&[40, 31, 10, 9, 6, 5, 4, 1]),
            keys(&[5, 5, 0, 30, 2, 31, 31, 99, 4]),
            keys(&[]),
        ] {
            let probed: Vec<bool> = list.iter().map(|c| table.contains(&c.key)).collect();
            split_flags(&list, &sorted, &mut flags);
            assert_eq!(flags, probed, "{list:?}");
            split_flags(&list, &[], &mut flags);
            assert_eq!(flags, vec![false; list.len()]);
        }
    }

    #[test]
    fn names() {
        assert_eq!(PromptReduceAllocator::new(0).name(), "Prompt");
        assert_eq!(HashReduceAssigner::new(0).name(), "Hash");
    }
}
