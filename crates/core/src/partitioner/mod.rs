//! Batching-phase data partitioners: Prompt (Algorithm 2) and every baseline
//! the paper compares against (§2.2, §7).
//!
//! All partitioners implement [`Partitioner`]: given the micro-batch of one
//! interval (tuples in arrival order), produce `p` data blocks. Per-tuple
//! techniques (time-based, shuffle, hash, PK-d, cAM, D-Choices) replay the
//! arrival sequence and decide block placement online, exactly as they would
//! in a tuple-at-a-time engine: each is a block chooser driven by the one
//! placement loop in `per_tuple`, which builds, counts and recycles the
//! blocks. Prompt records the arrivals' per-key counts, orders the keys at
//! the heartbeat, assigns key ranges to blocks from the counts alone
//! (Algorithm 2), and then writes each arrival once into its block.

mod cam;
mod dchoices;
mod hash_part;
mod per_tuple;
mod pkg;
mod prompt;
mod shuffle;
mod time_based;

pub use cam::CamPartitioner;
pub use dchoices::DChoicesPartitioner;
pub use hash_part::HashPartitioner;
pub use pkg::PkgPartitioner;
pub use prompt::{BufferingMode, PromptPartitioner};
pub use shuffle::ShufflePartitioner;
pub use time_based::TimeBasedPartitioner;

use crate::batch::{Columns, DataBlock, MicroBatch, PartitionPlan};
use crate::columnar::ColumnarPlan;
use crate::types::{Interval, Tuple};

/// Wall-clock timing of the internal phases of one `partition()` call.
/// Informational only — virtual-time scheduling never consumes these — so
/// traced runs stay deterministic. Techniques without distinct phases
/// report all zeros.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PartitionPhases {
    /// Per-tuple selection/scoring work that is specific to the technique
    /// (e.g. D-Choices' heavy-hitter sketch probes, a policy layer's
    /// decision pass) — kept separate from `partition` proper so strategy
    /// overhead is visible in stage-breakdown tables.
    pub select_us: u64,
    /// Algorithm 1's record step: each arrival's key counted and its slot
    /// noted, in the accumulator.
    pub seal_us: u64,
    /// Algorithm 1's heartbeat order: sorting the recorded keys (or walking
    /// the count tree) and laying out their groups.
    /// Prompt ends it before any tuple moves
    /// ([`Partitioner::partition_columnar`], which the engine never calls,
    /// includes its scatter into the arena).
    pub order_us: u64,
    /// Symbolic piece assignment (Algorithm 2 proper).
    pub symbolic_us: u64,
    /// Materializing data blocks from the symbolic assignment: on Prompt's
    /// row path, the scatter of every arrival into its block and the
    /// fragment tables.
    pub materialize_us: u64,
}

/// What a partitioner keeps of the plan [`Partitioner::recycle`] last handed
/// back: the next plan is built in its blocks. One spare at most — a plan
/// handed back over an unused one replaces it.
#[derive(Clone, Debug, Default)]
pub(crate) struct Spare {
    rows: Vec<DataBlock>,
}

impl Spare {
    /// Keep `plan`'s blocks.
    pub(crate) fn keep(&mut self, plan: PartitionPlan) {
        self.rows = plan.blocks;
    }

    /// One row block per size, its run table empty, in the spare's
    /// allocations where it has them. Under [`Columns::RunsAndValues`] each
    /// block's `values` is exactly its size long and holds whatever the last
    /// plan left: the caller overwrites every one, so only the length
    /// changes. A block that outgrows its allocation grows to exactly its
    /// size when `exact` — Prompt's blocks run a few tuples past `N/p` at
    /// most, and growth by doubling would double their allocation — else by
    /// doubling, as a baseline's block, whose size wanders from batch to
    /// batch, would otherwise grow at each new largest. Under
    /// [`Columns::Runs`] each block's `values` is empty.
    pub(crate) fn sized_row_blocks(
        &mut self,
        sizes: &[usize],
        exact: bool,
        columns: Columns,
    ) -> Vec<DataBlock> {
        let mut blocks = std::mem::take(&mut self.rows);
        blocks.resize_with(sizes.len(), DataBlock::default);
        for (b, &size) in blocks.iter_mut().zip(sizes) {
            b.runs.clear();
            b.set_size(size);
            if columns == Columns::Runs {
                b.values.clear();
                continue;
            }
            let more = size.saturating_sub(b.values.len());
            if exact {
                b.values.reserve_exact(more);
            } else {
                b.values.reserve(more);
            }
            b.values.resize(size, 0.0);
        }
        blocks
    }
}

/// A batching-phase partitioner: splits one micro-batch into `p` data blocks.
pub trait Partitioner: Send {
    /// Human-readable technique name (used in experiment output).
    fn name(&self) -> &'static str;

    /// Partition the batch into exactly `p` blocks, each carrying its runs
    /// and its values. Implementations must conserve tuples: the plan's
    /// total size equals `batch.len()`.
    fn partition(&mut self, batch: &MicroBatch, p: usize) -> PartitionPlan {
        let (tuples, interval) = (&batch.tuples, batch.interval);
        self.partition_slice(tuples, interval, p, Columns::RunsAndValues)
            .0
    }

    /// Partition a raw arrival slice into exactly `p` blocks carrying
    /// `columns`, with the wall-clock phase timings (zeros where a
    /// technique has no phase split). The one required entry point: a
    /// technique reads only the arrivals (and the interval, for time-based
    /// slotting), so a caller partitions its arrival buffer without
    /// materializing a [`MicroBatch`]. The plan's runs, sizes and split
    /// keys are the same for either `columns`; under [`Columns::Runs`]
    /// every block's value column is empty.
    fn partition_slice(
        &mut self,
        tuples: &[Tuple],
        interval: Interval,
        p: usize,
        columns: Columns,
    ) -> (PartitionPlan, PartitionPhases);

    /// Partition the batch into a [`ColumnarPlan`] whose blocks are
    /// `(key, range)` views into one column arena. The engine runs rows
    /// only: this entry point is kept for the benchmark's columnar probe and
    /// the property tests, and builds its buffers afresh on every call.
    ///
    /// Returns `None` when the technique has no columnar implementation
    /// (a caller converts via [`ColumnarPlan::from_row_plan`]).
    /// Implementations must guarantee `to_row_plan()` of the result is
    /// bit-identical to what `partition` would have produced for the same
    /// input and state.
    fn partition_columnar(
        &mut self,
        batch: &MicroBatch,
        p: usize,
    ) -> Option<(ColumnarPlan, PartitionPhases)> {
        let _ = (batch, p);
        None
    }

    /// Take back a plan this partitioner built, once nothing reads it any
    /// more: the next `partition` or `partition_slice` call may build its
    /// plan in the returned one's blocks instead of allocating them again.
    /// The plans it builds are the same either way. The default drops it.
    fn recycle(&mut self, plan: PartitionPlan) {
        drop(plan);
    }
}

/// The partitioning techniques evaluated in the paper, as a value type the
/// experiment harness can enumerate and construct from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Technique {
    /// Spark Streaming's default: block = arrival-time slot (§2.2.1).
    TimeBased,
    /// Round-robin over arrival order (§2.2.2).
    Shuffle,
    /// Key grouping by hashing (§2.2.3).
    Hash,
    /// Partial key grouping with `d` candidate blocks per key (PK-2/PK-5).
    Pkg(usize),
    /// Cardinality-aware mixing (cAM, Katsipoulakis et al.) with `d`
    /// candidates.
    Cam(usize),
    /// Heavy-hitter-aware d-choices (Nasir et al. ICDE'16): only detected
    /// heavy hitters get `d` candidate blocks; the tail is hashed.
    DChoices(usize),
    /// Prompt as the engine runs it: exact per-key counts during the
    /// interval, one sort at the heartbeat, then Algorithm 2.
    Prompt,
    /// Prompt as the paper draws it: Algorithm 1's budgeted `CountTree`
    /// keeps a quasi-sorted key list during the interval (paper fidelity;
    /// Fig. 14a compares the two).
    PromptCountTree,
}

impl Technique {
    /// The full comparison set used throughout the evaluation section.
    pub const EVALUATION_SET: [Technique; 7] = [
        Technique::TimeBased,
        Technique::Shuffle,
        Technique::Hash,
        Technique::Pkg(2),
        Technique::Pkg(5),
        Technique::Cam(4),
        Technique::Prompt,
    ];

    /// Technique label matching the paper's figures.
    pub fn label(&self) -> String {
        match self {
            Technique::TimeBased => "Time-based".into(),
            Technique::Shuffle => "Shuffle".into(),
            Technique::Hash => "Hash".into(),
            Technique::Pkg(d) => format!("PK{d}"),
            Technique::Cam(d) => format!("cAM({d})"),
            Technique::DChoices(d) => format!("D-Choices({d})"),
            Technique::Prompt => "Prompt".into(),
            Technique::PromptCountTree => "Prompt(count-tree)".into(),
        }
    }

    /// Instantiate the partitioner with a deterministic seed.
    pub fn build(&self, seed: u64) -> Box<dyn Partitioner> {
        self.build_with_parallelism(seed, 1)
    }

    /// [`Technique::build`] with the Prompt variants' assignment run on
    /// `threads` workers (every other technique partitions per tuple and
    /// ignores it). Every width builds the same plans.
    pub fn build_with_parallelism(&self, seed: u64, threads: usize) -> Box<dyn Partitioner> {
        let prompt = |mode| Box::new(PromptPartitioner::with_threads(mode, threads.max(1)));
        match *self {
            Technique::TimeBased => Box::new(TimeBasedPartitioner::new()),
            Technique::Shuffle => Box::new(ShufflePartitioner::new()),
            Technique::Hash => Box::new(HashPartitioner::new(seed)),
            Technique::Pkg(d) => Box::new(PkgPartitioner::new(seed, d)),
            Technique::Cam(d) => Box::new(CamPartitioner::new(seed, d)),
            Technique::DChoices(d) => Box::new(DChoicesPartitioner::new(seed, d)),
            Technique::Prompt => prompt(BufferingMode::PostSort),
            Technique::PromptCountTree => prompt(BufferingMode::FrequencyAware),
        }
    }
}

/// A [`Technique`]-indexed registry of live partitioner instances.
///
/// A policy layer that hot-swaps strategies at batch boundaries needs every
/// candidate constructible behind one object-safe handle *and* needs each
/// instance to persist across batches (Prompt's accumulator, for example,
/// keeps its index, log and counter allocations from one batch to the
/// next). The registry builds each technique lazily on first use — with the
/// run's seed and width ([`Technique::build_with_parallelism`]) — and hands
/// back the same instance for the rest of the run.
pub struct PartitionerRegistry {
    seed: u64,
    prompt_threads: usize,
    entries: Vec<(Technique, Box<dyn Partitioner>)>,
}

impl PartitionerRegistry {
    /// Registry whose Prompt instances run single-threaded.
    pub fn new(seed: u64) -> PartitionerRegistry {
        PartitionerRegistry::with_parallelism(seed, 1)
    }

    /// Registry that builds the Prompt variants at width `threads` (the
    /// engine passes its backend's, so a swapped-in Prompt behaves exactly
    /// like a run-constant one).
    pub fn with_parallelism(seed: u64, threads: usize) -> PartitionerRegistry {
        PartitionerRegistry {
            seed,
            prompt_threads: threads.max(1),
            entries: Vec::new(),
        }
    }

    /// Register an already-built instance under `technique`, replacing any
    /// live one: how a custom [`Partitioner`] (a probe, a wrapper) enters a
    /// run.
    pub fn insert(&mut self, technique: Technique, partitioner: Box<dyn Partitioner>) {
        if let Some(slot) = self.entries.iter_mut().find(|(t, _)| *t == technique) {
            slot.1 = partitioner;
        } else {
            self.entries.push((technique, partitioner));
        }
    }

    /// Whether an instance for `technique` has been built already.
    pub fn contains(&self, technique: Technique) -> bool {
        self.entries.iter().any(|(t, _)| *t == technique)
    }

    /// The live instance for `technique`, building it on first use.
    pub fn get_or_build(&mut self, technique: Technique) -> &mut dyn Partitioner {
        if let Some(idx) = self.entries.iter().position(|(t, _)| t == &technique) {
            return self.entries[idx].1.as_mut();
        }
        let built = technique.build_with_parallelism(self.seed, self.prompt_threads);
        self.entries.push((technique, built));
        self.entries.last_mut().expect("just pushed").1.as_mut()
    }

    /// Take the instance for `technique` out of the registry, building it on
    /// first use: how a partitioner is lent to another thread for one batch.
    /// [`PartitionerRegistry::insert`] puts it back.
    pub fn take(&mut self, technique: Technique) -> Box<dyn Partitioner> {
        match self.entries.iter().position(|(t, _)| *t == technique) {
            Some(idx) => self.entries.remove(idx).1,
            None => technique.build_with_parallelism(self.seed, self.prompt_threads),
        }
    }

    /// Techniques with a live instance, in the order they entered the
    /// registry (a taken instance re-enters at the end).
    pub fn techniques(&self) -> impl Iterator<Item = Technique> + '_ {
        self.entries.iter().map(|(t, _)| *t)
    }
}

impl std::fmt::Debug for PartitionerRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PartitionerRegistry")
            .field("seed", &self.seed)
            .field(
                "techniques",
                &self.entries.iter().map(|(t, _)| t).collect::<Vec<_>>(),
            )
            .finish()
    }
}

#[cfg(test)]
pub(crate) mod test_support {
    //! Shared fixtures for the partitioner test modules.

    use crate::batch::{MicroBatch, PartitionPlan};
    use crate::types::{Interval, Key, Time, Tuple};

    /// Build a batch with the given per-key counts, tuples interleaved
    /// round-robin across keys and timestamps spread uniformly over `[0, 1s)`.
    pub fn skewed_batch(spec: &[(u64, usize)]) -> MicroBatch {
        let total: usize = spec.iter().map(|&(_, c)| c).sum();
        let iv = Interval::new(Time::ZERO, Time::from_secs(1));
        let step = iv.len().0 / (total.max(1) as u64 + 1);
        let mut remaining: Vec<(u64, usize)> = spec.to_vec();
        let mut tuples = Vec::with_capacity(total);
        let mut ts = 0u64;
        while tuples.len() < total {
            for r in remaining.iter_mut() {
                if r.1 > 0 {
                    r.1 -= 1;
                    ts += step;
                    tuples.push(Tuple::keyed(Time::from_micros(ts), Key(r.0)));
                }
            }
        }
        MicroBatch::new(tuples, iv)
    }

    /// A Zipf-ish batch: key `i` (1-based) gets `ceil(heaviest / i)` tuples.
    pub fn zipfish_batch(keys: usize, heaviest: usize) -> MicroBatch {
        let spec: Vec<(u64, usize)> = (1..=keys as u64)
            .map(|i| (i, (heaviest as f64 / i as f64).ceil() as usize))
            .collect();
        skewed_batch(&spec)
    }

    /// Assert the universal partitioner invariants: tuple conservation and
    /// per-block fragment consistency.
    pub fn assert_plan_valid(batch: &MicroBatch, plan: &PartitionPlan, p: usize) {
        assert_eq!(plan.n_blocks(), p, "wrong block count");
        assert_eq!(plan.total_tuples(), batch.len(), "tuples not conserved");
        for b in &plan.blocks {
            let from_runs: usize = b.runs.iter().map(|f| f.count).sum();
            assert_eq!(from_runs, b.size(), "runs do not cover the values");
            let ascend = b.runs.windows(2).all(|w| w[0].key.0 < w[1].key.0);
            assert!(ascend, "run keys do not ascend: {:?}", b.runs);
        }
        // Per-key totals must match the input.
        use crate::hash::KeyMap;
        let mut want: KeyMap<usize> = KeyMap::default();
        for t in &batch.tuples {
            *want.entry(t.key).or_insert(0) += 1;
        }
        let mut got: KeyMap<usize> = KeyMap::default();
        for b in &plan.blocks {
            for f in &b.runs {
                *got.entry(f.key).or_insert(0) += f.count;
            }
        }
        assert_eq!(got.len(), want.len(), "key set mismatch");
        for (k, w) in &want {
            assert_eq!(got.get(k), Some(w), "count mismatch for {k:?}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::test_support::*;
    use super::*;

    #[test]
    fn every_technique_produces_valid_plans() {
        let batch = zipfish_batch(40, 200);
        for tech in Technique::EVALUATION_SET {
            let mut part = tech.build(7);
            for p in [1usize, 2, 4, 8] {
                let plan = part.partition(&batch, p);
                assert_plan_valid(&batch, &plan, p);
            }
        }
    }

    #[test]
    fn labels_are_distinct() {
        let mut labels: Vec<String> = Technique::EVALUATION_SET
            .iter()
            .map(|t| t.label())
            .collect();
        labels.push(Technique::PromptCountTree.label());
        let n = labels.len();
        labels.sort();
        labels.dedup();
        assert_eq!(labels.len(), n);
    }

    #[test]
    fn empty_batch_yields_empty_blocks() {
        let batch = skewed_batch(&[]);
        for tech in Technique::EVALUATION_SET {
            let mut part = tech.build(1);
            let plan = part.partition(&batch, 4);
            assert_eq!(plan.n_blocks(), 4, "{}", part.name());
            assert_eq!(plan.total_tuples(), 0);
        }
    }

    #[test]
    fn registry_builds_lazily_and_reuses_instances() {
        let mut reg = PartitionerRegistry::new(11);
        assert!(!reg.contains(Technique::Hash));
        let batch = zipfish_batch(20, 100);
        let plan_a = reg.get_or_build(Technique::Hash).partition(&batch, 4);
        assert!(reg.contains(Technique::Hash));
        assert_plan_valid(&batch, &plan_a, 4);
        // Same seed, same instance: a second registry agrees bit-for-bit.
        let plan_b = PartitionerRegistry::new(11)
            .get_or_build(Technique::Hash)
            .partition(&batch, 4);
        for (a, b) in plan_a.blocks.iter().zip(&plan_b.blocks) {
            assert_eq!(a.size(), b.size());
        }
        reg.get_or_build(Technique::Prompt);
        assert_eq!(
            reg.techniques().collect::<Vec<_>>(),
            vec![Technique::Hash, Technique::Prompt]
        );
    }

    #[test]
    fn prompt_builds_the_same_plan_at_every_width() {
        // What `Technique::build` hands a solo caller and what the engine
        // and the registry build at its backend's width.
        let batch = zipfish_batch(300, 4000);
        for technique in [Technique::Prompt, Technique::PromptCountTree] {
            let want = technique.build(3).partition(&batch, 8);
            assert_plan_valid(&batch, &want, 8);
            for threads in [2, 3] {
                let built = technique
                    .build_with_parallelism(3, threads)
                    .partition(&batch, 8);
                assert_eq!(built, want, "{technique:?}, {threads} threads");
                let via_registry = PartitionerRegistry::with_parallelism(3, threads)
                    .get_or_build(technique)
                    .partition(&batch, 8);
                assert_eq!(via_registry, want, "{technique:?} registry, {threads}");
            }
        }
    }

    #[test]
    fn registry_insert_adopts_prebuilt_instance() {
        let mut reg = PartitionerRegistry::new(0);
        reg.insert(Technique::Shuffle, Technique::Shuffle.build(0));
        assert!(reg.contains(Technique::Shuffle));
        assert_eq!(reg.get_or_build(Technique::Shuffle).name(), "Shuffle");
        // Re-insert replaces rather than duplicates.
        reg.insert(Technique::Shuffle, Technique::Shuffle.build(0));
        assert_eq!(reg.techniques().count(), 1);
        // A taken instance is out until it is put back; take builds one
        // for a technique the registry has not seen.
        let lent = reg.take(Technique::Shuffle);
        assert!(!reg.contains(Technique::Shuffle));
        reg.insert(Technique::Shuffle, lent);
        assert_eq!(reg.take(Technique::Hash).name(), "Hash");
        assert_eq!(reg.techniques().collect::<Vec<_>>(), [Technique::Shuffle]);
    }

    #[test]
    fn names_match_labels_for_fixed_variants() {
        assert_eq!(Technique::Prompt.build(0).name(), "Prompt");
        assert_eq!(
            Technique::PromptCountTree.build(0).name(),
            Technique::PromptCountTree.label()
        );
        assert_eq!(Technique::Shuffle.build(0).name(), "Shuffle");
        assert_eq!(Technique::Pkg(2).label(), "PK2");
        assert_eq!(Technique::Pkg(5).label(), "PK5");
        assert_eq!(Technique::Cam(4).label(), "cAM(4)");
    }
}
