//! The four workloads, their seeded input pools, the replaying source that
//! stamps the wall clock at every `fill`, and the independent reference the
//! engine's window outputs are checked against.

use std::collections::HashMap;
use std::path::Path;
use std::time::Instant;

use crate::measure::HostKernel;
use prompt_core::hash::mix64;
use prompt_core::partitioner::Technique;
use prompt_core::source::TupleSource;
use prompt_core::types::{Duration, Interval, Time, Tuple};
use prompt_engine::prelude::{
    Backend, CheckpointConfig, Cluster, EngineConfig, Job, OverheadMode, ReduceOp, StreamingEngine,
    TraceLevel, WindowResult, WindowSpec,
};
use prompt_workloads::prelude::{
    KeyModel, RateProfile, StreamGenerator, UniformKeys, ValueModel, ZipfKeys,
};

/// Batches in a workload's input pool; the source cycles through them.
pub const POOL_BATCHES: usize = 8;
/// Batches run and discarded before measuring starts.
pub const WARMUP_BATCHES: usize = 4;
/// Map tasks (`p`) and Reduce tasks (`r`) of every workload.
pub const TASKS: usize = 16;
/// The (virtual) batch interval.
pub const BATCH_INTERVAL: Duration = Duration::from_secs(1);
/// Seed of the engine's partitioner and assigner hash functions. Fixed: the
/// `--seed` argument varies the input only.
pub const ENGINE_SEED: u64 = 7;

/// How keys are drawn.
#[derive(Clone, Copy, Debug)]
pub enum KeyShape {
    /// Zipf with exponent `alpha` over `keys` keys.
    Zipf { keys: u64, alpha: f64 },
    /// Uniform over `keys` keys.
    Uniform { keys: u64 },
}

/// One benchmark workload: an input shape and an engine configuration.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub keys: KeyShape,
    pub tuples_per_batch: usize,
    pub technique: Technique,
    pub backend: Backend,
    pub ingest_shards: usize,
    pub ingest_threads: usize,
    pub pipeline_depth: usize,
    pub op: ReduceOp,
    /// Window length and slide, in batches.
    pub window: (u64, u64),
    /// Keep window state in the durable keyed store, committing every
    /// batch and snapshotting every fourth commit.
    pub checkpoint: bool,
    /// Measured batches per second of `--seconds`, fixed from this host's
    /// calibration so that batch counts (and with them peak memory and the
    /// percentile sample) do not depend on how fast a run happens to be.
    pub batches_per_s: f64,
}

/// Tuples per batch of the three Zipf workloads, which share one input.
const ZIPF_TUPLES: usize = 500_000;
const ZIPF: KeyShape = KeyShape::Zipf {
    keys: 100_000,
    alpha: 1.0,
};

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "zipf_inproc",
        keys: ZIPF,
        tuples_per_batch: ZIPF_TUPLES,
        technique: Technique::Prompt,
        backend: Backend::InProcess,
        ingest_shards: 1,
        ingest_threads: 1,
        pipeline_depth: 1,
        op: ReduceOp::Count,
        window: (2, 2),
        checkpoint: false,
        batches_per_s: 5.0,
    },
    Workload {
        name: "zipf_threaded",
        keys: ZIPF,
        tuples_per_batch: ZIPF_TUPLES,
        technique: Technique::Prompt,
        backend: Backend::Threaded { threads: 2 },
        ingest_shards: 4,
        ingest_threads: 2,
        pipeline_depth: 2,
        op: ReduceOp::Count,
        window: (2, 2),
        checkpoint: false,
        batches_per_s: 7.0,
    },
    Workload {
        name: "zipf_dist",
        keys: ZIPF,
        tuples_per_batch: ZIPF_TUPLES,
        technique: Technique::Prompt,
        backend: Backend::Distributed {
            workers: 2,
            base_port: 0,
        },
        ingest_shards: 1,
        ingest_threads: 1,
        pipeline_depth: 2,
        op: ReduceOp::Count,
        window: (2, 2),
        checkpoint: false,
        batches_per_s: 5.0,
    },
    Workload {
        name: "uniform_state",
        keys: KeyShape::Uniform { keys: 500_000 },
        tuples_per_batch: 250_000,
        technique: Technique::Hash,
        backend: Backend::InProcess,
        ingest_shards: 1,
        ingest_threads: 1,
        pipeline_depth: 1,
        op: ReduceOp::Sum,
        window: (4, 1),
        checkpoint: true,
        batches_per_s: 5.0,
    },
];

impl Workload {
    /// Look a workload up by name.
    pub fn by_name(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    /// Measured batches of a run of `seconds`. Never fewer than 100, so
    /// that ten samples lie beyond the p90.
    pub fn measured_batches(&self, seconds: u64) -> usize {
        ((self.batches_per_s * seconds as f64).round() as usize).max(100)
    }

    pub fn window_spec(&self) -> WindowSpec {
        WindowSpec::sliding(
            Duration(BATCH_INTERVAL.0 * self.window.0),
            Duration(BATCH_INTERVAL.0 * self.window.1),
        )
    }

    pub fn job(&self) -> Job {
        Job::identity(self.name, self.op)
    }

    /// The engine configuration; `checkpoint_dir` is used only by workloads
    /// that checkpoint.
    pub fn engine_config(&self, checkpoint_dir: &Path, trace: TraceLevel) -> EngineConfig {
        EngineConfig {
            batch_interval: BATCH_INTERVAL,
            map_tasks: TASKS,
            reduce_tasks: TASKS,
            cluster: Cluster::new(2, 8),
            overhead: OverheadMode::None,
            ingest_shards: self.ingest_shards,
            ingest_threads: self.ingest_threads,
            trace,
            backend: self.backend,
            checkpoint: self.checkpoint.then(|| {
                CheckpointConfig::new(checkpoint_dir)
                    .interval(1)
                    .snapshot_every(4)
            }),
            pipeline_depth: self.pipeline_depth,
            columnar: false,
            ..EngineConfig::default()
        }
    }

    pub fn engine(&self, checkpoint_dir: &Path, trace: TraceLevel) -> StreamingEngine {
        StreamingEngine::new(
            self.engine_config(checkpoint_dir, trace),
            self.technique,
            ENGINE_SEED,
            self.job(),
        )
        .with_window(self.window_spec())
    }
}

/// A workload's input: `POOL_BATCHES` batches generated once from the seed.
/// Timestamps are stored as offsets into the batch interval.
pub struct Pool {
    batches: Vec<Vec<Tuple>>,
}

impl Pool {
    /// Generate the pool with the repository's own stream generator.
    /// Payloads are floored to small integers so that sums are exact in
    /// any fold order.
    pub fn generate(w: &Workload, seed: u64) -> Pool {
        let keys: KeyModel = match w.keys {
            KeyShape::Zipf { keys, alpha } => {
                KeyModel::Static(Box::new(ZipfKeys::new(keys, alpha)))
            }
            KeyShape::Uniform { keys } => KeyModel::Static(Box::new(UniformKeys::new(keys))),
        };
        let values = match w.op {
            ReduceOp::Count => ValueModel::Unit,
            _ => ValueModel::Uniform { lo: 0.0, hi: 16.0 },
        };
        let rate = RateProfile::Constant {
            rate: w.tuples_per_batch as f64 / BATCH_INTERVAL.as_secs_f64(),
        };
        let mut gen = StreamGenerator::new(rate, keys, values, seed);
        let batches = (0..POOL_BATCHES as u64)
            .map(|i| {
                let iv = interval_of(i);
                let mut tuples = Vec::new();
                gen.fill(iv, &mut tuples);
                for t in &mut tuples {
                    t.ts = Time(t.ts.0 - iv.start.0);
                    t.value = t.value.floor();
                }
                tuples
            })
            .collect();
        Pool { batches }
    }

    /// The pool batch replayed as batch `seq`.
    pub fn batch(&self, seq: u64) -> &[Tuple] {
        &self.batches[seq as usize % self.batches.len()]
    }

    /// Tuples in batches `range` of a replay.
    pub fn tuples_in(&self, range: std::ops::Range<u64>) -> u64 {
        range.map(|seq| self.batch(seq).len() as u64).sum()
    }
}

/// The interval of batch `seq`.
pub fn interval_of(seq: u64) -> Interval {
    Interval::new(
        Time(BATCH_INTERVAL.0 * seq),
        Time(BATCH_INTERVAL.0 * (seq + 1)),
    )
}

/// Replays the pool in a cycle, re-basing timestamps into the requested
/// interval, and records `Instant::now()` at every `fill`. The engine pulls
/// the next interval only when its in-flight window has room, so the time
/// from one `fill` to the next is the time it took to absorb one interval
/// of input. Each `fill` first times the calibration kernel, which is kept
/// out of that time by stamping the clock on both sides of it.
pub struct ReplaySource<'a> {
    pool: &'a Pool,
    kernel: HostKernel,
    /// When each `fill` was entered.
    pub entered: Vec<Instant>,
    /// The calibration kernel's time at each `fill`: the host's speed then.
    pub kernel_ms: Vec<f64>,
    /// When each `fill` started to deliver tuples, the kernel done.
    pub stamps: Vec<Instant>,
}

impl<'a> ReplaySource<'a> {
    pub fn new(pool: &'a Pool) -> ReplaySource<'a> {
        ReplaySource {
            pool,
            kernel: HostKernel::new(),
            entered: Vec::new(),
            kernel_ms: Vec::new(),
            stamps: Vec::new(),
        }
    }
}

impl TupleSource for ReplaySource<'_> {
    fn fill(&mut self, interval: Interval, out: &mut Vec<Tuple>) {
        let seq = self.stamps.len() as u64;
        self.entered.push(Instant::now());
        self.kernel_ms.push(self.kernel.run_ms());
        self.stamps.push(Instant::now());
        let base = interval.start.0;
        out.extend(self.pool.batch(seq).iter().map(|t| Tuple {
            ts: Time(base + t.ts.0),
            ..*t
        }));
    }
}

/// Order-independent fingerprint of a key → aggregate map: entry count plus
/// a wrapping sum and an xor of two different 64-bit mixes of each entry.
/// Two maps that differ in any key or value bit collide with probability
/// about 2⁻¹²⁸, and a window of 400k keys is fingerprinted in a millisecond
/// where a keyed comparison takes twenty.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Digest {
    len: usize,
    sum: u64,
    xor: u64,
}

impl Digest {
    pub fn of<'m>(entries: impl Iterator<Item = (u64, &'m f64)>) -> Digest {
        let mut d = Digest {
            len: 0,
            sum: 0,
            xor: 0,
        };
        for (key, value) in entries {
            let h = mix64(key ^ mix64(value.to_bits()));
            d.len += 1;
            d.sum = d.sum.wrapping_add(h);
            d.xor ^= mix64(h);
        }
        d
    }
}

/// A window result reduced to its last batch and its fingerprint.
pub fn window_digest(w: &WindowResult) -> (u64, Digest) {
    let entries = w.aggregates.iter().map(|(k, v)| (k.0, v));
    (w.last_batch_seq, Digest::of(entries))
}

/// The reference computation: a naive per-batch fold of the pool into
/// `HashMap`s, merged per window. It shares nothing with the engine but the
/// input tuples.
pub struct Reference {
    per_batch: Vec<HashMap<u64, f64>>,
    window: (u64, u64),
    /// Fingerprint per distinct window, keyed by (first pool batch, length).
    windows: HashMap<(u64, u64), Digest>,
}

impl Reference {
    pub fn build(pool: &Pool, op: ReduceOp, window: (u64, u64)) -> Reference {
        let per_batch = pool
            .batches
            .iter()
            .map(|tuples| fold_batch(tuples, op))
            .collect();
        Reference {
            per_batch,
            window,
            windows: HashMap::new(),
        }
    }

    /// The aggregates of the `len`-batch window that starts at `first_seq`.
    fn window_aggregates(&self, first_seq: u64, len: u64) -> HashMap<u64, f64> {
        let n = self.per_batch.len() as u64;
        let mut acc: HashMap<u64, f64> = HashMap::new();
        for seq in first_seq..first_seq + len {
            for (&k, &v) in &self.per_batch[(seq % n) as usize] {
                *acc.entry(k).or_insert(0.0) += v;
            }
        }
        acc
    }

    /// Windows of a `batches`-batch run whose aggregates differ from the
    /// reference, plus windows that should have been emitted and were not
    /// (or were emitted and should not have been).
    pub fn mismatches(&mut self, windows: &[WindowResult], batches: u64) -> u64 {
        let (len, slide) = self.window;
        let n = self.per_batch.len() as u64;
        let mut wrong = (batches / slide).abs_diff(windows.len() as u64);
        for w in windows {
            let last = w.last_batch_seq;
            let first = (last + 1).saturating_sub(len);
            let key = (first % n, last + 1 - first);
            if !self.windows.contains_key(&key) {
                let want = self.window_aggregates(key.0, key.1);
                self.windows
                    .insert(key, Digest::of(want.iter().map(|(&k, v)| (k, v))));
            }
            let (_, got) = window_digest(w);
            if (last + 1) % slide != 0 || got != self.windows[&key] {
                wrong += 1;
            }
        }
        wrong
    }
}

/// Count or sum one batch's tuples per key.
fn fold_batch(tuples: &[Tuple], op: ReduceOp) -> HashMap<u64, f64> {
    let mut acc: HashMap<u64, f64> = HashMap::new();
    for t in tuples {
        let add = match op {
            ReduceOp::Count => 1.0,
            ReduceOp::Sum => t.value,
            other => panic!("the benchmark has no reference for {other:?}"),
        };
        *acc.entry(t.key.0).or_insert(0.0) += add;
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use prompt_core::hash::KeyMap;
    use prompt_core::types::Key;

    fn tuple(key: u64, value: f64) -> Tuple {
        Tuple::new(Time::ZERO, Key(key), value)
    }

    fn tiny_pool() -> Pool {
        Pool {
            batches: vec![
                vec![tuple(1, 2.0), tuple(2, 3.0), tuple(1, 4.0)],
                vec![tuple(2, 5.0)],
                vec![tuple(3, 1.0), tuple(1, 1.0)],
            ],
        }
    }

    fn result(last: u64, entries: &[(u64, f64)]) -> WindowResult {
        let mut aggregates: KeyMap<f64> = KeyMap::default();
        aggregates.extend(entries.iter().map(|&(k, v)| (Key(k), v)));
        WindowResult {
            last_batch_seq: last,
            aggregates,
        }
    }

    #[test]
    fn reference_matches_a_hand_computed_sliding_sum() {
        let pool = tiny_pool();
        let mut reference = Reference::build(&pool, ReduceOp::Sum, (2, 1));
        // Window ending at batch 0 holds batch 0 alone; then pairs; batch 3
        // replays pool batch 0.
        let windows = [
            result(0, &[(1, 6.0), (2, 3.0)]),
            result(1, &[(1, 6.0), (2, 8.0)]),
            result(2, &[(2, 5.0), (3, 1.0), (1, 1.0)]),
            result(3, &[(3, 1.0), (1, 7.0), (2, 3.0)]),
        ];
        assert_eq!(reference.mismatches(&windows, 4), 0);
    }

    #[test]
    fn reference_counts_tumbling_windows_and_flags_errors() {
        let pool = tiny_pool();
        let mut reference = Reference::build(&pool, ReduceOp::Count, (2, 2));
        let good = [
            result(1, &[(1, 2.0), (2, 2.0)]),
            result(3, &[(3, 1.0), (1, 3.0), (2, 1.0)]),
        ];
        assert_eq!(reference.mismatches(&good, 4), 0);
        // A wrong value, a missing window, a window off the slide grid.
        let bad_value = [good[0].clone(), result(3, &[(3, 1.0), (1, 3.0), (2, 2.0)])];
        assert_eq!(reference.mismatches(&bad_value, 4), 1);
        assert_eq!(reference.mismatches(&good[..1], 4), 1);
        let off_grid = [good[0].clone(), result(2, &[(2, 1.0), (3, 1.0), (1, 1.0)])];
        assert_eq!(reference.mismatches(&off_grid, 4), 1);
    }

    #[test]
    fn digest_ignores_order_and_sees_every_bit() {
        let a = [(1u64, 1.0f64), (2, 2.0), (3, 3.0)];
        let b = [(3u64, 3.0f64), (1, 1.0), (2, 2.0)];
        let c = [(1u64, 1.0f64), (2, 2.0), (3, 3.0000000000000004)];
        let of = |e: &[(u64, f64)]| Digest::of(e.iter().map(|(k, v)| (*k, v)));
        assert_eq!(of(&a), of(&b));
        assert_ne!(of(&a), of(&c));
        assert_ne!(of(&a), of(&a[..2]));
    }

    #[test]
    fn replay_source_cycles_rebases_and_stamps() {
        let pool = tiny_pool();
        let mut src = ReplaySource::new(&pool);
        let mut out = Vec::new();
        for seq in 0..4 {
            out.clear();
            src.fill(interval_of(seq), &mut out);
            assert_eq!(out.len(), pool.batch(seq).len());
            assert!(out.iter().all(|t| interval_of(seq).contains(t.ts)));
        }
        assert_eq!(src.stamps.len(), 4);
        assert_eq!((src.entered.len(), src.kernel_ms.len()), (4, 4));
        assert!(src.entered[1] >= src.stamps[0] && src.stamps[1] >= src.entered[1]);
        assert_eq!(out.len(), 3, "batch 3 replays pool batch 0");
        assert_eq!(pool.tuples_in(0..4), 9);
    }

    #[test]
    fn same_seed_same_pool() {
        let w = Workload {
            tuples_per_batch: 1_000,
            ..WORKLOADS[3]
        };
        let (a, b, c) = (
            Pool::generate(&w, 5),
            Pool::generate(&w, 5),
            Pool::generate(&w, 6),
        );
        assert_eq!(a.batches, b.batches);
        assert_ne!(a.batches, c.batches);
        assert!(a.batches.iter().all(|b| b.len().abs_diff(1_000) <= 1));
        assert!(a.batch(0).iter().all(|t| t.value.fract() == 0.0));
    }

    #[test]
    fn every_workload_has_a_hundred_measured_batches() {
        for w in &WORKLOADS {
            assert!(w.measured_batches(1) >= 100);
            assert!(w.measured_batches(20) >= 100);
        }
    }
}
