//! A deterministic allocation budget for the batch path.
//!
//! A counting global allocator tallies every allocation (and every
//! reallocation) of at least [`LARGE`] bytes: the per-key tables a batch
//! builds — run tables, bucket merges, the gather, the store's panes and
//! emissions, the sealed arena — and every time one of them grows. The engine
//! runs two benchmark shapes, and the Zipf one again through PK-2 (the
//! per-tuple placement loop the baselines share), on `Backend::InProcess`,
//! which executes every stage on the calling thread; those three are counted
//! on that thread alone, so the checkpoint compactor is not. The fourth
//! shape is `zipf_threaded`'s geometry, whose tasks run on the fan-out
//! pool's helpers too, so it is counted on every thread; the file's tests
//! take one lock, so nothing else runs while it counts. The fifth is
//! `zipf_dist`'s, counted on the driver thread, which encodes every Map
//! frame. The allocation sequence is a function of the input alone — each
//! task's tables are indexed by task, not by the thread that ran it — so the
//! budgets below are exact measurements, not timings: a table that starts
//! growing from empty again fails here, whatever the host.
//!
//! Each budget bounds the most any one measured batch allocates, not the
//! mean: a mean in whole allocations rounds a steady allocation in fewer
//! than all the measured batches down to nothing.
//!
//! 250k- and 500k-tuple batches are too slow for a debug tier-1 run; CI runs
//! this file with `cargo test -p prompt-engine --release --test alloc_budget`.
//!
//! After an intended change to the batch path's allocations, run the test and
//! copy the measurement its failure message prints.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use prompt_core::hash::mix64;
use prompt_core::partitioner::Technique;
use prompt_core::types::{Duration, Interval, Key, Time, Tuple};
use prompt_engine::prelude::*;

/// The smallest allocation counted: 4k per-key entries of 16 bytes.
const LARGE: usize = 64 << 10;

thread_local! {
    /// `(allocations, bytes)` of at least [`LARGE`] bytes on this thread.
    static LARGE_ALLOCS: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

/// The same, on every thread.
static ALL_ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALL_BYTES: AtomicU64 = AtomicU64::new(0);

/// Held by every test, so a shape counted on every thread counts itself alone.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

fn tally(size: usize) {
    if size >= LARGE {
        ALL_ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALL_BYTES.fetch_add(size as u64, Ordering::Relaxed);
        // A thread being torn down has no counter left; nothing to count.
        let _ = LARGE_ALLOCS.try_with(|c| {
            let (n, bytes) = c.get();
            c.set((n + 1, bytes + size as u64));
        });
    }
}

/// `(allocations, bytes)` so far, on this thread or on every thread.
fn counted(every_thread: bool) -> (u64, u64) {
    if every_thread {
        let n = ALL_ALLOCS.load(Ordering::Relaxed);
        (n, ALL_BYTES.load(Ordering::Relaxed))
    } else {
        LARGE_ALLOCS.with(Cell::get)
    }
}

struct Counting;

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        tally(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        tally(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        tally(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Batches run before counting starts: the window and the store's running
/// maps are full, and the checkpointer has taken its first snapshot.
const WARMUP: usize = 8;
/// Batches counted: two of the store's snapshot cadences.
const MEASURED: usize = 8;

/// A seeded stream, `n` tuples an interval over `keys` keys, drawn uniformly
/// or by a Zipf(1) CDF; it records the counters each time the engine asks
/// for a batch, so consecutive records bracket one batch.
struct Stream {
    n: usize,
    keys: u64,
    cdf: Option<Vec<f64>>,
    seed: u64,
    /// Count every thread's allocations, not only the driver's.
    every_thread: bool,
    marks: Vec<(u64, u64)>,
}

impl Stream {
    fn new(n: usize, keys: u64, zipf: bool, seed: u64) -> Stream {
        let cdf = zipf.then(|| {
            let mut acc = 0.0;
            (1..=keys)
                .map(|rank| {
                    acc += 1.0 / rank as f64;
                    acc
                })
                .collect()
        });
        Stream {
            n,
            keys,
            cdf,
            seed,
            every_thread: false,
            marks: Vec::with_capacity(WARMUP + MEASURED + 1),
        }
    }

    /// The most `(allocations, bytes)` any one measured batch made, each
    /// maximised on its own.
    fn per_batch(&self) -> (u64, u64) {
        let measured = &self.marks[WARMUP..=WARMUP + MEASURED];
        (measured.windows(2))
            .map(|w| (w[1].0 - w[0].0, w[1].1 - w[0].1))
            .fold((0, 0), |most, got| (most.0.max(got.0), most.1.max(got.1)))
    }
}

impl TupleSource for Stream {
    fn fill(&mut self, iv: Interval, out: &mut Vec<Tuple>) {
        self.marks.push(counted(self.every_thread));
        let step = iv.len().0 / (self.n as u64 + 1);
        for i in 0..self.n as u64 {
            let r = mix64(self.seed ^ mix64(iv.start.0 + i));
            let rank = match &self.cdf {
                None => r % self.keys,
                Some(cdf) => {
                    let u = (r >> 11) as f64 / (1u64 << 53) as f64 * cdf[cdf.len() - 1];
                    cdf.partition_point(|&c| c <= u).min(cdf.len() - 1) as u64
                }
            };
            out.push(Tuple::new(
                Time(iv.start.0 + step * (i + 1)),
                Key(mix64(rank) >> 20),
                (i % 16) as f64,
            ));
        }
    }
}

/// The benchmark shapes' engine: `p = r = 16`, every stage on the calling
/// thread, one ingest shard.
fn serial() -> EngineConfig {
    EngineConfig {
        batch_interval: Duration::from_secs(1),
        map_tasks: 16,
        reduce_tasks: 16,
        cluster: Cluster::new(2, 8),
        backend: Backend::InProcess,
        ..EngineConfig::default()
    }
}

/// Run `technique` over `stream` under `cfg` and return the most large
/// allocations (and bytes) one measured batch made.
fn measure(
    technique: Technique,
    cfg: EngineConfig,
    op: ReduceOp,
    window: (u64, u64),
    mut stream: Stream,
) -> (u64, u64) {
    let _alone = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let spec = WindowSpec::sliding(Duration::from_secs(window.0), Duration::from_secs(window.1));
    let mut engine =
        StreamingEngine::new(cfg, technique, 7, Job::identity("budget", op)).with_window(spec);
    let result = engine.run(&mut stream, WARMUP + MEASURED + 1);
    assert_eq!(result.batches.len(), WARMUP + MEASURED + 1);
    stream.per_batch()
}

/// `got` within `budget`, or a failure that prints the measurement.
fn assert_within(shape: &str, got: (u64, u64), budget: (u64, u64)) {
    let mib = |b: u64| b as f64 / (1 << 20) as f64;
    println!(
        "{shape}: at most {} allocations of ≥ 64 KiB a batch, {:.1} MiB",
        got.0,
        mib(got.1)
    );
    assert!(
        got.0 <= budget.0 && got.1 <= budget.1,
        "{shape}: {} allocations ({:.1} MiB) of ≥ 64 KiB in one batch, over the budget of {} \
         ({:.1} MiB); measured {got:?}",
        got.0,
        mib(got.1),
        budget.0,
        mib(budget.1),
    );
}

/// `uniform_state`: Hash over 250k tuples of 500k uniform keys, a sliding
/// 4/1 Sum in the durable keyed store, committed every batch and snapshotted
/// every fourth commit.
#[test]
#[cfg_attr(debug_assertions, ignore = "250k-tuple batches: run with --release")]
fn uniform_state_stays_within_its_allocation_budget() {
    let dir = std::env::temp_dir().join(format!("prompt-alloc-budget-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let ckpt = CheckpointConfig::new(&dir).interval(1).snapshot_every(4);
    let cfg = EngineConfig {
        checkpoint: Some(ckpt),
        ..serial()
    };
    let stream = Stream::new(250_000, 500_000, false, 0x5eed);
    let got = measure(Technique::Hash, cfg, ReduceOp::Sum, (4, 1), stream);
    let _ = std::fs::remove_dir_all(&dir);
    assert_within("uniform_state", got, UNIFORM_BUDGET);
}

/// `zipf_inproc`: Prompt over 500k tuples of 100k Zipf(1) keys, a tumbling
/// 2-batch Count, no checkpoint.
#[test]
#[cfg_attr(debug_assertions, ignore = "500k-tuple batches: run with --release")]
fn zipf_inproc_stays_within_its_allocation_budget() {
    let stream = Stream::new(500_000, 100_000, true, 0x5eed);
    let got = measure(Technique::Prompt, serial(), ReduceOp::Count, (2, 2), stream);
    assert_within("zipf_inproc", got, ZIPF_BUDGET);
}

/// `zipf_threaded`'s geometry: `zipf_inproc`'s shape on 2 threads at depth
/// 2 — the next batch partitioned on the partition thread while the oldest
/// executes — counted on every thread, so the partition thread and the
/// pool's helpers are held to the same budget as the driver.
#[test]
#[cfg_attr(debug_assertions, ignore = "500k-tuple batches: run with --release")]
fn zipf_threaded_stays_within_its_allocation_budget() {
    let cfg = EngineConfig {
        backend: Backend::Threaded { threads: 2 },
        pipeline_depth: 2,
        ..serial()
    };
    let mut stream = Stream::new(500_000, 100_000, true, 0x5eed);
    stream.every_thread = true;
    let got = measure(Technique::Prompt, cfg, ReduceOp::Count, (2, 2), stream);
    assert_within("zipf_threaded", got, ZIPF_THREADED_BUDGET);
}

/// `zipf_inproc`'s stream through PK-2: the per-tuple placement loop every
/// baseline runs — its per-arrival blocks, pair buffer and radix sort —
/// with its split-key derivation.
#[test]
#[cfg_attr(debug_assertions, ignore = "500k-tuple batches: run with --release")]
fn zipf_pk2_stays_within_its_allocation_budget() {
    let stream = Stream::new(500_000, 100_000, true, 0x5eed);
    let got = measure(Technique::Pkg(2), serial(), ReduceOp::Count, (2, 2), stream);
    assert_within("zipf_pk2", got, PK2_BUDGET);
}

/// `zipf_dist`'s geometry: `zipf_inproc`'s shape on a fleet of 2 workers at
/// depth 2, counted on the driver thread. That thread encodes and sends every
/// Map frame; Algorithm 1/2 run on the partition thread and the replies are
/// decoded on the connections' reader threads, so neither is counted.
#[test]
#[cfg_attr(debug_assertions, ignore = "500k-tuple batches: run with --release")]
fn zipf_dist_stays_within_its_allocation_budget() {
    let cfg = EngineConfig {
        backend: Backend::Distributed {
            workers: 2,
            base_port: 0,
        },
        pipeline_depth: 2,
        ..serial()
    };
    let stream = Stream::new(500_000, 100_000, true, 0x5eed);
    let got = measure(Technique::Prompt, cfg, ReduceOp::Count, (2, 2), stream);
    assert_within("zipf_dist", got, ZIPF_DIST_BUDGET);
}

/// `(allocations, bytes)` of the measured batch that makes the most.
/// Measured: 18 and 15.9 MiB in a batch whose push evicts panes the
/// checkpoint's frozen copy still holds, and 2 and 12.8 MiB in the rest. A
/// push lays its panes and their slot-ordered copies out in the buffers of
/// the panes and copies it evicts, and sizes a pane afresh (once, up front,
/// from the batch's key count) only for one still held elsewhere: the
/// compactor has the snapshot taken a commit earlier, so up to 16. Whether
/// it has let go of them by the push is timing, so a batch makes 2 or 18;
/// the budget is the most. 34 and 17.4 MiB (18 and 14.3 MiB in the rest)
/// while every Map task's Algorithm 3 assignment was a fresh vector (16 of
/// ≥ 64 KiB a batch) and every bucket's merge table was sized for all its
/// partials, where it now holds split keys alone (Hash splits none).
/// 39 and 25.2 MiB in the first measured batch while five shards' running
/// tables grew there, once tombstones had used up their room after the
/// window filled, and the frozen copy's clone of them grew with them at the
/// next snapshot: each table now makes room for a pane before merging it,
/// so the tables grow while the window fills. The figures below in
/// parentheses are means over the 8 measured batches, as the budgets were
/// once taken: 34 and
/// 18.3 MiB while every pane was sized afresh each batch, 66 and 22.2 MiB
/// while each pane grew from empty (three allocations a pane); Hash blocks
/// are grouped by key at placement, so no Map task keeps a fold table, and
/// grow by doubling (68 while they grew to exactly their size); 66 too once
/// the placement loop and the store's panes sorted by radix in buffers they
/// keep (98 with a fresh sorter per block, or per pane) — against 267 and
/// 73.0 MiB while every batch built its plan, Map and merge tables afresh,
/// 268 and 78.7 MiB while a checkpointed run retained every batch's input (a
/// 5.7 MiB copy), and 336 and 105.9 MiB while the gather, the bucket merges
/// and the emission grew their tables from empty. No slack: timing decides
/// only which batch makes the 18, and nothing else varies run to run.
const UNIFORM_BUDGET: (u64, u64) = (18, 16 << 20);
/// Measured: 3 and 2.4 MiB in the first measured batch, and 1 and 2.1 MiB
/// — the gathered output — in the rest but one, which makes 2. A Reduce
/// bucket's lists make room for their last batch's length plus `4·√n + 16`,
/// rounded up to a power of two, so its single-partial list (16 bytes a
/// partial, ≈ 3.7k a bucket) crosses 4,096 entries in the warm-up: 4 and
/// 2.5 MiB in the first measured batch, and 2 in two of the rest, while
/// the lists grew by doubling alone, and crossed it now and then after the
/// warm-up (3 and 2.4 MiB, and 1 in all but one of the rest, while a bucket
/// kept one list of all its partials, ≈ 4.0k). The tumbling
/// window keeps the first batch's output as its answer and hands it over at
/// the emission, so no emission is rebuilt; a block's run table is its
/// fragment table. Means: 1.6 allocations (1 and 2.2 MiB while a bucket
/// kept one list), against 3 and 4.4 MiB at most (a mean of 1
/// and 3.2 MiB) while the window merged every output into a running table
/// and rebuilt a map at every emission, 2 and 3.3 MiB while a block's run
/// table grew beside an equal fragment table, 2 while Map folded every
/// block through a table, 18
/// and 4.7 MiB while Algorithm 3 built a list of non-split clusters per
/// block, 149 and 44.0 MiB while every batch sealed into a fresh arena and
/// built its plan, Map and merge tables afresh, and 166 and 46.8 MiB before
/// that, while tables grew from empty. A stable sort of each block's pieces
/// (it allocates a buffer per block) measured a mean of 17. Each Map task
/// keeps its Algorithm 3 assignment, 4 bytes a cluster: kept at 8 bytes,
/// its first doubling past a block's ≈ 4.3k clusters crossed 64 KiB in the
/// first measured batch (4 here, 7 threaded, 6 through PK-2).
const ZIPF_BUDGET: (u64, u64) = (3, 4 << 20);
/// Measured: 6 and 2.7 MiB on every thread, in the second measured batch,
/// and as `zipf_inproc` in the rest: helpers reuse the tables of the tasks
/// they run, whichever those are. 7 and 2.9 MiB while a Reduce bucket's
/// lists grew by doubling alone (`zipf_inproc`'s single-partial lists), 6
/// and 2.7 MiB while a Reduce bucket kept one list of all its partials,
/// 6 and 4.4 MiB while the window rebuilt
/// its emission, 7 and 4.6 MiB while the batching phase ran 4 shards on 2
/// threads (a mean of 2 and 3.3 MiB; 3 and 3.4 MiB while a
/// block's run table grew beside an equal fragment table).
const ZIPF_THREADED_BUDGET: (u64, u64) = (6, 4 << 20);
/// Measured: 5 and 2.8 MiB, with the blocks built in the last plan handed
/// back, and the per-arrival blocks, the pair buffer and the radix sort's
/// buffers kept (6 and 4.9 MiB while the window rebuilt its emission).
/// PK-2 splits most keys, so its Reduce buckets sort thousands of split
/// partials: 10 and 3.2 MiB while a bucket's merge list, sort buffer and
/// merged list grew from an exact first size, where they now make room for
/// their last batch's length, rounded up to a power of two, as the merge
/// table they replace did.
/// Means: 4 and 2.6 MiB, against 4 and 3.7 MiB (3.8 while a count's blocks
/// carried values; as with the count tables, per-arrival slots and run sort buffer
/// the loop kept before it sorted by radix; 36 and 12.9 MiB with a fresh
/// sorter per block) — against 5 while a block's values grew to exactly its
/// size (a baseline's block size wanders batch to batch), and 73 and 26.8
/// MiB while every batch built fresh blocks and a key map per block, and
/// dropped its plan.
const PK2_BUDGET: (u64, u64) = (6, 4 << 20);
/// Measured: 9 and 2.7 MiB — one exact-size buffer per Map frame of 64 KiB
/// or more (a count's frame is its block's key runs alone, 16 bytes a run,
/// so about half of the 16 reach it), plus `zipf_inproc`'s gathered output.
/// Means: 8 and 2.6 MiB, against 9 and 4.8 MiB at most (a mean of 8 and
/// 3.7 MiB) while the window rebuilt its emission, 18 and 8.1 MiB while every
/// frame carried its block's values too (4.8 MiB of key runs and values), 18
/// and 15.7 MiB while a frame carried 24-byte tuples and a fragment table
/// (12.4 MiB), and 98 and 46.7 MiB while each payload grew from an empty
/// writer (64 KiB → 1 MiB) and was then copied behind its header: six a
/// frame. A frame that carries the values again fails it by its bytes; one
/// that regrows or is copied again, by its count.
const ZIPF_DIST_BUDGET: (u64, u64) = (10, 4 << 20);
