//! Seal-order pin for the batching phase across representation changes.
//!
//! For seeded 500k-tuple batches the fingerprints below fix the sealed
//! `(key, count)` sequence, every group's tuple sequence, the number of tree
//! updates, and the plan Algorithm 2 builds from the seal — so a new buffer
//! layout has to reproduce the old one bit for bit. Two tables:
//!
//! * [`EXACT_GOLDEN`] — the engine's buffer (`Technique::Prompt`: exact
//!   counts, one sort at the heartbeat), generated at the commit that made it
//!   the default. One row per distribution: the sealed batch is a function of
//!   the key counts alone, so the partitioner must reproduce the same row at
//!   every width.
//! * [`COUNT_TREE_GOLDEN`] — the paper's budgeted Algorithm 1
//!   (`Technique::PromptCountTree`), generated at the commit *before* the
//!   `CountTree` became a B-tree and the `HTable` a slot index over one flat
//!   arrival log, and unchanged since. One row per distribution and shard
//!   count: the sharded count tree's k-way merge of quasi-sorted shards is
//!   deterministic but not shard-invariant. The partitioner runs one serial
//!   accumulator, so it is checked against the one-shard rows; the 4-shard
//!   rows pin `ShardedAccumulator`, each plan built from its seal.
//!
//! The `plan` and `plan_reused` columns of both tables were regenerated
//! twice since, the other columns never moving: once when Prompt blocks
//! became key-ordered — each equals the old plan with every block's tuples
//! stably sorted by key — and once when a block became `(key, count)` runs
//! over a value column, with no timestamp: each equals, at the commit
//! before, the same fingerprint taken over every block's runs of equal keys
//! and its values.
//!
//! `accumulator_props` pins the same orders by meaning (a reference model);
//! this file pins them by history.
//!
//! 500k-tuple inputs are too slow for a debug tier-1 run; CI runs this file
//! with `cargo test -p prompt-core --release --test seal_order_golden`.
//!
//! To regenerate after an *intended* order change, run the test and copy the
//! table the failure message prints.

use prompt_core::batch::{DataBlock, MicroBatch, PartitionPlan, SealedBatch};
use prompt_core::buffering::{
    AccumulatorConfig, BatchAccumulator, FrequencyAwareAccumulator, PostSortAccumulator,
    ShardedAccumulator,
};
use prompt_core::hash::mix64;
use prompt_core::metrics::PlanMetrics;
use prompt_core::partitioner::{BufferingMode, Partitioner, PromptPartitioner};
use prompt_core::types::{Interval, Key, Time, Tuple};

const TUPLES: usize = 500_000;
const KEYS: usize = 100_000;
const BLOCKS: usize = 8;
const IV: Interval = Interval {
    start: Time(0),
    end: Time(1_000_000),
};

#[derive(Clone, Copy, Debug)]
enum Dist {
    /// Zipf with exponent `twice_alpha / 2`, restricted to the exponents
    /// whose weights need only IEEE-exact `sqrt` and division, so the stream
    /// does not depend on the platform's `pow`.
    Zipf {
        twice_alpha: u32,
    },
    Uniform,
}

/// A seeded arrival stream: `n` tuples over `KEYS` keys, timestamps spread
/// over `IV`, key ids scrambled so frequency rank and key order are unrelated.
fn stream(dist: Dist, seed: u64, n: usize) -> Vec<Tuple> {
    let cdf: Vec<f64> = match dist {
        Dist::Uniform => Vec::new(),
        Dist::Zipf { twice_alpha } => {
            let mut acc = 0.0;
            (1..=KEYS)
                .map(|rank| {
                    let r = rank as f64;
                    acc += match twice_alpha {
                        1 => 1.0 / r.sqrt(),
                        2 => 1.0 / r,
                        3 => 1.0 / (r * r.sqrt()),
                        other => panic!("unsupported exponent {other}/2"),
                    };
                    acc
                })
                .collect()
        }
    };
    let step = IV.end.0 / n as u64;
    (0..n)
        .map(|i| {
            let r = mix64(seed ^ mix64(i as u64));
            let rank = match dist {
                Dist::Uniform => (r % KEYS as u64) as usize,
                Dist::Zipf { .. } => {
                    let u = (r >> 11) as f64 / (1u64 << 53) as f64 * cdf[KEYS - 1];
                    cdf.partition_point(|&c| c <= u).min(KEYS - 1)
                }
            };
            Tuple::new(
                Time(i as u64 * step),
                Key(mix64(rank as u64) >> 20),
                (i % 97) as f64 * 0.25,
            )
        })
        .collect()
}

fn fold(h: u64, x: u64) -> u64 {
    mix64(h ^ x)
}

fn fold_tuples(h: u64, tuples: &[Tuple]) -> u64 {
    tuples.iter().fold(fold(h, tuples.len() as u64), |h, t| {
        fold(fold(fold(h, t.ts.0), t.key.0), t.value.to_bits())
    })
}

fn order_fingerprint(sealed: &SealedBatch) -> u64 {
    sealed
        .groups
        .iter()
        .fold(0, |h, g| fold(fold(h, g.key.0), g.count as u64))
}

fn tuples_fingerprint(sealed: &SealedBatch) -> u64 {
    (0..sealed.n_keys()).fold(0, |h, gi| fold_tuples(h, sealed.tuples(gi)))
}

/// A block as the Map reads it: its `(key, count)` runs, then its values.
fn fold_block(h: u64, block: &DataBlock) -> u64 {
    let runs = block
        .runs
        .iter()
        .fold(fold(h, block.runs.len() as u64), |h, r| {
            fold(fold(h, r.key.0), r.count as u64)
        });
    (block.values.iter()).fold(fold(runs, block.values.len() as u64), |h, v| {
        fold(h, v.to_bits())
    })
}

fn plan_fingerprint(plan: &PartitionPlan) -> u64 {
    // Each block's runs again where its fragment table was folded: on a
    // Prompt block the two were equal, so no golden value moved.
    let mut h = plan.blocks.iter().fold(0, |h, b| {
        b.runs.iter().fold(fold_block(h, b), |h, f| {
            fold(fold(h, f.key.0), f.count as u64)
        })
    });
    let mut split: Vec<u64> = plan.split_keys.iter().map(|k| k.0).collect();
    split.sort_unstable();
    for k in split {
        h = fold(h, k);
    }
    h
}

/// What one cell pins.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Golden {
    order: u64,
    tuples: u64,
    tree_updates: u64,
    plan: u64,
    /// The plan of a second, smaller batch through the *same* partitioner:
    /// nothing of the first batch may leak into it.
    plan_reused: u64,
}

const DISTS: [(&str, Dist); 4] = [
    ("zipf0.5", Dist::Zipf { twice_alpha: 1 }),
    ("zipf1.0", Dist::Zipf { twice_alpha: 2 }),
    ("zipf1.5", Dist::Zipf { twice_alpha: 3 }),
    ("uniform", Dist::Uniform),
];

/// Generated at the commit that made the exact buffer the engine default.
const EXACT_GOLDEN: [Golden; 4] = [
    // zipf0.5
    Golden {
        order: 0x0c43a3ed245f590e,
        tuples: 0x9d3122bb68033b01,
        tree_updates: 0,
        plan: 0xa67bc16e46a563c4,
        plan_reused: 0xf2409c140460107b,
    },
    // zipf1.0
    Golden {
        order: 0x025969760387fec9,
        tuples: 0xed990054030d6409,
        tree_updates: 0,
        plan: 0x43d841b670875ba2,
        plan_reused: 0xdd19e5c71f477961,
    },
    // zipf1.5
    Golden {
        order: 0x4ed11367d5f9ea8f,
        tuples: 0xbb6553b06910e0b9,
        tree_updates: 0,
        plan: 0x91e42a4b676bb9a3,
        plan_reused: 0xfeeeb05edb0b3cd6,
    },
    // uniform
    Golden {
        order: 0x17fb76a869f5e4cb,
        tuples: 0x942f5175e4a36f9c,
        tree_updates: 0,
        plan: 0xafebd2f6371b212c,
        plan_reused: 0xd2b50cd7c2df5696,
    },
];

/// Generated before PR 13 (hand-written AVL `CountTree`, per-key tuple
/// vectors); see the module doc. Rows: each distribution at 1 and 4 shards.
const COUNT_TREE_GOLDEN: [Golden; 8] = [
    // zipf0.5/1
    Golden {
        order: 0x820246eddfe91eef,
        tuples: 0xc61b03898a325f53,
        tree_updates: 232835,
        plan: 0xe564d2eef46761b7,
        plan_reused: 0xe2b2e8b4125230b6,
    },
    // zipf0.5/4
    Golden {
        order: 0x45a3ad2bd660a4a9,
        tuples: 0xa5207c9b509538b6,
        tree_updates: 232835,
        plan: 0x3d3def887e446c95,
        plan_reused: 0xec7feb157a1aeeea,
    },
    // zipf1.0/1
    Golden {
        order: 0x9e3a682088afdc25,
        tuples: 0x0f9ebb35906b49ad,
        tree_updates: 78545,
        plan: 0x75821c8440d79e4b,
        plan_reused: 0x11285b508d2a0705,
    },
    // zipf1.0/4
    Golden {
        order: 0xe09365d986a6fed4,
        tuples: 0x11d2c717c90473e4,
        tree_updates: 78537,
        plan: 0xcc04af4365ebc1bb,
        plan_reused: 0x35fbb587e5237f3d,
    },
    // zipf1.5/1
    Golden {
        order: 0x90d0b0ef97191425,
        tuples: 0xc0a2e70d22567c2e,
        tree_updates: 8915,
        plan: 0x2df1df3596129d7c,
        plan_reused: 0x69b6dc3936bfd9b3,
    },
    // zipf1.5/4
    Golden {
        order: 0x23e7df0d73473bc4,
        tuples: 0xd444d2ead3ac5c0b,
        tree_updates: 8896,
        plan: 0x018253d680bada35,
        plan_reused: 0x07f2710e850a3863,
    },
    // uniform/1
    Golden {
        order: 0x8e3d849d7ed4078e,
        tuples: 0x0e7d474aec054387,
        tree_updates: 272493,
        plan: 0xdf735d2e6c31028a,
        plan_reused: 0x9ffb137dae90d046,
    },
    // uniform/4
    Golden {
        order: 0x19c12d00edeb5125,
        tuples: 0x12119a541c5130b7,
        tree_updates: 272493,
        plan: 0x14bde2d0c82903f9,
        plan_reused: 0x4f58bab54a389d50,
    },
];

/// Seal `first` through `acc`, checking on the way that the columnar seal
/// emits the same groups in the same order. Returns the sealed batch and
/// the tree updates it took.
fn seal_both_layouts<A: BatchAccumulator>(
    acc: &mut A,
    first: &[Tuple],
    ingest: impl Fn(&mut A, &[Tuple]),
) -> (SealedBatch, u64) {
    ingest(acc, first);
    let tree_updates = acc.stats().tree_updates;
    let sealed = acc.seal(IV);
    assert_eq!(sealed.n_tuples, first.len());
    ingest(acc, first);
    assert_eq!(acc.seal_columnar(IV).to_sealed(), sealed);
    (sealed, tree_updates)
}

fn one_by_one<A: BatchAccumulator>(acc: &mut A, tuples: &[Tuple]) {
    for &t in tuples {
        acc.ingest(t);
    }
}

/// The accumulator configuration `PromptPartitioner` seeds for a batch of
/// `n` tuples.
fn seeded(n: usize) -> AccumulatorConfig {
    AccumulatorConfig {
        est_tuples: n as f64,
        ..AccumulatorConfig::default()
    }
}

/// One row: `dist` sealed by the mode's serial accumulator and partitioned
/// by the partitioner at `threads` workers, or, for the count tree at more
/// than one shard, sealed by `ShardedAccumulator` on `threads` workers and
/// partitioned from its seal.
fn measure(mode: BufferingMode, dist: Dist, shards: usize, threads: usize) -> Golden {
    let first = stream(dist, 0x5ea1, TUPLES);
    let second = stream(dist, 0x5ea2, TUPLES / 5);
    let (sealed, tree_updates) = match mode {
        BufferingMode::PostSort => {
            assert_eq!(shards, 1, "the exact buffer has no shards");
            seal_both_layouts(&mut PostSortAccumulator::new(IV), &first, one_by_one)
        }
        BufferingMode::FrequencyAware => {
            let cfg = seeded(first.len());
            let mut sharded = ShardedAccumulator::new(cfg, shards, IV);
            let par =
                |acc: &mut ShardedAccumulator, tuples: &[Tuple]| acc.par_ingest(tuples, threads);
            let got = seal_both_layouts(&mut sharded, &first, par);
            if shards > 1 {
                let plan = PromptPartitioner::partition_sealed(&got.0, BLOCKS);
                sharded.set_estimates(second.len() as f64, AccumulatorConfig::default().avg_keys);
                sharded.par_ingest(&second, threads);
                let reused = PromptPartitioner::partition_sealed(&sharded.seal(IV), BLOCKS);
                return Golden {
                    order: order_fingerprint(&got.0),
                    tuples: tuples_fingerprint(&got.0),
                    tree_updates: got.1,
                    plan: plan_fingerprint(&plan),
                    plan_reused: plan_fingerprint(&reused),
                };
            }
            // One shard is the serial accumulator.
            let mut serial = FrequencyAwareAccumulator::new(cfg, IV);
            assert_eq!(seal_both_layouts(&mut serial, &first, one_by_one), got);
            got
        }
    };

    let mut part = PromptPartitioner::with_threads(mode, threads);
    let plan = part.partition(&MicroBatch::new(first, IV), BLOCKS);
    assert_eq!(
        plan,
        PromptPartitioner::partition_sealed(&sealed, BLOCKS),
        "the partitioner seals exactly what the accumulator seals"
    );
    let plan_reused = part.partition(&MicroBatch::new(second, IV), BLOCKS);

    Golden {
        order: order_fingerprint(&sealed),
        tuples: tuples_fingerprint(&sealed),
        tree_updates,
        plan: plan_fingerprint(&plan),
        plan_reused: plan_fingerprint(&plan_reused),
    }
}

fn table(got: &[Golden], names: impl Iterator<Item = String>) -> String {
    got.iter()
        .zip(names)
        .map(|(g, name)| {
            format!(
                "    // {name}\n    Golden {{\n        order: {:#018x},\n        tuples: {:#018x},\n        \
                 tree_updates: {},\n        plan: {:#018x},\n        plan_reused: {:#018x},\n    }},\n",
                g.order, g.tuples, g.tree_updates, g.plan, g.plan_reused
            )
        })
        .collect()
}

#[test]
#[cfg_attr(debug_assertions, ignore = "500k-tuple inputs: run with --release")]
fn exact_seal_is_one_fingerprint_per_distribution_at_every_width() {
    let got: Vec<Golden> = DISTS
        .iter()
        .map(|&(name, dist)| {
            let one = measure(BufferingMode::PostSort, dist, 1, 1);
            for threads in [2, 3] {
                assert_eq!(
                    measure(BufferingMode::PostSort, dist, 1, threads),
                    one,
                    "{name}: {threads} threads"
                );
            }
            one
        })
        .collect();
    let table = table(&got, DISTS.iter().map(|(name, _)| name.to_string()));
    assert!(
        got == EXACT_GOLDEN,
        "seal order changed; measured:\n{table}"
    );
}

#[test]
#[cfg_attr(debug_assertions, ignore = "500k-tuple inputs: run with --release")]
fn count_tree_seal_matches_the_commit_before_the_btree() {
    let cells = || {
        DISTS
            .iter()
            .flat_map(|&(name, dist)| [1, 4].map(|shards| (name, dist, shards)))
    };
    let got: Vec<Golden> = cells()
        .map(|(name, dist, shards)| {
            let one = measure(BufferingMode::FrequencyAware, dist, shards, 1);
            let two = measure(BufferingMode::FrequencyAware, dist, shards, 2);
            assert_eq!(two, one, "{name}/{shards}: 2 threads");
            one
        })
        .collect();
    let table = table(
        &got,
        cells().map(|(name, _, shards)| format!("{name}/{shards}")),
    );
    assert!(
        got == COUNT_TREE_GOLDEN,
        "seal order changed; measured:\n{table}"
    );
}

/// What the exact order costs in plan quality, pinned per distribution.
/// Algorithm 2's residual phase breaks ties by where earlier keys landed, so
/// on one batch either order can come out ahead; the bounds are on means
/// over 24 seeded batches. BSI is never worse. BCI, KSR and MPI are equal or
/// within 2% / 0.1% / 0.1% on Zipf 0.5, Zipf 1.0 and uniform. Zipf 1.5 is
/// the exception, and it is a regression: BCI lands near 50 or near 110
/// keys for both orders, and the exact order's mean is 11% higher (85.8 vs
/// 77.3), with MPI 0.8% higher. The bounds sit just above the measured
/// ratios, so a further loss fails.
#[test]
#[cfg_attr(debug_assertions, ignore = "500k-tuple inputs: run with --release")]
fn exact_order_plan_quality_stays_within_the_measured_bounds() {
    const SEEDS: u64 = 24;
    for (name, dist) in DISTS {
        let mean = |mode| {
            let sum = (0..SEEDS).fold([0.0; 4], |sum, seed| {
                let batch = MicroBatch::new(stream(dist, 0x5ea1 + seed, TUPLES), IV);
                let m = PlanMetrics::of(&PromptPartitioner::new(mode).partition(&batch, BLOCKS));
                [
                    sum[0] + m.bsi,
                    sum[1] + m.bci,
                    sum[2] + m.ksr,
                    sum[3] + m.mpi,
                ]
            });
            sum.map(|s| s / SEEDS as f64)
        };
        let exact = mean(BufferingMode::PostSort);
        let tree = mean(BufferingMode::FrequencyAware);
        println!("{name}: mean [BSI, BCI, KSR, MPI] exact {exact:?} vs count-tree {tree:?}");
        let (bci, mpi) = if name == "zipf1.5" {
            (1.12, 1.01)
        } else {
            (1.02, 1.001)
        };
        let bounds = [("BSI", 1.0), ("BCI", bci), ("KSR", 1.001), ("MPI", mpi)];
        for (i, (metric, bound)) in bounds.into_iter().enumerate() {
            assert!(
                exact[i] <= tree[i] * bound,
                "{name}: mean {metric} {} vs the count tree's {}",
                exact[i],
                tree[i]
            );
        }
    }
}
