//! Bit-identity of every per-tuple technique against the placement it had
//! before the techniques shared one placement loop: a fresh block builder
//! per block and per batch (tuples plus a per-key count map), one chooser
//! per technique reading the builders' sizes — and, for cAM, a key set per
//! block — and the split keys `PartitionPlan::from_blocks` derives. The
//! builder and the choosers are kept here verbatim as the reference; only
//! the end of a block changed, as every block did: its tuples grouped by key
//! with a stable sort, one run per key, keys ascending.
//!
//! Each technique's plan must equal the reference on random streams (the
//! same instance partitioning a second batch at another block count after
//! recycling the first plan), and on degenerate batches: empty, one key,
//! more blocks than tuples, and time-based arrivals on both interval edges.

use prompt_core::batch::{DataBlock, KeyFragment, MicroBatch, PartitionPlan};
use prompt_core::hash::{bucket_of, mix64, HashFamily, KeyMap, KeySet};
use prompt_core::partitioner::Technique;
use prompt_core::sketch::SpaceSaving;
use prompt_core::types::{Interval, Key, Time, Tuple};
use proptest::prelude::*;

/// The per-tuple techniques, at the parameters the evaluation runs.
const PER_TUPLE: [Technique; 7] = [
    Technique::TimeBased,
    Technique::Shuffle,
    Technique::Hash,
    Technique::Pkg(2),
    Technique::Pkg(5),
    Technique::Cam(4),
    Technique::DChoices(2),
];

/// cAM's default cardinality weight γ.
const CAM_GAMMA: f64 = 1.0;
/// D-Choices' default heavy-hitter threshold φ.
const DCHOICES_PHI: f64 = 0.001;

/// One block under construction: its tuples and its per-key counts.
struct Builder {
    tuples: Vec<Tuple>,
    counts: KeyMap<usize>,
}

impl Builder {
    fn with_capacity(n: usize) -> Builder {
        Builder {
            tuples: Vec::with_capacity(n),
            counts: KeyMap::default(),
        }
    }

    fn push(&mut self, t: Tuple) {
        *self.counts.entry(t.key).or_insert(0) += 1;
        self.tuples.push(t);
    }

    fn size(&self) -> usize {
        self.tuples.len()
    }

    /// The block as it crosses the seal: the tuples' values, projected by
    /// a stable group-by-key — one run per key from the counts, keys
    /// ascending, each key's values in placement order.
    fn finish(mut self) -> DataBlock {
        let mut runs: Vec<KeyFragment> = (self.counts.into_iter())
            .map(|(key, count)| KeyFragment { key, count })
            .collect();
        runs.sort_unstable_by_key(|f| f.key.0);
        self.tuples.sort_by_key(|t| t.key.0);
        DataBlock {
            runs,
            values: self.tuples.iter().map(|t| t.value).collect(),
        }
    }
}

/// `technique`'s plan of `batch` into `p` blocks, built the reference way.
fn reference(technique: Technique, seed: u64, batch: &MicroBatch, p: usize) -> PartitionPlan {
    let tuples = &batch.tuples;
    let mut builders: Vec<Builder> = (0..p)
        .map(|_| Builder::with_capacity(tuples.len() / p + 1))
        .collect();
    match technique {
        Technique::TimeBased => {
            let span = batch.interval.len().as_micros().max(1);
            let start = batch.interval.start.as_micros();
            for &t in tuples {
                let offset = t.ts.as_micros().saturating_sub(start);
                let slot = ((offset as u128 * p as u128) / span as u128) as usize;
                builders[slot.min(p - 1)].push(t);
            }
        }
        Technique::Shuffle => {
            for (i, &t) in tuples.iter().enumerate() {
                builders[i % p].push(t);
            }
        }
        Technique::Hash => {
            for &t in tuples {
                builders[bucket_of(seed, t.key, p)].push(t);
            }
        }
        Technique::Pkg(d) => {
            let family = HashFamily::new(seed, d);
            for &t in tuples {
                let block = (family.candidates(t.key, p))
                    .min_by_key(|&b| (builders[b].size(), b))
                    .unwrap();
                builders[block].push(t);
            }
        }
        Technique::Cam(d) => {
            let family = HashFamily::new(seed, d);
            let mut key_sets: Vec<KeySet> = vec![KeySet::default(); p];
            for &t in tuples {
                let mut best: Option<(f64, usize)> = None;
                let mut best_local: Option<(usize, usize)> = None;
                for b in family.candidates(t.key, p) {
                    let size = builders[b].size();
                    if key_sets[b].contains(&t.key) {
                        if best_local.is_none_or(|(s, bb)| (size, b) < (s, bb)) {
                            best_local = Some((size, b));
                        }
                    } else {
                        let cost = size as f64 + CAM_GAMMA * key_sets[b].len() as f64;
                        if best.is_none_or(|(c, bb)| (cost, b) < (c, bb)) {
                            best = Some((cost, b));
                        }
                    }
                }
                let block = match (best_local, best) {
                    (Some((lsize, lb)), Some((cost, b))) => {
                        if cost + CAM_GAMMA < lsize as f64 {
                            b
                        } else {
                            lb
                        }
                    }
                    (Some((_, lb)), None) => lb,
                    (None, Some((_, b))) => b,
                    (None, None) => unreachable!(),
                };
                key_sets[block].insert(t.key);
                builders[block].push(t);
            }
        }
        Technique::DChoices(d) => {
            let family = HashFamily::new(seed, d);
            let mut sketch = SpaceSaving::new((2.0 / DCHOICES_PHI).ceil() as usize);
            let heavy: Vec<bool> = (tuples.iter())
                .map(|t| {
                    sketch.observe(t.key);
                    sketch.is_heavy(t.key, DCHOICES_PHI)
                })
                .collect();
            for (&t, &heavy) in tuples.iter().zip(&heavy) {
                let block = if heavy {
                    (family.candidates(t.key, p))
                        .min_by_key(|&b| (builders[b].size(), b))
                        .unwrap()
                } else {
                    bucket_of(seed, t.key, p)
                };
                builders[block].push(t);
            }
        }
        Technique::Prompt | Technique::PromptCountTree => unreachable!("not per-tuple"),
    }
    PartitionPlan::from_blocks(builders.into_iter().map(Builder::finish).collect())
}

fn interval() -> Interval {
    Interval::new(Time::from_secs(2), Time::from_secs(3))
}

/// `n` arrivals over `keys` keys, skewed towards low key ids, with
/// timestamps drawn from the whole interval, both edges and a little
/// outside it. One stream in three spreads its keys over the whole `u64`
/// range: id 0 is key `0`, id 1 key `u64::MAX` (both among the most
/// frequent), any other id `mix64` of it — so a block's sort reads every
/// digit of a key, and skips none.
fn stream(n: usize, keys: u64, bits: u64) -> MicroBatch {
    let iv = interval();
    let (start, len) = (iv.start.as_micros(), iv.len().as_micros());
    let wide = bits.is_multiple_of(3);
    let tuples = (0..n as u64)
        .map(|i| {
            let r = bits.rotate_left(i as u32 % 64) ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let id = (r % keys).min((r >> 21) % keys).min((r >> 42) % keys);
            let key = match id {
                _ if !wide => id,
                0 => 0,
                1 => u64::MAX,
                _ => mix64(id),
            };
            let ts = match r % 7 {
                0 => start,
                1 => start + len,
                2 => start - 1 - r % 5,
                _ => start + (r >> 8) % len,
            };
            Tuple::new(Time::from_micros(ts), Key(key), i as f64)
        })
        .collect();
    MicroBatch::new(tuples, iv)
}

/// Every technique's plans of `first` at `p` and, through the same instance
/// after the first plan is handed back, of `second` at `q`, against the
/// reference.
fn check(first: &MicroBatch, second: &MicroBatch, p: usize, q: usize, seed: u64) {
    for technique in PER_TUPLE {
        let mut part = technique.build(seed);
        let plan = part.partition(first, p);
        let want = reference(technique, seed, first, p);
        assert_eq!(plan, want, "{technique:?} p={p}");
        part.recycle(plan);
        let again = part.partition(second, q);
        let want = reference(technique, seed, second, q);
        assert_eq!(again, want, "{technique:?} second batch, p={q}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn per_tuple_plans_equal_the_builder_reference(
        n in 0usize..3000,
        keys in 1u64..400,
        bits in any::<u64>(),
        p in 1usize..=24,
        q in 1usize..=24,
        seed in any::<u64>(),
    ) {
        let first = stream(n, keys, bits);
        let second = stream(n / 2 + 7, keys * 3, bits.rotate_left(17));
        check(&first, &second, p, q, seed);
    }
}

#[test]
fn per_tuple_plans_of_degenerate_batches_equal_the_builder_reference() {
    let iv = interval();
    let empty = MicroBatch::new(Vec::new(), iv);
    let keyed = |ts: Time, k: u64| Tuple::new(ts, Key(k), 1.0);
    let one_key = MicroBatch::new((0..500).map(|_| keyed(iv.start, 42)).collect(), iv);
    let few = MicroBatch::new((0..5).map(|k| keyed(iv.start, k)).collect(), iv);
    // Time-based arrivals on the interval's first instant, on its end (the
    // next interval's first, clamped into the last slot), and before it.
    let edges = MicroBatch::new(
        (0..60)
            .map(|i| {
                let ts = match i % 3 {
                    0 => iv.start,
                    1 => iv.end,
                    _ => Time::ZERO,
                };
                keyed(ts, i % 4)
            })
            .collect(),
        iv,
    );
    let zipf = stream(2000, 50, 0x5eed);
    for batch in [&empty, &one_key, &few, &edges] {
        for p in [1, 2, 7, 32] {
            check(batch, &zipf, p, 5, 3);
            check(&zipf, batch, 5, p, 3);
        }
    }
    // More blocks than tuples: some blocks stay empty, none is missing.
    let plan = Technique::Shuffle.build(0).partition(&few, 32);
    assert_eq!(plan.n_blocks(), 32);
    // Both edges really land in the first and the last slot.
    let plan = Technique::TimeBased.build(0).partition(&edges, 4);
    assert_eq!(plan.blocks[0].size(), 40, "the start and before it");
    assert_eq!(plan.blocks[3].size(), 20, "the end, clamped");
}
