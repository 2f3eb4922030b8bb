//! Property-based tests of the batching-phase accumulators: the budgeted
//! frequency-aware one (Algorithm 1) against the exact post-sort one and
//! against a tree-free model of the algorithm; every seal's groups tiling
//! its arena, serial and sharded; plus degenerate batches through every
//! accumulator.

use std::collections::BTreeMap;

use prompt_core::batch::SealedBatch;
use prompt_core::buffering::{
    AccumulatorConfig, BatchAccumulator, FrequencyAwareAccumulator, PostSortAccumulator,
    ShardedAccumulator,
};
use prompt_core::hash::KeyMap;
use prompt_core::types::{Interval, Key, Time, Tuple};
use proptest::prelude::*;

/// An arbitrary arrival stream: (key, inter-arrival µs) pairs. Two streams
/// in three are under 800 arrivals over 50 keys, so keys repeat often. The
/// third is 800 to 3,000 arrivals over 3,000 keys plus `u64::MAX`, with key
/// 0 drawn often (an empty index entry must not read as key 0), so a serial
/// key index grows past 512 distinct keys and often past 1,024. Its gaps are
/// under 1 ms, so every stream spans under 4 s, and a many-key one under 3 s.
fn stream_strategy() -> impl Strategy<Value = Vec<(u64, u64)>> {
    let few_keys = proptest::collection::vec((0u64..50, 1u64..5_000), 1..800);
    let many_keys = proptest::collection::vec((0u64..3_000, 0u64..10, 1u64..1_000), 800..3_000);
    (0u8..3, few_keys, many_keys).prop_map(|(kind, few_keys, many_keys)| {
        if kind > 0 {
            return few_keys;
        }
        let key = |key, pick| match pick {
            0 => 0,
            1 => u64::MAX,
            _ => key,
        };
        many_keys
            .into_iter()
            .map(|(k, pick, gap)| (key(k, pick), gap))
            .collect()
    })
}

fn tuples_of(stream: &[(u64, u64)], start: u64) -> Vec<Tuple> {
    let mut ts = start;
    stream
        .iter()
        .map(|&(key, gap)| {
            ts += gap;
            Tuple::new(Time::from_micros(ts), Key(key), (ts % 13) as f64)
        })
        .collect()
}

fn ingest_all<A: BatchAccumulator>(acc: &mut A, tuples: &[Tuple]) {
    for &t in tuples {
        acc.ingest(t);
    }
}

/// The engine's entry point: seal `tuples` handed over as one slice into a
/// fresh arena, laid out as the slice of a batch's whole arena that starts
/// at index 1,000; the groups come back counted from the slice's start.
fn seal_slice<A: BatchAccumulator>(acc: &mut A, tuples: &[Tuple]) -> SealedBatch {
    const BASE: usize = 1_000;
    let mut arena = vec![Tuple::keyed(Time::ZERO, Key(0)); tuples.len()];
    let mut groups = Vec::new();
    let interval = acc.seal_slice_into(tuples, &mut arena, BASE, IV, &mut groups);
    for g in &mut groups {
        g.offset = g
            .offset
            .checked_sub(BASE)
            .expect("a group laid out before the base");
    }
    SealedBatch::new(groups, arena, interval)
}

/// Algorithm 1 with no tree: replay the per-key `f.step` / `t.step` / budget
/// rules of §4.1 to learn which frequency each key last published, then sort
/// by that `(published frequency, key)` descending — the order an in-order
/// walk of any correct `CountTree` must produce. Returns the sealed
/// `(key, exact count)` sequence and the number of tree updates.
fn model_seal(
    tuples: &[Tuple],
    cfg: AccumulatorConfig,
    interval: Interval,
) -> (Vec<(Key, usize)>, u64) {
    struct PerKey {
        current: u64,
        published: u64,
        budget_left: u32,
        f_step: u64,
        t_step: u64,
        last_update: Time,
    }
    let budget = cfg.budget.max(1) as f64;
    let mut keys: BTreeMap<Key, PerKey> = BTreeMap::new();
    let mut updates = 0;
    for (i, t) in tuples.iter().enumerate() {
        let remaining = interval.end.since(t.ts).0;
        let Some(k) = keys.get_mut(&t.key) else {
            let first = PerKey {
                current: 1,
                published: 1,
                budget_left: cfg.budget,
                f_step: ((cfg.est_tuples / (cfg.avg_keys.max(1.0) * budget)).round() as u64).max(1),
                t_step: remaining / cfg.budget.max(1) as u64,
                last_update: t.ts,
            };
            keys.insert(t.key, first);
            continue;
        };
        k.current += 1;
        let frequency_due = k.current - k.published >= k.f_step;
        let time_due = t.ts.since(k.last_update).0 >= k.t_step;
        if k.budget_left == 0 || !(frequency_due || time_due) {
            continue;
        }
        k.budget_left -= 1;
        k.published = k.current;
        k.last_update = t.ts;
        updates += 1;
        if frequency_due {
            let share = k.current as f64 / (i + 1) as f64;
            k.f_step = ((cfg.est_tuples / budget * share).round() as u64).max(1);
        } else {
            k.t_step = remaining / k.budget_left.max(1) as u64;
        }
    }
    let mut order: Vec<(u64, Key, usize)> = keys
        .iter()
        .map(|(&key, k)| (k.published, key, k.current as usize))
        .collect();
    order.sort_unstable_by_key(|&(published, key, _)| std::cmp::Reverse((published, key)));
    let order = order.into_iter().map(|(_, key, n)| (key, n)).collect();
    (order, updates)
}

/// Every group holds exactly its key's tuples, in arrival order.
fn assert_groups_hold_arrivals(sealed: &SealedBatch, tuples: &[Tuple]) {
    let mut by_key: BTreeMap<Key, Vec<Tuple>> = BTreeMap::new();
    for &t in tuples {
        by_key.entry(t.key).or_default().push(t);
    }
    assert_eq!(sealed.n_tuples, tuples.len());
    assert_eq!(sealed.n_keys(), by_key.len());
    for (gi, g) in sealed.groups.iter().enumerate() {
        assert_eq!(sealed.tuples(gi), by_key[&g.key], "group of {:?}", g.key);
        assert_eq!(g.count, by_key[&g.key].len());
    }
}

/// The groups' arena ranges are disjoint and tile `[0, n_tuples)` exactly.
fn assert_arena_tiled(sealed: &SealedBatch) {
    let mut ranges: Vec<(usize, usize)> = (sealed.groups.iter())
        .map(|g| (g.offset, g.offset + g.count))
        .collect();
    ranges.sort_unstable();
    let mut end = 0;
    for (start, stop) in ranges {
        assert_eq!(start, end, "a gap or an overlap at arena index {start}");
        end = stop;
    }
    assert_eq!(end, sealed.n_tuples, "the ranges stop short of the arena");
}

proptest! {
    // `stream_strategy` draws a few-key stream two times in three, so 96
    // cases give the few-key streams about 64 and the many-key ones 32.
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn frequency_aware_matches_exact_reference(
        stream in stream_strategy(),
        budget in 1u32..16,
    ) {
        // Both accumulators run over identical arrivals. The batch interval
        // is fixed up-front (generous upper bound) so t.step stays sane.
        let interval = Interval::new(Time::ZERO, Time::from_secs(10));
        let cfg = AccumulatorConfig {
            budget,
            est_tuples: stream.len() as f64,
            avg_keys: 25.0,
        };
        let tuples = tuples_of(&stream, 0);
        let mut fa = FrequencyAwareAccumulator::new(cfg, interval);
        let mut ps = PostSortAccumulator::new(interval);
        ingest_all(&mut fa, &tuples);
        ingest_all(&mut ps, &tuples);

        // Stats agree before sealing.
        prop_assert_eq!(fa.stats().n_tuples, ps.stats().n_tuples);
        prop_assert_eq!(fa.stats().n_keys, ps.stats().n_keys);
        // Budget bounds the tree work.
        prop_assert!(fa.stats().tree_updates <= fa.stats().n_keys * budget as u64);

        let next = Interval::new(Time::from_secs(10), Time::from_secs(20));
        let a = fa.seal(next);
        let b = ps.seal(next);
        prop_assert_eq!(a.n_tuples, b.n_tuples);
        prop_assert_eq!(a.n_keys(), b.n_keys());

        // Same multiset of (key, exact count); each key appears once.
        let mut ma: KeyMap<usize> = KeyMap::default();
        for (gi, g) in a.groups.iter().enumerate() {
            prop_assert_eq!(g.count, a.tuples(gi).len());
            prop_assert!(ma.insert(g.key, g.count).is_none(), "duplicate key group");
        }
        let mut mb: KeyMap<usize> = KeyMap::default();
        for (gi, g) in b.groups.iter().enumerate() {
            prop_assert_eq!(g.count, b.tuples(gi).len());
            prop_assert!(mb.insert(g.key, g.count).is_none(), "duplicate key group");
        }
        prop_assert_eq!(ma, mb);

        // The exact reference is perfectly sorted.
        prop_assert_eq!(b.adjacent_inversions(), 0);
    }

    /// The seal order is what Algorithm 1 *means*, not what one tree
    /// implementation happens to do: it equals the tree-free model's, with
    /// the same number of tree updates, for any budget (zero included) and
    /// any estimates; and every group carries its key's arrivals in order.
    #[test]
    fn seal_order_matches_the_tree_free_model(
        stream in stream_strategy(),
        budget in 0u32..16,
        est_scale in 1u64..40,
        avg_keys in 1u64..60,
    ) {
        let interval = Interval::new(Time::ZERO, Time::from_secs(2));
        let cfg = AccumulatorConfig {
            budget,
            est_tuples: (stream.len() as u64 * est_scale) as f64 / 10.0,
            avg_keys: avg_keys as f64,
        };
        let tuples = tuples_of(&stream, 0);
        let (want_order, want_updates) = model_seal(&tuples, cfg, interval);

        let mut fa = FrequencyAwareAccumulator::new(cfg, interval);
        ingest_all(&mut fa, &tuples);
        prop_assert_eq!(fa.stats().tree_updates, want_updates);
        let sealed = fa.seal(interval);
        let got_order: Vec<(Key, usize)> = sealed.groups.iter().map(|g| (g.key, g.count)).collect();
        prop_assert_eq!(got_order, want_order);
        assert_groups_hold_arrivals(&sealed, &tuples);
    }

    /// Every seal tiles its arena — serial exact and budgeted, and budgeted
    /// sharded at 1/2/4/7 shards × 1/2/3 threads — with each range holding
    /// its key's arrivals in order, on a random batch, the empty one, one key
    /// and a few keys (so some shards' slices are empty). A sharded seal does
    /// not depend on the thread count. Each accumulator then seals the batch
    /// again as one slice, which must equal its tuple-by-tuple seal.
    #[test]
    fn sealed_groups_tile_the_arena(stream in stream_strategy(), few in 1u64..4) {
        let wide = tuples_of(&stream, 0);
        let one_key: Vec<Tuple> = wide.iter().map(|t| Tuple { key: wide[0].key, ..*t }).collect();
        let narrow: Vec<Tuple> = wide.iter().copied().filter(|t| t.key.0 < few).collect();
        let cfg = AccumulatorConfig::default();
        for batch in [&wide, &Vec::new(), &one_key, &narrow] {
            let check = |sealed: &SealedBatch| {
                assert_arena_tiled(sealed);
                assert_groups_hold_arrivals(sealed, batch);
            };
            let mut exact = PostSortAccumulator::new(IV);
            ingest_all(&mut exact, batch);
            let sealed = exact.seal(IV);
            check(&sealed);
            prop_assert_eq!(&seal_slice(&mut exact, batch), &sealed, "exact slice seal");
            let mut budgeted = FrequencyAwareAccumulator::new(cfg, IV);
            ingest_all(&mut budgeted, batch);
            let sealed = budgeted.seal(IV);
            check(&sealed);
            prop_assert_eq!(&seal_slice(&mut budgeted, batch), &sealed, "budgeted slice seal");
            for shards in [1, 2, 4, 7] {
                let mut at_one_thread = None;
                for threads in [1, 2, 3] {
                    let mut budgeted = ShardedAccumulator::new(cfg, shards, IV);
                    budgeted.par_ingest(batch, threads);
                    let sealed = budgeted.seal(IV);
                    check(&sealed);
                    prop_assert_eq!(
                        &seal_slice(&mut budgeted, batch), &sealed,
                        "budgeted {} shards / {} threads, slice seal", shards, threads
                    );
                    let want = at_one_thread.get_or_insert_with(|| sealed.clone());
                    prop_assert_eq!(&sealed, want, "{} shards / {} threads", shards, threads);
                }
            }
        }
    }

    #[test]
    fn seal_resets_cleanly(stream in stream_strategy()) {
        let interval = Interval::new(Time::ZERO, Time::from_secs(10));
        let mut fa = FrequencyAwareAccumulator::new(AccumulatorConfig::default(), interval);
        let tuples = tuples_of(&stream, 0);
        ingest_all(&mut fa, &tuples);
        let next = Interval::new(Time::from_secs(10), Time::from_secs(20));
        let first = fa.seal(next);
        prop_assert_eq!(first.n_tuples, stream.len());
        prop_assert_eq!(fa.stats().n_tuples, 0);
        prop_assert!(fa.tree().is_empty());

        // A second batch over the same accumulator behaves like a fresh one.
        let again = tuples_of(&stream, 10_000_001);
        ingest_all(&mut fa, &again);
        let after = Interval::new(Time::from_secs(20), Time::from_secs(30));
        let second = fa.seal(after);
        let mut fresh = FrequencyAwareAccumulator::new(AccumulatorConfig::default(), next);
        ingest_all(&mut fresh, &again);
        prop_assert_eq!(second, fresh.seal(after));
    }
}

// ---------------------------------------------------------------------------
// Degenerate batches
// ---------------------------------------------------------------------------

const IV: Interval = Interval {
    start: Time(0),
    end: Time(1_000_000),
};

/// Run `batches` back to back through one instance of each accumulator and
/// through both seals. Every seal must hold exactly the batch's arrivals,
/// the columnar seal must equal the row seal, and a reused accumulator must
/// seal what a fresh one does — nothing leaks across `seal`.
fn check_all_accumulators(cfg: AccumulatorConfig, batches: &[Vec<Tuple>]) {
    fn check<A: BatchAccumulator>(fresh: impl Fn() -> A, batches: &[Vec<Tuple>]) {
        let (mut rows, mut cols) = (fresh(), fresh());
        for tuples in batches {
            ingest_all(&mut rows, tuples);
            ingest_all(&mut cols, tuples);
            let stats = rows.stats();
            assert_eq!(stats.n_tuples, tuples.len() as u64);
            let sealed = rows.seal(IV);
            assert_eq!(stats.n_keys, sealed.n_keys() as u64);
            assert_groups_hold_arrivals(&sealed, tuples);
            assert_eq!(cols.seal_columnar(IV).to_sealed(), sealed);
            assert_eq!(rows.stats().n_tuples + rows.stats().n_keys, 0);
            assert_eq!(rows.stats().tree_updates, 0);

            let mut once = fresh();
            ingest_all(&mut once, tuples);
            assert_eq!(once.stats(), stats, "reused accumulator counts differently");
            assert_eq!(
                once.seal(IV),
                sealed,
                "reused accumulator seals differently"
            );
        }
    }
    check(|| FrequencyAwareAccumulator::new(cfg, IV), batches);
    check(|| ShardedAccumulator::new(cfg, 1, IV), batches);
    check(|| ShardedAccumulator::new(cfg, 4, IV), batches);
    check(|| PostSortAccumulator::new(IV), batches);
}

fn spread(keys: impl Iterator<Item = u64>, n: usize) -> Vec<Tuple> {
    let step = IV.end.0 / n.max(1) as u64;
    keys.take(n)
        .enumerate()
        .map(|(i, k)| Tuple::new(Time(i as u64 * step), Key(k), i as f64))
        .collect()
}

#[test]
fn empty_batch() {
    check_all_accumulators(AccumulatorConfig::default(), &[vec![], vec![]]);
}

#[test]
fn one_key_half_a_million_tuples() {
    let cfg = AccumulatorConfig {
        est_tuples: 500_000.0,
        ..AccumulatorConfig::default()
    };
    let tuples = spread(std::iter::repeat(7), 500_000);
    let mut fa = FrequencyAwareAccumulator::new(cfg, IV);
    ingest_all(&mut fa, &tuples);
    assert!(fa.stats().tree_updates <= cfg.budget as u64);
    assert_eq!(fa.tree().len(), 1);
    check_all_accumulators(cfg, &[tuples]);
}

#[test]
fn all_distinct_keys() {
    let n = 20_000;
    let cfg = AccumulatorConfig {
        est_tuples: n as f64,
        ..AccumulatorConfig::default()
    };
    let tuples = spread((0..).map(|k| k * 0x9e37_79b9 % 1_000_003), n);
    let mut fa = FrequencyAwareAccumulator::new(cfg, IV);
    ingest_all(&mut fa, &tuples);
    assert_eq!(fa.stats().n_keys, n as u64);
    assert_eq!(fa.stats().tree_updates, 0, "no key is ever seen twice");
    // Every count ties at 1, so the walk is by key, descending.
    let sealed = fa.seal(IV);
    assert!(sealed.groups.windows(2).all(|w| w[0].key > w[1].key));
    check_all_accumulators(cfg, &[tuples]);
}

#[test]
fn zero_budget_never_touches_the_tree_after_first_sighting() {
    let cfg = AccumulatorConfig {
        budget: 0,
        est_tuples: 3_000.0,
        avg_keys: 10.0,
    };
    let tuples = spread((0..).map(|i| i % 10), 3_000);
    let mut fa = FrequencyAwareAccumulator::new(cfg, IV);
    ingest_all(&mut fa, &tuples);
    assert_eq!(fa.stats().tree_updates, 0);
    assert_eq!(fa.tree().max_count(), Some(1));
    check_all_accumulators(cfg, &[tuples]);
}

#[test]
fn every_tuple_at_the_heartbeat_instant() {
    // `t.step` is 0 for every key, so each arrival is "due" by time until
    // the key's budget runs out.
    let cfg = AccumulatorConfig {
        budget: 3,
        est_tuples: 1_000_000.0,
        avg_keys: 1.0,
    };
    let tuples: Vec<Tuple> = (0..600u64)
        .map(|i| Tuple::new(IV.end, Key(i % 6), i as f64))
        .collect();
    let mut fa = FrequencyAwareAccumulator::new(cfg, IV);
    ingest_all(&mut fa, &tuples);
    assert_eq!(fa.stats().tree_updates, 6 * 3);
    assert_eq!(
        model_seal(&tuples, cfg, IV).1,
        18,
        "the model agrees on the degenerate time step"
    );
    check_all_accumulators(cfg, &[tuples]);
}

/// Many keys, few, none, many others: the key index grows past 512 and
/// 1,024 keys (the squares mod 4,099 are 2,050 keys), is cleared to a few
/// keys, then refilled by keys at both ends of the key space, 0 and
/// `u64::MAX` included, with nothing carried across a seal.
#[test]
fn second_batch_with_fewer_keys_on_a_reused_accumulator() {
    let cfg = AccumulatorConfig {
        est_tuples: 5_000.0,
        ..AccumulatorConfig::default()
    };
    let wide = spread((0..).map(|i| i * i % 4_099), 5_000);
    let narrow = spread((0..).map(|i| 1_000 + i % 3), 400);
    let ends = spread(
        (0..).map(|i: u64| match i % 2 {
            0 => i / 2 % 750,
            _ => u64::MAX - i / 2 % 750,
        }),
        6_000,
    );
    check_all_accumulators(
        cfg,
        &[wide.clone(), narrow.clone(), vec![], ends, narrow, wide],
    );
}

#[test]
fn more_shards_than_keys() {
    let tuples = spread((0..).map(|i| 40 + i % 3), 900);
    check_all_accumulators(AccumulatorConfig::default(), &[tuples]);
}
