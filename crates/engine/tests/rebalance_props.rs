//! Property tests for the key-group routing table and the auto
//! rebalancer.
//!
//! The routing-table invariants: the version advances by exactly one per
//! applied migration plan (so the version sequence doubles as the
//! migration count), every key-group has exactly one owner `< n_workers`
//! after any migration sequence, rejected plans leave the table untouched,
//! and replaying a move sequence against a fresh table reproduces it
//! exactly. The policy invariants mirror PR 8's hysteresis gate:
//! [`AutoRebalance`] never emits plans closer together than `min_dwell`,
//! every plan it emits applies cleanly to the table it was decided
//! against, and the whole decision sequence is a deterministic function of
//! the observations — also when the observations lag the decisions by
//! several batches, as they do at `pipeline_depth > 1`.

use prompt_engine::prelude::*;
use prompt_engine::rebalance::RebalanceSpec;
use proptest::prelude::*;

/// Deterministic xorshift64* stream: the tests derive move sequences and
/// load patterns from one generated `u64`, keeping the proptest strategies
/// to plain ranges while still exploring a large input space.
fn next(s: &mut u64) -> u64 {
    let mut x = *s;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *s = x;
    x.wrapping_mul(0x2545_F491_4F6C_DD1D)
}

/// Build one valid migration plan from the stream: 1–3 moves of distinct
/// groups, each to a worker other than its current owner. On a
/// single-worker table no legal move exists, so the plan comes back empty.
fn derive_plan(s: &mut u64, table: &RoutingTable) -> MigrationPlan {
    let n_groups = table.n_groups();
    let n_workers = table.n_workers();
    if n_workers < 2 {
        return MigrationPlan::default();
    }
    let n_moves = 1 + (next(s) % 3) as usize;
    let mut moves = Vec::new();
    let mut used = std::collections::BTreeSet::new();
    for _ in 0..n_moves {
        let g = (next(s) % n_groups as u64) as u32;
        if !used.insert(g) {
            continue;
        }
        let from = table.owner_of(g as usize);
        let to = (next(s) % n_workers as u64) as u32;
        let to = if to == from {
            (to + 1) % n_workers as u32
        } else {
            to
        };
        moves.push(GroupMove { group: g, from, to });
    }
    MigrationPlan { moves }
}

/// The routing-table property: version monotonicity (+1 per applied
/// plan), exactly-one-owner-in-range after any sequence, rejected plans
/// are no-ops, and replay reproduces the table bit-for-bit.
fn check_table_invariants(
    seed: u64,
    n_groups: usize,
    n_workers: usize,
    n_plans: usize,
) -> Result<(), TestCaseError> {
    let mut s = seed | 1;
    let mut table = RoutingTable::new(n_groups, n_workers);
    prop_assert_eq!(table.version(), 0);
    let mut applied: Vec<MigrationPlan> = Vec::new();
    for i in 0..n_plans {
        let plan = derive_plan(&mut s, &table);
        if plan.is_empty() {
            // Empty plans are rejected by the table, not versioned.
            prop_assert!(table.apply(&plan).is_err());
            continue;
        }
        let before = table.version();
        table.apply(&plan).expect("derived plans are valid");
        prop_assert_eq!(table.version(), before + 1, "version bumps by one");
        prop_assert_eq!(table.owners().len(), n_groups, "one owner per group");
        for (g, &o) in table.owners().iter().enumerate() {
            prop_assert!(
                (o as usize) < n_workers,
                "plan {i}: group {g} owned by out-of-range worker {o}"
            );
        }
        applied.push(plan);
    }
    prop_assert_eq!(table.version(), applied.len() as u64);

    // A plan recorded against a different history (stale `from`) is
    // rejected atomically: same owners, same version.
    if n_workers >= 2 {
        let g = (next(&mut s) % n_groups as u64) as u32;
        let real = table.owner_of(g as usize);
        let stale = MigrationPlan {
            moves: vec![GroupMove {
                group: g,
                from: (real + 1) % n_workers as u32,
                to: real,
            }],
        };
        let snapshot = table.clone();
        prop_assert!(table.apply(&stale).is_err(), "stale from must be rejected");
        prop_assert_eq!(&table, &snapshot, "rejected plan must be a no-op");
    }

    // Replay determinism: the recorded sequence applied to a fresh table
    // reproduces the final table exactly.
    let mut replay = RoutingTable::new(n_groups, n_workers);
    for plan in &applied {
        replay.apply(plan).expect("recorded plans replay cleanly");
    }
    prop_assert_eq!(&replay, &table, "replay must reproduce the table");
    Ok(())
}

/// Drive an [`AutoRebalance`] policy over a synthetic load stream (one
/// hot group per batch, drawn from the stream) and return the non-empty
/// decisions it made, applying each to `table` as the driver would. Batch
/// `seq` is observed — under the table snapshot it was routed with — just
/// before the decision for batch `seq + lag`, the driver's schedule at
/// pipeline depth `lag`.
fn drive_auto(
    policy: &mut AutoRebalance,
    table: &mut RoutingTable,
    seed: u64,
    n_batches: u64,
    lag: usize,
) -> Vec<(u64, MigrationPlan)> {
    let mut s = seed | 1;
    let n_groups = table.n_groups();
    let mut log = Vec::new();
    let mut in_flight = std::collections::VecDeque::new();
    for seq in 0..n_batches {
        let plan = policy.decide(seq);
        if !plan.is_empty() {
            table
                .apply(&plan)
                .expect("decided plans must apply cleanly");
            log.push((seq, plan));
        }
        // Synthetic commit: pick a hot worker and overload the first few
        // groups it currently owns, so the skew is always *fixable* by
        // moving a group (a single dominant group would just shift the
        // hot spot, which the planner rightly refuses). Busy time follows
        // ownership — the same decomposition the driver feeds from the
        // cost model's task times.
        let hot_worker = (next(&mut s) % table.n_workers() as u64) as u32;
        let mut hot_left = 3;
        let group_tuples: Vec<u64> = (0..n_groups)
            .map(|g| {
                if table.owner_of(g) == hot_worker && hot_left > 0 {
                    hot_left -= 1;
                    1_000
                } else {
                    10
                }
            })
            .collect();
        let mut busy = vec![0u64; table.n_workers()];
        for (g, &t) in group_tuples.iter().enumerate() {
            busy[table.owner_of(g) as usize] += t * 10;
        }
        in_flight.push_back((seq, table.clone(), busy, group_tuples));
        if in_flight.len() < lag {
            continue;
        }
        let (seq, routed, busy, group_tuples) = in_flight.pop_front().expect("lag >= 1");
        policy.observe(&RebalanceObservation {
            seq,
            version: routed.version(),
            worker_busy_us: &busy,
            group_tuples: &group_tuples,
            owners: routed.owners(),
        });
    }
    log
}

/// The policy property: hysteresis (non-empty decisions ≥ `min_dwell`
/// apart — and ≥ `lag` apart, the policy never acting on feedback older
/// than its own last plan), clean application of every emitted plan to the
/// table the earlier plans were applied to in order (`drive_auto` panics on
/// a stale `from`), and determinism of the full decision sequence under
/// replay.
fn check_auto_policy(
    seed: u64,
    min_dwell: u64,
    n_batches: u64,
    lag: usize,
) -> Result<(), TestCaseError> {
    let cfg = RebalanceConfig {
        n_groups: 16,
        min_dwell,
        ..RebalanceConfig::default()
    };
    let mut policy = AutoRebalance::new(cfg);
    let mut table = RoutingTable::new(16, 4);
    let log = drive_auto(&mut policy, &mut table, seed, n_batches, lag);
    for w in log.windows(2) {
        prop_assert!(
            w[1].0 - w[0].0 >= min_dwell.max(lag as u64),
            "plans at {} and {} violate min_dwell {} / lag {}",
            w[0].0,
            w[1].0,
            min_dwell,
            lag
        );
    }
    prop_assert_eq!(table.version(), log.len() as u64);

    let mut replay_policy = AutoRebalance::new(cfg);
    let mut replay_table = RoutingTable::new(16, 4);
    let replay_log = drive_auto(&mut replay_policy, &mut replay_table, seed, n_batches, lag);
    prop_assert_eq!(&log, &replay_log, "decision sequence must be deterministic");
    prop_assert_eq!(&table, &replay_table);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn table_invariants_hold_for_any_migration_sequence(
        seed in any::<u64>(),
        n_groups in 1usize..48,
        n_workers in 1usize..9,
        n_plans in 0usize..24,
    ) {
        check_table_invariants(seed, n_groups, n_workers, n_plans)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn auto_policy_is_hysteretic_and_deterministic(
        seed in any::<u64>(),
        min_dwell in 1u64..6,
        n_batches in 4u64..32,
    ) {
        check_auto_policy(seed, min_dwell, n_batches, 1)?;
    }

    #[test]
    fn auto_policy_never_plans_from_owners_older_than_its_last_plan(
        seed in any::<u64>(),
        min_dwell in 1u64..6,
        n_batches in 8u64..40,
        lag in 1usize..5,
    ) {
        check_auto_policy(seed, min_dwell, n_batches, lag)?;
    }
}

/// A `Forced` spec built from a recorded log validates and replays — the
/// spec-level mirror of the differential test's oracle construction.
#[test]
fn forced_spec_from_a_recorded_log_validates() {
    let mut policy = AutoRebalance::new(RebalanceConfig {
        n_groups: 16,
        ..RebalanceConfig::default()
    });
    let mut table = RoutingTable::new(16, 4);
    let log = drive_auto(&mut policy, &mut table, 0x5EED, 24, 1);
    assert!(!log.is_empty(), "the synthetic churn must trip the policy");
    let spec = RebalanceSpec::Forced {
        n_groups: 16,
        plans: log,
    };
    spec.validate()
        .expect("recorded logs are valid forced specs");
}

/// Replay of the checked-in regression seed (see
/// `rebalance_props.proptest-regressions`): single-worker tables (nothing
/// can move — derive_plan must still terminate and version stays 0-free
/// of bad moves) alongside the smallest dwell on a long batch run.
#[test]
fn pinned_regression_single_worker_and_min_dwell_1() {
    check_table_invariants(0xDEAD_BEEF_0BAD_F00D, 1, 1, 8).unwrap();
    check_auto_policy(0xDEAD_BEEF_0BAD_F00D, 1, 31, 1).unwrap();
}
