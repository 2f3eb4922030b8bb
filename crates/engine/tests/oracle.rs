//! The differential oracle over the configuration space. Every seed of a
//! fixed set draws one case — a workload shape, every `EngineConfig` field,
//! the engine's attachments (`common` has the generator and the property) —
//! which must equal its serial run and its forced depth-1 replay. The named
//! cases after it hold what no equality states, and run the two workload
//! regimes the generator does not draw through the same property.
//!
//! A failure names its seed and prints the case it drew. To reproduce a seed
//! the soak found, add it to `FOUND` with the bug it found: this file's
//! default run then checks it with the fixed set (≈ 5 s in a debug build).
//! The soak draws `SOAK`'s seeds, `cargo test -p prompt-engine --release
//! --test oracle -- --ignored soak` (≈ 1 min on 2 cores); widen `SOAK` to
//! soak longer.

use std::collections::{BTreeMap, BTreeSet};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use prompt_core::partitioner::Technique;
use prompt_core::types::{Duration, Interval, Time, Tuple};
use prompt_engine::prelude::*;
use prompt_workloads::prelude::RateProfile;

mod common;
use common::{assert_logs_traced, check, completed, panic_message, Case, Shape};

/// The fixed seed set.
const SEEDS: std::ops::Range<u64> = 0..72;

/// Seeds that found a bug, each with the bug; all fixed. Those outside
/// `SEEDS` run with it.
const FOUND: &[(u64, &str)] = &[
    (
        9,
        "a store loss without a checkpoint, past the window: the inputs to replay had expired",
    ),
    (
        26,
        "a Sum under elasticity rounds by its depth's task counts: answers match to rounding",
    ),
    (
        2364,
        "a plan moving a group twice: `RoutingTable::apply` checked it against the old table",
    ),
];

/// What `soak` draws beyond the fixed set.
const SOAK: std::ops::Range<u64> = 1_000..3_000;

fn fixed_seeds() -> impl Iterator<Item = u64> {
    let found = FOUND.iter().map(|&(seed, _)| seed);
    SEEDS.chain(found.filter(|seed| !SEEDS.contains(seed)))
}

/// Check every seed on as many threads as the host has cores; a failure
/// names its seed and the case it drew.
fn check_all(seeds: &[u64]) {
    let next = AtomicUsize::new(0);
    let failed = Mutex::new(Vec::new());
    let threads = std::thread::available_parallelism().map_or(2, |n| n.get());
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| {
                while let Some(&seed) = seeds.get(next.fetch_add(1, Ordering::Relaxed)) {
                    let mut drawn = String::new();
                    let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
                        let case = Case::draw(seed);
                        drawn = format!("{case:?}");
                        check(&case)
                    }));
                    if let Err(panic) = outcome {
                        let why = panic_message(panic);
                        let failure = format!("seed {seed}: {why}\n  {drawn}");
                        failed.lock().expect("a checker panicked").push(failure);
                    }
                }
            });
        }
    });
    let failed = failed.into_inner().expect("a checker panicked");
    assert!(
        failed.is_empty(),
        "{} of {} seeds:\n{}",
        failed.len(),
        seeds.len(),
        failed.join("\n")
    );
}

#[test]
fn every_fixed_seed_equals_its_serial_run_and_its_forced_replay() {
    check_all(&fixed_seeds().collect::<Vec<_>>());
}

#[test]
#[ignore = "a soak: run with --release --ignored"]
fn soak() {
    check_all(&SOAK.collect::<Vec<_>>());
}

/// The fixed set's reach, asserted: an edit to the generator cannot narrow
/// what it draws without failing here.
#[test]
fn the_fixed_seeds_cover_the_configuration_space() {
    let cases: Vec<Case> = fixed_seeds().map(Case::draw).collect();
    let mut seen: BTreeMap<&str, BTreeSet<String>> = BTreeMap::new();
    let mut tally = |what, value: String| seen.entry(what).or_default().insert(value);
    for case in &cases {
        // No `..`: a field added to `EngineConfig` fails to compile here
        // until the generator draws it.
        let EngineConfig {
            batch_interval,
            map_tasks,
            reduce_tasks,
            cluster,
            cost,
            overhead,
            backpressure_queue,
            elasticity,
            ingest_shards,
            ingest_threads,
            trace,
            backend,
            checkpoint,
            pipeline_depth,
            policy,
            rebalance,
            columnar,
        } = &case.cfg;
        let checkpoint = checkpoint.as_ref().map(|c| (c.interval, c.snapshot_every));
        let backend_kind = format!("{backend:?}").split(' ').next().map(str::to_string);
        for (field, value) in [
            ("batch_interval", format!("{batch_interval:?}")),
            ("map_tasks", format!("{map_tasks}")),
            ("reduce_tasks", format!("{reduce_tasks}")),
            ("cluster", format!("{cluster:?}")),
            ("cost", format!("{cost:?}")),
            ("overhead", format!("{overhead:?}")),
            ("backpressure_queue", format!("{backpressure_queue}")),
            ("elasticity", format!("{elasticity:?}")),
            ("ingest_shards", format!("{ingest_shards}")),
            ("ingest_threads", format!("{ingest_threads}")),
            ("trace", format!("{trace:?}")),
            ("backend", format!("{backend:?}")),
            ("checkpoint", format!("{checkpoint:?}")),
            ("pipeline_depth", format!("{pipeline_depth}")),
            ("policy", format!("{policy:?}")),
            ("rebalance", format!("{rebalance:?}")),
            ("columnar", format!("{columnar}")),
            ("backend kind", backend_kind.unwrap_or_default()),
            ("technique", format!("{:?}", case.technique)),
        ] {
            tally(field, value);
        }
        let recovery = case.recovery.as_ref().map(|(_, plan)| plan);
        let kills = case
            .kills
            .kills
            .iter()
            .map(|k| format!("kill {:?}", k.point));
        let faults = [
            (
                "lose_state",
                recovery.is_some_and(|p| !p.lose_state.is_empty()),
            ),
            (
                "lose_store",
                recovery.is_some_and(|p| !p.lose_store.is_empty()),
            ),
        ];
        let faults = faults.into_iter().filter(|f| f.1).map(|f| f.0.to_string());
        kills
            .chain(faults)
            .for_each(|fault| _ = tally("fault", fault));
    }
    assert!(cases.len() >= 64, "{} cases", cases.len());
    for (what, values) in &seen {
        assert!(values.len() >= 2, "{what} drawn at one value: {values:?}");
    }
    let count = |what| seen[what].len();
    assert_eq!((count("technique"), count("backend kind")), (8, 3));
    let depths: Vec<&str> = seen["pipeline_depth"].iter().map(String::as_str).collect();
    assert_eq!(depths, ["1", "2", "4"]);
    let faults: Vec<&str> = seen["fault"].iter().map(String::as_str).collect();
    let kinds = [
        "kill AfterMap",
        "kill BeforeMap",
        "lose_state",
        "lose_store",
    ];
    assert_eq!(faults, kinds);
    let distributed = cases
        .iter()
        .filter(|c| matches!(c.cfg.backend, Backend::Distributed { .. }));
    assert!(
        distributed.count() * 4 <= cases.len(),
        "over a quarter distributed"
    );
}

fn traced(pipeline_depth: usize) -> EngineConfig {
    EngineConfig {
        map_tasks: 4,
        reduce_tasks: 3,
        cluster: Cluster::new(2, 4),
        pipeline_depth,
        trace: TraceLevel::Full,
        ..EngineConfig::default()
    }
}

/// 60 % of every batch on one hot key that moves every third batch, hashed
/// and rebalanced over 24 key groups.
fn churn(cfg: EngineConfig, batches: usize) -> Case {
    let shape = Shape {
        churn: Some((1, 0.6, 3)),
        ..Shape::uniform(600.0, 30)
    };
    let rebalance = RebalanceSpec::Auto(RebalanceConfig {
        n_groups: 24,
        ..RebalanceConfig::default()
    });
    let case = Case::new(shape, EngineConfig { rebalance, ..cfg }, batches);
    Case {
        technique: Technique::Hash,
        ..case
    }
}

/// `pipeline_depth` means what it says under every feature: a rebalance plan
/// for batch `s` cites the commit of `s − depth`, and a scale action decided
/// at commit `c` takes effect at batch `min(c + depth, n)` — every batch
/// records the task counts in force when it was filled.
#[test]
fn every_feature_honours_the_configured_depth() {
    for depth in [1, 2, 4] {
        let (res, rec) = completed(&churn(traced(depth), 12));
        assert!(
            !res.migrations.is_empty(),
            "depth {depth}: the churn must migrate"
        );
        for e in rec.events() {
            if let TraceEvent::Rebalance {
                seq, observed_seq, ..
            } = e
            {
                let observed = observed_seq.expect("auto plans follow a commit");
                assert_eq!(seq - observed, depth as u64, "the plan at {seq}");
            }
        }
        let per_tuple = Duration::from_micros(150);
        let cfg = EngineConfig {
            map_tasks: 2,
            reduce_tasks: 2,
            cluster: Cluster::new(4, 4),
            cost: CostModel {
                map_per_tuple: per_tuple,
                reduce_per_tuple: per_tuple,
                ..CostModel::default()
            },
            elasticity: Some(ScalerConfig {
                d: 2,
                ..ScalerConfig::default()
            }),
            ..traced(depth)
        };
        let ramp = Shape {
            rate: RateProfile::Ramp {
                start: 2400.0,
                slope: 400.0,
            },
            ..Shape::uniform(2400.0, 64)
        };
        let n = 20;
        let (res, rec) = completed(&Case::new(ramp, cfg, n));
        assert!(
            res.scale_events.iter().any(|(_, a)| a.out),
            "the ramp must scale out"
        );
        let mut counts = vec![(2, 2); n];
        for e in rec.events() {
            if let TraceEvent::Scale {
                seq,
                map_tasks,
                reduce_tasks,
                effective_seq,
                ..
            } = e
            {
                assert_eq!(
                    effective_seq,
                    (seq + depth as u64).min(n as u64),
                    "at {seq}"
                );
                counts[effective_seq as usize..].fill((map_tasks, reduce_tasks));
            }
        }
        let ran: Vec<_> = res
            .batches
            .iter()
            .map(|b| (b.map_tasks, b.reduce_tasks))
            .collect();
        assert_eq!(ran, counts, "depth {depth}");
    }
}

/// The policy's decision log names every batch's technique, and every
/// switch is a `PolicySwitch` event: on a drift from uniform keys (where
/// Hash wins) to Zipf 1.5 (where Prompt does).
#[test]
fn the_decision_log_agrees_with_the_policy_switch_events() {
    let drift = Shape {
        alpha: (0.0, 1.5),
        drift_at: 4,
        ..Shape::uniform(600.0, 200)
    };
    let policy = PolicySpec::Adaptive(AdaptiveConfig::default());
    let case = Case::new(
        drift,
        EngineConfig {
            policy,
            ..traced(1)
        },
        8,
    );
    let (res, rec) = completed(&Case {
        technique: Technique::Hash,
        ..case
    });
    let decisions = res.policy_decisions.iter();
    assert!(decisions
        .filter(|d| d.switched)
        .any(|d| d.technique == Technique::Prompt));
    assert_logs_traced(&res, &rec);
}

/// A migration reports the size of the state slice that changes owner
/// (`GroupMigrate::bytes`), which the driver's store — the only copy of
/// keyed state — answers the same on every backend.
#[test]
fn group_migrate_bytes_are_equal_across_backends() {
    let moved = |backend| {
        let case = churn(
            EngineConfig {
                backend,
                ..traced(1)
            },
            9,
        );
        let (_, rec) = completed(&Case {
            stateful: true,
            ..case
        });
        let events = rec.events().into_iter();
        events
            .filter(|e| matches!(e, TraceEvent::GroupMigrate { .. }))
            .collect::<Vec<_>>()
    };
    let want = moved(Backend::InProcess);
    let bytes = want.iter().map(|e| match e {
        TraceEvent::GroupMigrate { bytes, .. } => *bytes,
        _ => 0,
    });
    assert!(
        bytes.max() > Some(0),
        "a migrated group must carry state: {want:?}"
    );
    let fleet = Backend::Distributed {
        workers: 3,
        base_port: 0,
    };
    for backend in [Backend::Threaded { threads: 3 }, fleet] {
        assert_eq!(moved(backend), want, "{backend:?}");
    }
}

/// `(tuples, distinct keys)` of each of `case`'s batches, straight from its
/// source: what a named case's regime is asserted on.
fn batch_sizes(case: &Case) -> Vec<(usize, usize)> {
    let interval = case.cfg.batch_interval;
    let mut source = case.shape.source(interval, case.seed);
    (0..case.batches as u64)
        .map(|b| {
            let mut tuples: Vec<Tuple> = Vec::new();
            let iv = Interval::new(Time(interval.0 * b), Time(interval.0 * (b + 1)));
            source.fill(iv, &mut tuples);
            let keys: BTreeSet<_> = tuples.iter().map(|t| t.key).collect();
            (tuples.len(), keys.len())
        })
        .collect()
}

/// Bursty arrivals: a burst of a different height every fourth batch over a
/// quiet baseline, on a Zipf 1.0 that drifts to 1.5. Threaded, at depth 2,
/// columnar, under the adaptive policy; then at depth 4 under the scaler,
/// whose load signal the bursts are.
#[test]
fn bursty_arrivals_equal_their_serial_run_and_their_forced_replay() {
    let bursty = Shape {
        rate: RateProfile::Bursty {
            base: 1200.0,
            burst: 3500.0,
            period: Duration::from_secs(2),
            duty: 0.25,
        },
        alpha: (1.0, 1.5),
        drift_at: 6,
        ..Shape::uniform(0.0, 3000)
    };
    let adaptive = EngineConfig {
        batch_interval: Duration::from_millis(500),
        backend: Backend::Threaded { threads: 2 },
        policy: PolicySpec::Adaptive(AdaptiveConfig::default()),
        columnar: true,
        ..traced(2)
    };
    let scaled = EngineConfig {
        batch_interval: Duration::from_millis(500),
        elasticity: Some(ScalerConfig {
            d: 2,
            ..ScalerConfig::default()
        }),
        cost: CostModel::default().scaled(300.0),
        ..traced(4)
    };
    for cfg in [adaptive, scaled] {
        let case = Case::new(bursty.clone(), cfg, 12);
        let sizes: Vec<usize> = batch_sizes(&case).iter().map(|s| s.0).collect();
        let least = *sizes.iter().min().expect("12 batches");
        assert!(
            sizes.iter().any(|&n| n >= 2 * least),
            "not bursty: {sizes:?}"
        );
        check(&case);
    }
}

/// A 2^22-key space read through the string interner, a few thousand tuples
/// a batch: nearly every tuple is a key of its own until a Zipf 1.2 takes
/// over. On a two-worker fleet at depth 2, Prompt rebalanced over key
/// groups, with a checkpointed stateful operator.
#[test]
fn a_four_million_key_space_equals_its_serial_run_and_its_forced_replay() {
    let huge = Shape {
        alpha: (0.0, 1.2),
        drift_at: 4,
        interned: true,
        ..Shape::uniform(3000.0, 1 << 22)
    };
    let cfg = EngineConfig {
        backend: Backend::Distributed {
            workers: 2,
            base_port: 0,
        },
        rebalance: RebalanceSpec::Auto(RebalanceConfig {
            n_groups: 24,
            ..RebalanceConfig::default()
        }),
        checkpoint: Some(
            CheckpointConfig::new("set by run")
                .interval(1)
                .snapshot_every(2),
        ),
        ..traced(2)
    };
    let case = Case {
        stateful: true,
        ..Case::new(huge, cfg, 8)
    };
    let sizes = batch_sizes(&case);
    let (tuples, keys) = sizes[0];
    assert!(tuples >= 2000 && keys * 100 >= tuples * 99, "{sizes:?}");
    let (tuples, keys) = sizes[case.batches - 1];
    assert!(keys * 2 < tuples, "the Zipf never took over: {sizes:?}");
    check(&case);
}
