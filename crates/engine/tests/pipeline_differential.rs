//! The pipeline-depth acceptance gate: the driver's bounded in-flight
//! window (`EngineConfig::pipeline_depth`) is a wall-clock-only
//! optimization, so every depth on every backend must stay **bit-identical**
//! to the serial depth-1 in-process oracle — per-batch plans, stage times,
//! aggregates, window outputs — and the recorded virtual-time spans must
//! still tile each batch's processing exactly. A worker killed mid-window
//! must be detected, the aborted in-flight window re-dispatched from the
//! plans in hand, and the outputs left unchanged — handled identically at
//! every depth.
//!
//! The second half is the per-feature contract that replaced the depth
//! clamp (DESIGN §4h): at depths 1/2/4 on all three backends, durable
//! state, the adaptive policy and scheduled fault plans equal their depth-1
//! in-process run; the rebalancer and the scaler — whose feedback lags by
//! `depth` — are identical across backends at each depth, equal the serial
//! run forced through the same decisions, and never change an answer.
//!
//! These spawn OS processes for the distributed runs, so they live next to
//! the distributed smoke suite (CI runs both in the `distributed-smoke`
//! job) rather than the fast unit tier.

use prompt_core::partitioner::Technique;
use prompt_core::types::{Duration, Interval, Key, Time, Tuple};
use prompt_engine::prelude::*;

mod common;
use common::{assert_runs_identical, assert_spans_tile};

/// Point the engine's worker-binary resolution at the freshly built
/// `prompt-worker` before any runtime launches.
fn ensure_worker_bin() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        std::env::set_var("PROMPT_WORKER_BIN", env!("CARGO_BIN_EXE_prompt-worker"));
    });
}

/// Skewed workload with a rotating hot key, so plans differ batch to batch
/// and the Prompt allocator's cross-batch state actually matters.
fn source(rate: usize, keys: u64) -> impl TupleSource {
    move |iv: Interval, out: &mut Vec<Tuple>| {
        let step = iv.len().0 / (rate as u64 + 1);
        let hot = iv.start.0 / 1_000_000 % keys; // rotates every batch
        for i in 0..rate {
            let key = if i % 4 == 0 { hot } else { i as u64 % keys };
            out.push(Tuple {
                ts: Time(iv.start.0 + step * (i as u64 + 1)),
                key: Key(key),
                value: (i % 13) as f64 - 3.0,
            });
        }
    }
}

fn cfg(backend: Backend, depth: usize) -> EngineConfig {
    EngineConfig {
        batch_interval: Duration::from_secs(1),
        map_tasks: 4,
        reduce_tasks: 3,
        cluster: Cluster::new(2, 4),
        backend,
        pipeline_depth: depth,
        trace: TraceLevel::Full,
        ..EngineConfig::default()
    }
}

fn run(backend: Backend, depth: usize, faults: NetFaultPlan) -> (RunResult, TraceRecorder) {
    ensure_worker_bin();
    let mut engine = StreamingEngine::new(
        cfg(backend, depth),
        Technique::Prompt,
        11,
        Job::identity("sum", ReduceOp::Sum),
    )
    .with_window(WindowSpec::sliding(
        Duration::from_secs(3),
        Duration::from_secs(1),
    ))
    .with_net_faults(faults);
    let mut src = source(700, 19);
    engine.run_traced(&mut src, 8)
}

/// The core differential sweep: depths 1/2/4 across all three backends
/// against the serial depth-1 in-process oracle.
#[test]
fn depth_sweep_is_bit_identical_across_backends() {
    let (oracle, _) = run(Backend::InProcess, 1, NetFaultPlan::none());
    assert_eq!(oracle.batches.len(), 8);
    for depth in [1, 2, 4] {
        for backend in [
            Backend::InProcess,
            Backend::Threaded { threads: 4 },
            Backend::Distributed {
                workers: 3,
                base_port: 0,
            },
        ] {
            let label = format!("{backend:?} depth {depth}");
            let (res, rec) = run(backend, depth, NetFaultPlan::none());
            assert_runs_identical(&label, &oracle, &res);
            assert_spans_tile(&label, &res, &rec);
            assert_eq!(res.worker_losses, 0, "{label}");
            assert_eq!(res.recoveries, 0, "{label}");
            if matches!(backend, Backend::Distributed { .. }) {
                let net = res.net.expect("distributed runs report wire stats");
                assert_eq!(net.workers_lost, 0, "{label}");
            } else {
                assert!(res.net.is_none(), "{label}");
            }
        }
    }
}

/// The loss-handling trace of a run with the batch seq erased: at depth
/// `d` a kill scripted for batch 2 surfaces on whichever older batch the
/// driver is waiting for, so the seq legitimately differs by depth — the
/// handling (one loss, one recovery, one replica spent) must not.
fn loss_events(rec: &TraceRecorder) -> Vec<String> {
    rec.events()
        .iter()
        .filter_map(|e| match e {
            TraceEvent::WorkerLost { worker, .. } => Some(format!("lost worker {worker}")),
            TraceEvent::Recovery { replicas_left, .. } => {
                Some(format!("recovery, {replicas_left} replicas left"))
            }
            _ => None,
        })
        .collect()
}

/// A worker killed mid-window at depths 1, 2 and 4 (one, two, four batches
/// in flight): the runtime aborts the unfinished window, the driver
/// re-dispatches it on the survivors from the plans in hand (the retry
/// assigns again — a pure function of each block — and lands every cluster
/// where the lost attempt would have), outputs stay bit-identical, and the
/// loss is handled the same way at every depth.
#[test]
fn worker_kill_mid_window_recovers_at_every_depth() {
    let (oracle, _) = run(Backend::InProcess, 1, NetFaultPlan::none());
    let dist = Backend::Distributed {
        workers: 3,
        base_port: 0,
    };
    for (kill, faults) in [
        // Killed before its Map tasks dispatch: the submit path aborts.
        ("kill-before", NetFaultPlan::none().kill_before(2, 1)),
        // Killed after Map completes, mid-shuffle: the drain path aborts.
        ("kill-after-map", NetFaultPlan::none().kill_after_map(2, 1)),
    ] {
        let mut handled: Vec<Vec<String>> = Vec::new();
        for depth in [1, 2, 4] {
            let label = format!("{kill} depth {depth}");
            let (res, rec) = run(dist, depth, faults.clone());
            assert_runs_identical(&label, &oracle, &res);
            assert_spans_tile(&label, &res, &rec);
            assert_eq!(res.worker_losses, 1, "{label}: exactly one loss");
            assert_eq!(res.recoveries, 1, "{label}: exactly one recovery");
            let net = res.net.expect("distributed runs report wire stats");
            assert_eq!(net.workers_lost, 1, "{label}");
            handled.push(loss_events(&rec));
        }
        assert_eq!(
            handled[0],
            ["lost worker 1", "recovery, 2 replicas left"],
            "{kill}: the loss must be traced and spend one of three replicas"
        );
        assert!(
            handled.iter().all(|h| *h == handled[0]),
            "{kill}: loss handling differs across depths: {handled:?}"
        );
    }
}

// ---------------------------------------------------------------------------
// The per-feature contract at depths 1/2/4 × three backends.
// ---------------------------------------------------------------------------

const DEPTHS: [usize; 3] = [1, 2, 4];
const BACKENDS: [Backend; 3] = [
    Backend::InProcess,
    Backend::Threaded { threads: 4 },
    Backend::Distributed {
        workers: 3,
        base_port: 0,
    },
];

/// One run of `n` batches, built and driven on its own thread under a
/// wall-clock bound: a swallowed completion must fail the cell, not hang
/// the suite (it would surface as a spurious timeout loss after the 30 s
/// io deadline — the bound fires first).
fn cell<S: TupleSource + Send + 'static>(
    label: &str,
    build: impl FnOnce() -> StreamingEngine + Send + 'static,
    mut src: S,
    n: usize,
) -> (RunResult, TraceRecorder) {
    ensure_worker_bin();
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(build().run_traced(&mut src, n));
    });
    rx.recv_timeout(std::time::Duration::from_secs(25))
        .unwrap_or_else(|_| panic!("{label}: hung or panicked (25 s bound)"))
}

fn ckpt_dir(tag: &str) -> std::path::PathBuf {
    static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    std::env::temp_dir().join(format!("prompt-depth-{tag}-{}-{n}", std::process::id()))
}

/// [`assert_runs_identical`] plus everything a feature adds to the result:
/// per-batch techniques, stateful emissions, and the three decision logs.
fn assert_features_identical(label: &str, want: &RunResult, got: &RunResult) {
    assert_runs_identical(label, want, got);
    for (a, b) in want.batches.iter().zip(&got.batches) {
        assert_eq!(a.technique, b.technique, "{label} batch {}", a.seq);
    }
    assert_eq!(want.stateful.len(), got.stateful.len(), "{label}");
    for (a, b) in want.stateful.iter().zip(&got.stateful) {
        assert_eq!(a.aggregates, b.aggregates, "{label} stateful emission");
    }
    assert_eq!(want.policy_decisions, got.policy_decisions, "{label}");
    assert_eq!(want.migrations, got.migrations, "{label} migration log");
    assert_eq!(want.scale_events, got.scale_events, "{label} scale events");
}

/// Answers only: windows and stateful emissions by bits.
fn assert_answers_identical(label: &str, want: &RunResult, got: &RunResult) {
    assert_eq!(want.windows.len(), got.windows.len(), "{label}");
    for (a, b) in want.windows.iter().zip(&got.windows) {
        assert_eq!(a.last_batch_seq, b.last_batch_seq, "{label}");
        assert_eq!(a.aggregates, b.aggregates, "{label} window");
    }
    assert_eq!(want.stateful.len(), got.stateful.len(), "{label}");
    for (a, b) in want.stateful.iter().zip(&got.stateful) {
        assert_eq!(a.aggregates, b.aggregates, "{label} stateful emission");
    }
}

/// State-layer accounting must not depend on depth — except how many inputs
/// are retained at once, which may only grow with it.
fn assert_state_stats(label: &str, want: &RunResult, got: &RunResult) {
    let (Some(a), Some(b)) = (want.state, got.state) else {
        assert_eq!(want.state, got.state, "{label}");
        return;
    };
    assert!(
        b.max_retained_batches >= a.max_retained_batches
            && b.max_retained_tuples >= a.max_retained_tuples,
        "{label}: retention may only grow with depth: {a:?} vs {b:?}"
    );
    let masked = |s: StateStats| StateStats {
        max_retained_batches: 0,
        max_retained_tuples: 0,
        ..s
    };
    assert_eq!(masked(a), masked(b), "{label}");
}

/// A cell nobody scripted a worker kill for must not lose one.
fn assert_no_loss(label: &str, res: &RunResult) {
    assert_eq!(res.worker_losses, 0, "{label}: spurious worker loss");
    if let Some(net) = res.net {
        assert_eq!(net.workers_lost, 0, "{label}");
    }
}

/// Every cell of a feature whose oracle is its own depth-1 in-process run.
fn sweep_against_depth_one(
    name: &str,
    run: impl Fn(&str, Backend, usize) -> (RunResult, TraceRecorder),
) -> RunResult {
    let (oracle, _) = run(&format!("{name} oracle"), Backend::InProcess, 1);
    for depth in DEPTHS {
        for backend in BACKENDS {
            let label = format!("{name} {backend:?} depth {depth}");
            let (res, rec) = run(&label, backend, depth);
            assert_features_identical(&label, &oracle, &res);
            assert_spans_tile(&label, &res, &rec);
            assert_state_stats(&label, &oracle, &res);
            assert_eq!(oracle.recoveries, res.recoveries, "{label}");
            assert_no_loss(&label, &res);
        }
    }
    oracle
}

fn windowed(cfg: EngineConfig, technique: Technique, window_secs: u64) -> StreamingEngine {
    StreamingEngine::new(cfg, technique, 11, Job::identity("sum", ReduceOp::Sum)).with_window(
        WindowSpec::sliding(Duration::from_secs(window_secs), Duration::from_secs(1)),
    )
}

/// Durable state — a checkpointed store, and a stateful operator over it —
/// is identical to its depth-1 run at every depth; only retention grows.
#[test]
fn durable_state_is_depth_invariant() {
    for stateful in [false, true] {
        let name = if stateful {
            "session-count"
        } else {
            "checkpoint"
        };
        sweep_against_depth_one(name, |label, backend, depth| {
            let dir = ckpt_dir(name);
            let ckpt = dir.clone();
            let res = cell(
                label,
                move || {
                    let mut c = cfg(backend, depth);
                    if !stateful {
                        c.checkpoint = Some(CheckpointConfig::new(&ckpt).interval(2));
                    }
                    let eng = windowed(c, Technique::Prompt, 3);
                    if stateful {
                        eng.with_stateful(StatefulOp::SessionCount)
                    } else {
                        eng
                    }
                },
                source(700, 19),
                8,
            );
            let _ = std::fs::remove_dir_all(&dir);
            res
        });
    }
}

/// `policy_differential`'s drifting workload: near-uniform for four batches
/// (Hash wins), then half the mass on one hot key (Prompt wins).
fn drift_source(rate: usize) -> impl TupleSource {
    move |iv: Interval, out: &mut Vec<Tuple>| {
        let step = iv.len().0 / (rate as u64 + 1);
        let skewed = iv.start.0 >= 4_000_000;
        for i in 0..rate {
            let key = match (skewed, i % 2) {
                (true, 0) => 0,
                (true, _) => 1 + (i as u64 % 30),
                (false, _) => i as u64 % 200,
            };
            out.push(Tuple {
                ts: Time(iv.start.0 + step * (i as u64 + 1)),
                key: Key(key),
                value: (i % 13) as f64 - 3.0,
            });
        }
    }
}

/// The adaptive policy decides and observes inside `fill`, and every batch
/// is assigned by its own technique's assigner whichever batch the driver
/// waits on — so its decisions and numbers never depend on depth, with or
/// without a worker killed on the batch where it switches.
#[test]
fn adaptive_policy_is_depth_invariant() {
    let adaptive = |backend, depth, faults: NetFaultPlan| {
        move || {
            let mut c = cfg(backend, depth);
            c.policy = PolicySpec::Adaptive(AdaptiveConfig::default());
            windowed(c, Technique::Hash, 3).with_net_faults(faults)
        }
    };
    let oracle = sweep_against_depth_one("adaptive", |label, backend, depth| {
        let build = adaptive(backend, depth, NetFaultPlan::none());
        cell(label, build, drift_source(600), 8)
    });
    let switch = oracle
        .policy_decisions
        .iter()
        .find(|d| d.switched)
        .expect("the drift workload must switch")
        .seq;
    for (kill, faults) in [
        ("kill-before", NetFaultPlan::none().kill_before(switch, 1)),
        (
            "kill-after-map",
            NetFaultPlan::none().kill_after_map(switch, 1),
        ),
    ] {
        let label = format!("adaptive {kill} switch batch, depth 2");
        let (res, rec) = cell(
            &label,
            adaptive(BACKENDS[2], 2, faults),
            drift_source(600),
            8,
        );
        assert_features_identical(&label, &oracle, &res);
        assert_spans_tile(&label, &res, &rec);
        assert_eq!((res.worker_losses, res.recoveries), (1, 1), "{label}");
    }
}

/// A scheduled fault is a barrier: the faulted batch runs alone in the
/// window, so injected-loss replays and store-loss suffix replays run under
/// the counts and routing depth 1 would see and the run — recoveries
/// included — is the depth-1 run.
#[test]
fn fault_plans_are_depth_invariant() {
    let cases: [(&str, FaultPlan, Option<usize>); 4] = [
        ("lose-once", FaultPlan::none().lose_once(3), None),
        ("lose-twice", FaultPlan::none().lose_times(4, 2), None),
        ("lose-store", FaultPlan::none().lose_store_at(5), None),
        (
            "lose-store-ckpt",
            FaultPlan::none().lose_store_at(5),
            Some(2),
        ),
    ];
    for (name, plan, ckpt_interval) in cases {
        let store_loss = !plan.lose_store.is_empty();
        let oracle = sweep_against_depth_one(name, |label, backend, depth| {
            let dir = ckpt_dir(name);
            let (ckpt, plan) = (dir.clone(), plan.clone());
            let res = cell(
                label,
                move || {
                    let mut c = cfg(backend, depth);
                    c.checkpoint = ckpt_interval.map(|i| CheckpointConfig::new(&ckpt).interval(i));
                    // A store loss without a checkpoint replays from batch
                    // zero, so the window must retain the whole run.
                    let eng = windowed(c, Technique::Prompt, if store_loss { 8 } else { 3 })
                        .with_fault_tolerance(3, plan);
                    if store_loss {
                        eng.with_stateful(StatefulOp::SessionCount)
                    } else {
                        eng
                    }
                },
                source(700, 19),
                8,
            );
            let _ = std::fs::remove_dir_all(&dir);
            res
        });
        if store_loss {
            assert_eq!(oracle.state.expect("state on").restores, 1, "{name}");
        } else {
            assert!(oracle.recoveries >= 1, "{name}: the loss must be injected");
        }
    }
}

/// `rebalance_differential`'s hot-set churn: 60% of every interval on one
/// hot key that moves every three batches.
fn churn_source(rate: usize) -> impl TupleSource {
    move |iv: Interval, out: &mut Vec<Tuple>| {
        let step = iv.len().0 / (rate as u64 + 1);
        let hot_key = Key(100 + iv.start.0 / 1_000_000 / 3);
        let hot = (rate as f64 * 0.6) as usize;
        for i in 0..rate {
            let key = if i < hot {
                hot_key
            } else {
                Key(1 + i as u64 % 30)
            };
            out.push(Tuple {
                ts: Time(iv.start.0 + step * (i as u64 + 1)),
                key,
                value: (i % 13) as f64 - 3.0,
            });
        }
    }
}

const CHURN_BATCHES: usize = 12;

fn rebalanced(
    backend: Backend,
    depth: usize,
    spec: RebalanceSpec,
    stateful: bool,
    faults: NetFaultPlan,
) -> impl FnOnce() -> StreamingEngine + Send + 'static {
    move || {
        let mut c = cfg(backend, depth);
        c.rebalance = spec;
        let eng = windowed(c, Technique::Hash, 3).with_net_faults(faults);
        if stateful {
            eng.with_stateful(StatefulOp::SessionCount)
        } else {
            eng
        }
    }
}

fn auto_rebalance() -> RebalanceSpec {
    RebalanceSpec::Auto(RebalanceConfig {
        n_groups: 24,
        ..RebalanceConfig::default()
    })
}

/// The rebalancer's feedback lags by `depth`, so its plans legitimately
/// differ by depth — but at each depth the three backends agree, the run is
/// the *depth-1* `Forced` replay of its own migration log (each batch is
/// routed by the snapshot taken at its fill), the answers are the depth-1
/// answers, every plan cites evidence exactly `depth` batches old, and a
/// worker killed around a migration batch changes nothing.
#[test]
fn rebalancer_equals_its_serial_forced_replay_at_every_depth() {
    for stateful in [false, true] {
        let tag = if stateful { "stateful" } else { "stateless" };
        let run = |label: &str, backend, depth, spec, faults| {
            let build = rebalanced(backend, depth, spec, stateful, faults);
            cell(label, build, churn_source(600), CHURN_BATCHES)
        };
        let none = NetFaultPlan::none;
        let (serial, _) = run("serial auto", BACKENDS[0], 1, auto_rebalance(), none());
        for depth in DEPTHS {
            let label = format!("rebalance {tag} depth {depth}");
            let (auto, rec) = run(&label, BACKENDS[0], depth, auto_rebalance(), none());
            assert!(!auto.migrations.is_empty(), "{label}: churn must migrate");
            assert_spans_tile(&label, &auto, &rec);
            assert_answers_identical(&label, &serial, &auto);
            for ev in rec.events() {
                if let TraceEvent::Rebalance {
                    seq, observed_seq, ..
                } = ev
                {
                    let observed = observed_seq.expect("auto plans follow a commit");
                    assert_eq!(seq - observed, depth as u64, "{label}: plan at {seq}");
                }
            }
            let forced = RebalanceSpec::Forced {
                n_groups: 24,
                plans: auto.migrations.clone(),
            };
            let (replay, _) = run(&label, BACKENDS[0], 1, forced, none());
            assert_features_identical(&format!("{label} forced replay"), &auto, &replay);
            for backend in &BACKENDS[1..] {
                let label = format!("{label} {backend:?}");
                let (res, rec) = run(&label, *backend, depth, auto_rebalance(), none());
                assert_features_identical(&label, &auto, &res);
                assert_spans_tile(&label, &res, &rec);
                assert_no_loss(&label, &res);
            }
            if depth != 2 || stateful {
                continue;
            }
            let m = auto.migrations[0].0;
            for (kill, faults) in [
                ("kill-before", none().kill_before(m, 1)),
                ("kill-after-map", none().kill_after_map(m, 1)),
                ("kill-before-previous", none().kill_before(m - 1, 1)),
                ("kill-after-previous-map", none().kill_after_map(m - 1, 1)),
            ] {
                let label = format!("{label} {kill} (migration at {m})");
                let (res, rec) = run(&label, BACKENDS[2], 2, auto_rebalance(), faults);
                assert_features_identical(&label, &auto, &res);
                assert_spans_tile(&label, &res, &rec);
                assert_eq!((res.worker_losses, res.recoveries), (1, 1), "{label}");
            }
        }
    }
}

/// `scaling_moves_no_state_and_keeps_answers_bit_identical`'s load ramp.
fn ramp_source() -> impl TupleSource {
    let mut rate = 2000usize;
    move |iv: Interval, out: &mut Vec<Tuple>| {
        rate += 400;
        let step = iv.len().0 / (rate as u64 + 1);
        for i in 0..rate {
            out.push(Tuple::keyed(
                Time(iv.start.0 + step * (i as u64 + 1)),
                Key(i as u64 % 64),
            ));
        }
    }
}

const RAMP_BATCHES: usize = 20;

fn elastic(
    backend: Backend,
    depth: usize,
    ckpt: Option<std::path::PathBuf>,
) -> impl FnOnce() -> StreamingEngine + Send + 'static {
    move || {
        let mut c = cfg(backend, depth);
        c.map_tasks = 2;
        c.reduce_tasks = 2;
        c.cluster = Cluster::new(4, 4);
        c.cost = CostModel {
            map_per_tuple: Duration::from_micros(150),
            reduce_per_tuple: Duration::from_micros(150),
            ..CostModel::default()
        };
        c.elasticity = Some(ScalerConfig {
            d: 2,
            ..Default::default()
        });
        c.checkpoint = ckpt.map(|dir| CheckpointConfig::new(dir).interval(2));
        windowed(c, Technique::Prompt, 3)
    }
}

/// The scaler's feedback lags by `depth` too: at each depth the three
/// backends agree on every scale event, record and state statistic, the
/// answers are the depth-1 answers, and batch `s` records the task counts
/// that were in force when `s` was filled — a scale action decided at
/// commit `c` takes effect at batch `c + depth` (`Scale::effective_seq`),
/// never on a batch already in flight.
#[test]
fn elasticity_agrees_across_backends_at_every_depth() {
    for checkpointed in [false, true] {
        let tag = if checkpointed { "ramp+ckpt" } else { "ramp" };
        let run = |label: &str, backend, depth| {
            let dir = checkpointed.then(|| ckpt_dir("ramp"));
            let build = elastic(backend, depth, dir.clone());
            let res = cell(label, build, ramp_source(), RAMP_BATCHES);
            if let Some(dir) = dir {
                let _ = std::fs::remove_dir_all(dir);
            }
            res
        };
        let (serial, _) = run("serial ramp", BACKENDS[0], 1);
        for depth in DEPTHS {
            let label = format!("{tag} depth {depth}");
            let (want, rec) = run(&label, BACKENDS[0], depth);
            assert!(
                want.scale_events.iter().any(|(_, a)| a.out),
                "{label}: the ramp must scale out"
            );
            assert_spans_tile(&label, &want, &rec);
            assert_answers_identical(&label, &serial, &want);
            // Replay the scale log: counts change at `effective_seq`.
            let mut counts = vec![(2, 2); RAMP_BATCHES];
            for ev in rec.events() {
                if let TraceEvent::Scale {
                    seq,
                    map_tasks,
                    reduce_tasks,
                    effective_seq,
                    ..
                } = ev
                {
                    let steady = (seq + depth as u64).min(RAMP_BATCHES as u64);
                    assert_eq!(effective_seq, steady, "{label}: action at {seq}");
                    for c in counts.iter_mut().skip(effective_seq as usize) {
                        *c = (map_tasks, reduce_tasks);
                    }
                }
            }
            for (b, want) in want.batches.iter().zip(&counts) {
                assert_eq!(
                    (b.map_tasks, b.reduce_tasks),
                    *want,
                    "{label} batch {}",
                    b.seq
                );
            }
            for backend in &BACKENDS[1..] {
                let label = format!("{label} {backend:?}");
                let (res, rec) = run(&label, *backend, depth);
                assert_features_identical(&label, &want, &res);
                assert_spans_tile(&label, &res, &rec);
                assert_state_stats(&label, &want, &res);
                assert_no_loss(&label, &res);
            }
        }
    }
}

/// `pipeline_depth` means what it says under every feature — the in-flight
/// window really is `depth` batches deep. With checkpointing on, depth 4
/// retains three more inputs than depth 1; with the rebalancer on, the first
/// commit it can act on at depth 4 precedes batch 4, where at depth 1 it has
/// long since migrated.
#[test]
fn every_feature_honours_the_configured_depth() {
    let retained = |depth| {
        let dir = ckpt_dir("honours");
        let ckpt = dir.clone();
        let (res, _) = cell(
            "checkpointed",
            move || {
                let mut c = cfg(Backend::InProcess, depth);
                c.checkpoint = Some(CheckpointConfig::new(&ckpt).interval(2));
                windowed(c, Technique::Prompt, 3)
            },
            source(700, 19),
            8,
        );
        let _ = std::fs::remove_dir_all(&dir);
        res.state.expect("state on").max_retained_batches
    };
    assert_eq!(retained(4), retained(1) + 3);

    let first_migration = |depth| {
        let build = rebalanced(
            Backend::InProcess,
            depth,
            auto_rebalance(),
            false,
            NetFaultPlan::none(),
        );
        let (res, _) = cell("rebalanced", build, churn_source(600), CHURN_BATCHES);
        res.migrations.first().expect("churn must migrate").0
    };
    assert!(first_migration(1) < 4);
    assert!(first_migration(4) >= 4);
}
