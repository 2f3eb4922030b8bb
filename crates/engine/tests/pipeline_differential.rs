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
//! These spawn OS processes for the distributed runs, so they live next to
//! the distributed smoke suite (CI runs both in the `distributed-smoke`
//! job) rather than the fast unit tier.

use prompt_core::partitioner::Technique;
use prompt_core::types::{Duration, Interval, Key, Time, Tuple};
use prompt_engine::prelude::*;

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

/// Full bit-identity: everything the paper's figures are built from.
fn assert_runs_identical(label: &str, serial: &RunResult, other: &RunResult) {
    assert_eq!(serial.batches.len(), other.batches.len(), "{label}");
    for (a, b) in serial.batches.iter().zip(&other.batches) {
        assert_eq!(a.seq, b.seq, "{label}");
        assert_eq!(a.n_tuples, b.n_tuples, "{label} batch {}", a.seq);
        assert_eq!(a.n_keys, b.n_keys, "{label} batch {}", a.seq);
        assert_eq!(a.map_tasks, b.map_tasks, "{label} batch {}", a.seq);
        assert_eq!(a.reduce_tasks, b.reduce_tasks, "{label} batch {}", a.seq);
        assert_eq!(a.map_stage, b.map_stage, "{label} batch {} map", a.seq);
        assert_eq!(
            a.reduce_stage, b.reduce_stage,
            "{label} batch {} reduce",
            a.seq
        );
        assert_eq!(
            a.processing, b.processing,
            "{label} batch {} processing",
            a.seq
        );
        assert_eq!(
            a.queue_delay, b.queue_delay,
            "{label} batch {} queue delay",
            a.seq
        );
        assert_eq!(a.latency, b.latency, "{label} batch {} latency", a.seq);
        assert_eq!(
            a.map_task_times, b.map_task_times,
            "{label} batch {}",
            a.seq
        );
        assert_eq!(
            a.reduce_task_times, b.reduce_task_times,
            "{label} batch {}",
            a.seq
        );
        assert_eq!(
            a.plan_metrics, b.plan_metrics,
            "{label} batch {} plan metrics",
            a.seq
        );
        assert!(a.w.to_bits() == b.w.to_bits(), "{label} batch {} W", a.seq);
    }
    assert_eq!(serial.windows.len(), other.windows.len(), "{label}");
    for (a, b) in serial.windows.iter().zip(&other.windows) {
        assert_eq!(a.last_batch_seq, b.last_batch_seq, "{label}");
        assert_eq!(
            a.aggregates, b.aggregates,
            "{label} window at batch {} must be bit-identical",
            a.last_batch_seq
        );
    }
    assert_eq!(serial.backpressure, other.backpressure, "{label}");
}

/// Per batch, the PROCESSING_KINDS spans must tile `[start, start +
/// processing]` with no gaps regardless of how execution overlapped on the
/// wall clock — spans are applied at commit.
fn assert_spans_tile(label: &str, res: &RunResult, rec: &TraceRecorder) {
    let events = rec.events();
    for b in &res.batches {
        let spans_of = |kind: StageKind| -> u64 {
            events
                .iter()
                .filter(|e| {
                    matches!(e, TraceEvent::Span { seq, kind: k, .. }
                        if *seq == b.seq && *k == kind)
                })
                .map(|e| e.span_us())
                .sum()
        };
        let processing: u64 = PROCESSING_KINDS.iter().map(|&k| spans_of(k)).sum();
        assert_eq!(
            processing, b.processing.0,
            "{label} batch {}: processing spans must tile processing",
            b.seq
        );
        assert_eq!(
            spans_of(StageKind::QueueWait),
            b.queue_delay.0,
            "{label} batch {}: queue span",
            b.seq
        );
        assert_eq!(
            spans_of(StageKind::Accumulate),
            Duration::from_secs(1).0,
            "{label} batch {}: accumulate span is the batch interval",
            b.seq
        );
    }
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
/// re-dispatches it on the survivors from the plans in hand (fresh
/// assignments replay from the assignment cache, so the stateful allocator
/// is never consulted twice), outputs stay bit-identical, and the loss is
/// handled the same way at every depth.
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
