//! A count under the identity map runs on blocks of runs alone: no
//! partitioner scatters a value, no Map folds one and no Map frame carries
//! one. The answer is each key's run length, so the run must equal, to the
//! bit, a count whose map is a closure — which may read a value, and so is
//! given every one — on every technique, on the local executor at one and
//! at two threads and on a two-worker fleet, at depths 1 and 2, and across
//! a worker lost after its Map tasks. A closure cannot cross a process
//! boundary, so the fleet's run is held to the closure's on `InProcess` at
//! the same depth, the run the differential oracle holds every fleet run to.

use prompt_core::partitioner::Technique;
use prompt_core::types::{Duration, Interval, Key, Time, Tuple};
use prompt_engine::prelude::*;

/// Every constructor technique.
const TECHNIQUES: [Technique; 9] = [
    Technique::TimeBased,
    Technique::Shuffle,
    Technique::Hash,
    Technique::Pkg(2),
    Technique::Pkg(5),
    Technique::Cam(4),
    Technique::DChoices(2),
    Technique::Prompt,
    Technique::PromptCountTree,
];

const BATCHES: usize = 6;

/// 900 tuples an interval: a third on one hot key, the rest over 120 keys,
/// so Prompt splits keys; values vary, so a count that read them would show.
fn source(iv: Interval, out: &mut Vec<Tuple>) {
    let n = 900u64;
    let step = iv.len().0 / (n + 1);
    let salt = iv.start.0 / iv.len().0.max(1);
    for i in 0..n {
        let key = if i % 3 == 0 {
            0
        } else {
            1 + (i * 7919 + salt * 31) % 120
        };
        let value = ((i + salt) % 17) as f64 * 0.25 - 1.5;
        out.push(Tuple::new(
            Time(iv.start.0 + step * (i + 1)),
            Key(key),
            value,
        ));
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

/// A count whose map is a closure: no wire description, so its blocks
/// carry every value.
fn carried() -> Job {
    Job::new("c", |_, v| Some(v), ReduceOp::Count)
}

/// The identity count: blocks of runs alone.
fn runs_only() -> Job {
    Job::identity("c", ReduceOp::Count)
}

fn run(cfg: EngineConfig, technique: Technique, job: Job, kills: NetFaultPlan) -> RunResult {
    std::env::set_var("PROMPT_WORKER_BIN", env!("CARGO_BIN_EXE_prompt-worker"));
    let window = WindowSpec::sliding(Duration::from_secs(3), Duration::from_secs(1));
    StreamingEngine::new(cfg, technique, 5, job)
        .with_window(window)
        .with_net_faults(kills)
        .run(&mut source, BATCHES)
}

#[test]
fn a_count_of_runs_alone_is_a_count_of_every_value_on_every_backend() {
    let fleet = Backend::Distributed {
        workers: 2,
        base_port: 0,
    };
    for depth in [1, 2] {
        for technique in TECHNIQUES {
            let want = run(
                cfg(Backend::InProcess, depth),
                technique,
                carried(),
                NetFaultPlan::none(),
            );
            assert!(want.windows.iter().any(|w| !w.aggregates.is_empty()));
            for backend in [Backend::InProcess, Backend::Threaded { threads: 2 }, fleet] {
                let what = format!("{technique:?} on {backend:?} at depth {depth}");
                let local = !matches!(backend, Backend::Distributed { .. });
                if local {
                    let got = run(
                        cfg(backend, depth),
                        technique,
                        carried(),
                        NetFaultPlan::none(),
                    );
                    assert_eq!(want.first_difference(&got), None, "{what}, values");
                }
                let got = run(
                    cfg(backend, depth),
                    technique,
                    runs_only(),
                    NetFaultPlan::none(),
                );
                assert_eq!(want.first_difference(&got), None, "{what}, runs alone");
            }
        }
    }
}

#[test]
fn a_count_of_runs_alone_survives_a_worker_lost_after_its_map_tasks() {
    let fleet = Backend::Distributed {
        workers: 2,
        base_port: 0,
    };
    for depth in [1, 2] {
        let want = run(
            cfg(Backend::InProcess, depth),
            Technique::Prompt,
            carried(),
            NetFaultPlan::none(),
        );
        let kills = NetFaultPlan::none().kill_after_map(2, 1);
        let got = run(cfg(fleet, depth), Technique::Prompt, runs_only(), kills);
        assert_eq!(want.first_difference(&got), None, "depth {depth}");
        assert_eq!((got.worker_losses, got.recoveries), (1, 1), "depth {depth}");
    }
}
