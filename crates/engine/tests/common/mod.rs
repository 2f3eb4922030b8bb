//! The differential oracle: one seeded case generator and the one property
//! every case must hold (`tests/oracle.rs` runs it over a fixed seed set).
//!
//! A `u64` seed draws a [`Case`] with three parts: a workload [`Shape`]
//! (Zipf α with a drift point, hot-set churn and a cardinality tier, built
//! from `prompt-workloads`' own generators), every `EngineConfig` field at a
//! value `validate` accepts, and the engine's attachments (a window, a
//! stateful operator, a recovery budget with its `FaultPlan` and worker
//! kills). [`check`] runs the case and asserts two equalities:
//!
//! 1. it equals [`Case::serial`], the same case with every knob that is
//!    wall-clock-only by contract (backend, trace level, layout, ingest
//!    geometry) at its serial value and no worker killed, at the same depth;
//! 2. it equals [`Case::forced`], its depth-1 serial replay forced through
//!    its own technique sequence and migration log — in its answers only
//!    under elasticity, which has no forced log.
#![allow(dead_code)] // each test binary uses the half it needs

use std::sync::atomic::{AtomicU64, Ordering};

use prompt_core::hash::mix64;
use prompt_core::partitioner::Technique;
use prompt_core::types::{Duration, Key, Time};
use prompt_engine::prelude::*;
use prompt_workloads::prelude::*;
use rand::RngCore;

/// Every choice a case makes, drawn from its seed (a splitmix64 stream).
struct Draw(u64);

impl Draw {
    fn below(&mut self, n: usize) -> usize {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        (mix64(self.0) % n as u64) as usize
    }

    fn pick<T: Clone>(&mut self, options: &[T]) -> T {
        options[self.below(options.len())].clone()
    }

    fn one_in(&mut self, n: usize) -> bool {
        self.below(n) == 0
    }

    /// `k` distinct values below `n`, ascending.
    fn distinct(&mut self, k: usize, n: usize) -> Vec<usize> {
        let mut all: Vec<usize> = (0..n).collect();
        for i in 0..k {
            let j = i + self.below(n - i);
            all.swap(i, j);
        }
        all.truncate(k);
        all.sort_unstable();
        all
    }
}

/// Every technique the engine partitions with.
const TECHNIQUES: [Technique; 8] = [
    Technique::TimeBased,
    Technique::Shuffle,
    Technique::Hash,
    Technique::Pkg(2),
    Technique::Cam(3),
    Technique::DChoices(2),
    Technique::Prompt,
    Technique::PromptCountTree,
];

/// A workload: Gáspár et al.'s parameterised synthetic stream.
#[derive(Clone, Debug)]
pub struct Shape {
    /// Tuples per second: the generator draws a ramp; a named case may
    /// burst.
    pub rate: RateProfile,
    /// The key space: the cardinality tier.
    pub keys: u64,
    /// The Zipf exponent before and after the drift point (0 = uniform).
    pub alpha: (f64, f64),
    /// The batch at which the exponent drifts — or the hot-set churn takes
    /// over.
    pub drift_at: u64,
    /// `(hot keys, hot mass, period in batches)` of a hot set that replaces
    /// the drifted Zipf from the drift point on.
    pub churn: Option<(u64, f64, u64)>,
    /// Keys re-interned through their string names, in first-sight order.
    pub interned: bool,
}

/// Zipf before the drift point; after it the drifted Zipf, or the churn.
struct Phases {
    zipf: AlphaDrift,
    churn: Option<HotSetChurn>,
    from: Time,
}

impl TimedKeyDistribution for Phases {
    fn sample(&mut self, t: Time, rng: &mut dyn RngCore) -> Key {
        match &mut self.churn {
            Some(churn) if t >= self.from => churn.sample(t, rng),
            _ => self.zipf.sample(t, rng),
        }
    }

    fn cardinality(&self) -> u64 {
        self.zipf.cardinality()
    }
}

impl Shape {
    /// A stationary stream: `rate` tuples a second over `keys` uniform keys.
    pub fn uniform(rate: f64, keys: u64) -> Shape {
        Shape {
            rate: RateProfile::Constant { rate },
            keys,
            alpha: (0.0, 0.0),
            drift_at: 0,
            churn: None,
            interned: false,
        }
    }

    /// The seeded stream, for batches of `interval`.
    pub fn source(&self, interval: Duration, seed: u64) -> Box<dyn TupleSource + Send> {
        let at = |batch: u64| Time(interval.0 * batch);
        let (a0, a1) = self.alpha;
        let zipf = AlphaDrift::new(self.keys, a0, a1, at(self.drift_at), at(self.drift_at + 1));
        let churn = self.churn.map(|(hot, mass, period)| {
            HotSetChurn::new(self.keys, hot, mass, Duration(interval.0 * period))
        });
        let from = at(self.drift_at);
        let keys = KeyModel::Timed(Box::new(Phases { zipf, churn, from }));
        let values = ValueModel::Uniform { lo: -2.0, hi: 3.0 };
        let stream = StreamGenerator::new(self.rate, keys, values, seed);
        match self.interned {
            true => Box::new(InternedSource::new(stream)),
            false => Box::new(stream),
        }
    }
}

/// One point of the configuration space.
#[derive(Clone, Debug)]
pub struct Case {
    pub seed: u64,
    pub shape: Shape,
    /// Its `checkpoint`, when set, names a placeholder directory: [`run`]
    /// gives every run a fresh one.
    pub cfg: EngineConfig,
    pub technique: Technique,
    pub batches: usize,
    /// Window length and slide, in batches.
    pub window: (u64, u64),
    pub op: ReduceOp,
    pub stateful: bool,
    /// `with_fault_tolerance`'s recovery budget and fault plan.
    pub recovery: Option<(usize, FaultPlan)>,
    pub kills: NetFaultPlan,
}

impl Case {
    /// `shape` through `cfg`: Prompt, a 3/1 sliding Sum, no attachment.
    pub fn new(shape: Shape, cfg: EngineConfig, batches: usize) -> Case {
        Case {
            seed: 11,
            shape,
            cfg,
            technique: Technique::Prompt,
            batches,
            window: (3, 1),
            op: ReduceOp::Sum,
            stateful: false,
            recovery: None,
            kills: NetFaultPlan::none(),
        }
    }

    /// The case seed `seed` draws.
    #[allow(deprecated)] // draws `columnar`, which must change nothing
    pub fn draw(seed: u64) -> Case {
        let mut d = Draw(seed);
        let batches = d.pick(&[6, 8, 10]);
        let seqs = |d: &mut Draw| d.below(batches) as u64;
        // Distributed cases cost a process launch each: one in five.
        let backend = match d.below(5) {
            0 => Backend::Distributed {
                workers: d.pick(&[2, 3]),
                base_port: 0,
            },
            1 | 2 => Backend::Threaded {
                threads: d.pick(&[2, 3]),
            },
            _ => Backend::InProcess,
        };
        let workers = match backend {
            Backend::Distributed { workers, .. } => workers,
            _ => 1,
        };
        let shape = Shape {
            rate: RateProfile::Ramp {
                start: d.pick(&[300.0, 800.0, 1500.0]),
                slope: d.pick(&[0.0, 0.0, 150.0]),
            },
            keys: d.pick(&[8, 200, 3000]),
            alpha: (d.pick(&[0.0, 0.8, 1.5]), d.pick(&[0.0, 1.0, 1.8])),
            drift_at: seqs(&mut d),
            churn: d
                .one_in(3)
                .then(|| (d.pick(&[1, 3]), d.pick(&[0.4, 0.7]), d.pick(&[2, 3]))),
            interned: d.one_in(4),
        };
        // The scaler may not shrink the task counts below the fleet: every
        // worker then owns a Map block, so a kill is detected in the batch
        // it fires in.
        let mut reduce_tasks = 1 + d.below(5);
        let mut elasticity = d.one_in(4).then(|| ScalerConfig {
            d: d.pick(&[1, 2, 3]),
            min_tasks: workers,
            max_tasks: 8,
            ..ScalerConfig::default()
        });
        let mut rebalance = match d.below(4) {
            0 => RebalanceSpec::Auto(RebalanceConfig {
                n_groups: d.pick(&[8, 24]),
                trigger: d.pick(&[1.1, 1.25]),
                min_dwell: d.pick(&[1, 2]),
                max_moves: d.pick(&[1, 4]),
                ..RebalanceConfig::default()
            }),
            _ => RebalanceSpec::Off,
        };
        if elasticity.is_some() {
            reduce_tasks = reduce_tasks.max(workers);
        }
        if elasticity.is_some() && !rebalance.is_off() {
            // Refused: the one pair `EngineConfig::validate` refuses — the
            // routing table is sized to `reduce_tasks`, and nothing re-lays
            // it out when the scaler moves the count (ROADMAP item 14).
            match d.one_in(2) {
                true => rebalance = RebalanceSpec::Off,
                false => elasticity = None,
            }
        }
        let candidates = d.pick(&[2, 3]);
        let policy = match d.below(4) {
            0 => PolicySpec::Adaptive(AdaptiveConfig {
                candidates: d
                    .distinct(candidates, 8)
                    .iter()
                    .map(|&i| TECHNIQUES[i])
                    .collect(),
                min_dwell: d.pick(&[1, 2]),
                margin: d.pick(&[0.0, 0.05]),
                ..AdaptiveConfig::default()
            }),
            1 => {
                let (a, b) = (d.pick(&TECHNIQUES), d.pick(&TECHNIQUES));
                let switch = seqs(&mut d) as usize;
                PolicySpec::Forced(
                    (0..batches)
                        .map(|s| if s < switch { a } else { b })
                        .collect(),
                )
            }
            _ => PolicySpec::Fixed(Technique::Prompt),
        };
        let interval = d.pick(&[Duration::from_secs(1), Duration::from_millis(500)]);
        let checkpoint = d.one_in(3).then(|| {
            let ckpt = CheckpointConfig::new("set by run").interval(d.pick(&[1, 2, 3]));
            ckpt.snapshot_every(d.pick(&[2, 8]))
        });
        let stateful = d.one_in(3);
        let state_on = stateful || checkpoint.is_some();
        let pipeline_depth = d.pick(&[1, 2, 4]);
        let cfg = EngineConfig {
            batch_interval: interval,
            map_tasks: workers.max(1 + d.below(6)),
            reduce_tasks,
            cluster: d.pick(&[Cluster::new(2, 4), Cluster::new(1, 2), Cluster::new(4, 2)]),
            cost: d.pick(&[CostModel::default(), CostModel::default().scaled(300.0)]),
            // `OverheadMode::Measured` is never drawn: it charges the
            // partitioner's wall-clock time, which no two runs share.
            overhead: d.pick(&[
                OverheadMode::None,
                OverheadMode::Fixed(Duration::from_millis(80)),
            ]),
            backpressure_queue: d.pick(&[2.0, 0.5]),
            elasticity,
            ingest_shards: d.pick(&[1, 2, 4]),
            ingest_threads: d.pick(&[1, 2]),
            trace: d.pick(&[TraceLevel::Off, TraceLevel::Summary, TraceLevel::Full]),
            backend,
            checkpoint,
            pipeline_depth,
            policy,
            rebalance,
            columnar: d.one_in(2),
        };
        // Scheduled losses stay within the budget (only kills may exceed
        // it), so a store loss precedes the state loss it would otherwise
        // replay past its last replica.
        let recovery = d.one_in(2).then(|| {
            let budget = d.pick(&[1, 2, 3]);
            let at = d.distinct(2, batches);
            let mut plan = FaultPlan::none();
            if state_on && d.one_in(2) {
                plan = plan.lose_store_at(at[0] as u64);
            }
            if d.one_in(2) {
                plan = plan.lose_times(at[1] as u64, 1 + d.below(budget));
            }
            (budget, plan)
        });
        let mut kills = NetFaultPlan::none();
        if workers > 1 && d.one_in(2) {
            let (seq, n) = (seqs(&mut d), 1 + d.below(workers - 1));
            for w in d.distinct(n, workers) {
                kills = match d.one_in(2) {
                    true => kills.kill_before(seq, w as u32),
                    false => kills.kill_after_map(seq, w as u32),
                };
            }
        }
        // Where a retired straggler axis drew: its draws stay, so no later field moves.
        if d.one_in(3) {
            (0..4).for_each(|_| _ = d.below(2));
        }
        let len = 1 + d.below(4) as u64;
        let case = Case {
            seed,
            shape,
            cfg,
            technique: d.pick(&TECHNIQUES),
            batches,
            window: (len, d.pick(&[1, len])),
            op: d.pick(&[ReduceOp::Sum, ReduceOp::Count, ReduceOp::Max, ReduceOp::Min]),
            stateful,
            recovery,
            kills: settled(kills, pipeline_depth),
        };
        case.cfg
            .validate()
            .expect("the generator draws valid configs");
        case
    }

    /// The recovery budget one execution's worker losses spend.
    fn budget(&self) -> usize {
        match (&self.recovery, self.cfg.backend) {
            (Some((budget, _)), _) => *budget,
            (None, Backend::Distributed { workers, .. }) => workers.max(2),
            (None, _) => 2,
        }
    }

    /// Whether the run must end in the typed "beyond recovery budget"
    /// abort: one batch's kills exceed the budget.
    pub fn aborts(&self) -> bool {
        self.kills.kills.len() > self.budget()
    }

    /// This case with every wall-clock-only knob at its serial value and no
    /// worker killed: what [`check`]'s first equality compares against. The
    /// deprecated ingest geometry is one of those knobs, whatever technique
    /// may run: the batching phase is one serial accumulator.
    #[allow(deprecated)]
    pub fn serial(&self) -> Case {
        let mut case = self.clone();
        case.cfg.backend = Backend::InProcess;
        case.cfg.trace = TraceLevel::Off;
        case.cfg.columnar = false;
        (case.cfg.ingest_shards, case.cfg.ingest_threads) = (1, 1);
        case.kills = NetFaultPlan::none();
        case
    }

    /// `run`'s depth-1 serial replay, forced through its technique sequence
    /// and its migration log. A forced run reads no constructor technique,
    /// so the replay is built on one `run` did not start on: a replay path
    /// that reads it instead of a batch's own shows up.
    pub fn forced(&self, run: &RunResult) -> Case {
        let mut case = self.serial();
        case.cfg.pipeline_depth = 1;
        if !self.cfg.policy.is_fixed() {
            let techniques = run.batches.iter().map(|b| b.technique).collect();
            case.cfg.policy = PolicySpec::Forced(techniques);
            case.technique = match self.technique {
                Technique::Hash => Technique::Shuffle,
                _ => Technique::Hash,
            };
        }
        if let Some(n_groups) = self.cfg.rebalance.n_groups() {
            let plans = run.migrations.clone();
            case.cfg.rebalance = RebalanceSpec::Forced { n_groups, plans };
        }
        case
    }

    fn engine(&self) -> StreamingEngine {
        let interval = self.cfg.batch_interval;
        let (len, slide) = (self.window.0 * interval.0, self.window.1 * interval.0);
        let job = Job::identity("oracle", self.op);
        let cfg = self.cfg.clone();
        let mut engine = StreamingEngine::new(cfg, self.technique, self.seed % 97, job)
            .with_window(WindowSpec::sliding(Duration(len), Duration(slide)))
            .with_net_faults(self.kills.clone());
        if self.stateful {
            engine = engine.with_stateful(StatefulOp::SessionCount);
        }
        if let Some((budget, plan)) = &self.recovery {
            engine = engine.with_fault_tolerance(*budget, plan.clone());
        }
        engine
    }
}

/// Kills on one batch reach one execution together — except, at depth > 1,
/// a pre-map and a post-map kill, which may surface while different batches
/// are awaited. Those take one fault point, so whether the budget is
/// exceeded never depends on timing.
fn settled(mut kills: NetFaultPlan, depth: usize) -> NetFaultPlan {
    if depth > 1 {
        if let Some(point) = kills.kills.first().map(|k| k.point) {
            kills.kills.iter_mut().for_each(|k| k.point = point);
        }
    }
    kills
}

/// Point the engine's worker-binary resolution at the freshly built
/// `prompt-worker` before any runtime launches.
pub fn ensure_worker_bin() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        std::env::set_var("PROMPT_WORKER_BIN", env!("CARGO_BIN_EXE_prompt-worker"));
    });
}

/// A checkpoint directory no other run uses.
pub fn fresh_dir(tag: &str) -> std::path::PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("prompt-{tag}-{}-{n}", std::process::id()))
}

/// Run `case` on its own thread, in a fresh checkpoint directory, under a
/// wall-clock bound — a swallowed completion fails the case instead of
/// hanging the suite. `Err` carries an abort's panic message.
pub fn run(case: &Case) -> Result<(RunResult, TraceRecorder), String> {
    ensure_worker_bin();
    let (mut case, dir) = (case.clone(), fresh_dir("oracle"));
    if let Some(ckpt) = case.cfg.checkpoint.as_mut() {
        ckpt.dir = dir.clone();
    }
    let (tx, rx) = std::sync::mpsc::channel();
    let worker = std::thread::spawn(move || {
        let mut source = case.shape.source(case.cfg.batch_interval, case.seed);
        let _ = tx.send(case.engine().run_traced(source.as_mut(), case.batches));
    });
    let outcome = match rx.recv_timeout(std::time::Duration::from_secs(25)) {
        Ok(done) => Ok(done),
        Err(std::sync::mpsc::RecvTimeoutError::Timeout) => panic!("hung (25 s bound)"),
        Err(_) => Err(match worker.join() {
            Err(panic) => panic_message(panic),
            Ok(()) => "the run sent no result".into(),
        }),
    };
    let _ = std::fs::remove_dir_all(&dir);
    outcome
}

/// What a panic said.
pub fn panic_message(panic: Box<dyn std::any::Any + Send>) -> String {
    let text = panic.downcast_ref::<&str>().map(|s| s.to_string());
    text.or_else(|| panic.downcast_ref::<String>().cloned())
        .unwrap_or_default()
}

/// [`run`] for a case that must not abort.
pub fn completed(case: &Case) -> (RunResult, TraceRecorder) {
    run(case).unwrap_or_else(|why| panic!("aborted: {why}"))
}

/// The property. Panics, naming the half that failed, when `case` breaks it.
pub fn check(case: &Case) {
    let outcome = run(case);
    if case.aborts() {
        let why = outcome.expect_err("kills beyond the budget must abort");
        assert!(why.contains("beyond recovery budget"), "{why}");
        return;
    }
    let (got, rec) = outcome.unwrap_or_else(|why| panic!("aborted: {why}"));
    let (want, _) = completed(&case.serial());
    let diff = want.first_difference(&got);
    assert_eq!(diff, None, "(i) differs from its serial run");
    let killed = case.kills.kills.len() as u64;
    let losses = (got.worker_losses, got.recoveries);
    assert_eq!(losses, (killed, want.recoveries + killed), "(i) losses");
    assert_eq!(got.net.map_or(0, |n| n.workers_lost), killed, "(i) lost");
    let traced = rec.counter(Counter::WorkersLost);
    assert_eq!(traced, killed * rec.enabled() as u64, "(i) traced losses");
    if case.cfg.trace == TraceLevel::Full {
        assert_spans_tile(&got, &rec, case.cfg.batch_interval);
        assert_logs_traced(&got, &rec);
    }
    let cfg = &case.cfg;
    if cfg.pipeline_depth > 1 || !cfg.policy.is_fixed() || !cfg.rebalance.is_off() {
        let (replay, _) = completed(&case.forced(&got));
        if cfg.elasticity.is_some() {
            assert_answers_equal(&got, &replay, case.op);
        } else {
            let diff = got.first_difference(&with_evidence_of(&got, replay));
            assert_eq!(diff, None, "(ii) differs from its forced replay");
        }
    }
}

/// A forced replay is *given* its decisions, so its log carries no scores:
/// check that it made `run`'s decisions and scored nothing, then lend it
/// `run`'s evidence so the full comparison applies to everything else.
pub fn with_evidence_of(run: &RunResult, replay: RunResult) -> RunResult {
    let decided = |r: &RunResult| -> Vec<_> {
        let log = r.policy_decisions.iter();
        log.map(|d| (d.seq, d.technique, d.prev, d.switched))
            .collect()
    };
    assert_eq!(decided(run), decided(&replay), "(ii) replayed decisions");
    assert!(replay.policy_decisions.iter().all(|d| d.scores.is_empty()));
    RunResult {
        policy_decisions: run.policy_decisions.clone(),
        ..replay
    }
}

/// Answers only: windows and stateful emissions, by bits — except a `Sum`,
/// to within rounding. Under elasticity a batch runs under the task counts
/// its depth lets the scaler's lagged feedback set, and how a key's tuples
/// split across Map blocks decides how its floating sum rounds.
pub fn assert_answers_equal(want: &RunResult, got: &RunResult, op: ReduceOp) {
    let answers = |r: &RunResult| [r.windows.clone(), r.stateful.clone()];
    for (want, got) in answers(want).iter().zip(&answers(got)) {
        assert_eq!(want.len(), got.len(), "answers differ in number");
        for (a, b) in want.iter().zip(got) {
            let at = a.last_batch_seq;
            assert_eq!(
                (at, a.aggregates.len()),
                (b.last_batch_seq, b.aggregates.len())
            );
            for (key, &x) in &a.aggregates {
                let y = *b.aggregates.get(key).unwrap_or(&f64::NAN);
                let rounding = match op {
                    ReduceOp::Sum => 1e-9 * (1.0 + x.abs()),
                    _ => 0.0,
                };
                assert!(
                    (x - y).abs() <= rounding,
                    "answer at {at} for {key:?}: {x} != {y}"
                );
            }
        }
    }
}

/// Per batch, the `PROCESSING_KINDS` spans tile `[start, start +
/// processing]` with no gaps, whatever ran the batch and however execution
/// overlapped on the wall clock; the queue-wait span is the queue delay and
/// the accumulate span the batch interval.
pub fn assert_spans_tile(res: &RunResult, rec: &TraceRecorder, interval: Duration) {
    let events = rec.events();
    for b in &res.batches {
        let spans_of = |kind: StageKind| -> u64 {
            let of_batch = events.iter().filter(|e| {
                matches!(e, TraceEvent::Span { seq, kind: k, .. } if *seq == b.seq && *k == kind)
            });
            of_batch.map(|e| e.span_us()).sum()
        };
        let processing: u64 = PROCESSING_KINDS.iter().map(|&k| spans_of(k)).sum();
        let at = format!("batch {}", b.seq);
        assert_eq!(processing, b.processing.0, "{at}: processing spans");
        assert_eq!(spans_of(StageKind::QueueWait), b.queue_delay.0, "{at}");
        assert_eq!(spans_of(StageKind::Accumulate), interval.0, "{at}");
    }
}

/// The decision logs agree with the trace: one policy decision per batch,
/// naming the technique the batch ran, each switch a `PolicySwitch` event;
/// one `Rebalance` event per applied plan and one `GroupMigrate` per move;
/// the counters match.
pub fn assert_logs_traced(res: &RunResult, rec: &TraceRecorder) {
    let events = rec.events();
    let decisions = &res.policy_decisions;
    if !decisions.is_empty() {
        assert_eq!(decisions.len(), res.batches.len(), "one decision per batch");
        for (d, b) in decisions.iter().zip(&res.batches) {
            assert_eq!((d.seq, d.technique), (b.seq, b.technique));
            assert_eq!(d.switched, d.technique != d.prev, "batch {}", b.seq);
        }
    }
    let switches: Vec<_> = decisions.iter().filter(|d| d.switched).collect();
    let counted = (Counter::PolicyDecisions, Counter::PolicySwitches);
    let counts = (rec.counter(counted.0), rec.counter(counted.1));
    assert_eq!(counts, (decisions.len() as u64, switches.len() as u64));
    for d in switches {
        let traced = events.iter().any(|e| {
            matches!(e, TraceEvent::PolicySwitch { seq, from, to }
                if *seq == d.seq && *from == d.prev.label() && *to == d.technique.label())
        });
        assert!(traced, "the switch at batch {} is not traced", d.seq);
    }
    let moves: usize = res.migrations.iter().map(|(_, p)| p.moves.len()).sum();
    let counts = (
        rec.counter(Counter::Rebalances),
        rec.counter(Counter::GroupsMoved),
    );
    assert_eq!(counts, (res.migrations.len() as u64, moves as u64));
    for (seq, plan) in &res.migrations {
        let traced = events.iter().any(|e| {
            matches!(e, TraceEvent::Rebalance { seq: s, moves, .. }
                if s == seq && *moves == plan.moves.len() as u64)
        });
        assert!(traced, "the migration at batch {seq} is not traced");
        for mv in &plan.moves {
            let traced = events.iter().any(|e| {
                matches!(e, TraceEvent::GroupMigrate { seq: s, group, from, to, .. }
                    if s == seq && (*group, *from, *to) == (mv.group, mv.from, mv.to))
            });
            assert!(
                traced,
                "group {}'s move at batch {seq} is not traced",
                mv.group
            );
        }
    }
}
