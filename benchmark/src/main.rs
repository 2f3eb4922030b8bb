//! The repository's wall-clock end-to-end benchmark.
//!
//! `--workload NAME --seed N --seconds S --trace 0|1` runs one workload and
//! prints every metric as `workload name value unit`, then one JSON object
//! on the last line. With `--trace 0` it measures the end-to-end metrics
//! from `StreamingEngine::run` at `TraceLevel::Off`; with `--trace 1` it
//! also replays the same input through each layer by hand (see `trace`) and
//! reports the per-layer metrics. Without `--workload` it runs every
//! workload both ways, each in a process of its own so that peak memory is
//! per workload, and writes `results/latest.json`.

mod json;
mod measure;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use prompt_engine::prelude::{Backend, RunResult, TraceLevel, TraceRecorder};

use json::Json;
use measure::{
    cpu_now, host_factor, host_factors, host_ref_ms, median, ms_between, peak_rss_mb, percentile,
    samples_beyond, ticks_to_s, HostKernel,
};
use trace::{traced_pass, TracePass, PROBE_EVERY};
use workloads::{
    window_digest, Digest, Pool, Reference, ReplaySource, Workload, WARMUP_BATCHES, WORKLOADS,
};

/// `run_seconds` of `BENCHMARK.json`, used when `--seconds` is not given.
const DEFAULT_SECONDS: u64 = 20;
const DEFAULT_SEED: u64 = 7;
/// Set-up is repeated and its median reported: it is short, so one sample
/// would be noisy.
const SETUP_REPEATS: usize = 3;
/// Measured batches per throughput segment.
const SEGMENT_BATCHES: usize = 20;
/// Batches on each side of a batch whose host-speed samples set its factor.
const FACTOR_WINDOW: usize = 5;
/// Batches the traced pass replays by hand.
const TRACED_BATCHES: u64 = 16;
/// Measured batches of the two engine runs (tracing off, tracing full) that
/// frame the traced pass.
const TRACE_RUN_BATCHES: usize = 32;

/// End-to-end metrics: (name, unit). `BENCHMARK.json` lists the same.
const END_TO_END: [(&str, &str); 6] = [
    ("tuples_per_s", "tuples/s"),
    ("batch_ms_p50", "ms"),
    ("batch_ms_p90", "ms"),
    ("cpu_s_per_mtuple", "cpu_s/Mtuple"),
    ("peak_rss_mb", "MiB"),
    ("setup_s", "s"),
];

/// Per-layer metrics: (name, unit), grouped by the module they time.
const PER_LAYER: [(&str, &str); 70] = [
    // the host the run happened on (see `measure::host_factors`)
    ("host.kernel_ms", "ms"),
    ("host.speed_factor", "ratio"),
    ("host.raw_batch_ms_p50", "ms"),
    // prompt-workloads (the generator's cost, subtractable)
    ("source.fill_ms", "ms"),
    ("source.tuples", "count"),
    // core::batch
    ("batch.distinct_keys_ms", "ms"),
    // core::buffering (Algorithm 1)
    ("buffering.ingest_ms", "ms"),
    ("buffering.seal_ms", "ms"),
    ("buffering.seal_columnar_ms", "ms"),
    ("buffering.tree_updates_per_tuple", "1/tuple"),
    ("buffering.keys", "count"),
    // core::partitioner (Algorithm 2)
    ("partitioner.partition_ms", "ms"),
    ("partitioner.assign_ms", "ms"),
    ("partitioner.partition_columnar_ms", "ms"),
    ("partitioner.fragments", "count"),
    ("partitioner.split_keys", "count"),
    ("partitioner.bsi", "tuples"),
    ("partitioner.bci", "keys"),
    ("partitioner.ksr", "ratio"),
    ("partitioner.mpi", "score"),
    // core::metrics
    ("metrics.plan_metrics_ms", "ms"),
    // core::reduce (Algorithm 3)
    ("reduce.allocate_ms", "ms"),
    ("reduce.clusters", "count"),
    ("reduce.bucket_imbalance", "tuples"),
    // engine::stage
    ("stage.execute_ms", "ms"),
    ("stage.execute_columnar_ms", "ms"),
    ("stage.out_keys", "count"),
    // engine::threaded
    ("threaded.execute_ms", "ms"),
    ("threaded.map_ms", "ms"),
    ("threaded.shuffle_ms", "ms"),
    ("threaded.reduce_ms", "ms"),
    ("threaded.speedup_vs_stage", "ratio"),
    // engine::net::wire
    ("wire.encode_ms", "ms"),
    ("wire.encode_columnar_ms", "ms"),
    ("wire.decode_ms", "ms"),
    ("wire.bytes", "bytes"),
    ("wire.bytes_raw", "bytes"),
    // engine::net
    ("net.execute_ms", "ms"),
    ("net.launch_ms", "ms"),
    ("net.shutdown_ms", "ms"),
    ("net.bytes_sent", "bytes/batch"),
    ("net.bytes_received", "bytes/batch"),
    ("net.frames", "1/batch"),
    ("net.shuffle_bytes_wire", "bytes/batch"),
    ("net.shuffle_wait_ms", "ms/batch"),
    ("net.conns_dialed", "count"),
    ("net.conns_reused", "count"),
    ("net.workers_lost", "count"),
    ("net.worker_cpu_s", "cpu_s/batch"),
    ("net.driver_cpu_s", "cpu_s/batch"),
    // engine::window
    ("window.push_ms", "ms"),
    ("window.emitted", "count"),
    ("window.keys", "count"),
    // engine::state
    ("state.push_ms", "ms"),
    ("state.checkpoint_ms", "ms"),
    ("state.snapshot_ms", "ms"),
    ("state.restore_ms", "ms"),
    ("state.commits", "count"),
    ("state.snapshots", "count"),
    ("state.checkpoint_bytes", "bytes/commit"),
    ("state.snapshot_bytes", "bytes/snapshot"),
    ("state.keys", "count"),
    // engine::driver (arithmetic over the untraced run and the traced pass)
    ("driver.layers_sum_ms", "ms"),
    ("driver.self_ms", "ms"),
    ("driver.unaccounted_pct", "%"),
    ("driver.overlap_pct", "%"),
    ("driver.drain_ms", "ms"),
    // engine::trace
    ("trace.full_overhead_pct", "%"),
    ("trace.events", "count"),
    ("trace.jsonl_bytes", "bytes"),
];

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    quick: bool,
    results_dir: PathBuf,
}

fn usage() -> String {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    format!(
        "usage: run.sh [--workload {}] [--seed N] [--seconds S] [--trace 0|1] [--quick]",
        names.join("|")
    )
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        quick: false,
        results_dir: PathBuf::from("benchmark/results"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or(format!("{flag} needs a value\n{}", usage()))
        };
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=60).contains(&args.seconds) {
                    return Err("--seconds must be 1..=60".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
                }
            }
            "--results-dir" => args.results_dir = PathBuf::from(value()?),
            "--quick" => args.quick = true,
            "--help" | "-h" => return Err(usage()),
            other => return Err(format!("unknown argument {other:?}\n{}", usage())),
        }
    }
    Ok(args)
}

/// A directory for checkpoint files, inside the results directory (the
/// benchmark writes nowhere else) and removed on drop, panics included.
struct Scratch(PathBuf);

impl Scratch {
    fn new(results_dir: &Path) -> Scratch {
        let dir = results_dir.join(format!("tmp-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create scratch directory");
        Scratch(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The worker binary `zipf_dist` spawns: `PROMPT_WORKER_BIN`, or the one
/// this package builds next to the bench executable. The engine would fall
/// back to in-process threads without one; the benchmark refuses to.
fn pin_worker_binary() -> Result<(), String> {
    let path = match std::env::var("PROMPT_WORKER_BIN") {
        Ok(p) if !p.is_empty() => PathBuf::from(p),
        _ => std::env::current_exe()
            .map_err(|e| format!("locate the bench executable: {e}"))?
            .with_file_name(format!("prompt-worker{}", std::env::consts::EXE_SUFFIX)),
    };
    if !path.is_file() {
        return Err(format!("no worker binary at {}", path.display()));
    }
    std::env::set_var("PROMPT_WORKER_BIN", &path);
    Ok(())
}

/// One `StreamingEngine::run` over a replay of the pool.
struct EngineRun {
    /// The source's clock readings and host-speed samples, one per `fill`.
    entered: Vec<Instant>,
    stamps: Vec<Instant>,
    kernel_ms: Vec<f64>,
    returned: Instant,
    result: RunResult,
    recorder: TraceRecorder,
    /// CPU seconds of this process and its reaped workers across the run.
    cpu_s: f64,
}

fn engine_run(
    w: &Workload,
    pool: &Pool,
    batches: usize,
    level: TraceLevel,
    scratch: &Path,
) -> EngineRun {
    let checkpoint_dir = scratch.join("engine");
    let mut engine = w.engine(&checkpoint_dir, level);
    let mut source = ReplaySource::new(pool);
    let before = cpu_now();
    let (result, recorder) = engine.run_traced(&mut source, batches);
    let returned = Instant::now();
    let after = cpu_now();
    let _ = std::fs::remove_dir_all(&checkpoint_dir);
    if matches!(w.backend, Backend::Distributed { .. }) {
        assert!(
            after.children > before.children,
            "worker processes used no CPU time: the run fell back to in-process threads"
        );
    }
    EngineRun {
        entered: source.entered,
        stamps: source.stamps,
        kernel_ms: source.kernel_ms,
        returned,
        result,
        recorder,
        cpu_s: ticks_to_s((after.own - before.own) + (after.children - before.children)),
    }
}

impl EngineRun {
    /// Time (ms) to absorb each measured batch, as the clock read it: from
    /// the `fill` that delivered batch `WARMUP + i` to the engine asking for
    /// the next one. A run has one cool-down batch after the last measured
    /// one, whose `fill` ends the last of these.
    fn raw_batch_ms(&self) -> Vec<f64> {
        (WARMUP_BATCHES..self.stamps.len() - 1)
            .map(|i| ms_between(self.stamps[i], self.entered[i + 1]))
            .collect()
    }

    /// `raw_batch_ms` at the calibration host's nominal speed: each batch
    /// divided by the host factor around it.
    fn batch_ms(&self) -> Vec<f64> {
        let factors = host_factors(&self.kernel_ms, FACTOR_WINDOW);
        self.raw_batch_ms()
            .iter()
            .zip(&factors[WARMUP_BATCHES..])
            .map(|(ms, f)| ms / f)
            .collect()
    }

    fn batch_ms_p50(&self) -> f64 {
        percentile(self.batch_ms(), 50.0)
    }

    fn host_factor(&self) -> f64 {
        host_factor(&self.kernel_ms)
    }
}

/// Generate the input and the reference, then run `measured` batches after
/// the warm-up (plus the cool-down batch). Returns the run and the set-up
/// time: from here to the first measured `fill`, at nominal host speed.
fn set_up_and_run(
    w: &Workload,
    seed: u64,
    measured: usize,
    level: TraceLevel,
    scratch: &Path,
) -> (Pool, Reference, EngineRun, f64) {
    let started = Instant::now();
    // Host-speed samples from before the input exists, to go with the ones
    // the warm-up `fill`s take.
    let mut kernel = HostKernel::new();
    let mut kernel_ms: Vec<f64> = (0..3).map(|_| kernel.run_ms()).collect();
    drop(kernel);
    let pool = Pool::generate(w, seed);
    let reference = Reference::build(&pool, w.op, w.window);
    let run = engine_run(w, &pool, WARMUP_BATCHES + measured + 1, level, scratch);
    kernel_ms.extend(&run.kernel_ms[..=WARMUP_BATCHES]);
    let setup_s = ms_between(started, run.entered[WARMUP_BATCHES]) / host_factor(&kernel_ms) / 1e3;
    (pool, reference, run, setup_s)
}

/// Operations attempted and failed: batches and windows; wrong windows,
/// recoveries and lost workers.
struct Outcome {
    attempted: u64,
    failed: u64,
}

fn check_run(run: &EngineRun, reference: &mut Reference, measured: usize) -> Outcome {
    let batches = run.stamps.len() as u64;
    let wrong = reference.mismatches(&run.result.windows, batches);
    Outcome {
        attempted: measured as u64 + run.result.windows.len() as u64,
        failed: wrong + run.result.recoveries + run.result.worker_losses,
    }
}

/// `--trace 0`: the end-to-end metrics.
fn run_end_to_end(w: &Workload, args: &Args, scratch: &Path) -> (Vec<f64>, Outcome) {
    let measured = if args.quick {
        8
    } else {
        w.measured_batches(args.seconds)
    };
    let repeats = if args.quick { 1 } else { SETUP_REPEATS };
    let mut setups = Vec::new();
    for _ in 1..repeats {
        let (_, _, _, setup_s) = set_up_and_run(w, args.seed, 0, TraceLevel::Off, scratch);
        setups.push(setup_s);
    }
    let (pool, mut reference, run, setup_s) =
        set_up_and_run(w, args.seed, measured, TraceLevel::Off, scratch);
    setups.push(setup_s);

    let batch_ms = run.batch_ms();
    assert_eq!(batch_ms.len(), measured, "one time per measured batch");
    // Throughput is the median over consecutive segments of the run, so
    // that a burst of noise shorter than half the run does not move it.
    let segment = SEGMENT_BATCHES.min(measured);
    let rates: Vec<f64> = batch_ms
        .chunks_exact(segment)
        .enumerate()
        .map(|(i, chunk)| {
            let first = (WARMUP_BATCHES + i * segment) as u64;
            let tuples = pool.tuples_in(first..first + segment as u64);
            tuples as f64 / (chunk.iter().sum::<f64>() / 1e3)
        })
        .collect();
    let all_tuples = pool.tuples_in(0..run.stamps.len() as u64);
    eprintln!(
        "{}: {measured} measured batches, {} beyond the p90; host factor {:.3}, \
         batch_ms_p50 as the clock read it {:.2} ms",
        w.name,
        samples_beyond(measured, 90.0),
        run.host_factor(),
        percentile(run.raw_batch_ms(), 50.0),
    );
    let values = vec![
        median(&rates),
        percentile(batch_ms.clone(), 50.0),
        percentile(batch_ms, 90.0),
        run.cpu_s / run.host_factor() / (all_tuples as f64 / 1e6),
        peak_rss_mb(),
        median(&setups),
    ];
    (values, check_run(&run, &mut reference, measured))
}

/// `--trace 1`: the per-layer metrics. An untraced engine run gives the
/// batch time the layers must add up to, the traced pass gives the layers,
/// and a fully traced engine run over the same batches gives the tracing
/// overhead.
fn run_per_layer(w: &Workload, args: &Args, scratch: &Path) -> (Vec<f64>, Outcome) {
    let (measured, traced) = if args.quick {
        (4, PROBE_EVERY)
    } else {
        (TRACE_RUN_BATCHES, TRACED_BATCHES)
    };
    let (pool, mut reference, mut off, _) =
        set_up_and_run(w, args.seed, measured, TraceLevel::Off, scratch);
    let mut outcome = check_run(&off, &mut reference, measured);
    // Keep fingerprints, not the window results themselves: what one phase
    // leaves on the heap slows the next one's allocations by several percent.
    let engine_windows: Vec<(u64, Digest)> = off
        .result
        .windows
        .iter()
        .filter(|r| r.last_batch_seq < traced)
        .map(window_digest)
        .collect();
    off.result = RunResult::default();

    let pass = traced_pass(w, &pool, scratch, traced);
    // The hand pipeline must be the same computation as the engine's.
    outcome.attempted += pass.windows.len() as u64;
    if pass.windows != engine_windows {
        eprintln!(
            "{}: the traced pass's windows differ from the engine's",
            w.name
        );
        outcome.failed += pass.windows.len() as u64;
    }

    let full = engine_run(w, &pool, off.stamps.len(), TraceLevel::Full, scratch);
    let full_outcome = check_run(&full, &mut reference, measured);
    outcome.attempted += full_outcome.attempted;
    outcome.failed += full_outcome.failed;

    let trace_file = args.results_dir.join(format!("trace_{}.jsonl", w.name));
    pass.tracer
        .write_jsonl(w.name, &trace_file)
        .expect("write the span file");
    (per_layer_values(&pass, &off, &full), outcome)
}

/// Every per-layer metric, in `PER_LAYER` order. Durations and CPU times
/// are at nominal host speed: divided by the host factor of the pass they
/// were measured in (the span file keeps the clock's own readings).
fn per_layer_values(pass: &TracePass, off: &EngineRun, full: &EngineRun) -> Vec<f64> {
    let span_ms = |name: &str| median(&pass.tracer.durations_ms(name));
    let p50 = off.batch_ms_p50();
    // Per batch, the root span minus its self time is the time inside the
    // top-level layer calls.
    let layer_sums: Vec<f64> = pass
        .roots
        .iter()
        .map(|&root| pass.tracer.spans[root].ms() - pass.tracer.self_time_us(root) as f64 / 1e3)
        .collect();
    let layers_sum = median(&layer_sums) / pass.host_factor;
    let last_fill = *off.stamps.last().expect("the run filled batches");
    PER_LAYER
        .iter()
        .map(|&(name, _)| match name {
            "host.kernel_ms" => median(&off.kernel_ms),
            "host.speed_factor" => off.host_factor(),
            "host.raw_batch_ms_p50" => percentile(off.raw_batch_ms(), 50.0),
            "threaded.speedup_vs_stage" => span_ms("stage.execute") / span_ms("threaded.execute"),
            "window.emitted" => pass.windows.len() as f64,
            "driver.layers_sum_ms" => layers_sum,
            "driver.self_ms" => p50 - layers_sum,
            "driver.unaccounted_pct" => (p50 - layers_sum) / p50 * 100.0,
            "driver.overlap_pct" => ((1.0 - p50 / layers_sum) * 100.0).max(0.0),
            "driver.drain_ms" => ms_between(last_fill, off.returned) / off.host_factor(),
            "trace.full_overhead_pct" => (full.batch_ms_p50() - p50) / p50 * 100.0,
            "trace.events" => full.recorder.events().len() as f64,
            "trace.jsonl_bytes" => full.recorder.to_jsonl().len() as f64,
            _ => {
                let value = match (pass.values.get(name), name.strip_suffix("_ms")) {
                    (Some(values), _) => median(values),
                    (None, Some(span)) => span_ms(span),
                    (None, None) => panic!("no measurement for per-layer metric {name}"),
                };
                if name.ends_with("_ms") || name.ends_with("_cpu_s") {
                    value / pass.host_factor
                } else {
                    value
                }
            }
        })
        .collect()
}

/// Run one workload, print its metrics and the result line.
fn run_one(w: &Workload, args: &Args) -> ExitCode {
    if let Err(e) = pin_worker_binary() {
        eprintln!("error: {e}");
        return ExitCode::FAILURE;
    }
    std::fs::create_dir_all(&args.results_dir).expect("create results directory");
    let scratch = Scratch::new(&args.results_dir);
    let (specs, (values, outcome)): (&[(&str, &str)], _) = if args.trace {
        (&PER_LAYER, run_per_layer(w, args, &scratch.0))
    } else {
        (&END_TO_END, run_end_to_end(w, args, &scratch.0))
    };
    drop(scratch);
    for ((name, unit), value) in specs.iter().zip(&values) {
        println!("{} {name} {value} {unit}", w.name);
    }
    println!("{} ops {} count", w.name, outcome.attempted);
    println!("{} failed_ops {} count", w.name, outcome.failed);
    let metrics = Json::obj(specs.iter().zip(&values).map(|((name, unit), &value)| {
        (
            *name,
            Json::obj([("value", Json::Num(value)), ("unit", Json::str(*unit))]),
        )
    }));
    let correct = outcome.failed == 0;
    let line = Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Int(outcome.attempted)),
        ("failed", Json::Int(outcome.failed)),
        ("metrics", metrics),
    ]);
    println!("{}", line.render());
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// First line of a command's standard output, or "unknown".
fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            let line = info.lines().find(|l| l.starts_with("model name"))?;
            Some(line.split(':').nth(1)?.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Re-run this executable for one workload and one `--trace` value; echo
/// its metric lines and return its result line.
fn run_child(w: &Workload, args: &Args, trace: bool) -> Option<String> {
    let exe = std::env::current_exe().expect("locate the bench executable");
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", w.name])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--results-dir")
        .arg(&args.results_dir);
    if args.quick {
        cmd.arg("--quick");
    }
    // `output` waits for the child, so none outlives this call.
    let out = cmd
        .stderr(Stdio::inherit())
        .output()
        .expect("spawn a workload run");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let result = lines.pop().filter(|l| l.starts_with('{'))?.to_string();
    for line in lines {
        println!("{line}");
    }
    out.status.success().then_some(result)
}

/// Every workload, both ways, into `results/latest.json`.
fn run_all(args: &Args) -> ExitCode {
    std::fs::create_dir_all(&args.results_dir).expect("create results directory");
    let mut ok = true;
    let mut rows = Vec::new();
    for w in &WORKLOADS {
        let host_before = host_ref_ms();
        let end_to_end = run_child(w, args, false);
        let per_layer = run_child(w, args, true);
        let host_after = host_ref_ms();
        let drift = (host_after - host_before).abs() / host_before;
        println!("{} host_ref_ms {host_before} ms", w.name);
        if drift > 0.10 {
            println!(
                "warning: {}: the host's speed changed by {:.0}% during this workload \
                 (host_ref_ms {host_before:.1} -> {host_after:.1}); compare its numbers with care",
                w.name,
                drift * 100.0
            );
        }
        ok &= end_to_end.is_some() && per_layer.is_some();
        rows.push((
            w.name,
            Json::obj([
                ("host_ref_ms_before", Json::Num(host_before)),
                ("host_ref_ms_after", Json::Num(host_after)),
                ("end_to_end", end_to_end.map_or(Json::Null, Json::Raw)),
                ("per_layer", per_layer.map_or(Json::Null, Json::Raw)),
            ]),
        ));
    }
    let stamp = Json::obj([
        (
            "git_commit",
            Json::str(command_line("git", &["rev-parse", "HEAD"])),
        ),
        ("rustc", Json::str(command_line("rustc", &["-V"]))),
        (
            "nproc",
            Json::Int(std::thread::available_parallelism().map_or(0, |n| n.get() as u64)),
        ),
        ("cpu_model", Json::str(cpu_model())),
        ("build_profile", Json::str("release")),
        ("seed", Json::Int(args.seed)),
        ("seconds", Json::Int(args.seconds)),
        ("quick", Json::Bool(args.quick)),
    ]);
    let doc = Json::obj([("stamp", stamp), ("workloads", Json::obj(rows))]);
    let path = args.results_dir.join("latest.json");
    std::fs::write(&path, doc.render() + "\n").expect("write latest.json");
    println!("wrote {}", path.display());
    if ok {
        ExitCode::SUCCESS
    } else {
        eprintln!("error: at least one workload failed or produced a wrong output");
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    if cfg!(debug_assertions) {
        eprintln!("error: this is a debug build; the benchmark only measures release builds");
        return ExitCode::FAILURE;
    }
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::from(2);
        }
    };
    match &args.workload {
        None => run_all(&args),
        Some(name) => match Workload::by_name(name) {
            Some(w) => run_one(w, &args),
            None => {
                eprintln!("unknown workload {name:?}\n{}", usage());
                ExitCode::from(2)
            }
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric tables here and in `BENCHMARK.json` must agree: the
    /// driver rejects a result line whose metrics differ from the file's.
    #[test]
    fn benchmark_json_lists_the_same_metrics_and_workloads() {
        let file = include_str!("../../BENCHMARK.json");
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", ");
            assert!(file.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let listed = file.matches("\"unit\": ").count();
        assert_eq!(listed, END_TO_END.len() + PER_LAYER.len());
        for w in &WORKLOADS {
            assert!(file.contains(&format!("{{\"name\": \"{}\", \"why\": ", w.name)));
        }
        assert_eq!(file.matches("\"why\": ").count(), WORKLOADS.len());
        assert!(file.contains(&format!("\"run_seconds\": {DEFAULT_SECONDS},")));
    }

    #[test]
    fn metric_names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(&PER_LAYER).map(|m| m.0).collect();
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(name.len() <= 64 && unit.len() <= 16, "{name} {unit}");
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), END_TO_END.len() + PER_LAYER.len());
    }
}
