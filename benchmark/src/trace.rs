//! The traced pass: the driver's per-batch pipeline replayed by hand through
//! each layer's public functions, with an in-memory span around every call.
//!
//! Top-level spans are the calls the workload's configuration makes, in the
//! driver's order; they tile the batch. On every `PROBE_EVERY`-th batch,
//! *probe* spans additionally call the layers the configuration does not
//! use (and the sub-steps of those it does) in isolation on the same batch.
//! Probes decompose or complement their parent and never count in a sum.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

use prompt_core::batch::{MicroBatch, PartitionPlan, SealedBatch};
use prompt_core::buffering::{
    AccumulatorConfig, BatchAccumulator, FrequencyAwareAccumulator, ShardedAccumulator,
};
use prompt_core::columnar::ColumnarPlan;
use prompt_core::metrics::{size_imbalance, PlanMetrics};
use prompt_core::partitioner::{BufferingMode, Partitioner, PromptPartitioner, Technique};
use prompt_core::reduce::{allocate_reduce, ReduceAssigner};
use prompt_core::source::TupleSource;
use prompt_core::types::Tuple;
use prompt_engine::net::wire::encode_map_task_columnar;
use prompt_engine::net::Message;
use prompt_engine::prelude::{
    execute_batch, times_from_stats, Backend, BatchOutput, CheckpointConfig, Checkpointer, Cluster,
    CostModel, DistributedOptions, DistributedRuntime, Job, JobSpec, KeyedStateStore, LaunchMode,
    ReduceStrategy, ThreadedExecutor, TraceLevel, WindowResult, WindowState,
};
use prompt_engine::stage::execute_columnar_traced;
use prompt_engine::state::restore;

use crate::json::Json;
use crate::measure::{cpu_now, host_factor, ticks_to_s};
use crate::workloads::{
    interval_of, window_digest, Digest, Pool, ReplaySource, Workload, BATCH_INTERVAL, ENGINE_SEED,
    TASKS,
};

/// Probes run on every fourth traced batch: some cost several batch times
/// (Algorithm 1 on near-distinct keys, a round trip through the workers).
pub const PROBE_EVERY: u64 = 4;

/// Where a span sits: its batch, the span it ran inside or decomposes, and
/// whether it is a probe.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct At {
    pub seq: u64,
    pub parent: Option<usize>,
    pub probe: bool,
}

/// One timed call.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub at: At,
    pub start_us: u64,
    pub end_us: u64,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_us - self.start_us) as f64 / 1e3
    }
}

/// In-memory span recorder; written out once, when the pass has ended.
pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_us(&self) -> u64 {
        self.origin.elapsed().as_micros() as u64
    }

    /// Open a span; it ends at `close`.
    pub fn open(&mut self, name: &'static str, at: At) -> usize {
        let now = self.now_us();
        self.spans.push(Span {
            name,
            at,
            start_us: now,
            end_us: now,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: usize) {
        self.spans[id].end_us = self.now_us();
    }

    /// Move a span's start to a clock reading taken inside it.
    pub fn start_at(&mut self, id: usize, start: Instant) {
        self.spans[id].start_us = start.duration_since(self.origin).as_micros() as u64;
    }

    /// Time one call as a span.
    pub fn time<T>(&mut self, name: &'static str, at: At, f: impl FnOnce() -> T) -> (usize, T) {
        let id = self.open(name, at);
        let out = f();
        self.close(id);
        (id, out)
    }

    /// A span's duration minus the part of it its child spans cover. Probe
    /// children re-run work on the side and are not subtracted.
    pub fn self_time_us(&self, id: usize) -> u64 {
        let me = &self.spans[id];
        let mut children: Vec<(u64, u64)> = self
            .spans
            .iter()
            .filter(|s| s.at.parent == Some(id) && !s.at.probe)
            .map(|s| (s.start_us.max(me.start_us), s.end_us.min(me.end_us)))
            .filter(|(a, b)| a < b)
            .collect();
        children.sort_unstable();
        let mut covered = 0;
        let mut cursor = me.start_us;
        for (a, b) in children {
            let a = a.max(cursor);
            if b > a {
                covered += b - a;
                cursor = b;
            }
        }
        (me.end_us - me.start_us) - covered
    }

    /// Durations (ms) of every span called `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .collect()
    }

    /// One JSON object per span.
    pub fn write_jsonl(&self, workload: &str, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let line = Json::obj([
                ("id", Json::Int(id as u64)),
                ("name", Json::str(s.name)),
                ("workload", Json::str(workload)),
                ("seq", Json::Int(s.at.seq)),
                ("start_us", Json::Int(s.start_us)),
                ("end_us", Json::Int(s.end_us)),
                (
                    "parent",
                    s.at.parent.map_or(Json::Null, |p| Json::Int(p as u64)),
                ),
                ("probe", Json::Bool(s.at.probe)),
            ]);
            writeln!(out, "{}", line.render())?;
        }
        out.flush()
    }
}

/// What the traced pass measured.
pub struct TracePass {
    pub tracer: Tracer,
    /// Per-batch (or per-call) values of the metrics that are not span
    /// durations; each is reported as its median.
    pub values: BTreeMap<&'static str, Vec<f64>>,
    /// Window results of the hand pipeline (last batch and fingerprint), to
    /// compare with the engine's.
    pub windows: Vec<(u64, Digest)>,
    /// Ids of the per-batch root spans.
    pub roots: Vec<usize>,
    /// How much slower than nominal the host ran during the pass.
    pub host_factor: f64,
}

impl TracePass {
    fn note(&mut self, name: &'static str, value: f64) {
        self.values.entry(name).or_default().push(value);
    }
}

/// The partitioner `StreamingEngine::new` builds for this workload.
fn build_partitioner(w: &Workload) -> Box<dyn Partitioner> {
    if w.technique == Technique::Prompt && (w.ingest_shards > 1 || w.ingest_threads > 1) {
        Box::new(PromptPartitioner::with_parallelism(
            BufferingMode::FrequencyAware,
            w.ingest_shards,
            w.ingest_threads,
        ))
    } else {
        w.technique.build(ENGINE_SEED)
    }
}

fn build_assigner(w: &Workload) -> Box<dyn ReduceAssigner> {
    ReduceStrategy::for_technique(w.technique).build_boxed(ENGINE_SEED)
}

/// Launch real worker processes; never the in-process thread fallback.
fn launch_workers(workers: usize) -> DistributedRuntime {
    DistributedRuntime::launch(DistributedOptions {
        launch: LaunchMode::Process,
        ..DistributedOptions::new(workers, 0)
    })
    .expect("launch prompt-worker processes")
}

/// The three executors a batch can run on.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Exec {
    Stage,
    Threaded,
    Net,
}

/// The two places batch outputs can go.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Sink {
    Window,
    State,
}

/// Everything the pipeline and the probes run on, built once per pass.
struct Layers {
    cost: CostModel,
    cluster: Cluster,
    job: Job,
    spec: JobSpec,
    threads: usize,
    runtime: DistributedRuntime,
    window: WindowState,
    store: KeyedStateStore,
    checkpointer: Checkpointer,
    net_calls: u64,
    net_own_ticks: u64,
}

impl Layers {
    /// Run one executor on `plan` inside a span.
    fn execute(
        &mut self,
        pass: &mut TracePass,
        exec: Exec,
        at: At,
        plan: &PartitionPlan,
        assigner: &mut dyn ReduceAssigner,
    ) -> BatchOutput {
        let (cost, cluster) = (self.cost, self.cluster);
        match exec {
            Exec::Stage => {
                let (_, (out, _)) = pass.tracer.time("stage.execute", at, || {
                    execute_batch(plan, &self.job, assigner, TASKS, &cost, &cluster)
                });
                pass.note("stage.out_keys", out.len() as f64);
                out
            }
            Exec::Threaded => {
                let exec = ThreadedExecutor::new(self.threads);
                let (_, (out, wall)) = pass.tracer.time("threaded.execute", at, || {
                    let (out, stats, wall) =
                        exec.execute_with_stats(plan, &self.job, assigner, TASKS, None);
                    black_box(times_from_stats(plan, &stats, &cost, &cluster));
                    (out, wall)
                });
                pass.note("threaded.map_ms", wall.map.as_secs_f64() * 1e3);
                pass.note("threaded.shuffle_ms", wall.shuffle.as_secs_f64() * 1e3);
                pass.note("threaded.reduce_ms", wall.reduce.as_secs_f64() * 1e3);
                out
            }
            Exec::Net => {
                let before = cpu_now().own;
                let (_, out) = pass.tracer.time("net.execute", at, || {
                    let (out, stats) = self
                        .runtime
                        .execute_batch(at.seq, plan, &self.spec, assigner, TASKS, None)
                        .expect("a worker was lost in the traced pass");
                    black_box(times_from_stats(plan, &stats, &cost, &cluster));
                    out
                });
                self.net_own_ticks += cpu_now().own - before;
                self.net_calls += 1;
                out
            }
        }
    }

    /// Hand one batch output to a sink inside spans.
    fn sink(
        &mut self,
        pass: &mut TracePass,
        sink: Sink,
        at: At,
        output: BatchOutput,
    ) -> Option<WindowResult> {
        match sink {
            Sink::Window => {
                let (_, res) = pass
                    .tracer
                    .time("window.push", at, || self.window.push(output));
                if let Some(res) = &res {
                    pass.note("window.keys", res.aggregates.len() as f64);
                }
                res
            }
            Sink::State => {
                let (_, (res, delta)) = pass
                    .tracer
                    .time("state.push", at, || self.store.push_with_delta(&output));
                // Commits that write a full snapshot are a different
                // operation from delta appends; each gets its own span name.
                let id = pass.tracer.open("state.checkpoint", at);
                let commit = self
                    .checkpointer
                    .record(&delta, &self.store)
                    .expect("checkpoint write");
                pass.tracer.close(id);
                if commit.is_some_and(|c| c.snapshot) {
                    pass.tracer.spans[id].name = "state.snapshot";
                }
                pass.note("state.keys", self.store.key_count() as f64);
                res
            }
        }
    }
}

/// Replay `batches` batches of the pool through the layers by hand.
pub fn traced_pass(w: &Workload, pool: &Pool, scratch: &Path, batches: u64) -> TracePass {
    let mut pass = TracePass {
        tracer: Tracer::new(),
        values: BTreeMap::new(),
        windows: Vec::new(),
        roots: Vec::new(),
        host_factor: 1.0,
    };
    let cfg = w.engine_config(scratch, TraceLevel::Off);
    let job = w.job();
    let spec = job.wire_spec().expect("identity jobs are wire-expressible");
    let (top_exec, threads, workers) = match w.backend {
        Backend::InProcess => (Exec::Stage, 2, 2),
        Backend::Threaded { threads } => (Exec::Threaded, threads, 2),
        Backend::Distributed { workers, .. } => (Exec::Net, 2, workers),
    };
    let (top_sink, other_sink) = if w.checkpoint {
        (Sink::State, Sink::Window)
    } else {
        (Sink::Window, Sink::State)
    };
    // Spans outside any batch: a probe unless the workload uses the layer.
    let outside = |seq: u64, probe: bool| At {
        seq,
        parent: None,
        probe,
    };

    let children_before = cpu_now().children;
    let (_, runtime) = pass
        .tracer
        .time("net.launch", outside(0, top_exec != Exec::Net), || {
            launch_workers(workers)
        });
    let ckpt_dir = scratch.join("traced-pass");
    let ckpt_cfg = CheckpointConfig::new(&ckpt_dir)
        .interval(1)
        .snapshot_every(4);
    let mut layers = Layers {
        job,
        spec,
        threads,
        runtime,
        window: WindowState::new(w.window_spec(), BATCH_INTERVAL, w.op),
        store: KeyedStateStore::new(w.window_spec(), BATCH_INTERVAL, w.op, TASKS),
        checkpointer: Checkpointer::create(&ckpt_cfg).expect("open checkpoint directory"),
        net_calls: 0,
        net_own_ticks: 0,
        cost: cfg.cost,
        cluster: cfg.cluster,
    };
    let mut partitioner = build_partitioner(w);
    let mut assigner = build_assigner(w);
    // Probes advance assigners of their own: the pipeline's assigner is
    // stateful and must see each batch exactly once, as in the engine.
    let mut probe_partitioner = build_partitioner(w);
    let mut probe_assigners: Vec<Box<dyn ReduceAssigner>> =
        (0..4).map(|_| build_assigner(w)).collect();

    let mut source = ReplaySource::new(pool);
    let mut arrivals: Vec<Tuple> = Vec::new();
    for seq in 0..batches {
        let interval = interval_of(seq);
        let root = pass.tracer.open("batch", outside(seq, false));
        pass.roots.push(root);
        let top = At {
            seq,
            parent: Some(root),
            probe: false,
        };
        arrivals.clear();
        let (fill_span, ()) = pass
            .tracer
            .time("source.fill", top, || source.fill(interval, &mut arrivals));
        // As in the engine run, the calibration kernel at the head of `fill`
        // is no part of the batch: the span starts where the source stamped.
        let delivered = *source.stamps.last().expect("fill stamps the clock");
        pass.tracer.start_at(fill_span, delivered);
        let batch = MicroBatch::new(std::mem::take(&mut arrivals), interval);
        pass.note("source.tuples", batch.len() as f64);
        pass.tracer.time("batch.distinct_keys", top, || {
            black_box(batch.distinct_keys())
        });
        let (partition_span, plan) = pass.tracer.time("partitioner.partition", top, || {
            partitioner.partition(&batch, TASKS)
        });
        let (_, metrics) = pass
            .tracer
            .time("metrics.plan_metrics", top, || PlanMetrics::of(&plan));
        let output = layers.execute(&mut pass, top_exec, top, &plan, assigner.as_mut());
        // The probes below need the output after the sink has consumed it.
        let probing = seq % PROBE_EVERY == 0;
        let kept = probing.then(|| output.clone());
        if let Some(res) = layers.sink(&mut pass, top_sink, top, output) {
            pass.windows.push(window_digest(&res));
        }
        pass.tracer.close(root);

        pass.note("partitioner.fragments", plan.total_fragments() as f64);
        pass.note("partitioner.split_keys", plan.split_keys.len() as f64);
        pass.note("partitioner.bsi", metrics.bsi);
        pass.note("partitioner.bci", metrics.bci);
        pass.note("partitioner.ksr", metrics.ksr);
        pass.note("partitioner.mpi", metrics.mpi);

        if let Some(output) = kept {
            let probe = At { probe: true, ..top };
            let inside_partition = At {
                parent: Some(partition_span),
                ..probe
            };
            probe_partition(
                w,
                &mut pass,
                inside_partition,
                &batch,
                probe_partitioner.as_mut(),
            );
            let columnar = ColumnarPlan::from_row_plan(&plan);
            let (_, alloc) = pass.tracer.time("reduce.allocate", probe, || {
                allocate_reduce(&plan, probe_assigners[0].as_mut(), TASKS)
            });
            pass.note(
                "reduce.clusters",
                alloc.per_map.iter().map(Vec::len).sum::<usize>() as f64,
            );
            pass.note("reduce.bucket_imbalance", size_imbalance(&alloc.sizes()));
            for (i, exec) in [Exec::Stage, Exec::Threaded, Exec::Net]
                .into_iter()
                .enumerate()
            {
                if exec != top_exec {
                    let assigner = probe_assigners[1 + i].as_mut();
                    layers.execute(&mut pass, exec, probe, &plan, assigner);
                }
            }
            let (cost, cluster) = (layers.cost, layers.cluster);
            pass.tracer.time("stage.execute_columnar", probe, || {
                black_box(execute_columnar_traced(
                    &columnar,
                    &layers.job,
                    probe_assigners[0].as_mut(),
                    TASKS,
                    &cost,
                    &cluster,
                    None,
                ))
            });
            probe_wire(&mut pass, probe, &plan, &columnar, &layers.spec);
            layers.sink(&mut pass, other_sink, probe, output);
        }
        arrivals = batch.tuples;
    }

    pass.host_factor = host_factor(&source.kernel_ms);
    let stats = layers.runtime.stats();
    pass.tracer.time(
        "net.shutdown",
        outside(batches, top_exec != Exec::Net),
        || layers.runtime.shutdown(),
    );
    let worker_cpu_s = ticks_to_s(cpu_now().children - children_before);
    assert!(
        worker_cpu_s > 0.0,
        "worker processes used no CPU time: the run fell back to in-process threads"
    );
    let calls = layers.net_calls.max(1) as f64;
    pass.note("net.worker_cpu_s", worker_cpu_s / calls);
    pass.note("net.driver_cpu_s", ticks_to_s(layers.net_own_ticks) / calls);
    pass.note("net.bytes_sent", stats.bytes_sent as f64 / calls);
    pass.note("net.bytes_received", stats.bytes_received as f64 / calls);
    pass.note(
        "net.frames",
        (stats.frames_sent + stats.frames_received) as f64 / calls,
    );
    pass.note(
        "net.shuffle_bytes_wire",
        stats.shuffle_bytes_wire as f64 / calls,
    );
    pass.note(
        "net.shuffle_wait_ms",
        stats.shuffle_wait_us as f64 / 1e3 / calls,
    );
    pass.note("net.conns_dialed", stats.shuffle_conns_dialed as f64);
    pass.note("net.conns_reused", stats.shuffle_conns_reused as f64);
    pass.note("net.workers_lost", stats.workers_lost as f64);

    let ckpt = layers.checkpointer.stats();
    pass.note("state.commits", ckpt.commits as f64);
    pass.note("state.snapshots", ckpt.snapshots as f64);
    pass.note(
        "state.checkpoint_bytes",
        (ckpt.delta_bytes + ckpt.snapshot_bytes) as f64 / ckpt.commits.max(1) as f64,
    );
    pass.note(
        "state.snapshot_bytes",
        ckpt.snapshot_bytes as f64 / ckpt.snapshots.max(1) as f64,
    );
    drop(layers.checkpointer);
    pass.tracer.time(
        "state.restore",
        outside(batches, top_sink != Sink::State),
        || black_box(restore(&ckpt_dir).expect("restore the traced pass's checkpoint")),
    );
    pass
}

/// Decompose the partition call: Algorithm 1 (ingest, seal) and Algorithm 2
/// (assign and materialize) on their own, and the columnar twins.
fn probe_partition(
    w: &Workload,
    pass: &mut TracePass,
    at: At,
    batch: &MicroBatch,
    partitioner: &mut dyn Partitioner,
) {
    // The accumulator configuration `PromptPartitioner` seeds per batch.
    let acc_cfg = AccumulatorConfig {
        est_tuples: batch.len().max(1) as f64,
        ..AccumulatorConfig::default()
    };
    let sealed = if w.ingest_shards > 1 {
        let mut acc = ShardedAccumulator::new(acc_cfg, w.ingest_shards, batch.interval);
        probe_buffering(pass, at, batch, &mut acc, |acc| {
            acc.par_ingest(&batch.tuples, w.ingest_threads)
        })
    } else {
        let mut acc = FrequencyAwareAccumulator::new(acc_cfg, batch.interval);
        probe_buffering(pass, at, batch, &mut acc, |acc| {
            for &t in &batch.tuples {
                acc.ingest(t);
            }
        })
    };
    pass.tracer.time("partitioner.assign", at, || {
        black_box(if w.ingest_threads > 1 {
            PromptPartitioner::partition_sealed_par(&sealed, TASKS, w.ingest_threads)
        } else {
            PromptPartitioner::partition_sealed(&sealed, TASKS)
        })
    });
    pass.tracer.time("partitioner.partition_columnar", at, || {
        black_box(partitioner.partition_columnar(batch, TASKS))
    });
}

/// Ingest, seal, ingest again and seal into columns.
fn probe_buffering<A: BatchAccumulator>(
    pass: &mut TracePass,
    at: At,
    batch: &MicroBatch,
    acc: &mut A,
    ingest: impl Fn(&mut A),
) -> SealedBatch {
    pass.tracer.time("buffering.ingest", at, || ingest(acc));
    let stats = acc.stats();
    pass.note(
        "buffering.tree_updates_per_tuple",
        stats.tree_updates as f64 / stats.n_tuples.max(1) as f64,
    );
    pass.note("buffering.keys", stats.n_keys as f64);
    let (_, sealed) = pass
        .tracer
        .time("buffering.seal", at, || acc.seal(batch.interval));
    ingest(acc);
    pass.tracer.time("buffering.seal_columnar", at, || {
        black_box(acc.seal_columnar(batch.interval))
    });
    sealed
}

/// Encode and decode every block's Map task, row and columnar.
fn probe_wire(
    pass: &mut TracePass,
    at: At,
    plan: &PartitionPlan,
    columnar: &ColumnarPlan,
    spec: &JobSpec,
) {
    let tasks: Vec<Message> = plan
        .blocks
        .iter()
        .enumerate()
        .map(|(block_id, block)| Message::MapTask {
            seq: at.seq,
            epoch: 0,
            block_id: block_id as u32,
            job: *spec,
            block: block.clone(),
        })
        .collect();
    let (_, frames) = pass.tracer.time("wire.encode", at, || {
        tasks.iter().map(Message::encode).collect::<Vec<_>>()
    });
    pass.note(
        "wire.bytes",
        frames.iter().map(Vec::len).sum::<usize>() as f64,
    );
    pass.note(
        "wire.bytes_raw",
        tasks.iter().map(Message::v1_payload_len).sum::<usize>() as f64,
    );
    pass.tracer.time("wire.decode", at, || {
        for frame in &frames {
            black_box(Message::decode(frame).expect("decode a frame just encoded"));
        }
    });
    pass.tracer.time("wire.encode_columnar", at, || {
        for (block_id, block) in columnar.blocks.iter().enumerate() {
            black_box(encode_map_task_columnar(
                at.seq,
                0,
                block_id as u32,
                spec,
                &columnar.arena,
                block,
            ));
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>, probe: bool) -> Span {
        let at = At {
            seq: 0,
            parent,
            probe,
        };
        Span {
            name,
            at,
            start_us: start,
            end_us: end,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut t = Tracer::new();
        t.spans = vec![
            span("batch", 100, 1100, None, false),
            span("a", 100, 400, Some(0), false),
            // Overlaps `a` by 100 µs: the overlap is covered once.
            span("b", 300, 600, Some(0), false),
            span("c", 700, 1000, Some(0), false),
            // A probe re-runs work on the side; it covers nothing.
            span("p", 600, 700, Some(0), true),
            // A grandchild belongs to `a`, not to the root.
            span("a.inner", 150, 250, Some(1), false),
            // Clipped to the parent's interval.
            span("late", 1050, 1300, Some(0), false),
        ];
        // Covered: [100, 600) + [700, 1000) + [1050, 1100) = 850 of 1000.
        assert_eq!(t.self_time_us(0), 150);
        assert_eq!(t.self_time_us(1), 200);
        assert_eq!(t.self_time_us(3), 300);
        assert_eq!(t.durations_ms("c"), vec![0.3]);
    }

    #[test]
    fn timed_spans_nest_and_order() {
        let mut t = Tracer::new();
        let at = At {
            seq: 3,
            parent: None,
            probe: false,
        };
        let root = t.open("batch", at);
        let inside = At {
            parent: Some(root),
            ..at
        };
        let (child, value) = t.time("work", inside, || 7);
        t.close(root);
        assert_eq!(value, 7);
        assert_eq!(t.spans[child].at.parent, Some(root));
        assert!(t.spans[root].start_us <= t.spans[child].start_us);
        assert!(t.spans[child].end_us <= t.spans[root].end_us);
        assert!(t.self_time_us(root) <= t.spans[root].end_us - t.spans[root].start_us);
    }
}
