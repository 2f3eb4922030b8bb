//! Batch-lifecycle observability: a structured, low-overhead event sink.
//!
//! Every figure in §7 is derived from per-batch signals — partitioning
//! overhead, stage makespans, queue delay, `W` — but a flat end-of-run
//! [`BatchRecord`](crate::driver::BatchRecord) cannot answer *where inside a
//! batch* time went or *why* the controller acted. This module records the
//! full batch lifecycle as typed events:
//!
//! * **Spans** over virtual time — accumulate → queue wait → visible
//!   partitioning overhead → Map stage → Reduce stage → recovery
//!   recomputations. The spans of [`PROCESSING_KINDS`] laid end to end
//!   reconcile *exactly* with `BatchRecord::processing`; the integration
//!   tests assert that, so the trace layer carries its own differential
//!   safety net.
//! * **Phases** over wall-clock time — the batching phase's seal / symbolic
//!   assignment / materialization split, and the real Map / scatter / Reduce
//!   times of every backend that runs them. Informational only: wall time never feeds
//!   back into virtual time, so traced runs stay deterministic.
//! * **Decision events** — elasticity zone transitions, grace entry/exit,
//!   scale actions with their rate/key-trend evidence, recovery
//!   recomputations and back-pressure trips.
//!
//! # Recorder concurrency
//!
//! [`TraceRecorder`]'s recording methods take `&self`, so it can be shared
//! by reference across threads. Counters and per-stage histograms are plain
//! atomics (lock-free). The event log is one mutexed vector: every recording
//! call in the engine runs on the driver thread (the local executor's phases
//! are stamped after its joins; the fleet's reader threads hold no recorder),
//! so the lock is uncontended and lock order is recording order.
//!
//! # Sinks
//!
//! Three consumption paths, selected by [`TraceLevel`] in
//! [`EngineConfig`](crate::config::EngineConfig):
//!
//! * `Off` — every recording call is a cheap early return.
//! * `Summary` — counters + histograms only; [`TraceRecorder::summary`]
//!   yields per-stage counts, means and log₂-bucket percentiles, virtual
//!   spans and wall-clock phases apart.
//! * `Full` — additionally keeps the typed event log, exportable as
//!   JSON-lines ([`TraceRecorder::to_jsonl`], hand-rolled — the workspace
//!   has no serde) and re-importable with [`parse_jsonl`] (the bench
//!   harness consumes this to render per-stage breakdowns).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use prompt_core::types::{Duration, Time};

use crate::state::CompactorTimes;

/// How much the recorder keeps.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum TraceLevel {
    /// Record nothing; every call is a cheap early return.
    #[default]
    Off,
    /// Counters and per-stage histograms only.
    Summary,
    /// Everything: counters, histograms and the typed event log.
    Full,
}

/// A stage of the batch lifecycle (the subject of spans and phases).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum StageKind {
    /// The batching interval itself (virtual span = the heartbeat period).
    Accumulate,
    /// Wall-clock: the per-batch select/score work — the policy's strategy
    /// decision plus the chosen technique's per-tuple selection phase (e.g.
    /// the d-choices sketch probe), split out of the partition phases so
    /// policy overhead is visible in stage-breakdown tables.
    Select,
    /// Wall-clock: Algorithm 1's batching phase and heartbeat order. It ends
    /// before any tuple moves.
    Seal,
    /// Wall-clock: Algorithm 2's symbolic piece assignment, and the sort of
    /// each block's pieces into key order that lets Map fold a Prompt block
    /// run by run (Fig. 14's Prompt partition time includes it).
    PartitionSymbolic,
    /// Wall-clock: materializing blocks from the symbolic assignment — on the
    /// row path, the scatter of every arrival's value into its block and the
    /// run and fragment tables, taken from the key-ordered pieces without a
    /// sort.
    PartitionMaterialize,
    /// Wall-clock: at an overlapped step (depth ≥ 2), how long the driver
    /// thread, done executing and committing the older batch, blocked at
    /// the join on this batch's partition — near zero when execution is the
    /// longer side of the step, the partition's surplus when it is not.
    PartitionWait,
    /// Virtual: partitioning overhead that spilled past early release.
    PartitionVisible,
    /// Virtual: time queued behind earlier batches in the pipeline.
    QueueWait,
    /// Wall-clock: the local executor's shuffle scatter.
    Scatter,
    /// The Map stage makespan.
    MapStage,
    /// The Reduce stage makespan.
    ReduceStage,
    /// Virtual: one recovery recomputation after injected state loss.
    Recovery,
}

impl StageKind {
    /// All kinds, in lifecycle order.
    pub const ALL: [StageKind; 12] = [
        StageKind::Accumulate,
        StageKind::Select,
        StageKind::Seal,
        StageKind::PartitionSymbolic,
        StageKind::PartitionMaterialize,
        StageKind::PartitionWait,
        StageKind::PartitionVisible,
        StageKind::QueueWait,
        StageKind::Scatter,
        StageKind::MapStage,
        StageKind::ReduceStage,
        StageKind::Recovery,
    ];

    /// Stable wire name (JSON-lines `kind` field).
    pub fn name(self) -> &'static str {
        match self {
            StageKind::Accumulate => "accumulate",
            StageKind::Select => "select",
            StageKind::Seal => "seal",
            StageKind::PartitionSymbolic => "partition_symbolic",
            StageKind::PartitionMaterialize => "partition_materialize",
            StageKind::PartitionWait => "partition_wait",
            StageKind::PartitionVisible => "partition_visible",
            StageKind::QueueWait => "queue_wait",
            StageKind::Scatter => "scatter",
            StageKind::MapStage => "map_stage",
            StageKind::ReduceStage => "reduce_stage",
            StageKind::Recovery => "recovery",
        }
    }

    /// Inverse of [`StageKind::name`].
    pub fn from_name(s: &str) -> Option<StageKind> {
        StageKind::ALL.into_iter().find(|k| k.name() == s)
    }

    /// Position in [`StageKind::ALL`] (declaration order).
    fn index(self) -> usize {
        self as usize
    }
}

/// The virtual-time span kinds that make up `BatchRecord::processing`: for
/// every batch, the durations of these spans sum to exactly the batch's
/// processing time (the trace layer's reconciliation invariant).
pub const PROCESSING_KINDS: [StageKind; 4] = [
    StageKind::PartitionVisible,
    StageKind::MapStage,
    StageKind::ReduceStage,
    StageKind::Recovery,
];

/// A monotonically increasing count the recorder maintains.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Counter {
    /// Batches executed.
    Batches,
    /// Tuples ingested.
    Tuples,
    /// (key cluster → bucket) routings performed by the shuffle.
    ScatterFragments,
    /// Scatter routings whose key was a split key.
    SplitKeyFragments,
    /// Elasticity zone changes between consecutive batches.
    ZoneTransitions,
    /// Applied scale-out actions.
    ScaleOut,
    /// Applied scale-in actions.
    ScaleIn,
    /// Fired decisions that were saturated no-ops.
    NoopDecisions,
    /// Grace periods entered (= applied actions).
    GraceEntries,
    /// Recovery recomputations performed.
    Recoveries,
    /// Distributed workers declared lost (heartbeat timeout, socket failure
    /// or injected kill).
    WorkersLost,
    /// Batches whose queue delay exceeded the back-pressure threshold.
    BackpressureBatches,
    /// Checkpoint commits (delta or snapshot) written by the state layer.
    Checkpoints,
    /// Total checkpoint bytes written (deltas + snapshots + manifests).
    CheckpointBytes,
    /// Checkpoint commits that wrote a full snapshot.
    Snapshots,
    /// Snapshot bytes written.
    SnapshotBytes,
    /// Keyed-state restores (lost store or resumed run).
    StateRestores,
    /// Retained committed batches re-run after state restores.
    RecomputedBatches,
    /// Shuffle connections dialed by reducing workers (pool misses).
    ShuffleConnsDialed,
    /// Pooled shuffle connections reused by reducing workers (pool hits).
    ShuffleConnsReused,
    /// Wall-clock µs workers spent waiting on shuffle fetches.
    ShuffleWaitUs,
    /// Fetch-reply bytes received by workers.
    ShuffleBytesWire,
    /// Partitioner-policy decisions evaluated at batch boundaries.
    PolicyDecisions,
    /// Policy decisions that switched the partitioning technique.
    PolicySwitches,
    /// Applied key-group migration plans (routing-table version bumps).
    Rebalances,
    /// Key-groups moved between workers across all applied plans.
    GroupsMoved,
}

impl Counter {
    /// All counters, in declaration order.
    pub const ALL: [Counter; 26] = [
        Counter::Batches,
        Counter::Tuples,
        Counter::ScatterFragments,
        Counter::SplitKeyFragments,
        Counter::ZoneTransitions,
        Counter::ScaleOut,
        Counter::ScaleIn,
        Counter::NoopDecisions,
        Counter::GraceEntries,
        Counter::Recoveries,
        Counter::WorkersLost,
        Counter::BackpressureBatches,
        Counter::Checkpoints,
        Counter::CheckpointBytes,
        Counter::Snapshots,
        Counter::SnapshotBytes,
        Counter::StateRestores,
        Counter::RecomputedBatches,
        Counter::ShuffleConnsDialed,
        Counter::ShuffleConnsReused,
        Counter::ShuffleWaitUs,
        Counter::ShuffleBytesWire,
        Counter::PolicyDecisions,
        Counter::PolicySwitches,
        Counter::Rebalances,
        Counter::GroupsMoved,
    ];

    /// Stable wire name.
    pub fn name(self) -> &'static str {
        match self {
            Counter::Batches => "batches",
            Counter::Tuples => "tuples",
            Counter::ScatterFragments => "scatter_fragments",
            Counter::SplitKeyFragments => "split_key_fragments",
            Counter::ZoneTransitions => "zone_transitions",
            Counter::ScaleOut => "scale_out",
            Counter::ScaleIn => "scale_in",
            Counter::NoopDecisions => "noop_decisions",
            Counter::GraceEntries => "grace_entries",
            Counter::Recoveries => "recoveries",
            Counter::WorkersLost => "workers_lost",
            Counter::BackpressureBatches => "backpressure_batches",
            Counter::Checkpoints => "checkpoints",
            Counter::CheckpointBytes => "checkpoint_bytes",
            Counter::Snapshots => "snapshots",
            Counter::SnapshotBytes => "snapshot_bytes",
            Counter::StateRestores => "state_restores",
            Counter::RecomputedBatches => "recomputed_batches",
            Counter::ShuffleConnsDialed => "shuffle_conns_dialed",
            Counter::ShuffleConnsReused => "shuffle_conns_reused",
            Counter::ShuffleWaitUs => "shuffle_wait_us",
            Counter::ShuffleBytesWire => "shuffle_bytes_wire",
            Counter::PolicyDecisions => "policy_decisions",
            Counter::PolicySwitches => "policy_switches",
            Counter::Rebalances => "rebalances",
            Counter::GroupsMoved => "groups_moved",
        }
    }

    /// Position in [`Counter::ALL`] (declaration order).
    fn index(self) -> usize {
        self as usize
    }
}

/// One recorded observation.
#[derive(Clone, Debug, PartialEq)]
pub enum TraceEvent {
    /// A virtual-time interval of batch `seq` spent in `kind`.
    Span {
        /// Batch sequence number.
        seq: u64,
        /// Lifecycle stage.
        kind: StageKind,
        /// Span start (virtual µs).
        start_us: u64,
        /// Span end (virtual µs).
        end_us: u64,
    },
    /// A wall-clock measurement of batch `seq` in `kind` (informational;
    /// never fed back into virtual time).
    Phase {
        /// Batch sequence number.
        seq: u64,
        /// Lifecycle stage.
        kind: StageKind,
        /// Measured wall time in µs.
        wall_us: u64,
    },
    /// The elasticity controller saw batch `seq` land in a new zone.
    Zone {
        /// Batch sequence number.
        seq: u64,
        /// Fig. 9b zone (1 / 2 / 3).
        zone: u8,
        /// The load value that placed it there.
        w: f64,
    },
    /// An applied scale action, with the trend evidence behind it.
    Scale {
        /// Batch sequence number.
        seq: u64,
        /// New Map task count.
        map_tasks: usize,
        /// New Reduce task count.
        reduce_tasks: usize,
        /// True for scale-out.
        out: bool,
        /// Data-rate trend at the decision.
        rate_trend: f64,
        /// Key-cardinality trend at the decision.
        key_trend: f64,
        /// First batch prepared with the new counts: `seq + 1` at pipeline
        /// depth 1, `seq + d` with `d` batches in flight — the batches in
        /// between keep the counts they were filled under.
        effective_seq: u64,
    },
    /// Grace-period entry (after an applied action) or exit.
    Grace {
        /// Batch sequence number.
        seq: u64,
        /// True on entry, false on exit.
        entered: bool,
    },
    /// One recovery recomputation after injected state loss.
    Recovery {
        /// Batch sequence number.
        seq: u64,
        /// Replicas remaining after this recovery consumed one.
        replicas_left: usize,
    },
    /// The driver declared a distributed worker lost while batch `seq` was
    /// in flight (the decision that triggers recomputation).
    WorkerLost {
        /// Batch sequence number in flight at the loss.
        seq: u64,
        /// The lost worker's id.
        worker: u32,
    },
    /// Batch `seq` queued past the back-pressure threshold.
    Backpressure {
        /// Batch sequence number.
        seq: u64,
        /// The batch's queue delay in µs.
        queue_us: u64,
        /// The configured threshold in µs.
        limit_us: u64,
    },
    /// One checkpoint commit of the keyed state store.
    Checkpoint {
        /// Last batch covered by the commit (the new watermark).
        seq: u64,
        /// Whether this commit wrote a full snapshot (else delta-only).
        snapshot: bool,
        /// Bytes written by the commit (frames + manifest).
        bytes: u64,
        /// Wall-clock time of the commit in µs.
        wall_us: u64,
    },
    /// End of a checkpointed run: where the snapshot compactor's time went.
    /// Wall-clock, like `wall_us`: never the same twice, never in a result.
    Compactor {
        /// Time the compactor thread spent encoding and writing snapshots.
        busy_us: u64,
        /// Time the driver spent blocked on it — the stall to look for when
        /// the batch-latency tail comes back.
        wait_us: u64,
    },
    /// The keyed state store was rebuilt (lost store or resumed run).
    StateRestore {
        /// Batch sequence number at which the restore happened.
        seq: u64,
        /// First batch *not* covered by the restored checkpoint: the
        /// watermark + 1, or `0` when no checkpoint existed.
        covered: u64,
        /// Checkpoint bytes read during the restore.
        bytes: u64,
        /// Retained committed batches re-run to catch up.
        recomputed: u64,
    },
    /// The partitioner policy hot-swapped the technique at a batch
    /// boundary: batch `seq` runs `to` where its predecessor ran `from`.
    PolicySwitch {
        /// First batch partitioned by the new technique.
        seq: u64,
        /// Label of the previous technique (`Technique::label`).
        from: String,
        /// Label of the newly selected technique.
        to: String,
    },
    /// The rebalance policy applied a migration plan: the routing table
    /// advanced to `version` before batch `seq` was assigned.
    Rebalance {
        /// First batch routed by the new table version.
        seq: u64,
        /// The routing-table version after the plan applied.
        version: u64,
        /// Key-groups moved by the plan.
        moves: u64,
        /// The worker busy-time max/mean ratio that triggered the plan.
        imbalance: f64,
        /// The last committed batch when the plan was decided — what
        /// `imbalance` was measured on (`seq − 1` at pipeline depth 1,
        /// `seq − d` with `d` batches in flight). `None` when a forced plan
        /// precedes the first commit.
        observed_seq: Option<u64>,
    },
    /// One key-group changed owner as part of an applied migration plan.
    GroupMigrate {
        /// First batch routed by the new table version.
        seq: u64,
        /// The migrated key-group.
        group: u32,
        /// Previous owner (reduce bucket).
        from: u32,
        /// New owner (reduce bucket).
        to: u32,
        /// Size in bytes of the group's slice of keyed state — what changes
        /// owner with the move (0 when the run keeps no keyed state).
        bytes: u64,
    },
}

impl TraceEvent {
    /// Span length in µs (0 for non-span events).
    pub fn span_us(&self) -> u64 {
        match *self {
            TraceEvent::Span {
                start_us, end_us, ..
            } => end_us - start_us,
            _ => 0,
        }
    }

    /// The batch the event belongs to, when it has one.
    pub fn seq(&self) -> Option<u64> {
        match *self {
            TraceEvent::Span { seq, .. }
            | TraceEvent::Phase { seq, .. }
            | TraceEvent::Zone { seq, .. }
            | TraceEvent::Scale { seq, .. }
            | TraceEvent::Grace { seq, .. }
            | TraceEvent::Recovery { seq, .. }
            | TraceEvent::WorkerLost { seq, .. }
            | TraceEvent::Backpressure { seq, .. }
            | TraceEvent::Checkpoint { seq, .. }
            | TraceEvent::StateRestore { seq, .. }
            | TraceEvent::Rebalance { seq, .. }
            | TraceEvent::GroupMigrate { seq, .. } => Some(seq),
            TraceEvent::PolicySwitch { seq, .. } => Some(seq),
            TraceEvent::Compactor { .. } => None,
        }
    }

    /// Serialise as one flat JSON object (no trailing newline).
    pub fn to_json(&self) -> String {
        match self {
            TraceEvent::Span {
                seq,
                kind,
                start_us,
                end_us,
            } => format!(
                "{{\"type\":\"span\",\"seq\":{seq},\"kind\":\"{}\",\"start_us\":{start_us},\"end_us\":{end_us}}}",
                kind.name()
            ),
            TraceEvent::Phase { seq, kind, wall_us } => format!(
                "{{\"type\":\"phase\",\"seq\":{seq},\"kind\":\"{}\",\"wall_us\":{wall_us}}}",
                kind.name()
            ),
            TraceEvent::Zone { seq, zone, w } => {
                format!("{{\"type\":\"zone\",\"seq\":{seq},\"zone\":{zone},\"w\":{w}}}")
            }
            TraceEvent::Scale {
                seq,
                map_tasks,
                reduce_tasks,
                out,
                rate_trend,
                key_trend,
                effective_seq,
            } => format!(
                "{{\"type\":\"scale\",\"seq\":{seq},\"map_tasks\":{map_tasks},\"reduce_tasks\":{reduce_tasks},\"out\":{out},\"rate_trend\":{rate_trend},\"key_trend\":{key_trend},\"effective_seq\":{effective_seq}}}"
            ),
            TraceEvent::Grace { seq, entered } => {
                format!("{{\"type\":\"grace\",\"seq\":{seq},\"entered\":{entered}}}")
            }
            TraceEvent::Recovery { seq, replicas_left } => format!(
                "{{\"type\":\"recovery\",\"seq\":{seq},\"replicas_left\":{replicas_left}}}"
            ),
            TraceEvent::WorkerLost { seq, worker } => {
                format!("{{\"type\":\"worker_lost\",\"seq\":{seq},\"worker\":{worker}}}")
            }
            TraceEvent::Backpressure {
                seq,
                queue_us,
                limit_us,
            } => format!(
                "{{\"type\":\"backpressure\",\"seq\":{seq},\"queue_us\":{queue_us},\"limit_us\":{limit_us}}}"
            ),
            TraceEvent::Checkpoint {
                seq,
                snapshot,
                bytes,
                wall_us,
            } => format!(
                "{{\"type\":\"checkpoint\",\"seq\":{seq},\"snapshot\":{snapshot},\"bytes\":{bytes},\"wall_us\":{wall_us}}}"
            ),
            TraceEvent::Compactor { busy_us, wait_us } => {
                format!("{{\"type\":\"compactor\",\"busy_us\":{busy_us},\"wait_us\":{wait_us}}}")
            }
            TraceEvent::StateRestore {
                seq,
                covered,
                bytes,
                recomputed,
            } => format!(
                "{{\"type\":\"state_restore\",\"seq\":{seq},\"covered\":{covered},\"bytes\":{bytes},\"recomputed\":{recomputed}}}"
            ),
            TraceEvent::Rebalance {
                seq,
                version,
                moves,
                imbalance,
                observed_seq,
            } => format!(
                "{{\"type\":\"rebalance\",\"seq\":{seq},\"version\":{version},\"moves\":{moves},\"imbalance\":{imbalance},\"observed_seq\":{}}}",
                observed_seq.map_or("null".to_string(), |s| s.to_string())
            ),
            TraceEvent::GroupMigrate {
                seq,
                group,
                from,
                to,
                bytes,
            } => format!(
                "{{\"type\":\"group_migrate\",\"seq\":{seq},\"group\":{group},\"from\":{from},\"to\":{to},\"bytes\":{bytes}}}"
            ),
            TraceEvent::PolicySwitch { seq, from, to } => format!(
                "{{\"type\":\"policy_switch\",\"seq\":{seq},\"from\":\"{from}\",\"to\":\"{to}\"}}"
            ),
        }
    }
}

/// Serialise events as JSON-lines (one object per line).
pub fn to_jsonl(events: &[TraceEvent]) -> String {
    let mut out = String::new();
    for e in events {
        out.push_str(&e.to_json());
        out.push('\n');
    }
    out
}

/// Parse JSON-lines produced by [`to_jsonl`] / [`TraceRecorder::to_jsonl`]
/// back into events. Blank lines are skipped; anything else malformed is an
/// error naming the offending line.
pub fn parse_jsonl(text: &str) -> Result<Vec<TraceEvent>, String> {
    let mut events = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        events.push(parse_event(line).map_err(|e| format!("line {}: {e}", i + 1))?);
    }
    Ok(events)
}

/// Parse one flat JSON object into field pairs. Only the subset the trace
/// format emits is supported: string, number and boolean values, no nesting,
/// no escapes inside strings.
fn parse_fields(line: &str) -> Result<Vec<(String, String)>, String> {
    let body = line
        .strip_prefix('{')
        .and_then(|s| s.strip_suffix('}'))
        .ok_or("not a JSON object")?;
    let mut fields = Vec::new();
    let mut rest = body.trim();
    while !rest.is_empty() {
        let after_quote = rest.strip_prefix('"').ok_or("expected quoted key")?;
        let key_end = after_quote.find('"').ok_or("unterminated key")?;
        let key = &after_quote[..key_end];
        let after_key = after_quote[key_end + 1..].trim_start();
        let mut val_text = after_key
            .strip_prefix(':')
            .ok_or("expected ':'")?
            .trim_start();
        let value = if let Some(s) = val_text.strip_prefix('"') {
            let end = s.find('"').ok_or("unterminated string value")?;
            val_text = &s[end + 1..];
            s[..end].to_string()
        } else {
            let end = val_text.find(',').unwrap_or(val_text.len());
            let v = val_text[..end].trim().to_string();
            val_text = &val_text[end..];
            if v.is_empty() {
                return Err("empty value".into());
            }
            v
        };
        fields.push((key.to_string(), value));
        rest = val_text.trim_start();
        if let Some(r) = rest.strip_prefix(',') {
            rest = r.trim_start();
        } else if !rest.is_empty() {
            return Err("expected ',' between fields".into());
        }
    }
    Ok(fields)
}

fn parse_event(line: &str) -> Result<TraceEvent, String> {
    let fields = parse_fields(line)?;
    let get = |name: &str| -> Result<&str, String> {
        fields
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
            .ok_or_else(|| format!("missing field '{name}'"))
    };
    let num = |name: &str| -> Result<u64, String> {
        get(name)?
            .parse()
            .map_err(|_| format!("field '{name}' is not an integer"))
    };
    let float = |name: &str| -> Result<f64, String> {
        get(name)?
            .parse()
            .map_err(|_| format!("field '{name}' is not a number"))
    };
    let boolean = |name: &str| -> Result<bool, String> {
        match get(name)? {
            "true" => Ok(true),
            "false" => Ok(false),
            _ => Err(format!("field '{name}' is not a boolean")),
        }
    };
    let kind = |name: &str| -> Result<StageKind, String> {
        let v = get(name)?;
        StageKind::from_name(v).ok_or_else(|| format!("unknown stage kind '{v}'"))
    };
    match get("type")? {
        "span" => {
            let (start_us, end_us) = (num("start_us")?, num("end_us")?);
            // `span_us` subtracts: a span that ends before it starts is not one.
            if end_us < start_us {
                return Err("span ends before it starts".into());
            }
            Ok(TraceEvent::Span {
                seq: num("seq")?,
                kind: kind("kind")?,
                start_us,
                end_us,
            })
        }
        "phase" => Ok(TraceEvent::Phase {
            seq: num("seq")?,
            kind: kind("kind")?,
            wall_us: num("wall_us")?,
        }),
        "zone" => Ok(TraceEvent::Zone {
            seq: num("seq")?,
            zone: num("zone")? as u8,
            w: float("w")?,
        }),
        "scale" => Ok(TraceEvent::Scale {
            seq: num("seq")?,
            map_tasks: num("map_tasks")? as usize,
            reduce_tasks: num("reduce_tasks")? as usize,
            out: boolean("out")?,
            rate_trend: float("rate_trend")?,
            key_trend: float("key_trend")?,
            effective_seq: num("effective_seq")?,
        }),
        "grace" => Ok(TraceEvent::Grace {
            seq: num("seq")?,
            entered: boolean("entered")?,
        }),
        "recovery" => Ok(TraceEvent::Recovery {
            seq: num("seq")?,
            replicas_left: num("replicas_left")? as usize,
        }),
        "worker_lost" => Ok(TraceEvent::WorkerLost {
            seq: num("seq")?,
            worker: num("worker")? as u32,
        }),
        "backpressure" => Ok(TraceEvent::Backpressure {
            seq: num("seq")?,
            queue_us: num("queue_us")?,
            limit_us: num("limit_us")?,
        }),
        "checkpoint" => Ok(TraceEvent::Checkpoint {
            seq: num("seq")?,
            snapshot: boolean("snapshot")?,
            bytes: num("bytes")?,
            wall_us: num("wall_us")?,
        }),
        "compactor" => Ok(TraceEvent::Compactor {
            busy_us: num("busy_us")?,
            wait_us: num("wait_us")?,
        }),
        "state_restore" => Ok(TraceEvent::StateRestore {
            seq: num("seq")?,
            covered: num("covered")?,
            bytes: num("bytes")?,
            recomputed: num("recomputed")?,
        }),
        "rebalance" => Ok(TraceEvent::Rebalance {
            seq: num("seq")?,
            version: num("version")?,
            moves: num("moves")?,
            imbalance: float("imbalance")?,
            observed_seq: match get("observed_seq")? {
                "null" => None,
                _ => Some(num("observed_seq")?),
            },
        }),
        "group_migrate" => Ok(TraceEvent::GroupMigrate {
            seq: num("seq")?,
            group: num("group")? as u32,
            from: num("from")? as u32,
            to: num("to")? as u32,
            bytes: num("bytes")?,
        }),
        "policy_switch" => Ok(TraceEvent::PolicySwitch {
            seq: num("seq")?,
            from: get("from")?.to_string(),
            to: get("to")?.to_string(),
        }),
        other => Err(format!("unknown event type '{other}'")),
    }
}

/// Number of log₂ duration buckets (covers up to 2³⁹ µs ≈ 6 days).
const HIST_BUCKETS: usize = 40;

/// A lock-free log₂-bucket histogram of µs durations.
#[derive(Debug)]
struct Histogram {
    buckets: [AtomicU64; HIST_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

fn bucket_of(us: u64) -> usize {
    if us == 0 {
        0
    } else {
        ((us.ilog2() + 1) as usize).min(HIST_BUCKETS - 1)
    }
}

/// Inclusive upper bound of a bucket's value range.
fn bucket_upper(i: usize) -> u64 {
    if i == 0 {
        0
    } else {
        (1u64 << i) - 1
    }
}

impl Histogram {
    fn record(&self, us: u64) {
        self.buckets[bucket_of(us)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(us, Ordering::Relaxed);
        self.max.fetch_max(us, Ordering::Relaxed);
    }

    /// The digest of everything recorded, `None` when nothing was.
    fn summarize(&self, kind: StageKind) -> Option<StageSummary> {
        let count = self.count.load(Ordering::Relaxed);
        let total_us = self.sum.load(Ordering::Relaxed);
        (count > 0).then(|| StageSummary {
            kind,
            count,
            total_us,
            mean_us: total_us as f64 / count as f64,
            p50_us: self.percentile(0.50),
            p95_us: self.percentile(0.95),
            max_us: self.max.load(Ordering::Relaxed),
        })
    }

    /// Nearest-rank percentile, reported as the containing bucket's upper
    /// bound (clamped by the observed maximum) — a ≤ 2× overestimate by
    /// construction of the log₂ buckets.
    fn percentile(&self, p: f64) -> u64 {
        let count = self.count.load(Ordering::Relaxed);
        if count == 0 {
            return 0;
        }
        let target = ((p * count as f64).ceil() as u64).clamp(1, count);
        let mut seen = 0;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= target {
                return bucket_upper(i).min(self.max.load(Ordering::Relaxed));
            }
        }
        self.max.load(Ordering::Relaxed)
    }
}

/// Per-stage aggregate in a [`TraceSummary`].
#[derive(Clone, Copy, Debug)]
pub struct StageSummary {
    /// The stage.
    pub kind: StageKind,
    /// Observations recorded.
    pub count: u64,
    /// Total µs across observations.
    pub total_us: u64,
    /// Mean µs (exact: total / count).
    pub mean_us: f64,
    /// Median, from the log₂ histogram (bucket upper bound).
    pub p50_us: u64,
    /// 95th percentile, from the log₂ histogram (bucket upper bound).
    pub p95_us: u64,
    /// Largest single observation (exact).
    pub max_us: u64,
}

/// End-of-run digest: per-stage duration summaries plus all counters.
/// Available at [`TraceLevel::Summary`] and above.
///
/// Virtual-time spans and wall-clock phases are summarised apart: a backend
/// that measures its Map and Reduce phases stamps them under the same
/// [`StageKind`]s the driver's cost-model spans use, and a simulated
/// microsecond does not add to a measured one.
#[derive(Clone, Debug, Default)]
pub struct TraceSummary {
    /// Virtual-time spans: one entry per stage that recorded at least one,
    /// in lifecycle order. The same on every backend.
    pub stages: Vec<StageSummary>,
    /// Wall-clock phases, likewise.
    pub wall_stages: Vec<StageSummary>,
    /// Non-zero counters, in declaration order.
    pub counters: Vec<(Counter, u64)>,
    /// Per-reduce-worker busy time accumulated over the run (µs), indexed
    /// by bucket. Empty when the driver recorded no per-worker times.
    pub worker_busy_us: Vec<u64>,
    /// Max/mean ratio of [`TraceSummary::worker_busy_us`] — the hot-worker
    /// signal the rebalancer acts on (1.0 = perfectly balanced). `None`
    /// when no per-worker times were recorded.
    pub load_imbalance: Option<f64>,
    /// Where the snapshot compactor's time went over the run (wall clock;
    /// zero when nothing was compacted).
    pub compactor: CompactorTimes,
}

impl TraceSummary {
    /// Look up a stage's virtual-time summary.
    pub fn stage(&self, kind: StageKind) -> Option<&StageSummary> {
        self.stages.iter().find(|s| s.kind == kind)
    }

    /// Look up a stage's wall-clock summary.
    pub fn wall(&self, kind: StageKind) -> Option<&StageSummary> {
        self.wall_stages.iter().find(|s| s.kind == kind)
    }

    /// Look up a counter (0 when it never fired).
    pub fn counter(&self, c: Counter) -> u64 {
        self.counters
            .iter()
            .find(|(k, _)| *k == c)
            .map_or(0, |&(_, v)| v)
    }
}

impl std::fmt::Display for TraceSummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "{:<28} {:>8} {:>12} {:>10} {:>10} {:>10}",
            "stage", "count", "mean ms", "p50 ms", "p95 ms", "max ms"
        )?;
        let virtual_rows = self.stages.iter().map(|s| (s, s.kind.name().to_string()));
        let wall_rows = (self.wall_stages.iter()).map(|s| (s, format!("{} (wall)", s.kind.name())));
        for (s, name) in virtual_rows.chain(wall_rows) {
            writeln!(
                f,
                "{name:<28} {:>8} {:>12.3} {:>10.3} {:>10.3} {:>10.3}",
                s.count,
                s.mean_us / 1e3,
                s.p50_us as f64 / 1e3,
                s.p95_us as f64 / 1e3,
                s.max_us as f64 / 1e3,
            )?;
        }
        for (c, v) in &self.counters {
            writeln!(f, "{:<28} {v}", c.name())?;
        }
        if self.counter(Counter::Snapshots) > 0 {
            let CompactorTimes { busy_us, wait_us } = self.compactor;
            let ms = |us: u64| us as f64 / 1e3;
            writeln!(f, "{:<28} {:.3}", "compactor busy ms (wall)", ms(busy_us))?;
            writeln!(f, "{:<28} {:.3}", "compactor wait ms (wall)", ms(wait_us))?;
        }
        if let Some(ratio) = self.load_imbalance {
            writeln!(
                f,
                "{:<28} {ratio:.3} (max/mean over {} workers)",
                "load_imbalance",
                self.worker_busy_us.len()
            )?;
        }
        Ok(())
    }
}

/// The thread-safe event sink (see the module docs for the concurrency
/// story). Recording methods take `&self`.
#[derive(Debug)]
pub struct TraceRecorder {
    level: TraceLevel,
    counters: [AtomicU64; Counter::ALL.len()],
    /// Virtual-time span durations, by stage.
    spans: [Histogram; StageKind::ALL.len()],
    /// Wall-clock phase durations, by stage.
    phases: [Histogram; StageKind::ALL.len()],
    /// The event log, in recording order.
    events: Mutex<Vec<TraceEvent>>,
    /// Per-reduce-worker busy-time totals (µs), fed by the driver at each
    /// commit; the summary derives the load-imbalance ratio from them.
    worker_busy: Mutex<Vec<u64>>,
    /// The snapshot compactor's busy and waited-on time (µs), fed once at
    /// the end of a checkpointed run.
    compactor: [AtomicU64; 2],
}

impl TraceRecorder {
    /// Create a recorder at the given level.
    pub fn new(level: TraceLevel) -> TraceRecorder {
        TraceRecorder {
            level,
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
            spans: std::array::from_fn(|_| Histogram::default()),
            phases: std::array::from_fn(|_| Histogram::default()),
            events: Mutex::new(Vec::new()),
            worker_busy: Mutex::new(Vec::new()),
            compactor: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    /// The configured level.
    pub fn level(&self) -> TraceLevel {
        self.level
    }

    /// Whether anything is recorded at all.
    pub fn enabled(&self) -> bool {
        self.level != TraceLevel::Off
    }

    /// Bump a counter.
    pub fn incr(&self, c: Counter, by: u64) {
        if self.enabled() {
            self.counters[c.index()].fetch_add(by, Ordering::Relaxed);
        }
    }

    /// Current value of a counter.
    pub fn counter(&self, c: Counter) -> u64 {
        self.counters[c.index()].load(Ordering::Relaxed)
    }

    /// Record a virtual-time span of batch `seq` in `kind`. Zero-length
    /// spans are dropped (reconciliation sums are unaffected).
    pub fn span(&self, seq: u64, kind: StageKind, start: Time, end: Time) {
        if !self.enabled() || end <= start {
            return;
        }
        let (start_us, end_us) = (start.0, end.0);
        self.spans[kind.index()].record(end_us - start_us);
        self.push(TraceEvent::Span {
            seq,
            kind,
            start_us,
            end_us,
        });
    }

    /// Record a wall-clock phase measurement of batch `seq` in `kind`.
    pub fn phase(&self, seq: u64, kind: StageKind, wall: Duration) {
        if !self.enabled() {
            return;
        }
        self.phases[kind.index()].record(wall.0);
        self.push(TraceEvent::Phase {
            seq,
            kind,
            wall_us: wall.0,
        });
    }

    /// Accumulate one committed batch's per-reduce-worker busy times into
    /// the run totals (indexed by bucket; the vector grows to the largest
    /// reduce count seen). Recorded at [`TraceLevel::Summary`] and above.
    pub fn worker_busy(&self, times: &[Duration]) {
        if !self.enabled() || times.is_empty() {
            return;
        }
        let mut busy = self.worker_busy.lock().expect("worker-busy poisoned");
        if busy.len() < times.len() {
            busy.resize(times.len(), 0);
        }
        for (b, t) in times.iter().enumerate() {
            busy[b] += t.0;
        }
    }

    /// Record where the snapshot compactor's time went (wall clock; kept at
    /// [`TraceLevel::Summary`] and above, logged as one event at `Full`).
    pub fn compactor(&self, times: CompactorTimes) {
        if !self.enabled() {
            return;
        }
        let CompactorTimes { busy_us, wait_us } = times;
        self.compactor[0].fetch_add(busy_us, Ordering::Relaxed);
        self.compactor[1].fetch_add(wait_us, Ordering::Relaxed);
        self.push(TraceEvent::Compactor { busy_us, wait_us });
    }

    /// Record a decision event (kept only at [`TraceLevel::Full`]).
    pub fn event(&self, e: TraceEvent) {
        if self.enabled() {
            self.push(e);
        }
    }

    fn push(&self, e: TraceEvent) {
        if self.level == TraceLevel::Full {
            self.events.lock().expect("trace log poisoned").push(e);
        }
    }

    /// Snapshot of the event log in recording order (empty below
    /// [`TraceLevel::Full`]).
    pub fn events(&self) -> Vec<TraceEvent> {
        self.events.lock().expect("trace log poisoned").clone()
    }

    /// The event log as JSON-lines (see [`to_jsonl`]).
    pub fn to_jsonl(&self) -> String {
        to_jsonl(&self.events())
    }

    /// Build the end-of-run digest from the histograms and counters.
    pub fn summary(&self) -> TraceSummary {
        let digest = |hists: &[Histogram]| -> Vec<StageSummary> {
            let recorded = StageKind::ALL.into_iter().zip(hists);
            recorded.filter_map(|(kind, h)| h.summarize(kind)).collect()
        };
        let counters = Counter::ALL
            .into_iter()
            .filter_map(|c| {
                let v = self.counter(c);
                (v > 0).then_some((c, v))
            })
            .collect();
        let worker_busy_us = self
            .worker_busy
            .lock()
            .expect("worker-busy poisoned")
            .clone();
        let load_imbalance = (!worker_busy_us.is_empty())
            .then(|| crate::rebalance::imbalance_ratio(&worker_busy_us));
        TraceSummary {
            stages: digest(&self.spans),
            wall_stages: digest(&self.phases),
            counters,
            worker_busy_us,
            load_imbalance,
            compactor: CompactorTimes {
                busy_us: self.compactor[0].load(Ordering::Relaxed),
                wait_us: self.compactor[1].load(Ordering::Relaxed),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_level_records_nothing() {
        let rec = TraceRecorder::new(TraceLevel::Off);
        rec.incr(Counter::Batches, 5);
        rec.span(0, StageKind::MapStage, Time(0), Time(100));
        rec.phase(0, StageKind::Seal, Duration::from_micros(10));
        rec.event(TraceEvent::Grace {
            seq: 0,
            entered: true,
        });
        assert_eq!(rec.counter(Counter::Batches), 0);
        assert!(rec.events().is_empty());
        assert!(rec.summary().stages.is_empty());
    }

    #[test]
    fn summary_level_keeps_histograms_but_not_events() {
        let rec = TraceRecorder::new(TraceLevel::Summary);
        rec.span(0, StageKind::MapStage, Time(0), Time(1000));
        rec.span(1, StageKind::MapStage, Time(0), Time(3000));
        rec.incr(Counter::Batches, 2);
        assert!(rec.events().is_empty(), "event log only at Full");
        let s = rec.summary();
        let map = s.stage(StageKind::MapStage).expect("map recorded");
        assert_eq!(map.count, 2);
        assert_eq!(map.total_us, 4000);
        assert_eq!(map.mean_us, 2000.0);
        assert_eq!(map.max_us, 3000);
        assert_eq!(s.counter(Counter::Batches), 2);
        assert_eq!(s.counter(Counter::Recoveries), 0);
    }

    #[test]
    fn zero_length_spans_are_dropped() {
        let rec = TraceRecorder::new(TraceLevel::Full);
        rec.span(0, StageKind::QueueWait, Time(50), Time(50));
        assert!(rec.events().is_empty());
        assert!(rec.summary().stage(StageKind::QueueWait).is_none());
    }

    #[test]
    fn events_preserve_recording_order() {
        let rec = TraceRecorder::new(TraceLevel::Full);
        for seq in 0..20 {
            rec.span(seq, StageKind::MapStage, Time(0), Time(seq + 1));
        }
        let seqs: Vec<u64> = rec.events().iter().filter_map(|e| e.seq()).collect();
        assert_eq!(seqs, (0..20).collect::<Vec<u64>>());
    }

    #[test]
    fn recorder_is_shareable_across_threads() {
        let rec = TraceRecorder::new(TraceLevel::Full);
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let rec = &rec;
                scope.spawn(move || {
                    for i in 0..100 {
                        rec.incr(Counter::Tuples, 1);
                        rec.span(t, StageKind::ReduceStage, Time(0), Time(i + 1));
                    }
                });
            }
        });
        assert_eq!(rec.counter(Counter::Tuples), 400);
        assert_eq!(rec.events().len(), 400);
        assert_eq!(
            rec.summary().stage(StageKind::ReduceStage).unwrap().count,
            400
        );
    }

    #[test]
    fn histogram_percentiles_bracket_the_data() {
        let h = Histogram::default();
        for us in 1..=1000u64 {
            h.record(us);
        }
        let p50 = h.percentile(0.50);
        let p95 = h.percentile(0.95);
        // Log2 buckets overestimate by at most 2x and never exceed the max.
        assert!((500..=1000).contains(&p50), "p50 = {p50}");
        assert!((950..=1000).contains(&p95), "p95 = {p95}");
        assert!(p50 <= p95);
        assert_eq!(h.percentile(1.0), 1000.min(bucket_upper(bucket_of(1000))));
    }

    #[test]
    fn bucket_layout_is_monotonic() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        for us in 0..10_000u64 {
            let b = bucket_of(us);
            assert!(us <= bucket_upper(b), "{us} above its bucket bound");
            assert!(b == 0 || us > bucket_upper(b - 1));
        }
        // Durations beyond the last bucket saturate instead of panicking.
        assert_eq!(bucket_of(u64::MAX), HIST_BUCKETS - 1);
    }

    #[test]
    fn jsonl_round_trips_every_variant() {
        let events = vec![
            TraceEvent::Span {
                seq: 3,
                kind: StageKind::PartitionVisible,
                start_us: 1_000_000,
                end_us: 1_030_000,
            },
            TraceEvent::Phase {
                seq: 3,
                kind: StageKind::PartitionSymbolic,
                wall_us: 42,
            },
            TraceEvent::Phase {
                seq: 4,
                kind: StageKind::PartitionWait,
                wall_us: 12_700,
            },
            TraceEvent::Zone {
                seq: 4,
                zone: 3,
                w: 1.25,
            },
            TraceEvent::Scale {
                seq: 5,
                map_tasks: 6,
                reduce_tasks: 4,
                out: true,
                rate_trend: 812.5,
                key_trend: -3.0,
                effective_seq: 7,
            },
            TraceEvent::Grace {
                seq: 5,
                entered: true,
            },
            TraceEvent::Grace {
                seq: 7,
                entered: false,
            },
            TraceEvent::Recovery {
                seq: 9,
                replicas_left: 1,
            },
            TraceEvent::WorkerLost { seq: 9, worker: 2 },
            TraceEvent::Backpressure {
                seq: 10,
                queue_us: 2_500_000,
                limit_us: 2_000_000,
            },
            TraceEvent::Checkpoint {
                seq: 11,
                snapshot: true,
                bytes: 4096,
                wall_us: 250,
            },
            TraceEvent::StateRestore {
                seq: 12,
                covered: 9,
                bytes: 4096,
                recomputed: 3,
            },
            TraceEvent::Rebalance {
                seq: 15,
                version: 2,
                moves: 3,
                imbalance: 1.75,
                observed_seq: Some(13),
            },
            TraceEvent::Rebalance {
                seq: 0,
                version: 1,
                moves: 1,
                imbalance: 1.0,
                observed_seq: None,
            },
            TraceEvent::GroupMigrate {
                seq: 15,
                group: 7,
                from: 0,
                to: 2,
                bytes: 512,
            },
            TraceEvent::PolicySwitch {
                seq: 14,
                from: "Hash".to_string(),
                to: "Prompt".to_string(),
            },
        ];
        let text = to_jsonl(&events);
        assert_eq!(text.lines().count(), events.len());
        let parsed = parse_jsonl(&text).expect("round trip");
        assert_eq!(parsed, events);
    }

    #[test]
    fn parse_rejects_malformed_lines() {
        assert!(parse_jsonl("not json").is_err());
        assert!(
            parse_jsonl("{\"type\":\"span\",\"seq\":1}").is_err(),
            "missing fields"
        );
        assert!(parse_jsonl("{\"type\":\"warp\"}").is_err(), "unknown type");
        assert!(
            parse_jsonl("{\"type\":\"phase\",\"seq\":0,\"kind\":\"nope\",\"wall_us\":1}").is_err(),
            "unknown stage kind"
        );
        // Retired event types are unknown ones, reported with their line.
        for retired in [
            "{\"type\":\"straggler\",\"seq\":8,\"stage\":\"reduce_stage\",\"task\":2,\"slowdown\":10}",
            "{\"type\":\"probe\",\"rate\":123456.789,\"sustainable\":false}",
        ] {
            let err = parse_jsonl(&format!("\n{retired}\n")).unwrap_err();
            assert!(err.starts_with("line 2: unknown event type"), "{err}");
        }
        // Blank lines are fine.
        assert_eq!(parse_jsonl("\n\n").unwrap(), vec![]);
    }

    #[test]
    fn summary_display_lists_stages_and_counters() {
        let rec = TraceRecorder::new(TraceLevel::Summary);
        rec.span(0, StageKind::MapStage, Time(0), Time(500));
        rec.incr(Counter::ScaleOut, 2);
        let text = rec.summary().to_string();
        assert!(text.contains("map_stage"));
        assert!(text.contains("scale_out"));
        assert!(!text.contains("recovery"), "silent stages omitted");
    }

    #[test]
    fn worker_busy_accumulates_into_load_imbalance() {
        let rec = TraceRecorder::new(TraceLevel::Summary);
        // Two batches: bucket 0 ends at 300 µs, buckets 1..3 at 100 µs each.
        rec.worker_busy(&[Duration(200), Duration(50), Duration(50), Duration(50)]);
        rec.worker_busy(&[Duration(100), Duration(50), Duration(50), Duration(50)]);
        let s = rec.summary();
        assert_eq!(s.worker_busy_us, vec![300, 100, 100, 100]);
        // max = 300, mean = 150 → ratio 2.0.
        assert_eq!(s.load_imbalance, Some(2.0));
        assert!(s.to_string().contains("load_imbalance"));

        let off = TraceRecorder::new(TraceLevel::Off);
        off.worker_busy(&[Duration(200)]);
        assert_eq!(off.summary().load_imbalance, None);
    }

    #[test]
    fn stage_kind_names_round_trip() {
        for k in StageKind::ALL {
            assert_eq!(StageKind::from_name(k.name()), Some(k));
        }
        assert_eq!(StageKind::from_name("bogus"), None);
    }

    /// `index` is the discriminant, so `ALL` must list the variants in
    /// declaration order.
    #[test]
    fn all_lists_every_variant_in_declaration_order() {
        for (i, k) in StageKind::ALL.into_iter().enumerate() {
            assert_eq!(k.index(), i, "{k:?}");
        }
        for (i, c) in Counter::ALL.into_iter().enumerate() {
            assert_eq!(c.index(), i, "{c:?}");
        }
    }

    /// A backend that measures its Map phase stamps it under the kind the
    /// driver's cost-model span uses: the two must not share a histogram.
    #[test]
    fn summary_keeps_virtual_spans_and_measured_phases_apart() {
        let rec = TraceRecorder::new(TraceLevel::Summary);
        rec.span(0, StageKind::MapStage, Time(0), Time(1000));
        rec.phase(0, StageKind::MapStage, Duration::from_micros(70));
        rec.phase(0, StageKind::Seal, Duration::from_micros(5));
        let s = rec.summary();
        let map = s.stage(StageKind::MapStage).expect("virtual map stage");
        assert_eq!((map.count, map.total_us, map.max_us), (1, 1000, 1000));
        let wall = s.wall(StageKind::MapStage).expect("measured map stage");
        assert_eq!((wall.count, wall.total_us), (1, 70));
        assert!(s.stage(StageKind::Seal).is_none(), "seal is wall-only");
        assert_eq!(s.wall(StageKind::Seal).unwrap().total_us, 5);
        let text = s.to_string();
        assert!(text.contains("\nmap_stage  "), "{text}");
        assert!(text.contains("\nmap_stage (wall)  "), "{text}");
        assert!(text.contains("\nseal (wall)  "), "{text}");
    }
}
