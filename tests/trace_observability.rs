//! Differential safety net for the batch-lifecycle trace layer: every span
//! the recorder emits must reconcile exactly with the `BatchRecord` the
//! driver already reports, and the JSON-lines export must round-trip.
//!
//! Shard/thread counts for the parallel ingest pipeline come from
//! `PROMPT_INGEST_SHARDS` / `PROMPT_INGEST_THREADS` (defaults 4/2), so CI
//! can re-run the suite with a different parallel geometry.

use prompt_core::partitioner::Technique;
use prompt_core::types::Duration;
use prompt_engine::config::{Backend, EngineConfig, OverheadMode};
use prompt_engine::driver::StreamingEngine;
use prompt_engine::elasticity::ScalerConfig;
use prompt_engine::job::{Job, ReduceOp};
use prompt_engine::recovery::FaultPlan;
use prompt_engine::straggler::{Stage, StragglerPlan};
use prompt_engine::trace::{
    parse_jsonl, to_jsonl, Counter, StageKind, TraceEvent, TraceLevel, TraceRecorder,
    PROCESSING_KINDS,
};
use prompt_workloads::datasets;
use prompt_workloads::rate::RateProfile;
use proptest::collection::vec;
use proptest::prelude::*;

fn env_or(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn traced_config() -> EngineConfig {
    EngineConfig {
        batch_interval: Duration::from_secs(1),
        map_tasks: 8,
        reduce_tasks: 8,
        // Fixed overhead larger than the early-release slack, so the
        // partition_visible span is non-zero and participates in the
        // reconciliation.
        overhead: OverheadMode::Fixed(Duration::from_millis(120)),
        ingest_shards: env_or("PROMPT_INGEST_SHARDS", 4),
        ingest_threads: env_or("PROMPT_INGEST_THREADS", 2),
        trace: TraceLevel::Full,
        ..EngineConfig::default()
    }
}

fn run_traced(
    cfg: EngineConfig,
    batches: usize,
) -> (prompt_engine::driver::RunResult, TraceRecorder) {
    let mut engine = StreamingEngine::new(
        cfg,
        Technique::Prompt,
        23,
        Job::identity("WordCount", ReduceOp::Count),
    )
    .with_stragglers(StragglerPlan::none().slow(2, Stage::Map, 0, 3.0))
    .with_fault_tolerance(2, FaultPlan::none().lose_once(3));
    let mut source = datasets::tweets(
        RateProfile::Sinusoidal {
            base: 30_000.0,
            amplitude: 12_000.0,
            period: Duration::from_millis(5_500),
        },
        2_000,
        23,
    );
    engine.run_traced(&mut source, batches)
}

/// The acceptance criterion of the observability layer: for every batch of a
/// run through the threaded ingest backend, the recorded processing spans
/// sum to `BatchRecord::processing` exactly, and the accumulate/queue spans
/// match the interval and queue delay.
#[test]
fn spans_reconcile_with_batch_records() {
    let (res, rec) = run_traced(traced_config(), 12);
    assert_eq!(res.batches.len(), 12);
    let events = rec.events();
    assert!(!events.is_empty());
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
            "batch {}: processing spans must sum to BatchRecord::processing",
            b.seq
        );
        assert_eq!(
            spans_of(StageKind::MapStage),
            b.map_stage.0,
            "batch {}",
            b.seq
        );
        assert_eq!(
            spans_of(StageKind::QueueWait),
            b.queue_delay.0,
            "batch {}",
            b.seq
        );
        assert_eq!(
            spans_of(StageKind::Accumulate),
            Duration::from_secs(1).0,
            "batch {}: accumulate span is the batch interval",
            b.seq
        );
        assert_eq!(
            spans_of(StageKind::PartitionVisible),
            b.visible_overhead.0,
            "batch {}",
            b.seq
        );
    }
    // Counters agree with the run result.
    assert_eq!(rec.counter(Counter::Batches), 12);
    let tuples: usize = res.batches.iter().map(|b| b.n_tuples).sum();
    assert_eq!(rec.counter(Counter::Tuples), tuples as u64);
    assert_eq!(rec.counter(Counter::Recoveries), res.recoveries);
    assert_eq!(rec.counter(Counter::Stragglers), 1);
    // The recovery recompute shows up as its own processing span.
    assert!(events.iter().any(|e| matches!(
        e,
        TraceEvent::Span {
            seq: 3,
            kind: StageKind::Recovery,
            ..
        }
    )));
}

/// The summary of the virtual Map stage is the same on every backend: the
/// threaded backend and the worker fleet also stamp *measured* Map / Reduce
/// phases under the same stage kinds, and those are summarised apart.
#[test]
fn jsonl_export_round_trips_and_summarizes() {
    for backend in [
        Backend::InProcess,
        Backend::Threaded { threads: 2 },
        Backend::Distributed {
            workers: 2,
            base_port: 0,
        },
    ] {
        let cfg = EngineConfig {
            backend,
            ..traced_config()
        };
        let (res, rec) = run_traced(cfg, 8);
        let events = rec.events();
        let parsed = parse_jsonl(&rec.to_jsonl()).expect("export must parse back");
        assert_eq!(parsed, events, "JSONL round-trip must be lossless");

        let summary = rec.summary();
        let map = summary
            .stage(StageKind::MapStage)
            .expect("map stage summary");
        // One map-stage span per batch; the recovery recompute is folded into
        // its own Recovery span, so count and total match the records exactly.
        assert_eq!(map.count, 8, "{backend:?}");
        let total: u64 = res.batches.iter().map(|b| b.map_stage.0).sum();
        assert_eq!(map.total_us, total, "{backend:?}");
        assert!(map.p50_us > 0 && map.p95_us >= map.p50_us);
        assert_eq!(
            map.max_us,
            res.batches.iter().map(|b| b.map_stage.0).max().unwrap(),
            "{backend:?}"
        );
        // Only a backend that really runs the stage measures it.
        let measured = summary.wall(StageKind::MapStage).map_or(0, |s| s.count);
        assert_eq!(measured > 0, backend != Backend::InProcess, "{backend:?}");
    }
}

#[test]
fn elasticity_and_zone_events_are_recorded() {
    let mut cfg = traced_config();
    cfg.elasticity = Some(ScalerConfig::default());
    let (res, rec) = run_traced(cfg, 20);
    assert_eq!(res.batches.len(), 20);
    let events = rec.events();
    // Zone events fire at least once (the first batch establishes a zone).
    assert!(events.iter().any(|e| matches!(e, TraceEvent::Zone { .. })));
    // Scale actions and the scaler's decision counters stay consistent.
    let scale_events = events
        .iter()
        .filter(|e| matches!(e, TraceEvent::Scale { .. }))
        .count() as u64;
    assert_eq!(
        scale_events,
        rec.counter(Counter::ScaleOut) + rec.counter(Counter::ScaleIn)
    );
    assert_eq!(rec.counter(Counter::GraceEntries), scale_events);
}

#[test]
fn off_level_records_nothing() {
    let mut cfg = traced_config();
    cfg.trace = TraceLevel::Off;
    let (res, rec) = run_traced(cfg, 6);
    assert_eq!(res.batches.len(), 6);
    assert!(rec.events().is_empty());
    assert_eq!(rec.counter(Counter::Batches), 0);
    assert!(rec.summary().stages.is_empty());
}

/// Traced and untraced runs are virtual-time identical: tracing observes the
/// lifecycle, it never perturbs it.
#[test]
fn tracing_does_not_change_the_run() {
    let mut cfg = traced_config();
    cfg.overhead = OverheadMode::Fixed(Duration::from_millis(120));
    let (traced, _) = run_traced(cfg.clone(), 10);
    cfg.trace = TraceLevel::Off;
    let (untraced, _) = run_traced(cfg, 10);
    assert_eq!(traced.batches.len(), untraced.batches.len());
    for (a, b) in traced.batches.iter().zip(&untraced.batches) {
        assert_eq!(a.processing, b.processing, "batch {}", a.seq);
        assert_eq!(a.latency, b.latency, "batch {}", a.seq);
        assert_eq!(a.plan_metrics, b.plan_metrics, "batch {}", a.seq);
    }
}

/// What hostile trace lines are made of: whole events, their pieces, values
/// a number parser chokes on, multi-byte text (the parser slices by byte
/// offset) and the punctuation that opens, closes and separates fields.
const TRACE_VOCABULARY: [&str; 41] = [
    "{\"type\":\"span\",\"seq\":1,\"kind\":\"seal\",\"start_us\":9,\"end_us\":3}",
    "{\"type\":\"span\",\"seq\":1,\"kind\":\"map_stage\",\"start_us\":5,\"end_us\":9}",
    "{\"type\":\"phase\",\"seq\":2,\"kind\":\"scatter\",\"wall_us\":7}",
    "{\"type\":\"zone\",\"seq\":3,\"zone\":2,\"w\":0.5}",
    "{\"type\":\"probe\",\"rate\":1e3,\"sustainable\":true}",
    "{\"type\":\"rebalance\",\"seq\":4,\"version\":1,\"moves\":2,\"imbalance\":1.5,\"observed_seq\":null}",
    "{\"type\":\"policy_switch\",\"seq\":5,\"from\":\"hash\",\"to\":\"prompt\"}",
    "{\"type\":\"compactor\",\"busy_us\":1,\"wait_us\":2}",
    "{\"type\":",
    "\"type\":\"span\"",
    "\"type\":\"warp\"",
    "\"seq\":",
    "\"kind\":\"reduce_stage\"",
    "\"kind\":\"nope\"",
    "\"start_us\":9,\"end_us\":3",
    "\"end_us\":",
    "\"observed_seq\":",
    "\"sustainable\":maybe",
    "18446744073709551615",
    "18446744073709551616",
    "99999999999999999999999999999999999999",
    "-1",
    "1e999",
    "NaN",
    "inf",
    "0x10",
    "null",
    "é",
    "漢字",
    "\u{1F980}",
    "\\\"",
    "\"",
    "{",
    "}",
    "[[[[",
    ":",
    ",",
    " ",
    "\t",
    "\r",
    "\n",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    /// ROADMAP item 10 (1), the trace half: text that never was an export —
    /// not a mutation of one — parses to events or to an error naming a
    /// line; never a panic (a slice off a char boundary, an overflow), never
    /// more events than lines. What parsed is a trace: its spans have a
    /// length, and it exports and parses back to itself.
    #[test]
    fn arbitrary_lines_are_an_error_or_events(
        pieces in vec((0usize..TRACE_VOCABULARY.len() + 4, any::<u32>()), 0..60),
    ) {
        let text: String = pieces
            .into_iter()
            .map(|(pick, raw)| match TRACE_VOCABULARY.get(pick) {
                Some(piece) => piece.to_string(),
                None => char::from_u32(raw % 0x11_0000).unwrap_or('\u{FFFD}').to_string(),
            })
            .collect();
        match parse_jsonl(&text) {
            Ok(events) => {
                prop_assert!(events.len() <= text.lines().count());
                let _: u64 = events.iter().map(TraceEvent::span_us).sum();
                let exported = to_jsonl(&events);
                let again = parse_jsonl(&exported).map(|events| to_jsonl(&events));
                prop_assert_eq!(again, Ok(exported));
            }
            Err(e) => prop_assert!(e.starts_with("line "), "{e}"),
        }
    }
}

/// The one failure the property above has found, pinned (it is the first
/// line of its vocabulary): `span_us` subtracts, so a span that ends before
/// it starts used to parse and then overflow in whoever read it.
#[test]
fn a_span_that_ends_before_it_starts_is_a_parse_error() {
    let line = "{\"type\":\"span\",\"seq\":1,\"kind\":\"map_stage\",\"start_us\":9,\"end_us\":3}";
    let err = parse_jsonl(line).expect_err("no such span");
    assert!(err.contains("ends before it starts"), "{err}");
}
