//! The trace export → report pipeline: a traced engine run's JSON-lines
//! export must round-trip into the report's per-stage breakdown table with
//! totals that reconcile against the run's own `BatchRecord`s.

use prompt_bench::report::stage_breakdown_table;
use prompt_core::partitioner::Technique;
use prompt_core::types::Duration;
use prompt_engine::config::{EngineConfig, OverheadMode};
use prompt_engine::driver::StreamingEngine;
use prompt_engine::job::{Job, ReduceOp};
use prompt_engine::trace::{parse_jsonl, StageKind, TraceEvent, TraceLevel};
use prompt_engine::window::WindowSpec;
use prompt_workloads::datasets;
use prompt_workloads::rate::RateProfile;

#[test]
fn jsonl_export_feeds_the_stage_breakdown() {
    let cfg = EngineConfig {
        batch_interval: Duration::from_secs(1),
        map_tasks: 8,
        reduce_tasks: 8,
        overhead: OverheadMode::Fixed(Duration::from_millis(120)),
        trace: TraceLevel::Full,
        ..EngineConfig::default()
    };
    let mut engine = StreamingEngine::new(
        cfg,
        Technique::Prompt,
        23,
        Job::identity("WordCount", ReduceOp::Count),
    )
    .with_window(WindowSpec::tumbling(Duration::from_secs(2)));
    let mut source = datasets::tweets(RateProfile::Constant { rate: 30_000.0 }, 2_000, 23);
    let (res, rec) = engine.run_traced(&mut source, 10);

    // Round-trip: the table consumes the *parsed export*, not the recorder.
    let jsonl = rec.to_jsonl();
    let events = parse_jsonl(&jsonl).expect("export must parse back");
    assert_eq!(events, rec.events());

    let t = stage_breakdown_table("t", "t", &[("prompt".into(), events.clone())]);
    assert_eq!(t.id, "t");
    let row_of = |stage: &str| {
        t.rows
            .iter()
            .find(|r| r[0] == "prompt" && r[1] == stage)
            .unwrap_or_else(|| panic!("missing row for {stage}"))
    };

    // Per-stage totals in the table reconcile with the BatchRecords.
    let sum_ms = |f: &dyn Fn(&prompt_engine::driver::BatchRecord) -> u64| -> String {
        format!("{:.3}", res.batches.iter().map(f).sum::<u64>() as f64 / 1e3)
    };
    assert_eq!(row_of("map_stage")[3], sum_ms(&|b| b.map_stage.0));
    assert_eq!(row_of("reduce_stage")[3], sum_ms(&|b| b.reduce_stage.0));
    assert_eq!(
        row_of("partition_visible")[3],
        sum_ms(&|b| b.visible_overhead.0)
    );
    assert_eq!(row_of("map_stage")[2], "10"); // one span per batch

    // Processing shares cover all of BatchRecord::processing: they sum to
    // 100% (within the 0.1% rounding of the rendered cells).
    let share: f64 = t
        .rows
        .iter()
        .filter(|r| r[7] != "-")
        .map(|r| r[7].parse::<f64>().unwrap())
        .sum();
    assert!((share - 100.0).abs() < 0.5, "shares sum to {share}");

    // The export also carries the wall-clock partition phases of the
    // ingest pipeline, the record step and the heartbeat order apart, and
    // the commit's window push: one of each per batch.
    for kind in [StageKind::Seal, StageKind::Order, StageKind::WindowCommit] {
        let phases = (events.iter())
            .filter(|e| matches!(e, TraceEvent::Phase { kind: k, .. } if *k == kind))
            .count();
        assert_eq!(phases, 10, "{kind:?}");
    }
    for row in [
        "seal (wall)",
        "order (wall)",
        "partition_materialize (wall)",
        "window_commit (wall)",
    ] {
        assert!(t.rows.iter().any(|r| r[1] == row), "missing row {row}");
    }
}
