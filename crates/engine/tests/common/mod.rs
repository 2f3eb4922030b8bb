//! What every differential suite asserts about a pair of runs, once.
#![allow(dead_code)] // each suite uses the half it needs

use prompt_core::types::Duration;
use prompt_engine::prelude::*;

/// Full bit-identity — every answer and every decision, as
/// [`RunResult::first_difference`] defines it.
pub fn assert_runs_identical(label: &str, oracle: &RunResult, other: &RunResult) {
    assert_eq!(oracle.first_difference(other), None, "{label}");
}

/// Per batch, the `PROCESSING_KINDS` spans must tile `[start, start +
/// processing]` with no gaps — whatever backend, layout, depth or policy ran
/// the batch, and however execution overlapped on the wall clock: spans are
/// applied at commit, and wall-clock phases never enter virtual time. The
/// queue-wait span is the queue delay and the accumulate span the (1 s)
/// batch interval.
pub fn assert_spans_tile(label: &str, res: &RunResult, rec: &TraceRecorder) {
    let events = rec.events();
    for b in &res.batches {
        let spans_of = |kind: StageKind| -> u64 {
            let of_batch = events.iter().filter(|e| {
                matches!(e, TraceEvent::Span { seq, kind: k, .. } if *seq == b.seq && *k == kind)
            });
            of_batch.map(|e| e.span_us()).sum()
        };
        let at = format!("{label} batch {}", b.seq);
        let processing: u64 = PROCESSING_KINDS.iter().map(|&k| spans_of(k)).sum();
        assert_eq!(processing, b.processing.0, "{at}: processing spans");
        assert_eq!(
            spans_of(StageKind::QueueWait),
            b.queue_delay.0,
            "{at}: queue span"
        );
        let interval = Duration::from_secs(1).0;
        assert_eq!(
            spans_of(StageKind::Accumulate),
            interval,
            "{at}: accumulate span"
        );
    }
}
