//! Property-based tests of the v2 wire codec's data plane: the
//! column-slice Map-task encoder must emit **byte-identical** frames to the
//! row-path `Message::MapTask` encoding for every partitioning of every
//! arrival stream — same bytes on the wire, and a decode that round-trips to
//! the row message. This is what lets the
//! distributed driver swap the columnar plane in without the workers (or
//! any capture of the traffic) being able to tell.

use prompt_core::batch::{Columns, MicroBatch};
use prompt_core::bytes::CodecError;
use prompt_core::columnar::ColumnarPlan;
use prompt_core::partitioner::Technique;
use prompt_core::types::{Interval, Key, Time, Tuple};
use prompt_engine::job::{JobSpec, MapSpec, ReduceOp};
use prompt_engine::net::wire::{
    encode_map_task, encode_map_task_columnar, Message, WireError, HEADER_LEN,
};
use proptest::prelude::*;

/// NaN-free f64 payloads with signed zeros, subnormals and extreme
/// magnitudes kept common (the codec carries raw bits, so these are the
/// cases where a sloppy conversion would differ).
fn value_strategy() -> impl Strategy<Value = f64> {
    (0u8..12, -1e12f64..1e12f64).prop_map(|(sel, v)| match sel {
        6 => 0.0,
        7 => -0.0,
        8 => f64::MIN_POSITIVE,
        9 => -f64::MIN_POSITIVE / 2.0,
        10 => 1.7e308,
        11 => 5e-324,
        _ => v,
    })
}

/// An arrival stream: (key, inter-arrival µs, value) triples.
fn stream_strategy() -> impl Strategy<Value = Vec<(u64, u64, f64)>> {
    proptest::collection::vec((0u64..30, 1u64..3_000, value_strategy()), 1..400)
}

fn build_batch(stream: &[(u64, u64, f64)]) -> MicroBatch {
    let mut ts = 0u64;
    let tuples: Vec<Tuple> = stream
        .iter()
        .map(|&(key, gap, value)| {
            ts += gap;
            Tuple {
                ts: Time::from_micros(ts),
                key: Key(key),
                value,
            }
        })
        .collect();
    MicroBatch::new(tuples, Interval::new(Time::ZERO, Time::from_micros(ts + 1)))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// For every block of every plan, the columnar encoder's frame equals
    /// the row encoder's frame byte for byte and decodes back to the row
    /// message, as a frame carries it: runs and values, no fragment table.
    #[test]
    fn columnar_frames_are_byte_identical_to_row_frames(
        stream in stream_strategy(),
        p in 1usize..6,
        seq in 0u64..1_000_000,
        epoch in 0u32..64,
    ) {
        let batch = build_batch(&stream);
        let spec = JobSpec { map: MapSpec::Identity, reduce: ReduceOp::Sum };
        let plan = Technique::Prompt.build(7).partition(&batch, p);
        let cols = ColumnarPlan::from_row_plan(&plan);
        prop_assert_eq!(cols.blocks.len(), plan.blocks.len());
        for (block_id, (rb, cb)) in plan.blocks.iter().zip(&cols.blocks).enumerate() {
            let msg = Message::MapTask {
                seq,
                epoch,
                block_id: block_id as u32,
                job: spec,
                block: rb.clone(),
            };
            let want = msg.encode();
            let frame = encode_map_task_columnar(
                seq,
                epoch,
                block_id as u32,
                &spec,
                &cols.arena,
                cb,
            );
            prop_assert_eq!(&frame, &want, "block {} frame bytes", block_id);
            let decoded = Message::decode(&frame).expect("well-formed frame");
            prop_assert_eq!(decoded, msg, "block {} decode", block_id);
        }
    }

    /// The same byte-identity holds for Prompt's *native* columnar plan
    /// (sealed straight into columns, never materialized as rows): its
    /// frames match the frames of its own row rendering.
    #[test]
    fn native_columnar_plan_encodes_identically(
        stream in stream_strategy(),
        p in 1usize..6,
    ) {
        let batch = build_batch(&stream);
        let spec = JobSpec { map: MapSpec::Identity, reduce: ReduceOp::Count };
        let (cols, _) = Technique::Prompt
            .build(7)
            .partition_columnar(&batch, p)
            .expect("Prompt has a columnar path");
        let rows = cols.to_row_plan();
        for (block_id, (rb, cb)) in rows.blocks.iter().zip(&cols.blocks).enumerate() {
            let msg = Message::MapTask {
                seq: 3,
                epoch: 1,
                block_id: block_id as u32,
                job: spec,
                block: rb.clone(),
            };
            let frame = encode_map_task_columnar(3, 1, block_id as u32, &spec, &cols.arena, cb);
            prop_assert_eq!(&frame, &msg.encode(), "block {}", block_id);
        }
    }

    /// Every block of every technique's plan, sent to each job, decodes to
    /// what that job reads: its runs and values, or under a count its runs
    /// alone, the same size. The frame with its reduce tag turned to a job
    /// that reads the other columns is `Malformed`: a value column under a
    /// count, or runs alone under a job that reads values.
    #[test]
    fn a_map_frame_carries_the_columns_its_job_reads(
        stream in stream_strategy(),
        p in 1usize..6,
        technique in 0usize..Technique::EVALUATION_SET.len(),
    ) {
        let batch = build_batch(&stream);
        let plan = Technique::EVALUATION_SET[technique].build(7).partition(&batch, p);
        let ops = [ReduceOp::Sum, ReduceOp::Count, ReduceOp::Max, ReduceOp::Min];
        let malformed = |what| Err(WireError::Codec(CodecError::Malformed(what)));
        // The reduce tag closes the task header.
        let tag_at = HEADER_LEN + 17;
        for (block_id, block) in plan.blocks.iter().enumerate() {
            for reduce in ops {
                let spec = JobSpec { map: MapSpec::Identity, reduce };
                let frame = encode_map_task(5, 0, block_id as u32, &spec, block);
                let Message::MapTask { block: read, .. } = Message::decode(&frame).unwrap() else {
                    panic!("a Map frame decoded to another message");
                };
                let mut want = block.clone();
                if spec.columns() == Columns::Runs {
                    want.values.clear();
                }
                prop_assert_eq!(&read, &want, "{:?} block {}", reduce, block_id);
                prop_assert_eq!(read.size(), block.size());

                if block.size() == 0 {
                    continue;
                }
                for other in ops.into_iter().filter(|&o| o != reduce) {
                    let other_spec = JobSpec { map: MapSpec::Identity, reduce: other };
                    if other_spec.columns() == spec.columns() {
                        continue;
                    }
                    let mut forged = frame.clone();
                    forged[tag_at] = other.wire_code();
                    let what = match other_spec.columns() {
                        Columns::Runs => "a value column under a job that reads none",
                        Columns::RunsAndValues => "runs do not sum to the value count",
                    };
                    prop_assert_eq!(Message::decode(&forged), malformed(what));
                }
            }
        }
    }
}
