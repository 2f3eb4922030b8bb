//! Property tests for the adaptive partitioner-selection policy.
//!
//! The hysteresis invariant: however the workload flaps between uniform and
//! skewed batches, [`AdaptivePolicy`] never switches techniques more than
//! once per [`AdaptiveConfig::min_dwell`] window — consecutive switch
//! sequence numbers are always at least `min_dwell` apart — and its
//! decision log is a deterministic function of the observations. At the
//! engine level, the per-batch technique choices are invariant to the
//! trace level (`Off`/`Summary`/`Full` runs decide identically).

use prompt_core::batch::MicroBatch;
use prompt_core::metrics::PlanMetrics;
use prompt_core::partitioner::Technique;
use prompt_core::types::{Duration, Interval, Key, Time, Tuple};
use prompt_engine::prelude::*;
use proptest::prelude::*;

/// A batch of `spec` = per-key tuple counts, round-robin interleaved.
fn batch(spec: &[(u64, usize)]) -> MicroBatch {
    let total: usize = spec.iter().map(|&(_, c)| c).sum();
    let iv = Interval::new(Time::ZERO, Time::from_secs(1));
    let step = iv.len().0 / (total.max(1) as u64 + 1);
    let mut tuples = Vec::new();
    let mut ts = 0;
    let mut remaining: Vec<(u64, usize)> = spec.to_vec();
    while tuples.len() < total {
        for r in remaining.iter_mut() {
            if r.1 > 0 {
                r.1 -= 1;
                ts += step;
                tuples.push(Tuple::keyed(Time::from_micros(ts), Key(r.0)));
            }
        }
    }
    MicroBatch::new(tuples, iv)
}

/// Drive a policy through `n` batches whose skewness follows the bits of
/// `pattern` (bit set → one hot key holds half the mass), returning the
/// decision log.
fn drive(policy: &mut AdaptivePolicy, n: u64, pattern: u64, p: usize) -> Vec<PolicyDecision> {
    let mut log = Vec::new();
    for seq in 0..n {
        let d = policy.decide(seq);
        let spec: Vec<(u64, usize)> = if pattern >> (seq % 64) & 1 == 1 {
            let mut s = vec![(0u64, 300)];
            s.extend((1..31u64).map(|k| (k, 10)));
            s
        } else {
            (0..200u64).map(|k| (k, 3)).collect()
        };
        let b = batch(&spec);
        let plan = Technique::Hash.build(7).partition(&b, p);
        policy.observe(&BatchObservation {
            seq,
            technique: d.technique,
            n_tuples: b.len(),
            n_keys: b.distinct_keys(),
            map_tasks: p,
            metrics: PlanMetrics::of(&plan),
            blocks: &plan.block_fragments(),
        });
        log.push(d);
    }
    log
}

/// The hysteresis property itself, shared by the generated cases and the
/// pinned regression replay: switch gaps ≥ `min_dwell`, log deterministic.
fn check_hysteresis(
    min_dwell: u64,
    margin: f64,
    pattern: u64,
    n: u64,
    initial: u8,
) -> Result<(), TestCaseError> {
    let cfg = AdaptiveConfig {
        min_dwell,
        margin,
        ..AdaptiveConfig::default()
    };
    let initial = [Technique::Hash, Technique::Prompt, Technique::Shuffle][initial as usize % 3];
    let mut policy = AdaptivePolicy::new(cfg.clone(), initial, 7);
    let log = drive(&mut policy, n, pattern, 8);
    let switches: Vec<u64> = log.iter().filter(|d| d.switched).map(|d| d.seq).collect();
    for w in switches.windows(2) {
        prop_assert!(
            w[1] - w[0] >= min_dwell,
            "switches at {:?} violate min_dwell {}",
            switches,
            min_dwell
        );
    }
    for d in &log {
        prop_assert_eq!(d.switched, d.technique != d.prev, "switch flag coherence");
    }
    let mut replay = AdaptivePolicy::new(cfg, initial, 7);
    prop_assert_eq!(
        &log,
        &drive(&mut replay, n, pattern, 8),
        "decision log must be deterministic"
    );
    Ok(())
}

/// One engine run over a pattern-driven drifting source.
fn engine_run(trace: TraceLevel, pattern: u64, seed: u64) -> RunResult {
    let cfg = EngineConfig {
        batch_interval: Duration::from_secs(1),
        map_tasks: 4,
        reduce_tasks: 3,
        cluster: Cluster::new(2, 4),
        trace,
        policy: PolicySpec::Adaptive(AdaptiveConfig::default()),
        ..EngineConfig::default()
    };
    let mut engine = StreamingEngine::new(
        cfg,
        Technique::Hash,
        seed,
        Job::identity("count", ReduceOp::Count),
    );
    let mut src = move |iv: Interval, out: &mut Vec<Tuple>| {
        let b = iv.start.0 / 1_000_000;
        let skewed = pattern >> (b % 64) & 1 == 1;
        let step = iv.len().0 / 201;
        for i in 0..200usize {
            let key = if skewed {
                if i % 2 == 0 {
                    0
                } else {
                    1 + (i as u64 % 20)
                }
            } else {
                i as u64
            };
            out.push(Tuple::keyed(
                Time(iv.start.0 + step * (i as u64 + 1)),
                Key(key),
            ));
        }
    };
    let (res, _) = engine.run_traced(&mut src, 6);
    res
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn hysteresis_never_switches_within_a_dwell_window(
        min_dwell in 1u64..6,
        margin in 0.0f64..0.4,
        pattern in any::<u64>(),
        n in 8u64..28,
        initial in 0u8..3,
    ) {
        check_hysteresis(min_dwell, margin, pattern, n, initial)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn engine_decisions_are_trace_level_invariant(
        pattern in any::<u64>(),
        seed in any::<u64>(),
    ) {
        let full = engine_run(TraceLevel::Full, pattern, seed);
        for trace in [TraceLevel::Off, TraceLevel::Summary] {
            let other = engine_run(trace, pattern, seed);
            let seq_of = |r: &RunResult| -> Vec<Technique> {
                r.batches.iter().map(|b| b.technique).collect()
            };
            prop_assert_eq!(seq_of(&full), seq_of(&other), "trace {:?}", trace);
            prop_assert_eq!(&full.policy_decisions, &other.policy_decisions);
        }
    }
}

/// Replay of the checked-in regression seed (see
/// `policy_props.proptest-regressions`): the flappiest configuration —
/// zero margin, an alternating uniform/skewed pattern, and a dwell of 3 —
/// which without hysteresis would switch every batch.
#[test]
fn pinned_regression_alternating_pattern_dwell_3() {
    check_hysteresis(3, 0.0, 0xAAAA_AAAA_AAAA_AAAA, 24, 0).unwrap();
}
