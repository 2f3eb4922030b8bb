//! Adaptive partitioner selection: a per-batch policy engine that hot-swaps
//! partitioning strategies at batch boundaries.
//!
//! The paper's Prompt partitioner wins under skew but pays sketch/assignment
//! overhead that plain hashing avoids under uniform load, and no single
//! strategy dominates a stream whose skew, rate and cardinality drift
//! mid-run. Micro-batch boundaries are a natural consistency point — every
//! batch is partitioned from scratch — so a policy layer can swap the
//! partitioner between batches with zero correctness risk.
//!
//! # Protocol
//!
//! The driver calls [`PartitionerPolicy::decide`] once per batch, in strict
//! sequence order, *before* the batch is partitioned; the returned
//! [`PolicyDecision`] names the technique for that batch. After partitioning
//! it feeds the plan's statistics back via [`PartitionerPolicy::observe`].
//! Decisions are therefore a pure function of prior-batch statistics: they
//! cannot depend on the current batch's content, on wall-clock timing, on
//! the trace level, or on pipeline depth. That purity is the determinism
//! contract — an adaptive run is bit-identical to a run forced through the
//! same per-batch technique sequence ([`PolicySpec::Forced`] is exactly
//! that replay mechanism, and the differential oracle, `tests/oracle.rs`,
//! gates it on all three backends).
//!
//! # Scoring
//!
//! [`AdaptivePolicy`] keeps a live [`SpaceSaving`] frequency sketch, re-fed
//! each batch from the plan's key fragments (exact per-batch counts, folded
//! in O(fragments) with weighted updates). At each decision it predicts,
//! for every candidate technique, the normalised MPI the *next* batch would
//! score — hash imbalance is simulated by routing the sketch's tracked keys
//! through the engine's real hash function — plus a fixed modelled
//! per-batch selection overhead (Fig. 14's ordering: Prompt's accumulator
//! costs more than a sketch probe, which costs more than a bare hash).
//! Hash wins under near-uniform key mass, Prompt under skew, and Shuffle
//! when key locality carries no weight (`p3 = 0`, the map-only setting).
//!
//! Hysteresis keeps the policy from flapping: a switch needs the best
//! candidate to beat the incumbent by a relative [`AdaptiveConfig::margin`],
//! and once switched the choice dwells for at least
//! [`AdaptiveConfig::min_dwell`] batches.

use std::collections::VecDeque;

use prompt_core::batch::KeyFragment;
use prompt_core::hash::bucket_of;
use prompt_core::metrics::{MpiWeights, PlanMetrics};
use prompt_core::partitioner::Technique;
use prompt_core::sketch::SpaceSaving;

/// Which partitioner runs each batch: the policy knob on
/// [`EngineConfig`](crate::config::EngineConfig).
#[derive(Clone, Debug, PartialEq)]
pub enum PolicySpec {
    /// One technique for the whole run (the classic behaviour and the
    /// default). [`StreamingEngine::new`](crate::driver::StreamingEngine::new)
    /// normalises this variant to its constructor technique, so existing
    /// call sites keep their meaning.
    Fixed(Technique),
    /// Replay an explicit per-batch technique sequence: batch `seq` uses
    /// `forced[min(seq, len - 1)]`. This is the differential-test oracle —
    /// force the sequence an adaptive run recorded and the outputs must be
    /// bit-identical — and doubles as a scripting hook.
    Forced(Vec<Technique>),
    /// Score candidates each batch and switch at batch boundaries.
    Adaptive(AdaptiveConfig),
}

impl Default for PolicySpec {
    fn default() -> PolicySpec {
        PolicySpec::Fixed(Technique::Prompt)
    }
}

impl PolicySpec {
    /// Whether this is the run-constant (classic) policy.
    pub fn is_fixed(&self) -> bool {
        matches!(self, PolicySpec::Fixed(_))
    }

    /// Validate internal consistency.
    pub fn validate(&self) -> Result<(), String> {
        match self {
            PolicySpec::Fixed(_) => Ok(()),
            PolicySpec::Forced(seq) => {
                if seq.is_empty() {
                    return Err("forced policy needs at least one technique".into());
                }
                Ok(())
            }
            PolicySpec::Adaptive(cfg) => cfg.validate(),
        }
    }
}

/// Tuning of [`AdaptivePolicy`].
#[derive(Clone, Debug, PartialEq)]
pub struct AdaptiveConfig {
    /// Candidate techniques the policy may select between. The first
    /// candidate breaks score ties, so order is part of determinism.
    pub candidates: Vec<Technique>,
    /// Minimum batches between switches (hysteresis dwell). A switch at
    /// batch `s` blocks further switches until batch `s + min_dwell`.
    pub min_dwell: u64,
    /// Relative score margin a challenger must clear: switch only when
    /// `best < incumbent * (1 - margin)`. In `[0, 1)`.
    pub margin: f64,
    /// MPI weights the predicted scores are built from. `p3 = 0` models a
    /// map-only stage (key locality worthless), which is where Shuffle
    /// wins.
    pub weights: MpiWeights,
    /// Heavy-hitter threshold (fraction of batch mass) for the live sketch.
    pub phi: f64,
    /// Counters in the live sketch.
    pub sketch_counters: usize,
}

impl Default for AdaptiveConfig {
    fn default() -> AdaptiveConfig {
        AdaptiveConfig {
            candidates: vec![Technique::Hash, Technique::Prompt, Technique::Shuffle],
            min_dwell: 2,
            margin: 0.05,
            weights: MpiWeights::default(),
            phi: 0.01,
            sketch_counters: 256,
        }
    }
}

impl AdaptiveConfig {
    /// Validate internal consistency.
    pub fn validate(&self) -> Result<(), String> {
        if self.candidates.is_empty() {
            return Err("adaptive policy needs at least one candidate technique".into());
        }
        if self.min_dwell == 0 {
            return Err("adaptive min_dwell must be at least 1".into());
        }
        if !(0.0..1.0).contains(&self.margin) {
            return Err(format!(
                "adaptive margin must be in [0, 1), got {}",
                self.margin
            ));
        }
        if !(self.phi > 0.0 && self.phi < 1.0) {
            return Err(format!("adaptive phi must be in (0, 1), got {}", self.phi));
        }
        if self.sketch_counters == 0 {
            return Err("adaptive sketch needs at least one counter".into());
        }
        self.weights.validate()
    }
}

/// What one batch looked like after partitioning — the policy's only input.
///
/// Everything here is available at *prepare* time on every backend and at
/// every trace level, which is what keeps decisions depth- and
/// trace-invariant.
pub struct BatchObservation<'a> {
    /// Batch sequence number.
    pub seq: u64,
    /// The technique that produced the plan.
    pub technique: Technique,
    /// Tuples in the batch.
    pub n_tuples: usize,
    /// Distinct keys in the batch.
    pub n_keys: usize,
    /// Map tasks (blocks) the batch was cut into.
    pub map_tasks: usize,
    /// Partition-quality metrics of the plan.
    pub metrics: PlanMetrics,
    /// The plan's per-block fragment lists (exact per-key counts) — the
    /// same for a row and a columnar plan.
    pub blocks: &'a [&'a [KeyFragment]],
}

/// One per-batch policy decision — the explicit decision log entry.
#[derive(Clone, Debug, PartialEq)]
pub struct PolicyDecision {
    /// The batch this decision applies to.
    pub seq: u64,
    /// Technique selected for this batch.
    pub technique: Technique,
    /// The technique of the previous batch (equals `technique` unless
    /// `switched`).
    pub prev: Technique,
    /// Whether this decision changed the technique.
    pub switched: bool,
    /// Predicted per-candidate scores (lower is better). Empty while the
    /// policy has no statistics yet, and for policies that don't score.
    pub scores: Vec<(Technique, f64)>,
}

/// A per-batch partitioner-selection policy.
///
/// Implementations must keep [`decide`](PartitionerPolicy::decide) a pure
/// function of construction parameters and prior
/// [`observe`](PartitionerPolicy::observe) calls — never of wall-clock
/// time, trace level, or anything outside the observation protocol.
pub trait PartitionerPolicy: Send {
    /// Policy name for logs and summaries.
    fn name(&self) -> &'static str;

    /// Choose the technique for batch `seq`. Called once per batch, in
    /// strictly increasing `seq` order, before the batch is partitioned.
    fn decide(&mut self, seq: u64) -> PolicyDecision;

    /// Feed back the statistics of the batch just partitioned.
    fn observe(&mut self, obs: &BatchObservation<'_>);
}

/// Build the policy an engine run drives, seeded with the technique of
/// batch 0. `None` for [`PolicySpec::Fixed`]: a run-constant technique needs
/// no policy object (and logs no decisions).
pub fn build_policy(
    spec: &PolicySpec,
    initial: Technique,
    seed: u64,
) -> Option<Box<dyn PartitionerPolicy>> {
    match spec {
        PolicySpec::Fixed(_) => None,
        PolicySpec::Forced(seq) => Some(Box::new(ForcedSequencePolicy::new(seq.clone()))),
        PolicySpec::Adaptive(cfg) => {
            Some(Box::new(AdaptivePolicy::new(cfg.clone(), initial, seed)))
        }
    }
}

/// The modelled per-batch selection overhead of each technique, in
/// normalised-MPI units (the same scale as the predicted scores). The
/// ordering follows the paper's Fig. 14 overhead story: Prompt's
/// accumulator costs more than a heavy-hitter sketch probe, which costs
/// more than candidate hashing, which costs more than a bare hash or
/// round-robin.
///
/// The scale is modelled, not wall-clocked; only the ratio between the two
/// Prompt entries is measured. Over seven traced `benchmark/run.sh
/// --workload zipf_inproc --trace 1` runs (500k-tuple batches) the median
/// `partitioner.partition_ms` is 37 ms for `Prompt` (exact counts, one
/// heartbeat sort) and 86 ms for the paper's budgeted count tree
/// (EXPERIMENTS.md, "Algorithm 1 without the tree"): the default keeps the
/// table's Prompt level, 0.06, and the paper-fidelity variant is charged
/// 86 / 37 ≈ 2.3× that. Read against the cost model's 2 µs per-tuple Map
/// cost the 37 ms would put `Prompt` at 0.037, next to cAM; at that level
/// fixed Prompt outscores the adaptive run on `BENCH_adaptive`'s drift, so
/// re-levelling the whole table against measured baselines is ROADMAP's
/// item, together with what the drift gate should then assert.
pub fn technique_overhead(t: Technique) -> f64 {
    match t {
        Technique::TimeBased => 0.0,
        Technique::Shuffle => 0.005,
        Technique::Hash => 0.01,
        Technique::Pkg(_) => 0.02,
        Technique::Cam(_) => 0.03,
        Technique::DChoices(_) => 0.04,
        Technique::Prompt => 0.06,
        Technique::PromptCountTree => 0.14,
    }
}

/// Replay an explicit per-batch technique sequence: batch `seq` uses
/// `forced[min(seq, len - 1)]`. The differential oracle for adaptive runs.
#[derive(Clone, Debug)]
pub struct ForcedSequencePolicy {
    forced: Vec<Technique>,
}

impl ForcedSequencePolicy {
    /// A policy replaying `forced` (non-empty; the last entry repeats).
    pub fn new(forced: Vec<Technique>) -> ForcedSequencePolicy {
        assert!(!forced.is_empty(), "forced sequence must be non-empty");
        ForcedSequencePolicy { forced }
    }

    fn at(&self, seq: u64) -> Technique {
        let idx = (seq as usize).min(self.forced.len() - 1);
        self.forced[idx]
    }
}

impl PartitionerPolicy for ForcedSequencePolicy {
    fn name(&self) -> &'static str {
        "forced"
    }

    fn decide(&mut self, seq: u64) -> PolicyDecision {
        let technique = self.at(seq);
        let prev = if seq == 0 {
            technique
        } else {
            self.at(seq - 1)
        };
        PolicyDecision {
            seq,
            technique,
            prev,
            switched: technique != prev,
            scores: Vec::new(),
        }
    }

    fn observe(&mut self, _obs: &BatchObservation<'_>) {}
}

/// The statistics snapshot [`AdaptivePolicy`] scores from — everything is
/// reduced to plain numbers at observe time so decisions are cheap and the
/// provenance is explicit.
#[derive(Clone, Copy, Debug, Default)]
struct SkewSnapshot {
    n_tuples: f64,
    n_keys: f64,
    map_tasks: f64,
    /// Estimated mass held by keys above `phi`, floored at the heaviest
    /// single key's share (`0..=1`).
    heavy_mass: f64,
    /// Simulated normalised BSI of hashing this key distribution:
    /// `max_load / avg_load - 1` with tracked keys routed through the
    /// engine's real hash and the untracked tail spread uniformly.
    hash_imbalance: f64,
}

/// The default adaptive policy: score the live frequency sketch and the
/// BSI/BCI/KSR/MPI trail each batch, switch with hysteresis.
pub struct AdaptivePolicy {
    cfg: AdaptiveConfig,
    seed: u64,
    current: Technique,
    last_switch: Option<u64>,
    sketch: SpaceSaving,
    snapshot: Option<SkewSnapshot>,
    /// Recent batch sizes, newest last — the arrival-rate trend input.
    rates: VecDeque<f64>,
}

impl AdaptivePolicy {
    /// A policy starting on `initial` (batch 0's technique — there are no
    /// statistics to score yet). `seed` must be the engine's partitioner
    /// seed so the hash-imbalance simulation routes keys exactly like the
    /// real [`HashPartitioner`](prompt_core::partitioner::HashPartitioner).
    pub fn new(cfg: AdaptiveConfig, initial: Technique, seed: u64) -> AdaptivePolicy {
        cfg.validate().expect("invalid adaptive policy config");
        let sketch = SpaceSaving::new(cfg.sketch_counters);
        AdaptivePolicy {
            cfg,
            seed,
            current: initial,
            last_switch: None,
            sketch,
            snapshot: None,
            rates: VecDeque::new(),
        }
    }

    /// The currently selected technique.
    pub fn current(&self) -> Technique {
        self.current
    }

    /// Multiplicative arrival-rate trend over the recent batches, clamped
    /// to `[0.25, 4]` so one outlier batch cannot swing the predictions.
    fn rate_trend(&self) -> f64 {
        if self.rates.len() < 2 {
            return 1.0;
        }
        let prev = self.rates[self.rates.len() - 2];
        let last = self.rates[self.rates.len() - 1];
        if prev <= 0.0 {
            return 1.0;
        }
        (last / prev).clamp(0.25, 4.0)
    }

    /// Predicted score (lower is better) of running `t` on the next batch.
    fn predicted_score(&self, t: Technique, s: &SkewSnapshot) -> f64 {
        let w = self.cfg.weights;
        let p = s.map_tasks.max(1.0);
        // The trend scales the predicted batch size; imbalance and KSR
        // predictions are share-based, so only the tuples-per-key ratio
        // moves with it.
        let n = (s.n_tuples * self.rate_trend()).max(1.0);
        let k = s.n_keys.max(1.0);
        // Average tuples per key caps how far round-robin can split one.
        let per_key = (n / k).max(1.0);
        let imb = s.hash_imbalance;
        let overhead = technique_overhead(t);
        match t {
            // Block = arrival slot: balanced only if arrivals are; keys
            // spread like shuffle. Model as shuffle with a mild size skew.
            Technique::TimeBased => {
                w.p1 * (imb * 0.5) + w.p2 * (imb * 0.5) + w.p3 * per_key.min(p) + overhead
            }
            // Round-robin: perfect size balance, worst-case key splitting.
            Technique::Shuffle => w.p3 * per_key.min(p) + overhead,
            // Pure key grouping: no splits (KSR = 1), full skew exposure.
            Technique::Hash => w.p1 * imb + w.p2 * imb + w.p3 * 1.0 + overhead,
            // d-way splitting of every key: imbalance shrinks ~d-fold, KSR
            // grows toward d (capped by key multiplicity).
            Technique::Pkg(d) | Technique::Cam(d) => {
                let d = d as f64;
                let ksr = per_key.min(d);
                w.p1 * (imb / d) + w.p2 * (imb / d) + w.p3 * ksr + overhead
            }
            // Only detected heavy hitters split d ways; the tail keeps
            // locality.
            Technique::DChoices(d) => {
                let d = d as f64;
                let ksr = 1.0 + s.heavy_mass * (d - 1.0).min(per_key - 1.0).max(0.0);
                w.p1 * (imb / d) + w.p2 * (imb / d) + w.p3 * ksr + overhead
            }
            // Exact statistics split exactly the keys balance requires:
            // near-zero imbalance, KSR grows only with the heavy mass.
            Technique::Prompt | Technique::PromptCountTree => {
                w.p3 * (1.0 + s.heavy_mass) + overhead
            }
        }
    }
}

impl PartitionerPolicy for AdaptivePolicy {
    fn name(&self) -> &'static str {
        "adaptive"
    }

    fn decide(&mut self, seq: u64) -> PolicyDecision {
        let prev = self.current;
        let mut scores: Vec<(Technique, f64)> = Vec::new();
        let mut switched = false;
        if let Some(s) = self.snapshot {
            for &t in &self.cfg.candidates {
                scores.push((t, self.predicted_score(t, &s)));
            }
            let incumbent = scores
                .iter()
                .find(|(t, _)| *t == prev)
                .map(|&(_, sc)| sc)
                .unwrap_or_else(|| self.predicted_score(prev, &s));
            // First candidate wins ties: strictly-less comparison over the
            // configured order is deterministic under f64 equality.
            let best = scores
                .iter()
                .copied()
                .reduce(|acc, c| if c.1 < acc.1 { c } else { acc });
            let dwell_ok = self
                .last_switch
                .is_none_or(|s0| seq.saturating_sub(s0) >= self.cfg.min_dwell);
            if let Some((best_t, best_score)) = best {
                if dwell_ok && best_t != prev && best_score < incumbent * (1.0 - self.cfg.margin) {
                    self.current = best_t;
                    self.last_switch = Some(seq);
                    switched = true;
                }
            }
        }
        PolicyDecision {
            seq,
            technique: self.current,
            prev,
            switched,
            scores,
        }
    }

    fn observe(&mut self, obs: &BatchObservation<'_>) {
        self.rates.push_back(obs.n_tuples as f64);
        while self.rates.len() > 8 {
            self.rates.pop_front();
        }
        // Re-feed the sketch from this batch's plan fragments: exact
        // per-key counts, folded with weighted updates. Clearing first
        // keeps the statistics fresh under drift; dwell hysteresis supplies
        // the stability.
        self.sketch.clear();
        for f in obs.blocks.iter().flat_map(|b| b.iter()) {
            self.sketch.observe_n(f.key, f.count as u64);
        }
        let total = self.sketch.total().max(1) as f64;
        let tracked = self.sketch.heavy_hitters(0.0);
        let top_share = tracked.first().map_or(0.0, |&(_, c)| c as f64 / total);
        // Floor at the top key's share: a key dominating the batch is heavy
        // mass even when it sits below `phi`.
        let heavy_mass = (self
            .sketch
            .heavy_hitters(self.cfg.phi)
            .iter()
            .map(|&(_, c)| c as f64)
            .sum::<f64>()
            / total)
            .max(top_share);
        // Simulate hashing the sketched distribution into p bins with the
        // engine's real hash; the untracked tail spreads uniformly.
        let p = obs.map_tasks.max(1);
        let mut loads = vec![0.0f64; p];
        let mut tracked_mass = 0.0;
        for &(key, c) in &tracked {
            let share = c as f64 / total;
            loads[bucket_of(self.seed, key, p)] += share;
            tracked_mass += share;
        }
        let tail_each = (1.0 - tracked_mass).max(0.0) / p as f64;
        let max_load = loads.iter().map(|l| l + tail_each).fold(0.0f64, f64::max);
        let raw_imbalance = (max_load * p as f64 - 1.0).max(0.0);
        // Deadband: any stateless assignment of k near-equal keys into p
        // bins shows ~√(2·ln p)·√(p/k) relative imbalance from sampling
        // noise alone (expected max of p near-Gaussian bin loads). Only the
        // excess above that floor is *systematic* skew a smarter partitioner
        // could remove, so only the excess is charged against Hash.
        let k = (obs.n_keys.max(1)) as f64;
        let noise = (p as f64 / k).sqrt() * (2.0 * (p as f64).ln()).sqrt().max(1.0);
        let hash_imbalance = (raw_imbalance - noise).max(0.0);
        self.snapshot = Some(SkewSnapshot {
            n_tuples: obs.n_tuples as f64,
            n_keys: obs.n_keys as f64,
            map_tasks: obs.map_tasks as f64,
            heavy_mass,
            hash_imbalance,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prompt_core::batch::MicroBatch;
    use prompt_core::types::{Interval, Key, Time, Tuple};

    /// A batch with the given per-key counts.
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

    fn observe_batch(policy: &mut AdaptivePolicy, seq: u64, spec: &[(u64, usize)], p: usize) {
        let b = batch(spec);
        let plan = Technique::Hash.build(7).partition(&b, p);
        policy.observe(&BatchObservation {
            seq,
            technique: policy.current(),
            n_tuples: b.len(),
            n_keys: b.distinct_keys(),
            map_tasks: p,
            metrics: PlanMetrics::of(&plan),
            blocks: &plan.block_fragments(),
        });
    }

    fn uniform_spec(keys: u64, each: usize) -> Vec<(u64, usize)> {
        (0..keys).map(|k| (k, each)).collect()
    }

    fn skewed_spec(keys: u64, hot: usize, tail: usize) -> Vec<(u64, usize)> {
        let mut s = vec![(0u64, hot)];
        s.extend((1..keys).map(|k| (k, tail)));
        s
    }

    #[test]
    fn spec_validation() {
        assert!(PolicySpec::default().validate().is_ok());
        assert!(PolicySpec::Forced(vec![]).validate().is_err());
        assert!(PolicySpec::Forced(vec![Technique::Hash]).validate().is_ok());
        let bad = [
            AdaptiveConfig {
                candidates: vec![],
                ..AdaptiveConfig::default()
            },
            AdaptiveConfig {
                min_dwell: 0,
                ..AdaptiveConfig::default()
            },
            AdaptiveConfig {
                margin: 1.0,
                ..AdaptiveConfig::default()
            },
            AdaptiveConfig {
                phi: 0.0,
                ..AdaptiveConfig::default()
            },
            AdaptiveConfig {
                sketch_counters: 0,
                ..AdaptiveConfig::default()
            },
            AdaptiveConfig {
                weights: MpiWeights {
                    p1: 0.9,
                    p2: 0.9,
                    p3: 0.9,
                },
                ..AdaptiveConfig::default()
            },
        ];
        for cfg in bad {
            assert!(
                PolicySpec::Adaptive(cfg.clone()).validate().is_err(),
                "{cfg:?}"
            );
        }
        assert!(PolicySpec::Adaptive(AdaptiveConfig::default())
            .validate()
            .is_ok());
    }

    #[test]
    fn forced_sequence_replays_and_repeats_last() {
        let mut p =
            ForcedSequencePolicy::new(vec![Technique::Hash, Technique::Hash, Technique::Prompt]);
        let d0 = p.decide(0);
        assert_eq!(d0.technique, Technique::Hash);
        assert!(!d0.switched);
        let d2 = p.decide(2);
        assert_eq!(d2.technique, Technique::Prompt);
        assert!(d2.switched);
        let d9 = p.decide(9);
        assert_eq!(d9.technique, Technique::Prompt);
        assert!(!d9.switched);
    }

    #[test]
    fn adaptive_picks_hash_under_uniform_load() {
        let mut policy = AdaptivePolicy::new(AdaptiveConfig::default(), Technique::Prompt, 7);
        // Batch 0 has no statistics: stays on the initial technique.
        let d0 = policy.decide(0);
        assert_eq!(d0.technique, Technique::Prompt);
        assert!(d0.scores.is_empty());
        for seq in 0..4 {
            observe_batch(&mut policy, seq, &uniform_spec(200, 20), 8);
            policy.decide(seq + 1);
        }
        assert_eq!(
            policy.current(),
            Technique::Hash,
            "near-uniform key mass must settle on Hash"
        );
    }

    #[test]
    fn adaptive_picks_prompt_under_heavy_skew() {
        let mut policy = AdaptivePolicy::new(AdaptiveConfig::default(), Technique::Hash, 7);
        for seq in 0..4 {
            observe_batch(&mut policy, seq, &skewed_spec(50, 4_000, 10), 8);
            policy.decide(seq + 1);
        }
        assert_eq!(
            policy.current(),
            Technique::Prompt,
            "a dominant hot key must drive the policy to Prompt"
        );
    }

    #[test]
    fn map_only_weights_pick_shuffle() {
        let cfg = AdaptiveConfig {
            weights: MpiWeights {
                p1: 0.5,
                p2: 0.5,
                p3: 0.0,
            },
            ..AdaptiveConfig::default()
        };
        let mut policy = AdaptivePolicy::new(cfg, Technique::Hash, 7);
        for seq in 0..4 {
            observe_batch(&mut policy, seq, &skewed_spec(50, 4_000, 10), 8);
            policy.decide(seq + 1);
        }
        assert_eq!(
            policy.current(),
            Technique::Shuffle,
            "with key locality worthless, perfect balance at minimal overhead wins"
        );
    }

    #[test]
    fn hysteresis_dwell_blocks_consecutive_switches() {
        let cfg = AdaptiveConfig {
            min_dwell: 3,
            ..AdaptiveConfig::default()
        };
        let mut policy = AdaptivePolicy::new(cfg, Technique::Hash, 7);
        // Alternate uniform and skewed batches: without dwell this would
        // flap every batch.
        let mut switches: Vec<u64> = Vec::new();
        for seq in 0..20u64 {
            let spec = if seq % 2 == 0 {
                uniform_spec(200, 20)
            } else {
                skewed_spec(50, 4_000, 10)
            };
            observe_batch(&mut policy, seq, &spec, 8);
            let d = policy.decide(seq + 1);
            if d.switched {
                switches.push(seq + 1);
            }
        }
        for w in switches.windows(2) {
            assert!(w[1] - w[0] >= 3, "switches too close: {switches:?}");
        }
    }

    #[test]
    fn decisions_are_deterministic() {
        let run = || {
            let mut policy = AdaptivePolicy::new(AdaptiveConfig::default(), Technique::Prompt, 7);
            let mut log = Vec::new();
            for seq in 0..8u64 {
                let spec = if seq < 4 {
                    uniform_spec(200, 20)
                } else {
                    skewed_spec(50, 4_000, 10)
                };
                observe_batch(&mut policy, seq, &spec, 8);
                log.push(policy.decide(seq + 1));
            }
            log
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn overhead_table_orders_hash_prompt_count_tree() {
        // Measured partition time: Hash < Prompt (exact counts, one sort) <
        // the paper's budgeted count tree, at about 2.3× the exact buffer.
        let prompt = technique_overhead(Technique::Prompt);
        let tree = technique_overhead(Technique::PromptCountTree);
        assert!(prompt > technique_overhead(Technique::Hash));
        assert!(tree > 2.0 * prompt && tree < 3.0 * prompt);
        assert!(technique_overhead(Technique::Hash) > technique_overhead(Technique::Shuffle));
        assert_eq!(technique_overhead(Technique::TimeBased), 0.0);
    }
}
