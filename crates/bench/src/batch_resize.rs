//! Adaptive batch resizing — the *orthogonal* prior approach (§9.3).
//!
//! Das et al. (SoCC'14) stabilise a micro-batch engine by resizing the
//! batch interval until processing time fits inside it (a fixed-point
//! iteration over a learned processing-time model); Zhang et al. (ICAC'16)
//! fit regression models for batch/block sizes. Both treat the engine as a
//! black box: they restore stability but surrender latency, which is the
//! paper's argument for attacking *partitioning* instead ("batch resizing
//! … may lead to delays in result delivery", §1).
//!
//! This module implements the fixed-point controller and a driver loop with
//! a per-batch variable interval, so ablation A4
//! ([`crate::experiments::ablation`], its one caller) can reproduce that
//! latency-vs-stability trade against Prompt's fixed-interval operation.

use std::collections::VecDeque;

use prompt_core::batch::MicroBatch;
use prompt_core::partitioner::Technique;
use prompt_core::types::{Duration, Interval, Time};

use prompt_core::source::TupleSource;
use prompt_engine::config::EngineConfig;
use prompt_engine::driver::ReduceStrategy;
use prompt_engine::job::Job;
use prompt_engine::stage::execute_batch;

/// Fixed-point batch-interval controller.
///
/// Learns an affine processing-time model `p(I) ≈ a·I + b` from recent
/// `(interval, processing)` observations and proposes the interval whose
/// predicted processing time is `headroom · I` — the fixed point that keeps
/// the system just inside the stability line. Changes are slew-limited to
/// ±`max_step` per batch, as in the original controller.
/// # Examples
///
/// ```
/// use prompt_bench::batch_resize::BatchSizeController;
/// use prompt_core::types::Duration;
///
/// let mut ctl = BatchSizeController::new(
///     Duration::from_millis(100),
///     Duration::from_secs(10),
///     0.9,
/// );
/// // Plant: processing = 0.4·I + 0.3 s → fixed point at 0.6 s.
/// let mut interval = Duration::from_secs(2);
/// for _ in 0..40 {
///     let processing = interval.mul_f64(0.4) + Duration::from_millis(300);
///     interval = ctl.next_interval(interval, processing);
/// }
/// assert!((0.55..0.65).contains(&interval.as_secs_f64()));
/// ```
#[derive(Debug, Clone)]
pub struct BatchSizeController {
    /// Smallest allowed interval.
    pub min: Duration,
    /// Largest allowed interval.
    pub max: Duration,
    /// Target utilisation ρ (processing / interval at the fixed point).
    pub headroom: f64,
    /// Maximum relative change per step (e.g. 0.25 = ±25 %).
    pub max_step: f64,
    history: VecDeque<(f64, f64)>, // (interval secs, processing secs)
}

impl BatchSizeController {
    /// A controller with the given bounds and ρ.
    pub fn new(min: Duration, max: Duration, headroom: f64) -> BatchSizeController {
        assert!(min.0 > 0 && max >= min, "invalid interval bounds");
        assert!((0.0..1.0).contains(&headroom) && headroom > 0.0);
        BatchSizeController {
            min,
            max,
            headroom,
            max_step: 0.25,
            history: VecDeque::with_capacity(16),
        }
    }

    /// Observe a completed batch and propose the next interval.
    pub fn next_interval(&mut self, interval: Duration, processing: Duration) -> Duration {
        self.history
            .push_back((interval.as_secs_f64(), processing.as_secs_f64()));
        while self.history.len() > 12 {
            self.history.pop_front();
        }
        let proposal_secs = match self.fit() {
            Some((a, b)) if a < self.headroom => {
                // Fixed point of p(I) = ρ·I under the affine model.
                (b / (self.headroom - a)).max(1e-3)
            }
            _ => {
                // Degenerate model (superlinear or no spread): react
                // directly to the last observation.
                processing.as_secs_f64() / self.headroom
            }
        };
        // Slew-rate limit around the last interval.
        let last = interval.as_secs_f64();
        let bounded =
            proposal_secs.clamp(last * (1.0 - self.max_step), last * (1.0 + self.max_step));
        Duration::from_secs_f64(bounded.clamp(self.min.as_secs_f64(), self.max.as_secs_f64()))
    }

    /// Least-squares fit of `processing = a·interval + b` over the history.
    fn fit(&self) -> Option<(f64, f64)> {
        let n = self.history.len();
        if n < 3 {
            return None;
        }
        let (mut sx, mut sy, mut sxx, mut sxy) = (0.0, 0.0, 0.0, 0.0);
        for &(x, y) in &self.history {
            sx += x;
            sy += y;
            sxx += x * x;
            sxy += x * y;
        }
        let nf = n as f64;
        let denom = nf * sxx - sx * sx;
        if denom.abs() < 1e-12 {
            return None; // no spread in intervals yet
        }
        let a = (nf * sxy - sx * sy) / denom;
        let b = (sy - a * sx) / nf;
        Some((a, b))
    }
}

/// One batch of an adaptive-interval run.
#[derive(Clone, Debug)]
pub struct ResizeBatchRecord {
    /// Batch sequence number.
    pub seq: u64,
    /// The (variable) batch interval used.
    pub interval: Duration,
    /// Tuples in the batch.
    pub n_tuples: usize,
    /// Processing time on the cluster.
    pub processing: Duration,
    /// Queue delay before processing started.
    pub queue_delay: Duration,
    /// End-to-end latency: interval + queue delay + processing.
    pub latency: Duration,
}

/// The outcome of an adaptive-interval run.
#[derive(Debug, Default)]
pub struct ResizeRunResult {
    /// Per-batch records.
    pub batches: Vec<ResizeBatchRecord>,
}

impl ResizeRunResult {
    /// Mean end-to-end latency over the second half of the run (seconds).
    pub fn steady_state_latency(&self) -> f64 {
        let n = self.batches.len();
        if n == 0 {
            return 0.0;
        }
        let tail = &self.batches[n / 2..];
        tail.iter().map(|b| b.latency.as_secs_f64()).sum::<f64>() / tail.len() as f64
    }

    /// Whether the run ended without queue growth.
    pub fn stable(&self) -> bool {
        self.batches
            .last()
            .map(|b| b.queue_delay.0 <= b.processing.0.max(1))
            .unwrap_or(true)
    }
}

/// Run a streaming job with a *variable* batch interval driven by the
/// controller. `cfg.batch_interval` seeds the first batch; `cfg`'s task
/// counts, cluster and cost model are used as-is (no elasticity — batch
/// resizing is the stabiliser under test).
pub fn run_with_resizing(
    cfg: &EngineConfig,
    technique: Technique,
    seed: u64,
    job: &Job,
    source: &mut dyn TupleSource,
    n_batches: usize,
    controller: &mut BatchSizeController,
) -> ResizeRunResult {
    cfg.validate().expect("invalid engine config");
    let mut partitioner = technique.build(seed);
    let assigner = ReduceStrategy::for_technique(technique).build_boxed(seed);
    let mut result = ResizeRunResult::default();
    let mut interval_len = cfg.batch_interval;
    let mut cursor = Time::ZERO;
    let mut pipeline_free_at = Time::ZERO;
    let mut arrivals = Vec::new();

    for seq in 0..n_batches as u64 {
        let interval = Interval::new(cursor, cursor + interval_len);
        cursor = interval.end;
        arrivals.clear();
        source.fill(interval, &mut arrivals);
        let batch = MicroBatch::new(std::mem::take(&mut arrivals), interval);
        let n_tuples = batch.len();
        let plan = partitioner.partition(&batch, cfg.map_tasks);
        arrivals = batch.tuples;
        let (_, times) = execute_batch(
            &plan,
            job,
            assigner.as_ref(),
            cfg.reduce_tasks,
            &cfg.cost,
            &cfg.cluster,
        );
        let processing = times.processing();
        let heartbeat = interval.end;
        let start = if pipeline_free_at > heartbeat {
            pipeline_free_at
        } else {
            heartbeat
        };
        let queue_delay = start.since(heartbeat);
        pipeline_free_at = start + processing;
        result.batches.push(ResizeBatchRecord {
            seq,
            interval: interval_len,
            n_tuples,
            processing,
            queue_delay,
            latency: interval_len + queue_delay + processing,
        });
        interval_len = controller.next_interval(interval_len, processing);
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use prompt_core::types::{Key, Tuple};
    use prompt_engine::cluster::Cluster;
    use prompt_engine::cost::CostModel;
    use prompt_engine::job::ReduceOp;

    fn cfg(cost_scale: f64) -> EngineConfig {
        EngineConfig {
            batch_interval: Duration::from_secs(1),
            map_tasks: 4,
            reduce_tasks: 4,
            cluster: Cluster::new(1, 4),
            cost: CostModel::default().scaled(cost_scale),
            ..EngineConfig::default()
        }
    }

    fn const_source(rate: f64) -> impl TupleSource {
        move |iv: Interval, out: &mut Vec<Tuple>| {
            let n = (rate * iv.len().as_secs_f64()).round() as usize;
            let step = iv.len().0 / (n as u64 + 1);
            for i in 0..n {
                out.push(Tuple::keyed(
                    Time(iv.start.0 + step * (i as u64 + 1)),
                    Key(i as u64 % 64),
                ));
            }
        }
    }

    #[test]
    fn controller_converges_to_a_fixed_point() {
        // Synthetic plant: processing = 0.4·I + 0.3 s. Fixed point at
        // ρ = 0.9: I* = 0.3 / (0.9 − 0.4) = 0.6 s.
        let mut ctl =
            BatchSizeController::new(Duration::from_millis(100), Duration::from_secs(10), 0.9);
        let mut interval = Duration::from_secs(2);
        for _ in 0..40 {
            let processing = interval.mul_f64(0.4) + Duration::from_millis(300);
            interval = ctl.next_interval(interval, processing);
        }
        let secs = interval.as_secs_f64();
        assert!((0.55..0.65).contains(&secs), "converged to {secs}");
    }

    #[test]
    fn overloaded_system_grows_interval_until_stable() {
        // Dominant *fixed* task costs: 1 s batches overload, but the fixed
        // cost amortises over longer intervals, so resizing restores
        // stability (processing = 0.2·I + 1.2 s → fixed point ≈ 1.7 s).
        let mut ctl =
            BatchSizeController::new(Duration::from_millis(200), Duration::from_secs(30), 0.9);
        let mut c = cfg(1.0);
        c.cost = CostModel {
            map_fixed: Duration::from_millis(600),
            map_per_tuple: Duration::from_micros(100),
            reduce_fixed: Duration::from_millis(600),
            reduce_per_tuple: Duration::from_micros(100),
            ..CostModel::default()
        };
        let mut src = const_source(4_000.0);
        let res = run_with_resizing(
            &c,
            Technique::Hash,
            1,
            &Job::identity("count", ReduceOp::Count),
            &mut src,
            40,
            &mut ctl,
        );
        let first = res.batches.first().unwrap();
        let last = res.batches.last().unwrap();
        assert!(
            first.processing > first.interval,
            "test premise: initially overloaded"
        );
        assert!(last.interval > first.interval, "interval should grow");
        assert!(
            last.processing.as_secs_f64() <= last.interval.as_secs_f64(),
            "should end stable: {:?} vs {:?}",
            last.processing,
            last.interval
        );
        // The price: end-to-end latency well above the initial interval.
        assert!(res.steady_state_latency() > 1.0);
    }

    #[test]
    fn light_load_shrinks_toward_minimum() {
        let mut ctl =
            BatchSizeController::new(Duration::from_millis(250), Duration::from_secs(10), 0.9);
        let c = cfg(1.0);
        let mut src = const_source(500.0);
        let res = run_with_resizing(
            &c,
            Technique::Hash,
            1,
            &Job::identity("count", ReduceOp::Count),
            &mut src,
            40,
            &mut ctl,
        );
        let last = res.batches.last().unwrap();
        assert!(
            last.interval < Duration::from_millis(600),
            "interval should shrink under light load, got {:?}",
            last.interval
        );
        assert!(res.stable());
    }

    #[test]
    fn slew_rate_is_limited() {
        let mut ctl =
            BatchSizeController::new(Duration::from_millis(10), Duration::from_secs(100), 0.9);
        // A wild observation cannot move the interval more than 25 %.
        let next = ctl.next_interval(Duration::from_secs(1), Duration::from_secs(50));
        assert_eq!(next, Duration::from_secs_f64(1.25));
        let next = ctl.next_interval(Duration::from_secs(1), Duration::ZERO);
        assert!(next >= Duration::from_secs_f64(0.74));
    }

    #[test]
    #[should_panic(expected = "invalid interval bounds")]
    fn bad_bounds_rejected() {
        let _ = BatchSizeController::new(Duration::ZERO, Duration::from_secs(1), 0.9);
    }
}
