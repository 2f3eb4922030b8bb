//! Time-varying key distributions: mid-stream skew drift and hot-set churn.
//!
//! Fang et al. (arXiv 1610.05121) observe that real streams vary in *both*
//! skewness and which keys are hot over time; a partitioner tuned on a
//! stationary Zipf snapshot can degrade badly when the exponent drifts or
//! the hot set rotates. These distributions make those regimes scriptable:
//! [`AlphaDrift`] sweeps the Zipf exponent linearly across a time window,
//! and [`HotSetChurn`] rotates a compact hot set on a fixed period. Both
//! plug into [`KeyModel::Timed`](crate::generator::KeyModel::Timed).

use prompt_core::types::{Duration, Key, Time};
use rand::{Rng, RngCore};

use crate::keydist::{zipf_or_uniform, KeyDistribution};

/// A key distribution whose shape depends on stream time.
///
/// Sampling is deterministic given the same `(t, rng)` call sequence, so a
/// generator driven by one of these stays replayable — the property the
/// engine's differential oracle relies on.
pub trait TimedKeyDistribution: Send {
    /// Draw one key for an arrival at stream time `t`.
    fn sample(&mut self, t: Time, rng: &mut dyn RngCore) -> Key;

    /// Upper bound on the key space across all times: every sampled key is
    /// `< cardinality()`.
    fn cardinality(&self) -> u64;
}

/// Zipf skew drift: the exponent sweeps linearly from `from` at `t0` to `to`
/// at `t1` (clamped outside the window), over a fixed key space of `n` keys.
///
/// The exponent is quantized to a 0.01 grid before building the sampler, so
/// the distribution in effect is a pure function of `t` (no dependence on
/// the sampling path) and rebuilds are rare.
pub struct AlphaDrift {
    n: u64,
    from: f64,
    to: f64,
    t0: Time,
    t1: Time,
    /// Quantized exponent (in grid steps) the cached sampler was built for.
    cached_step: Option<u64>,
    dist: Box<dyn KeyDistribution>,
}

/// Exponent quantization grid (steps of 0.01).
const ALPHA_GRID: f64 = 100.0;

impl AlphaDrift {
    /// Drift the Zipf exponent over `n ≥ 1` keys from `from` at `t0` to `to`
    /// at `t1 > t0`. Exponents must be non-negative (0 means uniform).
    pub fn new(n: u64, from: f64, to: f64, t0: Time, t1: Time) -> AlphaDrift {
        assert!(n >= 1, "need at least one key");
        assert!(t1 > t0, "drift window must have positive length");
        assert!(from >= 0.0 && to >= 0.0, "exponents must be non-negative");
        AlphaDrift {
            n,
            from,
            to,
            t0,
            t1,
            cached_step: None,
            dist: zipf_or_uniform(n, from),
        }
    }

    /// The effective exponent at stream time `t`.
    pub fn alpha_at(&self, t: Time) -> f64 {
        let span = self.t1.since(self.t0).as_secs_f64();
        let pos = (t.since(self.t0).as_secs_f64() / span).clamp(0.0, 1.0);
        self.from + (self.to - self.from) * pos
    }
}

impl TimedKeyDistribution for AlphaDrift {
    fn sample(&mut self, t: Time, rng: &mut dyn RngCore) -> Key {
        let step = (self.alpha_at(t) * ALPHA_GRID).round() as u64;
        if self.cached_step != Some(step) {
            self.dist = zipf_or_uniform(self.n, step as f64 / ALPHA_GRID);
            self.cached_step = Some(step);
        }
        self.dist.sample(rng)
    }

    fn cardinality(&self) -> u64 {
        self.n
    }
}

/// Hot-set churn: a fraction `hot_mass` of arrivals lands uniformly on a
/// compact hot set of `hot_keys` consecutive keys whose position rotates
/// every `period` (a hash of the epoch index picks the offset); the rest is
/// uniform over all `n` keys. Which keys are heavy changes abruptly at each
/// epoch boundary — the regime that defeats any partitioner keying on a
/// stale heavy-hitter list.
pub struct HotSetChurn {
    n: u64,
    hot_keys: u64,
    hot_mass: f64,
    period: Duration,
}

impl HotSetChurn {
    /// Churn over `n` keys: `hot_keys ≤ n` hot keys carrying `hot_mass ∈
    /// [0, 1]` of the arrivals, rotating every `period > 0`.
    pub fn new(n: u64, hot_keys: u64, hot_mass: f64, period: Duration) -> HotSetChurn {
        assert!(n >= 1, "need at least one key");
        assert!(
            (1..=n).contains(&hot_keys),
            "hot set must be non-empty and fit the key space"
        );
        assert!((0.0..=1.0).contains(&hot_mass), "hot mass is a fraction");
        assert!(period.0 > 0, "churn period must be positive");
        HotSetChurn {
            n,
            hot_keys,
            hot_mass,
            period,
        }
    }

    /// First key of the hot set in effect at stream time `t`.
    pub fn hot_offset_at(&self, t: Time) -> u64 {
        let epoch = t.0 / self.period.0;
        prompt_core::hash::mix64(epoch ^ 0x4075E7) % self.n
    }
}

impl TimedKeyDistribution for HotSetChurn {
    fn sample(&mut self, t: Time, rng: &mut dyn RngCore) -> Key {
        let roll: f64 = rng.random();
        if roll < self.hot_mass {
            let offset = self.hot_offset_at(t);
            Key((offset + rng.random_range(0..self.hot_keys)) % self.n)
        } else {
            Key(rng.random_range(0..self.n))
        }
    }

    fn cardinality(&self) -> u64 {
        self.n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::collections::HashSet;

    fn draw(d: &mut dyn TimedKeyDistribution, t: Time, n: usize, seed: u64) -> Vec<Key> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| d.sample(t, &mut rng)).collect()
    }

    #[test]
    fn alpha_drift_interpolates_and_clamps() {
        let d = AlphaDrift::new(1000, 0.5, 2.0, Time::from_secs(10), Time::from_secs(20));
        assert_eq!(d.alpha_at(Time::ZERO), 0.5, "clamped before window");
        assert_eq!(d.alpha_at(Time::from_secs(15)), 1.25);
        assert_eq!(d.alpha_at(Time::from_secs(30)), 2.0, "clamped after");
    }

    #[test]
    fn alpha_drift_skew_increases_over_time() {
        let mut d = AlphaDrift::new(10_000, 0.0, 1.8, Time::ZERO, Time::from_secs(10));
        // At t=0 the draw is uniform; by t=10s it is heavily skewed, so the
        // number of distinct keys in a fixed-size sample collapses.
        let early: HashSet<Key> = draw(&mut d, Time::ZERO, 2000, 7).into_iter().collect();
        let late: HashSet<Key> = draw(&mut d, Time::from_secs(10), 2000, 7)
            .into_iter()
            .collect();
        assert!(
            early.len() > 2 * late.len(),
            "skew never materialized: {} early vs {} late distinct keys",
            early.len(),
            late.len()
        );
    }

    #[test]
    fn alpha_drift_keys_stay_in_keyspace_and_deterministic() {
        let mk = || AlphaDrift::new(64, 0.2, 1.5, Time::ZERO, Time::from_secs(5));
        let mut a = mk();
        let mut b = mk();
        for step in 0..200u64 {
            let t = Time(step * 50_000);
            let ka = draw(&mut a, t, 5, step);
            let kb = draw(&mut b, t, 5, step);
            assert_eq!(ka, kb, "same (t, seed) must replay identically");
            assert!(ka.iter().all(|k| k.0 < 64));
        }
    }

    #[test]
    fn hot_set_rotates_between_epochs() {
        let mut d = HotSetChurn::new(100_000, 10, 1.0, Duration::from_secs(2));
        let o0 = d.hot_offset_at(Time::ZERO);
        let o1 = d.hot_offset_at(Time::from_secs(2));
        assert_ne!(o0, o1, "hot set did not move across the epoch boundary");
        assert_eq!(d.hot_offset_at(Time::from_secs(1)), o0, "stable in-epoch");
        // With hot_mass = 1.0 every draw lands inside the 10-key hot set.
        for k in draw(&mut d, Time::ZERO, 500, 3) {
            let rel = (k.0 + 100_000 - o0) % 100_000;
            assert!(rel < 10, "key {} outside hot set at offset {}", k.0, o0);
        }
    }

    #[test]
    fn hot_set_churn_mixes_hot_and_cold_mass() {
        let mut d = HotSetChurn::new(1_000, 5, 0.6, Duration::from_secs(1));
        let o = d.hot_offset_at(Time::ZERO);
        let keys = draw(&mut d, Time::ZERO, 4000, 11);
        assert!(keys.iter().all(|k| k.0 < 1_000));
        let hot = keys
            .iter()
            .filter(|k| (k.0 + 1_000 - o) % 1_000 < 5)
            .count();
        // ~60% direct hot mass plus a sliver of cold draws landing there.
        assert!(
            (2100..2900).contains(&hot),
            "hot fraction {hot}/4000 far from the configured 0.6"
        );
    }
}
