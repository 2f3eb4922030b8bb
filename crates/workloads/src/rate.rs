//! Arrival-rate profiles.
//!
//! The evaluation stresses partitioners with *variable* input rates: Fig. 11
//! drives a sinusoidal rate ("variable spikes in the workload"), and the
//! elasticity experiments (Fig. 12) ramp the rate up and down. A profile
//! maps stream time to an instantaneous rate; tuple timestamps inside a
//! batch interval are placed by integrating the rate over sub-slots, so
//! intra-batch burstiness is visible to time-based partitioning.

use prompt_core::types::{Duration, Interval, Time};

/// Number of integration sub-slots per interval when placing timestamps.
const SUB_SLOTS: usize = 64;

/// An arrival-rate profile in tuples per second of stream time.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum RateProfile {
    /// Fixed rate.
    Constant {
        /// Tuples per second.
        rate: f64,
    },
    /// `base + amplitude · sin(2πt / period)` — Fig. 11's variable spikes.
    Sinusoidal {
        /// Mean rate.
        base: f64,
        /// Peak deviation from the mean (≤ base to stay non-negative).
        amplitude: f64,
        /// Oscillation period.
        period: Duration,
    },
    /// Linear ramp: `start + slope · t`, clamped at 0.
    Ramp {
        /// Rate at `t = 0`.
        start: f64,
        /// Rate change per second (may be negative).
        slope: f64,
    },
    /// Square wave alternating `low` / `high`, `duty` = fraction at high.
    Step {
        /// Low rate.
        low: f64,
        /// High rate.
        high: f64,
        /// Full cycle length.
        period: Duration,
        /// Fraction of the period spent at `high`, in `[0, 1]`.
        duty: f64,
    },
    /// Irregular bursts: like [`RateProfile::Step`], but each cycle's burst
    /// height is scaled by a deterministic per-cycle factor in `[0.5, 1.5)`
    /// (a hash of the cycle index), so no two consecutive spikes are alike —
    /// the "variable spikes" of Fig. 11, made irregular.
    Bursty {
        /// Baseline rate between bursts.
        base: f64,
        /// Mean burst height added on top of `base` while bursting.
        burst: f64,
        /// Full cycle length.
        period: Duration,
        /// Fraction of the period spent bursting, in `[0, 1]`.
        duty: f64,
    },
}

/// Deterministic per-cycle burst multiplier in `[0.5, 1.5)`.
fn burst_factor(cycle: u64) -> f64 {
    let h = prompt_core::hash::mix64(cycle ^ 0xB00_57ED);
    0.5 + (h % 4096) as f64 / 4096.0
}

impl RateProfile {
    /// Instantaneous rate at `t` (tuples/second, never negative).
    pub fn rate_at(&self, t: Time) -> f64 {
        let secs = t.as_secs_f64();
        let r = match *self {
            RateProfile::Constant { rate } => rate,
            RateProfile::Sinusoidal {
                base,
                amplitude,
                period,
            } => {
                let phase = 2.0 * std::f64::consts::PI * secs / period.as_secs_f64();
                base + amplitude * phase.sin()
            }
            RateProfile::Ramp { start, slope } => start + slope * secs,
            RateProfile::Step {
                low,
                high,
                period,
                duty,
            } => {
                let pos = (secs / period.as_secs_f64()).fract();
                if pos < duty {
                    high
                } else {
                    low
                }
            }
            RateProfile::Bursty {
                base,
                burst,
                period,
                duty,
            } => {
                let cycles = secs / period.as_secs_f64();
                let pos = cycles.fract();
                if pos < duty {
                    base + burst * burst_factor(cycles.floor() as u64)
                } else {
                    base
                }
            }
        };
        r.max(0.0)
    }

    /// Expected tuple count over `interval` (trapezoidal integration over
    /// sub-slots, rounded).
    pub fn count_in(&self, interval: Interval) -> usize {
        self.slot_counts(interval).iter().sum()
    }

    /// Integrated tuple counts per sub-slot of `interval`. The sum is the
    /// batch size; the shape carries the intra-batch burstiness.
    ///
    /// Integration is trapezoidal over 64 sub-slots, so for *discontinuous*
    /// profiles (`Step`, `Bursty`) the count can deviate from the exact integral by up
    /// to `(high − low) · dt / 2` per edge, where `dt` shrinks with the
    /// interval — i.e. counts are granularity-dependent near step edges.
    /// Continuous profiles integrate to within one tuple per call.
    pub fn slot_counts(&self, interval: Interval) -> Vec<usize> {
        let span = interval.len().as_secs_f64();
        if span <= 0.0 {
            return vec![0; SUB_SLOTS];
        }
        let dt = span / SUB_SLOTS as f64;
        let mut counts = Vec::with_capacity(SUB_SLOTS);
        let mut carry = 0.0f64;
        for i in 0..SUB_SLOTS {
            let t0 = interval.start + Duration::from_secs_f64(i as f64 * dt);
            let t1 = interval.start + Duration::from_secs_f64((i as f64 + 1.0) * dt);
            let area = 0.5 * (self.rate_at(t0) + self.rate_at(t1)) * dt + carry;
            let whole = area.floor().max(0.0);
            carry = area - whole;
            counts.push(whole as usize);
        }
        counts
    }

    /// Deterministic, sorted timestamps for the arrivals of `interval`:
    /// `slot_counts` tuples per sub-slot, evenly spaced within the slot.
    pub fn timestamps(&self, interval: Interval) -> Vec<Time> {
        let counts = self.slot_counts(interval);
        let span = interval.len().as_micros();
        let slot_us = span / SUB_SLOTS as u64;
        let mut out = Vec::with_capacity(counts.iter().sum());
        for (i, &c) in counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let start = interval.start.as_micros() + i as u64 * slot_us;
            let step = slot_us.max(1) / (c as u64 + 1);
            for j in 0..c {
                let ts = start + step * (j as u64 + 1);
                out.push(Time::from_micros(ts.min(interval.end.as_micros() - 1)));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iv(a: u64, b: u64) -> Interval {
        Interval::new(Time::from_secs(a), Time::from_secs(b))
    }

    #[test]
    fn constant_counts_match_rate() {
        let p = RateProfile::Constant { rate: 1000.0 };
        let c = p.count_in(iv(0, 1));
        assert!((999..=1001).contains(&c), "got {c}");
        assert_eq!(p.rate_at(Time::from_secs(5)), 1000.0);
    }

    #[test]
    fn sinusoid_oscillates_and_integrates_to_base() {
        let p = RateProfile::Sinusoidal {
            base: 1000.0,
            amplitude: 500.0,
            period: Duration::from_secs(4),
        };
        // Peak at t = 1 s, trough at t = 3 s.
        assert!(p.rate_at(Time::from_secs(1)) > 1400.0);
        assert!(p.rate_at(Time::from_secs(3)) < 600.0);
        // One full period integrates to base·period.
        let total = p.count_in(iv(0, 4));
        assert!((3990..=4010).contains(&total), "got {total}");
    }

    #[test]
    fn sinusoid_never_negative() {
        let p = RateProfile::Sinusoidal {
            base: 100.0,
            amplitude: 500.0,
            period: Duration::from_secs(2),
        };
        for ms in (0..4000).step_by(17) {
            assert!(p.rate_at(Time::from_millis(ms)) >= 0.0);
        }
    }

    #[test]
    fn ramp_grows_and_clamps() {
        let p = RateProfile::Ramp {
            start: 100.0,
            slope: -50.0,
        };
        assert_eq!(p.rate_at(Time::ZERO), 100.0);
        assert_eq!(p.rate_at(Time::from_secs(1)), 50.0);
        assert_eq!(p.rate_at(Time::from_secs(10)), 0.0);
        let up = RateProfile::Ramp {
            start: 0.0,
            slope: 100.0,
        };
        assert!(up.count_in(iv(1, 2)) > up.count_in(iv(0, 1)));
    }

    #[test]
    fn step_alternates() {
        let p = RateProfile::Step {
            low: 10.0,
            high: 100.0,
            period: Duration::from_secs(2),
            duty: 0.5,
        };
        assert_eq!(p.rate_at(Time::from_millis(500)), 100.0);
        assert_eq!(p.rate_at(Time::from_millis(1500)), 10.0);
        assert_eq!(p.rate_at(Time::from_millis(2500)), 100.0);
    }

    #[test]
    fn timestamps_are_sorted_in_interval_and_bursty() {
        let p = RateProfile::Sinusoidal {
            base: 10_000.0,
            amplitude: 9_000.0,
            period: Duration::from_secs(1),
        };
        let interval = iv(0, 1);
        let ts = p.timestamps(interval);
        assert_eq!(ts.len(), p.count_in(interval));
        assert!(ts.windows(2).all(|w| w[0] <= w[1]), "sorted");
        assert!(ts.iter().all(|&t| interval.contains(t)));
        // Burstiness: the first half (rising peak) holds far more than the
        // second half (trough).
        let mid = Time::from_millis(500);
        let first = ts.iter().filter(|&&t| t < mid).count();
        let second = ts.len() - first;
        assert!(
            first > second * 2,
            "expected front-loaded arrivals: {first} vs {second}"
        );
    }

    #[test]
    fn counts_are_nearly_additive_across_batch_splits() {
        // The engine pulls per batch interval; splitting a span into batches
        // must conserve tuples up to one rounding carry per call.
        let profiles = [
            RateProfile::Constant { rate: 1234.5 },
            RateProfile::Sinusoidal {
                base: 2000.0,
                amplitude: 1500.0,
                period: Duration::from_secs(3),
            },
            RateProfile::Ramp {
                start: 100.0,
                slope: 333.3,
            },
            RateProfile::Step {
                low: 50.0,
                high: 5000.0,
                period: Duration::from_secs(2),
                duty: 0.3,
            },
        ];
        for p in profiles {
            let whole = p.count_in(iv(0, 6));
            let split: usize = (0..6).map(|s| p.count_in(iv(s, s + 1))).sum();
            let diff = whole.abs_diff(split);
            // Continuous profiles: one rounding carry per call. Step: the
            // trapezoid mis-integrates each discontinuity by up to
            // (high−low)·dt/2 with dt = 6s/64 on the whole span, 6 edges.
            let tolerance = if matches!(p, RateProfile::Step { .. }) {
                let dt = 6.0 / 64.0;
                (6.0 * (5000.0 - 50.0) * dt / 2.0) as usize
            } else {
                7
            };
            assert!(
                diff <= tolerance,
                "{p:?}: whole {whole} vs split {split} (tolerance {tolerance})"
            );
        }
    }

    #[test]
    fn bursty_spikes_vary_per_cycle_deterministically() {
        let p = RateProfile::Bursty {
            base: 100.0,
            burst: 1000.0,
            period: Duration::from_secs(2),
            duty: 0.25,
        };
        // Inside the duty window: elevated; outside: baseline.
        assert!(p.rate_at(Time::from_millis(200)) >= 600.0);
        assert_eq!(p.rate_at(Time::from_millis(1500)), 100.0);
        // The same instant always sees the same rate.
        assert_eq!(
            p.rate_at(Time::from_millis(200)),
            p.rate_at(Time::from_millis(200))
        );
        // Burst heights differ across cycles (per-cycle factor).
        let heights: Vec<f64> = (0..8)
            .map(|c| p.rate_at(Time::from_millis(2000 * c + 200)))
            .collect();
        let distinct = heights
            .iter()
            .filter(|&&h| (h - heights[0]).abs() > 1e-9)
            .count();
        assert!(distinct >= 4, "spikes should vary: {heights:?}");
        // All heights stay within the declared envelope.
        for h in heights {
            assert!((100.0 + 500.0..100.0 + 1500.0).contains(&h), "{h}");
        }
    }

    #[test]
    fn bursty_timestamps_sorted_and_front_loaded() {
        let p = RateProfile::Bursty {
            base: 500.0,
            burst: 8000.0,
            period: Duration::from_secs(1),
            duty: 0.2,
        };
        let interval = iv(0, 1);
        let ts = p.timestamps(interval);
        assert_eq!(ts.len(), p.count_in(interval));
        assert!(ts.windows(2).all(|w| w[0] <= w[1]), "sorted");
        assert!(ts.iter().all(|&t| interval.contains(t)));
        // The burst occupies the first 20% of the cycle.
        let cutoff = Time::from_millis(250);
        let in_burst = ts.iter().filter(|&&t| t < cutoff).count();
        assert!(
            in_burst * 2 > ts.len(),
            "burst window should dominate: {in_burst}/{}",
            ts.len()
        );
    }

    #[test]
    fn empty_interval_yields_nothing() {
        let p = RateProfile::Constant { rate: 1000.0 };
        let empty = Interval::new(Time::from_secs(1), Time::from_secs(1));
        assert_eq!(p.count_in(empty), 0);
        assert!(p.timestamps(empty).is_empty());
    }
}
