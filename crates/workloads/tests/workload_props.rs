//! Property tests for the drift/arrival composition APIs:
//! every arrival process places sorted, in-interval timestamps, and the
//! time-varying key distributions never escape their declared keyspace.

use prompt_core::source::TupleSource;
use prompt_core::types::{Duration, Interval, Time};
use prompt_workloads::prelude::*;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Build one of the five arrival processes from generated parameters.
/// `kind` selects the variant; the scalar inputs are reinterpreted per
/// variant so a single strategy sweeps the whole family.
fn arrival(kind: u8, a: f64, b: f64, period_ms: u64, duty: f64) -> RateProfile {
    let period = Duration::from_millis(period_ms);
    match kind % 5 {
        0 => RateProfile::Constant { rate: a },
        1 => RateProfile::Sinusoidal {
            base: a,
            // Keep the rate non-negative, as the variant documents.
            amplitude: b.min(a),
            period,
        },
        2 => RateProfile::Ramp {
            start: a,
            slope: b - 1000.0,
        },
        3 => RateProfile::Step {
            low: a.min(b),
            high: a.max(b),
            period,
            duty,
        },
        _ => RateProfile::Bursty {
            base: a,
            burst: b,
            period,
            duty,
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn timestamps_sorted_and_in_interval_under_every_arrival(
        kind in 0u8..5,
        a in 10.0f64..3000.0,
        b in 0.0f64..2000.0,
        period_ms in 50u64..5000,
        duty in 0.05f64..0.95,
        start_s in 0u64..30,
    ) {
        let p = arrival(kind, a, b, period_ms, duty);
        let iv = Interval::new(Time::from_secs(start_s), Time::from_secs(start_s + 1));
        let ts = p.timestamps(iv);
        prop_assert_eq!(ts.len(), p.count_in(iv), "timestamp count must match the integral");
        prop_assert!(ts.windows(2).all(|w| w[0] <= w[1]), "timestamps must be monotonic");
        prop_assert!(ts.iter().all(|&t| iv.contains(t)), "timestamps must stay in-interval");
    }

    #[test]
    fn generator_output_is_sorted_under_every_arrival(
        kind in 0u8..5,
        a in 100.0f64..2000.0,
        b in 0.0f64..1000.0,
        period_ms in 100u64..3000,
        seed in any::<u64>(),
    ) {
        let p = arrival(kind, a, b, period_ms, 0.3);
        let mut g = StreamGenerator::new(
            p,
            KeyModel::Static(Box::new(UniformKeys::new(256))),
            ValueModel::Unit,
            seed,
        );
        let mut out = Vec::new();
        for batch in 0..3u64 {
            let iv = Interval::new(Time::from_secs(batch), Time::from_secs(batch + 1));
            let start = out.len();
            g.fill(iv, &mut out);
            prop_assert!(out[start..].windows(2).all(|w| w[0].ts <= w[1].ts));
            prop_assert!(out[start..].iter().all(|t| iv.contains(t.ts)));
        }
    }

    #[test]
    fn alpha_drift_never_escapes_declared_keyspace(
        n in 1u64..5000,
        from in 0.0f64..2.0,
        to in 0.0f64..2.0,
        window_s in 1u64..20,
        t_ms in 0u64..40_000,
        seed in any::<u64>(),
    ) {
        let mut d = AlphaDrift::new(n, from, to, Time::ZERO, Time::from_secs(window_s));
        prop_assert_eq!(d.cardinality(), n);
        let mut rng = StdRng::seed_from_u64(seed);
        let t = Time::from_millis(t_ms);
        for _ in 0..64 {
            let k = d.sample(t, &mut rng);
            prop_assert!(k.0 < n, "key {} outside keyspace of {}", k.0, n);
        }
    }

    #[test]
    fn hot_set_churn_never_escapes_declared_keyspace(
        n in 1u64..100_000,
        hot_frac in 0.01f64..1.0,
        hot_mass in 0.0f64..1.0,
        period_ms in 100u64..5000,
        t_ms in 0u64..60_000,
        seed in any::<u64>(),
    ) {
        let hot_keys = ((n as f64 * hot_frac) as u64).clamp(1, n);
        let mut d = HotSetChurn::new(n, hot_keys, hot_mass, Duration::from_millis(period_ms));
        prop_assert_eq!(d.cardinality(), n);
        let mut rng = StdRng::seed_from_u64(seed);
        let t = Time::from_millis(t_ms);
        for _ in 0..64 {
            let k = d.sample(t, &mut rng);
            prop_assert!(k.0 < n, "key {} outside keyspace of {}", k.0, n);
        }
    }

    #[test]
    fn timed_models_compose_with_the_generator(
        n in 2u64..2000,
        t0_choice in 0u8..2,
        seed in any::<u64>(),
    ) {
        let model: Box<dyn TimedKeyDistribution> = if t0_choice == 0 {
            Box::new(AlphaDrift::new(n, 0.2, 1.6, Time::ZERO, Time::from_secs(4)))
        } else {
            Box::new(HotSetChurn::new(n, (n / 2).max(1), 0.7, Duration::from_secs(1)))
        };
        let mut g = StreamGenerator::new(
            RateProfile::Constant { rate: 500.0 },
            KeyModel::Timed(model),
            ValueModel::Unit,
            seed,
        );
        let mut out = Vec::new();
        g.fill(Interval::new(Time::ZERO, Time::from_secs(2)), &mut out);
        prop_assert!(!out.is_empty());
        prop_assert!(out.iter().all(|t| t.key.0 < n));
        prop_assert!(out.windows(2).all(|w| w[0].ts <= w[1].ts));
    }
}
