//! Back-pressure probing: finding the maximum sustainable ingestion rate.
//!
//! The paper reports "the highest throughput achieved before back-pressure
//! is triggered" (§7.2). The equivalent observable here: a rate is
//! *sustainable* if a run at that rate stays stable (no queue growth past the
//! back-pressure threshold and a drained pipeline at the end). The maximum
//! sustainable rate is located by exponential bracketing followed by binary
//! search.

/// Find the largest rate in `[lo, hi]` for which `sustainable(rate)` holds,
/// assuming monotonicity (higher rate ⇒ harder to sustain), with `iters`
/// bisection steps.
///
/// Returns `lo` if even `lo` is unsustainable (callers should choose `lo`
/// small enough that this signals "effectively zero").
pub fn max_sustainable_rate(
    mut sustainable: impl FnMut(f64) -> bool,
    lo: f64,
    hi: f64,
    iters: usize,
) -> f64 {
    assert!(lo > 0.0 && hi >= lo, "invalid search bracket");
    if !sustainable(lo) {
        return lo;
    }
    if sustainable(hi) {
        return hi;
    }
    let (mut good, mut bad) = (lo, hi);
    for _ in 0..iters {
        let mid = (good + bad) / 2.0;
        if sustainable(mid) {
            good = mid;
        } else {
            bad = mid;
        }
    }
    good
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finds_threshold_of_step_function() {
        let rate = max_sustainable_rate(|r| r <= 123_456.0, 1.0, 1_000_000.0, 40);
        assert!((rate - 123_456.0).abs() < 1.0, "got {rate}");
    }

    #[test]
    fn returns_lo_when_nothing_sustainable() {
        assert_eq!(max_sustainable_rate(|_| false, 10.0, 100.0, 10), 10.0);
    }

    #[test]
    fn returns_hi_when_everything_sustainable() {
        assert_eq!(max_sustainable_rate(|_| true, 10.0, 100.0, 10), 100.0);
    }

    #[test]
    #[should_panic(expected = "invalid search bracket")]
    fn rejects_reversed_bracket() {
        let _ = max_sustainable_rate(|_| true, 100.0, 10.0, 5);
    }
}
