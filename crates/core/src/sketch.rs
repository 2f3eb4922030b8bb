//! Streaming frequency sketches.
//!
//! Tuple-at-a-time partitioners cannot afford exact per-batch statistics;
//! they detect skewed keys with approximate heavy-hitter sketches
//! (§2.2.4: the key-split partitioner keeps "statistics on the data
//! distribution to detect the skewed keys in order to split them"). This
//! module provides [`SpaceSaving`] (Metwally et al.): `k` counters, O(1)
//! amortised update, overestimates by at most `N/k`.
//!
//! Prompt itself does **not** need it — the micro-batch model affords
//! exact statistics via Algorithm 1 (that is the paper's point) — but the
//! heavy-hitter-aware baseline (`DChoicesPartitioner`) and the adaptive
//! partitioner policy's skew snapshot do.

use crate::hash::KeyMap;
use crate::types::Key;

/// SpaceSaving heavy-hitter sketch with `k` counters.
///
/// Guarantees: every key with true frequency `> N/k` is tracked, and each
/// reported count overestimates the true count by at most the sketch's
/// minimum counter (itself ≤ `N/k`).
///
/// # Examples
///
/// ```
/// use prompt_core::sketch::SpaceSaving;
/// use prompt_core::types::Key;
///
/// let mut sketch = SpaceSaving::new(8);
/// for _ in 0..90 { sketch.observe(Key(1)); }
/// for k in 2..=10 { sketch.observe(Key(k)); }
/// assert!(sketch.is_heavy(Key(1), 0.5));
/// assert_eq!(sketch.heavy_hitters(0.5)[0].0, Key(1));
/// ```
#[derive(Clone, Debug)]
pub struct SpaceSaving {
    capacity: usize,
    /// counter per tracked key: (count, overestimation).
    counters: KeyMap<(u64, u64)>,
    /// count-ordered mirror of `counters`, so the eviction victim (the
    /// minimum counter) is found in O(log k) instead of a full scan —
    /// eviction fires on almost every tail tuple of a skewed stream, so a
    /// linear scan would make `observe` O(k) amortised.
    by_count: std::collections::BTreeSet<(u64, Key)>,
    total: u64,
}

impl SpaceSaving {
    /// A sketch with `k ≥ 1` counters.
    pub fn new(k: usize) -> SpaceSaving {
        assert!(k >= 1, "need at least one counter");
        SpaceSaving {
            capacity: k,
            counters: KeyMap::default(),
            by_count: std::collections::BTreeSet::new(),
            total: 0,
        }
    }

    /// Observe one occurrence of `key`. O(log k).
    pub fn observe(&mut self, key: Key) {
        self.total += 1;
        if let Some(c) = self.counters.get_mut(&key) {
            let old = c.0;
            c.0 += 1;
            let removed = self.by_count.remove(&(old, key));
            debug_assert!(removed, "count index out of sync");
            self.by_count.insert((old + 1, key));
            return;
        }
        if self.counters.len() < self.capacity {
            self.counters.insert(key, (1, 0));
            self.by_count.insert((1, key));
            return;
        }
        // Evict the minimum counter; the newcomer inherits its count as the
        // overestimation bound.
        let &(min_count, victim) = self.by_count.iter().next().expect("capacity ≥ 1");
        self.by_count.remove(&(min_count, victim));
        self.counters.remove(&victim);
        self.counters.insert(key, (min_count + 1, min_count));
        self.by_count.insert((min_count + 1, key));
    }

    /// Observe `n` occurrences of `key` at once (the standard weighted
    /// SpaceSaving update). Equivalent in guarantees to `n` calls of
    /// [`SpaceSaving::observe`] but O(log k) total — used by consumers that
    /// fold pre-aggregated (key, count) summaries into the sketch, e.g. a
    /// policy layer replaying a partition plan's key fragments.
    pub fn observe_n(&mut self, key: Key, n: u64) {
        if n == 0 {
            return;
        }
        self.total += n;
        if let Some(c) = self.counters.get_mut(&key) {
            let old = c.0;
            c.0 += n;
            let removed = self.by_count.remove(&(old, key));
            debug_assert!(removed, "count index out of sync");
            self.by_count.insert((old + n, key));
            return;
        }
        if self.counters.len() < self.capacity {
            self.counters.insert(key, (n, 0));
            self.by_count.insert((n, key));
            return;
        }
        let &(min_count, victim) = self.by_count.iter().next().expect("capacity ≥ 1");
        self.by_count.remove(&(min_count, victim));
        self.counters.remove(&victim);
        self.counters.insert(key, (min_count + n, min_count));
        self.by_count.insert((min_count + n, key));
    }

    /// Total observations.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Estimated count of `key` (upper bound), or 0 if untracked.
    pub fn estimate(&self, key: Key) -> u64 {
        self.counters.get(&key).map_or(0, |&(c, _)| c)
    }

    /// Guaranteed lower bound on `key`'s count (estimate − overestimation).
    pub fn lower_bound(&self, key: Key) -> u64 {
        self.counters.get(&key).map_or(0, |&(c, e)| c - e)
    }

    /// Keys whose estimated frequency exceeds `phi · total`, with their
    /// estimates, sorted descending.
    pub fn heavy_hitters(&self, phi: f64) -> Vec<(Key, u64)> {
        assert!((0.0..=1.0).contains(&phi), "phi must be a fraction");
        let threshold = (phi * self.total as f64) as u64;
        let mut out: Vec<(Key, u64)> = self
            .counters
            .iter()
            .filter(|&(_, &(c, _))| c > threshold)
            .map(|(&k, &(c, _))| (k, c))
            .collect();
        out.sort_by(|a, b| b.1.cmp(&a.1).then(a.0 .0.cmp(&b.0 .0)));
        out
    }

    /// Whether `key` is currently tracked with estimate above `phi · total`.
    pub fn is_heavy(&self, key: Key, phi: f64) -> bool {
        let threshold = (phi * self.total as f64) as u64;
        self.estimate(key) > threshold
    }

    /// Reset for the next batch, keeping capacity.
    pub fn clear(&mut self) {
        self.counters.clear();
        self.by_count.clear();
        self.total = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A deterministic skewed stream: key `i` appears `counts[i]` times,
    /// round-robin interleaved.
    fn skewed_stream(counts: &[u64]) -> Vec<Key> {
        let mut remaining = counts.to_vec();
        let mut out = Vec::new();
        loop {
            let mut emitted = false;
            for (i, r) in remaining.iter_mut().enumerate() {
                if *r > 0 {
                    *r -= 1;
                    out.push(Key(i as u64));
                    emitted = true;
                }
            }
            if !emitted {
                return out;
            }
        }
    }

    #[test]
    fn space_saving_exact_when_under_capacity() {
        let mut ss = SpaceSaving::new(16);
        for key in skewed_stream(&[10, 5, 3]) {
            ss.observe(key);
        }
        assert_eq!(ss.estimate(Key(0)), 10);
        assert_eq!(ss.estimate(Key(1)), 5);
        assert_eq!(ss.estimate(Key(2)), 3);
        assert_eq!(ss.lower_bound(Key(0)), 10);
        assert_eq!(ss.total(), 18);
    }

    #[test]
    fn space_saving_never_underestimates_heavy_keys() {
        // 4 counters over a stream where key 0 holds half the mass.
        let counts: Vec<u64> = std::iter::once(500u64)
            .chain(std::iter::repeat_n(5, 100))
            .collect();
        let mut ss = SpaceSaving::new(4);
        for key in skewed_stream(&counts) {
            ss.observe(key);
        }
        // Guarantee: estimate ≥ true count for tracked keys.
        assert!(
            ss.estimate(Key(0)) >= 500,
            "estimate {}",
            ss.estimate(Key(0))
        );
        // Overestimation bounded by N/k.
        let slack = ss.total() / 4;
        assert!(ss.estimate(Key(0)) <= 500 + slack);
        // Key 0 is a heavy hitter at phi = 0.3.
        let hh = ss.heavy_hitters(0.3);
        assert_eq!(hh[0].0, Key(0));
        assert!(ss.is_heavy(Key(0), 0.3));
        assert!(!ss.is_heavy(Key(99), 0.3));
    }

    #[test]
    fn weighted_observe_matches_repeated_observe() {
        let counts = [10u64, 5, 3, 7, 1, 9];
        let mut unit = SpaceSaving::new(4);
        for key in skewed_stream(&counts) {
            unit.observe(key);
        }
        let mut weighted = SpaceSaving::new(16);
        for (i, &c) in counts.iter().enumerate() {
            weighted.observe_n(Key(i as u64), c);
        }
        weighted.observe_n(Key(0), 0); // no-op
        assert_eq!(weighted.total(), unit.total());
        // Under capacity the weighted sketch is exact.
        for (i, &c) in counts.iter().enumerate() {
            assert_eq!(weighted.estimate(Key(i as u64)), c);
        }
        // Eviction path: overflow a 2-counter sketch.
        let mut tiny = SpaceSaving::new(2);
        tiny.observe_n(Key(1), 10);
        tiny.observe_n(Key(2), 4);
        tiny.observe_n(Key(3), 6); // evicts key 2 (min 4), inherits bound
        assert_eq!(tiny.estimate(Key(3)), 10);
        assert_eq!(tiny.lower_bound(Key(3)), 6);
        assert_eq!(tiny.total(), 20);
    }

    #[test]
    fn space_saving_clear_resets() {
        let mut ss = SpaceSaving::new(2);
        ss.observe(Key(1));
        ss.clear();
        assert_eq!(ss.total(), 0);
        assert_eq!(ss.estimate(Key(1)), 0);
        assert!(ss.heavy_hitters(0.1).is_empty());
    }
}
