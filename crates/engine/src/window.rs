//! Sliding/tumbling windows over batch states (§2.1, Fig. 3).
//!
//! A streaming query's answer aggregates the partial outputs of all batches
//! inside the window's time predicate. How it is kept depends on whether
//! consecutive answers share batches:
//!
//! * A *sliding* window (slide shorter than length, in batches) shares
//!   batches with the answer before it. Batches *entering* the window merge
//!   into the running answer; batches *exiting* are retired with the inverse
//!   Reduce when the operation is invertible (the paper implements inverse
//!   Reduce for its window queries to avoid re-evaluation, §7), and by
//!   recomputation otherwise.
//! * A *tumbling* window (slide equal to length, in batches) shares nothing
//!   with the one before it, so its answer is a fold of its own batches: the
//!   first batch's output is the open window's answer, each later one merges
//!   into it in batch order, and the emission hands it over. Nothing is
//!   buffered, evicted or inverted, for any operation, and the answer cannot
//!   carry a residue of an earlier window's rounding.

use std::collections::VecDeque;

use prompt_core::hash::KeyMap;
use prompt_core::types::{Duration, Key};

use crate::job::ReduceOp;
use crate::stage::BatchOutput;

/// A window specification in stream time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WindowSpec {
    /// Window length (e.g. 30 s).
    pub length: Duration,
    /// Slide between results (equal to `length` for tumbling windows).
    pub slide: Duration,
}

impl WindowSpec {
    /// A sliding window.
    pub fn sliding(length: Duration, slide: Duration) -> WindowSpec {
        assert!(slide.0 > 0 && length.0 >= slide.0, "invalid window spec");
        WindowSpec { length, slide }
    }

    /// A tumbling window (slide = length).
    pub fn tumbling(length: Duration) -> WindowSpec {
        WindowSpec::sliding(length, length)
    }

    /// Express the window in whole batches of `batch_interval`, rounding up
    /// (a window must cover at least one batch).
    pub fn in_batches(&self, batch_interval: Duration) -> (usize, usize) {
        assert!(batch_interval.0 > 0, "batch interval must be positive");
        let len = self.length.0.div_ceil(batch_interval.0).max(1) as usize;
        let slide = self.slide.0.div_ceil(batch_interval.0).max(1) as usize;
        (len, slide.min(len))
    }
}

/// One emitted window result.
#[derive(Clone, Debug)]
pub struct WindowResult {
    /// Sequence number of the last batch included.
    pub last_batch_seq: u64,
    /// Per-key aggregates over the window.
    pub aggregates: KeyMap<f64>,
}

impl WindowResult {
    /// The `k` largest aggregates, descending (ties by key ascending) — the
    /// TopKCount query's final step.
    pub fn top_k(&self, k: usize) -> Vec<(Key, f64)> {
        let mut all: Vec<(Key, f64)> = self.aggregates.iter().map(|(&k, &v)| (k, v)).collect();
        all.sort_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.0 .0.cmp(&b.0 .0))
        });
        all.truncate(k);
        all
    }
}

/// Window state over batch outputs: an incremental answer for a sliding
/// window, a fold of the open window's batches for a tumbling one (see the
/// module docs).
///
/// # Examples
///
/// ```
/// use prompt_engine::window::{WindowSpec, WindowState};
/// use prompt_engine::job::ReduceOp;
/// use prompt_engine::stage::BatchOutput;
/// use prompt_core::types::{Duration, Key};
///
/// let spec = WindowSpec::sliding(Duration::from_secs(2), Duration::from_secs(1));
/// let mut window = WindowState::new(spec, Duration::from_secs(1), ReduceOp::Sum);
/// let mut batch = BatchOutput::default();
/// batch.aggregates.insert(Key(1), 5.0);
/// let first = window.push(batch.clone()).expect("slide 1 emits every batch");
/// assert_eq!(first.aggregates[&Key(1)], 5.0);
/// let second = window.push(batch).expect("second result");
/// assert_eq!(second.aggregates[&Key(1)], 10.0); // two batches in the window
/// ```
#[derive(Debug)]
pub struct WindowState {
    op: ReduceOp,
    len_batches: usize,
    slide_batches: usize,
    /// Sliding windows: in-window batch outputs, oldest first (needed for
    /// eviction and for non-invertible recomputation).
    buffer: VecDeque<BatchOutput>,
    /// Sliding windows: running per-key aggregate with contribution counts
    /// (only maintained for invertible operations).
    running: KeyMap<(f64, usize)>,
    /// Tumbling windows: the open window's answer so far — its first
    /// batch's output, moved in, with each later batch merged into it.
    open: KeyMap<f64>,
    seq: u64,
    since_emit: usize,
}

impl WindowState {
    /// Create a window state for `spec` over batches of `batch_interval`.
    pub fn new(spec: WindowSpec, batch_interval: Duration, op: ReduceOp) -> WindowState {
        let (len_batches, slide_batches) = spec.in_batches(batch_interval);
        WindowState {
            op,
            len_batches,
            slide_batches,
            buffer: VecDeque::with_capacity(len_batches + 1),
            running: KeyMap::default(),
            open: KeyMap::default(),
            seq: 0,
            since_emit: 0,
        }
    }

    /// Window length in batches.
    pub fn len_batches(&self) -> usize {
        self.len_batches
    }

    /// Whether consecutive answers share no batch (slide = length, in
    /// batches).
    fn tumbling(&self) -> bool {
        self.len_batches == self.slide_batches
    }

    /// Push one batch output; returns a result when a slide boundary is
    /// crossed.
    pub fn push(&mut self, out: BatchOutput) -> Option<WindowResult> {
        if self.tumbling() {
            self.fold(out);
        } else {
            self.slide(out);
        }
        self.seq += 1;
        self.since_emit += 1;
        if self.since_emit >= self.slide_batches {
            self.since_emit = 0;
            let aggregates = if self.tumbling() {
                std::mem::take(&mut self.open)
            } else {
                self.current()
            };
            Some(WindowResult {
                last_batch_seq: self.seq - 1,
                aggregates,
            })
        } else {
            None
        }
    }

    /// A tumbling window's push: the window's first output becomes its
    /// answer, and each later one merges into it, key by key.
    fn fold(&mut self, out: BatchOutput) {
        if self.since_emit == 0 {
            self.open = out.aggregates;
            return;
        }
        let op = self.op;
        for (k, v) in out.aggregates {
            self.open
                .entry(k)
                .and_modify(|a| *a = op.merge(*a, v))
                .or_insert(v);
        }
    }

    /// A sliding window's push: merge the output into the running answer
    /// and retire the batch leaving the window.
    fn slide(&mut self, out: BatchOutput) {
        if self.op.invertible() {
            for (&k, &v) in &out.aggregates {
                let e = self.running.entry(k).or_insert((0.0, 0));
                e.0 = if e.1 == 0 { v } else { self.op.merge(e.0, v) };
                e.1 += 1;
            }
        }
        self.buffer.push_back(out);
        if self.buffer.len() > self.len_batches {
            let old = self.buffer.pop_front().expect("buffer non-empty");
            if self.op.invertible() {
                for (k, v) in old.aggregates {
                    let e = self.running.get_mut(&k).expect("evicted key tracked");
                    e.1 -= 1;
                    if e.1 == 0 {
                        self.running.remove(&k);
                    } else {
                        e.0 = self.op.invert(e.0, v);
                    }
                }
            }
        }
    }

    /// The current window aggregate. A sliding window's is incremental when
    /// invertible and recomputed otherwise, and stays the last emitted
    /// answer until the next push. A tumbling window's is a copy of the open
    /// window's batches pushed so far: empty right after an emission, which
    /// hands the answer over.
    pub fn current(&self) -> KeyMap<f64> {
        if self.tumbling() {
            self.open.clone()
        } else if self.op.invertible() {
            self.running.iter().map(|(&k, &(v, _))| (k, v)).collect()
        } else {
            let mut acc: KeyMap<f64> = KeyMap::default();
            for out in &self.buffer {
                for (&k, &v) in &out.aggregates {
                    acc.entry(k)
                        .and_modify(|a| *a = self.op.merge(*a, v))
                        .or_insert(v);
                }
            }
            acc
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn out(spec: &[(u64, f64)]) -> BatchOutput {
        let mut aggregates = KeyMap::default();
        for &(k, v) in spec {
            aggregates.insert(Key(k), v);
        }
        BatchOutput { aggregates }
    }

    #[test]
    fn spec_in_batches_rounds_up() {
        let s = WindowSpec::sliding(Duration::from_secs(30), Duration::from_secs(10));
        assert_eq!(s.in_batches(Duration::from_secs(3)), (10, 4));
        assert_eq!(s.in_batches(Duration::from_secs(30)), (1, 1));
        let t = WindowSpec::tumbling(Duration::from_secs(10));
        assert_eq!(t.in_batches(Duration::from_secs(5)), (2, 2));
    }

    #[test]
    #[should_panic(expected = "invalid window spec")]
    fn slide_longer_than_length_rejected() {
        let _ = WindowSpec::sliding(Duration::from_secs(5), Duration::from_secs(10));
    }

    #[test]
    fn sliding_sum_evicts_incrementally() {
        // Window of 3 batches, slide 1, Sum.
        let spec = WindowSpec::sliding(Duration::from_secs(3), Duration::from_secs(1));
        let mut w = WindowState::new(spec, Duration::from_secs(1), ReduceOp::Sum);
        assert_eq!(w.len_batches(), 3);
        let r1 = w.push(out(&[(1, 10.0)])).expect("slide 1 emits each batch");
        assert_eq!(r1.aggregates[&Key(1)], 10.0);
        let r2 = w.push(out(&[(1, 5.0), (2, 1.0)])).unwrap();
        assert_eq!(r2.aggregates[&Key(1)], 15.0);
        let r3 = w.push(out(&[(1, 2.0)])).unwrap();
        assert_eq!(r3.aggregates[&Key(1)], 17.0);
        // Fourth push evicts the first batch (10.0).
        let r4 = w.push(out(&[(3, 7.0)])).unwrap();
        assert_eq!(r4.aggregates[&Key(1)], 7.0);
        assert_eq!(r4.aggregates[&Key(2)], 1.0);
        assert_eq!(r4.aggregates[&Key(3)], 7.0);
        // Fifth push evicts batch 2; key 2 disappears entirely.
        let r5 = w.push(out(&[])).unwrap();
        assert!(!r5.aggregates.contains_key(&Key(2)));
        assert_eq!(r5.aggregates[&Key(1)], 2.0);
    }

    #[test]
    fn incremental_matches_recompute_for_sum() {
        let spec = WindowSpec::sliding(Duration::from_secs(4), Duration::from_secs(1));
        let mut w = WindowState::new(spec, Duration::from_secs(1), ReduceOp::Sum);
        let batches = [
            out(&[(1, 1.0), (2, 2.0)]),
            out(&[(1, 3.0)]),
            out(&[(2, 4.0), (3, 5.0)]),
            out(&[(1, -1.0)]),
            out(&[(3, 2.0)]),
            out(&[]),
        ];
        for b in batches {
            w.push(b.clone());
            // Recompute from the buffer and compare with the running state.
            let mut expect: KeyMap<f64> = KeyMap::default();
            for o in &w.buffer {
                for (&k, &v) in &o.aggregates {
                    *expect.entry(k).or_insert(0.0) += v;
                }
            }
            let got = w.current();
            assert_eq!(got.len(), expect.len());
            for (k, v) in expect {
                assert!((got[&k] - v).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn non_invertible_max_recomputes() {
        let spec = WindowSpec::sliding(Duration::from_secs(2), Duration::from_secs(1));
        let mut w = WindowState::new(spec, Duration::from_secs(1), ReduceOp::Max);
        w.push(out(&[(1, 100.0)]));
        w.push(out(&[(1, 5.0)]));
        assert_eq!(w.current()[&Key(1)], 100.0);
        // Evict the 100: max must drop to 5.
        let r = w.push(out(&[(1, 7.0)])).unwrap();
        assert_eq!(r.aggregates[&Key(1)], 7.0);
    }

    #[test]
    fn slide_gt_one_emits_sparsely() {
        let spec = WindowSpec::sliding(Duration::from_secs(4), Duration::from_secs(2));
        let mut w = WindowState::new(spec, Duration::from_secs(1), ReduceOp::Count);
        assert!(w.push(out(&[(1, 1.0)])).is_none());
        assert!(w.push(out(&[(1, 1.0)])).is_some());
        assert!(w.push(out(&[(1, 1.0)])).is_none());
        assert!(w.push(out(&[(1, 1.0)])).is_some());
    }

    /// A tumbling window's answer is its own batches' fold: the second
    /// window of a 2-batch Sum owes nothing to the 1e20 the first window
    /// held. An inverse Reduce that retires the first window's batches
    /// answers `k7 = 0.0` and `k8 = 0.7000000000000002` here.
    #[test]
    fn tumbling_sum_carries_no_residue_of_the_window_before() {
        let spec = WindowSpec::tumbling(Duration::from_secs(2));
        let mut w = WindowState::new(spec, Duration::from_secs(1), ReduceOp::Sum);
        assert!(w.push(out(&[(7, 1e20), (8, 0.1)])).is_none());
        let first = w.push(out(&[(8, 0.2)])).expect("the first window closes");
        assert_eq!(first.aggregates[&Key(7)], 1e20);
        assert_eq!(
            first.aggregates[&Key(8)].to_bits(),
            (0.1f64 + 0.2).to_bits()
        );
        assert!(w.push(out(&[(7, 1.0), (8, 0.3)])).is_none());
        let second = w.push(out(&[(8, 0.4)])).expect("the second window closes");
        assert_eq!(second.last_batch_seq, 3);
        assert_eq!(second.aggregates.len(), 2);
        assert_eq!(second.aggregates[&Key(7)].to_bits(), 1.0f64.to_bits());
        assert_eq!(
            second.aggregates[&Key(8)].to_bits(),
            (0.3f64 + 0.4).to_bits()
        );
    }

    /// A tumbling window's answer as `(key, bits)`, sorted.
    fn answer_bits(aggregates: &KeyMap<f64>) -> Vec<(u64, u64)> {
        let mut bits: Vec<_> = aggregates.iter().map(|(k, v)| (k.0, v.to_bits())).collect();
        bits.sort_unstable();
        bits
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Every emission of a tumbling window, for every `ReduceOp` and
        /// lengths 1–4, is the answer of a fresh window fed only that
        /// window's batches, and the fold of those batches in batch order,
        /// bit for bit. Values are non-integer, signed and of mixed
        /// magnitude, so a Sum that kept any earlier batch's rounding shows.
        #[test]
        fn a_tumbling_emission_is_its_own_batches_fold(
            len in 1usize..5,
            stream in proptest::collection::vec(
                proptest::collection::vec((0u64..6, -40i32..40, 0u32..3), 0..6),
                0..14,
            ),
        ) {
            let batches: Vec<BatchOutput> = (stream.iter())
                .map(|entries| {
                    let values = entries.iter().map(|&(k, v, scale)| {
                        (k, (v as f64 + 0.1) * [1.0, 1e-3, 1e17][scale as usize])
                    });
                    out(&values.collect::<Vec<_>>())
                })
                .collect();
            let spec = WindowSpec::tumbling(Duration::from_secs(len as u64));
            for op in [ReduceOp::Sum, ReduceOp::Count, ReduceOp::Max, ReduceOp::Min] {
                let mut w = WindowState::new(spec, Duration::from_secs(1), op);
                for (i, b) in batches.iter().enumerate() {
                    let got = w.push(b.clone());
                    prop_assert_eq!(got.is_some(), (i + 1) % len == 0);
                    let Some(got) = got else { continue };
                    let window = &batches[i + 1 - len..=i];
                    let mut fresh = WindowState::new(spec, Duration::from_secs(1), op);
                    let mut alone = None;
                    for b in window {
                        alone = fresh.push(b.clone());
                    }
                    let alone = alone.expect("a fresh window closes on its last batch");
                    let mut fold: KeyMap<f64> = KeyMap::default();
                    for b in window {
                        for (&k, &v) in &b.aggregates {
                            fold.entry(k).and_modify(|a| *a = op.merge(*a, v)).or_insert(v);
                        }
                    }
                    prop_assert_eq!(got.last_batch_seq, i as u64);
                    prop_assert_eq!(answer_bits(&got.aggregates), answer_bits(&alone.aggregates));
                    prop_assert_eq!(answer_bits(&got.aggregates), answer_bits(&fold));
                }
            }
        }
    }

    #[test]
    fn top_k_orders_descending_with_key_ties() {
        let r = WindowResult {
            last_batch_seq: 0,
            aggregates: out(&[(1, 5.0), (2, 9.0), (3, 5.0), (4, 1.0)]).aggregates,
        };
        let top = r.top_k(3);
        assert_eq!(top, vec![(Key(2), 9.0), (Key(1), 5.0), (Key(3), 5.0)]);
        assert_eq!(r.top_k(0), vec![]);
    }
}
