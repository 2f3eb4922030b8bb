//! One stable LSD radix sort keyed by a `u64`, for every order the engine
//! lays data out in: the heartbeat's exact `(count desc, key asc)` order of
//! a batch's keys ([`RadixSort::order_by_count`]);
//! each Prompt block's pieces in key order; a baseline's blocks; a state
//! shard's panes and its snapshot.
//!
//! A key is read as six 11-bit digits, least significant first. A first
//! pass over the slice finds the bits in which keys differ; a digit with
//! none of them is one every element shares, and is skipped, so keys below
//! 2²² sort in two scatter passes whatever their width. One more pass fills
//! the histograms of the live digits alone. Each scatter is stable, so
//! elements with equal keys keep their input order — what lets a sort by key
//! alone group a block's values in arrival order. Below [`FALLBACK_LEN`]
//! elements a stable comparison sort is cheaper than clearing the
//! histograms. The ping-pong buffer and the histograms belong to a
//! [`RadixSort`] the caller keeps, so sorting allocates only while the
//! longest slice so far grows.

/// Bits of one digit.
const DIGIT_BITS: u32 = 11;
/// Buckets of one digit's histogram.
const BUCKETS: usize = 1 << DIGIT_BITS;
/// Digits of a `u64` key; the last holds its top 9 bits.
const DIGITS: usize = u64::BITS.div_ceil(DIGIT_BITS) as usize;

/// Slices shorter than this are sorted by the standard library's stable
/// comparison sort.
pub const FALLBACK_LEN: usize = 64;

/// A stable radix sort's buffers, kept across sorts. See the module docs.
#[derive(Clone, Debug)]
pub struct RadixSort<T> {
    /// The other half of the ping-pong: as long as the longest slice sorted.
    buf: Vec<T>,
    /// One histogram per live digit, then each digit's next write position.
    counts: Vec<[usize; BUCKETS]>,
}

impl<T> Default for RadixSort<T> {
    fn default() -> RadixSort<T> {
        RadixSort {
            buf: Vec::new(),
            counts: Vec::new(),
        }
    }
}

/// The bits in which the values `of` yields differ: set in some, clear in
/// others.
fn varying<T>(v: &[T], of: impl Fn(&T) -> u64) -> u64 {
    let (any, all) = (v.iter()).fold((0, u64::MAX), |(any, all), x| {
        let k = of(x);
        (any | k, all & k)
    });
    any ^ all
}

impl<T: Copy> RadixSort<T> {
    /// Sort `v` by `key`, stably: elements with equal keys keep their order.
    pub fn sort(&mut self, v: &mut [T], key: impl Fn(&T) -> u64) {
        let n = v.len();
        if n < FALLBACK_LEN {
            v.sort_by_key(key);
            return;
        }
        let digit = |k: u64, d: usize| (k >> (d as u32 * DIGIT_BITS)) as usize & (BUCKETS - 1);
        // A digit is live if some key differs from another in it.
        let varying = varying(v, &key);
        let mut live = [0; DIGITS];
        let mut passes = 0;
        for d in 0..DIGITS {
            if digit(varying, d) != 0 {
                live[passes] = d;
                passes += 1;
            }
        }
        if passes == 0 {
            return;
        }
        let live = &live[..passes];
        self.counts.resize(DIGITS, [0; BUCKETS]);
        let counts = &mut self.counts[..passes];
        counts.iter_mut().for_each(|h| h.fill(0));
        for x in v.iter() {
            let k = key(x);
            for (h, &d) in counts.iter_mut().zip(live) {
                h[digit(k, d)] += 1;
            }
        }
        self.buf.clear();
        self.buf.extend_from_slice(v);
        let (mut src, mut dst): (&mut [T], &mut [T]) = (v, &mut self.buf);
        for (at, &d) in counts.iter_mut().zip(live) {
            let mut start = 0;
            for c in at.iter_mut() {
                (*c, start) = (start, start + *c);
            }
            for x in src.iter() {
                let b = digit(key(x), d);
                dst[at[b]] = *x;
                at[b] += 1;
            }
            (src, dst) = (dst, src);
        }
        if passes % 2 == 1 {
            // The sorted elements are in the buffer, `src`; `dst` is `v`.
            dst.copy_from_slice(src);
        }
    }

    /// Sort `v` by `count` descending, then `key` ascending — the exact
    /// heartbeat order — stably: a sort by key, then a stable one by the
    /// count's complement. Only digits in which keys, or counts, differ cost
    /// a pass, so keys below 2²² with counts below 2²² take four.
    pub fn order_by_count(
        &mut self,
        v: &mut [T],
        count: impl Fn(&T) -> u64,
        key: impl Fn(&T) -> u64,
    ) {
        self.sort(v, key);
        self.sort(v, |x| !count(x));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Six digits cover the key, and the top one is the short one.
    #[test]
    fn six_digits_cover_a_u64() {
        assert_eq!(DIGITS, 6);
        assert_eq!(u64::BITS - (DIGITS as u32 - 1) * DIGIT_BITS, 9);
    }

    /// A kept sorter grows to the longest slice and keeps that buffer.
    #[test]
    fn the_buffer_is_kept_across_sorts() {
        let mut sort = RadixSort::default();
        let mut long: Vec<u64> = (0..1000).rev().collect();
        sort.sort(&mut long, |&k| k);
        assert!(long.windows(2).all(|w| w[0] < w[1]));
        let held = sort.buf.as_ptr();
        let mut short: Vec<u64> = (0..500).map(|i| i * 7919 % 500).collect();
        sort.sort(&mut short, |&k| k);
        assert_eq!(short, (0..500).collect::<Vec<u64>>());
        assert_eq!(sort.buf.as_ptr(), held);
    }
}
