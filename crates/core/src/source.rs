//! The stream-source abstraction consumed by the engine's receiver.

use crate::types::{Interval, Tuple};

/// A source of timestamped tuples — the engine's receiver pulls one batch
/// interval's worth of arrivals at a time.
///
/// Implementations must emit tuples in non-decreasing timestamp order within
/// `interval` (the paper's assumption 1), all with `interval.contains(ts)`.
pub trait TupleSource {
    /// Append the tuples arriving during `interval` to `out`.
    fn fill(&mut self, interval: Interval, out: &mut Vec<Tuple>);
}

/// Blanket implementation so closures can act as sources in tests.
impl<F> TupleSource for F
where
    F: FnMut(Interval, &mut Vec<Tuple>),
{
    fn fill(&mut self, interval: Interval, out: &mut Vec<Tuple>) {
        self(interval, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{Key, Time};

    #[test]
    fn closure_source_works() {
        let mut src = |iv: Interval, out: &mut Vec<Tuple>| {
            out.push(Tuple::keyed(iv.start, Key(1)));
        };
        let mut buf = Vec::new();
        let iv = Interval::new(Time::ZERO, Time::from_secs(1));
        src.fill(iv, &mut buf);
        assert_eq!(buf.len(), 1);
        assert!(iv.contains(buf[0].ts));
    }
}
