//! Streaming Map-Reduce job definitions (§2.1).
//!
//! A query compiles into `Map(k, v) → (k', v')` followed by an associative
//! `Reduce` aggregation per key. Micro-batch engines additionally exploit an
//! *inverse* Reduce to retire expired batches from sliding windows without
//! recomputation (§2.1, Fig. 3) — [`ReduceOp::invertible`] says whether the
//! operation supports that.

use std::sync::Arc;

use prompt_core::types::Tuple;

/// The associative aggregation applied by the Reduce stage.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReduceOp {
    /// Sum of values. Invertible.
    Sum,
    /// Count of tuples (values ignored). Invertible.
    Count,
    /// Maximum value. Not invertible — window eviction recomputes.
    Max,
    /// Minimum value. Not invertible.
    Min,
}

impl ReduceOp {
    /// Fold one mapped value into a partial aggregate.
    #[inline]
    pub fn apply(&self, acc: Option<f64>, v: f64) -> f64 {
        match (self, acc) {
            (ReduceOp::Sum, None) => v,
            (ReduceOp::Sum, Some(a)) => a + v,
            (ReduceOp::Count, None) => 1.0,
            (ReduceOp::Count, Some(a)) => a + 1.0,
            (ReduceOp::Max, None) => v,
            (ReduceOp::Max, Some(a)) => a.max(v),
            (ReduceOp::Min, None) => v,
            (ReduceOp::Min, Some(a)) => a.min(v),
        }
    }

    /// Merge two partial aggregates (the Reduce-side combine).
    #[inline]
    pub fn merge(&self, a: f64, b: f64) -> f64 {
        match self {
            ReduceOp::Sum | ReduceOp::Count => a + b,
            ReduceOp::Max => a.max(b),
            ReduceOp::Min => a.min(b),
        }
    }

    /// Whether an inverse exists (needed for incremental window eviction).
    #[inline]
    pub fn invertible(&self) -> bool {
        matches!(self, ReduceOp::Sum | ReduceOp::Count)
    }

    /// Remove a previously merged partial (`acc ⊖ old`). Panics for
    /// non-invertible operations.
    #[inline]
    pub fn invert(&self, acc: f64, old: f64) -> f64 {
        match self {
            ReduceOp::Sum | ReduceOp::Count => acc - old,
            _ => panic!("{self:?} has no inverse reduce"),
        }
    }

    /// Wire tag of the operation (for the binary task protocol).
    pub fn wire_code(self) -> u8 {
        match self {
            ReduceOp::Sum => 0,
            ReduceOp::Count => 1,
            ReduceOp::Max => 2,
            ReduceOp::Min => 3,
        }
    }

    /// Inverse of [`ReduceOp::wire_code`]; `None` for unknown tags.
    pub fn from_wire_code(code: u8) -> Option<ReduceOp> {
        match code {
            0 => Some(ReduceOp::Sum),
            1 => Some(ReduceOp::Count),
            2 => Some(ReduceOp::Max),
            3 => Some(ReduceOp::Min),
            _ => None,
        }
    }
}

/// Wire-expressible Map functions. Arbitrary closures cannot cross a process
/// boundary; distributed jobs are restricted to the declarative shapes a
/// worker can reconstruct. (`Identity` covers WordCount, per-key sums and
/// every experiment in the harness — sources pre-key their tuples.)
///
/// Invariant the fleet's driver relies on: every wire-expressible Map keeps
/// every tuple under its own key — none is filtered, none re-keyed — so a
/// block's fragment table is its Map output's `(key, count)` table, and the
/// driver runs Algorithm 3 from the plan without hearing back from the Map
/// (`net::driver`). A variant that filters cannot be added without giving
/// that up; a worker whose Map output disagrees with its assignment refuses
/// it (`WorkerError`), it never drops keys.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MapSpec {
    /// Keep the tuple's value unchanged (`Job::identity`).
    Identity,
}

impl MapSpec {
    /// Wire tag of the map shape.
    pub fn wire_code(self) -> u8 {
        match self {
            MapSpec::Identity => 0,
        }
    }

    /// Inverse of [`MapSpec::wire_code`]; `None` for unknown tags.
    pub fn from_wire_code(code: u8) -> Option<MapSpec> {
        match code {
            0 => Some(MapSpec::Identity),
            _ => None,
        }
    }
}

/// A serializable job description: everything a remote worker needs to
/// instantiate the [`Job`] locally.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct JobSpec {
    /// The declarative Map shape.
    pub map: MapSpec,
    /// The Reduce aggregation.
    pub reduce: ReduceOp,
}

impl JobSpec {
    /// Materialize the runnable job on this process.
    pub fn instantiate(self, name: impl Into<String>) -> Job {
        match self.map {
            MapSpec::Identity => Job::identity(name, self.reduce),
        }
    }
}

/// The Map function: filter + value transform, at most one output per input
/// tuple. The paper's Map is key-preserving — `Map(k, v1) → (k, List(V))` —
/// which is what keeps each block's split-key reference table valid for the
/// Reduce allocator, so the output key is implicitly the tuple's key.
/// (Flat-mapping generators — e.g. splitting text into words — happen in the
/// source, exactly as the paper keys tweets by their words at ingestion.)
pub type MapFn = Arc<dyn Fn(&Tuple) -> Option<f64> + Send + Sync>;

/// A streaming Map-Reduce job.
#[derive(Clone)]
pub struct Job {
    /// Job name for reports.
    pub name: String,
    /// The Map function.
    pub map: MapFn,
    /// The Reduce aggregation.
    pub reduce: ReduceOp,
    /// The wire-expressible description, when the map shape has one.
    /// `None` for arbitrary closures ([`Job::new`]) — such jobs cannot run
    /// on the distributed backend.
    spec: Option<JobSpec>,
}

impl std::fmt::Debug for Job {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Job")
            .field("name", &self.name)
            .field("reduce", &self.reduce)
            .finish()
    }
}

impl Job {
    /// A job with an explicit map function.
    pub fn new(
        name: impl Into<String>,
        map: impl Fn(&Tuple) -> Option<f64> + Send + Sync + 'static,
        reduce: ReduceOp,
    ) -> Job {
        Job {
            name: name.into(),
            map: Arc::new(map),
            reduce,
            spec: None,
        }
    }

    /// The identity job: keep the value as-is and aggregate with `op`.
    /// Covers WordCount (`Count`), per-key sums, etc.
    pub fn identity(name: impl Into<String>, op: ReduceOp) -> Job {
        let mut job = Job::new(name, |t: &Tuple| Some(t.value), op);
        job.spec = Some(JobSpec {
            map: MapSpec::Identity,
            reduce: op,
        });
        job
    }

    /// The wire-expressible description of this job, if its map shape has
    /// one. The distributed backend requires `Some`.
    pub fn wire_spec(&self) -> Option<JobSpec> {
        self.spec
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prompt_core::types::{Key, Time};

    #[test]
    fn sum_and_count_apply_merge_invert() {
        let s = ReduceOp::Sum;
        let acc = s.apply(Some(s.apply(None, 2.0)), 3.0);
        assert_eq!(acc, 5.0);
        assert_eq!(s.merge(5.0, 7.0), 12.0);
        assert!(s.invertible());
        assert_eq!(s.invert(12.0, 5.0), 7.0);

        let c = ReduceOp::Count;
        let acc = c.apply(Some(c.apply(None, 99.0)), -1.0);
        assert_eq!(acc, 2.0, "count ignores values");
        assert_eq!(c.merge(2.0, 3.0), 5.0);
        assert_eq!(c.invert(5.0, 2.0), 3.0);
    }

    #[test]
    fn max_min_behaviour() {
        assert_eq!(ReduceOp::Max.apply(Some(3.0), 7.0), 7.0);
        assert_eq!(ReduceOp::Max.merge(3.0, 7.0), 7.0);
        assert_eq!(ReduceOp::Min.apply(Some(3.0), 7.0), 3.0);
        assert_eq!(ReduceOp::Min.merge(3.0, 7.0), 3.0);
        assert!(!ReduceOp::Max.invertible());
        assert!(!ReduceOp::Min.invertible());
    }

    #[test]
    #[should_panic(expected = "no inverse reduce")]
    fn max_invert_panics() {
        ReduceOp::Max.invert(1.0, 1.0);
    }

    #[test]
    fn identity_job_maps_through() {
        let job = Job::identity("wordcount", ReduceOp::Count);
        let t = Tuple::new(Time::ZERO, Key(4), 9.0);
        assert_eq!((job.map)(&t), Some(9.0));
        assert_eq!(job.name, "wordcount");
    }

    #[test]
    fn wire_codes_round_trip_and_specs_instantiate() {
        for op in [ReduceOp::Sum, ReduceOp::Count, ReduceOp::Max, ReduceOp::Min] {
            assert_eq!(ReduceOp::from_wire_code(op.wire_code()), Some(op));
        }
        assert_eq!(ReduceOp::from_wire_code(9), None);
        assert_eq!(
            MapSpec::from_wire_code(MapSpec::Identity.wire_code()),
            Some(MapSpec::Identity)
        );
        assert_eq!(MapSpec::from_wire_code(7), None);

        let job = Job::identity("sum", ReduceOp::Sum);
        let spec = job.wire_spec().expect("identity jobs are wire-able");
        let remote = spec.instantiate("sum");
        let t = Tuple::new(Time::ZERO, Key(1), 4.5);
        assert_eq!((remote.map)(&t), (job.map)(&t));

        let opaque = Job::new("custom", |_: &Tuple| None, ReduceOp::Sum);
        assert_eq!(opaque.wire_spec(), None);
    }

    #[test]
    fn filtering_map() {
        let job = Job::new(
            "evens",
            |t: &Tuple| t.key.0.is_multiple_of(2).then_some(t.value * 2.0),
            ReduceOp::Sum,
        );
        assert_eq!((job.map)(&Tuple::keyed(Time::ZERO, Key(2))), Some(2.0));
        assert_eq!((job.map)(&Tuple::keyed(Time::ZERO, Key(3))), None);
    }
}
