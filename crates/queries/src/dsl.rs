//! A small declarative query layer.
//!
//! The paper's model (§2.1): "a streaming query Q submitted in a declarative
//! or imperative form is compiled into a Map-Reduce execution graph". The
//! imperative form is [`prompt_engine::job::Job`] with closures; this module
//! is the declarative form — a value-typed [`QuerySpec`] (predicate +
//! transform + aggregation + window) that [`QuerySpec::compile`]s into the
//! same Job. Being plain data, specs can be built from config files, tested
//! structurally, and printed.

use prompt_core::types::Duration;
use prompt_engine::driver::StreamingEngine;
use prompt_engine::job::{Job, ReduceOp};
use prompt_engine::state::StatefulOp;
use prompt_engine::window::WindowSpec;

/// A predicate over the tuple's value field.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Predicate {
    /// Accept every tuple.
    True,
    /// `value > x`.
    Gt(f64),
    /// `value ≥ x`.
    Ge(f64),
    /// `value < x`.
    Lt(f64),
    /// `value ≤ x`.
    Le(f64),
    /// `lo ≤ value ≤ hi`.
    Between(f64, f64),
    /// `value ≠ 0` (the "non-null" filter TPC-H Q6 uses here).
    NonZero,
}

impl Predicate {
    /// Evaluate against a value.
    pub fn eval(&self, v: f64) -> bool {
        match *self {
            Predicate::True => true,
            Predicate::Gt(x) => v > x,
            Predicate::Ge(x) => v >= x,
            Predicate::Lt(x) => v < x,
            Predicate::Le(x) => v <= x,
            Predicate::Between(lo, hi) => (lo..=hi).contains(&v),
            Predicate::NonZero => v != 0.0,
        }
    }
}

/// A value transform applied after the predicate.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Transform {
    /// Keep the value.
    Identity,
    /// Replace with 1.0 (so `Sum` counts).
    One,
    /// Multiply by a constant.
    Scale(f64),
    /// Add a constant.
    Shift(f64),
}

impl Transform {
    /// Apply to a value.
    pub fn apply(&self, v: f64) -> f64 {
        match *self {
            Transform::Identity => v,
            Transform::One => 1.0,
            Transform::Scale(f) => v * f,
            Transform::Shift(d) => v + d,
        }
    }
}

/// A declarative streaming query: `SELECT key, AGG(transform(value)) WHERE
/// predicate GROUP BY key WINDOW length SLIDE slide`.
#[derive(Clone, Debug, PartialEq)]
pub struct QuerySpec {
    /// Query name.
    pub name: String,
    /// Row filter.
    pub predicate: Predicate,
    /// Value transform.
    pub transform: Transform,
    /// Per-key aggregation.
    pub aggregate: ReduceOp,
    /// Window length.
    pub window: Duration,
    /// Window slide.
    pub slide: Duration,
    /// Optional stateful per-key operator evaluated against the engine's
    /// durable keyed state alongside the windowed aggregate.
    pub stateful: Option<StatefulOp>,
}

impl QuerySpec {
    /// Start a spec with defaults: no filter, identity transform, Sum,
    /// 30 s window sliding by 10 s.
    pub fn new(name: impl Into<String>) -> QuerySpec {
        QuerySpec {
            name: name.into(),
            predicate: Predicate::True,
            transform: Transform::Identity,
            aggregate: ReduceOp::Sum,
            window: Duration::from_secs(30),
            slide: Duration::from_secs(10),
            stateful: None,
        }
    }

    /// Set the filter.
    pub fn filter(mut self, p: Predicate) -> QuerySpec {
        self.predicate = p;
        self
    }

    /// Set the transform.
    pub fn map(mut self, t: Transform) -> QuerySpec {
        self.transform = t;
        self
    }

    /// Set the aggregation.
    pub fn aggregate(mut self, op: ReduceOp) -> QuerySpec {
        self.aggregate = op;
        self
    }

    /// Set the window geometry.
    pub fn window(mut self, length: Duration, slide: Duration) -> QuerySpec {
        self.window = length;
        self.slide = slide;
        self
    }

    /// Declare a stateful per-key operator (e.g. session count) to be
    /// evaluated against the engine's keyed state store on every window
    /// emission.
    pub fn stateful(mut self, op: StatefulOp) -> QuerySpec {
        self.stateful = Some(op);
        self
    }

    /// Compile into the engine's imperative form.
    pub fn compile(&self) -> (Job, WindowSpec) {
        let predicate = self.predicate;
        let transform = self.transform;
        let job = Job::new(
            self.name.clone(),
            move |_, v| predicate.eval(v).then(|| transform.apply(v)),
            self.aggregate,
        );
        (job, WindowSpec::sliding(self.window, self.slide))
    }

    /// Attach this spec's compiled window — and its stateful operator,
    /// when one is declared — to an engine built from [`compile`]'s job.
    /// A declared operator routes window maintenance through the durable
    /// [`prompt_engine::state::KeyedStateStore`] instead of the serial
    /// window path (same results, checkpointable state).
    ///
    /// [`compile`]: QuerySpec::compile
    pub fn configure(&self, engine: StreamingEngine) -> StreamingEngine {
        let engine = engine.with_window(WindowSpec::sliding(self.window, self.slide));
        match self.stateful {
            Some(op) => engine.with_stateful(op),
            None => engine,
        }
    }
}

impl std::fmt::Display for QuerySpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "SELECT key, {:?}({:?}(value)) WHERE {:?} GROUP BY key \
             WINDOW {:.0}s SLIDE {:.0}s -- {}",
            self.aggregate,
            self.transform,
            self.predicate,
            self.window.as_secs_f64(),
            self.slide.as_secs_f64(),
            self.name
        )?;
        if let Some(op) = self.stateful {
            write!(f, " [stateful: {op:?}]")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prompt_core::types::{Key, Time, Tuple};

    #[test]
    fn predicates_evaluate() {
        assert!(Predicate::True.eval(-1.0));
        assert!(Predicate::Gt(2.0).eval(3.0) && !Predicate::Gt(2.0).eval(2.0));
        assert!(Predicate::Ge(2.0).eval(2.0));
        assert!(Predicate::Lt(2.0).eval(1.0) && !Predicate::Lt(2.0).eval(2.0));
        assert!(Predicate::Le(2.0).eval(2.0));
        assert!(Predicate::Between(1.0, 3.0).eval(1.0));
        assert!(Predicate::Between(1.0, 3.0).eval(3.0));
        assert!(!Predicate::Between(1.0, 3.0).eval(3.1));
        assert!(Predicate::NonZero.eval(-0.5) && !Predicate::NonZero.eval(0.0));
    }

    #[test]
    fn transforms_apply() {
        assert_eq!(Transform::Identity.apply(4.0), 4.0);
        assert_eq!(Transform::One.apply(4.0), 1.0);
        assert_eq!(Transform::Scale(2.5).apply(4.0), 10.0);
        assert_eq!(Transform::Shift(-1.0).apply(4.0), 3.0);
    }

    #[test]
    fn compiled_job_filters_and_transforms() {
        let spec = QuerySpec::new("big-orders")
            .filter(Predicate::Gt(100.0))
            .map(Transform::Scale(0.1))
            .aggregate(ReduceOp::Sum);
        let (job, window) = spec.compile();
        assert_eq!((job.map())(Key(1), 200.0), Some(20.0));
        assert_eq!((job.map())(Key(1), 50.0), None);
        assert_eq!(job.reduce(), ReduceOp::Sum);
        assert_eq!(window.length, Duration::from_secs(30));
    }

    #[test]
    fn spec_reproduces_tpch_q6() {
        // The hand-written Q6 job: keep value > 0, sum. Declaratively:
        let spec = QuerySpec::new("q6")
            .filter(Predicate::NonZero)
            .window(Duration::from_secs(3600), Duration::from_secs(60));
        let (job, _) = spec.compile();
        let reference = crate::tpch_q6();
        for v in [0.0, 12.5, 900.0] {
            let key = Key(9);
            assert_eq!(
                (job.map())(key, v),
                (reference.job.map())(key, v),
                "value {v}"
            );
        }
    }

    #[test]
    fn display_reads_like_a_query() {
        let s = QuerySpec::new("demo")
            .filter(Predicate::Gt(5.0))
            .aggregate(ReduceOp::Count)
            .to_string();
        assert!(s.contains("SELECT key"));
        assert!(s.contains("Gt(5.0)"));
        assert!(s.contains("demo"));
    }

    #[test]
    fn stateful_query_compiles_and_runs() {
        use prompt_core::partitioner::Technique;
        use prompt_core::types::Interval;
        use prompt_engine::prelude::*;
        let spec = QuerySpec::new("active-keys")
            .map(Transform::One)
            .aggregate(ReduceOp::Sum)
            .window(Duration::from_secs(3), Duration::from_secs(1))
            .stateful(StatefulOp::SessionCount);
        assert!(spec.to_string().contains("[stateful: SessionCount]"));
        let (job, _) = spec.compile();
        let cfg = EngineConfig {
            batch_interval: Duration::from_secs(1),
            map_tasks: 2,
            reduce_tasks: 2,
            cluster: Cluster::new(1, 2),
            ..EngineConfig::default()
        };
        let mut engine = spec.configure(StreamingEngine::new(cfg, Technique::Prompt, 1, job));
        // 4 keys, each present in every batch.
        let mut source = |iv: Interval, out: &mut Vec<Tuple>| {
            let step = iv.len().0 / 101;
            for i in 0..100usize {
                out.push(Tuple::keyed(
                    Time(iv.start.0 + step * (i as u64 + 1)),
                    Key(i as u64 % 4),
                ));
            }
        };
        let result = engine.run(&mut source, 6);
        assert_eq!(result.stateful.len(), result.windows.len());
        let last = result.stateful.last().unwrap();
        for k in 0..4u64 {
            assert_eq!(
                last.aggregates[&Key(k)],
                3.0,
                "key {k} active in all 3 window batches"
            );
        }
        // The windowed aggregate is still emitted alongside.
        let window = result.windows.last().unwrap();
        assert_eq!(window.aggregates[&Key(0)], 75.0, "3 batches x 25 per key");
    }

    #[test]
    fn end_to_end_declarative_query() {
        use prompt_core::partitioner::Technique;
        use prompt_engine::prelude::*;
        let spec = QuerySpec::new("counts-over-2")
            .filter(Predicate::Ge(0.0))
            .map(Transform::One)
            .aggregate(ReduceOp::Sum)
            .window(Duration::from_secs(2), Duration::from_secs(1));
        let (job, window) = spec.compile();
        let cfg = EngineConfig {
            batch_interval: Duration::from_secs(1),
            map_tasks: 2,
            reduce_tasks: 2,
            cluster: Cluster::new(1, 2),
            ..EngineConfig::default()
        };
        let mut engine = StreamingEngine::new(cfg, Technique::Prompt, 1, job).with_window(window);
        let mut source = prompt_workloads::datasets::gcm(
            prompt_workloads::rate::RateProfile::Constant { rate: 1_000.0 },
            50,
            1,
        );
        let result = engine.run(&mut source, 4);
        let total: f64 = result.windows.last().unwrap().aggregates.values().sum();
        assert!(
            (1990.0..2010.0).contains(&total),
            "2 s of 1000/s, got {total}"
        );
    }
}
