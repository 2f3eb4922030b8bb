//! # prompt-queries
//!
//! The benchmark queries of the Prompt evaluation (§7.1), expressed as
//! Map-Reduce jobs with their window specifications and natural data
//! sources:
//!
//! * **WordCount** — sliding count of words over 30 s (Tweets / SynD).
//! * **TopKCount** — the k most frequent words over the past 30 s.
//! * **DEBS Q1** — total fare per taxi over 2 h windows with a 5 min slide.
//! * **DEBS Q2** — total distance per taxi over 45 min windows, 1 min slide.
//! * **GCM Q1/Q2** — cluster-monitoring aggregations per machine.
//! * **TPC-H Q1/Q6** — order-summary aggregations over LineItem streams.
//!
//! The paper runs hour-scale windows over second-scale batches; the
//! [`Query::scale_window`] helper shrinks a window proportionally so
//! laptop-scale experiments keep the same window-to-batch geometry.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod dsl;

use prompt_core::source::TupleSource;
use prompt_core::types::{Duration, Key};
use prompt_engine::job::{Job, ReduceOp};
use prompt_engine::window::{WindowResult, WindowSpec};
use prompt_workloads::datasets::{self, DebsField, TpchQuery};
use prompt_workloads::rate::RateProfile;

/// A benchmark query: job + window + a factory for its natural source.
pub struct Query {
    /// Query name as used in the paper.
    pub name: &'static str,
    /// The Map-Reduce job.
    pub job: Job,
    /// The window specification (paper-scale).
    pub window: WindowSpec,
    /// Default key cardinality of the query's source.
    pub cardinality: u64,
    source: Box<dyn Fn(RateProfile, u64, u64) -> Box<dyn TupleSource> + Send + Sync>,
}

impl std::fmt::Debug for Query {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Query")
            .field("name", &self.name)
            .field("window", &self.window)
            .field("cardinality", &self.cardinality)
            .finish()
    }
}

impl Query {
    /// Build the query's natural source at `rate` tuples/second with the
    /// query's default cardinality.
    pub fn source(&self, rate: RateProfile, seed: u64) -> Box<dyn TupleSource> {
        (self.source)(rate, self.cardinality, seed)
    }

    /// Build the source with an explicit cardinality.
    pub fn source_with_cardinality(
        &self,
        rate: RateProfile,
        cardinality: u64,
        seed: u64,
    ) -> Box<dyn TupleSource> {
        (self.source)(rate, cardinality, seed)
    }

    /// Shrink the window geometry by `factor` (e.g. 60 turns a 2 h / 5 min
    /// window into 2 min / 5 s), keeping the length:slide ratio intact.
    /// Both components floor at one second.
    pub fn scale_window(mut self, factor: u64) -> Query {
        assert!(factor >= 1);
        let floor = Duration::from_secs(1);
        let length = Duration(self.window.length.0 / factor);
        let slide = Duration(self.window.slide.0 / factor);
        let length = if length < floor { floor } else { length };
        let slide = if slide < floor { floor } else { slide };
        self.window = WindowSpec::sliding(length, slide);
        self
    }
}

/// WordCount: sliding count per word over 30 s (Tweets).
pub fn word_count() -> Query {
    Query {
        name: "WordCount",
        job: Job::identity("WordCount", ReduceOp::Count),
        window: WindowSpec::sliding(Duration::from_secs(30), Duration::from_secs(10)),
        cardinality: 100_000,
        source: Box::new(|rate, card, seed| Box::new(datasets::tweets(rate, card, seed))),
    }
}

/// TopKCount: the `k` most frequent words of the past 30 s. The Reduce job
/// is a per-word count; the final top-k selection runs on the window result
/// via [`top_k_of`].
pub fn top_k_count() -> Query {
    Query {
        name: "TopKCount",
        job: Job::identity("TopKCount", ReduceOp::Count),
        window: WindowSpec::sliding(Duration::from_secs(30), Duration::from_secs(10)),
        cardinality: 100_000,
        source: Box::new(|rate, card, seed| Box::new(datasets::tweets(rate, card, seed))),
    }
}

/// Extract the top-k from a window result (the TopKCount epilogue).
pub fn top_k_of(result: &WindowResult, k: usize) -> Vec<(Key, f64)> {
    result.top_k(k)
}

/// DEBS Query 1: total fare per taxi over 2 h windows with a 5 min slide.
pub fn debs_q1() -> Query {
    Query {
        name: "DEBS-Q1",
        job: Job::identity("DEBS-Q1 fare sum", ReduceOp::Sum),
        window: WindowSpec::sliding(Duration::from_secs(2 * 3600), Duration::from_secs(300)),
        cardinality: 200_000,
        source: Box::new(|rate, card, seed| {
            Box::new(datasets::debs_taxi(rate, card, DebsField::Fare, seed))
        }),
    }
}

/// DEBS Query 2: total distance per taxi over 45 min windows, 1 min slide.
pub fn debs_q2() -> Query {
    Query {
        name: "DEBS-Q2",
        job: Job::identity("DEBS-Q2 distance sum", ReduceOp::Sum),
        window: WindowSpec::sliding(Duration::from_secs(45 * 60), Duration::from_secs(60)),
        cardinality: 200_000,
        source: Box::new(|rate, card, seed| {
            Box::new(datasets::debs_taxi(rate, card, DebsField::Distance, seed))
        }),
    }
}

/// GCM Query 1: resource-usage events per machine over a 10 min window,
/// 1 min slide (per the cluster-monitoring workload of Katsipoulakis et al.).
pub fn gcm_q1() -> Query {
    Query {
        name: "GCM-Q1",
        job: Job::identity("GCM-Q1 event count", ReduceOp::Count),
        window: WindowSpec::sliding(Duration::from_secs(600), Duration::from_secs(60)),
        cardinality: 150_000,
        source: Box::new(|rate, card, seed| Box::new(datasets::gcm(rate, card, seed))),
    }
}

/// GCM Query 2: aggregate CPU consumption per machine over a 10 min window.
pub fn gcm_q2() -> Query {
    Query {
        name: "GCM-Q2",
        job: Job::identity("GCM-Q2 cpu sum", ReduceOp::Sum),
        window: WindowSpec::sliding(Duration::from_secs(600), Duration::from_secs(60)),
        cardinality: 150_000,
        source: Box::new(|rate, card, seed| Box::new(datasets::gcm(rate, card, seed))),
    }
}

/// TPC-H Query 1: quantity of each Part-ID ordered over the past hour with
/// a 1 min slide.
pub fn tpch_q1() -> Query {
    Query {
        name: "TPCH-Q1",
        job: Job::identity("TPCH-Q1 quantity sum", ReduceOp::Sum),
        window: WindowSpec::sliding(Duration::from_secs(3600), Duration::from_secs(60)),
        cardinality: 200_000,
        source: Box::new(|rate, card, seed| {
            Box::new(datasets::tpch_lineitem(
                rate,
                card,
                TpchQuery::Q1Quantity,
                seed,
            ))
        }),
    }
}

/// TPC-H Query 6: revenue from discounted small orders — the Map stage
/// filters non-qualifying lineitems (value 0) and sums the rest.
pub fn tpch_q6() -> Query {
    Query {
        name: "TPCH-Q6",
        job: Job::new(
            "TPCH-Q6 revenue",
            |_, v: f64| (v > 0.0).then_some(v),
            ReduceOp::Sum,
        ),
        window: WindowSpec::sliding(Duration::from_secs(3600), Duration::from_secs(60)),
        cardinality: 200_000,
        source: Box::new(|rate, card, seed| {
            Box::new(datasets::tpch_lineitem(
                rate,
                card,
                TpchQuery::Q6Revenue,
                seed,
            ))
        }),
    }
}

/// All benchmark queries, in the order the paper introduces them.
pub fn all_queries() -> Vec<Query> {
    vec![
        word_count(),
        top_k_count(),
        debs_q1(),
        debs_q2(),
        gcm_q1(),
        gcm_q2(),
        tpch_q1(),
        tpch_q6(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use prompt_core::types::{Interval, Time};

    #[test]
    fn all_queries_have_distinct_names_and_working_sources() {
        let queries = all_queries();
        let mut names: Vec<&str> = queries.iter().map(|q| q.name).collect();
        let n = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), n);

        let iv = Interval::new(Time::ZERO, Time::from_secs(1));
        for q in &queries {
            let mut src =
                q.source_with_cardinality(RateProfile::Constant { rate: 5000.0 }, 1000, 1);
            let mut out = Vec::new();
            src.fill(iv, &mut out);
            assert!(out.len() > 4000, "{}: only {} tuples", q.name, out.len());
            assert!(out.iter().all(|t| iv.contains(t.ts)), "{}", q.name);
        }
    }

    #[test]
    fn window_scaling_preserves_geometry() {
        let q = debs_q1().scale_window(60);
        assert_eq!(q.window.length, Duration::from_secs(120));
        assert_eq!(q.window.slide, Duration::from_secs(5));
        // Ratio preserved: 2 h / 5 min = 24 slides per window either way.
        assert_eq!(q.window.length.0 / q.window.slide.0, 24);
    }

    #[test]
    fn window_scaling_floors_at_one_second() {
        let q = word_count().scale_window(1_000_000);
        assert_eq!(q.window.length, Duration::from_secs(1));
        assert_eq!(q.window.slide, Duration::from_secs(1));
    }

    #[test]
    fn q6_map_filters_zeros() {
        let q = tpch_q6();
        let keep = (q.job.map())(Key(1), 42.0);
        let drop = (q.job.map())(Key(1), 0.0);
        assert_eq!(keep, Some(42.0));
        assert_eq!(drop, None);
    }

    #[test]
    fn end_to_end_wordcount_window() {
        use prompt_core::partitioner::Technique;
        use prompt_engine::prelude::*;
        let q = word_count().scale_window(10); // 3 s window, 1 s slide
        let cfg = EngineConfig {
            batch_interval: Duration::from_secs(1),
            map_tasks: 4,
            reduce_tasks: 4,
            cluster: Cluster::new(1, 4),
            ..EngineConfig::default()
        };
        let mut engine =
            StreamingEngine::new(cfg, Technique::Prompt, 3, q.job.clone()).with_window(q.window);
        let mut src = q.source_with_cardinality(RateProfile::Constant { rate: 2000.0 }, 500, 3);
        let res = engine.run(src.as_mut(), 6);
        assert!(!res.windows.is_empty());
        let last = res.windows.last().unwrap();
        let total: f64 = last.aggregates.values().sum();
        // 3 s of ~2000 words/s.
        assert!((5000.0..7000.0).contains(&total), "total {total}");
        let top = top_k_of(last, 5);
        assert_eq!(top.len(), 5);
        assert!(top[0].1 >= top[4].1);
    }
}
