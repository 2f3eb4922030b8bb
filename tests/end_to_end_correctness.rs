//! End-to-end correctness across crates: the choice of partitioning
//! technique must never change a query's answer, windows with inverse
//! Reduce must equal brute-force recomputation, and the real threaded
//! backend must agree with the simulated one.

use prompt::prelude::*;
use prompt_core::hash::KeyMap;
use prompt_queries::{all_queries, debs_q1, word_count};

fn run_query(
    query: &prompt_queries::Query,
    tech: Technique,
    rate: f64,
    cardinality: u64,
    batches: usize,
) -> Vec<KeyMap<f64>> {
    let cfg = EngineConfig {
        batch_interval: Duration::from_secs(1),
        map_tasks: 6,
        reduce_tasks: 5,
        cluster: Cluster::new(2, 4),
        ..EngineConfig::default()
    };
    let mut engine =
        StreamingEngine::new(cfg, tech, 21, query.job.clone()).with_window(query.window);
    let mut source = query.source_with_cardinality(RateProfile::Constant { rate }, cardinality, 21);
    let result = engine.run(source.as_mut(), batches);
    result.windows.into_iter().map(|w| w.aggregates).collect()
}

fn assert_same_aggregates(a: &KeyMap<f64>, b: &KeyMap<f64>, ctx: &str) {
    assert_eq!(a.len(), b.len(), "{ctx}: key-set size");
    for (k, va) in a {
        let vb = b.get(k).unwrap_or_else(|| panic!("{ctx}: missing {k:?}"));
        assert!(
            (va - vb).abs() < 1e-6 * va.abs().max(1.0),
            "{ctx}: {k:?} {va} vs {vb}"
        );
    }
}

#[test]
fn every_query_gives_identical_answers_under_every_technique() {
    for query in all_queries() {
        let query = query.scale_window(600); // laptop-scale geometry
        let reference = run_query(&query, Technique::Hash, 4_000.0, 800, 8);
        assert!(!reference.is_empty(), "{}: no windows", query.name);
        let mut techniques: Vec<Technique> = Technique::EVALUATION_SET.to_vec();
        techniques.push(Technique::DChoices(5));
        techniques.push(Technique::PromptCountTree);
        for tech in techniques {
            let got = run_query(&query, tech, 4_000.0, 800, 8);
            assert_eq!(got.len(), reference.len(), "{}: window count", query.name);
            for (i, (a, b)) in reference.iter().zip(&got).enumerate() {
                assert_same_aggregates(a, b, &format!("{} window {i} ({tech:?})", query.name));
            }
        }
    }
}

#[test]
fn sliding_window_equals_batch_recomputation() {
    // Drive the engine and independently recompute each window from raw
    // batch outputs.
    let query = word_count().scale_window(6); // 5 s window, 1.67 s → 2 s slide
    let cfg = EngineConfig {
        batch_interval: Duration::from_secs(1),
        map_tasks: 4,
        reduce_tasks: 4,
        cluster: Cluster::new(1, 4),
        ..EngineConfig::default()
    };
    let (len_batches, _) = query.window.in_batches(Duration::from_secs(1));

    // First run: record per-batch outputs with a window of exactly 1 batch.
    let mut engine = StreamingEngine::new(cfg.clone(), Technique::Prompt, 5, query.job.clone())
        .with_window(WindowSpec::tumbling(Duration::from_secs(1)));
    let mut source = query.source_with_cardinality(RateProfile::Constant { rate: 3_000.0 }, 500, 5);
    let per_batch = engine.run(source.as_mut(), 12);
    let batch_outputs: Vec<KeyMap<f64>> = per_batch
        .windows
        .into_iter()
        .map(|w| w.aggregates)
        .collect();
    assert_eq!(batch_outputs.len(), 12);

    // Second run: the real sliding window.
    let mut engine = StreamingEngine::new(cfg, Technique::Prompt, 5, query.job.clone())
        .with_window(query.window);
    let mut source = query.source_with_cardinality(RateProfile::Constant { rate: 3_000.0 }, 500, 5);
    let slid = engine.run(source.as_mut(), 12);

    for w in &slid.windows {
        let end = w.last_batch_seq as usize;
        let start = (end + 1).saturating_sub(len_batches);
        let mut expect: KeyMap<f64> = KeyMap::default();
        for out in &batch_outputs[start..=end] {
            for (&k, &v) in out {
                *expect.entry(k).or_insert(0.0) += v;
            }
        }
        assert_same_aggregates(&expect, &w.aggregates, &format!("window @{end}"));
    }
}

#[test]
fn threaded_backend_matches_simulated_backend() {
    use prompt_engine::stage::execute_batch;
    let query = debs_q1();
    let mut source =
        query.source_with_cardinality(RateProfile::Constant { rate: 50_000.0 }, 5_000, 31);
    let interval = Interval::new(Time::ZERO, Time::from_secs(1));
    let mut tuples = Vec::new();
    source.fill(interval, &mut tuples);
    let batch = MicroBatch::new(tuples, interval);

    for tech in [Technique::Prompt, Technique::Shuffle] {
        let plan = tech.build(13).partition(&batch, 8);
        let (sim, _) = execute_batch(
            &plan,
            &query.job,
            &PromptReduceAllocator::new(13),
            4,
            &CostModel::default(),
            &Cluster::new(1, 4),
        );
        let (thr, _) =
            ThreadedExecutor::new(4).execute(&plan, &query.job, &PromptReduceAllocator::new(13), 4);
        assert_same_aggregates(&sim.aggregates, &thr.aggregates, &format!("{tech:?}"));
    }
}

#[test]
fn latency_accounting_is_consistent() {
    let cfg = EngineConfig {
        batch_interval: Duration::from_secs(1),
        map_tasks: 4,
        reduce_tasks: 4,
        cluster: Cluster::new(1, 4),
        ..EngineConfig::default()
    };
    let query = word_count().scale_window(10);
    let mut engine = StreamingEngine::new(cfg, Technique::Prompt, 3, query.job.clone());
    let mut source =
        query.source_with_cardinality(RateProfile::Constant { rate: 5_000.0 }, 1_000, 3);
    let res = engine.run(source.as_mut(), 6);
    for b in &res.batches {
        // End-to-end latency decomposition (§1).
        assert_eq!(
            b.latency,
            Duration::from_secs(1) + b.queue_delay + b.processing,
            "batch {}",
            b.seq
        );
        // Processing = visible overhead + map stage + reduce stage.
        assert_eq!(
            b.processing,
            b.visible_overhead + b.map_stage + b.reduce_stage,
            "batch {}",
            b.seq
        );
        // Eqn. 1: stage times equal the max task times (tasks ≤ slots here).
        assert_eq!(
            b.map_stage,
            *b.map_task_times.iter().max().expect("map tasks"),
            "batch {}",
            b.seq
        );
        assert_eq!(
            b.reduce_stage,
            *b.reduce_task_times.iter().max().expect("reduce tasks"),
            "batch {}",
            b.seq
        );
    }
}
