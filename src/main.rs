//! The `prompt` command-line tool: run, compare, or inspect partitioning
//! techniques on the evaluation workloads. See `prompt --help`.

use prompt::cli::{self, Cli, Command};
use prompt::prelude::*;
use prompt_core::metrics::PlanMetrics;
use prompt_core::partitioner::Technique;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match cli::parse(&args) {
        Ok(cli) => cli,
        Err(message) => {
            eprintln!("{message}");
            std::process::exit(if args.first().map(String::as_str) == Some("--help") {
                0
            } else {
                2
            });
        }
    };
    match cli.command {
        Command::Run => run(&cli),
        Command::Compare => compare(&cli),
        Command::Partition => partition(&cli),
    }
}

fn engine_config(cli: &Cli) -> EngineConfig {
    let mut cfg = EngineConfig {
        batch_interval: cli::interval(&cli.opts),
        map_tasks: cli.opts.blocks,
        reduce_tasks: cli.opts.reducers,
        cluster: Cluster::new(2, 8),
        cost: CostModel::default().scaled(20.0),
        ..EngineConfig::default()
    };
    if cli.opts.elastic {
        cfg.backpressure_queue = f64::INFINITY;
        cfg.elasticity = Some(ScalerConfig::default());
    }
    if cli.opts.rebalance {
        cfg.backpressure_queue = f64::INFINITY;
        cfg.rebalance = RebalanceSpec::Auto(RebalanceConfig {
            n_groups: (cli.opts.reducers * 4).max(64),
            ..RebalanceConfig::default()
        });
    }
    cfg.policy = cli.opts.policy.clone();
    cfg
}

fn run(cli: &Cli) {
    let cfg = engine_config(cli);
    let mut engine = StreamingEngine::new(
        cfg,
        cli.opts.technique,
        cli.opts.seed,
        Job::identity("cli-count", ReduceOp::Count),
    )
    .with_window(WindowSpec::sliding(
        cli::interval(&cli.opts).mul_f64(5.0),
        cli::interval(&cli.opts),
    ));
    let mut source = cli::build_source(&cli.opts);
    let result = engine.run(source.as_mut(), cli.opts.batches);

    println!(
        "technique {} on {} @ {} tuples/s — {} batches",
        cli.opts.technique.label(),
        cli.opts.dataset,
        cli.opts.rate,
        result.batches.len()
    );
    println!("batch  tuples    keys   maps reds     W   latency ms  technique");
    for b in &result.batches {
        println!(
            "{:>5} {:>7} {:>7} {:>5} {:>4} {:>6.3} {:>10.1}  {}",
            b.seq,
            b.n_tuples,
            b.n_keys,
            b.map_tasks,
            b.reduce_tasks,
            b.w,
            b.latency.as_secs_f64() * 1e3,
            b.technique.label()
        );
    }
    let switches = result
        .policy_decisions
        .iter()
        .filter(|d| d.switched)
        .count();
    if !result.policy_decisions.is_empty() {
        println!(
            "policy: {} decisions, {} switches",
            result.policy_decisions.len(),
            switches
        );
    }
    if !result.migrations.is_empty() {
        let moves: usize = result.migrations.iter().map(|(_, p)| p.moves.len()).sum();
        println!(
            "rebalance: {} plans, {} group moves",
            result.migrations.len(),
            moves
        );
    }
    println!(
        "\nstable: {}  |  mean W: {:.3}  |  throughput: {:.0} tuples/s  |  scale events: {}",
        result.stable(),
        result.steady_state_mean(|b| b.w),
        result.throughput(cli::interval(&cli.opts)),
        result.scale_events.len()
    );
    if let Some(window) = result.windows.last() {
        println!("top 5 keys of the last window:");
        for (key, value) in window.top_k(5) {
            println!("  key {:<10} {:>12.0}", key.0, value);
        }
    }
}

fn compare(cli: &Cli) {
    let job = Job::identity("cli-count", ReduceOp::Count);
    println!(
        "comparing techniques on {} @ {} tuples/s ({} batches of {} ms)",
        cli.opts.dataset, cli.opts.rate, cli.opts.batches, cli.opts.interval_ms
    );
    println!(
        "{:<12} {:>8} {:>9} {:>10} {:>7}",
        "technique", "stable", "mean W", "latency ms", "MPI"
    );
    for tech in Technique::EVALUATION_SET {
        let cfg = engine_config(cli);
        let mut engine = StreamingEngine::new(cfg, tech, cli.opts.seed, job.clone());
        let mut source = cli::build_source(&cli.opts);
        let result = engine.run(source.as_mut(), cli.opts.batches);
        println!(
            "{:<12} {:>8} {:>9.3} {:>10.1} {:>7.3}",
            tech.label(),
            result.stable(),
            result.steady_state_mean(|b| b.w),
            result.steady_state_mean(|b| b.latency.as_secs_f64()) * 1e3,
            result.steady_state_mean(|b| b.plan_metrics.mpi),
        );
    }
}

fn partition(cli: &Cli) {
    let mut source = cli::build_source(&cli.opts);
    let interval = Interval::new(Time::ZERO, Time::ZERO + cli::interval(&cli.opts));
    let mut tuples = Vec::new();
    source.fill(interval, &mut tuples);
    let batch = MicroBatch::new(tuples, interval);
    println!(
        "one batch of {} ({} tuples, {} keys) into {} blocks:",
        cli.opts.dataset,
        batch.len(),
        batch.distinct_keys(),
        cli.opts.blocks
    );
    println!(
        "{:<12} {:>10} {:>10} {:>8} {:>8} {:>8}",
        "technique", "BSI", "BCI", "KSR", "MPI", "splits"
    );
    let mut techniques: Vec<Technique> = Technique::EVALUATION_SET.to_vec();
    techniques.push(Technique::DChoices(5));
    for tech in techniques {
        let plan = tech.build(cli.opts.seed).partition(&batch, cli.opts.blocks);
        let m = PlanMetrics::of(&plan);
        println!(
            "{:<12} {:>10.1} {:>10.1} {:>8.3} {:>8.3} {:>8}",
            tech.label(),
            m.bsi,
            m.bci,
            m.ksr,
            m.mpi,
            plan.split_keys.len()
        );
        if cli.opts.verbose {
            let report = prompt_core::analysis::PlanReport::analyse(&plan, 5);
            for line in report.render().lines().skip(1) {
                println!("    {line}");
            }
        }
    }
}
