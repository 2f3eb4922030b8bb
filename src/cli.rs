//! Command-line interface of the `prompt` binary.
//!
//! Three subcommands:
//!
//! * `run` — stream a dataset through the engine with one technique and
//!   print per-batch telemetry plus window results.
//! * `compare` — run every technique on the same workload and print a
//!   comparison table (processing time, stability, plan quality).
//! * `partition` — one-shot: generate a single batch, partition it with
//!   every technique, print the BSI/BCI/KSR/MPI metrics.
//!
//! Parsing is hand-rolled (no CLI dependency): `--key value` pairs with
//! typed accessors and helpful errors.

use std::collections::BTreeMap;

use prompt_core::partitioner::Technique;
use prompt_core::source::TupleSource;
use prompt_core::types::Duration;
use prompt_engine::policy::{AdaptiveConfig, PolicySpec};
use prompt_workloads::datasets;
use prompt_workloads::rate::RateProfile;

/// A parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Cli {
    /// The subcommand.
    pub command: Command,
    /// Common options.
    pub opts: Options,
}

/// Subcommands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Command {
    /// Stream with one technique.
    Run,
    /// Compare all techniques.
    Compare,
    /// One-shot partitioning metrics.
    Partition,
}

/// Options shared across subcommands (each with a sensible default).
#[derive(Debug, Clone, PartialEq)]
pub struct Options {
    /// Partitioning technique (`run` only).
    pub technique: Technique,
    /// Dataset name: tweets | synd | debs | gcm | tpch.
    pub dataset: String,
    /// Input rate (tuples/s).
    pub rate: f64,
    /// Zipf exponent for `synd`.
    pub skew: f64,
    /// Key cardinality.
    pub cardinality: u64,
    /// Number of batches to run.
    pub batches: usize,
    /// Batch interval in milliseconds.
    pub interval_ms: u64,
    /// Map tasks / blocks.
    pub blocks: usize,
    /// Reduce tasks.
    pub reducers: usize,
    /// Enable the Algorithm 4 auto-scaler.
    pub elastic: bool,
    /// Enable the key-group rebalancer (`run` only): fixed task count,
    /// hot key-groups migrate between workers at batch boundaries.
    pub rebalance: bool,
    /// RNG seed.
    pub seed: u64,
    /// Verbose output (per-block plan diagnostics for `partition`).
    pub verbose: bool,
    /// Partitioner-selection policy (`run` only): `fixed` keeps
    /// `--technique` for the whole run; `adaptive` scores the live sketch
    /// each batch and may hot-swap the strategy at batch boundaries.
    pub policy: PolicySpec,
}

impl Default for Options {
    fn default() -> Options {
        Options {
            technique: Technique::Prompt,
            dataset: "tweets".into(),
            rate: 50_000.0,
            skew: 1.0,
            cardinality: 20_000,
            batches: 10,
            interval_ms: 1_000,
            blocks: 16,
            reducers: 16,
            elastic: false,
            rebalance: false,
            seed: 42,
            verbose: false,
            policy: PolicySpec::default(),
        }
    }
}

/// Parse a policy name.
pub fn parse_policy(s: &str) -> Result<PolicySpec, String> {
    match s.to_ascii_lowercase().as_str() {
        "fixed" => Ok(PolicySpec::default()),
        "adaptive" => Ok(PolicySpec::Adaptive(AdaptiveConfig::default())),
        other => Err(format!("unknown policy '{other}' (try: fixed, adaptive)")),
    }
}

/// Parse a technique name.
pub fn parse_technique(s: &str) -> Result<Technique, String> {
    let lower = s.to_ascii_lowercase();
    match lower.as_str() {
        "prompt" => Ok(Technique::Prompt),
        "prompt-tree" => Ok(Technique::PromptCountTree),
        "time" | "time-based" | "timebased" => Ok(Technique::TimeBased),
        "shuffle" | "round-robin" => Ok(Technique::Shuffle),
        "hash" => Ok(Technique::Hash),
        other => {
            if let Some(d) = other.strip_prefix("pk") {
                return d
                    .parse()
                    .map(Technique::Pkg)
                    .map_err(|_| format!("bad PK degree in '{s}'"));
            }
            if let Some(d) = other.strip_prefix("cam") {
                let d = d.trim_matches(|c| c == '(' || c == ')');
                return d
                    .parse()
                    .map(Technique::Cam)
                    .map_err(|_| format!("bad cAM degree in '{s}'"));
            }
            if let Some(d) = other.strip_prefix("dchoices") {
                let d = d.trim_matches(|c| c == '(' || c == ')');
                return d
                    .parse()
                    .map(Technique::DChoices)
                    .map_err(|_| format!("bad D-Choices degree in '{s}'"));
            }
            Err(format!(
                "unknown technique '{s}' (try: prompt, prompt-tree, time-based, shuffle, hash, pk2, pk5, cam4, dchoices5)"
            ))
        }
    }
}

/// Parse argv (without the program name).
pub fn parse(args: &[String]) -> Result<Cli, String> {
    let mut it = args.iter();
    let command = match it.next().map(String::as_str) {
        Some("run") => Command::Run,
        Some("compare") => Command::Compare,
        Some("partition") => Command::Partition,
        Some("--help") | Some("-h") | None => return Err(usage()),
        Some(other) => return Err(format!("unknown command '{other}'\n\n{}", usage())),
    };
    let mut kv: BTreeMap<String, String> = BTreeMap::new();
    let mut flags: Vec<String> = Vec::new();
    while let Some(arg) = it.next() {
        let Some(key) = arg.strip_prefix("--") else {
            return Err(format!("expected --option, got '{arg}'"));
        };
        if key == "elastic" || key == "rebalance" || key == "help" || key == "verbose" {
            flags.push(key.to_string());
            continue;
        }
        let value = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
        kv.insert(key.to_string(), value.clone());
    }
    if flags.iter().any(|f| f == "help") {
        return Err(usage());
    }
    let mut opts = Options::default();
    let mut num = |key: &str, target: &mut f64| -> Result<(), String> {
        if let Some(v) = kv.remove(key) {
            *target = v
                .parse()
                .map_err(|_| format!("--{key}: bad number '{v}'"))?;
        }
        Ok(())
    };
    num("rate", &mut opts.rate)?;
    num("skew", &mut opts.skew)?;
    if let Some(v) = kv.remove("technique") {
        opts.technique = parse_technique(&v)?;
    }
    if let Some(v) = kv.remove("policy") {
        opts.policy = parse_policy(&v)?;
    }
    if let Some(v) = kv.remove("dataset") {
        let v = v.to_ascii_lowercase();
        if !["tweets", "synd", "debs", "gcm", "tpch"].contains(&v.as_str()) {
            return Err(format!("unknown dataset '{v}'"));
        }
        opts.dataset = v;
    }
    macro_rules! int_opt {
        ($key:literal, $field:ident) => {
            if let Some(v) = kv.remove($key) {
                opts.$field = v
                    .parse()
                    .map_err(|_| format!("--{}: bad integer '{}'", $key, v))?;
            }
        };
    }
    int_opt!("cardinality", cardinality);
    int_opt!("batches", batches);
    int_opt!("interval-ms", interval_ms);
    int_opt!("blocks", blocks);
    int_opt!("reducers", reducers);
    int_opt!("seed", seed);
    opts.elastic = flags.iter().any(|f| f == "elastic");
    opts.rebalance = flags.iter().any(|f| f == "rebalance");
    opts.verbose = flags.iter().any(|f| f == "verbose");
    // One load actuator per run (EngineConfig::validate enforces the same
    // exclusion; failing here gives a usage error instead of a panic).
    if opts.rebalance && opts.elastic {
        return Err(
            "--rebalance and --elastic are mutually exclusive (one actuator per run)".into(),
        );
    }
    if let Some((key, _)) = kv.into_iter().next() {
        return Err(format!("unknown option '--{key}'\n\n{}", usage()));
    }
    Ok(Cli { command, opts })
}

/// Usage text.
pub fn usage() -> String {
    "prompt — dynamic data-partitioning for micro-batch stream processing (SIGMOD'20)

USAGE:
    prompt <COMMAND> [OPTIONS]

COMMANDS:
    run          stream a dataset through the engine with one technique
    compare      run every technique on the same workload, print a table
    partition    partition one batch with every technique, print metrics

OPTIONS (all optional):
    --technique <t>     prompt | prompt-tree | time-based | shuffle | hash | pk2 | pk5 |
                        cam4 | dchoices5 (prompt-tree = the paper's budgeted CountTree
                        buffer; prompt sorts exact counts at the heartbeat)
    --policy <p>        fixed | adaptive (run command)        [fixed]
    --dataset <d>       tweets | synd | debs | gcm | tpch     [tweets]
    --rate <r>          input rate, tuples/s                  [50000]
    --skew <z>          Zipf exponent (synd)                  [1.0]
    --cardinality <k>   distinct keys                         [20000]
    --batches <n>       batches to run                        [10]
    --interval-ms <ms>  batch interval                        [1000]
    --blocks <p>        map tasks / data blocks               [16]
    --reducers <r>      reduce tasks                          [16]
    --elastic           enable the Algorithm 4 auto-scaler
    --rebalance         enable the key-group rebalancer (run command)
    --verbose           per-block diagnostics (partition command)
    --seed <s>          RNG seed                              [42]
"
    .to_string()
}

/// Build the configured dataset source.
pub fn build_source(opts: &Options) -> Box<dyn TupleSource> {
    let rate = RateProfile::Constant { rate: opts.rate };
    match opts.dataset.as_str() {
        "tweets" => Box::new(datasets::tweets(rate, opts.cardinality, opts.seed)),
        "synd" => Box::new(datasets::synd(rate, opts.cardinality, opts.skew, opts.seed)),
        "debs" => Box::new(datasets::debs_taxi(
            rate,
            opts.cardinality,
            datasets::DebsField::Fare,
            opts.seed,
        )),
        "gcm" => Box::new(datasets::gcm(rate, opts.cardinality, opts.seed)),
        "tpch" => Box::new(datasets::tpch_lineitem(
            rate,
            opts.cardinality,
            datasets::TpchQuery::Q1Quantity,
            opts.seed,
        )),
        other => unreachable!("validated dataset {other}"),
    }
}

/// The batch interval as a [`Duration`].
pub fn interval(opts: &Options) -> Duration {
    Duration::from_millis(opts.interval_ms)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_run_with_options() {
        let cli = parse(&argv(
            "run --technique pk5 --dataset synd --rate 120000 --skew 1.4 \
             --cardinality 9000 --batches 7 --interval-ms 500 --blocks 8 \
             --reducers 4 --elastic --seed 9",
        ))
        .unwrap();
        assert_eq!(cli.command, Command::Run);
        assert_eq!(cli.opts.technique, Technique::Pkg(5));
        assert_eq!(cli.opts.dataset, "synd");
        assert_eq!(cli.opts.rate, 120_000.0);
        assert_eq!(cli.opts.skew, 1.4);
        assert_eq!(cli.opts.cardinality, 9_000);
        assert_eq!(cli.opts.batches, 7);
        assert_eq!(cli.opts.interval_ms, 500);
        assert_eq!(cli.opts.blocks, 8);
        assert_eq!(cli.opts.reducers, 4);
        assert!(cli.opts.elastic);
        assert_eq!(cli.opts.seed, 9);
    }

    #[test]
    fn defaults_apply() {
        let cli = parse(&argv("compare")).unwrap();
        assert_eq!(cli.command, Command::Compare);
        assert_eq!(cli.opts, Options::default());
    }

    #[test]
    fn technique_aliases() {
        assert_eq!(parse_technique("Prompt").unwrap(), Technique::Prompt);
        assert_eq!(parse_technique("time-based").unwrap(), Technique::TimeBased);
        assert_eq!(parse_technique("PK2").unwrap(), Technique::Pkg(2));
        assert_eq!(parse_technique("cam4").unwrap(), Technique::Cam(4));
        assert_eq!(parse_technique("cam(8)").unwrap(), Technique::Cam(8));
        assert_eq!(
            parse_technique("dchoices5").unwrap(),
            Technique::DChoices(5)
        );
        assert_eq!(
            parse_technique("prompt-tree").unwrap(),
            Technique::PromptCountTree
        );
        assert!(parse_technique("banana").is_err());
    }

    #[test]
    fn policy_option_parses() {
        assert_eq!(parse_policy("fixed").unwrap(), PolicySpec::default());
        assert!(matches!(
            parse_policy("Adaptive").unwrap(),
            PolicySpec::Adaptive(_)
        ));
        assert!(parse_policy("greedy").is_err());
        let cli = parse(&argv("run --policy adaptive")).unwrap();
        assert!(matches!(cli.opts.policy, PolicySpec::Adaptive(_)));
        assert!(parse(&argv("run --policy greedy"))
            .unwrap_err()
            .contains("unknown policy"));
    }

    #[test]
    fn rebalance_flag_parses_and_rejects_conflicting_actuators() {
        let cli = parse(&argv("run --rebalance --batches 5")).unwrap();
        assert!(cli.opts.rebalance);
        assert!(parse(&argv("run --rebalance --elastic"))
            .unwrap_err()
            .contains("mutually exclusive"));
        // The policy picks the partitioner, the routing table the reducer:
        // the two compose.
        let cli = parse(&argv("run --rebalance --policy adaptive")).unwrap();
        assert!(cli.opts.rebalance && matches!(cli.opts.policy, PolicySpec::Adaptive(_)));
    }

    #[test]
    fn errors_are_helpful() {
        assert!(parse(&argv("")).unwrap_err().contains("USAGE"));
        assert!(parse(&argv("frobnicate"))
            .unwrap_err()
            .contains("unknown command"));
        assert!(parse(&argv("run --rate"))
            .unwrap_err()
            .contains("needs a value"));
        assert!(parse(&argv("run --rate abc"))
            .unwrap_err()
            .contains("bad number"));
        assert!(parse(&argv("run --dataset mars"))
            .unwrap_err()
            .contains("unknown dataset"));
        assert!(parse(&argv("run --frob 1"))
            .unwrap_err()
            .contains("unknown option"));
        assert!(parse(&argv("run extra"))
            .unwrap_err()
            .contains("expected --option"));
    }

    #[test]
    fn sources_build_for_every_dataset() {
        use prompt_core::types::{Interval, Time};
        for dataset in ["tweets", "synd", "debs", "gcm", "tpch"] {
            let opts = Options {
                dataset: dataset.into(),
                rate: 1_000.0,
                cardinality: 100,
                ..Options::default()
            };
            let mut src = build_source(&opts);
            let mut out = Vec::new();
            src.fill(Interval::new(Time::ZERO, Time::from_secs(1)), &mut out);
            assert!(!out.is_empty(), "{dataset}");
        }
        assert_eq!(interval(&Options::default()), Duration::from_secs(1));
    }
}
