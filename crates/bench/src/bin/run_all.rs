//! Run every experiment of the evaluation section in sequence.
//!
//! Any non-flag argument selects experiments by name, so a single table
//! (e.g. a checked-in baseline) can be regenerated without the full sweep:
//! `run_all --quick adaptive_policy`.

type Experiment = fn(bool) -> Vec<prompt_bench::report::Table>;

fn main() {
    let quick = prompt_bench::quick_flag();
    let only: Vec<String> = std::env::args()
        .skip(1)
        .filter(|a| !a.starts_with('-'))
        .collect();
    let all: Vec<(&str, Experiment)> = vec![
        ("table1", prompt_bench::experiments::table1::run),
        ("fig6", prompt_bench::experiments::fig6::run),
        ("fig10", prompt_bench::experiments::fig10::run),
        ("fig11", prompt_bench::experiments::fig11::run),
        ("fig12", prompt_bench::experiments::fig12::run),
        ("fig13", prompt_bench::experiments::fig13::run),
        ("fig14", prompt_bench::experiments::fig14::run),
        ("net_overhead", prompt_bench::experiments::net_overhead::run),
        (
            "checkpoint_overhead",
            prompt_bench::experiments::checkpoint_overhead::run,
        ),
        ("ablations", prompt_bench::experiments::ablation::run),
        ("adaptive_policy", prompt_bench::experiments::adaptive::run),
        ("rebalance", prompt_bench::experiments::rebalance::run),
    ];
    for (name, run) in all {
        if !only.is_empty() && !only.iter().any(|o| o == name) {
            continue;
        }
        eprintln!("=== {name} ({}) ===", if quick { "quick" } else { "full" });
        let tables = run(quick);
        prompt_bench::emit_all(&tables);
    }
}
