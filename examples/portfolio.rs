//! A miniature version of the paper's evaluation, upgraded from post-hoc
//! bookkeeping to a live race: run the three engines sequentially on a small
//! generated suite, compute the Virtual Best Synthesizer (VBS) with and
//! without Manthan3, then race all three engines in parallel with
//! cooperative cancellation and compare the race's wall clock against the
//! sum of the sequential runs. Every run goes through
//! `manthan3_bench::run_suite` and every count comes from
//! `manthan3_bench::report::summary`, as in the full-scale version: the
//! `harness` binary in `manthan3-bench`, flag `--engine portfolio`.
//!
//! Run with `cargo run --release --example portfolio` (optionally
//! `-- [--seed N] [--scale N] [--budget-ms N]`). It exits with status 1 if
//! the race synthesizes fewer instances than the sequential VBS.

use manthan3::gen::suite::suite;
use manthan3::portfolio::PortfolioConfig;
use manthan3_bench::{report, run_suite, EngineKind, RunRecord};
use std::time::Duration;

fn parse_args() -> (u64, usize, Duration) {
    let (mut seed, mut scale, mut budget_ms) = (7u64, 1usize, 1500u64);
    let mut iter = std::env::args().skip(1);
    while let Some(flag) = iter.next() {
        let mut value = |name: &str| -> u64 {
            iter.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                eprintln!("error: {name} requires a numeric value");
                std::process::exit(2);
            })
        };
        match flag.as_str() {
            "--seed" => seed = value("--seed"),
            "--scale" => scale = value("--scale") as usize,
            "--budget-ms" => budget_ms = value("--budget-ms"),
            other => {
                eprintln!("error: unknown argument {other:?}");
                std::process::exit(2);
            }
        }
    }
    (seed, scale, Duration::from_millis(budget_ms))
}

fn main() {
    let (seed, scale, budget) = parse_args();
    let instances = suite(seed, scale);
    println!(
        "running {} instances with a {:?} per-engine budget…\n",
        instances.len(),
        budget
    );

    // The sequential per-engine runs, then the same engines as one parallel
    // race per instance: one shared wall-clock budget, first decisive
    // verdict wins, losers cancelled.
    let config = PortfolioConfig::with_time_budget(budget);
    let mut records = run_suite(&instances, &EngineKind::ALL, &config);
    records.extend(run_suite(&instances, &[EngineKind::Portfolio], &config));
    let summary = report::summary(&records);
    let wall_clock = |race: bool| -> f64 {
        records
            .iter()
            .filter(|record| (record.engine == EngineKind::Portfolio) == race)
            .map(RunRecord::seconds)
            .sum()
    };

    for engine in EngineKind::ALL {
        let synthesized = summary.synthesized[&engine];
        println!("{engine:<10} synthesized {synthesized:>3} instances");
    }
    let (without, with) = (summary.vbs_without_manthan3, summary.vbs_with_manthan3);
    println!("\nVBS(HQS2-like + Pedant-like):      {without}");
    println!("VBS(+ Manthan3):                   {with}");
    println!("instances added by Manthan3:       {}", with - without);

    let race_solved = summary
        .portfolio_synthesized
        .expect("the race ran on every instance");
    println!("\n== parallel race (one thread per engine, shared budget) ==");
    println!("race synthesized:                  {race_solved}");
    println!(
        "sequential wall clock (sum):       {:.2}s",
        wall_clock(false)
    );
    println!(
        "parallel race wall clock:          {:.2}s",
        wall_clock(true)
    );
    if race_solved < with {
        eprintln!("error: the race solved fewer instances than the sequential VBS");
        std::process::exit(1);
    }
}
