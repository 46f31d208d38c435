//! A miniature version of the paper's evaluation, upgraded from post-hoc
//! bookkeeping to a live race: run the three engines sequentially on a small
//! generated suite, compute the Virtual Best Synthesizer (VBS) with and
//! without Manthan3 — and then race all three engines in parallel with
//! cooperative cancellation, comparing the race's true wall clock against
//! the sum of the sequential runs (the full-scale version is the `harness`
//! binary in `manthan3-bench`, flag `--engine portfolio`).
//!
//! Run with `cargo run --release --example portfolio` (optionally
//! `-- [--seed N] [--scale N] [--budget-ms N]`).

use manthan3::core::{Budget, SynthesisOutcome};
use manthan3::dqbf::verify;
use manthan3::gen::suite::suite;
use manthan3::portfolio::{Portfolio, PortfolioConfig, PortfolioEngine};
use std::collections::{BTreeMap, BTreeSet};
use std::time::{Duration, Instant};

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

    // Phase 1: the sequential per-engine runs and the post-hoc VBS.
    let config = PortfolioConfig::with_time_budget(budget);
    let mut solved: BTreeMap<PortfolioEngine, BTreeMap<String, f64>> = BTreeMap::new();
    let sequential_start = Instant::now();
    for instance in &instances {
        for engine in PortfolioEngine::ALL {
            let start = Instant::now();
            let outcome = engine
                .synthesize(&config, &instance.dqbf, Budget::new(config.time_budget))
                .outcome;
            let elapsed = start.elapsed().as_secs_f64();
            if let SynthesisOutcome::Realizable(vector) = &outcome {
                if verify::check(&instance.dqbf, vector).is_valid() {
                    solved
                        .entry(engine)
                        .or_default()
                        .insert(instance.name.clone(), elapsed);
                }
            }
        }
    }
    let sequential_wall = sequential_start.elapsed();

    for (engine, times) in &solved {
        println!("{engine:<10} synthesized {:>3} instances", times.len());
    }
    let vbs = |engines: &[PortfolioEngine]| -> usize {
        let mut set = BTreeSet::new();
        for e in engines {
            if let Some(times) = solved.get(e) {
                set.extend(times.keys().cloned());
            }
        }
        set.len()
    };
    let without = vbs(&[PortfolioEngine::Hqs2Like, PortfolioEngine::PedantLike]);
    let with = vbs(&PortfolioEngine::ALL);
    println!("\nVBS(HQS2-like + Pedant-like):      {without}");
    println!("VBS(+ Manthan3):                   {with}");
    println!("instances added by Manthan3:       {}", with - without);

    // Phase 2: the same portfolio as an actual parallel race — one shared
    // wall-clock budget, first decisive verdict wins, losers cancelled.
    let race_start = Instant::now();
    let mut race_solved = 0usize;
    let mut winners: BTreeMap<PortfolioEngine, usize> = BTreeMap::new();
    let portfolio = Portfolio::new(config);
    for instance in &instances {
        let result = portfolio.run(&instance.dqbf);
        if let Some(vector) = result.vector() {
            if verify::check(&instance.dqbf, vector).is_valid() {
                race_solved += 1;
            }
        }
        if let Some(winner) = result.winner {
            *winners.entry(winner).or_default() += 1;
        }
    }
    let race_wall = race_start.elapsed();

    println!("\n== parallel race (one thread per engine, shared budget) ==");
    println!("race synthesized:                  {race_solved}");
    for (engine, wins) in &winners {
        println!("decisive verdicts by {engine:<10}    {wins}");
    }
    println!(
        "sequential wall clock (sum):       {:.2}s",
        sequential_wall.as_secs_f64()
    );
    println!(
        "parallel race wall clock:          {:.2}s",
        race_wall.as_secs_f64()
    );
    if race_solved < with {
        eprintln!("error: the race solved fewer instances than the sequential VBS");
        std::process::exit(1);
    }
}
