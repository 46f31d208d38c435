//! The figure/table regeneration harness.
//!
//! Runs the three Henkin synthesizers on the seeded synthetic suite and
//! writes, under the output directory (default `experiments/`):
//!
//! * `fig6_cactus.csv`      — Figure 6 (VBS with/without Manthan3 cactus),
//! * `fig7_scatter.csv`     — Figure 7 (Manthan3 vs VBS of the baselines),
//! * `fig8_scatter.csv`     — Figure 8 (Manthan3 vs Pedant-like),
//! * `fig9_scatter.csv`     — Figure 9 (Manthan3 vs HQS2-like),
//! * `fig10_scatter.csv`    — Figure 10 (Pedant-like vs HQS2-like),
//! * `summary_table.csv`    — the in-text counts (solved per tool, VBS delta,
//!   uniquely solved, fastest-on, …),
//! * `runs.csv`             — the raw per-run records,
//! * `ablations.csv`        — Manthan3 ablations (Y-features, Ŷ constraint,
//!   sample count), when `--ablations` is given.
//!
//! Usage:
//!
//! ```text
//! harness [--scale N] [--seed N] [--budget-ms N] [--out DIR]
//!         [--engine NAME]... [--certify] [--ablations] [--quick]
//! ```
//!
//! `--engine NAME` (repeatable) adds an engine to the run set; the set
//! defaults to the three sequential engines. `--engine portfolio` is the
//! interesting use: it adds the parallel portfolio, so `fig6_cactus.csv` and
//! `summary_table.csv` report its *true wall-clock* numbers next to the
//! post-hoc VBS columns. Each `runs.csv` row is one run's
//! `SynthesisStats`: `repair_iterations` and `sample_wall_s` (the sampling
//! stage's wall clock) come from Manthan3 runs and are zero for the
//! baselines and the portfolio, and a portfolio row's oracle columns sum
//! its racers' counters. `--quick` is the smoke-test setting: scale 1 and a
//! 500 ms budget, each applied only where `--scale` / `--budget-ms` is not
//! given, in any flag order. Every `OracleStats` counter (MaxSAT,
//! sampling, CDCL solver layer, certification) is one column of
//! `runs.csv` and one row of
//! `summary_table.csv`; the `oracle_stats!` table in
//! `manthan3_core::oracle` lists them. `--certify` arms the certifying
//! solver layer of every Manthan3 run (alone, as a portfolio racer and in
//! each ablation variant): every SAT and MaxSAT solver its oracle
//! constructs logs DRAT proofs, and every UNSAT verdict is checked
//! in-process by the independent `manthan3-drat` checker. A rejected
//! certificate — a soundness alarm — is dumped under the output directory
//! as a `certify_failure_<instance>_<engine>.cnf` / `.drat` pair for
//! offline reproduction; under `--engine portfolio` the race's record
//! carries its Manthan3 racer's rejection too. Every run, the ablations'
//! included, goes through `manthan3_bench::run_engine` with one
//! `PortfolioConfig`: the budget and the Manthan3 settings, of which an
//! ablation variant swaps only the latter.
//! Malformed flag values and unknown flags abort with a diagnostic on stderr
//! and exit status 2.

use manthan3_bench::{csvio, report, run_suite, EngineKind, RunRecord};
use manthan3_core::Manthan3Config;
use manthan3_gen::suite::suite;
use manthan3_gen::Instance;
use manthan3_portfolio::PortfolioConfig;
use std::path::{Path, PathBuf};
use std::str::FromStr;
use std::time::{Duration, Instant};

struct Args {
    scale: usize,
    seed: u64,
    budget: Duration,
    out: PathBuf,
    engines: Vec<EngineKind>,
    ablations: bool,
    certify: bool,
}

/// Aborts with a diagnostic on stderr and exit status 2 (flag-parsing
/// failures must not silently degrade to defaults).
fn usage_error(message: &str) -> ! {
    eprintln!("error: {message}");
    eprintln!(
        "usage: harness [--scale N] [--seed N] [--budget-ms N] [--out DIR] \
         [--engine NAME]... [--certify] [--ablations] [--quick]"
    );
    std::process::exit(2);
}

/// Parses the value of `flag`, failing with a diagnostic when the value is
/// missing or malformed.
fn parse_value<T>(flag: &str, value: Option<String>) -> Result<T, String>
where
    T: FromStr,
    T::Err: std::fmt::Display,
{
    let raw = value.ok_or_else(|| format!("{flag} requires a value"))?;
    raw.parse()
        .map_err(|err| format!("invalid value {raw:?} for {flag}: {err}"))
}

/// Parses the command-line flags (without the program name).
fn parse_args(argv: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        scale: 3,
        seed: 2023,
        budget: Duration::from_millis(2000),
        out: PathBuf::from("experiments"),
        engines: EngineKind::ALL.to_vec(),
        ablations: false,
        certify: false,
    };
    // `--quick` only fills in what the caller left unset, so explicit
    // values win whatever the flag order.
    let mut scale = None;
    let mut budget = None;
    let mut quick = false;
    let mut iter = argv.into_iter();
    while let Some(flag) = iter.next() {
        match flag.as_str() {
            "--scale" => scale = Some(parse_value("--scale", iter.next())?),
            "--seed" => args.seed = parse_value("--seed", iter.next())?,
            "--budget-ms" => {
                let ms: u64 = parse_value("--budget-ms", iter.next())?;
                budget = Some(Duration::from_millis(ms));
            }
            "--out" => {
                let dir = iter.next().ok_or("--out requires a value")?;
                args.out = PathBuf::from(dir);
            }
            "--engine" => {
                let engine: EngineKind = parse_value("--engine", iter.next())?;
                if !args.engines.contains(&engine) {
                    args.engines.push(engine);
                }
            }
            "--certify" => args.certify = true,
            "--ablations" => args.ablations = true,
            "--quick" => quick = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if quick {
        args.scale = 1;
        args.budget = Duration::from_millis(500);
    }
    args.scale = scale.unwrap_or(args.scale);
    args.budget = budget.unwrap_or(args.budget);
    Ok(args)
}

fn main() {
    let args = parse_args(std::env::args().skip(1)).unwrap_or_else(|message| usage_error(&message));
    let instances = suite(args.seed, args.scale);
    println!(
        "running {} instances x {} engines (budget {:?} per run)…",
        instances.len(),
        args.engines.len(),
        args.budget
    );
    let mut config = PortfolioConfig::with_time_budget(args.budget);
    config.manthan3.certify = args.certify;
    let start = Instant::now();
    let records = run_suite(&instances, &args.engines, &config);
    println!("finished in {:?}", start.elapsed());

    // A rejected certificate is a soundness alarm: dump the offending CNF
    // and DRAT proof next to the CSVs so the rejection reproduces offline
    // (`manthan3-drat check <stem>.cnf <stem>.drat`), and say so loudly.
    for record in &records {
        let Some(failure) = &record.stats.certification_failure else {
            continue;
        };
        let stem = format!("certify_failure_{}_{}", record.instance, record.engine);
        std::fs::create_dir_all(&args.out).expect("create output dir");
        std::fs::write(args.out.join(format!("{stem}.cnf")), &failure.cnf)
            .expect("write rejected-certificate CNF");
        std::fs::write(args.out.join(format!("{stem}.drat")), &failure.drat)
            .expect("write rejected-certificate proof");
        eprintln!(
            "warning: {} on {} produced a REJECTED certificate ({}); \
             dumped {stem}.cnf / {stem}.drat",
            record.engine, record.instance, failure.reason
        );
    }

    // Raw records: the per-record columns, then every oracle counter.
    csvio::write_csv(
        &args.out.join("runs.csv"),
        &report::runs_header(),
        &report::runs_rows(&records),
    )
    .expect("write runs.csv");

    // Figure 6. The portfolio column carries true wall-clock times and is
    // populated only when `--engine portfolio` ran.
    csvio::write_csv(
        &args.out.join("fig6_cactus.csv"),
        &[
            "instances_synthesized",
            "vbs_hqs2_pedant_s",
            "vbs_plus_manthan3_s",
            "portfolio_wall_s",
        ],
        &report::fig6_rows(&records),
    )
    .expect("write fig6");

    // Figures 7–10 (scatter plots).
    let scatters = [
        (
            "fig7_scatter.csv",
            vec![EngineKind::Hqs2Like, EngineKind::PedantLike],
            vec![EngineKind::Manthan3],
            "vbs_hqs2_pedant_s",
            "manthan3_s",
        ),
        (
            "fig8_scatter.csv",
            vec![EngineKind::PedantLike],
            vec![EngineKind::Manthan3],
            "pedantlike_s",
            "manthan3_s",
        ),
        (
            "fig9_scatter.csv",
            vec![EngineKind::Hqs2Like],
            vec![EngineKind::Manthan3],
            "hqs2like_s",
            "manthan3_s",
        ),
        (
            "fig10_scatter.csv",
            vec![EngineKind::Hqs2Like],
            vec![EngineKind::PedantLike],
            "hqs2like_s",
            "pedantlike_s",
        ),
    ];
    for (file, xs, ys, x_label, y_label) in scatters {
        csvio::write_csv(
            &args.out.join(file),
            &["instance", x_label, y_label],
            &report::scatter_rows(&records, &xs, &ys, args.budget),
        )
        .expect("write scatter");
    }

    // Summary table (the in-text counts).
    let summary = report::summary(&records);
    csvio::write_csv(
        &args.out.join("summary_table.csv"),
        &["metric", "value"],
        &summary.rows(),
    )
    .expect("write summary");
    println!("\n== summary (paper Section 6 counts) ==\n{summary}");

    if args.ablations {
        run_ablations(&args.out, &config, &instances);
    }
    println!("\nCSV output written to {}", args.out.display());
}

/// The ablation study: Manthan3 with individual design choices disabled, on
/// the true instances of the suite (every instance not known to be false,
/// since no variant can synthesize a false one). A variant swaps only the
/// Manthan3 settings of `config`, so it runs under the same budget and
/// certification as the suite.
fn run_ablations(out: &Path, config: &PortfolioConfig, instances: &[Instance]) {
    let instances: Vec<&Instance> = instances
        .iter()
        .filter(|instance| instance.expected != Some(false))
        .collect();
    let base = &config.manthan3;
    let variants = [
        ("default", base.clone()),
        (
            "no_y_features",
            Manthan3Config {
                use_y_features: false,
                ..base.clone()
            },
        ),
        (
            "no_y_hat_constraint",
            Manthan3Config {
                constrain_y_hat: false,
                ..base.clone()
            },
        ),
        (
            "no_unique_definitions",
            Manthan3Config {
                use_unique_definitions: false,
                ..base.clone()
            },
        ),
        (
            "samples_50",
            Manthan3Config {
                num_samples: 50,
                ..base.clone()
            },
        ),
        (
            "samples_1000",
            Manthan3Config {
                num_samples: 1000,
                ..base.clone()
            },
        ),
    ];
    let mut rows = Vec::new();
    for (name, manthan3) in variants {
        let variant = PortfolioConfig {
            manthan3,
            ..config.clone()
        };
        let records = run_suite(instances.iter().copied(), &[EngineKind::Manthan3], &variant);
        let synthesized = records.iter().filter(|record| record.synthesized).count();
        let total_time: f64 = records.iter().map(RunRecord::seconds).sum();
        println!(
            "ablation {name:<22} synthesized {synthesized:>4} / {} (total {total_time:.1}s)",
            instances.len()
        );
        rows.push(vec![
            name.to_string(),
            synthesized.to_string(),
            instances.len().to_string(),
            format!("{total_time:.2}"),
        ]);
    }
    csvio::write_csv(
        &out.join("ablations.csv"),
        &["variant", "synthesized", "instances", "total_seconds"],
        &rows,
    )
    .expect("write ablations");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(flags: &[&str]) -> Result<Args, String> {
        parse_args(flags.iter().map(|flag| flag.to_string()))
    }

    #[test]
    fn quick_supplies_defaults_only_for_unset_flags() {
        for flags in [
            &["--budget-ms", "5000", "--scale", "2", "--quick"][..],
            &["--quick", "--budget-ms", "5000", "--scale", "2"][..],
        ] {
            let args = parse(flags).expect("valid flags");
            assert_eq!(args.scale, 2, "{flags:?}");
            assert_eq!(args.budget, Duration::from_millis(5000), "{flags:?}");
        }
        let args = parse(&["--scale", "2", "--quick"]).expect("valid flags");
        assert_eq!((args.scale, args.budget), (2, Duration::from_millis(500)));
        let args = parse(&["--quick"]).expect("valid flags");
        assert_eq!((args.scale, args.budget), (1, Duration::from_millis(500)));
        let args = parse(&[]).expect("no flags");
        assert_eq!((args.scale, args.budget), (3, Duration::from_millis(2000)));
    }

    #[test]
    fn malformed_and_unknown_flags_are_rejected() {
        assert!(parse(&["--budget-ms", "soon"]).is_err());
        assert!(parse(&["--scale"]).is_err());
        assert!(parse(&["--engine", "hqs3like"]).is_err());
        assert!(parse(&["--repair-strategy", "linear"]).is_err());
    }
}
