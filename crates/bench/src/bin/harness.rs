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
//!         [--engine NAME]... [--sample-shards N]
//!         [--repair-strategy linear|core-guided]
//!         [--max-cluster-size N] [--compose-repairs on|off]
//!         [--certify] [--ablations] [--quick]
//! ```
//!
//! `--engine NAME` (repeatable) adds an engine to the run set; the set
//! defaults to the three sequential engines. `--engine portfolio` is the
//! interesting use: it adds the parallel portfolio, so `fig6_cactus.csv` and
//! `summary_table.csv` report its *true wall-clock* numbers next to the
//! post-hoc VBS columns. `--sample-shards N` splits the Manthan3 sampling
//! stage across `N` sampler threads (sharded sampling); the per-run
//! `sample_wall_s` / `sample_shards` columns of `runs.csv` and the matching
//! `summary_table.csv` rows report its effect. `--repair-strategy` selects
//! how the Manthan3 repair loop's MaxSAT queries search for their optimum
//! (warm-started linear bound search vs. core-guided relaxation); the
//! per-run `maxsat_probes` / `maxsat_cores` columns of `runs.csv` and the
//! matching `summary_table.csv` rows report the probe economy.
//! The per-run solver-layer columns of `runs.csv`
//! (`sat_propagations`, `props_per_sec`, `conflicts`, `decisions`,
//! `sat_restarts`, `reused_levels`, `rephases`, `learnt_clauses_live`,
//! `glue2_clauses`, the `inprocess_*` / `vivify_*` breakdown,
//! `arena_collections`, `arena_live_words`, `budget_exhaustions`, and the
//! `*_solvers_constructed` / `samplers_constructed` provenance counters) and
//! the matching `summary_table.csv` rows report the CDCL core's work.
//! `--certify` arms the certifying solver layer: every SAT and MaxSAT solver
//! the Manthan3-family oracles construct logs DRAT proofs, every UNSAT
//! verdict is checked in-process by the independent `manthan3-drat` checker,
//! and the per-run `models_verified` / `certificates_checked` /
//! `certificates_rejected` / `proof_bytes` / `proof_adds` / `proof_deletes` /
//! `certify_wall_s` columns of `runs.csv` (with matching `summary_table.csv`
//! rows) report the proof traffic and checking cost. A rejected certificate
//! — a soundness alarm — is dumped under the output directory as a
//! `certify_failure_*.cnf` / `.drat` pair for offline reproduction.
//! `--engine compositional` adds the dependency-driven compositional engine
//! (partition the outputs into clusters, synthesize them concurrently,
//! compose with coupled-residue repair); `--max-cluster-size N` caps the
//! outputs per cluster (forcing coupling clauses and composition repair
//! work) and `--compose-repairs on|off` toggles the coupled-residue repair
//! against a monolithic re-synthesis fallback. The per-run `clusters` /
//! `cluster_wall_max_s` / `cluster_wall_sum_s` columns of `runs.csv` and the
//! matching `summary_table.csv` rows report the partition and the critical
//! path of the concurrent cluster phase. Malformed
//! flag values abort with a diagnostic and a non-zero exit status.

use manthan3_bench::{csvio, report, run_suite_with_options, EngineKind, RunOptions};
use manthan3_core::{Manthan3, Manthan3Config, RepairStrategy};
use manthan3_dqbf::verify;
use manthan3_gen::suite::suite;
use std::path::PathBuf;
use std::str::FromStr;
use std::time::{Duration, Instant};

struct Args {
    scale: usize,
    seed: u64,
    budget: Duration,
    out: PathBuf,
    engines: Vec<EngineKind>,
    ablations: bool,
    sample_shards: usize,
    repair_strategy: RepairStrategy,
    max_cluster_size: Option<usize>,
    compose_repairs: bool,
    certify: bool,
}

/// Aborts with a diagnostic on stderr and exit status 2 (flag-parsing
/// failures must not silently degrade to defaults).
fn usage_error(message: &str) -> ! {
    eprintln!("error: {message}");
    eprintln!(
        "usage: harness [--scale N] [--seed N] [--budget-ms N] [--out DIR] \
         [--engine NAME]... [--sample-shards N] \
         [--repair-strategy linear|core-guided] \
         [--max-cluster-size N] [--compose-repairs on|off] \
         [--certify] [--ablations] [--quick]"
    );
    std::process::exit(2);
}

/// Parses the value of `flag`, aborting with a diagnostic when the value is
/// missing or malformed.
fn parse_value<T>(flag: &str, value: Option<String>) -> T
where
    T: FromStr,
    T::Err: std::fmt::Display,
{
    let Some(raw) = value else {
        usage_error(&format!("{flag} requires a value"));
    };
    match raw.parse() {
        Ok(parsed) => parsed,
        Err(err) => usage_error(&format!("invalid value {raw:?} for {flag}: {err}")),
    }
}

fn parse_args() -> Args {
    let mut args = Args {
        scale: 3,
        seed: 2023,
        budget: Duration::from_millis(2000),
        out: PathBuf::from("experiments"),
        engines: EngineKind::ALL.to_vec(),
        ablations: false,
        sample_shards: 1,
        repair_strategy: RepairStrategy::default(),
        max_cluster_size: None,
        compose_repairs: true,
        certify: false,
    };
    let mut iter = std::env::args().skip(1);
    while let Some(flag) = iter.next() {
        match flag.as_str() {
            "--scale" => args.scale = parse_value("--scale", iter.next()),
            "--seed" => args.seed = parse_value("--seed", iter.next()),
            "--budget-ms" => {
                let ms: u64 = parse_value("--budget-ms", iter.next());
                args.budget = Duration::from_millis(ms);
            }
            "--out" => match iter.next() {
                Some(dir) => args.out = PathBuf::from(dir),
                None => usage_error("--out requires a value"),
            },
            "--engine" => {
                let engine: EngineKind = parse_value("--engine", iter.next());
                if !args.engines.contains(&engine) {
                    args.engines.push(engine);
                }
            }
            "--sample-shards" => {
                let shards: usize = parse_value("--sample-shards", iter.next());
                if shards == 0 {
                    usage_error("--sample-shards must be at least 1");
                }
                args.sample_shards = shards;
            }
            "--repair-strategy" => {
                // Unknown strategy names abort with stderr + exit 2 via
                // `parse_value`, like every other malformed flag value.
                args.repair_strategy = parse_value("--repair-strategy", iter.next());
            }
            "--max-cluster-size" => {
                let size: usize = parse_value("--max-cluster-size", iter.next());
                if size == 0 {
                    usage_error("--max-cluster-size must be at least 1");
                }
                args.max_cluster_size = Some(size);
            }
            "--compose-repairs" => match iter.next().as_deref() {
                Some("on") => args.compose_repairs = true,
                Some("off") => args.compose_repairs = false,
                Some(other) => usage_error(&format!(
                    "invalid value {other:?} for --compose-repairs (expected on or off)"
                )),
                None => usage_error("--compose-repairs requires a value"),
            },
            "--certify" => args.certify = true,
            "--ablations" => args.ablations = true,
            "--quick" => {
                args.scale = 1;
                args.budget = Duration::from_millis(500);
            }
            other => {
                usage_error(&format!("unknown argument {other:?}"));
            }
        }
    }
    args
}

fn main() {
    let args = parse_args();
    let instances = suite(args.seed, args.scale);
    println!(
        "running {} instances x {} engines (budget {:?} per run)…",
        instances.len(),
        args.engines.len(),
        args.budget
    );
    let start = Instant::now();
    let records = run_suite_with_options(
        &instances,
        &args.engines,
        args.budget,
        RunOptions {
            sample_shards: args.sample_shards,
            repair_strategy: args.repair_strategy,
            max_cluster_size: args.max_cluster_size,
            compose_repairs: args.compose_repairs,
            certify: args.certify,
        },
    );
    println!("finished in {:?}", start.elapsed());

    // A rejected certificate is a soundness alarm: dump the offending CNF
    // and DRAT proof next to the CSVs so the rejection reproduces offline
    // (`manthan3-drat <stem>.cnf <stem>.drat`), and say so loudly.
    for record in &records {
        let Some(failure) = &record.certification_failure else {
            continue;
        };
        let stem = format!("certify_failure_{}_{}", record.instance, record.engine);
        let max_var = failure
            .cnf
            .iter()
            .flatten()
            .map(|l| l.unsigned_abs())
            .max()
            .unwrap_or(0);
        let mut dimacs = format!("p cnf {max_var} {}\n", failure.cnf.len());
        for clause in &failure.cnf {
            for l in clause {
                dimacs.push_str(&l.to_string());
                dimacs.push(' ');
            }
            dimacs.push_str("0\n");
        }
        std::fs::create_dir_all(&args.out).expect("create output dir");
        std::fs::write(args.out.join(format!("{stem}.cnf")), dimacs)
            .expect("write rejected-certificate CNF");
        std::fs::write(args.out.join(format!("{stem}.drat")), &failure.proof)
            .expect("write rejected-certificate proof");
        eprintln!(
            "warning: {} on {} produced a REJECTED certificate ({}); \
             dumped {stem}.cnf / {stem}.drat",
            record.engine, record.instance, failure.reason
        );
    }

    // Raw records, including the per-run MaxSAT oracle counters behind the
    // summary's incremental-vs-fresh aggregates.
    let raw_rows: Vec<Vec<String>> = records
        .iter()
        .map(|r| {
            vec![
                r.instance.clone(),
                r.family.clone(),
                r.engine.to_string(),
                r.synthesized.to_string(),
                r.decided.to_string(),
                r.outcome.clone(),
                format!("{:.4}", r.seconds()),
                r.repair_iterations.to_string(),
                r.oracle.maxsat_calls.to_string(),
                r.oracle.maxsat_incremental_calls.to_string(),
                r.oracle.maxsat_hard_encodings.to_string(),
                r.oracle.maxsat_probes.to_string(),
                r.oracle.maxsat_cores.to_string(),
                format!("{:.4}", r.sample_wall.as_secs_f64()),
                r.sample_shards.to_string(),
                r.oracle.sampler_calls.to_string(),
                r.oracle.sample_shortfalls.to_string(),
                r.oracle.sat_propagations.to_string(),
                format!(
                    "{:.1}",
                    if r.seconds() > 0.0 {
                        r.oracle.sat_propagations as f64 / r.seconds()
                    } else {
                        0.0
                    }
                ),
                r.oracle.conflicts.to_string(),
                r.oracle.decisions.to_string(),
                r.oracle.sat_restarts.to_string(),
                r.oracle.reused_levels.to_string(),
                r.oracle.rephases.to_string(),
                r.oracle.learnt_db_live.to_string(),
                r.oracle.glue2_clauses.to_string(),
                r.oracle.inprocess_subsumed.to_string(),
                r.oracle.inprocess_strengthened.to_string(),
                r.oracle.inprocess_passes.to_string(),
                r.oracle.vivify_candidates.to_string(),
                r.oracle.vivify_strengthened.to_string(),
                r.oracle.arena_collections.to_string(),
                r.oracle.arena_live_words.to_string(),
                r.oracle.models_verified.to_string(),
                r.oracle.certificates_checked.to_string(),
                r.oracle.certificates_rejected.to_string(),
                r.oracle.proof_bytes.to_string(),
                r.oracle.proof_adds.to_string(),
                r.oracle.proof_deletes.to_string(),
                format!("{:.4}", r.oracle.certify_nanos as f64 / 1e9),
                r.oracle.budget_exhaustions.to_string(),
                r.oracle.sat_solvers_constructed.to_string(),
                r.oracle.maxsat_solvers_constructed.to_string(),
                r.oracle.samplers_constructed.to_string(),
                r.clusters.to_string(),
                format!("{:.4}", r.cluster_wall_max.as_secs_f64()),
                format!("{:.4}", r.cluster_wall_sum.as_secs_f64()),
            ]
        })
        .collect();
    csvio::write_csv(
        &args.out.join("runs.csv"),
        &[
            "instance",
            "family",
            "engine",
            "synthesized",
            "decided",
            "outcome",
            "seconds",
            "repair_iterations",
            "maxsat_calls",
            "maxsat_incremental_calls",
            "maxsat_hard_encodings",
            "maxsat_probes",
            "maxsat_cores",
            "sample_wall_s",
            "sample_shards",
            "sampler_calls",
            "sample_shortfalls",
            "sat_propagations",
            "props_per_sec",
            "conflicts",
            "decisions",
            "sat_restarts",
            "reused_levels",
            "rephases",
            "learnt_clauses_live",
            "glue2_clauses",
            "inprocess_subsumed",
            "inprocess_strengthened",
            "inprocess_passes",
            "vivify_candidates",
            "vivify_strengthened",
            "arena_collections",
            "arena_live_words",
            "models_verified",
            "certificates_checked",
            "certificates_rejected",
            "proof_bytes",
            "proof_adds",
            "proof_deletes",
            "certify_wall_s",
            "budget_exhaustions",
            "sat_solvers_constructed",
            "maxsat_solvers_constructed",
            "samplers_constructed",
            "clusters",
            "cluster_wall_max_s",
            "cluster_wall_sum_s",
        ],
        &raw_rows,
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
        run_ablations(&args, &instances);
    }
    println!("\nCSV output written to {}", args.out.display());
}

/// The ablation study: Manthan3 with individual design choices disabled, on
/// the true instances of the suite.
fn run_ablations(args: &Args, instances: &[manthan3_gen::Instance]) {
    let variants: Vec<(&str, Manthan3Config)> = vec![
        ("default", Manthan3Config::default()),
        (
            "no_y_features",
            Manthan3Config {
                use_y_features: false,
                ..Manthan3Config::default()
            },
        ),
        (
            "no_y_hat_constraint",
            Manthan3Config {
                constrain_y_hat: false,
                ..Manthan3Config::default()
            },
        ),
        (
            "no_unique_definitions",
            Manthan3Config {
                use_unique_definitions: false,
                ..Manthan3Config::default()
            },
        ),
        (
            "samples_50",
            Manthan3Config {
                num_samples: 50,
                ..Manthan3Config::default()
            },
        ),
        (
            "samples_1000",
            Manthan3Config {
                num_samples: 1000,
                ..Manthan3Config::default()
            },
        ),
    ];
    let mut rows = Vec::new();
    for (name, base) in variants {
        let mut synthesized = 0usize;
        let mut total_time = 0.0f64;
        for instance in instances {
            let config = Manthan3Config {
                time_budget: Some(args.budget),
                ..base.clone()
            };
            let start = Instant::now();
            let result = Manthan3::new(config).synthesize(&instance.dqbf);
            let elapsed = start.elapsed().as_secs_f64();
            total_time += elapsed;
            if let manthan3_core::SynthesisOutcome::Realizable(v) = &result.outcome {
                if verify::check(&instance.dqbf, v).is_valid() {
                    synthesized += 1;
                }
            }
        }
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
        &args.out.join("ablations.csv"),
        &["variant", "synthesized", "instances", "total_seconds"],
        &rows,
    )
    .expect("write ablations");
}
