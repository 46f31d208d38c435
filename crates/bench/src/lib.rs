//! Benchmark harness for regenerating the paper's evaluation.
//!
//! This crate provides the plumbing shared by the `harness` binary (which
//! writes the CSV data behind every figure and table of the paper) and the
//! Criterion micro-benchmarks:
//!
//! * [`EngineKind`] / [`run_engine`] / [`run_suite`] — run the three Henkin
//!   synthesizers (Manthan3 and the two baselines standing in for HQS2 and
//!   Pedant) on generated instances under a per-instance budget, verifying
//!   every produced vector with the independent certificate checker,
//! * [`report`] — Virtual Best Synthesizer (VBS) bookkeeping, cactus and
//!   scatter series, and the summary table with the counts reported in the
//!   paper's text (solved per tool, VBS improvement, uniquely solved, …),
//! * [`csvio`] — tiny CSV writing helpers (no external dependency).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod csvio;
pub mod report;

use manthan3_baselines::{ArbiterConfig, ArbiterSolver, ExpansionConfig, ExpansionSolver};
use manthan3_core::{
    CertificationFailure, CompositionalConfig, CompositionalEngine, Manthan3, Manthan3Config,
    OracleStats, RepairStrategy, SynthesisOutcome,
};
use manthan3_dqbf::verify;
use manthan3_gen::Instance;
use manthan3_portfolio::{Portfolio, PortfolioConfig};
use std::fmt;
use std::str::FromStr;
use std::time::{Duration, Instant};

/// Per-run knobs threaded from the harness flags into the engines (the
/// Manthan3 sampling-shard width and the MaxSAT repair strategy; baselines
/// ignore both).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunOptions {
    /// Number of shards the Manthan3 sampling stage splits its request
    /// across (`--sample-shards`, clamped to at least 1).
    pub sample_shards: usize,
    /// How the Manthan3 repair loop's FindCandidates MaxSAT queries search
    /// for their optimum (`--repair-strategy`).
    pub repair_strategy: RepairStrategy,
    /// Upper bound on the outputs per cluster for the compositional engine
    /// (`--max-cluster-size`; `None` keeps the natural partition). Ignored
    /// by every other engine.
    pub max_cluster_size: Option<usize>,
    /// Whether a compositional composition counterexample is repaired by
    /// merging only the offending clusters (`true`, the default) or by one
    /// monolithic re-synthesis (`--compose-repairs off`). Ignored by every
    /// other engine.
    pub compose_repairs: bool,
    /// Certify UNSAT verdicts in-process (`--certify`): every solver the
    /// Manthan3 oracle constructs logs DRAT proofs, and every UNSAT answer
    /// is checked immediately by the independent `manthan3-drat` checker.
    /// Reaches the Manthan3 engine, the compositional engine, and the
    /// portfolio's Manthan3 racer; the baselines keep their defaults. The
    /// per-run `certificates_checked` / `certificates_rejected` /
    /// `proof_bytes` / `proof_adds` / `proof_deletes` / `certify_wall_s`
    /// columns of `runs.csv` and the matching `summary_table.csv` rows
    /// report the proof traffic and checking cost.
    pub certify: bool,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            sample_shards: 1,
            repair_strategy: RepairStrategy::default(),
            max_cluster_size: None,
            compose_repairs: true,
            certify: false,
        }
    }
}

/// The synthesis engines taking part in the comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum EngineKind {
    /// The paper's contribution (`manthan3-core`).
    Manthan3,
    /// The expansion-based baseline standing in for HQS2.
    Hqs2Like,
    /// The definition + arbiter baseline standing in for Pedant.
    PedantLike,
    /// The parallel portfolio racing the three engines above under one
    /// shared budget with cooperative cancellation — the live counterpart
    /// of the post-hoc VBS (`manthan3-portfolio`).
    Portfolio,
    /// The dependency-driven compositional engine (`manthan3-core`'s
    /// `CompositionalEngine`): partition the outputs into clusters,
    /// synthesize them concurrently, compose with coupled-residue repair.
    /// Opt-in like the portfolio (`--engine compositional`).
    Compositional,
}

impl EngineKind {
    /// The sequential engines, in the order used by the reports. The
    /// portfolio is opt-in (`--engine portfolio` in the harness) because its
    /// runs subsume the sequential ones.
    pub const ALL: [EngineKind; 3] = [
        EngineKind::Manthan3,
        EngineKind::Hqs2Like,
        EngineKind::PedantLike,
    ];
}

impl fmt::Display for EngineKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            EngineKind::Manthan3 => "manthan3",
            EngineKind::Hqs2Like => "hqs2like",
            EngineKind::PedantLike => "pedantlike",
            EngineKind::Portfolio => "portfolio",
            EngineKind::Compositional => "compositional",
        };
        write!(f, "{name}")
    }
}

impl FromStr for EngineKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "manthan3" => Ok(EngineKind::Manthan3),
            "hqs2like" => Ok(EngineKind::Hqs2Like),
            "pedantlike" => Ok(EngineKind::PedantLike),
            "portfolio" => Ok(EngineKind::Portfolio),
            "compositional" => Ok(EngineKind::Compositional),
            other => Err(format!(
                "unknown engine {other:?} (expected manthan3, hqs2like, pedantlike, portfolio \
                 or compositional)"
            )),
        }
    }
}

/// The result of running one engine on one instance.
#[derive(Debug, Clone)]
pub struct RunRecord {
    /// Instance name.
    pub instance: String,
    /// Instance family (`pec`, `controller`, …).
    pub family: String,
    /// Engine that produced this record.
    pub engine: EngineKind,
    /// `true` if a Henkin function vector was synthesized *and* passed the
    /// independent certificate check (the paper's notion of "synthesized").
    pub synthesized: bool,
    /// `true` if the engine decided the instance (synthesized or proved
    /// false).
    pub decided: bool,
    /// Short outcome label (`realizable`, `unrealizable`, `unknown:…`).
    pub outcome: String,
    /// Wall-clock runtime of the engine call.
    pub time: Duration,
    /// Oracle-layer counters of the run (for the portfolio: the element-wise
    /// sum over the racing engines). The MaxSAT columns of
    /// `summary_table.csv` — incremental hits vs fresh encodes — aggregate
    /// these across the suite.
    pub oracle: OracleStats,
    /// Number of repair iterations (counterexample rounds) the run took.
    /// Only the Manthan3 engine reports this; baselines and the portfolio
    /// record zero.
    pub repair_iterations: usize,
    /// Wall-clock time the run's sampling stage took. Only the Manthan3
    /// engine reports this; baselines do not sample and the portfolio does
    /// not surface per-engine stage timings.
    pub sample_wall: Duration,
    /// Number of sample shards the run's sampling stage used (1 = the plain
    /// single-threaded sampler; 0 for engines that do not sample).
    pub sample_shards: usize,
    /// Number of output clusters the compositional engine synthesized
    /// concurrently (1 = it degenerated to the monolithic pipeline; 0 for
    /// every other engine).
    pub clusters: usize,
    /// Longest per-cluster synthesis wall clock — the critical path of the
    /// concurrent cluster phase (zero for non-compositional runs).
    pub cluster_wall_max: Duration,
    /// Sum of the per-cluster synthesis wall clocks — the total cluster
    /// work, i.e. what a sequential schedule would have paid (zero for
    /// non-compositional runs).
    pub cluster_wall_sum: Duration,
    /// The first rejected DRAT certificate of a certifying run
    /// ([`RunOptions::certify`]), with the offending CNF and proof — the
    /// harness dumps it for offline reproduction. `None` on sound runs, on
    /// uncertified runs, and for the portfolio (whose racers merge counters
    /// only; a rejection there still shows in
    /// `oracle.certificates_rejected`).
    pub certification_failure: Option<Box<CertificationFailure>>,
}

impl RunRecord {
    /// Runtime in seconds.
    pub fn seconds(&self) -> f64 {
        self.time.as_secs_f64()
    }
}

/// Runs `engine` on `instance` with the given per-instance wall-clock budget.
///
/// Every claimed Henkin vector is re-checked with
/// [`manthan3_dqbf::verify::check`]; a vector that fails the check is counted
/// as *not* synthesized (this never happens for the engines in this
/// workspace, but the harness does not take their word for it).
pub fn run_engine(engine: EngineKind, instance: &Instance, budget: Duration) -> RunRecord {
    run_engine_with(engine, instance, budget, RunOptions::default())
}

/// Like [`run_engine`], but with the Manthan3 sampling stage split across
/// `sample_shards` sampler threads (the harness flag `--sample-shards`).
pub fn run_engine_sharded(
    engine: EngineKind,
    instance: &Instance,
    budget: Duration,
    sample_shards: usize,
) -> RunRecord {
    run_engine_with(
        engine,
        instance,
        budget,
        RunOptions {
            sample_shards,
            ..RunOptions::default()
        },
    )
}

/// Like [`run_engine`], but with explicit [`RunOptions`] (shard width and
/// repair strategy). The options reach the Manthan3 engine directly and the
/// portfolio's Manthan3 racer; the baselines neither sample nor run MaxSAT
/// repair and ignore them.
pub fn run_engine_with(
    engine: EngineKind,
    instance: &Instance,
    budget: Duration,
    options: RunOptions,
) -> RunRecord {
    let sample_shards = options.sample_shards.max(1);
    let start = Instant::now();
    // Per-cluster metadata only the compositional engine fills in.
    let mut clusters = 0usize;
    let mut cluster_wall_max = Duration::ZERO;
    let mut cluster_wall_sum = Duration::ZERO;
    // Filled in by the certifying Manthan3-family engines on a rejection.
    let mut certification_failure = None;
    let (outcome, oracle, repair_iterations, sample_wall, record_shards) = match engine {
        EngineKind::Manthan3 => {
            let config = Manthan3Config {
                time_budget: Some(budget),
                sample_shards,
                repair_strategy: options.repair_strategy,
                certify: options.certify,
                ..Manthan3Config::default()
            };
            let result = Manthan3::new(config).synthesize(&instance.dqbf);
            certification_failure = result.stats.certification_failure;
            (
                result.outcome,
                result.stats.oracle,
                result.stats.repair_iterations,
                result.stats.sampling_time,
                result.stats.sample_shards,
            )
        }
        EngineKind::Hqs2Like => {
            let config = ExpansionConfig {
                time_budget: Some(budget),
                ..ExpansionConfig::default()
            };
            let result = ExpansionSolver::new(config).synthesize(&instance.dqbf);
            (result.outcome, result.oracle, 0, Duration::ZERO, 0)
        }
        EngineKind::PedantLike => {
            let config = ArbiterConfig {
                time_budget: Some(budget),
                ..ArbiterConfig::default()
            };
            let result = ArbiterSolver::new(config).synthesize(&instance.dqbf);
            (result.outcome, result.oracle, 0, Duration::ZERO, 0)
        }
        EngineKind::Portfolio => {
            let mut config = PortfolioConfig::with_time_budget(budget);
            config.manthan3.sample_shards = sample_shards;
            config.manthan3.repair_strategy = options.repair_strategy;
            config.manthan3.certify = options.certify;
            let result = Portfolio::new(config).run(&instance.dqbf);
            let oracle = result.merged_oracle_stats();
            (result.outcome, oracle, 0, Duration::ZERO, sample_shards)
        }
        EngineKind::Compositional => {
            let config = CompositionalConfig {
                engine: Manthan3Config {
                    time_budget: Some(budget),
                    sample_shards,
                    repair_strategy: options.repair_strategy,
                    certify: options.certify,
                    ..Manthan3Config::default()
                },
                max_cluster_size: options.max_cluster_size,
                compose_repairs: options.compose_repairs,
                threads: 0,
            };
            let result = CompositionalEngine::new(config).synthesize(&instance.dqbf);
            certification_failure = result.stats.certification_failure;
            clusters = result.stats.clusters;
            cluster_wall_max = result
                .stats
                .cluster_walls
                .iter()
                .copied()
                .max()
                .unwrap_or_default();
            cluster_wall_sum = result.stats.cluster_walls.iter().sum();
            (
                result.outcome,
                result.stats.oracle,
                result.stats.repair_iterations,
                result.stats.sampling_time,
                result.stats.sample_shards,
            )
        }
    };
    let time = start.elapsed();
    let (synthesized, decided, label) = match &outcome {
        SynthesisOutcome::Realizable(vector) => {
            let valid = verify::check(&instance.dqbf, vector).is_valid();
            (
                valid,
                valid,
                if valid { "realizable" } else { "invalid" }.to_string(),
            )
        }
        SynthesisOutcome::Unrealizable => (false, true, "unrealizable".to_string()),
        SynthesisOutcome::Unknown(reason) => (false, false, format!("unknown:{reason:?}")),
    };
    RunRecord {
        instance: instance.name.clone(),
        family: instance.family.to_string(),
        engine,
        synthesized,
        decided,
        outcome: label,
        time,
        oracle,
        repair_iterations,
        sample_wall,
        sample_shards: record_shards,
        clusters,
        cluster_wall_max,
        cluster_wall_sum,
        certification_failure,
    }
}

/// Runs every sequential engine on every instance.
pub fn run_suite(instances: &[Instance], budget: Duration) -> Vec<RunRecord> {
    run_suite_with_engines(instances, &EngineKind::ALL, budget)
}

/// Runs the given engines on every instance (the harness adds
/// [`EngineKind::Portfolio`] to the set with `--engine portfolio`).
pub fn run_suite_with_engines(
    instances: &[Instance],
    engines: &[EngineKind],
    budget: Duration,
) -> Vec<RunRecord> {
    run_suite_sharded(instances, engines, budget, 1)
}

/// Runs the given engines on every instance with the Manthan3 sampling
/// stage split across `sample_shards` shards (harness flag
/// `--sample-shards`).
pub fn run_suite_sharded(
    instances: &[Instance],
    engines: &[EngineKind],
    budget: Duration,
    sample_shards: usize,
) -> Vec<RunRecord> {
    run_suite_with_options(
        instances,
        engines,
        budget,
        RunOptions {
            sample_shards,
            ..RunOptions::default()
        },
    )
}

/// Runs the given engines on every instance under explicit [`RunOptions`]
/// (harness flags `--sample-shards` and `--repair-strategy`).
pub fn run_suite_with_options(
    instances: &[Instance],
    engines: &[EngineKind],
    budget: Duration,
    options: RunOptions,
) -> Vec<RunRecord> {
    let mut records = Vec::with_capacity(instances.len() * engines.len());
    for instance in instances {
        for &engine in engines {
            records.push(run_engine_with(engine, instance, budget, options));
        }
    }
    records
}

#[cfg(test)]
mod tests {
    use super::*;
    use manthan3_gen::planted::{planted_true, PlantedParams};

    #[test]
    fn all_engines_solve_a_small_planted_instance() {
        let params = PlantedParams {
            num_universals: 3,
            num_existentials: 2,
            max_dependencies: 2,
            ..PlantedParams::default()
        };
        let instance = planted_true(&params, 11);
        for engine in EngineKind::ALL {
            let record = run_engine(engine, &instance, Duration::from_secs(5));
            assert!(record.synthesized, "{engine} failed: {}", record.outcome);
            assert!(record.decided);
        }
    }

    #[test]
    fn run_suite_produces_one_record_per_engine_and_instance() {
        let params = PlantedParams {
            num_universals: 3,
            num_existentials: 2,
            max_dependencies: 2,
            ..PlantedParams::default()
        };
        let instances = vec![planted_true(&params, 1), planted_true(&params, 2)];
        let records = run_suite(&instances, Duration::from_secs(5));
        assert_eq!(records.len(), 6);
    }

    #[test]
    fn engine_names_are_stable() {
        assert_eq!(EngineKind::Manthan3.to_string(), "manthan3");
        assert_eq!(EngineKind::Hqs2Like.to_string(), "hqs2like");
        assert_eq!(EngineKind::PedantLike.to_string(), "pedantlike");
        assert_eq!(EngineKind::Portfolio.to_string(), "portfolio");
        assert_eq!(EngineKind::Compositional.to_string(), "compositional");
    }

    #[test]
    fn engine_names_round_trip_through_fromstr() {
        for engine in EngineKind::ALL
            .into_iter()
            .chain([EngineKind::Portfolio, EngineKind::Compositional])
        {
            assert_eq!(engine.to_string().parse::<EngineKind>(), Ok(engine));
        }
        assert!("hqs3like".parse::<EngineKind>().is_err());
    }

    #[test]
    fn sharded_runs_record_shard_metadata() {
        let params = PlantedParams {
            num_universals: 3,
            num_existentials: 2,
            max_dependencies: 2,
            ..PlantedParams::default()
        };
        let instance = planted_true(&params, 11);
        let record = run_engine_sharded(EngineKind::Manthan3, &instance, Duration::from_secs(5), 4);
        assert!(record.synthesized, "manthan3 failed: {}", record.outcome);
        assert_eq!(record.sample_shards, 4);
        assert!(
            record.oracle.sampler_calls > 0,
            "sampler calls must be routed through the shared budget"
        );
        // Baselines do not sample.
        let baseline =
            run_engine_sharded(EngineKind::Hqs2Like, &instance, Duration::from_secs(5), 4);
        assert_eq!(baseline.sample_shards, 0);
        assert_eq!(baseline.sample_wall, Duration::ZERO);
    }

    #[test]
    fn core_guided_runs_record_probe_counters() {
        let params = PlantedParams {
            num_universals: 3,
            num_existentials: 2,
            max_dependencies: 2,
            ..PlantedParams::default()
        };
        let instance = planted_true(&params, 11);
        let options = RunOptions {
            repair_strategy: RepairStrategy::CoreGuided,
            ..RunOptions::default()
        };
        let record = run_engine_with(
            EngineKind::Manthan3,
            &instance,
            Duration::from_secs(5),
            options,
        );
        assert!(record.synthesized, "manthan3 failed: {}", record.outcome);
        // Probe accounting rides along whenever the run exercised repair.
        if record.oracle.maxsat_calls > 0 {
            assert!(record.oracle.maxsat_probes > 0);
        }
    }

    #[test]
    fn manthan3_runs_bill_solver_counters() {
        let params = PlantedParams {
            num_universals: 3,
            num_existentials: 2,
            max_dependencies: 2,
            ..PlantedParams::default()
        };
        let instance = planted_true(&params, 11);
        let record = run_engine(EngineKind::Manthan3, &instance, Duration::from_secs(5));
        assert!(record.synthesized, "manthan3 failed: {}", record.outcome);
        assert!(
            record.oracle.sat_propagations > 0,
            "solver-layer propagation counters must be billed"
        );
    }

    #[test]
    fn compositional_engine_records_cluster_metadata() {
        let params = PlantedParams {
            num_universals: 3,
            num_existentials: 2,
            max_dependencies: 2,
            ..PlantedParams::default()
        };
        let instance = planted_true(&params, 11);
        let record = run_engine(EngineKind::Compositional, &instance, Duration::from_secs(5));
        assert!(
            record.synthesized,
            "compositional failed: {}",
            record.outcome
        );
        assert!(record.clusters >= 1, "cluster count must be recorded");
        assert!(record.cluster_wall_sum >= record.cluster_wall_max);
        // Non-compositional runs leave the cluster columns zeroed.
        let plain = run_engine(EngineKind::Manthan3, &instance, Duration::from_secs(5));
        assert_eq!(plain.clusters, 0);
        assert_eq!(plain.cluster_wall_sum, Duration::ZERO);
    }

    #[test]
    fn certified_runs_check_every_unsat_verdict() {
        let params = PlantedParams {
            num_universals: 3,
            num_existentials: 2,
            max_dependencies: 2,
            ..PlantedParams::default()
        };
        let instance = planted_true(&params, 11);
        let options = RunOptions {
            certify: true,
            ..RunOptions::default()
        };
        for engine in [EngineKind::Manthan3, EngineKind::Compositional] {
            let record = run_engine_with(engine, &instance, Duration::from_secs(5), options);
            assert!(record.synthesized, "{engine} failed: {}", record.outcome);
            assert!(
                record.oracle.certificates_checked > 0,
                "{engine}: a successful certifying run ends on a certified UNSAT verify"
            );
            assert_eq!(record.oracle.certificates_rejected, 0, "{engine}");
            assert!(record.oracle.proof_bytes > 0, "{engine}");
            assert!(record.certification_failure.is_none(), "{engine}");
        }
        // Uncertified runs leave the proof counters (and the failure slot)
        // untouched.
        let plain = run_engine(EngineKind::Manthan3, &instance, Duration::from_secs(5));
        assert_eq!(plain.oracle.certificates_checked, 0);
        assert!(plain.certification_failure.is_none());
    }

    #[test]
    fn portfolio_engine_produces_verified_records() {
        let params = PlantedParams {
            num_universals: 3,
            num_existentials: 2,
            max_dependencies: 2,
            ..PlantedParams::default()
        };
        let instance = planted_true(&params, 11);
        let record = run_engine(EngineKind::Portfolio, &instance, Duration::from_secs(5));
        assert!(record.synthesized, "portfolio failed: {}", record.outcome);
        assert!(record.decided);
    }
}
