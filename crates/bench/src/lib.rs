//! Benchmark harness for regenerating the paper's evaluation.
//!
//! This crate provides the plumbing of the `harness` binary (which writes
//! the CSV data behind every figure and table of the paper) and of the
//! suite-level acceptance tests in `tests/acceptance.rs`:
//!
//! * [`EngineKind`] / [`run_engine`] / [`run_suite`] — run the three Henkin
//!   synthesizers (Manthan3 and the two baselines standing in for HQS2 and
//!   Pedant) on generated instances under a per-instance budget, verifying
//!   every produced vector with the independent certificate checker,
//! * [`report`] — Virtual Best Synthesizer (VBS) bookkeeping, cactus and
//!   scatter series, and the summary table with the counts reported in the
//!   paper's text (solved per tool, VBS improvement, uniquely solved, …),
//! * [`csvio`] — tiny CSV writing helpers (no external dependency).

#![warn(missing_docs)]

pub mod csvio;
pub mod report;

use manthan3_baselines::{ArbiterConfig, ArbiterSolver, ExpansionConfig, ExpansionSolver};
use manthan3_core::{
    CertificationFailure, Manthan3, Manthan3Config, OracleStats, SynthesisOutcome,
};
use manthan3_dqbf::verify;
use manthan3_gen::Instance;
use manthan3_portfolio::{Portfolio, PortfolioConfig};
use std::fmt;
use std::str::FromStr;
use std::time::{Duration, Instant};

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
            other => Err(format!(
                "unknown engine {other:?} (expected manthan3, hqs2like, pedantlike or portfolio)"
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
    /// sum over the racing engines). Each is a column of `runs.csv`, and
    /// `summary_table.csv` sums them across the suite.
    pub oracle: OracleStats,
    /// Number of repair iterations (counterexample rounds) the run took.
    /// Only the Manthan3 engine reports this; baselines and the portfolio
    /// record zero.
    pub repair_iterations: usize,
    /// Wall-clock time the run's sampling stage took. Only the Manthan3
    /// engine reports this; baselines do not sample and the portfolio does
    /// not surface per-engine stage timings.
    pub sample_wall: Duration,
    /// The first rejected DRAT certificate of a certifying run
    /// (`certify` of [`run_engine`]), with the offending CNF and proof — the
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
///
/// With `certify` (`--certify`), UNSAT verdicts are certified in-process:
/// every solver the Manthan3 oracle constructs logs DRAT proofs, and every
/// UNSAT answer is checked immediately by the independent `manthan3-drat`
/// checker. The flag reaches the Manthan3 engine and the portfolio's
/// Manthan3 racer; the baselines keep their defaults. The certification
/// rows of the `OracleStats` table report the proof traffic and checking
/// cost in `runs.csv` and `summary_table.csv`.
pub fn run_engine(
    engine: EngineKind,
    instance: &Instance,
    budget: Duration,
    certify: bool,
) -> RunRecord {
    let start = Instant::now();
    // Filled in by a certifying Manthan3 run on a rejection.
    let mut certification_failure = None;
    let (outcome, oracle, repair_iterations, sample_wall) = match engine {
        EngineKind::Manthan3 => {
            let config = Manthan3Config {
                time_budget: Some(budget),
                certify,
                ..Manthan3Config::default()
            };
            let result = Manthan3::new(config).synthesize(&instance.dqbf);
            certification_failure = result.stats.certification_failure;
            (
                result.outcome,
                result.stats.oracle,
                result.stats.repair_iterations,
                result.stats.sampling_time,
            )
        }
        EngineKind::Hqs2Like => {
            let config = ExpansionConfig {
                time_budget: Some(budget),
                ..ExpansionConfig::default()
            };
            let result = ExpansionSolver::new(config).synthesize(&instance.dqbf);
            (result.outcome, result.oracle, 0, Duration::ZERO)
        }
        EngineKind::PedantLike => {
            let config = ArbiterConfig {
                time_budget: Some(budget),
                ..ArbiterConfig::default()
            };
            let result = ArbiterSolver::new(config).synthesize(&instance.dqbf);
            (result.outcome, result.oracle, 0, Duration::ZERO)
        }
        EngineKind::Portfolio => {
            let mut config = PortfolioConfig::with_time_budget(budget);
            config.manthan3.certify = certify;
            let result = Portfolio::new(config).run(&instance.dqbf);
            let oracle = result.merged_oracle_stats();
            (result.outcome, oracle, 0, Duration::ZERO)
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
        certification_failure,
    }
}

/// Runs the given engines on every instance, optionally certifying (see
/// [`run_engine`]). [`EngineKind::ALL`] is the sequential engine set; the
/// harness adds [`EngineKind::Portfolio`] with `--engine portfolio` and
/// certifies with `--certify`.
pub fn run_suite(
    instances: &[Instance],
    engines: &[EngineKind],
    budget: Duration,
    certify: bool,
) -> Vec<RunRecord> {
    let mut records = Vec::with_capacity(instances.len() * engines.len());
    for instance in instances {
        for &engine in engines {
            records.push(run_engine(engine, instance, budget, certify));
        }
    }
    records
}

#[cfg(test)]
mod tests {
    use super::*;
    use manthan3_gen::planted::{planted_true, PlantedParams};

    const BUDGET: Duration = Duration::from_secs(5);

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
            let record = run_engine(engine, &instance, BUDGET, false);
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
        let records = run_suite(&instances, &EngineKind::ALL, BUDGET, false);
        assert_eq!(records.len(), 6);
    }

    #[test]
    fn engine_names_are_stable() {
        assert_eq!(EngineKind::Manthan3.to_string(), "manthan3");
        assert_eq!(EngineKind::Hqs2Like.to_string(), "hqs2like");
        assert_eq!(EngineKind::PedantLike.to_string(), "pedantlike");
        assert_eq!(EngineKind::Portfolio.to_string(), "portfolio");
    }

    #[test]
    fn engine_names_round_trip_through_fromstr() {
        for engine in EngineKind::ALL.into_iter().chain([EngineKind::Portfolio]) {
            assert_eq!(engine.to_string().parse::<EngineKind>(), Ok(engine));
        }
        assert!("hqs3like".parse::<EngineKind>().is_err());
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
        let record = run_engine(EngineKind::Manthan3, &instance, BUDGET, false);
        assert!(record.synthesized, "manthan3 failed: {}", record.outcome);
        assert!(
            record.oracle.sat_propagations > 0,
            "solver-layer propagation counters must be billed"
        );
        // Probe accounting rides along whenever the run exercised repair.
        if record.oracle.maxsat_calls > 0 {
            assert!(record.oracle.maxsat_probes > 0);
        }
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
        let record = run_engine(EngineKind::Manthan3, &instance, BUDGET, true);
        assert!(record.synthesized, "manthan3 failed: {}", record.outcome);
        assert!(
            record.oracle.certificates_checked > 0,
            "a successful certifying run ends on a certified UNSAT verify"
        );
        assert_eq!(record.oracle.certificates_rejected, 0);
        assert!(record.oracle.proof_bytes > 0);
        assert!(record.certification_failure.is_none());
        // Uncertified runs leave the proof counters (and the failure slot)
        // untouched.
        let plain = run_engine(EngineKind::Manthan3, &instance, BUDGET, false);
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
        let record = run_engine(EngineKind::Portfolio, &instance, BUDGET, false);
        assert!(record.synthesized, "portfolio failed: {}", record.outcome);
        assert!(record.decided);
    }
}
