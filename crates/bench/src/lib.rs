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

use manthan3_core::{Budget, SynthesisOutcome, SynthesisResult, SynthesisStats};
use manthan3_dqbf::verify;
use manthan3_gen::Instance;
use manthan3_portfolio::{Portfolio, PortfolioConfig, PortfolioEngine, PortfolioResult};
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

    /// The engine a sequential kind runs, `None` for the portfolio.
    pub fn sequential(self) -> Option<PortfolioEngine> {
        match self {
            EngineKind::Manthan3 => Some(PortfolioEngine::Manthan3),
            EngineKind::Hqs2Like => Some(PortfolioEngine::Hqs2Like),
            EngineKind::PedantLike => Some(PortfolioEngine::PedantLike),
            EngineKind::Portfolio => None,
        }
    }
}

impl fmt::Display for EngineKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.sequential() {
            Some(engine) => engine.fmt(f),
            None => f.pad("portfolio"),
        }
    }
}

impl FromStr for EngineKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let kinds = EngineKind::ALL.into_iter().chain([EngineKind::Portfolio]);
        kinds
            .clone()
            .find(|kind| kind.to_string() == s)
            .ok_or_else(|| {
                let names: Vec<String> = kinds.map(|kind| kind.to_string()).collect();
                format!(
                    "unknown engine {s:?} (expected one of {})",
                    names.join(", ")
                )
            })
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
    /// The run's stats. A sequential run keeps its engine's own; a
    /// portfolio run keeps the racers' merged oracle counters, the race's
    /// wall time and the first rejected certificate of any racer.
    /// `runs.csv` reports every oracle counter, the repair
    /// iterations and the sampling time, and `summary_table.csv` sums them
    /// across the suite. A certifying run's
    /// [`certification_failure`](SynthesisStats::certification_failure) is
    /// what the harness dumps for offline reproduction.
    pub stats: SynthesisStats,
}

impl RunRecord {
    /// The record of `engine`'s run on `instance` that returned `result`
    /// after `time`; a claimed vector counts as synthesized only if it
    /// passes the independent certificate check.
    pub fn new(
        engine: EngineKind,
        instance: &Instance,
        result: SynthesisResult,
        time: Duration,
    ) -> Self {
        let (synthesized, decided, label) = match &result.outcome {
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
            stats: result.stats,
        }
    }

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
    let mut config = PortfolioConfig::with_time_budget(budget);
    config.manthan3.certify = certify;
    let result = match engine.sequential() {
        Some(racer) => racer.synthesize(&config, &instance.dqbf, Budget::new(config.time_budget)),
        None => race_result(Portfolio::new(config).run(&instance.dqbf)),
    };
    RunRecord::new(engine, instance, result, start.elapsed())
}

/// A portfolio race as one run: the race's verdict, with stats that hold
/// the racers' merged oracle counters, the race's wall time and the first
/// rejected certificate of any racer (only the Manthan3 racer certifies).
/// Per-engine stage counters and timings stay zero.
fn race_result(race: PortfolioResult) -> SynthesisResult {
    let stats = SynthesisStats {
        oracle: race.merged_oracle_stats(),
        total_time: race.wall_time,
        certification_failure: race
            .reports
            .into_iter()
            .find_map(|report| report.result.stats.certification_failure),
        ..SynthesisStats::default()
    };
    SynthesisResult {
        outcome: race.outcome,
        stats,
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
    use manthan3_core::{CertificationFailure, OracleStats, UnknownReason};
    use manthan3_gen::planted::{planted_true, PlantedParams};
    use manthan3_portfolio::EngineReport;

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
            record.stats.oracle.sat_propagations > 0,
            "solver-layer propagation counters must be billed"
        );
        // Probe accounting rides along whenever the run exercised repair.
        if record.stats.oracle.maxsat_calls > 0 {
            assert!(record.stats.oracle.maxsat_probes > 0);
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
            record.stats.oracle.certificates_checked > 0,
            "a successful certifying run ends on a certified UNSAT verify"
        );
        assert_eq!(record.stats.oracle.certificates_rejected, 0);
        assert!(record.stats.oracle.proof_bytes > 0);
        assert!(record.stats.certification_failure.is_none());
        // Uncertified runs leave the proof counters (and the failure slot)
        // untouched.
        let plain = run_engine(EngineKind::Manthan3, &instance, BUDGET, false);
        assert_eq!(plain.stats.oracle.certificates_checked, 0);
        assert!(plain.stats.certification_failure.is_none());
    }

    #[test]
    fn portfolio_records_keep_a_racers_rejected_certificate() {
        let params = PlantedParams {
            num_universals: 3,
            num_existentials: 2,
            max_dependencies: 2,
            ..PlantedParams::default()
        };
        let instance = planted_true(&params, 11);
        let failure = CertificationFailure {
            reason: "synthetic rejection".to_string(),
            cnf: "p cnf 1 1\n1 0\n".to_string(),
            drat: "0\n".to_string(),
        };
        let cancelled = SynthesisOutcome::Unknown(UnknownReason::Cancelled);
        let report = |engine, stats| EngineReport {
            engine,
            result: SynthesisResult {
                outcome: cancelled.clone(),
                stats,
            },
            winner: false,
        };
        let rejecting = SynthesisStats {
            oracle: OracleStats {
                certificates_checked: 2,
                certificates_rejected: 1,
                ..OracleStats::default()
            },
            certification_failure: Some(Box::new(failure.clone())),
            ..SynthesisStats::default()
        };
        let race = PortfolioResult {
            outcome: SynthesisOutcome::Unknown(UnknownReason::TimeBudget),
            winner: None,
            wall_time: Duration::from_millis(3),
            reports: vec![
                report(PortfolioEngine::Manthan3, rejecting),
                report(PortfolioEngine::Hqs2Like, SynthesisStats::default()),
                report(PortfolioEngine::PedantLike, SynthesisStats::default()),
            ],
        };
        let record = RunRecord::new(
            EngineKind::Portfolio,
            &instance,
            race_result(race),
            Duration::from_millis(4),
        );
        assert_eq!(
            record.stats.certification_failure.as_deref(),
            Some(&failure)
        );
        assert_eq!(record.stats.oracle.certificates_rejected, 1);
        assert_eq!(record.stats.total_time, Duration::from_millis(3));
        assert_eq!(record.outcome, "unknown:TimeBudget");
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
