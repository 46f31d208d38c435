//! A parallel portfolio of Henkin synthesis engines.
//!
//! The paper's headline evaluation result is the *Virtual Best Synthesizer*:
//! adding Manthan3 to the HQS2-like and Pedant-like baselines solves
//! strictly more instances than any engine alone, because the engines'
//! strengths are complementary (Figs. 6–7). The VBS is usually computed
//! post-hoc from per-engine runs; this crate turns it into an actual solver:
//! [`Portfolio::run`] races the engines, one scoped thread each, against **one
//! shared wall-clock budget** and returns the first decisive verdict.
//!
//! The race is cooperative. All engine budgets are clones of one armed
//! [`Budget`], so they observe the same absolute deadline and share one
//! [`CancelToken`](manthan3_sat::CancelToken). As soon as an engine produces
//! a decisive result — a Henkin vector that passes the independent
//! certificate check, or a proof of falsity — it tries to claim the race by
//! setting a [`OnceLock`] to its name. The one racer whose `set` succeeds
//! is the winner and cancels the token; a decisive racer that finds the
//! lock already set has lost. The CDCL search loops of the losing engines
//! poll the token once per decision and give up within milliseconds
//! instead of burning the remaining budget. Losers report
//! [`UnknownReason::Cancelled`]. Every report, the winner's included,
//! reaches the caller through the racer thread's `join`.
//!
//! Each racer's [`EngineReport`] carries the engine's own
//! [`SynthesisResult`]: its verdict and its
//! [`SynthesisStats`](manthan3_core::SynthesisStats), whose `total_time`
//! runs from race start to the racer's return. Every engine runs on the
//! shared oracle layer of `manthan3-core`, so the stats' [`OracleStats`]
//! are the same counters for all engines, comparable apples-to-apples; the
//! runner also returns their merged total.
//!
//! The portfolio races engines, not configurations: every
//! [`PortfolioEngine`] is one racer. A [`PortfolioConfig`] holds the run's
//! budget and Manthan3's settings; the two baselines have no settings.
//! [`PortfolioEngine::synthesize`] is the one place an engine is
//! constructed. The race runs its racers through it, and so does
//! `manthan3-bench`'s `run_engine`, which the benchmark harness, its
//! ablations and the `portfolio` example use for every engine run and every
//! race.
//!
//! # Examples
//!
//! ```
//! use manthan3_dqbf::{verify, Dqbf};
//! use manthan3_portfolio::{Portfolio, PortfolioConfig};
//!
//! let dqbf = Dqbf::paper_example();
//! let result = Portfolio::new(PortfolioConfig::default()).run(&dqbf);
//! let vector = result.vector().expect("true instance");
//! assert!(verify::check(&dqbf, vector).is_valid());
//! assert!(result.winner.is_some());
//! ```

#![warn(missing_docs)]

use manthan3_baselines::{ArbiterSolver, ExpansionSolver};
use manthan3_core::{
    Budget, Manthan3, Manthan3Config, OracleStats, SynthesisOutcome, SynthesisResult, UnknownReason,
};
use manthan3_dqbf::{verify, Dqbf, HenkinVector};
use std::fmt;
use std::sync::OnceLock;
use std::time::Duration;

/// The engines a [`Portfolio`] can race.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum PortfolioEngine {
    /// The paper's contribution (`manthan3-core`).
    Manthan3,
    /// The expansion-based baseline standing in for HQS2.
    Hqs2Like,
    /// The definition + arbiter baseline standing in for Pedant.
    PedantLike,
}

impl PortfolioEngine {
    /// Every engine, in the order they are dispatched.
    pub const ALL: [PortfolioEngine; 3] = [
        PortfolioEngine::Manthan3,
        PortfolioEngine::Hqs2Like,
        PortfolioEngine::PedantLike,
    ];

    /// Runs this engine on `dqbf` under `budget`; Manthan3 takes its
    /// settings from `config.manthan3`. `budget` is the run's one deadline
    /// and cancellation token: neither `config.time_budget` nor
    /// `config.manthan3.time_budget` is read.
    ///
    /// # Panics
    ///
    /// Panics if `dqbf` fails [`Dqbf::validate`].
    pub fn synthesize(
        self,
        config: &PortfolioConfig,
        dqbf: &Dqbf,
        budget: Budget,
    ) -> SynthesisResult {
        match self {
            PortfolioEngine::Manthan3 => {
                Manthan3::new(config.manthan3.clone()).synthesize_with_budget(dqbf, budget)
            }
            PortfolioEngine::Hqs2Like => ExpansionSolver.synthesize_with_budget(dqbf, budget),
            PortfolioEngine::PedantLike => ArbiterSolver.synthesize_with_budget(dqbf, budget),
        }
    }
}

impl fmt::Display for PortfolioEngine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            PortfolioEngine::Manthan3 => "manthan3",
            PortfolioEngine::Hqs2Like => "hqs2like",
            PortfolioEngine::PedantLike => "pedantlike",
        };
        f.pad(name)
    }
}

/// Configuration of a comparison run: a [`Portfolio`] race, or one engine
/// run through [`PortfolioEngine::synthesize`].
///
/// The shared `time_budget` here is authoritative. Only Manthan3 has
/// settings; [`Manthan3Config`]'s own `time_budget` is ignored, because
/// every engine runs through [`PortfolioEngine::synthesize`] on a clone of
/// the portfolio's armed [`Budget`]. The race runs every engine of
/// [`PortfolioEngine::ALL`], each on its own thread.
#[derive(Debug, Clone, Default)]
pub struct PortfolioConfig {
    /// Shared wall-clock budget of the whole race (`None` = unlimited). The
    /// clock is armed when [`Portfolio::run`] starts, not when this
    /// configuration is built.
    pub time_budget: Option<Duration>,
    /// Engine-specific settings for Manthan3 (its `time_budget` ignored).
    pub manthan3: Manthan3Config,
}

impl PortfolioConfig {
    /// A configuration with a shared wall-clock budget for the whole race.
    pub fn with_time_budget(budget: Duration) -> Self {
        PortfolioConfig {
            time_budget: Some(budget),
            ..PortfolioConfig::default()
        }
    }
}

/// What one engine did during the race.
#[derive(Debug, Clone)]
pub struct EngineReport {
    /// The engine this report describes.
    pub engine: PortfolioEngine,
    /// The engine's own result: its verdict (losers typically report
    /// [`UnknownReason::Cancelled`]) and its stats, whose `total_time` runs
    /// from race start to this engine's return.
    pub result: SynthesisResult,
    /// `true` if this engine won the race (first decisive verdict).
    pub winner: bool,
}

/// Outcome of a [`Portfolio::run`]: the winning verdict plus per-engine
/// reports.
#[derive(Debug, Clone)]
pub struct PortfolioResult {
    /// The race's verdict: the winner's outcome, or an aggregated
    /// [`SynthesisOutcome::Unknown`] when no engine decided the instance.
    pub outcome: SynthesisOutcome,
    /// The engine that produced the verdict, if any was decisive.
    pub winner: Option<PortfolioEngine>,
    /// Wall-clock time of the whole race (first decisive verdict plus the
    /// few milliseconds the losers need to acknowledge cancellation).
    pub wall_time: Duration,
    /// Per-engine reports, in dispatch order (the order of
    /// [`PortfolioEngine::ALL`]).
    pub reports: Vec<EngineReport>,
}

impl PortfolioResult {
    /// The synthesized vector, if the race produced one.
    pub fn vector(&self) -> Option<&HenkinVector> {
        match &self.outcome {
            SynthesisOutcome::Realizable(v) => Some(v),
            _ => None,
        }
    }

    /// `true` if the race produced a (certificate-checked) Henkin vector.
    pub fn is_realizable(&self) -> bool {
        self.outcome.is_realizable()
    }

    /// The report of `engine`, if it took part in the race.
    pub fn report(&self, engine: PortfolioEngine) -> Option<&EngineReport> {
        self.reports.iter().find(|r| r.engine == engine)
    }

    /// The element-wise sum of every engine's oracle counters: the total
    /// oracle work the race performed.
    pub fn merged_oracle_stats(&self) -> OracleStats {
        // Counters add; gauges add too, so the merged value is the total
        // live footprint of every racer's last-observed solver.
        let mut merged = OracleStats::default();
        for report in &self.reports {
            merged.absorb(&report.result.stats.oracle);
        }
        merged
    }
}

/// The parallel portfolio runner. See the [crate-level](self) documentation.
#[derive(Debug, Clone, Default)]
pub struct Portfolio {
    config: PortfolioConfig,
}

impl Portfolio {
    /// Creates a runner with the given configuration.
    pub fn new(config: PortfolioConfig) -> Self {
        Portfolio { config }
    }

    /// Races every engine on `dqbf` and returns the first decisive
    /// verdict (every claimed vector is re-checked with the independent
    /// certificate checker before it may win). Blocks until every engine has
    /// returned — with cooperative cancellation that is only milliseconds
    /// after the winner.
    ///
    /// # Panics
    ///
    /// Panics if `dqbf` fails [`Dqbf::validate`].
    pub fn run(&self, dqbf: &Dqbf) -> PortfolioResult {
        dqbf.validate().expect("well-formed DQBF");
        // One budget for the whole race, built now — not when the
        // configuration was built. Clones share the deadline and the token.
        let budget = Budget::new(self.config.time_budget);

        // Set once, by the first decisive racer: the race's winner.
        let claimed = OnceLock::new();
        // One scoped thread per engine; each returns its report through
        // `join`, so the reports come back in dispatch order.
        let reports: Vec<EngineReport> = std::thread::scope(|scope| {
            let workers: Vec<_> = PortfolioEngine::ALL
                .into_iter()
                .map(|engine| {
                    let (budget, claimed) = (&budget, &claimed);
                    scope.spawn(move || self.race(engine, dqbf, budget, claimed))
                })
                .collect();
            workers
                .into_iter()
                .map(|worker| {
                    worker
                        .join()
                        .unwrap_or_else(|p| std::panic::resume_unwind(p))
                })
                .collect()
        });
        let wall_time = budget.elapsed();

        let winner = reports.iter().find(|r| r.winner);
        PortfolioResult {
            outcome: match winner {
                Some(report) => report.result.outcome.clone(),
                None => SynthesisOutcome::Unknown(aggregate_unknown_reason(&reports)),
            },
            winner: winner.map(|r| r.engine),
            wall_time,
            reports,
        }
    }

    /// One racer: runs `engine` on a clone of the race budget and, if its
    /// verdict is decisive and first, claims the race and cancels the rest.
    fn race(
        &self,
        engine: PortfolioEngine,
        dqbf: &Dqbf,
        budget: &Budget,
        claimed: &OnceLock<PortfolioEngine>,
    ) -> EngineReport {
        let result = engine.synthesize(&self.config, dqbf, budget.clone());
        // Only certificate-checked vectors (or falsity proofs) may stop the
        // race.
        let decisive = match &result.outcome {
            SynthesisOutcome::Realizable(vector) => verify::check(dqbf, vector).is_valid(),
            SynthesisOutcome::Unrealizable => true,
            SynthesisOutcome::Unknown(_) => false,
        };
        // The first decisive engine to claim the race cancels the others;
        // claiming and cancelling are tied together so a near-simultaneous
        // second decisive finisher (already past its last poll point, its
        // verdict agreeing by soundness) is never attributed as the winner.
        let winner = claim(claimed, engine, decisive);
        if winner {
            budget.cancel_token().cancel();
        }
        EngineReport {
            engine,
            result,
            winner,
        }
    }
}

/// Claims the race for `engine` if its verdict is `decisive`: `true` for
/// exactly one decisive claim on `claimed` (the first), `false` for every
/// later one and for every indecisive claim, which leaves the lock alone.
fn claim(claimed: &OnceLock<PortfolioEngine>, engine: PortfolioEngine, decisive: bool) -> bool {
    decisive && claimed.set(engine).is_ok()
}

/// The reason to report when no engine was decisive: the most informative
/// non-cancellation reason any engine gave (the wall clock dominating, ties
/// going to the earliest in dispatch order), or `Cancelled` if — against
/// expectation — that is all there is.
fn aggregate_unknown_reason(reports: &[EngineReport]) -> UnknownReason {
    let mut reasons = reports.iter().filter_map(|r| match r.result.outcome {
        SynthesisOutcome::Unknown(reason) => Some(reason),
        _ => None,
    });
    let mut best: Option<UnknownReason> = None;
    for reason in reasons.by_ref() {
        best = Some(match (best, reason) {
            (_, UnknownReason::TimeBudget) | (None, _) => reason,
            (Some(UnknownReason::Cancelled), r) if r != UnknownReason::Cancelled => r,
            (Some(b), _) => b,
        });
    }
    best.unwrap_or(UnknownReason::OracleBudget)
}

#[cfg(test)]
mod tests {
    use super::*;
    use manthan3_cnf::Var;

    /// Races repeated on one instance, so that different interleavings of
    /// the racers' claims get exercised.
    const RACE_REPEATS: usize = 25;

    /// Exactly one report is the winner's, `result.winner` names it, and the
    /// race's verdict is that report's verdict.
    fn assert_single_winner(result: &PortfolioResult) {
        let winners: Vec<_> = result.reports.iter().filter(|r| r.winner).collect();
        assert_eq!(winners.len(), 1, "exactly one racer wins: {winners:?}");
        assert_eq!(result.winner, Some(winners[0].engine));
        assert_eq!(
            format!("{:?}", result.outcome),
            format!("{:?}", winners[0].result.outcome)
        );
    }

    #[test]
    fn only_the_first_decisive_claim_wins() {
        let claimed = OnceLock::new();
        assert!(!claim(&claimed, PortfolioEngine::Hqs2Like, false));
        assert_eq!(claimed.get(), None, "an indecisive claim set the lock");
        assert!(claim(&claimed, PortfolioEngine::Manthan3, true));
        assert!(!claim(&claimed, PortfolioEngine::PedantLike, true));
        assert!(!claim(&claimed, PortfolioEngine::Hqs2Like, false));
        assert_eq!(claimed.get(), Some(&PortfolioEngine::Manthan3));
    }

    #[test]
    fn solves_the_paper_example_and_reports_every_engine() {
        // Each of the three engines decides the paper example on its own, so
        // any of them can reach the claim first.
        let dqbf = Dqbf::paper_example();
        for _ in 0..RACE_REPEATS {
            let result = Portfolio::new(PortfolioConfig::default()).run(&dqbf);
            let vector = result.vector().expect("true instance");
            assert!(verify::check(&dqbf, vector).is_valid());
            assert_single_winner(&result);
            assert_eq!(result.reports.len(), 3);
            let engines: std::collections::BTreeSet<_> =
                result.reports.iter().map(|r| r.engine).collect();
            assert_eq!(engines.len(), 3);
        }
    }

    #[test]
    fn detects_false_instances() {
        // ∀x ∃^{x}y. (¬x) ∧ y is false.
        let (x, y) = (Var::new(0), Var::new(1));
        let mut dqbf = Dqbf::new();
        dqbf.add_universal(x);
        dqbf.add_existential(y, [x]);
        dqbf.add_clause([x.negative()]);
        dqbf.add_clause([y.positive()]);
        for _ in 0..RACE_REPEATS {
            let result = Portfolio::new(PortfolioConfig::default()).run(&dqbf);
            assert!(matches!(result.outcome, SynthesisOutcome::Unrealizable));
            assert_single_winner(&result);
        }
    }

    #[test]
    fn limitation_instance_is_won_by_a_baseline() {
        // Manthan3's repair gets stuck on the §5 xor example; the expansion
        // engine decides it — exactly the orthogonality the portfolio
        // exploits.
        let dqbf = Dqbf::xor_limitation_example();
        let result = Portfolio::new(PortfolioConfig::default()).run(&dqbf);
        let vector = result.vector().expect("true instance");
        assert!(verify::check(&dqbf, vector).is_valid());
        assert_ne!(result.winner, Some(PortfolioEngine::Manthan3));
    }

    #[test]
    fn losers_are_cancelled_and_the_session_invariant_survives() {
        let dqbf = Dqbf::paper_example();
        // Race only Manthan3 against the (on this instance much faster)
        // expansion engine repeatedly: whatever the interleaving, the
        // Manthan3 run must construct at most its two session solvers.
        for _ in 0..5 {
            let result = Portfolio::new(PortfolioConfig::default()).run(&dqbf);
            let manthan3 = result
                .report(PortfolioEngine::Manthan3)
                .expect("manthan3 raced");
            let oracle = &manthan3.result.stats.oracle;
            assert!(
                oracle.sat_solvers_constructed <= 2,
                "cancellation must not leak extra solvers (got {})",
                oracle.sat_solvers_constructed
            );
            // The repair session invariant holds under racing too: however
            // the cancellation interleaves, at most one MaxSAT solver, and
            // with it one hard encoding, is ever built.
            assert!(
                oracle.maxsat_solvers_constructed <= 1,
                "cancellation must not leak extra MaxSAT encodings (got {})",
                oracle.maxsat_solvers_constructed
            );
        }
    }

    #[test]
    fn reports_come_back_in_dispatch_order() {
        let dqbf = Dqbf::paper_example();
        let result = Portfolio::new(PortfolioConfig::default()).run(&dqbf);
        assert!(result.is_realizable());
        let order: Vec<_> = result.reports.iter().map(|r| r.engine).collect();
        assert_eq!(order, PortfolioEngine::ALL);
    }

    #[test]
    fn every_engine_stops_on_a_cancelled_budget() {
        let dqbf = Dqbf::paper_example();
        let config = PortfolioConfig::default();
        for engine in PortfolioEngine::ALL {
            let budget = Budget::unlimited();
            budget.cancel_token().cancel();
            let result = engine.synthesize(&config, &dqbf, budget);
            assert!(
                matches!(
                    result.outcome,
                    SynthesisOutcome::Unknown(UnknownReason::Cancelled)
                ),
                "{engine}: {:?}",
                result.outcome
            );
        }
    }

    #[test]
    fn merged_stats_sum_over_engines() {
        let dqbf = Dqbf::paper_example();
        let result = Portfolio::new(PortfolioConfig::default()).run(&dqbf);
        let merged = result.merged_oracle_stats();
        let sum: usize = result
            .reports
            .iter()
            .map(|r| r.result.stats.oracle.sat_calls)
            .sum();
        assert_eq!(merged.sat_calls, sum);
        assert!(merged.sat_solvers_constructed >= 1);
    }

    #[test]
    fn aggregates_unknown_reasons_without_a_winner() {
        // A race with zero wall clock: nobody can decide anything.
        let dqbf = Dqbf::paper_example();
        let config = PortfolioConfig {
            time_budget: Some(Duration::ZERO),
            ..PortfolioConfig::default()
        };
        let result = Portfolio::new(config).run(&dqbf);
        match result.outcome {
            SynthesisOutcome::Unknown(reason) => {
                assert_ne!(reason, UnknownReason::Cancelled);
            }
            // An engine may still decide before its first budget check.
            SynthesisOutcome::Realizable(_) | SynthesisOutcome::Unrealizable => {}
        }
    }
}
