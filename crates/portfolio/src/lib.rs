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
//! certificate check, or a proof of falsity — the runner cancels the token;
//! the CDCL search loops of the losing engines poll it once per decision
//! and give up within milliseconds instead of burning the remaining
//! budget. Losers report
//! [`UnknownReason::Cancelled`].
//!
//! Because every engine runs on the shared oracle layer of `manthan3-core`,
//! the runner also returns per-engine [`OracleStats`] — the same counters
//! for all engines, comparable apples-to-apples — plus their merged total.
//!
//! The portfolio races engines, not configurations: each entry of
//! [`PortfolioConfig::engines`] is one racer, run with its configured
//! settings.
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

use manthan3_baselines::{ArbiterConfig, ArbiterSolver, ExpansionConfig, ExpansionSolver};
use manthan3_core::{
    Budget, Manthan3, Manthan3Config, OracleStats, SynthesisOutcome, UnknownReason,
};
use manthan3_dqbf::{verify, Dqbf, HenkinVector};
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

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
}

impl fmt::Display for PortfolioEngine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            PortfolioEngine::Manthan3 => "manthan3",
            PortfolioEngine::Hqs2Like => "hqs2like",
            PortfolioEngine::PedantLike => "pedantlike",
        };
        write!(f, "{name}")
    }
}

/// Configuration of a [`Portfolio`] run.
///
/// The shared `time_budget` here is authoritative: the per-engine
/// configurations' own `time_budget` fields are ignored, because every
/// engine runs via its `synthesize_with_budget` entry point on a clone of
/// the portfolio's armed [`Budget`].
#[derive(Debug, Clone)]
pub struct PortfolioConfig {
    /// The engines to race, in dispatch order; each runs on its own thread.
    pub engines: Vec<PortfolioEngine>,
    /// Shared wall-clock budget of the whole race (`None` = unlimited). The
    /// clock is armed when [`Portfolio::run`] starts, not when this
    /// configuration is built.
    pub time_budget: Option<Duration>,
    /// Engine-specific settings for Manthan3 (budget fields ignored).
    pub manthan3: Manthan3Config,
    /// Engine-specific settings for the expansion baseline (budget fields
    /// ignored).
    pub expansion: ExpansionConfig,
    /// Engine-specific settings for the arbiter baseline (budget fields
    /// ignored).
    pub arbiter: ArbiterConfig,
}

impl Default for PortfolioConfig {
    fn default() -> Self {
        PortfolioConfig {
            engines: PortfolioEngine::ALL.to_vec(),
            time_budget: None,
            manthan3: Manthan3Config::default(),
            expansion: ExpansionConfig::default(),
            arbiter: ArbiterConfig::default(),
        }
    }
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
    /// The engine's own verdict (losers typically report
    /// [`UnknownReason::Cancelled`]).
    pub outcome: SynthesisOutcome,
    /// Wall-clock time from race start to this engine's return.
    pub runtime: Duration,
    /// The engine's oracle-layer counters — directly comparable across
    /// engines because they all run on the shared oracle layer.
    pub oracle: OracleStats,
    /// `true` if this engine won the race (first decisive verdict).
    pub winner: bool,
}

impl EngineReport {
    /// `true` if this engine decided the instance (synthesized a verified
    /// vector or proved falsity).
    pub fn decided(&self) -> bool {
        !matches!(self.outcome, SynthesisOutcome::Unknown(_))
    }

    /// `true` if this engine was cooperatively cancelled.
    pub fn cancelled(&self) -> bool {
        matches!(
            self.outcome,
            SynthesisOutcome::Unknown(UnknownReason::Cancelled)
        )
    }
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
    /// [`PortfolioConfig::engines`]).
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
            merged.absorb(&report.oracle);
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

    /// The runner's configuration.
    pub fn config(&self) -> &PortfolioConfig {
        &self.config
    }

    /// Races the configured engines on `dqbf` and returns the first decisive
    /// verdict (every claimed vector is re-checked with the independent
    /// certificate checker before it may win). Blocks until every engine has
    /// returned — with cooperative cancellation that is only milliseconds
    /// after the winner.
    ///
    /// # Panics
    ///
    /// Panics if `dqbf` fails [`Dqbf::validate`] or the engine list is
    /// empty.
    pub fn run(&self, dqbf: &Dqbf) -> PortfolioResult {
        dqbf.validate().expect("well-formed DQBF");
        assert!(
            !self.config.engines.is_empty(),
            "portfolio needs at least one engine"
        );
        // One budget for the whole race, built now — not when the
        // configuration was built. Clones share the deadline and the token.
        let budget = Budget::new(self.config.time_budget);
        let race_start = Instant::now();

        let race_claimed = AtomicBool::new(false);
        // One scoped thread per engine; each returns its report through
        // `join`, so the reports come back in dispatch order.
        let reports: Vec<EngineReport> = std::thread::scope(|scope| {
            let workers: Vec<_> = self
                .config
                .engines
                .iter()
                .map(|&engine| {
                    let (budget, race_claimed) = (&budget, &race_claimed);
                    scope.spawn(move || self.race(engine, dqbf, budget, race_claimed, race_start))
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
        let wall_time = race_start.elapsed();

        let winner = reports.iter().find(|r| r.winner);
        PortfolioResult {
            outcome: match winner {
                Some(report) => report.outcome.clone(),
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
        race_claimed: &AtomicBool,
        race_start: Instant,
    ) -> EngineReport {
        let (outcome, oracle) = self.dispatch(engine, dqbf, budget.clone());
        let runtime = race_start.elapsed();
        // Only certificate-checked vectors (or falsity proofs) may stop the
        // race.
        let decisive = match &outcome {
            SynthesisOutcome::Realizable(vector) => verify::check(dqbf, vector).is_valid(),
            SynthesisOutcome::Unrealizable => true,
            SynthesisOutcome::Unknown(_) => false,
        };
        // The first decisive engine to claim the race cancels the others;
        // claiming and cancelling are tied together so a near-simultaneous
        // second decisive finisher (already past its last poll point, its
        // verdict agreeing by soundness) is never attributed as the winner.
        // ordering: Relaxed suffices — swap atomicity alone picks the single
        // winner; the winner's report travels to the caller by `join` and
        // cancellation publishes via the token's own Release store.
        // Model-checked by manthan3-conc `decisive-win/relaxed-swap`.
        let winner = decisive && !race_claimed.swap(true, Ordering::Relaxed);
        if winner {
            budget.cancel_token().cancel();
        }
        EngineReport {
            engine,
            outcome,
            runtime,
            oracle,
            winner,
        }
    }

    /// Runs one engine under a clone of the race budget.
    fn dispatch(
        &self,
        engine: PortfolioEngine,
        dqbf: &Dqbf,
        budget: Budget,
    ) -> (SynthesisOutcome, OracleStats) {
        match engine {
            PortfolioEngine::Manthan3 => {
                let result = Manthan3::new(self.config.manthan3.clone())
                    .synthesize_with_budget(dqbf, budget);
                (result.outcome, result.stats.oracle)
            }
            PortfolioEngine::Hqs2Like => {
                let result = ExpansionSolver::new(self.config.expansion.clone())
                    .synthesize_with_budget(dqbf, budget);
                (result.outcome, result.oracle)
            }
            PortfolioEngine::PedantLike => {
                let result = ArbiterSolver::new(self.config.arbiter.clone())
                    .synthesize_with_budget(dqbf, budget);
                (result.outcome, result.oracle)
            }
        }
    }
}

/// The reason to report when no engine was decisive: the most informative
/// non-cancellation reason any engine gave (the wall clock dominating, ties
/// going to the earliest in dispatch order), or `Cancelled` if — against
/// expectation — that is all there is.
fn aggregate_unknown_reason(reports: &[EngineReport]) -> UnknownReason {
    let mut reasons = reports.iter().filter_map(|r| match r.outcome {
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

    #[test]
    fn solves_the_paper_example_and_reports_every_engine() {
        let dqbf = Dqbf::paper_example();
        let result = Portfolio::new(PortfolioConfig::default()).run(&dqbf);
        let vector = result.vector().expect("true instance");
        assert!(verify::check(&dqbf, vector).is_valid());
        assert!(result.winner.is_some());
        assert_eq!(result.reports.len(), 3);
        assert_eq!(result.reports.iter().filter(|r| r.winner).count(), 1);
        let engines: std::collections::BTreeSet<_> =
            result.reports.iter().map(|r| r.engine).collect();
        assert_eq!(engines.len(), 3);
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
        let result = Portfolio::new(PortfolioConfig::default()).run(&dqbf);
        assert!(matches!(result.outcome, SynthesisOutcome::Unrealizable));
        assert!(result.winner.is_some());
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
            assert!(
                manthan3.oracle.sat_solvers_constructed <= 2,
                "cancellation must not leak extra solvers (got {})",
                manthan3.oracle.sat_solvers_constructed
            );
            // The repair session invariant holds under racing too: however
            // the cancellation interleaves, at most one MaxSAT hard
            // encoding is ever built, and every MaxSAT call that did run
            // was served under assumptions on it.
            assert!(
                manthan3.oracle.maxsat_hard_encodings <= 1,
                "cancellation must not leak extra MaxSAT encodings (got {})",
                manthan3.oracle.maxsat_hard_encodings
            );
            assert_eq!(
                manthan3.oracle.maxsat_incremental_calls,
                manthan3.oracle.maxsat_calls
            );
        }
    }

    #[test]
    fn reports_come_back_in_dispatch_order() {
        let dqbf = Dqbf::paper_example();
        let engines = vec![PortfolioEngine::PedantLike, PortfolioEngine::Manthan3];
        let config = PortfolioConfig {
            engines: engines.clone(),
            ..PortfolioConfig::default()
        };
        let result = Portfolio::new(config).run(&dqbf);
        assert!(result.is_realizable());
        let order: Vec<_> = result.reports.iter().map(|r| r.engine).collect();
        assert_eq!(order, engines);
    }

    #[test]
    fn merged_stats_sum_over_engines() {
        let dqbf = Dqbf::paper_example();
        let result = Portfolio::new(PortfolioConfig::default()).run(&dqbf);
        let merged = result.merged_oracle_stats();
        let sum: usize = result.reports.iter().map(|r| r.oracle.sat_calls).sum();
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
