//! A parallel portfolio of Henkin synthesis engines.
//!
//! The paper's headline evaluation result is the *Virtual Best Synthesizer*:
//! adding Manthan3 to the HQS2-like and Pedant-like baselines solves
//! strictly more instances than any engine alone, because the engines'
//! strengths are complementary (Figs. 6–7). The VBS is usually computed
//! post-hoc from per-engine runs; this crate turns it into an actual solver:
//! [`Portfolio::run`] races the engines on `std::thread`s against **one
//! shared wall-clock budget** and returns the first decisive verdict.
//!
//! The race is cooperative. All engine budgets are clones of one armed
//! [`Budget`], so they observe the same absolute deadline and share one
//! [`CancelToken`](manthan3_sat::CancelToken). As soon as an engine produces
//! a decisive result — a Henkin vector that passes the independent
//! certificate check, or a proof of falsity — the runner cancels the token;
//! the CDCL search loops of the losing engines poll it alongside their
//! conflict budgets and give up within milliseconds instead of burning the
//! remaining budget. Losers report
//! [`UnknownReason::Cancelled`](manthan3_core::UnknownReason::Cancelled).
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

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use manthan3_baselines::{ArbiterConfig, ArbiterSolver, ExpansionConfig, ExpansionSolver};
use manthan3_core::{
    Budget, Manthan3, Manthan3Config, OracleStats, SynthesisOutcome, UnknownReason,
};
use manthan3_dqbf::{verify, Dqbf, HenkinVector};
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
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
/// The shared budget fields here are authoritative: the per-engine
/// configurations' own `time_budget` / `sat_conflict_budget` fields are
/// ignored, because every engine runs via its `synthesize_with_budget` entry
/// point on a clone of the portfolio's armed [`Budget`].
#[derive(Debug, Clone)]
pub struct PortfolioConfig {
    /// The engines to race, in dispatch order.
    pub engines: Vec<PortfolioEngine>,
    /// Maximum number of engines running concurrently (clamped to
    /// `1..=engines.len()`). With one thread the engines run sequentially in
    /// dispatch order — later engines still profit from cancellation once an
    /// earlier one has decided the instance.
    pub threads: usize,
    /// Shared wall-clock budget of the whole race (`None` = unlimited). The
    /// clock is armed when [`Portfolio::run`] starts, not when this
    /// configuration is built.
    pub time_budget: Option<Duration>,
    /// Per-call conflict budget inherited by every engine's oracle.
    pub sat_conflict_budget: Option<u64>,
    /// Total oracle-call budget *per engine* (each engine owns its oracle
    /// and counts its own calls).
    pub sat_call_budget: Option<u64>,
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
            threads: PortfolioEngine::ALL.len(),
            time_budget: None,
            sat_conflict_budget: None,
            sat_call_budget: None,
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
    /// Per-engine reports, in completion order.
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

/// What one worker observed for one engine, before winner resolution.
struct RawReport {
    engine: PortfolioEngine,
    outcome: SynthesisOutcome,
    runtime: Duration,
    oracle: OracleStats,
    /// `true` if this engine's decisive verdict claimed the race (it is the
    /// one whose cancel the other engines observed). A second engine may
    /// still finish decisively if it was already past its last poll point;
    /// its verdict agrees by soundness but it did not win.
    claimed_win: bool,
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
        let engines = &self.config.engines;
        let threads = self.config.threads.clamp(1, engines.len());

        // One budget for the whole race, armed now — not when the
        // configuration was built. Clones share the deadline and the token.
        let mut budget = Budget::new(
            self.config.time_budget,
            self.config.sat_conflict_budget,
            self.config.sat_call_budget,
        );
        budget.start();
        let race_start = Instant::now();

        let next_engine = AtomicUsize::new(0);
        let race_claimed = AtomicBool::new(false);
        let finished: Mutex<Vec<RawReport>> = Mutex::new(Vec::new());
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| loop {
                    // ordering: Relaxed suffices — only RMW atomicity makes
                    // engine indices unique; `engines` was written before the
                    // scope spawned the workers, so its visibility comes from
                    // thread creation, not this counter. Model-checked by
                    // manthan3-conc `ticket/relaxed-fetch-add`.
                    let index = next_engine.fetch_add(1, Ordering::Relaxed);
                    let Some(&engine) = engines.get(index) else {
                        break;
                    };
                    let (outcome, oracle) = self.dispatch(engine, dqbf, budget.clone());
                    let runtime = race_start.elapsed();
                    // Only certificate-checked vectors (or falsity proofs)
                    // may stop the race.
                    let decisive = match &outcome {
                        SynthesisOutcome::Realizable(vector) => {
                            verify::check(dqbf, vector).is_valid()
                        }
                        SynthesisOutcome::Unrealizable => true,
                        SynthesisOutcome::Unknown(_) => false,
                    };
                    // The first decisive engine to claim the race cancels the
                    // others; claiming and cancelling are tied together so a
                    // near-simultaneous second decisive finisher cannot be
                    // misattributed as the winner by report push order.
                    // ordering: Relaxed suffices — swap atomicity alone picks
                    // the single winner; the winner's report travels through
                    // the `finished` mutex and cancellation publishes via the
                    // token's own Release store. Model-checked by
                    // manthan3-conc `decisive-win/relaxed-swap`.
                    let claimed_win = decisive && !race_claimed.swap(true, Ordering::Relaxed);
                    if claimed_win {
                        budget.cancel_token().cancel();
                    }
                    finished
                        .lock()
                        .expect("no worker panicked holding the report lock")
                        .push(RawReport {
                            engine,
                            outcome,
                            runtime,
                            oracle,
                            claimed_win,
                        });
                });
            }
        });
        let wall_time = race_start.elapsed();

        let raw = finished
            .into_inner()
            .expect("no worker panicked holding the report lock");
        let winner_index = raw.iter().position(|r| r.claimed_win);
        let outcome = match winner_index {
            Some(i) => raw[i].outcome.clone(),
            None => SynthesisOutcome::Unknown(aggregate_unknown_reason(&raw)),
        };
        let winner = winner_index.map(|i| raw[i].engine);
        let reports = raw
            .into_iter()
            .map(|r| EngineReport {
                engine: r.engine,
                outcome: r.outcome,
                runtime: r.runtime,
                oracle: r.oracle,
                winner: r.claimed_win,
            })
            .collect();
        PortfolioResult {
            outcome,
            winner,
            wall_time,
            reports,
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
/// non-cancellation reason any engine gave (the wall clock dominating), or
/// `Cancelled` if — against expectation — that is all there is.
fn aggregate_unknown_reason(reports: &[RawReport]) -> UnknownReason {
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
    fn single_thread_runs_engines_sequentially_with_cancellation() {
        let dqbf = Dqbf::paper_example();
        let config = PortfolioConfig {
            threads: 1,
            ..PortfolioConfig::default()
        };
        let result = Portfolio::new(config).run(&dqbf);
        assert!(result.is_realizable());
        // With one worker, completion order is dispatch order.
        let order: Vec<_> = result.reports.iter().map(|r| r.engine).collect();
        assert_eq!(order, PortfolioEngine::ALL.to_vec());
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
