//! The main synthesis loop (Algorithm 1 of the paper), organised as a
//! straight chain of stages:
//!
//! ```text
//! Preprocess → Sample → Learn → Order → VerifyRepair
//! ```
//!
//! Each stage returns what the next one needs, and a stage that settles the
//! run early breaks the chain with its verdict. Only what lives for the
//! whole run (formula, configuration, [`Oracle`], statistics) is shared, in
//! one [`Run`]. `VerifyRepair` is the CEGIS loop [`verify_repair`] on the
//! persistent twin sessions: the error formula is encoded once and re-solved
//! under assumptions, repairs only *add* clauses, and each check simulates
//! the vector before it asks the error solver. The loop takes its
//! FindCandidates step as an argument, so the repair-equivalence suite
//! drives this same loop with the from-scratch reference step.

use crate::config::Manthan3Config;
use crate::learn::learn_candidate;
use crate::oracle::{Budget, Oracle, UnknownReason};
use crate::order::{DependencyState, Order};
use crate::repair::{repair_vector, YHats};
use crate::session::{RepairSession, Simulator, VerifyOutcome, VerifySession};
use crate::stats::SynthesisStats;
use manthan3_cnf::{Assignment, Var};
use manthan3_dqbf::{unique, Dqbf, HenkinVector};
use manthan3_sat::SolveResult;
use std::ops::ControlFlow;
use std::time::Instant;

/// Largest dependency-set size for which unique definitions are extracted
/// explicitly.
const MAX_UNIQUE_DEFINITION_DEPS: usize = 6;
/// Seed of the run's random choices: the sampler's and the simulator's
/// pattern stream. Every run of one formula takes the same choices.
const SEED: u64 = 0xDA7E_2023;

/// The verdict of a synthesis run.
#[derive(Debug, Clone)]
pub enum SynthesisOutcome {
    /// The formula is true; the returned vector is a Henkin function vector
    /// (each function expressed over its Henkin dependencies only).
    Realizable(HenkinVector),
    /// The formula is false: no Henkin function vector exists.
    Unrealizable,
    /// The engine gave up for the stated reason.
    Unknown(UnknownReason),
}

impl SynthesisOutcome {
    /// Returns `true` for [`SynthesisOutcome::Realizable`].
    pub fn is_realizable(&self) -> bool {
        matches!(self, SynthesisOutcome::Realizable(_))
    }
}

/// Outcome and statistics of one synthesis run.
#[derive(Debug, Clone)]
pub struct SynthesisResult {
    /// The verdict.
    pub outcome: SynthesisOutcome,
    /// Counters and timings, including the oracle-layer statistics.
    pub stats: SynthesisStats,
}

impl SynthesisResult {
    /// The synthesized vector, if the run produced one.
    pub fn vector(&self) -> Option<&HenkinVector> {
        match &self.outcome {
            SynthesisOutcome::Realizable(vector) => Some(vector),
            _ => None,
        }
    }

    /// Closes a run on `oracle`: `stats` takes the oracle's counters, its
    /// first rejected certificate and the time since its budget started.
    /// Every engine, the baselines included, ends its runs here.
    pub fn finish(
        outcome: SynthesisOutcome,
        mut stats: SynthesisStats,
        mut oracle: Oracle,
    ) -> Self {
        stats.oracle = *oracle.stats();
        stats.certification_failure = oracle.take_certification_failure();
        stats.total_time = oracle.budget().elapsed();
        SynthesisResult { outcome, stats }
    }
}

/// A stage's result: the artifact the next stage needs, or the verdict
/// that settles the run early. `?` links the stages.
type Stage<T> = ControlFlow<SynthesisOutcome, T>;

/// What lives for the whole of one synthesis run; the stages hand every
/// other artifact on by value.
pub(crate) struct Run<'a> {
    pub(crate) dqbf: &'a Dqbf,
    pub(crate) config: &'a Manthan3Config,
    /// Budgets and statistics for every oracle interaction of the run.
    pub(crate) oracle: Oracle,
    pub(crate) stats: SynthesisStats,
}

impl<'a> Run<'a> {
    pub(crate) fn new(dqbf: &'a Dqbf, config: &'a Manthan3Config, oracle: Oracle) -> Self {
        Run {
            dqbf,
            config,
            oracle,
            stats: SynthesisStats::default(),
        }
    }

    /// Maps an exhausted-oracle verdict to an outcome.
    fn give_up(&self) -> SynthesisOutcome {
        SynthesisOutcome::Unknown(self.oracle.give_up_reason())
    }

    /// Algorithm 1: the stages in order. `observe` is handed on to
    /// [`verify_repair`].
    fn synthesize(
        &mut self,
        observe: impl FnMut(&Run<'_>, &HenkinVector, &Assignment),
    ) -> Stage<SynthesisOutcome> {
        let mut vector = HenkinVector::new();
        let (mut session, defined) = self.preprocess(&mut vector)?;
        let samples = self.sample()?;
        let dependencies = self.learn(&samples, &defined, &mut vector);
        // Order: linearise the learned dependencies.
        let order = Order::from_dependencies(self.dqbf.existentials(), &dependencies);
        debug_assert_eq!(order.sequence().len(), self.dqbf.existentials().len());
        // The repair session opens on the first counterexample, so runs
        // that never reach repair pay nothing for it, and serves every
        // later FindCandidates query under assumptions.
        let dqbf = self.dqbf;
        let mut repair = None;
        let find_candidates = |delta: &Assignment, oracle: &mut Oracle| {
            repair
                .get_or_insert_with(|| RepairSession::new(dqbf, oracle))
                .find_candidates(delta, oracle)
        };
        ControlFlow::Continue(verify_repair(
            self,
            &mut session,
            vector,
            &order,
            find_candidates,
            observe,
        ))
    }

    /// Stage 1 — **Preprocess**: open the persistent verify session, rule
    /// out a trivially false matrix, and extract unique definitions into
    /// `vector`. Returns the session and the defined outputs.
    fn preprocess(&mut self, vector: &mut HenkinVector) -> Stage<(VerifySession, Vec<Var>)> {
        let mut session = VerifySession::new(self.dqbf, &mut self.oracle);
        match session.check_matrix(&mut self.oracle) {
            SolveResult::Unsat => return ControlFlow::Break(SynthesisOutcome::Unrealizable),
            SolveResult::Unknown => return ControlFlow::Break(self.give_up()),
            SolveResult::Sat => {}
        }
        let mut defined = Vec::new();
        if self.config.use_unique_definitions {
            // Outputs fixed here are skipped by the learning phase: their
            // definitions respect the Henkin dependencies by construction.
            defined = unique::extract_definitions(
                self.dqbf,
                vector,
                MAX_UNIQUE_DEFINITION_DEPS,
                self.oracle.budget().cancel_token(),
            );
            self.stats.unique_definitions = defined.len();
        }
        // Extraction runs its own SAT solvers outside the oracle, which watch
        // only the cancel token; re-check the wall clock before moving on.
        if let Some(reason) = self.oracle.exhausted() {
            return ControlFlow::Break(SynthesisOutcome::Unknown(reason));
        }
        ControlFlow::Continue((session, defined))
    }

    /// Stage 2 — **Sample**: draw training data from the matrix with one
    /// sampler that shares the run's budget and cancellation token.
    fn sample(&mut self) -> Stage<Vec<Assignment>> {
        let sampling_start = Instant::now();
        let samples = self
            .oracle
            .sample_cnf(self.dqbf.matrix(), SEED, self.config.num_samples);
        self.stats.samples = samples.len();
        self.stats.sampling_time = sampling_start.elapsed();
        if samples.is_empty() {
            // Preprocess proved this matrix satisfiable, so only the budget
            // can empty the batch.
            return ControlFlow::Break(self.give_up());
        }
        ControlFlow::Continue(samples)
    }

    /// Stage 3 — **Learn**: per output not in `defined`, learn a candidate
    /// decision tree over its allowed features into `vector`. Returns the
    /// inter-candidate dependencies the candidates introduce.
    fn learn(
        &mut self,
        samples: &[Assignment],
        defined: &[Var],
        vector: &mut HenkinVector,
    ) -> DependencyState {
        let learning_start = Instant::now();
        let existentials = self.dqbf.existentials();
        let mut dependencies = DependencyState::new(existentials);
        for &yi in existentials {
            for &yj in existentials {
                if yi == yj {
                    continue;
                }
                let hi = self.dqbf.dependencies(yi);
                let hj = self.dqbf.dependencies(yj);
                if hj.is_subset(hi) && hj != hi {
                    // H_j ⊂ H_i ⇒ y_i may depend on y_j (Algorithm 1, lines 3–5).
                    dependencies.record_subset_constraint(yi, yj);
                }
            }
        }
        for &y in existentials {
            if defined.contains(&y) {
                continue;
            }
            // The oracle-routed sampler always emits matrix-width
            // assignments, so a narrow sample here is an internal contract
            // violation — fail loudly instead of learning from silently
            // mislabelled rows.
            let learned =
                learn_candidate(self.dqbf, samples, y, &dependencies, vector, self.config)
                    .unwrap_or_else(|err| panic!("sampler→learn boundary violated: {err}"));
            debug_assert!(learned.tree_splits < samples.len());
            vector.set(y, learned.function);
            for supplier in learned.used_existentials {
                dependencies.record_dependency(y, supplier);
            }
            self.stats.candidates_learned += 1;
        }
        self.stats.learning_time = learning_start.elapsed();
        dependencies
    }
}

/// The Manthan3 synthesis engine.
///
/// See the [crate-level documentation](crate) for the algorithm and an
/// example.
#[derive(Debug, Clone, Default)]
pub struct Manthan3 {
    config: Manthan3Config,
}

impl Manthan3 {
    /// Creates an engine with the given configuration.
    pub fn new(config: Manthan3Config) -> Self {
        Manthan3 { config }
    }

    /// Synthesizes a Henkin function vector for `dqbf` (Algorithm 1), running
    /// the `Preprocess → Sample → Learn → Order → VerifyRepair` pipeline.
    ///
    /// # Panics
    ///
    /// Panics if `dqbf` fails [`Dqbf::validate`].
    pub fn synthesize(&self, dqbf: &Dqbf) -> SynthesisResult {
        self.synthesize_with_budget(dqbf, Budget::new(self.config.time_budget))
    }

    /// Like [`Manthan3::synthesize`], but under an externally supplied
    /// [`Budget`] — the configuration's own budget fields are ignored. This
    /// is how a portfolio runner races engines against one shared wall-clock
    /// deadline and one shared [`CancelToken`](manthan3_sat::CancelToken):
    /// it builds a single budget when the race starts and hands each engine
    /// a clone.
    ///
    /// # Panics
    ///
    /// Panics if `dqbf` fails [`Dqbf::validate`].
    pub fn synthesize_with_budget(&self, dqbf: &Dqbf, budget: Budget) -> SynthesisResult {
        self.run(dqbf, budget, |_, _, _| {})
    }

    /// The pipeline behind [`Manthan3::synthesize_with_budget`]. `observe`
    /// sees every counterexample δ, with the run and the vector at that
    /// moment, before repair acts on it.
    fn run(
        &self,
        dqbf: &Dqbf,
        budget: Budget,
        observe: impl FnMut(&Run<'_>, &HenkinVector, &Assignment),
    ) -> SynthesisResult {
        let oracle = Oracle::new(budget).with_certification(self.config.certify);
        // invariant: documented panic contract — callers must pass a
        // validated DQBF.
        dqbf.validate().expect("well-formed DQBF");
        let mut run = Run::new(dqbf, &self.config, oracle);
        let (ControlFlow::Continue(outcome) | ControlFlow::Break(outcome)) =
            run.synthesize(observe);
        SynthesisResult::finish(outcome, run.stats, run.oracle)
    }
}

/// Stage 5 — **VerifyRepair**: the CEGIS loop from `vector` until it
/// verifies, repair is stuck, the budget runs out or `max_repair_iterations`
/// checks have run. Each check simulates the vector first and takes a
/// failing pattern as the counterexample; only when none fails does it
/// refute the error formula on `session`, one matrix clause at a time, so
/// `Valid` always comes from the solver. `find_candidates` is the
/// FindCandidates step, the only query between a counterexample and repair;
/// its MaxSAT search refutes a δ[X] that no model of ϕ extends. No solver or
/// encoding is rebuilt inside the loop. `observe` sees each counterexample,
/// with the run and the vector, before repair.
pub(crate) fn verify_repair(
    run: &mut Run<'_>,
    session: &mut VerifySession,
    mut vector: HenkinVector,
    order: &Order,
    mut find_candidates: impl FnMut(&Assignment, &mut Oracle) -> Stage<Vec<Var>>,
    mut observe: impl FnMut(&Run<'_>, &HenkinVector, &Assignment),
) -> SynthesisOutcome {
    let mut simulator = Simulator::new(SEED, order.substitution_order());
    let y_hats = YHats::new(run.dqbf, order, run.config);
    for _ in 0..run.config.max_repair_iterations {
        if let Some(reason) = run.oracle.exhausted() {
            return SynthesisOutcome::Unknown(reason);
        }
        let verification_start = Instant::now();
        run.stats.verification_checks += 1;
        let verdict = match simulator.counterexample(run.dqbf, &vector, &mut run.oracle) {
            Some(delta) => VerifyOutcome::CounterExample(delta),
            None => {
                // Only count queries the oracle actually ran (a refused call
                // leaves the solver untouched).
                let performed_before = run.oracle.stats().sat_calls;
                let verdict = session.verify(run.dqbf, &vector, &mut run.oracle);
                run.stats.verify_sat_calls += run.oracle.stats().sat_calls - performed_before;
                verdict
            }
        };
        run.stats.verification_time += verification_start.elapsed();
        let delta = match verdict {
            VerifyOutcome::Valid => {
                // Success: expand inter-candidate references so every
                // function is over its Henkin dependencies only
                // (Algorithm 1, line 19).
                vector.substitute_down(&order.substitution_order());
                debug_assert_eq!(vector.dependency_violation(run.dqbf), None);
                return SynthesisOutcome::Realizable(vector);
            }
            VerifyOutcome::Unknown => return run.give_up(),
            VerifyOutcome::CounterExample(delta) => delta,
        };
        observe(run, &vector, &delta);

        let repair_start = Instant::now();
        run.stats.repair_iterations += 1;
        let stuck = find_candidates(&delta, &mut run.oracle).map_continue(|candidates| {
            repair_vector(run, session, &mut vector, &y_hats, &delta, candidates)
        });
        run.stats.repair_time += repair_start.elapsed();
        let stuck = match stuck {
            ControlFlow::Continue(stuck) => stuck,
            ControlFlow::Break(verdict) => return verdict,
        };
        if stuck {
            // Distinguish the paper's algorithmic incompleteness from a
            // repair pass that was merely starved of oracle budget.
            if let Some(reason) = run.oracle.exhausted() {
                return SynthesisOutcome::Unknown(reason);
            }
            return SynthesisOutcome::Unknown(UnknownReason::RepairStuck);
        }
    }
    SynthesisOutcome::Unknown(UnknownReason::IterationLimit)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::OracleStats;
    use manthan3_aig::AigRef;
    use manthan3_dqbf::verify::check;

    fn synthesize(dqbf: &Dqbf) -> SynthesisResult {
        Manthan3::new(Manthan3Config::default()).synthesize(dqbf)
    }

    #[test]
    fn solves_the_paper_example() {
        let dqbf = Dqbf::paper_example();
        let result = synthesize(&dqbf);
        match result.outcome {
            SynthesisOutcome::Realizable(vector) => {
                assert!(check(&dqbf, &vector).is_valid());
            }
            other => panic!("expected Realizable, got {other:?}"),
        }
        assert!(result.stats.samples > 0);
    }

    #[test]
    fn solves_simple_skolem_instance() {
        // ∀x1 x2 ∃y (Skolem): y ↔ (x1 ⊕ x2).
        let (x1, x2, y) = (Var::new(0), Var::new(1), Var::new(2));
        let mut dqbf = Dqbf::new();
        dqbf.add_universal(x1);
        dqbf.add_universal(x2);
        dqbf.add_existential(y, [x1, x2]);
        dqbf.add_clause([y.negative(), x1.positive(), x2.positive()]);
        dqbf.add_clause([y.negative(), x1.negative(), x2.negative()]);
        dqbf.add_clause([y.positive(), x1.positive(), x2.negative()]);
        dqbf.add_clause([y.positive(), x1.negative(), x2.positive()]);
        let result = synthesize(&dqbf);
        match result.outcome {
            SynthesisOutcome::Realizable(vector) => {
                assert!(check(&dqbf, &vector).is_valid());
                // The unique-definition preprocessing should have picked this
                // up without any repair iterations.
                assert_eq!(result.stats.unique_definitions, 1);
            }
            other => panic!("expected Realizable, got {other:?}"),
        }
    }

    #[test]
    fn extraction_can_be_disabled() {
        let config = Manthan3Config {
            use_unique_definitions: false,
            ..Manthan3Config::default()
        };
        let result = Manthan3::new(config).synthesize(&Dqbf::paper_example());
        assert!(result.outcome.is_realizable());
        assert_eq!(result.stats.unique_definitions, 0);
    }

    /// ∀x ∃^{x}y. (¬x) ∧ y is false: for x = 1 the matrix has no model
    /// at all.
    fn no_extension_for_x_true() -> Dqbf {
        let (x, y) = (Var::new(0), Var::new(1));
        let mut dqbf = Dqbf::new();
        dqbf.add_universal(x);
        dqbf.add_existential(y, [x]);
        dqbf.add_clause([x.negative()]);
        dqbf.add_clause([y.positive()]);
        dqbf
    }

    #[test]
    fn reports_false_instances_as_unrealizable() {
        // FindCandidates' MaxSAT search doubles as the X-extension check
        // (Algorithm 1, line 13) and refutes the counterexample with x = 1.
        let result = synthesize(&no_extension_for_x_true());
        assert!(matches!(result.outcome, SynthesisOutcome::Unrealizable));
    }

    /// The X-extension refutation is a MaxSAT hard-UNSAT verdict, so a
    /// certifying run checks its certificate like every other UNSAT claim.
    #[test]
    fn certifying_runs_certify_the_x_extension_refutation() {
        let config = Manthan3Config {
            certify: true,
            ..Manthan3Config::default()
        };
        let result = Manthan3::new(config).synthesize(&no_extension_for_x_true());
        assert!(matches!(result.outcome, SynthesisOutcome::Unrealizable));
        let oracle = &result.stats.oracle;
        assert_eq!(oracle.maxsat_calls, 1);
        assert!(oracle.certificates_checked >= 1);
        assert_eq!(oracle.certificates_rejected, 0);
        assert!(result.stats.certification_failure.is_none());
    }

    #[test]
    fn dependency_restricted_false_instance_is_not_misreported() {
        // ∀x1 x2 ∃^{x1}y. (y ↔ x2) is false, but every δ[X] extends to a
        // model of ϕ, so Manthan3 cannot prove falsity; per the paper it must
        // end in the incompleteness case (repair stuck), never claim a
        // Henkin vector.
        let (x1, x2, y) = (Var::new(0), Var::new(1), Var::new(2));
        let mut dqbf = Dqbf::new();
        dqbf.add_universal(x1);
        dqbf.add_universal(x2);
        dqbf.add_existential(y, [x1]);
        dqbf.add_clause([y.negative(), x2.positive()]);
        dqbf.add_clause([y.positive(), x2.negative()]);
        let result = synthesize(&dqbf);
        match result.outcome {
            SynthesisOutcome::Unknown(_) | SynthesisOutcome::Unrealizable => {}
            SynthesisOutcome::Realizable(_) => panic!("false instance cannot be realizable"),
        }
    }

    #[test]
    fn unsatisfiable_matrix_is_unrealizable() {
        let (x, y) = (Var::new(0), Var::new(1));
        let mut dqbf = Dqbf::new();
        dqbf.add_universal(x);
        dqbf.add_existential(y, [x]);
        dqbf.add_clause([y.positive()]);
        dqbf.add_clause([y.negative()]);
        let result = synthesize(&dqbf);
        assert!(matches!(result.outcome, SynthesisOutcome::Unrealizable));
    }

    #[test]
    fn time_budget_is_honoured() {
        let dqbf = Dqbf::paper_example();
        let config = Manthan3Config {
            time_budget: Some(std::time::Duration::ZERO),
            ..Manthan3Config::default()
        };
        let result = Manthan3::new(config).synthesize(&dqbf);
        // Either it was solved before the first deadline check (preprocessing
        // can already produce a full vector) or the budget fired.
        match result.outcome {
            SynthesisOutcome::Realizable(_)
            | SynthesisOutcome::Unknown(UnknownReason::TimeBudget) => {}
            other => panic!("unexpected outcome {other:?}"),
        }
    }

    /// A budget whose deadline the clock cannot represent is no deadline:
    /// building it must not overflow, and the run synthesizes.
    #[test]
    fn an_unrepresentable_time_budget_is_unlimited() {
        let dqbf = Dqbf::paper_example();
        let config = Manthan3Config {
            time_budget: Some(std::time::Duration::MAX),
            ..Manthan3Config::default()
        };
        let result = Manthan3::new(config).synthesize(&dqbf);
        assert!(
            matches!(result.outcome, SynthesisOutcome::Realizable(_)),
            "unexpected outcome {:?}",
            result.outcome
        );
        assert_eq!(result.stats.oracle.budget_exhaustions, 0);
    }

    #[test]
    fn final_functions_respect_dependencies() {
        let dqbf = Dqbf::paper_example();
        let result = synthesize(&dqbf);
        if let SynthesisOutcome::Realizable(vector) = result.outcome {
            assert_eq!(vector.dependency_violation(&dqbf), None);
        } else {
            panic!("expected Realizable");
        }
    }

    #[test]
    fn oracle_stats_reflect_session_reuse() {
        let dqbf = Dqbf::paper_example();
        let result = synthesize(&dqbf);
        assert!(result.outcome.is_realizable());
        let oracle = &result.stats.oracle;
        // Whatever the number of verify/repair iterations, the run builds
        // exactly one matrix solver and one error-formula solver.
        assert_eq!(oracle.sat_solvers_constructed, 2);
        assert_eq!(oracle.samplers_constructed, 1);
        assert!(oracle.sat_calls >= result.stats.verification_checks);
        // The MaxSAT side mirrors it: at most one MaxSAT solver (exactly
        // one once any repair iteration ran), holding the one hard encoding
        // that every FindCandidates call is served on.
        assert!(oracle.maxsat_solvers_constructed <= 1);
        if result.stats.repair_iterations > 0 {
            assert_eq!(oracle.maxsat_solvers_constructed, 1);
            assert_eq!(oracle.maxsat_calls, result.stats.repair_iterations);
        } else {
            // No counterexample: the repair session is never even opened.
            assert_eq!(oracle.maxsat_solvers_constructed, 0);
        }
    }

    /// A pre-cancelled budget: the engine reports
    /// [`UnknownReason::Cancelled`], never a half-searched repair verdict.
    #[test]
    fn pre_cancelled_budget_reports_cancellation() {
        let dqbf = Dqbf::paper_example();
        let budget = Budget::unlimited();
        budget.cancel_token().cancel();
        let cancelled =
            Manthan3::new(Manthan3Config::default()).synthesize_with_budget(&dqbf, budget);
        assert!(matches!(
            cancelled.outcome,
            SynthesisOutcome::Unknown(UnknownReason::Cancelled)
        ));
    }

    /// Certification is threaded Config → Oracle: a certifying run checks
    /// every UNSAT verdict of its pipeline in-process (a successful run has
    /// at least one — the closing error-formula refutation of the final
    /// verify), rejects none, and surfaces no retained failure.
    #[test]
    fn certifying_runs_check_their_unsat_verdicts() {
        let dqbf = Dqbf::paper_example();
        let config = Manthan3Config {
            certify: true,
            ..Manthan3Config::default()
        };
        let result = Manthan3::new(config).synthesize(&dqbf);
        match &result.outcome {
            SynthesisOutcome::Realizable(vector) => assert!(check(&dqbf, vector).is_valid()),
            other => panic!("expected Realizable, got {other:?}"),
        }
        let oracle = &result.stats.oracle;
        assert!(
            oracle.certificates_checked > 0,
            "a successful run ends on an UNSAT verify verdict; it must be certified"
        );
        assert_eq!(oracle.certificates_rejected, 0);
        assert!(oracle.proof_bytes > 0);
        assert!(result.stats.certification_failure.is_none());

        // The default leaves certification (and its counters) off.
        let plain = Manthan3::new(Manthan3Config::default()).synthesize(&dqbf);
        assert_eq!(plain.stats.oracle.certificates_checked, 0);
        assert_eq!(plain.stats.oracle.proof_bytes, 0);
    }

    #[test]
    fn certifying_runs_certify_unrealizable_verdicts() {
        // Unsatisfiable matrix: the preprocess stage's matrix check is the
        // UNSAT verdict, and it must carry an accepted certificate.
        let (x, y) = (Var::new(0), Var::new(1));
        let mut dqbf = Dqbf::new();
        dqbf.add_universal(x);
        dqbf.add_existential(y, [x]);
        dqbf.add_clause([y.positive()]);
        dqbf.add_clause([y.negative()]);
        let config = Manthan3Config {
            certify: true,
            ..Manthan3Config::default()
        };
        let result = Manthan3::new(config).synthesize(&dqbf);
        assert!(matches!(result.outcome, SynthesisOutcome::Unrealizable));
        assert!(result.stats.oracle.certificates_checked > 0);
        assert_eq!(result.stats.oracle.certificates_rejected, 0);
    }

    /// One counterexample of a run, as the engine handed it to repair.
    #[derive(Debug, Clone, PartialEq)]
    struct Recorded {
        delta: Assignment,
        /// Whether simulation (not the error solver) found it.
        simulated: bool,
        /// Whether δ[X] ∪ δ[Y'] falsifies the matrix.
        falsifies_matrix: bool,
        /// Whether δ[Y'] is the vector's output on δ[X].
        y_prime_is_vector_output: bool,
        /// Whether the run had opened its repair session before δ.
        repair_session_open: bool,
    }

    /// Runs the pipeline and records every counterexample. The vector's
    /// outputs on δ[X] are evaluated by a fixpoint over the outputs in
    /// variable order (enough passes for any acyclic reference chain), not
    /// through the simulator's order.
    fn run_recording(dqbf: &Dqbf, config: Manthan3Config) -> (SynthesisResult, Vec<Recorded>) {
        let mut recorded = Vec::new();
        let mut simulated_so_far = 0;
        let result = Manthan3::new(config).run(dqbf, Budget::unlimited(), |run, vector, delta| {
            let found = run.oracle.stats().sim_counterexamples;
            let simulated = found > simulated_so_far;
            simulated_so_far = found;

            let falsifies_matrix = !dqbf.eval_matrix(delta);

            let mut outputs = vec![false; dqbf.num_vars()];
            for &x in dqbf.universals() {
                outputs[x.index()] = delta.value(x);
            }
            for _ in dqbf.existentials() {
                for &y in dqbf.existentials() {
                    outputs[y.index()] = vector.eval_one(y, &outputs).expect("total vector");
                }
            }
            let y_prime_is_vector_output = dqbf
                .existentials()
                .iter()
                .all(|&y| outputs[y.index()] == delta.value(y));
            recorded.push(Recorded {
                delta: delta.clone(),
                simulated,
                falsifies_matrix,
                y_prime_is_vector_output,
                repair_session_open: run.oracle.stats().maxsat_solvers_constructed > 0,
            });
        });
        (result, recorded)
    }

    fn controller_8() -> Dqbf {
        use manthan3_gen::controller::{controller, ControllerParams};
        let params = ControllerParams {
            num_clients: 8,
            observation_window: 8,
        };
        controller(&params, 0).dqbf
    }

    /// Every check runs simulation first, and each one not answered by
    /// simulation refutes the error formula clause by clause: one to |ϕ|
    /// error-solver calls, and exactly |ϕ| for the closing `Valid` of a run
    /// that ended Realizable. The other SAT calls of a run are the matrix
    /// check and the repair queries `G_k`; each counterexample gets exactly
    /// one FindCandidates query, which is a MaxSAT call.
    fn assert_sat_calls_add_up(dqbf: &Dqbf, stats: &SynthesisStats) {
        let oracle = &stats.oracle;
        assert_eq!(
            oracle.sat_calls,
            1 + stats.verify_sat_calls + stats.repair_sat_calls
        );
        let unsimulated = stats.verification_checks - oracle.sim_counterexamples as usize;
        assert!(unsimulated - 1 + dqbf.num_clauses() <= stats.verify_sat_calls);
        assert!(stats.verify_sat_calls <= unsimulated * dqbf.num_clauses());
        assert_eq!(oracle.maxsat_calls, stats.repair_iterations);
        assert_eq!(
            oracle.sim_patterns,
            512 * stats.verification_checks as u64,
            "every check simulates 512 patterns"
        );
    }

    #[test]
    fn simulated_counterexamples_replay_on_the_matrix() {
        let dqbf = controller_8();
        let (result, recorded) = run_recording(&dqbf, Manthan3Config::default());
        match &result.outcome {
            SynthesisOutcome::Realizable(vector) => assert!(check(&dqbf, vector).is_valid()),
            other => panic!("expected Realizable, got {other:?}"),
        }
        let simulated = recorded.iter().filter(|r| r.simulated).count();
        assert!(simulated > 0, "no counterexample came from simulation");
        assert_eq!(simulated as u64, result.stats.oracle.sim_counterexamples);
        assert_eq!(recorded.len(), result.stats.repair_iterations);
        for (i, r) in recorded.iter().enumerate() {
            assert!(r.falsifies_matrix, "δ {i} satisfies the matrix: {r:?}");
            assert!(
                r.y_prime_is_vector_output,
                "δ {i}'s Y' is not the vector's output: {r:?}"
            );
            // The engine opens its one repair session lazily, for the
            // first counterexample's FindCandidates query.
            assert_eq!(r.repair_session_open, i > 0, "δ {i}: {r:?}");
        }
        assert_eq!(result.stats.oracle.maxsat_solvers_constructed, 1);
        assert_sat_calls_add_up(&dqbf, &result.stats);
    }

    /// `y ↔ x_1 ∧ … ∧ x_20` with the candidate `y := ⊥` in place of a
    /// learned one: it is wrong on one universal assignment in 2^20, too
    /// rare for 512 random patterns. The loop must get that counterexample
    /// from the error solver, and may end `Valid` only on a certified UNSAT
    /// verify. Only the last matrix clause can fail, so both checks query
    /// the error solver once per clause.
    #[test]
    fn a_counterexample_too_rare_to_simulate_comes_from_sat() {
        let xs: Vec<Var> = (0..20).map(Var::new).collect();
        let y = Var::new(20);
        let mut dqbf = Dqbf::new();
        for &x in &xs {
            dqbf.add_universal(x);
            dqbf.add_clause([y.negative(), x.positive()]);
        }
        dqbf.add_existential(y, xs.iter().copied());
        dqbf.add_clause(
            xs.iter()
                .map(|x| x.negative())
                .chain(std::iter::once(y.positive())),
        );
        let config = Manthan3Config {
            certify: true,
            ..Manthan3Config::default()
        };
        let oracle = Oracle::new(Budget::unlimited()).with_certification(true);
        let mut run = Run::new(&dqbf, &config, oracle);
        let mut vector = HenkinVector::new();
        // Preprocess opens the verify session; |H_y| = 20 is past the
        // unique-definition cap, so y stays undefined.
        let ControlFlow::Continue((mut session, defined)) = run.preprocess(&mut vector) else {
            panic!("the matrix is satisfiable");
        };
        assert!(defined.is_empty());
        vector.set(y, AigRef::FALSE);
        let mut repair = RepairSession::new(&dqbf, &mut run.oracle);

        let mut deltas = Vec::new();
        let outcome = verify_repair(
            &mut run,
            &mut session,
            vector,
            &unordered(&dqbf),
            |delta, oracle| repair.find_candidates(delta, oracle),
            |run, _, delta| {
                assert_eq!(run.oracle.stats().sim_counterexamples, 0);
                assert_eq!(run.stats.verify_sat_calls, dqbf.num_clauses());
                deltas.push(delta.clone());
            },
        );
        match &outcome {
            SynthesisOutcome::Realizable(vector) => assert!(check(&dqbf, vector).is_valid()),
            other => panic!("expected Realizable, got {other:?}"),
        }
        assert_eq!(deltas.len(), 1);
        assert!(xs.iter().all(|&x| deltas[0].value(x)));
        assert!(!deltas[0].value(y));
        // Two checks, both answered by the error solver: the
        // counterexample, then the closing UNSAT, which was certified.
        let stats = run.oracle.stats();
        assert_eq!(run.stats.verification_checks, 2);
        assert_eq!(stats.sim_patterns, 2 * 512);
        assert_eq!(stats.sim_counterexamples, 0);
        // The matrix check, |ϕ| error-solver calls per check and the repair
        // queries; the one counterexample got one FindCandidates query.
        assert_eq!(run.stats.verify_sat_calls, 2 * dqbf.num_clauses());
        assert_eq!(
            stats.sat_calls,
            1 + run.stats.verify_sat_calls + run.stats.repair_sat_calls
        );
        assert_eq!(stats.maxsat_calls, 1);
        assert!(stats.certificates_checked > 0);
        assert_eq!(stats.certificates_rejected, 0);
    }

    /// The order of a run that learned no inter-candidate dependency.
    fn unordered(dqbf: &Dqbf) -> Order {
        Order::from_dependencies(
            dqbf.existentials(),
            &DependencyState::new(dqbf.existentials()),
        )
    }

    /// A FindCandidates step that returns the real session's candidates and
    /// then cancels the budget starves the repair pass: it repairs nothing.
    /// The loop must attribute that to the cancellation, not to the paper's
    /// incompleteness case.
    #[test]
    fn a_repair_pass_starved_by_cancellation_ends_cancelled_not_stuck() {
        let dqbf = Dqbf::paper_example();
        let config = Manthan3Config::default();
        let budget = Budget::unlimited();
        let mut run = Run::new(&dqbf, &config, Oracle::new(budget.clone()));
        let mut session = VerifySession::new(&dqbf, &mut run.oracle);
        let mut repair = RepairSession::new(&dqbf, &mut run.oracle);
        let mut vector = HenkinVector::new();
        for &y in dqbf.existentials() {
            vector.set(y, AigRef::FALSE);
        }

        let mut steps = 0;
        let outcome = verify_repair(
            &mut run,
            &mut session,
            vector,
            &unordered(&dqbf),
            |delta, oracle| {
                steps += 1;
                let candidates = repair.find_candidates(delta, oracle);
                assert!(matches!(&candidates, ControlFlow::Continue(c) if !c.is_empty()));
                budget.cancel_token().cancel();
                candidates
            },
            |_, _, _| {},
        );
        assert!(
            matches!(outcome, SynthesisOutcome::Unknown(UnknownReason::Cancelled)),
            "unexpected outcome {outcome:?}"
        );
        assert_eq!(steps, 1);
        assert_eq!(run.stats.repair_iterations, 1);
        assert_eq!(run.stats.repairs_applied, 0);
    }

    #[test]
    fn runs_of_one_seed_take_the_same_counterexamples() {
        let dqbf = controller_8();
        let (first, first_deltas) = run_recording(&dqbf, Manthan3Config::default());
        let (second, second_deltas) = run_recording(&dqbf, Manthan3Config::default());
        assert!(first_deltas.iter().any(|r| r.simulated));
        assert_eq!(first_deltas, second_deltas);
        let counters = |stats: &SynthesisStats| {
            let oracle = OracleStats {
                certify_nanos: 0,
                ..stats.oracle
            };
            (
                oracle,
                stats.samples,
                stats.candidates_learned,
                stats.unique_definitions,
                stats.verification_checks,
                stats.repair_iterations,
                stats.repairs_applied,
                stats.verify_sat_calls,
                stats.repair_sat_calls,
            )
        };
        assert_eq!(counters(&first.stats), counters(&second.stats));
    }

    #[test]
    fn skolem_xor_chain_is_synthesized() {
        // ∀x1..x3 ∃y1 y2 (full dependencies): y1 ↔ x1⊕x2, y2 ↔ y1⊕x3 encoded
        // via CNF; tests the learning + repair loop on a slightly larger
        // instance with Y-to-Y structure.
        let x: Vec<Var> = (0..3).map(Var::new).collect();
        let y1 = Var::new(3);
        let y2 = Var::new(4);
        let mut dqbf = Dqbf::new();
        for &xi in &x {
            dqbf.add_universal(xi);
        }
        dqbf.add_existential(y1, x.iter().copied());
        dqbf.add_existential(y2, x.iter().copied());
        // y1 ↔ x1 ⊕ x2
        dqbf.add_clause([y1.negative(), x[0].positive(), x[1].positive()]);
        dqbf.add_clause([y1.negative(), x[0].negative(), x[1].negative()]);
        dqbf.add_clause([y1.positive(), x[0].positive(), x[1].negative()]);
        dqbf.add_clause([y1.positive(), x[0].negative(), x[1].positive()]);
        // y2 ↔ y1 ⊕ x3
        dqbf.add_clause([y2.negative(), y1.positive(), x[2].positive()]);
        dqbf.add_clause([y2.negative(), y1.negative(), x[2].negative()]);
        dqbf.add_clause([y2.positive(), y1.positive(), x[2].negative()]);
        dqbf.add_clause([y2.positive(), y1.negative(), x[2].positive()]);
        let result = synthesize(&dqbf);
        match result.outcome {
            SynthesisOutcome::Realizable(vector) => {
                assert!(check(&dqbf, &vector).is_valid());
            }
            other => panic!("expected Realizable, got {other:?}"),
        }
    }
}
