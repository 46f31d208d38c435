//! The main synthesis loop (Algorithm 1 of the paper), organised as an
//! explicit pipeline of stages sharing one [`SynthesisCtx`]:
//!
//! ```text
//! Preprocess → Sample → Learn → Order → VerifyRepair
//! ```
//!
//! Every stage draws its SAT/MaxSAT/sampling power from the context's
//! [`Oracle`], and the `VerifyRepair` stage runs on a persistent
//! [`VerifySession`] — the error formula is encoded once and re-solved
//! under assumptions, with repairs only *adding* clauses. Each verify check
//! simulates the vector first and solves the error formula only when
//! simulation finds no counterexample.

use crate::config::Manthan3Config;
use crate::learn::learn_candidate;
use crate::oracle::{Budget, Oracle, UnknownReason};
use crate::order::{DependencyState, Order};
use crate::repair::repair_vector;
use crate::session::{Delta, RepairSession, Simulator, VerifyOutcome, VerifySession};
use crate::stats::SynthesisStats;
use manthan3_cnf::{Assignment, Var};
use manthan3_dqbf::{unique, Dqbf, HenkinVector};
use manthan3_sat::SolveResult;
use std::time::Instant;

/// Largest dependency-set size for which unique definitions are extracted
/// explicitly.
const MAX_UNIQUE_DEFINITION_DEPS: usize = 6;

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

/// Shared state of one synthesis run, threaded through the pipeline stages.
struct SynthesisCtx<'a> {
    dqbf: &'a Dqbf,
    config: &'a Manthan3Config,
    /// Budgets and statistics for every oracle interaction of the run.
    oracle: Oracle,
    stats: SynthesisStats,
    /// The candidate vector being grown and repaired (one shared AIG).
    vector: HenkinVector,
    /// Outputs fixed by unique-definition preprocessing.
    defined: Vec<Var>,
    /// Training data for candidate learning.
    samples: Vec<Assignment>,
    /// Learned inter-candidate dependency bookkeeping.
    dependency_state: DependencyState,
    /// Linear extension of the dependencies (set by the Order stage).
    order: Option<Order>,
    /// The persistent incremental verify session (set by Preprocess).
    session: Option<VerifySession>,
    /// The persistent assumption-based MaxSAT repair session, opened lazily
    /// on the first counterexample so runs that never reach repair pay
    /// nothing for it.
    repair: Option<RepairSession>,
}

impl<'a> SynthesisCtx<'a> {
    fn new(dqbf: &'a Dqbf, config: &'a Manthan3Config, oracle: Oracle) -> Self {
        SynthesisCtx {
            dqbf,
            config,
            oracle,
            stats: SynthesisStats::default(),
            vector: HenkinVector::new(),
            defined: Vec::new(),
            samples: Vec::new(),
            dependency_state: DependencyState::new(dqbf.existentials()),
            order: None,
            session: None,
            repair: None,
        }
    }

    /// Maps an exhausted-oracle verdict to an outcome.
    fn give_up(&self) -> SynthesisOutcome {
        SynthesisOutcome::Unknown(self.oracle.give_up_reason())
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

    /// The engine's configuration.
    pub fn config(&self) -> &Manthan3Config {
        &self.config
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
        self.run(dqbf, budget, |_, _| {})
    }

    /// The pipeline behind [`Manthan3::synthesize_with_budget`]. `observe`
    /// sees every counterexample δ, with the run's state at that moment,
    /// before repair acts on it.
    fn run(
        &self,
        dqbf: &Dqbf,
        budget: Budget,
        observe: impl FnMut(&SynthesisCtx<'_>, &Delta),
    ) -> SynthesisResult {
        let oracle = Oracle::new(budget).with_certification(self.config.certify);
        // invariant: documented panic contract — callers must pass a
        // validated DQBF.
        dqbf.validate().expect("well-formed DQBF");
        let mut ctx = SynthesisCtx::new(dqbf, &self.config, oracle);

        let outcome = stage_preprocess(&mut ctx)
            .or_else(|| stage_sample(&mut ctx))
            .or_else(|| stage_learn(&mut ctx))
            .or_else(|| stage_order(&mut ctx))
            .unwrap_or_else(|| stage_verify_repair(&mut ctx, observe));

        SynthesisResult::finish(outcome, ctx.stats, ctx.oracle)
    }
}

/// Pipeline stage 1 — **Preprocess**: open the persistent oracle session,
/// rule out a trivially false matrix, and extract unique definitions.
fn stage_preprocess(ctx: &mut SynthesisCtx<'_>) -> Option<SynthesisOutcome> {
    let mut session = VerifySession::new(ctx.dqbf, &mut ctx.oracle);
    match session.check_matrix(&mut ctx.oracle) {
        SolveResult::Unsat => return Some(SynthesisOutcome::Unrealizable),
        SolveResult::Unknown => return Some(ctx.give_up()),
        SolveResult::Sat => {}
    }
    ctx.session = Some(session);
    if ctx.config.use_unique_definitions {
        // Outputs fixed here are skipped by the learning phase: their
        // definitions respect the Henkin dependencies by construction.
        ctx.defined = unique::extract_definitions(
            ctx.dqbf,
            &mut ctx.vector,
            MAX_UNIQUE_DEFINITION_DEPS,
            ctx.oracle.budget().cancel_token(),
        );
        ctx.stats.unique_definitions = ctx.defined.len();
    }
    // Extraction runs its own SAT solvers outside the oracle, which watch
    // only the cancel token; re-check the wall clock before moving on.
    if let Some(reason) = ctx.oracle.exhausted() {
        return Some(SynthesisOutcome::Unknown(reason));
    }
    None
}

/// Pipeline stage 2 — **Sample**: draw training data from the matrix with
/// one sampler that shares the run's budget and cancellation token.
fn stage_sample(ctx: &mut SynthesisCtx<'_>) -> Option<SynthesisOutcome> {
    let sampling_start = Instant::now();
    ctx.samples = ctx
        .oracle
        .sample_cnf(ctx.dqbf.matrix(), ctx.config.seed, ctx.config.num_samples);
    ctx.stats.samples = ctx.samples.len();
    ctx.stats.sampling_time = sampling_start.elapsed();
    if ctx.samples.is_empty() {
        // Preprocess proved this matrix satisfiable, so only the budget can
        // empty the batch.
        return Some(ctx.give_up());
    }
    None
}

/// Pipeline stage 3 — **Learn**: per undefined output, learn a candidate
/// decision tree over its allowed features and record the inter-candidate
/// dependencies it introduces.
fn stage_learn(ctx: &mut SynthesisCtx<'_>) -> Option<SynthesisOutcome> {
    let learning_start = Instant::now();
    for &yi in ctx.dqbf.existentials() {
        for &yj in ctx.dqbf.existentials() {
            if yi == yj {
                continue;
            }
            let hi = ctx.dqbf.dependencies(yi);
            let hj = ctx.dqbf.dependencies(yj);
            if hj.is_subset(hi) && hj != hi {
                // H_j ⊂ H_i ⇒ y_i may depend on y_j (Algorithm 1, lines 3–5).
                ctx.dependency_state.record_subset_constraint(yi, yj);
            }
        }
    }
    for &y in ctx.dqbf.existentials() {
        if ctx.defined.contains(&y) {
            continue;
        }
        // The oracle-routed sampler always emits matrix-width assignments,
        // so a narrow sample here is an internal contract violation — fail
        // loudly instead of learning from silently mislabelled rows.
        let learned = learn_candidate(
            ctx.dqbf,
            &ctx.samples,
            y,
            &ctx.dependency_state,
            &mut ctx.vector,
            ctx.config,
        )
        .unwrap_or_else(|err| panic!("sampler→learn boundary violated: {err}"));
        debug_assert!(learned.tree_splits < ctx.samples.len());
        ctx.vector.set(y, learned.function);
        for supplier in learned.used_existentials {
            ctx.dependency_state.record_dependency(y, supplier);
        }
        ctx.stats.candidates_learned += 1;
    }
    ctx.stats.learning_time = learning_start.elapsed();
    None
}

/// Pipeline stage 4 — **Order**: linearise the learned dependencies.
fn stage_order(ctx: &mut SynthesisCtx<'_>) -> Option<SynthesisOutcome> {
    let order = Order::from_dependencies(ctx.dqbf.existentials(), &ctx.dependency_state);
    debug_assert_eq!(order.sequence().len(), ctx.dqbf.existentials().len());
    ctx.order = Some(order);
    None
}

/// Pipeline stage 5 — **VerifyRepair**: the CEGIS loop on the persistent
/// twin sessions. Each verify check simulates the vector first and takes a
/// failing pattern as the counterexample; only when no pattern fails does it
/// refute the incrementally maintained error formula, one matrix clause at a
/// time under activation assumptions, so `Valid` always comes from the
/// solver. FindCandidates re-solves the persistent MaxSAT encoding under
/// counterexample assumptions, and is the only query between a
/// counterexample and repair: its hard probe refutes a δ[X] that no model of
/// ϕ extends. Repair adds
/// clauses and swaps activation literals — no solver or encoding is ever
/// reconstructed inside the loop. `observe` sees each counterexample before
/// repair.
fn stage_verify_repair(
    ctx: &mut SynthesisCtx<'_>,
    mut observe: impl FnMut(&SynthesisCtx<'_>, &Delta),
) -> SynthesisOutcome {
    // invariant: the stage pipeline runs preprocess and ordering before
    // verify/repair; both stages stored their artifacts in ctx.
    let mut session = ctx.session.take().expect("preprocess ran");
    let order = ctx.order.take().expect("order ran");
    let mut simulator = Simulator::new(ctx.config.seed, order.substitution_order());

    for _ in 0..ctx.config.max_repair_iterations {
        if let Some(reason) = ctx.oracle.exhausted() {
            return SynthesisOutcome::Unknown(reason);
        }
        let verification_start = Instant::now();
        ctx.stats.verification_checks += 1;
        let verdict = match simulator.counterexample(ctx.dqbf, &ctx.vector, &mut ctx.oracle) {
            Some(delta) => VerifyOutcome::CounterExample(delta),
            None => {
                // Only count queries the oracle actually ran (a refused call
                // leaves the solver untouched).
                let performed_before = ctx.oracle.stats().sat_calls;
                let verdict = session.verify(ctx.dqbf, &ctx.vector, &mut ctx.oracle);
                ctx.stats.verify_sat_calls += ctx.oracle.stats().sat_calls - performed_before;
                verdict
            }
        };
        ctx.stats.verification_time += verification_start.elapsed();
        let delta = match verdict {
            VerifyOutcome::Valid => {
                // Success: expand inter-candidate references so every
                // function is over its Henkin dependencies only
                // (Algorithm 1, line 19).
                let mut vector = std::mem::take(&mut ctx.vector);
                vector.substitute_down(&order.substitution_order());
                debug_assert_eq!(vector.dependency_violation(ctx.dqbf), None);
                return SynthesisOutcome::Realizable(vector);
            }
            VerifyOutcome::Unknown => return ctx.give_up(),
            VerifyOutcome::CounterExample(delta) => delta,
        };
        observe(ctx, &delta);

        let repair_start = Instant::now();
        ctx.stats.repair_iterations += 1;
        // The repair session opens on the first counterexample and serves
        // every later FindCandidates query under assumptions.
        if ctx.repair.is_none() {
            ctx.repair = Some(RepairSession::new(ctx.dqbf, &mut ctx.oracle));
        }
        // invariant: the branch above creates the session when absent.
        let repair_session = ctx.repair.as_mut().expect("repair session just opened");
        let outcome = repair_session
            .find_candidates(&delta, &mut ctx.oracle)
            .map(|candidates| {
                repair_vector(
                    ctx.dqbf,
                    ctx.config,
                    &mut session,
                    &mut ctx.oracle,
                    &mut ctx.vector,
                    &order,
                    &delta,
                    candidates,
                    &mut ctx.stats,
                )
            });
        ctx.stats.repair_time += repair_start.elapsed();
        let outcome = match outcome {
            Ok(outcome) => outcome,
            Err(verdict) => return verdict,
        };
        if outcome.stuck {
            // Distinguish the paper's algorithmic incompleteness from a
            // repair pass that was merely starved of oracle budget.
            if let Some(reason) = ctx.oracle.exhausted() {
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
        // FindCandidates' hard probe, the X-extension check (Algorithm 1,
        // line 13), refutes the counterexample with x = 1.
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
        delta: Delta,
        /// Whether simulation (not the error solver) found it.
        simulated: bool,
        /// Whether δ[X] ∪ δ[Y'] falsifies the matrix.
        falsifies_matrix: bool,
        /// Whether δ[Y'] is the vector's output on δ[X].
        y_prime_is_vector_output: bool,
    }

    /// Runs the pipeline and records every counterexample. The vector's
    /// outputs on δ[X] are evaluated by a fixpoint over the outputs in
    /// variable order (enough passes for any acyclic reference chain), not
    /// through the simulator's order.
    fn run_recording(dqbf: &Dqbf, config: Manthan3Config) -> (SynthesisResult, Vec<Recorded>) {
        let mut recorded = Vec::new();
        let mut simulated_so_far = 0;
        let result = Manthan3::new(config).run(dqbf, Budget::unlimited(), |ctx, delta| {
            let found = ctx.oracle.stats().sim_counterexamples;
            let simulated = found > simulated_so_far;
            simulated_so_far = found;

            let mut values = vec![false; ctx.dqbf.num_vars()];
            for (&v, &b) in delta.x.iter().chain(&delta.y_prime) {
                values[v.index()] = b;
            }
            let falsifies_matrix = !ctx.dqbf.eval_matrix(&Assignment::from_values(values));

            let mut outputs = vec![false; ctx.dqbf.num_vars()];
            for (&x, &b) in &delta.x {
                outputs[x.index()] = b;
            }
            for _ in ctx.dqbf.existentials() {
                for &y in ctx.dqbf.existentials() {
                    outputs[y.index()] = ctx.vector.eval_one(y, &outputs).expect("total vector");
                }
            }
            let y_prime_is_vector_output =
                delta.y_prime.iter().all(|(&y, &b)| outputs[y.index()] == b);
            recorded.push(Recorded {
                delta: delta.clone(),
                simulated,
                falsifies_matrix,
                y_prime_is_vector_output,
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
        }
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
        let mut ctx = SynthesisCtx::new(&dqbf, &config, oracle);
        // Preprocess opens the sessions; |H_y| = 20 is past the
        // unique-definition cap, so y stays undefined.
        assert!(stage_preprocess(&mut ctx).is_none());
        assert!(ctx.defined.is_empty());
        ctx.vector.set(y, AigRef::FALSE);
        ctx.order = Some(Order::from_dependencies(
            dqbf.existentials(),
            &ctx.dependency_state,
        ));

        let mut deltas = Vec::new();
        let outcome = stage_verify_repair(&mut ctx, |ctx, delta| {
            assert_eq!(ctx.oracle.stats().sim_counterexamples, 0);
            assert_eq!(ctx.stats.verify_sat_calls, dqbf.num_clauses());
            deltas.push(delta.clone());
        });
        match &outcome {
            SynthesisOutcome::Realizable(vector) => assert!(check(&dqbf, vector).is_valid()),
            other => panic!("expected Realizable, got {other:?}"),
        }
        assert_eq!(deltas.len(), 1);
        assert!(deltas[0].x.values().all(|&b| b));
        assert!(!deltas[0].y_prime[&y]);
        // Two checks, both answered by the error solver: the
        // counterexample, then the closing UNSAT, which was certified.
        let stats = ctx.oracle.stats();
        assert_eq!(ctx.stats.verification_checks, 2);
        assert_eq!(stats.sim_patterns, 2 * 512);
        assert_eq!(stats.sim_counterexamples, 0);
        // The matrix check, |ϕ| error-solver calls per check and the repair
        // queries; the one counterexample got one FindCandidates query.
        assert_eq!(ctx.stats.verify_sat_calls, 2 * dqbf.num_clauses());
        assert_eq!(
            stats.sat_calls,
            1 + ctx.stats.verify_sat_calls + ctx.stats.repair_sat_calls
        );
        assert_eq!(stats.maxsat_calls, 1);
        assert!(stats.certificates_checked > 0);
        assert_eq!(stats.certificates_rejected, 0);
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
