use crate::Totalizer;
use manthan3_cnf::{Assignment, Clause, Cnf, Lit, Var};
use manthan3_sat::{SolveResult, Solver, SolverConfig, SolverStats};

/// Identifier of a soft clause, returned by [`MaxSatSolver::add_soft`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SoftId(usize);

impl SoftId {
    /// Index of the soft clause in insertion order.
    pub fn index(self) -> usize {
        self.0
    }
}

/// Search-effort counters of a [`MaxSatSolver`], accumulated across every
/// solve call of the instance.
///
/// `probes` counts the internal SAT oracle calls issued by the optimum
/// search: hard-satisfiability checks, optimistic checks and bound probes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MaxSatStats {
    /// Internal SAT probes issued across all solve calls.
    pub probes: u64,
}

/// Outcome of a [`MaxSatSolver::solve`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MaxSatResult {
    /// An optimal solution was found; `cost` is the total weight of violated
    /// soft clauses.
    Optimum {
        /// Total weight of violated soft clauses in the optimum.
        cost: u64,
    },
    /// The hard clauses alone (together with the assumptions, for
    /// [`MaxSatSolver::solve_under_assumptions`]) are unsatisfiable.
    HardUnsat,
    /// The search stopped early: the configured
    /// [`CancelToken`](manthan3_sat::CancelToken) fired, or the caller
    /// refused the call because its run budget was spent. The budget, not
    /// this verdict, says which. No best-so-far bound is ever reported as
    /// the optimum, and the call leaves no model behind.
    Unknown,
}

#[derive(Debug, Clone)]
struct SoftClause {
    lits: Vec<Lit>,
    weight: u64,
    relax: Lit,
}

/// A weighted partial MaxSAT solver.
///
/// See the [crate-level documentation](crate) for the algorithm and an
/// example.
#[derive(Debug, Clone)]
pub struct MaxSatSolver {
    solver: Solver,
    softs: Vec<SoftClause>,
    model: Option<Assignment>,
    /// Totalizer over the (weight-replicated) relaxation literals, encoded
    /// lazily on the first bounded search and kept across solve calls;
    /// invalidated when a new soft clause arrives. Without the cache every
    /// solve call re-encoded a fresh totalizer into the same solver, so a
    /// long-lived instance grew by the full cardinality network per call.
    totalizer: Option<Totalizer>,
    /// Optimum cost of the previous solve call, used to warm-start the next
    /// linear bound search: incremental callers re-solve the same objective
    /// under slowly drifting assumptions, so the optimum moves little
    /// between calls and the search usually finishes within a couple of
    /// bound probes instead of a full linear climb. Only valid for the
    /// assumption set it was proved under and the instance it was proved on:
    /// invalidated on any mutation (`add_hard`/`add_soft`/`maintain`) and on
    /// any assumption-set change, so a stale bound can never seed the search
    /// at a level unrelated to the new query.
    last_optimum: Option<u64>,
    /// The assumption set `last_optimum` was proved under.
    last_assumptions: Vec<Lit>,
    stats: MaxSatStats,
}

impl Default for MaxSatSolver {
    fn default() -> Self {
        MaxSatSolver::new()
    }
}

impl MaxSatSolver {
    /// Creates an empty MaxSAT instance.
    pub fn new() -> Self {
        MaxSatSolver::with_config(SolverConfig::default())
    }

    /// Creates an instance whose internal SAT solver uses `config` — the way
    /// to pass a cancellation token and proof logging in one go (as the
    /// shared oracle layer does).
    pub fn with_config(config: SolverConfig) -> Self {
        MaxSatSolver {
            solver: Solver::with_config(config),
            softs: Vec::new(),
            model: None,
            totalizer: None,
            last_optimum: None,
            last_assumptions: Vec::new(),
            stats: MaxSatStats::default(),
        }
    }

    /// Runtime statistics of the internal SAT solver (conflicts, decisions,
    /// …), accumulated across every solve call of this instance.
    pub fn sat_stats(&self) -> SolverStats {
        self.solver.stats()
    }

    /// DRAT certificate of the internal solver's most recent UNSAT probe,
    /// when proof logging is enabled on the configuration this instance was
    /// constructed with (`SolverConfig::proof_logging`).
    ///
    /// The probe loop ends on an UNSAT verdict exactly when the search
    /// proved something: [`MaxSatResult::HardUnsat`] (the hard clauses —
    /// plus any caller assumptions — were refuted) or an optimum whose
    /// final act was refuting the bound below the reported cost. In both
    /// cases the certificate covers that closing refutation, with the
    /// probe's assumptions (including any totalizer bound literal) scoped
    /// in as unit clauses of the certificate CNF. A probe loop that
    /// ends on a SAT verdict withdraws the certificate, exactly like
    /// [`Solver::certificate`](manthan3_sat::Solver::certificate).
    pub fn certificate(&self) -> Option<manthan3_sat::Certificate<'_>> {
        self.solver.certificate()
    }

    /// Cumulative (additions, deletions) recorded in the internal solver's
    /// DRAT log.
    pub fn proof_steps(&self) -> (u64, u64) {
        self.solver.proof_steps()
    }

    /// The configuration of the underlying CDCL solver (as constructed —
    /// the way the oracle layer verifies its configuration reached the solver).
    pub fn solver_config(&self) -> &SolverConfig {
        self.solver.config()
    }

    /// Search-effort counters (SAT probes issued), accumulated across every
    /// solve call of this instance.
    pub fn stats(&self) -> MaxSatStats {
        self.stats
    }

    /// Adds a hard clause.
    ///
    /// Invalidates the warm-start bound: new hard clauses can raise the
    /// optimum.
    pub fn add_hard<C>(&mut self, clause: C)
    where
        C: IntoIterator<Item = Lit>,
    {
        self.last_optimum = None;
        self.solver.add_clause(clause);
    }

    /// Adds every clause of `cnf` as a hard clause.
    pub fn add_hard_cnf(&mut self, cnf: &Cnf) {
        self.last_optimum = None;
        self.solver.add_cnf(cnf);
    }

    /// Adds a soft clause with the given positive weight and returns its id.
    ///
    /// Invalidates the cached totalizer (the next bounded search re-encodes
    /// the cardinality network over the enlarged relaxation set) and the
    /// warm-start bound.
    ///
    /// # Panics
    ///
    /// Panics if `weight` is zero.
    pub fn add_soft<C>(&mut self, clause: C, weight: u64) -> SoftId
    where
        C: IntoIterator<Item = Lit>,
    {
        assert!(weight > 0, "soft clauses must have positive weight");
        let lits: Vec<Lit> = clause.into_iter().collect();
        for l in &lits {
            self.solver.ensure_vars(l.var().index() + 1);
        }
        let relax = self.solver.new_var().positive();
        let mut relaxed = lits.clone();
        relaxed.push(relax);
        self.solver.add_clause(relaxed);
        let id = SoftId(self.softs.len());
        self.softs.push(SoftClause {
            lits,
            weight,
            relax,
        });
        self.totalizer = None;
        self.last_optimum = None;
        id
    }

    /// Allocates a fresh variable in the underlying solver. Incremental
    /// callers use this for auxiliary structure (e.g. assumption-pinned
    /// target variables) that must not collide with problem variables.
    pub fn new_var(&mut self) -> Var {
        self.solver.new_var()
    }

    /// Number of problem (non-learnt) clauses currently held by the
    /// underlying solver — the observable the repair-session hygiene
    /// watchdog asserts on.
    pub fn num_solver_clauses(&self) -> usize {
        self.solver.num_clauses()
    }

    /// Runs a maintenance pass on the underlying solver: halves the learnt
    /// database (resetting its growth threshold) and compacts away clauses
    /// satisfied at level 0. Long-lived incremental instances (one MaxSAT
    /// solver across hundreds of `solve_under_assumptions` calls) call this
    /// periodically so the solver state stays bounded, mirroring
    /// `VerifySession`'s error-solver maintenance. The warm-start bound is
    /// dropped alongside; the cached totalizer survives (its clauses are
    /// never level-0 satisfied — relaxation literals are only ever assumed,
    /// so the relaxation structure stays sound).
    pub fn maintain(&mut self) {
        self.last_optimum = None;
        self.solver.maintain();
    }

    /// Finds an assignment satisfying all hard clauses that minimizes the
    /// total weight of violated soft clauses.
    ///
    /// An already-cancelled solver is refused up front — the internal
    /// probes would each be refused anyway, so this skips straight to the
    /// verdict a cancelled search would reach.
    pub fn solve(&mut self) -> MaxSatResult {
        if self.is_cancelled() {
            self.model = None;
            return MaxSatResult::Unknown;
        }
        self.solve_under_assumptions(&[])
    }

    /// Like [`MaxSatSolver::solve`], but every internal SAT query is made
    /// under the given assumption literals, so the optimum is taken over the
    /// models of `hard ∧ assumptions`.
    ///
    /// This is the incremental entry point: a caller that would otherwise
    /// rebuild the instance per iteration (hard units that change every
    /// round, e.g. the `σ[X]`/`σ[Y']` valuations of a repair loop) instead
    /// encodes the invariant structure once and retracts the per-iteration
    /// units by simply not assuming them on the next call. The underlying
    /// CDCL solver, its learnt clauses and the cached totalizer all survive
    /// between calls.
    ///
    /// The search is a two-phase bound search over the violated weight on
    /// the persistent totalizer, warm-started at the previous call's optimum
    /// — walk the bound up from there while UNSAT, then tighten downward
    /// from the first model's true cost until the bound below it is refuted.
    /// With a stable objective the whole search is typically one or two
    /// probes.
    pub fn solve_under_assumptions(&mut self, assumptions: &[Lit]) -> MaxSatResult {
        self.model = None;
        // A warm-start bound is only meaningful for the assumption set it
        // was proved under: a changed set (e.g. a repair loop pinning a
        // disjoint σ) invalidates it, so the search can never start
        // from a bound unrelated — possibly infeasible — for the new query.
        if self.last_assumptions != assumptions {
            self.last_optimum = None;
            self.last_assumptions = assumptions.to_vec();
        }
        // Is the hard part satisfiable at all (under the assumptions)?
        match self.probe(assumptions) {
            SolveResult::Unsat => return MaxSatResult::HardUnsat,
            SolveResult::Unknown => return MaxSatResult::Unknown,
            SolveResult::Sat => {}
        }
        if self.softs.is_empty() {
            self.model = Some(self.solver.model());
            return MaxSatResult::Optimum { cost: 0 };
        }
        // Optimistic check: can every soft clause be satisfied?
        let mut optimistic: Vec<Lit> = assumptions.to_vec();
        optimistic.extend(self.softs.iter().map(|s| !s.relax));
        match self.probe(&optimistic) {
            SolveResult::Sat => {
                self.model = Some(self.solver.model());
                self.last_optimum = Some(0);
                return MaxSatResult::Optimum { cost: 0 };
            }
            SolveResult::Unknown => return MaxSatResult::Unknown,
            SolveResult::Unsat => {}
        }
        let total = self.totalizer().len() as u64;
        // A probe at bound `k` asks for a model with at most `k` violated
        // (weight units of) softs: `¬outputs[k]` forbids `k + 1` true
        // relaxations.
        let mut bounded: Vec<Lit> = Vec::with_capacity(assumptions.len() + 1);
        // Phase 1: find any bounded model, walking the bound up from the
        // warm start while UNSAT. Bounds 1..=total-1 are probeable; once
        // `≤ total - 1` is refuted every soft clause must be violated and
        // the unrestricted solve below is already optimal.
        let mut k = self.last_optimum.unwrap_or(1).clamp(1, total.max(2) - 1);
        // Highest bound known refuted: 0 from the failed optimistic check;
        // phase 1's UNSAT answers raise it, phase 2 stops against it.
        let mut refuted = 0u64;
        let mut cost = loop {
            if k >= total {
                return match self.probe(assumptions) {
                    SolveResult::Sat => {
                        self.model = Some(self.solver.model());
                        let cost = self.cost_of_current_model();
                        self.last_optimum = Some(cost);
                        MaxSatResult::Optimum { cost }
                    }
                    SolveResult::Unknown => MaxSatResult::Unknown,
                    SolveResult::Unsat => MaxSatResult::HardUnsat,
                };
            }
            let bound_lit = !self.totalizer().outputs()[k as usize];
            bounded.clear();
            bounded.extend_from_slice(assumptions);
            bounded.push(bound_lit);
            match self.probe(&bounded) {
                SolveResult::Sat => {
                    self.model = Some(self.solver.model());
                    break self.cost_of_current_model();
                }
                SolveResult::Unknown => {
                    self.model = None;
                    return MaxSatResult::Unknown;
                }
                SolveResult::Unsat => {
                    refuted = k;
                    k += 1;
                }
            }
        };
        // Phase 2: tighten downward until the next-lower bound is refuted
        // (or meets a bound phase 1 already refuted). An Unknown exit
        // clears the model found so far: it is not a proven
        // optimum, and [`MaxSatSolver::model`] documents that nothing is
        // available after a non-Optimum outcome.
        while cost > refuted + 1 {
            let bound_lit = !self.totalizer().outputs()[(cost - 1) as usize];
            bounded.clear();
            bounded.extend_from_slice(assumptions);
            bounded.push(bound_lit);
            match self.probe(&bounded) {
                SolveResult::Sat => {
                    self.model = Some(self.solver.model());
                    cost = self.cost_of_current_model();
                }
                SolveResult::Unknown => {
                    self.model = None;
                    return MaxSatResult::Unknown;
                }
                SolveResult::Unsat => break,
            }
        }
        self.last_optimum = Some(cost);
        MaxSatResult::Optimum { cost }
    }

    /// Returns `true` once the configured cancellation token has fired.
    fn is_cancelled(&self) -> bool {
        self.solver
            .config()
            .cancel
            .as_ref()
            .is_some_and(|token| token.is_cancelled())
    }

    /// One internal SAT probe: polls cancellation first (a cancelled probe
    /// is not performed and answers `Unknown`, as a probe cancelled
    /// mid-search does).
    fn probe(&mut self, assumptions: &[Lit]) -> SolveResult {
        if self.is_cancelled() {
            return SolveResult::Unknown;
        }
        self.stats.probes += 1;
        self.solver.solve_with_assumptions(assumptions)
    }

    /// The persistent totalizer over the weight-replicated relaxation
    /// literals, encoded on first use and reused by every later bounded
    /// search (re-encoded only after [`MaxSatSolver::add_soft`] grows the
    /// relaxation set).
    fn totalizer(&mut self) -> &Totalizer {
        if self.totalizer.is_none() {
            let mut counters: Vec<Lit> = Vec::new();
            for s in &self.softs {
                for _ in 0..s.weight {
                    counters.push(s.relax);
                }
            }
            self.totalizer = Some(Totalizer::encode(&mut self.solver, &counters));
        }
        // invariant: the branch above encodes the totalizer when absent.
        self.totalizer.as_ref().expect("totalizer just encoded")
    }

    fn cost_of_current_model(&self) -> u64 {
        // invariant: only called after a SAT solve stored a model.
        let model = self.model.as_ref().expect("model available");
        self.softs
            .iter()
            .filter(|s| !Clause::new(s.lits.clone()).eval(model))
            .map(|s| s.weight)
            .sum()
    }

    /// Returns the model of the last [`MaxSatResult::Optimum`] outcome.
    ///
    /// # Panics
    ///
    /// Panics if the last solve call did not produce an optimum.
    pub fn model(&self) -> Assignment {
        // invariant: documented panic contract — callers may only ask for
        // the model after an Optimum outcome.
        self.model.clone().expect("no MaxSAT model available")
    }

    /// Returns the soft clauses violated by the last optimum's model, in
    /// insertion order.
    pub fn violated_softs(&self) -> Vec<SoftId> {
        // invariant: same contract as `model` — only valid after an Optimum.
        let model = self.model.as_ref().expect("no MaxSAT model available");
        self.softs
            .iter()
            .enumerate()
            .filter(|(_, s)| !Clause::new(s.lits.clone()).eval(model))
            .map(|(i, _)| SoftId(i))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use manthan3_cnf::Var;

    fn lit(d: i64) -> Lit {
        Lit::from_dimacs(d)
    }

    #[test]
    fn all_softs_satisfiable() {
        let mut s = MaxSatSolver::new();
        s.add_hard([lit(1), lit(2)]);
        s.add_soft([lit(1)], 1);
        s.add_soft([lit(2)], 1);
        assert_eq!(s.solve(), MaxSatResult::Optimum { cost: 0 });
        assert!(s.violated_softs().is_empty());
    }

    #[test]
    fn must_violate_one_soft() {
        let mut s = MaxSatSolver::new();
        s.add_hard([lit(1), lit(2)]); // at least one true
        let s1 = s.add_soft([lit(-1)], 1);
        let s2 = s.add_soft([lit(-2)], 1);
        assert_eq!(s.solve(), MaxSatResult::Optimum { cost: 1 });
        let violated = s.violated_softs();
        assert_eq!(violated.len(), 1);
        assert!(violated[0] == s1 || violated[0] == s2);
    }

    #[test]
    fn weights_steer_the_optimum() {
        // Hard: exactly one of x1, x2 true. Soft: prefer x1 (weight 5) and
        // x2 (weight 1): the optimum keeps x1 and violates the cheap soft.
        let mut s = MaxSatSolver::new();
        s.add_hard([lit(1), lit(2)]);
        s.add_hard([lit(-1), lit(-2)]);
        s.add_soft([lit(1)], 5);
        let cheap = s.add_soft([lit(2)], 1);
        assert_eq!(s.solve(), MaxSatResult::Optimum { cost: 1 });
        assert_eq!(s.violated_softs(), vec![cheap]);
        assert!(s.model().value(Var::new(0)));
    }

    #[test]
    fn hard_unsat_detected() {
        let mut s = MaxSatSolver::new();
        s.add_hard([lit(1)]);
        s.add_hard([lit(-1)]);
        s.add_soft([lit(2)], 1);
        assert_eq!(s.solve(), MaxSatResult::HardUnsat);
    }

    #[test]
    fn all_softs_violated() {
        let mut s = MaxSatSolver::new();
        s.add_hard([lit(1)]);
        s.add_hard([lit(2)]);
        s.add_soft([lit(-1)], 1);
        s.add_soft([lit(-2)], 2);
        assert_eq!(s.solve(), MaxSatResult::Optimum { cost: 3 });
        assert_eq!(s.violated_softs().len(), 2);
    }

    #[test]
    fn no_softs_is_plain_sat() {
        let mut s = MaxSatSolver::new();
        s.add_hard([lit(1), lit(2)]);
        assert_eq!(s.solve(), MaxSatResult::Optimum { cost: 0 });
        let _ = s.model();
    }

    #[test]
    fn multi_literal_soft_clauses() {
        // Hard: ¬x1 ∧ ¬x2. Soft: (x1 ∨ x2) cannot be satisfied.
        let mut s = MaxSatSolver::new();
        s.add_hard([lit(-1)]);
        s.add_hard([lit(-2)]);
        let broken = s.add_soft([lit(1), lit(2)], 3);
        let fine = s.add_soft([lit(-1), lit(2)], 2);
        assert_eq!(s.solve(), MaxSatResult::Optimum { cost: 3 });
        assert_eq!(s.violated_softs(), vec![broken]);
        let _ = fine;
    }

    #[test]
    #[should_panic(expected = "positive weight")]
    fn zero_weight_rejected() {
        let mut s = MaxSatSolver::new();
        s.add_soft([lit(1)], 0);
    }

    #[test]
    fn assumptions_pin_the_optimum_and_retract_between_calls() {
        // Hard: x1 ∨ x2. Softs prefer ¬x1 and ¬x2. Under the assumption x1
        // the optimum must violate the ¬x1 soft; under x2 the other one; with
        // no assumptions the cost-1 optimum is free to pick either.
        let mut s = MaxSatSolver::new();
        s.add_hard([lit(1), lit(2)]);
        let s1 = s.add_soft([lit(-1)], 1);
        let s2 = s.add_soft([lit(-2)], 1);
        assert_eq!(
            s.solve_under_assumptions(&[lit(1), lit(-2)]),
            MaxSatResult::Optimum { cost: 1 }
        );
        assert_eq!(s.violated_softs(), vec![s1]);
        // The previous call's units are retracted, not persisted.
        assert_eq!(
            s.solve_under_assumptions(&[lit(2), lit(-1)]),
            MaxSatResult::Optimum { cost: 1 }
        );
        assert_eq!(s.violated_softs(), vec![s2]);
        assert_eq!(s.solve(), MaxSatResult::Optimum { cost: 1 });
    }

    #[test]
    fn contradictory_assumptions_are_hard_unsat() {
        let mut s = MaxSatSolver::new();
        s.add_hard([lit(1)]);
        s.add_soft([lit(2)], 1);
        assert_eq!(
            s.solve_under_assumptions(&[lit(-1)]),
            MaxSatResult::HardUnsat
        );
        // The instance itself is untouched.
        assert_eq!(s.solve(), MaxSatResult::Optimum { cost: 0 });
    }

    #[test]
    fn totalizer_is_encoded_once_across_repeated_solves() {
        let mut s = MaxSatSolver::new();
        s.add_hard([lit(1), lit(2)]);
        s.add_soft([lit(-1)], 2);
        s.add_soft([lit(-2)], 1);
        assert_eq!(s.solve(), MaxSatResult::Optimum { cost: 1 });
        let vars_after_first = s.solver.num_vars();
        let clauses_after_first = s.num_solver_clauses();
        for _ in 0..20 {
            assert_eq!(s.solve(), MaxSatResult::Optimum { cost: 1 });
        }
        // Re-solving must not re-encode the cardinality network.
        assert_eq!(s.solver.num_vars(), vars_after_first);
        assert_eq!(s.num_solver_clauses(), clauses_after_first);
        // A new soft clause invalidates the cache; exactly one re-encoding.
        s.add_soft([lit(1), lit(2)], 1);
        assert_eq!(s.solve(), MaxSatResult::Optimum { cost: 1 });
        let vars_after_growth = s.solver.num_vars();
        assert!(vars_after_growth > vars_after_first);
        assert_eq!(s.solve(), MaxSatResult::Optimum { cost: 1 });
        assert_eq!(s.solver.num_vars(), vars_after_growth);
    }

    #[test]
    fn cancellation_aborts_between_bound_steps() {
        use manthan3_sat::{CancelToken, SolverConfig};
        let token = CancelToken::new();
        let mut s = MaxSatSolver::with_config(SolverConfig::default().with_cancel(token.clone()));
        s.add_hard([lit(1)]);
        s.add_soft([lit(-1)], 3);
        token.cancel();
        // Cancellation stops the search with no verdict, never with a
        // best-so-far optimum.
        assert_eq!(s.solve(), MaxSatResult::Unknown);
    }

    #[test]
    fn cancellation_mid_search_reports_cancelled() {
        use manthan3_sat::{CancelToken, SolverConfig};
        use std::time::{Duration, Instant};
        // An unsatisfiable pigeonhole hard part far beyond what the test
        // environment can refute quickly: the first probe runs long, and a
        // token cancelled from another thread must turn the in-flight bound
        // search into `Unknown` — not into the best-so-far bound.
        let token = CancelToken::new();
        let mut s = MaxSatSolver::with_config(SolverConfig::default().with_cancel(token.clone()));
        let holes = 9usize;
        let var = |i: usize, j: usize| Var::new((i * holes + j) as u32);
        for i in 0..=holes {
            let clause: Vec<Lit> = (0..holes).map(|j| var(i, j).positive()).collect();
            s.add_hard(clause);
        }
        for j in 0..holes {
            for i1 in 0..=holes {
                for i2 in (i1 + 1)..=holes {
                    s.add_hard([var(i1, j).negative(), var(i2, j).negative()]);
                }
            }
        }
        s.add_soft([var(0, 0).positive()], 1);
        let canceller = std::thread::spawn({
            let token = token.clone();
            move || {
                std::thread::sleep(Duration::from_millis(20));
                token.cancel();
            }
        });
        let start = Instant::now();
        assert_eq!(s.solve(), MaxSatResult::Unknown);
        assert!(
            start.elapsed() < Duration::from_secs(20),
            "cancellation did not interrupt the search"
        );
        canceller.join().expect("canceller thread");
    }

    #[test]
    fn soft_free_instances_report_cost_zero_under_assumptions() {
        // No soft clauses at all (a repair session over an existential-free
        // DQBF): the optimum is trivially 0, a model is available, and the
        // violated-soft set is empty — no panic on either accessor.
        let mut s = MaxSatSolver::new();
        s.add_hard([lit(1), lit(2)]);
        assert_eq!(
            s.solve_under_assumptions(&[lit(1)]),
            MaxSatResult::Optimum { cost: 0 }
        );
        assert!(s.violated_softs().is_empty());
        assert!(s.model().value(Var::new(0)));
    }

    #[test]
    #[should_panic(expected = "no MaxSAT model available")]
    fn unknown_outcomes_leave_no_stale_model() {
        // First solve finds an optimum (model stored); a cancelled re-solve
        // returns Unknown and must clear it, so reading the model
        // afterwards panics as documented instead of yielding a stale,
        // unproven one.
        use manthan3_sat::{CancelToken, SolverConfig};
        let token = CancelToken::new();
        let mut s = MaxSatSolver::with_config(SolverConfig::default().with_cancel(token.clone()));
        s.add_hard([lit(1), lit(2)]);
        s.add_soft([lit(-1)], 1);
        s.add_soft([lit(-2)], 1);
        assert_eq!(s.solve(), MaxSatResult::Optimum { cost: 1 });
        let _ = s.model();
        token.cancel();
        assert_eq!(s.solve(), MaxSatResult::Unknown);
        let _ = s.violated_softs(); // must panic
    }

    #[test]
    fn maintain_keeps_the_instance_correct() {
        let mut s = MaxSatSolver::new();
        s.add_hard([lit(1), lit(2)]);
        s.add_hard([lit(-1), lit(-2)]);
        s.add_soft([lit(1)], 5);
        let cheap = s.add_soft([lit(2)], 1);
        for _ in 0..10 {
            assert_eq!(s.solve(), MaxSatResult::Optimum { cost: 1 });
            assert_eq!(s.violated_softs(), vec![cheap]);
            s.maintain();
        }
    }

    /// A proof-logging MaxSAT solve whose probe loop ends UNSAT yields a
    /// certificate the independent checker accepts; SAT-terminated searches
    /// withdraw it.
    #[test]
    fn hard_unsat_probes_yield_checkable_certificates() {
        use manthan3_drat::{check, ProofStep};
        let mut s = MaxSatSolver::with_config(SolverConfig::default().with_proof_logging(true));
        s.add_hard([lit(1), lit(2)]);
        s.add_hard([lit(-1)]);
        s.add_hard([lit(-2)]);
        s.add_soft([lit(3)], 1);
        assert_eq!(s.solve(), MaxSatResult::HardUnsat);
        let cert = s.certificate().expect("hard-unsat probe certificate");
        let steps = cert.steps().map(ProofStep::from);
        assert!(
            check(cert.cnf(), steps, || false).is_verified(),
            "certificate rejected"
        );
        assert!(s.proof_steps().0 > 0);
    }

    /// The relaxed instance is satisfiable, so the optimum search ends on a
    /// SAT probe: no certificate is claimed, and logging stays off (no
    /// proof steps) unless the configuration asks for it.
    #[test]
    fn sat_terminated_searches_withdraw_the_certificate() {
        let mut s = MaxSatSolver::with_config(SolverConfig::default().with_proof_logging(true));
        s.add_hard([lit(1), lit(2)]);
        s.add_soft([lit(-1)], 1);
        s.add_soft([lit(-2)], 1);
        assert_eq!(s.solve(), MaxSatResult::Optimum { cost: 1 });
        assert!(s.certificate().is_none());
        let mut silent = MaxSatSolver::new();
        silent.add_hard([lit(1)]);
        silent.add_hard([lit(-1)]);
        assert_eq!(silent.solve(), MaxSatResult::HardUnsat);
        assert_eq!(silent.proof_steps(), (0, 0));
        assert!(silent.certificate().is_none());
    }

    /// The warm-start bound must not survive an
    /// assumption-set change. Alternating disjoint σ pins with very
    /// different optima stay correct, and every call's probe count is
    /// bounded by `optimum + 2` (hard check + optimistic check + climb
    /// from 1) — a stale warm bound from the other pin would seed the
    /// search at an unrelated level.
    #[test]
    fn warm_start_is_invalidated_on_assumption_set_changes() {
        let mut s = MaxSatSolver::new();
        // Hard: t → (x1 ∧ x2 ∧ x3), u → (¬x1 ∧ ¬x2 ∧ ¬x3); x4 free. Softs
        // prefer all four x_i false: optimum 3 under t, optimum 0 under u.
        let (t, u) = (lit(5), lit(6));
        for i in 1..=3 {
            s.add_hard([!t, lit(i)]);
            s.add_hard([!u, lit(-i)]);
        }
        for i in 1..=4 {
            s.add_soft([lit(-i)], 1);
        }
        for round in 0..6 {
            let (pins, optimum) = if round % 2 == 0 {
                ([t, !u], 3)
            } else {
                ([u, !t], 0)
            };
            let before = s.stats().probes;
            assert_eq!(
                s.solve_under_assumptions(&pins),
                MaxSatResult::Optimum { cost: optimum },
                "round {round}"
            );
            let spent = s.stats().probes - before;
            assert!(
                spent <= optimum + 2,
                "round {round}: {spent} probes for optimum {optimum} — stale warm start?"
            );
        }
        // Repeating the *same* assumption set keeps the warm start: after
        // one fresh climb re-establishes the bound, the re-query pays the
        // hard check, the optimistic check, the already-SAT probe at the
        // warm optimum, and one refuted confirming probe below it —
        // 4 probes, no climb.
        assert_eq!(
            s.solve_under_assumptions(&[t, !u]),
            MaxSatResult::Optimum { cost: 3 }
        );
        let before = s.stats().probes;
        assert_eq!(
            s.solve_under_assumptions(&[t, !u]),
            MaxSatResult::Optimum { cost: 3 }
        );
        assert_eq!(s.stats().probes - before, 4);
    }

    /// A random clause of one or two literals over `num_vars` variables.
    fn random_clause(rng: &mut impl rand::Rng, num_vars: usize) -> Vec<Lit> {
        (0..rng.gen_range(1..3))
            .map(|_| Lit::new(Var::new(rng.gen_range(0..num_vars) as u32), rng.gen()))
            .collect()
    }

    /// The least total weight of `softs` violated by an assignment of
    /// `hard ∧ pins`, by enumeration; `None` when no assignment satisfies
    /// `hard ∧ pins`.
    fn brute_force_optimum(hard: &Cnf, softs: &[(Vec<Lit>, u64)], pins: &[Lit]) -> Option<u64> {
        let num_vars = hard.num_vars();
        (0..1u32 << num_vars)
            .map(|bits| {
                Assignment::from_values((0..num_vars).map(|i| bits >> i & 1 == 1).collect())
            })
            .filter(|a| hard.eval(a) && pins.iter().all(|&p| a.lit_value(p)))
            .map(|a| {
                softs
                    .iter()
                    .filter(|(c, _)| !Clause::new(c.clone()).eval(&a))
                    .map(|(_, w)| *w)
                    .sum()
            })
            .min()
    }

    /// Solves `hard` with `softs` and checks the verdict against the
    /// brute-force optimum, and the model against it.
    fn assert_brute_force_optimum(round: usize, hard: &Cnf, softs: &[(Vec<Lit>, u64)]) {
        let mut solver = MaxSatSolver::new();
        solver.add_hard_cnf(hard);
        for (c, w) in softs {
            solver.add_soft(c.clone(), *w);
        }
        let result = solver.solve();
        match brute_force_optimum(hard, softs, &[]) {
            None => assert_eq!(result, MaxSatResult::HardUnsat, "round {round}"),
            Some(opt) => {
                assert_eq!(result, MaxSatResult::Optimum { cost: opt }, "round {round}");
                let violated: u64 = solver
                    .violated_softs()
                    .iter()
                    .map(|id| softs[id.index()].1)
                    .sum();
                assert_eq!(violated, opt, "round {round}");
            }
        }
    }

    /// Reference check against brute force on random small instances:
    /// weighted ones, then unit-weight ones (the shape the repair loop
    /// produces).
    #[test]
    fn agrees_with_brute_force() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(2024);
        for round in 0..30 {
            let num_vars = 4;
            let mut hard = Cnf::new(num_vars);
            for _ in 0..rng.gen_range(1..5) {
                hard.add_clause(random_clause(&mut rng, num_vars));
            }
            let softs: Vec<(Vec<Lit>, u64)> = (0..rng.gen_range(1..5))
                .map(|_| {
                    let clause = random_clause(&mut rng, num_vars);
                    (clause, rng.gen_range(1..4) as u64)
                })
                .collect();
            assert_brute_force_optimum(round, &hard, &softs);
        }
        let mut rng = SmallRng::seed_from_u64(0x0C0E_2026);
        for round in 30..70 {
            let num_vars = 5;
            let mut hard = Cnf::new(num_vars);
            for _ in 0..rng.gen_range(1..6) {
                hard.add_clause(random_clause(&mut rng, num_vars));
            }
            let softs: Vec<(Vec<Lit>, u64)> = (0..rng.gen_range(1..6))
                .map(|_| (random_clause(&mut rng, num_vars), 1))
                .collect();
            assert_brute_force_optimum(round, &hard, &softs);
        }
    }

    /// Randomized check of the warm-started search under changing assumption
    /// sets: one instance answers a random pin sequence over one encoding,
    /// and every answer must match the brute-force optimum over
    /// `hard ∧ pins`, with a model violating exactly that many softs.
    #[test]
    fn warm_start_agrees_with_brute_force_across_random_assumption_sequences() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(0xA55E_55ED);
        for round in 0..10 {
            let num_vars = 5usize;
            let mut solver = MaxSatSolver::new();
            let mut hard = Cnf::new(num_vars);
            for _ in 0..rng.gen_range(2..6) {
                hard.add_clause(random_clause(&mut rng, num_vars));
            }
            solver.add_hard_cnf(&hard);
            let softs: Vec<(Vec<Lit>, u64)> = (0..num_vars)
                .map(|v| (vec![Var::new(v as u32).negative()], 1))
                .collect();
            for (c, w) in &softs {
                solver.add_soft(c.clone(), *w);
            }
            for query in 0..25 {
                let pins: Vec<Lit> = (0..rng.gen_range(0..3))
                    .map(|_| Lit::new(Var::new(rng.gen_range(0..num_vars) as u32), rng.gen()))
                    .collect();
                let result = solver.solve_under_assumptions(&pins);
                match brute_force_optimum(&hard, &softs, &pins) {
                    None => assert_eq!(
                        result,
                        MaxSatResult::HardUnsat,
                        "round {round} query {query} pins {pins:?}"
                    ),
                    Some(opt) => {
                        assert_eq!(
                            result,
                            MaxSatResult::Optimum { cost: opt },
                            "round {round} query {query} pins {pins:?}"
                        );
                        assert_eq!(
                            solver.violated_softs().len() as u64,
                            opt,
                            "round {round} query {query}"
                        );
                    }
                }
            }
        }
    }
}
