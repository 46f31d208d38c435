use crate::Totalizer;
use manthan3_cnf::{Cnf, Lit, Var};
use manthan3_sat::{SolveResult, Solver, SolverConfig, SolverStats};

/// Solve calls after which the next one opens with a maintenance pass (see
/// [`MaxSatSolver::solve_under_assumptions`]).
const MAINTENANCE_SOLVES: usize = 32;

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
    /// An optimal solution was found; `cost` is the number of violated soft
    /// clauses.
    Optimum {
        /// Number of violated soft clauses in the optimum.
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
    relax: Lit,
}

impl SoftClause {
    /// `true` if the model whose values `value` reads satisfies the clause.
    fn holds(&self, value: impl Fn(Var) -> Option<bool>) -> bool {
        self.lits
            .iter()
            .any(|&l| value(l.var()) == Some(l.is_positive()))
    }
}

/// What an internal SAT probe assumes besides the caller's assumptions.
#[derive(Debug, Clone, Copy)]
enum Probe {
    /// Nothing: is the hard part satisfiable?
    Hard,
    /// Every relaxation literal false: can every soft clause hold?
    AllSofts,
    /// A totalizer bound literal: at most that many violated soft clauses.
    Bound(Lit),
}

/// A partial MaxSAT solver over unit-weight soft clauses.
///
/// See the [crate-level documentation](crate) for the algorithm and an
/// example.
#[derive(Debug, Clone)]
pub struct MaxSatSolver {
    solver: Solver,
    softs: Vec<SoftClause>,
    /// The last solve call ended in an optimum. Its model is the internal
    /// solver's latest one, since the search's last SAT probe found it.
    has_optimum: bool,
    /// Totalizer over the relaxation literals, encoded
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
    /// invalidated on any mutation (`add_hard`/`add_soft`/maintenance) and on
    /// any assumption-set change, so a stale bound can never seed the search
    /// at a level unrelated to the new query.
    last_optimum: Option<u64>,
    /// The caller's assumptions of the current (or last) solve call, the set
    /// `last_optimum` was proved under. A probe appends its own literals
    /// and removes them when it returns.
    assumptions: Vec<Lit>,
    /// Solve calls since the last maintenance pass.
    solves_since_maintenance: usize,
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
            has_optimum: false,
            totalizer: None,
            last_optimum: None,
            assumptions: Vec::new(),
            solves_since_maintenance: 0,
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
    /// probe's assumptions scoped in as unit clauses of the certificate
    /// CNF: exactly the caller's for a hard-UNSAT verdict, the caller's
    /// plus the totalizer bound literal for an optimum. A probe loop that
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

    /// Adds a soft clause and returns its id.
    ///
    /// Invalidates the cached totalizer (the next bounded search re-encodes
    /// the cardinality network over the enlarged relaxation set) and the
    /// warm-start bound.
    pub fn add_soft<C>(&mut self, clause: C) -> SoftId
    where
        C: IntoIterator<Item = Lit>,
    {
        let lits: Vec<Lit> = clause.into_iter().collect();
        for l in &lits {
            self.solver.ensure_vars(l.var().index() + 1);
        }
        let relax = self.solver.new_var().positive();
        let mut relaxed = lits.clone();
        relaxed.push(relax);
        self.solver.add_clause(relaxed);
        let id = SoftId(self.softs.len());
        self.softs.push(SoftClause { lits, relax });
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

    /// The maintenance pass that opens the call after every 32nd admitted
    /// solve call: drops the warm-start bound, then halves the learnt
    /// database (resetting its growth threshold) and compacts away clauses
    /// satisfied at level 0 (`Solver::maintain`), so an instance that lives
    /// across hundreds of calls keeps a bounded state. The cached totalizer
    /// survives: its clauses are never level-0 satisfied, since relaxation
    /// literals are only ever assumed.
    fn maintain(&mut self) {
        self.last_optimum = None;
        self.solver.maintain();
        self.solves_since_maintenance = 0;
    }

    /// Finds an assignment satisfying all hard clauses that minimizes the
    /// number of violated soft clauses.
    pub fn solve(&mut self) -> MaxSatResult {
        self.solve_under_assumptions(&[])
    }

    /// Like [`MaxSatSolver::solve`], but every internal SAT query is made
    /// under the given assumption literals, so the optimum is taken over the
    /// models of `hard ∧ assumptions`.
    ///
    /// This is the incremental entry point: a caller that would otherwise
    /// rebuild the instance per iteration (hard units that change every
    /// round, e.g. the `δ[X]`/`δ[Y']` valuations of a repair loop) instead
    /// encodes the invariant structure once and retracts the per-iteration
    /// units by simply not assuming them on the next call. The underlying
    /// CDCL solver, its learnt clauses and the cached totalizer all survive
    /// between calls.
    ///
    /// The search is a two-phase bound search over the violated count on
    /// the persistent totalizer, warm-started at the previous call's optimum
    /// — walk the bound up from there while UNSAT, then tighten downward
    /// from the first model's true cost until the bound below it is refuted.
    /// It opens with the optimistic all-softs probe, not with a check of the
    /// hard part: a refuted probe whose core names none of its own literals
    /// is what shows the hard part refuted. With a stable objective the
    /// whole search is typically one to three probes.
    ///
    /// An already-cancelled solver is refused up front — the internal
    /// probes would each be refused anyway, so this skips straight to the
    /// verdict a cancelled search would reach, and the refused call does
    /// not count towards maintenance. Past that check, the call after every
    /// 32nd opens with a maintenance pass (learnt-DB halving and level-0
    /// compaction) and searches without a warm start. The pass comes after
    /// the previous call's verdict, so a caller checks that verdict's
    /// certificate before the pass logs its deletions.
    pub fn solve_under_assumptions(&mut self, assumptions: &[Lit]) -> MaxSatResult {
        self.has_optimum = false;
        if self.is_cancelled() {
            return MaxSatResult::Unknown;
        }
        if self.solves_since_maintenance == MAINTENANCE_SOLVES {
            self.maintain();
        }
        self.solves_since_maintenance += 1;
        // A warm-start bound is only meaningful for the assumption set it
        // was proved under: a changed set (e.g. a repair loop pinning a
        // disjoint δ) invalidates it, so the search can never start
        // from a bound unrelated — possibly infeasible — for the new query.
        if self.assumptions != assumptions {
            self.last_optimum = None;
            self.assumptions.clear();
            // Room for the longest probe, so the buffer grows to exactly
            // that.
            self.assumptions
                .reserve_exact(assumptions.len() + self.softs.len().max(1));
            self.assumptions.extend_from_slice(assumptions);
        }
        let result = self.search();
        self.has_optimum = matches!(result, MaxSatResult::Optimum { .. });
        result
    }

    /// The optimum search of [`MaxSatSolver::solve_under_assumptions`]
    /// under `self.assumptions`.
    fn search(&mut self) -> MaxSatResult {
        // Optimistic check: can every soft clause be satisfied? With no
        // soft clauses it is the hard check itself.
        match self.probe(Probe::AllSofts) {
            SolveResult::Sat => {
                self.last_optimum = Some(0);
                return MaxSatResult::Optimum { cost: 0 };
            }
            SolveResult::Unknown => return MaxSatResult::Unknown,
            SolveResult::Unsat if self.softs.is_empty() => return MaxSatResult::HardUnsat,
            SolveResult::Unsat => {
                if let Some(verdict) = self.hard_refuted(Probe::AllSofts) {
                    return verdict;
                }
            }
        }
        let total = self.totalizer().len() as u64;
        // A probe at bound `k` asks for a model with at most `k` violated
        // softs: `¬outputs[k]` forbids `k + 1` true relaxations.
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
                return match self.probe(Probe::Hard) {
                    SolveResult::Sat => {
                        let cost = self.cost_of_current_model();
                        self.last_optimum = Some(cost);
                        MaxSatResult::Optimum { cost }
                    }
                    SolveResult::Unknown => MaxSatResult::Unknown,
                    SolveResult::Unsat => MaxSatResult::HardUnsat,
                };
            }
            let bound_lit = !self.totalizer().outputs()[k as usize];
            match self.probe(Probe::Bound(bound_lit)) {
                SolveResult::Sat => break self.cost_of_current_model(),
                SolveResult::Unknown => return MaxSatResult::Unknown,
                SolveResult::Unsat => {
                    if let Some(verdict) = self.hard_refuted(Probe::Bound(bound_lit)) {
                        return verdict;
                    }
                    refuted = k;
                    k += 1;
                }
            }
        };
        // Phase 2: tighten downward until the next-lower bound is refuted
        // (or meets a bound phase 1 already refuted). An Unknown exit is
        // not a proven optimum, so [`MaxSatSolver::violated_softs`] has
        // nothing to report after it.
        while cost > refuted + 1 {
            let bound_lit = !self.totalizer().outputs()[(cost - 1) as usize];
            match self.probe(Probe::Bound(bound_lit)) {
                SolveResult::Sat => cost = self.cost_of_current_model(),
                SolveResult::Unknown => return MaxSatResult::Unknown,
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

    /// After `probe` was refuted: when its UNSAT core holds none of the
    /// probe's own literals, the hard part is refuted under the caller's
    /// assumptions alone, and [`Probe::Hard`] runs once so the verdict's
    /// certificate scopes in only those. Returns the verdict that ends the
    /// search, or `None` to go on with the bound walk: the core named a
    /// probe literal, or the hard probe found a model after all.
    fn hard_refuted(&mut self, probe: Probe) -> Option<MaxSatResult> {
        let core = self.solver.unsat_core();
        let own = match probe {
            Probe::Hard => false,
            Probe::AllSofts => core.iter().any(|&l| self.is_relaxed_soft(l)),
            Probe::Bound(bound) => core.contains(&bound),
        };
        if own {
            return None;
        }
        match self.probe(Probe::Hard) {
            SolveResult::Unsat => Some(MaxSatResult::HardUnsat),
            SolveResult::Unknown => Some(MaxSatResult::Unknown),
            SolveResult::Sat => None,
        }
    }

    /// `true` if `lit` is `¬r` for the relaxation literal `r` of a soft
    /// clause: one of [`Probe::AllSofts`]' own assumptions. Relaxation
    /// variables are allocated in soft-clause order, so a binary search
    /// finds the candidate.
    fn is_relaxed_soft(&self, lit: Lit) -> bool {
        self.softs
            .binary_search_by_key(&lit.var(), |s| s.relax.var())
            .is_ok_and(|i| self.softs[i].relax == !lit)
    }

    /// One internal SAT probe under the caller's assumptions and what
    /// `probe` adds to them: polls cancellation first (a cancelled probe is
    /// not performed and answers `Unknown`, as a probe cancelled mid-search
    /// does).
    fn probe(&mut self, probe: Probe) -> SolveResult {
        if self.is_cancelled() {
            return SolveResult::Unknown;
        }
        self.stats.probes += 1;
        let callers = self.assumptions.len();
        match probe {
            Probe::Hard => {}
            Probe::AllSofts => self.assumptions.extend(self.softs.iter().map(|s| !s.relax)),
            Probe::Bound(bound) => self.assumptions.push(bound),
        }
        let result = self.solver.solve_with_assumptions(&self.assumptions);
        self.assumptions.truncate(callers);
        result
    }

    /// The persistent totalizer over the relaxation literals, encoded on
    /// first use and reused by every later bounded search (re-encoded only
    /// after [`MaxSatSolver::add_soft`] grows the relaxation set).
    fn totalizer(&mut self) -> &Totalizer {
        if self.totalizer.is_none() {
            let relaxations: Vec<Lit> = self.softs.iter().map(|s| s.relax).collect();
            self.totalizer = Some(Totalizer::encode(&mut self.solver, &relaxations));
        }
        // invariant: the branch above encodes the totalizer when absent.
        self.totalizer.as_ref().expect("totalizer just encoded")
    }

    /// Number of soft clauses the last SAT probe's model violates.
    fn cost_of_current_model(&self) -> u64 {
        let violated = self
            .softs
            .iter()
            .filter(|s| !s.holds(|var| self.solver.value(var)));
        violated.count() as u64
    }

    /// The soft clauses violated by the last optimum's model, in insertion
    /// order, read off that model as the iterator advances.
    ///
    /// # Panics
    ///
    /// Panics if the last solve call did not produce an optimum.
    pub fn violated_softs(&self) -> impl Iterator<Item = SoftId> + '_ {
        assert!(self.has_optimum, "no MaxSAT model available");
        let value = |var| self.solver.latest_model_value(var);
        (0..self.softs.len())
            .filter(move |&i| !self.softs[i].holds(value))
            .map(SoftId)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use manthan3_cnf::{Assignment, Clause};

    fn lit(d: i64) -> Lit {
        Lit::from_dimacs(d)
    }

    fn violated(s: &MaxSatSolver) -> Vec<SoftId> {
        s.violated_softs().collect()
    }

    #[test]
    fn all_softs_satisfiable() {
        let mut s = MaxSatSolver::new();
        s.add_hard([lit(1), lit(2)]);
        s.add_soft([lit(1)]);
        s.add_soft([lit(2)]);
        assert_eq!(s.solve(), MaxSatResult::Optimum { cost: 0 });
        assert!(violated(&s).is_empty());
    }

    #[test]
    fn must_violate_one_soft() {
        let mut s = MaxSatSolver::new();
        s.add_hard([lit(1), lit(2)]); // at least one true
        let s1 = s.add_soft([lit(-1)]);
        let s2 = s.add_soft([lit(-2)]);
        assert_eq!(s.solve(), MaxSatResult::Optimum { cost: 1 });
        let violated = violated(&s);
        assert_eq!(violated.len(), 1);
        assert!(violated[0] == s1 || violated[0] == s2);
    }

    #[test]
    fn hard_unsat_detected() {
        let mut s = MaxSatSolver::new();
        s.add_hard([lit(1)]);
        s.add_hard([lit(-1)]);
        s.add_soft([lit(2)]);
        assert_eq!(s.solve(), MaxSatResult::HardUnsat);
    }

    #[test]
    fn all_softs_violated() {
        let mut s = MaxSatSolver::new();
        s.add_hard([lit(1)]);
        s.add_hard([lit(2)]);
        s.add_soft([lit(-1)]);
        s.add_soft([lit(-2)]);
        assert_eq!(s.solve(), MaxSatResult::Optimum { cost: 2 });
        assert_eq!(violated(&s).len(), 2);
    }

    #[test]
    fn no_softs_is_plain_sat() {
        let mut s = MaxSatSolver::new();
        s.add_hard([lit(1), lit(2)]);
        assert_eq!(s.solve(), MaxSatResult::Optimum { cost: 0 });
        assert!(violated(&s).is_empty());
    }

    #[test]
    fn multi_literal_soft_clauses() {
        // Hard: ¬x1 ∧ ¬x2. Soft: (x1 ∨ x2) cannot be satisfied.
        let mut s = MaxSatSolver::new();
        s.add_hard([lit(-1)]);
        s.add_hard([lit(-2)]);
        let broken = s.add_soft([lit(1), lit(2)]);
        s.add_soft([lit(-1), lit(2)]);
        assert_eq!(s.solve(), MaxSatResult::Optimum { cost: 1 });
        assert_eq!(violated(&s), vec![broken]);
    }

    #[test]
    fn assumptions_pin_the_optimum_and_retract_between_calls() {
        // Hard: x1 ∨ x2. Softs prefer ¬x1 and ¬x2. Under the assumption x1
        // the optimum must violate the ¬x1 soft; under x2 the other one; with
        // no assumptions the cost-1 optimum is free to pick either.
        let mut s = MaxSatSolver::new();
        s.add_hard([lit(1), lit(2)]);
        let s1 = s.add_soft([lit(-1)]);
        let s2 = s.add_soft([lit(-2)]);
        assert_eq!(
            s.solve_under_assumptions(&[lit(1), lit(-2)]),
            MaxSatResult::Optimum { cost: 1 }
        );
        assert_eq!(violated(&s), vec![s1]);
        // The previous call's units are retracted, not persisted.
        assert_eq!(
            s.solve_under_assumptions(&[lit(2), lit(-1)]),
            MaxSatResult::Optimum { cost: 1 }
        );
        assert_eq!(violated(&s), vec![s2]);
        assert_eq!(s.solve(), MaxSatResult::Optimum { cost: 1 });
    }

    #[test]
    fn contradictory_assumptions_are_hard_unsat() {
        let mut s = MaxSatSolver::new();
        s.add_hard([lit(1)]);
        s.add_soft([lit(2)]);
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
        s.add_soft([lit(-1)]);
        s.add_soft([lit(-2)]);
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
        s.add_soft([lit(1), lit(2)]);
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
        s.add_soft([lit(-1)]);
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
        s.add_soft([var(0, 0).positive()]);
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
        // DQBF): the optimum is trivially 0, and the violated-soft set is
        // empty, with no panic on the accessor.
        let mut s = MaxSatSolver::new();
        s.add_hard([lit(1), lit(2)]);
        assert_eq!(
            s.solve_under_assumptions(&[lit(1)]),
            MaxSatResult::Optimum { cost: 0 }
        );
        assert!(violated(&s).is_empty());
    }

    #[test]
    #[should_panic(expected = "no MaxSAT model available")]
    fn unknown_outcomes_leave_no_stale_model() {
        // First solve finds an optimum (model stored); a cancelled re-solve
        // returns Unknown and must clear it, so reading the violated softs
        // afterwards panics as documented instead of reading a stale,
        // unproven model.
        use manthan3_sat::{CancelToken, SolverConfig};
        let token = CancelToken::new();
        let mut s = MaxSatSolver::with_config(SolverConfig::default().with_cancel(token.clone()));
        s.add_hard([lit(1), lit(2)]);
        s.add_soft([lit(-1)]);
        s.add_soft([lit(-2)]);
        assert_eq!(s.solve(), MaxSatResult::Optimum { cost: 1 });
        assert_eq!(violated(&s).len(), 1);
        token.cancel();
        assert_eq!(s.solve(), MaxSatResult::Unknown);
        let _ = s.violated_softs(); // must panic
    }

    /// 66 calls alternating a feasible and an infeasible pin run two
    /// maintenance passes, at the start of calls 33 and 65. Each pass frees
    /// a clause satisfied at level 0, so the database shrinks in exactly
    /// those calls. Every optimum stays the same, and every hard-UNSAT
    /// certificate, the ones after a pass included, is accepted.
    #[test]
    fn maintain_keeps_the_instance_correct() {
        use manthan3_drat::{check, ProofStep};
        let mut s = MaxSatSolver::with_config(SolverConfig::default().with_proof_logging(true));
        s.add_hard([lit(1), lit(2)]);
        s.add_hard([lit(-1), lit(-2)]);
        s.add_soft([lit(1)]);
        let cheap = s.add_soft([lit(2)]);
        // (a ∨ b) stays attached until a pass finds it satisfied by the
        // later unit a; a second pair added mid-run gives the second pass
        // the same work.
        let satisfied_pair = |s: &mut MaxSatSolver| {
            let (a, b) = (s.new_var().positive(), s.new_var().positive());
            s.add_hard([a, b]);
            s.add_hard([a]);
        };
        satisfied_pair(&mut s);
        let mut passes = Vec::new();
        for call in 1..=66 {
            if call == 40 {
                satisfied_pair(&mut s);
            }
            let clauses = s.num_solver_clauses();
            if call % 2 == 0 {
                assert_eq!(
                    s.solve_under_assumptions(&[lit(1)]),
                    MaxSatResult::Optimum { cost: 1 },
                    "call {call}"
                );
                assert_eq!(violated(&s), vec![cheap], "call {call}");
            } else {
                assert_eq!(
                    s.solve_under_assumptions(&[lit(-1), lit(-2)]),
                    MaxSatResult::HardUnsat,
                    "call {call}"
                );
                let cert = s.certificate().expect("hard-unsat certificate");
                let steps = cert.steps().map(ProofStep::from);
                assert!(
                    check(cert.cnf(), steps, || false).is_verified(),
                    "call {call}: certificate rejected"
                );
            }
            if s.num_solver_clauses() < clauses {
                passes.push(call);
            }
        }
        assert_eq!(passes, [33, 65]);
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
        s.add_soft([lit(3)]);
        assert_eq!(s.solve(), MaxSatResult::HardUnsat);
        let cert = s.certificate().expect("hard-unsat probe certificate");
        let steps = cert.steps().map(ProofStep::from);
        assert!(
            check(cert.cnf(), steps, || false).is_verified(),
            "certificate rejected"
        );
        assert!(s.proof_steps().0 > 0);
    }

    /// Solves under `pins`, expects a hard-UNSAT verdict reached in
    /// `probes` probes, and checks that its certificate is accepted and
    /// scopes in exactly `pins`, none of the search's own literals.
    fn assert_pinned_hard_unsat(s: &mut MaxSatSolver, pins: &[Lit], probes: u64) {
        use manthan3_drat::{check, ProofStep};
        let before = s.stats().probes;
        assert_eq!(s.solve_under_assumptions(pins), MaxSatResult::HardUnsat);
        assert_eq!(s.stats().probes - before, probes);
        let cert = s.certificate().expect("hard-unsat certificate");
        let pinned: Vec<i32> = pins.iter().map(|l| l.to_dimacs() as i32).collect();
        assert_eq!(cert.assumptions(), pinned);
        let steps = cert.steps().map(ProofStep::from);
        assert!(
            check(cert.cnf(), steps, || false).is_verified(),
            "certificate rejected"
        );
    }

    /// The pin `¬x1` contradicts the hard unit `x1`, so the optimistic
    /// probe's core is `{¬x1}` alone: the hard probe runs next and its
    /// certificate lists only the pin, not the relaxation literals.
    #[test]
    fn an_optimistic_core_of_pins_alone_ends_in_a_pinned_certificate() {
        let mut s = MaxSatSolver::with_config(SolverConfig::default().with_proof_logging(true));
        s.add_hard([lit(1)]);
        s.add_soft([lit(2)]);
        s.add_soft([lit(3)]);
        assert_pinned_hard_unsat(&mut s, &[lit(-1)], 2);
    }

    /// Under the pin `a` the hard part forces `¬p`, so assuming the soft
    /// `(p)` satisfied fails with a core that names its relaxation literal,
    /// and the search goes on to the bound probe. `a ∧ ¬p` is refuted only
    /// by search over `q` and `r`, which learns `¬a`: the bound probe's core
    /// is `{a}`, so the hard probe runs and the certificate lists only `a`.
    #[test]
    fn a_bound_core_of_pins_alone_ends_in_a_pinned_certificate() {
        let mut s = MaxSatSolver::with_config(SolverConfig::default().with_proof_logging(true));
        let (a, p, q, r) = (lit(1), lit(2), lit(3), lit(4));
        s.add_hard([!a, !p]);
        for (q, r) in [(q, r), (q, !r), (!q, r), (!q, !r)] {
            s.add_hard([!a, p, q, r]);
        }
        s.add_soft([p]);
        for _ in 0..3 {
            let free = s.new_var().positive();
            s.add_soft([free]);
        }
        // Optimistic, bound 1, hard: the walk stops at the first bound
        // probe instead of climbing to the fourth soft.
        assert_pinned_hard_unsat(&mut s, &[a], 3);
    }

    /// The relaxed instance is satisfiable, so the optimum search ends on a
    /// SAT probe: no certificate is claimed, and logging stays off (no
    /// proof steps) unless the configuration asks for it.
    #[test]
    fn sat_terminated_searches_withdraw_the_certificate() {
        let mut s = MaxSatSolver::with_config(SolverConfig::default().with_proof_logging(true));
        s.add_hard([lit(1), lit(2)]);
        s.add_soft([lit(-1)]);
        s.add_soft([lit(-2)]);
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
    /// assumption-set change. Alternating disjoint δ pins with very
    /// different optima stay correct, and every call's probe count is
    /// bounded by `optimum + 2` (optimistic check + climb from 1, with one
    /// probe to spare) — a stale warm bound from the other pin would seed
    /// the search at an unrelated level.
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
            s.add_soft([lit(-i)]);
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
        // optimistic check, the already-SAT probe at the warm optimum, and
        // one refuted confirming probe below it — 3 probes, no climb and no
        // separate hard check.
        assert_eq!(
            s.solve_under_assumptions(&[t, !u]),
            MaxSatResult::Optimum { cost: 3 }
        );
        let before = s.stats().probes;
        assert_eq!(
            s.solve_under_assumptions(&[t, !u]),
            MaxSatResult::Optimum { cost: 3 }
        );
        assert_eq!(s.stats().probes - before, 3);
    }

    /// A random clause of one or two literals over `num_vars` variables.
    fn random_clause(rng: &mut impl rand::Rng, num_vars: usize) -> Vec<Lit> {
        (0..rng.gen_range(1..3))
            .map(|_| Lit::new(Var::new(rng.gen_range(0..num_vars) as u32), rng.gen()))
            .collect()
    }

    /// The least number of `softs` violated by an assignment of
    /// `hard ∧ pins`, by enumeration; `None` when no assignment satisfies
    /// `hard ∧ pins`.
    fn brute_force_optimum(hard: &Cnf, softs: &[Vec<Lit>], pins: &[Lit]) -> Option<u64> {
        let num_vars = hard.num_vars();
        (0..1u32 << num_vars)
            .map(|bits| {
                Assignment::from_values((0..num_vars).map(|i| bits >> i & 1 == 1).collect())
            })
            .filter(|a| hard.eval(a) && pins.iter().all(|&p| a.lit_value(p)))
            .map(|a| {
                let violated = softs.iter().filter(|c| !Clause::new(c.to_vec()).eval(&a));
                violated.count() as u64
            })
            .min()
    }

    /// Reference check against brute force on random small instances over
    /// four and then five variables.
    #[test]
    fn agrees_with_brute_force() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut round = 0;
        for (seed, rounds, num_vars) in [(2024, 30, 4), (0x0C0E_2026, 40, 5)] {
            let mut rng = SmallRng::seed_from_u64(seed);
            for _ in 0..rounds {
                let mut hard = Cnf::new(num_vars);
                for _ in 0..rng.gen_range(1..=num_vars) {
                    hard.add_clause(random_clause(&mut rng, num_vars));
                }
                let softs: Vec<Vec<Lit>> = (0..rng.gen_range(1..=num_vars))
                    .map(|_| random_clause(&mut rng, num_vars))
                    .collect();
                let mut solver = MaxSatSolver::new();
                solver.add_hard_cnf(&hard);
                for c in &softs {
                    solver.add_soft(c.iter().copied());
                }
                let result = solver.solve();
                match brute_force_optimum(&hard, &softs, &[]) {
                    None => assert_eq!(result, MaxSatResult::HardUnsat, "round {round}"),
                    Some(opt) => {
                        assert_eq!(result, MaxSatResult::Optimum { cost: opt }, "round {round}");
                        assert_eq!(solver.violated_softs().count() as u64, opt, "round {round}");
                    }
                }
                round += 1;
            }
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
            let softs: Vec<Vec<Lit>> = (0..num_vars)
                .map(|v| vec![Var::new(v as u32).negative()])
                .collect();
            for c in &softs {
                solver.add_soft(c.iter().copied());
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
                            solver.violated_softs().count() as u64,
                            opt,
                            "round {round} query {query}"
                        );
                    }
                }
            }
        }
    }
}
