use crate::Totalizer;
use manthan3_cnf::{Assignment, Clause, Cnf, Lit, Var};
use manthan3_sat::{CallBudget, SolveResult, Solver, SolverConfig, SolverStats};
use std::collections::HashMap;
use std::fmt;
use std::str::FromStr;

/// Identifier of a soft clause, returned by [`MaxSatSolver::add_soft`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SoftId(usize);

impl SoftId {
    /// Index of the soft clause in insertion order.
    pub fn index(self) -> usize {
        self.0
    }
}

/// How [`MaxSatSolver::solve_under_assumptions`] locates the optimum.
///
/// * [`RepairStrategy::Linear`] — the totalizer-bound two-phase search:
///   climb the violated-weight bound upward from the warm start while UNSAT,
///   then tighten downward from the first model's cost. One SAT probe per
///   cost unit crossed, so instances whose optimum jumps between incremental
///   calls pay one probe per unit of the jump.
/// * [`RepairStrategy::CoreGuided`] — Fu–Malik/OLL-style core-guided
///   optimization over the persistent encoding: each UNSAT probe yields a
///   core over the soft-unit assumption literals, the core is relaxed with a
///   totalizer over its violation indicators (cached across calls, its bound
///   raised incrementally when the group reappears in later cores), and the
///   lower bound rises by one per core — the optimum is reached in
///   `#cores + 1` probes. Falls back to the linear search on weighted
///   instances (the repair loop's softs are always unit weight).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum RepairStrategy {
    /// Warm-started linear (two-phase) bound search on the global totalizer.
    #[default]
    Linear,
    /// Core-guided (OLL over soft-unit assumptions) optimization.
    CoreGuided,
}

impl fmt::Display for RepairStrategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            RepairStrategy::Linear => "linear",
            RepairStrategy::CoreGuided => "core-guided",
        };
        write!(f, "{name}")
    }
}

impl FromStr for RepairStrategy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "linear" => Ok(RepairStrategy::Linear),
            "core-guided" | "core_guided" | "coreguided" => Ok(RepairStrategy::CoreGuided),
            other => Err(format!(
                "unknown repair strategy {other:?} (expected linear or core-guided)"
            )),
        }
    }
}

/// Search-effort counters of a [`MaxSatSolver`], accumulated across every
/// solve call of the instance.
///
/// `probes` counts the internal SAT oracle calls issued by the optimum
/// search (hard-satisfiability checks, optimistic checks, bound probes, and
/// core-guided iterations alike) — the unit the strategies compete on;
/// `cores` counts the UNSAT cores the core-guided strategy relaxed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MaxSatStats {
    /// Internal SAT probes issued across all solve calls.
    pub probes: u64,
    /// UNSAT cores extracted and relaxed by the core-guided strategy.
    pub cores: u64,
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
    /// A conflict or call budget was exhausted before the optimum was
    /// proved.
    Unknown,
    /// The solve was cooperatively cancelled (the configured
    /// [`CancelToken`](manthan3_sat::CancelToken) fired) mid-search. No
    /// best-so-far bound is ever reported as the optimum: like
    /// [`MaxSatResult::Unknown`], a cancelled call leaves no model behind.
    Cancelled,
}

/// Verdict of one internal SAT probe, with budget refusals and cancellation
/// separated from genuine conflict-budget exhaustion.
enum Probe {
    Sat,
    Unsat,
    Unknown,
    Cancelled,
    /// The shared [`CallBudget`] refused the probe; it was not performed.
    Refused,
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
    /// Only the linear strategy ever builds it — the core-guided strategy
    /// encodes small per-core totalizers instead.
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
    /// The optimization strategy used by the next solve call.
    strategy: RepairStrategy,
    /// Cardinality networks encoded for relaxed cores, keyed by their sorted
    /// input literals. Cores recur across incremental calls (the same
    /// outputs conflict under many counterexamples), so a cached network is
    /// reused — its assumption bound simply raised — instead of re-encoding
    /// the totalizer per call.
    core_totalizers: HashMap<Vec<Lit>, Vec<Lit>>,
    /// Shared call allowance every internal SAT probe draws on (attached by
    /// the oracle layer); probes are refused — not performed — once it is
    /// exhausted, exactly like top-level SAT solves.
    calls: Option<CallBudget>,
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

    /// Creates an instance whose SAT oracle calls are limited to
    /// `max_conflicts` conflicts each. When the budget is exhausted,
    /// [`MaxSatSolver::solve`] returns [`MaxSatResult::Unknown`].
    pub fn with_conflict_budget(max_conflicts: u64) -> Self {
        MaxSatSolver::with_config(SolverConfig::budgeted(max_conflicts))
    }

    /// Creates an instance whose internal SAT solver uses `config` — the way
    /// to pass a conflict budget *and* a cancellation token in one go (as the
    /// shared oracle layer does).
    pub fn with_config(config: SolverConfig) -> Self {
        MaxSatSolver {
            solver: Solver::with_config(config),
            softs: Vec::new(),
            model: None,
            totalizer: None,
            last_optimum: None,
            last_assumptions: Vec::new(),
            strategy: RepairStrategy::default(),
            core_totalizers: HashMap::new(),
            calls: None,
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
    /// plus any caller assumptions — were refuted) or a linear-search
    /// optimum whose final act was refuting the bound below the reported
    /// cost. In both cases the certificate covers that closing refutation,
    /// with the probe's assumptions (including any totalizer bound literal)
    /// scoped in as unit clauses of the certificate CNF. A probe loop that
    /// ends on a SAT verdict withdraws the certificate, exactly like
    /// [`Solver::certificate`](manthan3_sat::Solver::certificate).
    pub fn certificate(&self) -> Option<manthan3_sat::Certificate> {
        self.solver.certificate()
    }

    /// Size in bytes of the internal solver's accumulated DRAT log (0 when
    /// proof logging is disabled).
    pub fn proof_len(&self) -> usize {
        self.solver.proof_len()
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

    /// Search-effort counters (SAT probes issued, cores relaxed),
    /// accumulated across every solve call of this instance.
    pub fn stats(&self) -> MaxSatStats {
        self.stats
    }

    /// The strategy the next solve call will use.
    pub fn strategy(&self) -> RepairStrategy {
        self.strategy
    }

    /// Selects the optimization strategy for subsequent solve calls. The
    /// encoding is shared, so the strategy may be switched between
    /// incremental calls at any time.
    pub fn set_strategy(&mut self, strategy: RepairStrategy) {
        self.strategy = strategy;
    }

    /// Attaches a shared call allowance: every internal SAT probe of every
    /// subsequent solve call draws one call from it first and is refused —
    /// reported as [`MaxSatResult::Unknown`] — once the allowance is
    /// exhausted. This is how the oracle layer makes MaxSAT bound searches
    /// draw on the same budget as every other solve.
    pub fn set_call_budget(&mut self, calls: CallBudget) {
        self.calls = Some(calls);
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
    /// Invalidates the cached totalizer (the next linear bounded search
    /// re-encodes the cardinality network over the enlarged relaxation set)
    /// and the warm-start bound. Cached per-core totalizers stay valid —
    /// their inputs are unaffected by new softs.
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
    /// database (resetting its growth threshold), compacts away clauses
    /// satisfied at level 0, and runs one bounded inprocessing pass
    /// (self-subsumption + vivification, a no-op under configurations that
    /// disable it). Long-lived incremental instances (one MaxSAT solver
    /// across hundreds of `solve_under_assumptions` calls) call this
    /// periodically so the solver state stays bounded, mirroring
    /// `VerifySession`'s error-solver maintenance. The warm-start bound is
    /// dropped alongside; the cached totalizers survive (their clauses are
    /// never level-0 satisfied — relaxation literals are only ever assumed,
    /// and inprocessing is equivalence-preserving, so the relaxation
    /// structure stays sound).
    pub fn maintain(&mut self) {
        self.last_optimum = None;
        self.solver.reduce_learnt_db();
        self.solver.simplify();
        self.solver.inprocess();
    }

    /// Number of soft clauses.
    pub fn num_softs(&self) -> usize {
        self.softs.len()
    }

    /// Total weight of all soft clauses.
    pub fn total_weight(&self) -> u64 {
        self.softs.iter().map(|s| s.weight).sum()
    }

    /// Finds an assignment satisfying all hard clauses that minimizes the
    /// total weight of violated soft clauses.
    ///
    /// An already-exhausted shared call allowance is refused up front —
    /// the internal probes would each be refused anyway, so this skips
    /// straight to the verdict an out-of-budget search would reach.
    pub fn solve(&mut self) -> MaxSatResult {
        if self.calls.as_ref().is_some_and(|calls| calls.exhausted()) {
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
    /// CDCL solver, its learnt clauses, the cached totalizers, and any
    /// relaxed core structure all survive between calls.
    ///
    /// The search runs under the configured [`RepairStrategy`]; weighted
    /// instances always take the linear path (core-guided relaxation is
    /// implemented for the unit weights the repair loop uses).
    pub fn solve_under_assumptions(&mut self, assumptions: &[Lit]) -> MaxSatResult {
        self.model = None;
        // A warm-start bound is only meaningful for the assumption set it
        // was proved under: a changed set (e.g. a repair loop pinning a
        // disjoint σ) invalidates it, so the linear search can never start
        // from a bound unrelated — possibly infeasible — for the new query.
        if self.last_assumptions != assumptions {
            self.last_optimum = None;
            self.last_assumptions = assumptions.to_vec();
        }
        match self.strategy {
            RepairStrategy::CoreGuided if self.softs.iter().all(|s| s.weight == 1) => {
                self.solve_core_guided(assumptions)
            }
            _ => self.solve_linear(assumptions),
        }
    }

    /// Returns `true` once the configured cancellation token has fired.
    fn is_cancelled(&self) -> bool {
        self.solver
            .config()
            .cancel
            .as_ref()
            .is_some_and(|token| token.is_cancelled())
    }

    /// One internal SAT probe: polls cancellation, draws on the shared call
    /// allowance (a refused probe is not performed), and classifies an
    /// Unknown verdict as cancellation when the token fired mid-search.
    fn probe(&mut self, assumptions: &[Lit]) -> Probe {
        if self.is_cancelled() {
            return Probe::Cancelled;
        }
        // Admission on the straight-line path: a missing allowance admits,
        // a present one is drawn from (and refuses when spent).
        let admitted = self.calls.as_ref().is_none_or(|calls| calls.try_acquire());
        if !admitted {
            return Probe::Refused;
        }
        self.stats.probes += 1;
        match self.solver.solve_with_assumptions(assumptions) {
            SolveResult::Sat => Probe::Sat,
            SolveResult::Unsat => Probe::Unsat,
            SolveResult::Unknown => {
                if self.is_cancelled() {
                    Probe::Cancelled
                } else {
                    Probe::Unknown
                }
            }
        }
    }

    /// The linear strategy: two-phase bound search over the violated weight
    /// on the persistent global totalizer, warm-started at the previous
    /// call's optimum — walk the bound up from there while UNSAT, then
    /// tighten downward from the first model's true cost until the bound
    /// below it is refuted. With a stable objective the whole search is
    /// typically one or two probes.
    fn solve_linear(&mut self, assumptions: &[Lit]) -> MaxSatResult {
        // Is the hard part satisfiable at all (under the assumptions)?
        match self.probe(assumptions) {
            Probe::Unsat => return MaxSatResult::HardUnsat,
            Probe::Unknown | Probe::Refused => return MaxSatResult::Unknown,
            Probe::Cancelled => return MaxSatResult::Cancelled,
            Probe::Sat => {}
        }
        if self.softs.is_empty() {
            self.model = Some(self.solver.model());
            return MaxSatResult::Optimum { cost: 0 };
        }
        // Optimistic check: can every soft clause be satisfied?
        let mut optimistic: Vec<Lit> = assumptions.to_vec();
        optimistic.extend(self.softs.iter().map(|s| !s.relax));
        match self.probe(&optimistic) {
            Probe::Sat => {
                self.model = Some(self.solver.model());
                self.last_optimum = Some(0);
                return MaxSatResult::Optimum { cost: 0 };
            }
            Probe::Unknown | Probe::Refused => return MaxSatResult::Unknown,
            Probe::Cancelled => return MaxSatResult::Cancelled,
            Probe::Unsat => {}
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
                    Probe::Sat => {
                        self.model = Some(self.solver.model());
                        let cost = self.cost_of_current_model();
                        self.last_optimum = Some(cost);
                        MaxSatResult::Optimum { cost }
                    }
                    Probe::Unknown | Probe::Refused => MaxSatResult::Unknown,
                    Probe::Cancelled => MaxSatResult::Cancelled,
                    Probe::Unsat => MaxSatResult::HardUnsat,
                };
            }
            let bound_lit = !self.totalizer().outputs()[k as usize];
            bounded.clear();
            bounded.extend_from_slice(assumptions);
            bounded.push(bound_lit);
            match self.probe(&bounded) {
                Probe::Sat => {
                    self.model = Some(self.solver.model());
                    break self.cost_of_current_model();
                }
                Probe::Unknown | Probe::Refused => {
                    self.model = None;
                    return MaxSatResult::Unknown;
                }
                Probe::Cancelled => {
                    self.model = None;
                    return MaxSatResult::Cancelled;
                }
                Probe::Unsat => {
                    refuted = k;
                    k += 1;
                }
            }
        };
        // Phase 2: tighten downward until the next-lower bound is refuted
        // (or meets a bound phase 1 already refuted). An Unknown or
        // Cancelled exit clears the model found so far: it is not a proven
        // optimum, and [`MaxSatSolver::model`] documents that nothing is
        // available after a non-Optimum outcome.
        while cost > refuted + 1 {
            let bound_lit = !self.totalizer().outputs()[(cost - 1) as usize];
            bounded.clear();
            bounded.extend_from_slice(assumptions);
            bounded.push(bound_lit);
            match self.probe(&bounded) {
                Probe::Sat => {
                    self.model = Some(self.solver.model());
                    cost = self.cost_of_current_model();
                }
                Probe::Unknown | Probe::Refused => {
                    self.model = None;
                    return MaxSatResult::Unknown;
                }
                Probe::Cancelled => {
                    self.model = None;
                    return MaxSatResult::Cancelled;
                }
                Probe::Unsat => break,
            }
        }
        self.last_optimum = Some(cost);
        MaxSatResult::Optimum { cost }
    }

    /// The core-guided strategy (OLL over the soft-unit assumption
    /// literals): assume every soft satisfied, and while the SAT oracle
    /// refutes the assumption set, extract the final-conflict core over the
    /// active soft assumptions, relax it with a totalizer over its violation
    /// indicators (allowing one violation within the group), and raise the
    /// proven lower bound by one. A group named by a later core has its
    /// bound raised instead — its exceeded-bound indicator joins the new
    /// group — so nested cores stay bounded. The first satisfiable probe is
    /// the optimum, after exactly `#cores + 1` probes; per-core totalizers
    /// are cached across incremental calls, so recurring cores only pay the
    /// probe, never the re-encoding.
    ///
    /// Only called for unit-weight instances (the dispatch in
    /// [`MaxSatSolver::solve_under_assumptions`] falls back to the linear
    /// search otherwise), so every core raises the bound by exactly one.
    fn solve_core_guided(&mut self, assumptions: &[Lit]) -> MaxSatResult {
        /// One active "no (further) violations here" assumption: a plain
        /// soft (`¬relax`) or a relaxed core group (`¬outputs[bound]`).
        struct Entry {
            assume: Lit,
            /// Totalizer outputs of a relaxed group; `None` for a plain
            /// soft.
            outputs: Option<Vec<Lit>>,
            /// Violations currently allowed within the group.
            bound: usize,
        }
        let mut active: Vec<Entry> = self
            .softs
            .iter()
            .map(|s| Entry {
                assume: !s.relax,
                outputs: None,
                bound: 0,
            })
            .collect();
        let mut lower_bound = 0u64;
        let mut probe_lits: Vec<Lit> = Vec::with_capacity(assumptions.len() + active.len());
        loop {
            probe_lits.clear();
            probe_lits.extend_from_slice(assumptions);
            probe_lits.extend(active.iter().map(|e| e.assume));
            match self.probe(&probe_lits) {
                Probe::Sat => {
                    self.model = Some(self.solver.model());
                    let cost = self.cost_of_current_model();
                    debug_assert_eq!(
                        cost, lower_bound,
                        "OLL bookkeeping must account for every violation"
                    );
                    self.last_optimum = Some(cost);
                    return MaxSatResult::Optimum { cost };
                }
                Probe::Unknown | Probe::Refused => {
                    self.model = None;
                    return MaxSatResult::Unknown;
                }
                Probe::Cancelled => {
                    self.model = None;
                    return MaxSatResult::Cancelled;
                }
                Probe::Unsat => {
                    // `unsat_core` is sorted and deduplicated, so membership
                    // is a binary search. Caller assumptions in the core are
                    // left alone — only active soft assumptions are relaxed.
                    let core: Vec<Lit> = self.solver.unsat_core().to_vec();
                    let hit: Vec<usize> = active
                        .iter()
                        .enumerate()
                        .filter(|(_, e)| core.binary_search(&e.assume).is_ok())
                        .map(|(i, _)| i)
                        .collect();
                    if hit.is_empty() {
                        // The conflict involves only hard clauses and the
                        // caller's assumptions: no relaxation can help.
                        return MaxSatResult::HardUnsat;
                    }
                    lower_bound += 1;
                    self.stats.cores += 1;
                    // Collect the violation indicators of the core members
                    // (descending index order keeps swap_remove sound).
                    let mut inputs: Vec<Lit> = Vec::with_capacity(hit.len());
                    for &i in hit.iter().rev() {
                        if active[i].outputs.is_none() {
                            // Plain soft: its relaxation variable joins the
                            // new group, and the soft leaves the active set
                            // for the rest of the call.
                            inputs.push(!active[i].assume);
                            active.swap_remove(i);
                            continue;
                        }
                        // Relaxed group: its exceeded-bound indicator joins
                        // the new group AND its own bound is raised, so the
                        // group stays bounded (the RC2 discipline).
                        let (escalate, next_assume) = {
                            let entry = &active[i];
                            // invariant: `i` indexes the group partition of
                            // `active`, whose entries all carry outputs.
                            let outputs = entry.outputs.as_ref().expect("group entry");
                            let next = entry.bound + 1;
                            (
                                outputs[entry.bound],
                                (next < outputs.len()).then(|| !outputs[next]),
                            )
                        };
                        inputs.push(escalate);
                        match next_assume {
                            Some(assume) => {
                                let entry = &mut active[i];
                                entry.bound += 1;
                                entry.assume = assume;
                            }
                            // Bound reached the group size: vacuous, drop.
                            None => {
                                active.swap_remove(i);
                            }
                        }
                    }
                    // A singleton core needs no counting structure: its one
                    // violation is fully absorbed by the raised lower bound.
                    if inputs.len() >= 2 {
                        inputs.sort();
                        let outputs = self.core_totalizer(&inputs);
                        active.push(Entry {
                            assume: !outputs[1],
                            outputs: Some(outputs),
                            bound: 1,
                        });
                    }
                }
            }
        }
    }

    /// The cardinality network over a relaxed core's violation indicators,
    /// encoded on first sight of the input set and reused by every later
    /// call that rediscovers the same core (its bound is raised purely by
    /// assuming a higher output).
    fn core_totalizer(&mut self, inputs: &[Lit]) -> Vec<Lit> {
        if let Some(outputs) = self.core_totalizers.get(inputs) {
            return outputs.clone();
        }
        let totalizer = Totalizer::encode(&mut self.solver, inputs);
        let outputs = totalizer.outputs().to_vec();
        self.core_totalizers
            .insert(inputs.to_vec(), outputs.clone());
        outputs
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

    /// Runs the same instance-building closure under both strategies and
    /// asserts identical results.
    fn both_strategies(build: impl Fn(&mut MaxSatSolver)) -> (MaxSatResult, MaxSatResult) {
        let mut linear = MaxSatSolver::new();
        build(&mut linear);
        let mut core = MaxSatSolver::new();
        core.set_strategy(RepairStrategy::CoreGuided);
        build(&mut core);
        (linear.solve(), core.solve())
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
        // Cancellation is surfaced as its own verdict, never folded into
        // Unknown and never reported as a best-so-far optimum.
        assert_eq!(s.solve(), MaxSatResult::Cancelled);
    }

    #[test]
    fn cancellation_mid_search_reports_cancelled_for_both_strategies() {
        use manthan3_sat::{CancelToken, SolverConfig};
        use std::time::{Duration, Instant};
        // An unsatisfiable pigeonhole hard part far beyond what the test
        // environment can refute quickly: the first probe of either strategy
        // runs long, and a token cancelled from another thread must turn the
        // in-flight bound search into `Cancelled` — not into the best-so-far
        // bound, not into `Unknown`.
        for strategy in [RepairStrategy::Linear, RepairStrategy::CoreGuided] {
            let token = CancelToken::new();
            let mut s =
                MaxSatSolver::with_config(SolverConfig::default().with_cancel(token.clone()));
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
            s.set_strategy(strategy);
            let canceller = std::thread::spawn({
                let token = token.clone();
                move || {
                    std::thread::sleep(Duration::from_millis(20));
                    token.cancel();
                }
            });
            let start = Instant::now();
            assert_eq!(s.solve(), MaxSatResult::Cancelled, "{strategy}");
            assert!(
                start.elapsed() < std::time::Duration::from_secs(20),
                "{strategy}: cancellation did not interrupt the search"
            );
            canceller.join().expect("canceller thread");
        }
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
        // returns Cancelled and must clear it, so reading the model
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
        assert_eq!(s.solve(), MaxSatResult::Cancelled);
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
        use manthan3_drat::{check, parse_text_proof, CheckOutcome};
        for strategy in [RepairStrategy::Linear, RepairStrategy::CoreGuided] {
            let mut s = MaxSatSolver::with_config(SolverConfig::default().with_proof_logging(true));
            s.set_strategy(strategy);
            s.add_hard([lit(1), lit(2)]);
            s.add_hard([lit(-1)]);
            s.add_hard([lit(-2)]);
            s.add_soft([lit(3)], 1);
            assert_eq!(s.solve(), MaxSatResult::HardUnsat, "{strategy}");
            let cert = s.certificate().expect("hard-unsat probe certificate");
            let text = std::str::from_utf8(&cert.proof).expect("text DRAT");
            let proof = parse_text_proof(text).expect("well-formed proof");
            assert!(
                matches!(check(&cert.dimacs_cnf(), &proof), CheckOutcome::Verified(_)),
                "{strategy}: certificate rejected"
            );
            assert!(s.proof_len() > 0, "{strategy}");
            assert!(s.proof_steps().0 > 0, "{strategy}");
        }
    }

    /// The relaxed instance is satisfiable, so the optimum search ends on a
    /// SAT probe: no certificate is claimed, and logging stays off (zero
    /// proof bytes) unless the configuration asks for it.
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
        assert_eq!(silent.proof_len(), 0);
        assert!(silent.certificate().is_none());
    }

    #[test]
    fn strategy_names_round_trip() {
        for strategy in [RepairStrategy::Linear, RepairStrategy::CoreGuided] {
            assert_eq!(strategy.to_string().parse::<RepairStrategy>(), Ok(strategy));
        }
        assert_eq!("core_guided".parse(), Ok(RepairStrategy::CoreGuided));
        assert!("fu-malik".parse::<RepairStrategy>().is_err());
        assert_eq!(RepairStrategy::default(), RepairStrategy::Linear);
    }

    type InstanceBuilder = Box<dyn Fn(&mut MaxSatSolver)>;

    #[test]
    fn core_guided_agrees_on_the_basic_instances() {
        // The small hand-written shapes, each solved by both strategies.
        let cases: Vec<(InstanceBuilder, MaxSatResult)> = vec![
            (
                Box::new(|s: &mut MaxSatSolver| {
                    s.add_hard([lit(1), lit(2)]);
                    s.add_soft([lit(-1)], 1);
                    s.add_soft([lit(-2)], 1);
                }),
                MaxSatResult::Optimum { cost: 1 },
            ),
            (
                Box::new(|s: &mut MaxSatSolver| {
                    s.add_hard([lit(1)]);
                    s.add_hard([lit(2)]);
                    s.add_soft([lit(-1)], 1);
                    s.add_soft([lit(-2)], 1);
                }),
                MaxSatResult::Optimum { cost: 2 },
            ),
            (
                Box::new(|s: &mut MaxSatSolver| {
                    s.add_hard([lit(1)]);
                    s.add_hard([lit(-1)]);
                    s.add_soft([lit(2)], 1);
                }),
                MaxSatResult::HardUnsat,
            ),
            (
                Box::new(|s: &mut MaxSatSolver| {
                    s.add_hard([lit(1), lit(2)]);
                    s.add_soft([lit(1)], 1);
                    s.add_soft([lit(2)], 1);
                }),
                MaxSatResult::Optimum { cost: 0 },
            ),
        ];
        for (build, expected) in cases {
            let (linear, core) = both_strategies(|s| build(s));
            assert_eq!(linear, expected);
            assert_eq!(core, expected);
        }
    }

    #[test]
    fn core_guided_reaches_the_optimum_in_fewer_probes() {
        // Hard: x1 ∧ x2 ∧ x3 forces all three unit softs violated. The
        // linear search pays the hard check, the optimistic check, and the
        // full bound climb; core-guided pays one probe per core plus the
        // final model.
        let mut linear = MaxSatSolver::new();
        let mut core = MaxSatSolver::new();
        core.set_strategy(RepairStrategy::CoreGuided);
        for s in [&mut linear, &mut core] {
            s.add_hard([lit(1)]);
            s.add_hard([lit(2)]);
            s.add_hard([lit(3)]);
            s.add_soft([lit(-1)], 1);
            s.add_soft([lit(-2)], 1);
            s.add_soft([lit(-3)], 1);
        }
        assert_eq!(linear.solve(), MaxSatResult::Optimum { cost: 3 });
        assert_eq!(core.solve(), MaxSatResult::Optimum { cost: 3 });
        assert_eq!(core.stats().cores, 3);
        assert!(
            core.stats().probes < linear.stats().probes,
            "core-guided took {} probes, linear {}",
            core.stats().probes,
            linear.stats().probes
        );
    }

    #[test]
    fn core_guided_relaxations_stay_sound_across_assumption_changes() {
        // Two disjoint σ-style pins over a shared encoding: t1/t2 pin which
        // side of the hard disjunction must hold, flipping which soft is
        // violated. The relaxation structure discovered under one pin must
        // not leak an unsound bound into the other.
        let mut s = MaxSatSolver::new();
        s.set_strategy(RepairStrategy::CoreGuided);
        s.add_hard([lit(1), lit(2)]);
        let s1 = s.add_soft([lit(-1)], 1);
        let s2 = s.add_soft([lit(-2)], 1);
        for round in 0..6 {
            let (pins, expect): (&[Lit], SoftId) = if round % 2 == 0 {
                (&[lit(1), lit(-2)], s1)
            } else {
                (&[lit(2), lit(-1)], s2)
            };
            assert_eq!(
                s.solve_under_assumptions(pins),
                MaxSatResult::Optimum { cost: 1 },
                "round {round}"
            );
            assert_eq!(s.violated_softs(), vec![expect], "round {round}");
        }
        // Each call discovers exactly one (singleton) core.
        assert_eq!(s.stats().cores, 6);
    }

    #[test]
    fn core_guided_caches_recurring_core_totalizers() {
        // Hard: at most one of x1..x3 true, pinned so that two of the three
        // unit softs (x_i) must be violated: the same two-element cores
        // recur on every call, and the cached networks keep the solver's
        // variable count flat after the first discovery.
        let mut s = MaxSatSolver::new();
        s.set_strategy(RepairStrategy::CoreGuided);
        s.add_hard([lit(-1), lit(-2)]);
        s.add_hard([lit(-1), lit(-3)]);
        s.add_hard([lit(-2), lit(-3)]);
        s.add_soft([lit(1)], 1);
        s.add_soft([lit(2)], 1);
        s.add_soft([lit(3)], 1);
        assert_eq!(s.solve(), MaxSatResult::Optimum { cost: 2 });
        let vars_after_first = s.solver.num_vars();
        let clauses_after_first = s.num_solver_clauses();
        for _ in 0..10 {
            assert_eq!(s.solve(), MaxSatResult::Optimum { cost: 2 });
        }
        assert_eq!(s.solver.num_vars(), vars_after_first);
        assert_eq!(s.num_solver_clauses(), clauses_after_first);
    }

    #[test]
    fn weighted_instances_fall_back_to_the_linear_search() {
        let mut s = MaxSatSolver::new();
        s.set_strategy(RepairStrategy::CoreGuided);
        s.add_hard([lit(1), lit(2)]);
        s.add_hard([lit(-1), lit(-2)]);
        s.add_soft([lit(1)], 5);
        let cheap = s.add_soft([lit(2)], 1);
        assert_eq!(s.solve(), MaxSatResult::Optimum { cost: 1 });
        assert_eq!(s.violated_softs(), vec![cheap]);
        // The weighted dispatch took the linear path: no cores.
        assert_eq!(s.stats().cores, 0);
    }

    /// Satellite regression: the linear warm-start bound must not survive an
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

    /// Satellite regression: internal SAT probes draw on the shared
    /// [`CallBudget`] and are refused — mid-bound-search — once it is
    /// exhausted, mirroring `call_budget_cuts_off_further_solves`.
    #[test]
    fn call_budget_cuts_off_the_probe_loop() {
        for strategy in [RepairStrategy::Linear, RepairStrategy::CoreGuided] {
            let mut s = MaxSatSolver::new();
            s.set_strategy(strategy);
            let calls = CallBudget::limited(2);
            s.set_call_budget(calls.clone());
            // Optimum 2 needs ≥ 3 probes on either strategy (core-guided:
            // two cores plus the model; linear: hard check, optimistic
            // check, climb).
            s.add_hard([lit(1)]);
            s.add_hard([lit(2)]);
            s.add_soft([lit(-1)], 1);
            s.add_soft([lit(-2)], 1);
            assert_eq!(s.solve(), MaxSatResult::Unknown, "{strategy}");
            // Exactly the allowance was consumed; the refused probe was
            // never performed.
            assert_eq!(calls.consumed(), 2, "{strategy}");
            assert_eq!(s.stats().probes, 2, "{strategy}");
            assert!(calls.exhausted(), "{strategy}");
        }
    }

    /// Reference check against brute force on random small instances.
    #[test]
    fn agrees_with_brute_force() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(2024);
        for round in 0..30 {
            let num_vars = 4;
            let mut hard = Cnf::new(num_vars);
            for _ in 0..rng.gen_range(1..5) {
                let clause: Vec<Lit> = (0..rng.gen_range(1..3))
                    .map(|_| Lit::new(Var::new(rng.gen_range(0..num_vars) as u32), rng.gen()))
                    .collect();
                hard.add_clause(clause);
            }
            let softs: Vec<(Vec<Lit>, u64)> = (0..rng.gen_range(1..5))
                .map(|_| {
                    let clause: Vec<Lit> = (0..rng.gen_range(1..3))
                        .map(|_| Lit::new(Var::new(rng.gen_range(0..num_vars) as u32), rng.gen()))
                        .collect();
                    (clause, rng.gen_range(1..4) as u64)
                })
                .collect();

            // Brute-force optimum.
            let mut best: Option<u64> = None;
            for bits in 0..1u32 << num_vars {
                let a =
                    Assignment::from_values((0..num_vars).map(|i| bits >> i & 1 == 1).collect());
                if !hard.eval(&a) {
                    continue;
                }
                let cost: u64 = softs
                    .iter()
                    .filter(|(c, _)| !Clause::new(c.clone()).eval(&a))
                    .map(|(_, w)| *w)
                    .sum();
                best = Some(best.map_or(cost, |b: u64| b.min(cost)));
            }

            let mut solver = MaxSatSolver::new();
            solver.add_hard_cnf(&hard);
            for (c, w) in &softs {
                solver.add_soft(c.clone(), *w);
            }
            let result = solver.solve();
            match best {
                None => assert_eq!(result, MaxSatResult::HardUnsat, "round {round}"),
                Some(opt) => {
                    assert_eq!(result, MaxSatResult::Optimum { cost: opt }, "round {round}")
                }
            }
        }
    }

    /// Brute-force reference for the core-guided strategy on random
    /// unit-weight instances (the shape the repair loop produces), with the
    /// linear strategy run on the same instance as a second witness.
    #[test]
    fn core_guided_agrees_with_brute_force_on_unit_weights() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(0x0C0E_2026);
        for round in 0..40 {
            let num_vars = 5;
            let mut hard = Cnf::new(num_vars);
            for _ in 0..rng.gen_range(1..6) {
                let clause: Vec<Lit> = (0..rng.gen_range(1..3))
                    .map(|_| Lit::new(Var::new(rng.gen_range(0..num_vars) as u32), rng.gen()))
                    .collect();
                hard.add_clause(clause);
            }
            let softs: Vec<Vec<Lit>> = (0..rng.gen_range(1..6))
                .map(|_| {
                    (0..rng.gen_range(1..3))
                        .map(|_| Lit::new(Var::new(rng.gen_range(0..num_vars) as u32), rng.gen()))
                        .collect()
                })
                .collect();

            let mut best: Option<u64> = None;
            for bits in 0..1u32 << num_vars {
                let a =
                    Assignment::from_values((0..num_vars).map(|i| bits >> i & 1 == 1).collect());
                if !hard.eval(&a) {
                    continue;
                }
                let cost = softs
                    .iter()
                    .filter(|c| !Clause::new((*c).clone()).eval(&a))
                    .count() as u64;
                best = Some(best.map_or(cost, |b: u64| b.min(cost)));
            }

            let mut linear = MaxSatSolver::new();
            let mut core = MaxSatSolver::new();
            core.set_strategy(RepairStrategy::CoreGuided);
            for solver in [&mut linear, &mut core] {
                solver.add_hard_cnf(&hard);
                for c in &softs {
                    solver.add_soft(c.clone(), 1);
                }
            }
            let linear_result = linear.solve();
            let core_result = core.solve();
            match best {
                None => {
                    assert_eq!(linear_result, MaxSatResult::HardUnsat, "round {round}");
                    assert_eq!(core_result, MaxSatResult::HardUnsat, "round {round}");
                }
                Some(opt) => {
                    assert_eq!(
                        linear_result,
                        MaxSatResult::Optimum { cost: opt },
                        "round {round}"
                    );
                    assert_eq!(
                        core_result,
                        MaxSatResult::Optimum { cost: opt },
                        "round {round}"
                    );
                    // The reported model is consistent with the optimum.
                    assert_eq!(core.violated_softs().len() as u64, opt, "round {round}");
                }
            }
        }
    }

    /// Randomized incremental equivalence under changing assumption sets:
    /// one core-guided and one linear instance answer the same random pin
    /// sequence over one encoding, and must agree call by call.
    #[test]
    fn strategies_agree_across_random_assumption_sequences() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(0xA55E_55ED);
        for round in 0..10 {
            let num_vars = 5usize;
            let mut linear = MaxSatSolver::new();
            let mut core = MaxSatSolver::new();
            core.set_strategy(RepairStrategy::CoreGuided);
            let mut hard = Cnf::new(num_vars);
            for _ in 0..rng.gen_range(2..6) {
                let clause: Vec<Lit> = (0..rng.gen_range(1..3))
                    .map(|_| Lit::new(Var::new(rng.gen_range(0..num_vars) as u32), rng.gen()))
                    .collect();
                hard.add_clause(clause);
            }
            for solver in [&mut linear, &mut core] {
                solver.add_hard_cnf(&hard);
                for v in 0..num_vars {
                    solver.add_soft([Var::new(v as u32).negative()], 1);
                }
            }
            for query in 0..25 {
                let pins: Vec<Lit> = (0..rng.gen_range(0..3))
                    .map(|_| Lit::new(Var::new(rng.gen_range(0..num_vars) as u32), rng.gen()))
                    .collect();
                let a = linear.solve_under_assumptions(&pins);
                let b = core.solve_under_assumptions(&pins);
                assert_eq!(a, b, "round {round} query {query} pins {pins:?}");
                if let MaxSatResult::Optimum { cost } = a {
                    assert_eq!(
                        core.violated_softs().len() as u64,
                        cost,
                        "round {round} query {query}"
                    );
                }
            }
        }
    }
}
