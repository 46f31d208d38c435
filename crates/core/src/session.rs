//! Persistent incremental oracle sessions: the twin-session architecture of
//! the verify–repair loop.
//!
//! The loop used to rebuild *two* encodings from scratch on every iteration:
//! the error formula `E(X,Y') = ¬ϕ(X,Y') ∧ (Y' ↔ f)` on the verify side, and
//! the FindCandidates MaxSAT instance `ϕ ∧ (X ↔ σ[X])` with soft
//! `(Y ↔ σ[Y'])` on the repair side — even though between iterations only a
//! counterexample's valuations and a few candidate cones change. Following
//! the clausal-abstraction playbook (one persistent solver per abstraction
//! level, per-iteration state expressed as assumptions), the loop now runs
//! on two sessions that both live for the whole synthesis run:
//!
//! # [`VerifySession`] — the verify side
//!
//! Keeps two incremental SAT solvers:
//!
//! * the **error solver** holds `¬ϕ(X,Y')` (encoded once, lazily, on the
//!   first verification)
//!   plus one guarded equivalence `a_i → (y_i ↔ f_i)` per candidate
//!   generation. Each verification solves under the assumptions
//!   `{a_1, …, a_m}` of the *current* generations. When repair replaces
//!   `f_i`, the old activation literal is retired (asserted false) and a
//!   fresh guarded equivalence is added — the solver, its learnt clauses,
//!   and the shared Tseitin encoding cache survive. Because candidate cones
//!   grow monotonically inside one shared AIG, re-encoding a repaired
//!   candidate only pays for the *new* nodes
//!   ([`Aig::encode_cnf`](manthan3_aig::Aig::encode_cnf)).
//! * the **matrix solver** holds `ϕ` and serves the trivial-falsity check,
//!   the counterexample X-extension check, and the repair queries `G_k`
//!   (whose UNSAT cores become repair cubes) — all under assumptions.
//!
//! # [`RepairSession`] — the repair side
//!
//! Keeps one incremental MaxSAT solver for the FindCandidates queries
//! (Algorithm 3, line 2). The hard clauses `ϕ`, one *target indirection*
//! `eq_i ↔ (y_i ↔ t_i)` per output, the soft units `(eq_i)`, and the
//! totalizer over their relaxation variables are all encoded **once** when
//! the session opens. A FindCandidates call then pins the
//! counterexample-dependent valuations purely with assumptions —
//! `X ↔ σ[X]` directly on the matrix variables, `Y ↔ σ[Y']` via the `t_i`
//! targets — so they are retracted automatically between iterations and the
//! outputs selected for repair are exactly those with `eq_i` false in the
//! optimum. No clause is ever added after construction; the CDCL state and
//! the cardinality network survive every iteration.
//!
//! # Literal lifecycle and maintenance cadence
//!
//! Per-iteration state never outlives its solve call on either session: the
//! verify side swaps candidate generations by *retiring* activation literals
//! (asserted false, clauses freed by the next maintenance pass), the repair
//! side pins counterexamples with plain assumptions (nothing to retire).
//! Both sessions run a bounded-state maintenance pass every
//! [`MAINTENANCE_RETIREMENT_INTERVAL`] units of churn — retired generations
//! on the verify side, solve calls on the repair side — halving the learnt
//! database and compacting level-0-satisfied clauses, so
//! hundreds-of-iterations runs keep O(encoding) solver state.
//!
//! All solvers are constructed through the run's [`Oracle`], so budgets and
//! statistics are shared; `OracleStats::sat_solvers_constructed` staying at
//! two and `OracleStats::maxsat_hard_encodings` staying at one per run are
//! the observable witnesses of the reuse.

use crate::oracle::Oracle;
use crate::repair::Sigma;
use manthan3_aig::AigRef;
use manthan3_cnf::{Assignment, CnfBuilder, Lit, Var};
use manthan3_dqbf::{verify, Dqbf, HenkinVector};
use manthan3_maxsat::{MaxSatResult, MaxSatSolver, SoftId};
use manthan3_sat::{SolveResult, Solver, SolverStats};
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// Maintenance cadence shared by both sessions. After this many units of
/// churn — retired candidate generations for [`VerifySession`], solve calls
/// for [`RepairSession`] — the session runs a solver maintenance pass: the
/// learnt database is halved (and its growth threshold reset) and clauses
/// satisfied at level 0 (e.g. retired generations, permanently disabled by
/// their asserted-false activation literals) are freed. This keeps
/// hundreds-of-iterations repair runs from accumulating an unbounded solver
/// state while still amortizing the watch-list rebuild.
const MAINTENANCE_RETIREMENT_INTERVAL: usize = 32;

/// A model of the error formula: the counterexample parts `δ[X]` and
/// `δ[Y']`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Delta {
    /// Values of the universal variables.
    pub x: BTreeMap<Var, bool>,
    /// Outputs of the current candidate functions.
    pub y_prime: BTreeMap<Var, bool>,
}

/// Verdict of one incremental verification query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VerifyOutcome {
    /// The error formula is unsatisfiable: the candidate vector realizes the
    /// specification.
    Valid,
    /// The oracle gave up before a verdict was reached; the budget says why.
    Unknown,
    /// The error formula is satisfiable; the model is returned.
    CounterExample(Delta),
}

/// One candidate generation: the activation literal guarding its
/// equivalence clauses and the function it encodes.
#[derive(Debug, Clone, Copy)]
struct CandidateSlot {
    activation: Lit,
    function: AigRef,
}

/// A persistent incremental oracle session for one synthesis run: one
/// matrix solver and one error-formula solver, reused by every
/// verification check and repair query of the run.
#[derive(Debug, Clone)]
pub struct VerifySession {
    /// Incremental solver over the matrix `ϕ` (X-extension checks, repair
    /// queries `G_k` and their UNSAT cores).
    phi: Solver,
    /// Incremental solver over the error formula `¬ϕ ∧ (Y' ↔ f)`.
    error: Solver,
    /// Fresh-variable allocator and clause buffer for the error encoding.
    builder: CnfBuilder,
    /// Number of builder clauses already fed into `error`.
    fed_clauses: usize,
    /// Whether `¬ϕ` has been encoded into the error solver (done lazily on
    /// the first verification so preprocessing-only runs never pay for it).
    error_encoded: bool,
    /// Persistent AIG-node → CNF-literal cache for candidate cones.
    encode_cache: HashMap<usize, Lit>,
    /// Identity map: formula variable index → its own positive literal
    /// (candidate functions read other outputs from the `Y'` variables).
    input_map: HashMap<usize, Lit>,
    /// Current candidate generation per output.
    slots: BTreeMap<Var, CandidateSlot>,
    /// Number of candidate cones encoded over the session's lifetime.
    encodings: usize,
    /// Activation literals retired over the session's lifetime.
    retired: usize,
    /// Retirements since the last maintenance pass.
    retired_since_maintenance: usize,
    /// Error-solver maintenance passes performed.
    maintenance_runs: usize,
}

impl VerifySession {
    /// Creates a session for `dqbf`: constructs the two incremental solvers
    /// through `oracle`. The error formula's `¬ϕ` part is encoded lazily on
    /// the first [`VerifySession::verify`] call, so a run that ends in
    /// preprocessing (unsatisfiable matrix, budget) never pays for it.
    pub fn new(dqbf: &Dqbf, oracle: &mut Oracle) -> Self {
        let mut phi = oracle.new_solver();
        phi.add_cnf(dqbf.matrix());
        phi.ensure_vars(dqbf.num_vars());

        let builder = CnfBuilder::new(dqbf.num_vars());
        let error = oracle.new_solver();
        let input_map = (0..dqbf.num_vars())
            .map(|i| (i, Var::new(i as u32).positive()))
            .collect();
        VerifySession {
            phi,
            error,
            builder,
            fed_clauses: 0,
            error_encoded: false,
            encode_cache: HashMap::new(),
            input_map,
            slots: BTreeMap::new(),
            encodings: 0,
            retired: 0,
            retired_since_maintenance: 0,
            maintenance_runs: 0,
        }
    }

    /// Feeds clauses buffered in the builder into the error solver.
    fn flush(&mut self) {
        let cnf = self.builder.cnf();
        self.error.ensure_vars(cnf.num_vars());
        let clauses = cnf.clauses();
        for clause in &clauses[self.fed_clauses..] {
            self.error.add_clause(clause.iter().copied());
        }
        self.fed_clauses = clauses.len();
    }

    /// Checks satisfiability of the bare matrix `ϕ` (a DQBF with an
    /// unsatisfiable matrix is trivially false).
    pub fn check_matrix(&mut self, oracle: &mut Oracle) -> SolveResult {
        oracle.solve(&mut self.phi)
    }

    /// Solves `ϕ` under `assumptions` (X-extension checks and the repair
    /// queries `G_k`).
    pub fn solve_phi(&mut self, oracle: &mut Oracle, assumptions: &[Lit]) -> SolveResult {
        oracle.solve_with_assumptions(&mut self.phi, assumptions)
    }

    /// The model of the last satisfiable `ϕ` query.
    ///
    /// # Panics
    ///
    /// Panics if the last `ϕ` query was not satisfiable.
    pub fn phi_model(&self) -> Assignment {
        self.phi.model()
    }

    /// The UNSAT core (over the assumption literals) of the last
    /// unsatisfiable `ϕ` query — the raw material of repair cubes.
    pub fn phi_unsat_core(&self) -> &[Lit] {
        self.phi.unsat_core()
    }

    /// Verifies `vector` against the specification: refreshes the guarded
    /// candidate equivalences for outputs whose function changed since the
    /// last call, then re-solves the persistent error formula under the
    /// current activation assumptions.
    ///
    /// All functions must live in one shared, monotonically growing AIG
    /// (as maintained by the engine's repair loop); the session's encoding
    /// cache is keyed by node identity within that AIG.
    ///
    /// # Panics
    ///
    /// Panics if some existential variable of `dqbf` has no function in
    /// `vector`.
    pub fn verify(
        &mut self,
        dqbf: &Dqbf,
        vector: &HenkinVector,
        oracle: &mut Oracle,
    ) -> VerifyOutcome {
        if !self.error_encoded {
            verify::encode_negated_matrix(dqbf, &mut self.builder);
            self.error_encoded = true;
        }
        for &y in dqbf.existentials() {
            // invariant: a HenkinVector is total over the existentials by
            // construction.
            let f = vector.get(y).expect("every output has a candidate");
            if self.slots.get(&y).is_some_and(|slot| slot.function == f) {
                continue;
            }
            let retired = self.slots.get(&y).map(|old| old.activation);
            // Gate (Tseitin) clauses are unconditional and flow through the
            // builder; only the per-generation equivalence is guarded.
            let out = vector.aig().encode_cnf(
                f,
                &mut self.builder,
                &self.input_map,
                &mut self.encode_cache,
            );
            let activation = self.builder.fresh_lit();
            self.flush();
            // activation → (y ↔ out), retractable via the activation guard.
            self.error
                .add_guarded_clause(activation, [y.negative(), out]);
            self.error
                .add_guarded_clause(activation, [y.positive(), !out]);
            if let Some(old) = retired {
                // Permanently disable the previous generation's equivalence.
                self.error.retire_activation(old);
                self.retired += 1;
                self.retired_since_maintenance += 1;
            }
            self.slots.insert(
                y,
                CandidateSlot {
                    activation,
                    function: f,
                },
            );
            self.encodings += 1;
        }
        self.flush();
        if self.retired_since_maintenance >= MAINTENANCE_RETIREMENT_INTERVAL {
            self.maintain(oracle);
        }

        let assumptions: Vec<Lit> = self.slots.values().map(|slot| slot.activation).collect();
        match oracle.solve_with_assumptions(&mut self.error, &assumptions) {
            SolveResult::Unsat => VerifyOutcome::Valid,
            SolveResult::Unknown => VerifyOutcome::Unknown,
            SolveResult::Sat => {
                let model = self.error.model();
                VerifyOutcome::CounterExample(Delta {
                    x: dqbf
                        .universals()
                        .iter()
                        .map(|&x| (x, model.get(x).unwrap_or(false)))
                        .collect(),
                    y_prime: dqbf
                        .existentials()
                        .iter()
                        .map(|&y| (y, model.get(y).unwrap_or(false)))
                        .collect(),
                })
            }
        }
    }

    /// Number of candidate cones encoded over the session's lifetime
    /// (initial encodings plus one per applied repair).
    pub fn candidate_encodings(&self) -> usize {
        self.encodings
    }

    /// Runs an error-solver maintenance pass immediately: halves the learnt
    /// database (resetting its growth threshold), frees the clauses of
    /// retired candidate generations, and runs one bounded inprocessing
    /// pass (subsumption + vivification).
    /// Called automatically every 32 retirements; exposed for callers that
    /// drive the session manually. The pass runs outside any oracle solve
    /// call, so its work is billed to the oracle's statistics here.
    pub fn maintain(&mut self, oracle: &mut Oracle) {
        let before = self.error.stats();
        self.error.maintain();
        oracle.note_solver_maintenance(&before, &self.error.stats());
        self.retired_since_maintenance = 0;
        self.maintenance_runs += 1;
    }

    /// Number of activation literals retired over the session's lifetime
    /// (one per candidate replaced by repair).
    pub fn retired_activations(&self) -> usize {
        self.retired
    }

    /// Number of error-solver maintenance passes performed so far.
    pub fn maintenance_runs(&self) -> usize {
        self.maintenance_runs
    }

    /// Runtime statistics of the persistent error solver (learnt-clause
    /// count, conflicts, …) — the observable the hygiene watchdogs assert
    /// on.
    pub fn error_solver_stats(&self) -> SolverStats {
        self.error.stats()
    }

    /// Number of problem clauses currently held by the persistent error
    /// solver. Bounded across repair generations thanks to the periodic
    /// maintenance passes.
    pub fn error_solver_clauses(&self) -> usize {
        self.error.num_clauses()
    }
}

/// One output's slot in the persistent FindCandidates encoding: the target
/// indirection variable pinned by assumptions and the soft clause whose
/// violation selects the output for repair.
#[derive(Debug, Clone, Copy)]
struct RepairSlot {
    output: Var,
    /// `t_i`: assumed equal to `σ[y'_i]` on each call.
    target: Var,
    /// The soft unit `(eq_i)` with `eq_i ↔ (y_i ↔ t_i)` as hard clauses.
    soft: SoftId,
}

/// The persistent assumption-based MaxSAT session answering the repair
/// loop's FindCandidates queries: the matrix, one target indirection per
/// existential output and the soft units are encoded once (see
/// [`RepairSession::new`]), and each query pins its counterexample by
/// assumptions only.
#[derive(Debug, Clone)]
pub struct RepairSession {
    maxsat: MaxSatSolver,
    slots: Vec<RepairSlot>,
    /// FindCandidates calls answered over the session's lifetime.
    solves: usize,
    /// Solve calls since the last maintenance pass.
    solves_since_maintenance: usize,
    /// MaxSAT-solver maintenance passes performed.
    maintenance_runs: usize,
}

impl RepairSession {
    /// Opens a session for `dqbf`: encodes the matrix, one target
    /// indirection `eq_i ↔ (y_i ↔ t_i)` per existential output, the soft
    /// units `(eq_i)`, and (lazily, inside the MaxSAT solver) the totalizer
    /// — the one and only hard-encoding construction of the whole repair
    /// loop, recorded in `OracleStats::maxsat_hard_encodings`.
    pub fn new(dqbf: &Dqbf, oracle: &mut Oracle) -> Self {
        let mut maxsat = oracle.new_maxsat();
        oracle.note_maxsat_hard_encoding();
        maxsat.add_hard_cnf(dqbf.matrix());
        let mut slots = Vec::with_capacity(dqbf.existentials().len());
        for &y in dqbf.existentials() {
            let t = maxsat.new_var();
            let eq = maxsat.new_var();
            let (yl, tl, eql) = (y.positive(), t.positive(), eq.positive());
            // eq ↔ (y ↔ t), encoded once; t is pinned per call by an
            // assumption, so the soft structure below never changes.
            maxsat.add_hard([!eql, !yl, tl]);
            maxsat.add_hard([!eql, yl, !tl]);
            maxsat.add_hard([eql, !yl, !tl]);
            maxsat.add_hard([eql, yl, tl]);
            let soft = maxsat.add_soft([eql], 1);
            slots.push(RepairSlot {
                output: y,
                target: t,
                soft,
            });
        }
        RepairSession {
            maxsat,
            slots,
            solves: 0,
            solves_since_maintenance: 0,
            maintenance_runs: 0,
        }
    }

    /// Runs `FindCandi` (Algorithm 3, line 2) for the counterexample
    /// `sigma`, entirely under assumptions on the persistent encoding:
    /// `X ↔ σ[X]` pins the matrix variables, `t_i ↔ σ[y'_i]` pins the soft
    /// targets. Returns the outputs whose soft constraint was dropped in the
    /// optimum — the candidates to repair.
    ///
    /// When the oracle is past its deadline or cancelled (or the hard part
    /// is unexpectedly unsatisfiable under the assumptions), falls back to
    /// "repair every output whose candidate output differs from the witness
    /// extension", exactly like the from-scratch path.
    pub fn find_candidates(&mut self, dqbf: &Dqbf, sigma: &Sigma, oracle: &mut Oracle) -> Vec<Var> {
        let mut assumptions: Vec<Lit> = Vec::with_capacity(sigma.x.len() + self.slots.len());
        for (&x, &value) in &sigma.x {
            assumptions.push(x.lit(value));
        }
        for slot in &self.slots {
            let target = sigma.y_prime.get(&slot.output).copied().unwrap_or(false);
            assumptions.push(slot.target.lit(target));
        }
        let result = oracle.solve_maxsat_under_assumptions(&mut self.maxsat, &assumptions);
        self.solves += 1;
        self.solves_since_maintenance += 1;
        if self.solves_since_maintenance >= MAINTENANCE_RETIREMENT_INTERVAL {
            self.maintain(oracle);
        }
        match result {
            MaxSatResult::Optimum { .. } => {
                let violated: BTreeSet<_> = self.maxsat.violated_softs().into_iter().collect();
                self.slots
                    .iter()
                    .filter(|slot| violated.contains(&slot.soft))
                    .map(|slot| slot.output)
                    .collect()
            }
            // A given-up query falls back too — the engine re-checks the
            // oracle before acting on the fallback set and reports the
            // budget's reason.
            MaxSatResult::HardUnsat | MaxSatResult::Unknown => dqbf
                .existentials()
                .iter()
                .copied()
                .filter(|y| sigma.y.get(y) != sigma.y_prime.get(y))
                .collect(),
        }
    }

    /// Runs a MaxSAT-solver maintenance pass immediately (learnt-DB halving,
    /// level-0 compaction, and one bounded inprocessing pass). Called
    /// automatically every `MAINTENANCE_RETIREMENT_INTERVAL` solve calls;
    /// exposed for callers that drive the session manually. The pass runs
    /// outside any oracle solve call, so its work is billed to the oracle's
    /// statistics here.
    pub fn maintain(&mut self, oracle: &mut Oracle) {
        let before = self.maxsat.sat_stats();
        self.maxsat.maintain();
        oracle.note_solver_maintenance(&before, &self.maxsat.sat_stats());
        self.solves_since_maintenance = 0;
        self.maintenance_runs += 1;
    }

    /// FindCandidates calls answered over the session's lifetime.
    pub fn solves(&self) -> usize {
        self.solves
    }

    /// Number of MaxSAT-solver maintenance passes performed so far.
    pub fn maintenance_runs(&self) -> usize {
        self.maintenance_runs
    }

    /// Runtime statistics of the persistent MaxSAT solver's CDCL core —
    /// the observable the repair-side hygiene watchdog asserts on.
    pub fn solver_stats(&self) -> SolverStats {
        self.maxsat.sat_stats()
    }

    /// Number of problem clauses currently held by the persistent MaxSAT
    /// solver. Constant across iterations (no clause is added after
    /// construction; maintenance can only shrink it).
    pub fn solver_clauses(&self) -> usize {
        self.maxsat.num_solver_clauses()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::Budget;
    use manthan3_dqbf::verify::check;

    fn x(i: u32) -> Var {
        Var::new(i)
    }
    fn y(i: u32) -> Var {
        Var::new(3 + i)
    }

    /// The hand-derived valid vector for the paper example.
    fn paper_vector() -> HenkinVector {
        let mut v = HenkinVector::new();
        let in_x1 = v.aig_mut().input(x(0).index());
        let in_x2 = v.aig_mut().input(x(1).index());
        let in_x3 = v.aig_mut().input(x(2).index());
        v.set(y(0), !in_x1);
        let f2 = v.aig_mut().or(!in_x2, !in_x1);
        v.set(y(1), f2);
        let f3 = v.aig_mut().or(in_x2, in_x3);
        v.set(y(2), f3);
        v
    }

    #[test]
    fn session_accepts_a_valid_vector() {
        let dqbf = Dqbf::paper_example();
        let mut oracle = Oracle::new(Budget::unlimited());
        let mut session = VerifySession::new(&dqbf, &mut oracle);
        let vector = paper_vector();
        assert_eq!(
            session.verify(&dqbf, &vector, &mut oracle),
            VerifyOutcome::Valid
        );
        assert_eq!(session.candidate_encodings(), 3);
    }

    #[test]
    fn session_finds_counterexamples_that_falsify_the_matrix() {
        let dqbf = Dqbf::paper_example();
        let mut oracle = Oracle::new(Budget::unlimited());
        let mut session = VerifySession::new(&dqbf, &mut oracle);
        let mut vector = paper_vector();
        // Break f3: constant false. The clause y3 ↔ (x2 ∨ x3) must fail.
        vector.set(y(2), vector.aig().constant(false));
        match session.verify(&dqbf, &vector, &mut oracle) {
            VerifyOutcome::CounterExample(delta) => {
                // Replaying δ[X], δ[Y'] on the matrix must falsify it.
                let mut values = vec![false; dqbf.num_vars()];
                for (&v, &b) in delta.x.iter().chain(delta.y_prime.iter()) {
                    values[v.index()] = b;
                }
                let assignment = Assignment::from_values(values);
                assert!(!dqbf.eval_matrix(&assignment));
            }
            other => panic!("expected a counterexample, got {other:?}"),
        }
    }

    #[test]
    fn candidate_swaps_reuse_the_same_solvers() {
        let dqbf = Dqbf::paper_example();
        let mut oracle = Oracle::new(Budget::unlimited());
        let mut session = VerifySession::new(&dqbf, &mut oracle);
        let mut vector = paper_vector();

        // Sabotage f2, verify (counterexample), then restore it in several
        // generations; the session must keep using the same two solvers.
        let good_f2 = vector.get(y(1)).unwrap();
        for round in 0..4 {
            let broken = if round % 2 == 0 {
                vector.aig().constant(round % 4 == 0)
            } else {
                let in_x1 = vector.aig_mut().input(x(0).index());
                in_x1
            };
            vector.set(y(1), broken);
            let verdict = session.verify(&dqbf, &vector, &mut oracle);
            assert!(
                matches!(verdict, VerifyOutcome::CounterExample(_)),
                "round {round}"
            );
            // Consistency with the independent from-scratch checker.
            assert!(!check(&dqbf, &vector).is_valid(), "round {round}");
        }
        vector.set(y(1), good_f2);
        assert_eq!(
            session.verify(&dqbf, &vector, &mut oracle),
            VerifyOutcome::Valid
        );
        assert!(check(&dqbf, &vector).is_valid());

        // Round 0 encodes all three candidates; rounds 1–3 and the final
        // restoration re-encode only the y2 generation that changed.
        assert_eq!(session.candidate_encodings(), 7);
        // One matrix solver + one error solver, despite 5 verification calls.
        assert_eq!(oracle.stats().sat_solvers_constructed, 2);
        assert_eq!(oracle.stats().sat_calls, 5);
    }

    /// Hygiene watchdog (ROADMAP "error-solver hygiene"): a repair-heavy run
    /// — hundreds of candidate generations on one session — must trigger
    /// periodic error-solver maintenance, keep the clause database bounded
    /// (retired generations are freed, the learnt DB is trimmed), and still
    /// produce correct verdicts on the same two solvers.
    #[test]
    fn long_repair_runs_trigger_maintenance_and_stay_bounded() {
        let dqbf = Dqbf::paper_example();
        let mut oracle = Oracle::new(Budget::unlimited());
        let mut session = VerifySession::new(&dqbf, &mut oracle);
        let mut vector = paper_vector();
        let good_f2 = vector.get(y(1)).unwrap();
        let broken_f2 = vector.aig().constant(true);

        let mut clause_watermark = 0usize;
        for round in 0..200 {
            let f2 = if round % 2 == 0 { broken_f2 } else { good_f2 };
            vector.set(y(1), f2);
            let verdict = session.verify(&dqbf, &vector, &mut oracle);
            if round % 2 == 0 {
                assert!(
                    matches!(verdict, VerifyOutcome::CounterExample(_)),
                    "round {round}: broken candidate must yield a counterexample"
                );
            } else {
                assert_eq!(verdict, VerifyOutcome::Valid, "round {round}");
            }
            if round == 20 {
                clause_watermark = session.error_solver_clauses();
            }
        }

        // Round 0 encodes three fresh generations; every later round swaps
        // exactly one, retiring its predecessor.
        assert_eq!(session.retired_activations(), 199);
        assert!(
            session.maintenance_runs() >= 5,
            "only {} maintenance passes over 199 retirements",
            session.maintenance_runs()
        );
        // Retired generations are freed: the clause database is bounded by
        // the early-run watermark plus at most one maintenance interval of
        // not-yet-collected generations, not by the 199 retired generations.
        assert!(
            session.error_solver_clauses() <= clause_watermark + 80,
            "error solver grew to {} clauses (watermark {})",
            session.error_solver_clauses(),
            clause_watermark
        );
        // The learnt DB is trimmed too — it must not retain one learnt
        // clause per historical generation.
        assert!(session.error_solver_stats().learnt_clauses < 400);
        // The arena actually reclaims the freed clauses: 199 retired
        // generations plus periodic learnt-DB halving must cross the GC
        // threshold at least once, and the live footprint stays bounded.
        assert!(
            session.error_solver_stats().arena_collections >= 1,
            "no compacting arena collection over 199 retirements"
        );
        // Maintenance work is billed to the oracle even though it runs
        // outside solve calls.
        assert!(oracle.stats().arena_collections >= 1);
        assert!(oracle.stats().sat_propagations > 0);
        // Maintenance never constructs new solvers.
        assert_eq!(oracle.stats().sat_solvers_constructed, 2);
    }

    /// Repair-side mirror of the error-solver hygiene watchdog: hundreds of
    /// FindCandidates calls on one [`RepairSession`] must trigger periodic
    /// MaxSAT-solver maintenance, keep the clause database bounded by its
    /// construction-time size (assumptions leave no residue; maintenance
    /// only shrinks), and keep answering on the same single solver and
    /// single hard encoding.
    #[test]
    fn long_repair_runs_keep_the_maxsat_solver_bounded() {
        let dqbf = Dqbf::paper_example();
        let mut oracle = Oracle::new(Budget::unlimited());
        let mut session = RepairSession::new(&dqbf, &mut oracle);
        let clause_watermark = session.solver_clauses();

        let sigma_a = Sigma {
            x: [(x(0), true), (x(1), false), (x(2), false)].into(),
            y: [(y(0), true), (y(1), true), (y(2), false)].into(),
            y_prime: [(y(0), false), (y(1), false), (y(2), false)].into(),
        };
        let mut sigma_b = sigma_a.clone();
        sigma_b.x = [(x(0), false), (x(1), true), (x(2), false)].into();
        sigma_b.y_prime = [(y(0), true), (y(1), true), (y(2), true)].into();

        for round in 0..200 {
            let sigma = if round % 2 == 0 { &sigma_a } else { &sigma_b };
            let candidates = session.find_candidates(&dqbf, sigma, &mut oracle);
            if round % 2 == 0 {
                // With x = (1,0,0), ϕ forces y2 = 1, so exactly the y2 soft
                // is dropped — on every even round, however much solver
                // state has accumulated.
                assert_eq!(candidates, vec![y(1)], "round {round}");
            }
        }

        assert_eq!(session.solves(), 200);
        assert!(
            session.maintenance_runs() >= 5,
            "only {} maintenance passes over 200 solves",
            session.maintenance_runs()
        );
        // No clause is ever added after construction: the totalizer is part
        // of the persistent encoding and counterexamples ride in as
        // assumptions, so the database never exceeds its construction-time
        // size plus the lazily encoded cardinality network.
        assert!(
            session.solver_clauses() <= clause_watermark + 60,
            "repair solver grew to {} clauses (watermark {})",
            session.solver_clauses(),
            clause_watermark
        );
        // The learnt DB is trimmed: it must not retain one learnt clause
        // per historical FindCandidates call.
        assert!(session.solver_stats().learnt_clauses < 400);
        // The billed gauges follow the persistent solver's live state.
        assert_eq!(
            oracle.stats().learnt_db_live,
            session.solver_stats().learnt_clauses
        );
        assert!(oracle.stats().sat_propagations > 0);
        // One MaxSAT solver, one hard encoding, 200 assumption-served calls.
        assert_eq!(oracle.stats().maxsat_solvers_constructed, 1);
        assert_eq!(oracle.stats().maxsat_hard_encodings, 1);
        assert_eq!(oracle.stats().maxsat_calls, 200);
        assert_eq!(oracle.stats().maxsat_incremental_calls, 200);
    }

    #[test]
    fn phi_queries_share_the_session() {
        let dqbf = Dqbf::paper_example();
        let mut oracle = Oracle::new(Budget::unlimited());
        let mut session = VerifySession::new(&dqbf, &mut oracle);
        assert_eq!(session.check_matrix(&mut oracle), SolveResult::Sat);
        // x1 = 1 forces y1 = … the matrix clause (x1 ∨ y1) is satisfied;
        // assuming ¬(x1 ∨ y1) literals yields UNSAT with a core.
        let result = session.solve_phi(&mut oracle, &[x(0).negative(), y(0).negative()]);
        assert_eq!(result, SolveResult::Unsat);
        assert!(!session.phi_unsat_core().is_empty());
        assert_eq!(oracle.stats().sat_solvers_constructed, 2);
    }
}
