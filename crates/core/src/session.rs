//! Persistent incremental oracle sessions: the twin-session architecture of
//! the verify–repair loop.
//!
//! The loop queries two encodings: the error formula
//! `E(X,Y') = ¬ϕ(X,Y') ∧ (Y' ↔ f)` on the verify side, and the
//! FindCandidates MaxSAT instance `ϕ ∧ (X ↔ δ[X])` with soft `(Y ↔ δ[Y'])`
//! on the repair side. Between iterations only a counterexample's valuations
//! and a few candidate cones change, so, following the clausal-abstraction
//! playbook (one persistent solver per abstraction level, per-iteration
//! state expressed as assumptions), each encoding lives in a session that
//! lasts the whole synthesis run:
//!
//! # [`VerifySession`] — the verify side
//!
//! Keeps two incremental SAT solvers:
//!
//! * the **error solver** holds the candidate cones and one guarded
//!   equivalence `a_i → (y_i ↔ f_i)` per candidate generation, and no part
//!   of `¬ϕ(X,Y')`. Each verification refutes the error formula one matrix
//!   clause at a time: for each `c` in matrix order it solves under the
//!   activation literals `{a_1, …, a_m}` of the *current* generations
//!   followed by the negated literals of `c`, and the first satisfiable
//!   query gives the counterexample ([`verify::refute_by_clause`]). The
//!   activation literals are a shared assumption prefix, so the solver
//!   keeps their trail levels from query to query and re-decides only `¬c`.
//!   The session keeps the query in one buffer, so a query allocates
//!   nothing once the buffer has room for the longest clause. When repair
//!   replaces `f_i`, the old activation literal is retired (asserted false)
//!   and a fresh guarded equivalence is added — the solver, its learnt
//!   clauses, and the Tseitin encoding cache survive. The cones are encoded
//!   straight into the error solver, which is the Tseitin encoder's
//!   [`ClauseSink`](manthan3_cnf::ClauseSink), so no copy of them is kept
//!   outside it. The cache maps AIG nodes to
//!   error-solver literals; because candidate cones grow monotonically
//!   inside one shared AIG, re-encoding a repaired candidate only pays for
//!   the *new* nodes ([`Aig::encode_cnf`](manthan3_aig::Aig::encode_cnf)).
//! * the **matrix solver** holds `ϕ` and serves the trivial-falsity check
//!   and the repair queries `G_k` (whose UNSAT cores become repair cubes),
//!   the latter under assumptions.
//!
//! # Simulation first
//!
//! The engine calls [`VerifySession::verify`] only on a simulation miss.
//! Before each check it simulates the current vector on 8 words (512
//! patterns) of fresh random universal assignments, drawn from one xorshift
//! stream with the engine's fixed seed, and evaluates the matrix
//! clauses on the simulated values as word ORs. Paper Algorithm 1 accepts
//! any model of the error formula as δ, and a failing pattern is one: `X`
//! from the pattern, `Y'` from the simulated outputs. Of the failing
//! patterns the engine takes the one that violates the most matrix clauses,
//! the lowest on a tie; taking the first failing one instead cost more
//! repair iterations and a larger peak heap (`BENCH_simulation.json`). So
//! the error solver answers only the checks simulation cannot settle: a
//! counterexample too rare for 512 patterns, and the closing `Valid`, which
//! only UNSAT verdicts can give: one per matrix clause, each certified under
//! `Manthan3Config::certify`. Asking for one clause at a time made the
//! closing refutation cheaper than one query over the whole disjunction
//! (`BENCH_clausewise.json`). A check walks the union of the outputs' cones
//! once ([`Aig::simulate`](manthan3_aig::Aig::simulate)): a gate that
//! several candidates share is simulated once, and the check allocates the
//! pattern words, the kernel's few buffers and, when a pattern fails, the
//! counterexample, however many outputs the vector has. The simulation
//! buffers are dropped before the solver runs.
//!
//! # [`RepairSession`] — the repair side
//!
//! Keeps one incremental MaxSAT solver for the FindCandidates queries
//! (Algorithm 3, line 2). The hard clauses `ϕ`, one *target indirection*
//! `eq_i ↔ (y_i ↔ t_i)` per output, the soft units `(eq_i)`, and the
//! totalizer over their relaxation variables are all encoded **once** when
//! the session opens. A FindCandidates call then pins the
//! counterexample-dependent valuations purely with assumptions —
//! `X ↔ δ[X]` directly on the matrix variables, `Y ↔ δ[Y']` via the `t_i`
//! targets — so they are retracted automatically between iterations and the
//! outputs selected for repair are exactly those with `eq_i` false in the
//! optimum. No clause is ever added after construction; the CDCL state and
//! the cardinality network survive every iteration. The search doubles as
//! the X-extension check (Algorithm 1, line 13): it opens with the
//! optimistic all-softs probe, and a refuted probe whose UNSAT core holds
//! none of the probe's own literals refutes `ϕ ∧ (X ↔ δ[X])` itself. So
//! this is the one query per counterexample.
//!
//! # The counterexample
//!
//! A counterexample δ is one [`Assignment`] of the formula's variables,
//! whether the simulator or the error solver found it: its universal
//! entries are `δ[X]` and its existential entries `δ[Y']`, so it falsifies
//! the matrix as it stands. The error solver's answer is read off its
//! values of the formula's variables alone, never its Tseitin variables.
//!
//! # Literal lifecycle
//!
//! Per-iteration state never outlives its solve call on either session: the
//! verify side swaps candidate generations by *retiring* activation literals
//! (asserted false), the repair side pins counterexamples with plain
//! assumptions (nothing to retire). Neither session maintains its solvers:
//! the error solver frees retired generations and halves its learnt
//! database at the start of the first solve after every 32 retirements, and
//! the MaxSAT solver runs the same pass every 32 solve calls. The pass runs
//! inside an oracle solve call, so the budget admits it and the call's
//! statistics bill it, and hundreds-of-iterations runs keep O(encoding)
//! solver state.
//!
//! All solvers are constructed through the run's [`Oracle`], so budgets and
//! statistics are shared; `OracleStats::sat_solvers_constructed` staying at
//! two and `OracleStats::maxsat_solvers_constructed` staying at one per run
//! are the observable witnesses of the reuse.

use crate::engine::SynthesisOutcome;
use crate::oracle::Oracle;
use manthan3_aig::AigRef;
use manthan3_cnf::{Assignment, Lit, Var};
use manthan3_dqbf::{verify, Dqbf, HenkinVector};
use manthan3_maxsat::{MaxSatResult, MaxSatSolver};
use manthan3_sat::{SolveResult, Solver, SolverStats};
use std::collections::{BTreeMap, HashMap};
use std::ops::ControlFlow;

/// Words of 64 universal assignments simulated before each verify call, so
/// 512 patterns. In the sweep over 1, 4, 8 and 16 words recorded in
/// `BENCH_simulation.json`, 1 and 4 words were slower, and 16 words tied
/// with 8 within the run-to-run spread (4.6% faster on `cegis_repair`, 3.5%
/// slower on `certified`); the tie went to fewer words.
const SIMULATION_WORDS: usize = 8;

/// The simulation half of a verify check: before the engine asks
/// [`VerifySession::verify`], it simulates the current vector on fresh
/// random universal assignments and takes a failing one as the
/// counterexample.
///
/// The patterns come from one xorshift stream seeded from the run's seed,
/// so every run of one seed simulates the same patterns and takes the same
/// counterexamples. A simulated δ is a model of the error formula like any
/// the solver returns: its `X` is the pattern, its `Y'` the vector's
/// outputs on it, and it falsifies the matrix. A simulation cannot prove a
/// vector valid, so a check that finds no failing pattern goes to the
/// solver.
#[derive(Debug)]
pub(crate) struct Simulator {
    /// The xorshift64 state; never 0.
    state: u64,
    /// The outputs, suppliers first, so each function reads the simulated
    /// values of the outputs it refers to.
    order: Vec<Var>,
}

impl Simulator {
    /// A simulator drawing its patterns from `seed`, evaluating the outputs
    /// in `order` (suppliers first).
    pub(crate) fn new(seed: u64, order: Vec<Var>) -> Self {
        // The splitmix64 finalizer spreads nearby seeds apart; `max(1)`
        // keeps xorshift off its fixed point 0.
        let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        Simulator {
            state: (z ^ (z >> 31)).max(1),
            order,
        }
    }

    /// The next xorshift64 word: 64 fresh random bits.
    fn next_word(&mut self) -> u64 {
        self.state ^= self.state << 13;
        self.state ^= self.state >> 7;
        self.state ^= self.state << 17;
        self.state
    }

    /// Simulates `vector` on [`SIMULATION_WORDS`] words of fresh universal
    /// patterns and evaluates the matrix clauses on the result. Returns the
    /// counterexample of the pattern that violates the most clauses (the
    /// lowest such pattern on a tie), or `None` when every pattern satisfies
    /// the matrix. Bills the patterns, and a found counterexample, to
    /// `oracle`'s statistics. All buffers are dropped on return.
    pub(crate) fn counterexample(
        &mut self,
        dqbf: &Dqbf,
        vector: &HenkinVector,
        oracle: &mut Oracle,
    ) -> Option<Assignment> {
        let words = SIMULATION_WORDS;
        let mut values = vec![0u64; dqbf.num_vars() * words];
        for &x in dqbf.universals() {
            for w in 0..words {
                values[x.index() * words + w] = self.next_word();
            }
        }
        vector.simulate(&self.order, words, &mut values);

        let mut violations = [0u32; 64 * SIMULATION_WORDS];
        for clause in dqbf.matrix().iter() {
            let mut satisfied = [0u64; SIMULATION_WORDS];
            for &lit in clause {
                let negation = if lit.is_positive() { 0 } else { u64::MAX };
                let start = lit.var().index() * words;
                for (sat, &value) in satisfied.iter_mut().zip(&values[start..start + words]) {
                    *sat |= value ^ negation;
                }
            }
            for (w, &sat) in satisfied.iter().enumerate() {
                let mut falsified = !sat;
                while falsified != 0 {
                    violations[64 * w + falsified.trailing_zeros() as usize] += 1;
                    falsified &= falsified - 1;
                }
            }
        }
        // The first lane with the strict maximum wins, so ties go low.
        let mut best: Option<usize> = None;
        for (lane, &count) in violations.iter().enumerate() {
            if count > best.map_or(0, |b| violations[b]) {
                best = Some(lane);
            }
        }
        oracle.note_simulation((64 * words) as u64, best.is_some());
        let lane = best?;
        Some(Assignment::from_values(
            (0..dqbf.num_vars())
                .map(|v| values[v * words + lane / 64] >> (lane % 64) & 1 == 1)
                .collect(),
        ))
    }
}

/// Verdict of one incremental verification query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VerifyOutcome {
    /// The error formula is unsatisfiable: the candidate vector realizes the
    /// specification.
    Valid,
    /// The oracle gave up before a verdict was reached; the budget says why.
    Unknown,
    /// The error formula is satisfiable: the counterexample δ, an assignment
    /// of the formula's variables whose universal entries are `δ[X]` and
    /// whose existential entries are `δ[Y']`.
    CounterExample(Assignment),
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
    /// Incremental solver over the matrix `ϕ` (the trivial-falsity check,
    /// repair queries `G_k` and their UNSAT cores).
    phi: Solver,
    /// Incremental solver over the `Y' ↔ f` half of the error formula
    /// `¬ϕ ∧ (Y' ↔ f)`; `¬ϕ` rides in as assumptions, one matrix clause per
    /// query. Its variables are the formula's, then the Tseitin and
    /// activation variables of the candidate generations in encoding order.
    error: Solver,
    /// The error solver's query buffer: the current activation literals,
    /// then one matrix clause's negated literals while that clause's query
    /// runs. Kept across calls, so a verify check allocates no query.
    query: Vec<Lit>,
    /// Persistent AIG-node → error-solver-literal cache for candidate cones.
    /// An AIG input label is the formula variable of the same index, so
    /// candidate functions read other outputs from the `Y'` variables.
    encode_cache: HashMap<usize, Lit>,
    /// Current candidate generation per output.
    slots: BTreeMap<Var, CandidateSlot>,
    /// Number of candidate cones encoded over the session's lifetime.
    encodings: usize,
}

impl VerifySession {
    /// Creates a session for `dqbf`: constructs the two incremental solvers
    /// through `oracle`. The error solver only declares the formula's
    /// variables, so the Tseitin variables are numbered after them; the
    /// candidate cones are encoded on the first [`VerifySession::verify`]
    /// call.
    pub fn new(dqbf: &Dqbf, oracle: &mut Oracle) -> Self {
        let mut phi = oracle.new_solver();
        phi.add_cnf(dqbf.matrix());
        phi.ensure_vars(dqbf.num_vars());

        let mut error = oracle.new_solver();
        error.ensure_vars(dqbf.num_vars());
        VerifySession {
            phi,
            error,
            query: Vec::new(),
            encode_cache: HashMap::new(),
            slots: BTreeMap::new(),
            encodings: 0,
        }
    }

    /// Checks satisfiability of the bare matrix `ϕ` (a DQBF with an
    /// unsatisfiable matrix is trivially false).
    pub fn check_matrix(&mut self, oracle: &mut Oracle) -> SolveResult {
        oracle.solve(&mut self.phi)
    }

    /// Solves `ϕ` under `assumptions` (the repair queries `G_k`).
    pub fn solve_phi(&mut self, oracle: &mut Oracle, assumptions: &[Lit]) -> SolveResult {
        oracle.solve_with_assumptions(&mut self.phi, assumptions)
    }

    /// The value of `var` in the model of the last `ϕ` query, or `None`
    /// when that query was not satisfiable.
    pub fn phi_value(&self, var: Var) -> Option<bool> {
        self.phi.value(var)
    }

    /// The UNSAT core (over the assumption literals) of the last
    /// unsatisfiable `ϕ` query — the raw material of repair cubes.
    pub fn phi_unsat_core(&self) -> &[Lit] {
        self.phi.unsat_core()
    }

    /// Verifies `vector` against the specification: refreshes the guarded
    /// candidate equivalences for outputs whose function changed since the
    /// last call, then refutes the persistent error formula one matrix
    /// clause at a time ([`verify::refute_by_clause`]): each query assumes
    /// the current activation literals plus the negation of one matrix
    /// clause. The first satisfiable query gives the counterexample; `Valid`
    /// takes one UNSAT query per matrix clause, each certified under
    /// `Manthan3Config::certify`.
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
        for &y in dqbf.existentials() {
            // invariant: a HenkinVector is total over the existentials by
            // construction.
            let f = vector.get(y).expect("every output has a candidate");
            if self.slots.get(&y).is_some_and(|slot| slot.function == f) {
                continue;
            }
            let retired = self.slots.get(&y).map(|old| old.activation);
            // Gate (Tseitin) clauses are unconditional; only the
            // per-generation equivalence is guarded.
            let out = vector
                .aig()
                .encode_cnf(f, &mut self.error, &mut self.encode_cache);
            let activation = self.error.new_activation_lit();
            // activation → (y ↔ out), retractable via the activation guard.
            self.error
                .add_guarded_clause(activation, [y.negative(), out]);
            self.error
                .add_guarded_clause(activation, [y.positive(), !out]);
            if let Some(old) = retired {
                // Permanently disable the previous generation's equivalence.
                self.error.retire_activation(old);
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

        self.query.clear();
        self.query
            .extend(self.slots.values().map(|slot| slot.activation));
        let error = &mut self.error;
        match verify::refute_by_clause(dqbf, &mut self.query, |query| {
            oracle.solve_with_assumptions(error, query)
        }) {
            SolveResult::Unsat => VerifyOutcome::Valid,
            SolveResult::Unknown => VerifyOutcome::Unknown,
            // The formula's variables are the error solver's first ones;
            // its Tseitin and activation variables stay unread.
            SolveResult::Sat => VerifyOutcome::CounterExample(Assignment::from_values(
                (0..dqbf.num_vars())
                    .map(|v| self.error.value(Var::new(v as u32)) == Some(true))
                    .collect(),
            )),
        }
    }

    /// Number of candidate cones encoded over the session's lifetime
    /// (initial encodings plus one per applied repair).
    pub fn candidate_encodings(&self) -> usize {
        self.encodings
    }

    /// Runtime statistics of the persistent error solver (learnt-clause
    /// count, conflicts, …) — the observable the hygiene watchdogs assert
    /// on.
    pub fn error_solver_stats(&self) -> SolverStats {
        self.error.stats()
    }

    /// Number of problem clauses currently held by the persistent error
    /// solver. Bounded across repair generations: the solver frees retired
    /// generations in its own maintenance passes.
    pub fn error_solver_clauses(&self) -> usize {
        self.error.num_clauses()
    }
}

/// One output's slot in the persistent FindCandidates encoding: the target
/// indirection variable pinned by assumptions. Slot `i`'s soft unit
/// `(eq_i)`, with `eq_i ↔ (y_i ↔ t_i)` as hard clauses, is soft clause `i`
/// of the MaxSAT solver; its violation selects the output for repair.
#[derive(Debug, Clone, Copy)]
struct RepairSlot {
    output: Var,
    /// `t_i`: assumed equal to `δ[y'_i]` on each call.
    target: Var,
}

/// The persistent assumption-based MaxSAT session answering the repair
/// loop's FindCandidates queries: the matrix, one target indirection per
/// existential output and the soft units are encoded once (see
/// [`RepairSession::new`]), and each query pins its counterexample by
/// assumptions only.
#[derive(Debug, Clone)]
pub struct RepairSession {
    maxsat: MaxSatSolver,
    /// The universal variables in ascending order, the order in which
    /// [`RepairSession::find_candidates`] pins them.
    universals: Vec<Var>,
    slots: Vec<RepairSlot>,
    /// The assumption buffer of [`RepairSession::find_candidates`], refilled
    /// on each call.
    assumptions: Vec<Lit>,
}

impl RepairSession {
    /// Opens a session for `dqbf`: encodes the matrix, one target
    /// indirection `eq_i ↔ (y_i ↔ t_i)` per existential output, the soft
    /// units `(eq_i)`, and (lazily, inside the MaxSAT solver) the totalizer
    /// — the one and only hard-encoding construction of the whole repair
    /// loop, on the run's one MaxSAT solver
    /// (`OracleStats::maxsat_solvers_constructed`).
    pub fn new(dqbf: &Dqbf, oracle: &mut Oracle) -> Self {
        let mut maxsat = oracle.new_maxsat();
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
            let soft = maxsat.add_soft([eql]);
            debug_assert_eq!(soft.index(), slots.len());
            slots.push(RepairSlot {
                output: y,
                target: t,
            });
        }
        let mut universals = dqbf.universals().to_vec();
        universals.sort_unstable();
        RepairSession {
            maxsat,
            universals,
            slots,
            assumptions: Vec::new(),
        }
    }

    /// Runs `FindCandi` (Algorithm 3, line 2) for the counterexample
    /// `delta`, entirely under assumptions on the persistent encoding:
    /// `X ↔ δ[X]` pins the matrix variables, `t_i ↔ δ[y'_i]` pins the soft
    /// targets. Returns the outputs whose soft constraint was dropped in the
    /// optimum — the candidates to repair.
    ///
    /// The MaxSAT search refutes its hard part, `ϕ ∧ (X ↔ δ[X])`, when no
    /// model satisfies it, so it doubles as the X-extension check of
    /// Algorithm 1, line 13. The query breaks with the verdict that ends the
    /// run instead of candidates when `δ[X]` has no extension to a model of ϕ
    /// ([`SynthesisOutcome::Unrealizable`], certified under
    /// `Manthan3Config::certify`) or when the oracle gave up
    /// ([`SynthesisOutcome::Unknown`] with the budget's reason).
    pub fn find_candidates(
        &mut self,
        delta: &Assignment,
        oracle: &mut Oracle,
    ) -> ControlFlow<SynthesisOutcome, Vec<Var>> {
        self.assumptions.clear();
        for &x in &self.universals {
            self.assumptions.push(x.lit(delta.value(x)));
        }
        for slot in &self.slots {
            self.assumptions
                .push(slot.target.lit(delta.value(slot.output)));
        }
        match oracle.solve_maxsat_under_assumptions(&mut self.maxsat, &self.assumptions) {
            MaxSatResult::Optimum { .. } => {
                // Soft clause `i` is slot `i`'s (see `RepairSession::new`).
                let dropped = self.maxsat.violated_softs();
                ControlFlow::Continue(
                    dropped
                        .map(|soft| self.slots[soft.index()].output)
                        .collect(),
                )
            }
            MaxSatResult::HardUnsat => ControlFlow::Break(SynthesisOutcome::Unrealizable),
            MaxSatResult::Unknown => {
                ControlFlow::Break(SynthesisOutcome::Unknown(oracle.give_up_reason()))
            }
        }
    }

    /// Runtime statistics of the persistent MaxSAT solver's CDCL core —
    /// the observable the repair-side hygiene watchdog asserts on.
    pub fn solver_stats(&self) -> SolverStats {
        self.maxsat.sat_stats()
    }

    /// Number of problem clauses currently held by the persistent MaxSAT
    /// solver. Bounded across iterations: after the lazily encoded
    /// totalizer no clause is added, and the solver's maintenance passes
    /// can only shrink it.
    pub fn solver_clauses(&self) -> usize {
        self.maxsat.num_solver_clauses()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::{Budget, UnknownReason};
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
            // Replaying δ on the matrix must falsify it.
            VerifyOutcome::CounterExample(delta) => assert!(!dqbf.eval_matrix(&delta)),
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
        // Each verify refutes the error formula clause by clause: a
        // counterexample takes one to |ϕ| queries, `Valid` exactly |ϕ|.
        let clauses = dqbf.num_clauses();
        let good_f2 = vector.get(y(1)).unwrap();
        for round in 0..4 {
            let calls_before = oracle.stats().sat_calls;
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
            let calls = oracle.stats().sat_calls - calls_before;
            assert!((1..=clauses).contains(&calls), "round {round}: {calls}");
            // Consistency with the independent from-scratch checker.
            assert!(!check(&dqbf, &vector).is_valid(), "round {round}");
        }
        vector.set(y(1), good_f2);
        let calls_before = oracle.stats().sat_calls;
        assert_eq!(
            session.verify(&dqbf, &vector, &mut oracle),
            VerifyOutcome::Valid
        );
        assert_eq!(oracle.stats().sat_calls - calls_before, clauses);
        assert!(check(&dqbf, &vector).is_valid());

        // Round 0 encodes all three candidates; rounds 1–3 and the final
        // restoration re-encode only the y2 generation that changed.
        assert_eq!(session.candidate_encodings(), 7);
        // One matrix solver + one error solver, despite 5 verification calls.
        assert_eq!(oracle.stats().sat_solvers_constructed, 2);
    }

    /// `∀x1 x2 x3 ∃y. y ↔ x1 ∧ x2 ∧ x3`, as the clauses `(¬y ∨ x_i)` and then
    /// `(¬x1 ∨ ¬x2 ∨ ¬x3 ∨ y)`. Against `y := ⊥` only the last clause can
    /// fail, so a refutation that stopped short of the last clause would
    /// call the vector valid.
    #[test]
    fn only_the_last_clause_can_fail() {
        let xs = [x(0), x(1), x(2)];
        let out = y(0);
        let mut dqbf = Dqbf::new();
        for &v in &xs {
            dqbf.add_universal(v);
            dqbf.add_clause([out.negative(), v.positive()]);
        }
        dqbf.add_existential(out, xs);
        dqbf.add_clause(
            xs.iter()
                .map(|v| v.negative())
                .chain(std::iter::once(out.positive())),
        );
        let clauses = dqbf.num_clauses();
        let mut oracle = Oracle::new(Budget::unlimited()).with_certification(true);
        let mut session = VerifySession::new(&dqbf, &mut oracle);
        let mut vector = HenkinVector::new();
        vector.set(out, AigRef::FALSE);

        match session.verify(&dqbf, &vector, &mut oracle) {
            VerifyOutcome::CounterExample(delta) => {
                let last = dqbf.clauses().last().expect("four clauses");
                assert!(
                    last.iter().all(|&l| !delta.lit_value(l)),
                    "δ {delta:?} does not falsify the last clause"
                );
            }
            other => panic!("expected a counterexample, got {other:?}"),
        }
        assert_eq!(oracle.stats().sat_calls, clauses);

        // The closing refutation certifies one UNSAT answer per clause.
        let before = *oracle.stats();
        let conjunction = xs.iter().fold(AigRef::TRUE, |f, v| {
            let input = vector.aig_mut().input(v.index());
            vector.aig_mut().and(f, input)
        });
        vector.set(out, conjunction);
        assert_eq!(
            session.verify(&dqbf, &vector, &mut oracle),
            VerifyOutcome::Valid
        );
        let after = oracle.stats();
        assert_eq!(after.sat_calls - before.sat_calls, clauses);
        assert!(after.certificates_checked - before.certificates_checked >= clauses as u64);
        assert_eq!(after.certificates_rejected, 0);
    }

    /// `∀x ∃^{x}y` with the clauses `(x ∨ ¬x ∨ y)`, a tautology, and
    /// `(y ∨ x ∨ y)`, which repeats `y`. Both sessions, certifying and not,
    /// must refute the tautology by its own assumptions `{¬x, x, ¬y}` and
    /// the repeated clause like any other, with every certificate accepted.
    #[test]
    fn tautological_and_repeated_literal_clauses_are_refuted_by_their_assumptions() {
        let (xv, yv) = (Var::new(0), Var::new(1));
        let mut dqbf = Dqbf::new();
        dqbf.add_universal(xv);
        dqbf.add_existential(yv, [xv]);
        dqbf.add_clause([xv.positive(), xv.negative(), yv.positive()]);
        dqbf.add_clause([yv.positive(), xv.positive(), yv.positive()]);
        for certify in [false, true] {
            let mut oracle = Oracle::new(Budget::unlimited()).with_certification(certify);
            let mut session = VerifySession::new(&dqbf, &mut oracle);
            let mut vector = HenkinVector::new();
            let input = vector.aig_mut().input(xv.index());
            // y := x falsifies only the repeated clause, at x = 0, so the
            // tautology's query comes first and must be refuted.
            vector.set(yv, input);
            match session.verify(&dqbf, &vector, &mut oracle) {
                // x = 0 and y = 0.
                VerifyOutcome::CounterExample(delta) => {
                    assert_eq!(delta, Assignment::new_false(2), "certify {certify}");
                }
                other => panic!("certify {certify}: expected a counterexample, got {other:?}"),
            }
            assert_eq!(oracle.stats().sat_calls, 2, "certify {certify}");
            vector.set(yv, !input);
            assert_eq!(
                session.verify(&dqbf, &vector, &mut oracle),
                VerifyOutcome::Valid,
                "certify {certify}"
            );
            assert_eq!(oracle.stats().sat_calls, 4, "certify {certify}");
            let stats = oracle.stats();
            // One certificate per UNSAT answer: the tautology twice, the
            // repeated clause once.
            let expected = if certify { 3 } else { 0 };
            assert_eq!(stats.certificates_checked, expected);
            assert_eq!(stats.certificates_rejected, 0);
            assert!(oracle.certification_failure().is_none());
        }
    }

    /// The error solver holds the candidate cones and their links, not
    /// `¬ϕ`: after the first verify its clause count is the same for the
    /// paper example and for the same matrix with every clause repeated
    /// three times.
    #[test]
    fn the_error_solver_does_not_grow_with_the_matrix() {
        let paper = Dqbf::paper_example();
        let mut tripled = paper.clone();
        for _ in 0..2 {
            for clause in paper.clauses() {
                tripled.add_clause(clause.iter().copied());
            }
        }
        assert_eq!(tripled.num_clauses(), 3 * paper.num_clauses());
        let clauses_after_first_verify = |dqbf: &Dqbf| {
            let mut oracle = Oracle::new(Budget::unlimited());
            let mut session = VerifySession::new(dqbf, &mut oracle);
            assert_eq!(
                session.verify(dqbf, &paper_vector(), &mut oracle),
                VerifyOutcome::Valid
            );
            assert_eq!(oracle.stats().sat_calls, dqbf.num_clauses());
            session.error_solver_clauses()
        };
        assert_eq!(
            clauses_after_first_verify(&tripled),
            clauses_after_first_verify(&paper)
        );
    }

    /// Hygiene watchdog (ROADMAP "error-solver hygiene"): a repair-heavy run
    /// — hundreds of candidate generations on one session — must keep the
    /// error solver's clause database bounded (the solver's own maintenance
    /// passes free retired generations and trim the learnt DB), and still
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
        assert_eq!(session.candidate_encodings(), 202);
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
        // Maintenance runs inside admitted solve calls, so the oracle bills
        // its work with theirs.
        assert!(oracle.stats().arena_collections >= 1);
        assert!(oracle.stats().sat_propagations > 0);
        // Maintenance never constructs new solvers.
        assert_eq!(oracle.stats().sat_solvers_constructed, 2);
    }

    /// Repair-side mirror of the error-solver hygiene watchdog: hundreds of
    /// FindCandidates calls on one [`RepairSession`] must keep the MaxSAT
    /// solver's clause database bounded by its construction-time size
    /// (assumptions leave no residue; the solver's own maintenance passes
    /// only shrink it), and keep answering on the same single solver and
    /// single hard encoding.
    #[test]
    fn long_repair_runs_keep_the_maxsat_solver_bounded() {
        let dqbf = Dqbf::paper_example();
        let mut oracle = Oracle::new(Budget::unlimited());
        let mut session = RepairSession::new(&dqbf, &mut oracle);
        let clause_watermark = session.solver_clauses();

        // δ = (x1, x2, x3, y1, y2, y3).
        let delta_a = Assignment::from_values(vec![true, false, false, false, false, false]);
        let delta_b = Assignment::from_values(vec![false, true, false, true, true, true]);

        for round in 0..200 {
            let delta = if round % 2 == 0 { &delta_a } else { &delta_b };
            let candidates = session.find_candidates(delta, &mut oracle);
            if round % 2 == 0 {
                // With x = (1,0,0), ϕ forces y2 = 1, so exactly the y2 soft
                // is dropped — on every even round, however much solver
                // state has accumulated.
                assert_eq!(
                    candidates.continue_value(),
                    Some(vec![y(1)]),
                    "round {round}"
                );
            }
        }

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
        // One MaxSAT solver and its one hard encoding, 200 calls.
        assert_eq!(oracle.stats().maxsat_solvers_constructed, 1);
        assert_eq!(oracle.stats().maxsat_calls, 200);
    }

    /// FindCandidates is the X-extension check: a δ[X] that no model of ϕ
    /// extends ends the run as unrealizable, and the same query on a
    /// cancelled budget reports the cancellation and claims nothing.
    #[test]
    fn find_candidates_without_an_extension_ends_the_run() {
        // ∀x ∃^{x}y. (¬x) ∧ y: no model of ϕ has x = 1.
        let (xv, yv) = (Var::new(0), Var::new(1));
        let mut dqbf = Dqbf::new();
        dqbf.add_universal(xv);
        dqbf.add_existential(yv, [xv]);
        dqbf.add_clause([xv.negative()]);
        dqbf.add_clause([yv.positive()]);
        // x = 1, y = 0.
        let delta = Assignment::from_values(vec![true, false]);

        let mut oracle = Oracle::new(Budget::unlimited());
        let mut session = RepairSession::new(&dqbf, &mut oracle);
        assert!(matches!(
            session.find_candidates(&delta, &mut oracle),
            ControlFlow::Break(SynthesisOutcome::Unrealizable)
        ));
        assert_eq!(oracle.stats().maxsat_calls, 1);
        assert_eq!(oracle.stats().budget_exhaustions, 0);

        let budget = Budget::unlimited();
        budget.cancel_token().cancel();
        let mut oracle = Oracle::new(budget);
        let mut session = RepairSession::new(&dqbf, &mut oracle);
        assert!(matches!(
            session.find_candidates(&delta, &mut oracle),
            ControlFlow::Break(SynthesisOutcome::Unknown(UnknownReason::Cancelled))
        ));
        assert_eq!(oracle.stats().maxsat_calls, 0);
        assert_eq!(oracle.stats().budget_exhaustions, 1);
    }

    /// `y := ⊥` against the clauses `(y ∨ x_i)`, i < 4: a pattern violates
    /// as many clauses as it has false bits among x0..x3, and x4 is free.
    /// The simulator must take the lowest pattern with x0..x3 all false,
    /// which fixes x4 too, and not the first failing pattern.
    #[test]
    fn simulation_takes_the_lowest_pattern_with_the_most_violations() {
        let xs: Vec<Var> = (0..5).map(x).collect();
        let out = Var::new(5);
        let mut dqbf = Dqbf::new();
        for &v in &xs {
            dqbf.add_universal(v);
        }
        dqbf.add_existential(out, xs.iter().copied());
        for &v in &xs[..4] {
            dqbf.add_clause([out.positive(), v.positive()]);
        }
        let mut vector = HenkinVector::new();
        vector.set(out, AigRef::FALSE);

        // Redraw the simulator's stream (SIMULATION_WORDS words per
        // universal, in declaration order) to find, from the lowest seed
        // up, one whose first failing pattern is not a most-violating one.
        let patterns = 64 * SIMULATION_WORDS;
        let (seed, words, lane) = (0u64..)
            .find_map(|seed| {
                let mut stream = Simulator::new(seed, Vec::new());
                let words: Vec<Vec<u64>> = (0..xs.len())
                    .map(|_| (0..SIMULATION_WORDS).map(|_| stream.next_word()).collect())
                    .collect();
                let bit = |v: usize, lane: usize| words[v][lane / 64] >> (lane % 64) & 1 == 1;
                let first_failing = (0..patterns).find(|&l| (0..4).any(|v| !bit(v, l)))?;
                let lane = (0..patterns).find(|&l| (0..4).all(|v| !bit(v, l)))?;
                (first_failing < lane).then_some((seed, words, lane))
            })
            .expect("some seed");
        let bit = |v: usize| words[v][lane / 64] >> (lane % 64) & 1 == 1;

        let mut oracle = Oracle::new(Budget::unlimited());
        let mut simulator = Simulator::new(seed, vec![out]);
        let delta = simulator
            .counterexample(&dqbf, &vector, &mut oracle)
            .expect("y := ⊥ fails on most patterns");
        let mut expected = Assignment::new_false(dqbf.num_vars());
        expected.set(xs[4], bit(4));
        assert_eq!(delta, expected);
        assert_eq!(oracle.stats().sim_patterns, patterns as u64);
        assert_eq!(oracle.stats().sim_counterexamples, 1);
        // Simulation never calls a solver.
        assert_eq!(oracle.stats().sat_calls, 0);
    }

    #[test]
    fn simulation_finds_nothing_against_a_valid_vector() {
        let dqbf = Dqbf::paper_example();
        let mut oracle = Oracle::new(Budget::unlimited());
        // Suppliers first: paper_vector's functions read universals only.
        let mut simulator = Simulator::new(7, vec![y(0), y(1), y(2)]);
        for _ in 0..3 {
            assert_eq!(
                simulator.counterexample(&dqbf, &paper_vector(), &mut oracle),
                None
            );
        }
        assert_eq!(oracle.stats().sim_patterns, 3 * 512);
        assert_eq!(oracle.stats().sim_counterexamples, 0);
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
