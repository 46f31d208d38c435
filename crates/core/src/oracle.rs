//! The shared oracle layer.
//!
//! Every SAT, MaxSAT, and sampling interaction of the synthesis loop is
//! funnelled through an [`Oracle`], which owns the run's [`Budget`]
//! (wall-clock deadline and cancellation token) and collects
//! [`OracleStats`]. The one exception is unique-definition preprocessing,
//! which runs inside `manthan3-dqbf` on a Padoa session and an enumerator
//! of its own: `unique::extract_definitions` takes the budget's
//! cancellation token and the engine re-checks the deadline after
//! extraction, but those two solvers are neither counted in
//! [`OracleStats`] nor certified.
//! The statistics let tests and benchmarks assert structural properties
//! such as "the verify–repair loop constructed exactly one error-formula
//! solver" (see [`crate::VerifySession`]).
//!
//! Every oracle call that stops early gives the same answer: an `Unknown`
//! verdict ([`SolveResult::Unknown`], [`MaxSatResult::Unknown`]) or a short
//! sample batch. The reason — deadline or cancellation — stays with the
//! budget; [`Oracle::give_up_reason`] reads it.

use manthan3_cnf::{Assignment, Cnf, Lit};
use manthan3_drat::{write_dimacs, write_text_proof, CheckOutcome, ProofStep, Session};
use manthan3_maxsat::{MaxSatResult, MaxSatSolver};
use manthan3_sampler::{Sampler, SamplerConfig};
use manthan3_sat::{
    CancelToken, Certificate, LogPosition, SolveResult, Solver, SolverConfig, SolverStats,
};
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// Why a synthesis run ended without a definitive answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnknownReason {
    /// The repair loop could not modify any candidate for the current
    /// counterexample (the incompleteness discussed in §5 of the paper).
    RepairStuck,
    /// The configured number of repair iterations was exhausted.
    IterationLimit,
    /// The configured wall-clock budget was exhausted.
    TimeBudget,
    /// An engine-specific size limit was exceeded (e.g. a baseline's
    /// expansion or arbiter-table bound).
    OracleBudget,
    /// The run was cooperatively cancelled (e.g. it lost a portfolio race).
    Cancelled,
}

/// The resource budget shared by every oracle call of one synthesis run: a
/// wall-clock deadline and a cancellation token.
///
/// Cloning a budget shares its [`CancelToken`] and its deadline: a
/// portfolio runner builds one budget when the race starts and hands clones
/// to the racing engines, so all of them observe the same absolute deadline
/// and the same cancellation flag.
#[derive(Debug, Clone)]
pub struct Budget {
    /// When the clock started: at construction.
    started_at: Instant,
    deadline: Option<Instant>,
    cancel: CancelToken,
}

impl Budget {
    /// A budget with no deadline.
    pub fn unlimited() -> Self {
        Budget::new(None)
    }

    /// A budget with the given wall-clock allowance (`None` = unlimited).
    /// The clock starts now, so build the budget when the run it governs
    /// begins.
    pub fn new(time: Option<Duration>) -> Self {
        let started_at = Instant::now();
        Budget {
            started_at,
            deadline: time.map(|t| started_at + t),
            cancel: CancelToken::new(),
        }
    }

    /// The budget's cancellation token. Cancelling it makes every oracle
    /// call routed through this budget (or a clone of it) give up at its
    /// next poll point.
    pub fn cancel_token(&self) -> &CancelToken {
        &self.cancel
    }

    /// Returns `true` once the budget's token has been cancelled.
    pub fn cancelled(&self) -> bool {
        self.cancel.is_cancelled()
    }

    /// Returns `true` once the wall-clock deadline has passed or the budget
    /// has been cancelled — in both cases no further work should start.
    pub fn expired(&self) -> bool {
        self.cancel.is_cancelled() || self.deadline.is_some_and(|d| Instant::now() >= d)
    }

    /// Time elapsed since the budget was built.
    pub fn elapsed(&self) -> Duration {
        self.started_at.elapsed()
    }
}

impl Default for Budget {
    fn default() -> Self {
        Budget::unlimited()
    }
}

/// Declares [`OracleStats`] from one table, one row per counter:
///
/// ```text
/// /// doc comment
/// name: type, kind [from SolverStats field] [as "csv_column"];
/// ```
///
/// `kind` is `counter` (adds up), `gauge` (overwritten from the latest
/// solver snapshot, added on merge) or `nanos` (adds up, exported in
/// seconds). A row with a `from` source is billed from [`SolverStats`]
/// snapshots; `as` renames the CSV column (default: the field name). The
/// table generates the struct, [`OracleStats::absorb`], the solver billing,
/// and the CSV layout ([`OracleStats::COLUMNS`], [`OracleStats::values`]),
/// so adding a counter is one row.
macro_rules! oracle_stats {
    ($(
        $(#[$doc:meta])*
        $name:ident: $ty:ty, $kind:ident $(from $source:ident)? $(as $column:literal)?;
    )*) => {
        /// Counters for every oracle interaction of one run.
        ///
        /// Fed into [`SynthesisStats`](crate::SynthesisStats) by the engine;
        /// the baseline engines report the same counters on their results.
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct OracleStats {
            $($(#[$doc])* pub $name: $ty,)*
        }

        impl OracleStats {
            /// The CSV column of every counter, in table order — the
            /// counter columns of `runs.csv` and rows of `summary_table.csv`.
            pub const COLUMNS: &'static [&'static str] =
                &[$(stat_column!($name $(as $column)?)),*];

            /// The exported value of every counter, in
            /// [`OracleStats::COLUMNS`] order (`nanos` rows in seconds).
            pub fn values(&self) -> impl Iterator<Item = String> {
                [$(stat_export!($kind, self.$name)),*].into_iter()
            }

            /// Accumulates `other` into `self`, field by field. Gauges add
            /// too, so the merged value is the total live footprint across
            /// the merged oracles' last-observed solvers. Used by the
            /// portfolio's report merge and the benchmark summary.
            pub fn absorb(&mut self, other: &OracleStats) {
                $(self.$name += other.$name;)*
            }

            /// Bills the solver-layer work between two [`SolverStats`]
            /// snapshots to the counters with a solver source, and
            /// refreshes the gauges from the `after` snapshot. Shared by the
            /// solve paths and the session maintenance hook so every counter
            /// means the same thing on both.
            fn bill_solver_delta(&mut self, before: &SolverStats, after: &SolverStats) {
                // Exhaustive on purpose: a `SolverStats` field without a
                // table row is a compile error, not a silently dropped
                // counter.
                let SolverStats { $($($source: _,)?)* } = after;
                $($(stat_bill!($kind, self.$name, before.$source, after.$source);)?)*
            }

            /// Builds stats from raw values in table order.
            #[cfg(test)]
            fn from_raw(raw: &[u64]) -> Self {
                let mut raw = raw.iter().copied();
                OracleStats {
                    $($name: raw.next().unwrap_or(0) as $ty,)*
                }
            }

            /// The raw field values in table order.
            #[cfg(test)]
            fn raw(&self) -> Vec<u64> {
                vec![$(self.$name as u64),*]
            }
        }
    };
}

/// The CSV column of one [`oracle_stats!`] row.
macro_rules! stat_column {
    ($name:ident) => {
        stringify!($name)
    };
    ($name:ident as $column:literal) => {
        $column
    };
}

/// The exported CSV value of one [`oracle_stats!`] row.
macro_rules! stat_export {
    (counter, $value:expr) => {
        $value.to_string()
    };
    (gauge, $value:expr) => {
        $value.to_string()
    };
    (nanos, $value:expr) => {
        format!("{:.4}", $value as f64 / 1e9)
    };
}

/// Bills one [`oracle_stats!`] row with a `SolverStats` source.
macro_rules! stat_bill {
    (counter, $field:expr, $before:expr, $after:expr) => {
        $field += $after - $before
    };
    (gauge, $field:expr, $before:expr, $after:expr) => {
        $field = $after
    };
}

oracle_stats! {
    /// Number of CDCL solvers constructed through the oracle. The persistent
    /// verify–repair session keeps this at two (matrix + error formula) per
    /// run, however many repair iterations execute.
    sat_solvers_constructed: usize, counter;
    /// Number of MaxSAT solvers constructed through the oracle.
    maxsat_solvers_constructed: usize, counter;
    /// Number of samplers constructed through the oracle.
    samplers_constructed: usize, counter;
    /// Number of SAT solve calls (with or without assumptions).
    sat_calls: usize, counter;
    /// Number of MaxSAT solve calls.
    maxsat_calls: usize, counter;
    /// Number of per-sample solver calls made by oracle-routed samplers
    /// ([`Sampler::solves`]).
    sampler_calls: usize, counter;
    /// Number of oracle-routed sampling requests that emitted fewer samples
    /// than requested (UNSAT verdicts, deadline refusals, or cancellation;
    /// only the last two also count as budget exhaustions).
    sample_shortfalls: usize, counter;
    /// Number of full hard-clause MaxSAT encodings constructed. The
    /// persistent repair session keeps this at one per run, however many
    /// FindCandidates calls execute; the from-scratch reference path pays
    /// one per call.
    maxsat_hard_encodings: usize, counter;
    /// Number of MaxSAT solve calls served under assumptions on a persistent
    /// encoding (the incremental hits; `maxsat_calls -
    /// maxsat_incremental_calls` are fresh rebuild-and-solve calls).
    maxsat_incremental_calls: usize, counter;
    /// Internal SAT probes issued by MaxSAT optimum searches (bound probes
    /// and hard/optimistic checks alike).
    maxsat_probes: u64, counter;
    /// UNSAT cores extracted by MaxSAT searches: always 0, since the only
    /// MaxSAT search (the warm-started linear one) extracts no cores. The
    /// row stays for the end-to-end benchmark's counter schema, which
    /// reports it as `maxsat.cores`.
    maxsat_cores: u64, counter;
    /// Total SAT conflicts across all oracle-routed solve calls.
    conflicts: u64, counter from conflicts;
    /// Total CDCL decisions across all oracle-routed solve calls.
    decisions: u64, counter from decisions;
    /// Total unit propagations across all oracle-routed solve calls (SAT and
    /// MaxSAT alike). Together with the harness's wall-clock column this
    /// yields the propagations-per-second throughput metric.
    sat_propagations: u64, counter from propagations;
    /// Total search restarts across all oracle-routed solve calls.
    sat_restarts: u64, counter from restarts;
    /// Assumption decision levels carried over between incremental solve
    /// calls instead of being re-decided (trail reuse), across all
    /// oracle-routed solvers.
    reused_levels: u64, counter from reused_levels;
    /// Rephasing events (decision phases reset to the best trail seen)
    /// across all oracle-routed solvers.
    rephases: u64, counter from rephases;
    /// Learnt clauses live in the most recently observed solver (a gauge,
    /// refreshed after every billed solve or maintenance pass; summed across
    /// racers by the portfolio merge).
    learnt_db_live: usize, gauge from learnt_clauses as "learnt_clauses_live";
    /// Glue ≤ 2 learnt clauses in the most recently observed solver (a
    /// gauge, like [`OracleStats::learnt_db_live`]).
    glue2_clauses: usize, gauge from glue2_clauses;
    /// Compacting clause-arena garbage collections performed by
    /// oracle-routed solvers.
    arena_collections: u64, counter from arena_collections;
    /// Arena words occupied by live clauses in the most recently observed
    /// solver (a gauge, like [`OracleStats::learnt_db_live`]).
    arena_live_words: usize, gauge from arena_live_words;
    /// SAT models re-verified against the full clause database by
    /// oracle-routed solvers (a debug-build self-check; 0 in release
    /// builds).
    models_verified: u64, counter from models_verified;
    /// DRAT certificates of oracle-routed UNSAT verdicts handed to the
    /// independent checker (only under [`Oracle::with_certification`]).
    certificates_checked: u64, counter;
    /// Checked certificates the checker rejected — always 0 on a sound run;
    /// the first offender is kept in [`Oracle::certification_failure`].
    certificates_rejected: u64, counter;
    /// Total proof size across all checked certificates, counted on the
    /// integer log the checker reads: 4 bytes per DIMACS literal and per
    /// step terminator, each certificate's empty-clause tail included.
    proof_bytes: u64, counter;
    /// Total clause-addition steps across all checked certificates.
    proof_adds: u64, counter;
    /// Total clause-deletion steps across all checked certificates.
    proof_deletes: u64, counter;
    /// Proof-log steps the checker actually processed for accepted
    /// certificates. Each solver's log is read once by its own checking
    /// session, so a step counts once however many certificates include
    /// it; `proof_adds + proof_deletes` counts it once per certificate.
    proof_steps_checked: u64, counter;
    /// Wall-clock nanoseconds spent inside the in-process proof checker.
    certify_nanos: u64, nanos as "certify_wall_s";
    /// Number of calls that gave up because a budget was exhausted.
    budget_exhaustions: usize, counter;
}

/// The evidence kept when an in-process certificate check fails: the
/// certificate rendered as the file pair that reproduces the rejection
/// offline (`manthan3-drat check <stem>.cnf <stem>.drat`). Only the first
/// rejection of an oracle is retained — one reproducible offender is what a
/// bug report needs, and a broken tracer would otherwise accumulate every
/// subsequent verdict's log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CertificationFailure {
    /// Why the checker (or the certificate plumbing before it) rejected.
    pub reason: String,
    /// The certificate CNF as a DIMACS file (empty when the solver produced
    /// no certificate at all).
    pub cnf: String,
    /// The rejected proof as a text DRAT file (empty without a
    /// certificate).
    pub drat: String,
}

/// Constructs solvers and funnels every solve call through the shared
/// [`Budget`], collecting [`OracleStats`] on the way.
#[derive(Debug, Clone)]
pub struct Oracle {
    budget: Budget,
    stats: OracleStats,
    /// When `true`, every constructed SAT and MaxSAT solver logs DRAT
    /// proofs, and every UNSAT verdict routed through this oracle is checked
    /// in-process by the independent `manthan3-drat` checker.
    certify: bool,
    /// The first rejected certificate, kept for offline reproduction
    /// (boxed: the happy path pays one pointer, not the evidence).
    certification_failure: Option<Box<CertificationFailure>>,
    /// One checking session per certifying solver, keyed by the identity of
    /// its proof log ([`Certificate::log_id`]), with how far the session
    /// has read that log.
    proof_sessions: HashMap<u64, (Session, LogPosition)>,
}

impl Oracle {
    /// Creates an oracle enforcing `budget`, constructing solvers with the
    /// default solver configuration.
    pub fn new(budget: Budget) -> Self {
        Oracle {
            budget,
            stats: OracleStats::default(),
            certify: false,
            certification_failure: None,
            proof_sessions: HashMap::new(),
        }
    }

    /// Enables in-process certification (builder style): every SAT and
    /// MaxSAT solver this oracle constructs logs DRAT proofs
    /// ([`SolverConfig::proof_logging`]), and every UNSAT verdict routed
    /// through the oracle — top-level solves and the closing refutation of a
    /// MaxSAT probe loop alike — is immediately checked by the independent
    /// `manthan3-drat` checker. Rejections are counted in
    /// [`OracleStats::certificates_rejected`] and the first offender is kept
    /// in [`Oracle::certification_failure`]; checking never changes a
    /// verdict, except that a check the budget's token cancels gives up
    /// like any other oracle call: the verdict becomes `Unknown`, and the
    /// certificate counts as neither checked nor rejected. Samplers are
    /// exempt: they claim models, never unsatisfiability, so there is
    /// nothing to certify.
    pub fn with_certification(mut self, enabled: bool) -> Self {
        self.certify = enabled;
        self
    }

    /// The first rejected certificate of this oracle, `None` on a sound run
    /// (or when certification is off).
    pub fn certification_failure(&self) -> Option<&CertificationFailure> {
        self.certification_failure.as_deref()
    }

    /// Moves the first rejected certificate out of the oracle (the engine
    /// surfaces it through
    /// [`SynthesisStats`](crate::SynthesisStats::certification_failure) so
    /// the harness can dump the offending CNF and proof for offline
    /// reproduction).
    pub fn take_certification_failure(&mut self) -> Option<Box<CertificationFailure>> {
        self.certification_failure.take()
    }

    /// The configuration of every SAT and MaxSAT solver this oracle
    /// constructs: the solver defaults with the budget's cancellation token
    /// attached and proof logging armed when certifying.
    fn solver_config(&self) -> SolverConfig {
        SolverConfig::default()
            .with_cancel(self.budget.cancel.clone())
            .with_proof_logging(self.certify)
    }

    /// The budget being enforced.
    pub fn budget(&self) -> &Budget {
        &self.budget
    }

    /// The statistics collected so far.
    pub fn stats(&self) -> &OracleStats {
        &self.stats
    }

    /// The reason to report when an oracle call gave up: the
    /// [`exhausted`](Oracle::exhausted) reason, or
    /// [`UnknownReason::OracleBudget`] when the budget is not exhausted.
    pub fn give_up_reason(&self) -> UnknownReason {
        self.exhausted().unwrap_or(UnknownReason::OracleBudget)
    }

    /// Returns the exhausted-budget reason if no further oracle call may be
    /// made, `None` while the deadline has not passed and the token is not
    /// cancelled.
    pub fn exhausted(&self) -> Option<UnknownReason> {
        if self.budget.cancelled() {
            return Some(UnknownReason::Cancelled);
        }
        if self.budget.expired() {
            return Some(UnknownReason::TimeBudget);
        }
        None
    }

    /// Constructs a CDCL solver that carries the budget's cancellation
    /// token, counting it in [`OracleStats::sat_solvers_constructed`].
    pub fn new_solver(&mut self) -> Solver {
        self.stats.sat_solvers_constructed += 1;
        Solver::with_config(self.solver_config())
    }

    /// Solves `solver` under the shared budget.
    ///
    /// Refuses already-exhausted budgets up front, before delegating — the
    /// delegate re-checks, but the early refusal keeps every path from this
    /// entry point to the solver behind an admission check of its own.
    pub fn solve(&mut self, solver: &mut Solver) -> SolveResult {
        if self.exhausted().is_some() {
            self.stats.budget_exhaustions += 1;
            return SolveResult::Unknown;
        }
        self.solve_with_assumptions(solver, &[])
    }

    /// Solves `solver` under `assumptions` and the shared budget.
    ///
    /// Returns [`SolveResult::Unknown`] without touching the solver when the
    /// budget is already exhausted; use [`Oracle::give_up_reason`] to map the
    /// verdict to an [`UnknownReason`].
    pub fn solve_with_assumptions(
        &mut self,
        solver: &mut Solver,
        assumptions: &[Lit],
    ) -> SolveResult {
        if self.exhausted().is_some() {
            self.stats.budget_exhaustions += 1;
            return SolveResult::Unknown;
        }
        let before = solver.stats();
        let result = solver.solve_with_assumptions(assumptions);
        self.stats.sat_calls += 1;
        self.stats.bill_solver_delta(&before, &solver.stats());
        if result == SolveResult::Unknown {
            self.stats.budget_exhaustions += 1;
        }
        if self.certify
            && result == SolveResult::Unsat
            && !self.check_unsat_certificate(solver.certificate())
        {
            self.stats.budget_exhaustions += 1;
            return SolveResult::Unknown;
        }
        result
    }

    /// Hands one UNSAT verdict's certificate to the independent checker,
    /// billing the proof volume and check time to the statistics. A missing
    /// certificate is itself a rejection — under certification every
    /// oracle-routed UNSAT claim must come with evidence. The first
    /// rejection is rendered as DIMACS and text DRAT for offline
    /// reproduction.
    ///
    /// The checker polls the budget's cancellation token. Returns `false`
    /// when the check was cancelled: the certificate then counts as neither
    /// checked nor rejected, and the caller reports `Unknown`.
    fn check_unsat_certificate(&mut self, certificate: Option<Certificate<'_>>) -> bool {
        let started = Instant::now();
        let outcome = certificate.map(|cert| self.advance_session(cert));
        self.stats.certify_nanos += u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let rejection = match outcome {
            Some(CheckOutcome::Cancelled) => return false,
            Some(CheckOutcome::Verified(_)) => None,
            Some(CheckOutcome::Rejected { step, reason }) => {
                Some(format!("checker rejected step {step}: {reason}"))
            }
            None => Some(
                "UNSAT verdict carried no certificate \
                 (was the solver constructed outside this oracle, \
                 without proof logging?)"
                    .to_string(),
            ),
        };
        self.stats.certificates_checked += 1;
        if let Some(cert) = certificate {
            let (adds, deletes) = cert.step_counts();
            self.stats.proof_bytes += cert.proof_bytes();
            self.stats.proof_adds += adds;
            self.stats.proof_deletes += deletes;
        }
        if let Some(reason) = rejection {
            self.stats.certificates_rejected += 1;
            if self.certification_failure.is_none() {
                let (cnf, drat) = certificate
                    .map(|c| {
                        let drat = write_text_proof(c.steps().map(ProofStep::from));
                        (write_dimacs(c.cnf()), drat)
                    })
                    .unwrap_or_default();
                self.certification_failure =
                    Some(Box::new(CertificationFailure { reason, cnf, drat }));
            }
        }
        true
    }

    /// Checks `cert` on the session that follows its log: the session loads
    /// the original clauses and checks the proof steps the log gained since
    /// its last verdict, then proves this verdict from its assumptions. A
    /// session that does not verify (rejected or cancelled) is dropped, so
    /// the log's next certificate is read from its first clause again.
    fn advance_session(&mut self, cert: Certificate<'_>) -> CheckOutcome {
        let (mut session, read) = self
            .proof_sessions
            .remove(&cert.log_id())
            .unwrap_or_default();
        let cancel = self.budget.cancel_token();
        let outcome = session.advance(
            cert.originals_since(read),
            cert.steps_since(read).map(ProofStep::from),
            cert.assumptions(),
            || cancel.is_cancelled(),
        );
        if let CheckOutcome::Verified(stats) = &outcome {
            self.stats.proof_steps_checked += stats.steps_checked as u64;
            self.proof_sessions
                .insert(cert.log_id(), (session, cert.end()));
        }
        outcome
    }

    /// Constructs a MaxSAT solver whose internal SAT solver carries the
    /// budget's cancellation token, so every probe of the optimum search
    /// stops when the run is cancelled.
    pub fn new_maxsat(&mut self) -> MaxSatSolver {
        self.stats.maxsat_solvers_constructed += 1;
        MaxSatSolver::with_config(self.solver_config())
    }

    /// The shared budget-gating and accounting around one MaxSAT solve:
    /// refuse untouched when the budget is exhausted, otherwise run the
    /// solve and bill its conflicts and probes (and any give-up verdict) to
    /// the statistics.
    fn run_maxsat(
        &mut self,
        solver: &mut MaxSatSolver,
        incremental: bool,
        solve: impl FnOnce(&mut MaxSatSolver) -> MaxSatResult,
    ) -> MaxSatResult {
        if self.exhausted().is_some() {
            self.stats.budget_exhaustions += 1;
            return MaxSatResult::Unknown;
        }
        let before_sat = solver.sat_stats();
        let before = solver.stats();
        let result = solve(solver);
        self.stats.maxsat_calls += 1;
        if incremental {
            self.stats.maxsat_incremental_calls += 1;
        }
        self.stats
            .bill_solver_delta(&before_sat, &solver.sat_stats());
        self.stats.maxsat_probes += solver.stats().probes - before.probes;
        if result == MaxSatResult::Unknown {
            self.stats.budget_exhaustions += 1;
        }
        if self.certify {
            let certificate = match result {
                // A hard-UNSAT verdict is an unsatisfiability claim and
                // must come with evidence: the probe loop's closing
                // refutation.
                MaxSatResult::HardUnsat => Some(solver.certificate()),
                // An optimum proved by refuting the bound below it leaves
                // that refutation's certificate behind; optimums reached on
                // a final SAT probe leave none. Check opportunistically —
                // the optimality *lower bound* is what gets certified.
                MaxSatResult::Optimum { .. } => solver.certificate().map(Some),
                // A give-up claims nothing.
                MaxSatResult::Unknown => None,
            };
            if let Some(certificate) = certificate {
                if !self.check_unsat_certificate(certificate) {
                    self.stats.budget_exhaustions += 1;
                    return MaxSatResult::Unknown;
                }
            }
        }
        result
    }

    /// Runs a MaxSAT solve under the shared budget.
    ///
    /// The solve's internal SAT probes and their conflicts are billed to
    /// the statistics. Returns [`MaxSatResult::Unknown`] when the search is
    /// cancelled mid-probe, and without touching the solver when the budget
    /// is already exhausted, exactly like [`Oracle::solve_with_assumptions`];
    /// use [`Oracle::give_up_reason`] to map it to an [`UnknownReason`].
    pub fn solve_maxsat(&mut self, solver: &mut MaxSatSolver) -> MaxSatResult {
        self.run_maxsat(solver, false, |s| s.solve())
    }

    /// Runs a MaxSAT solve under `assumptions` and the shared budget — the
    /// incremental counterpart of [`Oracle::solve_maxsat`], used by the
    /// persistent [`RepairSession`](crate::RepairSession): the call is
    /// served by a kept encoding, so it is additionally counted in
    /// [`OracleStats::maxsat_incremental_calls`]. Budget semantics are
    /// identical (probes and conflicts billed to the statistics, refused
    /// untouched when exhausted).
    pub fn solve_maxsat_under_assumptions(
        &mut self,
        solver: &mut MaxSatSolver,
        assumptions: &[Lit],
    ) -> MaxSatResult {
        self.run_maxsat(solver, true, |s| s.solve_under_assumptions(assumptions))
    }

    /// Records the construction of a full hard-clause MaxSAT encoding (the
    /// expensive, once-per-session — or, on the from-scratch reference path,
    /// once-per-call — part of a FindCandidates query).
    pub(crate) fn note_maxsat_hard_encoding(&mut self) {
        self.stats.maxsat_hard_encodings += 1;
    }

    /// Bills solver work performed *outside* a solve call — the sessions'
    /// periodic maintenance passes (learnt-DB reduction, level-0 compaction)
    /// — given [`SolverStats`] snapshots taken around the pass. Keeps
    /// `OracleStats::arena_collections` complete: most collections happen
    /// between oracle calls, where the per-solve diff-billing cannot see
    /// them.
    pub(crate) fn note_solver_maintenance(&mut self, before: &SolverStats, after: &SolverStats) {
        self.stats.bill_solver_delta(before, after);
    }

    /// Runs one sampling request for `n` samples of `cnf` on a fresh
    /// [`Sampler`] seeded with `seed` under the shared budget, recording the
    /// sampler's solver calls and any shortfall in [`OracleStats`]. The
    /// sampler polls the budget's cancellation token. Like every other
    /// oracle call, an expired or cancelled budget refuses the request —
    /// before any sampler is built.
    ///
    /// A batch shorter than `n` means the formula is unsatisfiable or the
    /// budget gave out; only the latter counts as a budget exhaustion.
    pub fn sample_cnf(&mut self, cnf: &Cnf, seed: u64, n: usize) -> Vec<Assignment> {
        if self.exhausted().is_some() {
            self.stats.budget_exhaustions += 1;
            self.stats.sample_shortfalls += 1;
            return Vec::new();
        }
        self.stats.samplers_constructed += 1;
        let config = SamplerConfig {
            seed,
            cancel: Some(self.budget.cancel.clone()),
        };
        let mut sampler = Sampler::new(cnf, config);
        let samples = sampler.sample(n);
        self.stats.sampler_calls += sampler.solves() as usize;
        if samples.len() < n {
            self.stats.sample_shortfalls += 1;
            if sampler.known_satisfiable() != Some(false) {
                self.stats.budget_exhaustions += 1;
            }
        }
        samples
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use manthan3_cnf::Var;
    use proptest::prelude::{collection, prop_assert_eq, proptest};

    fn lit(d: i64) -> Lit {
        Lit::from_dimacs(d)
    }

    #[test]
    fn unlimited_budget_never_expires() {
        let b = Budget::unlimited();
        assert!(!b.expired());
        assert_eq!(Oracle::new(b).exhausted(), None);
    }

    #[test]
    fn zero_time_budget_expires_immediately() {
        let mut oracle = Oracle::new(Budget::new(Some(Duration::ZERO)));
        assert_eq!(oracle.exhausted(), Some(UnknownReason::TimeBudget));
        assert_eq!(oracle.give_up_reason(), UnknownReason::TimeBudget);
        // An expired deadline refuses every kind of oracle call before any
        // solver is touched, and counts each refusal.
        let mut solver = oracle.new_solver();
        solver.add_clause([lit(1), lit(2)]);
        assert_eq!(oracle.solve(&mut solver), SolveResult::Unknown);
        assert_eq!(solver.stats().propagations, 0);
        let mut maxsat = oracle.new_maxsat();
        maxsat.add_hard([lit(1)]);
        assert_eq!(oracle.solve_maxsat(&mut maxsat), MaxSatResult::Unknown);
        assert_eq!(maxsat.stats().probes, 0);
        assert!(oracle.sample_cnf(&Cnf::new(2), 0, 3).is_empty());
        assert_eq!(oracle.give_up_reason(), UnknownReason::TimeBudget);
        let stats = oracle.stats();
        assert_eq!(stats.budget_exhaustions, 3);
        assert_eq!(stats.sat_calls, 0);
        assert_eq!(stats.maxsat_calls, 0);
        assert_eq!(stats.sampler_calls, 0);
        assert_eq!(stats.samplers_constructed, 0);
        assert_eq!(stats.sample_shortfalls, 1);
    }

    #[test]
    fn solve_counts_calls_and_conflicts() {
        let mut oracle = Oracle::new(Budget::unlimited());
        let mut solver = oracle.new_solver();
        solver.add_clause([lit(1), lit(2)]);
        solver.add_clause([lit(-1), lit(2)]);
        assert_eq!(oracle.solve(&mut solver), SolveResult::Sat);
        assert_eq!(
            oracle.solve_with_assumptions(&mut solver, &[lit(-2)]),
            SolveResult::Unsat
        );
        let stats = oracle.stats();
        assert_eq!(stats.sat_solvers_constructed, 1);
        assert_eq!(stats.sat_calls, 2);
        assert_eq!(stats.budget_exhaustions, 0);
    }

    /// Under [`Oracle::with_certification`] every UNSAT verdict is checked
    /// in-process: constructed solvers inherit proof logging, the checker
    /// accepts the certificates, and the proof-volume counters fill in.
    #[test]
    fn certification_checks_unsat_verdicts_in_process() {
        let mut oracle = Oracle::new(Budget::unlimited()).with_certification(true);
        let mut solver = oracle.new_solver();
        assert!(solver.config().proof_logging);
        solver.add_clause([lit(1), lit(2)]);
        solver.add_clause([lit(-1), lit(2)]);
        // A SAT verdict claims nothing; no check happens.
        assert_eq!(oracle.solve(&mut solver), SolveResult::Sat);
        assert_eq!(oracle.stats().certificates_checked, 0);
        assert_eq!(
            oracle.solve_with_assumptions(&mut solver, &[lit(-2)]),
            SolveResult::Unsat
        );
        let stats = oracle.stats();
        assert_eq!(stats.certificates_checked, 1);
        assert_eq!(stats.certificates_rejected, 0);
        assert!(stats.proof_bytes > 0);
        assert!(stats.proof_adds > 0);
        assert!(oracle.certification_failure().is_none());
    }

    /// An UNSAT verdict from a solver that logs no proofs (constructed
    /// outside the oracle) is a certification failure, not a silent pass:
    /// under certification every unsatisfiability claim needs evidence.
    #[test]
    fn certification_flags_missing_certificates() {
        let mut oracle = Oracle::new(Budget::unlimited()).with_certification(true);
        let mut foreign = Solver::new();
        foreign.add_clause([lit(1)]);
        foreign.add_clause([lit(-1)]);
        assert_eq!(oracle.solve(&mut foreign), SolveResult::Unsat);
        let stats = oracle.stats();
        assert_eq!(stats.certificates_checked, 1);
        assert_eq!(stats.certificates_rejected, 1);
        let failure = oracle.certification_failure().expect("first offender kept");
        assert!(failure.reason.contains("no certificate"));
        assert!(failure.cnf.is_empty() && failure.drat.is_empty());
    }

    /// The checker polls the budget's token: a check cancelled before its
    /// verdict gives up like any other oracle call. On the SAT path and on
    /// a MaxSAT hard-UNSAT verdict alike, the check reports that the caller
    /// must answer `Unknown`, and the certificate counts as neither checked
    /// nor rejected.
    #[test]
    fn cancelled_certificate_checks_give_up() {
        let mut oracle = Oracle::new(Budget::unlimited()).with_certification(true);
        let mut solver = oracle.new_solver();
        solver.add_clause([lit(1)]);
        solver.add_clause([lit(-1)]);
        let mut maxsat = oracle.new_maxsat();
        maxsat.add_hard([lit(1), lit(2)]);
        maxsat.add_hard([lit(-1)]);
        maxsat.add_hard([lit(-2)]);
        maxsat.add_soft([lit(3)], 1);
        // Solved outside the oracle, so no check has run yet.
        assert_eq!(solver.solve(), SolveResult::Unsat);
        assert_eq!(maxsat.solve(), MaxSatResult::HardUnsat);
        oracle.budget().cancel_token().cancel();
        assert!(!oracle.check_unsat_certificate(solver.certificate()));
        assert!(!oracle.check_unsat_certificate(maxsat.certificate()));
        let stats = oracle.stats();
        assert_eq!(stats.certificates_checked, 0);
        assert_eq!(stats.certificates_rejected, 0);
        assert_eq!(stats.proof_bytes, 0);
        assert!(oracle.certification_failure().is_none());
        assert_eq!(oracle.give_up_reason(), UnknownReason::Cancelled);
    }

    /// Clauses (−1∨2)(−2∨3)(−1∨−3) and (−4∨5)(−4∨−5): assuming 1, or
    /// assuming 4, is UNSAT.
    fn two_verdict_solver(oracle: &mut Oracle) -> Solver {
        let mut solver = oracle.new_solver();
        for [a, b] in [[-1, 2], [-2, 3], [-1, -3], [-4, 5], [-4, -5]] {
            solver.add_clause([lit(a), lit(b)]);
        }
        solver
    }

    /// Each certifying solver's log is checked once: the second verdict
    /// advances the session the first one left, so every log step is
    /// checked exactly once, fewer steps than the two certificates carry.
    #[test]
    fn one_session_checks_each_log_step_once() {
        let mut oracle = Oracle::new(Budget::unlimited()).with_certification(true);
        let mut solver = two_verdict_solver(&mut oracle);
        for assumed in [lit(1), lit(4)] {
            let result = oracle.solve_with_assumptions(&mut solver, &[assumed]);
            assert_eq!(result, SolveResult::Unsat);
        }
        let stats = oracle.stats();
        assert_eq!(
            (stats.certificates_checked, stats.certificates_rejected),
            (2, 0)
        );
        let (adds, deletes) = solver.proof_steps();
        assert_eq!(stats.proof_steps_checked, adds + deletes);
        assert!(stats.proof_steps_checked < stats.proof_adds + stats.proof_deletes);
        assert_eq!(oracle.proof_sessions.len(), 1);
    }

    /// A cloned solver's log has an identity of its own, so the copies
    /// diverge onto separate sessions and both keep being accepted.
    #[test]
    fn cloned_solvers_are_checked_on_sessions_of_their_own() {
        let mut oracle = Oracle::new(Budget::unlimited()).with_certification(true);
        let mut solver = two_verdict_solver(&mut oracle);
        let result = oracle.solve_with_assumptions(&mut solver, &[lit(1)]);
        assert_eq!(result, SolveResult::Unsat);
        let mut twin = solver.clone();
        // Same number of new clauses on both sides, so a session shared by
        // the copies would find nothing new in the twin's log and miss the
        // clauses its verdict needs.
        solver.add_clause([lit(-6), lit(7)]);
        solver.add_clause([lit(-6), lit(-7)]);
        twin.add_clause([lit(-8), lit(9)]);
        twin.add_clause([lit(-8), lit(-9)]);
        for (copy, assumed) in [(&mut solver, 6), (&mut twin, 8)] {
            let result = oracle.solve_with_assumptions(copy, &[lit(assumed)]);
            assert_eq!(result, SolveResult::Unsat);
        }
        let result = oracle.solve_with_assumptions(&mut twin, &[lit(4)]);
        assert_eq!(result, SolveResult::Unsat);
        let stats = oracle.stats();
        assert_eq!(
            (stats.certificates_checked, stats.certificates_rejected),
            (4, 0)
        );
        assert_eq!(oracle.proof_sessions.len(), 2);
    }

    /// A session whose advance is cancelled is dropped: it may have read
    /// part of the new steps, so it cannot serve the log's next verdict.
    #[test]
    fn cancelled_advances_discard_their_session() {
        let mut oracle = Oracle::new(Budget::unlimited()).with_certification(true);
        let mut solver = two_verdict_solver(&mut oracle);
        let result = oracle.solve_with_assumptions(&mut solver, &[lit(1)]);
        assert_eq!(result, SolveResult::Unsat);
        assert_eq!(oracle.proof_sessions.len(), 1);
        // Solved outside the oracle, so no check has run yet.
        assert_eq!(solver.solve_with_assumptions(&[lit(4)]), SolveResult::Unsat);
        oracle.budget().cancel_token().cancel();
        assert!(!oracle.check_unsat_certificate(solver.certificate()));
        assert!(oracle.proof_sessions.is_empty());
        assert_eq!(oracle.stats().certificates_checked, 1);
    }

    /// The MaxSAT path certifies its probe loop's closing refutation: a
    /// hard-UNSAT verdict must check out, and an optimum proved by refuting
    /// the bound below it is certified opportunistically.
    #[test]
    fn certification_covers_maxsat_hard_unsat_verdicts() {
        let mut oracle = Oracle::new(Budget::unlimited()).with_certification(true);
        let mut maxsat = oracle.new_maxsat();
        assert!(maxsat.solver_config().proof_logging);
        maxsat.add_hard([lit(1), lit(2)]);
        maxsat.add_hard([lit(-1)]);
        maxsat.add_hard([lit(-2)]);
        maxsat.add_soft([lit(3)], 1);
        assert_eq!(oracle.solve_maxsat(&mut maxsat), MaxSatResult::HardUnsat);
        let stats = oracle.stats();
        assert_eq!(stats.certificates_checked, 1);
        assert_eq!(stats.certificates_rejected, 0);
        assert!(oracle.certification_failure().is_none());
    }

    /// Certification is off by default: constructed solvers do not log
    /// proofs and UNSAT verdicts are not checked.
    #[test]
    fn certification_is_off_by_default() {
        let mut oracle = Oracle::new(Budget::unlimited());
        let mut solver = oracle.new_solver();
        assert!(!solver.config().proof_logging);
        solver.add_clause([lit(1)]);
        solver.add_clause([lit(-1)]);
        assert_eq!(oracle.solve(&mut solver), SolveResult::Unsat);
        assert_eq!(oracle.stats().certificates_checked, 0);
        assert_eq!(oracle.stats().proof_bytes, 0);
        assert!(oracle.certification_failure().is_none());
    }

    #[test]
    fn maxsat_goes_through_the_budget() {
        let mut oracle = Oracle::new(Budget::unlimited());
        let mut maxsat = oracle.new_maxsat();
        maxsat.add_hard([Var::new(0).positive(), Var::new(1).positive()]);
        maxsat.add_soft([Var::new(0).negative()], 1);
        let result = oracle.solve_maxsat(&mut maxsat);
        assert_eq!(result, MaxSatResult::Optimum { cost: 0 });
        assert_eq!(oracle.stats().maxsat_solvers_constructed, 1);
        assert_eq!(oracle.stats().maxsat_calls, 1);
    }

    #[test]
    fn sample_cnf_is_served_in_full_under_an_unlimited_budget() {
        let mut oracle = Oracle::new(Budget::unlimited());
        let cnf = Cnf::new(3);
        assert_eq!(oracle.sample_cnf(&cnf, 0, 12).len(), 12);
        assert_eq!(oracle.stats().sampler_calls, 12);
        assert_eq!(oracle.stats().sample_shortfalls, 0);
        assert_eq!(oracle.exhausted(), None);
    }

    /// A sampling request on an UNSAT formula stops after the one solve
    /// that proves it, and bills exactly that solve.
    #[test]
    fn unsat_sampling_request_bills_one_sampler_call() {
        let mut oracle = Oracle::new(Budget::unlimited());
        let mut cnf = Cnf::new(1);
        cnf.add_clause([lit(1)]);
        cnf.add_clause([lit(-1)]);
        assert!(oracle.sample_cnf(&cnf, 0, 5).is_empty());
        let stats = oracle.stats();
        assert_eq!(stats.sampler_calls, 1);
        assert_eq!(stats.samplers_constructed, 1);
        assert_eq!(stats.sample_shortfalls, 1);
        assert_eq!(stats.budget_exhaustions, 0);
    }

    #[test]
    fn cancelled_sampling_requests_report_cancellation() {
        let mut oracle = Oracle::new(Budget::unlimited());
        oracle.budget().cancel_token().cancel();
        let cnf = Cnf::new(2);
        assert!(oracle.sample_cnf(&cnf, 0, 4).is_empty());
        assert_eq!(oracle.give_up_reason(), UnknownReason::Cancelled);
        let stats = oracle.stats();
        assert_eq!(stats.sampler_calls, 0);
        // The request was refused before a sampler was built.
        assert_eq!(stats.samplers_constructed, 0);
        assert_eq!(stats.sample_shortfalls, 1);
        assert_eq!(stats.budget_exhaustions, 1);
    }

    #[test]
    fn cancellation_refuses_further_oracle_calls() {
        let mut oracle = Oracle::new(Budget::unlimited());
        let mut solver = oracle.new_solver();
        solver.add_clause([lit(1), lit(2)]);
        assert_eq!(oracle.solve(&mut solver), SolveResult::Sat);
        oracle.budget().cancel_token().cancel();
        assert_eq!(oracle.exhausted(), Some(UnknownReason::Cancelled));
        assert_eq!(oracle.give_up_reason(), UnknownReason::Cancelled);
        assert_eq!(oracle.solve(&mut solver), SolveResult::Unknown);
        let mut maxsat = oracle.new_maxsat();
        maxsat.add_hard([lit(1)]);
        // A refused MaxSAT call is Unknown, never a best-so-far bound; the
        // budget still names cancellation as the reason.
        assert_eq!(oracle.solve_maxsat(&mut maxsat), MaxSatResult::Unknown);
        assert_eq!(oracle.give_up_reason(), UnknownReason::Cancelled);
        // Refused calls are not performed.
        assert_eq!(oracle.stats().sat_calls, 1);
        assert_eq!(oracle.stats().maxsat_calls, 0);
    }

    #[test]
    fn solves_bill_the_solver_layer_counters() {
        let mut oracle = Oracle::new(Budget::unlimited());
        let mut solver = oracle.new_solver();
        solver.add_clause([lit(1), lit(2)]);
        solver.add_clause([lit(-1), lit(2)]);
        // The assumption forces a solve-time propagation (units added via
        // `add_clause` propagate at add time, outside any billed window).
        assert_eq!(
            oracle.solve_with_assumptions(&mut solver, &[lit(1)]),
            SolveResult::Sat
        );
        let stats = oracle.stats();
        assert!(stats.sat_propagations > 0, "unit propagation was billed");
        // Gauges reflect the observed solver (no conflicts here: empty DB).
        assert_eq!(stats.learnt_db_live, 0);
        assert_eq!(stats.glue2_clauses, 0);
    }

    proptest! {
        /// `absorb` adds every column of the table, field by field.
        #[test]
        fn absorb_adds_every_column(
            a in collection::vec(0..u64::from(u32::MAX), OracleStats::COLUMNS.len()),
            b in collection::vec(0..u64::from(u32::MAX), OracleStats::COLUMNS.len()),
        ) {
            let mut merged = OracleStats::from_raw(&a);
            merged.absorb(&OracleStats::from_raw(&b));
            let sums: Vec<u64> = a.iter().zip(&b).map(|(x, y)| x + y).collect();
            prop_assert_eq!(merged.raw(), sums);
        }
    }

    /// Billing a snapshot pair whose fields all differ (and whose deltas all
    /// differ): every counter with a solver source grows by its own delta,
    /// every gauge takes its `after` value, and counters without a source
    /// stay untouched.
    #[test]
    fn bill_solver_delta_adds_deltas_and_refreshes_gauges() {
        let before = SolverStats {
            conflicts: 1,
            decisions: 2,
            propagations: 3,
            restarts: 4,
            learnt_clauses: 5,
            reused_levels: 6,
            glue2_clauses: 7,
            rephases: 8,
            arena_collections: 9,
            arena_live_words: 10,
            models_verified: 11,
        };
        let after = SolverStats {
            conflicts: 101,
            decisions: 202,
            propagations: 303,
            restarts: 404,
            learnt_clauses: 505,
            reused_levels: 606,
            glue2_clauses: 707,
            rephases: 808,
            arena_collections: 909,
            arena_live_words: 1010,
            models_verified: 1111,
        };
        // Start from non-zero counters so "adds the delta" differs from
        // "sets the delta" and from "sets the after value".
        let mut stats = OracleStats::default();
        stats.bill_solver_delta(&SolverStats::default(), &after);
        stats.bill_solver_delta(&before, &after);
        let delta_over = |b: u64, a: u64| a + (a - b);
        let expected = OracleStats {
            conflicts: delta_over(before.conflicts, after.conflicts),
            decisions: delta_over(before.decisions, after.decisions),
            sat_propagations: delta_over(before.propagations, after.propagations),
            sat_restarts: delta_over(before.restarts, after.restarts),
            reused_levels: delta_over(before.reused_levels, after.reused_levels),
            rephases: delta_over(before.rephases, after.rephases),
            learnt_db_live: after.learnt_clauses,
            glue2_clauses: after.glue2_clauses,
            arena_collections: delta_over(before.arena_collections, after.arena_collections),
            arena_live_words: after.arena_live_words,
            models_verified: delta_over(before.models_verified, after.models_verified),
            ..OracleStats::default()
        };
        assert_eq!(stats, expected);
    }

    #[test]
    fn columns_are_unique_and_match_the_values() {
        let unique: std::collections::BTreeSet<_> = OracleStats::COLUMNS.iter().collect();
        assert_eq!(unique.len(), OracleStats::COLUMNS.len());
        assert_eq!(
            OracleStats::default().values().count(),
            OracleStats::COLUMNS.len()
        );
        let stats = OracleStats {
            sat_calls: 3,
            learnt_db_live: 4,
            certify_nanos: 1_500_000_000,
            ..OracleStats::default()
        };
        let exported: Vec<(&str, String)> = OracleStats::COLUMNS
            .iter()
            .copied()
            .zip(stats.values())
            .collect();
        // Renamed columns carry their field's value; nanos export in seconds.
        for (column, value) in [
            ("sat_calls", "3"),
            ("learnt_clauses_live", "4"),
            ("certify_wall_s", "1.5000"),
        ] {
            assert!(
                exported.contains(&(column, value.to_string())),
                "{column}: {exported:?}"
            );
        }
    }

    #[test]
    fn constructed_solvers_inherit_the_cancel_token() {
        let mut oracle = Oracle::new(Budget::unlimited());
        let mut solver = oracle.new_solver();
        solver.add_clause([lit(1)]);
        oracle.budget().cancel_token().cancel();
        // Even bypassing the oracle, the solver itself observes the token.
        assert_eq!(solver.solve(), SolveResult::Unknown);
    }

    #[test]
    fn budget_clones_share_cancellation() {
        let budget = Budget::unlimited();
        let clone = budget.clone();
        budget.cancel_token().cancel();
        assert!(clone.cancelled());
        assert!(clone.expired());
    }
}
