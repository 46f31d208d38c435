//! The shared oracle layer.
//!
//! Every SAT, MaxSAT, and sampling interaction of the synthesis loop is
//! funnelled through an [`Oracle`], which owns the run's [`Budget`]
//! (wall-clock deadline, per-call conflict budget, total call budget) and
//! collects [`OracleStats`]. The one exception is unique-definition
//! preprocessing, which runs inside `manthan3-dqbf` with its own solvers:
//! those calls inherit the budget's conflict cap (via
//! `unique::extract_definitions_with`) and the engine re-checks the deadline
//! after extraction, but they are not counted in [`OracleStats`].
//! This replaces the ad-hoc `Instant` deadline checks and per-call solver
//! construction that used to be scattered through the engine: budgets are
//! enforced in one place, and the statistics let tests and benchmarks assert
//! structural properties such as "the verify–repair loop constructed exactly
//! one error-formula solver" (see [`crate::VerifySession`]).

use manthan3_cnf::{Assignment, Cnf, Lit};
use manthan3_drat::{check, parse_text_proof, CheckOutcome};
use manthan3_maxsat::{MaxSatResult, MaxSatSolver, RepairStrategy};
use manthan3_sampler::{SampleOutcome, Sampler, SamplerConfig, ShardedSampler, ShortfallReason};
use manthan3_sat::{
    CallBudget, CancelToken, Certificate, RestartPolicy, SolveResult, Solver, SolverConfig,
    SolverStats,
};
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
    /// A budgeted oracle call gave up (conflict or call budget).
    OracleBudget,
    /// The run was cooperatively cancelled (e.g. it lost a portfolio race).
    Cancelled,
}

/// The resource budget shared by every oracle call of one synthesis run.
///
/// Cloning a budget shares its [`CancelToken`] (and the already-armed
/// deadline): a portfolio runner arms one budget with [`Budget::start`] and
/// hands clones to the racing engines, so all of them observe the same
/// absolute deadline and the same cancellation flag.
#[derive(Debug, Clone)]
pub struct Budget {
    /// When the clock was (last) armed; see [`Budget::start`].
    started_at: Instant,
    /// The configured wall-clock allowance, kept so the deadline can be
    /// re-armed relative to a later start.
    time: Option<Duration>,
    deadline: Option<Instant>,
    conflicts_per_call: Option<u64>,
    max_sat_calls: Option<u64>,
    cancel: CancelToken,
}

impl Budget {
    /// A budget with no limits.
    pub fn unlimited() -> Self {
        Budget::new(None, None, None)
    }

    /// A budget with the given wall-clock, per-call conflict, and total
    /// oracle-call limits (each `None` = unlimited). The clock starts now;
    /// call [`Budget::start`] to re-arm it later (e.g. when a portfolio race
    /// actually begins rather than when its configuration was built).
    pub fn new(
        time: Option<Duration>,
        conflicts_per_call: Option<u64>,
        max_sat_calls: Option<u64>,
    ) -> Self {
        let started_at = Instant::now();
        Budget {
            started_at,
            time,
            deadline: time.map(|t| started_at + t),
            conflicts_per_call,
            max_sat_calls,
            cancel: CancelToken::new(),
        }
    }

    /// Re-arms the clock: elapsed time restarts at zero and the wall-clock
    /// deadline is measured from now. Budgets are often built alongside
    /// engine configurations, well before the run they govern begins; the
    /// runner calls `start` at the moment the work is actually dispatched so
    /// configuration-building time is not billed against the run.
    pub fn start(&mut self) {
        self.started_at = Instant::now();
        self.deadline = self.time.map(|t| self.started_at + t);
    }

    /// Replaces the cancellation token (builder style). Clones made
    /// afterwards share the new token.
    pub fn with_cancel(mut self, token: CancelToken) -> Self {
        self.cancel = token;
        self
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

    /// Time elapsed since the budget was (last) started.
    pub fn elapsed(&self) -> Duration {
        self.started_at.elapsed()
    }

    /// The per-call conflict limit, if any.
    pub fn conflicts_per_call(&self) -> Option<u64> {
        self.conflicts_per_call
    }

    /// The total oracle-call limit (SAT and MaxSAT solve calls combined),
    /// if any.
    pub fn max_sat_calls(&self) -> Option<u64> {
        self.max_sat_calls
    }
}

impl Default for Budget {
    fn default() -> Self {
        Budget::unlimited()
    }
}

/// Counters for every oracle interaction of one run.
///
/// Fed into [`SynthesisStats`](crate::SynthesisStats) by the engine; the
/// baseline engines report the same counters on their results.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OracleStats {
    /// Number of CDCL solvers constructed through the oracle. The persistent
    /// verify–repair session keeps this at two (matrix + error formula) per
    /// run, however many repair iterations execute.
    pub sat_solvers_constructed: usize,
    /// Number of MaxSAT solvers constructed through the oracle.
    pub maxsat_solvers_constructed: usize,
    /// Number of samplers constructed through the oracle.
    pub samplers_constructed: usize,
    /// Number of SAT solve calls (with or without assumptions).
    pub sat_calls: usize,
    /// Number of MaxSAT solve calls.
    pub maxsat_calls: usize,
    /// Number of per-sample solver calls made by oracle-routed samplers.
    /// These draw on the same shared call allowance as SAT and MaxSAT
    /// solves, so `sat_calls + maxsat_calls + sampler_calls` is the total
    /// charge against [`Budget::max_sat_calls`].
    pub sampler_calls: usize,
    /// Number of oracle-routed sampling requests that emitted fewer samples
    /// than requested (UNSAT verdicts, budget cuts, or cancellation — the
    /// request's [`SampleOutcome`] says which).
    pub sample_shortfalls: usize,
    /// Number of full hard-clause MaxSAT encodings constructed. The
    /// persistent repair session keeps this at one per run, however many
    /// FindCandidates calls execute; the from-scratch reference path pays
    /// one per call.
    pub maxsat_hard_encodings: usize,
    /// Number of MaxSAT solve calls served under assumptions on a persistent
    /// encoding (the incremental hits; `maxsat_calls -
    /// maxsat_incremental_calls` are fresh rebuild-and-solve calls).
    pub maxsat_incremental_calls: usize,
    /// Internal SAT probes issued by MaxSAT optimum searches (bound probes,
    /// hard/optimistic checks, core-guided iterations alike). Each probe
    /// draws one call from the shared allowance, exactly like a top-level
    /// SAT solve — this is the unit the repair strategies compete on.
    pub maxsat_probes: u64,
    /// UNSAT cores extracted and relaxed by core-guided MaxSAT searches.
    pub maxsat_cores: u64,
    /// Total SAT conflicts across all oracle-routed solve calls.
    pub conflicts: u64,
    /// Total CDCL decisions across all oracle-routed solve calls.
    pub decisions: u64,
    /// Total unit propagations across all oracle-routed solve calls (SAT and
    /// MaxSAT alike). Together with the harness's wall-clock column this
    /// yields the propagations-per-second throughput metric.
    pub sat_propagations: u64,
    /// Total search restarts across all oracle-routed solve calls.
    pub sat_restarts: u64,
    /// Assumption decision levels carried over between incremental solve
    /// calls instead of being re-decided (trail reuse), across all
    /// oracle-routed solvers.
    pub reused_levels: u64,
    /// Rephasing events (decision phases reset to the best trail seen)
    /// across all oracle-routed solvers.
    pub rephases: u64,
    /// Learnt clauses live in the most recently observed solver (a gauge,
    /// refreshed after every billed solve or maintenance pass; summed across
    /// racers by the portfolio merge).
    pub learnt_db_live: usize,
    /// Glue ≤ 2 learnt clauses in the most recently observed solver (a
    /// gauge, like [`OracleStats::learnt_db_live`]).
    pub glue2_clauses: usize,
    /// Clauses removed by inprocessing subsumption across all oracle-routed
    /// solvers.
    pub inprocess_subsumed: u64,
    /// Clauses strengthened by inprocessing self-subsumption or
    /// vivification across all oracle-routed solvers.
    pub inprocess_strengthened: u64,
    /// Inprocessing passes that actually ran (throttle-skipped calls are not
    /// counted), across all oracle-routed solvers.
    pub inprocess_passes: u64,
    /// Vivification candidates attempted across all oracle-routed solvers.
    pub vivify_candidates: u64,
    /// Vivification attempts that strengthened their clause, across all
    /// oracle-routed solvers.
    pub vivify_strengthened: u64,
    /// Compacting clause-arena garbage collections performed by
    /// oracle-routed solvers.
    pub arena_collections: u64,
    /// Arena words occupied by live clauses in the most recently observed
    /// solver (a gauge, like [`OracleStats::learnt_db_live`]).
    pub arena_live_words: usize,
    /// SAT models re-verified against the full clause database by
    /// oracle-routed solvers (a debug-build self-check; 0 in release
    /// builds).
    pub models_verified: u64,
    /// DRAT certificates of oracle-routed UNSAT verdicts handed to the
    /// independent checker (only under [`Oracle::with_certification`]).
    pub certificates_checked: u64,
    /// Checked certificates the checker rejected — always 0 on a sound run;
    /// the first offender is kept in [`Oracle::certification_failure`].
    pub certificates_rejected: u64,
    /// Total DRAT proof bytes across all checked certificates.
    pub proof_bytes: u64,
    /// Total clause-addition steps across all checked certificates.
    pub proof_adds: u64,
    /// Total clause-deletion steps across all checked certificates.
    pub proof_deletes: u64,
    /// Wall-clock nanoseconds spent inside the in-process proof checker.
    pub certify_nanos: u64,
    /// Number of calls that gave up because a budget was exhausted.
    pub budget_exhaustions: usize,
}

impl OracleStats {
    /// Accumulates `other` into `self`, field by field. Cumulative counters
    /// add; the live-database gauges add too, so the merged value is the
    /// total live footprint across the merged oracles' last-observed
    /// solvers. Used by the portfolio's report merge and the compositional
    /// engine's per-cluster aggregation.
    pub fn absorb(&mut self, other: &OracleStats) {
        self.sat_solvers_constructed += other.sat_solvers_constructed;
        self.maxsat_solvers_constructed += other.maxsat_solvers_constructed;
        self.samplers_constructed += other.samplers_constructed;
        self.sat_calls += other.sat_calls;
        self.maxsat_calls += other.maxsat_calls;
        self.sampler_calls += other.sampler_calls;
        self.sample_shortfalls += other.sample_shortfalls;
        self.maxsat_hard_encodings += other.maxsat_hard_encodings;
        self.maxsat_incremental_calls += other.maxsat_incremental_calls;
        self.maxsat_probes += other.maxsat_probes;
        self.maxsat_cores += other.maxsat_cores;
        self.conflicts += other.conflicts;
        self.decisions += other.decisions;
        self.sat_propagations += other.sat_propagations;
        self.sat_restarts += other.sat_restarts;
        self.reused_levels += other.reused_levels;
        self.rephases += other.rephases;
        self.learnt_db_live += other.learnt_db_live;
        self.glue2_clauses += other.glue2_clauses;
        self.inprocess_subsumed += other.inprocess_subsumed;
        self.inprocess_strengthened += other.inprocess_strengthened;
        self.inprocess_passes += other.inprocess_passes;
        self.vivify_candidates += other.vivify_candidates;
        self.vivify_strengthened += other.vivify_strengthened;
        self.arena_collections += other.arena_collections;
        self.arena_live_words += other.arena_live_words;
        self.models_verified += other.models_verified;
        self.certificates_checked += other.certificates_checked;
        self.certificates_rejected += other.certificates_rejected;
        self.proof_bytes += other.proof_bytes;
        self.proof_adds += other.proof_adds;
        self.proof_deletes += other.proof_deletes;
        self.certify_nanos += other.certify_nanos;
        self.budget_exhaustions += other.budget_exhaustions;
    }

    /// Total inprocessing reductions (clauses subsumed away plus clauses
    /// strengthened) — the combined column the benchmark CSVs report next to
    /// the per-kind breakdown.
    pub fn inprocess_reductions(&self) -> u64 {
        self.inprocess_subsumed + self.inprocess_strengthened
    }

    /// Bills the solver-layer work between two [`SolverStats`] snapshots to
    /// the cumulative counters, and refreshes the live-database gauges from
    /// the `after` snapshot. Shared by the solve paths and the session
    /// maintenance hook so every counter means the same thing on both.
    fn bill_solver_delta(&mut self, before: &SolverStats, after: &SolverStats) {
        self.conflicts += after.conflicts - before.conflicts;
        self.decisions += after.decisions - before.decisions;
        self.sat_propagations += after.propagations - before.propagations;
        self.sat_restarts += after.restarts - before.restarts;
        self.reused_levels += after.reused_levels - before.reused_levels;
        self.rephases += after.rephases - before.rephases;
        self.inprocess_subsumed += after.inprocess_subsumed - before.inprocess_subsumed;
        self.inprocess_strengthened += after.inprocess_strengthened - before.inprocess_strengthened;
        self.inprocess_passes += after.inprocess_passes - before.inprocess_passes;
        self.vivify_candidates += after.vivify_candidates - before.vivify_candidates;
        self.vivify_strengthened += after.vivify_strengthened - before.vivify_strengthened;
        self.arena_collections += after.arena_collections - before.arena_collections;
        self.models_verified += after.models_verified - before.models_verified;
        self.learnt_db_live = after.learnt_clauses;
        self.glue2_clauses = after.glue2_clauses;
        self.arena_live_words = after.arena_live_words;
    }
}

/// The evidence kept when an in-process certificate check fails: everything
/// needed to reproduce the rejection offline (dump the CNF and proof, rerun
/// `manthan3-drat`). Only the first rejection of an oracle is retained —
/// one reproducible offender is what a bug report needs, and a broken
/// tracer would otherwise accumulate every subsequent verdict's log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CertificationFailure {
    /// Why the checker (or the certificate plumbing before it) rejected.
    pub reason: String,
    /// The certificate CNF in DIMACS literals (empty when the solver
    /// produced no certificate at all).
    pub cnf: Vec<Vec<i32>>,
    /// The rejected DRAT proof bytes.
    pub proof: Vec<u8>,
}

/// Constructs solvers and funnels every solve call through the shared
/// [`Budget`], collecting [`OracleStats`] on the way.
#[derive(Debug, Clone)]
pub struct Oracle {
    budget: Budget,
    stats: OracleStats,
    /// The shared call allowance behind [`Budget::max_sat_calls`]: every
    /// SAT solve, per-sample sampler solve, and internal MaxSAT probe draws
    /// one call from this counter. Samplers and MaxSAT solvers receive a
    /// clone at construction, so their solves — including the sharded
    /// sampler's worker threads and a MaxSAT bound search's probe loop —
    /// are billed to, and refused by, exactly the same allowance as every
    /// other oracle call.
    calls: CallBudget,
    /// The optimization strategy handed to every MaxSAT solver this oracle
    /// constructs (`Manthan3Config::repair_strategy`, threaded through to
    /// the persistent repair session).
    repair_strategy: RepairStrategy,
    /// Optional restart-policy override on top of the solver defaults
    /// (`Manthan3Config::restart_policy`, the portfolio's restart-racing
    /// dimension).
    restart_policy: Option<RestartPolicy>,
    /// When `true`, every constructed SAT and MaxSAT solver logs DRAT
    /// proofs, and every UNSAT verdict routed through this oracle is checked
    /// in-process by the independent `manthan3-drat` checker.
    certify: bool,
    /// The first rejected certificate, kept for offline reproduction
    /// (boxed: the happy path pays one pointer, not the evidence).
    certification_failure: Option<Box<CertificationFailure>>,
}

impl Oracle {
    /// Creates an oracle enforcing `budget`, constructing linear-search
    /// MaxSAT solvers with the default solver configuration.
    pub fn new(budget: Budget) -> Self {
        let calls = CallBudget::new(budget.max_sat_calls);
        Oracle {
            budget,
            stats: OracleStats::default(),
            calls,
            repair_strategy: RepairStrategy::default(),
            restart_policy: None,
            certify: false,
            certification_failure: None,
        }
    }

    /// Replaces the call allowance with an externally shared [`CallBudget`]
    /// (builder style). The compositional engine hands every per-cluster
    /// oracle a clone of one allowance, so concurrent cluster loops draw on
    /// a single global `max_sat_calls` pool instead of each getting a full
    /// private quota.
    pub fn with_call_allowance(mut self, calls: CallBudget) -> Self {
        self.calls = calls;
        self
    }

    /// Selects the [`RepairStrategy`] for subsequently constructed MaxSAT
    /// solvers (builder style).
    pub fn with_repair_strategy(mut self, strategy: RepairStrategy) -> Self {
        self.repair_strategy = strategy;
        self
    }

    /// Overrides the restart policy of subsequently constructed solvers
    /// (builder style); `None` keeps the default policy. This is the knob the portfolio's restart-racing dimension
    /// turns.
    pub fn with_restart_policy(mut self, policy: Option<RestartPolicy>) -> Self {
        self.restart_policy = policy;
        self
    }

    /// Enables in-process certification (builder style): every SAT and
    /// MaxSAT solver this oracle constructs logs DRAT proofs
    /// ([`SolverConfig::proof_logging`]), and every UNSAT verdict routed
    /// through the oracle — top-level solves and the closing refutation of a
    /// MaxSAT probe loop alike — is immediately checked by the independent
    /// `manthan3-drat` checker. Rejections are counted in
    /// [`OracleStats::certificates_rejected`] and the first offender is kept
    /// in [`Oracle::certification_failure`]; checking never changes a
    /// verdict. Samplers are exempt: they claim models, never
    /// unsatisfiability, so there is nothing to certify.
    pub fn with_certification(mut self, enabled: bool) -> Self {
        self.certify = enabled;
        self
    }

    /// `true` when [`Oracle::with_certification`] armed in-process checking.
    pub fn certification_enabled(&self) -> bool {
        self.certify
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

    /// The strategy handed to constructed MaxSAT solvers.
    pub fn repair_strategy(&self) -> RepairStrategy {
        self.repair_strategy
    }

    /// The base configuration of every solver this oracle constructs: the
    /// solver defaults with the optional restart override applied.
    /// Budget fields (conflict cap, cancellation) are layered on at
    /// construction time.
    fn base_solver_config(&self) -> SolverConfig {
        let mut config = SolverConfig::default();
        if let Some(policy) = self.restart_policy {
            config.restart_policy = policy;
        }
        config.proof_logging = self.certify;
        config
    }

    /// The budget being enforced.
    pub fn budget(&self) -> &Budget {
        &self.budget
    }

    /// The statistics collected so far.
    pub fn stats(&self) -> &OracleStats {
        &self.stats
    }

    /// The reason to report when an oracle call gave up: cancellation first,
    /// then the wall clock, then the per-call/total budgets.
    pub fn give_up_reason(&self) -> UnknownReason {
        if self.budget.cancelled() {
            UnknownReason::Cancelled
        } else if self.budget.expired() {
            UnknownReason::TimeBudget
        } else {
            UnknownReason::OracleBudget
        }
    }

    /// Returns the exhausted-budget reason if no further oracle call may be
    /// made, `None` while resources remain. The call budget counts SAT,
    /// MaxSAT, and per-sample sampler solve calls alike — they all draw on
    /// the same allowance.
    pub fn exhausted(&self) -> Option<UnknownReason> {
        if self.budget.cancelled() {
            return Some(UnknownReason::Cancelled);
        }
        if self.budget.expired() {
            return Some(UnknownReason::TimeBudget);
        }
        if self.calls.exhausted() {
            return Some(UnknownReason::OracleBudget);
        }
        None
    }

    /// The shared call allowance every oracle-routed solve draws on. Exposed
    /// so tests and diagnostics can observe total consumption; samplers get
    /// a clone automatically via [`Oracle::new_sampler`] and
    /// [`Oracle::sample_sharded`].
    pub fn call_allowance(&self) -> &CallBudget {
        &self.calls
    }

    /// Constructs a CDCL solver from the oracle's base configuration with the budget's
    /// per-call conflict limit.
    pub fn new_solver(&mut self) -> Solver {
        let mut config = self.base_solver_config();
        config.max_conflicts = self.budget.conflicts_per_call;
        self.new_solver_with(config)
    }

    /// Constructs a CDCL solver from an explicit configuration, still
    /// counting it, capping its conflicts by the budget, and attaching the
    /// budget's cancellation token.
    pub fn new_solver_with(&mut self, mut config: SolverConfig) -> Solver {
        if config.max_conflicts.is_none() {
            config.max_conflicts = self.budget.conflicts_per_call;
        }
        if config.cancel.is_none() {
            config.cancel = Some(self.budget.cancel.clone());
        }
        self.stats.sat_solvers_constructed += 1;
        Solver::with_config(config)
    }

    /// Solves `solver` under the shared budget.
    ///
    /// Refuses already-exhausted budgets up front, before delegating — the
    /// delegate re-checks (and is what actually draws the call), but the
    /// early refusal keeps every path from this entry point to the solver
    /// behind an admission check of its own.
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
        if self.exhausted().is_some() || !self.calls.try_acquire() {
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
        if self.certify && result == SolveResult::Unsat {
            self.check_unsat_certificate(solver.certificate());
        }
        result
    }

    /// Hands one UNSAT verdict's certificate to the independent checker,
    /// billing the proof volume and check time to the statistics. A missing
    /// certificate is itself a rejection — under certification every
    /// oracle-routed UNSAT claim must come with evidence. The first
    /// rejection's CNF and proof are retained for offline reproduction.
    fn check_unsat_certificate(&mut self, certificate: Option<Certificate>) {
        let started = Instant::now();
        self.stats.certificates_checked += 1;
        let verdict = match &certificate {
            None => Err("UNSAT verdict carried no certificate \
                 (was the solver constructed outside this oracle, \
                 without proof logging?)"
                .to_string()),
            Some(cert) => {
                self.stats.proof_bytes += cert.proof.len() as u64;
                self.stats.proof_adds += cert.adds;
                self.stats.proof_deletes += cert.deletes;
                std::str::from_utf8(&cert.proof)
                    .map_err(|e| format!("certificate proof is not ASCII DRAT: {e}"))
                    .and_then(|text| {
                        parse_text_proof(text)
                            .map_err(|e| format!("certificate proof failed to parse: {e}"))
                    })
                    .and_then(|proof| match check(&cert.dimacs_cnf(), &proof) {
                        CheckOutcome::Verified(_) => Ok(()),
                        CheckOutcome::Rejected { step, reason } => {
                            Err(format!("checker rejected step {step}: {reason}"))
                        }
                        CheckOutcome::Cancelled => {
                            Err("checker cancelled mid-verification".to_string())
                        }
                    })
            }
        };
        self.stats.certify_nanos += u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        if let Err(reason) = verdict {
            self.stats.certificates_rejected += 1;
            if self.certification_failure.is_none() {
                let (cnf, proof) = certificate
                    .map(|c| (c.dimacs_cnf(), c.proof))
                    .unwrap_or_default();
                self.certification_failure =
                    Some(Box::new(CertificationFailure { reason, cnf, proof }));
            }
        }
    }

    /// Constructs a MaxSAT solver with the budget's per-call conflict limit,
    /// cancellation token, the oracle's [`RepairStrategy`], and the shared
    /// call allowance — every internal SAT probe of the optimum search draws
    /// on exactly the same budget as a top-level SAT solve.
    pub fn new_maxsat(&mut self) -> MaxSatSolver {
        self.stats.maxsat_solvers_constructed += 1;
        let mut solver = MaxSatSolver::with_config(SolverConfig {
            max_conflicts: self.budget.conflicts_per_call,
            cancel: Some(self.budget.cancel.clone()),
            ..self.base_solver_config()
        });
        solver.set_strategy(self.repair_strategy);
        solver.set_call_budget(self.calls.clone());
        solver
    }

    /// The refused-call verdict for a MaxSAT solve that may not start:
    /// cancellation surfaces as [`MaxSatResult::Cancelled`] (mapped to
    /// [`UnknownReason::Cancelled`] by the engine), everything else as
    /// [`MaxSatResult::Unknown`].
    fn refuse_maxsat(&mut self) -> MaxSatResult {
        self.stats.budget_exhaustions += 1;
        if self.budget.cancelled() {
            MaxSatResult::Cancelled
        } else {
            MaxSatResult::Unknown
        }
    }

    /// The shared budget-gating and accounting around one MaxSAT solve:
    /// refuse untouched when the budget is exhausted, otherwise run the
    /// solve and bill its conflicts, probes, and cores (and any give-up
    /// verdict) to the statistics.
    fn run_maxsat(
        &mut self,
        solver: &mut MaxSatSolver,
        incremental: bool,
        solve: impl FnOnce(&mut MaxSatSolver) -> MaxSatResult,
    ) -> MaxSatResult {
        if self.exhausted().is_some() {
            return self.refuse_maxsat();
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
        self.stats.maxsat_cores += solver.stats().cores - before.cores;
        if matches!(result, MaxSatResult::Unknown | MaxSatResult::Cancelled) {
            self.stats.budget_exhaustions += 1;
        }
        if self.certify {
            match result {
                // A hard-UNSAT verdict is an unsatisfiability claim and
                // must come with evidence: the probe loop's closing
                // refutation.
                MaxSatResult::HardUnsat => self.check_unsat_certificate(solver.certificate()),
                // An optimum proved by refuting the bound below it leaves
                // that refutation's certificate behind; optimums reached on
                // a final SAT probe leave none. Check opportunistically —
                // the optimality *lower bound* is what gets certified.
                MaxSatResult::Optimum { .. } => {
                    if let Some(cert) = solver.certificate() {
                        self.check_unsat_certificate(Some(cert));
                    }
                }
                // Budget and cancellation give-ups claim nothing.
                MaxSatResult::Unknown | MaxSatResult::Cancelled => {}
            }
        }
        result
    }

    /// Runs a MaxSAT solve under the shared budget.
    ///
    /// The solve's internal SAT probes each draw one call from the shared
    /// allowance (the solver holds a clone of it, attached at
    /// construction), and their conflicts are billed to the shared conflict
    /// counter; a probe refused mid-search surfaces as
    /// [`MaxSatResult::Unknown`]. Refused without touching the solver when
    /// the budget is already exhausted, exactly like
    /// [`Oracle::solve_with_assumptions`] — with cancellation reported as
    /// [`MaxSatResult::Cancelled`].
    pub fn solve_maxsat(&mut self, solver: &mut MaxSatSolver) -> MaxSatResult {
        self.run_maxsat(solver, false, |s| s.solve())
    }

    /// Runs a MaxSAT solve under `assumptions` and the shared budget — the
    /// incremental counterpart of [`Oracle::solve_maxsat`], used by the
    /// persistent [`RepairSession`](crate::RepairSession): the call is
    /// served by a kept encoding, so it is additionally counted in
    /// [`OracleStats::maxsat_incremental_calls`]. Budget semantics are
    /// identical (probes drawn from the shared allowance, conflicts billed
    /// to the shared counter, refused untouched when exhausted).
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
    /// periodic maintenance passes (learnt-DB reduction, level-0 compaction,
    /// inprocessing) — given [`SolverStats`] snapshots taken around the
    /// pass. Keeps the inprocessing counters and
    /// `OracleStats::arena_collections` complete: most of that work happens
    /// between oracle calls, where the per-solve diff-billing cannot see it.
    pub(crate) fn note_solver_maintenance(&mut self, before: &SolverStats, after: &SolverStats) {
        self.stats.bill_solver_delta(before, after);
    }

    /// Fills in the budget-derived fields of a sampler configuration: the
    /// per-call conflict limit and cancellation token are inherited when the
    /// configuration does not set its own, and the shared call allowance is
    /// *always* the oracle's — every per-sample solver call of an
    /// oracle-routed sampler is billed to the same budget as SAT and MaxSAT
    /// solves (and refused once it is exhausted). A caller-supplied
    /// [`CallBudget`] is deliberately overridden here: honouring it would
    /// let sampler work bypass the shared allowance and the
    /// [`OracleStats::sampler_calls`] accounting; construct a [`Sampler`]
    /// directly for privately-budgeted sampling.
    fn sampler_config(&self, mut config: SamplerConfig) -> SamplerConfig {
        if config.max_conflicts_per_sample.is_none() {
            config.max_conflicts_per_sample = self.budget.conflicts_per_call;
        }
        if config.cancel.is_none() {
            config.cancel = Some(self.budget.cancel.clone());
        }
        config.calls = Some(self.calls.clone());
        config
    }

    /// Constructs a sampler for `cnf`, inheriting the budget's per-call
    /// conflict limit, cancellation token, and shared call allowance when
    /// `config` does not set its own. Prefer [`Oracle::sample`] /
    /// [`Oracle::sample_sharded`] for running it, so request statistics
    /// (sampler calls, shortfalls) land in [`OracleStats`].
    pub fn new_sampler(&mut self, cnf: &Cnf, config: SamplerConfig) -> Sampler {
        self.stats.samplers_constructed += 1;
        Sampler::new(cnf, self.sampler_config(config))
    }

    /// Runs one sampling request on `sampler` under the shared budget,
    /// recording the consumed per-sample solver calls and any shortfall in
    /// [`OracleStats`]. Refused without touching the sampler when the budget
    /// is already exhausted, like every other oracle call.
    pub fn sample(&mut self, sampler: &mut Sampler, n: usize) -> (Vec<Assignment>, SampleOutcome) {
        if let Some(refused) = self.refuse_sampling(n) {
            return (Vec::new(), refused);
        }
        let before = self.calls.consumed();
        let (samples, outcome) = sampler.sample_with_outcome(n);
        self.record_sampling(before, &outcome);
        (samples, outcome)
    }

    /// Runs one sharded sampling request for `cnf` under the shared budget:
    /// `config.shards` seed-derived shards race on threads, all drawing on
    /// this oracle's call allowance and cancellation token, and the merged
    /// batch is returned with its [`SampleOutcome`]. Counts one constructed
    /// sampler per shard.
    pub fn sample_sharded(
        &mut self,
        cnf: &Cnf,
        config: SamplerConfig,
        n: usize,
    ) -> (Vec<Assignment>, SampleOutcome) {
        if let Some(refused) = self.refuse_sampling(n) {
            return (Vec::new(), refused);
        }
        self.stats.samplers_constructed += config.shards.max(1);
        let mut sharded = ShardedSampler::new(cnf, self.sampler_config(config));
        let before = self.calls.consumed();
        let (samples, outcome) = sharded.sample(n);
        self.record_sampling(before, &outcome);
        (samples, outcome)
    }

    /// The refused-request outcome when the budget is already exhausted,
    /// `None` while sampling may proceed.
    fn refuse_sampling(&mut self, n: usize) -> Option<SampleOutcome> {
        let reason = self.exhausted()?;
        self.stats.budget_exhaustions += 1;
        self.stats.sample_shortfalls += 1;
        Some(SampleOutcome {
            requested: n,
            emitted: 0,
            reason: Some(match reason {
                UnknownReason::Cancelled => ShortfallReason::Cancelled,
                _ => ShortfallReason::Budget,
            }),
        })
    }

    /// Books one finished sampling request into the statistics.
    fn record_sampling(&mut self, calls_before: u64, outcome: &SampleOutcome) {
        self.stats.sampler_calls += (self.calls.consumed() - calls_before) as usize;
        if outcome.is_short() {
            self.stats.sample_shortfalls += 1;
            if matches!(
                outcome.reason,
                Some(ShortfallReason::Budget) | Some(ShortfallReason::Cancelled)
            ) {
                self.stats.budget_exhaustions += 1;
            }
        }
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
    fn unlimited_budget_never_expires() {
        let b = Budget::unlimited();
        assert!(!b.expired());
        assert_eq!(b.conflicts_per_call(), None);
        assert_eq!(b.max_sat_calls(), None);
    }

    #[test]
    fn zero_time_budget_expires_immediately() {
        let oracle = Oracle::new(Budget::new(Some(Duration::ZERO), None, None));
        assert_eq!(oracle.exhausted(), Some(UnknownReason::TimeBudget));
        assert_eq!(oracle.give_up_reason(), UnknownReason::TimeBudget);
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
        assert!(oracle.certification_enabled());
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
        assert!(failure.cnf.is_empty() && failure.proof.is_empty());
    }

    /// The MaxSAT path certifies its probe loop's closing refutation: a
    /// hard-UNSAT verdict must check out, and an optimum proved by refuting
    /// the bound below it is certified opportunistically.
    #[test]
    fn certification_covers_maxsat_hard_unsat_verdicts() {
        for strategy in [RepairStrategy::Linear, RepairStrategy::CoreGuided] {
            let mut oracle = Oracle::new(Budget::unlimited())
                .with_certification(true)
                .with_repair_strategy(strategy);
            let mut maxsat = oracle.new_maxsat();
            assert!(maxsat.solver_config().proof_logging);
            maxsat.add_hard([lit(1), lit(2)]);
            maxsat.add_hard([lit(-1)]);
            maxsat.add_hard([lit(-2)]);
            maxsat.add_soft([lit(3)], 1);
            assert_eq!(
                oracle.solve_maxsat(&mut maxsat),
                MaxSatResult::HardUnsat,
                "{strategy}"
            );
            let stats = oracle.stats();
            assert_eq!(stats.certificates_checked, 1, "{strategy}");
            assert_eq!(stats.certificates_rejected, 0, "{strategy}");
            assert!(oracle.certification_failure().is_none(), "{strategy}");
        }
    }

    /// Certification is off by default: constructed solvers do not log
    /// proofs and UNSAT verdicts are not checked.
    #[test]
    fn certification_is_off_by_default() {
        let mut oracle = Oracle::new(Budget::unlimited());
        assert!(!oracle.certification_enabled());
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
    fn call_budget_cuts_off_further_solves() {
        let mut oracle = Oracle::new(Budget::new(None, None, Some(1)));
        let mut solver = oracle.new_solver();
        solver.ensure_vars(1);
        assert_eq!(oracle.solve(&mut solver), SolveResult::Sat);
        assert_eq!(oracle.exhausted(), Some(UnknownReason::OracleBudget));
        assert_eq!(oracle.solve(&mut solver), SolveResult::Unknown);
        assert_eq!(oracle.give_up_reason(), UnknownReason::OracleBudget);
        assert_eq!(oracle.stats().budget_exhaustions, 1);
        // The refused call is not counted as performed.
        assert_eq!(oracle.stats().sat_calls, 1);
    }

    #[test]
    fn shared_call_allowance_pools_consumption_across_oracles() {
        // Two oracles drawing on one allowance: together they may make only
        // as many solves as the pool permits, regardless of their own
        // budgets' limits.
        let pool = CallBudget::limited(2);
        let mut a =
            Oracle::new(Budget::new(None, None, Some(10))).with_call_allowance(pool.clone());
        let mut b =
            Oracle::new(Budget::new(None, None, Some(10))).with_call_allowance(pool.clone());
        assert_eq!(a.call_allowance(), &pool);
        assert_eq!(b.call_allowance(), &pool);
        let mut sa = a.new_solver();
        sa.ensure_vars(1);
        let mut sb = b.new_solver();
        sb.ensure_vars(1);
        assert_eq!(a.solve(&mut sa), SolveResult::Sat);
        assert_eq!(b.solve(&mut sb), SolveResult::Sat);
        assert_eq!(pool.consumed(), 2);
        // The pool is dry: both oracles are exhausted now.
        assert_eq!(a.exhausted(), Some(UnknownReason::OracleBudget));
        assert_eq!(b.solve(&mut sb), SolveResult::Unknown);
    }

    #[test]
    fn conflict_budget_is_inherited_by_constructed_solvers() {
        let mut oracle = Oracle::new(Budget::new(None, Some(7), None));
        let solver = oracle.new_solver();
        assert_eq!(solver.config().max_conflicts, Some(7));
        let sampler_cnf = Cnf::new(2);
        let _ = oracle.new_sampler(&sampler_cnf, SamplerConfig::default());
        assert_eq!(oracle.stats().samplers_constructed, 1);
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

    /// Mirror of `call_budget_cuts_off_further_solves` for the MaxSAT path:
    /// a total-call budget must cap MaxSAT solves exactly like SAT solves.
    #[test]
    fn call_budget_cuts_off_further_maxsat_solves() {
        let mut oracle = Oracle::new(Budget::new(None, None, Some(1)));
        let mut maxsat = oracle.new_maxsat();
        maxsat.add_hard([Var::new(0).positive()]);
        assert_eq!(
            oracle.solve_maxsat(&mut maxsat),
            MaxSatResult::Optimum { cost: 0 }
        );
        assert_eq!(oracle.exhausted(), Some(UnknownReason::OracleBudget));
        assert_eq!(oracle.solve_maxsat(&mut maxsat), MaxSatResult::Unknown);
        assert_eq!(oracle.give_up_reason(), UnknownReason::OracleBudget);
        assert_eq!(oracle.stats().budget_exhaustions, 1);
        // The refused call is not counted as performed.
        assert_eq!(oracle.stats().maxsat_calls, 1);
    }

    /// MaxSAT calls draw on the same allowance as SAT calls: one of each
    /// exhausts a two-call budget, and either kind of further call is
    /// refused.
    #[test]
    fn maxsat_calls_count_toward_the_shared_call_budget() {
        let mut oracle = Oracle::new(Budget::new(None, None, Some(2)));
        let mut solver = oracle.new_solver();
        solver.ensure_vars(1);
        assert_eq!(oracle.solve(&mut solver), SolveResult::Sat);
        assert_eq!(oracle.exhausted(), None);
        let mut maxsat = oracle.new_maxsat();
        maxsat.add_hard([Var::new(0).positive()]);
        assert_eq!(
            oracle.solve_maxsat(&mut maxsat),
            MaxSatResult::Optimum { cost: 0 }
        );
        assert_eq!(oracle.exhausted(), Some(UnknownReason::OracleBudget));
        assert_eq!(oracle.solve(&mut solver), SolveResult::Unknown);
        assert_eq!(oracle.solve_maxsat(&mut maxsat), MaxSatResult::Unknown);
        assert_eq!(oracle.stats().sat_calls, 1);
        assert_eq!(oracle.stats().maxsat_calls, 1);
        assert_eq!(oracle.stats().budget_exhaustions, 2);
    }

    /// Mirror of `call_budget_cuts_off_further_solves` for the sampling
    /// path: once the shared call budget is exhausted, sampler solves are
    /// refused before the solver is touched.
    #[test]
    fn call_budget_cuts_off_further_sampler_solves() {
        let mut oracle = Oracle::new(Budget::new(None, None, Some(1)));
        let mut solver = oracle.new_solver();
        solver.ensure_vars(1);
        assert_eq!(oracle.solve(&mut solver), SolveResult::Sat);
        assert_eq!(oracle.exhausted(), Some(UnknownReason::OracleBudget));
        let cnf = Cnf::new(2);
        let mut sampler = oracle.new_sampler(&cnf, SamplerConfig::default());
        let (samples, outcome) = oracle.sample(&mut sampler, 5);
        assert!(samples.is_empty());
        assert_eq!(outcome.reason, Some(ShortfallReason::Budget));
        assert_eq!(oracle.give_up_reason(), UnknownReason::OracleBudget);
        // The refused request performed no solver calls and is recorded as a
        // shortfall.
        assert_eq!(oracle.stats().sampler_calls, 0);
        assert_eq!(oracle.stats().sample_shortfalls, 1);
    }

    /// Sampler solves draw on the same allowance as SAT solves: a sampling
    /// request is cut off mid-batch, and afterwards SAT solves are refused
    /// too.
    #[test]
    fn sampler_solves_count_toward_the_shared_call_budget() {
        let mut oracle = Oracle::new(Budget::new(None, None, Some(3)));
        let cnf = Cnf::new(2);
        let mut sampler = oracle.new_sampler(&cnf, SamplerConfig::default());
        let (samples, outcome) = oracle.sample(&mut sampler, 10);
        assert_eq!(samples.len(), 3);
        assert_eq!(outcome.reason, Some(ShortfallReason::Budget));
        assert_eq!(oracle.stats().sampler_calls, 3);
        assert_eq!(oracle.stats().sample_shortfalls, 1);
        assert_eq!(oracle.exhausted(), Some(UnknownReason::OracleBudget));
        let mut solver = oracle.new_solver();
        solver.ensure_vars(1);
        assert_eq!(oracle.solve(&mut solver), SolveResult::Unknown);
        assert_eq!(oracle.stats().sat_calls, 0);
    }

    /// The sharded path bills every shard's solves to the shared allowance.
    #[test]
    fn sharded_sampling_draws_on_the_shared_budget() {
        let mut oracle = Oracle::new(Budget::new(None, None, Some(5)));
        let cnf = Cnf::new(3);
        let config = SamplerConfig {
            shards: 4,
            ..SamplerConfig::default()
        };
        let (samples, outcome) = oracle.sample_sharded(&cnf, config, 20);
        assert!(samples.len() <= 5, "emitted {} > budget 5", samples.len());
        assert_eq!(outcome.reason, Some(ShortfallReason::Budget));
        assert_eq!(oracle.stats().sampler_calls, 5);
        assert_eq!(oracle.stats().samplers_constructed, 4);
        assert_eq!(oracle.exhausted(), Some(UnknownReason::OracleBudget));
    }

    /// A caller-supplied `CallBudget` must not let sampler work bypass the
    /// oracle's shared allowance (or its `sampler_calls` accounting): the
    /// oracle's handle is authoritative for oracle-routed samplers.
    #[test]
    fn caller_supplied_call_budgets_cannot_bypass_the_shared_allowance() {
        let mut oracle = Oracle::new(Budget::new(None, None, Some(2)));
        let cnf = Cnf::new(2);
        let private = CallBudget::unlimited();
        let config = SamplerConfig {
            calls: Some(private.clone()),
            ..SamplerConfig::default()
        };
        let mut sampler = oracle.new_sampler(&cnf, config);
        let (samples, outcome) = oracle.sample(&mut sampler, 10);
        assert_eq!(samples.len(), 2);
        assert_eq!(outcome.reason, Some(ShortfallReason::Budget));
        assert_eq!(oracle.stats().sampler_calls, 2);
        assert_eq!(oracle.exhausted(), Some(UnknownReason::OracleBudget));
        // The private handle was ignored, not drawn on.
        assert_eq!(private.consumed(), 0);
    }

    #[test]
    fn sharded_sampling_is_served_in_full_under_an_unlimited_budget() {
        let mut oracle = Oracle::new(Budget::unlimited());
        let cnf = Cnf::new(3);
        let config = SamplerConfig {
            shards: 2,
            ..SamplerConfig::default()
        };
        let (samples, outcome) = oracle.sample_sharded(&cnf, config, 12);
        assert_eq!(samples.len(), 12);
        assert_eq!(outcome.reason, None);
        // Oversampling headroom means at least one solver call per sample.
        assert!(oracle.stats().sampler_calls >= 12);
        assert_eq!(oracle.stats().sample_shortfalls, 0);
        assert_eq!(oracle.exhausted(), None);
    }

    #[test]
    fn cancelled_sampling_requests_report_cancellation() {
        let mut oracle = Oracle::new(Budget::unlimited());
        oracle.budget().cancel_token().cancel();
        let cnf = Cnf::new(2);
        let config = SamplerConfig {
            shards: 2,
            ..SamplerConfig::default()
        };
        let (samples, outcome) = oracle.sample_sharded(&cnf, config, 4);
        assert!(samples.is_empty());
        assert_eq!(outcome.reason, Some(ShortfallReason::Cancelled));
        assert_eq!(oracle.stats().sampler_calls, 0);
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
        // A refused MaxSAT call names cancellation as the reason — never a
        // best-so-far bound, never a bare Unknown.
        assert_eq!(oracle.solve_maxsat(&mut maxsat), MaxSatResult::Cancelled);
        // Refused calls are not performed.
        assert_eq!(oracle.stats().sat_calls, 1);
        assert_eq!(oracle.stats().maxsat_calls, 0);
    }

    /// Mirror of `call_budget_cuts_off_further_solves` for the MaxSAT probe
    /// loop (both strategies): internal bound-search probes draw on the
    /// shared allowance, a search cut off mid-probe reports Unknown, and
    /// afterwards every other oracle call is refused too.
    #[test]
    fn call_budget_cuts_off_the_maxsat_probe_loop() {
        use manthan3_maxsat::RepairStrategy;
        for strategy in [RepairStrategy::Linear, RepairStrategy::CoreGuided] {
            let mut oracle =
                Oracle::new(Budget::new(None, None, Some(2))).with_repair_strategy(strategy);
            let mut maxsat = oracle.new_maxsat();
            // Optimum 2 needs at least three probes on either strategy.
            maxsat.add_hard([lit(1)]);
            maxsat.add_hard([lit(2)]);
            maxsat.add_soft([lit(-1)], 1);
            maxsat.add_soft([lit(-2)], 1);
            assert_eq!(
                oracle.solve_maxsat(&mut maxsat),
                MaxSatResult::Unknown,
                "{strategy}"
            );
            assert_eq!(oracle.stats().maxsat_probes, 2, "{strategy}");
            assert_eq!(oracle.exhausted(), Some(UnknownReason::OracleBudget));
            // The shared allowance is spent: SAT solves are refused too.
            let mut solver = oracle.new_solver();
            solver.ensure_vars(1);
            assert_eq!(oracle.solve(&mut solver), SolveResult::Unknown);
            assert_eq!(oracle.stats().sat_calls, 0, "{strategy}");
        }
    }

    /// The oracle's strategy reaches constructed MaxSAT solvers, and the
    /// core-guided search's probe/core counters land in [`OracleStats`].
    #[test]
    fn core_guided_strategy_flows_into_constructed_solvers() {
        use manthan3_maxsat::RepairStrategy;
        let mut oracle =
            Oracle::new(Budget::unlimited()).with_repair_strategy(RepairStrategy::CoreGuided);
        assert_eq!(oracle.repair_strategy(), RepairStrategy::CoreGuided);
        let mut maxsat = oracle.new_maxsat();
        assert_eq!(maxsat.strategy(), RepairStrategy::CoreGuided);
        maxsat.add_hard([lit(1)]);
        maxsat.add_soft([lit(-1)], 1);
        assert_eq!(
            oracle.solve_maxsat(&mut maxsat),
            MaxSatResult::Optimum { cost: 1 }
        );
        assert_eq!(oracle.stats().maxsat_cores, 1);
        assert!(oracle.stats().maxsat_probes >= 2);
        // Probes are billed to the shared allowance.
        assert_eq!(
            oracle.call_allowance().consumed(),
            oracle.stats().maxsat_probes
        );
    }

    /// The restart override flows into every constructed SAT and MaxSAT
    /// solver; without it they keep the default policy.
    #[test]
    fn restart_override_flows_into_constructed_solvers() {
        let mut oracle = Oracle::new(Budget::unlimited());
        assert_eq!(
            oracle.new_solver().config().restart_policy,
            RestartPolicy::GlucoseEma
        );
        let mut oracle =
            Oracle::new(Budget::unlimited()).with_restart_policy(Some(RestartPolicy::Luby));
        assert_eq!(
            oracle.new_solver().config().restart_policy,
            RestartPolicy::Luby
        );
        // MaxSAT solvers derive from the same base configuration.
        assert_eq!(
            oracle.new_maxsat().solver_config().restart_policy,
            RestartPolicy::Luby
        );
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

    #[test]
    fn start_rearms_the_deadline() {
        let mut budget = Budget::new(Some(Duration::from_millis(40)), None, None);
        std::thread::sleep(Duration::from_millis(50));
        assert!(budget.expired());
        // The race begins only now: re-arming measures the deadline from
        // here, so the budget is live again.
        budget.start();
        assert!(!budget.expired());
        assert!(budget.elapsed() < Duration::from_millis(40));
    }
}
