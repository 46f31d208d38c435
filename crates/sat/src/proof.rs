//! DRAT proof logging: the emission side of the certification story.
//!
//! When [`SolverConfig::proof_logging`](crate::SolverConfig::proof_logging)
//! is set, the solver threads every clause-database event through a
//! [`ProofTracer`]: original clauses are recorded verbatim, learnt clauses
//! and level-0 strengthenings become DRAT additions, and every deletion
//! (learnt-DB reduction, simplification, strengthening replacements)
//! becomes a DRAT deletion. A clause the solver keeps as the same literal
//! set, only sorted or deduplicated, logs no step: the checker stores
//! clauses as sets, and drat-trim matches deletions by literal set, so text
//! proofs stay checkable when a deletion names the solver's sorted form of
//! a clause the CNF holds in the caller's order. The resulting
//! *persistent* proof log contains only assumption-free RUP lemmas, so one
//! log certifies every UNSAT verdict the solver ever produces:
//!
//! * A level-0 refutation appends the empty clause to the log permanently.
//! * An assumption-scoped UNSAT verdict appends the (assumption-free)
//!   *core clause* `{¬l | l ∈ core}` to the log; the certificate CNF then
//!   adds one unit clause per assumption of the failing call, and the
//!   proof is the persistent log followed by a per-solve empty-clause
//!   tail. Unit propagation over the assumption units and the core clause
//!   necessarily conflicts, so the tail checks out — without the
//!   assumption units it does not, which is exactly the scoping we want.
//!
//! The log holds DIMACS `i32` literals, each step zero-terminated, and a
//! [`Certificate`] is a borrowed view of it: the checker reads the
//! solver's own integers, with no copy and no text in between.
//!
//! A log only grows, so the checker need not read it from the start for
//! every verdict. Each log has an identity ([`Certificate::log_id`]), and a
//! [`LogPosition`] marks how far a reader has got
//! ([`Certificate::end`]). The in-process checker keeps one `manthan3-drat`
//! session per log: at each verdict it advances that session over the
//! original clauses and steps recorded since its last position
//! ([`Certificate::originals_since`], [`Certificate::steps_since`]), then
//! propagates the verdict's assumptions ([`Certificate::assumptions`]) to a
//! conflict in place of the empty-clause tail. Every lemma is checked once
//! per log, however many verdicts rely on it. A cloned log gets a fresh
//! identity, so a clone's diverging steps never reach the original's
//! session.
//!
//! The tracer is an enum whose `Off` variant makes every emit call a
//! single-branch no-op, so the hot path pays nothing when logging is
//! disabled. The checking side, and the text DRAT format for files, live in
//! the dependency-free `manthan3-drat` crate, which shares no code with
//! this one.

use manthan3_cnf::Lit;
use std::sync::atomic::{AtomicU64, Ordering};

/// A clause-event tracer: either disabled (the default, a no-op on every
/// emit) or recording a DRAT proof log.
#[derive(Debug, Clone)]
pub enum ProofTracer {
    /// Logging disabled; every emit is a single-branch no-op.
    Off,
    /// Logging enabled; events are recorded as DIMACS integers.
    Drat(Box<DratLog>),
}

impl ProofTracer {
    /// A tracer matching `enabled`.
    pub fn new(enabled: bool) -> ProofTracer {
        if enabled {
            ProofTracer::Drat(Box::default())
        } else {
            ProofTracer::Off
        }
    }

    /// `true` when events are being recorded. Callers use this to skip the
    /// cost of materializing clause literal vectors when logging is off —
    /// the emit calls themselves are made unconditionally.
    pub fn is_active(&self) -> bool {
        matches!(self, ProofTracer::Drat(_))
    }

    /// Records an original (caller-provided) clause: it becomes part of the
    /// certificate CNF but produces no proof step.
    pub fn emit_original(&mut self, lits: &[Lit]) {
        if let ProofTracer::Drat(log) = self {
            push_clause(&mut log.original, lits);
        }
    }

    /// Records a clause addition (a RUP/RAT lemma: learnt clause, core
    /// clause, strengthened replacement, or the empty clause).
    pub fn emit_add(&mut self, lits: &[Lit]) {
        if let ProofTracer::Drat(log) = self {
            push_clause(&mut log.proof, lits);
            log.deletions.push(false);
            if lits.is_empty() {
                // The empty clause is only ever emitted on a permanent
                // (level-0) refutation, so the certificate stays available
                // regardless of later verdict notes.
                log.refuted = true;
                log.unsat_noted = true;
                log.unsat_assumptions.clear();
            }
        }
    }

    /// Records the core clause `{¬l | l ∈ core}` of an assumption-scoped
    /// UNSAT verdict as an addition.
    pub(crate) fn emit_core_clause(&mut self, core: &[Lit]) {
        // A core names at least the failing assumption; the empty clause
        // goes through `emit_add`, which marks the log refuted.
        debug_assert!(!core.is_empty());
        if let ProofTracer::Drat(log) = self {
            log.proof.extend(core.iter().map(|&l| dimacs(!l)));
            log.proof.push(0);
            log.deletions.push(false);
        }
    }

    /// Records a clause deletion.
    pub fn emit_delete(&mut self, lits: &[Lit]) {
        if let ProofTracer::Drat(log) = self {
            push_clause(&mut log.proof, lits);
            log.deletions.push(true);
            log.deletes += 1;
        }
    }

    /// Notes an UNSAT verdict under `assumptions`, making
    /// [`ProofTracer::certificate`] available.
    pub(crate) fn note_unsat(&mut self, assumptions: &[Lit]) {
        if let ProofTracer::Drat(log) = self {
            log.unsat_noted = true;
            if !log.refuted {
                log.unsat_assumptions = assumptions.iter().map(|&l| dimacs(l)).collect();
            }
        }
    }

    /// Notes a SAT/Unknown verdict: the certificate is withdrawn unless the
    /// database is permanently refuted.
    pub(crate) fn note_inconclusive(&mut self) {
        if let ProofTracer::Drat(log) = self {
            log.unsat_noted = log.refuted;
        }
    }

    /// Addition and deletion step counts emitted so far (0 when off).
    pub fn step_counts(&self) -> (u64, u64) {
        match self {
            ProofTracer::Off => (0, 0),
            ProofTracer::Drat(log) => log.step_counts(),
        }
    }

    /// The certificate for the most recent UNSAT verdict, or `None` when
    /// logging is off or the last verdict was not UNSAT.
    pub fn certificate(&self) -> Option<Certificate<'_>> {
        match self {
            ProofTracer::Drat(log) if log.unsat_noted => Some(Certificate { log }),
            _ => None,
        }
    }
}

/// Source of log identities: every log, cloned ones included, takes the
/// next value.
static NEXT_LOG_ID: AtomicU64 = AtomicU64::new(0);

/// A proof log's identity ([`Certificate::log_id`]). A clone is a new
/// identity, so a cloned log, which starts with the same contents and then
/// diverges, is never mistaken for the original by a checker following it.
#[derive(Debug)]
struct LogId(u64);

impl Default for LogId {
    fn default() -> LogId {
        // ordering: the counter only has to hand out distinct values; no
        // other memory is published through it.
        LogId(NEXT_LOG_ID.fetch_add(1, Ordering::Relaxed))
    }
}

impl Clone for LogId {
    fn clone(&self) -> LogId {
        LogId::default()
    }
}

/// The recording state behind [`ProofTracer::Drat`].
#[derive(Debug, Clone, Default)]
pub struct DratLog {
    /// This log's identity, fresh in every clone.
    id: LogId,
    /// Caller-provided clauses, verbatim, as zero-terminated DIMACS
    /// literals (the certificate CNF base).
    original: Vec<i32>,
    /// The persistent proof log: each step's DIMACS literals followed by a
    /// 0. Lemmas are assumption-free.
    proof: Vec<i32>,
    /// Per proof step, `true` for a deletion.
    deletions: Vec<bool>,
    /// Deletion steps emitted.
    deletes: u64,
    /// The empty clause is in the log: the database is refuted permanently.
    refuted: bool,
    /// The last solve verdict was UNSAT (or the database is refuted).
    unsat_noted: bool,
    /// Assumptions of the last assumption-scoped UNSAT verdict, as DIMACS
    /// literals.
    unsat_assumptions: Vec<i32>,
}

impl DratLog {
    /// Addition and deletion steps in the persistent log.
    fn step_counts(&self) -> (u64, u64) {
        (self.deletions.len() as u64 - self.deletes, self.deletes)
    }
}

/// How far a reader has consumed one proof log: offsets into its original
/// clauses and its proof, and the number of proof steps before that
/// offset. Positions come from [`Certificate::end`] and are meaningful
/// only for the log (the [`Certificate::log_id`]) they came from; the
/// default is the start of every log.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LogPosition {
    original: usize,
    proof: usize,
    steps: usize,
}

/// A checkable UNSAT certificate, borrowed from the solver's log: a CNF
/// (original clauses plus one unit per failing assumption) and a DRAT
/// proof deriving the empty clause, both as DIMACS `i32` literals.
#[derive(Debug, Clone, Copy)]
pub struct Certificate<'a> {
    log: &'a DratLog,
}

impl<'a> Certificate<'a> {
    /// The identity of the log this certificate is borrowed from. A log
    /// only grows, so every later certificate with the same identity
    /// extends this one; a cloned solver's log has an identity of its own.
    pub fn log_id(self) -> u64 {
        self.log.id.0
    }

    /// The position just past everything the log holds now.
    pub fn end(self) -> LogPosition {
        LogPosition {
            original: self.log.original.len(),
            proof: self.log.proof.len(),
            steps: self.log.deletions.len(),
        }
    }

    /// The original clauses recorded since `from`.
    pub fn originals_since(self, from: LogPosition) -> impl Iterator<Item = &'a [i32]> {
        clauses(&self.log.original[from.original..])
    }

    /// The persistent log's steps since `from`, as `(deletion, literals)`
    /// pairs.
    pub fn steps_since(self, from: LogPosition) -> impl Iterator<Item = (bool, &'a [i32])> {
        self.log.deletions[from.steps..]
            .iter()
            .copied()
            .zip(clauses(&self.log.proof[from.proof..]))
    }

    /// The assumptions of the failing solve, as DIMACS literals (none on a
    /// permanent refutation).
    pub fn assumptions(self) -> &'a [i32] {
        &self.log.unsat_assumptions
    }

    /// The refuted formula: the original clauses, then one unit clause per
    /// assumption of the failing solve.
    pub fn cnf(self) -> impl Iterator<Item = &'a [i32]> {
        self.originals_since(LogPosition::default())
            .chain(self.assumptions().chunks(1))
    }

    /// The proof steps as `(deletion, literals)` pairs: the persistent log,
    /// then the per-solve tail, an empty clause that follows by
    /// propagation from the assumption units and the logged core clause.
    /// On a permanent refutation the log already holds an empty clause
    /// and a checker stops there.
    pub fn steps(self) -> impl Iterator<Item = (bool, &'a [i32])> {
        let empty: &[i32] = &[];
        self.steps_since(LogPosition::default())
            .chain(std::iter::once((false, empty)))
    }

    /// Addition and deletion step counts, the tail included.
    pub fn step_counts(self) -> (u64, u64) {
        let (adds, deletes) = self.log.step_counts();
        (adds + 1, deletes)
    }

    /// Size of the proof as integers: 4 bytes per literal and per step
    /// terminator, the tail included.
    pub fn proof_bytes(self) -> u64 {
        4 * (self.log.proof.len() as u64 + 1)
    }
}

/// `lit` as a DIMACS `i32`.
fn dimacs(lit: Lit) -> i32 {
    // invariant: a DIMACS identifier beyond `i32::MAX` needs 2^31 solver
    // variables, more than the solver's per-variable arrays can hold.
    i32::try_from(lit.to_dimacs()).expect("DIMACS literal fits in i32")
}

/// Appends `lits` to a flat log as one zero-terminated clause.
fn push_clause(flat: &mut Vec<i32>, lits: &[Lit]) {
    flat.extend(lits.iter().map(|&l| dimacs(l)));
    flat.push(0);
}

/// The zero-terminated clauses of a flat log, terminators stripped.
fn clauses(flat: &[i32]) -> impl Iterator<Item = &[i32]> {
    flat.split_inclusive(|&l| l == 0)
        .map(|clause| &clause[..clause.len() - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lit(d: i64) -> Lit {
        Lit::from_dimacs(d)
    }

    fn cnf(cert: Certificate<'_>) -> Vec<Vec<i32>> {
        cert.cnf().map(<[i32]>::to_vec).collect()
    }

    fn steps(cert: Certificate<'_>) -> Vec<(bool, Vec<i32>)> {
        cert.steps().map(|(d, lits)| (d, lits.to_vec())).collect()
    }

    #[test]
    fn off_tracer_records_nothing() {
        let mut t = ProofTracer::new(false);
        t.emit_original(&[lit(1)]);
        t.emit_add(&[lit(2)]);
        t.emit_delete(&[lit(2)]);
        t.note_unsat(&[]);
        assert!(!t.is_active());
        assert_eq!(t.step_counts(), (0, 0));
        assert!(t.certificate().is_none());
    }

    #[test]
    fn integer_log_matches_drat_conventions() {
        let mut t = ProofTracer::new(true);
        t.emit_original(&[]);
        t.emit_add(&[lit(1), lit(-2)]);
        t.emit_delete(&[lit(3)]);
        let ProofTracer::Drat(log) = &t else {
            panic!("tracer is active");
        };
        assert_eq!(log.original, [0]);
        assert_eq!(log.proof, [1, -2, 0, 3, 0]);
        assert_eq!(log.deletions, [false, true]);
        assert_eq!(t.step_counts(), (1, 1));
    }

    #[test]
    fn certificate_scopes_assumptions_and_appends_the_tail() {
        let mut t = ProofTracer::new(true);
        t.emit_original(&[lit(-1), lit(2)]);
        t.emit_add(&[lit(-1)]); // core clause
        t.note_unsat(&[lit(1)]);
        let cert = t.certificate().expect("unsat was noted");
        assert_eq!(cnf(cert), vec![vec![-1, 2], vec![1]]);
        assert_eq!(steps(cert), vec![(false, vec![-1]), (false, vec![])]);
        assert_eq!(cert.step_counts(), (2, 0));
        assert_eq!(cert.proof_bytes(), 12);
        // A SAT verdict withdraws the certificate…
        t.note_inconclusive();
        assert!(t.certificate().is_none());
        // …but a permanent refutation survives any later note.
        t.emit_add(&[]);
        t.note_inconclusive();
        let cert = t.certificate().expect("permanently refuted");
        assert_eq!(cnf(cert), vec![vec![-1, 2]]);
    }

    #[test]
    fn positions_split_the_log_and_clones_get_a_fresh_identity() {
        let mut t = ProofTracer::new(true);
        t.emit_original(&[lit(-1), lit(2)]);
        t.emit_add(&[lit(2), lit(3)]);
        t.note_unsat(&[lit(1)]);
        let cert = t.certificate().expect("unsat was noted");
        let (id, read) = (cert.log_id(), cert.end());
        t.emit_original(&[lit(-2)]);
        t.emit_delete(&[lit(2), lit(3)]);
        t.emit_add(&[lit(-1)]);
        t.note_unsat(&[lit(1)]);
        let cert = t.certificate().expect("unsat was noted");
        assert_eq!(cert.log_id(), id);
        let new: Vec<&[i32]> = cert.originals_since(read).collect();
        assert_eq!(new, [&[-2][..]]);
        let new_steps: Vec<(bool, &[i32])> = cert.steps_since(read).collect();
        assert_eq!(new_steps, [(true, &[2, 3][..]), (false, &[-1][..])]);
        assert_eq!(cert.assumptions(), [1]);
        assert_eq!(cert.steps_since(cert.end()).count(), 0);
        // A cloned log holds the same certificate under a new identity.
        let copy = t.clone();
        let twin = copy.certificate().expect("the clone carries the verdict");
        assert_ne!(twin.log_id(), id);
        assert_eq!(steps(twin), steps(cert));
    }
}
