//! DRAT proof logging: the emission side of the certification story.
//!
//! When [`SolverConfig::proof_logging`](crate::SolverConfig::proof_logging)
//! is set, the solver threads every clause-database event through a
//! [`ProofTracer`]: original clauses are recorded verbatim, learnt clauses
//! and level-0 strengthenings become DRAT additions, and every deletion
//! (learnt-DB reduction, simplification, strengthening replacements)
//! becomes a DRAT deletion. The resulting *persistent* proof log contains
//! only assumption-free RUP lemmas, so one log certifies every UNSAT
//! verdict the solver ever produces:
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
//! The tracer is an enum whose `Off` variant makes every emit call a
//! single-branch no-op, so the hot path pays nothing when logging is
//! disabled. The checking side lives in the dependency-free
//! `manthan3-drat` crate, which shares no code with this one.

use manthan3_cnf::Lit;

/// A clause-event tracer: either disabled (the default, a no-op on every
/// emit) or recording a DRAT proof log.
#[derive(Debug, Clone)]
pub enum ProofTracer {
    /// Logging disabled; every emit is a single-branch no-op.
    Off,
    /// Logging enabled; events are serialized into a text-DRAT log.
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
            log.original.push(lits.to_vec());
        }
    }

    /// Records a clause addition (a RUP/RAT lemma: learnt clause, core
    /// clause, strengthened replacement, or the empty clause).
    pub fn emit_add(&mut self, lits: &[Lit]) {
        if let ProofTracer::Drat(log) = self {
            write_step(&mut log.proof, false, lits);
            log.adds += 1;
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

    /// Records a clause deletion.
    pub fn emit_delete(&mut self, lits: &[Lit]) {
        if let ProofTracer::Drat(log) = self {
            write_step(&mut log.proof, true, lits);
            log.deletes += 1;
        }
    }

    /// Notes an UNSAT verdict under `assumptions`, making
    /// [`ProofTracer::certificate`] available.
    pub(crate) fn note_unsat(&mut self, assumptions: &[Lit]) {
        if let ProofTracer::Drat(log) = self {
            log.unsat_noted = true;
            if !log.refuted {
                log.unsat_assumptions = assumptions.to_vec();
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

    /// Size of the persistent proof log in bytes (0 when off).
    pub fn proof_len(&self) -> usize {
        match self {
            ProofTracer::Off => 0,
            ProofTracer::Drat(log) => log.proof.len(),
        }
    }

    /// Addition and deletion step counts emitted so far (0 when off).
    pub fn step_counts(&self) -> (u64, u64) {
        match self {
            ProofTracer::Off => (0, 0),
            ProofTracer::Drat(log) => (log.adds, log.deletes),
        }
    }

    /// The certificate for the most recent UNSAT verdict, or `None` when
    /// logging is off or the last verdict was not UNSAT.
    pub fn certificate(&self) -> Option<Certificate> {
        let ProofTracer::Drat(log) = self else {
            return None;
        };
        if !log.unsat_noted {
            return None;
        }
        let mut cnf = log.original.clone();
        for &a in &log.unsat_assumptions {
            cnf.push(vec![a]);
        }
        let mut proof = log.proof.clone();
        // The per-solve tail: the empty clause follows by propagation from
        // the assumption units and the logged core clause. On a permanent
        // refutation the log already ends with an empty clause and the
        // checker stops there.
        proof.extend_from_slice(b"0\n");
        Some(Certificate {
            cnf,
            proof,
            adds: log.adds + 1,
            deletes: log.deletes,
        })
    }
}

/// The recording state behind [`ProofTracer::Drat`].
#[derive(Debug, Clone, Default)]
pub struct DratLog {
    /// Caller-provided clauses, verbatim (the certificate CNF base).
    original: Vec<Vec<Lit>>,
    /// The persistent text-DRAT log: assumption-free lemmas and deletions.
    proof: Vec<u8>,
    /// Addition steps emitted.
    adds: u64,
    /// Deletion steps emitted.
    deletes: u64,
    /// The empty clause is in the log: the database is refuted permanently.
    refuted: bool,
    /// The last solve verdict was UNSAT (or the database is refuted).
    unsat_noted: bool,
    /// Assumptions of the last assumption-scoped UNSAT verdict.
    unsat_assumptions: Vec<Lit>,
}

/// A checkable UNSAT certificate: a CNF (original clauses plus one unit per
/// failing assumption) and a text-DRAT proof deriving the empty clause.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Certificate {
    /// The formula being refuted, in solver literals.
    pub cnf: Vec<Vec<Lit>>,
    /// The text-DRAT proof bytes.
    pub proof: Vec<u8>,
    /// Number of addition steps in the proof (including the tail).
    pub adds: u64,
    /// Number of deletion steps in the proof.
    pub deletes: u64,
}

impl Certificate {
    /// The certificate CNF as signed DIMACS literals — the input format of
    /// the `manthan3-drat` checker.
    pub fn dimacs_cnf(&self) -> Vec<Vec<i32>> {
        self.cnf
            .iter()
            .map(|c| c.iter().map(|l| l.to_dimacs() as i32).collect())
            .collect()
    }
}

/// Serializes one text-DRAT step (`d ` prefix for deletions).
fn write_step(buf: &mut Vec<u8>, delete: bool, lits: &[Lit]) {
    if delete {
        buf.extend_from_slice(b"d ");
    }
    for &l in lits {
        buf.extend_from_slice(l.to_dimacs().to_string().as_bytes());
        buf.push(b' ');
    }
    buf.extend_from_slice(b"0\n");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lit(d: i64) -> Lit {
        Lit::from_dimacs(d)
    }

    #[test]
    fn off_tracer_records_nothing() {
        let mut t = ProofTracer::new(false);
        t.emit_original(&[lit(1)]);
        t.emit_add(&[lit(2)]);
        t.emit_delete(&[lit(2)]);
        t.note_unsat(&[]);
        assert!(!t.is_active());
        assert_eq!(t.proof_len(), 0);
        assert_eq!(t.step_counts(), (0, 0));
        assert!(t.certificate().is_none());
    }

    #[test]
    fn text_serialization_matches_drat_conventions() {
        let mut t = ProofTracer::new(true);
        t.emit_add(&[lit(1), lit(-2)]);
        t.emit_delete(&[lit(3)]);
        let ProofTracer::Drat(log) = &t else {
            panic!("tracer is active");
        };
        assert_eq!(log.proof, b"1 -2 0\nd 3 0\n");
        assert_eq!(t.step_counts(), (1, 1));
    }

    #[test]
    fn certificate_scopes_assumptions_and_appends_the_tail() {
        let mut t = ProofTracer::new(true);
        t.emit_original(&[lit(-1), lit(2)]);
        t.emit_add(&[lit(-1)]); // core clause
        t.note_unsat(&[lit(1)]);
        let cert = t.certificate().expect("unsat was noted");
        assert_eq!(cert.dimacs_cnf(), vec![vec![-1, 2], vec![1]]);
        assert_eq!(cert.proof, b"-1 0\n0\n");
        assert_eq!((cert.adds, cert.deletes), (2, 0));
        // A SAT verdict withdraws the certificate…
        t.note_inconclusive();
        assert!(t.certificate().is_none());
        // …but a permanent refutation survives any later note.
        t.emit_add(&[]);
        t.note_inconclusive();
        let cert = t.certificate().expect("permanently refuted");
        assert_eq!(cert.dimacs_cnf(), vec![vec![-1, 2]]);
    }
}
