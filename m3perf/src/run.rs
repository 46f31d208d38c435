//! The measured loop: one client, instances back to back, every verdict
//! checked.
//!
//! A pass runs every input once through the user's path
//! (`parse_dqdimacs` → `Manthan3::synthesize`, plus `verify::check` on the
//! certified workload). Passes repeat until the measuring time is used up, so
//! every instance is timed several times and reported by its fastest pass. The
//! correctness gate and the determinism check run after each instance's
//! timer stops; their time is kept off the measuring clock.

use crate::cpu;
use crate::heap;
use crate::workloads::{Input, Workload};
use manthan3_aig::{Aig, AigRef};
use manthan3_core::{
    Budget, Manthan3, Manthan3Config, Oracle, RepairSession, SynthesisOutcome, VerifyOutcome,
    VerifySession,
};
use manthan3_dqbf::{parse_dqdimacs, verify, Dqbf, HenkinVector};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// Wall-clock cap per `synthesize` call, far above any instance's run time.
/// Hitting it is a failed instance, not a time.
pub const SAFETY_CAP: Duration = Duration::from_secs(60);

/// Per-instance counters; each must repeat exactly on every pass.
pub const COUNTERS: [&str; 17] = [
    "core.repair_iterations",
    "core.verification_checks",
    "sat.calls",
    "sat.conflicts",
    "sat.propagations",
    "maxsat.calls",
    "maxsat.probes",
    "maxsat.cores",
    "sampler.calls",
    "dtree.candidates_learned",
    "core.unique_definitions",
    "drat.certificates_checked",
    "drat.certificates_rejected",
    "drat.proof_bytes",
    "aig.vector_nodes",
    "sat.solvers_constructed",
    "core.budget_exhaustions",
];

pub const PROPAGATIONS: usize = 4;
const VECTOR_NODES: usize = 14;

/// Per-instance timers in seconds; `None` where a pass did not measure one.
pub const TIMERS: [&str; 12] = [
    "dqbf.parse_s",
    "core.synthesize_s",
    "core.sample_s",
    "core.learn_s",
    "core.verify_s",
    "core.repair_s",
    "core.other_s",
    "drat.certify_s",
    "dqbf.check_s",
    "sat.error_encode_s",
    "sat.closing_verify_s",
    "maxsat.encode_s",
];
pub const PARSE: usize = 0;
pub const SYNTHESIZE: usize = 1;
pub const SAMPLE: usize = 2;
pub const LEARN: usize = 3;
pub const VERIFY: usize = 4;
pub const REPAIR: usize = 5;
const OTHER: usize = 6;
pub const CERTIFY: usize = 7;
pub const CHECK: usize = 8;
const ERROR_ENCODE: usize = 9;
const CLOSING_VERIFY: usize = 10;
const MAXSAT_ENCODE: usize = 11;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Realizable,
    Unrealizable,
    /// `Unknown`, a safety-cap hit, or a caught panic.
    Failed,
}

/// One timed run of one instance.
pub struct Record {
    /// The solve path: parse + synthesize (+ check on the certified workload).
    pub latency: f64,
    /// The most heap bytes the solve path held at once, above those live
    /// when it started.
    pub peak_heap: usize,
    pub timers: [Option<f64>; TIMERS.len()],
    pub counts: [u64; COUNTERS.len()],
    pub verdict: Verdict,
    pub traced: bool,
}

/// A traced interval, in seconds since the run started.
pub struct Span {
    pub name: &'static str,
    pub instance: usize,
    pub pass: usize,
    pub parent: Option<usize>,
    pub start: f64,
    pub end: f64,
}

/// The first vector an instance returned, imported into a private AIG: a
/// later vector whose functions import to the same references is
/// structurally identical, so one check covers every pass.
struct Known {
    aig: Aig,
    functions: Vec<AigRef>,
    /// The formula and vector still to be checked by [`Runner::gate`].
    unchecked: Option<(Dqbf, HenkinVector)>,
}

pub struct Runner<'a> {
    workload: Workload,
    inputs: &'a [Input],
    engine: Manthan3,
    /// The CPUs the timed calls take turns on.
    cpus: &'a [usize],
    epoch: Instant,
    /// Records per instance, one per pass.
    pub records: Vec<Vec<Record>>,
    pub spans: Vec<Span>,
    known: Vec<Option<Known>>,
    replayed: Vec<bool>,
    /// Time spent in the replays, excluded from measuring time.
    off_clock: Duration,
    pub passes: usize,
    /// Total `verify::check` time of the gate run after measuring.
    pub gate_check_s: f64,
}

impl<'a> Runner<'a> {
    pub fn new(workload: Workload, inputs: &'a [Input], cpus: &'a [usize]) -> Self {
        let config = Manthan3Config {
            certify: workload.certify(),
            time_budget: Some(SAFETY_CAP),
            ..Manthan3Config::default()
        };
        Runner {
            workload,
            inputs,
            engine: Manthan3::new(config),
            cpus,
            epoch: Instant::now(),
            records: inputs.iter().map(|_| Vec::new()).collect(),
            spans: Vec::new(),
            known: inputs.iter().map(|_| None).collect(),
            replayed: vec![false; inputs.len()],
            off_clock: Duration::ZERO,
            passes: 0,
            gate_check_s: 0.0,
        }
    }

    /// Runs whole passes until `seconds` of measuring time are used and at
    /// least `min_passes` ran. With `traced`, odd passes record spans and
    /// replay the verify/repair encodings; even passes stay untraced so the
    /// two can be compared.
    pub fn measure(&mut self, seconds: f64, min_passes: usize, traced: bool) -> Result<(), String> {
        let start = Instant::now();
        loop {
            let trace_pass = traced && self.passes % 2 == 1;
            for i in 0..self.inputs.len() {
                let record = self.run_one(i, trace_pass)?;
                self.records[i].push(record);
            }
            self.passes += 1;
            let measured = start.elapsed().saturating_sub(self.off_clock);
            if self.passes >= min_passes && measured.as_secs_f64() >= seconds {
                return Ok(());
            }
        }
    }

    fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    fn span(
        &mut self,
        name: &'static str,
        instance: usize,
        parent: Option<usize>,
        start: f64,
        end: f64,
    ) -> usize {
        self.spans.push(Span {
            name,
            instance,
            pass: self.passes,
            parent,
            start,
            end,
        });
        self.spans.len() - 1
    }

    fn run_one(&mut self, i: usize, traced: bool) -> Result<Record, String> {
        let input = &self.inputs[i];
        let certify = self.workload.certify();

        // Each pass starts the turn one CPU further on, so every instance
        // visits every CPU.
        cpu::pin(self.cpus, i + self.passes);
        let heap_base = heap::reset_peak();
        let t0 = self.now();
        let parsed = parse_dqdimacs(&input.dqdimacs);
        let t1 = self.now();
        let dqbf = parsed
            .map_err(|e| format!("{}: generated DQDIMACS does not parse: {e}", input.name))?;
        let result = catch_unwind(AssertUnwindSafe(|| self.engine.synthesize(&dqbf)));
        let t2 = self.now();
        let on_path_check = match &result {
            Ok(r) if certify => match &r.outcome {
                SynthesisOutcome::Realizable(v) => Some(verify::check(&dqbf, v).is_valid()),
                _ => None,
            },
            _ => None,
        };
        let t3 = self.now();
        let peak_heap = heap::peak().saturating_sub(heap_base);

        let mut timers = [None; TIMERS.len()];
        timers[PARSE] = Some(t1 - t0);
        timers[SYNTHESIZE] = Some(t2 - t1);
        if on_path_check.is_some() {
            timers[CHECK] = Some(t3 - t2);
        }
        if traced {
            let root = self.span("solve", i, None, t0, t3);
            self.span("parse", i, Some(root), t0, t1);
            self.span("synthesize", i, Some(root), t1, t2);
            if on_path_check.is_some() {
                self.span("check", i, Some(root), t2, t3);
            }
        }

        // Everything below runs after the timer stopped.
        let off_clock_start = Instant::now();
        let mut counts = [0u64; COUNTERS.len()];
        let verdict = match &result {
            Err(_) => Verdict::Failed,
            Ok(r) => {
                let s = &r.stats;
                let o = &s.oracle;
                let secs = |d: Duration| Some(d.as_secs_f64());
                timers[SAMPLE] = secs(s.sampling_time);
                timers[LEARN] = secs(s.learning_time);
                timers[VERIFY] = secs(s.verification_time);
                timers[REPAIR] = secs(s.repair_time);
                timers[OTHER] = secs(s.total_time.saturating_sub(
                    s.sampling_time + s.learning_time + s.verification_time + s.repair_time,
                ));
                timers[CERTIFY] = Some(o.certify_nanos as f64 * 1e-9);
                counts = [
                    s.repair_iterations as u64,
                    s.verification_checks as u64,
                    o.sat_calls as u64,
                    o.conflicts,
                    o.sat_propagations,
                    o.maxsat_calls as u64,
                    o.maxsat_probes,
                    o.maxsat_cores,
                    o.sampler_calls as u64,
                    s.candidates_learned as u64,
                    s.unique_definitions as u64,
                    o.certificates_checked,
                    o.certificates_rejected,
                    o.proof_bytes,
                    0, // aig.vector_nodes, set below for a realizable verdict
                    o.sat_solvers_constructed as u64,
                    o.budget_exhaustions as u64,
                ];
                if o.certificates_rejected > 0 {
                    return Err(format!(
                        "{}: {} DRAT certificate(s) rejected",
                        input.name, o.certificates_rejected
                    ));
                }
                match &r.outcome {
                    SynthesisOutcome::Realizable(vector) => {
                        counts[VECTOR_NODES] = vector.total_size() as u64;
                        if input.expected == Some(false) {
                            return Err(format!(
                                "{}: realizable, but the generator built it false",
                                input.name
                            ));
                        }
                        if on_path_check == Some(false) {
                            return Err(format!(
                                "{}: verify::check rejects the returned vector",
                                input.name
                            ));
                        }
                        self.same_vector(i, &dqbf, vector, on_path_check.is_none())?;
                        Verdict::Realizable
                    }
                    SynthesisOutcome::Unrealizable => {
                        if input.expected == Some(true) {
                            return Err(format!(
                                "{}: unrealizable, but the generator built it true",
                                input.name
                            ));
                        }
                        Verdict::Unrealizable
                    }
                    SynthesisOutcome::Unknown(_) => Verdict::Failed,
                }
            }
        };
        if let Some(first) = self.records[i].first() {
            if first.verdict != verdict {
                return Err(format!(
                    "{}: verdict drifted: {:?} then {:?}",
                    input.name, first.verdict, verdict
                ));
            }
            for (c, name) in COUNTERS.iter().enumerate() {
                if first.counts[c] != counts[c] {
                    return Err(format!(
                        "{}: counter {name} drifted: {} then {}",
                        input.name, first.counts[c], counts[c]
                    ));
                }
            }
        }
        if traced && !self.replayed[i] {
            self.replayed[i] = true;
            let vector = match &result {
                Ok(r) => match &r.outcome {
                    SynthesisOutcome::Realizable(v) => Some(v),
                    _ => None,
                },
                Err(_) => None,
            };
            self.replay(i, &dqbf, vector, &mut timers)?;
        }
        self.off_clock += off_clock_start.elapsed();

        Ok(Record {
            latency: t3 - t0,
            peak_heap,
            timers,
            counts,
            verdict,
            traced,
        })
    }

    /// Records the first vector of instance `i` (kept for the gate when
    /// `check_later`), and fails when a later pass returns a structurally
    /// different one.
    fn same_vector(
        &mut self,
        i: usize,
        dqbf: &Dqbf,
        vector: &HenkinVector,
        check_later: bool,
    ) -> Result<(), String> {
        let known = self.known[i].get_or_insert_with(|| Known {
            aig: Aig::new(),
            functions: Vec::new(),
            unchecked: check_later.then(|| (dqbf.clone(), vector.clone())),
        });
        let imported: Vec<AigRef> = vector
            .functions()
            .values()
            .map(|&f| known.aig.import(vector.aig(), f))
            .collect();
        if known.functions.is_empty() {
            known.functions = imported;
        } else if known.functions != imported {
            return Err(format!(
                "{}: the returned vector drifted between passes",
                self.inputs[i].name
            ));
        }
        Ok(())
    }

    /// The correctness gate for vectors not checked on the timed path:
    /// `verify::check` once per instance, after measuring.
    pub fn gate(&mut self) -> Result<(), String> {
        for i in 0..self.inputs.len() {
            let Some((dqbf, vector)) = self.known[i].as_mut().and_then(|k| k.unchecked.take())
            else {
                continue;
            };
            let start = self.now();
            let valid = verify::check(&dqbf, &vector).is_valid();
            let end = self.now();
            self.gate_check_s += end - start;
            self.span("gate.check", i, None, start, end);
            if !valid {
                return Err(format!(
                    "{}: verify::check rejects the returned vector",
                    self.inputs[i].name
                ));
            }
        }
        Ok(())
    }

    /// Times the verify and repair encodings on a fresh oracle: opening a
    /// `VerifySession`, re-verifying the returned vector on it, and opening a
    /// `RepairSession`.
    fn replay(
        &mut self,
        i: usize,
        dqbf: &Dqbf,
        vector: Option<&HenkinVector>,
        timers: &mut [Option<f64>; TIMERS.len()],
    ) -> Result<(), String> {
        let certify = self.workload.certify();
        let oracle = || Oracle::new(Budget::unlimited()).with_certification(certify);
        let root_start = self.now();
        let mut verify_oracle = oracle();
        let a = self.now();
        let mut session = VerifySession::new(dqbf, &mut verify_oracle);
        let b = self.now();
        timers[ERROR_ENCODE] = Some(b - a);
        let mut closing = None;
        if let Some(vector) = vector {
            let outcome = session.verify(dqbf, vector, &mut verify_oracle);
            let c = self.now();
            if outcome != VerifyOutcome::Valid {
                return Err(format!(
                    "{}: closing-verify replay rejects the returned vector",
                    self.inputs[i].name
                ));
            }
            timers[CLOSING_VERIFY] = Some(c - b);
            closing = Some((b, c));
        }
        let mut repair_oracle = oracle();
        let d = self.now();
        let repair = RepairSession::new(dqbf, &mut repair_oracle);
        let e = self.now();
        drop(repair);
        timers[MAXSAT_ENCODE] = Some(e - d);
        let root = self.span("replay", i, None, root_start, e);
        self.span("replay.error_encode", i, Some(root), a, b);
        if let Some((b, c)) = closing {
            self.span("replay.closing_verify", i, Some(root), b, c);
        }
        self.span("replay.maxsat_encode", i, Some(root), d, e);
        Ok(())
    }
}
