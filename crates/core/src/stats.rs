use crate::oracle::{CertificationFailure, OracleStats};
use std::time::Duration;

/// Counters and timings collected during one synthesis run.
///
/// The benchmark harness reports these per instance; the component
/// benchmarks in `manthan3-bench` exercise the phases individually. The
/// [`SynthesisStats::oracle`] field carries the unified oracle-layer
/// counters (solver constructions, SAT/MaxSAT calls, conflicts), which the
/// session-reuse regression tests assert on.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SynthesisStats {
    /// Number of satisfying assignments used as training data.
    pub samples: usize,
    /// Number of candidate functions learned from data.
    pub candidates_learned: usize,
    /// Number of functions obtained by unique-definition extraction.
    pub unique_definitions: usize,
    /// Number of verification (error-formula) SAT calls.
    pub verification_checks: usize,
    /// Number of counterexamples processed (repair iterations).
    pub repair_iterations: usize,
    /// Number of individual candidate repairs applied.
    pub repairs_applied: usize,
    /// Number of `G_k` SAT calls made during repair.
    pub repair_sat_calls: usize,
    /// Unified oracle-layer counters (shared with the baseline engines).
    pub oracle: OracleStats,
    /// Wall-clock time spent generating samples.
    pub sampling_time: Duration,
    /// Wall-clock time spent learning candidates.
    pub learning_time: Duration,
    /// Wall-clock time spent in verification checks.
    pub verification_time: Duration,
    /// Wall-clock time spent in the repair loop.
    pub repair_time: Duration,
    /// Total wall-clock time of the synthesis call.
    pub total_time: Duration,
    /// The first rejected DRAT certificate of a certifying run
    /// ([`Manthan3Config::certify`](crate::Manthan3Config)), with the
    /// offending CNF and proof for offline reproduction. Always `None` on a
    /// sound run or when certification is off.
    pub certification_failure: Option<Box<CertificationFailure>>,
}

impl SynthesisStats {
    /// Human-readable one-line summary.
    pub fn summary(&self) -> String {
        format!(
            "samples={} learned={} defs={} iters={} repairs={} solvers={} \
             sat_calls={} total={:?}",
            self.samples,
            self.candidates_learned,
            self.unique_definitions,
            self.repair_iterations,
            self.repairs_applied,
            self.oracle.sat_solvers_constructed,
            self.oracle.sat_calls,
            self.total_time
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_contains_counters() {
        let stats = SynthesisStats {
            samples: 10,
            repair_iterations: 3,
            ..SynthesisStats::default()
        };
        let s = stats.summary();
        assert!(s.contains("samples=10"));
        assert!(s.contains("iters=3"));
    }

    #[test]
    fn summary_reports_oracle_counters() {
        let stats = SynthesisStats {
            oracle: OracleStats {
                sat_solvers_constructed: 2,
                sat_calls: 17,
                ..OracleStats::default()
            },
            ..SynthesisStats::default()
        };
        let s = stats.summary();
        assert!(s.contains("solvers=2"));
        assert!(s.contains("sat_calls=17"));
    }
}
