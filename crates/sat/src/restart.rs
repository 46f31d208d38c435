//! Restart scheduling: the Glucose-style exponential-moving-average (EMA)
//! policy.
//!
//! Two moving averages of the conflict glue (LBD) drive the decision: a fast
//! average (window ≈ 32 conflicts) rising above the slow average (window ≈
//! 4096) means the search is currently learning worse-than-usual clauses, so
//! a restart is forced; a trail far larger than its own moving average means
//! the search is close to a (satisfying) assignment, so the restart is
//! blocked. The policy is assumption-aware at the call site: the solver
//! restarts to the assumption boundary, never below it, so the trail-prefix
//! reuse of incremental calls is preserved.

/// Minimum conflicts between two EMA-forced restarts.
const EMA_MIN_INTERVAL: u64 = 50;
/// Force a restart when `fast > EMA_FORCE * slow`.
const EMA_FORCE: f64 = 1.25;
/// Block a restart when the trail exceeds `EMA_BLOCK * trail_ema`.
const EMA_BLOCK: f64 = 1.4;
/// Smoothing factor of the fast glue EMA (window ≈ 32 conflicts).
const ALPHA_FAST: f64 = 1.0 / 32.0;
/// Smoothing factor of the slow glue and trail EMAs (window ≈ 4096).
const ALPHA_SLOW: f64 = 1.0 / 4096.0;

/// Per-solve-call restart state, fed one observation per conflict.
#[derive(Debug, Clone, Default)]
pub struct RestartScheduler {
    /// Fast-moving average of conflict glues.
    fast: f64,
    /// Slow-moving average of conflict glues.
    slow: f64,
    /// Moving average of the trail size at conflicts.
    trail: f64,
    /// Conflicts since the last restart.
    since_restart: u64,
    /// Total conflicts observed (drives EMA warm-up).
    conflicts: u64,
    /// Restarts suppressed by the trail-size blocking rule.
    blocked: u64,
}

impl RestartScheduler {
    /// Creates the scheduler with empty averages.
    pub fn new() -> Self {
        RestartScheduler::default()
    }

    /// Records one conflict: the glue of the learnt clause and the trail
    /// size at the conflict.
    pub fn on_conflict(&mut self, glue: u32, trail_len: usize) {
        let g = glue as f64;
        if self.conflicts == 0 {
            // Seed the averages from the first observation; starting from
            // zero would make every early trail look "deep" and spuriously
            // trigger the blocking rule during warm-up.
            self.fast = g;
            self.slow = g;
            self.trail = trail_len as f64;
        }
        self.fast += ALPHA_FAST * (g - self.fast);
        self.slow += ALPHA_SLOW * (g - self.slow);
        self.trail += ALPHA_SLOW * (trail_len as f64 - self.trail);
        self.since_restart += 1;
        self.conflicts += 1;
        // Blocking: a trail much larger than usual suggests the search is
        // near a model; postpone the next forced restart.
        if self.since_restart >= EMA_MIN_INTERVAL
            && self.conflicts >= EMA_MIN_INTERVAL
            && trail_len as f64 > EMA_BLOCK * self.trail
            && self.fast > EMA_FORCE * self.slow
        {
            self.since_restart = 0;
            self.blocked += 1;
        }
    }

    /// `true` if the policy wants a restart now; resets the per-interval
    /// state when it fires.
    pub fn should_restart(&mut self) -> bool {
        if self.since_restart >= EMA_MIN_INTERVAL
            && self.conflicts >= EMA_MIN_INTERVAL
            && self.fast > EMA_FORCE * self.slow
        {
            self.since_restart = 0;
            true
        } else {
            false
        }
    }

    /// Restarts suppressed by the trail-blocking rule.
    pub fn blocked(&self) -> u64 {
        self.blocked
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ema_restarts_when_glue_degrades() {
        let mut s = RestartScheduler::new();
        // Warm up with good (low) glues…
        for _ in 0..200 {
            s.on_conflict(2, 50);
        }
        assert!(!s.should_restart(), "healthy search keeps running");
        // …then a burst of bad (high) glues lifts the fast EMA.
        for _ in 0..60 {
            s.on_conflict(20, 50);
        }
        assert!(s.should_restart(), "degraded glue forces a restart");
        // Firing resets the interval: an immediate re-check is quiet.
        assert!(!s.should_restart());
    }

    #[test]
    fn ema_blocks_near_a_model() {
        let mut s = RestartScheduler::new();
        for _ in 0..200 {
            s.on_conflict(2, 50);
        }
        // Bad glue *and* an exceptionally deep trail: blocked, not restarted.
        for _ in 0..60 {
            s.on_conflict(20, 5_000);
        }
        assert!(s.blocked() > 0, "deep-trail conflicts block restarts");
    }
}
