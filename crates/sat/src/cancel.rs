//! Cooperative cancellation for long-running solver calls.
//!
//! A [`CancelToken`] is a cheaply clonable flag shared between a controller
//! (e.g. a portfolio runner that just obtained a result from a competing
//! engine) and any number of solvers. The CDCL search loop polls the token
//! alongside its conflict budget, so a cancelled solve call returns
//! [`SolveResult::Unknown`](crate::SolveResult::Unknown) within milliseconds
//! instead of running to completion.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// A shared cancellation flag.
///
/// Cloning the token shares the underlying flag: cancelling any clone
/// cancels them all. A token starts out not cancelled and can never be
/// un-cancelled — it represents one race, not a reusable switch.
///
/// # Examples
///
/// ```
/// use manthan3_sat::CancelToken;
///
/// let token = CancelToken::new();
/// let clone = token.clone();
/// assert!(!clone.is_cancelled());
/// token.cancel();
/// assert!(clone.is_cancelled());
/// ```
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// Creates a fresh, not-yet-cancelled token.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Raises the flag: every solver polling this token (or a clone of it)
    /// gives up at its next poll point.
    pub fn cancel(&self) {
        // ordering: Release publishes everything the canceller wrote (e.g.
        // the winning result) to whoever Acquire-observes the flag; model-
        // checked by manthan3-conc `cancellation/release-acquire`.
        self.flag.store(true, Ordering::Release);
    }

    /// Returns `true` once [`CancelToken::cancel`] has been called on this
    /// token or any clone of it.
    pub fn is_cancelled(&self) -> bool {
        // ordering: Acquire pairs with the Release store in `cancel` so an
        // observed flag implies the canceller's prior writes are visible.
        self.flag.load(Ordering::Acquire)
    }
}

/// Two tokens are equal when they share the same underlying flag (clones of
/// one another), which is the notion configuration equality cares about.
impl PartialEq for CancelToken {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.flag, &other.flag)
    }
}

impl Eq for CancelToken {}

/// A shared allowance of solver calls.
///
/// Clones share one atomic counter: every consumer that performs a call
/// first draws on the allowance with [`CallBudget::try_acquire`], and once
/// the limit is reached every clone refuses further acquisitions. This is
/// the cross-thread counterpart of a per-run "total oracle calls" budget —
/// the oracle layer ticks it for its SAT and MaxSAT solves, and hands the
/// same handle to samplers, so per-sample solver calls draw on exactly the
/// same allowance.
///
/// An unlimited budget still counts acquisitions (so callers can read how
/// many calls a phase consumed) but never refuses one.
///
/// # Examples
///
/// ```
/// use manthan3_sat::CallBudget;
///
/// let budget = CallBudget::limited(2);
/// let clone = budget.clone();
/// assert!(budget.try_acquire());
/// assert!(clone.try_acquire());
/// assert!(!budget.try_acquire());
/// assert!(clone.exhausted());
/// assert_eq!(budget.consumed(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct CallBudget {
    consumed: Arc<AtomicU64>,
    limit: Option<u64>,
}

impl CallBudget {
    /// An allowance that counts acquisitions but never refuses one.
    pub fn unlimited() -> Self {
        CallBudget {
            consumed: Arc::new(AtomicU64::new(0)),
            limit: None,
        }
    }

    /// An allowance of exactly `limit` calls, shared by every clone.
    pub fn limited(limit: u64) -> Self {
        CallBudget {
            consumed: Arc::new(AtomicU64::new(0)),
            limit: Some(limit),
        }
    }

    /// An allowance of `limit` calls when given, unlimited otherwise.
    pub fn new(limit: Option<u64>) -> Self {
        CallBudget {
            consumed: Arc::new(AtomicU64::new(0)),
            limit,
        }
    }

    /// Draws one call from the allowance. Returns `false` — without
    /// consuming anything — once the limit has been reached; refused calls
    /// must not be performed.
    pub fn try_acquire(&self) -> bool {
        match self.limit {
            None => {
                // ordering: AcqRel keeps the counter a synchronization point
                // so `consumed()` readers see calls that happened-before.
                self.consumed.fetch_add(1, Ordering::AcqRel);
                true
            }
            Some(limit) => self
                .consumed
                // ordering: AcqRel on success / Acquire on refusal; RMW
                // atomicity makes admission exact (never past the limit,
                // refusals consume nothing) — model-checked by
                // manthan3-conc `budget/fetch-update`.
                .fetch_update(Ordering::AcqRel, Ordering::Acquire, |used| {
                    (used < limit).then_some(used + 1)
                })
                .is_ok(),
        }
    }

    /// Number of calls drawn so far across every clone.
    pub fn consumed(&self) -> u64 {
        // ordering: Acquire pairs with the AcqRel RMWs in `try_acquire` so
        // the count reflects every acquisition that happened-before.
        self.consumed.load(Ordering::Acquire)
    }

    /// The configured limit, if any.
    pub fn limit(&self) -> Option<u64> {
        self.limit
    }

    /// Calls still available, or `None` when unlimited.
    pub fn remaining(&self) -> Option<u64> {
        self.limit.map(|l| l.saturating_sub(self.consumed()))
    }

    /// Returns `true` once the allowance refuses further acquisitions.
    pub fn exhausted(&self) -> bool {
        self.remaining() == Some(0)
    }
}

impl Default for CallBudget {
    fn default() -> Self {
        CallBudget::unlimited()
    }
}

/// Two budgets are equal when they share the same underlying counter
/// (clones of one another) — the notion configuration equality cares about,
/// mirroring [`CancelToken`]'s equality.
impl PartialEq for CallBudget {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.consumed, &other.consumed) && self.limit == other.limit
    }
}

impl Eq for CallBudget {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clones_share_the_flag() {
        let a = CancelToken::new();
        let b = a.clone();
        assert!(!a.is_cancelled() && !b.is_cancelled());
        b.cancel();
        assert!(a.is_cancelled() && b.is_cancelled());
    }

    #[test]
    fn equality_is_identity_of_the_flag() {
        let a = CancelToken::new();
        let b = a.clone();
        let c = CancelToken::new();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn call_budget_counts_and_refuses() {
        let b = CallBudget::limited(3);
        assert_eq!(b.remaining(), Some(3));
        assert!(b.try_acquire() && b.try_acquire() && b.try_acquire());
        assert!(!b.try_acquire());
        assert!(b.exhausted());
        // A refused acquisition is not counted.
        assert_eq!(b.consumed(), 3);
    }

    #[test]
    fn unlimited_call_budget_counts_without_refusing() {
        let b = CallBudget::unlimited();
        for _ in 0..10 {
            assert!(b.try_acquire());
        }
        assert_eq!(b.consumed(), 10);
        assert_eq!(b.remaining(), None);
        assert!(!b.exhausted());
    }

    #[test]
    fn call_budget_clones_share_the_counter_across_threads() {
        let budget = CallBudget::limited(64);
        let acquired: u64 = std::thread::scope(|scope| {
            (0..4)
                .map(|_| {
                    let clone = budget.clone();
                    scope.spawn(move || {
                        let mut got = 0u64;
                        while clone.try_acquire() {
                            got += 1;
                        }
                        got
                    })
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().expect("worker exits"))
                .sum()
        });
        // Exactly the limit is handed out, however the threads interleave.
        assert_eq!(acquired, 64);
        assert_eq!(budget.consumed(), 64);
        assert!(budget.exhausted());
    }

    #[test]
    fn call_budget_equality_is_counter_identity() {
        let a = CallBudget::limited(5);
        let b = a.clone();
        let c = CallBudget::limited(5);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn token_crosses_threads() {
        let token = CancelToken::new();
        let clone = token.clone();
        let handle = std::thread::spawn(move || {
            while !clone.is_cancelled() {
                std::thread::yield_now();
            }
            true
        });
        token.cancel();
        assert!(handle.join().expect("watcher thread exits"));
    }
}
