//! Cooperative cancellation for long-running solver calls.
//!
//! A [`CancelToken`] is a cheaply clonable flag shared between a controller
//! (e.g. a portfolio runner that just obtained a result from a competing
//! engine) and any number of solvers. The CDCL search loop polls the token
//! once per decision, so a cancelled solve call returns
//! [`SolveResult::Unknown`](crate::SolveResult::Unknown) within milliseconds
//! instead of running to completion.

use std::sync::atomic::{AtomicBool, Ordering};
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
        // ordering: Release pairs with the Acquire load in `is_cancelled`,
        // so a poller that sees the flag also sees every write the canceller
        // made before raising it. Nothing relies on more than the flag
        // itself: results travel to the caller through thread joins.
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
