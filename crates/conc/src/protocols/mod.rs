//! Model-checked protocols from the workspace, each in a *correct* variant
//! (must pass exhaustively) and a deliberately *broken* variant (the checker
//! must produce a counterexample trace — this is the checker's own test).

pub mod cancellation;
pub mod decisive_win;

use crate::model::{Report, Violation};

/// One checkable protocol variant.
pub struct Check {
    /// `protocol/variant` identifier.
    pub name: &'static str,
    /// What the variant demonstrates.
    pub description: &'static str,
    /// `true` if this variant is expected to yield a counterexample.
    pub expect_violation: bool,
    /// Runs the exhaustive exploration.
    pub run: fn() -> Result<Report, Violation>,
}

/// Every registered protocol check, correct and broken variants alike.
pub fn suite() -> Vec<Check> {
    vec![
        Check {
            name: "decisive-win/relaxed-swap",
            description: "portfolio race: relaxed swap admits exactly one winner",
            expect_violation: false,
            run: decisive_win::check_correct,
        },
        Check {
            name: "decisive-win/load-then-store",
            description: "broken: non-atomic claim admits two winners",
            expect_violation: true,
            run: decisive_win::check_broken,
        },
        Check {
            name: "cancellation/release-acquire",
            description: "cancel publish: result visible once the flag is observed",
            expect_violation: false,
            run: cancellation::check_correct,
        },
        Check {
            name: "cancellation/relaxed-publish",
            description: "broken: relaxed flag store lets a stale result be read",
            expect_violation: true,
            run: cancellation::check_broken,
        },
    ]
}
