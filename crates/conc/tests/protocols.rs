//! The protocol suite as tests: every correct variant passes exhaustively,
//! every broken variant yields a counterexample with a non-empty trace.

use manthan3_conc::protocols::{cancellation, decisive_win, suite};

#[test]
fn decisive_win_relaxed_swap_has_exactly_one_winner() {
    let report = decisive_win::check_correct().expect("relaxed swap is sufficient");
    assert!(report.executions > 0);
}

#[test]
fn decisive_win_load_then_store_double_wins() {
    let violation = decisive_win::check_broken().expect_err("non-atomic claim must fail");
    assert!(
        violation.message.contains("claimed the decisive win"),
        "{violation}"
    );
    assert!(!violation.trace.is_empty());
}

#[test]
fn cancellation_release_acquire_is_visible_and_eventually_observed() {
    let report = cancellation::check_correct().expect("release/acquire publish is sound");
    assert!(report.executions > 0);
}

#[test]
fn cancellation_relaxed_publish_leaks_stale_result() {
    let violation = cancellation::check_broken().expect_err("relaxed publish must fail");
    assert!(violation.message.contains("stale result"), "{violation}");
}

#[test]
fn suite_outcomes_match_expectations() {
    for check in suite() {
        let outcome = (check.run)();
        assert_eq!(
            outcome.is_err(),
            check.expect_violation,
            "{}: unexpected outcome {:?}",
            check.name,
            outcome.err().map(|v| v.message)
        );
    }
}
