//! Allocation budgets of the verify–repair loop's hot calls.
//!
//! The tests live in `tests/allocations.rs`, a test binary of its own
//! because it replaces the global allocator with one that counts the heap
//! allocations each thread makes. They pin what one iteration of the loop
//! may allocate: `Aig::simulate` a fixed number of buffers however many
//! outputs it evaluates, a repeated `Solver::solve_with_assumptions`
//! query nothing once it has run once, a clause-by-clause
//! `verify::refute_by_clause` on a warm solver nothing either, and a
//! repeated `VerifySession::verify` that finds a counterexample only the
//! counterexample, however many universals the formula has.
//!
//! The library itself is empty.
