//! Allocation budgets of the verify–repair loop's hot calls.
//!
//! The tests live in `tests/allocations.rs`, a test binary of its own
//! because it replaces the global allocator with one that counts the heap
//! allocations each thread makes. They pin what one iteration of the loop
//! may allocate: `Aig::simulate` a fixed number of buffers however many
//! outputs it evaluates, and a repeated `Solver::solve_with_assumptions`
//! query nothing once it has run once.
//!
//! The library itself is empty.
