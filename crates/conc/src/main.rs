//! CLI driver: `cargo run -p manthan3-conc --release` runs every protocol
//! check. Correct variants must pass exhaustively; broken variants must
//! yield a counterexample (whose trace is printed). Any unexpected outcome
//! exits 1.

use manthan3_conc::protocols::suite;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut failed = 0usize;
    for check in suite() {
        print!("{:36} ", check.name);
        match ((check.run)(), check.expect_violation) {
            (Ok(report), false) => {
                println!(
                    "ok: {} states, {} executions, no violation",
                    report.states, report.executions
                );
            }
            (Err(violation), true) => {
                println!("ok: counterexample found, {} steps", violation.trace.len());
                for line in violation.to_string().lines() {
                    println!("    {line}");
                }
            }
            (Ok(report), true) => {
                println!(
                    "FAILED: expected a counterexample, but {} states / {} executions passed",
                    report.states, report.executions
                );
                failed += 1;
            }
            (Err(violation), false) => {
                println!("FAILED: unexpected violation");
                for line in violation.to_string().lines() {
                    println!("    {line}");
                }
                failed += 1;
            }
        }
    }
    if failed > 0 {
        eprintln!("{failed} protocol check(s) failed");
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
