//! Command-line front end for the DRAT checker:
//! `manthan3-drat check <formula.cnf> <proof.drat>`.
//!
//! Exit codes: 0 = proof verified, 1 = proof rejected (or I/O / parse
//! failure), 2 = usage error.

use manthan3_drat::{check, parse_dimacs, parse_proof, CheckOutcome};
use std::process::ExitCode;

const USAGE: &str = "usage: manthan3-drat check <formula.cnf> <proof.drat>";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.as_slice() {
        [cmd, cnf_path, proof_path] if cmd == "check" => run_check(cnf_path, proof_path),
        _ => {
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

fn run_check(cnf_path: &str, proof_path: &str) -> ExitCode {
    let cnf_text = match std::fs::read_to_string(cnf_path) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("error: cannot read {cnf_path}: {e}");
            return ExitCode::from(1);
        }
    };
    let dimacs = match parse_dimacs(&cnf_text) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("error: {cnf_path}: {e}");
            return ExitCode::from(1);
        }
    };
    let proof_bytes = match std::fs::read(proof_path) {
        Ok(bytes) => bytes,
        Err(e) => {
            eprintln!("error: cannot read {proof_path}: {e}");
            return ExitCode::from(1);
        }
    };
    let proof = match parse_proof(&proof_bytes) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: {proof_path}: {e}");
            return ExitCode::from(1);
        }
    };
    match check(&dimacs.clauses, &proof, || false) {
        CheckOutcome::Verified(stats) => {
            println!(
                "s VERIFIED ({} steps, {} adds, {} deletes, {} RAT, {} propagations)",
                stats.steps_checked,
                stats.adds,
                stats.deletes,
                stats.rat_lemmas,
                stats.propagations
            );
            ExitCode::SUCCESS
        }
        CheckOutcome::Rejected { step, reason } => {
            println!("s REJECTED at step {step}: {reason}");
            ExitCode::from(1)
        }
        CheckOutcome::Cancelled => {
            // invariant: the CLI's poll never fires, so the check runs to
            // its verdict.
            unreachable!("CLI check is never cancelled")
        }
    }
}
