//! CLI driver: `manthan3-lint check [--root DIR] [--config FILE]` scans
//! the workspace, prints one `file:line: [rule] message` line per finding
//! and exits 1 on violations; `manthan3-lint rules` lists the registered
//! rules. Exit code 2 signals usage or configuration errors. The summary
//! line goes to stderr.

use manthan3_lint::config::LintConfig;
use manthan3_lint::{check_workspace, rules};
use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut command = None;
    let mut root = PathBuf::from(".");
    let mut config_path = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "check" | "rules" if command.is_none() => command = Some(arg.clone()),
            "--root" => match it.next() {
                Some(dir) => root = PathBuf::from(dir),
                None => return usage("--root needs a directory"),
            },
            "--config" => match it.next() {
                Some(file) => config_path = Some(PathBuf::from(file)),
                None => return usage("--config needs a file"),
            },
            other => return usage(&format!("unknown argument `{other}`")),
        }
    }
    match command.as_deref() {
        Some("rules") => {
            for rule in rules::registry() {
                println!("{:24} {}", rule.name(), rule.description());
            }
            ExitCode::SUCCESS
        }
        Some("check") => run_check(&root, config_path),
        _ => usage("expected a subcommand: check | rules"),
    }
}

fn run_check(root: &std::path::Path, config_path: Option<PathBuf>) -> ExitCode {
    let config_path = config_path.unwrap_or_else(|| root.join("lint.toml"));
    let config = match LintConfig::load(&config_path) {
        Ok(config) => config,
        Err(err) => {
            eprintln!("error: {err}");
            return ExitCode::from(2);
        }
    };
    match check_workspace(root, &config) {
        Ok(report) => {
            for diag in &report.diagnostics {
                println!("{diag}");
            }
            eprintln!(
                "manthan3-lint: {} file(s) scanned, {} violation(s), {} allowlisted",
                report.files_scanned,
                report.diagnostics.len(),
                report.suppressed
            );
            if report.diagnostics.is_empty() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(err) => {
            eprintln!("error: {err}");
            ExitCode::from(2)
        }
    }
}

fn usage(message: &str) -> ExitCode {
    eprintln!("error: {message}");
    eprintln!("usage: manthan3-lint <check|rules> [--root DIR] [--config FILE]");
    ExitCode::from(2)
}
