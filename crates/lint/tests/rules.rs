//! Fixture self-tests: every rule must fire on its known-bad snippet and
//! stay quiet on the good parts, under the workspace `lint.toml` CI runs —
//! plus the capstone check that the real workspace is clean under it, and
//! the CLI's exit status on a configuration mistake.

use manthan3_lint::config::LintConfig;
use manthan3_lint::rules::{self, Rule, Workspace};
use manthan3_lint::source::SourceFile;
use manthan3_lint::{check_files, check_workspace};
use std::path::{Path, PathBuf};
use std::process::Command;

fn workspace_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("lint crate lives two levels below the workspace root")
}

/// The text of the workspace `lint.toml` without its `allow` lists: their
/// entries name workspace code, so over a fixture they would be stale.
fn lint_toml() -> String {
    let text =
        std::fs::read_to_string(workspace_root().join("lint.toml")).expect("lint.toml readable");
    let mut out = String::new();
    let mut in_allow = false;
    for line in text.lines() {
        in_allow = in_allow || line.starts_with("allow = [");
        if in_allow {
            in_allow = !line.trim_end().ends_with(']');
        } else {
            out.push_str(line);
            out.push('\n');
        }
    }
    out
}

/// [`lint_toml`] with `line` added under the `[section]` header.
fn lint_toml_with(section: &str, line: &str) -> String {
    let header = format!("[{section}]\n");
    let text = lint_toml();
    assert!(text.contains(&header), "lint.toml has no [{section}]");
    text.replacen(&header, &format!("{header}{line}\n"), 1)
}

fn fixture(name: &str, rel_path: &str) -> SourceFile {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(name);
    let src = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("fixture {} unreadable: {e}", path.display()));
    SourceFile::from_source(rel_path, &src)
}

fn run_rule(rule: &dyn Rule, files: Vec<SourceFile>) -> Vec<manthan3_lint::diag::Diagnostic> {
    let workspace = Workspace { files };
    let config = LintConfig::parse(&lint_toml()).expect("lint.toml parses");
    rule.check(&workspace, &config)
}

#[test]
fn atomic_ordering_fires_only_without_marker() {
    let diags = run_rule(
        &rules::AtomicOrdering,
        vec![fixture(
            "unjustified_ordering.rs",
            "crates/bad/src/atomics.rs",
        )],
    );
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert_eq!(diags[0].symbol.as_deref(), Some("unjustified"));
    assert!(diags[0].message.contains("SeqCst"));
    assert!(diags[0].message.contains("weakened"));
}

#[test]
fn no_unwrap_in_lib_fires_on_unwrap_and_bare_expect() {
    let diags = run_rule(
        &rules::NoUnwrapInLib,
        vec![fixture("unwrap_in_lib.rs", "crates/sat/src/bad.rs")],
    );
    let symbols: Vec<_> = diags.iter().filter_map(|d| d.symbol.as_deref()).collect();
    assert_eq!(symbols, ["bad_unwrap", "bad_expect"], "{diags:?}");
}

#[test]
fn no_unwrap_in_lib_ignores_out_of_scope_files() {
    let diags = run_rule(
        &rules::NoUnwrapInLib,
        vec![fixture("unwrap_in_lib.rs", "crates/portfolio/src/bad.rs")],
    );
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn cancel_poll_fires_on_unreachable_poll() {
    let diags = run_rule(
        &rules::CancelPoll,
        vec![
            fixture("missing_cancel_poll.rs", "crates/sat/src/entry.rs"),
            fixture("polling_namesake.rs", "crates/dqbf/src/verify.rs"),
        ],
    );
    let symbols: Vec<_> = diags.iter().filter_map(|d| d.symbol.as_deref()).collect();
    // `synthesize` is an entry prefix in lint.toml, so the `synthesize_*`
    // entry that only reaches a poll-free callee fires too. `check` fires
    // although an out-of-scope namesake polls.
    assert_eq!(
        symbols,
        ["solve_without_poll", "synthesize_without_poll", "check"],
        "{diags:?}"
    );
}

#[test]
fn clauseref_across_gc_fires_on_may_stale_uses_only() {
    let diags = run_rule(
        &rules::ClauseRefAcrossGc,
        vec![fixture("clauseref_across_gc.rs", "crates/sat/src/gc.rs")],
    );
    let symbols: Vec<_> = diags.iter().filter_map(|d| d.symbol.as_deref()).collect();
    // `stale_use` is the straight-line case; `loop_stale` is reached only
    // through the loop back edge. `safe_use`, `rebound_use`, and
    // `remapped_use` (the `cref = forward(cref)` idiom) stay clean.
    assert_eq!(symbols, ["stale_use", "loop_stale"], "{diags:?}");
    assert!(diags[0].message.contains("maybe_collect_garbage"));
}

#[test]
fn allowlist_suppresses_by_function() {
    let config = LintConfig::parse(&lint_toml_with(
        "clauseref-across-gc",
        "allow = [\"crates/sat/src/gc.rs::stale_use\", \"crates/sat/src/gc.rs::loop_stale\"]",
    ))
    .expect("config parses");
    let report = check_files(
        vec![fixture("clauseref_across_gc.rs", "crates/sat/src/gc.rs")],
        &config,
    );
    let gc_diags: Vec<_> = report
        .diagnostics
        .iter()
        .filter(|d| d.rule == "clauseref-across-gc")
        .collect();
    assert!(gc_diags.is_empty(), "{gc_diags:?}");
    assert!(report.suppressed >= 2);
}

#[test]
fn stale_allowlist_entry_is_reported() {
    let config = LintConfig::parse(&lint_toml_with(
        "clauseref-across-gc",
        "allow = [\"crates/sat/src/gc.rs::no_such_fn\"]",
    ))
    .expect("config parses");
    let report = check_files(
        vec![fixture("clauseref_across_gc.rs", "crates/sat/src/gc.rs")],
        &config,
    );
    let stale: Vec<_> = report
        .diagnostics
        .iter()
        .filter(|d| d.rule == "stale-allowlist")
        .collect();
    assert_eq!(stale.len(), 1, "{:?}", report.diagnostics);
    assert!(stale[0].message.contains("no_such_fn"));
    assert!(stale[0].message.contains("clauseref-across-gc"));
}

#[test]
fn section_naming_no_rule_is_reported() {
    let text = lint_toml_with(
        "clauseref-across-gc",
        "allow = [\"crates/sat/src/gc.rs::stale_use\", \"crates/sat/src/gc.rs::loop_stale\"]",
    );
    let config = LintConfig::parse(&format!(
        "{text}\n[no-such-rule]\nallow = [\"crates/sat/src/gc.rs::stale_use\"]\n"
    ))
    .expect("config parses");
    let report = check_files(
        vec![fixture("clauseref_across_gc.rs", "crates/sat/src/gc.rs")],
        &config,
    );
    assert_eq!(report.diagnostics.len(), 1, "{:?}", report.diagnostics);
    let orphan = &report.diagnostics[0];
    assert_eq!(orphan.rule, "stale-allowlist");
    assert_eq!(orphan.file, "lint.toml");
    assert!(orphan.message.contains("[no-such-rule]"), "{orphan}");
}

#[test]
fn budget_before_solve_fires_on_unchecked_paths_only() {
    let diags = run_rule(
        &rules::BudgetBeforeSolve,
        vec![fixture(
            "budget_before_solve.rs",
            "crates/maxsat/src/engine.rs",
        )],
    );
    let symbols: Vec<_> = diags.iter().filter_map(|d| d.symbol.as_deref()).collect();
    // `solve_checked` dominates its invocation with a check, and
    // `solve_admitted` with a call to a helper that checks on every path;
    // the branch-only check in `solve_branchy` leaves the fall-through path
    // unchecked, and a check after the invocation (`solve_checked_late`)
    // does not admit it.
    assert_eq!(
        symbols,
        ["solve_unchecked", "solve_branchy", "solve_checked_late"],
        "{diags:?}"
    );
    assert!(diags[0].message.contains("solve_with_assumptions"));
}

#[test]
fn budget_before_solve_ignores_out_of_scope_files() {
    let diags = run_rule(
        &rules::BudgetBeforeSolve,
        vec![fixture(
            "budget_before_solve.rs",
            "crates/portfolio/src/engine.rs",
        )],
    );
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn proof_discipline_fires_on_uncovered_mutations_only() {
    let diags = run_rule(
        &rules::ProofDiscipline,
        vec![fixture(
            "proof_discipline.rs",
            "crates/sat/src/discipline.rs",
        )],
    );
    let symbols: Vec<_> = diags.iter().filter_map(|d| d.symbol.as_deref()).collect();
    // `learn_logged`/`retire_logged` cover their mutations on both sides;
    // `maintain` calls a safe mutator. The branch-only emit in
    // `retire_branchy` leaves the fall-through path unlogged, and
    // `maintain_unlogged` reaches the arena through a non-safe callee.
    assert_eq!(
        symbols,
        ["learn_unlogged", "retire_branchy", "maintain_unlogged"],
        "{diags:?}"
    );
    assert!(diags[0].message.contains("alloc"), "{diags:?}");
    assert!(diags[2].message.contains("may mutate"), "{diags:?}");
}

#[test]
fn proof_discipline_ignores_out_of_scope_files() {
    let diags = run_rule(
        &rules::ProofDiscipline,
        vec![fixture(
            "proof_discipline.rs",
            "crates/core/src/discipline.rs",
        )],
    );
    assert!(diags.is_empty(), "{diags:?}");
}

/// The capstone: the real workspace, scanned under the real `lint.toml`,
/// must be clean. This is the same invocation CI runs.
#[test]
fn workspace_is_clean_under_lint_toml() {
    let root = workspace_root();
    let config = LintConfig::load(&root.join("lint.toml")).expect("lint.toml parses");
    let report = check_workspace(root, &config).expect("workspace scan succeeds");
    assert!(
        report.diagnostics.is_empty(),
        "workspace has lint violations:\n{}",
        report
            .diagnostics
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
    assert!(report.files_scanned > 20, "suspiciously few files scanned");
}

/// Runs `manthan3-lint check` on the workspace with `args` appended.
fn run_check(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_manthan3-lint"))
        .args(["check", "--root"])
        .arg(workspace_root())
        .args(args)
        .output()
        .expect("linter runs")
}

/// A configuration mistake exits 2 with the section and key on stderr, not
/// a panic (exit 101) and not a silent fallback (exit 0).
#[test]
fn config_mistakes_exit_2() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    let cases = [
        (
            "empty_marker.toml",
            lint_toml().replace("marker = \"ordering:\"", "marker = []"),
            "[atomic-ordering] key `marker` is empty",
        ),
        (
            "renamed_key.toml",
            lint_toml().replace("check-markers =", "check-marker ="),
            "[budget-before-solve] unknown key `check-marker`",
        ),
    ];
    for (name, text, expected) in cases {
        let path = dir.join(name);
        std::fs::write(&path, text).expect("scratch config writable");
        let out = run_check(&["--config", path.to_str().expect("utf-8 path")]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{name}: {stderr}");
        assert!(stderr.contains(expected), "{name}: {stderr}");
    }
    let missing = dir.join("no_such_lint.toml");
    let out = run_check(&["--config", missing.to_str().expect("utf-8 path")]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
}
