//! `lint.toml`: per-rule configuration and allowlists.
//!
//! The parser is a hand-rolled TOML subset (crates.io is unreachable, so no
//! `toml` crate): `[section]` headers, `key = "string"` and
//! `key = ["array", "of", "strings"]` values (arrays may span lines), and
//! `#` comments. That is exactly the shape the linter's configuration needs.

use std::collections::BTreeMap;
use std::path::Path;

/// Parsed `lint.toml`: section name → key → list of string values (a scalar
/// string is a one-element list).
#[derive(Debug, Default, Clone)]
pub struct LintConfig {
    sections: BTreeMap<String, BTreeMap<String, Vec<String>>>,
}

/// A malformed `lint.toml` line.
#[derive(Debug)]
pub struct ConfigError {
    /// 1-based line of the offending construct.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "lint.toml:{}: {}", self.line, self.message)
    }
}

impl std::error::Error for ConfigError {}

impl LintConfig {
    /// Loads `path`, or returns the empty configuration if it does not exist.
    pub fn load(path: &Path) -> Result<LintConfig, Box<dyn std::error::Error>> {
        match std::fs::read_to_string(path) {
            Ok(text) => Ok(LintConfig::parse(&text)?),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(LintConfig::default()),
            Err(e) => Err(e.into()),
        }
    }

    /// Parses configuration text.
    pub fn parse(text: &str) -> Result<LintConfig, ConfigError> {
        let mut config = LintConfig::default();
        let mut section = String::new();
        let mut lines = text.lines().enumerate().peekable();
        while let Some((num, raw)) = lines.next() {
            let line = strip_comment(raw).trim().to_string();
            if line.is_empty() {
                continue;
            }
            if let Some(name) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
                section = name.trim().to_string();
                config.sections.entry(section.clone()).or_default();
                continue;
            }
            let Some((key, value)) = line.split_once('=') else {
                return Err(ConfigError {
                    line: num + 1,
                    message: format!("expected `[section]` or `key = value`, got `{line}`"),
                });
            };
            let key = key.trim().to_string();
            let mut value = value.trim().to_string();
            // Multiline arrays: keep consuming until the brackets balance.
            while value.starts_with('[') && !value.ends_with(']') {
                let Some((_, next)) = lines.next() else {
                    return Err(ConfigError {
                        line: num + 1,
                        message: "unterminated array".to_string(),
                    });
                };
                value.push(' ');
                value.push_str(strip_comment(next).trim());
            }
            let values = parse_value(&value).map_err(|message| ConfigError {
                line: num + 1,
                message,
            })?;
            config
                .sections
                .entry(section.clone())
                .or_default()
                .insert(key, values);
        }
        Ok(config)
    }

    /// The string list at `section.key` (empty if absent).
    pub fn list(&self, section: &str, key: &str) -> &[String] {
        self.sections
            .get(section)
            .and_then(|s| s.get(key))
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Like [`LintConfig::list`], but falls back to `default` when the key
    /// is absent (so rules have sensible behaviour without a lint.toml).
    pub fn list_or<'a>(&'a self, section: &str, key: &str, default: &'a [String]) -> &'a [String] {
        match self.sections.get(section).and_then(|s| s.get(key)) {
            Some(values) => values,
            None => default,
        }
    }

    /// Every section name, in sorted order (keys above the first header
    /// land in the unnamed section `""`).
    pub fn sections(&self) -> impl Iterator<Item = &str> {
        self.sections.keys().map(String::as_str)
    }

    /// The allowlist of `section` (key `allow`).
    pub fn allowlist(&self, section: &str) -> &[String] {
        self.list(section, "allow")
    }
}

/// Removes a `#` comment, respecting `#` inside quoted strings.
fn strip_comment(line: &str) -> &str {
    let mut in_string = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_string = !in_string,
            '#' if !in_string => return &line[..i],
            _ => {}
        }
    }
    line
}

/// Parses `"string"` or `["a", "b"]` into a list of strings.
fn parse_value(value: &str) -> Result<Vec<String>, String> {
    let value = value.trim();
    if let Some(inner) = value.strip_prefix('[').and_then(|v| v.strip_suffix(']')) {
        let mut out = Vec::new();
        for part in split_top_level(inner) {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            out.push(parse_string(part)?);
        }
        return Ok(out);
    }
    Ok(vec![parse_string(value)?])
}

/// Splits an array body on commas (strings in this config never contain
/// commas that matter, but quoted commas are still respected).
fn split_top_level(s: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut current = String::new();
    let mut in_string = false;
    for c in s.chars() {
        match c {
            '"' => {
                in_string = !in_string;
                current.push(c);
            }
            ',' if !in_string => {
                out.push(std::mem::take(&mut current));
            }
            _ => current.push(c),
        }
    }
    out.push(current);
    out
}

fn parse_string(s: &str) -> Result<String, String> {
    s.strip_prefix('"')
        .and_then(|s| s.strip_suffix('"'))
        .map(str::to_string)
        .ok_or_else(|| format!("expected a quoted string, got `{s}`"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sections_keys_and_arrays() {
        let config = LintConfig::parse(
            "# top comment\n[cancel-poll]\nentry-prefixes = [\"solve\", \"sample\"]\nallow = [\n    \"crates/x/src/lib.rs::solve_cnf\", # trailing comment\n]\n\n[atomic-ordering]\nmarker = \"ordering:\"\n",
        )
        .expect("parses");
        assert_eq!(
            config.list("cancel-poll", "entry-prefixes"),
            ["solve", "sample"]
        );
        assert_eq!(
            config.allowlist("cancel-poll"),
            ["crates/x/src/lib.rs::solve_cnf"]
        );
        assert_eq!(config.list("atomic-ordering", "marker"), ["ordering:"]);
        assert!(config.list("atomic-ordering", "absent").is_empty());
    }

    #[test]
    fn malformed_lines_are_rejected_with_position() {
        let err = LintConfig::parse("[a]\nnot a kv\n").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.to_string().contains("lint.toml:2"));
    }

    #[test]
    fn defaults_apply_when_keys_are_absent() {
        let config = LintConfig::parse("[x]\n").expect("parses");
        let default = vec!["d".to_string()];
        assert_eq!(config.list_or("x", "k", &default), ["d"]);
    }
}
