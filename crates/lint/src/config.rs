//! `lint.toml`: per-rule configuration and allowlists.
//!
//! The parser is a hand-rolled TOML subset (crates.io is unreachable, so no
//! `toml` crate): `[section]` headers, `key = "string"` and
//! `key = ["array", "of", "strings"]` values (arrays may span lines), and
//! `#` comments. That is exactly the shape the linter's configuration needs.

use std::collections::BTreeMap;
use std::path::Path;

/// Parsed and validated `lint.toml`: section name → key → list of string
/// values (a scalar string is a one-element list). Every section of a
/// registered rule holds exactly the keys the rule declares (see
/// [`Rule::keys`](crate::rules::Rule::keys)), plus an optional `allow` list.
#[derive(Debug, Clone)]
pub struct LintConfig {
    sections: BTreeMap<String, Section>,
}

/// One `[section]`: where its header is and what its keys hold.
#[derive(Debug, Clone, Default)]
struct Section {
    /// 1-based line of the first `[section]` header (0 for keys above any
    /// header).
    line: usize,
    /// Key → (1-based line, values).
    keys: BTreeMap<String, (usize, Vec<String>)>,
}

/// A setting a rule reads from its `lint.toml` section. Every declared key
/// is required; the `allow` list is implicit and optional in every section.
#[derive(Debug, Clone, Copy)]
pub enum Key {
    /// Exactly one string: `key = "value"`.
    One(&'static str),
    /// A non-empty list of strings: `key = ["a", "b"]`.
    List(&'static str),
}

impl Key {
    /// The key's name in `lint.toml`.
    pub fn name(self) -> &'static str {
        match self {
            Key::One(name) | Key::List(name) => name,
        }
    }
}

/// A malformed `lint.toml` line, or a rule section that does not hold the
/// keys its rule declares.
#[derive(Debug)]
pub struct ConfigError {
    /// 1-based line of the offending construct (0 when it has none, e.g. a
    /// missing section).
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.line {
            0 => write!(f, "lint.toml: {}", self.message),
            line => write!(f, "lint.toml:{line}: {}", self.message),
        }
    }
}

impl std::error::Error for ConfigError {}

impl LintConfig {
    /// Loads and validates `path`. A missing file is an error: the rules
    /// have no settings of their own.
    pub fn load(path: &Path) -> Result<LintConfig, Box<dyn std::error::Error>> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        Ok(LintConfig::parse(&text)?)
    }

    /// Parses configuration text and validates every registered rule's
    /// section against the keys the rule declares: an unknown key, a
    /// missing key, an empty list or a multi-valued scalar is an error
    /// naming the section and the key.
    pub fn parse(text: &str) -> Result<LintConfig, ConfigError> {
        let config = LintConfig::parse_sections(text)?;
        for rule in crate::rules::registry() {
            config.validate(rule.name(), rule.keys())?;
        }
        Ok(config)
    }

    /// The syntactic half of [`LintConfig::parse`].
    fn parse_sections(text: &str) -> Result<LintConfig, ConfigError> {
        let mut sections: BTreeMap<String, Section> = BTreeMap::new();
        let mut section = String::new();
        let mut lines = text.lines().enumerate().peekable();
        while let Some((num, raw)) = lines.next() {
            let line = strip_comment(raw).trim().to_string();
            if line.is_empty() {
                continue;
            }
            if let Some(name) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
                section = name.trim().to_string();
                sections.entry(section.clone()).or_insert_with(|| Section {
                    line: num + 1,
                    keys: BTreeMap::new(),
                });
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
            sections
                .entry(section.clone())
                .or_default()
                .keys
                .insert(key, (num + 1, values));
        }
        Ok(LintConfig { sections })
    }

    /// Checks that `[name]` holds exactly `keys` (plus an optional `allow`).
    /// A missing section is checked as an empty one, so it reports its first
    /// missing key.
    fn validate(&self, name: &str, keys: &[Key]) -> Result<(), ConfigError> {
        let empty = Section::default();
        let section = self.sections.get(name).unwrap_or(&empty);
        let error = |line: usize, message: String| {
            Err(ConfigError {
                line,
                message: format!("[{name}] {message}"),
            })
        };
        for (key, (line, _)) in &section.keys {
            if key != "allow" && !keys.iter().any(|k| k.name() == key) {
                let known: Vec<_> = keys.iter().map(|k| format!("`{}`", k.name())).collect();
                return error(
                    *line,
                    format!(
                        "unknown key `{key}`; the rule reads {} and `allow`",
                        known.join(", ")
                    ),
                );
            }
        }
        for &key in keys {
            match (key, section.keys.get(key.name())) {
                (_, None) => return error(section.line, format!("missing key `{}`", key.name())),
                (_, Some((line, values))) if values.is_empty() => {
                    return error(*line, format!("key `{}` is empty", key.name()));
                }
                (Key::One(k), Some((line, values))) if values.len() != 1 => {
                    return error(*line, format!("key `{k}` takes exactly one string"));
                }
                _ => {}
            }
        }
        Ok(())
    }

    /// The strings at `section.key` (empty if absent; [`LintConfig::parse`]
    /// guarantees every declared [`Key::List`] is present and non-empty).
    pub fn list(&self, section: &str, key: &str) -> &[String] {
        self.sections
            .get(section)
            .and_then(|s| s.keys.get(key))
            .map(|(_, values)| values.as_slice())
            .unwrap_or(&[])
    }

    /// The string at `section.key` (empty if absent; [`LintConfig::parse`]
    /// guarantees every declared [`Key::One`] holds exactly one).
    pub fn value(&self, section: &str, key: &str) -> &str {
        self.list(section, key).first().map_or("", String::as_str)
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

    /// The workspace configuration, which every rule's section must pass.
    const WORKSPACE: &str = include_str!("../../../lint.toml");

    fn rejection(text: &str) -> String {
        LintConfig::parse(text).unwrap_err().to_string()
    }

    #[test]
    fn sections_keys_and_arrays() {
        let config = LintConfig::parse_sections(
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
        assert_eq!(config.value("atomic-ordering", "marker"), "ordering:");
        assert!(config.list("atomic-ordering", "absent").is_empty());
    }

    #[test]
    fn malformed_lines_are_rejected_with_position() {
        let err = LintConfig::parse("[a]\nnot a kv\n").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.to_string().contains("lint.toml:2"));
    }

    #[test]
    fn an_unknown_key_is_rejected() {
        let text = WORKSPACE.replace("check-markers =", "check-marker =");
        let message = rejection(&text);
        assert!(
            message.contains("[budget-before-solve] unknown key `check-marker`"),
            "{message}"
        );
    }

    #[test]
    fn a_missing_key_is_rejected() {
        let text = WORKSPACE.replace("poll-markers = [\"is_cancelled\"]", "");
        let message = rejection(&text);
        assert!(
            message.contains("[cancel-poll] missing key `poll-markers`"),
            "{message}"
        );
        let message = rejection("");
        assert!(
            message.contains("[atomic-ordering] missing key `marker`"),
            "{message}"
        );
    }

    #[test]
    fn an_empty_required_list_is_rejected() {
        let text = WORKSPACE.replace("marker = \"ordering:\"", "marker = []");
        let message = rejection(&text);
        assert!(
            message.contains("[atomic-ordering] key `marker` is empty"),
            "{message}"
        );
        let text = WORKSPACE.replace(
            "ref-idents = [\"cref\", \"confl\", \"clause_ref\"]",
            "ref-idents = []",
        );
        let message = rejection(&text);
        assert!(
            message.contains("[clauseref-across-gc] key `ref-idents` is empty"),
            "{message}"
        );
    }

    #[test]
    fn a_missing_file_is_rejected() {
        let err = LintConfig::load(Path::new("no/such/lint.toml")).unwrap_err();
        assert!(err.to_string().contains("no/such/lint.toml"), "{err}");
    }
}
