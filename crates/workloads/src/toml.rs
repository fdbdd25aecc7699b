//! The repo's mini-TOML: the one text format scenario files and node
//! configs are written in, with typed getters that turn a mistyped value
//! into an error instead of a silent default.
//!
//! The supported subset covers what those files need — `[section]` headers,
//! `[[section]]` array-of-tables headers, `key = value` pairs with string /
//! integer / float / boolean values, comments, and blank lines. (A full TOML
//! crate is unavailable in the offline build environment; see
//! `crates/compat/README.md`.)

use crate::FaultPlan;
use prestige_core::{AttackStrategy, TimeoutConfig};
use std::collections::BTreeMap;

/// A scalar TOML value.
#[derive(Debug, Clone, PartialEq)]
pub enum TomlValue {
    /// A quoted string.
    Str(String),
    /// An integer.
    Int(i64),
    /// A float.
    Float(f64),
    /// A boolean.
    Bool(bool),
}

/// A parsed TOML document: section → key → value. The `i`-th `[[name]]`
/// table is the section `name[i]`, so the typed getters (and their error
/// messages, e.g. `fault[1].duration_ms`) serve array entries unchanged;
/// walk them with [`array_sections`].
pub type TomlDoc = BTreeMap<String, BTreeMap<String, TomlValue>>;

/// Errors from config parsing.
#[derive(Debug)]
pub enum ConfigError {
    /// A line could not be parsed.
    Syntax {
        /// 1-based line number.
        line: usize,
        /// Description of the problem.
        message: String,
    },
    /// A required key was absent.
    Missing(String),
    /// A value was present but invalid (wrong type, out of range, bad
    /// address, bad role, ...).
    Invalid(String),
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::Syntax { line, message } => write!(f, "line {line}: {message}"),
            ConfigError::Missing(k) => write!(f, "missing key: {k}"),
            ConfigError::Invalid(m) => write!(f, "invalid value: {m}"),
        }
    }
}

impl std::error::Error for ConfigError {}

/// Parses the supported TOML subset.
pub fn parse_toml(text: &str) -> Result<TomlDoc, ConfigError> {
    let mut doc: TomlDoc = BTreeMap::new();
    let mut section = String::new();
    for (idx, raw) in text.lines().enumerate() {
        let line_no = idx + 1;
        let line = strip_comment(raw).trim().to_string();
        if line.is_empty() {
            continue;
        }
        let brackets =
            |s: &'_ str| Some(s.strip_prefix('[')?.strip_suffix(']')?.trim().to_string());
        if let Some(name) = brackets(&line) {
            section = match brackets(&name) {
                Some(array) => format!("{array}[{}]", array_sections(&doc, &array).count()),
                None => name,
            };
            doc.entry(section.clone()).or_default();
            continue;
        }
        let (key, value) = line.split_once('=').ok_or_else(|| ConfigError::Syntax {
            line: line_no,
            message: format!("expected `key = value`, got `{line}`"),
        })?;
        let value = parse_value(value.trim()).ok_or_else(|| ConfigError::Syntax {
            line: line_no,
            message: format!("unparsable value `{}`", value.trim()),
        })?;
        doc.entry(section.clone())
            .or_default()
            .insert(key.trim().to_string(), value);
    }
    Ok(doc)
}

/// The section names of the `[[name]]` tables, in file order.
pub fn array_sections<'d>(doc: &'d TomlDoc, name: &'d str) -> impl Iterator<Item = String> + 'd {
    (0..)
        .map(move |i| format!("{name}[{i}]"))
        .take_while(|section| doc.contains_key(section))
}

/// Rejects every key of `section` that is not in `allowed`, naming it: an
/// unread key is a misspelling or a retired spelling, and ignoring it would
/// silently drop what it was meant to configure.
pub fn reject_unknown_keys(
    doc: &TomlDoc,
    section: &str,
    allowed: &[&str],
) -> Result<(), ConfigError> {
    match doc
        .get(section)
        .and_then(|table| table.keys().find(|key| !allowed.contains(&key.as_str())))
    {
        Some(key) => Err(ConfigError::Invalid(format!(
            "unknown key `{section}.{key}` (expected one of: {})",
            allowed.join(", ")
        ))),
        None => Ok(()),
    }
}

fn strip_comment(line: &str) -> &str {
    // A `#` outside quotes starts a comment.
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

fn parse_value(text: &str) -> Option<TomlValue> {
    if let Some(inner) = text.strip_prefix('"').and_then(|s| s.strip_suffix('"')) {
        return Some(TomlValue::Str(inner.to_string()));
    }
    match text {
        "true" => return Some(TomlValue::Bool(true)),
        "false" => return Some(TomlValue::Bool(false)),
        _ => {}
    }
    let normalized = text.replace('_', "");
    if let Ok(i) = normalized.parse::<i64>() {
        return Some(TomlValue::Int(i));
    }
    if let Ok(f) = normalized.parse::<f64>() {
        return Some(TomlValue::Float(f));
    }
    None
}

/// The raw value at `section.key`, if present.
pub fn get<'d>(doc: &'d TomlDoc, section: &str, key: &str) -> Option<&'d TomlValue> {
    doc.get(section).and_then(|s| s.get(key))
}

/// `section.key` as a number (integers widen), or `default` when absent.
/// A mistyped value is an error, not a silent fallback — a quoted timeout or
/// assertion floor would otherwise disable the thing it configures.
pub fn get_f64(doc: &TomlDoc, section: &str, key: &str, default: f64) -> Result<f64, ConfigError> {
    match get(doc, section, key) {
        Some(TomlValue::Float(f)) => Ok(*f),
        Some(TomlValue::Int(i)) => Ok(*i as f64),
        None => Ok(default),
        Some(other) => Err(ConfigError::Invalid(format!(
            "{section}.{key}: expected a number, got {other:?}"
        ))),
    }
}

/// `section.key` as an integer of the caller's type, or `default` when
/// absent. Range-checked: a negative or oversized value is an error, not a
/// silent wrap into a huge count.
pub fn get_int<T: TryFrom<i64>>(
    doc: &TomlDoc,
    section: &str,
    key: &str,
    default: T,
) -> Result<T, ConfigError> {
    match get(doc, section, key) {
        Some(TomlValue::Int(i)) => T::try_from(*i)
            .map_err(|_| ConfigError::Invalid(format!("{section}.{key} = {i} is out of range"))),
        None => Ok(default),
        Some(other) => Err(ConfigError::Invalid(format!(
            "{section}.{key}: expected an integer, got {other:?}"
        ))),
    }
}

/// `section.key` as a boolean, or `default` when absent.
pub fn get_bool(
    doc: &TomlDoc,
    section: &str,
    key: &str,
    default: bool,
) -> Result<bool, ConfigError> {
    match get(doc, section, key) {
        Some(TomlValue::Bool(b)) => Ok(*b),
        None => Ok(default),
        Some(other) => Err(ConfigError::Invalid(format!(
            "{section}.{key}: expected true or false, got {other:?}"
        ))),
    }
}

/// `section.key` as a string, `None` when absent.
pub fn get_str<'d>(
    doc: &'d TomlDoc,
    section: &str,
    key: &str,
) -> Result<Option<&'d str>, ConfigError> {
    match get(doc, section, key) {
        Some(TomlValue::Str(s)) => Ok(Some(s)),
        None => Ok(None),
        Some(other) => Err(ConfigError::Invalid(format!(
            "{section}.{key}: expected a string, got {other:?}"
        ))),
    }
}

/// The keys of the `[timeouts]` section, one per [`TimeoutConfig`] field.
pub const TIMEOUT_KEYS: [&str; 4] = [
    "base_timeout_ms",
    "randomization_ms",
    "client_timeout_ms",
    "complaint_grace_ms",
];

/// The `[timeouts]` section, shared by node configs and scenario files:
/// each key present overrides its field of `base`.
pub fn parse_timeouts(doc: &TomlDoc, base: TimeoutConfig) -> Result<TimeoutConfig, ConfigError> {
    let field = |key, default| get_f64(doc, "timeouts", key, default);
    Ok(TimeoutConfig {
        base_timeout_ms: field("base_timeout_ms", base.base_timeout_ms)?,
        randomization_ms: field("randomization_ms", base.randomization_ms)?,
        client_timeout_ms: field("client_timeout_ms", base.client_timeout_ms)?,
        complaint_grace_ms: field("complaint_grace_ms", base.complaint_grace_ms)?,
    })
}

/// The keys of the `[faults]` section.
pub const FAULT_KEYS: [&str; 3] = ["plan", "count", "strategy"];

/// The `[faults]` section (`plan` / `count` / `strategy`), shared by node
/// configs and scenario files; [`FaultPlan::None`] when no plan is
/// named.
pub fn parse_faults(doc: &TomlDoc) -> Result<FaultPlan, ConfigError> {
    let Some(label) = get_str(doc, "faults", "plan")? else {
        return Ok(FaultPlan::None);
    };
    let count = get_int(doc, "faults", "count", 1u32)?;
    let strategy = match get_str(doc, "faults", "strategy")? {
        None => AttackStrategy::Always,
        Some(text) => FaultPlan::parse_strategy(text).ok_or_else(|| {
            ConfigError::Invalid(format!("faults.strategy `{text}` (expected s1 or s2)"))
        })?,
    };
    FaultPlan::from_parts(label, count, strategy).ok_or_else(|| {
        ConfigError::Invalid(format!(
            "faults.plan `{label}` (expected none, timeout, quiet, equiv, vc_quiet, vc_equiv, \
             or tip_liar)"
        ))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comments_and_underscore_numbers_parse() {
        let doc = parse_toml("a = 1_000 # thousand\nb = \"x # not a comment\"\n").unwrap();
        assert_eq!(doc[""]["a"], TomlValue::Int(1000));
        assert_eq!(doc[""]["b"], TomlValue::Str("x # not a comment".into()));
    }

    #[test]
    fn bad_lines_name_their_line_number() {
        let err = parse_toml("ok = 1\nnot a kv line\n").unwrap_err();
        match err {
            ConfigError::Syntax { line, .. } => assert_eq!(line, 2),
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn array_tables_become_indexed_sections_in_file_order() {
        let doc =
            parse_toml("[[fault]]\nat_ms = 5\n[other]\nx = 1\n[[fault]]\nat_ms = 9\n").unwrap();
        let sections: Vec<String> = array_sections(&doc, "fault").collect();
        assert_eq!(sections, ["fault[0]", "fault[1]"]);
        assert_eq!(get_int(&doc, "fault[1]", "at_ms", 0u64).unwrap(), 9);
        let err = get_str(&doc, "fault[0]", "at_ms").unwrap_err();
        assert!(err.to_string().contains("fault[0].at_ms"), "{err}");
    }
}
