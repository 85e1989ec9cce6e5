//! The checked-in concurrency policy (`crates/analyzer/policy.toml`) and a
//! minimal parser for the TOML subset it uses.
//!
//! The registry is offline, so no `toml` crate: this hand-rolled reader
//! supports exactly what the policy file needs — `[table]` headers,
//! `[[array-of-table]]` headers, `key = "string"` and
//! `key = ["a", "b"]` values (arrays may span lines), and `#` comments.
//! Unknown syntax is an error, not a silent skip: a malformed policy must
//! fail the lint run, never weaken it.

use std::collections::HashMap;
use std::fmt;

/// A value in the policy file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Value {
    Str(String),
    List(Vec<String>),
}

/// One `[section]` or `[[section]]` instance with its key/value pairs.
#[derive(Debug, Clone)]
pub struct Section {
    pub name: String,
    pub entries: HashMap<String, Value>,
    /// 1-based line of the section header (for error reporting).
    pub line: usize,
}

/// Policy parse/validation failure.
#[derive(Debug)]
pub struct PolicyError {
    pub line: usize,
    pub message: String,
}

impl fmt::Display for PolicyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "policy.toml:{}: {}", self.line, self.message)
    }
}

impl std::error::Error for PolicyError {}

fn err(line: usize, message: impl Into<String>) -> PolicyError {
    PolicyError {
        line,
        message: message.into(),
    }
}

/// Parse the TOML subset into sections, in file order.
pub fn parse_sections(src: &str) -> Result<Vec<Section>, PolicyError> {
    let mut sections: Vec<Section> = Vec::new();
    let lines: Vec<&str> = src.lines().collect();
    let mut i = 0usize;
    while i < lines.len() {
        let lineno = i + 1;
        let line = strip_comment(lines[i]).trim().to_string();
        i += 1;
        if line.is_empty() {
            continue;
        }
        if let Some(name) = header(&line) {
            sections.push(Section {
                name,
                entries: HashMap::new(),
                line: lineno,
            });
            continue;
        }
        let Some((key, mut rest)) = line.split_once('=') else {
            return Err(err(lineno, format!("expected `key = value`, got `{line}`")));
        };
        let key = key.trim().to_string();
        let mut value_text = rest.trim().to_string();
        // Multi-line array: keep consuming until the bracket closes.
        if value_text.starts_with('[') {
            while !bracket_closed(&value_text) {
                if i >= lines.len() {
                    return Err(err(lineno, "unterminated array"));
                }
                rest = strip_comment(lines[i]);
                value_text.push(' ');
                value_text.push_str(rest.trim());
                i += 1;
            }
        }
        let value = parse_value(&value_text, lineno)?;
        let Some(section) = sections.last_mut() else {
            return Err(err(lineno, "key/value before any [section] header"));
        };
        if section.entries.insert(key.clone(), value).is_some() {
            return Err(err(lineno, format!("duplicate key `{key}` in section")));
        }
    }
    Ok(sections)
}

fn strip_comment(line: &str) -> &str {
    // `#` only introduces a comment outside of strings; policy strings
    // never contain `#`, so a plain scan suffices — but stay honest about
    // quotes anyway.
    let mut in_str = false;
    for (idx, c) in line.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..idx],
            _ => {}
        }
    }
    line
}

fn header(line: &str) -> Option<String> {
    let inner = line
        .strip_prefix("[[")
        .and_then(|s| s.strip_suffix("]]"))
        .or_else(|| line.strip_prefix('[').and_then(|s| s.strip_suffix(']')))?;
    Some(inner.trim().to_string())
}

fn bracket_closed(text: &str) -> bool {
    let mut depth = 0i64;
    let mut in_str = false;
    for c in text.chars() {
        match c {
            '"' => in_str = !in_str,
            '[' if !in_str => depth += 1,
            ']' if !in_str => depth -= 1,
            _ => {}
        }
    }
    depth <= 0
}

fn parse_value(text: &str, line: usize) -> Result<Value, PolicyError> {
    let text = text.trim();
    if let Some(inner) = text.strip_prefix('"') {
        let Some(s) = inner.strip_suffix('"') else {
            return Err(err(line, format!("unterminated string: {text}")));
        };
        return Ok(Value::Str(s.to_string()));
    }
    if let Some(inner) = text.strip_prefix('[') {
        let Some(body) = inner.strip_suffix(']') else {
            return Err(err(line, format!("unterminated array: {text}")));
        };
        let mut items = Vec::new();
        for piece in body.split(',') {
            let piece = piece.trim();
            if piece.is_empty() {
                continue; // trailing comma
            }
            match parse_value(piece, line)? {
                Value::Str(s) => items.push(s),
                Value::List(_) => {
                    return Err(err(line, "nested arrays are not supported"))
                }
            }
        }
        return Ok(Value::List(items));
    }
    Err(err(
        line,
        format!("unsupported value `{text}` (only strings and string arrays)"),
    ))
}

/// One `[[ordering]]` policy entry: which `Ordering::*` variants a
/// file+symbol may use, and why.
#[derive(Debug, Clone)]
pub struct OrderingRule {
    /// Workspace-relative path, `/`-separated.
    pub file: String,
    /// Enclosing `fn` name, or `"*"` to cover the whole file.
    pub symbol: String,
    pub allow: Vec<String>,
    pub why: String,
    /// 1-based line of the entry's `[[ordering]]` header.
    pub line: usize,
}

/// One `[[pairing]]` waiver: a symbol whose Release/Acquire sides are
/// deliberately unpaired (or paired through a mechanism the cross-file
/// audit cannot see), with a justification.
#[derive(Debug, Clone)]
pub struct PairingRule {
    /// Atomic field/variable name as it appears at the call sites.
    pub symbol: String,
    /// Optional file restriction (`*` or omitted = any file).
    pub file: String,
    pub why: String,
}

/// The full parsed policy.
#[derive(Debug, Clone, Default)]
pub struct Policy {
    /// Root-relative path the policy was read from; findings about the
    /// policy itself are reported against it. Set by whoever loads the
    /// text ([`Policy::parse`] sees only the text).
    pub path: String,
    /// Files allowed to name lock types (`Mutex`, `RwLock`, `Condvar`, …)
    /// or mention `parking_lot`.
    pub lock_files: Vec<String>,
    /// Path prefixes under which `as *mut`/`as *const` casts are allowed.
    pub ptr_cast_prefixes: Vec<String>,
    pub ordering: Vec<OrderingRule>,
    pub pairing: Vec<PairingRule>,
    /// Every file the policy names, as `(1-based line of the entry, path)`:
    /// `[lock-allowlist]` items, `[[ordering]]` files and file-restricted
    /// `[[pairing]]` waivers. The `stale-policy-entry` lint checks each
    /// still exists, so deleting a file cannot leave its waivers behind.
    pub file_refs: Vec<(usize, String)>,
}

impl Policy {
    /// Parse and validate policy text.
    pub fn parse(src: &str) -> Result<Policy, PolicyError> {
        let mut policy = Policy::default();
        for section in parse_sections(src)? {
            match section.name.as_str() {
                "lock-allowlist" => {
                    policy.lock_files =
                        take_list(&section, "files")?;
                    for file in &policy.lock_files {
                        // Array items may sit on their own lines: point at
                        // the first line after the header quoting the path.
                        let quoted = format!("\"{file}\"");
                        let offset = src
                            .lines()
                            .skip(section.line)
                            .position(|l| strip_comment(l).contains(&quoted))
                            .map_or(0, |i| i + 1);
                        policy.file_refs.push((section.line + offset, file.clone()));
                    }
                }
                "ptr-cast-allowlist" => {
                    policy.ptr_cast_prefixes =
                        take_list(&section, "prefixes")?;
                }
                "ordering" => {
                    let file = take_str(&section, "file")?;
                    policy.file_refs.push((section.line, file.clone()));
                    policy.ordering.push(OrderingRule {
                        file,
                        symbol: take_str(&section, "symbol")?,
                        allow: take_list(&section, "allow")?,
                        why: take_str(&section, "why")?,
                        line: section.line,
                    });
                }
                "pairing" => {
                    policy.pairing.push(PairingRule {
                        symbol: take_str(&section, "symbol")?,
                        file: match section.entries.get("file") {
                            Some(Value::Str(s)) => {
                                if s != "*" {
                                    policy.file_refs.push((section.line, s.clone()));
                                }
                                s.clone()
                            }
                            Some(Value::List(_)) => {
                                return Err(err(
                                    section.line,
                                    "[[pairing]] `file` must be a string",
                                ))
                            }
                            None => "*".to_string(),
                        },
                        why: take_str(&section, "why")?,
                    });
                }
                other => {
                    return Err(err(
                        section.line,
                        format!("unknown policy section `{other}`"),
                    ))
                }
            }
        }
        for rule in &policy.pairing {
            if rule.why.trim().is_empty() {
                return Err(err(
                    0,
                    format!("pairing waiver for `{}` has an empty justification", rule.symbol),
                ));
            }
        }
        for rule in &policy.ordering {
            if rule.why.trim().is_empty() {
                return Err(err(
                    0,
                    format!(
                        "ordering rule {}#{} has an empty justification",
                        rule.file, rule.symbol
                    ),
                ));
            }
            for variant in &rule.allow {
                const KNOWN: [&str; 5] =
                    ["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];
                if !KNOWN.contains(&variant.as_str()) {
                    return Err(err(
                        0,
                        format!(
                            "ordering rule {}#{} allows unknown variant `{variant}`",
                            rule.file, rule.symbol
                        ),
                    ));
                }
            }
        }
        Ok(policy)
    }

    /// The orderings allowed at `file` within `symbol` (an enclosing fn
    /// name or `None` for module scope). File-wildcard (`symbol = "*"`)
    /// rules apply everywhere in the file.
    pub fn allowed_orderings(&self, file: &str, symbol: Option<&str>) -> Vec<&OrderingRule> {
        self.ordering
            .iter()
            .filter(|r| {
                r.file == file && (r.symbol == "*" || Some(r.symbol.as_str()) == symbol)
            })
            .collect()
    }
}

fn take_str(section: &Section, key: &str) -> Result<String, PolicyError> {
    match section.entries.get(key) {
        Some(Value::Str(s)) => Ok(s.clone()),
        Some(Value::List(_)) => Err(err(
            section.line,
            format!("[{}] `{key}` must be a string", section.name),
        )),
        None => Err(err(
            section.line,
            format!("[{}] missing key `{key}`", section.name),
        )),
    }
}

fn take_list(section: &Section, key: &str) -> Result<Vec<String>, PolicyError> {
    match section.entries.get(key) {
        Some(Value::List(l)) => Ok(l.clone()),
        Some(Value::Str(_)) => Err(err(
            section.line,
            format!("[{}] `{key}` must be an array", section.name),
        )),
        None => Err(err(
            section.line,
            format!("[{}] missing key `{key}`", section.name),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"
# comment
[lock-allowlist]
files = [
    "crates/shmem/src/sync.rs", # inline comment
    "crates/testkit/src/lib.rs",
]

[ptr-cast-allowlist]
prefixes = ["crates/shmem/", "crates/hwpc/"]

[[ordering]]
file = "crates/shmem/src/ring.rs"
symbol = "state"
allow = ["Acquire"]
why = "consumer poll pairs with Release publish"

[[ordering]]
file = "crates/shmem/src/ring.rs"
symbol = "*"
allow = ["Relaxed"]
why = "debug asserts only"
"#;

    #[test]
    fn parses_sample() {
        let p = Policy::parse(SAMPLE).unwrap();
        assert_eq!(p.lock_files.len(), 2);
        assert_eq!(p.ptr_cast_prefixes, vec!["crates/shmem/", "crates/hwpc/"]);
        assert_eq!(p.ordering.len(), 2);
        let rules = p.allowed_orderings("crates/shmem/src/ring.rs", Some("state"));
        assert_eq!(rules.len(), 2, "named + wildcard rules both apply");
        // Every named file is recorded with the line of its entry: list
        // items at their own line, [[ordering]] rows at their header.
        assert_eq!(
            p.file_refs,
            vec![
                (5, "crates/shmem/src/sync.rs".to_string()),
                (6, "crates/testkit/src/lib.rs".to_string()),
                (12, "crates/shmem/src/ring.rs".to_string()),
                (18, "crates/shmem/src/ring.rs".to_string()),
            ]
        );
    }

    #[test]
    fn pairing_waivers_parse_and_require_why() {
        let src = "[[pairing]]\nsymbol = \"cursor\"\nwhy = \"consumed via fence\"\n";
        let p = Policy::parse(src).unwrap();
        assert_eq!(p.pairing.len(), 1);
        assert_eq!(p.pairing[0].file, "*");
        assert!(Policy::parse("[[pairing]]\nsymbol = \"x\"\nwhy = \" \"\n").is_err());
    }

    #[test]
    fn rejects_unknown_variant() {
        let src = "[[ordering]]\nfile = \"a.rs\"\nsymbol = \"*\"\nallow = [\"Sequential\"]\nwhy = \"x\"\n";
        assert!(Policy::parse(src).is_err());
    }

    #[test]
    fn rejects_unknown_section() {
        assert!(Policy::parse("[mystery]\nfiles = []\n").is_err());
    }

    #[test]
    fn rejects_empty_why() {
        let src = "[[ordering]]\nfile = \"a.rs\"\nsymbol = \"*\"\nallow = [\"Relaxed\"]\nwhy = \" \"\n";
        assert!(Policy::parse(src).is_err());
    }
}
