//! SARIF 2.1.0 emitter for CI annotation.
//!
//! Hand-rolled JSON (the registry is offline) producing the minimal valid
//! static-analysis log: `$schema`/`version`, one `run` with a
//! `tool.driver` that declares every rule (id + short description), and
//! one `result` per finding with `ruleId`, `level`, `message.text` (the
//! message plus the fix-it hint), and a `physicalLocation` with
//! `artifactLocation.uri` + `region.startLine`. GitHub's SARIF ingestion
//! and the 2.1.0 schema both accept this shape; the self-test in
//! `tests/sarif_output.rs` structurally validates the required properties.

use crate::lints::Finding;

/// Escape a string for a JSON string literal.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Rule metadata: every lint the analyzer can emit, with a one-line help
/// text (shown by SARIF viewers next to the finding).
pub const RULES: [(&str, &str); 17] = [
    ("undocumented-unsafe", "unsafe blocks must carry a SAFETY comment"),
    ("lock-outside-allowlist", "lock types are forbidden outside the policy allowlist"),
    ("unlisted-ordering", "atomic orderings must be registered in policy.toml"),
    ("ordering-use-import", "Ordering variants must be spelled at the call site"),
    ("static-mut", "static mut is forbidden"),
    ("ptr-cast", "raw-pointer casts are restricted to allowlisted crates"),
    ("missing-forbid", "crate roots must pin their unsafe posture"),
    ("push-without-rearm", "conveyor push after termination without a collective reset"),
    ("pull-outside-drain", "conveyor pull outside the advance/drain loop"),
    ("rearm-before-terminate", "conveyor reset before the exchange terminated"),
    ("checkpoint-not-quiesced", "checkpoint cut while a put_nbi may be in flight"),
    ("nbi-read-before-quiet", "symmetric-array read racing a pending put_nbi"),
    ("blocking-in-handler", "mailbox handlers must not reach blocking calls"),
    ("orphaned-release", "Release publish with no Acquire consume on the symbol"),
    ("orphaned-acquire", "Acquire consume with no Release publish on the symbol"),
    ("bad-waiver", "inline waivers must carry a justification"),
    ("stale-policy-entry", "policy entries must name files that exist"),
];

/// Render findings as a SARIF 2.1.0 log.
pub fn emit(findings: &[Finding]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(
        "  \"$schema\": \"https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/Schemata/sarif-schema-2.1.0.json\",\n",
    );
    out.push_str("  \"version\": \"2.1.0\",\n");
    out.push_str("  \"runs\": [\n    {\n");
    out.push_str("      \"tool\": {\n        \"driver\": {\n");
    out.push_str("          \"name\": \"fabsp-analyzer\",\n");
    out.push_str("          \"informationUri\": \"https://github.com/\",\n");
    out.push_str("          \"rules\": [\n");
    for (i, (id, desc)) in RULES.iter().enumerate() {
        out.push_str(&format!(
            "            {{\"id\": \"{}\", \"shortDescription\": {{\"text\": \"{}\"}}}}{}\n",
            json_escape(id),
            json_escape(desc),
            if i + 1 < RULES.len() { "," } else { "" }
        ));
    }
    out.push_str("          ]\n        }\n      },\n");
    out.push_str("      \"results\": [\n");
    for (i, f) in findings.iter().enumerate() {
        let text = if f.hint.is_empty() {
            f.message.clone()
        } else {
            format!("{} Fix: {}", f.message, f.hint)
        };
        out.push_str(&format!(
            "        {{\"ruleId\": \"{}\", \"level\": \"error\", \"message\": {{\"text\": \"{}\"}}, \"locations\": [{{\"physicalLocation\": {{\"artifactLocation\": {{\"uri\": \"{}\"}}, \"region\": {{\"startLine\": {}}}}}}}]}}{}\n",
            json_escape(f.lint),
            json_escape(&text),
            json_escape(&f.file),
            f.line.max(1),
            if i + 1 < findings.len() { "," } else { "" }
        ));
    }
    out.push_str("      ]\n    }\n  ]\n}\n");
    out
}

/// A minimal JSON value, for the structural self-validation tests.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }
    pub fn idx(&self, i: usize) -> Option<&Json> {
        match self {
            Json::Arr(items) => items.get(i),
            _ => None,
        }
    }
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }
}

/// Parse a JSON document (strict enough for round-trip validation).
pub fn json_parse(src: &str) -> Result<Json, String> {
    let chars: Vec<char> = src.chars().collect();
    let mut i = 0usize;
    let v = parse_value(&chars, &mut i)?;
    skip_ws(&chars, &mut i);
    if i != chars.len() {
        return Err(format!("trailing data at offset {i}"));
    }
    Ok(v)
}

fn skip_ws(chars: &[char], i: &mut usize) {
    while *i < chars.len() && chars[*i].is_whitespace() {
        *i += 1;
    }
}

fn parse_value(chars: &[char], i: &mut usize) -> Result<Json, String> {
    skip_ws(chars, i);
    match chars.get(*i) {
        None => Err("unexpected end of input".into()),
        Some('{') => {
            *i += 1;
            let mut fields = Vec::new();
            skip_ws(chars, i);
            if chars.get(*i) == Some(&'}') {
                *i += 1;
                return Ok(Json::Obj(fields));
            }
            loop {
                skip_ws(chars, i);
                let Json::Str(key) = parse_value(chars, i)? else {
                    return Err("object key must be a string".into());
                };
                skip_ws(chars, i);
                if chars.get(*i) != Some(&':') {
                    return Err(format!("expected `:` at offset {i}", i = *i));
                }
                *i += 1;
                let val = parse_value(chars, i)?;
                fields.push((key, val));
                skip_ws(chars, i);
                match chars.get(*i) {
                    Some(',') => *i += 1,
                    Some('}') => {
                        *i += 1;
                        return Ok(Json::Obj(fields));
                    }
                    _ => return Err(format!("expected `,` or `}}` at offset {i}", i = *i)),
                }
            }
        }
        Some('[') => {
            *i += 1;
            let mut items = Vec::new();
            skip_ws(chars, i);
            if chars.get(*i) == Some(&']') {
                *i += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(chars, i)?);
                skip_ws(chars, i);
                match chars.get(*i) {
                    Some(',') => *i += 1,
                    Some(']') => {
                        *i += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected `,` or `]` at offset {i}", i = *i)),
                }
            }
        }
        Some('"') => {
            *i += 1;
            let mut s = String::new();
            while let Some(&c) = chars.get(*i) {
                *i += 1;
                match c {
                    '"' => return Ok(Json::Str(s)),
                    '\\' => {
                        let Some(&e) = chars.get(*i) else {
                            return Err("unterminated escape".into());
                        };
                        *i += 1;
                        match e {
                            '"' => s.push('"'),
                            '\\' => s.push('\\'),
                            '/' => s.push('/'),
                            'n' => s.push('\n'),
                            'r' => s.push('\r'),
                            't' => s.push('\t'),
                            'b' => s.push('\u{8}'),
                            'f' => s.push('\u{c}'),
                            'u' => {
                                let hex: String = chars[*i..(*i + 4).min(chars.len())]
                                    .iter()
                                    .collect();
                                if hex.len() != 4 {
                                    return Err("short \\u escape".into());
                                }
                                *i += 4;
                                let code = u32::from_str_radix(&hex, 16)
                                    .map_err(|e| format!("bad \\u escape: {e}"))?;
                                s.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            }
                            other => return Err(format!("bad escape `\\{other}`")),
                        }
                    }
                    c => s.push(c),
                }
            }
            Err("unterminated string".into())
        }
        Some(c) if *c == '-' || c.is_ascii_digit() => {
            let start = *i;
            *i += 1;
            while chars
                .get(*i)
                .is_some_and(|c| c.is_ascii_digit() || matches!(c, '.' | 'e' | 'E' | '+' | '-'))
            {
                *i += 1;
            }
            let text: String = chars[start..*i].iter().collect();
            text.parse::<f64>()
                .map(Json::Num)
                .map_err(|e| format!("bad number `{text}`: {e}"))
        }
        Some('t') if chars[*i..].starts_with(&['t', 'r', 'u', 'e']) => {
            *i += 4;
            Ok(Json::Bool(true))
        }
        Some('f') if chars[*i..].starts_with(&['f', 'a', 'l', 's', 'e']) => {
            *i += 5;
            Ok(Json::Bool(false))
        }
        Some('n') if chars[*i..].starts_with(&['n', 'u', 'l', 'l']) => {
            *i += 4;
            Ok(Json::Null)
        }
        Some(c) => Err(format!("unexpected `{c}` at offset {i}", i = *i)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<Finding> {
        vec![
            Finding {
                file: "crates/x/src/a.rs".into(),
                line: 7,
                lint: "push-without-rearm",
                message: "push after \"termination\"".into(),
                hint: "call reset".into(),
            },
            Finding {
                file: "tests/b.rs".into(),
                line: 1,
                lint: "orphaned-release",
                message: "no acquire\nanywhere".into(),
                hint: String::new(),
            },
        ]
    }

    #[test]
    fn emits_parseable_json_with_schema_and_version() {
        let log = emit(&sample());
        let doc = json_parse(&log).expect("valid JSON");
        assert_eq!(
            doc.get("$schema").and_then(Json::as_str).map(|s| s.contains("sarif-schema-2.1.0")),
            Some(true)
        );
        assert_eq!(doc.get("version").and_then(Json::as_str), Some("2.1.0"));
    }

    #[test]
    fn results_carry_rule_location_and_hint() {
        let log = emit(&sample());
        let doc = json_parse(&log).unwrap();
        let run = doc.get("runs").and_then(|r| r.idx(0)).unwrap();
        let results = run.get("results").and_then(Json::as_arr).unwrap();
        assert_eq!(results.len(), 2);
        let r0 = &results[0];
        assert_eq!(r0.get("ruleId").and_then(Json::as_str), Some("push-without-rearm"));
        let msg = r0.get("message").and_then(|m| m.get("text")).and_then(Json::as_str).unwrap();
        assert!(msg.contains("push after \"termination\""));
        assert!(msg.contains("Fix: call reset"));
        let loc = r0
            .get("locations")
            .and_then(|l| l.idx(0))
            .and_then(|l| l.get("physicalLocation"))
            .unwrap();
        assert_eq!(
            loc.get("artifactLocation").and_then(|a| a.get("uri")).and_then(Json::as_str),
            Some("crates/x/src/a.rs")
        );
        assert_eq!(
            loc.get("region").and_then(|r| r.get("startLine")).and_then(Json::as_num),
            Some(7.0)
        );
    }

    #[test]
    fn every_emitted_result_rule_is_declared_by_the_driver() {
        let log = emit(&sample());
        let doc = json_parse(&log).unwrap();
        let run = doc.get("runs").and_then(|r| r.idx(0)).unwrap();
        let rules = run
            .get("tool")
            .and_then(|t| t.get("driver"))
            .and_then(|d| d.get("rules"))
            .and_then(Json::as_arr)
            .unwrap();
        let declared: Vec<&str> = rules
            .iter()
            .filter_map(|r| r.get("id").and_then(Json::as_str))
            .collect();
        for r in run.get("results").and_then(Json::as_arr).unwrap() {
            let id = r.get("ruleId").and_then(Json::as_str).unwrap();
            assert!(declared.contains(&id), "undeclared rule {id}");
        }
        // The driver has a name, as the schema requires.
        let name = run
            .get("tool")
            .and_then(|t| t.get("driver"))
            .and_then(|d| d.get("name"))
            .and_then(Json::as_str);
        assert_eq!(name, Some("fabsp-analyzer"));
    }

    #[test]
    fn empty_findings_still_valid() {
        let doc = json_parse(&emit(&[])).unwrap();
        let results = doc
            .get("runs")
            .and_then(|r| r.idx(0))
            .and_then(|r| r.get("results"))
            .and_then(Json::as_arr)
            .unwrap();
        assert!(results.is_empty());
    }
}
