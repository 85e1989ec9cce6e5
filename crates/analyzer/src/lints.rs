//! The lint passes. Each pass runs over one scanned file plus the parsed
//! [`Policy`] and yields [`Finding`]s; [`lint_source`] runs them all.
//!
//! | lint | rule |
//! |------|------|
//! | `undocumented-unsafe`  | every `unsafe` must carry a `// SAFETY:` comment on the same line or in the contiguous comment block directly above |
//! | `lock-outside-allowlist` | lock types (`Mutex`, `RwLock`, `Condvar`, guards, `parking_lot`, `std::sync::mpsc`/`Barrier`) only in `[lock-allowlist]` files |
//! | `unlisted-ordering`    | every `Ordering::*` site must match an `[[ordering]]` rule (file + enclosing fn, or file-wildcard `*`) allowing that variant |
//! | `ordering-use-import`  | no `use …Ordering::…` imports — orderings must be spelled `Ordering::X` at the use site so the policy table stays greppable |
//! | `static-mut`           | no `static mut` anywhere |
//! | `ptr-cast`             | `as *mut` / `as *const` only under `[ptr-cast-allowlist]` path prefixes |
//! | `missing-forbid`       | crate roots must pin their unsafe posture: `#![forbid(unsafe_code)]`, or for the unsafe-bearing crates (shmem, hwpc) `#![deny(unsafe_op_in_unsafe_fn)]` |
//! | `blocking-in-handler`  | no blocking method call (`.barrier_all()`, `.lock()`, `.recv()`, …) inside the arguments of a `selector(..)` / `Selector::new(..)` call, i.e. in a mailbox handler — directly, or through a same-file fn it calls by name |
//! | `orphaned-acquire`     | an `Acquire` consume of a symbol no site in the tree publishes with `Release` (the cross-file [`pairing`](crate::pairing) audit) |
//! | `bad-waiver`           | an inline waiver must name a rule of this table and carry a justification |
//! | `stale-policy-entry`   | every file a policy entry names (`[lock-allowlist]`, `[[ordering]]`, file-restricted `[[pairing]]`) must exist, and every `[[ordering]]` symbol other than `*` must name a `fn` in its file — a deleted file or fn takes its waivers with it |

use std::path::Path;

use crate::lexer::{self, ScannedFile};
use crate::policy::Policy;

/// One lint violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-relative path, `/`-separated.
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// Lint identifier (kebab-case).
    pub lint: &'static str,
    pub message: String,
    /// Fix-it hint: the concrete change that clears the finding.
    pub hint: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.lint, self.message
        )?;
        if !self.hint.is_empty() {
            write!(f, "\n    = hint: {}", self.hint)?;
        }
        Ok(())
    }
}

/// Every rule the analyzer can emit, in the order of the table above. A
/// waiver must name one of these, and the fixture corpus seeds each.
pub const RULES: [&str; 11] = [
    "undocumented-unsafe",
    "lock-outside-allowlist",
    "unlisted-ordering",
    "ordering-use-import",
    "static-mut",
    "ptr-cast",
    "missing-forbid",
    "blocking-in-handler",
    "orphaned-acquire",
    "bad-waiver",
    "stale-policy-entry",
];

/// Inline waiver comments: `// analyzer: allow(rule-id): why`, on the
/// offending line or directly above it. A waiver without a why, or for a
/// rule not in [`RULES`], is itself a finding: the justification cannot
/// silently rot away, and a typo or a deleted rule cannot hide as a
/// waiver that suppresses nothing.
#[derive(Debug, Clone)]
pub struct Waiver {
    pub lint: String,
    /// Lines the waiver covers: its comment's span plus the line below.
    pub start_line: usize,
    pub end_line: usize,
    pub has_why: bool,
}

impl Waiver {
    /// Whether this waiver silences `f`: well-formed, same rule, in span.
    pub fn covers(&self, f: &Finding) -> bool {
        self.has_why && self.lint == f.lint && self.start_line <= f.line && f.line <= self.end_line
    }
}

/// Extract waivers from a file's comments. Doc comments describe the
/// syntax; only plain comments waive. Rust's rule decides which is which:
/// `////…` and `/***…`/`/**/` are plain comments, not docs.
pub fn waivers(scanned: &ScannedFile) -> Vec<Waiver> {
    let mut out = Vec::new();
    let is_doc = |t: &str| {
        (t.starts_with("///") && !t.starts_with("////"))
            || t.starts_with("//!")
            || (t.starts_with("/**") && !t.starts_with("/***") && !t.starts_with("/**/"))
            || t.starts_with("/*!")
    };
    for c in scanned.comments.iter().filter(|c| !is_doc(&c.text)) {
        let mut rest = c.text.as_str();
        while let Some(pos) = rest.find("analyzer: allow(") {
            rest = &rest[pos + "analyzer: allow(".len()..];
            let Some(close) = rest.find(')') else { break };
            let lint = rest[..close].trim().to_string();
            let after = &rest[close + 1..];
            let has_why = after
                .trim_start()
                .strip_prefix(':')
                .map(|why| {
                    !why.trim_start()
                        .lines()
                        .next()
                        .unwrap_or("")
                        .trim()
                        .is_empty()
                })
                .unwrap_or(false);
            out.push(Waiver {
                lint,
                start_line: c.start_line,
                end_line: c.end_line + 1,
                has_why,
            });
            rest = after;
        }
    }
    out
}

/// Drop findings covered by a well-formed waiver; flag malformed waivers.
pub fn apply_waivers(
    rel_path: &str,
    findings: Vec<Finding>,
    waivers: &[Waiver],
) -> Vec<Finding> {
    let mut out: Vec<Finding> = findings
        .into_iter()
        .filter(|f| !waivers.iter().any(|w| w.covers(f)))
        .collect();
    for w in waivers {
        if !RULES.contains(&w.lint.as_str()) {
            out.push(finding(
                rel_path,
                w.start_line,
                "bad-waiver",
                format!("waiver names `{}`, which is not an analyzer rule", w.lint),
                "fix the rule id, or delete the waiver if its rule is gone",
            ));
        } else if !w.has_why {
            out.push(finding(
                rel_path,
                w.start_line,
                "bad-waiver",
                format!("waiver for `{}` has no justification", w.lint),
                "write `// analyzer: allow(rule-id): <why this violation is \
                 deliberate>`",
            ));
        }
    }
    out
}

/// Lock-ish identifiers that must not appear outside the allowlist. Full
/// idents, so `MutexGuard` does not hide behind `Mutex` and `OnceLock`
/// (non-blocking after init) stays legal.
const LOCK_IDENTS: [&str; 7] = [
    "Mutex",
    "RwLock",
    "Condvar",
    "MutexGuard",
    "RwLockReadGuard",
    "RwLockWriteGuard",
    "parking_lot",
];

/// Methods that block the calling PE until another PE or thread acts. In
/// a mailbox handler — run from the progress loop, while other PEs may be
/// inside theirs — a collective like `barrier_all` deadlocks the world.
const BLOCKING: [&str; 9] = [
    "barrier_all",
    "lock",
    "wait",
    "wait_timeout",
    "wait_with_idle",
    "recv",
    "recv_timeout",
    "join",
    "park",
];

/// Crates that legitimately contain `unsafe` and therefore pin
/// `#![deny(unsafe_op_in_unsafe_fn)]` instead of `#![forbid(unsafe_code)]`.
const UNSAFE_CRATES: [&str; 2] = ["shmem", "hwpc"];

/// Run every pass over one file. `rel_path` is workspace-relative with
/// `/` separators (it is matched against the policy verbatim).
pub fn lint_source(rel_path: &str, src: &str, policy: &Policy) -> Vec<Finding> {
    let scanned = lexer::scan(src);
    let mut findings = Vec::new();
    lint_unsafe_comments(rel_path, &scanned, &mut findings);
    lint_locks(rel_path, &scanned, policy, &mut findings);
    lint_orderings(rel_path, &scanned, policy, &mut findings);
    lint_static_mut_and_casts(rel_path, &scanned, policy, &mut findings);
    lint_crate_root_attrs(rel_path, &scanned, &mut findings);
    lint_handlers(rel_path, &scanned, &mut findings);
    let mut findings = apply_waivers(rel_path, findings, &waivers(&scanned));
    findings.sort_by_key(|f| f.line);
    findings
}

fn finding(
    rel_path: &str,
    line: usize,
    lint: &'static str,
    message: impl Into<String>,
    hint: impl Into<String>,
) -> Finding {
    Finding {
        file: rel_path.to_string(),
        line,
        lint,
        message: message.into(),
        hint: hint.into(),
    }
}

/// Policy entries naming a file that does not exist under `root`, and
/// `[[ordering]]` entries whose symbol (other than `*`) names no `fn` in
/// their file. `[[pairing]]` symbols name atomic fields, not functions,
/// so only their files are checked. Each finding points at the entry in
/// the policy file, not at any source file.
pub fn lint_policy_files(root: &Path, policy: &Policy) -> Vec<Finding> {
    let mut findings: Vec<Finding> = policy
        .file_refs
        .iter()
        .filter(|(_, file)| !root.join(file).is_file())
        .map(|(line, file)| {
            finding(
                &policy.path,
                *line,
                "stale-policy-entry",
                format!("policy entry names `{file}`, which does not exist"),
                "delete this entry (or fix the path if the file was renamed)",
            )
        })
        .collect();
    for rule in policy.ordering.iter().filter(|r| r.symbol != "*") {
        // A missing file is already reported above.
        let Ok(src) = std::fs::read_to_string(root.join(&rule.file)) else {
            continue;
        };
        let code = lexer::scan(&src).code;
        let declared = lexer::idents(&code)
            .windows(2)
            .any(|w| w[0].2 == "fn" && w[1].2 == rule.symbol);
        if !declared {
            findings.push(finding(
                &policy.path,
                rule.line,
                "stale-policy-entry",
                format!(
                    "policy entry names `fn {}` in `{}`, which declares no such fn",
                    rule.symbol, rule.file
                ),
                "delete this entry (or fix the symbol if the fn was renamed)",
            ));
        }
    }
    findings
}

/// `unsafe` must carry a SAFETY comment on its line or in the contiguous
/// comment/blank block directly above.
fn lint_unsafe_comments(rel_path: &str, scanned: &ScannedFile, findings: &mut Vec<Finding>) {
    let code_lines: Vec<&str> = scanned.code.lines().collect();
    let mut unsafe_lines: Vec<usize> = lexer::idents(&scanned.code)
        .into_iter()
        .filter(|(_, _, w)| *w == "unsafe")
        .map(|(line, _, _)| line)
        .collect();
    unsafe_lines.dedup();

    let comment_on = |line: usize| -> bool {
        scanned
            .comments
            .iter()
            .any(|c| c.start_line <= line && line <= c.end_line && c.text.contains("SAFETY:"))
    };
    let line_is_commentary = |line: usize| -> bool {
        code_lines
            .get(line - 1)
            .map(|l| l.trim().is_empty())
            .unwrap_or(false)
    };

    'sites: for site in unsafe_lines {
        if comment_on(site) {
            continue;
        }
        let mut line = site;
        while line > 1 && line_is_commentary(line - 1) {
            line -= 1;
            if comment_on(line) {
                continue 'sites;
            }
        }
        findings.push(finding(
            rel_path,
            site,
            "undocumented-unsafe",
            "`unsafe` without a `// SAFETY:` comment on the same line or \
             in the comment block directly above",
            "add `// SAFETY: <why the invariants hold>` directly above the \
             unsafe block",
        ));
    }
}

fn lint_locks(
    rel_path: &str,
    scanned: &ScannedFile,
    policy: &Policy,
    findings: &mut Vec<Finding>,
) {
    if policy.lock_files.iter().any(|f| f == rel_path) {
        return;
    }
    for (line, _, word) in lexer::idents(&scanned.code) {
        if LOCK_IDENTS.contains(&word) {
            findings.push(finding(
                rel_path,
                line,
                "lock-outside-allowlist",
                format!(
                    "`{word}` outside the lock allowlist — the message hot path \
                     is lock-free by contract; add the file to \
                     [lock-allowlist] in policy.toml only with justification"
                ),
                "use the lock-free primitives, or add this file to \
                 [lock-allowlist] in crates/analyzer/policy.toml with a \
                 justification",
            ));
        }
    }
    for (lineno, text) in scanned.code.lines().enumerate() {
        for needle in ["std::sync::mpsc", "std::sync::Barrier"] {
            if text.contains(needle) {
                findings.push(finding(
                    rel_path,
                    lineno + 1,
                    "lock-outside-allowlist",
                    format!("`{needle}` outside the lock allowlist"),
                    "use the conveyor/mailbox primitives instead of \
                     channel/barrier sync, or allowlist the file with a \
                     justification",
                ));
            }
        }
    }
}

fn lint_orderings(
    rel_path: &str,
    scanned: &ScannedFile,
    policy: &Policy,
    findings: &mut Vec<Finding>,
) {
    // Only the atomic variants: `Ordering::Less`/`Equal`/`Greater` are
    // `std::cmp::Ordering` and none of this lint's business.
    const ATOMIC_VARIANTS: [&str; 5] = ["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];
    let sites = lexer::ordering_sites(&scanned.code);
    let fns = lexer::enclosing_fns(&scanned.code);
    for (line, variant) in sites {
        if !ATOMIC_VARIANTS.contains(&variant.as_str()) {
            continue;
        }
        let symbol = fns.get(line).and_then(|s| s.as_deref());
        let rules = policy.allowed_orderings(rel_path, symbol);
        let allowed = rules
            .iter()
            .any(|r| r.allow.iter().any(|v| v == &variant));
        if !allowed {
            let symbol = symbol.unwrap_or("<module>");
            findings.push(finding(
                rel_path,
                line,
                "unlisted-ordering",
                format!(
                    "`Ordering::{variant}` in `{symbol}` has no matching \
                     [[ordering]] policy entry — add one to \
                     crates/analyzer/policy.toml with a justification"
                ),
                format!(
                    "add `[[ordering]]` with file = \"{rel_path}\", symbol = \
                     \"{symbol}\", allow = [\"{variant}\"] and a one-line why"
                ),
            ));
        }
    }
    for (lineno, text) in scanned.code.lines().enumerate() {
        let trimmed = text.trim_start();
        if (trimmed.starts_with("use ") || trimmed.starts_with("pub use "))
            && text.contains("Ordering::")
        {
            findings.push(finding(
                rel_path,
                lineno + 1,
                "ordering-use-import",
                "importing `Ordering` variants hides them from the policy \
                 table; spell `Ordering::X` at the use site",
                "drop the variant import and write `Ordering::<Variant>` at \
                 every call site",
            ));
        }
    }
}

fn lint_static_mut_and_casts(
    rel_path: &str,
    scanned: &ScannedFile,
    policy: &Policy,
    findings: &mut Vec<Finding>,
) {
    let cast_allowed = policy
        .ptr_cast_prefixes
        .iter()
        .any(|p| rel_path.starts_with(p.as_str()));
    for (lineno, text) in scanned.code.lines().enumerate() {
        let squashed = squash_spaces(text);
        if squashed.contains("static mut ") {
            findings.push(finding(
                rel_path,
                lineno + 1,
                "static-mut",
                "`static mut` is forbidden everywhere (use atomics or \
                 interior mutability)",
                "replace with an atomic, `OnceLock`, or thread-local \
                 interior mutability",
            ));
        }
        if !cast_allowed
            && (squashed.contains("as *mut") || squashed.contains("as *const"))
        {
            findings.push(finding(
                rel_path,
                lineno + 1,
                "ptr-cast",
                "raw-pointer cast outside the shmem/hwpc allowlist",
                "move the cast into an allowlisted crate, or extend \
                 [ptr-cast-allowlist] in policy.toml with a justification",
            ));
        }
    }
}

/// A `.m(` call, `m` in [`BLOCKING`], inside the parentheses of a
/// handler registration — `selector(..)` or `Selector::new(..)`, turbofish
/// or not, whose closure argument is the handler — or a plain call there
/// to a same-file fn that reaches one (see [`blocking_fns`]).
fn lint_handlers(rel_path: &str, scanned: &ScannedFile, findings: &mut Vec<Finding>) {
    let toks = lexer::tokens(&scanned.code);
    let text = |i: usize| toks.get(i).map_or("", |t| t.text);
    // The name of the path segment ending at `i`, stepping back over a
    // turbofish: `selector::<u64>` → `selector`.
    let segment = |i: usize| -> Option<usize> {
        if text(i) != ">" {
            return Some(i);
        }
        let mut depth = 0usize;
        for j in (0..=i).rev() {
            match text(j) {
                ">" => depth += 1,
                "<" => depth -= 1,
                _ => {}
            }
            if depth == 0 {
                return (j >= 3 && text(j - 1) == ":" && text(j - 2) == ":").then(|| j - 3);
            }
        }
        None
    };
    let registers = |i: usize| match segment(i).map(text) {
        Some("selector") => true,
        Some("new") => {
            let n = segment(i).unwrap_or(0);
            n >= 3
                && text(n - 1) == ":"
                && text(n - 2) == ":"
                && segment(n - 3).map(text) == Some("Selector")
        }
        _ => false,
    };
    let reach = blocking_fns(&toks);
    // Paren depth at which the innermost open registration began.
    let mut handler_depth: Option<usize> = None;
    let mut depth = 0usize;
    for (i, tok) in toks.iter().enumerate() {
        match tok.text {
            "(" => {
                depth += 1;
                if handler_depth.is_none() && i > 0 && registers(i - 1) {
                    handler_depth = Some(depth);
                }
            }
            ")" => {
                if handler_depth == Some(depth) {
                    handler_depth = None;
                }
                depth = depth.saturating_sub(1);
            }
            name if handler_depth.is_some()
                && BLOCKING.contains(&name)
                && i > 0
                && text(i - 1) == "."
                && text(i + 1) == "(" =>
            {
                findings.push(finding(
                    rel_path,
                    tok.line,
                    "blocking-in-handler",
                    format!(
                        "`.{name}()` inside a mailbox handler — handlers run \
                         on the scheduler's poll loop and must never block"
                    ),
                    "buffer the work and do it in superstep code \
                     (`execute`'s closure), or use the non-blocking primitives",
                ));
            }
            name if handler_depth.is_some() && plain_call(&toks, i) => {
                if let Some((line, method)) = reach.iter().find(|(f, _)| f == name).map(|r| &r.1) {
                    findings.push(finding(
                        rel_path,
                        tok.line,
                        "blocking-in-handler",
                        format!(
                            "handler calls `{name}`, which reaches blocking \
                             `.{method}()` (line {line})"
                        ),
                        "mailbox handlers must stay non-blocking all the way \
                         down; move the blocking call out of the handler's \
                         call graph",
                    ));
                }
            }
            _ => {}
        }
    }
}

/// `name(` not after `.`, `::` or `fn`: a call to a free fn by its bare
/// name.
fn plain_call(toks: &[lexer::Tok<'_>], i: usize) -> bool {
    let before = if i > 0 { toks[i - 1].text } else { "" };
    toks[i].is_ident
        && toks.get(i + 1).is_some_and(|t| t.text == "(")
        && !matches!(before, "." | ":" | "fn")
}

/// The same-file fns that reach a blocking call: each `fn name(..) {..}`
/// body (found by brace matching) holding a `.m(` call with `m` in
/// [`BLOCKING`], closed to a fixpoint over plain calls between those
/// bodies. Each entry is (fn, (line, method)) of one blocking call the fn
/// reaches.
fn blocking_fns(toks: &[lexer::Tok<'_>]) -> Vec<(String, (usize, String))> {
    // (name, body token range) per fn with a body.
    let mut bodies = Vec::new();
    for i in 0..toks.len().saturating_sub(1) {
        if toks[i].text != "fn" || !toks[i + 1].is_ident {
            continue;
        }
        let mut j = i + 2;
        let mut nest = 0usize;
        while j < toks.len() && !(nest == 0 && matches!(toks[j].text, "{" | ";")) {
            match toks[j].text {
                "(" | "[" => nest += 1,
                ")" | "]" => nest = nest.saturating_sub(1),
                _ => {}
            }
            j += 1;
        }
        if toks.get(j).is_none_or(|t| t.text != "{") {
            continue;
        }
        let (open, mut braces) = (j, 0usize);
        while j < toks.len() {
            match toks[j].text {
                "{" => braces += 1,
                "}" => braces -= 1,
                _ => {}
            }
            if braces == 0 {
                break;
            }
            j += 1;
        }
        bodies.push((toks[i + 1].text, open..j));
    }
    let mut reach: Vec<(String, (usize, String))> = Vec::new();
    for (name, body) in &bodies {
        let hit = body.clone().find(|&k| {
            BLOCKING.contains(&toks[k].text)
                && toks[k - 1].text == "."
                && toks.get(k + 1).is_some_and(|t| t.text == "(")
        });
        if let Some(k) = hit {
            reach.push((name.to_string(), (toks[k].line, toks[k].text.to_string())));
        }
    }
    // Fixpoint: a fn that calls a blocking fn is blocking.
    let mut changed = true;
    while changed {
        changed = false;
        for (name, body) in &bodies {
            if reach.iter().any(|(f, _)| f == name) {
                continue;
            }
            let via = body.clone().filter(|&k| plain_call(toks, k)).find_map(|k| {
                let callee = toks[k].text;
                reach
                    .iter()
                    .find(|(f, _)| f == callee)
                    .map(|(_, hit)| hit.clone())
            });
            if let Some(hit) = via {
                reach.push((name.to_string(), hit));
                changed = true;
            }
        }
    }
    reach
}

fn squash_spaces(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    let mut prev_space = false;
    for c in text.chars() {
        let is_space = c.is_whitespace();
        if is_space {
            if !prev_space {
                out.push(' ');
            }
        } else {
            out.push(c);
        }
        prev_space = is_space;
    }
    out
}

/// Crate roots (`crates/<name>/src/lib.rs`) must pin their unsafe posture.
fn lint_crate_root_attrs(rel_path: &str, scanned: &ScannedFile, findings: &mut Vec<Finding>) {
    let Some(rest) = rel_path.strip_prefix("crates/") else {
        return;
    };
    let Some(crate_name) = rest.strip_suffix("/src/lib.rs") else {
        return;
    };
    let code = &scanned.code;
    if UNSAFE_CRATES.contains(&crate_name) {
        if !code.contains("#![deny(unsafe_op_in_unsafe_fn)]") {
            findings.push(finding(
                rel_path,
                1,
                "missing-forbid",
                format!(
                    "crate `{crate_name}` contains unsafe code and must \
                     declare `#![deny(unsafe_op_in_unsafe_fn)]`"
                ),
                "add the attribute at the top of the crate root",
            ));
        }
    } else if !code.contains("#![forbid(unsafe_code)]") {
        findings.push(finding(
            rel_path,
            1,
            "missing-forbid",
            format!("crate `{crate_name}` must declare `#![forbid(unsafe_code)]`"),
            "add `#![forbid(unsafe_code)]` at the top of the crate root",
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::Policy;

    fn empty_policy() -> Policy {
        Policy::default()
    }

    fn lints_of(findings: &[Finding]) -> Vec<&'static str> {
        findings.iter().map(|f| f.lint).collect()
    }

    #[test]
    fn undocumented_unsafe_is_flagged_documented_is_not() {
        let src = "\
// SAFETY: the invariant holds by construction.
let a = unsafe { f() };
let b = unsafe { g() };
";
        let f = lint_source("x.rs", src, &empty_policy());
        assert_eq!(lints_of(&f), vec!["undocumented-unsafe"]);
        assert_eq!(f[0].line, 3);
    }

    #[test]
    fn safety_comment_spans_blank_and_attr_free_block() {
        let src = "\
// SAFETY: single producer per cell; ownership transfers
// through Release/Acquire on the state word.

unsafe impl<T: Send> Sync for Inner<T> {}
";
        assert!(lint_source("x.rs", src, &empty_policy()).is_empty());
    }

    #[test]
    fn safety_in_string_does_not_count() {
        let src = "let s = \"SAFETY: nope\";\nlet a = unsafe { f() };\n";
        let f = lint_source("x.rs", src, &empty_policy());
        assert_eq!(lints_of(&f), vec!["undocumented-unsafe"]);
    }

    #[test]
    fn locks_flagged_outside_allowlist_only() {
        let src = "use std::sync::Mutex;\n";
        let f = lint_source("crates/foo/src/a.rs", src, &empty_policy());
        assert_eq!(lints_of(&f), vec!["lock-outside-allowlist"]);

        let mut policy = empty_policy();
        policy.lock_files.push("crates/foo/src/a.rs".to_string());
        assert!(lint_source("crates/foo/src/a.rs", src, &policy).is_empty());
    }

    #[test]
    fn ordering_requires_policy_entry() {
        let src = "fn publish() {\n    s.store(1, Ordering::Release);\n}\n";
        let f = lint_source("crates/foo/src/a.rs", src, &empty_policy());
        assert_eq!(lints_of(&f), vec!["unlisted-ordering"]);
        assert!(f[0].message.contains("publish"));

        let policy = Policy::parse(
            "[[ordering]]\nfile = \"crates/foo/src/a.rs\"\nsymbol = \"publish\"\n\
             allow = [\"Release\"]\nwhy = \"publication store\"\n",
        )
        .unwrap();
        assert!(lint_source("crates/foo/src/a.rs", src, &policy).is_empty());
        // …but the same ordering in another fn is still a finding.
        let src2 = "fn other() {\n    s.store(1, Ordering::Release);\n}\n";
        assert_eq!(
            lints_of(&lint_source("crates/foo/src/a.rs", src2, &policy)),
            vec!["unlisted-ordering"]
        );
    }

    #[test]
    fn wildcard_symbol_covers_file() {
        let policy = Policy::parse(
            "[[ordering]]\nfile = \"a.rs\"\nsymbol = \"*\"\nallow = [\"SeqCst\"]\nwhy = \"tests\"\n",
        )
        .unwrap();
        let src = "fn any() { x.load(Ordering::SeqCst); }\n";
        assert!(lint_source("a.rs", src, &policy).is_empty());
        let src = "fn any() { x.load(Ordering::Relaxed); }\n";
        assert_eq!(lints_of(&lint_source("a.rs", src, &policy)), vec!["unlisted-ordering"]);
    }

    #[test]
    fn cmp_ordering_variants_are_ignored() {
        let src = "fn f() { match a.cmp(&b) { Ordering::Less => 1, _ => 2 }; }\n";
        assert!(lint_source("a.rs", src, &empty_policy()).is_empty());
    }

    #[test]
    fn ordering_import_evasion_is_flagged() {
        let src = "use std::sync::atomic::Ordering::Relaxed;\n";
        let f = lint_source("a.rs", src, &empty_policy());
        assert!(lints_of(&f).contains(&"ordering-use-import"));
    }

    #[test]
    fn static_mut_and_ptr_casts() {
        let src = "static mut X: u32 = 0;\nlet p = &x as *const u32;\n";
        let f = lint_source("crates/foo/src/a.rs", src, &empty_policy());
        assert_eq!(lints_of(&f), vec!["static-mut", "ptr-cast"]);

        let policy = Policy::parse(
            "[ptr-cast-allowlist]\nprefixes = [\"crates/shmem/\"]\n",
        )
        .unwrap();
        let f = lint_source("crates/shmem/src/a.rs", src, &policy);
        assert_eq!(lints_of(&f), vec!["static-mut"], "cast allowed, static mut never");
    }

    #[test]
    fn blocking_calls_flagged_only_inside_handler_registrations() {
        let src = "\
let a = prof.selector(1, move |_mb, m: u64, _from, _ctx| {
    pe.barrier_all();
    sink(m, |x| x.lock());
});
pe.barrier_all();
let b = Selector::new(pe, 1, cfg, |_mb, m: u64, _from, _ctx| h(m));
let c = thread.join();
let d = Selector::<u64>::new(pe, 1, cfg, |_mb, m: u64, _from, _ctx| x.recv());
let e = prof.selector::<u64>(1, |_mb, m: u64, _from, _ctx| x.recv());
let f = Other::<u64>::new(|| pe.barrier_all());
";
        let f = lint_source("a.rs", src, &empty_policy());
        assert_eq!(lints_of(&f), vec!["blocking-in-handler"; 4]);
        let lines: Vec<usize> = f.iter().map(|f| f.line).collect();
        assert_eq!(lines, vec![2, 3, 8, 9]);
    }

    #[test]
    fn blocking_reached_through_local_fn_is_flagged() {
        let src = "\
fn slow_path() {
    bus.lock();
}
fn via() {
    slow_path();
}
fn f(pe: &Pe) {
    let a = Selector::new(pe, 1, cfg, move |_mb, m: u64, _from, _ctx| {
        via();
        Self::slow_path();
    });
}
";
        let f = lint_source("a.rs", src, &empty_policy());
        assert_eq!(lints_of(&f), vec!["blocking-in-handler"]);
        assert_eq!(f[0].line, 9);
        assert!(f[0].message.contains("`via`") && f[0].message.contains("line 2"));
    }

    #[test]
    fn four_slash_and_empty_block_comments_still_waive() {
        let src = "\
fn f() {
    //// analyzer: allow(unlisted-ordering): plain comment, not a doc
    x.load(Ordering::Relaxed);
    /**/ // analyzer: allow(unlisted-ordering): after an empty block comment
    x.load(Ordering::Relaxed);
    /// analyzer: allow(unlisted-ordering): a doc comment, not a waiver
    x.load(Ordering::Relaxed);
}
";
        let f = lint_source("a.rs", src, &empty_policy());
        assert_eq!(lints_of(&f), vec!["unlisted-ordering"]);
        assert_eq!(f[0].line, 7);
    }

    #[test]
    fn crate_roots_must_pin_unsafe_posture() {
        let f = lint_source("crates/actor/src/lib.rs", "fn f() {}\n", &empty_policy());
        assert_eq!(lints_of(&f), vec!["missing-forbid"]);
        assert!(lint_source(
            "crates/actor/src/lib.rs",
            "#![forbid(unsafe_code)]\nfn f() {}\n",
            &empty_policy()
        )
        .is_empty());
        let f = lint_source("crates/shmem/src/lib.rs", "fn f() {}\n", &empty_policy());
        assert_eq!(lints_of(&f), vec!["missing-forbid"]);
        assert!(lint_source(
            "crates/shmem/src/lib.rs",
            "#![deny(unsafe_op_in_unsafe_fn)]\nfn f() {}\n",
            &empty_policy()
        )
        .is_empty());
    }
}
