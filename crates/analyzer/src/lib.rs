//! # fabsp-analyzer — the workspace's concurrency lint pass
//!
//! The conveyor hot path is lock-free: dozens of atomic-ordering sites
//! and a handful of `unsafe` blocks carry the correctness of the whole
//! FA-BSP substrate. This crate is the static half of the guard rail
//! (the dynamic half is `fabsp-shmem`'s `race-detect` feature):
//!
//! - every `unsafe` must carry a `// SAFETY:` comment;
//! - lock types are forbidden outside an explicit allowlist — the hot path
//!   is lock-free by contract;
//! - every `Ordering::*` site must appear in the checked-in policy table
//!   (`crates/analyzer/policy.toml`) with a one-line justification, so a
//!   new `Relaxed` in `ring.rs` fails CI until it is argued for;
//! - an `Acquire` consume needs a `Release` publish of the same symbol
//!   somewhere in the tree ([`pairing`]);
//! - a mailbox handler must not call a blocking method (a collective in a
//!   handler deadlocks the world);
//! - hygiene: no `static mut`, no raw-pointer casts outside shmem/hwpc,
//!   and crate roots must pin `#![forbid(unsafe_code)]` /
//!   `#![deny(unsafe_op_in_unsafe_fn)]`.
//!
//! Each rule stays because a mutant of the real tree exists that it alone
//! catches (DESIGN §8.1). The phase protocol (push after done, re-arm
//! before termination, checkpoint at a non-quiescent cut, nbi reads
//! before quiet) is the runtime's job: its typed errors and panics, and
//! the race detector, catch every mutant of it.
//!
//! Dependency-free by necessity (the build environment has no registry
//! access): a hand-rolled lexer ([`lexer`]) separates code from comments
//! and literals, and a minimal TOML-subset reader ([`policy`]) loads the
//! policy. Run it as:
//!
//! ```text
//! cargo run -p fabsp-analyzer -- lint
//! ```

#![forbid(unsafe_code)]

pub mod lexer;
pub mod lints;
pub mod pairing;
pub mod policy;

pub use lints::{lint_source, Finding};
pub use policy::{Policy, PolicyError};

use std::path::{Path, PathBuf};

/// Directories (relative to the workspace root) the lint scans. `vendor/`
/// is deliberately absent: the shims are API stand-ins, not our code.
pub const SCAN_ROOTS: [&str; 4] = ["crates", "suite", "tests", "examples"];

/// Locate the workspace root: walk up from `start` to the first directory
/// whose `Cargo.toml` declares `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(d);
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}

/// All `.rs` files under the scan roots, as workspace-relative
/// `/`-separated paths, sorted. `target/` subtrees are skipped.
pub fn source_files(root: &Path) -> std::io::Result<Vec<String>> {
    let mut out = Vec::new();
    for scan in SCAN_ROOTS {
        let dir = root.join(scan);
        if dir.is_dir() {
            walk(root, &dir, &mut out)?;
        }
    }
    out.sort();
    Ok(out)
}

fn walk(root: &Path, dir: &Path, out: &mut Vec<String>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if path.is_dir() {
            // `fixtures/` holds the analyzer's own seeded-violation corpus
            // — deliberately dirty, never part of the workspace scan.
            if name == "target" || name == "vendor" || name == "fixtures" {
                continue;
            }
            walk(root, &path, out)?;
        } else if name.ends_with(".rs") {
            let rel = path
                .strip_prefix(root)
                .expect("walked path is under root")
                .components()
                .map(|c| c.as_os_str().to_string_lossy())
                .collect::<Vec<_>>()
                .join("/");
            out.push(rel);
        }
    }
    Ok(())
}

/// Where the workspace's policy is checked in, relative to the root.
pub const POLICY_PATH: &str = "crates/analyzer/policy.toml";

/// Load the policy from its checked-in location.
pub fn load_policy(root: &Path) -> Result<Policy, String> {
    let path = root.join(POLICY_PATH);
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let mut policy = Policy::parse(&text).map_err(|e| e.to_string())?;
    policy.path = POLICY_PATH.to_string();
    Ok(policy)
}

/// Lint the whole tree under `root` with `policy`; findings are sorted by
/// file, then line. Runs the per-file token lints and the cross-file
/// Release/Acquire pairing audit.
pub fn lint_tree(root: &Path, policy: &Policy) -> std::io::Result<Vec<Finding>> {
    let files = source_files(root)?;
    lint_files(root, &files, policy)
}

/// Lint an explicit file list (workspace-relative paths under `root`).
/// [`lint_tree`] scans the standard roots; the fixture harness passes its
/// own list. Whatever the list, the policy's own entries are checked
/// against `root` first (`stale-policy-entry`).
pub fn lint_files(root: &Path, files: &[String], policy: &Policy) -> std::io::Result<Vec<Finding>> {
    let mut findings = lints::lint_policy_files(root, policy);
    let mut atomic_sites = Vec::new();
    let mut waivers_by_file: std::collections::BTreeMap<String, Vec<lints::Waiver>> =
        std::collections::BTreeMap::new();
    for rel in files {
        let src = std::fs::read_to_string(root.join(rel))?;
        findings.extend(lint_source(rel, &src, policy));
        let scanned = lexer::scan(&src);
        atomic_sites.extend(pairing::collect(rel, &scanned.code));
        waivers_by_file.insert(rel.clone(), lints::waivers(&scanned));
    }
    // The pairing audit needs the whole tree's sites; waivers still apply
    // per site (bad-waiver findings already came from lint_source).
    let waived = |f: &Finding| {
        waivers_by_file
            .get(&f.file)
            .is_some_and(|ws| ws.iter().any(|w| w.covers(f)))
    };
    findings.extend(
        pairing::audit(&atomic_sites, policy)
            .into_iter()
            .filter(|f| !waived(f)),
    );
    findings.sort_by(|a, b| a.file.cmp(&b.file).then(a.line.cmp(&b.line)));
    Ok(findings)
}

/// One discovered `Ordering::*` site (the `orderings` subcommand's output,
/// used to author policy entries).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OrderingSite {
    pub file: String,
    pub line: usize,
    pub symbol: String,
    pub variant: String,
}

/// Enumerate every `Ordering::*` site in the tree.
pub fn ordering_inventory(root: &Path) -> std::io::Result<Vec<OrderingSite>> {
    let mut out = Vec::new();
    for rel in source_files(root)? {
        let src = std::fs::read_to_string(root.join(&rel))?;
        let scanned = lexer::scan(&src);
        let fns = lexer::enclosing_fns(&scanned.code);
        for (line, variant) in lexer::ordering_sites(&scanned.code) {
            if !["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"]
                .contains(&variant.as_str())
            {
                continue;
            }
            out.push(OrderingSite {
                file: rel.clone(),
                line,
                symbol: fns
                    .get(line)
                    .and_then(|s| s.clone())
                    .unwrap_or_else(|| "*".to_string()),
                variant,
            });
        }
    }
    Ok(out)
}
