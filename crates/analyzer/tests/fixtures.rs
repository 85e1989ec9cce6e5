//! The fixture gate: every lint class the analyzer can emit is seeded in
//! `crates/analyzer/fixtures/`, and the report over that corpus is golden
//! (`fixtures/expected.txt`, byte-stable). Regenerate after an intentional
//! change with:
//!
//! ```text
//! FABSP_UPDATE_GOLDEN=1 cargo test -p fabsp-analyzer --test fixtures
//! ```

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

use fabsp_analyzer::lints::RULES;
use fabsp_analyzer::policy::Policy;

fn fixtures_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures")
}

fn walk(root: &Path, dir: &Path, out: &mut Vec<String>) {
    for entry in std::fs::read_dir(dir).expect("fixtures dir reads") {
        let path = entry.expect("dir entry").path();
        if path.is_dir() {
            walk(root, &path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
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
}

fn corpus_findings() -> Vec<fabsp_analyzer::Finding> {
    let root = fixtures_root();
    let policy_text =
        std::fs::read_to_string(root.join("policy.toml")).expect("fixture policy reads");
    let mut policy = Policy::parse(&policy_text).expect("fixture policy parses");
    policy.path = "policy.toml".to_string();
    let mut files = Vec::new();
    walk(&root, &root, &mut files);
    files.sort();
    fabsp_analyzer::lint_files(&root, &files, &policy).expect("fixture scan")
}

fn render(findings: &[fabsp_analyzer::Finding]) -> String {
    let mut out = String::new();
    for f in findings {
        out.push_str(&format!("{f}\n"));
    }
    out
}

#[test]
fn fixture_corpus_matches_golden() {
    let report = render(&corpus_findings());
    let golden_path = fixtures_root().join("expected.txt");
    if std::env::var_os("FABSP_UPDATE_GOLDEN").is_some() {
        std::fs::write(&golden_path, &report).expect("golden writes");
        return;
    }
    let golden = std::fs::read_to_string(&golden_path).expect(
        "fixtures/expected.txt missing — run with FABSP_UPDATE_GOLDEN=1 to create it",
    );
    assert_eq!(
        report, golden,
        "fixture report drifted from the golden file; if the change is \
         intentional, regenerate with FABSP_UPDATE_GOLDEN=1"
    );
}

#[test]
fn every_violation_class_is_seeded() {
    // The corpus must keep exercising every rule the analyzer can emit —
    // a rule with no seeded violation is a rule that can silently die —
    // and emit nothing outside the catalog.
    let found: BTreeSet<&str> = corpus_findings().iter().map(|f| f.lint).collect();
    for rule in RULES {
        assert!(
            found.contains(rule),
            "no seeded violation exercises `{rule}`"
        );
    }
    for rule in &found {
        assert!(
            RULES.contains(rule),
            "`{rule}` is emitted but not in the catalog"
        );
    }
}

#[test]
fn every_finding_carries_a_fix_it_hint() {
    for f in corpus_findings() {
        assert!(
            !f.hint.is_empty(),
            "{}:{} [{}] has no fix-it hint",
            f.file,
            f.line,
            f.lint
        );
    }
}

#[test]
fn waived_sites_are_suppressed_and_paired_symbols_stay_silent() {
    let findings = corpus_findings();
    // In waivers/waived.rs only the justified waiver for a real rule
    // suppresses its violation; the bare one and the misspelled one are
    // findings themselves and leave their lines flagged.
    let waiver_findings: Vec<(usize, &str)> = findings
        .iter()
        .filter(|f| f.file == "waivers/waived.rs")
        .map(|f| (f.line, f.lint))
        .collect();
    assert_eq!(
        waiver_findings,
        vec![
            (11, "bad-waiver"),
            (12, "unlisted-ordering"),
            (16, "bad-waiver"),
            (17, "unlisted-ordering"),
        ],
        "justified waiver failed to suppress, or a bad one did"
    );
    // The properly paired `ready` symbol never flags.
    assert!(
        !findings
            .iter()
            .any(|f| f.file == "pairing/orphans.rs" && f.message.contains("`ready")),
        "paired symbol flagged"
    );
}
