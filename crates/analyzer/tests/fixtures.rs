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

use fabsp_analyzer::policy::Policy;
use fabsp_analyzer::sarif;

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
    // a rule with no seeded violation is a rule that can silently die.
    let found: BTreeSet<&str> = corpus_findings().iter().map(|f| f.lint).collect();
    let required = [
        "undocumented-unsafe",
        "lock-outside-allowlist",
        "unlisted-ordering",
        "ordering-use-import",
        "static-mut",
        "ptr-cast",
        "missing-forbid",
        "push-without-rearm",
        "pull-outside-drain",
        "rearm-before-terminate",
        "checkpoint-not-quiesced",
        "nbi-read-before-quiet",
        "blocking-in-handler",
        "orphaned-release",
        "orphaned-acquire",
        "bad-waiver",
        "stale-policy-entry",
    ];
    for rule in required {
        assert!(found.contains(rule), "no seeded violation exercises `{rule}`");
    }
    // ...and the SARIF driver declares each of them.
    for rule in required {
        assert!(
            sarif::RULES.iter().any(|(id, _)| *id == rule),
            "SARIF driver does not declare `{rule}`"
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
    // The justified waiver in waivers/waived.rs suppresses its violation:
    // only the *unjustified* fn's findings remain for that file.
    let waiver_lints: Vec<&str> = findings
        .iter()
        .filter(|f| f.file == "waivers/waived.rs")
        .map(|f| f.lint)
        .collect();
    assert!(
        !waiver_lints.contains(&"push-without-rearm"),
        "justified waiver failed to suppress: {waiver_lints:?}"
    );
    assert!(waiver_lints.contains(&"bad-waiver"));
    assert!(waiver_lints.contains(&"pull-outside-drain"));
    // The properly paired `ready` symbol never flags.
    assert!(
        !findings
            .iter()
            .any(|f| f.file == "pairing/orphans.rs" && f.message.contains("`ready")),
        "paired symbol flagged"
    );
}

#[test]
fn sarif_report_over_the_corpus_is_valid() {
    let findings = corpus_findings();
    let log = sarif::emit(&findings);
    let doc = sarif::json_parse(&log).expect("SARIF output is well-formed JSON");
    assert_eq!(
        doc.get("version").and_then(sarif::Json::as_str),
        Some("2.1.0")
    );
    let run = doc
        .get("runs")
        .and_then(|r| r.idx(0))
        .expect("one run");
    let results = run
        .get("results")
        .and_then(sarif::Json::as_arr)
        .expect("results array");
    assert_eq!(results.len(), findings.len());
    let declared: Vec<&str> = run
        .get("tool")
        .and_then(|t| t.get("driver"))
        .and_then(|d| d.get("rules"))
        .and_then(sarif::Json::as_arr)
        .expect("driver rules")
        .iter()
        .filter_map(|r| r.get("id").and_then(sarif::Json::as_str))
        .collect();
    for (r, f) in results.iter().zip(&findings) {
        let id = r.get("ruleId").and_then(sarif::Json::as_str).expect("ruleId");
        assert_eq!(id, f.lint);
        assert!(declared.contains(&id), "rule `{id}` not declared by the driver");
        let loc = r
            .get("locations")
            .and_then(|l| l.idx(0))
            .and_then(|l| l.get("physicalLocation"))
            .expect("physicalLocation");
        assert_eq!(
            loc.get("artifactLocation")
                .and_then(|a| a.get("uri"))
                .and_then(sarif::Json::as_str),
            Some(f.file.as_str())
        );
        assert_eq!(
            loc.get("region")
                .and_then(|reg| reg.get("startLine"))
                .and_then(sarif::Json::as_num),
            Some(f.line as f64)
        );
    }
}
