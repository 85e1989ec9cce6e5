//! The lint gate: the checked-in tree must be clean, and seeded violations
//! of each class must produce findings — so the lint cannot silently rot
//! into a yes-machine.

use std::path::{Path, PathBuf};

use fabsp_analyzer::{lint_source, lint_tree, load_policy, Policy};

fn workspace_root() -> PathBuf {
    let here = Path::new(env!("CARGO_MANIFEST_DIR"));
    fabsp_analyzer::find_workspace_root(here).expect("workspace root above CARGO_MANIFEST_DIR")
}

#[test]
fn checked_in_tree_is_clean() {
    let root = workspace_root();
    let policy = load_policy(&root).expect("policy.toml parses");
    let findings = lint_tree(&root, &policy).expect("tree scans");
    assert!(
        findings.is_empty(),
        "the workspace must lint clean; findings:\n{}",
        findings
            .iter()
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}

fn real_policy() -> Policy {
    load_policy(&workspace_root()).expect("policy.toml parses")
}

#[test]
fn seeded_undocumented_unsafe_is_flagged() {
    let src = "\
pub fn f(p: *const u8) -> u8 {
    unsafe { *p }
}
";
    let findings = lint_source("crates/shmem/src/seeded.rs", src, &real_policy());
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert_eq!(findings[0].lint, "undocumented-unsafe");
    assert_eq!(findings[0].line, 2);
}

#[test]
fn seeded_unlisted_ordering_is_flagged() {
    // A new Relaxed in ring.rs, outside any policied symbol, must fail.
    let src = "\
fn sneak(x: &std::sync::atomic::AtomicU64) -> u64 {
    x.load(Ordering::Relaxed)
}
";
    let findings = lint_source("crates/shmem/src/ring.rs", src, &real_policy());
    assert!(
        findings.iter().any(|f| f.lint == "unlisted-ordering" && f.line == 2),
        "{findings:?}"
    );
}

#[test]
fn seeded_stray_mutex_is_flagged() {
    let src = "use parking_lot::Mutex;\nstatic M: Mutex<u32> = Mutex::new(0);\n";
    let findings = lint_source("crates/conveyors/src/convey.rs", src, &real_policy());
    assert!(
        findings.iter().any(|f| f.lint == "lock-outside-allowlist"),
        "{findings:?}"
    );
    // ...while the same text inside an allowlisted file is fine.
    let findings = lint_source("crates/shmem/src/sync.rs", src, &real_policy());
    assert!(
        !findings.iter().any(|f| f.lint == "lock-outside-allowlist"),
        "{findings:?}"
    );
}

#[test]
fn seeded_violation_fails_a_full_tree_scan() {
    // End-to-end through lint_tree: copy a tiny tree into a temp dir,
    // plant one violation, and watch the scan fail with file:line.
    let dir = std::env::temp_dir().join(format!(
        "fabsp-analyzer-test-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let src_dir = dir.join("crates/foo/src");
    std::fs::create_dir_all(&src_dir).unwrap();
    std::fs::write(
        src_dir.join("lib.rs"),
        "#![forbid(unsafe_code)]\npub mod bar;\n",
    )
    .unwrap();
    std::fs::write(
        src_dir.join("bar.rs"),
        "pub fn f(x: &std::sync::atomic::AtomicU64) {\n    x.store(1, Ordering::Relaxed);\n}\n",
    )
    .unwrap();

    let findings = lint_tree(&dir, &Policy::default()).unwrap();
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert_eq!(findings[0].file, "crates/foo/src/bar.rs");
    assert_eq!(findings[0].line, 2);
    assert_eq!(findings[0].lint, "unlisted-ordering");

    std::fs::remove_dir_all(&dir).ok();
}
