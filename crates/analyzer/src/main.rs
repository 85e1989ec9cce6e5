//! CLI for the concurrency lint pass.
//!
//! ```text
//! fabsp-analyzer lint                   # lint the workspace; exit 1 on findings
//! fabsp-analyzer lint --format sarif    # emit SARIF 2.1.0 instead of text
//! fabsp-analyzer lint --out report.sarif
//! fabsp-analyzer lint --diff origin/main  # findings in changed files only
//! fabsp-analyzer orderings              # dump Ordering sites as policy skeleton
//! ```

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage: fabsp-analyzer <lint|orderings> [--root DIR] [--format text|sarif]\n\
         \x20                                  [--out FILE] [--diff BASE]\n\
         \n\
         lint           run the concurrency lint pass over the workspace\n\
         orderings      print every Ordering::* site as [[ordering]] skeleton\n\
         --root DIR     workspace root (default: walk up from the cwd)\n\
         --format KIND  lint output: text (default) or sarif (SARIF 2.1.0)\n\
         --out FILE     write the report to FILE instead of stdout\n\
         --diff BASE    only report findings in files changed vs. git BASE\n\
         \x20              (cross-file passes still see the whole tree)"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let Some(cmd) = args.next() else {
        return usage();
    };
    let mut root: Option<PathBuf> = None;
    let mut format = String::from("text");
    let mut out_file: Option<PathBuf> = None;
    let mut diff_base: Option<String> = None;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => match args.next() {
                Some(dir) => root = Some(PathBuf::from(dir)),
                None => return usage(),
            },
            "--format" => match args.next() {
                Some(v) if v == "text" || v == "sarif" => format = v,
                _ => return usage(),
            },
            "--out" => match args.next() {
                Some(f) => out_file = Some(PathBuf::from(f)),
                None => return usage(),
            },
            "--diff" => match args.next() {
                Some(b) => diff_base = Some(b),
                None => return usage(),
            },
            _ => return usage(),
        }
    }
    let root = match root.or_else(|| {
        std::env::current_dir()
            .ok()
            .and_then(|cwd| fabsp_analyzer::find_workspace_root(&cwd))
    }) {
        Some(root) => root,
        None => {
            eprintln!("fabsp-analyzer: cannot locate the workspace root (pass --root)");
            return ExitCode::FAILURE;
        }
    };

    match cmd.as_str() {
        "lint" => {
            let policy = match fabsp_analyzer::load_policy(&root) {
                Ok(p) => p,
                Err(e) => {
                    eprintln!("fabsp-analyzer: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let mut findings = match fabsp_analyzer::lint_tree(&root, &policy) {
                Ok(f) => f,
                Err(e) => {
                    eprintln!("fabsp-analyzer: scan failed: {e}");
                    return ExitCode::FAILURE;
                }
            };
            // Diff mode: the passes still ran over the whole tree (the
            // pairing audit is cross-file), but only findings in changed
            // files are *reported* — a PR lane fails on what it touched.
            if let Some(base) = &diff_base {
                let changed = match fabsp_analyzer::diff_files(&root, base) {
                    Ok(c) => c,
                    Err(e) => {
                        eprintln!("fabsp-analyzer: {e}");
                        return ExitCode::FAILURE;
                    }
                };
                let before = findings.len();
                // Stale policy entries always stay in scope: the deletion
                // that caused one is exactly what the changed-file list
                // (`--diff-filter=d`) leaves out.
                findings.retain(|f| {
                    f.lint == "stale-policy-entry" || changed.iter().any(|c| c == &f.file)
                });
                eprintln!(
                    "fabsp-analyzer: diff vs {base}: {} changed file(s), \
                     {}/{before} finding(s) in scope",
                    changed.len(),
                    findings.len()
                );
            }
            let report = if format == "sarif" {
                fabsp_analyzer::sarif::emit(&findings)
            } else {
                let mut text = String::new();
                for f in &findings {
                    text.push_str(&format!("{f}\n"));
                }
                if findings.is_empty() {
                    text.push_str("fabsp-analyzer: clean\n");
                } else {
                    text.push_str(&format!(
                        "fabsp-analyzer: {} finding(s)\n",
                        findings.len()
                    ));
                }
                text
            };
            match &out_file {
                Some(path) => {
                    if let Err(e) = std::fs::write(path, &report) {
                        eprintln!("fabsp-analyzer: cannot write {}: {e}", path.display());
                        return ExitCode::FAILURE;
                    }
                    eprintln!("fabsp-analyzer: report written to {}", path.display());
                }
                None => print!("{report}"),
            }
            if findings.is_empty() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        "orderings" => {
            let sites = match fabsp_analyzer::ordering_inventory(&root) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("fabsp-analyzer: scan failed: {e}");
                    return ExitCode::FAILURE;
                }
            };
            // Group by (file, symbol): one [[ordering]] skeleton each.
            let mut grouped: Vec<(String, String, Vec<String>)> = Vec::new();
            for site in sites {
                match grouped
                    .iter_mut()
                    .find(|(f, s, _)| *f == site.file && *s == site.symbol)
                {
                    Some((_, _, variants)) => {
                        if !variants.contains(&site.variant) {
                            variants.push(site.variant);
                        }
                    }
                    None => grouped.push((site.file, site.symbol, vec![site.variant])),
                }
            }
            for (file, symbol, variants) in grouped {
                let allow = variants
                    .iter()
                    .map(|v| format!("\"{v}\""))
                    .collect::<Vec<_>>()
                    .join(", ");
                println!("[[ordering]]");
                println!("file = \"{file}\"");
                println!("symbol = \"{symbol}\"");
                println!("allow = [{allow}]");
                println!("why = \"TODO\"");
                println!();
            }
            ExitCode::SUCCESS
        }
        _ => usage(),
    }
}
