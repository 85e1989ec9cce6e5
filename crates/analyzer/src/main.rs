//! CLI for the concurrency lint pass.
//!
//! ```text
//! fabsp-analyzer lint                   # lint the workspace; exit 1 on findings
//! fabsp-analyzer orderings              # dump Ordering sites as policy skeleton
//! ```

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage: fabsp-analyzer <lint|orderings> [--root DIR]\n\
         \n\
         lint           run the concurrency lint pass over the workspace\n\
         orderings      print every Ordering::* site as [[ordering]] skeleton\n\
         --root DIR     workspace root (default: walk up from the cwd)"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let Some(cmd) = args.next() else {
        return usage();
    };
    let root = match (args.next().as_deref(), args.next(), args.next()) {
        (None, _, _) => std::env::current_dir()
            .ok()
            .and_then(|cwd| fabsp_analyzer::find_workspace_root(&cwd)),
        (Some("--root"), Some(dir), None) => Some(PathBuf::from(dir)),
        _ => return usage(),
    };
    let Some(root) = root else {
        eprintln!("fabsp-analyzer: cannot locate the workspace root (pass --root)");
        return ExitCode::FAILURE;
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
            let findings = match fabsp_analyzer::lint_tree(&root, &policy) {
                Ok(f) => f,
                Err(e) => {
                    eprintln!("fabsp-analyzer: scan failed: {e}");
                    return ExitCode::FAILURE;
                }
            };
            for f in &findings {
                println!("{f}");
            }
            if findings.is_empty() {
                println!("fabsp-analyzer: clean");
                ExitCode::SUCCESS
            } else {
                println!("fabsp-analyzer: {} finding(s)", findings.len());
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
