//! Release/Acquire pairing audit.
//!
//! The `[[ordering]]` policy table justifies each site in isolation; it
//! cannot see that an `Acquire` consume lost its `Release` partner — a
//! publish weakened to `Relaxed` in a function whose entry already allows
//! `Relaxed` passes the table. This pass can: it collects every atomic
//! call site that names an `Ordering`, groups them by the atomic's
//! *symbol* (the last identifier of the receiver chain —
//! `self.state.store(..)` → `state`) across the whole tree, and classifies
//! each site as publish-side, consume-side, or both:
//!
//! - publish: `store`/RMW with `Release`, `AcqRel` or `SeqCst`;
//! - consume: `load`/RMW with `Acquire`, `AcqRel` or `SeqCst`;
//! - every method but `load`/`store` (`fetch_*`, `swap`,
//!   `compare_exchange*`) is a read-modify-write, so it can be both;
//! - `Relaxed` is neither and never flags.
//!
//! A consume site whose symbol is published nowhere in the tree is an
//! `orphaned-acquire`: there is nothing for it to synchronize with.
//! `[[pairing]]` policy entries waive a symbol (optionally per file) with
//! a justification — e.g. a cell whose `Release` partner is spelled under
//! another receiver name the textual audit cannot trace.

use std::collections::BTreeSet;

use crate::lexer::tokens;
use crate::lints::Finding;
use crate::policy::Policy;

/// One atomic call site naming an `Ordering::*` variant.
#[derive(Debug, Clone)]
pub struct AtomicSite {
    pub file: String,
    pub line: usize,
    /// Last receiver-chain identifier (`state` for `self.state.store`).
    pub symbol: String,
    /// The atomic method (`store`, `load`, `fetch_add`, …).
    pub method: String,
    /// The `Ordering::*` variants passed to this call, in order.
    pub orderings: Vec<String>,
}

/// Collect the atomic sites of one file's blanked code. A token-stream
/// walk keeps a stack of open parentheses; each `Ordering::Variant` is
/// attributed to the innermost open `receiver.method(` call, so
/// multi-line calls and nested argument expressions attribute correctly.
pub fn collect(rel_path: &str, code: &str) -> Vec<AtomicSite> {
    const VARIANTS: [&str; 5] = ["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];
    let toks = tokens(code);
    let text = |i: usize| toks.get(i).map_or("", |t| t.text);
    let mut out: Vec<AtomicSite> = Vec::new();
    // Per open `(`: the index of the site its call opened, if any.
    let mut stack: Vec<Option<usize>> = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        match text(i) {
            "Ordering" if text(i + 1) == ":" && text(i + 2) == ":" => {
                if VARIANTS.contains(&text(i + 3)) {
                    if let Some(site) = stack.iter().rev().find_map(|s| *s) {
                        out[site].orderings.push(text(i + 3).to_string());
                    }
                }
                i += 3;
            }
            "(" => {
                let call =
                    i >= 3 && toks[i - 1].is_ident && text(i - 2) == "." && toks[i - 3].is_ident;
                stack.push(call.then(|| {
                    out.push(AtomicSite {
                        file: rel_path.to_string(),
                        line: toks[i - 1].line,
                        symbol: toks[i - 3].text.to_string(),
                        method: toks[i - 1].text.to_string(),
                        orderings: Vec::new(),
                    });
                    out.len() - 1
                }));
            }
            ")" => {
                stack.pop();
            }
            _ => {}
        }
        i += 1;
    }
    out.retain(|s| !s.orderings.is_empty());
    out
}

/// Whether a site publishes (a Release-or-stronger write) and whether it
/// consumes (an Acquire-or-stronger read).
fn sides(site: &AtomicSite) -> (bool, bool) {
    let has = |vs: [&str; 3]| site.orderings.iter().any(|o| vs.contains(&o.as_str()));
    let publish = site.method != "load" && has(["Release", "AcqRel", "SeqCst"]);
    let consume = site.method != "store" && has(["Acquire", "AcqRel", "SeqCst"]);
    (publish, consume)
}

/// Cross-file audit: flag consume sites whose symbol is never published
/// with Release anywhere in the tree.
pub fn audit(sites: &[AtomicSite], policy: &Policy) -> Vec<Finding> {
    let published: BTreeSet<&str> = sites
        .iter()
        .filter(|s| sides(s).0)
        .map(|s| s.symbol.as_str())
        .collect();
    let waived = |site: &AtomicSite| {
        policy
            .pairing
            .iter()
            .any(|r| r.symbol == site.symbol && (r.file == "*" || r.file == site.file))
    };
    sites
        .iter()
        .filter(|s| sides(s).1 && !published.contains(s.symbol.as_str()) && !waived(s))
        .map(|site| Finding {
            file: site.file.clone(),
            line: site.line,
            lint: "orphaned-acquire",
            message: format!(
                "`{}.{}(Acquire, ..)` consumes, but no `Release`/`AcqRel` \
                 publish of `{}` exists anywhere in the tree — there is \
                 nothing to synchronize with",
                site.symbol, site.method, site.symbol
            ),
            hint: format!(
                "publish `{}` with `Ordering::Release` on the writer \
                 side, or waive the symbol with a [[pairing]] entry in \
                 policy.toml",
                site.symbol
            ),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer;

    fn sites_of(file: &str, src: &str) -> Vec<AtomicSite> {
        collect(file, &lexer::scan(src).code)
    }

    #[test]
    fn collects_symbols_methods_and_orderings() {
        let src = "\
fn f() {
    self.state.store(1, Ordering::Release);
    let v = cell.state.load(Ordering::Acquire);
    flag.compare_exchange(0, 1, Ordering::AcqRel, Ordering::Acquire).ok();
}
";
        let s = sites_of("a.rs", src);
        assert_eq!(s.len(), 3);
        assert_eq!(
            (s[0].symbol.as_str(), s[0].method.as_str()),
            ("state", "store")
        );
        assert_eq!(s[0].orderings, vec!["Release"]);
        assert_eq!(
            (s[1].symbol.as_str(), s[1].method.as_str()),
            ("state", "load")
        );
        assert_eq!(s[2].orderings, vec!["AcqRel", "Acquire"]);
    }

    #[test]
    fn multiline_calls_attribute_to_the_right_site() {
        let src = "\
fn f() {
    slot.state.compare_exchange(
        EMPTY,
        BUSY,
        Ordering::AcqRel,
        Ordering::Relaxed,
    ).ok();
}
";
        let s = sites_of("a.rs", src);
        assert_eq!(s.len(), 1);
        assert_eq!(s[0].line, 2, "site at the call, not the ordering line");
        assert_eq!(s[0].orderings, vec!["AcqRel", "Relaxed"]);
    }

    #[test]
    fn paired_symbols_are_clean_orphans_flag() {
        let a = sites_of("a.rs", "fn f() { self.seq.store(1, Ordering::Release); }");
        let b = sites_of(
            "b.rs",
            "fn g() { let v = self.seq.load(Ordering::Acquire); }",
        );
        let all: Vec<AtomicSite> = a.into_iter().chain(b).collect();
        assert!(audit(&all, &Policy::default()).is_empty());

        let lone = sites_of(
            "a.rs",
            "fn f() { let v = self.seq.load(Ordering::Acquire); }",
        );
        let f = audit(&lone, &Policy::default());
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].lint, "orphaned-acquire");
        assert_eq!(f[0].line, 1);

        // A publish nobody consumes is the ordering table's business.
        let lone = sites_of("a.rs", "fn f() { self.seq.store(1, Ordering::Release); }");
        assert!(audit(&lone, &Policy::default()).is_empty());
    }

    #[test]
    fn relaxed_and_seqcst_never_orphan() {
        let s = sites_of(
            "a.rs",
            "fn f() { x.counter.fetch_add(1, Ordering::Relaxed); y.gate.store(1, Ordering::SeqCst); z.gate.load(Ordering::SeqCst); }",
        );
        assert!(audit(&s, &Policy::default()).is_empty());
    }

    #[test]
    fn seqcst_counts_as_both_sides_for_pairing() {
        // A SeqCst store paired with an Acquire load: no orphan.
        let s = sites_of(
            "a.rs",
            "fn f() { a.flag.store(1, Ordering::SeqCst); let v = b.flag.load(Ordering::Acquire); }",
        );
        assert!(audit(&s, &Policy::default()).is_empty());
    }

    #[test]
    fn rmw_acquire_needs_a_release_somewhere() {
        let s = sites_of("a.rs", "fn f() { q.head.fetch_add(1, Ordering::Acquire); }");
        let f = audit(&s, &Policy::default());
        assert_eq!(f[0].lint, "orphaned-acquire");
        // An AcqRel RMW publishes what it consumes.
        let s = sites_of("a.rs", "fn f() { q.head.fetch_add(1, Ordering::AcqRel); }");
        assert!(audit(&s, &Policy::default()).is_empty());
    }

    #[test]
    fn pairing_waiver_suppresses() {
        let s = sites_of(
            "a.rs",
            "fn f() { let v = self.seq.load(Ordering::Acquire); }",
        );
        let policy = Policy::parse(
            "[[pairing]]\nsymbol = \"seq\"\nwhy = \"published through the fence in flush()\"\n",
        )
        .unwrap();
        assert!(audit(&s, &policy).is_empty());
    }
}
