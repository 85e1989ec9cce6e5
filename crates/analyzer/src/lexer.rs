//! A minimal Rust surface lexer: just enough to separate *code* from
//! *comments and literals* without a real parser (the build environment has
//! no registry access, so `syn` is not an option — and the lints only need
//! token-level facts anyway).
//!
//! [`scan`] produces a [`ScannedFile`]:
//!
//! - `code` — a copy of the source in which every comment and every
//!   string/char-literal *body* has been replaced by spaces (newlines kept,
//!   quote characters kept), so byte offsets and line numbers still line up
//!   with the original. All token searches run over this text and can never
//!   match inside a comment, a `"string"`, or a `'c'` literal.
//! - `comments` — each comment's line span and text, for the SAFETY lint
//!   and the waivers.
//!
//! [`tokens`] splits that code text into words and punctuation for the
//! rules that follow call structure (the pairing audit, handler calls).
//!
//! Handled: `//` line comments, nested `/* */` block comments, `"…"`
//! strings with escapes, `r"…"`/`r#"…"#` raw strings, byte/char literals,
//! raw identifiers (`r#unsafe` is blanked — it is *not* the keyword), and
//! the `'lifetime` ambiguity (a `'` followed by an identifier and no
//! closing `'` is a lifetime, not a char literal).

/// One comment in the original source.
#[derive(Debug, Clone)]
pub struct Comment {
    /// 1-based line the comment starts on.
    pub start_line: usize,
    /// 1-based line the comment ends on.
    pub end_line: usize,
    /// Full comment text including delimiters.
    pub text: String,
}

/// The result of scanning one source file.
#[derive(Debug)]
pub struct ScannedFile {
    /// Source with comments and literal bodies blanked out (same length,
    /// same line structure as the original).
    pub code: String,
    /// All comments, in source order.
    pub comments: Vec<Comment>,
}

fn is_ident_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Scan `src` into code text and comments; see the module docs.
pub fn scan(src: &str) -> ScannedFile {
    let bytes: Vec<char> = src.chars().collect();
    let mut code = String::with_capacity(src.len());
    let mut comments = Vec::new();
    let mut line = 1usize;
    let mut i = 0usize;

    // Push `c` to the code text, tracking lines.
    macro_rules! keep {
        ($c:expr) => {{
            let c = $c;
            if c == '\n' {
                line += 1;
            }
            code.push(c);
        }};
    }
    // Blank out `c` in the code text (newlines survive so lines align).
    macro_rules! blank {
        ($c:expr) => {{
            let c = $c;
            if c == '\n' {
                line += 1;
                code.push('\n');
            } else {
                code.push(' ');
            }
        }};
    }

    while i < bytes.len() {
        let c = bytes[i];
        let next = bytes.get(i + 1).copied();

        if c == '/' && next == Some('/') {
            let start_line = line;
            let mut text = String::new();
            while i < bytes.len() && bytes[i] != '\n' {
                text.push(bytes[i]);
                blank!(bytes[i]);
                i += 1;
            }
            comments.push(Comment {
                start_line,
                end_line: line,
                text,
            });
            continue;
        }

        if c == '/' && next == Some('*') {
            let start_line = line;
            let mut text = String::new();
            let mut depth = 0usize;
            while i < bytes.len() {
                let c = bytes[i];
                let next = bytes.get(i + 1).copied();
                if c == '/' && next == Some('*') {
                    depth += 1;
                    text.push('/');
                    text.push('*');
                    blank!('/');
                    blank!('*');
                    i += 2;
                } else if c == '*' && next == Some('/') {
                    depth -= 1;
                    text.push('*');
                    text.push('/');
                    blank!('*');
                    blank!('/');
                    i += 2;
                    if depth == 0 {
                        break;
                    }
                } else {
                    text.push(c);
                    blank!(c);
                    i += 1;
                }
            }
            comments.push(Comment {
                start_line,
                end_line: line,
                text,
            });
            continue;
        }

        if c == '"' {
            keep!('"');
            i += 1;
            while i < bytes.len() {
                let c = bytes[i];
                if c == '\\' {
                    blank!(c);
                    if let Some(&e) = bytes.get(i + 1) {
                        blank!(e);
                    }
                    i += 2;
                } else if c == '"' {
                    keep!('"');
                    i += 1;
                    break;
                } else {
                    blank!(c);
                    i += 1;
                }
            }
            continue;
        }

        // Raw strings: r"…" / r#"…"# / br#"…"# (with any # count).
        if (c == 'r' || c == 'b')
            && !(i > 0 && is_ident_char(bytes[i - 1]))
        {
            let mut j = i;
            if bytes[j] == 'b' && bytes.get(j + 1) == Some(&'r') {
                j += 1;
            }
            if bytes[j] == 'r' {
                let mut hashes = 0usize;
                let mut k = j + 1;
                while bytes.get(k) == Some(&'#') {
                    hashes += 1;
                    k += 1;
                }
                // Raw identifier, e.g. `r#unsafe` / `r#fn`: exactly one `#`
                // followed by an identifier, not a quote. The ident text is
                // explicitly *not* the keyword it spells, so blank the whole
                // thing — otherwise `let r#unsafe = 1;` leaks an `unsafe`
                // token into the blanked code and trips the lints.
                if j == i && hashes == 1 && bytes.get(k).is_some_and(|&c| is_ident_char(c)) {
                    blank!('r');
                    blank!('#');
                    i += 2;
                    while i < bytes.len() && is_ident_char(bytes[i]) {
                        blank!(bytes[i]);
                        i += 1;
                    }
                    continue;
                }
                if bytes.get(k) == Some(&'"') {
                    // Confirmed raw string from i..; emit prefix verbatim.
                    while i <= k {
                        keep!(bytes[i]);
                        i += 1;
                    }
                    // Body until `"` followed by `hashes` #'s.
                    'body: while i < bytes.len() {
                        if bytes[i] == '"' {
                            let mut m = 0usize;
                            while m < hashes && bytes.get(i + 1 + m) == Some(&'#') {
                                m += 1;
                            }
                            if m == hashes {
                                keep!('"');
                                i += 1;
                                for _ in 0..hashes {
                                    keep!('#');
                                    i += 1;
                                }
                                break 'body;
                            }
                        }
                        blank!(bytes[i]);
                        i += 1;
                    }
                    continue;
                }
            }
        }

        if c == '\'' {
            // Lifetime (or loop label) vs char literal: `'ident` with no
            // closing quote right after is a lifetime. A char literal is
            // `'x'`, `'\n'`, `'\u{…}'` — always closed within a few chars.
            let is_lifetime = match next {
                Some(n) if is_ident_char(n) && n != '\\' => {
                    // find end of ident run; lifetime iff not followed by '
                    let mut j = i + 1;
                    while j < bytes.len() && is_ident_char(bytes[j]) {
                        j += 1;
                    }
                    bytes.get(j) != Some(&'\'')
                }
                _ => false,
            };
            if is_lifetime {
                keep!('\'');
                i += 1;
                continue;
            }
            keep!('\'');
            i += 1;
            while i < bytes.len() {
                let c = bytes[i];
                if c == '\\' {
                    blank!(c);
                    if let Some(&e) = bytes.get(i + 1) {
                        blank!(e);
                    }
                    i += 2;
                } else if c == '\'' {
                    keep!('\'');
                    i += 1;
                    break;
                } else {
                    blank!(c);
                    i += 1;
                }
            }
            continue;
        }

        keep!(c);
        i += 1;
    }

    ScannedFile { code, comments }
}

/// Iterator over `(line, column, ident)` words in blanked code text.
pub fn idents(code: &str) -> Vec<(usize, usize, &str)> {
    let mut out = Vec::new();
    for (lineno, line) in code.lines().enumerate() {
        let mut start: Option<usize> = None;
        for (idx, c) in line.char_indices().chain([(line.len(), ' ')]) {
            if is_ident_char(c) {
                if start.is_none() {
                    start = Some(idx);
                }
            } else if let Some(s) = start.take() {
                let word = &line[s..idx];
                if !word.chars().all(|c| c.is_ascii_digit()) {
                    out.push((lineno + 1, s, word));
                }
            }
        }
    }
    out
}

/// One token of blanked code: an identifier/number word or a single
/// punctuation character.
pub struct Tok<'a> {
    pub text: &'a str,
    pub line: usize,
    pub is_ident: bool,
}

/// Tokenize blanked code text. The quote characters the lexer leaves
/// around blanked literals (and the `'` of lifetimes) are dropped.
pub fn tokens(code: &str) -> Vec<Tok<'_>> {
    let mut out = Vec::new();
    for (n, text) in code.lines().enumerate() {
        let mut chars = text.char_indices().peekable();
        while let Some((start, c)) = chars.next() {
            if c.is_whitespace() || c == '"' || c == '\'' {
                continue;
            }
            let is_ident = is_ident_char(c);
            let mut end = start + c.len_utf8();
            while let Some(&(i, c)) = chars.peek().filter(|_| is_ident) {
                if !is_ident_char(c) {
                    break;
                }
                end = i + c.len_utf8();
                chars.next();
            }
            out.push(Tok {
                text: &text[start..end],
                line: n + 1,
                is_ident,
            });
        }
    }
    out
}

/// For each `Ordering::Variant` occurrence in blanked code text, the
/// (1-based line, variant name).
pub fn ordering_sites(code: &str) -> Vec<(usize, String)> {
    let mut out = Vec::new();
    for (lineno, line) in code.lines().enumerate() {
        let mut from = 0usize;
        while let Some(pos) = line[from..].find("Ordering::") {
            let abs = from + pos;
            // Reject e.g. `MyOrdering::` by requiring a non-ident char before.
            let preceded_ok = abs == 0
                || !is_ident_char(line[..abs].chars().next_back().unwrap());
            let rest = &line[abs + "Ordering::".len()..];
            let variant: String = rest.chars().take_while(|&c| is_ident_char(c)).collect();
            if preceded_ok && !variant.is_empty() {
                out.push((lineno + 1, variant));
            }
            from = abs + "Ordering::".len();
        }
    }
    out
}

/// Track the innermost enclosing `fn` name for every line of blanked code.
///
/// Returns, for each 1-based line number, the name of the function whose
/// body covers it (`None` at module scope). Good enough for attributing a
/// lint site to a symbol: walks tokens, records `fn <name>` declarations,
/// and matches their brace spans.
pub fn enclosing_fns(code: &str) -> Vec<Option<String>> {
    let n_lines = code.lines().count();
    let mut per_line: Vec<Option<String>> = vec![None; n_lines + 2];

    // (name, depth at which the fn's body opened); popped when depth drops
    // back below it.
    let mut stack: Vec<(String, usize)> = Vec::new();
    let mut depth = 0usize;
    let mut pending_fn: Option<String> = None;
    let mut last_was_fn_kw = false;
    for (lineno, text) in code.lines().enumerate() {
        per_line[lineno + 1] = stack.last().map(|(n, _)| n.clone());
        let mut word = String::new();
        for c in text.chars().chain([' ']) {
            if is_ident_char(c) {
                word.push(c);
                continue;
            }
            if !word.is_empty() {
                if last_was_fn_kw {
                    pending_fn = Some(word.clone());
                    last_was_fn_kw = false;
                } else if word == "fn" {
                    last_was_fn_kw = true;
                }
                word.clear();
            }
            match c {
                '{' => {
                    depth += 1;
                    if let Some(name) = pending_fn.take() {
                        stack.push((name, depth));
                        // A fn opening on this line owns the line.
                        per_line[lineno + 1] = Some(stack.last().unwrap().0.clone());
                    }
                }
                '}' => {
                    if let Some((_, d)) = stack.last() {
                        if *d == depth {
                            stack.pop();
                        }
                    }
                    depth = depth.saturating_sub(1);
                }
                ';' => pending_fn = None,
                _ => {}
            }
        }
    }
    per_line
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comments_are_blanked_but_lines_align() {
        let src = "let a = 1; // trailing\n/* block\nspans */ let b = 2;\n";
        let s = scan(src);
        assert_eq!(s.code.lines().count(), src.lines().count());
        assert!(!s.code.contains("trailing"));
        assert!(!s.code.contains("spans"));
        assert!(s.code.contains("let b = 2;"));
        assert_eq!(s.comments.len(), 2);
        assert_eq!(s.comments[0].start_line, 1);
        assert_eq!(s.comments[1].start_line, 2);
        assert_eq!(s.comments[1].end_line, 3);
    }

    #[test]
    fn nested_block_comments() {
        let src = "/* a /* b */ c */ code";
        let s = scan(src);
        assert!(s.code.contains("code"));
        assert!(!s.code.contains('a'));
        assert_eq!(s.comments.len(), 1);
    }

    #[test]
    fn strings_and_chars_are_blanked() {
        let src = r#"let s = "Ordering::Relaxed // unsafe"; let c = '"'; let l: &'static str = s;"#;
        let s = scan(src);
        assert!(!s.code.contains("Relaxed"));
        assert!(!s.code.contains("unsafe"));
        assert!(s.code.contains("'static"), "lifetime survives: {}", s.code);
        assert!(s.comments.is_empty());
    }

    #[test]
    fn raw_strings_are_blanked() {
        let src = r##"let s = r#"unsafe { Mutex }"#; let t = 1;"##;
        let s = scan(src);
        assert!(!s.code.contains("Mutex"));
        assert!(s.code.contains("let t = 1;"));
    }

    #[test]
    fn ordering_sites_found_with_variant() {
        let src = "a.load(Ordering::Acquire);\nb.store(1, Ordering::Release); // Ordering::SeqCst\n";
        let s = scan(src);
        let sites = ordering_sites(&s.code);
        assert_eq!(
            sites,
            vec![(1, "Acquire".to_string()), (2, "Release".to_string())]
        );
    }

    #[test]
    fn enclosing_fn_attribution() {
        let src = "fn outer() {\n    let x = 1;\n    fn inner() {\n        let y = 2;\n    }\n    let z = 3;\n}\n";
        let s = scan(src);
        let fns = enclosing_fns(&s.code);
        assert_eq!(fns[2].as_deref(), Some("outer"));
        assert_eq!(fns[4].as_deref(), Some("inner"));
        assert_eq!(fns[6].as_deref(), Some("outer"));
    }

    #[test]
    fn nested_block_comments_cannot_leak_tokens() {
        // Regression: an `unsafe`/`Ordering::` token inside a *nested*
        // block comment must never reach the blanked code, even when the
        // nesting closes and reopens on one line.
        let src = "/* outer /* unsafe { Ordering::Relaxed } */ still /* Mutex */ out */ fn ok() {}\n";
        let s = scan(src);
        assert!(!s.code.contains("unsafe"));
        assert!(!s.code.contains("Ordering"));
        assert!(!s.code.contains("Mutex"));
        assert!(s.code.contains("fn ok() {}"));
        assert_eq!(s.comments.len(), 1);
        assert!(ordering_sites(&s.code).is_empty());
    }

    #[test]
    fn raw_strings_with_hashes_cannot_leak_tokens() {
        // Regression: raw strings whose body contains `"#`-like runs plus
        // `unsafe` / `Ordering::` text, at several hash depths.
        let src = concat!(
            "let a = r\"unsafe Ordering::Acquire\";\n",
            "let b = r##\"quote \"# inside, still unsafe Ordering::Release\"##;\n",
            "let c = br#\"bytes with Mutex and unsafe\"#;\n",
            "let after = 1;\n",
        );
        let s = scan(src);
        assert!(!s.code.contains("unsafe"));
        assert!(!s.code.contains("Mutex"));
        assert!(ordering_sites(&s.code).is_empty());
        assert!(s.code.contains("let after = 1;"), "scan resynced: {}", s.code);
        assert_eq!(s.code.lines().count(), src.lines().count());
    }

    #[test]
    fn raw_identifiers_are_not_keywords() {
        // `r#unsafe` is a plain identifier named "unsafe"; it must not
        // surface an `unsafe` token (the undocumented-unsafe lint keys on
        // exactly that word). Same for `r#fn`, which would corrupt
        // enclosing-fn attribution.
        let src = "let r#unsafe = 1;\nlet x = r#fn + r#unsafe;\nfn real() { let y = 2; }\n";
        let s = scan(src);
        assert!(!s.code.contains("unsafe"), "blanked: {}", s.code);
        let words: Vec<&str> = idents(&s.code).iter().map(|&(_, _, w)| w).collect();
        assert!(!words.contains(&"unsafe"));
        assert!(!words.contains(&"fn") || words.iter().filter(|&&w| w == "fn").count() == 1);
        let fns = enclosing_fns(&s.code);
        assert_eq!(fns[3].as_deref(), Some("real"));
        // A raw string still scans as a string right after (prefix overlap).
        let s2 = scan("let s = r#\"unsafe\"#; let r#unsafe = 2;");
        assert!(!s2.code.contains("unsafe"));
    }

    #[test]
    fn idents_split_on_boundaries() {
        let words = idents("MutexGuard Mutex foo_bar");
        let names: Vec<&str> = words.iter().map(|(_, _, w)| *w).collect();
        assert_eq!(names, vec!["MutexGuard", "Mutex", "foo_bar"]);
    }
}
