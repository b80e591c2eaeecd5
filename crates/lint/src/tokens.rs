//! A minimal Rust tokenizer: just enough lexical structure to scan for
//! determinism hazards without false positives from comments, strings,
//! char literals or lifetimes — and to collect `tapestry-lint:` pragma
//! comments with their line numbers.
//!
//! Deliberately not a full lexer: numbers, most punctuation and all
//! semantic structure are discarded. What must be *correct* is what gets
//! skipped, because a hazard word inside a string or comment is not a
//! hazard, and a pragma inside a string is not a pragma.

/// One token the rules care about.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Tok {
    /// Identifier or keyword.
    Ident(String),
    /// A single punctuation character (`(`, `)`, `:`, `.`, ...).
    Punct(char),
    /// A string literal (contents discarded — a rule can only see *that*
    /// a literal sits in argument position).
    Str,
}

/// A `// tapestry-lint: allow(...)` / `allow-file(...)` comment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Pragma {
    /// 1-based line the comment sits on.
    pub line: usize,
    /// Rule names listed in the pragma.
    pub rules: Vec<String>,
    /// `allow-file` (whole file) vs `allow` (this line and the next).
    pub file_scope: bool,
}

/// Token stream plus the pragmas found along the way.
#[derive(Debug, Default)]
pub struct TokStream {
    /// `(line, token)` pairs in source order.
    pub toks: Vec<(usize, Tok)>,
    /// Pragma comments in source order.
    pub pragmas: Vec<Pragma>,
}

/// The marker that introduces a pragma inside a line comment.
const PRAGMA_MARKER: &str = "tapestry-lint:";

/// Tokenize `source`, stripping comments/strings/chars/lifetimes and
/// harvesting pragmas from plain `//` comments (doc comments excluded).
pub fn tokenize(source: &str) -> TokStream {
    let chars: Vec<char> = source.chars().collect();
    let mut out = TokStream::default();
    let mut i = 0usize;
    let mut line = 1usize;
    while i < chars.len() {
        let c = chars[i];
        match c {
            '\n' => {
                line += 1;
                i += 1;
            }
            '/' if chars.get(i + 1) == Some(&'/') => {
                // Line comment. Only plain `//` comments carry pragmas:
                // doc comments (`///`, `//!`) are documentation — text
                // *about* pragmas must not act as one.
                let start = i + 2;
                let doc = matches!(chars.get(start), Some(&'/') | Some(&'!'));
                let mut j = start;
                while j < chars.len() && chars[j] != '\n' {
                    j += 1;
                }
                if !doc {
                    let text: String = chars[start..j].iter().collect();
                    if let Some(p) = parse_pragma(&text, line) {
                        out.pragmas.push(p);
                    }
                }
                i = j;
            }
            '/' if chars.get(i + 1) == Some(&'*') => {
                // Block comment, nesting honored. Pragmas are line-comment
                // only (documented), so just skip.
                let mut depth = 1;
                i += 2;
                while i < chars.len() && depth > 0 {
                    if chars[i] == '\n' {
                        line += 1;
                        i += 1;
                    } else if chars[i] == '/' && chars.get(i + 1) == Some(&'*') {
                        depth += 1;
                        i += 2;
                    } else if chars[i] == '*' && chars.get(i + 1) == Some(&'/') {
                        depth -= 1;
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
            }
            '"' => {
                out.toks.push((line, Tok::Str));
                i = skip_string(&chars, i, &mut line)
            }
            'r' | 'b' if starts_raw_or_byte_string(&chars, i) => {
                out.toks.push((line, Tok::Str));
                i = skip_raw_or_byte_string(&chars, i, &mut line)
            }
            '\'' => i = skip_char_or_lifetime(&chars, i, &mut line),
            c if c.is_ascii_alphabetic() || c == '_' => {
                let mut j = i;
                while j < chars.len() && (chars[j].is_ascii_alphanumeric() || chars[j] == '_') {
                    j += 1;
                }
                let ident: String = chars[i..j].iter().collect();
                out.toks.push((line, Tok::Ident(ident)));
                i = j;
            }
            c if c.is_ascii_digit() => {
                // Numbers (incl. float literals and suffixes): discard.
                // A `.` continues the number only when a digit follows —
                // otherwise it is a range (`1..n`), a tuple-index field
                // access (`a.1.dist`) or a method call on a literal, and
                // the tokens after the dot must survive.
                let mut j = i;
                while j < chars.len() {
                    let c = chars[j];
                    let continues = c.is_ascii_alphanumeric()
                        || c == '_'
                        || (c == '.' && chars.get(j + 1).is_some_and(|d| d.is_ascii_digit()));
                    if !continues {
                        break;
                    }
                    j += 1;
                }
                i = j;
            }
            c if c.is_whitespace() => i += 1,
            c => {
                out.toks.push((line, Tok::Punct(c)));
                i += 1;
            }
        }
    }
    out
}

/// Parse the body of a line comment into a pragma, if it carries one.
/// Accepted forms (whitespace-tolerant):
/// `tapestry-lint: allow(rule)`, `tapestry-lint: allow(rule-a, rule-b)`,
/// `tapestry-lint: allow-file(rule)`.
fn parse_pragma(comment: &str, line: usize) -> Option<Pragma> {
    let at = comment.find(PRAGMA_MARKER)?;
    let rest = comment[at + PRAGMA_MARKER.len()..].trim_start();
    let (file_scope, rest) = if let Some(r) = rest.strip_prefix("allow-file") {
        (true, r)
    } else if let Some(r) = rest.strip_prefix("allow") {
        (false, r)
    } else {
        // A marker with an unparseable directive still becomes a pragma
        // (with no rules) so the audit can flag it instead of silently
        // ignoring a typo like `allowed(...)`.
        return Some(Pragma { line, rules: vec![rest.trim().to_string()], file_scope: false });
    };
    let rest = rest.trim_start();
    let inner = rest.strip_prefix('(').and_then(|r| r.split_once(')')).map(|(body, _)| body);
    let rules: Vec<String> = match inner {
        Some(body) => {
            body.split(',').map(|r| r.trim().to_string()).filter(|r| !r.is_empty()).collect()
        }
        // `allow` with no parenthesized list: keep the raw tail as a
        // pseudo-rule so the unknown-rule audit surfaces it.
        None => vec![rest.trim().to_string()],
    };
    Some(Pragma { line, rules, file_scope })
}

/// Is `chars[i..]` the start of a raw string (`r"`, `r#"`) or byte
/// string (`b"`, `br#"`)? Plain identifiers starting with r/b are not.
fn starts_raw_or_byte_string(chars: &[char], i: usize) -> bool {
    let mut j = i;
    if chars[j] == 'b' {
        j += 1;
        if chars.get(j) == Some(&'"') {
            return true; // b"..."
        }
        if chars.get(j) != Some(&'r') {
            return false;
        }
    }
    if chars.get(j) == Some(&'r') {
        j += 1;
        while chars.get(j) == Some(&'#') {
            j += 1;
        }
        return chars.get(j) == Some(&'"');
    }
    false
}

/// Skip a raw/byte string starting at `i`; returns the index just past
/// the closing delimiter.
fn skip_raw_or_byte_string(chars: &[char], i: usize, line: &mut usize) -> usize {
    let mut j = i;
    if chars[j] == 'b' {
        j += 1;
    }
    if chars.get(j) == Some(&'"') {
        // b"...": an ordinary (escaped) byte string.
        return skip_string(chars, j, line);
    }
    // r, then hashes, then the quote.
    j += 1;
    let mut hashes = 0usize;
    while chars.get(j) == Some(&'#') {
        hashes += 1;
        j += 1;
    }
    debug_assert_eq!(chars.get(j), Some(&'"'));
    j += 1;
    while j < chars.len() {
        if chars[j] == '\n' {
            *line += 1;
            j += 1;
            continue;
        }
        if chars[j] == '"' {
            let mut k = j + 1;
            let mut seen = 0usize;
            while seen < hashes && chars.get(k) == Some(&'#') {
                seen += 1;
                k += 1;
            }
            if seen == hashes {
                return k;
            }
        }
        j += 1;
    }
    j
}

/// Skip an ordinary string literal starting at the opening quote.
fn skip_string(chars: &[char], i: usize, line: &mut usize) -> usize {
    let mut j = i + 1;
    while j < chars.len() {
        match chars[j] {
            '\\' => j += 2,
            '\n' => {
                *line += 1;
                j += 1;
            }
            '"' => return j + 1,
            _ => j += 1,
        }
    }
    j
}

/// Skip a char literal — or recognize a lifetime (`'a`) / loop label and
/// skip just its identifier.
fn skip_char_or_lifetime(chars: &[char], i: usize, line: &mut usize) -> usize {
    // Lifetime/label: 'ident not followed by a closing quote.
    if let Some(&c1) = chars.get(i + 1) {
        if (c1.is_ascii_alphabetic() || c1 == '_') && chars.get(i + 2) != Some(&'\'') {
            let mut j = i + 1;
            while j < chars.len() && (chars[j].is_ascii_alphanumeric() || chars[j] == '_') {
                j += 1;
            }
            return j;
        }
    }
    // Char literal: '\n', '\'', '\u{...}', 'x'.
    let mut j = i + 1;
    while j < chars.len() {
        match chars[j] {
            '\\' => j += 2,
            '\n' => {
                *line += 1;
                j += 1;
            }
            '\'' => return j + 1,
            _ => j += 1,
        }
    }
    j
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        tokenize(src)
            .toks
            .into_iter()
            .filter_map(|(_, t)| match t {
                Tok::Ident(s) => Some(s),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn strings_comments_and_lifetimes_are_stripped() {
        let src = r##"
            // HashMap in a comment
            /* HashMap in /* a nested */ block */
            let s = "HashMap in a string";
            let r = r#"HashMap raw "quoted" string"#;
            let c = 'H';
            fn f<'a>(x: &'a str) {}
            let real = HashMap::new();
        "##;
        let ids = idents(src);
        assert_eq!(ids.iter().filter(|s| *s == "HashMap").count(), 1);
        assert!(ids.contains(&"real".to_string()));
    }

    #[test]
    fn pragma_forms_parse() {
        let s = tokenize(
            "// tapestry-lint: allow(hash-iter)\n\
             let x = 1; // tapestry-lint: allow(wall-clock, float-tiebreak)\n\
             // tapestry-lint: allow-file(unseeded-rng)\n",
        );
        assert_eq!(s.pragmas.len(), 3);
        assert_eq!(s.pragmas[0].rules, vec!["hash-iter"]);
        assert!(!s.pragmas[0].file_scope);
        assert_eq!(s.pragmas[1].line, 2);
        assert_eq!(s.pragmas[1].rules, vec!["wall-clock", "float-tiebreak"]);
        assert!(s.pragmas[2].file_scope);
    }

    #[test]
    fn pragma_inside_string_is_not_a_pragma() {
        let s = tokenize("let s = \"// tapestry-lint: allow(hash-iter)\";\n");
        assert!(s.pragmas.is_empty());
    }

    #[test]
    fn tuple_index_field_access_is_not_swallowed_by_number_scan() {
        // `a.1.dist.partial_cmp(..)`: the tuple index must not consume
        // the idents after it (regression: float-tiebreak sites behind
        // tuple projections went unseen).
        let ids = idents("let o = a.1.dist.partial_cmp(&b.1.dist);");
        assert!(ids.contains(&"dist".to_string()));
        assert!(ids.contains(&"partial_cmp".to_string()));
    }

    #[test]
    fn string_literals_leave_a_str_token() {
        // A literal stays visible in argument position even though its
        // contents are discarded.
        let s = tokenize("log.push(\"locate.found\", 1); let r = r#\"raw\"#;");
        let strs = s.toks.iter().filter(|(_, t)| *t == Tok::Str).count();
        assert_eq!(strs, 2);
        let after_paren =
            s.toks.windows(2).any(|w| w[0].1 == Tok::Punct('(') && w[1].1 == Tok::Str);
        assert!(after_paren, "literal visible in argument position");
    }

    #[test]
    fn doc_comments_do_not_carry_pragmas() {
        let s = tokenize(
            "/// tapestry-lint: allow(hash-iter)\n\
             //! tapestry-lint: allow(wall-clock)\n\
             // tapestry-lint: allow(unseeded-rng)\n",
        );
        assert_eq!(s.pragmas.len(), 1);
        assert_eq!(s.pragmas[0].rules, vec!["unseeded-rng"]);
    }

    #[test]
    fn line_numbers_survive_multiline_constructs() {
        let src = "let a = \"two\nlines\";\n/* also\ntwo */\nlet b = Instant::now();\n";
        let s = tokenize(src);
        let inst = s.toks.iter().find(|(_, t)| *t == Tok::Ident("Instant".into())).unwrap();
        assert_eq!(inst.0, 5);
    }
}
