//! Line-level source model for the scanner.
//!
//! `pamdc-lint` deliberately has no `syn` (the offline-shim policy bans
//! registry dependencies), so rules work on a per-line view of each
//! file where string/char-literal contents and comments have been
//! blanked out of the *code* channel and line comments are preserved in
//! a separate *comment* channel (where suppression directives live).
//! Blanking keeps byte offsets stable, so diagnostics point at real
//! columns, and it is what makes naive token matches like
//! `Instant::now` sound: the only way the token survives into the code
//! channel is by being actual code.

/// One classified source line.
#[derive(Debug)]
pub struct Line {
    /// The untouched source line (no trailing newline).
    pub raw: String,
    /// The line with string/char contents and comments replaced by
    /// spaces. String *delimiters* are kept so quote-adjacent tokens
    /// still read naturally.
    pub code: String,
    /// The text of a `//` comment on this line, if any (without the
    /// slashes). Block-comment text is dropped: suppression directives
    /// must be line comments.
    pub comment: String,
}

/// A classified file: lines plus the `#[cfg(test)]`-region map.
#[derive(Debug)]
pub struct SourceFile {
    /// Workspace-relative path with forward slashes.
    pub rel: String,
    /// Classified lines, index 0 = line 1.
    pub lines: Vec<Line>,
    /// `in_test[i]` — line `i` sits inside a `#[cfg(test)]` item.
    pub in_test: Vec<bool>,
}

impl SourceFile {
    /// Classifies `text` into the line model.
    pub fn parse(rel: String, text: &str) -> SourceFile {
        let lines = classify(text);
        let in_test = test_flags(&lines);
        SourceFile {
            rel,
            lines,
            in_test,
        }
    }

    /// Lines that are neither blank, nor `//` comments (doc comments
    /// included), nor inside a `#[cfg(test)]` item.
    pub fn non_test_lines(&self) -> usize {
        self.lines
            .iter()
            .zip(&self.in_test)
            .filter(|(line, &test)| {
                let text = line.raw.trim_start();
                !test && !text.is_empty() && !text.starts_with("//")
            })
            .count()
    }
}

/// Lexer state carried across lines (strings and block comments span
/// physical lines in Rust).
enum Mode {
    Code,
    /// Inside `/* ... */`, with nesting depth.
    Block(u32),
    /// Inside a normal `"..."` string.
    Str,
    /// Inside `r"..."` / `r#"..."#` with the given hash count.
    RawStr(usize),
}

fn classify(text: &str) -> Vec<Line> {
    let mut mode = Mode::Code;
    let mut out = Vec::new();
    for raw in text.lines() {
        let b = raw.as_bytes();
        let mut code = String::with_capacity(raw.len());
        let mut comment = String::new();
        let mut i = 0;
        while i < b.len() {
            match mode {
                Mode::Code => match b[i] {
                    b'/' if b.get(i + 1) == Some(&b'/') => {
                        comment = raw[i + 2..].to_string();
                        code.push_str(&" ".repeat(b.len() - i));
                        i = b.len();
                    }
                    b'/' if b.get(i + 1) == Some(&b'*') => {
                        mode = Mode::Block(1);
                        code.push_str("  ");
                        i += 2;
                    }
                    b'"' => {
                        mode = Mode::Str;
                        code.push('"');
                        i += 1;
                    }
                    b'r' | b'b' if !prev_is_ident(&code) => {
                        // Possible raw/byte string prefix.
                        let (consumed, new_mode) = string_prefix(&b[i..]);
                        if consumed > 0 {
                            code.push_str(&" ".repeat(consumed));
                            i += consumed;
                            mode = new_mode;
                        } else {
                            code.push(b[i] as char);
                            i += 1;
                        }
                    }
                    b'\'' => {
                        // Char literal vs lifetime. A literal is either
                        // `'\...'` or `'X'` (any single char / UTF-8
                        // sequence, closed within a few bytes).
                        let lit_len = char_literal_len(&b[i..]);
                        if lit_len > 0 {
                            code.push('\'');
                            code.push_str(&" ".repeat(lit_len - 1));
                            i += lit_len;
                        } else {
                            code.push('\'');
                            i += 1;
                        }
                    }
                    c => {
                        code.push(c as char);
                        i += 1;
                    }
                },
                Mode::Block(depth) => {
                    if b[i] == b'/' && b.get(i + 1) == Some(&b'*') {
                        mode = Mode::Block(depth + 1);
                        code.push_str("  ");
                        i += 2;
                    } else if b[i] == b'*' && b.get(i + 1) == Some(&b'/') {
                        mode = if depth <= 1 {
                            Mode::Code
                        } else {
                            Mode::Block(depth - 1)
                        };
                        code.push_str("  ");
                        i += 2;
                    } else {
                        code.push(' ');
                        i += 1;
                    }
                }
                Mode::Str => match b[i] {
                    b'\\' => {
                        code.push_str("  ");
                        i += 2.min(b.len() - i);
                    }
                    b'"' => {
                        mode = Mode::Code;
                        code.push('"');
                        i += 1;
                    }
                    _ => {
                        code.push(' ');
                        i += 1;
                    }
                },
                Mode::RawStr(hashes) => {
                    if b[i] == b'"'
                        && b[i + 1..].iter().take_while(|&&c| c == b'#').count() >= hashes
                    {
                        mode = Mode::Code;
                        code.push('"');
                        code.push_str(&" ".repeat(hashes));
                        i += 1 + hashes;
                    } else {
                        code.push(' ');
                        i += 1;
                    }
                }
            }
        }
        // A string can only continue across lines when escaped or raw;
        // normal `Mode::Str` at EOL is a continued multi-line string —
        // Rust allows it, so the mode simply carries over.
        out.push(Line {
            raw: raw.to_string(),
            code,
            comment,
        });
    }
    out
}

/// Whether the last pushed code char continues an identifier (so an
/// `r` / `b` here is part of a name like `var`, not a string prefix).
fn prev_is_ident(code: &str) -> bool {
    code.chars()
        .last()
        .is_some_and(|c| c.is_ascii_alphanumeric() || c == '_')
}

/// Recognizes `r"`, `br"`, `b"`, `r#"`, `br##"` … at the start of `b`.
/// Returns (bytes consumed through the opening quote, mode to enter);
/// consumed = 0 when this is not a string prefix.
fn string_prefix(b: &[u8]) -> (usize, Mode) {
    let mut i = 0;
    if b.get(i) == Some(&b'b') {
        i += 1;
    }
    let raw = b.get(i) == Some(&b'r');
    if raw {
        i += 1;
    }
    let hashes = b[i..].iter().take_while(|&&c| c == b'#').count();
    if !raw && hashes > 0 {
        return (0, Mode::Code);
    }
    i += hashes;
    if b.get(i) == Some(&b'"') {
        let mode = if raw { Mode::RawStr(hashes) } else { Mode::Str };
        (i + 1, mode)
    } else {
        (0, Mode::Code)
    }
}

/// Length of a char literal starting at `b[0] == b'\''`, or 0 when this
/// is a lifetime.
fn char_literal_len(b: &[u8]) -> usize {
    if b.get(1) == Some(&b'\\') {
        // Escaped: scan to the closing quote.
        for (j, &c) in b.iter().enumerate().skip(2) {
            if c == b'\'' {
                return j + 1;
            }
            if j > 12 {
                break; // not a literal we recognize
            }
        }
        return 0;
    }
    // `'X'` where X may be multi-byte UTF-8: closing quote within 5.
    for (j, &c) in b.iter().enumerate().skip(2).take(4) {
        if c == b'\'' {
            return j + 1;
        }
    }
    0
}

/// Marks every line that sits inside a `#[cfg(test)]` item (the
/// attribute line, the item's braces, and everything between). Works by
/// brace counting on the code channel: when the attribute is pending,
/// the next `{` opens a region that closes when depth returns to its
/// entry value.
fn test_flags(lines: &[Line]) -> Vec<bool> {
    let mut flags = vec![false; lines.len()];
    let mut depth: i64 = 0;
    let mut pending = false;
    let mut region_entry: Option<i64> = None;
    for (idx, line) in lines.iter().enumerate() {
        let code = &line.code;
        if region_entry.is_none()
            && (code.contains("#[cfg(test)]") || code.contains("#[cfg(all(test"))
        {
            pending = true;
        }
        let mut mark = pending || region_entry.is_some();
        for c in code.bytes() {
            match c {
                b'{' => {
                    if pending && region_entry.is_none() {
                        region_entry = Some(depth);
                        pending = false;
                        mark = true;
                    }
                    depth += 1;
                }
                b'}' => {
                    depth -= 1;
                    if region_entry.is_some_and(|d| depth <= d) {
                        region_entry = None;
                        mark = true;
                    }
                }
                // `#[cfg(test)] mod x;` — applies to another file.
                b';' if pending && region_entry.is_none() => {
                    pending = false;
                }
                _ => {}
            }
        }
        flags[idx] = mark || region_entry.is_some();
    }
    flags
}

#[cfg(test)]
mod tests {
    use super::*;

    fn code_of(text: &str) -> Vec<String> {
        classify(text).into_iter().map(|l| l.code).collect()
    }

    #[test]
    fn strings_and_comments_are_blanked() {
        let c = code_of("let x = \"Instant::now\"; // Instant::now\nuse a;");
        assert!(!c[0].contains("Instant"));
        assert!(c[0].starts_with("let x = \""));
        assert_eq!(c[1], "use a;");
        let lines = classify("foo(); // pamdc-lint: allow(x) -- y");
        assert_eq!(lines[0].comment.trim(), "pamdc-lint: allow(x) -- y");
    }

    #[test]
    fn raw_strings_and_chars() {
        let c = code_of("let s = r#\"a \"quoted\" b\"#; s[0];");
        assert!(!c[0].contains("quoted"));
        assert!(c[0].contains("s[0];"));
        let c = code_of("let c = 'x'; let l: &'a str = y; let e = '\\n';");
        assert!(c[0].contains("let l: &'a str = y"));
        assert!(!c[0].contains('x'));
        assert!(!c[0].contains("\\n"));
    }

    #[test]
    fn block_comments_nest_and_span_lines() {
        let c = code_of("a(); /* x /* y */ z\nstill comment */ b();");
        assert!(c[0].starts_with("a();"));
        assert!(!c[0].contains('z'));
        assert!(!c[1].contains("still"));
        assert!(c[1].contains("b();"));
    }

    #[test]
    fn cfg_test_regions_are_marked() {
        let text = "fn live() {}\n#[cfg(test)]\nmod tests {\n    fn t() { x.unwrap(); }\n}\nfn after() {}\n";
        let lines = classify(text);
        let flags = test_flags(&lines);
        assert_eq!(flags, vec![false, true, true, true, true, false]);
    }

    #[test]
    fn cfg_test_on_single_item() {
        let text = "#[cfg(test)]\nfn helper() {\n    boom();\n}\nfn live() {}\n";
        let flags = test_flags(&classify(text));
        assert_eq!(flags, vec![true, true, true, true, false]);
    }

    #[test]
    fn non_test_lines_skip_blanks_comments_and_tests() {
        let text =
            "//! Crate doc.\n\n/// Item doc.\nfn live() {\n    // note\n    go(); // tail\n}\n\
                    #[cfg(test)]\nmod tests {\n    fn t() {}\n}\n";
        let sf = SourceFile::parse("x.rs".into(), text);
        assert_eq!(sf.non_test_lines(), 3, "fn line, call, closing brace");
    }
}
