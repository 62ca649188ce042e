//! Comment- and string-aware source model.
//!
//! The lint rules are token-level substring checks, so the scanner's job
//! is to make those checks precise: for every source line it separates
//! the *code* text (string/char literal contents blanked out) from the
//! *comment* text (where `acdc-lint: allow(...)` directives live). A
//! `HashMap` mentioned in a doc comment or inside a string literal must
//! never trip a rule.

/// One physical source line, split into lintable code and comment text.
#[derive(Debug, Clone, Default)]
pub struct Line {
    /// Source text with comments removed and string/char literal contents
    /// replaced by spaces (delimiters kept, so `"..."` stays visible as a
    /// literal but its contents can't match rule tokens).
    pub code: String,
    /// Concatenated comment text of the line (`//`, `///`, `/* */`).
    pub comment: String,
}

/// A scanned file: lines plus the rule IDs allowed per line.
#[derive(Debug, Default)]
pub struct SourceFile {
    pub lines: Vec<Line>,
}

#[derive(Clone, Copy, PartialEq)]
enum State {
    Code,
    LineComment,
    BlockComment(u32),
    Str,
    RawStr(u32),
}

impl SourceFile {
    /// Scan `text` into per-line code/comment channels.
    pub fn scan(text: &str) -> SourceFile {
        let mut lines = Vec::new();
        let mut cur = Line::default();
        let mut state = State::Code;
        let bytes: Vec<char> = text.chars().collect();
        let mut i = 0usize;

        macro_rules! flush_line {
            () => {
                lines.push(std::mem::take(&mut cur));
            };
        }

        while i < bytes.len() {
            let c = bytes[i];
            let next = bytes.get(i + 1).copied();

            if c == '\n' {
                if state == State::LineComment {
                    state = State::Code;
                }
                flush_line!();
                i += 1;
                continue;
            }

            match state {
                State::Code => match c {
                    '/' if next == Some('/') => {
                        state = State::LineComment;
                        i += 2;
                        // Swallow doc-comment markers so directive text
                        // starts at the payload.
                        while matches!(bytes.get(i), Some('/') | Some('!')) {
                            i += 1;
                        }
                    }
                    '/' if next == Some('*') => {
                        state = State::BlockComment(1);
                        i += 2;
                    }
                    'r' | 'b' if is_raw_str_start(&bytes, i) => {
                        let (hashes, consumed) = raw_str_open(&bytes, i);
                        for _ in 0..consumed {
                            cur.code.push(bytes[i]);
                            i += 1;
                        }
                        state = State::RawStr(hashes);
                    }
                    '"' => {
                        cur.code.push('"');
                        state = State::Str;
                        i += 1;
                    }
                    '\'' => {
                        // Char literal vs lifetime. A char literal is 'x',
                        // '\..' (escape), or '\u{..}'. A lifetime is 'ident
                        // with no closing quote right after.
                        if next == Some('\\') {
                            // Escaped char literal: consume to closing quote.
                            cur.code.push('\'');
                            i += 2;
                            // The escaped character itself may be a quote
                            // ('\''): consume it before scanning for the
                            // closing quote, or the escaped quote reads as
                            // the terminator and the real one leaks into
                            // the code channel.
                            if i < bytes.len() && bytes[i] != '\n' {
                                cur.code.push(' ');
                                i += 1;
                            }
                            while i < bytes.len() && bytes[i] != '\'' && bytes[i] != '\n' {
                                cur.code.push(' ');
                                i += 1;
                            }
                            if bytes.get(i) == Some(&'\'') {
                                cur.code.push('\'');
                                i += 1;
                            }
                        } else if bytes.get(i + 2) == Some(&'\'') && next.is_some() {
                            // Simple one-char literal (covers '"' and '\'').
                            cur.code.push('\'');
                            cur.code.push(' ');
                            cur.code.push('\'');
                            i += 3;
                        } else {
                            // Lifetime or label: keep as-is.
                            cur.code.push('\'');
                            i += 1;
                        }
                    }
                    _ => {
                        cur.code.push(c);
                        i += 1;
                    }
                },
                State::LineComment => {
                    cur.comment.push(c);
                    i += 1;
                }
                State::BlockComment(depth) => {
                    if c == '*' && next == Some('/') {
                        if depth == 1 {
                            state = State::Code;
                        } else {
                            state = State::BlockComment(depth - 1);
                        }
                        i += 2;
                    } else if c == '/' && next == Some('*') {
                        state = State::BlockComment(depth + 1);
                        i += 2;
                    } else {
                        cur.comment.push(c);
                        i += 1;
                    }
                }
                State::Str => match c {
                    '\\' => {
                        cur.code.push(' ');
                        if next.is_some() && next != Some('\n') {
                            cur.code.push(' ');
                            i += 2;
                        } else {
                            i += 1;
                        }
                    }
                    '"' => {
                        cur.code.push('"');
                        state = State::Code;
                        i += 1;
                    }
                    _ => {
                        cur.code.push(' ');
                        i += 1;
                    }
                },
                State::RawStr(hashes) => {
                    if c == '"' && closes_raw_str(&bytes, i, hashes) {
                        cur.code.push('"');
                        for _ in 0..hashes {
                            cur.code.push('#');
                        }
                        i += 1 + hashes as usize;
                        state = State::Code;
                    } else {
                        cur.code.push(' ');
                        i += 1;
                    }
                }
            }
        }
        flush_line!();
        SourceFile { lines }
    }

    /// Rule IDs suppressed on `line` (0-based) by `acdc-lint: allow(...)`
    /// directives: on the same line, or on an immediately preceding
    /// comment-only line.
    pub fn allows_on(&self, line: usize) -> Vec<String> {
        let mut out = parse_allow(&self.lines[line].comment);
        // Walk upwards through contiguous comment-only lines.
        let mut l = line;
        while l > 0 {
            l -= 1;
            let prev = &self.lines[l];
            if prev.code.trim().is_empty() && !prev.comment.trim().is_empty() {
                out.extend(parse_allow(&prev.comment));
            } else {
                break;
            }
        }
        out
    }
}

/// Parse `acdc-lint: allow(A, B)` out of comment text.
pub(crate) fn parse_allow(comment: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut rest = comment;
    while let Some(pos) = rest.find("acdc-lint:") {
        rest = &rest[pos + "acdc-lint:".len()..];
        let trimmed = rest.trim_start();
        if let Some(args) = trimmed.strip_prefix("allow(") {
            if let Some(end) = args.find(')') {
                for id in args[..end].split(',') {
                    let id = id.trim();
                    if !id.is_empty() {
                        out.push(id.to_string());
                    }
                }
            }
        }
    }
    out
}

fn is_raw_str_start(bytes: &[char], i: usize) -> bool {
    // r"  r#"  br"  br#"  b"<- not raw (plain byte string; scanner treats
    // it as a normal string via the '"' arm after consuming 'b').
    let mut j = i;
    if bytes.get(j) == Some(&'b') {
        j += 1;
    }
    if bytes.get(j) != Some(&'r') {
        return false;
    }
    j += 1;
    while bytes.get(j) == Some(&'#') {
        j += 1;
    }
    bytes.get(j) == Some(&'"')
}

/// Returns (hash count, chars consumed including opening quote).
fn raw_str_open(bytes: &[char], i: usize) -> (u32, usize) {
    let mut j = i;
    if bytes.get(j) == Some(&'b') {
        j += 1;
    }
    j += 1; // 'r'
    let mut hashes = 0u32;
    while bytes.get(j) == Some(&'#') {
        hashes += 1;
        j += 1;
    }
    j += 1; // '"'
    (hashes, j - i)
}

fn closes_raw_str(bytes: &[char], i: usize, hashes: u32) -> bool {
    for k in 0..hashes as usize {
        if bytes.get(i + 1 + k) != Some(&'#') {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_and_comments_are_separated() {
        let f = SourceFile::scan("let x = \"HashMap\"; // HashMap here\n");
        assert!(!f.lines[0].code.contains("HashMap"));
        assert!(f.lines[0].comment.contains("HashMap"));
    }

    #[test]
    fn block_comments_nest() {
        let f = SourceFile::scan("a /* x /* y */ z */ b\nc\n");
        assert_eq!(f.lines[0].code.replace(' ', ""), "ab");
        assert_eq!(f.lines[1].code, "c");
    }

    #[test]
    fn raw_strings_blanked() {
        let f = SourceFile::scan("let s = r#\"Instant::now\"#;\n");
        assert!(!f.lines[0].code.contains("Instant::now"));
    }

    #[test]
    fn char_literal_with_quote_does_not_open_string() {
        let f = SourceFile::scan("let c = '\"'; let h = HashMap::new();\n");
        assert!(f.lines[0].code.contains("HashMap"));
    }

    #[test]
    fn allow_directive_same_line_and_previous_line() {
        let src =
            "// acdc-lint: allow(P003)\nlet t = 1;\nlet u = 2; // acdc-lint: allow(P002, P004)\n";
        let f = SourceFile::scan(src);
        assert_eq!(f.allows_on(1), vec!["P003"]);
        assert_eq!(f.allows_on(2), vec!["P002", "P004"]);
        assert!(f.allows_on(0).iter().any(|r| r == "P003"));
    }

    #[test]
    fn lifetimes_survive() {
        let f = SourceFile::scan("fn f<'a>(x: &'a str) {}\n");
        assert!(f.lines[0].code.contains("'a"));
    }

    #[test]
    fn escaped_quote_char_literal_does_not_leak() {
        // Regression: '\'' used to leave a stray quote in the code
        // channel, which then opened a phantom literal and swallowed the
        // rest of the line.
        let f = SourceFile::scan("let q = '\\''; let h = HashMap::new();\n");
        assert!(
            f.lines[0].code.contains("HashMap"),
            "code after an escaped-quote char literal must stay visible: {:?}",
            f.lines[0].code
        );
    }

    #[test]
    fn escaped_backslash_char_literal() {
        let f = SourceFile::scan("let b = '\\\\'; let h = HashMap::new();\n");
        assert!(f.lines[0].code.contains("HashMap"), "{:?}", f.lines[0].code);
    }

    #[test]
    fn unicode_escape_char_literal() {
        let f = SourceFile::scan("let u = '\\u{1F600}'; let h = HashMap::new();\n");
        assert!(f.lines[0].code.contains("HashMap"), "{:?}", f.lines[0].code);
    }

    #[test]
    fn multi_line_string_blanks_every_line() {
        let f = SourceFile::scan(
            "let s = \"first HashMap\nsecond Instant::now\nend\";\nlet h = HashMap::new();\n",
        );
        assert!(!f.lines[0].code.contains("HashMap"));
        assert!(!f.lines[1].code.contains("Instant"));
        // Comment markers inside the string must not open comments.
        let f2 = SourceFile::scan("let s = \"a // b\n/* c */ HashMap\";\nHashMap::new();\n");
        assert!(!f2.lines[0].code.contains("b"));
        assert!(!f2.lines[1].code.contains("HashMap"));
        assert!(f2.lines[2].code.contains("HashMap"));
    }

    #[test]
    fn raw_string_with_hashes_and_inner_quotes() {
        let f = SourceFile::scan(
            "let s = r##\"quote \"# inside HashMap\"##; let h = HashMap::new();\n",
        );
        let code = &f.lines[0].code;
        let pos = code.rfind("HashMap").expect("code after literal visible");
        assert!(!code[..pos].contains("HashMap"), "{code:?}");
    }

    #[test]
    fn byte_strings_are_blanked() {
        let f = SourceFile::scan("let s = b\"HashMap\"; let r = br#\"Instant::now\"#;\nok\n");
        assert!(
            !f.lines[0].code.contains("HashMap"),
            "{:?}",
            f.lines[0].code
        );
        assert!(
            !f.lines[0].code.contains("Instant"),
            "{:?}",
            f.lines[0].code
        );
        assert_eq!(f.lines[1].code, "ok");
    }

    #[test]
    fn nested_block_comment_across_lines() {
        let f = SourceFile::scan("a /* one\n/* two */ still comment HashMap\n*/ b\n");
        assert!(!f.lines[1].code.contains("HashMap"));
        assert!(f.lines[1].comment.contains("HashMap"));
        assert_eq!(f.lines[2].code.trim(), "b");
    }

    #[test]
    fn string_line_continuation_escape() {
        let f = SourceFile::scan("let s = \"start \\\n  continued HashMap\";\nHashMap::new();\n");
        assert!(
            !f.lines[1].code.contains("HashMap"),
            "{:?}",
            f.lines[1].code
        );
        assert!(f.lines[2].code.contains("HashMap"));
    }
}
