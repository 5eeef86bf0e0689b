//! Token-level lexer shared by every lint (DESIGN.md §9).
//!
//! The PR-1 engine scanned regex-masked lines, which cannot tell a
//! `HashMap` mentioned in a doc string from one iterated in code. This
//! lexer produces a real token stream — identifiers, punctuation,
//! string/char literals, lifetimes, numbers and (doc) comments — with
//! byte-accurate spans, handling the constructs that defeat line
//! regexes:
//!
//! - raw strings `r"…"` / `r#"…"#` (any hash depth) and byte strings
//!   `b"…"` / `br#"…"#`;
//! - raw identifiers `r#type` (NOT strings);
//! - nested block comments `/* /* */ */` and doc comments;
//! - `'a` lifetimes vs `'a'` char literals (including escapes and
//!   multi-byte chars like `'é'`).
//!
//! Lints pattern-match over [`code`] tokens (comments stripped), so a
//! `".unwrap()"` inside a string or comment can never fire, and
//! adjacency checks (`v[` vs `v [`) use the spans.

use std::fmt;

/// Classification of one lexed token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// Identifier or keyword (including raw identifiers like `r#type`).
    Ident,
    /// A lifetime such as `'a` or `'static` (leading quote included).
    Lifetime,
    /// Char literal `'x'`, `'\n'`, `b'x'`.
    Char,
    /// String literal `"…"` or byte string `b"…"`.
    Str,
    /// Raw string literal `r"…"`, `r#"…"#`, `br#"…"#`.
    RawStr,
    /// Numeric literal (integer or float, any base).
    Num,
    /// `// …` comment (doc comments `///`/`//!` included).
    LineComment,
    /// `/* … */` comment, nesting handled (doc `/** … */` included).
    BlockComment,
    /// A single punctuation byte (`.`, `{`, `!`, …).
    Punct,
}

/// One token with its byte span in the source.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Token<'a> {
    /// What the token is.
    pub kind: TokenKind,
    /// Byte offset of the first byte.
    pub start: usize,
    /// Byte offset one past the last byte.
    pub end: usize,
    /// The token's text (`src[start..end]`).
    pub text: &'a str,
}

impl Token<'_> {
    /// True for any comment token.
    pub fn is_comment(&self) -> bool {
        matches!(self.kind, TokenKind::LineComment | TokenKind::BlockComment)
    }

    /// True when this is the punctuation byte `c`.
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokenKind::Punct && self.text.len() == c.len_utf8() && self.text.starts_with(c)
    }

    /// True when this is an identifier with exactly this text.
    pub fn is_ident(&self, name: &str) -> bool {
        self.kind == TokenKind::Ident && self.text == name
    }

    /// The literal body of a `Str` token (quotes stripped, escapes NOT
    /// processed) or of a `RawStr` token (prefix/hashes/quotes
    /// stripped). `None` for other kinds.
    pub fn str_body(&self) -> Option<&str> {
        match self.kind {
            TokenKind::Str => {
                let t = self.text.strip_prefix('b').unwrap_or(self.text);
                t.strip_prefix('"')?.strip_suffix('"')
            }
            TokenKind::RawStr => {
                let t = self.text.strip_prefix('b').unwrap_or(self.text);
                let t = t.strip_prefix('r')?;
                let hashes = t.bytes().take_while(|&b| b == b'#').count();
                let t = &t[hashes..];
                let t = t.strip_prefix('"')?;
                let t = t.strip_suffix(&"#".repeat(hashes)).unwrap_or(t);
                t.strip_suffix('"')
            }
            _ => None,
        }
    }
}

impl fmt::Display for Token<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}({})", self.kind, self.text)
    }
}

fn is_ident_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_'
}

fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Lexes `src` into a full token stream (comments included, whitespace
/// dropped). Never fails: unterminated literals extend to EOF and any
/// byte the grammar does not recognize becomes a [`TokenKind::Punct`].
pub fn tokenize(src: &str) -> Vec<Token<'_>> {
    let bytes = src.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        let b = bytes[i];
        let start = i;
        let (kind, end) = match b {
            b if b.is_ascii_whitespace() => {
                i += 1;
                continue;
            }
            b'/' if bytes.get(i + 1) == Some(&b'/') => {
                let end = src[i..].find('\n').map_or(bytes.len(), |n| i + n);
                (TokenKind::LineComment, end)
            }
            b'/' if bytes.get(i + 1) == Some(&b'*') => {
                (TokenKind::BlockComment, block_comment_end(bytes, i))
            }
            b'r' | b'b' => match string_prefix(bytes, i) {
                Some((kind, end)) => (kind, end),
                None => (TokenKind::Ident, ident_end(bytes, i)),
            },
            b'"' => (TokenKind::Str, string_end(bytes, i + 1)),
            b'\'' => quote_token(src, bytes, i),
            b if is_ident_start(b) => (TokenKind::Ident, ident_end(bytes, i)),
            b if b.is_ascii_digit() => (TokenKind::Num, number_end(bytes, i)),
            _ => {
                // One punctuation byte — or one UTF-8 char, so we never
                // split a multi-byte sequence.
                let ch_len = src[i..].chars().next().map_or(1, char::len_utf8);
                (TokenKind::Punct, i + ch_len)
            }
        };
        out.push(Token {
            kind,
            start,
            end,
            text: &src[start..end],
        });
        i = end;
    }
    out
}

/// The non-comment tokens of a stream (the view lints scan).
pub fn code<'a, 'b>(tokens: &'b [Token<'a>]) -> Vec<&'b Token<'a>> {
    tokens.iter().filter(|t| !t.is_comment()).collect()
}

fn ident_end(bytes: &[u8], i: usize) -> usize {
    // Raw identifier `r#type`: exactly one hash then an ident start.
    let mut j = i;
    if bytes[i] == b'r'
        && bytes.get(i + 1) == Some(&b'#')
        && bytes.get(i + 2).copied().is_some_and(is_ident_start)
    {
        j = i + 2;
    }
    while j < bytes.len() && is_ident_byte(bytes[j]) {
        j += 1;
    }
    j.max(i + 1)
}

fn number_end(bytes: &[u8], i: usize) -> usize {
    let mut j = i;
    while j < bytes.len() {
        if is_ident_byte(bytes[j]) {
            j += 1;
        } else if bytes[j] == b'.'
            && bytes
                .get(j + 1)
                .copied()
                .is_some_and(|b| b.is_ascii_digit())
            && j > i
        {
            // `1.5` continues the number; `1..n` and `1.max()` do not.
            j += 1;
        } else {
            break;
        }
    }
    j
}

fn block_comment_end(bytes: &[u8], i: usize) -> usize {
    let mut depth = 1usize;
    let mut j = i + 2;
    while j < bytes.len() && depth > 0 {
        if bytes[j] == b'/' && bytes.get(j + 1) == Some(&b'*') {
            depth += 1;
            j += 2;
        } else if bytes[j] == b'*' && bytes.get(j + 1) == Some(&b'/') {
            depth -= 1;
            j += 2;
        } else {
            j += 1;
        }
    }
    j
}

/// Recognizes `r"…"`, `r#…#"…"#…#`, `b"…"`, `br#"…"#` and `b'…'`
/// starting at `i`; `None` when the `r`/`b` begins a plain identifier.
fn string_prefix(bytes: &[u8], i: usize) -> Option<(TokenKind, usize)> {
    let (raw, mut j) = match bytes[i] {
        b'b' if bytes.get(i + 1) == Some(&b'r') => (true, i + 2),
        b'b' if bytes.get(i + 1) == Some(&b'"') => {
            return Some((TokenKind::Str, string_end(bytes, i + 2)));
        }
        b'b' if bytes.get(i + 1) == Some(&b'\'') => {
            let end = char_end(bytes, i + 1)?;
            return Some((TokenKind::Char, end));
        }
        b'r' => (true, i + 1),
        _ => return None,
    };
    if !raw {
        return None;
    }
    let mut hashes = 0;
    while bytes.get(j) == Some(&b'#') {
        hashes += 1;
        j += 1;
    }
    if bytes.get(j) != Some(&b'"') {
        return None; // raw identifier or plain ident starting with r/b
    }
    Some((TokenKind::RawStr, raw_string_end(bytes, j + 1, hashes)))
}

fn raw_string_end(bytes: &[u8], mut j: usize, hashes: usize) -> usize {
    while j < bytes.len() {
        if bytes[j] == b'"' {
            let mut k = j + 1;
            let mut seen = 0;
            while seen < hashes && bytes.get(k) == Some(&b'#') {
                seen += 1;
                k += 1;
            }
            if seen == hashes {
                return k;
            }
        }
        j += 1;
    }
    bytes.len()
}

fn string_end(bytes: &[u8], mut j: usize) -> usize {
    while j < bytes.len() {
        match bytes[j] {
            b'\\' => j += 2,
            b'"' => return j + 1,
            _ => j += 1,
        }
    }
    bytes.len()
}

/// Char literal ending at the closing quote, starting from the opening
/// quote at `i`. `None` when the quote does not open a char literal.
fn char_end(bytes: &[u8], i: usize) -> Option<usize> {
    let j = i + 1;
    match bytes.get(j)? {
        b'\\' => {
            let mut k = j + 2;
            while k < bytes.len() && bytes[k] != b'\'' {
                k += 1;
            }
            Some((k + 1).min(bytes.len()))
        }
        _ => {
            // One char (possibly multi-byte) then a closing quote.
            let ch_len = core::str::from_utf8(&bytes[j..])
                .ok()
                .and_then(|s| s.chars().next())
                .map_or(1, char::len_utf8);
            (bytes.get(j + ch_len) == Some(&b'\'')).then_some(j + ch_len + 1)
        }
    }
}

/// Disambiguates `'` at `i`: char literal, lifetime, or stray quote.
fn quote_token(src: &str, bytes: &[u8], i: usize) -> (TokenKind, usize) {
    if let Some(end) = char_end(bytes, i) {
        // `'a'` parses as a char only when the closer is really there;
        // `'a` followed by anything else is a lifetime.
        let next = bytes.get(i + 1).copied();
        let is_ident_char = next.is_some_and(is_ident_byte);
        if !is_ident_char || bytes.get(end - 1) == Some(&b'\'') {
            return (TokenKind::Char, end);
        }
    }
    let next = bytes.get(i + 1).copied();
    if next.is_some_and(is_ident_start) {
        return (TokenKind::Lifetime, ident_end(bytes, i + 1));
    }
    let ch_len = src[i..].chars().next().map_or(1, char::len_utf8);
    (TokenKind::Punct, i + ch_len)
}

/// Replaces comments and string/char-literal bodies with spaces,
/// newlines preserved: the masked text has the same byte length and
/// line structure as the input. Built on [`tokenize`], so raw strings,
/// nested comments and lifetimes are handled exactly.
pub fn mask(src: &str) -> String {
    let mut out: Vec<u8> = src.as_bytes().to_vec();
    for t in tokenize(src) {
        let blank = matches!(
            t.kind,
            TokenKind::Str
                | TokenKind::RawStr
                | TokenKind::Char
                | TokenKind::LineComment
                | TokenKind::BlockComment
        );
        if blank {
            for b in &mut out[t.start..t.end] {
                if *b != b'\n' {
                    *b = b' ';
                }
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// Byte ranges of `#[cfg(test)]` item bodies, computed on the token
/// stream: from the attribute's `#` to the matching close brace of the
/// item that follows it.
pub fn test_regions(tokens: &[Token<'_>]) -> Vec<(usize, usize)> {
    let code: Vec<&Token<'_>> = code(tokens);
    let mut regions = Vec::new();
    let mut i = 0;
    while i + 6 < code.len() {
        let attr = code[i].is_punct('#')
            && code[i + 1].is_punct('[')
            && code[i + 2].is_ident("cfg")
            && code[i + 3].is_punct('(')
            && code[i + 4].is_ident("test")
            && code[i + 5].is_punct(')')
            && code[i + 6].is_punct(']');
        if !attr {
            i += 1;
            continue;
        }
        // Find the item's opening brace, then match it.
        let mut j = i + 7;
        while j < code.len() && !code[j].is_punct('{') {
            j += 1;
        }
        if j == code.len() {
            break;
        }
        let mut depth = 0usize;
        let mut k = j;
        while k < code.len() {
            if code[k].is_punct('{') {
                depth += 1;
            } else if code[k].is_punct('}') {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            k += 1;
        }
        let end = if k < code.len() {
            code[k].end
        } else {
            code[code.len() - 1].end
        };
        regions.push((code[i].start, end));
        // Continue after the region.
        while i < code.len() && code[i].start < end {
            i += 1;
        }
    }
    regions
}

/// True when `offset` falls inside any of `regions`.
pub fn in_regions(offset: usize, regions: &[(usize, usize)]) -> bool {
    regions.iter().any(|&(s, e)| offset >= s && offset < e)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokenKind, &str)> {
        tokenize(src)
            .into_iter()
            .map(|t| (t.kind, t.text))
            .collect()
    }

    #[test]
    fn raw_strings_any_hash_depth() {
        let src = r####"let s = r#"a "quote" [0] .unwrap()"#; let t = r"plain";"####;
        let toks = kinds(src);
        let raws: Vec<&str> = toks
            .iter()
            .filter(|(k, _)| *k == TokenKind::RawStr)
            .map(|(_, t)| *t)
            .collect();
        assert_eq!(raws.len(), 2, "{toks:?}");
        assert!(raws[0].contains("unwrap"));
        // No unwrap/index tokens leaked out of the literal.
        assert!(!toks
            .iter()
            .any(|(k, t)| *k == TokenKind::Ident && *t == "unwrap"));
        assert!(!toks
            .iter()
            .any(|(k, t)| *k == TokenKind::Punct && *t == "["));
    }

    #[test]
    fn byte_strings_and_byte_chars() {
        let toks = kinds(r##"let a = b"bytes"; let c = b'\n'; let d = br#"raw"#;"##);
        assert!(toks
            .iter()
            .any(|(k, t)| *k == TokenKind::Str && t.starts_with("b\"")));
        assert!(toks
            .iter()
            .any(|(k, t)| *k == TokenKind::Char && t.starts_with("b'")));
        assert!(toks
            .iter()
            .any(|(k, t)| *k == TokenKind::RawStr && t.starts_with("br#")));
    }

    #[test]
    fn raw_identifiers_are_idents_not_strings() {
        let toks = kinds("fn r#type(r#fn: u8) {}");
        assert!(toks
            .iter()
            .any(|(k, t)| *k == TokenKind::Ident && *t == "r#type"));
        assert!(toks
            .iter()
            .any(|(k, t)| *k == TokenKind::Ident && *t == "r#fn"));
        assert!(!toks.iter().any(|(k, _)| *k == TokenKind::RawStr));
    }

    #[test]
    fn nested_block_comments() {
        let src = "/* outer /* inner .unwrap() */ still outer */ x.expect(\"m\")";
        let toks = tokenize(src);
        assert_eq!(toks[0].kind, TokenKind::BlockComment);
        assert!(toks[0].text.contains("inner"));
        assert!(toks[0].text.ends_with("*/"));
        let idents: Vec<&str> = toks
            .iter()
            .filter(|t| t.kind == TokenKind::Ident)
            .map(|t| t.text)
            .collect();
        assert_eq!(idents, vec!["x", "expect"]);
    }

    #[test]
    fn lifetimes_vs_char_literals() {
        let src = "fn f<'a>(x: &'a str) { let c = 'x'; let e = '\\n'; let u = 'é'; let s: &'static str = x; }";
        let toks = kinds(src);
        let lifetimes: Vec<&str> = toks
            .iter()
            .filter(|(k, _)| *k == TokenKind::Lifetime)
            .map(|(_, t)| *t)
            .collect();
        assert_eq!(lifetimes, vec!["'a", "'a", "'static"]);
        let chars: Vec<&str> = toks
            .iter()
            .filter(|(k, _)| *k == TokenKind::Char)
            .map(|(_, t)| *t)
            .collect();
        assert_eq!(chars, vec!["'x'", "'\\n'", "'é'"]);
    }

    #[test]
    fn string_embedded_lint_text_stays_inside_literals() {
        // The regex engine's classic false-positive class: panicky text
        // and collection names inside plain strings.
        let src = r#"let msg = "call .unwrap() on a HashMap[0] then panic!";"#;
        let toks = tokenize(src);
        let idents: Vec<&str> = toks
            .iter()
            .filter(|t| t.kind == TokenKind::Ident)
            .map(|t| t.text)
            .collect();
        assert_eq!(idents, vec!["let", "msg"]);
    }

    #[test]
    fn numbers_do_not_swallow_ranges_or_methods() {
        let toks = kinds("let a = 1.5e3; let r = 0..10; let m = 1.max(2); let h = 0xFF_u32;");
        let nums: Vec<&str> = toks
            .iter()
            .filter(|(k, _)| *k == TokenKind::Num)
            .map(|(_, t)| *t)
            .collect();
        assert_eq!(nums, vec!["1.5e3", "0", "10", "1", "2", "0xFF_u32"]);
        assert!(toks
            .iter()
            .any(|(k, t)| *k == TokenKind::Ident && *t == "max"));
    }

    #[test]
    fn str_body_strips_delimiters() {
        let toks = tokenize(r###"let a = "plain"; let b = r#"raw"#; let c = b"bytes";"###);
        let bodies: Vec<&str> = toks.iter().filter_map(Token::str_body).collect();
        assert_eq!(bodies, vec!["plain", "raw", "bytes"]);
    }

    #[test]
    fn mask_preserves_length_and_newlines() {
        let src = "let a = \"unwrap()\"; // .unwrap()\nlet b = x.unwrap();";
        let m = mask(src);
        assert_eq!(m.len(), src.len());
        assert_eq!(m.matches(".unwrap").count(), 1);
        assert!(m.contains("let b = x.unwrap();"));
    }

    #[test]
    fn test_regions_cover_cfg_test_items() {
        let src = "fn lib() { x.unwrap(); }\n#[cfg(test)]\nmod tests {\n  fn t() { y.unwrap(); }\n}\nfn tail() {}";
        let toks = tokenize(src);
        let regions = test_regions(&toks);
        assert_eq!(regions.len(), 1);
        let lib_pos = src.find("x.unwrap").expect("lib code");
        let test_pos = src.find("y.unwrap").expect("test code");
        let tail_pos = src.find("fn tail").expect("tail");
        assert!(!in_regions(lib_pos, &regions));
        assert!(in_regions(test_pos, &regions));
        assert!(!in_regions(tail_pos, &regions));
    }

    #[test]
    fn unterminated_literals_reach_eof_without_panicking() {
        for src in ["let s = \"open", "let s = r#\"open", "/* open", "let c = '"] {
            let toks = tokenize(src);
            assert!(!toks.is_empty());
            assert_eq!(toks.last().map(|t| t.end), Some(src.len()));
        }
    }
}
