//! Masked-text helpers retained for line-oriented lints.
//!
//! The real lexical work lives in [`crate::lexer`]; this module keeps
//! the masked-text view ([`mask`] delegates to the lexer's token
//! stream) plus brace matching for the lints that still scan
//! line-shaped patterns (layering and the guard-across-channel
//! heuristic).

use crate::lexer;

/// Replaces comments and string/char-literal contents with spaces.
///
/// Newlines are preserved (line numbers stay valid) and the masked text
/// has the same byte length as the input. Built on [`lexer::tokenize`],
/// so raw strings, nested block comments and char-vs-lifetime
/// ambiguities are resolved exactly; lifetimes survive masking.
pub fn mask(src: &str) -> String {
    lexer::mask(src)
}

/// Offset one past the brace matching the `{` at `open` (or EOF).
pub fn match_brace(bytes: &[u8], open: usize) -> usize {
    let mut depth = 0usize;
    let mut j = open;
    while j < bytes.len() {
        match bytes[j] {
            b'{' => depth += 1,
            b'}' => {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    return j + 1;
                }
            }
            _ => {}
        }
        j += 1;
    }
    bytes.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn masks_comments_and_strings() {
        let src = "let a = \"unwrap()\"; // .unwrap()\nlet b = x.unwrap();";
        let m = mask(src);
        assert_eq!(m.len(), src.len());
        assert_eq!(m.matches(".unwrap").count(), 1);
        assert!(m.contains("let b = x.unwrap();"));
    }

    #[test]
    fn masks_raw_strings_and_chars() {
        let src = "let s = r#\"a [0] \"quote\" \"#; let c = '['; let lt: &'static str = x;";
        let m = mask(src);
        assert!(!m.contains('['), "brackets in literals must be masked: {m}");
        assert!(m.contains("'static"), "lifetimes must survive masking");
    }

    #[test]
    fn masks_nested_block_comments() {
        let src = "/* outer /* inner .unwrap() */ still */ x.expect(\"m\")";
        let m = mask(src);
        assert!(!m.contains("unwrap"));
        assert_eq!(m.matches(".expect").count(), 1);
    }
}
