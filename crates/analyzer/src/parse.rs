//! Lightweight structural pass over the token stream.
//!
//! Recovers just enough shape for the lints: matched brace pairs, attribute
//! extents, `#[cfg(test)]` / `#[test]` regions, and `fn` items with their
//! body spans. No expression parsing, no name resolution.

use crate::lexer::{Token, TokenKind};
use std::collections::{BTreeMap, BTreeSet};

/// A `fn` item: keyword position, name, and body extent (when it has one).
#[derive(Debug, Clone)]
pub struct FnItem {
    /// Function name (`_` if the next token isn't an identifier).
    pub name: String,
    /// Token index of the `fn` keyword.
    pub kw_idx: usize,
    /// Line of the `fn` keyword.
    pub header_line: u32,
    /// Body line range (open-brace line ..= close-brace line).
    pub body_lines: Option<(u32, u32)>,
    /// Body token index range (open brace ..= close brace).
    pub body_tokens: Option<(usize, usize)>,
}

/// Structural facts about one file.
#[derive(Debug, Default)]
pub struct Structure {
    /// Open-brace token index -> matching close-brace token index.
    pub brace_pair: BTreeMap<usize, usize>,
    /// Inclusive line ranges of `#[cfg(test)]` modules and `#[test]` fns.
    pub test_regions: Vec<(u32, u32)>,
    /// Every `fn` item in the file, in source order.
    pub fns: Vec<FnItem>,
    /// Lines covered by `#[...]` / `#![...]` attributes.
    pub attr_lines: BTreeSet<u32>,
}

impl Structure {
    /// True when `line` falls inside a `#[cfg(test)]` module or `#[test]` fn.
    pub fn in_test_region(&self, line: u32) -> bool {
        self.test_regions.iter().any(|&(a, b)| a <= line && line <= b)
    }

    /// The innermost `fn` whose body contains `line`.
    pub fn enclosing_fn(&self, line: u32) -> Option<&FnItem> {
        self.fns
            .iter()
            .filter(|f| f.body_lines.is_some_and(|(a, b)| a <= line && line <= b))
            .min_by_key(|f| {
                // INVARIANT: the filter above keeps only fns with a body.
                let (a, b) = f.body_lines.unwrap();
                b - a
            })
    }
}

/// Builds the [`Structure`] for a token stream.
pub fn analyze(tokens: &[Token]) -> Structure {
    let mut st = Structure::default();

    // Brace matching.
    let mut stack: Vec<usize> = Vec::new();
    for (i, t) in tokens.iter().enumerate() {
        if t.kind != TokenKind::Punct {
            continue;
        }
        match t.text.as_str() {
            "{" => stack.push(i),
            "}" => {
                if let Some(open) = stack.pop() {
                    st.brace_pair.insert(open, i);
                }
            }
            _ => {}
        }
    }

    // Attributes, test regions, fn items.
    let mut pending_test = false;
    let mut i = 0;
    while i < tokens.len() {
        let t = &tokens[i];
        // Attribute: `#` (`!`)? `[` ... `]`.
        if t.kind == TokenKind::Punct && t.text == "#" {
            let mut j = i + 1;
            if j < tokens.len() && tokens[j].text == "!" {
                j += 1;
            }
            if j < tokens.len() && tokens[j].text == "[" {
                let close = match_close(tokens, j);
                let idents: Vec<&str> = tokens[j..=close]
                    .iter()
                    .filter(|t| t.kind == TokenKind::Ident)
                    .map(|t| t.text.as_str())
                    .collect();
                if idents.first() == Some(&"test")
                    || (idents.contains(&"cfg") && idents.contains(&"test"))
                {
                    pending_test = true;
                }
                for l in t.line..=tokens[close].line {
                    st.attr_lines.insert(l);
                }
                i = close + 1;
                continue;
            }
        }

        if t.kind == TokenKind::Ident {
            match t.text.as_str() {
                "fn" => {
                    let name = tokens
                        .get(i + 1)
                        .filter(|n| n.kind == TokenKind::Ident)
                        .map_or_else(|| "_".to_string(), |n| n.text.clone());
                    let body = body_block(tokens, &st.brace_pair, i);
                    let item = FnItem {
                        name,
                        kw_idx: i,
                        header_line: t.line,
                        body_lines: body.map(|(o, c)| (tokens[o].line, tokens[c].line)),
                        body_tokens: body,
                    };
                    if pending_test {
                        if let Some((a, b)) = item.body_lines {
                            st.test_regions.push((a.min(item.header_line), b));
                        }
                        pending_test = false;
                    }
                    st.fns.push(item);
                }
                "mod" => {
                    if pending_test {
                        if let Some((o, c)) = body_block(tokens, &st.brace_pair, i) {
                            st.test_regions.push((t.line, tokens[c].line));
                            let _ = o;
                        }
                        pending_test = false;
                    }
                }
                // Modifiers and linkage ABI strings keep a pending `#[test]`
                // alive between the attribute and the `fn` keyword.
                "pub" | "const" | "async" | "unsafe" | "extern" | "crate" | "in" | "super"
                | "self" => {}
                _ => pending_test = false,
            }
        } else if t.kind == TokenKind::Str || matches!(t.text.as_str(), "(" | ")") {
            // `pub(crate)` / `extern "C"` between attribute and item.
        } else {
            pending_test = false;
        }
        i += 1;
    }
    st
}

/// Matching `)`/`]` for the `(`/`[` at `open` (falls back to `open` when
/// unmatched).
pub(crate) fn match_close(tokens: &[Token], open: usize) -> usize {
    let opener = tokens[open].text.as_str();
    let closer = if opener == "(" { ")" } else { "]" };
    let mut depth = 0usize;
    for (k, t) in tokens.iter().enumerate().skip(open) {
        if t.kind != TokenKind::Punct {
            continue;
        }
        if t.text == opener {
            depth += 1;
        } else if t.text == closer {
            depth -= 1;
            if depth == 0 {
                return k;
            }
        }
    }
    open
}

/// Finds the body block `{...}` of the item starting at token `start`:
/// the first `{` reached at zero paren/bracket depth before a terminating
/// `;` or the end of the enclosing block. Returns `(open_idx, close_idx)`.
pub fn body_block(
    tokens: &[Token],
    brace_pair: &BTreeMap<usize, usize>,
    start: usize,
) -> Option<(usize, usize)> {
    let mut parens = 0i32;
    let mut brackets = 0i32;
    for (k, t) in tokens.iter().enumerate().skip(start) {
        if t.kind != TokenKind::Punct {
            continue;
        }
        match t.text.as_str() {
            "(" => parens += 1,
            ")" => parens -= 1,
            "[" => brackets += 1,
            "]" => brackets -= 1,
            "{" if parens == 0 && brackets == 0 => {
                return brace_pair.get(&k).map(|&close| (k, close));
            }
            ";" if parens == 0 && brackets == 0 => return None,
            "}" if parens == 0 && brackets == 0 => return None,
            _ => {}
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    #[test]
    fn finds_fn_bodies() {
        let src = "fn a() { 1 }\npub fn b(x: [u8; 4]) -> u8 { x[0] }\nfn decl();\n";
        let lexed = lex(src);
        let st = analyze(&lexed.tokens);
        assert_eq!(st.fns.len(), 3);
        assert!(st.fns[0].body_lines.is_some());
        assert!(st.fns[1].body_lines.is_some(), "array type in signature handled");
        assert!(st.fns[2].body_lines.is_none());
    }

    #[test]
    fn cfg_test_module_is_test_region() {
        let src = "fn lib() {}\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { assert!(true); }\n}\n";
        let lexed = lex(src);
        let st = analyze(&lexed.tokens);
        assert!(!st.in_test_region(1));
        assert!(st.in_test_region(4));
        assert!(st.in_test_region(5));
    }

    #[test]
    fn test_attr_fn_is_test_region() {
        let src = "#[test]\nfn t() {\n    let x = 1;\n}\nfn lib() {}\n";
        let lexed = lex(src);
        let st = analyze(&lexed.tokens);
        assert!(st.in_test_region(3));
        assert!(!st.in_test_region(5));
    }

    #[test]
    fn enclosing_fn_is_innermost() {
        let src = "fn outer() {\n    fn inner() {\n        let x = 1;\n    }\n}\n";
        let lexed = lex(src);
        let st = analyze(&lexed.tokens);
        let f = st.enclosing_fn(3).unwrap();
        assert_eq!(f.name, "inner");
    }

    #[test]
    fn attr_lines_recorded() {
        let src = "#[derive(\n    Debug,\n)]\nstruct S;\n";
        let lexed = lex(src);
        let st = analyze(&lexed.tokens);
        assert!(st.attr_lines.contains(&1));
        assert!(st.attr_lines.contains(&3));
        assert!(!st.attr_lines.contains(&4));
    }
}
