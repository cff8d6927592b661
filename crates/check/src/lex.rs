//! A shared token-level Rust lexer for the source-invariant lints.
//!
//! PR 4's lint worked line-by-line with an ad-hoc comment/string
//! stripper; every rule re-derived its own notion of "code". This
//! module lexes a file **once** into a flat token stream that keeps
//! comments as first-class trivia (rules attach `SAFETY:` justifications
//! and `lf-lint:` suppressions to the item they precede), matches
//! delimiters, and indexes item boundaries (`fn`/`impl`/`mod`, with
//! `#[cfg(test)]`/`#[test]` gating and enclosing-impl type names).
//!
//! The lexer is deliberately a *lexer*, not a parser: rules pattern-match
//! over tokens with nesting/width context, which is exactly the level of
//! rigor the checked invariants need (lock acquisition sequences, panic
//! macros, enum variant lists) without dragging in a grammar. Raw
//! strings (`r#"…"#`), raw identifiers (`r#type`), nested block
//! comments, char-vs-lifetime disambiguation, and float literals are all
//! handled correctly — the failure modes of the old stripper.

/// Which delimiter family an [`TokKind::Open`]/[`TokKind::Close`] pairs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Delim {
    /// `{` / `}`
    Brace,
    /// `(` / `)`
    Paren,
    /// `[` / `]`
    Bracket,
}

/// The lexical class of one token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// An identifier or keyword (`fn`, `unsafe`, `lock`, …).
    Ident,
    /// A lifetime (`'a`, `'static`) — distinct from char literals.
    Lifetime,
    /// A numeric literal.
    Number,
    /// A string or byte-string literal (including raw strings).
    Str,
    /// A character or byte literal.
    Char,
    /// A `//` comment (doc comments included), text up to end of line.
    LineComment,
    /// A `/* … */` comment (doc comments included), possibly multi-line.
    BlockComment,
    /// An opening delimiter.
    Open(Delim),
    /// A closing delimiter.
    Close(Delim),
    /// Any other single punctuation character.
    Punct(char),
}

/// One token: kind, 1-based line of its first character, and the byte
/// span in the source it was lexed from.
#[derive(Debug, Clone, Copy)]
pub struct Tok {
    /// Lexical class.
    pub kind: TokKind,
    /// 1-based source line of the token's first byte.
    pub line: usize,
    /// Byte offset of the first character.
    pub lo: usize,
    /// Byte offset one past the last character.
    pub hi: usize,
}

impl Tok {
    /// Whether this token is comment trivia.
    pub fn is_comment(&self) -> bool {
        matches!(self.kind, TokKind::LineComment | TokKind::BlockComment)
    }
}

/// Lex `src` into a token stream. Never fails: unterminated literals
/// simply extend to end-of-input (the lint runs on code that already
/// compiles, so this only matters for hostile fixtures).
pub fn lex(src: &str) -> Vec<Tok> {
    let b = src.as_bytes();
    let mut toks = Vec::with_capacity(src.len() / 4);
    let mut i = 0usize;
    let mut line = 1usize;
    let bump_lines = |lo: usize, hi: usize, line: &mut usize| {
        *line += b[lo..hi].iter().filter(|&&c| c == b'\n').count();
    };
    while i < b.len() {
        let c = b[i];
        match c {
            b'\n' => {
                line += 1;
                i += 1;
            }
            _ if c.is_ascii_whitespace() => i += 1,
            b'/' if b.get(i + 1) == Some(&b'/') => {
                let lo = i;
                while i < b.len() && b[i] != b'\n' {
                    i += 1;
                }
                toks.push(Tok {
                    kind: TokKind::LineComment,
                    line,
                    lo,
                    hi: i,
                });
            }
            b'/' if b.get(i + 1) == Some(&b'*') => {
                let (lo, start_line) = (i, line);
                let mut depth = 1usize;
                i += 2;
                while i < b.len() && depth > 0 {
                    if b[i] == b'/' && b.get(i + 1) == Some(&b'*') {
                        depth += 1;
                        i += 2;
                    } else if b[i] == b'*' && b.get(i + 1) == Some(&b'/') {
                        depth -= 1;
                        i += 2;
                    } else {
                        if b[i] == b'\n' {
                            line += 1;
                        }
                        i += 1;
                    }
                }
                toks.push(Tok {
                    kind: TokKind::BlockComment,
                    line: start_line,
                    lo,
                    hi: i,
                });
            }
            b'r' | b'b' if raw_string_start(b, i).is_some() => {
                let hashes = raw_string_start(b, i).expect("just matched");
                let (lo, start_line) = (i, line);
                // Skip the prefix (r/br + hashes + opening quote).
                i += (b[i] == b'b') as usize + 1 + hashes + 1;
                loop {
                    if i >= b.len() {
                        break;
                    }
                    if b[i] == b'"' && b[i + 1..].iter().take(hashes).all(|&h| h == b'#') {
                        i += 1 + hashes;
                        break;
                    }
                    if b[i] == b'\n' {
                        line += 1;
                    }
                    i += 1;
                }
                toks.push(Tok {
                    kind: TokKind::Str,
                    line: start_line,
                    lo,
                    hi: i,
                });
            }
            b'"' | b'b' if c == b'"' || b.get(i + 1) == Some(&b'"') => {
                let (lo, start_line) = (i, line);
                i += if c == b'b' { 2 } else { 1 };
                while i < b.len() {
                    match b[i] {
                        b'\\' => i += 2,
                        b'"' => {
                            i += 1;
                            break;
                        }
                        b'\n' => {
                            line += 1;
                            i += 1;
                        }
                        _ => i += 1,
                    }
                }
                bump_lines(lo, i.min(b.len()), &mut 0usize.clone()); // lines already counted
                toks.push(Tok {
                    kind: TokKind::Str,
                    line: start_line,
                    lo,
                    hi: i.min(b.len()),
                });
            }
            b'\'' => {
                // Lifetime ('a, 'static) vs char literal ('x', '\n').
                let lo = i;
                let next = b.get(i + 1).copied();
                let is_lifetime = next.is_some_and(|n| n == b'_' || n.is_ascii_alphabetic())
                    && b.get(i + 2) != Some(&b'\'');
                if is_lifetime {
                    i += 1;
                    while i < b.len() && (b[i] == b'_' || b[i].is_ascii_alphanumeric()) {
                        i += 1;
                    }
                    toks.push(Tok {
                        kind: TokKind::Lifetime,
                        line,
                        lo,
                        hi: i,
                    });
                } else {
                    i += 1;
                    while i < b.len() {
                        match b[i] {
                            b'\\' => i += 2,
                            b'\'' => {
                                i += 1;
                                break;
                            }
                            _ => i += 1,
                        }
                    }
                    toks.push(Tok {
                        kind: TokKind::Char,
                        line,
                        lo,
                        hi: i.min(b.len()),
                    });
                }
            }
            _ if c == b'_' || c.is_ascii_alphabetic() => {
                let lo = i;
                // Raw identifier r#name (raw *strings* were handled above).
                if c == b'r' && b.get(i + 1) == Some(&b'#') {
                    i += 2;
                }
                while i < b.len() && (b[i] == b'_' || b[i].is_ascii_alphanumeric()) {
                    i += 1;
                }
                toks.push(Tok {
                    kind: TokKind::Ident,
                    line,
                    lo,
                    hi: i,
                });
            }
            _ if c.is_ascii_digit() => {
                let lo = i;
                while i < b.len() && (b[i] == b'_' || b[i].is_ascii_alphanumeric()) {
                    i += 1;
                }
                // Float part: `.` followed by a digit (not `..` or a method).
                if i < b.len() && b[i] == b'.' && b.get(i + 1).is_some_and(|n| n.is_ascii_digit()) {
                    i += 1;
                    while i < b.len() && (b[i] == b'_' || b[i].is_ascii_alphanumeric()) {
                        i += 1;
                    }
                }
                // Exponent sign: 1.0e-9 / 2e+10.
                if i < b.len()
                    && (b[i] == b'+' || b[i] == b'-')
                    && b.get(i.wrapping_sub(1))
                        .is_some_and(|p| *p == b'e' || *p == b'E')
                    && b.get(i + 1).is_some_and(|n| n.is_ascii_digit())
                {
                    i += 1;
                    while i < b.len() && (b[i] == b'_' || b[i].is_ascii_alphanumeric()) {
                        i += 1;
                    }
                }
                toks.push(Tok {
                    kind: TokKind::Number,
                    line,
                    lo,
                    hi: i,
                });
            }
            _ => {
                let kind = match c {
                    b'{' => TokKind::Open(Delim::Brace),
                    b'}' => TokKind::Close(Delim::Brace),
                    b'(' => TokKind::Open(Delim::Paren),
                    b')' => TokKind::Close(Delim::Paren),
                    b'[' => TokKind::Open(Delim::Bracket),
                    b']' => TokKind::Close(Delim::Bracket),
                    _ => TokKind::Punct(c as char),
                };
                toks.push(Tok {
                    kind,
                    line,
                    lo: i,
                    hi: i + 1,
                });
                i += 1;
            }
        }
    }
    toks
}

/// `r"`, `r#"`, `br"`, `br##"` … — returns the number of `#`s when `i`
/// starts a raw (byte) string.
fn raw_string_start(b: &[u8], i: usize) -> Option<usize> {
    let mut j = i + 1;
    if b[i] == b'b' {
        if b.get(j) != Some(&b'r') {
            return None;
        }
        j += 1;
    }
    let mut hashes = 0usize;
    while b.get(j) == Some(&b'#') {
        hashes += 1;
        j += 1;
    }
    // `r#ident` is a raw identifier, not a raw string.
    (b.get(j) == Some(&b'"')).then_some(hashes)
}

/// For every `Open`/`Close` token index, the index of its partner
/// (`None` for unbalanced input). Other tokens map to `None`.
pub fn match_delims(toks: &[Tok]) -> Vec<Option<usize>> {
    let mut pair = vec![None; toks.len()];
    let mut stack: Vec<(Delim, usize)> = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        match t.kind {
            TokKind::Open(d) => stack.push((d, i)),
            TokKind::Close(d) => {
                if let Some(&(top, open)) = stack.last() {
                    if top == d {
                        stack.pop();
                        pair[open] = Some(i);
                        pair[i] = Some(open);
                    }
                }
            }
            _ => {}
        }
    }
    pair
}

/// What kind of item an [`Item`] records.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ItemKind {
    /// A `fn` item, with its name.
    Fn {
        /// The function's identifier.
        name: String,
    },
    /// An `impl` block, with the (last path segment of the) self type.
    Impl {
        /// The implemented type's name (`BatchBoard` for
        /// `impl<T> BatchBoard<T>`), or the type after `for` in a trait
        /// impl.
        type_name: String,
    },
    /// A `mod` item, with its name.
    Mod {
        /// The module's identifier.
        name: String,
    },
}

/// One indexed item: its kind, body span (token indices of `{`/`}`),
/// test gating, and lexical parent.
#[derive(Debug, Clone)]
pub struct Item {
    /// Fn / impl / mod discriminator plus name.
    pub kind: ItemKind,
    /// Token index of the item keyword (`fn`, `impl`, `mod`).
    pub kw_tok: usize,
    /// Token indices of the body's `{` and `}` (`None` for bodyless
    /// declarations like trait-method signatures or `mod foo;`).
    pub body: Option<(usize, usize)>,
    /// `true` when the item itself carries a `#[test]` attribute, or is
    /// a `mod` under `#[cfg(… test …)]` (ancestors are *not* folded in
    /// — see [`ItemIndex::in_test`]). A `#[cfg(test)]` fn or impl in a
    /// production module stays under the rules: that is how seeded-bug
    /// variants kept out of production builds stay visible to the rules
    /// that rediscover them.
    pub test_only: bool,
    /// Index of the innermost enclosing item, if any.
    pub parent: Option<usize>,
}

/// The item index of one file: every `fn`/`impl`/`mod` with body spans
/// and test gating, ordered by source position.
#[derive(Debug, Default)]
pub struct ItemIndex {
    /// The indexed items.
    pub items: Vec<Item>,
}

impl ItemIndex {
    /// Index `toks` (with its delimiter `pair` map, from
    /// [`match_delims`]).
    pub fn build(src: &str, toks: &[Tok], pair: &[Option<usize>]) -> Self {
        let text = |t: &Tok| &src[t.lo..t.hi];
        let mut items: Vec<Item> = Vec::new();
        let mut stack: Vec<(usize, usize)> = Vec::new(); // (item idx, body close tok)
        let mut i = 0usize;
        while i < toks.len() {
            while let Some(&(_, close)) = stack.last() {
                if i > close {
                    stack.pop();
                } else {
                    break;
                }
            }
            let t = &toks[i];
            if t.kind != TokKind::Ident {
                i += 1;
                continue;
            }
            let kw = text(t);
            let kind = match kw {
                "fn" => {
                    let name = next_code(toks, i + 1)
                        .filter(|&n| toks[n].kind == TokKind::Ident)
                        .map(|n| text(&toks[n]).to_string())
                        .unwrap_or_default();
                    Some(ItemKind::Fn { name })
                }
                "impl" => Some(ItemKind::Impl {
                    type_name: impl_type_name(src, toks, pair, i),
                }),
                "mod" => next_code(toks, i + 1)
                    .filter(|&n| toks[n].kind == TokKind::Ident)
                    .map(|n| ItemKind::Mod {
                        name: text(&toks[n]).to_string(),
                    }),
                _ => None,
            };
            let Some(kind) = kind else {
                i += 1;
                continue;
            };
            // `mod` as a use path segment (`self::mod` is not valid
            // anyway) or `impl Trait` in type position both still get
            // indexed; harmless for the rules, which only look at fn
            // bodies and test gating.
            let body = find_body(toks, pair, i);
            let test_only = test_gated(src, toks, pair, i, matches!(kind, ItemKind::Mod { .. }));
            let parent = stack.last().map(|&(idx, _)| idx);
            items.push(Item {
                kind,
                kw_tok: i,
                body,
                test_only,
                parent,
            });
            if let Some((open, close)) = body {
                stack.push((items.len() - 1, close));
                // Descend into the body to index nested items.
                i = open + 1;
            } else {
                i += 1;
            }
        }
        ItemIndex { items }
    }

    /// The innermost `fn` item whose body contains token `tok`.
    pub fn enclosing_fn(&self, tok: usize) -> Option<usize> {
        self.enclosing(tok, |k| matches!(k, ItemKind::Fn { .. }))
    }

    /// The innermost item of any kind whose body contains token `tok`,
    /// filtered by `f`.
    pub fn enclosing(&self, tok: usize, f: impl Fn(&ItemKind) -> bool) -> Option<usize> {
        let mut best: Option<usize> = None;
        for (idx, it) in self.items.iter().enumerate() {
            if let Some((open, close)) = it.body {
                if open < tok && tok < close && f(&it.kind) {
                    let better = match best {
                        None => true,
                        Some(b) => self.items[b].body.expect("items with bodies").0 < open,
                    };
                    if better {
                        best = Some(idx);
                    }
                }
            }
        }
        best
    }

    /// Whether token `tok` sits inside a test-gated item (`#[test]` fn,
    /// `#[cfg(test)] mod`, …), at any nesting level.
    pub fn in_test(&self, tok: usize) -> bool {
        self.items.iter().any(|it| {
            it.test_only
                && it
                    .body
                    .is_some_and(|(open, close)| open < tok && tok < close)
        })
    }
}

/// The next non-comment token at or after `i`.
pub fn next_code(toks: &[Tok], mut i: usize) -> Option<usize> {
    while i < toks.len() {
        if !toks[i].is_comment() {
            return Some(i);
        }
        i += 1;
    }
    None
}

/// The previous non-comment token at or before `i`.
pub fn prev_code(toks: &[Tok], i: usize) -> Option<usize> {
    let mut j = i;
    loop {
        if !toks[j].is_comment() {
            return Some(j);
        }
        j = j.checked_sub(1)?;
    }
}

/// From the item keyword at `kw`, find the body `{`: skip `(..)`/`[..]`
/// groups, stop at the first top-level `{` or at `;` (no body).
fn find_body(toks: &[Tok], pair: &[Option<usize>], kw: usize) -> Option<(usize, usize)> {
    let mut i = kw + 1;
    while i < toks.len() {
        match toks[i].kind {
            TokKind::Open(Delim::Brace) => return pair[i].map(|close| (i, close)),
            TokKind::Open(_) => i = pair[i].map_or(i + 1, |c| c + 1),
            TokKind::Punct(';') => return None,
            _ => i += 1,
        }
    }
    None
}

/// `impl<T: Scalar> BatchBoard<T> {` → `BatchBoard`;
/// `impl Planner<T> for Fixed {` → `Fixed`.
fn impl_type_name(src: &str, toks: &[Tok], pair: &[Option<usize>], kw: usize) -> String {
    let mut i = kw + 1;
    // Skip the generics group, minding `->` inside bounds.
    if matches!(toks.get(i).map(|t| t.kind), Some(TokKind::Punct('<'))) {
        let mut depth = 0i32;
        while i < toks.len() {
            match toks[i].kind {
                TokKind::Punct('<') => depth += 1,
                TokKind::Punct('>') => {
                    let arrow = i > 0 && matches!(toks[i - 1].kind, TokKind::Punct('-'));
                    if !arrow {
                        depth -= 1;
                        if depth == 0 {
                            i += 1;
                            break;
                        }
                    }
                }
                TokKind::Open(_) => {
                    i = pair[i].unwrap_or(i);
                }
                _ => {}
            }
            i += 1;
        }
    }
    // Walk to the body `{`, remembering the last ident of the most
    // recent path run; a `for` keyword resets (trait impls name the
    // self type after it).
    let mut last = String::new();
    let mut depth = 0i32;
    while i < toks.len() {
        match toks[i].kind {
            TokKind::Open(Delim::Brace) if depth == 0 => break,
            TokKind::Punct('<') => depth += 1,
            TokKind::Punct('>') if !(i > 0 && matches!(toks[i - 1].kind, TokKind::Punct('-'))) => {
                depth -= 1;
            }
            TokKind::Ident if depth == 0 => {
                let s = &src[toks[i].lo..toks[i].hi];
                match s {
                    "for" => last.clear(),
                    "where" => break,
                    _ => last = s.to_string(),
                }
            }
            TokKind::Open(_) => {
                i = pair[i].unwrap_or(i);
            }
            _ => {}
        }
        i += 1;
    }
    last
}

/// Do the attributes directly above the item keyword at `kw` make it
/// test code? `#[test]` always does; with `any_mention` (for modules),
/// so does any attribute mentioning `test` (`#[cfg(test)]`,
/// `#[cfg(any(test, …))]`). Walks back over visibility/qualifier
/// keywords, doc comments, and attribute groups.
fn test_gated(
    src: &str,
    toks: &[Tok],
    pair: &[Option<usize>],
    kw: usize,
    any_mention: bool,
) -> bool {
    let mut i = kw;
    loop {
        let Some(j) = i.checked_sub(1) else {
            return false;
        };
        let t = &toks[j];
        if t.is_comment() {
            i = j;
            continue;
        }
        match t.kind {
            TokKind::Ident => {
                let s = &src[t.lo..t.hi];
                if matches!(
                    s,
                    "pub" | "unsafe" | "const" | "async" | "extern" | "default"
                ) {
                    i = j;
                    continue;
                }
                return false;
            }
            // `pub(crate)` visibility group.
            TokKind::Close(Delim::Paren) => {
                let Some(open) = pair[j] else { return false };
                i = open;
            }
            // An attribute `#[…]` run: check it, keep walking up.
            TokKind::Close(Delim::Bracket) => {
                let Some(open) = pair[j] else { return false };
                let hashed = open
                    .checked_sub(1)
                    .is_some_and(|h| matches!(toks[h].kind, TokKind::Punct('#')));
                if !hashed {
                    return false;
                }
                let is_test = |t: &Tok| t.kind == TokKind::Ident && &src[t.lo..t.hi] == "test";
                let attr = &toks[open + 1..j];
                if (any_mention && attr.iter().any(is_test))
                    || matches!(attr, [only] if is_test(only))
                {
                    return true;
                }
                i = open - 1;
            }
            TokKind::Str => {
                // `extern "C"` qualifier.
                i = j;
            }
            _ => return false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn texts(src: &str) -> Vec<(TokKind, String)> {
        lex(src)
            .iter()
            .map(|t| (t.kind, src[t.lo..t.hi].to_string()))
            .collect()
    }

    #[test]
    fn raw_strings_and_raw_idents() {
        let src = r##"let x = r#"unsafe { "quoted" }"#; let r#type = 1;"##;
        let toks = texts(src);
        assert!(toks
            .iter()
            .any(|(k, s)| *k == TokKind::Str && s.contains("unsafe")));
        // The `unsafe` inside the raw string is NOT an ident token.
        assert!(!toks
            .iter()
            .any(|(k, s)| *k == TokKind::Ident && s == "unsafe"));
        assert!(toks
            .iter()
            .any(|(k, s)| *k == TokKind::Ident && s == "r#type"));
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let src = "fn f<'a>(x: &'a str) { let c = 'x'; let n = '\\n'; }";
        let toks = texts(src);
        assert_eq!(
            toks.iter().filter(|(k, _)| *k == TokKind::Lifetime).count(),
            2
        );
        assert_eq!(toks.iter().filter(|(k, _)| *k == TokKind::Char).count(), 2);
    }

    #[test]
    fn nested_block_comments_and_lines() {
        let src = "a\n/* x /* y */ z\nmore */ b\nc";
        let toks = lex(src);
        let idents: Vec<_> = toks
            .iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| (src[t.lo..t.hi].to_string(), t.line))
            .collect();
        assert_eq!(
            idents,
            vec![("a".into(), 1), ("b".into(), 3), ("c".into(), 4)]
        );
    }

    #[test]
    fn item_index_finds_fns_impls_and_test_gating() {
        let src = r#"
impl<T: Clone> Board<T> {
    fn admit(&self) {}
    pub(crate) fn close(&self) { let x = 1; }
    #[cfg(test)]
    fn seeded(&self) {}
}
#[cfg(test)]
mod tests {
    #[test]
    fn check_it() { inner(); }
}
"#;
        let toks = lex(src);
        let pair = match_delims(&toks);
        let idx = ItemIndex::build(src, &toks, &pair);
        let names: Vec<_> = idx
            .items
            .iter()
            .map(|it| match &it.kind {
                ItemKind::Fn { name } => format!("fn {name}"),
                ItemKind::Impl { type_name } => format!("impl {type_name}"),
                ItemKind::Mod { name } => format!("mod {name}"),
            })
            .collect();
        assert_eq!(
            names,
            vec![
                "impl Board",
                "fn admit",
                "fn close",
                "fn seeded",
                "mod tests",
                "fn check_it"
            ]
        );
        assert!(!idx.items[3].test_only, "cfg(test) fn stays linted");
        assert!(idx.items[4].test_only, "cfg(test) mod");
        assert!(idx.items[5].test_only, "#[test] fn");
        // `inner()` call is inside a test item.
        let inner_tok = toks
            .iter()
            .position(|t| &src[t.lo..t.hi] == "inner")
            .unwrap();
        assert!(idx.in_test(inner_tok));
        // `admit`'s body is not test-gated.
        let admit_body = idx.items[1].body.unwrap();
        assert!(!idx.in_test(admit_body.0 + 1));
    }

    #[test]
    fn impl_type_name_handles_generics_bounds_and_trait_impls() {
        let src = "impl<F: FnOnce() -> T, T> Runner<F> where T: Send { }\
                   impl Planner<f64> for Resilient<P> { }";
        let toks = lex(src);
        let pair = match_delims(&toks);
        let idx = ItemIndex::build(src, &toks, &pair);
        let types: Vec<_> = idx
            .items
            .iter()
            .filter_map(|it| match &it.kind {
                ItemKind::Impl { type_name } => Some(type_name.clone()),
                _ => None,
            })
            .collect();
        assert_eq!(types, vec!["Runner", "Resilient"]);
    }
}
