//! A lightweight item parser over the [`lexer`](crate::lexer) token
//! stream: just enough structure for the interprocedural rules.
//!
//! This is *not* a Rust parser. It recovers, from one file's tokens:
//!
//! * **fn items** — name, enclosing `impl`/`trait` type, enclosing
//!   in-file `mod` path, test attributes, and the token range of the
//!   body;
//! * **call expressions** — plain (`helper(..)`), path
//!   (`kernel::dominates(..)`, `Self::drain(..)`), and method
//!   (`x.resolve(..)`) calls, each attributed to the innermost
//!   enclosing fn body;
//! * **`RankedMutex::new` sites** — the field or binding they are
//!   stored in, the lock-name string, and the rank expression
//!   (a literal or a `RANK_*` constant to resolve workspace-wide);
//! * **`.lock()` acquisitions** — the field they target plus a
//!   conservative token range over which the returned guard is held
//!   (end of statement for temporaries, end of the enclosing block for
//!   `let`-bound guards, shortened by an explicit `drop(guard)`);
//! * **rank constants** (`const RANK_X: u32 = 200;`);
//! * **spawn regions** — argument ranges of `spawn(..)` calls, whose
//!   closures run on a fresh thread and therefore start with an empty
//!   lock-hold set.
//!
//! Everything here is a conservative approximation; `DESIGN.md` §12.4
//! documents the blind spots (dynamic calls, trait dispatch, macro
//! bodies) and why they are acceptable for this workspace.

use crate::lexer::{Lexed, Token, TokenKind};

/// Keywords that can immediately precede `(` without being a call.
const NON_CALL_KEYWORDS: &[&str] = &[
    "if", "else", "while", "for", "match", "return", "loop", "in", "let", "move", "ref", "mut",
    "as", "where", "impl", "dyn", "fn", "unsafe", "pub", "crate", "super", "async", "await",
    "break", "continue", "yield", "box",
];

/// One parsed function item.
#[derive(Clone, Debug)]
pub struct FnItem {
    /// The fn's name.
    pub name: String,
    /// The `impl` or `trait` self-type name when the fn is a method or
    /// associated fn (`Engine`, `RankedMutex`, …).
    pub impl_type: Option<String>,
    /// Names of enclosing in-file `mod` blocks, outermost first
    /// (e.g. `["x86"]` for `geom::simd`'s intrinsic module).
    pub modules: Vec<String>,
    /// `true` for `#[test]`/`#[cfg(test)]` fns or fns inside
    /// `#[cfg(test)] mod` regions.
    pub is_test: bool,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Token index of the `fn` keyword.
    pub fn_tok: usize,
    /// Token range `(open, close)` of the `{ .. }` body, inclusive;
    /// `None` for bodiless trait method declarations.
    pub body: Option<(usize, usize)>,
    /// The `(outer, payload)` of the declared return type, when its
    /// head is a plain path (`-> Arc<Snapshot>` → `("Arc",
    /// "Snapshot")`); `None` for `()`, tuples, and shapes the parser
    /// cannot anchor. Used to type `let x = call();` locals.
    pub ret: Option<(String, String)>,
}

/// How a call expression names its target.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CallKind {
    /// `helper(..)` — a bare path, resolved against free fns.
    Plain,
    /// `qualifier::name(..)` — resolved against methods of the
    /// qualifier type and free fns of the qualifier module.
    Path,
    /// `receiver.name(..)` — resolved against visible methods of that
    /// name, narrowed by the receiver shape recorded in
    /// [`CallSite::recv`] when it is classifiable.
    Method,
}

/// The shape of a method call's receiver, used to anchor resolution to
/// declared field types instead of pure name fan-out (DESIGN.md §12.4).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Recv {
    /// Not a method call ([`CallKind::Plain`]/[`CallKind::Path`]).
    None,
    /// `self.m(..)` — the receiver is the caller's own impl type.
    SelfRecv,
    /// `name.m(..)` — a bare identifier: a struct field (possibly
    /// through `self.shared.name`), a local, or a parameter.
    Ident(String),
    /// `field.lock().m(..)` — a call on a lock guard; the effective
    /// receiver is the mutex field's payload type.
    LockChain(String),
    /// Anything else: chained calls, indexing, literals, parens.
    Opaque,
}

/// One struct field declaration, for receiver typing.
///
/// `outer` is the declared type's head (`RankedMutex` for
/// `RankedMutex<Arc<Fleet>>`); `payload` unwraps std wrapper layers
/// (`Option`, `Arc`, `Box`, `Vec`, mutex types, …) down to the first
/// non-wrapper type (`Fleet`), because method calls reach it through
/// guards and derefs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FieldType {
    /// The field name.
    pub name: String,
    /// The declared type's outermost path head.
    pub outer: String,
    /// The wrapper-unwrapped payload type.
    pub payload: String,
}

/// One call expression.
#[derive(Clone, Debug)]
pub struct CallSite {
    /// Resolution style.
    pub kind: CallKind,
    /// The called name (last path segment).
    pub name: String,
    /// For [`CallKind::Path`]: the path segment before the name
    /// (`kernel` in `kernel::dominates`, `Self`, a type name, …).
    pub qualifier: Option<String>,
    /// For [`CallKind::Method`]: what the receiver looks like.
    pub recv: Recv,
    /// `Some(name)` when the call is the entire right-hand side of a
    /// `let name = ..(..);` (or `..(..)?;`) statement — the binding is
    /// then typed by the callee's return type.
    pub binds_local: Option<String>,
    /// 1-based source line.
    pub line: u32,
    /// Token index of the name.
    pub tok: usize,
}

/// The rank argument of a `RankedMutex::new` site.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RankExpr {
    /// A literal rank (`10`).
    Lit(u32),
    /// A named constant (`RANK_CATALOG`) to resolve workspace-wide.
    Const(String),
    /// Anything the parser cannot classify — reported as a violation
    /// by the lock-rank rule rather than silently ignored.
    Opaque,
}

/// One `RankedMutex::new(name, rank, ..)` construction site.
#[derive(Clone, Debug)]
pub struct MutexDef {
    /// The struct field or `let` binding the mutex is stored in — the
    /// key acquisition sites are matched against.
    pub binding: Option<String>,
    /// The lock-name string literal, when present.
    pub lock_name: Option<String>,
    /// The rank argument.
    pub rank: RankExpr,
    /// 1-based source line.
    pub line: u32,
    /// `true` when the site sits inside a `#[cfg(test)] mod` region.
    pub in_test: bool,
}

/// One `.lock()` acquisition of a [`MutexDef`]-matched field.
#[derive(Clone, Debug)]
pub struct LockSite {
    /// The field/binding immediately before `.lock()`.
    pub binding: String,
    /// 1-based source line.
    pub line: u32,
    /// Token index of the `lock` identifier.
    pub tok: usize,
    /// Conservative token index (exclusive) up to which the returned
    /// guard is held.
    pub hold_end: usize,
}

/// Everything the item parser recovers from one file.
#[derive(Debug, Default)]
pub struct ParsedFile {
    /// Function items in source order.
    pub fns: Vec<FnItem>,
    /// Call expressions in source order (attribute to fns via
    /// [`ParsedFile::enclosing_fn`]).
    pub calls: Vec<CallSite>,
    /// `RankedMutex::new` sites.
    pub mutex_defs: Vec<MutexDef>,
    /// `.lock()` acquisitions.
    pub lock_sites: Vec<LockSite>,
    /// `const NAME: .. = <int>;` items (rank-constant candidates).
    pub rank_consts: Vec<(String, u32)>,
    /// Struct field declarations (receiver typing for method calls).
    pub field_types: Vec<FieldType>,
    /// Token ranges of `spawn(..)` argument lists: closures inside run
    /// on a fresh thread with an empty lock-hold set.
    pub spawn_ranges: Vec<(usize, usize)>,
    /// Token ranges of `#[cfg(test)] mod` bodies.
    pub test_regions: Vec<(usize, usize)>,
}

impl ParsedFile {
    /// Index into [`ParsedFile::fns`] of the innermost fn whose body
    /// contains token `tok`.
    pub fn enclosing_fn(&self, tok: usize) -> Option<usize> {
        let mut best: Option<(usize, usize)> = None; // (span, idx)
        for (idx, f) in self.fns.iter().enumerate() {
            if let Some((open, close)) = f.body {
                if tok > open && tok < close {
                    let span = close - open;
                    if best.is_none_or(|(s, _)| span < s) {
                        best = Some((span, idx));
                    }
                }
            }
        }
        best.map(|(_, idx)| idx)
    }

    /// `true` when token `tok` falls inside a `#[cfg(test)] mod` body.
    pub fn in_test_region(&self, tok: usize) -> bool {
        self.test_regions.iter().any(|&(s, e)| tok >= s && tok <= e)
    }

    /// `true` when token `tok` falls inside a `spawn(..)` argument
    /// list (i.e. code that runs on a freshly spawned thread).
    pub fn innermost_spawn(&self, tok: usize) -> Option<(usize, usize)> {
        self.spawn_ranges
            .iter()
            .copied()
            .filter(|&(s, e)| tok > s && tok < e)
            .min_by_key(|&(s, e)| e - s)
    }
}

/// Given the index of an opening `(`, returns the index of its matching
/// `)`, or `None` if `open` is not a `(` / the file is unbalanced.
pub fn match_paren(tokens: &[Token], open: usize) -> Option<usize> {
    if !tokens.get(open)?.is_punct('(') {
        return None;
    }
    let mut depth = 0i32;
    for (j, tok) in tokens.iter().enumerate().skip(open) {
        if tok.is_punct('(') {
            depth += 1;
        } else if tok.is_punct(')') {
            depth -= 1;
            if depth == 0 {
                return Some(j);
            }
        }
    }
    None
}

/// Given the index of an opening `{`, returns the index of its matching
/// `}`.
pub fn match_brace(tokens: &[Token], open: usize) -> Option<usize> {
    if !tokens.get(open)?.is_punct('{') {
        return None;
    }
    let mut depth = 0i32;
    for (j, tok) in tokens.iter().enumerate().skip(open) {
        if tok.is_punct('{') {
            depth += 1;
        } else if tok.is_punct('}') {
            depth -= 1;
            if depth == 0 {
                return Some(j);
            }
        }
    }
    None
}

/// Token-index ranges of `#[cfg(test)] mod … { … }` bodies.
pub fn test_mod_regions(tokens: &[Token]) -> Vec<(usize, usize)> {
    let mut regions = Vec::new();
    let mut i = 0usize;
    while i < tokens.len() {
        // `#` `[` `cfg` `(` … test … `)` `]`
        if tokens[i].is_punct('#')
            && tokens.get(i + 1).is_some_and(|t| t.is_punct('['))
            && tokens.get(i + 2).is_some_and(|t| t.is_ident("cfg"))
            && tokens.get(i + 3).is_some_and(|t| t.is_punct('('))
        {
            let Some(close) = match_paren(tokens, i + 3) else {
                i += 1;
                continue;
            };
            let mentions_test = tokens[i + 4..close].iter().any(|t| t.is_ident("test"));
            if mentions_test {
                // Skip the `]`, an optional visibility, and require `mod`.
                let mut j = close + 1;
                while j < tokens.len()
                    && (tokens[j].is_punct(']')
                        || tokens[j].is_ident("pub")
                        || tokens[j].is_punct('(')
                        || tokens[j].is_ident("crate")
                        || tokens[j].is_punct(')'))
                {
                    j += 1;
                }
                if tokens.get(j).is_some_and(|t| t.is_ident("mod")) {
                    let mut k = j;
                    while k < tokens.len() && !tokens[k].is_punct('{') {
                        // `mod tests;` declares an out-of-line module.
                        if tokens[k].is_punct(';') {
                            break;
                        }
                        k += 1;
                    }
                    if let Some(end) = match_brace(tokens, k) {
                        regions.push((k, end));
                        i = k + 1;
                        continue;
                    }
                }
            }
        }
        i += 1;
    }
    regions
}

/// Token-index range of the body of the first `fn` at or below
/// `after_line` — the function a `deny-alloc` comment annotates.
/// Attributes (`#[inline]`) between the comment and the `fn` are fine.
pub fn fn_body_after(tokens: &[Token], after_line: u32) -> Option<(usize, usize)> {
    let fn_idx = tokens
        .iter()
        .position(|t| t.line >= after_line && t.is_ident("fn"))?;
    let mut open = fn_idx;
    let mut brackets = 0u32;
    while open < tokens.len() && !tokens[open].is_punct('{') {
        if tokens[open].is_punct('[') {
            brackets += 1;
        } else if tokens[open].is_punct(']') {
            brackets = brackets.saturating_sub(1);
        } else if brackets == 0 && tokens[open].is_punct(';') {
            // A signature-level `;` means a trait method with no body;
            // `;` inside brackets is an array type like `[f64; 4]`.
            return None;
        }
        open += 1;
    }
    let close = match_brace(tokens, open)?;
    Some((open, close))
}

/// One `#[ .. ]` attribute cluster: its token span and contained
/// identifier names.
struct AttrSpan {
    start: usize,
    end: usize,
    idents: Vec<String>,
}

/// Parses one lexed file into items. Infallible: unrecognized shapes
/// are skipped, never errors — the local token rules still see every
/// token regardless.
pub fn parse(lexed: &Lexed) -> ParsedFile {
    let tokens = &lexed.tokens;
    let mut out = ParsedFile {
        test_regions: test_mod_regions(tokens),
        ..ParsedFile::default()
    };

    let attr_spans = collect_attr_spans(tokens);
    let mod_regions = collect_mod_regions(tokens);
    let type_regions = collect_type_regions(tokens);

    let mut i = 0usize;
    while i < tokens.len() {
        let tok = &tokens[i];
        if tok.kind != TokenKind::Ident {
            i += 1;
            continue;
        }
        match tok.text.as_str() {
            "fn" => {
                if let Some(item) =
                    parse_fn(tokens, i, &attr_spans, &mod_regions, &type_regions, &out)
                {
                    out.fns.push(item);
                }
                i += 1;
            }
            "const" => {
                if let Some((name, value)) = parse_int_const(tokens, i) {
                    out.rank_consts.push((name, value));
                }
                i += 1;
            }
            "RankedMutex" => {
                if let Some(def) = parse_mutex_def(tokens, i, &out.test_regions) {
                    out.mutex_defs.push(def);
                }
                i += 1;
            }
            "struct" => {
                parse_struct_fields(tokens, i, &mut out.field_types);
                i += 1;
            }
            "lock"
                if i >= 2
                    && tokens[i - 1].is_punct('.')
                    && tokens.get(i + 1).is_some_and(|t| t.is_punct('('))
                    && tokens.get(i + 2).is_some_and(|t| t.is_punct(')')) =>
            {
                if let Some(site) = parse_lock_site(tokens, i) {
                    out.lock_sites.push(site);
                }
                // Also still a method call (`.lock()`), recorded below.
                if let Some(call) = parse_call(tokens, i) {
                    out.calls.push(call);
                }
                i += 1;
            }
            _ => {
                if let Some(call) = parse_call(tokens, i) {
                    if call.name == "spawn" {
                        if let Some(range) = call_paren_range(tokens, call.tok) {
                            out.spawn_ranges.push(range);
                        }
                    }
                    out.calls.push(call);
                }
                i += 1;
            }
        }
    }
    out
}

/// Collects `#[ .. ]` attribute spans (outer attributes only; inner
/// `#![..]` spans are collected too and simply never match a walk-back).
fn collect_attr_spans(tokens: &[Token]) -> Vec<AttrSpan> {
    let mut spans = Vec::new();
    let mut i = 0usize;
    while i < tokens.len() {
        if tokens[i].is_punct('#') {
            let mut j = i + 1;
            if tokens.get(j).is_some_and(|t| t.is_punct('!')) {
                j += 1;
            }
            if tokens.get(j).is_some_and(|t| t.is_punct('[')) {
                let mut depth = 0i32;
                let mut k = j;
                let mut idents = Vec::new();
                while k < tokens.len() {
                    if tokens[k].is_punct('[') {
                        depth += 1;
                    } else if tokens[k].is_punct(']') {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    } else if tokens[k].kind == TokenKind::Ident {
                        idents.push(tokens[k].text.clone());
                    }
                    k += 1;
                }
                spans.push(AttrSpan {
                    start: i,
                    end: k,
                    idents,
                });
                i = k + 1;
                continue;
            }
        }
        i += 1;
    }
    spans
}

/// `(name, open, close)` of every named `mod name { .. }` block.
fn collect_mod_regions(tokens: &[Token]) -> Vec<(String, usize, usize)> {
    let mut regions = Vec::new();
    for i in 0..tokens.len() {
        if tokens[i].is_ident("mod")
            && tokens
                .get(i + 1)
                .is_some_and(|t| t.kind == TokenKind::Ident)
        {
            // `mod name ;` is an out-of-line module: no region.
            if tokens.get(i + 2).is_some_and(|t| t.is_punct('{')) {
                if let Some(close) = match_brace(tokens, i + 2) {
                    regions.push((tokens[i + 1].text.clone(), i + 2, close));
                }
            }
        }
    }
    regions
}

/// `(type_name, open, close)` of every `impl .. Type { .. }` and
/// `trait Name { .. }` block, so fns inside resolve as methods of that
/// type.
fn collect_type_regions(tokens: &[Token]) -> Vec<(String, usize, usize)> {
    let mut regions = Vec::new();
    let mut i = 0usize;
    while i < tokens.len() {
        if tokens[i].is_ident("trait") {
            if let Some(name_tok) = tokens.get(i + 1) {
                if name_tok.kind == TokenKind::Ident {
                    // Find the `{` (skipping supertrait bounds / where).
                    let mut j = i + 2;
                    while j < tokens.len() && !tokens[j].is_punct('{') {
                        if tokens[j].is_punct(';') {
                            break;
                        }
                        j += 1;
                    }
                    if let Some(close) = match_brace(tokens, j) {
                        regions.push((name_tok.text.clone(), j, close));
                        i = j + 1;
                        continue;
                    }
                }
            }
            i += 1;
        } else if tokens[i].is_ident("impl") {
            if let Some((name, open)) = parse_impl_header(tokens, i) {
                if let Some(close) = match_brace(tokens, open) {
                    regions.push((name, open, close));
                    i = open + 1;
                    continue;
                }
            }
            i += 1;
        } else {
            i += 1;
        }
    }
    regions
}

/// Parses an `impl` header, returning the self-type's last path segment
/// and the index of the body's `{`.
fn parse_impl_header(tokens: &[Token], impl_tok: usize) -> Option<(String, usize)> {
    let mut j = impl_tok + 1;
    // Skip `impl<..>` generics.
    if tokens.get(j)?.is_punct('<') {
        let mut depth = 0i32;
        while j < tokens.len() {
            if tokens[j].is_punct('<') {
                depth += 1;
            } else if tokens[j].is_punct('>') {
                depth -= 1;
                if depth == 0 {
                    j += 1;
                    break;
                }
            }
            j += 1;
        }
    }
    // Walk to the body `{`, tracking the last ident seen at angle depth
    // 0 after the most recent `for` (or since the generics when there
    // is no `for`): that ident is the self type's name.
    let mut angle = 0i32;
    let mut last_ident: Option<String> = None;
    while j < tokens.len() {
        let t = &tokens[j];
        if t.is_punct('<') {
            angle += 1;
        } else if t.is_punct('>') {
            angle -= 1;
        } else if t.is_punct('{') && angle <= 0 {
            return last_ident.map(|name| (name, j));
        } else if t.is_punct(';') && angle <= 0 {
            return None;
        } else if angle == 0 && t.kind == TokenKind::Ident {
            match t.text.as_str() {
                "for" => last_ident = None,
                "where" => {
                    // The type is fixed; find the `{` and finish.
                    let mut k = j + 1;
                    let mut a = 0i32;
                    while k < tokens.len() {
                        if tokens[k].is_punct('<') {
                            a += 1;
                        } else if tokens[k].is_punct('>') {
                            a -= 1;
                        } else if tokens[k].is_punct('{') && a <= 0 {
                            return last_ident.map(|name| (name, k));
                        }
                        k += 1;
                    }
                    return None;
                }
                _ => last_ident = Some(t.text.clone()),
            }
        }
        j += 1;
    }
    None
}

/// Parses the fn item whose `fn` keyword sits at `fn_tok`.
fn parse_fn(
    tokens: &[Token],
    fn_tok: usize,
    attr_spans: &[AttrSpan],
    mod_regions: &[(String, usize, usize)],
    type_regions: &[(String, usize, usize)],
    parsed: &ParsedFile,
) -> Option<FnItem> {
    let name_tok = tokens.get(fn_tok + 1)?;
    if name_tok.kind != TokenKind::Ident {
        return None; // `fn(..)` pointer type, not an item.
    }

    // Walk back over qualifiers (`pub`, `pub(crate)`, `const`,
    // `unsafe`, `async`, `extern "C"`) to the start of the item, then
    // over contiguous attribute clusters.
    let mut start = fn_tok;
    while start > 0 {
        let prev = &tokens[start - 1];
        let qualifier = match prev.kind {
            TokenKind::Ident => matches!(
                prev.text.as_str(),
                "pub" | "const" | "unsafe" | "async" | "extern" | "crate" | "super" | "in" | "self"
            ),
            TokenKind::Str => true, // `extern "C"`
            TokenKind::Punct => prev.is_punct('(') || prev.is_punct(')'),
            TokenKind::Number => false,
        };
        if !qualifier {
            break;
        }
        start -= 1;
    }
    let mut attr_test = false;
    let mut cursor = start;
    while cursor > 0 {
        let Some(span) = attr_spans
            .iter()
            .find(|s| s.end == cursor - 1 || (cursor >= 1 && s.end + 1 == cursor))
        else {
            break;
        };
        if span.end >= cursor {
            break;
        }
        attr_test |= span.idents.iter().any(|ident| ident == "test");
        cursor = span.start;
    }

    // Body: scan forward to the signature-level `{` (or `;`).
    let body = fn_body_range(tokens, fn_tok);

    let in_test_mod = parsed
        .test_regions
        .iter()
        .any(|&(s, e)| fn_tok >= s && fn_tok <= e);

    let impl_type = type_regions
        .iter()
        .filter(|&&(_, open, close)| fn_tok > open && fn_tok < close)
        .min_by_key(|&&(_, open, close)| close - open)
        .map(|(name, _, _)| name.clone());

    let mut modules: Vec<(usize, String)> = mod_regions
        .iter()
        .filter(|&&(_, open, close)| fn_tok > open && fn_tok < close)
        .map(|(name, open, _)| (*open, name.clone()))
        .collect();
    modules.sort_by_key(|&(open, _)| open);

    Some(FnItem {
        name: name_tok.text.clone(),
        impl_type,
        modules: modules.into_iter().map(|(_, name)| name).collect(),
        is_test: attr_test || in_test_mod,
        line: tokens[fn_tok].line,
        fn_tok,
        body,
        ret: body.and_then(|(open, _)| fn_return_type(tokens, fn_tok, open)),
    })
}

/// Parses the `-> Type` of the fn signature between `fn_tok` and the
/// body `{` at `body_open`, skipping `->`s nested in parameter lists
/// (fn-pointer types) and generic bounds (`F: Fn() -> T`).
fn fn_return_type(tokens: &[Token], fn_tok: usize, body_open: usize) -> Option<(String, String)> {
    let mut paren = 0i32;
    let mut angle = 0i32;
    let mut m = fn_tok + 1;
    while m < body_open {
        let t = &tokens[m];
        if t.is_punct('(') {
            paren += 1;
        } else if t.is_punct(')') {
            paren -= 1;
        } else if t.is_punct('<') {
            angle += 1;
        } else if t.is_punct('>') {
            if m > 0 && tokens[m - 1].is_punct('-') {
                // An arrow, not an angle close.
                if paren == 0 && angle == 0 {
                    return parse_base_type(tokens, m + 1, body_open);
                }
            } else {
                angle = (angle - 1).max(0);
            }
        }
        m += 1;
    }
    None
}

/// The `{ .. }` body token range of the fn at `fn_tok`, or `None` for a
/// bodiless declaration.
fn fn_body_range(tokens: &[Token], fn_tok: usize) -> Option<(usize, usize)> {
    let mut open = fn_tok;
    let mut brackets = 0u32;
    while open < tokens.len() && !tokens[open].is_punct('{') {
        if tokens[open].is_punct('[') {
            brackets += 1;
        } else if tokens[open].is_punct(']') {
            brackets = brackets.saturating_sub(1);
        } else if brackets == 0 && tokens[open].is_punct(';') {
            return None;
        }
        open += 1;
    }
    let close = match_brace(tokens, open)?;
    Some((open, close))
}

/// Parses `const NAME: <ty> = <int>;` into `(NAME, value)`.
fn parse_int_const(tokens: &[Token], const_tok: usize) -> Option<(String, u32)> {
    let name = tokens.get(const_tok + 1)?;
    if name.kind != TokenKind::Ident {
        return None;
    }
    // Find the `=` before the next `;` (shallow: const generics and
    // array-length consts with complex initializers are skipped).
    let mut j = const_tok + 2;
    while j < tokens.len() && !tokens[j].is_punct('=') {
        if tokens[j].is_punct(';') || tokens[j].is_punct('{') || tokens[j].is_punct('(') {
            return None;
        }
        j += 1;
    }
    let value = tokens.get(j + 1)?;
    if value.kind != TokenKind::Number || !tokens.get(j + 2).is_some_and(|t| t.is_punct(';')) {
        return None;
    }
    let parsed: u32 = value.text.replace('_', "").parse().ok()?;
    Some((name.text.clone(), parsed))
}

/// Parses `RankedMutex::new(<name-str>, <rank>, ..)` plus the field or
/// binding it is assigned to.
fn parse_mutex_def(
    tokens: &[Token],
    ident_tok: usize,
    test_regions: &[(usize, usize)],
) -> Option<MutexDef> {
    // `RankedMutex` `::` [turbofish] `new` `(`
    let mut j = ident_tok + 1;
    if !(tokens.get(j)?.is_punct(':') && tokens.get(j + 1)?.is_punct(':')) {
        return None;
    }
    j += 2;
    if tokens.get(j)?.is_punct('<') {
        let mut depth = 0i32;
        while j < tokens.len() {
            if tokens[j].is_punct('<') {
                depth += 1;
            } else if tokens[j].is_punct('>') {
                depth -= 1;
                if depth == 0 {
                    j += 1;
                    break;
                }
            }
            j += 1;
        }
        if !(tokens.get(j)?.is_punct(':') && tokens.get(j + 1)?.is_punct(':')) {
            return None;
        }
        j += 2;
    }
    if !tokens.get(j)?.is_ident("new") {
        return None;
    }
    let open = j + 1;
    let close = match_paren(tokens, open)?;

    // Arguments: name string, `,`, rank expression, `,`, value.
    let mut k = open + 1;
    let lock_name = if tokens.get(k).is_some_and(|t| t.kind == TokenKind::Str) {
        let name = tokens[k].text.clone();
        k += 1;
        Some(name)
    } else {
        None
    };
    if !tokens.get(k).is_some_and(|t| t.is_punct(',')) {
        return None;
    }
    k += 1;
    // The rank expression runs to the next depth-1 comma.
    let mut rank_tokens = Vec::new();
    let mut depth = 0i32;
    let mut m = k;
    while m < close {
        let t = &tokens[m];
        if t.is_punct('(') || t.is_punct('[') || t.is_punct('<') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('>') {
            depth -= 1;
        } else if t.is_punct(',') && depth == 0 {
            break;
        }
        rank_tokens.push(t);
        m += 1;
    }
    let rank = match rank_tokens.as_slice() {
        [t] if t.kind == TokenKind::Number => t
            .text
            .replace('_', "")
            .parse()
            .map_or(RankExpr::Opaque, RankExpr::Lit),
        _ => {
            // A path like `sync::RANK_CATALOG`: take the last ident.
            match rank_tokens
                .iter()
                .rev()
                .find(|t| t.kind == TokenKind::Ident)
            {
                Some(t) => RankExpr::Const(t.text.clone()),
                None => RankExpr::Opaque,
            }
        }
    };

    // The destination: `field: RankedMutex::new(..)` in a struct
    // literal, or `let [mut] name = RankedMutex::new(..)`.
    let binding = if ident_tok >= 2
        && tokens[ident_tok - 1].is_punct(':')
        && !tokens[ident_tok - 2].is_punct(':')
        && tokens[ident_tok - 2].kind == TokenKind::Ident
    {
        Some(tokens[ident_tok - 2].text.clone())
    } else if ident_tok >= 2 && tokens[ident_tok - 1].is_punct('=') {
        let mut b = ident_tok - 2;
        if tokens[b].is_ident("mut") && b > 0 {
            b -= 1;
        }
        (tokens[b].kind == TokenKind::Ident).then(|| tokens[b].text.clone())
    } else {
        None
    };

    let in_test = test_regions
        .iter()
        .any(|&(s, e)| ident_tok >= s && ident_tok <= e);

    Some(MutexDef {
        binding,
        lock_name,
        rank,
        line: tokens[ident_tok].line,
        in_test,
    })
}

/// Parses the `.lock()` acquisition whose `lock` ident sits at `tok`,
/// computing the binding name and the conservative guard hold range.
fn parse_lock_site(tokens: &[Token], tok: usize) -> Option<LockSite> {
    // Binding: the ident before the `.` (`cache` in `self.cache.lock()`).
    let binding_tok = &tokens[tok - 2];
    if binding_tok.kind != TokenKind::Ident {
        return None;
    }
    let close = tok + 2; // `lock` `(` `)`

    // Is the receiver chain the RHS of `let [mut] name = <chain>.lock();`?
    // Walk back over the receiver chain (`ident`/`.`/`self`), then check
    // for `=` preceded by a `let` pattern.
    let mut b = tok - 1; // the `.` before `lock`
    while b > 0 {
        let prev = &tokens[b - 1];
        if prev.kind == TokenKind::Ident || prev.is_punct('.') || prev.is_punct('&') {
            b -= 1;
        } else {
            break;
        }
    }
    // Only a `lock()` that is the *entire* right-hand side binds the
    // guard: `let g = x.lock();`. With anything after the call
    // (`let n = x.lock().len();`, `let c = match x.lock().f { .. }`)
    // the guard is a temporary and `let` binds the result.
    let rhs_is_whole_lock = tokens.get(close + 1).is_some_and(|t| t.is_punct(';'));
    let let_bound_name = if rhs_is_whole_lock && b >= 2 && tokens[b - 1].is_punct('=') {
        let mut n = b - 2;
        if tokens[n].is_ident("mut") && n > 0 {
            n -= 1;
        }
        if tokens[n].kind == TokenKind::Ident && n > 0 && tokens[n - 1].is_ident("let") {
            Some(tokens[n].text.clone())
        } else {
            None
        }
    } else {
        None
    };

    let hold_end = match let_bound_name {
        Some(guard) => {
            // Held to the end of the innermost enclosing block, or to
            // an explicit `drop(guard)`.
            let block_end = innermost_block_end(tokens, tok);
            let mut end = block_end;
            let mut m = close + 1;
            while m + 3 <= block_end {
                if tokens[m].is_ident("drop")
                    && tokens[m + 1].is_punct('(')
                    && tokens[m + 2].is_ident(&guard)
                    && tokens[m + 3].is_punct(')')
                {
                    end = m;
                    break;
                }
                m += 1;
            }
            end
        }
        None => {
            // A temporary: held to the end of the enclosing statement.
            // That includes the body of a `match`/`if` whose scrutinee
            // or condition produced the guard (depth-1 braces), but a
            // `}` closing such a block *ends* the statement — only an
            // `else` continuation keeps it alive.
            let mut depth = 0i32;
            let mut m = close + 1;
            while m < tokens.len() {
                let t = &tokens[m];
                if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
                    depth += 1;
                } else if t.is_punct(')') || t.is_punct(']') {
                    depth -= 1;
                } else if t.is_punct('}') {
                    if depth <= 1 && !tokens.get(m + 1).is_some_and(|t| t.is_ident("else")) {
                        break;
                    }
                    depth -= 1;
                } else if t.is_punct(';') && depth <= 0 {
                    break;
                }
                m += 1;
            }
            m
        }
    };

    Some(LockSite {
        binding: binding_tok.text.clone(),
        line: tokens[tok].line,
        tok,
        hold_end,
    })
}

/// The token index of the `}` closing the innermost block containing
/// `tok` (or the end of the file when unbalanced).
fn innermost_block_end(tokens: &[Token], tok: usize) -> usize {
    let mut depth = 0i32;
    let mut m = tok;
    while m < tokens.len() {
        let t = &tokens[m];
        if t.is_punct('{') {
            depth += 1;
        } else if t.is_punct('}') {
            if depth == 0 {
                return m;
            }
            depth -= 1;
        }
        m += 1;
    }
    tokens.len()
}

/// Parses a call expression whose name ident sits at `i`, if `i` really
/// is a call.
fn parse_call(tokens: &[Token], i: usize) -> Option<CallSite> {
    let tok = &tokens[i];
    if tok.kind != TokenKind::Ident || NON_CALL_KEYWORDS.contains(&tok.text.as_str()) {
        return None;
    }
    // Definitions are not calls.
    if i > 0 && (tokens[i - 1].is_ident("fn") || tokens[i - 1].is_ident("mod")) {
        return None;
    }
    // `(` directly, or after a `::<..>` turbofish.
    let mut j = i + 1;
    if tokens.get(j).is_some_and(|t| t.is_punct(':'))
        && tokens.get(j + 1).is_some_and(|t| t.is_punct(':'))
        && tokens.get(j + 2).is_some_and(|t| t.is_punct('<'))
    {
        let mut depth = 0i32;
        let mut k = j + 2;
        while k < tokens.len() {
            if tokens[k].is_punct('<') {
                depth += 1;
            } else if tokens[k].is_punct('>') {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            k += 1;
        }
        j = k + 1;
    }
    if !tokens.get(j).is_some_and(|t| t.is_punct('(')) {
        return None;
    }

    let (kind, qualifier, recv) = if i > 0 && tokens[i - 1].is_punct('.') {
        (CallKind::Method, None, method_recv(tokens, i))
    } else if i >= 2 && tokens[i - 1].is_punct(':') && tokens[i - 2].is_punct(':') {
        // Qualifier: ident directly before the `::`, or before a
        // `::<..>` generic segment.
        let mut q = i - 3;
        let qualifier = if tokens.get(q).is_some_and(|t| t.is_punct('>')) {
            // `Vec::<u8>::new` — walk back over the angle group.
            let mut depth = 0i32;
            loop {
                let t = tokens.get(q)?;
                if t.is_punct('>') {
                    depth += 1;
                } else if t.is_punct('<') {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                if q == 0 {
                    return None;
                }
                q -= 1;
            }
            if q >= 3 && tokens[q - 1].is_punct(':') && tokens[q - 2].is_punct(':') {
                Some(tokens[q - 3].text.clone())
            } else {
                None
            }
        } else {
            tokens
                .get(q)
                .filter(|t| t.kind == TokenKind::Ident)
                .map(|t| t.text.clone())
        };
        (CallKind::Path, qualifier, Recv::None)
    } else {
        (CallKind::Plain, None, Recv::None)
    };

    Some(CallSite {
        kind,
        name: tok.text.clone(),
        qualifier,
        recv,
        binds_local: call_binds_local(tokens, i, j),
        line: tok.line,
        tok: i,
    })
}

/// For a call whose name ident is at `i` and whose argument `(` is at
/// `paren`: the `let` binding name when the call is the whole
/// right-hand side (`let base = self.current();`, `let s = make()?;`).
fn call_binds_local(tokens: &[Token], i: usize, paren: usize) -> Option<String> {
    // The statement must end right after the arguments (`);` or `)?;`).
    let close = match_paren(tokens, paren)?;
    let after = tokens.get(close + 1)?;
    let ends = after.is_punct(';')
        || (after.is_punct('?') && tokens.get(close + 2).is_some_and(|t| t.is_punct(';')));
    if !ends {
        return None;
    }
    // Walk back over the callee expression (receiver chain or path).
    let mut b = i;
    while b > 0 {
        let prev = &tokens[b - 1];
        if prev.kind == TokenKind::Ident
            || prev.is_punct('.')
            || prev.is_punct('&')
            || prev.is_punct(':')
        {
            b -= 1;
        } else {
            break;
        }
    }
    if b < 2 || !tokens[b - 1].is_punct('=') {
        return None;
    }
    let mut n = b - 2;
    if tokens[n].is_ident("mut") && n > 0 {
        n -= 1;
    }
    (tokens[n].kind == TokenKind::Ident && n > 0 && tokens[n - 1].is_ident("let"))
        .then(|| tokens[n].text.clone())
}

/// Classifies the receiver of the method call whose name ident is at
/// `i` (so `tokens[i - 1]` is the `.`).
fn method_recv(tokens: &[Token], i: usize) -> Recv {
    let Some(prev) = i.checked_sub(2).and_then(|p| tokens.get(p)) else {
        return Recv::Opaque;
    };
    if prev.kind == TokenKind::Ident {
        return if prev.text == "self" {
            Recv::SelfRecv
        } else {
            Recv::Ident(prev.text.clone())
        };
    }
    // `field.lock().m(..)`: tokens are `field . lock ( ) . m (`.
    if prev.is_punct(')')
        && i >= 7
        && tokens[i - 3].is_punct('(')
        && tokens[i - 4].is_ident("lock")
        && tokens[i - 5].is_punct('.')
        && tokens[i - 6].kind == TokenKind::Ident
    {
        return Recv::LockChain(tokens[i - 6].text.clone());
    }
    Recv::Opaque
}

/// The `( .. )` argument token range of the call whose name ident is at
/// `name_tok`.
fn call_paren_range(tokens: &[Token], name_tok: usize) -> Option<(usize, usize)> {
    let mut j = name_tok + 1;
    while j < tokens.len() && !tokens[j].is_punct('(') {
        j += 1;
        if j > name_tok + 16 {
            return None; // give up: not a nearby call paren
        }
    }
    let close = match_paren(tokens, j)?;
    Some((j, close))
}

/// Std wrapper types method calls reach *through* (guards, derefs,
/// combinators): receiver typing unwraps these to the payload type.
/// Maps (`HashMap`, `BTreeMap`) are deliberately absent — their
/// "payload" is a key/value pair, not something a method call lands on.
const TYPE_WRAPPERS: &[&str] = &[
    "Option",
    "Arc",
    "Rc",
    "Box",
    "Mutex",
    "RwLock",
    "RankedMutex",
    "Vec",
    "VecDeque",
    "Cell",
    "RefCell",
    "ManuallyDrop",
    "OnceLock",
    "Result",
];

/// Parses the named fields of the `struct` whose keyword is at `i` into
/// `out`. Tuple and unit structs have no named receivers and are
/// skipped.
fn parse_struct_fields(tokens: &[Token], i: usize, out: &mut Vec<FieldType>) {
    if !tokens
        .get(i + 1)
        .is_some_and(|t| t.kind == TokenKind::Ident)
    {
        return;
    }
    // Find the body `{`, skipping generics and where clauses; a `;` at
    // angle depth 0 first means a tuple/unit struct.
    let mut j = i + 2;
    let mut angle = 0i32;
    let open = loop {
        let Some(t) = tokens.get(j) else {
            return;
        };
        if t.is_punct('<') {
            angle += 1;
        } else if t.is_punct('>') {
            angle = (angle - 1).max(0);
        } else if angle == 0 && t.is_punct(';') {
            return;
        } else if angle == 0 && t.is_punct('{') {
            break j;
        } else if angle == 0 && t.is_punct('(') {
            let Some(close) = match_paren(tokens, j) else {
                return;
            };
            j = close;
        }
        j += 1;
    };
    let Some(close) = match_brace(tokens, open) else {
        return;
    };

    let mut p = open + 1;
    while p < close {
        let t = &tokens[p];
        // Skip field attributes.
        if t.is_punct('#') && tokens.get(p + 1).is_some_and(|t| t.is_punct('[')) {
            let mut depth = 0i32;
            let mut k = p + 1;
            while k < close {
                if tokens[k].is_punct('[') {
                    depth += 1;
                } else if tokens[k].is_punct(']') {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                k += 1;
            }
            p = k + 1;
            continue;
        }
        if t.is_ident("pub") {
            p += 1;
            if tokens.get(p).is_some_and(|t| t.is_punct('(')) {
                let Some(c) = match_paren(tokens, p) else {
                    return;
                };
                p = c + 1;
            }
            continue;
        }
        // `name : Type` (and not a `::` path).
        if t.kind == TokenKind::Ident
            && tokens.get(p + 1).is_some_and(|t| t.is_punct(':'))
            && !tokens.get(p + 2).is_some_and(|t| t.is_punct(':'))
        {
            if let Some((outer, payload)) = parse_base_type(tokens, p + 2, close) {
                out.push(FieldType {
                    name: t.text.clone(),
                    outer,
                    payload,
                });
            }
            p = skip_to_field_end(tokens, p + 2, close);
            continue;
        }
        p += 1;
    }
}

/// Extracts `(outer, payload)` from the type starting at `start`:
/// the head of the leading path, and the same after peeling
/// [`TYPE_WRAPPERS`] layers (`RankedMutex<Arc<Fleet>>` → `("RankedMutex",
/// "Fleet")`). Returns `None` for shapes with no leading type path
/// (tuples, arrays, fn pointers, bare lifetimes).
fn parse_base_type(tokens: &[Token], start: usize, limit: usize) -> Option<(String, String)> {
    let mut p = start;
    // Skip reference/mutability/dyn/impl prefixes (the lexer already
    // drops lifetimes entirely).
    while p < limit {
        let t = &tokens[p];
        if t.is_punct('&') || t.is_ident("mut") || t.is_ident("dyn") || t.is_ident("impl") {
            p += 1;
        } else {
            break;
        }
    }
    if !tokens.get(p).is_some_and(|t| t.kind == TokenKind::Ident) || p >= limit {
        return None;
    }
    // Walk the path to its last segment: `std::sync::Arc` → `Arc`.
    let mut head = tokens[p].text.clone();
    while p + 3 < limit
        && tokens[p + 1].is_punct(':')
        && tokens[p + 2].is_punct(':')
        && tokens[p + 3].kind == TokenKind::Ident
    {
        p += 3;
        head = tokens[p].text.clone();
    }
    if head == "fn" {
        return None;
    }
    let payload = if TYPE_WRAPPERS.contains(&head.as_str())
        && tokens.get(p + 1).is_some_and(|t| t.is_punct('<'))
    {
        match parse_base_type(tokens, p + 2, limit) {
            Some((_, inner)) => inner,
            None => head.clone(),
        }
    } else {
        head.clone()
    };
    Some((head, payload))
}

/// Advances past the current struct field: returns the index just after
/// the next `,` at bracket depth 0, or `limit`.
fn skip_to_field_end(tokens: &[Token], start: usize, limit: usize) -> usize {
    let mut depth = 0i32;
    let mut p = start;
    while p < limit {
        let t = &tokens[p];
        if t.is_punct('<') || t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
            depth += 1;
        } else if t.is_punct('>') || t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
            // `->` in fn-pointer types must not unbalance the walk.
            depth = (depth - 1).max(0);
        } else if t.is_punct(',') && depth == 0 {
            return p + 1;
        }
        p += 1;
    }
    limit
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parse_src(src: &str) -> ParsedFile {
        parse(&lex(src).expect("fixture lexes"))
    }

    #[test]
    fn fn_items_with_impls_mods_and_attrs() {
        let src = "\
pub fn free() {}
impl Engine {
    pub fn method(&self) -> u8 { 0 }
    fn private_method(&self) {}
}
mod x86 {
    #[target_feature(enable = \"avx2\")]
    pub(super) unsafe fn kernel(x: &[f64]) {}
}
#[cfg(test)]
mod tests {
    #[test]
    fn a_test() {}
}";
        let p = parse_src(src);
        let names: Vec<&str> = p.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(
            names,
            ["free", "method", "private_method", "kernel", "a_test"]
        );
        assert!(p.fns[0].impl_type.is_none());
        assert_eq!(p.fns[1].impl_type.as_deref(), Some("Engine"));
        assert_eq!(p.fns[2].impl_type.as_deref(), Some("Engine"));
        assert_eq!(p.fns[3].modules, ["x86"]);
        assert!(p.fns[..4].iter().all(|f| !f.is_test));
        assert!(p.fns[4].is_test);
    }

    #[test]
    fn calls_by_kind_with_attribution() {
        let src = "\
fn caller() {
    helper(1);
    kernel::dominates(a, b);
    Self::assoc();
    value.method(x);
    items.iter().collect::<Vec<_>>();
}";
        let p = parse_src(src);
        let find = |name: &str| p.calls.iter().find(|c| c.name == name).expect(name);
        assert_eq!(find("helper").kind, CallKind::Plain);
        let dom = find("dominates");
        assert_eq!(dom.kind, CallKind::Path);
        assert_eq!(dom.qualifier.as_deref(), Some("kernel"));
        assert_eq!(find("assoc").qualifier.as_deref(), Some("Self"));
        assert_eq!(find("method").kind, CallKind::Method);
        assert_eq!(find("collect").kind, CallKind::Method);
        for c in &p.calls {
            assert_eq!(p.enclosing_fn(c.tok), Some(0), "{c:?}");
        }
    }

    #[test]
    fn mutex_defs_ranks_and_lock_sites() {
        let src = "\
pub const RANK_CATALOG: u32 = 200;
fn build() -> S {
    S { catalog: RankedMutex::new(\"engine.catalog\", RANK_CATALOG, ()) }
}
fn local() {
    let m = RankedMutex::new(\"x\", 10, 0u32);
}
impl S {
    fn read(&self) {
        let guard = self.catalog.lock();
        use_it(&guard);
        drop(guard);
        after();
    }
    fn temp(&self) -> u64 {
        self.catalog.lock().generation;
        0
    }
}";
        let p = parse_src(src);
        assert_eq!(p.rank_consts, [("RANK_CATALOG".to_string(), 200)]);
        assert_eq!(p.mutex_defs.len(), 2);
        assert_eq!(p.mutex_defs[0].binding.as_deref(), Some("catalog"));
        assert_eq!(p.mutex_defs[0].lock_name.as_deref(), Some("engine.catalog"));
        assert_eq!(p.mutex_defs[0].rank, RankExpr::Const("RANK_CATALOG".into()));
        assert_eq!(p.mutex_defs[1].binding.as_deref(), Some("m"));
        assert_eq!(p.mutex_defs[1].rank, RankExpr::Lit(10));

        assert_eq!(p.lock_sites.len(), 2);
        let let_bound = &p.lock_sites[0];
        assert_eq!(let_bound.binding, "catalog");
        // `drop(guard)` ends the hold before `after()`.
        let after = p.calls.iter().find(|c| c.name == "after").expect("after");
        assert!(let_bound.hold_end < after.tok, "{let_bound:?} vs {after:?}");
        let use_it = p.calls.iter().find(|c| c.name == "use_it").expect("use_it");
        assert!(use_it.tok < let_bound.hold_end);
        // The temporary ends at its statement.
        let temp = &p.lock_sites[1];
        assert!(temp.hold_end > temp.tok && temp.hold_end < p.fns[3].body.expect("body").1);
    }

    #[test]
    fn spawn_ranges_cover_the_closure_only() {
        let src = "\
fn start() {
    std::thread::spawn(move || { worker(); });
    outside();
}";
        let p = parse_src(src);
        let worker = p.calls.iter().find(|c| c.name == "worker").expect("w");
        let outside = p.calls.iter().find(|c| c.name == "outside").expect("o");
        assert!(p.innermost_spawn(worker.tok).is_some());
        assert!(p.innermost_spawn(outside.tok).is_none());
    }

    #[test]
    fn impl_trait_for_type_resolves_to_the_type() {
        let src = "\
impl<T> std::ops::Deref for Guard<'_, T> {
    fn deref(&self) -> &T { &self.inner }
}
impl fmt::Display for LexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result { Ok(()) }
}";
        let p = parse_src(src);
        assert_eq!(p.fns[0].impl_type.as_deref(), Some("Guard"));
        assert_eq!(p.fns[1].impl_type.as_deref(), Some("LexError"));
    }
}
