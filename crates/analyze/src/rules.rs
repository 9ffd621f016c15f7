//! The rule engine: token-pattern scans over a [`lexed`](crate::lexer)
//! file, plus the shared violation/suppression vocabulary the
//! interprocedural rules ([`crate::interp`]) report through.
//!
//! Two local rules:
//!
//! * **float-cmp (R1)** — `partial_cmp(..).unwrap()` /
//!   `partial_cmp(..).expect(..)` is banned; floats must use
//!   `total_cmp`. A `partial_cmp` whose result is handled (matched,
//!   `?`-propagated, mapped) is fine; only the NaN-panicking tail call
//!   is flagged.
//! * **deny-alloc (R3)** — inside a function annotated with a
//!   `// ssq-analyze: deny-alloc` comment, allocating calls are banned.
//!   These are the kernel cores whose alloc-freedom `zero_alloc.rs`
//!   proves at runtime; the annotation keeps them that way at review
//!   time.
//!
//! The two interprocedural rules (R6 `deny-alloc-transitive`, R8
//! `lock-rank-static`) are implemented in [`crate::interp`] over the
//! workspace call graph; they share this module's [`Rule`]/[`Violation`]
//! types and the allow machinery below. (R2, R4, R5, R7 and R9 moved onto
//! rustc and clippy; see `DESIGN.md` §12.1.)
//!
//! Any violation can be suppressed with
//! `// ssq-analyze: allow(<rule>): <reason>` on the same line or the
//! line above; the reason is mandatory, and a directive without one is
//! itself reported. [`apply_suppressions`] records which directives
//! actually fired so `--audit-suppressions` can list stale ones.

use crate::lexer::{lex, LexError, Lexed, Token, TokenKind};
use crate::parser::{fn_body_after, match_paren};

/// The rule a [`Violation`] belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Rule {
    /// R1: `partial_cmp(..).unwrap()/.expect(..)` on floats.
    FloatCmp,
    /// R3: allocation inside a `deny-alloc` annotated function.
    DenyAlloc,
    /// R6: allocation reachable from a `deny-alloc` kernel root
    /// through the call graph.
    AllocTransitive,
    /// R8: a statically reachable out-of-order `RankedMutex`
    /// acquisition (DESIGN.md §12.2).
    LockRankStatic,
    /// A malformed `ssq-analyze:` directive (unknown rule name or
    /// missing reason).
    BadDirective,
}

impl Rule {
    /// The kebab-case name used in reports and allow directives.
    pub fn name(self) -> &'static str {
        match self {
            Rule::FloatCmp => "float-cmp",
            Rule::DenyAlloc => "deny-alloc",
            Rule::AllocTransitive => "deny-alloc-transitive",
            Rule::LockRankStatic => "lock-rank-static",
            Rule::BadDirective => "bad-directive",
        }
    }

    fn from_name(name: &str) -> Option<Rule> {
        match name {
            "float-cmp" => Some(Rule::FloatCmp),
            "deny-alloc" => Some(Rule::DenyAlloc),
            "deny-alloc-transitive" => Some(Rule::AllocTransitive),
            "lock-rank-static" => Some(Rule::LockRankStatic),
            _ => None,
        }
    }
}

/// One rule violation in one file.
#[derive(Clone, Debug)]
pub struct Violation {
    /// The violated rule.
    pub rule: Rule,
    /// 1-based source line.
    pub line: u32,
    /// Human-readable description with the expected fix.
    pub message: String,
}

/// One `// ssq-analyze: allow(<rule>): <reason>` directive.
#[derive(Clone, Debug)]
pub struct Allow {
    /// The rule it suppresses.
    pub rule: Rule,
    /// 1-based line of the directive (covers this line and the next).
    pub line: u32,
    /// `true` once the directive has suppressed at least one
    /// violation; stale directives are surfaced by
    /// `--audit-suppressions`.
    pub used: bool,
}

/// The raw result of the local (single-file) rule passes, before
/// suppression.
#[derive(Debug, Default)]
pub struct LocalScan {
    /// Raw violations, unsuppressed and unsorted.
    pub violations: Vec<Violation>,
    /// Allow directives found in the file.
    pub allows: Vec<Allow>,
    /// Token ranges of `deny-alloc` annotated fn bodies — the
    /// transitive allocation rule roots its traversal here.
    pub alloc_regions: Vec<(usize, usize)>,
}

/// Analyzes one source file with the local rules only. Returns the
/// surviving (non-suppressed) violations, or a [`LexError`] when the
/// file cannot be lexed — the caller maps that to the internal-error
/// exit code.
pub fn analyze_source(src: &str) -> Result<Vec<Violation>, LexError> {
    let lexed = lex(src)?;
    let mut scan = scan_lexed(&lexed);
    let (mut kept, _suppressed) = apply_suppressions(scan.violations, &mut scan.allows);
    kept.sort_by_key(|v| v.line);
    Ok(kept)
}

/// Runs the local rule passes over an already-lexed file, returning
/// raw violations plus the allow directives (suppression is applied
/// separately so interprocedural findings can be merged in first).
pub fn scan_lexed(lexed: &Lexed) -> LocalScan {
    let tokens = &lexed.tokens;
    let mut scan = LocalScan::default();

    // Pass 0: directives. Allow directives are collected; deny-alloc
    // markers become function-body regions; malformed directives are
    // violations in their own right.
    for comment in &lexed.comments {
        let text = comment.text.trim();
        let Some(rest) = text.strip_prefix("ssq-analyze:") else {
            continue;
        };
        let rest = rest.trim();
        if rest == "deny-alloc" {
            if let Some(region) = fn_body_after(tokens, comment.line) {
                scan.alloc_regions.push(region);
            } else {
                scan.violations.push(Violation {
                    rule: Rule::BadDirective,
                    line: comment.line,
                    message: "`deny-alloc` directive is not followed by a function".into(),
                });
            }
        } else if let Some(args) = rest.strip_prefix("allow(") {
            match parse_allow(args) {
                Some(rule) => scan.allows.push(Allow {
                    rule,
                    line: comment.line,
                    used: false,
                }),
                None => scan.violations.push(Violation {
                    rule: Rule::BadDirective,
                    line: comment.line,
                    message: format!(
                        "malformed allow directive `{text}`: expected \
                         `ssq-analyze: allow(<rule>): <reason>` with a known rule \
                         and a non-empty reason"
                    ),
                }),
            }
        } else {
            scan.violations.push(Violation {
                rule: Rule::BadDirective,
                line: comment.line,
                message: format!("unknown ssq-analyze directive `{text}`"),
            });
        }
    }
    let in_alloc_region = |idx: usize| {
        scan.alloc_regions
            .iter()
            .any(|&(s, e)| idx >= s && idx <= e)
    };

    let mut violations = Vec::new();

    // Pass 1: token-pattern rules.
    for (i, tok) in tokens.iter().enumerate() {
        if tok.kind != TokenKind::Ident {
            continue;
        }
        // R1 — everywhere, tests included: a NaN-unwrap is equally
        // wrong in a test oracle.
        if let Some(call) = partial_cmp_unwrap(tokens, i) {
            violations.push(Violation {
                rule: Rule::FloatCmp,
                line: tok.line,
                message: format!("`partial_cmp(..).{call}(..)` panics on NaN; use `total_cmp`"),
            });
        }
        // R3 — allocating calls inside deny-alloc function bodies.
        if in_alloc_region(i) {
            if let Some(banned) = alloc_call(tokens, i) {
                violations.push(Violation {
                    rule: Rule::DenyAlloc,
                    line: tok.line,
                    message: format!(
                        "`{banned}` inside a `deny-alloc` function; these kernels must \
                         stay allocation-free (see zero_alloc.rs)"
                    ),
                });
            }
        }
    }

    scan.violations.extend(violations);
    scan
}

/// Applies a file's allow directives to its violations (local and
/// interprocedural alike). A directive covers its own line and the
/// line below it (directive above the offending line, or trailing on
/// the same line). Directives that fire are marked
/// [`used`](Allow::used). Returns `(kept, suppressed)`.
pub fn apply_suppressions(
    violations: Vec<Violation>,
    allows: &mut [Allow],
) -> (Vec<Violation>, Vec<Violation>) {
    let mut kept = Vec::new();
    let mut suppressed = Vec::new();
    for v in violations {
        let matched = v.rule != Rule::BadDirective
            && allows.iter_mut().any(|a| {
                if a.rule == v.rule && (a.line == v.line || a.line + 1 == v.line) {
                    a.used = true;
                    true
                } else {
                    false
                }
            });
        if matched {
            suppressed.push(v);
        } else {
            kept.push(v);
        }
    }
    (kept, suppressed)
}

/// Parses the tail of an allow directive: `<rule>): <reason>`.
fn parse_allow(args: &str) -> Option<Rule> {
    let (name, rest) = args.split_once(')')?;
    let rule = Rule::from_name(name.trim())?;
    let reason = rest.trim().strip_prefix(':')?.trim();
    if reason.is_empty() {
        return None;
    }
    Some(rule)
}

/// If token `i` begins `partial_cmp(..).unwrap()` or
/// `partial_cmp(..).expect(..)`, returns the tail call's name. A
/// `fn partial_cmp(` is the `PartialOrd` impl itself, not a call.
fn partial_cmp_unwrap(tokens: &[Token], i: usize) -> Option<&str> {
    if !tokens[i].is_ident("partial_cmp") || (i > 0 && tokens[i - 1].is_ident("fn")) {
        return None;
    }
    let close = match_paren(tokens, i + 1)?;
    let (dot, call) = (tokens.get(close + 1)?, tokens.get(close + 2)?);
    (dot.is_punct('.') && (call.is_ident("unwrap") || call.is_ident("expect")))
        .then_some(call.text.as_str())
}

/// If token `i` begins an allocating call, returns its display form.
/// Shared with the transitive allocation rule, which applies it to
/// every fn body reachable from a `deny-alloc` root.
pub(crate) fn alloc_call(tokens: &[Token], i: usize) -> Option<&'static str> {
    let tok = &tokens[i];
    if tok.kind != TokenKind::Ident {
        return None;
    }
    let next_is = |off: usize, c: char| tokens.get(i + off).is_some_and(|t| t.is_punct(c));
    // `Type::name`, tolerating a turbofish: `Vec::<u8>::new`.
    let path_to = |name: &str| {
        if !(next_is(1, ':') && next_is(2, ':')) {
            return false;
        }
        let mut j = i + 3;
        if tokens.get(j).is_some_and(|t| t.is_punct('<')) {
            let mut depth = 0i32;
            while let Some(tok) = tokens.get(j) {
                if tok.is_punct('<') {
                    depth += 1;
                } else if tok.is_punct('>') {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                j += 1;
            }
            j += 1;
            if !(tokens.get(j).is_some_and(|t| t.is_punct(':'))
                && tokens.get(j + 1).is_some_and(|t| t.is_punct(':')))
            {
                return false;
            }
            j += 2;
        }
        tokens.get(j).is_some_and(|t| t.is_ident(name))
    };
    match tok.text.as_str() {
        "vec" if next_is(1, '!') => Some("vec![..]"),
        "format" if next_is(1, '!') => Some("format!(..)"),
        "Vec" if path_to("new") => Some("Vec::new()"),
        "Vec" if path_to("with_capacity") => Some("Vec::with_capacity(..)"),
        "Box" if path_to("new") => Some("Box::new(..)"),
        "String" if path_to("new") => Some("String::new()"),
        "String" if path_to("from") => Some("String::from(..)"),
        "to_vec" if i > 0 && tokens[i - 1].is_punct('.') && next_is(1, '(') => Some(".to_vec()"),
        "collect" if i > 0 && tokens[i - 1].is_punct('.') => Some(".collect()"),
        "to_owned" if i > 0 && tokens[i - 1].is_punct('.') && next_is(1, '(') => {
            Some(".to_owned()")
        }
        "to_string" if i > 0 && tokens[i - 1].is_punct('.') && next_is(1, '(') => {
            Some(".to_string()")
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(src: &str) -> Vec<Violation> {
        analyze_source(src).expect("fixture lexes")
    }

    #[test]
    fn r1_flags_partial_cmp_unwrap_and_expect() {
        let v = run("fn f(a: f64, b: f64) { a.partial_cmp(&b).unwrap(); }");
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, Rule::FloatCmp);

        let v = run("fn f(a: f64, b: f64) { a.partial_cmp(&b).expect(\"nan\"); }");
        assert_eq!(v.len(), 1, "{v:?}");
    }

    #[test]
    fn r1_allows_handled_partial_cmp_and_trait_impls() {
        let ok =
            "fn f(a: f64, b: f64) { a.partial_cmp(&b).unwrap_or(core::cmp::Ordering::Equal); }\n\
                  fn partial_cmp(x: &X, y: &X) -> Option<core::cmp::Ordering> { None }\n\
                  fn g(a: f64, b: f64) { a.total_cmp(&b); }";
        assert!(run(ok).is_empty());
    }

    #[test]
    fn r3_flags_allocation_only_inside_annotated_fns() {
        let src = "\
// ssq-analyze: deny-alloc
fn hot(xs: &[f64]) -> f64 { let v = vec![1.0]; v.iter().sum() }
fn cold() -> Vec<f64> { Vec::new() }";
        let v = run(src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, Rule::DenyAlloc);
        assert_eq!(v[0].line, 2);
    }

    #[test]
    fn r3_catches_the_full_ban_list() {
        for call in [
            "vec![0u8; 4]",
            "Vec::<u8>::new()",
            "Vec::with_capacity(4)",
            "Box::new(4)",
            "String::from(\"x\")",
            "String::new()",
            "xs.to_vec()",
            "xs.iter().collect::<Vec<_>>()",
            "s.to_owned()",
            "n.to_string()",
            "format!(\"{n}\")",
        ] {
            let src = format!("// ssq-analyze: deny-alloc\nfn hot() {{ let _ = {call}; }}");
            let v = run(&src);
            assert!(!v.is_empty(), "expected violation for `{call}`");
        }
    }

    #[test]
    fn violations_in_strings_and_comments_are_ignored() {
        let ok = "// example: a.partial_cmp(&b).unwrap() is banned\n\
                  fn f() -> &'static str { \"x.partial_cmp(&y).unwrap()\" }";
        assert!(run(ok).is_empty());
    }

    #[test]
    fn allow_directive_suppresses_with_reason() {
        let src = "\
// ssq-analyze: deny-alloc
fn hot() -> Vec<u32> {
    // ssq-analyze: allow(deny-alloc): the returned vector is the one allocation
    Vec::new()
}";
        assert!(run(src).is_empty());
    }

    #[test]
    fn allow_directive_without_reason_is_reported() {
        let src = "\
// ssq-analyze: allow(float-cmp):
fn f(a: f64, b: f64) { a.partial_cmp(&b).unwrap(); }";
        let v = run(src);
        assert!(v.iter().any(|v| v.rule == Rule::BadDirective), "{v:?}");
        assert!(v.iter().any(|v| v.rule == Rule::FloatCmp), "{v:?}");
    }

    #[test]
    fn interp_rule_names_round_trip_through_allow_directives() {
        for rule in [Rule::AllocTransitive, Rule::LockRankStatic] {
            assert_eq!(Rule::from_name(rule.name()), Some(rule));
        }
        assert_eq!(Rule::from_name("bad-directive"), None);
    }

    #[test]
    fn suppression_marks_directives_used_and_reports_survivors() {
        let violations = vec![
            Violation {
                rule: Rule::DenyAlloc,
                line: 5,
                message: "a".into(),
            },
            Violation {
                rule: Rule::DenyAlloc,
                line: 9,
                message: "b".into(),
            },
        ];
        let mut allows = vec![
            Allow {
                rule: Rule::DenyAlloc,
                line: 4,
                used: false,
            },
            Allow {
                rule: Rule::FloatCmp,
                line: 9,
                used: false,
            },
        ];
        let (kept, suppressed) = apply_suppressions(violations, &mut allows);
        assert_eq!(kept.len(), 1);
        assert_eq!(kept[0].line, 9);
        assert_eq!(suppressed.len(), 1);
        assert!(allows[0].used);
        assert!(!allows[1].used, "wrong-rule allow must stay unused");
    }

    #[test]
    fn deny_alloc_accepts_array_types_in_the_signature() {
        // The `;` inside `[f64; 4]` is part of an array type, not a
        // bodiless trait method — the directive must still bind.
        let src = "\
// ssq-analyze: deny-alloc
fn f(keys: &mut [f64; 4]) -> Vec<f64> {
    keys.to_vec()
}";
        let v = run(src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, Rule::DenyAlloc);
    }

    #[test]
    fn unknown_directive_is_reported() {
        let v = run("// ssq-analyze: frobnicate\nfn f() {}");
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, Rule::BadDirective);
    }
}
