//! The lint rules (D1, D2, D3, P1, X1, X2, X3) and the `lint:allow` grammar.
//!
//! Annotation grammar (documented in DESIGN.md §7):
//!
//! ```text
//! // lint:allow(<rule>): <non-empty reason>
//! ```
//!
//! where `<rule>` is one of `hash-order`, `wall-clock`, `addr-cast`,
//! `panic`. The annotation justifies violations **on its own line and on
//! the line immediately below it** (so it can trail the flagged code or
//! sit on its own line directly above). The annotation must *start* the
//! comment, and doc comments (`///`, `//!`) never carry annotations —
//! they may mention the grammar as prose, like this module does. A
//! malformed annotation — unknown rule name, missing or empty reason —
//! is itself a violation (rule A0): an allow that cannot be audited is
//! worse than none.

use crate::lexer::{Comment, Lexed, Tok, Token};
use crate::scan::{self, TestScopes};

/// Rule identifiers, as printed in diagnostics and accepted by
/// `--explain`.
pub const RULES: &[(&str, &str, &str)] = &[
    (
        "D1",
        "hash-order",
        "No `HashMap`/`HashSet` in the capture-path crates (trace, engine, workloads, staged).\n\
         Std hash collections iterate in a per-process random order; if that order reaches a\n\
         trace or a result, byte-identical replay breaks — the exact bug class PR 2 fixed in\n\
         stock_level. Use `BTreeMap`/`BTreeSet`, or justify a lookup-only/order-independent\n\
         use with `// lint:allow(hash-order): <reason>`.",
    ),
    (
        "D2",
        "wall-clock",
        "No wall-clock reads (`Instant::now`, `SystemTime::now`) outside `crates/bench`.\n\
         Wall-clock values feeding a capture or figure would make runs unreproducible; timing\n\
         belongs in the bench layer. Justify measurement-only uses with\n\
         `// lint:allow(wall-clock): <reason>`.",
    ),
    (
        "D3",
        "addr-cast",
        "No raw truncating `as u64`/`as usize` casts on address-typed expressions at the capture\n\
         boundary (crates/trace, crates/workloads, crates/staged). The 48-bit trace format\n\
         silently masks wider values in release builds (the PR 7 bug class); use the checked\n\
         AddressSpace/ScratchArena helpers, or justify a provably-in-range cast with\n\
         `// lint:allow(addr-cast): <reason>`.",
    ),
    (
        "P1",
        "panic",
        "No `unwrap`/`expect`/`panic!`/`todo!` in non-test library code of trace, sim, and\n\
         engine. Fallible paths return typed errors (ConfigError, AddressSpaceError,\n\
         EngineError); provably-infallible uses and documented panic shims carry\n\
         `// lint:allow(panic): <reason>`.",
    ),
    (
        "X1",
        "event-exhaustive",
        "Every `trace::Event` variant must be handled in the segment codec (`SegmentEncoder::push`\n\
         AND `Segment::decode_into`), in `TraceSummary` (summary.rs — its event-fold reference,\n\
         which a differential test holds `compute` to), and in the simulator\n\
         consume path (sim's ctx.rs/cursor.rs). A variant added in one place but not the\n\
         others silently drops or mis-prices events (the RemoteSend-skew class). There is no\n\
         allow annotation for X1 — handle the variant.",
    ),
    (
        "X2",
        "cc-exhaustive",
        "Every `engine::cc::CcBackend` variant must be handled in the interleaved scheduler's\n\
         park/wake accounting (`count_block` in crates/workloads/src/interleave.rs) AND in the\n\
         figure pipeline's label table (`cc_backend_label` in crates/core/src/figures.rs). A\n\
         backend added in the engine but not wired through those dispatch points would capture\n\
         with mis-attributed waits or render unlabeled sweep rows. There is no allow annotation\n\
         for X2 — handle the variant.",
    ),
    (
        "X3",
        "exchange-exhaustive",
        "Every `engine::exec::ExchangeStrategy` variant must be handled in the exchange router\n\
         (`exchange_rows` in crates/workloads/src/exchange.rs) AND in the figure pipeline's\n\
         label table (`exchange_label` in crates/core/src/figures.rs). A strategy added in the\n\
         engine but not wired through those dispatch points would silently ship no rows or\n\
         render unlabeled sweep rows. There is no allow annotation for X3 — handle the\n\
         variant.",
    ),
    (
        "A0",
        "bad-allow",
        "A `lint:allow` annotation must name a known rule (hash-order, wall-clock, addr-cast,\n\
         panic) and carry a non-empty reason after the colon. An allow that cannot be audited\n\
         is worse than none.",
    ),
];

/// One diagnostic: rule, location, message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Rule id, e.g. `"D1"`.
    pub rule: &'static str,
    /// Workspace-relative path with `/` separators.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Human-readable description of the violation.
    pub msg: String,
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "error[{}]: {}\n  --> {}:{}",
            self.rule, self.msg, self.file, self.line
        )
    }
}

/// A parsed, well-formed `lint:allow` annotation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Allow {
    /// Rule name (`hash-order`, `wall-clock`, `addr-cast`, `panic`).
    pub rule: String,
    /// Justification text (non-empty, trimmed).
    pub reason: String,
    /// Line of the comment carrying the annotation.
    pub line: u32,
}

/// Parse every `lint:allow` annotation in `comments`. Malformed ones
/// produce A0 diagnostics instead of an [`Allow`].
pub fn parse_allows(comments: &[Comment], file: &str) -> (Vec<Allow>, Vec<Diagnostic>) {
    let mut allows = Vec::new();
    let mut diags = Vec::new();
    for c in comments {
        // Doc comments (`///` → text starts with `/`, `//!` → `!`) are
        // prose, not annotation carriers — they may *mention* the
        // grammar. A real annotation is a plain comment that starts
        // with `lint:allow`.
        if c.text.starts_with('/') || c.text.starts_with('!') {
            continue;
        }
        let trimmed = c.text.trim_start();
        let Some(rest) = trimmed.strip_prefix("lint:allow") else {
            continue;
        };
        let parsed = (|| {
            let rest = rest.strip_prefix('(')?;
            let close = rest.find(')')?;
            let rule = rest[..close].trim().to_string();
            let after = rest[close + 1..].trim_start();
            let reason = after.strip_prefix(':')?.trim().to_string();
            Some((rule, reason))
        })();
        match parsed {
            Some((rule, reason))
                if !reason.is_empty() && RULES.iter().any(|(_, name, _)| *name == rule) =>
            {
                allows.push(Allow {
                    rule,
                    reason,
                    line: c.line,
                });
            }
            Some((rule, reason)) => {
                let why = if reason.is_empty() {
                    "empty reason".to_string()
                } else {
                    format!("unknown rule `{rule}`")
                };
                diags.push(Diagnostic {
                    rule: "A0",
                    file: file.to_string(),
                    line: c.line,
                    msg: format!("malformed lint:allow annotation ({why})"),
                });
            }
            None => diags.push(Diagnostic {
                rule: "A0",
                file: file.to_string(),
                line: c.line,
                msg: "malformed lint:allow annotation (expected `lint:allow(<rule>): <reason>`)"
                    .to_string(),
            }),
        }
    }
    (allows, diags)
}

/// Is a violation of `rule` on `line` justified by one of `allows`?
/// An annotation covers its own line and the line directly below it.
fn allowed(allows: &[Allow], rule: &str, line: u32) -> bool {
    allows
        .iter()
        .any(|a| a.rule == rule && (a.line == line || a.line + 1 == line))
}

/// Per-file lint context handed to the rules.
pub struct FileCtx<'a> {
    /// Workspace-relative path, `/`-separated.
    pub path: &'a str,
    /// Lexed tokens + comments.
    pub lexed: &'a Lexed,
    /// Test-code token ranges.
    pub tests: TestScopes,
    /// Parsed allow annotations.
    pub allows: Vec<Allow>,
}

impl<'a> FileCtx<'a> {
    /// Build the context (lexes nothing — takes the existing lex).
    pub fn new(path: &'a str, lexed: &'a Lexed) -> (Self, Vec<Diagnostic>) {
        let (allows, diags) = parse_allows(&lexed.comments, path);
        let tests = scan::test_scopes(&lexed.tokens);
        (
            FileCtx {
                path,
                lexed,
                tests,
                allows,
            },
            diags,
        )
    }

    fn toks(&self) -> &[Token] {
        &self.lexed.tokens
    }
}

fn starts_with_any(path: &str, prefixes: &[&str]) -> bool {
    prefixes.iter().any(|p| path.starts_with(p))
}

/// Whether `path` is a bin target (excluded from P1's library scope).
fn is_bin(path: &str) -> bool {
    path.contains("/src/bin/") || path.ends_with("/src/main.rs")
}

/// D1: hash collections in capture-path crates.
pub fn rule_d1(ctx: &FileCtx) -> Vec<Diagnostic> {
    const SCOPE: &[&str] = &[
        "crates/trace/src/",
        "crates/engine/src/",
        "crates/workloads/src/",
        "crates/staged/src/",
    ];
    if !starts_with_any(ctx.path, SCOPE) {
        return Vec::new();
    }
    let mut out = Vec::new();
    for (i, t) in ctx.toks().iter().enumerate() {
        let Tok::Ident(n) = &t.tok else { continue };
        if n != "HashMap" && n != "HashSet" {
            continue;
        }
        if ctx.tests.contains(i) {
            continue;
        }
        if allowed(&ctx.allows, "hash-order", t.line) {
            continue;
        }
        out.push(Diagnostic {
            rule: "D1",
            file: ctx.path.to_string(),
            line: t.line,
            msg: format!(
                "`{n}` in capture-path crate without `lint:allow(hash-order)` justification"
            ),
        });
    }
    out
}

/// D2: wall-clock reads outside the bench layer.
pub fn rule_d2(ctx: &FileCtx) -> Vec<Diagnostic> {
    const EXEMPT: &[&str] = &["crates/bench/"];
    if starts_with_any(ctx.path, EXEMPT) {
        return Vec::new();
    }
    let toks = ctx.toks();
    let mut out = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        let Tok::Ident(n) = &t.tok else { continue };
        if n != "Instant" && n != "SystemTime" {
            continue;
        }
        // Match `Instant::now` / `SystemTime::now` (`::` lexes as two
        // `:` puncts).
        let is_now = matches!(toks.get(i + 1), Some(a) if a.tok == Tok::Punct(':'))
            && matches!(toks.get(i + 2), Some(a) if a.tok == Tok::Punct(':'))
            && matches!(toks.get(i + 3), Some(a) if matches!(&a.tok, Tok::Ident(m) if m == "now"));
        if !is_now {
            continue;
        }
        if allowed(&ctx.allows, "wall-clock", t.line) {
            continue;
        }
        out.push(Diagnostic {
            rule: "D2",
            file: ctx.path.to_string(),
            line: t.line,
            msg: format!("wall-clock read `{n}::now` outside crates/bench without `lint:allow(wall-clock)` justification"),
        });
    }
    out
}

/// D3: raw `as u64`/`as usize` casts on address-typed expressions at the
/// capture boundary. Heuristic, by design: the castee mentions an
/// address — the token before `as` is an identifier containing `addr`,
/// or a `(…)` group containing such an identifier.
pub fn rule_d3(ctx: &FileCtx) -> Vec<Diagnostic> {
    const SCOPE: &[&str] = &[
        "crates/trace/src/",
        "crates/workloads/src/",
        "crates/staged/src/",
    ];
    if !starts_with_any(ctx.path, SCOPE) {
        return Vec::new();
    }
    let toks = ctx.toks();
    let mut out = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if !matches!(&t.tok, Tok::Ident(n) if n == "as") {
            continue;
        }
        let target_ok = matches!(toks.get(i + 1), Some(a) if matches!(&a.tok, Tok::Ident(m) if m == "u64" || m == "usize"));
        if !target_ok || i == 0 {
            continue;
        }
        if !castee_mentions_addr(toks, i - 1) {
            continue;
        }
        if ctx.tests.contains(i) {
            continue;
        }
        if allowed(&ctx.allows, "addr-cast", t.line) {
            continue;
        }
        out.push(Diagnostic {
            rule: "D3",
            file: ctx.path.to_string(),
            line: t.line,
            msg: "raw truncating cast on an address-typed expression at the capture boundary \
                  without `lint:allow(addr-cast)` justification"
                .to_string(),
        });
    }
    out
}

/// Does the expression ending at token `end` (just before `as`) mention
/// an address-named identifier? Direct ident, or backtrack one balanced
/// `(…)` group.
fn castee_mentions_addr(toks: &[Token], end: usize) -> bool {
    let is_addr_ident =
        |t: &Token| matches!(&t.tok, Tok::Ident(n) if n.to_ascii_lowercase().contains("addr"));
    let t = &toks[end];
    if is_addr_ident(t) {
        return true;
    }
    if t.tok != Tok::Punct(')') {
        return false;
    }
    let mut depth = 0i64;
    let mut k = end;
    loop {
        match &toks[k].tok {
            Tok::Punct(')') => depth += 1,
            Tok::Punct('(') => {
                depth -= 1;
                if depth == 0 {
                    return false;
                }
            }
            tok => {
                if let Tok::Ident(n) = tok {
                    if n.to_ascii_lowercase().contains("addr") {
                        return true;
                    }
                }
            }
        }
        if k == 0 {
            return false;
        }
        k -= 1;
    }
}

/// P1: panic-family calls in non-test, non-bin library code.
pub fn rule_p1(ctx: &FileCtx) -> Vec<Diagnostic> {
    const SCOPE: &[&str] = &["crates/trace/src/", "crates/sim/src/", "crates/engine/src/"];
    if !starts_with_any(ctx.path, SCOPE) || is_bin(ctx.path) {
        return Vec::new();
    }
    let toks = ctx.toks();
    let mut out = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        let Tok::Ident(n) = &t.tok else { continue };
        let hit = match n.as_str() {
            // `.unwrap(` / `.expect(` — method position only, so
            // `unwrap_or_default` or a local named `expect` don't match.
            "unwrap" | "expect" => {
                i > 0
                    && toks[i - 1].tok == Tok::Punct('.')
                    && matches!(toks.get(i + 1), Some(a) if a.tok == Tok::Punct('('))
            }
            // `panic!` / `todo!` macro invocations.
            "panic" | "todo" => {
                matches!(toks.get(i + 1), Some(a) if a.tok == Tok::Punct('!'))
            }
            _ => false,
        };
        if !hit || ctx.tests.contains(i) {
            continue;
        }
        if allowed(&ctx.allows, "panic", t.line) {
            continue;
        }
        out.push(Diagnostic {
            rule: "P1",
            file: ctx.path.to_string(),
            line: t.line,
            msg: format!(
                "`{n}` in non-test library code without `lint:allow(panic)` justification"
            ),
        });
    }
    out
}

/// One surface of a cross-file exhaustiveness rule: the identifiers of
/// `files` (restricted to function `func` when given, the whole file
/// otherwise) taken as a *union* — a variant may be handled in any of
/// them.
pub struct XSurface {
    pub files: &'static [&'static str],
    pub func: Option<&'static str>,
    pub label: &'static str,
}

/// One cross-file exhaustiveness rule: every variant of `enum_name`
/// (declared in `enum_file`) must be mentioned on every surface.
pub struct XRule {
    pub id: &'static str,
    pub enum_file: &'static str,
    pub enum_name: &'static str,
    pub surfaces: &'static [XSurface],
}

/// The cross-file exhaustiveness rules. X1 keeps the trace codec, the
/// summary and the simulator consume path in step with `trace::Event`;
/// X2 and X3 keep the capture-side dispatch point and the figure label
/// table in step with an engine enum. The arm-removal acceptance tests
/// are driven by this same table.
pub const X_RULES: &[XRule] = &[
    XRule {
        id: "X1",
        enum_file: "crates/trace/src/event.rs",
        enum_name: "Event",
        surfaces: &[
            XSurface {
                files: &["crates/trace/src/segment.rs"],
                func: Some("push"),
                label: "segment codec encode (SegmentEncoder::push)",
            },
            XSurface {
                files: &["crates/trace/src/segment.rs"],
                func: Some("decode_into"),
                label: "segment codec decode (Segment::decode_into)",
            },
            XSurface {
                files: &["crates/trace/src/summary.rs"],
                func: None,
                label: "trace summary (summary.rs)",
            },
            XSurface {
                files: &["crates/sim/src/ctx.rs", "crates/sim/src/cursor.rs"],
                func: None,
                label: "sim consume path (ctx.rs/cursor.rs)",
            },
        ],
    },
    XRule {
        id: "X2",
        enum_file: "crates/engine/src/cc/mod.rs",
        enum_name: "CcBackend",
        surfaces: &[
            XSurface {
                files: &["crates/workloads/src/interleave.rs"],
                func: Some("count_block"),
                label: "scheduler park/wake accounting (count_block)",
            },
            XSurface {
                files: &["crates/core/src/figures.rs"],
                func: Some("cc_backend_label"),
                label: "figure label table (cc_backend_label)",
            },
        ],
    },
    XRule {
        id: "X3",
        enum_file: "crates/engine/src/exec/shuffle_join.rs",
        enum_name: "ExchangeStrategy",
        surfaces: &[
            XSurface {
                files: &["crates/workloads/src/exchange.rs"],
                func: Some("exchange_rows"),
                label: "exchange router (exchange_rows)",
            },
            XSurface {
                files: &["crates/core/src/figures.rs"],
                func: Some("exchange_label"),
                label: "figure label table (exchange_label)",
            },
        ],
    },
];

/// X1/X2/X3: cross-file enum-variant exhaustiveness over [`X_RULES`].
/// `files` maps a workspace-relative path to its lexed tokens. A rule
/// whose enum file is absent has nothing to check (partial fixture
/// trees); an absent surface file or function is itself a violation.
/// There is no allow annotation for these rules — handle the variant.
pub fn rule_x(files: &[(String, Lexed)]) -> Vec<Diagnostic> {
    let lookup = |p: &str| files.iter().find(|(f, _)| f == p).map(|(_, l)| l);
    let mut out = Vec::new();
    for rule in X_RULES {
        let mut diag = |file: &str, msg: String| {
            out.push(Diagnostic {
                rule: rule.id,
                file: file.to_string(),
                line: 1,
                msg,
            })
        };
        let Some(enum_lex) = lookup(rule.enum_file) else {
            continue;
        };
        let name = rule.enum_name;
        let variants = scan::enum_variants(&enum_lex.tokens, name);
        if variants.is_empty() {
            diag(
                rule.enum_file,
                format!("could not find `enum {name}` variants"),
            );
            continue;
        }
        'surface: for s in rule.surfaces {
            let label = s.label;
            // The identifier set visible on this surface.
            let mut seen: Vec<&str> = Vec::new();
            let mut any_file = false;
            for f in s.files {
                let Some(lex) = lookup(f) else { continue };
                any_file = true;
                let toks = &lex.tokens;
                let (lo, hi) = match s.func {
                    Some(func) => match scan::fn_span(toks, func) {
                        Some(span) => span,
                        None => {
                            diag(
                                f,
                                format!("surface function `{func}` not found for {label}"),
                            );
                            continue 'surface;
                        }
                    },
                    None => (0, toks.len()),
                };
                seen.extend(toks[lo..hi].iter().filter_map(|t| match &t.tok {
                    Tok::Ident(n) => Some(n.as_str()),
                    _ => None,
                }));
            }
            if !any_file {
                diag(s.files[0], format!("surface file missing for {label}"));
                continue;
            }
            for v in &variants {
                if !seen.iter().any(|n| n == v) {
                    diag(
                        s.files[0],
                        format!("{name} variant `{v}` is not handled in the {label}"),
                    );
                }
            }
        }
    }
    out
}

/// Run all per-file rules over one file.
pub fn lint_file(rel: &str, lexed: &Lexed) -> Vec<Diagnostic> {
    let (ctx, mut diags) = FileCtx::new(rel, lexed);
    diags.extend(rule_d1(&ctx));
    diags.extend(rule_d2(&ctx));
    diags.extend(rule_d3(&ctx));
    diags.extend(rule_p1(&ctx));
    diags
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn run_one(path: &str, src: &str) -> Vec<Diagnostic> {
        let l = lex(src);
        lint_file(path, &l)
    }

    #[test]
    fn d1_fires_and_allow_suppresses() {
        let hot = "use std::collections::HashMap;";
        assert_eq!(run_one("crates/trace/src/x.rs", hot).len(), 1);
        assert_eq!(run_one("crates/cacti/src/x.rs", hot).len(), 0);
        let ok = "// lint:allow(hash-order): lookup-only\nuse std::collections::HashMap;";
        assert!(run_one("crates/trace/src/x.rs", ok).is_empty());
        let trailing = "use std::collections::HashMap; // lint:allow(hash-order): lookup-only";
        assert!(run_one("crates/trace/src/x.rs", trailing).is_empty());
    }

    #[test]
    fn d2_fires_everywhere_but_bench() {
        let src = "fn f() { let t = std::time::Instant::now(); }";
        assert_eq!(run_one("crates/core/src/x.rs", src).len(), 1);
        assert_eq!(run_one("src/lib.rs", src).len(), 1);
        assert!(run_one("crates/bench/src/x.rs", src).is_empty());
        // `Instant` without `::now` (e.g. a type mention) is fine.
        assert!(run_one("src/lib.rs", "fn g(t: Instant) {}").is_empty());
    }

    #[test]
    fn d3_needs_addr_in_castee() {
        let bad = "fn f(addr: u64) -> u64 { addr as usize as u64 }";
        // `addr as usize` fires; the second cast's castee is `usize`.
        assert_eq!(run_one("crates/trace/src/x.rs", bad).len(), 1);
        let paren = "fn f(prev_addr: i64, d: i64) -> u64 { (prev_addr + d) as u64 }";
        assert_eq!(run_one("crates/trace/src/x.rs", paren).len(), 1);
        let fine = "fn f(size: u32) -> u64 { size as u64 }";
        assert!(run_one("crates/trace/src/x.rs", fine).is_empty());
        let outside = "fn f(addr: u32) -> u64 { addr as u64 }";
        assert!(run_one("crates/sim/src/x.rs", outside).is_empty());
    }

    #[test]
    fn p1_method_position_only() {
        assert_eq!(
            run_one("crates/sim/src/x.rs", "fn f(x: Option<u8>) { x.unwrap(); }").len(),
            1
        );
        assert!(run_one("crates/sim/src/x.rs", "fn f(x: u8) { x.unwrap_or(0); }").is_empty());
        assert!(run_one("crates/sim/src/x.rs", "fn f() { debug_assert!(true); }").is_empty());
        assert_eq!(
            run_one("crates/sim/src/x.rs", "fn f() { panic!(\"boom\"); }").len(),
            1
        );
        // bins and tests are out of scope
        assert!(run_one(
            "crates/sim/src/bin/tool.rs",
            "fn f(x: Option<u8>) { x.unwrap(); }"
        )
        .is_empty());
        assert!(run_one(
            "crates/sim/src/x.rs",
            "#[cfg(test)]\nmod tests { fn f(x: Option<u8>) { x.unwrap(); } }"
        )
        .is_empty());
    }

    #[test]
    fn a0_on_malformed_allows() {
        let empty = "// lint:allow(panic):\nfn f() {}";
        let d = run_one("crates/sim/src/x.rs", empty);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, "A0");
        let unknown = "// lint:allow(made-up): because\nfn f() {}";
        let d = run_one("crates/sim/src/x.rs", unknown);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, "A0");
        // A malformed allow does NOT suppress the violation it sits on.
        let both = "fn f(x: Option<u8>) { x.unwrap(); // lint:allow(panic):\n }";
        let d = run_one("crates/sim/src/x.rs", both);
        assert_eq!(d.len(), 2, "{d:?}");
    }

    #[test]
    fn string_contents_never_fire() {
        let src = r#"fn f() { let s = "HashMap Instant::now() .unwrap() panic!"; }"#;
        assert!(run_one("crates/trace/src/x.rs", src).is_empty());
    }

    #[test]
    fn x1_detects_missing_variant() {
        let event = "pub enum Event { Alpha, Beta }";
        let seg = "impl Segment { pub fn push() { Event::Alpha; Event::Beta; } \
                    pub fn decode_into() { Event::Alpha; } }";
        let sum = "fn s() { Event::Alpha; Event::Beta; }";
        let ctx = "fn c() { Event::Alpha; }";
        let cur = "fn k() { Event::Beta; }";
        let files = vec![
            ("crates/trace/src/event.rs".to_string(), lex(event)),
            ("crates/trace/src/segment.rs".to_string(), lex(seg)),
            ("crates/trace/src/summary.rs".to_string(), lex(sum)),
            ("crates/sim/src/ctx.rs".to_string(), lex(ctx)),
            ("crates/sim/src/cursor.rs".to_string(), lex(cur)),
        ];
        let d = rule_x(&files);
        // decode_into is missing Beta; everything else is covered (the
        // sim consume path is the union of ctx+cursor).
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, "X1");
        assert!(d[0].msg.contains("Beta") && d[0].msg.contains("decode"));
    }

    #[test]
    fn x2_detects_missing_backend_variant() {
        let en = "pub enum CcBackend { Centralized2PL, PartitionedPerCore }";
        let sched = "fn count_block(b: CcBackend) { match b { \
                     CcBackend::Centralized2PL => {} CcBackend::PartitionedPerCore => {} } }";
        let figs = "pub fn cc_backend_label(b: CcBackend) -> &'static str { \
                    match b { CcBackend::Centralized2PL => \"2PL\" } }";
        let files = vec![
            ("crates/engine/src/cc/mod.rs".to_string(), lex(en)),
            ("crates/workloads/src/interleave.rs".to_string(), lex(sched)),
            ("crates/core/src/figures.rs".to_string(), lex(figs)),
        ];
        let d = rule_x(&files);
        // The label table is missing PartitionedPerCore; the scheduler
        // covers both.
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, "X2");
        assert!(d[0].msg.contains("PartitionedPerCore") && d[0].msg.contains("label"));
        // A missing surface function is itself a violation.
        let files = vec![
            ("crates/engine/src/cc/mod.rs".to_string(), lex(en)),
            ("crates/workloads/src/interleave.rs".to_string(), lex(sched)),
            (
                "crates/core/src/figures.rs".to_string(),
                lex("fn other() {}"),
            ),
        ];
        let d = rule_x(&files);
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].msg.contains("cc_backend_label"));
    }

    #[test]
    fn x3_detects_missing_strategy_variant() {
        let en = "pub enum ExchangeStrategy { Local, Broadcast, Shuffle }";
        let router = "pub fn exchange_rows(s: ExchangeStrategy) { match s { \
                      ExchangeStrategy::Local => {} ExchangeStrategy::Broadcast => {} \
                      ExchangeStrategy::Shuffle => {} } }";
        let figs = "pub fn exchange_label(s: ExchangeStrategy) -> &'static str { \
                    match s { ExchangeStrategy::Local => \"LOCAL\", \
                    ExchangeStrategy::Broadcast => \"BCAST\" } }";
        let files = vec![
            (
                "crates/engine/src/exec/shuffle_join.rs".to_string(),
                lex(en),
            ),
            ("crates/workloads/src/exchange.rs".to_string(), lex(router)),
            ("crates/core/src/figures.rs".to_string(), lex(figs)),
        ];
        let d = rule_x(&files);
        // The label table is missing Shuffle; the router covers all three.
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, "X3");
        assert!(d[0].msg.contains("Shuffle") && d[0].msg.contains("label"));
        // A missing surface function is itself a violation.
        let files = vec![
            (
                "crates/engine/src/exec/shuffle_join.rs".to_string(),
                lex(en),
            ),
            ("crates/workloads/src/exchange.rs".to_string(), lex(router)),
            (
                "crates/core/src/figures.rs".to_string(),
                lex("fn other() {}"),
            ),
        ];
        let d = rule_x(&files);
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].msg.contains("exchange_label"));
    }
}
