//! Rule `san-hook-coverage` — sanitizer-hook completeness.
//!
//! The dynamic sanitizer (`crates/san`, DESIGN.md §17) only sees what
//! the `msync` facade routes through it, exactly as the model checker
//! only sees what flows through `cilkm_checker`. A facade op added
//! without its `cfg(feature = "sanitize")` branch is invisible to the
//! race, determinacy, and lock-order detectors — silently, because the
//! plain and model builds still compile and pass. This rule closes that
//! gap: in every `msync.rs` file of a crate that declares the
//! `sanitize` feature, each function item must mention the sanitizer
//! somewhere in its attributes or body — an ident `cilkm_san` (a direct
//! hook call or an instrumented re-export) or a `cfg` literal
//! containing `sanitize` (the three-way branch shape the facade uses).
//!
//! Ops with genuinely nothing to trace (e.g. a pure CPU relax hint)
//! carry a waiver:
//!
//! ```text
//! // lint: allow(san-hook-coverage, pure CPU relax hint; no memory effect to trace)
//! ```
//!
//! `use` re-exports are not checked per item — a missing instrumented
//! re-export shows up as a missing-type compile error under
//! `--features sanitize`, which CI builds; it is the *silent* fn-shaped
//! bypass this rule exists for.

use crate::lexer::{Token, TokenKind};
use crate::manifest::Crate;
use crate::report::{Report, Rule};
use crate::rules::{matching_close, FileContext};

/// True when the rule applies to this file at all: an `msync.rs` facade
/// in a crate whose manifest declares the `sanitize` feature.
/// `crates/san` (the implementation) and `crates/checker` / the shims
/// (which declare `sanitize` only as a pass-through marker) are exempt.
fn applies(path: &str, krate: &Crate) -> bool {
    path.ends_with("msync.rs")
        && krate.features.iter().any(|f| f == "sanitize")
        && !path.starts_with("crates/san/")
        && !path.starts_with("crates/checker/")
        && !path.starts_with("crates/shims/")
}

/// Scans one file: every `fn` item must reference the sanitizer in its
/// attribute prelude or body.
pub fn check(ctx: &FileContext<'_>, krate: &Crate, report: &mut Report) {
    if !applies(ctx.path, krate) {
        return;
    }
    let toks = &ctx.lexed.tokens;
    let mut i = 0;
    while i < toks.len() {
        if toks[i].kind == TokenKind::Ident && toks[i].text == "fn" {
            let start = item_start(toks, i);
            let end = item_end(toks, i);
            let name = toks.get(i + 1).map(|t| t.text.clone()).unwrap_or_default();
            if !mentions_sanitizer(&toks[start..=end]) {
                ctx.emit(
                    report,
                    Rule::SanHook,
                    toks[start].line,
                    format!(
                        "facade op `{name}` never invokes its sanitizer hook; add a \
                         `cfg(feature = \"sanitize\")` branch calling into `cilkm_san` \
                         (or waive with a reason if there is nothing to trace)"
                    ),
                );
            }
            i = end;
        }
        i += 1;
    }
}

/// True when the item's token slice shows a sanitizer connection: a
/// direct `cilkm_san` path, a bare `sanitize` ident, or a string
/// literal containing `sanitize` (the `cfg(feature = "sanitize")`
/// gate literal).
fn mentions_sanitizer(item: &[Token]) -> bool {
    item.iter().any(|t| match t.kind {
        TokenKind::Ident => t.text == "cilkm_san" || t.text == "sanitize",
        TokenKind::Literal => t.text.contains("sanitize"),
        _ => false,
    })
}

/// First token of the fn item whose `fn` keyword is at `fn_idx`:
/// walks back over qualifiers (`pub(crate)`, `const`, `unsafe`,
/// `async`, `extern`) and any contiguous `#[...]` attribute groups, so
/// a `#[cfg(...)]` gate above the fn counts as part of it.
fn item_start(toks: &[Token], fn_idx: usize) -> usize {
    let mut i = fn_idx;
    loop {
        if i == 0 {
            return 0;
        }
        let prev = &toks[i - 1];
        match prev.text.as_str() {
            "pub" | "const" | "unsafe" | "async" | "extern" => i -= 1,
            // `pub(crate)` / `pub(super)` visibility group.
            ")" if i >= 4 && toks[i - 4].text == "pub" && toks[i - 3].text == "(" => i -= 4,
            "]" => {
                // Attribute group: find its `[`, require a leading `#`.
                let mut depth = 0usize;
                let mut k = i - 1;
                let open = loop {
                    match toks[k].text.as_str() {
                        "]" => depth += 1,
                        "[" => {
                            depth -= 1;
                            if depth == 0 {
                                break Some(k);
                            }
                        }
                        _ => {}
                    }
                    if k == 0 {
                        break None;
                    }
                    k -= 1;
                };
                match open {
                    Some(open) if open > 0 && toks[open - 1].text == "#" => i = open - 1,
                    _ => return i,
                }
            }
            _ => return i,
        }
    }
}

/// Last token of the fn item: the close brace of its body, or the `;`
/// of a bodyless declaration.
fn item_end(toks: &[Token], fn_idx: usize) -> usize {
    let mut depth = 0i32;
    for (k, t) in toks.iter().enumerate().skip(fn_idx) {
        match t.text.as_str() {
            "(" | "[" => depth += 1,
            ")" | "]" => depth -= 1,
            ";" if depth == 0 => return k,
            "{" if depth == 0 => return matching_close(toks, k).unwrap_or(toks.len() - 1),
            _ => {}
        }
    }
    toks.len() - 1
}
