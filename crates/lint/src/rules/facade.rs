//! Rule `raw-sync` — facade integrity.
//!
//! The model checker (DESIGN.md §10) can only verify synchronization it
//! can see, and it sees exactly what flows through the `msync` facade
//! (`cilkm_obs::msync`, which the runtime and the reducer core re-export
//! as `crate::msync`).
//! A `std::sync::atomic` or `std::sync::Mutex` reached directly is
//! invisible to every model test, silently un-checking the protocol it
//! participates in. This rule makes that bypass a CI failure.
//!
//! Outside `msync.rs` files, `crates/checker` and `crates/san` (which
//! *implement* the facade's model and sanitizer faces), and
//! `crates/shims` (stand-ins for external crates, outside every
//! protocol), direct use of the following is an error:
//!
//! * `std::sync::atomic` (any path into it),
//! * `std::sync::{Mutex, Condvar, RwLock, Barrier}` and their guards,
//! * `parking_lot` (anything; the workspace no longer has it, and it
//!   must come back through the facade if it ever does),
//! * `std::thread::park` / `park_timeout` (parking is part of the
//!   sleeper protocol; spawn/yield are fine).
//!
//! Integration tests (`tests/` directories) and `examples/` are exempt:
//! they exercise the *public* API from outside the workspace's crates,
//! where the doc-hidden facade is not part of the API — exactly like the
//! external programs the examples stand in for. Unit tests inside
//! `src/` are **not** exempt; they can and should use the facade.

use crate::lexer::TokenKind;
use crate::report::{Report, Rule};
use crate::rules::{matching_close, seq_matches, FileContext};

/// `std::sync::` members that must come from a facade instead.
const BANNED_SYNC: &[&str] = &[
    "atomic",
    "Mutex",
    "MutexGuard",
    "Condvar",
    "RwLock",
    "RwLockReadGuard",
    "RwLockWriteGuard",
    "Barrier",
];

/// True when the facade rule does not apply to this file at all.
pub fn exempt(path: &str) -> bool {
    let is_in = |dir: &str| path.starts_with(dir) || path.contains(&format!("/{dir}"));
    path.ends_with("msync.rs")
        || path.starts_with("crates/checker/")
        || path.starts_with("crates/san/")
        || path.starts_with("crates/shims/")
        || is_in("tests/")
        || is_in("examples/")
}

/// Scans one file.
pub fn check(ctx: &FileContext<'_>, report: &mut Report) {
    if exempt(ctx.path) {
        return;
    }
    let toks = &ctx.lexed.tokens;

    // Does this file `use std::thread;` as a module (making a later bare
    // `thread::park` resolve to std)? `use std::thread::...` item
    // imports are caught positionally instead.
    let uses_std_thread_module = (0..toks.len()).any(|i| {
        seq_matches(toks, i, &["use", "std", "::", "thread"])
            && toks
                .get(i + 4)
                .is_some_and(|t| t.text == ";" || t.text == "as")
    });

    let mut i = 0;
    while i < toks.len() {
        let t = &toks[i];
        if t.kind == TokenKind::Ident {
            match t.text.as_str() {
                "parking_lot" => {
                    ctx.emit(
                        report,
                        Rule::RawSync,
                        t.line,
                        "direct use of `parking_lot` outside the msync facade; import the \
                         lock types through `cilkm_obs::msync` so they stay model-checkable"
                            .to_string(),
                    );
                }
                "std" if seq_matches(toks, i, &["std", "::", "sync", "::"]) => {
                    // Path form: std::sync::X or group: std::sync::{..}.
                    if let Some(next) = toks.get(i + 4) {
                        if next.text == "{" {
                            if let Some(close) = matching_close(toks, i + 4) {
                                for t in &toks[i + 5..close] {
                                    if t.kind == TokenKind::Ident
                                        && BANNED_SYNC.contains(&t.text.as_str())
                                    {
                                        ctx.emit(
                                            report,
                                            Rule::RawSync,
                                            t.line,
                                            format!(
                                                "raw `std::sync::{}` outside the msync facade; \
                                                 route it through `cilkm_obs::msync`",
                                                t.text
                                            ),
                                        );
                                    }
                                }
                                i = close;
                            }
                        } else if next.kind == TokenKind::Ident
                            && BANNED_SYNC.contains(&next.text.as_str())
                        {
                            ctx.emit(
                                report,
                                Rule::RawSync,
                                next.line,
                                format!(
                                    "raw `std::sync::{}` outside the msync facade; \
                                     route it through `cilkm_obs::msync`",
                                    next.text
                                ),
                            );
                            // Skip the rest of this path so
                            // `std::sync::atomic::Ordering` reports once.
                            i += 4;
                        }
                    }
                }
                "std" if seq_matches(toks, i, &["std", "::", "thread", "::"]) => {
                    if let Some(next) = toks.get(i + 4) {
                        if next.text == "park" || next.text == "park_timeout" {
                            ctx.emit(
                                report,
                                Rule::RawSync,
                                next.line,
                                format!(
                                    "raw `std::thread::{}` outside the msync facade; worker \
                                     parking is part of the modeled sleeper protocol",
                                    next.text
                                ),
                            );
                        }
                    }
                }
                "thread"
                    if uses_std_thread_module
                        && (seq_matches(toks, i, &["thread", "::", "park"])
                            || seq_matches(toks, i, &["thread", "::", "park_timeout"]))
                        // Not itself part of a longer `std::thread` path
                        // (already reported above).
                        && !(i >= 2 && toks[i - 1].text == "::" && toks[i - 2].text == "std") =>
                {
                    ctx.emit(
                        report,
                        Rule::RawSync,
                        t.line,
                        format!(
                            "`thread::{}` resolves to `std::thread` here; worker parking \
                             must go through the msync facade",
                            toks[i + 2].text
                        ),
                    );
                }
                _ => {}
            }
        }
        i += 1;
    }
}
