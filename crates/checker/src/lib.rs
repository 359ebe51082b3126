//! cilkm-checker: an in-tree, loom-style deterministic concurrency
//! model checker for the cilkm runtime.
//!
//! The build environment vendors no external crates, so this crate
//! plays the role loom plays for rayon/crossbeam: it provides drop-in
//! `sync::atomic::*`, [`sync::Mutex`], and
//! [`thread`] facades that the runtime crates adopt behind their
//! `model` cargo feature, plus the [`model`] entry point that runs a
//! closure under every (bounded) thread interleaving.
//!
//! # What the checker explores
//!
//! - **Schedules.** Threads are real OS threads, but exactly one runs
//!   at a time; before every visible operation the scheduler may hand
//!   the baton to another runnable thread. The default enumerator walks
//!   the decision tree depth-first with a CHESS-style preemption bound
//!   ([`Config::preemptions`]) and yield-exclusion for spin loops; the
//!   [`Engine::Dpor`] engine prunes schedules that only reorder
//!   independent operations.
//! - **Weak memory.** Stores are kept per-location with vector-clock
//!   metadata; a load *chooses* among the stores it may legally observe,
//!   so a `Relaxed` load really can return a stale value in some
//!   schedule. Acquire/release/SeqCst edges and fences constrain the
//!   choice exactly as the C11 model (release sequences and SC fences
//!   are approximated conservatively).
//! - **Races.** Plain-memory accesses reported via [`trace`] or
//!   [`cell::TraceCell`] feed a happens-before race detector; a
//!   conflicting concurrent pair fails the run with both thread names.
//! - **Deadlocks.** `park_timeout`/`wait_for` never time out under the
//!   model, so a lost wakeup — the PR 1 sleeper bug — surfaces as a
//!   deterministic "deadlock" report rather than a silent stall.
//!
//! # Example
//!
//! ```
//! use cilkm_checker::{model, sync::atomic::{AtomicBool, AtomicUsize, Ordering}};
//! use std::sync::Arc;
//!
//! model(|| {
//!     let flag = Arc::new(AtomicBool::new(false));
//!     let data = Arc::new(AtomicUsize::new(0));
//!     let (f2, d2) = (flag.clone(), data.clone());
//!     let t = cilkm_checker::thread::spawn(move || {
//!         d2.store(42, Ordering::Relaxed);
//!         f2.store(true, Ordering::Release);
//!     });
//!     if flag.load(Ordering::Acquire) {
//!         // Acquire saw the Release store, so the data store is visible.
//!         assert_eq!(data.load(Ordering::Relaxed), 42);
//!     }
//!     t.join().unwrap();
//! });
//! ```

#![deny(missing_docs)]
#![expect(
    clippy::disallowed_types,
    clippy::disallowed_methods,
    reason = "the checker implements the facade's model face, so it schedules real threads with std's own primitives"
)]

mod dpor;
mod exec;

pub mod cell;
pub mod stats;
pub mod sync;
pub mod thread;
pub mod trace;

pub use exec::{
    in_model, model, model_with, try_model, try_model_with, Config, Engine, ModelError, Report,
};
