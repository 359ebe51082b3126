//! # cilkm-runtime — a Cilk-style work-stealing runtime with hyperobject hooks
//!
//! This crate is the scheduler substrate of the SPAA 2012 reproduction: a
//! fork-join work-stealing runtime in the spirit of Cilk-M / Cilk Plus,
//! with the extension points ("hyperobject hooks") that the reducer layer
//! in `cilkm-core` plugs both of its backends into.
//!
//! ## Continuation stealing → child stealing
//!
//! Cilk runtimes steal *continuations*: a `cilk_spawn`ed child runs
//! immediately and the suspended parent frame is what thieves take. Rust
//! cannot package a stack continuation as a first-class job, so — like
//! Rayon — this runtime steals *children*, exposing the equivalence
//!
//! ```text
//! cilk_spawn f(); rest; cilk_sync;   ≡   join(|| f(), || rest)
//! ```
//!
//! [`join`] runs its left closure inline (the serially-earlier work) and
//! publishes the right closure for thieves (the serially-later work).
//! Everything the paper's reducer protocol needs survives the translation:
//!
//! * a worker that never suffers a steal mimics serial execution exactly
//!   (pushes and pops from the bottom of its own deque, §3 of the paper);
//! * when the right branch is stolen, the thief begins a new *execution
//!   context* with an **empty view set** ([`HyperHooks`] is informed);
//! * when a stolen branch finishes, its views are **deposited** into the
//!   join frame's right placeholder (the analogue of the right-sibling
//!   hypermap) via [`HyperHooks::detach`] — this is *view transferal*;
//! * the owner waiting at the join performs the **hypermerge**
//!   ([`HyperHooks::merge_right`]) in serial order: left views ⊗ right
//!   views;
//! * while waiting, the owner *leapfrogs* (executes other stolen jobs),
//!   setting its own context aside before each ([`HyperHooks::detach`])
//!   and installing it again after ([`HyperHooks::attach`]) — views
//!   belong to execution contexts, not to workers, exactly as §3
//!   stresses, and view transferal is the one way they move.
//!
//! ## What lives here
//!
//! * [`deque`] — a from-scratch Chase–Lev work-stealing deque;
//! * completion latches, type-erased jobs, the worker [`registry`] and
//!   idle/sleep logic;
//! * [`join`] and [`parallel_for`] / [`parallel_for_each`];
//! * [`HyperHooks`] — the reducer extension interface;
//! * [`sync::SpinLock`] — the locking comparator of the paper's Figure 1;
//! * [`PoolStats`] — steal and job counters the evaluation reads.

#![deny(missing_docs)]

pub mod deque;
pub mod hooks;
pub mod registry;
pub mod sync;

// The workspace's one model/sanitizer-switchable facade (DESIGN.md §10).
use cilkm_obs::msync;

mod job;
mod join;
mod latch;
mod parallel_for;
pub(crate) mod sanhooks;
pub(crate) mod sleep;

#[cfg(all(test, feature = "model"))]
mod model_tests;

pub use hooks::{DetachedViews, HyperHooks, NoopHooks};
pub use join::join;
pub use parallel_for::{parallel_for, parallel_for_each};
pub use registry::{current_worker_index, Pool, PoolBuilder, PoolStats};
