//! # cilkm-core — reducer hyperobjects, two ways
//!
//! This crate implements the subject of *Memory-Mapping Support for
//! Reducer Hyperobjects* (Lee, Shafi, Leiserson — SPAA 2012): the reducer
//! linguistic mechanism of Cilk++/Cilk Plus, with **both** runtime
//! strategies the paper compares, running over the same scheduler
//! (`cilkm-runtime`):
//!
//! * [`Backend::Hypermap`] — the Cilk Plus baseline (§3): each execution
//!   context owns a hash table mapping reducers to local views; every
//!   access is a hash lookup; view transferal switches map pointers;
//!   hypermerge walks one table probing the other.
//! * [`Backend::Mmap`] — the paper's contribution (§4–§7): each worker
//!   owns a fixed `mmap` reservation standing in for its TLMM region,
//!   holding *private SPA maps* of (view, monoid) pointer pairs; a
//!   reducer holds its byte offset in every worker's reservation, so a
//!   lookup hit is two loads and a branch, the paper's shape (DESIGN.md
//!   §9.1 lists it); view transferal copies the pointer pairs into one
//!   flat list (the copying strategy of §7),
//!   zeroing the private maps; hypermerge sweeps the right side's list
//!   into the left side's private maps.
//!
//! ## Reducer semantics
//!
//! A reducer is defined by an algebraic monoid `(T, ⊗, e)` — the
//! [`Monoid`] trait. Parallel branches see coordinated local views, and
//! as long as `⊗` is associative the final value equals the serial
//! execution's, regardless of scheduling. The [`library`] module provides
//! the standard monoids the paper's benchmarks use (addition, min, max,
//! logical and/or, list and string append) plus a holder.
//!
//! ## Quick start
//!
//! ```
//! use cilkm_core::{Backend, ReducerPool, library::SumMonoid, Reducer};
//! use cilkm_runtime::parallel_for;
//!
//! let pool = ReducerPool::new(4, Backend::Mmap);
//! let sum = Reducer::new(&pool, SumMonoid::<u64>::new(), 0);
//! pool.run(|| {
//!     parallel_for(0..1000, 16, &|r| {
//!         for i in r {
//!             sum.update(|v| *v += i as u64);
//!         }
//!     });
//! });
//! assert_eq!(sum.get_cloned(), 499_500);
//! ```

#![deny(missing_docs)]

pub mod hypermap;
pub mod instrument;
pub mod library;
pub mod mmap;
pub mod monoid;
pub mod reducer;

mod cells;
mod domain;

// The workspace's one model/sanitizer-switchable facade (DESIGN.md §10).
use cilkm_obs::msync;

#[cfg(all(test, feature = "model"))]
mod model_tests;

pub use domain::{Backend, DomainInner, ReducerPool};
pub use instrument::{InstrumentSnapshot, ReduceBreakdown};
pub use monoid::Monoid;
pub use reducer::Reducer;
