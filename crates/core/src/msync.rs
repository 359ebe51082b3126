//! Model- and sanitizer-switchable synchronization facade for the
//! reducer core — the same pattern as `cilkm-runtime/src/msync.rs` and
//! `cilkm-obs/src/msync.rs` (see DESIGN.md §10, and §12 for the lint
//! that enforces it).
//!
//! The core's synchronization surface is the atomics behind the slot
//! registry's per-slot cells and slot free-list. Importing them through
//! this module keeps them zero-cost aliases of `std::sync::atomic` in
//! normal builds while letting `--features model` swap in
//! `cilkm_checker`'s recorded versions and `--features sanitize` swap in
//! `cilkm_san`'s instrumented versions (real primitives + the dynamic
//! race detectors of DESIGN.md §17; `model` wins when both features are
//! on).

#[cfg(feature = "model")]
pub(crate) use cilkm_checker::sync::atomic;
#[cfg(all(not(feature = "model"), feature = "sanitize"))]
pub(crate) use cilkm_san::sync::atomic;
#[cfg(not(any(feature = "model", feature = "sanitize")))]
pub(crate) use std::sync::atomic;
