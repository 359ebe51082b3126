//! Sanitizer hook points for the scheduler's fork/join structure.
//!
//! The dynamic sanitizer's SP (series-parallel) determinacy detector
//! needs to know which strand every instruction belongs to. The
//! scheduler tells it here: `join` forks offset-span labels at each
//! spawn point, jobs carry their label in the job header, and executors
//! install it around the user closure (DESIGN.md §17).
//!
//! With `sanitize` off (or under `model`, whose synthetic schedules
//! must not pollute real-run shadow state) every function here is an
//! inlined no-op, so the hot scheduling paths stay emit-free — the
//! same discipline as `obs::trace::emit`.

#[cfg(all(feature = "sanitize", not(feature = "model")))]
pub(crate) use cilkm_san::{sp_current, sp_enter, sp_exit, sp_fork, sp_join, sp_region_enter};

#[cfg(all(feature = "sanitize", not(feature = "model")))]
pub(crate) fn flush_report() {
    cilkm_san::flush_report();
}

#[cfg(not(all(feature = "sanitize", not(feature = "model"))))]
mod noop {
    /// The calling strand's SP label (always 0 when hooks are off).
    #[inline(always)]
    pub(crate) fn sp_current() -> u64 {
        0
    }

    /// Forks a frame label into (continuation, child); no-op.
    #[inline(always)]
    pub(crate) fn sp_fork(frame: u64) -> (u64, u64) {
        let _ = frame;
        (0, 0)
    }

    /// Installs a strand label, returning the previous one; no-op.
    #[inline(always)]
    pub(crate) fn sp_enter(label: u64) -> u64 {
        let _ = label;
        0
    }

    /// Restores a label saved by `sp_enter`; no-op.
    #[inline(always)]
    pub(crate) fn sp_exit(prev: u64) {
        let _ = prev;
    }

    /// Advances past a sync point on `frame`; no-op.
    #[inline(always)]
    pub(crate) fn sp_join(frame: u64) {
        let _ = frame;
    }

    /// Starts a region-root strand, returning the previous label; no-op.
    #[inline(always)]
    pub(crate) fn sp_region_enter() -> u64 {
        0
    }

    /// Writes the sanitizer report if `CILKM_SAN_REPORT` is set; no-op.
    #[inline(always)]
    pub(crate) fn flush_report() {}
}

#[cfg(not(all(feature = "sanitize", not(feature = "model"))))]
pub(crate) use noop::*;
