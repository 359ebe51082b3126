//! cilkm-san: an in-tree dynamic sanitizer for **real executions** of
//! the memory-mapped reducer runtime.
//!
//! The model checker (`cilkm-checker`) proves small bounded scenarios
//! exhaustively; this crate watches the actual runtime at full scale —
//! stress tests, examples, benches — through the same `msync` facade
//! seam. Two detectors share one per-thread vector-clock substrate
//! (DESIGN.md §17):
//!
//! 1. **FastTrack happens-before races** — epoch-optimized read/write
//!    shadow state per traced location; atomics, locks, park/unpark and
//!    thread fork/join build the happens-before relation.
//! 2. **SP determinacy races** — offset-span labels threaded through
//!    the runtime's spawn/sync sites flag shared plain accesses between
//!    logically-parallel strands that are not mediated by a reducer
//!    view (the paper's correctness contract).
//!
//! A third cheap detector rides along: lock-acquisition-order
//! inversion (potential AB/BA deadlock) on the facade mutexes.
//!
//! The crate has zero dependencies and is always fully functional; the
//! `sanitize` feature gate lives at the hook call sites in the
//! instrumented crates, so with the feature off every hook compiles to
//! nothing and hot paths stay emit-free. Findings are deduplicated and
//! serialized as deterministic stable-sorted JSON ([`report`]); the
//! `cilkm-san` bin summarizes a report file for CI.

#![expect(
    clippy::disallowed_types,
    clippy::disallowed_methods,
    reason = "the sanitizer implements the facade's sanitize face on std's own primitives"
)]

pub mod report;
mod state;
pub mod sync;
pub mod thread;

pub use state::{
    finding_count, flush_report, plain_read, plain_write, report_json, shadow_read, shadow_write,
    snapshot, sp_current, sp_enter, sp_exit, sp_fork, sp_join, sp_region_enter, sp_set,
    write_report,
};
