//! # cilkm-obs — runtime observability for the cilkm workspace
//!
//! The paper's evaluation (§8, Figures 1 and 8) rests on *decomposing*
//! reduce overhead — view creation, view insertion, view transferal,
//! hypermerge — and on where that overhead lands: at steals and joins,
//! on the span, not on lookups. This crate is the one place all of that
//! telemetry flows through:
//!
//! * [`profile`] — the **work/span instrument**: Cilkview-style online
//!   accumulators, constant space per worker, that ride the scheduler's
//!   spawn/sync hand-offs, so `Pool::run_profiled` returns a
//!   [`ParallelismReport`] (work, span, burdened span, burden by
//!   category) without draining any ring. `burdened_span − span` is the
//!   reducer overhead on the critical path.
//! * [`trace`] — a lock-free per-worker **event tracer**: fixed-capacity
//!   thread-local ring buffers of compact binary [`Event`]s (region
//!   begin/end, steal success/fail, job begin/end, detach/attach, merge
//!   begin/end, park/wake), timestamped with a cheap monotonic [`clock`].
//!   Compiled out entirely unless the `trace` cargo feature is on;
//!   runtime-switchable on top of that.
//! * [`metrics`] — the **metric primitives** the reducer instrumentation
//!   (`cilkm-core`) and the scheduler counters (`cilkm-runtime`) count
//!   with: [`Counter`]s, log2-bucketed latency [`Histogram`]s for the
//!   four §8 overhead categories, and the flat [`MetricsSnapshot`] one
//!   pool builds of itself on request.
//! * [`export`] — Chrome `trace_event` JSON (loads in Perfetto /
//!   `chrome://tracing`) and its loader, and the flat JSON metrics dump
//!   for `bench_out/`.
//! * [`analyze`] — the summarizer behind the `cilkm-trace` binary:
//!   per-worker utilization, job/merge/park time, steal/idle breakdown,
//!   and a merge critical-path estimate.
//!
//! Layering: this crate sits *below* `cilkm-tlmm`, `cilkm-runtime`, and
//! `cilkm-core`, which report into it. It depends on `cilkm-base` (the
//! JSON codec) and, behind `model` and `sanitize`, on `cilkm-checker`
//! and `cilkm-san`: it also hosts the workspace's one
//! `msync` facade (hidden from the docs), which the runtime and the
//! reducer core re-export.
//!
//! [`Event`]: event::Event
//! [`Histogram`]: metrics::Histogram

#![deny(missing_docs)]

pub mod analyze;
pub mod clock;
pub mod event;
pub mod export;
pub mod metrics;
pub mod profile;
pub mod ring;
pub mod trace;

#[doc(hidden)]
pub mod msync;

#[cfg(all(test, feature = "model"))]
mod model_tests;

pub use event::{Event, EventKind};
pub use metrics::{
    Counter, FineHistogram, FineHistogramSnapshot, Histogram, HistogramSnapshot, MetricValue,
    MetricsSnapshot,
};
pub use profile::{Burden, BurdenBreakdown, ParallelismReport};
pub use trace::{ThreadTrace, Trace};
