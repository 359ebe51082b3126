//! # cilkm — memory-mapping support for reducer hyperobjects
//!
//! A from-scratch Rust reproduction of Lee, Shafi & Leiserson,
//! *Memory-Mapping Support for Reducer Hyperobjects* (SPAA 2012): a
//! Cilk-style work-stealing runtime with reducer hyperobjects implemented
//! two ways — the Cilk Plus **hypermap** baseline and the Cilk-M
//! **memory-mapped** mechanism built on (simulated) thread-local memory
//! mapping, thread-local indirection, SPA maps, and copying view
//! transferal.
//!
//! This facade re-exports the workspace crates:
//!
//! * [`runtime`] (`cilkm-runtime`) — deque, scheduler, `join`,
//!   `parallel_for`, hyperobject hooks;
//! * [`core`](mod@core) (`cilkm-core`) — `Monoid`, `Reducer`,
//!   `ReducerPool`, both backends, the standard reducer library,
//!   instrumentation;
//! * [`tlmm`] (`cilkm-tlmm`) — the simulated TLMM-Linux substrate;
//! * [`spa`] (`cilkm-spa`) — sparse accumulators and the SPA map;
//! * [`graph`] (`cilkm-graph`) — CSR graphs, generators, bags, PBFS;
//! * [`obs`] (`cilkm-obs`) — the observability layer: per-worker event
//!   tracer (enable with the `trace` feature), the metric primitives
//!   behind `ReducerPool::metrics`, the Chrome-trace exporter and
//!   loader, the metrics JSON dump, and trace analysis.
//!
//! ## Quick start
//!
//! ```
//! use cilkm::prelude::*;
//!
//! let pool = ReducerPool::new(4, Backend::Mmap);
//! let sum = Reducer::new(&pool, SumMonoid::<u64>::new(), 0);
//! pool.run(|| {
//!     parallel_for(0..1_000, 32, &|r| {
//!         for i in r {
//!             sum.add(i as u64);
//!         }
//!     });
//! });
//! assert_eq!(sum.into_inner(), 499_500);
//! ```

#![deny(missing_docs)]

pub use cilkm_core as core;
pub use cilkm_graph as graph;
pub use cilkm_obs as obs;
pub use cilkm_runtime as runtime;
/// The dynamic sanitizer (only present with the `sanitize` feature): race,
/// determinacy-race and lock-order detectors plus the report codec.
#[cfg(feature = "sanitize")]
pub use cilkm_san as san;
pub use cilkm_spa as spa;
pub use cilkm_tlmm as tlmm;

/// The most common imports in one place.
pub mod prelude {
    pub use cilkm_core::library::{
        AndMonoid, BitAndMonoid, BitOrMonoid, BitXorMonoid, FnMonoid, HolderMonoid, ListMonoid,
        MaxIndexMonoid, MaxMonoid, MinIndexMonoid, MinMonoid, OrMonoid, PrependListMonoid,
        StringMonoid, SumMonoid,
    };
    pub use cilkm_core::{Backend, Monoid, Reducer, ReducerPool};
    pub use cilkm_graph::{bfs_serial, pbfs, Bag, BagMonoid, Graph};
    pub use cilkm_runtime::{join, parallel_for, parallel_for_each};
}
