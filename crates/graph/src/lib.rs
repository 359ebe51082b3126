//! # cilkm-graph — graphs, bags, and parallel breadth-first search
//!
//! The application benchmark of the SPAA 2012 evaluation is **PBFS**, the
//! work-efficient parallel breadth-first search of Leiserson and Schardl
//! (SPAA 2010), whose inner data structure — the *bag* — is declared as a
//! reducer so that logically parallel branches can insert newly
//! discovered vertices without races (§8 of the reducer paper).
//!
//! This crate supplies everything that experiment needs, from scratch:
//!
//! * [`Graph`] — a compressed-sparse-row graph;
//! * [`gen`] — synthetic generators standing in for the paper's eight
//!   input matrices (see `DESIGN.md` for the substitution argument);
//! * [`Bag`] / [`BagMonoid`] — the bag: an ordered list of 128-element
//!   blocks with O(1) insert, union by concatenation, and a parallel walk
//!   that hands each worker a contiguous run of the fill order;
//! * [`bfs_serial`] — the serial BFS baseline;
//! * [`pbfs()`](pbfs::pbfs) — layer-synchronous PBFS over bag reducers, runnable on
//!   either reducer backend.

#![deny(missing_docs)]

pub mod bag;
pub mod bfs;
pub mod csr;
pub mod gen;
pub mod pbfs;

pub use bag::{check_bag_invariant, Bag, BagMonoid, BLOCK};
pub use bfs::bfs_serial;
pub use csr::Graph;
pub use pbfs::{pbfs, pbfs_profiled, PbfsReport};

/// Distance marker for unreached vertices.
pub const UNREACHED: u32 = u32::MAX;
