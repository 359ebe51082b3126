//! # cilkm-base — the substrate under the cilkm tooling
//!
//! Three pieces that the tooling, the runtime and the input generators
//! each used to carry a copy of:
//!
//! * a JSON codec: [`Value`], the recursive-descent [`parse`], and the
//!   one string escaper [`quote`]. Every report keeps its own layout
//!   template (the layout is the format), and every writer quotes its
//!   strings through [`quote`], so whatever a writer emits [`parse`]
//!   reads back exactly.
//! * [`VClock`], the vector clock behind both happens-before detectors.
//! * [`rng`]: the splitmix64 finalizer and the two seeded generators,
//!   xoshiro256** for inputs and xorshift64* for schedules.
//!
//! Zero dependencies and no features, so every crate above can build on
//! it offline.

#![deny(missing_docs)]

mod clock;
mod json;
pub mod rng;

pub use clock::VClock;
pub use json::{parse, quote, Value};
