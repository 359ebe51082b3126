//! # cilkm-base — the substrate under the cilkm tooling
//!
//! Two pieces that the lint, the model checker, the sanitizer and the
//! observability crate each used to carry a copy of:
//!
//! * a JSON codec: [`Value`], the recursive-descent [`parse`], and the
//!   one string escaper [`quote`]. Every report keeps its own layout
//!   template (the layout is the format), and every writer quotes its
//!   strings through [`quote`], so whatever a writer emits [`parse`]
//!   reads back exactly.
//! * [`VClock`], the vector clock behind both happens-before detectors.
//!
//! Zero dependencies and no features, so every crate above can build on
//! it offline.

#![deny(missing_docs)]

mod clock;
mod json;

pub use clock::VClock;
pub use json::{parse, quote, Value};
