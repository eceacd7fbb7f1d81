//! # eml-benchmark — the repo's serving benchmark
//!
//! Drives the real `eml-serve` / `eml-net` stack with seeded
//! closed-loop load, verifies every reply bit for bit against a direct
//! forward of an identically built model, and reports the seven
//! end-to-end metrics (`--trace 0`) or, from spans recorded around its
//! own calls into each crate's public functions plus direct-call
//! probes, the 68 per-layer metrics (`--trace 1`). See `README.md`
//! for the catalog and the measurement rules, [`catalog`] for the one
//! table everything is generated from.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod agree;
pub mod catalog;
pub mod hist;
pub mod json;
pub mod load;
pub mod models;
pub mod probes;
pub mod run;
pub mod stats;
pub mod sut;
pub mod sys;
pub mod trace;
