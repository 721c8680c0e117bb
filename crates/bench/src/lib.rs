//! Benchmark harness: experiment runners shared by the `repro` binary, the
//! Criterion benches, and the workspace integration tests.
//!
//! Each public function regenerates one artefact of the paper (see
//! `DESIGN.md`'s per-experiment index); `EXPERIMENTS.md` records the
//! paper-vs-measured comparison for every one of them.

#![warn(missing_docs)]
// `unsafe` is confined to the GlobalAlloc delegation in `alloc_track`.

pub mod alloc_track;
pub mod cli;
pub mod experiments;
pub mod render;

pub use experiments::*;
