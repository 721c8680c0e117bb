//! Experiment runners shared by the `repro` binary and the workspace
//! integration tests, plus the flag grammar of `simulate` and `experiment`.
//!
//! Each public function of [`experiments`] regenerates one artefact of the
//! paper (E1–E12; README, *Reproducing the paper*);
//! `tests/paper_reproduction.rs` holds the paper-vs-measured comparison for
//! every one of them as assertions. Nothing here times anything for the
//! record: that is `benchmark/`'s job.

#![warn(missing_docs)]
// `unsafe` is confined to the GlobalAlloc delegation in `alloc_track`.

pub mod alloc_track;
pub mod cli;
pub mod experiments;
pub mod render;

pub use experiments::*;
