//! Baseline spatial-mapping algorithms.
//!
//! The DATE 2008 paper observes that "no benchmarks exist to compare
//! spatial mappings quantitatively" (§5). This crate supplies the
//! comparators its evaluation lacks:
//!
//! * [`ExhaustiveMapper`] — branch-and-bound over all (implementation,
//!   tile) assignments: the **optimal-energy reference** for small
//!   instances.
//! * [`AnnealingMapper`] — simulated annealing: a strong but slow
//!   design-time-style optimiser.
//! * [`RandomMapper`] — best of N random adherent mappings: the sanity
//!   floor.
//! * [`GreedyMapper`] — the paper's step 1 only (no local search): the
//!   ablation for step 2.
//! * [`SpiralMapper`] — spiral / region-growing placement around the
//!   heaviest communicator (after Benhaoua et al., arXiv:1312.5764).
//! * [`GeneticMapper`] — seeded bias-elitist genetic search (after Quan
//!   & Pimentel, arXiv:1406.7539), its population seeded with the
//!   greedy and spiral solutions.
//! * [`PortfolioMapper`] — not a search of its own: runs greedy, spiral,
//!   the paper's heuristic and the genetic mapper in turn and returns the
//!   lowest-energy feasible outcome.
//!
//! Every baseline implements the workspace-wide
//! [`MappingAlgorithm`] trait (the paper's
//! full heuristic is [`rtsm_core::SpatialMapper`], behind the same trait)
//! and returns the shared [`MappingOutcome`]
//! type, so results are interchangeable: any of them can drive a
//! [`RuntimeManager`](rtsm_core::RuntimeManager) or a benchmark table.
//!
//! Every tuning value of these baselines is a constant of its module,
//! except the two `repro` varies: [`AnnealingMapper::iterations`] and
//! [`ExhaustiveMapper::max_nodes`].
//!
//! Every algorithm returns mappings that are *adherent by construction*
//! (claims are checked during search) and *feasibility-checked* with the
//! same step-3 routing and step-4 dataflow analysis the heuristic uses, so
//! energy comparisons are like-for-like.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod annealing;
pub mod common;
pub mod exhaustive;
pub mod genetic;
pub mod greedy;
pub mod portfolio;
pub mod random;
pub mod spiral;

pub use annealing::AnnealingMapper;
pub use common::finalize_assignment;
pub use exhaustive::ExhaustiveMapper;
pub use genetic::GeneticMapper;
pub use greedy::GreedyMapper;
pub use portfolio::PortfolioMapper;
pub use random::RandomMapper;
pub use spiral::SpiralMapper;

// The unified interface lives in `rtsm_core`; re-exported here so baseline
// users need a single import.
pub use rtsm_core::{MapError, MappingAlgorithm, MappingOutcome, SpatialMapper};
