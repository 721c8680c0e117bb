//! `rtsm_exp` — the sharded experiment harness.
//!
//! The paper's run-time mapping claims are aggregate claims: blocking
//! probability, energy, and fragmentation across many arrival rates,
//! catalogs, policies, and seeds. This crate turns such a sweep matrix
//! into one deterministic artifact:
//!
//! 1. an [`ExperimentSpec`] (algorithms × catalogs × λ × admission
//!    policies × seeds × repeats over a [`SpecTemplate`]) expands into
//!    an ordered list of independent [`Trial`]s;
//! 2. a small vendored worker pool ([`pool::run_ordered`] — std threads
//!    and channels, no external deps) fans the trials out and merges
//!    results back **in trial-id order**, so every downstream byte is
//!    independent of worker count and scheduling;
//! 3. per-trial [`TrialRecord`]s stream as JSONL while the run is in
//!    flight, and the run seals into a versioned [`ExperimentReport`]:
//!    aggregate tables with across-seed confidence intervals
//!    ([`StatSummary`]) plus a Pareto front per catalog, stamped with
//!    the FNV-1a digest of the record stream.
//!
//! Everything in a record or report is an integer. The harness reads the
//! clock once, around the whole fan-out ([`ExperimentRun::wall`]); no
//! trial is timed. Same spec ⇒ byte-identical report, whether it ran on
//! 1 worker or 16.
//!
//! # Example
//!
//! ```
//! use rtsm_exp::{run_experiment, ExperimentSpec, PolicySpec, SpecTemplate};
//!
//! let spec = ExperimentSpec {
//!     schema: None,
//!     name: "doctest".to_string(),
//!     template: SpecTemplate {
//!         arrivals: 20,
//!         mean_hold: None,
//!         switch_prob_pct: None,
//!         sample_interval: None,
//!         horizon: None,
//!         platform_seed: None,
//!     },
//!     algorithms: vec!["greedy".to_string(), "portfolio".to_string()],
//!     catalogs: vec!["hiperlan2".to_string()],
//!     mean_gaps: vec![500],
//!     policies: vec![PolicySpec::none()],
//!     seeds: vec![7],
//!     repeats: None,
//! };
//! spec.validate().expect("axes name registered algorithms and catalogs");
//! let single = run_experiment(&spec, 1, |_, _| {}).expect("the sweep runs");
//! let raced = run_experiment(&spec, 4, |_, _| {}).expect("the sweep runs");
//! // The sealed report is byte-identical regardless of worker count.
//! assert_eq!(
//!     serde_json::to_string(&single.report).unwrap(),
//!     serde_json::to_string(&raced.report).unwrap(),
//! );
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod io;
pub mod pool;
pub mod report;
pub mod runner;
pub mod spec;
pub mod stats;
pub mod trial;

pub use io::write_atomic;
pub use pool::{available_workers, run_ordered};
pub use report::{AggregateRow, CatalogFront, ExperimentReport, FrontPoint, REPORT_SCHEMA};
pub use runner::{run_experiment, ExpError, ExperimentRun};
pub use spec::{ExperimentSpec, PolicySpec, SpecTemplate, VALID_POLICY_KINDS};
pub use stats::StatSummary;
pub use trial::{
    make_algorithm, resolve_catalog, run_algorithm, run_trial, sim_config, AlgorithmEntry,
    ResolvedCatalog, Trial, TrialRecord, ALGORITHMS, VALID_ALGORITHMS, VALID_CATALOGS,
};
