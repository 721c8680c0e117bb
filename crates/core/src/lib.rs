//! The run-time spatial mapper — the primary contribution of the DATE 2008
//! paper *"Run-time Spatial Mapping of Streaming Applications to a
//! Heterogeneous Multi-Processor System-on-Chip (MPSOC)"*.
//!
//! The mapper assigns the processes of a streaming application (a KPN with
//! per-tile-type CSDF implementations) to the tiles of an MPSoC and its
//! channels to paths through the NoC, minimising energy under QoS
//! constraints. It is a *hierarchical search with iterative refinement*
//! (§3): four steps, each shrinking the next step's search space, with
//! feedback re-triggering earlier steps when a later one fails.
//!
//! 1. [`step1`] — assign **implementations** to processes by desirability
//!    (gap between cheapest and second-cheapest option), first-fit packing
//!    onto concrete tiles.
//! 2. [`step2`] — improve the **tile assignment** by local search (move /
//!    swap within a tile type) on the Manhattan-distance communication
//!    cost; this regenerates the paper's Table 2 row for row.
//! 3. [`step3`] — assign **channels to paths**: heaviest demand first,
//!    capacity-constrained shortest paths.
//! 4. [`step4`] — **check the QoS constraints** by composing the mapped
//!    application's CSDF graph (Figure 3: implementation actors plus one
//!    router actor per traversed router) and analysing throughput, buffer
//!    capacities and latency with `rtsm-dataflow`.
//!
//! [`mapper::SpatialMapper`] drives the steps and the feedback loop;
//! [`criteria`] defines the paper's *adequate / adherent / feasible*
//! hierarchy; [`report`] renders the paper's tables.
//!
//! Two workspace-level abstractions are built on top:
//!
//! * [`algorithm::MappingAlgorithm`] — the unified interface every spatial
//!   mapper (this crate's heuristic and the `rtsm_baselines` comparators)
//!   implements, producing one shared [`algorithm::MappingOutcome`] type;
//! * [`runtime::RuntimeManager`] — the stateful run-time component of
//!   §1.3: it owns the occupancy ledger and drives handle-based
//!   multi-application lifecycles (admit / commit / release) through any
//!   `MappingAlgorithm`.
//!
//! # Example
//!
//! ```
//! use rtsm_app::hiperlan2::{hiperlan2_receiver, Hiperlan2Mode};
//! use rtsm_core::mapper::{MapperConfig, SpatialMapper};
//! use rtsm_platform::paper::paper_platform;
//!
//! let spec = hiperlan2_receiver(Hiperlan2Mode::Qpsk34);
//! let platform = paper_platform();
//! let state = platform.initial_state();
//! let result = SpatialMapper::new(MapperConfig::default())
//!     .map(&spec, &platform, &state)
//!     .expect("the paper's case study is mappable");
//! assert!(result.feasible);
//! assert_eq!(result.communication_hops, 7); // the paper's final cost
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod algorithm;
pub mod claims;
pub mod constraints;
pub mod cost;
pub mod criteria;
pub mod error;
pub mod feedback;
pub mod mapper;
pub mod mapping;
pub mod report;
pub mod runtime;
pub mod spec_table;
pub mod step1;
pub mod step2;
pub mod step3;
pub mod step4;
pub mod template;
pub mod trace;

pub use algorithm::{MappingAlgorithm, MappingOutcome};
pub use constraints::MappingConstraints;
pub use cost::CostModel;
pub use error::{MapError, MapErrorKind};
pub use feedback::Feedback;
pub use mapper::{MapperConfig, SpatialMapper};
pub use mapping::{Assignment, Mapping, RouteBinding};
pub use runtime::{
    AdmissionError, AdmissionErrorKind, AdmissionPolicy, AppHandle, EvacuatedApp, Evacuation,
    EvacuationPolicy, FailureEvent, Migration, Reconfiguration, ReconfigurationFailure,
    ReconfigurationObjective, ReconfigurationPolicy, RunningApp, RuntimeError, RuntimeErrorKind,
    RuntimeManager, StopAllError, Utilization,
};
pub use spec_table::SpecTable;
pub use template::{TemplateStats, TemplatedMapper};
