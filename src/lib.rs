//! # rtsm — Run-time Spatial Mapping for Heterogeneous MPSoCs
//!
//! A complete, from-scratch reproduction of *Hölzenspies, Hurink, Kuper,
//! Smit — "Run-time Spatial Mapping of Streaming Applications to a
//! Heterogeneous Multi-Processor System-on-Chip (MPSOC)", DATE 2008*.
//!
//! This umbrella crate re-exports the whole workspace:
//!
//! * [`dataflow`] — cyclo-static dataflow modelling and analysis (phase
//!   vectors, repetition vectors, self-timed simulation, throughput,
//!   buffer sizing, latency, HSDF/MCR);
//! * [`platform`] — heterogeneous tiled MPSoC with a guaranteed-throughput
//!   mesh NoC, capacity-aware routing, occupancy ledger, and energy model;
//! * [`app`] — application models: Kahn process networks, QoS constraints,
//!   implementation libraries, and the paper's HIPERLAN/2 receiver;
//! * [`core`] — the paper's four-step run-time spatial mapper with
//!   iterative refinement, the workspace-wide
//!   [`MappingAlgorithm`](core::MappingAlgorithm) interface, and the
//!   handle-based [`RuntimeManager`](core::RuntimeManager) for
//!   multi-application lifecycles;
//! * [`baselines`] — optimal (branch & bound), simulated-annealing,
//!   random, and greedy comparators behind the same trait;
//! * [`workloads`] — synthetic generators, constructed realistic DSP
//!   applications, and the engineered defragmentation workload;
//! * [`sim`] — a seeded discrete-event simulator driving the
//!   [`RuntimeManager`](core::RuntimeManager) with stochastic workloads
//!   (Poisson arrivals, exponential holding times, mode switches) and
//!   collecting long-horizon admission metrics into a serializable
//!   [`SimReport`](sim::SimReport);
//! * [`exp`] — the sharded experiment harness: declarative sweep
//!   matrices ([`ExperimentSpec`](exp::ExperimentSpec)) expanded into
//!   independent trials, fanned across a vendored worker pool, and
//!   sealed into byte-stable aggregate reports with Pareto fronts;
//! * [`obs`] — zero-dependency observability for the admission path:
//!   the [`Probe`](obs::Probe) trait with thread-local installation,
//!   span/counter instrumentation through mapper steps 1–4 and the
//!   transactional runtime, log2-bucketed
//!   [`LatencyHistogram`](obs::LatencyHistogram)s, and the ring-buffer
//!   [`FlightRecorder`](obs::FlightRecorder) with Chrome trace-event
//!   export. Probes never change behaviour: fixed-seed deterministic
//!   reports stay byte-identical with probes on or off.
//!
//! ## Quickstart
//!
//! The run-time flow of the paper (§1.3): a [`RuntimeManager`](core::RuntimeManager)
//! owns the occupancy ledger, admits applications by mapping them against
//! the *actual* current state, and releases their resources when they stop.
//!
//! ```
//! use rtsm::app::hiperlan2::{hiperlan2_receiver, Hiperlan2Mode};
//! use rtsm::core::{RuntimeManager, SpatialMapper};
//! use rtsm::platform::paper::paper_platform;
//!
//! // The paper's case study: the HIPERLAN/2 receiver on the 3×3 MPSoC.
//! let mut manager = RuntimeManager::new(paper_platform(), SpatialMapper::default());
//!
//! let handle = manager
//!     .start(hiperlan2_receiver(Hiperlan2Mode::Qpsk34))
//!     .expect("feasible on the empty platform");
//! let app = manager.get(handle).unwrap();
//! assert_eq!(app.outcome.communication_hops, 7); // Table 2's final cost
//!
//! // A second receiver is rejected while the MONTIUMs are taken…
//! assert!(manager.start(hiperlan2_receiver(Hiperlan2Mode::Qpsk34)).is_err());
//! // …and admitted once the first one stops.
//! manager.stop(handle).expect("running app stops");
//! assert!(manager.start(hiperlan2_receiver(Hiperlan2Mode::Qpsk34)).is_ok());
//! ```
//!
//! ## Swapping the mapping algorithm
//!
//! Every mapper implements [`MappingAlgorithm`](core::MappingAlgorithm)
//! and returns the same [`MappingOutcome`](core::MappingOutcome), so the
//! manager (and the simulator in [`sim`]) is generic over the algorithm:
//!
//! ```
//! use rtsm::baselines::AnnealingMapper;
//! use rtsm::core::RuntimeManager;
//! use rtsm::platform::paper::paper_platform;
//! use rtsm::app::hiperlan2::{hiperlan2_receiver, Hiperlan2Mode};
//!
//! // Same lifecycle, simulated-annealing admission instead of the paper's
//! // heuristic.
//! let mut manager = RuntimeManager::new(paper_platform(), AnnealingMapper::default());
//! let handle = manager.start(hiperlan2_receiver(Hiperlan2Mode::Qpsk34)).unwrap();
//! manager.stop(handle).unwrap();
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use rtsm_app as app;
pub use rtsm_baselines as baselines;
pub use rtsm_core as core;
pub use rtsm_dataflow as dataflow;
pub use rtsm_exp as exp;
pub use rtsm_obs as obs;
pub use rtsm_platform as platform;
pub use rtsm_sim as sim;
pub use rtsm_workloads as workloads;

#[cfg(doctest)]
#[doc = include_str!("../README.md")]
struct ReadmeDoctests;
