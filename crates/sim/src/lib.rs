//! # rtsm_sim — discrete-event simulation of the run-time manager
//!
//! The paper's motivation (§1.3) is that run-time mapping decides against
//! the *actual* set of running applications — admission quality therefore
//! only shows under sustained, randomized load, not in hand-scripted
//! start/stop lists. This crate is that load: a seeded, deterministic
//! discrete-event simulator that drives a
//! [`RuntimeManager`](rtsm_core::runtime::RuntimeManager) through virtual
//! time and measures long-horizon admission behaviour.
//!
//! The pieces:
//!
//! * [`event`] — virtual-time ticks, the seven [`SimEvent`]s (arrival,
//!   departure, mode switch, reconfiguration retry, tile failure, link
//!   failure, repair), and a deterministic binary-heap [`EventQueue`];
//! * [`workload`] — stochastic workload generation: weighted application
//!   [`Catalog`]s (HIPERLAN/2 modes, realistic DSP apps, seeded
//!   synthetics), Poisson [`ArrivalProcess`] and exponential
//!   [`HoldingTime`] — all reproducible from one `u64` seed;
//! * [`metrics`] — the [`MetricsCollector`], the one place a manager
//!   result becomes report data: admission/blocking counts,
//!   rejection-reason histograms keyed by
//!   [`AdmissionErrorKind`](rtsm_core::runtime::AdmissionErrorKind),
//!   utilization over time, the energy integral and the optional
//!   reconfiguration and survivability sections, sealed into a
//!   serializable [`SimReport`];
//! * [`sim`] — the loop itself, [`run_sim`] plus [`SimConfig`]: it decides
//!   which manager call each event makes and what it schedules, and hands
//!   every result to the collector.
//!
//! Determinism is a hard guarantee: the same seed, platform, catalog, and
//! algorithm produce a byte-identical serialized [`SimReport`], which is
//! what makes long-horizon comparisons across mapping algorithms
//! trustworthy. [`run_sim`] never reads the clock: whoever wants the
//! wall-clock cost of the admission path installs an
//! [`rtsm_obs::SpanLatencyProbe`] around the call.
//!
//! # Example
//!
//! ```
//! use rtsm_core::SpatialMapper;
//! use rtsm_platform::paper::paper_platform;
//! use rtsm_sim::{run_sim, Catalog, SimConfig};
//!
//! let config = SimConfig {
//!     seed: 42,
//!     arrivals: 100,
//!     ..SimConfig::default()
//! };
//! let run = run_sim(
//!     &paper_platform(),
//!     SpatialMapper::default(),
//!     &Catalog::hiperlan2(),
//!     &config,
//! )
//! .expect("the simulation never breaks its own ledger");
//! assert_eq!(run.report.admitted + run.report.blocked, 100);
//! assert!(run.report.ledger_idle_at_end);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod event;
pub mod metrics;
pub mod sim;
pub mod workload;

pub use event::{EventQueue, InstanceId, SimEvent, SimTime};
pub use metrics::{
    check_sample_growth, MetricsCollector, ReconfigurationReport, SimReport, SurvivabilityReport,
    TemplateReport, UtilizationSample, MAX_NOMINAL_SAMPLES,
};
pub use sim::{run_sim, FaultConfig, SimConfig, SimRun};
pub use workload::{ArrivalProcess, Catalog, CatalogEntry, HoldingTime};
