//! # rtsm_obs — observability for the run-time admission path
//!
//! The paper's mapper lives or dies by per-arrival admission latency, so
//! this crate makes the hot path *observable* without making it
//! *different*: every instrumentation point is a thread-local dispatch
//! that costs one borrow-and-branch when no probe is installed, and no
//! probe may influence a mapping decision — enabling any probe leaves
//! every fixed-seed deterministic report byte-identical (the workspace's
//! cardinal no-observer-effect invariant, gated by proptest and CI).
//!
//! Three layers:
//!
//! * [`probe`] — the [`Probe`] trait plus the emission points the model
//!   crates call ([`span_begin`]/[`span_end`]/[`count`], or the RAII
//!   [`span`]). Instrumented regions are enumerated by [`Span`] (mapper
//!   steps 1–4, buffer sizing, admission/remap/switch, migration-plan
//!   evaluation) and [`Counter`] (buffer-sizing probes and memo hits,
//!   transaction commits and aborts, CSDF simulation runs, refusals replayed
//!   and placements ruled out on the retry path). With no probe
//!   installed every emission is a no-op and allocates nothing.
//! * [`hist`] — [`LatencyHistogram`], a log2-bucketed integer-nanosecond
//!   histogram (HdrHistogram-style) with p50/p90/p99/max and mergeable
//!   buckets. Wall-clock numbers are inherently non-deterministic, so a
//!   histogram has no serialized form and no deterministic report can
//!   hold one.
//! * [`recorder`] — [`FlightRecorder`], a bounded ring buffer of probe
//!   events that can dump the last N events when an admission goes wrong,
//!   render a human-readable span tree, and export a Chrome trace-event
//!   JSON file (`simulate --trace-out trace.json`) that opens in
//!   Perfetto with one lane per admission. [`SpanLatencyProbe`] times
//!   every span into per-span histograms, a per-step latency breakdown
//!   of whatever ran under it.
//!
//! # Example
//!
//! ```
//! use rtsm_obs::{self as obs, FlightRecorder, Span};
//! use std::rc::Rc;
//!
//! let recorder = Rc::new(FlightRecorder::new(1024));
//! {
//!     let _probe = obs::install(recorder.clone());
//!     let _span = obs::span(Span::Map);
//!     obs::count(obs::Counter::BufferProbe, 1);
//! } // guard drop uninstalls the probe
//! assert_eq!(recorder.len(), 3); // begin + counter + end
//! assert_eq!(recorder.balance_errors(), 0);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod hist;
pub mod probe;
pub mod recorder;

pub use hist::{LatencyHistogram, N_BUCKETS};
pub use probe::{
    count, enabled, install, span, span_begin, span_end, Counter, NoopProbe, Probe, ProbeGuard,
    Span, SpanGuard, N_COUNTERS, N_SPANS,
};
pub use recorder::{FlightRecorder, SpanLatencyProbe, TraceEvent, TraceEventKind};
