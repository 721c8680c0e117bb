//! Streaming-application models for run-time spatial mapping.
//!
//! The DATE 2008 paper describes applications at two levels (§1.2, §4.1):
//!
//! * **Functional** — a Kahn Process Network ([`kpn::ProcessGraph`]): just
//!   the decomposition into communicating processes and the data
//!   dependencies between them, plus the QoS constraints
//!   ([`qos::QosSpec`]). Together these form the Application Level
//!   Specification ([`als::ApplicationSpec`]).
//! * **Implementation** — per process, one or more concrete
//!   [`implementation::Implementation`]s, each targeting a tile type and
//!   described by a CSDF actor (per-phase WCETs and token rates), an energy
//!   figure, and resource requirements (Table 1).
//!
//! [`hiperlan2`] instantiates the paper's full case study: the HIPERLAN/2
//! receiver of Figure 1 with the implementation library of Table 1 across
//! all seven demapping modes.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod als;
mod digest;
pub mod error;
pub mod hiperlan2;
pub mod implementation;
pub mod kpn;
pub mod library;
pub mod qos;

pub use als::ApplicationSpec;
pub use error::AppModelError;
pub use implementation::Implementation;
pub use kpn::{Endpoint, KpnChannel, KpnChannelId, Ports, Process, ProcessGraph, ProcessId};
pub use library::ImplementationLibrary;
pub use qos::QosSpec;
