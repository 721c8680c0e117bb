//! Error type for application-model validation.

use std::fmt;

/// Errors found while building or validating application models.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AppModelError {
    /// A channel endpoint references a process that does not exist.
    UnknownProcess(usize),
    /// A process has no implementation at all.
    NoImplementation {
        /// Name of the unimplementable process.
        process: String,
    },
    /// An implementation's port count does not match the process's channel
    /// degree in the KPN.
    PortMismatch {
        /// The implementation's name.
        implementation: String,
        /// `"input"` or `"output"`.
        direction: &'static str,
        /// Ports declared by the implementation.
        has: usize,
        /// Channels attached in the KPN.
        expected: usize,
    },
    /// An implementation's per-cycle rate does not divide the channel's
    /// tokens-per-period, or ports imply different cycle counts.
    RateMismatch {
        /// The implementation's name.
        implementation: String,
        /// Explanation of the violated relation.
        detail: String,
    },
    /// The KPN has a cycle (streaming specifications here are acyclic; the
    /// control process is not part of the data stream).
    CyclicKpn,
    /// A data-stream channel joins a stream process to a control process.
    /// The control process is not part of the data stream, so no order of
    /// the stream processes exists: it would either hold the control
    /// process or leave the stream process out.
    ControlInStream {
        /// Name of the stream process on the channel.
        process: String,
    },
    /// A channel endpoint is used incorrectly: `StreamInput` as a
    /// destination, `StreamOutput` as a source, or a control process at an
    /// end of a data-stream channel that joins it to no stream process.
    BadEndpoint(&'static str),
}

impl fmt::Display for AppModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AppModelError::UnknownProcess(i) => write!(f, "unknown process index {i}"),
            AppModelError::NoImplementation { process } => {
                write!(f, "process `{process}` has no implementation")
            }
            AppModelError::PortMismatch {
                implementation,
                direction,
                has,
                expected,
            } => write!(
                f,
                "implementation `{implementation}` has {has} {direction} ports, KPN expects {expected}"
            ),
            AppModelError::RateMismatch {
                implementation,
                detail,
            } => write!(f, "implementation `{implementation}` rate mismatch: {detail}"),
            AppModelError::CyclicKpn => write!(f, "KPN data-stream graph has a cycle"),
            AppModelError::ControlInStream { process } => write!(
                f,
                "stream process `{process}` shares a data-stream channel with a control process"
            ),
            AppModelError::BadEndpoint(what) => write!(f, "bad endpoint use: {what}"),
        }
    }
}

impl std::error::Error for AppModelError {}
