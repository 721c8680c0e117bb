//! Error type of the spatial mapper.

use crate::feedback::Feedback;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Errors terminating a mapping attempt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MapError {
    /// The application specification failed validation.
    InvalidSpec(rtsm_app::AppModelError),
    /// The platform has no stream-input (`AdcSource`) or stream-output
    /// (`Sink`) tile but the application uses stream endpoints.
    NoStreamEndpoint {
        /// Which endpoint kind is missing.
        which: &'static str,
    },
    /// No feasible mapping was found within the refinement budget.
    NoFeasibleMapping {
        /// Refinement attempts performed.
        attempts: usize,
        /// Feedback of the final failed attempt.
        last_feedback: Vec<Feedback>,
    },
    /// A process has no viable implementation under the current constraints
    /// (step 1 dead end with no remaining alternatives to exclude).
    Unmappable {
        /// Name of the process that could not be placed.
        process: String,
    },
    /// The run-time manager's certificate
    /// ([`Demand::cannot_fit`](crate::runtime::Demand::cannot_fit)) proved
    /// that no mapping can be committed onto the current ledger, so no
    /// algorithm was asked.
    CannotFit {
        /// What rules every mapping out.
        cause: CannotFitCause,
    },
}

/// Why [`MapError::CannotFit`] was certain that no mapping can be
/// committed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CannotFitCause {
    /// A process no free compute slot can host at all.
    Unhosted(rtsm_app::ProcessId),
    /// Every process has a host, but they cannot all have distinct free
    /// slots (Hall's condition fails).
    NoMatching,
    /// The application streams from or to this tile (the platform's A/D
    /// or Sink), and it has failed: its channel can neither be routed
    /// there nor kept on it.
    EndpointFailed(rtsm_platform::TileId),
}

impl fmt::Display for MapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MapError::InvalidSpec(e) => write!(f, "invalid application specification: {e}"),
            MapError::NoStreamEndpoint { which } => {
                write!(f, "platform lacks a {which} tile for the stream endpoint")
            }
            MapError::NoFeasibleMapping {
                attempts,
                last_feedback,
            } => write!(
                f,
                "no feasible mapping after {attempts} refinement attempts \
                 ({} feedback items)",
                last_feedback.len()
            ),
            MapError::Unmappable { process } => {
                write!(f, "process `{process}` has no viable implementation")
            }
            MapError::CannotFit { cause } => match cause {
                CannotFitCause::Unhosted(process) => write!(
                    f,
                    "no free compute slot can host process #{}",
                    process.index()
                ),
                CannotFitCause::NoMatching => {
                    f.write_str("the processes cannot have distinct free compute slots")
                }
                CannotFitCause::EndpointFailed(tile) => {
                    write!(f, "stream endpoint tile #{} has failed", tile.index())
                }
            },
        }
    }
}

/// The serializable discriminant of [`MapError`]: which *kind* of failure
/// terminated the attempt, without the attempt-specific payload. This is
/// what rejection histograms and persisted scenario/simulation reports key
/// on, so scripted and simulated runs report comparable data.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum MapErrorKind {
    /// See [`MapError::InvalidSpec`].
    InvalidSpec,
    /// See [`MapError::NoStreamEndpoint`].
    NoStreamEndpoint,
    /// See [`MapError::NoFeasibleMapping`].
    NoFeasibleMapping,
    /// See [`MapError::Unmappable`].
    Unmappable,
    /// See [`MapError::CannotFit`].
    CannotFit,
}

impl fmt::Display for MapErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let label = match self {
            MapErrorKind::InvalidSpec => "invalid-spec",
            MapErrorKind::NoStreamEndpoint => "no-stream-endpoint",
            MapErrorKind::NoFeasibleMapping => "no-feasible-mapping",
            MapErrorKind::Unmappable => "unmappable",
            MapErrorKind::CannotFit => "cannot-fit",
        };
        f.write_str(label)
    }
}

impl MapError {
    /// This error's [`MapErrorKind`] discriminant.
    pub fn kind(&self) -> MapErrorKind {
        match self {
            MapError::InvalidSpec(_) => MapErrorKind::InvalidSpec,
            MapError::NoStreamEndpoint { .. } => MapErrorKind::NoStreamEndpoint,
            MapError::NoFeasibleMapping { .. } => MapErrorKind::NoFeasibleMapping,
            MapError::Unmappable { .. } => MapErrorKind::Unmappable,
            MapError::CannotFit { .. } => MapErrorKind::CannotFit,
        }
    }
}

impl std::error::Error for MapError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            MapError::InvalidSpec(e) => Some(e),
            _ => None,
        }
    }
}

impl From<rtsm_app::AppModelError> for MapError {
    fn from(e: rtsm_app::AppModelError) -> Self {
        MapError::InvalidSpec(e)
    }
}
