//! Why a [`RuntimeManager`](super::RuntimeManager) operation failed.

use super::{AppHandle, RunningApp};
use crate::error::{MapError, MapErrorKind};
use rtsm_platform::PlatformError;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Why an *admission* (a [`start`](super::RuntimeManager::start)) failed. Errors
/// of the other lifecycle operations — stop, switch — are
/// [`RuntimeError`]s, which this type converts into via `From`.
#[derive(Debug, Clone, PartialEq)]
pub enum AdmissionError {
    /// The algorithm found no feasible mapping: the application is
    /// *rejected* under the current occupancy (the expected, recoverable
    /// outcome when the platform is full).
    Rejected(MapError),
    /// Mapping succeeded but committing its reservations failed. The
    /// ledger is left unchanged. This cannot happen when the ledger is
    /// only mutated through one manager; it guards external mutation.
    CommitFailed(PlatformError),
}

/// The serializable discriminant of [`AdmissionError`]: which variant
/// occurred (and, for rejections, which [`MapErrorKind`]), without the
/// attempt-specific payload. Rejection-reason histograms in scenario and
/// simulation reports are keyed by this type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum AdmissionErrorKind {
    /// See [`AdmissionError::Rejected`]; carries the mapping failure kind.
    Rejected(MapErrorKind),
    /// See [`AdmissionError::CommitFailed`].
    CommitFailed,
}

impl fmt::Display for AdmissionErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AdmissionErrorKind::Rejected(kind) => write!(f, "rejected/{kind}"),
            AdmissionErrorKind::CommitFailed => f.write_str("commit-failed"),
        }
    }
}

impl AdmissionError {
    /// This error's [`AdmissionErrorKind`] discriminant.
    pub fn kind(&self) -> AdmissionErrorKind {
        match self {
            AdmissionError::Rejected(e) => AdmissionErrorKind::Rejected(e.kind()),
            AdmissionError::CommitFailed(_) => AdmissionErrorKind::CommitFailed,
        }
    }
}

impl fmt::Display for AdmissionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AdmissionError::Rejected(e) => write!(f, "application rejected: {e}"),
            AdmissionError::CommitFailed(e) => {
                write!(f, "admission commit failed (ledger unchanged): {e}")
            }
        }
    }
}

impl std::error::Error for AdmissionError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            AdmissionError::Rejected(e) => Some(e),
            AdmissionError::CommitFailed(e) => Some(e),
        }
    }
}

/// Why a lifecycle operation of the
/// [`RuntimeManager`](super::RuntimeManager) failed. Admission
/// failures keep their own [`AdmissionError`] type (they are the expected,
/// recoverable outcome admission policies reason about); everything else —
/// stopping or switching an unknown handle, a release the ledger cannot
/// honour — is a runtime fault, not an "admission" error.
#[derive(Debug, Clone, PartialEq)]
pub enum RuntimeError {
    /// An admission step failed (start, or the admission inside a switch).
    Admission(AdmissionError),
    /// The handle does not name a running application (already stopped,
    /// or from another manager).
    UnknownHandle(AppHandle),
    /// Releasing an application's reservations failed — the ledger no
    /// longer matches what was committed (external mutation). The partial
    /// release is rolled back; the ledger is unchanged.
    ReleaseFailed(PlatformError),
}

/// The serializable discriminant of [`RuntimeError`]; keeps the
/// [`AdmissionErrorKind`] sub-discriminant for admission failures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum RuntimeErrorKind {
    /// See [`RuntimeError::Admission`]; carries the admission failure kind.
    Admission(AdmissionErrorKind),
    /// See [`RuntimeError::UnknownHandle`].
    UnknownHandle,
    /// See [`RuntimeError::ReleaseFailed`].
    ReleaseFailed,
}

impl fmt::Display for RuntimeErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuntimeErrorKind::Admission(kind) => write!(f, "admission/{kind}"),
            RuntimeErrorKind::UnknownHandle => f.write_str("unknown-handle"),
            RuntimeErrorKind::ReleaseFailed => f.write_str("release-failed"),
        }
    }
}

impl RuntimeError {
    /// This error's [`RuntimeErrorKind`] discriminant.
    pub fn kind(&self) -> RuntimeErrorKind {
        match self {
            RuntimeError::Admission(e) => RuntimeErrorKind::Admission(e.kind()),
            RuntimeError::UnknownHandle(_) => RuntimeErrorKind::UnknownHandle,
            RuntimeError::ReleaseFailed(_) => RuntimeErrorKind::ReleaseFailed,
        }
    }
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuntimeError::Admission(e) => e.fmt(f),
            RuntimeError::UnknownHandle(h) => {
                write!(f, "no running application with handle {h}")
            }
            RuntimeError::ReleaseFailed(e) => {
                write!(f, "failed to release reservations: {e}")
            }
        }
    }
}

impl std::error::Error for RuntimeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RuntimeError::Admission(e) => Some(e),
            RuntimeError::ReleaseFailed(e) => Some(e),
            RuntimeError::UnknownHandle(_) => None,
        }
    }
}

impl From<AdmissionError> for RuntimeError {
    fn from(e: AdmissionError) -> Self {
        RuntimeError::Admission(e)
    }
}

/// Error of [`stop_all`](super::RuntimeManager::stop_all): a release failed partway
/// through. The applications stopped before the failure were released
/// successfully — their records are carried here, since they are no
/// longer registered with the manager — while the failing application and
/// all later ones keep running.
#[derive(Debug, Clone)]
pub struct StopAllError {
    /// Records of the applications stopped before the failure.
    pub stopped: Vec<(AppHandle, RunningApp)>,
    /// Why the next release failed.
    pub error: RuntimeError,
}

impl fmt::Display for StopAllError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "stop_all failed after stopping {} application(s): {}",
            self.stopped.len(),
            self.error
        )
    }
}

impl std::error::Error for StopAllError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.error)
    }
}

/// A failed
/// [`start_with_reconfiguration`](super::RuntimeManager::start_with_reconfiguration):
/// no plan within the search's bounds admitted the application. The ledger
/// and every running application are exactly as before the call.
#[derive(Debug, Clone, PartialEq)]
pub struct ReconfigurationFailure {
    /// The original (pre-search) admission failure.
    pub error: AdmissionError,
    /// Migration plans evaluated before giving up.
    pub plans_tried: u64,
    /// Victim re-mappings attempted across all evaluated plans.
    pub migrations_attempted: u64,
    /// Feasible plans found but refused by the
    /// [`AdmissionPolicy`](super::AdmissionPolicy) — when
    /// non-zero, the blocking was a *policy* decision, not a placement
    /// failure.
    pub plans_refused: u64,
}

impl fmt::Display for ReconfigurationFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "admission not recovered after {} migration plan(s): {}",
            self.plans_tried, self.error
        )
    }
}

impl std::error::Error for ReconfigurationFailure {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.error)
    }
}
