//! The unified mapping-algorithm interface.
//!
//! Every spatial mapper in the workspace — the paper's four-step heuristic
//! ([`SpatialMapper`](crate::SpatialMapper)) and the baseline comparators in
//! `rtsm_baselines` — implements one trait, [`MappingAlgorithm`], and
//! produces one outcome type, [`MappingOutcome`]. This is what makes the
//! benchmarks apples-to-apples and what the run-time manager
//! ([`RuntimeManager`](crate::RuntimeManager)) plugs algorithms into.

use crate::claims::{claim_for, reservation_of};
use crate::constraints::MappingConstraints;
use crate::error::MapError;
use crate::mapping::{Mapping, RouteBinding};
use crate::step4::ChannelBuffer;
use crate::trace::MapTrace;
use rtsm_app::ApplicationSpec;
use rtsm_platform::{Platform, PlatformError, PlatformState, PlatformTransaction, TileClaim};
use serde::{Deserialize, Serialize};

/// A feasible spatial mapping with everything needed to report it, compare
/// it against other algorithms' results, and commit it onto a platform —
/// the single outcome type shared by the heuristic and every baseline.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MappingOutcome {
    /// The mapping (process assignments and channel routes).
    pub mapping: Mapping,
    /// Computed tile-side buffers (`B_i`), needed to commit the mapping.
    pub buffers: Vec<ChannelBuffer>,
    /// Total energy per period in picojoules (processing + communication).
    pub energy_pj: u64,
    /// The paper's communication cost (Σ Manhattan hops).
    pub communication_hops: u32,
    /// Whether step 4's dataflow analysis accepted the mapping (always
    /// `true` for outcomes returned via `Ok`; retained for traces).
    pub feasible: bool,
    /// Search effort: algorithm-specific count of evaluated assignments.
    pub evaluated: u64,
    /// Number of refinement attempts used (1 = first try).
    pub attempts: usize,
    /// Achieved source period `(time_ps, iterations)`.
    pub achieved_period: (u64, u64),
    /// Measured latency, when a bound was specified.
    pub latency_ps: Option<u64>,
    /// Full search trace, when the algorithm records one.
    pub trace: Option<MapTrace>,
}

impl MappingOutcome {
    /// Reserves this mapping's resources on `state`: tile claims, buffer
    /// memory, and routed-path bandwidth. Use when actually *starting* the
    /// application; [`MappingOutcome::release`] is the exact inverse.
    ///
    /// # Errors
    ///
    /// [`PlatformError`] if `state` no longer has the resources (another
    /// application claimed them since mapping); partial reservations are
    /// rolled back.
    pub fn commit(
        &self,
        spec: &ApplicationSpec,
        platform: &Platform,
        state: &mut PlatformState,
    ) -> Result<(), PlatformError> {
        let mut tx = PlatformTransaction::begin(platform, state);
        self.stage_commit(spec, &mut tx)?; // early return drops tx: rollback
        tx.commit();
        Ok(())
    }

    /// Stages this mapping's reservations into an open transaction —
    /// the composable form of [`MappingOutcome::commit`] that migration
    /// plans use to combine several releases and commits into one
    /// all-or-nothing unit.
    ///
    /// # Errors
    ///
    /// [`PlatformError`] if a reservation does not fit the transaction's
    /// current state. Reservations staged before the failure stay in the
    /// transaction (aborting it undoes them with everything else).
    pub fn stage_commit(
        &self,
        spec: &ApplicationSpec,
        tx: &mut PlatformTransaction<'_>,
    ) -> Result<(), PlatformError> {
        for (pid, assignment) in self.mapping.assignments() {
            let implementation = &spec.library.impls_for(pid)[assignment.impl_index];
            let claim = claim_for(spec, pid, implementation);
            tx.claim_tile(assignment.tile, &reservation_of(&claim))?;
        }
        for buffer in &self.buffers {
            tx.claim_tile(buffer.tile, &buffer_claim(buffer))?;
        }
        for (_, route) in self.mapping.routes() {
            if let RouteBinding::Path(path) = route {
                tx.allocate_path(path)?;
            }
        }
        Ok(())
    }

    /// Releases everything [`MappingOutcome::commit`] reserved (the
    /// application stopped).
    ///
    /// # Errors
    ///
    /// [`PlatformError`] if the reservations were not present; like
    /// [`MappingOutcome::commit`], partial releases are rolled back, so a
    /// failed release leaves `state` exactly as it was.
    pub fn release(
        &self,
        spec: &ApplicationSpec,
        platform: &Platform,
        state: &mut PlatformState,
    ) -> Result<(), PlatformError> {
        let mut tx = PlatformTransaction::begin(platform, state);
        self.stage_release(spec, &mut tx)?;
        tx.commit();
        Ok(())
    }

    /// Stages the release of this mapping's reservations into an open
    /// transaction — the inverse of [`MappingOutcome::stage_commit`].
    /// Migration plans stage the releases of every app they move *first*,
    /// so re-mapping inside the same transaction can reuse the freed
    /// resources (release-before-claim).
    ///
    /// # Errors
    ///
    /// [`PlatformError`] if a reservation is not present in the
    /// transaction's current state.
    pub fn stage_release(
        &self,
        spec: &ApplicationSpec,
        tx: &mut PlatformTransaction<'_>,
    ) -> Result<(), PlatformError> {
        for (pid, assignment) in self.mapping.assignments() {
            let implementation = &spec.library.impls_for(pid)[assignment.impl_index];
            let claim = claim_for(spec, pid, implementation);
            tx.release_tile(assignment.tile, &reservation_of(&claim))?;
        }
        for buffer in &self.buffers {
            tx.release_tile(buffer.tile, &buffer_claim(buffer))?;
        }
        for (_, route) in self.mapping.routes() {
            if let RouteBinding::Path(path) = route {
                tx.release_path(path)?;
            }
        }
        Ok(())
    }
}

/// The tile-memory claim of one computed channel buffer.
fn buffer_claim(buffer: &ChannelBuffer) -> TileClaim {
    TileClaim {
        slots: 0,
        memory_bytes: buffer.capacity_words * 4,
        cycles_per_second: 0,
        injection: 0,
        ejection: 0,
    }
}

/// A spatial-mapping algorithm: given an application, a platform, and the
/// current occupancy, either produce a feasible [`MappingOutcome`] or
/// explain why none exists.
///
/// Implementors must *not* mutate `base`; starting an application is a
/// separate, explicit step ([`MappingOutcome::commit`], or
/// [`RuntimeManager::start`](crate::RuntimeManager::start) which does both
/// atomically).
///
/// A refusal must be a function of the call's arguments and of state the
/// algorithm changes only inside its own calls: asked the same question
/// again with no call in between, it refuses again, with an equal error.
/// The [`RuntimeManager`](crate::RuntimeManager) relies on it to hand the
/// refusal of a `start` on to the `start_with_reconfiguration` that
/// follows it, and — with the fact that a committable mapping claims one
/// slot per process where its reservation fits — to leave an algorithm
/// unasked about a plan placement that
/// [cannot fit](crate::runtime::Demand::cannot_fit). Every algorithm of the
/// workspace qualifies, [`TemplatedMapper`](crate::TemplatedMapper)
/// included: a refused call touches nothing of its library but the miss
/// counter.
///
/// The required method is the constraint-aware
/// [`map_constrained`](MappingAlgorithm::map_constrained); the familiar
/// [`map`](MappingAlgorithm::map) is a provided wrapper passing
/// [`MappingConstraints::none`], so unconstrained callers and outputs are
/// untouched by the constraint machinery.
pub trait MappingAlgorithm {
    /// Display name for tables and reports.
    fn name(&self) -> &str;

    /// Maps `spec` onto `platform` over occupancy `base`, honouring the
    /// caller-imposed `constraints` (pinned processes, excluded tiles). A
    /// returned mapping always satisfies
    /// [`MappingConstraints::satisfied_by`].
    ///
    /// # Errors
    ///
    /// * [`MapError::NoFeasibleMapping`] when the algorithm's search
    ///   exhausts without a feasible mapping (including when the
    ///   constraints leave no room);
    /// * algorithm-specific variants such as [`MapError::InvalidSpec`] or
    ///   [`MapError::Unmappable`] where applicable.
    fn map_constrained(
        &self,
        spec: &ApplicationSpec,
        platform: &Platform,
        base: &PlatformState,
        constraints: &MappingConstraints,
    ) -> Result<MappingOutcome, MapError>;

    /// Maps `spec` onto `platform` over occupancy `base`, unconstrained —
    /// shorthand for [`map_constrained`](MappingAlgorithm::map_constrained)
    /// with [`MappingConstraints::none`].
    ///
    /// # Errors
    ///
    /// As for [`map_constrained`](MappingAlgorithm::map_constrained).
    fn map(
        &self,
        spec: &ApplicationSpec,
        platform: &Platform,
        base: &PlatformState,
    ) -> Result<MappingOutcome, MapError> {
        self.map_constrained(spec, platform, base, &MappingConstraints::none())
    }
}

impl<A: MappingAlgorithm + ?Sized> MappingAlgorithm for &A {
    fn name(&self) -> &str {
        (**self).name()
    }

    fn map_constrained(
        &self,
        spec: &ApplicationSpec,
        platform: &Platform,
        base: &PlatformState,
        constraints: &MappingConstraints,
    ) -> Result<MappingOutcome, MapError> {
        (**self).map_constrained(spec, platform, base, constraints)
    }
}

impl<A: MappingAlgorithm + ?Sized> MappingAlgorithm for Box<A> {
    fn name(&self) -> &str {
        (**self).name()
    }

    fn map_constrained(
        &self,
        spec: &ApplicationSpec,
        platform: &Platform,
        base: &PlatformState,
        constraints: &MappingConstraints,
    ) -> Result<MappingOutcome, MapError> {
        (**self).map_constrained(spec, platform, base, constraints)
    }
}
