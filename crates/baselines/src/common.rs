//! Shared machinery of the search-based baselines.
//!
//! All baselines implement the workspace-wide
//! [`MappingAlgorithm`](rtsm_core::MappingAlgorithm) trait and produce the
//! same [`MappingOutcome`] the heuristic does.
//! [`finalize_assignment`] is the shared back-end that makes their scores
//! comparable: identical step-3 routing and identical step-4 dataflow
//! analysis, with buffers populated so the outcome can be committed onto a
//! ledger (e.g. by a [`RuntimeManager`](rtsm_core::RuntimeManager)).

use rtsm_app::ApplicationSpec;
use rtsm_core::claims::{claim_for, reservation_of};
use rtsm_core::constraints::MappingConstraints;
use rtsm_core::error::MapError;
use rtsm_core::step3::route_channels;
use rtsm_core::step4::check_constraints_in;
use rtsm_core::SpecTable;
use rtsm_core::{Mapping, MappingOutcome};
use rtsm_platform::{Platform, PlatformState};

/// Routes and feasibility-checks an assignment-only mapping, producing a
/// scored, committable [`MappingOutcome`]. Returns `None` if the tile
/// claims do not fit `base` (non-adherent input), if routing fails, or if
/// step 4 rejects the mapping.
pub fn finalize_assignment(
    spec: &ApplicationSpec,
    platform: &Platform,
    base: &PlatformState,
    mut mapping: Mapping,
    evaluated: u64,
) -> Option<MappingOutcome> {
    // Routing starts over from the assignments: drop any routes a previous
    // finalize bound (e.g. a branch-and-bound incumbent being re-finalized)
    // — step 3 requires a route-free mapping.
    mapping.clear_routes();
    // Rebuild the working state from the assignments.
    let mut working = base.clone();
    for (pid, assignment) in mapping.assignments() {
        let implementation = spec.library.impls_for(pid).get(assignment.impl_index)?;
        let claim = claim_for(spec, pid, implementation);
        if !working.fits_tile(platform, assignment.tile, &claim) {
            return None;
        }
        working
            .claim_tile(platform, assignment.tile, &reservation_of(&claim))
            .ok()?;
    }
    route_channels(spec, platform, &mut mapping, &mut working).ok()?;
    let step4 = check_constraints_in(&SpecTable::for_validated(spec), platform, &mapping, working);
    if !step4.feasible {
        return None;
    }
    let energy_pj = mapping.energy_pj(spec, platform);
    let communication_hops = mapping.communication_hops(spec, platform);
    Some(MappingOutcome {
        mapping,
        buffers: step4.buffers,
        energy_pj,
        communication_hops,
        feasible: true,
        evaluated,
        attempts: 1,
        achieved_period: step4.achieved_period,
        latency_ps: step4.latency_ps,
        trace: None,
    })
}

/// The standard "search came up empty" error of the baselines, which have
/// no feedback records to attach.
pub fn no_feasible_mapping(evaluated: u64) -> MapError {
    MapError::NoFeasibleMapping {
        attempts: evaluated.min(usize::MAX as u64) as usize,
        last_feedback: Vec::new(),
    }
}

/// All `(impl_index, tile)` options of `process` that fit `working` and
/// satisfy `constraints`: the shared candidate enumeration of the
/// search-based baselines. With [`MappingConstraints::none`] this is the
/// unconstrained enumeration, bit-for-bit.
pub fn viable_options(
    spec: &ApplicationSpec,
    platform: &Platform,
    working: &PlatformState,
    process: rtsm_app::ProcessId,
    constraints: &MappingConstraints,
) -> Vec<(usize, rtsm_platform::TileId)> {
    let mut out = Vec::new();
    for (ix, implementation) in spec.library.impls_for(process).iter().enumerate() {
        let claim = claim_for(spec, process, implementation);
        for (tile, _) in platform.tiles_of_kind(implementation.tile_kind) {
            if constraints.allows(process, tile) && working.fits_tile(platform, tile, &claim) {
                out.push((ix, tile));
            }
        }
    }
    out
}

/// Claims `(impl_index, tile)` for `process` on `working` (reservation
/// part only, NI is routing's concern) — shared by the search baselines.
/// Returns `false` if it does not fit.
pub fn claim_option(
    spec: &ApplicationSpec,
    platform: &Platform,
    working: &mut PlatformState,
    process: rtsm_app::ProcessId,
    impl_index: usize,
    tile: rtsm_platform::TileId,
) -> bool {
    let implementation = &spec.library.impls_for(process)[impl_index];
    let claim = claim_for(spec, process, implementation);
    if !working.fits_tile(platform, tile, &claim) {
        return false;
    }
    working
        .claim_tile(platform, tile, &reservation_of(&claim))
        .expect("fits_tile just checked");
    true
}

/// Releases what [`claim_option`] reserved.
pub fn release_option(
    spec: &ApplicationSpec,
    working: &mut PlatformState,
    process: rtsm_app::ProcessId,
    impl_index: usize,
    tile: rtsm_platform::TileId,
) {
    let implementation = &spec.library.impls_for(process)[impl_index];
    let claim = claim_for(spec, process, implementation);
    working
        .release_tile(tile, &reservation_of(&claim))
        .expect("releasing a claim made by claim_option");
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtsm_app::hiperlan2::{hiperlan2_receiver, Hiperlan2Mode};
    use rtsm_core::{MappingAlgorithm, SpatialMapper};
    use rtsm_platform::paper::paper_platform;

    #[test]
    fn heuristic_through_trait_matches_direct_call() {
        let spec = hiperlan2_receiver(Hiperlan2Mode::Qpsk34);
        let platform = paper_platform();
        let algorithm: &dyn MappingAlgorithm = &SpatialMapper::default();
        let result = algorithm
            .map(&spec, &platform, &platform.initial_state())
            .unwrap();
        assert!(result.feasible);
        assert_eq!(result.communication_hops, 7);
    }

    #[test]
    fn finalize_rejects_nonadherent_input() {
        let spec = hiperlan2_receiver(Hiperlan2Mode::Qpsk34);
        let platform = paper_platform();
        let mut m = Mapping::new();
        let p = |n: &str| spec.graph.process_by_name(n).unwrap();
        let t = |n: &str| platform.tile_by_name(n).unwrap();
        // All four processes on one MONTIUM: does not fit.
        for name in [
            "Prefix removal",
            "Freq. off. correction",
            "Inverse OFDM",
            "Remainder",
        ] {
            m.assign(p(name), 1, t("MONTIUM1"));
        }
        assert!(finalize_assignment(&spec, &platform, &platform.initial_state(), m, 1).is_none());
    }

    #[test]
    fn finalize_accepts_paper_mapping_and_is_committable() {
        let spec = hiperlan2_receiver(Hiperlan2Mode::Qpsk34);
        let platform = paper_platform();
        let mut m = Mapping::new();
        let p = |n: &str| spec.graph.process_by_name(n).unwrap();
        let t = |n: &str| platform.tile_by_name(n).unwrap();
        m.assign(p("Prefix removal"), 0, t("ARM2"));
        m.assign(p("Freq. off. correction"), 0, t("ARM1"));
        m.assign(p("Inverse OFDM"), 1, t("MONTIUM2"));
        m.assign(p("Remainder"), 1, t("MONTIUM1"));
        let r = finalize_assignment(&spec, &platform, &platform.initial_state(), m, 1).unwrap();
        assert!(r.feasible);
        assert_eq!(r.communication_hops, 7);
        // Unlike the pre-unification BaselineResult, the outcome carries
        // buffers and routes, so it can drive a full lifecycle.
        assert!(!r.buffers.is_empty());
        let mut state = platform.initial_state();
        let before = state.clone();
        r.commit(&spec, &platform, &mut state).unwrap();
        assert_ne!(state, before);
        r.release(&spec, &platform, &mut state).unwrap();
        assert_eq!(state, before);
    }
}
