//! The paper's quality hierarchy for spatial mappings (§3):
//!
//! * **adequate** — every process has an implementation available for the
//!   type of tile it is assigned to;
//! * **adherent** — adequate, and no tile or link is asked for more
//!   resources than it has;
//! * **feasible** — adherent, and the application's QoS constraints are met
//!   (established by step 4's dataflow analysis).
//!
//! `feasible ⊆ adherent ⊆ adequate` by construction; a property test in the
//! workspace checks the implication chain on random mappings.

use crate::claims::{claim_for, reservation_of};
use crate::mapping::{Mapping, RouteBinding};
use rtsm_app::ApplicationSpec;
use rtsm_platform::{Platform, PlatformState};

/// True if every data-stream process is assigned to a tile whose kind has a
/// registered implementation — the paper's *adequate*.
pub fn is_adequate(mapping: &Mapping, spec: &ApplicationSpec, platform: &Platform) -> bool {
    spec.graph.stream_processes().all(|(pid, _)| {
        let Some(assignment) = mapping.assignment(pid) else {
            return false;
        };
        let impls = spec.library.impls_for(pid);
        let Some(implementation) = impls.get(assignment.impl_index) else {
            return false;
        };
        implementation.tile_kind == platform.tile(assignment.tile).kind
    })
}

/// True if the mapping is adequate and all claimed resources fit on top of
/// `base` (the resources other applications already hold) — the paper's
/// *adherent*. Routed channels are checked against link capacities; a
/// mapping whose channels are not yet routed is adherent if its tile claims
/// fit (routing feasibility is then step 3's concern).
pub fn is_adherent(
    mapping: &Mapping,
    spec: &ApplicationSpec,
    platform: &Platform,
    base: &PlatformState,
) -> bool {
    if !is_adequate(mapping, spec, platform) {
        return false;
    }
    let mut state = base.clone();
    // Tile claims must all fit (NI locally sufficient, then reserved by the
    // routed paths below).
    for (pid, assignment) in mapping.assignments() {
        if spec.graph.process(pid).is_control {
            continue;
        }
        let implementation = &spec.library.impls_for(pid)[assignment.impl_index];
        let claim = claim_for(spec, pid, implementation);
        if !state.fits_tile(platform, assignment.tile, &claim) {
            return false;
        }
        if state
            .claim_tile(platform, assignment.tile, &reservation_of(&claim))
            .is_err()
        {
            return false;
        }
    }
    // Routed channels must fit the links they reserve.
    for (_, binding) in mapping.routes() {
        if let RouteBinding::Path(path) = binding {
            if state.allocate_path(platform, path).is_err() {
                return false;
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtsm_app::hiperlan2::{hiperlan2_receiver, Hiperlan2Mode};
    use rtsm_platform::paper::paper_platform;

    fn paper_setup() -> (ApplicationSpec, Platform) {
        (hiperlan2_receiver(Hiperlan2Mode::Qpsk34), paper_platform())
    }

    fn paper_final(spec: &ApplicationSpec, platform: &Platform) -> Mapping {
        let mut m = Mapping::new();
        let p = |n: &str| spec.graph.process_by_name(n).unwrap();
        let t = |n: &str| platform.tile_by_name(n).unwrap();
        m.assign(p("Prefix removal"), 0, t("ARM2"));
        m.assign(p("Freq. off. correction"), 0, t("ARM1"));
        m.assign(p("Inverse OFDM"), 1, t("MONTIUM2"));
        m.assign(p("Remainder"), 1, t("MONTIUM1"));
        m
    }

    #[test]
    fn paper_final_mapping_is_adherent() {
        let (spec, platform) = paper_setup();
        let m = paper_final(&spec, &platform);
        assert!(is_adequate(&m, &spec, &platform));
        assert!(is_adherent(&m, &spec, &platform, &platform.initial_state()));
    }

    #[test]
    fn incomplete_mapping_not_adequate() {
        let (spec, platform) = paper_setup();
        let m = Mapping::new();
        assert!(!is_adequate(&m, &spec, &platform));
    }

    #[test]
    fn wrong_tile_kind_not_adequate() {
        let (spec, platform) = paper_setup();
        let mut m = paper_final(&spec, &platform);
        // Put the ARM implementation of Prefix removal on a MONTIUM tile.
        let pfx = spec.graph.process_by_name("Prefix removal").unwrap();
        m.assign(pfx, 0, platform.tile_by_name("MONTIUM1").unwrap());
        assert!(!is_adequate(&m, &spec, &platform));
    }

    #[test]
    fn double_booked_tile_not_adherent() {
        let (spec, platform) = paper_setup();
        let mut m = paper_final(&spec, &platform);
        // Two processes on MONTIUM1 (1 slot): adequate, but not adherent.
        let iofdm = spec.graph.process_by_name("Inverse OFDM").unwrap();
        m.assign(iofdm, 1, platform.tile_by_name("MONTIUM1").unwrap());
        assert!(is_adequate(&m, &spec, &platform));
        assert!(!is_adherent(
            &m,
            &spec,
            &platform,
            &platform.initial_state()
        ));
    }

    #[test]
    fn occupied_base_state_blocks_adherence() {
        let (spec, platform) = paper_setup();
        let m = paper_final(&spec, &platform);
        let mut base = platform.initial_state();
        // Another application already owns MONTIUM1's slot.
        base.claim_tile(
            &platform,
            platform.tile_by_name("MONTIUM1").unwrap(),
            &rtsm_platform::TileClaim {
                slots: 1,
                memory_bytes: 0,
                cycles_per_second: 0,
                injection: 0,
                ejection: 0,
            },
        )
        .unwrap();
        assert!(!is_adherent(&m, &spec, &platform, &base));
    }

    #[test]
    fn overloaded_route_not_adherent() {
        let (spec, platform) = paper_setup();
        let mut m = paper_final(&spec, &platform);
        // Bind one channel to a path that exceeds link capacity when taken
        // together with a pre-saturated base state.
        let ch = spec.graph.stream_channels().next().unwrap().0;
        let state = platform.initial_state();
        let from = m
            .endpoint_tile(&platform, rtsm_app::Endpoint::StreamInput)
            .unwrap();
        let pfx = spec.graph.process_by_name("Prefix removal").unwrap();
        let to = m.assignment(pfx).unwrap().tile;
        let path = rtsm_platform::route(&platform, &state, from, to, 20_000_000).unwrap();
        m.bind_route(ch, RouteBinding::Path(path.clone()));
        let mut base = platform.initial_state();
        for &l in &path.links {
            base.allocate_link(&platform, l, platform.link(l).capacity)
                .unwrap();
        }
        assert!(!is_adherent(&m, &spec, &platform, &base));
    }
}
