//! A sound *cannot fit* certificate: the resource-vector comparison a
//! run-time manager makes before it searches.
//!
//! Whatever algorithm maps an application, a mapping that passes
//! [`MappingOutcome::stage_commit`](crate::MappingOutcome::stage_commit)
//! claims, for every mapped process, one compute slot on a healthy tile the
//! caller's [`MappingConstraints`] allow, of the kind of one of the
//! process's implementations, on which that implementation's *hard
//! reservation* — [`reservation_of`]`(`[`claim_for`]`(..))`: slot, memory,
//! cycles — fits. [`Demand::cannot_fit`] asks whether the processes can be
//! assigned to distinct free slots under exactly those conditions, each
//! reservation judged **on its own** (two reservations sharing a tile's
//! memory are not added up). If they cannot, no committable mapping exists
//! and the algorithm need not be asked.
//!
//! The certificate reads slots, memory, cycles, health and the constraints
//! — not the NI filter of step 1 (a template hit reserves without it) — and
//! proves nothing about routing, buffers or the period: `false` means
//! "don't know". That is what makes it sound for every
//! [`MappingAlgorithm`](crate::MappingAlgorithm) — heuristic, template hit,
//! baseline or exhaustive — and `tests/fit_certificate.rs` holds it against
//! all of them.

use crate::claims::{claim_for, reservation_of};
use crate::constraints::MappingConstraints;
use rtsm_app::{ApplicationSpec, ProcessId};
use rtsm_platform::{Platform, PlatformState, TileClaim, TileId, TileKind};

/// The certificate's bit masks hold this many tiles and processes; a larger
/// instance is answered "don't know".
const MASK_BITS: usize = u64::BITS as usize;

/// What one application asks of the tiles, whatever mapping it gets: for
/// every mapped process, the tile kind and hard reservation of each of its
/// implementations. Depends on the specification only, so the entry points
/// that stage many plans build it once per specification and call.
#[derive(Debug)]
pub struct Demand {
    /// Every implementation of every mapped process; those of one process
    /// are next to each other.
    hosts: Vec<Host>,
    /// Some mapped process has no implementation: nothing can host it.
    starved: bool,
}

/// One implementation of a process: the kind of tile that hosts it and what
/// it reserves there besides its one compute slot.
#[derive(Debug, Clone, Copy)]
struct Host {
    process: ProcessId,
    kind: TileKind,
    memory_bytes: u64,
    cycles_per_second: u64,
}

impl Demand {
    /// The demand of `spec`, which must be valid
    /// ([`ApplicationSpec::validate`]).
    pub fn of(spec: &ApplicationSpec) -> Demand {
        let mut hosts = Vec::with_capacity(spec.library.len());
        let mut starved = false;
        for (process, _) in spec.graph.stream_processes() {
            let implementations = spec.library.impls_for(process);
            starved |= implementations.is_empty();
            for implementation in implementations {
                let reserved = reservation_of(&claim_for(spec, process, implementation));
                debug_assert_eq!(reserved.slots, 1, "a process takes one slot");
                hosts.push(Host {
                    process,
                    kind: implementation.tile_kind,
                    memory_bytes: reserved.memory_bytes,
                    cycles_per_second: reserved.cycles_per_second,
                });
            }
        }
        Demand { hosts, starved }
    }

    /// `true` only when **no** mapping of this application can be committed
    /// onto `state` under `constraints`: some process has no tile at all, or
    /// the processes cannot be assigned to distinct free compute slots
    /// (Hall's condition, decided by augmenting paths). `false` is "don't
    /// know" — always the answer beyond 64 tiles or processes.
    pub fn cannot_fit(
        &self,
        platform: &Platform,
        state: &PlatformState,
        constraints: &MappingConstraints,
    ) -> bool {
        if self.starved {
            return true;
        }
        if platform.n_tiles() > MASK_BITS {
            return false;
        }
        let mut matching = Matching {
            tiles: [0; MASK_BITS],
            free: [0; MASK_BITS],
            placed: [0; MASK_BITS],
        };
        // Only a tile with a free slot hosts anything; on the loaded ledger
        // of a blocked arrival that is a handful of them.
        let mut open = 0u64;
        for (tile, _) in platform.tiles() {
            matching.free[tile.index()] = state.free_slots(platform, tile);
            open |= u64::from(matching.free[tile.index()] > 0) << tile.index();
        }
        let mut processes = 0;
        for hosts in self.hosts.chunk_by(|a, b| a.process == b.process) {
            if processes == MASK_BITS {
                return false;
            }
            let mut tiles = open;
            while tiles != 0 {
                let tile = TileId::from_index(tiles.trailing_zeros() as usize);
                tiles &= tiles - 1;
                let kind = platform.tile(tile).kind;
                let hosted = hosts.iter().any(|host| {
                    let reservation = TileClaim {
                        slots: 1,
                        memory_bytes: host.memory_bytes,
                        cycles_per_second: host.cycles_per_second,
                        injection: 0,
                        ejection: 0,
                    };
                    host.kind == kind && state.fits_tile(platform, tile, &reservation)
                });
                if hosted && constraints.allows(hosts[0].process, tile) {
                    matching.tiles[processes] |= 1 << tile.index();
                }
            }
            if matching.tiles[processes] == 0 {
                return true;
            }
            processes += 1;
        }
        (0..processes).any(|p| !matching.place(p, &mut 0))
    }
}

/// A partial assignment of processes to free compute slots, by index:
/// `tiles[p]` masks the tiles that can host process `p`, `free[t]` counts
/// tile `t`'s unassigned slots and `placed[t]` masks the processes on it.
struct Matching {
    tiles: [u64; MASK_BITS],
    free: [u32; MASK_BITS],
    placed: [u64; MASK_BITS],
}

impl Matching {
    /// Gives process `p` a slot, moving earlier processes along an
    /// augmenting path if it must; `visited` masks the tiles this search
    /// has been through. `false`: none exists, the assignment is unchanged.
    fn place(&mut self, p: usize, visited: &mut u64) -> bool {
        let mut candidates = self.tiles[p] & !*visited;
        while candidates != 0 {
            let t = candidates.trailing_zeros() as usize;
            *visited |= 1 << t;
            if self.free[t] > 0 {
                self.free[t] -= 1;
                self.placed[t] |= 1 << p;
                return true;
            }
            let mut tenants = self.placed[t];
            while tenants != 0 {
                let q = tenants.trailing_zeros() as usize;
                if self.place(q, visited) {
                    self.placed[t] ^= 1 << q | 1 << p;
                    return true;
                }
                tenants &= tenants - 1;
            }
            candidates = self.tiles[p] & !*visited;
        }
        false
    }
}

/// [`Demand::cannot_fit`] as [`Plan::stage`](super::plan::Plan::stage) asks
/// it: behind a call, so the inlined staging loop of `start` carries one
/// branch and no certificate.
#[inline(never)]
pub(super) fn rules_out(
    demand: &Demand,
    platform: &Platform,
    state: &PlatformState,
    constraints: &MappingConstraints,
) -> bool {
    let ruled_out = demand.cannot_fit(platform, state, constraints);
    if ruled_out {
        rtsm_obs::count(rtsm_obs::Counter::PlacementRuledOut, 1);
    }
    ruled_out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtsm_app::{Endpoint, Implementation, ImplementationLibrary, ProcessGraph, QosSpec};
    use rtsm_dataflow::PhaseVec;
    use rtsm_platform::{Coord, PlatformBuilder};
    use TileKind::{Arm, Dsp, Montium};

    /// A pipeline with one process per entry of `kinds`, implemented on
    /// each of the entry's tile kinds at `memory_bytes`.
    fn pipeline(kinds: &[&[TileKind]], memory_bytes: u64) -> ApplicationSpec {
        let mut graph = ProcessGraph::new();
        let mut library = ImplementationLibrary::new();
        let mut upstream = Endpoint::StreamInput;
        for (i, kinds) in kinds.iter().enumerate() {
            let process = graph.add_process(format!("stage {i}"));
            graph
                .add_channel(upstream, Endpoint::Process(process), 16)
                .unwrap();
            upstream = Endpoint::Process(process);
            for &kind in *kinds {
                library.register(
                    process,
                    Implementation::simple(
                        format!("stage {i} @ {kind}"),
                        kind,
                        PhaseVec::from_slice(&[8, 60, 8]),
                        PhaseVec::from_slice(&[16, 0, 0]),
                        PhaseVec::from_slice(&[0, 0, 16]),
                        5_000,
                        memory_bytes,
                    ),
                );
            }
        }
        graph
            .add_channel(upstream, Endpoint::StreamOutput, 16)
            .unwrap();
        let spec = ApplicationSpec {
            name: "pipeline".into(),
            graph,
            qos: QosSpec::with_period(4_000_000),
            library,
        };
        spec.validate().expect("the pipeline is a valid spec");
        spec
    }

    /// A/D, `tiles` in a row (each with `slots` compute slots and 64 KiB),
    /// Sink.
    fn strip(tiles: &[TileKind], slots: u32) -> Platform {
        let mut builder = PlatformBuilder::mesh(tiles.len() as u16 + 2, 1)
            .tile_defaults(200, slots, 64 * 1024, 200_000_000)
            .tile("A/D", TileKind::AdcSource, Coord { x: 0, y: 0 });
        for (i, &kind) in tiles.iter().enumerate() {
            let x = i as u16 + 1;
            builder = builder.tile(format!("T{x}"), kind, Coord { x, y: 0 });
        }
        let x = tiles.len() as u16 + 1;
        builder
            .tile("Sink", TileKind::Sink, Coord { x, y: 0 })
            .build()
            .unwrap()
    }

    fn cannot_fit(spec: &ApplicationSpec, platform: &Platform, state: &PlatformState) -> bool {
        Demand::of(spec).cannot_fit(platform, state, &MappingConstraints::none())
    }

    fn process(i: usize) -> ProcessId {
        ProcessId::from_index(i)
    }

    #[test]
    fn a_process_without_a_tile_rules_the_application_out() {
        let platform = strip(&[Arm, Arm], 1);
        let state = platform.initial_state();
        // No MONTIUM on the strip.
        assert!(cannot_fit(
            &pipeline(&[&[Arm], &[Montium]], 1024),
            &platform,
            &state
        ));
        // An ARM, but none with 65 KiB.
        assert!(cannot_fit(
            &pipeline(&[&[Arm]], 65 * 1024),
            &platform,
            &state
        ));
        assert!(!cannot_fit(
            &pipeline(&[&[Arm], &[Arm]], 1024),
            &platform,
            &state
        ));
    }

    #[test]
    fn more_processes_of_a_kind_than_free_slots_of_that_kind() {
        let platform = strip(&[Arm, Arm, Dsp], 1);
        let state = platform.initial_state();
        let three_arms = pipeline(&[&[Arm], &[Arm], &[Arm]], 1024);
        assert!(cannot_fit(&three_arms, &platform, &state));
        let two_arms_and_a_dsp = pipeline(&[&[Arm], &[Arm], &[Dsp]], 1024);
        assert!(!cannot_fit(&two_arms_and_a_dsp, &platform, &state));
    }

    #[test]
    fn only_the_matching_sees_a_flexible_process_squeezed_out() {
        // Each kind hosts its one dedicated process; the flexible middle
        // stage finds both taken.
        let platform = strip(&[Arm, Dsp], 1);
        let state = platform.initial_state();
        let squeezed = pipeline(&[&[Arm], &[Arm, Dsp], &[Dsp]], 1024);
        assert!(cannot_fit(&squeezed, &platform, &state));
        // And it moves an earlier process out of the way when that helps:
        // stage 0 is given the ARM first, which stage 1 needs.
        let platform = strip(&[Arm, Dsp], 1);
        let augmented = pipeline(&[&[Arm, Dsp], &[Arm]], 1024);
        assert!(!cannot_fit(&augmented, &platform, &state));
    }

    #[test]
    fn a_pin_narrows_a_process_to_its_tile() {
        let platform = strip(&[Arm, Arm], 1);
        let state = platform.initial_state();
        let demand = Demand::of(&pipeline(&[&[Arm], &[Arm]], 1024));
        let first_arm = platform.tile_by_name("T1").unwrap();
        let both_on_one = MappingConstraints::none()
            .pin(process(0), first_arm)
            .pin(process(1), first_arm);
        assert!(demand.cannot_fit(&platform, &state, &both_on_one));
        let one_pinned = MappingConstraints::none().pin(process(1), first_arm);
        assert!(!demand.cannot_fit(&platform, &state, &one_pinned));
        // A pin to a tile of the wrong kind leaves the process nowhere.
        let to_the_sink =
            MappingConstraints::none().pin(process(0), platform.tile_by_name("Sink").unwrap());
        assert!(demand.cannot_fit(&platform, &state, &to_the_sink));
    }

    #[test]
    fn an_excluded_tile_hosts_nothing() {
        let platform = strip(&[Arm, Arm], 1);
        let state = platform.initial_state();
        let demand = Demand::of(&pipeline(&[&[Arm], &[Arm]], 1024));
        let excluded =
            MappingConstraints::none().exclude_tile(platform.tile_by_name("T2").unwrap());
        assert!(demand.cannot_fit(&platform, &state, &excluded));
    }

    #[test]
    fn a_failed_tile_hosts_nothing() {
        let platform = strip(&[Arm, Arm], 1);
        let mut state = platform.initial_state();
        let spec = pipeline(&[&[Arm], &[Arm]], 1024);
        assert!(!cannot_fit(&spec, &platform, &state));
        state.fail_tile(platform.tile_by_name("T2").unwrap());
        assert!(cannot_fit(&spec, &platform, &state));
        state.repair_tile(platform.tile_by_name("T2").unwrap());
        assert!(!cannot_fit(&spec, &platform, &state));
    }

    #[test]
    fn a_tile_hosts_as_many_processes_as_it_has_free_slots() {
        let platform = strip(&[Arm], 2);
        let mut state = platform.initial_state();
        let spec = pipeline(&[&[Arm], &[Arm]], 1024);
        assert!(
            !cannot_fit(&spec, &platform, &state),
            "two slots, two processes"
        );
        let tenant = TileClaim {
            slots: 1,
            memory_bytes: 1024,
            cycles_per_second: 0,
            injection: 0,
            ejection: 0,
        };
        let arm = platform.tile_by_name("T1").unwrap();
        state.claim_tile(&platform, arm, &tenant).unwrap();
        assert!(
            cannot_fit(&spec, &platform, &state),
            "one of the two is taken"
        );
        // Each reservation is judged on its own: 2 × 40 KiB exceed the
        // tile's 64 KiB together, but that is step 1's business.
        state.release_tile(arm, &tenant).unwrap();
        assert!(!cannot_fit(
            &pipeline(&[&[Arm], &[Arm]], 40 * 1024),
            &platform,
            &state
        ));
    }

    #[test]
    fn beyond_64_tiles_the_answer_is_dont_know() {
        let spec = pipeline(&[&[Arm], &[Montium]], 1024);
        let arms_only = |n: usize| strip(&vec![Arm; n], 1);
        let platform = arms_only(62); // 64 tiles with A/D and Sink
        assert!(cannot_fit(&spec, &platform, &platform.initial_state()));
        let platform = arms_only(63);
        assert!(!cannot_fit(&spec, &platform, &platform.initial_state()));
    }

    /// `evacuate`'s unpinned second attempt: once `T1` fails, pinning `B`
    /// to its healthy ARM leaves `A` no ARM (the pinned attempt is ruled
    /// out here), so only moving `B` to the DSP frees `T2` for `A`.
    #[test]
    fn evacuation_unpins_when_the_pinned_attempt_cannot_fit() {
        use crate::runtime::{EvacuationPolicy, FailureEvent, RuntimeManager};
        use crate::SpatialMapper;
        let platform = strip(&[Arm, Arm, Dsp], 1);
        let tile = |name: &str| platform.tile_by_name(name).unwrap();
        let (t1, t2) = (tile("T1"), tile("T2"));
        // `B` runs on an ARM or, dearer, on the DSP: first fit puts `A` on
        // `T1` and `B` on `T2`.
        let mut spec = pipeline(&[&[Arm], &[Arm]], 1024);
        let (a, b) = (process(0), process(1));
        let on_the_dsp = Implementation {
            name: "stage 1 @ Dsp".into(),
            tile_kind: Dsp,
            energy_pj_per_period: 6_000,
            ..spec.library.impls_for(b)[0].clone()
        };
        spec.library.register(b, on_the_dsp);
        let mut m = RuntimeManager::new(platform.clone(), SpatialMapper::default());
        let h = m.start(spec).unwrap();
        let mapping = &m.get(h).unwrap().outcome.mapping;
        assert_eq!(mapping.assignment(a).unwrap().tile, t1);
        assert_eq!(mapping.assignment(b).unwrap().tile, t2);

        let evacuation = m
            .evacuate(FailureEvent::Tile(t1), &EvacuationPolicy)
            .unwrap();
        assert_eq!(evacuation.victims, vec![h]);
        assert!(evacuation.evicted.is_empty());
        assert_eq!(evacuation.evacuated.len(), 1);
        assert_eq!(evacuation.evacuated[0].processes_moved, 2);
        let mapping = &m.get(h).unwrap().outcome.mapping;
        assert_eq!(mapping.assignment(a).unwrap().tile, t2);
        assert_eq!(mapping.assignment(b).unwrap().tile, tile("T3"));
        m.stop_all().unwrap();
        assert!(m.utilization().is_idle());
    }
}
