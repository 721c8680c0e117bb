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
//! It also knows one routing fact. A committable mapping either routes a
//! stream channel from the platform's A/D tile (or to its Sink tile), which
//! claims that tile's network interface, or keeps the channel's process on
//! that tile; a failed tile takes neither claim, even at zero demand. So
//! while the endpoint tile of a stream channel the application has is
//! failed, nothing can be committed — whatever the platform's size.
//!
//! The certificate reads slots, memory, cycles, health, the constraints
//! and the two endpoint tiles — not the NI filter of step 1 (a template hit
//! reserves without it) — and proves nothing else about routing, nor
//! anything about buffers or the period: `false` means "don't know". That
//! is what makes it sound for every
//! [`MappingAlgorithm`](crate::MappingAlgorithm) — heuristic, template hit,
//! baseline or exhaustive — and `tests/fit_certificate.rs` holds it against
//! all of them.
//!
//! The [`RuntimeManager`](super::RuntimeManager) asks it in front of every
//! placement it maps ([`Demands`] keeps each specification's [`Demand`]),
//! so it must be cheap where it answers "don't know": a first-fit pass that
//! finds every process a free slot proves that, and only a failed pass pays
//! for the masks and the matching.

use crate::claims::{claim_for, hard_reservation, reservation_of};
use crate::constraints::MappingConstraints;
use crate::error::{CannotFitCause, MapError};
use crate::mapper::check_endpoints;
use crate::mapping::Mapping;
use rtsm_app::{ApplicationSpec, Endpoint, ProcessId};
use rtsm_platform::{Platform, PlatformState, TileClaim, TileId, TileKind};
use std::sync::Arc;

/// The certificate's bit masks hold this many tiles and processes; a larger
/// instance is answered "don't know".
const MASK_BITS: usize = u64::BITS as usize;

/// What one application asks of the tiles, whatever mapping it gets: for
/// every mapped process, the tile kind and hard reservation of each of its
/// implementations, and which stream endpoints it is wired to. Depends on
/// the specification only, so the
/// [`RuntimeManager`](super::RuntimeManager) works it out once per
/// specification and keeps it.
#[derive(Debug, Clone, Default)]
pub struct Demand {
    /// Every implementation of every mapped process (a valid specification
    /// gives each at least one); those of one process are next to each
    /// other.
    hosts: Box<[Host]>,
    /// Whether a stream channel leaves [`Endpoint::StreamInput`].
    streams_in: bool,
    /// Whether a stream channel enters [`Endpoint::StreamOutput`].
    streams_out: bool,
}

// One per specification the manager keeps; a `Vec` and the flags measured
// 0.06 KiB more peak live memory on every benchmark workload.
const _: () = assert!(std::mem::size_of::<Demand>() == 24);

/// One implementation of a process: the kind of tile that hosts it and what
/// it reserves there besides its one compute slot.
#[derive(Debug, Clone, Copy)]
struct Host {
    /// The process's index, narrowed so a host takes 24 bytes.
    process: u32,
    kind: TileKind,
    memory_bytes: u64,
    cycles_per_second: u64,
}

const _: () = assert!(std::mem::size_of::<Host>() <= 24);

impl Host {
    fn process(&self) -> ProcessId {
        ProcessId::from_index(self.process as usize)
    }

    /// What this implementation reserves on its tile:
    /// [`reservation_of`]`(`[`claim_for`]`(..))`.
    fn reservation(&self) -> TileClaim {
        hard_reservation(self.memory_bytes, self.cycles_per_second)
    }

    /// Whether tile `t`, a healthy one with a free slot of the kind class
    /// of `self.kind`, hosts this implementation for `constraints`.
    fn hosted_on(
        &self,
        t: usize,
        platform: &Platform,
        state: &PlatformState,
        constraints: &MappingConstraints,
    ) -> bool {
        let tile = TileId::from_index(t);
        platform.tile(tile).kind == self.kind
            && state.fits_tile(platform, tile, &self.reservation())
            && constraints.allows(self.process(), tile)
    }
}

/// Tile kinds as mask indices: each named kind its own, every
/// [`TileKind::Other`] tag the last one (a tile's exact kind is compared
/// when it is tried).
const KIND_CLASSES: usize = 7;

fn class(kind: TileKind) -> usize {
    match kind {
        TileKind::Arm => 0,
        TileKind::Montium => 1,
        TileKind::Dsp => 2,
        TileKind::Fpga => 3,
        TileKind::AdcSource => 4,
        TileKind::Sink => 5,
        TileKind::Other(_) => 6,
    }
}

/// Each tile set bit by bit, lowest index first.
fn bits(mut mask: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        let t = mask.trailing_zeros() as usize;
        mask &= mask.checked_sub(1)?;
        Some(t)
    })
}

impl Demand {
    /// The demand of `spec`, which must be valid
    /// ([`ApplicationSpec::validate`]).
    pub fn of(spec: &ApplicationSpec) -> Demand {
        let mut hosts = Vec::with_capacity(spec.library.len());
        for (process, _) in spec.graph.stream_processes() {
            for implementation in spec.library.impls_for(process) {
                let reserved = reservation_of(&claim_for(spec, process, implementation));
                debug_assert_eq!(reserved.slots, 1, "a process takes one slot");
                hosts.push(Host {
                    process: process.index() as u32,
                    kind: implementation.tile_kind,
                    memory_bytes: reserved.memory_bytes,
                    cycles_per_second: reserved.cycles_per_second,
                });
            }
        }
        let channels = || spec.graph.stream_channels().map(|(_, c)| c);
        Demand {
            hosts: hosts.into_boxed_slice(),
            streams_in: channels().any(|c| c.src == Endpoint::StreamInput),
            streams_out: channels().any(|c| c.dst == Endpoint::StreamOutput),
        }
    }

    /// The tile and hard reservation of every process `mapping` assigns,
    /// in process-id order: what
    /// [`MappingOutcome::stage_commit`](crate::MappingOutcome::stage_commit)
    /// claims for it, read off the hosts instead of derived from the
    /// specification again.
    ///
    /// # Panics
    ///
    /// If `mapping` assigns a process, or an implementation index, this
    /// demand does not hold. The manager never asks that: it stages only
    /// outcomes the algorithm returned for this demand's specification,
    /// whose demand is the empty one only when the specification is
    /// invalid or needs a stream endpoint the platform lacks — and then
    /// every algorithm refuses it, so there is no outcome to stage — and an
    /// algorithm assigns the stream processes of a valid specification, one
    /// of their implementations each ([`MappingAlgorithm`]'s contract).
    ///
    /// [`MappingAlgorithm`]: crate::MappingAlgorithm
    pub fn reservations<'d>(
        &'d self,
        mapping: &'d Mapping,
    ) -> impl Iterator<Item = (TileId, TileClaim)> + 'd {
        // Hosts run in process order, a process's in implementation order,
        // as do the assignments: each process's hosts start past the last.
        let mut first = 0;
        mapping.assignments().map(move |(process, assignment)| {
            let p = process.index() as u32;
            first += self.hosts[first..].partition_point(|h| h.process < p);
            let host = (self.hosts.get(first + assignment.impl_index))
                .filter(|h| h.process == p)
                .expect("the demand holds every implementation of a mapped process");
            (assignment.tile, host.reservation())
        })
    }

    /// `true` only when **no** mapping of this application can be committed
    /// onto `state` under `constraints`: the tile of a stream endpoint it
    /// uses has failed, some process has no tile at all, or the processes
    /// cannot be assigned to distinct free compute slots (Hall's condition,
    /// decided by augmenting paths). `false` is "don't know" — beyond 64
    /// tiles it is the answer unless an endpoint tile has failed, and
    /// beyond 64 processes unless, besides, one of them has no tile at all.
    pub fn cannot_fit(
        &self,
        platform: &Platform,
        state: &PlatformState,
        constraints: &MappingConstraints,
    ) -> bool {
        self.refusal(platform, state, constraints).is_some()
    }

    /// [`Demand::cannot_fit`] with its reason: the
    /// [`MapError::CannotFit`] a placement ruled out is refused with.
    pub(super) fn refusal(
        &self,
        platform: &Platform,
        state: &PlatformState,
        constraints: &MappingConstraints,
    ) -> Option<MapError> {
        // A stream channel is routed from or to its endpoint's tile, or
        // kept on it with its process; a failed tile takes neither claim.
        let failed = |needed: bool, tile: Option<TileId>| {
            tile.filter(|&t| needed && state.is_tile_failed(t))
        };
        if let Some(tile) = failed(self.streams_in, platform.stream_input_tile())
            .or_else(|| failed(self.streams_out, platform.stream_output_tile()))
        {
            return Some(MapError::CannotFit {
                cause: CannotFitCause::EndpointFailed(tile),
            });
        }
        if platform.n_tiles() > MASK_BITS {
            return None;
        }
        // Only a healthy tile with a free slot hosts anything; on the loaded
        // ledger of a blocked arrival that is a handful of them.
        let mut open = [0u64; KIND_CLASSES];
        let mut free = [0u32; MASK_BITS];
        for (tile, spec) in platform.tiles() {
            let slots = state.free_slots(platform, tile);
            if slots > 0 && !state.is_tile_failed(tile) {
                free[tile.index()] = slots;
                open[class(spec.kind)] |= 1 << tile.index();
            }
        }
        let processes = || self.hosts.chunk_by(|a, b| a.process == b.process);
        // First fit: a free slot for every process in turn is a matching, so
        // the answer is "don't know" whatever Hall's condition would say.
        let mut left = free;
        let first_fit = processes().all(|hosts| {
            let slot = hosts.iter().find_map(|host| {
                bits(open[class(host.kind)])
                    .find(|&t| left[t] > 0 && host.hosted_on(t, platform, state, constraints))
            });
            slot.map(|t| left[t] -= 1).is_some()
        });
        if first_fit {
            return None;
        }
        let mut matching = Matching {
            tiles: [0; MASK_BITS],
            free,
            placed: [0; MASK_BITS],
        };
        let mut n = 0;
        for hosts in processes() {
            let mut tiles = 0u64;
            for host in hosts {
                tiles |= bits(open[class(host.kind)] & !tiles)
                    .filter(|&t| host.hosted_on(t, platform, state, constraints))
                    .fold(0, |mask, t| mask | 1 << t);
            }
            if tiles == 0 {
                return Some(MapError::CannotFit {
                    cause: CannotFitCause::Unhosted(hosts[0].process()),
                });
            }
            if let Some(slot) = matching.tiles.get_mut(n) {
                *slot = tiles;
            }
            n += 1;
        }
        (n <= MASK_BITS && (0..n).any(|p| !matching.place(p, &mut 0))).then_some(
            MapError::CannotFit {
                cause: CannotFitCause::NoMatching,
            },
        )
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

/// Entries the [`Demands`] table holds before it is flushed whole (a
/// deterministic flush, as `step4`'s memo does).
const DEMANDS_CAP: usize = 64;

/// The demands of the specifications the manager placed lately, matched by
/// `Arc` identity: the entry's `Arc` keeps its specification from being
/// mutated (`Arc::get_mut` fails while it is held), so a demand never
/// outlives what it was worked out from.
#[derive(Debug, Clone, Default)]
pub(super) struct Demands(Vec<(Arc<ApplicationSpec>, Demand)>);

impl Demands {
    /// Empties a full table. An entry point calls this once, before its
    /// first [`Demands::position`], so the positions it is handed stay
    /// valid for the whole call.
    pub fn flush_if_full(&mut self) {
        if self.0.len() >= DEMANDS_CAP {
            self.0.clear();
        }
    }

    /// Where `spec`'s demand on `platform` is, worked out if it is new. A
    /// specification that fails validation, or whose stream endpoints the
    /// platform lacks, gets the empty demand, which answers "don't know".
    /// [`rules_out`] refuses the first with its validation error; of the
    /// second, the algorithm is asked and says why it refuses.
    pub fn position(&mut self, spec: &Arc<ApplicationSpec>, platform: &Platform) -> usize {
        if let Some(at) = self
            .0
            .iter()
            .position(|(known, _)| Arc::ptr_eq(known, spec))
        {
            return at;
        }
        let placeable = spec.validate().is_ok() && check_endpoints(spec, platform).is_ok();
        let demand = if placeable {
            Demand::of(spec)
        } else {
            Demand::default()
        };
        self.0.push((spec.clone(), demand));
        self.0.len() - 1
    }

    /// The specification and demand at `at`.
    pub fn get(&self, at: usize) -> (&Arc<ApplicationSpec>, &Demand) {
        let (spec, demand) = &self.0[at];
        (spec, demand)
    }
}

/// [`Demand::refusal`] as [`Plan::stage`](super::plan::Plan::stage) asks
/// it: behind a call, so the inlined staging loop carries one branch and
/// no certificate. The empty demand [`Demands`] gives `spec` when it fails
/// validation refuses it with the validation error, as
/// [`MapError::InvalidSpec`]: no algorithm can map it, so none is asked.
#[inline(never)]
pub(super) fn rules_out(
    demand: &Demand,
    spec: &ApplicationSpec,
    platform: &Platform,
    state: &PlatformState,
    constraints: &MappingConstraints,
) -> Option<MapError> {
    if demand.hosts.is_empty() {
        if let Err(invalid) = spec.validate() {
            return Some(MapError::InvalidSpec(invalid));
        }
    }
    let refusal = demand.refusal(platform, state, constraints)?;
    rtsm_obs::count(rtsm_obs::Counter::PlacementRuledOut, 1);
    Some(refusal)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtsm_app::Implementation;
    use rtsm_platform::{Coord, PlatformBuilder};
    use TileKind::{Arm, Dsp, Montium};

    /// A pipeline with one process per entry of `kinds`, implemented on
    /// each of the entry's tile kinds at `memory_bytes`.
    fn pipeline(kinds: &[&[TileKind]], memory_bytes: u64) -> ApplicationSpec {
        rtsm_testkit::pipeline(kinds, (true, true), memory_bytes)
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

    /// One ARM stage wired to the stream input, the stream output, or both.
    fn stage(input: bool, output: bool) -> ApplicationSpec {
        rtsm_testkit::pipeline(&[&[Arm]], (input, output), 1024)
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
    fn a_failed_stream_endpoint_rules_out_only_what_streams_through_it() {
        let platform = strip(&[Arm], 1);
        let tile = |name: &str| platform.tile_by_name(name).unwrap();
        let (ad, sink) = (tile("A/D"), tile("Sink"));
        let none = MappingConstraints::none();
        let refusal = |input, output, state: &PlatformState| {
            Demand::of(&stage(input, output)).refusal(&platform, state, &none)
        };
        let failed = |tile| {
            Some(MapError::CannotFit {
                cause: CannotFitCause::EndpointFailed(tile),
            })
        };
        let mut state = platform.initial_state();
        assert_eq!(refusal(true, true, &state), None);
        state.fail_tile(ad);
        assert_eq!(refusal(true, true, &state), failed(ad));
        assert_eq!(refusal(true, false, &state), failed(ad));
        assert_eq!(refusal(false, true, &state), None);
        state.repair_tile(ad);
        state.fail_tile(sink);
        assert_eq!(refusal(true, true, &state), failed(sink));
        assert_eq!(refusal(false, true, &state), failed(sink));
        assert_eq!(refusal(true, false, &state), None);
        // The empty demand of an unplaceable specification knows nothing.
        state.fail_tile(ad);
        assert_eq!(Demand::default().refusal(&platform, &state, &none), None);
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

    #[test]
    fn beyond_64_tiles_a_failed_endpoint_is_still_certain() {
        let platform = strip(&[Arm; 63], 1);
        let mut state = platform.initial_state();
        state.fail_tile(platform.stream_output_tile().unwrap());
        assert!(cannot_fit(&pipeline(&[&[Arm]], 1024), &platform, &state));
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
