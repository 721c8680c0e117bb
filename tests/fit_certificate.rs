//! The *cannot fit* certificate (`rtsm_core::runtime::Demand`) against
//! every oracle the workspace has: whenever it fires, no registered
//! algorithm — the exhaustive search among them — and no warmed template
//! library finds a mapping; and it fires exactly when a stream channel of
//! the specification starts or ends on a failed tile, or Hall's condition,
//! checked subset by subset over edges this file derives on its own, fails.
//!
//! Random catalog and synthetic specs on the paper platform and on 3×3 and
//! 4×4 meshes — a quarter of them replaced by a pipeline that lacks its
//! stream input, its stream output or both —, random ledgers (any load, NI
//! traffic included, failed tiles and links, and loads up to the
//! boundaries: tiles with every slot taken, memory full to the byte, or
//! 50–100 % of the NI left taken; the A/D and the Sink each failed one time
//! in `ENDPOINT_FAILURE_ONE_IN`) and random constraints (pins, exclusions),
//! all drawn from one shrinkable tape.
//!
//! Hand mutations of `crates/core/src/runtime/fit.rs` this was checked
//! against, each failing the tests named (`a_fired_…` is
//! `a_fired_certificate_is_never_contradicted`, with the case its shrunk
//! tape reports):
//! - the input flag tested against the Sink tile: `a_fired_…` (`pipeline
//!   (true, false)` on the two-slot 3×3 mesh),
//!   `a_failed_endpoint_refuses_before_the_template_library_is_asked` and
//!   the module's `a_failed_stream_endpoint_rules_out_only_…`;
//! - the endpoint rule applied to a specification without the stream
//!   channel: `a_fired_…` (`pipeline (false, false)`, same mesh) and the
//!   same unit test;
//! - the endpoint rule placed after the 64-tile return: only a platform of
//!   65 or more tiles shows it, `beyond_64_tiles_start_refuses_through_…`
//!   and the module's `beyond_64_tiles_a_failed_endpoint_is_still_certain`.
//!
//! Two more make the certificate *miss* refusals, which no algorithm can
//! show; the Hall oracle and a unit test of the module do: capacity read
//! from `compute_slots` instead of the free slots (`a_fired_…` on a
//! 7-process chain, same mesh; `a_tile_hosts_as_many_processes_…`), and
//! `constraints.allows` dropped (`a_fired_…` on a 2-stage pipeline with a
//! tile excluded, same mesh; the pin and exclusion tests). Dropping the
//! health test where the open tiles are collected changes nothing:
//! `fits_tile` refuses a failed tile to every host, as
//! `a_failed_tile_hosts_nothing` checks. One is unsound: a host's
//! reservation charged with the NI traffic of step 1's filter
//! (`claim_for`'s injection and ejection). The Hall oracle sees it
//! (`a_fired_…` on a 3-process chain on a 4×4 mesh; 58 of 6 000 cases),
//! but over those 6 000 cases no algorithm and no template hit
//! contradicted the mutant — the two differ only where communicating
//! processes share a tile and its NI is nearly full — so
//! `a_template_hit_admits_what_the_ni_filter_refuses` builds that case by
//! hand, and fails under the mutant. Letting the first-fit pass in front
//! of the matching seat a process on a tile whose free slots it has
//! already handed out fails `a_fired_…`, both manager streams,
//! `a_switch_releases_…` and eight unit tests; taking the augmenting path
//! out of `Matching::place` fails `a_fired_…` (a pinned 3-process chain,
//! two-slot mesh) and two unit tests.
//!
//! The demand is also where the manager reads each process's reservation
//! when it stages a commit or a release: `reservations_are_the_claims_…`
//! holds it to `reservation_of(claim_for(..))` process by process and
//! implementation by implementation, `every_process_an_algorithm_assigns_…`
//! to what every registered algorithm assigns, and
//! `a_switch_releases_with_the_records_own_demand` to a snapshot replay
//! across switches between specifications that reserve differently (a
//! release with the new specification's demand fails it).
//!
//! The certificate stands in front of every `RuntimeManager` placement, so
//! the last tests drive a manager: one per registered algorithm through a
//! seeded start/stop/switch stream, where every `CannotFit` refusal must be
//! one the algorithm makes too; a templated one through a fail/repair
//! stream, where a failed endpoint refuses before the library is asked;
//! and one on a mesh beyond the masks' 64 tiles, where `start` refuses
//! through the algorithm unless an endpoint is down.

use proptest::prelude::*;
use rtsm::app::{ApplicationSpec, ProcessId};
use rtsm::core::claims::{claim_for, reservation_of};
use rtsm::core::runtime::{AdmissionError, Demand, EvacuationPolicy, FailureEvent, RuntimeManager};
use rtsm::core::{
    CannotFitCause, MapError, Mapping, MappingAlgorithm, MappingConstraints, SpatialMapper,
    TemplatedMapper,
};
use rtsm::platform::paper::paper_platform;
use rtsm::platform::{
    Coord, LinkId, Platform, PlatformBuilder, PlatformState, TileClaim, TileId, TileKind,
};
use rtsm::sim::Catalog;
use rtsm::workloads::mesh_platform;
use rtsm_testkit::{any_instance, any_ledger};
use std::sync::Arc;

/// About 10 s in a debug build.
const CASES: u32 = 300;

/// Each stream endpoint tile fails on one drawn ledger in this many,
/// besides the failures of any tile the ledger draws.
const ENDPOINT_FAILURE_ONE_IN: u32 = 10;

/// A ledger of `platform` ([`any_ledger`]) loaded up to the boundaries
/// `any_ledger` stops short of: on each healthy tile, every free slot taken
/// one time in three, the memory filled to the last byte one time in ten,
/// and on a processing tile 50–100 % of what is left of its network
/// interface taken by routes three times in ten (routes take no slot and
/// are no part of a process's hard reservation); then the stream endpoints
/// may fail.
fn busy_ledger(platform: &Platform, tape: &mut Tape) -> PlatformState {
    let mut state = any_ledger(platform, tape);
    for (tile, spec) in platform.tiles() {
        if state.is_tile_failed(tile) {
            continue;
        }
        let mut tenant = TileClaim {
            slots: 0,
            memory_bytes: 0,
            cycles_per_second: 0,
            injection: 0,
            ejection: 0,
        };
        if tape.draw(3) == 2 {
            tenant.slots = state.free_slots(platform, tile);
        }
        if tape.draw(10) == 9 {
            tenant.memory_bytes = spec.memory_bytes - state.used_memory(tile);
        }
        if spec.kind.is_processing() && tape.draw(10) >= 7 {
            let percent = u64::from(50 + tape.draw(51));
            tenant.injection = state.residual_injection(platform, tile) * percent / 100;
            tenant.ejection = state.residual_ejection(platform, tile) * percent / 100;
        }
        (state.claim_tile(platform, tile, &tenant)).expect("what is left of the tile");
    }
    for endpoint in [platform.stream_input_tile(), platform.stream_output_tile()] {
        if tape.draw(ENDPOINT_FAILURE_ONE_IN) == 0 {
            state.fail_tile(endpoint.expect("every platform here has both endpoints"));
        }
    }
    state
}

/// No constraints half of the time; otherwise up to two pins (to a tile of
/// a kind the process runs on, or to any tile) and up to two exclusions.
fn any_constraints(
    spec: &ApplicationSpec,
    platform: &Platform,
    tape: &mut Tape,
) -> MappingConstraints {
    let mut constraints = MappingConstraints::none();
    if tape.draw(2) == 0 {
        return constraints;
    }
    let n_tiles = platform.n_tiles() as u32;
    let processes: Vec<ProcessId> = spec.graph.stream_processes().map(|(p, _)| p).collect();
    for _ in 0..tape.draw(3) {
        let process = processes[tape.draw(processes.len() as u32) as usize];
        let suitable: Vec<TileId> = spec
            .library
            .impls_for(process)
            .iter()
            .flat_map(|i| platform.tiles_of_kind(i.tile_kind))
            .map(|(tile, _)| tile)
            .collect();
        let tile = if suitable.is_empty() || tape.draw(5) == 4 {
            TileId::from_index(tape.draw(n_tiles) as usize)
        } else {
            suitable[tape.draw(suitable.len() as u32) as usize]
        };
        constraints = constraints.pin(process, tile);
    }
    for _ in 0..tape.draw(3) {
        let tile = TileId::from_index(tape.draw(n_tiles) as usize);
        constraints = constraints.exclude_tile(tile);
    }
    constraints
}

/// Per mapped process, the tiles that could host it — derived here, tile
/// kind by tile kind, from the public pieces a mapper uses.
fn hosts(
    spec: &ApplicationSpec,
    platform: &Platform,
    state: &PlatformState,
    constraints: &MappingConstraints,
) -> Vec<Vec<TileId>> {
    spec.graph
        .stream_processes()
        .map(|(process, _)| {
            let mut tiles = Vec::new();
            for implementation in spec.library.impls_for(process) {
                let reservation = reservation_of(&claim_for(spec, process, implementation));
                for (tile, _) in platform.tiles_of_kind(implementation.tile_kind) {
                    if constraints.allows(process, tile)
                        && state.fits_tile(platform, tile, &reservation)
                        && !tiles.contains(&tile)
                    {
                        tiles.push(tile);
                    }
                }
            }
            tiles
        })
        .collect()
}

/// Hall's condition, subset by subset: every set of processes is hosted by
/// tiles with at least as many free slots between them.
fn hall_holds(hosts: &[Vec<TileId>], platform: &Platform, state: &PlatformState) -> bool {
    (1u32..1 << hosts.len()).all(|subset| {
        let mut tiles: Vec<TileId> = (0..hosts.len())
            .filter(|p| subset >> p & 1 == 1)
            .flat_map(|p| hosts[p].iter().copied())
            .collect();
        tiles.sort_unstable();
        tiles.dedup();
        let slots: u32 = tiles.iter().map(|t| state.free_slots(platform, *t)).sum();
        slots >= subset.count_ones()
    })
}

/// The failed tile a stream channel of `spec` starts or ends on, the stream
/// input's first.
fn failed_endpoint(
    spec: &ApplicationSpec,
    platform: &Platform,
    state: &PlatformState,
) -> Option<TileId> {
    use rtsm::app::Endpoint;
    let down = |end: Endpoint, tile: Option<TileId>| {
        let uses = || (spec.graph.stream_channels()).any(|(_, c)| c.src == end || c.dst == end);
        tile.filter(|&t| state.is_tile_failed(t) && uses())
    };
    down(Endpoint::StreamInput, platform.stream_input_tile())
        .or_else(|| down(Endpoint::StreamOutput, platform.stream_output_tile()))
}

/// What a count of slots per tile kind would have caught: more processes
/// implemented on one kind only than healthy tiles of that kind have free
/// slots.
fn kind_count_fails(spec: &ApplicationSpec, platform: &Platform, state: &PlatformState) -> bool {
    let mut kinds: Vec<TileKind> = platform.tiles().map(|(_, t)| t.kind).collect();
    kinds.sort_unstable();
    kinds.dedup();
    kinds.iter().any(|&kind| {
        let bound = spec
            .graph
            .stream_processes()
            .filter(|(p, _)| {
                spec.library
                    .impls_for(*p)
                    .iter()
                    .all(|i| i.tile_kind == kind)
            })
            .count() as u32;
        let free: u32 = platform
            .tiles_of_kind(kind)
            .filter(|(tile, _)| !state.is_tile_failed(*tile))
            .map(|(tile, _)| state.free_slots(platform, tile))
            .sum();
        bound > free
    })
}

/// A template library that has seen `spec` on the empty platform and on
/// three busier ones.
fn warmed(
    spec: &ApplicationSpec,
    platform: &Platform,
    tape: &mut Tape,
) -> TemplatedMapper<SpatialMapper> {
    let templated = TemplatedMapper::new(SpatialMapper::default());
    let _ = templated.map(spec, platform, &platform.initial_state());
    for _ in 0..3 {
        let _ = templated.map(spec, platform, &busy_ledger(platform, tape));
    }
    templated
}

#[derive(Debug, Default)]
struct Coverage {
    fired_endpoint: u32,
    fired_no_tile: u32,
    fired_kind_count: u32,
    fired_matching_only: u32,
    silent_and_refused: u32,
    silent_and_admitted: u32,
    silent_past_a_failed_endpoint: u32,
    template_hits_checked: u32,
}

#[test]
fn a_fired_certificate_is_never_contradicted() {
    let mut coverage = Coverage::default();
    TestRunner::new(ProptestConfig::with_cases(CASES)).run(|tape| {
        let (platform, spec) = any_instance(tape);
        let state = busy_ledger(&platform, tape);
        let constraints = any_constraints(&spec, &platform, tape);
        let fired = Demand::of(&spec).cannot_fit(&platform, &state, &constraints);
        let case = format!(
            "`{}` ({} processes) on a {}×{} mesh of {} tiles under {constraints:?}",
            spec.name,
            spec.graph.n_processes(),
            platform.width(),
            platform.height(),
            platform.n_tiles(),
        );

        let hosts = hosts(&spec, &platform, &state, &constraints);
        let endpoint_down = failed_endpoint(&spec, &platform, &state).is_some();
        assert_eq!(
            fired,
            endpoint_down || !hall_holds(&hosts, &platform, &state),
            "{case}: the certificate disagrees with Hall's condition and the endpoints"
        );
        let ends = [platform.stream_input_tile(), platform.stream_output_tile()];
        if !fired && ends.into_iter().flatten().any(|t| state.is_tile_failed(t)) {
            coverage.silent_past_a_failed_endpoint += 1;
        }

        let templated = warmed(&spec, &platform, tape);
        let hits_before = templated.stats().hits;
        let by_template = templated.map_constrained(&spec, &platform, &state, &constraints);
        coverage.template_hits_checked += (templated.stats().hits - hits_before) as u32;
        if !fired {
            match by_template {
                Ok(_) => coverage.silent_and_admitted += 1,
                Err(_) => coverage.silent_and_refused += 1,
            }
            return;
        }
        assert!(
            by_template.is_err(),
            "{case}: the warmed template library admitted it"
        );
        for entry in rtsm::exp::ALGORITHMS {
            let outcome = (entry.build)().map_constrained(&spec, &platform, &state, &constraints);
            assert!(
                outcome.is_err(),
                "{case}: `{}` admitted it where the certificate fired",
                entry.name
            );
        }
        if endpoint_down {
            coverage.fired_endpoint += 1;
        } else if hosts.iter().any(Vec::is_empty) {
            coverage.fired_no_tile += 1;
        } else if kind_count_fails(&spec, &platform, &state) {
            coverage.fired_kind_count += 1;
        } else {
            coverage.fired_matching_only += 1;
        }
    });
    println!("fit certificate over {CASES} cases: {coverage:?}");
    let Coverage {
        fired_endpoint,
        fired_no_tile,
        fired_kind_count,
        fired_matching_only,
        silent_and_refused,
        silent_and_admitted,
        silent_past_a_failed_endpoint,
        template_hits_checked,
    } = coverage;
    for (what, count) in [
        ("fired: a process without a tile", fired_no_tile),
        ("fired: a tile-kind count", fired_kind_count),
        ("fired: only the matching", fired_matching_only),
        ("silent and refused", silent_and_refused),
        ("silent and admitted", silent_and_admitted),
        (
            "silent past a failed endpoint",
            silent_past_a_failed_endpoint,
        ),
        ("admitted by a template hit", template_hits_checked),
    ] {
        assert!(count > 0, "no case was `{what}`");
    }
    assert!(
        fired_endpoint >= 45,
        "only {fired_endpoint} cases fired on a failed endpoint"
    );
}

/// Why the certificate reads the hard reservation and not step 1's NI
/// filter: two stages share the one ARM, so the 16 M words/s between them
/// never touch its network interface — but the filter charges them to the
/// first stage, and step 1 refuses where a template hit (which reserves
/// without the filter) admits. No generated case above separates the two;
/// this one does.
#[test]
fn a_template_hit_admits_what_the_ni_filter_refuses() {
    use rtsm::app::{Endpoint, Implementation, ImplementationLibrary, ProcessGraph, QosSpec};
    use rtsm::dataflow::PhaseVec;
    let platform = PlatformBuilder::mesh(3, 1)
        .tile_defaults(200, 2, 128 * 1024, 200_000_000)
        .tile("A/D", TileKind::AdcSource, Coord { x: 0, y: 0 })
        .tile("ARM", TileKind::Arm, Coord { x: 1, y: 0 })
        .tile("Sink", TileKind::Sink, Coord { x: 2, y: 0 })
        .build()
        .unwrap();
    let mut graph = ProcessGraph::new();
    let mut library = ImplementationLibrary::new();
    let stages = [("expand", 16, 64), ("reduce", 64, 16)].map(|(name, tokens_in, tokens_out)| {
        let process = graph.add_process(name);
        library.register(
            process,
            Implementation::simple(
                format!("{name} @ ARM"),
                TileKind::Arm,
                PhaseVec::from_slice(&[8, 60, 8]),
                PhaseVec::from_slice(&[tokens_in, 0, 0]),
                PhaseVec::from_slice(&[0, 0, tokens_out]),
                5_000,
                4 * 1024,
            ),
        );
        Endpoint::Process(process)
    });
    for (from, to, tokens) in [
        (Endpoint::StreamInput, stages[0], 16),
        (stages[0], stages[1], 64),
        (stages[1], Endpoint::StreamOutput, 16),
    ] {
        graph.add_channel(from, to, tokens).unwrap();
    }
    let spec = ApplicationSpec {
        name: "expand-reduce".into(),
        graph,
        qos: QosSpec::with_period(4_000_000),
        library,
    };
    spec.validate().unwrap();

    let templated = TemplatedMapper::new(SpatialMapper::default());
    let learned = templated
        .map(&spec, &platform, &platform.initial_state())
        .expect("both stages share the ARM");
    assert_eq!(learned.communication_hops, 2, "A/D → ARM → Sink");

    // Routes ending on the ARM leave 4 M words/s of injection: what
    // `reduce` sends on, a quarter of what `expand` "injects" into its
    // neighbour on the same tile.
    let arm = platform.tile_by_name("ARM").unwrap();
    let mut state = platform.initial_state();
    let routes = TileClaim {
        slots: 0,
        memory_bytes: 0,
        cycles_per_second: 0,
        injection: state.residual_injection(&platform, arm) - 4_000_000,
        ejection: 0,
    };
    state.claim_tile(&platform, arm, &routes).unwrap();
    let none = MappingConstraints::none();
    assert!(SpatialMapper::default()
        .map(&spec, &platform, &state)
        .is_err());
    let hits = templated.stats().hits;
    assert!(templated.map(&spec, &platform, &state).is_ok());
    assert_eq!(templated.stats().hits, hits + 1);
    assert!(!Demand::of(&spec).cannot_fit(&platform, &state, &none));
}

/// The certificate where it now stands, in front of every `start` and
/// `switch`: a seeded stream of starts, stops and switches drives one
/// manager per registered algorithm, and at every refusal with
/// `MapError::CannotFit` the algorithm itself — asked on the very ledger
/// the manager held it against (for a switch: with the old configuration
/// released) — must refuse too. Returns the certified refusals checked and
/// the refusals the algorithm gave.
fn drive_manager(
    platform: &Platform,
    catalog: &Catalog,
    entry: &rtsm::exp::AlgorithmEntry,
    tape: &mut Tape,
) -> (u32, u32) {
    use rtsm::core::runtime::RuntimeError;
    let none = MappingConstraints::none();
    let mut manager = RuntimeManager::new(platform.clone(), (entry.build)());
    let mut running = Vec::new();
    let (mut certified, mut by_algorithm) = (0, 0);
    for op in 0..120 {
        let spec = catalog.entries()[tape.draw(catalog.len() as u32) as usize]
            .spec
            .clone();
        let roll = tape.draw(100);
        if !running.is_empty() && roll < 30 {
            let handle = running.swap_remove(tape.draw(running.len() as u32) as usize);
            manager.stop(handle).expect("a running handle stops");
            continue;
        }
        // The ledger the placement is held against, and its outcome.
        let (ledger, refusal) = if !running.is_empty() && roll < 45 {
            let handle = running[tape.draw(running.len() as u32) as usize];
            let old = manager.get(handle).expect("running").clone();
            let mut released = manager.state().clone();
            old.outcome
                .release(&old.spec, manager.platform(), &mut released)
                .expect("the manager's ledger holds what it committed");
            match manager.switch(handle, spec.clone()) {
                Ok(_) => continue,
                Err(RuntimeError::Admission(AdmissionError::Rejected(e))) => (released, e),
                Err(other) => panic!("op {op}: switch failed: {other}"),
            }
        } else {
            match manager.start(spec.clone()) {
                Ok(handle) => {
                    running.push(handle);
                    continue;
                }
                Err(AdmissionError::Rejected(e)) => (manager.state().clone(), e),
                Err(other) => panic!("op {op}: start failed: {other}"),
            }
        };
        if !matches!(refusal, MapError::CannotFit { .. }) {
            by_algorithm += 1;
            continue;
        }
        certified += 1;
        let mapped =
            (manager.algorithm()).map_constrained(&spec, manager.platform(), &ledger, &none);
        assert!(
            mapped.is_err(),
            "op {op}: `{}` maps {} where the manager refused it with `{refusal}`",
            entry.name,
            spec.name
        );
    }
    (certified, by_algorithm)
}

#[test]
fn a_manager_never_certifies_a_refusal_its_algorithm_would_admit() {
    let mixed = rtsm::exp::resolve_catalog("mixed", 42).expect("registered catalog");
    let instances = [
        ("mixed mesh", mixed.platform, mixed.catalog),
        ("paper platform", paper_platform(), Catalog::hiperlan2()),
    ];
    let mut runner = TestRunner::default();
    for (name, platform, catalog) in &instances {
        for entry in &rtsm::exp::ALGORITHMS {
            runner.case(|tape| {
                let (certified, _) = drive_manager(platform, catalog, entry, tape);
                assert!(certified > 0, "{name}: `{}` was never refused", entry.name);
            });
        }
    }
}

/// Beyond 64 tiles the slot matching answers "don't know": while the
/// endpoints are up `start` never returns `CannotFit` there, and a full
/// platform still refuses — through the algorithm. A failed endpoint is
/// refused by the certificate all the same.
#[test]
fn beyond_64_tiles_start_refuses_through_the_algorithm() {
    let platform = mesh_platform(
        7,
        9,
        8,
        &[
            (TileKind::Montium, 4),
            (TileKind::Arm, 4),
            (TileKind::Dsp, 2),
        ],
    );
    assert!(platform.n_tiles() > 64);
    let catalog = Catalog::mixed_dsp();
    let mut manager = RuntimeManager::new(platform, SpatialMapper::default());
    let mut refused = 0;
    for round in 0..12 {
        let spec = catalog.entries()[round % catalog.len()].spec.clone();
        match manager.start(spec) {
            Ok(_) => {}
            Err(AdmissionError::Rejected(e)) => {
                assert!(
                    !matches!(e, MapError::CannotFit { .. }),
                    "round {round}: {e}"
                );
                refused += 1;
            }
            Err(other) => panic!("round {round}: {other}"),
        }
    }
    assert!(refused > 0, "ten processing tiles fill up");
    // The endpoint rule needs no masks: with the Sink down, `start` is
    // refused by the certificate on this platform too.
    let sink = manager.platform().stream_output_tile().expect("a Sink");
    manager
        .evacuate(FailureEvent::Tile(sink), &EvacuationPolicy)
        .expect("the ledger holds what the manager committed");
    assert_eq!(
        manager.start(catalog.entries()[0].spec.clone()),
        Err(AdmissionError::Rejected(MapError::CannotFit {
            cause: CannotFitCause::EndpointFailed(sink)
        }))
    );
}

/// The endpoint rule where the fault stream exercises it: a templated
/// manager with reconfiguration on the `mixed` catalog, through a seeded
/// stream of arrivals, departures, mode switches and tile or link failures
/// (mean time to failure 5 000 ticks, repair 3 000 ticks later). Every
/// `start` and `switch` made while a stream endpoint the specification
/// uses is down must be refused with that endpoint as the cause, the
/// template library unasked; the algorithm itself, asked on the ledger the
/// manager held it against, must refuse too.
#[test]
fn a_failed_endpoint_refuses_before_the_template_library_is_asked() {
    use rtsm::core::runtime::{AppHandle, ReconfigurationPolicy, RuntimeError};
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;
    const ARRIVALS: u32 = 1_000;
    const MTTF: f64 = 5_000.0;
    const MTTR: u64 = 3_000;
    #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
    enum Event {
        Arrival,
        Switch(AppHandle),
        Departure(AppHandle),
        Fail,
        Repair(FailureEvent),
    }
    let exponential = |tape: &mut Tape, mean: f64| {
        let uniform = f64::from(tape.draw(1 << 30)) / f64::from(1 << 30);
        (-mean * (1.0 - uniform).ln()) as u64 + 1
    };
    let mixed = rtsm::exp::resolve_catalog("mixed", 42).expect("registered catalog");
    let (platform, catalog) = (mixed.platform, mixed.catalog);
    // A catalog entry drawn as `Catalog::sample` draws it: one unit of the
    // total weight.
    let units: Vec<usize> = (catalog.entries().iter().enumerate())
        .flat_map(|(i, entry)| std::iter::repeat_n(i, entry.weight as usize))
        .collect();
    let weighted = |tape: &mut Tape| units[tape.draw(units.len() as u32) as usize];
    let tiles: Vec<TileId> = platform.tiles().map(|(t, _)| t).collect();
    let links: Vec<LinkId> = platform.links().map(|(l, _)| l).collect();
    let policy = ReconfigurationPolicy::default();
    let (mut arrivals, mut refused_at_a_failed_endpoint) = (0, 0);
    // The refusal `spec` must meet on `state`, if a stream endpoint it uses
    // is down.
    let endpoint_refusal = |spec: &ApplicationSpec, state: &PlatformState| {
        failed_endpoint(spec, &platform, state).map(|tile| MapError::CannotFit {
            cause: CannotFitCause::EndpointFailed(tile),
        })
    };
    TestRunner::default().case(|tape| {
        let mut manager = RuntimeManager::new(
            platform.clone(),
            TemplatedMapper::new(SpatialMapper::default()),
        );
        let mut queue = BinaryHeap::from([Reverse((0, Event::Arrival)), Reverse((0, Event::Fail))]);
        (arrivals, refused_at_a_failed_endpoint) = (0, 0);
        while let Some(Reverse((now, event))) = queue.pop() {
            match event {
                Event::Arrival => {
                    arrivals += 1;
                    if arrivals < ARRIVALS {
                        queue.push(Reverse((now + exponential(tape, 500.0), Event::Arrival)));
                    }
                    let spec = catalog.entries()[weighted(tape)].spec.clone();
                    let expected = endpoint_refusal(&spec, manager.state());
                    let stats = manager.algorithm().stats();
                    let started = manager.start(spec.clone());
                    let Some(cause) = expected else {
                        let handle = match started {
                            Ok(handle) => handle,
                            Err(AdmissionError::Rejected(_)) => {
                                match manager.start_with_reconfiguration(spec, &policy) {
                                    Ok(done) => done.handle,
                                    Err(_) => continue,
                                }
                            }
                            Err(other) => panic!("at {now}: start failed: {other}"),
                        };
                        let hold = exponential(tape, 8_000.0);
                        queue.push(Reverse((now + hold, Event::Departure(handle))));
                        if tape.draw(10) < 3 {
                            queue.push(Reverse((now + hold / 2, Event::Switch(handle))));
                        }
                        continue;
                    };
                    assert_eq!(started, Err(AdmissionError::Rejected(cause)), "at {now}");
                    assert_eq!(manager.algorithm().stats(), stats, "at {now}");
                    let mapped = manager.algorithm().map(&spec, &platform, manager.state());
                    assert!(mapped.is_err(), "at {now}: {} maps", spec.name);
                    assert!(manager.start_with_reconfiguration(spec, &policy).is_err());
                    assert_eq!(manager.algorithm().stats().hits, stats.hits, "at {now}");
                    refused_at_a_failed_endpoint += 1;
                }
                Event::Switch(handle) => {
                    let Some(old) = manager.get(handle).cloned() else {
                        continue; // evicted by an evacuation
                    };
                    let spec = catalog.entries()[weighted(tape)].spec.clone();
                    let mut released = manager.state().clone();
                    old.outcome
                        .release(&old.spec, &platform, &mut released)
                        .expect("the manager's ledger holds what it committed");
                    let expected = endpoint_refusal(&spec, &released);
                    let stats = manager.algorithm().stats();
                    let switched = manager.switch(handle, spec.clone());
                    let Some(cause) = expected else {
                        match switched {
                            Ok(_) | Err(RuntimeError::Admission(AdmissionError::Rejected(_))) => {}
                            Err(other) => panic!("at {now}: switch failed: {other}"),
                        }
                        continue;
                    };
                    assert_eq!(
                        switched,
                        Err(RuntimeError::Admission(AdmissionError::Rejected(cause))),
                        "at {now}"
                    );
                    assert_eq!(manager.algorithm().stats(), stats, "at {now}");
                    let mapped = manager.algorithm().map(&spec, &platform, &released);
                    assert!(mapped.is_err(), "at {now}: {} maps", spec.name);
                }
                Event::Departure(handle) => {
                    if manager.get(handle).is_some() {
                        manager.stop(handle).expect("a running handle stops");
                    }
                }
                Event::Fail => {
                    if arrivals < ARRIVALS {
                        queue.push(Reverse((now + exponential(tape, MTTF), Event::Fail)));
                    }
                    let failure = if tape.draw(2) == 0 {
                        FailureEvent::Link(links[tape.draw(links.len() as u32) as usize])
                    } else {
                        FailureEvent::Tile(tiles[tape.draw(tiles.len() as u32) as usize])
                    };
                    if !manager.is_failed(failure) {
                        manager
                            .evacuate(failure, &EvacuationPolicy)
                            .expect("the ledger holds what the manager committed");
                        queue.push(Reverse((now + MTTR, Event::Repair(failure))));
                    }
                }
                Event::Repair(failure) => {
                    manager.repair(failure);
                }
            }
        }
    });
    println!("{refused_at_a_failed_endpoint} of {arrivals} arrivals met a failed endpoint");
    assert!(
        refused_at_a_failed_endpoint >= 20,
        "only {refused_at_a_failed_endpoint} arrivals met a failed endpoint"
    );
}

/// The stream catalogs whose demands the manager keeps, with their
/// platforms.
fn catalogs() -> Vec<(Platform, Catalog)> {
    ["mixed", "hiperlan2", "synthetic"]
        .into_iter()
        .map(|name| {
            let resolved = rtsm::exp::resolve_catalog(name, 42).expect("registered catalog");
            (resolved.platform, resolved.catalog)
        })
        .collect()
}

/// What `MappingOutcome::stage_commit` claims for each assignment of
/// `mapping`, derived from the specification.
fn derived(spec: &ApplicationSpec, mapping: &Mapping) -> Vec<(TileId, TileClaim)> {
    (mapping.assignments())
        .map(|(p, a)| {
            let implementation = &spec.library.impls_for(p)[a.impl_index];
            (a.tile, reservation_of(&claim_for(spec, p, implementation)))
        })
        .collect()
}

/// Every stream process × implementation of every catalog spec: the
/// demand's reservation is the derived one, alone and with every process
/// of the spec assigned at once (implementations rotated so each process
/// reads a different one). A control process is no host of the demand.
#[test]
fn reservations_are_the_claims_reservations() {
    let tile = TileId::from_index(0);
    for (_, catalog) in catalogs() {
        for entry in catalog.entries() {
            let spec = &entry.spec;
            let demand = Demand::of(spec);
            let widest = (spec.graph.stream_processes())
                .map(|(p, _)| spec.library.impls_for(p).len())
                .max()
                .unwrap();
            for rotation in 0..widest {
                let mut all = Mapping::new();
                for (k, (p, _)) in spec.graph.stream_processes().enumerate() {
                    let n = spec.library.impls_for(p).len();
                    for i in 0..n {
                        let mut one = Mapping::new();
                        one.assign(p, i, tile);
                        let held: Vec<_> = demand.reservations(&one).collect();
                        assert_eq!(held, derived(spec, &one), "{} {p}/{i}", spec.name);
                    }
                    all.assign(p, (k + rotation) % n, TileId::from_index(k));
                }
                let held: Vec<_> = demand.reservations(&all).collect();
                assert_eq!(held, derived(spec, &all), "{}", spec.name);
            }
            for (p, process) in spec.graph.processes() {
                if process.is_control {
                    let mut control = Mapping::new();
                    control.assign(p, 0, tile);
                    let read = std::panic::catch_unwind(|| demand.reservations(&control).count());
                    assert!(read.is_err(), "{}: control process {p} held", spec.name);
                }
            }
        }
    }
}

/// Whatever a registered algorithm maps, on its catalog's idle platform,
/// the demand holds each assigned process and implementation, with the
/// reservation staging derived before.
#[test]
fn every_process_an_algorithm_assigns_is_held_by_the_demand() {
    let mut mapped = 0;
    for (platform, catalog) in catalogs() {
        let idle = platform.initial_state();
        for entry in &rtsm::exp::ALGORITHMS {
            let algorithm = (entry.build)();
            for spec in catalog.entries().iter().map(|e| &e.spec) {
                let Ok(outcome) = algorithm.map(spec, &platform, &idle) else {
                    continue;
                };
                let held: Vec<_> = Demand::of(spec).reservations(&outcome.mapping).collect();
                assert_eq!(held, derived(spec, &outcome.mapping), "{}", entry.name);
                assert_eq!(
                    held.len(),
                    spec.graph.stream_processes().count(),
                    "{} maps every stream process of {}",
                    entry.name,
                    spec.name
                );
                mapped += 1;
            }
        }
    }
    assert!(mapped >= 100, "{mapped} outcomes checked");
}

/// Two pipelines alike in shape whose implementations reserve different
/// memory and cycles: switching one running application between them,
/// back and forth, leaves the ledger equal to committing the records
/// afresh, and stopping everything leaves it idle. Releasing with the new
/// specification's demand instead of the record's fails here.
#[test]
fn a_switch_releases_with_the_records_own_demand() {
    use rtsm::app::{Endpoint, Implementation, ImplementationLibrary, ProcessGraph, QosSpec};
    use rtsm::dataflow::PhaseVec;
    let pipeline = |memory_bytes: u64, wcet: u64| {
        let mut graph = ProcessGraph::new();
        let mut library = ImplementationLibrary::new();
        let mut upstream = Endpoint::StreamInput;
        for i in 0..3 {
            let process = graph.add_process(format!("stage {i}"));
            graph
                .add_channel(upstream, Endpoint::Process(process), 16)
                .unwrap();
            upstream = Endpoint::Process(process);
            library.register(
                process,
                Implementation::simple(
                    format!("stage {i} @ ARM"),
                    TileKind::Arm,
                    PhaseVec::from_slice(&[8, wcet, 8]),
                    PhaseVec::from_slice(&[16, 0, 0]),
                    PhaseVec::from_slice(&[0, 0, 16]),
                    5_000,
                    memory_bytes,
                ),
            );
        }
        graph
            .add_channel(upstream, Endpoint::StreamOutput, 16)
            .unwrap();
        Arc::new(ApplicationSpec {
            name: format!("pipeline {memory_bytes} B"),
            graph,
            qos: QosSpec::with_period(4_000_000),
            library,
        })
    };
    let (light, heavy) = (pipeline(1024, 60), pipeline(8 * 1024, 90));
    let reserved = |spec: &ApplicationSpec| {
        let p = ProcessId::from_index(0);
        reservation_of(&claim_for(spec, p, &spec.library.impls_for(p)[0]))
    };
    let (a, b) = (reserved(&light), reserved(&heavy));
    assert!(a.memory_bytes < b.memory_bytes && a.cycles_per_second < b.cycles_per_second);

    let platform = mesh_platform(7, 4, 4, &[(TileKind::Arm, 8)]);
    let mut manager = RuntimeManager::new(platform.clone(), SpatialMapper::default());
    let replayed = |manager: &RuntimeManager<SpatialMapper>| {
        let mut state = platform.initial_state();
        for (_, app) in manager.running() {
            (app.outcome.commit(&app.spec, &platform, &mut state)).expect("records re-commit");
        }
        state
    };
    let steady = manager.start(light.clone()).unwrap();
    let switched = manager.start(heavy.clone()).unwrap();
    for spec in [&heavy, &light, &heavy, &light] {
        for handle in [switched, steady] {
            manager
                .switch(handle, spec.clone())
                .expect("room to switch");
            assert_eq!(manager.state(), &replayed(&manager));
        }
    }
    manager.stop_all().unwrap();
    assert!(manager.utilization().is_idle());
    assert_eq!(manager.state(), &platform.initial_state());
}
