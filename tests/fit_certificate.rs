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
//! traffic included, up to three failed tiles, failed links, and the A/D
//! and the Sink each failed at `ENDPOINT_FAILURE_RATE`) and random
//! constraints (pins, exclusions).
//!
//! Hand mutations of `crates/core/src/runtime/fit.rs` this was checked
//! against, each failing the tests named (a seed is the first case of
//! `a_fired_certificate_is_never_contradicted` to fail):
//! - the input flag tested against the Sink tile: seed 17,
//!   `a_failed_endpoint_refuses_before_the_template_library_is_asked` and
//!   the module's `a_failed_stream_endpoint_rules_out_only_…`;
//! - the endpoint rule applied to a specification without the stream
//!   channel: seed 30 and the same unit test;
//! - the endpoint rule placed after the 64-tile return: only a platform of
//!   65 or more tiles shows it, `beyond_64_tiles_start_refuses_through_…`
//!   and the module's `beyond_64_tiles_a_failed_endpoint_is_still_certain`.
//!
//! Three more make the certificate *miss* refusals, which no algorithm can
//! show; the Hall oracle and a unit test of the module do: capacity read
//! from `compute_slots` instead of the free slots (seed 23;
//! `a_tile_hosts_as_many_processes_…`); tile health ignored (seed 97;
//! `a_failed_tile_hosts_nothing`); `constraints.allows` dropped (seed 0;
//! the pin and exclusion tests). One is unsound: a host's reservation
//! charged with the NI traffic of step 1's filter (`claim_for`'s injection
//! and ejection). The Hall oracle sees it (seed 235), but over 6 000
//! generated cases no algorithm and no template hit contradicted the
//! mutant — the two differ only where communicating processes share a tile
//! and its NI is nearly full — so
//! `a_template_hit_admits_what_the_ni_filter_refuses` builds that case by
//! hand, and fails under the mutant. The last lets the first-fit pass in
//! front of the matching seat a process on a tile whose free slots it has
//! already handed out; `a_fired_certificate_is_…` fails under it.
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

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
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
use std::sync::Arc;

/// About 40 s in a debug build.
const CASES: u64 = 300;

/// A 3×3 mesh whose processing tiles host two processes each (the meshes of
/// `mesh_platform` and the paper platform have one-slot tiles).
fn two_slot_mesh() -> Platform {
    use TileKind::{AdcSource, Arm, Montium, Sink};
    let kinds = [
        AdcSource, Montium, Arm, Arm, Montium, Arm, Montium, Arm, Sink,
    ];
    let mut builder = PlatformBuilder::mesh(3, 3).tile_defaults(200, 2, 128 * 1024, 200_000_000);
    for (i, kind) in kinds.into_iter().enumerate() {
        let position = Coord {
            x: i as u16 % 3,
            y: i as u16 / 3,
        };
        builder = builder.tile(format!("T{i}"), kind, position);
    }
    builder.build().expect("nine tiles on nine routers")
}

/// One platform with a catalog that suits it.
fn draw_instance(rng: &mut StdRng) -> (Platform, Arc<ApplicationSpec>) {
    let (platform, catalog) = match rng.random_range(0u32..5) {
        0 => (paper_platform(), Catalog::hiperlan2()),
        1 => (
            two_slot_mesh(),
            Catalog::synthetic(rng.random_range(0u64..1000), 5),
        ),
        2 => (
            mesh_platform(
                rng.random_range(0u64..64),
                3,
                3,
                &[
                    (TileKind::Montium, 2),
                    (TileKind::Arm, 3),
                    (TileKind::Dsp, 2),
                ],
            ),
            Catalog::synthetic(rng.random_range(0u64..1000), 5),
        ),
        3 => (
            mesh_platform(
                rng.random_range(0u64..64),
                4,
                4,
                &[
                    (TileKind::Montium, 4),
                    (TileKind::Arm, 4),
                    (TileKind::Dsp, 2),
                ],
            ),
            Catalog::mixed_dsp(),
        ),
        _ => (
            mesh_platform(
                rng.random_range(0u64..64),
                4,
                4,
                &[(TileKind::Montium, 6), (TileKind::Arm, 8)],
            ),
            Catalog::synthetic(rng.random_range(0u64..1000), 5),
        ),
    };
    let spec = catalog.entries()[rng.random_range(0usize..catalog.len())]
        .spec
        .clone();
    // Every catalog streams from the A/D to the Sink; a quarter of the
    // cases map a pipeline cut loose from one endpoint or both instead.
    if rng.random_bool(0.25) {
        let spec = open_pipeline(&platform, rng);
        return (platform, Arc::new(spec));
    }
    (platform, spec)
}

/// A two- or three-stage pipeline on the platform's processing kinds that
/// lacks a channel from the stream input, one to the stream output, or
/// both: no failed endpoint rules it out through a channel it does not have.
fn open_pipeline(platform: &Platform, rng: &mut StdRng) -> ApplicationSpec {
    use rtsm::app::{Endpoint, Implementation, ImplementationLibrary, ProcessGraph, QosSpec};
    use rtsm::dataflow::PhaseVec;
    let mut kinds: Vec<TileKind> = platform
        .tiles()
        .map(|(_, t)| t.kind)
        .filter(|kind| kind.is_processing())
        .collect();
    kinds.sort_unstable();
    kinds.dedup();
    let (input, output) =
        [(false, true), (true, false), (false, false)][rng.random_range(0usize..3)];
    let stages = rng.random_range(2usize..4);
    let mut graph = ProcessGraph::new();
    let mut library = ImplementationLibrary::new();
    let mut upstream = input.then_some(Endpoint::StreamInput);
    for i in 0..stages {
        let process = graph.add_process(format!("stage {i}"));
        if let Some(from) = upstream {
            graph
                .add_channel(from, Endpoint::Process(process), 16)
                .unwrap();
        }
        let kind = kinds[rng.random_range(0usize..kinds.len())];
        let sends = i + 1 < stages || output;
        library.register(
            process,
            Implementation {
                name: format!("stage {i} @ {kind}"),
                tile_kind: kind,
                wcet: PhaseVec::from_slice(&[8, 60, 8]),
                inputs: upstream
                    .map(|_| PhaseVec::from_slice(&[16, 0, 0]))
                    .into_iter()
                    .collect(),
                outputs: sends
                    .then(|| PhaseVec::from_slice(&[0, 0, 16]))
                    .into_iter()
                    .collect(),
                energy_pj_per_period: 5_000,
                memory_bytes: 4 * 1024,
            },
        );
        upstream = Some(Endpoint::Process(process));
    }
    if let (true, Some(last)) = (output, upstream) {
        graph.add_channel(last, Endpoint::StreamOutput, 16).unwrap();
    }
    let spec = ApplicationSpec {
        name: format!("open pipeline ({input}, {output})"),
        graph,
        qos: QosSpec::with_period(4_000_000),
        library,
    };
    spec.validate().expect("the open pipeline is a valid spec");
    spec
}

/// How often each stream endpoint tile fails on a drawn ledger, besides
/// the up to three random tile failures that may also hit it.
const ENDPOINT_FAILURE_RATE: f64 = 0.1;

/// A ledger at a random load: every slot of every tile is taken with the
/// load's probability by a tenant of random size (memory, cycles and NI
/// traffic), then up to three tiles and three links fail.
fn draw_ledger(platform: &Platform, rng: &mut StdRng) -> PlatformState {
    let mut state = platform.initial_state();
    let load = f64::from(rng.random_range(0u32..=100)) / 100.0;
    for (tile, spec) in platform.tiles() {
        for _ in 0..spec.compute_slots {
            if !rng.random_bool(load) {
                continue;
            }
            let share = |rng: &mut StdRng, whole: u64| {
                rng.random_range(0..=whole / u64::from(spec.compute_slots))
            };
            let tenant = TileClaim {
                slots: 1,
                memory_bytes: share(rng, spec.memory_bytes),
                cycles_per_second: share(rng, u64::from(spec.clock_mhz) * 1_000_000),
                injection: share(rng, spec.ni_injection),
                ejection: share(rng, spec.ni_ejection),
            };
            state
                .claim_tile(platform, tile, &tenant)
                .expect("the shares of a tile's slots fit it together");
        }
    }
    // Tenants that take no slot: buffers that fill a tile's memory, routes
    // that end on it and take its NI bandwidth (which is no part of a
    // process's hard reservation).
    for (tile, spec) in platform.tiles() {
        let mut squatter = TileClaim {
            slots: 0,
            memory_bytes: 0,
            cycles_per_second: 0,
            injection: 0,
            ejection: 0,
        };
        if rng.random_bool(0.1) {
            squatter.memory_bytes = spec.memory_bytes - state.used_memory(tile);
        }
        if spec.kind.is_processing() && rng.random_bool(0.3) {
            let percent = rng.random_range(50u64..=100);
            squatter.injection = state.residual_injection(platform, tile) * percent / 100;
            squatter.ejection = state.residual_ejection(platform, tile) * percent / 100;
        }
        state
            .claim_tile(platform, tile, &squatter)
            .expect("what is left of a tile fits it");
    }
    for _ in 0..rng.random_range(0u32..4) {
        state.fail_tile(TileId::from_index(
            rng.random_range(0usize..platform.n_tiles()),
        ));
    }
    let links: Vec<LinkId> = platform.links().map(|(link, _)| link).collect();
    for _ in 0..rng.random_range(0u32..4) {
        state.fail_link(links[rng.random_range(0usize..links.len())]);
    }
    for endpoint in [platform.stream_input_tile(), platform.stream_output_tile()] {
        if rng.random_bool(ENDPOINT_FAILURE_RATE) {
            state.fail_tile(endpoint.expect("every platform here has both endpoints"));
        }
    }
    state
}

/// No constraints half of the time; otherwise up to two pins (to a tile of
/// a kind the process runs on, or to any tile) and up to two exclusions.
fn draw_constraints(
    spec: &ApplicationSpec,
    platform: &Platform,
    rng: &mut StdRng,
) -> MappingConstraints {
    let mut constraints = MappingConstraints::none();
    if rng.random_bool(0.5) {
        return constraints;
    }
    let processes: Vec<ProcessId> = spec.graph.stream_processes().map(|(p, _)| p).collect();
    for _ in 0..rng.random_range(0u32..3) {
        let process = processes[rng.random_range(0usize..processes.len())];
        let suitable: Vec<TileId> = spec
            .library
            .impls_for(process)
            .iter()
            .flat_map(|i| platform.tiles_of_kind(i.tile_kind))
            .map(|(tile, _)| tile)
            .collect();
        let tile = if suitable.is_empty() || rng.random_bool(0.2) {
            TileId::from_index(rng.random_range(0usize..platform.n_tiles()))
        } else {
            suitable[rng.random_range(0usize..suitable.len())]
        };
        constraints = constraints.pin(process, tile);
    }
    for _ in 0..rng.random_range(0u32..3) {
        constraints = constraints.exclude_tile(TileId::from_index(
            rng.random_range(0usize..platform.n_tiles()),
        ));
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

/// A template library that has seen `spec` on the empty platform and on a
/// few busier ones.
fn warmed(
    spec: &ApplicationSpec,
    platform: &Platform,
    rng: &mut StdRng,
) -> TemplatedMapper<SpatialMapper> {
    let templated = TemplatedMapper::new(SpatialMapper::default());
    let _ = templated.map(spec, platform, &platform.initial_state());
    for _ in 0..3 {
        let _ = templated.map(spec, platform, &draw_ledger(platform, rng));
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
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let (platform, spec) = draw_instance(&mut rng);
        let state = draw_ledger(&platform, &mut rng);
        let constraints = draw_constraints(&spec, &platform, &mut rng);
        let fired = Demand::of(&spec).cannot_fit(&platform, &state, &constraints);

        let hosts = hosts(&spec, &platform, &state, &constraints);
        let endpoint_down = failed_endpoint(&spec, &platform, &state).is_some();
        assert_eq!(
            fired,
            endpoint_down || !hall_holds(&hosts, &platform, &state),
            "seed {seed}: the certificate disagrees with Hall's condition and the endpoints"
        );
        let ends = [platform.stream_input_tile(), platform.stream_output_tile()];
        if !fired && ends.into_iter().flatten().any(|t| state.is_tile_failed(t)) {
            coverage.silent_past_a_failed_endpoint += 1;
        }

        let templated = warmed(&spec, &platform, &mut rng);
        let hits_before = templated.stats().hits;
        let by_template = templated.map_constrained(&spec, &platform, &state, &constraints);
        coverage.template_hits_checked += (templated.stats().hits - hits_before) as u32;
        if !fired {
            match by_template {
                Ok(_) => coverage.silent_and_admitted += 1,
                Err(_) => coverage.silent_and_refused += 1,
            }
            continue;
        }
        assert!(
            by_template.is_err(),
            "seed {seed}: the warmed template library admitted {}",
            spec.name
        );
        for entry in rtsm::exp::ALGORITHMS {
            let outcome = (entry.build)().map_constrained(&spec, &platform, &state, &constraints);
            assert!(
                outcome.is_err(),
                "seed {seed}: `{}` admitted {} where the certificate fired",
                entry.name,
                spec.name
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
    }
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
    seed: u64,
) -> (u32, u32) {
    use rtsm::core::runtime::RuntimeError;
    let none = MappingConstraints::none();
    let mut manager = RuntimeManager::new(platform.clone(), (entry.build)());
    let mut rng = StdRng::seed_from_u64(seed);
    let mut running = Vec::new();
    let (mut certified, mut by_algorithm) = (0, 0);
    for op in 0..120 {
        let spec = catalog.entries()[rng.random_range(0usize..catalog.len())]
            .spec
            .clone();
        let roll = rng.random_range(0u32..100);
        if !running.is_empty() && roll < 30 {
            let handle = running.swap_remove(rng.random_range(0usize..running.len()));
            manager.stop(handle).expect("a running handle stops");
            continue;
        }
        // The ledger the placement is held against, and its outcome.
        let (ledger, refusal) = if !running.is_empty() && roll < 45 {
            let handle = running[rng.random_range(0usize..running.len())];
            let old = manager.get(handle).expect("running").clone();
            let mut released = manager.state().clone();
            old.outcome
                .release(&old.spec, manager.platform(), &mut released)
                .expect("the manager's ledger holds what it committed");
            match manager.switch(handle, spec.clone()) {
                Ok(_) => continue,
                Err(RuntimeError::Admission(AdmissionError::Rejected(e))) => (released, e),
                Err(other) => panic!("seed {seed} op {op}: switch failed: {other}"),
            }
        } else {
            match manager.start(spec.clone()) {
                Ok(handle) => {
                    running.push(handle);
                    continue;
                }
                Err(AdmissionError::Rejected(e)) => (manager.state().clone(), e),
                Err(other) => panic!("seed {seed} op {op}: start failed: {other}"),
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
            "seed {seed} op {op}: `{}` maps {} where the manager refused it with `{refusal}`",
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
    for (name, platform, catalog) in &instances {
        for (seed, entry) in rtsm::exp::ALGORITHMS.iter().enumerate() {
            let (certified, _) = drive_manager(platform, catalog, entry, seed as u64);
            assert!(certified > 0, "{name}: `{}` was never refused", entry.name);
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
    let exponential =
        |rng: &mut StdRng, mean: f64| (-mean * (1.0 - rng.random::<f64>()).ln()) as u64 + 1;
    let mixed = rtsm::exp::resolve_catalog("mixed", 42).expect("registered catalog");
    let (platform, catalog) = (mixed.platform, mixed.catalog);
    let tiles: Vec<TileId> = platform.tiles().map(|(t, _)| t).collect();
    let links: Vec<LinkId> = platform.links().map(|(l, _)| l).collect();
    let policy = ReconfigurationPolicy::default();
    let mut manager = RuntimeManager::new(
        platform.clone(),
        TemplatedMapper::new(SpatialMapper::default()),
    );
    let mut rng = StdRng::seed_from_u64(2008);
    let mut queue = BinaryHeap::from([Reverse((0, Event::Arrival)), Reverse((0, Event::Fail))]);
    let (mut arrivals, mut refused_at_a_failed_endpoint) = (0, 0);
    // The refusal `spec` must meet on `state`, if a stream endpoint it uses
    // is down.
    let endpoint_refusal = |spec: &ApplicationSpec, state: &PlatformState| {
        failed_endpoint(spec, &platform, state).map(|tile| MapError::CannotFit {
            cause: CannotFitCause::EndpointFailed(tile),
        })
    };
    while let Some(Reverse((now, event))) = queue.pop() {
        match event {
            Event::Arrival => {
                arrivals += 1;
                if arrivals < ARRIVALS {
                    queue.push(Reverse((
                        now + exponential(&mut rng, 500.0),
                        Event::Arrival,
                    )));
                }
                let spec = catalog.entries()[catalog.sample(&mut rng)].spec.clone();
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
                    let hold = exponential(&mut rng, 8_000.0);
                    queue.push(Reverse((now + hold, Event::Departure(handle))));
                    if rng.random_bool(0.3) {
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
                let spec = catalog.entries()[catalog.sample(&mut rng)].spec.clone();
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
                    queue.push(Reverse((now + exponential(&mut rng, MTTF), Event::Fail)));
                }
                let failure = if rng.random_bool(0.5) {
                    FailureEvent::Link(links[rng.random_range(0..links.len())])
                } else {
                    FailureEvent::Tile(tiles[rng.random_range(0..tiles.len())])
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
