//! The instances the workspace's random tests share, each drawn from a
//! recorded [`Tape`] so that a failing case shrinks: ledgers of any
//! platform, small platforms with specifications that suit them, and
//! pipelines cut loose from a stream endpoint; and the one
//! hand-written [`pipeline`] tests build specifications from. The named
//! catalogs themselves are [`rtsm_workloads::CATALOG_WORLDS`].
//!
//! Choice 0 is the simplest one: the smallest platform, the shortest
//! pipeline, an unloaded tile. The ledger's failure draws
//! are the exception: they keep the template twin's cases, where 0 fails
//! the tile or link.

#![forbid(unsafe_code)]

use proptest::Tape;
use rtsm_app::{ApplicationSpec, Endpoint, Implementation, ImplementationLibrary};
use rtsm_app::{ProcessGraph, QosSpec};
use rtsm_dataflow::PhaseVec;
use rtsm_platform::{Coord, Platform, PlatformBuilder, PlatformState, TileClaim, TileKind};
use rtsm_workloads::catalogs::synthetic_chains;
use rtsm_workloads::{catalog_world, mesh_platform};
use std::sync::Arc;

/// A ledger of `platform`: under a load of 0–3 quarters, that share of its
/// tiles have some of their slots and up to three quarters of their memory,
/// cycles and network interfaces taken, and that share of its links up to
/// three quarters of their capacity; one tile in twenty and one link in
/// thirty fail.
pub fn any_ledger(platform: &Platform, tape: &mut Tape) -> PlatformState {
    let mut ledger = platform.initial_state();
    let load = tape.draw(4);
    for (id, tile) in platform.tiles() {
        let loaded = u64::from(tape.draw(4) < load);
        let slots = tape.draw(tile.compute_slots + 1) * loaded as u32;
        let mut quarters = |whole: u64| whole * u64::from(tape.draw(4)) * loaded / 4;
        let claim = TileClaim {
            slots,
            memory_bytes: quarters(tile.memory_bytes),
            cycles_per_second: quarters(u64::from(tile.clock_mhz) * 1_000_000),
            injection: quarters(tile.ni_injection),
            ejection: quarters(tile.ni_ejection),
        };
        ledger
            .claim_tile(platform, id, &claim)
            .expect("within the tile");
        if tape.draw(20) == 0 {
            ledger.fail_tile(id);
        }
    }
    let links: Vec<_> = platform.links().map(|(id, l)| (id, l.capacity)).collect();
    for (id, capacity) in links {
        if tape.draw(4) < load {
            let taken = capacity * u64::from(tape.draw(4)) / 4;
            ledger
                .allocate_link(platform, id, taken)
                .expect("within the link");
        }
        if tape.draw(30) == 0 {
            ledger.fail_link(id);
        }
    }
    ledger
}

/// A 3×3 mesh whose processing tiles host two processes each (the meshes of
/// `mesh_platform` and the paper platform have one-slot tiles).
pub fn two_slot_mesh() -> Platform {
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

/// A platform and a specification that suits it, the smallest first: the
/// two-slot 3×3 mesh, a seeded 3×3 mesh and a seeded 4×4 mesh with seeded
/// synthetic chains, the `mixed` catalog and the `hiperlan2` one. A quarter
/// of the cases map an [`open_pipeline`] instead.
pub fn any_instance(tape: &mut Tape) -> (Platform, Arc<ApplicationSpec>) {
    let mut seed = |n| u64::from(tape.draw(n));
    let (platform, specs) = match seed(5) {
        0 => (two_slot_mesh(), synthetic_chains(seed(1000), 5)),
        1 => {
            let mix = [
                (TileKind::Montium, 2),
                (TileKind::Arm, 3),
                (TileKind::Dsp, 2),
            ];
            (
                mesh_platform(seed(64), 3, 3, &mix),
                synthetic_chains(seed(1000), 5),
            )
        }
        2 => {
            let mix = [(TileKind::Montium, 6), (TileKind::Arm, 8)];
            (
                mesh_platform(seed(64), 4, 4, &mix),
                synthetic_chains(seed(1000), 5),
            )
        }
        3 => catalog_world("mixed")
            .expect("registered")
            .instance(seed(64)),
        _ => catalog_world("hiperlan2").expect("registered").instance(0),
    };
    // Every catalog streams from the A/D to the Sink.
    if tape.draw(4) == 0 {
        let spec = open_pipeline(&platform, tape);
        return (platform, Arc::new(spec));
    }
    let spec = specs[tape.draw(specs.len() as u32) as usize].clone();
    (platform, Arc::new(spec))
}

/// A two- or three-stage [`pipeline`] on the platform's processing kinds
/// that lacks a channel from the stream input, one to the stream output,
/// or both: no failed endpoint rules it out through a channel it does not
/// have.
pub fn open_pipeline(platform: &Platform, tape: &mut Tape) -> ApplicationSpec {
    let mut kinds: Vec<TileKind> = platform
        .tiles()
        .map(|(_, t)| t.kind)
        .filter(|kind| kind.is_processing())
        .collect();
    kinds.sort_unstable();
    kinds.dedup();
    let ends = [(false, true), (true, false), (false, false)][tape.draw(3) as usize];
    let stages: Vec<[TileKind; 1]> = (0..2 + tape.draw(2))
        .map(|_| [kinds[tape.draw(kinds.len() as u32) as usize]])
        .collect();
    let stages: Vec<&[TileKind]> = stages.iter().map(|kind| &kind[..]).collect();
    pipeline(&stages, ends, 4 * 1024)
}

/// A pipeline of one process per entry of `stages`, implemented on each of
/// the entry's tile kinds (⟨8, 60, 8⟩ cycles, 16 tokens in and out, 5 nJ
/// and `memory_bytes` per 4 µs period), fed by the stream input and
/// feeding the stream output as `(input, output)` says.
pub fn pipeline(
    stages: &[&[TileKind]],
    (input, output): (bool, bool),
    memory_bytes: u64,
) -> ApplicationSpec {
    let mut graph = ProcessGraph::new();
    let mut library = ImplementationLibrary::new();
    let mut upstream = input.then_some(Endpoint::StreamInput);
    for (i, kinds) in stages.iter().enumerate() {
        let process = graph.add_process(format!("stage {i}"));
        if let Some(from) = upstream {
            graph
                .add_channel(from, Endpoint::Process(process), 16)
                .unwrap();
        }
        let sends = i + 1 < stages.len() || output;
        for &kind in *kinds {
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
                    memory_bytes,
                },
            );
        }
        upstream = Some(Endpoint::Process(process));
    }
    if let (true, Some(last)) = (output, upstream) {
        graph.add_channel(last, Endpoint::StreamOutput, 16).unwrap();
    }
    let spec = ApplicationSpec {
        name: format!("pipeline ({input}, {output})"),
        graph,
        qos: QosSpec::with_period(4_000_000),
        library,
    };
    spec.validate().expect("a pipeline is a valid spec");
    spec
}
