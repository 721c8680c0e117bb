//! The oracle for the slot-demand skip: a lookup that tries every shape's
//! every candidate, skipping nothing, must be indistinguishable from the
//! real one — same outcome including `evaluated`, same per-entry hit counts
//! (eviction order depends on them) — on random occupancies, failed tiles,
//! exclusions, pins and multi-slot tiles. And a shape is never skipped on a
//! ledger where it fits.

use super::*;
use crate::mapper::{MapperConfig, SpatialMapper};
use proptest::prelude::*;
use rtsm_app::hiperlan2::{hiperlan2_receiver, Hiperlan2Mode};
use rtsm_app::{Endpoint, Implementation, ImplementationLibrary, ProcessGraph, QosSpec};
use rtsm_dataflow::PhaseVec;
use rtsm_platform::PlatformBuilder;
use rtsm_workloads::apps::{dvbt_rx, jpeg_encoder, mp3_decoder, wlan_tx};
use rtsm_workloads::mesh_platform;

/// The candidate loop of `instantiate_shape` with nothing in front of it.
fn try_everywhere(fit: &mut FitCheck<'_>, entry: &ShapeEntry) -> Option<MappingOutcome> {
    let shape = &entry.shape;
    if shape.assignments.is_empty() || !shape.indexes_into(fit.spec) {
        return None;
    }
    let anchors = fit
        .base
        .free_anchor_tiles(fit.platform, shape.assignments[0].kind);
    for quarter_turns in (0..4u8).filter(|k| entry.rotations >> k & 1 == 1) {
        for &anchor in &anchors {
            fit.tried += 1;
            if let Some(outcome) = fit.try_candidate(shape, quarter_turns, anchor) {
                return Some(outcome);
            }
        }
    }
    None
}

impl TemplateLibrary {
    /// [`TemplateLibrary::instantiate`], trying everything.
    fn instantiate_trying_everything(
        &mut self,
        key: u64,
        spec: &ApplicationSpec,
        platform: &Platform,
        base: &PlatformState,
        constraints: &MappingConstraints,
    ) -> Option<MappingOutcome> {
        let shapes = self.specs.get_mut(&key)?;
        let mut fit = FitCheck::new(spec, platform, base, constraints, &mut self.scratch);
        for entry in shapes.iter_mut() {
            if let Some(mut outcome) = try_everywhere(&mut fit, entry) {
                entry.hits = entry.hits.saturating_add(1);
                outcome.evaluated = fit.tried;
                return Some(outcome);
            }
        }
        None
    }

    /// Everything eviction and lookup order depend on.
    fn entries(&self, key: u64) -> Vec<(&MappingShape, u32, u64)> {
        self.specs.get(&key).map_or_else(Vec::new, |shapes| {
            shapes.iter().map(|e| (&e.shape, e.hits, e.seq)).collect()
        })
    }
}

/// The mixed 4×4 mesh with `slots[i]` compute slots on tile `i`.
fn mesh_with_slots(slots: &[u32]) -> Platform {
    let mix = [
        (TileKind::Montium, 4),
        (TileKind::Arm, 4),
        (TileKind::Dsp, 2),
    ];
    let template = mesh_platform(42, 4, 4, &mix);
    let mut builder = PlatformBuilder::mesh(4, 4);
    for ((_, tile), &compute_slots) in template.tiles().zip(slots) {
        builder = builder.tile_custom(rtsm_platform::Tile {
            compute_slots,
            ..tile.clone()
        });
    }
    builder.build().expect("the template layout is valid")
}

/// What the random cases exercised, summed over a run.
#[derive(Debug, Default)]
struct Coverage {
    lookups: u32,
    hits: u32,
    shapes_skipped: u32,
    /// Hits whose `evaluated` includes the credit of a skipped shape.
    hits_past_a_credited_skip: u32,
    evictions: u64,
}

/// The draws of one random history: per tile its compute slots; the shape
/// cap; per step the arriving spec, the load, per tile an occupancy and a
/// health draw, and two limits (excluded tile, pinned tile).
struct Case {
    slots: Vec<u32>,
    cap: usize,
    arrivals: Vec<usize>,
    loads: Vec<u32>,
    occupancy: Vec<u32>,
    health: Vec<u32>,
    limits: Vec<usize>,
}

impl Case {
    const TILES: usize = 16;
    const STEPS: usize = 32;

    fn draw(runner: &mut TestRunner) -> Self {
        let (tiles, steps) = (Case::TILES, Case::STEPS);
        let mut draw = |range: std::ops::Range<u32>, n: usize| {
            Strategy::generate(&collection::vec(range, n), runner.rng())
        };
        let slots = draw(1..3, tiles);
        let loads = draw(0..3, steps);
        let occupancy = draw(0..4, steps * tiles);
        let health = draw(0..10, steps * tiles);
        Case {
            slots,
            loads,
            occupancy,
            health,
            cap: Strategy::generate(&(1usize..5), runner.rng()),
            arrivals: Strategy::generate(&collection::vec(0usize..5, steps), runner.rng()),
            limits: Strategy::generate(
                &collection::vec(0usize..6 * tiles, 2 * steps),
                runner.rng(),
            ),
        }
    }
}

/// One random history through a real library and its twin.
fn twin_case(case: &Case, coverage: &mut Coverage) {
    let Case {
        slots,
        cap,
        arrivals,
        loads,
        occupancy,
        health,
        limits,
    } = case;
    let cap = *cap;
    let platform = mesh_with_slots(slots);
    let n_tiles = platform.n_tiles();
    let specs = [
        wlan_tx(),
        jpeg_encoder(),
        mp3_decoder(),
        dvbt_rx(),
        hiperlan2_receiver(Hiperlan2Mode::Qpsk34),
    ];
    let mapper = SpatialMapper::new(MapperConfig::default().without_capture());
    let (mut real, mut twin) = (TemplateLibrary::new(cap), TemplateLibrary::new(cap));
    for (step, &arrival) in arrivals.iter().enumerate() {
        let spec = &specs[arrival];
        let key = spec.structural_digest();
        let per_tile = |values: &[u32], tile: usize| values[step * n_tiles + tile];

        // A tile is full when its draw is under the step's load, holds one
        // application when it equals it, and fails one time in ten.
        let mut base = platform.initial_state();
        for (id, tile) in platform.tiles() {
            let taken = match per_tile(occupancy, id.index()).cmp(&loads[step]) {
                std::cmp::Ordering::Less => tile.compute_slots,
                std::cmp::Ordering::Equal => 1,
                std::cmp::Ordering::Greater => 0,
            };
            let claim = TileClaim {
                slots: taken,
                memory_bytes: 0,
                cycles_per_second: 0,
                injection: 0,
                ejection: 0,
            };
            base.claim_tile(&platform, id, &claim)
                .expect("within slots");
            if per_tile(health, id.index()) == 0 {
                base.fail_tile(id);
            }
        }
        // Draws past the tile count leave the constraint out.
        let mut constraints = MappingConstraints::none();
        let [excluded, pinned] = [0, 1].map(|i| limits[2 * step + i]);
        if excluded < n_tiles {
            constraints = constraints.exclude_tile(TileId::from_index(excluded));
        }
        if pinned < n_tiles {
            constraints = constraints.pin(ProcessId::from_index(0), TileId::from_index(pinned));
        }

        // A skipped shape fits nowhere, whatever came before it in the list.
        let free = FreeSlots::tally(&platform, &base);
        let mut credited = false;
        for entry in real.specs.get(&key).map_or(&[][..], Vec::as_slice) {
            let anchor_kind = entry.shape.assignments[0].kind;
            let Some(free_anchors) = free.rules_out(&entry.demand, anchor_kind) else {
                continue;
            };
            coverage.shapes_skipped += 1;
            credited |= free_anchors > 0;
            assert_eq!(
                free_anchors as usize,
                base.free_anchor_tiles(&platform, anchor_kind).len()
            );
            let mut scratch = RouteScratch::default();
            let mut fit = FitCheck::new(spec, &platform, &base, &constraints, &mut scratch);
            assert!(
                try_everywhere(&mut fit, entry).is_none(),
                "a shape that fits was skipped (step {step})"
            );
        }

        let found = real.instantiate(key, spec, &platform, &base, &constraints);
        let expected =
            twin.instantiate_trying_everything(key, spec, &platform, &base, &constraints);
        assert_eq!(found, expected, "step {step}");
        coverage.lookups += 1;
        if found.is_some() {
            coverage.hits += 1;
            coverage.hits_past_a_credited_skip += u32::from(credited);
        } else if let Ok(outcome) = mapper.map_constrained(spec, &platform, &base, &constraints) {
            // A miss the wrapped mapper admits is learned, as `TemplatedMapper`
            // does it.
            let shape = MappingShape::canonicalise(&outcome, &platform).expect("assignments");
            assert_eq!(
                real.learn(key, shape.clone()),
                twin.learn(key, shape),
                "step {step}"
            );
        }
        for spec in &specs {
            let key = spec.structural_digest();
            assert_eq!(real.entries(key), twin.entries(key), "step {step}");
        }
    }
    coverage.evictions += real.stats().evictions;
}

#[test]
fn lookups_with_and_without_the_skip_are_indistinguishable() {
    let mut runner = TestRunner::new(ProptestConfig::with_cases(48));
    let mut coverage = Coverage::default();
    for _ in 0..runner.cases() {
        twin_case(&Case::draw(&mut runner), &mut coverage);
    }
    // The cases must reach what the skip could get wrong: hits, skipped
    // shapes, hits counted past a skipped shape's credit and hit-ranked
    // evictions.
    assert!(coverage.hits > 50, "{coverage:?}");
    assert!(coverage.shapes_skipped > 50, "{coverage:?}");
    assert!(coverage.hits_past_a_credited_skip > 0, "{coverage:?}");
    assert!(coverage.evictions > 0, "{coverage:?}");
}

/// Two light stages that only run on an ARM.
fn two_stage_arm_app() -> ApplicationSpec {
    let mut graph = ProcessGraph::new();
    let a = graph.add_process("StageA");
    let b = graph.add_process("StageB");
    let channels = [
        (Endpoint::StreamInput, Endpoint::Process(a)),
        (Endpoint::Process(a), Endpoint::Process(b)),
        (Endpoint::Process(b), Endpoint::StreamOutput),
    ];
    for (src, dst) in channels {
        graph.add_channel(src, dst, 16).unwrap();
    }
    let mut library = ImplementationLibrary::new();
    for (pid, name) in [(a, "StageA"), (b, "StageB")] {
        library.register(
            pid,
            Implementation::simple(
                format!("{name} @ ARM"),
                TileKind::Arm,
                PhaseVec::from_slice(&[8, 60, 8]),
                PhaseVec::from_slice(&[16, 0, 0]),
                PhaseVec::from_slice(&[0, 0, 16]),
                5_000,
                2048,
            ),
        );
    }
    ApplicationSpec {
        name: "shared-tile app".into(),
        graph,
        qos: QosSpec::with_period(4_000_000),
        library,
    }
}

#[test]
fn a_shape_sharing_one_two_slot_tile_is_skipped_only_when_a_slot_is_gone() {
    // One 2-slot ARM hosts both stages: a demand of two ARM slots against
    // one tile with a free slot. Counting tiles instead of slots would
    // skip a shape that fits.
    let platform = PlatformBuilder::mesh(3, 1)
        .tile_defaults(200, 2, 64 * 1024, 200_000_000)
        .tile("ARM", TileKind::Arm, Coord { x: 1, y: 0 })
        .tile("A/D", TileKind::AdcSource, Coord { x: 0, y: 0 })
        .tile("Sink", TileKind::Sink, Coord { x: 2, y: 0 })
        .build()
        .unwrap();
    let spec = two_stage_arm_app();
    let empty = platform.initial_state();
    let outcome = SpatialMapper::default()
        .map(&spec, &platform, &empty)
        .expect("both stages share the ARM");
    let key = spec.structural_digest();
    let mut library = TemplateLibrary::new(DEFAULT_SHAPE_CAP);
    let shape = MappingShape::canonicalise(&outcome, &platform).unwrap();
    assert!(library.learn(key, shape));
    let demand = library.specs[&key][0].demand;
    assert_eq!(demand.0[0], (TileKind::Arm, 2));

    let none = MappingConstraints::none();
    let arm = |slots, tiles| KindFree {
        kind: TileKind::Arm,
        slots,
        tiles,
    };
    assert_eq!(
        FreeSlots::tally(&platform, &empty).of(TileKind::Arm),
        arm(2, 1)
    );
    assert_eq!(
        FreeSlots::tally(&platform, &empty).rules_out(&demand, TileKind::Arm),
        None
    );
    let hit = library
        .instantiate(key, &spec, &platform, &empty, &none)
        .expect("the shape fits the empty platform");
    assert_eq!(hit.evaluated, 1, "first rotation, only anchor");

    // With one of the two slots taken the shape is skipped, and credited
    // with the one candidate (a stacked shape has one distinct rotation,
    // the ARM is still a free anchor) the loop would have tried.
    let mut half = empty.clone();
    let one_slot = TileClaim {
        slots: 1,
        memory_bytes: 0,
        cycles_per_second: 0,
        injection: 0,
        ejection: 0,
    };
    half.claim_tile(&platform, platform.tile_by_name("ARM").unwrap(), &one_slot)
        .unwrap();
    assert_eq!(
        FreeSlots::tally(&platform, &half).rules_out(&demand, TileKind::Arm),
        Some(1)
    );
    let mut scratch = RouteScratch::default();
    let mut fit = FitCheck::new(&spec, &platform, &half, &none, &mut scratch);
    assert!(fit.instantiate_shape(&library.specs[&key][0]).is_none());
    assert_eq!(fit.tried, 1);
    assert!(fit.ledger.is_none(), "a skipped shape copies no ledger");

    // A failed tile has no free slots, whatever its usage says.
    let mut failed = empty.clone();
    failed.fail_tile(platform.tile_by_name("ARM").unwrap());
    assert_eq!(
        FreeSlots::tally(&platform, &failed).of(TileKind::Arm),
        arm(0, 0)
    );
}

#[test]
fn a_platform_with_more_kinds_than_the_tally_holds_rules_nothing_out() {
    let mut builder = PlatformBuilder::mesh(4, 3).tile_defaults(200, 1, 1024, 1_000_000);
    for tag in 0..=FreeSlots::KINDS as u8 {
        let at = Coord {
            x: u16::from(tag % 4),
            y: u16::from(tag / 4),
        };
        builder = builder.tile(format!("t{tag}"), TileKind::Other(tag), at);
    }
    let platform = builder.build().unwrap();
    let free = FreeSlots::tally(&platform, &platform.initial_state());
    assert!(free.overflowed);
    // Even a demand nothing on this platform could meet.
    let demand = SlotDemand([(TileKind::Arm, 200), (TileKind::Arm, 0), (TileKind::Arm, 0)]);
    assert_eq!(free.rules_out(&demand, TileKind::Arm), None);
}

#[test]
fn demand_counts_assignments_per_kind_and_drops_kinds_past_its_room() {
    let assignment = |kind| ShapeAssignment {
        process: ProcessId::from_index(0),
        impl_index: 0,
        dx: 0,
        dy: 0,
        kind,
        clock_mhz: 200,
    };
    let kinds = [
        TileKind::Arm,
        TileKind::Dsp,
        TileKind::Arm,
        TileKind::Montium,
        TileKind::Fpga,
        TileKind::Arm,
    ];
    let shape = MappingShape {
        assignments: kinds.map(assignment).to_vec(),
        routes: Vec::new(),
        buffers: Vec::new(),
        energy_pj: 0,
        achieved_period: (1, 1),
        latency_ps: None,
    };
    assert_eq!(
        SlotDemand::of(&shape).0,
        [
            (TileKind::Arm, 3),
            (TileKind::Dsp, 1),
            (TileKind::Montium, 1)
        ]
    );
}
