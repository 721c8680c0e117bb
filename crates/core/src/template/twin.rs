//! The oracle for compiled shapes: the lookup as it was written before a
//! shape carried its claims and channel-end slots — a `Mapping` built per
//! candidate, each process's reservation re-derived with [`claim_for`], and
//! each channel end found with [`Mapping::endpoint_tile`] — must be
//! indistinguishable from [`TemplateLibrary::instantiate`]: the same
//! outcome (mapping, buffers, `evaluated`, `communication_hops`) and the
//! same per-shape hit counts. The shapes are every shape the four-step
//! mapper gives the mixed catalog on the mixed 4×4 mesh and every
//! HIPERLAN/2 mode on the paper platform, on empty and randomly loaded
//! ledgers; the lookups run on random ledgers with partial load, failed
//! tiles, failed links, excluded tiles and pins.
//!
//! Mutations tried by hand against this file, each caught by
//! `compiled_shapes_make_the_reference_lookups_decisions`: resolving a
//! channel end to its `src` slot where the `dst` slot belongs; taking the
//! stream output tile for the stream input; staging a reservation without
//! its cycles; recording the first assignment's claim for every process;
//! not refreshing the scratch ledger after a misfit that staged something
//! (also caught by
//! `template::tests::evaluated_counts_every_candidate_of_the_shapes_before_a_hit`).

use super::*;
use crate::claims::claim_for;
use crate::mapper::SpatialMapper;
use proptest::prelude::*;
use proptest::test_runner::TestRunner;
use rtsm_app::hiperlan2::{hiperlan2_receiver, Hiperlan2Mode};
use rtsm_platform::paper::paper_platform;
use rtsm_platform::routing::route;
use rtsm_workloads::apps::{dvbt_rx, jpeg_encoder, mp3_decoder, wlan_tx};
use rtsm_workloads::mesh_platform;

/// The per-candidate lookup over `entries`, counting hits into `hits` (one
/// per entry) the way the library counts them.
fn reference_lookup(
    entries: &[ShapeEntry],
    hits: &mut [u32],
    spec: &ApplicationSpec,
    platform: &Platform,
    base: &PlatformState,
    constraints: &MappingConstraints,
) -> Option<MappingOutcome> {
    let mut tried = 0u64;
    for (entry, hits) in entries.iter().zip(hits) {
        let shape = &entry.shape;
        if shape.assignments.is_empty() || !shape.indexes_into(spec) {
            continue;
        }
        let anchors = base.free_anchor_tiles(platform, shape.assignments[0].kind);
        for quarter_turns in (0..4u8).filter(|k| entry.rotations >> k & 1 == 1) {
            for &anchor in &anchors {
                tried += 1;
                let candidate = reference_candidate(
                    shape,
                    quarter_turns,
                    anchor,
                    spec,
                    platform,
                    base,
                    constraints,
                );
                if let Some(mut outcome) = candidate {
                    *hits = hits.saturating_add(1);
                    outcome.evaluated = tried;
                    return Some(outcome);
                }
            }
        }
    }
    None
}

/// One candidate, checked on a copy of `base` of its own.
fn reference_candidate(
    shape: &MappingShape,
    quarter_turns: u8,
    anchor: TileId,
    spec: &ApplicationSpec,
    platform: &Platform,
    base: &PlatformState,
    constraints: &MappingConstraints,
) -> Option<MappingOutcome> {
    let anchor_pos = platform.tile(anchor).position;
    let mut mapping = Mapping::new();
    for sa in &shape.assignments {
        let (dx, dy) = rotate(quarter_turns, sa.offset());
        let x = i32::from(anchor_pos.x) + dx;
        let y = i32::from(anchor_pos.y) + dy;
        if x < 0 || y < 0 || x >= i32::from(platform.width()) || y >= i32::from(platform.height()) {
            return None;
        }
        let tid = platform.tile_at(Coord {
            x: x as u16,
            y: y as u16,
        })?;
        let tile = platform.tile(tid);
        if tile.kind != sa.kind
            || tile.clock_mhz != sa.clock_mhz
            || base.is_tile_failed(tid)
            || !constraints.allows(sa.process(), tid)
        {
            return None;
        }
        mapping.assign(sa.process(), usize::from(sa.impl_index), tid);
    }

    let mut ledger = base.clone();
    for sa in &shape.assignments {
        let tile = mapping
            .assignment(sa.process())
            .expect("assigned above")
            .tile;
        let implementation = &spec.library.impls_for(sa.process())[usize::from(sa.impl_index)];
        let claim = reservation_of(&claim_for(spec, sa.process(), implementation));
        ledger.claim_tile(platform, tile, &claim).ok()?;
    }
    for sr in &shape.routes {
        let channel = channel_id(sr.channel);
        let ch = spec.graph.channel(channel);
        let from = mapping.endpoint_tile(platform, ch.src)?;
        let to = mapping.endpoint_tile(platform, ch.dst)?;
        let same_tile = sr.router_count == 0;
        if from == to {
            if !same_tile {
                return None;
            }
            mapping.bind_route(channel, RouteBinding::SameTile);
            continue;
        }
        if same_tile {
            return None;
        }
        let path = route(platform, &ledger, from, to, sr.demand).ok()?;
        if path.router_count() != sr.router_count {
            return None;
        }
        ledger.allocate_path(platform, &path).ok()?;
        mapping.bind_route(channel, RouteBinding::Path(path));
    }
    let mut buffers = Vec::new();
    for sb in &shape.buffers {
        let channel = channel_id(sb.channel);
        let tile = mapping.endpoint_tile(platform, spec.graph.channel(channel).dst)?;
        let claim = TileClaim {
            slots: 0,
            memory_bytes: sb.capacity_words * 4,
            cycles_per_second: 0,
            injection: 0,
            ejection: 0,
        };
        ledger.claim_tile(platform, tile, &claim).ok()?;
        buffers.push(ChannelBuffer {
            channel,
            capacity_words: sb.capacity_words,
            tile,
        });
    }

    let communication_hops = mapping.communication_hops(spec, platform);
    Some(MappingOutcome {
        mapping,
        buffers,
        energy_pj: shape.energy_pj,
        communication_hops,
        feasible: true,
        evaluated: 0,
        attempts: 1,
        achieved_period: shape.achieved_period,
        latency_ps: shape.latency_ps,
        trace: None,
    })
}

/// HIPERLAN/2 in every mode on the paper platform, and the mixed catalog
/// on the mixed 4×4 mesh (platform seed 42, the repo-wide default).
fn worlds() -> Vec<(Platform, Vec<ApplicationSpec>)> {
    let mixed_mix = [
        (TileKind::Montium, 4),
        (TileKind::Arm, 4),
        (TileKind::Dsp, 2),
    ];
    vec![
        (
            paper_platform(),
            Hiperlan2Mode::ALL
                .iter()
                .map(|&mode| hiperlan2_receiver(mode))
                .collect(),
        ),
        (
            mesh_platform(42, 4, 4, &mixed_mix),
            vec![
                wlan_tx(),
                jpeg_encoder(),
                mp3_decoder(),
                dvbt_rx(),
                hiperlan2_receiver(Hiperlan2Mode::Qpsk34),
            ],
        ),
    ]
}

/// A random ledger of `platform`: under a load of 0–3 quarters, that share
/// of its tiles have some of their slots and up to three quarters of their
/// memory, cycles and network interfaces taken, and that share of its
/// links up to three quarters of their capacity; one tile in twenty and one
/// link in thirty fail.
fn random_ledger(platform: &Platform, draw: &mut impl FnMut(u32) -> u32) -> PlatformState {
    let mut ledger = platform.initial_state();
    let load = draw(4);
    for (id, tile) in platform.tiles() {
        let loaded = u64::from(draw(4) < load);
        let quarters = |whole: u64, n: u32| whole * u64::from(n) * loaded / 4;
        let claim = TileClaim {
            slots: draw(tile.compute_slots + 1) * loaded as u32,
            memory_bytes: quarters(tile.memory_bytes, draw(4)),
            cycles_per_second: quarters(u64::from(tile.clock_mhz) * 1_000_000, draw(4)),
            injection: quarters(tile.ni_injection, draw(4)),
            ejection: quarters(tile.ni_ejection, draw(4)),
        };
        ledger
            .claim_tile(platform, id, &claim)
            .expect("within the tile");
        if draw(20) == 0 {
            ledger.fail_tile(id);
        }
    }
    let links: Vec<_> = platform.links().map(|(id, l)| (id, l.capacity)).collect();
    for (id, capacity) in links {
        if draw(4) < load {
            let taken = capacity * u64::from(draw(4)) / 4;
            ledger
                .allocate_link(platform, id, taken)
                .expect("within the link");
        }
        if draw(30) == 0 {
            ledger.fail_link(id);
        }
    }
    ledger
}

/// What the random lookups exercised, summed over the run.
#[derive(Debug, Default)]
struct Coverage {
    lookups: u32,
    hits: u32,
    /// Hits after at least one candidate was turned away.
    late_hits: u32,
    /// Hits on a shape other than the spec's first.
    later_shape_hits: u32,
    with_a_pin: u32,
    with_a_failed_tile: u32,
    with_a_failed_link: u32,
}

#[test]
fn compiled_shapes_make_the_reference_lookups_decisions() {
    const LEARNING_MAPS: u32 = 12;
    const ROUNDS: u32 = 4;
    const STEPS: u32 = 100;
    let mut runner = TestRunner::new(ProptestConfig::with_cases(ROUNDS));
    let mut coverage = Coverage::default();
    let mapper = SpatialMapper::default();
    for (platform, specs) in &worlds() {
        let mut draw = |upper: u32| Strategy::generate(&(0..upper), runner.rng());
        let n_tiles = platform.n_tiles() as u32;

        // Learn what the mapper makes of each spec on the empty platform
        // and on loaded ledgers, as misses would.
        let mut library = TemplateLibrary::default();
        for spec in specs {
            let key = spec.structural_digest();
            for round in 0..LEARNING_MAPS {
                let ledger = if round == 0 {
                    platform.initial_state()
                } else {
                    random_ledger(platform, &mut draw)
                };
                if let Ok(outcome) = mapper.map(spec, platform, &ledger) {
                    let shape = MappingShape::canonicalise(&outcome, spec, platform)
                        .expect("a four-step mapping canonicalises");
                    library.learn(key, shape);
                }
            }
            assert!(!library.specs[&key].is_empty(), "`{}` learned", spec.name);
        }

        for step in 0..ROUNDS * STEPS {
            let spec = &specs[draw(specs.len() as u32) as usize];
            let key = spec.structural_digest();
            let base = random_ledger(platform, &mut draw);
            // Draws past the tile count leave the constraint out.
            let mut constraints = MappingConstraints::none();
            let (excluded, pinned) = (draw(3 * n_tiles), draw(4 * n_tiles));
            if excluded < n_tiles {
                constraints = constraints.exclude_tile(TileId::from_index(excluded as usize));
            }
            if pinned < n_tiles {
                let process = draw(spec.graph.n_processes() as u32);
                constraints = constraints.pin(
                    ProcessId::from_index(process as usize),
                    TileId::from_index(pinned as usize),
                );
            }

            let before: Vec<u32> = library.specs[&key].iter().map(|e| e.hits).collect();
            let mut expected_hits = before.clone();
            let expected = reference_lookup(
                &library.specs[&key],
                &mut expected_hits,
                spec,
                platform,
                &base,
                &constraints,
            );
            let outcome = library.instantiate(key, spec, platform, &base, &constraints);
            let at = format!("`{}`, step {step}", spec.name);
            assert_eq!(outcome, expected, "{at}");
            let hits: Vec<u32> = library.specs[&key].iter().map(|e| e.hits).collect();
            assert_eq!(hits, expected_hits, "{at}");

            coverage.lookups += 1;
            coverage.with_a_pin += u32::from(pinned < n_tiles);
            coverage.with_a_failed_tile +=
                u32::from(platform.tiles().any(|(t, _)| base.is_tile_failed(t)));
            coverage.with_a_failed_link +=
                u32::from(platform.links().any(|(l, _)| base.is_link_failed(l)));
            if let Some(outcome) = outcome {
                coverage.hits += 1;
                coverage.late_hits += u32::from(outcome.evaluated > 1);
                coverage.later_shape_hits += u32::from(hits[0] == before[0]);
            }
        }
    }
    // The cases must reach what compiling could get wrong.
    assert!(coverage.hits >= 100, "{coverage:?}");
    assert!(coverage.lookups - coverage.hits >= 100, "{coverage:?}");
    assert!(coverage.late_hits >= 20, "{coverage:?}");
    assert!(coverage.later_shape_hits >= 10, "{coverage:?}");
    assert!(coverage.with_a_pin >= 50, "{coverage:?}");
    assert!(coverage.with_a_failed_tile >= 100, "{coverage:?}");
    assert!(coverage.with_a_failed_link >= 100, "{coverage:?}");
}
