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
use rtsm_platform::routing::route;
use rtsm_testkit::any_ledger;
use rtsm_workloads::catalog_world;

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
    for name in ["hiperlan2", "mixed"] {
        let (platform, specs) = catalog_world(name).expect("registered").instance(42);
        let n_tiles = platform.n_tiles() as u32;

        // Learn what the mapper makes of each spec on the empty platform
        // and on loaded ledgers, as misses would.
        let mut library = TemplateLibrary::default();
        for spec in &specs {
            let key = spec.structural_digest();
            for round in 0..LEARNING_MAPS {
                let ledger = if round == 0 {
                    platform.initial_state()
                } else {
                    any_ledger(&platform, runner.tape())
                };
                if let Ok(outcome) = mapper.map(spec, &platform, &ledger) {
                    let shape = MappingShape::canonicalise(&outcome, spec, &platform)
                        .expect("a four-step mapping canonicalises");
                    library.learn(key, shape);
                }
            }
            assert!(!library.specs[&key].is_empty(), "`{}` learned", spec.name);
        }

        for step in 0..ROUNDS * STEPS {
            runner.case(|tape| {
                let spec = &specs[tape.draw(specs.len() as u32) as usize];
                let key = spec.structural_digest();
                let base = any_ledger(&platform, tape);
                // Draws past the tile count leave the constraint out.
                let mut constraints = MappingConstraints::none();
                let (excluded, pinned) = (tape.draw(3 * n_tiles), tape.draw(4 * n_tiles));
                if excluded < n_tiles {
                    constraints = constraints.exclude_tile(TileId::from_index(excluded as usize));
                }
                if pinned < n_tiles {
                    let process = tape.draw(spec.graph.n_processes() as u32);
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
                    &platform,
                    &base,
                    &constraints,
                );
                let outcome = library.instantiate(key, spec, &platform, &base, &constraints);
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
            });
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
    eprintln!("{coverage:?}");
}
