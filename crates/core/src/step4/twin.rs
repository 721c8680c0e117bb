//! The oracle for step 4's memo: every catalog spec, on random ledgers of
//! varied platforms (load, failed tiles and links, tight memories, pins and
//! exclusions, so placements move and routes detour), taken through steps
//! 1–3 and then judged twice — by [`check_constraints_in`], which answers
//! from its memo whenever it has seen the mapping's signature, and by a
//! reference that remembers nothing: it composes the graph, sizes its
//! buffers from scratch, simulates the sized graph once more for its
//! throughput and writes the checks out again. The two verdicts must be
//! equal, field for field, and two mappings with one signature must compose
//! graphs that differ in actor names only.
//!
//! Mutations tried by hand against this file, each caught by
//! `warm_verdicts_equal_a_memoryless_reference`: leaving out of
//! [`signature`] the tile clocks or the NoC clock fails the structure
//! comparison; leaving out the spec digest, the NoC's hop latency, or the
//! first channel's router count fails the verdict comparison (another
//! analysis comes back); skipping the memory-fit loop when the analysis came
//! from the memo fails the verdict comparison on the first overflow that is
//! a hit. Leaving out the implementation indices gets past the random cases
//! and is caught by `an_implementation_choice_moves_the_signature`.
//! Finalising the two lanes symmetrically (`fold(a, b | 1)`,
//! `fold(b, a | 1)`) fails the halves assertion in the random cases and
//! `the_halves_of_a_key_differ_whatever_the_parity_of_the_lanes`.

use super::*;
use crate::constraints::MappingConstraints;
use crate::cost::CostModel;
use crate::feedback::Constraints;
use crate::step1::Step1;
use crate::step2::SearchCtx;
use crate::step3::route_channels;
use proptest::prelude::*;
use rtsm_app::hiperlan2::{hiperlan2_receiver, Hiperlan2Mode};
use rtsm_dataflow::{check_source_period, size_buffers, Channel};
use rtsm_platform::paper::paper_platform;
use rtsm_platform::{NocParams, PlatformBuilder, Tile, TileKind};
use rtsm_workloads::apps::{dvbt_rx, jpeg_encoder, mp3_decoder, wlan_tx};
use rtsm_workloads::synthetic::{synthetic_app, GraphShape, SyntheticConfig};
use rtsm_workloads::{defrag_heavy, defrag_light, defrag_platform, mesh_platform};

/// Step 4 with no memory and no shortcut.
fn reference(
    table: &SpecTable<'_>,
    platform: &Platform,
    mapping: &Mapping,
    working: &PlatformState,
) -> Step4Verdict {
    let spec = table.spec();
    let period = spec.qos.period_ps;
    let infeasible = |detail: String| Step4Verdict::refused(vec![Feedback::Infeasible { detail }]);
    for (pid, _) in spec.graph.stream_processes() {
        let assignment = mapping
            .assignment(pid)
            .expect("steps 1–3 assign everything");
        let implementation = &spec.library.impls_for(pid)[assignment.impl_index];
        let busy_ps = implementation.wcet_per_period(spec.cycles_per_period(pid, implementation))
            * platform.tile(assignment.tile).cycle_time_ps();
        if busy_ps > period {
            return Step4Verdict::refused(vec![
                Feedback::Infeasible {
                    detail: format!(
                        "`{}` needs {busy_ps} ps per {period} ps period",
                        implementation.name
                    ),
                },
                Feedback::ExcludeImplementation {
                    process: pid,
                    impl_index: assignment.impl_index,
                },
            ]);
        }
    }

    let Composition {
        mut csdf,
        source,
        sink,
        buffer_edges,
    } = compose(table, platform, mapping).expect("assigned, and no catalog floods the A/D");
    let sizing = BufferSizingConfig {
        source,
        period,
        channels: buffer_edges.clone(),
        max_sweeps: 3,
    };
    match size_buffers(csdf.clone(), &sizing) {
        Ok(sizing) => rtsm_dataflow::apply_sizing(&mut csdf, &sizing),
        Err(e) => return infeasible(format!("buffer sizing failed: {e}")),
    }
    let mut edges = buffer_edges.iter();
    let mut buffers = Vec::new();
    for (cid, ch) in spec.graph.stream_channels() {
        if let Endpoint::Process(p) = ch.dst {
            let edge = *edges.next().expect("one edge per consumed channel");
            buffers.push(ChannelBuffer {
                channel: cid,
                capacity_words: csdf.channel(edge).capacity.expect("sized"),
                tile: mapping.assignment(p).expect("assigned").tile,
            });
        }
    }
    assert!(edges.next().is_none());

    let mut feedback = Vec::new();
    let mut probe = working.clone();
    for buffer in &buffers {
        let claim = TileClaim {
            slots: 0,
            memory_bytes: buffer.capacity_words * 4,
            cycles_per_second: 0,
            injection: 0,
            ejection: 0,
        };
        if probe.claim_tile(platform, buffer.tile, &claim).is_err() {
            feedback.push(Feedback::BufferOverflow {
                tile: buffer.tile,
                needed_bytes: buffer.capacity_words * 4,
            });
            let host = spec
                .graph
                .stream_processes()
                .find(|(p, _)| mapping.assignment(*p).map(|a| a.tile) == Some(buffer.tile));
            if let Some((pid, _)) = host {
                feedback.push(Feedback::ForbidTile {
                    process: pid,
                    tile: buffer.tile,
                });
            }
        }
    }
    let (sustained, achieved) =
        check_source_period(&csdf, source, period).expect("sizing found a steady state");
    if !sustained && feedback.is_empty() {
        feedback.push(Feedback::Infeasible {
            detail: format!(
                "achieved period {}/{} exceeds required {period}",
                achieved.period, achieved.iterations
            ),
        });
    }
    let mut latency_ps = None;
    if let Some(bound) = spec.qos.max_latency_ps {
        match iteration_latency(
            &csdf,
            source,
            sink,
            LATENCY_WARMUP_CYCLES,
            LATENCY_WINDOW_CYCLES,
        ) {
            Ok(lat) => {
                latency_ps = Some(lat);
                if lat > bound {
                    feedback.push(Feedback::Infeasible {
                        detail: format!("latency {lat} ps exceeds bound {bound} ps"),
                    });
                }
            }
            Err(e) => feedback.push(Feedback::Infeasible {
                detail: format!("latency analysis failed: {e}"),
            }),
        }
    }
    Step4Verdict {
        buffers,
        feasible: feedback.is_empty(),
        achieved_period: (achieved.period, achieved.iterations),
        latency_ps,
        feedback,
    }
}

/// A graph without its actor names.
type Structure = (Vec<(PhaseVec, u64)>, Vec<Channel>);

fn structure_of(graph: &CsdfGraph) -> Structure {
    (
        graph
            .actors()
            .map(|(_, a)| (a.wcet.clone(), a.cycle_time))
            .collect(),
        graph.channels().map(|(_, c)| c.clone()).collect(),
    )
}

fn names_of(graph: &CsdfGraph) -> Vec<String> {
    graph.actors().map(|(_, a)| a.name.clone()).collect()
}

/// The four catalogs on their platforms (platform seed 42, the repo-wide
/// default), plus a HIPERLAN/2 receiver under a latency bound it meets and
/// one under a bound it cannot, each with its cases per round.
fn worlds() -> Vec<(Platform, Vec<ApplicationSpec>, u32)> {
    let bounded = |bound| {
        let mut spec = hiperlan2_receiver(Hiperlan2Mode::Qpsk34);
        spec.name = format!("{} within {bound} ps", spec.name);
        spec.qos.max_latency_ps = Some(bound);
        spec
    };
    let hiperlan2 = Hiperlan2Mode::ALL
        .iter()
        .map(|&mode| hiperlan2_receiver(mode))
        .chain([bounded(40_000_000), bounded(1)])
        .collect();
    let mixed = vec![
        wlan_tx(),
        jpeg_encoder(),
        mp3_decoder(),
        dvbt_rx(),
        hiperlan2_receiver(Hiperlan2Mode::Qpsk34),
    ];
    let synthetic = (0..6)
        .map(|i| {
            synthetic_app(&SyntheticConfig {
                seed: 42 + i as u64,
                n_processes: 3 + i % 5,
                shape: GraphShape::Chain,
                tile_kinds: vec![TileKind::Montium, TileKind::Arm],
                ..SyntheticConfig::default()
            })
        })
        .collect();
    let mesh = |mix: &[(TileKind, usize)]| mesh_platform(42, 4, 4, mix);
    let mixed_mix = [
        (TileKind::Montium, 4),
        (TileKind::Arm, 4),
        (TileKind::Dsp, 2),
    ];
    let synthetic_mix = [(TileKind::Montium, 6), (TileKind::Arm, 4)];
    // A cold analysis of a synthetic chain costs some twenty of the others.
    vec![
        (paper_platform(), hiperlan2, 210),
        (mesh(&mixed_mix), mixed, 210),
        (mesh(&synthetic_mix), synthetic, 5),
        (defrag_platform(4), vec![defrag_light(), defrag_heavy()], 12),
    ]
}

/// What the random cases exercised, summed over the run.
#[derive(Debug, Default)]
struct Coverage {
    cases: u32,
    /// Steps 1–3 found no routed mapping on the drawn ledger.
    unmapped: u32,
    hits: u32,
    /// Hits whose graph has other actor names than the first graph seen
    /// under the signature: other routers, one entry.
    hits_under_other_names: u32,
    hits_refused_for_memory: u32,
    hits_with_a_latency: u32,
    same_tile_channels: u32,
    infeasible: u32,
}

#[test]
fn warm_verdicts_equal_a_memoryless_reference() {
    const ROUNDS: u32 = 4;
    let mut runner = TestRunner::new(ProptestConfig::with_cases(ROUNDS));
    let mut coverage = Coverage::default();
    let mut seen: HashMap<u128, (Structure, Vec<String>)> = HashMap::new();
    let worlds = worlds();
    for round in 0..runner.cases() {
        for (template, specs, steps) in &worlds {
            let mut draw = |upper: u32| Strategy::generate(&(0..upper), runner.rng());

            // This round's tiles, under three NoCs: the catalog's, one with
            // slower routers and one with a faster clock.
            let tiles: Vec<Tile> = template
                .tiles()
                .map(|(_, tile)| Tile {
                    compute_slots: tile.compute_slots.max(1 + draw(2)),
                    clock_mhz: if draw(8) == 0 { 400 } else { tile.clock_mhz },
                    ..tile.clone()
                })
                .collect();
            let noc = *template.noc();
            let platforms = [
                noc,
                NocParams {
                    hop_latency_cycles: noc.hop_latency_cycles + 1,
                    ..noc
                },
                NocParams {
                    clock_mhz: 250,
                    ..noc
                },
            ]
            .map(|noc| {
                tiles
                    .iter()
                    .cloned()
                    .fold(
                        PlatformBuilder::mesh(template.width(), template.height()).noc(noc),
                        PlatformBuilder::tile_custom,
                    )
                    .build()
                    .expect("the template layout is valid")
            });

            for step in 0..*steps {
                let spec = &specs[draw(specs.len() as u32) as usize];
                // Mostly the catalog's NoC, so that signatures repeat.
                let platform = &platforms[draw(12).saturating_sub(9) as usize];
                let table = SpecTable::for_validated(spec);
                let n_tiles = platform.n_tiles() as u32;

                // A tile is full when its draw is under the step's load and
                // fails one time in ten; one in four has room for the
                // implementations of its kind and little else.
                let mut base = platform.initial_state();
                let load = draw(3);
                for (id, tile) in platform.tiles() {
                    let free_bytes = match (draw(4), tile.kind) {
                        (0, TileKind::Arm) => 8192 + 64 * u64::from(draw(8)),
                        (0, _) => 2048 + 64 * u64::from(draw(8)),
                        _ => tile.memory_bytes,
                    };
                    let claim = TileClaim {
                        slots: if draw(6) < load {
                            tile.compute_slots
                        } else {
                            0
                        },
                        memory_bytes: tile.memory_bytes.saturating_sub(free_bytes),
                        cycles_per_second: 0,
                        injection: 0,
                        ejection: 0,
                    };
                    base.claim_tile(platform, id, &claim)
                        .expect("within the tile");
                    if draw(10) == 0 {
                        base.fail_tile(id);
                    }
                }
                for (id, _) in platform.links() {
                    if draw(10) == 0 {
                        base.fail_link(id);
                    }
                }
                // Draws past the tile count leave the constraint out.
                let mut external = MappingConstraints::none();
                let (excluded, pinned) = (draw(3 * n_tiles), draw(8 * n_tiles));
                if excluded < n_tiles {
                    external = external.exclude_tile(TileId::from_index(excluded as usize));
                }
                if pinned < n_tiles {
                    external = external.pin(
                        ProcessId::from_index(0),
                        TileId::from_index(pinned as usize),
                    );
                }
                let constraints = Constraints::with_external(external);

                coverage.cases += 1;
                let Ok(placed) = Step1::new(&table, platform, &base).attempt(&constraints) else {
                    coverage.unmapped += 1;
                    continue;
                };
                let (mut mapping, mut working) = (placed.mapping, placed.working);
                SearchCtx::new(&table, platform, &constraints, &CostModel::HopCount).improve(
                    &mut mapping,
                    &mut working,
                    false,
                );
                if route_channels(spec, platform, &mut mapping, &mut working).is_err() {
                    coverage.unmapped += 1;
                    continue;
                }

                let at = format!("round {round}, `{}`, step {step}", spec.name);
                let signature = signature(&table, platform, &mapping).expect("assigned");
                assert_ne!(
                    (signature >> 64) as u64,
                    signature as u64,
                    "{at}: a 64-bit key"
                );
                let known = MEMO.with(|memo| memo.borrow().contains_key(&signature));
                let verdict = check_constraints_in(&table, platform, &mapping, working.clone());
                let expected = reference(&table, platform, &mapping, &working);
                assert_eq!(verdict, expected, "{at}");

                // One signature, one graph.
                let graph = compose(&table, platform, &mapping).expect("assigned").csdf;
                let (structure, names) = (structure_of(&graph), names_of(&graph));
                let (first_structure, first_names) = seen
                    .entry(signature)
                    .or_insert_with(|| (structure.clone(), names.clone()));
                assert_eq!(&structure, first_structure, "{at}");

                let hit = known && !verdict.buffers.is_empty();
                let has = |f: fn(&Feedback) -> bool| verdict.feedback.iter().any(f);
                coverage.hits += u32::from(hit);
                coverage.hits_under_other_names += u32::from(hit && names != *first_names);
                coverage.hits_refused_for_memory +=
                    u32::from(hit && has(|f| matches!(f, Feedback::BufferOverflow { .. })));
                coverage.hits_with_a_latency += u32::from(hit && verdict.latency_ps.is_some());
                coverage.same_tile_channels += mapping
                    .routes()
                    .filter(|(_, route)| matches!(route, RouteBinding::SameTile))
                    .count() as u32;
                coverage.infeasible += u32::from(!verdict.feasible);
            }
        }
    }
    // The cases must reach what a memo could get wrong.
    let distinct = seen.len();
    assert!(coverage.hits >= 100, "{coverage:?}");
    assert!(distinct >= 30, "{distinct} signatures, {coverage:?}");
    assert!(coverage.hits_under_other_names > 0, "{coverage:?}");
    assert!(coverage.hits_refused_for_memory > 0, "{coverage:?}");
    assert!(coverage.hits_with_a_latency > 0, "{coverage:?}");
    assert!(coverage.same_tile_channels > 0, "{coverage:?}");
    eprintln!("{distinct} signatures, {coverage:?}");
}

/// The paper case through steps 1–3 on the empty paper platform.
fn paper_case() -> (ApplicationSpec, Platform, Mapping, PlatformState) {
    super::tests::full_pipeline(Hiperlan2Mode::Qpsk34)
}

/// The two halves of a key are two words: the finalisation used to
/// cross-multiply the lanes with a commutative `fold`, and both lanes odd —
/// one draw in four — gave a key whose halves were equal.
#[test]
fn the_halves_of_a_key_differ_whatever_the_parity_of_the_lanes() {
    let (even, odd) = (0x243f_6a88_85a3_08d2_u64, 0x1319_8a2e_0370_7345_u64);
    for (a, b) in [(even, even + 2), (even, odd), (odd, even), (odd, odd + 2)] {
        for (a, b) in [(a, b), (b, a)] {
            let key = Lanes(a, b).finish();
            assert_ne!((key >> 64) as u64, key as u64, "lanes {a:#x}, {b:#x}");
        }
    }
}

/// Every tile of the paper platform runs at one clock, so the paper case
/// with one implementation index flipped composes another graph from the
/// same clocks and routes: only the index tells the two signatures apart.
/// The random cases meet such a pair too rarely to rely on.
#[test]
fn an_implementation_choice_moves_the_signature() {
    let (spec, platform, routed, _) = paper_case();
    let table = SpecTable::for_validated(&spec);
    let frq = spec.graph.process_by_name("Freq. off. correction").unwrap();
    let (mut mapping, mut flipped) = (Mapping::new(), Mapping::new());
    for (process, assignment) in routed.assignments() {
        let index = assignment.impl_index;
        mapping.assign(process, index, assignment.tile);
        flipped.assign(
            process,
            if process == frq { 1 - index } else { index },
            assignment.tile,
        );
    }
    let structure = |m: &Mapping| structure_of(&compose(&table, &platform, m).unwrap().csdf);
    assert_ne!(structure(&mapping), structure(&flipped));
    assert_ne!(
        signature(&table, &platform, &mapping),
        signature(&table, &platform, &flipped)
    );
}

#[test]
fn an_entry_with_another_number_of_capacities_is_a_miss_not_a_panic() {
    let (spec, platform, mapping, working) = paper_case();
    let table = SpecTable::for_validated(&spec);
    let expected = reference(&table, &platform, &mapping, &working);
    assert_eq!(expected.buffers.len(), 4);
    let signature = signature(&table, &platform, &mapping).unwrap();
    // What a spec with other buffer sites and the same 64-bit digest would
    // have left behind.
    for capacities in [vec![], vec![7], vec![7; 5]] {
        remember(
            signature,
            Analysis {
                capacities: capacities.into(),
                achieved: Throughput {
                    iterations: 1,
                    period: 1,
                },
                latency_ps: None,
            },
        );
        let verdict = check_constraints_in(&table, &platform, &mapping, working.clone());
        assert_eq!(verdict, expected);
        let kept = MEMO.with(|memo| memo.borrow()[&signature].capacities.len());
        assert_eq!(kept, 4, "the cold answer replaces the entry");
    }
}

#[test]
fn the_flush_at_the_entry_bound_changes_no_answer() {
    let (spec, platform, mapping, working) = paper_case();
    let table = SpecTable::for_validated(&spec);
    let judge = || check_constraints_in(&table, &platform, &mapping, working.clone());
    let entries = || MEMO.with(|memo| memo.borrow().len());
    let cold = judge();
    assert_eq!(cold, reference(&table, &platform, &mapping, &working));
    // Fill the memo to its bound with other signatures: the next unseen one
    // flushes it.
    for other in 1..MEMO_CAP as u128 {
        let analysis = Analysis {
            capacities: Box::new([]),
            achieved: Throughput {
                iterations: 1,
                period: 1,
            },
            latency_ps: None,
        };
        remember(other, analysis);
    }
    assert_eq!(entries(), MEMO_CAP);
    assert_eq!(judge(), cold, "a hit in a full memo");
    assert_eq!(entries(), MEMO_CAP);
    // Another mode of the receiver: another spec, so an unseen signature.
    let (other, _, other_mapping, other_working) =
        super::tests::full_pipeline(Hiperlan2Mode::Qpsk12);
    let other_table = SpecTable::for_validated(&other);
    check_constraints_in(&other_table, &platform, &other_mapping, other_working);
    assert_eq!(entries(), 1, "flushed whole");
    assert_eq!(judge(), cold, "cold again after the flush");
    assert_eq!(judge(), cold, "and warm again");
    assert_eq!(entries(), 2);
}
