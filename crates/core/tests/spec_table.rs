//! Oracles for the per-map [`SpecTable`]: every slot and list it serves
//! must be what the spec's own (allocating) accessors compute, the
//! single-pass [`claim_for`] must equal the formula it replaced, the
//! spec-taking step functions must decide exactly as the table-taking ones
//! sharing a single table, step 1's cached first fits must decide exactly
//! as a step 1 that probes everything again every round, and a `map` call
//! refused by a chain of step-1 dead ends must return the very error a
//! refinement loop around that memory-less step 1 returns.

use proptest::prelude::*;
use rtsm_app::hiperlan2::{hiperlan2_receiver, Hiperlan2Mode};
use rtsm_app::{ApplicationSpec, Implementation, ProcessId};
use rtsm_core::claims::{claim_for, reservation_of};
use rtsm_core::cost::CostModel;
use rtsm_core::feedback::{Constraints, Feedback};
use rtsm_core::mapper::MAX_REFINEMENTS;
use rtsm_core::step1::{assign_implementations, assign_implementations_in};
use rtsm_core::step2::{improve_assignment, SearchCtx};
use rtsm_core::step3::route_channels;
use rtsm_core::step4::{check_constraints, check_constraints_in, Step4Config};
use rtsm_core::trace::Step1Event;
use rtsm_core::{MapError, MappingConstraints, SpatialMapper, SpecTable};
use rtsm_platform::paper::paper_platform;
use rtsm_platform::{Platform, PlatformState, TileClaim, TileId, TileKind};
use rtsm_workloads::apps::{dvbt_rx, jpeg_encoder, mp3_decoder, wlan_tx};
use rtsm_workloads::{mesh_platform, synthetic_app, GraphShape, SyntheticConfig};

/// `claim_for` as it was before the single pass: `cycles_per_period` from
/// the first port of freshly collected `inputs_of`/`outputs_of` lists, NI
/// bandwidth summed over the same lists. Kept as the oracle.
fn legacy_claim_for(
    spec: &ApplicationSpec,
    process: ProcessId,
    implementation: &Implementation,
) -> TileClaim {
    let inputs = spec.graph.inputs_of(process);
    let outputs = spec.graph.outputs_of(process);
    let tokens = |ch| spec.graph.channel(ch).tokens_per_period;
    let cycles_per_period = inputs
        .first()
        .and_then(|ch| implementation.cycles_per_period_in(0, tokens(*ch)))
        .or_else(|| {
            let per_cycle = implementation.tokens_out_per_cycle(0);
            let total = tokens(*outputs.first()?);
            (per_cycle > 0 && total.is_multiple_of(per_cycle)).then(|| total / per_cycle)
        })
        .unwrap_or(1);
    assert_eq!(
        cycles_per_period,
        spec.cycles_per_period(process, implementation)
    );
    let wcet = implementation.wcet_per_period(cycles_per_period);
    let bandwidth = |channels: &[rtsm_app::KpnChannelId]| -> u64 {
        channels
            .iter()
            .map(|ch| spec.qos.words_per_second(tokens(*ch)))
            .sum()
    };
    TileClaim {
        slots: 1,
        memory_bytes: implementation.memory_bytes,
        cycles_per_second: (wcet as u128 * 1_000_000_000_000u128 / spec.qos.period_ps as u128)
            as u64,
        injection: bandwidth(&outputs),
        ejection: bandwidth(&inputs),
    }
}

/// Everything a table serves, against the spec's own accessors.
fn check_table(spec: &ApplicationSpec) {
    let order = spec.validated_order().expect("catalog specs validate");
    assert_eq!(order, spec.graph.topological_order().unwrap());
    let table = SpecTable::new(spec, order.clone());
    assert_eq!(table.order(), order);
    assert_eq!(SpecTable::for_validated(spec).order(), order);
    let mut slots = 0;
    for (pid, _) in spec.graph.processes() {
        let (inputs, outputs) = (spec.graph.inputs_of(pid), spec.graph.outputs_of(pid));
        assert_eq!(table.inputs(pid), inputs);
        assert_eq!(table.outputs(pid), outputs);
        assert_eq!(table.incident(pid), [inputs, outputs].concat());
        for (ix, implementation) in spec.library.impls_for(pid).iter().enumerate() {
            assert_eq!(table.slot(pid, ix), slots);
            slots += 1;
            let claim = claim_for(spec, pid, implementation);
            assert_eq!(claim, legacy_claim_for(spec, pid, implementation));
            // First use fills the slot; the second read serves it.
            assert_eq!(table.claim(pid, ix), claim);
            assert_eq!(table.claim(pid, ix), claim);
            assert_eq!(
                table.cycles_per_period(pid, ix),
                spec.cycles_per_period(pid, implementation)
            );
        }
    }
    assert_eq!(table.n_slots(), slots);
}

fn mixed_mesh() -> Platform {
    mesh_platform(
        42,
        4,
        4,
        &[
            (TileKind::Montium, 4),
            (TileKind::Arm, 4),
            (TileKind::Dsp, 2),
        ],
    )
}

fn mixed_specs() -> [ApplicationSpec; 5] {
    [
        wlan_tx(),
        jpeg_encoder(),
        mp3_decoder(),
        dvbt_rx(),
        hiperlan2_receiver(Hiperlan2Mode::Qpsk34),
    ]
}

#[test]
fn table_matches_the_spec_on_the_hiperlan2_and_mixed_catalogs() {
    for mode in Hiperlan2Mode::ALL {
        check_table(&hiperlan2_receiver(mode));
    }
    for spec in mixed_specs() {
        check_table(&spec);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The `synthetic` catalog's generator (chains), plus fork-joins so
    /// processes with several input or output ports are covered.
    #[test]
    fn table_matches_the_spec_on_synthetic_apps(
        seed in 0u64..100_000,
        n_processes in 3usize..8,
        fork_width in 0usize..4,
    ) {
        let shape = match fork_width {
            0 => GraphShape::Chain,
            width => GraphShape::ForkJoin { width },
        };
        check_table(&synthetic_app(&SyntheticConfig {
            seed,
            n_processes,
            shape,
            tile_kinds: vec![TileKind::Montium, TileKind::Arm],
            ..SyntheticConfig::default()
        }));
    }
}

/// Half of every tile's memory and cycle budget taken by somebody else.
fn half_occupied(platform: &Platform) -> PlatformState {
    let mut state = platform.initial_state();
    for (id, tile) in platform.tiles() {
        let claim = TileClaim {
            slots: 0,
            memory_bytes: tile.memory_bytes / 2,
            cycles_per_second: u64::from(tile.clock_mhz) * 500_000,
            injection: 0,
            ejection: 0,
        };
        state.claim_tile(platform, id, &claim).expect("half fits");
    }
    state
}

/// Step 1 as §3.1 states it, with no memory between rounds: every round
/// probes every implementation of every unassigned process afresh against
/// the working ledger, collects the placeable options and sorts them. The
/// oracle for the per-slot first-fit cache of `assign_implementations_in`
/// (which probes a slot again only after a placement on the tile it
/// named). Returns the decision log, or the process that ran out of
/// options with the decisions made until then.
fn reprobing_step1(
    table: &SpecTable<'_>,
    platform: &Platform,
    base: &PlatformState,
    constraints: &Constraints,
) -> Result<Vec<Step1Event>, (ProcessId, Vec<Step1Event>)> {
    let n_impls = |p: ProcessId| table.spec().library.impls_for(p).len();
    let first_fit = |state: &PlatformState, p: ProcessId, ix: usize| {
        let claim = table.claim(p, ix);
        platform
            .tiles_of_kind(table.implementation(p, ix).tile_kind)
            .map(|(tile, _)| tile)
            .find(|t| {
                !constraints.is_tile_forbidden(p, *t) && state.fits_tile(platform, *t, &claim)
            })
    };
    let viable = |p: ProcessId, ix: usize| {
        !constraints.is_impl_excluded(p, ix) && first_fit(base, p, ix).is_some()
    };
    let mut working = base.clone();
    let mut unassigned = table.order().to_vec();
    let mut events = Vec::new();
    while !unassigned.is_empty() {
        let mut best: Option<(u64, ProcessId, usize, TileId)> = None;
        for &p in &unassigned {
            // (energy, index, tile), sorted: cheapest first, ties to the
            // lower index.
            let mut options: Vec<(u64, usize, TileId)> = (0..n_impls(p))
                .filter(|ix| viable(p, *ix))
                .filter_map(|ix| {
                    let energy = table.implementation(p, ix).energy_pj_per_period;
                    first_fit(&working, p, ix).map(|tile| (energy, ix, tile))
                })
                .collect();
            options.sort_unstable();
            let Some(&(cost, ix, tile)) = options.first() else {
                return Err((p, events));
            };
            let desirability = options.get(1).map_or(u64::MAX, |next| next.0 - cost);
            if best.is_none_or(|(d, ..)| desirability > d) {
                best = Some((desirability, p, ix, tile));
            }
        }
        let (desirability, process, impl_index, tile) = best.expect("a process is unassigned");
        working
            .claim_tile(
                platform,
                tile,
                &reservation_of(&table.claim(process, impl_index)),
            )
            .expect("the probe said it fits");
        events.push(Step1Event {
            process,
            impl_index,
            tile,
            desirability,
            options: (0..n_impls(process))
                .filter(|ix| viable(process, *ix))
                .count(),
        });
        unassigned.retain(|&p| p != process);
    }
    Ok(events)
}

/// Steps 1, 2 and 4 through the spec-taking wrappers (a table each) and
/// through one shared table; every result must be equal, and step 1 must
/// decide as its re-probing oracle does. Returns whether the case got as
/// far as step 4.
fn check_equivalence(
    spec: &ApplicationSpec,
    platform: &Platform,
    base: &PlatformState,
    external: &MappingConstraints,
) -> bool {
    let constraints = Constraints::with_external(external.clone());
    let table = SpecTable::for_validated(spec);
    let wrapped = assign_implementations(spec, platform, base, &constraints);
    let tabled = assign_implementations_in(&table, platform, base, &constraints);
    assert_eq!(wrapped, tabled, "{}: step 1", spec.name);
    assert_eq!(
        tabled
            .map(|out| out.events)
            .map_err(|failure| failure.process),
        reprobing_step1(&table, platform, base, &constraints).map_err(|(process, _)| process),
        "{}: step 1 against the re-probing oracle",
        spec.name
    );
    let Ok(step1) = wrapped else {
        return false;
    };

    let (mut mapping, mut working) = (step1.mapping.clone(), step1.working.clone());
    let wrapped = improve_assignment(
        spec,
        platform,
        &constraints,
        &mut mapping,
        &mut working,
        &CostModel::HopCount,
    );
    let (mut mapping_in, mut working_in) = (step1.mapping, step1.working);
    let tabled = SearchCtx::new(&table, platform, &constraints, &CostModel::HopCount).improve(
        &mut mapping_in,
        &mut working_in,
        true,
    );
    assert_eq!(
        wrapped, tabled,
        "{}: step 2 trace (Table 2 rows)",
        spec.name
    );
    assert_eq!(wrapped.events.len() as u64, wrapped.evaluations);
    assert_eq!(mapping, mapping_in, "{}: step 2 mapping", spec.name);
    assert_eq!(working, working_in, "{}: step 2 ledger", spec.name);

    if route_channels(spec, platform, &mut mapping, &mut working).is_err() {
        return false;
    }
    assert_eq!(
        check_constraints(spec, platform, &mapping, &working, &Step4Config).verdict,
        check_constraints_in(&table, platform, &mapping, working.clone()),
        "{}: step 4",
        spec.name
    );
    true
}

#[test]
fn wrapper_and_table_paths_decide_identically() {
    let cases: Vec<(ApplicationSpec, Platform)> =
        std::iter::once((hiperlan2_receiver(Hiperlan2Mode::Qpsk34), paper_platform()))
            .chain(mixed_specs().map(|spec| (spec, mixed_mesh())))
            .collect();
    let (mut reached_step4, mut stopped_early) = (0, 0);
    for (spec, platform) in &cases {
        // Pins and an exclusion taken from the unconstrained mapping, so
        // they bind without making the case unmappable outright: the last
        // process stays where it landed, the first one's tile is excluded.
        let free = SpatialMapper::default()
            .map(spec, platform, &platform.initial_state())
            .expect("every case maps on its empty platform");
        let order = spec.graph.topological_order().unwrap();
        let tile_of = |p: ProcessId| free.mapping.assignment(p).unwrap().tile;
        let last = *order.last().unwrap();
        let pinned = MappingConstraints::none().pin(last, tile_of(last));
        let pinned_and_excluded = pinned.clone().exclude_tile(tile_of(order[0]));

        for base in [platform.initial_state(), half_occupied(platform)] {
            for external in [
                MappingConstraints::none(),
                pinned.clone(),
                pinned_and_excluded.clone(),
            ] {
                if check_equivalence(spec, platform, &base, &external) {
                    reached_step4 += 1;
                } else {
                    stopped_early += 1;
                }
            }
        }
    }
    // Both kinds of ending must be exercised: full pipelines and step-1
    // (or routing) failures compared as failures.
    assert!(reached_step4 >= cases.len(), "{reached_step4} full runs");
    assert!(stopped_early > 0, "no failing case was compared");
}

/// The refinement driver of §3 around the memory-less [`reprobing_step1`]:
/// every attempt starts from nothing but `base` and the constraints so far.
/// Returns the error of a call that is refused by step-1 dead ends alone —
/// built here from the paper's rules, not from the mapper's own types — or
/// `None` when some attempt gets past step 1 (steps 2–4 are not this
/// oracle's business).
fn reference_refusal(
    spec: &ApplicationSpec,
    platform: &Platform,
    base: &PlatformState,
    external: &MappingConstraints,
) -> Option<MapError> {
    let table = SpecTable::for_validated(spec);
    let mut constraints = Constraints::with_external(external.clone());
    let mut last_feedback = Vec::new();
    for _ in 0..MAX_REFINEMENTS {
        let Err((process, placed)) = reprobing_step1(&table, platform, base, &constraints) else {
            return None;
        };
        let name = &spec.graph.process(process).name;
        last_feedback = vec![Feedback::Infeasible {
            detail: format!("process `{name}` has no viable implementation left in step 1"),
        }];
        // The dead end forbids its most recent placement; with nothing
        // placed, or nothing new to forbid, the process is unmappable.
        let forbid = placed.last().map(|last| Feedback::ForbidTile {
            process: last.process,
            tile: last.tile,
        });
        let absorbed = forbid.as_ref().is_some_and(|fb| constraints.absorb(fb));
        last_feedback.extend(forbid);
        if !absorbed {
            return Some(MapError::Unmappable {
                process: name.clone(),
            });
        }
    }
    Some(MapError::NoFeasibleMapping {
        attempts: MAX_REFINEMENTS,
        last_feedback,
    })
}

/// `base` with every compute slot of the first tile of each processing kind
/// taken out of service.
fn one_failed_tile_per_kind(platform: &Platform, base: &PlatformState) -> PlatformState {
    let mut state = base.clone();
    for kind in [TileKind::Arm, TileKind::Montium, TileKind::Dsp] {
        if let Some((tile, _)) = platform.tiles_of_kind(kind).next() {
            state.fail_tile(tile);
        }
    }
    state
}

#[test]
fn refused_maps_return_the_reference_loops_error() {
    let cases: Vec<(ApplicationSpec, Platform)> =
        std::iter::once((hiperlan2_receiver(Hiperlan2Mode::Qpsk34), paper_platform()))
            .chain(mixed_specs().map(|spec| (spec, mixed_mesh())))
            .collect();
    let mapper = SpatialMapper::default();
    // Chain lengths seen, by how the refusal ended.
    let (mut unmappable, mut exhausted, mut past_step1) = (0, 0, 0);
    let mut longest_unmappable_chain = 0;
    for (spec, platform) in &cases {
        let empty = platform.initial_state();
        let free = mapper
            .map(spec, platform, &empty)
            .expect("every case maps on its empty platform");
        let order = spec.graph.topological_order().unwrap();
        let tile_of = |p: ProcessId| free.mapping.assignment(p).unwrap().tile;
        let last = *order.last().unwrap();
        let pinned = MappingConstraints::none().pin(last, tile_of(last));
        let pinned_and_excluded = pinned.clone().exclude_tile(tile_of(order[0]));
        let excluded_twice = MappingConstraints::none()
            .exclude_tile(tile_of(order[0]))
            .exclude_tile(tile_of(last));

        // The matrix's two ledgers, then *full* ones — each application that
        // maps on this platform running, alone and on the half-occupied
        // ledger — and each of those again with a tile of every kind failed.
        let mut bases = vec![empty.clone(), half_occupied(platform)];
        for (running, on) in cases.iter().filter(|(_, on)| on == platform) {
            for under in [empty.clone(), half_occupied(platform)] {
                if let Ok(outcome) = mapper.map(running, on, &under) {
                    let mut ledger = under;
                    outcome.commit(running, on, &mut ledger).expect("it fits");
                    bases.push(ledger);
                }
            }
        }
        let degraded: Vec<_> = bases
            .iter()
            .map(|base| one_failed_tile_per_kind(platform, base))
            .collect();
        bases.extend(degraded);

        for base in &bases {
            for external in [
                MappingConstraints::none(),
                pinned.clone(),
                pinned_and_excluded.clone(),
                excluded_twice.clone(),
            ] {
                let mapped = mapper.map_constrained(spec, platform, base, &external);
                match reference_refusal(spec, platform, base, &external) {
                    None => past_step1 += 1,
                    Some(expected) => {
                        match &expected {
                            MapError::NoFeasibleMapping { .. } => exhausted += 1,
                            _ => unmappable += 1,
                        }
                        assert_eq!(
                            mapped.as_ref().err(),
                            Some(&expected),
                            "{} under {external:?}",
                            spec.name
                        );
                        // How long a chain ended in `Unmappable`: the trace
                        // of the same call tells.
                        if let MapError::Unmappable { .. } = expected {
                            longest_unmappable_chain = longest_unmappable_chain
                                .max(chain_length(spec, platform, base, &external));
                        }
                    }
                }
            }
        }
    }
    // All three endings must be compared: one-attempt refusals, chains that
    // end early because nothing new can be forbidden, and chains that use
    // up the budget (every attempt after the first relying on what the
    // attempts before it left behind).
    assert!(unmappable > 20, "{unmappable} unmappable refusals");
    assert!(exhausted > 20, "{exhausted} exhausted chains");
    assert!(
        longest_unmappable_chain > 2,
        "no multi-attempt chain ended unmappable ({longest_unmappable_chain})"
    );
    assert!(past_step1 > 20, "{past_step1} cases past step 1");
}

/// Refinement attempts of a refused call, read off a probe.
fn chain_length(
    spec: &ApplicationSpec,
    platform: &Platform,
    base: &PlatformState,
    external: &MappingConstraints,
) -> u64 {
    let probe = std::rc::Rc::new(rtsm_obs::SpanLatencyProbe::new());
    let _guard = rtsm_obs::install(probe.clone());
    SpatialMapper::default()
        .map_constrained(spec, platform, base, external)
        .expect_err("the reference loop refused it");
    let dead_ends = probe.counter_total(rtsm_obs::Counter::Step1DeadEnd);
    assert_eq!(dead_ends, probe.histogram(rtsm_obs::Span::Step1).count());
    dead_ends
}
