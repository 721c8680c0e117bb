//! Oracles for the per-map [`SpecTable`] and the thread's store of compiled
//! specs behind it: every slot and list it serves must be what the spec's
//! own (allocating) accessors compute, a `map` on a warm thread must answer
//! exactly as on a fresh one — also after the spec is mutated in place —,
//! the
//! single-pass [`claim_for`] must equal the formula it replaced, the
//! spec-taking step functions must decide exactly as the table-taking ones
//! sharing a single table, step 1's cached first fits must decide exactly
//! as a step 1 that probes everything again every round, a step 1 that ran
//! attempts before must answer as a fresh one, and a `map` call refused by
//! a chain of step-1 dead ends must return the very error a refinement loop
//! around that memory-less step 1 returns.

use proptest::prelude::*;
use rtsm_app::hiperlan2::{hiperlan2_receiver, Hiperlan2Mode};
use rtsm_app::{AppModelError, ApplicationSpec, Implementation, ImplementationLibrary, ProcessId};
use rtsm_core::claims::{claim_for, reservation_of};
use rtsm_core::cost::CostModel;
use rtsm_core::feedback::{Constraints, Feedback};
use rtsm_core::mapper::MAX_REFINEMENTS;
use rtsm_core::step1::{assign_implementations, assign_implementations_in, DeadEnd, Step1};
use rtsm_core::step2::{improve_assignment, SearchCtx};
use rtsm_core::step3::route_channels;
use rtsm_core::step4::{check_constraints, check_constraints_in, Step4Config};
use rtsm_core::trace::Step1Event;
use rtsm_core::{
    CompiledSpec, MapError, MapperConfig, MappingConstraints, SpatialMapper, SpecTable,
};
use rtsm_platform::paper::paper_platform;
use rtsm_platform::{Platform, PlatformState, TileClaim, TileId, TileKind};
use rtsm_testkit::any_ledger;
use rtsm_workloads::{catalog_world, synthetic_app, GraphShape, SyntheticConfig};

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
    let table = SpecTable::new(spec, &CompiledSpec::compile(spec).expect("validates"));
    assert_eq!(table.order().collect::<Vec<_>>(), order);
    assert_eq!(
        SpecTable::for_validated(spec).order().collect::<Vec<_>>(),
        order
    );
    let mut slots = 0;
    for (pid, _) in spec.graph.processes() {
        let (inputs, outputs) = (spec.graph.inputs_of(pid), spec.graph.outputs_of(pid));
        assert_eq!(table.inputs(pid).collect::<Vec<_>>(), inputs);
        assert_eq!(table.outputs(pid).collect::<Vec<_>>(), outputs);
        assert_eq!(
            table.incident(pid).collect::<Vec<_>>(),
            [inputs, outputs].concat()
        );
        for (ix, implementation) in spec.library.impls_for(pid).iter().enumerate() {
            assert_eq!(table.slot(pid, ix), slots);
            slots += 1;
            let claim = claim_for(spec, pid, implementation);
            assert_eq!(claim, legacy_claim_for(spec, pid, implementation));
            assert_eq!(table.claim(pid, ix), claim);
            assert_eq!(
                table.cycles_per_period(pid, ix),
                spec.cycles_per_period(pid, implementation)
            );
        }
    }
    assert_eq!(table.n_slots(), slots);
}

/// Each specification of the catalog `name` on the catalog's platform
/// (platform seed 42, the repo-wide default).
fn catalog(name: &str) -> impl Iterator<Item = (ApplicationSpec, Platform)> {
    let (platform, specs) = catalog_world(name).expect("registered").instance(42);
    specs.into_iter().map(move |spec| (spec, platform.clone()))
}

#[test]
fn table_matches_the_spec_on_the_hiperlan2_and_mixed_catalogs() {
    for mode in Hiperlan2Mode::ALL {
        check_table(&hiperlan2_receiver(mode));
    }
    for (spec, _) in catalog("mixed") {
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
    let mut unassigned = table.order().collect::<Vec<_>>();
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
            .chain(catalog("mixed"))
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
            .chain(catalog("mixed"))
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

/// A [`Step1`] answers each attempt from its inputs alone: whatever
/// attempts it ran before — successes, dead ends after a placement — it
/// returns what a fresh one returns under the same constraints. Each case
/// is a refinement chain on a random ledger: a dead end's
/// [`DeadEnd::forbid`] is absorbed, and so, after a success, is a
/// `ForbidTile` of its last placement (standing in for step-3 or step-4
/// feedback).
#[test]
fn an_attempt_depends_only_on_its_inputs() {
    let cases: Vec<(ApplicationSpec, Platform)> =
        catalog("hiperlan2").chain(catalog("mixed")).collect();
    // Attempts compared, by what the attempt before them on the same
    // `Step1` ended in.
    let (mut first, mut after_success, mut after_placed_dead_end) = (0, 0, 0);
    // Successes right after a dead end that had placed something: the
    // working ledger it reserved on is reused by this attempt.
    let mut placed_after_placed_dead_end = 0;
    let mut runner = TestRunner::new(ProptestConfig::with_cases(40));
    for (spec, platform) in &cases {
        let table = SpecTable::for_validated(spec);
        runner.run(|tape| {
            let base = any_ledger(platform, tape);
            let mut step1 = Step1::new(&table, platform, &base);
            let mut constraints = Constraints::new();
            let mut before: Option<Result<(), DeadEnd>> = None;
            for _ in 0..MAX_REFINEMENTS {
                let reused = step1.attempt(&constraints);
                let fresh = Step1::new(&table, platform, &base).attempt(&constraints);
                assert_eq!(reused, fresh, "{} after {before:?}", spec.name);
                match before {
                    None => first += 1,
                    Some(Ok(())) => after_success += 1,
                    Some(Err(_)) => {
                        after_placed_dead_end += 1;
                        placed_after_placed_dead_end += usize::from(reused.is_ok());
                    }
                }
                let feedback = match &reused {
                    Ok(out) => out.events.last().map(|e| Feedback::ForbidTile {
                        process: e.process,
                        tile: e.tile,
                    }),
                    Err(dead_end) => dead_end.forbid(),
                };
                if !feedback.is_some_and(|fb| constraints.absorb(&fb)) {
                    break;
                }
                before = Some(reused.map(drop));
            }
        });
    }
    println!(
        "attempts compared: {first} first, {after_success} after a success, \
         {after_placed_dead_end} after a dead end that placed something \
         ({placed_after_placed_dead_end} of them successes)"
    );
    assert_eq!(first, cases.len() * 40);
    // Measured: 1117, 1151 and 228.
    assert!(
        after_success > 450,
        "{after_success} attempts after a success"
    );
    assert!(
        after_placed_dead_end > 600,
        "{after_placed_dead_end} attempts after a dead end"
    );
    assert!(
        placed_after_placed_dead_end > 90,
        "{placed_after_placed_dead_end} successes after a dead end"
    );
}

/// What `map` answers for `spec` on `base`: the outcome's JSON, or the
/// error.
fn answer(spec: &ApplicationSpec, platform: &Platform, base: &PlatformState) -> String {
    let mapper = SpatialMapper::new(MapperConfig::default().without_capture());
    match mapper.map(spec, platform, base) {
        Ok(outcome) => serde_json::to_string(&outcome).expect("serializes"),
        Err(e) => format!("{e:?}"),
    }
}

/// `answer` on a thread of its own, whose store starts empty.
fn cold_answer(spec: &ApplicationSpec, platform: &Platform, base: &PlatformState) -> String {
    let (spec, platform, base) = (spec.clone(), platform.clone(), base.clone());
    std::thread::spawn(move || answer(&spec, &platform, &base))
        .join()
        .expect("map does not panic")
}

/// Every spec of `mixed` and `hiperlan2` and five synthetic seeds, each on
/// its catalog's platform, empty and half full.
fn store_cases() -> Vec<(ApplicationSpec, Platform, PlatformState)> {
    let (mesh, mixed) = catalog_world("mixed").expect("registered").instance(42);
    let synthetic = (1..=5).map(|seed| {
        synthetic_app(&SyntheticConfig {
            seed,
            shape: match seed % 2 {
                0 => GraphShape::Chain,
                _ => GraphShape::ForkJoin { width: 2 },
            },
            ..SyntheticConfig::default()
        })
    });
    let on_mesh = mixed
        .into_iter()
        .chain(synthetic)
        .map(|s| (s, mesh.clone()));
    on_mesh
        .chain(catalog("hiperlan2"))
        .flat_map(|(spec, platform)| {
            let half = half_occupied(&platform);
            [
                (spec.clone(), platform.clone(), platform.initial_state()),
                (spec, platform, half),
            ]
        })
        .collect()
}

#[test]
fn a_warm_thread_answers_as_a_fresh_one() {
    let cases = store_cases();
    let (mut mapped, mut refused) = (0, 0);
    // Twice round on this thread: the second round reads every spec from
    // the store, the first compiles some and reads others.
    for round in 0..2 {
        for (spec, platform, base) in &cases {
            let warm = answer(spec, platform, base);
            assert_eq!(
                warm,
                cold_answer(spec, platform, base),
                "round {round}, `{}`",
                spec.name
            );
            if round == 1 {
                if warm.starts_with('{') {
                    mapped += 1;
                } else {
                    refused += 1;
                }
            }
        }
    }
    assert!(
        mapped >= 10 && refused >= 1,
        "{mapped} mapped, {refused} refused"
    );
}

#[test]
fn a_spec_mutated_after_it_was_compiled_is_compiled_again() {
    let platform = paper_platform();
    let empty = platform.initial_state();
    let mut spec = hiperlan2_receiver(Hiperlan2Mode::Qpsk34);
    let first = answer(&spec, &platform, &empty);
    assert!(first.starts_with('{'), "{first}");

    // A latency bound no mapping meets.
    let bound = spec.qos.max_latency_ps;
    spec.qos.max_latency_ps = Some(1);
    let bounded = answer(&spec, &platform, &empty);
    assert!(bounded.starts_with("NoFeasibleMapping"), "{bounded}");
    assert_eq!(bounded, cold_answer(&spec, &platform, &empty));
    spec.qos.max_latency_ps = bound;
    assert_eq!(answer(&spec, &platform, &empty), first);

    spec.name = "renamed receiver".into();
    assert_eq!(answer(&spec, &platform, &empty), first);
    assert_eq!(cold_answer(&spec, &platform, &empty), first);

    // One implementation with an input port too many, under the same
    // process, channel and implementation counts.
    let original = spec.library.clone();
    let mut library = ImplementationLibrary::new();
    for (pid, _) in spec.graph.processes() {
        for (ix, implementation) in original.impls_for(pid).iter().enumerate() {
            let mut implementation = implementation.clone();
            if (pid.index(), ix) == (0, 0) {
                implementation.inputs.push(implementation.inputs[0].clone());
            }
            library.register(pid, implementation);
        }
    }
    assert_eq!(library.len(), original.len());
    spec.library = library;
    for _ in 0..2 {
        let refused = SpatialMapper::default().map(&spec, &platform, &empty);
        assert!(
            matches!(
                refused,
                Err(MapError::InvalidSpec(AppModelError::PortMismatch { .. }))
            ),
            "{refused:?}"
        );
    }
    spec.library = original;
    assert_eq!(answer(&spec, &platform, &empty), first);
}
