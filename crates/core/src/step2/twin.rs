//! The oracle for step 2's scoring: the search as it was written before
//! its scoring vector — every candidate applied to the ledger and the
//! `Mapping`, rescored over the touched processes' channels, and undone,
//! with a `BTreeSet` of tried candidates — must be indistinguishable from
//! [`SearchCtx::improve`]: the same `Mapping`, the same ledger and the same
//! [`Step2Trace`], events included, under all three cost models with
//! capture on and off. The cases are random ledgers of the paper platform
//! and the mixed 4×4 mesh with one to three compute slots per tile, so swap
//! partners can share one: partly occupied, with failed tiles, excluded
//! tiles, tiles forbidden by feedback, and pins. The mesh runs the mixed
//! catalog, and the `synthetic` catalog's chains, two fork-joins and two
//! specs whose same-kind processes are joined by parallel channels.
//!
//! Mutations tried by hand against `step2.rs`, each caught by
//! `the_view_makes_the_reference_scans_decisions` in a release build
//! (debug builds stop earlier, at the full-recompute assertion): dropping
//! the swap's `2·S` term; recording `here` once per search instead of once
//! per pass, so a kept candidate leaves it stale; dropping the same-tile
//! swap rule, so a swap reads `cost_at` on a tile the scan's moves did not
//! fill (the partners' own); summing `S` over one of the partners' channels
//! instead of all of them (caught only with the parallel-channel specs);
//! checking two partners on one tile as if they sat on two; letting pinned
//! processes be swap partners; letting the last minimum win instead of the
//! first (`<=`); skipping the tried set; recording a reverted swap on the
//! partner's entry instead of the scanned process's; skipping the
//! forbidden-tile check of a move. Dropping `Z` passes: every cost model
//! prices a channel of 0 hops at 0, so `Z` is 0 for every spec. Dropping
//! the failed-tile check from `PlatformState::fits_after_vacating` passes
//! here — step 1 never places a process on a failed tile, so no swap
//! partner sits on one, and this reference cannot restore a claim on one —
//! and is caught by `tests/transaction_invariants.rs`.

use super::*;
use crate::constraints::MappingConstraints;
use crate::feedback::Feedback;
use crate::step1::Step1;
use proptest::prelude::*;
use rtsm_app::{Implementation, ImplementationLibrary, KpnChannelId, ProcessGraph, QosSpec};
use rtsm_dataflow::PhaseVec;
use rtsm_platform::{PlatformBuilder, Tile};
use rtsm_workloads::{catalog_world, synthetic_app, GraphShape, SyntheticConfig};
use std::collections::BTreeSet;

/// A key of the reference's tried set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum TriedKey {
    Move(ProcessId, TileId),
    Swap(ProcessId, ProcessId), // ordered pair (min, max)
}

fn candidate_key(c: &Step2Move) -> TriedKey {
    match *c {
        Step2Move::Move { process, to } => TriedKey::Move(process, to),
        Step2Move::Swap { a, b } => TriedKey::Swap(a.min(b), a.max(b)),
    }
}

/// The processes `candidate` reassigns.
fn touched(candidate: &Step2Move) -> (ProcessId, Option<ProcessId>) {
    match *candidate {
        Step2Move::Move { process, .. } => (process, None),
        Step2Move::Swap { a, b } => (a, Some(b)),
    }
}

/// The search with every candidate applied, rescored and undone.
struct Reference<'c, 'a>(&'c SearchCtx<'a>);

impl Reference<'_, '_> {
    /// Σ of the cost model's channel terms incident to `p0` (and `p1`,
    /// each channel once) under `mapping`.
    fn local_cost(&self, mapping: &Mapping, p0: ProcessId, p1: Option<ProcessId>) -> u64 {
        let ctx = self.0;
        let graph = &ctx.table.spec().graph;
        let touches = |id: KpnChannelId, p: ProcessId| {
            let ch = graph.channel(id);
            ch.src == Endpoint::Process(p) || ch.dst == Endpoint::Process(p)
        };
        let mut sum = 0u64;
        let mut add = |id: KpnChannelId| {
            let ch = graph.channel(id);
            if let (Some(a), Some(b)) = (
                mapping.endpoint_tile(ctx.platform, ch.src),
                mapping.endpoint_tile(ctx.platform, ch.dst),
            ) {
                sum += ctx
                    .cost_model
                    .channel_cost(ctx.platform, ch.tokens_per_period, a, b);
            }
        };
        for id in ctx.table.incident(p0) {
            add(id);
        }
        if let Some(p1) = p1 {
            for id in ctx.table.incident(p1) {
                if !touches(id, p0) {
                    add(id);
                }
            }
        }
        sum
    }

    /// Applies `candidate` to mapping + working state. Returns `false`
    /// (leaving both untouched) if resources do not fit.
    fn apply(
        &self,
        mapping: &mut Mapping,
        working: &mut PlatformState,
        candidate: &Step2Move,
    ) -> bool {
        let ctx = self.0;
        match candidate {
            Step2Move::Move { process, to } => {
                let a = mapping.assignment(*process).expect("assigned in step 1");
                let claim = ctx.table.claim(*process, a.impl_index);
                working
                    .release_tile(a.tile, &reservation_of(&claim))
                    .expect("claim was reserved");
                if ctx.constraints.is_tile_forbidden(*process, *to)
                    || !working.fits_tile(ctx.platform, *to, &claim)
                {
                    working
                        .claim_tile(ctx.platform, a.tile, &reservation_of(&claim))
                        .expect("restoring a just-released claim");
                    return false;
                }
                working
                    .claim_tile(ctx.platform, *to, &reservation_of(&claim))
                    .expect("fits_tile just checked");
                mapping.assign(*process, a.impl_index, *to);
                true
            }
            Step2Move::Swap { a, b } => {
                let aa = mapping.assignment(*a).expect("assigned in step 1");
                let ab = mapping.assignment(*b).expect("assigned in step 1");
                let claim_a = ctx.table.claim(*a, aa.impl_index);
                let claim_b = ctx.table.claim(*b, ab.impl_index);
                working
                    .release_tile(aa.tile, &reservation_of(&claim_a))
                    .expect("claim was reserved");
                working
                    .release_tile(ab.tile, &reservation_of(&claim_b))
                    .expect("claim was reserved");
                let ok = !ctx.constraints.is_tile_forbidden(*a, ab.tile)
                    && !ctx.constraints.is_tile_forbidden(*b, aa.tile)
                    && working.fits_tile(ctx.platform, ab.tile, &claim_a)
                    && {
                        working
                            .claim_tile(ctx.platform, ab.tile, &reservation_of(&claim_a))
                            .expect("fits_tile just checked");
                        if working.fits_tile(ctx.platform, aa.tile, &claim_b) {
                            true
                        } else {
                            working
                                .release_tile(ab.tile, &reservation_of(&claim_a))
                                .expect("rollback of a claim just made");
                            false
                        }
                    };
                if !ok {
                    working
                        .claim_tile(ctx.platform, aa.tile, &reservation_of(&claim_a))
                        .expect("restoring a just-released claim");
                    working
                        .claim_tile(ctx.platform, ab.tile, &reservation_of(&claim_b))
                        .expect("restoring a just-released claim");
                    return false;
                }
                working
                    .claim_tile(ctx.platform, aa.tile, &reservation_of(&claim_b))
                    .expect("swap target was just vacated");
                mapping.assign(*a, aa.impl_index, ab.tile);
                mapping.assign(*b, ab.impl_index, aa.tile);
                true
            }
        }
    }

    /// The tile a move must return to on undo; `None` for a swap, which
    /// is its own inverse.
    fn origin_of(mapping: &Mapping, candidate: &Step2Move) -> Option<TileId> {
        match candidate {
            Step2Move::Move { process, .. } => Some(
                mapping
                    .assignment(*process)
                    .expect("assigned in step 1")
                    .tile,
            ),
            Step2Move::Swap { .. } => None,
        }
    }

    /// Undoes an applied candidate; `origin` is what
    /// [`Reference::origin_of`] said before the apply.
    fn undo(
        &self,
        mapping: &mut Mapping,
        working: &mut PlatformState,
        candidate: &Step2Move,
        origin: Option<TileId>,
    ) {
        let inverse = match candidate {
            Step2Move::Move { process, .. } => Step2Move::Move {
                process: *process,
                to: origin.expect("undoing a move requires its origin tile"),
            },
            Step2Move::Swap { a, b } => Step2Move::Swap { a: *a, b: *b },
        };
        assert!(
            self.apply(mapping, working, &inverse),
            "undo of an applied candidate always fits"
        );
    }

    /// All candidates for `process`: moves to same-kind tiles, then swaps
    /// with same-kind processes, walked off the `Mapping`.
    fn candidates_for(&self, mapping: &Mapping, process: ProcessId, out: &mut Vec<Step2Move>) {
        let ctx = self.0;
        out.clear();
        if ctx.constraints.pinned_tile(process).is_some() {
            return;
        }
        let Some(assignment) = mapping.assignment(process) else {
            return;
        };
        let kind = ctx
            .table
            .implementation(process, assignment.impl_index)
            .tile_kind;
        for (tile, _) in ctx.platform.tiles_of_kind(kind) {
            if tile != assignment.tile {
                out.push(Step2Move::Move { process, to: tile });
            }
        }
        for (other, other_assignment) in mapping.assignments() {
            if other == process
                || ctx.table.spec().graph.process(other).is_control
                || ctx.constraints.pinned_tile(other).is_some()
            {
                continue;
            }
            let other_kind = ctx
                .table
                .implementation(other, other_assignment.impl_index)
                .tile_kind;
            if other_kind == kind {
                out.push(Step2Move::Swap {
                    a: process,
                    b: other,
                });
            }
        }
    }

    /// The cost with `candidate` applied (then undone), or `None` if it
    /// does not fit.
    fn evaluate(
        &self,
        mapping: &mut Mapping,
        working: &mut PlatformState,
        candidate: &Step2Move,
        current_cost: u64,
    ) -> Option<u64> {
        let (p0, p1) = touched(candidate);
        let origin = Self::origin_of(mapping, candidate);
        let before = self.local_cost(mapping, p0, p1);
        if !self.apply(mapping, working, candidate) {
            return None;
        }
        let after = self.local_cost(mapping, p0, p1);
        let cost = current_cost - before + after;
        let ctx = self.0;
        assert_eq!(
            cost,
            ctx.cost_model
                .assignment_cost(mapping, ctx.table.spec(), ctx.platform),
            "incremental delta must match a full recompute for {candidate:?}"
        );
        self.undo(mapping, working, candidate, origin);
        Some(cost)
    }

    /// The full `(process, tile)` assignment with `candidate` applied.
    fn snapshot_with(
        &self,
        mapping: &mut Mapping,
        working: &mut PlatformState,
        candidate: &Step2Move,
    ) -> Vec<(ProcessId, TileId)> {
        let origin = Self::origin_of(mapping, candidate);
        assert!(
            self.apply(mapping, working, candidate),
            "evaluated candidates fit"
        );
        let snapshot = mapping.assignments().map(|(p, a)| (p, a.tile)).collect();
        self.undo(mapping, working, candidate, origin);
        snapshot
    }

    /// [`SearchCtx::improve`] over the apply/evaluate/undo scan.
    fn improve(
        &self,
        mapping: &mut Mapping,
        working: &mut PlatformState,
        capture: bool,
    ) -> Step2Trace {
        let ctx = self.0;
        let spec = ctx.table.spec();
        let mut trace = Step2Trace {
            initial_cost: ctx.cost_model.assignment_cost(mapping, spec, ctx.platform),
            initial_assignment: if capture {
                mapping.assignments().map(|(p, a)| (p, a.tile)).collect()
            } else {
                Vec::new()
            },
            events: Vec::new(),
            evaluations: 0,
            generated: 0,
            final_cost: 0,
        };
        let mut current_cost = trace.initial_cost;
        let mut candidates: Vec<Step2Move> = Vec::new();
        let mut tried: BTreeSet<TriedKey> = BTreeSet::new();

        'search: loop {
            for process in ctx.table.order() {
                let mut best: Option<ScoredCandidate> = None;
                self.candidates_for(mapping, process, &mut candidates);
                trace.generated += candidates.len() as u64;
                for candidate in &candidates {
                    if tried.contains(&candidate_key(candidate)) {
                        continue;
                    }
                    if let Some(cost) = self.evaluate(mapping, working, candidate, current_cost) {
                        if best.as_ref().is_none_or(|(c, _)| cost < *c) {
                            best = Some((cost, *candidate));
                        }
                    }
                }
                let Some((cost, candidate)) = best else {
                    continue;
                };
                trace.evaluations += 1;
                let kept = current_cost.saturating_sub(cost) >= MIN_GAIN;
                if capture {
                    let assignment = self.snapshot_with(mapping, working, &candidate);
                    trace.events.push(Step2Event {
                        candidate,
                        cost,
                        kept,
                        assignment,
                    });
                }
                if kept {
                    assert!(
                        self.apply(mapping, working, &candidate),
                        "evaluated candidates fit"
                    );
                    current_cost = cost;
                    tried.clear();
                    if trace.evaluations >= MAX_EVALUATIONS {
                        break 'search;
                    }
                    continue 'search;
                }
                tried.insert(candidate_key(&candidate));
                if trace.evaluations >= MAX_EVALUATIONS {
                    break 'search;
                }
            }
            break;
        }

        trace.final_cost = current_cost;
        trace
    }
}

/// A spec of `n` processes, each with a one-phase MONTIUM and ARM
/// implementation, over `channels` as `(source, destination, tokens)` —
/// `None` is the stream input as a source and the stream output as a
/// destination — parallel channels included.
fn linked(
    name: &str,
    n: usize,
    channels: &[(Option<usize>, Option<usize>, u64)],
) -> ApplicationSpec {
    let mut graph = ProcessGraph::new();
    let processes: Vec<ProcessId> = (0..n)
        .map(|i| graph.add_process_abbrev(format!("q{i}"), format!("q{i}")))
        .collect();
    for &(src, dst, tokens) in channels {
        let end = |p: Option<usize>, stream| p.map_or(stream, |p| Endpoint::Process(processes[p]));
        graph
            .add_channel(
                end(src, Endpoint::StreamInput),
                end(dst, Endpoint::StreamOutput),
                tokens,
            )
            .expect("valid endpoints");
    }
    let mut library = ImplementationLibrary::new();
    for (i, &p) in processes.iter().enumerate() {
        // One firing per period: every port moves its channel's tokens.
        let rates = |ports: Vec<KpnChannelId>| -> Vec<PhaseVec> {
            ports
                .iter()
                .map(|&c| PhaseVec::from_slice(&[graph.channel(c).tokens_per_period]))
                .collect()
        };
        for (kind, cycles, energy, memory) in [
            (TileKind::Montium, 100, 20_000, 2048),
            (TileKind::Arm, 250, 38_000, 8192),
        ] {
            library.register(
                p,
                Implementation {
                    name: format!("q{i} @ {kind}"),
                    tile_kind: kind,
                    wcet: PhaseVec::from_slice(&[cycles]),
                    inputs: rates(graph.inputs_of(p)),
                    outputs: rates(graph.outputs_of(p)),
                    energy_pj_per_period: energy + 1000 * i as u64,
                    memory_bytes: memory,
                },
            );
        }
    }
    let spec = ApplicationSpec {
        name: name.to_string(),
        graph,
        qos: QosSpec::with_period(4_000_000),
        library,
    };
    assert_eq!(spec.validate(), Ok(()), "{name}");
    spec
}

/// The `synthetic` catalog's five chains (`rtsm_sim::Catalog::synthetic(42,
/// 5)`: 3 to 7 processes preferring MONTIUM, most with ARM alternatives),
/// two fork-joins, and specs whose same-kind processes are joined by two
/// or three parallel channels — many swap partners of one kind, and many
/// partners that share a multi-slot tile with a channel between them.
fn synthetic_specs() -> Vec<ApplicationSpec> {
    let config = |seed, n_processes, shape| SyntheticConfig {
        seed,
        n_processes,
        shape,
        tile_kinds: vec![TileKind::Montium, TileKind::Arm],
        ..SyntheticConfig::default()
    };
    let chains =
        (0..5).map(|i| synthetic_app(&config(42 + i, 3 + i as usize % 5, GraphShape::Chain)));
    let forks = [(7, 3), (6, 2)]
        .map(|(n, width)| synthetic_app(&config(7, n, GraphShape::ForkJoin { width })));
    let (a, b, c, d, e) = (Some(0), Some(1), Some(2), Some(3), Some(4));
    let parallel = [
        linked(
            "parallel pairs",
            5,
            &[
                (None, a, 16),
                (a, b, 8),
                (a, b, 24),
                (b, c, 40),
                (b, c, 8),
                (b, c, 16),
                (c, d, 32),
                (d, e, 8),
                (d, e, 8),
                (e, None, 16),
            ],
        ),
        linked(
            "parallel diamond",
            4,
            &[
                (None, a, 32),
                (a, b, 16),
                (a, b, 48),
                (a, c, 8),
                (b, d, 24),
                (c, d, 8),
                (c, d, 40),
                (d, None, 16),
            ],
        ),
    ];
    chains.chain(forks).chain(parallel).collect()
}

/// HIPERLAN/2 in every mode on the paper platform, and the mixed catalog
/// and the synthetic specs on the mixed 4×4 mesh (platform seed 42, the
/// repo-wide default).
fn worlds() -> Vec<(Platform, Vec<ApplicationSpec>)> {
    let world = |name| catalog_world(name).expect("registered").instance(42);
    let mixed = world("mixed");
    let on_the_mesh = (mixed.0.clone(), synthetic_specs());
    vec![world("hiperlan2"), mixed, on_the_mesh]
}

/// Channels between `a` and `b`, either way.
fn links(spec: &ApplicationSpec, a: ProcessId, b: ProcessId) -> usize {
    let (a, b) = (Endpoint::Process(a), Endpoint::Process(b));
    spec.graph
        .stream_channels()
        .filter(|(_, ch)| (ch.src, ch.dst) == (a, b) || (ch.src, ch.dst) == (b, a))
        .count()
}

/// What the random cases exercised, summed over the run.
#[derive(Debug, Default)]
struct Coverage {
    cases: u32,
    /// Step 1 placed nothing on the drawn ledger.
    unmapped: u32,
    /// Searches run on each side.
    searches: u32,
    with_a_pin: u32,
    with_a_forbidden_tile: u32,
    with_a_failed_tile: u32,
    kept: u32,
    reverted: u32,
    /// Events of a swap whose partners share one tile.
    shared_tile_swaps: u32,
    /// ... and are joined by a channel.
    shared_tile_linked_swaps: u32,
    /// Events of a swap whose partners, on two tiles, are joined by
    /// parallel channels.
    parallel_linked_swaps: u32,
}

#[test]
fn the_view_makes_the_reference_scans_decisions() {
    const ROUNDS: u32 = 6;
    const STEPS: u32 = 40;
    let mut runner = TestRunner::new(ProptestConfig::with_cases(ROUNDS));
    let mut coverage = Coverage::default();
    for round in 0..runner.cases() {
        for (template, specs) in &worlds() {
            let mut draw = |upper: u32| runner.tape().draw(upper);
            // This round's tiles, one to three compute slots each.
            let platform = template
                .tiles()
                .map(|(_, tile)| Tile {
                    compute_slots: 1 + draw(3),
                    ..tile.clone()
                })
                .fold(
                    PlatformBuilder::mesh(template.width(), template.height()).noc(*template.noc()),
                    PlatformBuilder::tile_custom,
                )
                .build()
                .expect("the template layout is valid");
            let n_tiles = platform.n_tiles() as u32;

            for step in 0..STEPS {
                runner.case(|tape| {
                    let mut draw = |upper: u32| tape.draw(upper);
                    let spec = &specs[draw(specs.len() as u32) as usize];
                    let table = SpecTable::for_validated(spec);
                    let n_processes = spec.graph.n_processes() as u32;

                    // Under the step's load a tile has some of its slots and up
                    // to three quarters of its memory and cycles taken; one in
                    // ten fails.
                    let mut base = platform.initial_state();
                    let load = draw(3);
                    for (id, tile) in platform.tiles() {
                        let loaded = u32::from(draw(4) < load);
                        let (slots, memory, cycles) =
                            (draw(tile.compute_slots + 1), draw(4), draw(4));
                        let quarters = |whole: u64, n: u32| whole * u64::from(n * loaded) / 4;
                        let claim = TileClaim {
                            slots: slots * loaded,
                            memory_bytes: quarters(tile.memory_bytes, memory),
                            cycles_per_second: quarters(
                                u64::from(tile.clock_mhz) * 1_000_000,
                                cycles,
                            ),
                            injection: 0,
                            ejection: 0,
                        };
                        base.claim_tile(&platform, id, &claim)
                            .expect("within the tile");
                        if draw(10) == 0 {
                            base.fail_tile(id);
                        }
                    }
                    // Draws past the tile count leave the constraint out.
                    let mut external = MappingConstraints::none();
                    let (excluded, pinned, forbidden) =
                        (draw(3 * n_tiles), draw(3 * n_tiles), draw(2 * n_tiles));
                    if excluded < n_tiles {
                        external = external.exclude_tile(TileId::from_index(excluded as usize));
                    }
                    if pinned < n_tiles {
                        external = external.pin(
                            ProcessId::from_index(draw(n_processes) as usize),
                            TileId::from_index(pinned as usize),
                        );
                    }
                    let mut constraints = Constraints::with_external(external);
                    if forbidden < n_tiles {
                        constraints.absorb(&Feedback::ForbidTile {
                            process: ProcessId::from_index(draw(n_processes) as usize),
                            tile: TileId::from_index(forbidden as usize),
                        });
                    }

                    coverage.cases += 1;
                    let Ok(placed) = Step1::new(&table, &platform, &base).attempt(&constraints)
                    else {
                        coverage.unmapped += 1;
                        return;
                    };
                    coverage.with_a_pin += u32::from(pinned < n_tiles);
                    coverage.with_a_forbidden_tile +=
                        u32::from(excluded < n_tiles || forbidden < n_tiles);
                    coverage.with_a_failed_tile += u32::from(base.any_failed());
                    for model in [
                        CostModel::HopCount,
                        CostModel::TrafficWeighted,
                        CostModel::Energy,
                    ] {
                        let ctx = SearchCtx::new(&table, &platform, &constraints, &model);
                        for capture in [false, true] {
                            let at = format!(
                                "round {round}, `{}`, step {step}, {model:?}, capture {capture}",
                                spec.name
                            );
                            let (mut mapping, mut working) =
                                (placed.mapping.clone(), placed.working.clone());
                            let trace = ctx.improve(&mut mapping, &mut working, capture);
                            let (mut expected_mapping, mut expected_working) =
                                (placed.mapping.clone(), placed.working.clone());
                            let expected = Reference(&ctx).improve(
                                &mut expected_mapping,
                                &mut expected_working,
                                capture,
                            );
                            assert_eq!(trace, expected, "{at}");
                            assert_eq!(mapping, expected_mapping, "{at}");
                            assert_eq!(working, expected_working, "{at}");

                            coverage.searches += 1;
                            for event in &trace.events {
                                coverage.kept += u32::from(event.kept);
                                coverage.reverted += u32::from(!event.kept);
                                if let Step2Move::Swap { a, b } = event.candidate {
                                    let tile_of =
                                        |p| event.assignment.iter().find(|(q, _)| *q == p);
                                    let shared = tile_of(a).map(|t| t.1) == tile_of(b).map(|t| t.1);
                                    let links = links(spec, a, b);
                                    coverage.shared_tile_swaps += u32::from(shared);
                                    coverage.shared_tile_linked_swaps +=
                                        u32::from(shared && links > 0);
                                    coverage.parallel_linked_swaps +=
                                        u32::from(!shared && links >= 2);
                                }
                            }
                        }
                    }
                });
            }
        }
    }
    // The cases must reach what the view could get wrong.
    assert!(coverage.searches >= 1000, "{coverage:?}");
    assert!(coverage.with_a_pin >= 10, "{coverage:?}");
    assert!(coverage.with_a_forbidden_tile >= 50, "{coverage:?}");
    assert!(coverage.with_a_failed_tile >= 50, "{coverage:?}");
    assert!(coverage.kept >= 100, "{coverage:?}");
    assert!(coverage.reverted >= 100, "{coverage:?}");
    assert!(coverage.shared_tile_swaps >= 10, "{coverage:?}");
    assert!(coverage.shared_tile_linked_swaps >= 10, "{coverage:?}");
    assert!(coverage.parallel_linked_swaps >= 20, "{coverage:?}");
    eprintln!("{coverage:?}");
}
