//! The oracle for step 2's scoring view: the search as it was written
//! before the view — every candidate applied to the ledger and the
//! `Mapping`, rescored, and undone — must be indistinguishable from
//! [`SearchCtx::improve`]: the same `Mapping`, the same ledger and the same
//! [`Step2Trace`], events included, under all three cost models with
//! capture on and off. The cases are random ledgers of the paper platform
//! and the mixed 4×4 mesh with one to three compute slots per tile, so swap
//! partners can share one: partly occupied, with failed tiles, excluded
//! tiles, tiles forbidden by feedback, and pins.
//!
//! Mutations tried by hand against this file, each caught by
//! `the_view_makes_the_reference_scans_decisions`: checking two partners on
//! one tile as if they sat on two; letting pinned processes be swap
//! partners; letting the last minimum win instead of the first (`<=`);
//! skipping the tried set; skipping the forbidden-tile check of a move.
//! Dropping the failed-tile check from `PlatformState::fits_after_vacating`
//! passes here — step 1 never places a process on a failed tile, so no swap
//! partner sits on one, and this reference cannot restore a claim on one —
//! and is caught by `tests/transaction_invariants.rs`.

use super::*;
use crate::constraints::MappingConstraints;
use crate::feedback::Feedback;
use crate::step1::Step1;
use proptest::prelude::*;
use rtsm_app::hiperlan2::{hiperlan2_receiver, Hiperlan2Mode};
use rtsm_platform::paper::paper_platform;
use rtsm_platform::{PlatformBuilder, Tile};
use rtsm_workloads::apps::{dvbt_rx, jpeg_encoder, mp3_decoder, wlan_tx};
use rtsm_workloads::mesh_platform;

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
}

#[test]
fn the_view_makes_the_reference_scans_decisions() {
    const ROUNDS: u32 = 6;
    const STEPS: u32 = 40;
    let mut runner = TestRunner::new(ProptestConfig::with_cases(ROUNDS));
    let mut coverage = Coverage::default();
    for round in 0..runner.cases() {
        for (template, specs) in &worlds() {
            let mut draw = |upper: u32| Strategy::generate(&(0..upper), runner.rng());
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
                    let (slots, memory, cycles) = (draw(tile.compute_slots + 1), draw(4), draw(4));
                    let quarters = |whole: u64, n: u32| whole * u64::from(n * loaded) / 4;
                    let claim = TileClaim {
                        slots: slots * loaded,
                        memory_bytes: quarters(tile.memory_bytes, memory),
                        cycles_per_second: quarters(u64::from(tile.clock_mhz) * 1_000_000, cycles),
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
                let Ok(placed) = Step1::new(&table, &platform, &base).attempt(&constraints) else {
                    coverage.unmapped += 1;
                    continue;
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
                                let tile_of = |p| event.assignment.iter().find(|(q, _)| *q == p);
                                coverage.shared_tile_swaps +=
                                    u32::from(tile_of(a).map(|t| t.1) == tile_of(b).map(|t| t.1));
                            }
                        }
                    }
                }
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
    eprintln!("{coverage:?}");
}
