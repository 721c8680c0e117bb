//! Step 2: improve the process-to-tile assignment by local search (§3.2).
//!
//! For a process we either *move* it to the best available tile of the same
//! type or *swap* it with another process on the same tile type; "the sum
//! of all Manhattan distances of the application … can increase or remain
//! the same for any iteration. When this happens, that choice is rejected
//! and another is evaluated" (§4.4).
//!
//! Processes are scanned in application (topological) order; each
//! iteration evaluates the scanned process's best reassignment, keeps it on
//! strict improvement (restarting the scan) and reverts it otherwise,
//! de-duplicating already-tried candidates until a full pass keeps nothing.
//! This regenerates Table 2 row for row.
//!
//! Candidate tiles are filtered for locally sufficient resources (including
//! NI bandwidth), maintaining adequacy and adherence by construction.
//!
//! The search reads the application through a [`SpecTable`] and the
//! assignment through a dense per-process view (tile, implementation, tile
//! kind, whether it can be a swap partner), built once per search and
//! changed only when a candidate is kept. The scan order is the table's
//! topological order; candidates are generated from the view; a candidate is
//! scored first, from the view alone, over the table's incidence row of the
//! one or two processes it touches with their tiles substituted; and only a
//! candidate that would be the best so far is asked whether it was tried
//! and whether it fits, by non-mutating ledger queries. Per candidate the
//! search scans no channel list, sorts nothing, allocates nothing and
//! mutates nothing: the ledger and the `Mapping` change once per kept
//! candidate. [`SearchCtx`] is that search over a caller's table; the
//! spec-taking [`improve_assignment_with`] builds a table for one call.

use crate::claims::reservation_of;
use crate::cost::CostModel;
use crate::feedback::Constraints;
use crate::mapping::Mapping;
use crate::spec_table::SpecTable;
use crate::trace::{Step2Event, Step2Move, Step2Trace};
use rtsm_app::{ApplicationSpec, Endpoint, KpnChannelId, ProcessId};
use rtsm_platform::{Platform, PlatformState, TileClaim, TileId, TileKind};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

/// Hard cap on kept-or-reverted iterations of one search ("a maximum
/// number of iterations", §3.2).
const MAX_EVALUATIONS: u64 = 1000;

/// Cost decrease a candidate must reach to be kept ("a minimum gain from the
/// current iteration", §3.2).
const MIN_GAIN: u64 = 1;

/// Step 2 has no settings: it is the one scan of §3.2, bounded by
/// `MAX_EVALUATIONS` (1000) and `MIN_GAIN` (1). It is kept only because the
/// `benchmark/` crate names it; it goes when `benchmark/` is next maintained.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct Step2Config;

/// A scored candidate: cost with it applied plus the move itself. The
/// Table-2 snapshot is captured lazily (only when tracing is on and only
/// for the winning candidate), never per evaluation.
type ScoredCandidate = (u64, Step2Move);

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum TriedKey {
    Move(ProcessId, TileId),
    Swap(ProcessId, ProcessId), // ordered pair (min, max)
}

fn swap_key(a: ProcessId, b: ProcessId) -> TriedKey {
    if a <= b {
        TriedKey::Swap(a, b)
    } else {
        TriedKey::Swap(b, a)
    }
}

fn candidate_key(c: &Step2Move) -> TriedKey {
    match c {
        Step2Move::Move { process, to } => TriedKey::Move(*process, *to),
        Step2Move::Swap { a, b } => swap_key(*a, *b),
    }
}

/// One step-2 search problem: the spec table, the platform, the constraint
/// oracle and the cost model. [`SearchCtx::improve`] runs the search.
pub struct SearchCtx<'a> {
    table: &'a SpecTable<'a>,
    platform: &'a Platform,
    constraints: &'a Constraints,
    cost_model: &'a CostModel,
}

impl<'a> SearchCtx<'a> {
    /// A search over `table`'s spec on `platform`.
    pub fn new(
        table: &'a SpecTable<'a>,
        platform: &'a Platform,
        constraints: &'a Constraints,
        cost_model: &'a CostModel,
    ) -> Self {
        SearchCtx {
            table,
            platform,
            constraints,
            cost_model,
        }
    }

    /// The view of `mapping` the search runs on.
    fn view_of(&self, mapping: &Mapping) -> View {
        let graph = &self.table.spec().graph;
        let mut placed = vec![None; graph.n_processes()];
        for (process, assignment) in mapping.assignments() {
            placed[process.index()] = Some(Placed {
                tile: assignment.tile,
                impl_index: assignment.impl_index,
                kind: self
                    .table
                    .implementation(process, assignment.impl_index)
                    .tile_kind,
                swappable: !graph.process(process).is_control
                    && self.constraints.pinned_tile(process).is_none(),
            });
        }
        View(placed)
    }

    /// The tile realising `end` when `tile_of` places the processes.
    fn endpoint_tile(
        &self,
        end: Endpoint,
        tile_of: impl Fn(ProcessId) -> Option<TileId>,
    ) -> Option<TileId> {
        match end {
            Endpoint::Process(p) => tile_of(p),
            Endpoint::StreamInput => self.platform.stream_input_tile(),
            Endpoint::StreamOutput => self.platform.stream_output_tile(),
        }
    }

    /// Σ of this cost model's channel terms over the channels incident to
    /// `p0` (and `p1`, deduplicating channels incident to both), with the
    /// processes on the tiles `tile_of` reports — the only terms a
    /// move/swap of those processes can change. O(degree), not
    /// O(channels).
    fn local_cost(
        &self,
        p0: ProcessId,
        p1: Option<ProcessId>,
        tile_of: impl Fn(ProcessId) -> Option<TileId> + Copy,
    ) -> u64 {
        let graph = &self.table.spec().graph;
        let term = |id: KpnChannelId| {
            let ch = graph.channel(id);
            match (
                self.endpoint_tile(ch.src, tile_of),
                self.endpoint_tile(ch.dst, tile_of),
            ) {
                (Some(a), Some(b)) => {
                    self.cost_model
                        .channel_cost(self.platform, ch.tokens_per_period, a, b)
                }
                _ => 0,
            }
        };
        let mut sum: u64 = self.table.incident(p0).map(term).sum();
        if let Some(p1) = p1 {
            let here = Endpoint::Process(p0);
            for id in self.table.incident(p1) {
                let ch = graph.channel(id);
                if ch.src != here && ch.dst != here {
                    sum += term(id);
                }
            }
        }
        sum
    }

    /// The cost with `candidate` made, from the view alone: `current` minus
    /// `before` (the candidate's [`SearchCtx::local_cost`] now) plus its
    /// local cost with the candidate's tiles substituted. Moves and swaps
    /// never change implementation choices, so the base term cancels.
    ///
    /// Debug builds hold the result to a full recompute on the same
    /// substituted view, which allocates nothing.
    fn score(
        &self,
        mapping: &Mapping,
        view: &View,
        candidate: &Step2Move,
        current: u64,
        before: u64,
    ) -> u64 {
        let (p0, p1) = touched(candidate);
        let after = self.local_cost(p0, p1, |p| view.tile_after(candidate, p));
        let cost = current - before + after;
        debug_assert_eq!(
            cost,
            self.cost_model.base_cost(mapping, self.table.spec())
                + self
                    .cost_model
                    .channel_costs(self.table.spec(), self.platform, |end| {
                        self.endpoint_tile(end, |p| view.tile_after(candidate, p))
                    }),
            "incremental delta must match a full recompute for {candidate:?}"
        );
        cost
    }

    /// Whether `candidate` fits: what applying it would find, asked
    /// without applying it.
    fn fits(&self, view: &View, working: &PlatformState, candidate: &Step2Move) -> bool {
        match *candidate {
            Step2Move::Move { process, to } => {
                // `to` is never the process's own tile, so releasing its
                // reservation first would not change what `to` holds.
                let claim = self.table.claim(process, view.placed(process).impl_index);
                !self.constraints.is_tile_forbidden(process, to)
                    && working.fits_tile(self.platform, to, &claim)
            }
            Step2Move::Swap { a, b } => {
                let (pa, pb) = (view.placed(a), view.placed(b));
                let claim_a = self.table.claim(a, pa.impl_index);
                let claim_b = self.table.claim(b, pb.impl_index);
                let (held_a, held_b) = (reservation_of(&claim_a), reservation_of(&claim_b));
                let fits = |tile, vacated: &TileClaim, claim: &TileClaim| {
                    working.fits_after_vacating(self.platform, tile, vacated, claim)
                };
                !self.constraints.is_tile_forbidden(a, pb.tile)
                    && !self.constraints.is_tile_forbidden(b, pa.tile)
                    && if pa.tile == pb.tile {
                        // Both partners on one multi-slot tile: `a` lands
                        // where both were released, `b` where `a` is back.
                        let both = TileClaim {
                            slots: held_a.slots + held_b.slots,
                            memory_bytes: held_a.memory_bytes + held_b.memory_bytes,
                            cycles_per_second: held_a.cycles_per_second + held_b.cycles_per_second,
                            injection: held_a.injection + held_b.injection,
                            ejection: held_a.ejection + held_b.ejection,
                        };
                        fits(pa.tile, &both, &claim_a) && fits(pa.tile, &held_b, &claim_b)
                    } else {
                        fits(pb.tile, &held_b, &claim_a) && fits(pa.tile, &held_a, &claim_b)
                    }
            }
        }
    }

    /// Makes `candidate`, which [`SearchCtx::fits`] accepted, in the
    /// ledger, the mapping and the view.
    fn commit(
        &self,
        mapping: &mut Mapping,
        working: &mut PlatformState,
        view: &mut View,
        candidate: &Step2Move,
    ) {
        let held =
            |p: ProcessId, placed: &Placed| reservation_of(&self.table.claim(p, placed.impl_index));
        match *candidate {
            Step2Move::Move { process, to } => {
                let placed = view.placed(process);
                let held = held(process, &placed);
                working
                    .release_tile(placed.tile, &held)
                    .expect("claim was reserved");
                working
                    .claim_tile(self.platform, to, &held)
                    .expect("the fit check passed");
                mapping.assign(process, placed.impl_index, to);
                view.move_to(process, to);
            }
            Step2Move::Swap { a, b } => {
                let (pa, pb) = (view.placed(a), view.placed(b));
                let (held_a, held_b) = (held(a, &pa), held(b, &pb));
                working
                    .release_tile(pa.tile, &held_a)
                    .expect("claim was reserved");
                working
                    .release_tile(pb.tile, &held_b)
                    .expect("claim was reserved");
                working
                    .claim_tile(self.platform, pb.tile, &held_a)
                    .expect("the fit check passed");
                working
                    .claim_tile(self.platform, pa.tile, &held_b)
                    .expect("the fit check passed");
                mapping.assign(a, pa.impl_index, pb.tile);
                mapping.assign(b, pb.impl_index, pa.tile);
                view.move_to(a, pb.tile);
                view.move_to(b, pa.tile);
            }
        }
    }

    /// Runs the search, improving `mapping` in place (and keeping
    /// `working`'s tile reservations in sync).
    ///
    /// With `capture = false` the search makes identical decisions but
    /// records no events or assignment snapshots — only the costs and the
    /// [`Step2Trace::evaluations`] counter, which stays exactly what
    /// `events.len()` would be with capture on. This is the mapper hot path:
    /// simulators and benches map thousands of times and read only counters.
    pub fn improve(
        &self,
        mapping: &mut Mapping,
        working: &mut PlatformState,
        capture: bool,
    ) -> Step2Trace {
        let spec = self.table.spec();
        let mut trace = Step2Trace {
            initial_cost: self
                .cost_model
                .assignment_cost(mapping, spec, self.platform),
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
        let mut view = self.view_of(mapping);
        let mut tried: BTreeSet<TriedKey> = BTreeSet::new();

        'search: loop {
            for process in self.table.order() {
                // The order holds stream processes only, so not swappable
                // means pinned: every candidate would take it off its pin.
                let Some(placed) = view.0[process.index()].filter(|p| p.swappable) else {
                    continue;
                };
                // This process's best untried reassignment that fits: a
                // candidate is scored first and asked the rest only if it
                // would be the best so far, so the first strict minimum in
                // candidate order wins.
                let mut best: Option<ScoredCandidate> = None;
                let mut offer = |candidate: Step2Move, cost: u64| {
                    if best.as_ref().is_none_or(|(c, _)| cost < *c)
                        && !tried.contains(&candidate_key(&candidate))
                        && self.fits(&view, working, &candidate)
                    {
                        best = Some((cost, candidate));
                    }
                };
                // Moves to the other tiles of its kind, then swaps with the
                // swappable processes of its kind, in process order.
                let here = self.local_cost(process, None, |p| view.tile(p));
                for (to, _) in self.platform.tiles_of_kind(placed.kind) {
                    if to != placed.tile {
                        trace.generated += 1;
                        let candidate = Step2Move::Move { process, to };
                        offer(
                            candidate,
                            self.score(mapping, &view, &candidate, current_cost, here),
                        );
                    }
                }
                for (index, other) in view.0.iter().enumerate() {
                    let b = ProcessId::from_index(index);
                    if other.is_some_and(|o| o.swappable && o.kind == placed.kind) && b != process {
                        trace.generated += 1;
                        let candidate = Step2Move::Swap { a: process, b };
                        let before = self.local_cost(process, Some(b), |p| view.tile(p));
                        offer(
                            candidate,
                            self.score(mapping, &view, &candidate, current_cost, before),
                        );
                    }
                }
                let Some((cost, candidate)) = best else {
                    continue;
                };
                trace.evaluations += 1;
                let kept = current_cost.saturating_sub(cost) >= MIN_GAIN;
                if capture {
                    trace.events.push(Step2Event {
                        candidate,
                        cost,
                        kept,
                        assignment: view.snapshot_after(&candidate),
                    });
                }
                if kept {
                    self.commit(mapping, working, &mut view, &candidate);
                    current_cost = cost;
                    tried.clear();
                    if trace.evaluations >= MAX_EVALUATIONS {
                        break 'search;
                    }
                    // Restart the scan from the top of the process order.
                    continue 'search;
                }
                tried.insert(candidate_key(&candidate));
                if trace.evaluations >= MAX_EVALUATIONS {
                    break 'search;
                }
            }
            // A full pass kept nothing (every keep restarts the scan above):
            // the search has converged.
            break;
        }

        trace.final_cost = current_cost;
        trace
    }
}

/// The processes `candidate` reassigns.
fn touched(candidate: &Step2Move) -> (ProcessId, Option<ProcessId>) {
    match *candidate {
        Step2Move::Move { process, .. } => (process, None),
        Step2Move::Swap { a, b } => (a, Some(b)),
    }
}

/// An assigned process as the search sees it.
#[derive(Debug, Clone, Copy)]
struct Placed {
    tile: TileId,
    impl_index: usize,
    kind: TileKind,
    /// May be a swap partner: neither a control process nor pinned.
    swappable: bool,
}

/// The search's dense view of the assignment: one entry per process of the
/// graph, `None` for an unassigned one. Built once per search; only a kept
/// candidate changes it.
struct View(Vec<Option<Placed>>);

impl View {
    fn placed(&self, process: ProcessId) -> Placed {
        self.0[process.index()].expect("assigned in step 1")
    }

    fn tile(&self, process: ProcessId) -> Option<TileId> {
        self.0[process.index()].map(|p| p.tile)
    }

    /// `process`'s tile once `candidate` is made.
    fn tile_after(&self, candidate: &Step2Move, process: ProcessId) -> Option<TileId> {
        match *candidate {
            Step2Move::Move { process: p, to } if p == process => Some(to),
            Step2Move::Swap { a, b } if a == process => self.tile(b),
            Step2Move::Swap { a, b } if b == process => self.tile(a),
            _ => self.tile(process),
        }
    }

    fn move_to(&mut self, process: ProcessId, tile: TileId) {
        if let Some(placed) = &mut self.0[process.index()] {
            placed.tile = tile;
        }
    }

    /// The Table-2 row content: every `(process, tile)` with `candidate`
    /// made, in process order (as `Mapping::assignments` lists them).
    fn snapshot_after(&self, candidate: &Step2Move) -> Vec<(ProcessId, TileId)> {
        (0..self.0.len())
            .map(ProcessId::from_index)
            .filter_map(|p| Some((p, self.tile_after(candidate, p)?)))
            .collect()
    }
}

/// Runs step 2, improving `mapping` in place (and keeping `working`'s tile
/// reservations in sync). Returns the full search trace (capture on).
pub fn improve_assignment(
    spec: &ApplicationSpec,
    platform: &Platform,
    constraints: &Constraints,
    mapping: &mut Mapping,
    working: &mut PlatformState,
    cost_model: &CostModel,
) -> Step2Trace {
    improve_assignment_with(
        spec,
        platform,
        constraints,
        mapping,
        working,
        cost_model,
        &Step2Config,
        true,
    )
}

/// [`improve_assignment`] with an explicit trace-capture switch (see
/// [`SearchCtx::improve`]). Builds its own [`SpecTable`]; callers that run
/// several steps on one spec build the table once and run a [`SearchCtx`].
/// Nothing reads `_config`; it is kept only because the `benchmark/` crate
/// passes it (see [`Step2Config`]).
#[allow(clippy::too_many_arguments)]
pub fn improve_assignment_with(
    spec: &ApplicationSpec,
    platform: &Platform,
    constraints: &Constraints,
    mapping: &mut Mapping,
    working: &mut PlatformState,
    cost_model: &CostModel,
    _config: &Step2Config,
    capture: bool,
) -> Step2Trace {
    let table = SpecTable::for_validated(spec);
    SearchCtx::new(&table, platform, constraints, cost_model).improve(mapping, working, capture)
}

#[cfg(test)]
mod twin;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::step1::assign_implementations;
    use rtsm_app::hiperlan2::{hiperlan2_receiver, Hiperlan2Mode};
    use rtsm_platform::paper::paper_platform;

    fn run_paper() -> (rtsm_app::ApplicationSpec, Platform, Mapping, Step2Trace) {
        let spec = hiperlan2_receiver(Hiperlan2Mode::Qpsk34);
        let platform = paper_platform();
        let constraints = Constraints::new();
        let out = assign_implementations(&spec, &platform, &platform.initial_state(), &constraints)
            .unwrap();
        let mut mapping = out.mapping;
        let mut working = out.working;
        let trace = improve_assignment(
            &spec,
            &platform,
            &constraints,
            &mut mapping,
            &mut working,
            &CostModel::HopCount,
        );
        (spec, platform, mapping, trace)
    }

    /// The headline reproduction: Table 2's exact cost sequence.
    #[test]
    fn paper_scan_regenerates_table2() {
        let (spec, platform, mapping, trace) = run_paper();
        assert_eq!(trace.initial_cost, 11);
        let costs: Vec<u64> = trace.events.iter().map(|e| e.cost).collect();
        let kept: Vec<bool> = trace.events.iter().map(|e| e.kept).collect();
        // Rows 1–3 of Table 2, then the final all-revert pass ("No further
        // choices") which the table collapses.
        assert_eq!(&costs[..3], &[11, 9, 7]);
        assert_eq!(&kept[..3], &[false, true, true]);
        assert!(kept[3..].iter().all(|k| !k), "trailing pass keeps nothing");
        assert_eq!(trace.final_cost, 7);
        assert_eq!(mapping.communication_hops(&spec, &platform), 7);

        // Final placement (Table 2 last row): ARM1=Frq, ARM2=Pfx,
        // MONTIUM1=Rem, MONTIUM2=Inv.OFDM.
        let tile_of = |name: &str| {
            let p = spec.graph.process_by_name(name).unwrap();
            platform
                .tile(mapping.assignment(p).unwrap().tile)
                .name
                .clone()
        };
        assert_eq!(tile_of("Prefix removal"), "ARM2");
        assert_eq!(tile_of("Freq. off. correction"), "ARM1");
        assert_eq!(tile_of("Inverse OFDM"), "MONTIUM2");
        assert_eq!(tile_of("Remainder"), "MONTIUM1");
    }

    #[test]
    fn table2_iteration1_is_the_arm_swap() {
        let (spec, _, _, trace) = run_paper();
        let pfx = spec.graph.process_by_name("Prefix removal").unwrap();
        let frq = spec.graph.process_by_name("Freq. off. correction").unwrap();
        match trace.events[0].candidate {
            Step2Move::Swap { a, b } => {
                assert_eq!(swap_key(a, b), swap_key(pfx, frq));
            }
            other => panic!("iteration 1 should be the ARM swap, got {other:?}"),
        }
    }

    #[test]
    fn adherence_preserved_throughout() {
        let (spec, platform, mapping, _) = run_paper();
        assert!(crate::criteria::is_adherent(
            &mapping,
            &spec,
            &platform,
            &platform.initial_state()
        ));
    }

    #[test]
    fn capture_off_same_decisions_same_counters() {
        let spec = hiperlan2_receiver(Hiperlan2Mode::Qpsk34);
        let platform = paper_platform();
        let constraints = Constraints::new();
        let out = assign_implementations(&spec, &platform, &platform.initial_state(), &constraints)
            .unwrap();
        let mut m_on = out.mapping.clone();
        let mut w_on = out.working.clone();
        let on = improve_assignment(
            &spec,
            &platform,
            &constraints,
            &mut m_on,
            &mut w_on,
            &CostModel::HopCount,
        );
        let mut m_off = out.mapping.clone();
        let mut w_off = out.working.clone();
        let off = improve_assignment_with(
            &spec,
            &platform,
            &constraints,
            &mut m_off,
            &mut w_off,
            &CostModel::HopCount,
            &Step2Config,
            false,
        );
        assert_eq!(m_on, m_off, "identical final mappings");
        assert_eq!(w_on, w_off, "identical working states");
        assert_eq!(on.final_cost, off.final_cost);
        assert_eq!(on.initial_cost, off.initial_cost);
        assert_eq!(on.evaluations, off.evaluations);
        assert_eq!(on.events.len() as u64, on.evaluations);
        assert!(off.events.is_empty(), "capture off records no events");
        assert!(off.initial_assignment.is_empty());
    }

    #[test]
    fn incremental_delta_exact_for_all_cost_models() {
        // The debug assertion inside `score` cross-checks every candidate's
        // delta against a full recompute; drive it under all three models.
        for model in [
            CostModel::HopCount,
            CostModel::TrafficWeighted,
            CostModel::Energy,
        ] {
            let spec = hiperlan2_receiver(Hiperlan2Mode::Qpsk34);
            let platform = paper_platform();
            let constraints = Constraints::new();
            let out =
                assign_implementations(&spec, &platform, &platform.initial_state(), &constraints)
                    .unwrap();
            let mut mapping = out.mapping;
            let mut working = out.working;
            let trace = improve_assignment(
                &spec,
                &platform,
                &constraints,
                &mut mapping,
                &mut working,
                &model,
            );
            assert_eq!(
                trace.final_cost,
                model.assignment_cost(&mapping, &spec, &platform),
                "{model:?}: tracked cost must equal a full recompute"
            );
        }
    }
}
