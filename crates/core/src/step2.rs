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
//! The search reads the application through a [`SpecTable`]: the scan order
//! is the table's topological order, a candidate is rescored over the
//! table's incidence row of the one or two processes it touches, and every
//! apply/undo takes its claims from the table's claim slots — per candidate
//! the search scans no channel list, sorts nothing and allocates nothing.
//! [`SearchCtx`] is that search over a caller's table; the spec-taking
//! [`improve_assignment_with`] builds a table for one call.

use crate::claims::reservation_of;
use crate::cost::CostModel;
use crate::feedback::Constraints;
use crate::mapping::Mapping;
use crate::spec_table::SpecTable;
use crate::trace::{Step2Event, Step2Move, Step2Trace};
use rtsm_app::{ApplicationSpec, Endpoint, KpnChannelId, ProcessId};
use rtsm_platform::{Platform, PlatformState, TileId};
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

    /// Σ of this cost model's channel terms over the channels incident to
    /// `p0` (and `p1`, deduplicating channels incident to both) under the
    /// current assignment — the only terms a move/swap of those processes
    /// can change. O(degree), not O(channels).
    fn local_cost(&self, mapping: &Mapping, p0: ProcessId, p1: Option<ProcessId>) -> u64 {
        let graph = &self.table.spec().graph;
        let touches = |id: KpnChannelId, p: ProcessId| {
            let ch = graph.channel(id);
            ch.src == Endpoint::Process(p) || ch.dst == Endpoint::Process(p)
        };
        let mut sum = 0u64;
        let mut add = |id: KpnChannelId| {
            let ch = graph.channel(id);
            if let (Some(a), Some(b)) = (
                mapping.endpoint_tile(self.platform, ch.src),
                mapping.endpoint_tile(self.platform, ch.dst),
            ) {
                sum += self
                    .cost_model
                    .channel_cost(self.platform, ch.tokens_per_period, a, b);
            }
        };
        for &id in self.table.incident(p0) {
            add(id);
        }
        if let Some(p1) = p1 {
            for &id in self.table.incident(p1) {
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
        match candidate {
            Step2Move::Move { process, to } => {
                let a = mapping.assignment(*process).expect("assigned in step 1");
                let claim = self.table.claim(*process, a.impl_index);
                working
                    .release_tile(a.tile, &reservation_of(&claim))
                    .expect("claim was reserved");
                if self.constraints.is_tile_forbidden(*process, *to)
                    || !working.fits_tile(self.platform, *to, &claim)
                {
                    working
                        .claim_tile(self.platform, a.tile, &reservation_of(&claim))
                        .expect("restoring a just-released claim");
                    return false;
                }
                working
                    .claim_tile(self.platform, *to, &reservation_of(&claim))
                    .expect("fits_tile just checked");
                mapping.assign(*process, a.impl_index, *to);
                true
            }
            Step2Move::Swap { a, b } => {
                let aa = mapping.assignment(*a).expect("assigned in step 1");
                let ab = mapping.assignment(*b).expect("assigned in step 1");
                let claim_a = self.table.claim(*a, aa.impl_index);
                let claim_b = self.table.claim(*b, ab.impl_index);
                working
                    .release_tile(aa.tile, &reservation_of(&claim_a))
                    .expect("claim was reserved");
                working
                    .release_tile(ab.tile, &reservation_of(&claim_b))
                    .expect("claim was reserved");
                let ok = !self.constraints.is_tile_forbidden(*a, ab.tile)
                    && !self.constraints.is_tile_forbidden(*b, aa.tile)
                    && working.fits_tile(self.platform, ab.tile, &claim_a)
                    && {
                        working
                            .claim_tile(self.platform, ab.tile, &reservation_of(&claim_a))
                            .expect("fits_tile just checked");
                        if working.fits_tile(self.platform, aa.tile, &claim_b) {
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
                        .claim_tile(self.platform, aa.tile, &reservation_of(&claim_a))
                        .expect("restoring a just-released claim");
                    working
                        .claim_tile(self.platform, ab.tile, &reservation_of(&claim_b))
                        .expect("restoring a just-released claim");
                    return false;
                }
                working
                    .claim_tile(self.platform, aa.tile, &reservation_of(&claim_b))
                    .expect("swap target was just vacated");
                mapping.assign(*a, aa.impl_index, ab.tile);
                mapping.assign(*b, ab.impl_index, aa.tile);
                true
            }
        }
    }

    /// The tile a move must return to on undo: the process's tile *before*
    /// the candidate is applied. `None` for swaps, which are their own
    /// inverse and need no origin.
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

    /// Undoes a previously applied candidate. `origin` must be the value
    /// [`SearchCtx::origin_of`] captured before the apply — typed as an
    /// `Option` so an unfilled inversion target is a panic, not a bogus
    /// tile id.
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
        let ok = self.apply(mapping, working, &inverse);
        debug_assert!(ok, "undo of an applied candidate always fits");
    }

    /// All candidates for `process` — moves to same-kind tiles and swaps
    /// with same-kind processes — generated into the caller's reusable
    /// buffer (cleared first) instead of a fresh allocation per scan.
    ///
    /// Constraint-aware pruning: a pinned process generates no candidates
    /// at all (every move or swap would take it off its pin, which the
    /// oracle would reject one by one), and no process offers a swap with
    /// a pinned partner. Unconstrained searches are untouched.
    fn candidates_for(&self, mapping: &Mapping, process: ProcessId, out: &mut Vec<Step2Move>) {
        out.clear();
        if self.constraints.pinned_tile(process).is_some() {
            return;
        }
        let Some(assignment) = mapping.assignment(process) else {
            return;
        };
        let kind = self
            .table
            .implementation(process, assignment.impl_index)
            .tile_kind;
        for (tile, _) in self.platform.tiles_of_kind(kind) {
            if tile != assignment.tile {
                out.push(Step2Move::Move { process, to: tile });
            }
        }
        for (other, other_assignment) in mapping.assignments() {
            if other == process
                || self.table.spec().graph.process(other).is_control
                || self.constraints.pinned_tile(other).is_some()
            {
                continue;
            }
            let other_kind = self
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

    /// Evaluates `candidate` incrementally: only the channel terms incident
    /// to the touched processes are rescored (O(degree) instead of
    /// O(channels)), and no snapshot is allocated. Mapping and state are
    /// restored before returning. `None` if the candidate does not fit.
    ///
    /// `current_cost` must be the model's cost of the current assignment;
    /// the returned value is exactly what a full recompute would give
    /// (debug-asserted).
    fn evaluate(
        &self,
        mapping: &mut Mapping,
        working: &mut PlatformState,
        candidate: &Step2Move,
        current_cost: u64,
    ) -> Option<u64> {
        let (p0, p1) = match candidate {
            Step2Move::Move { process, .. } => (*process, None),
            Step2Move::Swap { a, b } => (*a, Some(*b)),
        };
        let origin = Self::origin_of(mapping, candidate);
        let before = self.local_cost(mapping, p0, p1);
        if !self.apply(mapping, working, candidate) {
            return None;
        }
        let after = self.local_cost(mapping, p0, p1);
        // Moves and swaps never change implementation choices, so the base
        // term cancels; only incident channel terms differ.
        let cost = current_cost - before + after;
        debug_assert_eq!(
            cost,
            self.cost_model
                .assignment_cost(mapping, self.table.spec(), self.platform),
            "incremental delta must match a full recompute for {candidate:?}"
        );
        self.undo(mapping, working, candidate, origin);
        Some(cost)
    }

    /// The Table-2 row content: the full `(process, tile)` assignment with
    /// `candidate` applied. Only called for winning candidates when trace
    /// capture is on.
    fn snapshot_with(
        &self,
        mapping: &mut Mapping,
        working: &mut PlatformState,
        candidate: &Step2Move,
    ) -> Vec<(ProcessId, TileId)> {
        let origin = Self::origin_of(mapping, candidate);
        let applied = self.apply(mapping, working, candidate);
        debug_assert!(applied, "snapshotting a candidate that was evaluated");
        let snapshot = mapping.assignments().map(|(p, a)| (p, a.tile)).collect();
        self.undo(mapping, working, candidate, origin);
        snapshot
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
        // Reused across every scan position — one allocation per search, not
        // one per process visit.
        let mut candidates: Vec<Step2Move> = Vec::new();
        let mut tried: BTreeSet<TriedKey> = BTreeSet::new();

        'search: loop {
            for &process in self.table.order() {
                // This process's best untried reassignment.
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
                    let applied = self.apply(mapping, working, &candidate);
                    debug_assert!(applied, "evaluated candidates fit");
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
        // The debug assertion inside `evaluate` cross-checks every delta
        // against a full recompute; drive it under all three models.
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
