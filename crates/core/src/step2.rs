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
//! The search reads the application through a [`SpecTable`] and keeps its
//! state in one vector, built once per search: an entry per process (its
//! tile, whether it may move, two local costs), then room for the scanned
//! process's neighbour row. A candidate is scored from that vector by what
//! it changes:
//!
//! * every pass (the first, and the one after each kept candidate) records
//!   `here[p]` for each movable process `p`: the sum of its channels' terms
//!   where everything is;
//! * the scanned process `a` reads its neighbour row once: tokens per
//!   period and the tile at the other end, per stream channel;
//! * a move of `a` to `t` scores `current − here[a] + cost_at[t]`, where
//!   `cost_at[t]` is a sum over that precomputed row with `a` on `t`;
//! * a swap of `a` (on `ta`) with `b` (on `tb ≠ ta`) is one pass over `b`'s
//!   row: `current + cost_at[tb] + X_b + 2·S − here[a] − here[b] − Z`, where
//!   `X_b` sums `b`'s channels that do not touch `a` with `b` on `ta`, `S`
//!   sums the channels between `a` and `b` at their distance, and `Z` the
//!   same channels at distance 0, where `cost_at[tb]` counted them (`b`
//!   still on `tb`). Partners on one multi-slot tile swap at `current`.
//!
//! Only a candidate that would be the best so far is asked whether it was
//! tried and whether it fits, by non-mutating ledger queries. Per candidate
//! the search allocates nothing and writes nothing but `cost_at`: the
//! ledger, the `Mapping` and the tiles in the vector change once per kept
//! candidate. Debug builds hold every score to a full recompute.
//! [`SearchCtx`] is that search over a caller's table; the spec-taking
//! [`improve_assignment_with`] builds a table for one call.

use crate::claims::reservation_of;
use crate::cost::CostModel;
use crate::feedback::Constraints;
use crate::mapping::Mapping;
use crate::spec_table::SpecTable;
use crate::trace::{Step2Event, Step2Move, Step2Trace};
use rtsm_app::{ApplicationSpec, Endpoint, ProcessId};
use rtsm_platform::{Platform, PlatformState, TileClaim, TileId, TileKind};
use serde::{Deserialize, Serialize};

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

    /// The view of `mapping` the search runs on, with room for the widest
    /// neighbour row.
    fn view_of(&self, mapping: &Mapping) -> View {
        let graph = &self.table.spec().graph;
        let processes = graph.n_processes();
        let pids = || (0..processes).map(ProcessId::from_index);
        let widest = pids()
            .map(|p| self.table.incident(p).len())
            .max()
            .unwrap_or(0);
        let mut entries = Vec::with_capacity(processes + widest);
        entries.extend(pids().map(|process| {
            let assignment = mapping.assignment(process);
            let movable = !graph.process(process).is_control
                && self.constraints.pinned_tile(process).is_none();
            Entry::Process(Process {
                here: 0,
                cost_at: 0,
                tile: pack(assignment.map(|a| a.tile)),
                reverted: NOWHERE,
                kind: assignment
                    .filter(|_| movable)
                    .map(|a| self.table.implementation(process, a.impl_index).tile_kind),
            })
        }));
        View { entries, processes }
    }

    /// `process`'s neighbour row: per stream channel, its tokens per period
    /// and the endpoint at its other end.
    fn row(&self, process: ProcessId) -> impl Iterator<Item = (u64, Endpoint)> + '_ {
        let graph = &self.table.spec().graph;
        let end = Endpoint::Process(process);
        self.table.incident(process).map(move |id| {
            let ch = graph.channel(id);
            let other = if ch.src == end { ch.dst } else { ch.src };
            (ch.tokens_per_period, other)
        })
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

    /// The cost model's term of a channel carrying `tokens` between `a`
    /// and `b`.
    fn term(&self, tokens: u64, a: TileId, b: TileId) -> u64 {
        self.cost_model.channel_cost(self.platform, tokens, a, b)
    }

    /// Starts a pass: records `here` for every movable process and empties
    /// the tried set.
    fn start_pass(&self, view: &mut View) {
        for process in (0..view.processes).map(ProcessId::from_index) {
            let Some((_, tile)) = view.movable(process) else {
                continue;
            };
            let here = self
                .row(process)
                .filter_map(|(tokens, end)| {
                    Some(self.term(tokens, tile, self.endpoint_tile(end, |p| view.tile(p))?))
                })
                .sum();
            let entry = view.process_mut(process);
            entry.here = here;
            entry.reverted = NOWHERE;
        }
    }

    /// `cost`, the score of `candidate`; debug builds hold it to a full
    /// recompute on the view with the candidate's tiles substituted, which
    /// allocates nothing.
    fn checked(&self, mapping: &Mapping, view: &View, candidate: &Step2Move, cost: u64) -> u64 {
        debug_assert_eq!(
            cost,
            self.cost_model.base_cost(mapping, self.table.spec())
                + self
                    .cost_model
                    .channel_costs(self.table.spec(), self.platform, |end| {
                        self.endpoint_tile(end, |p| view.tile_after(candidate, p))
                    }),
            "incremental score must match a full recompute for {candidate:?}"
        );
        cost
    }

    /// Whether `candidate` fits: what applying it would find, asked
    /// without applying it.
    fn fits(&self, mapping: &Mapping, working: &PlatformState, candidate: &Step2Move) -> bool {
        let placed = |p| mapping.assignment(p).expect("assigned in step 1");
        match *candidate {
            Step2Move::Move { process, to } => {
                // `to` is never the process's own tile, so releasing its
                // reservation first would not change what `to` holds.
                let claim = self.table.claim(process, placed(process).impl_index);
                !self.constraints.is_tile_forbidden(process, to)
                    && working.fits_tile(self.platform, to, &claim)
            }
            Step2Move::Swap { a, b } => {
                let (pa, pb) = (placed(a), placed(b));
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
        let placed = |mapping: &Mapping, p| mapping.assignment(p).expect("assigned in step 1");
        let held = |p: ProcessId, impl_index| reservation_of(&self.table.claim(p, impl_index));
        match *candidate {
            Step2Move::Move { process, to } => {
                let placed = placed(mapping, process);
                let held = held(process, placed.impl_index);
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
                let (pa, pb) = (placed(mapping, a), placed(mapping, b));
                let (held_a, held_b) = (held(a, pa.impl_index), held(b, pb.impl_index));
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
        let mut current = trace.initial_cost;
        let mut view = self.view_of(mapping);

        'search: loop {
            self.start_pass(&mut view);
            for a in self.table.order() {
                // The order holds stream processes only, so not movable
                // means pinned: every candidate would take it off its pin.
                let Some((kind, ta)) = view.movable(a) else {
                    continue;
                };
                let here_a = view.process(a).here;
                view.read_row(self, a);
                // This process's best untried reassignment that fits: a
                // candidate is scored first and asked the rest only if it
                // would be the best so far, so the first strict minimum in
                // candidate order wins.
                let mut best: Option<ScoredCandidate> = None;
                let offer = |best: &mut Option<ScoredCandidate>,
                             candidate: Step2Move,
                             cost: u64,
                             tried: bool| {
                    if best.as_ref().is_none_or(|(c, _)| cost < *c)
                        && !tried
                        && self.fits(mapping, working, &candidate)
                    {
                        *best = Some((cost, candidate));
                    }
                };
                // Moves to the other tiles of its kind, then swaps with the
                // movable processes of its kind, in process order.
                for (to, _) in self.platform.tiles_of_kind(kind) {
                    if to != ta {
                        trace.generated += 1;
                        let cost_at = view.row_cost(self, to);
                        view.set_cost_at(to, cost_at);
                        let candidate = Step2Move::Move { process: a, to };
                        let cost = current - here_a + cost_at;
                        offer(
                            &mut best,
                            candidate,
                            self.checked(mapping, &view, &candidate, cost),
                            false,
                        );
                    }
                }
                for b in (0..view.processes).map(ProcessId::from_index) {
                    let Some((kind_b, tb)) = view.movable(b).filter(|_| b != a) else {
                        continue;
                    };
                    if kind_b != kind {
                        continue;
                    }
                    // `tb` is a tile of this kind (step 1 places a process on
                    // a tile of its implementation's kind): unless it is
                    // `ta`, the moves above filled `cost_at` for it.
                    trace.generated += 1;
                    let candidate = Step2Move::Swap { a, b };
                    let partner = view.process(b);
                    let cost = if ta == tb {
                        current
                    } else {
                        let (mut x, mut s, mut z) = (0, 0, 0);
                        for (tokens, end) in self.row(b) {
                            if end == Endpoint::Process(a) {
                                s += self.term(tokens, ta, tb);
                                z += self.cost_model.term(tokens, 0);
                            } else if let Some(other) = self.endpoint_tile(end, |p| view.tile(p)) {
                                x += self.term(tokens, ta, other);
                            }
                        }
                        current + partner.cost_at + x + 2 * s - here_a - partner.here - z
                    };
                    offer(
                        &mut best,
                        candidate,
                        self.checked(mapping, &view, &candidate, cost),
                        partner.reverted == pack_process(a),
                    );
                }
                let Some((cost, candidate)) = best else {
                    continue;
                };
                trace.evaluations += 1;
                let kept = current.saturating_sub(cost) >= MIN_GAIN;
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
                    current = cost;
                    if trace.evaluations >= MAX_EVALUATIONS {
                        break 'search;
                    }
                    // Restart the scan from the top of the process order.
                    continue 'search;
                }
                // The tried set holds the candidates reverted since the last
                // keep. A scan adds at most one, and no process is scanned
                // twice between keeps, so a reverted move is never generated
                // again before the set empties; a reverted swap comes back
                // only as its partner's candidate later in the pass. The
                // scanned process's entry naming its swap partner is
                // therefore the whole set.
                if let Step2Move::Swap { b, .. } = candidate {
                    view.process_mut(a).reverted = pack_process(b);
                }
                if trace.evaluations >= MAX_EVALUATIONS {
                    break 'search;
                }
            }
            // A full pass kept nothing (every keep restarts the scan above):
            // the search has converged.
            break;
        }

        trace.final_cost = current;
        trace
    }
}

/// What an entry holds for "no tile" or "no process".
const NOWHERE: u32 = u32::MAX;

/// `tile` as an entry holds it.
fn pack(tile: Option<TileId>) -> u32 {
    tile.map_or(NOWHERE, |t| {
        u32::try_from(t.index()).expect("tile ids fit 32 bits")
    })
}

/// The tile an entry holds.
fn unpack(tile: u32) -> Option<TileId> {
    (tile != NOWHERE).then(|| TileId::from_index(tile as usize))
}

/// `process` as an entry holds it.
fn pack_process(process: ProcessId) -> u32 {
    u32::try_from(process.index()).expect("a spec's counts fit 32 bits")
}

/// A process as the search sees it.
#[derive(Debug, Clone, Copy)]
struct Process {
    /// Its local cost this pass: the sum of its channels' terms where
    /// everything is (movable processes only).
    here: u64,
    /// The scanned process's local cost with it on this process's tile
    /// (filled by the scan's moves; read by its swaps).
    cost_at: u64,
    /// Where it is, packed; `NOWHERE` while unassigned.
    tile: u32,
    /// The partner of the swap this process's scan reverted in this pass,
    /// packed; `NOWHERE` if none.
    reverted: u32,
    /// Its tile kind, if it may move and be a swap partner: assigned, not a
    /// control process and not pinned.
    kind: Option<TileKind>,
}

/// One entry of the [`View`]'s vector.
#[derive(Debug, Clone, Copy)]
enum Entry {
    Process(Process),
    /// A stream channel of the scanned process: its tokens per period and
    /// the tile at its other end, packed.
    Channel(u64, u32),
}

/// The search's state, in one vector built once per search: an entry per
/// process of the graph, then the scanned process's neighbour row.
struct View {
    entries: Vec<Entry>,
    processes: usize,
}

impl View {
    fn process(&self, process: ProcessId) -> Process {
        match self.entries[process.index()] {
            Entry::Process(entry) => entry,
            Entry::Channel(..) => unreachable!("the first entries are the processes'"),
        }
    }

    fn process_mut(&mut self, process: ProcessId) -> &mut Process {
        match &mut self.entries[process.index()] {
            Entry::Process(entry) => entry,
            Entry::Channel(..) => unreachable!("the first entries are the processes'"),
        }
    }

    fn tile(&self, process: ProcessId) -> Option<TileId> {
        unpack(self.process(process).tile)
    }

    /// `process`'s kind and tile, if it may move.
    fn movable(&self, process: ProcessId) -> Option<(TileKind, TileId)> {
        let entry = self.process(process);
        Some((entry.kind?, unpack(entry.tile)?))
    }

    /// Reads `process`'s neighbour row into the vector, past the processes.
    fn read_row(&mut self, ctx: &SearchCtx<'_>, process: ProcessId) {
        self.entries.truncate(self.processes);
        for (tokens, end) in ctx.row(process) {
            let tile = pack(ctx.endpoint_tile(end, |p| self.tile(p)));
            self.entries.push(Entry::Channel(tokens, tile));
        }
    }

    /// The read row's cost with its process on `tile`.
    fn row_cost(&self, ctx: &SearchCtx<'_>, tile: TileId) -> u64 {
        self.entries[self.processes..]
            .iter()
            .map(|entry| match *entry {
                Entry::Channel(tokens, other) => {
                    unpack(other).map_or(0, |other| ctx.term(tokens, tile, other))
                }
                Entry::Process(_) => unreachable!("the row follows the processes"),
            })
            .sum()
    }

    /// Records `cost_at` on every process on `tile`.
    fn set_cost_at(&mut self, tile: TileId, cost_at: u64) {
        let tile = pack(Some(tile));
        for entry in &mut self.entries[..self.processes] {
            if let Entry::Process(entry) = entry {
                if entry.tile == tile {
                    entry.cost_at = cost_at;
                }
            }
        }
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
        self.process_mut(process).tile = pack(Some(tile));
    }

    /// The Table-2 row content: every `(process, tile)` with `candidate`
    /// made, in process order (as `Mapping::assignments` lists them).
    fn snapshot_after(&self, candidate: &Step2Move) -> Vec<(ProcessId, TileId)> {
        (0..self.processes)
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
                assert!((a, b) == (pfx, frq) || (a, b) == (frq, pfx));
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
