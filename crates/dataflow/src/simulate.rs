//! Self-timed discrete-event execution of CSDF graphs.
//!
//! The simulator implements the standard self-timed operational semantics
//! with *space reservation*: a firing starts as soon as
//!
//! 1. the actor is idle (actors are sequential — no auto-concurrency),
//! 2. every input channel holds at least the tokens the current phase
//!    consumes, and
//! 3. every bounded output channel has room for the tokens the phase will
//!    produce (the room is reserved at start and filled at completion).
//!
//! Tokens are consumed at firing start and produced at firing completion;
//! buffer space is reserved at producer start and released at consumer
//! completion. This is exactly the semantics obtained by modelling a
//! `capacity`-bounded channel as a pair of forward/backward edges (the
//! paper's Figure 3 back-edges with `B_i` initial tokens).
//!
//! Periodic steady state is detected *exactly* by hashing normalised
//! simulator states at reference-actor iteration boundaries; the detected
//! `(iterations, period)` pair gives the graph's self-timed throughput.

use crate::error::DataflowError;
use crate::fnv::Fnv64;
use crate::graph::{ActorId, CsdfGraph};
use rtsm_obs as obs;
use std::cmp::Reverse;
use std::collections::hash_map::Entry;
use std::collections::{BinaryHeap, HashMap};
use std::hash::BuildHasherDefault;

/// Configuration knobs for a simulation run.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Stop after this many completed firings (guards against divergence).
    pub max_firings: u64,
    /// Stop when simulated time exceeds this bound.
    pub max_time: u64,
    /// Actor whose full phase-cycle completions delimit steady-state
    /// snapshots. Defaults to actor 0 when `None`.
    pub reference: Option<ActorId>,
    /// When true, stop as soon as a periodic steady state is detected.
    pub stop_at_steady_state: bool,
    /// Actors whose individual firings are recorded in
    /// [`SimOutcome::records`] (for latency measurement).
    pub record: Vec<ActorId>,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            max_firings: 2_000_000,
            max_time: u64::MAX / 4,
            reference: None,
            stop_at_steady_state: true,
            record: Vec::new(),
        }
    }
}

/// A recorded firing of an actor listed in [`SimConfig::record`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FiringRecord {
    /// The recorded actor.
    pub actor: ActorId,
    /// Phase index fired.
    pub phase: u32,
    /// Firing start time.
    pub start: u64,
    /// Firing completion time.
    pub end: u64,
}

/// Exact periodic steady state of a self-timed execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SteadyState {
    /// The reference actor used for detection.
    pub reference: ActorId,
    /// Reference-actor phase-cycles per steady-state period.
    pub iterations: u64,
    /// Steady-state period in time units.
    pub period: u64,
}

/// Result of a simulation run.
#[derive(Debug, Clone)]
pub struct SimOutcome {
    /// Simulated time at which the run stopped.
    pub end_time: u64,
    /// Total completed firings.
    pub total_firings: u64,
    /// Completed firings per actor.
    pub completions: Vec<u64>,
    /// Per channel: the maximum of `tokens + reserved + held` over the run —
    /// the smallest capacity that would never have blocked this schedule.
    pub max_pressure: Vec<u64>,
    /// Detected periodic steady state, if any.
    pub steady: Option<SteadyState>,
    /// True if the run ended because no actor could make progress.
    pub deadlocked: bool,
    /// Firings of the actors listed in [`SimConfig::record`], in completion
    /// order.
    pub records: Vec<FiringRecord>,
}

/// The normalised states met at reference-iteration boundaries, each with
/// the iteration count and time it was first met at.
type Recurrences = HashMap<Vec<u64>, (u64, u64), BuildHasherDefault<Fnv64>>;

/// The graph in flat CSR tables, built once per run so the event loop
/// indexes contiguous arrays instead of chasing `PhaseVec` runs and
/// per-actor heap-allocated adjacency lists. Actor `a`'s input channels are
/// `in_ch[in_off[a]..in_off[a+1]]` (likewise `out_*`); channel `c` consumes
/// `cons_val[cons_off[c] + consumer_phase]` tokens and produces
/// `prod_val[prod_off[c] + producer_phase]`; actor `a`'s phase `p` runs for
/// `dur_val[dur_off[a] + p]` time units.
#[derive(Debug, Default)]
struct Tables {
    in_off: Vec<u32>,
    in_ch: Vec<u32>,
    out_off: Vec<u32>,
    out_ch: Vec<u32>,
    cons_off: Vec<u32>,
    cons_val: Vec<u64>,
    prod_off: Vec<u32>,
    prod_val: Vec<u64>,
    /// Channel capacity, `u64::MAX` when unbounded.
    cap_tab: Vec<u64>,
    src_tab: Vec<u32>,
    dst_tab: Vec<u32>,
    dur_off: Vec<u32>,
    dur_val: Vec<u64>,
}

impl Tables {
    fn new(graph: &CsdfGraph) -> Tables {
        let n = graph.n_actors();
        let m = graph.n_channels();
        // Degree counts, then prefix sums, then a fill pass — the standard
        // CSR construction.
        let mut in_deg = vec![0u32; n];
        let mut out_deg = vec![0u32; n];
        for (_, ch) in graph.channels() {
            out_deg[ch.src.index()] += 1;
            in_deg[ch.dst.index()] += 1;
        }
        let prefix = |deg: &[u32]| {
            let mut off = Vec::with_capacity(deg.len() + 1);
            off.push(0u32);
            for &d in deg {
                off.push(off.last().unwrap() + d);
            }
            off
        };
        let in_off = prefix(&in_deg);
        let out_off = prefix(&out_deg);
        let mut in_ch = vec![0u32; m];
        let mut out_ch = vec![0u32; m];
        let mut in_cursor: Vec<u32> = in_off[..n].to_vec();
        let mut out_cursor: Vec<u32> = out_off[..n].to_vec();
        let mut cons_off = Vec::with_capacity(m + 1);
        let mut prod_off = Vec::with_capacity(m + 1);
        let mut cons_val = Vec::new();
        let mut prod_val = Vec::new();
        let mut cap_tab = Vec::with_capacity(m);
        let mut src_tab = Vec::with_capacity(m);
        let mut dst_tab = Vec::with_capacity(m);
        cons_off.push(0u32);
        prod_off.push(0u32);
        for (ci, ch) in graph.channels() {
            let s = ch.src.index();
            let d = ch.dst.index();
            out_ch[out_cursor[s] as usize] = ci.index() as u32;
            out_cursor[s] += 1;
            in_ch[in_cursor[d] as usize] = ci.index() as u32;
            in_cursor[d] += 1;
            cons_val.extend(ch.cons.iter());
            prod_val.extend(ch.prod.iter());
            cons_off.push(cons_val.len() as u32);
            prod_off.push(prod_val.len() as u32);
            cap_tab.push(ch.capacity.unwrap_or(u64::MAX));
            src_tab.push(s as u32);
            dst_tab.push(d as u32);
        }
        let mut dur_off = Vec::with_capacity(n + 1);
        let mut dur_val = Vec::new();
        dur_off.push(0u32);
        for (_, a) in graph.actors() {
            for p in 0..a.n_phases() {
                dur_val.push(a.phase_duration(p));
            }
            dur_off.push(dur_val.len() as u32);
        }
        Tables {
            in_off,
            in_ch,
            out_off,
            out_ch,
            cons_off,
            cons_val,
            prod_off,
            prod_val,
            cap_tab,
            src_tab,
            dst_tab,
            dur_off,
            dur_val,
        }
    }

    #[inline]
    fn inputs(&self, actor: usize) -> &[u32] {
        &self.in_ch[self.in_off[actor] as usize..self.in_off[actor + 1] as usize]
    }

    #[inline]
    fn outputs(&self, actor: usize) -> &[u32] {
        &self.out_ch[self.out_off[actor] as usize..self.out_off[actor + 1] as usize]
    }

    #[inline]
    fn cons(&self, ci: usize, phase: usize) -> u64 {
        self.cons_val[self.cons_off[ci] as usize + phase]
    }

    #[inline]
    fn prod(&self, ci: usize, phase: usize) -> u64 {
        self.prod_val[self.prod_off[ci] as usize + phase]
    }
}

/// A discrete-event, self-timed CSDF simulator.
///
/// Use [`Simulation::run`] for a complete run; the intermediate state is
/// intentionally private (the outcome carries everything analyses need).
#[derive(Debug)]
pub struct Simulation<'g> {
    graph: &'g CsdfGraph,
    config: SimConfig,
    now: u64,
    data: Vec<u64>,
    reserved: Vec<u64>,
    held: Vec<u64>,
    phase: Vec<u32>,
    in_flight: Vec<Option<u32>>,
    busy_until: Vec<u64>,
    completions: Vec<u64>,
    total_firings: u64,
    max_pressure: Vec<u64>,
    events: BinaryHeap<Reverse<(u64, usize)>>,
    recorded: Vec<bool>,
    fire_start: Vec<u64>,
    records: Vec<FiringRecord>,
    tables: Tables,
    // Where the run stands, kept between `advance` calls so that a paused
    // run resumes exactly where it stopped.
    seen: Recurrences,
    last_snapshot_iter: u64,
    steady: Option<SteadyState>,
    deadlocked: bool,
    // Candidate-driven start scheduling: starting a firing only consumes
    // resources, so only completions can enable new firings. The dirty set
    // holds exactly the actors whose enablement may have changed.
    dirty: Vec<bool>,
    candidates: Vec<usize>,
}

/// A run [`Simulation::run_within`] stopped at its firing budget, before it
/// ended. It keeps its state and lets go of its tables, which are a
/// function of the graph alone: what runs while it waits has their memory.
#[derive(Debug)]
pub(crate) struct Paused<'g>(Simulation<'g>);

impl Paused<'_> {
    /// Runs the paused simulation on to its end, as [`Simulation::run`]
    /// would have: the outcome is the one an uninterrupted run returns.
    pub(crate) fn resume(mut self) -> SimOutcome {
        self.0.tables = Tables::new(self.0.graph);
        self.0.advance(u64::MAX);
        self.0.into_outcome()
    }
}

impl<'g> Simulation<'g> {
    /// Creates a simulator over `graph` with the given configuration.
    pub fn new(graph: &'g CsdfGraph, config: SimConfig) -> Self {
        let n = graph.n_actors();
        let m = graph.n_channels();
        let data = graph.channels().map(|(_, c)| c.initial_tokens).collect();
        let mut recorded = vec![false; n];
        for a in &config.record {
            recorded[a.index()] = true;
        }
        Simulation {
            graph,
            config,
            tables: Tables::new(graph),
            now: 0,
            data,
            reserved: vec![0; m],
            held: vec![0; m],
            phase: vec![0; n],
            in_flight: vec![None; n],
            busy_until: vec![0; n],
            completions: vec![0; n],
            total_firings: 0,
            max_pressure: vec![0; m],
            events: BinaryHeap::new(),
            recorded,
            fire_start: vec![0; n],
            records: Vec::new(),
            seen: Recurrences::default(),
            last_snapshot_iter: u64::MAX,
            steady: None,
            deadlocked: false,
            dirty: vec![true; n],
            candidates: (0..n).collect(),
        }
    }

    fn can_start(&self, actor: usize) -> bool {
        if self.in_flight[actor].is_some() {
            return false;
        }
        let phase = self.phase[actor] as usize;
        for &ci in self.tables.inputs(actor) {
            let ci = ci as usize;
            if self.data[ci] < self.tables.cons(ci, phase) {
                return false;
            }
        }
        for &ci in self.tables.outputs(actor) {
            let ci = ci as usize;
            let pressure = self.data[ci] + self.reserved[ci] + self.held[ci];
            if pressure + self.tables.prod(ci, phase) > self.tables.cap_tab[ci] {
                return false;
            }
        }
        true
    }

    fn start(&mut self, actor: usize) {
        let phase = self.phase[actor] as usize;
        for k in self.tables.in_off[actor]..self.tables.in_off[actor + 1] {
            let ci = self.tables.in_ch[k as usize] as usize;
            let cons = self.tables.cons(ci, phase);
            debug_assert!(self.data[ci] >= cons);
            self.data[ci] -= cons;
            self.held[ci] += cons;
        }
        for k in self.tables.out_off[actor]..self.tables.out_off[actor + 1] {
            let ci = self.tables.out_ch[k as usize] as usize;
            self.reserved[ci] += self.tables.prod(ci, phase);
            let pressure = self.data[ci] + self.reserved[ci] + self.held[ci];
            if pressure > self.max_pressure[ci] {
                self.max_pressure[ci] = pressure;
            }
        }
        let duration = self.tables.dur_val[self.tables.dur_off[actor] as usize + phase];
        self.in_flight[actor] = Some(phase as u32);
        self.busy_until[actor] = self.now + duration;
        if self.recorded[actor] {
            self.fire_start[actor] = self.now;
        }
        self.events.push(Reverse((self.busy_until[actor], actor)));
    }

    fn complete(&mut self, actor: usize) {
        let id = ActorId(actor);
        let phase = self.in_flight[actor]
            .take()
            .expect("completion event for idle actor") as usize;
        for k in self.tables.in_off[actor]..self.tables.in_off[actor + 1] {
            let ci = self.tables.in_ch[k as usize] as usize;
            let cons = self.tables.cons(ci, phase);
            debug_assert!(self.held[ci] >= cons);
            self.held[ci] -= cons;
        }
        for k in self.tables.out_off[actor]..self.tables.out_off[actor + 1] {
            let ci = self.tables.out_ch[k as usize] as usize;
            let prod = self.tables.prod(ci, phase);
            debug_assert!(self.reserved[ci] >= prod);
            self.reserved[ci] -= prod;
            self.data[ci] += prod;
        }
        let n_phases = self.graph.actor(id).n_phases() as u32;
        self.phase[actor] = (self.phase[actor] + 1) % n_phases;
        self.completions[actor] += 1;
        self.total_firings += 1;
        if self.recorded[actor] {
            self.records.push(FiringRecord {
                actor: id,
                phase: phase as u32,
                start: self.fire_start[actor],
                end: self.now,
            });
        }
    }

    /// The normalised state as one flat key: per actor its next phase
    /// packed with its in-flight phase (`u32::MAX` when idle) and its
    /// remaining busy time (`u64::MAX` when idle), then per channel its
    /// tokens.
    fn snapshot(&self) -> Vec<u64> {
        let n = self.graph.n_actors();
        let mut key = Vec::with_capacity(2 * n + self.data.len());
        for a in 0..n {
            let (remaining, in_flight) = match self.in_flight[a] {
                Some(ph) => (self.busy_until[a] - self.now, ph),
                None => (u64::MAX, u32::MAX),
            };
            key.push(u64::from(self.phase[a]) << 32 | u64::from(in_flight));
            key.push(remaining);
        }
        key.extend_from_slice(&self.data);
        key
    }

    /// Runs the simulation to a guard, deadlock, or (if enabled) steady
    /// state.
    ///
    /// # Errors
    ///
    /// Currently infallible in the error-return sense — deadlock and guard
    /// exhaustion are reported in the [`SimOutcome`] rather than as errors so
    /// that callers can still inspect partial results. The `Result` is kept
    /// for forward compatibility.
    pub fn run(mut self) -> Result<SimOutcome, DataflowError> {
        obs::count(obs::Counter::CsdfRun, 1);
        self.advance(u64::MAX);
        Ok(self.into_outcome())
    }

    /// [`Simulation::run`], paused instead once `budget` firings have
    /// completed without the run ending. One simulation however often it is
    /// paused and resumed: `Counter::CsdfRun` counts it here, once.
    #[allow(clippy::result_large_err)] // the run itself, moved out once per probe
    pub(crate) fn run_within(mut self, budget: u64) -> Result<SimOutcome, Paused<'g>> {
        obs::count(obs::Counter::CsdfRun, 1);
        if self.advance(budget) {
            Ok(self.into_outcome())
        } else {
            self.tables = Tables::default();
            Err(Paused(self))
        }
    }

    /// Simulates until the run ends — a recurrence (when enabled), a
    /// deadlock, a guard — and returns true, or until `budget` firings have
    /// completed and returns false. It pauses where the guard is checked,
    /// with nothing left to start at the current time, so the next call
    /// picks the run up as if it had never stopped.
    fn advance(&mut self, budget: u64) -> bool {
        let reference = self.config.reference.unwrap_or(ActorId(0)).index();
        let ref_phases = self.graph.actor(ActorId(reference)).n_phases() as u64;
        loop {
            // Start every enabled candidate at the current time.
            while let Some(a) = self.candidates.pop() {
                self.dirty[a] = false;
                if self.can_start(a) {
                    self.start(a);
                }
            }

            // Steady-state snapshot at reference-iteration boundaries: only
            // when the reference actor has just wrapped its phase cycle and
            // the state at `now` is saturated (nothing more can start).
            if self.config.stop_at_steady_state
                && self.steady.is_none()
                && self.completions[reference] > 0
                && self.completions[reference].is_multiple_of(ref_phases)
                && self.phase[reference] == 0
                && self.completions[reference] / ref_phases != self.last_snapshot_iter
            {
                let iterations = self.completions[reference] / ref_phases;
                self.last_snapshot_iter = iterations;
                let key = self.snapshot();
                match self.seen.entry(key) {
                    Entry::Occupied(prev) => {
                        let (it0, t0) = *prev.get();
                        self.steady = Some(SteadyState {
                            reference: ActorId(reference),
                            iterations: iterations - it0,
                            period: self.now - t0,
                        });
                        return true;
                    }
                    Entry::Vacant(slot) => {
                        slot.insert((iterations, self.now));
                    }
                }
            }

            if self.total_firings >= self.config.max_firings {
                return true;
            }
            if self.total_firings >= budget {
                return false;
            }

            // Advance to the next completion.
            let Some(Reverse((t, _))) = self.events.peek().copied() else {
                // No in-flight firings and nothing startable: deadlock (or a
                // graph with no fireable actor at all).
                self.deadlocked = true;
                return true;
            };
            if t > self.config.max_time {
                return true;
            }
            self.now = t;
            while let Some(Reverse((t2, actor))) = self.events.peek().copied() {
                if t2 != t {
                    break;
                }
                self.events.pop();
                self.complete(actor);
                // Wake the actors this completion may have enabled: the
                // completer itself, consumers of its outputs (new data),
                // and producers into its inputs (freed space).
                self.wake(actor);
                for k in self.tables.out_off[actor]..self.tables.out_off[actor + 1] {
                    let ci = self.tables.out_ch[k as usize] as usize;
                    self.wake(self.tables.dst_tab[ci] as usize);
                }
                for k in self.tables.in_off[actor]..self.tables.in_off[actor + 1] {
                    let ci = self.tables.in_ch[k as usize] as usize;
                    self.wake(self.tables.src_tab[ci] as usize);
                }
            }
        }
    }

    #[inline]
    fn wake(&mut self, actor: usize) {
        if !self.dirty[actor] {
            self.dirty[actor] = true;
            self.candidates.push(actor);
        }
    }

    fn into_outcome(self) -> SimOutcome {
        SimOutcome {
            end_time: self.now,
            total_firings: self.total_firings,
            completions: self.completions,
            max_pressure: self.max_pressure,
            steady: self.steady,
            deadlocked: self.deadlocked,
            records: self.records,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::phase::PhaseVec;

    /// producer (wcet 10) -> consumer (wcet 4), 1 token per firing.
    fn chain() -> CsdfGraph {
        let mut g = CsdfGraph::new();
        let p = g.add_actor("p", PhaseVec::single(10), 1);
        let c = g.add_actor("c", PhaseVec::single(4), 1);
        g.add_channel(p, c, PhaseVec::single(1), PhaseVec::single(1))
            .unwrap();
        g
    }

    #[test]
    fn steady_state_of_simple_chain_is_producer_limited() {
        let g = chain();
        let out = Simulation::new(&g, SimConfig::default()).run().unwrap();
        let steady = out.steady.expect("steady state");
        assert_eq!(steady.period / steady.iterations, 10);
        assert!(!out.deadlocked);
    }

    #[test]
    fn consumer_limited_when_consumer_slower_and_buffer_bounded() {
        let mut g = CsdfGraph::new();
        let p = g.add_actor("p", PhaseVec::single(2), 1);
        let c = g.add_actor("c", PhaseVec::single(9), 1);
        g.add_channel_full(p, c, PhaseVec::single(1), PhaseVec::single(1), 0, Some(2))
            .unwrap();
        let out = Simulation::new(&g, SimConfig::default()).run().unwrap();
        let steady = out.steady.expect("steady state");
        assert_eq!(steady.period / steady.iterations, 9);
    }

    #[test]
    fn deadlock_detected_on_token_starved_cycle() {
        let mut g = CsdfGraph::new();
        let a = g.add_actor("a", PhaseVec::single(1), 1);
        let b = g.add_actor("b", PhaseVec::single(1), 1);
        g.add_channel(a, b, PhaseVec::single(1), PhaseVec::single(1))
            .unwrap();
        // Back edge with no initial tokens: nobody can ever fire.
        g.add_channel(b, a, PhaseVec::single(1), PhaseVec::single(1))
            .unwrap();
        let out = Simulation::new(&g, SimConfig::default()).run().unwrap();
        assert!(out.deadlocked);
        assert_eq!(out.total_firings, 0);
    }

    #[test]
    fn cycle_with_initial_token_pipelines() {
        let mut g = CsdfGraph::new();
        let a = g.add_actor("a", PhaseVec::single(3), 1);
        let b = g.add_actor("b", PhaseVec::single(5), 1);
        g.add_channel(a, b, PhaseVec::single(1), PhaseVec::single(1))
            .unwrap();
        g.add_channel_full(b, a, PhaseVec::single(1), PhaseVec::single(1), 1, None)
            .unwrap();
        let out = Simulation::new(&g, SimConfig::default()).run().unwrap();
        let steady = out.steady.expect("steady state");
        // One token in the cycle: period = 3 + 5.
        assert_eq!(steady.period / steady.iterations, 8);
    }

    #[test]
    fn two_tokens_in_cycle_hide_latency() {
        let mut g = CsdfGraph::new();
        let a = g.add_actor("a", PhaseVec::single(3), 1);
        let b = g.add_actor("b", PhaseVec::single(5), 1);
        g.add_channel(a, b, PhaseVec::single(1), PhaseVec::single(1))
            .unwrap();
        g.add_channel_full(b, a, PhaseVec::single(1), PhaseVec::single(1), 2, None)
            .unwrap();
        let out = Simulation::new(&g, SimConfig::default()).run().unwrap();
        let steady = out.steady.expect("steady state");
        // Bottleneck actor dominates: period 5.
        assert_eq!(steady.period / steady.iterations, 5);
    }

    #[test]
    fn max_pressure_reflects_needed_capacity() {
        // Fast producer, slow consumer, unbounded channel, short run.
        let mut g = CsdfGraph::new();
        let p = g.add_actor("p", PhaseVec::single(1), 1);
        let c = g.add_actor("c", PhaseVec::single(10), 1);
        g.add_channel(p, c, PhaseVec::single(1), PhaseVec::single(1))
            .unwrap();
        let cfg = SimConfig {
            max_firings: 100,
            stop_at_steady_state: false,
            ..SimConfig::default()
        };
        let out = Simulation::new(&g, cfg).run().unwrap();
        // Producer runs ~10x faster: pressure builds up well beyond 2.
        assert!(out.max_pressure[0] > 5, "pressure {}", out.max_pressure[0]);
    }

    #[test]
    fn csdf_phases_respected() {
        // Actor with phases ⟨2,0⟩ production; consumer consumes ⟨1⟩.
        let mut g = CsdfGraph::new();
        let p = g.add_actor("p", PhaseVec::from_slice(&[4, 6]), 1);
        let c = g.add_actor("c", PhaseVec::single(3), 1);
        g.add_channel(p, c, PhaseVec::from_slice(&[2, 0]), PhaseVec::single(1))
            .unwrap();
        let out = Simulation::new(&g, SimConfig::default()).run().unwrap();
        let steady = out.steady.expect("steady state");
        // Producer cycle = 10 time units producing 2 tokens; consumer needs
        // 2 firings (6 time units) per producer cycle: producer-limited.
        assert_eq!(steady.period / steady.iterations, 10);
    }

    #[test]
    fn bounded_capacity_one_serialises_chain() {
        let mut g = CsdfGraph::new();
        let p = g.add_actor("p", PhaseVec::single(4), 1);
        let c = g.add_actor("c", PhaseVec::single(4), 1);
        g.add_channel_full(p, c, PhaseVec::single(1), PhaseVec::single(1), 0, Some(1))
            .unwrap();
        let out = Simulation::new(&g, SimConfig::default()).run().unwrap();
        let steady = out.steady.expect("steady state");
        // Capacity 1 with space released only at consumer completion fully
        // serialises the two actors: period = 4 + 4.
        assert_eq!(steady.period / steady.iterations, 8);
    }

    #[test]
    fn guard_exhaustion_reports_partial_result() {
        let g = chain();
        let cfg = SimConfig {
            max_firings: 5,
            stop_at_steady_state: false,
            ..SimConfig::default()
        };
        let out = Simulation::new(&g, cfg).run().unwrap();
        assert!(out.total_firings >= 5);
        assert!(out.steady.is_none());
    }
}
