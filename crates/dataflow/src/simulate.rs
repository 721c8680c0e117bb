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
//!
//! The event loop reads the graph from flat tables built once
//! (`Tables`): per actor a row (where its ports start, where its outputs
//! start and end, its phase count, where its phase durations start) and
//! one CSR list of ports, inputs then outputs, each naming its channel,
//! the actor at the channel's other end and where its per-phase rates
//! start. A firing walks its actor's ports once to start and once to
//! complete, and a completion wakes the idle actors its ports name. A run
//! keeps one record per channel — tokens, *pressure* (tokens plus the room
//! reserved by producers and the tokens held by consumers in flight, what
//! a capacity bounds), capacity, peak pressure — and one per actor (next
//! phase, phase in flight or none, end of that firing); completions wait in
//! a heap keyed by one word holding time, then actor. The tables are a
//! function of the graph's structure alone — tokens and capacities are
//! read into a run's channel records — so the buffer-sizing search builds
//! them once and gives each probe its own capacities.

use crate::fnv::Fnv64;
use crate::graph::{ActorId, ChannelId, CsdfGraph};
use rtsm_obs as obs;
use std::borrow::Cow;
use std::cmp::Reverse;
use std::collections::hash_map::Entry;
use std::collections::{BinaryHeap, HashMap};
use std::hash::BuildHasherDefault;

/// Simulated time past which a run stops (guards the clock against
/// overflow).
const TIME_LIMIT: u64 = u64::MAX / 4;

/// Configuration knobs for a simulation run.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Stop after this many completed firings (guards against divergence).
    pub max_firings: u64,
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
#[derive(Debug, Clone, PartialEq, Eq)]
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

/// `ActorState::in_flight` of an actor with no firing in flight.
const IDLE: u32 = u32::MAX;

/// One end of a channel, as its actor sees it.
#[derive(Debug, Clone, Copy)]
struct Port {
    channel: u32,
    /// The actor at the channel's other end.
    peer: u32,
}

/// An actor's slice of the tables.
#[derive(Debug, Clone, Copy)]
struct ActorRow {
    /// Its ports are `ports[first..end]`: inputs up to `outputs`, then
    /// outputs.
    first: u32,
    outputs: u32,
    end: u32,
    phases: u32,
    /// Where its phase durations start in [`Tables::durations`].
    durations: u32,
    /// Where its rates start in [`Tables::rates`]: phase by phase, the
    /// tokens each of its ports moves, in port order.
    rates: u32,
}

/// The graph in flat tables: per actor its row, one CSR list of ports —
/// inputs, then outputs, each with its channel and the actor at the other
/// end — and per actor and phase the tokens each port moves, beside its
/// ports, so a firing reads two contiguous runs and wakes neighbours
/// without a second lookup. A function of the graph's actors, rates and
/// endpoints alone: initial tokens and capacities are not in it.
#[derive(Debug, Clone)]
pub(crate) struct Tables {
    actors: Vec<ActorRow>,
    ports: Vec<Port>,
    rates: Vec<u64>,
    durations: Vec<u64>,
}

impl Tables {
    pub(crate) fn new(graph: &CsdfGraph) -> Tables {
        let row = |phases: usize| ActorRow {
            first: 0,
            outputs: 0,
            end: 0,
            phases: phases as u32,
            durations: 0,
            rates: 0,
        };
        let mut actors: Vec<ActorRow> = graph.actors().map(|(_, a)| row(a.n_phases())).collect();
        // Degree counts (inputs in `first`, outputs in `outputs`), then
        // prefix sums that leave `first` at the end of the inputs and
        // `outputs` at the end of the outputs: a fill pass over the
        // channels in reverse moves both down to where their runs start,
        // each run in channel order.
        for (_, ch) in graph.channels() {
            actors[ch.dst.index()].first += 1;
            actors[ch.src.index()].outputs += 1;
        }
        let (mut next, mut n_rates, mut n_durations) = (0, 0, 0);
        for a in &mut actors {
            let (inputs, outputs) = (a.first, a.outputs);
            a.first = next + inputs;
            a.outputs = a.first + outputs;
            a.end = a.outputs;
            next = a.end;
            a.rates = n_rates as u32;
            n_rates += (inputs + outputs) as usize * a.phases as usize;
            n_durations += a.phases as usize;
        }
        let mut ports = vec![
            Port {
                channel: 0,
                peer: 0
            };
            next as usize
        ];
        for c in (0..graph.n_channels()).rev() {
            let ch = graph.channel(ChannelId(c));
            let channel = c as u32;
            let (src, dst) = (ch.src.index(), ch.dst.index());
            actors[src].outputs -= 1;
            ports[actors[src].outputs as usize] = Port {
                channel,
                peer: dst as u32,
            };
            actors[dst].first -= 1;
            ports[actors[dst].first as usize] = Port {
                channel,
                peer: src as u32,
            };
        }
        // Port `k` of an actor with `d` ports moves `rates[rates + p·d + k]`
        // tokens in phase `p`.
        let mut rates = vec![0; n_rates];
        for a in &actors {
            let degree = (a.end - a.first) as usize;
            for k in a.first..a.end {
                let ch = graph.channel(ChannelId(ports[k as usize].channel as usize));
                let per_phase = if k < a.outputs { &ch.cons } else { &ch.prod };
                let at = a.rates as usize + (k - a.first) as usize;
                for (p, rate) in per_phase.iter().enumerate() {
                    rates[at + p * degree] = rate;
                }
            }
        }
        let mut durations = Vec::with_capacity(n_durations);
        for ((_, spec), a) in graph.actors().zip(&mut actors) {
            a.durations = durations.len() as u32;
            durations.extend((0..spec.n_phases()).map(|p| spec.phase_duration(p)));
        }
        Tables {
            actors,
            ports,
            rates,
            durations,
        }
    }

    #[inline]
    fn inputs(&self, row: ActorRow) -> &[Port] {
        &self.ports[row.first as usize..row.outputs as usize]
    }

    #[inline]
    fn outputs(&self, row: ActorRow) -> &[Port] {
        &self.ports[row.outputs as usize..row.end as usize]
    }

    /// The tokens the actor's inputs and outputs move in `phase`, in port
    /// order.
    #[inline]
    fn rates(&self, row: ActorRow, phase: usize) -> (&[u64], &[u64]) {
        let degree = (row.end - row.first) as usize;
        let at = row.rates as usize + phase * degree;
        self.rates[at..at + degree].split_at((row.outputs - row.first) as usize)
    }
}

/// A channel during a run. `pressure` is its tokens plus the room reserved
/// by producer firings in flight plus the tokens held by consumer firings
/// in flight: what the capacity bounds. (Its peak is kept apart, in the
/// vector the outcome takes over.)
#[derive(Debug, Clone, Copy)]
struct ChannelState {
    data: u64,
    pressure: u64,
    /// `u64::MAX` when unbounded.
    cap: u64,
}

/// An actor during a run.
#[derive(Debug, Clone, Copy)]
struct ActorState {
    /// The phase its next firing runs.
    phase: u32,
    /// The phase of its firing in flight, [`IDLE`] when none is.
    in_flight: u32,
    busy_until: u64,
}

/// Each channel of `graph` at the start of a run: its initial tokens, at
/// the capacity `capacities` gives it.
fn channel_states(
    graph: &CsdfGraph,
    capacities: impl Iterator<Item = Option<u64>>,
) -> Vec<ChannelState> {
    graph
        .channels()
        .zip(capacities)
        .map(|((_, c), capacity)| ChannelState {
            data: c.initial_tokens,
            pressure: c.initial_tokens,
            cap: capacity.unwrap_or(u64::MAX),
        })
        .collect()
}

/// A heap key: time, then actor, in one word that orders as the pair does.
#[inline]
fn event(time: u64, actor: usize) -> u128 {
    u128::from(time) << 32 | actor as u128
}

/// A discrete-event, self-timed CSDF simulator.
///
/// Use [`Simulation::run`] for a complete run; the intermediate state is
/// intentionally private (the outcome carries everything analyses need).
#[derive(Debug)]
pub struct Simulation<'g> {
    tables: Cow<'g, Tables>,
    run: Run,
}

/// What a run changes: everything of a [`Simulation`] but its tables.
#[derive(Debug)]
struct Run {
    config: SimConfig,
    now: u64,
    channels: Vec<ChannelState>,
    /// Per channel, the largest pressure a start has reserved up to.
    max_pressure: Vec<u64>,
    actors: Vec<ActorState>,
    completions: Vec<u64>,
    total_firings: u64,
    events: BinaryHeap<Reverse<u128>>,
    /// Per actor whether its firings are recorded; empty when none is.
    recorded: Vec<bool>,
    fire_start: Vec<u64>,
    records: Vec<FiringRecord>,
    // Where the run stands, kept between `advance` calls so that a paused
    // run resumes exactly where it stopped.
    seen: Recurrences,
    /// The reference actor's completions at the last snapshot.
    last_snapshot: u64,
    steady: Option<SteadyState>,
    deadlocked: bool,
    // Candidate-driven start scheduling: starting a firing only consumes
    // resources, so only completions can enable new firings. The candidates
    // are the actors whose enablement may have changed since they were last
    // asked; one woken twice in an instant is asked twice, and the second
    // time finds it started or still blocked.
    candidates: Vec<u32>,
}

/// A run [`Simulation::run_within`] stopped at its firing budget, before it
/// ended. It keeps its state, and its tables are the caller's: the
/// buffer-sizing search's, which outlive every probe.
#[derive(Debug)]
pub(crate) struct Paused<'g>(Simulation<'g>);

impl Paused<'_> {
    /// Runs the paused simulation on to its end, as [`Simulation::run`]
    /// would have: the outcome is the one an uninterrupted run returns.
    pub(crate) fn resume(mut self) -> SimOutcome {
        self.0.advance(u64::MAX);
        self.0.run.into_outcome()
    }
}

impl<'g> Simulation<'g> {
    /// Creates a simulator over `graph` with the given configuration.
    pub fn new(graph: &'g CsdfGraph, config: SimConfig) -> Self {
        let capacities = graph.channels().map(|(_, c)| c.capacity);
        let channels = channel_states(graph, capacities);
        Simulation::with_tables(Cow::Owned(Tables::new(graph)), channels, config)
    }

    /// A simulator over `graph`'s tables, which the caller keeps between
    /// runs, with `capacities` (one per channel, `None` unbounded) in place
    /// of the graph's own.
    pub(crate) fn over(
        graph: &CsdfGraph,
        tables: &'g Tables,
        capacities: &[Option<u64>],
        config: SimConfig,
    ) -> Self {
        debug_assert_eq!(capacities.len(), graph.n_channels());
        let channels = channel_states(graph, capacities.iter().copied());
        Simulation::with_tables(Cow::Borrowed(tables), channels, config)
    }

    fn with_tables(
        tables: Cow<'g, Tables>,
        channels: Vec<ChannelState>,
        config: SimConfig,
    ) -> Self {
        let n = tables.actors.len();
        let mut recorded = Vec::new();
        let mut fire_start = Vec::new();
        if !config.record.is_empty() {
            recorded = vec![false; n];
            fire_start = vec![0; n];
            for a in &config.record {
                recorded[a.index()] = true;
            }
        }
        let candidates = (0..n as u32).collect();
        let idle = ActorState {
            phase: 0,
            in_flight: IDLE,
            busy_until: 0,
        };
        let run = Run {
            config,
            now: 0,
            max_pressure: vec![0; channels.len()],
            channels,
            actors: vec![idle; n],
            completions: vec![0; n],
            total_firings: 0,
            events: BinaryHeap::new(),
            recorded,
            fire_start,
            records: Vec::new(),
            seen: Recurrences::default(),
            last_snapshot: 0,
            steady: None,
            deadlocked: false,
            candidates,
        };
        Simulation { tables, run }
    }

    /// Runs the simulation to a guard, deadlock, or (if enabled) steady
    /// state. Deadlock and guard exhaustion are reported in the
    /// [`SimOutcome`], so that callers can still inspect partial results.
    pub fn run(mut self) -> SimOutcome {
        obs::count(obs::Counter::CsdfRun, 1);
        self.advance(u64::MAX);
        self.run.into_outcome()
    }

    /// [`Simulation::run`], paused instead once `budget` firings have
    /// completed without the run ending. One simulation however often it is
    /// paused and resumed: `Counter::CsdfRun` counts it here, once.
    #[allow(clippy::result_large_err)] // the run itself, moved out once per probe
    pub(crate) fn run_within(mut self, budget: u64) -> Result<SimOutcome, Paused<'g>> {
        obs::count(obs::Counter::CsdfRun, 1);
        if self.advance(budget) {
            Ok(self.run.into_outcome())
        } else {
            Err(Paused(self))
        }
    }

    /// [`Run::advance`] on these tables, with the record check made once.
    fn advance(&mut self, budget: u64) -> bool {
        let Simulation { tables, run } = self;
        if run.recorded.is_empty() {
            run.advance::<false>(tables, budget)
        } else {
            run.advance::<true>(tables, budget)
        }
    }
}

impl Run {
    /// Starts `actor`'s next firing if it is idle, every input holds the
    /// tokens the phase consumes and every output has room for what it
    /// produces: consumes the inputs, reserves the room, and schedules the
    /// completion.
    #[inline]
    fn try_start<const RECORD: bool>(&mut self, t: &Tables, actor: usize) {
        let state = self.actors[actor];
        if state.in_flight != IDLE {
            return;
        }
        let row = t.actors[actor];
        let phase = state.phase as usize;
        let (inputs, outputs) = (t.inputs(row), t.outputs(row));
        let (consumed, produced) = t.rates(row, phase);
        for (port, &cons) in inputs.iter().zip(consumed) {
            if self.channels[port.channel as usize].data < cons {
                return;
            }
        }
        for (port, &prod) in outputs.iter().zip(produced) {
            let ch = &self.channels[port.channel as usize];
            if ch.pressure + prod > ch.cap {
                return;
            }
        }
        for (port, &cons) in inputs.iter().zip(consumed) {
            self.channels[port.channel as usize].data -= cons;
        }
        for (port, &prod) in outputs.iter().zip(produced) {
            let c = port.channel as usize;
            let ch = &mut self.channels[c];
            ch.pressure += prod;
            self.max_pressure[c] = self.max_pressure[c].max(ch.pressure);
        }
        let busy_until = self.now + t.durations[row.durations as usize + phase];
        self.actors[actor] = ActorState {
            phase: state.phase,
            in_flight: state.phase,
            busy_until,
        };
        if RECORD && self.recorded[actor] {
            self.fire_start[actor] = self.now;
        }
        self.events.push(Reverse(event(busy_until, actor)));
    }

    /// Completes `actor`'s firing in flight: releases what it held on its
    /// inputs and fills the room it reserved on its outputs, then wakes the
    /// actors this may have enabled — itself, the producers into its inputs
    /// (freed room) and the consumers of its outputs (new tokens).
    #[inline]
    fn complete<const RECORD: bool>(&mut self, t: &Tables, actor: usize) {
        let state = self.actors[actor];
        debug_assert_ne!(state.in_flight, IDLE, "completion event for idle actor");
        let row = t.actors[actor];
        let phase = state.in_flight as usize;
        let (consumed, produced) = t.rates(row, phase);
        for (port, &cons) in t.inputs(row).iter().zip(consumed) {
            let ch = &mut self.channels[port.channel as usize];
            debug_assert!(ch.pressure - ch.data >= cons);
            ch.pressure -= cons;
            self.wake(port.peer);
        }
        for (port, &prod) in t.outputs(row).iter().zip(produced) {
            self.channels[port.channel as usize].data += prod;
            self.wake(port.peer);
        }
        self.candidates.push(actor as u32);
        let next = state.phase + 1;
        self.actors[actor] = ActorState {
            phase: if next == row.phases { 0 } else { next },
            in_flight: IDLE,
            busy_until: state.busy_until,
        };
        self.completions[actor] += 1;
        self.total_firings += 1;
        if RECORD && self.recorded[actor] {
            self.records.push(FiringRecord {
                actor: ActorId(actor),
                phase: phase as u32,
                start: self.fire_start[actor],
                end: self.now,
            });
        }
    }

    /// Makes `actor` a candidate if it is idle: a busy one is woken by its
    /// own completion.
    #[inline]
    fn wake(&mut self, actor: u32) {
        if self.actors[actor as usize].in_flight == IDLE {
            self.candidates.push(actor);
        }
    }

    /// The normalised state as one flat key: per actor its next phase
    /// packed with its in-flight phase (`u32::MAX` when idle) and its
    /// remaining busy time (`u64::MAX` when idle), then per channel its
    /// tokens.
    fn snapshot(&self) -> Vec<u64> {
        let mut key = Vec::with_capacity(2 * self.actors.len() + self.channels.len());
        for a in &self.actors {
            let remaining = if a.in_flight == IDLE {
                u64::MAX
            } else {
                a.busy_until - self.now
            };
            key.push(u64::from(a.phase) << 32 | u64::from(a.in_flight));
            key.push(remaining);
        }
        key.extend(self.channels.iter().map(|c| c.data));
        key
    }

    /// Simulates until the run ends — a recurrence (when enabled), a
    /// deadlock, a guard — and returns true, or until `budget` firings have
    /// completed and returns false. It pauses where the guard is checked,
    /// with nothing left to start at the current time, so the next call
    /// picks the run up as if it had never stopped. `RECORD` says whether
    /// any actor's firings are recorded.
    fn advance<const RECORD: bool>(&mut self, t: &Tables, budget: u64) -> bool {
        let reference = self.config.reference.unwrap_or(ActorId(0)).index();
        let ref_phases = u64::from(t.actors[reference].phases);
        let limit = budget.min(self.config.max_firings);
        loop {
            // Start every enabled candidate at the current time.
            while let Some(a) = self.candidates.pop() {
                self.try_start::<RECORD>(t, a as usize);
            }

            // Steady-state snapshot at reference-iteration boundaries: only
            // when the reference actor has just wrapped its phase cycle (its
            // next phase is 0 and it has completed some) and the state at
            // `now` is saturated (nothing more can start).
            if self.config.stop_at_steady_state
                && self.steady.is_none()
                && self.actors[reference].phase == 0
                && self.completions[reference] != self.last_snapshot
            {
                self.last_snapshot = self.completions[reference];
                let iterations = self.last_snapshot / ref_phases;
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

            if self.total_firings >= limit {
                return self.total_firings >= self.config.max_firings;
            }

            // Advance to the next completion.
            let Some(&Reverse(next)) = self.events.peek() else {
                // No in-flight firings and nothing startable: deadlock (or a
                // graph with no fireable actor at all).
                self.deadlocked = true;
                return true;
            };
            let now = (next >> 32) as u64;
            if now > TIME_LIMIT {
                return true;
            }
            self.now = now;
            while let Some(&Reverse(next)) = self.events.peek() {
                if (next >> 32) as u64 != now {
                    break;
                }
                self.events.pop();
                self.complete::<RECORD>(t, next as u32 as usize);
            }
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
mod twin;

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
        let out = Simulation::new(&g, SimConfig::default()).run();
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
        let out = Simulation::new(&g, SimConfig::default()).run();
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
        let out = Simulation::new(&g, SimConfig::default()).run();
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
        let out = Simulation::new(&g, SimConfig::default()).run();
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
        let out = Simulation::new(&g, SimConfig::default()).run();
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
        let out = Simulation::new(&g, cfg).run();
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
        let out = Simulation::new(&g, SimConfig::default()).run();
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
        let out = Simulation::new(&g, SimConfig::default()).run();
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
        let out = Simulation::new(&g, cfg).run();
        assert!(out.total_firings >= 5);
        assert!(out.steady.is_none());
    }
}
