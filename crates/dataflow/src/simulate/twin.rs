//! The oracle for the simulator: the engine as it was written before its
//! port tables — per-channel CSR tables (`in_ch`/`out_ch`, `cons_*`,
//! `prod_*`, `src_tab`/`dst_tab`), `data`/`reserved`/`held` kept apart, an
//! `Option` per actor for its firing in flight, a dirty set of woken
//! actors, a `%` per phase wrap, the record flag read per firing and a heap
//! of `(time, actor)` tuples — must return the same [`SimOutcome`] as
//! [`Simulation`], field for field, on
//! random multi-rate CSDF graphs with bounded and unbounded channels,
//! initial tokens, recorded actors, steady-state detection on and off and
//! small firing guards; and a run the search pauses with
//! [`Simulation::run_within`] and resumes must end as [`Simulation::run`]
//! does.
//!
//! Mutations tried by hand against `simulate.rs`, each caught by the three
//! properties below in a release build (`cargo test --release -p
//! rtsm_dataflow --lib simulate::twin`): dropping the `max_pressure` update
//! at a firing's start; taking it before the start's reservation is added
//! (which no unit test in `simulate.rs` notices); not waking an input's
//! producer when a completion frees room, an output's consumer when it
//! brings tokens, or the completed actor itself; wrapping the phase one
//! phase early; keying the heap by actor before time; letting the
//! search's tables ignore the capacities a probe gives them (only the
//! third property runs on other capacities; checked while those lived in
//! the tables, before they moved to `Simulation::over`'s argument); a
//! firing guard that ignores `run_within`'s
//! budget, so that no run ever pauses. Three pass, and change nothing an
//! outcome shows: pushing a wake before its channel's update (the woken
//! actors are asked only once every completion of the instant is in),
//! waking busy peers too, and dropping the in-flight phase from the
//! snapshot key (a busy actor's in-flight phase is its next phase).

use super::*;
use crate::phase::PhaseVec;
use proptest::prelude::*;

/// Per-channel CSR tables: actor `a`'s input channels are
/// `in_ch[in_off[a]..in_off[a+1]]` (likewise `out_*`); channel `c` consumes
/// `cons_val[cons_off[c] + consumer_phase]` tokens and produces
/// `prod_val[prod_off[c] + producer_phase]`.
#[derive(Default)]
struct TwinTables {
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

impl TwinTables {
    fn new(graph: &CsdfGraph) -> TwinTables {
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
        TwinTables {
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

/// The simulator as it was before its port tables.
struct Twin<'g> {
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
    tables: TwinTables,
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

/// A run [`Twin::run_within`] stopped at its firing budget; it lets go of
/// its tables until it resumes.
struct TwinPaused<'g>(Twin<'g>);

impl TwinPaused<'_> {
    fn resume(mut self) -> SimOutcome {
        self.0.tables = TwinTables::new(self.0.graph);
        self.0.advance(u64::MAX);
        self.0.into_outcome()
    }
}

impl<'g> Twin<'g> {
    fn new(graph: &'g CsdfGraph, config: SimConfig) -> Self {
        let n = graph.n_actors();
        let m = graph.n_channels();
        let data = graph.channels().map(|(_, c)| c.initial_tokens).collect();
        let mut recorded = vec![false; n];
        for a in &config.record {
            recorded[a.index()] = true;
        }
        Twin {
            graph,
            config,
            tables: TwinTables::new(graph),
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

    fn run(mut self) -> SimOutcome {
        self.advance(u64::MAX);
        self.into_outcome()
    }

    #[allow(clippy::result_large_err)] // as `Simulation::run_within`
    fn run_within(mut self, budget: u64) -> Result<SimOutcome, TwinPaused<'g>> {
        if self.advance(budget) {
            Ok(self.into_outcome())
        } else {
            self.tables = TwinTables::default();
            Err(TwinPaused(self))
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
            if t > TIME_LIMIT {
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

/// Phase values of `0..=max`, one per phase.
fn phases(tape: &mut Tape, n: usize, max: u64) -> PhaseVec {
    let values: Vec<u64> = (0..n).map(|_| tape.choose(max)).collect();
    PhaseVec::from_slice(&values)
}

/// A random multi-rate CSDF graph — one to six actors of one to three
/// phases (some of zero duration), up to eight channels between any two of
/// them (self-loops included) with rates of zero to three per phase,
/// initial tokens, and a third of them unbounded, the rest bounded
/// anywhere from below a phase's transfer up — and a configuration under a
/// small firing guard, with or without steady-state detection, recording
/// some actors.
fn case(tape: &mut Tape) -> (CsdfGraph, SimConfig) {
    let mut g = CsdfGraph::new();
    let n = 1 + tape.choose(5) as usize;
    let mut actor_phases = Vec::with_capacity(n);
    for a in 0..n {
        let p = 1 + tape.choose(2) as usize;
        let wcet = phases(tape, p, 4);
        g.add_actor(format!("a{a}"), wcet, 1 + tape.choose(2));
        actor_phases.push(p);
    }
    for _ in 0..tape.choose(8) {
        let (src, dst) = (tape.choose(n as u64 - 1), tape.choose(n as u64 - 1));
        let prod = phases(tape, actor_phases[src as usize], 3);
        let cons = phases(tape, actor_phases[dst as usize], 3);
        let initial = if tape.draw(2) == 0 { tape.choose(5) } else { 0 };
        let capacity = (tape.draw(3) != 0).then(|| tape.choose(10));
        g.add_channel_full(
            ActorId(src as usize),
            ActorId(dst as usize),
            prod,
            cons,
            initial,
            capacity,
        )
        .expect("rates match the actors' phases");
    }
    let config = SimConfig {
        max_firings: tape.choose(3000),
        reference: (tape.draw(4) != 0).then(|| ActorId(tape.choose(n as u64 - 1) as usize)),
        stop_at_steady_state: tape.draw(4) != 0,
        record: (0..n).filter(|_| tape.draw(3) == 0).map(ActorId).collect(),
    };
    (g, config)
}

/// How the runs of a property ended, so that one can see its cases reach
/// every ending.
#[derive(Default, Debug)]
struct Endings {
    steady: u32,
    deadlocked: u32,
    guarded: u32,
    recorded: u32,
}

impl Endings {
    fn count(&mut self, outcome: &SimOutcome) {
        self.steady += u32::from(outcome.steady.is_some());
        self.deadlocked += u32::from(outcome.deadlocked);
        self.guarded += u32::from(outcome.steady.is_none() && !outcome.deadlocked);
        self.recorded += u32::from(!outcome.records.is_empty());
    }

    fn assert_varied(&self) {
        let Endings {
            steady,
            deadlocked,
            guarded,
            recorded,
        } = *self;
        assert!(
            steady > 50 && deadlocked > 50 && guarded > 50 && recorded > 50,
            "{self:?}"
        );
    }
}

/// Random graphs per property.
const CASES: u32 = 1500;

#[test]
fn the_port_tables_run_the_reference_schedule() {
    let mut endings = Endings::default();
    TestRunner::new(ProptestConfig::with_cases(CASES)).run(|tape| {
        let (g, config) = case(tape);
        let outcome = Simulation::new(&g, config.clone()).run();
        assert_eq!(outcome, Twin::new(&g, config).run(), "{g:?}");
        endings.count(&outcome);
    });
    endings.assert_varied();
}

#[test]
fn a_paused_run_resumes_as_an_uninterrupted_one() {
    let (mut endings, mut pauses) = (Endings::default(), 0);
    TestRunner::new(ProptestConfig::with_cases(CASES)).run(|tape| {
        let (g, config) = case(tape);
        let budget = tape.choose(config.max_firings + 10);
        let whole = Simulation::new(&g, config.clone()).run();
        let tables = super::Tables::new(&g);
        let capacities: Vec<_> = g.channels().map(|(_, c)| c.capacity).collect();
        let resumed =
            match Simulation::over(&g, &tables, &capacities, config.clone()).run_within(budget) {
                Ok(ended) => ended,
                Err(paused) => {
                    assert!(whole.total_firings >= budget, "paused early");
                    pauses += 1;
                    paused.resume()
                }
            };
        assert_eq!(resumed, whole, "budget {budget}: {g:?}");
        let twin = match Twin::new(&g, config).run_within(budget) {
            Ok(ended) => ended,
            Err(paused) => paused.resume(),
        };
        assert_eq!(twin, whole, "budget {budget}: {g:?}");
        endings.count(&whole);
    });
    endings.assert_varied();
    assert!(pauses > 200, "{pauses} runs paused");
}

#[test]
fn overwritten_capacities_run_as_a_graph_holding_them() {
    let mut endings = Endings::default();
    TestRunner::new(ProptestConfig::with_cases(CASES)).run(|tape| {
        let (mut g, config) = case(tape);
        // The tables of the graph as drawn, then some capacities given in
        // place of its own, as the buffer-sizing search does, and written
        // into the twin's graph.
        let tables = super::Tables::new(&g);
        let mut capacities: Vec<_> = g.channels().map(|(_, c)| c.capacity).collect();
        for capacity in &mut capacities {
            if tape.draw(2) == 0 {
                *capacity = (tape.draw(3) != 0).then(|| tape.choose(10));
            }
        }
        let outcome = Simulation::over(&g, &tables, &capacities, config.clone()).run();
        for (c, &capacity) in capacities.iter().enumerate() {
            g.channel_mut(ChannelId(c)).capacity = capacity;
        }
        assert_eq!(outcome, Twin::new(&g, config).run(), "{g:?}");
        endings.count(&outcome);
    });
    endings.assert_varied();
}
