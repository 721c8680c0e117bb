//! Minimal buffer-capacity computation under a throughput constraint.
//!
//! This reproduces, conservatively, the analysis of Wiggers, Bekooij and
//! Smit, *"Efficient computation of buffer capacities for cyclo-static
//! dataflow graphs"* (DAC 2007), which the DATE 2008 paper uses for its
//! step-4 feasibility check and for the `B_i` capacities of Figure 3.
//!
//! The approach here trades the closed-form linear bounds of the original
//! paper for exact back-pressure simulation (our graphs are run-time-mapper
//! sized, tens of actors). The answer is a per-channel descent: starting
//! from a vector of capacities known to sustain the required source period,
//! each channel in turn is lowered to the smallest capacity that still
//! sustains it with all the others as they stand. A channel's *floor* is its
//! largest single-phase transfer (or its initial tokens): below it an actor
//! can never fire.
//!
//! The descent rests on one assumption — self-timed throughput is monotone
//! in every capacity — and the search spends it to simulate as little as it
//! can:
//!
//! 1. **Floor first.** Every channel at its floor is probed before anything
//!    else. If that sustains the period it is the answer: each step of the
//!    descent, from whatever feasible start, is then a minimum over a range
//!    whose least element is feasible. One simulation, no pilot.
//! 2. **The pilot is its own proof.** Otherwise the graph is run with the
//!    sized channels unbounded, and the per-channel peak *pressure* (tokens
//!    plus in-flight reservations) is where the descent starts. A capacity
//!    equal to the peak never refuses a start the pilot made, so the bounded
//!    run *is* the pilot, event for event, up to the same recurrence: the
//!    vector enters the probe table with the pilot's throughput and is never
//!    simulated.
//! 3. **Per channel, the floor before the midpoint**, then bisection on the
//!    rest of the range: most channels end at their floor, and one probe
//!    says so.
//! 4. **Refutation by dominance.** A vector that a *completed* simulation
//!    refuted (a steady state below the rate, or a deadlock), or the cycle
//!    test of rule 5, refutes every vector componentwise below it,
//!    unsimulated. A run the simulator's guard cut off refutes nothing but
//!    its own vector. This makes the confirming sweep free: when the first
//!    sweep leaves channel `i` at `c_i` above its floor it has refuted
//!    `c_i − 1` among capacities at least as large as any later sweep
//!    meets, so a second sweep asks only questions the first has answered,
//!    and changes nothing.
//! 5. **A slow "no" is refuted by its cycles.** A probe that sustains the
//!    period recurs within a few graph iterations; one that refutes it can
//!    take dozens, because a schedule that falls behind by a little takes
//!    long to repeat. So a probe simulates at most
//!    `ITERATIONS_BEFORE_CYCLE_TEST` (4) iterations' firings first; a run
//!    still without recurrence or deadlock is put to
//!    [`refutes_source_period`], which asks whether a cycle of the HSDF
//!    expansion that paces the source holds no tokens or is slower than the
//!    period. That is exactly what the
//!    completed run would find, so a "yes" is entered as a completed
//!    refutation (rule 4 applies) and the run is dropped; a "no" or a
//!    "don't know" resumes the same run to its end. Capacities, achieved
//!    throughputs and simulation counts are those of running every probe to
//!    its end. One exception, outside step 4's graphs, where every channel
//!    is bounded: a run that piles tokens up on an unbounded channel never
//!    recurs, and the guard would have cut it off — the test refutes it
//!    instead, truthfully, and the refutation dominates.
//!
//! By rule 4 the descent makes one sweep over the channels: a second one
//! would change nothing.
//!
//! The result is feasible by construction and minimal per-channel (it may be
//! off the Pareto frontier of *joint* minimality, as is Wiggers' — both are
//! conservative).
//!
//! Sizing is a pure function of the graph and the configuration: nothing is
//! remembered between calls. A caller that asks the same question often
//! keeps the answers itself, keyed by what it knows determines the graph
//! (the mapper's step 4 keys them by the mapping's signature and never
//! builds the graph for a question it has seen).

use crate::error::DataflowError;
use crate::graph::{ActorId, ChannelId, CsdfGraph};
use crate::mcr::refutes_source_period;
use crate::simulate::{SimConfig, Simulation};
use crate::throughput::{throughput_of, Throughput};
use rtsm_obs as obs;
use std::collections::HashMap;

/// Configuration for [`size_buffers`].
#[derive(Debug, Clone)]
pub struct BufferSizingConfig {
    /// The strictly periodic source actor (fires one phase-cycle per
    /// `period`).
    pub source: ActorId,
    /// Required source period in time units.
    pub period: u64,
    /// Channels to size; channels not listed keep their existing capacity.
    /// When empty, every channel with `capacity: None` is sized.
    pub channels: Vec<ChannelId>,
    /// Read by nothing: the descent makes one sweep (module docs, rule 4).
    /// It is kept only because the `benchmark/` crate constructs the struct;
    /// it goes when `benchmark/` is next maintained.
    pub max_sweeps: usize,
}

/// Result of a buffer-sizing run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BufferSizing {
    /// Computed capacity per sized channel, in token units.
    pub capacities: Vec<(ChannelId, u64)>,
    /// Total of all computed capacities.
    pub total: u64,
    /// Self-timed throughput of the source with exactly these capacities
    /// applied — what [`check_source_period`](crate::check_source_period) on
    /// the sized graph returns, carried out of the search that proved it (it
    /// sustains the period).
    pub achieved: Throughput,
}

impl BufferSizing {
    fn new(capacities: Vec<(ChannelId, u64)>, achieved: Throughput) -> Self {
        let total = capacities.iter().map(|(_, c)| c).sum();
        BufferSizing {
            capacities,
            total,
            achieved,
        }
    }

    /// Capacity computed for `channel`, if it was part of the sizing set.
    pub fn capacity_of(&self, channel: ChannelId) -> Option<u64> {
        self.capacities
            .iter()
            .find(|(c, _)| *c == channel)
            .map(|(_, cap)| *cap)
    }
}

/// Computes minimal buffer capacities sustaining `config.period` at the
/// source, and the throughput the graph achieves with them.
///
/// The graph itself is left untouched; apply the result with
/// [`apply_sizing`] if you need the capacitated graph.
///
/// # Errors
///
/// * [`DataflowError::GuardExhausted`] if the unbounded pilot run finds no
///   steady state (e.g. the graph is not consistent).
/// * [`DataflowError::Deadlock`] if the graph deadlocks even with unbounded
///   buffers.
/// * [`DataflowError::Inconsistent`] if the required period cannot be met at
///   any buffer size (the bottleneck is computation, not buffering).
pub fn size_buffers_ref(
    graph: &CsdfGraph,
    config: &BufferSizingConfig,
) -> Result<BufferSizing, DataflowError> {
    let _span = obs::span(obs::Span::BufferSizing);
    // Utilisation pre-check: actors are sequential, so per graph iteration
    // actor `a` is busy `r_a · cycle_duration(a)`; the iteration spans
    // `r_src · period`. A busier actor makes the requirement unattainable at
    // any buffer size — report it as compute-bound instead of searching.
    let reps = graph.repetition_vector()?;
    let r_src = reps[config.source.index()];
    for (id, actor) in graph.actors() {
        let busy = reps[id.index()] as u128 * actor.cycle_duration() as u128;
        let budget = r_src as u128 * config.period as u128;
        if busy > budget {
            return Err(DataflowError::Inconsistent {
                detail: format!(
                    "required period {} unattainable: actor `{}` needs {busy} time \
                     units per iteration but the iteration spans {budget}",
                    config.period, actor.name
                ),
            });
        }
    }

    let targets: Vec<ChannelId> = if config.channels.is_empty() {
        graph
            .channels()
            .filter(|(_, c)| c.capacity.is_none())
            .map(|(id, _)| id)
            .collect()
    } else {
        config.channels.clone()
    };

    let floors: Vec<u64> = targets
        .iter()
        .map(|&ch| {
            let c = graph.channel(ch);
            c.prod.max().max(c.cons.max()).max(c.initial_tokens).max(1)
        })
        .collect();
    let firings_per_iteration: u64 = graph
        .actors()
        .map(|(id, actor)| reps[id.index()] * actor.n_phases() as u64)
        .sum();
    let mut search = Search {
        graph: graph.clone(),
        targets: &targets,
        config,
        budget: ITERATIONS_BEFORE_CYCLE_TEST.saturating_mul(firings_per_iteration),
        table: ProbeTable::default(),
    };

    // Floor first (see the module docs).
    if let Some(achieved) = search.probe(&floors) {
        let capacities = targets.iter().copied().zip(floors).collect();
        return Ok(BufferSizing::new(capacities, achieved));
    }

    // Pilot run with the target channels unbounded to obtain upper bounds.
    for &ch in &targets {
        search.graph.channel_mut(ch).capacity = None;
    }
    let sim = Simulation::new(
        &search.graph,
        SimConfig {
            reference: Some(config.source),
            ..SimConfig::default()
        },
    );
    let pilot = sim.run();
    if pilot.deadlocked {
        return Err(DataflowError::Deadlock {
            at_time: pilot.end_time,
            firings: pilot.total_firings,
        });
    }
    let steady = pilot.steady.ok_or_else(|| DataflowError::GuardExhausted {
        guard: "no steady state with unbounded buffers".into(),
    })?;
    // If even unbounded buffers cannot sustain the period, buffering cannot
    // help: the graph is compute-bound below the requirement.
    if (steady.iterations as u128) * (config.period as u128) < steady.period as u128 {
        return Err(DataflowError::Inconsistent {
            detail: format!(
                "required period {} unattainable: unbounded-buffer period is {}/{}",
                config.period, steady.period, steady.iterations
            ),
        });
    }

    // Each target at its pilot-run peak pressure, floored: the pilot's own
    // schedule fits these capacities, so its steady state is theirs.
    let mut caps: Vec<u64> = targets
        .iter()
        .zip(&floors)
        .map(|(&ch, &floor)| pilot.max_pressure[ch.index()].max(floor))
        .collect();
    let proved = Throughput {
        iterations: steady.iterations,
        period: steady.period,
    };
    search.table.record(caps.clone(), Probed::Sustains(proved));

    // Per-channel descent, one sweep: by rule 4 a second one would ask only
    // questions the first has answered. Only a vector probed feasible is ever
    // stood on (an infeasible probe is undone, and dominance only ever
    // refutes), so the table holds the final vector's throughput.
    for i in 0..caps.len() {
        // Invariant: hi feasible. Find the smallest feasible capacity,
        // asking the floor first.
        let (mut lo, mut hi) = (floors[i], caps[i]);
        let mut mid = lo;
        while lo < hi {
            caps[i] = mid;
            if search.probe(&caps).is_some() {
                hi = mid;
            } else {
                lo = mid + 1;
            }
            mid = lo + (hi - lo) / 2;
        }
        caps[i] = hi;
    }

    let achieved = search
        .table
        .lookup(&caps)
        .flatten()
        .expect("the search stands on a vector probed feasible");
    Ok(BufferSizing::new(
        targets.iter().copied().zip(caps).collect(),
        achieved,
    ))
}

/// Graph iterations a probe simulates before it asks whether a cycle
/// already refutes it (module docs, rule 5), in firings: this times `Σq`,
/// the firings of one iteration. Measured on the four benchmark workloads
/// (seed 2008): every probe that sustains the period recurred within
/// 2.73·Σq firings, every refuting one took 12.3–33.3·Σq — on the paper
/// platform 33·Σq. At 4 no sustaining probe
/// pays for the test, and a refuting one stops after at most a third of the
/// firings it would take to recur.
const ITERATIONS_BEFORE_CYCLE_TEST: u64 = 4;

/// The working state of one sizing search.
struct Search<'a> {
    /// The caller's graph; every simulated probe overwrites the capacities
    /// of `targets`.
    graph: CsdfGraph,
    targets: &'a [ChannelId],
    config: &'a BufferSizingConfig,
    /// Firings a probe simulates before the cycle test:
    /// [`ITERATIONS_BEFORE_CYCLE_TEST`] graph iterations.
    budget: u64,
    table: ProbeTable,
}

impl Search<'_> {
    /// The throughput of the graph at `capacities` (one per target) if it
    /// sustains the required period. Feasibility is a pure function of the
    /// capacities, so the table is asked first and keeps every answer.
    fn probe(&mut self, capacities: &[u64]) -> Option<Throughput> {
        if let Some(known) = self.table.lookup(capacities) {
            obs::count(obs::Counter::BufferMemoHit, 1);
            return known;
        }
        obs::count(obs::Counter::BufferProbe, 1);
        for (&ch, &capacity) in self.targets.iter().zip(capacities) {
            self.graph.channel_mut(ch).capacity = Some(capacity);
        }
        let probed = self.analyse();
        if probed == Probed::CutOff {
            // Cut off by the simulation guard, not refuted. Read as
            // infeasible it can only inflate a capacity, so it is counted:
            // a search that was cut off can be told from one that ran to
            // its end.
            obs::count(obs::Counter::BufferProbeCutoff, 1);
        }
        self.table.record(capacities.to_vec(), probed)
    }

    /// What the self-timed run of the graph at its current capacities
    /// concludes, as [`check_source_period`](crate::check_source_period)
    /// would — except that a run still without recurrence after `budget`
    /// firings is first put to the cycle test, and not run on if that
    /// refutes it (rule 5). A "no" or a "don't know" resumes the same run.
    fn analyse(&self) -> Probed {
        let (source, period) = (self.config.source, self.config.period);
        let sim = Simulation::new(
            &self.graph,
            SimConfig {
                reference: Some(source),
                ..SimConfig::default()
            },
        );
        let outcome = match sim.run_within(self.budget) {
            Ok(outcome) => outcome,
            Err(paused) => {
                if refutes_source_period(&self.graph, source, period) == Ok(true) {
                    obs::count(obs::Counter::BufferProbeCycleRefuted, 1);
                    return Probed::Refuted;
                }
                paused.resume()
            }
        };
        throughput_of(&outcome)
            .map(|throughput| (throughput.sustains_period(period), throughput))
            .into()
    }
}

/// What analysing a capacity vector established.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Probed {
    /// It sustains the period, at this throughput.
    Sustains(Throughput),
    /// A completed analysis refuted it: a steady state below the rate, a
    /// deadlock, or a cycle too slow for the period or without tokens.
    Refuted,
    /// The simulation guard cut the run off: a "no" about this vector only.
    CutOff,
}

impl From<Result<(bool, Throughput), DataflowError>> for Probed {
    /// Reads what [`check_source_period`](crate::check_source_period) returns.
    fn from(checked: Result<(bool, Throughput), DataflowError>) -> Probed {
        match checked {
            Ok((true, throughput)) => Probed::Sustains(throughput),
            Err(DataflowError::GuardExhausted { .. }) => Probed::CutOff,
            Ok((false, _)) | Err(_) => Probed::Refuted,
        }
    }
}

/// What a sizing search has learnt about capacity vectors (one capacity per
/// sized channel, in the search's channel order).
#[derive(Debug, Default)]
struct ProbeTable {
    /// The vectors whose answer is theirs alone: the throughput of one a
    /// simulation found to sustain the period (its own run, or the pilot's
    /// for the vector of peak pressures), `None` for one whose run was cut
    /// off.
    answers: HashMap<Vec<u64>, Option<Throughput>>,
    /// The vectors a completed analysis refuted; each answers for every
    /// vector it dominates, itself included.
    refuted: Vec<Vec<u64>>,
}

impl ProbeTable {
    /// The answer for `capacities`, if the table has one: the vector's own,
    /// or a refutation by dominance. Never feasibility by dominance — a
    /// vector above a feasible one has a throughput nobody measured.
    fn lookup(&self, capacities: &[u64]) -> Option<Option<Throughput>> {
        match self.answers.get(capacities) {
            Some(answer) => Some(*answer),
            None => dominated(&self.refuted, capacities).then_some(None),
        }
    }

    /// Enters what analysing the graph at `capacities` established, and
    /// reads it as the search does: the throughput if it sustains the
    /// period.
    fn record(&mut self, capacities: Vec<u64>, probed: Probed) -> Option<Throughput> {
        let answer = match probed {
            Probed::Sustains(throughput) => Some(throughput),
            Probed::CutOff => None,
            Probed::Refuted => {
                self.refuted.push(capacities);
                return None;
            }
        };
        self.answers.insert(capacities, answer);
        answer
    }
}

/// Whether `capacities` is componentwise at most some vector of `refuted`.
fn dominated(refuted: &[Vec<u64>], capacities: &[u64]) -> bool {
    refuted
        .iter()
        .any(|bound| capacities.iter().zip(bound).all(|(c, b)| c <= b))
}

/// [`size_buffers_ref`] for callers that hold the graph by value.
///
/// # Errors
///
/// As [`size_buffers_ref`].
pub fn size_buffers(
    graph: CsdfGraph,
    config: &BufferSizingConfig,
) -> Result<BufferSizing, DataflowError> {
    size_buffers_ref(&graph, config)
}

/// Applies a computed sizing to a graph (sets channel capacities).
pub fn apply_sizing(graph: &mut CsdfGraph, sizing: &BufferSizing) {
    for &(ch, cap) in &sizing.capacities {
        graph.channel_mut(ch).capacity = Some(cap);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::phase::PhaseVec;
    use crate::throughput::check_source_period;

    /// source(period P) -> worker(wcet w) -> sink(wcet s)
    fn pipeline(p: u64, w: u64, s: u64) -> (CsdfGraph, ActorId, Vec<ChannelId>) {
        let mut g = CsdfGraph::new();
        let src = g.add_actor("src", PhaseVec::single(p), 1);
        let work = g.add_actor("work", PhaseVec::single(w), 1);
        let snk = g.add_actor("snk", PhaseVec::single(s), 1);
        let c1 = g
            .add_channel(src, work, PhaseVec::single(1), PhaseVec::single(1))
            .unwrap();
        let c2 = g
            .add_channel(work, snk, PhaseVec::single(1), PhaseVec::single(1))
            .unwrap();
        (g, src, vec![c1, c2])
    }

    #[test]
    fn fast_pipeline_needs_small_buffers() {
        let (g, src, chans) = pipeline(10, 4, 4);
        let sizing = size_buffers(
            g,
            &BufferSizingConfig {
                source: src,
                period: 10,
                channels: chans,
                max_sweeps: 3,
            },
        )
        .unwrap();
        for (_, cap) in &sizing.capacities {
            assert!(*cap <= 2, "capacity {cap} unexpectedly large");
        }
    }

    #[test]
    fn sized_graph_meets_period() {
        let (g, src, chans) = pipeline(10, 9, 8);
        let cfg = BufferSizingConfig {
            source: src,
            period: 10,
            channels: chans,
            max_sweeps: 3,
        };
        let sizing = size_buffers(g.clone(), &cfg).unwrap();
        let mut sized = g;
        apply_sizing(&mut sized, &sizing);
        let (ok, _) = check_source_period(&sized, src, 10).unwrap();
        assert!(ok);
    }

    #[test]
    fn capacities_are_minimal() {
        let (g, src, chans) = pipeline(10, 9, 8);
        let cfg = BufferSizingConfig {
            source: src,
            period: 10,
            channels: chans.clone(),
            max_sweeps: 3,
        };
        let sizing = size_buffers(g.clone(), &cfg).unwrap();
        // Decreasing any computed capacity by one must break feasibility
        // (unless it is already at the structural floor of 1).
        for &(ch, cap) in &sizing.capacities {
            if cap <= 1 {
                continue;
            }
            let mut probe = g.clone();
            apply_sizing(&mut probe, &sizing);
            probe.channel_mut(ch).capacity = Some(cap - 1);
            let (ok, _) = check_source_period(&probe, src, 10).unwrap_or((false, unreachable_tp()));
            assert!(!ok, "channel {ch} capacity {cap} not minimal");
        }
    }

    fn unreachable_tp() -> crate::throughput::Throughput {
        crate::throughput::Throughput {
            iterations: 1,
            period: u64::MAX,
        }
    }

    #[test]
    fn compute_bound_requirement_reported() {
        // Worker slower than the required period: no buffer size helps.
        let (g, src, chans) = pipeline(10, 30, 4);
        let err = size_buffers(
            g,
            &BufferSizingConfig {
                source: src,
                period: 10,
                channels: chans,
                max_sweeps: 3,
            },
        )
        .unwrap_err();
        assert!(matches!(err, DataflowError::Inconsistent { .. }));
    }

    #[test]
    fn a_refuted_vector_refutes_what_it_dominates_and_nothing_else() {
        let refuted = [vec![4, 2, 7]];
        assert!(dominated(&refuted, &[4, 2, 7]));
        assert!(dominated(&refuted, &[1, 2, 3]));
        assert!(!dominated(&refuted, &[1, 3, 1]), "one capacity above");
        assert!(!dominated(&[], &[0, 0, 0]));
    }

    #[test]
    fn the_table_answers_beyond_a_vector_only_from_a_completed_refutation() {
        let measured = Throughput {
            iterations: 2,
            period: 20,
        };
        let mut table = ProbeTable::default();
        assert_eq!(table.lookup(&[4, 4]), None);

        // A steady state below the rate, and a deadlock: both refute
        // everything at or below them.
        assert_eq!(table.record(vec![4, 4], Ok((false, measured)).into()), None);
        let deadlock = DataflowError::Deadlock {
            at_time: 0,
            firings: 0,
        };
        assert_eq!(table.record(vec![2, 9], Err(deadlock).into()), None);
        for refuted in [[4, 4], [3, 4], [2, 9], [1, 5]] {
            assert_eq!(table.lookup(&refuted), Some(None), "{refuted:?}");
        }
        assert_eq!(table.lookup(&[5, 4]), None);

        // A run the guard cut off says nothing about any other vector.
        let cut_off = DataflowError::GuardExhausted {
            guard: "firings".into(),
        };
        assert_eq!(table.record(vec![9, 9], Err(cut_off).into()), None);
        assert_eq!(table.lookup(&[9, 9]), Some(None));
        assert_eq!(table.lookup(&[8, 9]), None);

        // Nor does a feasible one: what runs above it, nobody measured.
        assert_eq!(
            table.record(vec![6, 6], Ok((true, measured)).into()),
            Some(measured)
        );
        assert_eq!(table.lookup(&[6, 6]), Some(Some(measured)));
        assert_eq!(table.lookup(&[7, 6]), None);
    }

    /// A hundred tokens wait in front of a consumer a little faster than
    /// the source: they drain by one per ten iterations, so the floor probe
    /// recurs only after some thousand iterations, far past its budget of
    /// eight firings. No cycle refutes it, and the resumed run proves it.
    #[test]
    fn a_probe_no_cycle_refutes_is_resumed_to_its_recurrence() {
        let mut g = CsdfGraph::new();
        let src = g.add_actor("src", PhaseVec::single(10), 1);
        let work = g.add_actor("work", PhaseVec::single(9), 1);
        let one = PhaseVec::single(1);
        let ch = g
            .add_channel_full(src, work, one.clone(), one, 100, None)
            .unwrap();
        let config = BufferSizingConfig {
            source: src,
            period: 10,
            channels: vec![ch],
            max_sweeps: 1,
        };
        let sizing = size_buffers_ref(&g, &config).unwrap();
        assert_eq!(sizing.capacity_of(ch), Some(100), "the floor sustains");
        apply_sizing(&mut g, &sizing);
        assert_eq!(
            check_source_period(&g, src, 10).unwrap(),
            (true, sizing.achieved)
        );
    }

    #[test]
    fn multi_rate_channel_floor_respected() {
        let mut g = CsdfGraph::new();
        let src = g.add_actor("src", PhaseVec::single(100), 1);
        let snk = g.add_actor("snk", PhaseVec::single(1), 1);
        // Source bursts 8 tokens per firing.
        let ch = g
            .add_channel(src, snk, PhaseVec::single(8), PhaseVec::single(1))
            .unwrap();
        let sizing = size_buffers(
            g,
            &BufferSizingConfig {
                source: src,
                period: 100,
                channels: vec![ch],
                max_sweeps: 3,
            },
        )
        .unwrap();
        assert!(sizing.capacity_of(ch).unwrap() >= 8);
    }
}
