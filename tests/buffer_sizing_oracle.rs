//! The oracle for the buffer-sizing search (`rtsm_dataflow::size_buffers_ref`).
//!
//! The search answers a descent — from the unbounded pilot's peak pressures,
//! each channel in turn down to the least capacity that still sustains the
//! period — with far fewer simulations than running it takes: it asks the
//! floors first, takes the pilot as the proof of its own vector, and refutes
//! by dominance (see the module docs of `buffer.rs`). [`reference_descent`]
//! *runs* the descent, the way the search did until PR 17: pilot, validation
//! probe, doubling fallback, bisection from the midpoint, confirming sweeps,
//! and a memo of exact vectors only. The two must return the same thing —
//! capacities, total and achieved throughput, or the same error with the
//! same text — on
//!
//! * random consistent multi-rate CSDF chains and fork-joins whose stages are
//!   joined through bounded router pipelines, with a strictly periodic source
//!   whose period is drawn around the bottleneck;
//! * hand-built graphs for each way the search gives up;
//! * every spec of the four catalogs, composed by `step4::compose` from
//!   mappings on random ledgers (load, failed tiles and links), so that the
//!   hop vectors vary.
//!
//! What every shortcut leans on is checked on the same graphs: feasibility
//! and throughput are monotone in each capacity. The search sweeps the
//! channels once; the reference sweeps until a sweep changes nothing (at
//! most three times), so equal answers are also the check that the search's
//! one sweep is enough.
//!
//! The source is strictly periodic (its phases add up to the period), as the
//! config documents and as step 4 composes it. For a source *faster* than the
//! period the two may differ, and the search is the one that is right: where
//! the floors sustain the period while some actor cannot keep up with the
//! free-running source, the pilot accumulates tokens until the firing guard
//! and the reference gives up (`a_source_faster_than_its_period…` pins it).
//!
//! Mutations of `buffer.rs` tried by hand, and what caught each:
//!
//! * returning the floors without probing them — all four tests here (the
//!   first case whose floors are infeasible), `buffer.rs`'s
//!   `sized_graph_meets_period` and the count pins in
//!   `tests/observability.rs`;
//! * entering the pilot's vector with a made-up throughput
//!   (`Throughput { iterations: 1, period: config.period }`) —
//!   `random_graphs…` only (`achieved` differs where a pilot recurs over more
//!   than one iteration and the answer keeps the pilot's vector; every
//!   catalog's pilot recurs after one);
//! * `dominated` always false — the count pins and `buffer.rs`'s unit tests
//!   (the answers do not move, only simulations are added);
//! * `dominated` comparing with `>=`, refuting *above* a refuted vector — the
//!   same four (capacities inflate);
//! * probing the midpoint before the floor — the count pins and
//!   `catalog_compositions…` (same answers, more than half the reference's
//!   simulations);
//! * admitting a guard cut-off into the refuted set, and answering "feasible"
//!   by dominance — both get past this file: no graph it can afford reaches
//!   the guard, and a descent never asks above a feasible vector it has not
//!   stood on. `buffer.rs`'s
//!   `the_table_answers_beyond_a_vector_only_from_a_completed_refutation`
//!   catches both.

use proptest::prelude::*;
use rtsm::app::ApplicationSpec;
use rtsm::core::feedback::Constraints;
use rtsm::core::step1::assign_implementations;
use rtsm::core::step2::improve_assignment;
use rtsm::core::step3::route_channels;
use rtsm::core::step4::compose;
use rtsm::core::{CostModel, SpecTable};
use rtsm::dataflow::{
    check_source_period, size_buffers_ref, ActorId, BufferSizing, BufferSizingConfig, ChannelId,
    CsdfGraph, DataflowError, PhaseVec, SimConfig, Simulation, Throughput,
};
use rtsm::obs::{self, Counter, SpanLatencyProbe};
use rtsm::platform::{Platform, PlatformState, TileClaim};
use std::cell::Cell;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::rc::Rc;

/// What the reference met on its way, for the coverage assertions.
#[derive(Debug, Default)]
struct Met {
    /// Simulations run: the pilot and every probe not answered by the memo.
    runs: u64,
    /// Those of them run in a sweep after the first.
    confirming_runs: u64,
    /// The pilot's peak pressures, floored — where the descent starts.
    pilot: Option<Vec<u64>>,
}

/// The search as it was until PR 17, verbatim but for `met`.
fn reference_descent(
    graph: &CsdfGraph,
    config: &BufferSizingConfig,
    met: &mut Met,
) -> Result<BufferSizing, DataflowError> {
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

    let mut memo: HashMap<Vec<u64>, Option<Throughput>> = HashMap::new();
    let mut achieved = None;
    let runs = Cell::new(0u64);
    let mut feasible_memo = |graph: &CsdfGraph| -> bool {
        let key: Vec<u64> = targets
            .iter()
            .map(|&ch| graph.channel(ch).capacity.unwrap_or(u64::MAX))
            .collect();
        let verdict = match memo.entry(key) {
            Entry::Occupied(hit) => *hit.get(),
            Entry::Vacant(slot) => {
                runs.set(runs.get() + 1);
                let probed = check_source_period(graph, config.source, config.period);
                *slot.insert(probed.ok().and_then(|(ok, tp)| ok.then_some(tp)))
            }
        };
        if verdict.is_some() {
            achieved = verdict;
        }
        verdict.is_some()
    };

    let mut graph = graph.clone();
    for &ch in &targets {
        graph.channel_mut(ch).capacity = None;
    }
    let sim = Simulation::new(
        &graph,
        SimConfig {
            reference: Some(config.source),
            ..SimConfig::default()
        },
    );
    met.runs += 1;
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
    if (steady.iterations as u128) * (config.period as u128) < steady.period as u128 {
        return Err(DataflowError::Inconsistent {
            detail: format!(
                "required period {} unattainable: unbounded-buffer period is {}/{}",
                config.period, steady.period, steady.iterations
            ),
        });
    }

    let mut caps: Vec<u64> = Vec::with_capacity(targets.len());
    for &ch in &targets {
        let c = graph.channel(ch);
        let floor = c.prod.max().max(c.cons.max()).max(c.initial_tokens).max(1);
        let ub = pilot.max_pressure[ch.index()].max(floor);
        caps.push(ub);
        graph.channel_mut(ch).capacity = Some(ub);
    }
    met.pilot = Some(caps.clone());

    if !feasible_memo(&graph) {
        let mut factor = 2u64;
        loop {
            for (i, &ch) in targets.iter().enumerate() {
                graph.channel_mut(ch).capacity = Some(caps[i].saturating_mul(factor));
            }
            if feasible_memo(&graph) {
                for (i, &ch) in targets.iter().enumerate() {
                    caps[i] = graph.channel(ch).capacity.expect("capacity just set");
                }
                break;
            }
            factor = factor.saturating_mul(2);
            if factor > 1 << 20 {
                return Err(DataflowError::GuardExhausted {
                    guard: "buffer sizing failed to find a feasible upper bound".into(),
                });
            }
        }
    }

    let mut runs_of_first_sweep = None;
    for _sweep in 0..config.max_sweeps {
        let mut changed = false;
        for (i, &ch) in targets.iter().enumerate() {
            let c = graph.channel(ch);
            let floor = c.prod.max().max(c.cons.max()).max(c.initial_tokens).max(1);
            let mut lo = floor;
            let mut hi = caps[i];
            if lo >= hi {
                continue;
            }
            while lo < hi {
                let mid = lo + (hi - lo) / 2;
                graph.channel_mut(ch).capacity = Some(mid);
                if feasible_memo(&graph) {
                    hi = mid;
                } else {
                    lo = mid + 1;
                }
            }
            graph.channel_mut(ch).capacity = Some(hi);
            if hi != caps[i] {
                caps[i] = hi;
                changed = true;
            }
        }
        runs_of_first_sweep.get_or_insert(runs.get());
        if !changed {
            break;
        }
    }
    met.runs += runs.get();
    met.confirming_runs += runs.get() - runs_of_first_sweep.unwrap_or(runs.get());

    let total = caps.iter().sum();
    Ok(BufferSizing {
        capacities: targets.iter().copied().zip(caps).collect(),
        total,
        achieved: achieved.expect("the search stands on a vector probed feasible"),
    })
}

/// A graph to size, with the question asked of it.
struct Case {
    graph: CsdfGraph,
    config: BufferSizingConfig,
}

impl Case {
    fn floors(&self) -> Vec<u64> {
        let floor = |&ch: &ChannelId| {
            let c = self.graph.channel(ch);
            c.prod.max().max(c.cons.max()).max(c.initial_tokens).max(1)
        };
        self.config.channels.iter().map(floor).collect()
    }
}

/// The search's answer, and the simulations (`CsdfRun`) it took.
fn searched(
    graph: &CsdfGraph,
    config: &BufferSizingConfig,
) -> (Result<BufferSizing, DataflowError>, u64) {
    let probe = Rc::new(SpanLatencyProbe::new());
    let answer = {
        let _guard = obs::install(probe.clone() as Rc<dyn obs::Probe>);
        size_buffers_ref(graph, config)
    };
    (answer, probe.counter_total(Counter::CsdfRun))
}

/// What the compared cases exercised, summed over a test.
#[derive(Debug, Default)]
struct Coverage {
    cases: u32,
    /// The floors sustain the period: one probe, no pilot.
    floors_feasible: u32,
    /// The pilot's peak pressure is the floor on every channel (what the
    /// reference's validation probe re-simulates event for event).
    pilot_at_floors: u32,
    /// Sized, with some channel (two or more channels) above its floor.
    one_above_floor: u32,
    two_above_floor: u32,
    /// Sized, with some channel left at the pilot's pressure above its
    /// floor: the vector the search never simulates is part of the answer.
    keeps_a_pilot_capacity: u32,
    /// Simulations the reference ran in a confirming sweep — vectors its
    /// exact memo had not met. The search runs none (asserted case by case):
    /// each is a refutation by dominance.
    confirming_runs_spared: u64,
    compute_bound_by_utilisation: u32,
    compute_bound_by_pilot: u32,
    deadlocked: u32,
    no_steady_state: u32,
    /// Simulations, the reference's and the search's.
    reference_runs: u64,
    runs: u64,
}

impl Coverage {
    /// Compares the search's one sweep with the reference's sweeps to a
    /// standstill (at most the case's `max_sweeps`) on `case` and books what
    /// was met.
    fn compare(&mut self, case: &Case, at: &str) -> Result<BufferSizing, DataflowError> {
        let mut met = Met::default();
        let expected = reference_descent(&case.graph, &case.config, &mut met);
        let (answer, runs) = searched(&case.graph, &case.config);
        assert_eq!(answer, expected, "{at}");

        self.cases += 1;
        self.reference_runs += met.runs;
        self.runs += runs;
        self.confirming_runs_spared += met.confirming_runs;
        let floors = case.floors();
        self.pilot_at_floors += u32::from(met.pilot.as_ref() == Some(&floors));
        match &answer {
            Ok(sizing) => {
                let sized: Vec<u64> = sizing.capacities.iter().map(|&(_, cap)| cap).collect();
                let above = sized.iter().zip(&floors).filter(|(c, f)| c > f).count();
                self.floors_feasible += u32::from(above == 0);
                self.one_above_floor += u32::from(above >= 1);
                self.two_above_floor += u32::from(above >= 2);
                let pilot = met.pilot.expect("sized from a pilot");
                let kept =
                    (sized.iter().zip(&pilot).zip(&floors)).any(|((c, p), f)| c == p && c > f);
                self.keeps_a_pilot_capacity += u32::from(kept);
            }
            Err(DataflowError::Inconsistent { detail }) if detail.contains("needs") => {
                self.compute_bound_by_utilisation += 1;
            }
            Err(DataflowError::Inconsistent { .. }) => self.compute_bound_by_pilot += 1,
            Err(DataflowError::Deadlock { .. }) => self.deadlocked += 1,
            Err(DataflowError::GuardExhausted { .. }) => self.no_steady_state += 1,
            Err(other) => panic!("{at}: {other}"),
        }
        answer
    }
}

/// `total` split over `phases` phases at random cut points.
fn split(total: u64, phases: u32, draw: &mut impl FnMut(u32) -> u32) -> PhaseVec {
    let mut cuts: Vec<u64> = (1..phases)
        .map(|_| u64::from(draw(total as u32 + 1)))
        .collect();
    cuts.sort_unstable();
    cuts.push(total);
    let mut values = Vec::with_capacity(cuts.len());
    let mut previous = 0;
    for cut in cuts {
        values.push(cut - previous);
        previous = cut;
    }
    PhaseVec::from_slice(&values)
}

/// A random consistent multi-rate chain (source and 2–4 stages) or
/// fork-join (source, a fork, two branches, a join). Stage `a` runs `r_a`
/// cycles per graph iteration, so an edge `u → v` moves `m · r_u · r_v`
/// tokens per iteration, spread at random over the phases of either end.
/// One edge in two crosses 1–3 routers, Figure-3 style: a producer-side
/// buffer of twice the largest burst, 4-word router buffers, and the last
/// hop — into the consumer — is the buffer to size, as is a direct edge.
/// The source's phases add up to the period, drawn from 0.8 to 1.7 times
/// the busiest stage's time per source cycle.
fn random_case(draw: &mut impl FnMut(u32) -> u32) -> Case {
    let mut graph = CsdfGraph::new();
    // Stage 0 is the source; `edges` are (from, to) stage indices.
    let edges: Vec<(usize, usize)> = if draw(3) == 0 {
        vec![(0, 1), (1, 2), (1, 3), (2, 4), (3, 4)]
    } else {
        (0..2 + draw(3) as usize).map(|i| (i, i + 1)).collect()
    };
    let stages = 1 + edges.iter().map(|&(_, to)| to).max().expect("edges");
    let reps: Vec<u64> = (0..stages).map(|_| 1 + u64::from(draw(3))).collect();
    let phases: Vec<u32> = (0..stages).map(|_| 1 + draw(3)).collect();
    let wcets: Vec<PhaseVec> = (0..stages)
        .map(|a| {
            let wcet: Vec<u64> = (0..phases[a]).map(|_| 4 + u64::from(draw(28))).collect();
            PhaseVec::from_slice(&wcet)
        })
        .collect();
    let bottleneck = (1..stages)
        .map(|a| (reps[a] * wcets[a].total()).div_ceil(reps[0]))
        .max()
        .expect("stages");
    let period = (bottleneck * u64::from(80 + draw(90)) / 100).max(u64::from(phases[0]));
    let (q, r) = (period / u64::from(phases[0]), period % u64::from(phases[0]));
    let source_wcet: Vec<u64> = (0..u64::from(phases[0]))
        .map(|i| q + u64::from(i < r))
        .collect();

    let source = graph.add_actor("source", PhaseVec::from_slice(&source_wcet), 1);
    let mut actors = vec![source];
    for (a, wcet) in wcets.iter().enumerate().skip(1) {
        actors.push(graph.add_actor(format!("stage{a}"), wcet.clone(), 1));
    }
    let mut channels = Vec::new();
    for &(from, to) in &edges {
        let m = 1 + u64::from(draw(2));
        let prod = split(m * reps[to], phases[from], draw);
        let cons = split(m * reps[from], phases[to], draw);
        let hops = if draw(2) == 0 { 0 } else { 1 + draw(3) };
        let one = PhaseVec::single(1);
        let mut tail = (actors[from], prod);
        for hop in 0..hops {
            let router = graph.add_actor(format!("R{from}.{to}.{hop}"), PhaseVec::single(1), 1);
            let capacity = if hop == 0 { 4.max(2 * tail.1.max()) } else { 4 };
            graph
                .add_channel_full(tail.0, router, tail.1, one.clone(), 0, Some(capacity))
                .expect("rates match phases");
            tail = (router, one.clone());
        }
        channels.push(
            graph
                .add_channel(tail.0, actors[to], tail.1, cons)
                .expect("rates match phases"),
        );
    }
    Case {
        graph,
        config: BufferSizingConfig {
            source,
            period,
            channels,
            max_sweeps: 3,
        },
    }
}

/// The source's rate at `capacities`, as `(iterations, period)`: zero when
/// the graph deadlocks, `None` when the guard cut the run off.
fn rate(case: &Case, capacities: &[u64]) -> Option<(u64, u64)> {
    let mut graph = case.graph.clone();
    for (&ch, &capacity) in case.config.channels.iter().zip(capacities) {
        graph.channel_mut(ch).capacity = Some(capacity);
    }
    match check_source_period(&graph, case.config.source, case.config.period) {
        Ok((_, tp)) => Some((tp.iterations, tp.period)),
        Err(DataflowError::Deadlock { .. }) => Some((0, 1)),
        Err(DataflowError::GuardExhausted { .. }) => None,
        Err(other) => panic!("{other}"),
    }
}

#[test]
fn random_graphs_size_as_the_reference_descent_and_capacity_never_hurts() {
    const CASES: u32 = 150;
    let mut runner = TestRunner::new(ProptestConfig::with_cases(CASES));
    let mut coverage = Coverage::default();
    let (mut raised, mut raised_from_infeasible) = (0u32, 0u32);
    for number in 0..runner.cases() {
        let mut draw = |upper: u32| Strategy::generate(&(0..upper), runner.rng());
        let case = random_case(&mut draw);
        let at = format!("case {number}");
        let Ok(sizing) = coverage.compare(&case, &at) else {
            continue;
        };

        // The assumption under every shortcut: raising one capacity never
        // lowers the rate (so never turns "sustains" into "does not"). From
        // a vector around the answer: each channel between its floor and
        // two above what it was given.
        let floors = case.floors();
        let around: Vec<u64> = (sizing.capacities.iter().zip(&floors))
            .map(|(&(_, cap), &floor)| floor + u64::from(draw((cap + 3 - floor) as u32)))
            .collect();
        let Some(below) = rate(&case, &around) else {
            continue;
        };
        for i in 0..around.len() {
            let mut more = around.clone();
            more[i] += 1 + u64::from(draw(2));
            let Some(above) = rate(&case, &more) else {
                continue;
            };
            // above.0 / above.1 ≥ below.0 / below.1
            assert!(
                u128::from(above.0) * u128::from(below.1)
                    >= u128::from(below.0) * u128::from(above.1),
                "{at}: {around:?} runs at {below:?}, {more:?} at {above:?}"
            );
            raised += 1;
            let sustains = |(iterations, period): (u64, u64)| {
                u128::from(iterations) * u128::from(case.config.period) >= u128::from(period)
            };
            raised_from_infeasible += u32::from(!sustains(below));
            assert!(
                sustains(above) || !sustains(below),
                "{at}: {around:?} → {more:?}"
            );
        }
    }
    eprintln!("{coverage:?}, {raised} capacities raised ({raised_from_infeasible} from an infeasible vector)");
    assert_eq!(coverage.cases, CASES);
    assert!(coverage.floors_feasible >= 10, "{coverage:?}");
    assert!(coverage.pilot_at_floors >= 5, "{coverage:?}");
    assert!(coverage.one_above_floor >= 20, "{coverage:?}");
    assert!(coverage.two_above_floor >= 10, "{coverage:?}");
    assert!(coverage.keeps_a_pilot_capacity >= 5, "{coverage:?}");
    assert!(coverage.confirming_runs_spared > 0, "{coverage:?}");
    assert!(coverage.compute_bound_by_utilisation > 0, "{coverage:?}");
    assert!(coverage.runs < coverage.reference_runs, "{coverage:?}");
    assert!(
        raised >= 100 && raised_from_infeasible >= 10,
        "{raised}, {raised_from_infeasible}"
    );
}

/// source(period) → worker over a sized channel, and whatever `rest` adds
/// from the worker on.
fn pipeline(period: u64, worker: u64, rest: impl FnOnce(&mut CsdfGraph, ActorId)) -> Case {
    let mut graph = CsdfGraph::new();
    let source = graph.add_actor("source", PhaseVec::single(period), 1);
    let work = graph.add_actor("worker", PhaseVec::single(worker), 1);
    let one = PhaseVec::single(1);
    let first = graph.add_channel(source, work, one.clone(), one).unwrap();
    rest(&mut graph, work);
    Case {
        graph,
        config: BufferSizingConfig {
            source,
            period,
            channels: vec![first],
            max_sweeps: 3,
        },
    }
}

#[test]
fn every_way_of_giving_up_is_the_reference_descents() {
    let one = || PhaseVec::single(1);
    let mut coverage = Coverage::default();

    // A worker busier than the period.
    let busy = pipeline(10, 30, |_, _| {});
    assert!(coverage.compare(&busy, "busy worker").is_err());
    assert_eq!(coverage.compute_bound_by_utilisation, 1);

    // Source and worker serialised by a one-word buffer that is not sized:
    // 10 + 6 per token, whatever the sized channel behind the worker holds.
    let mut serialised = pipeline(10, 6, |graph, work| {
        let sink = graph.add_actor("sink", one(), 1);
        graph.add_channel(work, sink, one(), one()).unwrap();
    });
    let ids: Vec<ChannelId> = serialised.graph.channels().map(|(id, _)| id).collect();
    serialised.graph.channel_mut(ids[0]).capacity = Some(1);
    serialised.config.channels = vec![ids[1]];
    let refusal = coverage
        .compare(&serialised, "serialised source")
        .unwrap_err();
    assert!(
        refusal
            .to_string()
            .contains("unbounded-buffer period is 16/1"),
        "{refusal}"
    );
    assert_eq!(coverage.compute_bound_by_pilot, 1);

    // A feedback edge without a token: nothing ever fires.
    let starved = pipeline(10, 4, |graph, work| {
        let source = graph.actor_by_name("source").unwrap();
        graph
            .add_channel_full(work, source, one(), one(), 0, Some(1))
            .unwrap();
    });
    assert!(coverage.compare(&starved, "starved cycle").is_err());
    assert_eq!(coverage.deadlocked, 1);

    // Worker and sink serialised by an unsized one-word buffer, 6 + 6 per
    // token against a period of 10: behind an unbounded buffer the source
    // runs ahead for ever, and at its floor the source is held to 12.
    let outrun = pipeline(10, 6, |graph, work| {
        let sink = graph.add_actor("sink", PhaseVec::single(6), 1);
        graph
            .add_channel_full(work, sink, one(), one(), 0, Some(1))
            .unwrap();
    });
    assert!(coverage.compare(&outrun, "outrun worker").is_err());
    assert_eq!(coverage.no_steady_state, 1);

    // Behind an unbounded buffer the four-phase burst runs ahead of its slow
    // consumer; held back by a one-word buffer, both are still done within
    // the period.
    let mut graph = CsdfGraph::new();
    let source = graph.add_actor("source", PhaseVec::single(40), 1);
    let burst = graph.add_actor("burst", PhaseVec::uniform(1, 4), 1);
    let slow = graph.add_actor("slow", PhaseVec::single(5), 1);
    let all_at_once = PhaseVec::from_slice(&[4, 0, 0, 0]);
    graph
        .add_channel_full(source, burst, PhaseVec::single(4), all_at_once, 0, Some(8))
        .unwrap();
    let sized = graph
        .add_channel(burst, slow, PhaseVec::uniform(1, 4), one())
        .unwrap();
    let case = Case {
        graph,
        config: BufferSizingConfig {
            source,
            period: 40,
            channels: vec![sized],
            max_sweeps: 3,
        },
    };
    let descended = coverage.compare(&case, "a burst held back").unwrap();
    assert_eq!(descended.capacities, vec![(sized, 1)]);
}

/// Where the two part, and which of them is right: a source that could run
/// faster than it is required to. The floors sustain the required period —
/// the answer, from one simulation — but behind unbounded buffers the
/// free-running source outruns the worker, the pilot never recurs, and the
/// reference gives up after two million firings.
#[test]
fn a_source_faster_than_its_period_is_sized_where_the_pilot_ran_away() {
    let mut case = pipeline(4, 5, |_, _| {});
    case.config.period = 10;
    let (answer, runs) = searched(&case.graph, &case.config);
    let sizing = answer.expect("4 + 5 per token through a one-word buffer");
    assert_eq!(sizing.capacities, vec![(case.config.channels[0], 1)]);
    assert!(sizing.achieved.sustains_period(10));
    assert_eq!(runs, 1);
    let refusal = reference_descent(&case.graph, &case.config, &mut Met::default()).unwrap_err();
    assert!(
        matches!(refusal, DataflowError::GuardExhausted { .. }),
        "{refusal}"
    );
}

/// Steps 1–3 of `spec` on `base`, composed: `None` when it does not fit.
fn composed_on(spec: &ApplicationSpec, platform: &Platform, base: &PlatformState) -> Option<Case> {
    let constraints = Constraints::new();
    let placed = assign_implementations(spec, platform, base, &constraints).ok()?;
    let (mut mapping, mut working) = (placed.mapping, placed.working);
    improve_assignment(
        spec,
        platform,
        &constraints,
        &mut mapping,
        &mut working,
        &CostModel::HopCount,
    );
    route_channels(spec, platform, &mut mapping, &mut working).ok()?;
    let table = SpecTable::for_validated(spec);
    let composition = compose(&table, platform, &mapping)?;
    Some(Case {
        graph: composition.csdf,
        config: BufferSizingConfig {
            source: composition.source,
            period: spec.qos.period_ps,
            channels: composition.buffer_edges,
            max_sweeps: 3,
        },
    })
}

#[test]
fn catalog_compositions_size_as_the_reference_descent() {
    // Ledgers per spec; a cold analysis of a synthetic chain costs some
    // twenty of the others.
    const LEDGERS: [(&str, u32); 4] = [
        ("hiperlan2", 10),
        ("mixed", 12),
        ("synthetic", 3),
        ("defrag", 8),
    ];
    let mut runner = TestRunner::new(ProptestConfig::default());
    let mut coverage = Coverage::default();
    let mut unmapped = 0;
    let mut graphs = std::collections::HashSet::new();
    for (name, ledgers) in LEDGERS {
        let resolved = rtsm::exp::resolve_catalog(name, 42).expect("registered catalog");
        let platform = &resolved.platform;
        for entry in resolved.catalog.entries() {
            for ledger in 0..ledgers {
                let mut draw = |upper: u32| Strategy::generate(&(0..upper), runner.rng());
                // The first ledger is the empty platform; on the others a
                // tile is full when its draw is under the load, and a tile
                // or a link has failed one time in ten.
                let mut base = platform.initial_state();
                let load = if ledger == 0 { 0 } else { draw(3) };
                for (id, tile) in platform.tiles() {
                    if draw(6) < load {
                        let full = TileClaim {
                            slots: tile.compute_slots,
                            memory_bytes: 0,
                            cycles_per_second: 0,
                            injection: 0,
                            ejection: 0,
                        };
                        base.claim_tile(platform, id, &full)
                            .expect("within the tile");
                    }
                    if ledger > 0 && draw(10) == 0 {
                        base.fail_tile(id);
                    }
                }
                for (id, _) in platform.links() {
                    if ledger > 0 && draw(10) == 0 {
                        base.fail_link(id);
                    }
                }
                let Some(case) = composed_on(&entry.spec, platform, &base) else {
                    unmapped += 1;
                    continue;
                };
                let at = format!("`{name}` / `{}`, ledger {ledger}", entry.name);
                coverage
                    .compare(&case, &at)
                    .expect("every catalog spec is feasible alone");
                graphs.insert(format!("{:?}", case.graph.channels().collect::<Vec<_>>()));
            }
        }
    }
    eprintln!(
        "{coverage:?}, {unmapped} unmapped, {} distinct graphs",
        graphs.len()
    );
    assert!(
        coverage.cases >= 60 && graphs.len() >= 40,
        "{coverage:?}, {}",
        graphs.len()
    );
    assert!(coverage.floors_feasible >= 20, "{coverage:?}");
    assert!(coverage.pilot_at_floors >= 20, "{coverage:?}");
    assert!(coverage.one_above_floor >= 10, "{coverage:?}");
    assert!(coverage.keeps_a_pilot_capacity > 0, "{coverage:?}");
    assert!(coverage.confirming_runs_spared > 0, "{coverage:?}");
    assert!(2 * coverage.runs < coverage.reference_runs, "{coverage:?}");
}
