//! Property-based tests for the CSDF engine.

use proptest::prelude::*;
use rtsm_dataflow::graph::CsdfGraph;
use rtsm_dataflow::mcr::{maximum_cycle_ratio, refutes_source_period};
use rtsm_dataflow::simulate::{SimConfig, Simulation};
use rtsm_dataflow::{check_source_period, hsdf, DataflowError, PhaseVec, Ratio};

proptest! {
    #[test]
    fn phase_roundtrip(values in proptest::collection::vec(0u64..100, 1..20)) {
        let v = PhaseVec::from_slice(&values);
        let expanded: Vec<u64> = v.iter().collect();
        prop_assert_eq!(&expanded, &values);
        prop_assert_eq!(v.total(), values.iter().sum::<u64>());
        prop_assert_eq!(v.len(), values.len());
    }

    #[test]
    fn phase_cumulative_monotone_and_periodic(
        values in proptest::collection::vec(0u64..50, 1..10),
        n in 0u64..40,
    ) {
        let v = PhaseVec::from_slice(&values);
        prop_assert!(v.cumulative(n) <= v.cumulative(n + 1));
        prop_assert_eq!(v.cumulative(v.len() as u64), v.total());
        let cycle = v.len() as u64;
        prop_assert_eq!(v.cumulative(n + cycle), v.cumulative(n) + v.total());
    }

    #[test]
    fn phase_concat_totals(
        a in proptest::collection::vec(0u64..50, 1..8),
        b in proptest::collection::vec(0u64..50, 1..8),
    ) {
        let va = PhaseVec::from_slice(&a);
        let vb = PhaseVec::from_slice(&b);
        let cat = va.concat(&vb);
        prop_assert_eq!(cat.total(), va.total() + vb.total());
        prop_assert_eq!(cat.len(), va.len() + vb.len());
        prop_assert_eq!(cat.get(a.len()), b[0]);
    }

    /// Balance equations hold for the computed repetition vector on random
    /// consistent chains.
    #[test]
    fn repetition_vector_balances(
        rs in proptest::collection::vec(1u64..=4, 2..=5),
        ms in proptest::collection::vec(1u64..=3, 1..=4),
    ) {
        prop_assume!(ms.len() == rs.len() - 1);
        let mut g = CsdfGraph::new();
        let ids: Vec<_> = rs
            .iter()
            .enumerate()
            .map(|(i, _)| g.add_actor(format!("a{i}"), PhaseVec::single(1), 1))
            .collect();
        for i in 0..ms.len() {
            // prod_total = r_{i+1}·m, cons_total = r_i·m keeps consistency.
            let prod = rs[i + 1] * ms[i];
            let cons = rs[i] * ms[i];
            g.add_channel(ids[i], ids[i + 1], PhaseVec::single(prod), PhaseVec::single(cons))
                .unwrap();
        }
        let reps = g.repetition_vector().unwrap();
        for (_, ch) in g.channels() {
            prop_assert_eq!(
                reps[ch.src.index()] * ch.prod.total(),
                reps[ch.dst.index()] * ch.cons.total()
            );
        }
        // Minimality: connected graph => gcd of entries is 1.
        let gcd = reps.iter().fold(0u64, |acc, &r| {
            let (mut a, mut b) = (acc, r);
            while b != 0 { let t = a % b; a = b; b = t; }
            a
        });
        prop_assert_eq!(gcd, 1);
    }

    /// A bounded channel behaves exactly like an explicit reverse channel.
    #[test]
    fn capacity_expansion_is_behaviour_preserving(
        wcet_a in 1u64..=8,
        wcet_b in 1u64..=8,
        cap in 1u64..=5,
    ) {
        let mut g = CsdfGraph::new();
        let a = g.add_actor("a", PhaseVec::single(wcet_a), 1);
        let b = g.add_actor("b", PhaseVec::single(wcet_b), 1);
        g.add_channel_full(a, b, PhaseVec::single(1), PhaseVec::single(1), 0, Some(cap))
            .unwrap();
        let bounded = Simulation::new(&g, SimConfig::default()).run();
        let expanded_graph = g.expand_capacities();
        let expanded = Simulation::new(&expanded_graph, SimConfig::default()).run();
        let sb = bounded.steady.expect("bounded steady");
        let se = expanded.steady.expect("expanded steady");
        prop_assert_eq!(
            sb.period as u128 * se.iterations as u128,
            se.period as u128 * sb.iterations as u128
        );
    }

    /// Throughput is monotone non-decreasing in buffer capacity.
    #[test]
    fn throughput_monotone_in_capacity(
        wcet_a in 1u64..=8,
        wcet_b in 1u64..=8,
        cap in 1u64..=4,
    ) {
        let build = |c: u64| {
            let mut g = CsdfGraph::new();
            let a = g.add_actor("a", PhaseVec::single(wcet_a), 1);
            let b = g.add_actor("b", PhaseVec::single(wcet_b), 1);
            g.add_channel_full(a, b, PhaseVec::single(1), PhaseVec::single(1), 0, Some(c))
                .unwrap();
            g
        };
        let small = Simulation::new(&build(cap), SimConfig::default()).run();
        let large = Simulation::new(&build(cap + 1), SimConfig::default()).run();
        let ss = small.steady.expect("steady");
        let sl = large.steady.expect("steady");
        // period-per-iteration of larger capacity <= smaller capacity.
        prop_assert!(
            sl.period as u128 * ss.iterations as u128
                <= ss.period as u128 * sl.iterations as u128
        );
    }

    /// The MCR of the HSDF expansion matches the simulated steady state on
    /// random two-actor cycles.
    #[test]
    fn mcr_matches_simulation_on_cycles(
        phases_a in 1usize..=3,
        phases_b in 1usize..=3,
        tokens in 1u64..=3,
        seed_a in 0u64..1000,
        seed_b in 0u64..1000,
    ) {
        // Deterministic wcets from seeds to keep the strategy simple.
        let wa: Vec<u64> = (0..phases_a).map(|i| 1 + (seed_a + i as u64) % 7).collect();
        let wb: Vec<u64> = (0..phases_b).map(|i| 1 + (seed_b + i as u64) % 7).collect();
        let mut g = CsdfGraph::new();
        let a = g.add_actor("a", PhaseVec::from_slice(&wa), 1);
        let b = g.add_actor("b", PhaseVec::from_slice(&wb), 1);
        // 1 token per phase both ways: consistent with q = [pa, pb]·k.
        g.add_channel(a, b, PhaseVec::uniform(1, phases_a as u32), PhaseVec::uniform(1, phases_b as u32)).unwrap();
        g.add_channel_full(b, a, PhaseVec::uniform(1, phases_b as u32), PhaseVec::uniform(1, phases_a as u32), tokens, None).unwrap();

        let reps = g.repetition_vector().unwrap();
        let sim = Simulation::new(&g, SimConfig::default()).run();
        let steady = sim.steady.expect("steady");
        let sim_period = Ratio::new(
            steady.period as i128 * reps[0] as i128,
            steady.iterations as i128,
        );
        let h = hsdf::expand(&g).unwrap();
        let mcr = maximum_cycle_ratio(&h).unwrap();
        prop_assert_eq!(sim_period, mcr);
    }

    /// Simulation is deterministic: two runs agree exactly.
    #[test]
    fn simulation_deterministic(
        wcets in proptest::collection::vec(1u64..=9, 2..=4),
    ) {
        let mut g = CsdfGraph::new();
        let ids: Vec<_> = wcets
            .iter()
            .enumerate()
            .map(|(i, &w)| g.add_actor(format!("a{i}"), PhaseVec::single(w), 1))
            .collect();
        for w in ids.windows(2) {
            g.add_channel_full(w[0], w[1], PhaseVec::single(1), PhaseVec::single(1), 0, Some(3))
                .unwrap();
        }
        let r1 = Simulation::new(&g, SimConfig::default()).run();
        let r2 = Simulation::new(&g, SimConfig::default()).run();
        prop_assert_eq!(r1.end_time, r2.end_time);
        prop_assert_eq!(r1.total_firings, r2.total_firings);
        prop_assert_eq!(r1.max_pressure, r2.max_pressure);
    }

    /// Random totals: a consistent multirate chain always yields a steady
    /// state under generous capacities, and buffer sizing finds capacities
    /// that meet the unbounded-rate period.
    #[test]
    fn sizing_meets_natural_period(
        r1 in 1u64..=3,
        r2 in 1u64..=3,
        m in 1u64..=2,
        total in 2u64..=6,
    ) {
        let _ = total; // totals are derived from rates below
        let mut g = CsdfGraph::new();
        // Source paced at its wcet; worker r2 cycles per r1 source cycles.
        let src = g.add_actor("src", PhaseVec::single(20), 1);
        let dst = g.add_actor("dst", PhaseVec::single(1), 1);
        let prod = r2 * m;
        let cons = r1 * m;
        let ch = g.add_channel(src, dst, PhaseVec::single(prod), PhaseVec::single(cons)).unwrap();
        let sizing = rtsm_dataflow::size_buffers(
            g.clone(),
            &rtsm_dataflow::BufferSizingConfig {
                source: src,
                period: 20,
                channels: vec![ch],
                max_sweeps: 2,
            },
        ).unwrap();
        let cap = sizing.capacity_of(ch).unwrap();
        prop_assert!(cap >= prod.max(cons));
        let mut sized = g;
        rtsm_dataflow::apply_sizing(&mut sized, &sizing);
        let (ok, _) = rtsm_dataflow::check_source_period(&sized, src, 20).unwrap();
        prop_assert!(ok);
    }

    /// Oracle for the verdict buffer sizing carries: on random consistent
    /// multirate pipelines it equals a fresh self-timed analysis of the
    /// sized graph, and neither it nor the capacities depend on actor
    /// names.
    #[test]
    fn sizing_carries_the_sized_graphs_throughput_and_ignores_names(
        rs in proptest::collection::vec(1u64..=3, 4..=4),
        ms in proptest::collection::vec(1u64..=2, 3..=3),
        wcets in proptest::collection::vec(1u64..=6, 3..=3),
        stages in 2usize..=4,
    ) {
        let build = |prefix: &str| {
            let mut g = CsdfGraph::new();
            // Stage i fires rs[i]/rs[0] ≤ 3 times per source cycle at
            // ≤ 6 time units each: always within the 40-unit period.
            let mut ids = vec![g.add_actor(format!("{prefix}0"), PhaseVec::single(40), 1)];
            for i in 1..stages {
                ids.push(g.add_actor(format!("{prefix}{i}"), PhaseVec::single(wcets[i - 1]), 1));
            }
            let channels: Vec<_> = (0..stages - 1)
                .map(|i| {
                    let (prod, cons) = (rs[i + 1] * ms[i], rs[i] * ms[i]);
                    g.add_channel(ids[i], ids[i + 1], PhaseVec::single(prod), PhaseVec::single(cons))
                        .unwrap()
                })
                .collect();
            (g, ids[0], channels)
        };
        let (g, src, channels) = build("stage");
        let config = rtsm_dataflow::BufferSizingConfig {
            source: src,
            period: 40,
            channels,
            max_sweeps: 3,
        };
        let (renamed, _, _) = build("R");
        let sizing = rtsm_dataflow::size_buffers_ref(&g, &config).unwrap();
        let mut sized = g;
        rtsm_dataflow::apply_sizing(&mut sized, &sizing);
        let (ok, fresh) = rtsm_dataflow::check_source_period(&sized, src, 40).unwrap();
        prop_assert!(ok);
        prop_assert_eq!(sizing.achieved, fresh);
        prop_assert_eq!(&rtsm_dataflow::size_buffers_ref(&renamed, &config).unwrap(), &sizing);
    }
}

/// Per-phase rates 0–3 over `phases` phases, redrawn until one is non-zero.
fn nonzero_rates(phases: usize, tape: &mut Tape) -> Vec<u64> {
    loop {
        let rates = collection::vec(0u64..=3, phases..=phases).generate(tape);
        if rates.iter().any(|&r| r > 0) {
            return rates;
        }
    }
}

/// A random connected multi-rate CSDF chain: 2–4 actors of 1–3 phases
/// (WCET 1–9), per-phase rates 0–3 with a non-zero total, every channel
/// bounded at `1 + U[0, 3·(max prod + max cons))` tokens. Actor 0 heads it.
fn bounded_multirate_chain(tape: &mut Tape) -> CsdfGraph {
    let mut g = CsdfGraph::new();
    let phases = collection::vec(1usize..=3, 2..=4).generate(tape);
    let mut ids = Vec::new();
    for (i, &n) in phases.iter().enumerate() {
        let wcet = collection::vec(1u64..=9, n..=n).generate(tape);
        ids.push(g.add_actor(format!("a{i}"), PhaseVec::from_slice(&wcet), 1));
    }
    for i in 1..ids.len() {
        let prod = nonzero_rates(phases[i - 1], tape);
        let cons = nonzero_rates(phases[i], tape);
        let bound = 3 * (prod.iter().max().unwrap() + cons.iter().max().unwrap());
        let capacity = Some(1 + (0..bound).generate(tape));
        let (prod, cons) = (PhaseVec::from_slice(&prod), PhaseVec::from_slice(&cons));
        g.add_channel_full(ids[i - 1], ids[i], prod, cons, 0, capacity)
            .unwrap();
    }
    g
}

/// MCR is the self-timed simulator's independent oracle on random connected
/// multi-rate CSDF chains ([`bounded_multirate_chain`]). On a live chain the
/// MCR of the capacity-expanded HSDF graph equals the simulated period; on
/// a deadlocked one both refuse; both kinds occur.
#[test]
fn mcr_matches_simulation_on_bounded_multirate_chains() {
    let (mut live, mut dead) = (0, 0);
    TestRunner::new(ProptestConfig::with_cases(500)).run(|tape| {
        let g = bounded_multirate_chain(tape);
        let mcr = hsdf::expand(&g.expand_capacities()).and_then(|h| maximum_cycle_ratio(&h));
        let steady = Simulation::new(&g, SimConfig::default()).run().steady;
        match (mcr, steady) {
            (Ok(mcr), Some(s)) => {
                let reps = g.repetition_vector().unwrap();
                let period = Ratio::new(s.period as i128 * reps[0] as i128, s.iterations as i128);
                assert_eq!(period, mcr, "{g:?}");
                live += 1;
            }
            (Err(_), None) => dead += 1,
            (mcr, steady) => panic!("MCR {mcr:?} but simulation {steady:?} on {g:?}"),
        }
    });
    assert!(live > 0 && dead > 0, "{live} live, {dead} deadlocked");
}

/// The verdict the buffer-sizing search takes from the cycle test is the
/// simulation's: on random bounded chains ([`bounded_multirate_chain`])
/// whose head is held to a period drawn just below, exactly at, or just
/// above its simulated period, `refutes_source_period` says "refuted"
/// exactly when the self-timed run settles below the rate or deadlocks.
/// Refutations by rate and by deadlock, sustained periods and the exact
/// boundary (period = MCR per head cycle, where only `>` refutes) all occur.
#[test]
fn the_cycle_test_refutes_exactly_what_simulation_refutes() {
    let (mut slow, mut dead, mut sustained, mut boundary) = (0, 0, 0, 0);
    TestRunner::new(ProptestConfig::with_cases(500)).run(|tape| {
        let g = bounded_multirate_chain(tape);
        let head = g.actors().next().unwrap().0;
        let reps = g.repetition_vector().unwrap();
        // The head's simulated time per cycle, when it has one.
        let achievable = hsdf::expand(&g.expand_capacities())
            .and_then(|h| maximum_cycle_ratio(&h))
            .map(|mcr| mcr.mul(Ratio::new(1, reps[0] as i128)));
        let period = match achievable {
            Ok(p) => {
                // The least whole period that keeps up, and its neighbours.
                let ceil = ((p.numer() + p.denom() - 1) / p.denom()) as u64;
                (ceil + (0u64..3).generate(tape)).saturating_sub(1).max(1)
            }
            Err(_) => (1u64..=100).generate(tape),
        };
        let simulated = match check_source_period(&g, head, period) {
            Ok((sustains, _)) => !sustains,
            Err(DataflowError::Deadlock { .. }) => true,
            Err(e) => panic!("{e} on {g:?}"),
        };
        let refuted = refutes_source_period(&g, head, period).unwrap();
        assert_eq!(refuted, simulated, "period {period} on {g:?}");
        match (refuted, achievable) {
            (true, Err(_)) => dead += 1,
            (true, Ok(_)) => slow += 1,
            (false, Ok(p)) if p == Ratio::integer(period as i128) => boundary += 1,
            (false, _) => sustained += 1,
        }
    });
    assert!(
        slow > 0 && dead > 0 && sustained > 0 && boundary > 0,
        "{slow} too slow, {dead} deadlocked, {sustained} sustained, {boundary} at the boundary"
    );
}

/// Only cycles from which the source can be reached pace it: a slow loop
/// downstream, behind an unbounded channel, is not a refutation — the run
/// keeps the source's pace (tokens pile up in front of the loop, so it
/// never recurs) — until that channel is bounded.
#[test]
fn a_slow_cycle_the_source_does_not_wait_for_is_no_refutation() {
    let one = || PhaseVec::single(1);
    let mut g = CsdfGraph::new();
    let src = g.add_actor("src", PhaseVec::single(10), 1);
    let work = g.add_actor("work", PhaseVec::single(5), 1);
    let slow = g.add_actor("slow", PhaseVec::single(50), 1);
    g.add_channel_full(src, work, one(), one(), 0, Some(1))
        .unwrap();
    let behind = g.add_channel(src, slow, one(), one()).unwrap();
    g.add_channel_full(slow, slow, one(), one(), 1, None)
        .unwrap();
    // One token in the src–work room cycle: 15 per source cycle.
    assert_eq!(refutes_source_period(&g, src, 15), Ok(false));
    let config = SimConfig {
        max_firings: 20_000,
        reference: Some(src),
        ..SimConfig::default()
    };
    let run = Simulation::new(&g, config.clone()).run();
    assert!(!run.deadlocked && run.steady.is_none());
    assert!(run.completions[src.index()] * 15 + 15 >= run.end_time);

    g.channel_mut(behind).capacity = Some(1);
    assert_eq!(refutes_source_period(&g, src, 15), Ok(true));
    let (sustains, _) = check_source_period(&g, src, 15).unwrap();
    assert!(!sustains);
}
