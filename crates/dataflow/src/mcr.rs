//! Maximum cycle ratio (MCR) analysis of HSDF graphs, and the period test
//! the buffer-sizing search refutes a capacity vector with.
//!
//! The MCR of a node-timed, token-annotated graph is
//! `max over cycles C of (Σ node time in C) / (Σ edge tokens in C)` — the
//! steady-state time per graph iteration of a self-timed execution; a cycle
//! without tokens makes it infinite (that execution deadlocks). Both
//! analyses here rest on one exact test, `has_critical_cycle`: is there a
//! cycle without tokens, or one with `Σ den·time − num·Σ tokens > 0`?
//!
//! * [`refutes_source_period`] asks it once, at `λ = r_source · period`.
//! * [`maximum_cycle_ratio`] binary-searches it over dyadic rationals, then
//!   snaps to the unique candidate rational with bounded denominator via a
//!   simplest-rational-in-interval search.

use crate::error::DataflowError;
use crate::graph::{ActorId, CsdfGraph};
use crate::hsdf::{Expansion, HsdfGraph, InEdges, Rows, NONE};
use crate::rational::Ratio;

/// True if `graph` has a cycle without tokens, or one with
/// `Σ den·time − num·Σ tokens > 0` (exact integer arithmetic).
///
/// Kahn's algorithm over the zero-token edges, run backwards on in-edges,
/// finds the first kind, or an order in which every zero-token edge runs
/// forwards. Longest-path potentials from 0 are then relaxed a node at a
/// time in that order, each round settling every chain of zero-token edges
/// at once, until a round changes nothing (no critical cycle) or the
/// parents of the last relaxations close a cycle — which is always a
/// positive one, and must appear when one exists, since potentials on it
/// grow without bound while any path of parents is bounded. Besides the
/// graph: a potential, a parent and a place in the order per node, and one
/// bit.
///
/// # Errors
///
/// [`DataflowError::Overflow`] if a weight or potential leaves `i64`.
fn has_critical_cycle(graph: &impl InEdges, num: i128, den: i128) -> Result<bool, DataflowError> {
    let overflow = || DataflowError::Overflow("cycle test");
    let (num, den) = (
        i64::try_from(num).map_err(|_| overflow())?,
        i64::try_from(den).map_err(|_| overflow())?,
    );
    let n = graph.nodes();
    // A node joins `order` once every zero-token edge out of it leads to a
    // node already in it; what never joins is on, or feeds, a cycle without
    // tokens. `parent` counts the edges still outstanding until then.
    let mut parent = vec![0u32; n];
    for v in 0..n {
        graph.in_edges(v, |u, _, tokens| parent[u] += u32::from(tokens == 0));
    }
    let mut order = Vec::with_capacity(n);
    order.extend((0..n as u32).filter(|&v| parent[v as usize] == 0));
    let mut next = 0;
    while let Some(&v) = order.get(next) {
        next += 1;
        graph.in_edges(v as usize, |u, _, tokens| {
            if tokens == 0 {
                parent[u] -= 1;
                if parent[u] == 0 {
                    order.push(u as u32);
                }
            }
        });
    }
    if order.len() < n {
        return Ok(true);
    }

    let weight = |time: u64, tokens: u64| {
        den.checked_mul(i64::try_from(time).ok()?)?
            .checked_sub(num.checked_mul(i64::try_from(tokens).ok()?)?)
    };
    parent.fill(NONE);
    let mut potential = vec![0i64; n];
    let mut walked = vec![0u64; n.div_ceil(64)];
    loop {
        let mut relaxed = false;
        for &v in order.iter().rev() {
            let v = v as usize;
            let (mut best, mut from, mut overflowed) = (potential[v], NONE, false);
            graph.in_edges(v, |u, time, tokens| {
                match weight(time, tokens).and_then(|w| potential[u].checked_add(w)) {
                    Some(candidate) if candidate > best => (best, from) = (candidate, u as u32),
                    Some(_) => {}
                    None => overflowed = true,
                }
            });
            if overflowed {
                return Err(overflow());
            }
            if from != NONE {
                (potential[v], parent[v]) = (best, from);
                relaxed = true;
            }
        }
        if !relaxed {
            return Ok(false);
        }
        if parents_close_a_cycle(&parent, &mut walked) {
            return Ok(true);
        }
    }
}

/// Whether following parents from some node leads back to it. Each node is
/// walked once (`walked` holds a bit per node): a walk stops at a root or
/// at a node walked before, and closes a cycle exactly when that node is
/// among its own steps.
fn parents_close_a_cycle(parent: &[u32], walked: &mut [u64]) -> bool {
    walked.fill(0);
    for start in 0..parent.len() {
        let (mut v, mut steps) = (start as u32, 0);
        while v != NONE && walked[v as usize / 64] & (1 << (v % 64)) == 0 {
            walked[v as usize / 64] |= 1 << (v % 64);
            v = parent[v as usize];
            steps += 1;
        }
        if v != NONE {
            let stop = v;
            let mut w = start as u32;
            for _ in 0..steps {
                if w == stop {
                    return true;
                }
                w = parent[w as usize];
            }
        }
    }
    false
}

/// Whether the self-timed execution of `graph`, its capacities as bounds,
/// certainly fails to sustain one phase-cycle of `source` per `period`: a
/// cycle of its HSDF expansion from which `source` can be reached holds no
/// tokens (the source stops) or has `Σ time − λ·Σ tokens > 0` for
/// `λ = r_source · period`, the time a graph iteration may take (the source
/// falls behind). Only those cycles pace the source, and its steady-state
/// time per iteration is the largest ratio among them, so `Ok(true)` is
/// exactly what a simulation to recurrence or deadlock would conclude.
///
/// `Ok(false)` is not a "yes": the source keeps pace with the period as far
/// as cycles go, but a run may still accumulate tokens without bound
/// elsewhere and never recur.
///
/// # Errors
///
/// Whatever [`CsdfGraph::repetition_vector`] returns;
/// [`DataflowError::Overflow`] where the expansion or the test outgrows its
/// integer types; [`DataflowError::Inconsistent`] for a capacity below its
/// channel's initial tokens. Each means "don't know".
pub fn refutes_source_period(
    graph: &CsdfGraph,
    source: ActorId,
    period: u64,
) -> Result<bool, DataflowError> {
    let capacities: Vec<Option<u64>> = graph.channels().map(|(_, c)| c.capacity).collect();
    let reps = graph.repetition_vector()?;
    refutes_at(graph, &capacities, &reps, source, period)
}

/// [`refutes_source_period`] with `capacities` (one per channel, in channel
/// order) in place of the graph's own: what the buffer-sizing search asks
/// of a capacity vector it has not written into any graph. `reps` is the
/// graph's cycle-repetition vector, which the search already holds.
pub(crate) fn refutes_at(
    graph: &CsdfGraph,
    capacities: &[Option<u64>],
    reps: &[u64],
    source: ActorId,
    period: u64,
) -> Result<bool, DataflowError> {
    debug_assert_eq!(capacities.len(), graph.n_channels());
    let lambda = i128::from(reps[source.index()]) * i128::from(period);
    let expansion = Expansion::reaching(graph, capacities, reps, source)?;
    has_critical_cycle(&expansion, lambda, 1)
}

/// Simplest rational `p/q` with `lo ≤ p/q ≤ hi` (both bounds non-negative).
fn simplest_between(lo: Ratio, hi: Ratio) -> Ratio {
    debug_assert!(lo <= hi);
    let (ln, ld) = (lo.numer(), lo.denom());
    let (hn, hd) = (hi.numer(), hi.denom());
    // Integer in range?
    let ceil_lo = ln.div_euclid(ld) + i128::from(ln.rem_euclid(ld) != 0);
    if Ratio::integer(ceil_lo) <= hi {
        return Ratio::integer(ceil_lo);
    }
    let floor_lo = ln.div_euclid(ld);
    // Both strictly inside (floor_lo, floor_lo+1): recurse on reciprocals of
    // the fractional parts, swapped.
    let lo_frac = Ratio::new(ln - floor_lo * ld, ld);
    let hi_frac = Ratio::new(hn - floor_lo * hd, hd);
    let inner = simplest_between(
        Ratio::new(hi_frac.denom(), hi_frac.numer()),
        Ratio::new(lo_frac.denom(), lo_frac.numer()),
    );
    Ratio::integer(floor_lo).add(Ratio::new(inner.denom(), inner.numer()))
}

/// Computes the maximum cycle ratio of `graph` as an exact [`Ratio`]
/// (time units per graph iteration).
///
/// # Errors
///
/// * [`DataflowError::Inconsistent`] if the graph has a cycle with zero
///   tokens, whatever its time (deadlocked: infinite ratio).
/// * [`DataflowError::Empty`] for a graph with no nodes or no cycles.
/// * [`DataflowError::Overflow`] if the weights of the search outgrow
///   `i64`.
pub fn maximum_cycle_ratio(graph: &HsdfGraph) -> Result<Ratio, DataflowError> {
    if graph.nodes.is_empty() {
        return Err(DataflowError::Empty("HSDF graph"));
    }
    let total_time: i128 = graph.nodes.iter().map(|n| n.time as i128).sum();
    let total_tokens: i128 = graph.edges.iter().map(|e| e.tokens as i128).sum();
    if total_tokens == 0 {
        return Err(DataflowError::Empty("HSDF token set (no cycles possible)"));
    }
    let rows = Rows::new(graph);
    let has_critical_cycle = |num, den| has_critical_cycle(&rows, num, den);
    // λ* ≤ total_time: at λ = total_time + 1 only a cycle without tokens is
    // critical.
    if has_critical_cycle(total_time + 1, 1)? {
        return Err(DataflowError::Inconsistent {
            detail: "zero-token cycle (infinite cycle ratio: deadlock)".into(),
        });
    }
    if !has_critical_cycle(0, 1)? {
        // No cycle has positive total time: the MCR is zero.
        return Ok(Ratio::ZERO);
    }

    // Exact dyadic binary search: invariant test(hi) = false, test(lo) = true
    // (a cycle exceeds lo). Width shrinks below 1/(2·D²) so exactly one
    // candidate n/d with d ≤ D remains in (lo, hi].
    let d_bound = total_tokens.max(1);
    let mut lo = Ratio::ZERO; // test(0) true (some cycle has positive time)
    let mut hi = Ratio::integer(total_time.max(1)); // test false
    let gap = Ratio::new(1, 2 * d_bound * d_bound);
    while hi.add(lo.mul(Ratio::integer(-1))) > gap {
        // mid = (lo + hi)/2 as exact rational.
        let mid = lo.add(hi).mul(Ratio::new(1, 2));
        if has_critical_cycle(mid.numer(), mid.denom())? {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    // The answer is the unique rational with denominator ≤ D in (lo, hi].
    let candidate = simplest_between(lo, hi);
    debug_assert_eq!(
        has_critical_cycle(candidate.numer(), candidate.denom()),
        Ok(false)
    );
    Ok(candidate)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hsdf::expand;
    use crate::phase::PhaseVec;
    use crate::simulate::{SimConfig, Simulation};

    fn mcr_of(g: &CsdfGraph) -> Ratio {
        maximum_cycle_ratio(&expand(&g.expand_capacities()).unwrap()).unwrap()
    }

    /// Steady-state time per *graph iteration* measured by simulation.
    fn simulated_iteration_period(g: &CsdfGraph) -> Ratio {
        let reps = g.repetition_vector().unwrap();
        let out = Simulation::new(g, SimConfig::default()).run();
        let s = out.steady.expect("steady state");
        // reference actor = 0; r_ref cycles per iteration.
        Ratio::new(s.period as i128 * reps[0] as i128, s.iterations as i128)
    }

    #[test]
    fn single_actor_self_loop() {
        let mut g = CsdfGraph::new();
        let a = g.add_actor("a", PhaseVec::single(7), 1);
        g.add_channel_full(a, a, PhaseVec::single(1), PhaseVec::single(1), 1, None)
            .unwrap();
        assert_eq!(mcr_of(&g), Ratio::integer(7));
    }

    #[test]
    fn two_actor_cycle_matches_simulation() {
        let mut g = CsdfGraph::new();
        let a = g.add_actor("a", PhaseVec::single(3), 1);
        let b = g.add_actor("b", PhaseVec::single(5), 1);
        g.add_channel(a, b, PhaseVec::single(1), PhaseVec::single(1))
            .unwrap();
        g.add_channel_full(b, a, PhaseVec::single(1), PhaseVec::single(1), 1, None)
            .unwrap();
        assert_eq!(mcr_of(&g), Ratio::integer(8));
        assert_eq!(simulated_iteration_period(&g), Ratio::integer(8));
    }

    #[test]
    fn pipelined_cycle_ratio_is_fractional_or_bottleneck() {
        let mut g = CsdfGraph::new();
        let a = g.add_actor("a", PhaseVec::single(3), 1);
        let b = g.add_actor("b", PhaseVec::single(5), 1);
        g.add_channel(a, b, PhaseVec::single(1), PhaseVec::single(1))
            .unwrap();
        g.add_channel_full(b, a, PhaseVec::single(1), PhaseVec::single(1), 2, None)
            .unwrap();
        // Two tokens: cycle ratio (3+5)/2 = 4 vs self-loop 5 → MCR 5.
        assert_eq!(mcr_of(&g), Ratio::integer(5));
        assert_eq!(simulated_iteration_period(&g), Ratio::integer(5));
    }

    #[test]
    fn bounded_buffer_chain_matches_simulation() {
        let mut g = CsdfGraph::new();
        let a = g.add_actor("a", PhaseVec::single(4), 1);
        let b = g.add_actor("b", PhaseVec::single(4), 1);
        g.add_channel_full(a, b, PhaseVec::single(1), PhaseVec::single(1), 0, Some(1))
            .unwrap();
        // Capacity 1 serialises: period 8.
        assert_eq!(mcr_of(&g), Ratio::integer(8));
        assert_eq!(simulated_iteration_period(&g), Ratio::integer(8));
    }

    #[test]
    fn multirate_graph_matches_simulation() {
        let mut g = CsdfGraph::new();
        let a = g.add_actor("a", PhaseVec::single(2), 1);
        let b = g.add_actor("b", PhaseVec::single(3), 1);
        g.add_channel_full(a, b, PhaseVec::single(2), PhaseVec::single(3), 0, Some(6))
            .unwrap();
        // q = [3, 2]; per iteration a works 6, b works 6; with cap 6 the
        // pipeline is loose enough that the bottleneck actor dominates.
        let mcr = mcr_of(&g);
        assert_eq!(simulated_iteration_period(&g), mcr);
    }

    #[test]
    fn csdf_phase_graph_matches_simulation() {
        let mut g = CsdfGraph::new();
        let a = g.add_actor("a", PhaseVec::from_slice(&[1, 4]), 1);
        let b = g.add_actor("b", PhaseVec::from_slice(&[2, 2, 2]), 1);
        g.add_channel_full(
            a,
            b,
            PhaseVec::from_slice(&[1, 2]),
            PhaseVec::from_slice(&[1, 1, 0]),
            0,
            Some(4),
        )
        .unwrap();
        // Consistency: a produces 3/cycle, b consumes 2/cycle → q = [2,3].
        let mcr = mcr_of(&g);
        assert_eq!(simulated_iteration_period(&g), mcr);
    }

    #[test]
    fn deadlock_reported_as_infinite_ratio() {
        let mut g = CsdfGraph::new();
        let a = g.add_actor("a", PhaseVec::single(1), 1);
        let b = g.add_actor("b", PhaseVec::single(1), 1);
        g.add_channel(a, b, PhaseVec::single(1), PhaseVec::single(1))
            .unwrap();
        g.add_channel(b, a, PhaseVec::single(1), PhaseVec::single(1))
            .unwrap();
        let h = expand(&g);
        // Either expansion already detects non-liveness, or MCR reports the
        // zero-token cycle.
        if let Ok(h) = h {
            assert!(maximum_cycle_ratio(&h).is_err())
        }
    }

    /// `a ⇄ b` (WCET 0) with no tokens, and `c` (WCET 3) in a one-token
    /// loop with `a`: nothing can ever fire. The zero-token cycle takes no
    /// time, which is no reason to report the ratio of the loop.
    fn zero_time_deadlock() -> (CsdfGraph, ActorId) {
        let mut g = CsdfGraph::new();
        let a = g.add_actor("a", PhaseVec::single(0), 1);
        let b = g.add_actor("b", PhaseVec::single(0), 1);
        let c = g.add_actor("c", PhaseVec::single(3), 1);
        let one = PhaseVec::single(1);
        g.add_channel(a, b, one.clone(), one.clone()).unwrap();
        g.add_channel(b, a, one.clone(), one.clone()).unwrap();
        g.add_channel(a, c, one.clone(), one.clone()).unwrap();
        g.add_channel_full(c, a, one.clone(), one, 1, None).unwrap();
        (g, c)
    }

    #[test]
    fn a_zero_time_cycle_without_tokens_is_a_deadlock() {
        let (g, c) = zero_time_deadlock();
        let out = Simulation::new(&g, SimConfig::default()).run();
        assert!(out.deadlocked);
        assert!(matches!(
            maximum_cycle_ratio(&expand(&g).unwrap()),
            Err(DataflowError::Inconsistent { .. })
        ));
        assert_eq!(refutes_source_period(&g, c, u64::MAX / 4), Ok(true));
    }

    #[test]
    fn simplest_between_finds_low_denominator() {
        let r = simplest_between(Ratio::new(13, 40), Ratio::new(14, 40));
        assert_eq!(r, Ratio::new(1, 3));
        let r2 = simplest_between(Ratio::new(5, 2), Ratio::new(7, 2));
        assert_eq!(r2, Ratio::integer(3));
    }
}
