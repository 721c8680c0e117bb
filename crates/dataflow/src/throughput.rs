//! Throughput analysis and source-period feasibility checks.

use crate::error::DataflowError;
use crate::graph::{ActorId, CsdfGraph};
use crate::simulate::{SimConfig, SimOutcome, Simulation};

/// Self-timed steady-state throughput of an actor, as an exact ratio of
/// phase-cycles per time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Throughput {
    /// Phase-cycles completed per steady-state period.
    pub iterations: u64,
    /// Length of the steady-state period in time units.
    pub period: u64,
}

impl Throughput {
    /// Average time for one phase-cycle, rounded up.
    pub fn time_per_iteration_ceil(&self) -> u64 {
        self.period.div_ceil(self.iterations)
    }

    /// True if this throughput sustains one phase-cycle per `period` time
    /// units (exact rational comparison: `iterations/period ≥ 1/required`).
    pub fn sustains_period(&self, required: u64) -> bool {
        // iterations / period >= 1 / required  <=>  iterations*required >= period
        (self.iterations as u128) * (required as u128) >= self.period as u128
    }
}

/// Computes the self-timed steady-state throughput of `reference`.
///
/// # Errors
///
/// * [`DataflowError::Deadlock`] when the graph deadlocks.
/// * [`DataflowError::GuardExhausted`] when no periodic steady state was
///   found within the simulation guards (e.g. unbounded token accumulation
///   on channels without capacities).
pub fn steady_state_throughput(
    graph: &CsdfGraph,
    reference: ActorId,
) -> Result<Throughput, DataflowError> {
    let config = SimConfig {
        reference: Some(reference),
        ..SimConfig::default()
    };
    throughput_of(&Simulation::new(graph, config).run()?)
}

/// The reference actor's throughput a run found, as
/// [`steady_state_throughput`] reports it.
pub(crate) fn throughput_of(outcome: &SimOutcome) -> Result<Throughput, DataflowError> {
    if outcome.deadlocked {
        return Err(DataflowError::Deadlock {
            at_time: outcome.end_time,
            firings: outcome.total_firings,
        });
    }
    match outcome.steady {
        Some(s) => Ok(Throughput {
            iterations: s.iterations,
            period: s.period,
        }),
        None => Err(DataflowError::GuardExhausted {
            guard: format!(
                "no periodic steady state within {} firings",
                outcome.total_firings
            ),
        }),
    }
}

/// Checks whether `source` sustains one phase-cycle every `period` time
/// units in self-timed execution — the paper's step-4 QoS check for a
/// strictly periodic input stream (one OFDM symbol every 4 µs).
///
/// Returns the measured throughput so callers can report the achieved
/// period alongside the verdict.
///
/// # Errors
///
/// Same as [`steady_state_throughput`].
pub fn check_source_period(
    graph: &CsdfGraph,
    source: ActorId,
    period: u64,
) -> Result<(bool, Throughput), DataflowError> {
    let tp = steady_state_throughput(graph, source)?;
    Ok((tp.sustains_period(period), tp))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::phase::PhaseVec;

    fn chain(src_wcet: u64, dst_wcet: u64, cap: Option<u64>) -> (CsdfGraph, ActorId) {
        let mut g = CsdfGraph::new();
        let p = g.add_actor("p", PhaseVec::single(src_wcet), 1);
        let c = g.add_actor("c", PhaseVec::single(dst_wcet), 1);
        g.add_channel_full(p, c, PhaseVec::single(1), PhaseVec::single(1), 0, cap)
            .unwrap();
        (g, p)
    }

    #[test]
    fn throughput_of_producer_limited_chain() {
        let (g, p) = chain(10, 3, None);
        let tp = steady_state_throughput(&g, p).unwrap();
        assert_eq!(tp.time_per_iteration_ceil(), 10);
        assert!(tp.sustains_period(10));
        assert!(tp.sustains_period(11));
        assert!(!tp.sustains_period(9));
    }

    #[test]
    fn source_period_check_fails_when_downstream_too_slow() {
        let (g, p) = chain(10, 25, Some(2));
        let (ok, tp) = check_source_period(&g, p, 10).unwrap();
        assert!(!ok);
        assert!(tp.time_per_iteration_ceil() >= 25);
    }

    #[test]
    fn source_period_check_passes_when_downstream_keeps_up() {
        let (g, p) = chain(10, 9, Some(2));
        let (ok, _) = check_source_period(&g, p, 10).unwrap();
        assert!(ok);
    }

    #[test]
    fn deadlock_surfaces_as_error() {
        let mut g = CsdfGraph::new();
        let a = g.add_actor("a", PhaseVec::single(1), 1);
        let b = g.add_actor("b", PhaseVec::single(1), 1);
        g.add_channel(a, b, PhaseVec::single(1), PhaseVec::single(1))
            .unwrap();
        g.add_channel(b, a, PhaseVec::single(1), PhaseVec::single(1))
            .unwrap();
        assert!(matches!(
            steady_state_throughput(&g, a),
            Err(DataflowError::Deadlock { .. })
        ));
    }
}
