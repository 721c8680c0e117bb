//! End-to-end latency measurement in steady state.
//!
//! Latency is measured operationally: the time between the start of the
//! source's *i*-th phase-cycle and the completion of the sink's
//! corresponding phase-cycle, maximised over a steady-state window. The
//! correspondence uses the cycle-repetition vector: per graph iteration the
//! source completes `r_src` cycles and the sink `r_snk` cycles, so source
//! cycle `i` maps to sink cycle `⌈(i+1)·r_snk/r_src⌉`.

use crate::error::DataflowError;
use crate::graph::{ActorId, CsdfGraph};
use crate::simulate::{SimConfig, Simulation};

/// Measures the maximum steady-state latency from `source` phase-cycle start
/// to the corresponding `sink` phase-cycle completion.
///
/// `warmup_cycles` source cycles are discarded (transient); the maximum over
/// the following `window_cycles` cycles is returned, in time units.
///
/// # Errors
///
/// * [`DataflowError::Deadlock`] if the graph deadlocks.
/// * [`DataflowError::GuardExhausted`] if the simulation guards expire
///   before enough cycles complete.
/// * [`DataflowError::Inconsistent`] if the graph has no repetition vector.
pub fn iteration_latency(
    graph: &CsdfGraph,
    source: ActorId,
    sink: ActorId,
    warmup_cycles: u64,
    window_cycles: u64,
) -> Result<u64, DataflowError> {
    let reps = graph.repetition_vector()?;
    let r_src = reps[source.index()];
    let r_snk = reps[sink.index()];
    let src_phases = graph.actor(source).n_phases() as u64;
    let snk_phases = graph.actor(sink).n_phases() as u64;

    let needed_src_cycles = warmup_cycles + window_cycles;
    // Enough whole-graph iterations to cover the measurement window, with
    // headroom for the transient.
    let freps = graph.firing_repetition_vector()?;
    let firings_per_iteration: u64 = freps.iter().sum();
    let graph_iterations = needed_src_cycles.div_ceil(r_src) + 4;
    let config = SimConfig {
        reference: Some(source),
        stop_at_steady_state: false,
        max_firings: firings_per_iteration
            .saturating_mul(graph_iterations)
            .saturating_mul(2),
        record: vec![source, sink],
    };
    let out = Simulation::new(graph, config).run();
    if out.deadlocked {
        return Err(DataflowError::Deadlock {
            at_time: out.end_time,
            firings: out.total_firings,
        });
    }

    // Collect cycle boundaries: start of each source cycle, end of each sink
    // cycle.
    let mut src_cycle_starts = Vec::new();
    let mut snk_cycle_ends = Vec::new();
    let mut src_seen = 0u64;
    let mut snk_seen = 0u64;
    for rec in &out.records {
        if rec.actor == source {
            if src_seen.is_multiple_of(src_phases) {
                src_cycle_starts.push(rec.start);
            }
            src_seen += 1;
        } else if rec.actor == sink {
            snk_seen += 1;
            if snk_seen.is_multiple_of(snk_phases) {
                snk_cycle_ends.push(rec.end);
            }
        }
    }

    let mut max_latency = 0u64;
    let mut measured = 0u64;
    for i in warmup_cycles..(warmup_cycles + window_cycles) {
        let Some(&start) = src_cycle_starts.get(i as usize) else {
            break;
        };
        // Source cycles [0..=i] feed ⌈(i+1)·r_snk/r_src⌉ sink cycles.
        let snk_cycle = ((i + 1) * r_snk).div_ceil(r_src);
        let Some(&end) = snk_cycle_ends.get(snk_cycle as usize - 1) else {
            break;
        };
        max_latency = max_latency.max(end.saturating_sub(start));
        measured += 1;
    }
    if measured == 0 {
        return Err(DataflowError::GuardExhausted {
            guard: "not enough completed cycles for latency window".into(),
        });
    }
    Ok(max_latency)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::phase::PhaseVec;

    #[test]
    fn chain_latency_is_sum_of_stage_times() {
        let mut g = CsdfGraph::new();
        let src = g.add_actor("src", PhaseVec::single(10), 1);
        let mid = g.add_actor("mid", PhaseVec::single(3), 1);
        let snk = g.add_actor("snk", PhaseVec::single(2), 1);
        g.add_channel(src, mid, PhaseVec::single(1), PhaseVec::single(1))
            .unwrap();
        g.add_channel(mid, snk, PhaseVec::single(1), PhaseVec::single(1))
            .unwrap();
        let lat = iteration_latency(&g, src, snk, 2, 4).unwrap();
        // Slow source: each token flows straight through: 10 + 3 + 2.
        assert_eq!(lat, 15);
    }

    #[test]
    fn multirate_latency_accounts_for_accumulation() {
        let mut g = CsdfGraph::new();
        // Source emits 1 token per 10; sink consumes 2 per firing.
        let src = g.add_actor("src", PhaseVec::single(10), 1);
        let snk = g.add_actor("snk", PhaseVec::single(4), 1);
        g.add_channel(src, snk, PhaseVec::single(1), PhaseVec::single(2))
            .unwrap();
        let lat = iteration_latency(&g, src, snk, 2, 4).unwrap();
        // A token produced by an odd source firing waits ~10 for its pair,
        // then 4 for the sink: latency spans two source cycles + sink time.
        assert!(lat >= 14, "latency {lat}");
        assert!(lat <= 24, "latency {lat}");
    }

    #[test]
    fn deadlocked_graph_is_an_error() {
        let mut g = CsdfGraph::new();
        let a = g.add_actor("a", PhaseVec::single(1), 1);
        let b = g.add_actor("b", PhaseVec::single(1), 1);
        g.add_channel(a, b, PhaseVec::single(1), PhaseVec::single(1))
            .unwrap();
        g.add_channel(b, a, PhaseVec::single(1), PhaseVec::single(1))
            .unwrap();
        assert!(iteration_latency(&g, a, b, 1, 1).is_err());
    }
}
