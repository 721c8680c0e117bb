//! Simulated annealing: a design-time-strength optimiser for comparison.
//!
//! Starts from a first-fit assignment, then perturbs it with random
//! re-assignments and swaps under a geometric cooling schedule, optimising
//! the same energy objective the heuristic reports. The final state (and,
//! as a fallback, the best state seen) is validated with the shared
//! routing + dataflow pipeline.

use crate::common::{
    claim_option, finalize_assignment, no_feasible_mapping, release_option, viable_options,
};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use rtsm_app::{ApplicationSpec, ProcessId};
use rtsm_core::constraints::MappingConstraints;
use rtsm_core::{MapError, Mapping, MappingAlgorithm, MappingOutcome};
use rtsm_platform::{Platform, PlatformState};

/// RNG seed: runs are reproducible.
const SEED: u64 = 0xD41E_2008;

/// Initial temperature, in picojoules of acceptable uphill move.
const INITIAL_TEMPERATURE: f64 = 50_000.0;

/// Geometric cooling factor per iteration.
const COOLING: f64 = 0.998;

/// Simulated-annealing mapper.
#[derive(Debug, Clone)]
pub struct AnnealingMapper {
    /// Number of proposed moves — the one knob, because `repro`'s quality
    /// table runs a shorter schedule than the default.
    pub iterations: u32,
}

impl Default for AnnealingMapper {
    fn default() -> Self {
        AnnealingMapper { iterations: 4000 }
    }
}

impl AnnealingMapper {
    /// First-fit initial assignment in application order.
    fn initial(
        &self,
        spec: &ApplicationSpec,
        platform: &Platform,
        working: &mut PlatformState,
        constraints: &MappingConstraints,
    ) -> Option<Mapping> {
        let mut mapping = Mapping::for_spec(spec);
        for pid in spec.graph.topological_order().ok()? {
            let options = viable_options(spec, platform, working, pid, constraints);
            let &(impl_index, tile) = options.first()?;
            claim_option(spec, platform, working, pid, impl_index, tile);
            mapping.assign(pid, impl_index, tile);
        }
        Some(mapping)
    }
}

impl MappingAlgorithm for AnnealingMapper {
    fn name(&self) -> &str {
        "simulated annealing"
    }

    fn map_constrained(
        &self,
        spec: &ApplicationSpec,
        platform: &Platform,
        base: &PlatformState,
        constraints: &MappingConstraints,
    ) -> Result<MappingOutcome, MapError> {
        let mut rng = StdRng::seed_from_u64(SEED);
        let mut working = base.clone();
        let mut mapping = self
            .initial(spec, platform, &mut working, constraints)
            .ok_or_else(|| no_feasible_mapping(0))?;
        let processes: Vec<ProcessId> = spec.graph.stream_processes().map(|(pid, _)| pid).collect();
        let mut energy = mapping.energy_pj(spec, platform) as f64;
        let mut best = (energy, mapping.clone());
        let mut temperature = INITIAL_TEMPERATURE;
        let mut evaluated = 0u64;

        for _ in 0..self.iterations {
            temperature *= COOLING;
            let p = processes[rng.random_range(0..processes.len())];
            let current = mapping.assignment(p).expect("all processes assigned");
            // Propose: release p, pick a random alternative option.
            release_option(spec, &mut working, p, current.impl_index, current.tile);
            let options = viable_options(spec, platform, &working, p, constraints);
            if options.is_empty() {
                claim_option(
                    spec,
                    platform,
                    &mut working,
                    p,
                    current.impl_index,
                    current.tile,
                );
                continue;
            }
            let (impl_index, tile) = options[rng.random_range(0..options.len())];
            claim_option(spec, platform, &mut working, p, impl_index, tile);
            mapping.assign(p, impl_index, tile);
            evaluated += 1;
            let proposal = mapping.energy_pj(spec, platform) as f64;
            let delta = proposal - energy;
            let accept = delta <= 0.0
                || (temperature > f64::EPSILON
                    && rng.random::<f64>() < (-delta / temperature).exp());
            if accept {
                energy = proposal;
                if energy < best.0 {
                    best = (energy, mapping.clone());
                }
            } else {
                // Revert.
                release_option(spec, &mut working, p, impl_index, tile);
                claim_option(
                    spec,
                    platform,
                    &mut working,
                    p,
                    current.impl_index,
                    current.tile,
                );
                mapping.assign(p, current.impl_index, current.tile);
            }
        }

        finalize_assignment(spec, platform, base, mapping, evaluated)
            .or_else(|| finalize_assignment(spec, platform, base, best.1, evaluated))
            .ok_or_else(|| no_feasible_mapping(evaluated))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtsm_app::hiperlan2::{hiperlan2_receiver, Hiperlan2Mode};
    use rtsm_platform::paper::paper_platform;

    #[test]
    fn annealing_finds_a_feasible_mapping() {
        let spec = hiperlan2_receiver(Hiperlan2Mode::Qpsk34);
        let platform = paper_platform();
        let result = AnnealingMapper::default()
            .map(&spec, &platform, &platform.initial_state())
            .expect("SA finds the paper case");
        assert!(result.feasible);
    }

    #[test]
    fn annealing_is_deterministic_per_seed() {
        let spec = hiperlan2_receiver(Hiperlan2Mode::Qpsk34);
        let platform = paper_platform();
        let a = AnnealingMapper::default()
            .map(&spec, &platform, &platform.initial_state())
            .unwrap();
        let b = AnnealingMapper::default()
            .map(&spec, &platform, &platform.initial_state())
            .unwrap();
        assert_eq!(a.energy_pj, b.energy_pj);
        assert_eq!(a.mapping, b.mapping);
    }

    #[test]
    fn annealing_close_to_heuristic_on_paper_case() {
        let spec = hiperlan2_receiver(Hiperlan2Mode::Qpsk34);
        let platform = paper_platform();
        let sa = AnnealingMapper::default()
            .map(&spec, &platform, &platform.initial_state())
            .unwrap();
        let heuristic = crate::SpatialMapper::default()
            .map(&spec, &platform, &platform.initial_state())
            .unwrap();
        // SA with thousands of evaluations should land within 25% of the
        // heuristic (usually it matches the optimum).
        assert!(sa.energy_pj as f64 <= heuristic.energy_pj as f64 * 1.25);
    }
}
