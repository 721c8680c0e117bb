//! Best-of-N random adherent mappings: the sanity floor.

use crate::common::{claim_option, finalize_assignment, no_feasible_mapping, viable_options};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{RngExt, SeedableRng};
use rtsm_app::ApplicationSpec;
use rtsm_core::constraints::MappingConstraints;
use rtsm_core::{MapError, Mapping, MappingAlgorithm, MappingOutcome};
use rtsm_platform::{Platform, PlatformState};

/// RNG seed: runs are reproducible.
const SEED: u64 = 0x5EED;

/// Random mappings drawn per call.
const SAMPLES: u32 = 32;

/// Samples 32 random adherent mappings and returns the best feasible one
/// by energy.
#[derive(Debug, Clone, Default)]
pub struct RandomMapper;

impl RandomMapper {
    fn sample(
        &self,
        spec: &ApplicationSpec,
        platform: &Platform,
        base: &PlatformState,
        constraints: &MappingConstraints,
        rng: &mut StdRng,
    ) -> Option<Mapping> {
        let mut order: Vec<_> = spec.graph.stream_processes().map(|(pid, _)| pid).collect();
        order.shuffle(rng);
        let mut working = base.clone();
        let mut mapping = Mapping::for_spec(spec);
        for pid in order {
            let options = viable_options(spec, platform, &working, pid, constraints);
            if options.is_empty() {
                return None;
            }
            let (impl_index, tile) = options[rng.random_range(0..options.len())];
            claim_option(spec, platform, &mut working, pid, impl_index, tile);
            mapping.assign(pid, impl_index, tile);
        }
        Some(mapping)
    }
}

impl MappingAlgorithm for RandomMapper {
    fn name(&self) -> &str {
        "random (best of N)"
    }

    fn map_constrained(
        &self,
        spec: &ApplicationSpec,
        platform: &Platform,
        base: &PlatformState,
        constraints: &MappingConstraints,
    ) -> Result<MappingOutcome, MapError> {
        let mut rng = StdRng::seed_from_u64(SEED);
        let mut best: Option<MappingOutcome> = None;
        let mut evaluated = 0u64;
        for _ in 0..SAMPLES {
            let Some(mapping) = self.sample(spec, platform, base, constraints, &mut rng) else {
                continue;
            };
            evaluated += 1;
            if let Some(result) = finalize_assignment(spec, platform, base, mapping, evaluated) {
                let better = best.as_ref().is_none_or(|b| result.energy_pj < b.energy_pj);
                if better {
                    best = Some(result);
                }
            }
        }
        best.map(|mut b| {
            b.evaluated = evaluated;
            b
        })
        .ok_or_else(|| no_feasible_mapping(evaluated))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtsm_app::hiperlan2::{hiperlan2_receiver, Hiperlan2Mode};
    use rtsm_platform::paper::paper_platform;

    #[test]
    fn random_finds_a_feasible_mapping_on_paper_case() {
        let spec = hiperlan2_receiver(Hiperlan2Mode::Qpsk34);
        let platform = paper_platform();
        let result = RandomMapper
            .map(&spec, &platform, &platform.initial_state())
            .expect("32 samples hit a feasible mapping");
        assert!(result.feasible);
    }

    #[test]
    fn random_no_better_than_heuristic_needs_not_hold_but_energy_positive() {
        let spec = hiperlan2_receiver(Hiperlan2Mode::Qpsk34);
        let platform = paper_platform();
        let result = RandomMapper
            .map(&spec, &platform, &platform.initial_state())
            .unwrap();
        // Structural sanity: at least the MONTIUM processing energy.
        assert!(result.energy_pj >= 341_000);
    }

    #[test]
    fn deterministic_per_seed() {
        let spec = hiperlan2_receiver(Hiperlan2Mode::Qpsk34);
        let platform = paper_platform();
        let a = RandomMapper
            .map(&spec, &platform, &platform.initial_state())
            .unwrap();
        let b = RandomMapper
            .map(&spec, &platform, &platform.initial_state())
            .unwrap();
        assert_eq!(a.energy_pj, b.energy_pj);
    }
}
