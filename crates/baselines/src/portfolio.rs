//! `PortfolioMapper` — run a fixed portfolio of mapping algorithms and
//! commit the best feasible outcome.
//!
//! The members ([`MEMBERS`]) run one after the other, cheapest first:
//! greedy and spiral as the cheap front, the paper's heuristic as the
//! quality workhorse, the genetic mapper as the high-effort tail. Every
//! feasible outcome is compared by its energy and exactly one — the
//! lowest, ties to the earlier member — is returned for the caller to
//! commit through the usual evaluate-then-replay transaction path
//! ([`MappingOutcome::commit`]). The portfolio blocks an arrival only when
//! every member does.
//!
//! Which outcome wins is a pure function of the members' deterministic
//! results.

use crate::{GeneticMapper, GreedyMapper, SpiralMapper};
use rtsm_app::ApplicationSpec;
use rtsm_core::constraints::MappingConstraints;
use rtsm_core::mapper::MapperConfig;
use rtsm_core::{MapError, MappingAlgorithm, MappingOutcome, SpatialMapper};
use rtsm_platform::{Platform, PlatformState};

/// The members, in the order they run: each entry builds a fresh instance
/// of one algorithm.
pub const MEMBERS: [fn() -> Box<dyn MappingAlgorithm>; 4] = [
    || Box::new(GreedyMapper),
    || Box::new(SpiralMapper),
    || {
        Box::new(SpatialMapper::new(
            MapperConfig::default().without_capture(),
        ))
    },
    || Box::new(GeneticMapper),
];

/// The portfolio over [`MEMBERS`]. Its display name says `budget-raced`
/// because committed fixtures carry that name; no budget limits it.
#[derive(Debug, Clone, Default)]
pub struct PortfolioMapper;

impl MappingAlgorithm for PortfolioMapper {
    fn name(&self) -> &str {
        "portfolio (budget-raced)"
    }

    fn map_constrained(
        &self,
        spec: &ApplicationSpec,
        platform: &Platform,
        base: &PlatformState,
        constraints: &MappingConstraints,
    ) -> Result<MappingOutcome, MapError> {
        let mut best: Option<MappingOutcome> = None;
        let mut evaluated = 0u64;
        for build in MEMBERS {
            match build().map_constrained(spec, platform, base, constraints) {
                Ok(outcome) => {
                    evaluated += outcome.evaluated;
                    // Strictly lower: ties go to the earlier member.
                    let better = best
                        .as_ref()
                        .is_none_or(|b| outcome.energy_pj < b.energy_pj);
                    if better {
                        best = Some(outcome);
                    }
                }
                Err(_) => evaluated += 1,
            }
        }
        match best {
            Some(outcome) => Ok(MappingOutcome {
                evaluated,
                attempts: MEMBERS.len(),
                ..outcome
            }),
            None => Err(MapError::NoFeasibleMapping {
                attempts: MEMBERS.len(),
                last_feedback: Vec::new(),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtsm_app::hiperlan2::{hiperlan2_receiver, Hiperlan2Mode};
    use rtsm_platform::paper::paper_platform;

    fn paper_case() -> (ApplicationSpec, Platform) {
        (hiperlan2_receiver(Hiperlan2Mode::Qpsk34), paper_platform())
    }

    #[test]
    fn portfolio_matches_its_best_member_on_the_paper_case() {
        let (spec, platform) = paper_case();
        let state = platform.initial_state();
        let outcome = PortfolioMapper.map(&spec, &platform, &state).unwrap();
        let best_member_energy = MEMBERS
            .iter()
            .filter_map(|build| build().map(&spec, &platform, &state).ok())
            .map(|o| o.energy_pj)
            .min()
            .unwrap();
        assert_eq!(outcome.energy_pj, best_member_energy);
        assert_eq!(outcome.attempts, MEMBERS.len());
    }

    #[test]
    fn portfolio_outcome_is_committable() {
        let (spec, platform) = paper_case();
        let mut state = platform.initial_state();
        let before = state.clone();
        let outcome = PortfolioMapper.map(&spec, &platform, &state).unwrap();
        outcome.commit(&spec, &platform, &mut state).unwrap();
        assert_ne!(state, before);
        outcome.release(&spec, &platform, &mut state).unwrap();
        assert_eq!(state, before);
    }
}
