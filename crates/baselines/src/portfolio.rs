//! `PortfolioMapper` — run a portfolio of mapping algorithms under one
//! per-admission latency budget and commit the best feasible outcome.
//!
//! Members are ordered cheapest-first by a *modeled* integer cost in
//! microseconds (design-time calibrated, never measured at run time — a
//! wall clock in the decision path would break byte-determinism). The
//! cheapest-first prefix whose cumulative modeled cost fits the budget is
//! evaluated, one member after the other. Every feasible outcome is scored
//! with the portfolio's [`CostModel`] and exactly one — the cheapest, ties
//! to the earlier member — is returned for the caller to commit through
//! the usual evaluate-then-replay transaction path
//! ([`MappingOutcome::commit`]). If the whole prefix misses, the
//! portfolio *escalates*: the remaining members run one at a time past
//! the budget until one admits, because a late admission beats a
//! rejection.
//!
//! Which members run, and which outcome wins, are pure functions of the
//! budget and the members' deterministic results.

use crate::{GeneticMapper, GreedyMapper, SpiralMapper};
use rtsm_app::ApplicationSpec;
use rtsm_core::constraints::MappingConstraints;
use rtsm_core::cost::CostModel;
use rtsm_core::mapper::MapperConfig;
use rtsm_core::{MapError, MappingAlgorithm, MappingOutcome, SpatialMapper};
use rtsm_platform::{EnergyModel, Platform, PlatformState};

/// Default per-admission latency budget, microseconds — admits the whole
/// default member set ([`default_members`]).
pub const DEFAULT_BUDGET_US: u64 = 5_000;

/// One portfolio member: a constructor (every admission builds a fresh
/// instance) plus its modeled per-admission cost.
#[derive(Debug, Clone, Copy)]
pub struct PortfolioMember {
    /// Short member name, for reports and docs.
    pub name: &'static str,
    /// Modeled per-admission cost in microseconds (design-time
    /// calibrated on the paper case; see `docs/ALGORITHMS.md`).
    pub estimated_cost_us: u64,
    /// Builds a fresh instance of the member algorithm.
    pub build: fn() -> Box<dyn MappingAlgorithm>,
}

/// The default portfolio: greedy and spiral as the cheap front, the
/// paper's heuristic as the quality workhorse, the genetic mapper as the
/// slow high-effort tail. Costs are paper-case medians rounded up.
pub fn default_members() -> Vec<PortfolioMember> {
    vec![
        PortfolioMember {
            name: "greedy",
            estimated_cost_us: 60,
            build: || Box::new(GreedyMapper),
        },
        PortfolioMember {
            name: "spiral",
            estimated_cost_us: 90,
            build: || Box::new(SpiralMapper::default()),
        },
        PortfolioMember {
            name: "paper",
            estimated_cost_us: 600,
            build: || {
                Box::new(SpatialMapper::new(
                    MapperConfig::default().without_capture(),
                ))
            },
        },
        PortfolioMember {
            name: "genetic",
            estimated_cost_us: 2_000,
            build: || Box::new(GeneticMapper::default()),
        },
    ]
}

/// Budget-raced portfolio over other [`MappingAlgorithm`]s.
#[derive(Debug, Clone)]
pub struct PortfolioMapper {
    /// The member algorithms (run cheapest-first by modeled cost).
    pub members: Vec<PortfolioMember>,
    /// Per-admission latency budget, microseconds of modeled cost. The
    /// cheapest member always runs, even when it alone overruns the
    /// budget — a portfolio never refuses to try.
    pub budget_us: u64,
    /// How feasible member outcomes are compared.
    pub cost_model: CostModel,
}

impl Default for PortfolioMapper {
    fn default() -> Self {
        PortfolioMapper {
            members: default_members(),
            budget_us: DEFAULT_BUDGET_US,
            cost_model: CostModel::Energy(EnergyModel::default()),
        }
    }
}

impl PortfolioMapper {
    /// Member indices cheapest-first (stable on cost ties), split into
    /// the within-budget prefix and the escalation tail.
    fn schedule(&self) -> (Vec<usize>, Vec<usize>) {
        let mut order: Vec<usize> = (0..self.members.len()).collect();
        order.sort_by_key(|&i| (self.members[i].estimated_cost_us, i));
        let mut spent = 0u64;
        let mut raced = Vec::new();
        let mut tail = Vec::new();
        for i in order {
            let cost = self.members[i].estimated_cost_us;
            if raced.is_empty() || spent.saturating_add(cost) <= self.budget_us {
                spent = spent.saturating_add(cost);
                raced.push(i);
            } else {
                tail.push(i);
            }
        }
        (raced, tail)
    }
}

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
        if self.members.is_empty() {
            return Err(MapError::NoFeasibleMapping {
                attempts: 0,
                last_feedback: Vec::new(),
            });
        }
        let run =
            |i: usize| (self.members[i].build)().map_constrained(spec, platform, base, constraints);
        let (raced, tail) = self.schedule();
        let mut results: Vec<_> = raced.into_iter().map(run).collect();
        let mut attempts = results.len();

        // Select: cheapest outcome under the portfolio's cost model, ties
        // to the earlier (cheaper) member.
        let mut winner = results
            .iter()
            .enumerate()
            .filter_map(|(k, result)| result.as_ref().ok().map(|o| (k, o)))
            .min_by_key(|(k, o)| (self.cost_model.cost(&o.mapping, spec, platform), *k))
            .map(|(k, _)| k);

        if winner.is_none() {
            // Every member within budget missed: escalate past the budget
            // one member at a time.
            for i in tail {
                let result = run(i);
                attempts += 1;
                let feasible = result.is_ok();
                results.push(result);
                if feasible {
                    winner = Some(results.len() - 1);
                    break;
                }
            }
        }

        let evaluated: u64 = results
            .iter()
            .map(|r| r.as_ref().map_or(1, |o| o.evaluated))
            .sum();
        match winner {
            Some(k) => {
                let mut outcome = match results.swap_remove(k) {
                    Ok(outcome) => outcome,
                    Err(_) => unreachable!("winner indexes an Ok result"),
                };
                outcome.evaluated = evaluated;
                outcome.attempts = attempts;
                Ok(outcome)
            }
            None => Err(MapError::NoFeasibleMapping {
                attempts,
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
        let portfolio = PortfolioMapper::default();
        let outcome = portfolio.map(&spec, &platform, &state).unwrap();
        let best_member_energy = default_members()
            .iter()
            .filter_map(|m| (m.build)().map(&spec, &platform, &state).ok())
            .map(|o| o.energy_pj)
            .min()
            .unwrap();
        assert_eq!(outcome.energy_pj, best_member_energy);
        assert_eq!(outcome.attempts, default_members().len());
    }

    #[test]
    fn a_tight_budget_runs_only_the_cheapest_member() {
        let (spec, platform) = paper_case();
        let state = platform.initial_state();
        let portfolio = PortfolioMapper {
            budget_us: 1, // below even the cheapest member's modeled cost
            ..PortfolioMapper::default()
        };
        let (raced, tail) = portfolio.schedule();
        assert_eq!(raced.len(), 1, "the cheapest member always runs");
        assert_eq!(tail.len(), default_members().len() - 1);
        let outcome = portfolio.map(&spec, &platform, &state).unwrap();
        let greedy = GreedyMapper.map(&spec, &platform, &state).unwrap();
        assert_eq!(outcome.mapping, greedy.mapping);
        assert_eq!(outcome.attempts, 1, "no escalation when the prefix admits");
    }

    #[test]
    fn the_budget_splits_the_schedule_cheapest_first() {
        let portfolio = PortfolioMapper {
            budget_us: 200, // greedy (60) + spiral (90) fit; paper (600) does not
            ..PortfolioMapper::default()
        };
        let (raced, tail) = portfolio.schedule();
        let name = |i: usize| portfolio.members[i].name;
        assert_eq!(
            raced.iter().map(|&i| name(i)).collect::<Vec<_>>(),
            ["greedy", "spiral"]
        );
        assert_eq!(
            tail.iter().map(|&i| name(i)).collect::<Vec<_>>(),
            ["paper", "genetic"]
        );
    }

    #[test]
    fn portfolio_outcome_is_committable() {
        let (spec, platform) = paper_case();
        let mut state = platform.initial_state();
        let before = state.clone();
        let outcome = PortfolioMapper::default()
            .map(&spec, &platform, &state)
            .unwrap();
        outcome.commit(&spec, &platform, &mut state).unwrap();
        assert_ne!(state, before);
        outcome.release(&spec, &platform, &mut state).unwrap();
        assert_eq!(state, before);
    }

    #[test]
    fn an_empty_portfolio_reports_no_feasible_mapping() {
        let (spec, platform) = paper_case();
        let portfolio = PortfolioMapper {
            members: Vec::new(),
            ..PortfolioMapper::default()
        };
        assert!(portfolio
            .map(&spec, &platform, &platform.initial_state())
            .is_err());
    }
}
