//! `PortfolioMapper` — run a portfolio of mapping algorithms under one
//! per-admission latency budget and commit the best feasible outcome.
//!
//! Members are ordered cheapest-first by a *modeled* integer cost in
//! microseconds (design-time calibrated, never measured at run time — a
//! wall clock in the decision path would break byte-determinism). The
//! cheapest-first prefix whose cumulative modeled cost fits the budget is
//! evaluated — sequentially with `workers <= 1`, raced across scoped
//! threads with the same atomic-cursor pool pattern as
//! `rtsm_exp::run_ordered` otherwise. Every feasible outcome is scored
//! with the portfolio's [`CostModel`] and exactly one — the cheapest, ties
//! to the earlier member — is returned for the caller to commit through
//! the usual evaluate-then-replay transaction path
//! ([`MappingOutcome::commit`]). If the whole prefix misses, the
//! portfolio *escalates*: the remaining members run one at a time past
//! the budget until one admits, because a late admission beats a
//! rejection.
//!
//! Which members run, and which outcome wins, are pure functions of the
//! budget and the members' deterministic results — worker count only
//! changes wall-clock, so fixed-seed reports are byte-identical at 1 and
//! N racing workers (`tests/portfolio.rs`).

use crate::{AnnealingMapper, GeneticMapper, GreedyMapper, SpiralMapper};
use rtsm_app::ApplicationSpec;
use rtsm_core::constraints::MappingConstraints;
use rtsm_core::cost::CostModel;
use rtsm_core::mapper::MapperConfig;
use rtsm_core::{MapError, MappingAlgorithm, MappingOutcome, SpatialMapper};
use rtsm_platform::{EnergyModel, Platform, PlatformState};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

/// Default per-admission latency budget, microseconds — admits the whole
/// default member set ([`default_members`]).
pub const DEFAULT_BUDGET_US: u64 = 5_000;

/// One portfolio member: a constructor (workers build private instances,
/// so racing shares nothing) plus its modeled per-admission cost.
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

/// An aggressive extension of [`default_members`]: adds simulated
/// annealing for callers with budgets in the tens of milliseconds.
pub fn extended_members() -> Vec<PortfolioMember> {
    let mut members = default_members();
    members.push(PortfolioMember {
        name: "annealing",
        estimated_cost_us: 30_000,
        build: || Box::new(AnnealingMapper::default()),
    });
    members
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
    /// Racing workers; `<= 1` evaluates the eligible prefix sequentially.
    /// Reports are byte-identical either way.
    pub workers: usize,
    /// How feasible member outcomes are compared.
    pub cost_model: CostModel,
}

impl Default for PortfolioMapper {
    fn default() -> Self {
        PortfolioMapper {
            members: default_members(),
            budget_us: DEFAULT_BUDGET_US,
            workers: 1,
            cost_model: CostModel::Energy(EnergyModel::default()),
        }
    }
}

impl PortfolioMapper {
    /// Same portfolio, racing `workers` threads.
    pub fn with_workers(workers: usize) -> Self {
        PortfolioMapper {
            workers,
            ..PortfolioMapper::default()
        }
    }

    /// Member indices cheapest-first (stable on cost ties), split into
    /// the within-budget racing prefix and the escalation tail.
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

    /// Runs the given members, returning their results by position. With
    /// `workers >= 2` this is `rtsm_exp::run_ordered`'s pool pattern —
    /// scoped threads pulling from an atomic cursor — collapsed to the
    /// collect-by-index case (no streaming sink is needed here because
    /// selection is a pure function of the full result vector).
    fn run_members(
        &self,
        indices: &[usize],
        spec: &ApplicationSpec,
        platform: &Platform,
        base: &PlatformState,
        constraints: &MappingConstraints,
    ) -> Vec<Result<MappingOutcome, MapError>> {
        let run = |member: &PortfolioMember| {
            (member.build)().map_constrained(spec, platform, base, constraints)
        };
        let workers = self.workers.clamp(1, indices.len().max(1));
        if workers <= 1 {
            return indices.iter().map(|&i| run(&self.members[i])).collect();
        }
        let next = AtomicUsize::new(0);
        let (tx, rx) = mpsc::channel();
        std::thread::scope(|scope| {
            for _ in 0..workers {
                let tx = tx.clone();
                let (next, run) = (&next, &run);
                scope.spawn(move || loop {
                    let k = next.fetch_add(1, Ordering::Relaxed);
                    if k >= indices.len() {
                        break;
                    }
                    if tx.send((k, run(&self.members[indices[k]]))).is_err() {
                        break;
                    }
                });
            }
            drop(tx);
            let mut slots: Vec<Option<Result<MappingOutcome, MapError>>> = Vec::new();
            slots.resize_with(indices.len(), || None);
            for (k, result) in rx {
                slots[k] = Some(result);
            }
            slots
                .into_iter()
                .map(|slot| slot.expect("every raced member reports exactly once"))
                .collect()
        })
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
        let (raced, tail) = self.schedule();
        let mut results = self.run_members(&raced, spec, platform, base, constraints);
        let mut attempts = results.len();

        // Select: cheapest outcome under the portfolio's cost model, ties
        // to the earlier (cheaper) member — a pure function of the
        // deterministic member results, independent of racing order.
        let mut winner = results
            .iter()
            .enumerate()
            .filter_map(|(k, result)| result.as_ref().ok().map(|o| (k, o)))
            .min_by_key(|(k, o)| (self.cost_model.cost(&o.mapping, spec, platform), *k))
            .map(|(k, _)| k);

        if winner.is_none() {
            // Every member within budget missed: escalate past the budget
            // one member at a time — identical in sequential and racing
            // mode, so determinism is preserved.
            for &i in &tail {
                let result = self
                    .run_members(&[i], spec, platform, base, constraints)
                    .remove(0);
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
    fn racing_workers_do_not_change_the_outcome() {
        let (spec, platform) = paper_case();
        let state = platform.initial_state();
        let sequential = PortfolioMapper::default()
            .map(&spec, &platform, &state)
            .unwrap();
        for workers in [2, 4, 8] {
            let raced = PortfolioMapper::with_workers(workers)
                .map(&spec, &platform, &state)
                .unwrap();
            assert_eq!(raced.mapping, sequential.mapping, "workers={workers}");
            assert_eq!(raced.evaluated, sequential.evaluated, "workers={workers}");
            assert_eq!(raced.attempts, sequential.attempts, "workers={workers}");
        }
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
