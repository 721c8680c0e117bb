//! The policies the gated entry points of
//! [`RuntimeManager`](super::RuntimeManager) decide under: how migration
//! plans are enumerated, scored and admitted. What is not a policy is fixed:
//! victims are ranked by hop count, every move is priced by the one energy
//! model, and [`evacuate`](super::RuntimeManager::evacuate) re-places the
//! victims of a failure the same way every time.

use serde::{Deserialize, Serialize};
use std::fmt;

/// The unified objective
/// [`start_with_reconfiguration`](super::RuntimeManager::start_with_reconfiguration)
/// minimizes over migration plans:
///
/// ```text
/// objective = steady_state_energy_pj · 1000 + λ‰ · migration_energy_pj
/// ```
///
/// where *steady-state energy* is the total per-period energy of every
/// running application after the plan commits (the arriving application
/// plus all victims under their new mappings plus everything untouched),
/// and *migration energy* is the one-off state-transfer cost of the plan
/// priced through
/// [`CostModel::migration_cost`](crate::cost::CostModel::migration_cost).
/// λ is carried in permille so the trade-off sweeps exactly in integers:
/// λ‰ = 0 ignores transfer cost entirely, λ‰ = 1000 weights one picojoule
/// of transfer like one picojoule of steady-state energy per period,
/// larger values make the manager increasingly reluctant to move state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReconfigurationObjective {
    /// Weight of migration energy against steady-state energy, in
    /// permille (see the type docs).
    pub lambda_permille: u64,
}

impl Default for ReconfigurationObjective {
    fn default() -> Self {
        ReconfigurationObjective {
            lambda_permille: 1000,
        }
    }
}

impl ReconfigurationObjective {
    /// Scores one plan; lower is better. Saturating, so extreme λ values
    /// degrade to "worst possible" instead of wrapping.
    pub fn score(&self, steady_state_energy_pj: u64, migration_energy_pj: u64) -> u64 {
        steady_state_energy_pj
            .saturating_mul(1000)
            .saturating_add(self.lambda_permille.saturating_mul(migration_energy_pj))
    }
}

/// Whether a feasible migration plan may actually be committed: the Pareto
/// lever trading recovered admissions against reconfiguration energy.
/// [`AlwaysAdmit`](AdmissionPolicy::AlwaysAdmit) recovers everything it
/// can; the bounded policies refuse recoveries whose state-transfer energy
/// is not worth the admission, accepting a little more blocking for much
/// less migration traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum AdmissionPolicy {
    /// Commit the cheapest feasible plan unconditionally (the pre-policy
    /// behaviour).
    #[default]
    AlwaysAdmit,
    /// Refuse plans whose total migration energy exceeds a hard per-plan
    /// budget.
    EnergyBudget {
        /// Most state-transfer picojoules one plan may spend.
        max_transfer_pj: u64,
    },
    /// Refuse plans whose migration energy cannot be amortized: the
    /// transfer must cost no more than `horizon_periods` periods of the
    /// *admitted* application's steady-state energy — a proxy for the
    /// energy the recovered admission is expected to be worth over its
    /// lifetime (holding time).
    AmortizedPayback {
        /// Periods of the admitted application's energy the transfer may
        /// cost at most.
        horizon_periods: u64,
    },
}

impl AdmissionPolicy {
    /// Whether a plan spending `migration_energy_pj` to admit an
    /// application consuming `admitted_energy_pj` per period may commit.
    pub fn admits(&self, migration_energy_pj: u64, admitted_energy_pj: u64) -> bool {
        match self {
            AdmissionPolicy::AlwaysAdmit => true,
            AdmissionPolicy::EnergyBudget { max_transfer_pj } => {
                migration_energy_pj <= *max_transfer_pj
            }
            AdmissionPolicy::AmortizedPayback { horizon_periods } => {
                migration_energy_pj <= horizon_periods.saturating_mul(admitted_energy_pj)
            }
        }
    }

    /// A stable label for reports and Pareto tables.
    pub fn label(&self) -> String {
        match self {
            AdmissionPolicy::AlwaysAdmit => "always-admit".to_string(),
            AdmissionPolicy::EnergyBudget { max_transfer_pj } => {
                format!("energy-budget({max_transfer_pj}pJ)")
            }
            AdmissionPolicy::AmortizedPayback { horizon_periods } => {
                format!("amortized-payback({horizon_periods})")
            }
        }
    }
}

impl fmt::Display for AdmissionPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.label())
    }
}

/// Most running applications one migration plan may move.
pub const MAX_MIGRATIONS: usize = 2;

/// Most migration plans one
/// [`start_with_reconfiguration`](super::RuntimeManager::start_with_reconfiguration)
/// evaluates before the cheapest feasible plan found so far (if any)
/// commits.
pub const MAX_PLANS: usize = 8;

/// How
/// [`start_with_reconfiguration`](super::RuntimeManager::start_with_reconfiguration)
/// scores the migration plans it evaluates when plain admission fails, and
/// which feasible plans the admission policy lets commit. The search itself
/// is bounded by constants: plans move at most [`MAX_MIGRATIONS`] running
/// applications, and at most [`MAX_PLANS`] are evaluated. Candidate victims
/// are ranked by their current mapping's
/// [`CostModel::HopCount`](crate::cost::CostModel::HopCount) — cheap-to-move
/// (little communication) applications are enumerated first — and every
/// plan is priced in [`rtsm_platform::energy`]'s one energy model.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ReconfigurationPolicy {
    /// Scores candidate plans; the *cheapest* feasible plan commits, not
    /// the first.
    pub objective: ReconfigurationObjective,
    /// Which feasible plans may commit at all.
    pub admission: AdmissionPolicy,
}

/// How [`evacuate`](super::RuntimeManager::evacuate) re-places the victims
/// of a failure — which is always the same way (see there), so this has no
/// fields. It is kept only because the `benchmark/` crate names it; it goes
/// when `benchmark/` is next maintained.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EvacuationPolicy;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn admission_policy_bounds() {
        assert!(AdmissionPolicy::AlwaysAdmit.admits(u64::MAX, 0));
        let budget = AdmissionPolicy::EnergyBudget {
            max_transfer_pj: 100,
        };
        assert!(budget.admits(100, 0));
        assert!(!budget.admits(101, 0));
        let payback = AdmissionPolicy::AmortizedPayback { horizon_periods: 4 };
        assert!(payback.admits(40, 10));
        assert!(!payback.admits(41, 10));
        assert!(payback.admits(0, 0), "a free move always pays back");
    }

    #[test]
    fn objective_weighs_migration_by_lambda() {
        let objective = ReconfigurationObjective {
            lambda_permille: 500,
        };
        assert_eq!(objective.score(10, 4), 10 * 1000 + 500 * 4);
        assert_eq!(
            ReconfigurationObjective { lambda_permille: 0 }.score(10, 999),
            10_000
        );
        assert_eq!(
            ReconfigurationObjective::default().score(u64::MAX, u64::MAX),
            u64::MAX,
            "saturates instead of wrapping"
        );
    }
}
