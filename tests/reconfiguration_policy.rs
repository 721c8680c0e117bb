//! Properties of the energy-aware reconfiguration objective and the
//! Pareto admission policies:
//!
//! * the committed plan's objective is minimal over every feasible plan
//!   the search enumerated (cheapest-plan selection, not first-feasible);
//! * `EnergyBudget` and `AmortizedPayback` never commit a plan violating
//!   their bound, and a refused recovery leaves the ledger untouched;
//! * λ‰ = 0 with `AlwaysAdmit` reproduces PR 4's seed-2008 defrag
//!   recovered-admission counts (the pre-objective, first-feasible search
//!   recovered exactly the same admissions);
//! * at the default λ, cheapest-plan selection spends no more migration
//!   energy than the recorded first-feasible baseline at equal blocking;
//! * with a bounded policy, blocked arrivals trade admissions for energy
//!   (strictly less migration energy than `AlwaysAdmit` at the same seed);
//! * reconfiguration-aware runs route mode switches through the
//!   transactional switch: blocked switches no longer evict, so every
//!   admitted instance departs.

use proptest::prelude::*;
use rtsm::core::{
    AdmissionPolicy, MapperConfig, ReconfigurationObjective, ReconfigurationPolicy, RuntimeManager,
    SpatialMapper,
};
use rtsm::sim::{run_sim, Catalog, SimConfig, SimReport};
use rtsm::workloads::{defrag_heavy, defrag_light, defrag_platform};

/// A manager over an `n_arms`-tile defrag strip, filled with lights and
/// churned by `stop_mask`: bit `i` stops the `i`-th admitted light. The
/// surviving pattern decides whether a heavy arrival fits plainly, needs
/// a migration plan, or is truly stuck.
fn churned_manager(n_arms: u16, stop_mask: u32) -> RuntimeManager<SpatialMapper> {
    let mut manager = RuntimeManager::new(defrag_platform(n_arms), SpatialMapper::default());
    let mut lights = Vec::new();
    while let Ok(handle) = manager.start(defrag_light()) {
        lights.push(handle);
    }
    assert_eq!(lights.len(), 2 * usize::from(n_arms), "two lights per ARM");
    for (i, handle) in lights.into_iter().enumerate() {
        if stop_mask & (1 << i) != 0 {
            manager.stop(handle).expect("live handle stops");
        }
    }
    manager
}

fn policy(lambda_permille: u64, admission: AdmissionPolicy) -> ReconfigurationPolicy {
    ReconfigurationPolicy {
        objective: ReconfigurationObjective { lambda_permille },
        admission,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The committed plan is the cheapest feasible plan enumerated: its
    /// objective is ≤ every entry of `plan_objectives`, and under
    /// `AlwaysAdmit` it *is* the minimum.
    #[test]
    fn chosen_plan_objective_is_minimal(
        n_arms in 2u16..=5,
        stop_mask in 0u32..1024,
        lambda_permille in 0u64..=4000,
    ) {
        let mut manager = churned_manager(n_arms, stop_mask);
        let policy = policy(lambda_permille, AdmissionPolicy::AlwaysAdmit);
        if let Ok(reconfiguration) =
            manager.start_with_reconfiguration(defrag_heavy(), &policy)
        {
            for &objective in &reconfiguration.plan_objectives {
                prop_assert!(
                    reconfiguration.objective <= objective,
                    "committed objective {} exceeds an enumerated plan's {}",
                    reconfiguration.objective,
                    objective
                );
            }
            if !reconfiguration.plan_objectives.is_empty() {
                prop_assert_eq!(
                    reconfiguration.objective,
                    *reconfiguration.plan_objectives.iter().min().unwrap()
                );
                prop_assert_eq!(
                    reconfiguration.objective,
                    policy.objective.score(
                        reconfiguration.steady_state_energy_pj,
                        reconfiguration.migration_energy_pj
                    )
                );
            } else {
                // Plain admission succeeded: nothing migrated.
                prop_assert!(reconfiguration.migrations.is_empty());
                prop_assert_eq!(reconfiguration.migration_energy_pj, 0);
            }
            prop_assert_eq!(
                reconfiguration.steady_state_energy_pj,
                manager.running_energy_pj()
            );
        }
        manager.stop_all().expect("teardown");
        prop_assert!(manager.utilization().is_idle());
    }

    /// `EnergyBudget` never commits a plan over budget; a refusal leaves
    /// the ledger exactly as it was.
    #[test]
    fn energy_budget_is_a_hard_bound(
        n_arms in 2u16..=5,
        stop_mask in 0u32..1024,
        max_transfer_pj in 0u64..1_500_000,
    ) {
        let mut manager = churned_manager(n_arms, stop_mask);
        let ledger = manager.state().clone();
        let policy = policy(1000, AdmissionPolicy::EnergyBudget { max_transfer_pj });
        match manager.start_with_reconfiguration(defrag_heavy(), &policy) {
            Ok(reconfiguration) => prop_assert!(
                reconfiguration.migration_energy_pj <= max_transfer_pj
                    || reconfiguration.migrations.is_empty(),
                "committed {} pJ over the {} pJ budget",
                reconfiguration.migration_energy_pj,
                max_transfer_pj
            ),
            Err(failure) => {
                prop_assert_eq!(manager.state(), &ledger, "refusal must not touch the ledger");
                // Refused feasible plans are reported as such.
                let _ = failure.plans_refused;
            }
        }
        manager.stop_all().expect("teardown");
    }

    /// `AmortizedPayback` never commits a plan whose transfer energy
    /// exceeds `horizon × admitted application energy`.
    #[test]
    fn amortized_payback_is_a_hard_bound(
        n_arms in 2u16..=5,
        stop_mask in 0u32..1024,
        horizon_periods in 0u64..200,
    ) {
        let mut manager = churned_manager(n_arms, stop_mask);
        let policy = policy(1000, AdmissionPolicy::AmortizedPayback { horizon_periods });
        if let Ok(reconfiguration) =
            manager.start_with_reconfiguration(defrag_heavy(), &policy)
        {
            let admitted_energy = manager
                .get(reconfiguration.handle)
                .expect("just admitted")
                .outcome
                .energy_pj;
            prop_assert!(
                reconfiguration.migration_energy_pj
                    <= horizon_periods.saturating_mul(admitted_energy)
                    || reconfiguration.migrations.is_empty(),
                "transfer {} pJ cannot pay back within {} periods of {} pJ",
                reconfiguration.migration_energy_pj,
                horizon_periods,
                admitted_energy
            );
        }
        manager.stop_all().expect("teardown");
    }
}

/// The simulate-bin defrag configuration at seed 2008, 500 arrivals —
/// exactly the workload PR 4's counters were recorded on.
fn defrag_config(policy: ReconfigurationPolicy) -> SimConfig {
    SimConfig {
        seed: 2008,
        arrivals: 500,
        reconfiguration: Some(policy),
        track_fragmentation: true,
        ..SimConfig::default()
    }
}

fn defrag_report(policy: ReconfigurationPolicy) -> SimReport {
    run_sim(
        &defrag_platform(4),
        SpatialMapper::new(MapperConfig::default().without_capture()),
        &Catalog::defrag(),
        &defrag_config(policy),
    )
    .expect("the simulation never breaks its own ledger")
    .report
}

/// PR 4's first-feasible search on the defrag workload (seed 2008,
/// 500 arrivals, paper mapper, ≤2 migrations × 8 plans): 11 recovered
/// admissions, 11 committed migrations, 34 blocked arrivals (65‰), and
/// 7 495 680 pJ of migration energy.
const PR4_RECOVERED: u64 = 11;
const PR4_MIGRATIONS: u64 = 11;
const PR4_BLOCKED: u64 = 34;
const PR4_BLOCKING_PERMILLE: u64 = 65;
const PR4_MIGRATION_ENERGY_PJ: u64 = 7_495_680;

/// λ‰ = 0 with `AlwaysAdmit` ranks plans purely by steady-state energy —
/// the recovery *behaviour* (which admissions succeed) must reproduce the
/// first-feasible search's seed-2008 counts exactly.
#[test]
fn lambda_zero_always_admit_reproduces_pr4_recovery_counts() {
    let report = defrag_report(policy(0, AdmissionPolicy::AlwaysAdmit));
    let reconfiguration = report.reconfiguration.clone().expect("counters present");
    assert_eq!(reconfiguration.admissions_recovered, PR4_RECOVERED);
    assert_eq!(reconfiguration.migrations_committed, PR4_MIGRATIONS);
    assert_eq!(report.blocked, PR4_BLOCKED);
    assert_eq!(report.blocking_permille, PR4_BLOCKING_PERMILLE);
    assert_eq!(reconfiguration.plans_refused, 0);
    assert!(report.ledger_idle_at_end);
}

/// At the default λ, cheapest-plan selection spends no more migration
/// energy than the recorded first-feasible baseline, at equal blocking —
/// the acceptance criterion of folding migration cost into the objective.
#[test]
fn cheapest_plan_selection_never_spends_more_than_first_feasible() {
    let report = defrag_report(ReconfigurationPolicy::default());
    let reconfiguration = report.reconfiguration.clone().expect("counters present");
    assert_eq!(report.blocking_permille, PR4_BLOCKING_PERMILLE);
    assert_eq!(reconfiguration.admissions_recovered, PR4_RECOVERED);
    assert!(
        reconfiguration.migration_energy_pj <= PR4_MIGRATION_ENERGY_PJ,
        "cheapest-plan selection spent {} pJ, first-feasible spent {} pJ",
        reconfiguration.migration_energy_pj,
        PR4_MIGRATION_ENERGY_PJ
    );
}

/// The Pareto trade at one seed, over the front's λ ladder and both
/// bounded policies: each still recovers admissions while spending
/// strictly less migration energy than `AlwaysAdmit` at the same λ
/// (blocking may rise — that is the trade).
#[test]
fn energy_budget_trades_admissions_for_strictly_less_energy() {
    for lambda in [0, 1000, 4000] {
        let always = defrag_report(policy(lambda, AdmissionPolicy::AlwaysAdmit));
        let always_counters = always.reconfiguration.clone().expect("counters");
        assert!(always_counters.admissions_recovered > 0, "λ={lambda}");
        for (admission, label) in [
            (
                AdmissionPolicy::EnergyBudget {
                    max_transfer_pj: 500_000,
                },
                "energy-budget",
            ),
            (
                AdmissionPolicy::AmortizedPayback {
                    horizon_periods: 64,
                },
                "amortized-payback",
            ),
        ] {
            let bounded = defrag_report(policy(lambda, admission));
            let bounded_counters = bounded.reconfiguration.clone().expect("counters");
            assert!(
                bounded_counters.admissions_recovered > 0,
                "{label} at λ={lambda} recovers nothing"
            );
            assert!(
                bounded_counters.migration_energy_pj < always_counters.migration_energy_pj,
                "{label} at λ={lambda}: bounded {} pJ vs always-admit {} pJ",
                bounded_counters.migration_energy_pj,
                always_counters.migration_energy_pj
            );
            assert!(
                bounded_counters.plans_refused > 0,
                "{label} must actually bind on this workload at λ={lambda}"
            );
            assert!(always.blocking_permille <= bounded.blocking_permille);
            // The report is stamped with the policy it ran under.
            assert!(bounded_counters.policy.starts_with(label));
            assert_eq!(bounded_counters.lambda_permille, lambda);
        }
    }
}

/// Reconfiguration-aware runs route mode switches through the
/// transactional switch: a blocked switch no longer evicts the instance,
/// so every admitted instance departs, and survived switches are counted.
#[test]
fn mode_switches_survive_under_reconfiguration() {
    let report = defrag_report(ReconfigurationPolicy::default());
    let reconfiguration = report.reconfiguration.clone().expect("counters present");
    assert_eq!(
        report.departures, report.admitted,
        "blocked switches keep their instance running, so every admitted \
         instance departs"
    );
    assert_eq!(
        reconfiguration.mode_switches_survived, report.mode_switch_blocked,
        "every blocked switch survives as its old configuration"
    );
    assert!(report.ledger_idle_at_end);
}
