//! Lifecycle properties of the handle-based [`RuntimeManager`]: admission
//! commits are exactly inverted by stops, and no sequence of starts and
//! stops leaks a single claim from the shared occupancy ledger.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use rtsm::core::{AdmissionError, AppHandle, RuntimeError, RuntimeManager, SpatialMapper};
use rtsm::platform::TileKind;
use rtsm::workloads::{mesh_platform, synthetic_app, GraphShape, SyntheticConfig};
use std::sync::Arc;

fn manager(seed: u64) -> RuntimeManager<SpatialMapper> {
    let platform = mesh_platform(
        seed ^ 0x51AB,
        4,
        4,
        &[(TileKind::Montium, 4), (TileKind::Arm, 5)],
    );
    RuntimeManager::new(platform, SpatialMapper::default())
}

fn app(seed: u64, n_processes: usize) -> rtsm::app::ApplicationSpec {
    synthetic_app(&SyntheticConfig {
        seed,
        n_processes,
        shape: GraphShape::Chain,
        ..SyntheticConfig::default()
    })
}

/// One stage implemented only on a tile kind the mesh does not have.
fn unhostable() -> rtsm::app::ApplicationSpec {
    rtsm_testkit::pipeline(&[&[TileKind::Fpga]], (true, true), 1024)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// `start` followed by `stop` restores the exact prior `PlatformState`:
    /// commit and release are inverse operations through the manager, for
    /// every admissible synthetic application.
    #[test]
    fn start_stop_restores_exact_prior_state(seed in 0u64..300) {
        let mut m = manager(seed);
        let before = m.state().clone();
        match m.start(app(seed, 4)) {
            Ok(handle) => {
                prop_assert!(m.state() != &before, "admission must claim resources");
                m.stop(handle).expect("running application stops");
                prop_assert!(
                    m.state() == &before,
                    "stop must restore the exact pre-start ledger (seed {seed})"
                );
            }
            Err(AdmissionError::Rejected(_)) => {
                // Rejection must leave the ledger untouched too.
                prop_assert!(m.state() == &before);
            }
            Err(other) => prop_assert!(false, "unexpected error: {other}"),
        }
    }

    /// Churn: a randomized interleaving of starts and stops never leaks a
    /// claim — once everything is stopped, the ledger is exactly the empty
    /// initial state, and the running set matches the bookkeeping.
    #[test]
    fn randomized_churn_never_leaks_claims(seed in 0u64..60) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut m = manager(seed);
        let empty = m.state().clone();
        let mut live: Vec<AppHandle> = Vec::new();
        let mut app_seed = seed;

        for _ in 0..24 {
            let start = live.is_empty() || rng.random_bool(0.6);
            if start {
                app_seed += 1;
                let n = rng.random_range(2usize..=5);
                match m.start(app(app_seed, n)) {
                    Ok(handle) => live.push(handle),
                    Err(AdmissionError::Rejected(_)) => {}
                    Err(other) => prop_assert!(false, "unexpected error: {other}"),
                }
            } else {
                let victim = live.swap_remove(rng.random_range(0usize..live.len()));
                m.stop(victim).expect("live handle stops");
            }
            prop_assert!(m.n_running() == live.len());
            // Utilization stays within the platform's physical capacity.
            let util = m.utilization();
            prop_assert!(util.used_slots <= util.total_slots);
            prop_assert!(util.used_memory_bytes <= util.total_memory_bytes);
            prop_assert!(util.used_link_bandwidth <= util.total_link_bandwidth);
        }

        // Drain: stopping everything must restore the pristine ledger.
        for handle in live.drain(..) {
            m.stop(handle).expect("live handle stops");
        }
        prop_assert!(m.n_running() == 0);
        prop_assert!(
            m.state() == &empty,
            "ledger leaked claims after full drain (seed {seed})"
        );
        let util = m.utilization();
        prop_assert!(util.used_slots == 0);
        prop_assert!(util.used_memory_bytes == 0);
        prop_assert!(util.used_link_bandwidth == 0);
    }
}

/// Stale handles are rejected with `UnknownHandle` and leave both the
/// ledger and the running set untouched.
#[test]
fn stale_handles_fail_cleanly() {
    let mut m = manager(1);
    let h0 = m.start(app(11, 3)).expect("empty platform admits");
    m.stop(h0).expect("stop once");
    let snapshot = m.state().clone();
    let running_before = m.n_running();
    assert!(matches!(
        m.stop(h0),
        Err(RuntimeError::UnknownHandle(stale)) if stale == h0
    ));
    assert_eq!(m.state(), &snapshot);
    assert_eq!(m.n_running(), running_before);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Churn plus forced-to-fail switches: a switch to a specification no
    /// tile can host must roll back to the *exact* ledger — claims, buffer
    /// memory, and allocated routes — and the app must keep functioning
    /// (it still stops cleanly at drain time).
    #[test]
    fn churned_switch_rollback_restores_state_and_routes(seed in 0u64..40) {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xDEFA6);
        let mut m = manager(seed);
        let empty = m.state().clone();
        let unhostable = Arc::new(unhostable());
        let mut live: Vec<AppHandle> = Vec::new();
        let mut app_seed = seed;

        for _ in 0..16 {
            let action = rng.random_range(0usize..3);
            if live.is_empty() || action == 0 {
                app_seed += 1;
                match m.start(app(app_seed, rng.random_range(2usize..=4))) {
                    Ok(handle) => live.push(handle),
                    Err(AdmissionError::Rejected(_)) => {}
                    Err(other) => prop_assert!(false, "unexpected error: {other}"),
                }
            } else if action == 1 {
                let victim = live.swap_remove(rng.random_range(0usize..live.len()));
                m.stop(victim).expect("live handle stops");
            } else {
                // Induced switch failure: ledger and record must not move.
                let target = live[rng.random_range(0usize..live.len())];
                let ledger = m.state().clone();
                let record = m.get(target).expect("live handle").clone();
                let err = m.switch(target, unhostable.clone()).expect_err("nothing hosts it");
                prop_assert!(matches!(err, RuntimeError::Admission(_)));
                prop_assert!(
                    m.state() == &ledger,
                    "failed switch must restore the exact ledger (seed {seed})"
                );
                prop_assert!(
                    m.get(target) == Some(&record),
                    "failed switch must keep the old mapping and routes (seed {seed})"
                );
            }
        }

        for handle in live.drain(..) {
            m.stop(handle).expect("live handle stops");
        }
        prop_assert!(
            m.state() == &empty,
            "ledger leaked claims after churn with failed switches (seed {seed})"
        );
    }
}
