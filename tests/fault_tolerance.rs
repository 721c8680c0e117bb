//! Fault-tolerance properties of the health layer and the evacuation
//! path: any seeded interleaving of admissions (plain and reconfiguring,
//! with and without the template library), mode switches, failures,
//! evacuations, repairs, and departures leaves the shared ledger
//! byte-identical to a from-scratch replay of the surviving mappings;
//! survivors never occupy
//! a quarantined resource; and with faults disabled the simulator's
//! seed-2008 reports are byte-identical to the golden fixtures for
//! every registered algorithm.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use rtsm::app::ApplicationSpec;
use rtsm::core::{
    AppHandle, EvacuationPolicy, FailureEvent, MappingAlgorithm, ReconfigurationPolicy,
    RouteBinding, RunningApp, RuntimeError, RuntimeManager, SpatialMapper, TemplatedMapper,
};
use rtsm::platform::paper::paper_platform;
use rtsm::platform::{LinkId, Platform, PlatformState, TileId};
use rtsm::sim::{run_sim, ArrivalProcess, Catalog, FaultConfig, HoldingTime, SimConfig};
use rtsm::workloads::defrag_platform;
use std::sync::Arc;

#[path = "support/fixture.rs"]
mod fixture;

/// The mixed-DSP mesh `simulate --catalog mixed` uses (platform seed 42),
/// from the table it and `experiment` resolve it through.
fn mixed_platform() -> Platform {
    rtsm::exp::resolve_catalog("mixed", 42)
        .expect("a registered catalog")
        .platform
}

/// One uniformly drawn catalog spec.
fn draw(catalog: &Catalog, rng: &mut StdRng) -> Arc<ApplicationSpec> {
    catalog.entries()[rng.random_range(0usize..catalog.len())]
        .spec
        .clone()
}

/// Rebuilds the ledger from scratch: every surviving mapping committed
/// onto a fresh state, then the currently-open failures quarantined. If
/// the incremental ledger is correct, this replay is byte-identical.
fn replay_from_scratch<'a>(
    platform: &Platform,
    running: impl Iterator<Item = (AppHandle, &'a RunningApp)>,
    failed: &[FailureEvent],
) -> PlatformState {
    let mut state = platform.initial_state();
    for (_, app) in running {
        app.outcome
            .commit(&app.spec, platform, &mut state)
            .expect("a surviving mapping must re-commit onto a fresh ledger");
    }
    for failure in failed {
        match *failure {
            FailureEvent::Tile(tile) => state.fail_tile(tile),
            FailureEvent::Link(link) => state.fail_link(link),
        };
    }
    state
}

/// Asserts no surviving application touches a quarantined resource:
/// process assignments, buffer tiles, and every link (and endpoint) of
/// every routed channel must be healthy.
fn check_survivors(manager: &RuntimeManager<impl MappingAlgorithm>) {
    let state = manager.state();
    for (handle, app) in manager.running() {
        for (_, assignment) in app.outcome.mapping.assignments() {
            assert!(
                !state.is_tile_failed(assignment.tile),
                "app {handle:?} assigned to a failed tile"
            );
        }
        for buffer in &app.outcome.buffers {
            assert!(
                !state.is_tile_failed(buffer.tile),
                "app {handle:?} buffers on a failed tile"
            );
        }
        for (_, route) in app.outcome.mapping.routes() {
            if let RouteBinding::Path(path) = route {
                assert!(
                    !state.is_tile_failed(path.from) && !state.is_tile_failed(path.to),
                    "app {handle:?} routes from/to a failed tile"
                );
                for link in &path.links {
                    assert!(
                        !state.is_link_failed(*link),
                        "app {handle:?} routes through a failed link"
                    );
                }
            }
        }
    }
}

/// Drives `manager` (fresh, over an idle platform) through 40 seeded
/// operations drawn from every ledger-mutating entry point — start /
/// start_with_reconfiguration / stop / switch / fail+evacuate / repair —
/// and checks after each that the incrementally-maintained ledger is
/// byte-identical to a from-scratch replay of the surviving mappings (so
/// each record is exactly what the ledger holds for it), that a blocked
/// switch leaves ledger and record untouched, and at the end that stopping
/// everything and repairing every failure drains the ledger back to the
/// pristine initial state. Returns how many migration plans — an arrival
/// plus re-placed victims, adopted from the outcomes their evaluation
/// attached — were committed on the way.
fn interleave<A: MappingAlgorithm>(
    seed: u64,
    manager: &mut RuntimeManager<A>,
    catalog: &Catalog,
) -> u64 {
    let platform = &manager.platform().clone();
    let mut rng = StdRng::seed_from_u64(seed);
    let tiles: Vec<TileId> = platform.tiles().map(|(id, _)| id).collect();
    let links: Vec<LinkId> = platform.links().map(|(id, _)| id).collect();
    let policy = EvacuationPolicy;
    let mut handles: Vec<AppHandle> = Vec::new();
    let mut failed: Vec<FailureEvent> = Vec::new();
    let mut plans_committed = 0;

    for _ in 0..40 {
        let op = rng.random_range(0usize..11);
        match op {
            // Weighted towards admissions so the platform fills up
            // and failures actually hit running applications.
            0..=2 => {
                if let Ok(handle) = manager.start(draw(catalog, &mut rng)) {
                    handles.push(handle);
                }
            }
            // Blocked arrivals stage and abort migration plans; the few
            // that recover commit one.
            3..=4 => {
                if let Ok(reconfiguration) = manager.start_with_reconfiguration(
                    draw(catalog, &mut rng),
                    &ReconfigurationPolicy::default(),
                ) {
                    handles.push(reconfiguration.handle);
                    plans_committed += u64::from(reconfiguration.plans_tried > 0);
                }
            }
            5 => {
                if !handles.is_empty() {
                    let handle = handles.swap_remove(rng.random_range(0usize..handles.len()));
                    manager.stop(handle).expect("running handles stop cleanly");
                }
            }
            6..=7 => {
                if handles.is_empty() {
                    continue;
                }
                let handle = handles[rng.random_range(0usize..handles.len())];
                let ledger = manager.state().clone();
                let record = manager.get(handle).expect("tracked handles run").clone();
                match manager.switch(handle, draw(catalog, &mut rng)) {
                    Ok(previous) => prop_assert!(
                        previous == record.outcome,
                        "switch returns the outcome it replaced (seed {seed})"
                    ),
                    Err(error) => {
                        prop_assert!(
                            matches!(error, RuntimeError::Admission(_)),
                            "a blocked switch is an admission failure, got {error} (seed {seed})"
                        );
                        prop_assert!(
                            manager.state() == &ledger,
                            "a blocked switch must restore the ledger (seed {seed})"
                        );
                        prop_assert!(
                            manager.get(handle) == Some(&record),
                            "a blocked switch must keep the record (seed {seed})"
                        );
                    }
                }
            }
            8..=9 => {
                let failure = if rng.random_bool(0.5) {
                    FailureEvent::Tile(tiles[rng.random_range(0usize..tiles.len())])
                } else {
                    FailureEvent::Link(links[rng.random_range(0usize..links.len())])
                };
                if manager.is_failed(failure) {
                    continue;
                }
                let evacuation = manager
                    .evacuate(failure, &policy)
                    .expect("evacuation never corrupts the ledger");
                handles.retain(|h| !evacuation.evicted.contains(h));
                failed.push(failure);
                check_survivors(manager);
            }
            _ => {
                if !failed.is_empty() {
                    let failure = failed.swap_remove(rng.random_range(0usize..failed.len()));
                    prop_assert!(manager.repair(failure));
                }
            }
        }
        let replay = replay_from_scratch(platform, manager.running(), &failed);
        prop_assert!(
            manager.state() == &replay,
            "ledger diverged from from-scratch replay (seed {seed})"
        );
        let real_json = serde_json::to_string(manager.state()).expect("serialize");
        let replay_json = serde_json::to_string(&replay).expect("serialize");
        prop_assert_eq!(
            real_json,
            replay_json,
            "ledger bytes diverged (seed {})",
            seed
        );
    }

    // Drain: stop the survivors, repair the open failures — the
    // ledger must be exactly the pristine initial state again.
    for handle in handles.drain(..) {
        manager.stop(handle).expect("running handles stop cleanly");
    }
    for failure in failed.drain(..) {
        prop_assert!(manager.repair(failure));
    }
    prop_assert!(
        manager.state() == &platform.initial_state(),
        "ledger must drain to pristine after stop-all + repair-all (seed {seed})"
    );
    plans_committed
}

proptest! {
    // Each case drives a full manager through ~40 operations including
    // evacuations; 8 cases keep dev-profile CI time reasonable.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// [`interleave`] on the mixed-DSP mesh, where blocked arrivals stage and
    /// abort migration plans but capacity, not placement, is what blocks
    /// them: next to none commits. Once for the heuristic, once behind the
    /// template library, so that the replay also audits outcomes
    /// instantiated from cached shapes.
    #[test]
    fn ledger_matches_replay_under_fault_interleavings(seed in 0u64..500) {
        let catalog = Catalog::mixed_dsp();
        let mut plain = RuntimeManager::new(mixed_platform(), SpatialMapper::default());
        interleave(seed, &mut plain, &catalog);
        let templated = TemplatedMapper::new(SpatialMapper::default());
        let mut templated = RuntimeManager::new(mixed_platform(), templated);
        interleave(seed, &mut templated, &catalog);
        prop_assert!(
            templated.algorithm().stats().hits > 0,
            "no admission was a template hit (seed {seed})"
        );
    }

    /// After any single failure and evacuation, no surviving mapping
    /// touches the quarantined resource — assignments, buffers, route
    /// endpoints, and every traversed link are all healthy.
    #[test]
    fn evacuated_mappings_avoid_failed_resources(seed in 0u64..500) {
        let platform = paper_platform();
        let catalog = Catalog::hiperlan2();
        let mut manager = RuntimeManager::new(platform.clone(), SpatialMapper::default());
        let mut rng = StdRng::seed_from_u64(seed);

        // Fill the platform until admission blocks, so the failure has
        // victims to hit.
        loop {
            if manager.start(draw(&catalog, &mut rng)).is_err() {
                break;
            }
        }
        prop_assert!(manager.n_running() > 0);

        let tiles: Vec<TileId> = platform.tiles().map(|(id, _)| id).collect();
        let links: Vec<LinkId> = platform.links().map(|(id, _)| id).collect();
        let failure = if rng.random_bool(0.5) {
            FailureEvent::Tile(tiles[rng.random_range(0usize..tiles.len())])
        } else {
            FailureEvent::Link(links[rng.random_range(0usize..links.len())])
        };
        let evacuation = manager
            .evacuate(failure, &EvacuationPolicy)
            .expect("evacuation never corrupts the ledger");
        prop_assert_eq!(
            evacuation.evacuated.len() + evacuation.evicted.len(),
            evacuation.victims.len(),
            "victims partition into evacuated and evicted"
        );
        check_survivors(&manager);

        // Utilization must report the quarantine.
        let utilization = manager.utilization();
        match failure {
            FailureEvent::Tile(_) => prop_assert_eq!(utilization.failed_tiles, 1),
            FailureEvent::Link(_) => prop_assert_eq!(utilization.failed_tiles, 0),
        }
        prop_assert!(manager.repair(failure));
        prop_assert_eq!(manager.utilization().failed_tiles, 0);
    }
}

/// The same oracle where migration plans *commit*: on the fragmenting strip
/// of `rtsm_workloads::defrag` a heavy arrival is blocked by placement, and
/// moving a light application recovers it — the winner of the search is
/// re-staged from its attached outcomes and every placement adopted, under
/// the byte-compare after every operation.
#[test]
fn migration_plans_commit_under_the_replay_oracle() {
    let (platform, catalog) = (defrag_platform(4), Catalog::defrag());
    let committed: u64 = (0..32)
        .map(|seed| {
            let mut manager = RuntimeManager::new(platform.clone(), SpatialMapper::default());
            interleave(seed, &mut manager, &catalog)
        })
        .sum();
    println!("{committed} migration plans committed over 32 seeds");
    assert!(committed > 0, "no seed committed a migration plan");
}

/// With faults disabled, the simulator's seed-2008 reports are
/// byte-identical to the golden fixtures — for every registered
/// algorithm on both the paper platform and the mixed-DSP mesh. This is
/// the "faults off ⇒ nothing changed" gate.
#[test]
fn faults_off_seed2008_reports_match_pre_fault_fixtures() {
    // `simulate`'s defaults with `--arrivals 500` — exactly how the
    // fixtures under tests/golden/ were generated.
    let config = SimConfig {
        seed: 2008,
        arrivals: 500,
        arrival_process: ArrivalProcess::Poisson { mean_gap: 500 },
        holding: HoldingTime::Exponential { mean: 2000 },
        mode_switch_probability: 0.10,
        sample_interval: 10_000,
        horizon: None,
        reconfiguration: None,
        track_fragmentation: false,
        faults: None,
    };
    let algorithms: Vec<fn() -> Box<dyn MappingAlgorithm>> =
        rtsm::exp::ALGORITHMS.iter().map(|e| e.build).collect();
    let fixtures = [
        (
            paper_platform(),
            Catalog::hiperlan2(),
            include_str!("golden/seed2008_hiperlan2_prepr.jsonl"),
        ),
        (
            mixed_platform(),
            Catalog::mixed_dsp(),
            include_str!("golden/seed2008_mixed_prepr.jsonl"),
        ),
    ];
    for (platform, catalog, fixture) in fixtures {
        let expected: Vec<&str> = fixture.lines().collect();
        assert_eq!(expected.len(), algorithms.len());
        for (make, want) in algorithms.iter().zip(expected) {
            let report = run_sim(&platform, make(), &catalog, &config)
                .expect("the simulation never breaks its own ledger")
                .report;
            let got = serde_json::to_string(&report).expect("serialize");
            fixture::assert_matches_fixture(
                &got,
                want,
                &format!("faults-off report for `{}`", report.algorithm),
            );
        }
    }
}

/// Faults *and* a reconfiguration policy at once (`simulate --faults
/// --reconfigure`): a blocked mode switch is survived, not terminal, so
/// the conservation law counts only `mode_switch_lost()` — summing every
/// blocked switch over-counts by the survivors.
#[test]
fn conservation_counts_only_unsurvived_switches_with_faults_and_reconfiguration() {
    let config = SimConfig {
        seed: 2008,
        arrivals: 300,
        arrival_process: ArrivalProcess::Poisson { mean_gap: 500 },
        holding: HoldingTime::Exponential { mean: 2000 },
        mode_switch_probability: 0.10,
        reconfiguration: Some(ReconfigurationPolicy::default()),
        track_fragmentation: true,
        faults: Some(FaultConfig::default()),
        ..SimConfig::default()
    };
    let report = run_sim(
        &mixed_platform(),
        SpatialMapper::default(),
        &Catalog::mixed_dsp(),
        &config,
    )
    .expect("the simulation never breaks its own ledger")
    .report;
    let survived = report
        .reconfiguration
        .as_ref()
        .expect("reconfiguration counters")
        .mode_switches_survived;
    assert!(survived > 0, "the run must exercise a survived switch");
    assert_eq!(
        report.mode_switch_lost(),
        report.mode_switch_blocked - survived
    );
    let evicted = report
        .survivability
        .as_ref()
        .expect("faults were enabled")
        .apps_evicted;
    assert_eq!(
        report.departures + report.mode_switch_lost() + evicted + report.final_running,
        report.admitted,
        "departed + switch-lost + evicted + running must equal admitted"
    );
    assert!(report.ledger_idle_at_end);
}
