//! The discrete-event simulation loop: stochastic workloads driving a
//! [`RuntimeManager`] through virtual time.

use crate::event::{EventQueue, InstanceId, SimEvent, SimTime};
use crate::metrics::{Attempt, MetricsCollector, SimReport};
use crate::workload::{exponential_ticks, ArrivalProcess, Catalog, CatalogEntry, HoldingTime};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use rtsm_core::runtime::{
    AdmissionError, AppHandle, EvacuationPolicy, FailureEvent, ReconfigurationPolicy, RuntimeError,
    RuntimeManager,
};
use rtsm_core::MappingAlgorithm;
use rtsm_platform::{LinkId, Platform, TileId};
use std::collections::BTreeMap;

/// Salt XORed into the workload seed to derive the *fault* RNG stream:
/// fault draws never consume workload randomness, so enabling faults
/// leaves the arrival/holding/switch sequence bit-identical.
const FAULT_SEED_SALT: u64 = 0xFA17_FA17_FA17_FA17;

/// Parameters of the seeded fault process: exponential inter-failure
/// times (mean `mttf`), a fixed repair time (`mttr`), and the policy the
/// [`RuntimeManager::evacuate`] call recovers with. Failures alternate
/// 50/50 between tiles and links, uniform over the platform's resources;
/// a failure drawn for an already-quarantined resource is skipped (no
/// double repair). Failure injection stops with the arrival process, and
/// every injected failure's repair is processed before the queue drains,
/// so teardown always sees a healthy platform.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultConfig {
    /// Mean time to failure: inter-failure gaps are Exp(1/mttf), ticks.
    pub mttf: SimTime,
    /// Fixed time from a failure's injection to its repair, ticks.
    pub mttr: SimTime,
    /// What [`RuntimeManager::evacuate`] is handed — fieldless, kept (like
    /// this field) because `benchmark/` names it.
    pub evacuation: EvacuationPolicy,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig {
            mttf: 50_000,
            mttr: 5_000,
            evacuation: EvacuationPolicy,
        }
    }
}

/// Parameters of one simulation run. Everything stochastic derives from
/// `seed`; two runs with equal configs produce identical [`SimReport`]s.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Seed of the single RNG that drives arrivals, catalog draws,
    /// holding times, and mode switches.
    pub seed: u64,
    /// Number of arrival events to generate.
    pub arrivals: u64,
    /// When applications arrive.
    pub arrival_process: ArrivalProcess,
    /// How long admitted applications hold their resources.
    pub holding: HoldingTime,
    /// Probability that an admitted instance attempts one mid-life mode
    /// switch (redraws its spec from the catalog).
    pub mode_switch_probability: f64,
    /// Occupancy sampling interval, in ticks.
    pub sample_interval: SimTime,
    /// Optional virtual-time cut-off: events after it are dropped and the
    /// instances still running are torn down via
    /// [`RuntimeManager::stop_all`]. `None` drains the queue naturally.
    pub horizon: Option<SimTime>,
    /// When set, blocked arrivals retry admission through
    /// [`RuntimeManager::start_with_reconfiguration`] (a
    /// [`SimEvent::Reconfigure`] at the same virtual instant), and the
    /// report carries reconfiguration counters. `None` — the default —
    /// reproduces the plain admit-or-reject behaviour byte-for-byte.
    pub reconfiguration: Option<ReconfigurationPolicy>,
    /// Record the fragmentation figure in every occupancy sample. Off by
    /// default so plain reports stay byte-identical to pre-fragmentation
    /// runs.
    pub track_fragmentation: bool,
    /// When set, a seeded fault process injects tile/link failures
    /// (recovered via [`RuntimeManager::evacuate`]) and the report carries
    /// a [`crate::SurvivabilityReport`]. The fault RNG is derived from
    /// `seed ^` a fixed salt, so `None` — the default — reproduces
    /// fault-free reports byte-for-byte.
    pub faults: Option<FaultConfig>,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            seed: 1,
            arrivals: 1000,
            arrival_process: ArrivalProcess::Poisson { mean_gap: 500 },
            holding: HoldingTime::Exponential { mean: 2000 },
            mode_switch_probability: 0.1,
            sample_interval: 1000,
            horizon: None,
            reconfiguration: None,
            track_fragmentation: false,
            faults: None,
        }
    }
}

/// The result of [`run_sim`]: a function of its arguments, so two runs of
/// one configuration compare equal. The wrapper around the report exists
/// only because `benchmark/` reads `run.report`; it folds into
/// [`SimReport`] when that crate is next maintained.
#[derive(Debug, Clone, PartialEq)]
pub struct SimRun {
    /// The deterministic, serializable report.
    pub report: SimReport,
}

/// Runs one seeded simulation of `config` over `platform`, admitting every
/// arrival through `algorithm` with specs drawn from `catalog`.
///
/// Event semantics:
///
/// * **Arrival** — the instance requests admission; if mapped, a departure
///   is scheduled after a drawn holding time (and possibly one mode
///   switch strictly before it); if rejected, the instance is *blocked*
///   and leaves (no retry — blocked-calls-cleared, the classic admission
///   model) — unless a reconfiguration policy is set, in which case a
///   [`SimEvent::Reconfigure`] at the same instant decides its fate.
/// * **Departure** — the instance stops and releases its resources.
/// * **ModeSwitch** — the instance redraws a spec from the catalog and
///   switches to it at the same virtual instant. In plain runs this is
///   stop-then-readmit: if rejected the instance leaves (its scheduled
///   departure becomes stale and is ignored). With a reconfiguration
///   policy set, the switch goes through the transactional
///   [`RuntimeManager::switch`] instead: a rejected switch is still a
///   switching loss (it counts as blocked), but the instance *keeps
///   running under its old configuration* — the loss is measurable
///   (`mode_switches_survived`) and partially recovered. Mode switches
///   never search migration plans: the instance already holds resources.
/// * **Reconfigure** — the blocked instance retries through
///   [`RuntimeManager::start_with_reconfiguration`]: bounded migration
///   plans may move running applications (all-or-nothing) to make room.
///   Success is counted as a *recovered admission*; failure is the
///   instance's definitive blocking.
/// * **TileFail / LinkFail** — fault injection (only with
///   [`SimConfig::faults`] set): the resource is quarantined and its
///   tenants are evacuated through [`RuntimeManager::evacuate`] — victims
///   with an admissible relocation move, the rest are *evicted* (their
///   scheduled departures become stale). A [`SimEvent::Repair`] lands a
///   fixed `mttr` later. Failures drawn for an already-failed resource
///   are skipped.
/// * **Repair** — the quarantined resource becomes claimable again;
///   evacuated applications stay where evacuation put them.
///
/// # Errors
///
/// [`AdmissionError::CommitFailed`] / [`RuntimeError::ReleaseFailed`]
/// if the manager's own ledger rejects a commit or release — impossible
/// unless the platform state is mutated outside the simulation.
///
/// # Panics
///
/// Panics if `catalog` is empty.
pub fn run_sim<A: MappingAlgorithm>(
    platform: &Platform,
    algorithm: A,
    catalog: &Catalog,
    config: &SimConfig,
) -> Result<SimRun, RuntimeError> {
    assert!(
        !catalog.is_empty(),
        "the workload catalog must not be empty"
    );
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut manager = RuntimeManager::new(platform.clone(), algorithm);
    let mut queue = EventQueue::new();
    let mut metrics = MetricsCollector::for_config(config);
    // Instance → current handle; absent once departed, blocked, or
    // evicted.
    let mut handles: BTreeMap<InstanceId, AppHandle> = BTreeMap::new();
    let mut scheduled_arrivals: u64 = 0;

    let schedule_arrival =
        |rng: &mut StdRng, queue: &mut EventQueue, scheduled: &mut u64, now: SimTime| {
            if *scheduled < config.arrivals {
                let instance = InstanceId(*scheduled);
                *scheduled += 1;
                queue.push(
                    now.saturating_add(config.arrival_process.next_gap(rng)),
                    SimEvent::Arrival {
                        instance,
                        catalog_index: catalog.sample(rng),
                    },
                );
            }
        };

    schedule_arrival(&mut rng, &mut queue, &mut scheduled_arrivals, 0);

    // The fault process draws from its own salted RNG stream, so enabling
    // it never perturbs the workload sequence. Targets are drawn when the
    // failure is scheduled (like arrivals draw their catalog entry).
    let mut fault_rng = StdRng::seed_from_u64(config.seed ^ FAULT_SEED_SALT);
    let tile_ids: Vec<TileId> = platform.tiles().map(|(id, _)| id).collect();
    let link_ids: Vec<LinkId> = platform.links().map(|(id, _)| id).collect();
    let schedule_fault = |fault_rng: &mut StdRng, queue: &mut EventQueue, now: SimTime| {
        let Some(faults) = &config.faults else {
            return;
        };
        let gap = exponential_ticks(fault_rng, faults.mttf);
        let event = if !link_ids.is_empty() && fault_rng.random_bool(0.5) {
            SimEvent::LinkFail {
                link: link_ids[fault_rng.random_range(0..link_ids.len())],
            }
        } else {
            SimEvent::TileFail {
                tile: tile_ids[fault_rng.random_range(0..tile_ids.len())],
            }
        };
        queue.push(now.saturating_add(gap), event);
    };
    schedule_fault(&mut fault_rng, &mut queue, 0);

    let mut end_time: SimTime = 0;
    while let Some((now, event)) = queue.pop() {
        if let Some(horizon) = config.horizon {
            if now > horizon {
                end_time = horizon;
                break;
            }
        }
        end_time = now;
        metrics.advance_with(now, manager.running_energy_pj(), || manager.utilization());
        // Set by the two events that can get an instance in.
        let mut admitted: Option<(InstanceId, AppHandle)> = None;
        match event {
            SimEvent::Arrival {
                instance,
                catalog_index,
            } => {
                // Arrivals are chained: processing one schedules the next.
                schedule_arrival(&mut rng, &mut queue, &mut scheduled_arrivals, now);
                metrics.arrival(|| manager.state().any_failed());
                let CatalogEntry { name, spec, .. } = &catalog.entries()[catalog_index];
                match manager.start(spec.clone()) {
                    Ok(handle) => {
                        let outcome = &manager.get(handle).expect("just admitted").outcome;
                        metrics.admitted(Attempt::Arrival, name, outcome, manager.n_running());
                        admitted = Some((instance, handle));
                    }
                    // The retry at the same instant decides whether this
                    // arrival is blocked or recovered.
                    Err(err @ AdmissionError::Rejected(_)) if config.reconfiguration.is_some() => {
                        metrics.deferred(&err);
                        queue.push(
                            now,
                            SimEvent::Reconfigure {
                                instance,
                                catalog_index,
                            },
                        );
                    }
                    Err(err @ AdmissionError::Rejected(_)) => {
                        metrics.refused(Attempt::Arrival, &err)
                    }
                    Err(fatal) => return Err(fatal.into()),
                }
            }
            SimEvent::Reconfigure {
                instance,
                catalog_index,
            } => {
                let policy = config
                    .reconfiguration
                    .as_ref()
                    .expect("Reconfigure events are only scheduled with a policy");
                let CatalogEntry { name, spec, .. } = &catalog.entries()[catalog_index];
                match manager.start_with_reconfiguration(spec.clone(), policy) {
                    Ok(done) => {
                        let outcome = &manager.get(done.handle).expect("just admitted").outcome;
                        metrics.recovered(name, outcome, manager.n_running(), &done);
                        admitted = Some((instance, done.handle));
                    }
                    Err(failure) if matches!(failure.error, AdmissionError::CommitFailed(_)) => {
                        return Err(RuntimeError::Admission(failure.error));
                    }
                    Err(failure) => metrics.retry_failed(&failure, || manager.state().any_failed()),
                }
            }
            SimEvent::Departure { instance } => {
                // Stale departures (instance already left at a blocked
                // mode switch) are ignored.
                if let Some(handle) = handles.remove(&instance) {
                    manager.stop(handle)?;
                    metrics.departed();
                }
            }
            SimEvent::ModeSwitch { instance } => {
                let Some(&handle) = handles.get(&instance) else {
                    continue; // the instance already left
                };
                metrics.switch_attempt();
                let CatalogEntry { name, spec, .. } = &catalog.entries()[catalog.sample(&mut rng)];
                // Under a reconfiguration policy the switch is
                // transactional: a refused one leaves the instance running
                // under its old configuration. Plain runs stop, then
                // readmit: a refused switch evicts the instance, and its
                // pending departure becomes stale.
                let switched = if config.reconfiguration.is_some() {
                    manager.switch(handle, spec.clone()).map(|_| handle)
                } else {
                    handles.remove(&instance);
                    manager.stop(handle)?;
                    manager.start(spec.clone()).map_err(RuntimeError::from)
                };
                match switched {
                    Ok(handle) => {
                        let outcome = &manager.get(handle).expect("just switched").outcome;
                        metrics.admitted(Attempt::Switch, name, outcome, manager.n_running());
                        handles.insert(instance, handle);
                    }
                    Err(RuntimeError::Admission(err @ AdmissionError::Rejected(_))) => {
                        metrics.refused(Attempt::Switch, &err);
                    }
                    Err(fatal) => return Err(fatal),
                }
            }
            ev @ (SimEvent::TileFail { .. } | SimEvent::LinkFail { .. }) => {
                // Faults are chained like arrivals, but the chain stops
                // with the arrival process so the queue can drain.
                if scheduled_arrivals < config.arrivals {
                    schedule_fault(&mut fault_rng, &mut queue, now);
                }
                let failure = match ev {
                    SimEvent::TileFail { tile } => FailureEvent::Tile(tile),
                    SimEvent::LinkFail { link } => FailureEvent::Link(link),
                    _ => unreachable!("the outer pattern admits only failures"),
                };
                if manager.is_failed(failure) {
                    // Drawn for an already-quarantined resource: a repair
                    // is pending; injecting again would double-repair.
                    continue;
                }
                let faults = config
                    .faults
                    .as_ref()
                    .expect("failure events are only scheduled with faults configured");
                let evacuation = manager.evacuate(failure, &faults.evacuation)?;
                // Evicted instances leave; their scheduled departures (and
                // mode switches) become stale and are ignored.
                handles.retain(|_, h| !evacuation.evicted.contains(h));
                metrics.evacuated(&evacuation);
                queue.push(
                    now.saturating_add(faults.mttr),
                    SimEvent::Repair { failure },
                );
            }
            SimEvent::Repair { failure } => {
                manager.repair(failure);
                metrics.repaired();
            }
        }
        if let Some((instance, handle)) = admitted {
            handles.insert(instance, handle);
            let holding = config.holding.draw(&mut rng);
            queue.push(
                now.saturating_add(holding),
                SimEvent::Departure { instance },
            );
            // A switch, if any, lands strictly before the departure, so the
            // ordering never races.
            if holding >= 2 && rng.random_bool(config.mode_switch_probability) {
                let at = now.saturating_add(rng.random_range(1..holding));
                queue.push(at, SimEvent::ModeSwitch { instance });
            }
        }
    }

    // Teardown: account the tail interval, then release whatever the
    // horizon cut off mid-run.
    metrics.advance_with(end_time, manager.running_energy_pj(), || {
        manager.utilization()
    });
    let final_running = manager.n_running() as u64;
    manager.stop_all().map_err(|e| e.error)?;
    let ledger_idle_at_end = manager.utilization().is_idle();
    let report = metrics.finish(
        manager.algorithm().name(),
        config.seed,
        final_running,
        ledger_idle_at_end,
    );
    Ok(SimRun { report })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtsm_core::SpatialMapper;
    use rtsm_platform::paper::paper_platform;
    use rtsm_platform::TileKind;

    fn small_config(seed: u64) -> SimConfig {
        SimConfig {
            seed,
            arrivals: 200,
            ..SimConfig::default()
        }
    }

    #[test]
    fn conservation_laws_hold() {
        let run = run_sim(
            &paper_platform(),
            SpatialMapper::default(),
            &Catalog::hiperlan2(),
            &small_config(42),
        )
        .expect("simulation never breaks its own ledger");
        let r = &run.report;
        assert_eq!(r.arrivals, 200);
        assert_eq!(r.admitted + r.blocked, r.arrivals);
        assert!(
            r.departures <= r.admitted,
            "departures never exceed admissions"
        );
        // Every admitted instance either departed naturally or left at a
        // blocked mode switch (queue drained, horizon unset).
        assert_eq!(r.departures + r.mode_switch_blocked, r.admitted);
        assert_eq!(r.final_running, 0);
        assert!(r.ledger_idle_at_end);
        assert_eq!(
            r.rejection_histogram.values().sum::<u64>(),
            r.blocked + r.mode_switch_blocked
        );
        assert!(r.peak_running >= 1);
        assert!(r.end_time > 0);
        assert_eq!(r.samples.first().map(|s| s.time), Some(0));
    }

    #[test]
    fn horizon_cuts_and_stop_all_tears_down() {
        let config = SimConfig {
            horizon: Some(5_000),
            arrivals: 10_000,
            ..small_config(7)
        };
        let run = run_sim(
            &paper_platform(),
            SpatialMapper::default(),
            &Catalog::hiperlan2(),
            &config,
        )
        .unwrap();
        assert!(run.report.end_time <= 5_000);
        assert!(
            run.report.arrivals < 10_000,
            "the horizon cut arrivals short"
        );
        assert!(run.report.ledger_idle_at_end, "stop_all drains the ledger");
    }

    #[test]
    fn same_seed_same_report() {
        let mk = || {
            run_sim(
                &paper_platform(),
                SpatialMapper::default(),
                &Catalog::hiperlan2(),
                &small_config(9),
            )
            .unwrap()
            .report
        };
        assert_eq!(mk(), mk());
    }

    #[test]
    fn different_seeds_differ() {
        let mk = |seed| {
            run_sim(
                &paper_platform(),
                SpatialMapper::default(),
                &Catalog::hiperlan2(),
                &small_config(seed),
            )
            .unwrap()
            .report
        };
        assert_ne!(mk(1), mk(2), "distinct seeds should produce distinct runs");
    }

    #[test]
    fn fault_injection_is_deterministic_and_conserves_instances() {
        let faults = |mttf, mttr| {
            Some(FaultConfig {
                mttf,
                mttr,
                evacuation: EvacuationPolicy,
            })
        };
        let mesh = rtsm_workloads::mesh_platform(
            42,
            4,
            4,
            &[
                (TileKind::Montium, 4),
                (TileKind::Arm, 4),
                (TileKind::Dsp, 2),
            ],
        );
        let rows = [
            (
                paper_platform(),
                Catalog::hiperlan2(),
                SimConfig {
                    faults: faults(3_000, 2_000),
                    ..small_config(2008)
                },
            ),
            // The mixed DSP catalog on a heterogeneous mesh, where an
            // evacuation has real alternatives to choose between.
            (
                mesh,
                Catalog::mixed_dsp(),
                SimConfig {
                    arrivals: 300,
                    faults: faults(10_000, 3_000),
                    ..small_config(2008)
                },
            ),
        ];
        for (platform, catalog, config) in &rows {
            let mk = || {
                run_sim(platform, SpatialMapper::default(), catalog, config)
                    .expect("fault recovery never breaks the ledger")
                    .report
            };
            let report = mk();
            assert_eq!(report, mk(), "same seed, same fault-injected report");
            let s = report.survivability.as_ref().expect("faults were enabled");
            assert!(
                s.tile_failures + s.link_failures > 0,
                "an MTTF far below the run length injects failures"
            );
            assert_eq!(
                s.repairs,
                s.tile_failures + s.link_failures,
                "every injected failure is repaired before the queue drains"
            );
            assert!(s.apps_evacuated > 0, "evacuation relocates some victim");
            let mttr = config.faults.as_ref().expect("set above").mttr;
            assert_eq!(s.mean_recovery_ticks, mttr, "repair time is fixed");
            assert_eq!(
                s.degraded_arrivals + s.healthy_arrivals,
                report.arrivals,
                "every arrival is classified into exactly one regime"
            );
            assert_eq!(
                s.degraded_blocked + s.healthy_blocked,
                report.blocked,
                "every definitive blocking is classified too"
            );
            // Instance conservation with the new terminal outcome: admitted
            // instances depart, leave at a blocked mode switch, or are
            // evicted by an evacuation that could not re-place them.
            assert_eq!(
                report.departures + report.mode_switch_blocked + s.apps_evicted,
                report.admitted
            );
            assert_eq!(report.final_running, 0);
            assert!(
                report.ledger_idle_at_end,
                "failure/repair cycles leak no slots or bandwidth"
            );
        }
    }

    #[test]
    fn faults_disabled_reports_never_mention_survivability() {
        let run = run_sim(
            &paper_platform(),
            SpatialMapper::default(),
            &Catalog::hiperlan2(),
            &small_config(2008),
        )
        .unwrap();
        assert!(run.report.survivability.is_none());
        let json = serde_json::to_string(&run.report).expect("serialize");
        assert!(!json.contains("survivability"));
    }

    #[test]
    #[should_panic(expected = "catalog must not be empty")]
    fn empty_catalog_panics() {
        let _ = run_sim(
            &paper_platform(),
            SpatialMapper::default(),
            &Catalog::new(),
            &SimConfig::default(),
        );
    }
}
