//! Properties of the discrete-event simulator: seeded runs are exactly
//! reproducible, conservation laws hold between arrivals, admissions, and
//! departures, and the shared ledger always drains back to empty.

use proptest::prelude::*;
use rtsm::core::{MappingAlgorithm, SpatialMapper};
use rtsm::platform::paper::paper_platform;
use rtsm::sim::{run_sim, ArrivalProcess, Catalog, HoldingTime, SimConfig, SimReport, SimRun};

fn config(seed: u64, arrivals: u64) -> SimConfig {
    SimConfig {
        seed,
        arrivals,
        arrival_process: ArrivalProcess::Poisson { mean_gap: 400 },
        holding: HoldingTime::Exponential { mean: 1500 },
        mode_switch_probability: 0.2,
        sample_interval: 5000,
        horizon: None,
        reconfiguration: None,
        track_fragmentation: false,
        faults: None,
    }
}

/// The 4×4 mesh the mixed-DSP catalog runs on, from the table `simulate
/// --catalog mixed` and `experiment` resolve it through.
fn mixed_mesh(seed: u64) -> rtsm::platform::Platform {
    rtsm::exp::resolve_catalog("mixed", seed)
        .expect("a registered catalog")
        .platform
}

fn run_for(seed: u64, arrivals: u64) -> SimRun {
    run_sim(
        &paper_platform(),
        SpatialMapper::default(),
        &Catalog::hiperlan2(),
        &config(seed, arrivals),
    )
    .expect("the simulation never breaks its own ledger")
}

fn report_for(seed: u64, arrivals: u64) -> SimReport {
    run_for(seed, arrivals).report
}

proptest! {
    // 6 cases keep dev-profile CI time reasonable: each case runs two
    // full ~60-arrival simulations.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Same seed ⇒ identical result — everything `run_sim` returns, not
    /// only the report in it — down to the serialized bytes.
    #[test]
    fn seeded_simulation_is_deterministic(seed in 0u64..1000) {
        let a = run_for(seed, 60);
        let b = run_for(seed, 60);
        prop_assert!(a == b, "runs for seed {seed} differ structurally");
        let json_a = serde_json::to_string(&a.report).expect("serialize");
        let json_b = serde_json::to_string(&b.report).expect("serialize");
        prop_assert!(json_a == json_b, "serialized reports for seed {seed} differ");
    }

    /// Departures never exceed admissions, every arrival is accounted for,
    /// and after draining the ledger is exactly empty again.
    #[test]
    fn conservation_and_drain(seed in 0u64..1000) {
        let report = report_for(seed, 60);
        prop_assert_eq!(report.arrivals, 60);
        prop_assert_eq!(report.admitted + report.blocked, report.arrivals);
        prop_assert!(report.departures <= report.admitted);
        prop_assert_eq!(
            report.departures + report.mode_switch_blocked,
            report.admitted,
            "each admitted instance departs or leaves at a blocked switch (seed {})", seed
        );
        prop_assert_eq!(report.final_running, 0);
        prop_assert!(report.ledger_idle_at_end, "ledger must drain empty (seed {})", seed);
    }
}

/// The acceptance scenario in miniature: one seed, every algorithm in
/// the `rtsm::exp::ALGORITHMS` registry, identical bytes on re-run, and
/// a report with blocking probability, utilization-over-time, and energy
/// totals for each.
#[test]
fn all_registered_algorithms_run_deterministically() {
    for entry in &rtsm::exp::ALGORITHMS {
        let (label, make) = (entry.name, entry.build);
        let run = |algorithm: Box<dyn MappingAlgorithm>| {
            run_sim(
                &paper_platform(),
                algorithm,
                &Catalog::hiperlan2(),
                &config(2008, 40),
            )
            .expect("simulation never breaks its own ledger")
            .report
        };
        let first = run(make());
        let second = run(make());
        assert_eq!(
            serde_json::to_string(&first).unwrap(),
            serde_json::to_string(&second).unwrap(),
            "algorithm `{label}` must be deterministic under the same seed"
        );
        assert!(first.end_time > 0);
        assert!(!first.samples.is_empty(), "utilization-over-time recorded");
        assert!(first.ledger_idle_at_end);
    }
}

/// A mixed-DSP workload on a 4×4 mesh exercises real concurrency (several
/// applications resident at once) and per-application admission counts.
#[test]
fn mixed_workload_on_a_mesh_platform() {
    let platform = mixed_mesh(7);
    let report = run_sim(
        &platform,
        SpatialMapper::default(),
        &Catalog::mixed_dsp(),
        &SimConfig {
            arrivals: 120,
            ..config(11, 120)
        },
    )
    .unwrap()
    .report;
    assert!(report.peak_running >= 2, "a mesh carries concurrent apps");
    assert!(
        report.admitted_by_app.len() >= 2,
        "several catalog entries admitted"
    );
    assert!(report.ledger_idle_at_end);
}

/// The same mesh at a load it can carry (Poisson gap 2 000), with the
/// template library in front of the mapper and without: templates change
/// what an admission costs, never which arrivals are admitted, and at
/// steady state more than half the lookups hit.
#[test]
fn templates_keep_mixed_workload_decisions_and_mostly_hit() {
    use rtsm::core::{MapperConfig, TemplatedMapper};
    let platform = mixed_mesh(42);
    let config = SimConfig {
        seed: 2008,
        arrivals: 1000,
        arrival_process: ArrivalProcess::Poisson { mean_gap: 2000 },
        ..SimConfig::default()
    };
    let mapper = SpatialMapper::new(MapperConfig::default().without_capture());
    let off = run_sim(&platform, &mapper, &Catalog::mixed_dsp(), &config)
        .unwrap()
        .report;
    let templated = TemplatedMapper::new(mapper);
    let on = run_sim(&platform, &templated, &Catalog::mixed_dsp(), &config)
        .unwrap()
        .report;
    assert_eq!((on.admitted, on.blocked), (off.admitted, off.blocked));
    let stats = templated.stats();
    let hit_permille = stats.hits * 1000 / (stats.hits + stats.misses);
    assert!(hit_permille >= 500, "{hit_permille}‰ ({stats:?})");
}

/// The acceptance scenario for reconfiguration: at the same seed, the
/// mixed workload's blocking probability is *strictly lower* with
/// reconfiguration than without, the recovered-admission counters are
/// populated and deterministic, and the ledger still drains to idle.
#[test]
fn reconfiguration_strictly_lowers_mixed_workload_blocking() {
    use rtsm::core::ReconfigurationPolicy;
    let platform = mixed_mesh(42);
    let base = SimConfig {
        seed: 2008,
        arrivals: 300,
        ..SimConfig::default()
    };
    let plain = run_sim(
        &platform,
        SpatialMapper::default(),
        &Catalog::mixed_dsp(),
        &base,
    )
    .unwrap()
    .report;
    let with_reconfig = || {
        run_sim(
            &platform,
            SpatialMapper::default(),
            &Catalog::mixed_dsp(),
            &SimConfig {
                reconfiguration: Some(ReconfigurationPolicy::default()),
                track_fragmentation: true,
                ..base.clone()
            },
        )
        .unwrap()
        .report
    };
    let reconfigured = with_reconfig();
    assert!(plain.reconfiguration.is_none());
    let counters = reconfigured
        .reconfiguration
        .clone()
        .expect("counters present");
    assert!(
        counters.admissions_recovered > 0,
        "the mixed workload must recover admissions: {counters:?}"
    );
    assert!(
        reconfigured.blocking_permille < plain.blocking_permille,
        "blocking must be strictly lower with reconfiguration \
         ({} vs {})",
        reconfigured.blocking_permille,
        plain.blocking_permille
    );
    assert!(reconfigured.ledger_idle_at_end);
    // Deterministic down to the serialized bytes.
    assert_eq!(
        serde_json::to_string(&reconfigured).unwrap(),
        serde_json::to_string(&with_reconfig()).unwrap()
    );
}

/// A horizon cuts the run short; `stop_all` still drains the ledger and
/// the report records who was running at the cut.
#[test]
fn horizon_teardown_uses_stop_all() {
    let report = run_sim(
        &paper_platform(),
        SpatialMapper::default(),
        &Catalog::hiperlan2(),
        &SimConfig {
            horizon: Some(20_000),
            ..config(5, 10_000)
        },
    )
    .unwrap()
    .report;
    assert!(report.end_time <= 20_000);
    assert!(report.arrivals < 10_000);
    assert!(report.ledger_idle_at_end);
}
