//! The cardinal observability invariant: probes observe, they never
//! steer. A simulation run with a recording probe installed must produce
//! a [`SimReport`] byte-identical to the un-probed run, for every
//! algorithm and any seed. Alongside it: the flight-recorder ring stays
//! bounded and balanced, the Chrome trace export is well-formed, and
//! latency histograms read their percentiles in order.

use proptest::prelude::*;
use rtsm::core::{MappingAlgorithm, SpatialMapper};
use rtsm::obs::{self, FlightRecorder, LatencyHistogram, SpanLatencyProbe};
use rtsm::platform::paper::paper_platform;
use rtsm::sim::{run_sim, ArrivalProcess, Catalog, HoldingTime, SimConfig};
use std::rc::Rc;

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

type MakeAlgorithm = fn() -> Box<dyn MappingAlgorithm>;

/// Every registered algorithm, straight from the registry the CLIs use.
fn all_algorithms() -> Vec<(&'static str, MakeAlgorithm)> {
    rtsm::exp::ALGORITHMS
        .iter()
        .map(|entry| (entry.name, entry.build))
        .collect()
}

/// Serialized report for one run; when `probe` is given it observes the
/// whole run through the thread-local slot.
fn report_json(make: MakeAlgorithm, seed: u64, probe: Option<Rc<dyn obs::Probe>>) -> String {
    let _guard = probe.map(obs::install);
    let run = run_sim(
        &paper_platform(),
        make(),
        &Catalog::hiperlan2(),
        &config(seed, 40),
    )
    .expect("simulation never breaks its own ledger");
    serde_json::to_string(&run.report).expect("reports serialize")
}

proptest! {
    // Each case runs two full 40-arrival simulations per registered
    // algorithm (probed and bare), so keep the case count small.
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The cardinal invariant: a recording probe on the hot path leaves
    /// every deterministic report byte for byte unchanged, for every
    /// registered algorithm.
    #[test]
    fn recording_probe_never_changes_the_report(seed in 0u64..1000) {
        for (label, make) in all_algorithms() {
            let recorder = Rc::new(FlightRecorder::new(1 << 16));
            let probed = report_json(make, seed, Some(recorder.clone()));
            let bare = report_json(make, seed, None);
            prop_assert!(
                probed == bare,
                "algorithm `{label}` seed {seed}: report changed under observation"
            );
            prop_assert!(
                !recorder.is_empty(),
                "algorithm `{label}` seed {seed}: the probe saw no events"
            );
            prop_assert_eq!(
                recorder.balance_errors(),
                0,
                "algorithm `{}` seed {}: unbalanced span events",
                label,
                seed
            );
        }
    }

    /// The ring never exceeds its capacity; once full it reports drops
    /// instead of growing, and the Chrome export still emits only
    /// balanced begin/end pairs.
    #[test]
    fn flight_recorder_ring_stays_bounded(seed in 0u64..1000, capacity in 8usize..200) {
        let recorder = Rc::new(FlightRecorder::new(capacity));
        {
            let _guard = obs::install(recorder.clone() as Rc<dyn obs::Probe>);
            run_sim(
                &paper_platform(),
                SpatialMapper::default(),
                &Catalog::hiperlan2(),
                &config(seed, 30),
            )
            .expect("simulation never breaks its own ledger");
        }
        prop_assert!(recorder.len() <= recorder.capacity());
        prop_assert!(recorder.dropped() > 0, "30 arrivals overflow a {capacity}-slot ring");
        let trace = recorder.chrome_trace_json();
        let begins = trace.matches("\"ph\":\"B\"").count();
        let ends = trace.matches("\"ph\":\"E\"").count();
        prop_assert_eq!(begins, ends, "exported trace must pair every begin with an end");
    }

    /// Whatever was recorded, the percentiles come in order between the
    /// extremes.
    #[test]
    fn histogram_percentiles_are_ordered(samples in collection::vec(1u64..1_000_000_000, 1..120)) {
        let mut whole = LatencyHistogram::new();
        for &ns in &samples {
            whole.record_ns(ns);
        }
        prop_assert_eq!(whole.count(), samples.len() as u64);
        prop_assert!(whole.p50_ns() <= whole.p90_ns());
        prop_assert!(whole.p90_ns() <= whole.p99_ns());
        prop_assert!(whole.p99_ns() <= whole.max_ns());
        prop_assert!(whole.min_ns() <= whole.mean_ns());
        prop_assert!(whole.mean_ns() <= whole.max_ns());
    }
}

/// The per-span latency probe sees every mapper step of every admission
/// attempt the report counts: on a plain run each arrival and each mode
/// switch is one `start`, and every `start` maps.
#[test]
fn span_latency_probe_counts_every_admission_attempt() {
    let probe = Rc::new(SpanLatencyProbe::new());
    let run = {
        let _guard = obs::install(probe.clone() as Rc<dyn obs::Probe>);
        run_sim(
            &paper_platform(),
            SpatialMapper::default(),
            &Catalog::hiperlan2(),
            &config(2008, 60),
        )
        .expect("simulation never breaks its own ledger")
    };
    let admissions = probe.histogram(obs::Span::Admission).count();
    assert_eq!(
        admissions,
        run.report.arrivals + run.report.mode_switch_attempts
    );
    assert!(
        probe.histogram(obs::Span::Map).count() >= admissions,
        "every admission attempt maps"
    );
    for span in [obs::Span::Step1, obs::Span::BufferSizing] {
        assert!(
            probe.histogram(span).count() > 0,
            "span {} never fired",
            span.name()
        );
    }
    // Only a mapping signature this thread has not met runs the sizing
    // search; every other step 4 is one memo hit and opens no such span.
    let step4 = probe.histogram(obs::Span::Step4).count();
    let searched = probe.histogram(obs::Span::BufferSizing).count();
    assert!(searched < step4, "{searched} of {step4}");
    assert!(probe.counter_total(obs::Counter::BufferMemoHit) >= step4 - searched);
}

/// Every spec of every registered catalog, mapped alone on its empty
/// platform by a fresh thread — the step-4 memo is per thread, so each map
/// is a cold one — with what the dataflow layer counted meanwhile:
/// `(catalog, spec, [CsdfRun, BufferProbe, BufferMemoHit,
/// BufferProbeCycleRefuted, BufferProbeCutoff])`.
fn cold_map_counts() -> Vec<(&'static str, String, [u64; 5])> {
    let mut counts = Vec::new();
    for name in rtsm::exp::VALID_CATALOGS {
        let resolved = rtsm::exp::resolve_catalog(name, 42).expect("registered catalog");
        for entry in resolved.catalog.entries() {
            let (spec, platform) = (entry.spec.clone(), resolved.platform.clone());
            let counted = std::thread::spawn(move || {
                let probe = Rc::new(SpanLatencyProbe::new());
                let _guard = obs::install(probe.clone() as Rc<dyn obs::Probe>);
                SpatialMapper::default()
                    .map(&spec, &platform, &platform.initial_state())
                    .expect("every catalog spec maps alone");
                assert_eq!(
                    probe.histogram(obs::Span::BufferSizing).count(),
                    1,
                    "one span brackets the whole cold search"
                );
                [
                    obs::Counter::CsdfRun,
                    obs::Counter::BufferProbe,
                    obs::Counter::BufferMemoHit,
                    obs::Counter::BufferProbeCycleRefuted,
                    obs::Counter::BufferProbeCutoff,
                ]
                .map(|counter| probe.counter_total(counter))
            })
            .join()
            .expect("mapping does not panic");
            counts.push((name, entry.name.clone(), counted));
        }
    }
    counts
}

/// The capacities in the golden fixtures are searched, not cut off: while
/// every spec of every catalog is mapped cold on its empty platform, no
/// feasibility probe runs into the simulator's firing guard (which the
/// search would read as "infeasible", inflating a buffer).
#[test]
fn no_buffer_probe_is_cut_off_while_the_catalogs_are_mapped_cold() {
    for (_, spec, [_, probes, _, _, cutoffs]) in cold_map_counts() {
        assert!(probes > 0, "`{spec}` was not mapped cold");
        assert_eq!(cutoffs, 0, "`{spec}`: a probe was cut off");
    }
}

/// What a cold map costs, as counts — which repeat exactly, where a timing
/// does not. `CsdfRun` is every self-timed simulation of the map (the
/// sizing search's probes and its pilot; no catalog spec bounds latency),
/// `BufferProbe` the probes among them, `BufferMemoHit` the probes the
/// search answered from its table, refutations by dominance included, and
/// `BufferProbeCycleRefuted` the probes the cycle test stopped short of
/// their recurrence — a stopped run is still one `CsdfRun`, and a resumed
/// one is not a second. Next to them, the `CsdfRun` of the search before it
/// asked the floors first: it may never cost more.
#[test]
fn a_cold_map_runs_a_pinned_number_of_simulations() {
    // In `VALID_CATALOGS` order: the seven HIPERLAN/2 modes on the paper
    // platform, the mixed five, the six synthetic chains, the defrag pair.
    const PINS: [([u64; 4], u64); 20] = [
        ([4, 3, 1, 1], 9),
        ([4, 3, 1, 1], 9),
        ([4, 3, 1, 1], 9),
        ([4, 3, 1, 1], 9),
        ([4, 3, 1, 1], 9),
        ([4, 3, 1, 1], 9),
        ([4, 3, 1, 1], 9),
        ([1, 1, 0, 0], 2),
        ([1, 1, 0, 0], 2),
        ([1, 1, 0, 0], 2),
        ([1, 1, 0, 0], 2),
        ([1, 1, 0, 0], 9),
        ([1, 1, 0, 0], 12),
        ([1, 1, 0, 0], 12),
        ([11, 10, 0, 4], 22),
        ([11, 10, 0, 0], 27),
        ([18, 17, 0, 6], 29),
        ([1, 1, 0, 0], 8),
        ([1, 1, 0, 0], 2),
        ([1, 1, 0, 0], 2),
    ];
    let counts = cold_map_counts();
    assert_eq!(
        counts.len(),
        PINS.len(),
        "every registered catalog is pinned"
    );
    for ((catalog, spec, counted), (now, before)) in counts.iter().zip(PINS) {
        assert_eq!(counted[..4], now, "`{catalog}` / `{spec}`");
        assert!(counted[0] <= before, "`{catalog}` / `{spec}`");
    }
}

/// The two refusal-path counters fire only under a probe, say why an
/// arrival was blocked, and leave the report alone: on an overloaded mixed
/// mesh behind the template library, shapes are passed over for want of
/// compute slots and step 1 dead-ends, yet the probed report — template
/// section included — is the bare one byte for byte.
#[test]
fn refusal_counters_tell_capacity_blocks_apart_without_moving_the_report() {
    use rtsm::core::TemplatedMapper;
    use rtsm::sim::TemplateReport;
    let resolved = rtsm::exp::resolve_catalog("mixed", 42).expect("registered catalog");
    let run = |probe: Option<Rc<dyn obs::Probe>>| {
        let _guard = probe.map(obs::install);
        let templated = TemplatedMapper::new(SpatialMapper::default());
        let mut report = run_sim(
            &resolved.platform,
            &templated,
            &resolved.catalog,
            &config(2008, 200),
        )
        .expect("simulation never breaks its own ledger")
        .report;
        report.templates = Some(TemplateReport::from_stats(
            templated.stats(),
            rtsm::core::template::DEFAULT_SHAPE_CAP,
        ));
        assert!(report.blocked > 0, "the mesh is overloaded at this gap");
        serde_json::to_string(&report).expect("reports serialize")
    };
    let probe = Rc::new(SpanLatencyProbe::new());
    assert_eq!(run(Some(probe.clone())), run(None));

    let dead_ends = probe.counter_total(obs::Counter::Step1DeadEnd);
    let attempts = probe.histogram(obs::Span::Step1).count();
    assert!(
        dead_ends > 0 && dead_ends < attempts,
        "{dead_ends} of {attempts}"
    );
    assert!(probe.counter_total(obs::Counter::TemplateShapeSkipped) > 0);
    assert!(
        probe.counter_total(obs::Counter::TemplateMiss) > 0,
        "a lookup whose shapes were all skipped is still a miss"
    );
}

/// The golden recover command line (`simulate --seed 2008 --arrivals 500
/// --catalog mixed --algorithm paper --templates --faults --mttf 10000
/// --mttr 3000 --reconfigure`) under a probe: the probe's `template_miss`
/// total is the report's `templates.misses`, and the two counters of the
/// retry path account, one for one, for every lookup it no longer makes —
/// at PR 20 each retry recomputed the refusal it was called about and every
/// plan placement asked the algorithm, and `misses` read 1 279. Every plan,
/// ruled out or not, is still one `PlanEval` span.
#[test]
fn the_retry_counters_account_for_the_lookups_no_longer_made() {
    use rtsm::core::ReconfigurationPolicy;
    use rtsm::sim::FaultConfig;
    const MISSES_WHEN_EVERY_RETRY_RECOMPUTED: u64 = 1279;
    let config = SimConfig {
        seed: 2008,
        arrivals: 500,
        arrival_process: ArrivalProcess::Poisson { mean_gap: 500 },
        holding: HoldingTime::Exponential { mean: 2000 },
        mode_switch_probability: 0.1,
        sample_interval: 10_000,
        horizon: None,
        reconfiguration: Some(ReconfigurationPolicy::default()),
        track_fragmentation: true,
        faults: Some(FaultConfig {
            mttf: 10_000,
            mttr: 3_000,
            ..FaultConfig::default()
        }),
    };
    let probe = Rc::new(SpanLatencyProbe::new());
    let report = {
        let _guard = obs::install(probe.clone() as Rc<dyn obs::Probe>);
        rtsm::exp::run_algorithm(
            &rtsm::exp::resolve_catalog("mixed", 42).expect("registered catalog"),
            rtsm::exp::make_algorithm("paper").expect("registered algorithm"),
            Some(rtsm::core::template::DEFAULT_SHAPE_CAP),
            &config,
        )
        .report
    };
    let misses = report.templates.expect("templates were on").misses;
    assert_eq!(probe.counter_total(obs::Counter::TemplateMiss), misses);
    let replayed = probe.counter_total(obs::Counter::RefusalReplayed);
    let ruled_out = probe.counter_total(obs::Counter::PlacementRuledOut);
    println!("misses {misses}: {replayed} refusals replayed, {ruled_out} placements ruled out");
    assert!(replayed > 0 && ruled_out > 0);
    assert_eq!(
        MISSES_WHEN_EVERY_RETRY_RECOMPUTED - misses,
        replayed + ruled_out,
        "{replayed} refusals replayed, {ruled_out} placements ruled out"
    );
    let plans_tried = report
        .reconfiguration
        .expect("reconfiguration was on")
        .plans_tried;
    assert_eq!(probe.histogram(obs::Span::PlanEval).count(), plans_tried);
}
