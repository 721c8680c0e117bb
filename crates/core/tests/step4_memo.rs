//! Step 4's memoised analysis from the outside: what a warm thread answers
//! must be exactly what a cold one computes, and a warm answer must run no
//! dataflow simulation at all. (The memory-less oracle for the memo itself
//! is `src/step4/twin.rs`.)

use rtsm_app::hiperlan2::{hiperlan2_receiver, Hiperlan2Mode};
use rtsm_app::ApplicationSpec;
use rtsm_core::cost::CostModel;
use rtsm_core::feedback::Constraints;
use rtsm_core::step1::assign_implementations;
use rtsm_core::step2::improve_assignment;
use rtsm_core::step3::route_channels;
use rtsm_core::step4::{check_constraints, Step4Config, Step4Verdict};
use rtsm_obs::{Counter, SpanLatencyProbe};
use rtsm_platform::paper::paper_platform;
use rtsm_platform::{Platform, TileKind};
use rtsm_workloads::apps::{dvbt_rx, jpeg_encoder, mp3_decoder, wlan_tx};
use rtsm_workloads::mesh_platform;
use std::rc::Rc;

/// Every HIPERLAN/2 mode on the paper platform, then the `mixed` catalog
/// on its 4×4 mesh (platform seed 42, the repo-wide default).
fn cases() -> Vec<(ApplicationSpec, Platform)> {
    let mesh = mesh_platform(
        42,
        4,
        4,
        &[
            (TileKind::Montium, 4),
            (TileKind::Arm, 4),
            (TileKind::Dsp, 2),
        ],
    );
    let mixed = [
        wlan_tx(),
        jpeg_encoder(),
        mp3_decoder(),
        dvbt_rx(),
        hiperlan2_receiver(Hiperlan2Mode::Qpsk34),
    ];
    Hiperlan2Mode::ALL
        .iter()
        .map(|&mode| (hiperlan2_receiver(mode), paper_platform()))
        .chain(mixed.into_iter().map(|spec| (spec, mesh.clone())))
        .collect()
}

/// Steps 1–3 on the empty platform, then step 4 twice on this thread: the
/// first answer, the second answer, and the `(CsdfRun, BufferProbe)`
/// counts of the second call alone.
fn step4_twice(
    spec: &ApplicationSpec,
    platform: &Platform,
) -> (Step4Verdict, Step4Verdict, (u64, u64)) {
    let constraints = Constraints::new();
    let out = assign_implementations(spec, platform, &platform.initial_state(), &constraints)
        .expect("every case fits its empty platform");
    let (mut mapping, mut working) = (out.mapping, out.working);
    improve_assignment(
        spec,
        platform,
        &constraints,
        &mut mapping,
        &mut working,
        &CostModel::HopCount,
    );
    route_channels(spec, platform, &mut mapping, &mut working).expect("routable when empty");
    let check = || check_constraints(spec, platform, &mapping, &working, &Step4Config).verdict;
    let first = check();
    let probe = Rc::new(SpanLatencyProbe::new());
    let second = {
        let _guard = rtsm_obs::install(probe.clone());
        check()
    };
    let counts = (
        probe.counter_total(Counter::CsdfRun),
        probe.counter_total(Counter::BufferProbe),
    );
    (first, second, counts)
}

#[test]
fn warm_cache_answers_equal_cold_ones_and_run_no_simulation() {
    for (spec, platform) in cases() {
        let name = spec.name.clone();
        // The memo is per thread, so a fresh thread starts cold.
        let (cold, warm, (csdf_runs, buffer_probes)) =
            std::thread::spawn(move || step4_twice(&spec, &platform))
                .join()
                .expect("step 4 does not panic");
        assert!(
            cold.feasible,
            "`{name}` is feasible when alone: {:?}",
            cold.feedback
        );
        assert_eq!(cold, warm, "`{name}`: warm answer differs from cold");
        assert_eq!(csdf_runs, 0, "`{name}`: a warm step 4 simulated");
        assert_eq!(buffer_probes, 0, "`{name}`: a warm step 4 probed");
    }
}
