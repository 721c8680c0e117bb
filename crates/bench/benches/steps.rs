//! Per-step cost breakdown of the four-step algorithm on the paper case:
//! where do the <4 ms of §4.5 go?

use criterion::{criterion_group, criterion_main, Criterion};
use rtsm_app::hiperlan2::{hiperlan2_receiver, Hiperlan2Mode};
use rtsm_core::cost::CostModel;
use rtsm_core::feedback::Constraints;
use rtsm_core::step1::assign_implementations;
use rtsm_core::step2::{improve_assignment, Step2Config};
use rtsm_core::step3::route_channels;
use rtsm_core::step4::{check_constraints, Step4Config};
use rtsm_platform::paper::paper_platform;
use std::hint::black_box;

fn steps(c: &mut Criterion) {
    let spec = hiperlan2_receiver(Hiperlan2Mode::Qpsk34);
    let platform = paper_platform();
    let base = platform.initial_state();
    let constraints = Constraints::new();

    c.bench_function("step1/implementations", |b| {
        b.iter(|| {
            let out = assign_implementations(&spec, &platform, &base, &constraints).unwrap();
            black_box(out.mapping.n_assigned())
        })
    });

    let step1 = assign_implementations(&spec, &platform, &base, &constraints).unwrap();
    c.bench_function("step2/local_search", |b| {
        b.iter(|| {
            let mut mapping = step1.mapping.clone();
            let mut working = step1.working.clone();
            let trace = improve_assignment(
                &spec,
                &platform,
                &constraints,
                &mut mapping,
                &mut working,
                &CostModel::HopCount,
                &Step2Config::default(),
            );
            black_box(trace.final_cost)
        })
    });

    // Prepare the improved mapping once for step 3/4 benches.
    let mut mapping = step1.mapping.clone();
    let mut working = step1.working.clone();
    improve_assignment(
        &spec,
        &platform,
        &constraints,
        &mut mapping,
        &mut working,
        &CostModel::HopCount,
        &Step2Config::default(),
    );

    c.bench_function("step3/routing", |b| {
        b.iter(|| {
            let mut m = mapping.clone();
            let mut w = working.clone();
            route_channels(&spec, &platform, &mut m, &mut w).unwrap();
            black_box(m.routes().count())
        })
    });

    let mut routed = mapping.clone();
    let mut routed_state = working.clone();
    route_channels(&spec, &platform, &mut routed, &mut routed_state).unwrap();
    c.bench_function("step4/dataflow_check", |b| {
        b.iter(|| {
            let result = check_constraints(
                &spec,
                &platform,
                &routed,
                &routed_state,
                &Step4Config::default(),
            );
            black_box(result.verdict.feasible)
        })
    });
}

/// Short, stable measurement settings so the whole suite completes in
/// minutes while keeping variance low enough for shape comparisons.
fn config() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(500))
        .measurement_time(std::time::Duration::from_secs(2))
}

criterion_group! {
    name = benches;
    config = config();
    targets = steps
}
criterion_main!(benches);
