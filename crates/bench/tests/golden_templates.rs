//! The templates-off regression gate: with the template library disabled,
//! the fixed-seed 2008 reports of **every registered** mapping algorithm
//! must stay byte-identical to the golden fixtures
//! (`tests/golden/seed2008_*_prepr.jsonl`), checked line by line so a
//! regression names the exact algorithm and catalog that drifted.
//!
//! And the opposite corner: the paper algorithm with templates, faults and
//! reconfiguration all on must reproduce
//! `tests/golden/seed2008_mixed_templates_recover.json` — the one stored
//! report that carries `evaluated_assignments` of template hits, the
//! library's hit/miss split and the plan counters, which the refusal path's
//! shortcuts (shapes skipped by slot demand, step-1 state carried between
//! refinement attempts) must leave untouched.

use rtsm_core::{MappingAlgorithm, ReconfigurationPolicy, TemplatedMapper};
use rtsm_platform::paper::paper_platform;
use rtsm_platform::{Platform, TileKind};
use rtsm_sim::{
    run_sim, ArrivalProcess, Catalog, FaultConfig, HoldingTime, SimConfig, TemplateReport,
};
use rtsm_workloads::mesh_platform;

/// The registered algorithms in the `simulate` CLI's emission order —
/// golden fixture lines are matched positionally, so the fixture grows by
/// exactly one line whenever `rtsm_exp::ALGORITHMS` gains an entry.
fn algorithms() -> Vec<Box<dyn MappingAlgorithm>> {
    rtsm_exp::ALGORITHMS.iter().map(|e| (e.build)()).collect()
}

/// The exact configuration the fixtures were recorded with: the
/// `simulate` CLI defaults at `--seed 2008 --arrivals 500`.
fn fixture_config() -> SimConfig {
    SimConfig {
        seed: 2008,
        arrivals: 500,
        arrival_process: ArrivalProcess::Poisson { mean_gap: 500 },
        holding: HoldingTime::Exponential { mean: 2000 },
        mode_switch_probability: 0.1,
        sample_interval: 10_000,
        horizon: None,
        reconfiguration: None,
        track_fragmentation: false,
        faults: None,
    }
}

fn assert_matches_fixture(platform: &Platform, catalog: &Catalog, fixture: &str) {
    let path = format!(
        "{}/../../tests/golden/{fixture}",
        env!("CARGO_MANIFEST_DIR")
    );
    let golden = std::fs::read_to_string(&path).expect("golden fixture readable");
    let golden: Vec<&str> = golden.lines().collect();
    let config = fixture_config();
    let algorithms = algorithms();
    assert_eq!(
        golden.len(),
        algorithms.len(),
        "{fixture} must hold one line per algorithm"
    );
    for (algorithm, expected) in algorithms.into_iter().zip(golden) {
        let run = run_sim(platform, &algorithm, catalog, &config)
            .expect("the simulation never breaks its own ledger");
        let line = serde_json::to_string(&run.report).expect("reports serialize");
        assert_eq!(
            line, expected,
            "`{}` drifted from {fixture} with templates off",
            run.report.algorithm
        );
    }
}

#[test]
fn seed2008_hiperlan2_reports_match_the_golden_fixture() {
    assert_matches_fixture(
        &paper_platform(),
        &Catalog::hiperlan2(),
        "seed2008_hiperlan2_prepr.jsonl",
    );
}

fn mixed_mesh() -> Platform {
    mesh_platform(
        42,
        4,
        4,
        &[
            (TileKind::Montium, 4),
            (TileKind::Arm, 4),
            (TileKind::Dsp, 2),
        ],
    )
}

#[test]
fn seed2008_mixed_reports_match_the_golden_fixture() {
    assert_matches_fixture(
        &mixed_mesh(),
        &Catalog::mixed_dsp(),
        "seed2008_mixed_prepr.jsonl",
    );
}

/// `simulate --seed 2008 --arrivals 500 --catalog mixed --algorithm paper
/// --templates --faults --mttf 10000 --mttr 3000 --reconfigure`, as the CLI
/// assembles it.
#[test]
fn seed2008_mixed_templates_faults_reconfigure_report_matches_the_golden_fixture() {
    let config = SimConfig {
        reconfiguration: Some(ReconfigurationPolicy::default()),
        track_fragmentation: true,
        faults: Some(FaultConfig {
            mttf: 10_000,
            mttr: 3_000,
            ..FaultConfig::default()
        }),
        ..fixture_config()
    };
    let paper = rtsm_exp::ALGORITHMS
        .iter()
        .find(|entry| entry.name == "paper")
        .expect("the paper algorithm is registered");
    let cap = rtsm_core::template::DEFAULT_SHAPE_CAP;
    let templated = TemplatedMapper::with_cap((paper.build)(), cap);
    let mut report = run_sim(&mixed_mesh(), &templated, &Catalog::mixed_dsp(), &config)
        .expect("the simulation never breaks its own ledger")
        .report;
    report.templates = Some(TemplateReport::from_stats(templated.stats(), cap));
    let line = serde_json::to_string(&report).expect("reports serialize");
    assert_eq!(
        line,
        include_str!("../../../tests/golden/seed2008_mixed_templates_recover.json").trim_end()
    );
}
