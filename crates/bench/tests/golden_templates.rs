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
//! shortcuts (the cannot-fit certificate, step-1 state carried between
//! refinement attempts) must leave untouched.

use rtsm_core::ReconfigurationPolicy;
use rtsm_exp::{resolve_catalog, run_algorithm};
use rtsm_sim::{ArrivalProcess, FaultConfig, HoldingTime, SimConfig};

#[path = "../../../tests/support/fixture.rs"]
mod fixture;

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

/// One line per registered algorithm, in the `simulate` CLI's emission
/// order — matched positionally, so the fixture grows by exactly one line
/// whenever `rtsm_exp::ALGORITHMS` gains an entry.
fn assert_matches_fixture(catalog: &str, fixture: &str) {
    let resolved = resolve_catalog(catalog, 42).expect("a registered catalog");
    let path = format!(
        "{}/../../tests/golden/{fixture}",
        env!("CARGO_MANIFEST_DIR")
    );
    let golden = std::fs::read_to_string(&path).expect("golden fixture readable");
    let golden: Vec<&str> = golden.lines().collect();
    let config = fixture_config();
    assert_eq!(
        golden.len(),
        rtsm_exp::ALGORITHMS.len(),
        "{fixture} must hold one line per algorithm"
    );
    for (entry, expected) in rtsm_exp::ALGORITHMS.iter().zip(golden) {
        let run = run_algorithm(&resolved, (entry.build)(), false, &config);
        let line = serde_json::to_string(&run.report).expect("reports serialize");
        fixture::assert_matches_fixture(
            &line,
            expected,
            &format!("`{}` with templates off ({fixture})", run.report.algorithm),
        );
    }
}

#[test]
fn seed2008_hiperlan2_reports_match_the_golden_fixture() {
    assert_matches_fixture("hiperlan2", "seed2008_hiperlan2_prepr.jsonl");
}

#[test]
fn seed2008_mixed_reports_match_the_golden_fixture() {
    assert_matches_fixture("mixed", "seed2008_mixed_prepr.jsonl");
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
    let run = run_algorithm(
        &resolve_catalog("mixed", 42).expect("a registered catalog"),
        rtsm_exp::make_algorithm("paper").expect("the paper algorithm is registered"),
        true,
        &config,
    );
    let line = serde_json::to_string(&run.report).expect("reports serialize");
    fixture::assert_matches_fixture(
        &line,
        include_str!("../../../tests/golden/seed2008_mixed_templates_recover.json").trim_end(),
        "the templates/faults/reconfiguration report",
    );
}
