//! The binaries' front doors, driven as a user drives them: hostile flag
//! values, flags nothing would read and a hostile spec end in a one-line
//! `error: …` and exit code 2 before anything is simulated, the flags →
//! `SimConfig` translation reproduces a golden fixture byte for byte, and a
//! recorded run writes the same reports plus a well-formed Chrome trace.

use std::collections::BTreeMap;
use std::process::Command;
use std::time::{Duration, Instant};

#[path = "../../../tests/support/fixture.rs"]
mod fixture;

/// Runs `binary` with `args`, requires exit code 2 within a second and a
/// stderr of exactly one `error: …` line, and returns that line.
fn refused_at_the_door(binary: &str, args: &[&str]) -> String {
    let started = Instant::now();
    let output = Command::new(binary).args(args).output().expect("runs");
    let elapsed = started.elapsed();
    let stderr = String::from_utf8(output.stderr).expect("stderr is UTF-8");
    assert_eq!(output.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(
        elapsed < Duration::from_secs(1),
        "{args:?} took {elapsed:?}"
    );
    let lines: Vec<&str> = stderr.lines().collect();
    assert_eq!(lines.len(), 1, "{args:?}: {stderr}");
    assert!(lines[0].starts_with("error: "), "{args:?}: {stderr}");
    stderr
}

/// Runs that would record billions of occupancy samples (the parent
/// binaries aborted on a 2.5 GiB allocation, or spun in the sampling loop)
/// are refused by `rtsm_sim::check_sample_growth`, naming the flags.
#[test]
fn runs_that_outgrow_the_sample_series_are_one_line_errors() {
    let simulate = env!("CARGO_BIN_EXE_simulate");
    for (line, at_fault) in [
        (
            "--mean-gap 1000000000000 --arrivals 50 --algorithm greedy",
            "--mean-gap 1000000000000",
        ),
        (
            "--mean-gap 18446744073709551615",
            "--mean-gap 18446744073709551615",
        ),
        (
            "--mean-hold 18446744073709551615",
            "--mean-hold 18446744073709551615",
        ),
        (
            "--arrivals 50 --faults --mttr 18446744073709551615",
            "--mttr 18446744073709551615",
        ),
    ] {
        let args: Vec<&str> = line.split(' ').collect();
        let stderr = refused_at_the_door(simulate, &args);
        assert!(stderr.contains(at_fault), "names the flag: {stderr}");
    }

    // The same workload as a spec that passes every other validation, and
    // the specs whose expansion, not whose cells, is what goes wrong: 10¹²
    // repeats, a total that does not fit a u64, a catalog listed twice.
    let path = std::env::temp_dir().join(format!("rtsm-hostile-spec-{}.json", std::process::id()));
    for (axes, at_fault) in [
        (
            r#""template":{"arrivals":50},"catalogs":["hiperlan2"],"mean_gaps":[1000000000000],"seeds":[1]"#,
            "mean_gaps entry 1000000000000",
        ),
        (
            r#""template":{"arrivals":5},"catalogs":["hiperlan2"],"mean_gaps":[500],"seeds":[1],"repeats":1000000000000"#,
            "1000000000000 trials",
        ),
        (
            r#""template":{"arrivals":18446744073709551615,"sample_interval":18446744073709551615},"catalogs":["hiperlan2"],"mean_gaps":[500],"seeds":[1,2]"#,
            "add up to 18446744073709551615",
        ),
        (
            r#""template":{"arrivals":5},"catalogs":["hiperlan2","hiperlan2"],"mean_gaps":[500],"seeds":[1]"#,
            "duplicate entry `hiperlan2` in catalogs",
        ),
    ] {
        let spec = format!(
            r#"{{"name":"hostile","algorithms":["greedy"],"policies":[{{"kind":"none"}}],{axes}}}"#
        );
        std::fs::write(&path, spec).expect("temp dir is writable");
        let stderr = refused_at_the_door(
            env!("CARGO_BIN_EXE_experiment"),
            &["--spec", path.to_str().expect("UTF-8 path")],
        );
        assert!(stderr.contains(at_fault), "{stderr}");
    }
    std::fs::remove_file(&path).expect("just written");
}

/// Hostile spec *text* is one short line too: nesting that overflowed the
/// stack, a string whose parse was quadratic, errors that echoed megabytes
/// of the value, a repeated key that was silently read once, a key that no
/// field reads and that was silently passed over, and a megabyte name in an
/// axis or a policy kind, which the spec's own checks used to repeat in
/// full.
#[test]
fn hostile_spec_files_are_short_one_line_errors() {
    let dir = std::env::temp_dir().join(format!("rtsm-hostile-json-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir is writable");
    let nested = |depth| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
    let valid = r#""algorithms":["greedy"],"policies":[{"kind":"none"}],"template":{"arrivals":5},"catalogs":["hiperlan2"],"mean_gaps":[500]"#;
    let long = "x".repeat(1 << 20);
    let with = |algorithm: &str, catalogs: &str, kind: &str| {
        format!(
            r#"{{"name":"d","algorithms":["{algorithm}"],"policies":[{{"kind":"{kind}"}}],"template":{{"arrivals":5}},"catalogs":[{catalogs}],"mean_gaps":[500],"seeds":[1]}}"#
        )
    };
    for (name, spec, at_fault) in [
        (
            "deep",
            nested(200_000),
            "nesting deeper than 128 at byte 128",
        ),
        (
            "accent",
            format!(r#"{{"name":"{}"}}"#, "é".repeat(100_000)),
            "missing field",
        ),
        (
            "deep-name",
            format!(r#"{{"name":{}}}"#, nested(20_000)),
            "nesting deeper than 128",
        ),
        (
            "long-name",
            format!(r#"{{"name":[{}]}}"#, ["1234567"; 200_000].join(",")),
            "expected a string, got a sequence",
        ),
        (
            "repeated-key",
            format!(r#"{{"name":"d",{valid},"seeds":[1],"seeds":[2]}}"#),
            "duplicate key `seeds`",
        ),
        (
            "unread-key",
            with("greedy", r#""hiperlan2""#, r#"none","template_cap":"4"#),
            "unknown key `template_cap`",
        ),
        (
            "long-algorithm",
            with(&long, r#""hiperlan2""#, "none"),
            "unknown algorithm `xxx",
        ),
        (
            "long-catalog",
            with("greedy", &format!(r#""{long}""#), "none"),
            "unknown catalog `xxx",
        ),
        (
            "long-kind",
            with("greedy", r#""hiperlan2""#, &long),
            "unknown policy kind `xxx",
        ),
        (
            "long-duplicate",
            with("greedy", &format!(r#""{long}","{long}""#), "none"),
            "duplicate entry `xxx",
        ),
    ] {
        let path = dir.join(format!("{name}.json"));
        std::fs::write(&path, spec).expect("temp dir is writable");
        let stderr = refused_at_the_door(
            env!("CARGO_BIN_EXE_experiment"),
            &["--spec", path.to_str().expect("UTF-8 path")],
        );
        assert!(stderr.len() <= 256, "{name}: {} bytes", stderr.len());
        assert!(stderr.contains(at_fault), "{name}: {stderr}");
    }
    std::fs::remove_dir_all(&dir).expect("just written");
}

/// A flag that states a parameter no part of the run would read is refused,
/// not ignored: the per-kind rules are `PolicySpec::check_parameters`, the
/// same ones `ExperimentSpec::validate` applies to a spec's policy points.
#[test]
fn flags_nothing_would_read_are_one_line_errors() {
    for (line, at_fault) in [
        ("--policy energy-budget", "--policy requires --reconfigure"),
        ("--lambda 300", "lambda_permille"),
        ("--budget-pj 5", "budget_pj"),
        ("--payback 3", "payback_periods"),
        (
            "--reconfigure --budget-pj 5",
            "budget_pj (read by: energy-budget)",
        ),
        (
            "--reconfigure --policy energy-budget --payback 3",
            "payback_periods (read by: amortized-payback)",
        ),
        ("--mean-gap 0", "--mean-gap is 0"),
        ("--arrivals 0 --algorithm greedy", "--arrivals is 0"),
    ] {
        let args: Vec<&str> = line.split(' ').collect();
        let stderr = refused_at_the_door(env!("CARGO_BIN_EXE_simulate"), &args);
        assert!(stderr.contains(at_fault), "{line}: {stderr}");
    }

    // No report can hold a wall-clock section, the simulator runs one
    // traffic model, and the reconfiguration search's bounds and the
    // template library's cap are constants, so the flags that asked for
    // any of these are usage errors like any other typo.
    let simulate = env!("CARGO_BIN_EXE_simulate");
    let constants = [
        ("--reconfigure --max-migrations 1", "--max-migrations"),
        ("--reconfigure --max-plans 2", "--max-plans"),
        ("--templates --template-cap 4", "--template-cap"),
    ]
    .map(|(line, unknown)| ("simulate", simulate, line, unknown));
    for (binary, path, line, unknown) in constants.into_iter().chain([
        (
            "experiment",
            env!("CARGO_BIN_EXE_experiment"),
            "--spec unread.json --wall",
            "--wall",
        ),
        (
            "simulate",
            env!("CARGO_BIN_EXE_simulate"),
            "--flash-crowd 8",
            "--flash-crowd",
        ),
        (
            "simulate",
            env!("CARGO_BIN_EXE_simulate"),
            "--holding pareto",
            "--holding",
        ),
    ]) {
        let output = Command::new(path)
            .args(line.split(' '))
            .output()
            .expect("runs");
        let stderr = String::from_utf8(output.stderr).expect("stderr is UTF-8");
        assert_eq!(output.status.code(), Some(2), "{line}: {stderr}");
        let lines: Vec<&str> = stderr.lines().collect();
        assert_eq!(
            lines[0],
            format!("error: unknown argument `{unknown}`"),
            "{stderr}"
        );
        assert!(
            lines[1].starts_with(&format!("usage: {binary} ")),
            "{stderr}"
        );
        assert_eq!(lines.len(), 2, "{stderr}");
    }
}

/// One event of a Chrome trace file (`cat` and `args` are not read).
#[derive(serde::Deserialize)]
struct ChromeEvent {
    name: String,
    ph: String,
    #[allow(dead_code)]
    ts: f64,
    #[allow(dead_code)]
    pid: u64,
    tid: u64,
}

#[derive(serde::Deserialize)]
#[allow(non_snake_case)]
struct ChromeTrace {
    traceEvents: Vec<ChromeEvent>,
}

/// Probes are pure observers — a recorded run writes byte-identical
/// reports — and the trace `--trace-out` leaves is what Perfetto expects:
/// parseable, `B`/`E` balanced per lane, every mapper span completed, and
/// one lane per root span.
#[test]
fn a_recorded_run_writes_the_same_reports_and_a_balanced_trace() {
    let dir = std::env::temp_dir().join(format!("rtsm-trace-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir is writable");
    let (plain, probed, trace) = (
        dir.join("plain.jsonl"),
        dir.join("probed.jsonl"),
        dir.join("trace.json"),
    );
    for (out, trace_out) in [(&plain, None), (&probed, Some(&trace))] {
        let mut command = Command::new(env!("CARGO_BIN_EXE_simulate"));
        command
            .args("--seed 2008 --arrivals 300 --algorithm paper --out".split(' '))
            .arg(out);
        if let Some(path) = trace_out {
            command.arg("--trace-out").arg(path);
        }
        let status = command
            .stdout(std::process::Stdio::null())
            .status()
            .expect("simulate runs");
        assert!(status.success(), "{status}");
    }
    let read = |path| std::fs::read_to_string(path).expect("simulate wrote it");
    assert_eq!(read(&plain), read(&probed), "the recorder moved a byte");
    let events = serde_json::from_str::<ChromeTrace>(&read(&trace))
        .expect("a trace of well-formed events")
        .traceEvents;
    std::fs::remove_dir_all(&dir).expect("just written");

    let mut open: BTreeMap<u64, Vec<&str>> = BTreeMap::new();
    let mut completed: BTreeMap<&str, usize> = BTreeMap::new();
    for event in &events {
        let lane = open.entry(event.tid).or_default();
        match event.ph.as_str() {
            "B" => lane.push(&event.name),
            "E" => {
                assert_eq!(lane.pop(), Some(event.name.as_str()), "lane {}", event.tid);
                *completed.entry(&event.name).or_default() += 1;
            }
            phase => assert_eq!(phase, "C", "unexpected phase"),
        }
    }
    assert!(open.values().all(Vec::is_empty), "unbalanced: {open:?}");
    let count = |name| completed.get(name).copied().unwrap_or(0);
    for name in [
        "admission",
        "map",
        "step1",
        "step2",
        "step3",
        "step4",
        "buffer_sizing",
    ] {
        assert!(count(name) > 0, "no completed `{name}` span");
    }
    // Admission and switch spans each open a fresh lane.
    let roots = count("admission") + count("switch");
    assert!(open.len() >= count("admission"), "a lane per admission");
    assert!(
        open.len() <= roots + 1,
        "{} lanes, {roots} roots",
        open.len()
    );
}

/// The third golden command line, through the binary: every flag it takes
/// must land in the `SimConfig` field the fixture was recorded with.
#[test]
fn the_golden_command_line_reproduces_its_fixture() {
    let out = std::env::temp_dir().join(format!("rtsm-golden-recover-{}.json", std::process::id()));
    let status = Command::new(env!("CARGO_BIN_EXE_simulate"))
        .args("--seed 2008 --arrivals 500 --catalog mixed --algorithm paper --templates".split(' '))
        .args("--faults --mttf 10000 --mttr 3000 --reconfigure --out".split(' '))
        .arg(&out)
        .stdout(std::process::Stdio::null())
        .status()
        .expect("simulate runs");
    assert!(status.success(), "{status}");
    let written = std::fs::read_to_string(&out).expect("--out was written");
    std::fs::remove_file(&out).expect("just written");
    fixture::assert_matches_fixture(
        &written,
        include_str!("../../../tests/golden/seed2008_mixed_templates_recover.json"),
        "simulate's --out of the golden command line",
    );
}

/// One cell, two front doors: an `experiment` trial and the `simulate`
/// command line stating the same catalog, algorithm, gap, policy and seed
/// run one `SimConfig` (`rtsm_exp::sim_config`), so their counts agree.
#[test]
fn an_experiment_trial_and_simulate_run_the_same_cell() {
    let dir = std::env::temp_dir().join(format!("rtsm-one-path-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir is writable");
    let (spec, jsonl, out) = (
        dir.join("spec.json"),
        dir.join("trials.jsonl"),
        dir.join("simulate.json"),
    );
    std::fs::write(
        &spec,
        r#"{"name":"one-cell","algorithms":["greedy"],"catalogs":["mixed"],"mean_gaps":[500],
            "policies":[{"kind":"energy-budget"}],"seeds":[2008],"template":{"arrivals":300}}"#,
    )
    .expect("temp dir is writable");
    let runs = [
        Command::new(env!("CARGO_BIN_EXE_experiment"))
            .args(["--workers", "1", "--quiet", "--spec"])
            .arg(&spec)
            .arg("--jsonl")
            .arg(&jsonl)
            .stdout(std::process::Stdio::null())
            .status(),
        Command::new(env!("CARGO_BIN_EXE_simulate"))
            .args("--seed 2008 --arrivals 300 --catalog mixed --algorithm greedy".split(' '))
            .args("--mean-gap 500 --reconfigure --policy energy-budget --out".split(' '))
            .arg(&out)
            .stdout(std::process::Stdio::null())
            .status(),
    ];
    for status in runs {
        let status = status.expect("runs");
        assert!(status.success(), "{status}");
    }
    let line = |path| {
        let text = std::fs::read_to_string(path).expect("written by the run");
        assert_eq!(text.lines().count(), 1, "one trial, one algorithm");
        text
    };
    let trial: rtsm_exp::TrialRecord =
        serde_json::from_str(line(&jsonl).trim_end()).expect("a row");
    let report: rtsm_sim::SimReport =
        serde_json::from_str(line(&out).trim_end()).expect("a report");
    std::fs::remove_dir_all(&dir).expect("just written");

    let reconfiguration = report.reconfiguration.expect("--reconfigure");
    assert_eq!(
        [
            trial.admitted,
            trial.blocked,
            trial.departures,
            trial.energy_pj_ticks,
            trial.recovered,
            trial.migrations_committed,
        ],
        [
            report.admitted,
            report.blocked,
            report.departures,
            report.energy_pj_ticks,
            reconfiguration.admissions_recovered,
            reconfiguration.migrations_committed,
        ],
        "admitted, blocked, departures, energy, recovered, migrations"
    );
    assert!(
        trial.recovered > 0,
        "the cell exercises the reconfiguration retry"
    );
}
