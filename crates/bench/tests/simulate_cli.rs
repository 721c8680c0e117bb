//! The binaries' front doors, driven as a user drives them: hostile flag
//! values and a hostile spec end in a one-line `error: …` and exit code 2
//! before anything is simulated, and the flags → `SimConfig` translation
//! reproduces a golden fixture byte for byte.

use std::process::Command;
use std::time::{Duration, Instant};

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
    assert_eq!(
        written,
        include_str!("../../../tests/golden/seed2008_mixed_templates_recover.json")
    );
}
