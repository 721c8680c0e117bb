//! The repository benchmark (see `benchmark/README.md`).
//!
//! With `--trace 0|1` it is the driver's command: one workload, one run,
//! one result line. Without, it runs the whole set — every workload,
//! untraced then traced — prints every metric and writes `report.json`.

mod alloc;
mod endtoend;
mod layers;
mod metrics;
mod replay;
mod report;
mod spans;
mod stats;
mod workload;

use endtoend::Sizing;
use metrics::RunResult;
use std::path::PathBuf;
use std::process::ExitCode;
use workload::{Workload, WORKLOADS};

#[global_allocator]
static ALLOC: alloc::CountingAlloc = alloc::CountingAlloc::new();

/// Measuring budget of one run, matching `run_seconds` in `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 30.0;

const USAGE: &str = "usage: run.sh [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] \
                     [--quick] [--self-check] [--out DIR]";

#[derive(Debug)]
struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: Option<f64>,
    trace: Option<bool>,
    quick: bool,
    self_check: bool,
    out: Option<PathBuf>,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: endtoend::GOLDEN_SEED,
        seconds: None,
        trace: None,
        quick: false,
        self_check: false,
        out: None,
    };
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                let known = Workload::by_name(&name);
                parsed.workload = Some(known.ok_or(format!("unknown workload `{name}`"))?);
            }
            "--seed" => {
                parsed.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                let seconds: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
                parsed.seconds = Some(seconds);
            }
            "--trace" => {
                parsed.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                });
            }
            "--out" => parsed.out = Some(PathBuf::from(value()?)),
            "--quick" => parsed.quick = true,
            "--self-check" => parsed.self_check = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if parsed.trace.is_some() && parsed.workload.is_none() {
        return Err("--trace needs --workload".to_string());
    }
    Ok(parsed)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // `--quick`: a tenth of the op counts and three repeats, for smoke use.
    let sizing = Sizing {
        seed: args.seed,
        seconds: args
            .seconds
            .unwrap_or(if args.quick { 1.0 } else { DEFAULT_SECONDS }),
        min_repeats: if args.quick { 3 } else { 5 },
        divisor: if args.quick { 10 } else { 1 },
    };
    let scaled = |w: &Workload| w.scaled_down(sizing.divisor);
    let selected: Vec<Workload> = match &args.workload {
        Some(w) => vec![scaled(w)],
        None => WORKLOADS.iter().map(scaled).collect(),
    };
    let untraced = |w: &Workload| endtoend::run(w, &sizing);
    let traced = |w: &Workload| layers::run(w, &sizing, args.out.as_deref());
    let ok = |results: &[RunResult]| results.iter().all(|r| r.failed == 0);

    if let Some(trace) = args.trace {
        let result = if trace {
            traced(&selected[0])
        } else {
            untraced(&selected[0])
        };
        report::print_table(&result);
        println!("{}", report::result_line(&result));
        return ExitCode::from(u8::from(result.failed != 0));
    }

    if args.quick {
        println!("# --quick: a tenth of the op counts; NOT comparable with full runs\n");
    }
    if args.self_check {
        // A/A: the whole untraced set twice on this one binary.
        let sets: Vec<Vec<RunResult>> = (0..2)
            .map(|_| selected.iter().map(untraced).collect())
            .collect();
        let agreed = report::print_self_check(&sets[0], &sets[1]);
        return ExitCode::from(u8::from(!(agreed && ok(&sets[0]) && ok(&sets[1]))));
    }

    let mut results = Vec::new();
    for workload in &selected {
        for result in [untraced(workload), traced(workload)] {
            report::print_table(&result);
            results.push(result);
        }
    }
    if let Some(dir) = &args.out {
        let path = dir.join("report.json");
        let json = report::report_json(&results, args.seed, args.quick);
        match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, json + "\n")) {
            Ok(()) => println!("wrote {}", path.display()),
            Err(e) => {
                eprintln!("cannot write {}: {e}", path.display());
                return ExitCode::from(1);
            }
        }
    }
    ExitCode::from(u8::from(!ok(&results)))
}
