//! `experiment` — run a sharded sweep matrix from a JSON spec.
//!
//! ```text
//! experiment --spec PATH [--workers N] [--out PATH] [--jsonl PATH] [--quiet]
//!            [--heartbeat N]
//! ```
//!
//! Loads an `ExperimentSpec`, expands it into independent trials, fans
//! them across `--workers` threads (default: the machine's available
//! parallelism), streams one JSON line per trial to `--jsonl` (and,
//! unless `--quiet`, a progress line to stdout) **in trial-id order**
//! while the run is in flight, and seals the aggregate
//! `ExperimentReport` to `--out` atomically (temp file + rename).
//!
//! The sealed report is byte-identical for a given spec regardless of
//! `--workers` (`tests/experiment_harness.rs` holds that across worker
//! counts and re-runs). Wall-clock throughput (events/s) is printed
//! to stdout only; it never enters the report.
//!
//! `--heartbeat N` prints a progress line to **stderr** every N
//! completed trials (trial id, cumulative events/s) — stderr only, so
//! the JSONL stream and the sealed report stay byte-identical with or
//! without it. No trial is timed: a sealed report has no field that could
//! hold a wall-clock figure.

use rtsm_bench::cli::Cli;
use rtsm_exp::{run_experiment, write_atomic, ExperimentSpec};
use std::io::Write;
use std::time::Instant;

fn main() {
    let cli = Cli::from_env(
        "experiment",
        &[
            ("--spec", "PATH"),
            ("--workers", "N"),
            ("--out", "PATH"),
            ("--jsonl", "PATH"),
            ("--heartbeat", "N"),
        ],
        &["--quiet"],
    );
    let spec_path = cli
        .value("--spec")
        .unwrap_or_else(|| cli.usage_error("--spec PATH is required"));
    let workers = cli
        .integer::<usize>("--workers")
        .unwrap_or_else(rtsm_exp::available_workers);
    if workers == 0 {
        cli.usage_error("--workers must be at least 1");
    }
    let out = cli.value("--out");
    let jsonl = cli.value("--jsonl");
    let quiet = cli.has("--quiet");
    let heartbeat = cli.u64_or("--heartbeat", 0);

    let spec_text = std::fs::read_to_string(spec_path)
        .unwrap_or_else(|e| cli.usage_error(&format!("cannot read `{spec_path}`: {e}")));
    let spec = ExperimentSpec::from_json(&spec_text)
        .map_err(|e| format!("`{spec_path}` is not a valid spec: {e}"))
        .and_then(|spec| spec.validate().map(|()| spec))
        .unwrap_or_else(|message| {
            // One line, naming the offender (and the valid options).
            eprintln!("error: {message}");
            std::process::exit(2);
        });

    let n_trials = spec.n_trials();
    println!(
        "experiment `{}`: {n_trials} trials, {} total arrivals, {workers} worker(s)",
        spec.name,
        spec.total_arrivals()
    );

    let mut jsonl_file = jsonl.map(|path| {
        std::io::BufWriter::new(std::fs::File::create(path).unwrap_or_else(|e| {
            eprintln!("error: cannot create `{path}`: {e}");
            std::process::exit(2);
        }))
    });
    let started = Instant::now();
    let mut completed: u64 = 0;
    let mut events_done: u64 = 0;
    let run = run_experiment(&spec, workers, |record, line| {
        if let Some(file) = jsonl_file.as_mut() {
            writeln!(file, "{line}").expect("write JSONL line");
        }
        // Heartbeat goes to stderr only: the JSONL stream and the sealed
        // report must stay byte-identical with or without it.
        completed += 1;
        events_done += record.arrivals + record.departures + record.mode_switch_attempts;
        if heartbeat > 0 && completed.is_multiple_of(heartbeat) {
            let secs = started.elapsed().as_secs_f64().max(1e-9);
            eprintln!(
                "heartbeat: trial {} done ({completed}/{n_trials}), {:.0} events/s",
                record.id,
                events_done as f64 / secs
            );
        }
        if !quiet {
            println!(
                "trial {:>4}/{n_trials}: {} {} gap={} policy={} seed={}r{} → \
                 {} admitted / {} blocked ({}‰)",
                record.id + 1,
                record.catalog,
                record.algorithm,
                record.mean_gap,
                record.policy,
                record.seed,
                record.repeat,
                record.admitted,
                record.blocked,
                record.blocking_permille,
            );
        }
    })
    .unwrap_or_else(|e| {
        eprintln!("error: {}", e.0);
        std::process::exit(2);
    });
    if let Some(file) = jsonl_file.as_mut() {
        file.flush().expect("flush JSONL file");
    }

    println!(
        "{} trials, {} events in {:.1} s → {} events/s on {workers} worker(s); \
         blocking {}/{} arrivals, {} recovered, digest {:016x}",
        run.report.n_trials,
        run.events,
        run.wall.as_secs_f64(),
        run.events_per_second(),
        run.report.total_blocked,
        run.report.total_arrivals,
        run.report.total_recovered,
        run.report.trials_fnv1a,
    );
    for front in &run.report.pareto_fronts {
        println!("pareto[{}]: {} point(s)", front.catalog, front.points.len());
        for p in &front.points {
            println!(
                "  {} gap={} policy={}: blocking {}‰, {} pJ·t/admitted, {} pJ migrated",
                p.algorithm,
                p.mean_gap,
                p.policy,
                p.blocking_permille,
                p.energy_pj_ticks_per_admitted,
                p.migration_energy_pj,
            );
        }
    }

    if let Some(path) = out {
        let json = serde_json::to_string(&run.report).expect("reports serialize");
        write_atomic(path, json).unwrap_or_else(|e| {
            eprintln!("error: cannot write `{path}`: {e}");
            std::process::exit(1);
        });
        println!("wrote {path}");
    }
    if let Some(path) = jsonl {
        println!("wrote {path}");
    }
}
