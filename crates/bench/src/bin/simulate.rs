//! `simulate` — long-horizon admission experiments: a seeded stochastic
//! workload driven through the `RuntimeManager`, once per mapping
//! algorithm registered in `rtsm_exp::ALGORITHMS`.
//!
//! The binary translates flags into a `SimConfig`, runs it once per
//! algorithm through `rtsm_exp::run_algorithm` and prints a table, the
//! summary lines and, on request, the serialized reports. The flags are
//! declared once, in `main`; any argument outside them prints the usage line
//! rendered from that list. It checks nothing about the results: what a run
//! must satisfy (determinism, conservation, the golden fixtures, the Pareto
//! trade) is held by `cargo test`, and what it costs is measured by
//! `benchmark/`. Algorithm, catalog and policy names come from the
//! `rtsm_exp` registry. The workload flags (`--mean-hold`, `--switch-prob`,
//! `--sample-interval`, `--platform-seed`, `--horizon`) are stated as the
//! `rtsm_exp::SpecTemplate` and the reconfiguration and template flags as the
//! `rtsm_exp::PolicySpec` an `experiment` spec would list — an absent flag
//! is an unset field — and `rtsm_exp::sim_config` turns them into the
//! `SimConfig` an `experiment` trial of the same cell runs, so the two CLIs
//! share every name, default and run path. On top of it `simulate` sets only
//! the fault process and whether samples record fragmentation.
//!
//! Defaults: seed 2008, 10 000 arrivals, the paper platform with the
//! HIPERLAN/2 mode catalog, Poisson arrivals (mean gap 500 ticks),
//! exponential holding times (mean 2000 ticks), 10% mode switches. The
//! same seed always yields byte-identical serialized reports; the table's
//! `run ms` column (each algorithm's whole run, timed here) is the only
//! figure that is not a function of the flags. `--seed`
//! varies only the *workload* (arrival times, catalog draws, holding
//! times); the platform layout and the synthetic application population
//! stay pinned to `--platform-seed`.
//!
//! * `--reconfigure` retries blocked arrivals through
//!   `RuntimeManager::start_with_reconfiguration`; the report gains the
//!   recovered-admission and migration counters plus per-sample
//!   fragmentation. `--lambda` is the migration-energy weight λ (permille)
//!   of the plan objective, `--policy` the admission policy
//!   (`energy-budget` takes `--budget-pj`, `amortized-payback` takes
//!   `--payback` periods). Each of these flags is an error where nothing
//!   would read it: all of them without `--reconfigure`, `--budget-pj` and
//!   `--payback` under another policy (`PolicySpec::check_parameters`).
//! * `--faults` enables the seeded fault process: tile and link failures
//!   with exponential gaps (mean `--mttf`, default 50 000 ticks) and a fixed
//!   repair time (`--mttr`, default 5000), recovered through
//!   `RuntimeManager::evacuate`; the report gains a `survivability`
//!   section. `--mttf`/`--mttr` without `--faults` is an error.
//! * `--templates` wraps every algorithm in a `TemplatedMapper`; the report
//!   gains a `templates` section. `--template-cap N` bounds the cached
//!   shapes per application spec (default 8) and requires `--templates`.
//! * `--out PATH` writes the serialized reports, one JSON line per
//!   algorithm; `--json` prints the same lines.
//! * `--trace-out PATH` records the runs with a `FlightRecorder` probe and
//!   writes a Chrome trace-event file for Perfetto (one lane per
//!   admission). Probes are pure observers: the reports are byte-identical
//!   with or without it.
//!
//! A flag value the run cannot honour — an unknown name, a zero where a
//! count is needed, a run long enough to outgrow the report's sample series
//! (`rtsm_sim::check_sample_growth`) — is a one-line `error:` and exit
//! code 2.

use rtsm_bench::cli::Cli;
use rtsm_core::MappingAlgorithm;
use rtsm_exp::{PolicySpec, SpecTemplate};
use rtsm_obs::{self as obs, FlightRecorder};
use rtsm_sim::{FaultConfig, SimConfig, SimReport, SimRun, SurvivabilityReport, TemplateReport};
use serde::de::excerpt;
use std::time::Instant;

/// The requested algorithm set, straight from the `rtsm_exp` registry —
/// `all` expands it in display order.
fn algorithms(which: &str) -> Vec<Box<dyn MappingAlgorithm>> {
    if which == "all" {
        return rtsm_exp::ALGORITHMS.iter().map(|e| (e.build)()).collect();
    }
    match rtsm_exp::make_algorithm(which) {
        Some(algorithm) => vec![algorithm],
        None => one_line_error(&format!(
            "unknown algorithm `{}` (valid: all, {})",
            excerpt(which),
            rtsm_exp::VALID_ALGORITHMS.join(", ")
        )),
    }
}

/// A bad *value* for a known flag: one line naming the offender and the
/// valid options, without the full usage dump (that's for unknown
/// flags, where the user needs the whole grammar).
fn one_line_error(message: &str) -> ! {
    eprintln!("error: {message}");
    std::process::exit(2);
}

/// `field` of one optional report section, summed over `runs`.
fn total<S>(
    runs: &[SimRun],
    section: impl Fn(&SimReport) -> Option<&S>,
    field: impl Fn(&S) -> u64,
) -> u64 {
    runs.iter()
        .filter_map(|run| section(&run.report))
        .map(field)
        .sum()
}

fn permille(part: u64, whole: u64) -> u64 {
    (part * 1000).checked_div(whole).unwrap_or(0)
}

fn main() {
    // The name lists are derived from the registry, never retyped: the
    // usage line cannot desync from what the run accepts.
    let algorithm_names = format!("all|{}", rtsm_exp::VALID_ALGORITHMS.join("|"));
    let catalog_names = rtsm_exp::VALID_CATALOGS.join("|");
    // `none` is a spec-file concept (a policy *axis* point meaning "no
    // reconfiguration"); here that is spelled by omitting --reconfigure.
    let policy_kinds = &rtsm_exp::VALID_POLICY_KINDS[1..];
    let policy_names = policy_kinds.join("|");
    let cli = Cli::from_env(
        "simulate",
        &[
            ("--seed", "N"),
            ("--arrivals", "N"),
            ("--algorithm", &algorithm_names),
            ("--catalog", &catalog_names),
            ("--platform-seed", "N"),
            ("--mean-gap", "N"),
            ("--mean-hold", "N"),
            ("--switch-prob", "PCT"),
            ("--sample-interval", "N"),
            ("--horizon", "N"),
            ("--out", "PATH"),
            ("--trace-out", "PATH"),
            ("--max-migrations", "N"),
            ("--max-plans", "N"),
            ("--policy", &policy_names),
            ("--lambda", "PERMILLE"),
            ("--budget-pj", "N"),
            ("--payback", "N"),
            ("--mttf", "N"),
            ("--mttr", "N"),
            ("--template-cap", "N"),
        ],
        &["--json", "--reconfigure", "--faults", "--templates"],
    );
    let seed = cli.u64_or("--seed", 2008);
    let arrivals = cli.u64_or("--arrivals", 10_000);
    if arrivals == 0 {
        one_line_error("--arrivals is 0, must be ≥ 1");
    }
    let mean_gap = cli.u64_or("--mean-gap", 500);
    if mean_gap == 0 {
        one_line_error("--mean-gap is 0, must be ≥ 1 tick");
    }
    let template = SpecTemplate {
        arrivals,
        mean_hold: cli.integer("--mean-hold"),
        switch_prob_pct: cli.integer("--switch-prob"),
        sample_interval: cli.integer("--sample-interval"),
        horizon: cli.integer("--horizon"),
        platform_seed: cli.integer("--platform-seed"),
    };
    let (mean_hold, switch_pct) = (template.mean_hold(), template.switch_prob_pct());
    let which = cli.value("--algorithm").unwrap_or("all");
    let catalog_name = cli.value("--catalog").unwrap_or("hiperlan2");
    let reconfigure = cli.has("--reconfigure");
    let faults = cli.has("--faults");
    if !faults {
        for flag in ["--mttf", "--mttr"] {
            if cli.value(flag).is_some() {
                one_line_error(&format!("{flag} requires --faults"));
            }
        }
    }
    let fault_defaults = FaultConfig::default();
    let mttf = cli.u64_or("--mttf", fault_defaults.mttf);
    let mttr = cli.u64_or("--mttr", fault_defaults.mttr);
    if faults && mttf == 0 {
        one_line_error("--mttf is 0, must be ≥ 1 tick");
    }
    if !reconfigure && cli.value("--policy").is_some() {
        one_line_error("--policy requires --reconfigure");
    }
    let policy_name = cli.value("--policy").unwrap_or("always");
    if !policy_kinds.contains(&policy_name) {
        one_line_error(&format!(
            "unknown admission policy `{}` (valid: {})",
            excerpt(policy_name),
            policy_kinds.join(", ")
        ));
    }
    let policy = PolicySpec {
        kind: if reconfigure { policy_name } else { "none" }.to_string(),
        lambda_permille: cli.integer("--lambda"),
        budget_pj: cli.integer("--budget-pj"),
        payback_periods: cli.integer("--payback"),
        max_migrations: cli.integer("--max-migrations"),
        max_plans: cli.integer("--max-plans"),
        arrivals: None,
        templates: Some(cli.has("--templates")),
        template_cap: cli.integer("--template-cap"),
    };
    // The per-kind parameter rules are the spec's own, so their message
    // names the spec field each flag states.
    if let Err(message) = policy.check_parameters() {
        one_line_error(&if reconfigure {
            message
        } else {
            format!("{message}; without --reconfigure the kind is `none`")
        });
    }
    if switch_pct > 100 {
        one_line_error(&format!("--switch-prob is {switch_pct}%, must be 0–100"));
    }
    // What the last arrival can leave in the queue longest: its own
    // holding time or, with faults on, the pending failure and its repair.
    let (tail_flag, tail) = [
        ("--mean-hold", mean_hold),
        ("--mttf", mttf),
        ("--mttr", mttr),
    ]
    .into_iter()
    .take(if faults { 3 } else { 1 })
    .max_by_key(|&(_, ticks)| ticks)
    .expect("at least --mean-hold");
    if let Err(message) =
        rtsm_sim::check_sample_growth(arrivals, mean_gap, tail, template.sample_interval())
    {
        one_line_error(&format!(
            "--arrivals {arrivals} × --mean-gap {mean_gap} + 100 × {tail_flag} {tail}: {message}"
        ));
    }
    // Resolve the algorithm set before any output, so a bad name fails
    // with just the one-line error.
    let algorithms = algorithms(which);

    // Catalog resolution is shared with the experiment harness
    // (`rtsm_exp::resolve_catalog`), so the two CLIs agree on every
    // platform/population pair.
    let resolved = rtsm_exp::resolve_catalog(catalog_name, template.platform_seed())
        .unwrap_or_else(|| {
            one_line_error(&format!(
                "unknown catalog `{}` (valid: {})",
                excerpt(catalog_name),
                rtsm_exp::VALID_CATALOGS.join(", ")
            ))
        });

    let config = SimConfig {
        track_fragmentation: reconfigure,
        faults: faults.then_some(FaultConfig {
            mttf,
            mttr,
            ..fault_defaults
        }),
        ..rtsm_exp::sim_config(&template, &policy, mean_gap, seed, arrivals)
    };

    println!(
        "simulating {arrivals} arrivals on `{catalog_name}` (seed {seed}, mean gap {mean_gap}, \
         mean hold {mean_hold}, switch prob {switch_pct}%{}{})",
        if faults {
            format!(", faults mttf {mttf} mttr {mttr}")
        } else {
            String::new()
        },
        match &config.reconfiguration {
            Some(policy) => format!(
                ", reconfigure ≤{} migrations × {} plans, λ={}‰, policy {}",
                policy.max_migrations,
                policy.max_plans,
                policy.objective.lambda_permille,
                policy.admission
            ),
            None => String::new(),
        }
    );
    println!(
        "{:<32} {:>8} {:>8} {:>9} {:>9} {:>10} {:>12} {:>12} {:>12} {:>9}",
        "algorithm",
        "admitted",
        "blocked",
        "block ‰",
        "recovered",
        "migrations",
        "migr. pJ",
        "energy pJ·t",
        "mean slots‰",
        "run ms"
    );

    // One recorder across all algorithms: enough capacity for every span
    // and counter of the run, bounded so a million-arrival trace cannot
    // exhaust memory (the ring keeps the most recent events).
    let trace_out = cli.value("--trace-out");
    let recorder = trace_out.map(|_| {
        std::rc::Rc::new(FlightRecorder::new(
            usize::try_from(arrivals.saturating_mul(512))
                .unwrap_or(usize::MAX)
                .clamp(65_536, 4_000_000),
        ))
    });
    let runs: Vec<SimRun> = {
        let _probe = recorder
            .as_ref()
            .map(|r| obs::install(r.clone() as std::rc::Rc<dyn obs::Probe>));
        algorithms
            .into_iter()
            .map(|algorithm| {
                let started = Instant::now();
                let run =
                    rtsm_exp::run_algorithm(&resolved, algorithm, policy.shape_cap(), &config);
                let run_ms = started.elapsed().as_secs_f64() * 1e3;
                let report = &run.report;
                let reconfiguration = report.reconfiguration.clone().unwrap_or_default();
                println!(
                    "{:<32} {:>8} {:>8} {:>9} {:>9} {:>10} {:>12} {:>12} {:>12} {:>9.1}",
                    report.algorithm,
                    report.admitted,
                    report.blocked,
                    report.blocking_permille,
                    reconfiguration.admissions_recovered,
                    reconfiguration.migrations_committed,
                    reconfiguration.migration_energy_pj,
                    report.energy_pj_ticks,
                    report.mean_slots_permille(),
                    run_ms,
                );
                run
            })
            .collect()
    };
    // The cross-algorithm summary lines: one report section's field, summed.
    if reconfigure {
        let recovered = total(
            &runs,
            |r| r.reconfiguration.as_ref(),
            |c| c.admissions_recovered,
        );
        println!("recovered admissions (all algorithms): {recovered}");
    }
    if let Some(cap) = policy.shape_cap() {
        let of = |field: fn(&TemplateReport) -> u64| total(&runs, |r| r.templates.as_ref(), field);
        let (hits, misses) = (of(|t| t.hits), of(|t| t.misses));
        println!(
            "templates (all algorithms): {hits} hits / {misses} misses ({}‰ hit rate), \
             {} shapes cached, cap {cap} per spec",
            permille(hits, hits + misses),
            of(|t| t.shapes_cached),
        );
    }
    if faults {
        let of = |field: fn(&SurvivabilityReport) -> u64| {
            total(&runs, |r| r.survivability.as_ref(), field)
        };
        let (degraded, healthy) = (of(|s| s.degraded_arrivals), of(|s| s.healthy_arrivals));
        println!(
            "survivability (all algorithms): {} failures, {} evacuated, {} evicted; \
             blocking {}‰ degraded vs {}‰ healthy ({degraded} of {} arrivals degraded)",
            of(|s| s.tile_failures + s.link_failures),
            of(|s| s.apps_evacuated),
            of(|s| s.apps_evicted),
            permille(of(|s| s.degraded_blocked), degraded),
            permille(of(|s| s.healthy_blocked), healthy),
            degraded + healthy,
        );
    }

    let json_lines = || -> Vec<String> {
        runs.iter()
            .map(|run| serde_json::to_string(&run.report).expect("reports serialize"))
            .collect()
    };
    if cli.has("--json") {
        for line in json_lines() {
            println!("{line}");
        }
    }
    if let Some(path) = cli.value("--out") {
        let mut contents = json_lines().join("\n");
        contents.push('\n');
        // Atomic: an interrupted run must not leave a truncated file
        // behind.
        rtsm_exp::write_atomic(path, contents).expect("write --out file");
        println!("wrote {path}");
    }
    if let (Some(path), Some(recorder)) = (trace_out, recorder) {
        rtsm_exp::write_atomic(path, recorder.chrome_trace_json()).expect("write --trace-out file");
        println!(
            "wrote {path} ({} trace events{}) — open in Perfetto or chrome://tracing",
            recorder.len(),
            if recorder.dropped() > 0 {
                format!(", {} older ones dropped by the ring", recorder.dropped())
            } else {
                String::new()
            }
        );
    }
}
