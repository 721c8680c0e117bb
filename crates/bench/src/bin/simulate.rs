//! `simulate` — long-horizon admission experiments: a seeded stochastic
//! workload driven through the `RuntimeManager`, compared across every
//! mapping algorithm registered in `rtsm_exp::ALGORITHMS`.
//!
//! ```text
//! simulate [--seed N] [--arrivals N] [--algorithm NAME|all]
//!          [--catalog hiperlan2|mixed|synthetic|defrag] [--platform-seed N]
//!          [--mean-gap N] [--mean-hold N] [--switch-prob PCT]
//!          [--holding exponential|fixed|pareto] [--flash-crowd BURST]
//!          [--sample-interval N] [--horizon N] [--json] [--out PATH]
//!          [--trace-out PATH] [--reconfigure] [--max-migrations N] [--max-plans N]
//!          [--policy always|energy-budget|amortized-payback]
//!          [--lambda PERMILLE] [--budget-pj N] [--payback N]
//!          [--faults] [--mttf N] [--mttr N]
//!          [--templates] [--template-cap N] [--portfolio-workers N]
//! ```
//!
//! Algorithm and catalog names (including the `--algorithm` error text
//! below) come from the `rtsm_exp` registry — the same lists `experiment`
//! specs validate against — so the two CLIs cannot drift apart.
//!
//! `--portfolio-workers N` races the `portfolio` algorithm's members
//! across N threads instead of evaluating them sequentially. Reports are
//! byte-identical for any N (the CI portfolio smoke diffs 1 vs 4); the
//! flag only changes wall-clock.
//!
//! `--templates` wraps every algorithm in a `TemplatedMapper`: admissions
//! first try to instantiate a cached mapping shape (microsecond hit path)
//! and fall back to the full algorithm on miss, learning the result. The
//! report gains a `templates` section (hits, misses, hit rate, shapes
//! cached), and the run **asserts** templated determinism: each algorithm
//! is simulated twice from a freshly reset library and the serialized
//! reports byte-compared. `--template-cap N` bounds the cached shapes per
//! application spec (default 8); it requires `--templates`.
//!
//! `--faults` enables the seeded fault process: tile/link failures with
//! exponential inter-failure times (mean `--mttf`, default 50 000 ticks)
//! and a fixed repair time (`--mttr`, default 5000 ticks). Failed
//! resources are quarantined and their tenants evacuated through
//! `RuntimeManager::evacuate`; apps with no admissible relocation are
//! *evicted*. The report gains a `survivability` section, and the run
//! **asserts** fault-injected determinism (each algorithm simulated
//! twice, byte-compared), instance conservation including evictions
//! (`departed + switch-lost + evicted + still-running == admitted`, where
//! with `--reconfigure` only blocked switches that were *not* survived
//! count as lost), and a leak-free ledger after every failure/repair
//! cycle — the CI chaos smoke. A run that injected no failure, or evacuated
//! no victim successfully, exits 1 with a one-line error saying which.
//! `--mttf`/`--mttr` without `--faults` is an error.
//!
//! `--flash-crowd BURST` replaces Poisson arrivals with flash crowds:
//! BURST arrivals land at one instant, with exponential gaps between
//! bursts of mean `--mean-gap × BURST` (same long-run rate, adversarial
//! spikes). BURST must be ≥ 1. `--holding pareto` draws heavy-tailed
//! bounded-Pareto holding times (support `[mean/3, mean×100]`, α = 1.5,
//! from `--mean-hold`); `fixed` holds every instance exactly
//! `--mean-hold` ticks.
//!
//! `--reconfigure` enables defragmentation-by-migration: blocked arrivals
//! retry through `RuntimeManager::start_with_reconfiguration`, the report
//! gains recovered-admission/migration counters plus per-sample
//! fragmentation, and the run **asserts** that the counters are
//! deterministic (each algorithm is simulated twice and byte-compared)
//! and exits 1 with a one-line error unless at least one admission was
//! recovered overall — the CI smoke for the reconfiguration path.
//!
//! `--lambda` sets the migration-energy weight λ (permille) of the plan
//! objective; `--policy` picks the admission policy (`energy-budget`
//! takes `--budget-pj`, `amortized-payback` takes `--payback` periods).
//! With a policy other than `always`, every algorithm is *also* simulated
//! under `AlwaysAdmit` at the same λ, and the run **asserts** the Pareto
//! trade: the bounded policy spends strictly less total migration energy
//! than `AlwaysAdmit` (and exits 1 with a one-line error if either run
//! recovered no admission at all) — the CI Pareto smoke.
//!
//! `--out PATH` writes the serialized reports (one JSON line per
//! algorithm) to a file — what the CI determinism gate byte-compares
//! across two invocations.
//!
//! `--trace-out PATH` installs a `FlightRecorder` probe during each
//! algorithm's primary run and writes a Chrome trace-event JSON file:
//! open it in Perfetto (or `chrome://tracing`) to see one lane per
//! admission with the step1→step4→buffer-sizing→commit spans inside.
//! Probes are pure observers — the serialized reports are byte-identical
//! with or without `--trace-out` (the CI trace smoke diffs them).
//!
//! `--seed` varies only the *workload* (arrival times, catalog draws,
//! holding times); the platform layout and the synthetic application
//! population stay pinned to `--platform-seed`, so seed sweeps compare
//! the same system under different loads.
//!
//! Defaults: seed 2008, 10 000 arrivals, the paper platform with the
//! HIPERLAN/2 mode catalog, Poisson arrivals (mean gap 500 ticks),
//! exponential holding times (mean 2000 ticks), 10% mode switches. The
//! same seed always yields byte-identical serialized reports; wall-clock
//! mapping latency is printed separately because it cannot be.

use rtsm_baselines::PortfolioMapper;
use rtsm_core::{
    AdmissionPolicy, MappingAlgorithm, ReconfigurationObjective, ReconfigurationPolicy,
    TemplatedMapper,
};
use rtsm_obs::{self as obs, FlightRecorder};
use rtsm_sim::{
    run_sim, ArrivalProcess, FaultConfig, HoldingTime, SimConfig, SimRun, TemplateReport,
};

/// The requested algorithm set, straight from the `rtsm_exp` registry —
/// `all` expands it in display order. Only `portfolio` takes a CLI
/// override (racing workers, which cannot change report bytes).
fn algorithms(which: &str, portfolio_workers: usize) -> Vec<Box<dyn MappingAlgorithm>> {
    let build = |entry: &rtsm_exp::AlgorithmEntry| -> Box<dyn MappingAlgorithm> {
        if entry.name == "portfolio" && portfolio_workers > 1 {
            Box::new(PortfolioMapper::with_workers(portfolio_workers))
        } else {
            (entry.build)()
        }
    };
    if which == "all" {
        return rtsm_exp::ALGORITHMS.iter().map(build).collect();
    }
    match rtsm_exp::ALGORITHMS.iter().find(|e| e.name == which) {
        Some(entry) => vec![build(entry)],
        None => one_line_error(&format!(
            "unknown algorithm `{which}` (valid: all, {})",
            rtsm_exp::VALID_ALGORITHMS.join(", ")
        )),
    }
}

/// Flags that take a value, in usage order.
const VALUE_FLAGS: [&str; 24] = [
    "--seed",
    "--arrivals",
    "--algorithm",
    "--catalog",
    "--platform-seed",
    "--mean-gap",
    "--mean-hold",
    "--switch-prob",
    "--holding",
    "--flash-crowd",
    "--sample-interval",
    "--horizon",
    "--out",
    "--trace-out",
    "--max-migrations",
    "--max-plans",
    "--policy",
    "--lambda",
    "--budget-pj",
    "--payback",
    "--mttf",
    "--mttr",
    "--template-cap",
    "--portfolio-workers",
];

/// Rejects unknown flags, `--flag=value` syntax, and value flags missing
/// their value, so a typo can't silently run the default experiment.
fn validate_args(args: &[String]) {
    let mut i = 0;
    while i < args.len() {
        let arg = &args[i];
        if VALUE_FLAGS.contains(&arg.as_str()) {
            if i + 1 >= args.len() {
                usage_error(&format!("{arg} expects a value"));
            }
            i += 2;
        } else if arg == "--json"
            || arg == "--reconfigure"
            || arg == "--faults"
            || arg == "--templates"
        {
            i += 1;
        } else {
            usage_error(&format!("unknown argument `{arg}`"));
        }
    }
}

/// A bad *value* for a known flag: one line naming the offender and the
/// valid options, without the full usage dump (that's for unknown
/// flags, where the user needs the whole grammar).
fn one_line_error(message: &str) -> ! {
    eprintln!("error: {message}");
    std::process::exit(2);
}

/// The run finished, but the workload did not produce what the flags set
/// out to exercise (a recovered admission, an injected failure, a
/// successful evacuation): one line and exit code 1, so a CI smoke on a
/// workload that stopped exercising its path still fails, without a
/// backtrace that suggests a bug.
fn expectation_failed(message: &str) -> ! {
    eprintln!("error: {message}");
    std::process::exit(1);
}

fn usage_error(message: &str) -> ! {
    eprintln!("error: {message}");
    // The name lists are derived from the registry, never retyped: the
    // help text cannot desync from what the parser accepts.
    eprintln!(
        "usage: simulate [--seed N] [--arrivals N] [--algorithm all|{algorithms}] \
         [--catalog {catalogs}] [--platform-seed N] \
         [--mean-gap N] [--mean-hold N] [--switch-prob PCT] \
         [--holding exponential|fixed|pareto] [--flash-crowd BURST] [--sample-interval N] \
         [--horizon N] [--json] [--out PATH] [--trace-out PATH] [--reconfigure] \
         [--max-migrations N] \
         [--max-plans N] [--policy {policies}] \
         [--lambda PERMILLE] [--budget-pj N] [--payback N] [--faults] [--mttf N] [--mttr N] \
         [--templates] [--template-cap N] [--portfolio-workers N]",
        algorithms = rtsm_exp::VALID_ALGORITHMS.join("|"),
        catalogs = rtsm_exp::VALID_CATALOGS.join("|"),
        policies = rtsm_exp::VALID_POLICY_KINDS[1..].join("|"),
    );
    std::process::exit(2);
}

fn parse_flag(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1).cloned())
}

fn parse_u64(args: &[String], flag: &str, default: u64) -> u64 {
    parse_flag(args, flag).map_or(default, |v| {
        v.parse()
            .unwrap_or_else(|_| usage_error(&format!("{flag} expects an integer, got `{v}`")))
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    validate_args(&args);
    let seed = parse_u64(&args, "--seed", 2008);
    let arrivals = parse_u64(&args, "--arrivals", 10_000);
    let mean_gap = parse_u64(&args, "--mean-gap", 500);
    let mean_hold = parse_u64(&args, "--mean-hold", 2000);
    let switch_pct = parse_u64(&args, "--switch-prob", 10);
    let sample_interval = parse_u64(&args, "--sample-interval", 10_000);
    let platform_seed = parse_u64(&args, "--platform-seed", 42);
    let horizon = parse_flag(&args, "--horizon").map(|v| {
        v.parse()
            .unwrap_or_else(|_| usage_error(&format!("--horizon expects an integer, got `{v}`")))
    });
    let which = parse_flag(&args, "--algorithm").unwrap_or_else(|| "all".into());
    let catalog_name = parse_flag(&args, "--catalog").unwrap_or_else(|| "hiperlan2".into());
    let json = args.iter().any(|a| a == "--json");
    let out = parse_flag(&args, "--out");
    let trace_out = parse_flag(&args, "--trace-out");
    let reconfigure = args.iter().any(|a| a == "--reconfigure");
    let max_migrations = parse_u64(&args, "--max-migrations", 2);
    let max_plans = parse_u64(&args, "--max-plans", 8);
    let lambda_permille = parse_u64(&args, "--lambda", 1000);
    let budget_pj = parse_u64(&args, "--budget-pj", 500_000);
    let payback = parse_u64(&args, "--payback", 64);
    let faults = args.iter().any(|a| a == "--faults");
    if !faults {
        for flag in ["--mttf", "--mttr"] {
            if parse_flag(&args, flag).is_some() {
                one_line_error(&format!("{flag} requires --faults"));
            }
        }
    }
    let mttf = parse_u64(&args, "--mttf", 50_000);
    let mttr = parse_u64(&args, "--mttr", 5_000);
    if faults && mttf == 0 {
        one_line_error("--mttf is 0, must be ≥ 1 tick");
    }
    let templates = args.iter().any(|a| a == "--templates");
    if !templates && parse_flag(&args, "--template-cap").is_some() {
        one_line_error("--template-cap requires --templates");
    }
    let template_cap = parse_u64(
        &args,
        "--template-cap",
        rtsm_core::template::DEFAULT_SHAPE_CAP as u64,
    ) as usize;
    if templates && template_cap == 0 {
        one_line_error("--template-cap is 0, must be ≥ 1 shape per spec");
    }
    let flash_crowd = parse_flag(&args, "--flash-crowd").map(|v| {
        v.parse::<u32>().unwrap_or_else(|_| {
            usage_error(&format!("--flash-crowd expects an integer, got `{v}`"))
        })
    });
    if flash_crowd == Some(0) {
        one_line_error("--flash-crowd is 0, burst size must be ≥ 1");
    }
    let holding_name = parse_flag(&args, "--holding").unwrap_or_else(|| "exponential".into());
    let policy_name = parse_flag(&args, "--policy").unwrap_or_else(|| "always".into());
    // `none` is a spec-file concept (a policy *axis* point meaning "no
    // reconfiguration"); here that is spelled by omitting --reconfigure.
    let admission: AdmissionPolicy = rtsm_exp::admission_policy(&policy_name, budget_pj, payback)
        .unwrap_or_else(|| {
            one_line_error(&format!(
                "unknown admission policy `{policy_name}` (valid: {})",
                rtsm_exp::VALID_POLICY_KINDS[1..].join(", ")
            ))
        });
    if switch_pct > 100 {
        one_line_error(&format!("--switch-prob is {switch_pct}%, must be 0–100"));
    }
    let portfolio_workers = parse_u64(&args, "--portfolio-workers", 1) as usize;
    if portfolio_workers == 0 {
        one_line_error("--portfolio-workers is 0, must be ≥ 1");
    }
    // Resolve the algorithm set before any output, so a bad name fails
    // with just the one-line error.
    let algorithms = algorithms(&which, portfolio_workers);

    // Catalog resolution is shared with the experiment harness
    // (`rtsm_exp::resolve_catalog`), so the two CLIs agree on every
    // platform/population pair.
    let resolved = rtsm_exp::resolve_catalog(&catalog_name, platform_seed).unwrap_or_else(|| {
        one_line_error(&format!(
            "unknown catalog `{catalog_name}` (valid: {})",
            rtsm_exp::VALID_CATALOGS.join(", ")
        ))
    });
    let (platform, catalog) = (resolved.platform, resolved.catalog);

    let reconfiguration_policy = |admission: AdmissionPolicy| ReconfigurationPolicy {
        max_migrations: max_migrations as usize,
        max_plans: max_plans as usize,
        objective: ReconfigurationObjective { lambda_permille },
        admission,
        ..ReconfigurationPolicy::default()
    };
    let holding = match holding_name.as_str() {
        "exponential" => HoldingTime::Exponential { mean: mean_hold },
        "fixed" => HoldingTime::Fixed { ticks: mean_hold },
        "pareto" => HoldingTime::BoundedPareto {
            min: (mean_hold / 3).max(1),
            max: mean_hold.saturating_mul(100),
            alpha_permille: 1500,
        },
        other => one_line_error(&format!(
            "unknown holding-time distribution `{other}` (valid: exponential, fixed, pareto)"
        )),
    };
    let config = SimConfig {
        seed,
        arrivals,
        arrival_process: match flash_crowd {
            Some(burst_size) => ArrivalProcess::FlashCrowd {
                mean_gap,
                burst_size,
            },
            None => ArrivalProcess::Poisson { mean_gap },
        },
        holding,
        mode_switch_probability: switch_pct as f64 / 100.0,
        sample_interval,
        horizon,
        reconfiguration: reconfigure.then(|| reconfiguration_policy(admission)),
        track_fragmentation: reconfigure,
        faults: faults.then(|| FaultConfig {
            mttf,
            mttr,
            ..FaultConfig::default()
        }),
    };
    // The Pareto smoke: a bounded policy is compared against AlwaysAdmit
    // at the same λ — same recoveries where affordable, strictly less
    // migration energy overall.
    let baseline_config =
        (reconfigure && admission != AdmissionPolicy::AlwaysAdmit).then(|| SimConfig {
            reconfiguration: Some(reconfiguration_policy(AdmissionPolicy::AlwaysAdmit)),
            ..config.clone()
        });

    println!(
        "simulating {arrivals} arrivals on `{catalog_name}` (seed {seed}, mean gap {mean_gap}, \
         mean hold {mean_hold} ({holding_name}), switch prob {switch_pct}%{}{}{})",
        match flash_crowd {
            Some(burst) => format!(", flash crowds of {burst}"),
            None => String::new(),
        },
        if faults {
            format!(", faults mttf {mttf} mttr {mttr}")
        } else {
            String::new()
        },
        if reconfigure {
            format!(
                ", reconfigure ≤{max_migrations} migrations × {max_plans} plans, \
                 λ={lambda_permille}‰, policy {}",
                admission.label()
            )
        } else {
            String::new()
        }
    );
    println!(
        "{:<32} {:>8} {:>8} {:>9} {:>9} {:>10} {:>12} {:>12} {:>12} {:>11}",
        "algorithm",
        "admitted",
        "blocked",
        "block ‰",
        "recovered",
        "migrations",
        "migr. pJ",
        "energy pJ·t",
        "mean slots‰",
        "map µs/call"
    );

    // One recorder across all algorithms: enough capacity for every span
    // and counter of the run, bounded so a million-arrival trace cannot
    // exhaust memory (the ring keeps the most recent events).
    let recorder = trace_out.as_ref().map(|_| {
        std::rc::Rc::new(FlightRecorder::new(
            usize::try_from(arrivals.saturating_mul(512))
                .unwrap_or(usize::MAX)
                .clamp(65_536, 4_000_000),
        ))
    });
    let mut runs: Vec<SimRun> = Vec::new();
    let mut total_recovered = 0u64;
    let mut total_migration_energy = 0u64;
    let mut total_plans_refused = 0u64;
    let mut baseline_recovered = 0u64;
    let mut baseline_migration_energy = 0u64;
    for algorithm in algorithms {
        // `--templates` wraps the boxed algorithm; the untemplated path
        // keeps the bare box so existing reports stay byte-identical.
        let mut templated: Option<TemplatedMapper<Box<dyn MappingAlgorithm>>> = None;
        let runner: &dyn MappingAlgorithm = if templates {
            templated = Some(TemplatedMapper::with_cap(algorithm, template_cap));
            templated.as_ref().expect("just wrapped")
        } else {
            &algorithm
        };
        let template_report = |t: &TemplatedMapper<Box<dyn MappingAlgorithm>>| {
            TemplateReport::from_stats(t.stats(), template_cap)
        };
        // The probe stays installed only for the primary run; the
        // determinism rerun and the always-admit baseline run bare, so
        // the byte-compare below doubles as an observer-effect gate.
        let mut run = {
            let _probe = recorder
                .as_ref()
                .map(|r| obs::install(r.clone() as std::rc::Rc<dyn obs::Probe>));
            run_sim(&platform, runner, &catalog, &config)
                .expect("the simulation never breaks its own ledger")
        };
        run.report.templates = templated.as_ref().map(template_report);
        if reconfigure || faults || templates {
            // Determinism gate for the reconfiguration, fault-injection
            // and template paths: a second run must serialize
            // byte-identically. Templated reruns start from a freshly
            // reset library so the learn/hit history replays exactly.
            if let Some(t) = &templated {
                t.reset();
            }
            let mut rerun = run_sim(&platform, runner, &catalog, &config)
                .expect("the simulation never breaks its own ledger");
            rerun.report.templates = templated.as_ref().map(template_report);
            let a = serde_json::to_string(&run.report).expect("reports serialize");
            let b = serde_json::to_string(&rerun.report).expect("reports serialize");
            assert_eq!(
                a, b,
                "fixed-seed reconfiguration/fault-injection/template reports must be \
                 byte-identical"
            );
        }
        if let Some(s) = &run.report.survivability {
            // Instance conservation with eviction as a terminal outcome:
            // every admitted instance departed, left at a blocked mode
            // switch, was evicted, or survived to the horizon cut. (With
            // `--reconfigure` a blocked switch is survived, not terminal.)
            assert_eq!(
                run.report.departures
                    + run.report.mode_switch_lost()
                    + s.apps_evicted
                    + run.report.final_running,
                run.report.admitted,
                "evicted + departed + switch-lost + running must equal admitted"
            );
            assert_eq!(
                s.repairs,
                s.tile_failures + s.link_failures,
                "every injected failure must be repaired (no leaked quarantine)"
            );
        }
        if let Some(baseline) = &baseline_config {
            let always = run_sim(&platform, runner, &catalog, baseline)
                .expect("the simulation never breaks its own ledger");
            if let Some(r) = &always.report.reconfiguration {
                baseline_recovered += r.admissions_recovered;
                baseline_migration_energy += r.migration_energy_pj;
            }
        }
        let report = &run.report;
        let reconfiguration = report.reconfiguration.clone().unwrap_or_default();
        total_recovered += reconfiguration.admissions_recovered;
        total_migration_energy += reconfiguration.migration_energy_pj;
        total_plans_refused += reconfiguration.plans_refused;
        println!(
            "{:<32} {:>8} {:>8} {:>9} {:>9} {:>10} {:>12} {:>12} {:>12} {:>11.1}",
            report.algorithm,
            report.admitted,
            report.blocked,
            report.blocking_permille,
            reconfiguration.admissions_recovered,
            reconfiguration.migrations_committed,
            reconfiguration.migration_energy_pj,
            report.energy_pj_ticks,
            report.mean_slots_permille(),
            run.wall.mean_ns() as f64 / 1e3,
        );
        assert!(
            report.ledger_idle_at_end,
            "commit/release must stay exact inverses over the whole run"
        );
        runs.push(run);
    }
    if reconfigure {
        println!("recovered admissions (all algorithms): {total_recovered}");
        if baseline_config.is_some() {
            if baseline_recovered == 0 {
                expectation_failed(
                    "the always-admit twin run recovered no admission on this workload",
                );
            }
            if total_recovered == 0 {
                expectation_failed(&format!(
                    "no admission recovered under {} — {total_plans_refused} feasible plan(s) \
                     were refused; loosen the bound (--budget-pj / --payback) or use \
                     --policy always",
                    admission.label()
                ));
            }
            println!(
                "migration energy: {total_migration_energy} pJ under {}, \
                 {baseline_migration_energy} pJ under always-admit \
                 ({total_plans_refused} plans refused)",
                admission.label()
            );
            if total_plans_refused > 0 {
                assert!(
                    total_migration_energy < baseline_migration_energy,
                    "a binding admission policy must spend strictly less migration energy \
                     than always-admit ({total_migration_energy} vs {baseline_migration_energy} pJ)"
                );
            } else {
                // A bound that never binds filters nothing: the runs must
                // coincide exactly.
                assert_eq!(
                    total_migration_energy, baseline_migration_energy,
                    "a non-binding admission policy must behave exactly like always-admit"
                );
            }
        } else if total_recovered == 0 {
            expectation_failed(
                "reconfiguration recovered no admission on this workload \
                 (--max-migrations and --max-plans must be ≥ 1; try --catalog defrag)",
            );
        }
    }
    if templates {
        let mut hits = 0u64;
        let mut misses = 0u64;
        let mut shapes = 0u64;
        for run in &runs {
            let t = run
                .report
                .templates
                .as_ref()
                .expect("templates were enabled");
            hits += t.hits;
            misses += t.misses;
            shapes += t.shapes_cached;
        }
        let permille = (hits * 1000).checked_div(hits + misses).unwrap_or(0);
        println!(
            "templates (all algorithms): {hits} hits / {misses} misses ({permille}‰ hit rate), \
             {shapes} shapes cached, cap {template_cap} per spec"
        );
    }
    if faults {
        let mut failures = 0u64;
        let mut evacuated = 0u64;
        let mut evicted = 0u64;
        let mut degraded = (0u64, 0u64); // (arrivals, blocked)
        let mut healthy = (0u64, 0u64);
        for run in &runs {
            let s = run
                .report
                .survivability
                .as_ref()
                .expect("faults were enabled");
            failures += s.tile_failures + s.link_failures;
            evacuated += s.apps_evacuated;
            evicted += s.apps_evicted;
            degraded.0 += s.degraded_arrivals;
            degraded.1 += s.degraded_blocked;
            healthy.0 += s.healthy_arrivals;
            healthy.1 += s.healthy_blocked;
        }
        let blocking =
            |(arrivals, blocked): (u64, u64)| (blocked * 1000).checked_div(arrivals).unwrap_or(0);
        println!(
            "survivability (all algorithms): {failures} failures, {evacuated} evacuated, \
             {evicted} evicted; blocking {}‰ degraded vs {}‰ healthy \
             ({} of {} arrivals degraded)",
            blocking(degraded),
            blocking(healthy),
            degraded.0,
            degraded.0 + healthy.0,
        );
        if failures == 0 {
            expectation_failed("no failure was injected on this workload — lower --mttf");
        }
        if evacuated == 0 {
            expectation_failed(&if evicted == 0 {
                format!(
                    "no successful evacuation: none of the {failures} failure(s) hit a running \
                     application — lower --mttf or raise --arrivals"
                )
            } else {
                format!(
                    "no successful evacuation: all {evicted} victim(s) of the {failures} \
                     failure(s) were evicted — raise --mttf or use a roomier catalog"
                )
            });
        }
    }

    let json_lines = || -> Vec<String> {
        runs.iter()
            .map(|run| serde_json::to_string(&run.report).expect("reports serialize"))
            .collect()
    };
    if json {
        for line in json_lines() {
            println!("{line}");
        }
    }
    if let Some(path) = out {
        let mut contents = json_lines().join("\n");
        contents.push('\n');
        // Atomic: CI byte-diffs this artifact; an interrupted run must
        // not leave a truncated file behind.
        rtsm_exp::write_atomic(&path, contents).expect("write --out file");
        println!("wrote {path}");
    }
    if let (Some(path), Some(recorder)) = (trace_out, recorder) {
        rtsm_exp::write_atomic(&path, recorder.chrome_trace_json())
            .expect("write --trace-out file");
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
