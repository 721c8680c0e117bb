//! Independent trials: one fully-specified simulation run each.
//!
//! A [`Trial`] carries everything a worker needs besides the shared,
//! read-only [`ResolvedCatalog`]; [`run_trial`] executes it through
//! `run_sim` and flattens the deterministic `SimReport` into a
//! [`TrialRecord`] — the all-integer JSONL row the harness streams,
//! digests, and aggregates. Wall-clock never enters a record, so records
//! are byte-identical across re-runs, machines, and worker counts.

use crate::spec::{PolicySpec, SpecTemplate};
use crate::stats::percentile;
use rtsm_baselines::{
    AnnealingMapper, ExhaustiveMapper, GeneticMapper, GreedyMapper, PortfolioMapper, RandomMapper,
    SpiralMapper,
};
use rtsm_core::{MapperConfig, MappingAlgorithm, SpatialMapper, TemplatedMapper};
use rtsm_platform::Platform;
use rtsm_sim::{run_sim, ArrivalProcess, Catalog, HoldingTime, SimConfig, SimRun, TemplateReport};
use rtsm_workloads::{catalog_world, CATALOG_WORLDS};
use serde::{Deserialize, Serialize};

/// One registered mapping algorithm: the short name specs and CLIs use,
/// plus a constructor. The registry ([`ALGORITHMS`]) is the single source
/// of truth for algorithm names — spec validation, `simulate`'s and
/// `experiment`'s help text, and fixture emission order all derive from
/// it, so adding an algorithm here cannot desync any of them.
#[derive(Debug, Clone, Copy)]
pub struct AlgorithmEntry {
    /// Short name (`paper`, `greedy`, …) used in specs and CLI flags.
    pub name: &'static str,
    /// Builds a fresh instance — workers never share algorithm state.
    pub build: fn() -> Box<dyn MappingAlgorithm>,
}

/// Every mapping algorithm the harness can run, in display order. New
/// algorithms are appended, never inserted: positional consumers (the
/// golden fixtures' line order) rely on the existing prefix staying put.
pub const ALGORITHMS: [AlgorithmEntry; 8] = [
    AlgorithmEntry {
        name: "paper",
        // Traces are never read by the harness, so skip capturing them.
        build: || {
            Box::new(SpatialMapper::new(
                MapperConfig::default().without_capture(),
            ))
        },
    },
    AlgorithmEntry {
        name: "greedy",
        build: || Box::new(GreedyMapper),
    },
    AlgorithmEntry {
        name: "random",
        build: || Box::new(RandomMapper),
    },
    AlgorithmEntry {
        name: "annealing",
        build: || Box::new(AnnealingMapper::default()),
    },
    AlgorithmEntry {
        name: "exhaustive",
        build: || Box::new(ExhaustiveMapper::default()),
    },
    AlgorithmEntry {
        name: "spiral",
        build: || Box::new(SpiralMapper),
    },
    AlgorithmEntry {
        name: "genetic",
        build: || Box::new(GeneticMapper),
    },
    AlgorithmEntry {
        name: "portfolio",
        build: || Box::new(PortfolioMapper),
    },
];

/// The mapping-algorithm short names a spec may list, in display order —
/// derived from [`ALGORITHMS`] at compile time.
pub const VALID_ALGORITHMS: [&str; ALGORITHMS.len()] = {
    let mut names = [""; ALGORITHMS.len()];
    let mut i = 0;
    while i < ALGORITHMS.len() {
        names[i] = ALGORITHMS[i].name;
        i += 1;
    }
    names
};

/// The catalog names a spec may list, in display order — derived from
/// [`CATALOG_WORLDS`], the one place a catalog is named, at compile time.
pub const VALID_CATALOGS: [&str; CATALOG_WORLDS.len()] = {
    let mut names = [""; CATALOG_WORLDS.len()];
    let mut i = 0;
    while i < CATALOG_WORLDS.len() {
        names[i] = CATALOG_WORLDS[i].name;
        i += 1;
    }
    names
};

/// One cell of the expanded sweep matrix: a fully-specified,
/// independently-runnable simulation. `id` is the position in the
/// expansion order (see `ExperimentSpec::expand`).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Trial {
    /// Position in the expansion order — the merge key.
    pub id: u64,
    /// Catalog name (one of [`VALID_CATALOGS`]).
    pub catalog: String,
    /// Algorithm short name (one of [`VALID_ALGORITHMS`]).
    pub algorithm: String,
    /// Poisson mean inter-arrival gap, ticks.
    pub mean_gap: u64,
    /// The admission-policy point this trial runs under.
    pub policy: PolicySpec,
    /// Base workload seed from the spec's seed axis.
    pub seed: u64,
    /// Repeat index (0-based) within the seed.
    pub repeat: u64,
    /// Arrivals this trial simulates (template or policy override).
    pub arrivals: u64,
}

impl Trial {
    /// The workload seed this trial actually runs at: the base seed
    /// plus `repeat` golden-ratio strides, so repeats are distinct
    /// stochastic runs that cannot collide with neighbouring base seeds.
    pub fn trial_seed(&self) -> u64 {
        self.seed
            .wrapping_add(self.repeat.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }
}

/// A catalog name resolved to its platform and application population —
/// built once per experiment and shared read-only by every worker.
#[derive(Debug, Clone)]
pub struct ResolvedCatalog {
    /// The platform the catalog runs on.
    pub platform: Platform,
    /// The application catalog arrivals draw from.
    pub catalog: Catalog,
}

/// Resolves a catalog name exactly like the `simulate` CLI does; `None`
/// for unknown names (spec validation reports them with the valid list).
pub fn resolve_catalog(name: &str, platform_seed: u64) -> Option<ResolvedCatalog> {
    Some(ResolvedCatalog {
        platform: (catalog_world(name)?.platform)(platform_seed),
        catalog: Catalog::named(name, platform_seed)?,
    })
}

/// Builds the mapping algorithm for a short name; `None` for unknown
/// names. Each call returns a fresh instance — workers never share
/// algorithm state.
pub fn make_algorithm(name: &str) -> Option<Box<dyn MappingAlgorithm>> {
    ALGORITHMS
        .iter()
        .find(|entry| entry.name == name)
        .map(|entry| (entry.build)())
}

/// Runs one simulation of `config` over `resolved`, admitting through
/// `algorithm` — behind a [`TemplatedMapper`] when `templates` is set, in
/// which case the report carries the library's [`TemplateReport`]. The one way `experiment`, `simulate` and the golden
/// fixtures run an algorithm.
///
/// # Panics
///
/// Panics if the simulation breaks its own resource ledger — an
/// invariant violation, never a data-dependent condition.
pub fn run_algorithm(
    resolved: &ResolvedCatalog,
    algorithm: Box<dyn MappingAlgorithm>,
    templates: bool,
    config: &SimConfig,
) -> SimRun {
    let (platform, catalog) = (&resolved.platform, &resolved.catalog);
    let run = if templates {
        let templated = TemplatedMapper::new(algorithm);
        run_sim(platform, &templated, catalog, config).map(|mut run| {
            run.report.templates = Some(TemplateReport::from_stats(templated.stats()));
            run
        })
    } else {
        run_sim(platform, &algorithm, catalog, config)
    };
    run.expect("the simulation never breaks its own ledger")
}

/// The simulation one cell runs: Poisson arrivals of `mean_gap`, the
/// template's holding, switching, sampling and horizon with their defaults
/// applied, and `policy`'s reconfiguration, fragmentation tracked and no
/// faults. The one place parameters become a [`SimConfig`]: [`run_trial`]
/// runs it as is, the `simulate` CLI sets its fault process and fragmentation
/// flag on top.
pub fn sim_config(
    template: &SpecTemplate,
    policy: &PolicySpec,
    mean_gap: u64,
    seed: u64,
    arrivals: u64,
) -> SimConfig {
    SimConfig {
        seed,
        arrivals,
        arrival_process: ArrivalProcess::Poisson { mean_gap },
        holding: HoldingTime::Exponential {
            mean: template.mean_hold(),
        },
        mode_switch_probability: template.switch_prob_pct() as f64 / 100.0,
        sample_interval: template.sample_interval(),
        horizon: template.horizon,
        reconfiguration: policy.to_policy(),
        track_fragmentation: true,
        faults: None,
    }
}

/// The flattened, all-integer result of one trial — one JSONL row.
/// Optional fields are `None` (serialized `null`) when the run admitted
/// nothing or produced no fragmentation samples, never a division by
/// zero.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TrialRecord {
    /// Trial id — rows stream in this order regardless of worker count.
    pub id: u64,
    /// Catalog name.
    pub catalog: String,
    /// Algorithm short name (the grouping key; the full display name
    /// lives in `SimReport`).
    pub algorithm: String,
    /// Poisson mean inter-arrival gap, ticks.
    pub mean_gap: u64,
    /// Admission-policy label (see `PolicySpec::label`).
    pub policy: String,
    /// Base seed from the spec axis.
    pub seed: u64,
    /// Repeat index within the seed.
    pub repeat: u64,
    /// Derived seed the run actually used.
    pub trial_seed: u64,
    /// Arrival events processed.
    pub arrivals: u64,
    /// Arrivals admitted with a feasible mapping.
    pub admitted: u64,
    /// Arrivals blocked.
    pub blocked: u64,
    /// Departures that released a running instance.
    pub departures: u64,
    /// Mode switches attempted.
    pub mode_switch_attempts: u64,
    /// Mode switches admitted.
    pub mode_switch_admitted: u64,
    /// Mode switches blocked.
    pub mode_switch_blocked: u64,
    /// Blocking probability over all admission attempts, permille.
    pub blocking_permille: u64,
    /// Energy integral ∫ running_energy dt, pJ·ticks.
    pub energy_pj_ticks: u64,
    /// Energy integral per admitted application; `None` when nothing
    /// was admitted.
    pub energy_pj_ticks_per_admitted: Option<u64>,
    /// Mean platform slot utilization over all samples, permille.
    pub mean_slots_permille: u64,
    /// Median per-sample fragmentation, permille; `None` without samples.
    pub frag_p50_permille: Option<u64>,
    /// 90th-percentile per-sample fragmentation, permille.
    pub frag_p90_permille: Option<u64>,
    /// Peak per-sample fragmentation, permille.
    pub frag_max_permille: Option<u64>,
    /// Most applications running at once.
    pub peak_running: u64,
    /// Virtual end time, ticks.
    pub end_time: u64,
    /// Assignments evaluated over all successful admissions.
    pub evaluated_assignments: u64,
    /// Refinement attempts over all admission attempts.
    pub refinement_attempts: u64,
    /// Blocked arrivals the reconfiguration retry admitted (0 for
    /// plain runs).
    pub recovered: u64,
    /// Migrations actually committed.
    pub migrations_committed: u64,
    /// Modelled state-transfer energy of committed migrations, pJ.
    pub migration_energy_pj: u64,
    /// Feasible plans the admission policy refused.
    pub plans_refused: u64,
    /// Blocked mode switches whose instance kept running.
    pub mode_switches_survived: u64,
    /// Template-library hits (admissions served from a cached shape);
    /// `None` when templates were off for this policy point.
    pub template_hits: Option<u64>,
    /// Template-library misses (full-algorithm fallback); `None` when off.
    pub template_misses: Option<u64>,
    /// Template hit rate over hits + misses, permille; `None` when off.
    pub template_hit_permille: Option<u64>,
    /// Shapes cached when the run sealed; `None` when templates were off.
    pub template_shapes_cached: Option<u64>,
    /// Whether the resource ledger was idle after teardown.
    pub ledger_idle_at_end: bool,
}

/// Runs one trial to completion and flattens the result.
///
/// # Panics
///
/// As for [`run_algorithm`].
pub fn run_trial(
    trial: &Trial,
    resolved: &ResolvedCatalog,
    template: &SpecTemplate,
) -> TrialRecord {
    let config = sim_config(
        template,
        &trial.policy,
        trial.mean_gap,
        trial.trial_seed(),
        trial.arrivals,
    );
    let algorithm =
        make_algorithm(&trial.algorithm).expect("trial algorithms are validated before expansion");
    let report = run_algorithm(resolved, algorithm, trial.policy.templates(), &config).report;
    let templates = report.templates.as_ref();

    let frag = report.frag_permille_sorted();
    let frag = (!frag.is_empty()).then(|| {
        let frag: Vec<u64> = frag.into_iter().map(u64::from).collect();
        (
            percentile(&frag, 50),
            percentile(&frag, 90),
            *frag.last().expect("non-empty"),
        )
    });
    let reconfiguration = report.reconfiguration.clone().unwrap_or_default();

    TrialRecord {
        id: trial.id,
        catalog: trial.catalog.clone(),
        algorithm: trial.algorithm.clone(),
        mean_gap: trial.mean_gap,
        policy: trial.policy.label(),
        seed: trial.seed,
        repeat: trial.repeat,
        trial_seed: trial.trial_seed(),
        arrivals: report.arrivals,
        admitted: report.admitted,
        blocked: report.blocked,
        departures: report.departures,
        mode_switch_attempts: report.mode_switch_attempts,
        mode_switch_admitted: report.mode_switch_admitted,
        mode_switch_blocked: report.mode_switch_blocked,
        blocking_permille: report.blocking_permille,
        energy_pj_ticks: report.energy_pj_ticks,
        energy_pj_ticks_per_admitted: report.energy_pj_ticks_per_admitted(),
        mean_slots_permille: report.mean_slots_permille(),
        frag_p50_permille: frag.map(|f| f.0),
        frag_p90_permille: frag.map(|f| f.1),
        frag_max_permille: frag.map(|f| f.2),
        peak_running: report.peak_running,
        end_time: report.end_time,
        evaluated_assignments: report.evaluated_assignments,
        refinement_attempts: report.refinement_attempts,
        recovered: reconfiguration.admissions_recovered,
        migrations_committed: reconfiguration.migrations_committed,
        migration_energy_pj: reconfiguration.migration_energy_pj,
        plans_refused: reconfiguration.plans_refused,
        mode_switches_survived: reconfiguration.mode_switches_survived,
        template_hits: templates.map(|t| t.hits),
        template_misses: templates.map(|t| t.misses),
        template_hit_permille: templates.map(|t| t.hit_permille),
        template_shapes_cached: templates.map(|t| t.shapes_cached),
        ledger_idle_at_end: report.ledger_idle_at_end,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::PolicySpec;

    fn template() -> SpecTemplate {
        SpecTemplate {
            arrivals: 40,
            mean_hold: None,
            switch_prob_pct: None,
            sample_interval: None,
            horizon: None,
            platform_seed: None,
        }
    }

    fn trial() -> Trial {
        Trial {
            id: 0,
            catalog: "hiperlan2".to_string(),
            algorithm: "greedy".to_string(),
            mean_gap: 500,
            policy: PolicySpec::none(),
            seed: 7,
            repeat: 0,
            arrivals: 40,
        }
    }

    #[test]
    fn trial_seeds_stride_away_from_neighbouring_base_seeds() {
        let mut t = trial();
        assert_eq!(t.trial_seed(), 7);
        t.repeat = 1;
        let strided = t.trial_seed();
        assert_ne!(strided, 7);
        assert_ne!(strided, 8, "repeat 1 must not collide with seed+1");
    }

    #[test]
    fn every_valid_name_resolves_and_unknowns_do_not() {
        for name in VALID_CATALOGS {
            assert!(resolve_catalog(name, 42).is_some(), "{name}");
        }
        assert!(resolve_catalog("mixedd", 42).is_none());
        for name in VALID_ALGORITHMS {
            assert!(make_algorithm(name).is_some(), "{name}");
        }
        assert!(make_algorithm("gredy").is_none());
    }

    #[test]
    fn run_trial_is_deterministic_and_flattens_the_report() {
        let resolved = resolve_catalog("hiperlan2", 42).unwrap();
        let a = run_trial(&trial(), &resolved, &template());
        let b = run_trial(&trial(), &resolved, &template());
        assert_eq!(a, b);
        assert_eq!(a.arrivals, 40);
        assert_eq!(a.admitted + a.blocked, 40);
        assert!(a.ledger_idle_at_end);
        assert_eq!(a.policy, "none");
        assert_eq!(a.recovered, 0, "plain runs never recover admissions");
        // Fragmentation is tracked for every trial, so the percentile
        // summary is present and ordered.
        let (p50, p90, max) = (
            a.frag_p50_permille.unwrap(),
            a.frag_p90_permille.unwrap(),
            a.frag_max_permille.unwrap(),
        );
        assert!(p50 <= p90 && p90 <= max);
    }

    #[test]
    fn templated_trials_hit_and_stay_deterministic() {
        let resolved = resolve_catalog("hiperlan2", 42).unwrap();
        let mut t = trial();
        t.policy.templates = Some(true);
        let a = run_trial(&t, &resolved, &template());
        let b = run_trial(&t, &resolved, &template());
        assert_eq!(a, b, "templated trials must replay byte-identically");
        let (hits, misses) = (a.template_hits.unwrap(), a.template_misses.unwrap());
        assert!(hits > 0, "a 40-arrival HIPERLAN/2 run must reuse shapes");
        assert_eq!(
            a.template_hit_permille.unwrap(),
            hits * 1000 / (hits + misses)
        );
        assert!(a.template_shapes_cached.unwrap() > 0);
        assert!(a.ledger_idle_at_end);
        // The untemplated twin leaves the whole section null.
        let plain = run_trial(&trial(), &resolved, &template());
        assert_eq!(plain.template_hits, None);
        assert_eq!(plain.template_shapes_cached, None);
    }

    #[test]
    fn zero_admissions_yield_none_not_a_panic() {
        // A horizon of 1 tick elapses before the first Poisson arrival
        // (gaps are ≥ 1), so the run seals with zero arrivals admitted.
        let resolved = resolve_catalog("hiperlan2", 42).unwrap();
        let mut template = template();
        template.horizon = Some(1);
        let record = run_trial(&trial(), &resolved, &template);
        assert_eq!(record.admitted, 0);
        assert_eq!(record.energy_pj_ticks_per_admitted, None);
        assert_eq!(record.blocking_permille, 0);
        assert!(record.ledger_idle_at_end);
    }
}
