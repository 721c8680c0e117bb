//! Sealed aggregate tables and Pareto fronts: the [`ExperimentReport`].
//!
//! [`aggregate`] groups trial records by (catalog, algorithm, mean_gap,
//! policy) — repeats and seeds collapse into across-seed summaries with
//! 95% confidence intervals — and traces, per catalog, the Pareto front
//! over (blocking, energy per admitted): the harness-scale version of
//! the paper's quality-of-mapping trade-off. Groups appear in
//! first-seen trial-id order, front points in (blocking, energy) order,
//! so the sealed report is byte-identical for a given record stream.

use crate::spec::ExperimentSpec;
use crate::stats::{summarize, StatSummary};
use crate::trial::TrialRecord;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Schema marker of the sealed report format.
pub const REPORT_SCHEMA: &str = "rtsm-exp-report/1";

/// One aggregated cell of the sweep matrix: every seed × repeat of one
/// (catalog, algorithm, mean_gap, policy) configuration.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct AggregateRow {
    /// Catalog name.
    pub catalog: String,
    /// Algorithm short name.
    pub algorithm: String,
    /// Poisson mean inter-arrival gap, ticks.
    pub mean_gap: u64,
    /// Admission-policy label.
    pub policy: String,
    /// Trials aggregated into this row (seeds × repeats).
    pub trials: u64,
    /// Total arrivals across the row's trials.
    pub arrivals: u64,
    /// Total admissions.
    pub admitted: u64,
    /// Total blocked arrivals.
    pub blocked: u64,
    /// Total recovered admissions (reconfiguration retries).
    pub recovered: u64,
    /// Total committed migrations.
    pub migrations_committed: u64,
    /// Total migration energy, pJ.
    pub migration_energy_pj: u64,
    /// Total feasible plans the admission policy refused.
    pub plans_refused: u64,
    /// Across-trial summary of per-trial blocking, permille.
    pub blocking_permille: StatSummary,
    /// Across-trial summary of energy per admitted application;
    /// `None` when no trial of the row admitted anything.
    pub energy_pj_ticks_per_admitted: Option<StatSummary>,
    /// Across-trial summary of the per-trial median fragmentation;
    /// `None` when no trial produced fragmentation samples.
    pub frag_p50_permille: Option<StatSummary>,
    /// Whether this row is on its catalog's Pareto front.
    pub pareto: bool,
}

/// One point of a catalog's Pareto front, minimizing mean blocking and
/// mean energy per admitted application simultaneously.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FrontPoint {
    /// Algorithm short name.
    pub algorithm: String,
    /// Poisson mean inter-arrival gap, ticks.
    pub mean_gap: u64,
    /// Admission-policy label.
    pub policy: String,
    /// Mean blocking across the row's trials, permille.
    pub blocking_permille: u64,
    /// Mean energy per admitted application, pJ·ticks.
    pub energy_pj_ticks_per_admitted: u64,
    /// Total migration energy the row spent, pJ.
    pub migration_energy_pj: u64,
}

/// The non-dominated configurations of one catalog.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CatalogFront {
    /// Catalog name.
    pub catalog: String,
    /// Front points, sorted by (blocking, energy, algorithm, mean_gap,
    /// policy).
    pub points: Vec<FrontPoint>,
}

/// The sealed result of one experiment: the spec it ran, totals,
/// aggregate tables, Pareto fronts, and the FNV-1a digest of the JSONL
/// record stream. Worker count and wall-clock never appear here — the
/// report is byte-identical for a given spec.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ExperimentReport {
    /// Report format marker ([`REPORT_SCHEMA`]).
    pub schema: String,
    /// Experiment name from the spec.
    pub name: String,
    /// The spec that produced this report, embedded verbatim.
    pub spec: ExperimentSpec,
    /// Trials executed.
    pub n_trials: u64,
    /// Total arrival events across all trials.
    pub total_arrivals: u64,
    /// Total admissions across all trials.
    pub total_admitted: u64,
    /// Total blocked arrivals across all trials.
    pub total_blocked: u64,
    /// Total recovered admissions across all trials.
    pub total_recovered: u64,
    /// One row per (catalog, algorithm, mean_gap, policy), in
    /// first-seen trial-id order.
    pub aggregates: Vec<AggregateRow>,
    /// One Pareto front per catalog, in first-seen order.
    pub pareto_fronts: Vec<CatalogFront>,
    /// FNV-1a 64 digest of the per-trial JSONL stream (each line plus
    /// its newline) — ties the sealed report to the exact records.
    pub trials_fnv1a: u64,
}

/// `a` dominates `b` when it is no worse on both objectives and
/// strictly better on at least one.
fn dominates(a: (u64, u64), b: (u64, u64)) -> bool {
    a.0 <= b.0 && a.1 <= b.1 && (a.0 < b.0 || a.1 < b.1)
}

/// Seals `records` (in trial-id order) into an [`ExperimentReport`].
pub fn aggregate(
    spec: &ExperimentSpec,
    records: &[TrialRecord],
    trials_fnv1a: u64,
) -> ExperimentReport {
    // Group in first-seen (trial-id) order; the BTreeMap only finds the
    // group index, the Vec keeps the order.
    let mut index: BTreeMap<(&str, &str, u64, &str), usize> = BTreeMap::new();
    let mut groups: Vec<Vec<&TrialRecord>> = Vec::new();
    for record in records {
        let key = (
            record.catalog.as_str(),
            record.algorithm.as_str(),
            record.mean_gap,
            record.policy.as_str(),
        );
        match index.get(&key) {
            Some(&pos) => groups[pos].push(record),
            None => {
                index.insert(key, groups.len());
                groups.push(vec![record]);
            }
        }
    }

    let mut aggregates: Vec<AggregateRow> = groups
        .iter()
        .map(|group| {
            let blocking: Vec<u64> = group.iter().map(|r| r.blocking_permille).collect();
            let energy: Vec<u64> = group
                .iter()
                .filter_map(|r| r.energy_pj_ticks_per_admitted)
                .collect();
            let frag: Vec<u64> = group.iter().filter_map(|r| r.frag_p50_permille).collect();
            let first = group[0];
            AggregateRow {
                catalog: first.catalog.clone(),
                algorithm: first.algorithm.clone(),
                mean_gap: first.mean_gap,
                policy: first.policy.clone(),
                trials: group.len() as u64,
                arrivals: group.iter().map(|r| r.arrivals).sum(),
                admitted: group.iter().map(|r| r.admitted).sum(),
                blocked: group.iter().map(|r| r.blocked).sum(),
                recovered: group.iter().map(|r| r.recovered).sum(),
                migrations_committed: group.iter().map(|r| r.migrations_committed).sum(),
                migration_energy_pj: group.iter().map(|r| r.migration_energy_pj).sum(),
                plans_refused: group.iter().map(|r| r.plans_refused).sum(),
                blocking_permille: summarize(&blocking)
                    .expect("every group holds at least one trial"),
                energy_pj_ticks_per_admitted: summarize(&energy),
                frag_p50_permille: summarize(&frag),
                pareto: false,
            }
        })
        .collect();

    // Per-catalog Pareto fronts over (mean blocking, mean energy per
    // admitted); rows that admitted nothing have no energy coordinate
    // and stay off the front.
    let mut pareto_fronts: Vec<CatalogFront> = Vec::new();
    for catalog in &spec.catalogs {
        let candidates: Vec<usize> = aggregates
            .iter()
            .enumerate()
            .filter(|(_, row)| {
                row.catalog == *catalog && row.energy_pj_ticks_per_admitted.is_some()
            })
            .map(|(i, _)| i)
            .collect();
        let coords: Vec<(usize, (u64, u64))> = candidates
            .iter()
            .map(|&i| {
                let row = &aggregates[i];
                (
                    i,
                    (
                        row.blocking_permille.mean,
                        row.energy_pj_ticks_per_admitted
                            .expect("candidates carry an energy summary")
                            .mean,
                    ),
                )
            })
            .collect();
        let winners: Vec<usize> = coords
            .iter()
            .filter(|(i, c)| !coords.iter().any(|(j, d)| j != i && dominates(*d, *c)))
            .map(|(i, _)| *i)
            .collect();
        let mut points: Vec<FrontPoint> = Vec::with_capacity(winners.len());
        for &i in &winners {
            aggregates[i].pareto = true;
            let row = &aggregates[i];
            points.push(FrontPoint {
                algorithm: row.algorithm.clone(),
                mean_gap: row.mean_gap,
                policy: row.policy.clone(),
                blocking_permille: row.blocking_permille.mean,
                energy_pj_ticks_per_admitted: row
                    .energy_pj_ticks_per_admitted
                    .expect("candidates carry an energy summary")
                    .mean,
                migration_energy_pj: row.migration_energy_pj,
            });
        }
        points.sort_by(|a, b| {
            (a.blocking_permille, a.energy_pj_ticks_per_admitted)
                .cmp(&(b.blocking_permille, b.energy_pj_ticks_per_admitted))
                .then_with(|| a.algorithm.cmp(&b.algorithm))
                .then_with(|| a.mean_gap.cmp(&b.mean_gap))
                .then_with(|| a.policy.cmp(&b.policy))
        });
        pareto_fronts.push(CatalogFront {
            catalog: catalog.clone(),
            points,
        });
    }

    ExperimentReport {
        schema: REPORT_SCHEMA.to_string(),
        name: spec.name.clone(),
        spec: spec.clone(),
        n_trials: records.len() as u64,
        total_arrivals: records.iter().map(|r| r.arrivals).sum(),
        total_admitted: records.iter().map(|r| r.admitted).sum(),
        total_blocked: records.iter().map(|r| r.blocked).sum(),
        total_recovered: records.iter().map(|r| r.recovered).sum(),
        aggregates,
        pareto_fronts,
        trials_fnv1a,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{PolicySpec, SpecTemplate};

    fn record(
        id: u64,
        algorithm: &str,
        seed: u64,
        blocking: u64,
        energy: Option<u64>,
    ) -> TrialRecord {
        TrialRecord {
            id,
            catalog: "hiperlan2".to_string(),
            algorithm: algorithm.to_string(),
            mean_gap: 500,
            policy: "none".to_string(),
            seed,
            repeat: 0,
            trial_seed: seed,
            arrivals: 100,
            admitted: 90,
            blocked: 10,
            departures: 90,
            mode_switch_attempts: 0,
            mode_switch_admitted: 0,
            mode_switch_blocked: 0,
            blocking_permille: blocking,
            energy_pj_ticks: 1000,
            energy_pj_ticks_per_admitted: energy,
            mean_slots_permille: 400,
            frag_p50_permille: Some(100),
            frag_p90_permille: Some(200),
            frag_max_permille: Some(300),
            peak_running: 5,
            end_time: 50_000,
            evaluated_assignments: 1,
            refinement_attempts: 1,
            recovered: 0,
            migrations_committed: 0,
            migration_energy_pj: 0,
            plans_refused: 0,
            mode_switches_survived: 0,
            template_hits: None,
            template_misses: None,
            template_hit_permille: None,
            template_shapes_cached: None,
            ledger_idle_at_end: true,
        }
    }

    fn spec() -> ExperimentSpec {
        ExperimentSpec {
            schema: None,
            name: "unit".to_string(),
            template: SpecTemplate {
                arrivals: 100,
                mean_hold: None,
                switch_prob_pct: None,
                sample_interval: None,
                horizon: None,
                platform_seed: None,
            },
            algorithms: vec!["greedy".to_string(), "paper".to_string()],
            catalogs: vec!["hiperlan2".to_string()],
            mean_gaps: vec![500],
            policies: vec![PolicySpec::none()],
            seeds: vec![1, 2],
            repeats: None,
        }
    }

    #[test]
    fn groups_collapse_seeds_in_first_seen_order() {
        let records = vec![
            record(0, "greedy", 1, 100, Some(10)),
            record(1, "greedy", 2, 200, Some(20)),
            record(2, "paper", 1, 50, Some(40)),
            record(3, "paper", 2, 70, Some(60)),
        ];
        let report = aggregate(&spec(), &records, 7);
        assert_eq!(report.schema, REPORT_SCHEMA);
        assert_eq!(report.n_trials, 4);
        assert_eq!(report.total_arrivals, 400);
        assert_eq!(report.trials_fnv1a, 7);
        assert_eq!(report.aggregates.len(), 2);
        assert_eq!(report.aggregates[0].algorithm, "greedy");
        assert_eq!(report.aggregates[0].trials, 2);
        assert_eq!(report.aggregates[0].blocking_permille.mean, 150);
        assert_eq!(
            report.aggregates[1]
                .energy_pj_ticks_per_admitted
                .unwrap()
                .mean,
            50
        );
    }

    #[test]
    fn pareto_front_keeps_only_non_dominated_rows() {
        // greedy: (150 blocking, 15 energy) — dominated on neither axis
        // by paper's (60, 50): both stay. A third config dominated by
        // greedy on both axes must drop.
        let mut worse = record(4, "random", 1, 300, Some(90));
        worse.policy = "none".to_string();
        let records = vec![
            record(0, "greedy", 1, 100, Some(10)),
            record(1, "greedy", 2, 200, Some(20)),
            record(2, "paper", 1, 50, Some(40)),
            record(3, "paper", 2, 70, Some(60)),
            worse,
        ];
        let report = aggregate(&spec(), &records, 0);
        assert_eq!(report.pareto_fronts.len(), 1);
        let front = &report.pareto_fronts[0];
        assert_eq!(front.catalog, "hiperlan2");
        let on_front: Vec<&str> = front.points.iter().map(|p| p.algorithm.as_str()).collect();
        assert_eq!(on_front, vec!["paper", "greedy"], "sorted by blocking");
        let flags: Vec<bool> = report.aggregates.iter().map(|r| r.pareto).collect();
        assert_eq!(flags, vec![true, true, false]);
    }

    #[test]
    fn rows_without_admissions_stay_off_the_front() {
        let records = vec![record(0, "greedy", 1, 1000, None)];
        let report = aggregate(&spec(), &records, 0);
        assert_eq!(report.aggregates[0].energy_pj_ticks_per_admitted, None);
        assert!(!report.aggregates[0].pareto);
        assert!(report.pareto_fronts[0].points.is_empty());
    }
}
