//! The experiment runner: validate, expand, fan out, stream, seal.
//!
//! [`run_experiment`] is the one entry point the `experiment` bin and
//! the tests share. It resolves each catalog **once** (workers share the
//! read-only platform/catalog by reference across the scoped pool — no
//! per-worker clones), fans the expanded trials across the pool, streams
//! every [`TrialRecord`] to the caller as a serialized JSONL line in
//! trial-id order while later trials still run, and seals the
//! [`ExperimentReport`] with the stream's FNV-1a digest. The one stopwatch
//! (around the pool) and the worker count live only in [`ExperimentRun`];
//! the report type has no field that could hold either.

use crate::pool::run_ordered;
use crate::report::{aggregate, ExperimentReport};
use crate::spec::ExperimentSpec;
use crate::stats::{fnv1a64, FNV_OFFSET};
use crate::trial::{resolve_catalog, run_trial, ResolvedCatalog, TrialRecord};
use std::collections::BTreeMap;
use std::fmt;
use std::time::{Duration, Instant};

/// A spec-level failure: invalid axes, unknown names, empty matrices.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExpError(pub String);

impl fmt::Display for ExpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "experiment error: {}", self.0)
    }
}

impl std::error::Error for ExpError {}

/// The outcome of one experiment: the sealed deterministic report plus
/// the run-dependent envelope (records, event count, wall time).
#[derive(Debug, Clone)]
pub struct ExperimentRun {
    /// The sealed, worker-count-independent report.
    pub report: ExperimentReport,
    /// Every trial record, in trial-id order.
    pub records: Vec<TrialRecord>,
    /// Simulation events processed across all trials (arrivals +
    /// departures + mode-switch attempts) — the numerator of events/s.
    pub events: u64,
    /// Wall-clock time of the fan-out (excludes catalog resolution).
    pub wall: Duration,
}

impl ExperimentRun {
    /// Events per second of wall time (0 when the run was too fast to
    /// measure).
    pub fn events_per_second(&self) -> u64 {
        let micros = self.wall.as_micros();
        if micros == 0 {
            return 0;
        }
        (u128::from(self.events) * 1_000_000 / micros) as u64
    }
}

/// Runs `spec` across `workers` threads. `on_record` observes every
/// trial as `(record, jsonl_line)` strictly in trial-id order, while
/// the run is still in flight — stream it to disk for live progress.
///
/// # Errors
///
/// [`ExpError`] when the spec fails validation; individual trials never
/// fail (a broken simulation invariant panics instead).
pub fn run_experiment(
    spec: &ExperimentSpec,
    workers: usize,
    mut on_record: impl FnMut(&TrialRecord, &str),
) -> Result<ExperimentRun, ExpError> {
    spec.validate().map_err(ExpError)?;
    let trials = spec.expand();
    let mut catalogs: BTreeMap<&str, ResolvedCatalog> = BTreeMap::new();
    for name in &spec.catalogs {
        let resolved = resolve_catalog(name, spec.template.platform_seed())
            .ok_or_else(|| ExpError(format!("unknown catalog `{name}`")))?;
        catalogs.insert(name.as_str(), resolved);
    }

    let start = Instant::now();
    let mut digest = FNV_OFFSET;
    let records = run_ordered(
        &trials,
        workers,
        |_, trial| {
            let resolved = catalogs
                .get(trial.catalog.as_str())
                .expect("every expanded trial names a resolved catalog");
            run_trial(trial, resolved, &spec.template)
        },
        |_, record| {
            let line = serde_json::to_string(record).expect("trial records serialize");
            digest = fnv1a64(line.as_bytes(), digest);
            digest = fnv1a64(b"\n", digest);
            on_record(record, &line);
        },
    );
    let wall = start.elapsed();
    let events = records
        .iter()
        .map(|r| r.arrivals + r.departures + r.mode_switch_attempts)
        .sum();
    let report = aggregate(spec, &records, digest);
    Ok(ExperimentRun {
        report,
        records,
        events,
        wall,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{PolicySpec, SpecTemplate};

    fn tiny_spec() -> ExperimentSpec {
        ExperimentSpec {
            schema: None,
            name: "runner-unit".to_string(),
            template: SpecTemplate {
                arrivals: 30,
                mean_hold: None,
                switch_prob_pct: None,
                sample_interval: None,
                horizon: None,
                platform_seed: None,
            },
            algorithms: vec!["greedy".to_string()],
            catalogs: vec!["hiperlan2".to_string()],
            mean_gaps: vec![500, 1500],
            policies: vec![PolicySpec::none()],
            seeds: vec![1, 2],
            repeats: None,
        }
    }

    #[test]
    fn sealed_reports_are_identical_across_worker_counts() {
        let spec = tiny_spec();
        let mut lines_one = String::new();
        let one = run_experiment(&spec, 1, |_, line| {
            lines_one.push_str(line);
            lines_one.push('\n');
        })
        .unwrap();
        let mut lines_four = String::new();
        let four = run_experiment(&spec, 4, |_, line| {
            lines_four.push_str(line);
            lines_four.push('\n');
        })
        .unwrap();
        assert_eq!(lines_one, lines_four, "JSONL streams must match");
        let a = serde_json::to_string(&one.report).unwrap();
        let b = serde_json::to_string(&four.report).unwrap();
        assert_eq!(a, b, "sealed reports must be byte-identical");
        assert_eq!(one.report.n_trials, 4);
        assert_eq!(one.report.total_arrivals, 4 * 30);
        assert!(one.events >= one.report.total_arrivals);
    }

    #[test]
    fn records_stream_in_trial_id_order() {
        let mut seen = Vec::new();
        run_experiment(&tiny_spec(), 3, |record, _| seen.push(record.id)).unwrap();
        assert_eq!(seen, vec![0, 1, 2, 3]);
    }

    #[test]
    fn invalid_specs_fail_before_any_trial_runs() {
        let mut spec = tiny_spec();
        spec.catalogs = vec!["nope".to_string()];
        let mut ran = false;
        let err = run_experiment(&spec, 2, |_, _| ran = true).unwrap_err();
        assert!(err.0.contains("nope"));
        assert!(!ran);
    }
}
