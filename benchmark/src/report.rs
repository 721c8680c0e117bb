//! Output: the one-line result the driver reads, the human table, the
//! `report.json` of a whole set, and the A/A self-check.

use crate::metrics::{Row, RunResult, END_TO_END};
use serde::Value;

fn map(entries: Vec<(&str, Value)>) -> Value {
    Value::Map(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn text(s: &str) -> Value {
    Value::Str(s.to_string())
}

/// The result line of one run: `correct`, `attempted`, `failed`, and every
/// metric's value with its unit.
pub fn result_line(result: &RunResult) -> String {
    let metrics = result
        .metrics
        .iter()
        .map(|row| {
            let entry = map(vec![
                ("value", Value::Float(row.value)),
                ("unit", text(row.unit)),
            ]);
            (row.name.to_string(), entry)
        })
        .collect();
    let line = map(vec![
        ("correct", Value::Bool(result.failed == 0)),
        ("attempted", Value::UInt(result.attempted.max(1).into())),
        ("failed", Value::UInt(result.failed.into())),
        ("metrics", Value::Map(metrics)),
    ]);
    serde_json::to_string(&line).expect("values serialize")
}

/// Prints every metric of `result` by name: unit, value, median, quartiles
/// and the number of repeats behind them.
pub fn print_table(result: &RunResult) {
    println!(
        "## {} ({}) — {} ops attempted, {} failed (share {:.6}), digest {:016x}",
        result.workload,
        if result.traced {
            "traced, per layer"
        } else {
            "untraced, end to end"
        },
        result.attempted,
        result.failed,
        result.failure_share(),
        result.digest,
    );
    println!(
        "{:<40} {:>8} {:>13} {:>13} {:>13} {:>13} {:>3}",
        "metric", "unit", "value", "median", "q1", "q3", "n"
    );
    for row in &result.metrics {
        let s = &row.summary;
        println!(
            "{:<40} {:>8} {:>13.3} {:>13.3} {:>13.3} {:>13.3} {:>3}",
            row.name, row.unit, row.value, s.median, s.q1, s.q3, s.n
        );
    }
    println!();
}

/// `report.json`: every run of a set, with values, medians, quartiles and
/// counts.
pub fn report_json(results: &[RunResult], seed: u64, quick: bool) -> String {
    let runs = results
        .iter()
        .map(|r| {
            let metrics = r
                .metrics
                .iter()
                .map(|row| {
                    let s = &row.summary;
                    let entry = map(vec![
                        ("unit", text(row.unit)),
                        ("value", Value::Float(row.value)),
                        ("median", Value::Float(s.median)),
                        ("q1", Value::Float(s.q1)),
                        ("q3", Value::Float(s.q3)),
                        ("n", Value::UInt(s.n as u128)),
                    ]);
                    (row.name.to_string(), entry)
                })
                .collect();
            map(vec![
                ("workload", text(r.workload)),
                ("traced", Value::Bool(r.traced)),
                ("attempted", Value::UInt(r.attempted.into())),
                ("failed", Value::UInt(r.failed.into())),
                ("failure_share", Value::Float(r.failure_share())),
                ("digest", text(&format!("{:016x}", r.digest))),
                ("metrics", Value::Map(metrics)),
            ])
        })
        .collect();
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let doc = map(vec![
        ("schema", text("rtsm-benchmark/1")),
        ("seed", Value::UInt(seed.into())),
        // Quick runs use a tenth of the op counts: not comparable.
        ("comparable", Value::Bool(!quick)),
        ("cores", Value::UInt(cores as u128)),
        ("claim", Value::Null),
        ("runs", Value::Seq(runs)),
    ]);
    serde_json::to_string(&doc).expect("values serialize")
}

/// How one end-to-end metric fared between two sets of the same binary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Agreement {
    /// The second value is within the bound of the first.
    Unchanged,
    /// A set's interquartile range exceeds the bound: the run-to-run
    /// spread is too wide to call the metric unchanged.
    Unresolved,
    /// The second value is worse than the first by more than the bound.
    Differs,
}

/// Compares one metric between two sets under `bound`.
pub fn agreement(first: &Row, second: &Row, bound: f64) -> Agreement {
    let (a, b) = (first.value, second.value);
    let worse_by = if first.better == "higher" {
        (a - b) / a
    } else {
        (b - a) / a
    };
    if worse_by > bound {
        Agreement::Differs
    } else if first.summary.spread() > bound || second.summary.spread() > bound {
        Agreement::Unresolved
    } else {
        Agreement::Unchanged
    }
}

/// Prints the A/A comparison of two untraced sets; returns whether every
/// metric of every workload agreed (unresolved metrics do not fail it,
/// but are printed as such).
pub fn print_self_check(first: &[RunResult], second: &[RunResult]) -> bool {
    let mut agreed = true;
    println!(
        "{:<16} {:<18} {:>14} {:>14} {:>8} {:>7}  verdict",
        "workload", "metric", "first", "second", "delta%", "bound%"
    );
    for (a, b) in first.iter().zip(second) {
        if a.digest != b.digest {
            println!(
                "{:<16} digests differ: {:016x} vs {:016x}",
                a.workload, a.digest, b.digest
            );
            agreed = false;
        }
        for (ra, rb) in a.metrics.iter().zip(&b.metrics) {
            let bound = END_TO_END
                .iter()
                .find(|m| m.0 == ra.name)
                .expect("untraced runs report end-to-end metrics")
                .3;
            let verdict = agreement(ra, rb, bound);
            agreed &= verdict != Agreement::Differs;
            println!(
                "{:<16} {:<18} {:>14.3} {:>14.3} {:>8.2} {:>7.1}  {}",
                a.workload,
                ra.name,
                ra.value,
                rb.value,
                (rb.value - ra.value) * 100.0 / ra.value,
                bound * 100.0,
                match verdict {
                    Agreement::Unchanged => "unchanged",
                    Agreement::Unresolved => "unresolved",
                    Agreement::Differs => "DIFFERS",
                }
            );
        }
    }
    agreed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::PER_LAYER;
    use crate::stats::Summary;
    use crate::workload::WORKLOADS;

    fn result(traced: bool) -> RunResult {
        let summary = Summary::of(&[1.5, 2.5, 3.5]);
        let row = |(name, unit, better)| Row {
            name,
            unit,
            better,
            value: summary.median,
            summary,
        };
        let metrics = if traced {
            PER_LAYER.iter().copied().map(row).collect()
        } else {
            END_TO_END
                .iter()
                .map(|&(n, u, b, _)| row((n, u, b)))
                .collect()
        };
        RunResult {
            workload: WORKLOADS[0].name,
            traced,
            attempted: 10,
            failed: 0,
            metrics,
            digest: 7,
        }
    }

    fn keys(value: &Value, key: &str) -> Vec<String> {
        let Value::Map(entries) = value else {
            panic!("not an object")
        };
        let (_, inner) = entries.iter().find(|(k, _)| k == key).expect(key);
        match inner {
            Value::Map(entries) => entries.iter().map(|(k, _)| k.clone()).collect(),
            _ => panic!("`{key}` is not an object"),
        }
    }

    #[test]
    fn result_line_carries_exactly_the_tabled_metrics() {
        for traced in [false, true] {
            let line: Value = serde_json::from_str(&result_line(&result(traced))).unwrap();
            let Value::Map(entries) = &line else {
                panic!("not an object")
            };
            let top: Vec<&str> = entries.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(top, ["correct", "attempted", "failed", "metrics"]);
            let expected: Vec<&str> = if traced {
                PER_LAYER.iter().map(|m| m.0).collect()
            } else {
                END_TO_END.iter().map(|m| m.0).collect()
            };
            assert_eq!(keys(&line, "metrics"), expected);
        }
    }

    #[test]
    fn report_json_names_every_run_and_claims_nothing() {
        let doc: Value =
            serde_json::from_str(&report_json(&[result(false), result(true)], 2008, false))
                .unwrap();
        let Value::Map(entries) = &doc else {
            panic!("not an object")
        };
        assert!(entries.contains(&("claim".to_string(), Value::Null)));
        let Some((_, Value::Seq(runs))) = entries.iter().find(|(k, _)| k == "runs") else {
            panic!("no runs")
        };
        assert_eq!(runs.len(), 2);
        assert_eq!(keys(&runs[0], "metrics").len(), END_TO_END.len());
        assert_eq!(keys(&runs[1], "metrics").len(), PER_LAYER.len());
    }

    #[test]
    fn agreement_separates_unchanged_unresolved_and_differs() {
        let row = |better, values: &[f64]| Row {
            name: "m",
            unit: "us",
            better,
            value: values[0],
            summary: Summary::of(values),
        };
        let tight = |better, m: f64| row(better, &[m, m * 1.01, m * 1.02]);
        let wide = |better, m: f64| row(better, &[m, m * 1.2, m * 1.4]);
        let verdict = |a: Row, b: Row| agreement(&a, &b, 0.1);
        let (lo, hi) = ("lower", "higher");
        assert_eq!(
            verdict(tight(lo, 100.0), tight(lo, 105.0)),
            Agreement::Unchanged
        );
        assert_eq!(
            verdict(tight(lo, 100.0), tight(lo, 115.0)),
            Agreement::Differs
        );
        // Lower is worse for a throughput.
        assert_eq!(
            verdict(tight(hi, 100.0), tight(hi, 85.0)),
            Agreement::Differs
        );
        assert_eq!(
            verdict(tight(hi, 100.0), tight(hi, 115.0)),
            Agreement::Unchanged
        );
        assert_eq!(
            verdict(wide(lo, 100.0), tight(lo, 101.0)),
            Agreement::Unresolved
        );
    }
}
