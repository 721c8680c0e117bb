//! The metric tables — mirrored by `BENCHMARK.json`, which a unit test
//! holds them to — and the per-run value store.

use crate::stats::Summary;
use std::collections::BTreeMap;

/// One end-to-end metric: `(name, unit, better, bound)`. `bound` is the
/// share of the baseline by which it may worsen. The timing bounds are as
/// wide as the contract allows because the box this was written on has
/// noisy spells in which whole runs read 15-70 % worse; the two
/// deterministic metrics need one at all only because they depend on the
/// seed.
pub type EndToEnd = (&'static str, &'static str, &'static str, f64);

/// One metric: `(name, unit, better)`.
pub type Metric = (&'static str, &'static str, &'static str);

/// The numbers a user of the stack feels; every workload reports all.
pub const END_TO_END: [EndToEnd; 7] = [
    ("setup_s", "s", "lower", 0.25),
    ("admit_p50_us", "us", "lower", 0.25),
    ("admit_p99_us", "us", "lower", 0.25),
    ("ops_per_s", "ops/s", "higher", 0.25),
    ("sim_events_per_s", "events/s", "higher", 0.25),
    ("blocked_permille", "permille", "lower", 0.1),
    ("peak_live_kib", "KiB", "lower", 0.25),
];

/// One outside-in figure (or a few) per layer of `docs/ARCHITECTURE.md`.
pub const PER_LAYER: [Metric; 60] = [
    ("runtime.start.count", "count", "lower"),
    ("runtime.start.self_p50_us", "us", "lower"),
    ("runtime.start_admitted.p50_us", "us", "lower"),
    ("runtime.start_blocked.p50_us", "us", "lower"),
    ("runtime.stop.p50_us", "us", "lower"),
    ("runtime.switch.p50_us", "us", "lower"),
    ("runtime.self_share_permille", "permille", "lower"),
    ("runtime.reconfigure.count", "count", "lower"),
    ("runtime.reconfigure.p50_us", "us", "lower"),
    ("runtime.reconfigure.p99_us", "us", "lower"),
    (
        "runtime.reconfigure.recovered_permille",
        "permille",
        "higher",
    ),
    ("runtime.evacuate.count", "count", "lower"),
    ("runtime.evacuate.p50_us", "us", "lower"),
    ("runtime.evacuate.p99_us", "us", "lower"),
    ("runtime.evacuate.evicted_permille", "permille", "lower"),
    ("runtime.utilization.p50_us", "us", "lower"),
    ("template.lookups", "count", "lower"),
    ("template.hit_permille", "permille", "higher"),
    ("template.hit.p50_us", "us", "lower"),
    ("template.miss_overhead.p50_us", "us", "lower"),
    ("template.self_share_permille", "permille", "lower"),
    ("template.shapes_cached", "count", "lower"),
    ("mapper.calls", "count", "lower"),
    ("mapper.ok.p50_us", "us", "lower"),
    ("mapper.err.p50_us", "us", "lower"),
    ("mapper.attempts_per_call_milli", "milli", "lower"),
    ("mapper.share_permille", "permille", "lower"),
    ("mapper.step1.p50_us", "us", "lower"),
    ("mapper.step2.p50_us", "us", "lower"),
    ("mapper.step3.p50_us", "us", "lower"),
    ("mapper.step4.p50_us", "us", "lower"),
    ("mapper.steps_residue_permille", "permille", "lower"),
    ("dataflow.throughput_check.p50_us", "us", "lower"),
    ("dataflow.size_buffers.p50_us", "us", "lower"),
    ("dataflow.csdf_actors_mean", "count", "lower"),
    ("platform.route.p50_ns", "ns", "lower"),
    ("platform.tx_commit.p50_us", "us", "lower"),
    ("platform.tx_abort.p50_us", "us", "lower"),
    ("platform.state_clone.p50_ns", "ns", "lower"),
    ("platform.fragmentation.p50_us", "us", "lower"),
    ("sim.events", "count", "higher"),
    ("sim.algorithm_share_permille", "permille", "higher"),
    ("sim.overhead_us_per_event", "us", "lower"),
    ("sim.bookkeeping_us_per_event", "us", "lower"),
    ("sim.queue_pushpop.p50_ns", "ns", "lower"),
    ("sim.metrics_advance.p50_ns", "ns", "lower"),
    ("exp.sweep_events_per_s.w1", "events/s", "higher"),
    ("exp.sweep_events_per_s.wN", "events/s", "higher"),
    ("exp.pool_efficiency_permille", "permille", "higher"),
    ("baselines.greedy.map.p50_us", "us", "lower"),
    ("baselines.spiral.map.p50_us", "us", "lower"),
    ("baselines.portfolio.map.p50_us", "us", "lower"),
    ("obs.noop_probe_overhead_permille", "permille", "lower"),
    ("trace.overhead_permille", "permille", "lower"),
    ("alloc.count_per_op", "count", "lower"),
    ("alloc.bytes_per_op", "B", "lower"),
    ("setup.catalog_build_us", "us", "lower"),
    ("setup.trace_gen_us", "us", "lower"),
    ("setup.warmup_us", "us", "lower"),
    ("replay.residue_permille", "permille", "lower"),
];

/// Values of one run, by metric name: one per repeat for repeated
/// measurements, a single one for the rest.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Values(BTreeMap<&'static str, Vec<f64>>);

impl Values {
    /// Adds one repeat's value of `name`.
    pub fn push(&mut self, name: &'static str, value: f64) {
        self.0.entry(name).or_default().push(value);
    }

    /// All values recorded for `name`.
    pub fn get(&self, name: &str) -> &[f64] {
        self.0.get(name).map_or(&[], Vec::as_slice)
    }

    /// Summarises every metric of `table`, in that order, with the median
    /// across repeats as its value.
    ///
    /// # Panics
    ///
    /// Panics if a tabled metric has no value, or a recorded metric is not
    /// tabled — either is a bug in the benchmark, not in the program.
    pub fn summarise(&self, table: impl Iterator<Item = Metric>) -> Vec<Row> {
        let rows: Vec<Row> = table
            .map(|(name, unit, better)| {
                let values = self.get(name);
                assert!(!values.is_empty(), "metric `{name}` was never measured");
                let summary = Summary::of(values);
                Row {
                    name,
                    unit,
                    better,
                    value: summary.median,
                    summary,
                }
            })
            .collect();
        assert_eq!(rows.len(), self.0.len(), "a measured metric is not tabled");
        rows
    }
}

/// One metric of one run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Row {
    /// Metric name.
    pub name: &'static str,
    /// Its unit.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// The run's value of the metric.
    pub value: f64,
    /// Its values across the run's repeats.
    pub summary: Summary,
}

/// What one benchmark run (one workload, traced or not) produced.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// The workload's name.
    pub workload: &'static str,
    /// Whether this was the traced (per-layer) run.
    pub traced: bool,
    /// Manager ops attempted over every replay of the run.
    pub attempted: u64,
    /// Ops that failed plus correctness checks that tripped.
    pub failed: u64,
    /// Every metric of the run's table, in table order.
    pub metrics: Vec<Row>,
    /// The workload's decision digest.
    pub digest: u64,
}

impl RunResult {
    /// Failed ops as a share of attempted ops.
    pub fn failure_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::WORKLOADS;
    use serde::Value;

    fn field<'a>(value: &'a Value, key: &str) -> &'a Value {
        match value {
            Value::Map(entries) => entries
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v)
                .unwrap_or_else(|| panic!("BENCHMARK.json has no `{key}`")),
            _ => panic!("expected an object around `{key}`"),
        }
    }

    fn text(value: &Value) -> String {
        match value {
            Value::Str(s) => s.clone(),
            other => panic!("expected a string, found {other:?}"),
        }
    }

    fn rows(doc: &Value, key: &str, fields: &[&str]) -> Vec<Vec<String>> {
        match field(doc, key) {
            Value::Seq(items) => items
                .iter()
                .map(|item| fields.iter().map(|f| text(field(item, f))).collect())
                .collect(),
            _ => panic!("`{key}` is not an array"),
        }
    }

    /// `BENCHMARK.json` names exactly the workloads and metrics this crate
    /// reports, with the same units, directions and bounds.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc: Value = serde_json::from_str(&std::fs::read_to_string(path).unwrap()).unwrap();

        let workloads: Vec<String> = rows(&doc, "workloads", &["name"]).concat();
        let ours: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(workloads, ours);

        let per_layer = rows(&doc, "per_layer", &["name", "unit", "better"]);
        let ours: Vec<Vec<String>> = PER_LAYER
            .iter()
            .map(|&(n, u, b)| vec![n.into(), u.into(), b.into()])
            .collect();
        assert_eq!(per_layer, ours);

        let end_to_end = rows(&doc, "end_to_end", &["name", "unit", "better"]);
        let ours: Vec<Vec<String>> = END_TO_END
            .iter()
            .map(|&(n, u, b, _)| vec![n.into(), u.into(), b.into()])
            .collect();
        assert_eq!(end_to_end, ours);
        let Value::Seq(items) = field(&doc, "end_to_end") else {
            unreachable!("checked by `rows`")
        };
        for (item, ours) in items.iter().zip(END_TO_END) {
            let bound = match field(item, "bound") {
                Value::Float(f) => *f,
                Value::UInt(u) => *u as f64,
                other => panic!("bound {other:?}"),
            };
            assert_eq!(bound, ours.3, "{}", ours.0);
        }
    }

    #[test]
    fn summarise_orders_by_the_table_and_rejects_strays() {
        let mut values = Values::default();
        values.push("b", 2.0);
        values.push("a", 1.0);
        values.push("a", 3.0);
        let table = [("b", "s", "lower"), ("a", "us", "higher")];
        let rows = values.summarise(table.into_iter());
        assert_eq!(rows[0].name, "b");
        assert_eq!((rows[1].value, rows[1].summary.n), (2.0, 2));
        let stray =
            std::panic::catch_unwind(|| values.summarise([("a", "us", "lower")].into_iter()));
        assert!(stray.is_err());
    }
}
