//! Rendering helpers for experiment output (KPN figures, comparison
//! tables).

use rtsm_app::{ApplicationSpec, Endpoint};
use std::fmt::Write as _;

/// Renders a KPN as the paper's Figure 1: processes with the token counts
/// on every data channel, control parts marked.
pub fn render_kpn(spec: &ApplicationSpec) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "KPN of {}:", spec.name);
    let name = |e: Endpoint| match e {
        Endpoint::Process(p) => spec.graph.process(p).name.clone(),
        Endpoint::StreamInput => "⟦stream in⟧".to_string(),
        Endpoint::StreamOutput => "⟦stream out⟧".to_string(),
    };
    for (_, ch) in spec.graph.channels() {
        let marker = if ch.is_control { " [control]" } else { "" };
        let _ = writeln!(
            out,
            "  {} --{}--> {}{}",
            name(ch.src),
            ch.tokens_per_period,
            name(ch.dst),
            marker
        );
    }
    let _ = writeln!(
        out,
        "  QoS: one period every {} µs",
        spec.qos.period_ps as f64 / 1e6
    );
    out
}

/// A generic fixed-width comparison table.
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(header: &[&str]) -> Self {
        Table {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header length).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len(), "row arity mismatch");
        self.rows.push(cells);
    }

    /// Renders with per-column widths.
    pub fn render(&self) -> String {
        let n = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.chars().count()).collect();
        for row in &self.rows {
            for i in 0..n {
                widths[i] = widths[i].max(row[i].chars().count());
            }
        }
        let mut out = String::new();
        let emit = |cells: &[String], widths: &[usize], out: &mut String| {
            for (i, c) in cells.iter().enumerate() {
                let pad = widths[i] - c.chars().count();
                let _ = write!(out, "{}{}  ", c, " ".repeat(pad));
            }
            let _ = writeln!(out);
        };
        emit(&self.header, &widths, &mut out);
        let total: usize = widths.iter().sum::<usize>() + 2 * n;
        let _ = writeln!(out, "{}", "-".repeat(total));
        for row in &self.rows {
            emit(row, &widths, &mut out);
        }
        out
    }
}

/// The least and the greatest `name` over the `points` of a report section.
fn range_over(points: &[serde::Value], name: &str) -> Result<(u64, u64), serde::de::Error> {
    let values = points
        .iter()
        .map(|point| serde::de::field::<u64>(point, name))
        .collect::<Result<Vec<u64>, _>>()?;
    Ok((
        values.iter().min().copied().unwrap_or(0),
        values.iter().max().copied().unwrap_or(0),
    ))
}

/// First line of the README block [`readme_admission_block`] renders.
pub const README_ADMISSION_BEGIN: &str =
    "<!-- BENCH_map.json `templates`, `rejections` and `step4`, as `bench_map` prints it; regenerate, do not edit -->";

/// The README's "Microsecond admission" figures, rendered from a parsed
/// `BENCH_map.json`: the paper-case hit and miss paths, the lookup key's
/// cost, then the mixed catalog at steady state with templates off and on,
/// then what a refusal costs (the `rejections` section) and what step 4 of
/// an admission costs (the `step4` section). `bench_map` prints this block
/// after writing the artifact, and a test holds the README to the committed
/// artifact, so the two cannot drift.
///
/// # Errors
///
/// A field of the `templates`, `rejections` or `step4` section is missing
/// or mistyped.
pub fn readme_admission_block(bench: &serde::Value) -> Result<String, serde::de::Error> {
    use serde::de::field;
    let templates: serde::Value = field(bench, "templates")?;
    let us = |path: &str, percentile: &str| -> Result<String, serde::de::Error> {
        let latency: serde::Value = field(&templates, path)?;
        let ns: u64 = field(&latency, percentile)?;
        Ok(format!("{:.1} µs", ns as f64 / 1e3))
    };
    let count = |name: &str| field::<u64>(&templates, name);
    let mut out = String::new();
    let _ = writeln!(out, "{README_ADMISSION_BEGIN}");
    let _ = writeln!(out, "| paper case, path | p50 | p99 |");
    let _ = writeln!(out, "|---|---:|---:|");
    for (label, path) in [
        ("template hit (`TemplateMatch`)", "hit"),
        ("full heuristic (`Map`)", "miss"),
    ] {
        let _ = writeln!(
            out,
            "| {label} | {} | {} |",
            us(path, "p50_ns")?,
            us(path, "p99_ns")?
        );
    }
    let keys: Vec<serde::Value> = field(&templates, "key_ns")?;
    let key_ns = keys
        .iter()
        .map(|key| field::<u64>(key, "key_ns"))
        .collect::<Result<Vec<u64>, _>>()?;
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "Lookup key (`spec_fingerprint`), paid by every arrival: {}–{} ns over the {} catalog specs.",
        key_ns.iter().min().copied().unwrap_or(0),
        key_ns.iter().max().copied().unwrap_or(0),
        key_ns.len()
    );
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "| mixed catalog, steady state | events/s | mean map latency |"
    );
    let _ = writeln!(out, "|---|---:|---:|");
    let _ = writeln!(
        out,
        "| templates off | {} | {} µs |",
        count("events_per_sec_templates_off")?,
        count("mean_map_us_templates_off")?
    );
    let _ = writeln!(
        out,
        "| templates on ({}‰ hit rate, {} shapes cached) | {} | {} µs |",
        count("hit_permille")?,
        count("shapes_cached")?,
        count("events_per_sec_templates_on")?,
        count("mean_map_us_templates_on")?
    );
    let rejections: serde::Value = field(bench, "rejections")?;
    let points: Vec<serde::Value> = field(&rejections, "points")?;
    let range = |name: &str| range_over(&points, name);
    let (attempts, map_ns, map_allocs, lookup_ns) = (
        range("attempts")?,
        range("refused_map_ns")?,
        range("refused_map_allocs")?,
        range("failed_lookup_ns")?,
    );
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "A refusal, over the {} mixed specs arriving while `{}` holds the mesh: the failed lookup \
         {}–{} ns, then `map` refused after {}–{} attempts in {:.1}–{:.1} µs ({}–{} allocator calls).",
        points.len(),
        field::<String>(&rejections, "running")?,
        lookup_ns.0,
        lookup_ns.1,
        attempts.0,
        attempts.1,
        map_ns.0 as f64 / 1e3,
        map_ns.1 as f64 / 1e3,
        map_allocs.0,
        map_allocs.1,
    );
    let step4: serde::Value = field(bench, "step4")?;
    let points: Vec<serde::Value> = field(&step4, "points")?;
    let range = |name: &str| range_over(&points, name);
    let (signature, warm, allocs, compose, cold, cold_runs) = (
        range("signature_ns")?,
        range("warm_verdict_ns")?,
        range("warm_verdict_allocs")?,
        range("compose_ns")?,
        range("cold_verdict_ns")?,
        range("cold_csdf_runs")?,
    );
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "Step 4 of an admission, over the {} catalog specs mapped alone: the mapping's signature \
         {}–{} ns, the warm verdict it keys {}–{} ns ({} allocator calls); composing the Figure-3 \
         graph, which the verdict does without, {:.1}–{:.1} µs; a cold verdict (signature new to \
         the thread) {:.0}–{:.0} µs, in {}–{} self-timed simulations.",
        points.len(),
        signature.0,
        signature.1,
        warm.0,
        warm.1,
        if allocs.0 == allocs.1 {
            allocs.0.to_string()
        } else {
            format!("{}–{}", allocs.0, allocs.1)
        },
        compose.0 as f64 / 1e3,
        compose.1 as f64 / 1e3,
        cold.0 as f64 / 1e3,
        cold.1 as f64 / 1e3,
        cold_runs.0,
        cold_runs.1,
    );
    let _ = writeln!(out, "<!-- end of the generated block -->");
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtsm_app::hiperlan2::{hiperlan2_receiver, Hiperlan2Mode};

    #[test]
    fn kpn_render_mentions_all_channels() {
        let spec = hiperlan2_receiver(Hiperlan2Mode::Qpsk34);
        let s = render_kpn(&spec);
        assert!(s.contains("--80-->"));
        assert!(s.contains("--64-->"));
        assert!(s.contains("[control]"));
        assert!(s.contains("Inverse OFDM"));
    }

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(&["a", "bbbb"]);
        t.row(vec!["xx".into(), "y".into()]);
        let s = t.render();
        assert!(s.contains("a   bbbb"));
        assert!(s.contains("xx  y"));
    }

    #[test]
    #[should_panic(expected = "row arity mismatch")]
    fn arity_mismatch_panics() {
        let mut t = Table::new(&["a"]);
        t.row(vec!["x".into(), "y".into()]);
    }
}
