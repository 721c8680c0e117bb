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
