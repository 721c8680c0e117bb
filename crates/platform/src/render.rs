//! ASCII rendering of the platform layout (Figure 2).

use crate::topology::{Coord, Platform};
use std::fmt::Write as _;

/// Renders the mesh as ASCII art: one cell per router, labelled with the
/// attached tile's name (or `·` for bare routers).
///
/// ```text
/// +----------+----------+----------+
/// | OTHER1   | ARM1     | MONTIUM2 |
/// +----------+----------+----------+
/// | ARM2     | A/D      | OTHER2   |
/// +----------+----------+----------+
/// | OTHER3   | Sink     | MONTIUM1 |
/// +----------+----------+----------+
/// ```
pub fn render_layout(platform: &Platform) -> String {
    let cell_width = platform
        .tiles()
        .map(|(_, t)| t.name.len())
        .max()
        .unwrap_or(1)
        .max(1)
        + 2;
    let mut out = String::new();
    let horizontal = |out: &mut String| {
        for _ in 0..platform.width() {
            out.push('+');
            out.push_str(&"-".repeat(cell_width));
        }
        out.push_str("+\n");
    };
    for y in 0..platform.height() {
        horizontal(&mut out);
        for x in 0..platform.width() {
            let label = platform
                .tile_at(Coord { x, y })
                .map(|id| platform.tile(id).name.clone())
                .unwrap_or_else(|| "·".to_string());
            let _ = write!(out, "| {label:<width$}", width = cell_width - 1);
        }
        out.push_str("|\n");
    }
    horizontal(&mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper::paper_platform;

    #[test]
    fn layout_contains_all_tiles() {
        let p = paper_platform();
        let art = render_layout(&p);
        for (_, t) in p.tiles() {
            assert!(art.contains(&t.name), "missing {}", t.name);
        }
        // 3 rows of cells + 4 horizontal rules.
        assert_eq!(art.lines().count(), 7);
    }
}
