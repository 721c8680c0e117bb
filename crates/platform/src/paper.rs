//! The paper's hypothetical MPSoC (Figure 2), reconstructed.
//!
//! A 3×3 router mesh with two ARMs, two MONTIUMs, the A/D stream source and
//! the Sink, plus three tiles "of types not relevant to this example".
//!
//! The exact label-to-router association of Figure 2 is not recoverable from
//! the paper text, so the placement below was *solved for*: it is the unique
//! (up to symmetry) placement that reproduces Table 2's cost sequence —
//! greedy initial cost 11, ARM-swap evaluated at 11 and reverted,
//! MONTIUM-swap at 9 kept, ARM-swap at 7 kept, no further choices — while
//! preserving the figure's row pairing (ARM1/MONTIUM2, Sink/MONTIUM1,
//! A/D/ARM2 share mesh rows).
//!
//! Tile insertion order is `ARM1, ARM2, MONTIUM1, MONTIUM2, A/D, Sink,
//! other…` so that step 1's first-fit packing visits ARM1 before ARM2 and
//! MONTIUM1 before MONTIUM2, as the paper's walk-through requires.

use crate::tile::{Tile, TileKind};
use crate::topology::{Coord, NocParams, Platform, PlatformBuilder};

/// Clock of every tile and router in the paper instance, in MHz.
///
/// The paper gives WCETs in cycles but no tile clock; 200 MHz (800 cycles
/// per 4 µs OFDM symbol) makes the paper's final mapping feasible while the
/// ARM implementations of Inverse OFDM (4370 cycles) and Remainder (≥ 2306
/// cycles) are throughput-infeasible — exactly the structure the paper's
/// narrative requires.
pub const PAPER_CLOCK_MHZ: u32 = 200;

/// Data memory per processing tile, in bytes (model parameter).
pub const PAPER_TILE_MEMORY: u64 = 64 * 1024;

/// NI bandwidth per tile, in words/second (1 word/cycle at 200 MHz).
pub const PAPER_NI_BANDWIDTH: u64 = 200_000_000;

fn tile(name: &str, kind: TileKind, x: u16, y: u16, slots: u32) -> Tile {
    Tile {
        name: name.into(),
        kind,
        position: Coord { x, y },
        clock_mhz: PAPER_CLOCK_MHZ,
        compute_slots: slots,
        memory_bytes: PAPER_TILE_MEMORY,
        ni_injection: PAPER_NI_BANDWIDTH,
        ni_ejection: PAPER_NI_BANDWIDTH,
    }
}

/// Builds the paper's 3×3 MPSoC (Figure 2).
///
/// # Panics
///
/// Never — the layout is statically valid (covered by tests).
pub fn paper_platform() -> Platform {
    PlatformBuilder::mesh(3, 3)
        .noc(NocParams {
            hop_latency_cycles: 4,
            clock_mhz: PAPER_CLOCK_MHZ,
            link_capacity: PAPER_NI_BANDWIDTH,
        })
        .tile_custom(tile("ARM1", TileKind::Arm, 1, 0, 1))
        .tile_custom(tile("ARM2", TileKind::Arm, 0, 1, 1))
        .tile_custom(tile("MONTIUM1", TileKind::Montium, 2, 2, 1))
        .tile_custom(tile("MONTIUM2", TileKind::Montium, 2, 0, 1))
        .tile_custom(tile("A/D", TileKind::AdcSource, 1, 1, 1))
        .tile_custom(tile("Sink", TileKind::Sink, 1, 2, 1))
        .tile_custom(tile("OTHER1", TileKind::Other(1), 0, 0, 1))
        .tile_custom(tile("OTHER2", TileKind::Other(2), 2, 1, 1))
        .tile_custom(tile("OTHER3", TileKind::Other(3), 0, 2, 1))
        .build()
        .expect("paper platform layout is valid")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nine_tiles_on_nine_routers() {
        let p = paper_platform();
        assert_eq!(p.n_tiles(), 9);
        for y in 0..3 {
            for x in 0..3 {
                assert!(p.tile_at(Coord { x, y }).is_some());
            }
        }
    }

    #[test]
    fn first_fit_order_is_arm1_arm2_m1_m2() {
        let p = paper_platform();
        let names: Vec<&str> = p.tiles().map(|(_, t)| t.name.as_str()).collect();
        assert_eq!(
            &names[..6],
            &["ARM1", "ARM2", "MONTIUM1", "MONTIUM2", "A/D", "Sink"]
        );
    }

    /// The distances that make Table 2's cost sequence work out.
    #[test]
    fn reconstructed_distances_reproduce_table2_costs() {
        let p = paper_platform();
        let t = |n: &str| p.tile_by_name(n).unwrap();
        let d = |a: &str, b: &str| p.manhattan(t(a), t(b));

        // Initial greedy: Pfx@ARM1, Frq@ARM2, iOFDM@M1, Rem@M2 → cost 11.
        let initial = d("A/D", "ARM1")
            + d("ARM1", "ARM2")
            + d("ARM2", "MONTIUM1")
            + d("MONTIUM1", "MONTIUM2")
            + d("MONTIUM2", "Sink");
        assert_eq!(initial, 11);

        // Iteration 1 (swap ARMs): cost 11 — no improvement.
        let iter1 = d("A/D", "ARM2")
            + d("ARM2", "ARM1")
            + d("ARM1", "MONTIUM1")
            + d("MONTIUM1", "MONTIUM2")
            + d("MONTIUM2", "Sink");
        assert_eq!(iter1, 11);

        // Iteration 2 (swap MONTIUMs): cost 9 — improvement.
        let iter2 = d("A/D", "ARM1")
            + d("ARM1", "ARM2")
            + d("ARM2", "MONTIUM2")
            + d("MONTIUM2", "MONTIUM1")
            + d("MONTIUM1", "Sink");
        assert_eq!(iter2, 9);

        // Iteration 3 (swap ARMs too): cost 7 — the paper's final mapping.
        let iter3 = d("A/D", "ARM2")
            + d("ARM2", "ARM1")
            + d("ARM1", "MONTIUM2")
            + d("MONTIUM2", "MONTIUM1")
            + d("MONTIUM1", "Sink");
        assert_eq!(iter3, 7);
    }

    #[test]
    fn figure_row_pairs_preserved() {
        let p = paper_platform();
        let pos = |n: &str| p.tile(p.tile_by_name(n).unwrap()).position;
        assert_eq!(pos("ARM1").y, pos("MONTIUM2").y);
        assert_eq!(pos("Sink").y, pos("MONTIUM1").y);
        assert_eq!(pos("A/D").y, pos("ARM2").y);
    }

    #[test]
    fn paper_clock_budget_is_800_cycles_per_symbol() {
        let p = paper_platform();
        let arm = p.tile(p.tile_by_name("ARM1").unwrap());
        assert_eq!(arm.cycles_per_period(4_000_000), 800);
    }
}
