//! The engineered fragmentation workload: applications and a platform
//! whose churn provably fragments free capacity, so defragmentation-by-
//! migration has something to recover.
//!
//! The construction is a classic bin-packing squeeze. Every ARM tile has
//! two compute slots and 64 KiB of memory; a *light* application needs one
//! slot and 24 KiB, a *heavy* one one slot and 48 KiB. Two lights share a
//! tile (48 KiB) but a light plus a heavy do not (72 KiB). Under churn the
//! lights scatter one-per-tile, leaving ~40 KiB free everywhere: plenty of
//! total memory, no single tile with 48 KiB — a heavy arrival is rejected
//! on *placement*, not capacity. Migrating one light onto another light's
//! tile frees a whole ARM and recovers the admission, which is exactly
//! what [`RuntimeManager::start_with_reconfiguration`] searches for.
//!
//! Used by the `simulate --catalog defrag` workload,
//! `examples/defragmentation.rs`, and the reconfiguration and
//! transactional-invariant tests.
//!
//! [`RuntimeManager::start_with_reconfiguration`]:
//!     rtsm_core::RuntimeManager::start_with_reconfiguration

use rtsm_app::{
    ApplicationSpec, Endpoint, Implementation, ImplementationLibrary, ProcessGraph, QosSpec,
};
use rtsm_dataflow::PhaseVec;
use rtsm_platform::{Coord, NocParams, Platform, PlatformBuilder, TileKind};

/// Memory footprint of a [`defrag_light`] application, in bytes.
pub const LIGHT_MEMORY_BYTES: u64 = 24 * 1024;

/// Memory footprint of a [`defrag_heavy`] application, in bytes.
pub const HEAVY_MEMORY_BYTES: u64 = 48 * 1024;

/// Memory per ARM tile of the [`defrag_platform`], in bytes.
pub const TILE_MEMORY_BYTES: u64 = 64 * 1024;

/// Builds a 1×`n_arms + 2` strip: the A/D stream source, `n_arms` ARM
/// tiles (2 slots, [`TILE_MEMORY_BYTES`] each), and the Sink.
///
/// # Panics
///
/// Panics if `n_arms` is 0.
pub fn defrag_platform(n_arms: u16) -> Platform {
    assert!(n_arms > 0, "need at least one ARM tile");
    let mut builder = PlatformBuilder::mesh(n_arms + 2, 1)
        .noc(NocParams::default())
        .tile_defaults(200, 2, TILE_MEMORY_BYTES, 200_000_000)
        .tile("A/D", TileKind::AdcSource, Coord { x: 0, y: 0 });
    for i in 0..n_arms {
        builder = builder.tile(
            format!("ARM{}", i + 1),
            TileKind::Arm,
            Coord { x: i + 1, y: 0 },
        );
    }
    builder
        .tile(
            "Sink",
            TileKind::Sink,
            Coord {
                x: n_arms + 1,
                y: 0,
            },
        )
        .build()
        .expect("defrag strip layout is valid")
}

/// A single-process stream application with the given memory footprint.
fn pipe_app(name: &str, memory_bytes: u64) -> ApplicationSpec {
    let mut graph = ProcessGraph::new();
    let p = graph.add_process("Stage");
    graph
        .add_channel(Endpoint::StreamInput, Endpoint::Process(p), 16)
        .expect("valid channel");
    graph
        .add_channel(Endpoint::Process(p), Endpoint::StreamOutput, 16)
        .expect("valid channel");
    let mut library = ImplementationLibrary::new();
    library.register(
        p,
        Implementation::simple(
            format!("{name} @ ARM"),
            TileKind::Arm,
            PhaseVec::from_slice(&[8, 60, 8]),
            PhaseVec::from_slice(&[16, 0, 0]),
            PhaseVec::from_slice(&[0, 0, 16]),
            5_000,
            memory_bytes,
        ),
    );
    ApplicationSpec {
        name: name.into(),
        graph,
        qos: QosSpec::with_period(4_000_000),
        library,
    }
}

/// The light application: one slot, [`LIGHT_MEMORY_BYTES`]. Two share an
/// ARM tile.
pub fn defrag_light() -> ApplicationSpec {
    pipe_app("defrag light", LIGHT_MEMORY_BYTES)
}

/// The heavy application: one slot, [`HEAVY_MEMORY_BYTES`]. Needs a tile
/// without a light co-tenant.
pub fn defrag_heavy() -> ApplicationSpec {
    pipe_app("defrag heavy", HEAVY_MEMORY_BYTES)
}

// The bin-packing squeeze the whole construction rests on: two lights
// share a tile, a light plus a heavy never do.
const _: () = assert!(2 * LIGHT_MEMORY_BYTES <= TILE_MEMORY_BYTES);
const _: () = assert!(LIGHT_MEMORY_BYTES + HEAVY_MEMORY_BYTES > TILE_MEMORY_BYTES);

#[cfg(test)]
mod tests {
    use super::*;
    use rtsm_core::SpatialMapper;

    #[test]
    fn apps_validate_and_map_on_the_strip() {
        let platform = defrag_platform(2);
        for spec in [defrag_light(), defrag_heavy()] {
            assert_eq!(spec.validate(), Ok(()));
            SpatialMapper::default()
                .map(&spec, &platform, &platform.initial_state())
                .expect("fits an empty strip");
        }
    }
}
