//! Error type for platform construction and resource operations.

use crate::tile::TileId;
use crate::topology::Coord;
use std::fmt;

/// Errors produced by platform construction, routing, and the occupancy
/// ledger.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlatformError {
    /// A tile was placed outside the mesh.
    OutOfMesh {
        /// The offending coordinate.
        coord: Coord,
        /// Mesh width.
        width: u16,
        /// Mesh height.
        height: u16,
    },
    /// Two tiles were placed on the same router.
    DuplicatePosition(Coord),
    /// The NoC's clock is 0 MHz, so a hop would take forever.
    ZeroNocClock,
    /// A NoC hop takes more than `u32::MAX` cycles.
    HopLatency(u64),
    /// No route with sufficient residual capacity exists.
    NoRoute {
        /// Source tile.
        from: TileId,
        /// Destination tile.
        to: TileId,
        /// Requested bandwidth (words/second).
        demand: u64,
    },
    /// A tile lacks the requested resource.
    InsufficientResource {
        /// The tile.
        tile: TileId,
        /// Which resource was exhausted.
        resource: &'static str,
    },
    /// Attempted to release a claim that does not exist.
    UnknownClaim,
    /// A link allocation/release did not balance.
    LinkAccounting {
        /// Human-readable description.
        detail: String,
    },
}

impl fmt::Display for PlatformError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlatformError::OutOfMesh {
                coord,
                width,
                height,
            } => write!(f, "coordinate {coord} outside {width}x{height} mesh"),
            PlatformError::DuplicatePosition(c) => {
                write!(f, "two tiles share router position {c}")
            }
            PlatformError::ZeroNocClock => write!(f, "the NoC clock is 0 MHz"),
            PlatformError::HopLatency(cycles) => {
                write!(f, "a NoC hop of {cycles} cycles is above 2^32 - 1")
            }
            PlatformError::NoRoute { from, to, demand } => write!(
                f,
                "no route from tile {from} to tile {to} with {demand} words/s free"
            ),
            PlatformError::InsufficientResource { tile, resource } => {
                write!(f, "tile {tile} lacks {resource}")
            }
            PlatformError::UnknownClaim => write!(f, "claim not found in ledger"),
            PlatformError::LinkAccounting { detail } => {
                write!(f, "link accounting violation: {detail}")
            }
        }
    }
}

impl std::error::Error for PlatformError {}
