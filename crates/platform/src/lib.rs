//! Heterogeneous tiled-MPSoC platform model.
//!
//! This crate is the hardware substrate of the `rtsm` workspace: the tiled
//! architecture of Section 1.1 of the DATE 2008 paper — processing elements
//! (*tiles*) of different types joined by a predictable (guaranteed
//! throughput, bounded latency) Network-on-Chip with a 2D-mesh topology.
//!
//! # Contents
//!
//! * [`TileKind`] / [`Tile`] — heterogeneous processing elements with
//!   clock, compute-slot, memory, and network-interface resources.
//! * [`Platform`] / [`PlatformBuilder`] — a mesh of routers with tiles
//!   attached, reproducing the paper's Figure 2 ([`paper::paper_platform`]).
//! * [`routing`] — capacity-constrained shortest-path routing over the NoC's
//!   directed links (step 3 of the mapping algorithm).
//! * [`PlatformState`] — the run-time occupancy ledger: which resources are
//!   claimed by which application (the paper's core motivation is that this
//!   is only known at run time).
//! * [`PlatformTransaction`] — staged, all-or-nothing mutation of the
//!   ledger: the single audited claim/release path that admission, stop,
//!   and migration are built on.
//! * [`energy`] — the communication side of energy accounting.
//!
//! # Example
//!
//! ```
//! use rtsm_platform::{paper::paper_platform, routing::route};
//!
//! let platform = paper_platform();
//! let state = platform.initial_state();
//! let arm1 = platform.tile_by_name("ARM1").unwrap();
//! let mont1 = platform.tile_by_name("MONTIUM1").unwrap();
//! let path = route(&platform, &state, arm1, mont1, 1_000).unwrap();
//! assert_eq!(path.hops(), platform.manhattan(arm1, mont1));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod energy;
pub mod error;
pub mod paper;
pub mod render;
pub mod routing;
pub mod state;
pub mod tile;
pub mod topology;
pub mod transaction;

pub use error::PlatformError;
pub use routing::{route, Path, RouteScratch, RoutingPolicy};
pub use state::{Fragmentation, PlatformState, TileClaim};
pub use tile::{Tile, TileId, TileKind};
pub use topology::{AdjEntry, Coord, Link, LinkId, NocParams, Platform, PlatformBuilder};
pub use transaction::PlatformTransaction;
