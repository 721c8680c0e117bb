//! Workload suite for the run-time spatial mapper.
//!
//! The paper's future-work section (§5) calls for benchmarks with "far more
//! complex real-life examples than the HIPERLAN/2 case … and synthetic
//! cases based on the class of applications that can reasonably be expected
//! for MPSOCs in the future". This crate provides both:
//!
//! * [`synthetic`] — seeded random streaming applications (chains and
//!   fork-join graphs with per-tile-type implementation libraries) and
//! * [`platforms`] — seeded mesh platforms with configurable tile mixes;
//! * [`apps`] — constructed realistic DSP applications (802.11a
//!   transmitter, DVB-T receiver, MP3 decoder, JPEG encoder) in the same
//!   ALS format as the paper's HIPERLAN/2 receiver;
//! * [`catalogs`] — the named catalogs (a platform and its weighted
//!   specifications) the simulator, the experiment harness and the tests'
//!   oracles share;
//! * [`defrag`] — the engineered fragmentation workload whose churn
//!   provably strands free capacity, used to measure
//!   defragmentation-by-migration.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod apps;
pub mod catalogs;
pub mod defrag;
pub mod platforms;
pub mod synthetic;

pub use catalogs::{catalog_world, CatalogWorld, CATALOG_WORLDS};
pub use defrag::{defrag_heavy, defrag_light, defrag_platform};
pub use platforms::mesh_platform;
pub use synthetic::{synthetic_app, GraphShape, SyntheticConfig};
