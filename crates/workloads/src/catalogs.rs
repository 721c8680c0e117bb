//! The named catalogs: each a platform and the weighted specifications its
//! arrivals draw from. The simulator's catalogs, the experiment harness's
//! catalog names and the tests' oracles all read this one table.

use crate::apps::{dvbt_rx, jpeg_encoder, mp3_decoder, wlan_tx};
use crate::{defrag_heavy, defrag_light, defrag_platform, mesh_platform};
use crate::{synthetic_app, GraphShape, SyntheticConfig};
use rtsm_app::hiperlan2::{hiperlan2_receiver, Hiperlan2Mode};
use rtsm_app::ApplicationSpec;
use rtsm_platform::paper::paper_platform;
use rtsm_platform::{Platform, TileKind};

/// One entry of a catalog: its display name, its sampling weight (> 0) and
/// its specification.
pub type CatalogEntrySpec = (String, u64, ApplicationSpec);

/// A named catalog: its platform and its entries, both under a platform
/// seed (only the seeded meshes and the synthetic specifications read it).
#[derive(Debug, Clone, Copy)]
pub struct CatalogWorld {
    /// The name specifications and command lines use.
    pub name: &'static str,
    /// The platform the catalog runs on.
    pub platform: fn(u64) -> Platform,
    /// The entries arrivals draw from, in display order.
    pub entries: fn(u64) -> Vec<CatalogEntrySpec>,
}

impl CatalogWorld {
    /// The platform and the specifications, without names and weights.
    pub fn instance(&self, platform_seed: u64) -> (Platform, Vec<ApplicationSpec>) {
        let specs = (self.entries)(platform_seed);
        let specs = specs.into_iter().map(|(_, _, spec)| spec).collect();
        ((self.platform)(platform_seed), specs)
    }
}

/// Every catalog, in display order.
pub const CATALOG_WORLDS: [CatalogWorld; 4] = [
    CatalogWorld {
        name: "hiperlan2",
        platform: |_| paper_platform(),
        // All seven HIPERLAN/2 receiver modes (§4.1), equally weighted.
        entries: |_| {
            let mode =
                |m: Hiperlan2Mode| (format!("hiperlan2 {}", m.name()), 1, hiperlan2_receiver(m));
            Hiperlan2Mode::ALL.into_iter().map(mode).collect()
        },
    },
    CatalogWorld {
        name: "mixed",
        platform: |seed| {
            let mix = [
                (TileKind::Montium, 4),
                (TileKind::Arm, 4),
                (TileKind::Dsp, 2),
            ];
            mesh_platform(seed, 4, 4, &mix)
        },
        // The constructed DSP applications and a HIPERLAN/2 receiver,
        // weighted towards the lighter applications.
        entries: |_| {
            vec![
                ("wlan-tx".into(), 3, wlan_tx()),
                ("jpeg-encoder".into(), 3, jpeg_encoder()),
                ("mp3-decoder".into(), 2, mp3_decoder()),
                ("dvbt-rx".into(), 1, dvbt_rx()),
                (
                    "hiperlan2 QPSK 3/4".into(),
                    2,
                    hiperlan2_receiver(Hiperlan2Mode::Qpsk34),
                ),
            ]
        },
    },
    CatalogWorld {
        name: "synthetic",
        platform: |seed| mesh_platform(seed, 4, 4, &[(TileKind::Montium, 6), (TileKind::Arm, 4)]),
        entries: |seed| {
            let chains = synthetic_chains(seed, 6).into_iter();
            chains.map(|spec| (spec.name.clone(), 1, spec)).collect()
        },
    },
    CatalogWorld {
        name: "defrag",
        platform: |_| defrag_platform(4),
        entries: |_| {
            vec![
                ("defrag light".into(), 3, defrag_light()),
                ("defrag heavy".into(), 1, defrag_heavy()),
            ]
        },
    },
];

/// The catalog registered under `name`.
pub fn catalog_world(name: &str) -> Option<&'static CatalogWorld> {
    CATALOG_WORLDS.iter().find(|world| world.name == name)
}

/// `n` seeded synthetic chain applications: 3–7 processes, MONTIUM
/// preferred with ARM alternatives. Deterministic per `seed`.
pub fn synthetic_chains(seed: u64, n: usize) -> Vec<ApplicationSpec> {
    (0..n)
        .map(|i| {
            synthetic_app(&SyntheticConfig {
                seed: seed.wrapping_add(i as u64),
                n_processes: 3 + i % 5,
                shape: GraphShape::Chain,
                tile_kinds: vec![TileKind::Montium, TileKind::Arm],
                ..SyntheticConfig::default()
            })
        })
        .collect()
}
