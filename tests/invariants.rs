//! Cross-crate property tests: the paper's criteria hierarchy and the
//! mapper's invariants over randomized workloads.

use proptest::prelude::*;
use rtsm::app::hiperlan2::{hiperlan2_receiver, Hiperlan2Mode};
use rtsm::core::criteria::{is_adequate, is_adherent};
use rtsm::core::mapper::{MapperConfig, SpatialMapper};
use rtsm::core::Mapping;
use rtsm::platform::paper::paper_platform;
use rtsm::platform::TileKind;
use rtsm::workloads::{mesh_platform, synthetic_app, GraphShape, SyntheticConfig};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// feasible ⊆ adherent ⊆ adequate: whenever the mapper reports a
    /// feasible mapping, the lower criteria hold too.
    #[test]
    fn mapper_results_satisfy_criteria_chain(seed in 0u64..400) {
        let spec = synthetic_app(&SyntheticConfig {
            seed,
            n_processes: 5,
            ..SyntheticConfig::default()
        });
        let platform = mesh_platform(
            seed ^ 0xBEEF,
            4,
            4,
            &[(TileKind::Montium, 4), (TileKind::Arm, 4)],
        );
        let base = platform.initial_state();
        if let Ok(result) = SpatialMapper::new(MapperConfig::default()).map(&spec, &platform, &base) {
            prop_assert!(is_adequate(&result.mapping, &spec, &platform));
            prop_assert!(is_adherent(&result.mapping, &spec, &platform, &base));
            prop_assert!(result.feasible);
        }
    }

    /// Random raw mappings: adherent implies adequate (never the reverse
    /// dependency), and incomplete mappings are never adequate.
    #[test]
    fn adherence_implies_adequacy(
        impl_choices in proptest::collection::vec(0usize..2, 4..=4),
        tile_choices in proptest::collection::vec(0usize..4, 4..=4),
    ) {
        let spec = hiperlan2_receiver(Hiperlan2Mode::Qpsk34);
        let platform = paper_platform();
        let tiles = [
            platform.tile_by_name("ARM1").unwrap(),
            platform.tile_by_name("ARM2").unwrap(),
            platform.tile_by_name("MONTIUM1").unwrap(),
            platform.tile_by_name("MONTIUM2").unwrap(),
        ];
        let mut mapping = Mapping::new();
        for (i, (pid, _)) in spec.graph.stream_processes().enumerate() {
            mapping.assign(pid, impl_choices[i], tiles[tile_choices[i]]);
        }
        let adequate = is_adequate(&mapping, &spec, &platform);
        let adherent = is_adherent(&mapping, &spec, &platform, &platform.initial_state());
        prop_assert!(!adherent || adequate, "adherent mapping must be adequate");
    }

    /// Commit followed by release restores the ledger exactly, for every
    /// feasible synthetic mapping.
    #[test]
    fn commit_release_is_identity(seed in 0u64..200) {
        let spec = synthetic_app(&SyntheticConfig {
            seed,
            n_processes: 4,
            shape: GraphShape::Chain,
            ..SyntheticConfig::default()
        });
        let platform = mesh_platform(
            seed ^ 0xC0FFEE,
            4,
            4,
            &[(TileKind::Montium, 3), (TileKind::Arm, 3)],
        );
        let mut state = platform.initial_state();
        let before = state.clone();
        if let Ok(result) = SpatialMapper::new(MapperConfig::default()).map(&spec, &platform, &state) {
            result.commit(&spec, &platform, &mut state).expect("commit after map");
            prop_assert!(state != before, "commit must change the ledger");
            result.release(&spec, &platform, &mut state).expect("release after commit");
            prop_assert!(state == before, "release must undo commit exactly");
        }
    }

    /// The mapper never assigns two processes to one single-slot tile and
    /// never exceeds a tile's cycle budget.
    #[test]
    fn no_tile_oversubscription(seed in 0u64..200) {
        let spec = synthetic_app(&SyntheticConfig {
            seed,
            n_processes: 6,
            ..SyntheticConfig::default()
        });
        let platform = mesh_platform(
            seed ^ 0xF00D,
            4,
            4,
            &[(TileKind::Montium, 4), (TileKind::Arm, 4)],
        );
        if let Ok(result) =
            SpatialMapper::new(MapperConfig::default()).map(&spec, &platform, &platform.initial_state())
        {
            let mut used = std::collections::HashMap::new();
            for (_, a) in result.mapping.assignments() {
                *used.entry(a.tile).or_insert(0u32) += 1;
            }
            for (tile, n) in used {
                prop_assert!(
                    n <= platform.tile(tile).compute_slots,
                    "tile {} hosts {n} processes",
                    platform.tile(tile).name
                );
            }
        }
    }
}

/// Energy accounting is consistent between the mapper's result and a
/// recomputation from the mapping (no hidden state).
#[test]
fn energy_recomputation_matches() {
    for seed in 0..10u64 {
        let spec = synthetic_app(&SyntheticConfig {
            seed,
            ..SyntheticConfig::default()
        });
        let platform = mesh_platform(seed, 4, 4, &[(TileKind::Montium, 4), (TileKind::Arm, 4)]);
        if let Ok(result) = SpatialMapper::new(MapperConfig::default()).map(
            &spec,
            &platform,
            &platform.initial_state(),
        ) {
            let recomputed = result.mapping.energy_pj(&spec, &platform);
            assert_eq!(result.energy_pj, recomputed, "seed {seed}");
        }
    }
}
