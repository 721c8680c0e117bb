//! Multi-application run-time scenarios across the whole stack: several
//! applications started and stopped on one `RuntimeManager`.

use rtsm::app::hiperlan2::{hiperlan2_receiver, Hiperlan2Mode};
use rtsm::core::{RuntimeManager, SpatialMapper};
use rtsm::platform::{Platform, TileKind};
use rtsm::workloads::apps::{dvbt_rx, jpeg_encoder, mp3_decoder, wlan_tx};
use rtsm::workloads::mesh_platform;

/// The roomy 5×5 mesh the constructed applications share.
fn big_mesh(seed: u64) -> Platform {
    mesh_platform(
        seed,
        5,
        5,
        &[
            (TileKind::Montium, 6),
            (TileKind::Arm, 8),
            (TileKind::Dsp, 4),
        ],
    )
}

#[test]
fn mixed_workload_scenario_admits_and_releases() {
    let mut manager = RuntimeManager::new(big_mesh(7), SpatialMapper::default());
    let wlan = manager.start(wlan_tx());
    let mut admitted = usize::from(wlan.is_ok());
    admitted += usize::from(manager.start(jpeg_encoder()).is_ok());
    admitted += usize::from(manager.start(mp3_decoder()).is_ok());
    if let Ok(handle) = wlan {
        manager.stop(handle).expect("a running application stops");
    }
    admitted += usize::from(manager.start(dvbt_rx()).is_ok());
    assert!(admitted >= 3, "admitted {admitted}");
    // Whatever is still running is consistently accounted.
    let sum: u64 = manager
        .running()
        .map(|(_, app)| app.outcome.energy_pj)
        .sum();
    assert_eq!(sum, manager.running_energy_pj());
}

#[test]
fn all_four_constructed_apps_map_alone() {
    let platform = big_mesh(13);
    for app in [wlan_tx(), dvbt_rx(), mp3_decoder(), jpeg_encoder()] {
        let name = app.name.clone();
        let mut manager = RuntimeManager::new(platform.clone(), SpatialMapper::default());
        assert!(manager.start(app).is_ok(), "{name} failed to map");
    }
}

#[test]
fn saturating_the_platform_rejects_gracefully() {
    // A tiny platform: repeated starts must eventually reject without
    // panicking, and stops recover admission capacity.
    let platform = mesh_platform(3, 3, 3, &[(TileKind::Montium, 3), (TileKind::Arm, 2)]);
    let mut manager = RuntimeManager::new(platform, SpatialMapper::default());
    let receiver = || hiperlan2_receiver(Hiperlan2Mode::Qpsk34);
    let mut starts = vec![
        manager.start(receiver()),
        manager.start(receiver()),
        manager.start(receiver()),
    ];
    if let Ok(handle) = starts[0] {
        manager.stop(handle).expect("a running application stops");
    }
    starts.push(manager.start(receiver()));
    // At most one receiver fits at a time (two MONTIUM processes needed,
    // three MONTIUMs present but ARMs limit the rest).
    assert!(starts.iter().any(Result::is_ok));
    assert!(starts.iter().any(Result::is_err));
}

#[test]
fn scenario_energy_decreases_when_apps_stop() {
    let mut manager = RuntimeManager::new(big_mesh(21), SpatialMapper::default());
    manager.start(wlan_tx()).expect("an empty mesh admits");
    let jpeg = manager.start(jpeg_encoder()).expect("both fit");
    let both = manager.running_energy_pj();
    manager.stop(jpeg).expect("a running application stops");
    assert!(manager.running_energy_pj() < both);
}
