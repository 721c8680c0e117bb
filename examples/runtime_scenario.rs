//! Run-time mapping in action: applications arrive and depart on a shared
//! MPSoC, and each start request is mapped against the *actual* occupancy —
//! the paper's §1.3 motivation — through the handle-based
//! [`RuntimeManager`](rtsm::core::RuntimeManager) lifecycle.
//!
//! ```sh
//! cargo run --example runtime_scenario
//! ```

use rtsm::app::hiperlan2::{hiperlan2_receiver, Hiperlan2Mode};
use rtsm::core::{RuntimeManager, SpatialMapper};
use rtsm::platform::TileKind;
use rtsm::workloads::apps::{jpeg_encoder, wlan_tx};
use rtsm::workloads::mesh_platform;

fn main() {
    // A roomy 5×5 MPSoC so the transmitter and the encoder run together.
    let platform = mesh_platform(
        7,
        5,
        5,
        &[
            (TileKind::Montium, 6),
            (TileKind::Arm, 8),
            (TileKind::Dsp, 4),
        ],
    );
    let mut manager = RuntimeManager::new(platform, SpatialMapper::default());
    let wlan = manager.start(wlan_tx()).expect("empty platform admits");
    let jpeg = manager.start(jpeg_encoder()).expect("still fits");
    // A start is mapped against what is running *now*; a rejection is an
    // answer, not a failure.
    let receiver = manager.start(hiperlan2_receiver(Hiperlan2Mode::Qpsk34));
    match &receiver {
        Ok(_) => println!("the HIPERLAN/2 receiver fits beside both"),
        Err(rejection) => println!("the HIPERLAN/2 receiver is rejected: {rejection}"),
    }

    println!(
        "manager: {} running ({:.1} nJ/period), utilization {}/{} slots",
        manager.n_running(),
        manager.running_energy_pj() as f64 / 1000.0,
        manager.utilization().used_slots,
        manager.utilization().total_slots
    );
    for (_, app) in manager.running() {
        println!(
            "  {:<36} energy {:>8.1} nJ/period, {} hops, mapped in attempt {}",
            app.spec.name,
            app.outcome.energy_pj as f64 / 1000.0,
            app.outcome.communication_hops,
            app.outcome.attempts
        );
        for (pid, a) in app.outcome.mapping.assignments() {
            println!(
                "      {:<24} on {}",
                app.spec.graph.process(pid).name,
                manager.platform().tile(a.tile).name
            );
        }
    }

    // The JPEG encoder finishes; its tiles free up.
    manager.stop(jpeg).expect("running app stops");
    if let Ok(handle) = receiver {
        manager.stop(handle).expect("running app stops");
    }
    // `wlan` stays valid no matter what stopped around it.
    let record = manager.stop(wlan).expect("handle survives churn");
    println!(
        "manager: stopped {} last, ledger now idle ({} running)",
        record.spec.name,
        manager.n_running()
    );
}
