//! Sustained stochastic load on the paper platform: a seeded
//! discrete-event simulation drives the `RuntimeManager` through thousands
//! of arrivals, departures, and HIPERLAN/2 mode switches, then reports
//! long-horizon admission metrics.
//!
//! The same seed always produces the same `SimReport` — run it twice and
//! diff the JSON.
//!
//! ```sh
//! cargo run --example run_sim
//! ```

use rtsm::core::SpatialMapper;
use rtsm::obs::{self, Span, SpanLatencyProbe};
use rtsm::platform::paper::paper_platform;
use rtsm::sim::{run_sim, ArrivalProcess, Catalog, HoldingTime, SimConfig};
use std::rc::Rc;

fn main() {
    let config = SimConfig {
        seed: 2008,
        arrivals: 2000,
        // Poisson arrivals every ~500 ticks, exponential sessions of ~2000
        // ticks: an offered load well above what the 3×3 platform carries,
        // so admission control is constantly exercised.
        arrival_process: ArrivalProcess::Poisson { mean_gap: 500 },
        holding: HoldingTime::Exponential { mean: 2000 },
        mode_switch_probability: 0.15,
        sample_interval: 50_000,
        horizon: None,
        reconfiguration: None,
        track_fragmentation: false,
        faults: None,
    };

    // `run_sim` never reads the clock; a probe installed around it times
    // every admission attempt without changing a byte of the report.
    let probe = Rc::new(SpanLatencyProbe::new());
    let run = {
        let _guard = obs::install(probe.clone() as Rc<dyn obs::Probe>);
        run_sim(
            &paper_platform(),
            SpatialMapper::default(),
            &Catalog::hiperlan2(),
            &config,
        )
        .expect("the simulation never breaks its own ledger")
    };
    let report = &run.report;
    let wall = probe.histogram(Span::Admission);

    println!(
        "seed {} · {} arrivals over {} virtual ticks ({})",
        report.seed, report.arrivals, report.end_time, report.algorithm
    );
    println!(
        "admitted {} · blocked {} · blocking probability {:.1}%",
        report.admitted,
        report.blocked,
        report.blocking_probability() * 100.0
    );
    println!(
        "mode switches: {} attempted, {} admitted, {} blocked",
        report.mode_switch_attempts, report.mode_switch_admitted, report.mode_switch_blocked
    );
    println!("rejection reasons:");
    for (kind, count) in &report.rejection_histogram {
        println!("  {kind:<40} {count}");
    }
    println!("admissions per application:");
    for (name, count) in &report.admitted_by_app {
        println!("  {name:<40} {count}");
    }
    println!(
        "energy integral {:.3} mJ·tick · peak {} running · mean slot utilization {}‰",
        report.energy_pj_ticks as f64 / 1e9,
        report.peak_running,
        report.mean_slots_permille()
    );
    println!(
        "wall clock: {} admission attempts, mean {:.1} µs, p50 {:.1} µs, p99 {:.1} µs, \
         worst {:.1} µs (not part of the report: only virtual time is deterministic)",
        wall.count(),
        wall.mean_ns() as f64 / 1e3,
        wall.p50_ns() as f64 / 1e3,
        wall.p99_ns() as f64 / 1e3,
        wall.max_ns() as f64 / 1e3
    );
    assert!(report.ledger_idle_at_end);
    println!("ledger idle after draining: commit/release stayed exact inverses");
}
