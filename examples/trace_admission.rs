//! Flight-recorder tracing of one admission: install a bounded
//! [`FlightRecorder`](rtsm::obs::FlightRecorder) as the thread's probe,
//! admit the HIPERLAN/2 receiver through the run-time manager, and print
//! the recorded span tree — the admission span, the four mapper steps,
//! buffer sizing, and the transaction-commit counter, each with its
//! wall-clock duration.
//!
//! The recorder observes; it never steers. The admission outcome here is
//! byte-identical to an un-probed run (`tests/observability.rs` holds this
//! for the simulator).
//!
//! ```sh
//! cargo run --example trace_admission
//! ```

use rtsm::app::hiperlan2::{hiperlan2_receiver, Hiperlan2Mode};
use rtsm::core::{RuntimeManager, SpatialMapper};
use rtsm::obs::{self, FlightRecorder};
use rtsm::platform::paper::paper_platform;
use std::rc::Rc;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A small ring is plenty for one admission (~a dozen events); the
    // recorder drops the oldest events first when it overflows and says
    // so in the dump header.
    let recorder = Rc::new(FlightRecorder::new(4096));

    let spec = hiperlan2_receiver(Hiperlan2Mode::Qpsk34);
    let mut manager = RuntimeManager::new(paper_platform(), SpatialMapper::default());

    // Everything the hot path emits while the guard lives lands in the
    // ring; dropping the guard restores the previous (no-op) probe.
    {
        let _guard = obs::install(recorder.clone() as Rc<dyn obs::Probe>);
        let handle = manager.start(spec)?;
        manager.stop(handle)?;
    }

    println!(
        "recorded {} events ({} dropped) while admitting and stopping the receiver:\n",
        recorder.len(),
        recorder.dropped()
    );
    print!("{}", recorder.dump(recorder.len()));

    assert_eq!(
        recorder.balance_errors(),
        0,
        "every span the hot path begins must end"
    );
    println!("\nspan tree balanced: every begin has a matching end.");
    Ok(())
}
