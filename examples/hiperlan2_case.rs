//! The paper's Section 4 walk-through, step by step: prints Figure 1,
//! Table 1, Figure 2, Table 2 (regenerated exactly), and Figure 3's CSDF
//! composition with the computed buffer capacities.
//!
//! ```sh
//! cargo run --example hiperlan2_case
//! ```

use rtsm::app::hiperlan2::{hiperlan2_receiver, Hiperlan2Mode};
use rtsm::core::cost::CostModel;
use rtsm::core::feedback::Constraints;
use rtsm::core::report::{render_table1, render_table2};
use rtsm::core::step1::assign_implementations;
use rtsm::core::step2::improve_assignment;
use rtsm::core::step3::route_channels;
use rtsm::core::step4::{check_constraints, Step4Config};
use rtsm::platform::paper::paper_platform;
use rtsm::platform::render::render_layout;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let spec = hiperlan2_receiver(Hiperlan2Mode::Qpsk34);
    let platform = paper_platform();

    println!("— §4.1 Application Level Specification (Figure 1) —");
    for (_, ch) in spec.graph.channels() {
        println!(
            "  {:?} --{}--> {:?}{}",
            ch.src,
            ch.tokens_per_period,
            ch.dst,
            if ch.is_control { " [control]" } else { "" }
        );
    }

    println!("\n— §4.2 Implementations (Table 1) —");
    print!("{}", render_table1(&spec));

    println!("\n— §4.3 Hardware (Figure 2) —");
    print!("{}", render_layout(&platform));

    println!("\n— §4.4 Mapping —");
    let constraints = Constraints::new();
    let base = platform.initial_state();

    // Step 1: implementation selection by desirability + first-fit packing.
    let step1 = assign_implementations(&spec, &platform, &base, &constraints)
        .expect("the paper case passes step 1");
    println!("step 1 decisions (desirability order):");
    for e in &step1.step_events() {
        println!(
            "  {:<22} -> {} (desirability {})",
            spec.graph.process(e.process).name,
            platform.tile(e.tile).name,
            if e.desirability == u64::MAX {
                "max (single option)".to_string()
            } else {
                format!("{}", e.desirability)
            }
        );
    }

    // Step 2: local search — regenerates Table 2.
    let mut mapping = step1.mapping;
    let mut working = step1.working;
    let trace = improve_assignment(
        &spec,
        &platform,
        &constraints,
        &mut mapping,
        &mut working,
        &CostModel::HopCount,
    );
    println!("\nstep 2 iterations (Table 2):");
    print!("{}", render_table2(&spec, &platform, &trace));

    // Step 3: incremental routing, heaviest channel first.
    route_channels(&spec, &platform, &mut mapping, &mut working).expect("the paper case routes");
    println!("\nstep 3 routes:");
    for (cid, route) in mapping.routes() {
        println!("  {cid:?}: {} hops", route.hops());
    }

    // Step 4: compose the CSDF graph (Figure 3) and check the constraints.
    let step4 = check_constraints(&spec, &platform, &mapping, &working, &Step4Config);
    println!("\nstep 4 (Figure 3):");
    println!(
        "  actors: {} (A/D + Sink + 4 implementations + {} routers)",
        step4.csdf.n_actors(),
        step4
            .csdf
            .actors()
            .filter(|(_, a)| a.name.starts_with("R("))
            .count()
    );
    for (i, b) in step4.verdict.buffers.iter().enumerate() {
        println!(
            "  B{} = {} words (at {})",
            i + 1,
            b.capacity_words,
            platform.tile(b.tile).name
        );
    }
    println!(
        "  feasible: {} (achieved period {} ps / {} iterations)",
        step4.verdict.feasible, step4.verdict.achieved_period.0, step4.verdict.achieved_period.1
    );
    Ok(())
}

/// Small extension trait so the example reads linearly.
trait Step1Ext {
    fn step_events(&self) -> Vec<rtsm::core::trace::Step1Event>;
}

impl Step1Ext for rtsm::core::step1::Step1Output {
    fn step_events(&self) -> Vec<rtsm::core::trace::Step1Event> {
        self.events.clone()
    }
}
