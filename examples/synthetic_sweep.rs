//! Synthetic-workload comparison: the paper's heuristic against the
//! optimal, annealing, random, and greedy baselines — the quantitative
//! benchmark §5 calls for.
//!
//! ```sh
//! cargo run --release --example synthetic_sweep
//! ```

use rtsm::baselines::{
    AnnealingMapper, ExhaustiveMapper, GreedyMapper, MappingAlgorithm, RandomMapper, SpatialMapper,
};
use rtsm::platform::TileKind;
use rtsm::workloads::{mesh_platform, synthetic_app, GraphShape, SyntheticConfig};
use std::time::Instant;

fn main() {
    println!(
        "{:<22} {:<30} {:>12} {:>6} {:>10}",
        "workload", "algorithm", "energy [nJ]", "hops", "time [µs]"
    );
    println!("{}", "-".repeat(86));

    for seed in [1u64, 2, 3] {
        for (label, shape, n) in [
            ("chain-6", GraphShape::Chain, 6),
            ("forkjoin-7", GraphShape::ForkJoin { width: 3 }, 7),
        ] {
            let spec = synthetic_app(&SyntheticConfig {
                seed,
                n_processes: n,
                shape,
                ..SyntheticConfig::default()
            });
            let platform = mesh_platform(
                seed.wrapping_mul(31),
                4,
                4,
                &[(TileKind::Montium, 5), (TileKind::Arm, 5)],
            );
            let state = platform.initial_state();

            let algorithms: Vec<Box<dyn MappingAlgorithm>> = vec![
                Box::new(SpatialMapper::default()),
                Box::new(GreedyMapper),
                Box::new(RandomMapper),
                Box::new(AnnealingMapper { iterations: 2000 }),
                Box::new(ExhaustiveMapper { max_nodes: 300_000 }),
            ];
            for algorithm in &algorithms {
                let t0 = Instant::now();
                let outcome = algorithm.map(&spec, &platform, &state);
                let dt = t0.elapsed().as_secs_f64() * 1e6;
                match outcome {
                    Ok(r) => println!(
                        "{:<22} {:<30} {:>12.1} {:>6} {:>10.0}",
                        format!("{label} s{seed}"),
                        algorithm.name(),
                        r.energy_pj as f64 / 1000.0,
                        r.communication_hops,
                        dt
                    ),
                    Err(_) => println!(
                        "{:<22} {:<30} {:>12} {:>6} {:>10.0}",
                        format!("{label} s{seed}"),
                        algorithm.name(),
                        "-",
                        "-",
                        dt
                    ),
                }
            }
        }
    }
}
