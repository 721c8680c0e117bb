//! Cross-crate quality checks: the heuristic against the optimal reference
//! on a seed sweep — the paper's "promising results" claim, quantified.

use rtsm::baselines::{ExhaustiveMapper, GreedyMapper, MappingAlgorithm, SpatialMapper};
use rtsm::core::MapError;
use rtsm::platform::TileKind;
use rtsm::workloads::{mesh_platform, synthetic_app, GraphShape, SyntheticConfig};

fn setup(seed: u64) -> (rtsm::app::ApplicationSpec, rtsm::platform::Platform) {
    let spec = synthetic_app(&SyntheticConfig {
        seed,
        n_processes: 5,
        shape: GraphShape::Chain,
        ..SyntheticConfig::default()
    });
    let platform = mesh_platform(
        seed.wrapping_mul(7919),
        4,
        4,
        &[(TileKind::Montium, 4), (TileKind::Arm, 4)],
    );
    (spec, platform)
}

/// The heuristic is never better than the exhaustive optimum, stays within
/// 1.5× of it on every instance, and within 5% on average — the measured
/// "promising results" of the paper's abstract, quantified.
#[test]
fn heuristic_within_factor_of_optimal() {
    let mut compared = 0;
    let mut gap_sum = 0.0f64;
    for seed in 0..8u64 {
        let (spec, platform) = setup(seed);
        let state = platform.initial_state();
        let heuristic = SpatialMapper::default().map(&spec, &platform, &state);
        let optimal = ExhaustiveMapper { max_nodes: 400_000 }.map(&spec, &platform, &state);
        if let (Ok(h), Ok(o)) = (heuristic, optimal) {
            assert!(
                h.energy_pj >= o.energy_pj,
                "seed {seed}: heuristic {} below optimum {}?",
                h.energy_pj,
                o.energy_pj
            );
            let ratio = h.energy_pj as f64 / o.energy_pj as f64;
            assert!(
                ratio <= 1.5,
                "seed {seed}: heuristic {} vs optimum {}",
                h.energy_pj,
                o.energy_pj
            );
            compared += 1;
            gap_sum += ratio - 1.0;
        }
    }
    assert!(compared >= 4, "too few comparable instances ({compared})");
    let mean_gap = gap_sum / compared as f64;
    assert!(
        mean_gap <= 0.05,
        "mean optimality gap {:.1}% exceeds 5% over {compared} instances",
        mean_gap * 100.0
    );
}

/// Step 2 never hurts: the full heuristic's communication cost is at most
/// the greedy (step-1-only) cost on every instance where both map.
#[test]
fn step2_monotonically_improves_communication() {
    for seed in 0..12u64 {
        let (spec, platform) = setup(seed);
        let state = platform.initial_state();
        let full = SpatialMapper::default().map(&spec, &platform, &state);
        let greedy = GreedyMapper.map(&spec, &platform, &state);
        if let (Ok(f), Ok(g)) = (full, greedy) {
            assert!(
                f.communication_hops <= g.communication_hops,
                "seed {seed}: step 2 made communication worse ({} > {})",
                f.communication_hops,
                g.communication_hops
            );
        }
    }
}

/// Every registered algorithm against the exhaustive optimum, on the
/// instances the search completes (it evaluated fewer nodes than its bound,
/// so its answer is proof): an algorithm maps only where a mapping exists,
/// and never below the optimum's energy.
#[test]
fn no_registered_algorithm_beats_or_outmaps_the_exhaustive_optimum() {
    const MAX_NODES: u64 = 400_000;
    let mut complete = 0;
    for seed in 0..8u64 {
        let (spec, platform) = setup(seed);
        let state = platform.initial_state();
        let optimal = ExhaustiveMapper {
            max_nodes: MAX_NODES,
        }
        .map(&spec, &platform, &state);
        let evaluated = match &optimal {
            Ok(outcome) => outcome.evaluated,
            Err(MapError::NoFeasibleMapping { attempts, .. }) => *attempts as u64,
            Err(other) => panic!("seed {seed}: {other}"),
        };
        if evaluated >= MAX_NODES {
            continue;
        }
        complete += 1;
        for entry in &rtsm::exp::ALGORITHMS {
            let Ok(found) = (entry.build)().map(&spec, &platform, &state) else {
                continue;
            };
            match &optimal {
                Ok(best) => assert!(
                    found.energy_pj >= best.energy_pj,
                    "seed {seed}: `{}` at {} pJ below the optimum {} pJ",
                    entry.name,
                    found.energy_pj,
                    best.energy_pj
                ),
                Err(_) => panic!(
                    "seed {seed}: `{}` mapped what the exhaustive search proved unmappable",
                    entry.name
                ),
            }
        }
    }
    assert!(complete >= 4, "too few completed searches ({complete})");
}

/// Whenever the exhaustive search finds any feasible mapping, the heuristic
/// (with refinement) finds one too on this suite — the run-time algorithm
/// does not miss admissible applications.
#[test]
fn heuristic_admits_when_optimal_exists() {
    for seed in 0..8u64 {
        let (spec, platform) = setup(seed);
        let state = platform.initial_state();
        let optimal = ExhaustiveMapper { max_nodes: 400_000 }.map(&spec, &platform, &state);
        if optimal.is_ok() {
            assert!(
                SpatialMapper::default()
                    .map(&spec, &platform, &state)
                    .is_ok(),
                "seed {seed}: heuristic missed a feasible instance"
            );
        }
    }
}
