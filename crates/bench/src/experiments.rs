//! Experiment runners: one function per paper artefact (E1–E12).

use crate::render::{render_kpn, Table};
use rtsm_app::hiperlan2::{hiperlan2_receiver, Hiperlan2Mode};
use rtsm_app::{
    ApplicationSpec, Endpoint, Implementation, ImplementationLibrary, ProcessGraph, QosSpec,
};
use rtsm_baselines::{AnnealingMapper, ExhaustiveMapper, GreedyMapper, RandomMapper};
use rtsm_core::cost::CostModel;
use rtsm_core::report::{render_summary, render_table1, render_table2};
use rtsm_core::step2::{Step2Config, Step2Strategy};
use rtsm_core::trace::Step2Trace;
use rtsm_core::{MapperConfig, MappingAlgorithm, MappingOutcome, SpatialMapper};
use rtsm_dataflow::PhaseVec;
use rtsm_platform::paper::paper_platform;
use rtsm_platform::render::render_layout;
use rtsm_platform::{Platform, TileKind};
use rtsm_workloads::apps::{jpeg_encoder, wlan_tx};
use rtsm_workloads::{mesh_platform, synthetic_app, GraphShape, SyntheticConfig};
use std::fmt::Write as _;
use std::time::Instant;

/// The paper's default walk-through mode (`b` left symbolic in the paper;
/// QPSK ¾ keeps every Table 1 expression positive).
pub const DEFAULT_MODE: Hiperlan2Mode = Hiperlan2Mode::Qpsk34;

fn paper_mapping() -> (ApplicationSpec, Platform, MappingOutcome) {
    let spec = hiperlan2_receiver(DEFAULT_MODE);
    let platform = paper_platform();
    let result = SpatialMapper::new(MapperConfig::default())
        .map(&spec, &platform, &platform.initial_state())
        .expect("the paper's case study maps");
    (spec, platform, result)
}

/// Steps 1–3 of the paper heuristic for `spec` alone on the empty
/// `platform`: the routed mapping and the working ledger that step 4 is
/// handed (what the step-4 measurements start from).
///
/// # Panics
///
/// Panics if `spec` does not fit or route on the empty platform.
pub fn steps_one_to_three(
    spec: &ApplicationSpec,
    platform: &Platform,
) -> (rtsm_core::Mapping, rtsm_platform::PlatformState) {
    let constraints = rtsm_core::feedback::Constraints::new();
    let placed = rtsm_core::step1::assign_implementations(
        spec,
        platform,
        &platform.initial_state(),
        &constraints,
    )
    .expect("the spec fits its empty platform");
    let (mut mapping, mut working) = (placed.mapping, placed.working);
    rtsm_core::step2::improve_assignment(
        spec,
        platform,
        &constraints,
        &mut mapping,
        &mut working,
        &CostModel::HopCount,
        &Step2Config::default(),
    );
    rtsm_core::step3::route_channels(spec, platform, &mut mapping, &mut working)
        .expect("routable when empty");
    (mapping, working)
}

/// E1 — Figure 1: the HIPERLAN/2 receiver KPN.
pub fn fig1() -> String {
    render_kpn(&hiperlan2_receiver(DEFAULT_MODE))
}

/// E2 — Table 1: the implementation library.
pub fn table1() -> String {
    render_table1(&hiperlan2_receiver(DEFAULT_MODE))
}

/// E3 — Figure 2: the MPSoC layout.
pub fn fig2() -> String {
    render_layout(&paper_platform())
}

/// E4 — Table 2: the step-2 processor-assignment iterations (rendered
/// table plus the raw trace for assertions).
pub fn table2() -> (String, Step2Trace) {
    let (spec, platform, result) = paper_mapping();
    let trace = result
        .trace
        .as_ref()
        .expect("the heuristic records a trace")
        .successful_attempt()
        .expect("feasible attempt exists")
        .step2
        .clone();
    (render_table2(&spec, &platform, &trace), trace)
}

/// Structured summary of the composed CSDF graph (Figure 3).
#[derive(Debug, Clone)]
pub struct Fig3Summary {
    /// Graphviz rendering of the composed graph.
    pub dot: String,
    /// Number of router actors (the paper's figure has 12).
    pub routers: usize,
    /// Total actors (paper: A/D + Sink + 4 processes + 12 routers = 18).
    pub actors: usize,
    /// The computed `B_i` capacities in words, channel-labelled.
    pub buffers: Vec<(String, u64)>,
    /// Achieved source period `(ps, iterations)`.
    pub achieved_period: (u64, u64),
    /// Human-readable mapping summary.
    pub summary: String,
}

/// E5 — Figure 3: the final CSDF graph with computed buffer capacities.
pub fn fig3() -> Fig3Summary {
    let (spec, platform, result) = paper_mapping();
    let csdf = result
        .csdf
        .as_ref()
        .expect("the heuristic retains the CSDF graph");
    let routers = csdf
        .actors()
        .filter(|(_, a)| a.name.starts_with("R("))
        .count();
    let buffers = result
        .buffers
        .iter()
        .enumerate()
        .map(|(i, b)| {
            (
                format!(
                    "B{} ({:?} @ {})",
                    i + 1,
                    b.channel,
                    platform.tile(b.tile).name
                ),
                b.capacity_words,
            )
        })
        .collect();
    Fig3Summary {
        dot: rtsm_dataflow::dot::to_dot(csdf),
        routers,
        actors: csdf.n_actors(),
        buffers,
        achieved_period: result.achieved_period,
        summary: render_summary(&result, &spec, &platform),
    }
}

/// Timing statistics of repeated full mapping runs (E6, §4.5).
#[derive(Debug, Clone, Copy)]
pub struct PerfStats {
    /// Number of timed runs.
    pub runs: u32,
    /// Fastest run in microseconds.
    pub min_us: f64,
    /// Mean run in microseconds.
    pub mean_us: f64,
    /// Slowest run in microseconds.
    pub max_us: f64,
}

/// E6 — §4.5: wall-clock time of the full four-step mapping.
pub fn perf(runs: u32) -> PerfStats {
    let spec = hiperlan2_receiver(DEFAULT_MODE);
    let platform = paper_platform();
    let state = platform.initial_state();
    let mapper = SpatialMapper::new(MapperConfig::default());
    // Warm-up.
    let _ = mapper.map(&spec, &platform, &state);
    let mut times = Vec::with_capacity(runs as usize);
    for _ in 0..runs {
        let t0 = Instant::now();
        let result = mapper.map(&spec, &platform, &state);
        let dt = t0.elapsed().as_secs_f64() * 1e6;
        assert!(result.is_ok());
        times.push(dt);
    }
    let min = times.iter().copied().fold(f64::INFINITY, f64::min);
    let max = times.iter().copied().fold(0.0, f64::max);
    let mean = times.iter().sum::<f64>() / times.len() as f64;
    PerfStats {
        runs,
        min_us: min,
        mean_us: mean,
        max_us: max,
    }
}

/// One row of the E7 quality comparison.
#[derive(Debug, Clone)]
pub struct QualityRow {
    /// Workload label.
    pub workload: String,
    /// Algorithm label.
    pub algorithm: String,
    /// Energy in pJ/period (`None` = no feasible mapping found).
    pub energy_pj: Option<u64>,
    /// Communication hops.
    pub hops: Option<u32>,
    /// Wall time in microseconds.
    pub time_us: f64,
    /// Algorithm-reported search effort.
    pub evaluated: u64,
}

/// E7 — the quantitative benchmark §5 calls for: the heuristic against
/// optimal, annealing, random, and greedy baselines on synthetic workloads.
pub fn quality_comparison(seeds: &[u64]) -> (String, Vec<QualityRow>) {
    let mut rows = Vec::new();
    for &seed in seeds {
        let spec = synthetic_app(&SyntheticConfig {
            seed,
            n_processes: 6,
            shape: GraphShape::Chain,
            ..SyntheticConfig::default()
        });
        let platform = mesh_platform(
            seed ^ 0xA5A5,
            4,
            4,
            &[(TileKind::Montium, 4), (TileKind::Arm, 5)],
        );
        let state = platform.initial_state();
        let algorithms: Vec<Box<dyn MappingAlgorithm>> = vec![
            Box::new(SpatialMapper::default()),
            Box::new(GreedyMapper),
            Box::new(RandomMapper),
            Box::new(AnnealingMapper { iterations: 1500 }),
            Box::new(ExhaustiveMapper { max_nodes: 200_000 }),
        ];
        for algorithm in &algorithms {
            let t0 = Instant::now();
            let outcome = algorithm.map(&spec, &platform, &state).ok();
            let time_us = t0.elapsed().as_secs_f64() * 1e6;
            rows.push(QualityRow {
                workload: format!("chain-6 seed {seed}"),
                algorithm: algorithm.name().to_string(),
                energy_pj: outcome.as_ref().map(|o| o.energy_pj),
                hops: outcome.as_ref().map(|o| o.communication_hops),
                time_us,
                evaluated: outcome.as_ref().map(|o| o.evaluated).unwrap_or(0),
            });
        }
    }

    let mut table = Table::new(&[
        "workload",
        "algorithm",
        "energy [nJ]",
        "hops",
        "time [µs]",
        "evaluations",
    ]);
    for r in &rows {
        table.row(vec![
            r.workload.clone(),
            r.algorithm.to_string(),
            r.energy_pj
                .map(|e| format!("{:.1}", e as f64 / 1000.0))
                .unwrap_or_else(|| "-".into()),
            r.hops.map(|h| h.to_string()).unwrap_or_else(|| "-".into()),
            format!("{:.0}", r.time_us),
            r.evaluated.to_string(),
        ]);
    }
    (table.render(), rows)
}

/// E8/E9 — ablations: step 2 on/off, search strategy, cost model.
pub fn ablation() -> String {
    let mut out = String::new();
    let spec = hiperlan2_receiver(DEFAULT_MODE);
    let platform = paper_platform();
    let state = platform.initial_state();

    // E8: step 2 on/off on the paper case.
    let full = SpatialMapper::default()
        .map(&spec, &platform, &state)
        .unwrap();
    let greedy = GreedyMapper.map(&spec, &platform, &state).unwrap();
    let _ = writeln!(out, "E8 — step 2 ablation (HIPERLAN/2 on paper platform):");
    let _ = writeln!(
        out,
        "  with step 2:    cost {} hops, {:.1} nJ",
        full.communication_hops,
        full.energy_pj as f64 / 1000.0
    );
    let _ = writeln!(
        out,
        "  without step 2: cost {} hops, {:.1} nJ",
        greedy.communication_hops,
        greedy.energy_pj as f64 / 1000.0
    );
    let _ = writeln!(
        out,
        "  communication reduction: {:.0}%",
        100.0 * (1.0 - full.communication_hops as f64 / greedy.communication_hops as f64)
    );

    // E9a: search strategy.
    let _ = writeln!(
        out,
        "\nE9a — step-2 strategy (PaperScan vs BestImprovement):"
    );
    for strategy in [Step2Strategy::PaperScan, Step2Strategy::BestImprovement] {
        let config = MapperConfig {
            step2: Step2Config {
                strategy,
                ..Step2Config::default()
            },
            ..MapperConfig::default()
        };
        let result = SpatialMapper::new(config)
            .map(&spec, &platform, &state)
            .unwrap();
        let evals: usize = result
            .trace
            .as_ref()
            .expect("the heuristic records a trace")
            .attempts
            .iter()
            .map(|a| a.step2.events.len())
            .sum();
        let _ = writeln!(
            out,
            "  {strategy:?}: final cost {} hops, {evals} evaluations",
            result.communication_hops
        );
    }

    // E9c: routing policy — the paper's adaptive capacity-aware search vs
    // classic dimension-ordered XY, on a congested platform.
    let _ = writeln!(out, "\nE9c — step-3 routing policy (congested 4×4 mesh):");
    {
        use rtsm_platform::RoutingPolicy;
        let platform = mesh_platform(77, 4, 4, &[(TileKind::Montium, 5), (TileKind::Arm, 5)]);
        // Pre-congest: another application already holds bandwidth on a
        // column of links.
        let mut base = platform.initial_state();
        for (l, link) in platform.links() {
            if link.from.x == 1 && link.to.x == 1 {
                base.allocate_link(&platform, l, link.capacity - 10_000_000)
                    .expect("empty ledger accepts");
            }
        }
        let syn = synthetic_app(&SyntheticConfig {
            seed: 77,
            n_processes: 6,
            ..SyntheticConfig::default()
        });
        for (label, routing) in [
            ("adaptive", RoutingPolicy::Adaptive),
            ("XY", RoutingPolicy::DimensionOrdered),
        ] {
            let config = MapperConfig {
                routing,
                ..MapperConfig::default()
            };
            match SpatialMapper::new(config).map(&syn, &platform, &base) {
                Ok(r) => {
                    let _ = writeln!(
                        out,
                        "  {label}: feasible, {} hops, {:.1} nJ, attempt {}",
                        r.communication_hops,
                        r.energy_pj as f64 / 1000.0,
                        r.attempts
                    );
                }
                Err(_) => {
                    let _ = writeln!(out, "  {label}: no feasible mapping");
                }
            }
        }
    }

    // E9b: cost model on synthetic workloads (hop count vs traffic vs
    // energy as the step-2 objective).
    let _ = writeln!(
        out,
        "\nE9b — step-2 cost model (synthetic chains, energy in nJ):"
    );
    for seed in [11u64, 12, 13] {
        let syn = synthetic_app(&SyntheticConfig {
            seed,
            n_processes: 6,
            ..SyntheticConfig::default()
        });
        let syn_platform = mesh_platform(seed, 4, 4, &[(TileKind::Montium, 4), (TileKind::Arm, 5)]);
        let syn_state = syn_platform.initial_state();
        let mut line = format!("  seed {seed}:");
        for (label, cost_model) in [
            ("hops", CostModel::HopCount),
            ("traffic", CostModel::TrafficWeighted),
            ("energy", CostModel::Energy),
        ] {
            let config = MapperConfig {
                cost_model,
                ..MapperConfig::default()
            };
            match SpatialMapper::new(config).map(&syn, &syn_platform, &syn_state) {
                Ok(r) => {
                    let _ = write!(line, " {label}={:.1}", r.energy_pj as f64 / 1000.0);
                }
                Err(_) => {
                    let _ = write!(line, " {label}=infeasible");
                }
            }
        }
        let _ = writeln!(out, "{line}");
    }
    out
}

/// E10 — run-time knowledge vs design-time worst case (§1.3).
pub fn runtime_scenario() -> String {
    let mut out = String::new();
    // A 4×4 platform with seven MONTIUMs: the running 802.11a transmitter
    // claims six of them, so exactly one remains for the JPEG encoder — a
    // fact only known at run time.
    let platform = mesh_platform(99, 4, 4, &[(TileKind::Montium, 7), (TileKind::Arm, 5)]);
    let mapper = SpatialMapper::new(MapperConfig::default());
    let wlan = wlan_tx();
    let jpeg = jpeg_encoder();

    let mut state = platform.initial_state();
    let wlan_result = mapper
        .map(&wlan, &platform, &state)
        .expect("wlan maps on the empty platform");
    wlan_result
        .commit(&wlan, &platform, &mut state)
        .expect("commit after map");
    let _ = writeln!(
        out,
        "running: {} at {:.1} nJ/period",
        wlan.name,
        wlan_result.energy_pj as f64 / 1000.0
    );

    // Run-time mapping of B against the *actual* occupancy.
    let runtime = mapper.map(&jpeg, &platform, &state);

    // Design-time worst case: B's mapping must assume every MONTIUM could
    // be taken by other applications (the paper's worst-case argument), so
    // forbid them all by marking them occupied.
    let mut worst_case = platform.initial_state();
    for (tile, _) in platform.tiles_of_kind(TileKind::Montium) {
        worst_case
            .claim_tile(
                &platform,
                tile,
                &rtsm_platform::TileClaim {
                    slots: platform.tile(tile).compute_slots,
                    memory_bytes: 0,
                    cycles_per_second: 0,
                    injection: 0,
                    ejection: 0,
                },
            )
            .expect("empty ledger accepts the claim");
    }
    let designtime = mapper.map(&jpeg, &platform, &worst_case);

    match (&runtime, &designtime) {
        (Ok(rt), Ok(dt)) => {
            let _ = writeln!(
                out,
                "JPEG encoder, run-time mapping (actual occupancy): {:.1} nJ/period",
                rt.energy_pj as f64 / 1000.0
            );
            let _ = writeln!(
                out,
                "JPEG encoder, design-time worst case (all MONTIUMs assumed busy): {:.1} nJ/period",
                dt.energy_pj as f64 / 1000.0
            );
            let _ = writeln!(
                out,
                "run-time saving: {:.0}%",
                100.0 * (1.0 - rt.energy_pj as f64 / dt.energy_pj as f64)
            );
        }
        (Ok(rt), Err(_)) => {
            let _ = writeln!(
                out,
                "JPEG encoder, run-time mapping: {:.1} nJ/period; design-time worst case: \
                 NO mapping at all",
                rt.energy_pj as f64 / 1000.0
            );
        }
        _ => {
            let _ = writeln!(out, "unexpected: run-time mapping failed");
        }
    }
    out
}

/// One row of the E11 mode sweep.
#[derive(Debug, Clone)]
pub struct ModeRow {
    /// Mode name.
    pub mode: &'static str,
    /// Demapped words per symbol (`b`).
    pub b_words: u64,
    /// Whether the mapping is feasible.
    pub feasible: bool,
    /// Computed buffer capacities `B_1..B_4` in words.
    pub buffers: Vec<u64>,
    /// Energy in pJ/period.
    pub energy_pj: u64,
}

/// E11 — the seven HIPERLAN/2 modes: feasibility and buffer sizes vs `b`.
pub fn modes() -> (String, Vec<ModeRow>) {
    let platform = paper_platform();
    let mapper = SpatialMapper::new(MapperConfig::default());
    let mut rows = Vec::new();
    for mode in Hiperlan2Mode::ALL {
        let spec = hiperlan2_receiver(mode);
        match mapper.map(&spec, &platform, &platform.initial_state()) {
            Ok(result) => rows.push(ModeRow {
                mode: mode.name(),
                b_words: mode.demapped_words(),
                feasible: true,
                buffers: result.buffers.iter().map(|b| b.capacity_words).collect(),
                energy_pj: result.energy_pj,
            }),
            Err(_) => rows.push(ModeRow {
                mode: mode.name(),
                b_words: mode.demapped_words(),
                feasible: false,
                buffers: Vec::new(),
                energy_pj: 0,
            }),
        }
    }
    let mut table = Table::new(&[
        "mode",
        "b [words]",
        "feasible",
        "B1..B4 [words]",
        "energy [nJ]",
    ]);
    for r in &rows {
        table.row(vec![
            r.mode.to_string(),
            r.b_words.to_string(),
            r.feasible.to_string(),
            format!("{:?}", r.buffers),
            format!("{:.1}", r.energy_pj as f64 / 1000.0),
        ]);
    }
    (table.render(), rows)
}

/// E12 — feedback-driven refinement: a first-fit placement that cannot be
/// routed is repaired on the second attempt.
pub fn feedback_demo() -> (String, MappingOutcome) {
    use rtsm_platform::{Coord, PlatformBuilder};
    // ARM-best sits between A/D and Sink (communication cost 2) but all of
    // its links are pre-saturated; ARM-detour costs 6. Step 1 first-fits
    // onto ARM-best, step 2 keeps it (moving would *raise* the Manhattan
    // cost), so step 3 must fail and feed back — the refinement then
    // forbids the tile and attempt 2 lands on ARM-detour.
    let platform = PlatformBuilder::mesh(3, 3)
        .tile("ARM-best", TileKind::Arm, Coord { x: 0, y: 1 })
        .tile("ARM-detour", TileKind::Arm, Coord { x: 2, y: 1 })
        .tile("A/D", TileKind::AdcSource, Coord { x: 0, y: 0 })
        .tile("Sink", TileKind::Sink, Coord { x: 0, y: 2 })
        .build()
        .expect("valid layout");
    let mut base = platform.initial_state();
    let blocked = Coord { x: 0, y: 1 };
    for n in platform.neighbours(blocked) {
        for (a, b) in [(blocked, n), (n, blocked)] {
            let link = platform.link_between(a, b).expect("adjacent");
            let residual = base.residual_link(&platform, link);
            base.allocate_link(&platform, link, residual).expect("fits");
        }
    }

    // A single-process pass-through application.
    let mut graph = ProcessGraph::new();
    let p = graph.add_process_abbrev("Filter", "Flt.");
    graph
        .add_channel(Endpoint::StreamInput, Endpoint::Process(p), 16)
        .expect("valid endpoints");
    graph
        .add_channel(Endpoint::Process(p), Endpoint::StreamOutput, 16)
        .expect("valid endpoints");
    let mut library = ImplementationLibrary::new();
    library.register(
        p,
        Implementation::simple(
            "Filter @ ARM",
            TileKind::Arm,
            PhaseVec::from_slice(&[4, 40, 4]),
            PhaseVec::from_slice(&[16, 0, 0]),
            PhaseVec::from_slice(&[0, 0, 16]),
            10_000,
            1024,
        ),
    );
    let spec = ApplicationSpec {
        name: "pass-through filter".into(),
        graph,
        qos: QosSpec::with_period(4_000_000),
        library,
    };

    let result = SpatialMapper::new(MapperConfig::default())
        .map(&spec, &platform, &base)
        .expect("refinement finds the detour ARM");
    let mut out = String::new();
    let _ = writeln!(
        out,
        "steps 1–2 placed `Filter` on ARM-best (cheapest, but unroutable: links saturated);"
    );
    let _ = writeln!(
        out,
        "step-3 feedback forbade that tile; attempt {} mapped it on {} — feasible.",
        result.attempts,
        platform
            .tile(
                result
                    .mapping
                    .assignments()
                    .next()
                    .expect("assigned")
                    .1
                    .tile
            )
            .name
    );
    (out, result)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_trace_matches_paper_exactly() {
        let (rendered, trace) = table2();
        assert_eq!(trace.initial_cost, 11);
        let shown: Vec<(u64, bool)> = trace.events.iter().map(|e| (e.cost, e.kept)).collect();
        assert_eq!(&shown[..3], &[(11, false), (9, true), (7, true)]);
        assert!(rendered.contains("Initial (greedy) assignment"));
        assert!(rendered.contains("No further choices"));
    }

    #[test]
    fn fig3_summary_matches_paper_shape() {
        let f = fig3();
        assert_eq!(f.routers, 12);
        assert_eq!(f.actors, 18);
        assert_eq!(f.buffers.len(), 4);
        assert_eq!(f.achieved_period.0, 4_000_000 * f.achieved_period.1);
        assert!(f.dot.contains("digraph"));
    }

    #[test]
    fn perf_is_run_time_scale() {
        let stats = perf(5);
        // The paper's C implementation took <4 ms at 100 MHz; release
        // builds here measure ~10 ms (exact simulation instead of the
        // paper's closed-form buffer bounds). Debug builds are ~15× slower,
        // so the guard is profile-dependent.
        let bound_us = if cfg!(debug_assertions) {
            2_000_000.0
        } else {
            100_000.0
        };
        assert!(stats.mean_us < bound_us, "mean {} µs", stats.mean_us);
    }

    #[test]
    fn quality_heuristic_never_worse_than_random_never_better_than_optimal() {
        let (_, rows) = quality_comparison(&[21]);
        let energy = |name: &str| {
            rows.iter()
                .find(|r| r.algorithm.contains(name))
                .and_then(|r| r.energy_pj)
        };
        let heuristic = energy("heuristic").expect("heuristic maps");
        if let Some(optimal) = energy("exhaustive") {
            assert!(heuristic >= optimal);
            // Shape claim: heuristic within 2x of optimal.
            assert!(
                heuristic <= optimal * 2,
                "heuristic {heuristic} vs optimal {optimal}"
            );
        }
        if let Some(random) = energy("random") {
            assert!(
                heuristic <= random * 11 / 10,
                "heuristic {heuristic} vs random {random}"
            );
        }
    }

    #[test]
    fn mode_sweep_all_feasible_with_monotone_last_buffer() {
        let (_, rows) = modes();
        assert!(rows.iter().all(|r| r.feasible));
        assert_eq!(rows.len(), 7);
    }

    #[test]
    fn feedback_demo_recovers_on_second_attempt() {
        let (_, result) = feedback_demo();
        assert!(result.attempts >= 2);
        assert!(result.feasible);
    }

    #[test]
    fn runtime_scenario_reports_saving_or_rejection() {
        let s = runtime_scenario();
        assert!(s.contains("run-time"), "{s}");
    }
}
