//! `bench_map` — the tracked perf baseline of the mapping hot path.
//!
//! Emits `BENCH_map.json` with:
//!
//! * median `map()` latency on the paper case (trace capture on and off),
//!   next to the recorded pre-optimisation baseline, so the perf
//!   trajectory has explicit data points;
//! * the `observability` section (new in schema 5): a per-step latency
//!   breakdown of `map()` (steps 1–4 + buffer sizing, p50/p90/p99/max
//!   from a `SpanLatencyProbe`) plus the **probe-overhead gate** — the
//!   `map()` median with a no-op probe installed must stay within 3% of
//!   the bare median (interleaved samples, asserted);
//! * synthetic-chain scaling (map latency vs. application size);
//! * simulated events/second for every algorithm in the
//!   `rtsm_exp::ALGORITHMS` registry under a fixed-seed stochastic
//!   workload;
//! * the energy-aware reconfiguration **Pareto front** (`pareto` section):
//!   blocking ‰ vs. total migration energy for a sweep of the objective
//!   weight λ and the admission-policy set on the defrag workload, with
//!   sanity gates (bounded policies must still recover admissions while
//!   spending strictly less migration energy than always-admit);
//! * peak live heap allocation during one `map()` call, via the workspace's
//!   [`PeakAlloc`] global allocator;
//! * the fault-injection chaos run (`resilience` section, new in schema
//!   6): a seeded tile/link failure process on the mixed catalog,
//!   recovered through `RuntimeManager::evacuate`, with evacuation
//!   latency percentiles from a `SpanLatencyProbe` on `Span::Evacuate`
//!   and degraded-vs-healthy blocking. Byte-identical determinism of the
//!   fault-injected report, at least one successful evacuation, full
//!   repair coverage, and a leak-free ledger are asserted;
//! * the template-library admission split (`templates` section, new in
//!   schema 7): hit-path latency (`Span::TemplateMatch`, pure-hit
//!   admissions of the paper case) against the full-heuristic miss path
//!   (`Span::Map`), p50/p90/p99 from a `SpanLatencyProbe` over one
//!   interleaved window, with the **hit-beats-miss gate** (hit p50 <
//!   miss p50, asserted) and the deterministic steady-state hit-rate
//!   floor (≥ 500‰ on the mixed catalog, asserted) plus events/second
//!   with templates on vs off, and `key_ns`: what `spec_fingerprint` costs
//!   on each catalog spec (asserted below the hit path's p50);
//! * what a refusal costs (`rejections` section, additive in schema 8):
//!   per mixed-catalog spec arriving on the 4×4 mesh while `dvbt-rx` runs —
//!   the length of the refinement chain behind the refused `map`, how many
//!   of its attempts were step-1 dead ends, how many cached shapes the
//!   failed lookup passed over by slot demand, and the time and allocator
//!   calls of each. That every arrival is refused and every lookup misses
//!   is asserted; the times are reported, never gated;
//! * what "yes" costs in step 4 (`step4` section, additive in schema 8):
//!   per spec of every registered catalog, mapped on its empty platform —
//!   the mapping's signature, the warm verdict keyed by it (with its
//!   allocator calls), composing the Figure-3 graph the verdict no longer
//!   needs, and the whole verdict on a fresh thread, where nothing is
//!   remembered, with the self-timed simulations it runs. That the warm
//!   verdict equals the cold one is asserted, and so is the **cold-count
//!   gate** (one simulation per mixed spec, at most four per paper-platform
//!   mode — a count repeats on any runner); the times are reported, never
//!   gated;
//! * the budget-raced algorithm portfolio (`portfolio` section, new in
//!   schema 8): blocking ‰ of the default `PortfolioMapper` next to its
//!   best standalone member on every registered catalog, with the
//!   **portfolio-beats-members gate** (per-admission: every arrival the
//!   portfolio blocks is replayed through all members on the identical
//!   platform state and must be unmappable by each — asserted zero
//!   recoverable blocks per catalog) and the racing-determinism gate
//!   (the fixed-seed mixed-catalog report byte-identical at 1 vs 4
//!   racing workers, asserted);
//! * worker-pool **scaling** (`scaling` section): events/second of one
//!   fixed experiment spec run through `rtsm_exp` at 1, 2, and 4 workers.
//!   The sealed reports are asserted byte-identical across worker counts;
//!   the >1-worker speedup is gated only when the machine actually has
//!   ≥ 2 hardware threads (recorded as `speedup_gated`), so the smoke
//!   cannot fail on a single-core runner where no speedup is possible.
//!
//! ```text
//! bench_map [--out PATH] [--iters N] [--sim-arrivals N] [--seed N]
//! ```
//!
//! Everything except wall-clock numbers is deterministic per seed; the run
//! re-checks the paper reproduction (cost 7, 4 buffers) and fixed-seed
//! report determinism, and **fails** (exit ≠ 0) if either breaks — these
//! are the CI sanity gates. Wall-clock figures are reported but never
//! gated — with one deliberate exception: the probe-overhead bound
//! compares two interleaved measurements of the *same* workload taken in
//! the same window, so runner speed cancels out and only a real
//! instrumentation regression can trip it.

use rtsm_app::hiperlan2::{hiperlan2_receiver, Hiperlan2Mode};
use rtsm_baselines::PortfolioMapper;
use rtsm_bench::alloc_track::PeakAlloc;
use rtsm_core::{
    spec_fingerprint, AdmissionPolicy, MapperConfig, MappingAlgorithm, ReconfigurationObjective,
    ReconfigurationPolicy, RuntimeManager, SpatialMapper, TemplatedMapper,
};
use rtsm_exp::{run_experiment, write_atomic, ExperimentSpec, PolicySpec, SpecTemplate};
use rtsm_obs::{self as obs, Counter, NoopProbe, Span, SpanLatencyProbe};
use rtsm_platform::paper::paper_platform;
use rtsm_platform::TileKind;
use rtsm_sim::{run_sim, Catalog, SimConfig};
use rtsm_workloads::{
    defrag_heavy, defrag_light, defrag_platform, mesh_platform, synthetic_app, GraphShape,
    SyntheticConfig,
};
use serde::Serialize;
use std::hint::black_box;
use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;

#[global_allocator]
static ALLOC: PeakAlloc = PeakAlloc::new();

/// Median map latency on the paper case, measured before this PR's
/// allocation-free hot path landed (commit `c9eb51b`, same harness and
/// container class, trace capture always on — the only mode that existed).
/// Kept in the report so every run shows the trajectory explicitly.
const PRE_PR_BASELINE_MEDIAN_NS: u64 = 9_308_103;

#[derive(Serialize)]
struct PaperCase {
    iterations: u64,
    capture_on_median_ns: u64,
    capture_off_median_ns: u64,
    /// `baseline_median_ns / capture_off_median_ns`, in percent (250 = 2.5×).
    speedup_vs_baseline_pct: u64,
    peak_alloc_capture_on_bytes: u64,
    peak_alloc_capture_off_bytes: u64,
}

#[derive(Serialize)]
struct Baseline {
    commit: String,
    map_paper_median_ns: u64,
    note: String,
}

#[derive(Serialize)]
struct ChainPoint {
    n_processes: u64,
    median_ns: u64,
}

#[derive(Serialize)]
struct SimPoint {
    algorithm: String,
    arrivals: u64,
    admitted: u64,
    events_processed: u64,
    wall_ms: u64,
    events_per_sec: u64,
    mean_map_us: u64,
}

/// The fill → churn → admit experiment: how many admissions that plain
/// admission loses to fragmentation does reconfiguration recover, and at
/// what latency.
#[derive(Serialize)]
struct FragmentedAdmission {
    rounds: u64,
    /// Heavy admissions recovered per round by plain admission (always 0:
    /// the scenario is constructed so plain admission is blocked).
    plain_recovered: u64,
    /// Heavy admissions recovered by `start_with_reconfiguration`.
    reconfig_recovered: u64,
    /// `reconfig_recovered / rounds`, in percent.
    recovered_admission_rate_pct: u64,
    /// Migrations committed over all recovered admissions.
    migrations_committed: u64,
    /// Median wall latency of one recovering `start_with_reconfiguration`
    /// call (release + map + re-map + commit, all transactional), in ns.
    remap_median_ns: u64,
}

/// One point of the energy-aware reconfiguration Pareto front: a (policy,
/// λ) configuration simulated on the defrag workload. Deterministic per
/// seed — the λ-sweep table in the README is generated from these.
#[derive(Serialize)]
struct ParetoPoint {
    policy: String,
    lambda_permille: u64,
    blocking_permille: u64,
    admissions_recovered: u64,
    migrations_committed: u64,
    migration_energy_pj: u64,
    plans_refused: u64,
    mode_switches_survived: u64,
}

/// The fault-injection chaos run (new in schema 6): a seeded tile/link
/// failure process on the mixed catalog, recovered through
/// `RuntimeManager::evacuate`. Virtual-time counters are deterministic
/// per seed; the evacuation latency percentiles (from a
/// `SpanLatencyProbe` on `Span::Evacuate`) are wall-clock and reported
/// but never gated.
#[derive(Serialize)]
struct Resilience {
    arrivals: u64,
    mttf: u64,
    mttr: u64,
    failures_injected: u64,
    repairs: u64,
    apps_evacuated: u64,
    apps_evicted: u64,
    processes_moved: u64,
    evacuation_energy_pj: u64,
    mean_recovery_ticks: u64,
    degraded_blocking_permille: u64,
    healthy_blocking_permille: u64,
    /// Evacuations timed by the probe (= failures that had any victims
    /// or none — one span per `evacuate` call).
    evacuate_calls: u64,
    evacuate_p50_ns: u64,
    evacuate_p99_ns: u64,
    evacuate_max_ns: u64,
}

/// Latency distribution of one admission path in the template split,
/// in ns (log2-bucket percentile resolution).
#[derive(Serialize)]
struct PathLatency {
    count: u64,
    p50_ns: u64,
    p90_ns: u64,
    p99_ns: u64,
    max_ns: u64,
}

/// What one catalog spec's template key costs: the median `spec_fingerprint`
/// call, next to the sizes a walk over the spec would have scaled with.
#[derive(Serialize)]
struct KeyLatency {
    spec: String,
    processes: u64,
    implementations: u64,
    channels: u64,
    key_ns: u64,
}

/// The template-library admission benchmark (new in schema 7): the
/// microsecond hit path (`Span::TemplateMatch` over pure-hit admissions
/// of the paper case) against the full-heuristic miss path (`Span::Map`
/// on the same case, interleaved in the same window — so the asserted
/// `hit p50 < miss p50` gate is runner-independent), plus the mixed-
/// catalog steady-state simulation with templates on vs off. The hit
/// rate is a virtual-time counter and therefore gated; the 100 µs hit
/// p50 target is wall-clock and reported but never gated.
#[derive(Serialize)]
struct Templates {
    iterations: u64,
    hit: PathLatency,
    miss: PathLatency,
    /// The issue's hit-path latency target (100 µs), informational.
    hit_p50_target_ns: u64,
    hit_p50_within_target: bool,
    /// The lookup key, per catalog spec (HIPERLAN/2 modes, then the mixed
    /// catalog). Every arrival pays it, hit or miss, so it is gated below
    /// the hit path's p50.
    key_ns: Vec<KeyLatency>,
    /// Mixed-catalog steady-state run, templates on vs off.
    sim_arrivals: u64,
    hit_permille: u64,
    shapes_cached: u64,
    events_per_sec_templates_on: u64,
    events_per_sec_templates_off: u64,
    mean_map_us_templates_on: u64,
    mean_map_us_templates_off: u64,
}

/// One refused arrival of the `rejections` section: `spec` arriving while
/// another application holds the ledger.
#[derive(Serialize)]
struct Rejection {
    spec: String,
    /// Refinement attempts behind the refused `map`, and how many of them
    /// were step-1 dead ends (all of them: the arrival is blocked by
    /// capacity, not by routing or its period).
    attempts: u64,
    step1_dead_ends: u64,
    /// Shapes the library holds for the spec, and how many of them the
    /// failed lookup passed over for want of compute slots.
    shapes_cached: u64,
    shapes_skipped: u64,
    /// Median time of one refused `map` and of the failed lookup in front
    /// of it (batch means), and the allocator calls of each.
    refused_map_ns: u64,
    failed_lookup_ns: u64,
    refused_map_allocs: u64,
    failed_lookup_allocs: u64,
}

/// The price of "no" (additive in schema 8): every mixed-catalog spec
/// refused on the 4×4 mesh with one application running.
#[derive(Serialize)]
struct Rejections {
    platform: String,
    running: String,
    iterations: u64,
    points: Vec<Rejection>,
}

/// One catalog spec of the `step4` section, mapped alone on its platform.
#[derive(Serialize)]
struct Step4Point {
    catalog: String,
    spec: String,
    /// Actors of the composed Figure-3 graph (A/D, Sink, implementations,
    /// one per router crossed).
    csdf_actors: u64,
    /// Median time (batch means) of the mapping's signature, of the warm
    /// verdict it keys — and the allocator calls of one — and of composing
    /// the graph.
    signature_ns: u64,
    warm_verdict_ns: u64,
    warm_verdict_allocs: u64,
    compose_ns: u64,
    /// Median time of the whole verdict on a fresh thread, whose memo is
    /// empty: signature, composition, buffer-sizing search.
    cold_verdict_ns: u64,
    /// Self-timed CSDF simulations (`Counter::CsdfRun`) of one such cold
    /// verdict — a count, which repeats exactly where the time does not.
    /// Gated: 1 on the mixed catalog, at most 4 on the paper platform.
    cold_csdf_runs: u64,
}

/// The price of "yes" in step 4 (additive in schema 8).
#[derive(Serialize)]
struct Step4 {
    iterations: u64,
    cold_samples: u64,
    points: Vec<Step4Point>,
}

/// One catalog of the portfolio-vs-members comparison: the budget-raced
/// `PortfolioMapper` against its best standalone member at the same
/// modeled per-admission latency budget.
#[derive(Serialize)]
struct PortfolioPoint {
    catalog: String,
    portfolio_blocking_permille: u64,
    best_member: String,
    best_member_blocking_permille: u64,
    /// Arrivals the portfolio blocked that some standalone member could
    /// have mapped on the identical platform state. Asserted zero — this
    /// is the per-admission "portfolio blocks no more than its best
    /// member" gate, checked where the comparison is actually like for
    /// like.
    recoverable_blocks: u64,
    portfolio_mean_map_us: u64,
    best_member_mean_map_us: u64,
}

/// The algorithm-portfolio benchmark (new in schema 8). Two hard gates:
/// per-admission, the portfolio never blocks an arrival any single
/// member could have mapped on the same platform state
/// (`recoverable_blocks == 0` per catalog — the ROADMAP acceptance
/// bar), and fixed-seed portfolio reports must be byte-identical at
/// 1 vs 4 racing workers.
#[derive(Serialize)]
struct Portfolio {
    arrivals: u64,
    budget_us: u64,
    members: Vec<String>,
    /// Fixed-seed mixed-catalog reports byte-identical at 1 vs 4 workers.
    reports_identical_across_workers: bool,
    points: Vec<PortfolioPoint>,
}

/// Replays every portfolio member on each admission the portfolio
/// blocks, counting the blocks a standalone member could have recovered
/// on the identical platform state. Delegates mapping to the wrapped
/// portfolio, so the simulated trajectory is exactly the portfolio's.
struct MemberCoverage<'a> {
    portfolio: PortfolioMapper,
    members: &'a [rtsm_baselines::PortfolioMember],
    recoverable_blocks: std::cell::Cell<u64>,
}

impl MappingAlgorithm for MemberCoverage<'_> {
    fn name(&self) -> &str {
        self.portfolio.name()
    }

    fn map_constrained(
        &self,
        spec: &rtsm_app::ApplicationSpec,
        platform: &rtsm_platform::Platform,
        base: &rtsm_platform::PlatformState,
        constraints: &rtsm_core::MappingConstraints,
    ) -> Result<rtsm_core::MappingOutcome, rtsm_core::MapError> {
        let result = self
            .portfolio
            .map_constrained(spec, platform, base, constraints);
        if result.is_err() {
            let recovered = self.members.iter().any(|member| {
                (member.build)()
                    .map_constrained(spec, platform, base, constraints)
                    .is_ok()
            });
            if recovered {
                self.recoverable_blocks
                    .set(self.recoverable_blocks.get() + 1);
            }
        }
        result
    }
}

/// Throughput of the sharded experiment harness at one worker count.
#[derive(Serialize)]
struct ScalingPoint {
    workers: u64,
    events_processed: u64,
    wall_ms: u64,
    events_per_sec: u64,
}

/// The worker-pool scaling sweep: one fixed spec run at 1→N workers.
/// Wall-clock only — the sealed experiment reports themselves are
/// byte-identical across worker counts (asserted every run).
#[derive(Serialize)]
struct Scaling {
    /// Hardware threads the machine reports; on 1 no speedup is
    /// physically possible and the speedup gate is skipped.
    available_parallelism: u64,
    spec_trials: u64,
    spec_total_arrivals: u64,
    /// Sealed reports byte-identical across all swept worker counts.
    reports_identical: bool,
    /// Whether the >1-worker-beats-1-worker assertion was enforced.
    speedup_gated: bool,
    points: Vec<ScalingPoint>,
}

/// Latency distribution of one instrumented span across the breakdown
/// iterations, in ns (log2-bucket percentile resolution).
#[derive(Serialize)]
struct StepLatency {
    span: String,
    count: u64,
    p50_ns: u64,
    p90_ns: u64,
    p99_ns: u64,
    max_ns: u64,
}

/// Total of one probe counter across the breakdown iterations.
#[derive(Serialize)]
struct CounterTotal {
    counter: String,
    total: u64,
}

/// The probe-overhead gate: bare `map()` vs `map()` with a no-op probe
/// installed, interleaved in the same measurement window.
#[derive(Serialize)]
struct ProbeOverhead {
    iterations: u64,
    bare_median_ns: u64,
    noop_probe_median_ns: u64,
    /// `(probed − bare) · 1000 / bare`; negative when probed ran faster.
    overhead_permille: i64,
    /// The asserted bound (30‰ = 3%).
    max_allowed_permille: u64,
}

/// Per-step latency breakdown and instrumentation cost — the baseline the
/// template-library work will be judged against.
#[derive(Serialize)]
struct Observability {
    breakdown_iterations: u64,
    step_latency: Vec<StepLatency>,
    counters: Vec<CounterTotal>,
    probe_overhead: ProbeOverhead,
}

#[derive(Serialize)]
struct BenchReport {
    schema: String,
    seed: u64,
    baseline: Baseline,
    map_paper: PaperCase,
    observability: Observability,
    synthetic_chain: Vec<ChainPoint>,
    sim: Vec<SimPoint>,
    fragmented_admission: FragmentedAdmission,
    pareto: Vec<ParetoPoint>,
    resilience: Resilience,
    templates: Templates,
    rejections: Rejections,
    step4: Step4,
    portfolio: Portfolio,
    scaling: Scaling,
    sanity_checks_passed: bool,
}

fn parse_flag(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1).cloned())
}

fn parse_u64(args: &[String], flag: &str, default: u64) -> u64 {
    parse_flag(args, flag).map_or(default, |v| {
        v.parse().unwrap_or_else(|_| {
            eprintln!("error: {flag} expects an integer, got `{v}`");
            std::process::exit(2);
        })
    })
}

fn median(samples: &mut [u64]) -> u64 {
    samples.sort_unstable();
    samples[samples.len() / 2]
}

/// Times `iters` runs of `f` and returns the median latency in ns.
fn measure(iters: u64, mut f: impl FnMut()) -> u64 {
    let mut samples = Vec::with_capacity(iters as usize);
    for _ in 0..iters {
        let t = Instant::now();
        f();
        samples.push(t.elapsed().as_nanos() as u64);
    }
    median(&mut samples)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let out = parse_flag(&args, "--out").unwrap_or_else(|| "BENCH_map.json".into());
    let iters = parse_u64(&args, "--iters", 200);
    let sim_arrivals = parse_u64(&args, "--sim-arrivals", 2000);
    let seed = parse_u64(&args, "--seed", 2008);

    // --- Paper case: median map latency, capture on vs off ----------------
    let spec = hiperlan2_receiver(Hiperlan2Mode::Qpsk34);
    let platform = paper_platform();
    let state = platform.initial_state();
    let mapper_on = SpatialMapper::new(MapperConfig::default());
    let mapper_off = SpatialMapper::new(MapperConfig::default().without_capture());

    // Sanity gates (deterministic; these FAIL the smoke when broken).
    let outcome = mapper_off.map(&spec, &platform, &state).expect("feasible");
    assert_eq!(outcome.communication_hops, 7, "paper cost regression");
    assert_eq!(outcome.buffers.len(), 4, "paper buffer-count regression");
    assert!(outcome.trace.is_none(), "capture off must not build traces");
    let on_outcome = mapper_on.map(&spec, &platform, &state).expect("feasible");
    assert_eq!(
        on_outcome.evaluated, outcome.evaluated,
        "capture knob changed search-effort counters"
    );

    for _ in 0..iters.min(50) {
        black_box(mapper_off.map(&spec, &platform, &state).ok()); // warm-up
    }
    // Interleave the two configurations so thermal/frequency drift over the
    // measurement window biases neither.
    let mut off_samples = Vec::with_capacity(iters as usize);
    let mut on_samples = Vec::with_capacity(iters as usize);
    for _ in 0..iters {
        let t = Instant::now();
        black_box(mapper_off.map(&spec, &platform, &state).ok());
        off_samples.push(t.elapsed().as_nanos() as u64);
        let t = Instant::now();
        black_box(mapper_on.map(&spec, &platform, &state).ok());
        on_samples.push(t.elapsed().as_nanos() as u64);
    }
    let capture_off_median_ns = median(&mut off_samples);
    let capture_on_median_ns = median(&mut on_samples);

    let (peak, _) = ALLOC.peak_during(|| black_box(mapper_off.map(&spec, &platform, &state).ok()));
    let peak_alloc_capture_off_bytes = peak as u64;
    let (peak, _) = ALLOC.peak_during(|| black_box(mapper_on.map(&spec, &platform, &state).ok()));
    let peak_alloc_capture_on_bytes = peak as u64;

    println!(
        "map/hiperlan2_paper_platform: median {:.3} ms (capture off {:.3} ms); \
         pre-PR baseline {:.3} ms → {:.2}x",
        capture_on_median_ns as f64 / 1e6,
        capture_off_median_ns as f64 / 1e6,
        PRE_PR_BASELINE_MEDIAN_NS as f64 / 1e6,
        PRE_PR_BASELINE_MEDIAN_NS as f64 / capture_off_median_ns as f64,
    );

    // --- Observability: per-step breakdown + probe-overhead gate ----------
    // Per-step latency: a SpanLatencyProbe times every instrumented span
    // of the capture-off mapper over the paper case.
    let breakdown_iterations = iters.clamp(1, 100);
    let span_probe = Rc::new(SpanLatencyProbe::new());
    {
        let _guard = obs::install(span_probe.clone());
        for _ in 0..breakdown_iterations {
            black_box(mapper_off.map(&spec, &platform, &state).ok());
        }
    }
    let step_spans = [
        Span::Map,
        Span::Step1,
        Span::Step2,
        Span::Step3,
        Span::Step4,
        Span::BufferSizing,
    ];
    let mut step_latency = Vec::with_capacity(step_spans.len());
    for span in step_spans {
        let h = span_probe.histogram(span);
        println!(
            "map/steps/{}: {} samples, p50 {:.1} µs, p99 {:.1} µs, max {:.1} µs",
            span.name(),
            h.count(),
            h.p50_ns() as f64 / 1e3,
            h.p99_ns() as f64 / 1e3,
            h.max_ns() as f64 / 1e3,
        );
        step_latency.push(StepLatency {
            span: span.name().to_string(),
            count: h.count(),
            p50_ns: h.p50_ns(),
            p90_ns: h.p90_ns(),
            p99_ns: h.p99_ns(),
            max_ns: h.max_ns(),
        });
    }
    let counters = Counter::ALL
        .iter()
        .map(|&c| CounterTotal {
            counter: c.name().to_string(),
            total: span_probe.counter_total(c),
        })
        .collect();

    // Probe overhead: the same map() workload bare vs with a no-op probe
    // installed, interleaved so drift biases neither. This is the one
    // wall-clock gate: both sides run in the same window on the same
    // work, so only real instrumentation cost can separate them.
    let mut bare_samples = Vec::with_capacity(iters as usize);
    let mut probed_samples = Vec::with_capacity(iters as usize);
    for _ in 0..iters {
        let t = Instant::now();
        black_box(mapper_off.map(&spec, &platform, &state).ok());
        bare_samples.push(t.elapsed().as_nanos() as u64);
        let _guard = obs::install(Rc::new(NoopProbe));
        let t = Instant::now();
        black_box(mapper_off.map(&spec, &platform, &state).ok());
        probed_samples.push(t.elapsed().as_nanos() as u64);
    }
    let bare_median_ns = median(&mut bare_samples);
    let noop_probe_median_ns = median(&mut probed_samples);
    let overhead_permille =
        (noop_probe_median_ns as i64 - bare_median_ns as i64) * 1000 / bare_median_ns.max(1) as i64;
    const MAX_PROBE_OVERHEAD_PERMILLE: i64 = 30;
    println!(
        "probe overhead: bare {:.3} ms, no-op probe {:.3} ms → {overhead_permille}‰ \
         (bound {MAX_PROBE_OVERHEAD_PERMILLE}‰)",
        bare_median_ns as f64 / 1e6,
        noop_probe_median_ns as f64 / 1e6,
    );
    assert!(
        overhead_permille <= MAX_PROBE_OVERHEAD_PERMILLE,
        "no-op probe overhead {overhead_permille}‰ exceeds the \
         {MAX_PROBE_OVERHEAD_PERMILLE}‰ (3%) bound \
         ({noop_probe_median_ns} vs {bare_median_ns} ns)"
    );
    let observability = Observability {
        breakdown_iterations,
        step_latency,
        counters,
        probe_overhead: ProbeOverhead {
            iterations: iters,
            bare_median_ns,
            noop_probe_median_ns,
            overhead_permille,
            max_allowed_permille: MAX_PROBE_OVERHEAD_PERMILLE as u64,
        },
    };

    // --- Synthetic-chain scaling ------------------------------------------
    let mut synthetic_chain = Vec::new();
    for n in [4u64, 6, 8, 10] {
        let chain_spec = synthetic_app(&SyntheticConfig {
            seed: 42,
            n_processes: n as usize,
            shape: GraphShape::Chain,
            ..SyntheticConfig::default()
        });
        let mesh = mesh_platform(7, 5, 5, &[(TileKind::Montium, 8), (TileKind::Arm, 8)]);
        let mesh_state = mesh.initial_state();
        if mapper_off.map(&chain_spec, &mesh, &mesh_state).is_err() {
            continue;
        }
        let median_ns = measure(iters.clamp(1, 50), || {
            black_box(mapper_off.map(&chain_spec, &mesh, &mesh_state).ok());
        });
        println!(
            "map/synthetic_chain/{n}: median {:.3} ms",
            median_ns as f64 / 1e6
        );
        synthetic_chain.push(ChainPoint {
            n_processes: n,
            median_ns,
        });
    }

    // --- Fragmented admission: fill, churn, admit -------------------------
    // Two lights share each ARM of the strip; stopping one per tile after a
    // full fill strands ~40 KiB on every tile, so a 48 KiB heavy app is
    // blocked although the platform holds plenty of free memory in total.
    // Reconfiguration migrates one light and recovers the admission —
    // every round, deterministically; only the latency is wall-clock.
    let frag_rounds = iters.clamp(1, 50);
    let frag_platform = defrag_platform(4);
    let light: Arc<_> = Arc::new(defrag_light());
    let heavy: Arc<_> = Arc::new(defrag_heavy());
    let policy = ReconfigurationPolicy::default();
    let mut manager = RuntimeManager::new(frag_platform, mapper_off.clone());
    let mut reconfig_recovered = 0u64;
    let mut migrations_committed = 0u64;
    let mut remap_samples = Vec::with_capacity(frag_rounds as usize);
    for _ in 0..frag_rounds {
        // Fill: lights pack two per ARM until the strip is full.
        let mut lights = Vec::new();
        while let Ok(handle) = manager.start(light.clone()) {
            lights.push(handle);
        }
        assert_eq!(lights.len(), 8, "four 2-slot ARMs hold eight lights");
        // Churn: stop one co-tenant per tile (fill order packs pairs).
        for pair in lights.chunks(2) {
            manager.stop(pair[0]).expect("live handle stops");
        }
        // Plain admission is lost to fragmentation…
        assert!(
            manager.start(heavy.clone()).is_err(),
            "plain admission must be blocked by the engineered fragmentation"
        );
        // …and recovered by one transactional migration plan.
        let t = Instant::now();
        let reconfiguration = manager
            .start_with_reconfiguration(heavy.clone(), &policy)
            .expect("migration recovers the engineered scenario");
        remap_samples.push(t.elapsed().as_nanos() as u64);
        reconfig_recovered += 1;
        migrations_committed += reconfiguration.migrations.len() as u64;
        manager.stop_all().expect("teardown");
        assert!(manager.utilization().is_idle(), "no claims leak per round");
    }
    let fragmented_admission = FragmentedAdmission {
        rounds: frag_rounds,
        plain_recovered: 0,
        reconfig_recovered,
        recovered_admission_rate_pct: reconfig_recovered * 100 / frag_rounds,
        migrations_committed,
        remap_median_ns: median(&mut remap_samples),
    };
    println!(
        "fragmented_admission: {}/{} recovered ({} migrations), remap median {:.3} ms",
        fragmented_admission.reconfig_recovered,
        fragmented_admission.rounds,
        fragmented_admission.migrations_committed,
        fragmented_admission.remap_median_ns as f64 / 1e6
    );
    assert_eq!(
        fragmented_admission.recovered_admission_rate_pct, 100,
        "reconfiguration must recover every engineered fragmented admission"
    );

    // --- Energy-aware reconfiguration Pareto front ------------------------
    // Sweep the migration-energy weight λ and the admission-policy set on
    // the defrag workload: blocking ‰ against total migration energy. The
    // sweep is fully deterministic per seed (only virtual-time counters are
    // recorded), so the emitted front is CI-comparable run to run.
    let pareto_catalog = Catalog::defrag();
    let pareto_platform = defrag_platform(4);
    let pareto_config = SimConfig {
        seed,
        arrivals: sim_arrivals.clamp(200, 1000),
        ..SimConfig::default()
    };
    let policies = [
        AdmissionPolicy::AlwaysAdmit,
        AdmissionPolicy::EnergyBudget {
            max_transfer_pj: 500_000,
        },
        AdmissionPolicy::AmortizedPayback {
            horizon_periods: 64,
        },
    ];
    let mut pareto = Vec::new();
    println!(
        "{:<26} {:>8} {:>9} {:>10} {:>10} {:>12} {:>8} {:>9}",
        "pareto/policy",
        "λ‰",
        "block ‰",
        "recovered",
        "migrations",
        "migr. pJ",
        "refused",
        "survived"
    );
    for admission in policies {
        for lambda_permille in [0u64, 1000, 4000] {
            let config = SimConfig {
                reconfiguration: Some(ReconfigurationPolicy {
                    objective: ReconfigurationObjective { lambda_permille },
                    admission,
                    ..ReconfigurationPolicy::default()
                }),
                track_fragmentation: true,
                ..pareto_config.clone()
            };
            let run = run_sim(
                &pareto_platform,
                SpatialMapper::new(MapperConfig::default().without_capture()),
                &pareto_catalog,
                &config,
            )
            .expect("the simulation never breaks its own ledger");
            let r = run
                .report
                .reconfiguration
                .clone()
                .expect("reconfiguration counters present");
            println!(
                "{:<26} {:>8} {:>9} {:>10} {:>10} {:>12} {:>8} {:>9}",
                r.policy,
                lambda_permille,
                run.report.blocking_permille,
                r.admissions_recovered,
                r.migrations_committed,
                r.migration_energy_pj,
                r.plans_refused,
                r.mode_switches_survived,
            );
            pareto.push(ParetoPoint {
                policy: r.policy,
                lambda_permille,
                blocking_permille: run.report.blocking_permille,
                admissions_recovered: r.admissions_recovered,
                migrations_committed: r.migrations_committed,
                migration_energy_pj: r.migration_energy_pj,
                plans_refused: r.plans_refused,
                mode_switches_survived: r.mode_switches_survived,
            });
        }
    }
    // Sanity gates on the front itself: always-admit recovers the most,
    // and every bounded policy spends strictly less migration energy than
    // always-admit at the same λ.
    for lambda in [0u64, 1000, 4000] {
        let energy_of = |policy_prefix: &str| {
            pareto
                .iter()
                .find(|p| p.lambda_permille == lambda && p.policy.starts_with(policy_prefix))
                .map(|p| (p.admissions_recovered, p.migration_energy_pj))
                .expect("sweep covers this point")
        };
        let (always_recovered, always_energy) = energy_of("always-admit");
        assert!(always_recovered > 0, "always-admit must recover admissions");
        for bounded in ["energy-budget", "amortized-payback"] {
            let (recovered, energy) = energy_of(bounded);
            assert!(
                recovered > 0,
                "{bounded} must still recover some admissions at λ={lambda}"
            );
            assert!(
                energy < always_energy,
                "{bounded} must spend strictly less migration energy than always-admit \
                 at λ={lambda} ({energy} vs {always_energy})"
            );
        }
    }

    // --- Simulated events/second, every registered algorithm --------------
    let algorithms: Vec<(&str, Box<dyn MappingAlgorithm>)> = rtsm_exp::ALGORITHMS
        .iter()
        .map(|entry| (entry.name, (entry.build)()))
        .collect();
    let catalog = Catalog::hiperlan2();
    let sim_config = SimConfig {
        seed,
        arrivals: sim_arrivals,
        ..SimConfig::default()
    };
    let mut sim = Vec::new();
    let mut deterministic = true;
    for (name, algorithm) in algorithms {
        let t = Instant::now();
        let run = run_sim(&platform, &algorithm, &catalog, &sim_config)
            .expect("the simulation never breaks its own ledger");
        let wall = t.elapsed();
        // Determinism gate: a second run must serialize byte-identically.
        let rerun = run_sim(&platform, &algorithm, &catalog, &sim_config)
            .expect("the simulation never breaks its own ledger");
        let a = serde_json::to_string(&run.report).expect("reports serialize");
        let b = serde_json::to_string(&rerun.report).expect("reports serialize");
        if a != b {
            eprintln!("DETERMINISM BROKEN for `{name}`");
            deterministic = false;
        }
        let report = &run.report;
        let events_processed = report.arrivals + report.departures + report.mode_switch_attempts;
        let wall_s = wall.as_secs_f64().max(1e-9);
        let point = SimPoint {
            algorithm: name.to_string(),
            arrivals: report.arrivals,
            admitted: report.admitted,
            events_processed,
            wall_ms: wall.as_millis() as u64,
            events_per_sec: (events_processed as f64 / wall_s) as u64,
            mean_map_us: run.wall.mean_ns() / 1000,
        };
        println!(
            "sim/{name}: {} events in {} ms → {} events/s (mean map {} µs)",
            point.events_processed, point.wall_ms, point.events_per_sec, point.mean_map_us
        );
        sim.push(point);
    }
    assert!(deterministic, "fixed-seed reports must be byte-identical");

    // --- Resilience: fault-injected chaos run on the mixed catalog --------
    // A seeded failure process (exponential inter-failure, fixed repair)
    // drives the evacuation path; Span::Evacuate latency comes from a
    // SpanLatencyProbe installed for the primary run only. The bare rerun
    // doubles as the observer-effect + determinism gate.
    let chaos_platform = mesh_platform(
        42,
        4,
        4,
        &[
            (TileKind::Montium, 4),
            (TileKind::Arm, 4),
            (TileKind::Dsp, 2),
        ],
    );
    let chaos_catalog = Catalog::mixed_dsp();
    let chaos_config = SimConfig {
        seed,
        arrivals: sim_arrivals.clamp(300, 2000),
        faults: Some(rtsm_sim::FaultConfig {
            mttf: 10_000,
            mttr: 3_000,
            ..rtsm_sim::FaultConfig::default()
        }),
        ..SimConfig::default()
    };
    let chaos_algorithm = SpatialMapper::new(MapperConfig::default().without_capture());
    let evac_probe = Rc::new(SpanLatencyProbe::new());
    let chaos_run = {
        let _guard = obs::install(evac_probe.clone());
        run_sim(
            &chaos_platform,
            &chaos_algorithm,
            &chaos_catalog,
            &chaos_config,
        )
        .expect("fault recovery never breaks the ledger")
    };
    let chaos_rerun = run_sim(
        &chaos_platform,
        &chaos_algorithm,
        &chaos_catalog,
        &chaos_config,
    )
    .expect("fault recovery never breaks the ledger");
    assert_eq!(
        serde_json::to_string(&chaos_run.report).expect("reports serialize"),
        serde_json::to_string(&chaos_rerun.report).expect("reports serialize"),
        "fault-injected reports must be byte-identical (and probe-independent)"
    );
    assert!(
        chaos_run.report.ledger_idle_at_end,
        "failure/repair cycles must leak no slots or bandwidth"
    );
    let surv = chaos_run
        .report
        .survivability
        .clone()
        .expect("faults were enabled");
    assert!(
        surv.apps_evacuated > 0,
        "the chaos run must recover at least one app by evacuation"
    );
    assert_eq!(
        surv.repairs,
        surv.tile_failures + surv.link_failures,
        "every injected failure must be repaired before the queue drains"
    );
    let evac_hist = evac_probe.histogram(Span::Evacuate);
    let blocking =
        |arrivals: u64, blocked: u64| (blocked * 1000).checked_div(arrivals).unwrap_or(0);
    let resilience = Resilience {
        arrivals: chaos_config.arrivals,
        mttf: surv.mttf,
        mttr: surv.mttr,
        failures_injected: surv.tile_failures + surv.link_failures,
        repairs: surv.repairs,
        apps_evacuated: surv.apps_evacuated,
        apps_evicted: surv.apps_evicted,
        processes_moved: surv.processes_moved,
        evacuation_energy_pj: surv.evacuation_energy_pj,
        mean_recovery_ticks: surv.mean_recovery_ticks,
        degraded_blocking_permille: blocking(surv.degraded_arrivals, surv.degraded_blocked),
        healthy_blocking_permille: blocking(surv.healthy_arrivals, surv.healthy_blocked),
        evacuate_calls: evac_hist.count(),
        evacuate_p50_ns: evac_hist.p50_ns(),
        evacuate_p99_ns: evac_hist.p99_ns(),
        evacuate_max_ns: evac_hist.max_ns(),
    };
    println!(
        "resilience: {} failures, {} evacuated, {} evicted; evacuate p50 {:.1} µs, \
         blocking {}‰ degraded vs {}‰ healthy",
        resilience.failures_injected,
        resilience.apps_evacuated,
        resilience.apps_evicted,
        resilience.evacuate_p50_ns as f64 / 1e3,
        resilience.degraded_blocking_permille,
        resilience.healthy_blocking_permille,
    );

    // --- Templates: microsecond hit path vs full-heuristic miss path ------
    // The paper case is seeded once into a TemplatedMapper; every later
    // admission of the same spec on a free platform is a pure hit, so
    // Span::TemplateMatch times exactly the hit path. The full heuristic
    // (Span::Map) runs interleaved in the same window — the hit-beats-miss
    // gate compares two measurements of the same machine moment, so only a
    // real hit-path regression can trip it.
    let templated_paper = TemplatedMapper::new(SpatialMapper::new(
        MapperConfig::default().without_capture(),
    ));
    let seeded = templated_paper
        .map(&spec, &platform, &state)
        .expect("the paper case is mappable");
    assert!(seeded.feasible, "the seeded admission must be feasible");
    assert_eq!(
        templated_paper.stats().hits,
        1,
        "the first arrival must seed the library and then hit"
    );
    let tpl_probe = Rc::new(SpanLatencyProbe::new());
    {
        let _guard = obs::install(tpl_probe.clone());
        for _ in 0..iters {
            black_box(templated_paper.map(&spec, &platform, &state).ok());
            black_box(mapper_off.map(&spec, &platform, &state).ok());
        }
    }
    assert_eq!(
        templated_paper.stats().misses,
        0,
        "repeated paper-case admissions on a free platform must all hit"
    );
    let hit_hist = tpl_probe.histogram(Span::TemplateMatch);
    let miss_hist = tpl_probe.histogram(Span::Map);
    const HIT_P50_TARGET_NS: u64 = 100_000;
    println!(
        "templates/paper: hit p50 {:.1} µs p99 {:.1} µs vs miss p50 {:.1} µs p99 {:.1} µs \
         (target hit p50 ≤ {:.0} µs: {})",
        hit_hist.p50_ns() as f64 / 1e3,
        hit_hist.p99_ns() as f64 / 1e3,
        miss_hist.p50_ns() as f64 / 1e3,
        miss_hist.p99_ns() as f64 / 1e3,
        HIT_P50_TARGET_NS as f64 / 1e3,
        if hit_hist.p50_ns() <= HIT_P50_TARGET_NS {
            "met"
        } else {
            "MISSED"
        },
    );
    assert!(
        hit_hist.p50_ns() < miss_hist.p50_ns(),
        "the template hit path must beat the full heuristic at the median \
         ({} vs {} ns)",
        hit_hist.p50_ns(),
        miss_hist.p50_ns()
    );

    // The lookup key: read off the digests the spec's containers keep, so
    // its cost must not follow the spec's size. One call is below the
    // clock's resolution; a sample is the mean of a batch.
    const KEY_BATCH: u64 = 1000;
    let key_ns: Vec<KeyLatency> = [Catalog::hiperlan2(), Catalog::mixed_dsp()]
        .iter()
        .flat_map(|catalog| catalog.entries())
        .map(|entry| {
            let spec = &*entry.spec;
            let batch_ns = measure(iters, || {
                for _ in 0..KEY_BATCH {
                    black_box(spec_fingerprint(black_box(spec)));
                }
            });
            KeyLatency {
                spec: entry.name.clone(),
                processes: spec.graph.n_processes() as u64,
                implementations: spec.library.len() as u64,
                channels: spec.graph.n_channels() as u64,
                key_ns: batch_ns / KEY_BATCH,
            }
        })
        .collect();
    let slowest_key = key_ns.iter().map(|k| k.key_ns).max().unwrap_or(0);
    println!(
        "templates/key: spec_fingerprint {}–{} ns over {} catalog specs",
        key_ns.iter().map(|k| k.key_ns).min().unwrap_or(0),
        slowest_key,
        key_ns.len(),
    );
    assert!(
        slowest_key < hit_hist.p50_ns(),
        "the template key must cost less than the hit it keys ({slowest_key} vs {} ns)",
        hit_hist.p50_ns()
    );

    // Steady state on the mixed catalog: templates on vs off at a load
    // the platform can actually carry (heavy overload turns every
    // platform-full rejection into a miss and says nothing about reuse).
    let tpl_platform = mesh_platform(
        42,
        4,
        4,
        &[
            (TileKind::Montium, 4),
            (TileKind::Arm, 4),
            (TileKind::Dsp, 2),
        ],
    );
    let tpl_catalog = Catalog::mixed_dsp();
    let tpl_config = SimConfig {
        seed,
        arrivals: sim_arrivals.clamp(500, 2000),
        arrival_process: rtsm_sim::ArrivalProcess::Poisson { mean_gap: 2000 },
        ..SimConfig::default()
    };
    let tpl_inner = SpatialMapper::new(MapperConfig::default().without_capture());
    let t = Instant::now();
    let off_run = run_sim(&tpl_platform, &tpl_inner, &tpl_catalog, &tpl_config)
        .expect("the simulation never breaks its own ledger");
    let off_wall = t.elapsed();
    let tpl_mapper = TemplatedMapper::new(tpl_inner);
    let t = Instant::now();
    let on_run = run_sim(&tpl_platform, &tpl_mapper, &tpl_catalog, &tpl_config)
        .expect("the simulation never breaks its own ledger");
    let on_wall = t.elapsed();
    assert_eq!(
        (on_run.report.admitted, on_run.report.blocked),
        (off_run.report.admitted, off_run.report.blocked),
        "templates must change admission latency, never admission decisions, \
         on the steady-state workload"
    );
    let tpl_stats = rtsm_sim::TemplateReport::from_stats(
        tpl_mapper.stats(),
        rtsm_core::template::DEFAULT_SHAPE_CAP,
    );
    let events = |r: &rtsm_sim::SimReport| r.arrivals + r.departures + r.mode_switch_attempts;
    let rate = |n: u64, wall: std::time::Duration| (n as f64 / wall.as_secs_f64().max(1e-9)) as u64;
    // The hit rate is a virtual-time counter — deterministic per seed —
    // so unlike the wall-clock figures it is safe to gate.
    assert!(
        tpl_stats.hit_permille >= 500,
        "steady-state mixed-catalog hit rate {}‰ fell below the 500‰ floor",
        tpl_stats.hit_permille
    );
    let templates = Templates {
        iterations: iters,
        hit: PathLatency {
            count: hit_hist.count(),
            p50_ns: hit_hist.p50_ns(),
            p90_ns: hit_hist.p90_ns(),
            p99_ns: hit_hist.p99_ns(),
            max_ns: hit_hist.max_ns(),
        },
        miss: PathLatency {
            count: miss_hist.count(),
            p50_ns: miss_hist.p50_ns(),
            p90_ns: miss_hist.p90_ns(),
            p99_ns: miss_hist.p99_ns(),
            max_ns: miss_hist.max_ns(),
        },
        hit_p50_target_ns: HIT_P50_TARGET_NS,
        hit_p50_within_target: hit_hist.p50_ns() <= HIT_P50_TARGET_NS,
        key_ns,
        sim_arrivals: tpl_config.arrivals,
        hit_permille: tpl_stats.hit_permille,
        shapes_cached: tpl_stats.shapes_cached,
        events_per_sec_templates_on: rate(events(&on_run.report), on_wall),
        events_per_sec_templates_off: rate(events(&off_run.report), off_wall),
        mean_map_us_templates_on: on_run.wall.mean_ns() / 1000,
        mean_map_us_templates_off: off_run.wall.mean_ns() / 1000,
    };
    println!(
        "templates/mixed: {}‰ hit rate, {} shapes; {} events/s on vs {} off \
         (mean map {} µs on vs {} off)",
        templates.hit_permille,
        templates.shapes_cached,
        templates.events_per_sec_templates_on,
        templates.events_per_sec_templates_off,
        templates.mean_map_us_templates_on,
        templates.mean_map_us_templates_off,
    );

    // --- Rejections: what "no" costs ---------------------------------------
    // The mixed mesh with `dvbt-rx` running refuses all five catalog specs,
    // four of them only after the whole refinement budget. The library holds
    // what each spec maps to on the empty mesh and beside every other
    // application, so the failed lookup has real shapes to rule out.
    const REFUSAL_BATCH: u64 = 100;
    let none = rtsm_core::MappingConstraints::none();
    let holder = "dvbt-rx";
    let ledger_with = |running: &rtsm_app::ApplicationSpec| {
        let mut ledger = tpl_platform.initial_state();
        mapper_off
            .map(running, &tpl_platform, &ledger)
            .expect("every catalog spec maps alone")
            .commit(running, &tpl_platform, &mut ledger)
            .expect("it was mapped against this ledger");
        ledger
    };
    let full = tpl_catalog
        .entries()
        .iter()
        .find(|entry| entry.name == holder)
        .map(|entry| ledger_with(&entry.spec))
        .expect("the mixed catalog has a dvbt-rx");
    let mut rejection_points = Vec::new();
    for entry in tpl_catalog.entries() {
        let spec = &*entry.spec;
        let key = spec_fingerprint(spec);
        let mut library = rtsm_core::TemplateLibrary::new(rtsm_core::template::DEFAULT_SHAPE_CAP);
        let ledgers = std::iter::once(tpl_platform.initial_state())
            .chain(tpl_catalog.entries().iter().map(|e| ledger_with(&e.spec)));
        for ledger in ledgers {
            if let Ok(outcome) = mapper_off.map(spec, &tpl_platform, &ledger) {
                let shape = rtsm_core::MappingShape::canonicalise(&outcome, &tpl_platform)
                    .expect("a mapped spec has assignments");
                library.learn(key, shape);
            }
        }
        let mut lookup = || library.instantiate(key, spec, &tpl_platform, &full, &none);
        let refuse = || mapper_off.map(spec, &tpl_platform, &full);
        let probe = Rc::new(SpanLatencyProbe::new());
        {
            let _guard = obs::install(probe.clone());
            assert!(lookup().is_none(), "`{}` must miss", entry.name);
            assert!(refuse().is_err(), "`{}` must be refused", entry.name);
        }
        let failed_lookup_allocs = ALLOC.allocations_during(|| black_box(lookup())).0 as u64;
        let refused_map_allocs = ALLOC.allocations_during(|| black_box(refuse().is_err())).0 as u64;
        let failed_lookup_ns = measure(iters, || {
            for _ in 0..REFUSAL_BATCH {
                black_box(lookup());
            }
        }) / REFUSAL_BATCH;
        let refused_map_ns = measure(iters, || {
            for _ in 0..REFUSAL_BATCH {
                black_box(refuse().is_err());
            }
        }) / REFUSAL_BATCH;
        let point = Rejection {
            spec: entry.name.clone(),
            attempts: probe.histogram(Span::Step1).count(),
            step1_dead_ends: probe.counter_total(Counter::Step1DeadEnd),
            shapes_cached: library.shapes_for(key) as u64,
            shapes_skipped: probe.counter_total(Counter::TemplateShapeSkipped),
            refused_map_ns,
            failed_lookup_ns,
            refused_map_allocs,
            failed_lookup_allocs,
        };
        println!(
            "rejections/{}: {} attempts ({} step-1 dead ends) in {} ns, {} allocator calls; \
             lookup skipped {} of {} shapes in {} ns, {} allocator calls",
            point.spec,
            point.attempts,
            point.step1_dead_ends,
            point.refused_map_ns,
            point.refused_map_allocs,
            point.shapes_skipped,
            point.shapes_cached,
            point.failed_lookup_ns,
            point.failed_lookup_allocs,
        );
        rejection_points.push(point);
    }
    let rejections = Rejections {
        platform: "mixed 4x4 mesh (platform seed 42)".into(),
        running: holder.into(),
        iterations: iters,
        points: rejection_points,
    };

    // --- Step 4: what "yes" costs ------------------------------------------
    // Steps 1–3 on the empty platform, then step 4 taken apart. The warm
    // verdict is what an admission pays; the composition is what it used to
    // pay on top; the cold verdict is what the first arrival of a signature
    // on a thread pays.
    const STEP4_BATCH: u64 = 100;
    let cold_samples = iters.min(9);
    let step4_config = rtsm_core::step4::Step4Config::default();
    let mut step4_points = Vec::new();
    for catalog_name in rtsm_exp::VALID_CATALOGS {
        let resolved = rtsm_exp::resolve_catalog(catalog_name, 42).expect("registered catalog");
        let platform = &resolved.platform;
        for entry in resolved.catalog.entries() {
            use rtsm_core::step4::{check_constraints_in, compose, signature};
            let spec = &*entry.spec;
            let (mapping, working) = rtsm_bench::steps_one_to_three(spec, platform);
            let table = rtsm_core::SpecTable::for_validated(spec);
            let mut cold_ns = Vec::new();
            let mut cold = None;
            for _ in 0..cold_samples {
                let (ns, answer) = std::thread::scope(|scope| {
                    let timed = || {
                        let ledger = working.clone();
                        let table = rtsm_core::SpecTable::for_validated(spec);
                        let t = Instant::now();
                        let answer =
                            check_constraints_in(&table, platform, &mapping, ledger, &step4_config);
                        (t.elapsed().as_nanos() as u64, answer)
                    };
                    scope.spawn(timed).join().expect("step 4 does not panic")
                });
                cold_ns.push(ns);
                cold = Some(answer);
            }
            // Once more under a probe, untimed, for the count.
            let cold_csdf_runs = std::thread::scope(|scope| {
                let counted = || {
                    let probe = Rc::new(SpanLatencyProbe::new());
                    let _guard = obs::install(probe.clone() as Rc<dyn obs::Probe>);
                    let table = rtsm_core::SpecTable::for_validated(spec);
                    let ledger = working.clone();
                    check_constraints_in(&table, platform, &mapping, ledger, &step4_config);
                    probe.counter_total(Counter::CsdfRun)
                };
                scope.spawn(counted).join().expect("step 4 does not panic")
            });
            let most = match catalog_name {
                "mixed" => 1,
                "hiperlan2" => 4,
                _ => u64::MAX,
            };
            assert!(
                (1..=most).contains(&cold_csdf_runs),
                "`{}`: a cold verdict ran {cold_csdf_runs} simulations, the gate is {most}",
                entry.name
            );
            let warm =
                check_constraints_in(&table, platform, &mapping, working.clone(), &step4_config);
            assert!(warm.feasible, "`{}` is feasible alone", entry.name);
            assert_eq!(Some(&warm), cold.as_ref(), "`{}`: warm vs cold", entry.name);

            let ledger = working.clone();
            let warm_verdict_allocs = ALLOC
                .allocations_during(|| {
                    check_constraints_in(&table, platform, &mapping, ledger, &step4_config)
                })
                .0 as u64;
            // The verdict consumes a working ledger, as the refinement loop
            // hands it one: the copies are made before the clock starts.
            let mut warm_ns: Vec<u64> = (0..iters)
                .map(|_| {
                    let mut ledgers = vec![working.clone(); STEP4_BATCH as usize];
                    let t = Instant::now();
                    while let Some(ledger) = ledgers.pop() {
                        black_box(check_constraints_in(
                            &table,
                            platform,
                            black_box(&mapping),
                            ledger,
                            &step4_config,
                        ));
                    }
                    t.elapsed().as_nanos() as u64 / STEP4_BATCH
                })
                .collect();
            let warm_verdict_ns = median(&mut warm_ns);
            let per_call = |f: &mut dyn FnMut()| {
                measure(iters, || {
                    for _ in 0..STEP4_BATCH {
                        f();
                    }
                }) / STEP4_BATCH
            };
            let point = Step4Point {
                catalog: catalog_name.into(),
                spec: entry.name.clone(),
                csdf_actors: compose(&table, platform, &mapping, &step4_config)
                    .expect("assigned")
                    .csdf
                    .n_actors() as u64,
                signature_ns: per_call(&mut || {
                    black_box(signature(&table, platform, black_box(&mapping), &step4_config).ok());
                }),
                warm_verdict_ns,
                warm_verdict_allocs,
                compose_ns: per_call(&mut || {
                    black_box(compose(
                        &table,
                        platform,
                        black_box(&mapping),
                        &step4_config,
                    ));
                }),
                cold_verdict_ns: median(&mut cold_ns),
                cold_csdf_runs,
            };
            println!(
                "step4/{}: signature {} ns, warm verdict {} ns ({} allocator calls), \
                 compose {} actors {} ns, cold verdict {} ns in {} simulations",
                point.spec,
                point.signature_ns,
                point.warm_verdict_ns,
                point.warm_verdict_allocs,
                point.csdf_actors,
                point.compose_ns,
                point.cold_verdict_ns,
                point.cold_csdf_runs,
            );
            step4_points.push(point);
        }
    }
    let step4 = Step4 {
        iterations: iters,
        cold_samples,
        points: step4_points,
    };

    // --- Portfolio vs its members, every catalog --------------------------
    // The **portfolio-beats-members gate**: at an equal modeled
    // per-admission latency budget, the portfolio's per-admission
    // blocking must be ≤ every member's — i.e. every arrival the
    // portfolio blocks is unmappable by *every* standalone member on the
    // exact platform state the portfolio saw. The `MemberCoverage`
    // wrapper replays all members at each blocked admission to check
    // this. (Whole-trajectory blocking of standalone members is reported
    // next to the portfolio's for context but never gated: once one
    // admission differs the platform states diverge and the trajectories
    // are no longer comparing like with like.)
    let portfolio_arrivals = sim_arrivals.clamp(100, 500);
    let portfolio_members = rtsm_baselines::default_members();
    let mut portfolio_points = Vec::new();
    for catalog_name in rtsm_exp::VALID_CATALOGS {
        let resolved = rtsm_exp::resolve_catalog(catalog_name, 42).expect("registered catalog");
        let config = SimConfig {
            seed,
            arrivals: portfolio_arrivals,
            ..SimConfig::default()
        };
        let run_one = |algorithm: &dyn MappingAlgorithm| {
            run_sim(&resolved.platform, algorithm, &resolved.catalog, &config)
                .expect("the simulation never breaks its own ledger")
        };
        let gated = MemberCoverage {
            portfolio: PortfolioMapper::default(),
            members: &portfolio_members,
            recoverable_blocks: std::cell::Cell::new(0),
        };
        let portfolio_run = run_one(&gated);
        assert_eq!(
            gated.recoverable_blocks.get(),
            0,
            "on `{catalog_name}` the portfolio blocked an arrival a standalone member \
             could have mapped on the same platform state"
        );
        let member_runs: Vec<(&str, rtsm_sim::SimRun)> = portfolio_members
            .iter()
            .map(|m| (m.name, run_one((m.build)().as_ref())))
            .collect();
        let (best_member, best_run) = member_runs
            .iter()
            .min_by_key(|(_, run)| run.report.blocking_permille)
            .map(|(name, run)| (*name, run))
            .expect("the portfolio has members");
        let point = PortfolioPoint {
            catalog: catalog_name.to_string(),
            portfolio_blocking_permille: portfolio_run.report.blocking_permille,
            best_member: best_member.to_string(),
            best_member_blocking_permille: best_run.report.blocking_permille,
            recoverable_blocks: gated.recoverable_blocks.get(),
            portfolio_mean_map_us: portfolio_run.wall.mean_ns() / 1000,
            best_member_mean_map_us: best_run.wall.mean_ns() / 1000,
        };
        println!(
            "portfolio/{catalog_name}: {}‰ blocking ({} recoverable blocks) vs {}‰ \
             best standalone member (`{}`), mean map {} µs vs {} µs",
            point.portfolio_blocking_permille,
            point.recoverable_blocks,
            point.best_member_blocking_permille,
            point.best_member,
            point.portfolio_mean_map_us,
            point.best_member_mean_map_us,
        );
        portfolio_points.push(point);
    }
    // Racing determinism: the same mixed-catalog run at 1 and 4 workers
    // must serialize byte-identically — worker count is pure wall-clock.
    let portfolio_race_reports: Vec<String> = [1usize, 4]
        .iter()
        .map(|&workers| {
            let resolved = rtsm_exp::resolve_catalog("mixed", 42).expect("registered catalog");
            let config = SimConfig {
                seed,
                arrivals: portfolio_arrivals,
                ..SimConfig::default()
            };
            let run = run_sim(
                &resolved.platform,
                PortfolioMapper::with_workers(workers),
                &resolved.catalog,
                &config,
            )
            .expect("the simulation never breaks its own ledger");
            serde_json::to_string(&run.report).expect("reports serialize")
        })
        .collect();
    let portfolio_reports_identical = portfolio_race_reports[0] == portfolio_race_reports[1];
    assert!(
        portfolio_reports_identical,
        "fixed-seed portfolio reports must be byte-identical at 1 vs 4 racing workers"
    );
    let portfolio = Portfolio {
        arrivals: portfolio_arrivals,
        budget_us: rtsm_baselines::DEFAULT_BUDGET_US,
        members: portfolio_members
            .iter()
            .map(|m| m.name.to_string())
            .collect(),
        reports_identical_across_workers: portfolio_reports_identical,
        points: portfolio_points,
    };

    // --- Worker-pool scaling: events/s vs workers -------------------------
    // One fixed 8-trial spec through the experiment harness at 1, 2, and
    // 4 workers. The sealed reports must be byte-identical (hard gate);
    // the speedup itself is only gated where the hardware can deliver one.
    let scaling_spec = ExperimentSpec {
        schema: None,
        name: "bench-map-scaling".to_string(),
        template: SpecTemplate {
            arrivals: sim_arrivals.clamp(200, 2000),
            mean_hold: None,
            switch_prob_pct: None,
            sample_interval: None,
            horizon: None,
            platform_seed: None,
        },
        algorithms: vec!["paper".to_string(), "greedy".to_string()],
        catalogs: vec!["hiperlan2".to_string()],
        mean_gaps: vec![400, 1200],
        policies: vec![PolicySpec::none()],
        seeds: vec![seed, seed + 1],
        repeats: None,
    };
    let available_parallelism = rtsm_exp::available_workers() as u64;
    let mut scaling_points = Vec::new();
    let mut sealed_reports: Vec<String> = Vec::new();
    for workers in [1usize, 2, 4] {
        // One worker runs inline on the calling thread, whose per-thread
        // step-4 memo the sections above have already filled; pool workers
        // are fresh threads. Start every point from a fresh thread so all
        // of them pay the same cold start, as a real sweep process does.
        let run = std::thread::scope(|scope| {
            scope
                .spawn(|| run_experiment(&scaling_spec, workers, |_, _| {}))
                .join()
                .expect("the sweep does not panic")
        })
        .expect("the scaling spec is valid");
        sealed_reports.push(serde_json::to_string(&run.report).expect("reports serialize"));
        let point = ScalingPoint {
            workers: workers as u64,
            events_processed: run.events,
            wall_ms: run.wall.as_millis() as u64,
            events_per_sec: run.events_per_second(),
        };
        println!(
            "scaling/{workers}w: {} events in {} ms → {} events/s",
            point.events_processed, point.wall_ms, point.events_per_sec
        );
        scaling_points.push(point);
    }
    let reports_identical = sealed_reports.windows(2).all(|w| w[0] == w[1]);
    assert!(
        reports_identical,
        "sealed experiment reports must be byte-identical across worker counts"
    );
    let single_rate = scaling_points[0].events_per_sec;
    let best_multi_rate = scaling_points[1..]
        .iter()
        .map(|p| p.events_per_sec)
        .max()
        .unwrap_or(0);
    let speedup_gated = available_parallelism >= 2;
    if speedup_gated {
        assert!(
            best_multi_rate > single_rate,
            "with {available_parallelism} hardware threads, >1 worker must beat \
             single-threaded throughput ({best_multi_rate} vs {single_rate} events/s)"
        );
    } else {
        println!(
            "scaling: single hardware thread — speedup gate skipped \
             ({best_multi_rate} vs {single_rate} events/s)"
        );
    }
    let scaling = Scaling {
        available_parallelism,
        spec_trials: scaling_spec.expand().len() as u64,
        spec_total_arrivals: scaling_spec.total_arrivals(),
        reports_identical,
        speedup_gated,
        points: scaling_points,
    };

    let report = BenchReport {
        schema: "rtsm-bench-map/8".into(),
        seed,
        baseline: Baseline {
            commit: "c9eb51b".into(),
            map_paper_median_ns: PRE_PR_BASELINE_MEDIAN_NS,
            note: "pre-optimisation mapper (trace capture always on), same harness".into(),
        },
        map_paper: PaperCase {
            iterations: iters,
            capture_on_median_ns,
            capture_off_median_ns,
            speedup_vs_baseline_pct: PRE_PR_BASELINE_MEDIAN_NS * 100 / capture_off_median_ns.max(1),
            peak_alloc_capture_on_bytes,
            peak_alloc_capture_off_bytes,
        },
        observability,
        synthetic_chain,
        sim,
        fragmented_admission,
        pareto,
        resilience,
        templates,
        rejections,
        step4,
        portfolio,
        scaling,
        sanity_checks_passed: true,
    };
    let json = serde_json::to_string(&report).expect("report serializes");
    // Atomic: an interrupted run must not leave a truncated artifact.
    write_atomic(&out, &json).expect("write BENCH_map.json");
    println!("wrote {out}");
    // What README.md quotes from this artifact, ready to paste.
    let written: serde::Value = serde_json::from_str(&json).expect("the report just serialized");
    print!(
        "{}",
        rtsm_bench::render::readme_admission_block(&written).expect("a `templates` section")
    );
}
