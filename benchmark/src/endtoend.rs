//! The untraced run: repeats of replay and DES, interleaved so drift hits
//! both equally, their timings composed across repeats (see [`Composite`]);
//! then one memory pass and the correctness gate.

use crate::metrics::{RunResult, Values, END_TO_END};
use crate::replay::{cold, replay, Algorithm, Instruments, Replay};
use crate::stats::{fold_min, percentile_us};
use crate::workload::{Prepared, Workload};
use rtsm_app::ApplicationSpec;
use rtsm_core::{MapError, MappingAlgorithm, MappingConstraints, MappingOutcome};
use rtsm_platform::{Platform, PlatformState};
use rtsm_sim::{run_sim, SimReport};
use std::cell::{Cell, RefCell};
use std::time::{Duration, Instant};

/// The seed the committed digests in `expected/` were recorded at.
pub const GOLDEN_SEED: u64 = 2008;

/// How a run is sized.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sizing {
    /// Workload seed.
    pub seed: u64,
    /// Measuring budget: repeats continue while another fits.
    pub seconds: f64,
    /// Fewest repeats, whatever the budget.
    pub min_repeats: usize,
    /// Divisor of the frozen op counts: 1, or 10 under `--quick`, where
    /// the golden digests do not apply.
    pub divisor: u64,
}

/// The digest committed for `workload` at [`GOLDEN_SEED`].
fn golden_digest(workload: &str) -> Option<u64> {
    let text = match workload {
        "mixed_miss" => include_str!("../expected/mixed_miss.digest"),
        "mixed_hit" => include_str!("../expected/mixed_hit.digest"),
        "overload_reject" => include_str!("../expected/overload_reject.digest"),
        "recover" => include_str!("../expected/recover.digest"),
        _ => return None,
    };
    u64::from_str_radix(text.trim(), 16).ok()
}

/// Events of a `SimReport`: arrivals, departures, mode-switch attempts,
/// failures and repairs.
pub fn sim_events(report: &SimReport) -> u64 {
    let faults = report
        .survivability
        .as_ref()
        .map_or(0, |s| s.tile_failures + s.link_failures + s.repairs);
    report.arrivals + report.departures + report.mode_switch_attempts + faults
}

/// Correctness state shared by the repeats of one run.
#[derive(Debug)]
pub struct Gate {
    workload: &'static str,
    /// Manager ops attempted so far.
    pub attempted: u64,
    /// Failed ops plus tripped checks so far.
    pub failed: u64,
    digest: Option<u64>,
    sim_report: Option<String>,
}

impl Gate {
    /// A gate with nothing seen yet.
    pub fn new(workload: &Workload) -> Gate {
        Gate {
            workload: workload.name,
            attempted: 0,
            failed: 0,
            digest: None,
            sim_report: None,
        }
    }

    /// Names a violation on stderr and counts it as a failed op.
    pub fn violation(&mut self, what: &str) {
        eprintln!("{}: check failed: {what}", self.workload);
        self.failed += 1;
    }

    /// Books one replay: its ops, and its digest against earlier repeats'.
    pub fn replayed(&mut self, replay: &Replay) {
        self.attempted += replay.ops_attempted;
        self.failed += replay.ops_failed;
        match self.digest {
            None => self.digest = Some(replay.digest.0),
            Some(first) if first != replay.digest.0 => self.violation(&format!(
                "decision digest {:016x} differs from an earlier repeat's {first:016x}",
                replay.digest.0
            )),
            Some(_) => {}
        }
    }

    /// Books one `run_sim` report: byte-identical across repeats, ledger
    /// idle at the end.
    pub fn simulated(&mut self, report: &SimReport) {
        if !report.ledger_idle_at_end {
            self.violation("run_sim left the ledger busy");
        }
        let bytes = serde_json::to_string(report).expect("sim reports serialize");
        match &self.sim_report {
            None => self.sim_report = Some(bytes),
            Some(first) if *first != bytes => {
                self.violation("run_sim report differs from an earlier repeat's");
            }
            Some(_) => {}
        }
    }

    /// The decision digest every replay agreed on (0 before any replay).
    pub fn digest(&self) -> u64 {
        self.digest.unwrap_or(0)
    }

    /// Holds the digest to the committed one, where one applies.
    pub fn check_golden(&mut self, sizing: &Sizing) {
        if !(sizing.divisor == 1 && sizing.seed == GOLDEN_SEED) {
            return;
        }
        match golden_digest(self.workload) {
            Some(golden) if golden == self.digest() => {}
            golden => self.violation(&format!(
                "decision digest {:016x} is not the committed {golden:016x?} \
                 (expected/{}.digest)",
                self.digest(),
                self.workload
            )),
        }
    }
}

/// About how many windows a `run_sim` call is timed in, besides as a whole.
const SIM_WINDOWS: u64 = 10_000;

/// Stamps the clock at every `stride`-th `map` call `run_sim` makes.
///
/// `run_sim` is one call and cannot be windowed from outside — but it calls
/// back into the algorithm it is given, and a fixed seed makes it the same
/// calls in the same order every time. The stamps cut its wall time into
/// windows that line up across repeats, as the replay's do.
struct Paced<'a> {
    inner: &'a Algorithm,
    stride: u64,
    calls: Cell<u64>,
    stamps: RefCell<Vec<Instant>>,
}

impl MappingAlgorithm for Paced<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn map_constrained(
        &self,
        spec: &ApplicationSpec,
        platform: &Platform,
        base: &PlatformState,
        constraints: &MappingConstraints,
    ) -> Result<MappingOutcome, MapError> {
        let calls = self.calls.get();
        self.calls.set(calls + 1);
        if calls.is_multiple_of(self.stride) {
            self.stamps.borrow_mut().push(Instant::now());
        }
        self.inner
            .map_constrained(spec, platform, base, constraints)
    }
}

/// One timed `run_sim` call.
#[derive(Debug)]
pub struct Simulated {
    /// Host time of the whole call.
    pub wall_ns: u64,
    /// Events of its report (see [`sim_events`]).
    pub events: u64,
    /// `wall_ns` split at the stamps of [`Paced`]; the same number of
    /// windows, over the same work, in every repeat of a seed.
    pub window_ns: Vec<u64>,
}

/// Runs `run_sim` on `workload`'s equivalent configuration, timed as a
/// whole and in windows.
pub fn simulate(
    workload: &Workload,
    prepared: &Prepared,
    algorithm: &Algorithm,
    seed: u64,
    gate: &mut Gate,
) -> Simulated {
    let config = workload.sim_config(seed);
    let resolved = &prepared.resolved;
    let paced = Paced {
        inner: algorithm,
        stride: (workload.des_arrivals / SIM_WINDOWS).max(1),
        calls: Cell::new(0),
        // `run_sim` maps once per arrival and per switch, more under a
        // reconfiguration policy.
        stamps: RefCell::new(Vec::with_capacity(4 * SIM_WINDOWS as usize)),
    };
    let started = Instant::now();
    let run = run_sim(&resolved.platform, &paced, &resolved.catalog, &config);
    let ended = Instant::now();
    let events = match run {
        Ok(run) => {
            gate.simulated(&run.report);
            sim_events(&run.report)
        }
        Err(e) => {
            gate.violation(&format!("run_sim failed: {e}"));
            1
        }
    };
    let mut edges = vec![started];
    edges.append(&mut paced.stamps.borrow_mut());
    edges.push(ended);
    Simulated {
        wall_ns: (ended - started).as_nanos() as u64,
        events,
        window_ns: edges
            .windows(2)
            .map(|w| (w[1] - w[0]).as_nanos() as u64)
            .collect(),
    }
}

/// Whether another repeat should run: at least `min_repeats`, then while
/// one more fits the budget — two more when the count is odd, so the count
/// ends odd and the median is a measured value. The budget also has to hold
/// what follows the repeats (the memory pass and, on `mixed_hit`, the
/// untemplated replay), about one repeat's time together.
pub fn another_repeat(done: usize, elapsed: Duration, sizing: &Sizing) -> bool {
    if done < sizing.min_repeats || done.is_multiple_of(2) {
        return true;
    }
    let per_repeat = elapsed.as_secs_f64() / done as f64;
    elapsed.as_secs_f64() + 3.0 * per_repeat <= sizing.seconds
}

/// `mixed_hit` replays `mixed_miss`'s traffic with the template library in
/// front; the library must not change a single admission verdict. Replays
/// the shorter workload untemplated and compares, arrival by arrival.
fn check_templates_change_no_verdict(hit: &Replay, sizing: &Sizing, gate: &mut Gate) {
    let miss = Workload::by_name("mixed_miss")
        .expect("mixed_miss is a workload")
        .scaled_down(sizing.divisor);
    let prepared = miss.prepare(sizing.seed);
    let plain = replay(
        &miss,
        &prepared.resolved,
        &prepared.trace,
        &Algorithm::new(&miss, None),
        &Instruments::default(),
    );
    gate.attempted += plain.ops_attempted;
    gate.failed += plain.ops_failed;
    let n = plain.verdicts.len();
    if let Some(arrival) = (0..n).find(|&i| plain.verdicts[i] != hit.verdicts[i]) {
        gate.violation(&format!(
            "templates changed the verdict of arrival {arrival}: {:?} without, {:?} with",
            plain.verdicts[arrival], hit.verdicts[arrival]
        ));
    }
}

/// The timing metrics of a run, composed across its repeats.
///
/// Every repeat replays the same trace, so arrival `j` is the same call
/// against the same ledger in each of them, and window `k` — of the replay
/// or of `run_sim` — the same stretch of work. Host interference only ever
/// adds time, in bursts: the latency of an arrival is taken as its smallest
/// over the repeats, the time of a window likewise, and the percentiles and
/// the two throughputs are computed from those. A burst then spoils a
/// figure only if it hit the same arrival, or the same hundred microseconds
/// of work, in every repeat — where the best whole repeat needs a second
/// without a burst, which a noisy spell on the box this was written on does
/// not offer.
#[derive(Debug, Default)]
struct Composite {
    /// The parts of set-up: catalog, trace, algorithm, warm-up windows.
    setup_ns: Vec<u64>,
    admit_ns: Vec<u64>,
    replay_window_ns: Vec<u64>,
    sim_window_ns: Vec<u64>,
}

impl Composite {
    fn values(&mut self, ops: u64, sim_events: u64) -> [(&'static str, f64); 5] {
        let per_s =
            |n: u64, window_ns: &[u64]| n as f64 * 1e9 / window_ns.iter().sum::<u64>() as f64;
        [
            ("setup_s", self.setup_ns.iter().sum::<u64>() as f64 / 1e9),
            ("admit_p50_us", percentile_us(&mut self.admit_ns, 50)),
            ("admit_p99_us", percentile_us(&mut self.admit_ns, 99)),
            ("ops_per_s", per_s(ops, &self.replay_window_ns)),
            ("sim_events_per_s", per_s(sim_events, &self.sim_window_ns)),
        ]
    }
}

/// One replay on a cold thread with the counting allocator on: the source
/// of `peak_live_kib` and the `alloc.*` figures, exact for a seed.
pub fn memory_pass(workload: &Workload, prepared: &Prepared, gate: &mut Gate) -> Replay {
    let counted = cold(|| {
        replay(
            workload,
            &prepared.resolved,
            &prepared.trace,
            &Algorithm::new(workload, None),
            &Instruments {
                count_allocations: true,
                ..Instruments::default()
            },
        )
    });
    gate.replayed(&counted);
    counted
}

/// One untraced run of `workload` (already scaled by `sizing.divisor`).
pub fn run(workload: &Workload, sizing: &Sizing) -> RunResult {
    let mut values = Values::default();
    let mut gate = Gate::new(workload);
    let mut last: Option<(Prepared, Replay, u64)> = None;
    let mut composite = Composite::default();
    let started = Instant::now();
    let mut repeats = 0;
    while another_repeat(repeats, started.elapsed(), sizing) {
        // Set-up is redone every repeat, so `setup_s` is repeated too.
        let (prepared, algorithm_ns, mut replayed) = cold(|| {
            let prepared = workload.prepare(sizing.seed);
            let built = Instant::now();
            let algorithm = Algorithm::new(workload, None);
            let algorithm_ns = built.elapsed().as_nanos() as u64;
            let replayed = replay(
                workload,
                &prepared.resolved,
                &prepared.trace,
                &algorithm,
                &Instruments::default(),
            );
            (prepared, algorithm_ns, replayed)
        });
        gate.replayed(&replayed);
        let mut setup_ns = vec![
            prepared.catalog_build_ns,
            prepared.trace_gen_ns,
            algorithm_ns,
        ];
        setup_ns.extend_from_slice(&replayed.warmup_window_ns);
        values.push("setup_s", setup_ns.iter().sum::<u64>() as f64 / 1e9);
        fold_min(&mut composite.setup_ns, &setup_ns);
        // Element-wise minima first: the percentiles sort in place.
        fold_min(&mut composite.admit_ns, &replayed.admit_ns);
        fold_min(&mut composite.replay_window_ns, &replayed.window_ns);
        values.push("admit_p50_us", percentile_us(&mut replayed.admit_ns, 50));
        values.push("admit_p99_us", percentile_us(&mut replayed.admit_ns, 99));
        values.push(
            "ops_per_s",
            replayed.ops as f64 * 1e9 / replayed.wall_ns as f64,
        );
        values.push("blocked_permille", replayed.blocked_permille());

        let simulated = cold(|| {
            let algorithm = Algorithm::new(workload, None);
            simulate(workload, &prepared, &algorithm, sizing.seed, &mut gate)
        });
        fold_min(&mut composite.sim_window_ns, &simulated.window_ns);
        values.push(
            "sim_events_per_s",
            simulated.events as f64 * 1e9 / simulated.wall_ns as f64,
        );
        last = Some((prepared, replayed, simulated.events));
        repeats += 1;
        eprintln!(
            "{} repeat {repeats}: {}",
            workload.name,
            END_TO_END[..5]
                .iter()
                .map(|m| format!("{} {:.4}", m.0, values.get(m.0)[repeats - 1]))
                .collect::<Vec<_>>()
                .join(", ")
        );
    }
    let (prepared, last, sim_events) = last.expect("at least one repeat ran");

    let counted = memory_pass(workload, &prepared, &mut gate);
    let allocations = counted.allocations.expect("counting was asked for");
    values.push("peak_live_kib", allocations.peak_live_bytes as f64 / 1024.0);

    gate.check_golden(sizing);
    if workload.name == "mixed_hit" {
        check_templates_change_no_verdict(&last, sizing, &mut gate);
    }

    let mut metrics = values.summarise(END_TO_END.iter().map(|&(n, u, b, _)| (n, u, b)));
    for (name, value) in composite.values(last.ops, sim_events) {
        let row = metrics.iter_mut().find(|row| row.name == name);
        row.expect("composite metrics are tabled").value = value;
    }
    RunResult {
        workload: workload.name,
        traced: false,
        attempted: gate.attempted,
        failed: gate.failed,
        metrics,
        digest: gate.digest(),
    }
}
