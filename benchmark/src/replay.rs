//! The replay driver: a closed loop with one caller and no think time, as
//! the admission engine is called synchronously by one manager thread.
//! Each op of the trace becomes one call into `RuntimeManager`, timed from
//! outside.

use crate::alloc::AllocReport;
use crate::spans::{Recorder, Timed};
use crate::workload::{Op, OpTrace, Workload, WARMUP_PERCENT};
use rtsm_app::ApplicationSpec;
use rtsm_core::runtime::{
    AdmissionError, AppHandle, EvacuationPolicy, FailureEvent, ReconfigurationPolicy, RuntimeError,
    RuntimeManager,
};
use rtsm_core::{
    MapError, MapperConfig, MappingAlgorithm, MappingConstraints, MappingOutcome, SpatialMapper,
    TemplateStats, TemplatedMapper,
};
use rtsm_exp::ResolvedCatalog;
use rtsm_platform::{Platform, PlatformState};
use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;

/// The admission algorithm of one run: the paper's mapper, optionally
/// behind the template library, optionally with span wrappers outside and
/// inside it. An enum rather than a box so `TemplatedMapper::stats` stays
/// reachable and untraced runs carry no wrapper at all.
#[derive(Debug)]
pub enum Algorithm {
    /// `SpatialMapper`, capture off.
    Plain(SpatialMapper),
    /// `TemplatedMapper` over it at the default cap.
    Templated(TemplatedMapper<SpatialMapper>),
    /// [`Algorithm::Plain`] inside a `mapper.map` span.
    TracedPlain(Timed<SpatialMapper>),
    /// [`Algorithm::Templated`] with `template.map` outside and
    /// `mapper.map` inside the library.
    TracedTemplated(Timed<TemplatedMapper<Timed<SpatialMapper>>>),
}

impl Algorithm {
    /// The algorithm `workload` admits through, span-wrapped when a
    /// recorder is given.
    pub fn new(workload: &Workload, recorder: Option<&Rc<Recorder>>) -> Algorithm {
        let mapper = SpatialMapper::new(MapperConfig::default().without_capture());
        match (workload.templates, recorder) {
            (false, None) => Algorithm::Plain(mapper),
            (true, None) => Algorithm::Templated(TemplatedMapper::new(mapper)),
            (false, Some(rec)) => {
                Algorithm::TracedPlain(Timed::new(mapper, "mapper.map", rec.clone()))
            }
            (true, Some(rec)) => Algorithm::TracedTemplated(Timed::new(
                TemplatedMapper::new(Timed::new(mapper, "mapper.map", rec.clone())),
                "template.map",
                rec.clone(),
            )),
        }
    }

    /// The template library's counters, when there is a library.
    pub fn template_stats(&self) -> Option<TemplateStats> {
        match self {
            Algorithm::Plain(_) | Algorithm::TracedPlain(_) => None,
            Algorithm::Templated(t) => Some(t.stats()),
            Algorithm::TracedTemplated(t) => Some(t.inner().stats()),
        }
    }
}

impl MappingAlgorithm for Algorithm {
    fn name(&self) -> &str {
        match self {
            Algorithm::Plain(a) => a.name(),
            Algorithm::Templated(a) => a.name(),
            Algorithm::TracedPlain(a) => a.name(),
            Algorithm::TracedTemplated(a) => a.name(),
        }
    }

    fn map_constrained(
        &self,
        spec: &ApplicationSpec,
        platform: &Platform,
        base: &PlatformState,
        constraints: &MappingConstraints,
    ) -> Result<MappingOutcome, MapError> {
        match self {
            Algorithm::Plain(a) => a.map_constrained(spec, platform, base, constraints),
            Algorithm::Templated(a) => a.map_constrained(spec, platform, base, constraints),
            Algorithm::TracedPlain(a) => a.map_constrained(spec, platform, base, constraints),
            Algorithm::TracedTemplated(a) => a.map_constrained(spec, platform, base, constraints),
        }
    }
}

/// FNV-1a over little-endian words: the decision digest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(pub u64);

impl Digest {
    /// The FNV-1a offset basis.
    pub fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn outcome(&mut self, outcome: &MappingOutcome) {
        self.word(u64::from(outcome.communication_hops));
        self.word(outcome.energy_pj);
        self.word(outcome.achieved_period.0);
        self.word(outcome.achieved_period.1);
    }
}

/// Windows the measured phase of a replay is timed in, besides as a whole:
/// short enough (about a hundred microseconds) to slip between bursts of
/// host interference.
pub const WINDOWS: usize = 10_000;

/// Windows the warm-up prefix is timed in, at the same length in ops.
pub const WARMUP_WINDOWS: usize = WINDOWS * WARMUP_PERCENT / (100 - WARMUP_PERCENT);

/// How an arrival's admission was decided.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Verdict {
    /// No feasible mapping (after the reconfiguration retry, if any).
    Blocked = 0,
    /// Admitted by plain `start`.
    Admitted = 1,
    /// Blocked by `start`, admitted by `start_with_reconfiguration`.
    Recovered = 2,
}

/// A pre-admission snapshot kept for the shadow decomposition.
#[derive(Debug, Clone)]
pub struct ShadowSample {
    /// Catalog entry that was about to be admitted.
    pub app: u8,
    /// The ledger it was admitted against.
    pub state: PlatformState,
}

/// What one replay of a trace produced.
#[derive(Debug, Clone)]
pub struct Replay {
    /// Host time of the warm-up prefix, from before the manager is built.
    pub warmup_ns: u64,
    /// The same, split into [`WARMUP_WINDOWS`] consecutive windows of equal
    /// length in trace ops.
    pub warmup_window_ns: Vec<u64>,
    /// Host time of the measured phase.
    pub wall_ns: u64,
    /// The same, split into [`WINDOWS`] consecutive windows of equal length
    /// in trace ops.
    pub window_ns: Vec<u64>,
    /// Trace ops executed in the measured phase (skipped stops and
    /// switches of instances no longer running are not ops).
    pub ops: u64,
    /// Trace ops executed over the whole trace.
    pub ops_attempted: u64,
    /// Ops that failed: any error other than a rejection, an admitted
    /// outcome that is not `feasible`, or a teardown check.
    pub ops_failed: u64,
    /// Admission-decision latency of every measured-phase arrival.
    pub admit_ns: Vec<u64>,
    /// Per-arrival verdicts over the whole trace, by arrival index.
    pub verdicts: Vec<Verdict>,
    /// Decision digest over the whole trace.
    pub digest: Digest,
    /// Reconfiguration retries made / that admitted the arrival.
    pub reconfigure_attempts: u64,
    /// Evacuation victims, and how many of them were evicted.
    pub evacuation_victims: u64,
    /// See [`Replay::evacuation_victims`].
    pub evacuation_evicted: u64,
    /// Pre-admission snapshots, when sampling was asked for.
    pub shadow: Vec<ShadowSample>,
    /// Allocator counters over the measured phase, when asked for.
    pub allocations: Option<AllocReport>,
}

impl Replay {
    /// Blocked arrivals per thousand arrivals, over the whole trace.
    pub fn blocked_permille(&self) -> f64 {
        let blocked = self
            .verdicts
            .iter()
            .filter(|v| **v == Verdict::Blocked)
            .count();
        blocked as f64 * 1000.0 / self.verdicts.len() as f64
    }

    /// Retries that recovered the admission, per thousand retries.
    pub fn recovered_permille(&self) -> f64 {
        let recovered = self
            .verdicts
            .iter()
            .filter(|v| **v == Verdict::Recovered)
            .count();
        permille(recovered as u64, self.reconfigure_attempts)
    }
}

/// `part` per thousand of `whole`; 0 when `whole` is 0.
pub fn permille(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 * 1000.0 / whole as f64
    }
}

/// Optional instrumentation of one replay.
#[derive(Debug, Default)]
pub struct Instruments<'a> {
    /// Record a `runtime.<op>` span around every manager call.
    pub recorder: Option<&'a Recorder>,
    /// Keep a pre-admission snapshot every this many measured arrivals.
    pub shadow_every: Option<usize>,
    /// Switch the counting allocator on: live bytes count from just before
    /// the manager is built, peak and counters from the measured phase.
    pub count_allocations: bool,
}

/// Runs `f` on a fresh thread. The program keeps a thread-local memo of
/// buffer sizings; a fresh thread starts it cold, so every repeat fills it
/// during its own warm-up and no repeat inherits an earlier one's state.
pub fn cold<T: Send>(f: impl FnOnce() -> T + Send) -> T {
    std::thread::scope(|scope| scope.spawn(f).join())
        .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
}

/// Replays `trace` against a fresh manager over `resolved`'s platform.
///
/// Violations are named on stderr and counted in [`Replay::ops_failed`];
/// the replay itself always runs to the end of the trace.
pub fn replay(
    workload: &Workload,
    resolved: &ResolvedCatalog,
    trace: &OpTrace,
    algorithm: &Algorithm,
    instruments: &Instruments<'_>,
) -> Replay {
    let started = Instant::now();
    let specs: Vec<Arc<ApplicationSpec>> = resolved
        .catalog
        .entries()
        .iter()
        .map(|e| e.spec.clone())
        .collect();
    let reconfiguration: Option<ReconfigurationPolicy> = workload.reconfiguration();
    let evacuation = EvacuationPolicy::default();
    let rec = instruments.recorder;

    // Arrival → handle while running; handle id → arrival, for evictions
    // (handle ids are dense: the manager numbers admissions from 0).
    let mut handles: Vec<Option<AppHandle>> = vec![None; trace.arrivals as usize];
    let mut arrival_of: Vec<u32> = Vec::with_capacity(2 * trace.arrivals as usize);
    let note = |arrival_of: &mut Vec<u32>, handle: AppHandle, arrival: u32| {
        let id = handle.id() as usize;
        if arrival_of.len() <= id {
            arrival_of.resize(id + 1, u32::MAX);
        }
        arrival_of[id] = arrival;
    };
    // Resources failed and not yet repaired (a handful at most).
    let mut down: Vec<FailureEvent> = Vec::with_capacity(64);
    let mut measured_arrivals = 0usize;

    let warmup_len = trace.warmup_len();
    let mut out = Replay {
        warmup_ns: 0,
        warmup_window_ns: Vec::new(),
        wall_ns: 0,
        window_ns: Vec::with_capacity(WARMUP_WINDOWS + WINDOWS),
        ops: 0,
        ops_attempted: 0,
        ops_failed: 0,
        admit_ns: Vec::with_capacity(trace.arrivals as usize),
        verdicts: Vec::with_capacity(trace.arrivals as usize),
        digest: Digest::new(),
        reconfigure_attempts: 0,
        evacuation_victims: 0,
        evacuation_evicted: 0,
        shadow: Vec::new(),
        allocations: None,
    };
    let (mut admitted, mut departed, mut switch_lost) = (0u64, 0u64, 0u64);
    // Everything above is the benchmark's own memory; from here on the
    // heap grows only by what the program allocates.
    if instruments.count_allocations {
        crate::ALLOC.start();
    }
    let mut manager = RuntimeManager::new(resolved.platform.clone(), algorithm);
    let fail = |out: &mut Replay, index: usize, what: &dyn std::fmt::Display| {
        eprintln!("{}: op {index} failed: {what}", workload.name);
        out.ops_failed += 1;
    };
    // Opens a span; the matching `close` ends it.
    let open = |name: &'static str| rec.map(|r| r.begin(name));
    let close = |id: Option<u32>, ok: bool| {
        if let (Some(r), Some(id)) = (rec, id) {
            r.end(id, ok, 0);
        }
    };

    let mut measured_from = started;
    let mut warmup_ops = 0;
    // Trace index at which window `k` ends: the warm-up's windows, then
    // the measured phase's. A short trace leaves some of them empty.
    let window_end = |k: usize| {
        if k < WARMUP_WINDOWS {
            warmup_len * (k + 1) / WARMUP_WINDOWS
        } else {
            warmup_len + (trace.ops.len() - warmup_len) * (k + 1 - WARMUP_WINDOWS) / WINDOWS
        }
    };
    let mut window_from = started;
    let close_windows = |windows: &mut Vec<u64>, window_from: &mut Instant, index: usize| {
        while windows.len() < WARMUP_WINDOWS + WINDOWS && window_end(windows.len()) == index {
            let now = Instant::now();
            windows.push((now - *window_from).as_nanos() as u64);
            *window_from = now;
        }
    };
    for (index, &(_, op)) in trace.ops.iter().enumerate() {
        close_windows(&mut out.window_ns, &mut window_from, index);
        if index == warmup_len {
            // The warm-up's last window closed just now.
            measured_from = window_from;
            out.warmup_ns = (measured_from - started).as_nanos() as u64;
            warmup_ops = out.ops_attempted;
            if instruments.count_allocations {
                crate::ALLOC.mark();
            }
        }
        let measured = index >= warmup_len;
        if let Some(r) = rec {
            r.set_op(index as u32);
        }
        out.digest.word(index as u64);
        match op {
            Op::Start { arrival, app } => {
                out.ops_attempted += 1;
                let spec = &specs[usize::from(app)];
                if measured {
                    if let Some(every) = instruments.shadow_every {
                        if measured_arrivals.is_multiple_of(every) {
                            out.shadow.push(ShadowSample {
                                app,
                                state: manager.state().clone(),
                            });
                        }
                    }
                    measured_arrivals += 1;
                }
                let t0 = Instant::now();
                let span = open("runtime.start");
                let mut result = manager.start(spec.clone());
                close(span, result.is_ok());
                let mut verdict = Verdict::Admitted;
                if let (Err(AdmissionError::Rejected(_)), Some(policy)) =
                    (&result, &reconfiguration)
                {
                    out.reconfigure_attempts += 1;
                    let span = open("runtime.reconfigure");
                    let retry = manager.start_with_reconfiguration(spec.clone(), policy);
                    close(span, retry.is_ok());
                    verdict = Verdict::Recovered;
                    result = retry.map(|r| r.handle).map_err(|f| f.error);
                }
                let elapsed = t0.elapsed();
                if measured {
                    out.admit_ns.push(elapsed.as_nanos() as u64);
                }
                match result {
                    Ok(handle) => {
                        admitted += 1;
                        handles[arrival as usize] = Some(handle);
                        note(&mut arrival_of, handle, arrival);
                        let outcome = &manager.get(handle).expect("just admitted").outcome;
                        out.digest.outcome(outcome);
                        if !outcome.feasible {
                            fail(&mut out, index, &"admitted outcome is not feasible");
                        }
                    }
                    Err(AdmissionError::Rejected(_)) => verdict = Verdict::Blocked,
                    Err(fatal) => {
                        verdict = Verdict::Blocked;
                        fail(&mut out, index, &fatal);
                    }
                }
                out.digest.word(verdict as u64);
                out.verdicts.push(verdict);
            }
            Op::Stop { arrival } => {
                let Some(handle) = handles[arrival as usize].take() else {
                    continue;
                };
                out.ops_attempted += 1;
                let span = open("runtime.stop");
                let result = manager.stop(handle);
                close(span, result.is_ok());
                match result {
                    Ok(_) => departed += 1,
                    Err(e) => fail(&mut out, index, &e),
                }
                out.digest.word(1);
            }
            Op::Switch { arrival, app } => {
                let Some(handle) = handles[arrival as usize] else {
                    continue;
                };
                out.ops_attempted += 1;
                let spec = &specs[usize::from(app)];
                let span = open("runtime.switch");
                // 0 lost, 1 switched, 2 kept the old configuration.
                let fate = if reconfiguration.is_some() {
                    match manager.switch(handle, spec.clone()) {
                        Ok(_) => 1,
                        Err(RuntimeError::Admission(AdmissionError::Rejected(_))) => 2,
                        Err(fatal) => {
                            fail(&mut out, index, &fatal);
                            2
                        }
                    }
                } else {
                    // Plain runs switch as `run_sim` does: stop, then
                    // re-admit; a blocked re-admission loses the instance.
                    let inner = open("runtime.stop");
                    let stopped = manager.stop(handle);
                    close(inner, stopped.is_ok());
                    if let Err(e) = stopped {
                        fail(&mut out, index, &e);
                    }
                    let inner = open("runtime.start");
                    let restarted = manager.start(spec.clone());
                    close(inner, restarted.is_ok());
                    match restarted {
                        Ok(new) => {
                            handles[arrival as usize] = Some(new);
                            note(&mut arrival_of, new, arrival);
                            1
                        }
                        Err(e) => {
                            handles[arrival as usize] = None;
                            switch_lost += 1;
                            if !matches!(e, AdmissionError::Rejected(_)) {
                                fail(&mut out, index, &e);
                            }
                            0
                        }
                    }
                };
                close(span, fate == 1);
                if fate == 1 {
                    let current = handles[arrival as usize].expect("switched instances run");
                    out.digest
                        .outcome(&manager.get(current).expect("still running").outcome);
                }
                out.digest.word(fate);
            }
            Op::Fail(failure) => {
                out.ops_attempted += 1;
                down.push(failure);
                let span = open("runtime.evacuate");
                let result = manager.evacuate(failure, &evacuation);
                close(span, result.is_ok());
                match result {
                    Ok(evacuation) => {
                        out.evacuation_victims += evacuation.victims.len() as u64;
                        out.evacuation_evicted += evacuation.evicted.len() as u64;
                        for handle in &evacuation.evicted {
                            handles[arrival_of[handle.id() as usize] as usize] = None;
                        }
                        out.digest.word(evacuation.evacuated.len() as u64);
                        out.digest.word(evacuation.evicted.len() as u64);
                    }
                    Err(e) => fail(&mut out, index, &e),
                }
            }
            Op::Repair(failure) => {
                out.ops_attempted += 1;
                down.retain(|f| *f != failure);
                let span = open("runtime.repair");
                let repaired = manager.repair(failure);
                close(span, repaired);
                if !repaired {
                    fail(&mut out, index, &"repair of a resource that was not failed");
                }
            }
        }
    }
    close_windows(&mut out.window_ns, &mut window_from, trace.ops.len());
    out.wall_ns = (window_from - measured_from).as_nanos() as u64;
    if instruments.count_allocations {
        out.allocations = Some(crate::ALLOC.stop());
    }
    out.warmup_window_ns = out.window_ns.drain(..WARMUP_WINDOWS).collect();
    out.ops = out.ops_attempted - warmup_ops;

    // Teardown, untimed: every admitted instance is accounted for, and
    // commit/release were exact inverses over the whole trace.
    let running = manager.n_running() as u64;
    let evicted = out.evacuation_evicted;
    if admitted != departed + switch_lost + evicted + running {
        let what = format!(
            "conservation: admitted {admitted} != departed {departed} + switch-lost \
             {switch_lost} + evicted {evicted} + running {running}"
        );
        fail(&mut out, trace.ops.len(), &what);
    }
    for failure in down {
        manager.repair(failure);
    }
    if let Err(e) = manager.stop_all() {
        fail(&mut out, trace.ops.len(), &e);
    }
    if !manager.utilization().is_idle() {
        fail(&mut out, trace.ops.len(), &"ledger not idle after stop_all");
    }
    out
}
