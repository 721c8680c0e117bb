//! Long-horizon admission metrics and the serializable [`SimReport`].
//!
//! Everything the collector measures derives from *virtual* time and the
//! manager's results — counts, blocking probability, utilization-over-time
//! samples, the energy integral, rejection histograms, search effort — so
//! the [`SimReport`] is byte-identical across re-runs of the same seed.
//! Wall-clock latency is not measured here at all (see the crate docs).
//!
//! [`MetricsCollector`] alone turns a manager result into report data:
//! [`run_sim`](crate::run_sim) hands it every result through one
//! crate-private intake per kind — an arrival, a switch attempt, an
//! admission, a refusal, a deferred refusal, a recovery, a failed retry, a
//! departure, an evacuation, a repair — and the intake decides which fields
//! move, the optional sections and the degraded/healthy split included.

use crate::event::SimTime;
use crate::sim::SimConfig;
use rtsm_core::runtime::{
    AdmissionError, AdmissionErrorKind, Evacuation, FailureEvent, Reconfiguration,
    ReconfigurationFailure, Utilization,
};
use rtsm_core::{MapError, MappingOutcome};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Platform occupancy at one sample instant. Ratios are in permille
/// (integers keep the serialized report byte-stable).
///
/// `skip_serializing_if` leaves the fragmentation figure out — not `null` —
/// when tracking is off, so such runs serialize byte-identically to reports
/// from before the field existed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct UtilizationSample {
    /// Sample instant, in ticks.
    pub time: SimTime,
    /// Applications running at this instant.
    pub running_apps: u32,
    /// Compute slots in use, ‰ of the platform total.
    pub slots_permille: u32,
    /// Tile memory in use, ‰ of the platform total.
    pub memory_permille: u32,
    /// Link bandwidth in use, ‰ of the platform total.
    pub link_permille: u32,
    /// Energy of the running set, pJ per application period.
    pub energy_pj_per_period: u64,
    /// Fragmentation of the free compute capacity, ‰ (see
    /// [`Utilization::fragmentation_permille`]); `None` when the run did
    /// not track fragmentation.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub frag_permille: Option<u32>,
}

fn permille(used: u64, total: u64) -> u32 {
    used.saturating_mul(1000).checked_div(total).unwrap_or(0) as u32
}

impl UtilizationSample {
    /// Captures `util` at `time`, with the energy of the running set
    /// (`running_energy_pj`, pJ per period). `track_fragmentation`
    /// controls whether the sample carries the fragmentation figure.
    pub fn capture(
        time: SimTime,
        util: &Utilization,
        running_energy_pj: u64,
        track_fragmentation: bool,
    ) -> Self {
        UtilizationSample {
            time,
            running_apps: util.running_apps as u32,
            slots_permille: permille(u64::from(util.used_slots), u64::from(util.total_slots)),
            memory_permille: permille(util.used_memory_bytes, util.total_memory_bytes),
            link_permille: permille(util.used_link_bandwidth, util.total_link_bandwidth),
            energy_pj_per_period: running_energy_pj,
            frag_permille: track_fragmentation.then_some(util.fragmentation_permille),
        }
    }
}

/// Reconfiguration counters of one simulation run — present in the
/// [`SimReport`] only when the run was configured with a
/// [`ReconfigurationPolicy`](rtsm_core::ReconfigurationPolicy), so plain
/// runs serialize byte-identically to pre-reconfiguration reports.
///
/// Together with the report's `blocking_permille` this is one *Pareto
/// point* per (policy, λ) configuration: recovered admissions and
/// blocking on one axis, total migration energy on the other. Sweeping
/// λ and the [`AdmissionPolicy`](rtsm_core::AdmissionPolicy) set traces
/// the front (an `ExperimentReport`'s `pareto_fronts` section, e.g.
/// `EXP_mixed_1m.json`).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReconfigurationReport {
    /// Label of the run's [`AdmissionPolicy`](rtsm_core::AdmissionPolicy).
    pub policy: String,
    /// The run's migration-energy weight λ, in permille (see
    /// [`ReconfigurationObjective`](rtsm_core::ReconfigurationObjective)).
    pub lambda_permille: u64,
    /// Blocked arrivals that retried with reconfiguration.
    pub reconfigure_attempts: u64,
    /// Retries that admitted the application (blocked → running). The
    /// headline: each one is an admission the plain policy lost.
    pub admissions_recovered: u64,
    /// Migration plans evaluated across all retries.
    pub plans_tried: u64,
    /// Victim re-mappings attempted, including plans that were not
    /// committed.
    pub migrations_attempted: u64,
    /// Migrations actually committed (running apps moved).
    pub migrations_committed: u64,
    /// Total modelled state-transfer energy of committed migrations, pJ.
    pub migration_energy_pj: u64,
    /// Feasible plans the admission policy refused to commit — blocking
    /// that was a *policy* decision, not a placement failure.
    pub plans_refused: u64,
    /// Blocked mode switches whose instance kept running under its old
    /// configuration (the transactional `switch` rolled back): switching
    /// losses that no longer evict.
    pub mode_switches_survived: u64,
}

/// Survivability counters of one simulation run — present in the
/// [`SimReport`] only when the run injected faults (a
/// [`FaultConfig`](crate::FaultConfig) was set), so fault-free runs
/// serialize byte-identically to pre-fault-injection reports.
///
/// The degraded/healthy split classifies every arrival by whether *any*
/// resource was quarantined at its instant, so the blocking figures can
/// be compared between the two operating regimes.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SurvivabilityReport {
    /// Configured mean time to failure, in ticks.
    pub mttf: u64,
    /// Configured (fixed) time to repair, in ticks.
    pub mttr: u64,
    /// Tile failures injected.
    pub tile_failures: u64,
    /// Link failures injected.
    pub link_failures: u64,
    /// Repairs processed (equals injected failures once the queue drains).
    pub repairs: u64,
    /// Applications relocated off a failed resource by evacuation.
    pub apps_evacuated: u64,
    /// Applications evicted — no admissible relocation existed. A
    /// terminal outcome distinct from blocking: the app *was* running.
    pub apps_evicted: u64,
    /// Processes physically moved across all evacuations.
    pub processes_moved: u64,
    /// Total modelled state-transfer energy of evacuations, pJ.
    pub evacuation_energy_pj: u64,
    /// Mean ticks from a failure's injection to its repair: `mttr` once a
    /// repair was processed (every repair is scheduled exactly `mttr` after
    /// its failure), 0 before. The scheduled instant could only fall short
    /// where `now + mttr` saturates a `u64`, which [`check_sample_growth`]
    /// refuses at both front doors.
    pub mean_recovery_ticks: u64,
    /// Arrivals that landed while at least one resource was quarantined.
    pub degraded_arrivals: u64,
    /// Of those, how many were blocked.
    pub degraded_blocked: u64,
    /// Arrivals that landed on a fully healthy platform.
    pub healthy_arrivals: u64,
    /// Of those, how many were blocked.
    pub healthy_blocked: u64,
}

/// Template-library counters of one simulation run — present in the
/// [`SimReport`] only when the run admitted through a
/// [`TemplatedMapper`](rtsm_core::TemplatedMapper), so untemplated runs
/// serialize byte-identically to pre-template reports. All figures derive
/// from virtual-time admission decisions, never from wall-clock timing, so
/// they are as deterministic as the rest of the report.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TemplateReport {
    /// Admissions served by instantiating a cached shape.
    pub hits: u64,
    /// Admissions that fell back to the full heuristic.
    pub misses: u64,
    /// hits ÷ (hits + misses), in permille (0 when nothing was attempted).
    pub hit_permille: u64,
    /// Shapes cached across all specs at the end of the run.
    pub shapes_cached: u64,
    /// Shapes learned by design-time seeding (first arrival per spec).
    pub seeded: u64,
    /// Shapes evicted by the per-spec cap,
    /// [`SHAPE_CAP`](rtsm_core::template::SHAPE_CAP).
    pub evictions: u64,
}

impl TemplateReport {
    /// Builds the report section from the mapper's lifetime statistics.
    pub fn from_stats(stats: rtsm_core::TemplateStats) -> Self {
        let attempts = stats.hits + stats.misses;
        TemplateReport {
            hits: stats.hits,
            misses: stats.misses,
            hit_permille: (stats.hits * 1000).checked_div(attempts).unwrap_or(0),
            shapes_cached: stats.shapes_cached,
            seeded: stats.seeded,
            evictions: stats.evictions,
        }
    }
}

/// The deterministic result of one simulation run: same seed, same
/// platform, same algorithm ⇒ byte-identical serialized report.
///
/// `skip_serializing_if` leaves the three optional sections at the end out —
/// not `null` — when absent, keeping plain runs byte-identical to reports
/// from before reconfiguration, fault injection, or templates existed.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SimReport {
    /// Name of the mapping algorithm that admitted applications.
    pub algorithm: String,
    /// The workload seed.
    pub seed: u64,
    /// Virtual time when the simulation ended, in ticks.
    pub end_time: SimTime,
    /// Arrival events processed.
    pub arrivals: u64,
    /// Arrivals admitted with a feasible mapping.
    pub admitted: u64,
    /// Arrivals blocked (no feasible mapping at that moment).
    pub blocked: u64,
    /// Departure events that released a running instance.
    pub departures: u64,
    /// Mode switches attempted by running instances.
    pub mode_switch_attempts: u64,
    /// Mode switches whose new configuration was admitted.
    pub mode_switch_admitted: u64,
    /// Mode switches blocked. Without a reconfiguration policy the instance
    /// lost its resources and left; with one it kept running under its old
    /// configuration (see [`SimReport::mode_switch_lost`]).
    pub mode_switch_blocked: u64,
    /// Blocking probability over all admission attempts (arrivals + mode
    /// switches), in permille.
    pub blocking_permille: u64,
    /// Rejections keyed by [`AdmissionErrorKind`] — why admissions failed.
    pub rejection_histogram: BTreeMap<AdmissionErrorKind, u64>,
    /// Admissions per catalog entry name (which applications got through).
    pub admitted_by_app: BTreeMap<String, u64>,
    /// Total assignments evaluated by the algorithm over all successful
    /// admissions — the deterministic proxy for mapping latency.
    pub evaluated_assignments: u64,
    /// Total refinement attempts over all admission attempts (successful
    /// admissions plus rejections that report their attempt count; a
    /// certified `CannotFit` refusal made none).
    pub refinement_attempts: u64,
    /// Most applications running at once.
    pub peak_running: u64,
    /// The energy integral ∫ running_energy dt over the run, in pJ·ticks:
    /// each admitted mapping's `energy_pj` (per period, via the platform's
    /// energy model) weighted by how long it actually ran.
    pub energy_pj_ticks: u64,
    /// Occupancy over time, one sample per configured interval.
    pub samples: Vec<UtilizationSample>,
    /// Instances still running when the horizon cut the run short (0 when
    /// the queue drained naturally).
    pub final_running: u64,
    /// Whether the ledger was idle after teardown — commit/release stayed
    /// exact inverses over the whole run.
    pub ledger_idle_at_end: bool,
    /// Reconfiguration counters; `Some` exactly when the run was
    /// configured with a reconfiguration policy.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub reconfiguration: Option<ReconfigurationReport>,
    /// Survivability counters; `Some` exactly when the run injected
    /// faults.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub survivability: Option<SurvivabilityReport>,
    /// Template-library counters; `Some` exactly when the run admitted
    /// through a [`TemplatedMapper`](rtsm_core::TemplatedMapper). Attached
    /// by the caller after the run (the event loop itself is
    /// template-agnostic).
    #[serde(skip_serializing_if = "Option::is_none")]
    pub templates: Option<TemplateReport>,
}

impl SimReport {
    /// Blocked admission attempts ÷ total admission attempts, as a float
    /// (derived from the stored integers; not itself serialized).
    pub fn blocking_probability(&self) -> f64 {
        self.blocking_permille as f64 / 1000.0
    }

    /// Instances that *left* at a blocked mode switch — the terminal
    /// outcome the conservation law counts (`departed + switch-lost +
    /// evicted + still-running == admitted`). Under a reconfiguration
    /// policy a blocked switch keeps the instance running
    /// (`mode_switches_survived`), so only the remainder is lost.
    pub fn mode_switch_lost(&self) -> u64 {
        let survived = self
            .reconfiguration
            .as_ref()
            .map_or(0, |r| r.mode_switches_survived);
        self.mode_switch_blocked - survived
    }

    /// The per-sample fragmentation figures, sorted ascending — the
    /// percentile input for cross-run aggregation. Empty when the run
    /// did not track fragmentation or produced no samples, so callers
    /// can distinguish "untracked" from "fragmentation 0" without
    /// risking an empty-percentile panic.
    pub fn frag_permille_sorted(&self) -> Vec<u32> {
        let mut frag: Vec<u32> = self
            .samples
            .iter()
            .filter_map(|s| s.frag_permille)
            .collect();
        frag.sort_unstable();
        frag
    }

    /// The energy integral per admitted application, in pJ·ticks;
    /// `None` when nothing was admitted (a horizon can elapse before
    /// the first arrival), never a division by zero.
    pub fn energy_pj_ticks_per_admitted(&self) -> Option<u64> {
        self.energy_pj_ticks.checked_div(self.admitted)
    }

    /// Mean platform slot utilization over all samples, in permille.
    pub fn mean_slots_permille(&self) -> u64 {
        if self.samples.is_empty() {
            return 0;
        }
        let total: u64 = self
            .samples
            .iter()
            .map(|s| u64::from(s.slots_permille))
            .sum();
        total / self.samples.len() as u64
    }
}

/// The most occupancy samples a run may nominally record before
/// [`check_sample_growth`] refuses it: about 170 times what the largest
/// committed spec records (`specs/ci_smoke_mixed_1m.json`, 12 000 per
/// trial) and some 100 MB of [`UtilizationSample`]s in memory.
pub const MAX_NOMINAL_SAMPLES: u64 = 2_000_000;

/// Refuses a run whose occupancy series would outgrow
/// [`MAX_NOMINAL_SAMPLES`]. The collector records one sample per
/// `sample_interval` (clamped to ≥ 1 tick) from tick 0 to the last event,
/// so what bounds the series is the run's nominal length: `arrivals` mean
/// gaps, then a tail of `100 × tail` ticks for whatever the last arrival
/// leaves in the queue. `tail` is the mean holding time — an exponential
/// draw stays below 37 means — or, with faults on, the larger of it, the
/// MTTF and the MTTR (the pending failure and its repair are processed
/// before the queue drains). All
/// arithmetic saturates, so every `u64` input gets an answer.
///
/// This is the check the front doors share (`simulate`'s flag validation,
/// `ExperimentSpec::validate` in `rtsm_exp`); [`run_sim`](crate::run_sim)
/// itself trusts its caller.
///
/// # Errors
///
/// One line stating the nominal sample count and the limit; the caller
/// prefixes the flag or spec field at fault.
pub fn check_sample_growth(
    arrivals: u64,
    mean_gap: SimTime,
    tail: SimTime,
    sample_interval: SimTime,
) -> Result<(), String> {
    let ticks = arrivals
        .saturating_mul(mean_gap)
        .saturating_add(tail.saturating_mul(100));
    let samples = ticks / sample_interval.max(1);
    if samples > MAX_NOMINAL_SAMPLES {
        return Err(format!(
            "a run of ~{ticks} ticks records ~{samples} occupancy samples, over the limit of \
             {MAX_NOMINAL_SAMPLES}; shorten it or raise the sample interval"
        ));
    }
    Ok(())
}

/// Which admission attempt a manager result answers: an arriving instance
/// (its reconfiguration retry included) or a running one's mode switch.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Attempt {
    Arrival,
    Switch,
}

/// Keeps the run's books in the [`SimReport`] it seals: every intake
/// writes the fields that will carry its figures, and [`finish`] fills in
/// what only the end of the run knows.
///
/// [`finish`]: MetricsCollector::finish
#[derive(Debug, Clone)]
pub struct MetricsCollector {
    sample_interval: SimTime,
    track_fragmentation: bool,
    /// `None` once the next boundary would lie beyond the last tick.
    next_sample: Option<SimTime>,
    /// Whether the arrival last booked landed while a resource was
    /// quarantined (read only on runs with a survivability section).
    degraded: bool,
    /// The report so far; its `end_time` is the instant last advanced to.
    report: SimReport,
}

impl MetricsCollector {
    /// A collector sampling occupancy every `sample_interval` ticks
    /// (clamped to ≥ 1), without the fragmentation figure or the optional
    /// report sections.
    pub fn new(sample_interval: SimTime) -> Self {
        MetricsCollector {
            sample_interval: sample_interval.max(1),
            track_fragmentation: false,
            next_sample: Some(0),
            degraded: false,
            report: SimReport::default(),
        }
    }

    /// The collector of a run of `config`: its sample interval and
    /// fragmentation figure, plus the reconfiguration section (policy
    /// label, λ) and the survivability section (MTTF, MTTR) exactly when
    /// the config enables them.
    pub(crate) fn for_config(config: &SimConfig) -> Self {
        let mut metrics = MetricsCollector::new(config.sample_interval);
        metrics.track_fragmentation = config.track_fragmentation;
        let policy = config.reconfiguration.as_ref();
        metrics.report.reconfiguration = policy.map(|policy| ReconfigurationReport {
            policy: policy.admission.label(),
            lambda_permille: policy.objective.lambda_permille,
            ..ReconfigurationReport::default()
        });
        metrics.report.survivability = config.faults.as_ref().map(|faults| SurvivabilityReport {
            mttf: faults.mttf,
            mttr: faults.mttr,
            ..SurvivabilityReport::default()
        });
        metrics
    }

    /// Advances virtual time to `now` given the state that held since the
    /// previous event: integrates the energy and emits any due occupancy
    /// samples. Call *before* applying the event at `now`.
    pub fn advance(&mut self, now: SimTime, util: &Utilization, running_energy_pj: u64) {
        self.advance_with(now, running_energy_pj, || *util);
    }

    /// [`advance`](MetricsCollector::advance) for callers that must
    /// *compute* the occupancy: `utilization` runs only when a sample
    /// boundary was crossed (once, however many samples are due), so the
    /// common event between two boundaries pays nothing for it.
    pub(crate) fn advance_with(
        &mut self,
        now: SimTime,
        running_energy_pj: u64,
        utilization: impl FnOnce() -> Utilization,
    ) {
        debug_assert!(now >= self.report.end_time, "virtual time is monotone");
        let due = |next: Option<SimTime>| next.filter(|&at| at <= now);
        if due(self.next_sample).is_some() {
            let util = utilization();
            while let Some(at) = due(self.next_sample) {
                self.report.samples.push(UtilizationSample::capture(
                    at,
                    &util,
                    running_energy_pj,
                    self.track_fragmentation,
                ));
                self.next_sample = at.checked_add(self.sample_interval);
            }
        }
        let dt = now - self.report.end_time;
        self.report.energy_pj_ticks = self
            .report
            .energy_pj_ticks
            .saturating_add(running_energy_pj.saturating_mul(dt));
        self.report.end_time = now;
    }

    /// An arrival. `degraded` — is any resource quarantined? — is asked
    /// only on runs with a survivability section, and its answer classifies
    /// the arrival and, if [`refused`](Self::refused), its blocking.
    pub(crate) fn arrival(&mut self, degraded: impl FnOnce() -> bool) {
        self.report.arrivals += 1;
        if let Some(s) = &mut self.report.survivability {
            self.degraded = degraded();
            s.degraded_arrivals += u64::from(self.degraded);
            s.healthy_arrivals += u64::from(!self.degraded);
        }
    }

    /// A running instance attempts a mode switch.
    pub(crate) fn switch_attempt(&mut self) {
        self.report.mode_switch_attempts += 1;
    }

    /// An admission of catalog entry `app` under `outcome`, after which
    /// `running` applications run.
    pub(crate) fn admitted(
        &mut self,
        attempt: Attempt,
        app: &str,
        outcome: &MappingOutcome,
        running: usize,
    ) {
        let r = &mut self.report;
        match attempt {
            Attempt::Arrival => r.admitted += 1,
            Attempt::Switch => r.mode_switch_admitted += 1,
        }
        *r.admitted_by_app.entry(app.to_string()).or_insert(0) += 1;
        r.evaluated_assignments += outcome.evaluated;
        r.refinement_attempts += outcome.attempts as u64;
        r.peak_running = r.peak_running.max(running as u64);
    }

    /// A definitive refusal. A refused arrival is blocked in the regime
    /// its [`arrival`](Self::arrival) found; a refused switch under a
    /// reconfiguration policy left its instance running under the old
    /// configuration, so it also counts as survived.
    pub(crate) fn refused(&mut self, attempt: Attempt, err: &AdmissionError) {
        self.deferred(err); // the effort, booked as for a deferred refusal
        let (report, degraded) = (&mut self.report, self.degraded);
        *report.rejection_histogram.entry(err.kind()).or_insert(0) += 1;
        match attempt {
            Attempt::Arrival => {
                report.blocked += 1;
                if let Some(s) = &mut report.survivability {
                    s.degraded_blocked += u64::from(degraded);
                    s.healthy_blocked += u64::from(!degraded);
                }
            }
            Attempt::Switch => {
                report.mode_switch_blocked += 1;
                if let Some(r) = &mut report.reconfiguration {
                    r.mode_switches_survived += 1;
                }
            }
        }
    }

    /// A refused arrival whose fate a same-instant reconfiguration retry
    /// decides: the refinement effort was really spent and is booked now;
    /// blocked-or-recovered and the histogram wait for the retry.
    pub(crate) fn deferred(&mut self, err: &AdmissionError) {
        if let AdmissionError::Rejected(MapError::NoFeasibleMapping { attempts, .. }) = err {
            self.report.refinement_attempts += *attempts as u64;
        }
    }

    /// A retry that admitted a blocked arrival (`app` under `outcome`,
    /// `running` applications after it): the arrival's admission plus the
    /// plan search's effort and committed migrations.
    pub(crate) fn recovered(
        &mut self,
        app: &str,
        outcome: &MappingOutcome,
        running: usize,
        done: &Reconfiguration,
    ) {
        self.admitted(Attempt::Arrival, app, outcome, running);
        if let Some(r) = &mut self.report.reconfiguration {
            r.reconfigure_attempts += 1;
            r.admissions_recovered += 1;
            r.plans_tried += done.plans_tried;
            r.migrations_attempted += done.migrations_attempted;
            r.migrations_committed += done.migrations.len() as u64;
            r.migration_energy_pj += done.migration_energy_pj;
            r.plans_refused += done.plans_refused;
        }
    }

    /// A retry that could not admit its arrival: the plan search's effort
    /// and the arrival's definitive blocking, in the regime `degraded`
    /// reports once the retry is over.
    pub(crate) fn retry_failed(
        &mut self,
        failure: &ReconfigurationFailure,
        degraded: impl FnOnce() -> bool,
    ) {
        if let Some(r) = &mut self.report.reconfiguration {
            r.reconfigure_attempts += 1;
            r.plans_tried += failure.plans_tried;
            r.migrations_attempted += failure.migrations_attempted;
            r.plans_refused += failure.plans_refused;
        }
        if self.report.survivability.is_some() {
            self.degraded = degraded();
        }
        self.refused(Attempt::Arrival, &failure.error);
    }

    /// A departure that released a running instance.
    pub(crate) fn departed(&mut self) {
        self.report.departures += 1;
    }

    /// An injected failure (tile or link, read from `evacuation`) and what
    /// its evacuation relocated, evicted and cost.
    pub(crate) fn evacuated(&mut self, evacuation: &Evacuation) {
        if let Some(s) = &mut self.report.survivability {
            match evacuation.failure {
                FailureEvent::Tile(_) => s.tile_failures += 1,
                FailureEvent::Link(_) => s.link_failures += 1,
            }
            for app in &evacuation.evacuated {
                s.apps_evacuated += 1;
                s.processes_moved += app.processes_moved as u64;
            }
            s.apps_evicted += evacuation.evicted.len() as u64;
            s.evacuation_energy_pj += evacuation.migration_energy_pj;
        }
    }

    /// A processed repair.
    pub(crate) fn repaired(&mut self) {
        if let Some(s) = &mut self.report.survivability {
            s.repairs += 1;
        }
    }

    /// Seals the collector into its [`SimReport`]: names the run and fills
    /// in the figures derived from the totals.
    pub fn finish(
        self,
        algorithm: &str,
        seed: u64,
        final_running: u64,
        ledger_idle_at_end: bool,
    ) -> SimReport {
        let mut report = self.report;
        report.algorithm = algorithm.to_string();
        report.seed = seed;
        report.final_running = final_running;
        report.ledger_idle_at_end = ledger_idle_at_end;
        let attempts = report.arrivals + report.mode_switch_attempts;
        let blocked = report.blocked + report.mode_switch_blocked;
        report.blocking_permille = (blocked * 1000).checked_div(attempts).unwrap_or(0);
        if let Some(s) = &mut report.survivability {
            s.mean_recovery_ticks = if s.repairs > 0 { s.mttr } else { 0 };
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idle_util() -> Utilization {
        Utilization {
            used_slots: 0,
            total_slots: 10,
            used_memory_bytes: 0,
            total_memory_bytes: 1000,
            used_link_bandwidth: 0,
            total_link_bandwidth: 1000,
            running_apps: 0,
            largest_free_slot_region: 10,
            fragmentation_permille: 0,
            failed_tiles: 0,
            degraded_permille: 0,
        }
    }

    #[test]
    fn energy_integral_weights_by_elapsed_ticks() {
        let mut m = MetricsCollector::new(1_000_000); // no samples in range
        let util = idle_util();
        m.advance(10, &util, 0); // nothing ran yet
        m.advance(30, &util, 500); // 500 pJ/period over 20 ticks
        m.advance(35, &util, 100); // 100 pJ/period over 5 ticks
        let report = m.finish("test", 0, 0, true);
        assert_eq!(report.energy_pj_ticks, 500 * 20 + 100 * 5);
        assert_eq!(report.end_time, 35);
    }

    #[test]
    fn samples_land_on_interval_boundaries() {
        let mut m = MetricsCollector::new(10);
        let util = idle_util();
        m.advance(25, &util, 0);
        let report = m.finish("test", 0, 0, true);
        let times: Vec<SimTime> = report.samples.iter().map(|s| s.time).collect();
        assert_eq!(times, vec![0, 10, 20]);
    }

    #[test]
    fn advancing_to_the_last_tick_terminates() {
        // The boundary after 3 × (MAX / 3) does not fit a u64: sampling
        // stops there instead of wrapping back below `now` and spinning.
        let mut m = MetricsCollector::new(u64::MAX / 3);
        let util = idle_util();
        m.advance(u64::MAX, &util, 7);
        m.advance(u64::MAX, &util, 7);
        let report = m.finish("test", 0, 0, true);
        let times: Vec<SimTime> = report.samples.iter().map(|s| s.time).collect();
        let third = u64::MAX / 3;
        assert_eq!(times, vec![0, third, 2 * third, 3 * third]);
        assert_eq!(report.end_time, u64::MAX);
        assert_eq!(report.energy_pj_ticks, u64::MAX, "the integral saturates");
    }

    #[test]
    fn sample_growth_is_bounded_at_the_doors() {
        // The largest committed spec's cell, and the benchmark's sweep.
        assert!(check_sample_growth(60_000, 2_000, 2_000, 10_000).is_ok());
        assert!(check_sample_growth(6_250, 2_000, 2_000, 10_000).is_ok());
        // Exactly at the limit passes; one interval more does not.
        let limit = MAX_NOMINAL_SAMPLES;
        assert!(check_sample_growth(limit, 10, 0, 10).is_ok());
        assert!(check_sample_growth(limit + 1, 10, 0, 10).is_err());
        // A zero interval is the collector's 1-tick clamp, not a division
        // by zero, and hostile magnitudes saturate instead of wrapping.
        assert!(check_sample_growth(limit + 1, 1, 0, 0).is_err());
        for (arrivals, gap, tail) in [
            (50, 1_000_000_000_000, 2_000),
            (50, u64::MAX, 2_000),
            (50, 500, u64::MAX),
            (u64::MAX, u64::MAX, u64::MAX),
        ] {
            let err = check_sample_growth(arrivals, gap, tail, 10_000).unwrap_err();
            assert!(err.contains("occupancy samples"), "{err}");
        }
    }

    fn no_feasible_mapping(attempts: usize) -> AdmissionError {
        AdmissionError::Rejected(MapError::NoFeasibleMapping {
            attempts,
            last_feedback: Vec::new(),
        })
    }

    #[test]
    fn blocking_permille_covers_arrivals_and_switches() {
        let mut m = MetricsCollector::new(1);
        for _ in 0..3 {
            m.arrival(|| unreachable!("no survivability section"));
        }
        let outcome = MappingOutcome {
            mapping: rtsm_core::Mapping::default(),
            buffers: Vec::new(),
            energy_pj: 0,
            communication_hops: 0,
            feasible: true,
            evaluated: 10,
            attempts: 1,
            achieved_period: (1, 1),
            latency_ps: None,
            trace: None,
        };
        m.admitted(Attempt::Arrival, "a", &outcome, 1);
        m.refused(Attempt::Arrival, &no_feasible_mapping(2));
        let unmappable = MapError::Unmappable {
            process: "p".to_string(),
        };
        m.refused(Attempt::Arrival, &AdmissionError::Rejected(unmappable));
        m.switch_attempt();
        m.refused(Attempt::Switch, &no_feasible_mapping(1));
        let report = m.finish("test", 0, 0, true);
        // 3 blocked out of 4 attempts.
        assert_eq!(report.blocking_permille, 750);
        assert_eq!(report.rejection_histogram.values().sum::<u64>(), 3);
        assert_eq!(report.refinement_attempts, 1 + 2 + 1);
    }

    #[test]
    fn zero_arrival_runs_seal_a_valid_report() {
        // A horizon that elapses before the first arrival: time advances,
        // but no admission attempt is ever recorded. Everything derived
        // by division must come out as 0 or `None`, never panic.
        let mut m = MetricsCollector::new(10);
        m.advance(25, &idle_util(), 0);
        let report = m.finish("test", 0, 0, true);
        assert_eq!(report.arrivals, 0);
        assert_eq!(report.admitted, 0);
        assert_eq!(report.blocking_permille, 0);
        assert_eq!(report.energy_pj_ticks_per_admitted(), None);
        // Fragmentation was not tracked: the sorted figures are empty
        // (distinct from "tracked and zero").
        assert!(!report.samples.is_empty());
        assert!(report.frag_permille_sorted().is_empty());
        assert_eq!(report.mean_slots_permille(), 0);
    }

    #[test]
    fn aggregation_hooks_report_tracked_runs() {
        let mut m = MetricsCollector::for_config(&SimConfig {
            sample_interval: 10,
            track_fragmentation: true,
            ..SimConfig::default()
        });
        let mut util = idle_util();
        util.fragmentation_permille = 400;
        m.advance(15, &util, 0);
        let mut report = m.finish("test", 0, 0, true);
        report.admitted = 4;
        report.energy_pj_ticks = 100;
        assert_eq!(report.frag_permille_sorted(), vec![400, 400]);
        assert_eq!(report.energy_pj_ticks_per_admitted(), Some(25));
    }

    #[test]
    fn survivability_section_is_omitted_when_faults_are_off() {
        let mut m = MetricsCollector::new(10);
        m.advance(5, &idle_util(), 0);
        let report = m.finish("test", 0, 0, true);
        assert!(report.survivability.is_none());
        let json = serde_json::to_string(&report).expect("serialize");
        assert!(
            !json.contains("survivability"),
            "fault-free reports must not even mention the section"
        );
    }

    #[test]
    fn survivability_counters_aggregate_and_average_recovery() {
        let mut m = MetricsCollector::for_config(&SimConfig {
            sample_interval: 1_000_000,
            faults: Some(crate::FaultConfig {
                mttf: 50_000,
                mttr: 4_000,
                evacuation: rtsm_core::EvacuationPolicy,
            }),
            ..SimConfig::default()
        });
        m.advance(5, &idle_util(), 0);
        // Handles and link ids have no public constructor; their wire
        // form is the bare index.
        let handle: rtsm_core::AppHandle = serde_json::from_str("1").expect("a handle");
        let moved = |processes_moved, migration_energy_pj| rtsm_core::EvacuatedApp {
            handle,
            processes_moved,
            migration_energy_pj,
        };
        m.evacuated(&Evacuation {
            failure: FailureEvent::Tile(rtsm_platform::TileId::from_index(0)),
            victims: vec![handle; 3],
            evacuated: vec![moved(1, 100), moved(2, 300)],
            evicted: vec![handle],
            migration_energy_pj: 400,
        });
        m.evacuated(&Evacuation {
            failure: FailureEvent::Link(serde_json::from_str("0").expect("a link")),
            victims: Vec::new(),
            evacuated: Vec::new(),
            evicted: Vec::new(),
            migration_energy_pj: 0,
        });
        m.repaired();
        m.repaired();
        m.arrival(|| true);
        m.refused(Attempt::Arrival, &no_feasible_mapping(1));
        m.arrival(|| false);
        let report = m.finish("test", 0, 0, true);
        let s = report.survivability.as_ref().expect("counters enabled");
        assert_eq!((s.mttf, s.mttr), (50_000, 4_000));
        assert_eq!((s.tile_failures, s.link_failures, s.repairs), (1, 1, 2));
        assert_eq!((s.apps_evacuated, s.apps_evicted), (2, 1));
        assert_eq!((s.processes_moved, s.evacuation_energy_pj), (3, 400));
        assert_eq!(s.mean_recovery_ticks, 4_000);
        assert_eq!((s.degraded_arrivals, s.degraded_blocked), (1, 1));
        assert_eq!((s.healthy_arrivals, s.healthy_blocked), (1, 0));
        let json = serde_json::to_string(&report).expect("serialize");
        let back: SimReport = serde_json::from_str(&json).expect("round-trips");
        assert_eq!(back, report);
    }

    #[test]
    fn permille_is_safe_on_zero_totals() {
        assert_eq!(permille(5, 0), 0);
        assert_eq!(permille(1, 4), 250);
    }
}
