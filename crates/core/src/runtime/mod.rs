//! The run-time resource manager: multi-application lifecycles over one
//! shared occupancy ledger.
//!
//! The paper's motivation (§1.3) is that "at run-time when starting an
//! application, the actual set of applications already running is known,
//! allowing for a spatial mapping based on actual, rather than worst case
//! information". [`RuntimeManager`] is that run-time component: it owns the
//! [`PlatformState`] ledger, admits applications by mapping them with a
//! pluggable [`MappingAlgorithm`] against the *actual* occupancy, commits
//! admitted mappings atomically, and releases them again on
//! [`stop`](RuntimeManager::stop).
//!
//! Running applications are identified by [`AppHandle`]s — stable, unique
//! tokens that stay valid however many other applications start or stop in
//! between (unlike positional indices, which shift).
//!
//! A blocked arrival is refused once: a manager that serves retries keeps
//! the refusal [`start`](RuntimeManager::start) returned until its next
//! `&mut self` call, and
//! [`start_with_reconfiguration`](RuntimeManager::start_with_reconfiguration)
//! for the same `Arc`ed specification takes it over instead of asking the
//! algorithm again. The plans it then evaluates, and the attempts of
//! [`evacuate`](RuntimeManager::evacuate), map only what can fit: a sound
//! certificate ([`Demand::cannot_fit`]) turns a placement away before the
//! algorithm runs when the application's processes cannot be assigned to
//! distinct free compute slots.
//!
//! # Example
//!
//! ```
//! use rtsm_app::hiperlan2::{hiperlan2_receiver, Hiperlan2Mode};
//! use rtsm_core::mapper::SpatialMapper;
//! use rtsm_core::runtime::RuntimeManager;
//! use rtsm_platform::paper::paper_platform;
//!
//! let mut manager = RuntimeManager::new(paper_platform(), SpatialMapper::default());
//! let handle = manager
//!     .start(hiperlan2_receiver(Hiperlan2Mode::Qpsk34))
//!     .expect("the paper's case study is admitted");
//! assert_eq!(manager.n_running(), 1);
//! // A second receiver does not fit while the first holds both MONTIUMs…
//! assert!(manager.start(hiperlan2_receiver(Hiperlan2Mode::Qpsk34)).is_err());
//! // …until the first one stops.
//! manager.stop(handle).expect("running application stops");
//! assert!(manager.start(hiperlan2_receiver(Hiperlan2Mode::Qpsk34)).is_ok());
//! ```

mod error;
mod fit;
mod plan;
mod policy;

pub use error::{
    AdmissionError, AdmissionErrorKind, ReconfigurationFailure, RuntimeError, RuntimeErrorKind,
    StopAllError,
};
pub use fit::Demand;
pub use policy::{
    AdmissionPolicy, EvacuationPolicy, ReconfigurationObjective, ReconfigurationPolicy,
};

use crate::algorithm::{MappingAlgorithm, MappingOutcome};
use crate::constraints::MappingConstraints;
use crate::cost::CostModel;
use crate::error::MapError;
use crate::mapping::RouteBinding;
use plan::{Placement, Plan, StageError};
use rtsm_app::ApplicationSpec;
use rtsm_obs as obs;
use rtsm_platform::{LinkId, Platform, PlatformState, PlatformTransaction, TileId};
use serde::{Deserialize, Serialize};
use std::cell::OnceCell;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// A stable identifier of one running application within a
/// [`RuntimeManager`]. Handles are unique across the manager's lifetime
/// and never reused, so a stale handle fails cleanly instead of silently
/// addressing a different application.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct AppHandle(u64);

impl AppHandle {
    /// The raw handle value (for logs and serialized scenario records).
    pub fn id(&self) -> u64 {
        self.0
    }
}

impl fmt::Display for AppHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "app#{}", self.0)
    }
}

/// One committed migration: a running application released its resources
/// and was re-admitted elsewhere inside the same transaction.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Migration {
    /// The migrated application (its handle is unchanged).
    pub handle: AppHandle,
    /// The move cost that ranked it: its mapping's communication hops
    /// before the move ([`CostModel::HopCount`]).
    pub move_cost: u64,
    /// Processes whose tile actually changed.
    pub processes_moved: usize,
    /// Modelled state-transfer energy of the move, in picojoules.
    pub energy_pj: u64,
}

/// A successful [`RuntimeManager::start_with_reconfiguration`]: the new
/// application's handle plus what (if anything) had to move to admit it,
/// and how the committed plan scored under the policy's
/// [`ReconfigurationObjective`].
#[derive(Debug, Clone, PartialEq)]
pub struct Reconfiguration {
    /// Handle of the newly admitted application.
    pub handle: AppHandle,
    /// Migrations committed to make room (empty when plain admission
    /// succeeded).
    pub migrations: Vec<Migration>,
    /// Total modelled migration energy of the committed plan, in
    /// picojoules.
    pub migration_energy_pj: u64,
    /// Total per-period energy of every running application after the
    /// commit (the arriving application included), in picojoules.
    pub steady_state_energy_pj: u64,
    /// The committed plan's [`ReconfigurationObjective::score`]. For a
    /// plain (no-migration) admission this is the score of the new steady
    /// state with zero transfer energy.
    pub objective: u64,
    /// Objective scores of *every feasible plan enumerated*, in
    /// enumeration order — including plans the admission policy refused.
    /// Under [`AdmissionPolicy::AlwaysAdmit`] the committed plan's
    /// [`objective`](Reconfiguration::objective) is the minimum of this
    /// list; empty when plain admission succeeded.
    pub plan_objectives: Vec<u64>,
    /// Migration plans evaluated (0 when plain admission succeeded).
    pub plans_tried: u64,
    /// Victim re-mappings attempted across all plans, including plans that
    /// were not committed.
    pub migrations_attempted: u64,
    /// Feasible plans the [`AdmissionPolicy`] refused to commit.
    pub plans_refused: u64,
}

/// A resource failure the manager can react to: one tile or one link.
///
/// Failures are *events*, not states — the corresponding state lives in
/// the ledger's health layer ([`PlatformState::is_tile_failed`] /
/// [`PlatformState::is_link_failed`]), which
/// [`RuntimeManager::evacuate`] sets and [`RuntimeManager::repair`]
/// clears.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum FailureEvent {
    /// A tile failed: its compute slots, memory, cycles and NI bandwidth
    /// are quarantined. (Its *router* keeps forwarding — the mesh loses
    /// processing capacity, not connectivity.)
    Tile(TileId),
    /// A link failed: routes through it are invalid and its bandwidth is
    /// quarantined.
    Link(LinkId),
}

impl fmt::Display for FailureEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FailureEvent::Tile(t) => write!(f, "tile#{}", t.index()),
            FailureEvent::Link(l) => write!(f, "link#{}", l.index()),
        }
    }
}

/// One victim successfully re-placed by [`RuntimeManager::evacuate`]; its
/// handle is unchanged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EvacuatedApp {
    /// The relocated application.
    pub handle: AppHandle,
    /// Processes whose tile changed (0 for a pure re-route around a
    /// failed link).
    pub processes_moved: usize,
    /// Modelled state-transfer energy of the relocation, in picojoules.
    pub migration_energy_pj: u64,
}

/// What one [`RuntimeManager::evacuate`] call did: which applications the
/// failure hit, which were re-placed, and which had to be *evicted* — a
/// terminal outcome distinct from blocking (the application was running
/// and lost its resources, it was not refused admission).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Evacuation {
    /// The failure that triggered the evacuation.
    pub failure: FailureEvent,
    /// Every running application the failure touched, in handle
    /// (admission) order — `evacuated` ∪ `evicted`, disjointly.
    pub victims: Vec<AppHandle>,
    /// Victims re-placed onto healthy resources (handles unchanged).
    pub evacuated: Vec<EvacuatedApp>,
    /// Victims that could not be re-placed under the policy: stopped, all
    /// their resources released.
    pub evicted: Vec<AppHandle>,
    /// Total modelled state-transfer energy of all relocations, in
    /// picojoules.
    pub migration_energy_pj: u64,
}

/// One admitted application: its specification and the mapping it runs
/// under.
///
/// The specification is held behind an [`Arc`] so admission paths that
/// draw the same spec repeatedly (catalogs, simulators) share one copy
/// instead of deep-cloning the graph and implementation library per
/// arrival.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunningApp {
    /// The application specification.
    pub spec: Arc<ApplicationSpec>,
    /// The committed mapping outcome.
    pub outcome: MappingOutcome,
}

/// Aggregate occupancy figures, for dashboards and admission policies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Utilization {
    /// Compute slots in use across all tiles.
    pub used_slots: u32,
    /// Total compute slots of the platform.
    pub total_slots: u32,
    /// Bytes of tile memory in use (implementations + buffers).
    pub used_memory_bytes: u64,
    /// Total tile memory of the platform.
    pub total_memory_bytes: u64,
    /// Link bandwidth unavailable, words/second summed over directed
    /// links: claimed bandwidth, plus the full capacity of links currently
    /// quarantined by the health layer (a failed link has residual 0).
    pub used_link_bandwidth: u64,
    /// Total link bandwidth of the platform.
    pub total_link_bandwidth: u64,
    /// Number of running applications.
    pub running_apps: usize,
    /// Free compute slots in the largest contiguous free region (tiles
    /// with free slots whose routers are mesh-adjacent).
    pub largest_free_slot_region: u32,
    /// How fragmented the free compute capacity is, in permille: 0‰ when
    /// all free slots form one contiguous region, rising towards 1000‰ as
    /// they shatter into islands (see
    /// [`Fragmentation`](rtsm_platform::Fragmentation)). Defragmentation
    /// by migration ([`RuntimeManager::start_with_reconfiguration`]) is
    /// exactly the lever that drives this back down.
    pub fragmentation_permille: u32,
    /// Tiles currently quarantined by the health layer (failed, not yet
    /// repaired).
    pub failed_tiles: u32,
    /// Quarantined compute capacity in permille of the platform's total
    /// slots: 0‰ when fully healthy, 1000‰ when every tile has failed.
    /// Unlike the usage figures this counts *capacity* — a failed tile's
    /// slots are degraded whether or not they were in use.
    pub degraded_permille: u32,
}

impl Utilization {
    /// `true` when nothing is running and no resource is in use — the
    /// occupancy of a freshly initialised ledger. Simulation teardown and
    /// scenario replay use this to assert that commit/release are exact
    /// inverses over a whole run.
    pub fn is_idle(&self) -> bool {
        self.running_apps == 0
            && self.used_slots == 0
            && self.used_memory_bytes == 0
            && self.used_link_bandwidth == 0
    }
}

/// The stateful run-time manager (see the [module docs](self)).
///
/// Generic over the mapping algorithm; use a concrete algorithm type for
/// static dispatch or `Box<dyn MappingAlgorithm>` to choose at run time:
///
/// ```
/// use rtsm_core::algorithm::MappingAlgorithm;
/// use rtsm_core::mapper::SpatialMapper;
/// use rtsm_core::runtime::RuntimeManager;
/// use rtsm_platform::paper::paper_platform;
///
/// let algorithm: Box<dyn MappingAlgorithm> = Box::new(SpatialMapper::default());
/// let manager = RuntimeManager::new(paper_platform(), algorithm);
/// assert_eq!(manager.algorithm().name(), "hierarchical heuristic (paper)");
/// ```
#[derive(Debug, Clone)]
pub struct RuntimeManager<A: MappingAlgorithm> {
    platform: Platform,
    algorithm: A,
    state: PlatformState,
    running: BTreeMap<AppHandle, RunningApp>,
    next_handle: u64,
    /// The refusal the last call returned, if that call was a
    /// [`start`](RuntimeManager::start): every `&mut self` entry point
    /// clears or overwrites it, so it only ever describes *this* ledger.
    /// The `Arc` keeps the refused specification from being mutated
    /// (`Arc::get_mut` fails while it is held).
    last_refusal: Option<(Arc<ApplicationSpec>, AdmissionError)>,
    /// Whether `start` keeps its refusals: set by the first
    /// [`start_with_reconfiguration`](RuntimeManager::start_with_reconfiguration),
    /// so a manager never asked to retry copies no error.
    serves_retries: bool,
}

impl<A: MappingAlgorithm> RuntimeManager<A> {
    /// A manager over an empty `platform` using `algorithm` for admission.
    pub fn new(platform: Platform, algorithm: A) -> Self {
        let state = platform.initial_state();
        RuntimeManager::with_state(platform, algorithm, state)
    }

    /// A manager starting from a pre-occupied ledger (e.g. resources held
    /// by components outside this manager's control).
    pub fn with_state(platform: Platform, algorithm: A, state: PlatformState) -> Self {
        RuntimeManager {
            platform,
            algorithm,
            state,
            running: BTreeMap::new(),
            next_handle: 0,
            last_refusal: None,
            serves_retries: false,
        }
    }

    /// The managed platform.
    pub fn platform(&self) -> &Platform {
        &self.platform
    }

    /// The admission algorithm.
    pub fn algorithm(&self) -> &A {
        &self.algorithm
    }

    /// The current occupancy ledger.
    pub fn state(&self) -> &PlatformState {
        &self.state
    }

    /// Attempts to start `spec`: maps it against the **actual** current
    /// occupancy and, if a feasible mapping exists, commits its
    /// reservations atomically and returns a handle for later
    /// [`stop`](RuntimeManager::stop).
    ///
    /// On any error the ledger is unchanged (rollback-on-failure).
    ///
    /// The stored record keeps what the lifecycle needs (mapping, routes,
    /// buffers, scores); the search trace is dropped so a long-lived manager
    /// does not accumulate per-admission search logs. Map with the algorithm
    /// directly when it is wanted.
    ///
    /// # Errors
    ///
    /// * [`AdmissionError::Rejected`] — no feasible mapping right now;
    /// * [`AdmissionError::CommitFailed`] — the mapping could not be
    ///   committed (only possible if the ledger was mutated externally).
    pub fn start(
        &mut self,
        spec: impl Into<Arc<ApplicationSpec>>,
    ) -> Result<AppHandle, AdmissionError> {
        let _span = obs::span(obs::Span::Admission);
        let spec = spec.into();
        let unconstrained = MappingConstraints::none();
        match self.place(Placement::new(None, &spec, &unconstrained)) {
            Ok((handle, _)) => Ok(handle),
            Err(e) => {
                let error = e.admission().expect("an arrival releases nothing");
                if self.serves_retries {
                    self.last_refusal = Some((spec, error.clone()));
                }
                Err(error)
            }
        }
    }

    /// Stops the application behind `handle`, releasing every resource its
    /// admission committed, and returns its record.
    ///
    /// # Errors
    ///
    /// * [`RuntimeError::UnknownHandle`] — `handle` is not running;
    /// * [`RuntimeError::ReleaseFailed`] — the ledger no longer holds the
    ///   committed reservations (external mutation). The release is rolled
    ///   back and the application stays registered, so the ledger is
    ///   exactly as before the call.
    pub fn stop(&mut self, handle: AppHandle) -> Result<RunningApp, RuntimeError> {
        self.last_refusal = None;
        let app = self
            .running
            .get(&handle)
            .ok_or(RuntimeError::UnknownHandle(handle))?;
        app.outcome
            .release(&app.spec, &self.platform, &mut self.state)
            .map_err(RuntimeError::ReleaseFailed)?;
        Ok(self.running.remove(&handle).expect("handle checked above"))
    }

    /// The ungated entry points, `start` and `switch`: stages a plan of one
    /// placement, commits it and adopts it. On any failure the dropped transaction restores the
    /// ledger and no record is touched.
    fn place(
        &mut self,
        placement: Placement<'_>,
    ) -> Result<(AppHandle, Option<MappingOutcome>), StageError> {
        self.last_refusal = None;
        let mut plan = Plan::of(placement);
        let mut tx = PlatformTransaction::begin(&self.platform, &mut self.state);
        plan.stage(&self.algorithm, &self.running, &mut tx)?;
        tx.commit();
        Ok(self.adopt(plan.first))
    }

    /// Attempts to start `spec`; when plain admission fails, searches
    /// bounded migration plans that *defragment* the platform: up to
    /// [`ReconfigurationPolicy::max_migrations`] running applications —
    /// enumerated cheapest-to-move first, ranked by the hop count of their
    /// mapping ([`CostModel::HopCount`]) — are released inside one
    /// transaction, the arriving application is mapped against the freed
    /// occupancy, and every victim is re-mapped after it.
    ///
    /// Unlike a first-feasible search, *every* plan within
    /// [`ReconfigurationPolicy::max_plans`] is evaluated (staged in a
    /// transaction that is then aborted) and scored by the policy's
    /// [`ReconfigurationObjective`]; the **cheapest** feasible plan the
    /// [`AdmissionPolicy`] accepts is then re-staged and committed
    /// all-or-nothing. Evaluation never re-runs the mapping algorithm at
    /// commit time — the staged outcomes are replayed verbatim — so even
    /// randomized algorithms commit exactly the plan that was scored.
    ///
    /// "Plain admission" is not computed twice: called right after a
    /// [`start`](RuntimeManager::start) of the same `Arc` was refused — no
    /// other `&mut self` call in between — this takes that refusal over;
    /// otherwise it calls `start` itself. The two are indistinguishable to
    /// the caller (see [`MappingAlgorithm`] for the one assumption).
    ///
    /// # Errors
    ///
    /// [`ReconfigurationFailure`] when no plan within the policy's bounds
    /// both admits the application and passes the admission policy; it
    /// carries the original [`AdmissionError`] plus the search effort
    /// spent and how many feasible plans the policy refused.
    pub fn start_with_reconfiguration(
        &mut self,
        spec: impl Into<Arc<ApplicationSpec>>,
        policy: &ReconfigurationPolicy,
    ) -> Result<Reconfiguration, ReconfigurationFailure> {
        let spec: Arc<ApplicationSpec> = spec.into();
        // The caller's `start(spec)` has just been refused on this very
        // ledger: that refusal is this call's, the algorithm is not asked
        // again. Anything else starts as a caller without a retry would.
        let replayed = (self.last_refusal.take())
            .and_then(|(refused, error)| Arc::ptr_eq(&refused, &spec).then_some(error));
        self.serves_retries = true;
        let error = match replayed {
            Some(error) => {
                obs::count(obs::Counter::RefusalReplayed, 1);
                error
            }
            None => match self.start(spec.clone()) {
                Ok(handle) => {
                    let steady_state_energy_pj = self.running_energy_pj();
                    return Ok(Reconfiguration {
                        handle,
                        migrations: Vec::new(),
                        migration_energy_pj: 0,
                        steady_state_energy_pj,
                        objective: policy.objective.score(steady_state_energy_pj, 0),
                        plan_objectives: Vec::new(),
                        plans_tried: 0,
                        migrations_attempted: 0,
                        plans_refused: 0,
                    });
                }
                Err(error) => error,
            },
        };
        // A refusal computed just now left a copy of itself behind.
        self.last_refusal = None;
        let mut plans_tried = 0u64;
        let mut migrations_attempted = 0u64;
        let mut plans_refused = 0u64;
        if matches!(error, AdmissionError::CommitFailed(_)) || policy.max_migrations == 0 {
            return Err(ReconfigurationFailure {
                error,
                plans_tried: 0,
                migrations_attempted: 0,
                plans_refused: 0,
            });
        }

        // What a plan can place: the arrival's specification, then every
        // distinct one running (instances of one catalog entry share their
        // `Arc`), each with its demand — worked out when the first plan gets
        // as far as placing it, once for the whole call.
        let mut specs = Vec::with_capacity(1 + self.running.len());
        specs.push((spec, OnceCell::new()));
        // Candidate victims, cheapest move first; ties break on handle so
        // the search order — and therefore every fixed-seed simulation —
        // is deterministic.
        let mut candidates: Vec<(u64, AppHandle, usize)> = (self.running.iter())
            .map(|(handle, app)| {
                let move_cost = CostModel::HopCount.assignment_cost(
                    &app.outcome.mapping,
                    &app.spec,
                    &self.platform,
                );
                let known = (specs
                    .iter()
                    .position(|(spec, _)| Arc::ptr_eq(spec, &app.spec)))
                .unwrap_or_else(|| {
                    specs.push((app.spec.clone(), OnceCell::new()));
                    specs.len() - 1
                });
                (move_cost, *handle, known)
            })
            .collect();
        candidates.sort_unstable();
        // A specification the algorithm called invalid has no demand to
        // speak of; only the arrival's can be.
        let arrival_is_valid = !matches!(error, AdmissionError::Rejected(MapError::InvalidSpec(_)));
        let unconstrained = MappingConstraints::none();
        let placement = |handle: Option<AppHandle>, known: usize| {
            let (spec, demand) = &specs[known];
            let demand = (handle.is_some() || arrival_is_valid)
                .then(|| demand.get_or_init(|| Demand::of(spec)));
            Placement {
                demand,
                ..Placement::new(handle, spec, &unconstrained)
            }
        };

        // Plans: single migrations cheapest-first, then pairs, … up to
        // `max_migrations` victims, `max_plans` plans overall: the arrival
        // first, then the victims in enumeration order. Every plan is
        // staged, scored and aborted; ties on the objective keep the
        // earliest plan, so the choice is deterministic.
        let mut best: Option<(u64, Plan<'_>)> = None;
        let mut plan_objectives = Vec::new();
        let sizes = policy.max_migrations.min(candidates.len());
        let mut indices: Vec<usize> = Vec::with_capacity(sizes);
        // The victim list of a plan that was not kept, for the next plan.
        let mut victims = Vec::with_capacity(sizes);
        'sizes: for size in 1..=sizes {
            indices.clear();
            indices.extend(0..size);
            loop {
                if plans_tried >= policy.max_plans as u64 {
                    break 'sizes;
                }
                plans_tried += 1;
                victims.extend(
                    (indices.iter()).map(|&i| placement(Some(candidates[i].1), candidates[i].2)),
                );
                let mut plan = Plan {
                    rest: std::mem::take(&mut victims),
                    priced: true,
                    ..Plan::of(placement(None, 0))
                };
                let staged = {
                    let _span = obs::span(obs::Span::PlanEval);
                    // Evaluation only: dropping the transaction aborts
                    // every staged operation, restoring the ledger exactly.
                    let mut tx = PlatformTransaction::begin(&self.platform, &mut self.state);
                    plan.stage(&self.algorithm, &self.running, &mut tx)
                };
                migrations_attempted += match staged {
                    Ok(()) => size,
                    // Position 0 is the arrival, so stopping at `at` means
                    // `at` victim re-maps were attempted.
                    Err(
                        StageError::Rejected(at, _)
                        | StageError::Refused(at)
                        | StageError::Commit(at, _),
                    ) => at,
                    Err(StageError::Release(_)) => 0,
                } as u64;
                // The objective of a plan that replaces the best so far.
                let mut improved = None;
                if staged.is_ok() {
                    let objective = plan.score(&policy.objective);
                    plan_objectives.push(objective);
                    if !plan.admitted_by(&policy.admission) {
                        plans_refused += 1;
                    } else if best.as_ref().is_none_or(|(b, _)| objective < *b) {
                        improved = Some(objective);
                    }
                }
                match improved {
                    Some(objective) => best = Some((objective, plan)),
                    None => {
                        victims = plan.rest;
                        victims.clear();
                    }
                }
                if !next_combination(&mut indices, candidates.len()) {
                    break;
                }
            }
        }
        let Some((objective, mut plan)) = best else {
            return Err(ReconfigurationFailure {
                error,
                plans_tried,
                migrations_attempted,
                plans_refused,
            });
        };
        // The winner carries its outcomes, so staging it again maps nothing;
        // and the ledger has not changed since it was evaluated (evaluation
        // aborts, the search never mutates state), so it cannot fail.
        let mut tx = PlatformTransaction::begin(&self.platform, &mut self.state);
        plan.stage(&self.algorithm, &self.running, &mut tx)
            .expect("re-staging an evaluated plan cannot fail");
        tx.commit();
        let (handle, _) = self.adopt(plan.first);
        let mut migrations = Vec::with_capacity(plan.rest.len());
        for placement in plan.rest {
            // A victim whose re-map landed on exactly its old tiles did not
            // migrate (the arriving app fit into space freed by the others):
            // its outcome is refreshed but no migration is reported.
            let victim = placement.handle.expect("victims are running");
            if placement.processes_moved > 0 {
                migrations.push(Migration {
                    handle: victim,
                    move_cost: (candidates.iter())
                        .find(|(_, handle, _)| *handle == victim)
                        .expect("victims are candidates")
                        .0,
                    processes_moved: placement.processes_moved,
                    energy_pj: placement.transfer_energy_pj,
                });
            }
            self.adopt(placement);
        }
        Ok(Reconfiguration {
            handle,
            migrations,
            migration_energy_pj: plan.migration_energy_pj,
            steady_state_energy_pj: plan.steady_state_energy_pj,
            objective,
            plan_objectives,
            plans_tried,
            migrations_attempted,
            plans_refused,
        })
    }

    /// Switches the application behind `handle` to a **new specification**
    /// atomically: inside one transaction its current reservations are
    /// released first (so the new configuration may reuse its own freed
    /// resources), the new spec is mapped against the freed occupancy, and
    /// the new mapping's reservations are committed. The handle stays
    /// valid. On any failure the transaction aborts and the application
    /// *keeps running under its old specification and mapping* — a blocked
    /// mode switch is a switching loss, not an eviction.
    ///
    /// Returns the *previous* outcome, so callers can diff placements or
    /// account switching costs.
    ///
    /// # Errors
    ///
    /// * [`RuntimeError::UnknownHandle`] — `handle` is not running;
    /// * [`RuntimeError::Admission`] — the new configuration has no
    ///   feasible mapping right now (the old one keeps running), or the
    ///   re-commit failed;
    /// * [`RuntimeError::ReleaseFailed`] — the ledger no longer holds the
    ///   committed reservations (external mutation).
    pub fn switch(
        &mut self,
        handle: AppHandle,
        spec: impl Into<Arc<ApplicationSpec>>,
    ) -> Result<MappingOutcome, RuntimeError> {
        let _span = obs::span(obs::Span::Switch);
        self.last_refusal = None;
        if !self.running.contains_key(&handle) {
            return Err(RuntimeError::UnknownHandle(handle));
        }
        let spec = spec.into();
        let unconstrained = MappingConstraints::none();
        let (_, previous) = self.place(Placement::new(Some(handle), &spec, &unconstrained))?;
        Ok(previous.expect("a re-placement replaces an outcome"))
    }

    /// Reacts to a resource failure: quarantines the failed tile or link
    /// in the ledger's health layer, identifies every running application
    /// the failure touches (a process or buffer on the failed tile, or a
    /// route through the failed link), and re-places each victim on the
    /// healthy remainder of the platform.
    ///
    /// Victims are processed in handle (admission) order, each as a plan of
    /// its own (see the `plan` module for what staging guarantees and for
    /// the failure windows): the victim's reservations are released, the
    /// algorithm re-maps it under auto-derived [`MappingConstraints`] —
    /// every currently-failed tile excluded, and in a first attempt every
    /// process on a healthy tile pinned in place, in a second one nothing
    /// pinned — and the first attempt that stages commits, its move priced
    /// through [`CostModel::migration_cost`]. If neither stages, the victim
    /// is *evicted* — stopped, its resources released — which is a terminal
    /// outcome distinct from blocking. Victims already relocated by the
    /// same call keep their new placements. [`EvacuationPolicy`] has no
    /// fields: evacuation always proceeds this way.
    ///
    /// Idempotent on the health layer: evacuating an already-failed
    /// resource re-runs victim identification (normally finding none).
    ///
    /// # Errors
    ///
    /// [`RuntimeError::ReleaseFailed`] only — the ledger no longer holds a
    /// victim's committed reservations (external mutation). Infeasible
    /// re-maps are not errors; they become evictions.
    pub fn evacuate(
        &mut self,
        failure: FailureEvent,
        _: &EvacuationPolicy,
    ) -> Result<Evacuation, RuntimeError> {
        let _span = obs::span(obs::Span::Evacuate);
        self.last_refusal = None;
        match failure {
            FailureEvent::Tile(tile) => self.state.fail_tile(tile),
            FailureEvent::Link(link) => self.state.fail_link(link),
        };
        let victims: Vec<AppHandle> = self
            .running
            .iter()
            .filter(|(_, app)| Self::touched_by(app, failure))
            .map(|(handle, _)| *handle)
            .collect();
        let mut evacuation = Evacuation {
            failure,
            victims: victims.clone(),
            evacuated: Vec::new(),
            evicted: Vec::new(),
            migration_energy_pj: 0,
        };
        // The health layer changed just now and not again before the call
        // returns, so neither do the constraints it implies.
        let unpinned = self.failure_constraints();
        for handle in victims {
            let pinned = self.pin_healthy(unpinned.clone(), handle);
            let spec = self.running[&handle].spec.clone();
            let demand = Demand::of(&spec);
            let mut relocated = false;
            for constraints in [&pinned, &unpinned] {
                let mut plan = Plan {
                    priced: true,
                    ..Plan::of(Placement {
                        demand: Some(&demand),
                        ..Placement::new(Some(handle), &spec, constraints)
                    })
                };
                let mut tx = PlatformTransaction::begin(&self.platform, &mut self.state);
                // An infeasible attempt drops its transaction (exact
                // rollback, health checks bypassed for the restore) and falls
                // through to the next one.
                match plan.stage(&self.algorithm, &self.running, &mut tx) {
                    Ok(()) => {}
                    Err(StageError::Release(e)) => return Err(RuntimeError::ReleaseFailed(e)),
                    Err(_) => continue,
                }
                tx.commit();
                evacuation.migration_energy_pj += plan.migration_energy_pj;
                evacuation.evacuated.push(EvacuatedApp {
                    handle,
                    processes_moved: plan.first.processes_moved,
                    migration_energy_pj: plan.migration_energy_pj,
                });
                self.adopt(plan.first);
                relocated = true;
                break;
            }
            if !relocated {
                self.stop(handle)?;
                evacuation.evicted.push(handle);
            }
        }
        Ok(evacuation)
    }

    /// Clears a failure from the ledger's health layer, making the
    /// resource claimable again. Returns `true` if the resource was failed
    /// (the call changed state). Repair never re-places applications —
    /// evacuated victims stay where evacuation put them.
    pub fn repair(&mut self, failure: FailureEvent) -> bool {
        self.last_refusal = None;
        match failure {
            FailureEvent::Tile(tile) => self.state.repair_tile(tile),
            FailureEvent::Link(link) => self.state.repair_link(link),
        }
    }

    /// True while `failure`'s resource is quarantined.
    pub fn is_failed(&self, failure: FailureEvent) -> bool {
        match failure {
            FailureEvent::Tile(tile) => self.state.is_tile_failed(tile),
            FailureEvent::Link(link) => self.state.is_link_failed(link),
        }
    }

    /// Whether `app`'s committed mapping holds resources the failure
    /// quarantines: a process or buffer on the failed tile, or a routed
    /// path through the failed link.
    fn touched_by(app: &RunningApp, failure: FailureEvent) -> bool {
        match failure {
            FailureEvent::Tile(tile) => {
                app.outcome
                    .mapping
                    .assignments()
                    .any(|(_, assignment)| assignment.tile == tile)
                    || app.outcome.buffers.iter().any(|buffer| buffer.tile == tile)
                    // Routes terminating at the tile hold network-interface
                    // claims there even when no process is assigned to it
                    // (fixed Source/Sink endpoints).
                    || app.outcome.mapping.routes().any(|(_, binding)| match binding {
                        RouteBinding::Path(path) => path.from == tile || path.to == tile,
                        RouteBinding::SameTile => false,
                    })
            }
            FailureEvent::Link(link) => {
                app.outcome
                    .mapping
                    .routes()
                    .any(|(_, binding)| match binding {
                        RouteBinding::Path(path) => path.links.contains(&link),
                        RouteBinding::SameTile => false,
                    })
            }
        }
    }

    /// Constraints every evacuation re-map runs under: all currently
    /// failed tiles excluded. (Failed links need no constraint — their
    /// residual is 0, so routing cannot use them.)
    fn failure_constraints(&self) -> MappingConstraints {
        let mut constraints = MappingConstraints::none();
        for (tile, _) in self.platform.tiles() {
            if self.state.is_tile_failed(tile) {
                constraints = constraints.exclude_tile(tile);
            }
        }
        constraints
    }

    /// `constraints` plus a pin for every one of the victim's processes
    /// that currently sits on a healthy tile, so the first relocation
    /// attempt moves only what the failure displaced.
    fn pin_healthy(
        &self,
        mut constraints: MappingConstraints,
        handle: AppHandle,
    ) -> MappingConstraints {
        let app = self.running.get(&handle).expect("victim is running");
        for (process, assignment) in app.outcome.mapping.assignments() {
            if !self.state.is_tile_failed(assignment.tile) {
                constraints = constraints.pin(process, assignment.tile);
            }
        }
        constraints
    }

    /// Stops every running application in handle (admission) order,
    /// releasing all their resources, and returns the stopped records.
    /// After a successful call the ledger holds only what was committed
    /// outside this manager (for [`RuntimeManager::new`] managers: nothing,
    /// so [`Utilization::is_idle`] holds).
    ///
    /// # Errors
    ///
    /// [`StopAllError`] if a release fails (external ledger mutation).
    /// Applications stopped before the failure stay stopped and their
    /// records are carried in the error; the failing one and all later
    /// ones keep running.
    pub fn stop_all(&mut self) -> Result<Vec<(AppHandle, RunningApp)>, StopAllError> {
        self.last_refusal = None;
        let handles: Vec<AppHandle> = self.running.keys().copied().collect();
        let mut stopped = Vec::with_capacity(handles.len());
        for handle in handles {
            match self.stop(handle) {
                Ok(record) => stopped.push((handle, record)),
                Err(error) => return Err(StopAllError { stopped, error }),
            }
        }
        Ok(stopped)
    }

    /// The running applications in handle (admission) order.
    pub fn running(&self) -> impl Iterator<Item = (AppHandle, &RunningApp)> {
        self.running.iter().map(|(h, app)| (*h, app))
    }

    /// The record of one running application.
    pub fn get(&self, handle: AppHandle) -> Option<&RunningApp> {
        self.running.get(&handle)
    }

    /// Number of running applications.
    pub fn n_running(&self) -> usize {
        self.running.len()
    }

    /// Total energy per period of all running applications, in picojoules.
    pub fn running_energy_pj(&self) -> u64 {
        self.running.values().map(|app| app.outcome.energy_pj).sum()
    }

    /// Aggregate occupancy of the managed platform, including the
    /// fragmentation of its free compute capacity.
    pub fn utilization(&self) -> Utilization {
        let fragmentation = self.state.fragmentation(&self.platform);
        let mut util = Utilization {
            used_slots: 0,
            total_slots: 0,
            used_memory_bytes: 0,
            total_memory_bytes: 0,
            used_link_bandwidth: 0,
            total_link_bandwidth: 0,
            running_apps: self.running.len(),
            largest_free_slot_region: fragmentation.largest_free_region_slots,
            fragmentation_permille: fragmentation.fragmentation_permille,
            failed_tiles: self.state.failed_tile_count(),
            degraded_permille: 0,
        };
        for (tile, spec) in self.platform.tiles() {
            util.used_slots += self.state.used_slots(tile);
            util.total_slots += spec.compute_slots;
            util.used_memory_bytes += self.state.used_memory(tile);
            util.total_memory_bytes += spec.memory_bytes;
        }
        for (link, spec) in self.platform.links() {
            util.total_link_bandwidth += spec.capacity;
            util.used_link_bandwidth +=
                spec.capacity - self.state.residual_link(&self.platform, link);
        }
        util.degraded_permille = (self.state.failed_slot_capacity(&self.platform) * 1000)
            .checked_div(util.total_slots)
            .unwrap_or(0);
        util
    }
}

/// Advances `indices` to the next lexicographic `k`-combination of
/// `0..n`. Returns `false` when exhausted.
fn next_combination(indices: &mut [usize], n: usize) -> bool {
    let k = indices.len();
    let mut i = k;
    while i > 0 {
        i -= 1;
        if indices[i] < n - (k - i) {
            indices[i] += 1;
            for j in i + 1..k {
                indices[j] = indices[j - 1] + 1;
            }
            return true;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapper::SpatialMapper;
    use rtsm_app::hiperlan2::{hiperlan2_receiver, Hiperlan2Mode};
    use rtsm_platform::paper::paper_platform;

    fn manager() -> RuntimeManager<SpatialMapper> {
        RuntimeManager::new(paper_platform(), SpatialMapper::default())
    }

    #[test]
    fn start_stop_restores_the_empty_ledger() {
        let mut m = manager();
        let before = m.state().clone();
        let h = m.start(hiperlan2_receiver(Hiperlan2Mode::Qpsk34)).unwrap();
        assert_ne!(m.state(), &before, "admission must claim resources");
        let record = m.stop(h).unwrap();
        assert_eq!(
            m.state(),
            &before,
            "stop must release exactly what start claimed"
        );
        assert_eq!(
            record.spec.name,
            hiperlan2_receiver(Hiperlan2Mode::Qpsk34).name
        );
        assert_eq!(m.n_running(), 0);
    }

    #[test]
    fn handles_stay_valid_when_other_apps_stop() {
        // Two light modes fit together on the paper platform? They do not
        // (two MONTIUMs), so use start/stop interleaving on one app plus
        // handle uniqueness checks.
        let mut m = manager();
        let h0 = m.start(hiperlan2_receiver(Hiperlan2Mode::Bpsk12)).unwrap();
        m.stop(h0).unwrap();
        let h1 = m.start(hiperlan2_receiver(Hiperlan2Mode::Qpsk34)).unwrap();
        assert_ne!(h0, h1, "handles are never reused");
        assert!(matches!(
            m.stop(h0),
            Err(RuntimeError::UnknownHandle(stale)) if stale == h0
        ));
        assert_eq!(m.n_running(), 1);
        m.stop(h1).unwrap();
    }

    #[test]
    fn rejection_leaves_the_ledger_untouched() {
        let mut m = manager();
        let _h = m.start(hiperlan2_receiver(Hiperlan2Mode::Qpsk34)).unwrap();
        let occupied = m.state().clone();
        let err = m
            .start(hiperlan2_receiver(Hiperlan2Mode::Qpsk34))
            .unwrap_err();
        assert!(matches!(err, AdmissionError::Rejected(_)));
        assert_eq!(m.state(), &occupied);
        assert_eq!(m.n_running(), 1);
    }

    #[test]
    fn utilization_tracks_admissions() {
        let mut m = manager();
        let idle = m.utilization();
        assert_eq!(idle.used_slots, 0);
        assert_eq!(idle.running_apps, 0);
        let h = m.start(hiperlan2_receiver(Hiperlan2Mode::Qpsk34)).unwrap();
        let busy = m.utilization();
        assert!(busy.used_slots >= 4, "four processes hold slots");
        assert!(busy.used_memory_bytes > 0);
        assert!(busy.used_link_bandwidth > 0);
        assert_eq!(busy.running_apps, 1);
        m.stop(h).unwrap();
        assert_eq!(m.utilization(), idle);
    }

    #[test]
    fn stop_all_drains_to_an_idle_ledger() {
        let mut m = manager();
        assert!(m.utilization().is_idle());
        let before = m.state().clone();
        m.start(hiperlan2_receiver(Hiperlan2Mode::Qpsk34)).unwrap();
        assert!(!m.utilization().is_idle());
        let stopped = m.stop_all().expect("releases never fail in-manager");
        assert_eq!(stopped.len(), 1);
        assert_eq!(m.n_running(), 0);
        assert_eq!(m.state(), &before);
        assert!(m.utilization().is_idle());
        // Idempotent on an empty manager.
        assert!(m.stop_all().unwrap().is_empty());
    }

    #[test]
    fn admission_errors_expose_their_kind() {
        let mut m = manager();
        let h = m.start(hiperlan2_receiver(Hiperlan2Mode::Qpsk34)).unwrap();
        let rejected = m
            .start(hiperlan2_receiver(Hiperlan2Mode::Qpsk34))
            .unwrap_err();
        assert!(matches!(rejected.kind(), AdmissionErrorKind::Rejected(_)));
        if let AdmissionError::Rejected(map_err) = &rejected {
            assert_eq!(
                rejected.kind(),
                AdmissionErrorKind::Rejected(map_err.kind())
            );
        }
        m.stop(h).unwrap();
        let stale = m.stop(h).unwrap_err();
        assert_eq!(stale.kind(), RuntimeErrorKind::UnknownHandle);
        assert!(
            !matches!(stale, RuntimeError::Admission(_)),
            "stopping an unknown handle is a runtime fault, not an admission error"
        );
    }

    #[test]
    fn works_boxed_over_dyn_algorithm() {
        let algorithm: Box<dyn MappingAlgorithm> = Box::new(SpatialMapper::default());
        let mut m = RuntimeManager::new(paper_platform(), algorithm);
        let h = m.start(hiperlan2_receiver(Hiperlan2Mode::Qpsk34)).unwrap();
        assert_eq!(m.n_running(), 1);
        m.stop(h).unwrap();
    }

    // --- Remapping and defragmentation ----------------------------------
    //
    // The engineered scenario: two 2-slot ARMs with 64 KiB each. Light
    // single-process applications take 24 KiB, a heavy one 48 KiB. Churn
    // leaves one light app on *each* ARM: 40 KiB free per tile — enough
    // total for the heavy app but fragmented. Migrating one light app onto
    // the other's tile frees a whole ARM and recovers the admission.

    fn defrag_platform() -> rtsm_platform::Platform {
        use rtsm_platform::{Coord, PlatformBuilder, TileKind};
        PlatformBuilder::mesh(4, 1)
            .tile_defaults(200, 2, 64 * 1024, 200_000_000)
            .tile("A/D", TileKind::AdcSource, Coord { x: 0, y: 0 })
            .tile("ARM-a", TileKind::Arm, Coord { x: 1, y: 0 })
            .tile("ARM-b", TileKind::Arm, Coord { x: 2, y: 0 })
            .tile("Sink", TileKind::Sink, Coord { x: 3, y: 0 })
            .build()
            .unwrap()
    }

    fn pipe_app(name: &str, memory_bytes: u64) -> ApplicationSpec {
        use rtsm_app::{Endpoint, Implementation, ImplementationLibrary, ProcessGraph, QosSpec};
        use rtsm_dataflow::PhaseVec;
        use rtsm_platform::TileKind;
        let mut graph = ProcessGraph::new();
        let p = graph.add_process("Stage");
        graph
            .add_channel(Endpoint::StreamInput, Endpoint::Process(p), 16)
            .unwrap();
        graph
            .add_channel(Endpoint::Process(p), Endpoint::StreamOutput, 16)
            .unwrap();
        let mut library = ImplementationLibrary::new();
        library.register(
            p,
            Implementation::simple(
                format!("{name} @ ARM"),
                TileKind::Arm,
                PhaseVec::from_slice(&[8, 60, 8]),
                PhaseVec::from_slice(&[16, 0, 0]),
                PhaseVec::from_slice(&[0, 0, 16]),
                5_000,
                memory_bytes,
            ),
        );
        ApplicationSpec {
            name: name.into(),
            graph,
            qos: QosSpec::with_period(4_000_000),
            library,
        }
    }

    fn light() -> ApplicationSpec {
        pipe_app("light", 24 * 1024)
    }

    fn heavy() -> ApplicationSpec {
        pipe_app("heavy", 48 * 1024)
    }

    /// Builds the fragmented state: one light app on each ARM, 40 KiB free
    /// on both tiles. Returns the manager and the two survivors' handles.
    fn fragmented_manager() -> (RuntimeManager<SpatialMapper>, AppHandle, AppHandle) {
        let mut m = RuntimeManager::new(defrag_platform(), SpatialMapper::default());
        let a = m.start(light()).unwrap();
        let b = m.start(light()).unwrap();
        let c = m.start(light()).unwrap();
        let d = m.start(light()).unwrap();
        m.stop(b).unwrap();
        m.stop(c).unwrap();
        (m, a, d)
    }

    #[test]
    fn fragmented_admission_fails_plain_but_recovers_by_migration() {
        let (mut m, a, d) = fragmented_manager();
        // The defining property of fragmentation: total free ARM memory
        // (2 × 40 KiB) exceeds the heavy app's 48 KiB, but no single tile
        // has room — the admission is lost to *placement*, not capacity.
        let platform = m.platform().clone();
        let free_mem: Vec<u64> = ["ARM-a", "ARM-b"]
            .iter()
            .map(|name| {
                let t = platform.tile_by_name(name).unwrap();
                platform.tile(t).memory_bytes - m.state().used_memory(t)
            })
            .collect();
        assert!(free_mem.iter().sum::<u64>() > 48 * 1024);
        assert!(free_mem.iter().all(|&f| f < 48 * 1024));
        // Plain admission is blocked: 40 KiB free per ARM < 48 KiB.
        assert!(matches!(m.start(heavy()), Err(AdmissionError::Rejected(_))));
        let before = m.state().clone();
        let reconfiguration = m
            .start_with_reconfiguration(heavy(), &ReconfigurationPolicy::default())
            .expect("migrating one light app frees a whole ARM");
        assert_eq!(reconfiguration.migrations.len(), 1);
        assert!(reconfiguration.plans_tried >= 1);
        assert!(reconfiguration.migration_energy_pj > 0);
        assert_eq!(m.n_running(), 3);
        // The migrated light app kept its handle; both light handles live.
        assert!(m.get(a).is_some());
        assert!(m.get(d).is_some());
        assert_ne!(m.state(), &before, "the heavy app holds resources now");
        // Everything still stops cleanly — the transactional bookkeeping
        // left no stray claims behind.
        m.stop_all().unwrap();
        assert!(m.utilization().is_idle());
    }

    #[test]
    fn reconfiguration_failure_restores_everything() {
        let (mut m, _, _) = fragmented_manager();
        // Two heavies need two whole ARMs; only one can be freed.
        let ok = m
            .start_with_reconfiguration(heavy(), &ReconfigurationPolicy::default())
            .expect("first heavy recovers by migration");
        let ledger = m.state().clone();
        let records: Vec<_> = m.running().map(|(h, app)| (h, app.clone())).collect();
        let failure = m
            .start_with_reconfiguration(heavy(), &ReconfigurationPolicy::default())
            .expect_err("no plan can free 48 KiB more");
        assert!(matches!(failure.error, AdmissionError::Rejected(_)));
        assert!(failure.plans_tried >= 1);
        assert_eq!(m.state(), &ledger, "failed search leaves the ledger intact");
        let after: Vec<_> = m.running().map(|(h, app)| (h, app.clone())).collect();
        assert_eq!(records, after, "no running app was disturbed");
        m.stop(ok.handle).unwrap();
        m.stop_all().unwrap();
        assert!(m.utilization().is_idle());
    }

    #[test]
    fn reconfiguration_fast_path_skips_migration_when_room_exists() {
        let mut m = RuntimeManager::new(defrag_platform(), SpatialMapper::default());
        let reconfiguration = m
            .start_with_reconfiguration(light(), &ReconfigurationPolicy::default())
            .unwrap();
        assert!(reconfiguration.migrations.is_empty());
        assert_eq!(reconfiguration.plans_tried, 0);
        assert_eq!(reconfiguration.migration_energy_pj, 0);
    }

    #[test]
    fn zero_migration_policy_degenerates_to_plain_admission() {
        let (mut m, _, _) = fragmented_manager();
        let policy = ReconfigurationPolicy {
            max_migrations: 0,
            ..ReconfigurationPolicy::default()
        };
        let failure = m.start_with_reconfiguration(heavy(), &policy).unwrap_err();
        assert_eq!(failure.plans_tried, 0);
        assert_eq!(failure.migrations_attempted, 0);
    }

    #[test]
    fn cheapest_plan_wins_and_its_objective_is_minimal() {
        let (mut m, _, _) = fragmented_manager();
        let reconfiguration = m
            .start_with_reconfiguration(heavy(), &ReconfigurationPolicy::default())
            .expect("migration recovers the admission");
        assert!(
            !reconfiguration.plan_objectives.is_empty(),
            "feasible plans were enumerated"
        );
        assert_eq!(
            reconfiguration.objective,
            *reconfiguration.plan_objectives.iter().min().unwrap(),
            "under AlwaysAdmit the committed plan is the cheapest enumerated"
        );
        assert!(reconfiguration
            .plan_objectives
            .iter()
            .all(|&o| reconfiguration.objective <= o));
        assert_eq!(reconfiguration.plans_refused, 0);
        // The objective decomposes exactly as documented.
        let policy = ReconfigurationPolicy::default();
        assert_eq!(
            reconfiguration.objective,
            policy.objective.score(
                reconfiguration.steady_state_energy_pj,
                reconfiguration.migration_energy_pj
            )
        );
        assert_eq!(
            reconfiguration.steady_state_energy_pj,
            m.running_energy_pj(),
            "steady-state term is the post-commit running energy"
        );
        m.stop_all().unwrap();
    }

    #[test]
    fn energy_budget_refuses_expensive_recoveries() {
        // A zero budget refuses every migrating plan: the admission fails
        // although feasible plans exist, and the refusal is visible.
        let (mut m, _, _) = fragmented_manager();
        let ledger = m.state().clone();
        let policy = ReconfigurationPolicy {
            admission: AdmissionPolicy::EnergyBudget { max_transfer_pj: 0 },
            ..ReconfigurationPolicy::default()
        };
        let failure = m.start_with_reconfiguration(heavy(), &policy).unwrap_err();
        assert!(
            failure.plans_refused > 0,
            "the blocking was a policy decision: {failure:?}"
        );
        assert_eq!(m.state(), &ledger, "refused plans leave the ledger intact");
        // A generous budget admits again, and the committed plan respects it.
        let generous = ReconfigurationPolicy {
            admission: AdmissionPolicy::EnergyBudget {
                max_transfer_pj: u64::MAX,
            },
            ..ReconfigurationPolicy::default()
        };
        let reconfiguration = m.start_with_reconfiguration(heavy(), &generous).unwrap();
        assert!(reconfiguration.migration_energy_pj > 0);
        m.stop_all().unwrap();
    }

    #[test]
    fn amortized_payback_bounds_transfer_by_admitted_energy() {
        let (mut m, _, _) = fragmented_manager();
        // Horizon 0: no transfer is ever amortized.
        let strict = ReconfigurationPolicy {
            admission: AdmissionPolicy::AmortizedPayback { horizon_periods: 0 },
            ..ReconfigurationPolicy::default()
        };
        let failure = m.start_with_reconfiguration(heavy(), &strict).unwrap_err();
        assert!(failure.plans_refused > 0);
        // A huge horizon admits; the bound holds for the committed plan.
        let lax = ReconfigurationPolicy {
            admission: AdmissionPolicy::AmortizedPayback {
                horizon_periods: u64::MAX,
            },
            ..ReconfigurationPolicy::default()
        };
        let reconfiguration = m.start_with_reconfiguration(heavy(), &lax).unwrap();
        let admitted_energy = m.get(reconfiguration.handle).unwrap().outcome.energy_pj;
        assert!(reconfiguration.migration_energy_pj <= u64::MAX.saturating_mul(admitted_energy));
        m.stop_all().unwrap();
    }

    #[test]
    fn lambda_zero_still_recovers() {
        // λ‰ = 0 ranks plans purely by steady-state energy; recovery
        // behaviour (which admissions succeed) is unchanged.
        let (mut m, _, _) = fragmented_manager();
        let policy = ReconfigurationPolicy {
            objective: ReconfigurationObjective { lambda_permille: 0 },
            ..ReconfigurationPolicy::default()
        };
        let reconfiguration = m.start_with_reconfiguration(heavy(), &policy).unwrap();
        assert_eq!(reconfiguration.migrations.len(), 1);
        m.stop_all().unwrap();
    }

    #[test]
    fn switch_swaps_the_spec_atomically_and_keeps_the_handle() {
        let mut m = RuntimeManager::new(defrag_platform(), SpatialMapper::default());
        let before = m.state().clone();
        let h = m.start(light()).unwrap();
        let old = m.switch(h, heavy()).expect("the heavy spec fits alone");
        assert_eq!(old.mapping.assignments().count(), 1);
        assert_eq!(m.n_running(), 1);
        assert_eq!(m.get(h).unwrap().spec.name, "heavy");
        // The swapped application still stops cleanly.
        m.stop(h).unwrap();
        assert_eq!(m.state(), &before);
    }

    #[test]
    fn blocked_switch_keeps_the_old_configuration_running() {
        // Full fill: two lights per ARM. Switching one light to the heavy
        // spec releases its own 24 KiB, leaving 40 KiB on its tile next to
        // the co-tenant — not the 48 KiB the heavy needs anywhere.
        let mut m = RuntimeManager::new(defrag_platform(), SpatialMapper::default());
        let a = m.start(light()).unwrap();
        for _ in 0..3 {
            m.start(light()).unwrap();
        }
        let ledger = m.state().clone();
        let record = m.get(a).unwrap().clone();
        let err = m.switch(a, heavy()).unwrap_err();
        assert!(matches!(
            err,
            RuntimeError::Admission(AdmissionError::Rejected(_))
        ));
        assert_eq!(m.state(), &ledger, "failed switch restores the ledger");
        assert_eq!(
            m.get(a).unwrap(),
            &record,
            "the old configuration keeps running untouched"
        );
        m.stop_all().unwrap();
        assert!(m.utilization().is_idle());
    }

    #[test]
    fn switch_unknown_handle_is_a_runtime_error() {
        let mut m = RuntimeManager::new(defrag_platform(), SpatialMapper::default());
        let h = m.start(light()).unwrap();
        m.stop(h).unwrap();
        let err = m.switch(h, heavy()).unwrap_err();
        assert_eq!(err.kind(), RuntimeErrorKind::UnknownHandle);
    }

    // --- Fault injection and evacuation ----------------------------------

    #[test]
    fn tile_failure_evacuates_the_victim_to_a_healthy_tile() {
        let platform = defrag_platform();
        let arm_a = platform.tile_by_name("ARM-a").unwrap();
        let arm_b = platform.tile_by_name("ARM-b").unwrap();
        let mut m = RuntimeManager::new(platform, SpatialMapper::default());
        let h = m.start(light()).unwrap();
        let process = m
            .get(h)
            .unwrap()
            .spec
            .graph
            .process_by_name("Stage")
            .unwrap();
        assert_eq!(
            m.get(h)
                .unwrap()
                .outcome
                .mapping
                .assignment(process)
                .unwrap()
                .tile,
            arm_a
        );

        let evacuation = m
            .evacuate(FailureEvent::Tile(arm_a), &EvacuationPolicy)
            .unwrap();
        assert_eq!(evacuation.victims, vec![h]);
        assert_eq!(evacuation.evacuated.len(), 1);
        assert!(evacuation.evicted.is_empty());
        assert_eq!(evacuation.evacuated[0].processes_moved, 1);
        assert_eq!(
            m.get(h)
                .unwrap()
                .outcome
                .mapping
                .assignment(process)
                .unwrap()
                .tile,
            arm_b,
            "the victim now runs on the healthy ARM"
        );
        let util = m.utilization();
        assert_eq!(util.failed_tiles, 1);
        assert!(util.degraded_permille > 0);

        // Repair restores admissibility; the evacuee stays where it is.
        assert!(m.repair(FailureEvent::Tile(arm_a)));
        assert!(!m.is_failed(FailureEvent::Tile(arm_a)));
        assert_eq!(
            m.get(h)
                .unwrap()
                .outcome
                .mapping
                .assignment(process)
                .unwrap()
                .tile,
            arm_b
        );
        m.stop_all().unwrap();
        assert!(m.utilization().is_idle(), "no claims leak across the cycle");
    }

    #[test]
    fn unplaceable_victim_is_evicted_not_blocked() {
        // Both ARMs hold two lights each; failing one ARM leaves no healthy
        // capacity for its two tenants — they are evicted, the others stay.
        let platform = defrag_platform();
        let arm_a = platform.tile_by_name("ARM-a").unwrap();
        let mut m = RuntimeManager::new(platform, SpatialMapper::default());
        let handles: Vec<_> = (0..4).map(|_| m.start(light()).unwrap()).collect();
        let before_running = m.n_running();
        assert_eq!(before_running, 4);

        let evacuation = m
            .evacuate(FailureEvent::Tile(arm_a), &EvacuationPolicy)
            .unwrap();
        assert_eq!(evacuation.victims.len(), 2, "two tenants on the failed ARM");
        assert!(evacuation.evacuated.is_empty(), "ARM-b is already full");
        assert_eq!(evacuation.evicted.len(), 2);
        assert_eq!(m.n_running(), 2, "evicted apps are terminal");
        for evicted in &evacuation.evicted {
            assert!(m.get(*evicted).is_none());
            assert!(handles.contains(evicted));
        }
        m.repair(FailureEvent::Tile(arm_a));
        m.stop_all().unwrap();
        assert!(m.utilization().is_idle(), "evictions released everything");
    }

    #[test]
    fn failed_evacuation_rolls_back_exactly_before_eviction() {
        // One light on each ARM plus co-tenants so nothing can move: the
        // victim's failed attempt must leave every *other* app untouched.
        let platform = defrag_platform();
        let arm_a = platform.tile_by_name("ARM-a").unwrap();
        let mut m = RuntimeManager::new(platform, SpatialMapper::default());
        for _ in 0..4 {
            m.start(light()).unwrap();
        }
        let survivors: Vec<_> = m
            .running()
            .filter(|(_, app)| {
                let p = app.spec.graph.process_by_name("Stage").unwrap();
                app.outcome.mapping.assignment(p).unwrap().tile != arm_a
            })
            .map(|(h, app)| (h, app.clone()))
            .collect();
        m.evacuate(FailureEvent::Tile(arm_a), &EvacuationPolicy)
            .unwrap();
        for (h, record) in survivors {
            assert_eq!(m.get(h).unwrap(), &record, "survivors are untouched");
        }
        m.repair(FailureEvent::Tile(arm_a));
        m.stop_all().unwrap();
        assert!(m.utilization().is_idle());
    }

    #[test]
    fn link_failure_reroutes_without_moving_processes() {
        // hiperlan2 on the paper platform commits routed paths; failing a
        // link one of them uses must re-route the app with every process
        // pinned in place (processes_moved == 0) when possible, or at
        // least keep the ledger exact.
        let mut m = manager();
        let h = m.start(hiperlan2_receiver(Hiperlan2Mode::Qpsk34)).unwrap();
        let used_link = m
            .get(h)
            .unwrap()
            .outcome
            .mapping
            .routes()
            .find_map(|(_, binding)| match binding {
                RouteBinding::Path(path) => path.links.first().copied(),
                RouteBinding::SameTile => None,
            })
            .expect("the paper mapping routes at least one channel");
        let evacuation = m
            .evacuate(FailureEvent::Link(used_link), &EvacuationPolicy)
            .unwrap();
        assert_eq!(evacuation.victims, vec![h], "the app uses the failed link");
        if let Some(evacuee) = evacuation.evacuated.first() {
            // The new mapping avoids the failed link entirely.
            let avoids =
                m.get(h)
                    .unwrap()
                    .outcome
                    .mapping
                    .routes()
                    .all(|(_, binding)| match binding {
                        RouteBinding::Path(path) => !path.links.contains(&used_link),
                        RouteBinding::SameTile => true,
                    });
            assert!(avoids, "evacuated mapping must not touch the failed link");
            assert_eq!(
                evacuee.processes_moved, 0,
                "pin-healthy re-route moves no process"
            );
        } else {
            assert_eq!(evacuation.evicted, vec![h]);
        }
        m.repair(FailureEvent::Link(used_link));
        m.stop_all().unwrap();
        assert!(m.utilization().is_idle());
    }

    #[test]
    fn evacuating_an_untouched_platform_finds_no_victims() {
        let platform = defrag_platform();
        // First fit places the light app on ARM-a; ARM-b stays idle.
        let idle_arm = platform.tile_by_name("ARM-b").unwrap();
        let sink = platform.tile_by_name("Sink").unwrap();
        let mut m = RuntimeManager::new(platform, SpatialMapper::default());
        let h = m.start(light()).unwrap();
        let record = m.get(h).unwrap().clone();
        let evacuation = m
            .evacuate(FailureEvent::Tile(idle_arm), &EvacuationPolicy)
            .unwrap();
        assert!(evacuation.victims.is_empty());
        assert_eq!(m.get(h).unwrap(), &record);
        // While the ARM is failed, admissions cannot use it.
        assert!(m.is_failed(FailureEvent::Tile(idle_arm)));
        m.repair(FailureEvent::Tile(idle_arm));
        // Conversely, the app's output route terminates at the Sink, so
        // failing the Sink touches it although no process sits there.
        let evacuation = m
            .evacuate(FailureEvent::Tile(sink), &EvacuationPolicy)
            .unwrap();
        assert_eq!(evacuation.victims, vec![h]);
        m.repair(FailureEvent::Tile(sink));
        m.stop_all().unwrap();
    }

    // --- The refusal carried into the retry -------------------------------

    /// A policy that searches nothing: the retry admits exactly when a
    /// plain `start` would, so it tells a recomputed refusal from a stale
    /// one.
    fn no_migrations() -> ReconfigurationPolicy {
        ReconfigurationPolicy {
            max_migrations: 0,
            ..ReconfigurationPolicy::default()
        }
    }

    /// `m` after the first retry of its life, from which on it keeps its
    /// refusals; the ledger is untouched.
    fn serving_retries(mut m: RuntimeManager<SpatialMapper>) -> RuntimeManager<SpatialMapper> {
        let ledger = m.state().clone();
        let unplaceable = pipe_app("unplaceable", 65 * 1024);
        assert!(m
            .start_with_reconfiguration(unplaceable, &no_migrations())
            .is_err());
        assert_eq!(m.state(), &ledger);
        assert!(m.last_refusal.is_none());
        m
    }

    /// [`pipe_app`] with a second stage like the first behind it.
    fn two_stage(memory_bytes: u64) -> ApplicationSpec {
        use rtsm_app::{Endpoint, Implementation, ProcessGraph};
        let mut spec = pipe_app("two-stage", memory_bytes);
        let mut graph = ProcessGraph::new();
        let stages = [graph.add_process("Stage"), graph.add_process("Stage 2")];
        let ends = [
            Endpoint::StreamInput,
            Endpoint::Process(stages[0]),
            Endpoint::Process(stages[1]),
            Endpoint::StreamOutput,
        ];
        for hop in ends.windows(2) {
            graph.add_channel(hop[0], hop[1], 16).unwrap();
        }
        // The first stage is process 0 of either graph.
        let second = Implementation {
            name: "Stage 2 @ ARM".into(),
            ..spec.library.impls_for(stages[0])[0].clone()
        };
        spec.library.register(stages[1], second);
        spec.graph = graph;
        spec
    }

    #[test]
    fn a_retry_that_takes_over_the_refusal_equals_one_that_recomputes_it() {
        let fragmented = || fragmented_manager().0;
        let full = || {
            let mut m = RuntimeManager::new(defrag_platform(), SpatialMapper::default());
            for _ in 0..4 {
                m.start(light()).unwrap();
            }
            m
        };
        let vetoing = ReconfigurationPolicy {
            admission: AdmissionPolicy::EnergyBudget { max_transfer_pj: 0 },
            ..ReconfigurationPolicy::default()
        };
        let cases: [(&str, RuntimeManager<SpatialMapper>, ReconfigurationPolicy); 4] = [
            ("recovered", fragmented(), ReconfigurationPolicy::default()),
            ("refused", full(), ReconfigurationPolicy::default()),
            ("vetoed", fragmented(), vetoing),
            ("not searched", full(), no_migrations()),
        ];
        for (case, manager, policy) in cases {
            let mut m = serving_retries(manager);
            let mut twin = m.clone();
            let spec = Arc::new(heavy());
            let refusal = m.start(spec.clone()).expect_err("the heavy app is blocked");
            assert_eq!(
                m.last_refusal,
                Some((spec.clone(), refusal.clone())),
                "{case}: the refusal is kept for the retry"
            );
            assert!(twin.last_refusal.is_none());
            let replayed = m.start_with_reconfiguration(spec.clone(), &policy);
            let recomputed = twin.start_with_reconfiguration(spec.clone(), &policy);
            assert_eq!(replayed, recomputed, "{case}: payloads included");
            match (case, &replayed) {
                ("recovered", Ok(r)) => assert_eq!(r.migrations.len(), 1),
                ("refused", Err(f)) => assert!(f.plans_tried > 0 && f.plans_refused == 0),
                ("vetoed", Err(f)) => assert!(f.plans_refused > 0),
                ("not searched", Err(f)) => assert_eq!(f.plans_tried, 0),
                _ => panic!("{case}: {replayed:?}"),
            }
            if let Err(failure) = &replayed {
                assert_eq!(
                    failure.error, refusal,
                    "{case}: the very error `start` gave"
                );
            }
            assert_eq!(m.state(), twin.state(), "{case}: equal ledgers");
            assert!(m.running().eq(twin.running()), "{case}: equal running sets");
            assert!(m.last_refusal.is_none(), "{case}: taken, not kept");
        }
    }

    #[test]
    fn a_manager_never_asked_to_retry_keeps_no_refusal() {
        let (mut m, _, _) = fragmented_manager();
        assert!(m.start(heavy()).is_err());
        assert!(m.last_refusal.is_none() && !m.serves_retries);
        // The first retry of its life recomputes, and switches the memory on.
        let spec = Arc::new(pipe_app("unplaceable", 65 * 1024));
        assert!(m.start(spec.clone()).is_err());
        assert!(m
            .start_with_reconfiguration(spec.clone(), &no_migrations())
            .is_err());
        assert!(m.serves_retries);
        assert!(m.start(spec.clone()).is_err());
        assert!(m.last_refusal.is_some());
    }

    #[test]
    fn the_remembered_refusal_survives_no_other_entry_point() {
        let platform = defrag_platform();
        let arm_a = platform.tile_by_name("ARM-a").unwrap();
        let arm_b = platform.tile_by_name("ARM-b").unwrap();
        // After each of these, the heavy app that was just refused fits —
        // which only a retry that looks at the new ledger finds out.
        type Op = fn(&mut RuntimeManager<SpatialMapper>, AppHandle);
        let rows: [(&str, Op); 3] = [
            ("stop", |m, a| drop(m.stop(a).unwrap())),
            ("stop_all", |m, _| drop(m.stop_all().unwrap())),
            ("switch", |m, a| {
                drop(m.switch(a, pipe_app("tiny", 8 * 1024)).unwrap())
            }),
        ];
        for (entry_point, op) in rows {
            let mut m = serving_retries(fragmented_manager().0);
            let a = m.running().next().unwrap().0;
            let spec = Arc::new(heavy());
            assert!(m.start(spec.clone()).is_err());
            assert!(m.last_refusal.is_some());
            op(&mut m, a);
            assert!(
                m.last_refusal.is_none(),
                "{entry_point} forgets the refusal"
            );
            let retry = m
                .start_with_reconfiguration(spec, &no_migrations())
                .unwrap_or_else(|e| panic!("after {entry_point} the heavy app fits: {e}"));
            assert_eq!(retry.plans_tried, 0);
        }

        // repair: ARM-b is down, ARM-a full; repairing ARM-b makes room.
        let mut m = serving_retries(RuntimeManager::new(
            defrag_platform(),
            SpatialMapper::default(),
        ));
        m.evacuate(FailureEvent::Tile(arm_b), &EvacuationPolicy)
            .unwrap();
        m.start(light()).unwrap();
        m.start(light()).unwrap();
        let spec = Arc::new(heavy());
        assert!(m.start(spec.clone()).is_err());
        assert!(m.repair(FailureEvent::Tile(arm_b)));
        assert!(m.last_refusal.is_none(), "repair forgets the refusal");
        assert!(m.start_with_reconfiguration(spec, &no_migrations()).is_ok());

        // evacuate: a two-stage app holds 40 KiB on either ARM. ARM-a fails,
        // its second stage cannot join the first on ARM-b, the app is
        // evicted — and ARM-b is free for the heavy app.
        let mut m = serving_retries(RuntimeManager::new(
            defrag_platform(),
            SpatialMapper::default(),
        ));
        m.start(two_stage(40 * 1024)).unwrap();
        let spec = Arc::new(heavy());
        assert!(m.start(spec.clone()).is_err());
        let evacuation = m
            .evacuate(FailureEvent::Tile(arm_a), &EvacuationPolicy)
            .unwrap();
        assert_eq!(evacuation.evicted.len(), 1);
        assert!(m.last_refusal.is_none(), "evacuate forgets the refusal");
        assert!(m.start_with_reconfiguration(spec, &no_migrations()).is_ok());

        // start: an admitted one forgets the refusal, a refused one
        // replaces it — and a retry takes only the refusal of its own
        // specification.
        let mut m = serving_retries(fragmented_manager().0);
        let (heavy_a, heavy_b) = (Arc::new(heavy()), Arc::new(heavy()));
        assert!(m.start(heavy_a.clone()).is_err());
        m.start(pipe_app("tiny", 8 * 1024)).unwrap();
        assert!(m.last_refusal.is_none(), "an admitted start forgets it");
        assert!(m.start(heavy_a.clone()).is_err());
        assert!(m.start(heavy_b.clone()).is_err());
        assert!(Arc::ptr_eq(&m.last_refusal.as_ref().unwrap().0, &heavy_b));
        let tiny = m
            .start_with_reconfiguration(pipe_app("tiny", 8 * 1024), &no_migrations())
            .expect("another specification's refusal is not this one's");
        assert_eq!(tiny.plans_tried, 0);
        assert!(m.last_refusal.is_none());
    }

    #[test]
    fn next_combination_enumerates_lexicographically() {
        let mut indices = vec![0, 1];
        let mut seen = vec![indices.clone()];
        while next_combination(&mut indices, 4) {
            seen.push(indices.clone());
        }
        assert_eq!(
            seen,
            vec![
                vec![0, 1],
                vec![0, 2],
                vec![0, 3],
                vec![1, 2],
                vec![1, 3],
                vec![2, 3]
            ]
        );
    }
}
