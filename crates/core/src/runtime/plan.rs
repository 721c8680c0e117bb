//! The one pipeline under every ledger-mutating entry point of the
//! [`RuntimeManager`](super::RuntimeManager): a [`Plan`] is *staged* into a transaction, the entry
//! point *gates* it, and a committed plan is *adopted* into the records.
//!
//! A plan is an ordered, non-empty list of [`Placement`]s. A placement
//! without a handle is an arrival; one with a handle re-places a running
//! application, and its current reservations are the plan's releases.
//! [`start`](super::RuntimeManager::start) is one arrival;
//! [`switch`](super::RuntimeManager::switch) re-places one application under a new
//! specification;
//! [`start_with_reconfiguration`](super::RuntimeManager::start_with_reconfiguration)
//! stages an arrival followed by its victims once per victim combination,
//! each in a transaction it drops, and stages the winner a second time, to
//! commit it;
//! [`evacuate`](super::RuntimeManager::evacuate) re-places one victim per attempt
//! under the failure's constraints. What differs between them is the gate
//! and the result type, not the sequence.
//!
//! [`Plan::stage`] guarantees, in this order: every re-placed application
//! is released before anything is placed (so the arrival and the victims
//! may reuse what the victims held — release-before-claim); placements are
//! mapped against the transaction's state and staged in plan order, each
//! seeing its predecessors' claims; a placement that already carries an
//! outcome is staged verbatim, the algorithm is not asked again (so a
//! randomised mapper commits exactly what was scored); every other
//! placement is first held, through its specification's [`Demand`], against
//! the transaction's state and refused at its position with
//! [`MapError::CannotFit`], the algorithm not asked, when it
//! [cannot fit](Demand::cannot_fit) — or with [`MapError::InvalidSpec`]
//! when its specification fails validation. A *priced* plan — a reconfiguration
//! evaluation's or an evacuation attempt's — also prices every
//! re-placement's state transfer in the one energy model
//! ([`CostModel::Energy`]) and sums the plan's migration and steady-state
//! energies. Nothing outside the transaction
//! changes: dropping it restores the ledger byte for byte, and the records
//! are only written by [`adopt`], after the caller
//! committed.
//!
//! # Failure windows
//!
//! The manager serializes all ledger mutation behind `&mut self`, so a
//! failure cannot be injected *between* staging and commit: every entry
//! point observes the ledger either entirely before or entirely after any
//! other. Within a call, one plan is one [`PlatformTransaction`], staged
//! on the ledger over the manager's one spare
//! ([`PlatformTransaction::over`]).
//!
//! A plan that fails partway (infeasible mapping, commit refusal, a gate's
//! veto), and a reconfiguration plan that is only *evaluated*, drops its
//! transaction, which swaps back the copy of the ledger its first
//! operation took. The released reservations are back **exactly —
//! including on failed resources**, since nothing is re-claimed, so an
//! application whose relocation was refused still holds precisely what
//! admission committed, and a subsequent eviction releases precisely that.
//! Plans committed earlier by the same call (the victims an evacuation
//! already relocated) keep their placements; there is no cross-plan
//! rollback, because a committed plan is already a complete, consistent
//! state. A reconfiguration's winner is staged a second time from the
//! outcomes it was scored with, on the ledger it was evaluated on, so that
//! staging cannot fail.
//!
//! One thing is remembered *between* calls: the refusal the last
//! [`start`](super::RuntimeManager::start) returned, which a
//! [`start_with_reconfiguration`](super::RuntimeManager::start_with_reconfiguration)
//! for the same `Arc`ed specification takes over instead of mapping again.
//! Its window is exactly the gap between those two calls — every `&mut self`
//! entry point clears or overwrites it before it touches anything, `repair`
//! and a `stop` of an unknown handle included — so no failure, departure or
//! admission can come between a refusal and the retry that uses it.

use super::fit::{self, Demand};
use super::{
    AdmissionError, AdmissionPolicy, AppHandle, ReconfigurationObjective, RunningApp, RuntimeError,
};
use crate::algorithm::{MappingAlgorithm, MappingOutcome};
use crate::constraints::MappingConstraints;
use crate::cost::CostModel;
use crate::error::MapError;
use rtsm_app::ApplicationSpec;
use rtsm_platform::{PlatformError, PlatformTransaction};
use std::collections::BTreeMap;
use std::sync::Arc;

/// One application a [`Plan`] places.
#[derive(Debug)]
pub(super) struct Placement<'a> {
    /// The running application this re-places, released before anything is
    /// placed, with the [`Demand`] of its record's own specification (what
    /// its reservations were committed with — for a
    /// [`switch`](super::RuntimeManager::switch), not `demand`); `None` for
    /// an arrival.
    pub replaces: Option<(AppHandle, &'a Demand)>,
    /// What is placed (for a [`switch`](super::RuntimeManager::switch): the new
    /// specification, not the record's). Borrowed: a migration search
    /// stages the same victim in plan after plan, and only
    /// [`adopt`] needs a handle of its own.
    pub spec: &'a Arc<ApplicationSpec>,
    /// What the mapping must honour.
    pub constraints: &'a MappingConstraints,
    /// `spec`'s [`Demand`], which lets [`Plan::stage`] turn the placement
    /// away without asking the algorithm when it
    /// [cannot fit](Demand::cannot_fit), and holds the reservations its
    /// mapping is staged with.
    pub demand: &'a Demand,
    /// The mapping: filled in by the first [`Plan::stage`], staged verbatim
    /// by a later one. The search trace is dropped as soon as it is mapped,
    /// so neither a kept plan nor a long-lived manager accumulates
    /// per-admission search logs.
    pub outcome: Option<MappingOutcome>,
    /// Of a priced re-placement: how many processes change tile.
    pub processes_moved: usize,
    /// Of a priced re-placement: the state-transfer energy, in picojoules.
    pub transfer_energy_pj: u64,
}

impl<'a> Placement<'a> {
    /// A placement yet to be mapped.
    pub fn new(
        replaces: Option<(AppHandle, &'a Demand)>,
        spec: &'a Arc<ApplicationSpec>,
        constraints: &'a MappingConstraints,
        demand: &'a Demand,
    ) -> Self {
        Placement {
            replaces,
            spec,
            constraints,
            demand,
            outcome: None,
            processes_moved: 0,
            transfer_energy_pj: 0,
        }
    }
}

/// Releases plus ordered placements (see the [module docs](self)).
#[derive(Debug)]
pub(super) struct Plan<'a> {
    /// Placed first: the arrival, or the one application re-placed.
    pub first: Placement<'a>,
    /// Re-placed after it, in order: a migration plan's victims.
    pub rest: Vec<Placement<'a>>,
    /// Whether to price every re-placement's state transfer
    /// ([`CostModel::Energy`]'s [`CostModel::migration_cost`]) and sum the
    /// plan's energies, for the entry points that read them.
    pub priced: bool,
    /// Of a priced plan, once staged: total state-transfer energy.
    pub migration_energy_pj: u64,
    /// Of a priced plan, once staged: total per-period energy of the
    /// running set as the plan leaves it.
    pub steady_state_energy_pj: u64,
}

/// Where [`Plan::stage`] stopped; the placement's position is carried
/// because a migration search counts the re-maps it attempted.
#[derive(Debug)]
pub(super) enum StageError {
    /// The ledger does not hold a re-placed application's reservations.
    Release(PlatformError),
    /// The placement at this position has no mapping: it
    /// [cannot fit](Demand::cannot_fit) ([`MapError::CannotFit`], the
    /// algorithm not asked), or the algorithm found none.
    Rejected(usize, MapError),
    /// The placement's reservations did not fit the transaction's state.
    Commit(usize, PlatformError),
}

impl StageError {
    /// The admission failure this is, or the release failure it is instead.
    pub fn admission(self) -> Result<AdmissionError, PlatformError> {
        match self {
            StageError::Release(e) => Err(e),
            StageError::Rejected(_, e) => Ok(AdmissionError::Rejected(e)),
            StageError::Commit(_, e) => Ok(AdmissionError::CommitFailed(e)),
        }
    }
}

impl From<StageError> for RuntimeError {
    fn from(e: StageError) -> Self {
        e.admission()
            .map_or_else(RuntimeError::ReleaseFailed, RuntimeError::Admission)
    }
}

impl<'a> Plan<'a> {
    /// An unpriced plan of one placement.
    pub fn of(first: Placement<'a>) -> Self {
        Plan {
            first,
            rest: Vec::new(),
            priced: false,
            migration_energy_pj: 0,
            steady_state_energy_pj: 0,
        }
    }

    /// Whether `policy` lets this staged, priced plan commit: its transfer
    /// energy against what its first placement — the application the plan
    /// admits or relocates — consumes per period.
    pub fn admitted_by(&self, policy: &AdmissionPolicy) -> bool {
        let placed = self.first.outcome.as_ref().expect("staged");
        policy.admits(self.migration_energy_pj, placed.energy_pj)
    }

    /// This staged, priced plan's score under `objective`.
    pub fn score(&self, objective: &ReconfigurationObjective) -> u64 {
        objective.score(self.steady_state_energy_pj, self.migration_energy_pj)
    }

    /// Stages the whole plan into `tx` (see the [module docs](self) for
    /// what is guaranteed) and fills in each placement's outcome and, when
    /// the plan is priced, its move and the plan's energy sums. On an error
    /// the operations staged so far stay in `tx`; the caller drops it.
    ///
    /// Inlined into its four callers: behind a call, a refused one-placement
    /// plan (the commonest outcome of `start` under overload) cost some
    /// 90 ns more than the hand-written sequence it replaced; inlined, the
    /// plan never leaves registers and the two are on par.
    ///
    /// # Panics
    ///
    /// If a placement's handle is not in `running`.
    #[inline(always)]
    pub fn stage<A: MappingAlgorithm>(
        &mut self,
        algorithm: &A,
        running: &BTreeMap<AppHandle, RunningApp>,
        tx: &mut PlatformTransaction<'_>,
    ) -> Result<(), StageError> {
        let replaced = |replaces: Option<(AppHandle, &'a Demand)>| {
            replaces.map(|(handle, held)| (&running[&handle], held))
        };
        for (app, held) in std::iter::once(&self.first)
            .chain(&self.rest)
            .filter_map(|placement| replaced(placement.replaces))
        {
            (app.outcome)
                .stage_release_reserving(held.reservations(&app.outcome.mapping), tx)
                .map_err(StageError::Release)?;
        }
        let mut migration_energy_pj = 0u64;
        let mut steady_state_energy_pj = if self.priced {
            running.values().map(|app| app.outcome.energy_pj).sum()
        } else {
            0
        };
        let placements = std::iter::once(&mut self.first).chain(&mut self.rest);
        for (at, placement) in placements.enumerate() {
            let outcome = match &mut placement.outcome {
                Some(outcome) => outcome,
                unmapped => {
                    if let Some(refusal) = fit::rules_out(
                        placement.demand,
                        placement.spec,
                        tx.platform(),
                        tx.state(),
                        placement.constraints,
                    ) {
                        return Err(StageError::Rejected(at, refusal));
                    }
                    let mut outcome = algorithm
                        .map_constrained(
                            placement.spec,
                            tx.platform(),
                            tx.state(),
                            placement.constraints,
                        )
                        .map_err(|e| StageError::Rejected(at, e))?;
                    outcome.trace = None;
                    unmapped.insert(outcome)
                }
            };
            let reservations = placement.demand.reservations(&outcome.mapping);
            outcome
                .stage_commit_reserving(reservations, tx)
                .map_err(|e| StageError::Commit(at, e))?;
            if self.priced {
                if let Some((app, _)) = replaced(placement.replaces) {
                    (placement.processes_moved, placement.transfer_energy_pj) = CostModel::Energy
                        .migration_cost(
                            &app.spec,
                            tx.platform(),
                            &app.outcome.mapping,
                            &outcome.mapping,
                        );
                    migration_energy_pj += placement.transfer_energy_pj;
                    steady_state_energy_pj =
                        steady_state_energy_pj.saturating_sub(app.outcome.energy_pj);
                }
                steady_state_energy_pj = steady_state_energy_pj.saturating_add(outcome.energy_pj);
            }
        }
        self.migration_energy_pj = migration_energy_pj;
        self.steady_state_energy_pj = steady_state_energy_pj;
        Ok(())
    }
}

/// Writes one placement of a *committed* plan into `running` — the only
/// place a record is created or overwritten. An arrival is allotted
/// `next_handle`; a re-placement keeps its handle, takes the placement's
/// specification and hands back the outcome it replaces. A function of the
/// two fields rather than a method, so the plan's placements may borrow the
/// manager's [`Demands`](super::fit::Demands) meanwhile.
pub(super) fn adopt(
    running: &mut BTreeMap<AppHandle, RunningApp>,
    next_handle: &mut u64,
    placement: Placement<'_>,
) -> (AppHandle, Option<MappingOutcome>) {
    let spec = placement.spec.clone();
    let outcome = placement.outcome.expect("adopted plans were staged");
    match placement.replaces {
        Some((handle, _)) => {
            let record = running
                .get_mut(&handle)
                .expect("plans name running applications");
            record.spec = spec;
            (
                handle,
                Some(std::mem::replace(&mut record.outcome, outcome)),
            )
        }
        None => {
            let handle = AppHandle(*next_handle);
            *next_handle += 1;
            running.insert(handle, RunningApp { spec, outcome });
            (handle, None)
        }
    }
}
