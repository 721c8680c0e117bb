//! Step 1: assign implementations to processes (§3.1).
//!
//! Implementations that cannot fit on any tile are discarded up front
//! ("we only consider those implementations for which an adhering mapping
//! exists"). The remaining choice is made iteratively by *desirability*:
//! the difference between a process's cheapest and second-cheapest option —
//! "if the alternative is more expensive, the desirability to map the
//! process 'now' increases". A process with a single surviving option is
//! maximally desirable; ties break on application (topological) order. The
//! chosen process takes its cheapest implementation and is packed
//! *first-fit* onto the first tile (in tile-id order) of the right type
//! with sufficient resources.
//!
//! Each round asks every unassigned process's every implementation for its
//! first fit, so the answer must be cheap: claims are read off the
//! [`SpecTable`], each slot's first fit is probed once and probed again
//! only after a placement on the very tile it named (the private `Fit`),
//! the up-front discard is what that first probe found, and the round
//! tracks the cheapest and second-cheapest option as it goes instead of
//! collecting and sorting them.
//!
//! # One attempt, from its inputs alone
//!
//! A `map` call runs step 1 once per refinement attempt (§3), and an
//! attempt's result depends on nothing but the spec, the platform, the
//! base ledger and the constraints it is given: the constraint set is the
//! refinement's only memory. [`Step1`] is step 1 for the whole call only so
//! that the attempts share their buffers — the slot states, the unassigned
//! list, the decision log and the working ledger, which an attempt's first
//! placement refreshes from the base ledger. An attempt after the first
//! allocates nothing, and a call refused in its first round, with nothing
//! placed, copies no ledger at all.
//!
//! The [`Mapping`] is built from the decision log only when an attempt
//! succeeds, and a dead end is a [`DeadEnd`] — two ids — whose feedback
//! list (with its formatted diagnosis) is built only for whoever reads it.

use crate::claims::reservation_of;
use crate::feedback::{Constraints, Feedback};
use crate::mapping::Mapping;
use crate::spec_table::SpecTable;
use crate::trace::Step1Event;
use rtsm_app::{ApplicationSpec, ProcessId};
use rtsm_platform::{Platform, PlatformState, TileId};

/// Successful step-1 result.
#[derive(Debug, Clone, PartialEq)]
pub struct Step1Output {
    /// The greedy mapping (assignments only; no routes yet).
    pub mapping: Mapping,
    /// `base` plus this mapping's tile reservations.
    pub working: PlatformState,
    /// Decision log.
    pub events: Vec<Step1Event>,
}

/// Step-1 dead end: a process ran out of viable options.
#[derive(Debug, Clone, PartialEq)]
pub struct Step1Failure {
    /// The process that could not be assigned.
    pub process: ProcessId,
    /// Feedback for the refinement driver.
    pub feedback: Vec<Feedback>,
}

/// A step-1 dead end before anyone asked for its feedback list: the process
/// that ran out of viable options, and the most recent placement (it
/// consumed the resource that process needed), if anything was placed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeadEnd {
    /// The process that could not be assigned.
    pub process: ProcessId,
    /// The attempt's last placement before the dead end.
    pub last_placement: Option<(ProcessId, TileId)>,
}

impl DeadEnd {
    /// The one actionable item of [`DeadEnd::feedback`]: forbid the most
    /// recent placement, so the next attempt packs differently.
    pub fn forbid(&self) -> Option<Feedback> {
        self.last_placement
            .map(|(process, tile)| Feedback::ForbidTile { process, tile })
    }

    /// The feedback list of this dead end: the diagnosis, then
    /// [`DeadEnd::forbid`].
    pub fn feedback(&self, spec: &ApplicationSpec) -> Vec<Feedback> {
        let mut feedback = Vec::with_capacity(2);
        feedback.push(Feedback::Infeasible {
            detail: format!(
                "process `{}` has no viable implementation left in step 1",
                spec.graph.process(self.process).name
            ),
        });
        feedback.extend(self.forbid());
        feedback
    }
}

/// First tile (id order) of the implementation's kind that fits the claim
/// and is not forbidden.
fn first_fit(
    table: &SpecTable<'_>,
    platform: &Platform,
    state: &PlatformState,
    constraints: &Constraints,
    process: ProcessId,
    impl_index: usize,
) -> Option<TileId> {
    let claim = table.claim(process, impl_index);
    platform
        .tiles_of_kind(table.implementation(process, impl_index).tile_kind)
        .find(|(tile, _)| {
            !constraints.is_tile_forbidden(process, *tile)
                && state.fits_tile(platform, *tile, &claim)
        })
        .map(|(tile, _)| tile)
}

/// What is known about the [`first_fit`] of one (process, implementation)
/// slot in the attempt in progress. The working ledger only fills up during
/// an attempt, and a claim on one tile changes no other tile's capacity, so
/// a cached answer stays exact until a placement lands on the tile it names
/// — and "fits nowhere" stays true for good.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Fit {
    /// Not asked yet.
    Unprobed,
    /// Discarded up front ("we only consider those implementations for
    /// which an adhering mapping exists"): excluded by feedback, or fits
    /// nowhere even on the untouched base ledger.
    Never,
    /// Viable, and this is its first fit on the working ledger (`None`: no
    /// tile has room any more).
    Now(Option<TileId>),
    /// Viable; a placement has since landed on the tile it named.
    Stale,
}

/// Step 1 for one `map` call: [`Step1::attempt`] once per refinement
/// attempt, against one spec, platform and base ledger. Each attempt is a
/// function of its constraints alone; between attempts only the buffers
/// are kept (see the [module docs](self)).
#[derive(Debug)]
pub struct Step1<'a> {
    table: &'a SpecTable<'a>,
    platform: &'a Platform,
    base: &'a PlatformState,
    fits: Vec<Fit>,
    /// The working ledger's buffer: `None` until a placement needs it, and
    /// after a success took it.
    working: Option<PlatformState>,
    unassigned: Vec<ProcessId>,
    events: Vec<Step1Event>,
}

impl<'a> Step1<'a> {
    /// Step 1 of `table`'s spec on (`platform`, `base`); allocates nothing
    /// until the first attempt.
    pub fn new(table: &'a SpecTable<'a>, platform: &'a Platform, base: &'a PlatformState) -> Self {
        Step1 {
            table,
            platform,
            base,
            fits: Vec::new(),
            working: None,
            unassigned: Vec::new(),
            events: Vec::new(),
        }
    }

    /// Runs one attempt under `constraints`. On success the working ledger
    /// leaves with the output (steps 2–4 write routes and buffers into it);
    /// an attempt after that copies the base ledger afresh.
    ///
    /// # Errors
    ///
    /// [`DeadEnd`] when a process has no viable option.
    pub fn attempt(&mut self, constraints: &Constraints) -> Result<Step1Output, DeadEnd> {
        let Step1 {
            table,
            platform,
            base,
            fits,
            working,
            unassigned,
            events,
        } = self;
        let (table, platform, base) = (*table, *platform, *base);
        let spec = table.spec();

        fits.clear();
        fits.resize(table.n_slots(), Fit::Unprobed);
        events.clear();
        // Kept in application (topological) order, so among equally desirable
        // processes the first one scanned is the tie-break winner.
        unassigned.clear();
        unassigned.extend(table.order());

        while !unassigned.is_empty() {
            // Desirability of each unassigned process under the current state.
            let mut best: Option<(u64, ProcessId, usize, TileId)> = None;
            for &process in unassigned.iter() {
                // The cheapest option still placeable (cost = the
                // implementation's processing energy; communication is unknown
                // before tiles are fixed; ties go to the lower index) and the
                // cost of the runner-up.
                let mut cheapest: Option<(u64, usize, TileId)> = None;
                let mut runner_up: Option<u64> = None;
                for (ix, implementation) in spec.library.impls_for(process).iter().enumerate() {
                    let probe = |state: &PlatformState| {
                        first_fit(table, platform, state, constraints, process, ix)
                    };
                    let slot = &mut fits[table.slot(process, ix)];
                    let fit = match *slot {
                        Fit::Never => None,
                        Fit::Now(fit) => fit,
                        Fit::Stale => {
                            let working = working.as_ref().expect("a placement made it stale");
                            let fit = probe(working);
                            *slot = Fit::Now(fit);
                            fit
                        }
                        Fit::Unprobed => {
                            // Each round scans every unassigned process, so
                            // only the first round meets an unprobed slot.
                            debug_assert!(events.is_empty(), "nothing is placed yet");
                            let fit = if constraints.is_impl_excluded(process, ix) {
                                None
                            } else {
                                probe(base)
                            };
                            *slot = if fit.is_some() {
                                Fit::Now(fit)
                            } else {
                                Fit::Never
                            };
                            fit
                        }
                    };
                    let Some(tile) = fit else {
                        continue;
                    };
                    let cost = implementation.energy_pj_per_period;
                    match cheapest {
                        Some((c, _, _)) if cost >= c => {
                            runner_up = Some(runner_up.map_or(cost, |r| r.min(cost)));
                        }
                        _ => {
                            runner_up = cheapest.map(|(c, _, _)| c);
                            cheapest = Some((cost, ix, tile));
                        }
                    }
                }
                let Some((cost, impl_index, tile)) = cheapest else {
                    return Err(DeadEnd {
                        process,
                        last_placement: events.last().map(|e| (e.process, e.tile)),
                    });
                };
                let desirability = runner_up.map_or(u64::MAX, |r| r - cost);
                if best.is_none_or(|(d, ..)| desirability > d) {
                    best = Some((desirability, process, impl_index, tile));
                }
            }
            let (desirability, process, impl_index, tile) = best.expect("unassigned is non-empty");
            let ledger = match working {
                Some(ledger) if !events.is_empty() => ledger,
                // The attempt's first placement: the base ledger, copied
                // into the buffer an earlier attempt left, if any.
                Some(ledger) => {
                    ledger.clone_from(base);
                    ledger
                }
                None => working.insert(base.clone()),
            };
            ledger
                .claim_tile(
                    platform,
                    tile,
                    &reservation_of(&table.claim(process, impl_index)),
                )
                .expect("first_fit checked the claim fits");
            // Only `tile` lost capacity, so only the fits that named it can
            // have moved.
            for fit in fits.iter_mut() {
                if *fit == Fit::Now(Some(tile)) {
                    *fit = Fit::Stale;
                }
            }
            let options = (0..spec.library.impls_for(process).len())
                .filter(|ix| fits[table.slot(process, *ix)] != Fit::Never)
                .count();
            events.push(Step1Event {
                process,
                impl_index,
                tile,
                desirability,
                options,
            });
            unassigned.retain(|&p| p != process);
        }

        let mut mapping = Mapping::for_spec(table.spec());
        for e in events.iter() {
            mapping.assign(e.process, e.impl_index, e.tile);
        }
        Ok(Step1Output {
            mapping,
            working: working.take().unwrap_or_else(|| base.clone()),
            events: std::mem::take(events),
        })
    }
}

/// Runs step 1.
///
/// Builds its own [`SpecTable`]; callers that run several steps on one spec
/// build the table once and call [`assign_implementations_in`].
///
/// # Errors
///
/// [`Step1Failure`] when a process has no viable option; its feedback
/// forbids the most recent placement so the next refinement attempt packs
/// differently.
pub fn assign_implementations(
    spec: &ApplicationSpec,
    platform: &Platform,
    base: &PlatformState,
    constraints: &Constraints,
) -> Result<Step1Output, Step1Failure> {
    assign_implementations_in(&SpecTable::for_validated(spec), platform, base, constraints)
}

/// [`assign_implementations`] over a prebuilt [`SpecTable`]: a [`Step1`] of
/// one attempt.
///
/// # Errors
///
/// As for [`assign_implementations`].
pub fn assign_implementations_in(
    table: &SpecTable<'_>,
    platform: &Platform,
    base: &PlatformState,
    constraints: &Constraints,
) -> Result<Step1Output, Step1Failure> {
    Step1::new(table, platform, base)
        .attempt(constraints)
        .map_err(|dead_end| Step1Failure {
            process: dead_end.process,
            feedback: dead_end.feedback(table.spec()),
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtsm_app::hiperlan2::{hiperlan2_receiver, Hiperlan2Mode};
    use rtsm_platform::paper::paper_platform;
    use rtsm_platform::TileClaim;

    fn run_paper() -> (rtsm_app::ApplicationSpec, Platform, Step1Output) {
        let spec = hiperlan2_receiver(Hiperlan2Mode::Qpsk34);
        let platform = paper_platform();
        let out = assign_implementations(
            &spec,
            &platform,
            &platform.initial_state(),
            &Constraints::new(),
        )
        .expect("paper case step 1 succeeds");
        (spec, platform, out)
    }

    /// §4.4: "the 'Inverse OFDM' process is the most desirable. Thus, it is
    /// assigned … a MONTIUM. Likewise, the 'Remainder' … both remaining
    /// processes only have ARM implementations and are thus chosen per
    /// default."
    #[test]
    fn paper_assignment_order_and_tiles() {
        let (spec, platform, out) = run_paper();
        let name = |p: ProcessId| spec.graph.process(p).name.clone();
        let tile = |t: TileId| platform.tile(t).name.clone();
        let sequence: Vec<(String, String)> = out
            .events
            .iter()
            .map(|e| (name(e.process), tile(e.tile)))
            .collect();
        assert_eq!(
            sequence,
            vec![
                ("Inverse OFDM".to_string(), "MONTIUM1".to_string()),
                ("Remainder".to_string(), "MONTIUM2".to_string()),
                ("Prefix removal".to_string(), "ARM1".to_string()),
                ("Freq. off. correction".to_string(), "ARM2".to_string()),
            ]
        );
    }

    #[test]
    fn paper_initial_cost_is_eleven() {
        let (spec, platform, out) = run_paper();
        assert_eq!(out.mapping.communication_hops(&spec, &platform), 11);
    }

    #[test]
    fn desirability_ordering_matches_paper_narrative() {
        let (_, _, out) = run_paper();
        // On the 200 MHz paper platform the ARM implementations of Inverse
        // OFDM and Remainder exceed the cycle budget, so the step-1 filter
        // ("only … implementations for which an adhering mapping exists")
        // leaves them a single option each: maximal desirability, matching
        // the paper's "Inverse OFDM … is the most desirable" with the
        // application-order tie-break placing it before Remainder.
        assert_eq!(out.events[0].desirability, u64::MAX);
        assert_eq!(out.events[1].desirability, u64::MAX);
        // Pfx/Frq: also single-option by then (MONTIUMs full) → maximal.
        assert_eq!(out.events[2].desirability, u64::MAX);
        assert_eq!(out.events[3].desirability, u64::MAX);
        // The energy-gap desirability is still exercised: before the
        // MONTIUMs fill, Pfx and Frq had two options each with gaps of
        // 28 nJ and 29 nJ; the must-place processes outrank them.
        assert!(out.events[0].options >= 1);
    }

    #[test]
    fn occupied_montiums_push_everything_to_arm_failure() {
        // If both MONTIUMs are taken by another application, Inverse OFDM
        // and Remainder only have ARM options, which exceed the ARM cycle
        // budget — step 1 must fail with feedback rather than panic.
        let spec = hiperlan2_receiver(Hiperlan2Mode::Qpsk34);
        let platform = paper_platform();
        let mut base = platform.initial_state();
        for name in ["MONTIUM1", "MONTIUM2"] {
            base.claim_tile(
                &platform,
                platform.tile_by_name(name).unwrap(),
                &TileClaim {
                    slots: 1,
                    memory_bytes: 0,
                    cycles_per_second: 0,
                    injection: 0,
                    ejection: 0,
                },
            )
            .unwrap();
        }
        let err = assign_implementations(&spec, &platform, &base, &Constraints::new())
            .expect_err("ARM-only Inverse OFDM is not viable");
        assert!(!err.feedback.is_empty());
    }

    #[test]
    fn exclusion_constraint_respected() {
        let spec = hiperlan2_receiver(Hiperlan2Mode::Qpsk34);
        let platform = paper_platform();
        let pfx = spec.graph.process_by_name("Prefix removal").unwrap();
        let mut constraints = Constraints::new();
        // Exclude Prefix removal's ARM implementation (index 0): it must
        // now win a MONTIUM, displacing someone.
        constraints.absorb(&Feedback::ExcludeImplementation {
            process: pfx,
            impl_index: 0,
        });
        let out = assign_implementations(&spec, &platform, &platform.initial_state(), &constraints);
        match out {
            Ok(out) => {
                let a = out.mapping.assignment(pfx).unwrap();
                assert_eq!(a.impl_index, 1, "must pick the MONTIUM implementation");
            }
            Err(failure) => {
                // Equally acceptable: the displacement makes another process
                // unmappable, reported as feedback.
                assert!(!failure.feedback.is_empty());
            }
        }
    }

    #[test]
    fn forbidden_tile_changes_first_fit() {
        let spec = hiperlan2_receiver(Hiperlan2Mode::Qpsk34);
        let platform = paper_platform();
        let iofdm = spec.graph.process_by_name("Inverse OFDM").unwrap();
        let m1 = platform.tile_by_name("MONTIUM1").unwrap();
        let mut constraints = Constraints::new();
        constraints.absorb(&Feedback::ForbidTile {
            process: iofdm,
            tile: m1,
        });
        let out = assign_implementations(&spec, &platform, &platform.initial_state(), &constraints)
            .unwrap();
        let a = out.mapping.assignment(iofdm).unwrap();
        assert_eq!(platform.tile(a.tile).name, "MONTIUM2");
    }
}
