//! Integration tests for the design-time template library: every
//! template-admitted mapping must pass the *exact* feasibility checks its
//! heuristic twin would have run — resource claims and route capacities
//! (via `MappingOutcome::commit`), and the full step-4 QoS analysis
//! (`check_constraints` re-run from scratch on the instantiated mapping) —
//! and degraded platforms must never serve a shape that touches failed
//! hardware.

use proptest::prelude::*;
use rtsm_app::hiperlan2::{hiperlan2_receiver, Hiperlan2Mode};
use rtsm_core::step4::{check_constraints, Step4Config};
use rtsm_core::{MapperConfig, MappingAlgorithm, SpatialMapper, TemplatedMapper};
use rtsm_platform::paper::paper_platform;

const MODES: [Hiperlan2Mode; 6] = [
    Hiperlan2Mode::Bpsk12,
    Hiperlan2Mode::Bpsk34,
    Hiperlan2Mode::Qpsk12,
    Hiperlan2Mode::Qpsk34,
    Hiperlan2Mode::Qam16R916,
    Hiperlan2Mode::Qam16R34,
];

fn templated_paper_mapper() -> TemplatedMapper<SpatialMapper> {
    TemplatedMapper::new(SpatialMapper::new(
        MapperConfig::default().without_capture(),
    ))
}

proptest! {
    // Each case replays a full admission/release history, so a modest
    // case count already covers hits against empty, partially claimed,
    // and freshly vacated platform states.
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Ops < 6 admit that HIPERLAN/2 mode; ops ≥ 6 release the oldest
    /// running instance. Every admission the *template hit path* grants
    /// is re-verified the way the heuristic twin would have: the exact
    /// claims and route allocations must fit the live state, and a
    /// from-scratch step-4 analysis of the instantiated mapping must be
    /// feasible with the very period and buffer sizing the shape carried.
    #[test]
    fn template_hits_pass_the_heuristic_twins_feasibility_checks(
        ops in proptest::collection::vec(0usize..8, 1..14),
    ) {
        let platform = paper_platform();
        let tm = templated_paper_mapper();
        let mut state = platform.initial_state();
        let mut running = Vec::new();
        for &op in &ops {
            if op >= 6 {
                if !running.is_empty() {
                    running.remove(0);
                    // Claims are additive, so "release the oldest" is
                    // exactly "rebuild from the survivors".
                    state = platform.initial_state();
                    for (spec, outcome) in &running {
                        let outcome: &rtsm_core::MappingOutcome = outcome;
                        outcome
                            .commit(spec, &platform, &mut state)
                            .expect("surviving claims re-commit onto a fresh state");
                    }
                }
                continue;
            }
            let spec = hiperlan2_receiver(MODES[op]);
            let before = tm.stats();
            let Ok(outcome) = tm.map(&spec, &platform, &state) else {
                prop_assert!(
                    !running.is_empty(),
                    "an empty platform must admit every HIPERLAN/2 mode"
                );
                continue;
            };
            let hit = tm.stats().hits > before.hits;
            if hit {
                prop_assert!(outcome.feasible);
                prop_assert!(outcome.csdf.is_none(), "the hit path never composes a CSDF");
                // The heuristic twin's QoS machinery, re-run from scratch
                // on the instantiated mapping: same feasibility, same
                // achieved period, same buffer sizing.
                let twin = check_constraints(
                    &spec,
                    &platform,
                    &outcome.mapping,
                    &state,
                    &Step4Config::default(),
                )
                .verdict;
                prop_assert!(twin.feasible, "a template hit must satisfy step 4 exactly");
                prop_assert_eq!(twin.achieved_period, outcome.achieved_period);
                let key = |b: &rtsm_core::step4::ChannelBuffer| (b.channel.index(), b.capacity_words);
                let mut expected: Vec<_> = twin.buffers.iter().map(key).collect();
                let mut got: Vec<_> = outcome.buffers.iter().map(key).collect();
                expected.sort_unstable();
                got.sort_unstable();
                prop_assert_eq!(got, expected);
            }
            // Claims and route capacities: the exact reservations must fit
            // the live state (hit or miss alike — a template must never
            // hand out a mapping the ledger rejects).
            outcome
                .commit(&spec, &platform, &mut state)
                .expect("an admitted mapping's claims must fit the state it was mapped against");
            running.push((spec, outcome));
        }
    }
}

#[test]
fn degraded_platforms_never_serve_shapes_on_failed_tiles() {
    let platform = paper_platform();
    let tm = templated_paper_mapper();
    let spec = hiperlan2_receiver(Hiperlan2Mode::Qpsk34);
    let healthy = platform.initial_state();
    tm.map(&spec, &platform, &healthy)
        .expect("the paper case is mappable");
    assert!(
        tm.stats().shapes_cached > 0,
        "the first arrival seeds a shape"
    );

    // Fail each tile in turn: whatever the library serves on the degraded
    // state must avoid the failed tile, and pruning must invalidate every
    // shape that no longer instantiates.
    let mut total_invalidated = 0u64;
    for (tile, _) in platform.tiles() {
        let mut degraded = platform.initial_state();
        degraded.fail_tile(tile);
        if let Ok(outcome) = tm.map(&spec, &platform, &degraded) {
            for (_, assignment) in outcome.mapping.assignments() {
                assert_ne!(
                    assignment.tile, tile,
                    "a degraded admission placed a process on the failed tile"
                );
            }
        }
        total_invalidated += tm.prune_unfit(&spec, &platform, &degraded) as u64;
        // Healthy admissions afterwards re-seed whatever pruning removed.
        tm.map(&spec, &platform, &healthy)
            .expect("the healthy platform keeps admitting");
    }
    assert_eq!(
        tm.stats().invalidations,
        total_invalidated,
        "every pruned shape must be counted as an invalidation"
    );
}

#[test]
fn two_fresh_libraries_replay_identically() {
    // The determinism contract of the library: the same admission
    // sequence through two independent libraries yields identical
    // outcomes and identical statistics.
    let platform = paper_platform();
    let (a, b) = (templated_paper_mapper(), templated_paper_mapper());
    for mapper in [&a, &b] {
        let mut state = platform.initial_state();
        for mode in MODES {
            let spec = hiperlan2_receiver(mode);
            if let Ok(outcome) = mapper.map(&spec, &platform, &state) {
                outcome
                    .commit(&spec, &platform, &mut state)
                    .expect("admitted claims fit");
            }
        }
    }
    assert_eq!(a.stats(), b.stats());
}
