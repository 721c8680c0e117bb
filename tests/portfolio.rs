//! The `PortfolioMapper` acceptance properties, cross-crate:
//!
//! * **portfolio ≤ best member, per admission** (property test): on every
//!   registered catalog, every arrival the portfolio blocks is replayed through each
//!   standalone member on the identical platform state and must be
//!   unmappable by all of them. This is the state-for-state form of
//!   "portfolio blocking never exceeds the best single member's" —
//!   whole-trajectory blocking comparisons diverge as soon as one
//!   admission differs, so the gate holds where the comparison is
//!   actually like for like.
//! * **template-library composition**: `TemplatedMapper<PortfolioMapper>`
//!   seeds, hits, and keeps the portfolio's display name.

use proptest::prelude::*;
use rtsm::app::ApplicationSpec;
use rtsm::baselines::portfolio::MEMBERS;
use rtsm::baselines::PortfolioMapper;
use rtsm::core::{MapError, MappingAlgorithm, MappingConstraints, MappingOutcome, TemplatedMapper};
use rtsm::exp::{resolve_catalog, VALID_CATALOGS};
use rtsm::platform::paper::paper_platform;
use rtsm::platform::{Platform, PlatformState};
use rtsm::sim::{run_sim, SimConfig};
use std::cell::Cell;

/// Delegates mapping to the portfolio (so the simulated trajectory is
/// exactly the portfolio's) and, on every blocked admission, replays all
/// standalone members against the same platform state, counting blocks
/// any member could have recovered.
struct MemberCoverage {
    recoverable_blocks: Cell<u64>,
}

impl MappingAlgorithm for MemberCoverage {
    fn name(&self) -> &str {
        PortfolioMapper.name()
    }

    fn map_constrained(
        &self,
        spec: &ApplicationSpec,
        platform: &Platform,
        base: &PlatformState,
        constraints: &MappingConstraints,
    ) -> Result<MappingOutcome, MapError> {
        let result = PortfolioMapper.map_constrained(spec, platform, base, constraints);
        if result.is_err() {
            let recovered = MEMBERS.iter().any(|build| {
                build()
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// On every catalog, under randomized arrival sequences, the
    /// portfolio blocks an arrival only when *every* standalone member
    /// also fails on the identical platform state.
    #[test]
    fn portfolio_blocks_only_what_every_member_blocks(
        catalog_ix in 0usize..VALID_CATALOGS.len(),
        seed in 0u64..10_000,
    ) {
        let resolved = resolve_catalog(VALID_CATALOGS[catalog_ix], 42)
            .expect("registered catalog");
        let gated = MemberCoverage {
            recoverable_blocks: Cell::new(0),
        };
        let config = SimConfig {
            seed,
            arrivals: 40,
            ..SimConfig::default()
        };
        let run = run_sim(&resolved.platform, &gated, &resolved.catalog, &config)
            .expect("the simulation never breaks its own ledger");
        prop_assert!(run.report.blocked + run.report.admitted > 0);
        prop_assert_eq!(
            gated.recoverable_blocks.get(),
            0,
            "portfolio blocked an arrival a member could map on `{}` (seed {})",
            VALID_CATALOGS[catalog_ix],
            seed
        );
    }
}

/// The portfolio composes with the design-time template library: the
/// first admission of a spec seeds and learns a shape, a repeat admission
/// on the same state is a template hit, and the wrapper keeps the
/// portfolio's display name so reports stay comparable.
#[test]
fn portfolio_composes_with_the_template_library() {
    use rtsm::app::hiperlan2::{hiperlan2_receiver, Hiperlan2Mode};

    let platform = paper_platform();
    let base = platform.initial_state();
    let templated = TemplatedMapper::new(PortfolioMapper);
    assert_eq!(templated.name(), "portfolio (budget-raced)");

    let spec = hiperlan2_receiver(Hiperlan2Mode::Qpsk34);
    let first = templated
        .map(&spec, &platform, &base)
        .expect("feasible on the empty platform");
    assert!(first.feasible);
    let after_first = templated.stats();
    assert!(after_first.seeded >= 1, "first arrival seeds the library");

    let second = templated
        .map(&spec, &platform, &base)
        .expect("still feasible on the empty platform");
    assert!(second.feasible);
    let after_second = templated.stats();
    assert!(
        after_second.hits > after_first.hits,
        "repeat admission on the same state must hit the template library"
    );
}
