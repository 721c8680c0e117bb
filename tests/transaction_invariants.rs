//! The transactional contract of [`PlatformTransaction`], checked against
//! a naive model: for *any* interleaving of claims, releases, link and
//! path (de)allocations — including operations that fail mid-path, and
//! tiles and links failed and repaired between transactions — a committed
//! transaction leaves the ledger byte-identical to applying the successful
//! operations directly, and an aborted (or dropped) one leaves it
//! byte-identical to the snapshot taken before it. Every sequence runs
//! through [`PlatformTransaction::begin`] and through
//! [`PlatformTransaction::over`] with a spare that starts empty, stale, or
//! sized for another platform. The model stages a path link by link and NI
//! by NI on a copy of its ledger, and keeps the copy only if every step
//! succeeded; it shares no code with [`PlatformState::allocate_path`] and
//! [`PlatformState::release_path`] but the single-resource primitives.
//!
//! The one ledger query that answers for a release it does not make,
//! [`PlatformState::fits_after_vacating`], is checked against making the
//! release inside a transaction and dropping it. A ledger refreshed in
//! place with `clone_from` equals a fresh clone of its source, whichever
//! platforms the two belong to.
//!
//! Mutations tried by hand, each caught by
//! `any_interleaving_matches_naive_replay`: skipping the swap on drop;
//! leaving out the unwinding of the injection claim when
//! `allocate_path`'s ejection claim fails; leaving out the unwinding of
//! the released links when `release_path`'s injection release fails.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use rtsm::platform::paper::paper_platform;
use rtsm::platform::{
    routing, Coord, LinkId, NocParams, Path, Platform, PlatformBuilder, PlatformState,
    PlatformTransaction, TileClaim, TileId, TileKind,
};
use rtsm::workloads::mesh_platform;

/// A deliberately tight platform so random operations fail often: 2-slot
/// tiles, 4 KiB memory, small NI and link budgets.
fn tight_platform() -> Platform {
    PlatformBuilder::mesh(2, 2)
        .noc(NocParams {
            hop_latency_cycles: 4,
            clock_mhz: 200,
            link_capacity: 5_000,
        })
        .tile_defaults(200, 2, 4096, 10_000)
        .tile("a", TileKind::Arm, Coord { x: 0, y: 0 })
        .tile("b", TileKind::Arm, Coord { x: 1, y: 0 })
        .tile("c", TileKind::Arm, Coord { x: 0, y: 1 })
        .tile("d", TileKind::Arm, Coord { x: 1, y: 1 })
        .build()
        .unwrap()
}

fn random_claim(rng: &mut StdRng) -> TileClaim {
    TileClaim {
        slots: rng.random_range(0u64..3) as u32,
        memory_bytes: rng.random_range(0u64..3000),
        cycles_per_second: rng.random_range(0u64..150_000_000),
        injection: rng.random_range(0u64..8_000),
        ejection: rng.random_range(0u64..8_000),
    }
}

/// A claim of `injection` and `ejection` words/second and nothing else.
fn ni(injection: u64, ejection: u64) -> TileClaim {
    TileClaim {
        slots: 0,
        memory_bytes: 0,
        cycles_per_second: 0,
        injection,
        ejection,
    }
}

/// The model of a path operation: `step` applied to each link, then the
/// injection claim at the source and the ejection claim at the
/// destination, on a copy of `ledger` that replaces it only if every step
/// succeeded.
fn naive_path(
    ledger: &mut PlatformState,
    path: &Path,
    mut link: impl FnMut(&mut PlatformState, LinkId) -> bool,
    mut tile: impl FnMut(&mut PlatformState, TileId, &TileClaim) -> bool,
) -> bool {
    let mut copy = ledger.clone();
    let whole = path.links.iter().all(|&l| link(&mut copy, l))
        && tile(&mut copy, path.from, &ni(path.demand, 0))
        && tile(&mut copy, path.to, &ni(0, path.demand));
    if whole {
        *ledger = copy;
    }
    whole
}

/// Applies one random operation to both the transaction and the naive
/// model, asserting they agree on success/failure.
fn apply_random_op(
    platform: &Platform,
    rng: &mut StdRng,
    tx: &mut PlatformTransaction<'_>,
    naive: &mut PlatformState,
) {
    let tile = TileId::from_index(rng.random_range(0usize..platform.n_tiles()));
    let links: Vec<_> = platform.links().map(|(id, _)| id).collect();
    match rng.random_range(0usize..6) {
        0 => {
            let claim = random_claim(rng);
            let a = tx.claim_tile(tile, &claim).is_ok();
            let b = naive.claim_tile(platform, tile, &claim).is_ok();
            prop_assert_eq!(a, b, "claim_tile outcome diverged");
        }
        1 => {
            let claim = random_claim(rng);
            let a = tx.release_tile(tile, &claim).is_ok();
            let b = naive.release_tile(tile, &claim).is_ok();
            prop_assert_eq!(a, b, "release_tile outcome diverged");
        }
        2 => {
            let link = links[rng.random_range(0usize..links.len())];
            let demand = rng.random_range(0u64..4_000);
            let a = tx.allocate_link(link, demand).is_ok();
            let b = naive.allocate_link(platform, link, demand).is_ok();
            prop_assert_eq!(a, b, "allocate_link outcome diverged");
        }
        3 => {
            let link = links[rng.random_range(0usize..links.len())];
            let demand = rng.random_range(0u64..4_000);
            let a = tx.release_link(link, demand).is_ok();
            let b = naive.release_link(link, demand).is_ok();
            prop_assert_eq!(a, b, "release_link outcome diverged");
        }
        4 => {
            // Allocate a whole routed path — the composite operation the
            // mapping commit path uses — routed on the staged ledger (it
            // fits) or on an idle one (it may fail at any step).
            let from = TileId::from_index(rng.random_range(0usize..platform.n_tiles()));
            let to = TileId::from_index(rng.random_range(0usize..platform.n_tiles()));
            let demand = rng.random_range(1u64..4_000);
            let idle = platform.initial_state();
            let on = if rng.random_bool(0.5) {
                tx.state()
            } else {
                &idle
            };
            if let Ok(path) = routing::route(platform, on, from, to, demand) {
                let a = tx.allocate_path(&path).is_ok();
                let b = naive_path(
                    naive,
                    &path,
                    |l, link| l.allocate_link(platform, link, path.demand).is_ok(),
                    |l, tile, claim| l.claim_tile(platform, tile, claim).is_ok(),
                );
                prop_assert_eq!(a, b, "allocate_path outcome diverged");
            }
        }
        _ => {
            // Release a (probably unallocated) path: some links release
            // and a later step fails, and the whole release must not
            // happen.
            let from = TileId::from_index(rng.random_range(0usize..platform.n_tiles()));
            let to = TileId::from_index(rng.random_range(0usize..platform.n_tiles()));
            let demand = rng.random_range(1u64..2_000);
            if let Ok(path) = routing::route(platform, &platform.initial_state(), from, to, demand)
            {
                let a = tx.release_path(&path).is_ok();
                let b = naive_path(
                    naive,
                    &path,
                    |l, link| l.release_link(link, path.demand).is_ok(),
                    |l, tile, claim| l.release_tile(tile, claim).is_ok(),
                );
                prop_assert_eq!(a, b, "release_path outcome diverged");
            }
        }
    }
}

/// Fails or repairs one random tile or link of `ledger`, or leaves it be:
/// health changes between transactions, never inside one.
fn random_health_change(platform: &Platform, rng: &mut StdRng, ledger: &mut PlatformState) {
    let tile = TileId::from_index(rng.random_range(0usize..platform.n_tiles()));
    let links: Vec<_> = platform.links().map(|(id, _)| id).collect();
    let link = links[rng.random_range(0usize..links.len())];
    match rng.random_range(0usize..6) {
        0 => drop(ledger.fail_tile(tile)),
        1 => drop(ledger.repair_tile(tile)),
        2 => drop(ledger.fail_link(link)),
        3 => drop(ledger.repair_link(link)),
        _ => {}
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Chunks of random operations run inside transactions that randomly
    /// commit or abort, each chunk four times from the same ledger: with
    /// `begin`'s own spare, and `over` an empty spare, a spare kept across
    /// the chunks (stale: whatever the last transaction left in it) and a
    /// random ledger of a larger platform. After every chunk the ledger is
    /// byte-identical to the naive model.
    #[test]
    fn any_interleaving_matches_naive_replay(seed in 0u64..400) {
        let platform = tight_platform();
        let foreign = [paper_platform(), mesh_platform(seed, 4, 4, &[(TileKind::Arm, 6)])];
        let mut rng = StdRng::seed_from_u64(seed);
        let mut ledger = platform.initial_state();
        let mut stale = random_ledger(&platform, &mut rng);

        for _chunk in 0..8 {
            random_health_change(&platform, &mut rng, &mut ledger);
            let chunk_seed: u64 = rng.random();
            let n_ops = rng.random_range(0usize..10);
            let commit = rng.random_bool(0.5);
            let explicit_abort = rng.random_bool(0.5);
            let mut after = None;
            for spare in ["owned", "empty", "stale", "foreign"] {
                // The same operations whatever the spare.
                let mut ops = StdRng::seed_from_u64(chunk_seed);
                let (mut real, mut naive) = (ledger.clone(), ledger.clone());
                let mut lent = match spare {
                    "foreign" => random_ledger(&foreign[chunk_seed as usize % 2], &mut ops.clone()),
                    _ => PlatformState::default(),
                };
                {
                    let mut tx = match spare {
                        "owned" => PlatformTransaction::begin(&platform, &mut real),
                        "stale" => PlatformTransaction::over(&platform, &mut real, &mut stale),
                        _ => PlatformTransaction::over(&platform, &mut real, &mut lent),
                    };
                    for _ in 0..n_ops {
                        apply_random_op(&platform, &mut ops, &mut tx, &mut naive);
                        prop_assert!(
                            tx.state() == &naive,
                            "mid-transaction state diverged from naive replay ({spare}, seed {seed})"
                        );
                    }
                    if commit {
                        tx.commit();
                    } else if explicit_abort {
                        tx.abort();
                    }
                    // else: dropped here without commit — the implicit abort.
                }
                let expected = if commit { naive } else { ledger.clone() };
                prop_assert!(
                    real == expected,
                    "post-transaction ledger diverged ({spare}, seed {seed}, commit {commit})"
                );
                // Byte-identical, not merely structurally equal.
                let real_json = serde_json::to_string(&real).expect("serialize");
                let expected_json = serde_json::to_string(&expected).expect("serialize");
                prop_assert_eq!(real_json, expected_json);
                after = Some(expected);
            }
            ledger = after.expect("four runs");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// On random ledgers, failed tiles included, `fits_after_vacating`
    /// answers what releasing the vacated claim, asking `fits_tile` and
    /// claiming it back would, and leaves the ledger as it found it.
    #[test]
    fn fits_after_vacating_is_release_then_fits_tile(seed in 0u64..400) {
        let platform = tight_platform();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut ledger = platform.initial_state();
        let nothing = TileClaim {
            slots: 0,
            memory_bytes: 0,
            cycles_per_second: 0,
            injection: 0,
            ejection: 0,
        };
        // What each tile holds, claim by claim; then one tile in four fails.
        let mut held: Vec<Vec<TileClaim>> = vec![vec![nothing]; platform.n_tiles()];
        for _ in 0..rng.random_range(0usize..10) {
            let tile = TileId::from_index(rng.random_range(0usize..platform.n_tiles()));
            let claim = random_claim(&mut rng);
            if ledger.claim_tile(&platform, tile, &claim).is_ok() {
                held[tile.index()].push(claim);
            }
        }
        for (tile, _) in platform.tiles() {
            if rng.random_bool(0.25) {
                ledger.fail_tile(tile);
            }
        }

        for _ in 0..16 {
            let tile = TileId::from_index(rng.random_range(0usize..platform.n_tiles()));
            let on_tile = &held[tile.index()];
            let vacated = on_tile[rng.random_range(0usize..on_tile.len())];
            let claim = random_claim(&mut rng);
            let before = ledger.clone();
            let answer = ledger.fits_after_vacating(&platform, tile, &vacated, &claim);
            prop_assert!(ledger == before, "the query moved the ledger (seed {seed})");
            let expected = {
                // Dropping the transaction swaps the ledger back, on a
                // failed tile too.
                let mut tx = PlatformTransaction::begin(&platform, &mut ledger);
                tx.release_tile(tile, &vacated).expect("the tile holds it");
                tx.state().fits_tile(&platform, tile, &claim)
            };
            prop_assert!(ledger == before, "the dropped release moved the ledger (seed {seed})");
            prop_assert_eq!(
                answer,
                expected,
                "{vacated:?} off {tile:?} for {claim:?} (seed {seed})"
            );
        }
    }
}

/// A random ledger of `platform`: random claims and link allocations (those
/// that fit), then each tile and each link failed with probability ¼.
fn random_ledger(platform: &Platform, rng: &mut StdRng) -> PlatformState {
    let mut ledger = platform.initial_state();
    let links: Vec<_> = platform.links().map(|(id, _)| id).collect();
    for _ in 0..rng.random_range(0usize..24) {
        let tile = TileId::from_index(rng.random_range(0usize..platform.n_tiles()));
        let _ = ledger.claim_tile(platform, tile, &random_claim(rng));
        let link = links[rng.random_range(0usize..links.len())];
        let _ = ledger.allocate_link(platform, link, rng.random_range(0u64..4_000));
    }
    for (tile, _) in platform.tiles() {
        if rng.random_bool(0.25) {
            ledger.fail_tile(tile);
        }
    }
    for &link in &links {
        if rng.random_bool(0.25) {
            ledger.fail_link(link);
        }
    }
    ledger
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `a.clone_from(&b)` is `b.clone()` for random ledgers of platforms of
    /// 4 to 25 tiles, so the copy's vectors grow, shrink or keep their
    /// length; a refresh from a ledger of the copy's own platform is one
    /// too.
    #[test]
    fn clone_from_is_a_fresh_clone_across_platforms(seed in 0u64..400) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mix = [(TileKind::Montium, 4), (TileKind::Arm, 4), (TileKind::Dsp, 2)];
        let platforms = [
            tight_platform(),
            paper_platform(),
            mesh_platform(seed, 4, 4, &mix),
            mesh_platform(seed, 5, 5, &mix),
        ];
        let ledgers: Vec<PlatformState> =
            platforms.iter().map(|p| random_ledger(p, &mut rng)).collect();
        for target in &ledgers {
            for source in &ledgers {
                let mut copy = target.clone();
                copy.clone_from(source);
                prop_assert!(copy == source.clone(), "seed {seed}");
                prop_assert_eq!(
                    serde_json::to_string(&copy).expect("serialize"),
                    serde_json::to_string(source).expect("serialize")
                );
            }
        }
        for (platform, ledger) in platforms.iter().zip(&ledgers) {
            let mut copy = ledger.clone();
            let other = random_ledger(platform, &mut rng);
            copy.clone_from(&other);
            prop_assert!(copy == other, "seed {seed}: same platform");
        }
    }
}
