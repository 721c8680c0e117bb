//! The transactional contract of [`PlatformTransaction`], checked against
//! a naive model: for *any* interleaving of claims, releases, link and
//! path (de)allocations — including operations that fail mid-path, and
//! tiles and links failed and repaired between transactions — a committed
//! transaction leaves the ledger byte-identical to applying the successful
//! operations directly, and an aborted (or dropped) one leaves it
//! byte-identical to the snapshot taken before it. Every sequence runs
//! through [`PlatformTransaction::begin`] and through
//! [`PlatformTransaction::over`] with a spare that starts empty, stale, or
//! sized for another platform, four transactions in lockstep. The model stages a path link by link and NI
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
use rtsm::platform::paper::paper_platform;
use rtsm::platform::{
    routing, Coord, LinkId, NocParams, Path, Platform, PlatformBuilder, PlatformState,
    PlatformTransaction, TileClaim, TileId, TileKind,
};
use rtsm::workloads::mesh_platform;
use rtsm_testkit::any_ledger;

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

fn random_claim(tape: &mut Tape) -> TileClaim {
    TileClaim {
        slots: tape.draw(3),
        memory_bytes: (0u64..3000).generate(tape),
        cycles_per_second: (0u64..150_000_000).generate(tape),
        injection: (0u64..8_000).generate(tape),
        ejection: (0u64..8_000).generate(tape),
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

/// Applies one random operation to every transaction and to the naive
/// model, asserting they agree on success/failure.
fn apply_random_op(
    platform: &Platform,
    tape: &mut Tape,
    txs: &mut [PlatformTransaction<'_>],
    naive: &mut PlatformState,
) {
    let mut agree =
        |what: &str, expected: bool, op: &mut dyn FnMut(&mut PlatformTransaction<'_>) -> bool| {
            for tx in txs.iter_mut() {
                prop_assert_eq!(op(tx), expected, "{} outcome diverged", what);
            }
        };
    let n_tiles = platform.n_tiles() as u32;
    let tile = TileId::from_index(tape.draw(n_tiles) as usize);
    let links: Vec<_> = platform.links().map(|(id, _)| id).collect();
    match tape.draw(6) {
        0 => {
            let claim = random_claim(tape);
            let b = naive.claim_tile(platform, tile, &claim).is_ok();
            agree("claim_tile", b, &mut |tx| {
                tx.claim_tile(tile, &claim).is_ok()
            });
        }
        1 => {
            let claim = random_claim(tape);
            let b = naive.release_tile(tile, &claim).is_ok();
            agree("release_tile", b, &mut |tx| {
                tx.release_tile(tile, &claim).is_ok()
            });
        }
        2 => {
            let link = links[tape.draw(links.len() as u32) as usize];
            let demand = (0u64..4_000).generate(tape);
            let b = naive.allocate_link(platform, link, demand).is_ok();
            agree("allocate_link", b, &mut |tx| {
                tx.allocate_link(link, demand).is_ok()
            });
        }
        3 => {
            let link = links[tape.draw(links.len() as u32) as usize];
            let demand = (0u64..4_000).generate(tape);
            let b = naive.release_link(link, demand).is_ok();
            agree("release_link", b, &mut |tx| {
                tx.release_link(link, demand).is_ok()
            });
        }
        4 => {
            // Allocate a whole routed path — the composite operation the
            // mapping commit path uses — routed on the staged ledger (it
            // fits) or on an idle one (it may fail at any step).
            let from = TileId::from_index(tape.draw(n_tiles) as usize);
            let to = TileId::from_index(tape.draw(n_tiles) as usize);
            let demand = (1u64..4_000).generate(tape);
            let on = if tape.draw(2) == 0 {
                naive.clone()
            } else {
                platform.initial_state()
            };
            if let Ok(path) = routing::route(platform, &on, from, to, demand) {
                let b = naive_path(
                    naive,
                    &path,
                    |l, link| l.allocate_link(platform, link, path.demand).is_ok(),
                    |l, tile, claim| l.claim_tile(platform, tile, claim).is_ok(),
                );
                agree("allocate_path", b, &mut |tx| {
                    tx.allocate_path(&path).is_ok()
                });
            }
        }
        _ => {
            // Release a (probably unallocated) path: some links release
            // and a later step fails, and the whole release must not
            // happen.
            let from = TileId::from_index(tape.draw(n_tiles) as usize);
            let to = TileId::from_index(tape.draw(n_tiles) as usize);
            let demand = (1u64..2_000).generate(tape);
            if let Ok(path) = routing::route(platform, &platform.initial_state(), from, to, demand)
            {
                let b = naive_path(
                    naive,
                    &path,
                    |l, link| l.release_link(link, path.demand).is_ok(),
                    |l, tile, claim| l.release_tile(tile, claim).is_ok(),
                );
                agree("release_path", b, &mut |tx| tx.release_path(&path).is_ok());
            }
        }
    }
}

/// Fails or repairs one random tile or link of `ledger`, or leaves it be:
/// health changes between transactions, never inside one.
fn random_health_change(platform: &Platform, tape: &mut Tape, ledger: &mut PlatformState) {
    let tile = TileId::from_index(tape.draw(platform.n_tiles() as u32) as usize);
    let links: Vec<_> = platform.links().map(|(id, _)| id).collect();
    let link = links[tape.draw(links.len() as u32) as usize];
    match tape.draw(6) {
        1 => drop(ledger.fail_tile(tile)),
        2 => drop(ledger.repair_tile(tile)),
        3 => drop(ledger.fail_link(link)),
        4 => drop(ledger.repair_link(link)),
        _ => {}
    }
}

/// Chunks of random operations run inside transactions that randomly
/// commit or abort, each chunk in four transactions at once from the same
/// ledger: with `begin`'s own spare, and `over` an empty spare, a spare
/// kept across the chunks (stale: whatever the last transaction left in
/// it) and a random ledger of a larger platform. After every chunk the
/// ledgers are byte-identical to the naive model.
#[test]
fn any_interleaving_matches_naive_replay() {
    let platform = tight_platform();
    TestRunner::new(ProptestConfig::with_cases(48)).run(|tape| {
        let mix = [(TileKind::Arm, 6)];
        let foreign = [
            paper_platform(),
            mesh_platform(u64::from(tape.draw(400)), 4, 4, &mix),
        ];
        let mut ledger = platform.initial_state();
        let mut stale = any_ledger(&platform, tape);

        for _chunk in 0..8 {
            random_health_change(&platform, tape, &mut ledger);
            let n_ops = tape.draw(10);
            let (commit, explicit_abort) = (tape.draw(2) == 1, tape.draw(2) == 1);
            let mut empty = PlatformState::default();
            let mut lent = any_ledger(&foreign[tape.draw(2) as usize], tape);
            let mut naive = ledger.clone();
            let mut reals = [(); 4].map(|_| ledger.clone());
            {
                let [owned, over_empty, over_stale, over_foreign] = &mut reals;
                let mut txs = [
                    PlatformTransaction::begin(&platform, owned),
                    PlatformTransaction::over(&platform, over_empty, &mut empty),
                    PlatformTransaction::over(&platform, over_stale, &mut stale),
                    PlatformTransaction::over(&platform, over_foreign, &mut lent),
                ];
                for _ in 0..n_ops {
                    apply_random_op(&platform, tape, &mut txs, &mut naive);
                    for (tx, spare) in txs.iter().zip(["owned", "empty", "stale", "foreign"]) {
                        prop_assert!(
                            tx.state() == &naive,
                            "mid-transaction state diverged from naive replay ({spare})"
                        );
                    }
                }
                for tx in txs {
                    if commit {
                        tx.commit();
                    } else if explicit_abort {
                        tx.abort();
                    }
                    // else: dropped here without commit — the implicit abort.
                }
            }
            let expected = if commit { naive } else { ledger.clone() };
            // Byte-identical, not merely structurally equal.
            let expected_json = serde_json::to_string(&expected).expect("serialize");
            for (real, spare) in reals.iter().zip(["owned", "empty", "stale", "foreign"]) {
                prop_assert!(
                    real == &expected,
                    "post-transaction ledger diverged ({spare}, commit {commit})"
                );
                let real_json = serde_json::to_string(real).expect("serialize");
                prop_assert_eq!(&real_json, &expected_json);
            }
            ledger = expected;
        }
    });
}

/// On random ledgers, failed tiles included, `fits_after_vacating`
/// answers what releasing the vacated claim, asking `fits_tile` and
/// claiming it back would, and leaves the ledger as it found it.
#[test]
fn fits_after_vacating_is_release_then_fits_tile() {
    let platform = tight_platform();
    let n_tiles = platform.n_tiles() as u32;
    TestRunner::new(ProptestConfig::with_cases(48)).run(|tape| {
        let mut ledger = platform.initial_state();
        // What each tile holds, claim by claim; then one tile in four fails.
        let mut held: Vec<Vec<TileClaim>> = vec![vec![ni(0, 0)]; platform.n_tiles()];
        for _ in 0..tape.draw(10) {
            let tile = TileId::from_index(tape.draw(n_tiles) as usize);
            let claim = random_claim(tape);
            if ledger.claim_tile(&platform, tile, &claim).is_ok() {
                held[tile.index()].push(claim);
            }
        }
        for (tile, _) in platform.tiles() {
            if tape.draw(4) == 3 {
                ledger.fail_tile(tile);
            }
        }

        for _ in 0..16 {
            let tile = TileId::from_index(tape.draw(n_tiles) as usize);
            let on_tile = &held[tile.index()];
            let vacated = on_tile[tape.draw(on_tile.len() as u32) as usize];
            let claim = random_claim(tape);
            let before = ledger.clone();
            let answer = ledger.fits_after_vacating(&platform, tile, &vacated, &claim);
            prop_assert!(ledger == before, "the query moved the ledger");
            let expected = {
                // Dropping the transaction swaps the ledger back, on a
                // failed tile too.
                let mut tx = PlatformTransaction::begin(&platform, &mut ledger);
                tx.release_tile(tile, &vacated).expect("the tile holds it");
                tx.state().fits_tile(&platform, tile, &claim)
            };
            prop_assert!(ledger == before, "the dropped release moved the ledger");
            prop_assert_eq!(answer, expected, "{vacated:?} off {tile:?} for {claim:?}");
        }
    });
}

/// `a.clone_from(&b)` is `b.clone()` for random ledgers of platforms of
/// 4 to 25 tiles, so the copy's vectors grow, shrink or keep their
/// length; a refresh from a ledger of the copy's own platform is one
/// too.
#[test]
fn clone_from_is_a_fresh_clone_across_platforms() {
    TestRunner::new(ProptestConfig::with_cases(48)).run(|tape| {
        let seed = u64::from(tape.draw(400));
        let mix = [
            (TileKind::Montium, 4),
            (TileKind::Arm, 4),
            (TileKind::Dsp, 2),
        ];
        let platforms = [
            tight_platform(),
            paper_platform(),
            mesh_platform(seed, 4, 4, &mix),
            mesh_platform(seed, 5, 5, &mix),
        ];
        let ledgers: Vec<PlatformState> = platforms.iter().map(|p| any_ledger(p, tape)).collect();
        for target in &ledgers {
            for source in &ledgers {
                let mut copy = target.clone();
                copy.clone_from(source);
                prop_assert!(copy == source.clone());
                prop_assert_eq!(
                    serde_json::to_string(&copy).expect("serialize"),
                    serde_json::to_string(source).expect("serialize")
                );
            }
        }
        for (platform, ledger) in platforms.iter().zip(&ledgers) {
            let mut copy = ledger.clone();
            let other = any_ledger(platform, tape);
            copy.clone_from(&other);
            prop_assert!(copy == other, "same platform");
        }
    });
}
