//! Property tests pinning the optimised routing hot path to a naive
//! reference implementation.
//!
//! The platform layer routes through a precomputed CSR adjacency table
//! with reusable, generation-stamped scratch buffers
//! ([`RouteScratch`](rtsm::platform::RouteScratch)). These tests re-derive
//! every route with a straightforward textbook Dijkstra (a `(cost, coord)`
//! heap, edges found by scanning the link list, fresh allocations,
//! `Option<Coord>` predecessors — the shape of the pre-optimisation code)
//! and require byte-identical results: same routers, same links, same
//! tie-breaks, same errors — across random square and non-square meshes
//! from 2×2 to 9×9, random link occupancies, failed links and tiles,
//! random demands including zero, and scratch reuse.
//!
//! Mutations of the level-ordered search tried by hand, each caught by
//! `adaptive_route_matches_reference`: sorting a level by router index
//! (`y`, then `x`) instead of `(x, y)`; letting a later discovery overwrite
//! a router's predecessor.
//!
//! The router first walks the *canonical* path (back from the goal, each
//! step to the lowest-`(x, y)` neighbour one Manhattan step nearer the
//! start) and searches only when a link of it is unusable. Built here from
//! that definition alone, it must be the answer whenever its links are
//! healthy with residual ≥ demand, with no search run; otherwise a search
//! must run. `canonical_walk_answers_exactly_when_its_path_is_usable` holds
//! that over a fixed set of ledgers with floors on each kind of case
//! (usable at equality, blocked by a failed link at zero demand, blocked
//! with a detour found), so the fallback stays exercised. Mutations of the
//! walk tried in a copy, each caught: stepping north/south before west;
//! dropping the failed-link check; `residual > demand` for `≥`.
//!
//! One property does not lean on the reference: every route is a walk of
//! adjacent routers over links with room for the demand, and on an idle
//! mesh it is exactly as long as the Manhattan distance (what a
//! dimension-ordered route would take).

use proptest::prelude::*;
use rtsm::platform::routing::{route_with, RouteScratch};
use rtsm::platform::{
    Coord, LinkId, Path, Platform, PlatformBuilder, PlatformError, PlatformState, TileId, TileKind,
};
use std::collections::BinaryHeap;

/// The links leaving `here` with the routers they reach, found by scanning
/// the platform's link list — never the derived adjacency table that the
/// production router and [`Platform::link_between`] read, so a wrong row
/// in that table cannot hide in the reference too.
fn out_links(platform: &Platform, here: Coord) -> impl Iterator<Item = (LinkId, Coord)> + '_ {
    platform
        .links()
        .filter(move |(_, l)| l.from == here)
        .map(|(id, l)| (id, l.to))
}

/// The directed link from `from` to `to`, from the link list (see
/// [`out_links`]).
fn link_of(platform: &Platform, from: Coord, to: Coord) -> Option<LinkId> {
    out_links(platform, from)
        .filter(|&(_, next)| next == to)
        .map(|(id, _)| id)
        .last()
}

/// The naive reference router: minimal-hop Dijkstra with deterministic
/// `(cost, coord)` tie-breaks, resolving edges by scanning the link list
/// ([`out_links`]) and allocating everything fresh. It keeps the
/// production health rules: a failed endpoint tile has no route, and a
/// failed link is never taken, even at zero demand.
fn reference_route(
    platform: &Platform,
    state: &PlatformState,
    from: TileId,
    to: TileId,
    demand: u64,
) -> Result<Path, PlatformError> {
    let no_route = || PlatformError::NoRoute { from, to, demand };
    if state.is_tile_failed(from) || state.is_tile_failed(to) {
        return Err(no_route());
    }
    if state.residual_injection(platform, from) < demand
        || state.residual_ejection(platform, to) < demand
    {
        return Err(no_route());
    }
    let start = platform.tile(from).position;
    let goal = platform.tile(to).position;
    if start == goal {
        return Ok(Path {
            from,
            to,
            routers: vec![start],
            links: Vec::new(),
            demand,
        });
    }
    let index = |c: Coord| (c.y as usize) * (platform.width() as usize) + c.x as usize;
    let n = (platform.width() as usize) * (platform.height() as usize);
    let mut best: Vec<u32> = vec![u32::MAX; n];
    let mut prev: Vec<Option<Coord>> = vec![None; n];
    let mut heap: BinaryHeap<std::cmp::Reverse<(u32, (u16, u16))>> = BinaryHeap::new();
    best[index(start)] = 0;
    heap.push(std::cmp::Reverse((0, (start.x, start.y))));
    while let Some(std::cmp::Reverse((cost, (x, y)))) = heap.pop() {
        let here = Coord { x, y };
        if cost > best[index(here)] {
            continue;
        }
        if here == goal {
            break;
        }
        for (link, next) in out_links(platform, here) {
            if state.is_link_failed(link) || state.residual_link(platform, link) < demand {
                continue;
            }
            let ncost = cost + 1;
            if ncost < best[index(next)] {
                best[index(next)] = ncost;
                prev[index(next)] = Some(here);
                heap.push(std::cmp::Reverse((ncost, (next.x, next.y))));
            }
        }
    }
    if best[index(goal)] == u32::MAX {
        return Err(no_route());
    }
    let mut routers = vec![goal];
    let mut cursor = goal;
    while let Some(p) = prev[index(cursor)] {
        routers.push(p);
        cursor = p;
    }
    routers.reverse();
    let links = routers
        .windows(2)
        .map(|w| link_of(platform, w[0], w[1]).expect("adjacent"))
        .collect();
    Ok(Path {
        from,
        to,
        routers,
        links,
        demand,
    })
}

/// The canonical path from `from` to `to`, from its definition: back from
/// the goal, each step to the lowest-`(x, y)` neighbour one Manhattan step
/// nearer the start.
fn canonical_path(platform: &Platform, from: TileId, to: TileId, demand: u64) -> Path {
    let start = platform.tile(from).position;
    let goal = platform.tile(to).position;
    let mut routers = vec![goal];
    let mut here = goal;
    while here != start {
        here = out_links(platform, here)
            .map(|(_, n)| n)
            .filter(|n| n.manhattan(start) + 1 == here.manhattan(start))
            .min_by_key(|n| (n.x, n.y))
            .expect("a mesh router has a neighbour nearer any other");
        routers.push(here);
    }
    routers.reverse();
    let links = routers
        .windows(2)
        .map(|w| link_of(platform, w[0], w[1]).expect("adjacent"))
        .collect();
    Path {
        from,
        to,
        routers,
        links,
        demand,
    }
}

/// Whether `link` is healthy with room for `demand`.
fn usable(platform: &Platform, state: &PlatformState, link: LinkId, demand: u64) -> bool {
    !state.is_link_failed(link) && state.residual_link(platform, link) >= demand
}

/// Builds a full `width × height` mesh with an ARM on every router, then
/// loads a pseudo-random subset of links with a pseudo-random fraction of
/// their capacity, fails about one link in twelve and one tile in sixteen
/// (deterministic per `occupancy_seed`).
fn occupied_mesh(width: u16, height: u16, occupancy_seed: u64) -> (Platform, PlatformState) {
    let mut builder = PlatformBuilder::mesh(width, height);
    for y in 0..height {
        for x in 0..width {
            builder = builder.tile(format!("t{x}_{y}"), TileKind::Arm, Coord { x, y });
        }
    }
    let platform = builder.build().expect("valid mesh");
    let mut state = platform.initial_state();
    // Cheap deterministic PRNG (splitmix64) — no RNG dependency needed.
    let mut z = occupancy_seed.wrapping_add(0x9E3779B97F4A7C15);
    let mut next = || {
        z = z.wrapping_add(0x9E3779B97F4A7C15);
        let mut v = z;
        v = (v ^ (v >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        v = (v ^ (v >> 27)).wrapping_mul(0x94D049BB133111EB);
        v ^ (v >> 31)
    };
    let links: Vec<_> = platform.links().map(|(id, l)| (id, l.capacity)).collect();
    for (id, capacity) in links {
        // ~50% of links get loaded with 0–100% of their capacity.
        if next() % 2 == 0 {
            let load = next() % (capacity + 1);
            if load > 0 {
                state
                    .allocate_link(&platform, id, load)
                    .expect("within capacity");
            }
        }
        if next() % 12 == 0 {
            state.fail_link(id);
        }
    }
    let tiles: Vec<_> = platform.tiles().map(|(id, _)| id).collect();
    for id in tiles {
        if next() % 16 == 0 {
            state.fail_tile(id);
        }
    }
    (platform, state)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Scratch-based adaptive routing is byte-identical to the reference —
    /// including which of several equal-length paths wins the tie-break —
    /// and the scratch gives the same answers when reused across queries.
    #[test]
    fn adaptive_route_matches_reference(
        width in 2u16..10,
        height in 2u16..10,
        occupancy_seed in 0u64..1_000,
        from_ix in 0usize..81,
        to_ix in 0usize..81,
        demand_draw in 0u64..200_000_001,
    ) {
        // One case in eight routes at zero demand, where only the health
        // rules can refuse a link.
        let demand = if demand_draw % 8 == 0 { 0 } else { demand_draw };
        let (platform, state) = occupied_mesh(width, height, occupancy_seed);
        let n = platform.n_tiles();
        let from = platform.tiles().nth(from_ix % n).unwrap().0;
        let to = platform.tiles().nth(to_ix % n).unwrap().0;
        let mut scratch = RouteScratch::new();
        let fast = route_with(&platform, &state, from, to, demand, &mut scratch)
            .cloned();
        let reference = reference_route(&platform, &state, from, to, demand);
        match (&fast, &reference) {
            (Ok(a), Ok(b)) => prop_assert_eq!(a, b, "paths must be byte-identical"),
            (Err(_), Err(_)) => {}
            _ => prop_assert!(false, "verdicts differ: {fast:?} vs {reference:?}"),
        }
        // Whenever every link of the canonical path is usable, that path is
        // the route.
        let canonical = canonical_path(&platform, from, to, demand);
        if fast.is_ok() && canonical.links.iter().all(|&l| usable(&platform, &state, l, demand)) {
            prop_assert_eq!(fast.as_ref(), Ok(&canonical));
        }
        // Reuse the same scratch for the reverse query: stale state from
        // the first search must not leak into the second.
        let fast_rev = route_with(&platform, &state, to, from, demand, &mut scratch)
            .cloned();
        let reference_rev = reference_route(&platform, &state, to, from, demand);
        match (&fast_rev, &reference_rev) {
            (Ok(a), Ok(b)) => prop_assert_eq!(a, b, "reused scratch must stay exact"),
            (Err(_), Err(_)) => {}
            _ => prop_assert!(false, "verdicts differ on reuse"),
        }
    }

    /// A route joins its endpoints' routers through adjacent, unfailed
    /// links that each have room for the demand, is never shorter than the
    /// Manhattan distance, and on the idle mesh is exactly that long.
    #[test]
    fn routes_are_feasible_walks_and_minimal_on_an_idle_mesh(
        width in 2u16..10,
        height in 2u16..10,
        occupancy_seed in 0u64..1_000,
        from_ix in 0usize..81,
        to_ix in 0usize..81,
        demand in 1u64..200_000_001,
    ) {
        let (platform, loaded) = occupied_mesh(width, height, occupancy_seed);
        let idle = platform.initial_state();
        let n = platform.n_tiles();
        let from = platform.tiles().nth(from_ix % n).unwrap().0;
        let to = platform.tiles().nth(to_ix % n).unwrap().0;
        let distance = platform.manhattan(from, to);
        let mut scratch = RouteScratch::new();
        for state in [&loaded, &idle] {
            let Ok(path) = route_with(&platform, state, from, to, demand, &mut scratch) else {
                continue;
            };
            prop_assert_eq!(path.routers.first(), Some(&platform.tile(from).position));
            prop_assert_eq!(path.routers.last(), Some(&platform.tile(to).position));
            prop_assert_eq!(path.links.len() + 1, path.routers.len());
            for (w, &link) in path.routers.windows(2).zip(&path.links) {
                prop_assert_eq!(link_of(&platform, w[0], w[1]), Some(link));
                prop_assert!(state.residual_link(&platform, link) >= demand);
                prop_assert!(!state.is_link_failed(link));
            }
            prop_assert!(path.hops() >= distance);
        }
        // Idle links all have room for any demand in range, so only the
        // network interfaces can refuse, and a route must take the
        // shortest way.
        let fits_ni = idle.residual_injection(&platform, from) >= demand
            && idle.residual_ejection(&platform, to) >= demand;
        match route_with(&platform, &idle, from, to, demand, &mut scratch) {
            Ok(path) => {
                prop_assert!(fits_ni);
                prop_assert_eq!(path.hops(), distance);
            }
            Err(_) => prop_assert!(!fits_ni, "idle mesh refused a route"),
        }
    }

    /// Many sequential queries through ONE scratch match fresh-scratch
    /// results — the generation stamps fully isolate searches.
    #[test]
    fn scratch_reuse_never_leaks_state(
        occupancy_seed in 0u64..1_000,
        queries in proptest::collection::vec(0u64..u64::MAX, 1..20),
    ) {
        let (platform, state) = occupied_mesh(6, 6, occupancy_seed);
        let n = platform.n_tiles();
        let mut shared = RouteScratch::new();
        for q in queries {
            // Unpack each query word into endpoints and a demand (the
            // vendored proptest has no tuple strategies).
            let (fi, ti, demand) = (
                (q % 36) as usize,
                ((q >> 8) % 36) as usize,
                (q >> 16) % 50_000_000 + 1,
            );
            let from = platform.tiles().nth(fi % n).unwrap().0;
            let to = platform.tiles().nth(ti % n).unwrap().0;
            let mut fresh = RouteScratch::new();
            let with_shared =
                route_with(&platform, &state, from, to, demand, &mut shared).cloned();
            let with_fresh =
                route_with(&platform, &state, from, to, demand, &mut fresh).cloned();
            match (&with_shared, &with_fresh) {
                (Ok(a), Ok(b)) => prop_assert_eq!(a, b),
                (Err(_), Err(_)) => {}
                _ => prop_assert!(false, "shared vs fresh scratch diverged"),
            }
        }
    }
}

/// What one `canonical_walk_answers_exactly_when_its_path_is_usable` case
/// was, for the floors.
#[derive(Default, Debug)]
struct WalkCases {
    /// Canonical path usable, and the router took it without a search.
    walked: u32,
    /// …of which a link had exactly the demand left.
    walked_at_equality: u32,
    /// Canonical path blocked, and the search found a (longer or other)
    /// path.
    detoured: u32,
    /// Canonical path blocked by a failed link at zero demand.
    failed_at_zero: u32,
}

/// Whenever the endpoints take the demand, the router returns the
/// canonical path without searching exactly when every link of it is
/// usable; otherwise it searches, and agrees with the reference. Demands
/// are drawn so that a quarter of the cases ask for zero and a quarter for
/// exactly the least residual along the canonical path.
#[test]
fn canonical_walk_answers_exactly_when_its_path_is_usable() {
    let mut cases = WalkCases::default();
    let mut scratch = RouteScratch::new();
    for seed in 0..240u64 {
        let (width, height) = (2 + (seed % 7) as u16, 2 + (seed / 7 % 7) as u16);
        let (platform, state) = occupied_mesh(width, height, seed);
        let n = platform.n_tiles();
        for query in 0..12u64 {
            let mix = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ query.wrapping_mul(0xBF58_476D);
            let from = TileId::from_index((mix % n as u64) as usize);
            let to = TileId::from_index((mix / 97 % n as u64) as usize);
            let canonical = canonical_path(&platform, from, to, 0);
            let least = (canonical.links.iter())
                .map(|&l| state.residual_link(&platform, l))
                .min();
            let demand = match query % 4 {
                0 => 0,
                1 => least.unwrap_or(0),
                _ => mix % 120_000_000 + 1,
            };
            let canonical = Path {
                demand,
                ..canonical
            };
            let endpoints_take_it = !state.is_tile_failed(from)
                && !state.is_tile_failed(to)
                && state.residual_injection(&platform, from) >= demand
                && state.residual_ejection(&platform, to) >= demand;
            if !endpoints_take_it {
                continue;
            }
            let walkable = (canonical.links.iter()).all(|&l| usable(&platform, &state, l, demand));
            let before = scratch.searches();
            let routed = route_with(&platform, &state, from, to, demand, &mut scratch).cloned();
            let searched = scratch.searches() != before;
            let reference = reference_route(&platform, &state, from, to, demand);
            assert_eq!(
                routed.as_ref().ok(),
                reference.as_ref().ok(),
                "seed {seed} query {query}"
            );
            if walkable {
                assert_eq!(routed.as_ref(), Ok(&canonical), "seed {seed} query {query}");
                assert!(!searched, "a usable canonical path was searched for");
                cases.walked += 1;
                let at_equality = |&l: &LinkId| state.residual_link(&platform, l) == demand;
                cases.walked_at_equality += u32::from(canonical.links.iter().any(at_equality));
            } else {
                assert!(
                    searched,
                    "seed {seed} query {query}: a blocked path was walked"
                );
                cases.detoured += u32::from(routed.is_ok());
                let failed = |&l: &LinkId| state.is_link_failed(l);
                cases.failed_at_zero +=
                    u32::from(demand == 0 && canonical.links.iter().any(failed));
            }
        }
    }
    let floors = [
        cases.walked >= 800,
        cases.walked_at_equality >= 200,
        cases.detoured >= 350,
        cases.failed_at_zero >= 140,
    ];
    assert!(floors.iter().all(|&f| f), "{cases:?}");
}
