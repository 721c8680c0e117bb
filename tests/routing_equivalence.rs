//! Property tests pinning the optimised routing hot path to a naive
//! reference implementation.
//!
//! The platform layer routes through a precomputed CSR adjacency table
//! with reusable, generation-stamped scratch buffers
//! ([`RouteScratch`](rtsm::platform::RouteScratch)). These tests re-derive
//! every route with a straightforward textbook Dijkstra (hash-map edge
//! lookups, fresh allocations, `Option<Coord>` predecessors — the shape of
//! the pre-optimisation code) and require byte-identical results: same
//! routers, same links, same tie-breaks, same errors — across random mesh
//! sizes, random link occupancies, random demands, and scratch reuse.
//!
//! One property does not lean on the reference: every route is a walk of
//! adjacent routers over links with room for the demand, and on an idle
//! mesh it is exactly as long as the Manhattan distance (what a
//! dimension-ordered route would take).

use proptest::prelude::*;
use rtsm::platform::routing::{route_with, RouteScratch};
use rtsm::platform::{
    Coord, Path, Platform, PlatformBuilder, PlatformError, PlatformState, TileId, TileKind,
};
use std::collections::BinaryHeap;

/// The naive reference router: minimal-hop Dijkstra with deterministic
/// `(cost, coord)` tie-breaks, resolving edges through
/// [`Platform::link_between`] and allocating everything fresh.
fn reference_route(
    platform: &Platform,
    state: &PlatformState,
    from: TileId,
    to: TileId,
    demand: u64,
) -> Result<Path, PlatformError> {
    let no_route = || PlatformError::NoRoute { from, to, demand };
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
        for next in platform.neighbours(here) {
            let Some(link) = platform.link_between(here, next) else {
                continue;
            };
            if state.residual_link(platform, link) < demand {
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
        .map(|w| platform.link_between(w[0], w[1]).expect("adjacent"))
        .collect();
    Ok(Path {
        from,
        to,
        routers,
        links,
        demand,
    })
}

/// Builds a full `width × height` mesh with an ARM on every router, then
/// loads a pseudo-random subset of links with a pseudo-random fraction of
/// their capacity (deterministic per `occupancy_seed`).
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
        width in 2u16..7,
        height in 2u16..7,
        occupancy_seed in 0u64..1_000,
        from_ix in 0usize..49,
        to_ix in 0usize..49,
        demand in 1u64..200_000_001,
    ) {
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

    /// A route joins its endpoints' routers through adjacent links that
    /// each have room for the demand, is never shorter than the Manhattan
    /// distance, and on the idle mesh is exactly that long.
    #[test]
    fn routes_are_feasible_walks_and_minimal_on_an_idle_mesh(
        width in 2u16..7,
        height in 2u16..7,
        occupancy_seed in 0u64..1_000,
        from_ix in 0usize..49,
        to_ix in 0usize..49,
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
                prop_assert_eq!(platform.link_between(w[0], w[1]), Some(link));
                prop_assert!(state.residual_link(&platform, link) >= demand);
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
