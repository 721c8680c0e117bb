//! Capacity-constrained shortest-path routing — step 3's substrate.
//!
//! "In each iteration for a given channel, a shortest path between the
//! source and destination tile of the channel has to be determined, where
//! only those paths through the interconnect are taken into account which
//! still have enough capacity for the throughput requirement of the current
//! channel." (Section 3, step 3.)
//!
//! # The allocation-free hot path
//!
//! A run-time mapper routes thousands of channels per second, so the search
//! must not pay for setup: edges are resolved through the platform's flat
//! CSR adjacency table ([`Platform::adjacency`]) instead of hashing
//! coordinate pairs, and all Dijkstra working memory lives in a reusable,
//! generation-stamped [`RouteScratch`]. Pass one scratch to repeated
//! [`route_with`] calls and the search performs zero heap allocation in
//! steady state (the returned [`Path`] is borrowed from the scratch; clone it
//! only when a route is actually kept). The plain [`route`] wrapper allocates
//! a fresh scratch per call for convenience.

use crate::error::PlatformError;
use crate::state::PlatformState;
use crate::tile::TileId;
use crate::topology::{Coord, LinkId, Platform};
use serde::{Deserialize, Serialize};
use std::collections::BinaryHeap;

/// A routed guaranteed-throughput connection through the NoC.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Path {
    /// Source tile.
    pub from: TileId,
    /// Destination tile.
    pub to: TileId,
    /// Routers traversed, source router first (always ≥ 1 entries).
    pub routers: Vec<Coord>,
    /// Directed links traversed (`routers.len() - 1` entries).
    pub links: Vec<LinkId>,
    /// Reserved bandwidth in words/second.
    pub demand: u64,
}

impl Path {
    /// Number of router-to-router hops (= Manhattan distance for minimal
    /// mesh routes).
    pub fn hops(&self) -> u32 {
        self.links.len() as u32
    }

    /// Number of routers traversed (the router actors of Figure 3).
    pub fn router_count(&self) -> u32 {
        self.routers.len() as u32
    }
}

/// Reusable working memory for the path searches: Dijkstra's distance and
/// predecessor tables, the priority queue, and the result [`Path`] itself.
///
/// Entries are *generation-stamped*: every search bumps a counter and
/// treats entries from older generations as unvisited, so per-call work is
/// proportional to the routers actually touched — no O(mesh) clearing and,
/// once warm, no allocation at all. One scratch may serve platforms of any
/// (and varying) size; the buffers grow to the largest mesh seen.
#[derive(Debug, Clone, Default)]
pub struct RouteScratch {
    /// Current search generation; `stamp[i] == generation` marks router `i`
    /// as visited in this search.
    generation: u32,
    stamp: Vec<u32>,
    /// Best-known hop count per router (valid only when stamped).
    best: Vec<u32>,
    /// Predecessor router index (`u32::MAX` = none; valid only when
    /// stamped).
    prev: Vec<u32>,
    heap: BinaryHeap<std::cmp::Reverse<(u32, (u16, u16))>>,
    /// The most recent search result; its vectors are reused across calls.
    path: Path,
}

impl RouteScratch {
    /// A fresh scratch; buffers are sized on first use.
    pub fn new() -> Self {
        RouteScratch::default()
    }

    /// Prepares for a search over `n_routers` routers: sizes the tables,
    /// advances the generation, and clears the queue (keeping capacity).
    fn begin(&mut self, n_routers: usize) {
        if self.stamp.len() < n_routers {
            self.stamp.resize(n_routers, 0);
            self.best.resize(n_routers, u32::MAX);
            self.prev.resize(n_routers, u32::MAX);
        }
        self.generation = self.generation.wrapping_add(1);
        if self.generation == 0 {
            // Stamp wrap-around: old stamps could alias the new generation,
            // so reset them once every 2^32 searches.
            self.stamp.fill(0);
            self.generation = 1;
        }
        self.heap.clear();
    }

    fn visit(&mut self, i: usize, cost: u32, prev: u32) {
        self.stamp[i] = self.generation;
        self.best[i] = cost;
        self.prev[i] = prev;
    }

    fn best(&self, i: usize) -> u32 {
        if self.stamp[i] == self.generation {
            self.best[i]
        } else {
            u32::MAX
        }
    }

    /// Begins refilling `self.path` for a new result.
    fn reset_path(&mut self, from: TileId, to: TileId, demand: u64) {
        self.path.from = from;
        self.path.to = to;
        self.path.demand = demand;
        self.path.routers.clear();
        self.path.links.clear();
    }
}

impl Default for Path {
    fn default() -> Self {
        Path {
            from: TileId(0),
            to: TileId(0),
            routers: Vec::new(),
            links: Vec::new(),
            demand: 0,
        }
    }
}

/// Finds a minimal-hop path from `from` to `to` using only links with at
/// least `demand` words/second residual capacity, and with sufficient NI
/// bandwidth at both endpoints.
///
/// Ties between equal-hop paths are broken deterministically (lexicographic
/// router coordinates), so mapping runs are reproducible.
///
/// Allocates a fresh [`RouteScratch`] per call; hot paths should hold one
/// scratch and call [`route_with`] instead.
///
/// # Errors
///
/// [`PlatformError::NoRoute`] if no such path exists (including NI
/// exhaustion) — the mapper turns this into step-3 feedback.
pub fn route(
    platform: &Platform,
    state: &PlatformState,
    from: TileId,
    to: TileId,
    demand: u64,
) -> Result<Path, PlatformError> {
    let mut scratch = RouteScratch::new();
    route_with(platform, state, from, to, demand, &mut scratch).cloned()
}

/// [`route`] against caller-owned working memory: repeated calls perform no
/// heap allocation once `scratch` is warm. The returned path borrows from
/// `scratch` — clone it if the route is kept.
///
/// # Errors
///
/// [`PlatformError::NoRoute`] as for [`route`].
pub fn route_with<'s>(
    platform: &Platform,
    state: &PlatformState,
    from: TileId,
    to: TileId,
    demand: u64,
    scratch: &'s mut RouteScratch,
) -> Result<&'s Path, PlatformError> {
    let no_route = || PlatformError::NoRoute { from, to, demand };
    // A quarantined endpoint is unroutable even at zero demand: the path
    // would claim network-interface capacity on a failed tile.
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
    scratch.reset_path(from, to, demand);
    if start == goal {
        scratch.path.routers.push(start);
        return Ok(&scratch.path);
    }

    // Dijkstra over routers; cost = hops; deterministic tie-break on
    // (cost, coord). Edges come from the platform's CSR adjacency table in
    // the same west/east/north/south order the original hash-map walk used,
    // so paths (including ties) are bit-for-bit identical.
    let width = platform.width() as usize;
    let index = |c: Coord| (c.y as usize) * width + c.x as usize;
    scratch.begin(platform.n_routers());
    scratch.visit(index(start), 0, u32::MAX);
    scratch
        .heap
        .push(std::cmp::Reverse((0, (start.x, start.y))));
    while let Some(std::cmp::Reverse((cost, (x, y)))) = scratch.heap.pop() {
        let here = Coord { x, y };
        if cost > scratch.best(index(here)) {
            continue;
        }
        if here == goal {
            break;
        }
        for entry in platform.adjacency(here) {
            // A quarantined link is unusable even at zero demand: routes
            // through failed links are invalid, not merely full.
            if state.is_link_failed(entry.link)
                || state.residual_link(platform, entry.link) < demand
            {
                continue;
            }
            let ncost = cost + 1;
            let ni = index(entry.to);
            if ncost < scratch.best(ni) {
                scratch.visit(ni, ncost, index(here) as u32);
                scratch
                    .heap
                    .push(std::cmp::Reverse((ncost, (entry.to.x, entry.to.y))));
            }
        }
    }
    if scratch.best(index(goal)) == u32::MAX {
        return Err(no_route());
    }

    // Walk predecessors back from the goal, then reverse in place.
    let coord_of = |i: usize| Coord {
        x: (i % width) as u16,
        y: (i / width) as u16,
    };
    let mut cursor = index(goal);
    scratch.path.routers.push(goal);
    loop {
        let p = scratch.prev[cursor];
        if p == u32::MAX {
            break;
        }
        scratch.path.routers.push(coord_of(p as usize));
        cursor = p as usize;
    }
    scratch.path.routers.reverse();
    for w in scratch.path.routers.windows(2) {
        let link = platform
            .adjacency(w[0])
            .iter()
            .find(|e| e.to == w[1])
            .expect("consecutive routers are adjacent")
            .link;
        scratch.path.links.push(link);
    }
    Ok(&scratch.path)
}

/// Step 3 has one path search, [`route`] — the paper's capacity-aware
/// shortest path that may detour around congestion — so this has no
/// variants. It is kept only because the `benchmark/` crate names it; it goes
/// when `benchmark/` is next maintained.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RoutingPolicy;

pub(crate) fn ni_claims(path: &Path) -> [(TileId, crate::state::TileClaim); 2] {
    let inject = crate::state::TileClaim {
        slots: 0,
        memory_bytes: 0,
        cycles_per_second: 0,
        injection: path.demand,
        ejection: 0,
    };
    let eject = crate::state::TileClaim {
        slots: 0,
        memory_bytes: 0,
        cycles_per_second: 0,
        injection: 0,
        ejection: path.demand,
    };
    [(path.from, inject), (path.to, eject)]
}

/// Reserves the path's bandwidth on every link plus NI injection at the
/// source tile and NI ejection at the destination tile.
///
/// On failure the ledger is left exactly as found (all partial reservations
/// are rolled back).
///
/// # Errors
///
/// [`PlatformError::LinkAccounting`] if any link lacks capacity, or
/// [`PlatformError::InsufficientResource`] if an endpoint NI is exhausted.
pub fn allocate(
    platform: &Platform,
    state: &mut PlatformState,
    path: &Path,
) -> Result<(), PlatformError> {
    let mut tx = crate::transaction::PlatformTransaction::begin(platform, state);
    tx.allocate_path(path)?; // an early return drops the tx, rolling back
    tx.commit();
    Ok(())
}

/// Releases a previously allocated path (links and endpoint NI).
///
/// On failure the ledger is left exactly as found (partial releases are
/// rolled back).
///
/// # Errors
///
/// [`PlatformError::LinkAccounting`] / [`PlatformError::UnknownClaim`] if
/// the path was not allocated.
pub fn release(
    platform: &Platform,
    state: &mut PlatformState,
    path: &Path,
) -> Result<(), PlatformError> {
    let mut tx = crate::transaction::PlatformTransaction::begin(platform, state);
    tx.release_path(path)?;
    tx.commit();
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tile::TileKind;
    use crate::topology::{NocParams, PlatformBuilder};

    fn platform_3x3() -> Platform {
        PlatformBuilder::mesh(3, 3)
            .noc(NocParams {
                hop_latency_cycles: 4,
                clock_mhz: 200,
                link_capacity: 100,
            })
            .tile("a", TileKind::Arm, Coord { x: 0, y: 0 })
            .tile("b", TileKind::Arm, Coord { x: 2, y: 2 })
            .tile("c", TileKind::Arm, Coord { x: 2, y: 0 })
            .build()
            .unwrap()
    }

    #[test]
    fn shortest_path_has_manhattan_hops() {
        let p = platform_3x3();
        let s = p.initial_state();
        let a = p.tile_by_name("a").unwrap();
        let b = p.tile_by_name("b").unwrap();
        let path = route(&p, &s, a, b, 10).unwrap();
        assert_eq!(path.hops(), 4);
        assert_eq!(path.router_count(), 5);
    }

    #[test]
    fn self_route_is_empty() {
        let p = platform_3x3();
        let s = p.initial_state();
        let a = p.tile_by_name("a").unwrap();
        let path = route(&p, &s, a, a, 10).unwrap();
        assert_eq!(path.hops(), 0);
        assert_eq!(path.router_count(), 1);
    }

    #[test]
    fn saturated_links_are_avoided() {
        let p = platform_3x3();
        let mut s = p.initial_state();
        let a = p.tile_by_name("a").unwrap();
        let c = p.tile_by_name("c").unwrap();
        // Saturate the direct row: (0,0)->(1,0) and (1,0)->(2,0).
        for (from, to) in [((0, 0), (1, 0)), ((1, 0), (2, 0))] {
            let l = p
                .link_between(
                    Coord {
                        x: from.0,
                        y: from.1,
                    },
                    Coord { x: to.0, y: to.1 },
                )
                .unwrap();
            s.allocate_link(&p, l, 100).unwrap();
        }
        let path = route(&p, &s, a, c, 10).unwrap();
        // Must detour: longer than the Manhattan distance of 2.
        assert!(path.hops() > 2, "hops {}", path.hops());
    }

    #[test]
    fn no_route_when_everything_saturated() {
        let p = platform_3x3();
        let mut s = p.initial_state();
        let a = p.tile_by_name("a").unwrap();
        let b = p.tile_by_name("b").unwrap();
        for (l, _) in p.links() {
            s.allocate_link(&p, l, 100).unwrap();
        }
        assert!(matches!(
            route(&p, &s, a, b, 10),
            Err(PlatformError::NoRoute { .. })
        ));
    }

    #[test]
    fn demand_above_link_capacity_unroutable() {
        let p = platform_3x3();
        let s = p.initial_state();
        let a = p.tile_by_name("a").unwrap();
        let b = p.tile_by_name("b").unwrap();
        // Links carry 100; NI carries the default (much larger).
        assert!(route(&p, &s, a, b, 101).is_err());
    }

    #[test]
    fn allocate_release_roundtrip() {
        let p = platform_3x3();
        let mut s = p.initial_state();
        let a = p.tile_by_name("a").unwrap();
        let b = p.tile_by_name("b").unwrap();
        let before = s.clone();
        let path = route(&p, &s, a, b, 60).unwrap();
        allocate(&p, &mut s, &path).unwrap();
        // A second 60-demand route must avoid the allocated links or fail;
        // capacity is 100 so the same links cannot fit both.
        let second = route(&p, &s, a, b, 60).unwrap();
        assert!(second.links.iter().all(|l| !path.links.contains(l)));
        release(&p, &mut s, &path).unwrap();
        assert_eq!(s, before);
    }

    #[test]
    fn allocation_failure_rolls_back() {
        let p = platform_3x3();
        let mut s = p.initial_state();
        let a = p.tile_by_name("a").unwrap();
        let b = p.tile_by_name("b").unwrap();
        let path = route(&p, &s, a, b, 60).unwrap();
        // Saturate the LAST link of the path behind the router's back.
        let last = *path.links.last().unwrap();
        s.allocate_link(&p, last, 50).unwrap();
        let snapshot = s.clone();
        assert!(allocate(&p, &mut s, &path).is_err());
        assert_eq!(s, snapshot, "partial allocation must roll back");
    }

    #[test]
    fn deterministic_tie_break() {
        let p = platform_3x3();
        let s = p.initial_state();
        let a = p.tile_by_name("a").unwrap();
        let b = p.tile_by_name("b").unwrap();
        let p1 = route(&p, &s, a, b, 10).unwrap();
        let p2 = route(&p, &s, a, b, 10).unwrap();
        assert_eq!(p1, p2);
    }

    #[test]
    fn ni_exhaustion_blocks_route() {
        let p = platform_3x3();
        let mut s = p.initial_state();
        let a = p.tile_by_name("a").unwrap();
        let b = p.tile_by_name("b").unwrap();
        let inj = p.tile(a).ni_injection;
        s.claim_tile(
            &p,
            a,
            &crate::state::TileClaim {
                slots: 0,
                memory_bytes: 0,
                cycles_per_second: 0,
                injection: inj,
                ejection: 0,
            },
        )
        .unwrap();
        assert!(matches!(
            route(&p, &s, a, b, 1),
            Err(PlatformError::NoRoute { .. })
        ));
    }
}
