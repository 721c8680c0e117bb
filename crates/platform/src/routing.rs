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
//! coordinate pairs, and all working memory lives in a reusable,
//! generation-stamped [`RouteScratch`]. Pass one scratch to repeated
//! [`route_with`] calls and the search performs zero heap allocation in
//! steady state (the returned [`Path`] is borrowed from the scratch; clone it
//! only when a route is actually kept). The plain [`route`] wrapper allocates
//! a fresh scratch per call for convenience.
//!
//! # The canonical path first
//!
//! Before it searches, [`route_with`] tries one path: the *canonical* one.
//! Walk back from the goal; at each router step to the lowest-`(x, y)` grid
//! neighbour that is one Manhattan step nearer the start — west while the
//! start lies west, else north or south while the rows differ, else east.
//! If every link of that path exists, is healthy and has residual capacity
//! ≥ the demand, it is the answer; otherwise the search below runs. On a
//! lightly loaded mesh the walk answers almost every call, in time
//! proportional to the path's length.
//!
//! It is the path the search would return. Adjacency joins grid neighbours
//! only, so on any ledger a router's search distance d′ (hops over usable
//! links) is at least its Manhattan distance from the start. When the
//! canonical path is usable, every router on it has d′ equal to its
//! Manhattan distance, since the walk's path from the start to it is
//! itself canonical and usable. The search gives a router as predecessor
//! the lowest-keyed router of the previous hop level with a usable link to
//! it. A router of that level adjacent to router v on the path has d′ =
//! d′(v) − 1, so it is one Manhattan step nearer the start; among such
//! neighbours the walk took the lowest-keyed, and that one is on the level
//! with a usable link to v. So no router is both lower-keyed and nearer
//! than the walk's choice, and the search picks, step by step back from
//! the goal, exactly the routers the walk picked — same routers, same
//! links. `tests/routing_equivalence.rs` holds the walk to that on random
//! ledgers, with a floor on the cases that fall back to the search.
//!
//! # The search
//!
//! Every hop costs 1, so the shortest-path search is a breadth-first search
//! that expands one hop level at a time, each level in `(x, y)` order, and
//! stops as soon as it discovers the goal. That is the order in which a
//! Dijkstra heap keyed on `(cost, (x, y))` pops routers: all of level `d`
//! before any of level `d + 1`, and within a level by coordinate. A router's
//! predecessor is the first router to discover it and is never overwritten,
//! so every predecessor, path and tie-break is the one that heap gives, and
//! nothing the heap did after the goal's discovery could change the goal's
//! chain of predecessors.

use crate::error::PlatformError;
use crate::state::PlatformState;
use crate::tile::TileId;
use crate::topology::{Coord, LinkId, Platform};
use serde::{Deserialize, Serialize};

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

/// Reusable working memory for the path searches: the level-ordered
/// breadth-first search's visited marks and predecessor table, its two hop
/// levels, and the result [`Path`] itself.
///
/// Entries are *generation-stamped*: every search bumps a counter and
/// treats entries from older generations as unvisited, so per-call work is
/// proportional to the routers actually touched — no O(mesh) clearing and,
/// once warm, no allocation at all. One scratch may serve platforms of any
/// (and varying) size; the buffers grow to the largest mesh seen. Each
/// level is sorted by `(x, y)` before it is expanded, which is the order a
/// `(cost, (x, y))` heap would pop it in (see the [module docs](self)), so
/// the search breaks ties exactly as Dijkstra's algorithm with that heap.
#[derive(Debug, Clone, Default)]
pub struct RouteScratch {
    /// Current search generation; `stamp[i] == generation` marks router `i`
    /// as discovered in this search.
    generation: u32,
    stamp: Vec<u32>,
    /// Predecessor router index (`u32::MAX` = none; valid only when
    /// stamped).
    prev: Vec<u32>,
    /// The hop level being expanded and the one being discovered, as
    /// [`level_key`]s.
    level: Vec<u32>,
    next: Vec<u32>,
    /// The most recent search result; its vectors are reused across calls.
    path: Path,
}

/// A router's sort key within a hop level: `x` in the high half, `y` in the
/// low half, so ascending keys are ascending `(x, y)`.
fn level_key(c: Coord) -> u32 {
    u32::from(c.x) << 16 | u32::from(c.y)
}

/// The router a [`level_key`] stands for.
fn key_coord(key: u32) -> Coord {
    Coord {
        x: (key >> 16) as u16,
        y: key as u16,
    }
}

impl RouteScratch {
    /// A fresh scratch; buffers are sized on first use.
    pub fn new() -> Self {
        RouteScratch::default()
    }

    /// How many breadth-first searches this scratch has served, modulo
    /// 2³². A call the canonical walk answers (see the
    /// [module docs](self)) runs none, so this tells the two apart.
    pub fn searches(&self) -> u32 {
        self.generation
    }

    /// Prepares for a search over `n_routers` routers: sizes the tables,
    /// advances the generation, and clears the levels (keeping capacity).
    fn begin(&mut self, n_routers: usize) {
        if self.stamp.len() < n_routers {
            self.stamp.resize(n_routers, 0);
            self.prev.resize(n_routers, u32::MAX);
        }
        self.generation = self.generation.wrapping_add(1);
        if self.generation == 0 {
            // Stamp wrap-around: old stamps could alias the new generation,
            // so reset them once every 2^32 searches.
            self.stamp.fill(0);
            self.generation = 1;
        }
        self.level.clear();
        self.next.clear();
    }

    /// True once router `i` has been discovered in this search.
    fn discovered(&self, i: usize) -> bool {
        self.stamp[i] == self.generation
    }

    /// Marks router `i` discovered from router `prev`.
    fn discover(&mut self, i: usize, prev: u32) {
        self.stamp[i] = self.generation;
        self.prev[i] = prev;
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
    if walk_canonical(platform, state, start, goal, demand, &mut scratch.path) {
        return Ok(&scratch.path);
    }
    scratch.path.routers.clear();
    scratch.path.links.clear();

    // Breadth-first over routers, one hop level at a time, each level in
    // (x, y) order (see the module docs for why that is the heap's order).
    // Edges come from the platform's CSR adjacency table in west/east/north/
    // south order; a router's predecessor is the first router to discover
    // it, and the search ends when the goal is discovered.
    let width = platform.width() as usize;
    let index = |c: Coord| (c.y as usize) * width + c.x as usize;
    let goal_index = index(goal);
    scratch.begin(platform.n_routers());
    scratch.discover(index(start), u32::MAX);
    scratch.level.push(level_key(start));
    'levels: while !scratch.level.is_empty() {
        scratch.level.sort_unstable();
        for k in 0..scratch.level.len() {
            let here = key_coord(scratch.level[k]);
            let here_index = index(here) as u32;
            for entry in platform.adjacency(here) {
                let ni = index(entry.to);
                // A discovered router keeps its first predecessor. A
                // quarantined link is unusable even at zero demand: routes
                // through failed links are invalid, not merely full.
                if scratch.discovered(ni)
                    || state.is_link_failed(entry.link)
                    || state.residual_link(platform, entry.link) < demand
                {
                    continue;
                }
                scratch.discover(ni, here_index);
                if ni == goal_index {
                    break 'levels;
                }
                scratch.next.push(level_key(entry.to));
            }
        }
        std::mem::swap(&mut scratch.level, &mut scratch.next);
        scratch.next.clear();
    }
    if !scratch.discovered(goal_index) {
        return Err(no_route());
    }

    // Walk predecessors back from the goal, then reverse in place.
    let coord_of = |i: usize| Coord {
        x: (i % width) as u16,
        y: (i / width) as u16,
    };
    let mut cursor = goal_index;
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

/// Writes the canonical path from `start` to `goal` into `path` (whose
/// router and link lists are empty) and returns whether every link of it
/// is usable at `demand`; on `false` the lists hold a partial walk. See
/// the [module docs](self) for why a usable canonical path is the one the
/// search returns.
fn walk_canonical(
    platform: &Platform,
    state: &PlatformState,
    start: Coord,
    goal: Coord,
    demand: u64,
    path: &mut Path,
) -> bool {
    let mut here = goal;
    path.routers.push(goal);
    while here != start {
        // The lowest-(x, y) neighbour one step nearer the start.
        let back = if start.x < here.x {
            Coord {
                x: here.x - 1,
                ..here
            }
        } else if start.y < here.y {
            Coord {
                y: here.y - 1,
                ..here
            }
        } else if start.y > here.y {
            Coord {
                y: here.y + 1,
                ..here
            }
        } else {
            Coord {
                x: here.x + 1,
                ..here
            }
        };
        let Some(entry) = platform.adjacency(back).iter().find(|e| e.to == here) else {
            return false;
        };
        if state.is_link_failed(entry.link) || state.residual_link(platform, entry.link) < demand {
            return false;
        }
        path.links.push(entry.link);
        path.routers.push(back);
        here = back;
    }
    path.routers.reverse();
    path.links.reverse();
    true
}

/// Step 3 has one path search, [`route`] — the paper's capacity-aware
/// shortest path that may detour around congestion — so this has no
/// variants. It is kept only because the `benchmark/` crate names it; it goes
/// when `benchmark/` is next maintained.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RoutingPolicy;

/// The network-interface claims a routed path makes: injection at its
/// source tile and ejection at its destination.
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
        s.allocate_path(&p, &path).unwrap();
        // A second 60-demand route must avoid the allocated links or fail;
        // capacity is 100 so the same links cannot fit both.
        let second = route(&p, &s, a, b, 60).unwrap();
        assert!(second.links.iter().all(|l| !path.links.contains(l)));
        s.release_path(&path).unwrap();
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
        assert!(s.allocate_path(&p, &path).is_err());
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
