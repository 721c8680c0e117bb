//! Mesh topology: routers, directed links, tiles, and the platform builder.

use crate::error::PlatformError;
use crate::state::PlatformState;
use crate::tile::{Tile, TileId, TileKind};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;

/// A router coordinate in the 2D mesh (`x` grows right, `y` grows down).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Coord {
    /// Column.
    pub x: u16,
    /// Row.
    pub y: u16,
}

impl Coord {
    /// Manhattan distance to `other` — the paper's step-2 cost metric.
    pub fn manhattan(&self, other: Coord) -> u32 {
        self.x.abs_diff(other.x) as u32 + self.y.abs_diff(other.y) as u32
    }
}

impl fmt::Display for Coord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({},{})", self.x, self.y)
    }
}

/// Identifier of a directed router-to-router link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct LinkId(pub(crate) usize);

impl LinkId {
    /// Index of this link in the platform's link list.
    pub fn index(&self) -> usize {
        self.0
    }
}

/// A directed link between two adjacent routers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Link {
    /// Upstream router.
    pub from: Coord,
    /// Downstream router.
    pub to: Coord,
    /// Guaranteed-throughput capacity in words/second.
    pub capacity: u64,
}

/// NoC-wide parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct NocParams {
    /// Router traversal worst case in router-clock cycles (the paper's
    /// round-robin arbitration bound of 4).
    pub hop_latency_cycles: u64,
    /// Router clock in MHz.
    pub clock_mhz: u32,
    /// Capacity of every mesh link in words/second.
    pub link_capacity: u64,
}

impl Default for NocParams {
    fn default() -> Self {
        NocParams {
            hop_latency_cycles: 4,
            clock_mhz: 200,
            link_capacity: 200_000_000,
        }
    }
}

impl NocParams {
    /// Router cycle time in picoseconds.
    pub fn cycle_time_ps(&self) -> u64 {
        1_000_000 / u64::from(self.clock_mhz)
    }
}

/// One outgoing edge of a router in the precomputed adjacency table: the
/// neighbouring router and the directed link towards it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdjEntry {
    /// The neighbouring router.
    pub to: Coord,
    /// The directed link from the owning router to [`AdjEntry::to`].
    pub link: LinkId,
}

/// An immutable MPSoC platform: a `width × height` router mesh with tiles
/// attached to (a subset of) routers.
///
/// Run-time mutable resource state lives in [`PlatformState`], never here,
/// so one `Platform` can serve many concurrent what-if explorations.
///
/// Besides the tile and link lists, the platform carries derived lookup
/// tables built once at construction: a flat CSR adjacency table
/// ([`Platform::adjacency`]) that resolves a router's neighbours and their
/// directed links without hashing, a name index making
/// [`Platform::tile_by_name`] O(1), and the two stream-endpoint tiles
/// ([`Platform::stream_input_tile`], [`Platform::stream_output_tile`]). All
/// are rebuilt on deserialization.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
#[serde(from = "PlatformSerde", into = "PlatformSerde")]
pub struct Platform {
    width: u16,
    height: u16,
    noc: NocParams,
    tiles: Vec<Tile>,
    links: Vec<Link>,
    link_index: HashMap<(Coord, Coord), LinkId>,
    tile_at: HashMap<Coord, TileId>,
    tile_by_name: HashMap<String, TileId>,
    /// CSR offsets: router `r`'s adjacency is `adj[adj_offsets[r] .. adj_offsets[r+1]]`,
    /// routers indexed row-major (`y * width + x`). Length `width*height + 1`.
    adj_offsets: Vec<u32>,
    /// CSR payload: neighbour coords and directed links, in the same
    /// west/east/north/south order [`Platform::neighbours`] yields.
    adj: Vec<AdjEntry>,
    /// First `AdcSource` and first `Sink` tile (id order), if any.
    stream_input: Option<TileId>,
    stream_output: Option<TileId>,
}

/// The lookup tables derived from a platform's tiles and links.
struct DerivedTables {
    tile_by_name: HashMap<String, TileId>,
    adj_offsets: Vec<u32>,
    adj: Vec<AdjEntry>,
    stream_input: Option<TileId>,
    stream_output: Option<TileId>,
}

/// Builds the derived lookup tables (CSR adjacency, name index and stream
/// endpoints) shared by `PlatformBuilder::build` and deserialization.
fn derived_tables(
    width: u16,
    height: u16,
    tiles: &[Tile],
    link_index: &HashMap<(Coord, Coord), LinkId>,
) -> DerivedTables {
    // First insertion wins so duplicate names resolve to the lowest tile
    // id, matching the linear scan this index replaced.
    let mut tile_by_name: HashMap<String, TileId> = HashMap::with_capacity(tiles.len());
    for (i, t) in tiles.iter().enumerate() {
        tile_by_name.entry(t.name.clone()).or_insert(TileId(i));
    }
    let n_routers = width as usize * height as usize;
    let mut adj_offsets = Vec::with_capacity(n_routers + 1);
    let mut adj = Vec::with_capacity(4 * n_routers);
    adj_offsets.push(0u32);
    for y in 0..height {
        for x in 0..width {
            let here = Coord { x, y };
            // Same order as `Platform::neighbours`: west, east, north, south.
            let (xi, yi) = (x as i32, y as i32);
            for (nx, ny) in [(xi - 1, yi), (xi + 1, yi), (xi, yi - 1), (xi, yi + 1)] {
                if nx >= 0 && ny >= 0 && (nx as u16) < width && (ny as u16) < height {
                    let there = Coord {
                        x: nx as u16,
                        y: ny as u16,
                    };
                    if let Some(&link) = link_index.get(&(here, there)) {
                        adj.push(AdjEntry { to: there, link });
                    }
                }
            }
            adj_offsets.push(adj.len() as u32);
        }
    }
    let first_of = |kind: TileKind| tiles.iter().position(|t| t.kind == kind).map(TileId);
    DerivedTables {
        tile_by_name,
        adj_offsets,
        adj,
        stream_input: first_of(TileKind::AdcSource),
        stream_output: first_of(TileKind::Sink),
    }
}

/// Serde shadow of [`Platform`]: the coordinate-keyed lookup maps are
/// derived data and are rebuilt on deserialization (JSON requires string
/// keys).
#[derive(Serialize, Deserialize)]
#[serde(rename = "Platform")]
struct PlatformSerde {
    width: u16,
    height: u16,
    noc: NocParams,
    tiles: Vec<Tile>,
    links: Vec<Link>,
}

impl From<Platform> for PlatformSerde {
    fn from(p: Platform) -> Self {
        PlatformSerde {
            width: p.width,
            height: p.height,
            noc: p.noc,
            tiles: p.tiles,
            links: p.links,
        }
    }
}

impl From<PlatformSerde> for Platform {
    fn from(s: PlatformSerde) -> Self {
        let link_index = s
            .links
            .iter()
            .enumerate()
            .map(|(i, l)| ((l.from, l.to), LinkId(i)))
            .collect();
        let tile_at = s
            .tiles
            .iter()
            .enumerate()
            .map(|(i, t)| (t.position, TileId(i)))
            .collect();
        let derived = derived_tables(s.width, s.height, &s.tiles, &link_index);
        Platform {
            width: s.width,
            height: s.height,
            noc: s.noc,
            tiles: s.tiles,
            links: s.links,
            link_index,
            tile_at,
            tile_by_name: derived.tile_by_name,
            adj_offsets: derived.adj_offsets,
            adj: derived.adj,
            stream_input: derived.stream_input,
            stream_output: derived.stream_output,
        }
    }
}

impl Platform {
    /// Mesh width in routers.
    pub fn width(&self) -> u16 {
        self.width
    }

    /// Mesh height in routers.
    pub fn height(&self) -> u16 {
        self.height
    }

    /// NoC parameters.
    pub fn noc(&self) -> &NocParams {
        &self.noc
    }

    /// Number of tiles.
    pub fn n_tiles(&self) -> usize {
        self.tiles.len()
    }

    /// Number of directed links.
    pub fn n_links(&self) -> usize {
        self.links.len()
    }

    /// The tile with id `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a tile of this platform.
    pub fn tile(&self, id: TileId) -> &Tile {
        &self.tiles[id.0]
    }

    /// The link with id `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a link of this platform.
    pub fn link(&self, id: LinkId) -> &Link {
        &self.links[id.0]
    }

    /// Iterates over `(id, tile)` pairs in insertion (first-fit) order.
    pub fn tiles(&self) -> impl Iterator<Item = (TileId, &Tile)> {
        self.tiles.iter().enumerate().map(|(i, t)| (TileId(i), t))
    }

    /// Iterates over `(id, link)` pairs.
    pub fn links(&self) -> impl Iterator<Item = (LinkId, &Link)> {
        self.links.iter().enumerate().map(|(i, l)| (LinkId(i), l))
    }

    /// Tiles of the given kind, in id order.
    pub fn tiles_of_kind(&self, kind: TileKind) -> impl Iterator<Item = (TileId, &Tile)> {
        self.tiles().filter(move |(_, t)| t.kind == kind)
    }

    /// The tile realising the application's stream input: the first
    /// `AdcSource` tile in id order (cached at construction).
    pub fn stream_input_tile(&self) -> Option<TileId> {
        self.stream_input
    }

    /// The tile realising the application's stream output: the first `Sink`
    /// tile in id order (cached at construction).
    pub fn stream_output_tile(&self) -> Option<TileId> {
        self.stream_output
    }

    /// Looks a tile up by name (O(1) via the name index built at
    /// construction).
    pub fn tile_by_name(&self, name: &str) -> Option<TileId> {
        self.tile_by_name.get(name).copied()
    }

    /// The tile attached to the router at `coord`, if any.
    pub fn tile_at(&self, coord: Coord) -> Option<TileId> {
        self.tile_at.get(&coord).copied()
    }

    /// The directed link from `from` to `to` (adjacent routers only).
    pub fn link_between(&self, from: Coord, to: Coord) -> Option<LinkId> {
        self.link_index.get(&(from, to)).copied()
    }

    /// Manhattan distance between two tiles' routers.
    ///
    /// # Panics
    ///
    /// Panics if either id is not a tile of this platform.
    pub fn manhattan(&self, a: TileId, b: TileId) -> u32 {
        self.tiles[a.0].position.manhattan(self.tiles[b.0].position)
    }

    /// A fresh, empty occupancy ledger for this platform.
    pub fn initial_state(&self) -> PlatformState {
        PlatformState::new(self)
    }

    /// Neighbouring router coordinates of `c` (up to 4).
    pub fn neighbours(&self, c: Coord) -> impl Iterator<Item = Coord> + '_ {
        self.adjacency(c).iter().map(|e| e.to)
    }

    /// Number of routers in the mesh (`width × height`).
    pub fn n_routers(&self) -> usize {
        self.width as usize * self.height as usize
    }

    /// Dense row-major index of the router at `c` — the key into the
    /// adjacency table and the router-indexed scratch buffers of
    /// [`crate::routing::RouteScratch`].
    fn router_index(&self, c: Coord) -> usize {
        c.y as usize * self.width as usize + c.x as usize
    }

    /// The precomputed outgoing edges of the router at `c`: neighbour
    /// coordinates and directed links, in west/east/north/south order.
    ///
    /// This is the flat CSR table the routing hot path walks instead of
    /// probing the `(Coord, Coord) → LinkId` hash map per edge.
    pub fn adjacency(&self, c: Coord) -> &[AdjEntry] {
        let r = self.router_index(c);
        let lo = self.adj_offsets[r] as usize;
        let hi = self.adj_offsets[r + 1] as usize;
        &self.adj[lo..hi]
    }
}

/// Builder for [`Platform`].
///
/// # Example
///
/// ```
/// use rtsm_platform::{PlatformBuilder, TileKind, Coord};
///
/// let platform = PlatformBuilder::mesh(2, 2)
///     .tile("cpu0", TileKind::Arm, Coord { x: 0, y: 0 })
///     .tile("dsp0", TileKind::Dsp, Coord { x: 1, y: 1 })
///     .build()
///     .unwrap();
/// assert_eq!(platform.n_tiles(), 2);
/// // 2x2 mesh: 4 bidirectional mesh edges = 8 directed links.
/// assert_eq!(platform.n_links(), 8);
/// ```
#[derive(Debug, Clone)]
pub struct PlatformBuilder {
    width: u16,
    height: u16,
    noc: NocParams,
    tiles: Vec<Tile>,
    default_clock_mhz: u32,
    default_slots: u32,
    default_memory: u64,
    default_ni: u64,
}

impl PlatformBuilder {
    /// Starts a `width × height` router mesh with default NoC parameters.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn mesh(width: u16, height: u16) -> Self {
        assert!(width > 0 && height > 0, "mesh dimensions must be positive");
        PlatformBuilder {
            width,
            height,
            noc: NocParams::default(),
            tiles: Vec::new(),
            default_clock_mhz: 200,
            default_slots: 1,
            default_memory: 128 * 1024,
            default_ni: 200_000_000,
        }
    }

    /// Overrides the NoC parameters.
    pub fn noc(mut self, noc: NocParams) -> Self {
        self.noc = noc;
        self
    }

    /// Sets defaults applied by [`PlatformBuilder::tile`].
    pub fn tile_defaults(
        mut self,
        clock_mhz: u32,
        slots: u32,
        memory_bytes: u64,
        ni_bandwidth: u64,
    ) -> Self {
        self.default_clock_mhz = clock_mhz;
        self.default_slots = slots;
        self.default_memory = memory_bytes;
        self.default_ni = ni_bandwidth;
        self
    }

    /// Adds a tile with the builder's default resources.
    pub fn tile(self, name: impl Into<String>, kind: TileKind, position: Coord) -> Self {
        let tile = Tile {
            name: name.into(),
            kind,
            position,
            clock_mhz: self.default_clock_mhz,
            compute_slots: self.default_slots,
            memory_bytes: self.default_memory,
            ni_injection: self.default_ni,
            ni_ejection: self.default_ni,
        };
        self.tile_custom(tile)
    }

    /// Adds a fully specified tile.
    pub fn tile_custom(mut self, tile: Tile) -> Self {
        self.tiles.push(tile);
        self
    }

    /// Builds the platform.
    ///
    /// # Errors
    ///
    /// * [`PlatformError::OutOfMesh`] if a tile's position is outside the
    ///   mesh.
    /// * [`PlatformError::DuplicatePosition`] if two tiles share a router.
    pub fn build(self) -> Result<Platform, PlatformError> {
        let mut tile_at = HashMap::new();
        for (i, t) in self.tiles.iter().enumerate() {
            if t.position.x >= self.width || t.position.y >= self.height {
                return Err(PlatformError::OutOfMesh {
                    coord: t.position,
                    width: self.width,
                    height: self.height,
                });
            }
            if tile_at.insert(t.position, TileId(i)).is_some() {
                return Err(PlatformError::DuplicatePosition(t.position));
            }
        }
        let mut links = Vec::new();
        let mut link_index = HashMap::new();
        for y in 0..self.height {
            for x in 0..self.width {
                let here = Coord { x, y };
                // East and south neighbours; both directions.
                for (nx, ny) in [(x + 1, y), (x, y + 1)] {
                    if nx < self.width && ny < self.height {
                        let there = Coord { x: nx, y: ny };
                        for (a, b) in [(here, there), (there, here)] {
                            let id = LinkId(links.len());
                            links.push(Link {
                                from: a,
                                to: b,
                                capacity: self.noc.link_capacity,
                            });
                            link_index.insert((a, b), id);
                        }
                    }
                }
            }
        }
        let derived = derived_tables(self.width, self.height, &self.tiles, &link_index);
        Ok(Platform {
            width: self.width,
            height: self.height,
            noc: self.noc,
            tiles: self.tiles,
            links,
            link_index,
            tile_at,
            tile_by_name: derived.tile_by_name,
            adj_offsets: derived.adj_offsets,
            adj: derived.adj,
            stream_input: derived.stream_input,
            stream_output: derived.stream_output,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Platform {
        PlatformBuilder::mesh(3, 3)
            .tile("a", TileKind::Arm, Coord { x: 0, y: 0 })
            .tile("b", TileKind::Montium, Coord { x: 2, y: 2 })
            .build()
            .unwrap()
    }

    #[test]
    fn mesh_link_count() {
        // 3x3 mesh: 12 undirected edges = 24 directed links.
        assert_eq!(small().n_links(), 24);
    }

    #[test]
    fn manhattan_between_tiles() {
        let p = small();
        let a = p.tile_by_name("a").unwrap();
        let b = p.tile_by_name("b").unwrap();
        assert_eq!(p.manhattan(a, b), 4);
    }

    #[test]
    fn out_of_mesh_rejected() {
        let err = PlatformBuilder::mesh(2, 2)
            .tile("x", TileKind::Arm, Coord { x: 5, y: 0 })
            .build()
            .unwrap_err();
        assert!(matches!(err, PlatformError::OutOfMesh { .. }));
    }

    #[test]
    fn duplicate_position_rejected() {
        let err = PlatformBuilder::mesh(2, 2)
            .tile("x", TileKind::Arm, Coord { x: 0, y: 0 })
            .tile("y", TileKind::Arm, Coord { x: 0, y: 0 })
            .build()
            .unwrap_err();
        assert!(matches!(err, PlatformError::DuplicatePosition(_)));
    }

    #[test]
    fn neighbours_clipped_at_borders() {
        let p = small();
        let corner: Vec<Coord> = p.neighbours(Coord { x: 0, y: 0 }).collect();
        assert_eq!(corner.len(), 2);
        let centre: Vec<Coord> = p.neighbours(Coord { x: 1, y: 1 }).collect();
        assert_eq!(centre.len(), 4);
    }

    #[test]
    fn link_lookup_is_directional() {
        let p = small();
        let a = Coord { x: 0, y: 0 };
        let b = Coord { x: 1, y: 0 };
        let ab = p.link_between(a, b).unwrap();
        let ba = p.link_between(b, a).unwrap();
        assert_ne!(ab, ba);
        assert_eq!(p.link(ab).from, a);
        assert_eq!(p.link(ba).from, b);
        // Non-adjacent routers have no direct link.
        assert!(p.link_between(a, Coord { x: 2, y: 0 }).is_none());
    }

    #[test]
    fn adjacency_matches_link_index_everywhere() {
        let p = small();
        for y in 0..p.height() {
            for x in 0..p.width() {
                let here = Coord { x, y };
                let entries = p.adjacency(here);
                let expected: Vec<Coord> = {
                    let (xi, yi) = (x as i32, y as i32);
                    [(xi - 1, yi), (xi + 1, yi), (xi, yi - 1), (xi, yi + 1)]
                        .into_iter()
                        .filter(|&(nx, ny)| {
                            nx >= 0
                                && ny >= 0
                                && (nx as u16) < p.width()
                                && (ny as u16) < p.height()
                        })
                        .map(|(nx, ny)| Coord {
                            x: nx as u16,
                            y: ny as u16,
                        })
                        .collect()
                };
                assert_eq!(
                    entries.iter().map(|e| e.to).collect::<Vec<_>>(),
                    expected,
                    "adjacency order at {here}"
                );
                for e in entries {
                    assert_eq!(p.link_between(here, e.to), Some(e.link));
                }
            }
        }
    }

    #[test]
    fn name_index_prefers_first_duplicate() {
        let p = PlatformBuilder::mesh(2, 1)
            .tile("dup", TileKind::Arm, Coord { x: 0, y: 0 })
            .tile("dup", TileKind::Arm, Coord { x: 1, y: 0 })
            .build()
            .unwrap();
        assert_eq!(p.tile_by_name("dup"), Some(TileId(0)));
        assert_eq!(p.tile_by_name("missing"), None);
    }

    #[test]
    fn stream_endpoints_are_the_first_tiles_of_their_kind() {
        let p = PlatformBuilder::mesh(4, 1)
            .tile("arm", TileKind::Arm, Coord { x: 0, y: 0 })
            .tile("adc1", TileKind::AdcSource, Coord { x: 1, y: 0 })
            .tile("adc2", TileKind::AdcSource, Coord { x: 2, y: 0 })
            .build()
            .unwrap();
        let first = |kind| p.tiles_of_kind(kind).map(|(id, _)| id).next();
        assert_eq!(p.stream_input_tile(), first(TileKind::AdcSource));
        assert_eq!(p.stream_input_tile(), p.tile_by_name("adc1"));
        assert_eq!(p.stream_output_tile(), None);
        // Rebuilt, not serialized.
        let back: Platform = PlatformSerde::from(p.clone()).into();
        assert_eq!(back, p);
    }

    #[test]
    fn tiles_of_kind_in_id_order() {
        let p = PlatformBuilder::mesh(3, 1)
            .tile("m1", TileKind::Montium, Coord { x: 0, y: 0 })
            .tile("a1", TileKind::Arm, Coord { x: 1, y: 0 })
            .tile("m2", TileKind::Montium, Coord { x: 2, y: 0 })
            .build()
            .unwrap();
        let monts: Vec<&str> = p
            .tiles_of_kind(TileKind::Montium)
            .map(|(_, t)| t.name.as_str())
            .collect();
        assert_eq!(monts, vec!["m1", "m2"]);
    }
}
