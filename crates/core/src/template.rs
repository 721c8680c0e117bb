//! Design-time template library with run-time shape instantiation —
//! microsecond admission for recurring applications.
//!
//! The four-step heuristic re-derives everything from scratch on every
//! arrival, and its step 4 (CSDF composition + buffer sizing) dominates the
//! map time (`mapper.step4.p50_us` against `mapper.ok.p50_us` in the
//! repo benchmark's report, `benchmark/README.md`). Production run-time
//! mappers split that work instead
//! (Weichslgartner et al., *A Design-Time/Run-Time Application Mapping
//! Methodology*, 2017): explore mappings once per application *class* at
//! design time, then instantiate a precomputed mapping "shape" in
//! microseconds at run time.
//!
//! The library behind a [`TemplatedMapper`] caches, per application spec
//! (keyed by its [`ApplicationSpec::structural_digest`]), a bounded set of
//! mapping shapes: tile-*type*-
//! relative placements (process → offset from an anchor tile) plus the
//! route skeleton (per-channel router counts and demands) and the
//! already-verified buffer sizing, achieved period, latency, and energy of
//! the mapping they were canonicalised from.
//!
//! At admission, [`TemplatedMapper`] matches shapes against the current
//! platform. Behind a [`RuntimeManager`](crate::RuntimeManager), a
//! placement on a platform simply too full for it never gets here: the
//! slot-matching certificate
//! ([`Demand::cannot_fit`](crate::runtime::Demand::cannot_fit)) refuses it
//! before the library is consulted. A lookup is its candidate loop:
//! anchors come from [`PlatformState::free_anchor_tiles`] (the same
//! free-capacity notion as `fragmentation()`, with failed tiles excluded),
//! each shape in insertion order is translated to every anchor under the
//! mesh's four rotations, quick-rejected on tile
//! kind / clock / health / [`MappingConstraints`], and then fit-checked by
//! staging the *exact* claims `MappingOutcome::stage_commit` would make
//! (tile reservations, buffer memory, routed paths with NI bandwidth)
//! through the same [`PlatformState`] primitives the run-time manager
//! commits through, on a scratch copy of the ledger that the library keeps
//! from one lookup to the next. The copy is refreshed in place
//! ([`Clone::clone_from`], which allocates nothing) when the first
//! candidate of a lookup gets past the skeleton checks, and again after a
//! misfit that staged something: what a candidate staged is left on the
//! copy, never undone. Channels are re-routed fresh —
//! stream endpoints (A/D, Sink) are fixed tiles, so recorded paths do not
//! translate — and a candidate is accepted only if every re-routed channel
//! traverses **exactly as many routers as the recorded route**.
//!
//! What does not change between candidates is worked out once, when a
//! shape is learned (`MappingShape::canonicalise`): each process's
//! reservation (the memory and cycles its implementation claims; one
//! compute slot, no NI bandwidth) and each channel end's *slot* — a
//! position in the shape's assignments, or the stream input or output. A
//! candidate resolves its tiles into a buffer the library reuses, stages
//! the stored claims, finds each route's ends by slot, and builds its
//! `Mapping` only once it is past the tile skeleton: the candidate loop
//! derives no claim and looks nothing up in a `Mapping`. The stored claims
//! are exactly as sound as the recorded buffer sizing, period and latency
//! the hit already reuses — all are functions of the spec the
//! structural-digest key stands for.
//!
//! That router-count equality is what makes skipping step 4 sound: the
//! composed CSDF graph of Figure 3 depends only on the spec, the chosen
//! implementations, each assigned tile's clock, and the per-channel router
//! counts (router actors all share the NoC clock). Equal counts on
//! equal-clock tiles give an isomorphic graph, so the recorded buffer
//! sizing, achieved period, and latency transfer unchanged — the hit path
//! performs *no* dataflow analysis at all, which is why it runs in a few
//! microseconds (`templates.hit`), several times under the full heuristic.
//! The property-based twin-feasibility tests re-run the full step-4 check
//! on template-admitted mappings to validate exactly this argument.
//!
//! On a miss the wrapped algorithm runs as usual and its outcome is
//! *learned* back into the library (deduplicated, bounded per spec with
//! deterministic lowest-hits-then-oldest eviction), so steady-state traffic
//! converges onto the hit path. With no `TemplatedMapper` in the loop,
//! nothing here runs and fixed-seed reports are byte-for-byte unchanged.

use crate::algorithm::{MappingAlgorithm, MappingOutcome};
use crate::claims::{hard_reservation, reservation_of};
use crate::constraints::MappingConstraints;
use crate::error::MapError;
use crate::mapping::{Mapping, RouteBinding};
use crate::step4::ChannelBuffer;
use rtsm_app::{ApplicationSpec, Endpoint, KpnChannelId, ProcessId};
use rtsm_obs as obs;
use rtsm_platform::routing::route_with;
use rtsm_platform::{Coord, Platform, PlatformState, RouteScratch, TileClaim, TileId, TileKind};
use std::cell::RefCell;
use std::collections::HashMap;

/// Most shapes a library caches per application spec.
pub const SHAPE_CAP: usize = 8;

/// Where a channel end of a shape sits: a position in the shape's
/// `assignments`, or the platform's stream input or output. Worked out when
/// the shape is learned, so a candidate finds a channel's tiles by index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Slot(u16);

impl Slot {
    const STREAM_INPUT: Slot = Slot(u16::MAX);
    const STREAM_OUTPUT: Slot = Slot(u16::MAX - 1);
    /// The most assignments a shape holds: positions stay below the two
    /// stream-endpoint slots.
    const MAX_ASSIGNMENTS: usize = u16::MAX as usize - 1;

    /// The tile this slot names under a candidate that put assignment `i`
    /// on `tiles[i]`; `None` for a stream endpoint the platform lacks.
    fn tile(self, tiles: &[TileId], platform: &Platform) -> Option<TileId> {
        match self {
            Slot::STREAM_INPUT => platform.stream_input_tile(),
            Slot::STREAM_OUTPUT => platform.stream_output_tile(),
            Slot(position) => Some(tiles[usize::from(position)]),
        }
    }
}

/// One process's slot in a shape: which implementation, the tile offset
/// from the anchor, the tile kind/clock the offset was recorded on (clock
/// equality is required for the CSDF-isomorphism argument), and the memory
/// and cycles its reservation claims — with one compute slot and no NI
/// bandwidth, as [`reservation_of`] always gives.
#[derive(Debug, Clone, PartialEq, Eq)]
struct ShapeAssignment {
    memory_bytes: u64,
    cycles_per_second: u64,
    clock_mhz: u32,
    process: u32,
    impl_index: u16,
    dx: i16,
    dy: i16,
    kind: TileKind,
}

impl ShapeAssignment {
    fn process(&self) -> ProcessId {
        ProcessId::from_index(self.process as usize)
    }

    fn offset(&self) -> (i32, i32) {
        (i32::from(self.dx), i32::from(self.dy))
    }

    /// What staging this process claims on its tile.
    fn reservation(&self) -> TileClaim {
        hard_reservation(self.memory_bytes, self.cycles_per_second)
    }
}

/// One channel's recorded route skeleton: the ends' slots, and a path of
/// exactly `router_count` routers at `demand` words/second — or, with
/// `router_count` 0, both ends on one tile (a path has at least one router).
#[derive(Debug, Clone, PartialEq, Eq)]
struct ShapeRoute {
    demand: u64,
    channel: u32,
    router_count: u32,
    src: Slot,
    dst: Slot,
}

/// One already-verified tile-side buffer (`B_i`), held on the tile of its
/// consumer's slot.
#[derive(Debug, Clone, PartialEq, Eq)]
struct ShapeBuffer {
    capacity_words: u64,
    channel: u32,
    dst: Slot,
}

// A library holds up to `SHAPE_CAP` shapes per spec for as long as
// it lives: compiling claims and slots into a shape must not grow it.
const _: () = assert!(std::mem::size_of::<ShapeAssignment>() <= 32);
const _: () = assert!(std::mem::size_of::<ShapeRoute>() <= 24);
const _: () = assert!(std::mem::size_of::<ShapeBuffer>() <= 16);

fn channel_id(index: u32) -> KpnChannelId {
    KpnChannelId::from_index(index as usize)
}

/// A canonicalised, position-independent mapping: relative placements with
/// their claims, the route skeleton, and the verified QoS results of the
/// mapping it came from. Produced by [`MappingShape::canonicalise`],
/// instantiated by the [`TemplateLibrary`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct MappingShape {
    assignments: Vec<ShapeAssignment>,
    routes: Vec<ShapeRoute>,
    buffers: Vec<ShapeBuffer>,
    energy_pj: u64,
    achieved_period: (u64, u64),
    latency_ps: Option<u64>,
}

impl MappingShape {
    /// Canonicalises a feasible outcome of `spec` into a tile-type-relative
    /// shape: the first assignment (process-id order) becomes the anchor at
    /// offset `(0, 0)`. Each process's reservation and each channel end's
    /// slot are worked out here, once, so that a lookup only routes and
    /// stages. Returns `None` for an outcome with no assignments, with a
    /// channel end on an unassigned process, or that does not fit the
    /// shape's widths (`u32` ids, `u16` implementation indices and slots,
    /// `i16` offsets).
    pub fn canonicalise(
        outcome: &MappingOutcome,
        spec: &ApplicationSpec,
        platform: &Platform,
    ) -> Option<MappingShape> {
        let (_, first) = outcome.mapping.assignments().next()?;
        let anchor = platform.tile(first.tile).position;
        let offset = |from: u16, to: u16| i16::try_from(i32::from(to) - i32::from(from)).ok();
        let n_assignments = outcome.mapping.assignments().count();
        if n_assignments > Slot::MAX_ASSIGNMENTS {
            return None;
        }
        let mut assignments = Vec::with_capacity(n_assignments);
        for (pid, a) in outcome.mapping.assignments() {
            let tile = platform.tile(a.tile);
            let implementation = spec.library.impls_for(pid).get(a.impl_index)?;
            let claim = reservation_of(&crate::claims::claim_for(spec, pid, implementation));
            debug_assert_eq!((claim.slots, claim.injection, claim.ejection), (1, 0, 0));
            assignments.push(ShapeAssignment {
                memory_bytes: claim.memory_bytes,
                cycles_per_second: claim.cycles_per_second,
                clock_mhz: tile.clock_mhz,
                process: u32::try_from(pid.index()).ok()?,
                impl_index: u16::try_from(a.impl_index).ok()?,
                dx: offset(anchor.x, tile.position.x)?,
                dy: offset(anchor.y, tile.position.y)?,
                kind: tile.kind,
            });
        }
        // Assignments are in process-id order, so a process's slot is found
        // by bisection.
        let slot = |end: Endpoint| match end {
            Endpoint::StreamInput => Some(Slot::STREAM_INPUT),
            Endpoint::StreamOutput => Some(Slot::STREAM_OUTPUT),
            Endpoint::Process(p) => assignments
                .binary_search_by_key(&p.index(), |a| a.process as usize)
                .ok()
                .map(|position| Slot(position as u16)),
        };
        let mut routes = Vec::with_capacity(outcome.mapping.routes().count());
        for (cid, route) in outcome.mapping.routes() {
            let ch = spec.graph.channel(cid);
            let (router_count, demand) = match route {
                RouteBinding::SameTile => (0, 0),
                RouteBinding::Path(path) => (path.router_count(), path.demand),
            };
            routes.push(ShapeRoute {
                demand,
                channel: u32::try_from(cid.index()).ok()?,
                router_count,
                src: slot(ch.src)?,
                dst: slot(ch.dst)?,
            });
        }
        let mut buffers = Vec::with_capacity(outcome.buffers.len());
        for b in &outcome.buffers {
            buffers.push(ShapeBuffer {
                capacity_words: b.capacity_words,
                channel: u32::try_from(b.channel.index()).ok()?,
                dst: slot(spec.graph.channel(b.channel).dst)?,
            });
        }
        Some(MappingShape {
            assignments,
            routes,
            buffers,
            energy_pj: outcome.energy_pj,
            achieved_period: outcome.achieved_period,
            latency_ps: outcome.latency_ps,
        })
    }

    /// Which of the four mesh rotations of the offset vector are distinct:
    /// bit `k` is set when `k` quarter turns give a vector no fewer turns
    /// give (a single-tile shape has one distinct rotation, not four).
    /// Computed once, when the shape is learned (see [`ShapeEntry`]).
    fn distinct_rotations(&self) -> u8 {
        let rotated = |k: u8| self.assignments.iter().map(move |a| rotate(k, a.offset()));
        (0..4u8)
            .filter(|&k| !(0..k).any(|fewer| rotated(fewer).eq(rotated(k))))
            .fold(0, |mask, k| mask | 1 << k)
    }

    /// Shape indices within spec bounds? Guards the (astronomically
    /// unlikely) fingerprint collision and stale libraries.
    fn indexes_into(&self, spec: &ApplicationSpec) -> bool {
        self.assignments.iter().all(|a| {
            a.process().index() < spec.graph.n_processes()
                && usize::from(a.impl_index) < spec.library.impls_for(a.process()).len()
        }) && self
            .routes
            .iter()
            .map(|r| r.channel)
            .chain(self.buffers.iter().map(|b| b.channel))
            .all(|c| (c as usize) < spec.graph.n_channels())
    }
}

/// `offset` turned by `quarter_turns` × 90° about the anchor.
fn rotate(quarter_turns: u8, (dx, dy): (i32, i32)) -> (i32, i32) {
    match quarter_turns {
        0 => (dx, dy),
        1 => (dy, -dx),
        2 => (-dx, -dy),
        _ => (-dy, dx),
    }
}

/// What a lookup reuses from one call to the next: the router's working
/// memory, the tiles a candidate puts its shape's assignments on, and the
/// ledger candidates are staged on.
#[derive(Debug, Default)]
struct LookupScratch {
    routes: RouteScratch,
    tiles: Vec<TileId>,
    /// A copy of the lookup's base ledger, refreshed in place
    /// ([`Clone::clone_from`]) when it is needed and no longer equal to
    /// the base; empty until the first candidate gets past the skeleton.
    ledger: PlatformState,
}

/// One lookup's fit check: what its candidates are checked against, and the
/// scratch they are checked on.
struct FitCheck<'a> {
    spec: &'a ApplicationSpec,
    platform: &'a Platform,
    base: &'a PlatformState,
    constraints: &'a MappingConstraints,
    scratch: &'a mut LookupScratch,
    /// Whether the scratch ledger equals `base`. It does not when the
    /// lookup starts (it holds whatever the last lookup left), so the
    /// first candidate past the skeleton checks refreshes it. Each
    /// candidate leaves what it staged on the scratch ledger, undoing
    /// nothing: one that staged something and failed leaves it stale, and
    /// the next candidate past the skeleton refreshes it again.
    fresh: bool,
    /// Candidates tried so far.
    tried: u64,
}

impl<'a> FitCheck<'a> {
    /// A fit check of `spec` against `base`, with no candidate tried yet
    /// and the scratch ledger not yet refreshed.
    fn new(
        spec: &'a ApplicationSpec,
        platform: &'a Platform,
        base: &'a PlatformState,
        constraints: &'a MappingConstraints,
        scratch: &'a mut LookupScratch,
    ) -> Self {
        FitCheck {
            spec,
            platform,
            base,
            constraints,
            scratch,
            fresh: false,
            tried: 0,
        }
    }

    /// Attempts to place `shape`, turned by `quarter_turns`, at `anchor`:
    /// quick tile-skeleton rejects first, which resolve the assignments'
    /// tiles into the reused `tiles` buffer, then the full fit check,
    /// staging on the scratch ledger exactly what
    /// `MappingOutcome::stage_commit` will claim — the shape's compiled
    /// reservations, routes between the tiles its slots name, and buffer
    /// memory. Returns the instantiated outcome on success; `base` is never
    /// mutated.
    fn try_candidate(
        &mut self,
        shape: &MappingShape,
        quarter_turns: u8,
        anchor: TileId,
    ) -> Option<MappingOutcome> {
        let (spec, platform) = (self.spec, self.platform);
        let anchor_pos = platform.tile(anchor).position;
        let LookupScratch {
            routes,
            tiles,
            ledger,
        } = &mut *self.scratch;
        tiles.clear();
        for sa in &shape.assignments {
            let (dx, dy) = rotate(quarter_turns, sa.offset());
            let x = i32::from(anchor_pos.x) + dx;
            let y = i32::from(anchor_pos.y) + dy;
            if x < 0
                || y < 0
                || x >= i32::from(platform.width())
                || y >= i32::from(platform.height())
            {
                return None;
            }
            let tid = platform.tile_at(Coord {
                x: x as u16,
                y: y as u16,
            })?;
            let tile = platform.tile(tid);
            if tile.kind != sa.kind
                || tile.clock_mhz != sa.clock_mhz
                || self.base.is_tile_failed(tid)
                || !self.constraints.allows(sa.process(), tid)
            {
                return None;
            }
            tiles.push(tid);
        }

        let mut mapping = Mapping::for_spec(spec);
        if !self.fresh {
            ledger.clone_from(self.base);
        }
        // Whatever is staged stays on the scratch ledger: a fit leaves
        // nothing to undo, and a misfit's claims are not undone either —
        // the next candidate past the skeleton refreshes the ledger instead,
        // unless the misfit staged nothing.
        self.fresh = true;
        let buffers = stage_candidate(
            shape,
            platform,
            tiles,
            routes,
            ledger,
            &mut self.fresh,
            &mut mapping,
        )?;

        let communication_hops = mapping.communication_hops(spec, platform);
        Some(MappingOutcome {
            mapping,
            buffers,
            energy_pj: shape.energy_pj,
            communication_hops,
            feasible: true,
            evaluated: 0, // candidate count filled in by the caller
            attempts: 1,
            achieved_period: shape.achieved_period,
            latency_ps: shape.latency_ps,
            trace: None,
        })
    }

    /// Tries every (rotation, anchor) placement of `entry`'s shape in
    /// deterministic order — every distinct rotation at every free anchor
    /// of its first process's tile kind — counting each in `tried`.
    fn instantiate_shape(&mut self, entry: &ShapeEntry) -> Option<MappingOutcome> {
        let shape = &entry.shape;
        if shape.assignments.is_empty() || !shape.indexes_into(self.spec) {
            return None;
        }
        let anchors = self
            .base
            .free_anchor_tiles(self.platform, shape.assignments[0].kind);
        for quarter_turns in (0..4u8).filter(|k| entry.rotations >> k & 1 == 1) {
            for &anchor in &anchors {
                self.tried += 1;
                if let Some(outcome) = self.try_candidate(shape, quarter_turns, anchor) {
                    return Some(outcome);
                }
            }
        }
        None
    }
}

/// Stages on `ledger` the claims, in kind, that committing a candidate of
/// `shape` on `tiles` will make, and binds them in `mapping`: process
/// reservations first, then fresh routes (allocated as they are found, so
/// channels of this application contend with each other exactly as in step
/// 3), then buffer memory on the consumer tiles. Returns the candidate's
/// buffers, or `None` at the first misfit, with what was staged before it
/// left on `ledger`. Clears `fresh` once anything is staged: every
/// primitive stages all or nothing, and the first is always a process
/// reservation.
fn stage_candidate(
    shape: &MappingShape,
    platform: &Platform,
    tiles: &[TileId],
    routes: &mut RouteScratch,
    ledger: &mut PlatformState,
    fresh: &mut bool,
    mapping: &mut Mapping,
) -> Option<Vec<ChannelBuffer>> {
    for (sa, &tile) in shape.assignments.iter().zip(tiles) {
        ledger.claim_tile(platform, tile, &sa.reservation()).ok()?;
        *fresh = false;
        mapping.assign(sa.process(), usize::from(sa.impl_index), tile);
    }
    for sr in &shape.routes {
        let from = sr.src.tile(tiles, platform)?;
        let to = sr.dst.tile(tiles, platform)?;
        let channel = channel_id(sr.channel);
        if (from == to) != (sr.router_count == 0) {
            return None;
        }
        if from == to {
            mapping.bind_route(channel, RouteBinding::SameTile);
            continue;
        }
        let path = route_with(platform, ledger, from, to, sr.demand, routes).ok()?;
        // Router-count equality keeps the composed CSDF isomorphic to the
        // recorded one, so the cached sizing/period/latency stay valid.
        if path.router_count() != sr.router_count {
            return None;
        }
        ledger.allocate_path(platform, path).ok()?;
        mapping.bind_route(channel, RouteBinding::Path(path.clone()));
    }
    let mut buffers = Vec::with_capacity(shape.buffers.len());
    for sb in &shape.buffers {
        let buffer = ChannelBuffer {
            channel: channel_id(sb.channel),
            capacity_words: sb.capacity_words,
            tile: sb.dst.tile(tiles, platform)?,
        };
        ledger
            .claim_tile(platform, buffer.tile, &buffer.claim())
            .ok()?;
        buffers.push(buffer);
    }
    Some(buffers)
}

/// A snapshot of the library's lifetime statistics — what the simulator
/// and benchmarks report.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TemplateStats {
    /// Admissions served by instantiating a cached shape.
    pub hits: u64,
    /// Calls that found no instantiable shape and fell back to the wrapped
    /// algorithm. A count of *consultations*: the
    /// [`RuntimeManager`](crate::RuntimeManager) does not consult the
    /// library for a retry whose refusal it already holds, nor for any
    /// placement that [cannot fit](crate::runtime::Demand::cannot_fit) —
    /// a certified refusal, of a `start` or `switch` as of a plan, on a
    /// full platform or while a stream endpoint's tile is failed — nor for
    /// a specification that fails validation, so lookups that could not
    /// have hit are not counted.
    pub misses: u64,
    /// Shapes learned from the design-time seeding pass (first arrival of
    /// each spec, mapped on an empty platform).
    pub seeded: u64,
    /// Shapes currently cached, over all specs.
    pub shapes_cached: u64,
    /// Shapes evicted by the per-spec cap, [`SHAPE_CAP`].
    pub evictions: u64,
}

/// A cached shape with its usage record. Which rotations are distinct
/// ([`MappingShape::distinct_rotations`]) is derived when the shape is
/// learned and kept beside it — not inside it, where it would take part in
/// the deduplicating `==` — as a mask of quarter turns: a lookup neither
/// derives nor allocates offset vectors. The hit count ranks eviction
/// victims and saturates rather than wraps.
#[derive(Debug)]
struct ShapeEntry {
    shape: MappingShape,
    rotations: u8,
    hits: u32,
    seq: u64,
}

/// The per-spec shape cache (see the [module docs](self)): bounded,
/// deterministic, and usable through any [`MappingAlgorithm`] via
/// [`TemplatedMapper`].
#[derive(Debug, Default)]
pub(crate) struct TemplateLibrary {
    specs: HashMap<u64, Vec<ShapeEntry>>,
    seq: u64,
    hits: u64,
    misses: u64,
    seeded: u64,
    evictions: u64,
    scratch: LookupScratch,
}

impl TemplateLibrary {
    /// True once `key` has been seen (even if seeding produced no shape).
    pub fn contains(&self, key: u64) -> bool {
        self.specs.contains_key(&key)
    }

    /// Marks `key` as seen, so seeding runs once per spec.
    pub fn register(&mut self, key: u64) {
        self.specs.entry(key).or_default();
    }

    /// Learns `shape` for `key`: deduplicated against cached shapes, and
    /// bounded by [`SHAPE_CAP`] per spec with deterministic eviction of the
    /// lowest-hit (then oldest) entry. Returns whether the shape was
    /// stored.
    pub fn learn(&mut self, key: u64, shape: MappingShape) -> bool {
        self.seq += 1;
        let seq = self.seq;
        let shapes = self.specs.entry(key).or_default();
        if shapes.iter().any(|s| s.shape == shape) {
            return false;
        }
        if shapes.len() >= SHAPE_CAP {
            let victim = shapes
                .iter()
                .enumerate()
                .min_by_key(|(_, s)| (s.hits, s.seq))
                .map(|(i, _)| i)
                .expect("the list is full");
            shapes.remove(victim);
            self.evictions += 1;
        }
        shapes.push(ShapeEntry {
            rotations: shape.distinct_rotations(),
            shape,
            hits: 0,
            seq,
        });
        true
    }

    /// Attempts to admit `spec` from the cached shapes of `key`: each shape
    /// in insertion order, over every rotation and free anchor, with the
    /// full fit check. Emits [`obs::Span::TemplateMatch`]
    /// around the whole lookup. Returns `None` on miss (the caller falls
    /// back to its wrapped algorithm).
    pub fn instantiate(
        &mut self,
        key: u64,
        spec: &ApplicationSpec,
        platform: &Platform,
        base: &PlatformState,
        constraints: &MappingConstraints,
    ) -> Option<MappingOutcome> {
        let _span = obs::span(obs::Span::TemplateMatch);
        let shapes = self.specs.get_mut(&key)?;
        let mut fit = FitCheck::new(spec, platform, base, constraints, &mut self.scratch);
        for entry in shapes.iter_mut() {
            if let Some(mut outcome) = fit.instantiate_shape(entry) {
                entry.hits = entry.hits.saturating_add(1);
                outcome.evaluated = fit.tried;
                return Some(outcome);
            }
        }
        None
    }

    /// Current statistics snapshot.
    pub fn stats(&self) -> TemplateStats {
        TemplateStats {
            hits: self.hits,
            misses: self.misses,
            seeded: self.seeded,
            shapes_cached: self.specs.values().map(|s| s.len() as u64).sum(),
            evictions: self.evictions,
        }
    }

    fn note_hit(&mut self) {
        self.hits += 1;
    }

    fn note_miss(&mut self) {
        self.misses += 1;
    }

    fn note_seeded(&mut self) {
        self.seeded += 1;
    }
}

/// A [`MappingAlgorithm`] adaptor that front-runs its wrapped algorithm
/// with a template library (see the [module docs](self)): hits are
/// admitted in a few microseconds, misses run the wrapped algorithm and
/// are learned. `name()` delegates to the inner algorithm, so reports stay
/// comparable across templated and untemplated runs.
#[derive(Debug)]
pub struct TemplatedMapper<A> {
    inner: A,
    library: RefCell<TemplateLibrary>,
}

impl<A: MappingAlgorithm> TemplatedMapper<A> {
    /// Wraps `inner` with an empty library of at most [`SHAPE_CAP`] shapes
    /// per spec.
    pub fn new(inner: A) -> Self {
        TemplatedMapper {
            inner,
            library: RefCell::default(),
        }
    }

    /// The wrapped algorithm.
    pub fn inner(&self) -> &A {
        &self.inner
    }

    /// Current library statistics.
    pub fn stats(&self) -> TemplateStats {
        self.library.borrow().stats()
    }
}

impl<A: MappingAlgorithm> MappingAlgorithm for TemplatedMapper<A> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn map_constrained(
        &self,
        spec: &ApplicationSpec,
        platform: &Platform,
        base: &PlatformState,
        constraints: &MappingConstraints,
    ) -> Result<MappingOutcome, MapError> {
        // Read in O(1) off the digests the spec's graph and library keep of
        // themselves: this runs on every arrival, ahead of a lookup that
        // most often ends in "no". Structurally identical specs always share
        // a key; the converse holds up to a 64-bit collision, and
        // `MappingShape::indexes_into` guards no more than that a colliding
        // spec's shapes cannot index out of bounds.
        let key = spec.structural_digest();

        // Design-time seeding, lazily on the first arrival of each spec:
        // one unconstrained map on an *empty* platform gives the canonical
        // uncongested shape. Runs at most once per spec, even if it fails.
        if !self.library.borrow().contains(key) {
            self.library.borrow_mut().register(key);
            if let Ok(seeded) = self.inner.map_constrained(
                spec,
                platform,
                &platform.initial_state(),
                &MappingConstraints::none(),
            ) {
                if let Some(shape) = MappingShape::canonicalise(&seeded, spec, platform) {
                    let mut library = self.library.borrow_mut();
                    if library.learn(key, shape) {
                        library.note_seeded();
                    }
                }
            }
        }

        let attempt = self
            .library
            .borrow_mut()
            .instantiate(key, spec, platform, base, constraints);
        if let Some(outcome) = attempt {
            obs::count(obs::Counter::TemplateHit, 1);
            self.library.borrow_mut().note_hit();
            return Ok(outcome);
        }
        obs::count(obs::Counter::TemplateMiss, 1);
        self.library.borrow_mut().note_miss();

        let outcome = self
            .inner
            .map_constrained(spec, platform, base, constraints)?;
        if let Some(shape) = MappingShape::canonicalise(&outcome, spec, platform) {
            self.library.borrow_mut().learn(key, shape);
        }
        Ok(outcome)
    }
}

#[cfg(test)]
mod twin;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapper::{MapperConfig, SpatialMapper};
    use rtsm_app::hiperlan2::{hiperlan2_receiver, Hiperlan2Mode};
    use rtsm_platform::paper::paper_platform;
    use rtsm_platform::PlatformBuilder;
    use rtsm_workloads::apps::{jpeg_encoder, mp3_decoder};
    use rtsm_workloads::mesh_platform;

    fn mapper() -> TemplatedMapper<SpatialMapper> {
        TemplatedMapper::new(SpatialMapper::new(MapperConfig::default()))
    }

    #[test]
    fn the_key_is_structural() {
        let a = hiperlan2_receiver(Hiperlan2Mode::Qpsk34);
        let b = hiperlan2_receiver(Hiperlan2Mode::Qpsk34);
        assert_eq!(a.structural_digest(), b.structural_digest());
        let c = hiperlan2_receiver(Hiperlan2Mode::Qam16R34);
        assert_ne!(a.structural_digest(), c.structural_digest());
    }

    #[test]
    fn distinct_rotations_mask_matches_collected_offset_vectors() {
        let spec = hiperlan2_receiver(Hiperlan2Mode::Qpsk34);
        let platform = paper_platform();
        let outcome = SpatialMapper::default()
            .map(&spec, &platform, &platform.initial_state())
            .unwrap();
        let spread = MappingShape::canonicalise(&outcome, &spec, &platform).unwrap();
        // A shape whose every process sits on the anchor looks the same
        // from all four sides.
        let mut stacked = spread.clone();
        for a in &mut stacked.assignments {
            (a.dx, a.dy) = (0, 0);
        }
        for (shape, expected) in [(&spread, 0b1111), (&stacked, 0b0001)] {
            // The oracle: collect each rotation's offsets, keep the new ones.
            let mut seen: Vec<Vec<(i32, i32)>> = Vec::new();
            let mut mask = 0u8;
            for k in 0..4u8 {
                let offsets: Vec<_> = shape
                    .assignments
                    .iter()
                    .map(|a| rotate(k, a.offset()))
                    .collect();
                if !seen.contains(&offsets) {
                    seen.push(offsets);
                    mask |= 1 << k;
                }
            }
            assert_eq!(shape.distinct_rotations(), mask);
            assert_eq!(mask, expected);
        }
    }

    /// `evaluated` counts every candidate tried before the hit, across
    /// shapes: a shape that fits at no free anchor adds each of its
    /// distinct rotations at each free anchor of its anchor kind, and the
    /// hit adds its position in the next shape's loop.
    #[test]
    fn evaluated_counts_every_candidate_of_the_shapes_before_a_hit() {
        let platform = mesh_platform(
            42,
            5,
            5,
            &[
                (TileKind::Montium, 6),
                (TileKind::Arm, 8),
                (TileKind::Dsp, 4),
            ],
        );
        let (running, arriving) = (jpeg_encoder(), mp3_decoder());
        let inner = SpatialMapper::default();
        let mut base = platform.initial_state();
        inner
            .map(&running, &platform, &base)
            .unwrap()
            .commit(&running, &platform, &mut base)
            .unwrap();
        let fits = inner.map(&arriving, &platform, &base).unwrap();
        let fits = MappingShape::canonicalise(&fits, &arriving, &platform).unwrap();
        // The same placements with one channel's recorded route longer than
        // any path on a 5×5 mesh: every candidate is turned away.
        let mut misfit = fits.clone();
        misfit
            .routes
            .iter_mut()
            .find(|r| r.router_count != 0)
            .expect("a routed channel")
            .router_count += 1_000;

        let key = arriving.structural_digest();
        let lookup = |shapes: &[&MappingShape]| {
            let mut library = TemplateLibrary::default();
            for &shape in shapes {
                assert!(library.learn(key, shape.clone()));
            }
            let none = MappingConstraints::none();
            let outcome = library.instantiate(key, &arriving, &platform, &base, &none);
            let hits: Vec<u32> = library.specs[&key].iter().map(|e| e.hits).collect();
            (outcome, hits)
        };
        assert!(lookup(&[&misfit]).0.is_none(), "the misfit fits nowhere");
        let (alone, _) = lookup(&[&fits]);
        let alone = alone.expect("the shape hits on the ledger it came from");
        let (behind, hits) = lookup(&[&misfit, &fits]);
        let behind = behind.expect("the second shape hits");

        let anchor_kind = misfit.assignments[0].kind;
        let free_anchors = base.free_anchor_tiles(&platform, anchor_kind).len() as u64;
        assert!(
            free_anchors > 0 && free_anchors < platform.tiles_of_kind(anchor_kind).count() as u64,
            "some anchors of the kind are taken, some free"
        );
        let rotations = u64::from(misfit.distinct_rotations().count_ones());
        assert_eq!(behind.evaluated, rotations * free_anchors + alone.evaluated);
        assert_eq!(behind.mapping, alone.mapping);
        assert_eq!(hits, [0, 1]);
    }

    /// Offsets are `i16`: a mapping that spans `i16::MAX` columns from its
    /// anchor is learned, one that spans a column more is not.
    #[test]
    fn canonicalise_refuses_offsets_wider_than_i16() {
        let spec = hiperlan2_receiver(Hiperlan2Mode::Qpsk34);
        let far = i16::MAX as u16 + 1;
        let platform = PlatformBuilder::mesh(far + 1, 1)
            .tile("anchor", TileKind::Arm, Coord { x: 0, y: 0 })
            .tile("edge", TileKind::Arm, Coord { x: far - 1, y: 0 })
            .tile("beyond", TileKind::Arm, Coord { x: far, y: 0 })
            .build()
            .unwrap();
        // The first process on the anchor tile, every other stream process
        // on `tile`.
        let spread_to = |tile: &str| {
            let mut mapping = Mapping::new();
            for (pid, _) in spec.graph.stream_processes() {
                let name = if pid.index() == 0 { "anchor" } else { tile };
                mapping.assign(pid, 0, platform.tile_by_name(name).unwrap());
            }
            MappingOutcome {
                mapping,
                buffers: Vec::new(),
                energy_pj: 0,
                communication_hops: 0,
                feasible: true,
                evaluated: 0,
                attempts: 1,
                achieved_period: (1, 1),
                latency_ps: None,
                trace: None,
            }
        };
        let edge = MappingShape::canonicalise(&spread_to("edge"), &spec, &platform).unwrap();
        assert_eq!(edge.assignments[1].dx, i16::MAX);
        assert!(MappingShape::canonicalise(&spread_to("beyond"), &spec, &platform).is_none());
    }

    #[test]
    fn first_arrival_seeds_then_hits() {
        let tm = mapper();
        let spec = hiperlan2_receiver(Hiperlan2Mode::Qpsk34);
        let platform = paper_platform();
        let state = platform.initial_state();
        let outcome = tm.map(&spec, &platform, &state).unwrap();
        let stats = tm.stats();
        assert_eq!(stats.seeded, 1, "first arrival seeds the library");
        assert_eq!(stats.hits, 1, "the seeded shape instantiates immediately");
        assert_eq!(stats.misses, 0);
        assert!(outcome.feasible);
        // The instantiated mapping commits cleanly.
        let mut committed = state.clone();
        outcome.commit(&spec, &platform, &mut committed).unwrap();
    }

    #[test]
    fn hit_matches_heuristic_qos_results() {
        let tm = mapper();
        let spec = hiperlan2_receiver(Hiperlan2Mode::Qpsk34);
        let platform = paper_platform();
        let state = platform.initial_state();
        let templated = tm.map(&spec, &platform, &state).unwrap();
        let heuristic = tm.inner().map(&spec, &platform, &state).unwrap();
        assert_eq!(templated.achieved_period, heuristic.achieved_period);
        assert_eq!(templated.buffers.len(), heuristic.buffers.len());
        assert_eq!(templated.energy_pj, heuristic.energy_pj);
    }

    #[test]
    fn repeated_arrivals_hit_until_capacity_runs_out() {
        let tm = mapper();
        let spec = hiperlan2_receiver(Hiperlan2Mode::Qpsk34);
        let platform = paper_platform();
        let mut state = platform.initial_state();
        // The paper platform fits one receiver; the first admission must be
        // a hit and the second (no free anchors/capacity) a miss that also
        // fails in the inner heuristic.
        let first = tm.map(&spec, &platform, &state).unwrap();
        first.commit(&spec, &platform, &mut state).unwrap();
        assert_eq!(tm.stats().hits, 1);
        assert!(tm.map(&spec, &platform, &state).is_err());
        assert_eq!(tm.stats().misses, 1, "fallback ran and also failed");
    }

    #[test]
    fn constraints_are_honoured_on_the_hit_path() {
        let tm = mapper();
        let spec = hiperlan2_receiver(Hiperlan2Mode::Qpsk34);
        let platform = paper_platform();
        let state = platform.initial_state();
        // Warm the library.
        tm.map(&spec, &platform, &state).unwrap();
        let pid = spec.graph.process_by_name("Inverse OFDM").unwrap();
        let montium2 = platform.tile_by_name("MONTIUM2").unwrap();
        let constraints = MappingConstraints::none().pin(pid, montium2);
        let outcome = tm
            .map_constrained(&spec, &platform, &state, &constraints)
            .unwrap();
        assert!(constraints.satisfied_by(&outcome.mapping));
    }

    #[test]
    fn failed_tiles_turn_cached_shapes_into_misses() {
        let tm = mapper();
        let spec = hiperlan2_receiver(Hiperlan2Mode::Qpsk34);
        let platform = paper_platform();
        let mut state = platform.initial_state();
        tm.map(&spec, &platform, &state).unwrap();
        assert!(tm.stats().shapes_cached >= 1);
        // Kill both MONTIUMs: no shape can place Inverse OFDM any more.
        state.fail_tile(platform.tile_by_name("MONTIUM1").unwrap());
        state.fail_tile(platform.tile_by_name("MONTIUM2").unwrap());
        // Admission on the degraded platform is a miss (no crash), and the
        // inner heuristic cannot map it either.
        assert!(tm.map(&spec, &platform, &state).is_err());
        assert_eq!(tm.stats().misses, 1);
    }

    #[test]
    fn cap_evicts_deterministically() {
        let mut library = TemplateLibrary::default();
        let spec = hiperlan2_receiver(Hiperlan2Mode::Qpsk34);
        let platform = paper_platform();
        let state = platform.initial_state();
        let key = spec.structural_digest();
        let outcome = SpatialMapper::new(MapperConfig::default())
            .map(&spec, &platform, &state)
            .unwrap();
        let shape = MappingShape::canonicalise(&outcome, &spec, &platform).unwrap();
        // Distinct shapes, told apart by their recorded energy.
        let nth = |i: usize| MappingShape {
            energy_pj: shape.energy_pj + i as u64,
            ..shape.clone()
        };
        assert!(library.learn(key, nth(0)));
        assert!(!library.learn(key, nth(0)), "duplicates are dropped");
        for i in 1..SHAPE_CAP {
            assert!(library.learn(key, nth(i)));
        }
        // Every entry but the second and the last has hit once: of the two
        // with the fewest hits, the older goes.
        let entries = library.specs.get_mut(&key).unwrap();
        for (i, entry) in entries.iter_mut().enumerate() {
            entry.hits = u32::from(i != 1 && i != SHAPE_CAP - 1);
        }
        assert!(library.learn(key, nth(SHAPE_CAP)));
        let kept: Vec<u64> = (library.specs[&key].iter())
            .map(|e| e.shape.energy_pj - shape.energy_pj)
            .collect();
        let expected: Vec<u64> = (0..=SHAPE_CAP as u64).filter(|&i| i != 1).collect();
        assert_eq!(kept, expected);
        let stats = library.stats();
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.shapes_cached, SHAPE_CAP as u64);
    }
}
