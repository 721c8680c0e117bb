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
//! (tile reservations, buffer memory, routed paths with NI bandwidth) in a
//! [`PlatformTransaction`] of its own — the same staging mechanism the
//! run-time manager commits through — on a scratch copy of the ledger that
//! is made at most once per lookup: a misfit drops its transaction, which
//! hands the copy back unchanged to the next candidate. Channels are
//! re-routed fresh —
//! stream endpoints (A/D, Sink) are fixed tiles, so recorded paths do not
//! translate — and a candidate is accepted only if every re-routed channel
//! traverses **exactly as many routers as the recorded route**.
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
use crate::claims::{claim_for, reservation_of};
use crate::constraints::MappingConstraints;
use crate::error::MapError;
use crate::mapping::{Mapping, RouteBinding};
use crate::step4::ChannelBuffer;
use rtsm_app::{ApplicationSpec, KpnChannelId, ProcessId};
use rtsm_obs as obs;
use rtsm_platform::routing::route_with;
use rtsm_platform::{
    Coord, Platform, PlatformState, PlatformTransaction, RouteScratch, TileClaim, TileId, TileKind,
};
use std::cell::RefCell;
use std::collections::HashMap;

/// Default bound on cached shapes per application spec.
pub const DEFAULT_SHAPE_CAP: usize = 8;

/// One process's slot in a shape: which implementation, the tile offset
/// from the anchor, and the tile kind/clock the offset was recorded on
/// (clock equality is required for the CSDF-isomorphism argument).
#[derive(Debug, Clone, PartialEq, Eq)]
struct ShapeAssignment {
    process: ProcessId,
    impl_index: usize,
    dx: i32,
    dy: i32,
    kind: TileKind,
    clock_mhz: u32,
}

/// One channel's recorded route skeleton: same-tile or a path of exactly
/// `router_count` routers at `demand` words/second.
#[derive(Debug, Clone, PartialEq, Eq)]
struct ShapeRoute {
    channel: KpnChannelId,
    same_tile: bool,
    router_count: u32,
    demand: u64,
}

/// One already-verified tile-side buffer (`B_i`); its tile is re-derived
/// from the consumer's placement at instantiation.
#[derive(Debug, Clone, PartialEq, Eq)]
struct ShapeBuffer {
    channel: KpnChannelId,
    capacity_words: u64,
}

/// A canonicalised, position-independent mapping: relative placements, the
/// route skeleton, and the verified QoS results of the mapping it came
/// from. Produced by [`MappingShape::canonicalise`], instantiated by the
/// [`TemplateLibrary`].
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
    /// Canonicalises a feasible outcome into a tile-type-relative shape:
    /// the first assignment (process-id order) becomes the anchor at offset
    /// `(0, 0)`. Returns `None` for outcomes with no assignments.
    pub fn canonicalise(outcome: &MappingOutcome, platform: &Platform) -> Option<MappingShape> {
        let (_, first) = outcome.mapping.assignments().next()?;
        let anchor = platform.tile(first.tile).position;
        let assignments = outcome
            .mapping
            .assignments()
            .map(|(pid, a)| {
                let tile = platform.tile(a.tile);
                ShapeAssignment {
                    process: pid,
                    impl_index: a.impl_index,
                    dx: i32::from(tile.position.x) - i32::from(anchor.x),
                    dy: i32::from(tile.position.y) - i32::from(anchor.y),
                    kind: tile.kind,
                    clock_mhz: tile.clock_mhz,
                }
            })
            .collect();
        let routes = outcome
            .mapping
            .routes()
            .map(|(cid, route)| match route {
                RouteBinding::SameTile => ShapeRoute {
                    channel: cid,
                    same_tile: true,
                    router_count: 0,
                    demand: 0,
                },
                RouteBinding::Path(path) => ShapeRoute {
                    channel: cid,
                    same_tile: false,
                    router_count: path.router_count(),
                    demand: path.demand,
                },
            })
            .collect();
        let buffers = outcome
            .buffers
            .iter()
            .map(|b| ShapeBuffer {
                channel: b.channel,
                capacity_words: b.capacity_words,
            })
            .collect();
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
        let rotated = |k: u8| {
            self.assignments
                .iter()
                .map(move |a| rotate(k, (a.dx, a.dy)))
        };
        (0..4u8)
            .filter(|&k| !(0..k).any(|fewer| rotated(fewer).eq(rotated(k))))
            .fold(0, |mask, k| mask | 1 << k)
    }

    /// Shape indices within spec bounds? Guards the (astronomically
    /// unlikely) fingerprint collision and stale libraries.
    fn indexes_into(&self, spec: &ApplicationSpec) -> bool {
        self.assignments.iter().all(|a| {
            a.process.index() < spec.graph.n_processes()
                && a.impl_index < spec.library.impls_for(a.process).len()
        }) && self
            .routes
            .iter()
            .map(|r| r.channel)
            .chain(self.buffers.iter().map(|b| b.channel))
            .all(|c| c.index() < spec.graph.n_channels())
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

/// One lookup's fit check: what its candidates are checked against, and the
/// scratch they are checked on.
struct FitCheck<'a> {
    spec: &'a ApplicationSpec,
    platform: &'a Platform,
    base: &'a PlatformState,
    constraints: &'a MappingConstraints,
    routes: &'a mut RouteScratch,
    /// The scratch ledger: a copy of `base`, made when the first candidate
    /// gets past the skeleton checks. Each candidate stages its claims on it
    /// in a transaction that is then dropped, so it equals `base` again for
    /// the next candidate and one copy serves the whole lookup.
    ledger: Option<PlatformState>,
    /// Candidates tried so far.
    tried: u64,
}

impl<'a> FitCheck<'a> {
    /// A fit check of `spec` against `base`, with no candidate tried yet
    /// and the scratch ledger not yet copied.
    fn new(
        spec: &'a ApplicationSpec,
        platform: &'a Platform,
        base: &'a PlatformState,
        constraints: &'a MappingConstraints,
        routes: &'a mut RouteScratch,
    ) -> Self {
        FitCheck {
            spec,
            platform,
            base,
            constraints,
            routes,
            ledger: None,
            tried: 0,
        }
    }

    /// Attempts to place `shape`, turned by `quarter_turns`, at `anchor`:
    /// quick tile-skeleton rejects first, then the full fit check, staging
    /// into one transaction on the scratch ledger exactly what
    /// `MappingOutcome::stage_commit` will claim. Returns the instantiated
    /// outcome on success; `base` is never mutated.
    fn try_candidate(
        &mut self,
        shape: &MappingShape,
        quarter_turns: u8,
        anchor: TileId,
    ) -> Option<MappingOutcome> {
        let (spec, platform) = (self.spec, self.platform);
        let anchor_pos = platform.tile(anchor).position;
        let mut mapping = Mapping::new();
        for sa in &shape.assignments {
            let (dx, dy) = rotate(quarter_turns, (sa.dx, sa.dy));
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
                || !self.constraints.allows(sa.process, tid)
            {
                return None;
            }
            mapping.assign(sa.process, sa.impl_index, tid);
        }

        // The same claims, in kind, that committing the outcome will make:
        // process reservations first, then fresh routes (allocated as they
        // are found, so channels of this application contend with each
        // other exactly as in step 3), then buffer memory on the consumer
        // tiles. A misfit returns early; dropping the transaction undoes
        // what was staged.
        let ledger = self.ledger.get_or_insert_with(|| self.base.clone());
        let mut tx = PlatformTransaction::begin(platform, ledger);
        for sa in &shape.assignments {
            let tile = mapping.assignment(sa.process).expect("assigned above").tile;
            let implementation = &spec.library.impls_for(sa.process)[sa.impl_index];
            let claim = reservation_of(&claim_for(spec, sa.process, implementation));
            tx.claim_tile(tile, &claim).ok()?;
        }
        for sr in &shape.routes {
            let ch = spec.graph.channel(sr.channel);
            let from = mapping.endpoint_tile(platform, ch.src)?;
            let to = mapping.endpoint_tile(platform, ch.dst)?;
            if from == to {
                if !sr.same_tile {
                    return None;
                }
                mapping.bind_route(sr.channel, RouteBinding::SameTile);
                continue;
            }
            if sr.same_tile {
                return None;
            }
            let path = route_with(platform, tx.state(), from, to, sr.demand, self.routes).ok()?;
            // Router-count equality keeps the composed CSDF isomorphic to
            // the recorded one, so the cached sizing/period/latency stay
            // valid.
            if path.router_count() != sr.router_count {
                return None;
            }
            let path = path.clone();
            tx.allocate_path(&path).ok()?;
            mapping.bind_route(sr.channel, RouteBinding::Path(path));
        }
        let mut buffers = Vec::with_capacity(shape.buffers.len());
        for sb in &shape.buffers {
            let ch = spec.graph.channel(sb.channel);
            let tile = mapping.endpoint_tile(platform, ch.dst)?;
            let claim = TileClaim {
                slots: 0,
                memory_bytes: sb.capacity_words * 4,
                cycles_per_second: 0,
                injection: 0,
                ejection: 0,
            };
            tx.claim_tile(tile, &claim).ok()?;
            buffers.push(ChannelBuffer {
                channel: sb.channel,
                capacity_words: sb.capacity_words,
                tile,
            });
        }

        // A fit: nothing is left to undo, and the scratch ledger, which now
        // holds this candidate's claims, is spent.
        tx.commit();
        self.ledger = None;

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
    /// a certified refusal, of a `start` or `switch` as of a plan — so
    /// lookups that could not have hit are not counted.
    pub misses: u64,
    /// Shapes learned from the design-time seeding pass (first arrival of
    /// each spec, mapped on an empty platform).
    pub seeded: u64,
    /// Shapes currently cached, over all specs.
    pub shapes_cached: u64,
    /// Shapes evicted by the per-spec cap.
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
    cap: usize,
    seq: u64,
    hits: u64,
    misses: u64,
    seeded: u64,
    evictions: u64,
    scratch: RouteScratch,
}

impl TemplateLibrary {
    /// An empty library keeping at most `cap` shapes per spec.
    pub fn new(cap: usize) -> Self {
        TemplateLibrary {
            cap,
            ..TemplateLibrary::default()
        }
    }

    /// True once `key` has been seen (even if seeding produced no shape).
    pub fn contains(&self, key: u64) -> bool {
        self.specs.contains_key(&key)
    }

    /// Marks `key` as seen, so seeding runs once per spec.
    pub fn register(&mut self, key: u64) {
        self.specs.entry(key).or_default();
    }

    /// Learns `shape` for `key`: deduplicated against cached shapes, and
    /// bounded by the per-spec cap with deterministic eviction of the
    /// lowest-hit (then oldest) entry. Returns whether the shape was
    /// stored.
    pub fn learn(&mut self, key: u64, shape: MappingShape) -> bool {
        if self.cap == 0 {
            return false;
        }
        self.seq += 1;
        let seq = self.seq;
        let shapes = self.specs.entry(key).or_default();
        if shapes.iter().any(|s| s.shape == shape) {
            return false;
        }
        if shapes.len() >= self.cap {
            let victim = shapes
                .iter()
                .enumerate()
                .min_by_key(|(_, s)| (s.hits, s.seq))
                .map(|(i, _)| i)
                .expect("cap >= 1 and the list is full");
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
    /// full transactional fit check. Emits [`obs::Span::TemplateMatch`]
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
    /// Wraps `inner` with an empty library at [`DEFAULT_SHAPE_CAP`].
    pub fn new(inner: A) -> Self {
        TemplatedMapper::with_cap(inner, DEFAULT_SHAPE_CAP)
    }

    /// Wraps `inner` with an empty library keeping at most `cap` shapes
    /// per spec (`--template-cap`).
    pub fn with_cap(inner: A, cap: usize) -> Self {
        TemplatedMapper {
            inner,
            library: RefCell::new(TemplateLibrary::new(cap)),
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
                if let Some(shape) = MappingShape::canonicalise(&seeded, platform) {
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
        if let Some(shape) = MappingShape::canonicalise(&outcome, platform) {
            self.library.borrow_mut().learn(key, shape);
        }
        Ok(outcome)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapper::{MapperConfig, SpatialMapper};
    use rtsm_app::hiperlan2::{hiperlan2_receiver, Hiperlan2Mode};
    use rtsm_platform::paper::paper_platform;
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
        let spread = MappingShape::canonicalise(&outcome, &platform).unwrap();
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
                    .map(|a| rotate(k, (a.dx, a.dy)))
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
        let fits = MappingShape::canonicalise(&fits, &platform).unwrap();
        // The same placements with one channel's recorded route longer than
        // any path on a 5×5 mesh: every candidate is turned away.
        let mut misfit = fits.clone();
        misfit
            .routes
            .iter_mut()
            .find(|r| !r.same_tile)
            .expect("a routed channel")
            .router_count += 1_000;

        let key = arriving.structural_digest();
        let lookup = |shapes: &[&MappingShape]| {
            let mut library = TemplateLibrary::new(DEFAULT_SHAPE_CAP);
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
        let mut library = TemplateLibrary::new(1);
        let spec = hiperlan2_receiver(Hiperlan2Mode::Qpsk34);
        let platform = paper_platform();
        let state = platform.initial_state();
        let key = spec.structural_digest();
        let outcome = SpatialMapper::new(MapperConfig::default())
            .map(&spec, &platform, &state)
            .unwrap();
        let shape = MappingShape::canonicalise(&outcome, &platform).unwrap();
        assert!(library.learn(key, shape.clone()));
        assert!(!library.learn(key, shape.clone()), "duplicates are dropped");
        // A distinct shape evicts the old one at cap 1.
        let mut other = shape;
        other.energy_pj += 1;
        assert!(library.learn(key, other));
        let stats = library.stats();
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.shapes_cached, 1);
    }
}
