//! The run-time occupancy ledger.
//!
//! The DATE 2008 paper's central argument is that resource availability is
//! only known when an application is started. [`PlatformState`] is that
//! knowledge: which compute slots, memory, NI bandwidth and link bandwidth
//! are in use. The spatial mapper works against a `PlatformState`, and
//! multi-application scenarios thread one ledger through a sequence of
//! mapping requests.

use crate::error::PlatformError;
use crate::routing::{ni_claims, Path};
use crate::tile::{TileId, TileKind};
use crate::topology::{LinkId, Platform};
use serde::{Deserialize, Serialize};

/// A claim of tile-local resources by one process implementation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TileClaim {
    /// Compute slots taken (normally 1).
    pub slots: u32,
    /// Data memory taken, in bytes.
    pub memory_bytes: u64,
    /// Processor time taken, in cycles per second (WCET cycles per period ÷
    /// period).
    pub cycles_per_second: u64,
    /// NI injection bandwidth taken, in words per second.
    pub injection: u64,
    /// NI ejection bandwidth taken, in words per second.
    pub ejection: u64,
}

/// The empty claim: what [`PlatformState::fits_tile`] vacates.
const NOTHING: TileClaim = TileClaim {
    slots: 0,
    memory_bytes: 0,
    cycles_per_second: 0,
    injection: 0,
    ejection: 0,
};

/// Mutable resource usage of a [`Platform`].
///
/// All mutating operations are exact inverses of each other
/// (`claim_tile`/`release_tile`, `allocate_link`/`release_link`), a property
/// the test-suite checks.
///
/// [`Clone::clone_from`] copies into the vectors the target already holds,
/// so refreshing a copy of a ledger of the same platform allocates nothing.
/// That is how a ledger is staged: a
/// [`PlatformTransaction`](crate::PlatformTransaction) copies the ledger
/// into a spare before its first operation and swaps it back to abort, and
/// a throw-away evaluation (a template candidate) stages on a copy
/// refreshed this way and leaves what it staged there. The default ledger
/// is empty and belongs to no platform; it allocates nothing, and a spare
/// starts as one until its first `clone_from` sizes it.
#[derive(Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PlatformState {
    used_slots: Vec<u32>,
    used_memory: Vec<u64>,
    used_cycles: Vec<u64>,
    used_injection: Vec<u64>,
    used_ejection: Vec<u64>,
    used_links: Vec<u64>,
    failed_tiles: Vec<bool>,
    failed_links: Vec<bool>,
}

impl Clone for PlatformState {
    fn clone(&self) -> Self {
        let PlatformState {
            used_slots,
            used_memory,
            used_cycles,
            used_injection,
            used_ejection,
            used_links,
            failed_tiles,
            failed_links,
        } = self;
        PlatformState {
            used_slots: used_slots.clone(),
            used_memory: used_memory.clone(),
            used_cycles: used_cycles.clone(),
            used_injection: used_injection.clone(),
            used_ejection: used_ejection.clone(),
            used_links: used_links.clone(),
            failed_tiles: failed_tiles.clone(),
            failed_links: failed_links.clone(),
        }
    }

    /// Field by field, each vector into the one `self` holds: no allocation
    /// unless `source` belongs to a larger platform.
    fn clone_from(&mut self, source: &Self) {
        let PlatformState {
            used_slots,
            used_memory,
            used_cycles,
            used_injection,
            used_ejection,
            used_links,
            failed_tiles,
            failed_links,
        } = source;
        self.used_slots.clone_from(used_slots);
        self.used_memory.clone_from(used_memory);
        self.used_cycles.clone_from(used_cycles);
        self.used_injection.clone_from(used_injection);
        self.used_ejection.clone_from(used_ejection);
        self.used_links.clone_from(used_links);
        self.failed_tiles.clone_from(failed_tiles);
        self.failed_links.clone_from(failed_links);
    }
}

impl PlatformState {
    /// An empty ledger for `platform`.
    pub fn new(platform: &Platform) -> Self {
        let n = platform.n_tiles();
        let m = platform.n_links();
        PlatformState {
            used_slots: vec![0; n],
            used_memory: vec![0; n],
            used_cycles: vec![0; n],
            used_injection: vec![0; n],
            used_ejection: vec![0; n],
            used_links: vec![0; m],
            failed_tiles: vec![false; n],
            failed_links: vec![false; m],
        }
    }

    /// True if `claim` fits on `tile` given current usage.
    ///
    /// A failed tile fits nothing: every admission path funnels through
    /// this check, so quarantining here makes all mapping algorithms and
    /// transactions refuse failed tiles without any change on their side.
    pub fn fits_tile(&self, platform: &Platform, tile: TileId, claim: &TileClaim) -> bool {
        !self.failed_tiles[tile.index()] && self.tile_has_capacity(platform, tile, &NOTHING, claim)
    }

    /// True if `claim` would fit on `tile` once `vacated`, a claim held
    /// there, were released: what [`PlatformState::release_tile`] then
    /// [`PlatformState::fits_tile`] would answer, asked without releasing
    /// anything. A failed tile fits nothing here either.
    ///
    /// Step 2 asks it of a swap candidate before it decides to make the
    /// swap.
    ///
    /// # Panics
    ///
    /// In debug builds, if `vacated` is more than `tile` holds.
    pub fn fits_after_vacating(
        &self,
        platform: &Platform,
        tile: TileId,
        vacated: &TileClaim,
        claim: &TileClaim,
    ) -> bool {
        !self.failed_tiles[tile.index()] && self.tile_has_capacity(platform, tile, vacated, claim)
    }

    /// The capacity half of [`PlatformState::fits_tile`] and
    /// [`PlatformState::fits_after_vacating`], ignoring health: whether
    /// `claim` fits on `tile` once `vacated` has left it. Inlined so that
    /// the empty `vacated` of `fits_tile`, the admission path's most
    /// frequent probe, folds away.
    #[inline(always)]
    fn tile_has_capacity(
        &self,
        platform: &Platform,
        tile: TileId,
        vacated: &TileClaim,
        claim: &TileClaim,
    ) -> bool {
        let t = platform.tile(tile);
        let i = tile.index();
        let cycle_budget = u64::from(t.clock_mhz) * 1_000_000;
        self.used_slots[i] - vacated.slots + claim.slots <= t.compute_slots
            && self.used_memory[i] - vacated.memory_bytes + claim.memory_bytes <= t.memory_bytes
            && self.used_cycles[i] - vacated.cycles_per_second + claim.cycles_per_second
                <= cycle_budget
            && self.used_injection[i] - vacated.injection + claim.injection <= t.ni_injection
            && self.used_ejection[i] - vacated.ejection + claim.ejection <= t.ni_ejection
    }

    /// Claims `claim` on `tile`.
    ///
    /// # Errors
    ///
    /// [`PlatformError::InsufficientResource`] if the claim does not fit;
    /// the ledger is unchanged in that case.
    pub fn claim_tile(
        &mut self,
        platform: &Platform,
        tile: TileId,
        claim: &TileClaim,
    ) -> Result<(), PlatformError> {
        if !self.fits_tile(platform, tile, claim) {
            return Err(PlatformError::InsufficientResource {
                tile,
                resource: self.first_missing(platform, tile, claim),
            });
        }
        self.add_claim(tile, claim);
        Ok(())
    }

    /// Releases a claim previously made with [`PlatformState::claim_tile`].
    ///
    /// # Errors
    ///
    /// [`PlatformError::UnknownClaim`] if the release would drive any
    /// counter negative (the claim was never made); the ledger is unchanged.
    pub fn release_tile(&mut self, tile: TileId, claim: &TileClaim) -> Result<(), PlatformError> {
        let i = tile.index();
        if self.used_slots[i] < claim.slots
            || self.used_memory[i] < claim.memory_bytes
            || self.used_cycles[i] < claim.cycles_per_second
            || self.used_injection[i] < claim.injection
            || self.used_ejection[i] < claim.ejection
        {
            return Err(PlatformError::UnknownClaim);
        }
        self.take_claim(tile, claim);
        Ok(())
    }

    /// Adds `claim` to `tile`'s counters, unchecked: a claim that fits, or
    /// the unwinding of a release made just before.
    fn add_claim(&mut self, tile: TileId, claim: &TileClaim) {
        let i = tile.index();
        self.used_slots[i] += claim.slots;
        self.used_memory[i] += claim.memory_bytes;
        self.used_cycles[i] += claim.cycles_per_second;
        self.used_injection[i] += claim.injection;
        self.used_ejection[i] += claim.ejection;
    }

    /// Takes `claim` off `tile`'s counters, unchecked: a release of a claim
    /// held, or the unwinding of a claim made just before.
    fn take_claim(&mut self, tile: TileId, claim: &TileClaim) {
        let i = tile.index();
        self.used_slots[i] -= claim.slots;
        self.used_memory[i] -= claim.memory_bytes;
        self.used_cycles[i] -= claim.cycles_per_second;
        self.used_injection[i] -= claim.injection;
        self.used_ejection[i] -= claim.ejection;
    }

    fn first_missing(&self, platform: &Platform, tile: TileId, claim: &TileClaim) -> &'static str {
        let t = platform.tile(tile);
        let i = tile.index();
        if self.failed_tiles[i] {
            "tile failed"
        } else if self.used_slots[i] + claim.slots > t.compute_slots {
            "compute slots"
        } else if self.used_memory[i] + claim.memory_bytes > t.memory_bytes {
            "memory"
        } else if self.used_cycles[i] + claim.cycles_per_second > u64::from(t.clock_mhz) * 1_000_000
        {
            "processor cycles"
        } else if self.used_injection[i] + claim.injection > t.ni_injection {
            "NI injection bandwidth"
        } else {
            "NI ejection bandwidth"
        }
    }

    /// Residual capacity of `link` in words/second.
    ///
    /// A failed link has residual 0, so every route through it is refused
    /// by [`PlatformState::allocate_link`] — routes through failed links
    /// are invalid without any router-side special-casing.
    pub fn residual_link(&self, platform: &Platform, link: LinkId) -> u64 {
        if self.failed_links[link.index()] {
            return 0;
        }
        platform.link(link).capacity - self.used_links[link.index()]
    }

    /// Reserves `demand` words/second on `link`.
    ///
    /// # Errors
    ///
    /// [`PlatformError::LinkAccounting`] if the link lacks capacity.
    pub fn allocate_link(
        &mut self,
        platform: &Platform,
        link: LinkId,
        demand: u64,
    ) -> Result<(), PlatformError> {
        if self.residual_link(platform, link) < demand {
            return Err(PlatformError::LinkAccounting {
                detail: format!(
                    "link {:?} has {} words/s free, {} requested",
                    platform.link(link),
                    self.residual_link(platform, link),
                    demand
                ),
            });
        }
        self.used_links[link.index()] += demand;
        Ok(())
    }

    /// Releases `demand` words/second on `link`.
    ///
    /// # Errors
    ///
    /// [`PlatformError::LinkAccounting`] if more is released than allocated.
    pub fn release_link(&mut self, link: LinkId, demand: u64) -> Result<(), PlatformError> {
        if self.used_links[link.index()] < demand {
            return Err(PlatformError::LinkAccounting {
                detail: format!("releasing {demand} words/s exceeds allocation"),
            });
        }
        self.used_links[link.index()] -= demand;
        Ok(())
    }

    /// Reserves `path`'s bandwidth on each of its links, then NI injection
    /// at its source tile and NI ejection at its destination: all of it, or
    /// on an error none of it — what this call reserved before the failing
    /// step is taken off again.
    ///
    /// # Errors
    ///
    /// [`PlatformError::LinkAccounting`] if a link lacks capacity (or has
    /// failed), [`PlatformError::InsufficientResource`] if an endpoint NI is
    /// exhausted (or its tile has failed).
    pub fn allocate_path(&mut self, platform: &Platform, path: &Path) -> Result<(), PlatformError> {
        let [(from, inject), (to, eject)] = ni_claims(path);
        for (done, &link) in path.links.iter().enumerate() {
            if let Err(e) = self.allocate_link(platform, link, path.demand) {
                self.take_links(&path.links[..done], path.demand);
                return Err(e);
            }
        }
        if let Err(e) = self.claim_tile(platform, from, &inject) {
            self.take_links(&path.links, path.demand);
            return Err(e);
        }
        if let Err(e) = self.claim_tile(platform, to, &eject) {
            self.take_claim(from, &inject);
            self.take_links(&path.links, path.demand);
            return Err(e);
        }
        Ok(())
    }

    /// Releases what [`PlatformState::allocate_path`] reserved for `path`,
    /// on failed resources too: all of it, or on an error none of it — what
    /// this call released before the failing step is put back, unchecked,
    /// as it was held.
    ///
    /// # Errors
    ///
    /// [`PlatformError::LinkAccounting`] / [`PlatformError::UnknownClaim`]
    /// if the path was not allocated on this ledger.
    pub fn release_path(&mut self, path: &Path) -> Result<(), PlatformError> {
        let [(from, inject), (to, eject)] = ni_claims(path);
        for (done, &link) in path.links.iter().enumerate() {
            if let Err(e) = self.release_link(link, path.demand) {
                self.put_links(&path.links[..done], path.demand);
                return Err(e);
            }
        }
        if let Err(e) = self.release_tile(from, &inject) {
            self.put_links(&path.links, path.demand);
            return Err(e);
        }
        if let Err(e) = self.release_tile(to, &eject) {
            self.add_claim(from, &inject);
            self.put_links(&path.links, path.demand);
            return Err(e);
        }
        Ok(())
    }

    /// Takes `demand` off each of `links`, unchecked: the unwinding of
    /// allocations made just before.
    fn take_links(&mut self, links: &[LinkId], demand: u64) {
        for link in links {
            self.used_links[link.index()] -= demand;
        }
    }

    /// Puts `demand` back on each of `links`, unchecked: the unwinding of
    /// releases made just before.
    fn put_links(&mut self, links: &[LinkId], demand: u64) {
        for link in links {
            self.used_links[link.index()] += demand;
        }
    }

    /// Used compute slots of `tile`.
    pub fn used_slots(&self, tile: TileId) -> u32 {
        self.used_slots[tile.index()]
    }

    /// Used memory of `tile`, in bytes.
    pub fn used_memory(&self, tile: TileId) -> u64 {
        self.used_memory[tile.index()]
    }

    /// Free compute slots of `tile`.
    pub fn free_slots(&self, platform: &Platform, tile: TileId) -> u32 {
        platform.tile(tile).compute_slots - self.used_slots[tile.index()]
    }

    /// Residual NI injection bandwidth of `tile`, in words/second.
    pub fn residual_injection(&self, platform: &Platform, tile: TileId) -> u64 {
        platform.tile(tile).ni_injection - self.used_injection[tile.index()]
    }

    /// Residual NI ejection bandwidth of `tile`, in words/second.
    pub fn residual_ejection(&self, platform: &Platform, tile: TileId) -> u64 {
        platform.tile(tile).ni_ejection - self.used_ejection[tile.index()]
    }

    // --- Health layer -----------------------------------------------------
    //
    // A failed tile is claimable by no one (`fits_tile` is false) and a
    // failed link has residual 0, but *existing* claims survive both ways:
    // releases stay legal on failed resources, so an evacuation can release
    // a victim's claims from the exact ledger they were made against. The
    // fail/repair bits are health metadata, not usage — they never change
    // the usage counters themselves.

    /// Marks `tile` as failed. Returns `true` if the tile was healthy
    /// before (the call changed state).
    pub fn fail_tile(&mut self, tile: TileId) -> bool {
        !std::mem::replace(&mut self.failed_tiles[tile.index()], true)
    }

    /// Marks `tile` as healthy again. Returns `true` if the tile was
    /// failed before (the call changed state).
    pub fn repair_tile(&mut self, tile: TileId) -> bool {
        std::mem::replace(&mut self.failed_tiles[tile.index()], false)
    }

    /// Marks `link` as failed. Returns `true` if the link was healthy
    /// before (the call changed state).
    pub fn fail_link(&mut self, link: LinkId) -> bool {
        !std::mem::replace(&mut self.failed_links[link.index()], true)
    }

    /// Marks `link` as healthy again. Returns `true` if the link was
    /// failed before (the call changed state).
    pub fn repair_link(&mut self, link: LinkId) -> bool {
        std::mem::replace(&mut self.failed_links[link.index()], false)
    }

    /// True if `tile` is currently marked failed.
    pub fn is_tile_failed(&self, tile: TileId) -> bool {
        self.failed_tiles[tile.index()]
    }

    /// True if `link` is currently marked failed.
    pub fn is_link_failed(&self, link: LinkId) -> bool {
        self.failed_links[link.index()]
    }

    /// True if any tile or link is currently marked failed.
    pub fn any_failed(&self) -> bool {
        self.failed_tiles.iter().any(|&f| f) || self.failed_links.iter().any(|&f| f)
    }

    /// Number of tiles currently marked failed.
    pub fn failed_tile_count(&self) -> u32 {
        self.failed_tiles.iter().filter(|&&f| f).count() as u32
    }

    /// Compute slots on tiles currently marked failed (quarantined
    /// capacity, whether or not it was in use when the tile failed).
    pub fn failed_slot_capacity(&self, platform: &Platform) -> u32 {
        (0..platform.n_tiles())
            .filter(|&i| self.failed_tiles[i])
            .map(|i| platform.tile(TileId::from_index(i)).compute_slots)
            .sum()
    }

    /// How fragmented the free compute capacity is (see [`Fragmentation`]).
    ///
    /// Two tiles belong to the same free region when both have at least one
    /// free compute slot and their routers are mesh neighbours. A platform
    /// whose free slots all sit in one contiguous region scores 0‰; free
    /// capacity scattered into many small islands scores high — exactly the
    /// situation where an arriving application is rejected although enough
    /// total capacity exists, and where migrating a running application can
    /// recover the admission.
    pub fn fragmentation(&self, platform: &Platform) -> Fragmentation {
        let n = platform.n_tiles();
        let free: Vec<u32> = (0..n)
            .map(|i| {
                if self.failed_tiles[i] {
                    // Quarantined capacity is not free capacity.
                    return 0;
                }
                let tile = platform.tile(TileId::from_index(i));
                tile.compute_slots - self.used_slots[i]
            })
            .collect();
        let free_slots: u32 = free.iter().sum();

        // Largest connected free region (4-neighbourhood over router
        // coordinates), in free slots.
        let mut seen = vec![false; n];
        let mut largest: u32 = 0;
        let mut stack: Vec<usize> = Vec::new();
        for start in 0..n {
            if seen[start] || free[start] == 0 {
                continue;
            }
            let mut region: u32 = 0;
            seen[start] = true;
            stack.push(start);
            while let Some(i) = stack.pop() {
                region += free[i];
                let pos = platform.tile(TileId::from_index(i)).position;
                for neighbour in platform.neighbours(pos) {
                    if let Some(id) = platform.tile_at(neighbour) {
                        let j = id.index();
                        if !seen[j] && free[j] > 0 {
                            seen[j] = true;
                            stack.push(j);
                        }
                    }
                }
            }
            largest = largest.max(region);
        }

        // Gini coefficient of the per-tile free-slot distribution:
        // Σᵢ Σⱼ |xᵢ − xⱼ| / (2 n Σ x), in permille.
        let total = u64::from(free_slots);
        let gini_permille = if total == 0 || n == 0 {
            0
        } else {
            let mut abs_diff_sum: u64 = 0;
            for i in 0..n {
                for j in 0..n {
                    abs_diff_sum += u64::from(free[i].abs_diff(free[j]));
                }
            }
            (abs_diff_sum * 1000 / (2 * n as u64 * total)) as u32
        };

        Fragmentation {
            free_slots,
            largest_free_region_slots: largest,
            fragmentation_permille: (largest * 1000)
                .checked_div(free_slots)
                .map_or(0, |share| 1000 - share),
            free_slot_gini_permille: gini_permille,
        }
    }

    /// Healthy tiles of `kind` with at least one free compute slot, in id
    /// order — the candidate *anchor* positions a cached mapping shape can
    /// be translated to. The same free-capacity notion as
    /// [`PlatformState::fragmentation`] (failed tiles contribute nothing),
    /// exposed per kind so a template match only visits placements whose
    /// anchor could possibly host its process.
    pub fn free_anchor_tiles(&self, platform: &Platform, kind: TileKind) -> Vec<TileId> {
        platform
            .tiles_of_kind(kind)
            .filter(|(id, tile)| {
                !self.failed_tiles[id.index()] && tile.compute_slots > self.used_slots[id.index()]
            })
            .map(|(id, _)| id)
            .collect()
    }
}

/// How scattered a platform's free compute slots are — the measurable
/// counterpart of "the NoC has fragmented", produced by
/// [`PlatformState::fragmentation`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Fragmentation {
    /// Free compute slots over all tiles.
    pub free_slots: u32,
    /// Free slots in the largest contiguous free region (tiles with free
    /// slots whose routers are mesh-adjacent).
    pub largest_free_region_slots: u32,
    /// `1000 × (1 − largest_region ⁄ free)`: 0‰ when all free capacity is
    /// one contiguous region, approaching 1000‰ as it shatters. 0 when no
    /// slot is free.
    pub fragmentation_permille: u32,
    /// Gini coefficient of the per-tile free-slot distribution, in
    /// permille: 0‰ = evenly spread free capacity, high = a few islands.
    pub free_slot_gini_permille: u32,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tile::TileKind;
    use crate::topology::{Coord, PlatformBuilder};

    fn platform() -> Platform {
        PlatformBuilder::mesh(2, 1)
            .tile_defaults(200, 2, 1000, 1_000_000)
            .tile("a", TileKind::Arm, Coord { x: 0, y: 0 })
            .tile("b", TileKind::Arm, Coord { x: 1, y: 0 })
            .build()
            .unwrap()
    }

    fn claim() -> TileClaim {
        TileClaim {
            slots: 1,
            memory_bytes: 400,
            cycles_per_second: 50_000_000,
            injection: 100_000,
            ejection: 100_000,
        }
    }

    #[test]
    fn claim_release_roundtrip() {
        let p = platform();
        let t = p.tile_by_name("a").unwrap();
        let mut s = p.initial_state();
        let before = s.clone();
        s.claim_tile(&p, t, &claim()).unwrap();
        assert_eq!(s.used_slots(t), 1);
        s.release_tile(t, &claim()).unwrap();
        assert_eq!(s, before);
    }

    #[test]
    fn overcommit_rejected_without_mutation() {
        let p = platform();
        let t = p.tile_by_name("a").unwrap();
        let mut s = p.initial_state();
        let big = TileClaim {
            memory_bytes: 900,
            ..claim()
        };
        s.claim_tile(&p, t, &big).unwrap();
        let snapshot = s.clone();
        let err = s.claim_tile(&p, t, &big).unwrap_err();
        assert!(matches!(
            err,
            PlatformError::InsufficientResource {
                resource: "memory",
                ..
            }
        ));
        assert_eq!(s, snapshot);
    }

    #[test]
    fn slot_exhaustion_reported() {
        let p = platform();
        let t = p.tile_by_name("a").unwrap();
        let mut s = p.initial_state();
        let slim = TileClaim {
            memory_bytes: 0,
            cycles_per_second: 0,
            injection: 0,
            ejection: 0,
            slots: 1,
        };
        s.claim_tile(&p, t, &slim).unwrap();
        s.claim_tile(&p, t, &slim).unwrap();
        let err = s.claim_tile(&p, t, &slim).unwrap_err();
        assert!(matches!(
            err,
            PlatformError::InsufficientResource {
                resource: "compute slots",
                ..
            }
        ));
    }

    #[test]
    fn unbalanced_release_rejected() {
        let p = platform();
        let t = p.tile_by_name("a").unwrap();
        let mut s = p.initial_state();
        assert!(matches!(
            s.release_tile(t, &claim()),
            Err(PlatformError::UnknownClaim)
        ));
    }

    #[test]
    fn link_allocate_release_roundtrip() {
        let p = platform();
        let (lid, _) = p.links().next().unwrap();
        let mut s = p.initial_state();
        let cap = p.link(lid).capacity;
        s.allocate_link(&p, lid, cap).unwrap();
        assert_eq!(s.residual_link(&p, lid), 0);
        assert!(s.allocate_link(&p, lid, 1).is_err());
        s.release_link(lid, cap).unwrap();
        assert_eq!(s.residual_link(&p, lid), cap);
        assert!(s.release_link(lid, 1).is_err());
    }

    #[test]
    fn fragmentation_tracks_free_slot_islands() {
        use crate::topology::NocParams;
        // A 3×1 strip of single-slot tiles: occupying the middle tile
        // splits the free slots into two islands of one.
        let p = PlatformBuilder::mesh(3, 1)
            .noc(NocParams::default())
            .tile_defaults(200, 1, 1000, 1_000_000)
            .tile("a", TileKind::Arm, Coord { x: 0, y: 0 })
            .tile("b", TileKind::Arm, Coord { x: 1, y: 0 })
            .tile("c", TileKind::Arm, Coord { x: 2, y: 0 })
            .build()
            .unwrap();
        let mut s = p.initial_state();
        let idle = s.fragmentation(&p);
        assert_eq!(idle.free_slots, 3);
        assert_eq!(idle.largest_free_region_slots, 3);
        assert_eq!(idle.fragmentation_permille, 0, "one contiguous region");

        let slot = TileClaim {
            slots: 1,
            memory_bytes: 0,
            cycles_per_second: 0,
            injection: 0,
            ejection: 0,
        };
        s.claim_tile(&p, p.tile_by_name("b").unwrap(), &slot)
            .unwrap();
        let split = s.fragmentation(&p);
        assert_eq!(split.free_slots, 2);
        assert_eq!(split.largest_free_region_slots, 1, "two islands of one");
        assert_eq!(split.fragmentation_permille, 500);
        assert!(split.free_slot_gini_permille > 0);

        for name in ["a", "c"] {
            s.claim_tile(&p, p.tile_by_name(name).unwrap(), &slot)
                .unwrap();
        }
        let full = s.fragmentation(&p);
        assert_eq!(full.free_slots, 0);
        assert_eq!(
            full.fragmentation_permille, 0,
            "nothing free, nothing fragmented"
        );
    }

    #[test]
    fn failed_tile_rejects_claims_but_allows_releases() {
        let p = platform();
        let t = p.tile_by_name("a").unwrap();
        let mut s = p.initial_state();
        s.claim_tile(&p, t, &claim()).unwrap();

        assert!(s.fail_tile(t), "first failure changes state");
        assert!(!s.fail_tile(t), "double failure is a no-op");
        assert!(s.is_tile_failed(t));
        assert!(s.any_failed());
        assert_eq!(s.failed_tile_count(), 1);

        // New claims are quarantined with a distinct diagnosis…
        assert!(!s.fits_tile(&p, t, &claim()));
        let err = s.claim_tile(&p, t, &claim()).unwrap_err();
        assert!(matches!(
            err,
            PlatformError::InsufficientResource {
                resource: "tile failed",
                ..
            }
        ));
        // …but the existing claim can still be evacuated (released).
        s.release_tile(t, &claim()).unwrap();

        assert!(s.repair_tile(t), "repair changes state");
        assert!(!s.repair_tile(t), "double repair is a no-op");
        assert!(!s.any_failed());
        assert!(s.fits_tile(&p, t, &claim()), "repaired tile admits again");
    }

    #[test]
    fn failed_link_has_zero_residual_but_allows_releases() {
        let p = platform();
        let (lid, _) = p.links().next().unwrap();
        let mut s = p.initial_state();
        s.allocate_link(&p, lid, 100).unwrap();

        assert!(s.fail_link(lid));
        assert!(s.is_link_failed(lid));
        assert_eq!(s.residual_link(&p, lid), 0);
        assert!(s.allocate_link(&p, lid, 1).is_err());
        // Evacuation releases the route from the failed link.
        s.release_link(lid, 100).unwrap();

        assert!(s.repair_link(lid));
        assert_eq!(s.residual_link(&p, lid), p.link(lid).capacity);
    }

    #[test]
    fn failed_tiles_are_not_free_capacity() {
        let p = platform();
        let mut s = p.initial_state();
        let healthy = s.fragmentation(&p);
        assert_eq!(healthy.free_slots, 4);

        s.fail_tile(p.tile_by_name("a").unwrap());
        let degraded = s.fragmentation(&p);
        assert_eq!(degraded.free_slots, 2, "quarantined slots are not free");
        assert_eq!(degraded.largest_free_region_slots, 2);
        assert_eq!(s.failed_slot_capacity(&p), 2);
    }

    #[test]
    fn cycle_budget_enforced() {
        let p = platform();
        let t = p.tile_by_name("a").unwrap();
        let mut s = p.initial_state();
        // 200 MHz tile = 200e6 cycles/s budget.
        let heavy = TileClaim {
            cycles_per_second: 150_000_000,
            memory_bytes: 0,
            injection: 0,
            ejection: 0,
            slots: 1,
        };
        s.claim_tile(&p, t, &heavy).unwrap();
        let err = s.claim_tile(&p, t, &heavy).unwrap_err();
        assert!(matches!(
            err,
            PlatformError::InsufficientResource {
                resource: "processor cycles",
                ..
            }
        ));
    }
}
