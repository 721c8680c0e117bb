//! The transactional resource layer: staged, atomic mutation of a
//! [`PlatformState`].
//!
//! Every resource mutation in the workspace used to carry its own
//! hand-rolled rollback sequence (snapshot-and-restore in the mapping
//! commit path, undo loops in the router allocator, release-then-reclaim
//! dances in the runtime manager). [`PlatformTransaction`] replaces them
//! with one audited path: operations apply to the ledger *immediately* —
//! so later operations in the same transaction see their effects, which is
//! what lets a migrating application reuse its own freed resources
//! (release-before-claim) — while an undo log records their exact
//! inverses. [`commit`](PlatformTransaction::commit) discards the log;
//! [`abort`](PlatformTransaction::abort) (or dropping the transaction)
//! replays it in reverse, restoring the ledger byte-for-byte.
//!
//! Because every primitive of [`PlatformState`] either applies fully or
//! leaves the ledger untouched, a failed operation leaves the transaction
//! consistent: the caller can keep staging, or bail and let the drop-abort
//! clean up. Replaying the log in LIFO order retraces the exact state
//! sequence backwards, so every inverse is guaranteed to apply — a
//! violated inverse is a logic error and panics rather than corrupting the
//! ledger.
//!
//! # Failure windows
//!
//! The health layer ([`PlatformState::fail_tile`] and friends) composes
//! with transactions as follows:
//!
//! * **Claims on failed resources are refused at staging time.** Every
//!   staged claim goes through [`PlatformState::claim_tile`] /
//!   [`PlatformState::allocate_link`], which consult the health bits — a
//!   plan that names a failed tile or routes through a failed link fails
//!   at [`claim_tile`](PlatformTransaction::claim_tile) /
//!   [`allocate_path`](PlatformTransaction::allocate_path), before
//!   anything commits. There is no window in which a commit can land
//!   claims on a resource that failed before the transaction staged them:
//!   the whole plan→stage→commit sequence runs under one `&mut
//!   PlatformState` borrow, so no failure can be injected between plan
//!   evaluation and commit — a failure observed by the staging step is a
//!   failure that happened before `begin`.
//! * **Releases (and their rollback) ignore health.** Evacuating a victim
//!   releases claims from a failed tile; aborting that evacuation must
//!   restore them onto the same failed tile. Releases check only ledger
//!   underflow, and rollback of a staged release re-applies it through a
//!   capacity-only restore path, so the drop-abort guarantee — the ledger
//!   is restored byte-for-byte — holds even while resources are failed.
//! * **Fail/repair are not transactional operations.** They mutate health
//!   metadata, never usage counters, and are applied by the runtime
//!   manager outside any open transaction; a transaction's undo log never
//!   contains them.
//!
//! # Example
//!
//! ```
//! use rtsm_platform::paper::paper_platform;
//! use rtsm_platform::{PlatformTransaction, TileClaim};
//!
//! let platform = paper_platform();
//! let mut state = platform.initial_state();
//! let before = state.clone();
//! let tile = platform.tile_by_name("ARM1").unwrap();
//! let claim = TileClaim {
//!     slots: 1,
//!     memory_bytes: 128,
//!     cycles_per_second: 0,
//!     injection: 0,
//!     ejection: 0,
//! };
//!
//! // Abort (or drop) restores the exact prior ledger…
//! let mut tx = PlatformTransaction::begin(&platform, &mut state);
//! tx.claim_tile(tile, &claim).unwrap();
//! tx.abort();
//! assert_eq!(state, before);
//!
//! // …while commit keeps the staged claims.
//! let mut tx = PlatformTransaction::begin(&platform, &mut state);
//! tx.claim_tile(tile, &claim).unwrap();
//! tx.commit();
//! assert_eq!(state.used_slots(tile), 1);
//! ```

use crate::error::PlatformError;
use crate::routing::{ni_claims, Path};
use crate::state::{PlatformState, TileClaim};
use crate::tile::TileId;
use crate::topology::{LinkId, Platform};
use rtsm_obs as obs;

/// One applied operation, recorded so the transaction can invert it.
#[derive(Debug, Clone, Copy)]
enum TxOp {
    ClaimedTile { tile: TileId, claim: TileClaim },
    ReleasedTile { tile: TileId, claim: TileClaim },
    AllocatedLink { link: LinkId, demand: u64 },
    ReleasedLink { link: LinkId, demand: u64 },
}

/// A staged set of claims and releases over a [`PlatformState`] with
/// all-or-nothing semantics (see the [module docs](self)).
#[derive(Debug)]
pub struct PlatformTransaction<'a> {
    platform: &'a Platform,
    state: &'a mut PlatformState,
    log: Vec<TxOp>,
    committed: bool,
}

impl<'a> PlatformTransaction<'a> {
    /// Opens a transaction over `state`. Until
    /// [`commit`](PlatformTransaction::commit), every staged operation is
    /// provisional: dropping the transaction rolls all of them back.
    pub fn begin(platform: &'a Platform, state: &'a mut PlatformState) -> Self {
        PlatformTransaction {
            platform,
            state,
            log: Vec::new(),
            committed: false,
        }
    }

    /// The platform the ledger belongs to.
    pub fn platform(&self) -> &Platform {
        self.platform
    }

    /// The ledger *including* all staged operations — what a mapping call
    /// inside the transaction should plan against.
    pub fn state(&self) -> &PlatformState {
        self.state
    }

    /// True if `claim` currently fits on `tile` (staged operations
    /// included).
    pub fn fits_tile(&self, tile: TileId, claim: &TileClaim) -> bool {
        self.state.fits_tile(self.platform, tile, claim)
    }

    /// Stages a tile claim.
    ///
    /// # Errors
    ///
    /// [`PlatformError::InsufficientResource`] if the claim does not fit;
    /// the transaction stays consistent and usable.
    pub fn claim_tile(&mut self, tile: TileId, claim: &TileClaim) -> Result<(), PlatformError> {
        self.state.claim_tile(self.platform, tile, claim)?;
        self.record(TxOp::ClaimedTile {
            tile,
            claim: *claim,
        });
        Ok(())
    }

    /// Stages a tile release.
    ///
    /// # Errors
    ///
    /// [`PlatformError::UnknownClaim`] if the claim is not present; the
    /// transaction stays consistent and usable.
    pub fn release_tile(&mut self, tile: TileId, claim: &TileClaim) -> Result<(), PlatformError> {
        self.state.release_tile(tile, claim)?;
        self.record(TxOp::ReleasedTile {
            tile,
            claim: *claim,
        });
        Ok(())
    }

    /// Stages a link-bandwidth allocation.
    ///
    /// # Errors
    ///
    /// [`PlatformError::LinkAccounting`] if the link lacks capacity.
    pub fn allocate_link(&mut self, link: LinkId, demand: u64) -> Result<(), PlatformError> {
        self.state.allocate_link(self.platform, link, demand)?;
        self.record(TxOp::AllocatedLink { link, demand });
        Ok(())
    }

    /// Stages a link-bandwidth release.
    ///
    /// # Errors
    ///
    /// [`PlatformError::LinkAccounting`] if more is released than held.
    pub fn release_link(&mut self, link: LinkId, demand: u64) -> Result<(), PlatformError> {
        self.state.release_link(link, demand)?;
        self.record(TxOp::ReleasedLink { link, demand });
        Ok(())
    }

    /// Stages a whole routed path: bandwidth on every link plus NI
    /// injection at the source tile and NI ejection at the destination.
    /// Atomic as a unit: if any piece fails, the pieces staged by *this
    /// call* are unwound before returning, so the transaction holds either
    /// the whole path or none of it.
    ///
    /// # Errors
    ///
    /// The first failing link or NI claim.
    pub fn allocate_path(&mut self, path: &Path) -> Result<(), PlatformError> {
        let mark = self.log.len();
        self.try_allocate_path(path).inspect_err(|_| {
            self.rollback_to(mark);
        })
    }

    fn try_allocate_path(&mut self, path: &Path) -> Result<(), PlatformError> {
        for &link in &path.links {
            self.allocate_link(link, path.demand)?;
        }
        let [inject, eject] = ni_claims(path);
        self.claim_tile(inject.0, &inject.1)?;
        self.claim_tile(eject.0, &eject.1)?;
        Ok(())
    }

    /// Stages the release of a previously allocated path. Atomic as a
    /// unit, like [`allocate_path`](PlatformTransaction::allocate_path).
    ///
    /// # Errors
    ///
    /// The first failing link or NI release (the path was not allocated on
    /// this ledger).
    pub fn release_path(&mut self, path: &Path) -> Result<(), PlatformError> {
        let mark = self.log.len();
        self.try_release_path(path).inspect_err(|_| {
            self.rollback_to(mark);
        })
    }

    fn try_release_path(&mut self, path: &Path) -> Result<(), PlatformError> {
        for &link in &path.links {
            self.release_link(link, path.demand)?;
        }
        let [inject, eject] = ni_claims(path);
        self.release_tile(inject.0, &inject.1)?;
        self.release_tile(eject.0, &eject.1)?;
        Ok(())
    }

    /// Makes every staged operation permanent.
    pub fn commit(mut self) {
        self.committed = true;
        self.log.clear();
        obs::count(obs::Counter::TxCommit, 1);
    }

    /// Rolls every staged operation back, restoring the ledger to exactly
    /// the state [`begin`](PlatformTransaction::begin) saw. Equivalent to
    /// dropping the transaction; provided for explicitness.
    pub fn abort(self) {
        // Drop does the work.
    }

    /// Appends an applied operation to the undo log. What gets staged is a
    /// mapping's worth of claims — a few dozen operations — so the first
    /// one reserves for them and the log skips its first three doublings;
    /// a transaction that stages nothing (a refused arrival) still
    /// allocates nothing.
    fn record(&mut self, op: TxOp) {
        if self.log.capacity() == 0 {
            self.log.reserve(32);
        }
        self.log.push(op);
    }

    fn rollback(&mut self) {
        self.rollback_to(0);
    }

    /// Unwinds staged operations (in reverse) until `mark` entries remain.
    fn rollback_to(&mut self, mark: usize) {
        while self.log.len() > mark {
            let op = self.log.pop().expect("len > mark ≥ 0");
            match op {
                TxOp::ClaimedTile { tile, claim } => self
                    .state
                    .release_tile(tile, &claim)
                    .expect("inverting a claim staged by this transaction"),
                // Restores bypass the health check: an aborted evacuation
                // must put the victim's claims back onto the very tile or
                // link whose failure triggered it (see the module docs on
                // failure windows).
                TxOp::ReleasedTile { tile, claim } => self
                    .state
                    .restore_tile(self.platform, tile, &claim)
                    .expect("re-claiming a release staged by this transaction"),
                TxOp::AllocatedLink { link, demand } => self
                    .state
                    .release_link(link, demand)
                    .expect("inverting a link allocation staged by this transaction"),
                TxOp::ReleasedLink { link, demand } => self
                    .state
                    .restore_link(self.platform, link, demand)
                    .expect("re-allocating a link release staged by this transaction"),
            }
        }
    }
}

impl Drop for PlatformTransaction<'_> {
    fn drop(&mut self) {
        // Dropping a transaction that staged nothing (a refused arrival:
        // the mapping failed before any claim) undoes nothing and is not
        // counted as an abort.
        if !self.committed && !self.log.is_empty() {
            self.rollback();
            obs::count(obs::Counter::TxAbort, 1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::routing::route;
    use crate::tile::TileKind;
    use crate::topology::{Coord, PlatformBuilder};

    fn platform() -> Platform {
        PlatformBuilder::mesh(2, 2)
            .tile_defaults(200, 2, 4096, 1_000_000)
            .tile("a", TileKind::Arm, Coord { x: 0, y: 0 })
            .tile("b", TileKind::Arm, Coord { x: 1, y: 0 })
            .tile("c", TileKind::Arm, Coord { x: 0, y: 1 })
            .build()
            .unwrap()
    }

    fn claim(memory: u64) -> TileClaim {
        TileClaim {
            slots: 1,
            memory_bytes: memory,
            cycles_per_second: 1_000_000,
            injection: 100,
            ejection: 100,
        }
    }

    #[test]
    fn commit_keeps_abort_restores() {
        let p = platform();
        let a = p.tile_by_name("a").unwrap();
        let mut state = p.initial_state();
        let before = state.clone();

        let mut tx = PlatformTransaction::begin(&p, &mut state);
        tx.claim_tile(a, &claim(100)).unwrap();
        tx.abort();
        assert_eq!(state, before, "abort restores the exact prior ledger");

        let mut tx = PlatformTransaction::begin(&p, &mut state);
        tx.claim_tile(a, &claim(100)).unwrap();
        tx.commit();
        assert_eq!(state.used_slots(a), 1);
        assert_eq!(state.used_memory(a), 100);
    }

    #[test]
    fn drop_without_commit_aborts() {
        let p = platform();
        let a = p.tile_by_name("a").unwrap();
        let mut state = p.initial_state();
        let before = state.clone();
        {
            let mut tx = PlatformTransaction::begin(&p, &mut state);
            tx.claim_tile(a, &claim(100)).unwrap();
            // Dropped here.
        }
        assert_eq!(state, before);
    }

    #[test]
    fn release_before_claim_reuses_freed_resources() {
        // The migration pattern: a 2-slot tile is full; releasing one claim
        // inside the transaction lets a different claim take its place, and
        // abort still restores the original occupancy exactly.
        let p = platform();
        let a = p.tile_by_name("a").unwrap();
        let mut state = p.initial_state();
        state.claim_tile(&p, a, &claim(1000)).unwrap();
        state.claim_tile(&p, a, &claim(2000)).unwrap();
        let occupied = state.clone();

        let mut tx = PlatformTransaction::begin(&p, &mut state);
        assert!(!tx.fits_tile(a, &claim(500)), "tile starts full");
        tx.release_tile(a, &claim(1000)).unwrap();
        tx.claim_tile(a, &claim(500)).unwrap();
        tx.abort();
        assert_eq!(state, occupied, "abort undoes release-then-claim");

        let mut tx = PlatformTransaction::begin(&p, &mut state);
        tx.release_tile(a, &claim(1000)).unwrap();
        tx.claim_tile(a, &claim(500)).unwrap();
        tx.commit();
        assert_eq!(state.used_memory(a), 2500);
    }

    #[test]
    fn failed_operation_leaves_transaction_usable() {
        let p = platform();
        let a = p.tile_by_name("a").unwrap();
        let mut state = p.initial_state();
        let before = state.clone();
        let mut tx = PlatformTransaction::begin(&p, &mut state);
        tx.claim_tile(a, &claim(100)).unwrap();
        // 5000 bytes exceed the 4096-byte tile: the op fails atomically.
        assert!(tx.claim_tile(a, &claim(5000)).is_err());
        assert_eq!(tx.log.len(), 1, "failed ops are not logged");
        tx.claim_tile(a, &claim(200)).unwrap();
        tx.abort();
        assert_eq!(state, before);
    }

    #[test]
    fn path_allocation_is_staged_atomically() {
        let p = platform();
        let a = p.tile_by_name("a").unwrap();
        let b = p.tile_by_name("b").unwrap();
        let mut state = p.initial_state();
        let path = route(&p, &state, a, b, 1_000).unwrap();
        let before = state.clone();

        let mut tx = PlatformTransaction::begin(&p, &mut state);
        tx.allocate_path(&path).unwrap();
        tx.abort();
        assert_eq!(state, before);

        let mut tx = PlatformTransaction::begin(&p, &mut state);
        tx.allocate_path(&path).unwrap();
        tx.commit();
        assert_eq!(
            state.residual_link(&p, path.links[0]),
            p.link(path.links[0]).capacity - 1_000
        );

        let mut tx = PlatformTransaction::begin(&p, &mut state);
        tx.release_path(&path).unwrap();
        tx.commit();
        assert_eq!(state, before);
    }

    #[test]
    fn abort_restores_claims_onto_a_failed_tile() {
        // The evacuation-rollback window: the victim's claims were released
        // from a tile that is *currently failed*; abort must restore them
        // onto that same failed tile, byte-for-byte.
        let p = platform();
        let a = p.tile_by_name("a").unwrap();
        let mut state = p.initial_state();
        state.claim_tile(&p, a, &claim(100)).unwrap();
        state.fail_tile(a);
        let before = state.clone();

        let mut tx = PlatformTransaction::begin(&p, &mut state);
        tx.release_tile(a, &claim(100)).unwrap();
        assert!(
            tx.claim_tile(a, &claim(100)).is_err(),
            "new claims on the failed tile are refused even inside the tx"
        );
        tx.abort();
        assert_eq!(state, before, "abort restores the failed tile's claims");
    }

    #[test]
    fn staging_refuses_failed_resources() {
        let p = platform();
        let a = p.tile_by_name("a").unwrap();
        let b = p.tile_by_name("b").unwrap();
        let mut state = p.initial_state();
        let path = route(&p, &state, a, b, 1_000).unwrap();
        state.fail_link(path.links[0]);
        let before = state.clone();

        let mut tx = PlatformTransaction::begin(&p, &mut state);
        assert!(
            tx.allocate_path(&path).is_err(),
            "routes through failed links are invalid"
        );
        drop(tx);
        assert_eq!(state, before);
    }

    #[test]
    fn releasing_an_unallocated_path_fails_without_corruption() {
        let p = platform();
        let a = p.tile_by_name("a").unwrap();
        let c = p.tile_by_name("c").unwrap();
        let mut state = p.initial_state();
        let path = route(&p, &state, a, c, 1_000).unwrap();
        let before = state.clone();
        let mut tx = PlatformTransaction::begin(&p, &mut state);
        assert!(tx.release_path(&path).is_err());
        drop(tx);
        assert_eq!(state, before);
    }
}
