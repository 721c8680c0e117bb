//! The transactional resource layer: staged, atomic mutation of a
//! [`PlatformState`].
//!
//! [`PlatformTransaction`] is the one way a ledger is staged. Operations
//! apply to the ledger *immediately* — so later operations in the same
//! transaction see their effects, which is what lets a migrating
//! application reuse its own freed resources (release-before-claim) — and
//! the first of them copies the ledger into a *spare* ([`Clone::clone_from`],
//! in place). [`commit`](PlatformTransaction::commit) keeps the ledger;
//! [`abort`](PlatformTransaction::abort), or dropping the transaction,
//! swaps the copy back, which restores the ledger byte for byte in O(1)
//! whatever was staged. Discarding a staged candidate costs one copy.
//!
//! [`begin`](PlatformTransaction::begin) owns its spare, so its first
//! operation allocates the copy; [`over`](PlatformTransaction::over)
//! borrows one the caller keeps between transactions — once it is sized,
//! staging allocates nothing. What the spare held before is irrelevant:
//! it is overwritten before it is read, and after a swap it holds the
//! discarded ledger.
//!
//! Every primitive of [`PlatformState`] applies fully or leaves the ledger
//! untouched — a whole routed path included
//! ([`PlatformState::allocate_path`]) — so a failed operation leaves the
//! transaction consistent: the caller can keep staging, or bail and let
//! the drop restore the ledger.
//!
//! Code that stages on a ledger it will throw away anyway (a template
//! candidate's scratch copy, a mapper's working ledger) needs no
//! transaction and calls [`PlatformState`] directly.
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
//!   anything commits. The whole plan→stage→commit sequence runs under one
//!   `&mut PlatformState` borrow, so no failure can be injected between
//!   plan evaluation and commit.
//! * **Releases ignore health, and so does the restore.** Evacuating a
//!   victim releases claims from a failed tile; aborting that evacuation
//!   must put them back onto the same failed tile. Releases check only
//!   ledger underflow, and an abort swaps the whole pre-transaction ledger
//!   back, so nothing is re-claimed and no health check can refuse it.
//! * **Fail/repair are not transactional operations.** They mutate health
//!   metadata, never usage counters, and are applied by the runtime
//!   manager outside any open transaction — an abort would swap a health
//!   change made inside one back out with the rest of the copy.
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
use crate::routing::Path;
use crate::state::{PlatformState, TileClaim};
use crate::tile::TileId;
use crate::topology::{LinkId, Platform};
use rtsm_obs as obs;

/// Where a transaction keeps its copy of the ledger.
#[derive(Debug)]
enum Spare<'a> {
    /// [`PlatformTransaction::begin`]'s own, empty until the first
    /// operation.
    Owned(PlatformState),
    /// [`PlatformTransaction::over`]'s, lent by the caller.
    Lent(&'a mut PlatformState),
}

impl Spare<'_> {
    fn ledger(&mut self) -> &mut PlatformState {
        match self {
            Spare::Owned(spare) => spare,
            Spare::Lent(spare) => spare,
        }
    }
}

/// A staged set of claims and releases over a [`PlatformState`] with
/// all-or-nothing semantics (see the [module docs](self)).
#[derive(Debug)]
pub struct PlatformTransaction<'a> {
    platform: &'a Platform,
    state: &'a mut PlatformState,
    spare: Spare<'a>,
    /// Whether the spare holds the ledger as the transaction found it: set
    /// by the first operation.
    saved: bool,
    committed: bool,
}

impl<'a> PlatformTransaction<'a> {
    /// Opens a transaction over `state` with a spare of its own. Until
    /// [`commit`](PlatformTransaction::commit), every staged operation is
    /// provisional: dropping the transaction rolls all of them back.
    pub fn begin(platform: &'a Platform, state: &'a mut PlatformState) -> Self {
        PlatformTransaction::with_spare(platform, state, Spare::Owned(PlatformState::default()))
    }

    /// [`begin`](PlatformTransaction::begin) with the caller's `spare`,
    /// whatever it holds: the first operation overwrites it in place, so a
    /// spare kept from one transaction to the next is sized once.
    pub fn over(
        platform: &'a Platform,
        state: &'a mut PlatformState,
        spare: &'a mut PlatformState,
    ) -> Self {
        PlatformTransaction::with_spare(platform, state, Spare::Lent(spare))
    }

    fn with_spare(platform: &'a Platform, state: &'a mut PlatformState, spare: Spare<'a>) -> Self {
        PlatformTransaction {
            platform,
            state,
            spare,
            saved: false,
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

    /// The ledger, for an operation about to be staged: the first one
    /// copies it into the spare.
    fn staging(&mut self) -> &mut PlatformState {
        if !self.saved {
            self.spare.ledger().clone_from(self.state);
            self.saved = true;
        }
        self.state
    }

    /// Stages a tile claim.
    ///
    /// # Errors
    ///
    /// [`PlatformError::InsufficientResource`] if the claim does not fit;
    /// the transaction stays consistent and usable.
    pub fn claim_tile(&mut self, tile: TileId, claim: &TileClaim) -> Result<(), PlatformError> {
        let platform = self.platform;
        self.staging().claim_tile(platform, tile, claim)
    }

    /// Stages a tile release.
    ///
    /// # Errors
    ///
    /// [`PlatformError::UnknownClaim`] if the claim is not present; the
    /// transaction stays consistent and usable.
    pub fn release_tile(&mut self, tile: TileId, claim: &TileClaim) -> Result<(), PlatformError> {
        self.staging().release_tile(tile, claim)
    }

    /// Stages a link-bandwidth allocation.
    ///
    /// # Errors
    ///
    /// [`PlatformError::LinkAccounting`] if the link lacks capacity.
    pub fn allocate_link(&mut self, link: LinkId, demand: u64) -> Result<(), PlatformError> {
        let platform = self.platform;
        self.staging().allocate_link(platform, link, demand)
    }

    /// Stages a link-bandwidth release.
    ///
    /// # Errors
    ///
    /// [`PlatformError::LinkAccounting`] if more is released than held.
    pub fn release_link(&mut self, link: LinkId, demand: u64) -> Result<(), PlatformError> {
        self.staging().release_link(link, demand)
    }

    /// Stages a whole routed path ([`PlatformState::allocate_path`]): all
    /// of it, or on an error none of it.
    ///
    /// # Errors
    ///
    /// The first failing link or NI claim.
    pub fn allocate_path(&mut self, path: &Path) -> Result<(), PlatformError> {
        let platform = self.platform;
        self.staging().allocate_path(platform, path)
    }

    /// Stages the release of a previously allocated path
    /// ([`PlatformState::release_path`]): all of it, or on an error none
    /// of it.
    ///
    /// # Errors
    ///
    /// The first failing link or NI release (the path was not allocated on
    /// this ledger).
    pub fn release_path(&mut self, path: &Path) -> Result<(), PlatformError> {
        self.staging().release_path(path)
    }

    /// Makes every staged operation permanent.
    pub fn commit(mut self) {
        self.committed = true;
        obs::count(obs::Counter::TxCommit, 1);
    }

    /// Rolls every staged operation back, restoring the ledger to exactly
    /// the state the transaction found. Equivalent to dropping the
    /// transaction; provided for explicitness.
    pub fn abort(self) {
        // Drop does the work.
    }
}

impl Drop for PlatformTransaction<'_> {
    fn drop(&mut self) {
        // A transaction that staged nothing (a refused arrival: the mapping
        // failed before any claim) has nothing to swap back and is not
        // counted as an abort.
        if !self.committed && self.saved {
            std::mem::swap(self.state, self.spare.ledger());
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
        assert!(
            !tx.state().fits_tile(&p, a, &claim(500)),
            "tile starts full"
        );
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
        let staged = tx.state().clone();
        // 5000 bytes exceed the 4096-byte tile: the op fails atomically.
        assert!(tx.claim_tile(a, &claim(5000)).is_err());
        assert_eq!(tx.state(), &staged, "a failed op changes nothing");
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

        let mut spare = PlatformState::default();
        let mut tx = PlatformTransaction::over(&p, &mut state, &mut spare);
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
