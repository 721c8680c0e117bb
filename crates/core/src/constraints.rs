//! Caller-supplied placement constraints on a mapping call.
//!
//! The refinement loop's internal [`Constraints`](crate::feedback::Constraints)
//! are *discovered* while mapping; [`MappingConstraints`] are *imposed* from
//! outside, before mapping starts. The run-time manager imposes them when it
//! evacuates the victims of a failure
//! ([`RuntimeManager::evacuate`](crate::RuntimeManager::evacuate)): failed
//! tiles are excluded outright, and a first attempt pins every process that
//! sits on a healthy tile, so only what the failure displaced moves.
//!
//! An empty constraint set ([`MappingConstraints::none`]) is the default
//! everywhere and leaves every algorithm's behaviour — including fixed-seed
//! outputs — bit-for-bit unchanged.

use crate::mapping::Mapping;
use rtsm_app::ProcessId;
use rtsm_platform::TileId;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

/// Placement constraints a caller imposes on one mapping call: pinned
/// process→tile assignments and tiles excluded from use (see the
/// [module docs](self)).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MappingConstraints {
    pinned: BTreeMap<ProcessId, TileId>,
    excluded_tiles: BTreeSet<TileId>,
}

impl MappingConstraints {
    /// No constraints — every algorithm behaves exactly as unconstrained.
    pub fn none() -> Self {
        MappingConstraints::default()
    }

    /// Requires `process` to be placed on exactly `tile` (builder style).
    /// The tile must still host a matching implementation kind and have the
    /// resources; otherwise mapping fails rather than violating the pin.
    #[must_use]
    pub fn pin(mut self, process: ProcessId, tile: TileId) -> Self {
        self.pinned.insert(process, tile);
        self
    }

    /// Forbids every process of the mapped application from using `tile`
    /// (builder style). A pin to an excluded tile is unsatisfiable.
    #[must_use]
    pub fn exclude_tile(mut self, tile: TileId) -> Self {
        self.excluded_tiles.insert(tile);
        self
    }

    /// The tile `process` is pinned to, if any.
    pub fn pinned_tile(&self, process: ProcessId) -> Option<TileId> {
        self.pinned.get(&process).copied()
    }

    /// True if placing `process` on `tile` is allowed: the tile is not
    /// excluded, and any pin on the process names this tile.
    pub fn allows(&self, process: ProcessId, tile: TileId) -> bool {
        !self.excluded_tiles.contains(&tile)
            && self
                .pinned
                .get(&process)
                .is_none_or(|pinned| *pinned == tile)
    }

    /// True if no constraint has been imposed. Algorithms use this to take
    /// their unconstrained fast path.
    pub fn is_empty(&self) -> bool {
        self.pinned.is_empty() && self.excluded_tiles.is_empty()
    }

    /// Number of imposed constraints (pins plus exclusions).
    pub fn len(&self) -> usize {
        self.pinned.len() + self.excluded_tiles.len()
    }

    /// True if every assignment of `mapping` satisfies these constraints —
    /// the invariant every constraint-aware algorithm upholds on success.
    pub fn satisfied_by(&self, mapping: &Mapping) -> bool {
        mapping.assignments().all(|(p, a)| self.allows(p, a.tile))
            && self
                .pinned
                .iter()
                .all(|(p, t)| mapping.assignment(*p).is_none_or(|a| a.tile == *t))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(i: usize) -> ProcessId {
        ProcessId::from_index(i)
    }

    fn t(i: usize) -> TileId {
        TileId::from_index(i)
    }

    #[test]
    fn empty_allows_everything() {
        let c = MappingConstraints::none();
        assert!(c.is_empty());
        assert_eq!(c.len(), 0);
        assert!(c.allows(p(0), t(0)));
        assert!(c.satisfied_by(&Mapping::new()));
    }

    #[test]
    fn pin_restricts_to_one_tile() {
        let c = MappingConstraints::none().pin(p(0), t(2));
        assert!(c.allows(p(0), t(2)));
        assert!(!c.allows(p(0), t(1)));
        assert!(c.allows(p(1), t(1)), "other processes are unconstrained");
        assert_eq!(c.pinned_tile(p(0)), Some(t(2)));
    }

    #[test]
    fn excluded_tile_blocks_all_processes() {
        let c = MappingConstraints::none().exclude_tile(t(3));
        assert!(!c.allows(p(0), t(3)));
        assert!(!c.allows(p(7), t(3)));
        assert!(c.allows(p(0), t(2)));
    }

    #[test]
    fn pin_to_excluded_tile_is_unsatisfiable() {
        let c = MappingConstraints::none()
            .pin(p(0), t(3))
            .exclude_tile(t(3));
        assert!(!c.allows(p(0), t(3)));
    }

    #[test]
    fn satisfied_by_checks_assignments() {
        let c = MappingConstraints::none()
            .pin(p(0), t(1))
            .exclude_tile(t(2));
        let mut ok = Mapping::new();
        ok.assign(p(0), 0, t(1));
        ok.assign(p(1), 0, t(0));
        assert!(c.satisfied_by(&ok));
        let mut pinned_elsewhere = ok.clone();
        pinned_elsewhere.assign(p(0), 0, t(0));
        assert!(!c.satisfied_by(&pinned_elsewhere));
        let mut on_excluded = ok.clone();
        on_excluded.assign(p(1), 0, t(2));
        assert!(!c.satisfied_by(&on_excluded));
    }
}
