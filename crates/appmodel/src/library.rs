//! The implementation library: all known implementations per process.

use crate::digest::{ListDigest, Mixer};
use crate::implementation::Implementation;
use crate::kpn::ProcessId;
use rtsm_platform::TileKind;
use serde::{Deserialize, Serialize};

/// All implementations available for the processes of one application —
/// the paper's Table 1 as a data structure.
///
/// The library is append-only behind a private field, so it keeps a
/// [structural digest](ImplementationLibrary::structural_digest) of its own
/// content as it is filled. **Invariant:** `digest` is a pure function of
/// `by_process` — [`register`](ImplementationLibrary::register) accounts
/// for each implementation at its (process, position), deserialization
/// rebuilds it (it is never serialized) — so two libraries that compare
/// equal have equal digests, whatever order the processes were registered
/// in.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
#[serde(
    from = "ImplementationLibrarySerde",
    into = "ImplementationLibrarySerde"
)]
pub struct ImplementationLibrary {
    // Indexed by process id; inner Vec in registration order.
    by_process: Vec<Vec<Implementation>>,
    digest: ListDigest,
}

/// Serde shadow of [`ImplementationLibrary`]: the digest is derived data.
#[derive(Serialize, Deserialize)]
#[serde(rename = "ImplementationLibrary")]
struct ImplementationLibrarySerde {
    by_process: Vec<Vec<Implementation>>,
}

impl From<ImplementationLibrary> for ImplementationLibrarySerde {
    fn from(l: ImplementationLibrary) -> Self {
        ImplementationLibrarySerde {
            by_process: l.by_process,
        }
    }
}

impl From<ImplementationLibrarySerde> for ImplementationLibrary {
    fn from(s: ImplementationLibrarySerde) -> Self {
        let mut digest = ListDigest::default();
        for (process, impls) in s.by_process.iter().enumerate() {
            for (i, implementation) in impls.iter().enumerate() {
                digest.push(process, i, implementation);
            }
        }
        ImplementationLibrary {
            by_process: s.by_process,
            digest,
        }
    }
}

impl ImplementationLibrary {
    /// An empty library.
    pub fn new() -> Self {
        Self::default()
    }

    /// A 64-bit digest of everything the library holds (every field of
    /// every implementation, by process and registration order), kept up to
    /// date by [`register`](ImplementationLibrary::register): O(1) to read,
    /// equal for equal libraries. Distinct libraries collide with
    /// probability ≈ 2⁻⁶⁴; stable within one build, not a file format.
    pub fn structural_digest(&self) -> u64 {
        Mixer::of(&(self.digest.get(), self.by_process.len()))
    }

    /// Registers `implementation` for `process`.
    pub fn register(&mut self, process: ProcessId, implementation: Implementation) {
        if self.by_process.len() <= process.index() {
            self.by_process.resize_with(process.index() + 1, Vec::new);
        }
        let impls = &mut self.by_process[process.index()];
        self.digest
            .push(process.index(), impls.len(), &implementation);
        impls.push(implementation);
    }

    /// All implementations of `process`, in registration order.
    pub fn impls_for(&self, process: ProcessId) -> &[Implementation] {
        self.by_process
            .get(process.index())
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// The implementation of `process` for `kind`, if registered (first
    /// match).
    pub fn impl_for(&self, process: ProcessId, kind: TileKind) -> Option<&Implementation> {
        self.impls_for(process).iter().find(|i| i.tile_kind == kind)
    }

    /// Total number of registered implementations.
    pub fn len(&self) -> usize {
        self.by_process.iter().map(Vec::len).sum()
    }

    /// True if no implementation is registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtsm_dataflow::PhaseVec;

    fn implementation(kind: TileKind) -> Implementation {
        Implementation::simple(
            format!("x @ {kind}"),
            kind,
            PhaseVec::single(10),
            PhaseVec::single(1),
            PhaseVec::single(1),
            1000,
            64,
        )
    }

    #[test]
    fn register_and_lookup() {
        let mut lib = ImplementationLibrary::new();
        let p = ProcessId(0);
        lib.register(p, implementation(TileKind::Arm));
        lib.register(p, implementation(TileKind::Montium));
        assert_eq!(lib.impls_for(p).len(), 2);
        assert_eq!(
            lib.impl_for(p, TileKind::Montium).unwrap().tile_kind,
            TileKind::Montium
        );
        assert!(lib.impl_for(p, TileKind::Dsp).is_none());
        assert_eq!(lib.len(), 2);
    }

    #[test]
    fn unknown_process_is_empty() {
        let lib = ImplementationLibrary::new();
        assert!(lib.impls_for(ProcessId(5)).is_empty());
        assert!(lib.is_empty());
    }
}
