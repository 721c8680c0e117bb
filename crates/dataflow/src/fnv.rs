//! Fixed-key FNV-1a hashers for the crate's internal memo tables.
//!
//! The tables are small, short-lived or bounded, and keyed by values this
//! crate computes (graph structure, simulator states), so SipHash's keyed
//! collision resistance buys nothing; a fixed key makes digests identical
//! across runs and threads.

use std::hash::Hasher;

const PRIME: u64 = 0x100_0000_01b3;

/// 64-bit FNV-1a, specified byte-for-byte.
pub(crate) struct Fnv64(u64);

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64(0xcbf2_9ce4_8422_2325)
    }
}

impl Hasher for Fnv64 {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(PRIME);
        }
    }
}

/// Two FNV-1a lanes (distinct offset bases) fed by one byte stream: a
/// 128-bit digest from a single traversal of the hashed value. The lanes
/// advance in one loop so their multiplies overlap (measurably faster on
/// the memo-hit path than two `Fnv64`s written one after the other).
pub(crate) struct Fnv128(u64, u64);

impl Default for Fnv128 {
    fn default() -> Self {
        Fnv128(Fnv64::default().0, 0x6c62_272e_07bb_0142)
    }
}

impl Fnv128 {
    pub(crate) fn digest(&self) -> u128 {
        (u128::from(self.0) << 64) | u128::from(self.1)
    }
}

impl Hasher for Fnv128 {
    /// The low lane; use [`Fnv128::digest`] for the full width.
    fn finish(&self) -> u64 {
        self.1
    }
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(PRIME);
            self.1 = (self.1 ^ u64::from(b)).wrapping_mul(PRIME);
        }
    }
}
