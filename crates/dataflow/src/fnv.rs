//! A fixed-key FNV-1a hasher for the simulator's table of seen states.
//!
//! The table is short-lived and keyed by values this crate computes, so
//! SipHash's keyed collision resistance buys nothing; a fixed key makes
//! digests identical across runs and threads.

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
