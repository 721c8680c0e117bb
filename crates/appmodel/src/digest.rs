//! Structural digests: the one word-at-a-time mixer behind
//! [`ProcessGraph::structural_digest`](crate::ProcessGraph::structural_digest),
//! [`ImplementationLibrary::structural_digest`](crate::ImplementationLibrary::structural_digest)
//! and [`ApplicationSpec::structural_digest`](crate::ApplicationSpec::structural_digest).
//!
//! A container that is append-only behind private fields digests each item
//! once, when it is added, and keeps a [`ListDigest`] of what it holds; the
//! digest of the whole is then a handful of multiplies, whatever the size.
//! Digests are in-memory only: never serialized, rebuilt on deserialize,
//! stable across runs and threads of one build (fixed key, no per-process
//! seed) but not a file format.

use std::hash::{Hash, Hasher};

const SEED: u64 = 0x243f_6a88_85a3_08d3;
const KEY: u64 = 0x9e37_79b9_7f4a_7c15;

/// Folded 64×64→128 multiply: every input bit reaches every output bit.
#[inline]
fn fold(a: u64, b: u64) -> u64 {
    let wide = u128::from(a) * u128::from(b);
    (wide as u64) ^ ((wide >> 64) as u64)
}

/// A fixed-key [`Hasher`] that consumes its input a word at a time: one
/// folded multiply per integer, and per eight bytes of a string or slice
/// (whose byte length is mixed in too, so `write` is self-delimiting).
pub(crate) struct Mixer(u64);

impl Mixer {
    #[inline]
    fn word(&mut self, word: u64) {
        self.0 = fold(self.0 ^ word, KEY);
    }

    /// The digest of one value on its own.
    pub(crate) fn of<T: Hash + ?Sized>(value: &T) -> u64 {
        let mut mixer = Mixer(SEED);
        value.hash(&mut mixer);
        mixer.finish()
    }
}

impl Hasher for Mixer {
    #[inline]
    fn finish(&self) -> u64 {
        fold(self.0, SEED)
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        // No zero-padded copy of the tail (a variable-length `memcpy` costs
        // more than the rest of a short string): the last word is read
        // *overlapping* the bytes before it, and `len`, mixed in after,
        // says by how much.
        let len = bytes.len();
        let word_at =
            |i: usize| u64::from_le_bytes(bytes[i..i + 8].try_into().expect("an 8-byte slice"));
        let half_at = |i: usize| {
            u64::from(u32::from_le_bytes(
                bytes[i..i + 4].try_into().expect("a 4-byte slice"),
            ))
        };
        if len >= 8 {
            let mut i = 0;
            while i + 8 < len {
                self.word(word_at(i));
                i += 8;
            }
            self.word(word_at(len - 8));
        } else if len >= 4 {
            self.word(half_at(0) | half_at(len - 4) << 32);
        } else if len > 0 {
            let (first, middle, last) = (bytes[0], bytes[len / 2], bytes[len - 1]);
            self.word(u64::from(first) | u64::from(middle) << 8 | u64::from(last) << 16);
        }
        self.word(len as u64);
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.word(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.word(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.word(i as u64);
    }
}

/// The running digest of an append-only list (or list of lists): the
/// wrapping sum of one well-mixed term per item, each term binding the item
/// to its position. A sum does not care in which order the terms arrived,
/// so the digest is a function of *what the lists hold* — not of how calls
/// that filled different lists were interleaved — and `Default` (zero) is
/// the digest of nothing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct ListDigest(u64);

impl ListDigest {
    /// Accounts for `item`, appended at position `index` of list `list`.
    pub(crate) fn push<T: Hash>(&mut self, list: usize, index: usize, item: &T) {
        self.0 = self.0.wrapping_add(Mixer::of(&(list, index, item)));
    }

    /// The digest so far.
    pub(crate) fn get(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_is_self_delimiting() {
        // A trailing NUL, or a byte moved across a boundary, is a
        // different input.
        assert_ne!(Mixer::of("ab"), Mixer::of("ab\0"));
        assert_ne!(Mixer::of(""), Mixer::of("\0"));
        assert_ne!(Mixer::of("12345678"), Mixer::of("12345678\0"));
        assert_ne!(Mixer::of(&("ab", "c")), Mixer::of(&("a", "bc")));
    }

    #[test]
    fn every_byte_of_every_length_counts() {
        let text: Vec<u8> = (1..=20).collect();
        for len in 0..=text.len() {
            let base = Mixer::of(&text[..len]);
            for i in 0..len {
                let mut flipped = text[..len].to_vec();
                flipped[i] ^= 0x80;
                assert_ne!(Mixer::of(&flipped[..]), base, "byte {i} of {len}");
            }
        }
    }

    #[test]
    fn the_integers_the_model_types_hold_take_one_word() {
        // `bool`/`u8`, `u64`, and `usize`/discriminants; other widths fall
        // back to `write`.
        assert_eq!(Mixer::of(&7u8), Mixer::of(&7u64));
        assert_eq!(Mixer::of(&7u64), Mixer::of(&7usize));
        assert_ne!(Mixer::of(&7u64), Mixer::of(&8u64));
    }

    #[test]
    fn list_digest_ignores_arrival_order_but_not_position() {
        let mut ab = ListDigest::default();
        ab.push(0, 0, &"a");
        ab.push(1, 0, &"b");
        let mut ba = ListDigest::default();
        ba.push(1, 0, &"b");
        ba.push(0, 0, &"a");
        assert_eq!(ab, ba);
        let mut swapped = ListDigest::default();
        swapped.push(0, 0, &"b");
        swapped.push(1, 0, &"a");
        assert_ne!(ab, swapped);
    }
}
