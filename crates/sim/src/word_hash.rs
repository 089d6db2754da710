//! A small multiply–rotate hasher for the simulator's internal maps.
//!
//! The planner's hot lookups — the block interner's pointer map and the
//! exact `F(S)` memo — are keyed by internal ids, sizes and addresses,
//! never by bytes from outside the program, so they need no protection
//! against crafted collisions and std's SipHash is pure overhead there.
//! Each 8-byte word is folded in with one add and one multiply; `finish`
//! rotates the well-mixed high half of the product down to the low bits
//! the table indexes by. No code iterates these maps, so the hash values
//! never reach an output.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` hashed by [`WordHasher`].
pub(crate) type WordMap<K, V> = HashMap<K, V, BuildHasherDefault<WordHasher>>;

/// Odd multiplier with well-spread bits (2^64 / golden ratio).
const K: u64 = 0x9E37_79B9_7F4A_7C15;

/// Multiply–rotate hasher over 8-byte words (see the module docs).
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct WordHasher(u64);

impl WordHasher {
    #[inline]
    fn word(&mut self, w: u64) {
        self.0 = self.0.wrapping_add(w).wrapping_mul(K);
    }
}

impl Hasher for WordHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }

    /// Whole words first, then the zero-padded tail. Slices hash their
    /// length ahead of their bytes, so padding cannot make two keys meet.
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.word(u64::from_le_bytes(w.try_into().expect("an 8-byte chunk")));
        }
        let tail = words.remainder();
        if !tail.is_empty() {
            let mut last = [0u8; 8];
            last[..tail.len()].copy_from_slice(tail);
            self.word(u64::from_le_bytes(last));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.word(i as u64);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.word(i as u64);
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

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(v: &T) -> u64 {
        BuildHasherDefault::<WordHasher>::default().hash_one(v)
    }

    #[test]
    fn id_sequences_differing_in_one_place_hash_apart() {
        let base: Vec<u32> = (0..40).collect();
        let h0 = hash_of(&base);
        for i in 0..base.len() {
            let mut v = base.clone();
            v[i] += 1;
            assert_ne!(hash_of(&v), h0, "position {i}");
        }
        // The length prefix separates a zero-padded tail from a real zero.
        assert_ne!(hash_of(&vec![7u32]), hash_of(&vec![7u32, 0]));
    }

    #[test]
    fn memo_round_trips_through_the_word_map() {
        let mut memo: WordMap<Vec<u32>, f64> = WordMap::default();
        for n in 0..500u32 {
            memo.insert(vec![n, n / 3, 11], n as f64);
        }
        for n in 0..500u32 {
            assert_eq!(memo.get(&vec![n, n / 3, 11]), Some(&(n as f64)));
        }
        assert_eq!(memo.get(&vec![0, 0, 12]), None);
    }
}
