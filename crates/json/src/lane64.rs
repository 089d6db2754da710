//! Lane64: a word-parallel 64-bit checksum for large payloads.
//!
//! [`crate::fnv1a64`] is one serial chain: each byte's multiply waits for
//! the previous byte's, about four cycles per byte. Lane64 reads the input
//! as little-endian `u64` words and deals them round-robin to eight
//! independent lanes (word `j` goes to lane `j mod 8`), so the multiplies
//! of different lanes overlap in the pipeline and a 10 MB payload is
//! checked in a fraction of FNV's time.
//!
//! # Definition
//!
//! All arithmetic is modulo 2^64. One round absorbs a word `w` into a
//! state `s`:
//!
//! ```text
//! r(s, w) = m((s ^ w) * K)        m(x) = x ^ (x >> 32)        K odd
//! ```
//!
//! Lane `i` starts at `r(SEED, i)`. The last `len mod 8` bytes, when there
//! are any, are zero-padded to one word and absorbed as the next word in
//! the round-robin order. The lanes are then folded in order, and the
//! input length after them, into one accumulator by the same round:
//! `h = r(…r(r(SEED, s_0), s_1)…, s_7)`, and the checksum is `r(h, len)`.
//! [`Lane64::update`] buffers a partial block of words, so the input may
//! arrive split at any points without changing the value.
//!
//! # Every single-word change is detected
//!
//! `r` is symmetric in its two arguments, and for either one held fixed it
//! is a bijection in the other: xor with a constant is a bijection, so is
//! multiplication by an odd `K`, and so is `m` (the high 32 bits pass
//! through unchanged and then give back the low 32).
//!
//! Take two inputs of equal length that differ only inside one word —
//! every single-byte substitution is such a change, in the zero-padded
//! tail word too. Every lane but that word's sees identical words and
//! ends identical. In the word's lane the state before the word is the
//! same in both inputs; the round is injective in the word, so the states
//! differ after it, and each later round is a bijection in the state, so
//! they still differ at the end. The fold reaches the same accumulator up
//! to that lane, absorbs two different lane states (injective), and every
//! later fold round is a bijection in the accumulator: the two checksums
//! differ. The argument is a proof for one changed word only; changes
//! spread over several words can cancel, as in any 64-bit checksum, and
//! Lane64 is no defence against a deliberate forgery.

/// Independent lanes: enough to cover the multiply's latency.
const LANES: usize = 8;
/// Bytes of one round-robin pass over the lanes.
const BLOCK: usize = 8 * LANES;
/// The odd multiplier (the 64-bit golden ratio).
const K: u64 = 0x9e37_79b9_7f4a_7c15;
/// Start of the fold, and of every lane through [`round`].
const SEED: u64 = 0x243f_6a88_85a3_08d3;

/// One round: a bijection in either argument for the other held fixed.
#[inline(always)]
fn round(s: u64, w: u64) -> u64 {
    let x = (s ^ w).wrapping_mul(K);
    x ^ (x >> 32)
}

/// Absorbs one block: word `i` into lane `i`.
#[inline(always)]
fn absorb(lanes: &mut [u64; LANES], block: &[u8; BLOCK]) {
    for (i, lane) in lanes.iter_mut().enumerate() {
        let word: [u8; 8] = block[8 * i..8 * i + 8]
            .try_into()
            .expect("a block holds LANES words");
        *lane = round(*lane, u64::from_le_bytes(word));
    }
}

/// The streaming form of [`lane64`]: `update` in any number of pieces,
/// then `finish`. Any split of the input gives the same checksum.
#[derive(Debug, Clone)]
pub struct Lane64 {
    lanes: [u64; LANES],
    /// The bytes of a block not yet complete.
    pending: [u8; BLOCK],
    buffered: usize,
    len: u64,
}

impl Default for Lane64 {
    fn default() -> Self {
        Self::new()
    }
}

impl Lane64 {
    /// A checksum over no bytes yet.
    pub fn new() -> Self {
        Self {
            lanes: std::array::from_fn(|i| round(SEED, i as u64)),
            pending: [0; BLOCK],
            buffered: 0,
            len: 0,
        }
    }

    /// Appends `bytes` to the input.
    pub fn update(&mut self, mut bytes: &[u8]) {
        self.len = self.len.wrapping_add(bytes.len() as u64);
        if self.buffered > 0 {
            let take = (BLOCK - self.buffered).min(bytes.len());
            self.pending[self.buffered..self.buffered + take].copy_from_slice(&bytes[..take]);
            self.buffered += take;
            bytes = &bytes[take..];
            if self.buffered < BLOCK {
                return;
            }
            absorb(&mut self.lanes, &self.pending);
            self.buffered = 0;
        }
        let mut lanes = self.lanes;
        let mut blocks = bytes.chunks_exact(BLOCK);
        for block in &mut blocks {
            absorb(
                &mut lanes,
                block.try_into().expect("chunks_exact yields blocks"),
            );
        }
        self.lanes = lanes;
        let rest = blocks.remainder();
        self.pending[..rest.len()].copy_from_slice(rest);
        self.buffered = rest.len();
    }

    /// The checksum of everything appended so far.
    pub fn finish(&self) -> u64 {
        let mut lanes = self.lanes;
        for (lane, word) in lanes
            .iter_mut()
            .zip(self.pending[..self.buffered].chunks(8))
        {
            let mut padded = [0u8; 8];
            padded[..word.len()].copy_from_slice(word);
            *lane = round(*lane, u64::from_le_bytes(padded));
        }
        round(lanes.iter().fold(SEED, |h, &s| round(h, s)), self.len)
    }
}

/// Lane64 of `bytes` in one call; see the [module docs](self).
pub fn lane64(bytes: &[u8]) -> u64 {
    let mut sum = Lane64::new();
    sum.update(bytes);
    sum.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The definition read literally: one word at a time, word `j` to
    /// lane `j mod 8`, the tail zero-padded.
    fn reference(bytes: &[u8]) -> u64 {
        let mut lanes: Vec<u64> = (0..LANES as u64).map(|i| round(SEED, i)).collect();
        for (j, word) in bytes.chunks(8).enumerate() {
            let mut padded = [0u8; 8];
            padded[..word.len()].copy_from_slice(word);
            lanes[j % LANES] = round(lanes[j % LANES], u64::from_le_bytes(padded));
        }
        let h = lanes.iter().fold(SEED, |h, &s| round(h, s));
        round(h, bytes.len() as u64)
    }

    /// Bytes from a fixed linear congruential sequence.
    fn sample(len: usize) -> Vec<u8> {
        let mut x = 0x1234_5678_9abc_def0u64;
        (0..len)
            .map(|_| {
                x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                (x >> 56) as u8
            })
            .collect()
    }

    #[test]
    fn one_shot_equals_the_scalar_reference() {
        for len in (0..=3 * BLOCK + 9).chain([4096, 4096 + 13]) {
            let bytes = sample(len);
            assert_eq!(lane64(&bytes), reference(&bytes), "length {len}");
        }
    }

    #[test]
    fn any_split_gives_the_one_shot_value() {
        let bytes = sample(2 * BLOCK + 21);
        let whole = lane64(&bytes);
        for a in 0..=bytes.len() {
            for b in (a..=bytes.len()).step_by(7) {
                let mut sum = Lane64::new();
                sum.update(&bytes[..a]);
                sum.update(&bytes[a..b]);
                sum.update(&bytes[b..]);
                assert_eq!(sum.finish(), whole, "split at {a} and {b}");
            }
        }
        let mut bytewise = Lane64::new();
        for b in &bytes {
            bytewise.update(std::slice::from_ref(b));
        }
        assert_eq!(bytewise.finish(), whole);
    }

    #[test]
    fn every_single_byte_substitution_changes_the_sum() {
        let bytes = sample(2 * BLOCK + 5);
        let whole = lane64(&bytes);
        for pos in 0..bytes.len() {
            for delta in [1u8, 0x80, 0xff] {
                let mut changed = bytes.clone();
                changed[pos] = changed[pos].wrapping_add(delta);
                assert_ne!(lane64(&changed), whole, "+{delta} at byte {pos}");
            }
        }
    }

    #[test]
    fn length_is_part_of_the_sum() {
        // Zero padding alone would make these equal.
        assert_ne!(lane64(b"a"), lane64(b"a\0"));
        assert_ne!(lane64(b""), lane64(&[0; 8]));
    }
}
