//! FP16 truncation: cast gradients to IEEE 754 binary16.
//!
//! The mildest quantizer — a fixed 2x wire reduction. Included because
//! mixed-precision communication is the most widely deployed form of
//! gradient compression and exercises the decision tree with a low-ratio,
//! near-zero-cost algorithm. The conversion is implemented from scratch
//! (round-to-nearest-even, see [`f32_to_f16_bits`] for its one deviation)
//! since no half-precision crate is available.

use crate::{
    compressor::{Accumulate, CompressCtx, Compressor},
    tensor::CompressedTensor,
};

/// FP16 truncating compressor.
#[derive(Debug, Clone, Copy, Default)]
pub struct Fp16;

impl Fp16 {
    /// Creates the compressor.
    pub fn new() -> Self {
        Self
    }
}

/// Converts an `f32` to its binary16 bit pattern: round-to-nearest-even,
/// overflow to infinity, NaN to a quiet NaN of the same sign.
///
/// One deliberate deviation from IEEE 754: magnitudes strictly between
/// 2^-25 and 2^-24 flush to signed zero, where round-to-nearest-even gives
/// the smallest subnormal `0x0001`. Everything at or above 2^-24 rounds
/// correctly, and 2^-25 itself is a tie that rounds to even (zero) either
/// way. The flush is kept because trained weights depend on it bit for bit.
///
/// Branch-light select form: every candidate encoding is computed and a
/// range test on the magnitude bits picks one, so a loop over a slice
/// vectorizes instead of mispredicting on the rounding decision.
#[inline]
pub fn f32_to_f16_bits(x: f32) -> u16 {
    let bits = x.to_bits();
    let sign = (bits >> 16) & 0x8000;
    let abs = bits & 0x7fff_ffff;
    // Normal halves: rebias the exponent (127 -> 15) and round the 13
    // dropped mantissa bits to nearest even; a carry rolls into the
    // exponent, up to infinity, which is correct rounding.
    let normal = (abs.wrapping_add(0x0fff + ((abs >> 13) & 1)) >> 13).wrapping_sub(112 << 10);
    // Subnormal halves: adding 0.5 aligns the value to 0.5's ulp, 2^-24 —
    // the subnormal step — so the hardware's round-to-nearest-even does
    // the rounding and the low bits are the half's mantissa.
    let subnormal = (f32::from_bits(abs) + 0.5).to_bits().wrapping_sub(0x3f00_0000);
    let nan = if abs > 0x7f80_0000 { 0x7e00 } else { 0x7c00 };
    let h = if abs >= 0x7f80_0000 {
        nan // Infinity, or NaN with the quiet bit.
    } else if abs >= 0x4780_0000 {
        0x7c00 // Above the largest finite half's exponent: overflow.
    } else if abs >= 0x3880_0000 {
        normal // 2^-14 and up.
    } else if abs >= 0x3380_0000 {
        subnormal // [2^-24, 2^-14).
    } else {
        0 // Below 2^-24: flush to signed zero.
    };
    (sign | h) as u16
}

/// Converts a binary16 bit pattern back to `f32` (exact: every half is an
/// `f32`).
///
/// Select form, like [`f32_to_f16_bits`]: a subnormal's value is its
/// mantissa times 2^-24, which `f32` represents exactly.
#[inline]
pub fn f16_bits_to_f32(h: u16) -> f32 {
    let h = u32::from(h);
    let sign = (h & 0x8000) << 16;
    let exp = (h >> 10) & 0x1f;
    let mantissa = h & 0x03ff;
    let normal = ((exp + 112) << 23) | (mantissa << 13);
    let special = 0x7f80_0000 | (mantissa << 13);
    let subnormal = (mantissa as f32 * SUBNORMAL_STEP).to_bits();
    let abs = if exp == 0x1f {
        special // Infinity / NaN.
    } else if exp == 0 {
        subnormal // Including signed zero.
    } else {
        normal
    };
    f32::from_bits(sign | abs)
}

/// 2^-24, the value of a half subnormal's mantissa LSB.
const SUBNORMAL_STEP: f32 = 1.0 / 16_777_216.0;

impl Compressor for Fp16 {
    fn name(&self) -> &'static str {
        "FP16"
    }

    fn compress(&self, grad: &[f32], _ctx: CompressCtx) -> CompressedTensor {
        CompressedTensor::Half {
            len: grad.len(),
            bits: grad.iter().map(|&g| f32_to_f16_bits(g)).collect(),
        }
    }

    fn decompress(&self, compressed: &CompressedTensor) -> Vec<f32> {
        match compressed {
            CompressedTensor::Half { bits, .. } => {
                bits.iter().map(|&b| f16_bits_to_f32(b)).collect()
            }
            other => panic!("FP16 cannot decompress {other:?}"),
        }
    }

    fn accumulate_into(&self, compressed: &CompressedTensor, acc: &mut [f32], op: Accumulate) {
        let CompressedTensor::Half { bits, .. } = compressed else {
            panic!("FP16 cannot decompress {compressed:?}");
        };
        assert_eq!(bits.len(), acc.len(), "accumulating mismatched tensor lengths");
        let pairs = acc.iter_mut().zip(bits);
        match op {
            Accumulate::Add => pairs.for_each(|(a, &b)| *a += f16_bits_to_f32(b)),
            Accumulate::Subtract => pairs.for_each(|(a, &b)| *a -= f16_bits_to_f32(b)),
        }
    }

    fn compressed_bytes(&self, elems: usize) -> usize {
        4 + elems * 2
    }

    fn is_biased(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The straightforward branchy conversion — the oracle the select form
    /// must match on every input.
    fn oracle_f32_to_f16_bits(x: f32) -> u16 {
        let bits = x.to_bits();
        let sign = ((bits >> 16) & 0x8000) as u16;
        let exp = ((bits >> 23) & 0xff) as i32;
        let mantissa = bits & 0x007f_ffff;

        if exp == 0xff {
            // Infinity or NaN; preserve a quiet-NaN payload bit.
            let payload = if mantissa != 0 { 0x0200 } else { 0 };
            return sign | 0x7c00 | payload;
        }
        // Unbiased exponent, rebiasing from 127 to 15.
        let unbiased = exp - 127;
        if unbiased > 15 {
            return sign | 0x7c00; // Overflow to infinity.
        }
        if unbiased >= -14 {
            // Normal half: keep 10 mantissa bits, round to nearest even.
            let half_exp = ((unbiased + 15) as u16) << 10;
            let shifted = mantissa >> 13;
            let rem = mantissa & 0x1fff;
            let mut h = sign | half_exp | shifted as u16;
            if rem > 0x1000 || (rem == 0x1000 && (shifted & 1) == 1) {
                h = h.wrapping_add(1); // Carry may roll into the exponent; that is correct rounding.
            }
            return h;
        }
        if unbiased >= -24 {
            // Subnormal half.
            let shift = (-14 - unbiased) as u32;
            let full = mantissa | 0x0080_0000; // Implicit leading one.
            let shifted = full >> (13 + shift);
            let rem_mask = (1u32 << (13 + shift)) - 1;
            let rem = full & rem_mask;
            let half_way = 1u32 << (12 + shift);
            let mut h = sign | shifted as u16;
            if rem > half_way || (rem == half_way && (shifted & 1) == 1) {
                h = h.wrapping_add(1);
            }
            return h;
        }
        sign // Underflow to signed zero.
    }

    /// The oracle decode: normalizes subnormals bit by bit.
    fn oracle_f16_bits_to_f32(h: u16) -> f32 {
        let sign = ((h & 0x8000) as u32) << 16;
        let exp = ((h >> 10) & 0x1f) as u32;
        let mantissa = (h & 0x03ff) as u32;
        let bits = if exp == 0x1f {
            // Infinity / NaN.
            sign | 0x7f80_0000 | (mantissa << 13)
        } else if exp == 0 {
            if mantissa == 0 {
                sign // Signed zero.
            } else {
                // Subnormal: normalize so the implicit bit is set, tracking
                // the effective binary exponent (starts at -14 for halves).
                let mut e = -14i32;
                let mut m = mantissa;
                while m & 0x0400 == 0 {
                    m <<= 1;
                    e -= 1;
                }
                let f32_exp = (e + 127) as u32;
                sign | (f32_exp << 23) | ((m & 0x03ff) << 13)
            }
        } else {
            sign | ((exp + 127 - 15) << 23) | (mantissa << 13)
        };
        f32::from_bits(bits)
    }

    fn check_encode(bits: u32) {
        let x = f32::from_bits(bits);
        assert_eq!(
            f32_to_f16_bits(x),
            oracle_f32_to_f16_bits(x),
            "encode of {bits:#010x} ({x:e})"
        );
    }

    #[test]
    fn fp16_decode_matches_the_oracle_on_every_half() {
        for h in 0..=u16::MAX {
            assert_eq!(
                f16_bits_to_f32(h).to_bits(),
                oracle_f16_bits_to_f32(h).to_bits(),
                "decode of {h:#06x}"
            );
        }
    }

    #[test]
    fn fp16_encode_matches_the_oracle_on_exponent_edges() {
        // Every sign and exponent, with mantissas at each bit boundary
        // (2^k - 1, 2^k, 2^k + 1), at every rounding-relevant low pattern
        // (the tie 0x1000 and its neighbours), and on a coarse stride.
        let mut mantissas: Vec<u32> = (0..23)
            .flat_map(|k| [(1u32 << k) - 1, 1 << k, (1 << k) + 1])
            .chain([0x7f_ffff, 0x7f_fffe])
            .chain((0..0x400u32).flat_map(|hi| {
                [0u32, 1, 0xfff, 0x1000, 0x1001, 0x1fff].map(move |lo| (hi << 13) | lo)
            }))
            .chain((0..0x80_0000).step_by(8191))
            .collect();
        // Subnormal halves round at bit 13 + shift; cover each tie.
        for shift in 1..=10u32 {
            let tie = 1u32 << (12 + shift);
            mantissas.extend([tie - 1, tie, tie + 1, tie | (1 << (13 + shift))]);
        }
        for sign in [0u32, 1 << 31] {
            for exp in 0..=0xffu32 {
                for &m in &mantissas {
                    check_encode(sign | (exp << 23) | (m & 0x7f_ffff));
                }
            }
        }
    }

    #[test]
    fn fp16_encode_matches_the_oracle_on_every_f32() {
        // All 2^32 patterns in an optimized build (a few seconds); a
        // strided sample under debug assertions.
        let stride: usize = if cfg!(debug_assertions) { 4099 } else { 1 };
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get().min(4)) as u64;
        let span = (1u64 << 32) / threads;
        std::thread::scope(|scope| {
            for t in 0..threads {
                scope.spawn(move || {
                    let hi = if t + 1 == threads { 1u64 << 32 } else { (t + 1) * span };
                    for bits in (t * span..hi).step_by(stride) {
                        check_encode(bits as u32);
                    }
                });
            }
        });
    }

    #[test]
    fn fp16_flushes_below_the_smallest_subnormal_to_signed_zero() {
        // Strictly between 2^-25 and 2^-24, round-to-nearest-even would
        // give 0x0001; this conversion gives signed zero (documented on
        // `f32_to_f16_bits`, kept because training bits depend on it).
        let lo = 2.0f32.powi(-25);
        let hi = 2.0f32.powi(-24);
        for x in [f32::from_bits(lo.to_bits() + 1), 1.5 * lo, f32::from_bits(hi.to_bits() - 1)] {
            assert!(lo < x && x < hi);
            assert_eq!(f32_to_f16_bits(x), 0x0000, "{x:e}");
            assert_eq!(f32_to_f16_bits(-x), 0x8000, "{:e}", -x);
        }
        // The tie at 2^-25 rounds to even (zero), as RNE would.
        assert_eq!(f32_to_f16_bits(lo), 0x0000);
        // 2^-24 and the values just above round correctly.
        assert_eq!(f32_to_f16_bits(hi), 0x0001);
        assert_eq!(f32_to_f16_bits(1.5 * hi), 0x0002, "tie rounds to even");
        assert_eq!(f32_to_f16_bits(1.25 * hi), 0x0001);
    }

    #[test]
    fn exact_halves_roundtrip_exactly() {
        let c = Fp16::new();
        let grad = vec![0.0, 1.0, -2.0, 0.5, 0.25, 1024.0, -0.125];
        let out = c.decompress(&c.compress(&grad, CompressCtx::default()));
        assert_eq!(out, grad);
    }

    #[test]
    fn relative_error_is_within_half_epsilon() {
        let c = Fp16::new();
        let grad: Vec<f32> = (1..100).map(|i| i as f32 * 0.0317).collect();
        let out = c.decompress(&c.compress(&grad, CompressCtx::default()));
        for (&g, &o) in grad.iter().zip(&out) {
            let rel = ((g - o) / g).abs();
            assert!(rel <= 1.0 / 1024.0, "g={g} o={o} rel={rel}");
        }
    }

    #[test]
    fn overflow_saturates_to_infinity() {
        assert_eq!(f32_to_f16_bits(1e6), 0x7c00);
        assert_eq!(f32_to_f16_bits(-1e6), 0xfc00);
        assert!(f16_bits_to_f32(0x7c00).is_infinite());
    }

    #[test]
    fn subnormals_are_representable() {
        // 2^-24 is the smallest positive half subnormal.
        let tiny = 2.0f32.powi(-24);
        let bits = f32_to_f16_bits(tiny);
        assert_eq!(bits, 1);
        assert!((f16_bits_to_f32(bits) - tiny).abs() < 1e-10);
    }

    #[test]
    fn underflow_flushes_to_signed_zero() {
        let h = f32_to_f16_bits(-1e-30);
        assert_eq!(h, 0x8000);
        assert_eq!(f16_bits_to_f32(h), -0.0);
    }

    #[test]
    fn nan_stays_nan() {
        let h = f32_to_f16_bits(f32::NAN);
        assert!(f16_bits_to_f32(h).is_nan());
    }

    #[test]
    fn round_to_nearest_even() {
        // 1 + 2^-11 is exactly halfway between 1.0 and the next half;
        // round-to-even picks 1.0 (even mantissa).
        let x = 1.0 + 2.0f32.powi(-11);
        assert_eq!(f16_bits_to_f32(f32_to_f16_bits(x)), 1.0);
        // 1 + 3*2^-11 is halfway between odd and even; rounds up to even.
        let y = 1.0 + 3.0 * 2.0f32.powi(-11);
        let rounded = f16_bits_to_f32(f32_to_f16_bits(y));
        assert_eq!(rounded, 1.0 + 2.0f32.powi(-9));
    }

    #[test]
    fn ratio_is_one_half() {
        let c = Fp16::new();
        let r = c.ratio(1 << 20);
        assert!((r - 0.5).abs() < 1e-5);
    }

    #[test]
    fn wire_bytes_match_compressed_bytes() {
        let c = Fp16::new();
        for n in [0usize, 1, 7, 4096] {
            let grad = vec![1.5f32; n];
            let out = c.compress(&grad, CompressCtx::default());
            assert_eq!(out.wire_bytes(), c.compressed_bytes(n));
        }
    }
}
