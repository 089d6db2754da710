//! EFSignSGD (Karimireddy et al., ICML 2019): 1-bit sign quantization with
//! a mean-magnitude scale, designed to be used under error feedback.
//!
//! Each element is reduced to its sign; the reconstruction multiplies the
//! sign by the mean absolute value of the original tensor, which makes the
//! compressor a scaled sign operator whose compression error is absorbed by
//! the error-feedback memory.

use crate::{
    compressor::{Accumulate, CompressCtx, Compressor},
    tensor::CompressedTensor,
};

/// EFSignSGD 1-bit quantizer.
#[derive(Debug, Clone, Copy, Default)]
pub struct EfSignSgd;

impl EfSignSgd {
    /// Creates the quantizer.
    pub fn new() -> Self {
        Self
    }
}

/// Number of 64-bit words needed to hold `elems` sign bits.
fn words(elems: usize) -> usize {
    elems.div_ceil(64)
}

/// Calls `f(&mut out[i], ±scale)` for every element of a sign tensor,
/// one 64-lane word at a time. The sign is applied by flipping the scale's
/// sign bit, which is exactly `-scale`.
fn for_each_signed(compressed: &CompressedTensor, out: &mut [f32], f: impl Fn(&mut f32, f32)) {
    let CompressedTensor::Signs { scale, bits, .. } = compressed else {
        panic!("EFSignSGD cannot decompress {compressed:?}");
    };
    let scale = scale.to_bits();
    for (lanes, &word) in out.chunks_mut(64).zip(bits) {
        for (j, o) in lanes.iter_mut().enumerate() {
            let negative = (!(word >> j) & 1) as u32;
            f(o, f32::from_bits(scale ^ (negative << 31)));
        }
    }
}

impl Compressor for EfSignSgd {
    fn name(&self) -> &'static str {
        "EFSignSGD"
    }

    fn compress(&self, grad: &[f32], _ctx: CompressCtx) -> CompressedTensor {
        let n = grad.len();
        // A sequential f32 fold, in element order: reassociating it would
        // change the scale's bits.
        let scale = if n == 0 {
            0.0
        } else {
            grad.iter().map(|g| g.abs()).sum::<f32>() / n as f32
        };
        let bits = grad
            .chunks(64)
            .map(|lanes| {
                lanes
                    .iter()
                    .enumerate()
                    .fold(0u64, |word, (j, &g)| word | (u64::from(g >= 0.0) << j))
            })
            .collect();
        CompressedTensor::Signs {
            len: n,
            scale,
            bits,
        }
    }

    fn decompress(&self, compressed: &CompressedTensor) -> Vec<f32> {
        let mut out = vec![0.0; compressed.len()];
        for_each_signed(compressed, &mut out, |o, v| *o = v);
        out
    }

    fn accumulate_into(&self, compressed: &CompressedTensor, acc: &mut [f32], op: Accumulate) {
        assert_eq!(compressed.len(), acc.len(), "accumulating mismatched tensor lengths");
        match op {
            Accumulate::Add => for_each_signed(compressed, acc, |a, v| *a += v),
            Accumulate::Subtract => for_each_signed(compressed, acc, |a, v| *a -= v),
        }
    }

    fn compressed_bytes(&self, elems: usize) -> usize {
        4 + 4 + words(elems) * 8
    }

    fn is_biased(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reconstruction_is_scaled_signs() {
        let c = EfSignSgd::new();
        let grad = vec![2.0, -1.0, 0.5, -0.5];
        let out = c.decompress(&c.compress(&grad, CompressCtx::default()));
        let scale = (2.0 + 1.0 + 0.5 + 0.5) / 4.0;
        assert_eq!(out, vec![scale, -scale, scale, -scale]);
    }

    #[test]
    fn zero_maps_to_positive_sign() {
        let c = EfSignSgd::new();
        let out = c.decompress(&c.compress(&[0.0, -1.0], CompressCtx::default()));
        assert!(out[0] > 0.0);
        assert!(out[1] < 0.0);
    }

    #[test]
    fn ratio_approaches_one_thirty_second() {
        let c = EfSignSgd::new();
        let r = c.ratio(1 << 20);
        assert!((r - 1.0 / 32.0).abs() < 1e-4, "r={r}");
    }

    #[test]
    fn bit_packing_boundaries() {
        let c = EfSignSgd::new();
        for n in [1usize, 63, 64, 65, 128, 129] {
            let grad: Vec<f32> = (0..n).map(|i| if i % 3 == 0 { -1.0 } else { 1.0 }).collect();
            let out = c.decompress(&c.compress(&grad, CompressCtx::default()));
            assert_eq!(out.len(), n);
            for (i, (&o, &g)) in out.iter().zip(&grad).enumerate() {
                assert_eq!(o.signum(), g.signum(), "n={n} i={i}");
            }
        }
    }

    #[test]
    fn empty_tensor() {
        let c = EfSignSgd::new();
        let out = c.compress(&[], CompressCtx::default());
        assert!(out.is_empty());
        assert_eq!(c.decompress(&out).len(), 0);
        assert_eq!(out.wire_bytes(), c.compressed_bytes(0));
    }

    #[test]
    fn wire_bytes_match_compressed_bytes() {
        let c = EfSignSgd::new();
        for n in [1usize, 64, 100, 4096] {
            let grad = vec![1.0f32; n];
            let out = c.compress(&grad, CompressCtx::default());
            assert_eq!(out.wire_bytes(), c.compressed_bytes(n), "n={n}");
        }
    }

    #[test]
    fn compression_error_is_orthogonal_decrease() {
        // ||g - C(g)||^2 < ||g||^2 must hold for the EF convergence proof
        // whenever g is not identically zero-signed; check on a spread of
        // vectors.
        let c = EfSignSgd::new();
        let grads = [
            vec![1.0f32, -2.0, 3.0, -4.0],
            vec![0.1, 0.2, 0.3, 10.0],
            vec![-1.0, -1.0, -1.0, -1.0],
        ];
        for g in grads {
            let d = c.decompress(&c.compress(&g, CompressCtx::default()));
            let err: f32 = g.iter().zip(&d).map(|(a, b)| (a - b).powi(2)).sum();
            let norm: f32 = g.iter().map(|a| a * a).sum();
            assert!(err < norm, "err={err} norm={norm} g={g:?}");
        }
    }
}
