//! Deep Gradient Compression (Lin et al., ICLR 2018): top-k-by-magnitude
//! sparsification.
//!
//! DGC keeps the `k = ceil(density * n)` largest-magnitude gradient
//! entries. The full DGC recipe also prescribes momentum correction and
//! gradient clipping on the training side; those belong to the optimizer
//! (see `espresso-training`), while this type implements the wire-format
//! selection the systems paper schedules.

use crate::{
    algorithms::kept_elements,
    compressor::{Accumulate, CompressCtx, Compressor},
    tensor::CompressedTensor,
};

/// DGC / Top-K sparsifier.
#[derive(Debug, Clone, Copy)]
pub struct Dgc {
    density: f64,
}

impl Dgc {
    /// Creates a DGC compressor keeping a `density` fraction of elements.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < density <= 1`.
    pub fn new(density: f64) -> Self {
        assert!(
            density > 0.0 && density <= 1.0,
            "density must be in (0, 1], got {density}"
        );
        Self { density }
    }

    /// The configured density.
    pub fn density(&self) -> f64 {
        self.density
    }
}

impl Compressor for Dgc {
    fn name(&self) -> &'static str {
        "DGC"
    }

    fn compress(&self, grad: &[f32], _ctx: CompressCtx) -> CompressedTensor {
        let k = kept_elements(grad.len(), self.density);
        if k == 0 {
            return CompressedTensor::Sparse {
                len: 0,
                indices: vec![],
                values: vec![],
            };
        }
        // Partial selection of the k largest |g|: O(n) average via
        // select_nth_unstable on the magnitude order.
        let mut order: Vec<u32> = (0..grad.len() as u32).collect();
        let nth = grad.len() - k;
        order.select_nth_unstable_by(nth, |&a, &b| {
            grad[a as usize]
                .abs()
                .total_cmp(&grad[b as usize].abs())
        });
        let mut indices: Vec<u32> = order[nth..].to_vec();
        indices.sort_unstable();
        let values = indices.iter().map(|&i| grad[i as usize]).collect();
        CompressedTensor::Sparse {
            len: grad.len(),
            indices,
            values,
        }
    }

    fn decompress(&self, compressed: &CompressedTensor) -> Vec<f32> {
        match compressed {
            CompressedTensor::Sparse {
                len,
                indices,
                values,
            } => {
                let mut out = vec![0.0; *len];
                for (&i, &v) in indices.iter().zip(values) {
                    out[i as usize] = v;
                }
                out
            }
            other => panic!("DGC cannot decompress {other:?}"),
        }
    }

    /// Touches only the kept indices: every other element decompresses to
    /// `+0.0`, which leaves the accumulator's bits unchanged under the
    /// trait's contract.
    fn accumulate_into(&self, compressed: &CompressedTensor, acc: &mut [f32], op: Accumulate) {
        let CompressedTensor::Sparse {
            len,
            indices,
            values,
        } = compressed
        else {
            panic!("DGC cannot decompress {compressed:?}");
        };
        assert_eq!(*len, acc.len(), "accumulating mismatched tensor lengths");
        let kept = indices.iter().zip(values);
        match op {
            Accumulate::Add => kept.for_each(|(&i, &v)| acc[i as usize] += v),
            Accumulate::Subtract => kept.for_each(|(&i, &v)| acc[i as usize] -= v),
        }
    }

    fn compressed_bytes(&self, elems: usize) -> usize {
        4 + kept_elements(elems, self.density) * 8
    }

    fn is_biased(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn selects_largest_magnitudes() {
        let c = Dgc::new(0.25);
        let grad = vec![0.1, -5.0, 0.2, 3.0, -0.05, 0.0, 1.0, -2.0];
        let out = c.compress(&grad, CompressCtx::default());
        match &out {
            CompressedTensor::Sparse {
                indices, values, ..
            } => {
                assert_eq!(indices.len(), 2);
                // Largest two magnitudes: -5.0 (idx 1) and 3.0 (idx 3).
                assert_eq!(indices.as_slice(), &[1, 3]);
                assert_eq!(values.as_slice(), &[-5.0, 3.0]);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn k_is_ceil_of_density_times_n() {
        let c = Dgc::new(0.01);
        let grad = vec![1.0f32; 250];
        match c.compress(&grad, CompressCtx::default()) {
            CompressedTensor::Sparse { indices, .. } => assert_eq!(indices.len(), 3),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn roundtrip_zeroes_unselected() {
        let c = Dgc::new(0.5);
        let grad = vec![4.0, 1.0, -3.0, 0.5];
        let dense = c.decompress(&c.compress(&grad, CompressCtx::default()));
        assert_eq!(dense, vec![4.0, 0.0, -3.0, 0.0]);
    }

    #[test]
    fn deterministic_regardless_of_ctx() {
        let c = Dgc::new(0.3);
        let grad: Vec<f32> = (0..97).map(|i| ((i * 37) % 19) as f32 - 9.0).collect();
        let a = c.compress(
            &grad,
            CompressCtx {
                round: 0,
                worker: 0,
                tensor: 0,
            },
        );
        let b = c.compress(
            &grad,
            CompressCtx {
                round: 9,
                worker: 3,
                tensor: 1,
            },
        );
        assert_eq!(a, b);
    }

    #[test]
    fn full_density_keeps_everything() {
        let c = Dgc::new(1.0);
        let grad = vec![1.0, -2.0, 3.0];
        let dense = c.decompress(&c.compress(&grad, CompressCtx::default()));
        assert_eq!(dense, grad);
    }

    #[test]
    fn handles_ties_and_nan_free_inputs() {
        let c = Dgc::new(0.5);
        let grad = vec![1.0, 1.0, 1.0, 1.0];
        match c.compress(&grad, CompressCtx::default()) {
            CompressedTensor::Sparse { indices, .. } => assert_eq!(indices.len(), 2),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn empty_tensor() {
        let c = Dgc::new(0.01);
        let out = c.compress(&[], CompressCtx::default());
        assert!(out.is_empty());
        assert_eq!(c.decompress(&out).len(), 0);
    }

    #[test]
    fn wire_bytes_match_compressed_bytes() {
        let c = Dgc::new(0.01);
        for n in [0usize, 1, 100, 999, 4096] {
            let grad: Vec<f32> = (0..n).map(|i| i as f32).collect();
            let out = c.compress(&grad, CompressCtx::default());
            assert_eq!(out.wire_bytes(), c.compressed_bytes(n), "n={n}");
        }
    }
}
