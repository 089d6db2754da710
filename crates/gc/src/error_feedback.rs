//! Error feedback (EF) memory.
//!
//! Biased compressors (sign quantization, top-k selection) diverge without
//! compensation. Error feedback keeps, per worker and per tensor, the
//! residual `e_t = g'_t - C(g'_t)` where `g'_t = g_t + e_{t-1}` is the
//! compensated gradient; the residual is added back before the next
//! compression. The paper applies EF on both GPU and CPU compression to
//! preserve accuracy (section 5.1), and Figure 16 validates convergence
//! under it — reproduced in `espresso-training`.

use crate::compressor::{Accumulate, CompressCtx, Compressor};
use crate::tensor::CompressedTensor;

/// Per-tensor error-feedback state for one worker.
///
/// # Examples
///
/// ```
/// use espresso_gc::{CompressCtx, ErrorFeedback, GcAlgorithm};
///
/// let compressor = GcAlgorithm::EfSignSgd.build();
/// let mut ef = ErrorFeedback::new(4);
/// let grad = [1.0, -2.0, 3.0, -4.0];
/// let blob = ef.compress_with_feedback(&*compressor, &grad, CompressCtx::default());
/// // The residual holds exactly what the 1-bit code failed to transmit.
/// assert!(ef.residual_norm_sq() > 0.0);
/// assert_eq!(blob.len(), 4);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ErrorFeedback {
    residual: Vec<f32>,
}

impl ErrorFeedback {
    /// Creates an EF state for a tensor of `len` elements, with zero
    /// initial residual.
    pub fn new(len: usize) -> Self {
        Self {
            residual: vec![0.0; len],
        }
    }

    /// The current residual (what compression has not yet transmitted).
    pub fn residual(&self) -> &[f32] {
        &self.residual
    }

    /// Squared L2 norm of the residual; the EF convergence analyses bound
    /// this quantity, and the property tests assert it stays bounded.
    pub fn residual_norm_sq(&self) -> f64 {
        self.residual.iter().map(|&r| (r as f64) * (r as f64)).sum()
    }

    /// Compensates `grad` with the stored residual, compresses it, and
    /// updates the residual to the new compression error.
    ///
    /// Returns the compressed tensor to be communicated.
    ///
    /// # Panics
    ///
    /// Panics if `grad.len()` differs from the length this state was
    /// created for — tensor shapes are static in DNN training.
    pub fn compress_with_feedback(
        &mut self,
        compressor: &dyn Compressor,
        grad: &[f32],
        ctx: CompressCtx,
    ) -> CompressedTensor {
        assert_eq!(
            grad.len(),
            self.residual.len(),
            "gradient length changed between iterations"
        );
        // Compensate in place: the residual becomes `g + e` (addition is
        // commutative bit for bit), then the compression error
        // `(g + e) - C(g + e)` — the same two roundings as materializing
        // both intermediate tensors.
        for (r, &g) in self.residual.iter_mut().zip(grad) {
            *r += g;
        }
        let compressed = compressor.compress(&self.residual, ctx);
        compressor.accumulate_into(&compressed, &mut self.residual, Accumulate::Subtract);
        compressed
    }

    /// Clears the residual (e.g. at epoch boundaries in some recipes).
    pub fn reset(&mut self) {
        self.residual.iter_mut().for_each(|r| *r = 0.0);
    }

    /// Reconstructs an EF state from an exported residual — the restore
    /// half of checkpointing (see `espresso-training::checkpoint`).
    pub fn from_residual(residual: Vec<f32>) -> Self {
        Self { residual }
    }

    /// Folds `scale * other.residual` into this state's residual — the
    /// elastic-recovery merge policy: when a worker is lost, its
    /// untransmitted gradient mass is redistributed across the survivors
    /// (each takes `1/survivors` of it) instead of being dropped, so the
    /// error-feedback convergence guarantee keeps holding through the
    /// membership change.
    ///
    /// # Panics
    ///
    /// Panics if the two states track tensors of different lengths.
    pub fn merge_scaled(&mut self, other: &ErrorFeedback, scale: f32) {
        assert_eq!(
            self.residual.len(),
            other.residual.len(),
            "merging error-feedback states of different tensor lengths"
        );
        for (r, &o) in self.residual.iter_mut().zip(&other.residual) {
            *r += scale * o;
        }
    }

    /// Subtracts `scale * other.residual` from this state's residual —
    /// the elastic-recovery *split*, the algebraic inverse of
    /// [`ErrorFeedback::merge_scaled`]: when a lost worker re-joins, each
    /// survivor gives back a share of its residual, and the donated mass
    /// seeds the re-joining rank's fresh EF state, so total untransmitted
    /// gradient mass is conserved through the membership change in both
    /// directions.
    ///
    /// # Rounding contract
    ///
    /// `merge_scaled(o, s)` followed by `split_scaled(o, s)` computes
    /// `(r + s*o) - s*o` in f32: the product `s*o` rounds once and is
    /// reused bit-identically on both sides, so the only error is the two
    /// additions' rounding. The round trip therefore returns each element
    /// to within `2 * f32::EPSILON * (|r| + |s*o|)` of its original value
    /// (exactly equal whenever the addition is exact, e.g. `r == 0` or
    /// same-exponent operands). The property test
    /// `merge_then_split_round_trips_within_rounding` pins this bound.
    ///
    /// # Panics
    ///
    /// Panics if the two states track tensors of different lengths.
    pub fn split_scaled(&mut self, other: &ErrorFeedback, scale: f32) {
        assert_eq!(
            self.residual.len(),
            other.residual.len(),
            "splitting error-feedback states of different tensor lengths"
        );
        for (r, &o) in self.residual.iter_mut().zip(&other.residual) {
            *r -= scale * o;
        }
    }

    /// Subtracts `scale * residual` from the residual in place: the same
    /// bits as [`ErrorFeedback::split_scaled`] against a copy of this
    /// state, without making the copy. Each element computes
    /// `r - scale * r` from its own pre-split value, exactly as the split
    /// does from the copy's element.
    pub fn split_own(&mut self, scale: f32) {
        for r in &mut self.residual {
            *r -= scale * *r;
        }
    }
}

impl espresso_json::ToJson for ErrorFeedback {
    // The wire form is just the residual array: `f32 -> f64` is exact and
    // the JSON layer renders f64 shortest-round-trip, so export/import is
    // bit-identical for finite values (NaN/Inf never appear in a residual
    // that came from finite gradients).
    fn to_json(&self) -> espresso_json::Json {
        espresso_json::ToJson::to_json(&self.residual)
    }
}

impl espresso_json::FromJson for ErrorFeedback {
    fn from_json(v: &espresso_json::Json) -> Result<Self, espresso_json::DecodeError> {
        Ok(Self {
            residual: <Vec<f32> as espresso_json::FromJson>::from_json(v)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::{Dgc, EfSignSgd};

    #[test]
    fn residual_is_compression_error() {
        let mut ef = ErrorFeedback::new(4);
        let comp = EfSignSgd::new();
        let grad = vec![1.0, -2.0, 3.0, -4.0];
        let compressed = ef.compress_with_feedback(&comp, &grad, CompressCtx::default());
        let recon = comp.decompress(&compressed);
        for ((&g, &d), &r) in grad.iter().zip(&recon).zip(ef.residual()) {
            assert!((r - (g - d)).abs() < 1e-6);
        }
    }

    #[test]
    fn topk_with_feedback_eventually_transmits_small_coordinates() {
        // A coordinate too small to ever win top-k accumulates in the
        // residual until it is transmitted — the core EF guarantee.
        let mut ef = ErrorFeedback::new(10);
        let comp = Dgc::new(0.1); // Keeps 1 of 10 elements.
        let mut grad = vec![0.01f32; 10];
        grad[0] = 1.0; // Always wins round one.
        let rounds = 2000;
        let mut transmitted = [0.0f32; 10];
        for round in 0..rounds {
            let ctx = CompressCtx {
                round,
                ..Default::default()
            };
            let compressed = ef.compress_with_feedback(&comp, &grad, ctx);
            for (t, d) in transmitted.iter_mut().zip(comp.decompress(&compressed)) {
                *t += d;
            }
        }
        // Every coordinate must keep pace with its inflow, up to the O(1)
        // mass the residual holds per coordinate (a small coordinate must
        // accumulate to roughly the top-1 threshold before it wins a
        // round, so the steady-state lag is ~1.0, not ~rate * rounds).
        for (i, &t) in transmitted.iter().enumerate() {
            let expected = rounds as f32 * grad[i];
            assert!(
                (t - expected).abs() < 2.0,
                "coord {i}: transmitted {t}, expected ~{expected}"
            );
        }
    }

    #[test]
    fn residual_norm_stays_bounded_under_signsgd() {
        let mut ef = ErrorFeedback::new(64);
        let comp = EfSignSgd::new();
        let grad: Vec<f32> = (0..64).map(|i| ((i as f32) * 0.37).sin()).collect();
        let mut norms = Vec::new();
        for round in 0..100 {
            let ctx = CompressCtx {
                round,
                ..Default::default()
            };
            ef.compress_with_feedback(&comp, &grad, ctx);
            norms.push(ef.residual_norm_sq());
        }
        let max_late = norms[50..].iter().cloned().fold(0.0f64, f64::max);
        let grad_norm: f64 = grad.iter().map(|&g| (g as f64).powi(2)).sum();
        // The EF analysis bounds ||e||^2 by a constant multiple of ||g||^2
        // for contractive compressors; use a generous factor.
        assert!(
            max_late < 16.0 * grad_norm,
            "residual diverging: {max_late} vs grad {grad_norm}"
        );
    }

    #[test]
    fn reset_clears_residual() {
        let mut ef = ErrorFeedback::new(4);
        let comp = EfSignSgd::new();
        ef.compress_with_feedback(&comp, &[1.0, 2.0, 3.0, 4.0], CompressCtx::default());
        assert!(ef.residual_norm_sq() > 0.0);
        ef.reset();
        assert_eq!(ef.residual_norm_sq(), 0.0);
    }

    #[test]
    #[should_panic(expected = "gradient length changed")]
    fn length_mismatch_panics() {
        let mut ef = ErrorFeedback::new(4);
        let comp = EfSignSgd::new();
        ef.compress_with_feedback(&comp, &[1.0], CompressCtx::default());
    }

    #[test]
    fn json_round_trip_is_bit_identical() {
        use espresso_json::{FromJson, ToJson};
        let mut ef = ErrorFeedback::new(8);
        let comp = EfSignSgd::new();
        let grad: Vec<f32> = (0..8).map(|i| ((i as f32) * 1.371).sin() * 1e-3).collect();
        ef.compress_with_feedback(&comp, &grad, CompressCtx::default());
        let text = ef.to_json().render();
        let back = ErrorFeedback::from_json(&espresso_json::Json::parse(&text).unwrap()).unwrap();
        let bits: Vec<u32> = ef.residual().iter().map(|r| r.to_bits()).collect();
        let bits_back: Vec<u32> = back.residual().iter().map(|r| r.to_bits()).collect();
        assert_eq!(bits, bits_back);
    }

    #[test]
    fn merge_scaled_redistributes_residual_mass() {
        let mut survivor = ErrorFeedback::from_residual(vec![1.0, -2.0]);
        let lost = ErrorFeedback::from_residual(vec![4.0, 8.0]);
        survivor.merge_scaled(&lost, 0.5);
        assert_eq!(survivor.residual(), &[3.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "different tensor lengths")]
    fn merge_scaled_length_mismatch_panics() {
        let mut a = ErrorFeedback::new(2);
        let b = ErrorFeedback::new(3);
        a.merge_scaled(&b, 1.0);
    }

    #[test]
    fn split_scaled_inverts_merge_exactly_on_exact_sums() {
        let mut survivor = ErrorFeedback::from_residual(vec![1.0, -2.0]);
        let other = ErrorFeedback::from_residual(vec![4.0, 8.0]);
        survivor.merge_scaled(&other, 0.5);
        assert_eq!(survivor.residual(), &[3.0, 2.0]);
        survivor.split_scaled(&other, 0.5);
        // Powers of two: both additions are exact, so the round trip is
        // bit-identical, not merely within the rounding bound.
        assert_eq!(survivor.residual(), &[1.0, -2.0]);
    }

    #[test]
    #[should_panic(expected = "different tensor lengths")]
    fn split_scaled_length_mismatch_panics() {
        let mut a = ErrorFeedback::new(2);
        let b = ErrorFeedback::new(3);
        a.split_scaled(&b, 1.0);
    }
}
