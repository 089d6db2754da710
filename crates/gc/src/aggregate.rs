//! Aggregation of compressed gradients.
//!
//! Compressed tensors are not associatively reducible (the constraint
//! behind the paper's Table 2: compressed tensors cannot use Allreduce).
//! Aggregation therefore decompresses every contribution and sums dense —
//! exactly what each node does after the Allgather/Alltoall of the
//! indivisible and divisible schemes.

use crate::{
    compressor::{Accumulate, CompressCtx, Compressor},
    error_feedback::ErrorFeedback,
    tensor::CompressedTensor,
};

/// Simulates one full synchronization round for `world` workers: each
/// worker compresses its gradient (with its own error-feedback state),
/// the compressed tensors are exchanged, and every worker ends with the
/// *same* averaged dense gradient — the invariant synchronous data-parallel
/// training relies on.
///
/// Returns the synchronized (averaged) gradient.
///
/// # Panics
///
/// Panics if `grads` and `ef_states` disagree on the worker count, or if
/// gradients have inconsistent lengths.
pub fn synchronize<G: AsRef<[f32]>>(
    compressor: &dyn Compressor,
    grads: &[G],
    ef_states: &mut [ErrorFeedback],
    round: u64,
    tensor: u64,
) -> Vec<f32> {
    synchronize_masked(compressor, grads, ef_states, round, tensor, None)
}

/// [`synchronize`] with a delivery mask: worker `w`'s push is aggregated
/// only when `delivered[w]` is true. Every worker still compresses and
/// updates its *own* error-feedback state (the sender cannot know its
/// push was lost), but a dropped push contributes nothing to the average
/// — the semantics of a lost gradient message in a real PS/all-gather
/// round. The average is taken over the delivered contributions.
///
/// `delivered = None` means everything arrived.
///
/// # Panics
///
/// As [`synchronize`]; additionally panics if the mask length differs
/// from the worker count or if *no* push was delivered (a round where
/// every message is lost has no defined result — callers should treat it
/// as a failed iteration instead).
pub fn synchronize_masked<G: AsRef<[f32]>>(
    compressor: &dyn Compressor,
    grads: &[G],
    ef_states: &mut [ErrorFeedback],
    round: u64,
    tensor: u64,
    delivered: Option<&[bool]>,
) -> Vec<f32> {
    assert_eq!(
        grads.len(),
        ef_states.len(),
        "one error-feedback state per worker required"
    );
    assert!(!grads.is_empty(), "need at least one worker");
    if let Some(mask) = delivered {
        assert_eq!(mask.len(), grads.len(), "one delivery flag per worker");
        assert!(mask.iter().any(|&d| d), "every push in the round was lost");
    }
    let mut out = vec![0.0f32; grads[0].as_ref().len()];
    let compressed: Vec<CompressedTensor> = grads
        .iter()
        .zip(ef_states.iter_mut())
        .enumerate()
        .map(|(worker, (grad, ef))| {
            let ctx = CompressCtx {
                round,
                worker: worker as u64,
                tensor,
            };
            ef.compress_with_feedback(compressor, grad.as_ref(), ctx)
        })
        .collect();
    let mut average = Average::new(&mut out);
    for (w, part) in compressed.iter().enumerate() {
        if delivered.is_none_or(|mask| mask[w]) {
            average.add(compressor, part);
        }
    }
    average.finish();
    out
}

/// A running average of compressed parts in a dense buffer: zeroed on
/// creation, each part's decompressed values added in the order the parts
/// arrive, then scaled by `1 / parts` on [`Average::finish`]. The one
/// aggregation path: [`synchronize_masked`] and the data-parallel trainer
/// both average through it, so a round averages bit for bit alike
/// whichever of them ran it, as long as the parts come in the same
/// (worker) order — even when different threads add them.
pub struct Average<'a> {
    out: &'a mut [f32],
    parts: usize,
}

impl<'a> Average<'a> {
    /// Starts an average in `out`, zeroing it.
    pub fn new(out: &'a mut [f32]) -> Self {
        out.fill(0.0);
        Self { out, parts: 0 }
    }

    /// Adds one part.
    ///
    /// # Panics
    ///
    /// Panics if the part's length differs from the buffer's.
    pub fn add(&mut self, compressor: &dyn Compressor, part: &CompressedTensor) {
        assert_eq!(part.len(), self.out.len(), "aggregating mismatched tensor lengths");
        compressor.accumulate_into(part, self.out, Accumulate::Add);
        self.parts += 1;
    }

    /// Scales the sum by `1 / parts`, leaving the average in the buffer.
    ///
    /// # Panics
    ///
    /// Panics if no part was added.
    pub fn finish(self) {
        assert!(self.parts > 0, "need at least one part to average");
        let scale = 1.0 / self.parts as f32;
        self.out.iter_mut().for_each(|v| *v *= scale);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::{Dgc, EfSignSgd, Fp16, RandomK};

    #[test]
    fn average_sums_contributions_then_scales() {
        let comp = Fp16::new();
        let a = comp.compress(&[1.0, 2.0], CompressCtx::default());
        let b = comp.compress(&[3.0, -1.0], CompressCtx::default());
        let mut out = vec![7.0; 2];
        let mut average = Average::new(&mut out);
        average.add(&comp, &a);
        average.add(&comp, &b);
        average.finish();
        assert_eq!(out, vec![2.0, 0.5]);
    }

    #[test]
    fn synchronize_averages_across_workers() {
        let comp = Fp16::new();
        let grads = vec![vec![2.0, 4.0], vec![4.0, 0.0]];
        let mut efs = vec![ErrorFeedback::new(2), ErrorFeedback::new(2)];
        let out = synchronize(&comp, &grads, &mut efs, 0, 0);
        assert_eq!(out, vec![3.0, 2.0]);
    }

    #[test]
    fn randomk_workers_can_aggregate_because_indices_align() {
        let comp = RandomK::new(0.25);
        let grads = vec![vec![1.0f32; 16], vec![2.0f32; 16]];
        let mut efs = vec![ErrorFeedback::new(16), ErrorFeedback::new(16)];
        let out = synchronize(&comp, &grads, &mut efs, 5, 1);
        // Selected coordinates average to 1.5; others are 0.
        let nonzero: Vec<f32> = out.iter().copied().filter(|&v| v != 0.0).collect();
        assert_eq!(nonzero.len(), 4);
        assert!(nonzero.iter().all(|&v| (v - 1.5).abs() < 1e-6));
    }

    #[test]
    fn all_workers_would_reconstruct_identically() {
        // The synchronized result is a pure function of the exchanged
        // blobs, so every worker computing it gets the same answer; check
        // by computing twice from the same compressed set.
        let comp = Dgc::new(0.5);
        let grads = [vec![1.0, -3.0, 0.5, 2.0], vec![0.2, 5.0, -0.1, 0.0]];
        let compressed: Vec<_> = grads
            .iter()
            .enumerate()
            .map(|(w, g)| {
                comp.compress(
                    g,
                    CompressCtx {
                        round: 0,
                        worker: w as u64,
                        tensor: 0,
                    },
                )
            })
            .collect();
        let average = |out: &mut Vec<f32>| {
            let mut average = Average::new(out);
            compressed.iter().for_each(|part| average.add(&comp, part));
            average.finish();
        };
        let (mut a, mut b) = (vec![0.0; 4], vec![1.0; 4]);
        average(&mut a);
        average(&mut b);
        assert_eq!(a, b);
    }

    #[test]
    fn signsgd_synchronization_tracks_gradient_direction() {
        let comp = EfSignSgd::new();
        let grads = vec![vec![1.0, -1.0, 2.0, -2.0]; 4];
        let mut efs = vec![ErrorFeedback::new(4); 4];
        let out = synchronize(&comp, &grads, &mut efs, 0, 0);
        for (o, g) in out.iter().zip(&grads[0]) {
            assert_eq!(o.signum(), g.signum());
        }
    }

    #[test]
    fn masked_sync_averages_over_delivered_only() {
        let comp = Fp16::new();
        let grads = vec![vec![2.0, 4.0], vec![4.0, 0.0], vec![6.0, 8.0]];
        let mut efs = vec![ErrorFeedback::new(2); 3];
        // Worker 1's push is lost: average of workers 0 and 2.
        let out = synchronize_masked(&comp, &grads, &mut efs, 0, 0, Some(&[true, false, true]));
        assert_eq!(out, vec![4.0, 6.0]);
    }

    #[test]
    fn masked_sync_still_updates_dropped_senders_ef() {
        // The sender of a lost push cannot know; its EF state must advance
        // exactly as if the push had been delivered.
        let comp = EfSignSgd::new();
        let grads = vec![vec![1.0, -2.0, 3.0, -4.0]; 2];
        let mut efs_masked = vec![ErrorFeedback::new(4); 2];
        let mut efs_full = vec![ErrorFeedback::new(4); 2];
        synchronize_masked(&comp, &grads, &mut efs_masked, 3, 1, Some(&[true, false]));
        synchronize(&comp, &grads, &mut efs_full, 3, 1);
        assert_eq!(efs_masked[1].residual(), efs_full[1].residual());
    }

    #[test]
    fn full_mask_matches_unmasked() {
        let comp = Fp16::new();
        let grads = vec![vec![2.0, 4.0], vec![4.0, 0.0]];
        let mut efs_a = vec![ErrorFeedback::new(2); 2];
        let mut efs_b = vec![ErrorFeedback::new(2); 2];
        let a = synchronize(&comp, &grads, &mut efs_a, 0, 0);
        let b = synchronize_masked(&comp, &grads, &mut efs_b, 0, 0, Some(&[true, true]));
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "every push in the round was lost")]
    fn all_dropped_panics() {
        let comp = Fp16::new();
        let grads = vec![vec![1.0], vec![2.0]];
        let mut efs = vec![ErrorFeedback::new(1); 2];
        let _ = synchronize_masked(&comp, &grads, &mut efs, 0, 0, Some(&[false, false]));
    }

    #[test]
    #[should_panic(expected = "one delivery flag per worker")]
    fn mask_length_mismatch_panics() {
        let comp = Fp16::new();
        let grads = vec![vec![1.0], vec![2.0]];
        let mut efs = vec![ErrorFeedback::new(1); 2];
        let _ = synchronize_masked(&comp, &grads, &mut efs, 0, 0, Some(&[true]));
    }

    #[test]
    #[should_panic(expected = "mismatched tensor lengths")]
    fn mismatched_lengths_panic() {
        let comp = Fp16::new();
        let a = comp.compress(&[1.0, 2.0], CompressCtx::default());
        let b = comp.compress(&[3.0], CompressCtx::default());
        let mut out = vec![0.0; 2];
        let mut average = Average::new(&mut out);
        average.add(&comp, &a);
        average.add(&comp, &b);
    }

    #[test]
    #[should_panic(expected = "need at least one part to average")]
    fn empty_average_panics() {
        let mut out = vec![0.0; 2];
        Average::new(&mut out).finish();
    }
}
