//! A pure-Rust multi-layer perceptron with softmax cross-entropy loss.
//!
//! The parameters are exposed as a list of named gradient tensors — the
//! same shape of interface the DDL stack synchronizes — so the
//! distributed trainer can compress each parameter tensor independently,
//! exactly as a real framework does.

use rand::{
    rngs::StdRng,
    Rng,
    SeedableRng,
};

use crate::data::Dataset;

/// A two-layer perceptron: `dims -> hidden (ReLU) -> classes (softmax)`.
#[derive(Debug, Clone)]
pub struct Mlp {
    /// Input dimensionality.
    pub dims: usize,
    /// Hidden width.
    pub hidden: usize,
    /// Output classes.
    pub classes: usize,
    /// Parameter tensors: `[w1, b1, w2, b2]`.
    params: Vec<Vec<f32>>,
}

/// Indices and shapes of the four parameter tensors.
const NUM_TENSORS: usize = 4;

impl Mlp {
    /// Initializes with seeded He-style weights.
    pub fn new(dims: usize, hidden: usize, classes: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let scale1 = (2.0 / dims as f32).sqrt();
        let scale2 = (2.0 / hidden as f32).sqrt();
        let w1 = (0..dims * hidden)
            .map(|_| rng.random_range(-1.0f32..1.0) * scale1)
            .collect();
        let b1 = vec![0.0; hidden];
        let w2 = (0..hidden * classes)
            .map(|_| rng.random_range(-1.0f32..1.0) * scale2)
            .collect();
        let b2 = vec![0.0; classes];
        Self {
            dims,
            hidden,
            classes,
            params: vec![w1, b1, w2, b2],
        }
    }

    /// Reconstructs a model from exported parameter tensors — the restore
    /// half of checkpointing.
    ///
    /// # Panics
    ///
    /// Panics unless `params` is the `[w1, b1, w2, b2]` tensor list with
    /// the shapes implied by `dims`/`hidden`/`classes`.
    pub fn from_params(dims: usize, hidden: usize, classes: usize, params: Vec<Vec<f32>>) -> Self {
        assert_eq!(params.len(), NUM_TENSORS, "expected [w1, b1, w2, b2]");
        let expected = [dims * hidden, hidden, hidden * classes, classes];
        for (i, (p, e)) in params.iter().zip(expected).enumerate() {
            assert_eq!(p.len(), e, "tensor {i} has {} elements, expected {e}", p.len());
        }
        Self {
            dims,
            hidden,
            classes,
            params,
        }
    }

    /// The parameter tensors `[w1, b1, w2, b2]` — the export half of
    /// checkpointing (and the input to weight fingerprints).
    pub fn params(&self) -> &[Vec<f32>] {
        &self.params
    }

    /// Number of parameter tensors (gradient tensors to synchronize).
    pub fn num_tensors(&self) -> usize {
        NUM_TENSORS
    }

    /// Element count of parameter tensor `i`.
    pub fn tensor_len(&self, i: usize) -> usize {
        self.params[i].len()
    }

    /// Hidden activations of a batch of samples, sample-major: `hs` holds
    /// `xs.len()` rows of `hidden` values.
    ///
    /// Walks `w1` row by row (one row per input feature), updating every
    /// sample's hidden vector from that row while it is in cache, and the
    /// inner loop is a contiguous multiply-add across the hidden units.
    /// Each `h[j]` still starts at `b1[j]` and adds `w1[d][j] * x[d]` for
    /// `d = 0..dims` in order — the same roundings as a per-unit dot
    /// product.
    fn hidden_batch(&self, xs: &[&[f32]], hs: &mut [f32]) {
        let (w1, b1) = (&self.params[0], &self.params[1]);
        let width = self.hidden.max(1);
        for h in hs.chunks_exact_mut(width) {
            h.copy_from_slice(b1);
        }
        for (d, w_row) in w1.chunks_exact(width).enumerate() {
            for (h, x) in hs.chunks_exact_mut(width).zip(xs) {
                let xd = x[d];
                for (hj, &w) in h.iter_mut().zip(w_row) {
                    *hj += w * xd;
                }
            }
        }
        for hj in hs.iter_mut() {
            *hj = hj.max(0.0); // ReLU.
        }
    }

    /// Output logits of one sample from its hidden activations: `b2[k]`
    /// plus `w2[j][k] * h[j]` for `j = 0..hidden` in order, walking `w2`
    /// row by row.
    fn logits_into(&self, h: &[f32], logits: &mut [f32]) {
        let (w2, b2) = (&self.params[2], &self.params[3]);
        logits.copy_from_slice(b2);
        for (w_row, &hj) in w2.chunks_exact(self.classes.max(1)).zip(h) {
            for (lk, &w) in logits.iter_mut().zip(w_row) {
                *lk += w * hj;
            }
        }
    }

    /// Calls `f(i, logits)` for every sample `i` of `data`, in order,
    /// computing the hidden layers a block of samples at a time (one
    /// sweep over `w1` per block).
    fn for_each_logits(&self, data: &Dataset, mut f: impl FnMut(usize, &[f32])) {
        const BLOCK: usize = 8;
        let mut hs = vec![0.0f32; BLOCK * self.hidden];
        let mut logits = vec![0.0f32; self.classes];
        for start in (0..data.len()).step_by(BLOCK) {
            let samples = start..(start + BLOCK).min(data.len());
            let xs: Vec<&[f32]> = samples.clone().map(|i| data.row(i)).collect();
            let hs = &mut hs[..xs.len() * self.hidden];
            self.hidden_batch(&xs, hs);
            for (s, i) in samples.enumerate() {
                self.logits_into(&hs[s * self.hidden..(s + 1) * self.hidden], &mut logits);
                f(i, &logits);
            }
        }
    }

    /// Mean cross-entropy loss and parameter gradients over a batch of
    /// sample indices.
    ///
    /// The `w1` pass is batched: the forward pass computes every sample's
    /// hidden layer in one sweep over `w1`, and the backward pass adds
    /// every sample's outer product `x ⊗ dh` into one `w1`-gradient row
    /// before moving to the next. Each gradient element still receives
    /// the samples' contributions in batch order, so the result is bit
    /// for bit that of a per-sample loop; only the memory traffic drops.
    pub fn loss_and_grads(&self, data: &Dataset, batch: &[usize]) -> (f32, Vec<Vec<f32>>) {
        let mut grads = Vec::new();
        let loss = self.loss_and_grads_into(data, batch, &mut grads);
        (loss, grads)
    }

    /// As [`Mlp::loss_and_grads`], writing the gradients into `grads`
    /// (resized to the four parameter tensors and zeroed first), so a
    /// caller looping over workers reuses one buffer. Returns the loss.
    pub fn loss_and_grads_into(
        &self,
        data: &Dataset,
        batch: &[usize],
        grads: &mut Vec<Vec<f32>>,
    ) -> f32 {
        assert!(!batch.is_empty(), "empty batch");
        grads.resize_with(NUM_TENSORS, Vec::new);
        for (g, p) in grads.iter_mut().zip(&self.params) {
            g.clear();
            g.resize(p.len(), 0.0);
        }
        let [g_w1, g_b1, g_w2, g_b2] = &mut grads[..] else {
            unreachable!("an MLP has four parameter tensors");
        };
        let (hidden, classes) = (self.hidden, self.classes);
        let w2 = &self.params[2];
        let xs: Vec<&[f32]> = batch.iter().map(|&i| data.row(i)).collect();
        let mut hs = vec![0.0f32; batch.len() * hidden];
        self.hidden_batch(&xs, &mut hs);
        let mut dhs = vec![0.0f32; batch.len() * hidden];
        let mut dlogits = vec![0.0f32; classes];
        let mut loss = 0.0f32;
        let inv = 1.0 / batch.len() as f32;
        for (s, &i) in batch.iter().enumerate() {
            let h = &hs[s * hidden..(s + 1) * hidden];
            let dh = &mut dhs[s * hidden..(s + 1) * hidden];
            let y = data.labels[i];
            self.logits_into(h, &mut dlogits);
            softmax_in_place(&mut dlogits);
            loss -= (dlogits[y].max(1e-12)).ln();
            // dL/dlogits = probs - onehot(y).
            dlogits[y] -= 1.0;
            // w2, b2 gradients and hidden backprop.
            let rows = g_w2
                .chunks_exact_mut(classes.max(1))
                .zip(w2.chunks_exact(classes.max(1)));
            for ((g_row, w_row), (&hj, dhj)) in rows.zip(h.iter().zip(dh.iter_mut())) {
                let mut acc = 0.0f32;
                for ((g, &w), &dk) in g_row.iter_mut().zip(w_row).zip(&dlogits) {
                    *g += hj * dk * inv;
                    acc += w * dk;
                }
                *dhj = acc;
            }
            for (g, &dk) in g_b2.iter_mut().zip(&dlogits) {
                *g += dk * inv;
            }
            // ReLU mask, then the b1 gradient.
            for ((dhj, &hj), g) in dh.iter_mut().zip(h).zip(g_b1.iter_mut()) {
                if hj <= 0.0 {
                    *dhj = 0.0;
                }
                *g += *dhj * inv;
            }
        }
        // The w1 gradient, one row (input feature) at a time.
        for (d, g_row) in g_w1.chunks_exact_mut(hidden.max(1)).enumerate() {
            for (x, dh) in xs.iter().zip(dhs.chunks_exact(hidden.max(1))) {
                let xd = x[d];
                for (g, &dhj) in g_row.iter_mut().zip(dh) {
                    *g += xd * dhj * inv;
                }
            }
        }
        loss * inv
    }

    /// Applies an SGD step with the given per-tensor gradients.
    pub fn apply(&mut self, grads: &[Vec<f32>], lr: f32) {
        assert_eq!(grads.len(), NUM_TENSORS);
        for (p, g) in self.params.iter_mut().zip(grads) {
            assert_eq!(p.len(), g.len(), "gradient shape mismatch");
            for (pv, &gv) in p.iter_mut().zip(g) {
                *pv -= lr * gv;
            }
        }
    }

    /// Classification accuracy over a dataset.
    pub fn accuracy(&self, data: &Dataset) -> f64 {
        let mut correct = 0usize;
        self.for_each_logits(data, |i, logits| {
            correct += usize::from(argmax(logits) == data.labels[i]);
        });
        correct as f64 / data.len() as f64
    }

    /// Mean loss over a dataset (no gradients).
    pub fn loss(&self, data: &Dataset) -> f32 {
        let mut probs = vec![0.0f32; self.classes];
        let mut loss = 0.0;
        self.for_each_logits(data, |i, logits| {
            probs.copy_from_slice(logits);
            softmax_in_place(&mut probs);
            loss -= probs[data.labels[i]].max(1e-12).ln();
        });
        loss / data.len() as f32
    }
}

/// Replaces logits with their softmax probabilities: subtract the max,
/// exponentiate, then divide by the (sequentially summed) total.
fn softmax_in_place(v: &mut [f32]) {
    let max = v.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
    for l in v.iter_mut() {
        *l = (*l - max).exp();
    }
    let sum: f32 = v.iter().sum();
    for e in v.iter_mut() {
        *e /= sum;
    }
}

fn argmax(v: &[f32]) -> usize {
    v.iter()
        .enumerate()
        .max_by(|a, b| a.1.total_cmp(b.1))
        .map(|(i, _)| i)
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The loops as first written — per-unit dot products over strided
    /// `w1` columns, allocating per sample — kept as the oracle the
    /// lane-friendly loops must match bit for bit.
    mod naive {
        use super::*;

        pub fn forward(m: &Mlp, x: &[f32]) -> (Vec<f32>, Vec<f32>) {
            let [w1, b1, w2, b2] = &m.params[..] else { unreachable!() };
            let mut h = vec![0.0f32; m.hidden];
            for (j, hj) in h.iter_mut().enumerate() {
                let mut acc = b1[j];
                for (d, &xd) in x.iter().enumerate() {
                    acc += w1[d * m.hidden + j] * xd;
                }
                *hj = acc.max(0.0);
            }
            let mut logits = vec![0.0f32; m.classes];
            for (k, lk) in logits.iter_mut().enumerate() {
                let mut acc = b2[k];
                for (j, &hj) in h.iter().enumerate() {
                    acc += w2[j * m.classes + k] * hj;
                }
                *lk = acc;
            }
            (h, logits)
        }

        fn softmax(logits: &[f32]) -> Vec<f32> {
            let max = logits.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
            let exps: Vec<f32> = logits.iter().map(|&l| (l - max).exp()).collect();
            let sum: f32 = exps.iter().sum();
            exps.into_iter().map(|e| e / sum).collect()
        }

        pub fn loss_and_grads(m: &Mlp, data: &Dataset, batch: &[usize]) -> (f32, Vec<Vec<f32>>) {
            let mut grads: Vec<Vec<f32>> = m.params.iter().map(|p| vec![0.0; p.len()]).collect();
            let mut loss = 0.0f32;
            let inv = 1.0 / batch.len() as f32;
            for &i in batch {
                let x = data.row(i);
                let y = data.labels[i];
                let (h, logits) = forward(m, x);
                let probs = softmax(&logits);
                loss -= (probs[y].max(1e-12)).ln();
                let mut dlogits = probs;
                dlogits[y] -= 1.0;
                let w2 = &m.params[2];
                let mut dh = vec![0.0f32; m.hidden];
                for (j, &hj) in h.iter().enumerate() {
                    for (k, &dk) in dlogits.iter().enumerate() {
                        grads[2][j * m.classes + k] += hj * dk * inv;
                        dh[j] += w2[j * m.classes + k] * dk;
                    }
                }
                for (k, &dk) in dlogits.iter().enumerate() {
                    grads[3][k] += dk * inv;
                }
                for (j, dhj) in dh.iter_mut().enumerate() {
                    if h[j] <= 0.0 {
                        *dhj = 0.0;
                    }
                    grads[1][j] += *dhj * inv;
                }
                for (d, &xd) in x.iter().enumerate() {
                    for (j, &dhj) in dh.iter().enumerate() {
                        grads[0][d * m.hidden + j] += xd * dhj * inv;
                    }
                }
            }
            (loss * inv, grads)
        }

        pub fn accuracy(m: &Mlp, data: &Dataset) -> f64 {
            let correct = (0..data.len())
                .filter(|&i| argmax(&forward(m, data.row(i)).1) == data.labels[i])
                .count();
            correct as f64 / data.len() as f64
        }

        pub fn loss(m: &Mlp, data: &Dataset) -> f32 {
            let mut loss = 0.0;
            for i in 0..data.len() {
                let probs = softmax(&forward(m, data.row(i)).1);
                loss -= probs[data.labels[i]].max(1e-12).ln();
            }
            loss / data.len() as f32
        }
    }

    /// A value for a weight or feature: mostly ordinary, sometimes an
    /// edge value (±0, subnormal, ±inf, NaN, binary16 boundaries).
    fn value(kind: u32, pick: u32, x: f32) -> f32 {
        const EDGES: [f32; 12] = [
            0.0,
            -0.0,
            1e-45,
            -1.1754942e-38,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            65504.0,
            65520.0,
            5.9604645e-8,
            4.4703484e-8,
            -6.1035156e-5,
        ];
        match kind {
            0 => EDGES[pick as usize % EDGES.len()],
            _ => x,
        }
    }

    /// A random model and dataset of the given shape; `edgy` lets edge
    /// values into the weights and features.
    fn random_case(shape: (usize, usize, usize), seed: u64, edgy: bool) -> (Mlp, Dataset) {
        let (dims, hidden, classes) = shape;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut draw = |n: usize| -> Vec<f32> {
            (0..n)
                .map(|_| {
                    let kind = if edgy { rng.random_range(0..16u32) } else { 1 };
                    value(kind, rng.random_range(0..u32::MAX), rng.random_range(-2.0f32..2.0))
                })
                .collect()
        };
        let params = vec![
            draw(dims * hidden),
            draw(hidden),
            draw(hidden * classes),
            draw(classes),
        ];
        let samples = 9;
        let features = draw(samples * dims);
        let labels = (0..samples).map(|i| (i * 7 + seed as usize) % classes).collect();
        let data = Dataset {
            dims,
            classes,
            features,
            labels,
        };
        (Mlp::from_params(dims, hidden, classes, params), data)
    }

    /// Bit patterns, with every NaN mapped to one pattern (Rust leaves
    /// arithmetic NaN payloads unspecified).
    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter()
            .map(|x| if x.is_nan() { f32::NAN.to_bits() } else { x.to_bits() })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn loops_match_the_naive_reference_bit_for_bit(
            shape in (1usize..20, 1usize..40, 1usize..6),
            seed in 0u64..1_000_000,
            edgy in prop::bool::ANY,
            batch in prop::collection::vec(0usize..9, 1..6),
        ) {
            let (mlp, data) = random_case(shape, seed, edgy);
            let (loss, grads) = mlp.loss_and_grads(&data, &batch);
            let (want_loss, want_grads) = naive::loss_and_grads(&mlp, &data, &batch);
            prop_assert_eq!(bits(&[loss]), bits(&[want_loss]));
            for (t, (g, w)) in grads.iter().zip(&want_grads).enumerate() {
                prop_assert_eq!(bits(g), bits(w), "gradient tensor {}", t);
            }
            // `argmax` orders a NaN logit by its sign bit, which Rust
            // leaves unspecified, so accuracy is compared only where every
            // logit is a number.
            let nan_logit = (0..data.len())
                .any(|i| naive::forward(&mlp, data.row(i)).1.iter().any(|l| l.is_nan()));
            if !nan_logit {
                prop_assert_eq!(
                    mlp.accuracy(&data).to_bits(),
                    naive::accuracy(&mlp, &data).to_bits()
                );
            }
            prop_assert_eq!(bits(&[mlp.loss(&data)]), bits(&[naive::loss(&mlp, &data)]));
        }
    }

    #[test]
    fn gradients_match_finite_differences() {
        let data = Dataset::blobs(8, 3, 2, 0.2, 11);
        let mlp = Mlp::new(3, 4, 2, 5);
        let batch: Vec<usize> = (0..8).collect();
        let (_, grads) = mlp.loss_and_grads(&data, &batch);
        let eps = 1e-3f32;
        // Spot-check a handful of coordinates in each tensor.
        for (ti, grad) in grads.iter().enumerate() {
            for ci in [0usize, grad.len() / 2, grad.len() - 1] {
                let mut plus = mlp.clone();
                plus.params[ti][ci] += eps;
                let mut minus = mlp.clone();
                minus.params[ti][ci] -= eps;
                let lp = {
                    let (l, _) = plus.loss_and_grads(&data, &batch);
                    l
                };
                let lm = {
                    let (l, _) = minus.loss_and_grads(&data, &batch);
                    l
                };
                let fd = (lp - lm) / (2.0 * eps);
                assert!(
                    (fd - grad[ci]).abs() < 2e-2,
                    "tensor {ti} coord {ci}: fd={fd} analytic={}",
                    grad[ci]
                );
            }
        }
    }

    #[test]
    fn single_worker_sgd_learns_blobs() {
        let data = Dataset::blobs(200, 8, 3, 0.15, 2);
        let mut mlp = Mlp::new(8, 16, 3, 3);
        let batch: Vec<usize> = (0..32).collect();
        for step in 0..300 {
            let idx: Vec<usize> = batch.iter().map(|b| (b + step * 32) % data.len()).collect();
            let (_, grads) = mlp.loss_and_grads(&data, &idx);
            mlp.apply(&grads, 0.3);
        }
        let acc = mlp.accuracy(&data);
        assert!(acc > 0.95, "accuracy {acc}");
    }

    #[test]
    fn rings_require_the_hidden_layer() {
        let data = Dataset::rings(300, 2, 2, 0.05, 4);
        let mut mlp = Mlp::new(2, 24, 2, 9);
        for step in 0..600 {
            let idx: Vec<usize> = (0..32).map(|b| (b + step * 32) % data.len()).collect();
            let (_, grads) = mlp.loss_and_grads(&data, &idx);
            mlp.apply(&grads, 0.2);
        }
        assert!(mlp.accuracy(&data) > 0.9);
    }

    #[test]
    fn tensor_metadata() {
        let mlp = Mlp::new(5, 7, 3, 0);
        assert_eq!(mlp.num_tensors(), 4);
        assert_eq!(mlp.tensor_len(0), 35);
        assert_eq!(mlp.tensor_len(1), 7);
        assert_eq!(mlp.tensor_len(2), 21);
        assert_eq!(mlp.tensor_len(3), 3);
    }
}
