//! Data-parallel training with real compressed gradient synchronization.
//!
//! Each simulated worker holds a replica of the model and a shard of the
//! data; every step it computes gradients on its own mini-batch, pushes
//! each parameter tensor through the configured `espresso-gc` compressor
//! (with its own per-tensor error-feedback state), and all workers apply
//! the identical averaged result — synchronous data-parallel DDL's
//! invariant, executed for real.

use espresso_gc::{aggregate::synchronize_masked, Compressor, ErrorFeedback, GcAlgorithm};

use crate::{data::Dataset, mlp::Mlp, optimizer::Optimizer};

/// How gradients are synchronized each step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SyncMode {
    /// Plain FP32 averaging (the paper's FP32 baseline).
    Fp32,
    /// Compressed with error feedback.
    Compressed(GcAlgorithm),
}

impl SyncMode {
    /// Display name for logs and figures.
    pub fn name(&self) -> String {
        match self {
            SyncMode::Fp32 => "FP32".to_string(),
            SyncMode::Compressed(a) => a.name().to_string(),
        }
    }
}

/// Per-epoch training telemetry.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TrainLog {
    /// Mean training loss at each evaluation point.
    pub loss: Vec<f32>,
    /// Evaluation accuracy at each evaluation point.
    pub accuracy: Vec<f64>,
}

impl TrainLog {
    /// Final accuracy (the Figure 16 comparison point).
    pub fn final_accuracy(&self) -> f64 {
        *self.accuracy.last().expect("at least one evaluation")
    }
}

/// A synchronous data-parallel trainer.
pub struct DistributedTrainer {
    workers: usize,
    batch_per_worker: usize,
    optimizer: Optimizer,
    mode: SyncMode,
    compressor: Option<Box<dyn Compressor>>,
    ef: Vec<Vec<ErrorFeedback>>, // ef[worker][tensor]
    /// Per-tensor ratio plan: tensor `t` compresses with
    /// `tensor_algos[t]` instead of the uniform mode algorithm. Entries
    /// stay in the mode's algorithm family; the plan is inert (kept but
    /// unused) while the mode is FP32.
    tensor_algos: Option<Vec<GcAlgorithm>>,
    /// Built instances of `tensor_algos` (empty when no plan or FP32).
    tensor_compressors: Vec<Box<dyn Compressor>>,
    /// Mean (over workers) squared gradient L2 norm per tensor, from the
    /// most recent step — the denominator of the relative compression
    /// error the ratio controller observes.
    grad_norm_sq: Vec<f64>,
}

impl DistributedTrainer {
    /// Creates a trainer with `workers` replicas.
    ///
    /// # Panics
    ///
    /// Panics if `workers` or `batch_per_worker` is zero.
    pub fn new(workers: usize, batch_per_worker: usize, lr: f32, mode: SyncMode) -> Self {
        Self::with_optimizer(workers, batch_per_worker, Optimizer::sgd(lr), mode)
    }

    /// Creates a trainer with an explicit optimizer (e.g. momentum SGD,
    /// as the paper's real workloads use).
    ///
    /// # Panics
    ///
    /// Panics if `workers` or `batch_per_worker` is zero.
    pub fn with_optimizer(
        workers: usize,
        batch_per_worker: usize,
        optimizer: Optimizer,
        mode: SyncMode,
    ) -> Self {
        assert!(workers > 0, "need at least one worker");
        assert!(batch_per_worker > 0, "need a non-empty batch");
        Self {
            workers,
            batch_per_worker,
            optimizer,
            mode,
            compressor: match mode {
                SyncMode::Fp32 => None,
                SyncMode::Compressed(a) => Some(a.build()),
            },
            ef: Vec::new(),
            tensor_algos: None,
            tensor_compressors: Vec::new(),
            grad_norm_sq: Vec::new(),
        }
    }

    /// The configured synchronization mode.
    pub fn mode(&self) -> SyncMode {
        self.mode
    }

    /// Current number of (surviving) workers.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Swaps the synchronization mode mid-run (the fallback path of the
    /// fault-tolerant runtime). Error-feedback state is kept as-is: it is
    /// untouched while running FP32 and resumes accumulating when a
    /// compressed mode returns.
    pub fn set_mode(&mut self, mode: SyncMode) {
        self.mode = mode;
        self.compressor = match mode {
            SyncMode::Fp32 => None,
            SyncMode::Compressed(a) => Some(a.build()),
        };
        // Re-arm (or retire) the per-tensor ratio plan under the new
        // mode: kept dormant through FP32, rebuilt when a compressed mode
        // of the same family returns, dropped on a family change.
        self.tensor_compressors = match (&self.tensor_algos, mode) {
            (Some(algos), SyncMode::Compressed(base))
                if algos.iter().all(|a| a.same_family(&base)) =>
            {
                algos.iter().map(|a| a.build()).collect()
            }
            (Some(_), SyncMode::Compressed(_)) => {
                self.tensor_algos = None;
                Vec::new()
            }
            _ => Vec::new(),
        };
    }

    /// Installs (or clears) a per-tensor ratio plan: tensor `t` is
    /// compressed with `algos[t]` instead of the uniform mode algorithm.
    /// The plan survives FP32 fallback windows and re-arms when the
    /// compressed mode returns.
    ///
    /// # Panics
    ///
    /// Panics if the mode is compressed and any entry is a different
    /// algorithm family — a ratio plan tunes knobs, never the algorithm.
    pub fn set_tensor_algos(&mut self, algos: Option<Vec<GcAlgorithm>>) {
        if let (Some(algos), SyncMode::Compressed(base)) = (&algos, self.mode) {
            assert!(
                algos.iter().all(|a| a.same_family(&base)),
                "ratio plan entries must stay in the trainer's algorithm family"
            );
        }
        self.tensor_compressors = match (&algos, self.mode) {
            (Some(a), SyncMode::Compressed(_)) => a.iter().map(|x| x.build()).collect(),
            _ => Vec::new(),
        };
        self.tensor_algos = algos;
    }

    /// The installed per-tensor ratio plan, if any.
    pub fn tensor_algos(&self) -> Option<&[GcAlgorithm]> {
        self.tensor_algos.as_deref()
    }

    /// Per-tensor relative compression error from the most recent step:
    /// `sqrt(mean_w ‖residual_w‖² / mean_w ‖grad_w‖²)` — the
    /// error-feedback residual norm over the gradient norm, the signal a
    /// GraVAC-style ratio controller adapts on. Empty before the first
    /// step; zeros for tensors with zero gradient norm.
    pub fn relative_residuals(&self) -> Vec<f64> {
        if self.ef.is_empty() {
            return vec![0.0; self.grad_norm_sq.len()];
        }
        self.grad_norm_sq
            .iter()
            .enumerate()
            .map(|(t, &g)| {
                if g <= 0.0 {
                    return 0.0;
                }
                let res: f64 = self.ef.iter().map(|w| w[t].residual_norm_sq()).sum::<f64>()
                    / self.ef.len() as f64;
                (res / g).sqrt()
            })
            .collect()
    }

    /// Resets optimizer state and sizes the per-worker error-feedback
    /// grid for `model` — call once before a sequence of [`Self::step`]s.
    pub fn begin(&mut self, model: &Mlp) {
        self.optimizer.reset();
        self.ef = (0..self.workers)
            .map(|_| {
                (0..model.num_tensors())
                    .map(|t| ErrorFeedback::new(model.tensor_len(t)))
                    .collect()
            })
            .collect();
    }

    /// The per-worker (outer) per-tensor (inner) error-feedback grid —
    /// the export half of checkpointing. Empty before [`Self::begin`].
    pub fn ef_states(&self) -> &[Vec<ErrorFeedback>] {
        &self.ef
    }

    /// Replaces the error-feedback grid — the restore half of
    /// checkpointing. Use *instead of* [`Self::begin`] (which would zero
    /// it); the optimizer is restored separately via
    /// [`Self::set_optimizer`].
    ///
    /// # Panics
    ///
    /// Panics unless the grid has one row per worker.
    pub fn restore_ef(&mut self, ef: Vec<Vec<ErrorFeedback>>) {
        assert_eq!(ef.len(), self.workers, "one EF row per worker");
        self.ef = ef;
    }

    /// The optimizer (checkpoint export).
    pub fn optimizer(&self) -> &Optimizer {
        &self.optimizer
    }

    /// Replaces the optimizer, including its state (checkpoint restore).
    pub fn set_optimizer(&mut self, optimizer: Optimizer) {
        self.optimizer = optimizer;
    }

    /// Removes worker `w` (a local index into the current worker list),
    /// folding its untransmitted error-feedback residual into the
    /// survivors: each of the `n-1` remaining workers absorbs `1/(n-1)` of
    /// the lost residual, so the total gradient mass still owed to the
    /// model is preserved across the membership change (see
    /// `ErrorFeedback::merge_scaled`).
    ///
    /// # Panics
    ///
    /// Panics if `w` is out of range or if it is the last worker.
    pub fn remove_worker(&mut self, w: usize) {
        assert!(w < self.workers, "worker {w} out of range");
        assert!(self.workers > 1, "cannot remove the last worker");
        if !self.ef.is_empty() {
            let lost = self.ef.remove(w);
            let scale = 1.0 / (self.workers - 1) as f32;
            for row in &mut self.ef {
                for (survivor, lost_t) in row.iter_mut().zip(&lost) {
                    survivor.merge_scaled(lost_t, scale);
                }
            }
        }
        self.workers -= 1;
    }

    /// Inserts a re-joining worker at local index `w` — the inverse of
    /// [`Self::remove_worker`]: each of the `m` current workers donates a
    /// `1/(m+1)` share of its untransmitted error-feedback residual (via
    /// `ErrorFeedback::split_scaled`), and the donated shares seed the
    /// re-joining worker's fresh EF row. Total gradient mass still owed
    /// to the model is preserved through the membership change, exactly
    /// as it was on the way down; the new worker starts with the mean of
    /// what the survivors were carrying rather than an empty residual
    /// that would skew the per-worker average.
    ///
    /// Shares are computed from a pre-donation snapshot, so the result is
    /// a pure function of the EF grid — a deterministic requirement of
    /// the bitwise crash-resume guarantee.
    ///
    /// # Panics
    ///
    /// Panics if `w > workers` (the new rank may be appended but not
    /// placed past the end).
    pub fn insert_worker(&mut self, w: usize) {
        assert!(w <= self.workers, "insert index {w} out of range");
        if !self.ef.is_empty() {
            let share = 1.0 / (self.workers + 1) as f32;
            let snapshot = self.ef.clone();
            let tensors = snapshot[0].len();
            let mut row: Vec<ErrorFeedback> = (0..tensors)
                .map(|t| ErrorFeedback::new(snapshot[0][t].residual().len()))
                .collect();
            for donor in &snapshot {
                for (acc, donor_t) in row.iter_mut().zip(donor) {
                    acc.merge_scaled(donor_t, share);
                }
            }
            for (kept, donated) in self.ef.iter_mut().zip(&snapshot) {
                for (survivor, donated_t) in kept.iter_mut().zip(donated) {
                    survivor.split_scaled(donated_t, share);
                }
            }
            self.ef.insert(w, row);
        }
        self.workers += 1;
    }

    /// Runs one synchronous data-parallel step: every worker computes
    /// gradients on its shard's mini-batch, tensors are synchronized
    /// (compressed or FP32), and the averaged update is applied to
    /// `model`. Returns the mean training loss of the step.
    ///
    /// `delivered`, when given, marks which workers' gradient pushes
    /// arrived this step (a dropped push still updates the sender's
    /// error-feedback state — see `synchronize_masked`). FP32 mode
    /// averages over the delivered contributions only.
    ///
    /// # Panics
    ///
    /// Panics unless `shards` has one entry per worker (re-shard after
    /// [`Self::remove_worker`]) and [`Self::begin`] (or a restore) ran.
    pub fn step(
        &mut self,
        model: &mut Mlp,
        shards: &[Dataset],
        step: usize,
        delivered: Option<&[bool]>,
    ) -> f32 {
        assert_eq!(shards.len(), self.workers, "one shard per worker");
        assert_eq!(self.ef.len(), self.workers, "call begin() before step()");
        if let Some(algos) = &self.tensor_algos {
            assert_eq!(
                algos.len(),
                model.num_tensors(),
                "ratio plan length must match the model's tensor count"
            );
        }
        self.grad_norm_sq = vec![0.0; model.num_tensors()];
        // Each worker's gradients on its own mini-batch.
        let mut worker_grads: Vec<Vec<Vec<f32>>> = Vec::with_capacity(self.workers);
        let mut mean_loss = 0.0f32;
        for (w, shard) in shards.iter().enumerate() {
            let batch: Vec<usize> = (0..self.batch_per_worker)
                .map(|b| (step * self.batch_per_worker + b + w * 13) % shard.len())
                .collect();
            let (loss, grads) = model.loss_and_grads(shard, &batch);
            mean_loss += loss / self.workers as f32;
            worker_grads.push(grads);
        }
        // Synchronize each tensor across workers, borrowing every worker's
        // gradient in place.
        let synced: Vec<Vec<f32>> = (0..model.num_tensors())
            .map(|t| {
                let per_worker: Vec<&[f32]> =
                    worker_grads.iter().map(|g| g[t].as_slice()).collect();
                self.grad_norm_sq[t] = sum_sq_per_worker(&per_worker).iter().sum::<f64>()
                    / per_worker.len() as f64;
                match &self.compressor {
                    None => average_masked(&per_worker, delivered),
                    Some(c) => {
                        // The per-tensor ratio plan overrides the uniform
                        // compressor where installed.
                        let c = self.tensor_compressors.get(t).unwrap_or(c);
                        // Move tensor t's per-worker EF states out,
                        // synchronize, and put them back (the states
                        // live in a worker-major grid, `synchronize`
                        // wants them tensor-major).
                        let mut taken: Vec<ErrorFeedback> = self
                            .ef
                            .iter_mut()
                            .map(|w| std::mem::take(&mut w[t]))
                            .collect();
                        let out = synchronize_masked(
                            c.as_ref(),
                            &per_worker,
                            &mut taken,
                            step as u64,
                            t as u64,
                            delivered,
                        );
                        for (w, state) in taken.into_iter().enumerate() {
                            self.ef[w][t] = state;
                        }
                        out
                    }
                }
            })
            .collect();
        let deltas = self.optimizer.step(&synced);
        model.apply(&deltas, 1.0);
        mean_loss
    }

    /// Trains `model` on `data` for `steps` steps, evaluating on `eval`
    /// every `eval_every` steps.
    ///
    /// Returns the telemetry log; `model` ends in the trained state.
    pub fn train(
        &mut self,
        model: &mut Mlp,
        data: &Dataset,
        eval: &Dataset,
        steps: usize,
        eval_every: usize,
    ) -> TrainLog {
        let shards = data.shards(self.workers);
        self.begin(model);
        let mut log = TrainLog::default();
        for step in 0..steps {
            let mean_loss = self.step(model, &shards, step, None);
            if (step + 1) % eval_every == 0 || step + 1 == steps {
                log.loss.push(mean_loss);
                log.accuracy.push(model.accuracy(eval));
            }
        }
        log
    }
}

/// Each tensor's squared L2 norm as an `f64`, summed in element order.
///
/// Every tensor keeps its own sequential chain, so each sum is exactly
/// the plain left-to-right one; four tensors advance together so the
/// chains' add latencies overlap instead of serializing. Chains start at
/// `-0.0`, as `Iterator::sum` does, so even an empty tensor's sum keeps
/// its bits.
fn sum_sq_per_worker(tensors: &[&[f32]]) -> Vec<f64> {
    let sq = |v: f32| f64::from(v) * f64::from(v);
    let mut sums = Vec::with_capacity(tensors.len());
    let mut groups = tensors.chunks_exact(4);
    for group in groups.by_ref() {
        let &[a, b, c, d] = group else {
            unreachable!("chunks_exact(4) yields groups of four");
        };
        assert!(
            [b, c, d].iter().all(|g| g.len() == a.len()),
            "worker gradients differ in length"
        );
        let mut acc = [-0.0f64; 4];
        for (((&a, &b), &c), &d) in a.iter().zip(b).zip(c).zip(d) {
            acc[0] += sq(a);
            acc[1] += sq(b);
            acc[2] += sq(c);
            acc[3] += sq(d);
        }
        sums.extend(acc);
    }
    for g in groups.remainder() {
        sums.push(g.iter().fold(-0.0, |acc, &v| acc + sq(v)));
    }
    sums
}

fn average_masked(grads: &[&[f32]], delivered: Option<&[bool]>) -> Vec<f32> {
    match delivered {
        None => average(grads),
        Some(mask) => {
            assert_eq!(mask.len(), grads.len(), "one delivery flag per worker");
            let arrived: Vec<&[f32]> = grads
                .iter()
                .zip(mask)
                .filter(|(_, &d)| d)
                .map(|(&g, _)| g)
                .collect();
            assert!(!arrived.is_empty(), "every push in the round was lost");
            average(&arrived)
        }
    }
}

fn average(grads: &[&[f32]]) -> Vec<f32> {
    let mut out = vec![0.0f32; grads[0].len()];
    let inv = 1.0 / grads.len() as f32;
    for g in grads {
        for (o, &v) in out.iter_mut().zip(*g) {
            *o += v * inv;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(mode: SyncMode, steps: usize) -> f64 {
        let (data, eval) = Dataset::blobs(768, 10, 4, 0.55, 21).split(0.25);
        let mut model = Mlp::new(10, 24, 4, 7);
        let mut trainer = DistributedTrainer::new(4, 16, 0.25, mode);
        let log = trainer.train(&mut model, &data, &eval, steps, 50);
        log.final_accuracy()
    }

    #[test]
    fn fp32_distributed_training_converges() {
        assert!(run(SyncMode::Fp32, 400) > 0.93);
    }

    #[test]
    fn efsignsgd_matches_fp32_accuracy() {
        let fp32 = run(SyncMode::Fp32, 400);
        let signed = run(SyncMode::Compressed(GcAlgorithm::EfSignSgd), 400);
        assert!(
            signed > fp32 - 0.05,
            "EFSignSGD {signed} vs FP32 {fp32}"
        );
    }

    #[test]
    fn dgc_matches_fp32_accuracy() {
        let fp32 = run(SyncMode::Fp32, 600);
        let dgc = run(SyncMode::Compressed(GcAlgorithm::Dgc { density: 0.05 }), 600);
        assert!(dgc > fp32 - 0.06, "DGC {dgc} vs FP32 {fp32}");
    }

    #[test]
    fn randomk_matches_fp32_accuracy() {
        let fp32 = run(SyncMode::Fp32, 600);
        let rk = run(
            SyncMode::Compressed(GcAlgorithm::RandomK { density: 0.1 }),
            600,
        );
        assert!(rk > fp32 - 0.08, "RandomK {rk} vs FP32 {fp32}");
    }

    #[test]
    fn tensor_plan_overrides_the_uniform_compressor() {
        let (data, eval) = Dataset::blobs(400, 6, 3, 0.3, 5).split(0.25);
        let base = GcAlgorithm::Dgc { density: 0.01 };
        let run = |plan: Option<fn(usize) -> GcAlgorithm>| -> Vec<Vec<f32>> {
            let mut model = Mlp::new(6, 12, 3, 7);
            let mut trainer = DistributedTrainer::new(2, 8, 0.2, SyncMode::Compressed(base));
            trainer.begin(&model);
            if let Some(f) = plan {
                trainer.set_tensor_algos(Some((0..model.num_tensors()).map(f).collect()));
            }
            let shards = data.shards(2);
            for step in 0..5 {
                trainer.step(&mut model, &shards, step, None);
            }
            let _ = eval;
            model.params().to_vec()
        };
        let uniform = run(None);
        // An explicit all-default plan is the identity.
        let explicit = run(Some(|_| GcAlgorithm::Dgc { density: 0.01 }));
        assert_eq!(uniform, explicit, "explicit default plan must be inert");
        // A genuinely different per-tensor plan changes the trajectory.
        let adaptive = run(Some(|t| GcAlgorithm::Dgc {
            density: if t == 0 { 0.1 } else { 0.01 },
        }));
        assert_ne!(uniform, adaptive, "looser tensor 0 must change training");
    }

    #[test]
    #[should_panic(expected = "algorithm family")]
    fn cross_family_tensor_plan_is_rejected() {
        let mut trainer = DistributedTrainer::new(
            2,
            8,
            0.2,
            SyncMode::Compressed(GcAlgorithm::dgc_1pct()),
        );
        trainer.set_tensor_algos(Some(vec![GcAlgorithm::EfSignSgd; 4]));
    }

    #[test]
    fn tensor_plan_survives_an_fp32_window() {
        let base = GcAlgorithm::Dgc { density: 0.01 };
        let plan = vec![GcAlgorithm::Dgc { density: 0.05 }; 4];
        let mut trainer = DistributedTrainer::new(2, 8, 0.2, SyncMode::Compressed(base));
        trainer.set_tensor_algos(Some(plan.clone()));
        trainer.set_mode(SyncMode::Fp32);
        assert_eq!(trainer.tensor_algos(), Some(plan.as_slice()));
        trainer.set_mode(SyncMode::Compressed(base));
        assert_eq!(trainer.tensor_algos(), Some(plan.as_slice()));
        // A family change retires the plan.
        trainer.set_mode(SyncMode::Compressed(GcAlgorithm::EfSignSgd));
        assert_eq!(trainer.tensor_algos(), None);
    }

    #[test]
    fn relative_residuals_reflect_sparsification_error() {
        let (data, _) = Dataset::blobs(400, 6, 3, 0.3, 5).split(0.25);
        let mut model = Mlp::new(6, 12, 3, 7);
        let mut trainer = DistributedTrainer::new(
            2,
            8,
            0.2,
            SyncMode::Compressed(GcAlgorithm::Dgc { density: 0.01 }),
        );
        trainer.begin(&model);
        assert!(trainer.relative_residuals().is_empty(), "no step yet");
        let shards = data.shards(2);
        for step in 0..3 {
            trainer.step(&mut model, &shards, step, None);
        }
        let rel = trainer.relative_residuals();
        assert_eq!(rel.len(), model.num_tensors());
        // 1% top-k on a small MLP leaves most of the gradient behind.
        assert!(
            rel.iter().any(|&r| r > 0.5),
            "expected visible residuals, got {rel:?}"
        );
        assert!(rel.iter().all(|&r| r.is_finite()));
    }

    #[test]
    fn insert_worker_preserves_residual_mass() {
        let (data, _) = Dataset::blobs(400, 6, 3, 0.3, 5).split(0.25);
        let mut model = Mlp::new(6, 12, 3, 7);
        let mut trainer = DistributedTrainer::new(
            4,
            8,
            0.2,
            SyncMode::Compressed(GcAlgorithm::Dgc { density: 0.01 }),
        );
        trainer.begin(&model);
        let shards = data.shards(4);
        for step in 0..4 {
            trainer.step(&mut model, &shards, step, None);
        }
        let mass = |ef: &[Vec<ErrorFeedback>], t: usize| -> Vec<f64> {
            let len = ef[0][t].residual().len();
            (0..len)
                .map(|i| ef.iter().map(|w| f64::from(w[t].residual()[i])).sum())
                .collect()
        };
        let tensors = trainer.ef_states()[0].len();
        let before: Vec<Vec<f64>> = (0..tensors).map(|t| mass(trainer.ef_states(), t)).collect();

        // Shrink then grow: the round trip must conserve (to f32 rounding)
        // the summed residual per coordinate at every stage.
        trainer.remove_worker(2);
        assert_eq!(trainer.workers(), 3);
        trainer.insert_worker(2);
        assert_eq!(trainer.workers(), 4);
        assert_eq!(trainer.ef_states().len(), 4);
        for (t, want) in before.iter().enumerate() {
            let got = mass(trainer.ef_states(), t);
            for (g, w) in got.iter().zip(want) {
                assert!(
                    (g - w).abs() <= 1e-4 * (1.0 + w.abs()),
                    "tensor {t}: residual mass drifted {g} vs {w}"
                );
            }
        }
        // And the grown trainer can step again on a matching shard count.
        let shards = data.shards(4);
        trainer.step(&mut model, &shards, 4, None);
    }

    #[test]
    fn insert_worker_is_deterministic() {
        let (data, _) = Dataset::blobs(400, 6, 3, 0.3, 5).split(0.25);
        let run = || {
            let mut model = Mlp::new(6, 12, 3, 7);
            let mut trainer = DistributedTrainer::new(3, 8, 0.2, SyncMode::Compressed(GcAlgorithm::EfSignSgd));
            trainer.begin(&model);
            let shards = data.shards(3);
            for step in 0..3 {
                trainer.step(&mut model, &shards, step, None);
            }
            trainer.insert_worker(1);
            trainer
                .ef_states()
                .iter()
                .flatten()
                .flat_map(|ef| ef.residual().iter().map(|r| r.to_bits()))
                .collect::<Vec<u32>>()
        };
        assert_eq!(run(), run(), "EF split must be bit-reproducible");
    }

    #[test]
    fn interleaved_norm_chains_match_plain_sums() {
        // Every tensor count around the group size of four, lengths that
        // differ between calls, an empty tensor, and values whose squares
        // round differently depending on summation order.
        for workers in 0..10usize {
            for len in [0usize, 1, 7, 130] {
                let tensors: Vec<Vec<f32>> = (0..workers)
                    .map(|w| {
                        (0..len)
                            .map(|i| {
                                let x = ((i * 31 + w * 7) as f32 * 0.618).sin();
                                x * 10f32.powi((i % 9) as i32 - 4)
                            })
                            .collect()
                    })
                    .collect();
                let slices: Vec<&[f32]> = tensors.iter().map(Vec::as_slice).collect();
                let got: Vec<u64> =
                    sum_sq_per_worker(&slices).iter().map(|s| s.to_bits()).collect();
                let want: Vec<u64> = tensors
                    .iter()
                    .map(|g| {
                        g.iter()
                            .map(|&v| f64::from(v) * f64::from(v))
                            .sum::<f64>()
                            .to_bits()
                    })
                    .collect();
                assert_eq!(got, want, "{workers} tensors of {len}");
            }
        }
    }

    #[test]
    fn workers_stay_consistent() {
        // The synchronized update is applied identically by construction;
        // assert the trainer is deterministic end-to-end.
        let a = run(SyncMode::Compressed(GcAlgorithm::EfSignSgd), 100);
        let b = run(SyncMode::Compressed(GcAlgorithm::EfSignSgd), 100);
        assert_eq!(a, b);
    }
}

#[cfg(test)]
mod momentum_tests {
    use super::*;
    use crate::optimizer::Optimizer;

    #[test]
    fn momentum_with_compression_still_converges() {
        // DGC's momentum-correction claim at substrate scale: momentum SGD
        // with sparsified, error-fed-back gradients reaches FP32-momentum
        // accuracy.
        let (data, eval) = Dataset::blobs(768, 10, 4, 0.55, 21).split(0.25);
        let run = |mode: SyncMode| -> f64 {
            let mut model = Mlp::new(10, 24, 4, 7);
            let mut trainer = DistributedTrainer::with_optimizer(
                4,
                16,
                Optimizer::momentum(0.05, 0.9),
                mode,
            );
            trainer
                .train(&mut model, &data, &eval, 400, 100)
                .final_accuracy()
        };
        let fp32 = run(SyncMode::Fp32);
        let dgc = run(SyncMode::Compressed(GcAlgorithm::Dgc { density: 0.05 }));
        assert!(fp32 > 0.9, "momentum FP32 failed: {fp32}");
        assert!(dgc > fp32 - 0.06, "momentum DGC {dgc} vs FP32 {fp32}");
    }

    #[test]
    fn momentum_beats_plain_sgd_on_few_steps() {
        // Sanity: with a small LR budget, momentum makes faster progress.
        let (data, eval) = Dataset::rings(600, 4, 2, 0.08, 5).split(0.25);
        let run = |opt: Optimizer| -> f64 {
            let mut model = Mlp::new(4, 24, 2, 9);
            let mut trainer = DistributedTrainer::with_optimizer(4, 16, opt, SyncMode::Fp32);
            trainer
                .train(&mut model, &data, &eval, 150, 150)
                .final_accuracy()
        };
        let plain = run(Optimizer::sgd(0.02));
        let momentum = run(Optimizer::momentum(0.02, 0.9));
        assert!(
            momentum >= plain - 1e-9,
            "momentum {momentum} vs plain {plain}"
        );
    }
}
