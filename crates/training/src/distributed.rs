//! Data-parallel training with real compressed gradient synchronization.
//!
//! Each simulated worker holds a replica of the model and a shard of the
//! data; every step it computes gradients on its own mini-batch, pushes
//! each parameter tensor through the configured `espresso-gc` compressor
//! (with its own per-tensor error-feedback state), and all workers apply
//! the identical averaged result — synchronous data-parallel DDL's
//! invariant, executed for real.
//!
//! The per-worker half of a step (gradients, norms, compression with the
//! worker's own error feedback) runs on scoped threads, up to the budget
//! of [`DistributedTrainer::set_threads`]; the result is bit-identical
//! for any thread count (see [`DistributedTrainer::step`] and DESIGN.md).

use espresso_gc::{
    aggregate::Average, CompressCtx, CompressedTensor, Compressor, ErrorFeedback, GcAlgorithm,
};

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
    /// Threads the per-worker half of a step may use.
    threads: usize,
    /// One gradient buffer per thread, reused across that thread's
    /// workers and across steps.
    scratch: Vec<Vec<Vec<f32>>>,
    /// The synchronized gradient, one buffer per tensor, reused across
    /// steps.
    synced: Vec<Vec<f32>>,
}

/// What one worker's half of a step hands to the aggregation.
struct WorkerOut {
    loss: f32,
    /// Squared L2 norm of each gradient tensor.
    norm_sq: Vec<f64>,
    /// Compressed mode: each tensor's part, compressed with the worker's
    /// own error feedback. Empty in FP32 mode.
    parts: Vec<CompressedTensor>,
    /// FP32 mode: the raw gradients. Empty in compressed mode.
    grads: Vec<Vec<f32>>,
}

/// A contiguous run of workers, `first..first + shards.len()`, with their
/// error-feedback rows and the gradient buffer they take turns using.
struct Chunk<'a> {
    first: usize,
    shards: &'a [Dataset],
    ef: &'a mut [Vec<ErrorFeedback>],
    grads: &'a mut Vec<Vec<f32>>,
}

/// The uniform compressor and the per-tensor ratio plan overriding it.
type Compressors<'a> = (&'a dyn Compressor, &'a [Box<dyn Compressor>]);

/// The read-only inputs every worker of a step shares.
#[derive(Clone, Copy)]
struct WorkerStep<'a> {
    model: &'a Mlp,
    /// `None` in FP32 mode.
    compressors: Option<Compressors<'a>>,
    step: usize,
    batch_per_worker: usize,
}

impl WorkerStep<'_> {
    /// The worker half of a step for every worker of `chunk`, in worker
    /// order, handing each result to `emit` as soon as it is ready. The
    /// workers reuse the chunk's gradient buffer in turn (FP32 mode hands
    /// the gradients on, so it allocates afresh).
    fn run(self, chunk: Chunk<'_>, mut emit: impl FnMut(WorkerOut)) {
        let mut batch = vec![0usize; self.batch_per_worker];
        for (i, (shard, ef)) in chunk.shards.iter().zip(chunk.ef).enumerate() {
            let w = chunk.first + i;
            for (b, slot) in batch.iter_mut().enumerate() {
                *slot = (self.step * self.batch_per_worker + b + w * 13) % shard.len();
            }
            let grads = &mut *chunk.grads;
            let loss = self.model.loss_and_grads_into(shard, &batch, grads);
            let norm_sq = norms_sq(grads);
            emit(match self.compressors {
                None => WorkerOut {
                    loss,
                    norm_sq,
                    parts: Vec::new(),
                    grads: std::mem::take(grads),
                },
                Some((uniform, per_tensor)) => WorkerOut {
                    loss,
                    norm_sq,
                    parts: ef
                        .iter_mut()
                        .zip(grads.iter())
                        .enumerate()
                        .map(|(t, (ef, g))| {
                            let c = per_tensor.get(t).map_or(uniform, |c| c.as_ref());
                            let ctx = CompressCtx {
                                round: self.step as u64,
                                worker: w as u64,
                                tensor: t as u64,
                            };
                            ef.compress_with_feedback(c, g, ctx)
                        })
                        .collect(),
                    grads: Vec::new(),
                },
            });
        }
    }

    /// [`WorkerStep::run`], keeping the results.
    fn collect(self, chunk: Chunk<'_>) -> Vec<WorkerOut> {
        let mut outs = Vec::with_capacity(chunk.shards.len());
        self.run(chunk, |out| outs.push(out));
        outs
    }
}

/// The step's sums — mean loss, per-tensor norms and the synchronized
/// gradient — folded from the workers' results strictly in worker order,
/// on whichever thread holds it.
struct Reduce<'a> {
    workers: usize,
    delivered: Option<&'a [bool]>,
    /// The worker whose result comes next.
    next: usize,
    loss: f32,
    norm_sq: Vec<f64>,
    sums: Sums<'a>,
}

enum Sums<'a> {
    /// One running average per tensor, with the tensor's compressor.
    Compressed(Vec<(Average<'a>, &'a dyn Compressor)>),
    /// FP32: each delivered gradient scaled by `inv` and added.
    Dense { out: &'a mut [Vec<f32>], inv: f32 },
}

impl Reduce<'_> {
    fn add(&mut self, out: WorkerOut) {
        let w = self.next;
        self.next += 1;
        self.loss += out.loss / self.workers as f32;
        for (acc, n) in self.norm_sq.iter_mut().zip(&out.norm_sq) {
            *acc += n;
        }
        if !self.delivered.is_none_or(|mask| mask[w]) {
            return;
        }
        match &mut self.sums {
            Sums::Compressed(averages) => {
                for ((average, c), part) in averages.iter_mut().zip(&out.parts) {
                    average.add(*c, part);
                }
            }
            Sums::Dense { out: sums, inv } => {
                for (sum, g) in sums.iter_mut().zip(&out.grads) {
                    for (o, &v) in sum.iter_mut().zip(g) {
                        *o += v * *inv;
                    }
                }
            }
        }
    }

    /// The mean loss and the mean per-tensor squared norms; the
    /// synchronized gradient is left in the buffers.
    fn finish(self) -> (f32, Vec<f64>) {
        if let Sums::Compressed(averages) = self.sums {
            averages.into_iter().for_each(|(average, _)| average.finish());
        }
        let n = self.workers as f64;
        (self.loss, self.norm_sq.into_iter().map(|s| s / n).collect())
    }
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
            threads: 1,
            scratch: Vec::new(),
            synced: Vec::new(),
        }
    }

    /// Sets how many threads the per-worker half of a step may use
    /// (clamped to at least 1; 1, the default, runs on the caller's
    /// thread). Training is bit-identical for every value.
    pub fn set_threads(&mut self, threads: usize) {
        self.threads = threads.max(1);
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
    /// Shares are computed from the pre-donation residuals (the new row
    /// is built before any survivor shrinks), so the result is a pure
    /// function of the EF grid — a deterministic requirement of the
    /// bitwise crash-resume guarantee.
    ///
    /// # Panics
    ///
    /// Panics if `w > workers` (the new rank may be appended but not
    /// placed past the end).
    pub fn insert_worker(&mut self, w: usize) {
        assert!(w <= self.workers, "insert index {w} out of range");
        if !self.ef.is_empty() {
            let share = 1.0 / (self.workers + 1) as f32;
            let mut row: Vec<ErrorFeedback> = self.ef[0]
                .iter()
                .map(|t| ErrorFeedback::new(t.residual().len()))
                .collect();
            for donor in &self.ef {
                for (acc, donor_t) in row.iter_mut().zip(donor) {
                    acc.merge_scaled(donor_t, share);
                }
            }
            for survivor in self.ef.iter_mut().flatten() {
                survivor.split_own(share);
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
    /// error-feedback state, as in `synchronize_masked`). The average is
    /// taken over the delivered contributions only.
    ///
    /// Each worker's half — its batch, gradients, per-tensor norms and
    /// compression with its own error feedback — runs on one of up to
    /// [`Self::set_threads`] scoped threads, workers assigned in fixed
    /// contiguous chunks. The results are folded into the losses, norms
    /// and per-tensor aggregates strictly in worker order: the first
    /// chunk's thread starts the fold, the calling thread finishes it.
    /// Every float operation and its order is the same for any thread
    /// count, so the step is too, bit for bit.
    ///
    /// # Panics
    ///
    /// Panics unless `shards` has one entry per worker (re-shard after
    /// [`Self::remove_worker`]) and [`Self::begin`] (or a restore) ran,
    /// or if `delivered` has the wrong length or delivers nothing.
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
        if let Some(mask) = delivered {
            assert_eq!(mask.len(), self.workers, "one delivery flag per worker");
            assert!(mask.iter().any(|&d| d), "every push in the round was lost");
        }

        // Size the reused buffers here, so the threads allocate none.
        let tensors = model.num_tensors();
        let threads = self.threads.min(self.workers);
        self.scratch.resize_with(threads, Vec::new);
        self.synced.resize_with(tensors, Vec::new);
        for grads in self.scratch.iter_mut().chain([&mut self.synced]) {
            grads.resize_with(tensors, Vec::new);
            for (t, g) in grads.iter_mut().enumerate() {
                g.resize(model.tensor_len(t), 0.0);
            }
        }
        let compressors = self
            .compressor
            .as_deref()
            .map(|c| (c, self.tensor_compressors.as_slice()));
        let reduce = Reduce {
            workers: self.workers,
            delivered,
            next: 0,
            loss: 0.0,
            // Sums start at -0.0, as `Iterator::sum` does.
            norm_sq: vec![-0.0; tensors],
            sums: match compressors {
                Some((uniform, per_tensor)) => Sums::Compressed(
                    self.synced
                        .iter_mut()
                        .enumerate()
                        .map(|(t, out)| {
                            // The per-tensor ratio plan overrides the
                            // uniform compressor where installed.
                            let c = per_tensor.get(t).map_or(uniform, |c| c.as_ref());
                            (Average::new(out), c)
                        })
                        .collect(),
                ),
                None => {
                    self.synced.iter_mut().for_each(|out| out.fill(0.0));
                    let arrived =
                        delivered.map_or(self.workers, |m| m.iter().filter(|&&d| d).count());
                    Sums::Dense {
                        out: &mut self.synced,
                        inv: 1.0 / arrived as f32,
                    }
                }
            },
        };
        let shared = WorkerStep {
            model,
            compressors,
            step,
            batch_per_worker: self.batch_per_worker,
        };
        // Chunk i holds workers i*W/T .. (i+1)*W/T: contiguous, in order,
        // sizes within one of each other.
        let bound = |i: usize| i * self.workers / threads;
        let mut ef = &mut self.ef[..];
        let mut chunks: Vec<Chunk> = self
            .scratch
            .iter_mut()
            .enumerate()
            .map(|(i, grads)| {
                let (first, end) = (bound(i), bound(i + 1));
                let (head, tail) = std::mem::take(&mut ef).split_at_mut(end - first);
                ef = tail;
                Chunk {
                    first,
                    shards: &shards[first..end],
                    ef: head,
                    grads,
                }
            })
            .collect();

        // The worker half, one thread per chunk. The first chunk folds
        // each result into the sums as soon as it is ready, so its thread
        // holds one worker's parts at a time; the others keep theirs for
        // this thread to fold, in worker order, once the first is done.
        // The last chunk runs on this thread.
        let last = if chunks.len() > 1 { chunks.pop() } else { None };
        let mut chunks = chunks.into_iter();
        let lead = chunks.next().expect("at least one worker");
        let lead = move || {
            let mut reduce = reduce;
            shared.run(lead, |out| reduce.add(out));
            reduce
        };
        let (mean_loss, grad_norm_sq) = match last {
            None => lead().finish(),
            Some(last) => std::thread::scope(|s| {
                let lead = s.spawn(lead);
                let middle: Vec<_> = chunks
                    .map(|chunk| s.spawn(move || shared.collect(chunk)))
                    .collect();
                let last = shared.collect(last);
                let mut reduce = join(lead);
                for outs in middle.into_iter().map(join).chain([last]) {
                    outs.into_iter().for_each(|out| reduce.add(out));
                }
                reduce.finish()
            }),
        };
        self.grad_norm_sq = grad_norm_sq;
        let deltas = self.optimizer.step(&self.synced);
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

/// Squared L2 norm of each tensor as an `f64`, each summed in element
/// order from `-0.0`, as `Iterator::sum` starts, so even an empty
/// tensor's sum keeps its bits. Tensors go in groups of four whose chains
/// advance side by side over their common length, so the chains' add
/// latencies overlap; each then finishes its own tail.
fn norms_sq(tensors: &[Vec<f32>]) -> Vec<f64> {
    let sq = |v: f32| f64::from(v) * f64::from(v);
    let mut sums = Vec::with_capacity(tensors.len());
    let mut groups = tensors.chunks_exact(4);
    for group in groups.by_ref() {
        let [a, b, c, d] = group else {
            unreachable!("chunks_exact(4) yields groups of four");
        };
        let mut acc = [-0.0f64; 4];
        for (((&a, &b), &c), &d) in a.iter().zip(b).zip(c).zip(d) {
            acc[0] += sq(a);
            acc[1] += sq(b);
            acc[2] += sq(c);
            acc[3] += sq(d);
        }
        let common = a.len().min(b.len()).min(c.len()).min(d.len());
        for (acc, g) in acc.iter_mut().zip(group) {
            *acc = g[common..].iter().fold(*acc, |s, &v| s + sq(v));
        }
        sums.extend(acc);
    }
    for g in groups.remainder() {
        sums.push(g.iter().fold(-0.0, |s, &v| s + sq(v)));
    }
    sums
}

/// Joins a scoped worker thread, re-raising its panic here.
fn join<T>(handle: std::thread::ScopedJoinHandle<'_, T>) -> T {
    handle
        .join()
        .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
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

    /// Reference `insert_worker`: shares from a snapshot of the whole
    /// grid, survivors split against the snapshot.
    fn insert_worker_from_snapshot(ef: &mut Vec<Vec<ErrorFeedback>>, w: usize) {
        let share = 1.0 / (ef.len() + 1) as f32;
        let snapshot = ef.clone();
        let mut row: Vec<ErrorFeedback> = snapshot[0]
            .iter()
            .map(|t| ErrorFeedback::new(t.residual().len()))
            .collect();
        for donor in &snapshot {
            for (acc, donor_t) in row.iter_mut().zip(donor) {
                acc.merge_scaled(donor_t, share);
            }
        }
        for (kept, donated) in ef.iter_mut().zip(&snapshot) {
            for (survivor, donated_t) in kept.iter_mut().zip(donated) {
                survivor.split_scaled(donated_t, share);
            }
        }
        ef.insert(w, row);
    }

    fn ef_bits(ef: &[Vec<ErrorFeedback>]) -> Vec<u32> {
        ef.iter()
            .flatten()
            .flat_map(|e| e.residual().iter().map(|r| r.to_bits()))
            .collect()
    }

    #[test]
    fn in_place_insert_matches_the_snapshot_version_bit_for_bit() {
        let (data, _) = Dataset::blobs(400, 6, 3, 0.3, 5).split(0.25);
        for workers in [1usize, 2, 3, 5, 8] {
            let mut model = Mlp::new(6, 12, 3, 7);
            let mut trainer = DistributedTrainer::new(
                workers,
                8,
                0.2,
                SyncMode::Compressed(GcAlgorithm::Dgc { density: 0.1 }),
            );
            trainer.begin(&model);
            let shards = data.shards(workers);
            for step in 0..3 {
                trainer.step(&mut model, &shards, step, None);
            }
            for at in [0, workers / 2, workers] {
                let mut want = trainer.ef_states().to_vec();
                insert_worker_from_snapshot(&mut want, at);
                let mut grown = DistributedTrainer::new(
                    workers,
                    8,
                    0.2,
                    SyncMode::Compressed(GcAlgorithm::Dgc { density: 0.1 }),
                );
                grown.restore_ef(trainer.ef_states().to_vec());
                grown.insert_worker(at);
                assert_eq!(
                    ef_bits(grown.ef_states()),
                    ef_bits(&want),
                    "{workers} workers, insert at {at}"
                );
            }
        }
    }

    #[test]
    fn steps_are_bit_identical_for_any_thread_count() {
        let (data, _) = Dataset::blobs(400, 6, 3, 0.3, 5).split(0.25);
        let modes = [
            SyncMode::Fp32,
            SyncMode::Compressed(GcAlgorithm::Dgc { density: 0.1 }),
            SyncMode::Compressed(GcAlgorithm::EfSignSgd),
            SyncMode::Compressed(GcAlgorithm::Fp16),
        ];
        for mode in modes {
            let run = |threads: usize| {
                let mut model = Mlp::new(6, 12, 3, 7);
                let mut trainer = DistributedTrainer::new(5, 8, 0.2, mode);
                trainer.set_threads(threads);
                trainer.begin(&model);
                let shards = data.shards(5);
                let mut losses = Vec::new();
                for step in 0..4 {
                    let mask = [true, step != 2, true, true, step != 1];
                    losses.push(trainer.step(&mut model, &shards, step, Some(&mask)).to_bits());
                }
                let params: Vec<u32> =
                    model.params().iter().flatten().map(|p| p.to_bits()).collect();
                let norms: Vec<u64> = trainer.grad_norm_sq.iter().map(|n| n.to_bits()).collect();
                (losses, params, norms, ef_bits(trainer.ef_states()))
            };
            let one = run(1);
            for threads in [2, 3, 8] {
                assert!(run(threads) == one, "{} at {threads} threads", mode.name());
            }
        }
    }

    #[test]
    fn interleaved_norm_chains_match_plain_sums() {
        // Tensor counts around the group size of four, lengths that
        // differ within a group (including empty tensors), and values
        // whose squares round differently depending on summation order.
        let lens = [0usize, 1, 7, 130, 3, 0, 64, 1000, 2];
        for count in 0..lens.len() {
            for shift in 0..lens.len() {
                let tensors: Vec<Vec<f32>> = (0..count)
                    .map(|t| {
                        (0..lens[(t + shift) % lens.len()])
                            .map(|i| {
                                let x = ((i * 31 + t * 7) as f32 * 0.618).sin();
                                x * 10f32.powi((i % 9) as i32 - 4)
                            })
                            .collect()
                    })
                    .collect();
                let got: Vec<u64> = norms_sq(&tensors).iter().map(|s| s.to_bits()).collect();
                let want: Vec<u64> = tensors
                    .iter()
                    .map(|g| {
                        g.iter()
                            .map(|&v| f64::from(v) * f64::from(v))
                            .sum::<f64>()
                            .to_bits()
                    })
                    .collect();
                assert_eq!(got, want, "{count} tensors, shift {shift}");
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
