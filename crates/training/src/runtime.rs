//! The fault-tolerant training runtime: checkpoint/restore, elastic
//! recovery from worker loss, and online re-planning.
//!
//! This closes the paper's decide → observe → re-plan loop. The offline
//! decision (section 4.4) arms a `DegradationMonitor` with its predicted
//! iteration time; every training step the runtime feeds the monitor the
//! iteration time *observed* under the injected [`TrainFaultPlan`]
//! (modeled as the simulator's prediction for the current strategy on the
//! current effective cluster, scaled by any active slow window — the same
//! quantity a wall clock would measure on the modeled cluster, produced
//! deterministically so every scenario is bit-reproducible). The runtime
//! reacts:
//!
//! * **Worker crash** — the rank is removed from the [`Membership`], its
//!   error-feedback residual is folded into the survivors (see
//!   `DistributedTrainer::remove_worker`), the data is re-sharded, and
//!   the strategy is re-planned against the shrunken cluster.
//! * **Worker re-join** — the rank is re-admitted to the [`Membership`],
//!   each survivor donates an equal share of its error-feedback residual
//!   to seed the returning rank (see `DistributedTrainer::insert_worker`,
//!   the exact inverse of the merge), the data is re-sharded, and the
//!   strategy is re-planned against the re-grown cluster. A re-join while
//!   the FP32 fallback is active clears the fallback immediately — the
//!   capacity increase invalidates the baseline the monitor tripped
//!   against, so waiting out `recovery_patience` would be hysteresis
//!   against a stale regime.
//! * **Fabric degradation** — the recorded `ClusterHealth` changes and
//!   triggers the same re-plan, now through the `RobustSelector`.
//! * **Sustained slowness** — a `Redecide` verdict re-plans once per
//!   monitoring regime; if divergence keeps growing to a `Fallback`
//!   verdict, the runtime swaps to BytePS-FP32 (compression off) and only
//!   returns to the configured mode after a sustained healthy streak
//!   (recovery hysteresis).
//! * **Checkpoints** — every `checkpoint_every` steps the full trainer
//!   state is persisted; `halt_at` simulates a process crash, and a
//!   subsequent run with `resume` continues from the newest intact
//!   checkpoint, bit-identically to an uninterrupted run.

use espresso::robust::MonitorVerdict;
use espresso::{DegradationMonitor, EspressoError, EvalPool, Planner, Strategy};
use espresso_adapt::RatioController;
use espresso_cluster::{ClusterError, ClusterHealth, Membership};
use espresso_gc::GcAlgorithm;
use espresso_sim::{Job, SimConfig, Simulator};

use crate::checkpoint::{CheckpointError, CheckpointStore, MonitorState, TrainerState};
use crate::data::Dataset;
use crate::distributed::{DistributedTrainer, SyncMode, TrainLog};
use crate::faults::{TrainFaultError, TrainFaultPlan};
use crate::mlp::Mlp;
use crate::optimizer::Optimizer;

/// Something the runtime observed or did, tagged with the step at which
/// it happened.
#[derive(Debug, Clone, PartialEq)]
pub enum RuntimeEvent {
    /// A resumed run picked up from a checkpoint at this step.
    Resumed {
        /// First step the resumed run executes.
        step: usize,
    },
    /// Worker `worker` (global rank) crashed and was removed.
    WorkerLost {
        /// Step at which the crash was observed.
        step: usize,
        /// Global rank of the lost worker.
        worker: usize,
    },
    /// Worker `worker` (global rank) re-joined and was re-admitted.
    WorkerRejoined {
        /// Step at which the re-join was observed.
        step: usize,
        /// Global rank of the re-joining worker.
        worker: usize,
    },
    /// The observed fabric health changed.
    HealthChanged {
        /// Step at which the change was observed.
        step: usize,
    },
    /// The strategy was re-planned online.
    Replanned {
        /// Step at which the re-plan ran.
        step: usize,
        /// Winning candidate name (`"espresso"` or a robust-selector
        /// candidate).
        chosen: String,
        /// Whether the strategy actually changed.
        changed: bool,
    },
    /// Worker `worker`'s gradient push was lost this step.
    DroppedPush {
        /// Step at which the push was lost.
        step: usize,
        /// Global rank of the sender.
        worker: usize,
    },
    /// The degradation monitor tripped; BytePS-FP32 fallback engaged.
    FallbackEngaged {
        /// Step of the trip.
        step: usize,
    },
    /// A sustained healthy streak ended the fallback.
    FallbackRecovered {
        /// Step of the recovery.
        step: usize,
    },
    /// A checkpoint was persisted covering steps `0..step`.
    Checkpointed {
        /// Next step after the checkpoint.
        step: usize,
    },
    /// The ratio controller moved at least one tensor along its grid.
    RatioAdjusted {
        /// Step at which the plan changed.
        step: usize,
        /// Lifetime total of grid moves after this adjustment.
        adjustments: u64,
    },
}

/// Why a runtime run could not proceed.
#[derive(Debug)]
pub enum RuntimeError {
    /// Checkpoint save/load failure.
    Checkpoint(CheckpointError),
    /// Strategy selection / re-planning failure.
    Espresso(EspressoError),
    /// Membership or health bookkeeping failure.
    Cluster(ClusterError),
    /// Invalid fault plan.
    Fault(TrainFaultError),
    /// The configuration (or a resumed checkpoint) is inconsistent.
    Config {
        /// What was wrong.
        message: String,
    },
}

impl std::fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RuntimeError::Checkpoint(e) => write!(f, "{e}"),
            RuntimeError::Espresso(e) => write!(f, "{e}"),
            RuntimeError::Cluster(e) => write!(f, "{e}"),
            RuntimeError::Fault(e) => write!(f, "invalid fault plan: {e}"),
            RuntimeError::Config { message } => write!(f, "invalid configuration: {message}"),
        }
    }
}

impl std::error::Error for RuntimeError {}

impl From<CheckpointError> for RuntimeError {
    fn from(e: CheckpointError) -> Self {
        RuntimeError::Checkpoint(e)
    }
}
impl From<EspressoError> for RuntimeError {
    fn from(e: EspressoError) -> Self {
        RuntimeError::Espresso(e)
    }
}
impl From<ClusterError> for RuntimeError {
    fn from(e: ClusterError) -> Self {
        RuntimeError::Cluster(e)
    }
}
impl From<TrainFaultError> for RuntimeError {
    fn from(e: TrainFaultError) -> Self {
        RuntimeError::Fault(e)
    }
}

/// Configuration of a fault-tolerant training run.
#[derive(Debug, Clone)]
pub struct RuntimeConfig {
    /// Configured number of workers (global ranks).
    pub workers: usize,
    /// Mini-batch size per worker.
    pub batch_per_worker: usize,
    /// Model input dimensionality (must match the dataset).
    pub dims: usize,
    /// Model hidden width.
    pub hidden: usize,
    /// Model output classes (must match the dataset).
    pub classes: usize,
    /// Weight-initialization seed.
    pub model_seed: u64,
    /// Optimizer for fresh runs (resumed runs restore the checkpointed
    /// optimizer, including its state).
    pub optimizer: Optimizer,
    /// Configured synchronization mode (what fallback recovery returns
    /// to).
    pub mode: SyncMode,
    /// Total training steps.
    pub steps: usize,
    /// Evaluate (and log) every this many steps.
    pub eval_every: usize,
    /// The *modeled* job the planning layer prices strategies against:
    /// its cluster is the membership template, its model profile is what
    /// the simulator times. Per DESIGN.md the substrate model and the
    /// modeled workload are decoupled; the job's cluster must have
    /// `workers` total GPUs.
    pub job: Job,
    /// Persist a checkpoint every this many steps (`None`: never).
    pub checkpoint_every: Option<usize>,
    /// Simulate a process crash after this many completed steps.
    pub halt_at: Option<usize>,
    /// Resume from the newest intact checkpoint if one exists.
    pub resume: bool,
    /// The injected failure scenario.
    pub faults: TrainFaultPlan,
    /// Consecutive healthy observations required to leave the FP32
    /// fallback.
    pub recovery_patience: usize,
    /// Layerwise ratio adaptation: when set (and the configured mode is
    /// compressed with a tunable algorithm), a [`RatioController`] walks
    /// per-tensor ratios from the observed error-feedback residuals and
    /// routes every plan change through the re-planning path.
    pub adapt: Option<espresso_adapt::ControllerConfig>,
    /// The run's thread budget: the trainer's per-worker step and the
    /// robust re-plans both use up to this many threads. Results are
    /// bit-identical for every value, so a run may resume under another.
    pub threads: usize,
}

impl RuntimeConfig {
    /// A runnable default around `job`: `workers` from the job's GPU
    /// count, SGD, compressed mode from the job's algorithm, no
    /// checkpoints, no faults.
    pub fn for_job(job: Job, dims: usize, classes: usize) -> Self {
        let workers = job.cluster.total_gpus();
        let mode = SyncMode::Compressed(job.algo);
        Self {
            workers,
            batch_per_worker: 16,
            dims,
            hidden: 24,
            classes,
            model_seed: 7,
            optimizer: Optimizer::sgd(0.25),
            mode,
            steps: 200,
            eval_every: 50,
            job,
            checkpoint_every: None,
            halt_at: None,
            resume: false,
            faults: TrainFaultPlan::nominal(),
            recovery_patience: 5,
            adapt: None,
            threads: std::thread::available_parallelism().map_or(1, usize::from),
        }
    }

    fn validate(&self) -> Result<(), RuntimeError> {
        let config_err = |message: String| RuntimeError::Config { message };
        if self.workers == 0 || self.steps == 0 || self.eval_every == 0 || self.threads == 0 {
            return Err(config_err(
                "workers, steps, eval_every, and threads must be positive".into(),
            ));
        }
        if self.job.cluster.total_gpus() != self.workers {
            return Err(config_err(format!(
                "modeled job has {} GPUs but the run has {} workers",
                self.job.cluster.total_gpus(),
                self.workers
            )));
        }
        if self.checkpoint_every == Some(0) {
            return Err(config_err("checkpoint_every must be positive".into()));
        }
        self.faults.validate(self.workers)?;
        Ok(())
    }
}

/// The report of a (possibly interrupted) run.
#[derive(Debug, Clone)]
pub struct RuntimeReport {
    /// Whether all configured steps ran (false when `halt_at` fired).
    pub completed: bool,
    /// Steps executed by *this* process (a resumed run counts only its
    /// own).
    pub steps_run: usize,
    /// Everything the runtime observed and did.
    pub events: Vec<RuntimeEvent>,
    /// Online re-plans that changed the strategy.
    pub replans: usize,
    /// Fallback engagements.
    pub fallback_trips: usize,
    /// The final trainer state (the checkpoint that *would* be written).
    pub final_state: TrainerState,
}

impl RuntimeReport {
    /// FNV-1a 64 fingerprint of the complete final state — the
    /// bitwise-resume comparator.
    pub fn state_fingerprint(&self) -> u64 {
        self.final_state.fingerprint()
    }

    /// FNV-1a 64 fingerprint of the final weights alone.
    pub fn weights_fingerprint(&self) -> u64 {
        self.final_state.weights_fingerprint()
    }

    /// Final evaluation accuracy.
    pub fn final_accuracy(&self) -> f64 {
        self.final_state.log.final_accuracy()
    }
}

/// The fault-tolerant training runtime.
pub struct TrainingRuntime {
    config: RuntimeConfig,
    store: Option<CheckpointStore>,
}

impl TrainingRuntime {
    /// A runtime without checkpointing.
    pub fn new(config: RuntimeConfig) -> Self {
        Self {
            config,
            store: None,
        }
    }

    /// Attaches a checkpoint store (required for `checkpoint_every` /
    /// `resume` to have any effect).
    #[must_use]
    pub fn with_store(mut self, store: CheckpointStore) -> Self {
        self.store = Some(store);
        self
    }

    /// Runs (or resumes) training on `data`, evaluating on `eval`.
    ///
    /// # Errors
    ///
    /// [`RuntimeError`] on invalid configuration, checkpoint corruption
    /// with no intact generation, or planning failures.
    pub fn run(&mut self, data: &Dataset, eval: &Dataset) -> Result<RuntimeReport, RuntimeError> {
        self.config.validate()?;
        let cfg = &self.config;
        let mut events: Vec<RuntimeEvent> = Vec::new();

        // ---- Restore or initialize. ----
        let restored: Option<TrainerState> = match (&self.store, cfg.resume) {
            (Some(store), true) => store.load()?,
            _ => None,
        };
        let (mut model, mut membership, mut log, start_step, monitor_state) = match &restored {
            Some(state) => {
                if (state.dims, state.hidden, state.classes) != (cfg.dims, cfg.hidden, cfg.classes)
                {
                    return Err(RuntimeError::Config {
                        message: format!(
                            "checkpoint is for a {}x{}x{} model, run is configured {}x{}x{}",
                            state.dims,
                            state.hidden,
                            state.classes,
                            cfg.dims,
                            cfg.hidden,
                            cfg.classes
                        ),
                    });
                }
                if state.membership.total() != cfg.workers {
                    return Err(RuntimeError::Config {
                        message: format!(
                            "checkpoint tracks {} ranks, run is configured for {}",
                            state.membership.total(),
                            cfg.workers
                        ),
                    });
                }
                events.push(RuntimeEvent::Resumed { step: state.step });
                (
                    state.model(),
                    state.membership.clone(),
                    state.log.clone(),
                    state.step,
                    state.monitor.clone(),
                )
            }
            None => (
                Mlp::new(cfg.dims, cfg.hidden, cfg.classes, cfg.model_seed),
                Membership::new(cfg.workers),
                TrainLog::default(),
                0,
                None,
            ),
        };
        let mut fallback_active = restored.as_ref().is_some_and(|s| s.fallback_active);
        let mut healthy_streak = restored.as_ref().map_or(0, |s| s.healthy_streak);
        let mut redecide_attempted = restored.as_ref().is_some_and(|s| s.redecide_attempted);
        let mut fallback_trips = restored.as_ref().map_or(0, |s| s.fallback_trips);
        let mut replans = restored.as_ref().map_or(0, |s| s.replans);

        // ---- Ratio adaptation. ----
        // The controller is sized to the substrate model (whose residuals
        // it actually observes); the modeled job mirrors its plan through
        // `mapped_plan`. A resumed run restores the checkpointed
        // controller so the move history replays bit-identically.
        let mut controller: Option<RatioController> = match &restored {
            Some(state) => state.controller.clone(),
            None => match (&cfg.adapt, cfg.mode) {
                (Some(c), SyncMode::Compressed(algo)) => {
                    let ctl = RatioController::new(algo, model.num_tensors(), *c);
                    ctl.can_adapt().then_some(ctl)
                }
                _ => None,
            },
        };

        let active_mode = |fallback: bool| if fallback { SyncMode::Fp32 } else { cfg.mode };
        let mut trainer = DistributedTrainer::with_optimizer(
            membership.alive_count(),
            cfg.batch_per_worker,
            restored
                .as_ref()
                .map_or_else(|| cfg.optimizer.clone(), |s| s.optimizer.clone()),
            active_mode(fallback_active),
        );
        trainer.set_threads(cfg.threads);
        match &restored {
            Some(state) => trainer.restore_ef(state.ef.clone()),
            None => trainer.begin(&model),
        }
        if let Some(ctl) = &controller {
            trainer.set_tensor_algos(Some(ctl.plan()));
        }
        let mut shards = data.shards(trainer.workers());

        // ---- Planning state. ----
        // The strategy in force is always a pure function of (membership,
        // health, fallback_active, controller plan): either the re-plan
        // for the current conditions or the FP32 fallback. That makes it
        // re-derivable on resume instead of serialized.
        let plan_job =
            |membership: &Membership, ctl: Option<&RatioController>| -> Result<Job, RuntimeError> {
                let mut nominal = membership.clone();
                nominal.set_health(ClusterHealth::nominal());
                let shrunk = nominal.effective_cluster(&cfg.job.cluster)?;
                Ok(with_plan(
                    Job::new(cfg.job.model.clone(), shrunk, cfg.job.algo),
                    ctl,
                ))
            };
        let pristine = membership.lost().is_empty() && membership.health().is_nominal();
        // The run's planner: its memo replays repeated `(job, health)`
        // inputs (health flaps, revisited ratio plans) byte-identically
        // instead of re-running the planner, and a degraded re-plan finds
        // its nominal candidate there. Rebuilt empty on resume — a memo
        // hit returns the same bytes a cold plan would, so crash/resume
        // determinism is unaffected.
        let planner = Planner::new().with_pool(EvalPool::new(cfg.threads));
        let fallback = DegradationMonitor::fallback_strategy(&cfg.job);
        let mut current: Strategy = if fallback_active {
            fallback
        } else if pristine {
            let job = with_plan(cfg.job.clone(), controller.as_ref());
            planner.replan(&job, &ClusterHealth::nominal(), &fallback)?.strategy
        } else {
            let job = plan_job(&membership, controller.as_ref())?;
            planner.replan(&job, membership.health(), &fallback)?.strategy
        };
        // Predicted iteration time of `current` on the current effective
        // cluster — the deterministic "wall clock" of the modeled run.
        let sim_time = |membership: &Membership,
                        strategy: &Strategy,
                        ctl: Option<&RatioController>|
         -> Result<f64, RuntimeError> {
            let effective = membership.effective_cluster(&cfg.job.cluster)?;
            let job = with_plan(
                Job::new(cfg.job.model.clone(), effective, cfg.job.algo),
                ctl,
            );
            Ok(Simulator::new(job, SimConfig::default()).iteration_time(strategy))
        };
        let mut predicted = sim_time(&membership, &current, controller.as_ref())?;
        let mut monitor = match &monitor_state {
            Some(m) => DegradationMonitor::restore(m.predicted, m.divergence, m.samples),
            None => DegradationMonitor::new(predicted),
        };

        // ---- The loop. ----
        let mut steps_run = 0usize;
        let mut completed = true;
        let mut final_state = None;
        for step in start_step..cfg.steps {
            // Worker crashes observed at this step.
            let mut conditions_changed = false;
            for worker in cfg.faults.crashes_at(step) {
                if !membership.is_alive(worker) || membership.alive_count() == 1 {
                    continue;
                }
                let local = membership
                    .alive()
                    .iter()
                    .position(|&a| a == worker)
                    .expect("alive rank has a local index");
                membership.lose_worker(worker)?;
                trainer.remove_worker(local);
                shards = data.shards(trainer.workers());
                events.push(RuntimeEvent::WorkerLost { step, worker });
                conditions_changed = true;
            }
            // Worker re-joins observed at this step (after crashes: a
            // rank crashing and re-joining at the same step nets lost,
            // mirroring `TrainFaultPlan::validate`'s membership walk).
            let mut capacity_grew = false;
            for worker in cfg.faults.rejoins_at(step) {
                if membership.is_alive(worker) {
                    continue;
                }
                membership.rejoin_worker(worker)?;
                let local = membership
                    .alive()
                    .iter()
                    .position(|&a| a == worker)
                    .expect("re-joined rank has a local index");
                trainer.insert_worker(local);
                shards = data.shards(trainer.workers());
                events.push(RuntimeEvent::WorkerRejoined { step, worker });
                conditions_changed = true;
                capacity_grew = true;
            }
            // Fabric health observed at this step.
            let health = cfg.faults.health_at(step);
            if health != *membership.health() {
                membership.set_health(health);
                events.push(RuntimeEvent::HealthChanged { step });
                conditions_changed = true;
            }
            if conditions_changed {
                if fallback_active && capacity_grew {
                    // A re-join grew the cluster the fallback baseline was
                    // measured on; the trip no longer describes current
                    // conditions, so recover now instead of waiting out
                    // `recovery_patience` against a stale regime.
                    fallback_active = false;
                    trainer.set_mode(cfg.mode);
                    let job = plan_job(&membership, controller.as_ref())?;
                    let r = planner.replan(&job, membership.health(), &current)?;
                    events.push(RuntimeEvent::FallbackRecovered { step });
                    if r.changed {
                        current = r.strategy;
                        replans += 1;
                    }
                    predicted = sim_time(&membership, &current, controller.as_ref())?;
                    monitor.rebase(predicted);
                } else if fallback_active {
                    // Stay in fallback, but track it under the new
                    // conditions so recovery hysteresis stays meaningful.
                    current = DegradationMonitor::fallback_strategy(&cfg.job);
                    predicted = sim_time(&membership, &current, controller.as_ref())?;
                    monitor.rebase(predicted);
                } else {
                    let job = plan_job(&membership, controller.as_ref())?;
                    let r = planner.replan(&job, membership.health(), &current)?;
                    events.push(RuntimeEvent::Replanned {
                        step,
                        chosen: r.chosen.clone(),
                        changed: r.changed,
                    });
                    if r.changed {
                        current = r.strategy;
                        replans += 1;
                    }
                    predicted = sim_time(&membership, &current, controller.as_ref())?;
                    monitor.rebase(predicted);
                }
                redecide_attempted = false;
                healthy_streak = 0;
            }

            // Dropped pushes: the sender computes and compresses (its
            // error feedback advances) but its blob never arrives.
            let alive = membership.alive();
            let dropped = cfg.faults.drops_at(step);
            let mask: Option<Vec<bool>> = {
                let mask: Vec<bool> = alive.iter().map(|w| !dropped.contains(w)).collect();
                if mask.iter().all(|&d| d) || mask.iter().all(|&d| !d) {
                    None // Nothing dropped, or nothing delivered (skip).
                } else {
                    for &worker in dropped.iter().filter(|w| alive.contains(w)) {
                        events.push(RuntimeEvent::DroppedPush { step, worker });
                    }
                    Some(mask)
                }
            };

            // The actual training step.
            let loss = trainer.step(&mut model, &shards, step, mask.as_deref());
            if (step + 1) % cfg.eval_every == 0 || step + 1 == cfg.steps {
                log.loss.push(loss);
                log.accuracy.push(model.accuracy(eval));
            }
            steps_run += 1;

            // Observe the iteration time and react.
            let observed = predicted_to_observed(predicted, cfg.faults.slow_factor(step));
            let verdict = monitor.observe(observed);
            match verdict {
                MonitorVerdict::Healthy => {
                    if fallback_active {
                        healthy_streak += 1;
                        if healthy_streak >= cfg.recovery_patience {
                            fallback_active = false;
                            trainer.set_mode(cfg.mode);
                            let job = plan_job(&membership, controller.as_ref())?;
                            let r = planner.replan(&job, membership.health(), &current)?;
                            events.push(RuntimeEvent::FallbackRecovered { step });
                            if r.changed {
                                current = r.strategy;
                                replans += 1;
                            }
                            predicted = sim_time(&membership, &current, controller.as_ref())?;
                            monitor.rebase(predicted);
                            redecide_attempted = false;
                            healthy_streak = 0;
                        }
                    }
                }
                MonitorVerdict::Redecide => {
                    healthy_streak = 0;
                    if !fallback_active && !redecide_attempted {
                        // One re-decision per monitoring regime: if
                        // conditions are unchanged it returns the same
                        // strategy, and sustained divergence escalates to
                        // the fallback instead of thrashing.
                        redecide_attempted = true;
                        let job = plan_job(&membership, controller.as_ref())?;
                        let r = planner.replan(&job, membership.health(), &current)?;
                        events.push(RuntimeEvent::Replanned {
                            step,
                            chosen: r.chosen.clone(),
                            changed: r.changed,
                        });
                        if r.changed {
                            current = r.strategy;
                            replans += 1;
                            predicted = sim_time(&membership, &current, controller.as_ref())?;
                            monitor.rebase(predicted);
                        }
                    }
                }
                MonitorVerdict::Fallback => {
                    healthy_streak = 0;
                    if !fallback_active {
                        fallback_active = true;
                        fallback_trips += 1;
                        current = DegradationMonitor::fallback_strategy(&cfg.job);
                        trainer.set_mode(SyncMode::Fp32);
                        predicted = sim_time(&membership, &current, controller.as_ref())?;
                        monitor.rebase(predicted);
                        redecide_attempted = false;
                        events.push(RuntimeEvent::FallbackEngaged { step });
                    }
                }
            }

            // Ratio adaptation: observe this round's relative residuals,
            // walk the grid, and route any plan change through the same
            // re-planning path the fault events use — the strategy stays a
            // pure function of observable state.
            let adapted = match controller.as_mut() {
                Some(ctl) if !fallback_active => {
                    let residuals = trainer.relative_residuals();
                    if ctl.observe(&residuals) {
                        trainer.set_tensor_algos(Some(ctl.plan()));
                        events.push(RuntimeEvent::RatioAdjusted {
                            step,
                            adjustments: ctl.adjustments(),
                        });
                        true
                    } else {
                        false
                    }
                }
                _ => false,
            };
            if adapted {
                let job = plan_job(&membership, controller.as_ref())?;
                let r = planner.replan(&job, membership.health(), &current)?;
                events.push(RuntimeEvent::Replanned {
                    step,
                    chosen: r.chosen.clone(),
                    changed: r.changed,
                });
                if r.changed {
                    current = r.strategy;
                    replans += 1;
                }
                predicted = sim_time(&membership, &current, controller.as_ref())?;
                monitor.rebase(predicted);
                redecide_attempted = false;
            }

            // Persist and/or halt.
            let snapshot = |step: usize| TrainerState {
                step,
                dims: cfg.dims,
                hidden: cfg.hidden,
                classes: cfg.classes,
                params: model.params().to_vec(),
                optimizer: trainer.optimizer().clone(),
                ef: trainer.ef_states().to_vec(),
                mode: cfg.mode,
                log: log.clone(),
                membership: membership.clone(),
                monitor: Some(MonitorState {
                    predicted: monitor.predicted(),
                    divergence: monitor.divergence(),
                    samples: monitor.samples(),
                }),
                fallback_active,
                healthy_streak,
                redecide_attempted,
                fallback_trips,
                replans,
                controller: controller.clone(),
            };
            // The state is built once per step that needs it: a checkpoint
            // step that is also the halt or the last step saves the same
            // state it then reports.
            let store = match (cfg.checkpoint_every, &self.store) {
                (Some(every), Some(store)) if (step + 1) % every == 0 => Some(store),
                _ => None,
            };
            let halting = cfg.halt_at == Some(step + 1) && step + 1 < cfg.steps;
            let last = step + 1 == cfg.steps;
            if store.is_none() && !halting && !last {
                continue;
            }
            let state = snapshot(step + 1);
            if let Some(store) = store {
                store.save(&state)?;
                events.push(RuntimeEvent::Checkpointed { step: step + 1 });
            }
            if halting {
                completed = false;
                return Ok(RuntimeReport {
                    completed,
                    steps_run,
                    events,
                    replans,
                    fallback_trips,
                    final_state: state,
                });
            }
            if last {
                final_state = Some(state);
            }
        }

        // A run resumed at or past its last step runs no step at all.
        let final_state = final_state.unwrap_or_else(|| TrainerState {
            step: cfg.steps,
            dims: cfg.dims,
            hidden: cfg.hidden,
            classes: cfg.classes,
            params: model.params().to_vec(),
            optimizer: trainer.optimizer().clone(),
            ef: trainer.ef_states().to_vec(),
            mode: cfg.mode,
            log: log.clone(),
            membership: membership.clone(),
            monitor: Some(MonitorState {
                predicted: monitor.predicted(),
                divergence: monitor.divergence(),
                samples: monitor.samples(),
            }),
            fallback_active,
            healthy_streak,
            redecide_attempted,
            fallback_trips,
            replans,
            controller,
        });
        Ok(RuntimeReport {
            completed,
            steps_run,
            events,
            replans,
            fallback_trips,
            final_state,
        })
    }
}

/// What the wall clock would read: the model-predicted time scaled by the
/// active slowdown. Factored out so the modeling assumption is in one
/// named place.
fn predicted_to_observed(predicted: f64, slow_factor: f64) -> f64 {
    predicted * slow_factor
}

/// Mirrors the controller's substrate-sized plan onto the modeled job's
/// tensors by proportional index — tensor `i` of the modeled job takes
/// the setting of substrate tensor `i * sub / n` (a reproduction
/// simplification: the substrate MLP stands in for the modeled model, so
/// its per-layer ratios are stretched across the modeled layer list).
/// Returns `None` when the plan's family differs from the job's algorithm
/// (e.g. the job was re-targeted), leaving the job uniform.
fn mapped_plan(ctl: &RatioController, job: &Job) -> Option<Vec<GcAlgorithm>> {
    let sub = ctl.plan();
    let n = job.num_tensors();
    if sub.is_empty() || n == 0 || !sub[0].same_family(&job.algo) {
        return None;
    }
    Some((0..n).map(|i| sub[i * sub.len() / n]).collect())
}

/// `job` carrying the controller's current plan (identity when no
/// controller is active or the plan does not apply).
fn with_plan(mut job: Job, ctl: Option<&RatioController>) -> Job {
    if let Some(plan) = ctl.and_then(|c| mapped_plan(c, &job)) {
        job.set_tensor_algos(Some(plan));
    }
    job
}

#[cfg(test)]
mod tests {
    use std::fs;

    use espresso_gc::GcAlgorithm;
    use espresso_models::Model;
    use espresso_cluster::Cluster;

    use super::*;

    fn small_config() -> RuntimeConfig {
        let job = Job::new(
            Model::Lstm.profile(),
            Cluster::pcie_25g(2, 2),
            GcAlgorithm::RandomK { density: 0.05 },
        );
        let mut cfg = RuntimeConfig::for_job(job, 6, 3);
        cfg.batch_per_worker = 8;
        cfg.hidden = 12;
        cfg.steps = 40;
        cfg.eval_every = 20;
        cfg
    }

    fn small_data() -> (Dataset, Dataset) {
        Dataset::blobs(220, 6, 3, 0.2, 11).split(0.25)
    }

    fn scratch(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("espresso-rt-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn nominal_run_completes_without_events() {
        let (data, eval) = small_data();
        let report = TrainingRuntime::new(small_config())
            .run(&data, &eval)
            .unwrap();
        assert!(report.completed);
        assert_eq!(report.steps_run, 40);
        assert!(report.events.is_empty(), "nominal run is quiet: {:?}", report.events);
        assert_eq!(report.replans, 0);
        assert_eq!(report.fallback_trips, 0);
        assert_eq!(report.final_state.log.accuracy.len(), 2);
    }

    #[test]
    fn nominal_runs_are_bit_reproducible() {
        let (data, eval) = small_data();
        let a = TrainingRuntime::new(small_config()).run(&data, &eval).unwrap();
        let b = TrainingRuntime::new(small_config()).run(&data, &eval).unwrap();
        assert_eq!(a.state_fingerprint(), b.state_fingerprint());
    }

    #[test]
    fn halt_at_reports_an_incomplete_run() {
        let (data, eval) = small_data();
        let mut cfg = small_config();
        cfg.halt_at = Some(15);
        let report = TrainingRuntime::new(cfg).run(&data, &eval).unwrap();
        assert!(!report.completed);
        assert_eq!(report.steps_run, 15);
        assert_eq!(report.final_state.step, 15);
    }

    #[test]
    fn resume_matches_the_uninterrupted_run_bitwise() {
        let (data, eval) = small_data();
        let uninterrupted = TrainingRuntime::new(small_config())
            .run(&data, &eval)
            .unwrap();

        let dir = scratch("resume");
        let mut first = small_config();
        first.checkpoint_every = Some(10);
        first.halt_at = Some(25);
        let halted = TrainingRuntime::new(first)
            .with_store(CheckpointStore::new(&dir).unwrap())
            .run(&data, &eval)
            .unwrap();
        assert!(!halted.completed);

        let mut second = small_config();
        second.resume = true;
        let resumed = TrainingRuntime::new(second)
            .with_store(CheckpointStore::new(&dir).unwrap())
            .run(&data, &eval)
            .unwrap();
        assert!(resumed.completed);
        // Resumed from step 20, so this process ran only the tail.
        assert_eq!(resumed.steps_run, 20);
        assert!(matches!(resumed.events[0], RuntimeEvent::Resumed { step: 20 }));
        assert_eq!(
            resumed.state_fingerprint(),
            uninterrupted.state_fingerprint(),
            "crash + resume must be bit-identical to the uninterrupted run"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn worker_crash_replans_and_continues() {
        let (data, eval) = small_data();
        let mut cfg = small_config();
        cfg.faults = TrainFaultPlan::parse("crash=5:1", cfg.workers, cfg.steps).unwrap();
        let report = TrainingRuntime::new(cfg).run(&data, &eval).unwrap();
        assert!(report.completed);
        assert!(report
            .events
            .iter()
            .any(|e| matches!(e, RuntimeEvent::WorkerLost { step: 5, worker: 1 })));
        assert!(report
            .events
            .iter()
            .any(|e| matches!(e, RuntimeEvent::Replanned { step: 5, .. })));
        assert_eq!(report.final_state.membership.alive_count(), 3);
    }

    #[test]
    fn worker_rejoin_replans_and_restores_capacity() {
        let (data, eval) = small_data();
        let mut cfg = small_config();
        cfg.faults = TrainFaultPlan::parse("crash=5:1,rejoin=15:1", cfg.workers, cfg.steps).unwrap();
        let report = TrainingRuntime::new(cfg).run(&data, &eval).unwrap();
        assert!(report.completed);
        assert!(report
            .events
            .iter()
            .any(|e| matches!(e, RuntimeEvent::WorkerRejoined { step: 15, worker: 1 })));
        // The re-join routes through the online re-planning path.
        assert!(report
            .events
            .iter()
            .any(|e| matches!(e, RuntimeEvent::Replanned { step: 15, .. })));
        assert_eq!(report.final_state.membership.alive_count(), 4);
        assert!(report.final_state.membership.lost().is_empty());
    }

    #[test]
    fn rejoin_and_churn_runs_are_bit_reproducible() {
        let (data, eval) = small_data();
        let spec = "crash=5:1,rejoin=12:1,crash=20:0,rejoin=28:0";
        let make = || {
            let mut cfg = small_config();
            cfg.faults = TrainFaultPlan::parse(spec, cfg.workers, cfg.steps).unwrap();
            cfg
        };
        let a = TrainingRuntime::new(make()).run(&data, &eval).unwrap();
        let b = TrainingRuntime::new(make()).run(&data, &eval).unwrap();
        assert_eq!(a.state_fingerprint(), b.state_fingerprint());
    }

    #[test]
    fn degraded_runs_are_identical_at_one_and_three_threads() {
        // Inter-link degrades route re-plans through the robust ensemble,
        // whose selections fan out across the run's threads; the crash
        // and re-join under degraded health re-plan it again on a
        // different cluster, and the dropped push masks the aggregation.
        let (data, eval) = small_data();
        let spec = "degrade=4:2.5,crash=8:1,rejoin=14:1,drop=18:2,degrade=22:3.5";
        let run = |threads: usize| {
            let mut cfg = small_config();
            cfg.faults = TrainFaultPlan::parse(spec, cfg.workers, cfg.steps).unwrap();
            cfg.threads = threads;
            TrainingRuntime::new(cfg).run(&data, &eval).unwrap()
        };
        let one = run(1);
        let robust_replans = one
            .events
            .iter()
            .filter(|e| matches!(e, RuntimeEvent::Replanned { chosen, .. } if chosen != "espresso"))
            .count();
        assert!(robust_replans >= 2, "expected robust re-plans: {:?}", one.events);
        let three = run(3);
        assert_eq!(three.events, one.events);
        assert_eq!(three.state_fingerprint(), one.state_fingerprint());
        assert_eq!(three.weights_fingerprint(), one.weights_fingerprint());
    }

    #[test]
    fn zero_threads_is_a_config_error() {
        let (data, eval) = small_data();
        let mut cfg = small_config();
        cfg.threads = 0;
        let err = TrainingRuntime::new(cfg).run(&data, &eval).unwrap_err();
        assert!(matches!(err, RuntimeError::Config { .. }), "{err}");
    }

    #[test]
    fn rejoin_clears_an_active_fallback_immediately() {
        let (data, eval) = small_data();
        let mut cfg = small_config();
        cfg.steps = 60;
        cfg.eval_every = 30;
        cfg.recovery_patience = 50; // Patience alone could never recover in time.
        cfg.faults =
            TrainFaultPlan::parse("crash=3:2,slow=8-55:4.0,rejoin=30:2", cfg.workers, cfg.steps)
                .unwrap();
        let report = TrainingRuntime::new(cfg).run(&data, &eval).unwrap();
        assert!(report.completed);
        let engaged = report
            .events
            .iter()
            .find_map(|e| match e {
                RuntimeEvent::FallbackEngaged { step } => Some(*step),
                _ => None,
            })
            .expect("fallback engages during the slow window");
        assert!(engaged < 30, "engaged at {engaged}");
        // The capacity increase clears the trip at the re-join step itself,
        // not `recovery_patience` healthy steps later.
        assert!(
            report
                .events
                .iter()
                .any(|e| matches!(e, RuntimeEvent::FallbackRecovered { step: 30 })),
            "events: {:?}",
            report.events
        );
    }

    #[test]
    fn sustained_slowdown_trips_fallback_then_recovers() {
        let (data, eval) = small_data();
        let mut cfg = small_config();
        cfg.steps = 60;
        cfg.eval_every = 30;
        cfg.recovery_patience = 4;
        cfg.faults = TrainFaultPlan::parse("slow=10-35:4.0", cfg.workers, cfg.steps).unwrap();
        let report = TrainingRuntime::new(cfg).run(&data, &eval).unwrap();
        assert!(report.completed);
        assert_eq!(report.fallback_trips, 1, "events: {:?}", report.events);
        let engaged = report
            .events
            .iter()
            .find_map(|e| match e {
                RuntimeEvent::FallbackEngaged { step } => Some(*step),
                _ => None,
            })
            .expect("fallback engages during the slow window");
        let recovered = report
            .events
            .iter()
            .find_map(|e| match e {
                RuntimeEvent::FallbackRecovered { step } => Some(*step),
                _ => None,
            })
            .expect("fallback recovers after the window ends");
        assert!((10..35).contains(&engaged), "engaged at {engaged}");
        assert!(recovered >= 35 + 3, "recovered at {recovered}");
        assert!(!report.final_state.fallback_active);
    }

    #[test]
    fn dropped_pushes_are_recorded_and_training_continues() {
        let (data, eval) = small_data();
        let mut cfg = small_config();
        cfg.faults = TrainFaultPlan::parse("drop=3:2,drop=7:0", cfg.workers, cfg.steps).unwrap();
        let report = TrainingRuntime::new(cfg).run(&data, &eval).unwrap();
        assert!(report.completed);
        let drops: Vec<_> = report
            .events
            .iter()
            .filter(|e| matches!(e, RuntimeEvent::DroppedPush { .. }))
            .collect();
        assert_eq!(drops.len(), 2);
    }

    fn adaptive_config() -> RuntimeConfig {
        let mut cfg = small_config();
        // RandomK at 5% leaves most of the gradient in the residual, so
        // relative errors sit far above the high watermark and force
        // relaxation moves within a few steps.
        cfg.adapt = Some(espresso_adapt::ControllerConfig {
            low: 0.2,
            high: 0.6,
            patience: 1,
            cooldown: 0,
        });
        cfg
    }

    #[test]
    fn adaptive_run_adjusts_ratios_through_the_replan_path() {
        let (data, eval) = small_data();
        let report = TrainingRuntime::new(adaptive_config())
            .run(&data, &eval)
            .unwrap();
        assert!(report.completed);
        let ctl = report
            .final_state
            .controller
            .as_ref()
            .expect("controller state persists in the final state");
        assert!(ctl.adjustments() >= 1, "events: {:?}", report.events);
        let adjusted = report
            .events
            .iter()
            .filter_map(|e| match e {
                RuntimeEvent::RatioAdjusted { step, .. } => Some(*step),
                _ => None,
            })
            .collect::<Vec<_>>();
        assert!(!adjusted.is_empty());
        // Every adjustment is routed through the re-planning path.
        for step in &adjusted {
            assert!(
                report
                    .events
                    .iter()
                    .any(|e| matches!(e, RuntimeEvent::Replanned { step: s, .. } if s == step)),
                "adjustment at step {step} has no matching re-plan: {:?}",
                report.events
            );
        }
        // The plan actually moved off the uniform default.
        assert!(
            ctl.plan()
                .iter()
                .any(|a| *a != GcAlgorithm::RandomK { density: 0.05 }),
            "plan: {:?}",
            ctl.plan()
        );
    }

    #[test]
    fn adaptive_runs_are_bit_reproducible() {
        let (data, eval) = small_data();
        let a = TrainingRuntime::new(adaptive_config()).run(&data, &eval).unwrap();
        let b = TrainingRuntime::new(adaptive_config()).run(&data, &eval).unwrap();
        assert_eq!(a.state_fingerprint(), b.state_fingerprint());
    }

    #[test]
    fn adaptive_resume_matches_the_uninterrupted_run_bitwise() {
        let (data, eval) = small_data();
        let uninterrupted = TrainingRuntime::new(adaptive_config())
            .run(&data, &eval)
            .unwrap();
        assert!(
            uninterrupted
                .events
                .iter()
                .any(|e| matches!(e, RuntimeEvent::RatioAdjusted { .. })),
            "the controller must be active for this test to mean anything"
        );

        let dir = scratch("adapt-resume");
        let mut first = adaptive_config();
        first.checkpoint_every = Some(10);
        first.halt_at = Some(25);
        TrainingRuntime::new(first)
            .with_store(CheckpointStore::new(&dir).unwrap())
            .run(&data, &eval)
            .unwrap();

        let mut second = adaptive_config();
        second.resume = true;
        let resumed = TrainingRuntime::new(second)
            .with_store(CheckpointStore::new(&dir).unwrap())
            .run(&data, &eval)
            .unwrap();
        assert!(resumed.completed);
        assert_eq!(
            resumed.state_fingerprint(),
            uninterrupted.state_fingerprint(),
            "crash + resume with an active controller must stay bit-identical"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn knobless_algorithms_disable_adaptation() {
        let (data, eval) = small_data();
        let mut cfg = adaptive_config();
        cfg.job.algo = GcAlgorithm::EfSignSgd;
        cfg.mode = SyncMode::Compressed(GcAlgorithm::EfSignSgd);
        let report = TrainingRuntime::new(cfg).run(&data, &eval).unwrap();
        assert!(report.completed);
        assert!(report.final_state.controller.is_none());
        assert!(!report
            .events
            .iter()
            .any(|e| matches!(e, RuntimeEvent::RatioAdjusted { .. })));
    }

    #[test]
    fn mismatched_checkpoint_shape_is_a_config_error() {
        let (data, eval) = small_data();
        let dir = scratch("shape");
        let mut first = small_config();
        first.checkpoint_every = Some(10);
        first.halt_at = Some(10);
        TrainingRuntime::new(first)
            .with_store(CheckpointStore::new(&dir).unwrap())
            .run(&data, &eval)
            .unwrap();

        let mut second = small_config();
        second.resume = true;
        second.hidden = 13; // Different model shape.
        let err = TrainingRuntime::new(second)
            .with_store(CheckpointStore::new(&dir).unwrap())
            .run(&data, &eval)
            .unwrap_err();
        assert!(matches!(err, RuntimeError::Config { .. }), "{err}");
        let _ = fs::remove_dir_all(&dir);
    }
}
