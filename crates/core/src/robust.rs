//! Robust strategy selection and graceful degradation.
//!
//! Espresso's decision algorithm optimizes against an *empirical* model:
//! compute times are trace averages (section 4.3, normalized std < 5%)
//! and link costs are calibrated α/β fits. Both drift in production —
//! measurement noise, stragglers, degraded links. This module hardens the
//! selection against that drift:
//!
//! * [`NoiseEnvelope`] — describes how far the empirical model may be off
//!   (compute-time noise at the trace std) and seeds a deterministic
//!   ensemble of perturbed model profiles,
//! * [`RobustSelector`] — evaluates candidate strategies (the nominal
//!   Espresso selection, per-scenario selections, and all baselines)
//!   across the ensemble under the observed [`ClusterHealth`], then picks
//!   by *worst-case-bounded mean*: among candidates whose worst ensemble
//!   time is within a slack factor of the best achievable worst case,
//!   take the one with the lowest mean,
//! * [`DegradationMonitor`] — compares observed iteration times against
//!   the selection's prediction and escalates: small divergence is
//!   healthy, sustained divergence recommends a re-decision, severe
//!   divergence recommends falling back to the always-safe BytePS-FP32
//!   strategy ([`DegradationMonitor::fallback_strategy`]).

use std::sync::Arc;

use espresso_cluster::ClusterHealth;
use espresso_models::{ModelProfile, TraceCollector};
use espresso_sim::{BlockTable, FaultPlan, Job, SimConfig, Simulator};
use espresso_strategy::Strategy;

use crate::baselines::{self, Baseline};
use crate::error::EspressoError;
use crate::espresso::{Espresso, PlannerMode};
use crate::parallel::EvalPool;

/// How far the empirical model may be off, and how many perturbed
/// scenarios to draw from that envelope.
///
/// The default matches the paper's section 4.3 measurement pipeline: the
/// trace collector injects 3% relative Gaussian noise and observes a
/// normalized std below 5%, so a *single* trace draw at 3% noise is a
/// plausible alternative empirical model.
#[derive(Debug, Clone, PartialEq)]
pub struct NoiseEnvelope {
    /// Relative std of per-tensor compute-time noise (0.03 = 3%).
    pub compute_std: f64,
    /// Number of perturbed scenarios in the ensemble.
    pub scenarios: usize,
    /// Base seed; scenario `s` uses `seed + s`.
    pub seed: u64,
}

impl Default for NoiseEnvelope {
    fn default() -> Self {
        Self {
            compute_std: 0.03,
            scenarios: 5,
            seed: 0xE5B0,
        }
    }
}

impl NoiseEnvelope {
    /// Checks the envelope is usable.
    ///
    /// # Errors
    ///
    /// [`EspressoError::Config`] if `scenarios` is zero or `compute_std`
    /// is outside `[0, 0.5)` (the trace collector's own validity range).
    pub fn validate(&self) -> Result<(), EspressoError> {
        if self.scenarios == 0 {
            return Err(EspressoError::config(
                "robust.scenarios",
                "need at least one scenario",
            ));
        }
        if !(0.0..0.5).contains(&self.compute_std) {
            return Err(EspressoError::config(
                "robust.compute_std",
                format!("must be in [0, 0.5), got {}", self.compute_std),
            ));
        }
        Ok(())
    }

    /// Draws the deterministic ensemble of perturbed profiles: each
    /// scenario is a one-iteration trace collection (a single noisy
    /// measurement rather than a 100-iteration average), i.e. an
    /// empirical model as far off as one real trace could be.
    pub fn perturbed_profiles(&self, model: &ModelProfile) -> Vec<ModelProfile> {
        (0..self.scenarios)
            .map(|s| {
                TraceCollector::new(1, self.compute_std, self.seed.wrapping_add(s as u64))
                    .measured_profile(model)
            })
            .collect()
    }
}

/// Score of one candidate strategy across the ensemble.
#[derive(Debug, Clone)]
pub struct CandidateScore {
    /// Where the candidate came from (e.g. `"nominal-espresso"`,
    /// `"scenario-2-espresso"`, `"BytePS-FP32"`).
    pub name: String,
    /// Mean iteration time across scenarios.
    pub mean: f64,
    /// Worst iteration time across scenarios.
    pub worst: f64,
    /// Whether the candidate passed the worst-case bound.
    pub admitted: bool,
}

/// The outcome of a robust selection.
#[derive(Debug, Clone)]
pub struct RobustSelection {
    /// The selected strategy.
    pub strategy: Strategy,
    /// Name of the winning candidate (see [`CandidateScore::name`]).
    pub chosen: String,
    /// Its mean iteration time across the ensemble — the prediction the
    /// [`DegradationMonitor`] should be armed with.
    pub mean_time: f64,
    /// Its worst iteration time across the ensemble.
    pub worst_time: f64,
    /// Ensemble size the scores were computed over.
    pub scenarios: usize,
    /// Every candidate's score, in evaluation order.
    pub candidates: Vec<CandidateScore>,
}

/// Ensemble-based robust strategy selector.
///
/// # Examples
///
/// ```
/// use espresso::robust::RobustSelector;
/// use espresso_cluster::{Cluster, ClusterHealth};
/// use espresso_gc::GcAlgorithm;
/// use espresso_models::Model;
/// use espresso_sim::Job;
///
/// let job = Job::new(
///     Model::Lstm.profile(),
///     Cluster::pcie_25g(2, 4),
///     GcAlgorithm::EfSignSgd,
/// );
/// let selection = RobustSelector::new(job, ClusterHealth::inter_degraded(2.0))
///     .select()
///     .unwrap();
/// assert!(selection.mean_time > 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct RobustSelector {
    job: Job,
    health: ClusterHealth,
    envelope: NoiseEnvelope,
    config: SimConfig,
    faults: Option<FaultPlan>,
    /// Worst-case slack: candidates whose worst ensemble time exceeds
    /// `best_worst * worst_case_slack` are rejected before the mean
    /// comparison. 1.0 selects purely minimax; large values select purely
    /// by mean.
    pub worst_case_slack: f64,
}

impl RobustSelector {
    /// Builds a selector for `job` under the observed `health`.
    pub fn new(job: Job, health: ClusterHealth) -> Self {
        Self {
            job,
            health,
            envelope: NoiseEnvelope::default(),
            config: SimConfig::default(),
            faults: None,
            worst_case_slack: 1.10,
        }
    }

    /// Overrides the noise envelope.
    #[must_use]
    pub fn with_envelope(mut self, envelope: NoiseEnvelope) -> Self {
        self.envelope = envelope;
        self
    }

    /// Overrides the simulator configuration.
    #[must_use]
    pub fn with_config(mut self, config: SimConfig) -> Self {
        self.config = config;
        self
    }

    /// Additionally evaluates every scenario under an injected fault plan
    /// (stragglers, link faults, CPU contention — see
    /// [`espresso_sim::FaultPlan`]).
    #[must_use]
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = Some(faults);
        self
    }

    /// Runs the robust selection.
    ///
    /// Candidate strategies are gathered from three sources:
    ///
    /// 1. the *stale* nominal Espresso selection (optimized for the
    ///    healthy cluster and the mean empirical model),
    /// 2. an Espresso selection per degraded scenario (mean model on the
    ///    degraded cluster, plus one per perturbed profile),
    /// 3. every [`Baseline`] strategy.
    ///
    /// Each candidate is priced on every ensemble member; the winner is
    /// the lowest-mean candidate among those whose worst case is within
    /// [`RobustSelector::worst_case_slack`] of the best achievable worst
    /// case.
    ///
    /// # Errors
    ///
    /// [`EspressoError::Cluster`] if the health state cannot be applied
    /// to the topology (e.g. a down inter link on a multi-machine job),
    /// [`EspressoError::Config`] for an invalid envelope, and
    /// [`EspressoError::Fault`] for an invalid fault plan.
    pub fn select(&self) -> Result<RobustSelection, EspressoError> {
        self.select_with(PlannerMode::Fast, &EvalPool::from_env())
    }

    /// As [`RobustSelector::select`] with an explicit planner mode and
    /// evaluation pool. The candidate-generation selections (nominal,
    /// degraded and one per scenario) are independent tasks fanned out
    /// across the pool's threads, each run serially on the chosen planner
    /// path and merged back by index; the candidate-times-ensemble pricing
    /// matrix then fans out across the pool as self-contained evaluation
    /// units merged back in canonical (candidate-major) order. Both
    /// merges are by index and a selection runs serially, so the
    /// selection is bit-identical for any worker count.
    pub fn select_with(
        &self,
        mode: PlannerMode,
        pool: &EvalPool,
    ) -> Result<RobustSelection, EspressoError> {
        self.select_sharing(mode, pool, None)
            .map(|(selection, _)| selection)
    }

    /// As [`RobustSelector::select`], with the `nominal-espresso`
    /// candidate supplied by a caller that already holds the Espresso
    /// selection for this selector's job and configuration. The planner
    /// is a pure function of those inputs (and bit-identical across
    /// planner modes), so the result is byte-identical to recomputing
    /// it.
    pub(crate) fn select_seeded(
        &self,
        pool: &EvalPool,
        nominal: Option<Strategy>,
    ) -> Result<RobustSelection, EspressoError> {
        self.select_sharing(PlannerMode::Fast, pool, nominal)
            .map(|(selection, _)| selection)
    }

    /// The selection, and the block table its degraded-cluster
    /// simulators shared. The degraded selection, the scenario
    /// selections and the pricing jobs all run on the degraded cluster
    /// and differ only in compute times, which no block reads, so each
    /// distinct block of the request compiles once, whichever selection
    /// asks for it first.
    fn select_sharing(
        &self,
        mode: PlannerMode,
        pool: &EvalPool,
        nominal: Option<Strategy>,
    ) -> Result<(RobustSelection, Arc<BlockTable>), EspressoError> {
        self.envelope.validate()?;
        if let Some(plan) = &self.faults {
            plan.validate()
                .map_err(|e| EspressoError::Fault { message: e.message })?;
        }
        let degraded_cluster = self.job.cluster.effective(&self.health)?;
        let degraded_job = Job::new(
            self.job.model.clone(),
            degraded_cluster,
            self.job.algo,
        );
        let ensemble: Vec<Job> = self
            .envelope
            .perturbed_profiles(&self.job.model)
            .into_iter()
            .map(|profile| Job::new(profile, degraded_cluster, self.job.algo))
            .collect();

        let names = ["nominal-espresso".to_string(), "degraded-espresso".to_string()]
            .into_iter()
            .chain((0..ensemble.len()).map(|s| format!("scenario-{s}-espresso")));
        let jobs: Vec<Job> = nominal
            .is_none()
            .then(|| self.job.clone())
            .into_iter()
            .chain([degraded_job])
            .chain(ensemble.iter().cloned())
            .collect();
        let table = Arc::new(BlockTable::new(degraded_cluster, self.config));
        let simulator = |job: &Job| {
            if job.cluster == degraded_cluster {
                Simulator::with_block_table(job.clone(), self.config, table.clone())
            } else {
                Simulator::new(job.clone(), self.config)
            }
        };
        let mut selections = pool.map(jobs, |job| {
            let sim = simulator(&job);
            Espresso::new(job)
                .with_config(self.config)
                .select_strategy_on(&sim, mode)
                .0
        });
        if let Some(nominal) = nominal {
            selections.insert(0, nominal);
        }
        let mut candidates: Vec<(String, Strategy)> = names.zip(selections).collect();
        for b in Baseline::ALL {
            candidates.push((b.name().to_string(), b.strategy(&self.job)));
        }

        // Price every distinct candidate on every ensemble member: one
        // prepared unit per (candidate, scenario) cell, fanned out across
        // the pool and read back by index — candidate-major order, so the
        // scores are byte-stable for any worker count. Selections often
        // agree (3% noise rarely moves the greedy search), and equal
        // strategies price to equal bits, so each duplicate reads the
        // times of its first occurrence.
        let sims: Vec<Simulator> = ensemble.iter().map(simulator).collect();
        let mut rows: Vec<usize> = Vec::with_capacity(candidates.len());
        let mut units: Vec<espresso_sim::PreparedEval> = Vec::new();
        for (i, (_, strategy)) in candidates.iter().enumerate() {
            if let Some(j) = candidates[..i].iter().position(|(_, s)| s == strategy) {
                rows.push(rows[j]);
                continue;
            }
            rows.push(units.len() / sims.len());
            units.extend(sims.iter().map(|sim| match &self.faults {
                None => sim.prepare(strategy),
                Some(plan) => sim.prepare_with_faults(strategy, Some(plan)),
            }));
        }
        let times = pool.run(units);
        let times: Vec<&[f64]> = times.chunks(sims.len()).collect();
        let mut scored: Vec<(CandidateScore, Strategy)> = candidates
            .into_iter()
            .zip(rows.iter().map(|&r| times[r]))
            .map(|((name, strategy), times)| {
                let mean = times.iter().sum::<f64>() / times.len() as f64;
                let worst = times.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
                (
                    CandidateScore {
                        name,
                        mean,
                        worst,
                        admitted: false,
                    },
                    strategy,
                )
            })
            .collect();

        let best_worst = scored
            .iter()
            .map(|(s, _)| s.worst)
            .fold(f64::INFINITY, f64::min);
        let bound = best_worst * self.worst_case_slack;
        for (score, _) in &mut scored {
            score.admitted = score.worst <= bound;
        }
        let winner = scored
            .iter()
            .enumerate()
            .filter(|(_, (s, _))| s.admitted)
            .min_by(|(_, (a, _)), (_, (b, _))| a.mean.total_cmp(&b.mean))
            .map(|(i, _)| i)
            .expect("the minimax candidate is always admitted");
        let (score, strategy) = scored[winner].clone();
        let selection = RobustSelection {
            strategy,
            chosen: score.name,
            mean_time: score.mean,
            worst_time: score.worst,
            scenarios: self.envelope.scenarios,
            candidates: scored.into_iter().map(|(s, _)| s).collect(),
        };
        Ok((selection, table))
    }
}

/// What the monitor recommends after an observation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MonitorVerdict {
    /// Observations track the prediction; keep the strategy.
    Healthy,
    /// Sustained divergence; re-run the (robust) selection against the
    /// current cluster health.
    Redecide,
    /// Severe divergence; the model can no longer be trusted — switch to
    /// the safe [`DegradationMonitor::fallback_strategy`] while
    /// re-profiling.
    Fallback,
}

/// Watches observed iteration times against the selection's prediction.
///
/// Divergence is the smoothed relative excess of observed over predicted
/// time (faster-than-predicted is never penalized). One noisy iteration
/// does not trip the monitor: the exponential smoothing means the
/// divergence must be sustained.
#[derive(Debug, Clone)]
pub struct DegradationMonitor {
    predicted: f64,
    redecide_threshold: f64,
    fallback_threshold: f64,
    smoothing: f64,
    divergence: f64,
    samples: usize,
}

impl DegradationMonitor {
    /// Arms the monitor with the selection's predicted iteration time,
    /// using the default thresholds (15% sustained excess → re-decide,
    /// 50% → fall back).
    ///
    /// # Panics
    ///
    /// Panics if `predicted` is not finite and positive — the prediction
    /// comes from the simulator, so anything else is a bug upstream.
    pub fn new(predicted: f64) -> Self {
        Self::with_thresholds(predicted, 0.15, 0.50)
    }

    /// Arms the monitor with explicit thresholds.
    ///
    /// # Panics
    ///
    /// As [`DegradationMonitor::new`]; additionally panics unless
    /// `0 < redecide <= fallback`.
    pub fn with_thresholds(predicted: f64, redecide: f64, fallback: f64) -> Self {
        assert!(
            predicted.is_finite() && predicted > 0.0,
            "non-positive predicted iteration time {predicted}"
        );
        assert!(
            redecide > 0.0 && redecide <= fallback,
            "thresholds must satisfy 0 < redecide <= fallback"
        );
        Self {
            predicted,
            redecide_threshold: redecide,
            fallback_threshold: fallback,
            smoothing: 0.3,
            divergence: 0.0,
            samples: 0,
        }
    }

    /// Feeds one observed iteration time, returning the recommendation.
    ///
    /// A non-finite or non-positive observation (a wedged worker, a
    /// timed-out iteration) counts as maximal divergence and immediately
    /// recommends [`MonitorVerdict::Fallback`].
    pub fn observe(&mut self, observed: f64) -> MonitorVerdict {
        if !(observed.is_finite() && observed > 0.0) {
            self.divergence = f64::INFINITY;
            self.samples += 1;
            return MonitorVerdict::Fallback;
        }
        let excess = ((observed - self.predicted) / self.predicted).max(0.0);
        self.divergence = if self.samples == 0 {
            excess
        } else {
            self.smoothing * excess + (1.0 - self.smoothing) * self.divergence
        };
        self.samples += 1;
        if self.divergence > self.fallback_threshold {
            MonitorVerdict::Fallback
        } else if self.divergence > self.redecide_threshold {
            MonitorVerdict::Redecide
        } else {
            MonitorVerdict::Healthy
        }
    }

    /// The current smoothed relative divergence.
    pub fn divergence(&self) -> f64 {
        self.divergence
    }

    /// The prediction being tracked.
    pub fn predicted(&self) -> f64 {
        self.predicted
    }

    /// Observations consumed so far.
    pub fn samples(&self) -> usize {
        self.samples
    }

    /// Re-arms the monitor after a re-decision.
    ///
    /// # Panics
    ///
    /// As [`DegradationMonitor::new`].
    pub fn rebase(&mut self, predicted: f64) {
        assert!(
            predicted.is_finite() && predicted > 0.0,
            "non-positive predicted iteration time {predicted}"
        );
        self.predicted = predicted;
        self.divergence = 0.0;
        self.samples = 0;
    }

    /// The always-safe strategy to fall back to: BytePS-FP32
    /// (uncompressed hierarchical all-reduce — no compression kernels to
    /// go wrong, no staleness from a mis-modelled compressor).
    pub fn fallback_strategy(job: &Job) -> Strategy {
        baselines::fp32(job)
    }

    /// Reconstructs a monitor from checkpointed state — the restore half
    /// of [`DegradationMonitor::new`] plus the accumulated
    /// `divergence`/`samples`, so a resumed run observes exactly the
    /// smoothing history the interrupted run had.
    ///
    /// # Panics
    ///
    /// As [`DegradationMonitor::new`]; additionally panics for a negative
    /// or NaN divergence (infinity is legal — it is what a broken
    /// observation records).
    pub fn restore(predicted: f64, divergence: f64, samples: usize) -> Self {
        let mut monitor = Self::new(predicted);
        assert!(
            divergence >= 0.0 && !divergence.is_nan(),
            "divergence must be non-negative, got {divergence}"
        );
        monitor.divergence = divergence;
        monitor.samples = samples;
        monitor
    }
}

/// Default urgency of re-planning `job` after a cluster event, for
/// schedulers that must pick which re-plans to run (and which to shed)
/// when events arrive faster than the planner can keep up.
///
/// A stale strategy costs roughly in proportion to the gradient traffic
/// it mis-places: the job's gradient bytes per iteration times the number
/// of GPUs moving them. That product is the priority — a 64-GPU BERT run
/// outranks a single-machine LSTM, which is exactly the order in which
/// stale decisions hurt. Larger is more urgent; ties are broken by the
/// scheduler (the fleet controller uses arrival order).
pub fn replan_priority(job: &Job) -> u64 {
    (job.model.total_bytes() as u64).saturating_mul(job.cluster.total_gpus() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planner::Planner;
    use espresso_cluster::Cluster;
    use espresso_gc::GcAlgorithm;
    use espresso_models::Model;

    fn small_job() -> Job {
        Job::new(
            Model::Lstm.profile(),
            Cluster::pcie_25g(2, 4),
            GcAlgorithm::EfSignSgd,
        )
    }

    #[test]
    fn a_request_compiles_each_block_once_at_any_pool_width() {
        // Six selections and five pricing simulators share the degraded
        // cluster's block table. Whichever thread asks for a block first
        // compiles it; the others wait for that compile instead of
        // repeating it, so the table compiles each distinct block once,
        // and the selection is the same bytes at every width.
        let selector = RobustSelector::new(small_job(), ClusterHealth::inter_degraded(2.0));
        let mut first: Option<(String, usize)> = None;
        for width in [1, 2, 4] {
            let (selection, table) = selector
                .select_sharing(PlannerMode::Fast, &EvalPool::new(width), None)
                .unwrap();
            assert_eq!(table.compiles(), table.len(), "width {width}");
            let seen = (format!("{selection:?}"), table.len());
            match &first {
                None => first = Some(seen),
                Some(first) => assert_eq!(first, &seen, "width {width}"),
            }
        }
    }

    #[test]
    fn envelope_is_deterministic() {
        let model = Model::Lstm.profile();
        let env = NoiseEnvelope::default();
        let a = env.perturbed_profiles(&model);
        let b = env.perturbed_profiles(&model);
        for (x, y) in a.iter().zip(&b) {
            for (tx, ty) in x.tensors.iter().zip(&y.tensors) {
                assert_eq!(tx.compute_time, ty.compute_time);
            }
        }
        // Scenarios differ from each other.
        assert!(a[0]
            .tensors
            .iter()
            .zip(&a[1].tensors)
            .any(|(t0, t1)| t0.compute_time != t1.compute_time));
    }

    #[test]
    fn invalid_envelope_is_rejected() {
        let env = NoiseEnvelope {
            scenarios: 0,
            ..NoiseEnvelope::default()
        };
        assert!(matches!(env.validate(), Err(EspressoError::Config { .. })));
        let env = NoiseEnvelope {
            compute_std: 0.7,
            ..NoiseEnvelope::default()
        };
        assert!(matches!(env.validate(), Err(EspressoError::Config { .. })));
    }

    #[test]
    fn robust_selection_never_loses_to_the_stale_candidate() {
        let selection = RobustSelector::new(small_job(), ClusterHealth::inter_degraded(2.0))
            .select()
            .unwrap();
        let stale = selection
            .candidates
            .iter()
            .find(|c| c.name == "nominal-espresso")
            .unwrap();
        assert!(selection.mean_time <= stale.mean + 1e-12);
        assert!(selection.worst_time.is_finite() && selection.worst_time >= selection.mean_time);
        assert_eq!(selection.strategy.len(), 10);
    }

    #[test]
    fn a_seeded_nominal_candidate_changes_nothing() {
        let job = small_job();
        let selector = RobustSelector::new(job.clone(), ClusterHealth::inter_degraded(2.0));
        let pool = EvalPool::new(1);
        let (nominal, _) = Espresso::new(job).select_strategy();
        let cold = selector.select_with(PlannerMode::Fast, &pool).unwrap();
        let seeded = selector.select_seeded(&pool, Some(nominal)).unwrap();
        assert_eq!(seeded.strategy, cold.strategy);
        assert_eq!(seeded.chosen, cold.chosen);
        assert_eq!(seeded.candidates.len(), cold.candidates.len());
        for (s, c) in seeded.candidates.iter().zip(&cold.candidates) {
            assert_eq!(s.name, c.name);
            assert_eq!(s.mean.to_bits(), c.mean.to_bits());
            assert_eq!(s.worst.to_bits(), c.worst.to_bits());
            assert_eq!(s.admitted, c.admitted);
        }
    }

    #[test]
    fn winner_respects_the_worst_case_bound() {
        let selector = RobustSelector::new(small_job(), ClusterHealth::nominal());
        let selection = selector.select().unwrap();
        let best_worst = selection
            .candidates
            .iter()
            .map(|c| c.worst)
            .fold(f64::INFINITY, f64::min);
        assert!(selection.worst_time <= best_worst * selector.worst_case_slack + 1e-12);
        // At least the minimax candidate is admitted.
        assert!(selection.candidates.iter().any(|c| c.admitted));
    }

    #[test]
    fn down_inter_link_is_an_error_not_a_panic() {
        let selector = RobustSelector::new(
            small_job(),
            ClusterHealth {
                inter: espresso_cluster::LinkState::Down,
                ..ClusterHealth::nominal()
            },
        );
        assert!(matches!(
            selector.select(),
            Err(EspressoError::Cluster(_))
        ));
    }

    #[test]
    fn monitor_escalates_with_sustained_divergence() {
        let mut m = DegradationMonitor::new(0.1);
        assert_eq!(m.observe(0.1), MonitorVerdict::Healthy);
        assert_eq!(m.observe(0.09), MonitorVerdict::Healthy); // faster is fine
        for _ in 0..20 {
            m.observe(0.13); // 30% over
        }
        assert_eq!(m.observe(0.13), MonitorVerdict::Redecide);
        for _ in 0..20 {
            m.observe(0.25); // 150% over
        }
        assert_eq!(m.observe(0.25), MonitorVerdict::Fallback);
        m.rebase(0.25);
        assert_eq!(m.observe(0.25), MonitorVerdict::Healthy);
        assert_eq!(m.samples(), 1);
    }

    #[test]
    fn one_noisy_iteration_does_not_trip_the_monitor() {
        let mut m = DegradationMonitor::new(0.1);
        for _ in 0..10 {
            assert_eq!(m.observe(0.1), MonitorVerdict::Healthy);
        }
        // A single 40% spike is smoothed away.
        assert_eq!(m.observe(0.14), MonitorVerdict::Healthy);
        assert_eq!(m.observe(0.1), MonitorVerdict::Healthy);
    }

    #[test]
    fn broken_observation_falls_back_immediately() {
        let mut m = DegradationMonitor::new(0.1);
        assert_eq!(m.observe(f64::NAN), MonitorVerdict::Fallback);
        let job = small_job();
        let fallback = DegradationMonitor::fallback_strategy(&job);
        assert_eq!(fallback.num_compressed(), 0);
        assert_eq!(fallback.len(), job.num_tensors());
    }

    #[test]
    fn trip_threshold_is_strictly_exceeded_not_met() {
        // Divergence comparison is strict `>`: an observation whose
        // steady-state divergence sits exactly at the threshold never
        // trips, one epsilon above does. First observation seeds the
        // smoother directly, so a single sample reaches steady state.
        let mut at = DegradationMonitor::new(1.0);
        assert_eq!(at.observe(1.15), MonitorVerdict::Healthy);
        assert!((at.divergence() - 0.15).abs() < 1e-12);

        let mut above = DegradationMonitor::new(1.0);
        assert_eq!(above.observe(1.16), MonitorVerdict::Redecide);

        let mut at_fb = DegradationMonitor::new(1.0);
        assert_eq!(at_fb.observe(1.50), MonitorVerdict::Redecide);
        let mut above_fb = DegradationMonitor::new(1.0);
        assert_eq!(above_fb.observe(1.51), MonitorVerdict::Fallback);
    }

    #[test]
    fn recovery_needs_sustained_healthy_observations() {
        // Hysteresis through smoothing: after a trip, one on-prediction
        // observation is not enough to bring the divergence back under the
        // threshold — it must be sustained (divergence decays by the
        // smoothing factor per healthy sample).
        let mut m = DegradationMonitor::new(1.0);
        for _ in 0..10 {
            m.observe(1.4);
        }
        assert_eq!(m.observe(1.4), MonitorVerdict::Redecide);
        assert_eq!(
            m.observe(1.0),
            MonitorVerdict::Redecide,
            "one good sample must not clear a sustained trip"
        );
        let mut healthy_after = 0;
        while m.observe(1.0) != MonitorVerdict::Healthy {
            healthy_after += 1;
            assert!(healthy_after < 100, "divergence never decayed");
        }
        assert!(
            healthy_after >= 1,
            "recovery took {healthy_after} extra samples; hysteresis gone"
        );
    }

    #[test]
    fn rebase_resets_divergence_and_sample_count() {
        let mut m = DegradationMonitor::new(1.0);
        for _ in 0..5 {
            m.observe(2.0);
        }
        assert!(m.divergence() > 0.5);
        m.rebase(2.0);
        assert_eq!(m.divergence(), 0.0);
        assert_eq!(m.samples(), 0);
        assert_eq!(m.predicted(), 2.0);
        assert_eq!(m.observe(2.0), MonitorVerdict::Healthy);
    }

    #[test]
    fn restore_resumes_the_smoothing_history() {
        let mut live = DegradationMonitor::new(1.0);
        for _ in 0..7 {
            live.observe(1.3);
        }
        let mut restored =
            DegradationMonitor::restore(live.predicted(), live.divergence(), live.samples());
        // Same future observations -> same verdicts and same divergence.
        for _ in 0..5 {
            assert_eq!(live.observe(1.3), restored.observe(1.3));
        }
        assert_eq!(live.divergence(), restored.divergence());
        assert_eq!(live.samples(), restored.samples());
    }

    #[test]
    #[should_panic(expected = "divergence must be non-negative")]
    fn restore_rejects_negative_divergence() {
        let _ = DegradationMonitor::restore(1.0, -0.1, 3);
    }

    #[test]
    fn replan_on_nominal_health_matches_plain_espresso() {
        let job = small_job();
        let (expected, report) = Espresso::new(job.clone()).select_strategy();
        let r = Planner::cold()
            .replan(&job, &ClusterHealth::nominal(), &expected)
            .unwrap();
        assert_eq!(r.strategy, expected);
        assert!(!r.changed);
        assert_eq!(r.chosen, "espresso");
        assert!((r.predicted_time - report.iteration_time).abs() < 1e-12);
    }

    #[test]
    fn replan_under_degraded_health_reports_change() {
        let job = small_job();
        let current = DegradationMonitor::fallback_strategy(&job);
        // The fallback is all-FP32; any Espresso-style selection for an
        // EFSignSGD job compresses something, so the re-plan must differ.
        let r = Planner::cold()
            .replan(&job, &ClusterHealth::inter_degraded(4.0), &current)
            .unwrap();
        assert!(r.predicted_time > 0.0);
        if r.strategy != current {
            assert!(r.changed);
        } else {
            assert!(!r.changed);
        }
    }
}
