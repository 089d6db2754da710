//! The one planner handle every long-lived caller holds.
//!
//! A [`Planner`] owns the selection memo ([`WarmStartCache`]), the
//! [`EvalPool`] its robust ensemble fans out on and the one [`SimConfig`]
//! that prices every selection, fault replay and ensemble member. It
//! reads `ESPRESSO_PLANNER_THREADS` and `ESPRESSO_WARM_STARTS` once, when
//! built. The decision server, the fleet controller and the training
//! runtime each hold one. Every selection runs on the fast planner
//! ([`crate::PlannerMode::Fast`]) and serially: only whole selections of the
//! ensemble and its pricing matrix are fanned out.
//!
//! [`Planner::decide`] and [`Planner::replan`] run one pipeline: the
//! nominal selection from the memo, then — under degraded health or on
//! request — the robust selection from the memo, seeded on a miss with
//! that nominal selection as its `nominal-espresso` candidate. Selections
//! are pure functions of the memo key's inputs and bit-identical across
//! pool widths, so every answer equals a cold plan's byte for byte
//! (modulo the [`Report`]'s wall-clock telemetry).

use espresso_cluster::ClusterHealth;
use espresso_sim::{FaultPlan, Job, SimConfig, Simulator};
use espresso_strategy::Strategy;

use crate::config::build_job;
use crate::error::EspressoError;
use crate::espresso::{Espresso, Report};
use crate::parallel::EvalPool;
use crate::robust::{RobustSelection, RobustSelector};
use crate::service::{Decision, DecisionRequest};
use crate::warm::WarmStartCache;

/// The outcome of an online re-plan (see [`Planner::replan`]).
#[derive(Debug, Clone)]
pub struct Replan {
    /// The strategy to continue training with.
    pub strategy: Strategy,
    /// Predicted iteration time under the re-planned conditions — what a
    /// [`crate::DegradationMonitor`] should be rebased to.
    pub predicted_time: f64,
    /// Which candidate won (`"espresso"` for the nominal path, otherwise
    /// the [`RobustSelection::chosen`] name).
    pub chosen: String,
    /// Whether the re-planned strategy differs from the one previously in
    /// force.
    pub changed: bool,
}

/// The planner handle. See the module docs.
#[derive(Debug)]
pub struct Planner {
    memo: WarmStartCache,
    /// The pool the robust ensemble fans out on.
    ensemble: EvalPool,
    config: SimConfig,
}

impl Default for Planner {
    fn default() -> Self {
        Self::new()
    }
}

impl Planner {
    /// A planner with a 32-selection memo — a training run's conditions
    /// flap between a few states — and the environment's settings.
    pub fn new() -> Self {
        Self::with_memo(WarmStartCache::new(32, 1))
    }

    /// A planner over `memo`, with the environment's ensemble width.
    pub fn with_memo(memo: WarmStartCache) -> Self {
        Self { memo, ensemble: EvalPool::from_env(), config: SimConfig::default() }
    }

    /// A planner whose memo is disabled: every plan is cold. The oracle
    /// the memoized paths are held to.
    pub fn cold() -> Self {
        Self::with_memo(WarmStartCache::with_enabled(1, 1, false))
    }

    /// Fans the robust ensemble out on `pool` — a training run's thread
    /// budget. Selections are bit-identical for any width.
    #[must_use]
    pub fn with_pool(self, pool: EvalPool) -> Self {
        Self { ensemble: pool, ..self }
    }

    /// The selection memo (for its hit and miss counters).
    pub fn memo(&self) -> &WarmStartCache {
        &self.memo
    }

    /// Runs one decision end to end: build the job, select the strategy,
    /// optionally replay it under the request's fault plan and run the
    /// robust selector.
    ///
    /// # Errors
    ///
    /// Any [`EspressoError`] from config resolution, fault-plan parsing, or
    /// robust selection — all carrying enough context to fix the request.
    pub fn decide(&self, req: &DecisionRequest) -> Result<Decision, EspressoError> {
        let job = build_job(&req.model, &req.gc, &req.system, None)?;
        let fault_plan = req
            .faults
            .as_deref()
            .map(|spec| {
                FaultPlan::parse(spec, job.cluster.total_gpus())
                    .map_err(|e| EspressoError::Fault { message: e.message })
            })
            .transpose()?;
        let robust = req.robust || !req.health.is_nominal();
        let faults = req.faults.as_deref().zip(fault_plan.as_ref());
        let ((strategy, report), robust) = self.select(&job, &req.health, robust, faults)?;
        let faulted_iteration_time = fault_plan.as_ref().map(|plan| {
            Simulator::new(job.clone(), self.config).iteration_time_with_faults(&strategy, plan)
        });
        Ok(Decision { job, strategy, report, fault_plan, faulted_iteration_time, robust })
    }

    /// Re-selects the strategy of `job` — which must already describe the
    /// surviving topology, e.g. via
    /// [`espresso_cluster::Membership::effective_cluster`] — under
    /// `health`: the plain Espresso decision (section 4.4) on a nominal
    /// cluster, the [`RobustSelector`] ensemble otherwise. `changed` is
    /// computed against `current` on every call, memo hit or not.
    ///
    /// # Errors
    ///
    /// As [`RobustSelector::select`].
    pub fn replan(
        &self,
        job: &Job,
        health: &ClusterHealth,
        current: &Strategy,
    ) -> Result<Replan, EspressoError> {
        let robust = !health.is_nominal();
        let (strategy, predicted_time, chosen) = match self.select(job, health, robust, None)? {
            ((strategy, report), None) => (strategy, report.iteration_time, "espresso".to_string()),
            (_, Some(sel)) => (sel.strategy, sel.mean_time, sel.chosen),
        };
        let changed = strategy != *current;
        Ok(Replan { strategy, predicted_time, chosen, changed })
    }

    /// The one pipeline: the nominal selection of `job` from the memo (or
    /// planned and stored), then, when `robust`, the robust selection for
    /// `(job, health, faults)` from the memo (or run seeded with that
    /// nominal selection, and stored).
    fn select(
        &self,
        job: &Job,
        health: &ClusterHealth,
        robust: bool,
        faults: Option<(&str, &FaultPlan)>,
    ) -> Result<((Strategy, Report), Option<RobustSelection>), EspressoError> {
        let key = WarmStartCache::nominal_key(job);
        let nominal = match self.memo.get_nominal(&key) {
            Some(hit) => (*hit).clone(),
            None => {
                let espresso = Espresso::new(job.clone()).with_config(self.config);
                let sel = espresso.select_strategy();
                self.memo.insert_nominal(key, sel.clone());
                sel
            }
        };
        if !robust {
            return Ok((nominal, None));
        }
        let key = WarmStartCache::robust_key(job, health, faults.map(|(spec, _)| spec));
        if let Some(hit) = self.memo.get_robust(&key) {
            return Ok((nominal, Some((*hit).clone())));
        }
        let mut selector = RobustSelector::new(job.clone(), *health).with_config(self.config);
        if let Some((_, plan)) = faults {
            selector = selector.with_faults(plan.clone());
        }
        let sel = selector.select_seeded(&self.ensemble, Some(nominal.0.clone()))?;
        self.memo.insert_robust(key, sel.clone());
        Ok((nominal, Some(sel)))
    }
}

/// [`Planner`] under its older name. It exists only because the frozen
/// benchmark harness still calls it.
pub type ReplanContext = Planner;

/// Forwards to [`Planner::replan`]. It exists only because the frozen
/// benchmark harness still calls it.
///
/// # Errors
///
/// As [`Planner::replan`].
pub fn replan_with_context(
    ctx: &mut ReplanContext,
    job: &Job,
    health: &ClusterHealth,
    current: &Strategy,
) -> Result<Replan, EspressoError> {
    ctx.replan(job, health, current)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{GcConfig, ModelConfig, SystemConfig};
    use espresso_cluster::IntraFabric;
    use espresso_gc::GcAlgorithm;
    use espresso_json::Json;

    #[test]
    fn memoized_and_cold_paths_price_with_one_config() {
        // A non-default configuration that moves the fault replay: were
        // the selection, the replay and the memo to take their
        // configuration from two sources, their answers would split here.
        let config = SimConfig {
            partition_bytes: 1e6,
            aggregate_overhead: 50e-6,
            ..SimConfig::default()
        };
        let mut req = DecisionRequest::new(
            ModelConfig::Named { model: "LSTM".into() },
            GcConfig::uniform(GcAlgorithm::EfSignSgd),
            SystemConfig {
                machines: 2,
                gpus_per_machine: 4,
                intra: IntraFabric::Pcie,
                inter_gbps: 25.0,
            },
        );
        req.faults = Some("seed=7,straggler=1.5".into());
        req.robust = true;
        let cold = Planner { config, ..Planner::cold() }.decide(&req).unwrap();
        let memo = WarmStartCache::with_enabled(16, 2, true);
        let planner = Planner { config, ..Planner::with_memo(memo) };
        let populate = planner.decide(&req).unwrap();
        let replay = planner.decide(&req).unwrap();
        assert!(planner.memo().hits() >= 2, "the replay must hit");
        let faulted = |d: &Decision| d.faulted_iteration_time.unwrap().to_bits();
        let default = Planner::cold().decide(&req).unwrap();
        assert_ne!(faulted(&cold), faulted(&default), "the config must move the price");
        let enc = |d: &Decision| Json::encode(&d.response());
        for d in [&populate, &replay] {
            assert_eq!(faulted(d), faulted(&cold));
            assert_eq!(enc(d), enc(&cold));
        }
    }
}
