//! The end-to-end Espresso front-end (paper Figure 6): configurations in,
//! near-optimal compression strategy out.

use std::time::Instant;

use espresso_sim::{Job, SimConfig, Simulator};
use espresso_strategy::{Constraints, OptionSpace, Strategy};

use crate::decision::{gpu, offload, refine};

/// Which planner implementation answers a selection request.
///
/// Both modes run the same algorithms over the same trial enumeration
/// and produce byte-identical strategies and reports (modulo wall-clock
/// telemetry); `Fast` prices candidates through the incremental
/// simulation engine with certified pruning, `Reference` replays every
/// trial from scratch. Every production entry point runs `Fast`; the
/// reference path is the differential oracle the fast one is held to
/// (`espresso-audit decide`, the `decide` bench binary and the tests
/// select it in code).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlannerMode {
    /// Incremental delta re-simulation with lower-bound pruning.
    Fast,
    /// The from-scratch reference decision loops.
    Reference,
}

/// Telemetry of one strategy selection (the quantities behind the paper's
/// Tables 5 and 6).
#[derive(Debug, Clone)]
pub struct Report {
    /// Iteration time of the selected strategy.
    pub iteration_time: f64,
    /// Iteration time after Algorithm 1, before CPU offloading.
    pub gpu_stage_time: f64,
    /// Wall-clock seconds Algorithm 1 took (Table 5's "Espresso" row).
    pub gpu_decision_seconds: f64,
    /// Wall-clock seconds Algorithm 2 took (Table 6's "Espresso" row).
    pub offload_seconds: f64,
    /// Tensors selected for compression (|T_gpu| before offload; Table 6's
    /// "# of Tensors" row).
    pub compressed_tensors: usize,
    /// Tensors whose compression was offloaded to CPUs.
    pub offloaded_tensors: usize,
    /// Tensors newly compressed on CPUs by the backfill pass (an
    /// extension over the paper's two-phase algorithm; see
    /// `decision::refine`).
    pub backfilled_tensors: usize,
    /// Wall-clock seconds the backfill pass took.
    pub backfill_seconds: f64,
    /// Tensors ruled out by bubble analysis.
    pub ruled_out_tensors: usize,
    /// Timeline simulations run by Algorithm 1.
    pub gpu_simulations: usize,
    /// Offload combinations evaluated by Algorithm 2.
    pub offload_combinations: usize,
}

/// The Espresso strategy selector.
///
/// # Examples
///
/// ```
/// use espresso::Espresso;
/// use espresso_cluster::Cluster;
/// use espresso_gc::GcAlgorithm;
/// use espresso_models::Model;
/// use espresso_sim::Job;
///
/// let job = Job::new(
///     Model::Lstm.profile(),
///     Cluster::pcie_25g(4, 4),
///     GcAlgorithm::EfSignSgd,
/// );
/// let espresso = Espresso::new(job);
/// let (strategy, report) = espresso.select_strategy();
/// assert_eq!(strategy.len(), 10); // One option per LSTM tensor.
/// assert!(report.iteration_time > 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct Espresso {
    job: Job,
    space: OptionSpace,
    config: SimConfig,
    /// Safety cap on Algorithm 2's product space (see `offload::decide`).
    pub max_offload_combinations: usize,
}

impl Espresso {
    /// Builds a selector for `job` over the option space of its cluster
    /// (enumerated once per cluster shape per process; see
    /// [`OptionSpace::enumerate_constrained`]).
    pub fn new(job: Job) -> Self {
        Self::with_constraints(job, &Constraints::default())
    }

    /// Builds a selector whose option space is pruned by user
    /// `constraints` — the section 4.2.2 extension point (e.g. limit each
    /// tensor to one compression to protect accuracy).
    pub fn with_constraints(job: Job, constraints: &Constraints) -> Self {
        Self {
            space: OptionSpace::enumerate_constrained(&job.cluster, constraints),
            job,
            config: SimConfig::default(),
            max_offload_combinations: 150_000,
        }
    }

    /// Overrides the simulator configuration.
    pub fn with_config(mut self, config: SimConfig) -> Self {
        self.config = config;
        self
    }

    /// The job being optimized.
    pub fn job(&self) -> &Job {
        &self.job
    }

    /// The enumerated option space.
    pub fn space(&self) -> &OptionSpace {
        &self.space
    }

    /// The simulator configuration in force.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// Selects a near-optimal strategy: Algorithm 1 (GPU compression
    /// decisions) then Algorithm 2 (optimal CPU offloading), on the fast
    /// planner.
    pub fn select_strategy(&self) -> (Strategy, Report) {
        self.select_strategy_with(PlannerMode::Fast)
    }

    /// As [`Espresso::select_strategy`] on an explicit planner mode —
    /// the entry point the differential harness drives from both sides.
    pub fn select_strategy_with(&self, mode: PlannerMode) -> (Strategy, Report) {
        self.select_strategy_on(&Simulator::new(self.job.clone(), self.config), mode)
    }

    /// As [`Espresso::select_strategy_with`], pricing on `sim` — a
    /// simulator of this selector's job and configuration, such as one
    /// that shares a [`espresso_sim::BlockTable`] with its siblings.
    pub(crate) fn select_strategy_on(&self, sim: &Simulator, mode: PlannerMode) -> (Strategy, Report) {
        let t0 = Instant::now();
        let gpu_decision = match mode {
            PlannerMode::Reference => gpu::decide_with_simulator(sim, self.space.gpu_compressed()),
            PlannerMode::Fast => gpu::decide_fast(sim, self.space.gpu_compressed()),
        };
        let gpu_decision_seconds = t0.elapsed().as_secs_f64();

        let t1 = Instant::now();
        let off = match mode {
            PlannerMode::Reference => offload::decide_with_simulator(
                sim,
                &gpu_decision.strategy,
                self.max_offload_combinations,
            ),
            PlannerMode::Fast => {
                offload::decide_fast(sim, &gpu_decision.strategy, self.max_offload_combinations)
            }
        };
        let offload_seconds = t1.elapsed().as_secs_f64();

        let t2 = Instant::now();
        let refined = match mode {
            PlannerMode::Reference => {
                refine::cpu_backfill(sim, &off.strategy, self.space.cpu_variants())
            }
            PlannerMode::Fast => {
                refine::cpu_backfill_fast(sim, &off.strategy, self.space.cpu_variants())
            }
        };
        let backfill_seconds = t2.elapsed().as_secs_f64();

        let report = Report {
            iteration_time: refined.iteration_time,
            gpu_stage_time: gpu_decision.iteration_time,
            gpu_decision_seconds,
            offload_seconds,
            compressed_tensors: gpu_decision.strategy.num_compressed(),
            offloaded_tensors: off.offloaded.len(),
            backfilled_tensors: refined.backfilled.len(),
            backfill_seconds,
            ruled_out_tensors: gpu_decision.ruled_out.len(),
            gpu_simulations: gpu_decision.simulations,
            offload_combinations: off.combinations,
        };
        (refined.strategy, report)
    }

    /// Iteration time of an arbitrary strategy under this selector's
    /// simulator configuration (the objective `F(S)`).
    pub fn evaluate(&self, strategy: &Strategy) -> f64 {
        crate::decision::iteration_time(&self.job, strategy, &self.config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::Baseline;
    use espresso_cluster::Cluster;
    use espresso_gc::GcAlgorithm;
    use espresso_models::Model;

    #[test]
    fn espresso_beats_all_baselines_on_a_comm_bound_job() {
        let job = Job::new(
            Model::Lstm.profile(),
            Cluster::pcie_25g(8, 8),
            GcAlgorithm::EfSignSgd,
        );
        let esp = Espresso::new(job.clone());
        let (strategy, report) = esp.select_strategy();
        assert!(report.iteration_time > 0.0);
        for b in Baseline::ALL {
            let t = esp.evaluate(&b.strategy(&job));
            assert!(
                report.iteration_time <= t + 1e-9,
                "Espresso {} vs {} {}",
                report.iteration_time,
                b.name(),
                t
            );
        }
        // Offloading never makes it worse than the GPU stage.
        assert!(report.iteration_time <= report.gpu_stage_time + 1e-12);
        assert_eq!(strategy.len(), job.num_tensors());
    }

    #[test]
    fn constrained_selection_respects_the_constraint() {
        let job = Job::new(
            Model::Lstm.profile(),
            Cluster::pcie_25g(4, 4),
            GcAlgorithm::EfSignSgd,
        );
        let constraints = espresso_strategy::Constraints::single_compression();
        let esp = Espresso::with_constraints(job.clone(), &constraints);
        let (strategy, report) = esp.select_strategy();
        for (_, opt) in strategy.iter() {
            assert!(opt.compression_count() <= 1, "{}", opt.describe());
        }
        // The constrained optimum cannot beat the unconstrained one.
        let (_, free) = Espresso::new(job).select_strategy();
        assert!(free.iteration_time <= report.iteration_time + 1e-9);
    }

    #[test]
    fn report_counts_are_consistent() {
        let job = Job::new(
            Model::Vgg16.profile(),
            Cluster::pcie_25g(8, 8),
            GcAlgorithm::randomk_1pct(),
        );
        let esp = Espresso::new(job.clone());
        let (strategy, report) = esp.select_strategy();
        assert!(report.offloaded_tensors <= report.compressed_tensors);
        assert!(report.gpu_simulations > 0);
        assert!(report.offload_combinations >= 1);
        assert_eq!(
            strategy.iter().filter(|(_, o)| !o.gpu_only()).count(),
            report.offloaded_tensors + report.backfilled_tensors
        );
    }
}
