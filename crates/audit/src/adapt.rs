//! Ratio-aware differential oracle: the allocator versus exhaustive
//! grid search.
//!
//! The L-GreCo-style allocator in `espresso-adapt` claims near-optimal
//! per-tensor ratio plans under an error budget. This sweep holds it to
//! that claim the same way [`crate::sweep`] audits the strategy
//! selector: sample seeded small jobs (3–5 tensors, so `grid^N` stays
//! enumerable), measure real compression-error curves, run the
//! allocator, brute-force every level assignment under the same budget,
//! and fail if the allocator's simulated iteration time exceeds the
//! optimum by more than the bound. Every case is a pure function of its
//! seed — a failure report is a complete reproduction recipe.

use espresso_adapt::{exhaustive_best, measure_curves, Allocator};
use espresso_gc::GcAlgorithm;
use espresso_sim::{SimConfig, Simulator};
use espresso_strategy::{OptionSpace, Strategy};

use crate::jobs;

/// Sweep parameters.
#[derive(Debug, Clone)]
pub struct AdaptConfig {
    /// Number of sampled jobs.
    pub jobs: usize,
    /// Maximum allowed `allocator / oracle - 1` iteration-time gap.
    pub bound: f64,
    /// Error budget as a multiple of the uniform default plan's error.
    pub budget_scale: f64,
    /// Refuse oracle searches larger than this many assignments.
    pub limit: usize,
}

impl Default for AdaptConfig {
    fn default() -> Self {
        Self {
            jobs: 60,
            bound: 0.10,
            budget_scale: 1.0,
            limit: 1_000_000,
        }
    }
}

/// One audited case.
#[derive(Debug, Clone)]
pub struct AdaptResult {
    /// The sampling seed.
    pub seed: u64,
    /// Human-readable case description.
    pub case: String,
    /// Allocator's simulated iteration time, seconds.
    pub allocator_time: f64,
    /// Exhaustive optimum under the same budget, seconds.
    pub oracle_time: f64,
    /// Feasible assignments the oracle simulated.
    pub evaluated: usize,
}

impl AdaptResult {
    /// Relative gap `allocator / oracle - 1` (0 when they agree).
    pub fn gap(&self) -> f64 {
        if self.oracle_time <= 0.0 {
            return 0.0;
        }
        self.allocator_time / self.oracle_time - 1.0
    }
}

/// The sweep's verdict.
#[derive(Debug, Clone)]
pub struct AdaptReport {
    /// Every audited case.
    pub results: Vec<AdaptResult>,
    /// Cases whose gap exceeded the bound.
    pub failures: Vec<AdaptResult>,
    /// The configured bound, echoed for reports.
    pub bound: f64,
}

impl AdaptReport {
    /// True when no case exceeded the bound.
    pub fn ok(&self) -> bool {
        self.failures.is_empty()
    }

    /// The worst (gap, case description) across the sweep.
    pub fn worst(&self) -> Option<(f64, String)> {
        self.results
            .iter()
            .max_by(|a, b| a.gap().total_cmp(&b.gap()))
            .map(|r| (r.gap(), r.case.clone()))
    }

    /// Total oracle evaluations across the sweep.
    pub fn evaluated(&self) -> usize {
        self.results.iter().map(|r| r.evaluated).sum()
    }
}

/// Forces a sampled job's algorithm to a ratio-tunable one, keeping the
/// sampled family when it already has a ratio grid.
fn tunable_algo(algo: GcAlgorithm) -> GcAlgorithm {
    if algo.ratio_settings().len() > 1 {
        algo
    } else {
        GcAlgorithm::dgc_1pct()
    }
}

/// Runs the ratio-aware sweep.
pub fn run(config: &AdaptConfig) -> AdaptReport {
    let mut results = Vec::new();
    let mut failures = Vec::new();
    for seed in 0..config.jobs as u64 {
        let sampled = jobs::sample(seed);
        let mut job = sampled.job.clone();
        job.algo = tunable_algo(job.algo);
        let option = OptionSpace::enumerate(&job.cluster)
            .gpu_compressed()
            .first()
            .cloned()
            .expect("small clusters always offer a GPU-compressed option");
        let strategy = Strategy::uniform(job.num_tensors(), option);
        let curves = measure_curves(&job.model, job.algo, seed);
        let case = format!(
            "seed {seed} ({}, {} tensors, {})",
            sampled.scenario.label(),
            job.num_tensors(),
            job.algo.name(),
        );
        let sim = Simulator::new(job, SimConfig::default());
        let alloc = Allocator::new(&sim, &strategy, &curves);
        let budget = config.budget_scale * alloc.default_error();
        let plan = alloc.allocate(budget);
        let Some(oracle) = exhaustive_best(&sim, &strategy, &curves, budget, config.limit) else {
            // Grid too large for this limit, or no feasible assignment:
            // either way the case carries no optimality signal.
            continue;
        };
        let result = AdaptResult {
            seed,
            case,
            allocator_time: plan.predicted_time,
            oracle_time: oracle.time,
            evaluated: oracle.evaluated,
        };
        if result.gap() > config.bound {
            failures.push(result.clone());
        }
        results.push(result);
    }
    AdaptReport {
        results,
        failures,
        bound: config.bound,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_small_sweep_stays_within_the_bound() {
        let config = AdaptConfig {
            jobs: 9,
            ..AdaptConfig::default()
        };
        let report = run(&config);
        assert!(!report.results.is_empty());
        assert!(
            report.ok(),
            "worst gap {:?}, failures: {:?}",
            report.worst(),
            report.failures
        );
        // The oracle really searched (feasible assignments exist).
        assert!(report.evaluated() > 0);
    }

    #[test]
    fn the_sweep_is_deterministic() {
        let config = AdaptConfig {
            jobs: 4,
            ..AdaptConfig::default()
        };
        let a = run(&config);
        let b = run(&config);
        assert_eq!(a.results.len(), b.results.len());
        for (x, y) in a.results.iter().zip(&b.results) {
            assert_eq!(x.allocator_time.to_bits(), y.allocator_time.to_bits());
            assert_eq!(x.oracle_time.to_bits(), y.oracle_time.to_bits());
        }
    }

    #[test]
    fn knobless_samples_are_retargeted_to_a_tunable_family() {
        assert_eq!(
            tunable_algo(GcAlgorithm::EfSignSgd),
            GcAlgorithm::dgc_1pct()
        );
        let dgc5 = GcAlgorithm::Dgc { density: 0.05 };
        assert_eq!(tunable_algo(dgc5), dgc5);
    }
}
