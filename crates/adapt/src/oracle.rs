//! Constrained exhaustive search over the ratio grid — the optimality
//! yardstick for the allocator.
//!
//! Enumerates every per-tensor level assignment in `gridᴺ` (odometer
//! order), discards assignments over the error budget, scores the rest
//! with the real simulator, and keeps the best under the *same* ordering
//! the allocator uses (time, then error, then enumeration order). Only
//! feasible for small jobs; the audit suite runs it on seeded 3–5-tensor
//! jobs to hold the allocator to its optimality bound.

use espresso_gc::GcAlgorithm;
use espresso_sim::Simulator;
use espresso_strategy::Strategy;

use crate::curves::TensorCurve;

/// The oracle's verdict: the optimal feasible plan and the search size.
#[derive(Debug, Clone, PartialEq)]
pub struct OracleResult {
    /// Optimal per-tensor grid levels.
    pub levels: Vec<usize>,
    /// The corresponding algorithm settings.
    pub settings: Vec<GcAlgorithm>,
    /// Simulated iteration time of the optimum, seconds.
    pub time: f64,
    /// Weighted error of the optimum (compressed tensors only).
    pub total_error: f64,
    /// Number of feasible assignments actually simulated.
    pub evaluated: usize,
}

/// Exhaustively finds the fastest plan with error at most `budget`.
///
/// Returns `None` if the grid is larger than `limit` total assignments
/// (the caller asked for an infeasible search) or if no assignment fits
/// the budget.
pub fn exhaustive_best(
    sim: &Simulator,
    strategy: &Strategy,
    curves: &[TensorCurve],
    budget: f64,
    limit: usize,
) -> Option<OracleResult> {
    let n = curves.len();
    assert_eq!(sim.job().num_tensors(), n, "one curve per tensor");
    let grid = &curves[0].settings;
    let total = (grid.len() as u128).checked_pow(n as u32)?;
    if total > limit as u128 {
        return None;
    }
    let compressed: Vec<bool> = (0..n).map(|i| strategy.option(i).compresses()).collect();

    let mut levels = vec![0usize; n];
    let mut best: Option<OracleResult> = None;
    let mut evaluated = 0usize;
    loop {
        let error: f64 = curves
            .iter()
            .zip(&levels)
            .zip(&compressed)
            .filter(|(_, &on)| on)
            .map(|((c, &k), _)| c.weighted_error(k))
            .sum();
        if error <= budget {
            let settings: Vec<GcAlgorithm> = levels.iter().map(|&k| grid[k]).collect();
            let time = sim.iteration_time_with_algos(strategy, &settings);
            evaluated += 1;
            let better = match &best {
                None => true,
                Some(b) => time < b.time || (time == b.time && error < b.total_error),
            };
            if better {
                best = Some(OracleResult {
                    levels: levels.clone(),
                    settings,
                    time,
                    total_error: error,
                    evaluated: 0,
                });
            }
        }
        // Odometer increment over gridᴺ.
        let mut pos = 0;
        loop {
            if pos == n {
                if let Some(b) = &mut best {
                    b.evaluated = evaluated;
                }
                return best;
            }
            levels[pos] += 1;
            if levels[pos] < grid.len() {
                break;
            }
            levels[pos] = 0;
            pos += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::allocator::Allocator;
    use crate::curves::measure_curves;
    use espresso_cluster::Cluster;
    use espresso_sim::{Job, SimConfig};
    use espresso_strategy::{OptionSpace, Strategy};

    /// A 4-tensor model: small enough for grid⁴ = 2401 assignments.
    fn tiny_model() -> espresso_models::ModelProfile {
        let sizes = [4_000_000usize, 2_000_000, 9_000_000, 512_000];
        let tensors = sizes
            .iter()
            .enumerate()
            .map(|(i, &elems)| espresso_models::TensorProfile {
                name: format!("t{i}"),
                elems,
                compute_time: 0.004,
            })
            .collect();
        espresso_models::ModelProfile::new("tiny", espresso_models::ModelKind::Nlp, 32, 0.01, tensors)
    }

    fn small_setup() -> (Simulator, Strategy, Vec<TensorCurve>) {
        let algo = GcAlgorithm::dgc_1pct();
        let job = Job::new(tiny_model(), Cluster::pcie_25g(2, 2), algo);
        let option = OptionSpace::enumerate(&job.cluster)
            .gpu_compressed()
            .first()
            .cloned()
            .expect("a GPU-compressed option");
        let strategy = Strategy::uniform(job.num_tensors(), option);
        let curves = measure_curves(&job.model, algo, 11);
        (Simulator::new(job, SimConfig::default()), strategy, curves)
    }

    #[test]
    fn oracle_respects_budget_and_dominates_the_allocator() {
        let (sim, strategy, curves) = small_setup();
        let alloc = Allocator::new(&sim, &strategy, &curves);
        let budget = alloc.default_error();
        let plan = alloc.allocate(budget);
        let oracle = exhaustive_best(&sim, &strategy, &curves, budget, 1_000_000)
            .expect("grid fits the limit");
        assert!(oracle.total_error <= budget + 1e-12);
        assert!(oracle.evaluated > 0);
        assert!(
            oracle.time <= plan.predicted_time + 1e-12,
            "oracle {} cannot lose to the allocator {}",
            oracle.time,
            plan.predicted_time
        );
        // The allocator's DP should land within 10% of the optimum here.
        assert!(
            plan.predicted_time <= oracle.time * 1.10,
            "allocator {} misses the oracle {} by more than 10%",
            plan.predicted_time,
            oracle.time
        );
    }

    #[test]
    fn oversized_grids_are_refused() {
        let (sim, strategy, curves) = small_setup();
        assert!(exhaustive_best(&sim, &strategy, &curves, 1.0, 10).is_none());
    }
}
