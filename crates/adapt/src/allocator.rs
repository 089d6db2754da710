//! L-GreCo-style per-tensor ratio allocation.
//!
//! Given a job, a compression strategy, and the empirical error curves of
//! [`crate::curves`], pick the per-tensor knob vector minimizing the
//! simulated iteration time `F(S)` subject to a job-level error budget.
//!
//! The search runs in two stages:
//!
//! 1. **DP over error units.** The continuous budget is discretized into
//!    [`ERROR_UNITS`] units; a knapsack DP computes, for *every* unit
//!    level `b`, the plan minimizing total wire bytes (the separable proxy
//!    L-GreCo optimizes) with error at most `b` units.
//! 2. **Exact scoring.** The distinct DP plans at all levels up to the
//!    budget, every feasible *uniform* plan, and nothing else, are scored
//!    with the real simulator ([`Simulator::iteration_time_with_algos`]);
//!    the fastest feasible plan wins (ties: lower error, then first in
//!    enumeration order).
//!
//! Because the candidate set at a looser budget is a strict superset of
//! the candidate set at a tighter one (DP levels form a prefix, uniform
//! feasibility only grows), the reported iteration time is **monotone**:
//! relaxing the error budget can never produce a slower plan. And because
//! neither stage draws randomness, the result is bit-deterministic in
//! `(curves, strategy, budget)`. Both properties are property-tested.

use std::collections::HashSet;

use espresso_gc::GcAlgorithm;
use espresso_sim::Simulator;
use espresso_strategy::Strategy;

use crate::curves::TensorCurve;

/// Error-budget discretization of the DP (unit = max plan error / this).
pub const ERROR_UNITS: usize = 256;

/// Sentinel for unreachable DP states.
const INF: u64 = u64::MAX;

/// The allocator's output: a concrete per-tensor ratio plan with its
/// simulator-scored time and realized error.
#[derive(Debug, Clone, PartialEq)]
pub struct RatioPlan {
    /// Per-tensor algorithm settings (same family, varying knob) — ready
    /// for [`espresso_sim::Job::set_tensor_algos`].
    pub settings: Vec<GcAlgorithm>,
    /// Per-tensor indices into the settings grid (most aggressive = 0).
    pub levels: Vec<usize>,
    /// Simulated iteration time `F(S)` of the plan, seconds.
    pub predicted_time: f64,
    /// Parameter-weighted total compression error the plan incurs (only
    /// tensors the strategy actually compresses contribute).
    pub total_error: f64,
    /// The budget the plan was allocated under.
    pub budget: f64,
    /// Whether `total_error ≤ budget`. `false` only when the budget is
    /// below the minimum achievable error, in which case the least-error
    /// plan is returned as a best effort.
    pub within_budget: bool,
}

/// Per-tensor ratio allocator for one `(job, strategy)` pair.
///
/// Construction runs the DP once; [`Allocator::allocate`] then answers any
/// number of budgets cheaply, sharing the simulator's stage cache across
/// all plan evaluations.
pub struct Allocator<'a> {
    sim: &'a Simulator,
    strategy: &'a Strategy,
    curves: &'a [TensorCurve],
    grid: Vec<GcAlgorithm>,
    /// Whether the strategy compresses tensor `i`; uncompressed tensors
    /// incur no error and no wire cost, whatever their knob says.
    compressed: Vec<bool>,
    /// Error quantum in weighted-relative-error terms (0 iff every
    /// setting of every compressed tensor is lossless).
    unit: f64,
    /// `units[i][k]`: error units tensor `i` spends at grid level `k`.
    units: Vec<Vec<usize>>,
    /// `choice[i][b]`: the level the DP assigns tensor `i` when tensors
    /// `i..` still have `b` units of budget left.
    choice: Vec<Vec<usize>>,
    /// Total units of the maximum-error (all-tightest) plan — the DP's
    /// budget axis length.
    cap: usize,
    /// Grid level of the job's uniform default algorithm (middle of the
    /// grid if the default is off-grid).
    default_level: usize,
}

impl<'a> Allocator<'a> {
    /// Builds the allocator and runs the DP.
    ///
    /// # Panics
    ///
    /// Panics if `curves` does not cover exactly the job's tensors, the
    /// strategy's length differs, or the curves disagree on the grid.
    pub fn new(sim: &'a Simulator, strategy: &'a Strategy, curves: &'a [TensorCurve]) -> Self {
        let n = sim.job().num_tensors();
        assert_eq!(curves.len(), n, "one curve per tensor");
        assert_eq!(strategy.len(), n, "strategy must cover the job's tensors");
        let grid = curves[0].settings.clone();
        assert!(
            curves.iter().all(|c| c.settings == grid),
            "all curves must share one settings grid"
        );
        let compressed: Vec<bool> = (0..n).map(|i| strategy.option(i).compresses()).collect();

        // Discretize: the all-tightest plan carries the maximum error.
        let max_error: f64 = curves
            .iter()
            .zip(&compressed)
            .filter(|(_, &on)| on)
            .map(|(c, _)| c.weighted_error(0))
            .sum();
        let unit = max_error / ERROR_UNITS as f64;
        let units: Vec<Vec<usize>> = curves
            .iter()
            .zip(&compressed)
            .map(|(c, &on)| {
                (0..grid.len())
                    .map(|k| {
                        if on && unit > 0.0 {
                            (c.weighted_error(k) / unit).ceil() as usize
                        } else {
                            0
                        }
                    })
                    .collect()
            })
            .collect();
        let cap: usize = units.iter().map(|u| u[0]).sum();

        // Knapsack DP, "at most b units" semantics. `dp[i][b]` is the
        // minimum wire bytes of tensors `i..` spending at most `b` units;
        // processed back-to-front so reconstruction walks front-to-back.
        let costs: Vec<Vec<u64>> = curves
            .iter()
            .zip(&compressed)
            .map(|(c, &on)| {
                (0..grid.len())
                    .map(|k| if on { c.wire_bytes(k) } else { 0 })
                    .collect()
            })
            .collect();
        let mut dp = vec![0u64; cap + 1];
        let mut choice = vec![vec![0usize; cap + 1]; n];
        for i in (0..n).rev() {
            let mut next = vec![INF; cap + 1];
            for b in 0..=cap {
                for k in 0..grid.len() {
                    let u = units[i][k];
                    if u > b || dp[b - u] == INF {
                        continue;
                    }
                    let cost = dp[b - u].saturating_add(costs[i][k]);
                    if cost < next[b] {
                        next[b] = cost;
                        choice[i][b] = k;
                    }
                }
            }
            dp = next;
        }

        let default_level = grid
            .iter()
            .position(|s| *s == sim.job().algo)
            .unwrap_or(grid.len() / 2);
        Self {
            sim,
            strategy,
            curves,
            grid,
            compressed,
            unit,
            units,
            choice,
            cap,
            default_level,
        }
    }

    /// The shared settings grid (most → least aggressive).
    pub fn grid(&self) -> &[GcAlgorithm] {
        &self.grid
    }

    /// Error of the uniform plan at grid level `k` (compressed tensors
    /// only).
    pub fn uniform_error(&self, k: usize) -> f64 {
        self.masked_error(&vec![k; self.curves.len()])
    }

    /// Error of the job's uniform default setting — the natural reference
    /// point for budgets ("as accurate as the paper's fixed ratio").
    pub fn default_error(&self) -> f64 {
        self.uniform_error(self.default_level)
    }

    /// The minimum achievable error (every tensor at its loosest setting);
    /// budgets below this are infeasible.
    pub fn min_error(&self) -> f64 {
        self.uniform_error(self.grid.len() - 1)
    }

    /// Allocates the fastest plan with error at most `budget`.
    pub fn allocate(&self, budget: f64) -> RatioPlan {
        let mut candidates: Vec<Vec<usize>> = Vec::new();
        let mut seen: HashSet<Vec<usize>> = HashSet::new();
        let mut push = |plan: Vec<usize>, candidates: &mut Vec<Vec<usize>>| {
            if seen.insert(plan.clone()) {
                candidates.push(plan);
            }
        };

        // DP plans at every unit level up to the budget — a prefix of the
        // same sequence for every budget, the monotonicity invariant.
        let k_units = if self.unit > 0.0 {
            (((budget / self.unit).floor() as i64).max(0) as usize).min(self.cap)
        } else {
            self.cap
        };
        for b in 0..=k_units {
            if let Some(plan) = self.reconstruct(b) {
                if self.masked_error(&plan) <= budget {
                    push(plan, &mut candidates);
                }
            }
        }
        // Every feasible uniform plan (the fixed-ratio baselines).
        for k in 0..self.grid.len() {
            if self.uniform_error(k) <= budget {
                push(vec![k; self.curves.len()], &mut candidates);
            }
        }

        if candidates.is_empty() {
            // Budget below the minimum achievable error: best effort is
            // the least-error plan, flagged as out of budget.
            let levels = vec![self.grid.len() - 1; self.curves.len()];
            return self.score(levels, budget);
        }
        let mut best: Option<RatioPlan> = None;
        for levels in candidates {
            let plan = self.score(levels, budget);
            let better = match &best {
                None => true,
                Some(b) => {
                    plan.predicted_time < b.predicted_time
                        || (plan.predicted_time == b.predicted_time
                            && plan.total_error < b.total_error)
                }
            };
            if better {
                best = Some(plan);
            }
        }
        best.expect("candidate set is non-empty")
    }

    /// The best *uniform* (fixed-ratio) plan within `budget` — the
    /// baseline adaptive allocation is compared against. `None` if no
    /// uniform setting fits the budget.
    pub fn best_uniform(&self, budget: f64) -> Option<RatioPlan> {
        let mut best: Option<RatioPlan> = None;
        for k in 0..self.grid.len() {
            if self.uniform_error(k) > budget {
                continue;
            }
            let plan = self.score(vec![k; self.curves.len()], budget);
            let better = match &best {
                None => true,
                Some(b) => {
                    plan.predicted_time < b.predicted_time
                        || (plan.predicted_time == b.predicted_time
                            && plan.total_error < b.total_error)
                }
            };
            if better {
                best = Some(plan);
            }
        }
        best
    }

    /// Walks the choice table front-to-back for unit budget `b`. Tensors
    /// the strategy leaves uncompressed are pinned to the default level
    /// (their knob is inert). `None` if `b` cannot accommodate even the
    /// loosest settings.
    fn reconstruct(&self, mut b: usize) -> Option<Vec<usize>> {
        let min_units: usize = self
            .units
            .iter()
            .map(|u| u.iter().min().copied().unwrap_or(0))
            .sum();
        if b < min_units {
            return None;
        }
        let mut plan = Vec::with_capacity(self.curves.len());
        for i in 0..self.curves.len() {
            let k = self.choice[i][b];
            b -= self.units[i][k];
            plan.push(if self.compressed[i] {
                k
            } else {
                self.default_level
            });
        }
        Some(plan)
    }

    /// Weighted total error of `levels`, counting compressed tensors only.
    fn masked_error(&self, levels: &[usize]) -> f64 {
        self.curves
            .iter()
            .zip(levels)
            .zip(&self.compressed)
            .filter(|(_, &on)| on)
            .map(|((c, &k), _)| c.weighted_error(k))
            .sum()
    }

    /// Scores a levels vector with the real simulator.
    fn score(&self, levels: Vec<usize>, budget: f64) -> RatioPlan {
        let settings: Vec<GcAlgorithm> = levels.iter().map(|&k| self.grid[k]).collect();
        let predicted_time = self.sim.iteration_time_with_algos(self.strategy, &settings);
        let total_error = self.masked_error(&levels);
        RatioPlan {
            settings,
            levels,
            predicted_time,
            total_error,
            budget,
            within_budget: total_error <= budget,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::curves::measure_curves;
    use espresso_cluster::Cluster;
    use espresso_models::Model;
    use espresso_sim::{Job, SimConfig};
    use espresso_strategy::{OptionSpace, Strategy};

    fn setup(model: Model) -> (Simulator, Strategy, Vec<TensorCurve>) {
        let algo = GcAlgorithm::dgc_1pct();
        let job = Job::new(model.profile(), Cluster::pcie_25g(2, 2), algo);
        let option = OptionSpace::enumerate(&job.cluster)
            .gpu_compressed()
            .first()
            .cloned()
            .expect("a GPU-compressed option exists");
        let strategy = Strategy::uniform(job.num_tensors(), option);
        let curves = measure_curves(&job.model, algo, 42);
        (Simulator::new(job, SimConfig::default()), strategy, curves)
    }

    #[test]
    fn allocation_is_feasible_and_beats_every_uniform_plan() {
        let (sim, strategy, curves) = setup(Model::Lstm);
        let alloc = Allocator::new(&sim, &strategy, &curves);
        let budget = alloc.default_error();
        let plan = alloc.allocate(budget);
        assert!(plan.within_budget);
        assert!(plan.total_error <= budget + 1e-12);
        let fixed = alloc.best_uniform(budget).expect("default is feasible");
        assert!(
            plan.predicted_time <= fixed.predicted_time,
            "adaptive {} must not lose to best uniform {}",
            plan.predicted_time,
            fixed.predicted_time
        );
    }

    #[test]
    fn adaptive_plan_is_nonuniform_when_curves_are_heterogeneous() {
        let (sim, strategy, curves) = setup(Model::Lstm);
        let alloc = Allocator::new(&sim, &strategy, &curves);
        let plan = alloc.allocate(alloc.default_error());
        let first = plan.levels[0];
        assert!(
            plan.levels.iter().any(|&k| k != first),
            "expected a non-uniform allocation, got {:?}",
            plan.levels
        );
    }

    #[test]
    fn sub_minimum_budget_returns_least_error_plan_flagged() {
        let (sim, strategy, curves) = setup(Model::Lstm);
        let alloc = Allocator::new(&sim, &strategy, &curves);
        let plan = alloc.allocate(alloc.min_error() * 0.5);
        assert!(!plan.within_budget);
        let loosest = curves[0].settings.len() - 1;
        assert!(plan.levels.iter().all(|&k| k == loosest));
    }

    #[test]
    fn uncompressed_tensors_incur_no_error_and_keep_the_default_knob() {
        let algo = GcAlgorithm::dgc_1pct();
        let job = Job::new(Model::Lstm.profile(), Cluster::pcie_25g(2, 2), algo);
        let n = job.num_tensors();
        let cluster = job.cluster;
        let space = OptionSpace::enumerate(&cluster);
        let compressed = space
            .gpu_compressed()
            .first()
            .cloned()
            .expect("a compressed option");
        let uncompressed = space
            .uncompressed()
            .into_iter()
            .next()
            .expect("an uncompressed option");
        // Compress every tensor except #0.
        let mut strategy = Strategy::uniform(n, compressed);
        strategy.set_option(0, uncompressed);
        let curves = measure_curves(&job.model, algo, 42);
        let sim = Simulator::new(job, SimConfig::default());
        let alloc = Allocator::new(&sim, &strategy, &curves);
        let plan = alloc.allocate(alloc.default_error());
        // Tensor 0's knob is pinned to the default and its (large) curve
        // error does not count against the budget.
        assert_eq!(plan.settings[0], GcAlgorithm::dgc_1pct());
        let full: f64 = curves.iter().map(|c| c.weighted_error(0)).sum();
        assert!(plan.total_error < full);
    }
}
