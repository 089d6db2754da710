//! Property-based tests of the ratio allocator.
//!
//! Two contracts the rest of the system leans on:
//!
//! 1. **Monotonicity** — a looser error budget can never produce a slower
//!    plan. The serve layer exposes the budget as a user knob; if relaxing
//!    it could regress iteration time, the knob would be unusable.
//! 2. **Determinism** — the same curves and budget yield a bit-identical
//!    ratio vector. Cache keys, golden traces, and crash + resume all
//!    assume plans are pure functions of their inputs.

use espresso_adapt::{measure_curves, Allocator};
use espresso_cluster::Cluster;
use espresso_gc::GcAlgorithm;
use espresso_models::{ModelKind, ModelProfile, TensorProfile};
use espresso_sim::{Job, SimConfig, Simulator};
use espresso_strategy::{OptionSpace, Strategy};
use proptest::prelude::*;

/// A 4-tensor model small enough to allocate hundreds of times per run.
fn tiny_model(scale: usize) -> ModelProfile {
    let sizes = [4_000_000usize, 2_000_000, 9_000_000, 512_000];
    let tensors = sizes
        .iter()
        .enumerate()
        .map(|(i, &elems)| TensorProfile {
            name: format!("t{i}"),
            elems: elems / scale,
            compute_time: 0.004,
        })
        .collect();
    ModelProfile::new("tiny", ModelKind::Nlp, 32, 0.01, tensors)
}

fn setup(seed: u64, scale: usize) -> (Simulator, Strategy, Vec<espresso_adapt::TensorCurve>) {
    let algo = GcAlgorithm::dgc_1pct();
    let job = Job::new(tiny_model(scale), Cluster::pcie_25g(2, 2), algo);
    let option = OptionSpace::enumerate(&job.cluster)
        .gpu_compressed()
        .first()
        .cloned()
        .expect("a GPU-compressed option");
    let strategy = Strategy::uniform(job.num_tensors(), option);
    let curves = measure_curves(&job.model, algo, seed);
    (Simulator::new(job, SimConfig::default()), strategy, curves)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Looser budget ⇒ never slower: the candidate set at a looser budget
    /// is a superset of the tighter one's, so predicted time is monotone
    /// non-increasing in the budget.
    #[test]
    fn looser_budgets_never_slow_the_plan(seed in 0u64..512, a in 0u32..48, b in 0u32..48) {
        let (sim, strategy, curves) = setup(seed, 1);
        let alloc = Allocator::new(&sim, &strategy, &curves);
        let (lo, hi) = (alloc.min_error(), 2.0 * alloc.default_error());
        let to_budget = |t: u32| lo + (hi - lo) * t as f64 / 47.0;
        let (mut tight, mut loose) = (to_budget(a.min(b)), to_budget(a.max(b)));
        if tight > loose {
            std::mem::swap(&mut tight, &mut loose);
        }
        let tight_plan = alloc.allocate(tight);
        let loose_plan = alloc.allocate(loose);
        prop_assert!(tight_plan.within_budget && loose_plan.within_budget);
        prop_assert!(
            loose_plan.predicted_time <= tight_plan.predicted_time,
            "budget {} -> {} but time {} -> {}",
            tight, loose, tight_plan.predicted_time, loose_plan.predicted_time,
        );
    }

    /// Same curves + budget ⇒ bit-identical vector, across independently
    /// rebuilt allocators, simulators, and re-measured curves.
    #[test]
    fn allocation_is_bit_deterministic(seed in 0u64..512, t in 0u32..48) {
        let (sim_a, strategy_a, curves_a) = setup(seed, 1);
        let (sim_b, strategy_b, curves_b) = setup(seed, 1);
        prop_assert_eq!(&curves_a, &curves_b, "curve measurement must be deterministic");
        let alloc_a = Allocator::new(&sim_a, &strategy_a, &curves_a);
        let alloc_b = Allocator::new(&sim_b, &strategy_b, &curves_b);
        let budget = alloc_a.min_error()
            + (2.0 * alloc_a.default_error() - alloc_a.min_error()) * t as f64 / 47.0;
        let plan_a = alloc_a.allocate(budget);
        let plan_b = alloc_b.allocate(budget);
        prop_assert_eq!(&plan_a.settings, &plan_b.settings);
        prop_assert_eq!(&plan_a.levels, &plan_b.levels);
        prop_assert_eq!(plan_a.predicted_time.to_bits(), plan_b.predicted_time.to_bits());
        prop_assert_eq!(plan_a.total_error.to_bits(), plan_b.total_error.to_bits());
    }
}
