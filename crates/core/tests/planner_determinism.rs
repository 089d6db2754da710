//! Parallel candidate evaluation must be invisible: the same selected
//! strategy and the same deterministic report fields, bit for bit,
//! whatever the worker count and however many times the selection is
//! repeated. The pool merges results in canonical candidate order, so
//! scheduling nondeterminism between workers can never reorder an
//! accept decision — these tests hold that claim against real
//! selections.

use espresso::robust::{RobustSelection, RobustSelector};
use espresso::{Espresso, EvalPool, PlannerMode, Report, Strategy};
use espresso_cluster::{Cluster, ClusterHealth};
use espresso_gc::GcAlgorithm;
use espresso_models::{Model, ModelKind, ModelProfile, TensorProfile};
use espresso_sim::{FaultPlan, Job};
use proptest::prelude::*;
use rand::{rngs::StdRng, Rng, SeedableRng};

const WORKER_COUNTS: [usize; 3] = [1, 2, 8];

fn random_model(tensors: usize, seed: u64) -> ModelProfile {
    let mut rng = StdRng::seed_from_u64(seed);
    let list = (0..tensors)
        .map(|i| TensorProfile {
            name: format!("t{i}"),
            elems: rng.random_range(500_000usize..16_000_000),
            compute_time: rng.random_range(1e-4f64..4e-3),
        })
        .collect();
    ModelProfile::new("rand", ModelKind::Nlp, 8, 4e-3, list)
}

/// The deterministic slice of a report (wall-clock telemetry excluded),
/// bit-encoded so plain equality is bit equality.
fn report_key(r: &Report) -> (u64, u64, [usize; 6]) {
    (
        r.iteration_time.to_bits(),
        r.gpu_stage_time.to_bits(),
        [
            r.compressed_tensors,
            r.offloaded_tensors,
            r.backfilled_tensors,
            r.ruled_out_tensors,
            r.gpu_simulations,
            r.offload_combinations,
        ],
    )
}

/// Selects on every worker count (twice each) and asserts one identical
/// outcome.
fn assert_invariant_across_pools(job: &Job) -> (Strategy, Report) {
    let espresso = Espresso::new(job.clone());
    let (s1, r1) = espresso.select_strategy_with(PlannerMode::Fast, &EvalPool::new(1));
    for workers in WORKER_COUNTS {
        let pool = EvalPool::new(workers);
        for rep in 0..2 {
            let (s, r) = espresso.select_strategy_with(PlannerMode::Fast, &pool);
            assert_eq!(s, s1, "strategy changed at {workers} workers (rep {rep})");
            assert_eq!(
                report_key(&r),
                report_key(&r1),
                "report changed at {workers} workers (rep {rep})"
            );
        }
    }
    (s1, r1)
}

#[test]
fn paper_models_select_identically_across_worker_counts() {
    for (model, algo) in [
        (Model::Lstm, GcAlgorithm::randomk_1pct()),
        (Model::Vgg16, GcAlgorithm::dgc_1pct()),
    ] {
        let job = Job::new(model.profile(), Cluster::pcie_25g(2, 4), algo);
        let (_, report) = assert_invariant_across_pools(&job);
        assert!(report.gpu_simulations > 0);
    }
}

/// Everything a robust selection returns, bit-encoded so plain equality
/// is bit equality.
#[allow(clippy::type_complexity)]
fn robust_key(
    sel: &RobustSelection,
) -> (Strategy, String, u64, u64, usize, Vec<(String, u64, u64, bool)>) {
    (
        sel.strategy.clone(),
        sel.chosen.clone(),
        sel.mean_time.to_bits(),
        sel.worst_time.to_bits(),
        sel.scenarios,
        sel.candidates
            .iter()
            .map(|c| (c.name.clone(), c.mean.to_bits(), c.worst.to_bits(), c.admitted))
            .collect(),
    )
}

/// The ensemble's selections fan out across the pool and the pricing
/// matrix spreads over it: the whole selection must come back identical
/// at every width, including an uneven split (3) and more threads than
/// cores (8), with and without an injected fault plan.
#[test]
fn robust_selection_is_identical_across_worker_counts() {
    let job = Job::new(
        Model::Lstm.profile(),
        Cluster::pcie_25g(2, 4),
        GcAlgorithm::EfSignSgd,
    );
    let plain = RobustSelector::new(job.clone(), ClusterHealth::inter_degraded(2.0));
    let faulted = plain
        .clone()
        .with_faults(FaultPlan::from_seed(11, job.cluster.total_gpus()));
    for (label, selector) in [("no faults", plain), ("fault plan", faulted)] {
        let first = robust_key(
            &selector
                .select_with(PlannerMode::Fast, &EvalPool::new(1))
                .expect("selection succeeds"),
        );
        for workers in [1, 2, 3, 8] {
            let pool = EvalPool::new(workers);
            for rep in 0..2 {
                let sel = selector
                    .select_with(PlannerMode::Fast, &pool)
                    .expect("selection succeeds");
                assert!(
                    robust_key(&sel) == first,
                    "{label}: selection changed at {workers} workers (rep {rep})"
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random small jobs: selection and report are pool-invariant.
    #[test]
    fn random_jobs_select_identically_across_worker_counts(
        tensors in 3usize..8,
        model_seed in 0u64..200,
        machines in 1usize..3,
        gpus in 2usize..5,
    ) {
        let job = Job::new(
            random_model(tensors, model_seed),
            Cluster::pcie_25g(machines, gpus),
            GcAlgorithm::randomk_1pct(),
        );
        assert_invariant_across_pools(&job);
    }
}
