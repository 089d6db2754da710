//! Selection must be deterministic: the same selected strategy and the
//! same deterministic report fields, bit for bit, however many times a
//! selection is repeated — and, for the robust ensemble, whatever the
//! worker count. The pool merges results by index, so scheduling
//! nondeterminism between workers can never reorder an accept decision
//! or a score — these tests hold that claim against real selections.

use espresso::robust::{RobustSelection, RobustSelector};
use espresso::{Espresso, EvalPool, PlannerMode, Report, Strategy};
use espresso_cluster::{Cluster, ClusterHealth};
use espresso_gc::GcAlgorithm;
use espresso_models::Model;
use espresso_sim::{FaultPlan, Job};

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

/// A single selection runs serially; repeated on one selector it must
/// return one identical outcome, report counts included.
#[test]
fn paper_models_select_identically_on_repeat() {
    for (model, algo) in [
        (Model::Lstm, GcAlgorithm::randomk_1pct()),
        (Model::Vgg16, GcAlgorithm::dgc_1pct()),
    ] {
        let job = Job::new(model.profile(), Cluster::pcie_25g(2, 4), algo);
        let espresso = Espresso::new(job);
        let (s1, r1) = espresso.select_strategy();
        assert!(r1.gpu_simulations > 0);
        for rep in 0..2 {
            let (s, r) = espresso.select_strategy();
            assert_eq!(s, s1, "strategy changed on repeat {rep}");
            assert_eq!(report_key(&r), report_key(&r1), "report changed on repeat {rep}");
        }
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
