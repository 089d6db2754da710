//! End-to-end robustness: under a degraded cluster, the ensemble-based
//! robust selector must land near the true (brute-force) optimum for the
//! degraded reality, and must strictly beat the stale strategy that was
//! optimized for the healthy cluster.

use espresso_repro::espresso::decision::{brute, gpu};
use espresso_repro::espresso::robust::RobustSelector;
use espresso_repro::espresso::Espresso;
use espresso_cluster::{Cluster, ClusterHealth};
use espresso_gc::GcAlgorithm;
use espresso_models::{Model, ModelKind, ModelProfile, TensorProfile};
use espresso_sim::{Job, SimConfig, Simulator};
use espresso_strategy::{CompressionOption, OptionSpace};

/// A 3-tensor toy model (the shape of the paper's Figure 2) — small
/// enough that brute force over a candidate set is exact and fast.
fn toy_job() -> Job {
    let tensors = vec![
        TensorProfile {
            name: "t0".into(),
            elems: 4_000_000,
            compute_time: 0.004,
        },
        TensorProfile {
            name: "t1".into(),
            elems: 8_000_000,
            compute_time: 0.006,
        },
        TensorProfile {
            name: "t2".into(),
            elems: 16_000_000,
            compute_time: 0.010,
        },
    ];
    let model = ModelProfile::new("toy", ModelKind::Vision, 8, 0.010, tensors);
    Job::new(model, Cluster::pcie_25g(2, 4), GcAlgorithm::dgc_1pct())
}

#[test]
fn robust_selection_is_within_10pct_of_brute_force_on_the_degraded_cluster() {
    let job = toy_job();
    let health = ClusterHealth::inter_degraded(2.0);
    let degraded = Job::new(
        job.model.clone(),
        job.cluster.effective(&health).unwrap(),
        job.algo,
    );
    let config = SimConfig::default();

    // Exact optimum for the degraded reality over a small candidate set.
    let space = OptionSpace::enumerate(&degraded.cluster);
    let mut candidates = vec![CompressionOption::uncompressed(
        gpu::default_pattern(&degraded),
        &degraded.cluster,
    )];
    candidates.extend(space.gpu_compressed().iter().take(5).cloned());
    let best = brute::search(&degraded, &candidates, &config, 100_000);

    let selection = RobustSelector::new(job, health).select().unwrap();
    let t_robust = Simulator::new(degraded, config).iteration_time(&selection.strategy);
    let gap = (t_robust - best.iteration_time) / best.iteration_time;
    // The robust selector searches a larger option space than this
    // truncated brute force, so it may even win; it must never lose by
    // more than 10%.
    assert!(
        gap < 0.10,
        "robust {} vs brute {} (gap {:.1}%)",
        t_robust,
        best.iteration_time,
        gap * 100.0
    );
}

#[test]
fn robust_selection_strictly_beats_the_stale_nominal_strategy() {
    // LSTM on a PCIe cluster: the healthy-cluster optimum leans on cheap
    // inter bandwidth; halving it moves the optimum substantially.
    let job = Job::new(
        Model::Lstm.profile(),
        Cluster::pcie_25g(2, 4),
        GcAlgorithm::EfSignSgd,
    );
    let health = ClusterHealth::inter_degraded(2.0);
    let degraded = Job::new(
        job.model.clone(),
        job.cluster.effective(&health).unwrap(),
        job.algo,
    );
    let sim = Simulator::new(degraded, SimConfig::default());

    let (stale, _) = Espresso::new(job.clone()).select_strategy();
    let t_stale = sim.iteration_time(&stale);

    let selection = RobustSelector::new(job, health).select().unwrap();
    let t_robust = sim.iteration_time(&selection.strategy);

    assert!(
        t_robust < t_stale,
        "robust {} did not beat stale {}",
        t_robust,
        t_stale
    );
    // The win is substantial, not a tie-break (observed ~38%).
    assert!(
        t_stale / t_robust > 1.10,
        "robust {} vs stale {}: expected a clear win",
        t_robust,
        t_stale
    );
}
