//! The brute-force differential oracle (section 4.4.1 made public).
//!
//! The paper's near-optimality claim (Table 3) is only checkable against
//! an exhaustive enumeration of the decision space. Naive enumeration
//! costs `O(|C|^N)` — the ">24h" rows of Tables 5 and 6 — so the oracle
//! is usable only on toy instances, which is exactly how the audit layer
//! uses it: sample many *small* jobs, compute the true optimum, and
//! verify Algorithms 1 + 2 land within a configured bound.
//!
//! ## Pruning-rule parity
//!
//! The oracle draws its per-tensor candidates from the same
//! [`OptionSpace`] the real selector searches. The three pruning rules of
//! section 4.2.2 (valid task connections only, communication emitted at
//! its correct step, paired first/second collectives) are *structural* in
//! that tree — see `espresso_strategy::tree` — so the oracle's universe
//! is the pruned space `C`, never the unpruned superset. The
//! [`space_size`] helper exposes |C| so tests can pin parity with
//! `crates/strategy/tests/space_size.rs`.
//!
//! ## Objectives
//!
//! [`search`] minimizes the nominal iteration time `F(S)`.
//! [`search_with_objective`] accepts any strategy → time objective, which
//! the audit crate uses to search under seeded [fault plans] and degraded
//! clusters (the objective simulates with `iteration_time_with_faults`).
//!
//! [fault plans]: espresso_sim::FaultPlan

use std::sync::Arc;

use espresso_cluster::Cluster;
use espresso_gc::Device;
use espresso_sim::{Job, SimConfig, Simulator};
use espresso_strategy::{CompressionOption, OptionSpace, Strategy};

/// Result of an exhaustive search.
#[derive(Debug, Clone)]
pub struct BruteResult {
    /// The optimal strategy over the candidate set.
    pub strategy: Strategy,
    /// Its objective value (nominal iteration time for [`search`]).
    pub iteration_time: f64,
    /// Strategies evaluated.
    pub evaluated: usize,
}

/// |C| of the pruned option tree for `cluster` — the oracle's candidate
/// universe, byte-for-byte the space Algorithm 1 draws from.
pub fn space_size(cluster: &Cluster) -> usize {
    OptionSpace::enumerate(cluster).len()
}

/// A small, deterministic candidate set for oracle searches: the
/// uncompressed baseline, the first `max_gpu` GPU-compressed options of
/// the pruned space, and the CPU variant of each offloadable one — so the
/// oracle's optimum ranges over compression, placement, and offloading
/// exactly as Algorithms 1 + 2 do, at a size where `|candidates|^N` stays
/// enumerable.
pub fn pruned_candidates(job: &Job, max_gpu: usize) -> Vec<Arc<CompressionOption>> {
    let space = OptionSpace::enumerate(&job.cluster);
    let mut candidates = vec![CompressionOption::uncompressed(
        crate::decision::gpu::default_pattern(job),
        &job.cluster,
    )];
    let gpu_opts = space.gpu_compressed();
    candidates.extend(gpu_opts.iter().take(max_gpu).cloned());
    // CPU variants of the same options (Algorithm 2's moves).
    let cpu: Vec<_> = gpu_opts
        .iter()
        .take(max_gpu)
        .map(|o| o.with_device(Device::Cpu))
        .collect();
    candidates.extend(cpu);
    candidates.dedup();
    candidates
}

/// Exhaustively searches all `|candidates|^N` strategies against an
/// arbitrary objective (lower is better).
///
/// # Panics
///
/// Panics if the search space exceeds `limit` — call sites must keep this
/// to toy instances (the whole point of Espresso is that this explodes).
pub fn search_with_objective(
    num_tensors: usize,
    candidates: &[Arc<CompressionOption>],
    limit: usize,
    mut objective: impl FnMut(&Strategy) -> f64,
) -> BruteResult {
    assert!(!candidates.is_empty(), "empty candidate set");
    let total = (candidates.len() as f64).powi(num_tensors as i32);
    assert!(
        total <= limit as f64,
        "brute-force space {total:.3e} exceeds limit {limit}"
    );
    let mut counters = vec![0usize; num_tensors];
    let mut best: Option<(f64, Strategy)> = None;
    let mut evaluated = 0usize;
    loop {
        let strategy = Strategy::from_options(
            counters.iter().map(|&c| candidates[c].clone()).collect(),
        );
        let t = objective(&strategy);
        evaluated += 1;
        if best.as_ref().is_none_or(|(bt, _)| t < *bt) {
            best = Some((t, strategy));
        }
        // Odometer.
        let mut i = 0;
        loop {
            if i == num_tensors {
                let (iteration_time, strategy) = best.expect("at least one strategy evaluated");
                return BruteResult {
                    strategy,
                    iteration_time,
                    evaluated,
                };
            }
            counters[i] += 1;
            if counters[i] < candidates.len() {
                break;
            }
            counters[i] = 0;
            i += 1;
        }
    }
}

/// Exhaustively searches all `|candidates|^N` strategies for the nominal
/// iteration-time optimum.
///
/// # Panics
///
/// Panics if the search space exceeds `limit`.
pub fn search(
    job: &Job,
    candidates: &[Arc<CompressionOption>],
    config: &SimConfig,
    limit: usize,
) -> BruteResult {
    let sim = Simulator::new(job.clone(), *config);
    search_with_objective(job.num_tensors(), candidates, limit, |s| {
        sim.iteration_time(s)
    })
}

/// Estimates the wall-clock time a full brute-force search would take, by
/// timing `sample` simulations and extrapolating to `|C|^N` — how the
/// ">24h" entries of Table 5 are produced.
pub fn estimate_full_search_seconds(
    job: &Job,
    candidates: &[Arc<CompressionOption>],
    config: &SimConfig,
    sample: usize,
) -> f64 {
    assert!(sample > 0, "need at least one sample simulation");
    let sim = Simulator::new(job.clone(), *config);
    let strategy = Strategy::uniform(job.num_tensors(), candidates[0].clone());
    let start = std::time::Instant::now();
    for _ in 0..sample {
        let _ = sim.iteration_time(&strategy);
    }
    let per_sim = start.elapsed().as_secs_f64() / sample as f64;
    per_sim * (candidates.len() as f64).powi(job.num_tensors() as i32)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decision::gpu;
    use espresso_gc::GcAlgorithm;
    use espresso_models::{ModelKind, ModelProfile, TensorProfile};

    /// A 3-tensor toy model (the shape of the paper's Figure 2).
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
        Job::new(model, Cluster::pcie_25g(4, 4), GcAlgorithm::dgc_1pct())
    }

    #[test]
    fn space_size_matches_strategy_space_size_report() {
        // Pinned against crates/strategy/tests/space_size.rs: the oracle
        // and the selector must enumerate the same pruned tree. If the
        // tree changes, update BOTH files in the same commit.
        assert_eq!(space_size(&Cluster::nvlink_100g(8, 8)), 3005);
        assert_eq!(space_size(&Cluster::pcie_25g(8, 8)), 3005);
        assert_eq!(space_size(&Cluster::nvlink_100g(1, 8)), 105);
        assert_eq!(space_size(&Cluster::nvlink_100g(8, 1)), 110);
    }

    #[test]
    fn pruned_candidates_come_from_the_pruned_space() {
        let job = toy_job();
        let space = OptionSpace::enumerate(&job.cluster);
        let candidates = pruned_candidates(&job, 5);
        // Uncompressed baseline + 5 GPU options + their CPU variants.
        assert!(candidates.len() > 1);
        for c in &candidates {
            // Every candidate validates against the cluster (same check
            // the tree applies to every member of C).
            c.validate(&job.cluster).unwrap();
        }
        // The GPU-compressed members are literal members of C.
        for c in candidates.iter().filter(|c| c.gpu_only() && c.compresses()) {
            assert!(
                space.all().iter().any(|o| **o == **c),
                "{} not in the pruned space",
                c.describe()
            );
        }
    }

    #[test]
    fn espresso_is_close_to_brute_force_optimum() {
        let job = toy_job();
        let config = SimConfig::default();
        let space = OptionSpace::enumerate(&job.cluster);
        // Small candidate set: the uncompressed baseline plus a handful of
        // distinct GPU options.
        let mut candidates = vec![CompressionOption::uncompressed(
            gpu::default_pattern(&job),
            &job.cluster,
        )];
        let gpu_opts = space.gpu_compressed();
        candidates.extend(gpu_opts.iter().take(5).cloned());
        let brute = search(&job, &candidates, &config, 100_000);
        let esp = gpu::decide_with_candidates(&job, gpu_opts, &config);
        let gap = (esp.iteration_time - brute.iteration_time) / brute.iteration_time;
        // Espresso searches a *larger* candidate set than this truncated
        // brute force, so it may even win; it must never lose by much.
        assert!(gap < 0.10, "gap {gap} (esp {} vs brute {})", esp.iteration_time, brute.iteration_time);
    }

    #[test]
    fn brute_force_beats_or_matches_any_uniform_strategy() {
        let job = toy_job();
        let config = SimConfig::default();
        let space = OptionSpace::enumerate(&job.cluster);
        let candidates: Vec<_> = space.gpu_compressed()[..3].to_vec();
        let brute = search(&job, &candidates, &config, 100_000);
        for c in &candidates {
            let uniform = Strategy::uniform(job.num_tensors(), c.clone());
            let t = crate::decision::iteration_time(&job, &uniform, &config);
            assert!(brute.iteration_time <= t + 1e-12);
        }
    }

    #[test]
    fn faulted_objective_finds_a_faulted_optimum() {
        use espresso_sim::FaultPlan;
        let job = toy_job();
        let config = SimConfig::default();
        let candidates = pruned_candidates(&job, 3);
        let plan = FaultPlan::from_seed(11, job.cluster.total_gpus());
        let sim = Simulator::new(job.clone(), config);
        let faulted = search_with_objective(job.num_tensors(), &candidates, 2_000_000, |s| {
            sim.iteration_time_with_faults(s, &plan)
        });
        // The faulted optimum is optimal *for the faulted objective*:
        // no uniform candidate strategy beats it there.
        for c in &candidates {
            let uniform = Strategy::uniform(job.num_tensors(), c.clone());
            let t = sim.iteration_time_with_faults(&uniform, &plan);
            assert!(faulted.iteration_time <= t + 1e-12);
        }
    }

    #[test]
    fn estimate_extrapolates_exponentially() {
        let job = toy_job();
        let space = OptionSpace::enumerate(&job.cluster);
        let candidates: Vec<_> = space.gpu_compressed()[..4].to_vec();
        let est = estimate_full_search_seconds(&job, &candidates, &SimConfig::default(), 5);
        assert!(est > 0.0 && est.is_finite());
    }

    #[test]
    #[should_panic(expected = "exceeds limit")]
    fn oversized_space_panics() {
        let job = toy_job();
        let space = OptionSpace::enumerate(&job.cluster);
        let candidates = space.gpu_compressed();
        let _ = search(&job, candidates, &SimConfig::default(), 10);
    }
}
