//! CPU backfill: a third decision phase extending the paper's two-phase
//! algorithm.
//!
//! Algorithm 1 only considers GPU options and Algorithm 2 only offloads
//! tensors Algorithm 1 chose to compress ("tensors with no compression are
//! ruled out for CPU offloading", section 4.4.3). Under cost regimes where
//! GPU compression of a tensor never pays (e.g. top-k kernels with large
//! launch overheads contending with a busy backward pass) but
//! contention-free CPU compression would, the two-phase search leaves
//! throughput on the table.
//!
//! This pass walks the still-uncompressed tensors in Algorithm 1's
//! priority order and offers each the CPU-compressed candidates, keeping
//! any strict improvement of `F(S)`. It is monotone — the strategy only
//! changes when the simulated iteration time drops — so it preserves every
//! guarantee of the first two phases while closing the gap to the Upper
//! Bound. Documented as an extension in `DESIGN.md`.

use std::sync::Arc;

use espresso_sim::{Simulator, TrialCounts};
use espresso_strategy::{CompressionOption, Strategy};

/// Outcome of the backfill pass.
#[derive(Debug, Clone)]
pub struct RefineDecision {
    /// The refined strategy.
    pub strategy: Strategy,
    /// Its iteration time.
    pub iteration_time: f64,
    /// Tensors newly compressed (on CPU) by this pass.
    pub backfilled: Vec<usize>,
    /// Candidate simulations performed.
    pub simulations: usize,
    /// How the fast path's trials ended (all zero on the reference
    /// path) — measurement only, never part of the selection's report.
    pub trials: TrialCounts,
}

/// Runs the CPU backfill over `base`, offering each uncompressed tensor
/// the candidates `cpu` — the space's deduplicated CPU variants
/// ([`espresso_strategy::OptionSpace::cpu_variants`]), in order.
pub fn cpu_backfill(
    sim: &Simulator,
    base: &Strategy,
    cpu: &[Arc<CompressionOption>],
) -> RefineDecision {
    let job = sim.job();
    let n = job.num_tensors();

    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| {
        let (sa, sb) = (job.model.tensors[a].elems, job.model.tensors[b].elems);
        sb.cmp(&sa).then(b.cmp(&a))
    });

    let mut strategy = base.clone();
    let mut best_time = sim.iteration_time(&strategy);
    let mut simulations = 1usize;
    let mut backfilled = Vec::new();
    for &idx in &order {
        if strategy.option(idx).compresses() {
            continue;
        }
        let mut best_option: Option<Arc<CompressionOption>> = None;
        for cand in cpu {
            let mut trial = strategy.clone();
            trial.set_option(idx, cand.clone());
            let t = sim.iteration_time(&trial);
            simulations += 1;
            if t < best_time - 1e-12 {
                best_time = t;
                best_option = Some(cand.clone());
            }
        }
        if let Some(opt) = best_option {
            strategy.set_option(idx, opt);
            backfilled.push(idx);
        }
    }
    RefineDecision {
        strategy,
        iteration_time: best_time,
        backfilled,
        simulations,
        trials: TrialCounts::default(),
    }
}

/// The backfill pass on the planner fast path — byte-compatible with
/// [`cpu_backfill`] (the differential sweep enforces it), with the same
/// delta-pricing and pruning as the fast Algorithm 1. The reference loop never skips a candidate equal to the
/// incumbent option (an uncompressed incumbent is never in the
/// CPU-compressed candidate set), so `best_swap` runs with
/// `skip_current` off to keep the simulation counts aligned.
pub fn cpu_backfill_fast(
    sim: &Simulator,
    base: &Strategy,
    cpu: &[Arc<CompressionOption>],
) -> RefineDecision {
    let job = sim.job();
    let n = job.num_tensors();

    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| {
        let (sa, sb) = (job.model.tensors[a].elems, job.model.tensors[b].elems);
        sb.cmp(&sa).then(b.cmp(&a))
    });

    let mut strategy = base.clone();
    let mut best_time = sim.iteration_time(&strategy);
    let mut delta = sim.delta(&strategy);
    let mut simulations = 1usize;
    let mut backfilled = Vec::new();
    for &idx in &order {
        if strategy.option(idx).compresses() {
            continue;
        }
        let best_option = crate::decision::best_swap(
            &delta,
            &strategy,
            idx,
            cpu,
            false,
            &mut best_time,
            &mut simulations,
        );
        if let Some(opt) = best_option {
            strategy.set_option(idx, opt);
            backfilled.push(idx);
            delta.rebase(&strategy, best_time);
        }
    }
    RefineDecision {
        strategy,
        iteration_time: best_time,
        backfilled,
        simulations,
        trials: delta.counts(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decision::{gpu, offload};
    use espresso_cluster::Cluster;
    use espresso_gc::GcAlgorithm;
    use espresso_models::Model;
    use espresso_sim::{Job, SimConfig};
    use espresso_strategy::OptionSpace;

    #[test]
    fn backfill_never_hurts_and_only_adds_cpu_options() {
        let job = Job::new(
            Model::Vgg16.profile(),
            Cluster::pcie_25g(8, 8),
            GcAlgorithm::dgc_1pct(),
        );
        let sim = Simulator::new(job.clone(), SimConfig::default());
        let space = OptionSpace::enumerate(&job.cluster);
        let g = gpu::decide_with_simulator(&sim, space.gpu_compressed());
        let off = offload::decide_with_simulator(&sim, &g.strategy, 100_000);
        let refined = cpu_backfill(&sim, &off.strategy, space.cpu_variants());
        assert!(refined.iteration_time <= off.iteration_time + 1e-12);
        for &t in &refined.backfilled {
            assert!(!off.strategy.option(t).compresses());
            assert!(refined.strategy.option(t).compresses());
            assert!(!refined.strategy.option(t).gpu_only());
        }
    }

    #[test]
    fn certificates_prune_most_of_the_resnet101_backfill() {
        // ResNet101 on one 4-GPU PCIe machine: the backfill offers every
        // CPU option to ~300 uncompressed tensors, and nearly every trial
        // can only tie the incumbent. The checkpoint pin certifies those
        // ties; without it only a handful of trials are pruned.
        let job = Job::new(
            Model::ResNet101.profile(),
            Cluster::pcie_25g(1, 4),
            GcAlgorithm::dgc_1pct(),
        );
        let sim = Simulator::new(job.clone(), SimConfig::default());
        let space = OptionSpace::enumerate(&job.cluster);
        let g = gpu::decide_fast(&sim, space.gpu_compressed());
        let off = offload::decide_fast(&sim, &g.strategy, 150_000);
        let refined = cpu_backfill_fast(&sim, &off.strategy, space.cpu_variants());
        let t = refined.trials;
        let certified = t.pruned_static + t.pruned_pin;
        assert!(t.trials() > 1000, "{t:?}");
        assert!(
            certified * 10 >= t.trials() * 9,
            "only {certified} of {} backfill trials pruned: {t:?}",
            t.trials()
        );
    }

    #[test]
    fn the_fifo_pin_certifies_every_vgg16_backfill_tie() {
        // VGG16 on one 4-GPU PCIe machine under DGC: no backfill trial
        // beats the incumbent, whose makespan the GPU's FIFO order holds
        // — the GPU kernels queued behind each compute delay the next
        // one. The dependency-only pin ignored that order and certified
        // none of the 389 trials the static bounds leave; the FIFO-aware
        // pin certifies all of them, so no trial runs.
        let job = Job::new(
            Model::Vgg16.profile(),
            Cluster::pcie_25g(1, 4),
            GcAlgorithm::dgc_1pct(),
        );
        let sim = Simulator::new(job.clone(), SimConfig::default());
        let space = OptionSpace::enumerate(&job.cluster);
        let g = gpu::decide_fast(&sim, space.gpu_compressed());
        let off = offload::decide_fast(&sim, &g.strategy, 150_000);
        let refined = cpu_backfill_fast(&sim, &off.strategy, space.cpu_variants());
        let t = refined.trials;
        assert_eq!(t.pruned_pin, 389, "{t:?}");
        assert_eq!(t.trials(), t.pruned_static + t.pruned_pin, "{t:?}");
        assert!(refined.backfilled.is_empty());
    }

    #[test]
    fn backfill_is_a_noop_when_everything_is_compressed() {
        let job = Job::new(
            Model::Lstm.profile(),
            Cluster::nvlink_100g(4, 4),
            GcAlgorithm::EfSignSgd,
        );
        let sim = Simulator::new(job.clone(), SimConfig::default());
        let space = OptionSpace::enumerate(&job.cluster);
        let all = Strategy::uniform(
            job.num_tensors(),
            space.gpu_compressed()[0].clone(),
        );
        let refined = cpu_backfill(&sim, &all, space.cpu_variants());
        assert!(refined.backfilled.is_empty());
        assert_eq!(refined.strategy, all);
    }
}
