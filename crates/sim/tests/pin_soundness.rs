//! The checkpoint pin against the simulator it bounds.
//!
//! [`espresso_sim::DeltaSim::pin_bound`] claims, with no margin, that
//! every trial differing from the handle's base only in tensor `k`'s
//! option takes at least `pin_bound(k)`. The planner prunes on that
//! claim, so a pin that overclaims by one ulp could discard a winner.
//! This sweep re-simulates such trials from scratch and asserts
//! `pin_bound(k) <= Simulator::iteration_time(trial)` bit for bit, with
//! no tolerance: for every tensor `k` and every GPU and CPU candidate, at
//! bases taken along a greedy planner run (the same accept loop as
//! Algorithm 1 and the CPU backfill), for the zoo models on PCIe and
//! NVLink clusters of one and two 4-GPU machines, with one CPU slot (a
//! single-server pool, whose FIFO order the pin prices) and with two.
//!
//! Release builds only (`cargo test --release -p espresso-sim --test
//! pin_soundness`): the sweep runs hundreds of thousands of
//! simulations, and debug builds audit every one of them.

use std::sync::Arc;

use espresso_cluster::{Cluster, CommPattern};
use espresso_gc::GcAlgorithm;
use espresso_models::Model;
use espresso_sim::{DeltaSim, Job, SimConfig, Simulator};
use espresso_strategy::{CompressionOption, OptionSpace, Strategy};

/// One greedy pass over the tensors, largest first, offering each the
/// candidates and keeping any strict improvement — the accept loop of
/// Algorithm 1 and the backfill. Returns the bases it passed through:
/// the start and the strategy after each accept.
fn greedy(
    delta: &mut DeltaSim<'_>,
    job: &Job,
    mut base: Strategy,
    candidates: &[Arc<CompressionOption>],
    skip_compressed: bool,
) -> Vec<Strategy> {
    let n = job.num_tensors();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(job.model.tensors[i].elems));
    let mut best = delta.base_time();
    let mut bases = vec![base.clone()];
    for idx in order {
        if skip_compressed && base.option(idx).compresses() {
            continue;
        }
        let mut pick = None;
        for cand in candidates {
            if let Some(t) = delta.eval_swap(idx, cand, best - 1e-12) {
                if t < best - 1e-12 {
                    best = t;
                    pick = Some(cand.clone());
                }
            }
        }
        if let Some(option) = pick {
            base.set_option(idx, option);
            delta.rebase(&base, best);
            bases.push(base.clone());
        }
    }
    bases
}

/// `count` bases spread evenly over `run`, its last one included.
fn spread(run: &[Strategy], count: usize) -> impl Iterator<Item = &Strategy> {
    let last = run.len() - 1;
    (1..=count).map(move |i| &run[i * last / count])
}

/// Checks the pin at every tensor of `base` against a from-scratch run
/// of every trial; returns the number of trials checked.
fn check_base(sim: &Simulator, base: &Strategy, candidates: &[Arc<CompressionOption>]) -> usize {
    let delta = sim.delta(base);
    let mut checked = 0;
    for k in 0..base.len() {
        let pin = delta.pin_bound(k);
        for cand in candidates {
            let mut trial = base.clone();
            trial.set_option(k, cand.clone());
            let f = sim.iteration_time(&trial);
            assert!(
                pin <= f,
                "pin overclaims at tensor {k}: pin={pin} > F={f} for {}",
                cand.describe()
            );
            checked += 1;
        }
    }
    checked
}

/// Sweeps `models` on `cluster` with one and two CPU slots at `per_phase`
/// bases of each planner phase — `None` checks only the strategy the
/// run ends at.
fn sweep(cluster: Cluster, models: &[Model], per_phase: Option<usize>) {
    let space = OptionSpace::enumerate(&cluster);
    let candidates: Vec<Arc<CompressionOption>> = space
        .gpu_compressed()
        .iter()
        .chain(space.cpu_variants())
        .cloned()
        .collect();
    let mut checked = 0;
    for &model in models {
        for cpu_slots in [1, 2] {
            let config = SimConfig {
                cpu_slots,
                ..SimConfig::default()
            };
            let job = Job::new(model.profile(), cluster, GcAlgorithm::dgc_1pct());
            let sim = Simulator::new(job.clone(), config);
            let pattern = if cluster.is_multi_machine() {
                CommPattern::Hierarchical
            } else {
                CommPattern::Flat
            };
            let start = Strategy::uncompressed(job.num_tensors(), pattern, &cluster);
            let mut delta = sim.delta(&start);
            let gpu_run = greedy(&mut delta, &job, start, space.gpu_compressed(), false);
            let end = gpu_run.last().expect("a run has a start").clone();
            let cpu_run = greedy(&mut delta, &job, end, space.cpu_variants(), true);
            drop(delta);
            let mut bases: Vec<&Strategy> = match per_phase {
                Some(count) => spread(&gpu_run, count)
                    .chain(spread(&cpu_run, count))
                    .collect(),
                None => cpu_run.last().into_iter().collect(),
            };
            bases.dedup();
            for base in bases {
                checked += check_base(&sim, base, &candidates);
            }
        }
    }
    assert!(checked > 0);
}

#[test]
#[cfg_attr(debug_assertions, ignore = "release builds only")]
fn pin_never_overclaims_on_pcie_1x4() {
    sweep(Cluster::pcie_25g(1, 4), &Model::ALL, Some(2));
}

#[test]
#[cfg_attr(debug_assertions, ignore = "release builds only")]
fn pin_never_overclaims_on_nvlink_1x4() {
    sweep(Cluster::nvlink_100g(1, 4), &Model::ALL, Some(2));
}

#[test]
#[cfg_attr(debug_assertions, ignore = "release builds only")]
fn pin_never_overclaims_on_pcie_2x4() {
    sweep(Cluster::pcie_25g(2, 4), &Model::ALL, None);
}

#[test]
#[cfg_attr(debug_assertions, ignore = "release builds only")]
fn pin_never_overclaims_on_nvlink_2x4() {
    sweep(Cluster::nvlink_100g(2, 4), &Model::ALL, None);
}
