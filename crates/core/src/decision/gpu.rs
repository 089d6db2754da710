//! Algorithm 1: Espresso's GPU compression decision algorithm.
//!
//! ```text
//! Main():
//!   sort tensors in descending size order, group by size          (P#2)
//!   sort each group by ascending distance to the output layer     (P#2)
//!   Remove(S, G)                                                  (P#1)
//!   for each group, for each tensor:
//!     S = GetBestOption(S, idx)                                   (P#3)
//!     Remove(S, G)                                                (P#1)
//! ```
//!
//! * **Property #1** — tensors communicated before bubbles gain nothing
//!   from compression (shrinking their communication only widens the gap)
//!   and are ruled out; compressing a tensor can create *new* bubbles, so
//!   `Remove` reruns after every decision.
//! * **Property #2** — larger tensors benefit more (the kernel-launch
//!   constant amortizes, Figure 10) and tensors closer to the output layer
//!   benefit more (their compression overlaps more communication and their
//!   communication overlaps less computation, Figure 9(c)).
//! * **Property #3** — candidates are ranked by the *iteration time* of
//!   the whole timeline (which prices overheads, not wall-clock sums):
//!   `GetBestOption` simulates every candidate strategy and keeps the
//!   argmin.

use std::collections::HashSet;
use std::sync::Arc;

use espresso_cluster::CommPattern;
use espresso_sim::{Job, SimConfig, Simulator};
use espresso_strategy::{CompressionOption, OptionSpace, Strategy};

/// Outcome of Algorithm 1.
#[derive(Debug, Clone)]
pub struct GpuDecision {
    /// The selected strategy (GPU compression only).
    pub strategy: Strategy,
    /// Its iteration time.
    pub iteration_time: f64,
    /// Tensors ruled out by bubble analysis over the course of the run.
    pub ruled_out: Vec<usize>,
    /// Number of candidate simulations performed.
    pub simulations: usize,
}

/// The default no-compression option for `job`'s cluster: hierarchical
/// when the topology has both levels (the BytePS deployment of the paper),
/// flat otherwise.
pub fn default_pattern(job: &Job) -> CommPattern {
    if job.cluster.is_multi_machine() {
        CommPattern::Hierarchical
    } else {
        CommPattern::Flat
    }
}

/// Runs Algorithm 1 with the GPU-only candidate set `C_gpu` drawn from
/// `space`.
pub fn decide(job: &Job, space: &OptionSpace, config: &SimConfig) -> GpuDecision {
    decide_with_candidates(job, space.gpu_compressed(), config)
}

/// Runs the Algorithm 1 loop with an arbitrary compressed-candidate set —
/// also the engine behind the crippled-dimension mechanisms of Figure 15.
pub fn decide_with_candidates(
    job: &Job,
    candidates: &[Arc<CompressionOption>],
    config: &SimConfig,
) -> GpuDecision {
    let sim = Simulator::new(job.clone(), *config);
    decide_with_simulator(&sim, candidates)
}

/// Algorithm 1 against a shared (cached) simulator.
///
/// The greedy sweep is iterated to a fixed point (at most four passes):
/// a tensor whose compression did not pay while its neighbours were still
/// uncompressed is revisited once the channel load has changed — a cheap
/// extension over the paper's single pass that escapes plateaus on
/// many-tensor models. Bubble rule-outs reset between passes because the
/// bubble structure itself changes.
///
/// Within a size group, the paper's Property #2 prioritizes the tensor
/// "closest to the output layer" (produced last in backward propagation,
/// per Figure 9(c)); but deciding late tensors first lets their bubbles
/// rule out the early ones prematurely, so the sweep *alternates* the
/// within-group direction across passes — earliest-produced first on even
/// passes, latest-produced first on odd ones. Acceptance is monotone in
/// `F(S)`, so alternation can only improve the result.
pub fn decide_with_simulator(
    sim: &Simulator,
    candidates: &[Arc<CompressionOption>],
) -> GpuDecision {
    let job = sim.job();
    let n = job.num_tensors();
    let mut strategy = Strategy::uncompressed(n, default_pattern(job), &job.cluster);
    let mut simulations = 0usize;

    // Lines 2-3: group tensors by size (descending); the within-group
    // direction alternates per pass (see the function docs).
    let order_for_pass = |pass: usize| -> Vec<usize> {
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&a, &b| {
            let (sa, sb) = (job.model.tensors[a].elems, job.model.tensors[b].elems);
            let tie = if pass.is_multiple_of(2) { a.cmp(&b) } else { b.cmp(&a) };
            sb.cmp(&sa).then(tie)
        });
        order
    };

    // Deduplicate candidates per tensor size: options whose annotated task
    // chains coincide for that size are behaviourally identical, so only
    // one representative needs simulating. This is a pure optimization —
    // it cannot change the argmin.
    let mut dedup_cache: std::collections::HashMap<usize, Vec<Arc<CompressionOption>>> =
        std::collections::HashMap::new();

    let remove = |strategy: &Strategy,
                  ruled_out: &mut HashSet<usize>,
                  simulations: &mut usize| {
        let result = sim.simulate(strategy);
        *simulations += 1;
        for t in result.tensors_before_bubbles() {
            if !strategy.option(t).compresses() {
                ruled_out.insert(t);
            }
        }
    };

    let mut best_time = sim.iteration_time(&strategy);
    simulations += 1;
    let mut all_ruled: HashSet<usize> = HashSet::new();

    const MAX_PASSES: usize = 4;
    for pass in 0..MAX_PASSES {
        let pass_start_time = best_time;
        let order = order_for_pass(pass);
        // Line 4: bubble analysis at the start of each pass.
        let mut ruled_out: HashSet<usize> = HashSet::new();
        remove(&strategy, &mut ruled_out, &mut simulations);

        for &idx in &order {
            if ruled_out.contains(&idx) {
                continue;
            }
            let elems = job.model.tensors[idx].elems;
            let deduped = dedup_cache
                .entry(elems)
                .or_insert_with(|| dedup_for_size(candidates, elems, job))
                .clone();

            // GetBestOption: try each candidate option for this tensor
            // while holding every other tensor fixed; keep the best by
            // F(S). The current (possibly uncompressed) option is the
            // implicit incumbent.
            let mut best_option: Option<Arc<CompressionOption>> = None;
            for cand in &deduped {
                if cand == strategy.option(idx) {
                    continue;
                }
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
                // Line 8: compression may create new bubbles; re-rule-out.
                remove(&strategy, &mut ruled_out, &mut simulations);
            }
        }
        all_ruled.extend(ruled_out.iter().copied());
        // Fixed point — but always give the flipped direction one try.
        if pass >= 1 && best_time >= pass_start_time - 1e-12 {
            break;
        }
    }

    let mut ruled: Vec<usize> = all_ruled.into_iter().collect();
    ruled.sort_unstable();
    GpuDecision {
        iteration_time: best_time,
        strategy,
        ruled_out: ruled,
        simulations,
    }
}

/// Algorithm 1 on the planner fast path.
///
/// Byte-compatible with [`decide_with_simulator`]: identical trial
/// enumeration (same pass order, dedup, rule-outs, and skip rules),
/// identical accept tests, and identical `simulations` counting — the
/// `espresso-audit decide` differential sweep asserts the outputs match
/// bit for bit. The speed comes from *how* each trial is priced:
/// suffix-only re-simulation against the evolving incumbent
/// ([`espresso_sim::DeltaSim`], re-anchored after every accept),
/// certified lower-bound pruning (a pruned trial provably cannot pass
/// the accept test, so skipping its simulation changes nothing), and an
/// exact memo over repeated candidate timelines.
pub fn decide_fast(sim: &Simulator, candidates: &[Arc<CompressionOption>]) -> GpuDecision {
    let job = sim.job();
    let n = job.num_tensors();
    // The all-uncompressed start, built from the option table's own
    // `Arc` so the block interner keys it by table index.
    let mut strategy = crate::baselines::fp32(job);
    let mut simulations = 0usize;

    let order_for_pass = |pass: usize| -> Vec<usize> {
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&a, &b| {
            let (sa, sb) = (job.model.tensors[a].elems, job.model.tensors[b].elems);
            let tie = if pass.is_multiple_of(2) { a.cmp(&b) } else { b.cmp(&a) };
            sb.cmp(&sa).then(tie)
        });
        order
    };

    let mut dedup_cache: std::collections::HashMap<usize, Vec<Arc<CompressionOption>>> =
        std::collections::HashMap::new();

    let remove = |delta: &espresso_sim::DeltaSim<'_>,
                  strategy: &Strategy,
                  ruled_out: &mut HashSet<usize>,
                  simulations: &mut usize| {
        let result = delta.simulate(strategy);
        *simulations += 1;
        for t in result.tensors_before_bubbles() {
            if !strategy.option(t).compresses() {
                ruled_out.insert(t);
            }
        }
    };

    let mut best_time = sim.iteration_time(&strategy);
    simulations += 1;
    let mut delta = sim.delta(&strategy);
    let mut all_ruled: HashSet<usize> = HashSet::new();

    const MAX_PASSES: usize = 4;
    for pass in 0..MAX_PASSES {
        let pass_start_time = best_time;
        let order = order_for_pass(pass);
        let mut ruled_out: HashSet<usize> = HashSet::new();
        remove(&delta, &strategy, &mut ruled_out, &mut simulations);

        for &idx in &order {
            if ruled_out.contains(&idx) {
                continue;
            }
            let elems = job.model.tensors[idx].elems;
            let deduped = dedup_cache
                .entry(elems)
                .or_insert_with(|| dedup_for_size(candidates, elems, job));

            let best_option = crate::decision::best_swap(
                &delta,
                &strategy,
                idx,
                deduped,
                true,
                &mut best_time,
                &mut simulations,
            );
            if let Some(opt) = best_option {
                strategy.set_option(idx, opt);
                remove(&delta, &strategy, &mut ruled_out, &mut simulations);
                delta.rebase(&strategy, best_time);
            }
        }
        all_ruled.extend(ruled_out.iter().copied());
        if pass >= 1 && best_time >= pass_start_time - 1e-12 {
            break;
        }
    }

    let mut ruled: Vec<usize> = all_ruled.into_iter().collect();
    ruled.sort_unstable();
    GpuDecision {
        iteration_time: best_time,
        strategy,
        ruled_out: ruled,
        simulations,
    }
}

/// A forced-compression variant of Algorithm 1: every tensor starts from
/// `init` (compressed) and may only move between compressed candidates --
/// the "All compression" mechanism of Figure 15(a), which cripples
/// Dimension 1.
pub fn decide_forced_with_simulator(
    sim: &Simulator,
    candidates: &[Arc<CompressionOption>],
    init: Arc<CompressionOption>,
) -> GpuDecision {
    assert!(init.compresses(), "forced-compression init must compress");
    let job = sim.job();
    let n = job.num_tensors();
    let mut strategy = Strategy::uniform(n, init);
    let mut simulations = 0usize;

    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| {
        let (sa, sb) = (job.model.tensors[a].elems, job.model.tensors[b].elems);
        sb.cmp(&sa).then(b.cmp(&a))
    });
    let mut best_time = sim.iteration_time(&strategy);
    simulations += 1;
    for &idx in &order {
        let mut best_option: Option<Arc<CompressionOption>> = None;
        for cand in candidates {
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
        }
    }
    GpuDecision {
        iteration_time: best_time,
        strategy,
        ruled_out: Vec::new(),
        simulations,
    }
}

/// Keeps one representative per behaviourally-distinct candidate for a
/// tensor of `elems` elements: two options whose annotated work sequences
/// are identical produce identical timelines.
fn dedup_for_size(
    candidates: &[Arc<CompressionOption>],
    elems: usize,
    job: &Job,
) -> Vec<Arc<CompressionOption>> {
    let mut seen: HashSet<Vec<(u8, u64)>> = HashSet::new();
    let mut out = Vec::new();
    for cand in candidates {
        let sig: Vec<(u8, u64)> = cand
            .annotate(elems, job.algo, &job.cluster)
            .iter()
            .map(|a| match a.work {
                espresso_strategy::Work::Compute { device, kind, elems, .. } => (
                    match (device, kind) {
                        (espresso_gc::Device::Gpu, _) => 0u8,
                        (espresso_gc::Device::Cpu, _) => 1u8,
                    } + match kind {
                        espresso_strategy::option::ComputeKind::Compress => 0,
                        espresso_strategy::option::ComputeKind::Decompress => 10,
                        espresso_strategy::option::ComputeKind::Aggregate => 20,
                    },
                    elems as u64,
                ),
                espresso_strategy::Work::Comm {
                    scope,
                    routine,
                    contrib_bytes,
                } => (
                    100 + scope as u8 * 10 + routine as u8,
                    contrib_bytes.round() as u64,
                ),
                espresso_strategy::Work::Free => (255, 0),
            })
            .collect();
        if seen.insert(sig) {
            out.push(cand.clone());
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use espresso_cluster::Cluster;
    use espresso_gc::GcAlgorithm;
    use espresso_models::Model;

    fn job() -> Job {
        Job::new(
            Model::Lstm.profile(),
            Cluster::pcie_25g(8, 8),
            GcAlgorithm::dgc_1pct(),
        )
    }

    #[test]
    fn decision_never_loses_to_fp32() {
        let j = job();
        let space = OptionSpace::enumerate(&j.cluster);
        let d = decide(&j, &space, &SimConfig::default());
        let fp32 = Strategy::uncompressed(j.num_tensors(), default_pattern(&j), &j.cluster);
        let fp32_time = crate::decision::iteration_time(&j, &fp32, &SimConfig::default());
        assert!(
            d.iteration_time <= fp32_time + 1e-12,
            "espresso {} vs fp32 {}",
            d.iteration_time,
            fp32_time
        );
    }

    #[test]
    fn communication_bound_job_gets_compression() {
        // LSTM on PCIe/25G is communication-bound: Algorithm 1 must find
        // at least one tensor worth compressing.
        let j = job();
        let space = OptionSpace::enumerate(&j.cluster);
        let d = decide(&j, &space, &SimConfig::default());
        assert!(d.strategy.num_compressed() > 0);
    }

    #[test]
    fn selected_options_are_gpu_only() {
        let j = job();
        let space = OptionSpace::enumerate(&j.cluster);
        let d = decide(&j, &space, &SimConfig::default());
        for (_, opt) in d.strategy.iter() {
            assert!(opt.gpu_only());
        }
    }

    #[test]
    fn dedup_is_conservative() {
        // Dedup must keep at least one representative of each distinct
        // behaviour and never return more options than it was given.
        let j = job();
        let space = OptionSpace::enumerate(&j.cluster);
        let gpu = space.gpu_compressed();
        let dd = dedup_for_size(gpu, 1_000_000, &j);
        assert!(!dd.is_empty());
        assert!(dd.len() <= gpu.len());
    }

    #[test]
    fn decision_is_deterministic() {
        let j = job();
        let space = OptionSpace::enumerate(&j.cluster);
        let a = decide(&j, &space, &SimConfig::default());
        let b = decide(&j, &space, &SimConfig::default());
        assert_eq!(a.iteration_time, b.iteration_time);
        assert_eq!(a.strategy, b.strategy);
    }
}
