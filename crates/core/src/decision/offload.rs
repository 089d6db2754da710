//! Algorithm 2: Espresso's CPU offloading (section 4.4.3).
//!
//! After Algorithm 1, the compressed tensors `T_gpu` are grouped by
//! `(size, compression option)`. **Lemma 1**: if `q` tensors of a group
//! must be offloaded to CPUs, the best choice is the `q` tensors
//! *farthest from the output layer* — in the paper's Figure 9
//! orientation these are the tensors produced *earliest* in backward
//! propagation, whose CPU compression starts early and therefore
//! overlaps the most remaining computation and communication. The search
//! space collapses from `2^|T_gpu|` to one offload count per group
//! (Theorem 1).
//!
//! Robustness extension: under some cost regimes the better prefix runs
//! from the *other* end of the group (a late tensor's GPU compression may
//! sit on the exposed tail where the CPU is the better home), so the
//! traversal considers contiguous prefixes from **both** ends of each
//! group — `2|G_i| + 1` choices per group instead of `|G_i| + 1`, still
//! polynomial and strictly more expressive than the paper's rule.

use std::sync::Arc;

use espresso_sim::{Job, SimConfig, Simulator};
use espresso_strategy::{CompressionOption, OptionSpace, Strategy};

/// Outcome of Algorithm 2.
#[derive(Debug, Clone)]
pub struct OffloadDecision {
    /// The strategy with the optimal offload applied.
    pub strategy: Strategy,
    /// Its iteration time.
    pub iteration_time: f64,
    /// Tensors whose compression moved to the CPU.
    pub offloaded: Vec<usize>,
    /// Number of offload combinations evaluated (`prod(|G_i| + 1)`).
    pub combinations: usize,
}

/// A Lemma 1 group: tensors sharing size and compression option, in
/// backward production order (earliest-produced first — the paper's
/// "farthest from the output layer", the preferred offload end).
#[derive(Debug, Clone)]
pub struct OffloadGroup {
    /// Tensor indices in backward production order.
    pub tensors: Vec<usize>,
    /// The shared (GPU) option.
    pub option: Arc<CompressionOption>,
}

/// Groups the compressed tensors of `strategy` per Lemma 1.
pub fn lemma1_groups(job: &Job, strategy: &Strategy) -> Vec<OffloadGroup> {
    let mut map: std::collections::BTreeMap<(usize, Arc<CompressionOption>), Vec<usize>> =
        std::collections::BTreeMap::new();
    for (idx, opt) in strategy.iter() {
        if opt.compresses() {
            map.entry((job.model.tensors[idx].elems, opt.clone()))
                .or_default()
                .push(idx);
        }
    }
    map.into_iter()
        .map(|((_, option), mut tensors)| {
            // Backward production order: earliest-ready first.
            tensors.sort_unstable();
            OffloadGroup { tensors, option }
        })
        .collect()
}

/// One group's offload choice: how many tensors, taken from which end of
/// the production order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GroupChoice {
    /// Number of tensors offloaded.
    pub count: usize,
    /// Take the prefix from the back (latest-produced) instead of the
    /// front (earliest-produced, the Lemma 1 default).
    pub from_back: bool,
}

impl GroupChoice {
    /// Decodes a mixed-radix digit in `0..2n+1` into a choice: digit 0 is
    /// "offload nothing"; digits `1..=n` offload that many from the
    /// front; digits `n+1..=2n` offload `digit - n` from the back.
    fn from_digit(digit: usize, n: usize) -> Self {
        if digit == 0 {
            GroupChoice {
                count: 0,
                from_back: false,
            }
        } else if digit <= n {
            GroupChoice {
                count: digit,
                from_back: false,
            }
        } else {
            GroupChoice {
                count: digit - n,
                from_back: true,
            }
        }
    }
}

/// Runs Algorithm 2 on the output of Algorithm 1.
///
/// `max_combinations` bounds the product-space traversal as a safety
/// valve (the zoo stays in the thousands, as the paper reports); when the
/// bound would be exceeded, groups are processed greedily one at a time —
/// still Lemma 1-ordered, but no longer provably jointly optimal.
pub fn decide(
    job: &Job,
    base: &Strategy,
    config: &SimConfig,
    max_combinations: usize,
) -> OffloadDecision {
    let sim = Simulator::new(job.clone(), *config);
    decide_with_simulator(&sim, base, max_combinations)
}

/// Algorithm 2 against a shared (cached) simulator.
pub fn decide_with_simulator(
    sim: &Simulator,
    base: &Strategy,
    max_combinations: usize,
) -> OffloadDecision {
    let job = sim.job();
    let groups = lemma1_groups(job, base);
    if groups.is_empty() {
        return OffloadDecision {
            strategy: base.clone(),
            iteration_time: sim.iteration_time(base),
            offloaded: Vec::new(),
            combinations: 1,
        };
    }
    let total: usize = groups
        .iter()
        .map(|g| 2 * g.tensors.len() + 1)
        .try_fold(1usize, |acc, n| acc.checked_mul(n))
        .unwrap_or(usize::MAX);

    let cpu = cpu_variants(job, &groups);
    if total <= max_combinations {
        exhaustive(sim, base, &groups, &cpu)
    } else {
        greedy(sim, base, &groups, &cpu)
    }
}

/// Algorithm 2 on the planner fast path — byte-compatible with
/// [`decide_with_simulator`] (same traversal, accept tests, and
/// combination counts; the differential sweep enforces it), priced
/// through [`espresso_sim::DeltaSim`] with certified lower-bound
/// pruning.
pub fn decide_fast(sim: &Simulator, base: &Strategy, max_combinations: usize) -> OffloadDecision {
    let job = sim.job();
    let groups = lemma1_groups(job, base);
    if groups.is_empty() {
        return OffloadDecision {
            strategy: base.clone(),
            iteration_time: sim.iteration_time(base),
            offloaded: Vec::new(),
            combinations: 1,
        };
    }
    let total: usize = groups
        .iter()
        .map(|g| 2 * g.tensors.len() + 1)
        .try_fold(1usize, |acc, n| acc.checked_mul(n))
        .unwrap_or(usize::MAX);

    let cpu = cpu_variants(job, &groups);
    let mut delta = sim.delta(base);
    if total <= max_combinations {
        exhaustive_fast(&delta, base, &groups, &cpu)
    } else {
        greedy_fast(&mut delta, base, &groups, &cpu)
    }
}

/// [`exhaustive`] through the delta engine. The reference accepts on
/// `t < best_time` with **no** epsilon, so the prune threshold is
/// exactly `best_time` — pruning against `best_time - 1e-12` would
/// wrongly rule out candidates the reference accepts.
fn exhaustive_fast(
    delta: &espresso_sim::DeltaSim<'_>,
    base: &Strategy,
    groups: &[OffloadGroup],
    cpu: &[Arc<CompressionOption>],
) -> OffloadDecision {
    let mut u = vec![0usize; groups.len()];
    let mut best_u = u.clone();
    let mut best_time = f64::INFINITY;
    let mut combinations = 0usize;
    loop {
        let (s, _) = apply(base, groups, cpu, &u);
        combinations += 1;
        if let Some(t) = delta.eval_bounded(&s, best_time) {
            if t < best_time {
                best_time = t;
                best_u = u.clone();
            }
        }
        let mut i = 0;
        loop {
            if i == groups.len() {
                let (strategy, offloaded) = apply(base, groups, cpu, &best_u);
                return OffloadDecision {
                    strategy,
                    iteration_time: best_time,
                    offloaded,
                    combinations,
                };
            }
            u[i] += 1;
            if u[i] <= 2 * groups[i].tensors.len() {
                break;
            }
            u[i] = 0;
            i += 1;
        }
    }
}

/// [`greedy`] through the delta engine, re-anchored after each group's
/// choice so later groups re-simulate only their own suffix.
fn greedy_fast(
    delta: &mut espresso_sim::DeltaSim<'_>,
    base: &Strategy,
    groups: &[OffloadGroup],
    cpu: &[Arc<CompressionOption>],
) -> OffloadDecision {
    let mut u = vec![0usize; groups.len()];
    let mut combinations = 1usize;
    // The reference's first combination is `apply(u = 0)` — the base
    // strategy itself, whose time the delta handle already knows.
    let mut best_time = delta.base_time();
    for (gi, group) in groups.iter().enumerate() {
        let mut best_digit = 0usize;
        for digit in 1..=2 * group.tensors.len() {
            u[gi] = digit;
            let (s, _) = apply(base, groups, cpu, &u);
            combinations += 1;
            if let Some(t) = delta.eval_bounded(&s, best_time - 1e-12) {
                if t < best_time - 1e-12 {
                    best_time = t;
                    best_digit = digit;
                }
            }
        }
        u[gi] = best_digit;
        if best_digit != 0 {
            let (s, _) = apply(base, groups, cpu, &u);
            delta.rebase(&s, best_time);
        }
    }
    let (strategy, offloaded) = apply(base, groups, cpu, &u);
    OffloadDecision {
        strategy,
        iteration_time: best_time,
        offloaded,
        combinations,
    }
}

/// Applies an offload digit vector `u` to the base strategy.
///
/// The CPU variant of each group's option is materialized once (`cpu` is
/// parallel to `groups`) so repeated applications share one allocation.
fn apply(
    base: &Strategy,
    groups: &[OffloadGroup],
    cpu: &[Arc<CompressionOption>],
    u: &[usize],
) -> (Strategy, Vec<usize>) {
    let mut s = base.clone();
    let mut offloaded = Vec::new();
    for ((g, opt), &digit) in groups.iter().zip(cpu).zip(u) {
        let choice = GroupChoice::from_digit(digit, g.tensors.len());
        let picked: Vec<usize> = if choice.from_back {
            g.tensors.iter().rev().take(choice.count).copied().collect()
        } else {
            g.tensors.iter().take(choice.count).copied().collect()
        };
        for idx in picked {
            s.set_option(idx, opt.clone());
            offloaded.push(idx);
        }
    }
    offloaded.sort_unstable();
    (s, offloaded)
}

/// CPU variants of each group's option, materialized once: the option
/// table's own `Arc`s where the cluster's space holds them, so the block
/// interner keys them by table index.
fn cpu_variants(job: &Job, groups: &[OffloadGroup]) -> Vec<Arc<CompressionOption>> {
    let space = OptionSpace::enumerate(&job.cluster);
    groups
        .iter()
        .map(|g| space.cpu_variant(&g.option))
        .collect()
}

/// Traverses the full `prod(|G_i| + 1)` product space.
fn exhaustive(
    sim: &Simulator,
    base: &Strategy,
    groups: &[OffloadGroup],
    cpu: &[Arc<CompressionOption>],
) -> OffloadDecision {
    let mut u = vec![0usize; groups.len()];
    let mut best_u = u.clone();
    let mut best_time = f64::INFINITY;
    let mut combinations = 0usize;
    loop {
        let (s, _) = apply(base, groups, cpu, &u);
        let t = sim.iteration_time(&s);
        combinations += 1;
        if t < best_time {
            best_time = t;
            best_u = u.clone();
        }
        // Odometer increment over the mixed-radix vector (radix
        // 2n+1 per group: nothing, n front prefixes, n back prefixes).
        let mut i = 0;
        loop {
            if i == groups.len() {
                let (strategy, offloaded) = apply(base, groups, cpu, &best_u);
                return OffloadDecision {
                    strategy,
                    iteration_time: best_time,
                    offloaded,
                    combinations,
                };
            }
            u[i] += 1;
            if u[i] <= 2 * groups[i].tensors.len() {
                break;
            }
            u[i] = 0;
            i += 1;
        }
    }
}

/// Greedy fallback: optimize each group's offload count in turn, holding
/// the others fixed. Used only above the combination cap.
fn greedy(
    sim: &Simulator,
    base: &Strategy,
    groups: &[OffloadGroup],
    cpu: &[Arc<CompressionOption>],
) -> OffloadDecision {
    let mut u = vec![0usize; groups.len()];
    let mut combinations = 0usize;
    let mut best_time = {
        let (s, _) = apply(base, groups, cpu, &u);
        combinations += 1;
        sim.iteration_time(&s)
    };
    for (gi, group) in groups.iter().enumerate() {
        let mut best_digit = 0usize;
        for digit in 1..=2 * group.tensors.len() {
            u[gi] = digit;
            let (s, _) = apply(base, groups, cpu, &u);
            let t = sim.iteration_time(&s);
            combinations += 1;
            if t < best_time - 1e-12 {
                best_time = t;
                best_digit = digit;
            }
        }
        u[gi] = best_digit;
    }
    let (strategy, offloaded) = apply(base, groups, cpu, &u);
    OffloadDecision {
        strategy,
        iteration_time: best_time,
        offloaded,
        combinations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decision::gpu;
    use espresso_cluster::Cluster;
    use espresso_gc::Device;
    use espresso_gc::GcAlgorithm;
    use espresso_models::Model;
    use espresso_strategy::OptionSpace;

    fn decided() -> (Job, Strategy) {
        let job = Job::new(
            Model::Lstm.profile(),
            Cluster::pcie_25g(8, 8),
            GcAlgorithm::dgc_1pct(),
        );
        let space = OptionSpace::enumerate(&job.cluster);
        let d = gpu::decide(&job, &space, &SimConfig::default());
        (job, d.strategy)
    }

    #[test]
    fn offload_never_hurts() {
        let (job, base) = decided();
        let config = SimConfig::default();
        let before = crate::decision::iteration_time(&job, &base, &config);
        let d = decide(&job, &base, &config, 1_000_000);
        assert!(d.iteration_time <= before + 1e-12);
    }

    #[test]
    fn groups_share_size_and_option() {
        let (job, base) = decided();
        for g in lemma1_groups(&job, &base) {
            let elems = job.model.tensors[g.tensors[0]].elems;
            for &t in &g.tensors {
                assert_eq!(job.model.tensors[t].elems, elems);
                assert_eq!(*base.option(t), g.option);
            }
            // Backward production order.
            for w in g.tensors.windows(2) {
                assert!(w[0] < w[1]);
            }
        }
    }

    #[test]
    fn group_choice_digits_decode_correctly() {
        let n = 3;
        assert_eq!(
            GroupChoice::from_digit(0, n),
            GroupChoice { count: 0, from_back: false }
        );
        assert_eq!(
            GroupChoice::from_digit(2, n),
            GroupChoice { count: 2, from_back: false }
        );
        assert_eq!(
            GroupChoice::from_digit(4, n),
            GroupChoice { count: 1, from_back: true }
        );
        assert_eq!(
            GroupChoice::from_digit(6, n),
            GroupChoice { count: 3, from_back: true }
        );
    }

    #[test]
    fn offloaded_tensors_use_cpu_options() {
        let (job, base) = decided();
        let d = decide(&job, &base, &SimConfig::default(), 1_000_000);
        for &t in &d.offloaded {
            assert!(!d.strategy.option(t).gpu_only());
        }
    }

    #[test]
    fn lemma1_order_beats_reversed_order() {
        // Offloading the farthest-from-output tensors must be at least as
        // good as offloading the nearest ones — the Lemma 1 claim, checked
        // empirically on every group with a middle offload count.
        let (job, base) = decided();
        let config = SimConfig::default();
        for g in lemma1_groups(&job, &base) {
            if g.tensors.len() < 2 {
                continue;
            }
            let q = g.tensors.len() / 2 + 1;
            let mut lemma = base.clone();
            for &idx in g.tensors.iter().take(q) {
                lemma.set_option(idx, g.option.with_device(Device::Cpu));
            }
            let mut reversed = base.clone();
            for &idx in g.tensors.iter().rev().take(q) {
                reversed.set_option(idx, g.option.with_device(Device::Cpu));
            }
            let t_lemma = crate::decision::iteration_time(&job, &lemma, &config);
            let t_rev = crate::decision::iteration_time(&job, &reversed, &config);
            assert!(
                t_lemma <= t_rev + 1e-9,
                "lemma order {t_lemma} vs reversed {t_rev}"
            );
        }
    }

    #[test]
    fn empty_tgpu_is_a_noop() {
        let job = Job::new(
            Model::Lstm.profile(),
            Cluster::pcie_25g(8, 8),
            GcAlgorithm::dgc_1pct(),
        );
        let base = Strategy::uncompressed(
            job.num_tensors(),
            gpu::default_pattern(&job),
            &job.cluster,
        );
        let d = decide(&job, &base, &SimConfig::default(), 1000);
        assert!(d.offloaded.is_empty());
        assert_eq!(d.combinations, 1);
    }
}
