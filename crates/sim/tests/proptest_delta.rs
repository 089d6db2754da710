//! Property tests: incremental (delta) re-simulation is bitwise-equal
//! to from-scratch simulation.
//!
//! These are the planner fast path's foundations. [`DeltaSim`] resumes
//! trials from per-watermark checkpoints, early-exits when the trial's
//! event-loop state resynchronizes with the base, and certifies pruning
//! decisions with mid-run lower bounds and checkpoint pins — every one
//! of those shortcuts must be invisible: the same task list, the same
//! span bits, the same `F(S)`. Each incremental timeline is additionally
//! held to the physical invariant auditor, so agreement can never be
//! agreement on nonsense.

use espresso_cluster::{Cluster, CommPattern};
use espresso_gc::GcAlgorithm;
use espresso_models::{ModelKind, ModelProfile, TensorProfile};
use espresso_sim::{audit, simulate, Job, SimConfig, SimResult, Simulator};
use espresso_strategy::{OptionSpace, Strategy};
use proptest::prelude::*;
use rand::{rngs::StdRng, Rng, SeedableRng};

fn random_model(tensors: usize, seed: u64) -> ModelProfile {
    let mut rng = StdRng::seed_from_u64(seed);
    let list = (0..tensors)
        .map(|i| TensorProfile {
            name: format!("t{i}"),
            elems: rng.random_range(1_000usize..20_000_000),
            compute_time: rng.random_range(1e-5f64..5e-3),
        })
        .collect();
    ModelProfile::new("rand", ModelKind::Vision, 8, 1e-3, list)
}

fn random_strategy(job: &Job, space: &OptionSpace, seed: u64) -> Strategy {
    let mut rng = StdRng::seed_from_u64(seed);
    let all = space.all();
    Strategy::from_options(
        (0..job.num_tensors())
            .map(|_| all[rng.random_range(0..all.len())].clone())
            .collect(),
    )
}

/// Bitwise timeline equality: same tasks in the same order, every span
/// boundary identical to the last bit.
fn assert_bitwise(fast: &SimResult, reference: &SimResult) {
    prop_assert_eq!(
        fast.iteration_time.to_bits(),
        reference.iteration_time.to_bits(),
        "iteration_time: {} vs {}",
        fast.iteration_time,
        reference.iteration_time
    );
    prop_assert_eq!(fast.tasks.len(), reference.tasks.len());
    for (i, (f, r)) in fast.tasks.iter().zip(&reference.tasks).enumerate() {
        prop_assert_eq!(f.tensor, r.tensor, "task {}", i);
        prop_assert_eq!(f.kind, r.kind, "task {}", i);
        prop_assert_eq!(f.resource, r.resource, "task {}", i);
        prop_assert_eq!(
            f.span.start.to_bits(),
            r.span.start.to_bits(),
            "task {} start: {} vs {}",
            i,
            f.span.start,
            r.span.start
        );
        prop_assert_eq!(
            f.span.end.to_bits(),
            r.span.end.to_bits(),
            "task {} end: {} vs {}",
            i,
            f.span.end,
            r.span.end
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A chain of single-tensor mutations, re-simulated incrementally
    /// (with periodic rebases, as the greedy search does), each compared
    /// bit-for-bit against a from-scratch run and audited.
    #[test]
    fn delta_resimulation_is_bitwise_identical(
        tensors in 2usize..10,
        model_seed in 0u64..500,
        strat_seed in 0u64..500,
        machines in 1usize..4,
        gpus in 1usize..4,
        mutations in 1usize..10,
    ) {
        let cluster = Cluster::pcie_25g(machines, gpus);
        let job = Job::new(random_model(tensors, model_seed), cluster, GcAlgorithm::dgc_1pct());
        let config = SimConfig::default();
        let sim = Simulator::new(job.clone(), config);
        let space = OptionSpace::enumerate(&cluster);
        let all = space.all();
        let mut rng = StdRng::seed_from_u64(strat_seed ^ 0xD317A);

        let base = random_strategy(&job, &space, strat_seed);
        let mut delta = sim.delta(&base);
        let mut current = base;
        for step in 0..mutations {
            let idx = rng.random_range(0..job.num_tensors());
            let option = all[rng.random_range(0..all.len())].clone();
            let mut trial = current.clone();
            trial.set_option(idx, option);

            let fast = delta.simulate(&trial);
            let reference = simulate(&job, &trial, &config);
            assert_bitwise(&fast, &reference);

            // Every incremental output must satisfy the timeline
            // invariants on its own terms, not merely match a twin.
            let violations = audit::audit(&job, &trial, &config, &fast);
            prop_assert!(violations.is_empty(), "{violations:#?}");

            // The scalar evaluation path agrees with both.
            let t = delta.iteration_time(&trial);
            prop_assert_eq!(t.to_bits(), reference.iteration_time.to_bits());

            // Periodically accept the trial as the new base, like the
            // greedy loops do, so later steps exercise rebased state.
            if step % 3 == 2 {
                delta.rebase(&trial, t);
                current = trial;
            }
        }
    }

    /// The pruning contract is exact: `eval_swap` returning `None`
    /// certifies `F(trial) >= threshold`; returning `Some` must be the
    /// bit-exact scratch value.
    #[test]
    fn eval_swap_pruning_never_overclaims(
        tensors in 2usize..8,
        model_seed in 0u64..500,
        strat_seed in 0u64..500,
        machines in 1usize..3,
        gpus in 1usize..4,
        swaps in 1usize..12,
        jitter in -0.2f64..0.2,
    ) {
        let cluster = Cluster::pcie_25g(machines, gpus);
        let job = Job::new(random_model(tensors, model_seed), cluster, GcAlgorithm::dgc_1pct());
        let config = SimConfig::default();
        let sim = Simulator::new(job.clone(), config);
        let space = OptionSpace::enumerate(&cluster);
        let all = space.all();
        let mut rng = StdRng::seed_from_u64(strat_seed ^ 0x5AB5);

        let base = random_strategy(&job, &space, strat_seed);
        let delta = sim.delta(&base);
        let base_time = delta.base_time();
        for _ in 0..swaps {
            let idx = rng.random_range(0..job.num_tensors());
            let option = all[rng.random_range(0..all.len())].clone();
            let mut trial = base.clone();
            trial.set_option(idx, option.clone());
            let truth = simulate(&job, &trial, &config).iteration_time;
            // Thresholds bracketing the incumbent, the regime the greedy
            // accept loop runs in.
            let threshold = base_time * (1.0 + jitter);
            match delta.eval_swap(idx, &option, threshold) {
                Some(t) => prop_assert_eq!(
                    t.to_bits(),
                    truth.to_bits(),
                    "live eval diverged: {} vs {}",
                    t,
                    truth
                ),
                None => prop_assert!(
                    truth >= threshold,
                    "pruned a winner: F = {} < threshold {}",
                    truth,
                    threshold
                ),
            }
        }
    }
}

/// Candidate options drawn per tensor and round in the pin property.
const CANDIDATES_PER_TENSOR: usize = 16;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The checkpoint pin is a margin-free lower bound: for every tensor
    /// and every candidate option, `pin_bound(k) <= F(trial)` with no
    /// tolerance, and every trial it prunes against the tie threshold
    /// `F(base) - 1e-12` really sits at or above that threshold — on
    /// single- and multi-machine jobs, with a single-server and a pooled
    /// CPU, before and after a rebase clears the cached pins. Half the
    /// cases start from the uncompressed strategy, where the last
    /// tensors' communication holds the makespan and ties are common.
    #[test]
    fn checkpoint_pin_is_a_bitwise_lower_bound(
        tensors in 2usize..7,
        model_seed in 0u64..500,
        strat_seed in 0u64..500,
        machines in 1usize..3,
        gpus in 1usize..4,
        pooled_cpu in 0usize..2,
        fp32_base in 0usize..2,
    ) {
        let cluster = Cluster::pcie_25g(machines, gpus);
        let job = Job::new(random_model(tensors, model_seed), cluster, GcAlgorithm::dgc_1pct());
        let config = SimConfig {
            cpu_slots: [1, 4][pooled_cpu],
            ..SimConfig::default()
        };
        let sim = Simulator::new(job.clone(), config);
        let space = OptionSpace::enumerate(&cluster);
        let all = space.all();
        let mut rng = StdRng::seed_from_u64(strat_seed ^ 0x9147);

        let mut base = if fp32_base == 1 {
            Strategy::uncompressed(job.num_tensors(), CommPattern::Hierarchical, &cluster)
        } else {
            random_strategy(&job, &space, strat_seed)
        };
        let mut delta = sim.delta(&base);
        for round in 0..2 {
            let threshold = delta.base_time() - 1e-12;
            for k in 0..job.num_tensors() {
                let pin = delta.pin_bound(k);
                for _ in 0..CANDIDATES_PER_TENSOR {
                    let option = &all[rng.random_range(0..all.len())];
                    let mut trial = base.clone();
                    trial.set_option(k, option.clone());
                    let truth = simulate(&job, &trial, &config).iteration_time;
                    prop_assert!(
                        pin <= truth,
                        "round {}: pin {} above F(trial) {} at tensor {}",
                        round, pin, truth, k
                    );
                    let before = delta.counts().pruned_pin;
                    let verdict = delta.eval_swap(k, option, threshold);
                    let pinned = delta.counts().pruned_pin > before;
                    prop_assert!(!pinned || verdict.is_none());
                    if verdict.is_none() {
                        prop_assert!(
                            truth >= threshold,
                            "round {}: pruned a winner (pin: {}): F = {} < {}",
                            round, pinned, truth, threshold
                        );
                    }
                }
            }
            // Accept a random single swap, as the greedy loops do.
            let idx = rng.random_range(0..job.num_tensors());
            base.set_option(idx, all[rng.random_range(0..all.len())].clone());
            let t = simulate(&job, &base, &config).iteration_time;
            delta.rebase(&base, t);
        }
    }
}
