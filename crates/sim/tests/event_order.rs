//! Property tests: the engine's event loop pops events in exactly the
//! order of the single-heap loop it replaced.
//!
//! The engine keeps ready events in a FIFO beside the heap of finish
//! events and packs each event key into 16 bytes. Both are pure data
//! layout: the pop order must stay "smallest (time, sequence number)
//! first" over one pool of pending events. [`reference_spans`] below is
//! that older loop, kept verbatim in test form over the public task
//! builder — one binary heap holding every event — and every timeline the
//! engine emits (from scratch, under a fault plan, resumed from a delta
//! checkpoint, or priced through a spliced single-swap trial) must match
//! it to the bit. The fast-vs-reference planner sweep cannot catch an
//! event-order change, because both planners share the event loop.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use espresso_cluster::Cluster;
use espresso_gc::GcAlgorithm;
use espresso_models::Model;
use espresso_sim::task::{build_tasks, Task};
use espresso_sim::{
    simulate, simulate_with_faults, FaultPlan, Job, Resource, SimConfig, SimResult, Simulator,
};
use espresso_strategy::{OptionSpace, Strategy};
use proptest::prelude::*;
use rand::{rngs::StdRng, Rng, SeedableRng};

fn resource_idx(r: Resource) -> usize {
    match r {
        Resource::Gpu => 0,
        Resource::Cpu => 1,
        Resource::IntraChannel => 2,
        Resource::InterChannel => 3,
    }
}

/// The single-heap event loop: every ready and finish event in one
/// min-heap keyed by `(time bits, push sequence)`, successors released in
/// ascending task order, FIFO service per resource. Returns each task's
/// `(start, end)` and the makespan.
fn reference_spans(
    tasks: &[Task],
    config: &SimConfig,
    faults: Option<&FaultPlan>,
) -> (Vec<(f64, f64)>, f64) {
    let n = tasks.len();
    let mut succs: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (i, t) in tasks.iter().enumerate() {
        for &p in &t.preds {
            succs[p].push(i);
        }
    }
    let mut indegree: Vec<usize> = tasks.iter().map(|t| t.preds.len()).collect();
    let mut spans = vec![(f64::NAN, f64::NAN); n];
    let mut heap: BinaryHeap<Reverse<(u64, u64, usize, bool)>> = BinaryHeap::new();
    let mut queues: [VecDeque<usize>; 4] = Default::default();
    let mut busy = [0usize; 4];
    let mut seq = 0u64;
    for (i, &d) in indegree.iter().enumerate() {
        if d == 0 {
            heap.push(Reverse((0f64.to_bits(), seq, i, false)));
            seq += 1;
        }
    }
    let mut makespan = 0.0f64;
    while let Some(Reverse((bits, _, i, finish))) = heap.pop() {
        let now = f64::from_bits(bits);
        let ri = resource_idx(tasks[i].resource);
        if finish {
            busy[ri] -= 1;
            for &s in &succs[i] {
                indegree[s] -= 1;
                if indegree[s] == 0 {
                    heap.push(Reverse((now.to_bits(), seq, s, false)));
                    seq += 1;
                }
            }
        } else {
            queues[ri].push_back(i);
        }
        let cap = if ri == 1 { config.cpu_slots.max(1) } else { 1 };
        if busy[ri] < cap {
            if let Some(t) = queues[ri].pop_front() {
                busy[ri] += 1;
                let duration = match faults {
                    None => tasks[t].duration,
                    Some(plan) => plan.effective_duration(&tasks[t], t, now),
                };
                let end = now + duration;
                spans[t] = (now, end);
                makespan = makespan.max(end);
                heap.push(Reverse((end.to_bits(), seq, t, true)));
                seq += 1;
            }
        }
    }
    (spans, makespan)
}

/// The engine's timeline equals the single-heap loop's, span for span.
fn assert_same_order(
    job: &Job,
    strategy: &Strategy,
    config: &SimConfig,
    faults: Option<&FaultPlan>,
    fast: &SimResult,
    what: &str,
) {
    let tasks = build_tasks(job, strategy, config);
    let (spans, makespan) = reference_spans(&tasks, config, faults);
    prop_assert_eq!(fast.tasks.len(), spans.len(), "{}: task count", what);
    for (i, (record, &(start, end))) in fast.tasks.iter().zip(&spans).enumerate() {
        prop_assert_eq!(
            (record.span.start.to_bits(), record.span.end.to_bits()),
            (start.to_bits(), end.to_bits()),
            "{}: task {} spans {:?} vs ({}, {})",
            what,
            i,
            record.span,
            start,
            end
        );
    }
    prop_assert_eq!(
        fast.iteration_time.to_bits(),
        (job.model.forward_time + makespan).to_bits(),
        "{}: iteration time",
        what
    );
}

/// `F` of the single-heap loop.
fn reference_time(job: &Job, strategy: &Strategy, config: &SimConfig) -> f64 {
    let tasks = build_tasks(job, strategy, config);
    job.model.forward_time + reference_spans(&tasks, config, None).1
}

fn random_strategy(job: &Job, space: &OptionSpace, rng: &mut StdRng) -> Strategy {
    let all = space.all();
    Strategy::from_options(
        (0..job.num_tensors())
            .map(|_| all[rng.random_range(0..all.len())].clone())
            .collect(),
    )
}

fn zoo_job(model: usize, cluster: usize, algo: usize) -> Job {
    let cluster = [
        Cluster::pcie_25g(1, 4),
        Cluster::pcie_25g(2, 4),
        Cluster::nvlink_100g(2, 8),
    ][cluster];
    let algo = [
        GcAlgorithm::dgc_1pct(),
        GcAlgorithm::EfSignSgd,
        GcAlgorithm::Fp16,
    ][algo];
    Job::new(Model::ALL[model].profile(), cluster, algo)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Model-zoo jobs under random strategies, from scratch, with and
    /// without a seeded fault plan, on a single-server and a pooled CPU.
    #[test]
    fn timelines_match_the_single_heap_loop(
        model in 0usize..6,
        cluster in 0usize..3,
        algo in 0usize..3,
        cpu_slots in 1usize..3,
        strat_seed in 0u64..10_000,
        fault_seed in 0u64..10_000,
    ) {
        let job = zoo_job(model, cluster, algo);
        let config = SimConfig { cpu_slots, ..SimConfig::default() };
        let space = OptionSpace::enumerate(&job.cluster);
        let mut rng = StdRng::seed_from_u64(strat_seed);
        let strategy = random_strategy(&job, &space, &mut rng);
        let sim = Simulator::new(job.clone(), config);

        assert_same_order(&job, &strategy, &config, None, &simulate(&job, &strategy, &config), "simulate");
        assert_same_order(&job, &strategy, &config, None, &sim.simulate(&strategy), "Simulator::simulate");

        let faults = FaultPlan::from_seed(fault_seed, job.cluster.total_gpus());
        assert_same_order(
            &job,
            &strategy,
            &config,
            Some(&faults),
            &simulate_with_faults(&job, &strategy, &config, &faults),
            "simulate_with_faults",
        );
        assert_same_order(
            &job,
            &strategy,
            &config,
            Some(&faults),
            &sim.simulate_with_faults(&strategy, &faults),
            "Simulator::simulate_with_faults",
        );
    }

    /// Runs resumed from random delta checkpoints: a trial that rewrites
    /// the base from a random tensor on resumes from the checkpoint
    /// there, and a single-swap trial is spliced, resumed and may end
    /// early by resync or by the abort bound — every one agrees with the
    /// single-heap loop run from scratch.
    #[test]
    fn resumed_runs_match_the_single_heap_loop(
        model in 0usize..6,
        cluster in 0usize..3,
        algo in 0usize..3,
        strat_seed in 0u64..10_000,
        trials in 1usize..6,
    ) {
        let job = zoo_job(model, cluster, algo);
        let config = SimConfig::default();
        let space = OptionSpace::enumerate(&job.cluster);
        let all = space.all();
        let n = job.num_tensors();
        let mut rng = StdRng::seed_from_u64(strat_seed ^ 0x0E7E);
        let base = random_strategy(&job, &space, &mut rng);
        let sim = Simulator::new(job.clone(), config);
        let delta = sim.delta(&base);
        prop_assert_eq!(delta.base_time().to_bits(), reference_time(&job, &base, &config).to_bits());

        for _ in 0..trials {
            // A suffix rewrite from a random watermark.
            let k = rng.random_range(0..n);
            let mut trial = base.clone();
            for i in k..n {
                if rng.random_range(0u32..3) == 0 {
                    trial.set_option(i, all[rng.random_range(0..all.len())].clone());
                }
            }
            assert_same_order(&job, &trial, &config, None, &delta.simulate(&trial), "DeltaSim::simulate");

            // A spliced single swap, unbounded and against the base.
            let idx = rng.random_range(0..n);
            let option = all[rng.random_range(0..all.len())].clone();
            let mut swapped = base.clone();
            swapped.set_option(idx, option.clone());
            let truth = reference_time(&job, &swapped, &config);
            match delta.eval_swap(idx, &option, delta.base_time()) {
                Some(t) => prop_assert_eq!(t.to_bits(), truth.to_bits(), "bounded eval_swap"),
                None => prop_assert!(truth >= delta.base_time(), "pruned below the threshold"),
            }
            let t = delta
                .eval_swap(idx, &option, f64::INFINITY)
                .expect("an infinite threshold never prunes");
            prop_assert_eq!(t.to_bits(), truth.to_bits(), "unbounded eval_swap");
        }
    }
}
