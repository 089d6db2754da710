//! The direct stage-to-block compile against the historical expansion.
//!
//! [`Block::from_stages`] fills a block's arrays straight from its stage
//! list. Blocks used to be compiled by expanding the stages into one
//! [`Task`] per piece, each with its own predecessor `Vec`, and re-basing
//! that list; the expansion and the re-basing live on below as the
//! oracle. Every field must match bit for bit: kinds, resources,
//! durations and alphas, predecessor and successor lists, the compute's
//! successors, the resource sums and the chain — for every option and
//! every CPU variant of several spaces, every algorithm plus a
//! ratio-plan density, sizes around the partition boundary and a
//! multi-partition size, with and without compression cost.
//! [`build_tasks`], which now expands blocks, must equal the historical
//! task list too.
//!
//! Release builds cover every option (`ci.sh` step `event order
//! (release)`); debug builds take every seventh.

use espresso_cluster::{Cluster, CommPattern};
use espresso_gc::GcAlgorithm;
use espresso_models::Model;
use espresso_sim::task::{
    build_stages_for_algo, build_tasks, Block, Resource, Stage, Task, TaskKind,
};
use espresso_sim::{Job, SimConfig};
use espresso_strategy::{OptionSpace, Strategy};

/// The historical expansion: appends one tensor's compute task and its
/// stage tasks to `tasks` and returns the compute's index.
fn push_tensor_tasks(
    tasks: &mut Vec<Task>,
    tensor: usize,
    compute_time: f64,
    stages: &[Stage],
    prev_compute: Option<usize>,
) -> usize {
    let compute_idx = tasks.len();
    tasks.push(Task {
        tensor,
        kind: TaskKind::Compute,
        resource: Resource::Gpu,
        duration: compute_time,
        alpha_secs: 0.0,
        preds: prev_compute.into_iter().collect(),
    });
    let mut frontier: Vec<usize> = vec![compute_idx];
    for stage in stages {
        if stage.pieces == 1 {
            let idx = tasks.len();
            tasks.push(Task {
                tensor,
                kind: stage.kind,
                resource: stage.resource,
                duration: stage.piece_duration,
                alpha_secs: stage.piece_alpha,
                preds: std::mem::take(&mut frontier),
            });
            frontier = vec![idx];
        } else {
            let prev = std::mem::take(&mut frontier);
            frontier = Vec::with_capacity(stage.pieces);
            for p in 0..stage.pieces {
                let preds = if prev.len() == stage.pieces {
                    vec![prev[p]]
                } else {
                    prev.clone()
                };
                let idx = tasks.len();
                tasks.push(Task {
                    tensor,
                    kind: stage.kind,
                    resource: stage.resource,
                    duration: stage.piece_duration,
                    alpha_secs: stage.piece_alpha,
                    preds,
                });
                frontier.push(idx);
            }
        }
    }
    compute_idx
}

fn resource_idx(res: Resource) -> usize {
    match res {
        Resource::Gpu => 0,
        Resource::Cpu => 1,
        Resource::IntraChannel => 2,
        Resource::InterChannel => 3,
    }
}

/// The historical block compile: expand a lone tensor, re-base, then
/// derive the successor CSR by a counting pass and the chain by a
/// longest-path sweep.
fn historical_block(stages: &[Stage]) -> Block {
    let mut tasks: Vec<Task> = Vec::new();
    push_tensor_tasks(&mut tasks, 0, 0.0, stages, None);
    let mut block = Block {
        kind: Vec::new(),
        resource: Vec::new(),
        duration: Vec::new(),
        alpha_secs: Vec::new(),
        pred_off: vec![0],
        pred_idx: Vec::new(),
        compute_succ: Vec::new(),
        succ_off: Vec::new(),
        succ_idx: Vec::new(),
        resource_sums: [0.0; 4],
        chain: 0.0,
    };
    for t in &tasks[1..] {
        block.kind.push(t.kind);
        block.resource.push(t.resource);
        block.duration.push(t.duration);
        block.alpha_secs.push(t.alpha_secs);
        block.pred_idx.extend(t.preds.iter().map(|&p| p as u32));
        block.pred_off.push(block.pred_idx.len() as u32);
        block.resource_sums[resource_idx(t.resource)] += t.duration;
    }
    let n = block.kind.len();
    block.succ_off.resize(n + 1, 0);
    for &p in &block.pred_idx {
        if p != 0 {
            block.succ_off[p as usize] += 1;
        }
    }
    for j in 0..n {
        block.succ_off[j + 1] += block.succ_off[j];
    }
    block.succ_idx.resize(block.succ_off[n] as usize, 0);
    let mut cursor: Vec<u32> = block.succ_off[..n].to_vec();
    for j in 0..n {
        for k in block.pred_off[j]..block.pred_off[j + 1] {
            let p = block.pred_idx[k as usize];
            if p == 0 {
                block.compute_succ.push(j as u32);
            } else {
                let c = &mut cursor[p as usize - 1];
                block.succ_idx[*c as usize] = j as u32;
                *c += 1;
            }
        }
    }
    let mut dist = vec![f64::NEG_INFINITY; n];
    for j in 0..n {
        let mut ready = f64::NEG_INFINITY;
        for &p in block.preds(j) {
            ready = ready.max(if p == 0 { 0.0 } else { dist[p as usize - 1] });
        }
        if ready > f64::NEG_INFINITY {
            dist[j] = ready + block.duration[j];
            block.chain = block.chain.max(dist[j]);
        }
    }
    block
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Field-by-field equality, floats by bits; the message names the field.
fn assert_same(direct: &Block, oracle: &Block, what: &str) {
    assert_eq!(direct.kind, oracle.kind, "kind: {what}");
    assert_eq!(direct.resource, oracle.resource, "resource: {what}");
    assert_eq!(
        bits(&direct.duration),
        bits(&oracle.duration),
        "duration: {what}"
    );
    assert_eq!(
        bits(&direct.alpha_secs),
        bits(&oracle.alpha_secs),
        "alpha: {what}"
    );
    assert_eq!(direct.pred_off, oracle.pred_off, "pred_off: {what}");
    assert_eq!(direct.pred_idx, oracle.pred_idx, "pred_idx: {what}");
    assert_eq!(
        direct.compute_succ, oracle.compute_succ,
        "compute_succ: {what}"
    );
    assert_eq!(direct.succ_off, oracle.succ_off, "succ_off: {what}");
    assert_eq!(direct.succ_idx, oracle.succ_idx, "succ_idx: {what}");
    assert_eq!(
        bits(&direct.resource_sums),
        bits(&oracle.resource_sums),
        "resource_sums: {what}"
    );
    assert_eq!(
        direct.chain.to_bits(),
        oracle.chain.to_bits(),
        "chain: {what}"
    );
}

fn clusters() -> [Cluster; 5] {
    [
        Cluster::pcie_25g(1, 1),
        Cluster::pcie_25g(1, 4),
        Cluster::pcie_25g(2, 4),
        Cluster::pcie_25g(4, 8),
        Cluster::nvlink_100g(2, 8),
    ]
}

fn algorithms() -> [GcAlgorithm; 8] {
    [
        GcAlgorithm::randomk_1pct(),
        GcAlgorithm::dgc_1pct(),
        GcAlgorithm::EfSignSgd,
        GcAlgorithm::Qsgd { levels: 127 },
        GcAlgorithm::TernGrad,
        GcAlgorithm::Fp16,
        GcAlgorithm::Natural,
        // A ratio-plan entry: a non-default density.
        GcAlgorithm::Dgc { density: 0.05 },
    ]
}

fn stride() -> usize {
    if cfg!(debug_assertions) {
        7
    } else {
        1
    }
}

#[test]
fn direct_compile_equals_the_historical_expansion() {
    let configs = [
        SimConfig::default(),
        SimConfig {
            zero_compression_cost: true,
            ..SimConfig::default()
        },
    ];
    let mut compiled = 0usize;
    for cluster in clusters() {
        let space = OptionSpace::enumerate(&cluster);
        let options: Vec<_> = space
            .all()
            .iter()
            .chain(space.cpu_variants())
            .step_by(stride())
            .collect();
        for algo in algorithms() {
            let job = Job::new(Model::Lstm.profile(), cluster, algo);
            for config in &configs {
                // One partition is `partition_bytes / 4` elements.
                let part = (config.partition_bytes / 4.0) as usize;
                for elems in [1, part - 1, part, part + 1, 7 * part + 3] {
                    for option in &options {
                        let stages = build_stages_for_algo(&job, option, elems, algo, config);
                        let what = format!(
                            "{} on {}x{}, {algo:?}, {elems} elems, zero cost {}",
                            option.describe(),
                            cluster.machines,
                            cluster.gpus_per_machine,
                            config.zero_compression_cost
                        );
                        let direct = Block::compile(&job, option, elems, algo, config);
                        assert_same(&direct, &historical_block(&stages), &what);
                        compiled += 1;
                    }
                }
            }
        }
    }
    assert!(compiled > 10_000 / stride(), "{compiled} blocks");
}

/// The historical `build_tasks`: each tensor expanded through
/// [`push_tensor_tasks`].
fn historical_tasks(job: &Job, strategy: &Strategy, config: &SimConfig) -> Vec<Task> {
    let mut tasks = Vec::new();
    let mut prev_compute = None;
    for (i, tensor) in job.model.tensors.iter().enumerate() {
        let stages = build_stages_for_algo(
            job,
            strategy.option(i),
            tensor.elems,
            job.algo_for(i),
            config,
        );
        prev_compute = Some(push_tensor_tasks(
            &mut tasks,
            i,
            tensor.compute_time,
            &stages,
            prev_compute,
        ));
    }
    tasks
}

#[test]
fn build_tasks_equals_the_historical_task_list() {
    for cluster in clusters() {
        let space = OptionSpace::enumerate(&cluster);
        let job = Job::new(Model::Vgg16.profile(), cluster, GcAlgorithm::dgc_1pct());
        let n = job.num_tensors();
        let all = space.all();
        let mut strategies = vec![Strategy::uncompressed(
            n,
            CommPattern::Hierarchical,
            &cluster,
        )];
        // Mixed strategies walking the whole space, CPU variants included.
        let pool: Vec<_> = all.iter().chain(space.cpu_variants()).cloned().collect();
        for offset in [0, 1, 5] {
            strategies.push(Strategy::from_options(
                (0..n)
                    .map(|i| pool[(i * 37 + offset) % pool.len()].clone())
                    .collect(),
            ));
        }
        for strategy in &strategies {
            let direct = build_tasks(&job, strategy, &SimConfig::default());
            let oracle = historical_tasks(&job, strategy, &SimConfig::default());
            assert_eq!(direct.len(), oracle.len());
            for (a, b) in direct.iter().zip(&oracle) {
                assert_eq!(a.tensor, b.tensor);
                assert_eq!(a.kind, b.kind);
                assert_eq!(a.resource, b.resource);
                assert_eq!(a.duration.to_bits(), b.duration.to_bits());
                assert_eq!(a.alpha_secs.to_bits(), b.alpha_secs.to_bits());
                assert_eq!(a.preds, b.preds);
            }
        }
    }
}
