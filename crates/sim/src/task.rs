//! Task-graph construction: a (job, strategy) pair becomes a DAG of
//! resource-bound tasks.
//!
//! ## Partitioned pipelining
//!
//! BytePS splits every tensor into partitions of at most
//! `SimConfig::partition_bytes` and synchronizes the pieces independently,
//! which pipelines the hierarchical phases: piece `p`'s inter-machine
//! transfer starts as soon as piece `p` finishes its first intra-machine
//! phase, while piece `p+1` is still on the intra channel. The builder
//! reproduces this for *dense* communication stages. Compression-related
//! ops are barriers — a tensor must be fully resident to be compressed,
//! and a compressed blob travels as one piece — so chains alternate
//! between piecewise-parallel dense stages and single-piece compressed
//! stages.
//!
//! ## Stages
//!
//! A tensor's op chain compiles to a list of [`Stage`]s — `(kind,
//! resource, piece count, piece duration)` — and the stages expand
//! straight into a [`Block`], the tensor's stage tasks with their edges.
//! Both depend only on the `(option, tensor size, algorithm, cluster,
//! config)` tuple. The [`crate::engine::Simulator`] interns blocks, so
//! strategy-search loops do not recompute annotations and timing models
//! thousands of times, and [`build_tasks`] expands the same blocks into
//! [`Task`]s.

use espresso_cluster::{CollectiveCost, CommScope, Routine};
use espresso_gc::{Device, GcAlgorithm, TimingModel};
use espresso_strategy::{option::ComputeKind, CompressionOption, Strategy, Work};

use crate::{config::SimConfig, job::Job};

/// The resource a task occupies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Resource {
    /// The worker's GPU execution engine (compute + GPU kernels).
    Gpu,
    /// The host CPU compression pool.
    Cpu,
    /// The intra-machine channel.
    IntraChannel,
    /// The inter-machine channel (also carries flat collectives).
    InterChannel,
}

/// What a task represents, for timeline reporting.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TaskKind {
    /// Backward computation of a tensor's gradient.
    Compute,
    /// A compression kernel.
    Compress(Device),
    /// A decompression kernel.
    Decompress(Device),
    /// Dense aggregation of received pieces.
    Aggregate(Device),
    /// A host-device staging copy for CPU compression, occupying the
    /// intra-machine fabric (PCIe-only machines share it with collectives).
    Staging,
    /// A collective communication (possibly one partition of a tensor).
    Comm(CommScope, Routine),
}

impl TaskKind {
    /// Whether this is a communication task.
    pub fn is_comm(&self) -> bool {
        matches!(self, TaskKind::Comm(..))
    }

    /// Whether this is a compression-related compute task (compress,
    /// decompress, aggregate, or staging — the work GC adds).
    pub fn is_compression_work(&self) -> bool {
        matches!(
            self,
            TaskKind::Compress(_)
                | TaskKind::Decompress(_)
                | TaskKind::Aggregate(_)
                | TaskKind::Staging
        )
    }
}

/// One schedulable task.
#[derive(Debug, Clone)]
pub struct Task {
    /// The tensor this task belongs to.
    pub tensor: usize,
    /// What it does.
    pub kind: TaskKind,
    /// Which resource it occupies.
    pub resource: Resource,
    /// Service time, seconds.
    pub duration: f64,
    /// The latency (alpha) component of `duration` for communication
    /// tasks, zero otherwise. Fault injection scales the alpha and beta
    /// components of a degraded link independently.
    pub alpha_secs: f64,
    /// Predecessor task indices (all must finish before this starts).
    pub preds: Vec<usize>,
}

/// One compiled stage of a tensor's synchronization chain.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Stage {
    /// What the stage's tasks do.
    pub kind: TaskKind,
    /// Where they run.
    pub resource: Resource,
    /// Number of parallel pieces (1 for barriers and compressed blobs).
    pub pieces: usize,
    /// Service time per piece.
    pub piece_duration: f64,
    /// Latency (alpha) component of `piece_duration` for communication
    /// stages, zero otherwise.
    pub piece_alpha: f64,
}

/// The participant count and link for a scope on this cluster.
fn scope_params(job: &Job, scope: CommScope) -> (usize, espresso_cluster::Link) {
    match scope {
        CommScope::IntraFirst | CommScope::IntraSecond => {
            (job.cluster.gpus_per_machine, job.cluster.intra)
        }
        CommScope::Inter => (job.cluster.machines, job.cluster.inter),
        CommScope::Flat => (job.cluster.total_gpus(), job.cluster.flat_link()),
    }
}

/// The channel resource for a scope.
fn scope_resource(scope: CommScope) -> Resource {
    match scope {
        CommScope::IntraFirst | CommScope::IntraSecond => Resource::IntraChannel,
        CommScope::Inter | CommScope::Flat => Resource::InterChannel,
    }
}

/// Compiles one tensor's synchronization chain into stages with the job's
/// uniform algorithm.
///
/// Depends only on `(option, elems, job, config)` — cacheable.
pub fn build_stages(
    job: &Job,
    option: &CompressionOption,
    elems: usize,
    config: &SimConfig,
) -> Vec<Stage> {
    build_stages_for_algo(job, option, elems, job.algo, config)
}

/// Compiles one tensor's synchronization chain into stages, compressing
/// with `algo` (a per-tensor ratio-plan entry) instead of `job.algo`.
///
/// Depends only on `(option, elems, algo, cluster, config)` — cacheable.
pub fn build_stages_for_algo(
    job: &Job,
    option: &CompressionOption,
    elems: usize,
    algo: GcAlgorithm,
    config: &SimConfig,
) -> Vec<Stage> {
    let timing = TimingModel::for_algorithm(algo);
    let dense_bytes = (elems * 4) as f64;
    let parts = ((dense_bytes / config.partition_bytes).ceil() as usize).max(1);
    // One stage per op at most, plus a staging copy for a compress or
    // decompress op on the CPU.
    let staged = option
        .ops
        .iter()
        .filter(|op| {
            matches!(
                op,
                espresso_strategy::Op::Compress { .. } | espresso_strategy::Op::Decompress { .. }
            )
        })
        .count();
    let mut stages = Vec::with_capacity(option.ops.len() + staged);

    for aop in option.annotate(elems, algo, &job.cluster) {
        match aop.work {
            Work::Compute {
                device,
                kind,
                elems,
                staged_elems,
            } => {
                // CPU ops stage data across the host-device boundary. On
                // PCIe-only machines the copy rides the intra-machine
                // fabric (explicit channel occupancy around the CPU task);
                // on NVLink machines PCIe is otherwise idle, so the copy
                // just extends the CPU task.
                let stages_data = !config.zero_compression_cost
                    && device == Device::Cpu
                    && staged_elems > 0;
                let externalize_staging = stages_data && job.cluster.staging_shares_intra;
                let staging_duration = if externalize_staging {
                    job.cluster.intra.transfer_time((staged_elems * 4) as f64)
                } else {
                    0.0
                };
                let duration = if config.zero_compression_cost {
                    0.0
                } else {
                    let compute = match kind {
                        ComputeKind::Compress => timing.compress_time(device, elems),
                        ComputeKind::Decompress => timing.decompress_time(device, elems),
                        ComputeKind::Aggregate => {
                            let rate = match device {
                                Device::Gpu => config.gpu_aggregate_rate,
                                Device::Cpu => config.cpu_aggregate_rate,
                            };
                            config.aggregate_overhead + elems as f64 / rate
                        }
                    };
                    if stages_data && !externalize_staging {
                        compute + timing.profile(device).staging_time(staged_elems)
                    } else {
                        compute
                    }
                };
                let resource = if config.zero_compression_cost {
                    // Upper Bound: GC has no impact on computation — keep
                    // the zero-length task off the GPU queue.
                    Resource::Cpu
                } else {
                    match device {
                        Device::Gpu => Resource::Gpu,
                        Device::Cpu => Resource::Cpu,
                    }
                };
                // Compression downloads the dense gradient first;
                // decompression uploads the dense result afterwards.
                if externalize_staging && matches!(kind, ComputeKind::Compress) {
                    stages.push(Stage {
                        kind: TaskKind::Staging,
                        resource: Resource::IntraChannel,
                        pieces: 1,
                        piece_duration: staging_duration,
                        piece_alpha: 0.0,
                    });
                }
                stages.push(Stage {
                    kind: match kind {
                        ComputeKind::Compress => TaskKind::Compress(device),
                        ComputeKind::Decompress => TaskKind::Decompress(device),
                        ComputeKind::Aggregate => TaskKind::Aggregate(device),
                    },
                    resource,
                    pieces: 1,
                    piece_duration: duration,
                    piece_alpha: 0.0,
                });
                if externalize_staging && matches!(kind, ComputeKind::Decompress) {
                    stages.push(Stage {
                        kind: TaskKind::Staging,
                        resource: Resource::IntraChannel,
                        pieces: 1,
                        piece_duration: staging_duration,
                        piece_alpha: 0.0,
                    });
                }
            }
            Work::Comm {
                scope,
                routine,
                contrib_bytes,
            } => {
                let (n, link) = scope_params(job, scope);
                let cost = CollectiveCost::new(n, link);
                let compressed = matches!(
                    aop.op,
                    espresso_strategy::Op::Comm { compressed: true, .. }
                );
                // Compressed blobs travel whole; dense payloads are
                // partitioned per BytePS.
                let pieces = if compressed { 1 } else { parts };
                let per_piece = contrib_bytes / pieces as f64;
                let piece_duration = cost.time(routine, per_piece);
                // The serialization (beta) part is the cost over the same
                // link with its latency zeroed; the remainder is alpha.
                let beta_only = CollectiveCost::new(
                    n,
                    espresso_cluster::Link::new(link.bandwidth, 0.0),
                )
                .time(routine, per_piece);
                stages.push(Stage {
                    kind: TaskKind::Comm(scope, routine),
                    resource: scope_resource(scope),
                    pieces,
                    piece_duration,
                    piece_alpha: (piece_duration - beta_only).max(0.0),
                });
            }
            Work::Free => {}
        }
    }
    stages
}

/// The slot of `res` in per-resource arrays (Gpu/Cpu/Intra/Inter order).
pub(crate) fn resource_idx(res: Resource) -> usize {
    match res {
        Resource::Gpu => 0,
        Resource::Cpu => 1,
        Resource::IntraChannel => 2,
        Resource::InterChannel => 3,
    }
}

/// One tensor's stage tasks, compiled for a specific `(option, elems,
/// algorithm)`: the unit the [`crate::engine::Simulator`] interns and
/// assembles timelines from, and the one [`build_tasks`] expands.
///
/// The tensor's compute task is not stored (its duration is per tensor).
/// Predecessor lists use local indices — 0 is the compute task, `j + 1`
/// is stage task `j` — while `compute_succ` and the successor lists name
/// stage tasks by `j`. Each list ascends.
#[derive(Debug, Clone)]
pub struct Block {
    /// What each stage task does.
    pub kind: Vec<TaskKind>,
    /// Where each runs.
    pub resource: Vec<Resource>,
    /// Each one's service time, seconds.
    pub duration: Vec<f64>,
    /// The latency (alpha) part of each duration.
    pub alpha_secs: Vec<f64>,
    /// Predecessor CSR offsets (`kind.len() + 1` entries).
    pub pred_off: Vec<u32>,
    /// Predecessor lists, local indices.
    pub pred_idx: Vec<u32>,
    /// Stage tasks that list the compute task as a predecessor — the
    /// compute's successor edges into this block.
    pub compute_succ: Vec<u32>,
    /// Successor CSR offsets over the stage-to-stage edges.
    pub succ_off: Vec<u32>,
    /// Successor lists, stage indices.
    pub succ_idx: Vec<u32>,
    /// Total task duration per resource (Gpu/Cpu/Intra/Inter order) —
    /// the ingredient of the simulator's resource lower bounds.
    pub resource_sums: [f64; 4],
    /// Longest dependency path through the block, rooted at the compute
    /// task: a contention-free lower bound on how far past the compute's
    /// finish the block's last task can end.
    pub chain: f64,
}

impl Block {
    /// Compiles the block of one tensor of `elems` elements synchronized
    /// by `option` and compressed with `algo`.
    pub fn compile(
        job: &Job,
        option: &CompressionOption,
        elems: usize,
        algo: GcAlgorithm,
        config: &SimConfig,
    ) -> Block {
        Self::from_stages(&build_stages_for_algo(job, option, elems, algo, config))
    }

    /// Expands `stages` into their tasks: a single-piece stage waits for
    /// every task of the stage before it (or for the compute); a
    /// multi-piece stage chains piece by piece behind a stage of the same
    /// piece count and waits for all of any other. A stage's pieces are
    /// contiguous, so the frontier is an index range; every array is
    /// sized from the piece and edge counts before it is filled, and
    /// `resource_sums` adds the durations in task order.
    pub fn from_stages(stages: &[Stage]) -> Block {
        // Frontier width before each stage, and whether the stage chains
        // piecewise behind it.
        let piecewise = |width: usize, st: &Stage| st.pieces > 1 && width == st.pieces;
        let (mut tasks, mut edges, mut width) = (0usize, 0usize, 1usize);
        for st in stages {
            tasks += st.pieces;
            edges += if piecewise(width, st) {
                st.pieces
            } else {
                st.pieces * width
            };
            width = st.pieces;
        }
        let roots = stages.first().map_or(0, |st| st.pieces);
        let mut block = Block {
            kind: Vec::with_capacity(tasks),
            resource: Vec::with_capacity(tasks),
            duration: Vec::with_capacity(tasks),
            alpha_secs: Vec::with_capacity(tasks),
            pred_off: Vec::with_capacity(tasks + 1),
            pred_idx: Vec::with_capacity(edges),
            compute_succ: (0..roots as u32).collect(),
            succ_off: Vec::with_capacity(tasks + 1),
            succ_idx: Vec::with_capacity(edges - roots),
            resource_sums: [0.0; 4],
            chain: 0.0,
        };
        block.pred_off.push(0);
        block.succ_off.push(0);
        // The frontier as local indices (the compute task first), and the
        // finish of its longest path: every piece of a stage gets the
        // same predecessors' finish plus the same duration, so one value
        // stands for the whole stage.
        let (mut lo, mut hi) = (0u32, 1u32);
        let mut ready = 0.0f64;
        for (k, st) in stages.iter().enumerate() {
            let first = block.kind.len() as u32;
            let chained = piecewise((hi - lo) as usize, st);
            for p in 0..st.pieces as u32 {
                block.kind.push(st.kind);
                block.resource.push(st.resource);
                block.duration.push(st.piece_duration);
                block.alpha_secs.push(st.piece_alpha);
                if chained {
                    block.pred_idx.push(lo + p);
                } else {
                    block.pred_idx.extend(lo..hi);
                }
                block.pred_off.push(block.pred_idx.len() as u32);
                block.resource_sums[resource_idx(st.resource)] += st.piece_duration;
                // Successors: the next stage's pieces, as it will list
                // this stage among its predecessors.
                let next_first = first + st.pieces as u32;
                match stages.get(k + 1) {
                    Some(next) if piecewise(st.pieces, next) => block.succ_idx.push(next_first + p),
                    Some(next) => block
                        .succ_idx
                        .extend(next_first..next_first + next.pieces as u32),
                    None => {}
                }
                block.succ_off.push(block.succ_idx.len() as u32);
            }
            ready += st.piece_duration;
            block.chain = block.chain.max(ready);
            (lo, hi) = (first + 1, first + 1 + st.pieces as u32);
        }
        debug_assert_eq!(block.pred_idx.len(), edges);
        debug_assert_eq!(block.succ_idx.len(), edges - roots);
        block
    }

    /// Number of stage tasks.
    pub fn len(&self) -> usize {
        self.kind.len()
    }

    /// Whether the block has no stage task (a single-GPU job's).
    pub fn is_empty(&self) -> bool {
        self.kind.is_empty()
    }

    /// Stage task `j`'s predecessors, local indices.
    pub fn preds(&self, j: usize) -> &[u32] {
        &self.pred_idx[self.pred_off[j] as usize..self.pred_off[j + 1] as usize]
    }

    /// Stage task `j`'s successors, stage indices.
    pub fn succs(&self, j: usize) -> &[u32] {
        &self.succ_idx[self.succ_off[j] as usize..self.succ_off[j + 1] as usize]
    }
}

/// Builds the task graph for `job` under `strategy`: per tensor, its
/// compute task (chained behind the previous tensor's) and then its
/// [`Block`]'s tasks (uncached; the [`crate::engine::Simulator`] is the
/// cached path).
///
/// # Panics
///
/// Panics if the strategy's tensor count does not match the model.
pub fn build_tasks(job: &Job, strategy: &Strategy, config: &SimConfig) -> Vec<Task> {
    assert_eq!(
        strategy.len(),
        job.num_tensors(),
        "strategy covers {} tensors, model has {}",
        strategy.len(),
        job.num_tensors()
    );
    let mut tasks: Vec<Task> = Vec::with_capacity(job.num_tensors() * 8);
    let mut prev_compute: Option<usize> = None;
    for (i, tensor) in job.model.tensors.iter().enumerate() {
        let block = Block::compile(
            job,
            strategy.option(i),
            tensor.elems,
            job.algo_for(i),
            config,
        );
        let base = tasks.len();
        tasks.push(Task {
            tensor: i,
            kind: TaskKind::Compute,
            resource: Resource::Gpu,
            duration: tensor.compute_time,
            alpha_secs: 0.0,
            preds: prev_compute.into_iter().collect(),
        });
        for j in 0..block.len() {
            tasks.push(Task {
                tensor: i,
                kind: block.kind[j],
                resource: block.resource[j],
                duration: block.duration[j],
                alpha_secs: block.alpha_secs[j],
                preds: block.preds(j).iter().map(|&p| base + p as usize).collect(),
            });
        }
        prev_compute = Some(base);
    }
    tasks
}

#[cfg(test)]
mod tests {
    use super::*;
    use espresso_cluster::{CommPattern, Cluster};
    use espresso_gc::GcAlgorithm;
    use espresso_models::Model;

    fn job() -> Job {
        Job::new(
            Model::Lstm.profile(),
            Cluster::nvlink_100g(8, 8),
            GcAlgorithm::dgc_1pct(),
        )
    }

    fn no_partition() -> SimConfig {
        SimConfig {
            partition_bytes: f64::INFINITY,
            ..SimConfig::default()
        }
    }

    #[test]
    fn unpartitioned_uncompressed_strategy_builds_compute_plus_comm() {
        let j = job();
        let s = Strategy::uncompressed(j.num_tensors(), CommPattern::Hierarchical, &j.cluster);
        let tasks = build_tasks(&j, &s, &no_partition());
        // Per tensor: 1 compute + 3 comm phases.
        assert_eq!(tasks.len(), j.num_tensors() * 4);
        assert!(tasks.iter().all(|t| !t.kind.is_compression_work()));
    }

    #[test]
    fn partitioning_splits_large_dense_tensors() {
        let j = job();
        let s = Strategy::uncompressed(j.num_tensors(), CommPattern::Hierarchical, &j.cluster);
        let config = SimConfig::default();
        let tasks = build_tasks(&j, &s, &config);
        let biggest = j
            .model
            .tensors
            .iter()
            .enumerate()
            .max_by_key(|(_, t)| t.elems)
            .unwrap()
            .0;
        let expected =
            ((j.model.tensors[biggest].elems * 4) as f64 / config.partition_bytes).ceil() as usize;
        let inter_pieces = tasks
            .iter()
            .filter(|t| {
                t.tensor == biggest && matches!(t.kind, TaskKind::Comm(CommScope::Inter, _))
            })
            .count();
        assert_eq!(inter_pieces, expected);
    }

    #[test]
    fn piece_durations_sum_to_unpartitioned_bandwidth_term() {
        // Splitting must preserve total bytes: the summed piece durations
        // exceed the single-collective duration only by the extra alpha.
        let j = job();
        let s = Strategy::uncompressed(j.num_tensors(), CommPattern::Hierarchical, &j.cluster);
        let part = build_tasks(&j, &s, &SimConfig::default());
        let whole = build_tasks(&j, &s, &no_partition());
        let sum_comm = |tasks: &[Task]| -> f64 {
            tasks
                .iter()
                .filter(|t| t.kind.is_comm())
                .map(|t| t.duration)
                .sum()
        };
        let with = sum_comm(&part);
        let without = sum_comm(&whole);
        assert!(with >= without, "partitioning lost bytes");
        assert!(
            with < without * 1.5,
            "alpha inflation too large: {with} vs {without}"
        );
    }

    #[test]
    fn compute_chain_is_sequential() {
        let j = job();
        let s = Strategy::uncompressed(j.num_tensors(), CommPattern::Flat, &j.cluster);
        let tasks = build_tasks(&j, &s, &SimConfig::default());
        let computes: Vec<usize> = tasks
            .iter()
            .enumerate()
            .filter(|(_, t)| t.kind == TaskKind::Compute)
            .map(|(i, _)| i)
            .collect();
        for w in computes.windows(2) {
            assert_eq!(tasks[w[1]].preds, vec![w[0]]);
        }
        assert!(tasks[computes[0]].preds.is_empty());
    }

    #[test]
    fn compressed_blobs_are_not_partitioned() {
        let j = job();
        let space = espresso_strategy::OptionSpace::enumerate(&j.cluster);
        let opt = space
            .gpu_compressed()
            .iter()
            .find(|o| {
                o.ops.iter().any(|op| {
                    matches!(
                        op,
                        espresso_strategy::Op::Comm {
                            scope: CommScope::Inter,
                            compressed: true,
                            ..
                        }
                    )
                })
            })
            .unwrap();
        let s = Strategy::uniform(j.num_tensors(), opt.clone());
        let tasks = build_tasks(&j, &s, &SimConfig::default());
        let biggest = j
            .model
            .tensors
            .iter()
            .enumerate()
            .max_by_key(|(_, t)| t.elems)
            .unwrap()
            .0;
        let inter_pieces = tasks
            .iter()
            .filter(|t| {
                t.tensor == biggest && matches!(t.kind, TaskKind::Comm(CommScope::Inter, _))
            })
            .count();
        assert_eq!(inter_pieces, 1);
    }

    #[test]
    fn pcie_cluster_externalizes_cpu_staging() {
        let j = Job::new(
            Model::Lstm.profile(),
            Cluster::pcie_25g(8, 8),
            GcAlgorithm::dgc_1pct(),
        );
        let space = espresso_strategy::OptionSpace::enumerate(&j.cluster);
        let opt = space
            .compressed()
            .iter()
            .find(|o| !o.gpu_only())
            .unwrap()
            .with_device(Device::Cpu);
        let s = Strategy::uniform(j.num_tensors(), opt);
        let tasks = build_tasks(&j, &s, &SimConfig::default());
        assert!(
            tasks
                .iter()
                .any(|t| t.kind == TaskKind::Staging && t.resource == Resource::IntraChannel),
            "no staging tasks on the intra channel"
        );
        // On NVLink machines the same strategy has no staging tasks.
        let j2 = job();
        let space2 = espresso_strategy::OptionSpace::enumerate(&j2.cluster);
        let opt2 = space2
            .compressed()
            .iter()
            .find(|o| !o.gpu_only())
            .unwrap()
            .with_device(Device::Cpu);
        let s2 = Strategy::uniform(j2.num_tensors(), opt2);
        let tasks2 = build_tasks(&j2, &s2, &SimConfig::default());
        assert!(tasks2.iter().all(|t| t.kind != TaskKind::Staging));
    }

    #[test]
    fn upper_bound_zeroes_compression() {
        let j = job();
        let space = espresso_strategy::OptionSpace::enumerate(&j.cluster);
        let opt = space.gpu_compressed()[0].clone();
        let s = Strategy::uniform(j.num_tensors(), opt);
        let tasks = build_tasks(&j, &s, &SimConfig::upper_bound());
        for t in &tasks {
            if t.kind.is_compression_work() {
                assert_eq!(t.duration, 0.0);
                assert_eq!(t.resource, Resource::Cpu);
            }
        }
    }

    #[test]
    fn durations_are_finite_and_nonnegative() {
        let j = job();
        let space = espresso_strategy::OptionSpace::enumerate(&j.cluster);
        for opt in space.all().iter().take(200) {
            let s = Strategy::uniform(j.num_tensors(), opt.clone());
            for t in build_tasks(&j, &s, &SimConfig::default()) {
                assert!(t.duration.is_finite() && t.duration >= 0.0, "{t:?}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "strategy covers")]
    fn mismatched_strategy_panics() {
        let j = job();
        let s = Strategy::uncompressed(3, CommPattern::Flat, &j.cluster);
        let _ = build_tasks(&j, &s, &SimConfig::default());
    }
}
