//! The comparison systems of the paper's section 5, plus the
//! crippled-dimension mechanisms of Figure 15.
//!
//! Each baseline is a *strategy generator* exploring a narrower search
//! space than Espresso (section 6, Related Work):
//!
//! * **BytePS (FP32)** — no compression, hierarchical synchronization.
//! * **HiPress** — GPU compression, inter-machine only, with *selective
//!   compression* that compares wall-clock `tau_comm` saved against
//!   `tau_comp` added — times, not overheads, so it ignores interactions.
//! * **HiTopKComm** — compresses *all* tensors with GPUs, inter-machine
//!   only.
//! * **BytePS-Compress** — compresses all tensors with CPUs, inter-machine
//!   only.
//!
//! None of them consider intra-machine compression, CPU/GPU splits, or
//! tensor interactions — exactly the gaps Espresso exploits.

use std::sync::Arc;

use espresso_cluster::{CommPattern, CommScope, Routine};
use espresso_gc::Device;
use espresso_sim::Job;
use espresso_strategy::{CompressionOption, Op, OptionSpace, Strategy};

/// The comparison systems (and Espresso's Upper Bound) of section 5.1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Baseline {
    /// BytePS without compression.
    Fp32,
    /// HiPress: selective GPU compression, inter-machine only.
    HiPress,
    /// HiTopKComm: all-tensor GPU compression, inter-machine only.
    HiTopKComm,
    /// BytePS-Compress: all-tensor CPU compression, inter-machine only.
    BytePsCompress,
}

impl Baseline {
    /// All baselines in the paper's plotting order.
    pub const ALL: [Baseline; 4] = [
        Baseline::Fp32,
        Baseline::HiPress,
        Baseline::HiTopKComm,
        Baseline::BytePsCompress,
    ];

    /// Display name as used in the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            Baseline::Fp32 => "FP32",
            Baseline::HiPress => "HiPress",
            Baseline::HiTopKComm => "HiTopKComm",
            Baseline::BytePsCompress => "BytePS-Compress",
        }
    }

    /// Builds the baseline's strategy for `job`.
    pub fn strategy(self, job: &Job) -> Strategy {
        match self {
            Baseline::Fp32 => fp32(job),
            Baseline::HiPress => hipress(job),
            Baseline::HiTopKComm => uniform_inter_compressed(job, Device::Gpu),
            Baseline::BytePsCompress => uniform_inter_compressed(job, Device::Cpu),
        }
    }
}

/// The hierarchical no-compression plan (BytePS).
pub fn fp32(job: &Job) -> Strategy {
    let pattern = crate::decision::gpu::default_pattern(job);
    let option = CompressionOption::uncompressed(pattern, &job.cluster);
    Strategy::uniform(job.num_tensors(), canonical(job, option))
}

/// `option` as the option table's own `Arc` where the table holds it,
/// so the simulator's block interner keys a baseline's blocks by table
/// index and a robust request's pricing simulators share them.
fn canonical(job: &Job, option: Arc<CompressionOption>) -> Arc<CompressionOption> {
    OptionSpace::enumerate(&job.cluster).canonical(option)
}

/// The inter-machine-compressed option of the compression baselines.
///
/// * **GPU** (HiPress, HiTopKComm): NCCL-style — reduce-scatter inside the
///   machine, compress each GPU's shard, allgather the compressed shards
///   across machines, decompress + sum, allgather the dense shards inside
///   the machine.
/// * **CPU** (BytePS-Compress): PS-style — local reduce to the machine
///   root, stage the *full* tensor to the host, compress it on CPUs, push
///   the pieces to the per-machine parameter-server shards (Alltoall),
///   decompress + sum + recompress at the shard, pull the results back
///   (shard Allgather), and broadcast the dense tensor inside the machine.
///   Full-tensor compression at the root is what makes BytePS-Compress
///   collapse on giant-tensor models (the paper's UGATIT and VGG16
///   results), while the PS sharding keeps the server-side decompression
///   and aggregation load distributed across all machines.
pub fn inter_compressed_option(job: &Job, device: Device) -> Arc<CompressionOption> {
    let c = &job.cluster;
    if !c.is_multi_machine() && !c.has_intra_comm() {
        return canonical(job, CompressionOption::uncompressed(CommPattern::Flat, c));
    }
    let mut ops = Vec::new();
    match device {
        Device::Gpu => {
            if c.has_intra_comm() {
                ops.push(Op::comm(CommScope::IntraFirst, Routine::ReduceScatter, false));
            }
            if c.is_multi_machine() {
                ops.push(Op::comp(device));
                ops.push(Op::comm(CommScope::Inter, Routine::Allgather, true));
                ops.push(Op::decomp(device));
                ops.push(Op::AggregateSum { device });
            }
            if c.has_intra_comm() {
                ops.push(Op::comm(CommScope::IntraSecond, Routine::Allgather, false));
            }
        }
        Device::Cpu => {
            if c.has_intra_comm() {
                ops.push(Op::comm(CommScope::IntraFirst, Routine::Reduce, false));
            }
            if c.is_multi_machine() {
                ops.push(Op::comp(device));
                ops.push(Op::comm(CommScope::Inter, Routine::Alltoall, true));
                ops.push(Op::decomp(device));
                ops.push(Op::AggregateSum { device });
                ops.push(Op::comp(device));
                ops.push(Op::shard_allgather(CommScope::Inter));
                ops.push(Op::decomp(device));
                ops.push(Op::Concat);
            }
            if c.has_intra_comm() {
                ops.push(Op::comm(CommScope::IntraSecond, Routine::Broadcast, false));
            }
        }
    }
    let option = CompressionOption::new(CommPattern::Hierarchical, ops, c)
        .expect("inter-compressed baseline option must be valid");
    canonical(job, option)
}

/// All tensors compressed for inter-machine communication on `device`
/// (HiTopKComm with GPUs, BytePS-Compress with CPUs).
fn uniform_inter_compressed(job: &Job, device: Device) -> Strategy {
    Strategy::uniform(job.num_tensors(), inter_compressed_option(job, device))
}

/// HiPress: per-tensor *selective compression* comparing the wall-clock
/// communication time saved against the wall-clock compression time added
/// — the interaction-blind rule Espresso's Property #3 improves on.
pub fn hipress(job: &Job) -> Strategy {
    let timing = job.timing();
    let compressed = inter_compressed_option(job, Device::Gpu);
    let plain = CompressionOption::uncompressed(CommPattern::Hierarchical, &job.cluster);
    let mut strategy = fp32(job);
    for (i, tensor) in job.model.tensors.iter().enumerate() {
        let comm = |opt: &CompressionOption| -> f64 {
            opt.annotate(tensor.elems, job.algo, &job.cluster)
                .iter()
                .map(|a| match a.work {
                    espresso_strategy::Work::Comm {
                        scope,
                        routine,
                        contrib_bytes,
                    } => {
                        let cost = match scope {
                            CommScope::IntraFirst | CommScope::IntraSecond => {
                                espresso_cluster::CollectiveCost::new(
                                    job.cluster.gpus_per_machine,
                                    job.cluster.intra,
                                )
                            }
                            CommScope::Inter => espresso_cluster::CollectiveCost::new(
                                job.cluster.machines,
                                job.cluster.inter,
                            ),
                            CommScope::Flat => espresso_cluster::CollectiveCost::new(
                                job.cluster.total_gpus(),
                                job.cluster.flat_link(),
                            ),
                        };
                        cost.time(routine, contrib_bytes)
                    }
                    _ => 0.0,
                })
                .sum()
        };
        let comp_cost: f64 = compressed
            .annotate(tensor.elems, job.algo, &job.cluster)
            .iter()
            .map(|a| match a.work {
                espresso_strategy::Work::Compute { device, kind, elems, .. } => match kind {
                    espresso_strategy::option::ComputeKind::Compress => {
                        timing.compress_time(device, elems)
                    }
                    espresso_strategy::option::ComputeKind::Decompress => {
                        timing.decompress_time(device, elems)
                    }
                    espresso_strategy::option::ComputeKind::Aggregate => {
                        // HiPress folds aggregation into its decompression
                        // kernel; charge it at the decompress rate.
                        timing.decompress_time(device, elems) * 0.5
                    }
                },
                _ => 0.0,
            })
            .sum();
        let saved = comm(&plain) - comm(&compressed);
        if saved > comp_cost {
            strategy.set_option(i, compressed.clone());
        }
    }
    strategy
}

/// The seven crippled-dimension mechanisms of Figure 15.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Crippled {
    /// Dimension 1 crippled: compress every tensor (best GPU option each,
    /// but no not-compressing escape hatch).
    AllCompression,
    /// Dimension 1 crippled: per-tensor decisions by standalone wall-clock
    /// times, ignoring interactions among tensors.
    MyopicCompression,
    /// Dimension 2 crippled: GPU compression only (no CPU offloading).
    GpuOnly,
    /// Dimension 2 crippled: CPU compression only.
    CpuOnly,
    /// Dimension 3 crippled: inter-machine compression with the
    /// indivisible Allgather scheme only.
    InterAllgather,
    /// Dimension 3 crippled: inter-machine compression with the divisible
    /// Alltoall/Allgather scheme only.
    InterAlltoall,
    /// Dimension 4 crippled: compress for the first intra step (Alltoall),
    /// recompress for inter (Alltoall/Allgather), Allgather intra second.
    AlltoallAlltoall,
}

impl Crippled {
    /// All mechanisms grouped by the dimension they cripple, in the
    /// paper's Figure 15 panel order.
    pub const ALL: [Crippled; 7] = [
        Crippled::AllCompression,
        Crippled::MyopicCompression,
        Crippled::GpuOnly,
        Crippled::CpuOnly,
        Crippled::InterAllgather,
        Crippled::InterAlltoall,
        Crippled::AlltoallAlltoall,
    ];

    /// Display name matching the paper.
    pub fn name(self) -> &'static str {
        match self {
            Crippled::AllCompression => "All compression",
            Crippled::MyopicCompression => "Myopic compression",
            Crippled::GpuOnly => "GPU compression",
            Crippled::CpuOnly => "CPU compression",
            Crippled::InterAllgather => "Inter Allgather",
            Crippled::InterAlltoall => "Inter Alltoall",
            Crippled::AlltoallAlltoall => "Alltoall+Alltoall",
        }
    }

    /// The inter-compressed divisible (Alltoall/Allgather) option.
    fn inter_alltoall_option(job: &Job, device: Device) -> Arc<CompressionOption> {
        let c = &job.cluster;
        let mut ops = Vec::new();
        if c.has_intra_comm() {
            ops.push(Op::comm(CommScope::IntraFirst, Routine::ReduceScatter, false));
        }
        ops.push(Op::comp(device));
        ops.push(Op::comm(CommScope::Inter, Routine::Alltoall, true));
        ops.push(Op::decomp(device));
        ops.push(Op::AggregateSum { device });
        ops.push(Op::comp(device));
        ops.push(Op::shard_allgather(CommScope::Inter));
        ops.push(Op::decomp(device));
        ops.push(Op::Concat);
        if c.has_intra_comm() {
            ops.push(Op::comm(CommScope::IntraSecond, Routine::Allgather, false));
        }
        let option = CompressionOption::new(CommPattern::Hierarchical, ops, c)
            .expect("inter-alltoall option must be valid");
        canonical(job, option)
    }

    /// The Alltoall+Alltoall option of the Figure 15(d) mechanism.
    fn alltoall_alltoall_option(job: &Job, device: Device) -> Arc<CompressionOption> {
        let c = &job.cluster;
        let ops = vec![
            // First intra step compressed via Alltoall.
            Op::comp(device),
            Op::comm(CommScope::IntraFirst, Routine::Alltoall, true),
            Op::decomp(device),
            Op::AggregateSum { device },
            // Recompress for inter Alltoall/Allgather.
            Op::comp(device),
            Op::comm(CommScope::Inter, Routine::Alltoall, true),
            Op::decomp(device),
            Op::AggregateSum { device },
            Op::comp(device),
            Op::shard_allgather(CommScope::Inter),
            Op::decomp(device),
            Op::Concat,
            // Second intra step: Allgather of the dense shards.
            Op::comm(CommScope::IntraSecond, Routine::Allgather, false),
        ];
        let option = CompressionOption::new(CommPattern::Hierarchical, ops, c)
            .expect("alltoall+alltoall option must be valid");
        canonical(job, option)
    }

    /// Builds this mechanism's strategy for `job` (the bars of Figure 15).
    pub fn strategy(self, job: &Job, config: &espresso_sim::SimConfig) -> Strategy {
        use crate::decision::gpu;
        let sim = espresso_sim::Simulator::new(job.clone(), *config);
        match self {
            Crippled::AllCompression => {
                let init = inter_compressed_option(job, Device::Gpu);
                gpu::decide_forced_with_simulator(&sim, &self.candidates(job), init).strategy
            }
            Crippled::MyopicCompression => myopic(job, &self.candidates(job)),
            Crippled::GpuOnly | Crippled::CpuOnly => {
                gpu::decide_with_simulator(&sim, &self.candidates(job)).strategy
            }
            Crippled::InterAllgather | Crippled::InterAlltoall | Crippled::AlltoallAlltoall => {
                gpu::decide_with_simulator(&sim, &self.candidates(job)).strategy
            }
        }
    }

    /// The candidate option set this mechanism restricts Espresso to.
    pub fn candidates(self, job: &Job) -> Vec<Arc<CompressionOption>> {
        let space = espresso_strategy::OptionSpace::enumerate(&job.cluster);
        match self {
            Crippled::AllCompression | Crippled::MyopicCompression | Crippled::GpuOnly => {
                space.gpu_compressed().to_vec()
            }
            Crippled::CpuOnly => space.cpu_variants().to_vec(),
            Crippled::InterAllgather => vec![inter_compressed_option(job, Device::Gpu)],
            Crippled::InterAlltoall => vec![Self::inter_alltoall_option(job, Device::Gpu)],
            Crippled::AlltoallAlltoall => vec![Self::alltoall_alltoall_option(job, Device::Gpu)],
        }
    }
}

/// Myopic compression (Figure 15(a)'s second mechanism): every tensor
/// independently takes the candidate minimizing its *standalone* summed
/// wall-clock time (communication plus compression), ignoring every
/// interaction among tensors — the decision rule the paper's Reason #1
/// warns against.
pub fn myopic(job: &Job, candidates: &[Arc<CompressionOption>]) -> Strategy {
    let timing = job.timing();
    let baseline = CompressionOption::uncompressed(CommPattern::Hierarchical, &job.cluster);
    let standalone = |opt: &CompressionOption, elems: usize| -> f64 {
        opt.annotate(elems, job.algo, &job.cluster)
            .iter()
            .map(|a| match a.work {
                espresso_strategy::Work::Comm {
                    scope,
                    routine,
                    contrib_bytes,
                } => {
                    let cost = match scope {
                        CommScope::IntraFirst | CommScope::IntraSecond => {
                            espresso_cluster::CollectiveCost::new(
                                job.cluster.gpus_per_machine,
                                job.cluster.intra,
                            )
                        }
                        CommScope::Inter => espresso_cluster::CollectiveCost::new(
                            job.cluster.machines,
                            job.cluster.inter,
                        ),
                        CommScope::Flat => espresso_cluster::CollectiveCost::new(
                            job.cluster.total_gpus(),
                            job.cluster.flat_link(),
                        ),
                    };
                    cost.time(routine, contrib_bytes)
                }
                espresso_strategy::Work::Compute { device, kind, elems, .. } => match kind {
                    espresso_strategy::option::ComputeKind::Compress => {
                        timing.compress_time(device, elems)
                    }
                    espresso_strategy::option::ComputeKind::Decompress => {
                        timing.decompress_time(device, elems)
                    }
                    espresso_strategy::option::ComputeKind::Aggregate => {
                        timing.decompress_time(device, elems) * 0.5
                    }
                },
                espresso_strategy::Work::Free => 0.0,
            })
            .sum()
    };
    let options = job
        .model
        .tensors
        .iter()
        .map(|tensor| {
            candidates
                .iter()
                .chain(std::iter::once(&baseline))
                .min_by(|a, b| {
                    standalone(a, tensor.elems).total_cmp(&standalone(b, tensor.elems))
                })
                .expect("non-empty candidates")
                .clone()
        })
        .collect();
    Strategy::from_options(options)
}

#[cfg(test)]
mod tests {
    use super::*;
    use espresso_cluster::Cluster;
    use espresso_gc::GcAlgorithm;
    use espresso_models::Model;
    use espresso_sim::{simulate, SimConfig};

    fn job() -> Job {
        Job::new(
            Model::BertBase.profile(),
            Cluster::nvlink_100g(8, 8),
            GcAlgorithm::randomk_1pct(),
        )
    }

    #[test]
    fn fp32_compresses_nothing() {
        let j = job();
        assert_eq!(fp32(&j).num_compressed(), 0);
    }

    #[test]
    fn hitopkcomm_compresses_everything_on_gpu() {
        let j = job();
        let s = Baseline::HiTopKComm.strategy(&j);
        assert_eq!(s.num_compressed(), j.num_tensors());
        assert!(s.iter().all(|(_, o)| o.gpu_only()));
    }

    #[test]
    fn bytep_compress_uses_cpu() {
        let j = job();
        let s = Baseline::BytePsCompress.strategy(&j);
        assert_eq!(s.num_compressed(), j.num_tensors());
        assert!(s.iter().all(|(_, o)| !o.gpu_only()));
    }

    #[test]
    fn hipress_is_selective() {
        // BERT has many tiny LayerNorm/bias tensors whose compression
        // cannot pay for its kernel launches: HiPress must skip them while
        // compressing the large projections.
        let j = job();
        let s = hipress(&j);
        let n = s.num_compressed();
        assert!(n > 0, "HiPress compressed nothing");
        assert!(n < j.num_tensors(), "HiPress compressed everything");
        // Large tensors are compressed, 768-element biases are not.
        for (i, t) in j.model.tensors.iter().enumerate() {
            if t.elems >= 2_000_000 {
                assert!(s.option(i).compresses(), "{} not compressed", t.name);
            }
            if t.elems <= 1024 {
                assert!(!s.option(i).compresses(), "{} compressed", t.name);
            }
        }
    }

    #[test]
    fn all_baseline_strategies_simulate() {
        let j = job();
        for b in Baseline::ALL {
            let s = b.strategy(&j);
            let r = simulate(&j, &s, &SimConfig::default());
            assert!(
                r.iteration_time.is_finite() && r.iteration_time > 0.0,
                "{}",
                b.name()
            );
        }
    }

    #[test]
    fn baseline_options_come_from_the_option_table() {
        // A table option compiles once per block table, keyed by its
        // index; an option built beside the table would compile apart in
        // each of a robust request's pricing simulators.
        for cluster in [
            Cluster::pcie_25g(8, 8),
            Cluster::nvlink_100g(8, 8),
            Cluster::pcie_25g(2, 4),
            Cluster::pcie_25g(1, 4),
        ] {
            let j = Job::new(Model::Vgg16.profile(), cluster, GcAlgorithm::dgc_1pct());
            for b in Baseline::ALL {
                for (i, opt) in b.strategy(&j).iter() {
                    assert!(
                        opt.table_index().is_some(),
                        "{} tensor {i} on {cluster:?}: {}",
                        b.name(),
                        opt.describe()
                    );
                }
            }
        }
    }

    #[test]
    fn crippled_candidate_sets_are_valid() {
        let j = job();
        for c in Crippled::ALL {
            let cands = c.candidates(&j);
            assert!(!cands.is_empty(), "{}", c.name());
            for opt in cands.iter().take(20) {
                opt.validate(&j.cluster).unwrap();
            }
        }
    }

    #[test]
    fn cpu_only_candidates_avoid_gpu() {
        let j = job();
        for opt in Crippled::CpuOnly.candidates(&j) {
            assert!(
                opt.devices()
                    .iter()
                    .all(|d| *d == Device::Cpu),
                "{}",
                opt.describe()
            );
        }
    }
}
