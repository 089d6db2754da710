//! Construction of the compression-option space (paper Figure 8).
//!
//! The tree is built by composing the paper's sub-trees:
//!
//! * the **flat** branch: one communication phase over every GPU, with the
//!   `compress?` and `divisible scheme?` decisions and, for divisible
//!   schemes, a second-step sub-tree (T1-style),
//! * the **hierarchical** branch: an intra-machine first step (divisible
//!   schemes only, per the Dimension 4 discussion), an inter-machine stage
//!   (sub-trees T3/T4/T5), and an intra-machine second step (sub-trees
//!   T1/T2 — including the *carried-compressed* variant where the tensor
//!   crosses the machine boundary still compressed and is decompressed
//!   only once, footnote 2's skip optimization).
//!
//! The three pruning rules of section 4.2.2 are structural here: only
//! valid task connections are generated, communication tasks are emitted
//! at their correct steps, and first/second collective choices pair
//! (Reduce-scatter/Alltoall with Allgather; Reduce/Gather with Broadcast).
//! Every produced option additionally passes the payload state machine,
//! so a construction bug cannot silently emit an inexpressible option.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use espresso_cluster::{CommPattern, CommScope, Cluster, Routine};
use espresso_gc::Device;

use crate::{
    constraints::Constraints,
    op::Op,
    option::CompressionOption,
};

/// How an intra-machine (or flat) divisible first step left the payload,
/// which determines the paired second-step collective.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Pairing {
    /// Scatter-style first step (Reduce-scatter / Alltoall): the second
    /// step is an Allgather of shards.
    Scattered,
    /// Root-style first step (Reduce / Gather): the second step is a
    /// Broadcast from the root.
    Rooted,
}

/// A partial op sequence with its pairing obligation.
#[derive(Debug, Clone)]
struct Segment {
    ops: Vec<Op>,
    pairing: Pairing,
    /// Whether the payload leaves this segment compressed (one piece).
    compressed_out: bool,
}

/// The full option space for one cluster shape.
///
/// The tree reads only the cluster's shape — `machines` and
/// `gpus_per_machine` — and the [`Constraints`], so it is enumerated once
/// per process for each such key and kept in a small, fixed-capacity
/// table of immutable entries (see [`OptionSpace::enumerate_constrained`]).
/// A space carries its own [`Cluster`] and a handle on its table entry:
/// the sorted option list and three partitions precomputed with it.
///
/// # Examples
///
/// ```
/// use espresso_cluster::Cluster;
/// use espresso_strategy::OptionSpace;
///
/// let cluster = Cluster::nvlink_100g(8, 8);
/// let space = OptionSpace::enumerate(&cluster);
/// // Thousands of valid options (the paper reports |C| = 4341 for its
/// // tree), of which a small GPU-only subset feeds Algorithm 1.
/// assert!(space.len() > 1000);
/// assert!(space.gpu_compressed().len() < 200);
/// ```
#[derive(Debug, Clone)]
pub struct OptionSpace {
    cluster: Cluster,
    options: Arc<ShapeOptions>,
}

/// One table entry: a shape's sorted options under one constraint set,
/// with the partitions the decision phases read.
#[derive(Debug)]
struct ShapeOptions {
    all: Vec<Arc<CompressionOption>>,
    gpu_compressed: Vec<Arc<CompressionOption>>,
    compressed: Vec<Arc<CompressionOption>>,
    cpu_variants: Vec<Arc<CompressionOption>>,
}

/// What enumeration reads, and so what the table is keyed by.
#[derive(Debug)]
struct ShapeKey {
    machines: usize,
    gpus_per_machine: usize,
    constraints: Constraints,
}

impl ShapeKey {
    fn matches(&self, cluster: &Cluster, constraints: &Constraints) -> bool {
        self.machines == cluster.machines
            && self.gpus_per_machine == cluster.gpus_per_machine
            && self.constraints == *constraints
    }
}

/// Entries the option table keeps; the least recently used one is
/// dropped to admit a new key. A server or a training run plans for a
/// handful of shapes, and building a 2×4 or 4×4 entry (3,005 options)
/// raises resident memory by about 1 MB. A dropped shape is enumerated
/// again, with new indices, on its next use.
const SHAPE_TABLE_CAPACITY: usize = 8;

/// The process-wide option table, most recently used entry last.
static SHAPES: Mutex<Vec<(ShapeKey, Arc<ShapeOptions>)>> = Mutex::new(Vec::new());

/// The next unused dense option index. An unconstrained enumeration
/// reserves one index per option; constrained entries reuse the Arcs —
/// and so the indices — of their shape's unconstrained entry.
static NEXT_INDEX: AtomicU64 = AtomicU64::new(0);

/// The table, lock poisoning ignored: entries are immutable once
/// inserted, so a panic elsewhere cannot leave one half-built.
fn shapes() -> MutexGuard<'static, Vec<(ShapeKey, Arc<ShapeOptions>)>> {
    SHAPES.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The table entry for `cluster`'s shape under `constraints`,
/// enumerating it on a miss. The enumeration runs outside the lock; when
/// two threads race on one key, the first insert wins and both return it.
fn shape_options(cluster: &Cluster, constraints: &Constraints) -> Arc<ShapeOptions> {
    {
        let mut table = shapes();
        if let Some(at) = table
            .iter()
            .position(|(k, _)| k.matches(cluster, constraints))
        {
            let entry = table.remove(at);
            let options = entry.1.clone();
            table.push(entry);
            return options;
        }
    }
    let built = if *constraints == Constraints::default() {
        let raw = fresh_options(cluster, constraints);
        let base = NEXT_INDEX.fetch_add(raw.len() as u64, Ordering::Relaxed);
        let all: Vec<Arc<CompressionOption>> = raw
            .into_iter()
            .zip(base..)
            .map(|(mut o, index)| {
                o.table_index = Some(index);
                Arc::new(o)
            })
            .collect();
        ShapeOptions::new(all.clone(), &all)
    } else {
        let full = shape_options(cluster, &Constraints::default());
        let all = full
            .all
            .iter()
            .filter(|o| constraints.allows(o))
            .cloned()
            .collect();
        ShapeOptions::new(all, &full.all)
    };
    let mut table = shapes();
    if let Some((_, raced)) = table.iter().find(|(k, _)| k.matches(cluster, constraints)) {
        return raced.clone();
    }
    if table.len() == SHAPE_TABLE_CAPACITY {
        table.remove(0);
    }
    let options = Arc::new(built);
    table.push((
        ShapeKey {
            machines: cluster.machines,
            gpus_per_machine: cluster.gpus_per_machine,
            constraints: constraints.clone(),
        },
        options.clone(),
    ));
    options
}

/// Enumerates, filters, sorts and validates the options of `cluster`'s
/// shape — the tree walk itself, without the table.
fn fresh_options(cluster: &Cluster, constraints: &Constraints) -> Vec<CompressionOption> {
    let mut raw: Vec<CompressionOption> = Vec::new();
    if cluster.total_gpus() > 1 {
        raw.extend(flat_options(cluster));
        raw.extend(hierarchical_options(cluster));
    } else {
        raw.push(CompressionOption::unindexed(CommPattern::Flat, vec![]));
    }
    raw.retain(|o| constraints.allows(o));
    raw.sort();
    raw.dedup();
    for o in &raw {
        o.validate(cluster)
            .unwrap_or_else(|e| panic!("tree produced invalid option {}: {e}", o.describe()));
    }
    raw
}

impl ShapeOptions {
    /// Partitions the sorted `all`. `full` is the shape's unconstrained
    /// option list: each CPU variant is taken from it, so a variant that
    /// is itself an option of the tree shares that option's `Arc` and
    /// table index.
    fn new(all: Vec<Arc<CompressionOption>>, full: &[Arc<CompressionOption>]) -> Self {
        let gpu_compressed = all
            .iter()
            .filter(|o| o.compresses() && o.gpu_only())
            .cloned()
            .collect();
        let compressed: Vec<Arc<CompressionOption>> =
            all.iter().filter(|o| o.compresses()).cloned().collect();
        let mut cpu: Vec<CompressionOption> = compressed
            .iter()
            .map(|o| o.device_variant(Device::Cpu))
            .filter(|o| o.compresses())
            .collect();
        cpu.sort();
        cpu.dedup();
        let cpu_variants = cpu
            .into_iter()
            .map(|o| match full.binary_search_by(|f| (**f).cmp(&o)) {
                Ok(at) => full[at].clone(),
                Err(_) => Arc::new(o),
            })
            .collect();
        Self {
            all,
            gpu_compressed,
            compressed,
            cpu_variants,
        }
    }
}

impl OptionSpace {
    /// Enumerates every valid compression option for `cluster`.
    pub fn enumerate(cluster: &Cluster) -> Self {
        Self::enumerate_constrained(cluster, &Constraints::default())
    }

    /// Enumerates the option space, pruned by user `constraints`.
    ///
    /// The options come from the process-wide table, keyed by the
    /// cluster's `machines` and `gpus_per_machine` and by `constraints`
    /// (the only inputs the tree reads), so a repeated shape costs a
    /// lookup. Every space of one shape hands out the same `Arc`s, each
    /// carrying its [`CompressionOption::table_index`].
    pub fn enumerate_constrained(cluster: &Cluster, constraints: &Constraints) -> Self {
        Self {
            cluster: *cluster,
            options: shape_options(cluster, constraints),
        }
    }

    /// The cluster this space was enumerated for.
    pub fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    /// All options (the paper's `C`), including uncompressed ones.
    pub fn all(&self) -> &[Arc<CompressionOption>] {
        &self.options.all
    }

    /// Number of options, |C|.
    pub fn len(&self) -> usize {
        self.options.all.len()
    }

    /// Whether the space is empty (never, for a valid cluster).
    pub fn is_empty(&self) -> bool {
        self.options.all.is_empty()
    }

    /// Options whose compression work runs exclusively on GPUs — the
    /// paper's `C_gpu`, the candidate set of Algorithm 1. Includes the
    /// compressing GPU options only (the no-compression candidate is
    /// handled separately by the algorithm).
    pub fn gpu_compressed(&self) -> &[Arc<CompressionOption>] {
        &self.options.gpu_compressed
    }

    /// Options that compress somewhere, on any device.
    pub fn compressed(&self) -> &[Arc<CompressionOption>] {
        &self.options.compressed
    }

    /// Every compressed option with all its compression work moved to
    /// the CPU ([`CompressionOption::with_device`]), deduplicated, in
    /// option order — the candidates of the CPU backfill.
    pub fn cpu_variants(&self) -> &[Arc<CompressionOption>] {
        &self.options.cpu_variants
    }

    /// The space's own `Arc` of `option` (by content), carrying its
    /// [`CompressionOption::table_index`], or `option` itself when the
    /// space does not hold it. Options built outside the table (a
    /// baseline's, Algorithm 1's all-uncompressed start) pass through
    /// here, so the simulator's block interner keys them by table index
    /// and simulators sharing a block table share their blocks.
    pub fn canonical(&self, option: Arc<CompressionOption>) -> Arc<CompressionOption> {
        let all = &self.options.all;
        match all.binary_search_by(|o| (**o).cmp(&option)) {
            Ok(at) => all[at].clone(),
            Err(_) => option,
        }
    }

    /// `option` with all its compression work moved to the CPU
    /// ([`CompressionOption::with_device`]): the space's own `Arc` from
    /// [`OptionSpace::cpu_variants`] when it holds the variant, a fresh
    /// one otherwise.
    pub fn cpu_variant(&self, option: &CompressionOption) -> Arc<CompressionOption> {
        let variant = option.device_variant(Device::Cpu);
        let cpu = &self.options.cpu_variants;
        match cpu.binary_search_by(|o| (**o).cmp(&variant)) {
            Ok(at) => cpu[at].clone(),
            Err(_) => Arc::new(variant),
        }
    }

    /// Uncompressed options.
    pub fn uncompressed(&self) -> Vec<Arc<CompressionOption>> {
        self.options
            .all
            .iter()
            .filter(|o| !o.compresses())
            .cloned()
            .collect()
    }
}

/// Compress/decompress device slot choices.
const DEVICES: [Device; 2] = [Device::Gpu, Device::Cpu];

/// The flat branch of the tree.
fn flat_options(_cluster: &Cluster) -> Vec<CompressionOption> {
    let scope = CommScope::Flat;
    let mut out = Vec::new();
    let push = |out: &mut Vec<CompressionOption>, ops: Vec<Op>| {
        out.push(CompressionOption::unindexed(CommPattern::Flat, ops));
    };

    // compress? No -> divisible? No: Allreduce.
    push(&mut out, vec![Op::comm(scope, Routine::Allreduce, false)]);

    // compress? No -> divisible? Yes: first step, then the T1-style
    // second-step sub-tree (which may itself compress).
    for (first, pairing) in [
        (Routine::ReduceScatter, Pairing::Scattered),
        (Routine::Reduce, Pairing::Rooted),
    ] {
        for tail in dense_second_step(scope, pairing, false) {
            let mut ops = vec![Op::comm(scope, first, false)];
            ops.extend(tail);
            push(&mut out, ops);
        }
    }

    // compress? Yes -> indivisible: Comp, Allgather*, Decomp, Sum.
    for c in DEVICES {
        for d in DEVICES {
            push(
                &mut out,
                vec![
                    Op::comp(c),
                    Op::comm(scope, Routine::Allgather, true),
                    Op::decomp(d),
                    Op::AggregateSum { device: d },
                ],
            );
        }
    }

    // compress? Yes -> divisible: Comp, {Alltoall*|Gather*}, Decomp, Sum,
    // then the second-step sub-tree on the dense shard/root payload.
    for (first, pairing) in [
        (Routine::Alltoall, Pairing::Scattered),
        (Routine::Gather, Pairing::Rooted),
    ] {
        for c in DEVICES {
            for d in DEVICES {
                let prefix = vec![
                    Op::comp(c),
                    Op::comm(scope, first, true),
                    Op::decomp(d),
                    Op::AggregateSum { device: d },
                ];
                for tail in dense_second_step(scope, pairing, false) {
                    let mut ops = prefix.clone();
                    ops.extend(tail);
                    push(&mut out, ops);
                }
            }
        }
    }
    out
}

/// The T1-style second step of a divisible scheme on a dense payload:
/// either the plain paired collective, or compress-for-the-second-step.
///
/// When `allow_carry` is set, also returns variants that leave the payload
/// compressed (used at the inter scope, where the following intra phase
/// can move the compressed tensor and decompress once — sub-tree T2).
fn dense_second_step(scope: CommScope, pairing: Pairing, allow_carry: bool) -> Vec<Vec<Op>> {
    let mut out = Vec::new();
    match pairing {
        Pairing::Scattered => {
            out.push(vec![Op::comm(scope, Routine::Allgather, false)]);
            for c in DEVICES {
                for d in DEVICES {
                    out.push(vec![
                        Op::comp(c),
                        Op::shard_allgather(scope),
                        Op::decomp(d),
                        Op::Concat,
                    ]);
                }
            }
        }
        Pairing::Rooted => {
            out.push(vec![Op::comm(scope, Routine::Broadcast, false)]);
            for c in DEVICES {
                for d in DEVICES {
                    out.push(vec![
                        Op::comp(c),
                        Op::comm(scope, Routine::Broadcast, true),
                        Op::decomp(d),
                    ]);
                }
                if allow_carry {
                    // Leave compressed: one blob per rank, decompressed
                    // downstream (footnote 2's skip).
                    out.push(vec![Op::comp(c), Op::comm(scope, Routine::Broadcast, true)]);
                }
            }
        }
    }
    out
}

/// The hierarchical branch.
fn hierarchical_options(cluster: &Cluster) -> Vec<CompressionOption> {
    let mut out = Vec::new();
    let push = |out: &mut Vec<CompressionOption>, ops: Vec<Op>| {
        out.push(CompressionOption::unindexed(CommPattern::Hierarchical, ops));
    };

    if !cluster.is_multi_machine() {
        // Single machine: the hierarchy is one intra divisible round trip.
        for first in intra_first_segments(cluster) {
            for tail in intra_second_step(&first) {
                let mut ops = first.ops.clone();
                ops.extend(tail);
                push(&mut out, ops);
            }
        }
        return out;
    }
    if !cluster.has_intra_comm() {
        // Single GPU per machine: the hierarchy is inter-only.
        for inter in inter_segments(cluster) {
            if !inter.compressed_out {
                push(&mut out, inter.ops);
            }
        }
        return out;
    }

    for first in intra_first_segments(cluster) {
        for inter in inter_segments(cluster) {
            for tail in intra_second_after_inter(&first, &inter) {
                let mut ops = first.ops.clone();
                ops.extend(inter.ops.clone());
                ops.extend(tail);
                push(&mut out, ops);
            }
        }
    }
    out
}

/// Intra-machine first-step choices (divisible schemes only, per the
/// paper's Dimension 4 discussion).
fn intra_first_segments(cluster: &Cluster) -> Vec<Segment> {
    let scope = CommScope::IntraFirst;
    if !cluster.has_intra_comm() {
        return vec![Segment {
            ops: vec![],
            pairing: Pairing::Scattered,
            compressed_out: false,
        }];
    }
    let mut out = vec![
        Segment {
            ops: vec![Op::comm(scope, Routine::ReduceScatter, false)],
            pairing: Pairing::Scattered,
            compressed_out: false,
        },
        Segment {
            ops: vec![Op::comm(scope, Routine::Reduce, false)],
            pairing: Pairing::Rooted,
            compressed_out: false,
        },
    ];
    for (first, pairing) in [
        (Routine::Alltoall, Pairing::Scattered),
        (Routine::Gather, Pairing::Rooted),
    ] {
        for c in DEVICES {
            for d in DEVICES {
                out.push(Segment {
                    ops: vec![
                        Op::comp(c),
                        Op::comm(scope, first, true),
                        Op::decomp(d),
                        Op::AggregateSum { device: d },
                    ],
                    pairing,
                    compressed_out: false,
                });
            }
        }
    }
    out
}

/// Inter-machine stage choices on a dense rail payload (sub-trees T3/T5
/// plus the compressed variants of T4). `compressed_out` marks the carry
/// variants that hand a compressed payload to the second intra step.
fn inter_segments(_cluster: &Cluster) -> Vec<Segment> {
    let scope = CommScope::Inter;
    let mut out = Vec::new();
    let seg = |ops: Vec<Op>, compressed_out: bool| Segment {
        ops,
        // Inter pairing never constrains the intra second step; record
        // Scattered as a neutral value.
        pairing: Pairing::Scattered,
        compressed_out,
    };

    // Dense indivisible.
    out.push(seg(vec![Op::comm(scope, Routine::Allreduce, false)], false));

    // Dense divisible: first step + T5-style second step.
    for (first, pairing) in [
        (Routine::ReduceScatter, Pairing::Scattered),
        (Routine::Reduce, Pairing::Rooted),
    ] {
        for tail in dense_second_step(scope, pairing, true) {
            let mut ops = vec![Op::comm(scope, first, false)];
            let carries = tail_leaves_compressed(&tail);
            ops.extend(tail);
            out.push(seg(ops, carries));
        }
    }

    // Compressed indivisible: Comp, Allgather*, Decomp, Sum.
    for c in DEVICES {
        for d in DEVICES {
            out.push(seg(
                vec![
                    Op::comp(c),
                    Op::comm(scope, Routine::Allgather, true),
                    Op::decomp(d),
                    Op::AggregateSum { device: d },
                ],
                false,
            ));
        }
    }

    // Compressed divisible: Comp, {Alltoall*|Gather*}, Decomp, Sum, then a
    // second step (possibly recompressed, possibly carrying).
    for (first, pairing) in [
        (Routine::Alltoall, Pairing::Scattered),
        (Routine::Gather, Pairing::Rooted),
    ] {
        for c in DEVICES {
            for d in DEVICES {
                let prefix = vec![
                    Op::comp(c),
                    Op::comm(scope, first, true),
                    Op::decomp(d),
                    Op::AggregateSum { device: d },
                ];
                for tail in dense_second_step(scope, pairing, true) {
                    let mut ops = prefix.clone();
                    let carries = tail_leaves_compressed(&tail);
                    ops.extend(tail);
                    out.push(seg(ops, carries));
                }
            }
        }
    }
    out
}

/// Whether a second-step tail ends with the payload still compressed.
fn tail_leaves_compressed(tail: &[Op]) -> bool {
    match tail.last() {
        Some(Op::Comm { compressed, .. }) => *compressed,
        Some(Op::Decompress { .. }) | Some(Op::Concat) | Some(Op::AggregateSum { .. }) => false,
        _ => false,
    }
}

/// The intra second step following the inter stage: T1 if the payload
/// arrived dense, T2 if it arrived compressed.
fn intra_second_after_inter(first: &Segment, inter: &Segment) -> Vec<Vec<Op>> {
    let scope = CommScope::IntraSecond;
    if inter.compressed_out {
        // T2: move the compressed payload, decompress once at the end.
        let mut out = Vec::new();
        for d in DEVICES {
            match first.pairing {
                Pairing::Scattered => out.push(vec![
                    Op::shard_allgather(scope),
                    Op::decomp(d),
                    Op::Concat,
                ]),
                Pairing::Rooted => out.push(vec![
                    Op::comm(scope, Routine::Broadcast, true),
                    Op::decomp(d),
                ]),
            }
        }
        out
    } else {
        intra_second_step_inner(scope, first.pairing)
    }
}

/// The intra second step for a single-machine hierarchy.
fn intra_second_step(first: &Segment) -> Vec<Vec<Op>> {
    intra_second_step_inner(CommScope::IntraSecond, first.pairing)
}

fn intra_second_step_inner(scope: CommScope, pairing: Pairing) -> Vec<Vec<Op>> {
    let mut out = Vec::new();
    match pairing {
        Pairing::Scattered => {
            out.push(vec![Op::comm(scope, Routine::Allgather, false)]);
            for c in DEVICES {
                for d in DEVICES {
                    out.push(vec![
                        Op::comp(c),
                        Op::shard_allgather(scope),
                        Op::decomp(d),
                        Op::Concat,
                    ]);
                }
            }
        }
        Pairing::Rooted => {
            out.push(vec![Op::comm(scope, Routine::Broadcast, false)]);
            for c in DEVICES {
                for d in DEVICES {
                    out.push(vec![
                        Op::comp(c),
                        Op::comm(scope, Routine::Broadcast, true),
                        Op::decomp(d),
                    ]);
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn space_is_nonempty_and_valid() {
        let c = Cluster::nvlink_100g(8, 8);
        let space = OptionSpace::enumerate(&c);
        assert!(!space.is_empty());
        // Validation already ran in enumerate(); re-check a sample.
        for opt in space.all().iter().take(50) {
            opt.validate(&c).unwrap();
        }
    }

    #[test]
    fn space_size_is_in_the_paper_ballpark() {
        // The paper reports |C| = 4341 for its tree; ours should be the
        // same order of magnitude (hundreds to thousands).
        let c = Cluster::nvlink_100g(8, 8);
        let space = OptionSpace::enumerate(&c);
        assert!(
            space.len() >= 500 && space.len() <= 20_000,
            "|C| = {}",
            space.len()
        );
    }

    #[test]
    fn contains_uncompressed_baselines() {
        let c = Cluster::nvlink_100g(8, 8);
        let space = OptionSpace::enumerate(&c);
        let flat = CompressionOption::uncompressed(CommPattern::Flat, &c);
        let hier = CompressionOption::uncompressed(CommPattern::Hierarchical, &c);
        assert!(space.all().iter().any(|o| **o == *flat));
        assert!(space.all().iter().any(|o| **o == *hier));
    }

    #[test]
    fn gpu_subset_is_smaller_and_gpu_only() {
        let c = Cluster::nvlink_100g(8, 8);
        let space = OptionSpace::enumerate(&c);
        let gpu = space.gpu_compressed();
        assert!(!gpu.is_empty());
        assert!(gpu.len() < space.len());
        assert!(gpu.iter().all(|o| o.gpu_only() && o.compresses()));
    }

    #[test]
    fn compressed_and_uncompressed_partition_the_space() {
        let c = Cluster::pcie_25g(8, 8);
        let space = OptionSpace::enumerate(&c);
        assert_eq!(
            space.compressed().len() + space.uncompressed().len(),
            space.len()
        );
    }

    #[test]
    fn single_machine_space_has_no_inter_ops() {
        let c = Cluster::nvlink_100g(1, 8);
        let space = OptionSpace::enumerate(&c);
        assert!(!space.is_empty());
        for opt in space.all() {
            for op in &opt.ops {
                if let Op::Comm { scope, .. } = op {
                    assert_ne!(*scope, CommScope::Inter, "{}", opt.describe());
                }
            }
        }
    }

    #[test]
    fn single_gpu_per_machine_space_is_inter_or_flat_only() {
        let c = Cluster::nvlink_100g(8, 1);
        let space = OptionSpace::enumerate(&c);
        for opt in space.all() {
            for op in &opt.ops {
                if let Op::Comm { scope, .. } = op {
                    assert!(
                        matches!(scope, CommScope::Inter | CommScope::Flat),
                        "{}",
                        opt.describe()
                    );
                }
            }
        }
    }

    #[test]
    fn single_gpu_job_has_one_empty_option() {
        let c = Cluster::nvlink_100g(1, 1);
        let space = OptionSpace::enumerate(&c);
        assert_eq!(space.len(), 1);
        assert!(space.all()[0].ops.is_empty());
    }

    #[test]
    fn carry_options_decompress_exactly_once_after_inter() {
        // The footnote-2 skip: some hierarchical options cross the machine
        // boundary compressed and decompress only in the intra second
        // step.
        let c = Cluster::nvlink_100g(8, 8);
        let space = OptionSpace::enumerate(&c);
        let carried: Vec<_> = space
            .all()
            .iter()
            .filter(|o| {
                o.pattern == CommPattern::Hierarchical
                    && o.ops.iter().any(|op| matches!(
                        op,
                        Op::Comm { scope: CommScope::IntraSecond, compressed: true, .. }
                    ))
                    && o.ops.iter().any(|op| matches!(
                        op,
                        Op::Comm { scope: CommScope::Inter, compressed: true, .. }
                    ))
            })
            .collect();
        assert!(!carried.is_empty(), "no carried-compressed options found");
    }

    #[test]
    fn no_compressed_allreduce_anywhere() {
        // Pruning rule embodied in Table 2.
        let c = Cluster::pcie_25g(4, 4);
        let space = OptionSpace::enumerate(&c);
        for opt in space.all() {
            for op in &opt.ops {
                if let Op::Comm {
                    routine,
                    compressed: true,
                    ..
                } = op
                {
                    assert!(!routine.reduces_in_flight(), "{}", opt.describe());
                }
            }
        }
    }

    /// The historical partitions of a fresh enumeration: `(all, gpu
    /// compressed, compressed, CPU variants)`, the variants through the
    /// `BTreeSet` the backfill used to build on every call.
    fn fresh_partitions(
        cluster: &Cluster,
        constraints: &Constraints,
    ) -> [Vec<CompressionOption>; 4] {
        let all = fresh_options(cluster, constraints);
        let gpu = all
            .iter()
            .filter(|o| o.compresses() && o.gpu_only())
            .cloned()
            .collect();
        let compressed: Vec<CompressionOption> =
            all.iter().filter(|o| o.compresses()).cloned().collect();
        let mut cpu: Vec<CompressionOption> = compressed
            .iter()
            .map(|o| o.with_device(Device::Cpu))
            .collect::<std::collections::BTreeSet<_>>()
            .into_iter()
            .map(|o| (*o).clone())
            .collect();
        cpu.retain(|o| o.compresses());
        [all, gpu, compressed, cpu]
    }

    fn contents(options: &[Arc<CompressionOption>]) -> Vec<CompressionOption> {
        options.iter().map(|o| (**o).clone()).collect()
    }

    #[test]
    fn the_shape_table_equals_a_fresh_enumeration() {
        use espresso_cluster::Link;
        let pcie = Cluster::pcie_25g(2, 4);
        let siblings = [
            pcie,
            Cluster::nvlink_100g(2, 4),
            Cluster::with_links(2, 4, Link::new(3.0e9, 2e-5), Link::new(1.0e9, 5e-5)),
            Cluster {
                staging_shares_intra: !pcie.staging_shares_intra,
                ..pcie
            },
        ];
        let constrained = Constraints {
            max_compressions: Some(1),
            no_intra_compression: true,
            ..Constraints::default()
        };
        for constraints in [Constraints::default(), constrained] {
            let first = OptionSpace::enumerate_constrained(&siblings[0], &constraints);
            for cluster in &siblings {
                let space = OptionSpace::enumerate_constrained(cluster, &constraints);
                assert_eq!(space.cluster(), cluster);
                let [all, gpu, compressed, cpu] = fresh_partitions(cluster, &constraints);
                assert_eq!(contents(space.all()), all);
                assert_eq!(contents(space.gpu_compressed()), gpu);
                assert_eq!(contents(space.compressed()), compressed);
                assert_eq!(contents(space.cpu_variants()), cpu);
                // One shape, one entry: the same Arcs for every sibling.
                for (a, b) in space.all().iter().zip(first.all()) {
                    assert!(Arc::ptr_eq(a, b));
                }
            }
        }
    }

    #[test]
    fn table_options_carry_unique_indices_shared_with_their_cpu_variants() {
        for cluster in [Cluster::pcie_25g(2, 4), Cluster::nvlink_100g(1, 4)] {
            let space = OptionSpace::enumerate(&cluster);
            let mut seen = std::collections::BTreeSet::new();
            for o in space.all() {
                let index = o.table_index().expect("table options are indexed");
                assert!(seen.insert(index), "index {index} repeats");
            }
            // Every CPU variant of the full tree is one of its options,
            // shared Arc and index included.
            for o in space.cpu_variants() {
                assert!(
                    space.all().iter().any(|a| Arc::ptr_eq(a, o)),
                    "{}",
                    o.describe()
                );
            }
            // A constrained space reuses the unconstrained entry's Arcs.
            let single =
                OptionSpace::enumerate_constrained(&cluster, &Constraints::single_compression());
            for o in single.all() {
                assert!(
                    space.all().iter().any(|a| Arc::ptr_eq(a, o)),
                    "{}",
                    o.describe()
                );
            }
            // A clone leaves the table.
            assert_eq!((*space.all()[0]).clone().table_index(), None);
        }
    }

    #[test]
    fn options_are_unique() {
        let c = Cluster::nvlink_100g(8, 8);
        let space = OptionSpace::enumerate(&c);
        let mut seen = std::collections::BTreeSet::new();
        for opt in space.all() {
            assert!(seen.insert((**opt).clone()), "duplicate {}", opt.describe());
        }
    }
}
