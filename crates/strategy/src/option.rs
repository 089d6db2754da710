//! [`CompressionOption`]: a validated path through the decision tree, and
//! its annotation into concrete work items for a given tensor.

use std::sync::Arc;

use espresso_cluster::{CommPattern, CommScope, Cluster, Routine};
use espresso_gc::{Device, GcAlgorithm};

use crate::op::{Op, PayloadError, PayloadState};

/// The kind of compute work an op performs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ComputeKind {
    /// A compression kernel.
    Compress,
    /// A decompression kernel.
    Decompress,
    /// Dense summation of received replicas.
    Aggregate,
}

/// Concrete work attributed to one op for a specific tensor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Work {
    /// Compute on a device.
    Compute {
        /// Executing device.
        device: Device,
        /// What the kernel does (selects the timing-model column).
        kind: ComputeKind,
        /// Effective dense element count processed (already accounts for
        /// sparse-piece scatter costs).
        elems: usize,
        /// Dense elements that must cross the host-device boundary if the
        /// op runs on the CPU: the input gradient for compression, the
        /// merged dense output for decompression, zero for aggregation
        /// (data is already host-resident).
        staged_elems: usize,
    },
    /// A collective communication.
    Comm {
        /// Channel scope.
        scope: CommScope,
        /// Collective routine.
        routine: Routine,
        /// Per-participant contribution in bytes (already scaled for NIC
        /// sharing across rails at the inter scope).
        contrib_bytes: f64,
    },
    /// No cost (e.g. concatenation of disjoint shards).
    Free,
}

/// One op paired with its concrete work for a specific tensor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnnotatedOp {
    /// The abstract op.
    pub op: Op,
    /// Its concrete work.
    pub work: Work,
}

/// A validated compression option: a path from `Start` to `End` in the
/// paper's Figure 8.
///
/// Equality, ordering, hashing and `Debug` read the pattern and the ops
/// only. An option enumerated through [`crate::OptionSpace`] also carries
/// its dense index in the process-wide option table
/// ([`CompressionOption::table_index`]); a clone is a new option outside
/// the table and carries none.
pub struct CompressionOption {
    /// Flat or hierarchical communication (the `flat comm?` decision).
    pub pattern: CommPattern,
    /// The ordered action tasks.
    pub ops: Vec<Op>,
    /// Dense index in the option table (see [`crate::tree`]), unique per
    /// content for the life of the process.
    pub(crate) table_index: Option<u64>,
}

impl Clone for CompressionOption {
    fn clone(&self) -> Self {
        Self {
            pattern: self.pattern,
            ops: self.ops.clone(),
            table_index: None,
        }
    }
}

impl PartialEq for CompressionOption {
    fn eq(&self, other: &Self) -> bool {
        self.pattern == other.pattern && self.ops == other.ops
    }
}

impl Eq for CompressionOption {}

impl std::hash::Hash for CompressionOption {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.pattern.hash(state);
        self.ops.hash(state);
    }
}

impl PartialOrd for CompressionOption {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for CompressionOption {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.pattern, &self.ops).cmp(&(other.pattern, &other.ops))
    }
}

impl std::fmt::Debug for CompressionOption {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CompressionOption")
            .field("pattern", &self.pattern)
            .field("ops", &self.ops)
            .finish()
    }
}

impl CompressionOption {
    /// Builds and validates an option against `cluster`.
    ///
    /// # Errors
    ///
    /// Returns the payload error if the op sequence is mechanically
    /// invalid (violates the Table 2 constraints or does not end with the
    /// full dense tensor everywhere).
    pub fn new(
        pattern: CommPattern,
        ops: Vec<Op>,
        cluster: &Cluster,
    ) -> Result<Arc<Self>, PayloadError> {
        let opt = Self::unindexed(pattern, ops);
        opt.validate(cluster)?;
        Ok(Arc::new(opt))
    }

    /// An option outside the option table.
    pub(crate) fn unindexed(pattern: CommPattern, ops: Vec<Op>) -> Self {
        Self {
            pattern,
            ops,
            table_index: None,
        }
    }

    /// The option's dense index in the process-wide option table, or
    /// `None` for an option built anywhere else (a baseline, a decoded or
    /// hand-built option, a [`CompressionOption::with_device`] variant).
    /// Two options with the same index are equal; equal options need not
    /// share an index. The simulator's block interner keys table options
    /// by it.
    pub fn table_index(&self) -> Option<u64> {
        self.table_index
    }

    /// Re-runs the payload state machine over the ops.
    pub fn validate(&self, cluster: &Cluster) -> Result<(), PayloadError> {
        let mut state = PayloadState::initial(cluster);
        for op in &self.ops {
            state.apply(op, cluster)?;
        }
        if cluster.total_gpus() == 1 {
            // Single GPU: no communication required; any residual state
            // other than initial is invalid, and ops must be empty.
            if self.ops.is_empty() {
                return Ok(());
            }
            return Err(PayloadError::BadFinalState(
                "single-GPU job needs no synchronization ops".into(),
            ));
        }
        if !state.is_final() {
            return Err(PayloadError::BadFinalState(format!("{state:?}")));
        }
        Ok(())
    }

    /// The no-compression baseline for `pattern` on `cluster`: ring
    /// allreduce for flat, reduce-scatter / allreduce / allgather for
    /// hierarchical (the standard NCCL-style plan of Figure 1).
    pub fn uncompressed(pattern: CommPattern, cluster: &Cluster) -> Arc<Self> {
        let ops = match pattern {
            CommPattern::Flat => {
                if cluster.total_gpus() > 1 {
                    vec![Op::comm(CommScope::Flat, Routine::Allreduce, false)]
                } else {
                    vec![]
                }
            }
            CommPattern::Hierarchical => {
                let mut ops = Vec::new();
                if cluster.has_intra_comm() {
                    ops.push(Op::comm(CommScope::IntraFirst, Routine::ReduceScatter, false));
                }
                if cluster.is_multi_machine() {
                    ops.push(Op::comm(CommScope::Inter, Routine::Allreduce, false));
                }
                if cluster.has_intra_comm() && cluster.is_multi_machine() {
                    ops.push(Op::comm(CommScope::IntraSecond, Routine::Allgather, false));
                } else if cluster.has_intra_comm() {
                    // Single machine: the divisible second step completes
                    // the intra allreduce.
                    ops.push(Op::comm(CommScope::IntraSecond, Routine::Allgather, false));
                }
                ops
            }
        };
        Arc::new(Self::unindexed(pattern, ops))
    }

    /// Whether any op compresses the tensor (Dimension 1).
    pub fn compresses(&self) -> bool {
        self.ops.iter().any(|op| matches!(op, Op::Compress { .. }))
    }

    /// Devices used by compression/decompression ops, deduplicated.
    pub fn devices(&self) -> Vec<Device> {
        let mut out = Vec::new();
        for op in &self.ops {
            if let Op::Compress { device } | Op::Decompress { device } = op {
                if !out.contains(device) {
                    out.push(*device);
                }
            }
        }
        out
    }

    /// Whether every compression-related op runs on the GPU (i.e. the
    /// option belongs to the paper's `C_gpu`).
    pub fn gpu_only(&self) -> bool {
        self.ops.iter().all(|op| {
            !matches!(
                op,
                Op::Compress { device: Device::Cpu }
                    | Op::Decompress { device: Device::Cpu }
                    | Op::AggregateSum { device: Device::Cpu }
            )
        })
    }

    /// Number of compression ops (the quantity users may bound via
    /// constraints to protect accuracy, section 4.2.2).
    pub fn compression_count(&self) -> usize {
        self.ops
            .iter()
            .filter(|op| matches!(op, Op::Compress { .. }))
            .count()
    }

    /// Replaces every compression-related device with `device`, returning
    /// the (unvalidated-identical) variant. Used by CPU offloading to
    /// move a tensor's compression work between devices.
    pub fn with_device(&self, device: Device) -> Arc<Self> {
        Arc::new(self.device_variant(device))
    }

    /// [`CompressionOption::with_device`] without the `Arc`.
    pub(crate) fn device_variant(&self, device: Device) -> Self {
        let ops = self
            .ops
            .iter()
            .map(|op| match *op {
                Op::Compress { .. } => Op::Compress { device },
                Op::Decompress { .. } => Op::Decompress { device },
                Op::AggregateSum { .. } => Op::AggregateSum { device },
                other => other,
            })
            .collect();
        Self::unindexed(self.pattern, ops)
    }

    /// Annotates the option for a tensor of `elems` elements compressed
    /// with `algo` on `cluster`: every op gets its concrete compute size
    /// or wire contribution.
    ///
    /// # Panics
    ///
    /// Panics if the option is invalid for `cluster` — options must be
    /// constructed through [`CompressionOption::new`] or the tree builder,
    /// both of which validate.
    pub fn annotate(
        &self,
        elems: usize,
        algo: GcAlgorithm,
        cluster: &Cluster,
    ) -> Vec<AnnotatedOp> {
        let mut state = PayloadState::initial(cluster);
        let mut out = Vec::with_capacity(self.ops.len());
        for op in &self.ops {
            let dense_elems =
                ((state.frac * state.pieces as f64) * elems as f64).round() as usize;
            let piece_elems = (state.frac * elems as f64).round() as usize;
            let work = match *op {
                Op::Compress { device } => Work::Compute {
                    device,
                    kind: ComputeKind::Compress,
                    elems: dense_elems,
                    staged_elems: dense_elems,
                },
                Op::Decompress { device } => Work::Compute {
                    device,
                    kind: ComputeKind::Decompress,
                    elems: algo.decompress_effective_elems(piece_elems, state.pieces),
                    staged_elems: piece_elems,
                },
                Op::AggregateSum { device } => Work::Compute {
                    device,
                    kind: ComputeKind::Aggregate,
                    elems: algo.aggregate_effective_elems(piece_elems, state.pieces),
                    staged_elems: 0,
                },
                Op::Concat => Work::Free,
                Op::Comm {
                    scope, routine, compressed, ..
                } => {
                    let piece_bytes = if compressed {
                        algo.compressed_bytes(piece_elems) as f64
                    } else {
                        piece_elems as f64 * 4.0
                    };
                    // All rails of a machine share its NIC at the inter
                    // scope; their parallel transfers serialize there.
                    let rail_factor = if scope == CommScope::Inter {
                        state.rails as f64
                    } else {
                        1.0
                    };
                    Work::Comm {
                        scope,
                        routine,
                        contrib_bytes: piece_bytes * rail_factor,
                    }
                }
            };
            out.push(AnnotatedOp { op: *op, work });
            state
                .apply(op, cluster)
                .expect("annotate called on an invalid option");
        }
        out
    }

    /// A compact human-readable description, e.g.
    /// `hier[RS | comp(GPU) AG* decomp(GPU) sum | AG]`.
    pub fn describe(&self) -> String {
        let mut parts = Vec::new();
        for op in &self.ops {
            parts.push(match *op {
                Op::Compress { device } => format!("comp({device:?})"),
                Op::Decompress { device } => format!("decomp({device:?})"),
                Op::AggregateSum { .. } => "sum".to_string(),
                Op::Concat => "cat".to_string(),
                Op::Comm {
                    scope,
                    routine,
                    compressed,
                    ..
                } => {
                    let star = if compressed { "*" } else { "" };
                    format!("{routine:?}{star}@{scope:?}")
                }
            });
        }
        let prefix = match self.pattern {
            CommPattern::Flat => "flat",
            CommPattern::Hierarchical => "hier",
        };
        format!("{prefix}[{}]", parts.join(" "))
    }

    /// [`CompressionOption::describe`] plus the knob setting of the
    /// algorithm compressing this tensor — used when a per-tensor ratio
    /// plan is active, so strategy listings show which ratio each tensor
    /// landed on (e.g. `hier[...] d=0.05`). Knobless algorithms and
    /// uncompressed options fall back to the plain description.
    pub fn describe_with(&self, algo: espresso_gc::GcAlgorithm) -> String {
        let base = self.describe();
        if !self.compresses() {
            return base;
        }
        match algo.setting_label().as_str() {
            "-" => base,
            label => format!("{base} {label}"),
        }
    }
}

use espresso_json::{DecodeError, FromJson, Json, ToJson};

impl ToJson for CompressionOption {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("pattern", self.pattern.to_json()),
            ("ops", self.ops.to_json()),
        ])
    }
}

impl FromJson for CompressionOption {
    fn from_json(v: &Json) -> Result<Self, DecodeError> {
        Ok(Self::unindexed(v.req("pattern")?, v.req("ops")?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cluster() -> Cluster {
        Cluster::nvlink_100g(8, 8)
    }

    #[test]
    fn describe_with_appends_the_knob_setting() {
        use espresso_gc::GcAlgorithm;
        let c = cluster();
        let space = crate::OptionSpace::enumerate(&c);
        let compressed = space.gpu_compressed()[0].clone();
        let with_knob = compressed.describe_with(GcAlgorithm::Dgc { density: 0.05 });
        assert!(with_knob.ends_with(" d=0.05"), "{with_knob}");
        assert!(with_knob.starts_with(&compressed.describe()), "{with_knob}");
        // Knobless algorithms and uncompressed options stay unchanged.
        assert_eq!(
            compressed.describe_with(GcAlgorithm::EfSignSgd),
            compressed.describe()
        );
        let plain = CompressionOption::uncompressed(CommPattern::Hierarchical, &c);
        assert_eq!(
            plain.describe_with(GcAlgorithm::Dgc { density: 0.05 }),
            plain.describe()
        );
    }

    #[test]
    fn uncompressed_baselines_validate() {
        let c = cluster();
        for pattern in [CommPattern::Flat, CommPattern::Hierarchical] {
            let opt = CompressionOption::uncompressed(pattern, &c);
            opt.validate(&c).unwrap();
            assert!(!opt.compresses());
            assert!(opt.gpu_only());
        }
    }

    #[test]
    fn invalid_sequence_is_rejected() {
        let c = cluster();
        let err = CompressionOption::new(
            CommPattern::Flat,
            vec![Op::comp(Device::Gpu)],
            &c,
        )
        .unwrap_err();
        assert!(matches!(err, PayloadError::BadFinalState(_)));
    }

    #[test]
    fn single_gpu_requires_empty_ops() {
        let c = Cluster::nvlink_100g(1, 1);
        CompressionOption::new(CommPattern::Flat, vec![], &c).unwrap();
        assert!(CompressionOption::new(
            CommPattern::Flat,
            vec![Op::comm(CommScope::Flat, Routine::Allreduce, false)],
            &c
        )
        .is_err());
    }

    #[test]
    fn annotate_flat_allreduce() {
        let c = cluster();
        let opt = CompressionOption::uncompressed(CommPattern::Flat, &c);
        let ann = opt.annotate(1000, GcAlgorithm::EfSignSgd, &c);
        assert_eq!(ann.len(), 1);
        match ann[0].work {
            Work::Comm {
                scope,
                routine,
                contrib_bytes,
            } => {
                assert_eq!(scope, CommScope::Flat);
                assert_eq!(routine, Routine::Allreduce);
                assert!((contrib_bytes - 4000.0).abs() < 1e-9);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn annotate_hierarchical_scales_inter_by_rails() {
        let c = cluster();
        let opt = CompressionOption::uncompressed(CommPattern::Hierarchical, &c);
        let ann = opt.annotate(8000, GcAlgorithm::EfSignSgd, &c);
        // RS intra: contribution = full 32 KB. Inter allreduce: each GPU
        // holds a 1/8 shard (4 KB) but 8 rails share the NIC -> 32 KB.
        let comms: Vec<f64> = ann
            .iter()
            .filter_map(|a| match a.work {
                Work::Comm { contrib_bytes, .. } => Some(contrib_bytes),
                _ => None,
            })
            .collect();
        assert_eq!(comms.len(), 3);
        assert!((comms[0] - 32000.0).abs() < 1.0, "intra1 {comms:?}");
        assert!((comms[1] - 32000.0).abs() < 1.0, "inter {comms:?}");
        assert!((comms[2] - 4000.0).abs() < 1.0, "intra2 {comms:?}");
    }

    #[test]
    fn annotate_compressed_indivisible() {
        let c = cluster();
        let opt = CompressionOption::new(
            CommPattern::Flat,
            vec![
                Op::comp(Device::Gpu),
                Op::comm(CommScope::Flat, Routine::Allgather, true),
                Op::decomp(Device::Gpu),
                Op::AggregateSum { device: Device::Gpu },
            ],
            &c,
        )
        .unwrap();
        let algo = GcAlgorithm::EfSignSgd;
        let ann = opt.annotate(64_000, algo, &c);
        // Comm contribution is the compressed blob size.
        let comm = ann
            .iter()
            .find_map(|a| match a.work {
                Work::Comm { contrib_bytes, .. } => Some(contrib_bytes),
                _ => None,
            })
            .unwrap();
        assert!((comm - algo.compressed_bytes(64_000) as f64).abs() < 1e-9);
        // Decompression covers all 64 received replicas.
        let decomp_elems = ann
            .iter()
            .find_map(|a| match (a.op, a.work) {
                (
                    Op::Decompress { .. },
                    Work::Compute { elems, .. },
                ) => Some(elems),
                _ => None,
            })
            .unwrap();
        assert_eq!(decomp_elems, 64_000 * 64);
    }

    #[test]
    fn with_device_moves_all_compute() {
        let c = cluster();
        let opt = CompressionOption::new(
            CommPattern::Flat,
            vec![
                Op::comp(Device::Gpu),
                Op::comm(CommScope::Flat, Routine::Allgather, true),
                Op::decomp(Device::Gpu),
                Op::AggregateSum { device: Device::Gpu },
            ],
            &c,
        )
        .unwrap();
        let moved = opt.with_device(Device::Cpu);
        assert_eq!(moved.devices(), vec![Device::Cpu]);
        assert!(!moved.gpu_only());
        moved.validate(&c).unwrap();
    }

    #[test]
    fn describe_is_compact() {
        let c = cluster();
        let opt = CompressionOption::uncompressed(CommPattern::Flat, &c);
        assert_eq!(opt.describe(), "flat[Allreduce@Flat]");
    }
}
