//! Convergence-validation substrate (paper section 5.4 / Figure 16).
//!
//! The paper's convergence claim — gradient compression with error
//! feedback preserves training accuracy — is a property of the
//! compression *algorithms*, which this workspace implements for real.
//! This crate provides the smallest training stack that exercises them
//! end-to-end:
//!
//! * [`data`] — seeded synthetic classification datasets,
//! * [`mlp`] — a pure-Rust multi-layer perceptron with softmax
//!   cross-entropy loss,
//! * [`distributed`] — a data-parallel trainer whose workers push their
//!   gradients through the *actual* `espresso-gc` compressors (with
//!   per-worker error-feedback state) before averaging — the exact
//!   synchronization semantics of compression-enabled DDL.
//!
//! Figure 16's SQuAD/ImageNet runs are substituted with these synthetic
//! tasks per DESIGN.md: the observable being validated (compressed
//! accuracy ~= FP32 accuracy) transfers, the datasets do not.
//!
//! On top of that substrate sits the fault-tolerant runtime (DESIGN.md
//! section 11):
//!
//! * [`checkpoint`] — atomic, checksummed, two-generation checkpoints of
//!   the complete trainer state (weights, optimizer, per-worker
//!   error-feedback residuals, monitor state),
//! * [`faults`] — seeded, bit-reproducible runtime fault injection
//!   (worker crashes, dropped gradient pushes, slow windows, fabric
//!   degradation),
//! * [`runtime`] — the loop that reacts: elastic recovery from worker
//!   loss, online re-planning through [`espresso::Planner::replan`], and the
//!   `DegradationMonitor`-driven FP32 fallback with recovery hysteresis.

pub mod checkpoint;
pub mod data;
pub mod distributed;
pub mod faults;
pub mod mlp;
pub mod optimizer;
pub mod runtime;

pub use checkpoint::{CheckpointError, CheckpointStore, TrainerState};
pub use data::Dataset;
pub use distributed::{DistributedTrainer, SyncMode, TrainLog};
pub use faults::TrainFaultPlan;
pub use mlp::Mlp;
pub use optimizer::Optimizer;
pub use runtime::{RuntimeConfig, RuntimeError, RuntimeEvent, RuntimeReport, TrainingRuntime};

/// Convenient re-exports of the crate's primary types.
pub mod prelude {
    pub use crate::{
        checkpoint::{CheckpointError, CheckpointStore, TrainerState},
        data::Dataset,
        distributed::{DistributedTrainer, SyncMode, TrainLog},
        faults::TrainFaultPlan,
        mlp::Mlp,
        optimizer::Optimizer,
        runtime::{RuntimeConfig, RuntimeError, RuntimeEvent, RuntimeReport, TrainingRuntime},
    };
}
