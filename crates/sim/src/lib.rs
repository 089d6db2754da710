//! Discrete-event timeline simulator for compression-enabled DDL.
//!
//! This crate is the executable form of the paper's timeline model
//! (section 4.3, Figures 2/5/9): given a model profile, a cluster, a GC
//! algorithm, and a compression strategy, it derives the timeline of
//! tensor computation, communication, and compression of all tensors —
//! and therefore their interactions — and returns the iteration time
//! `F(S)` that the decision algorithm minimizes.
//!
//! ## Resource model (DESIGN.md section 6)
//!
//! * **GPU engine** — one serial executor per worker: backward
//!   tensor-computation tasks and GPU compression/decompression/
//!   aggregation kernels are admitted FIFO in ready order and never
//!   preempted. GPU compression therefore overlaps communication but
//!   *delays remaining computation* (the contention of Figure 2(c)), and
//!   a compression enqueued at a compute boundary runs before the next
//!   compute task (Figure 2(b)/(c) behaviour).
//! * **CPU pool** — a small number of parallel compression slots; CPU
//!   work never delays the GPU but is slower and pays PCIe staging
//!   (already folded into the gc timing model).
//! * **Channels** — one intra-machine and one inter-machine channel, each
//!   FIFO: tensors synchronize one collective at a time, in ready order
//!   (wait-free backpropagation ordering). Flat collectives occupy the
//!   inter channel, their bottleneck.
//!
//! The output [`SimResult`] carries per-task spans from which the
//! analyses the decision algorithm needs are computed: communication
//! bubbles (Property #1), and the communication/compression *overheads*
//! `o_comm` / `o_comp` (section 3's definitions — the parts of
//! communication/compression time that no other work overlaps).

pub mod audit;
pub mod config;
pub mod engine;
pub mod fault;
pub mod gantt;
pub mod job;
pub mod result;
pub mod task;
mod word_hash;

pub use audit::{audit, audit_tasks, Violation};
pub use config::SimConfig;
pub use engine::{
    simulate, simulate_with_faults, BlockTable, DeltaSim, EvalScratch, PreparedEval, Simulator,
    TrialCounts,
};
pub use fault::{Burst, FaultError, FaultPlan, LinkFault};
pub use job::Job;
pub use result::{Bubble, SimResult, Span, TaskRecord};
pub use task::{Resource, Stage, TaskKind};

/// Convenient re-exports of the crate's primary types.
pub mod prelude {
    pub use crate::{
        audit::{audit, audit_tasks, Violation},
        config::SimConfig,
        engine::{simulate, simulate_with_faults, Simulator},
        fault::{Burst, FaultError, FaultPlan, LinkFault},
        job::Job,
        result::{Bubble, SimResult, Span, TaskRecord},
        task::{Resource, TaskKind},
    };
}
