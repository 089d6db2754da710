//! Espresso's compression decision algorithms (paper section 4.4).

pub mod brute; // Re-export shim; the enumerator lives in `crate::oracle`.
pub mod gpu;
pub mod offload;
pub mod refine;

use std::sync::Arc;

use espresso_sim::{simulate, DeltaSim, Job, SimConfig};
use espresso_strategy::{CompressionOption, Strategy};

/// The objective `F(S)`: the iteration time of `job` under strategy `S`
/// (section 4.4.1). One-shot convenience; the algorithms themselves run
/// against a cached [`espresso_sim::Simulator`].
pub fn iteration_time(job: &Job, strategy: &Strategy, config: &SimConfig) -> f64 {
    simulate(job, strategy, config).iteration_time
}

/// Fast-path `GetBestOption`: tries every candidate for tensor `idx`
/// (holding the rest of `strategy` fixed) and returns the best accepted
/// option, updating `best_time` and counting one simulation per trial —
/// exactly the accept sequence of the reference inner loops in
/// [`gpu::decide_with_simulator`] and [`refine::cpu_backfill`].
///
/// Candidates are priced serially through [`DeltaSim::eval_swap`], whose
/// threshold tightens as candidates are accepted. Each accept moves the
/// incumbent the next trial is priced against, so a selection has no
/// wider unit of parallel work than one position's batch, and a batch
/// of single-swap trials costs a few microseconds each.
pub(crate) fn best_swap(
    delta: &DeltaSim<'_>,
    strategy: &Strategy,
    idx: usize,
    candidates: &[Arc<CompressionOption>],
    skip_current: bool,
    best_time: &mut f64,
    simulations: &mut usize,
) -> Option<Arc<CompressionOption>> {
    let mut best_option: Option<Arc<CompressionOption>> = None;
    for cand in candidates {
        if skip_current && cand == strategy.option(idx) {
            continue;
        }
        *simulations += 1;
        if let Some(t) = delta.eval_swap(idx, cand, *best_time - 1e-12) {
            if t < *best_time - 1e-12 {
                *best_time = t;
                best_option = Some(cand.clone());
            }
        }
    }
    best_option
}
