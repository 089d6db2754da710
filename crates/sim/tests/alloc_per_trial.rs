//! Allocations per planner trial, counted by a global allocator.
//!
//! After warm-up — every block interned, every checkpoint and pin built,
//! the scratch buffers grown by full replays — a single-swap trial
//! through [`espresso_sim::DeltaSim::eval_swap`] allocates nothing: zero
//! allocations for a trial pruned by a static bound or by the checkpoint
//! pin, aborted mid-run or answered from the memo, and none for its memo
//! key either when it resyncs or runs to the end — single-swap trials
//! are memoized by `(tensor, block id)`, so no trial builds a `Vec<u32>`
//! of its block ids. The memo table's own doublings are the only
//! allocations allowed. Reused buffers may still grow (a `realloc`) when
//! a trial needs more room than any before it; that is amortized, and
//! bounded over the sweep.
//!
//! Compiling a block allocates the block's own arrays — one allocation
//! each, sized up front — plus the stage list it is expanded from, and
//! nothing per task.
//!
//! Debug builds run allocating oracles beside every trial (full re-runs
//! that check each shortcut), so the counts are pinned in release builds
//! only: `cargo test --release -p espresso-sim --test alloc_per_trial`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use espresso_cluster::{Cluster, CommPattern};
use espresso_gc::GcAlgorithm;
use espresso_models::Model;
use espresso_sim::task::{build_stages_for_algo, Block};
use espresso_sim::{Job, SimConfig, Simulator, TrialCounts};
use espresso_strategy::{OptionSpace, Strategy};

/// Counts this thread's allocations: `[allocs, reallocs, allocs of the
/// size of a block-id vector]`.
struct Counting;

thread_local! {
    static COUNTS: Cell<[u64; 3]> = const { Cell::new([0; 3]) };
    static KEY_BYTES: Cell<usize> = const { Cell::new(usize::MAX) };
}

fn bump(slot: usize) {
    // `try_with`: the allocator also runs while thread-locals are torn
    // down, when counting no longer matters.
    let _ = COUNTS.try_with(|c| {
        let mut v = c.get();
        v[slot] += 1;
        c.set(v);
    });
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counting touches
// only a const-initialised thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump(0);
        if KEY_BYTES.try_with(Cell::get) == Ok(layout.size()) {
            bump(2);
        }
        // SAFETY: forwarded unchanged; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump(0);
        // SAFETY: forwarded unchanged; the caller upholds the contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump(1);
        // SAFETY: `ptr` came from `System` through this allocator; the
        // caller upholds `realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn counts() -> [u64; 3] {
    COUNTS.with(Cell::get)
}

/// Which way a trial ended, from the handle's counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
enum Outcome {
    Pruned,
    PinPruned,
    Aborted,
    MemoHit,
    Resynced,
    Completed,
}

fn outcome(before: TrialCounts, after: TrialCounts) -> Outcome {
    let d = after.since(before);
    assert_eq!(d.trials(), 1, "one eval_swap counts one trial: {d:?}");
    match d {
        _ if d.pruned_static == 1 => Outcome::Pruned,
        _ if d.pruned_pin == 1 => Outcome::PinPruned,
        _ if d.aborted == 1 => Outcome::Aborted,
        _ if d.memo_hits == 1 => Outcome::MemoHit,
        _ if d.resynced == 1 => Outcome::Resynced,
        _ => Outcome::Completed,
    }
}

/// Sweeps every single-swap trial of `job` from its uncompressed base
/// against the tie threshold `F(base)`, as the greedy search does, and
/// checks each trial's allocations against its outcome. Returns how many
/// trials ended each way.
fn sweep(job: Job) -> std::collections::BTreeMap<Outcome, u64> {
    let n = job.num_tensors();
    let cluster = job.cluster;
    let space = OptionSpace::enumerate(&cluster);
    let all = space.all();
    let sim = Simulator::new(job, SimConfig::default());
    let base = Strategy::uncompressed(n, CommPattern::Hierarchical, &cluster);
    let delta = sim.delta(&base);
    let threshold = delta.base_time();

    // Warm-up: checkpoints and pins at every tensor, every block interned
    // (a threshold nothing can beat prunes right after the lookup), and
    // the reused buffers grown by running every option at tensor 0 to the
    // end — the longest replays, which start at the first checkpoint.
    for idx in 0..n {
        delta.pin_bound(idx);
        for option in all {
            delta.eval_swap(idx, option, f64::NEG_INFINITY);
        }
    }
    for option in all {
        delta.eval_swap(0, option, f64::INFINITY);
    }

    KEY_BYTES.with(|k| k.set(n * std::mem::size_of::<u32>()));
    let mut seen: std::collections::BTreeMap<Outcome, u64> = Default::default();
    let (mut table_allocs, mut growths) = (0, 0);
    for idx in 1..n {
        for option in all {
            let (c0, t0) = (counts(), delta.counts());
            delta.eval_swap(idx, option, threshold);
            let (c1, t1) = (counts(), delta.counts());
            let (allocs, reallocs, keys) = (c1[0] - c0[0], c1[1] - c0[1], c1[2] - c0[2]);
            let what = outcome(t0, t1);
            *seen.entry(what).or_default() += 1;
            growths += reallocs;
            match what {
                Outcome::Resynced | Outcome::Completed => {
                    assert_eq!(
                        keys, 0,
                        "{what:?} trial at tensor {idx} built a block-id vector"
                    );
                    assert!(
                        allocs <= 1,
                        "{what:?} trial at tensor {idx}: {allocs} allocations"
                    );
                    table_allocs += allocs;
                }
                Outcome::Aborted => {
                    assert_eq!(allocs, 0, "{what:?} trial at tensor {idx} allocated");
                }
                _ => assert_eq!(
                    (allocs, reallocs),
                    (0, 0),
                    "{what:?} trial at tensor {idx} touched the heap"
                ),
            }
        }
    }
    KEY_BYTES.with(|k| k.set(usize::MAX));
    // Doubling from its warm-up size, the memo table grows a handful of
    // times at most over one sweep.
    assert!(table_allocs <= 8, "{table_allocs} memo table allocations");
    // Likewise for the reused buffers a longer trial outgrows.
    assert!(growths <= 16, "{growths} buffer growths");
    seen
}

#[test]
#[cfg_attr(debug_assertions, ignore = "debug builds run allocating oracles")]
fn steady_state_trials_allocate_nothing_but_memo_table_growth() {
    // VGG16 on one NVLink machine is compute-bound: its trials are pruned
    // by the static bound or tie-pruned by the pin. LSTM there aborts,
    // resyncs and completes trials as well.
    let cluster = Cluster::nvlink_100g(1, 8);
    let mut seen = sweep(Job::new(
        Model::Vgg16.profile(),
        cluster,
        GcAlgorithm::dgc_1pct(),
    ));
    for (what, count) in sweep(Job::new(
        Model::Lstm.profile(),
        cluster,
        GcAlgorithm::dgc_1pct(),
    )) {
        *seen.entry(what).or_default() += count;
    }
    for what in [
        Outcome::Pruned,
        Outcome::PinPruned,
        Outcome::Aborted,
        Outcome::Resynced,
        Outcome::Completed,
    ] {
        assert!(
            seen.contains_key(&what),
            "the sweeps never saw a {what:?} trial: {seen:?}"
        );
    }
}

#[test]
#[cfg_attr(debug_assertions, ignore = "debug builds count differently")]
fn compiling_a_block_allocates_its_own_arrays_only() {
    let config = SimConfig::default();
    let part = (config.partition_bytes / 4.0) as usize;
    let mut widest = 0;
    for cluster in [Cluster::pcie_25g(1, 1), Cluster::pcie_25g(2, 4)] {
        let job = Job::new(Model::Lstm.profile(), cluster, GcAlgorithm::dgc_1pct());
        let space = OptionSpace::enumerate(&cluster);
        for option in space.all().iter().chain(space.cpu_variants()) {
            // One piece, a few, and dozens: the count must not move.
            for elems in [1, 7 * part + 3, 40 * part] {
                let stages = build_stages_for_algo(&job, option, elems, job.algo, &config);
                let c0 = counts();
                let block = Block::from_stages(&stages);
                let c1 = counts();
                let compiled = Block::compile(&job, option, elems, job.algo, &config);
                let c2 = counts();
                drop(compiled);
                // One allocation per non-empty array: the four per-task
                // columns, both offset arrays (never empty), the
                // predecessor and successor lists, and the compute's
                // successors.
                let tasks = !block.is_empty() as u64;
                let own = 4 * tasks
                    + 2
                    + !block.pred_idx.is_empty() as u64
                    + !block.succ_idx.is_empty() as u64
                    + !block.compute_succ.is_empty() as u64;
                let what = option.describe();
                assert_eq!(c1[0] - c0[0], own, "{what}, {elems} elems: {block:?}");
                assert_eq!(
                    c1[1] - c0[1],
                    0,
                    "{what}, {elems} elems: a block array grew"
                );
                // The full compile adds the stage list and the annotated
                // ops it is built from, no more.
                assert!(c2[0] - c1[0] <= own + 2, "{what}, {elems} elems");
                assert_eq!(
                    c2[1] - c1[1],
                    0,
                    "{what}, {elems} elems: a compile buffer grew"
                );
                widest = widest.max(block.len());
            }
        }
    }
    assert!(widest >= 40, "no block had dozens of tasks: {widest}");
}
