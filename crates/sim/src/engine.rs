//! The discrete-event scheduling engine.
//!
//! Non-preemptive FIFO service on every resource: a task enters its
//! resource's queue the moment its predecessor finishes, and queued tasks
//! start in arrival order (ties broken by task construction order, which
//! places a tensor's compression ahead of the next tensor's computation —
//! the stream behaviour of Figure 2(b)/(c)).
//!
//! ## The compiled-plan fast path
//!
//! Strategy-search loops evaluate thousands of candidates against one
//! job. Built per candidate, a task graph would cost more in allocation
//! (per-task predecessor vectors, successor lists, option-keyed cache
//! lookups) than in event processing. The [`Simulator`] therefore
//! compiles each distinct `(compression option, tensor size, algorithm)`
//! into an interned [`Block`] — the tensor's task sub-graph with local
//! predecessor indices — and assembles candidate timelines by
//! concatenating block ids into a flat CSR [`Plan`] evaluated in reusable
//! scratch buffers. Event ordering, tie-breaking, and floating-point
//! arithmetic are identical to the historical per-`Task` path, so
//! timelines are byte-for-byte unchanged (the golden-trace suite pins
//! this).
//!
//! A block compiles straight from the tensor's [`crate::task::Stage`]
//! list ([`Block::from_stages`]): a stage's pieces are contiguous, so the
//! frontier is an index range, every array is sized from the piece and
//! edge counts before it is filled, and nothing is allocated per task
//! (`tests/compile_oracle.rs` holds it to the historical expansion bit
//! for bit). Each simulator interns its own block ids; simulators of one
//! cluster and config (a robust request's) may share the compiled blocks
//! through a [`BlockTable`]. An option handed out
//! by an [`espresso_strategy::OptionSpace`] carries a dense index into
//! the process-wide option table
//! ([`espresso_strategy::CompressionOption::table_index`]), and the
//! interner keys it by `(index, elems, algorithm)`: a miss compiles
//! without hashing, cloning or pinning the option. Any other option — a
//! baseline, a `with_device` variant, one decoded from JSON — is keyed by
//! its `Arc` address (the `Arc` pinned so the address stays unique) and,
//! on an address miss, by content, so re-materialized copies share one
//! block.
//!
//! On top of the plan representation sit two further exact accelerations:
//!
//! * [`DeltaSim`] — incremental re-simulation. For a fixed base strategy,
//!   the engine checkpoints the event loop at the moment tensor `k`'s
//!   backward compute finishes. Every task that exists anywhere in the
//!   engine state at that moment has an index at or before that compute
//!   task (stage tasks of tensor `k` depend on it; later computes are
//!   chained behind it), so a candidate differing from the base only at
//!   tensors `>= k` replays bitwise-identically up to the checkpoint and
//!   only the suffix is re-derived. The dirty-tensor watermark is
//!   detected automatically from the block ids. Bounded trials that
//!   provably cannot beat a threshold are skipped, including those that
//!   can only tie the base (the checkpoint pin, [`DeltaSim::pin_bound`]).
//! * `F(S)` memoization ([`DeltaSim::eval_bounded`]) — exact keying by
//!   the candidate's block-id sequence, so re-encounters of a strategy
//!   (multi-pass sweeps, odometer overlap) cost a hash lookup; a
//!   [`DeltaSim`] keys its single-swap trials ([`DeltaSim::eval_swap`])
//!   by `(tensor, block id)` alone.
//!
//! With those in place the event loop is the cost, so `run_plan` keeps
//! it lean: ready events bypass the heap through a sorted FIFO, event
//! keys are one `u128`, the resync check sorts nothing it can avoid and
//! allocates nothing, and the abort bound's clock-free terms are cached
//! between task starts. A single-swap trial allocates nothing (DESIGN.md
//! §14.1).

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::sync::atomic::{AtomicUsize, Ordering as AtomicOrdering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

use espresso_strategy::Strategy;

use crate::{
    config::SimConfig,
    fault::FaultPlan,
    job::Job,
    result::{SimResult, Span, TaskRecord},
    task::{build_tasks, resource_idx, Block, Resource, Task, TaskKind},
    word_hash::WordMap,
};

/// Simulates one training iteration of `job` under `strategy`.
///
/// Returns the full timeline; `result.iteration_time` is the `F(S)` the
/// decision algorithm minimizes. For search loops that evaluate thousands
/// of strategies against one job, use [`Simulator`], which caches compiled
/// task blocks per (option, tensor size, algorithm).
///
/// # Examples
///
/// ```
/// use espresso_cluster::{Cluster, CommPattern};
/// use espresso_gc::GcAlgorithm;
/// use espresso_models::Model;
/// use espresso_sim::{simulate, Job, SimConfig};
/// use espresso_strategy::Strategy;
///
/// let job = Job::new(
///     Model::Lstm.profile(),
///     Cluster::pcie_25g(8, 8),
///     GcAlgorithm::dgc_1pct(),
/// );
/// let fp32 = Strategy::uncompressed(job.num_tensors(), CommPattern::Hierarchical, &job.cluster);
/// let result = simulate(&job, &fp32, &SimConfig::default());
/// // Communication makes the iteration slower than a single GPU's.
/// assert!(result.iteration_time > job.model.single_gpu_iter_time());
/// ```
pub fn simulate(job: &Job, strategy: &Strategy, config: &SimConfig) -> SimResult {
    let tasks = build_tasks(job, strategy, config);
    finish(job, tasks, config, None)
}

/// Simulates one training iteration of `job` under `strategy` with the
/// perturbations of `faults` injected into the task-duration path.
///
/// Same seed, job, strategy, and config ⇒ bit-identical timelines: the
/// engine stays deterministic, faults only reshape service times (see
/// [`FaultPlan::effective_duration`]).
pub fn simulate_with_faults(
    job: &Job,
    strategy: &Strategy,
    config: &SimConfig,
    faults: &FaultPlan,
) -> SimResult {
    let tasks = build_tasks(job, strategy, config);
    finish(job, tasks, config, Some(faults))
}

fn finish(
    job: &Job,
    tasks: Vec<Task>,
    config: &SimConfig,
    faults: Option<&FaultPlan>,
) -> SimResult {
    let plan = Plan::from_tasks(&tasks);
    let mut scratch = EvalScratch::default();
    run_plan(&plan, config, faults, &mut scratch, None, None, None, None);
    finish_plan(job, &plan, &scratch.spans, config, faults)
}

fn finish_plan(
    job: &Job,
    plan: &Plan,
    spans: &[Span],
    config: &SimConfig,
    _faults: Option<&FaultPlan>,
) -> SimResult {
    let records = plan
        .meta
        .iter()
        .zip(spans)
        .map(|(t, s)| TaskRecord {
            tensor: t.tensor as usize,
            kind: t.kind,
            resource: t.resource,
            span: *s,
        })
        .collect();
    let result = SimResult::new(job.model.forward_time, records, *config);
    // Debug/test builds audit every timeline the engine emits; release
    // search loops skip the pass (the audit CLI re-checks explicitly).
    #[cfg(debug_assertions)]
    {
        let tasks = plan.to_tasks();
        let violations = crate::audit::audit_tasks(&tasks, &result, config);
        debug_assert!(
            violations.is_empty(),
            "engine produced an invalid timeline: {violations:#?}"
        );
    }
    result
}

/// Compact, copyable metadata of one scheduled task. Predecessors live in
/// the owning [`Plan`]'s CSR arrays.
#[derive(Debug, Clone, Copy)]
struct TaskMeta {
    tensor: u32,
    kind: TaskKind,
    resource: Resource,
    duration: f64,
    alpha_secs: f64,
}

/// A compiled task graph: task metadata plus CSR predecessor lists, in
/// exactly the order `build_tasks` would have produced. The successor
/// CSR is carried alongside (same edge set, forward direction) so
/// `run_plan` never rebuilds it per evaluation.
#[derive(Debug, Clone, Default)]
pub struct Plan {
    meta: Vec<TaskMeta>,
    pred_off: Vec<u32>,
    pred_idx: Vec<u32>,
    /// Successor CSR: each task's successor list ascends by task index,
    /// exactly the order the historical per-run rebuild produced.
    succ_off: Vec<u32>,
    succ_idx: Vec<u32>,
    /// Per tensor: the index of its backward-compute task.
    compute_idx: Vec<u32>,
}

impl Plan {
    fn len(&self) -> usize {
        self.meta.len()
    }

    fn preds(&self, i: usize) -> &[u32] {
        &self.pred_idx[self.pred_off[i] as usize..self.pred_off[i + 1] as usize]
    }

    fn pred_count(&self, i: usize) -> u32 {
        self.pred_off[i + 1] - self.pred_off[i]
    }

    fn succs(&self, i: usize) -> &[u32] {
        &self.succ_idx[self.succ_off[i] as usize..self.succ_off[i + 1] as usize]
    }

    fn clear(&mut self) {
        self.meta.clear();
        self.pred_off.clear();
        self.pred_idx.clear();
        self.succ_off.clear();
        self.succ_idx.clear();
        self.compute_idx.clear();
        self.pred_off.push(0);
    }

    fn push(&mut self, meta: TaskMeta, preds: impl IntoIterator<Item = u32>) {
        self.meta.push(meta);
        self.pred_idx.extend(preds);
        self.pred_off.push(self.pred_idx.len() as u32);
    }

    /// Derives the successor CSR from the predecessor lists — counting
    /// pass, prefix sum, then a fill in ascending task order so each
    /// successor list ascends (the invariant splicing relies on).
    fn build_succ(&mut self) {
        let n = self.len();
        self.succ_off.clear();
        self.succ_off.resize(n + 1, 0);
        for &p in &self.pred_idx {
            self.succ_off[p as usize + 1] += 1;
        }
        for i in 0..n {
            self.succ_off[i + 1] += self.succ_off[i];
        }
        self.succ_idx.clear();
        self.succ_idx.resize(self.pred_idx.len(), 0);
        let mut cursor: Vec<u32> = self.succ_off[..n].to_vec();
        for i in 0..n {
            for &p in
                &self.pred_idx[self.pred_off[i] as usize..self.pred_off[i + 1] as usize]
            {
                let c = &mut cursor[p as usize];
                self.succ_idx[*c as usize] = i as u32;
                *c += 1;
            }
        }
    }

    /// Converts a historical `Task` list into a plan (same order).
    fn from_tasks(tasks: &[Task]) -> Plan {
        let mut plan = Plan::default();
        plan.clear();
        for t in tasks {
            if t.kind == TaskKind::Compute {
                plan.compute_idx.push(plan.meta.len() as u32);
            }
            plan.push(
                TaskMeta {
                    tensor: t.tensor as u32,
                    kind: t.kind,
                    resource: t.resource,
                    duration: t.duration,
                    alpha_secs: t.alpha_secs,
                },
                t.preds.iter().map(|&p| p as u32),
            );
        }
        plan.build_succ();
        plan
    }

    /// Reconstructs the `Task` list (debug audits and compatibility).
    #[cfg(debug_assertions)]
    fn to_tasks(&self) -> Vec<Task> {
        (0..self.len())
            .map(|i| Task {
                tensor: self.meta[i].tensor as usize,
                kind: self.meta[i].kind,
                resource: self.meta[i].resource,
                duration: self.meta[i].duration,
                alpha_secs: self.meta[i].alpha_secs,
                preds: self.preds(i).iter().map(|&p| p as usize).collect(),
            })
            .collect()
    }
}

/// Hashable identity of a `GcAlgorithm` setting (variant tag + knob bits)
/// — `GcAlgorithm` itself carries an `f64` and has no `Eq`/`Hash`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct AlgoKey(u8, u64);

fn algo_key(algo: espresso_gc::GcAlgorithm) -> AlgoKey {
    use espresso_gc::GcAlgorithm as A;
    match algo {
        A::RandomK { density } => AlgoKey(0, density.to_bits()),
        A::Dgc { density } => AlgoKey(1, density.to_bits()),
        A::EfSignSgd => AlgoKey(2, 0),
        A::Qsgd { levels } => AlgoKey(3, levels as u64),
        A::TernGrad => AlgoKey(4, 0),
        A::Fp16 => AlgoKey(5, 0),
        A::Natural => AlgoKey(6, 0),
    }
}

/// An option-table option's block key: `(table index, elems, algorithm)`.
type IndexKey = (u64, usize, AlgoKey);

/// One [`BlockTable`] entry, compiled by the first simulator to reach it.
type BlockCell = Arc<OnceLock<Arc<Block>>>;

/// Compiled blocks shared by every [`Simulator`] of one cluster and one
/// [`SimConfig`] — the simulators of one robust request, say, whose
/// selections and pricing jobs differ only in compute times, which no
/// block reads.
///
/// A block reads only the cluster, the config, the option, the element
/// count and the algorithm, so the table keys option-table options by
/// `(table index, elems, algorithm)`, like each simulator's own
/// interner; options from outside the option table stay per simulator.
/// Simulators on other threads may ask for one key at once: each key
/// holds a cell that is compiled outside the table's lock, once, by the
/// first thread to reach it, while the others wait on that cell alone.
/// A simulator keeps its own dense block ids, so trials never touch the
/// table's lock.
#[derive(Debug)]
pub struct BlockTable {
    cluster: espresso_cluster::Cluster,
    config: SimConfig,
    cells: Mutex<WordMap<IndexKey, BlockCell>>,
    compiles: AtomicUsize,
}

impl BlockTable {
    /// An empty table for simulators of jobs on `cluster` under `config`.
    pub fn new(cluster: espresso_cluster::Cluster, config: SimConfig) -> Self {
        Self {
            cluster,
            config,
            cells: Mutex::new(WordMap::default()),
            compiles: AtomicUsize::new(0),
        }
    }

    /// The number of distinct blocks the table holds.
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// Whether no block has been asked for yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The number of block compiles the table has run — equal to
    /// [`BlockTable::len`], since each key compiles once.
    pub fn compiles(&self) -> usize {
        self.compiles.load(AtomicOrdering::Relaxed)
    }

    /// The key map, lock poisoning ignored: a cell is either compiled or
    /// not, so a panic elsewhere cannot leave the map half-updated.
    fn lock(&self) -> MutexGuard<'_, WordMap<IndexKey, BlockCell>> {
        self.cells.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The block for `key`, compiled by `compile` if no simulator has
    /// asked for it yet.
    fn get_or_compile(&self, key: IndexKey, compile: impl FnOnce() -> Block) -> Arc<Block> {
        let cell = self.lock().entry(key).or_default().clone();
        cell.get_or_init(|| {
            self.compiles.fetch_add(1, AtomicOrdering::Relaxed);
            Arc::new(compile())
        })
        .clone()
    }
}

/// Interned blocks plus the per-simulator evaluation scratch.
struct SimCache {
    /// Option-table options: `(table index, elems, algo) -> block id`.
    /// The index stands for the option's content for the life of the
    /// process, so a miss compiles without hashing, cloning or pinning
    /// the option.
    by_index: WordMap<IndexKey, u32>,
    /// Options from outside the table (baselines, `with_device` variants,
    /// decoded or hand-built options), fast identity lookup: `(Arc
    /// pointer, elems, algo) -> block id`. Sound because `pinned` keeps
    /// every keyed `Arc` alive, so an address is never reused for a
    /// different option while cached.
    by_ptr: WordMap<(usize, usize, AlgoKey), u32>,
    /// Content lookup for those options, consulted on pointer misses so
    /// re-materialized options dedup to one block. Keyed by `(elems,
    /// algo)` first, so a lookup borrows the option rather than cloning
    /// it into a key.
    by_content: std::collections::HashMap<
        (usize, AlgoKey),
        std::collections::HashMap<espresso_strategy::CompressionOption, u32>,
    >,
    pinned: Vec<Arc<espresso_strategy::CompressionOption>>,
    /// Blocks by id; shared with the [`BlockTable`], when there is one,
    /// for option-table options.
    blocks: Vec<Arc<Block>>,
    table: Option<Arc<BlockTable>>,
    /// Exact `F(S)` memo keyed by block-id sequence (fast path only).
    memo: WordMap<Vec<u32>, f64>,
    ids: Vec<u32>,
    plan: Plan,
    scratch: EvalScratch,
}

impl SimCache {
    fn new(table: Option<Arc<BlockTable>>) -> Self {
        Self {
            by_index: WordMap::default(),
            by_ptr: WordMap::default(),
            by_content: std::collections::HashMap::new(),
            pinned: Vec::new(),
            blocks: Vec::new(),
            table,
            memo: WordMap::default(),
            ids: Vec::new(),
            plan: Plan::default(),
            scratch: EvalScratch::default(),
        }
    }

    /// Interns the block for one tensor's `(option, elems, algo)`.
    fn block_id(
        &mut self,
        job: &Job,
        config: &SimConfig,
        option: &Arc<espresso_strategy::CompressionOption>,
        elems: usize,
        algo: espresso_gc::GcAlgorithm,
    ) -> u32 {
        let akey = algo_key(algo);
        if let Some(index) = option.table_index() {
            let key = (index, elems, akey);
            if let Some(&id) = self.by_index.get(&key) {
                return id;
            }
            let compile = || Block::compile(job, option, elems, algo, config);
            let block = match &self.table {
                Some(table) => table.get_or_compile(key, compile),
                None => Arc::new(compile()),
            };
            let id = self.blocks.len() as u32;
            self.blocks.push(block);
            self.by_index.insert(key, id);
            return id;
        }
        let pkey = (Arc::as_ptr(option) as usize, elems, akey);
        if let Some(&id) = self.by_ptr.get(&pkey) {
            return id;
        }
        let options = self.by_content.entry((elems, akey)).or_default();
        let id = match options.get(&**option) {
            Some(&id) => id,
            None => {
                let id = self.blocks.len() as u32;
                self.blocks
                    .push(Arc::new(Block::compile(job, option, elems, algo, config)));
                options.insert((**option).clone(), id);
                id
            }
        };
        self.by_ptr.insert(pkey, id);
        self.pinned.push(option.clone());
        id
    }

    /// Fills `self.ids` with the strategy's per-tensor block ids.
    fn block_ids(
        &mut self,
        job: &Job,
        config: &SimConfig,
        strategy: &Strategy,
        algos: Option<&[espresso_gc::GcAlgorithm]>,
    ) {
        assert_eq!(
            strategy.len(),
            job.num_tensors(),
            "strategy covers {} tensors, model has {}",
            strategy.len(),
            job.num_tensors()
        );
        if let Some(algos) = algos {
            assert_eq!(
                algos.len(),
                job.num_tensors(),
                "ratio plan covers {} tensors, model has {}",
                algos.len(),
                job.num_tensors()
            );
        }
        let mut ids = std::mem::take(&mut self.ids);
        ids.clear();
        for (i, tensor) in job.model.tensors.iter().enumerate() {
            let algo = match algos {
                Some(algos) => algos[i],
                None => job.algo_for(i),
            };
            ids.push(self.block_id(job, config, strategy.option(i), tensor.elems, algo));
        }
        self.ids = ids;
    }

    /// Assembles the plan for a block-id sequence into `out`, reproducing
    /// `build_tasks` ordering exactly.
    fn assemble(&self, job: &Job, ids: &[u32], out: &mut Plan) {
        out.clear();
        let mut prev_compute: Option<u32> = None;
        for (i, (&id, tensor)) in ids.iter().zip(&job.model.tensors).enumerate() {
            let block = &self.blocks[id as usize];
            let base = out.meta.len() as u32;
            out.compute_idx.push(base);
            out.push(
                TaskMeta {
                    tensor: i as u32,
                    kind: TaskKind::Compute,
                    resource: Resource::Gpu,
                    duration: tensor.compute_time,
                    alpha_secs: 0.0,
                },
                prev_compute,
            );
            for j in 0..block.len() {
                let preds = block.preds(j).iter().map(|&p| base + p);
                out.push(
                    TaskMeta {
                        tensor: i as u32,
                        kind: block.kind[j],
                        resource: block.resource[j],
                        duration: block.duration[j],
                        alpha_secs: block.alpha_secs[j],
                    },
                    preds,
                );
            }
            prev_compute = Some(base);
        }
        out.build_succ();
    }
}

/// Splice-assembles the plan for "`base` with tensor `idx`'s block
/// swapped from `old` to `new`" into `out` — the canonical single-swap
/// trial of the planner fast path. Produces arrays byte-identical to a
/// full [`SimCache::assemble`] of the trial's id sequence (debug builds
/// assert it), but in O(copy) time: the prefix and suffix regions are
/// `memcpy`d, with suffix task indices shifted by the block-length delta.
///
/// Sound because the task graph has no cross-tensor stage edges: tensor
/// interactions flow only through the compute-compute chain and resource
/// queues, so a suffix task's predecessors/successors all sit either in
/// its own tensor's region (shifted) or at an unshifted compute boundary.
fn splice_swap(base: &Plan, idx: usize, old: &Block, new: &Block, out: &mut Plan) {
    let c = base.compute_idx[idx] as usize;
    let s = c + 1;
    let old_len = old.len();
    let new_len = new.len();
    let e = s + old_len;
    let d = new_len as i64 - old_len as i64;
    let num_tensors = base.compute_idx.len();

    // --- meta ---
    out.meta.clear();
    out.meta.extend_from_slice(&base.meta[..s]);
    for j in 0..new_len {
        out.meta.push(TaskMeta {
            tensor: idx as u32,
            kind: new.kind[j],
            resource: new.resource[j],
            duration: new.duration[j],
            alpha_secs: new.alpha_secs[j],
        });
    }
    out.meta.extend_from_slice(&base.meta[e..]);

    // --- compute_idx ---
    out.compute_idx.clear();
    out.compute_idx
        .extend_from_slice(&base.compute_idx[..=idx]);
    out.compute_idx.extend(
        base.compute_idx[idx + 1..]
            .iter()
            .map(|&v| (v as i64 + d) as u32),
    );

    // --- predecessors ---
    let es = base.pred_off[s] as usize;
    let ee = base.pred_off[e] as usize;
    out.pred_idx.clear();
    out.pred_idx.extend_from_slice(&base.pred_idx[..es]);
    for &p in &new.pred_idx {
        out.pred_idx
            .push(if p == 0 { c as u32 } else { s as u32 + p - 1 });
    }
    out.pred_idx.extend(base.pred_idx[ee..].iter().map(|&v| {
        debug_assert!(
            (v as usize) < s || (v as usize) >= e,
            "suffix pred points into the swapped block"
        );
        if v as usize >= e {
            (v as i64 + d) as u32
        } else {
            v
        }
    }));
    out.pred_off.clear();
    out.pred_off.extend_from_slice(&base.pred_off[..=s]);
    for j in 0..new_len {
        out.pred_off.push(es as u32 + new.pred_off[j + 1]);
    }
    let edge_d = new.pred_idx.len() as i64 - (ee - es) as i64;
    out.pred_off.extend(
        base.pred_off[e + 1..]
            .iter()
            .map(|&v| (v as i64 + edge_d) as u32),
    );

    // --- successors ---
    // Prefix lists up to (excluding) the swapped tensor's compute are
    // verbatim: their successors never cross the tensor boundary.
    let sc = base.succ_off[c] as usize;
    out.succ_idx.clear();
    out.succ_idx.extend_from_slice(&base.succ_idx[..sc]);
    out.succ_off.clear();
    out.succ_off.extend_from_slice(&base.succ_off[..=c]);
    // The compute's list: the new block's roots, then the next compute.
    for &j in &new.compute_succ {
        out.succ_idx.push(s as u32 + j);
    }
    if idx + 1 < num_tensors {
        out.succ_idx.push((e as i64 + d) as u32);
    }
    out.succ_off.push(out.succ_idx.len() as u32);
    // The new block's stage-to-stage lists.
    for j in 0..new_len {
        for &t in new.succs(j) {
            out.succ_idx.push(s as u32 + t);
        }
        out.succ_off.push(out.succ_idx.len() as u32);
    }
    // Suffix lists: all successor indices live at or past the boundary.
    let se = base.succ_off[e] as usize;
    let shift = out.succ_idx.len() as i64 - se as i64;
    out.succ_idx.extend(
        base.succ_idx[se..]
            .iter()
            .map(|&v| (v as i64 + d) as u32),
    );
    out.succ_off.extend(
        base.succ_off[e + 1..]
            .iter()
            .map(|&v| (v as i64 + shift) as u32),
    );
}

/// How a [`run_plan`] invocation ended.
///
/// Transient return value, never stored: the `Paused` checkpoint's size
/// does not matter relative to the cost of producing it.
#[allow(clippy::large_enum_variant)]
enum RunOutcome {
    /// The event loop drained; `scratch` holds the complete timeline.
    Done,
    /// `pause_at` was hit; the state snapshot is returned.
    Paused(Checkpoint),
    /// The resync detector proved the remaining evolution identical to
    /// the base run's; the payload is the exact final makespan.
    Resynced(f64),
    /// The serial-occupancy lower bound certified mid-run that the final
    /// makespan cannot beat the armed threshold.
    Aborted,
}

impl RunOutcome {
    fn into_checkpoint(self) -> Option<Checkpoint> {
        match self {
            RunOutcome::Paused(cp) => Some(cp),
            _ => None,
        }
    }
}

/// Context for the resync early-exit of single-swap trial evaluations.
///
/// A trial differing from the base only in tensor `idx`'s block evolves
/// identically to the base once its event-loop state becomes equal to the
/// base's state at the same compute-finish boundary (same clock, busy
/// counts, pending events, queues, and indegrees, with trial task indices
/// mapped across the swapped block's length delta, and no task of the
/// swapped block pending on either side — every later task then has
/// identical metadata and edges, so the two futures are the same event
/// sequence). At such a boundary the trial's makespan is exactly
/// `max(makespan so far, max span end of the base tasks not yet started)`
/// — no further simulation needed. Comparisons run only at compute-finish
/// boundaries with a cached base checkpoint, and fail in O(1) on the
/// clock in the common divergent case.
struct ResyncState<'a> {
    /// The cached base checkpoints (each with its future-completion max)
    /// by tensor; a run never adds one, so the map is borrowed for the
    /// run's whole length.
    checkpoints: &'a std::collections::BTreeMap<u32, CpEntry>,
    /// The swapped tensor.
    idx: u32,
    /// First stage-task index of the swapped block (same in both plans).
    s: u32,
    /// One past the swapped block in the *base* plan.
    e: u32,
    /// One past the swapped block in the *trial* plan.
    e_t: u32,
    /// Trial-minus-base index shift for tasks past the block.
    d: i64,
}

impl ResyncState<'_> {
    /// Maps a trial task index to its base counterpart (`None` for the
    /// swapped block's own tasks, which have no counterpart).
    #[inline]
    fn map(&self, v: u32) -> Option<u32> {
        if v < self.s {
            Some(v)
        } else if v < self.e_t {
            None
        } else {
            Some((v as i64 - self.d) as u32)
        }
    }

    /// Bitwise state equality of the trial scratch against a base
    /// checkpoint at the same boundary (the cheap `now` test has already
    /// passed). Conservative: any unmappable or reordered entry rejects.
    ///
    /// Allocation-free: the cheap tests (busy counts, pending count, the
    /// resource FIFOs) run first, the checkpoint's events are sorted
    /// already, and the trial's heap is sorted into a reusable buffer
    /// then merged with its (sorted) ready FIFO.
    fn states_match(&self, scratch: &mut EvalScratch, cp: &Checkpoint) -> bool {
        if scratch.busy != cp.busy || scratch.pending() != cp.events.len() {
            return false;
        }
        let (s, e) = (self.s as usize, self.e as usize);
        let in_block = |task: u32| (s..e).contains(&(task as usize));
        for (tq, bq) in scratch.queues.iter().zip(&cp.queues) {
            if tq.len() != bq.len() {
                return false;
            }
            for (&x, &y) in tq.iter().zip(bq) {
                if in_block(y) || self.map(x) != Some(y) {
                    return false;
                }
            }
        }
        // Pending events in each run's exact future pop order (by key):
        // the mapped sequences must be equal.
        let EvalScratch {
            heap,
            ready,
            ready_head,
            sorted,
            ..
        } = scratch;
        sorted.clear();
        sorted.extend(heap.iter().map(|r| r.0));
        sorted.sort_unstable();
        let (mut h, mut r) = (
            sorted.iter().peekable(),
            ready[*ready_head..].iter().peekable(),
        );
        for y in &cp.events {
            let x = match (h.peek(), r.peek()) {
                (Some(&&a), Some(&&b)) if b < a => r.next(),
                (Some(_), _) => h.next(),
                (None, _) => r.next(),
            };
            let Some(x) = x else {
                return false;
            };
            if in_block(y.task())
                || self.map(x.task()) != Some(y.task())
                || x.time().to_bits() != y.time().to_bits()
                || x.is_finish() != y.is_finish()
            {
                return false;
            }
        }
        // Indegrees: prefix verbatim, tail mapped across the shift. The
        // swapped block's own entries are skipped — neither side can have
        // one of its tasks unfinished here (it would be pending as an
        // event or in a queue, rejected above).
        scratch.indegree[..s] == cp.indegree[..s]
            && scratch.indegree[self.e_t as usize..] == cp.indegree[e..]
    }
}

/// Structural equality of two plans, float fields compared by bits —
/// the debug-build oracle that splice-assembly reproduces full assembly.
#[cfg(debug_assertions)]
fn plans_identical(a: &Plan, b: &Plan) -> bool {
    a.meta.len() == b.meta.len()
        && a.meta.iter().zip(&b.meta).all(|(x, y)| {
            x.tensor == y.tensor
                && x.kind == y.kind
                && resource_idx(x.resource) == resource_idx(y.resource)
                && x.duration.to_bits() == y.duration.to_bits()
                && x.alpha_secs.to_bits() == y.alpha_secs.to_bits()
        })
        && a.pred_off == b.pred_off
        && a.pred_idx == b.pred_idx
        && a.succ_off == b.succ_off
        && a.succ_idx == b.succ_idx
        && a.compute_idx == b.compute_idx
}

/// A reusable simulator for one job: interns compiled task blocks per
/// `(compression option, tensor size, algorithm setting)` and evaluates
/// candidate strategies in reusable scratch buffers, so strategy-search
/// loops (Algorithms 1 and 2, brute force, the ratio allocator) skip
/// re-annotating options, re-evaluating timing models, and re-allocating
/// task graphs on every candidate.
pub struct Simulator {
    job: Job,
    config: SimConfig,
    cache: std::cell::RefCell<SimCache>,
}

impl Simulator {
    /// Builds a simulator for `job`.
    pub fn new(job: Job, config: SimConfig) -> Self {
        Self {
            job,
            config,
            cache: std::cell::RefCell::new(SimCache::new(None)),
        }
    }

    /// Builds a simulator for `job` that takes the blocks of
    /// option-table options from `table`, compiling into it the ones no
    /// simulator has asked for yet.
    ///
    /// # Panics
    ///
    /// Panics unless `table` was built for `job`'s cluster and `config`.
    pub fn with_block_table(job: Job, config: SimConfig, table: Arc<BlockTable>) -> Self {
        assert!(
            table.cluster == job.cluster && table.config == config,
            "a block table serves one cluster and one simulator config"
        );
        Self {
            job,
            config,
            cache: std::cell::RefCell::new(SimCache::new(Some(table))),
        }
    }

    /// The job being simulated.
    pub fn job(&self) -> &Job {
        &self.job
    }

    /// The simulator configuration.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// Runs the currently-assembled plan in the cache scratch and returns
    /// `F(S)`. Split out so callers can borrow the cache once.
    fn run_assembled(&self, cache: &mut SimCache, faults: Option<&FaultPlan>) -> f64 {
        let SimCache { plan, scratch, .. } = cache;
        run_plan(plan, &self.config, faults, scratch, None, None, None, None);
        self.job.model.forward_time + scratch.max_end
    }

    fn eval(
        &self,
        strategy: &Strategy,
        algos: Option<&[espresso_gc::GcAlgorithm]>,
        faults: Option<&FaultPlan>,
    ) -> f64 {
        let mut cache = self.cache.borrow_mut();
        cache.block_ids(&self.job, &self.config, strategy, algos);
        let ids = std::mem::take(&mut cache.ids);
        let mut plan = std::mem::take(&mut cache.plan);
        cache.assemble(&self.job, &ids, &mut plan);
        cache.plan = plan;
        cache.ids = ids;
        self.run_assembled(&mut cache, faults)
    }

    /// Full-timeline simulation (cached block compilation).
    pub fn simulate(&self, strategy: &Strategy) -> SimResult {
        self.simulate_inner(strategy, None)
    }

    /// Full-timeline simulation under a fault plan (cached blocks).
    pub fn simulate_with_faults(&self, strategy: &Strategy, faults: &FaultPlan) -> SimResult {
        self.simulate_inner(strategy, Some(faults))
    }

    fn simulate_inner(&self, strategy: &Strategy, faults: Option<&FaultPlan>) -> SimResult {
        let mut cache = self.cache.borrow_mut();
        cache.block_ids(&self.job, &self.config, strategy, None);
        let ids = std::mem::take(&mut cache.ids);
        let mut plan = std::mem::take(&mut cache.plan);
        cache.assemble(&self.job, &ids, &mut plan);
        let SimCache { scratch, .. } = &mut *cache;
        run_plan(&plan, &self.config, faults, scratch, None, None, None, None);
        let result = finish_plan(&self.job, &plan, &scratch.spans, &self.config, faults);
        cache.plan = plan;
        cache.ids = ids;
        result
    }

    /// Fast path returning only `F(S)` — skips timeline record assembly.
    pub fn iteration_time(&self, strategy: &Strategy) -> f64 {
        self.eval(strategy, None, None)
    }

    /// Fast path returning `F(S)` with a per-call per-tensor ratio plan
    /// overriding the job's (and its default) — the ratio allocator and
    /// the ratio-aware oracle evaluate thousands of plans against one
    /// simulator, sharing the block cache across all of them.
    pub fn iteration_time_with_algos(
        &self,
        strategy: &Strategy,
        algos: &[espresso_gc::GcAlgorithm],
    ) -> f64 {
        self.eval(strategy, Some(algos), None)
    }

    /// Fast path returning only the perturbed `F(S)`.
    pub fn iteration_time_with_faults(&self, strategy: &Strategy, faults: &FaultPlan) -> f64 {
        self.eval(strategy, None, Some(faults))
    }

    /// Builds an incremental re-simulation handle anchored at `base`.
    ///
    /// Trials that differ from `base` only at tensors `>= k` resume from
    /// a checkpoint taken at tensor `k`'s compute finish instead of
    /// replaying the whole timeline. Results are bitwise-identical to
    /// from-scratch simulation (see the module docs for the argument; the
    /// delta proptest and `espresso-audit decide` enforce it).
    pub fn delta(&self, base: &Strategy) -> DeltaSim<'_> {
        let mut cache = self.cache.borrow_mut();
        cache.block_ids(&self.job, &self.config, base, None);
        let base_ids = cache.ids.clone();
        let base_sums = self.strategy_sums(&cache, &base_ids);
        // Assemble the base plan once; it anchors every checkpoint and
        // splice until a rebase replaces it.
        let mut base_plan = Plan::default();
        cache.assemble(&self.job, &base_ids, &mut base_plan);
        let SimCache { scratch, .. } = &mut *cache;
        run_plan(&base_plan, &self.config, None, scratch, None, None, None, None);
        let base_time = self.job.model.forward_time + scratch.max_end;
        let base_spans = scratch.spans.clone();
        cache.memo.insert(base_ids.clone(), base_time);
        drop(cache);
        DeltaSim {
            sim: self,
            base_ids,
            base_time,
            base_sums,
            base_plan: std::cell::RefCell::new(base_plan),
            base_spans: std::cell::RefCell::new(base_spans),
            trial_plan: std::cell::RefCell::new(Plan::default()),
            checkpoints: std::cell::RefCell::new(std::collections::BTreeMap::new()),
            pin_scratch: std::cell::RefCell::new(Vec::new()),
            swap_memo: std::cell::RefCell::new(WordMap::default()),
            counts: std::cell::Cell::new(TrialCounts::default()),
        }
    }

    /// Per-resource total duration of a block-id sequence, computes
    /// included (GPU slot).
    fn strategy_sums(&self, cache: &SimCache, ids: &[u32]) -> [f64; 4] {
        let mut sums = [0.0f64; 4];
        for &id in ids {
            let bs = &cache.blocks[id as usize].resource_sums;
            for (acc, s) in sums.iter_mut().zip(bs) {
                *acc += s;
            }
        }
        for t in &self.job.model.tensors {
            sums[0] += t.compute_time;
        }
        sums
    }

    /// Compiles `strategy` into a self-contained evaluation unit that can
    /// run on any thread (see [`PreparedEval`]).
    pub fn prepare(&self, strategy: &Strategy) -> PreparedEval {
        self.prepare_with_faults(strategy, None)
    }

    /// As [`Simulator::prepare`], with an optional fault plan priced in.
    pub fn prepare_with_faults(
        &self,
        strategy: &Strategy,
        faults: Option<&FaultPlan>,
    ) -> PreparedEval {
        let mut cache = self.cache.borrow_mut();
        cache.block_ids(&self.job, &self.config, strategy, None);
        let ids = std::mem::take(&mut cache.ids);
        let mut plan = Plan::default();
        cache.assemble(&self.job, &ids, &mut plan);
        cache.ids = ids;
        PreparedEval {
            plan,
            faults: faults.cloned(),
            forward_time: self.job.model.forward_time,
            config: self.config,
        }
    }
}

/// Incremental re-simulation against a fixed base strategy: candidates
/// sharing a prefix of per-tensor blocks with the base re-derive only the
/// affected suffix of the timeline. Checkpoints are created lazily per
/// dirty-tensor watermark and reused (a checkpoint at tensor `k` is built
/// by resuming the nearest earlier one).
pub struct DeltaSim<'a> {
    sim: &'a Simulator,
    base_ids: Vec<u32>,
    base_time: f64,
    /// Total task duration per resource for the base strategy (computes
    /// folded into the GPU slot) — the O(1) ingredient of the per-trial
    /// lower bound.
    base_sums: [f64; 4],
    /// The base strategy's assembled plan (successor CSR included) —
    /// checkpoints replay it, and single-swap trials splice against it
    /// instead of re-assembling from scratch.
    base_plan: std::cell::RefCell<Plan>,
    /// The base run's complete timeline spans — the resync early-exit
    /// prices each checkpoint's future from them.
    base_spans: std::cell::RefCell<Vec<Span>>,
    /// Scratch plan the current trial is spliced into.
    trial_plan: std::cell::RefCell<Plan>,
    checkpoints: std::cell::RefCell<std::collections::BTreeMap<u32, CpEntry>>,
    /// Per-task earliest finishes while a checkpoint pin is computed
    /// (see [`DeltaSim::pin`]); reused across pins.
    pin_scratch: std::cell::RefCell<Vec<f64>>,
    /// Exact `F` of single-swap trials against the current base, keyed
    /// by `(tensor, block id)`: O(1) to key, where the simulator's memo
    /// hashes the whole block-id sequence. `rebase` keeps only the
    /// entries the new base still answers.
    swap_memo: std::cell::RefCell<WordMap<(u32, u32), f64>>,
    counts: std::cell::Cell<TrialCounts>,
}

/// How the trials a [`DeltaSim`] handled ended — measurement only: the
/// counts stay off the planner's report and every wire format.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TrialCounts {
    /// Trials whose replay ran the event loop to the end.
    pub simulated: u64,
    /// Replays the resync detector ended early with the exact `F`.
    pub resynced: u64,
    /// Replays the mid-run abort bound ended early.
    pub aborted: u64,
    /// Trials ruled out without running by the static resource-sum,
    /// checkpoint and dependency-chain bounds.
    pub pruned_static: u64,
    /// Trials ruled out without running by the checkpoint pin.
    pub pruned_pin: u64,
    /// Trials answered from the `F` memo or as the base itself.
    pub memo_hits: u64,
}

/// Process-wide sums of the counts of every dropped [`DeltaSim`], in
/// [`TrialCounts`] field order.
static TRIAL_TOTALS: [std::sync::atomic::AtomicU64; 6] =
    [const { std::sync::atomic::AtomicU64::new(0) }; 6];

impl TrialCounts {
    fn fields(self) -> [u64; 6] {
        [
            self.simulated,
            self.resynced,
            self.aborted,
            self.pruned_static,
            self.pruned_pin,
            self.memo_hits,
        ]
    }

    fn from_fields(f: [u64; 6]) -> Self {
        Self {
            simulated: f[0],
            resynced: f[1],
            aborted: f[2],
            pruned_static: f[3],
            pruned_pin: f[4],
            memo_hits: f[5],
        }
    }

    /// The sums over every [`DeltaSim`] dropped so far in this process —
    /// take two readings and [`TrialCounts::since`] to measure a span of
    /// planner work whose handles are internal.
    pub fn process_totals() -> Self {
        Self::from_fields(std::array::from_fn(|i| {
            TRIAL_TOTALS[i].load(std::sync::atomic::Ordering::Relaxed)
        }))
    }

    /// The counts accumulated between `earlier` and `self`.
    pub fn since(self, earlier: Self) -> Self {
        let (a, b) = (self.fields(), earlier.fields());
        Self::from_fields(std::array::from_fn(|i| a[i].saturating_sub(b[i])))
    }

    /// Every trial counted, whatever its outcome.
    pub fn trials(self) -> u64 {
        self.fields().iter().sum()
    }
}

impl Drop for DeltaSim<'_> {
    fn drop(&mut self) {
        for (total, n) in TRIAL_TOTALS.iter().zip(self.counts.get().fields()) {
            if n > 0 {
                total.fetch_add(n, std::sync::atomic::Ordering::Relaxed);
            }
        }
    }
}

/// A cached checkpoint plus its *re-priced* remaining-work accounting.
///
/// The replay state (`cp`) references only task indices at or before the
/// pause compute, so it survives a [`DeltaSim::rebase`] whose first
/// changed tensor is at or after its position. The `remaining` sums do
/// NOT: they price the not-yet-started suffix of the plan the checkpoint
/// was built against, and a rebase swaps some of those suffix blocks.
/// Every changed position is unstarted at every retained checkpoint, so
/// the correction is the same for all of them — the componentwise change
/// in the base's resource sums — which `rebase` folds in here while the
/// `Arc<Checkpoint>` stays byte-stable for replay.
/// Mid-run certified-abort context for bounded single-swap evaluation.
///
/// Tracks the total duration of tasks not yet started per resource and
/// the busy horizon of each single-server resource. At any simulation
/// point the unstarted tasks of a resource must still occupy it serially
/// (or, for the CPU pool, spread over its slots), and none can begin
/// before the current clock or the resource's busy horizon — so
/// `max(now, busy_until) + remaining` lower-bounds the final makespan.
/// The run aborts the moment that bound (minus the same safety margin the
/// static screen uses) reaches the threshold, certifying `F(trial) >=
/// threshold` without finishing the suffix.
struct BoundState {
    /// Makespan threshold net of forward time, margin included: abort
    /// once the lower bound reaches it.
    threshold: f64,
    /// Total duration of tasks not yet started, per resource.
    rem: [f64; 4],
    /// End of the latest-started task per resource — the exact busy
    /// horizon for the single-server resources (unused for the pool).
    busy_until: [f64; 4],
    /// `1 / cpu_slots` for the pooled resource's capacity scaling.
    inv_cpu_slots: f64,
    /// `max(busy_until[r] + rem[r])` over the single-server resources.
    horizon: f64,
    /// `max(rem[r] / capacity[r])` over every resource.
    work: f64,
}

impl BoundState {
    fn new(threshold: f64, rem: [f64; 4], cpu_slots: usize) -> Self {
        let mut b = BoundState {
            threshold,
            rem,
            busy_until: [0.0; 4],
            inv_cpu_slots: 1.0 / cpu_slots.max(1) as f64,
            horizon: 0.0,
            work: 0.0,
        };
        b.refresh();
        b
    }

    /// Re-derives the two clock-free terms after a task start changed
    /// `rem` and `busy_until`.
    #[inline]
    fn refresh(&mut self) {
        let [g, c, a, e] = self.rem;
        let u = self.busy_until;
        self.horizon = fmax(fmax(u[0] + g, u[2] + a), u[3] + e);
        self.work = fmax(fmax(g, c * self.inv_cpu_slots), fmax(a, e));
    }

    /// Whether the lower bound at clock `now` reaches the threshold. The
    /// bound is `max over r of max(busy_until[r], now) + rem[r] / cap[r]`
    /// (no busy horizon on the pool); rounding is monotone, so
    /// `max(u, now) + x` is exactly `max(u + x, now + x)` and `now +
    /// max(x)` is exactly `max(now + x)`. The bound therefore equals
    /// `max(horizon, now + work)` bit for bit, and only the second term
    /// moves between task starts.
    #[inline]
    fn reached(&self, now: f64) -> bool {
        self.horizon >= self.threshold || now + self.work >= self.threshold
    }
}

/// The larger of two finite floats: one compare, no NaN handling (the
/// engine's times and durations are never NaN).
#[inline]
fn fmax(a: f64, b: f64) -> f64 {
    if a >= b {
        a
    } else {
        b
    }
}

struct CpEntry {
    cp: Arc<Checkpoint>,
    remaining: [f64; 4],
    /// Max span end among tasks not yet started at the snapshot, in the
    /// *base* run — the exact future contribution a resynced trial
    /// inherits. Recomputed from the new base's spans on rebase.
    future_max: f64,
    /// The checkpoint pin (see [`DeltaSim::pin`]), computed on first
    /// use; cleared by `rebase`, which changes the suffix it prices.
    pin: Option<f64>,
}

impl DeltaSim<'_> {
    /// `F(base)` — computed once at construction.
    pub fn base_time(&self) -> f64 {
        self.base_time
    }

    /// The checkpoint at tensor `k`'s compute finish, creating it (and
    /// implicitly reusing the nearest earlier one) on first use.
    fn checkpoint(&self, k: u32) -> Arc<Checkpoint> {
        if let Some(entry) = self.checkpoints.borrow().get(&k) {
            return entry.cp.clone();
        }
        let earlier = self
            .checkpoints
            .borrow()
            .range(..k)
            .next_back()
            .map(|(_, entry)| entry.cp.clone());
        let mut cache = self.sim.cache.borrow_mut();
        let base_plan = self.base_plan.borrow();
        let SimCache { scratch, .. } = &mut *cache;
        let pause = base_plan.compute_idx[k as usize];
        let cp = run_plan(
            &base_plan,
            &self.sim.config,
            None,
            scratch,
            earlier.as_deref(),
            Some(pause),
            None,
            None,
        )
        .into_checkpoint()
        .expect("every compute task finishes exactly once");
        drop(base_plan);
        drop(cache);
        // Completion max of the base's own future at this boundary: the
        // resync early-exit returns it as the tail's exact contribution.
        let future_max = {
            let base_spans = self.base_spans.borrow();
            cp.spans
                .iter()
                .zip(base_spans.iter())
                .filter(|(s, _)| s.start.is_nan())
                .map(|(_, full)| full.end)
                .fold(0.0f64, f64::max)
        };
        let cp = Arc::new(cp);
        self.checkpoints.borrow_mut().insert(
            k,
            CpEntry {
                cp: cp.clone(),
                remaining: cp.remaining,
                future_max,
                pin: None,
            },
        );
        cp
    }

    /// The first tensor whose block differs from the base, or `None` when
    /// the trial is behaviourally identical to it.
    fn watermark(&self, trial_ids: &[u32]) -> Option<u32> {
        trial_ids
            .iter()
            .zip(&self.base_ids)
            .position(|(a, b)| a != b)
            .map(|i| i as u32)
    }

    /// `F(trial)` via suffix re-simulation — bitwise-equal to
    /// `Simulator::iteration_time(trial)`. Exact-memoized by block-id
    /// sequence.
    pub fn iteration_time(&self, trial: &Strategy) -> f64 {
        self.eval_bounded(trial, f64::INFINITY)
            .expect("an infinite threshold never prunes")
    }

    /// `F(trial)` if it can be below `threshold`, `None` if the certified
    /// lower bound already rules that out (no simulation runs).
    ///
    /// The contract is exact: `None` guarantees `F(trial) >= threshold`,
    /// so a search loop accepting on `t < threshold` treats `None` as a
    /// rejection with the identical outcome — and identical selected
    /// strategy — as if it had simulated. The bound combines the global
    /// per-resource busy-time bound with a checkpoint refinement: every
    /// task unstarted at the watermark checkpoint runs at or after its
    /// clock, so `F >= now + remaining_work / capacity` there.
    pub fn eval_bounded(&self, trial: &Strategy, threshold: f64) -> Option<f64> {
        let mut cache = self.sim.cache.borrow_mut();
        cache.block_ids(&self.sim.job, &self.sim.config, trial, None);
        let Some(k) = self.watermark(&cache.ids) else {
            self.tally(|c| c.memo_hits += 1);
            return Some(self.base_time);
        };
        if let Some(&t) = cache.memo.get(&cache.ids) {
            self.tally(|c| c.memo_hits += 1);
            return Some(t);
        }
        if self.bound(&cache, k) >= threshold {
            self.tally(|c| c.pruned_static += 1);
            return None;
        }
        let ids = std::mem::take(&mut cache.ids);
        drop(cache);
        Some(self.eval_ids(ids, k))
    }

    /// As [`DeltaSim::eval_bounded`] for the canonical greedy-search move
    /// — the base strategy with tensor `idx` swapped to `option` — with
    /// O(1) screening: the swapped block resolves through the interner
    /// and the lower bound derives from that single block's resource-sum
    /// diff, so a pruned trial never materializes its id vector. May
    /// return `None` where `eval_bounded` would return a memoized
    /// `Some(t)` with `t >= threshold`; both mean "cannot beat
    /// `threshold`", so accept loops behave identically.
    pub fn eval_swap(
        &self,
        idx: usize,
        option: &Arc<espresso_strategy::CompressionOption>,
        threshold: f64,
    ) -> Option<f64> {
        let mut cache = self.sim.cache.borrow_mut();
        let elems = self.sim.job.model.tensors[idx].elems;
        let algo = self.sim.job.algo_for(idx);
        let bid = cache.block_id(&self.sim.job, &self.sim.config, option, elems, algo);
        let base_bid = self.base_ids[idx];
        if bid == base_bid {
            self.tally(|c| c.memo_hits += 1);
            return Some(self.base_time);
        }
        let mut diff = [0.0f64; 4];
        {
            let ts = &cache.blocks[bid as usize].resource_sums;
            let bs = &cache.blocks[base_bid as usize].resource_sums;
            for (d, (x, y)) in diff.iter_mut().zip(ts.iter().zip(bs)) {
                *d = x - y;
            }
        }
        // Dependency-chain refinement: the trial shares the base's prefix
        // through tensor `idx`'s compute, whose finish time it inherits
        // bitwise; the new block's tasks then need at least its longest
        // dependency path beyond that, contention aside.
        let chain_lb = {
            let c = self.base_plan.borrow().compute_idx[idx] as usize;
            let compute_end = self.base_spans.borrow()[c].end;
            self.sim.job.model.forward_time + compute_end + cache.blocks[bid as usize].chain
                - 1e-9
        };
        if self.bound_from_diff(&diff, idx as u32).max(chain_lb) >= threshold {
            self.tally(|c| c.pruned_static += 1);
            return None;
        }
        drop(cache);
        if self.pin_prunes(idx as u32, threshold) {
            #[cfg(debug_assertions)]
            self.check_pin_pruned(&self.swap_ids(idx, bid), idx as u32, threshold);
            self.tally(|c| c.pruned_pin += 1);
            return None;
        }
        if let Some(&t) = self.swap_memo.borrow().get(&(idx as u32, bid)) {
            self.tally(|c| c.memo_hits += 1);
            return Some(t);
        }
        self.eval_spliced(idx, base_bid, bid, threshold)
    }

    /// The block ids of the base with tensor `idx` swapped to block
    /// `bid` — built only for the debug oracles.
    #[cfg(debug_assertions)]
    fn swap_ids(&self, idx: usize, bid: u32) -> Vec<u32> {
        let mut ids = self.base_ids.clone();
        ids[idx] = bid;
        ids
    }

    /// Suffix re-simulation of the single-swap trial — the base with
    /// tensor `idx`'s block swapped from `old_bid` to `new_bid` — using
    /// splice-assembly against the cached base plan instead of a full
    /// rebuild; memoizes `F` by `(idx, new_bid)` and returns it.
    /// Returns `None` when the mid-run abort bound certifies
    /// `F(trial) >= threshold` before the suffix completes (same contract
    /// as the static screen in [`DeltaSim::eval_swap`]).
    fn eval_spliced(&self, idx: usize, old_bid: u32, new_bid: u32, threshold: f64) -> Option<f64> {
        let cp = self.checkpoint(idx as u32);
        let mut cache = self.sim.cache.borrow_mut();
        let base_plan = self.base_plan.borrow();
        let mut trial = self.trial_plan.borrow_mut();
        splice_swap(
            &base_plan,
            idx,
            &cache.blocks[old_bid as usize],
            &cache.blocks[new_bid as usize],
            &mut trial,
        );
        #[cfg(debug_assertions)]
        {
            let mut check = Plan::default();
            cache.assemble(&self.sim.job, &self.swap_ids(idx, new_bid), &mut check);
            debug_assert!(
                plans_identical(&check, &trial),
                "splice-assembly diverged from full assembly"
            );
        }
        let c = base_plan.compute_idx[idx] as usize;
        let old_len = cache.blocks[old_bid as usize].len();
        let new_len = cache.blocks[new_bid as usize].len();
        let checkpoints = self.checkpoints.borrow();
        let rs = ResyncState {
            checkpoints: &checkpoints,
            idx: idx as u32,
            s: c as u32 + 1,
            e: (c + 1 + old_len) as u32,
            e_t: (c + 1 + new_len) as u32,
            d: new_len as i64 - old_len as i64,
        };
        let mut bound = if threshold.is_finite() {
            // The entry's remaining-work vector, not the checkpoint's
            // own: rebase re-prices entries against the current base
            // while the snapshot keeps its original (now stale) sums.
            let mut rem = checkpoints
                .get(&(idx as u32))
                .expect("checkpoint(idx) just inserted this entry")
                .remaining;
            let old_sums = &cache.blocks[old_bid as usize].resource_sums;
            let new_sums = &cache.blocks[new_bid as usize].resource_sums;
            for (r, (x, y)) in rem.iter_mut().zip(new_sums.iter().zip(old_sums)) {
                *r += x - y;
            }
            Some(BoundState::new(
                threshold - self.sim.job.model.forward_time + 1e-9,
                rem,
                self.sim.config.cpu_slots,
            ))
        } else {
            None
        };
        let SimCache { scratch, .. } = &mut *cache;
        let outcome = run_plan(
            &trial,
            &self.sim.config,
            None,
            scratch,
            Some(&cp),
            None,
            Some(&rs),
            bound.as_mut(),
        );
        if matches!(outcome, RunOutcome::Aborted) {
            self.tally(|c| c.aborted += 1);
            #[cfg(debug_assertions)]
            {
                // Oracle: an aborted trial must truly be at or above the
                // threshold it was certified against.
                let mut check = EvalScratch::default();
                run_plan(
                    &trial,
                    &self.sim.config,
                    None,
                    &mut check,
                    None,
                    None,
                    None,
                    None,
                );
                debug_assert!(
                    self.sim.job.model.forward_time + check.max_end >= threshold,
                    "abort bound overclaimed: F={} < threshold={}",
                    self.sim.job.model.forward_time + check.max_end,
                    threshold
                );
            }
            return None;
        }
        let makespan = match outcome {
            RunOutcome::Resynced(m) => {
                self.tally(|c| c.resynced += 1);
                m
            }
            _ => {
                self.tally(|c| c.simulated += 1);
                scratch.max_end
            }
        };
        #[cfg(debug_assertions)]
        {
            // Oracle: a resynced result must equal the full re-run's.
            let mut check = EvalScratch::default();
            run_plan(
                &trial,
                &self.sim.config,
                None,
                &mut check,
                None,
                None,
                None,
                None,
            );
            debug_assert_eq!(
                makespan.to_bits(),
                check.max_end.to_bits(),
                "resync early-exit diverged from full simulation"
            );
        }
        let t = self.sim.job.model.forward_time + makespan;
        self.swap_memo.borrow_mut().insert((idx as u32, new_bid), t);
        Some(t)
    }

    /// Suffix re-simulation of the trial whose id vector is `ids`, dirty
    /// from tensor `k` on; memoizes and returns `F`. Returns `ids` to the
    /// cache scratch slot.
    fn eval_ids(&self, ids: Vec<u32>, k: u32) -> f64 {
        let cp = self.checkpoint(k);
        let mut cache = self.sim.cache.borrow_mut();
        let mut plan = std::mem::take(&mut cache.plan);
        cache.assemble(&self.sim.job, &ids, &mut plan);
        let SimCache { scratch, .. } = &mut *cache;
        run_plan(&plan, &self.sim.config, None, scratch, Some(&cp), None, None, None);
        self.tally(|c| c.simulated += 1);
        cache.plan = plan;
        let t = self.sim.job.model.forward_time + cache.scratch.max_end;
        cache.memo.insert(ids.clone(), t);
        cache.ids = ids;
        t
    }

    /// The certified lower bound for the trial whose ids are in
    /// `cache.ids`, differing from the base at positions `>= watermark`.
    fn bound(&self, cache: &SimCache, watermark: u32) -> f64 {
        let mut diff = [0.0f64; 4];
        let mut chain_lb = 0.0f64;
        let base_plan = self.base_plan.borrow();
        let base_spans = self.base_spans.borrow();
        for (i, (&t, &b)) in cache.ids.iter().zip(&self.base_ids).enumerate() {
            if t != b {
                let ts = &cache.blocks[t as usize].resource_sums;
                let bs = &cache.blocks[b as usize].resource_sums;
                for (d, (x, y)) in diff.iter_mut().zip(ts.iter().zip(bs)) {
                    *d += x - y;
                }
                // Chain refinement (see `eval_swap`): valid per changed
                // tensor because the compute prefix up to the watermark
                // tensor's compute is shared and computes never move
                // earlier than the base's under added stage work.
                if i == watermark as usize {
                    let c = base_plan.compute_idx[i] as usize;
                    chain_lb = chain_lb
                        .max(base_spans[c].end + cache.blocks[t as usize].chain);
                }
            }
        }
        drop(base_spans);
        drop(base_plan);
        self.bound_from_diff(&diff, watermark)
            .max(self.sim.job.model.forward_time + chain_lb - 1e-9)
    }

    /// The lower bound given the trial-vs-base resource-sum diff and the
    /// dirty-tensor watermark.
    fn bound_from_diff(&self, diff: &[f64; 4], watermark: u32) -> f64 {
        let slots = self.sim.config.cpu_slots.max(1) as f64;
        let caps = [1.0, slots, 1.0, 1.0];
        let mut lb = (0..4)
            .map(|r| (self.base_sums[r] + diff[r]) / caps[r])
            .fold(0.0f64, f64::max);
        // Checkpoint refinement: any snapshot at or before the watermark
        // has all diff-position stage tasks still unstarted, so its
        // remaining-work accounting transfers to the trial verbatim.
        if let Some((_, entry)) = self.checkpoints.borrow().range(..=watermark).next_back() {
            let refined = (0..4)
                .map(|r| (entry.remaining[r] + diff[r]) / caps[r])
                .fold(0.0f64, f64::max);
            lb = lb.max(entry.cp.now + refined);
        }
        self.sim.job.model.forward_time + lb - 1e-9
    }

    /// The checkpoint pin at tensor `k`: the largest earliest finish,
    /// from the checkpoint at `k`, over every task outside tensor `k`'s
    /// stage block — a makespan every trial that differs from the base
    /// only in that block must reach. It prices each single-server
    /// resource's FIFO order (the GPU, both channels, and the CPU pool
    /// when `cpu_slots == 1`):
    ///
    /// * **Known prefix.** A task started at the checkpoint finishes at
    ///   its exact span end. A single-server resource then serves the
    ///   tasks queued at the checkpoint and, after them, those of the
    ///   pending ready events in key order, back to back, before any
    ///   other task: the swapped block's roots and everything later are
    ///   pushed with larger sequence numbers. Their finishes are the
    ///   event loop's own sums, bit for bit.
    /// * **Forced order.** A compute, or a stage task whose only
    ///   predecessor is its tensor's compute, becomes ready the moment a
    ///   compute finishes, and a compute's successor list is its block's
    ///   roots followed by the next compute, so these *forced* tasks
    ///   enter every FIFO in index order, after the prefix. A cursor per
    ///   resource starts each one no earlier than the forced task before
    ///   it on that resource finishes; tasks served between them, the
    ///   swapped block's among them, can only delay it.
    /// * **Everything else** starts no earlier than its predecessors'
    ///   finishes and its resource's prefix end (the checkpoint clock on
    ///   a multi-slot pool).
    ///
    /// No task outside the block depends on it (the task graph has no
    /// cross-tensor stage edges), and the trial replays the prefix bit
    /// for bit. The event loop computes `start + duration` on values at
    /// least as large, and rounding is monotone, so `forward_time + pin
    /// <= F(trial)` holds bit for bit with no margin — which is what
    /// lets the pin certify a tie with the incumbent where the
    /// margin-deflated bounds cannot.
    ///
    /// Computed on first use and cached on the checkpoint entry until a
    /// rebase clears it.
    fn pin(&self, k: u32) -> f64 {
        if let Some(pin) = self.checkpoints.borrow().get(&k).and_then(|e| e.pin) {
            return pin;
        }
        let cp = self.checkpoint(k);
        let plan = self.base_plan.borrow();
        let n = plan.len();
        let c = plan.compute_idx[k as usize] as usize;
        debug_assert_eq!(cp.prefix_end as usize, c);
        let block_end = plan
            .compute_idx
            .get(k as usize + 1)
            .map_or(n, |&v| v as usize);
        let single_server = [true, self.sim.config.cpu_slots.max(1) == 1, true, true];
        let mut finish = self.pin_scratch.borrow_mut();
        finish.clear();
        finish.resize(n, f64::NAN);
        // Known prefix. A single-server resource is busy until its
        // running task ends (its finished tasks ended by the clock).
        let mut cursor = [cp.now; 4];
        for i in (0..=c).filter(|&i| !cp.spans[i].start.is_nan()) {
            let end = cp.spans[i].end;
            finish[i] = end;
            let r = resource_idx(plan.meta[i].resource);
            if single_server[r] {
                cursor[r] = fmax(cursor[r], end);
            }
        }
        let queued = cp.queues.iter().flatten().copied();
        let ready = cp
            .events
            .iter()
            .filter(|e| !e.is_finish())
            .map(|e| e.task());
        for t in queued.chain(ready) {
            let m = &plan.meta[t as usize];
            let r = resource_idx(m.resource);
            let f = cursor[r] + m.duration;
            if single_server[r] {
                cursor[r] = f;
            }
            finish[t as usize] = f;
        }
        let prefix_end = cursor;
        let mut pin = 0.0f64;
        for i in (0..=c).chain(block_end..n) {
            if finish[i].is_nan() {
                let m = &plan.meta[i];
                let r = resource_idx(m.resource);
                let preds = plan.preds(i);
                let forced = m.kind == TaskKind::Compute
                    || matches!(preds, [p] if plan.meta[*p as usize].kind == TaskKind::Compute);
                let mut start = if forced { cursor[r] } else { prefix_end[r] };
                for &p in preds {
                    debug_assert!(
                        (p as usize) <= c || (p as usize) >= block_end,
                        "a task outside the block depends on it"
                    );
                    debug_assert!(!finish[p as usize].is_nan(), "preds precede their task");
                    start = fmax(start, finish[p as usize]);
                }
                let f = start + m.duration;
                if forced && single_server[r] {
                    cursor[r] = f;
                }
                finish[i] = f;
            }
            pin = fmax(pin, finish[i]);
        }
        if let Some(entry) = self.checkpoints.borrow_mut().get_mut(&k) {
            entry.pin = Some(pin);
        }
        pin
    }

    /// Whether the pin at tensor `k` certifies that a trial differing
    /// from the base only there cannot beat `threshold`. DeltaSim never
    /// prices a fault plan, so the nominal durations the pin reads are
    /// the ones the trial runs with.
    fn pin_prunes(&self, k: u32, threshold: f64) -> bool {
        threshold.is_finite() && self.sim.job.model.forward_time + self.pin(k) >= threshold
    }

    /// The checkpoint pin at tensor `idx` as an iteration time: a lower
    /// bound, exact to the bit, on `F` of every trial that differs from
    /// the base only in tensor `idx`'s option.
    pub fn pin_bound(&self, idx: usize) -> f64 {
        self.sim.job.model.forward_time + self.pin(idx as u32)
    }

    /// Debug-build oracle: a pin-pruned trial (block ids `ids`, dirty
    /// only at tensor `k`), re-run in full, really sits at or above both
    /// the pin and `threshold`.
    #[cfg(debug_assertions)]
    fn check_pin_pruned(&self, ids: &[u32], k: u32, threshold: f64) {
        let mut plan = Plan::default();
        self.sim.cache.borrow().assemble(&self.sim.job, ids, &mut plan);
        let mut check = EvalScratch::default();
        run_plan(&plan, &self.sim.config, None, &mut check, None, None, None, None);
        let f = self.sim.job.model.forward_time + check.max_end;
        let pinned = self.pin_bound(k as usize);
        debug_assert!(
            pinned <= f && f >= threshold,
            "pin overclaimed at tensor {k}: F={f} < pin={pinned} or threshold={threshold}"
        );
    }

    /// The outcome counts of the trials this handle has seen.
    pub fn counts(&self) -> TrialCounts {
        self.counts.get()
    }

    fn tally(&self, bump: impl FnOnce(&mut TrialCounts)) {
        let mut counts = self.counts.get();
        bump(&mut counts);
        self.counts.set(counts);
    }

    /// Re-anchors the handle at `new_base` (whose `F` the caller already
    /// knows — typically the just-accepted trial), keeping every
    /// checkpoint at or before the first changed tensor. Greedy accept
    /// loops call this instead of building a fresh [`Simulator::delta`],
    /// which would re-simulate the base from scratch.
    pub fn rebase(&mut self, new_base: &Strategy, new_time: f64) {
        let mut cache = self.sim.cache.borrow_mut();
        cache.block_ids(&self.sim.job, &self.sim.config, new_base, None);
        let new_ids = cache.ids.clone();
        let new_sums = self.sim.strategy_sums(&cache, &new_ids);
        cache.memo.insert(new_ids.clone(), new_time);
        drop(cache);
        debug_assert_eq!(
            new_time.to_bits(),
            self.sim.iteration_time(new_base).to_bits(),
            "rebase time must be the exact F(new_base)"
        );
        if let Some(d) = new_ids
            .iter()
            .zip(&self.base_ids)
            .position(|(a, b)| a != b)
        {
            let mut checkpoints = self.checkpoints.borrow_mut();
            checkpoints.retain(|&k, _| k <= d as u32);
            // Every changed tensor sits at or after `d`, hence is
            // unstarted at every retained checkpoint: re-price their
            // remaining work by the base's resource-sum change (compute
            // times cancel, so the strategy-sum delta is exactly the
            // changed blocks' delta).
            for entry in checkpoints.values_mut() {
                for (rem, (new, old)) in entry
                    .remaining
                    .iter_mut()
                    .zip(new_sums.iter().zip(&self.base_sums))
                {
                    *rem += new - old;
                }
                entry.pin = None;
            }
            drop(checkpoints);
            // Re-anchor the cached base plan. The common accept is a
            // single-tensor swap — splice it; anything wider (offload
            // group moves) re-assembles.
            let changed: Vec<usize> = new_ids
                .iter()
                .zip(&self.base_ids)
                .enumerate()
                .filter(|(_, (a, b))| a != b)
                .map(|(i, _)| i)
                .collect();
            // A swap at the changed tensor is the same trial against
            // either base, and swapping it back is the old base; every
            // other entry priced a trial the new base no longer spans.
            let mut swap_memo = self.swap_memo.borrow_mut();
            match changed[..] {
                [idx] => {
                    swap_memo.retain(|&(i, _), _| i as usize == idx);
                    swap_memo.insert((idx as u32, self.base_ids[idx]), self.base_time);
                }
                _ => swap_memo.clear(),
            }
            drop(swap_memo);
            let cache = self.sim.cache.borrow();
            let mut base_plan = self.base_plan.borrow_mut();
            if let [idx] = changed[..] {
                let mut trial = self.trial_plan.borrow_mut();
                splice_swap(
                    &base_plan,
                    idx,
                    &cache.blocks[self.base_ids[idx] as usize],
                    &cache.blocks[new_ids[idx] as usize],
                    &mut trial,
                );
                std::mem::swap(&mut *base_plan, &mut *trial);
            } else {
                cache.assemble(&self.sim.job, &new_ids, &mut base_plan);
            }
            #[cfg(debug_assertions)]
            {
                let mut check = Plan::default();
                cache.assemble(&self.sim.job, &new_ids, &mut check);
                debug_assert!(
                    plans_identical(&check, &base_plan),
                    "rebased plan diverged from full assembly"
                );
            }
            drop(cache);
            // Refresh the base timeline for the resync early-exit:
            // resume the new base from the deepest retained checkpoint
            // (its prefix is unchanged) and replay only the suffix.
            let mut checkpoints = self.checkpoints.borrow_mut();
            let resume = checkpoints
                .range(..=d as u32)
                .next_back()
                .map(|(_, entry)| entry.cp.clone());
            let mut cache = self.sim.cache.borrow_mut();
            let SimCache { scratch, .. } = &mut *cache;
            run_plan(
                &base_plan,
                &self.sim.config,
                None,
                scratch,
                resume.as_deref(),
                None,
                None,
                None,
            );
            debug_assert_eq!(
                (self.sim.job.model.forward_time + scratch.max_end).to_bits(),
                new_time.to_bits(),
                "rebase replay must reproduce the accepted trial's F"
            );
            let mut base_spans = self.base_spans.borrow_mut();
            base_spans.clear();
            base_spans.extend_from_slice(&scratch.spans);
            for entry in checkpoints.values_mut() {
                entry.future_max = entry
                    .cp
                    .spans
                    .iter()
                    .zip(base_spans.iter())
                    .filter(|(s, _)| s.start.is_nan())
                    .map(|(_, full)| full.end)
                    .fold(0.0f64, f64::max);
            }
        }
        self.base_ids = new_ids;
        self.base_sums = new_sums;
        self.base_time = new_time;
    }

    /// Full-timeline simulation via suffix re-simulation — bitwise-equal
    /// to `Simulator::simulate(trial)` (the delta proptest asserts this,
    /// records and all).
    pub fn simulate(&self, trial: &Strategy) -> SimResult {
        let mut cache = self.sim.cache.borrow_mut();
        cache.block_ids(&self.sim.job, &self.sim.config, trial, None);
        let watermark = self.watermark(&cache.ids);
        let ids = std::mem::take(&mut cache.ids);
        drop(cache);
        let cp = watermark.map(|k| self.checkpoint(k));
        let mut cache = self.sim.cache.borrow_mut();
        let mut plan = std::mem::take(&mut cache.plan);
        cache.assemble(&self.sim.job, &ids, &mut plan);
        let SimCache { scratch, .. } = &mut *cache;
        run_plan(
            &plan,
            &self.sim.config,
            None,
            scratch,
            cp.as_deref(),
            None,
            None,
            None,
        );
        let result = finish_plan(&self.sim.job, &plan, &scratch.spans, &self.sim.config, None);
        cache.plan = plan;
        cache.ids = ids;
        result
    }
}

/// A self-contained, thread-safe candidate evaluation: an assembled plan
/// plus (optionally) the fault plan to price. Running it requires only a
/// per-worker [`EvalScratch`], so a batch of prepared evaluations can be
/// fanned out across threads and merged by index with bit-deterministic
/// results.
pub struct PreparedEval {
    plan: Plan,
    faults: Option<FaultPlan>,
    forward_time: f64,
    config: SimConfig,
}

impl PreparedEval {
    /// Evaluates `F(S)` — a pure function of the prepared state.
    pub fn run(&self, scratch: &mut EvalScratch) -> f64 {
        run_plan(
            &self.plan,
            &self.config,
            self.faults.as_ref(),
            scratch,
            None,
            None,
            None,
            None,
        );
        self.forward_time + scratch.max_end
    }
}

/// A snapshot of the event loop at the moment a designated compute task's
/// finish event is about to be processed. Every task index referenced by
/// the snapshot is at or before that compute task, so the snapshot is
/// valid for any plan sharing that prefix (see the module docs).
///
/// State is stored as plain arrays (the pending events sorted by key,
/// the FIFO queues in pop order) so restoring into an [`EvalScratch`] is
/// a handful of copies — no allocation at steady capacity.
#[derive(Debug, Clone)]
pub(crate) struct Checkpoint {
    /// Index of the compute task whose finish is pending; state indices
    /// `<= prefix_end` are valid, everything later is untouched.
    prefix_end: u32,
    /// The simulation clock at the snapshot (the pending finish's time).
    now: f64,
    /// Total duration per resource of tasks not yet started at the
    /// snapshot — all of which must run at or after `now`, giving the
    /// checkpoint-refined lower bound of [`DeltaSim`].
    remaining: [f64; 4],
    /// Max span end among tasks already started at the snapshot — seeds
    /// the resumed run's online makespan tracking.
    prefix_max: f64,
    /// Every pending event — the heap's finish events and the ready
    /// FIFO's entries alike — sorted by key, i.e. in the exact order the
    /// run would pop them. Sorted once here so the resync check and the
    /// restore read it without sorting.
    events: Vec<EventKey>,
    seq: u32,
    queues: [Vec<u32>; 4],
    busy: [usize; 4],
    spans: Vec<Span>,
    indegree: Vec<u32>,
}

/// Reusable evaluation buffers: indegrees, spans, pending events, and
/// FIFO queues. One per evaluating thread.
#[derive(Default)]
pub struct EvalScratch {
    indegree: Vec<u32>,
    /// Task spans of the last run (indexed like the plan's tasks).
    spans: Vec<Span>,
    /// Running max task end of the last run — the makespan on
    /// completion, maintained online so callers skip the O(n) fold.
    max_end: f64,
    /// Pending finish events.
    heap: BinaryHeap<Reverse<EventKey>>,
    /// Pending ready events, `ready[ready_head..]`. A task becomes ready
    /// at the current clock with the next sequence number; the clock
    /// never goes back and `seq` only grows, so these keys arrive in
    /// increasing order and a FIFO holds them sorted. The next event is
    /// the smaller of the heap top and the FIFO front; keys are unique,
    /// so the pop order is exactly that of one heap holding both.
    ready: Vec<EventKey>,
    ready_head: usize,
    queues: [VecDeque<u32>; 4],
    busy: [usize; 4],
    /// The resync check's sort buffer for the heap's events.
    sorted: Vec<EventKey>,
}

impl EvalScratch {
    /// The next event to pop, and whether it heads the ready FIFO.
    #[inline]
    fn peek_event(&self) -> Option<(EventKey, bool)> {
        let ready = self.ready.get(self.ready_head).copied();
        match (self.heap.peek(), ready) {
            (Some(&Reverse(h)), Some(r)) => Some(if r < h { (r, true) } else { (h, false) }),
            (Some(&Reverse(h)), None) => Some((h, false)),
            (None, Some(r)) => Some((r, true)),
            (None, None) => None,
        }
    }

    /// Removes the event [`EvalScratch::peek_event`] returned.
    #[inline]
    fn pop_event(&mut self, from_ready: bool) {
        if from_ready {
            self.ready_head += 1;
            // Drained: start over, so the FIFO's storage stays as small
            // as the most ready events ever pending at once.
            if self.ready_head == self.ready.len() {
                self.ready.clear();
                self.ready_head = 0;
            }
        } else {
            self.heap.pop();
        }
    }

    /// The number of pending events.
    fn pending(&self) -> usize {
        self.heap.len() + self.ready.len() - self.ready_head
    }
}

/// One pending event, packed into 16 bytes for single-compare ordering:
/// bits 64..128 are the event time's IEEE-754 bits (times are
/// non-negative and finite, where `total_cmp` coincides with unsigned bit
/// order), bits 32..64 the push sequence number — unique, so ties never
/// fall through to the payload — and bits 0..32 the payload
/// `task_index << 1 | is_finish`. A run pushes exactly one ready and one
/// finish event per task, so `seq < 2 * tasks`, which [`run_plan`] checks
/// fits in 32 bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct EventKey(u128);

impl EventKey {
    #[inline]
    fn new(time: f64, seq: u32, task: u32, finish: bool) -> Self {
        debug_assert!(
            time.is_finite() && !time.is_sign_negative(),
            "event time {time} breaks the bit-order trick"
        );
        Self(
            ((time.to_bits() as u128) << 64)
                | ((seq as u128) << 32)
                | ((task << 1) | finish as u32) as u128,
        )
    }

    #[inline]
    fn time(self) -> f64 {
        f64::from_bits((self.0 >> 64) as u64)
    }

    #[inline]
    fn task(self) -> u32 {
        self.0 as u32 >> 1
    }

    #[inline]
    fn is_finish(self) -> bool {
        self.0 & 1 == 1
    }
}

/// Core event loop over a compiled plan: assigns a start/end span to
/// every task, writing into `scratch.spans`.
///
/// With a fault plan, each task's service time is resolved at its start
/// time through [`FaultPlan::effective_duration_parts`] — the single
/// injection point, so queueing and dependency interactions downstream of
/// a perturbed task stay mechanically correct.
///
/// `resume` restores a [`Checkpoint`] instead of starting from `t = 0`;
/// `pause_at` stops the loop the moment the finish event of the given
/// task index is the next event to pop and returns the state as a
/// [`RunOutcome::Paused`] checkpoint; `resync` arms the single-swap
/// early-exit (see [`ResyncState`]), which may end the run with
/// [`RunOutcome::Resynced`] and the exact final makespan; `bound` arms
/// the mid-run certified abort (see [`BoundState`]), which may end it
/// with [`RunOutcome::Aborted`].
///
/// The argument list is the event loop's full mode matrix; bundling the
/// four optional controls into a struct would only move the noise to the
/// call sites.
#[allow(clippy::too_many_arguments)]
fn run_plan(
    plan: &Plan,
    config: &SimConfig,
    faults: Option<&FaultPlan>,
    scratch: &mut EvalScratch,
    resume: Option<&Checkpoint>,
    pause_at: Option<u32>,
    resync: Option<&ResyncState<'_>>,
    mut bound: Option<&mut BoundState>,
) -> RunOutcome {
    let n = plan.len();
    let cpu_slots = config.cpu_slots.max(1);
    let service = |task: usize, start: f64| -> f64 {
        let m = &plan.meta[task];
        match faults {
            None => m.duration,
            Some(fp) => fp.effective_duration_parts(
                m.kind,
                m.resource,
                m.duration,
                m.alpha_secs,
                task,
                start,
            ),
        }
    };

    debug_assert_eq!(
        plan.succ_off.len(),
        n + 1,
        "plan is missing its successor CSR (assemble/splice builds it)"
    );
    scratch.spans.clear();
    scratch.indegree.clear();
    // The heap's backing storage is recycled through the BinaryHeap <->
    // Vec round trip (both directions are allocation-free at capacity).
    let mut heap_vec = std::mem::take(&mut scratch.heap).into_vec();
    heap_vec.clear();
    scratch.ready.clear();
    scratch.ready_head = 0;
    for q in &mut scratch.queues {
        q.clear();
    }
    // Every task pushes one ready and one finish event, so the sequence
    // numbers stay below `2 * n` and the payload `task << 1` fits too.
    assert!(
        n < 1 << 31,
        "a plan of {n} tasks overflows the 32-bit event sequence"
    );
    let mut seq: u32;
    match resume {
        None => {
            scratch.spans.resize(
                n,
                Span {
                    start: f64::NAN,
                    end: f64::NAN,
                },
            );
            scratch
                .indegree
                .extend((0..n).map(|i| plan.pred_count(i)));
            scratch.busy = [0; 4];
            scratch.max_end = 0.0;
            seq = 0;
            // Roots (tasks with no predecessor) are ready at t = 0. Push
            // in index order so the first compute task heads the GPU
            // queue.
            for i in 0..n {
                if plan.pred_count(i) == 0 {
                    debug_assert!(matches!(plan.meta[i].resource, Resource::Gpu));
                    scratch.ready.push(EventKey::new(0.0, seq, i as u32, false));
                    seq += 1;
                }
            }
        }
        Some(cp) => {
            // The checkpoint's prefix state is valid verbatim: every task
            // it references shares its index, metadata, and predecessors
            // with this plan (the delta-watermark contract).
            let prefix = cp.prefix_end as usize;
            debug_assert!(prefix < n);
            scratch.spans.extend_from_slice(&cp.spans[..=prefix]);
            scratch.spans.resize(
                n,
                Span {
                    start: f64::NAN,
                    end: f64::NAN,
                },
            );
            scratch
                .indegree
                .extend_from_slice(&cp.indegree[..=prefix]);
            scratch
                .indegree
                .extend((prefix + 1..n).map(|i| plan.pred_count(i)));
            // The sorted events split back into a sorted ready FIFO and
            // an ascending heap array — already a valid heap layout.
            for &ev in &cp.events {
                if ev.is_finish() {
                    heap_vec.push(Reverse(ev));
                } else {
                    scratch.ready.push(ev);
                }
            }
            for (q, saved) in scratch.queues.iter_mut().zip(&cp.queues) {
                q.extend(saved.iter().copied());
            }
            scratch.busy = cp.busy;
            scratch.max_end = cp.prefix_max;
            seq = cp.seq;
        }
    }
    scratch.heap = BinaryHeap::from(heap_vec);

    debug_assert!(
        pause_at.is_none() || resync.is_none(),
        "pause and resync are mutually exclusive run modes"
    );
    debug_assert!(
        bound.is_none() || faults.is_none(),
        "the abort bound prices remaining work at nominal durations"
    );
    // Resync mode: the swapped block's trial tasks `[s, e_t)` not yet
    // finished. Each is pending — queued, ready or running — and maps to
    // no base task, so the state check cannot pass until none is left.
    // The run resumes at the swapped tensor's compute finish, before any
    // of them has started.
    let (block_start, block_len) = resync.map_or((0, 0), |rs| (rs.s, rs.e_t - rs.s));
    let mut block_unfinished = block_len;
    debug_assert!(
        (block_start..block_start + block_len).all(|t| scratch.spans[t as usize].start.is_nan()),
        "a resync run starts before the swapped block"
    );
    while let Some((ev, from_ready)) = scratch.peek_event() {
        if let Some(pause) = pause_at {
            if ev.is_finish() && ev.task() == pause {
                debug_assert!(
                    faults.is_none(),
                    "checkpoints price remaining work at nominal durations"
                );
                let mut remaining = [0.0f64; 4];
                let mut prefix_max = 0.0f64;
                for (m, s) in plan.meta.iter().zip(&scratch.spans) {
                    if s.start.is_nan() {
                        remaining[resource_idx(m.resource)] += m.duration;
                    } else {
                        prefix_max = prefix_max.max(s.end);
                    }
                }
                let mut events: Vec<EventKey> = scratch.heap.iter().map(|r| r.0).collect();
                events.extend_from_slice(&scratch.ready[scratch.ready_head..]);
                events.sort_unstable();
                return RunOutcome::Paused(Checkpoint {
                    prefix_end: pause,
                    now: ev.time(),
                    remaining,
                    prefix_max,
                    events,
                    seq,
                    queues: std::array::from_fn(|ri| {
                        scratch.queues[ri].iter().copied().collect()
                    }),
                    busy: scratch.busy,
                    spans: scratch.spans.clone(),
                    indegree: scratch.indegree.clone(),
                });
            }
        } else if let Some(rs) = resync {
            // Debug builds run the state check with block tasks still
            // unfinished too, as the oracle that it fails there.
            if ev.is_finish() && (block_unfinished == 0 || cfg!(debug_assertions)) {
                let m = &plan.meta[ev.task() as usize];
                if m.kind == TaskKind::Compute && m.tensor > rs.idx {
                    if let Some(entry) = rs.checkpoints.get(&m.tensor) {
                        if entry.cp.now.to_bits() == ev.time().to_bits()
                            && rs.states_match(scratch, &entry.cp)
                        {
                            debug_assert_eq!(
                                block_unfinished, 0,
                                "states matched with swapped-block tasks unfinished"
                            );
                            return RunOutcome::Resynced(scratch.max_end.max(entry.future_max));
                        }
                    }
                }
            }
        }
        scratch.pop_event(from_ready);
        let now = ev.time();
        let i = ev.task();
        let ri = resource_idx(plan.meta[i as usize].resource);
        if ev.is_finish() {
            debug_assert!(scratch.busy[ri] > 0, "releasing an idle resource");
            scratch.busy[ri] -= 1;
            if i.wrapping_sub(block_start) < block_len {
                block_unfinished -= 1;
            }
            for &su in plan.succs(i as usize) {
                let s = su as usize;
                scratch.indegree[s] -= 1;
                if scratch.indegree[s] == 0 {
                    scratch.ready.push(EventKey::new(now, seq, su, false));
                    seq += 1;
                }
            }
        } else {
            scratch.queues[ri].push_back(i);
        }
        let cap = if ri == 1 { cpu_slots } else { 1 };
        if scratch.busy[ri] < cap {
            if let Some(task) = scratch.queues[ri].pop_front() {
                scratch.busy[ri] += 1;
                let start = now;
                let end = start + service(task as usize, start);
                scratch.spans[task as usize] = Span { start, end };
                scratch.max_end = fmax(scratch.max_end, end);
                scratch
                    .heap
                    .push(Reverse(EventKey::new(end, seq, task, true)));
                seq += 1;
                if let Some(b) = bound.as_deref_mut() {
                    b.rem[ri] -= plan.meta[task as usize].duration;
                    if end > b.busy_until[ri] {
                        b.busy_until[ri] = end;
                    }
                    b.refresh();
                }
            }
        }
        if let Some(b) = bound.as_deref() {
            if b.reached(now) {
                return RunOutcome::Aborted;
            }
        }
    }
    debug_assert!(
        scratch.spans.iter().all(|s| s.start.is_finite()),
        "unscheduled tasks remain (dependency cycle?)"
    );
    RunOutcome::Done
}


#[cfg(test)]
mod tests {
    use super::*;
    use espresso_cluster::{CommPattern, Cluster};
    use espresso_gc::GcAlgorithm;
    use espresso_models::Model;
    use espresso_strategy::OptionSpace;

    fn job() -> Job {
        Job::new(
            Model::Lstm.profile(),
            Cluster::nvlink_100g(8, 8),
            GcAlgorithm::dgc_1pct(),
        )
    }

    #[test]
    fn fp32_iteration_exceeds_compute_time() {
        let j = job();
        let s = Strategy::uncompressed(j.num_tensors(), CommPattern::Hierarchical, &j.cluster);
        let r = simulate(&j, &s, &SimConfig::default());
        assert!(r.iteration_time > j.model.single_gpu_iter_time());
        assert!(r.iteration_time.is_finite());
    }

    #[test]
    fn simulation_is_deterministic() {
        let j = job();
        let s = Strategy::uncompressed(j.num_tensors(), CommPattern::Hierarchical, &j.cluster);
        let a = simulate(&j, &s, &SimConfig::default());
        let b = simulate(&j, &s, &SimConfig::default());
        assert_eq!(a.iteration_time, b.iteration_time);
        assert_eq!(a.tasks.len(), b.tasks.len());
    }

    #[test]
    fn channels_never_overlap_two_collectives() {
        let j = job();
        let space = OptionSpace::enumerate(&j.cluster);
        let s = Strategy::uniform(j.num_tensors(), space.gpu_compressed()[0].clone());
        let r = simulate(&j, &s, &SimConfig::default());
        for res in [Resource::InterChannel, Resource::IntraChannel, Resource::Gpu] {
            let mut spans: Vec<Span> = r
                .tasks
                .iter()
                .filter(|t| t.resource == res)
                .map(|t| t.span)
                .collect();
            spans.sort_by(|a, b| a.start.total_cmp(&b.start));
            for w in spans.windows(2) {
                assert!(
                    w[1].start >= w[0].end - 1e-12,
                    "{res:?} overlap: {:?} then {:?}",
                    w[0],
                    w[1]
                );
            }
        }
    }

    #[test]
    fn tensor_chains_are_ordered() {
        let j = job();
        let space = OptionSpace::enumerate(&j.cluster);
        let s = Strategy::uniform(j.num_tensors(), space.gpu_compressed()[3].clone());
        let r = simulate(&j, &s, &SimConfig::default());
        for tensor in 0..j.num_tensors() {
            let chain: Vec<&TaskRecord> =
                r.tasks.iter().filter(|t| t.tensor == tensor).collect();
            for w in chain.windows(2) {
                assert!(w[1].span.start >= w[0].span.end - 1e-12);
            }
        }
    }

    #[test]
    fn upper_bound_is_at_least_as_fast() {
        let j = job();
        let space = OptionSpace::enumerate(&j.cluster);
        let s = Strategy::uniform(j.num_tensors(), space.gpu_compressed()[0].clone());
        let real = simulate(&j, &s, &SimConfig::default());
        let ub = simulate(&j, &s, &SimConfig::upper_bound());
        assert!(ub.iteration_time <= real.iteration_time + 1e-12);
    }

    #[test]
    fn compression_contends_with_compute_on_gpu() {
        // GPU compression must delay the backward pass: the makespan of
        // compute tasks grows versus the uncompressed run.
        let j = job();
        let space = OptionSpace::enumerate(&j.cluster);
        let plain = Strategy::uncompressed(j.num_tensors(), CommPattern::Hierarchical, &j.cluster);
        let gpu_opt = space.gpu_compressed()[0].clone();
        let compressed = Strategy::uniform(j.num_tensors(), gpu_opt);
        let r_plain = simulate(&j, &plain, &SimConfig::default());
        let r_comp = simulate(&j, &compressed, &SimConfig::default());
        let compute_end = |r: &SimResult| {
            r.tasks
                .iter()
                .filter(|t| t.kind == crate::task::TaskKind::Compute)
                .map(|t| t.span.end)
                .fold(0.0f64, f64::max)
        };
        assert!(compute_end(&r_comp) > compute_end(&r_plain));
    }

    #[test]
    fn per_tensor_ratio_plan_changes_iteration_time() {
        let j = job();
        let n = j.num_tensors();
        let space = OptionSpace::enumerate(&j.cluster);
        let s = Strategy::uniform(n, space.gpu_compressed()[0].clone());
        let sim = Simulator::new(j, SimConfig::default());
        let default_t = sim.iteration_time(&s);
        // Aggressive everywhere: smaller wire size, faster sync.
        let tight = vec![GcAlgorithm::Dgc { density: 0.001 }; n];
        let tight_t = sim.iteration_time_with_algos(&s, &tight);
        assert!(tight_t < default_t, "tight={tight_t} default={default_t}");
        // The default plan matches the no-plan path exactly.
        let explicit = vec![GcAlgorithm::dgc_1pct(); n];
        assert_eq!(sim.iteration_time_with_algos(&s, &explicit), default_t);
    }

    #[test]
    fn installed_ratio_plan_matches_per_call_override() {
        let base = job();
        let n = base.num_tensors();
        let space = OptionSpace::enumerate(&base.cluster);
        let s = Strategy::uniform(n, space.gpu_compressed()[0].clone());
        let plan: Vec<GcAlgorithm> = (0..n)
            .map(|i| GcAlgorithm::Dgc {
                density: if i % 2 == 0 { 0.005 } else { 0.05 },
            })
            .collect();
        let sim = Simulator::new(base.clone(), SimConfig::default());
        let by_call = sim.iteration_time_with_algos(&s, &plan);
        let sim2 = Simulator::new(base.with_tensor_algos(plan), SimConfig::default());
        assert_eq!(sim2.iteration_time(&s), by_call);
    }

    #[test]
    fn cpu_compression_does_not_delay_compute() {
        let j = job();
        let space = OptionSpace::enumerate(&j.cluster);
        let cpu_opt = space
            .compressed()
            .iter()
            .find(|o| !o.gpu_only())
            .unwrap()
            .with_device(espresso_gc::Device::Cpu);
        let plain = Strategy::uncompressed(j.num_tensors(), CommPattern::Hierarchical, &j.cluster);
        let compressed = Strategy::uniform(j.num_tensors(), cpu_opt);
        let compute_end = |r: &SimResult| {
            r.tasks
                .iter()
                .filter(|t| t.kind == crate::task::TaskKind::Compute)
                .map(|t| t.span.end)
                .fold(0.0f64, f64::max)
        };
        let r_plain = simulate(&j, &plain, &SimConfig::default());
        let r_comp = simulate(&j, &compressed, &SimConfig::default());
        assert!((compute_end(&r_comp) - compute_end(&r_plain)).abs() < 1e-9);
    }

    #[test]
    fn cached_simulator_matches_free_function() {
        let j = job();
        let space = OptionSpace::enumerate(&j.cluster);
        let sim = Simulator::new(j.clone(), SimConfig::default());
        for opt in space.all().iter().take(12) {
            let s = Strategy::uniform(j.num_tensors(), opt.clone());
            let free = simulate(&j, &s, &SimConfig::default());
            assert_eq!(sim.iteration_time(&s), free.iteration_time);
            let cached = sim.simulate(&s);
            assert_eq!(cached.makespan, free.makespan);
            assert_eq!(cached.tasks.len(), free.tasks.len());
            for (a, b) in cached.tasks.iter().zip(&free.tasks) {
                assert_eq!(a, b);
            }
        }
    }

    #[test]
    fn delta_single_tensor_swap_matches_from_scratch() {
        let j = job();
        let n = j.num_tensors();
        let space = OptionSpace::enumerate(&j.cluster);
        let sim = Simulator::new(j.clone(), SimConfig::default());
        let base = Strategy::uncompressed(n, CommPattern::Hierarchical, &j.cluster);
        let delta = sim.delta(&base);
        assert_eq!(delta.base_time(), sim.iteration_time(&base));
        for idx in [0, n / 2, n - 1] {
            for opt in space.gpu_compressed().iter().take(4) {
                let mut trial = base.clone();
                trial.set_option(idx, opt.clone());
                let fast = delta.iteration_time(&trial);
                let slow = sim.iteration_time(&trial);
                assert_eq!(fast.to_bits(), slow.to_bits(), "tensor {idx}");
                // The full delta-simulated timeline is record-for-record
                // identical too.
                let fr = delta.simulate(&trial);
                let sr = sim.simulate(&trial);
                assert_eq!(fr.tasks.len(), sr.tasks.len());
                for (a, b) in fr.tasks.iter().zip(&sr.tasks) {
                    assert_eq!(a, b);
                }
            }
        }
    }

    #[test]
    fn delta_identical_trial_returns_base_time() {
        let j = job();
        let base = Strategy::uncompressed(
            j.num_tensors(),
            CommPattern::Hierarchical,
            &j.cluster,
        );
        let sim = Simulator::new(j, SimConfig::default());
        let delta = sim.delta(&base);
        assert_eq!(
            delta.iteration_time(&base.clone()).to_bits(),
            delta.base_time().to_bits()
        );
    }

    #[test]
    fn prepared_eval_matches_direct_evaluation() {
        let j = job();
        let space = OptionSpace::enumerate(&j.cluster);
        let sim = Simulator::new(j.clone(), SimConfig::default());
        let s = Strategy::uniform(j.num_tensors(), space.gpu_compressed()[0].clone());
        let prepared = sim.prepare(&s);
        let mut scratch = EvalScratch::default();
        assert_eq!(
            prepared.run(&mut scratch).to_bits(),
            sim.iteration_time(&s).to_bits()
        );
    }
}
