//! The fleet control plane: a durable job table, streaming health
//! deltas, and crash-safe re-planning.
//!
//! One decision server can plan for one request at a time; a *fleet*
//! controller owns the standing state of many training jobs — each bound
//! to a named cluster — and keeps every job's strategy current as cluster
//! health changes underneath it:
//!
//! * **Job table** — sharded by job id. Each entry holds the job's spec
//!   (its [`DecisionRequest`] plus cluster binding and re-plan priority),
//!   and the decision last committed for it, stamped with the cluster
//!   epoch it was computed against.
//! * **Health deltas** — `POST /fleet/health` streams epoch-stamped
//!   [`ClusterHealth`] observations per cluster, absorbed into an
//!   [`Membership`] whose epoch only moves forward (duplicates and
//!   reordered deltas are ignored, see `apply_health_delta`). A delta
//!   that applies invalidates exactly the jobs bound to that cluster —
//!   they are queued for re-planning by priority; jobs on other clusters
//!   are untouched. Deltas may also carry `lost` and `rejoined` rank
//!   lists (see `apply_membership_delta`): a re-join grows the bound
//!   cluster back and releases its parked dead letters for one fresh
//!   push each.
//! * **Crash safety** — every state change (register, health delta,
//!   decision commit) is appended to a checksummed write-ahead journal
//!   *before* it is acknowledged, and the full table is periodically
//!   snapshotted through the two-generation [`SnapshotStore`]. Recovery
//!   loads the newest intact snapshot and replays the journal suffix;
//!   because decisions are pure functions of (request, health), a
//!   controller killed at any byte offset recovers a table whose
//!   subsequent decisions are byte-identical to an uninterrupted run's
//!   (see `crates/serve/tests/fleet_recovery.rs`).
//! * **Overload** — the re-plan queue sheds its lowest-priority entry
//!   above a watermark. A shed job is not an error: its previous decision
//!   keeps being served, epoch-stamped and marked `"stale": true`, so
//!   clients always get an answer and can see exactly how old it is.
//! * **Delivery** — jobs may register a `notify` endpoint; committed
//!   decisions are pushed with bounded retry + exponential backoff and
//!   parked in a dead-letter queue when the subscriber stays down.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use espresso::service::DecisionRequest;
use espresso::{EspressoError, Planner, WarmStartCache};
use espresso_cluster::{ClusterHealth, Membership};
use espresso_json::{enums, DecodeError, FromJson, Json, ToJson};

use crate::cache::fnv1a64;
use crate::client::ConnectionPool;
use crate::journal::{Journal, SnapshotStore};
use crate::metrics::Histogram;
use crate::retry::{deliver_with_pool, DeadLetter, RetryPolicy};

/// Fleet controller tuning knobs.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Durability directory: journal + snapshot generations.
    pub dir: PathBuf,
    /// Job-table shard count.
    pub shards: usize,
    /// Planner threads draining the re-plan queue. Zero disables the
    /// background planners — callers drive planning with
    /// [`FleetController::run_pending`] (tests, deterministic gates).
    pub replan_workers: usize,
    /// Re-plan queue watermark: above this many pending jobs, the
    /// lowest-priority pending re-plan is shed (its job keeps serving its
    /// previous decision, marked stale).
    pub queue_watermark: usize,
    /// Journal records between snapshots.
    pub snapshot_every: u64,
    /// Capacity of the planner's selection memo, in selections.
    pub plan_cache_entries: usize,
    /// Group queued re-plans by canonical `(spec, effective-health)` key
    /// and run `decide()` once per group, fanning the epoch-stamped body
    /// out to every member — byte-identical to per-job planning, decisions
    /// being pure functions of the grouped key. Disable to force one
    /// planner run per job (the bench's comparison baseline).
    pub batch_replans: bool,
    /// Delivery retry schedule for `notify` pushes.
    pub retry: RetryPolicy,
}

impl Default for FleetConfig {
    fn default() -> Self {
        Self {
            dir: PathBuf::from("fleet-state"),
            shards: 8,
            replan_workers: 2,
            queue_watermark: 4096,
            snapshot_every: 256,
            plan_cache_entries: 1024,
            batch_replans: true,
            retry: RetryPolicy::default(),
        }
    }
}

/// Everything that can go wrong in the fleet layer.
#[derive(Debug)]
pub enum FleetError {
    /// Journal or snapshot I/O failure.
    Io(std::io::Error),
    /// A journal record or snapshot decoded but is not a valid fleet
    /// document — version skew or corruption past the checksums.
    Corrupt {
        /// What failed to decode, and why.
        message: String,
    },
    /// A job spec that cannot be planned (bad model, bad cluster, ...).
    Request(EspressoError),
}

impl std::fmt::Display for FleetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FleetError::Io(e) => write!(f, "fleet I/O error: {e}"),
            FleetError::Corrupt { message } => write!(f, "corrupt fleet state: {message}"),
            FleetError::Request(e) => write!(f, "invalid job spec: {e}"),
        }
    }
}

impl std::error::Error for FleetError {}

impl From<std::io::Error> for FleetError {
    fn from(e: std::io::Error) -> Self {
        FleetError::Io(e)
    }
}

impl From<crate::journal::SnapshotError> for FleetError {
    fn from(e: crate::journal::SnapshotError) -> Self {
        match e {
            crate::journal::SnapshotError::Io(e) => FleetError::Io(e),
            crate::journal::SnapshotError::Corrupt { message } => FleetError::Corrupt { message },
        }
    }
}

/// One job's standing registration.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// Unique job id.
    pub id: String,
    /// Named cluster this job runs on; health deltas for that cluster
    /// invalidate this job's decision.
    pub cluster: String,
    /// Re-plan priority; `0` derives the default from gradient traffic
    /// (see `espresso::robust::replan_priority`). Higher wins under
    /// overload.
    pub priority: u64,
    /// Optional subscriber endpoint (`host:port`): committed decisions
    /// are POSTed to `/decision` there, with retry + dead-lettering.
    pub notify: Option<String>,
    /// The decision request to keep planned. Its `health` section is
    /// overwritten by the bound cluster's current health at plan time.
    pub request: DecisionRequest,
}

impl ToJson for JobSpec {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("id", self.id.to_json()),
            ("cluster", self.cluster.to_json()),
            ("priority", self.priority.to_json()),
            ("notify", self.notify.to_json()),
            ("request", self.request.to_json()),
        ])
    }
}

impl FromJson for JobSpec {
    fn from_json(v: &Json) -> Result<Self, DecodeError> {
        Ok(Self {
            id: v.req("id")?,
            cluster: v.req("cluster")?,
            priority: v.opt("priority")?.unwrap_or(0),
            notify: v.opt("notify")?,
            request: v.req("request")?,
        })
    }
}

/// One epoch-stamped health observation for a named cluster.
#[derive(Debug, Clone)]
pub struct HealthDelta {
    /// Cluster the observation is about.
    pub cluster: String,
    /// The observation's epoch stamp. Must be strictly newer than the
    /// cluster's current epoch to apply; epoch 0 is the nominal genesis
    /// state and never applies.
    pub epoch: u64,
    /// Worker count, used only when this delta first creates the cluster.
    pub workers: Option<usize>,
    /// The observed health.
    pub health: ClusterHealth,
    /// Ranks newly observed lost, shrinking the bound cluster.
    pub lost: Vec<usize>,
    /// Ranks newly observed re-joined, growing the bound cluster back
    /// (and releasing that cluster's parked dead letters for one requeue,
    /// see [`FleetController::apply_health`]).
    pub rejoined: Vec<usize>,
}

impl ToJson for HealthDelta {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("cluster", self.cluster.to_json()),
            ("epoch", self.epoch.to_json()),
            ("workers", self.workers.to_json()),
            ("health", self.health.to_json()),
            ("lost", self.lost.to_json()),
            ("rejoined", self.rejoined.to_json()),
        ])
    }
}

impl FromJson for HealthDelta {
    fn from_json(v: &Json) -> Result<Self, DecodeError> {
        Ok(Self {
            cluster: v.req("cluster")?,
            epoch: v.req("epoch")?,
            workers: v.opt("workers")?,
            health: v.opt("health")?.unwrap_or_default(),
            lost: v.opt("lost")?.unwrap_or_default(),
            rejoined: v.opt("rejoined")?.unwrap_or_default(),
        })
    }
}

/// Outcome of a register call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegisterOutcome {
    /// The resolved re-plan priority.
    pub priority: u64,
    /// True when an identical registration already existed (idempotent
    /// no-op: nothing journaled, the existing decision kept).
    pub already_registered: bool,
}

/// Outcome of a health-delta call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HealthOutcome {
    /// Whether the delta applied (strictly newer epoch).
    pub applied: bool,
    /// The cluster's epoch after the call.
    pub epoch: u64,
    /// Jobs queued for re-planning by this delta.
    pub jobs_invalidated: usize,
    /// Parked dead letters released for re-delivery by this delta's
    /// re-joins (always 0 for a delta without `rejoined` ranks).
    pub dead_letters_requeued: usize,
}

/// A committed decision: the body and the cluster epoch it was computed
/// against.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Committed {
    epoch: u64,
    body: String,
}

#[derive(Debug, Clone)]
struct JobEntry {
    spec: JobSpec,
    priority: u64,
    decision: Option<Committed>,
    /// Derived, never serialized: the spec group (see [`SpecGroup`]),
    /// recomputed wherever an entry is built.
    spec_group: SpecGroup,
}

impl JobEntry {
    fn new(spec: JobSpec, priority: u64, decision: Option<Committed>) -> Self {
        let spec_group = SpecGroup::of(&spec.request);
        Self {
            spec,
            priority,
            decision,
            spec_group,
        }
    }
}

/// The spec group of a job: its request in canonical JSON with the
/// `health` section normalized to nominal, and that text's FNV-1a 64. The
/// canonical re-encoding puts reordered or defaulted-but-equal specs in
/// one group; the health normalization reflects that plan time overwrites
/// `request.health` with the bound cluster's state, so whatever health
/// the registration happened to carry is not part of the question being
/// planned. Everything semantic — model, GC algorithm, per-tensor ratio
/// plans, system shape, fault spec, the robust flag — stays in the text
/// and splits the group.
///
/// Equality compares the fingerprint first, as the cheap test, and then
/// the full text, so two specs whose fingerprints collide stay two groups
/// and never share a decision body. The text is shared, so the copy every
/// queued re-plan carries costs a reference count.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct SpecGroup {
    fingerprint: u64,
    text: Arc<str>,
}

impl SpecGroup {
    fn of(request: &DecisionRequest) -> Self {
        let mut normalized = request.clone();
        normalized.health = ClusterHealth::nominal();
        let text = normalized.canonical_key();
        Self {
            fingerprint: fnv1a64(text.as_bytes()),
            text: text.into(),
        }
    }
}

/// The journaled state transitions. Every mutation of the job table or
/// the cluster map is one of these, appended before it is acknowledged.
#[derive(Debug, Clone)]
enum FleetEvent {
    /// A job (re-)registration, with its priority already resolved so
    /// replay never re-derives it.
    Register { spec: Box<JobSpec>, priority: u64 },
    /// An applied membership/health delta.
    Health {
        cluster: String,
        epoch: u64,
        workers: usize,
        health: ClusterHealth,
        lost: Vec<usize>,
        rejoined: Vec<usize>,
    },
    /// A committed decision for one job.
    Commit {
        job: String,
        epoch: u64,
        body: String,
    },
}

impl ToJson for FleetEvent {
    fn to_json(&self) -> Json {
        match self {
            FleetEvent::Register { spec, priority } => enums::tagged(
                "Register",
                Json::obj(vec![
                    ("spec", spec.to_json()),
                    ("priority", priority.to_json()),
                ]),
            ),
            FleetEvent::Health {
                cluster,
                epoch,
                workers,
                health,
                lost,
                rejoined,
            } => enums::tagged(
                "Health",
                Json::obj(vec![
                    ("cluster", cluster.to_json()),
                    ("epoch", epoch.to_json()),
                    ("workers", workers.to_json()),
                    ("health", health.to_json()),
                    ("lost", lost.to_json()),
                    ("rejoined", rejoined.to_json()),
                ]),
            ),
            FleetEvent::Commit { job, epoch, body } => enums::tagged(
                "Commit",
                Json::obj(vec![
                    ("job", job.to_json()),
                    ("epoch", epoch.to_json()),
                    ("body", body.to_json()),
                ]),
            ),
        }
    }
}

impl FromJson for FleetEvent {
    fn from_json(v: &Json) -> Result<Self, DecodeError> {
        let (name, payload) = enums::variant(v)?;
        match name {
            "Register" => Ok(FleetEvent::Register {
                spec: Box::new(payload.req("spec")?),
                priority: payload.req("priority")?,
            }),
            "Health" => Ok(FleetEvent::Health {
                cluster: payload.req("cluster")?,
                epoch: payload.req("epoch")?,
                workers: payload.req("workers")?,
                health: payload.req("health")?,
                // Absent in journals written before elastic membership:
                // a plain health delta moved no ranks.
                lost: payload.opt("lost")?.unwrap_or_default(),
                rejoined: payload.opt("rejoined")?.unwrap_or_default(),
            }),
            "Commit" => Ok(FleetEvent::Commit {
                job: payload.req("job")?,
                epoch: payload.req("epoch")?,
                body: payload.req("body")?,
            }),
            other => Err(enums::unknown(other, &["Register", "Health", "Commit"])),
        }
    }
}

/// Fleet counters, exported through `/metrics` as `fleet_*` keys.
#[derive(Debug, Default)]
pub struct FleetStats {
    /// Register calls that journaled a (new or changed) registration.
    pub jobs_registered: AtomicU64,
    /// Health deltas that applied (strictly newer epoch).
    pub health_deltas_applied: AtomicU64,
    /// Health deltas ignored as duplicates or reorderings.
    pub health_deltas_ignored: AtomicU64,
    /// Decisions committed (journaled + installed).
    pub replans_committed: AtomicU64,
    /// Re-plans shed at the queue watermark.
    pub replans_shed: AtomicU64,
    /// Re-plans whose planner errored (previous decision kept, stale).
    pub replan_errors: AtomicU64,
    /// Decision serves whose epoch matched the cluster epoch.
    pub fresh_served: AtomicU64,
    /// Decision serves marked `"stale": true`.
    pub stale_served: AtomicU64,
    /// Notify pushes delivered (any attempt).
    pub pushes_delivered: AtomicU64,
    /// Notify push attempts beyond the first.
    pub push_retries: AtomicU64,
    /// Deliveries parked after exhausting retries.
    pub dead_letters: AtomicU64,
    /// Parked deliveries released for a fresh push by a cluster re-join.
    pub dead_letters_requeued: AtomicU64,
    /// Snapshots taken.
    pub snapshots_taken: AtomicU64,
}

struct Control {
    journal: Journal,
    store: SnapshotStore,
    clusters: HashMap<String, Membership>,
    seq: u64,
    prev_snapshot_seq: u64,
    records_since_snapshot: u64,
}

/// The plan basis captured when a re-plan is enqueued: everything that
/// determines the decision bytes. Entries with equal bases are one
/// planning question asked N times — the batch planner answers it once.
///
/// Planning against the *captured* basis (rather than re-reading health
/// at plan time, as the per-job path used to) converges identically:
/// every applied delta re-enqueues all bound jobs with the latest basis
/// (coalescing keeps the newest epoch), and the epoch install gate orders
/// commits, so the table always ends at the newest epoch's bytes.
#[derive(Debug, Clone)]
struct ReplanBasis {
    /// Spec group of the job's request.
    spec_group: SpecGroup,
    /// Bound cluster. Splits groups even at equal health: the binding is
    /// a semantic difference (its future deltas diverge), and keeping it
    /// in the key means every member shares one epoch stamp.
    cluster: String,
    /// Cluster health to plan under.
    health: ClusterHealth,
    /// Canonical-JSON fingerprint of `health` — the cheap first test of
    /// the group compare, which then compares `health` itself.
    health_fp: u64,
    /// Cluster epoch the health was observed at; the commit stamp.
    epoch: u64,
}

impl ReplanBasis {
    fn new(spec_group: SpecGroup, cluster: &str, health: ClusterHealth, epoch: u64) -> Self {
        let health_fp = fnv1a64(health.to_json().canonical().render().as_bytes());
        Self {
            spec_group,
            cluster: cluster.to_string(),
            health,
            health_fp,
            epoch,
        }
    }

    /// Whether two bases are the same planning question: fingerprints
    /// first, then the values they stand for.
    fn same_group(&self, other: &ReplanBasis) -> bool {
        self.epoch == other.epoch
            && self.health_fp == other.health_fp
            && self.spec_group == other.spec_group
            && self.health == other.health
            && self.cluster == other.cluster
    }
}

#[derive(Debug, Clone)]
struct PendingReplan {
    priority: u64,
    /// Earliest causal health-delta instant (delta→decision latency).
    observed: Option<Instant>,
    basis: ReplanBasis,
}

/// One popped unit of planner work: every member shares `basis`, so one
/// `decide()` serves them all.
#[derive(Debug)]
struct ReplanBatch {
    /// Members as `(job id, causal instant)`, head first, tail sorted by
    /// id for a stable journal order.
    jobs: Vec<(String, Option<Instant>)>,
    basis: ReplanBasis,
}

#[derive(Debug, Default)]
struct ReplanState {
    pending: HashMap<String, PendingReplan>,
    in_flight: usize,
    closed: bool,
}

struct FleetInner {
    config: FleetConfig,
    control: Mutex<Control>,
    shards: Vec<Mutex<HashMap<String, JobEntry>>>,
    queue: Mutex<ReplanState>,
    queue_cond: Condvar,
    /// The planner every planner worker decides through. Its memo holds
    /// selection artifacts, reusable across healths and near-identical
    /// requests (see `espresso::warm`).
    planner: Planner,
    /// Keep-alive connections for decision pushes and dead-letter
    /// re-pushes, pooled per subscriber endpoint.
    push_pool: ConnectionPool,
    stats: FleetStats,
    delta_to_decision: Mutex<Histogram>,
    staleness_epochs: Mutex<Histogram>,
    replan_batch_size: Mutex<Histogram>,
    dead_letters: Mutex<Vec<DeadLetter>>,
    shutdown: AtomicBool,
}

/// The fleet controller: construct with [`FleetController::open`] (which
/// recovers from the durability directory), drop (or call
/// [`FleetController::shutdown`]) to stop the planner threads.
pub struct FleetController {
    inner: Arc<FleetInner>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl std::fmt::Debug for FleetController {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FleetController")
            .field("dir", &self.inner.config.dir)
            .field("shards", &self.inner.config.shards)
            .finish_non_exhaustive()
    }
}

fn lock<'a, T>(m: &'a Mutex<T>) -> MutexGuard<'a, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

impl FleetController {
    /// Opens (recovering if state exists) a fleet controller rooted at
    /// `config.dir` and starts its planner threads.
    ///
    /// Recovery: load the newest intact snapshot generation (falling back
    /// to the previous one when the current is torn or corrupt — and
    /// promoting it back to current so the good generation is never
    /// rotated away), then replay the journal suffix. Jobs recovered with
    /// a missing or stale decision are queued for re-planning, so work
    /// lost in the crash is recomputed — byte-identically, decisions
    /// being pure.
    ///
    /// # Errors
    ///
    /// [`FleetError::Io`] for filesystem failures; [`FleetError::Corrupt`]
    /// when both snapshot generations exist but neither verifies, or a
    /// checksummed record decodes to an invalid document.
    pub fn open(config: FleetConfig) -> Result<FleetController, FleetError> {
        let store = SnapshotStore::new(&config.dir)?;
        let shard_count = config.shards.max(1);
        let mut shards: Vec<HashMap<String, JobEntry>> =
            (0..shard_count).map(|_| HashMap::new()).collect();
        let mut clusters: HashMap<String, Membership> = HashMap::new();
        let mut seq = 0u64;

        if let Some((payload, _)) = store.load()? {
            seq = decode_state(&payload, shard_count, &mut shards, &mut clusters)?;
        }
        // The previous generation's seq bounds journal pruning: records
        // newer than it must survive so the fallback generation stays
        // replayable. When there is no intact previous generation (a
        // fallback load promoted it to current) its records are
        // unreachable anyway — prune up to the loaded seq.
        let prev_snapshot_seq = store
            .load_prev()
            .map_or(seq, |payload| state_seq(&payload).unwrap_or(0));

        let (journal, records) = Journal::open(config.dir.join("journal.log"))?;
        for record in records {
            if record.seq <= seq {
                continue; // Already folded into the snapshot.
            }
            let text = std::str::from_utf8(&record.payload).map_err(|_| FleetError::Corrupt {
                message: format!("journal record {} is not UTF-8", record.seq),
            })?;
            let event: FleetEvent = Json::decode(text).map_err(|e| FleetError::Corrupt {
                message: format!("journal record {}: {e}", record.seq),
            })?;
            apply_event(&mut shards, &mut clusters, shard_count, event);
            seq = record.seq;
        }

        let inner = Arc::new(FleetInner {
            planner: Planner::with_memo(WarmStartCache::new(config.plan_cache_entries.max(2), 4)),
            push_pool: ConnectionPool::new(2),
            control: Mutex::new(Control {
                journal,
                store,
                clusters,
                seq,
                prev_snapshot_seq,
                records_since_snapshot: 0,
            }),
            shards: shards.into_iter().map(Mutex::new).collect(),
            queue: Mutex::new(ReplanState::default()),
            queue_cond: Condvar::new(),
            stats: FleetStats::default(),
            delta_to_decision: Mutex::new(Histogram::default()),
            staleness_epochs: Mutex::new(Histogram::default()),
            replan_batch_size: Mutex::new(Histogram::default()),
            dead_letters: Mutex::new(Vec::new()),
            shutdown: AtomicBool::new(false),
            config,
        });

        // Re-plan whatever the crash left unplanned or stale.
        for (id, priority, basis) in inner.jobs_needing_replan() {
            inner.enqueue_replan(&id, priority, None, basis);
        }

        // The planner workers. Each popped batch runs one `decide()` —
        // whose robust ensemble fans whole selections and its pricing
        // across the deterministic `EvalPool` when
        // `ESPRESSO_PLANNER_THREADS` > 1 — and commits the result to
        // every member.
        let workers = (0..inner.config.replan_workers)
            .map(|_| {
                let inner = Arc::clone(&inner);
                std::thread::spawn(move || {
                    while let Some(batch) = inner.pop_replan() {
                        inner.plan_batch(&batch);
                        inner.finish_replan();
                    }
                })
            })
            .collect();

        Ok(FleetController {
            inner,
            workers: Mutex::new(workers),
        })
    }

    /// Registers (or re-registers) a job. Identical re-registrations are
    /// idempotent no-ops; a changed spec replaces the entry and drops its
    /// decision (the old decision answered a different question). Either
    /// way the job ends up queued for planning when it has no current
    /// decision.
    ///
    /// # Errors
    ///
    /// [`FleetError::Request`] when the spec cannot be planned (priority
    /// derivation runs the same config resolution `decide` would);
    /// [`FleetError::Io`] if journaling fails.
    pub fn register(&self, spec: JobSpec) -> Result<RegisterOutcome, FleetError> {
        let priority = if spec.priority > 0 {
            spec.priority
        } else {
            spec.request.replan_priority().map_err(FleetError::Request)?
        };
        let spec_key = spec.to_json().canonical().render();
        let spec_group = SpecGroup::of(&spec.request);
        let inner = &self.inner;
        let shard_idx = inner.shard_of(&spec.id);
        let basis;
        {
            let mut control = lock(&inner.control);
            let (health, epoch) = cluster_state(&control, &spec.cluster);
            basis = ReplanBasis::new(spec_group, &spec.cluster, health, epoch);
            // The shard guard must be released before `maybe_snapshot`:
            // taking a snapshot locks every shard (control → shard is the
            // one legal nesting order, and never while a shard from the
            // same thread is still held).
            {
                let mut shard = lock(&inner.shards[shard_idx]);
                if let Some(existing) = shard.get(&spec.id) {
                    if existing.spec.to_json().canonical().render() == spec_key {
                        let needs_plan = existing.decision.is_none();
                        drop(shard);
                        drop(control);
                        if needs_plan {
                            inner.enqueue_replan(&spec.id, priority, None, basis);
                        }
                        return Ok(RegisterOutcome {
                            priority,
                            already_registered: true,
                        });
                    }
                }
                let event = FleetEvent::Register {
                    spec: Box::new(spec.clone()),
                    priority,
                };
                append_event(&mut control, &event)?;
                shard.insert(spec.id.clone(), JobEntry::new(spec.clone(), priority, None));
            }
            inner.stats.jobs_registered.fetch_add(1, Ordering::Relaxed);
            inner.maybe_snapshot(&mut control);
        }
        // A freshly inserted (or replaced) job always needs its first plan.
        inner.enqueue_replan(&spec.id, priority, None, basis);
        Ok(RegisterOutcome {
            priority,
            already_registered: false,
        })
    }

    /// Applies one epoch-stamped membership/health delta. Stale or
    /// duplicate stamps (epoch not strictly newer) are ignored without
    /// journaling, so replays and reorderings cost nothing. An applied
    /// delta queues a re-plan for exactly the jobs bound to that cluster;
    /// a delta carrying `rejoined` ranks grows the bound cluster back and
    /// additionally releases that cluster's parked dead letters for one
    /// fresh push of each job's current committed decision. The requeue
    /// is bounded to one per re-join epoch by construction: released
    /// letters leave the park before pushing, and a duplicate delta with
    /// the same stamp is epoch-gated away before it can release anything.
    ///
    /// # Errors
    ///
    /// [`FleetError::Io`] if journaling fails.
    pub fn apply_health(&self, delta: &HealthDelta) -> Result<HealthOutcome, FleetError> {
        let inner = &self.inner;
        let workers = delta.workers.unwrap_or(1).max(1);
        {
            let mut control = lock(&inner.control);
            let current = control
                .clusters
                .get(&delta.cluster)
                .map(Membership::epoch)
                .unwrap_or(0);
            if delta.epoch <= current {
                inner
                    .stats
                    .health_deltas_ignored
                    .fetch_add(1, Ordering::Relaxed);
                return Ok(HealthOutcome {
                    applied: false,
                    epoch: current,
                    jobs_invalidated: 0,
                    dead_letters_requeued: 0,
                });
            }
            let event = FleetEvent::Health {
                cluster: delta.cluster.clone(),
                epoch: delta.epoch,
                workers,
                health: delta.health,
                lost: delta.lost.clone(),
                rejoined: delta.rejoined.clone(),
            };
            append_event(&mut control, &event)?;
            control
                .clusters
                .entry(delta.cluster.clone())
                .or_insert_with(|| Membership::new(workers))
                .apply_membership_delta(
                    delta.epoch,
                    &delta.rejoined,
                    &delta.lost,
                    Some(delta.health),
                );
            inner
                .stats
                .health_deltas_applied
                .fetch_add(1, Ordering::Relaxed);
            inner.maybe_snapshot(&mut control);
        }
        // Invalidate outside the control lock: scan for bound jobs and
        // queue them by priority, stamped now for delta→decision latency.
        // Every member of one delta wave shares the plan basis (the
        // just-applied health at the just-applied epoch), so same-spec
        // jobs coalesce into one planner batch downstream.
        let (health, epoch) = cluster_state(&lock(&inner.control), &delta.cluster);
        // Every member replaces the placeholder spec group with its own.
        let proto = ReplanBasis::new(SpecGroup::default(), &delta.cluster, health, epoch);
        let observed = Instant::now();
        let mut invalidated = 0usize;
        for shard in &inner.shards {
            let bound: Vec<(String, u64, SpecGroup)> = lock(shard)
                .values()
                .filter(|e| e.spec.cluster == delta.cluster)
                .map(|e| (e.spec.id.clone(), e.priority, e.spec_group.clone()))
                .collect();
            for (id, priority, spec_group) in bound {
                let basis = ReplanBasis {
                    spec_group,
                    ..proto.clone()
                };
                inner.enqueue_replan(&id, priority, Some(observed), basis);
                invalidated += 1;
            }
        }
        let dead_letters_requeued = if delta.rejoined.is_empty() {
            0
        } else {
            inner.requeue_dead_letters(&delta.cluster)
        };
        Ok(HealthOutcome {
            applied: true,
            epoch: delta.epoch,
            jobs_invalidated: invalidated,
            dead_letters_requeued,
        })
    }

    /// The decision document for one job, or `None` for an unknown id.
    ///
    /// Always answers for a known job — a job whose re-plan is queued,
    /// shed, or failing serves its previous decision stamped with the
    /// epoch it was computed against and `"stale": true`; a job never yet
    /// planned serves `"decision": null` with `"pending": true`.
    pub fn decision_doc(&self, job_id: &str) -> Option<String> {
        let inner = &self.inner;
        let entry = lock(&inner.shards[inner.shard_of(job_id)]).get(job_id).cloned()?;
        let cluster_epoch = lock(&inner.control)
            .clusters
            .get(&entry.spec.cluster)
            .map(Membership::epoch)
            .unwrap_or(0);
        if let Some(committed) = &entry.decision {
            let lag = cluster_epoch.saturating_sub(committed.epoch);
            if lag == 0 {
                inner.stats.fresh_served.fetch_add(1, Ordering::Relaxed);
            } else {
                inner.stats.stale_served.fetch_add(1, Ordering::Relaxed);
            }
            lock(&inner.staleness_epochs).record(lag as f64);
        }
        Some(render_decision_doc(&entry, cluster_epoch))
    }

    /// All jobs' decision documents, sorted by job id, as one JSON array.
    /// Byte-stable for a given table state — the recovery gates diff this
    /// document across kill/restart boundaries.
    pub fn jobs_doc(&self) -> String {
        let inner = &self.inner;
        let mut entries: Vec<JobEntry> = Vec::new();
        for shard in &inner.shards {
            entries.extend(lock(shard).values().cloned());
        }
        entries.sort_by(|a, b| a.spec.id.cmp(&b.spec.id));
        let epochs: HashMap<String, u64> = lock(&inner.control)
            .clusters
            .iter()
            .map(|(name, m)| (name.clone(), m.epoch()))
            .collect();
        let mut doc = String::from("[");
        for (i, entry) in entries.iter().enumerate() {
            if i > 0 {
                doc.push(',');
            }
            let epoch = epochs.get(&entry.spec.cluster).copied().unwrap_or(0);
            doc.push_str(&render_decision_doc(entry, epoch));
        }
        doc.push(']');
        doc
    }

    /// Blocks until the re-plan queue is empty and no plan is in flight,
    /// or `timeout` passes. Returns whether the queue drained.
    pub fn drain(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut state = lock(&self.inner.queue);
        while !(state.pending.is_empty() && state.in_flight == 0) {
            let now = Instant::now();
            if now >= deadline || state.closed {
                return state.pending.is_empty() && state.in_flight == 0;
            }
            let (next, _) = self
                .inner
                .queue_cond
                .wait_timeout(state, deadline - now)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            state = next;
        }
        true
    }

    /// Synchronously plans every queued job on the caller's thread —
    /// the deterministic alternative to planner threads when
    /// `replan_workers == 0`. Returns how many jobs were planned
    /// (batch members each count: the unit is a job, not a batch).
    pub fn run_pending(&self) -> usize {
        let mut planned = 0;
        while let Some(batch) = self.inner.try_pop_replan() {
            planned += batch.jobs.len();
            self.inner.plan_batch(&batch);
            self.inner.finish_replan();
        }
        planned
    }

    /// Forces a snapshot now (the gates use this to exercise rotation).
    ///
    /// # Errors
    ///
    /// [`FleetError::Io`] if writing fails.
    pub fn snapshot_now(&self) -> Result<(), FleetError> {
        let mut control = lock(&self.inner.control);
        self.inner.take_snapshot(&mut control)
    }

    /// The parked dead letters, as a JSON array.
    pub fn dead_letters_doc(&self) -> String {
        let letters = lock(&self.inner.dead_letters);
        let items: Vec<Json> = letters
            .iter()
            .map(|l| {
                Json::obj(vec![
                    ("job", l.job.to_json()),
                    ("epoch", l.epoch.to_json()),
                    ("attempts", l.attempts.to_json()),
                    ("error", l.error.to_json()),
                ])
            })
            .collect();
        Json::Arr(items).render()
    }

    /// The fleet counters.
    pub fn stats(&self) -> &FleetStats {
        &self.inner.stats
    }

    /// Pending re-plans right now (queued, not in flight).
    pub fn pending_replans(&self) -> usize {
        lock(&self.inner.queue).pending.len()
    }

    /// Flat `fleet_*` metric entries, merged into `/metrics`.
    pub fn metric_entries(&self) -> Vec<(String, f64)> {
        let inner = &self.inner;
        let load = |c: &AtomicU64| c.load(Ordering::Relaxed) as f64;
        let stats = &inner.stats;
        let jobs: usize = inner.shards.iter().map(|s| lock(s).len()).sum();
        let (clusters, seq, journal_records, journal_bytes) = {
            let control = lock(&inner.control);
            (
                control.clusters.len() as f64,
                control.seq as f64,
                control.journal.len_records() as f64,
                control.journal.len_bytes() as f64,
            )
        };
        let ms = 1e3;
        let (lat_count, lat_mean, lat_p50, lat_p95, lat_p99) = {
            let h = lock(&inner.delta_to_decision);
            (
                h.count() as f64,
                h.mean() * ms,
                h.quantile(0.50) * ms,
                h.quantile(0.95) * ms,
                h.quantile(0.99) * ms,
            )
        };
        let (stale_count, stale_p50, stale_p99) = {
            let h = lock(&inner.staleness_epochs);
            (h.count() as f64, h.quantile(0.50), h.quantile(0.99))
        };
        let (batch_count, batch_mean, batch_p50, batch_p99) = {
            let h = lock(&inner.replan_batch_size);
            (
                h.count() as f64,
                h.mean(),
                h.quantile(0.50),
                h.quantile(0.99),
            )
        };
        vec![
            ("fleet_jobs".into(), jobs as f64),
            ("fleet_clusters".into(), clusters),
            ("fleet_seq".into(), seq),
            ("fleet_journal_records".into(), journal_records),
            ("fleet_journal_bytes".into(), journal_bytes),
            ("fleet_jobs_registered".into(), load(&stats.jobs_registered)),
            (
                "fleet_health_deltas_applied".into(),
                load(&stats.health_deltas_applied),
            ),
            (
                "fleet_health_deltas_ignored".into(),
                load(&stats.health_deltas_ignored),
            ),
            (
                "fleet_replans_committed".into(),
                load(&stats.replans_committed),
            ),
            ("fleet_replans_shed".into(), load(&stats.replans_shed)),
            ("fleet_replan_errors".into(), load(&stats.replan_errors)),
            (
                "fleet_replans_pending".into(),
                lock(&inner.queue).pending.len() as f64,
            ),
            ("fleet_fresh_served".into(), load(&stats.fresh_served)),
            ("fleet_stale_served".into(), load(&stats.stale_served)),
            ("fleet_pushes_delivered".into(), load(&stats.pushes_delivered)),
            ("fleet_push_retries".into(), load(&stats.push_retries)),
            ("fleet_dead_letters".into(), load(&stats.dead_letters)),
            (
                "fleet_dead_letters_requeued".into(),
                load(&stats.dead_letters_requeued),
            ),
            ("fleet_snapshots_taken".into(), load(&stats.snapshots_taken)),
            ("fleet_delta_to_decision_count".into(), lat_count),
            ("fleet_delta_to_decision_mean_ms".into(), lat_mean),
            ("fleet_delta_to_decision_p50_ms".into(), lat_p50),
            ("fleet_delta_to_decision_p95_ms".into(), lat_p95),
            ("fleet_delta_to_decision_p99_ms".into(), lat_p99),
            ("fleet_staleness_epochs_count".into(), stale_count),
            ("fleet_staleness_epochs_p50".into(), stale_p50),
            ("fleet_staleness_epochs_p99".into(), stale_p99),
            ("fleet_replan_batch_size_count".into(), batch_count),
            ("fleet_replan_batch_size_mean".into(), batch_mean),
            ("fleet_replan_batch_size_p50".into(), batch_p50),
            ("fleet_replan_batch_size_p99".into(), batch_p99),
            (
                "fleet_push_conn_reuse".into(),
                inner.push_pool.reuses() as f64,
            ),
            (
                "fleet_push_conn_opened".into(),
                inner.push_pool.opens() as f64,
            ),
            ("fleet_warm_hits".into(), inner.planner.memo().hits() as f64),
            ("fleet_warm_misses".into(), inner.planner.memo().misses() as f64),
        ]
    }

    /// Stops the planner threads and joins them. Idempotent; also runs on
    /// drop.
    pub fn shutdown(&self) {
        self.inner.shutdown.store(true, Ordering::SeqCst);
        {
            let mut state = lock(&self.inner.queue);
            state.closed = true;
        }
        self.inner.queue_cond.notify_all();
        let mut workers = lock(&self.workers);
        for worker in workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl Drop for FleetController {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl FleetInner {
    fn shard_of(&self, job_id: &str) -> usize {
        (fnv1a64(job_id.as_bytes()) % self.shards.len() as u64) as usize
    }

    /// Queues a re-plan, coalescing with any pending one for the same job
    /// (keeping the highest priority, the *earliest* causal instant —
    /// latency is measured from the first unserviced delta — and the
    /// *newest* plan basis, so a coalesced entry always plans the latest
    /// known question). Above the watermark the lowest-priority pending
    /// entry is shed.
    fn enqueue_replan(
        &self,
        job_id: &str,
        priority: u64,
        observed: Option<Instant>,
        basis: ReplanBasis,
    ) {
        let mut state = lock(&self.queue);
        if state.closed {
            return;
        }
        if let Some(p) = state.pending.get_mut(job_id) {
            p.priority = p.priority.max(priority);
            if p.observed.is_none()
                || observed.is_some_and(|o| p.observed.is_some_and(|e| o < e))
            {
                p.observed = observed.or(p.observed);
            }
            // `>=` so a same-epoch re-registration (changed spec, same
            // cluster state) updates the fingerprint too.
            if basis.epoch >= p.basis.epoch {
                p.basis = basis;
            }
            return;
        }
        if state.pending.len() >= self.config.queue_watermark.max(1) {
            // Overload: shed the lowest-priority pending re-plan (ties
            // broken toward the lexicographically larger id so the
            // outcome is deterministic). The shed job keeps serving its
            // previous decision, marked stale.
            let lowest = state
                .pending
                .iter()
                .min_by(|(ida, pa), (idb, pb)| pa.priority.cmp(&pb.priority).then(idb.cmp(ida)))
                .map(|(id, p)| (id.clone(), p.priority));
            if let Some((low_id, low_p)) = lowest {
                self.stats.replans_shed.fetch_add(1, Ordering::Relaxed);
                if low_p >= priority {
                    return; // The newcomer is the lowest: shed it.
                }
                state.pending.remove(&low_id);
            }
        }
        state.pending.insert(
            job_id.to_string(),
            PendingReplan {
                priority,
                observed,
                basis,
            },
        );
        drop(state);
        self.queue_cond.notify_all();
    }

    /// Takes the highest-priority pending re-plan plus (when batching is
    /// on) every pending entry sharing its plan basis — one planning
    /// question, popped as one batch. The whole batch counts as one
    /// in-flight unit.
    fn take_batch(&self, state: &mut ReplanState) -> Option<ReplanBatch> {
        let id = state
            .pending
            .iter()
            .max_by(|(ida, pa), (idb, pb)| pa.priority.cmp(&pb.priority).then(idb.cmp(ida)))
            .map(|(id, _)| id.clone())?;
        let head = state.pending.remove(&id)?;
        let mut jobs = vec![(id, head.observed)];
        if self.config.batch_replans {
            let mut members: Vec<String> = state
                .pending
                .iter()
                .filter(|(_, p)| p.basis.same_group(&head.basis))
                .map(|(id, _)| id.clone())
                .collect();
            members.sort();
            for id in members {
                if let Some(p) = state.pending.remove(&id) {
                    jobs.push((id, p.observed));
                }
            }
        }
        state.in_flight += 1;
        Some(ReplanBatch {
            jobs,
            basis: head.basis,
        })
    }

    /// Blocking pop of the next batch of pending re-plans.
    fn pop_replan(&self) -> Option<ReplanBatch> {
        let mut state = lock(&self.queue);
        loop {
            if let Some(batch) = self.take_batch(&mut state) {
                return Some(batch);
            }
            if state.closed {
                return None;
            }
            state = self
                .queue_cond
                .wait(state)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }

    fn try_pop_replan(&self) -> Option<ReplanBatch> {
        let mut state = lock(&self.queue);
        self.take_batch(&mut state)
    }

    fn finish_replan(&self) {
        let mut state = lock(&self.queue);
        state.in_flight = state.in_flight.saturating_sub(1);
        drop(state);
        self.queue_cond.notify_all();
    }

    /// Plans one batch — every member shares the captured basis, so the
    /// planner runs **once** and the epoch-stamped body fans out to all
    /// members as individual journal commits (crash recovery stays
    /// per-job and byte-identical to unbatched planning). Members whose
    /// spec or cluster changed since enqueue are skipped: the mutation
    /// that changed them re-enqueued a fresh basis. Planner errors keep
    /// the previous decisions in place (stale-but-safe) and bump
    /// `replan_errors` once per member.
    fn plan_batch(&self, batch: &ReplanBatch) {
        lock(&self.replan_batch_size).record(batch.jobs.len() as f64);
        let mut members: Vec<(String, Option<Instant>, Option<String>)> = Vec::new();
        let mut exemplar: Option<DecisionRequest> = None;
        for (job_id, observed) in &batch.jobs {
            let Some((request, cluster, notify, spec_group)) = ({
                lock(&self.shards[self.shard_of(job_id)]).get(job_id).map(|e| {
                    (
                        e.spec.request.clone(),
                        e.spec.cluster.clone(),
                        e.spec.notify.clone(),
                        e.spec_group.clone(),
                    )
                })
            }) else {
                continue; // Unregistered while queued.
            };
            if spec_group != batch.basis.spec_group || cluster != batch.basis.cluster {
                continue; // Re-registered since enqueue; a fresh entry is queued.
            }
            if exemplar.is_none() {
                let mut request = request;
                request.health = batch.basis.health;
                exemplar = Some(request);
            }
            members.push((job_id.clone(), *observed, notify));
        }
        let Some(request) = exemplar else {
            return;
        };
        let Ok(decision) = self.planner.decide(&request) else {
            self.stats
                .replan_errors
                .fetch_add(members.len() as u64, Ordering::Relaxed);
            return;
        };
        let body = Json::encode(&decision.response());
        let epoch = batch.basis.epoch;
        for (job_id, observed, notify) in &members {
            if self.commit_decision(job_id, epoch, &body).is_err() {
                self.stats.replan_errors.fetch_add(1, Ordering::Relaxed);
                continue;
            }
            if let Some(observed) = observed {
                lock(&self.delta_to_decision).record(observed.elapsed().as_secs_f64());
            }
            if let Some(addr) = notify {
                self.push_decision(job_id, epoch, addr, &body);
            }
        }
    }

    /// Journals and installs one committed decision. A commit for an
    /// older epoch than the installed decision's is journaled anyway (it
    /// happened) but loses the install race — replay applies the same
    /// rule, so recovery converges to the same entry.
    fn commit_decision(&self, job_id: &str, epoch: u64, body: &str) -> Result<(), FleetError> {
        let mut control = lock(&self.control);
        let event = FleetEvent::Commit {
            job: job_id.to_string(),
            epoch,
            body: body.to_string(),
        };
        append_event(&mut control, &event)?;
        {
            let mut shard = lock(&self.shards[self.shard_of(job_id)]);
            if let Some(entry) = shard.get_mut(job_id) {
                if entry.decision.as_ref().is_none_or(|d| d.epoch <= epoch) {
                    entry.decision = Some(Committed {
                        epoch,
                        body: body.to_string(),
                    });
                }
            }
        }
        self.stats.replans_committed.fetch_add(1, Ordering::Relaxed);
        self.maybe_snapshot(&mut control);
        Ok(())
    }

    /// Pushes a committed decision to the job's subscriber with bounded
    /// retry over the keep-alive pool; exhaustion parks a dead letter.
    /// Decision documents are idempotent (epoch-stamped), which is what
    /// licenses [`ConnectionPool::request`]'s stale-connection fallthrough.
    fn push_decision(&self, job_id: &str, epoch: u64, addr: &str, body: &str) {
        let Ok(addr) = addr.parse::<std::net::SocketAddr>() else {
            self.park_dead_letter(job_id, epoch, 0, &format!("bad notify address {addr:?}"));
            return;
        };
        let stats = &self.stats;
        let doc = format!(r#"{{"job":{},"epoch":{epoch},"decision":{body}}}"#, Json::Str(job_id.to_string()).render());
        let outcome = deliver_with_pool(
            &self.config.retry,
            &self.push_pool,
            addr,
            "/decision",
            doc.as_bytes(),
            |_| {
                stats.push_retries.fetch_add(1, Ordering::Relaxed);
            },
        );
        match outcome {
            Ok(_) => {
                stats.pushes_delivered.fetch_add(1, Ordering::Relaxed);
            }
            Err((error, attempts)) => self.park_dead_letter(job_id, epoch, attempts, &error),
        }
    }

    /// Releases the parked dead letters whose job is bound to `cluster`
    /// and re-pushes each such job's *current* committed decision (the
    /// parked one may be epochs behind by now — the subscriber wants the
    /// latest answer, not a replay of the one that failed). Letters for
    /// jobs that have been unregistered, or whose spec no longer carries
    /// a `notify` endpoint or a committed decision, are dropped: there is
    /// nothing left to deliver. A push that fails again parks a fresh
    /// letter, eligible only at the *next* re-join epoch.
    fn requeue_dead_letters(&self, cluster: &str) -> usize {
        let parked = std::mem::take(&mut *lock(&self.dead_letters));
        let mut kept = Vec::new();
        let mut released = Vec::new();
        for letter in parked {
            let bound = lock(&self.shards[self.shard_of(&letter.job)])
                .get(&letter.job)
                .is_some_and(|e| e.spec.cluster == cluster);
            if bound {
                released.push(letter);
            } else {
                kept.push(letter);
            }
        }
        lock(&self.dead_letters).extend(kept);
        let mut requeued = 0usize;
        for letter in released {
            let Some((notify, decision)) = lock(&self.shards[self.shard_of(&letter.job)])
                .get(&letter.job)
                .map(|e| (e.spec.notify.clone(), e.decision.clone()))
            else {
                continue;
            };
            if let (Some(addr), Some(d)) = (notify, decision) {
                self.stats
                    .dead_letters_requeued
                    .fetch_add(1, Ordering::Relaxed);
                requeued += 1;
                self.push_decision(&letter.job, d.epoch, &addr, &d.body);
            }
        }
        requeued
    }

    fn park_dead_letter(&self, job_id: &str, epoch: u64, attempts: u32, error: &str) {
        self.stats.dead_letters.fetch_add(1, Ordering::Relaxed);
        lock(&self.dead_letters).push(DeadLetter {
            job: job_id.to_string(),
            epoch,
            attempts,
            error: error.to_string(),
        });
    }

    /// Jobs whose decision is missing or behind their cluster's epoch,
    /// each paired with a plan basis captured from the cluster's current
    /// state (so recovery re-plans batch exactly like live ones).
    fn jobs_needing_replan(&self) -> Vec<(String, u64, ReplanBasis)> {
        let states: HashMap<String, (ClusterHealth, u64)> = lock(&self.control)
            .clusters
            .iter()
            .map(|(name, m)| (name.clone(), (*m.health(), m.epoch())))
            .collect();
        let mut out = Vec::new();
        for shard in &self.shards {
            for entry in lock(shard).values() {
                let (health, epoch) = states
                    .get(&entry.spec.cluster)
                    .cloned()
                    .unwrap_or((ClusterHealth::nominal(), 0));
                let stale = entry
                    .decision
                    .as_ref()
                    .is_none_or(|d| d.epoch < epoch);
                if stale {
                    let basis = ReplanBasis::new(
                        entry.spec_group.clone(),
                        &entry.spec.cluster,
                        health,
                        epoch,
                    );
                    out.push((entry.spec.id.clone(), entry.priority, basis));
                }
            }
        }
        out
    }

    fn maybe_snapshot(&self, control: &mut Control) {
        if control.records_since_snapshot >= self.config.snapshot_every.max(1) {
            // Snapshot failure is not fatal: the journal still has
            // everything, the next commit retries.
            let _ = self.take_snapshot(control);
        }
    }

    fn take_snapshot(&self, control: &mut Control) -> Result<(), FleetError> {
        let payload = self.encode_state(control);
        control.store.save(payload.as_bytes())?;
        self.stats.snapshots_taken.fetch_add(1, Ordering::Relaxed);
        // The generation just rotated into the prev slot carries
        // `prev_snapshot_seq`'s successor state; records newer than it
        // must survive for the fallback path.
        let keep_after = control.prev_snapshot_seq;
        control.journal.truncate_through(keep_after)?;
        control.prev_snapshot_seq = control.seq;
        control.records_since_snapshot = 0;
        Ok(())
    }

    /// Serializes the full fleet state (canonical JSON, sorted ids) —
    /// also the bit-stable digest the recovery tests compare.
    fn encode_state(&self, control: &Control) -> String {
        let mut clusters: Vec<(String, Json)> = control
            .clusters
            .iter()
            .map(|(name, m)| (name.clone(), m.to_json()))
            .collect();
        clusters.sort_by(|a, b| a.0.cmp(&b.0));
        let mut jobs: Vec<&JobEntry> = Vec::new();
        let guards: Vec<_> = self.shards.iter().map(lock).collect();
        for guard in &guards {
            jobs.extend(guard.values());
        }
        jobs.sort_by(|a, b| a.spec.id.cmp(&b.spec.id));
        let jobs: Vec<Json> = jobs
            .into_iter()
            .map(|entry| {
                Json::obj(vec![
                    ("spec", entry.spec.to_json()),
                    ("priority", entry.priority.to_json()),
                    (
                        "decision",
                        match &entry.decision {
                            Some(d) => Json::obj(vec![
                                ("epoch", d.epoch.to_json()),
                                ("body", d.body.to_json()),
                            ]),
                            None => Json::Null,
                        },
                    ),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("version".into(), Json::Num(1.0)),
            ("seq".into(), Json::Num(control.seq as f64)),
            ("clusters".into(), Json::Obj(clusters)),
            ("jobs".into(), Json::Arr(jobs)),
        ])
        .canonical()
        .render()
    }
}

/// The (health, epoch) a plan basis captures for `cluster` — nominal at
/// epoch 0 for clusters the controller has never heard a delta from.
fn cluster_state(control: &Control, cluster: &str) -> (ClusterHealth, u64) {
    control
        .clusters
        .get(cluster)
        .map(|m| (*m.health(), m.epoch()))
        .unwrap_or((ClusterHealth::nominal(), 0))
}

/// Appends one event to the journal under the control lock, assigning it
/// the next sequence number.
fn append_event(control: &mut Control, event: &FleetEvent) -> Result<(), FleetError> {
    control.seq += 1;
    let seq = control.seq;
    control.journal.append(seq, Json::encode(event).as_bytes())?;
    control.records_since_snapshot += 1;
    Ok(())
}

/// Applies one replayed event to in-memory state — the exact mirror of
/// the live mutations, minus journaling and re-plan queuing.
fn apply_event(
    shards: &mut [HashMap<String, JobEntry>],
    clusters: &mut HashMap<String, Membership>,
    shard_count: usize,
    event: FleetEvent,
) {
    match event {
        FleetEvent::Register { spec, priority } => {
            let idx = (fnv1a64(spec.id.as_bytes()) % shard_count as u64) as usize;
            shards[idx].insert(spec.id.clone(), JobEntry::new(*spec, priority, None));
        }
        FleetEvent::Health {
            cluster,
            epoch,
            workers,
            health,
            lost,
            rejoined,
        } => {
            clusters
                .entry(cluster)
                .or_insert_with(|| Membership::new(workers.max(1)))
                .apply_membership_delta(epoch, &rejoined, &lost, Some(health));
        }
        FleetEvent::Commit { job, epoch, body } => {
            let idx = (fnv1a64(job.as_bytes()) % shard_count as u64) as usize;
            if let Some(entry) = shards[idx].get_mut(&job) {
                if entry.decision.as_ref().is_none_or(|d| d.epoch <= epoch) {
                    entry.decision = Some(Committed { epoch, body });
                }
            }
        }
    }
}

/// Reads just the `seq` field of an encoded snapshot payload.
fn state_seq(payload: &[u8]) -> Option<u64> {
    let text = std::str::from_utf8(payload).ok()?;
    let doc = Json::parse(text).ok()?;
    doc.req::<u64>("seq").ok()
}

/// Decodes a snapshot payload into shards + clusters, returning its seq.
fn decode_state(
    payload: &[u8],
    shard_count: usize,
    shards: &mut [HashMap<String, JobEntry>],
    clusters: &mut HashMap<String, Membership>,
) -> Result<u64, FleetError> {
    let corrupt = |message: String| FleetError::Corrupt { message };
    let text = std::str::from_utf8(payload)
        .map_err(|_| corrupt("snapshot payload is not UTF-8".into()))?;
    let doc = Json::parse(text).map_err(|e| corrupt(format!("snapshot payload: {e}")))?;
    let version: u64 = doc
        .req("version")
        .map_err(|e| corrupt(format!("snapshot: {e}")))?;
    if version != 1 {
        return Err(corrupt(format!("unsupported snapshot version {version}")));
    }
    let seq: u64 = doc.req("seq").map_err(|e| corrupt(format!("snapshot: {e}")))?;
    match doc.get("clusters") {
        Some(Json::Obj(pairs)) => {
            for (name, value) in pairs {
                let membership = Membership::from_json(value)
                    .map_err(|e| corrupt(format!("snapshot cluster {name:?}: {e}")))?;
                clusters.insert(name.clone(), membership);
            }
        }
        _ => return Err(corrupt("snapshot is missing its clusters object".into())),
    }
    match doc.get("jobs") {
        Some(Json::Arr(items)) => {
            for item in items {
                let spec: JobSpec = item
                    .req("spec")
                    .map_err(|e| corrupt(format!("snapshot job: {e}")))?;
                let priority: u64 = item
                    .req("priority")
                    .map_err(|e| corrupt(format!("snapshot job: {e}")))?;
                let decision = match item.get("decision") {
                    None | Some(Json::Null) => None,
                    Some(d) => Some(Committed {
                        epoch: d
                            .req("epoch")
                            .map_err(|e| corrupt(format!("snapshot decision: {e}")))?,
                        body: d
                            .req("body")
                            .map_err(|e| corrupt(format!("snapshot decision: {e}")))?,
                    }),
                };
                let idx = (fnv1a64(spec.id.as_bytes()) % shard_count as u64) as usize;
                shards[idx].insert(spec.id.clone(), JobEntry::new(spec, priority, decision));
            }
        }
        _ => return Err(corrupt("snapshot is missing its jobs array".into())),
    }
    Ok(seq)
}

/// Renders one job's decision document. The committed body is embedded
/// verbatim (it is already deterministic JSON), so the whole document is
/// byte-stable for a given (entry, cluster epoch) pair.
fn render_decision_doc(entry: &JobEntry, cluster_epoch: u64) -> String {
    let id = Json::Str(entry.spec.id.clone()).render();
    let cluster = Json::Str(entry.spec.cluster.clone()).render();
    let priority = entry.priority;
    match &entry.decision {
        Some(d) => format!(
            r#"{{"job":{id},"cluster":{cluster},"priority":{priority},"cluster_epoch":{cluster_epoch},"epoch":{},"stale":{},"decision":{}}}"#,
            d.epoch,
            d.epoch < cluster_epoch,
            d.body
        ),
        None => format!(
            r#"{{"job":{id},"cluster":{cluster},"priority":{priority},"cluster_epoch":{cluster_epoch},"pending":true,"decision":null}}"#
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use espresso::config::{GcConfig, ModelConfig, SystemConfig};
    use espresso_cluster::IntraFabric;
    use espresso_gc::GcAlgorithm;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("espresso-fleet-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn test_config(dir: &std::path::Path) -> FleetConfig {
        FleetConfig {
            dir: dir.to_path_buf(),
            shards: 4,
            replan_workers: 0,
            queue_watermark: 64,
            snapshot_every: 1_000_000, // Only explicit snapshots in tests.
            plan_cache_entries: 64,
            batch_replans: true,
            retry: RetryPolicy {
                max_attempts: 2,
                initial_backoff: Duration::from_micros(100),
                max_backoff: Duration::from_micros(200),
                attempt_timeout: Duration::from_millis(50),
            },
        }
    }

    fn lstm_request() -> DecisionRequest {
        DecisionRequest::new(
            ModelConfig::Named {
                model: "LSTM".into(),
            },
            GcConfig::uniform(GcAlgorithm::EfSignSgd),
            SystemConfig {
                machines: 2,
                gpus_per_machine: 4,
                intra: IntraFabric::Pcie,
                inter_gbps: 25.0,
            },
        )
    }

    fn spec(id: &str, cluster: &str, priority: u64) -> JobSpec {
        JobSpec {
            id: id.into(),
            cluster: cluster.into(),
            priority,
            notify: None,
            request: lstm_request(),
        }
    }

    fn delta(cluster: &str, epoch: u64, factor: f64) -> HealthDelta {
        HealthDelta {
            cluster: cluster.into(),
            epoch,
            workers: Some(8),
            health: ClusterHealth::inter_degraded(factor),
            lost: Vec::new(),
            rejoined: Vec::new(),
        }
    }

    fn membership_delta(
        cluster: &str,
        epoch: u64,
        lost: &[usize],
        rejoined: &[usize],
    ) -> HealthDelta {
        HealthDelta {
            lost: lost.to_vec(),
            rejoined: rejoined.to_vec(),
            ..delta(cluster, epoch, 1.0)
        }
    }

    #[test]
    fn register_plan_and_health_cycle() {
        let dir = temp_dir("cycle");
        let fleet = FleetController::open(test_config(&dir)).unwrap();

        let out = fleet.register(spec("job-a", "c1", 0)).unwrap();
        assert!(!out.already_registered);
        assert!(out.priority > 0, "priority derives from gradient traffic");
        // Identical re-registration: idempotent, nothing new journaled.
        let seq_before = lock(&fleet.inner.control).seq;
        let again = fleet.register(spec("job-a", "c1", 0)).unwrap();
        assert!(again.already_registered);
        assert_eq!(lock(&fleet.inner.control).seq, seq_before);

        assert_eq!(fleet.run_pending(), 1);
        let doc = fleet.decision_doc("job-a").unwrap();
        assert!(doc.contains(r#""stale":false"#), "{doc}");
        assert!(doc.contains(r#""epoch":0"#), "{doc}");
        assert!(fleet.decision_doc("nope").is_none());

        // A health delta invalidates the bound job; until the re-plan
        // runs, the old decision is served stale.
        let out = fleet.apply_health(&delta("c1", 3, 2.0)).unwrap();
        assert!(out.applied);
        assert_eq!(out.jobs_invalidated, 1);
        let doc = fleet.decision_doc("job-a").unwrap();
        assert!(doc.contains(r#""stale":true"#), "{doc}");
        assert!(doc.contains(r#""cluster_epoch":3"#), "{doc}");
        assert!(fleet.stats().stale_served.load(Ordering::Relaxed) >= 1);

        assert_eq!(fleet.run_pending(), 1);
        let doc = fleet.decision_doc("job-a").unwrap();
        assert!(doc.contains(r#""stale":false"#), "{doc}");
        assert!(doc.contains(r#""epoch":3"#), "{doc}");

        // Duplicate and out-of-order stamps are ignored.
        assert!(!fleet.apply_health(&delta("c1", 3, 9.0)).unwrap().applied);
        assert!(!fleet.apply_health(&delta("c1", 2, 9.0)).unwrap().applied);
        assert_eq!(fleet.pending_replans(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn health_deltas_only_invalidate_bound_jobs() {
        let dir = temp_dir("binding");
        let fleet = FleetController::open(test_config(&dir)).unwrap();
        fleet.register(spec("a1", "east", 10)).unwrap();
        fleet.register(spec("b1", "west", 10)).unwrap();
        fleet.run_pending();

        let out = fleet.apply_health(&delta("east", 1, 1.5)).unwrap();
        assert_eq!(out.jobs_invalidated, 1);
        assert_eq!(fleet.pending_replans(), 1);
        fleet.run_pending();
        let east = fleet.decision_doc("a1").unwrap();
        let west = fleet.decision_doc("b1").unwrap();
        assert!(east.contains(r#""cluster_epoch":1"#), "{east}");
        assert!(west.contains(r#""cluster_epoch":0"#), "{west}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn watermark_sheds_the_lowest_priority_replan() {
        let dir = temp_dir("shed");
        let mut config = test_config(&dir);
        config.queue_watermark = 2;
        let fleet = FleetController::open(config).unwrap();
        for (id, priority) in [("low", 1u64), ("mid", 5), ("high", 9)] {
            fleet.register(spec(id, "c", priority)).unwrap();
        }
        // Registration queued 3 plans against a watermark of 2: the
        // lowest-priority one was shed on the way in.
        assert_eq!(fleet.pending_replans(), 2);
        assert_eq!(fleet.stats().replans_shed.load(Ordering::Relaxed), 1);
        fleet.run_pending();
        // The shed job still answers — pending, never an error.
        let doc = fleet.decision_doc("low").unwrap();
        assert!(doc.contains(r#""pending":true"#), "{doc}");
        assert!(fleet.decision_doc("high").unwrap().contains(r#""stale":false"#));

        // A lower-priority newcomer is itself shed when the queue is full
        // of higher-priority work.
        fleet.apply_health(&delta("c", 1, 1.5)).unwrap();
        assert_eq!(fleet.pending_replans(), 2, "low was shed again");
        fleet.run_pending();
        assert!(fleet.decision_doc("high").unwrap().contains(r#""cluster_epoch":1"#));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Regression: `register` used to hold its shard guard across
    /// `maybe_snapshot`, and taking a snapshot locks every shard — a
    /// self-deadlock the moment a registration crossed the snapshot
    /// threshold. With `snapshot_every: 1` every register crosses it.
    #[test]
    fn snapshot_triggered_inside_register_does_not_deadlock() {
        let dir = temp_dir("snap-register");
        let config = FleetConfig {
            snapshot_every: 1,
            ..test_config(&dir)
        };
        let fleet = FleetController::open(config).unwrap();
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let handle = std::thread::spawn(move || {
            for i in 0..4 {
                fleet.register(spec(&format!("job-{i}"), "c1", 1)).unwrap();
            }
            let taken = fleet.stats().snapshots_taken.load(Ordering::Relaxed);
            done_tx.send(taken).ok();
        });
        let taken = done_rx
            .recv_timeout(Duration::from_secs(30))
            .expect("register wedged: snapshot self-deadlock is back");
        handle.join().unwrap();
        assert!(taken >= 3, "every register should have triggered a snapshot");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn restart_recovers_the_table_bit_for_bit() {
        let dir = temp_dir("recover");
        let jobs_before;
        {
            let fleet = FleetController::open(test_config(&dir)).unwrap();
            fleet.register(spec("j1", "c1", 0)).unwrap();
            fleet.register(spec("j2", "c1", 7)).unwrap();
            fleet.register(spec("j3", "c2", 3)).unwrap();
            fleet.apply_health(&delta("c1", 2, 1.8)).unwrap();
            fleet.run_pending();
            jobs_before = fleet.jobs_doc();
            // No shutdown-time snapshot: recovery is pure journal replay.
        }
        let fleet = FleetController::open(test_config(&dir)).unwrap();
        // Recovery re-queues nothing (all decisions were fresh) and the
        // table is byte-identical.
        assert_eq!(fleet.pending_replans(), 0);
        assert_eq!(fleet.jobs_doc(), jobs_before);

        // And the same through a snapshot + more journal suffix.
        fleet.snapshot_now().unwrap();
        fleet.apply_health(&delta("c1", 5, 2.5)).unwrap();
        fleet.run_pending();
        let jobs_after = fleet.jobs_doc();
        drop(fleet);
        let fleet = FleetController::open(test_config(&dir)).unwrap();
        assert_eq!(fleet.jobs_doc(), jobs_after);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn recovery_replans_work_lost_in_the_crash() {
        let dir = temp_dir("lost-work");
        {
            let fleet = FleetController::open(test_config(&dir)).unwrap();
            fleet.register(spec("j1", "c1", 0)).unwrap();
            fleet.run_pending();
            // Delta applied and journaled, but the re-plan never ran —
            // the "crash" hits with the queue non-empty.
            fleet.apply_health(&delta("c1", 4, 2.0)).unwrap();
        }
        let fleet = FleetController::open(test_config(&dir)).unwrap();
        assert_eq!(fleet.pending_replans(), 1, "stale job re-queued");
        fleet.run_pending();
        let doc = fleet.decision_doc("j1").unwrap();
        assert!(doc.contains(r#""epoch":4"#), "{doc}");
        assert!(doc.contains(r#""stale":false"#), "{doc}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn dead_subscriber_parks_a_dead_letter() {
        let dir = temp_dir("dead-letter");
        let fleet = FleetController::open(test_config(&dir)).unwrap();
        let mut s = spec("j1", "c1", 5);
        // A port nothing listens on: every attempt fails fast.
        s.notify = Some("127.0.0.1:9".into());
        fleet.register(s).unwrap();
        fleet.run_pending();
        assert_eq!(fleet.stats().dead_letters.load(Ordering::Relaxed), 1);
        let doc = fleet.dead_letters_doc();
        assert!(doc.contains(r#""job":"j1""#), "{doc}");
        assert!(doc.contains(r#""attempts":2"#), "{doc}");
        // The decision itself still committed.
        assert!(fleet.decision_doc("j1").unwrap().contains(r#""stale":false"#));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn membership_deltas_move_ranks_and_recover_bit_for_bit() {
        let dir = temp_dir("membership");
        let jobs_before;
        {
            let fleet = FleetController::open(test_config(&dir)).unwrap();
            fleet.register(spec("j1", "c1", 0)).unwrap();
            fleet.run_pending();
            let out = fleet
                .apply_health(&membership_delta("c1", 2, &[1, 2], &[]))
                .unwrap();
            assert!(out.applied);
            assert_eq!(out.jobs_invalidated, 1);
            assert_eq!(out.dead_letters_requeued, 0);
            fleet.run_pending();
            let out = fleet
                .apply_health(&membership_delta("c1", 5, &[], &[2]))
                .unwrap();
            assert!(out.applied, "a re-join delta grows the cluster back");
            fleet.run_pending();
            jobs_before = fleet.jobs_doc();
            // No shutdown snapshot: recovery is pure journal replay — the
            // kill -9 path for a controller mid-rejoin.
        }
        let fleet = FleetController::open(test_config(&dir)).unwrap();
        assert_eq!(fleet.pending_replans(), 0);
        assert_eq!(fleet.jobs_doc(), jobs_before);
        // The recovered membership carries the move history: rank 1 is
        // still lost, rank 2 is back, and the epoch gate holds.
        assert_eq!(
            lock(&fleet.inner.control).clusters.get("c1").unwrap().lost(),
            &[1]
        );
        assert!(
            !fleet
                .apply_health(&membership_delta("c1", 5, &[], &[2]))
                .unwrap()
                .applied,
            "replayed duplicate is still epoch-gated after recovery"
        );
        assert!(fleet
            .apply_health(&membership_delta("c1", 6, &[], &[1]))
            .unwrap()
            .applied);
        assert!(lock(&fleet.inner.control).clusters.get("c1").unwrap().lost().is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn rejoin_delta_requeues_parked_dead_letters_once() {
        use std::io::{Read, Write};
        let dir = temp_dir("requeue");
        let fleet = FleetController::open(test_config(&dir)).unwrap();
        // Reserve a port, then close it: every push is refused fast.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        drop(listener);
        let mut s = spec("j1", "c1", 5);
        s.notify = Some(addr.to_string());
        fleet.register(s).unwrap();
        fleet.run_pending();
        assert_eq!(fleet.stats().dead_letters.load(Ordering::Relaxed), 1);

        // A loss-only delta never releases letters (and its re-plan parks
        // a second one against the still-dead subscriber).
        let out = fleet
            .apply_health(&membership_delta("c1", 1, &[3], &[]))
            .unwrap();
        assert_eq!(out.dead_letters_requeued, 0);
        fleet.run_pending();
        assert_eq!(fleet.stats().dead_letters.load(Ordering::Relaxed), 2);

        // The subscriber comes back on the same port...
        let listener = std::net::TcpListener::bind(addr).unwrap();
        std::thread::spawn(move || {
            for stream in listener.incoming() {
                let Ok(mut stream) = stream else { break };
                let mut buf = [0u8; 8192];
                let _ = stream.read(&mut buf);
                let _ = stream.write_all(b"HTTP/1.1 200 OK\r\ncontent-length: 0\r\n\r\n");
            }
        });
        // ...and the re-join delta releases both parked letters for one
        // fresh push each of the job's current committed decision.
        let out = fleet
            .apply_health(&membership_delta("c1", 2, &[], &[3]))
            .unwrap();
        assert!(out.applied);
        assert_eq!(out.dead_letters_requeued, 2);
        assert_eq!(fleet.stats().dead_letters_requeued.load(Ordering::Relaxed), 2);
        assert!(fleet.stats().pushes_delivered.load(Ordering::Relaxed) >= 2);
        assert_eq!(fleet.dead_letters_doc(), "[]");

        // Bounded: a duplicate of the same re-join epoch is gated away
        // before it can release anything.
        let dup = fleet
            .apply_health(&membership_delta("c1", 2, &[], &[3]))
            .unwrap();
        assert!(!dup.applied);
        assert_eq!(dup.dead_letters_requeued, 0);
        fleet.run_pending();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn metric_entries_are_flat_and_complete() {
        let dir = temp_dir("metrics");
        let fleet = FleetController::open(test_config(&dir)).unwrap();
        fleet.register(spec("j1", "c1", 2)).unwrap();
        fleet.run_pending();
        fleet.apply_health(&delta("c1", 1, 1.5)).unwrap();
        fleet.run_pending();
        let _ = fleet.decision_doc("j1");
        let entries = fleet.metric_entries();
        let get = |k: &str| {
            entries
                .iter()
                .find(|(name, _)| name == k)
                .map(|(_, v)| *v)
                .unwrap_or_else(|| panic!("missing metric {k}"))
        };
        assert_eq!(get("fleet_jobs"), 1.0);
        assert_eq!(get("fleet_clusters"), 1.0);
        assert_eq!(get("fleet_replans_committed"), 2.0);
        assert_eq!(get("fleet_health_deltas_applied"), 1.0);
        assert!(get("fleet_delta_to_decision_count") >= 1.0);
        assert!(entries.iter().all(|(_, v)| v.is_finite()));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn background_workers_drain_the_queue() {
        let dir = temp_dir("workers");
        let mut config = test_config(&dir);
        config.replan_workers = 2;
        let fleet = FleetController::open(config).unwrap();
        for i in 0..6 {
            fleet.register(spec(&format!("j{i}"), "c1", i + 1)).unwrap();
        }
        assert!(fleet.drain(Duration::from_secs(30)), "queue must drain");
        for i in 0..6 {
            let doc = fleet.decision_doc(&format!("j{i}")).unwrap();
            assert!(doc.contains(r#""stale":false"#), "{doc}");
        }
        fleet.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn metric(entries: &[(String, f64)], key: &str) -> f64 {
        entries
            .iter()
            .find(|(name, _)| name == key)
            .map(|(_, v)| *v)
            .unwrap_or_else(|| panic!("missing metric {key}"))
    }

    /// Five jobs sharing one spec on one cluster are one planning
    /// question: each wave (registration, then a delta) must pop as a
    /// single batch of five, visible in the batch-size histogram, while
    /// still journaling five per-job commits.
    #[test]
    fn batching_groups_shared_specs_into_one_planner_run() {
        let dir = temp_dir("batch-group");
        let fleet = FleetController::open(test_config(&dir)).unwrap();
        for i in 0..5 {
            fleet.register(spec(&format!("b{i}"), "c1", 1)).unwrap();
        }
        assert_eq!(fleet.run_pending(), 5);
        fleet.apply_health(&delta("c1", 1, 2.0)).unwrap();
        assert_eq!(fleet.run_pending(), 5);
        let entries = fleet.metric_entries();
        assert_eq!(metric(&entries, "fleet_replan_batch_size_count"), 2.0);
        assert_eq!(metric(&entries, "fleet_replan_batch_size_mean"), 5.0);
        assert_eq!(metric(&entries, "fleet_replans_committed"), 10.0);
        for i in 0..5 {
            let doc = fleet.decision_doc(&format!("b{i}")).unwrap();
            assert!(doc.contains(r#""stale":false"#), "{doc}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The headline batching invariant: the same workload planned with
    /// and without batching ends in byte-identical job tables — batching
    /// changes how often the planner runs, never what it answers.
    #[test]
    fn batched_and_unbatched_tables_are_byte_identical() {
        let run = |tag: &str, batch: bool| {
            let dir = temp_dir(tag);
            let mut config = test_config(&dir);
            config.batch_replans = batch;
            let fleet = FleetController::open(config).unwrap();
            for i in 0..6 {
                let cluster = format!("c{}", i % 2);
                fleet
                    .register(spec(&format!("j{i}"), &cluster, i + 1))
                    .unwrap();
            }
            fleet.run_pending();
            fleet.apply_health(&delta("c0", 1, 1.5)).unwrap();
            fleet.apply_health(&delta("c1", 1, 3.0)).unwrap();
            fleet.run_pending();
            let doc = fleet.jobs_doc();
            let batches = metric(&fleet.metric_entries(), "fleet_replan_batch_size_count");
            drop(fleet);
            let _ = std::fs::remove_dir_all(&dir);
            (doc, batches)
        };
        let (batched, batched_pops) = run("batch-on", true);
        let (unbatched, unbatched_pops) = run("batch-off", false);
        assert_eq!(batched, unbatched, "batching changed the table bytes");
        // And it genuinely batched: 12 jobs planned in 4 pops (two waves
        // of two cluster groups) versus 12 singleton pops.
        assert_eq!(batched_pops, 4.0);
        assert_eq!(unbatched_pops, 12.0);
    }

    /// A job whose spec changes while it sits in a batch's pending set
    /// must not be planned against the old group's answer.
    #[test]
    fn re_registration_mid_queue_is_not_planned_against_the_old_group() {
        let dir = temp_dir("batch-rereg");
        let fleet = FleetController::open(test_config(&dir)).unwrap();
        fleet.register(spec("ja", "c1", 1)).unwrap();
        fleet.register(spec("jb", "c1", 1)).unwrap();
        // Re-register jb with a different system shape before planning.
        let mut changed = spec("jb", "c1", 1);
        changed.request.system.machines = 4;
        fleet.register(changed).unwrap();
        assert_eq!(fleet.run_pending(), 2);
        let doc_a = fleet.decision_doc("ja").unwrap();
        let doc_b = fleet.decision_doc("jb").unwrap();
        assert!(doc_a.contains(r#""stale":false"#), "{doc_a}");
        assert!(doc_b.contains(r#""stale":false"#), "{doc_b}");
        assert_ne!(doc_a, doc_b);
        let _ = std::fs::remove_dir_all(&dir);
    }

    const GROUP_BASE: &str = r#"{
        "model": { "model": "LSTM" },
        "gc": { "algorithm": { "RandomK": { "density": 0.01 } } },
        "system": { "machines": 2, "gpus_per_machine": 4,
                    "intra": "Pcie", "inter_gbps": 25.0 }
    }"#;

    fn group(text: &str) -> SpecGroup {
        SpecGroup::of(&DecisionRequest::parse(text).expect("spec should parse"))
    }

    fn group_base_with_ratios(ratios: &[f64]) -> String {
        let list = ratios
            .iter()
            .map(|r| format!("{r}"))
            .collect::<Vec<_>>()
            .join(", ");
        format!(
            r#"{{
                "model": {{ "model": "LSTM" }},
                "gc": {{ "algorithm": {{ "RandomK": {{ "density": 0.01 }} }},
                        "ratios": [{list}] }},
                "system": {{ "machines": 2, "gpus_per_machine": 4,
                            "intra": "Pcie", "inter_gbps": 25.0 }}
            }}"#
        )
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// Spec-group keying mirrors the decision-cache discipline
        /// (`tests/cache_keys.rs`): reordered keys, explicit defaults,
        /// and whatever health the registration happened to carry all
        /// land in one group — plan time overwrites `health` with the
        /// bound cluster's state, so it is not part of the question.
        #[test]
        fn reordered_defaulted_and_healthy_specs_share_a_group(
            factor_tenths in 11u32..50,
        ) {
            let f = f64::from(factor_tenths) / 10.0;
            let shuffled = format!(
                r#"{{
                    "system": {{ "inter_gbps": 25.0, "intra": "Pcie",
                                "gpus_per_machine": 4, "machines": 2 }},
                    "robust": false,
                    "health": {{ "inter": {{ "Degraded": {{ "factor": {f} }} }} }},
                    "gc": {{ "algorithm": {{ "RandomK": {{ "density": 0.01 }} }} }},
                    "model": {{ "model": "LSTM" }}
                }}"#
            );
            proptest::prop_assert_eq!(group(GROUP_BASE), group(&shuffled));
        }

        /// Any single tensor's ratio moving away from uniform is a
        /// different planning question: the group must split.
        #[test]
        fn a_ratio_change_splits_the_spec_group(
            tensor in 0usize..10,
            bump in 1u32..90,
        ) {
            let mut ratios = [0.01f64; 10];
            ratios[tensor] = 0.01 + f64::from(bump) * 0.001;
            proptest::prop_assert_ne!(
                group(GROUP_BASE),
                group(&group_base_with_ratios(&ratios))
            );
        }

        /// The non-spec group dimensions: equal specs still split into
        /// separate batches across cluster bindings, effective healths,
        /// and epochs — each is a semantically different question (or, for
        /// the cluster, a different future).
        #[test]
        fn bases_split_on_cluster_health_and_epoch(
            epoch in 1u64..1000,
            factor_tenths in 11u32..50,
        ) {
            let f = f64::from(factor_tenths) / 10.0;
            let spec = group(GROUP_BASE);
            let degraded = ClusterHealth::inter_degraded(f);
            let basis = |spec: &SpecGroup, cluster, health, epoch| {
                ReplanBasis::new(spec.clone(), cluster, health, epoch)
            };
            let base = basis(&spec, "c0", degraded, epoch);
            proptest::prop_assert!(base.same_group(&basis(&spec, "c0", degraded, epoch)));
            proptest::prop_assert!(!base.same_group(&basis(&spec, "c1", degraded, epoch)));
            proptest::prop_assert!(
                !base.same_group(&basis(&spec, "c0", ClusterHealth::nominal(), epoch))
            );
            proptest::prop_assert!(!base.same_group(&basis(&spec, "c0", degraded, epoch + 1)));
            let other = SpecGroup {
                fingerprint: spec.fingerprint ^ 1,
                ..spec.clone()
            };
            proptest::prop_assert!(!base.same_group(&basis(&other, "c0", degraded, epoch)));
        }
    }

    /// Fingerprints are only the first test: two bases whose spec
    /// fingerprints collide, or whose health fingerprints collide, but
    /// whose bytes differ are two planning questions, never one batch.
    #[test]
    fn colliding_fingerprints_do_not_group() {
        let spec = group(GROUP_BASE);
        let mut ratios = [0.01f64; 10];
        ratios[3] = 0.02;
        let forced = SpecGroup {
            fingerprint: spec.fingerprint,
            ..group(&group_base_with_ratios(&ratios))
        };
        assert_ne!(forced.text, spec.text);
        let degraded = ClusterHealth::inter_degraded(2.0);
        let base = ReplanBasis::new(spec.clone(), "c0", degraded, 7);
        assert!(base.same_group(&ReplanBasis::new(spec.clone(), "c0", degraded, 7)));
        assert!(!base.same_group(&ReplanBasis::new(forced, "c0", degraded, 7)));

        let mut other_health = ReplanBasis::new(spec, "c0", ClusterHealth::inter_degraded(3.0), 7);
        other_health.health_fp = base.health_fp;
        assert!(!base.same_group(&other_health));
    }
}
