//! `fleet-storm`: an open-loop stream of health deltas into the fleet
//! controller, with decision reads running beside it.
//!
//! Set-up registers 1,200 jobs over 8 clusters — mostly in 8-job groups
//! sharing one spec, the rest singletons — waits for every first
//! decision, then sends one delta per degrade factor so the plan cache
//! holds every (spec, health) pair the stream can ask for. The measured
//! stream then spends its time where group commits, journal appends and
//! snapshots run, not in the planner.
//!
//! One connection sends deltas at a fixed Poisson rate; a second reads
//! `/fleet/job/{id}` at a fixed rate. Both are timed from when each
//! operation was due. The reads also detect commits: a delta is committed
//! once every job on its cluster has been read at an epoch at least the
//! delta's.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use espresso::service::{decide, DecisionRequest};
use espresso_json::Json;
use espresso_serve::client::Connection;
use espresso_serve::{FleetConfig, FleetController, ServeConfig, Server};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::trace::{maybe_span, Tracer};
use crate::Live;

pub const CLUSTERS: usize = 8;
pub const JOBS_PER_CLUSTER: usize = 150;
const GROUP: usize = 8;
const GROUPS_PER_CLUSTER: usize = 17;
/// Ranks per cluster.
const WORKERS: usize = 8;
/// Health deltas per second, open loop.
pub const DELTA_RATE: f64 = 6.0;
/// Decision reads per second, open loop.
pub const READ_RATE: f64 = 1000.0;
/// How long commit detection waits on a job not yet committed.
const POLL: Duration = Duration::from_micros(200);
/// Quantised inter-machine degrade factors the deltas carry.
pub const FACTORS: [f64; 4] = [1.25, 1.5, 2.0, 3.0];
const SETUPS: usize = 3;
/// How long the stream may take to commit after its last delta.
const COMMIT_GRACE: Duration = Duration::from_secs(60);

/// The spec catalogue every cluster draws from: cheap single-machine
/// LSTM and VGG16 requests.
fn spec_body(index: usize) -> String {
    let (model, algo) = [
        ("LSTM", r#"{"Dgc":{"density":0.01}}"#),
        ("LSTM", r#""EfSignSgd""#),
        ("LSTM", r#""Fp16""#),
        ("LSTM", r#"{"RandomK":{"density":0.01}}"#),
        ("VGG16", r#""EfSignSgd""#),
        ("VGG16", r#"{"RandomK":{"density":0.01}}"#),
    ][index % 6];
    let gbps = [25.0, 20.0, 15.0, 40.0, 10.0, 30.0][index / 6 % 6];
    format!(
        r#"{{"model":{{"model":"{model}"}},"gc":{{"algorithm":{algo}}},"system":{{"machines":1,"gpus_per_machine":4,"intra":"Pcie","inter_gbps":{gbps:?}}}}}"#
    )
}

/// One registered job.
#[derive(Debug, Clone)]
pub struct JobDef {
    pub id: String,
    pub cluster: usize,
    pub spec: usize,
}

impl JobDef {
    pub fn register_body(&self) -> String {
        format!(
            r#"{{"id":"{}","cluster":"c{}","request":{}}}"#,
            self.id,
            self.cluster,
            spec_body(self.spec)
        )
    }
}

/// The 1,200 jobs: per cluster, 17 groups of 8 sharing a spec and 14
/// singletons, all in an order the seed shuffles.
pub fn jobs(seed: u64) -> Vec<JobDef> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xf1ee7);
    let mut jobs = Vec::new();
    for cluster in 0..CLUSTERS {
        let mut specs: Vec<usize> = (0..JOBS_PER_CLUSTER)
            .map(|i| {
                if i < GROUPS_PER_CLUSTER * GROUP {
                    i / GROUP
                } else {
                    GROUPS_PER_CLUSTER + i - GROUPS_PER_CLUSTER * GROUP
                }
            })
            .collect();
        for i in (1..specs.len()).rev() {
            specs.swap(i, rng.random_range(0..=i));
        }
        for (i, spec) in specs.into_iter().enumerate() {
            jobs.push(JobDef {
                id: format!("job-c{cluster}-{i:03}"),
                cluster,
                spec,
            });
        }
    }
    jobs
}

/// One epoch-stamped health delta.
#[derive(Debug, Clone)]
pub struct Delta {
    pub cluster: usize,
    pub epoch: u64,
    pub factor: f64,
    pub lost: Vec<usize>,
    pub rejoined: Vec<usize>,
    /// Seconds after the stream starts at which it is due.
    pub due_s: f64,
}

impl Delta {
    pub fn body(&self) -> String {
        let list = |v: &[usize]| v.iter().map(usize::to_string).collect::<Vec<_>>().join(",");
        format!(
            r#"{{"cluster":"c{}","epoch":{},"workers":{WORKERS},"health":{{"inter":{{"Degraded":{{"factor":{:?}}}}}}},"lost":[{}],"rejoined":[{}]}}"#,
            self.cluster,
            self.epoch,
            self.factor,
            list(&self.lost),
            list(&self.rejoined)
        )
    }
}

/// The set-up deltas (one per factor, on clusters 0..4, epoch 1) followed
/// by the measured stream: `count` deltas at sorted uniform times over
/// `seconds` — a Poisson stream conditioned on its count, so every run
/// sends the same number. Each picks a cluster, bumps its epoch, carries
/// a quantised factor and now and then a lost or re-joined rank.
pub fn deltas(seed: u64, seconds: f64) -> (Vec<Delta>, Vec<Delta>) {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xde17a);
    let mut epochs = [0u64; CLUSTERS];
    let mut lost: Vec<Vec<usize>> = vec![Vec::new(); CLUSTERS];
    let warm: Vec<Delta> = FACTORS
        .iter()
        .enumerate()
        .map(|(c, &factor)| {
            epochs[c] = 1;
            Delta {
                cluster: c,
                epoch: 1,
                factor,
                lost: Vec::new(),
                rejoined: Vec::new(),
                due_s: 0.0,
            }
        })
        .collect();
    let count = (DELTA_RATE * seconds).round().max(1.0) as usize;
    let mut due: Vec<f64> = (0..count).map(|_| rng.random::<f64>() * seconds).collect();
    due.sort_by(f64::total_cmp);
    let stream = due
        .into_iter()
        .map(|due_s| {
            let c = rng.random_range(0..CLUSTERS);
            epochs[c] += 1;
            let factor = FACTORS[rng.random_range(0..FACTORS.len())];
            let (mut gone, mut back) = (Vec::new(), Vec::new());
            let roll = rng.random::<f64>();
            if roll < 0.1 && lost[c].len() < WORKERS / 2 {
                let alive: Vec<usize> = (0..WORKERS).filter(|w| !lost[c].contains(w)).collect();
                let w = alive[rng.random_range(0..alive.len())];
                lost[c].push(w);
                gone.push(w);
            } else if roll < 0.2 && !lost[c].is_empty() {
                let at = rng.random_range(0..lost[c].len());
                back.push(lost[c].remove(at));
            }
            Delta {
                cluster: c,
                epoch: epochs[c],
                factor,
                lost: gone,
                rejoined: back,
                due_s,
            }
        })
        .collect();
    (warm, stream)
}

/// The committed epoch a `/fleet/job/{id}` document reports (0 while the
/// job has no decision yet) and whether it is marked stale.
pub fn doc_epoch(doc: &str) -> (u64, bool) {
    let epoch = doc
        .find(r#","epoch":"#)
        .map(|at| {
            doc[at + 9..]
                .bytes()
                .take_while(u8::is_ascii_digit)
                .fold(0u64, |n, b| n * 10 + u64::from(b - b'0'))
        })
        .unwrap_or(0);
    (epoch, doc.contains(r#""stale":true"#))
}

/// Tracks, for each outstanding delta, the jobs on its cluster not yet
/// seen at or past its epoch; a delta commits when none is left.
#[derive(Debug, Default)]
pub struct CommitTracker {
    /// Outstanding deltas: (stream index, cluster, epoch, unconfirmed jobs).
    pending: Vec<(usize, usize, u64, Vec<usize>)>,
}

impl CommitTracker {
    /// Starts waiting for delta `index` on `cluster` at `epoch`; `jobs`
    /// lists the job numbers bound to that cluster.
    pub fn sent(&mut self, index: usize, cluster: usize, epoch: u64, jobs: Vec<usize>) {
        self.pending.push((index, cluster, epoch, jobs));
    }

    /// The job to check next: the first unconfirmed job of the oldest
    /// outstanding delta, or `None` when nothing is outstanding.
    pub fn next_target(&self) -> Option<usize> {
        self.pending.first().map(|(_, _, _, jobs)| jobs[0])
    }

    /// Records that `job` on `cluster` was seen at `epoch`; returns the
    /// stream indices of the deltas this completed.
    pub fn observed(&mut self, job: usize, cluster: usize, epoch: u64) -> Vec<usize> {
        let mut done = Vec::new();
        self.pending.retain_mut(|(index, c, e, jobs)| {
            if *c == cluster && epoch >= *e {
                jobs.retain(|&j| j != job);
            }
            if jobs.is_empty() {
                done.push(*index);
                false
            } else {
                true
            }
        });
        done
    }

    pub fn outstanding(&self) -> usize {
        self.pending.len()
    }
}

fn open(addr: std::net::SocketAddr) -> Result<Connection, String> {
    Connection::open(addr, Duration::from_secs(30)).map_err(|e| format!("connect {addr}: {e}"))
}

fn call(conn: &mut Connection, method: &str, path: &str, body: &str) -> Result<String, String> {
    let resp = conn
        .request(method, path, body.as_bytes())
        .map_err(|e| format!("{method} {path}: {e}"))?;
    let text = String::from_utf8_lossy(&resp.body).into_owned();
    if resp.status != 200 {
        return Err(format!("{method} {path}: status {} ({text})", resp.status));
    }
    Ok(text)
}

/// A fleet controller behind a server, with its journal in a directory of
/// its own.
pub struct Fleet {
    pub server: Server,
    pub controller: Arc<FleetController>,
    pub dir: std::path::PathBuf,
}

impl Fleet {
    pub fn start(label: &str, replan_workers: usize) -> Result<Fleet, String> {
        let dir = crate::scratch(label)?;
        let controller = Arc::new(
            FleetController::open(FleetConfig {
                dir: dir.clone(),
                replan_workers,
                ..FleetConfig::default()
            })
            .map_err(|e| format!("open fleet: {e}"))?,
        );
        let server = Server::start(ServeConfig {
            fleet: Some(Arc::clone(&controller)),
            ..ServeConfig::default()
        })
        .map_err(|e| e.to_string())?;
        Ok(Fleet {
            server,
            controller,
            dir,
        })
    }

    pub fn stop(self) {
        self.server.shutdown();
        self.controller.shutdown();
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Registers every job over two connections and applies the set-up
/// deltas, waiting for each phase's decisions.
fn set_up(label: &str, jobs: &[JobDef], warm: &[Delta]) -> Result<Fleet, String> {
    let fleet = Fleet::start(label, FleetConfig::default().replan_workers)?;
    let addr = fleet.server.addr();
    std::thread::scope(|scope| {
        let handles: Vec<_> = jobs
            .chunks(jobs.len().div_ceil(2))
            .map(|chunk| {
                scope.spawn(move || -> Result<(), String> {
                    let mut conn = open(addr)?;
                    for job in chunk {
                        call(&mut conn, "POST", "/fleet/register", &job.register_body())?;
                    }
                    Ok(())
                })
            })
            .collect();
        handles
            .into_iter()
            .try_for_each(|h| h.join().expect("a register thread panicked"))
    })?;
    let drained = |what: &str| {
        if fleet.controller.drain(Duration::from_secs(120)) {
            Ok(())
        } else {
            Err(format!("{what} did not finish planning within 120 s"))
        }
    };
    drained("registration")?;
    let mut conn = open(addr)?;
    for delta in warm {
        call(&mut conn, "POST", "/fleet/health", &delta.body())?;
    }
    drained("the set-up deltas")?;
    Ok(fleet)
}

/// Shared between the delta sender and the reader.
struct Shared {
    tracker: CommitTracker,
    /// Commit latency per delta, ms from its due time.
    committed_ms: Vec<Option<f64>>,
    /// Set once every delta is sent and committed (or given up on).
    done: bool,
}

/// What the delta sender saw.
#[derive(Default)]
struct Sent {
    lateness_ms: Vec<f64>,
    /// Outstanding deltas when each delta was sent.
    backlog: Vec<usize>,
    pending_replans_at_end: usize,
    failed: u64,
    error: Option<String>,
}

/// What the reader saw.
#[derive(Default)]
struct Read {
    latency_ms: Vec<f64>,
    lateness_ms: Vec<f64>,
    stale: u64,
    failed: u64,
    error: Option<String>,
}

/// Everything the sender thread needs to send deltas and detect commits.
struct Stream<'a> {
    deltas: &'a [Delta],
    jobs: &'a [JobDef],
    cluster_jobs: Vec<Vec<usize>>,
    start: Instant,
    shared: &'a Mutex<Shared>,
    controller: &'a FleetController,
}

impl Stream<'_> {
    /// Checks outstanding deltas in process until `until`, returning
    /// early once nothing is outstanding when `wait_idle` is false. Each
    /// check reads the decision document of the oldest delta's first
    /// unconfirmed job and waits [`POLL`] while that job is not yet
    /// committed, so a commit is seen within a poll interval of the last
    /// job's commit.
    fn detect(&self, until: Instant, wait_idle: bool) {
        loop {
            let target = self
                .shared
                .lock()
                .expect("the reader panicked")
                .tracker
                .next_target();
            let left = until.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return;
            }
            let Some(job) = target else {
                if wait_idle {
                    std::thread::sleep(left);
                }
                return;
            };
            let doc = self
                .controller
                .decision_doc(&self.jobs[job].id)
                .unwrap_or_default();
            let seen = Instant::now();
            let mut s = self.shared.lock().expect("the reader panicked");
            for index in s
                .tracker
                .observed(job, self.jobs[job].cluster, doc_epoch(&doc).0)
            {
                let due = self.start + Duration::from_secs_f64(self.deltas[index].due_s);
                s.committed_ms[index] = Some(seen.duration_since(due).as_secs_f64() * 1e3);
            }
            let waiting = s.tracker.next_target() == Some(job);
            drop(s);
            if waiting {
                std::thread::sleep(left.min(POLL));
            }
        }
    }

    /// Sends every delta at its due time, detecting commits in between,
    /// then waits for the last commits.
    fn send(&self, addr: std::net::SocketAddr, tracer: Option<&Tracer>) -> Sent {
        let mut sent = Sent::default();
        let mut conn = match open(addr) {
            Ok(conn) => conn,
            Err(e) => {
                sent.error = Some(e);
                sent.failed = self.deltas.len() as u64;
                self.shared.lock().expect("the reader panicked").done = true;
                return sent;
            }
        };
        for (i, delta) in self.deltas.iter().enumerate() {
            let due = self.start + Duration::from_secs_f64(delta.due_s);
            self.detect(due, true);
            sent.lateness_ms
                .push(Instant::now().duration_since(due).as_secs_f64() * 1e3);
            {
                let mut s = self.shared.lock().expect("the reader panicked");
                sent.backlog.push(s.tracker.outstanding());
                s.tracker.sent(
                    i,
                    delta.cluster,
                    delta.epoch,
                    self.cluster_jobs[delta.cluster].clone(),
                );
            }
            let outcome = maybe_span(tracer, "fleet.delta_post", i as u64, || {
                call(&mut conn, "POST", "/fleet/health", &delta.body())
            });
            match outcome {
                Ok(text) if text.contains(r#""applied":true"#) => {}
                Ok(text) => {
                    sent.failed += 1;
                    sent.error
                        .get_or_insert(format!("delta {i} was not applied: {text}"));
                }
                Err(e) => {
                    sent.failed += 1;
                    sent.error.get_or_insert(e);
                }
            }
        }
        sent.pending_replans_at_end = self.controller.pending_replans();
        self.detect(Instant::now() + COMMIT_GRACE, false);
        let mut s = self.shared.lock().expect("the reader panicked");
        if s.tracker.outstanding() > 0 {
            sent.error
                .get_or_insert("deltas still uncommitted after the grace period".into());
        }
        s.done = true;
        sent
    }
}

/// Reads random jobs' decision documents at [`READ_RATE`], each timed
/// from when it was due, until the sender is done.
fn read_jobs(
    addr: std::net::SocketAddr,
    seed: u64,
    start: Instant,
    shared: &Mutex<Shared>,
    jobs: &[JobDef],
    tracer: Option<&Tracer>,
) -> Read {
    let mut read = Read::default();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5ead);
    let mut conn = match open(addr) {
        Ok(conn) => conn,
        Err(e) => {
            read.error = Some(e);
            read.failed = 1;
            return read;
        }
    };
    for i in 0u64.. {
        let due = start + Duration::from_secs_f64(i as f64 / READ_RATE);
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        if shared.lock().expect("the sender panicked").done {
            break;
        }
        read.lateness_ms
            .push(Instant::now().duration_since(due).as_secs_f64() * 1e3);
        let path = format!("/fleet/job/{}", jobs[rng.random_range(0..jobs.len())].id);
        let outcome = maybe_span(tracer, "fleet.read", i, || {
            call(&mut conn, "GET", &path, "")
        });
        read.latency_ms.push(due.elapsed().as_secs_f64() * 1e3);
        match outcome {
            Ok(doc) => read.stale += u64::from(doc_epoch(&doc).1),
            Err(e) => {
                read.failed += 1;
                read.error.get_or_insert(e);
            }
        }
    }
    read
}

fn counter(entries: &[(String, f64)], name: &str) -> f64 {
    entries
        .iter()
        .find(|(k, _)| k == name)
        .map_or(0.0, |(_, v)| *v)
}

/// Checks every job's final document: the cluster's final epoch, not
/// stale, and a body equal to an in-process decision for that health.
/// Returns (jobs checked, jobs wrong, first problem).
fn check_final(
    controller: &FleetController,
    jobs: &[JobDef],
    all_deltas: &[&Delta],
) -> (u64, u64, Option<String>) {
    let mut last: HashMap<usize, &Delta> = HashMap::new();
    for d in all_deltas {
        last.insert(d.cluster, d);
    }
    let mut expected: HashMap<(usize, u64), Option<String>> = HashMap::new();
    let (mut wrong, mut first) = (0u64, None);
    for job in jobs {
        let (epoch, factor) = last
            .get(&job.cluster)
            .map_or((0, None), |d| (d.epoch, Some(d.factor)));
        let body = expected
            .entry((job.spec, factor.map_or(0, f64::to_bits)))
            .or_insert_with(|| {
                let mut req = DecisionRequest::parse(&spec_body(job.spec)).ok()?;
                if let Some(f) = factor {
                    req.health = espresso_cluster::ClusterHealth::inter_degraded(f);
                }
                decide(&req).ok().map(|d| Json::encode(&d.response()))
            })
            .clone();
        let doc = controller.decision_doc(&job.id).unwrap_or_default();
        let ok = match &body {
            Some(body) => {
                doc_epoch(&doc) == (epoch, false)
                    && doc.ends_with(&format!(r#""decision":{body}}}"#))
            }
            None => false,
        };
        if !ok {
            wrong += 1;
            first.get_or_insert_with(|| format!("job {} ends as {doc}", job.id));
        }
    }
    (jobs.len() as u64, wrong, first)
}

/// Runs the workload for `seconds` and checks every job's final state.
pub fn run(seed: u64, seconds: f64, tracer: Option<&Tracer>) -> Result<Live, String> {
    let jobs = jobs(seed);
    let (warm, stream) = deltas(seed, seconds);
    let mut setup_s = Vec::new();
    for k in 1..SETUPS {
        let t0 = Instant::now();
        let fleet = set_up(&format!("fleet{k}"), &jobs, &warm)?;
        setup_s.push(t0.elapsed().as_secs_f64());
        fleet.stop();
    }
    // The last set-up is the one measured.
    let t0 = Instant::now();
    let fleet = set_up("fleet", &jobs, &warm)?;
    setup_s.push(t0.elapsed().as_secs_f64());
    let addr = fleet.server.addr();
    let controller = Arc::clone(&fleet.controller);

    let mut cluster_jobs = vec![Vec::new(); CLUSTERS];
    for (i, job) in jobs.iter().enumerate() {
        cluster_jobs[job.cluster].push(i);
    }
    let shared = Mutex::new(Shared {
        tracker: CommitTracker::default(),
        committed_ms: vec![None; stream.len()],
        done: false,
    });
    let before = controller.metric_entries();
    let start = Instant::now() + Duration::from_millis(5);
    let sender = Stream {
        deltas: &stream,
        jobs: &jobs,
        cluster_jobs,
        start,
        shared: &shared,
        controller: &controller,
    };
    let (sent, read) = std::thread::scope(|scope| {
        let sending = scope.spawn(|| sender.send(addr, tracer));
        let reader = scope.spawn(|| read_jobs(addr, seed, start, &shared, &jobs, tracer));
        (
            sending.join().expect("the delta sender panicked"),
            reader.join().expect("the reader panicked"),
        )
    });
    let window_s = start.elapsed().as_secs_f64();
    let after = controller.metric_entries();
    let drained = controller.drain(COMMIT_GRACE);
    let all_deltas: Vec<&Delta> = warm.iter().chain(&stream).collect();
    let (checked, wrong, first_wrong) = check_final(&controller, &jobs, &all_deltas);
    drop(controller);
    fleet.stop();

    let committed = shared
        .into_inner()
        .expect("a generator thread panicked")
        .committed_ms;
    let mut live = Live::new(setup_s, window_s, 0.90, 0.99);
    for (i, ms) in committed.iter().enumerate() {
        if let Some(ms) = ms {
            live.main.push(*ms);
            live.per_op.push((i as u64, ms * 1e3));
        }
    }
    live.ops = live.main.len();
    live.side = read.latency_ms.clone();
    live.attempted = stream.len() as u64 + read.latency_ms.len() as u64 + checked;
    live.failed = sent.failed + read.failed + wrong;
    for (what, e) in [("delta sender", &sent.error), ("reader", &read.error)] {
        if let Some(e) = e {
            live.problems.push(format!("{what}: {e}"));
        }
    }
    let uncommitted = stream.len() - live.ops;
    if uncommitted > 0 {
        live.failed += uncommitted as u64;
        live.problems
            .push(format!("{uncommitted} deltas never committed"));
    }
    if !drained {
        live.problems
            .push("the re-plan queue did not drain after the stream".into());
    }
    if wrong > 0 {
        live.problems.push(format!(
            "{wrong} of {checked} jobs end in the wrong state; first: {}",
            first_wrong.unwrap_or_default()
        ));
    }
    // An open loop whose backlog grows measures the queue, not the
    // system: flag the run invalid rather than slow.
    let quarter = (sent.backlog.len() / 4).max(1);
    let mean = |v: &[usize]| v.iter().sum::<usize>() as f64 / v.len().max(1) as f64;
    let (early, late) = (
        mean(&sent.backlog[..quarter.min(sent.backlog.len())]),
        mean(&sent.backlog[sent.backlog.len().saturating_sub(quarter)..]),
    );
    if late > 2.0 * early + 3.0 {
        live.problems.push(format!(
            "invalid run: the backlog grew from {early:.1} to {late:.1} outstanding deltas"
        ));
    }
    let q = |v: &[f64], q: f64| crate::stats::quantile(v, q).map_or(f64::NAN, |x| x.value);
    live.notes.push(format!(
        "fleet-storm: {} deltas at {DELTA_RATE}/s, {} reads at {READ_RATE}/s in {window_s:.2} s; \
         delta lateness p50 {:.3} ms p99 {:.3} ms; read lateness p50 {:.3} ms p99 {:.3} ms; \
         outstanding deltas early {early:.2} late {late:.2}; re-plans pending at stream end {}",
        stream.len(),
        read.latency_ms.len(),
        q(&sent.lateness_ms, 0.5),
        q(&sent.lateness_ms, 0.99),
        q(&read.lateness_ms, 0.5),
        q(&read.lateness_ms, 0.99),
        sent.pending_replans_at_end,
    ));
    let applied = counter(&after, "fleet_health_deltas_applied")
        - counter(&before, "fleet_health_deltas_applied");
    let commits =
        counter(&after, "fleet_replans_committed") - counter(&before, "fleet_replans_committed");
    let batches = counter(&after, "fleet_replan_batch_size_count")
        - counter(&before, "fleet_replan_batch_size_count");
    let snapshots =
        counter(&after, "fleet_snapshots_taken") - counter(&before, "fleet_snapshots_taken");
    live.layer = vec![
        ("fleet.commits_per_delta".into(), commits / applied.max(1.0)),
        ("fleet.batch_size_mean".into(), commits / batches.max(1.0)),
        (
            "fleet.snapshots_per_delta".into(),
            snapshots / applied.max(1.0),
        ),
        (
            "fleet.read_stale_share".into(),
            read.stale as f64 / read.latency_ms.len().max(1) as f64,
        ),
    ];
    Ok(live)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epochs_are_read_from_job_documents() {
        let fresh = r#"{"job":"j","cluster":"c1","priority":3,"cluster_epoch":12,"epoch":12,"stale":false,"decision":{}}"#;
        assert_eq!(doc_epoch(fresh), (12, false));
        let stale = r#"{"job":"j","cluster":"c1","priority":3,"cluster_epoch":12,"epoch":9,"stale":true,"decision":{}}"#;
        assert_eq!(doc_epoch(stale), (9, true));
        let pending = r#"{"job":"j","cluster":"c1","priority":3,"cluster_epoch":4,"pending":true,"decision":null}"#;
        assert_eq!(doc_epoch(pending), (0, false));
    }

    #[test]
    fn a_delta_commits_once_every_job_on_its_cluster_reaches_its_epoch() {
        let mut t = CommitTracker::default();
        t.sent(0, 1, 5, vec![10, 11]);
        t.sent(1, 2, 3, vec![20]);
        // An older epoch, or a job of another cluster, confirms nothing.
        assert!(t.observed(10, 1, 4).is_empty());
        assert!(t.observed(20, 1, 9).is_empty());
        assert!(t.observed(10, 1, 5).is_empty());
        assert_eq!(t.outstanding(), 2);
        // A newer epoch than the delta's also confirms it.
        assert_eq!(t.observed(11, 1, 7), vec![0]);
        assert_eq!(t.observed(20, 2, 3), vec![1]);
        assert_eq!(t.outstanding(), 0);
        assert_eq!(t.next_target(), None);
    }

    #[test]
    fn one_read_can_complete_several_deltas_of_a_cluster() {
        let mut t = CommitTracker::default();
        t.sent(0, 0, 2, vec![1]);
        t.sent(1, 0, 3, vec![1]);
        assert_eq!(t.observed(1, 0, 3), vec![0, 1]);
    }

    #[test]
    fn detection_checks_the_oldest_delta_until_its_job_commits() {
        let mut t = CommitTracker::default();
        t.sent(0, 0, 2, vec![1, 2]);
        t.sent(1, 1, 2, vec![7]);
        assert_eq!(t.next_target(), Some(1));
        // Not yet committed: the same job stays next.
        assert!(t.observed(1, 0, 1).is_empty());
        assert_eq!(t.next_target(), Some(1));
        assert!(t.observed(1, 0, 2).is_empty());
        assert_eq!(t.next_target(), Some(2));
        assert_eq!(t.observed(2, 0, 2), vec![0]);
        assert_eq!(t.next_target(), Some(7));
    }

    #[test]
    fn the_stream_has_a_fixed_count_and_monotone_epochs() {
        let (warm, stream) = deltas(3, 10.0);
        assert_eq!(warm.len(), FACTORS.len());
        assert_eq!(stream.len(), (DELTA_RATE * 10.0) as usize);
        let mut epochs = [0u64; CLUSTERS];
        for d in warm.iter().chain(&stream) {
            assert_eq!(d.epoch, epochs[d.cluster] + 1);
            epochs[d.cluster] = d.epoch;
        }
        assert!(stream.windows(2).all(|w| w[0].due_s <= w[1].due_s));
    }

    #[test]
    fn groups_of_eight_share_a_spec_per_cluster() {
        let jobs = jobs(1);
        assert_eq!(jobs.len(), CLUSTERS * JOBS_PER_CLUSTER);
        let mut count: HashMap<(usize, usize), usize> = HashMap::new();
        for j in &jobs {
            *count.entry((j.cluster, j.spec)).or_default() += 1;
        }
        let groups = count.values().filter(|&&n| n == GROUP).count();
        let singles = count.values().filter(|&&n| n == 1).count();
        assert_eq!(groups, CLUSTERS * GROUPS_PER_CLUSTER);
        assert_eq!(
            singles,
            CLUSTERS * (JOBS_PER_CLUSTER - GROUPS_PER_CLUSTER * GROUP)
        );
    }
}
