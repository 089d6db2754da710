//! The traced run's replay: the same generated inputs, single-threaded,
//! through each layer's public functions, with a span around every call.
//!
//! Every traced run replays all three input sets, so it reports every
//! per-layer metric; the traced workload's own set is replayed under the
//! request spans its live half recorded, so each layer span is a child of
//! the request span it replays. The per-layer values are medians over the
//! replayed calls, except where a live run observes a layer better (the
//! fleet's counters under load, the training runtime's re-plans), which
//! the live run's values replace.

use std::collections::HashMap;
use std::time::Duration;

use espresso::config::build_job;
use espresso::service::{Decision, DecisionRequest};
use espresso::{replan_with_context, Espresso, ReplanContext, RobustSelector, WarmStartCache};
use espresso_cluster::ClusterHealth;
use espresso_gc::aggregate::synchronize_masked;
use espresso_gc::{CompressCtx, ErrorFeedback};
use espresso_json::{FromJson, Json};
use espresso_serve::client::Connection;
use espresso_serve::fleet::{HealthDelta, JobSpec};
use espresso_serve::{fnv1a64, parse_request, Journal, Limits, Parsed, ShardedLru, SnapshotStore};
use espresso_sim::Simulator;
use espresso_training::{CheckpointStore, Mlp, Optimizer};

use crate::stats::median;
use crate::trace::Tracer;
use crate::{decide_mix, fleet_storm, train_churn, Live};

/// Requests of connection 0's decide stream replayed.
const DECIDE_REQUESTS: u64 = 200;
/// Stream deltas replayed.
const FLEET_DELTAS: usize = 12;
/// Training steps replayed per algorithm.
const TRAIN_STEPS: usize = 4;

type Metrics = Vec<(String, f64, &'static str)>;

/// Records layer spans under one replayed operation.
struct Op<'a> {
    tracer: &'a Tracer,
    parent: u64,
    request: u64,
    /// Microseconds per layer span name, for this operation.
    layers: Vec<(&'static str, f64)>,
}

impl<'a> Op<'a> {
    /// Starts replaying request `request`: under its live span when the
    /// live half recorded one, else under a replay span of its own.
    fn new(tracer: &'a Tracer, live: &HashMap<u64, u64>, request: u64) -> Self {
        let parent = live
            .get(&request)
            .copied()
            .unwrap_or_else(|| tracer.span("replay.request", None, request, || ()).1);
        Self {
            tracer,
            parent,
            request,
            layers: Vec::new(),
        }
    }

    fn layer<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start = std::time::Instant::now();
        let (out, _) = self.tracer.span(name, Some(self.parent), self.request, f);
        self.layers
            .push((name, start.elapsed().as_secs_f64() * 1e6));
        out
    }

    /// A span under the operation that is not one of its steps.
    fn probe<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.tracer.span(name, Some(self.parent), self.request, f).0
    }

    fn total_us(&self) -> f64 {
        self.layers.iter().map(|(_, us)| us).sum()
    }
}

/// Live request spans of one kind, keyed by request id.
fn live_spans(tracer: &Tracer, name: &str) -> HashMap<u64, u64> {
    tracer
        .spans()
        .into_iter()
        .filter(|s| s.name == name)
        .map(|s| (s.request, s.id))
        .collect()
}

/// Median duration of spans called `name`, in `scale` units per µs.
fn span_median(tracer: &Tracer, name: &str, scale: f64) -> f64 {
    median(&tracer.micros(name)) * scale
}

/// 1 − (layer time of the replayed operations) / (their untraced
/// end-to-end time), over the operations both saw.
fn unattributed(ops: &[(u64, f64)], untraced: &Live) -> f64 {
    let e2e: HashMap<u64, f64> = untraced.per_op.iter().copied().collect();
    let (mut layers, mut total) = (0.0, 0.0);
    for (id, us) in ops {
        if let Some(t) = e2e.get(id) {
            layers += us;
            total += t;
        }
    }
    if total > 0.0 {
        1.0 - layers / total
    } else {
        f64::NAN
    }
}

fn decide_layers(tracer: &Tracer, seed: u64, out: &mut Metrics) -> Result<Vec<(u64, f64)>, String> {
    let live = live_spans(tracer, "decide.request");
    let limits = Limits::default();
    let cache = ShardedLru::new(1024, 8);
    let warm = WarmStartCache::new(1024, 8);
    // The set-up primes the pool; the replay does too.
    for spec in decide_mix::pool() {
        let key = fnv1a64(
            DecisionRequest::parse(&spec.body())
                .map_err(|e| e.to_string())?
                .canonical_key()
                .as_bytes(),
        );
        cache.insert(key, std::sync::Arc::new(Vec::new()));
    }
    let mut stream = decide_mix::Stream::new(seed, 0);
    let mut reports = Vec::new();
    let (mut bytes, mut hits, mut lookups) = (Vec::new(), 0u64, 0u64);
    let mut ops = Vec::new();
    for index in 0..DECIDE_REQUESTS {
        let request = stream.next_request();
        let mut op = Op::new(tracer, &live, decide_mix::request_id(0, index));
        let raw = decide_mix::wire_request(&request.body);
        let parsed = op.layer("http.parse", || parse_request(&raw, &limits));
        let Ok(Parsed::Complete { request: http, .. }) = parsed else {
            return Err(format!("replayed request {index} did not parse"));
        };
        let text = String::from_utf8(http.body).map_err(|e| e.to_string())?;
        let req = op
            .layer("service.parse", || DecisionRequest::parse(&text))
            .map_err(|e| e.to_string())?;
        let key = op.layer("service.key", || fnv1a64(req.canonical_key().as_bytes()));
        lookups += 1;
        if op.layer("cache.get", || cache.get(key)).is_some() {
            hits += 1;
        } else {
            let job = op
                .layer("config.build_job", || {
                    build_job(&req.model, &req.gc, &req.system, None)
                })
                .map_err(|e| e.to_string())?;
            let nominal_key = op.layer("warm.key", || WarmStartCache::nominal_key(&job));
            let (strategy, report) = match warm.get_nominal(&nominal_key) {
                Some(sel) => (sel.0.clone(), sel.1.clone()),
                None => {
                    let espresso = Espresso::new(job.clone());
                    let sel = op.layer("espresso.select", || espresso.select_strategy());
                    let sim = Simulator::new(job.clone(), *espresso.config());
                    // Not on the request path: timed, but left out of the ledger.
                    op.probe("sim.simulate", || sim.simulate(&sel.0));
                    reports.push(sel.1.clone());
                    warm.insert_nominal(nominal_key, sel.clone());
                    sel
                }
            };
            let robust = if req.health.is_nominal() {
                None
            } else {
                let robust_key = op.layer("warm.key", || {
                    WarmStartCache::robust_key(&job, &req.health, None)
                });
                match warm.get_robust(&robust_key) {
                    Some(sel) => Some((*sel).clone()),
                    None => {
                        let selector = RobustSelector::new(job.clone(), req.health);
                        let sel = op
                            .layer("robust.select", || selector.select())
                            .map_err(|e| e.to_string())?;
                        warm.insert_robust(robust_key, sel.clone());
                        Some(sel)
                    }
                }
            };
            let decision = Decision {
                job,
                strategy,
                report,
                fault_plan: None,
                faulted_iteration_time: None,
                robust,
            };
            let body = op.layer("json.encode", || Json::encode(&decision.response()));
            bytes.push(body.len() as f64);
            cache.insert(key, std::sync::Arc::new(body.into_bytes()));
        }
        stream.answered(&request);
        ops.push((op.request, op.total_us()));
    }
    let us = |name| span_median(tracer, name, 1.0);
    let ms = |name| span_median(tracer, name, 1e-3);
    let of = |f: fn(&espresso::Report) -> f64| median(&reports.iter().map(f).collect::<Vec<_>>());
    let alg1_ms = of(|r| r.gpu_decision_seconds * 1e3);
    let sims = of(|r| r.gpu_simulations as f64);
    out.extend([
        ("http.parse_us".into(), us("http.parse"), "us"),
        ("service.parse_us".into(), us("service.parse"), "us"),
        ("service.key_us".into(), us("service.key"), "us"),
        ("cache.get_us".into(), us("cache.get"), "us"),
        (
            "cache.hit_ratio".into(),
            hits as f64 / lookups.max(1) as f64,
            "share",
        ),
        ("config.build_job_us".into(), us("config.build_job"), "us"),
        ("warm.key_us".into(), us("warm.key"), "us"),
        (
            "warm.hit_ratio".into(),
            warm.hits() as f64 / (warm.hits() + warm.misses()).max(1) as f64,
            "share",
        ),
        ("espresso.select_ms".into(), ms("espresso.select"), "ms"),
        ("espresso.alg1_ms".into(), alg1_ms, "ms"),
        (
            "espresso.alg2_ms".into(),
            of(|r| r.offload_seconds * 1e3),
            "ms",
        ),
        (
            "espresso.backfill_ms".into(),
            of(|r| r.backfill_seconds * 1e3),
            "ms",
        ),
        ("espresso.gpu_sims".into(), sims, "count"),
        (
            "espresso.offload_combos".into(),
            of(|r| r.offload_combinations as f64),
            "count",
        ),
        ("sim.simulate_us".into(), us("sim.simulate"), "us"),
        ("sim.us_per_sim".into(), alg1_ms * 1e3 / sims.max(1.0), "us"),
        ("robust.select_ms".into(), ms("robust.select"), "ms"),
        ("json.encode_us".into(), us("json.encode"), "us"),
        ("json.response_bytes".into(), median(&bytes), "bytes"),
    ]);
    Ok(ops)
}

fn counter(entries: &[(String, f64)], name: &str) -> f64 {
    entries
        .iter()
        .find(|(k, _)| k == name)
        .map_or(0.0, |(_, v)| *v)
}

fn fleet_layers(
    tracer: &Tracer,
    seed: u64,
    seconds: f64,
    out: &mut Metrics,
) -> Result<Vec<(u64, f64)>, String> {
    let live = live_spans(tracer, "fleet.delta_post");
    let jobs = fleet_storm::jobs(seed);
    // The live half's stream, cut to its first deltas.
    let (warm, mut stream) = fleet_storm::deltas(seed, seconds);
    stream.truncate(FLEET_DELTAS);
    // No planner threads: the replay commits each wave itself.
    let fleet = fleet_storm::Fleet::start("replay-fleet", 0)?;
    let controller = &fleet.controller;
    let delta = |d: &fleet_storm::Delta| {
        Json::parse(&d.body())
            .map_err(|e| e.to_string())
            .and_then(|v| HealthDelta::from_json(&v).map_err(|e| e.to_string()))
    };
    let root = tracer.span("replay.fleet.setup", None, 0, || ()).1;
    for (i, job) in jobs.iter().enumerate() {
        let spec = Json::parse(&job.register_body())
            .map_err(|e| e.to_string())
            .and_then(|v| JobSpec::from_json(&v).map_err(|e| e.to_string()))?;
        tracer
            .span("fleet.register", Some(root), i as u64, || {
                controller.register(spec)
            })
            .0
            .map_err(|e| e.to_string())?;
    }
    controller.run_pending();
    for d in &warm {
        controller
            .apply_health(&delta(d)?)
            .map_err(|e| e.to_string())?;
        controller.run_pending();
    }

    let mut conn = Connection::open(fleet.server.addr(), Duration::from_secs(30))
        .map_err(|e| e.to_string())?;
    let mut journal = Journal::open(fleet.dir.join("replay-journal.log"))
        .map_err(|e| e.to_string())?
        .0;
    let (mut commits, mut batches, mut snapshots, mut bytes_per_commit) =
        (0.0, 0.0, 0.0, Vec::new());
    let (mut reads, mut stale) = (0u64, 0u64);
    let mut ops = Vec::new();
    for (i, d) in stream.iter().enumerate() {
        let mut op = Op::new(tracer, &live, i as u64);
        let before = controller.metric_entries();
        // Alternate the direct call and the HTTP route into it.
        if i % 2 == 0 {
            let delta = delta(d)?;
            op.layer("fleet.apply_health", || controller.apply_health(&delta))
                .map_err(|e| e.to_string())?;
        } else {
            let body = d.body();
            let resp = op
                .layer("fleet.delta_post", || {
                    conn.request("POST", "/fleet/health", body.as_bytes())
                })
                .map_err(|e| e.to_string())?;
            if resp.status != 200 {
                return Err(format!("replayed delta {i}: status {}", resp.status));
            }
        }
        op.layer("fleet.commit", || controller.run_pending());
        let after = controller.metric_entries();
        let diff = |name| counter(&after, name) - counter(&before, name);
        commits += diff("fleet_replans_committed");
        batches += diff("fleet_replan_batch_size_count");
        snapshots += diff("fleet_snapshots_taken");
        if diff("fleet_snapshots_taken") == 0.0 && diff("fleet_replans_committed") > 0.0 {
            bytes_per_commit.push(diff("fleet_journal_bytes") / diff("fleet_replans_committed"));
        }
        // Reads of the committed jobs, and appends of their documents to a
        // journal of the replay's own: layer probes, not steps of the
        // delta, so they stay out of its ledger.
        for job in jobs.iter().filter(|j| j.cluster == d.cluster).take(8) {
            let payload = op
                .probe("fleet.decision_doc", || controller.decision_doc(&job.id))
                .unwrap_or_default();
            reads += 1;
            stale += u64::from(fleet_storm::doc_epoch(&payload).1);
            op.probe("journal.append", || {
                journal.append(reads, payload.as_bytes())
            })
            .map_err(|e| e.to_string())?;
        }
        ops.push((op.request, op.total_us()));
    }
    let payload = SnapshotStore::new(&fleet.dir)
        .and_then(|s| s.load())
        .map_err(|e| e.to_string())?
        .map(|(payload, _)| payload)
        .unwrap_or_default();
    let copies =
        SnapshotStore::new(fleet.dir.join("replay-snapshots")).map_err(|e| e.to_string())?;
    for i in 0..3 {
        tracer
            .span("journal.snapshot_save", Some(root), i, || {
                copies.save(&payload)
            })
            .0
            .map_err(|e| e.to_string())?;
    }
    drop(conn);
    fleet.stop();
    let applied = stream.len() as f64;
    out.extend([
        (
            "fleet.apply_health_ms".into(),
            span_median(tracer, "fleet.apply_health", 1e-3),
            "ms",
        ),
        (
            "fleet.delta_post_ms".into(),
            span_median(tracer, "fleet.delta_post", 1e-3),
            "ms",
        ),
        ("fleet.commits_per_delta".into(), commits / applied, "count"),
        (
            "fleet.batch_size_mean".into(),
            commits / batches.max(1.0),
            "count",
        ),
        (
            "fleet.snapshots_per_delta".into(),
            snapshots / applied,
            "count",
        ),
        (
            "fleet.journal_bytes_per_commit".into(),
            median(&bytes_per_commit),
            "bytes",
        ),
        (
            "journal.append_us".into(),
            span_median(tracer, "journal.append", 1.0),
            "us",
        ),
        (
            "journal.snapshot_save_ms".into(),
            span_median(tracer, "journal.snapshot_save", 1e-3),
            "ms",
        ),
        (
            "journal.snapshot_bytes".into(),
            payload.len() as f64,
            "bytes",
        ),
        (
            "fleet.read_stale_share".into(),
            stale as f64 / reads.max(1) as f64,
            "share",
        ),
        (
            "fleet.decision_doc_us".into(),
            span_median(tracer, "fleet.decision_doc", 1.0),
            "us",
        ),
        (
            "fleet.register_ms".into(),
            span_median(tracer, "fleet.register", 1e-3),
            "ms",
        ),
    ]);
    Ok(ops)
}

fn train_layers(
    tracer: &Tracer,
    seed: u64,
    out: &mut Metrics,
) -> Result<HashMap<&'static str, f64>, String> {
    use train_churn::{BATCH, CLASSES, DIMS, HIDDEN, WORKERS};
    let data = train_churn::datasets(seed);
    let shards = data.0.shards(WORKERS);
    let model = Mlp::new(DIMS, HIDDEN, CLASSES, seed ^ 0x5eed);
    let root = tracer.span("replay.train", None, 0, || ()).1;
    let span = |name: &str, f: &mut dyn FnMut()| tracer.span(name, Some(root), 0, f).0;

    // Gradients of every worker for each replayed step.
    let mut grads: Vec<Vec<Vec<Vec<f32>>>> = Vec::new();
    for step in 0..TRAIN_STEPS {
        let per_worker = (0..WORKERS)
            .map(|w| {
                let shard = &shards[w];
                let batch: Vec<usize> = (0..BATCH)
                    .map(|b| (step * BATCH + b + w * 13) % shard.len())
                    .collect();
                let mut out = Vec::new();
                span("mlp.loss_and_grads", &mut || {
                    out = model.loss_and_grads(shard, &batch).1
                });
                out
            })
            .collect();
        grads.push(per_worker);
    }
    let mlp_ms = span_median(tracer, "mlp.loss_and_grads", 1e-3);
    out.push(("mlp.loss_and_grads_ms".into(), mlp_ms, "ms"));

    // Each algorithm's kernels and synchronisation over the same gradients.
    let mut per_step_ms = HashMap::new();
    let mut optimizer = Optimizer::sgd(0.25);
    let mut optimizer_ms = Vec::new();
    for (name, algo) in train_churn::algorithms() {
        let compressor = algo.build();
        let mut ef: Vec<Vec<ErrorFeedback>> = (0..model.num_tensors())
            .map(|t| {
                (0..WORKERS)
                    .map(|_| ErrorFeedback::new(model.tensor_len(t)))
                    .collect()
            })
            .collect();
        let (mut sync_ms, mut wire) = (Vec::new(), Vec::new());
        let (mut elems, mut compress_s, mut decompress_s) = (0usize, 0.0, 0.0);
        for (step, per_worker) in grads.iter().enumerate() {
            let mut synced = Vec::new();
            let t0 = std::time::Instant::now();
            for (t, states) in ef.iter_mut().enumerate() {
                let tensor: Vec<Vec<f32>> = per_worker.iter().map(|g| g[t].clone()).collect();
                let mut out = Vec::new();
                span(&format!("aggregate.sync.{name}"), &mut || {
                    out = synchronize_masked(
                        compressor.as_ref(),
                        &tensor,
                        states,
                        step as u64,
                        t as u64,
                        None,
                    );
                });
                synced.push(out);
            }
            sync_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            let mut step_wire = 0usize;
            for (w, worker) in per_worker.iter().enumerate() {
                for (t, grad) in worker.iter().enumerate() {
                    let ctx = CompressCtx {
                        round: step as u64,
                        worker: w as u64,
                        tensor: t as u64,
                    };
                    let t0 = std::time::Instant::now();
                    let blob = std::hint::black_box(compressor.compress(grad, ctx));
                    compress_s += t0.elapsed().as_secs_f64();
                    let t0 = std::time::Instant::now();
                    std::hint::black_box(compressor.decompress(&blob));
                    decompress_s += t0.elapsed().as_secs_f64();
                    elems += grad.len();
                    step_wire += blob.wire_bytes();
                }
            }
            wire.push(step_wire as f64);
            let t0 = std::time::Instant::now();
            span("optimizer.step", &mut || {
                std::hint::black_box(optimizer.step(&synced));
            });
            optimizer_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        }
        per_step_ms.insert(name, median(&sync_ms));
        out.extend([
            (format!("aggregate.sync_ms.{name}"), median(&sync_ms), "ms"),
            (
                format!("gc.compress_melem_s.{name}"),
                elems as f64 / compress_s / 1e6,
                "Melem/s",
            ),
            (
                format!("gc.decompress_melem_s.{name}"),
                elems as f64 / decompress_s / 1e6,
                "Melem/s",
            ),
            (
                format!("gc.wire_bytes_per_step.{name}"),
                median(&wire),
                "bytes",
            ),
        ]);
    }
    let optimizer_ms = median(&optimizer_ms);

    // A short churn run gives a real trainer state to checkpoint.
    let (_, dgc) = train_churn::algorithms()[0];
    let report = train_churn::train(seed, train_churn::plan_seed(seed, 0), dgc, 2, None, &data)?;
    let dir = crate::scratch("replay-train")?;
    let store = CheckpointStore::new(&dir).map_err(|e| e.to_string())?;
    for _ in 0..3 {
        let mut saved = Ok(());
        span("checkpoint.save", &mut || {
            saved = store.save(&report.final_state)
        });
        saved.map_err(|e| e.to_string())?;
    }
    let bytes = std::fs::metadata(store.current_path())
        .map_err(|e| e.to_string())?
        .len();
    let _ = std::fs::remove_dir_all(&dir);
    let save_ms = span_median(tracer, "checkpoint.save", 1e-3);

    let job = train_churn::modelled_job(dgc);
    let current = Espresso::new(job.clone()).select_strategy().0;
    for _ in 0..3 {
        let mut ctx = ReplanContext::new();
        let mut replanned = Ok(());
        span("robust.replan", &mut || {
            replanned = replan_with_context(
                &mut ctx,
                &job,
                &ClusterHealth::inter_degraded(2.0),
                &current,
            )
            .map(|_| ());
        });
        replanned.map_err(|e| e.to_string())?;
    }
    out.extend([
        ("optimizer.step_ms".into(), optimizer_ms, "ms"),
        ("checkpoint.save_ms".into(), save_ms, "ms"),
        ("checkpoint.bytes".into(), bytes as f64, "bytes"),
        ("runtime.replans".into(), report.replans as f64, "count"),
        (
            "robust.replan_ms".into(),
            span_median(tracer, "robust.replan", 1e-3),
            "ms",
        ),
    ]);
    // Layer time of one run of each algorithm, for the ledger.
    let steps = train_churn::STEPS as f64;
    Ok(per_step_ms
        .into_iter()
        .map(|(name, sync)| {
            (
                name,
                steps * (WORKERS as f64 * mlp_ms + sync + optimizer_ms) + save_ms,
            )
        })
        .collect())
}

/// Replays every input set and returns every per-layer metric.
/// Replays the inputs the live halves generated from `seed` over
/// `seconds` each.
pub fn run(
    workload: &str,
    seed: u64,
    seconds: f64,
    tracer: &Tracer,
    untraced: &Live,
    live: &Live,
) -> Result<Metrics, String> {
    let mut out = Metrics::new();
    let decide_ops = decide_layers(tracer, seed, &mut out)?;
    let fleet_ops = fleet_layers(tracer, seed, seconds, &mut out)?;
    let train_runs = train_layers(tracer, seed, &mut out)?;
    let unattributed = match workload {
        "decide-mix" => unattributed(&decide_ops, untraced),
        "fleet-storm" => unattributed(&fleet_ops, untraced),
        _ => {
            // Untraced runs cycle through the algorithms in order.
            let names: Vec<&str> = train_churn::algorithms().iter().map(|(n, _)| *n).collect();
            let ops: Vec<(u64, f64)> = untraced
                .per_op
                .iter()
                .map(|(id, _)| (*id, train_runs[names[*id as usize % names.len()]] * 1e3))
                .collect();
            unattributed(&ops, untraced)
        }
    };
    out.push(("bench.unattributed_share".into(), unattributed, "share"));
    // What the live run observed under load replaces the replay's value.
    for (name, value) in &live.layer {
        if let Some(entry) = out.iter_mut().find(|(n, _, _)| n == name) {
            entry.1 = *value;
        }
    }
    Ok(out)
}
