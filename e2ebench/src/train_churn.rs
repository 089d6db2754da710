//! `train-churn`: the fault-tolerant training runtime under a seeded churn
//! plan, once per compression algorithm, repeated.
//!
//! Each run trains a 256→1024→4 MLP on 8 workers × batch 4 while workers
//! are preempted and re-join, checkpoints as it goes, and re-plans against
//! a modelled LSTM 2×4 PCIe job (cheap to re-plan, so the compression
//! kernels and the checkpoint dominate). Runs cycle through DGC 1 %,
//! EFSignSGD and FP16 until the window ends; a started cycle finishes.
//! After each run the benchmark loads the checkpoint the run left — what a
//! preempted job pays to resume — and checks it holds the final state bit
//! for bit.

use std::time::Instant;

use espresso_cluster::Cluster;
use espresso_gc::GcAlgorithm;
use espresso_models::Model;
use espresso_sim::Job;
use espresso_training::{
    CheckpointStore, Dataset, RuntimeConfig, RuntimeReport, TrainFaultPlan, TrainingRuntime,
};

use crate::trace::{maybe_span, Tracer};
use crate::Live;

pub const WORKERS: usize = 8;
pub const BATCH: usize = 4;
pub const DIMS: usize = 256;
pub const HIDDEN: usize = 1024;
pub const CLASSES: usize = 4;
/// Steps per run; each run checkpoints once, after its last step.
pub const STEPS: usize = 12;
const SETUPS: usize = 5;

/// The algorithms one cycle runs, with the names per-layer metrics use.
pub fn algorithms() -> [(&'static str, GcAlgorithm); 3] {
    [
        ("dgc", GcAlgorithm::Dgc { density: 0.01 }),
        ("efsignsgd", GcAlgorithm::EfSignSgd),
        ("fp16", GcAlgorithm::Fp16),
    ]
}

/// The modelled job re-plans price strategies against.
pub fn modelled_job(algo: GcAlgorithm) -> Job {
    Job::new(Model::Lstm.profile(), Cluster::pcie_25g(2, 4), algo)
}

/// The seeded training and evaluation sets.
pub fn datasets(seed: u64) -> (Dataset, Dataset) {
    Dataset::blobs(640, DIMS, CLASSES, 0.3, seed ^ 0x7a1).split(0.2)
}

/// The churn plan of the benchmark's `run`-th run. Every run gets its own
/// plan, so one benchmark run averages over many churn patterns instead of
/// inheriting the cost of one.
pub fn plan_seed(seed: u64, run: u64) -> u64 {
    seed.wrapping_add(run.wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

/// One run's configuration: the same seeds give the same run.
pub fn config(seed: u64, plan: u64, algo: GcAlgorithm, steps: usize) -> RuntimeConfig {
    let mut config = RuntimeConfig::for_job(modelled_job(algo), DIMS, CLASSES);
    config.workers = WORKERS;
    config.batch_per_worker = BATCH;
    config.hidden = HIDDEN;
    config.model_seed = seed ^ 0x5eed;
    config.steps = steps;
    config.eval_every = steps;
    config.checkpoint_every = Some(steps);
    config.faults = TrainFaultPlan::churn(plan, WORKERS, steps);
    config
}

pub fn train(
    seed: u64,
    plan: u64,
    algo: GcAlgorithm,
    steps: usize,
    store: Option<CheckpointStore>,
    data: &(Dataset, Dataset),
) -> Result<RuntimeReport, String> {
    let mut runtime = TrainingRuntime::new(config(seed, plan, algo, steps));
    if let Some(store) = store {
        runtime = runtime.with_store(store);
    }
    runtime.run(&data.0, &data.1).map_err(|e| e.to_string())
}

fn store(dir: &std::path::Path) -> Result<CheckpointStore, String> {
    CheckpointStore::new(dir).map_err(|e| format!("checkpoint store {}: {e}", dir.display()))
}

/// Set-up: the datasets, the churn plan's validation, and one fault-free
/// one-step run that pays first-touch costs (model initialisation, first
/// plan).
fn set_up(seed: u64) -> Result<(Dataset, Dataset), String> {
    let data = datasets(seed);
    let (_, algo) = algorithms()[0];
    config(seed, plan_seed(seed, 0), algo, STEPS)
        .faults
        .validate(WORKERS)
        .map_err(|e| format!("churn plan: {e}"))?;
    let mut warm_up = config(seed, 0, algo, 1);
    warm_up.faults = TrainFaultPlan::nominal();
    TrainingRuntime::new(warm_up)
        .run(&data.0, &data.1)
        .map_err(|e| e.to_string())?;
    Ok(data)
}

/// Runs the workload for `seconds` and checks every run's fingerprints.
pub fn run(seed: u64, seconds: f64, tracer: Option<&Tracer>) -> Result<Live, String> {
    let mut setup_s = Vec::new();
    let mut data = None;
    for _ in 0..SETUPS {
        let t0 = Instant::now();
        data = Some(set_up(seed)?);
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let data = data.expect("at least one set-up ran");
    let dir = crate::scratch("train")?;

    let started = Instant::now();
    let mut live = Live::new(setup_s, 0.0, 0.90, 0.90);
    let mut fingerprints = Vec::new();
    let mut replans = Vec::new();
    let mut run_id = 0u64;
    let mut training_s = 0.0;
    while started.elapsed().as_secs_f64() < seconds {
        for (name, algo) in algorithms() {
            let run_dir = dir.join(name);
            let plan = plan_seed(seed, run_id);
            let t0 = Instant::now();
            let report = maybe_span(tracer, "train.run", run_id, || {
                train(seed, plan, algo, STEPS, Some(store(&run_dir)?), &data)
            })?;
            let elapsed = t0.elapsed().as_secs_f64();
            training_s += elapsed;
            live.attempted += 1;
            live.ops += report.steps_run;
            live.main
                .push(elapsed * 1e3 / report.steps_run.max(1) as f64);
            live.per_op.push((run_id, elapsed * 1e6));
            replans.push(report.replans as f64);
            if !report.completed {
                live.failed += 1;
                live.problems
                    .push(format!("{name}: run {run_id} stopped early"));
            }
            if fingerprints.len() < algorithms().len() {
                fingerprints.push((
                    plan,
                    algo,
                    name,
                    report.state_fingerprint(),
                    report.weights_fingerprint(),
                ));
            }

            // Resume: load the checkpoint the run left, as a preempted job
            // would, and check it holds the run's final state.
            let t0 = Instant::now();
            let loaded = maybe_span(tracer, "train.resume", run_id, || {
                store(&run_dir)?.load().map_err(|e| e.to_string())
            })?;
            live.side.push(t0.elapsed().as_secs_f64() * 1e3);
            live.attempted += 1;
            if loaded.as_ref() != Some(&report.final_state) {
                live.failed += 1;
                live.problems.push(format!(
                    "{name}: the checkpoint left behind differs from the final state"
                ));
            }
            run_id += 1;
        }
    }
    // Repeat the first run of each algorithm, untimed: the same seeds must
    // reproduce the same final state bit for bit.
    for (plan, algo, name, state, weights) in fingerprints {
        let again = train(
            seed,
            plan,
            algo,
            STEPS,
            Some(store(&dir.join("repeat"))?),
            &data,
        )?;
        live.attempted += 1;
        if (again.state_fingerprint(), again.weights_fingerprint()) != (state, weights) {
            live.failed += 1;
            live.problems
                .push(format!("{name}: a repeated run ends in a different state"));
        }
    }
    // Steps per second of training: the resume checks between runs are
    // timed as the side operation, not charged to training.
    live.window_s = training_s;
    let _ = std::fs::remove_dir_all(&dir);
    live.layer = vec![("runtime.replans".into(), crate::stats::median(&replans))];
    live.notes.push(format!(
        "train-churn: {} runs of {STEPS} steps ({} steps) in {:.2} s of training, {:.2} s in all",
        run_id,
        live.ops,
        live.window_s,
        started.elapsed().as_secs_f64()
    ));
    Ok(live)
}
