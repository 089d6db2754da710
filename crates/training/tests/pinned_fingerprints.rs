//! Cross-build bit identity of training.
//!
//! Every other determinism test compares two runs made by the *same*
//! binary. This one hard-codes the final state and weight fingerprints of
//! small fault-injected runs, so a kernel rewrite, a compiler upgrade or a
//! debug/release switch that moves a single bit of a weight, an
//! error-feedback residual or an optimizer buffer fails here.
//!
//! The runs are shaped to reach every kernel path: tensor lengths that are
//! not multiples of 4, 8 or 64 (lane and word tails), a churn plan that
//! moves membership both ways (residual merge and split), and one adaptive
//! run whose per-tensor ratio plan changes mid-run (RandomK through the
//! default `Compressor::accumulate_into`).
//!
//! Every case runs at several thread counts — one, two, an uneven split of
//! the workers (three) and more threads than workers (eight) — and must
//! land on the same pinned values at each: the parallel step is
//! bit-identical for any thread count.
//!
//! If a change is *meant* to alter training numerics, record the new values
//! and say why in the commit message; otherwise a mismatch is a bug.

use espresso_cluster::Cluster;
use espresso_gc::GcAlgorithm;
use espresso_models::Model;
use espresso_sim::Job;
use espresso_training::{Dataset, RuntimeConfig, RuntimeReport, TrainFaultPlan, TrainingRuntime};

const WORKERS: usize = 4;
const DIMS: usize = 21;
const HIDDEN: usize = 37;
const CLASSES: usize = 3;
const STEPS: usize = 30;
const THREADS: [usize; 4] = [1, 2, 3, 8];

fn config(algo: GcAlgorithm, plan_seed: u64) -> RuntimeConfig {
    let job = Job::new(Model::Lstm.profile(), Cluster::pcie_25g(2, 2), algo);
    let mut cfg = RuntimeConfig::for_job(job, DIMS, CLASSES);
    cfg.workers = WORKERS;
    cfg.batch_per_worker = 6;
    cfg.hidden = HIDDEN;
    cfg.model_seed = 0x5eed;
    cfg.steps = STEPS;
    cfg.eval_every = 10;
    cfg.faults = TrainFaultPlan::churn(plan_seed, WORKERS, STEPS);
    assert!(
        !cfg.faults.crashes.is_empty() && !cfg.faults.rejoins.is_empty(),
        "churn seed {plan_seed} must move membership both ways"
    );
    cfg
}

fn run(cfg: RuntimeConfig) -> RuntimeReport {
    let (data, eval) = Dataset::blobs(200, DIMS, CLASSES, 0.4, 17).split(0.25);
    let report = TrainingRuntime::new(cfg).run(&data, &eval).unwrap();
    assert!(report.completed);
    report
}

fn fingerprints(report: &RuntimeReport) -> (String, String) {
    (
        format!("{:016x}", report.state_fingerprint()),
        format!("{:016x}", report.weights_fingerprint()),
    )
}

/// Runs `cfg` at every thread count and checks each run against the
/// pinned `(state, weights)` fingerprints. Returns the last report.
fn assert_pinned(name: &str, cfg: RuntimeConfig, state: &str, weights: &str) -> RuntimeReport {
    let mut last = None;
    for threads in THREADS {
        let report = run(RuntimeConfig {
            threads,
            ..cfg.clone()
        });
        let got = fingerprints(&report);
        assert_eq!(
            (got.0.as_str(), got.1.as_str()),
            (state, weights),
            "{name} at {threads} threads: (state, weights) fingerprints moved"
        );
        last = Some(report);
    }
    last.expect("at least one thread count")
}

#[test]
fn dgc_churn_run_is_pinned() {
    let cfg = config(GcAlgorithm::Dgc { density: 0.05 }, 3);
    assert_pinned("dgc", cfg, "3b0dca6058a8c8e8", "ec932f9f503c8ff7");
}

#[test]
fn efsignsgd_churn_run_is_pinned() {
    let cfg = config(GcAlgorithm::EfSignSgd, 7);
    assert_pinned("efsignsgd", cfg, "0f021161c10ee0ee", "d1b7ed1a0ee3143f");
}

#[test]
fn fp16_churn_run_is_pinned() {
    let cfg = config(GcAlgorithm::Fp16, 7);
    assert_pinned("fp16", cfg, "6e8583674daade63", "c053e2fd5c75a4c2");
}

#[test]
fn adaptive_ratio_run_is_pinned() {
    let mut cfg = config(GcAlgorithm::RandomK { density: 0.05 }, 3);
    cfg.adapt = Some(espresso_adapt::ControllerConfig {
        low: 0.2,
        high: 0.6,
        patience: 1,
        cooldown: 0,
    });
    let report = assert_pinned(
        "adaptive randomk",
        cfg,
        "f47cddf50d6fc225",
        "c8d0b74c5e23e0f6",
    );
    let adjustments = report
        .final_state
        .controller
        .as_ref()
        .map_or(0, |c| c.adjustments());
    assert!(adjustments >= 1, "the ratio plan never moved");
}
