//! Cross-crate integration tests of the fault-tolerant training runtime:
//! the bitwise-resume guarantee, corrupt-checkpoint fallback, elastic
//! recovery with online re-planning, and the degradation-monitor FP32
//! fallback — each scenario driven end-to-end through the public
//! `TrainingRuntime` API with seeded, bit-reproducible fault plans.

use std::fs;
use std::path::PathBuf;

use espresso_repro::cluster::Cluster;
use espresso_repro::gc::GcAlgorithm;
use espresso_repro::models::Model;
use espresso_repro::sim::Job;
use espresso_repro::training::checkpoint::CheckpointStore;
use espresso_repro::training::faults::TrainFaultPlan;
use espresso_repro::training::runtime::{RuntimeConfig, RuntimeEvent, TrainingRuntime};
use espresso_repro::training::{Dataset, SyncMode};

fn config() -> RuntimeConfig {
    let job = Job::new(
        Model::Lstm.profile(),
        Cluster::pcie_25g(2, 2),
        GcAlgorithm::RandomK { density: 0.05 },
    );
    let mut cfg = RuntimeConfig::for_job(job, 8, 3);
    cfg.steps = 90;
    cfg.eval_every = 30;
    cfg
}

fn data() -> (Dataset, Dataset) {
    Dataset::blobs(280, 8, 3, 0.2, 17).split(0.25)
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("espresso-ft-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// The headline guarantee: crash at step k, resume from the newest
/// checkpoint, and the final state — every weight bit, optimizer buffer,
/// error-feedback residual, and bookkeeping counter — is identical to a
/// run that was never interrupted. Run under an active fault plan so the
/// equality also covers re-plans and monitor state.
#[test]
fn crash_and_resume_is_bitwise_identical_to_uninterrupted() {
    let (train, eval) = data();
    let faults = |cfg: &RuntimeConfig| {
        TrainFaultPlan::parse("crash=20:2,slow=40-70:4.0", cfg.workers, cfg.steps).unwrap()
    };

    let mut reference = config();
    reference.faults = faults(&reference);
    let uninterrupted = TrainingRuntime::new(reference).run(&train, &eval).unwrap();
    assert!(uninterrupted.completed);

    let dir = scratch("bitwise");
    let mut first = config();
    first.faults = faults(&first);
    first.checkpoint_every = Some(15);
    first.halt_at = Some(50);
    let halted = TrainingRuntime::new(first)
        .with_store(CheckpointStore::new(&dir).unwrap())
        .run(&train, &eval)
        .unwrap();
    assert!(!halted.completed, "halt_at must interrupt the run");

    let mut second = config();
    second.faults = faults(&second);
    second.resume = true;
    let resumed = TrainingRuntime::new(second)
        .with_store(CheckpointStore::new(&dir).unwrap())
        .run(&train, &eval)
        .unwrap();
    assert!(resumed.completed);
    assert!(
        matches!(resumed.events[0], RuntimeEvent::Resumed { step: 45 }),
        "resume starts from the newest checkpoint: {:?}",
        resumed.events
    );
    assert_eq!(
        resumed.weights_fingerprint(),
        uninterrupted.weights_fingerprint(),
        "weights diverged across crash + resume"
    );
    assert_eq!(
        resumed.state_fingerprint(),
        uninterrupted.state_fingerprint(),
        "full trainer state diverged across crash + resume"
    );
    let _ = fs::remove_dir_all(&dir);
}

/// Corrupting the newest checkpoint must not panic and must not lose the
/// run: load falls back to the previous intact generation and resumes
/// from there.
#[test]
fn corrupt_current_checkpoint_falls_back_to_previous_generation() {
    let (train, eval) = data();
    let dir = scratch("corrupt");

    let mut first = config();
    first.checkpoint_every = Some(15);
    first.halt_at = Some(50);
    TrainingRuntime::new(first)
        .with_store(CheckpointStore::new(&dir).unwrap())
        .run(&train, &eval)
        .unwrap();

    // Tear the newest checkpoint (45); the 30-step generation survives.
    let store = CheckpointStore::new(&dir).unwrap();
    let current = store.current_path();
    let mut bytes = fs::read(&current).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x41;
    fs::write(&current, &bytes).unwrap();

    let mut second = config();
    second.resume = true;
    let resumed = TrainingRuntime::new(second)
        .with_store(CheckpointStore::new(&dir).unwrap())
        .run(&train, &eval)
        .unwrap();
    assert!(
        matches!(resumed.events[0], RuntimeEvent::Resumed { step: 30 }),
        "resume falls back to the previous generation: {:?}",
        resumed.events
    );
    assert!(resumed.completed);

    // And the result still matches the uninterrupted run bit-for-bit.
    let uninterrupted = TrainingRuntime::new(config()).run(&train, &eval).unwrap();
    assert_eq!(resumed.state_fingerprint(), uninterrupted.state_fingerprint());
    let _ = fs::remove_dir_all(&dir);
}

/// A worker crash combined with fabric degradation forces elastic
/// recovery: the shard is redistributed, the strategy is re-planned
/// online against the shrunken degraded cluster, and the re-plan actually
/// changes the strategy.
#[test]
fn worker_crash_under_degradation_replans_online() {
    let (train, eval) = data();
    let mut cfg = config();
    cfg.faults =
        TrainFaultPlan::parse("crash=25:1,degrade=25:3.0", cfg.workers, cfg.steps).unwrap();
    let report = TrainingRuntime::new(cfg).run(&train, &eval).unwrap();
    assert!(report.completed);
    assert!(
        report
            .events
            .iter()
            .any(|e| matches!(e, RuntimeEvent::WorkerLost { step: 25, worker: 1 })),
        "events: {:?}",
        report.events
    );
    assert!(
        report
            .events
            .iter()
            .any(|e| matches!(e, RuntimeEvent::HealthChanged { step: 25 })),
        "events: {:?}",
        report.events
    );
    let replanned = report
        .events
        .iter()
        .find_map(|e| match e {
            RuntimeEvent::Replanned { step: 25, changed, .. } => Some(*changed),
            _ => None,
        })
        .expect("crash + degradation triggers an online re-plan");
    assert!(replanned, "re-plan against a 3-worker degraded cluster must change the strategy");
    assert!(report.replans >= 1);
    assert_eq!(report.final_state.membership.alive_count(), 3);
    // Training kept converging through the recovery.
    assert!(
        report.final_accuracy() > 0.9,
        "accuracy {}",
        report.final_accuracy()
    );
}

/// A sustained slow window drives observed iteration times far past the
/// prediction: the degradation monitor trips, the runtime swaps to the
/// BytePS-FP32 fallback (compression off), and once the window passes a
/// sustained healthy streak restores the configured compressed mode.
#[test]
fn degradation_monitor_trips_to_fp32_fallback_and_recovers() {
    let (train, eval) = data();
    let mut cfg = config();
    cfg.recovery_patience = 4;
    cfg.faults = TrainFaultPlan::parse("slow=15-55:5.0", cfg.workers, cfg.steps).unwrap();
    assert!(matches!(cfg.mode, SyncMode::Compressed(_)));
    let report = TrainingRuntime::new(cfg).run(&train, &eval).unwrap();
    assert!(report.completed);
    assert_eq!(report.fallback_trips, 1, "events: {:?}", report.events);
    let engaged = report
        .events
        .iter()
        .find_map(|e| match e {
            RuntimeEvent::FallbackEngaged { step } => Some(*step),
            _ => None,
        })
        .expect("monitor trips inside the slow window");
    assert!(
        (15..55).contains(&engaged),
        "fallback engaged at {engaged}, outside the slow window"
    );
    let recovered = report
        .events
        .iter()
        .find_map(|e| match e {
            RuntimeEvent::FallbackRecovered { step } => Some(*step),
            _ => None,
        })
        .expect("healthy streak after the window restores compression");
    assert!(
        recovered >= 55 + 3,
        "recovery at {recovered} cannot precede the hysteresis patience"
    );
    assert!(!report.final_state.fallback_active);
}

/// Dropped gradient pushes are absorbed without derailing training: the
/// delivered subset is averaged, the dropped sender's error feedback
/// still advances, and the run completes deterministically.
#[test]
fn dropped_pushes_are_deterministic_and_convergent() {
    let (train, eval) = data();
    let run = || {
        let mut cfg = config();
        cfg.faults = TrainFaultPlan::parse("drop=10:0,drop=11:3,drop=40:2", cfg.workers, cfg.steps)
            .unwrap();
        TrainingRuntime::new(cfg).run(&train, &eval).unwrap()
    };
    let a = run();
    let b = run();
    assert_eq!(
        a.events
            .iter()
            .filter(|e| matches!(e, RuntimeEvent::DroppedPush { .. }))
            .count(),
        3
    );
    assert_eq!(
        a.state_fingerprint(),
        b.state_fingerprint(),
        "identical fault plans must reproduce bit-identical runs"
    );
    assert!(a.final_accuracy() > 0.9, "accuracy {}", a.final_accuracy());
}

/// Seeded fault plans are pure functions of the seed: the same seed gives
/// the same plan (and the same run), different seeds differ.
#[test]
fn seeded_fault_plans_are_reproducible() {
    let cfg = config();
    let a = TrainFaultPlan::from_seed(9, cfg.workers, cfg.steps);
    let b = TrainFaultPlan::from_seed(9, cfg.workers, cfg.steps);
    assert_eq!(a, b);
    let differs = (0..16u64)
        .any(|s| TrainFaultPlan::from_seed(s, cfg.workers, cfg.steps) != a);
    assert!(differs, "16 consecutive seeds all produced the same plan");
}

/// The churn-gate guarantee at the training layer: a plan interleaving
/// preemptions and re-joins (with a slow window and a degradation mixed
/// in) crashed and resumed at *any* checkpoint boundary is bit-identical
/// to the uninterrupted run — including the EF split/merge round trips a
/// re-join performs on every surviving worker's residual.
#[test]
fn churn_plan_resume_is_bitwise_identical_at_every_boundary() {
    let (train, eval) = data();
    let spec = "crash=10:1,rejoin=22:1,crash=30:3,degrade=35:2.0,\
                crash=40:0,rejoin=55:3,slow=60-75:3.0,rejoin=70:0";
    let with_faults = || {
        let mut cfg = config();
        cfg.faults = TrainFaultPlan::parse(spec, cfg.workers, cfg.steps).unwrap();
        cfg
    };

    let uninterrupted = TrainingRuntime::new(with_faults()).run(&train, &eval).unwrap();
    assert!(uninterrupted.completed);
    let rejoins = uninterrupted
        .events
        .iter()
        .filter(|e| matches!(e, RuntimeEvent::WorkerRejoined { .. }))
        .count();
    assert_eq!(rejoins, 3, "events: {:?}", uninterrupted.events);
    assert!(uninterrupted.final_state.membership.lost().is_empty());

    for halt_at in [25, 45, 65] {
        let dir = scratch(&format!("churn-{halt_at}"));
        let mut first = with_faults();
        first.checkpoint_every = Some(10);
        first.halt_at = Some(halt_at);
        let halted = TrainingRuntime::new(first)
            .with_store(CheckpointStore::new(&dir).unwrap())
            .run(&train, &eval)
            .unwrap();
        assert!(!halted.completed);

        let mut second = with_faults();
        second.resume = true;
        let resumed = TrainingRuntime::new(second)
            .with_store(CheckpointStore::new(&dir).unwrap())
            .run(&train, &eval)
            .unwrap();
        assert!(resumed.completed);
        assert_eq!(
            resumed.weights_fingerprint(),
            uninterrupted.weights_fingerprint(),
            "weights diverged across a crash at step {halt_at}"
        );
        assert_eq!(
            resumed.state_fingerprint(),
            uninterrupted.state_fingerprint(),
            "state diverged across a crash at step {halt_at}"
        );
        let _ = fs::remove_dir_all(&dir);
    }
}

/// A re-join re-expands the shards, routes through the online (warm)
/// re-planning path, and restores full capacity under the same
/// degradation that shaped the shrunken plan.
#[test]
fn rejoin_under_degradation_replans_online() {
    let (train, eval) = data();
    let mut cfg = config();
    cfg.faults =
        TrainFaultPlan::parse("crash=20:2,degrade=20:3.0,rejoin=50:2", cfg.workers, cfg.steps)
            .unwrap();
    let report = TrainingRuntime::new(cfg).run(&train, &eval).unwrap();
    assert!(report.completed);
    assert!(
        report
            .events
            .iter()
            .any(|e| matches!(e, RuntimeEvent::WorkerRejoined { step: 50, worker: 2 })),
        "events: {:?}",
        report.events
    );
    let replanned = report
        .events
        .iter()
        .find_map(|e| match e {
            RuntimeEvent::Replanned { step: 50, changed, .. } => Some(*changed),
            _ => None,
        })
        .expect("a re-join must route through the re-planning path");
    assert!(
        replanned,
        "re-planning a degraded 3-worker cluster back to 4 workers must change the strategy"
    );
    assert_eq!(report.final_state.membership.alive_count(), 4);
    assert!(
        report.final_accuracy() > 0.9,
        "accuracy {}",
        report.final_accuracy()
    );
}

/// Generated churn plans (the `--churn-faults` surface) hold the same
/// bitwise crash+resume guarantee as hand-written specs.
#[test]
fn generated_churn_plan_resumes_bitwise() {
    let (train, eval) = data();
    let cfg = config();
    // First seed whose generated plan actually exercises a re-join.
    let seed = (0..64u64)
        .find(|&s| !TrainFaultPlan::churn(s, cfg.workers, cfg.steps).rejoins.is_empty())
        .expect("some seed in 0..64 generates a re-join");
    let with_faults = || {
        let mut cfg = config();
        cfg.faults = TrainFaultPlan::churn(seed, cfg.workers, cfg.steps);
        cfg
    };
    let uninterrupted = TrainingRuntime::new(with_faults()).run(&train, &eval).unwrap();
    let dir = scratch("churn-seeded");
    let mut first = with_faults();
    first.checkpoint_every = Some(20);
    first.halt_at = Some(50);
    TrainingRuntime::new(first)
        .with_store(CheckpointStore::new(&dir).unwrap())
        .run(&train, &eval)
        .unwrap();
    let mut second = with_faults();
    second.resume = true;
    let resumed = TrainingRuntime::new(second)
        .with_store(CheckpointStore::new(&dir).unwrap())
        .run(&train, &eval)
        .unwrap();
    assert!(resumed.completed);
    assert_eq!(
        resumed.state_fingerprint(),
        uninterrupted.state_fingerprint(),
        "generated churn plan (seed {seed}) diverged across crash + resume"
    );
    let _ = fs::remove_dir_all(&dir);
}

/// Memoized re-plans must be byte-identical to cold plans. The runtime
/// re-plans through one `Planner` whose memo is keyed by `(job, health)`;
/// when fleet health flaps back to a state it has already planned for,
/// the stored selection is replayed. This pins the replay to a cold
/// planner (memo disabled): same strategy, same predicted time (to the
/// bit), same winning candidate — only `changed` is recomputed against
/// the caller's current strategy.
#[test]
fn warm_replan_after_health_delta_equals_cold_plan() {
    use espresso_repro::cluster::ClusterHealth;
    use espresso_repro::espresso::{Espresso, Planner};

    let job = Job::new(
        Model::Lstm.profile(),
        Cluster::pcie_25g(2, 2),
        GcAlgorithm::RandomK { density: 0.05 },
    );
    let (current, _) = Espresso::new(job.clone()).select_strategy();
    let nominal = ClusterHealth::nominal();
    let degraded = ClusterHealth::inter_degraded(2.5);

    let planner = Planner::new();
    let oracle = Planner::cold();
    // First sight of each health state plans cold and stores.
    let cold_nom = planner.replan(&job, &nominal, &current).unwrap();
    let cold_deg = planner.replan(&job, &degraded, &cold_nom.strategy).unwrap();
    // Health flaps back: both replays must equal fresh cold plans.
    for (health, current) in [(&nominal, &cold_deg.strategy), (&degraded, &cold_nom.strategy)] {
        let warm = planner.replan(&job, health, current).unwrap();
        let cold = oracle.replan(&job, health, current).unwrap();
        assert_eq!(warm.strategy, cold.strategy, "warm strategy diverged");
        assert_eq!(
            warm.predicted_time.to_bits(),
            cold.predicted_time.to_bits(),
            "warm predicted time diverged: {} vs {}",
            warm.predicted_time,
            cold.predicted_time
        );
        assert_eq!(warm.chosen, cold.chosen, "warm winner diverged");
        assert_eq!(warm.changed, cold.changed, "changed flag diverged");
    }
}

/// A run's first plan seeds its later degraded re-plan: the robust
/// ensemble takes its nominal candidate from the memo (one nominal hit)
/// and the result still equals a cold planner's, bit for bit.
#[test]
fn degraded_replan_reuses_the_runs_nominal_plan() {
    use espresso_repro::cluster::ClusterHealth;
    use espresso_repro::espresso::{DegradationMonitor, Planner, WarmStartCache};

    let job = Job::new(
        Model::Lstm.profile(),
        Cluster::pcie_25g(2, 4),
        GcAlgorithm::EfSignSgd,
    );
    let planner = Planner::with_memo(WarmStartCache::with_enabled(32, 1, true));
    let first = planner
        .replan(&job, &ClusterHealth::nominal(), &DegradationMonitor::fallback_strategy(&job))
        .unwrap();
    assert_eq!((planner.memo().hits(), planner.memo().misses()), (0, 1));

    let degraded = ClusterHealth::inter_degraded(2.0);
    let warm = planner.replan(&job, &degraded, &first.strategy).unwrap();
    // The robust lookup misses; the nominal lookup behind it hits.
    assert_eq!((planner.memo().hits(), planner.memo().misses()), (1, 2));
    let cold = Planner::cold().replan(&job, &degraded, &first.strategy).unwrap();
    assert_eq!(warm.strategy, cold.strategy);
    assert_eq!(warm.predicted_time.to_bits(), cold.predicted_time.to_bits());
    assert_eq!(warm.chosen, cold.chosen);
    assert_eq!(warm.changed, cold.changed);
}

/// The same guarantee end-to-end: a degradation re-plans cold at step
/// 20, then a sustained slow window trips the monitor into a re-decide
/// whose `(job, health)` matches the step-20 plan — a warm replay inside
/// the runtime. Events and every state bit must equal a repeat run. The
/// fast planner is the default here, so this also pins determinism with
/// the fast path and warm re-planning both on.
#[test]
fn monitor_redecide_replays_warm_and_stays_deterministic() {
    let (train, eval) = data();
    let run = || {
        let mut cfg = config();
        cfg.faults = TrainFaultPlan::parse("degrade=20:2.0,slow=35-75:1.3", cfg.workers, cfg.steps)
            .unwrap();
        TrainingRuntime::new(cfg).run(&train, &eval).unwrap()
    };
    let a = run();
    let b = run();
    assert!(a.completed);
    assert!(
        a.events
            .iter()
            .any(|e| matches!(e, RuntimeEvent::Replanned { step: 20, .. })),
        "no re-plan at the degradation: {:?}",
        a.events
    );
    let replans = a
        .events
        .iter()
        .filter(|e| matches!(e, RuntimeEvent::Replanned { .. }))
        .count();
    assert!(
        replans >= 2,
        "the slow window should force a monitor re-decide after the \
         degradation plan ({replans} re-plans): {:?}",
        a.events
    );
    assert_eq!(a.events, b.events, "event streams diverged");
    assert_eq!(
        a.state_fingerprint(),
        b.state_fingerprint(),
        "warm re-planning changed training state"
    );
}
