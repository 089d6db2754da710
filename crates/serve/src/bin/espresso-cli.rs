//! Command-line front-end: the paper's Figure 6 flow as a tool.
//!
//! ```sh
//! espresso-cli --model BERT-base --algo dgc --density 0.01 \
//!              --machines 8 --gpus 8 --intra nvlink --inter-gbps 100
//! ```
//!
//! Alternatively, pass `--config <file.json>` with a JSON object holding
//! the three configuration sections:
//!
//! ```json
//! {
//!   "model": { "model": "GPT2" },
//!   "gc": { "algorithm": { "Dgc": { "density": 0.01 } } },
//!   "system": { "machines": 8, "gpus_per_machine": 8,
//!               "intra": "NvLink", "inter_gbps": 100.0 }
//! }
//! ```
//!
//! Robustness flags:
//!
//! * `--faults SPEC` — inject a deterministic fault plan into the
//!   timeline simulation and report the perturbed iteration time. `SPEC`
//!   is either a bare seed (`--faults 7`) or `key=value` pairs
//!   (`--faults seed=7,straggler=1.5,inter=2.0,jitter=0.05`).
//! * `--inter-degraded F` / `--intra-degraded F` — re-cost the cluster
//!   with a link degraded by factor `F` (bandwidth divided by `F`).
//! * `--robust` — run the ensemble-based robust selector instead of the
//!   plain nominal selection and print the candidate table.
//!
//! The decision plumbing lives in `espresso::service` and is shared with
//! the HTTP server, which this binary also hosts:
//!
//! ```sh
//! espresso-cli serve --addr 127.0.0.1:8080 --workers 8
//! ```
//!
//! The fault-tolerant training runtime (DESIGN.md section 11) is exposed
//! as a third subcommand:
//!
//! ```sh
//! espresso-cli train --workers 4 --steps 200 --checkpoint-every 50 \
//!                    --checkpoint-dir /tmp/ckpt --faults crash=40:1
//! # ... crash, then:
//! espresso-cli train --workers 4 --steps 200 --checkpoint-dir /tmp/ckpt --resume
//! ```
//!
//! It prints every runtime event (worker losses, re-plans, fallback
//! trips, checkpoints) plus `weights fingerprint:` / `state fingerprint:`
//! lines, which `ci.sh recover` compares across a crash-and-resume run
//! and an uninterrupted one.
//!
//! All input errors (missing files, malformed JSON, bad field values,
//! bad fault specs) are reported with file/field context and exit 1 —
//! never a panic.

use std::time::Duration;

use espresso::baselines::Baseline;
use espresso::config::{FileConfig, GcConfig, ModelConfig, SystemConfig};
use espresso::service::{decide, DecisionRequest};
use espresso::{Espresso, EspressoError};
use espresso_cluster::{Cluster, ClusterHealth, IntraFabric, LinkState};
use espresso_gc::GcAlgorithm;
use espresso_models::Model;
use espresso_serve::{signal, FleetConfig, FleetController, ServeConfig, Server};
use espresso_sim::Job;
use espresso_training::checkpoint::CheckpointStore;
use espresso_training::faults::TrainFaultPlan;
use espresso_training::runtime::{RuntimeConfig, RuntimeEvent, TrainingRuntime};
use espresso_training::Dataset;

fn usage() -> ! {
    eprintln!(
        "usage: espresso-cli [--config FILE.json] | \
         [--model NAME --algo randomk|dgc|efsignsgd|qsgd|terngrad|fp16 \
         [--density F] [--machines N] [--gpus K] [--intra nvlink|pcie] \
         [--inter-gbps G]] \
         [--faults SPEC] [--inter-degraded F] [--intra-degraded F] [--robust] \
         [--ratio-budget SCALE]  (layerwise-adaptive ratios under \
         SCALE x the uniform plan's compression error)\n\
         \n\
         or:    espresso-cli serve [--addr HOST:PORT] [--workers N] \
         [--queue N] [--cache N] [--shards N] [--deadline-ms N] \
         [--fleet-dir DIR] [--fleet-workers N] [--fleet-watermark N] \
         [--fleet-snapshot-every N] [--fleet-no-batch]\n\
         \n\
         or:    espresso-cli train [--machines N] [--gpus K] [--steps N] \
         [--batch N] [--algo NAME] [--density F] [--eval-every N] \
         [--checkpoint-every N] [--checkpoint-dir DIR] [--resume] \
         [--halt-at N] [--faults SPEC] [--churn-faults SEED] [--adapt] \
         [--threads N]  \
         (SPEC: seed, or crash=STEP:WORKER,rejoin=STEP:WORKER,\
drop=STEP:WORKER,slow=FROM-UNTIL:F,degrade=STEP:F; \
         --churn-faults generates an interleaved preemption/re-join plan \
         from SEED; --adapt walks per-tensor ratios online from residual \
         errors; --threads caps the threads a step and a re-plan use, \
         default: the available cores, same bits at any value)"
    );
    std::process::exit(2)
}

fn parse_args(args: &[String]) -> Result<(DecisionRequest, Option<f64>), EspressoError> {
    let mut it = args.iter();
    let mut config_path: Option<String> = None;
    let mut model = "BERT-base".to_string();
    let mut algo = "randomk".to_string();
    let mut density = 0.01f64;
    let mut machines = 8usize;
    let mut gpus = 8usize;
    let mut intra = IntraFabric::NvLink;
    let mut inter_gbps = 100.0f64;
    let mut faults: Option<String> = None;
    let mut health = ClusterHealth::nominal();
    let mut robust = false;
    let mut ratio_budget: Option<f64> = None;
    while let Some(flag) = it.next() {
        let mut value = || it.next().cloned().unwrap_or_else(|| usage());
        let degraded = |flag: &str, raw: String| -> Result<f64, EspressoError> {
            raw.parse::<f64>()
                .map_err(|_| EspressoError::config(flag, format!("not a number: {raw}")))
        };
        match flag.as_str() {
            "--config" => config_path = Some(value()),
            "--model" => model = value(),
            "--algo" => algo = value(),
            "--density" => density = value().parse().unwrap_or_else(|_| usage()),
            "--machines" => machines = value().parse().unwrap_or_else(|_| usage()),
            "--gpus" => gpus = value().parse().unwrap_or_else(|_| usage()),
            "--intra" => {
                intra = match value().to_ascii_lowercase().as_str() {
                    "nvlink" => IntraFabric::NvLink,
                    "pcie" => IntraFabric::Pcie,
                    _ => usage(),
                }
            }
            "--inter-gbps" => inter_gbps = value().parse().unwrap_or_else(|_| usage()),
            "--faults" => faults = Some(value()),
            "--inter-degraded" => {
                health.inter = LinkState::Degraded {
                    factor: degraded("--inter-degraded", value())?,
                }
            }
            "--intra-degraded" => {
                health.intra = LinkState::Degraded {
                    factor: degraded("--intra-degraded", value())?,
                }
            }
            "--robust" => robust = true,
            "--ratio-budget" => {
                let raw = value();
                let scale: f64 = raw
                    .parse()
                    .map_err(|_| EspressoError::config("--ratio-budget", format!("not a number: {raw}")))?;
                if !scale.is_finite() || scale <= 0.0 {
                    return Err(EspressoError::config(
                        "--ratio-budget",
                        format!("must be positive, got {raw}"),
                    ));
                }
                ratio_budget = Some(scale);
            }
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag {other}");
                usage()
            }
        }
    }
    let (model, gc, system) = match config_path {
        Some(path) => {
            let cfg = FileConfig::load(&path)?;
            (cfg.model, cfg.gc, cfg.system)
        }
        None => {
            let algorithm = match algo.to_ascii_lowercase().as_str() {
                "randomk" => GcAlgorithm::RandomK { density },
                "dgc" => GcAlgorithm::Dgc { density },
                "efsignsgd" => GcAlgorithm::EfSignSgd,
                "qsgd" => GcAlgorithm::Qsgd { levels: 127 },
                "terngrad" => GcAlgorithm::TernGrad,
                "fp16" => GcAlgorithm::Fp16,
                _ => usage(),
            };
            (
                ModelConfig::Named { model },
                GcConfig::uniform(algorithm),
                SystemConfig {
                    machines,
                    gpus_per_machine: gpus,
                    intra,
                    inter_gbps,
                },
            )
        }
    };
    Ok((
        DecisionRequest {
            model,
            gc,
            system,
            health,
            faults,
            robust,
        },
        ratio_budget,
    ))
}

/// Runs the L-GreCo-style allocator against the uniform decision and
/// folds the chosen per-tensor densities back into the request, so the
/// final decision (and everything printed after) is priced under the
/// adaptive plan.
fn apply_ratio_budget(
    request: &mut DecisionRequest,
    scale: f64,
) -> Result<(), EspressoError> {
    let uniform = decide(request)?;
    if uniform.job.algo.density().is_none() {
        return Err(EspressoError::config(
            "--ratio-budget",
            format!(
                "layerwise ratios need a sparsifier algorithm (randomk|dgc), got {}",
                uniform.job.algo.name()
            ),
        ));
    }
    let curves = espresso_adapt::measure_curves(&uniform.job.model, uniform.job.algo, 17);
    let sim = espresso_sim::Simulator::new(uniform.job.clone(), espresso_sim::SimConfig::default());
    let alloc = espresso_adapt::Allocator::new(&sim, &uniform.strategy, &curves);
    let budget = scale * alloc.default_error();
    let plan = alloc.allocate(budget);
    println!(
        "adaptive ratios: budget {scale:.2}x uniform error ({:.4}); \
         plan error {:.4}{}; predicted {:.2} ms (uniform {:.2} ms)",
        budget,
        plan.total_error,
        if plan.within_budget { "" } else { " [over budget: least-error plan]" },
        plan.predicted_time * 1e3,
        uniform.report.iteration_time * 1e3,
    );
    let mut counts: Vec<(String, usize)> = Vec::new();
    for s in &plan.settings {
        let label = s.setting_label();
        match counts.iter_mut().find(|(l, _)| *l == label) {
            Some((_, n)) => *n += 1,
            None => counts.push((label, 1)),
        }
    }
    let summary: Vec<String> = counts
        .iter()
        .map(|(label, n)| format!("{label} x{n}"))
        .collect();
    println!("  per-tensor settings: {}", summary.join(", "));
    request.gc.ratios = Some(
        plan.settings
            .iter()
            .map(|s| s.density().expect("sparsifier settings carry densities"))
            .collect(),
    );
    Ok(())
}

fn run(args: &[String]) -> Result<(), EspressoError> {
    let (mut request, ratio_budget) = parse_args(args)?;
    if let Some(scale) = ratio_budget {
        apply_ratio_budget(&mut request, scale)?;
    }
    let decision = decide(&request)?;
    let job = &decision.job;
    let report = &decision.report;
    println!(
        "job: {} + {} on {}x{} GPUs ({:.0} Gbps inter)",
        job.model.name,
        job.algo.name(),
        job.cluster.machines,
        job.cluster.gpus_per_machine,
        job.cluster.inter.bandwidth * 8.0 / 0.84 / 1e9,
    );
    println!(
        "selected in {:.0} ms: {} compressed / {} offloaded / {} backfilled / {} ruled out",
        (report.gpu_decision_seconds + report.offload_seconds + report.backfill_seconds) * 1e3,
        decision.strategy.num_compressed(),
        report.offloaded_tensors,
        report.backfilled_tensors,
        report.ruled_out_tensors,
    );
    println!(
        "iteration {:.2} ms | throughput {:.0} samples/s | scaling {:.3}",
        report.iteration_time * 1e3,
        job.throughput(report.iteration_time),
        job.scaling_factor(report.iteration_time)
    );

    if let (Some(plan), Some(faulted)) = (&decision.fault_plan, decision.faulted_iteration_time) {
        println!(
            "under faults (seed {}): iteration {:.2} ms ({:+.0}% vs nominal), \
             straggler x{:.2}, jitter {:.0}%",
            plan.seed,
            faulted * 1e3,
            (faulted / report.iteration_time - 1.0) * 100.0,
            plan.straggler_factor(),
            plan.kernel_jitter * 100.0,
        );
    }

    if let Some(selection) = &decision.robust {
        println!(
            "\nrobust selection: {} | mean {:.2} ms | worst {:.2} ms over {} scenarios",
            selection.chosen,
            selection.mean_time * 1e3,
            selection.worst_time * 1e3,
            selection.scenarios,
        );
        println!("candidates (mean / worst, * = admitted by worst-case bound):");
        for c in &selection.candidates {
            println!(
                "  {}{:<20} {:>8.2} ms / {:>8.2} ms",
                if c.admitted { '*' } else { ' ' },
                c.name,
                c.mean * 1e3,
                c.worst * 1e3,
            );
        }
    }

    println!("\nstrategy census:");
    print!(
        "{}",
        espresso::Census::of(job, &decision.strategy).render()
    );
    println!("\nbaselines:");
    let evaluator = Espresso::new(job.clone());
    for b in Baseline::ALL {
        let t = evaluator.evaluate(&b.strategy(job));
        println!(
            "  {:<16} {:.2} ms ({:+.0}% vs Espresso)",
            b.name(),
            t * 1e3,
            (t / report.iteration_time - 1.0) * 100.0
        );
    }
    Ok(())
}

fn run_train(args: &[String]) -> Result<(), EspressoError> {
    let mut machines = 2usize;
    let mut gpus = 2usize;
    let mut intra = IntraFabric::Pcie;
    let mut algo = "randomk".to_string();
    let mut density = 0.05f64;
    let mut steps = 200usize;
    let mut batch = 8usize;
    let mut eval_every = 50usize;
    let mut checkpoint_every: Option<usize> = None;
    let mut checkpoint_dir: Option<String> = None;
    let mut resume = false;
    let mut halt_at: Option<usize> = None;
    let mut faults: Option<String> = None;
    let mut churn_seed: Option<u64> = None;
    let mut adapt = false;
    let mut threads: Option<usize> = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().cloned().unwrap_or_else(|| usage());
        let parse_num = |flag: &str, raw: String| -> Result<usize, EspressoError> {
            raw.parse::<usize>()
                .map_err(|_| EspressoError::config(flag, format!("not a number: {raw}")))
        };
        match flag.as_str() {
            "--machines" => machines = parse_num("--machines", value())?.max(1),
            "--gpus" => gpus = parse_num("--gpus", value())?.max(1),
            "--intra" => {
                intra = match value().to_ascii_lowercase().as_str() {
                    "nvlink" => IntraFabric::NvLink,
                    "pcie" => IntraFabric::Pcie,
                    _ => usage(),
                }
            }
            "--algo" => algo = value(),
            "--density" => density = value().parse().unwrap_or_else(|_| usage()),
            "--steps" => steps = parse_num("--steps", value())?.max(1),
            "--batch" => batch = parse_num("--batch", value())?.max(1),
            "--eval-every" => eval_every = parse_num("--eval-every", value())?.max(1),
            "--checkpoint-every" => {
                checkpoint_every = Some(parse_num("--checkpoint-every", value())?.max(1))
            }
            "--checkpoint-dir" => checkpoint_dir = Some(value()),
            "--resume" => resume = true,
            "--halt-at" => halt_at = Some(parse_num("--halt-at", value())?.max(1)),
            "--faults" => faults = Some(value()),
            "--churn-faults" => {
                churn_seed = Some(
                    value()
                        .parse::<u64>()
                        .map_err(|_| EspressoError::config("--churn-faults", "not a seed"))?,
                )
            }
            "--adapt" => adapt = true,
            "--threads" => threads = Some(parse_num("--threads", value())?),
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag {other}");
                usage()
            }
        }
    }
    let algorithm = match algo.to_ascii_lowercase().as_str() {
        "randomk" => GcAlgorithm::RandomK { density },
        "dgc" => GcAlgorithm::Dgc { density },
        "efsignsgd" => GcAlgorithm::EfSignSgd,
        "qsgd" => GcAlgorithm::Qsgd { levels: 127 },
        "terngrad" => GcAlgorithm::TernGrad,
        "fp16" => GcAlgorithm::Fp16,
        _ => usage(),
    };
    let cluster = match intra {
        IntraFabric::NvLink => Cluster::nvlink_100g(machines, gpus),
        IntraFabric::Pcie => Cluster::pcie_25g(machines, gpus),
    };
    let job = Job::new(Model::Lstm.profile(), cluster, algorithm);
    let mut config = RuntimeConfig::for_job(job, 8, 3);
    config.batch_per_worker = batch;
    config.steps = steps;
    config.eval_every = eval_every.min(steps);
    config.checkpoint_every = checkpoint_every;
    config.halt_at = halt_at;
    config.resume = resume;
    if let Some(threads) = threads {
        config.threads = threads;
    }
    if adapt {
        config.adapt = Some(espresso_adapt::ControllerConfig::default());
    }
    if let Some(spec) = &faults {
        config.faults = TrainFaultPlan::parse(spec, config.workers, steps)
            .map_err(|e| EspressoError::config("--faults", e.to_string()))?;
    }
    if let Some(seed) = churn_seed {
        if faults.is_some() {
            return Err(EspressoError::config(
                "--churn-faults",
                "cannot be combined with --faults",
            ));
        }
        config.faults = TrainFaultPlan::churn(seed, config.workers, steps);
        config
            .faults
            .validate(config.workers)
            .map_err(|e| EspressoError::config("--churn-faults", e.to_string()))?;
    }
    println!(
        "train: {} workers ({machines}x{gpus}), {} mode, {steps} steps, faults: {}",
        config.workers,
        algo.to_ascii_lowercase(),
        churn_seed.map_or_else(
            || faults.clone().unwrap_or_else(|| "none".into()),
            |s| format!("churn seed {s}"),
        ),
    );

    // The training task is synthetic and seeded: every run sees the same
    // data, so fingerprints are comparable across processes.
    let (data, eval) = Dataset::blobs(320, 8, 3, 0.2, 11).split(0.25);

    let mut runtime = TrainingRuntime::new(config);
    if let Some(dir) = &checkpoint_dir {
        let store = CheckpointStore::new(dir)
            .map_err(|e| EspressoError::config("--checkpoint-dir", e.to_string()))?;
        runtime = runtime.with_store(store);
    }
    let report = runtime
        .run(&data, &eval)
        .map_err(|e| EspressoError::config("train", e.to_string()))?;

    for event in &report.events {
        match event {
            RuntimeEvent::Resumed { step } => println!("  [{step:>4}] resumed from checkpoint"),
            RuntimeEvent::WorkerLost { step, worker } => {
                println!("  [{step:>4}] worker {worker} lost; shard redistributed")
            }
            RuntimeEvent::WorkerRejoined { step, worker } => {
                println!("  [{step:>4}] worker {worker} re-joined; shard re-expanded")
            }
            RuntimeEvent::HealthChanged { step } => {
                println!("  [{step:>4}] fabric health changed")
            }
            RuntimeEvent::Replanned {
                step,
                chosen,
                changed,
            } => println!(
                "  [{step:>4}] re-planned online: {chosen}{}",
                if *changed { " (strategy changed)" } else { " (unchanged)" }
            ),
            RuntimeEvent::DroppedPush { step, worker } => {
                println!("  [{step:>4}] gradient push from worker {worker} dropped")
            }
            RuntimeEvent::FallbackEngaged { step } => {
                println!("  [{step:>4}] degradation monitor tripped: BytePS-FP32 fallback")
            }
            RuntimeEvent::FallbackRecovered { step } => {
                println!("  [{step:>4}] healthy streak: compression re-enabled")
            }
            RuntimeEvent::Checkpointed { step } => {
                println!("  [{step:>4}] checkpoint persisted")
            }
            RuntimeEvent::RatioAdjusted { step, adjustments } => {
                println!("  [{step:>4}] ratio plan adjusted ({adjustments} moves total)")
            }
        }
    }
    println!(
        "{}: {} steps this process, {} re-plans, {} fallback trips",
        if report.completed {
            "completed"
        } else {
            "halted (simulated crash)"
        },
        report.steps_run,
        report.replans,
        report.fallback_trips,
    );
    if let Some(ctl) = &report.final_state.controller {
        println!(
            "ratio controller: {} grid moves, final plan {}",
            ctl.adjustments(),
            ctl.plan()
                .iter()
                .map(|a| a.setting_label())
                .collect::<Vec<_>>()
                .join(" "),
        );
    }
    println!("final accuracy: {:.4}", report.final_accuracy());
    println!("weights fingerprint: {:016x}", report.weights_fingerprint());
    println!("state fingerprint: {:016x}", report.state_fingerprint());
    Ok(())
}

fn run_serve(args: &[String]) -> Result<(), EspressoError> {
    let mut config = ServeConfig {
        addr: "127.0.0.1:8080".into(),
        ..ServeConfig::default()
    };
    let mut fleet_config: Option<FleetConfig> = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().cloned().unwrap_or_else(|| usage());
        let parse_num = |flag: &str, raw: String| -> Result<usize, EspressoError> {
            raw.parse::<usize>()
                .map_err(|_| EspressoError::config(flag, format!("not a number: {raw}")))
        };
        fn fleet(fc: &mut Option<FleetConfig>) -> &mut FleetConfig {
            fc.get_or_insert_with(FleetConfig::default)
        }
        match flag.as_str() {
            "--addr" => config.addr = value(),
            "--workers" => config.workers = parse_num("--workers", value())?.max(1),
            "--queue" => config.queue_depth = parse_num("--queue", value())?.max(1),
            "--cache" => config.cache_entries = parse_num("--cache", value())?.max(1),
            "--shards" => config.cache_shards = parse_num("--shards", value())?.max(1),
            "--deadline-ms" => {
                config.deadline =
                    Duration::from_millis(parse_num("--deadline-ms", value())?.max(1) as u64)
            }
            "--fleet-dir" => fleet(&mut fleet_config).dir = value().into(),
            "--fleet-workers" => {
                fleet(&mut fleet_config).replan_workers = parse_num("--fleet-workers", value())?
            }
            "--fleet-watermark" => {
                fleet(&mut fleet_config).queue_watermark =
                    parse_num("--fleet-watermark", value())?.max(1)
            }
            "--fleet-no-batch" => {
                // One planner run per job instead of one per spec group —
                // the throughput probe's comparison baseline.
                fleet(&mut fleet_config).batch_replans = false
            }
            "--fleet-snapshot-every" => {
                fleet(&mut fleet_config).snapshot_every =
                    parse_num("--fleet-snapshot-every", value())?.max(1) as u64
            }
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag {other}");
                usage()
            }
        }
    }
    let fleet_enabled = fleet_config.is_some();
    if let Some(fc) = fleet_config {
        let controller = FleetController::open(fc)
            .map_err(|e| EspressoError::config("--fleet-dir", e.to_string()))?;
        config.fleet = Some(std::sync::Arc::new(controller));
    }
    let workers = config.workers;
    let cache_entries = config.cache_entries;
    let server = Server::start(config)?;
    println!(
        "espresso-serve listening on {} ({} workers, cache {} entries{})",
        server.addr(),
        workers,
        cache_entries,
        if fleet_enabled { ", fleet enabled" } else { "" },
    );
    println!("routes: POST /decide | POST /fleet/* | GET /metrics | GET /healthz  (ctrl-c to stop)");
    signal::install();
    while !signal::signaled() {
        std::thread::sleep(Duration::from_millis(100));
    }
    println!("\nshutting down: draining queue and in-flight requests...");
    server.shutdown();
    println!("bye");
    Ok(())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.split_first() {
        Some((first, rest)) if first == "serve" => run_serve(rest),
        Some((first, rest)) if first == "train" => run_train(rest),
        _ => run(&args),
    };
    if let Err(e) = result {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}
