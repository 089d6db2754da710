//! The repository's end-to-end benchmark.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload <decide-mix|fleet-storm|train-churn> --seed N --seconds S --trace <0|1>
//! ```
//!
//! The server, the fleet controller and the training runtime run inside
//! this process; the benchmark drives them from outside through their
//! public interfaces, checks every answer, and prints one JSON object as
//! the last line of standard output. With `--trace 0` it carries the
//! end-to-end metrics, with `--trace 1` the per-layer ones (see
//! `LAYERS.md`). Scratch files live under `.bench_tmp/` and are removed
//! at exit; the traced run leaves its spans in `.bench_out/`.

mod decide_mix;
mod fleet_storm;
mod replay;
mod stats;
mod trace;
mod train_churn;

use std::path::PathBuf;
use std::time::Instant;

use stats::{describe, median, quantile};
use trace::Tracer;

/// What one live run of a workload measured and checked.
///
/// Every workload has a *main* operation (the expensive one its layers
/// are chosen for) and a *side* operation running beside it; see
/// `LAYERS.md` for what they are per workload.
#[derive(Debug, Default)]
pub struct Live {
    pub setup_s: Vec<f64>,
    /// Main-operation units completed in the window (`ops_per_s`).
    pub ops: usize,
    pub window_s: f64,
    pub main: Vec<f64>,
    pub main_tail_q: f64,
    pub side: Vec<f64>,
    pub side_tail_q: f64,
    pub attempted: u64,
    pub failed: u64,
    /// Correctness failures, one line each.
    pub problems: Vec<String>,
    pub notes: Vec<String>,
    /// Untraced microseconds of each replayable operation, by request id.
    pub per_op: Vec<(u64, f64)>,
    /// Per-layer values only the live run can observe.
    pub layer: Vec<(String, f64)>,
}

impl Live {
    pub fn new(setup_s: Vec<f64>, window_s: f64, main_tail_q: f64, side_tail_q: f64) -> Self {
        Self {
            setup_s,
            window_s,
            main_tail_q,
            side_tail_q,
            ..Self::default()
        }
    }
}

/// One reported metric.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; one of {WORKLOADS:?}"
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

const WORKLOADS: [&str; 3] = ["decide-mix", "fleet-storm", "train-churn"];

/// This process's scratch root; removed when the run ends.
fn scratch_root() -> PathBuf {
    PathBuf::from(".bench_tmp").join(std::process::id().to_string())
}

/// A fresh scratch directory for one component of the run.
pub fn scratch(label: &str) -> Result<PathBuf, String> {
    let dir = scratch_root().join(label);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    Ok(dir)
}

fn run_live(args: &Args, seconds: f64, tracer: Option<&Tracer>) -> Result<Live, String> {
    match args.workload.as_str() {
        "decide-mix" => decide_mix::run(args.seed, seconds, tracer),
        "fleet-storm" => fleet_storm::run(args.seed, seconds, tracer),
        _ => train_churn::run(args.seed, seconds, tracer),
    }
}

/// Peak resident set size of this process, in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".into())
}

fn end_to_end(live: &Live) -> Result<Vec<Metric>, String> {
    let q = |samples: &[f64], q: f64, what: &str| {
        quantile(samples, q).ok_or_else(|| format!("no {what} samples were recorded"))
    };
    let quantiles = [
        ("main_p50_ms", q(&live.main, 0.50, "main")?),
        ("main_tail_ms", q(&live.main, live.main_tail_q, "main")?),
        ("side_p50_ms", q(&live.side, 0.50, "side")?),
        ("side_tail_ms", q(&live.side, live.side_tail_q, "side")?),
    ];
    let mut metrics = Vec::new();
    for (name, quant) in quantiles {
        eprintln!("{}", describe(name, &quant));
        metrics.push(metric(name, quant.value, "ms"));
    }
    metrics.push(metric("ops_per_s", live.ops as f64 / live.window_s, "1/s"));
    metrics.push(metric("setup_s", median(&live.setup_s), "s"));
    metrics.push(metric("peak_rss_mb", peak_rss_mb()?, "MB"));
    let ok =
        (live.attempted - live.failed.min(live.attempted)) as f64 / live.attempted.max(1) as f64;
    metrics.push(metric("ok_ops_share", ok, "share"));
    Ok(metrics)
}

/// The traced run: an untraced half, a traced half with spans around
/// every call the generator makes, then a single-threaded replay of the
/// same generated inputs through each layer's public functions.
fn traced(args: &Args) -> Result<(Vec<Metric>, Live), String> {
    let half = args.seconds / 2.0;
    let untraced = run_live(args, half, None)?;
    let tracer = Tracer::default();
    let mut live = run_live(args, half, Some(&tracer))?;
    let layers = replay::run(&args.workload, args.seed, half, &tracer, &untraced, &live)?;
    let out =
        PathBuf::from(".bench_out").join(format!("{}-seed{}.jsonl", args.workload, args.seed));
    tracer
        .write_jsonl(&out)
        .map_err(|e| format!("write {}: {e}", out.display()))?;
    eprintln!("spans written to {}", out.display());
    // Tracing overhead: the traced half's side-operation median against
    // the untraced half's.
    let overhead = median(&live.side) / median(&untraced.side) - 1.0;
    let mut metrics: Vec<Metric> = layers
        .into_iter()
        .map(|(name, value, unit)| metric(name, value, unit))
        .collect();
    metrics.push(metric("bench.trace_overhead", overhead, "share"));
    live.attempted += untraced.attempted;
    live.failed += untraced.failed;
    live.problems.extend(untraced.problems);
    live.notes.extend(untraced.notes);
    Ok((metrics, live))
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            std::process::exit(2);
        }
    };
    let started = Instant::now();
    let outcome = if args.trace {
        traced(&args)
    } else {
        run_live(&args, args.seconds, None).and_then(|live| Ok((end_to_end(&live)?, live)))
    };
    let _ = std::fs::remove_dir_all(scratch_root());
    let (mut metrics, mut live) = match outcome {
        Ok(done) => done,
        Err(e) => {
            eprintln!("e2ebench {}: {e}", args.workload);
            std::process::exit(1);
        }
    };
    for m in metrics.iter_mut().filter(|m| !m.value.is_finite()) {
        live.problems
            .push(format!("{} could not be measured", m.name));
        m.value = 0.0;
    }
    for note in &live.notes {
        eprintln!("{note}");
    }
    for problem in &live.problems {
        eprintln!("CHECK FAILED: {problem}");
    }
    eprintln!(
        "{} finished in {:.1} s",
        args.workload,
        started.elapsed().as_secs_f64()
    );
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                r#""{}":{{"value":{:?},"unit":"{}"}}"#,
                m.name, m.value, m.unit
            )
        })
        .collect();
    println!(
        r#"{{"correct":{},"attempted":{},"failed":{},"metrics":{{{}}}}}"#,
        live.problems.is_empty() && live.failed == 0,
        live.attempted.max(1),
        live.failed,
        body.join(",")
    );
}
