//! Planner-latency benchmark: fast path versus reference path, per
//! paper model.
//!
//! Each model runs as an uncached decision job shaped like the serve
//! bench's uncached phase (1 machine × 4 GPUs on the PCIe + 25 Gbps
//! testbed, RandomK at 1% density), so the fast-path decisions/s column
//! is directly comparable to `BENCH_serve.json`'s uncached
//! `throughput_rps`. Every repetition builds a fresh [`Espresso`] and
//! selects from scratch — nothing is cached across reps; this measures
//! *cold* planner latency, the serve path's cache-miss cost.
//!
//! Methodology note: the fast and reference paths are byte-identical by
//! construction (`espresso-audit decide` enforces it), so the speedup
//! column is a pure like-for-like planner comparison. Reps are
//! time-budgeted and the reported latency is the per-model median, which
//! keeps the numbers stable on noisy single-core runners.
//!
//! Writes `BENCH_decide.json` and exits non-zero if the LSTM fast-path
//! decision rate falls below the recorded baseline × 0.9 — the gate
//! `ci.sh` runs as the `decide` step.

use std::process::ExitCode;
use std::time::Instant;

use espresso::{Espresso, PlannerMode};
use espresso_bench::Table;
use espresso_cluster::Cluster;
use espresso_gc::GcAlgorithm;
use espresso_json::Json;
use espresso_models::Model;
use espresso_sim::Job;

/// Recorded fast-path LSTM decision rate (decisions/s) on the reference
/// runner, set from a `ci.sh` run on this machine. The gate trips when a
/// regression pushes the measured rate below 90% of this.
const LSTM_BASELINE_DPS: f64 = 600.0;

/// Per-rep wall-clock budget: stop repeating a phase once it has
/// consumed this much time (but always run at least `MIN_REPS`).
const PHASE_BUDGET_S: f64 = 1.0;
const MIN_REPS: usize = 5;
const MAX_REPS: usize = 40;

struct Row {
    model: Model,
    tensors: usize,
    reference_ms: f64,
    fast_ms: f64,
    fast_reps: usize,
    gpu_simulations: usize,
}

impl Row {
    fn speedup(&self) -> f64 {
        self.reference_ms / self.fast_ms
    }

    fn fast_dps(&self) -> f64 {
        1e3 / self.fast_ms
    }

    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("model", Json::Str(self.model.name().to_string())),
            ("tensors", Json::Num(self.tensors as f64)),
            ("reference_ms_p50", Json::Num(self.reference_ms)),
            ("fast_ms_p50", Json::Num(self.fast_ms)),
            ("fast_decisions_per_sec", Json::Num(self.fast_dps())),
            ("speedup", Json::Num(self.speedup())),
            ("reps", Json::Num(self.fast_reps as f64)),
            ("gpu_simulations", Json::Num(self.gpu_simulations as f64)),
        ])
    }
}

/// Runs `select` repeatedly under the phase budget and returns the
/// median per-rep milliseconds and the rep count.
fn measure(mut select: impl FnMut()) -> (f64, usize) {
    // One untimed warmup to fault in code paths and allocator pools.
    select();
    let mut samples = Vec::new();
    let phase = Instant::now();
    while samples.len() < MIN_REPS
        || (samples.len() < MAX_REPS && phase.elapsed().as_secs_f64() < PHASE_BUDGET_S)
    {
        let t0 = Instant::now();
        select();
        samples.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    samples.sort_by(|a, b| a.total_cmp(b));
    (samples[samples.len() / 2], samples.len())
}

fn evaluate(model: Model) -> Row {
    // The serve bench's uncached-phase job shape (see espresso-loadgen's
    // `unique_body`): small enough that the bench measures decision
    // latency, not sim-sweep depth.
    let job = Job::new(
        model.profile(),
        Cluster::pcie_25g(1, 4),
        GcAlgorithm::randomk_1pct(),
    );
    let (reference_ms, _) = measure(|| {
        let esp = Espresso::new(job.clone());
        std::hint::black_box(esp.select_strategy_with(PlannerMode::Reference));
    });
    let (fast_ms, fast_reps) = measure(|| {
        let esp = Espresso::new(job.clone());
        std::hint::black_box(esp.select_strategy_with(PlannerMode::Fast));
    });
    let (_, report) = Espresso::new(job.clone()).select_strategy_with(PlannerMode::Fast);
    Row {
        model,
        tensors: job.num_tensors(),
        reference_ms,
        fast_ms,
        fast_reps,
        gpu_simulations: report.gpu_simulations,
    }
}

/// The serve bench's uncached decision throughput, for the comparison
/// column (`BENCH_serve.json` is regenerated earlier in `ci.sh`; fall
/// back to the recorded value if it is missing).
fn serve_uncached_rps() -> f64 {
    std::fs::read_to_string("BENCH_serve.json")
        .ok()
        .and_then(|text| Json::parse(&text).ok())
        .and_then(|doc| {
            doc.get("phases")?
                .get("uncached")?
                .get("throughput_rps")
                .and_then(|j| match j {
                    Json::Num(n) => Some(*n),
                    _ => None,
                })
        })
        .unwrap_or(185.73)
}

fn main() -> ExitCode {
    let mut out = "BENCH_decide.json".to_string();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--out" => match it.next() {
                Some(path) => out = path,
                None => {
                    eprintln!("decide: --out needs a value");
                    return ExitCode::from(2);
                }
            },
            other => {
                eprintln!("decide: unknown flag {other:?}");
                eprintln!("usage: decide [--out BENCH_decide.json]");
                return ExitCode::from(2);
            }
        }
    }

    let rows: Vec<Row> = Model::ALL.iter().map(|&m| evaluate(m)).collect();
    let serve_rps = serve_uncached_rps();

    let mut table = Table::new(&[
        "Model",
        "Tensors",
        "Reference ms",
        "Fast ms",
        "Speedup",
        "Decisions/s",
        "Sims",
    ]);
    for r in &rows {
        table.row(vec![
            r.model.name().to_string(),
            format!("{}", r.tensors),
            format!("{:.2}", r.reference_ms),
            format!("{:.2}", r.fast_ms),
            format!("{:.2}x", r.speedup()),
            format!("{:.0}", r.fast_dps()),
            format!("{}", r.gpu_simulations),
        ]);
    }
    println!("Cold planner latency, fast vs reference path (PCIe 25G 1x4, RandomK 1%)\n");
    print!("{}", table.render());
    println!(
        "\nserve uncached baseline: {serve_rps:.0} req/s (BENCH_serve.json, includes HTTP + cache layers)"
    );

    let lstm = rows
        .iter()
        .find(|r| r.model == Model::Lstm)
        .expect("Model::ALL contains LSTM");
    let doc = Json::obj(vec![
        ("testbed", Json::Str("PCIe + 25Gbps, 1x4".to_string())),
        ("algorithm", Json::Str("RandomK d=0.01".to_string())),
        ("serve_uncached_baseline_rps", Json::Num(serve_rps)),
        ("lstm_baseline_decisions_per_sec", Json::Num(LSTM_BASELINE_DPS)),
        (
            "lstm_fast_decisions_per_sec",
            Json::Num(lstm.fast_dps()),
        ),
        ("results", Json::Arr(rows.iter().map(Row::to_json).collect())),
    ]);
    if let Err(e) = std::fs::write(&out, doc.pretty() + "\n") {
        eprintln!("decide: writing {out}: {e}");
        return ExitCode::FAILURE;
    }
    println!("wrote {out}");

    let floor = LSTM_BASELINE_DPS * 0.9;
    if lstm.fast_dps() < floor {
        eprintln!(
            "decide: gate FAILED — LSTM fast path {:.0} decisions/s < {floor:.0} \
             (recorded baseline {LSTM_BASELINE_DPS:.0} x 0.9)",
            lstm.fast_dps()
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
