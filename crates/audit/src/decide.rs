//! The planner fast-path differential sweep (`espresso-audit decide`).
//!
//! The fast planner ([`PlannerMode::Fast`]: incremental delta
//! re-simulation, certified lower-bound pruning and resync early-exit)
//! promises to be *byte-identical*
//! to the from-scratch reference loops — same strategies, same
//! deterministic report counters, same timelines, bit for bit. This
//! sweep is the promise's enforcement: for every sampled case it runs
//! the full selection pipeline on both paths and diffs everything that
//! is not wall-clock telemetry.
//!
//! The corpus is [`decide_corpus`]: the audit layer's seeded job stream
//! (nominal → degraded → faulted scenarios, cycling), with every fourth
//! seed additionally carrying a per-tensor ratio plan so the layerwise
//! `tensor_algos` pricing path is diffed too. Degraded and faulted
//! cases also run the full [`RobustSelector`] ensemble on both paths, on
//! the pool `ESPRESSO_PLANNER_THREADS` sets ([`EvalPool::from_env`]) —
//! that is where the planner's only fan-out lives: whole selections and
//! the pricing matrix.
//!
//! Any divergence is rendered as a self-contained JSON reproduction
//! (seed + case shape + the first differing field), in the style of the
//! oracle sweep's minimized repros. The fast timeline is additionally
//! run through the timeline invariant auditor: a fast path that agreed
//! with a *wrong* reference would still be caught by physics.
//!
//! The sweep's second half ([`warm_sweep`]) holds the [`Planner`]'s
//! cross-request selection memo to the same bar: every memoized
//! [`Planner::decide`] answer — populating pass, replaying pass, and the
//! health-shifted sibling whose robust selection reuses another
//! request's nominal entry — must be byte-identical to a cold [`decide`]
//! of the same request.

use espresso::config::{GcConfig, ModelConfig, SystemConfig};
use espresso::robust::{RobustSelection, RobustSelector};
use espresso::service::{decide, DecisionRequest};
use espresso::warm::WarmStartCache;
use espresso::{Espresso, EvalPool, Planner, PlannerMode, Report};
use espresso_cluster::{ClusterHealth, IntraFabric};
use espresso_gc::GcAlgorithm;
use espresso_json::{Json, ToJson};
use espresso_sim::{SimConfig, SimResult, Simulator, TrialCounts};

use crate::jobs::{sample, AuditCase, Scenario};

/// Differential-sweep parameters.
#[derive(Debug, Clone, Copy)]
pub struct DecideConfig {
    /// Number of sampled cases (seeds `0..jobs`).
    pub jobs: usize,
    /// Also diff the [`RobustSelector`] ensemble on degraded and faulted
    /// cases (slower: each robust selection runs several plans).
    pub robust: bool,
    /// Base requests for the warm-start cross-request sweep
    /// ([`warm_sweep`]); each expands into several request variants.
    pub warm_cases: usize,
}

impl Default for DecideConfig {
    fn default() -> Self {
        Self {
            jobs: 200,
            robust: true,
            warm_cases: 8,
        }
    }
}

/// One diffed case: empty `mismatches` means the paths agreed bit for
/// bit and the fast timeline passed the invariant auditor.
#[derive(Debug)]
pub struct CaseResult {
    /// Where it came from.
    pub case: AuditCase,
    /// Whether the case carried a per-tensor ratio plan.
    pub ratio_plan: bool,
    /// Human-readable descriptions of every divergence found.
    pub mismatches: Vec<String>,
    /// The fast path's selection report (for sweep-level statistics).
    pub fast_report: Report,
}

impl CaseResult {
    /// Did the fast path match the reference exactly?
    pub fn ok(&self) -> bool {
        self.mismatches.is_empty()
    }
}

/// Outcome of the warm-start cross-request sweep ([`warm_sweep`]).
#[derive(Debug)]
pub struct WarmReport {
    /// Base requests swept (each expands into several variants).
    pub cases: usize,
    /// Cache hits observed across the sweep — must be nonzero, or the
    /// "cross-request reuse" claim was never actually exercised.
    pub hits: u64,
    /// Cache misses observed across the sweep.
    pub misses: u64,
    /// Human-readable descriptions of every warm-vs-cold divergence.
    pub mismatches: Vec<String>,
}

impl WarmReport {
    /// Did every warm decision match its cold decision byte for byte?
    pub fn ok(&self) -> bool {
        self.mismatches.is_empty()
    }
}

/// Sweep outcome: per-case results plus JSON reproductions for
/// divergences.
#[derive(Debug)]
pub struct DecideReport {
    /// Every checked case, in seed order.
    pub results: Vec<CaseResult>,
    /// One reproduction document per diverging case.
    pub failures: Vec<Json>,
    /// The warm-start cross-request sweep's outcome.
    pub warm: WarmReport,
    /// How the fast path's delta trials ended across the planner-path
    /// cases (robust ensembles included, warm sweep excluded).
    pub trials: TrialCounts,
}

impl DecideReport {
    /// True when no planner-path case diverged and no warm decision
    /// differed from its cold twin.
    pub fn ok(&self) -> bool {
        self.failures.is_empty() && self.warm.ok()
    }

    /// Case counts by flavor: `(nominal, degraded, faulted, ratio-bearing)`.
    pub fn coverage(&self) -> (usize, usize, usize, usize) {
        let mut c = (0, 0, 0, 0);
        for r in &self.results {
            match r.case.scenario {
                Scenario::Nominal => c.0 += 1,
                Scenario::Degraded(_) => c.1 += 1,
                Scenario::Faulted(_) => c.2 += 1,
            }
            if r.ratio_plan {
                c.3 += 1;
            }
        }
        c
    }

    /// Total timeline simulations the fast path reported across the
    /// sweep (pruned candidates included — the counters must match the
    /// reference, so this doubles as a volume statistic).
    pub fn fast_simulations(&self) -> usize {
        self.results
            .iter()
            .map(|r| r.fast_report.gpu_simulations)
            .sum()
    }
}

/// Samples the `seed`-th case of the decide corpus: [`sample`]'s stream,
/// with a per-tensor ratio plan installed on every fourth seed. The plan
/// cycles the algorithm's knob grid across tensors (same family, varied
/// knob — the contract `Job::with_tensor_algos` enforces); knobless
/// families get a uniform plan, which still exercises the
/// `tensor_algos` code path.
pub fn decide_corpus(seed: u64) -> AuditCase {
    let AuditCase {
        seed,
        job,
        scenario,
    } = sample(seed);
    let job = if seed % 4 == 3 {
        let grid = job.algo.ratio_settings();
        let plan = (0..job.num_tensors())
            .map(|i| grid[i % grid.len()])
            .collect();
        job.with_tensor_algos(plan)
    } else {
        job
    };
    AuditCase {
        seed,
        job,
        scenario,
    }
}

/// Compact one-line rendering of a strategy for divergence reports.
fn describe_strategy(s: &espresso::Strategy) -> String {
    s.iter()
        .map(|(i, o)| format!("{i}:{}", o.describe()))
        .collect::<Vec<_>>()
        .join(" ")
}

/// Bitwise comparison of two `f64`s, recording a mismatch under `name`.
fn diff_bits(name: &str, fast: f64, reference: f64, out: &mut Vec<String>) {
    if fast.to_bits() != reference.to_bits() {
        out.push(format!(
            "{name}: fast {fast:.17e} != reference {reference:.17e}"
        ));
    }
}

/// Diffs the deterministic fields of two selection reports (wall-clock
/// telemetry excluded — `*_seconds` legitimately differ between paths).
fn diff_reports(fast: &Report, reference: &Report, out: &mut Vec<String>) {
    diff_bits(
        "report.iteration_time",
        fast.iteration_time,
        reference.iteration_time,
        out,
    );
    diff_bits(
        "report.gpu_stage_time",
        fast.gpu_stage_time,
        reference.gpu_stage_time,
        out,
    );
    let counts = [
        ("compressed_tensors", fast.compressed_tensors, reference.compressed_tensors),
        ("offloaded_tensors", fast.offloaded_tensors, reference.offloaded_tensors),
        ("backfilled_tensors", fast.backfilled_tensors, reference.backfilled_tensors),
        ("ruled_out_tensors", fast.ruled_out_tensors, reference.ruled_out_tensors),
        ("gpu_simulations", fast.gpu_simulations, reference.gpu_simulations),
        ("offload_combinations", fast.offload_combinations, reference.offload_combinations),
    ];
    for (name, f, r) in counts {
        if f != r {
            out.push(format!("report.{name}: fast {f} != reference {r}"));
        }
    }
}

/// Diffs two timelines task by task, bit for bit.
fn diff_timelines(fast: &SimResult, reference: &SimResult, out: &mut Vec<String>) {
    if fast.tasks.len() != reference.tasks.len() {
        out.push(format!(
            "timeline: fast has {} tasks, reference {}",
            fast.tasks.len(),
            reference.tasks.len()
        ));
        return;
    }
    for (i, (f, r)) in fast.tasks.iter().zip(&reference.tasks).enumerate() {
        let same = f.tensor == r.tensor
            && f.kind == r.kind
            && f.resource == r.resource
            && f.span.start.to_bits() == r.span.start.to_bits()
            && f.span.end.to_bits() == r.span.end.to_bits();
        if !same {
            out.push(format!("timeline task {i}: fast {f:?} != reference {r:?}"));
            return;
        }
    }
}

/// Diffs two robust selections: winner, scores, and the full per-
/// candidate score table.
fn diff_robust(fast: &RobustSelection, reference: &RobustSelection, out: &mut Vec<String>) {
    if fast.strategy != reference.strategy {
        out.push(format!(
            "robust.strategy: fast [{}] != reference [{}]",
            describe_strategy(&fast.strategy),
            describe_strategy(&reference.strategy)
        ));
    }
    if fast.chosen != reference.chosen {
        out.push(format!(
            "robust.chosen: fast {:?} != reference {:?}",
            fast.chosen, reference.chosen
        ));
    }
    diff_bits("robust.mean_time", fast.mean_time, reference.mean_time, out);
    diff_bits("robust.worst_time", fast.worst_time, reference.worst_time, out);
    if fast.candidates.len() != reference.candidates.len() {
        out.push(format!(
            "robust.candidates: fast has {}, reference {}",
            fast.candidates.len(),
            reference.candidates.len()
        ));
        return;
    }
    for (f, r) in fast.candidates.iter().zip(&reference.candidates) {
        if f.name != r.name || f.admitted != r.admitted {
            out.push(format!(
                "robust candidate {:?}: admitted fast {} != reference {}",
                f.name, f.admitted, r.admitted
            ));
        }
        diff_bits(&format!("robust candidate {:?} mean", f.name), f.mean, r.mean, out);
        diff_bits(&format!("robust candidate {:?} worst", f.name), f.worst, r.worst, out);
    }
}

/// Checks one case: selection, timelines, fault replay, the invariant
/// auditor, and (optionally) the robust ensemble, fast versus reference.
pub fn check_case(case: &AuditCase, config: &DecideConfig) -> CaseResult {
    let sim_config = SimConfig::default();
    let pool = EvalPool::from_env();
    let espresso = Espresso::new(case.job.clone());
    let (s_ref, r_ref) = espresso.select_strategy_with(PlannerMode::Reference);
    let (s_fast, r_fast) = espresso.select_strategy_with(PlannerMode::Fast);

    let mut mismatches = Vec::new();
    if s_fast != s_ref {
        mismatches.push(format!(
            "strategy: fast [{}] != reference [{}]",
            describe_strategy(&s_fast),
            describe_strategy(&s_ref)
        ));
    }
    diff_reports(&r_fast, &r_ref, &mut mismatches);

    // Replay both selections through a fresh simulator and diff the full
    // Gantt charts — the strategies may be equal yet the claim is about
    // the *timelines* the serving layer exposes.
    let sim = Simulator::new(case.job.clone(), sim_config);
    let t_fast = sim.simulate(&s_fast);
    let t_ref = sim.simulate(&s_ref);
    diff_timelines(&t_fast, &t_ref, &mut mismatches);

    // A fast path that agreed with a broken reference would still slip
    // through a pure diff; hold its output to the physical invariants.
    for v in espresso_sim::audit::audit(&case.job, &s_fast, &sim_config, &t_fast) {
        mismatches.push(format!("fast timeline invariant: {v}"));
    }

    match &case.scenario {
        Scenario::Faulted(plan) => {
            diff_bits(
                "faulted replay",
                sim.iteration_time_with_faults(&s_fast, plan),
                sim.iteration_time_with_faults(&s_ref, plan),
                &mut mismatches,
            );
            if config.robust {
                let selector =
                    RobustSelector::new(case.job.clone(), Default::default())
                        .with_faults(plan.clone());
                diff_robust_paths(&selector, &pool, &mut mismatches);
            }
        }
        Scenario::Degraded(health) => {
            if config.robust {
                // The sampled job already sits on the effective cluster;
                // applying the health again just deepens the degradation,
                // which is exactly as good for a differential check.
                let selector = RobustSelector::new(case.job.clone(), *health);
                diff_robust_paths(&selector, &pool, &mut mismatches);
            }
        }
        Scenario::Nominal => {}
    }

    CaseResult {
        case: case.clone(),
        ratio_plan: case.job.tensor_algos.is_some(),
        mismatches,
        fast_report: r_fast,
    }
}

/// Runs one robust selector on both planner paths and diffs the results.
fn diff_robust_paths(selector: &RobustSelector, pool: &EvalPool, out: &mut Vec<String>) {
    let fast = selector.select_with(PlannerMode::Fast, pool);
    let reference = selector.select_with(PlannerMode::Reference, pool);
    match (fast, reference) {
        (Ok(f), Ok(r)) => diff_robust(&f, &r, out),
        (Err(f), Err(r)) => {
            // Same rejection on both paths is agreement.
            let (f, r) = (f.to_string(), r.to_string());
            if f != r {
                out.push(format!("robust error: fast {f:?} != reference {r:?}"));
            }
        }
        (Ok(_), Err(e)) => out.push(format!("robust: fast succeeded, reference failed: {e}")),
        (Err(e), Ok(_)) => out.push(format!("robust: fast failed, reference succeeded: {e}")),
    }
}

/// The `seed`-th base request of the warm-start sweep.
///
/// The planner-path corpus ([`decide_corpus`]) synthesizes explicit
/// [`crate::jobs`] profiles, which the service layer cannot express —
/// [`DecisionRequest`] names zoo models. So the warm sweep has its own
/// corpus in the service layer's vocabulary: named models crossed with
/// the paper's algorithm suite, both fabrics, varied scale, and the
/// robust/fault triggers that route through every [`WarmStartCache`]
/// entry kind.
pub fn warm_corpus(seed: u64) -> DecisionRequest {
    // Cheapest-first (10-tensor LSTM up to 314-tensor ResNet101), so a
    // short prefix sweep is affordable even in a debug build while the
    // full corpus still covers every zoo model.
    const NAMES: [&str; 6] = ["LSTM", "VGG16", "GPT2", "UGATIT", "BERT-base", "ResNet101"];
    let suite = GcAlgorithm::paper_suite();
    let i = seed as usize;
    let model = ModelConfig::Named {
        model: NAMES[i % NAMES.len()].to_string(),
    };
    let gc = GcConfig::uniform(suite[(i / NAMES.len()) % suite.len()]);
    let system = SystemConfig {
        machines: 1 + i % 2,
        gpus_per_machine: 4,
        intra: if seed.is_multiple_of(2) {
            IntraFabric::NvLink
        } else {
            IntraFabric::Pcie
        },
        inter_gbps: [25.0, 50.0, 100.0][i % 3],
    };
    let mut req = DecisionRequest::new(model, gc, system);
    // Force the robust ensemble on some nominal requests and a fault
    // plan on others — the Robust entry kind has its own key space.
    req.robust = seed.is_multiple_of(3);
    if seed % 4 == 1 {
        req.faults = Some(format!("seed={seed}"));
    }
    req
}

/// The warm-start cross-request differential sweep.
///
/// For every base request and its health-shifted sibling, the cold
/// [`decide`] answer is the oracle; a memoized [`Planner::decide`] must
/// reproduce it byte for byte both on the populating pass (memo cold for
/// that key) and the replaying pass (memo hot). One memo is shared across
/// the whole sweep — the claim under test is *cross-request* reuse:
/// the sibling's robust selection must start from the nominal entry its
/// base request populated, which is exactly the reuse the fleet's
/// batched re-planning leans on when a health delta sweeps a spec group.
pub fn warm_sweep(cases: usize) -> WarmReport {
    // `with_enabled` pins the memo on, so `ESPRESSO_WARM_STARTS=0` in
    // the environment cannot quietly turn this audit into a no-op.
    let planner = Planner::with_memo(WarmStartCache::with_enabled(256, 4, true));
    let warm = planner.memo();
    let mut mismatches = Vec::new();
    for seed in 0..cases as u64 {
        let base = warm_corpus(seed);
        // Same spec, shifted health: the request pair a fleet health
        // delta produces, and the one whose robust path reuses the
        // base's nominal planning.
        let mut sibling = base.clone();
        sibling.health = ClusterHealth::inter_degraded(1.5 + (seed % 3) as f64 * 0.5);

        for (label, req) in [("base", &base), ("sibling", &sibling)] {
            let cold = match decide(req) {
                Ok(d) => Json::encode(&d.response()),
                Err(e) => {
                    mismatches.push(format!("seed {seed} {label}: cold decide failed: {e}"));
                    continue;
                }
            };
            for pass in ["populate", "replay"] {
                match planner.decide(req) {
                    Ok(d) => {
                        let got = Json::encode(&d.response());
                        if got != cold {
                            mismatches.push(format!(
                                "seed {seed} {label} ({pass}): warm decision != cold decision\n\
                                 warm: {got}\ncold: {cold}"
                            ));
                        }
                    }
                    Err(e) => mismatches.push(format!(
                        "seed {seed} {label} ({pass}): warm decide failed: {e}"
                    )),
                }
            }
        }
    }
    if cases > 0 && warm.hits() == 0 {
        mismatches.push(
            "warm sweep never hit the cache — cross-request reuse was not exercised".to_string(),
        );
    }
    WarmReport {
        cases,
        hits: warm.hits(),
        misses: warm.misses(),
        mismatches,
    }
}

/// Runs the full sweep over seeds `0..config.jobs`, then the warm-start
/// cross-request sweep over `0..config.warm_cases`.
pub fn run(config: &DecideConfig) -> DecideReport {
    let mut results = Vec::with_capacity(config.jobs);
    let mut failures = Vec::new();
    let before = TrialCounts::process_totals();
    for seed in 0..config.jobs as u64 {
        let case = decide_corpus(seed);
        let result = check_case(&case, config);
        if !result.ok() {
            failures.push(repro_json(&result));
        }
        results.push(result);
    }
    let trials = TrialCounts::process_totals().since(before);
    let warm = warm_sweep(config.warm_cases);
    DecideReport {
        results,
        failures,
        warm,
        trials,
    }
}

/// Renders a diverging case as a self-contained JSON reproduction.
fn repro_json(result: &CaseResult) -> Json {
    let case = &result.case;
    let tensors: Vec<Json> = case
        .job
        .model
        .tensors
        .iter()
        .map(|t| {
            Json::obj(vec![
                ("name", t.name.to_json()),
                ("elems", Json::Num(t.elems as f64)),
                ("compute_time", t.compute_time.to_json()),
            ])
        })
        .collect();
    let ratio_plan = match &case.job.tensor_algos {
        Some(plan) => Json::Arr(plan.iter().map(|a| a.setting_label().to_json()).collect()),
        None => Json::Null,
    };
    Json::obj(vec![
        ("seed", Json::Num(case.seed as f64)),
        ("scenario", case.scenario.label().to_json()),
        ("algorithm", case.job.algo.name().to_json()),
        ("ratio_plan", ratio_plan),
        ("machines", Json::Num(case.job.cluster.machines as f64)),
        (
            "gpus_per_machine",
            Json::Num(case.job.cluster.gpus_per_machine as f64),
        ),
        ("tensors", Json::Arr(tensors)),
        (
            "mismatches",
            Json::Arr(result.mismatches.iter().map(|m| m.to_json()).collect()),
        ),
    ])
    .canonical()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_is_deterministic_and_ratio_bearing() {
        for seed in 0..16 {
            let a = decide_corpus(seed);
            let b = decide_corpus(seed);
            assert_eq!(a.job.tensor_algos, b.job.tensor_algos);
            assert_eq!(a.job.tensor_algos.is_some(), seed % 4 == 3);
            if let Some(plan) = &a.job.tensor_algos {
                assert!(plan.iter().all(|p| p.same_family(&a.job.algo)));
            }
        }
    }

    #[test]
    fn sweep_passes_on_the_seeded_stream() {
        // 16 cases cover all three scenarios plus ratio-bearing seeds;
        // the CLI runs the full 200. A divergence here is a real fast-
        // path bug: both paths are deterministic, nothing is flaky.
        let report = run(&DecideConfig {
            jobs: 16,
            robust: false,
            warm_cases: 0,
        });
        assert_eq!(report.results.len(), 16);
        let (nominal, degraded, faulted, ratio) = report.coverage();
        assert!(nominal > 0 && degraded > 0 && faulted > 0 && ratio > 0);
        assert!(
            report.ok(),
            "fast path diverged: {:#?}",
            report
                .failures
                .iter()
                .map(|f| f.render())
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn robust_paths_agree_on_a_degraded_case() {
        // Seed 1 is degraded; run the full robust ensemble diff on it.
        let case = decide_corpus(1);
        let result = check_case(
            &case,
            &DecideConfig {
                jobs: 1,
                robust: true,
                warm_cases: 0,
            },
        );
        assert!(result.ok(), "robust diverged: {:#?}", result.mismatches);
    }

    #[test]
    fn warm_sweep_matches_cold_and_reuses_entries() {
        // One base — seed 0 is the 10-tensor LSTM (the corpus is
        // ordered cheapest-first exactly so this stays affordable in a
        // debug build): a robust nominal base plus its degraded
        // sibling, each decided cold, populating, and replaying. The
        // full multi-model corpus runs in release via `espresso-audit
        // decide` in ci.sh.
        let report = warm_sweep(1);
        assert!(report.ok(), "warm diverged: {:#?}", report.mismatches);
        assert_eq!(report.cases, 1);
        // The replay pass alone guarantees one hit per variant.
        assert!(
            report.hits >= 2,
            "hits: {} (misses: {})",
            report.hits,
            report.misses
        );
    }

    #[test]
    fn warm_corpus_is_deterministic_and_varied() {
        for seed in 0..12 {
            assert_eq!(
                format!("{:?}", warm_corpus(seed)),
                format!("{:?}", warm_corpus(seed)),
            );
        }
        assert!((0..12).any(|s| warm_corpus(s).robust));
        assert!((0..12).any(|s| warm_corpus(s).faults.is_some()));
        assert!((0..12).any(|s| !warm_corpus(s).robust && warm_corpus(s).faults.is_none()));
    }

    #[test]
    fn an_injected_divergence_is_reported() {
        // Sanity-check the harness itself: diff a case's fast report
        // against a tampered reference and make sure it screams.
        let case = decide_corpus(0);
        let config = DecideConfig {
            jobs: 1,
            robust: false,
            warm_cases: 0,
        };
        let honest = check_case(&case, &config);
        assert!(honest.ok());
        let mut tampered = honest.fast_report.clone();
        tampered.gpu_simulations += 1;
        tampered.iteration_time += 1e-9;
        let mut out = Vec::new();
        diff_reports(&honest.fast_report, &tampered, &mut out);
        assert_eq!(out.len(), 2, "{out:?}");
    }
}
