//! The request → decision API shared by every front-end.
//!
//! `espresso-cli` and `espresso-serve` both answer the same question —
//! "given a model, a GC algorithm, and a cluster, which strategy should I
//! run?" — so the plumbing lives here exactly once: a [`DecisionRequest`]
//! (the three Figure 6 sections plus the robustness extras) goes in, a
//! [`Decision`] comes out, and [`Decision::response`] flattens it into
//! the wire-friendly [`DecisionResponse`]. Front-ends only differ in how
//! they acquire the request (flags vs. HTTP body) and present the result
//! (human text vs. JSON).

use espresso_cluster::ClusterHealth;
use espresso_json::{DecodeError, FromJson, Json, ToJson};
use espresso_sim::{FaultPlan, Job, SimConfig, Simulator};
use espresso_strategy::Strategy;

use crate::config::{build_job, FileConfig, GcConfig, ModelConfig, SystemConfig};
use crate::error::EspressoError;
use crate::espresso::{Espresso, PlannerMode, Report};
use crate::parallel::EvalPool;
use crate::robust::{RobustSelection, RobustSelector};
use crate::warm::WarmStartCache;

/// One complete decision request: the three configuration sections of
/// the paper's Figure 6 plus the robustness extras the CLI grew flags
/// for (observed cluster health, a fault plan, the robust selector).
#[derive(Debug, Clone)]
pub struct DecisionRequest {
    /// Model information.
    pub model: ModelConfig,
    /// GC information.
    pub gc: GcConfig,
    /// Training-system information.
    pub system: SystemConfig,
    /// Observed cluster health (nominal when omitted).
    pub health: ClusterHealth,
    /// Optional fault-plan spec, as `--faults` accepts (a bare seed or
    /// `key=value` pairs).
    pub faults: Option<String>,
    /// Whether to run the ensemble-based robust selector even on a
    /// nominal cluster.
    pub robust: bool,
}

impl DecisionRequest {
    /// A plain nominal request from the three config sections.
    pub fn new(model: ModelConfig, gc: GcConfig, system: SystemConfig) -> Self {
        Self {
            model,
            gc,
            system,
            health: ClusterHealth::nominal(),
            faults: None,
            robust: false,
        }
    }

    /// Decodes a request from JSON text — the body format `espresso-serve`
    /// accepts, a strict superset of the `--config` file format.
    ///
    /// # Errors
    ///
    /// [`EspressoError::Json`] (with line/column) for malformed JSON and
    /// [`EspressoError::Config`] (with the dotted field path) for a
    /// missing or malformed field — byte-for-byte the same errors the
    /// CLI prints for a bad `--config` file.
    pub fn parse(text: &str) -> Result<Self, EspressoError> {
        let json = Json::parse(text).map_err(|e| EspressoError::Json {
            file: String::new(),
            message: e.to_string(),
        })?;
        DecisionRequest::from_json(&json).map_err(EspressoError::from)
    }

    /// The canonical cache key text: the request re-encoded with all
    /// defaults made explicit and every object's keys sorted. Two
    /// semantically identical requests — whatever key order or optional
    /// fields their JSON spelled out — produce byte-identical key text.
    pub fn canonical_key(&self) -> String {
        self.to_json().canonical().render()
    }

    /// The default re-plan priority of the job this request describes
    /// (see [`crate::robust::replan_priority`]): what a fleet scheduler
    /// uses when the job's owner did not pin an explicit priority.
    ///
    /// # Errors
    ///
    /// Any config-resolution [`EspressoError`] — the same errors
    /// [`decide`] would report for this request.
    pub fn replan_priority(&self) -> Result<u64, EspressoError> {
        let job = build_job(&self.model, &self.gc, &self.system, None)?;
        Ok(crate::robust::replan_priority(&job))
    }
}

impl From<FileConfig> for DecisionRequest {
    fn from(cfg: FileConfig) -> Self {
        Self::new(cfg.model, cfg.gc, cfg.system)
    }
}

impl ToJson for DecisionRequest {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("model", self.model.to_json()),
            ("gc", self.gc.to_json()),
            ("system", self.system.to_json()),
            ("health", self.health.to_json()),
            ("faults", self.faults.to_json()),
            ("robust", self.robust.to_json()),
        ])
    }
}

impl FromJson for DecisionRequest {
    fn from_json(v: &Json) -> Result<Self, DecodeError> {
        Ok(Self {
            model: v.req("model")?,
            gc: v.req("gc")?,
            system: v.req("system")?,
            health: v.opt("health")?.unwrap_or_default(),
            faults: v.opt("faults")?,
            robust: v.opt("robust")?.unwrap_or(false),
        })
    }
}

/// The full outcome of one decision, rich enough for any front-end: the
/// CLI renders the census and baselines from `job` + `strategy`, the
/// server flattens it with [`Decision::response`].
#[derive(Debug, Clone)]
pub struct Decision {
    /// The assembled job the decision was made for.
    pub job: Job,
    /// The selected strategy.
    pub strategy: Strategy,
    /// Selection telemetry.
    pub report: Report,
    /// The parsed fault plan, when the request carried one.
    pub fault_plan: Option<FaultPlan>,
    /// Iteration time re-simulated under the fault plan.
    pub faulted_iteration_time: Option<f64>,
    /// The robust selection, when health was non-nominal or `robust` was
    /// requested.
    pub robust: Option<RobustSelection>,
}

/// Runs one decision end to end: build the job, select the strategy,
/// optionally replay it under faults and run the robust selector.
///
/// # Errors
///
/// Any [`EspressoError`] from config resolution, fault-plan parsing, or
/// robust selection — all carrying enough context to fix the request.
pub fn decide(req: &DecisionRequest) -> Result<Decision, EspressoError> {
    decide_in(req, None, SimConfig::default())
}

/// As [`decide`], seeded by a shared [`WarmStartCache`]: the nominal
/// selection and (when one runs) the robust selection are replayed from
/// the cache on a key match and stored back after a cold plan. Everything
/// derived from them — the fault replay, the response flattening — is
/// computed fresh per request, so the returned [`Decision`] is
/// byte-identical to [`decide`]'s for the same request (modulo the
/// [`Report`] wall-clock telemetry, which is excluded from the equality
/// contract). The `espresso-audit decide` sweep proves this bit for bit.
///
/// # Errors
///
/// As [`decide`].
pub fn decide_with_warm(
    req: &DecisionRequest,
    warm: &WarmStartCache,
) -> Result<Decision, EspressoError> {
    decide_in(req, Some(warm), SimConfig::default())
}

/// The one decision pipeline behind [`decide`] and [`decide_with_warm`].
/// `config` is the single simulator configuration the nominal selection,
/// the fault replay and the robust ensemble all price with. Cache keys do
/// not cover it, so every user of one `warm` cache must pass the same
/// configuration.
pub(crate) fn decide_in(
    req: &DecisionRequest,
    warm: Option<&WarmStartCache>,
    config: SimConfig,
) -> Result<Decision, EspressoError> {
    let job = build_job(&req.model, &req.gc, &req.system, None)?;
    let fault_plan = req
        .faults
        .as_deref()
        .map(|spec| {
            FaultPlan::parse(spec, job.cluster.total_gpus())
                .map_err(|e| EspressoError::Fault { message: e.message })
        })
        .transpose()?;

    let select = || Espresso::new(job.clone()).with_config(config).select_strategy();
    let (strategy, report) = match warm {
        None => select(),
        Some(warm) => {
            let key = WarmStartCache::nominal_key(&job);
            match warm.get_nominal(&key) {
                Some(sel) => (sel.0.clone(), sel.1.clone()),
                None => {
                    let sel = select();
                    warm.insert_nominal(key, sel.clone());
                    sel
                }
            }
        }
    };

    let faulted_iteration_time = fault_plan.as_ref().map(|plan| {
        Simulator::new(job.clone(), config).iteration_time_with_faults(&strategy, plan)
    });

    let robust = if req.robust || !req.health.is_nominal() {
        // The ensemble's nominal candidate is the selection just made
        // for the same job and configuration; hand it over instead of
        // planning it again.
        let select_robust = || {
            let mut selector = RobustSelector::new(job.clone(), req.health).with_config(config);
            if let Some(plan) = fault_plan.clone() {
                selector = selector.with_faults(plan);
            }
            selector.select_seeded(
                PlannerMode::from_env(),
                &EvalPool::from_env(),
                Some(strategy.clone()),
            )
        };
        Some(match warm {
            None => select_robust()?,
            Some(warm) => {
                let key = WarmStartCache::robust_key(&job, &req.health, req.faults.as_deref());
                match warm.get_robust(&key) {
                    Some(sel) => (*sel).clone(),
                    None => {
                        let sel = select_robust()?;
                        warm.insert_robust(key, sel.clone());
                        sel
                    }
                }
            }
        })
    } else {
        None
    };

    Ok(Decision {
        job,
        strategy,
        report,
        fault_plan,
        faulted_iteration_time,
        robust,
    })
}

/// Summary of a robust selection, flattened for the wire.
#[derive(Debug, Clone, PartialEq)]
pub struct RobustSummary {
    /// Name of the winning candidate.
    pub chosen: String,
    /// Its mean iteration time across the ensemble, in milliseconds.
    pub mean_ms: f64,
    /// Its worst iteration time across the ensemble, in milliseconds.
    pub worst_ms: f64,
    /// Ensemble size.
    pub scenarios: usize,
}

impl ToJson for RobustSummary {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("chosen", self.chosen.to_json()),
            ("mean_ms", self.mean_ms.to_json()),
            ("worst_ms", self.worst_ms.to_json()),
            ("scenarios", self.scenarios.to_json()),
        ])
    }
}

impl FromJson for RobustSummary {
    fn from_json(v: &Json) -> Result<Self, DecodeError> {
        Ok(Self {
            chosen: v.req("chosen")?,
            mean_ms: v.req("mean_ms")?,
            worst_ms: v.req("worst_ms")?,
            scenarios: v.req("scenarios")?,
        })
    }
}

/// The wire shape of one decision: everything a client needs to apply
/// (and sanity-check) the selected strategy, flattened to plain JSON.
///
/// The body is a pure function of the [`DecisionRequest`] — recomputing
/// a decision yields byte-identical JSON, which is what makes response
/// caching by canonical request key sound (and auditable: see
/// `crates/serve/tests/equivalence.rs`). Wall-clock telemetry such as
/// selection latency deliberately lives in the server's `/metrics`
/// histograms, never in this body.
#[derive(Debug, Clone, PartialEq)]
pub struct DecisionResponse {
    /// Resolved model name.
    pub model: String,
    /// GC algorithm name.
    pub algorithm: String,
    /// Machines in the cluster.
    pub machines: usize,
    /// GPUs per machine.
    pub gpus_per_machine: usize,
    /// Predicted iteration time, milliseconds.
    pub iteration_time_ms: f64,
    /// Predicted training throughput, samples/second.
    pub throughput_samples_per_sec: f64,
    /// Scaling factor versus ideal linear scaling.
    pub scaling_factor: f64,
    /// Tensors selected for compression.
    pub compressed_tensors: usize,
    /// Tensors whose compression was offloaded to CPUs.
    pub offloaded_tensors: usize,
    /// Tensors newly compressed on CPUs by the backfill pass.
    pub backfilled_tensors: usize,
    /// Tensors ruled out by bubble analysis.
    pub ruled_out_tensors: usize,
    /// Per-tensor option descriptions, in tensor order (ratio-bearing
    /// when a per-tensor plan is active, e.g. `hier[...] d=0.05`).
    pub strategy: Vec<String>,
    /// The per-tensor ratio plan the decision was made under (sparsifier
    /// densities in tensor order), when one is active.
    pub ratios: Option<Vec<f64>>,
    /// Iteration time under the requested fault plan, milliseconds.
    pub faulted_iteration_ms: Option<f64>,
    /// The robust selection summary, when one ran.
    pub robust: Option<RobustSummary>,
}

impl Decision {
    /// Flattens this decision into its wire shape.
    pub fn response(&self) -> DecisionResponse {
        DecisionResponse {
            model: self.job.model.name.clone(),
            algorithm: self.job.algo.name().to_string(),
            machines: self.job.cluster.machines,
            gpus_per_machine: self.job.cluster.gpus_per_machine,
            iteration_time_ms: self.report.iteration_time * 1e3,
            throughput_samples_per_sec: self.job.throughput(self.report.iteration_time),
            scaling_factor: self.job.scaling_factor(self.report.iteration_time),
            compressed_tensors: self.strategy.num_compressed(),
            offloaded_tensors: self.report.offloaded_tensors,
            backfilled_tensors: self.report.backfilled_tensors,
            ruled_out_tensors: self.report.ruled_out_tensors,
            strategy: self
                .strategy
                .iter()
                .map(|(i, o)| match &self.job.tensor_algos {
                    Some(algos) => o.describe_with(algos[i]),
                    None => o.describe(),
                })
                .collect(),
            ratios: self.job.tensor_algos.as_ref().map(|algos| {
                algos
                    .iter()
                    .map(|a| a.density().unwrap_or_else(|| a.ratio(1_000_000)))
                    .collect()
            }),
            faulted_iteration_ms: self.faulted_iteration_time.map(|t| t * 1e3),
            robust: self.robust.as_ref().map(|r| RobustSummary {
                chosen: r.chosen.clone(),
                mean_ms: r.mean_time * 1e3,
                worst_ms: r.worst_time * 1e3,
                scenarios: r.scenarios,
            }),
        }
    }
}

impl ToJson for DecisionResponse {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("model", self.model.to_json()),
            ("algorithm", self.algorithm.to_json()),
            ("machines", self.machines.to_json()),
            ("gpus_per_machine", self.gpus_per_machine.to_json()),
            ("iteration_time_ms", self.iteration_time_ms.to_json()),
            (
                "throughput_samples_per_sec",
                self.throughput_samples_per_sec.to_json(),
            ),
            ("scaling_factor", self.scaling_factor.to_json()),
            ("compressed_tensors", self.compressed_tensors.to_json()),
            ("offloaded_tensors", self.offloaded_tensors.to_json()),
            ("backfilled_tensors", self.backfilled_tensors.to_json()),
            ("ruled_out_tensors", self.ruled_out_tensors.to_json()),
            ("strategy", self.strategy.to_json()),
            ("ratios", self.ratios.to_json()),
            ("faulted_iteration_ms", self.faulted_iteration_ms.to_json()),
            (
                "robust",
                match &self.robust {
                    Some(r) => r.to_json(),
                    None => Json::Null,
                },
            ),
        ])
    }
}

impl FromJson for DecisionResponse {
    fn from_json(v: &Json) -> Result<Self, DecodeError> {
        Ok(Self {
            model: v.req("model")?,
            algorithm: v.req("algorithm")?,
            machines: v.req("machines")?,
            gpus_per_machine: v.req("gpus_per_machine")?,
            iteration_time_ms: v.req("iteration_time_ms")?,
            throughput_samples_per_sec: v.req("throughput_samples_per_sec")?,
            scaling_factor: v.req("scaling_factor")?,
            compressed_tensors: v.req("compressed_tensors")?,
            offloaded_tensors: v.req("offloaded_tensors")?,
            backfilled_tensors: v.req("backfilled_tensors")?,
            ruled_out_tensors: v.req("ruled_out_tensors")?,
            strategy: v.req("strategy")?,
            ratios: v.opt("ratios")?,
            faulted_iteration_ms: v.opt("faulted_iteration_ms")?,
            robust: v.opt("robust")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use espresso_cluster::IntraFabric;
    use espresso_gc::GcAlgorithm;

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

    #[test]
    fn decide_matches_the_direct_selector() {
        let req = lstm_request();
        let decision = decide(&req).unwrap();
        let (strategy, report) =
            Espresso::new(decision.job.clone()).select_strategy();
        assert_eq!(decision.strategy.len(), strategy.len());
        assert!((decision.report.iteration_time - report.iteration_time).abs() < 1e-12);
        assert!(decision.robust.is_none());
        assert!(decision.faulted_iteration_time.is_none());
        let resp = decision.response();
        assert_eq!(resp.model, "LSTM");
        assert_eq!(resp.strategy.len(), 10);
        assert!(resp.iteration_time_ms > 0.0);
    }

    #[test]
    fn request_json_round_trips_and_defaults_apply() {
        let text = r#"{
            "model": { "model": "LSTM" },
            "gc": { "algorithm": "EfSignSgd" },
            "system": { "machines": 2, "gpus_per_machine": 4,
                        "intra": "Pcie", "inter_gbps": 25.0 }
        }"#;
        let req = DecisionRequest::parse(text).unwrap();
        assert!(req.health.is_nominal());
        assert!(!req.robust);
        assert!(req.faults.is_none());
        let back = DecisionRequest::parse(&Json::encode(&req)).unwrap();
        assert_eq!(back.canonical_key(), req.canonical_key());
    }

    #[test]
    fn key_order_does_not_change_the_canonical_key() {
        let a = DecisionRequest::parse(
            r#"{
                "system": { "inter_gbps": 25.0, "intra": "Pcie",
                            "gpus_per_machine": 4, "machines": 2 },
                "gc": { "algorithm": "EfSignSgd" },
                "model": { "model": "LSTM" },
                "robust": false
            }"#,
        )
        .unwrap();
        let b = DecisionRequest::parse(
            r#"{
                "model": { "model": "LSTM" },
                "gc": { "algorithm": "EfSignSgd" },
                "system": { "machines": 2, "gpus_per_machine": 4,
                            "intra": "Pcie", "inter_gbps": 25.0 },
                "health": {}
            }"#,
        )
        .unwrap();
        assert_eq!(a.canonical_key(), b.canonical_key());

        // A different health state is a different key — degraded requests
        // must never be answered from the nominal cache line.
        let degraded = DecisionRequest {
            health: ClusterHealth::inter_degraded(2.0),
            ..a.clone()
        };
        assert_ne!(degraded.canonical_key(), a.canonical_key());
    }

    #[test]
    fn malformed_request_errors_carry_field_context() {
        let err = DecisionRequest::parse(r#"{ "model": { "model": "LSTM" } }"#).unwrap_err();
        assert!(err.to_string().contains("gc"), "{err}");

        let err = DecisionRequest::parse(
            r#"{
                "model": { "model": "LSTM" },
                "gc": { "algorithm": { "Dgc": { "density": 2.0 } } },
                "system": { "machines": 2, "gpus_per_machine": 4,
                            "intra": "Pcie", "inter_gbps": 25.0 }
            }"#,
        )
        .unwrap_err();
        assert!(err.to_string().contains("gc.algorithm.Dgc.density"), "{err}");

        let err = DecisionRequest::parse("{ not json").unwrap_err();
        assert!(matches!(err, EspressoError::Json { .. }), "{err}");
    }

    #[test]
    fn ratio_plans_split_the_cache_key_and_surface_in_the_response() {
        let base = r#"{
            "model": { "model": "LSTM" },
            "gc": { "algorithm": { "Dgc": { "density": 0.01 } } },
            "system": { "machines": 2, "gpus_per_machine": 4,
                        "intra": "Pcie", "inter_gbps": 25.0 }
        }"#;
        let plain = DecisionRequest::parse(base).unwrap();
        let n = plain.model.resolve().unwrap().num_tensors();
        let mut planned = plain.clone();
        planned.gc.ratios = Some((0..n).map(|i| if i == 0 { 0.05 } else { 0.01 }).collect());
        assert_ne!(planned.canonical_key(), plain.canonical_key());
        // An explicit-default plan is the same key as no plan.
        let mut noop = plain.clone();
        noop.gc.ratios = Some(vec![0.01; n]);
        assert_eq!(noop.canonical_key(), plain.canonical_key());

        let resp = decide(&planned).unwrap().response();
        let ratios = resp.ratios.as_ref().unwrap();
        assert_eq!(ratios.len(), n);
        assert_eq!(ratios[0], 0.05);
        assert!(resp.strategy.iter().any(|s| s.contains("d=")), "{:?}", resp.strategy);
        assert!(decide(&plain).unwrap().response().ratios.is_none());
    }

    #[test]
    fn replan_priority_orders_by_gradient_traffic() {
        let small = lstm_request();
        let mut big = lstm_request();
        big.model = ModelConfig::Named {
            model: "BERT-base".into(),
        };
        big.system.machines = 8;
        let (ps, pb) = (
            small.replan_priority().unwrap(),
            big.replan_priority().unwrap(),
        );
        assert!(ps > 0);
        assert!(pb > ps, "8-machine BERT must outrank 2-machine LSTM: {pb} vs {ps}");
        // Errors surface instead of panicking.
        let mut bad = lstm_request();
        bad.model = ModelConfig::Named {
            model: "NoSuchNet".into(),
        };
        assert!(bad.replan_priority().is_err());
    }

    #[test]
    fn warm_decides_match_cold_byte_for_byte() {
        let warm = crate::warm::WarmStartCache::with_enabled(16, 2, true);
        let mut req = lstm_request();
        req.health = ClusterHealth::inter_degraded(2.0);
        req.faults = Some("seed=7,straggler=1.5".into());
        let cold = decide(&req).unwrap();
        let populate = decide_with_warm(&req, &warm).unwrap();
        let replay = decide_with_warm(&req, &warm).unwrap();
        assert!(warm.hits() >= 2, "the second warm decide must hit");
        let enc = |d: &Decision| Json::encode(&d.response());
        assert_eq!(enc(&populate), enc(&cold));
        assert_eq!(enc(&replay), enc(&cold));
        // A near-identical request (different health) misses the robust
        // line but still reuses the nominal selection.
        let hits = warm.hits();
        let mut other = req.clone();
        other.health = ClusterHealth::inter_degraded(3.0);
        let warm_other = decide_with_warm(&other, &warm).unwrap();
        assert_eq!(enc(&warm_other), enc(&decide(&other).unwrap()));
        assert!(warm.hits() > hits, "nominal selection reused across healths");
    }

    #[test]
    fn warm_and_cold_paths_price_with_one_config() {
        // A non-default configuration that moves the fault replay: were
        // the cold and warm paths to take their configuration from two
        // sources, their answers would split here.
        let config = SimConfig {
            partition_bytes: 1e6,
            aggregate_overhead: 50e-6,
            ..SimConfig::default()
        };
        let mut req = lstm_request();
        req.faults = Some("seed=7,straggler=1.5".into());
        req.robust = true;
        let cold = decide_in(&req, None, config).unwrap();
        let warm = WarmStartCache::with_enabled(16, 2, true);
        let populate = decide_in(&req, Some(&warm), config).unwrap();
        let replay = decide_in(&req, Some(&warm), config).unwrap();
        let faulted = |d: &Decision| d.faulted_iteration_time.unwrap().to_bits();
        let default = decide_in(&req, None, SimConfig::default()).unwrap();
        assert_ne!(faulted(&cold), faulted(&default), "the config must move the price");
        let enc = |d: &Decision| Json::encode(&d.response());
        for d in [&populate, &replay] {
            assert_eq!(faulted(d), faulted(&cold));
            assert_eq!(enc(d), enc(&cold));
        }
    }

    #[test]
    fn faults_and_robust_flow_through_decide() {
        let mut req = lstm_request();
        req.faults = Some("seed=7,straggler=1.5".into());
        req.health = ClusterHealth::inter_degraded(2.0);
        let decision = decide(&req).unwrap();
        let faulted = decision.faulted_iteration_time.unwrap();
        assert!(faulted >= decision.report.iteration_time);
        let robust = decision.robust.as_ref().unwrap();
        assert!(robust.scenarios > 0);
        let resp = decision.response();
        assert_eq!(resp.robust.as_ref().unwrap().chosen, robust.chosen);

        req.faults = Some("seed=7,unknown_key=1".into());
        assert!(matches!(
            decide(&req),
            Err(EspressoError::Fault { .. })
        ));
    }
}
