//! Golden-trace regression snapshots.
//!
//! A golden file pins the full Gantt trace of one `(model, GC
//! algorithm)` pair on the reference 2×2 PCIe cluster, as canonical
//! JSON: the Espresso-selected strategy (serialized option by option)
//! plus every simulated task span. Because both the strategy encoding
//! and [`espresso_sim::gantt::export_json`] are byte-deterministic, any
//! change to the timing model, the engine's scheduling, the option
//! serialization — or a deliberate change to the selection pipeline —
//! shows up as a byte diff against the snapshot.
//!
//! ## Check versus regenerate
//!
//! *Checking* a golden is cheap: the stored strategy is deserialized and
//! re-simulated, so the suite runs in debug test builds. *Regenerating*
//! (`UPDATE_GOLDENS=1`, or `espresso-audit goldens --update`) re-runs
//! the full selection pipeline — minutes of work across the six paper
//! models — and rewrites the snapshots. Regenerate only when a diff is
//! intended, and review the diff like code: it *is* the observable
//! behavior of the simulator.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use espresso::Espresso;
use espresso_cluster::Cluster;
use espresso_gc::GcAlgorithm;
use espresso_json::{FromJson, Json, ToJson};
use espresso_models::Model;
use espresso_sim::{audit, gantt, simulate, Job, SimConfig};
use espresso_strategy::{CompressionOption, Strategy};

/// One snapshot case.
#[derive(Debug, Clone)]
pub struct GoldenCase {
    /// Paper model.
    pub model: Model,
    /// GC algorithm (the paper's evaluation trio).
    pub algo: GcAlgorithm,
    /// Ratio-bearing variant: when set, the front (output-side) half of
    /// the tensors runs this looser setting of the same family — a
    /// deterministic stand-in for an allocator-produced layerwise plan,
    /// so the per-tensor ratio machinery is pinned by snapshots too.
    pub variant: Option<GcAlgorithm>,
}

impl GoldenCase {
    /// Snapshot file name, e.g. `vgg16_dgc.json` (uniform) or
    /// `vgg16_dgc_adapt_d0p05.json` (ratio variant, named by the looser
    /// setting's slug).
    pub fn file_name(&self) -> String {
        let model = self
            .model
            .name()
            .to_ascii_lowercase()
            .replace('-', "_");
        let algo = self.algo.name().to_ascii_lowercase();
        match &self.variant {
            None => format!("{model}_{algo}.json"),
            Some(v) => format!("{model}_{algo}_adapt_{}.json", v.setting_slug()),
        }
    }

    /// Human-readable label ("VGG16/DGC", "VGG16/DGC[adapt d=0.05]").
    pub fn label(&self) -> String {
        match &self.variant {
            None => format!("{}/{}", self.model.name(), self.algo.name()),
            Some(v) => format!(
                "{}/{}[adapt {}]",
                self.model.name(),
                self.algo.name(),
                v.setting_label()
            ),
        }
    }

    /// The per-tensor plan this case runs under (`None` for uniform).
    pub fn plan(&self, num_tensors: usize) -> Option<Vec<GcAlgorithm>> {
        let v = self.variant?;
        Some(
            (0..num_tensors)
                .map(|i| if i < num_tensors / 2 { v } else { self.algo })
                .collect(),
        )
    }
}

/// The full 6 × 3 snapshot matrix in paper-table order, plus the
/// ratio-bearing variants (one sparsifier per family, on the two models
/// whose selection is cheapest to regenerate).
pub fn cases() -> Vec<GoldenCase> {
    let mut all = Vec::new();
    for model in Model::ALL {
        for algo in GcAlgorithm::paper_suite() {
            all.push(GoldenCase {
                model,
                algo,
                variant: None,
            });
        }
    }
    all.push(GoldenCase {
        model: Model::Vgg16,
        algo: GcAlgorithm::dgc_1pct(),
        variant: Some(GcAlgorithm::Dgc { density: 0.05 }),
    });
    all.push(GoldenCase {
        model: Model::Lstm,
        algo: GcAlgorithm::randomk_1pct(),
        variant: Some(GcAlgorithm::RandomK { density: 0.05 }),
    });
    all
}

/// The reference cluster every snapshot runs on: small enough that
/// selection terminates quickly, multi-machine so inter-machine
/// collectives (and their phase rules) appear in every trace.
pub fn reference_cluster() -> Cluster {
    Cluster::pcie_25g(2, 2)
}

fn job_for(case: &GoldenCase) -> Job {
    let mut job = Job::new(
        case.model.profile(),
        reference_cluster(),
        case.algo,
    );
    job.set_tensor_algos(case.plan(job.num_tensors()));
    job
}

/// Renders the snapshot document for `strategy` on this case's job.
fn document(case: &GoldenCase, job: &Job, strategy: &Strategy) -> String {
    let options: Vec<Json> = strategy.iter().map(|(_, o)| o.to_json()).collect();
    let result = simulate(job, strategy, &SimConfig::default());
    let mut fields = vec![
        ("model", case.model.name().to_json()),
        ("algorithm", case.algo.name().to_json()),
        (
            "machines",
            Json::Num(job.cluster.machines as f64),
        ),
        (
            "gpus_per_machine",
            Json::Num(job.cluster.gpus_per_machine as f64),
        ),
        ("strategy", Json::Arr(options)),
        ("trace", gantt::export_json(&result)),
    ];
    // Only variant cases carry a plan key, so the 18 uniform snapshots
    // stay byte-identical to their pre-variant form.
    if let Some(plan) = &job.tensor_algos {
        fields.push((
            "ratio_plan",
            Json::Arr(plan.iter().map(|a| a.setting_label().to_json()).collect()),
        ));
    }
    Json::obj(fields).canonical().render()
}

/// Regenerates one snapshot: full Espresso selection plus simulation.
pub fn generate(case: &GoldenCase) -> String {
    let job = job_for(case);
    let (strategy, _) = Espresso::new(job.clone()).select_strategy();
    document(case, &job, &strategy)
}

/// A golden mismatch, with the first differing byte located and quoted.
#[derive(Debug)]
pub struct GoldenDiff {
    /// The case that diverged.
    pub case: GoldenCase,
    /// What went wrong, with byte-level context.
    pub message: String,
}

/// Locates the first differing byte and quotes both sides around it.
pub fn describe_byte_diff(expected: &[u8], actual: &[u8]) -> String {
    let at = expected
        .iter()
        .zip(actual.iter())
        .position(|(a, b)| a != b)
        .unwrap_or_else(|| expected.len().min(actual.len()));
    let context = |bytes: &[u8]| {
        let lo = at.saturating_sub(40);
        let hi = (at + 40).min(bytes.len());
        String::from_utf8_lossy(&bytes[lo..hi]).into_owned()
    };
    format!(
        "first difference at byte {at} (expected {} bytes, got {}):\n  expected …{}…\n  actual   …{}…",
        expected.len(),
        actual.len(),
        context(expected),
        context(actual)
    )
}

/// Checks one snapshot file: deserializes the stored strategy,
/// re-simulates it, audits the fresh trace, and byte-compares the
/// re-rendered document against the file.
///
/// # Errors
///
/// A [`GoldenDiff`] naming the first divergent byte (or the missing /
/// unreadable file, or an invariant violation in the fresh trace).
pub fn check(case: &GoldenCase, dir: &Path) -> Result<(), GoldenDiff> {
    let fail = |message: String| GoldenDiff {
        case: case.clone(),
        message,
    };
    let path = dir.join(case.file_name());
    let stored = std::fs::read(&path)
        .map_err(|e| fail(format!("cannot read {}: {e} (run UPDATE_GOLDENS=1 to create it)", path.display())))?;
    let text = std::str::from_utf8(&stored)
        .map_err(|_| fail(format!("{} is not UTF-8", path.display())))?;
    let doc = Json::parse(text)
        .map_err(|e| fail(format!("{} is not valid JSON: {e:?}", path.display())))?;

    // Rebuild the strategy from the stored options.
    let options = match doc.get("strategy") {
        Some(Json::Arr(v)) => v,
        _ => return Err(fail("snapshot has no strategy array".into())),
    };
    let rebuilt: Result<Vec<Arc<CompressionOption>>, _> = options
        .iter()
        .map(|o| CompressionOption::from_json(o).map(Arc::new))
        .collect();
    let strategy = Strategy::from_options(
        rebuilt.map_err(|e| fail(format!("stored strategy does not decode: {e:?}")))?,
    );

    let job = job_for(case);
    if strategy.len() != job.num_tensors() {
        return Err(fail(format!(
            "stored strategy has {} options but {} has {} tensors",
            strategy.len(),
            case.label(),
            job.num_tensors()
        )));
    }

    // The fresh trace must satisfy every timeline invariant…
    let result = simulate(&job, &strategy, &SimConfig::default());
    let violations = audit::audit(&job, &strategy, &SimConfig::default(), &result);
    if !violations.is_empty() {
        return Err(fail(format!(
            "regenerated trace violates invariants: {violations:?}"
        )));
    }

    // …and the re-rendered document must match the snapshot byte for byte.
    let fresh = document(case, &job, &strategy);
    if fresh.as_bytes() != stored.as_slice() {
        return Err(fail(describe_byte_diff(&stored, fresh.as_bytes())));
    }
    Ok(())
}

/// Re-runs the full selection pipeline for `case` on the fast planner
/// and byte-compares the regenerated
/// document against the snapshot. Where [`check`] pins the *simulator*
/// (re-simulating the stored strategy), this pins the *planner*: any
/// drift in the fast path's accept decisions changes the selected
/// strategy and therefore the bytes.
///
/// # Errors
///
/// A [`GoldenDiff`] naming the first divergent byte (or the missing /
/// unreadable file).
pub fn check_selection(case: &GoldenCase, dir: &Path) -> Result<(), GoldenDiff> {
    let fail = |message: String| GoldenDiff {
        case: case.clone(),
        message,
    };
    let path = dir.join(case.file_name());
    let stored = std::fs::read(&path)
        .map_err(|e| fail(format!("cannot read {}: {e}", path.display())))?;
    let fresh = generate(case);
    if fresh.as_bytes() != stored.as_slice() {
        return Err(fail(describe_byte_diff(&stored, fresh.as_bytes())));
    }
    Ok(())
}

/// Writes (or overwrites) one snapshot.
///
/// # Errors
///
/// Propagates filesystem errors as a printable message.
pub fn update(case: &GoldenCase, dir: &Path) -> Result<PathBuf, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("mkdir {}: {e}", dir.display()))?;
    let path = dir.join(case.file_name());
    std::fs::write(&path, generate(case)).map_err(|e| format!("write {}: {e}", path.display()))?;
    Ok(path)
}

/// The default snapshot directory: `tests/goldens` under the workspace
/// root (resolved from this crate's manifest directory so the path works
/// from any test or binary working directory).
pub fn default_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("tests/goldens")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn file_names_are_stable_and_unique() {
        let names: Vec<String> = cases().iter().map(GoldenCase::file_name).collect();
        assert_eq!(names.len(), 20);
        let mut unique = names.clone();
        unique.sort();
        unique.dedup();
        assert_eq!(unique.len(), 20, "duplicate golden file names");
        assert!(names.contains(&"vgg16_dgc.json".to_string()));
        assert!(names.contains(&"bert_base_efsignsgd.json".to_string()));
        assert!(names.contains(&"vgg16_dgc_adapt_d0p05.json".to_string()));
        assert!(names.contains(&"lstm_randomk_adapt_d0p05.json".to_string()));
    }

    #[test]
    fn variant_cases_carry_a_front_half_plan() {
        let case = cases()
            .into_iter()
            .find(|c| c.variant.is_some())
            .expect("ratio variants exist");
        let job = job_for(&case);
        let plan = job.tensor_algos.as_ref().expect("variant job has a plan");
        let n = plan.len();
        assert_eq!(n, job.num_tensors());
        assert_eq!(plan[0], case.variant.unwrap());
        assert_eq!(plan[n - 1], case.algo);
        // Uniform cases stay plan-free (their snapshots must not change).
        let uniform = cases().into_iter().find(|c| c.variant.is_none()).unwrap();
        assert!(job_for(&uniform).tensor_algos.is_none());
    }

    #[test]
    fn generate_check_corrupt_cycle() {
        // Use the cheapest case (VGG16 selection is sub-second) against a
        // temp dir: a fresh snapshot round-trips, a corrupted one fails
        // with a located byte diff.
        let dir = std::env::temp_dir().join(format!("espresso-goldens-{}", std::process::id()));
        let case = GoldenCase {
            model: Model::Vgg16,
            algo: GcAlgorithm::dgc_1pct(),
            variant: None,
        };
        let path = update(&case, &dir).unwrap();
        check(&case, &dir).unwrap();

        // Corrupt the last digit in the file — a span endpoint deep in
        // the trace — keeping the document valid JSON so the failure is
        // a byte diff, not a parse error.
        let mut bytes = std::fs::read(&path).unwrap();
        let at = bytes
            .iter()
            .rposition(|b| b.is_ascii_digit())
            .expect("trace contains numbers");
        bytes[at] = if bytes[at] == b'9' { b'8' } else { bytes[at] + 1 };
        std::fs::write(&path, &bytes).unwrap();
        let err = check(&case, &dir).unwrap_err();
        assert!(
            err.message.contains("first difference at byte"),
            "unhelpful diff: {}",
            err.message
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn byte_diff_reports_position_and_context() {
        let msg = describe_byte_diff(b"aaaa-bbbb-cccc", b"aaaa-bXbb-cccc");
        assert!(msg.contains("byte 6"), "{msg}");
        assert!(msg.contains("bXbb"), "{msg}");
        // Length-only divergence (common truncation case) is still located.
        let msg = describe_byte_diff(b"same", b"same-but-longer");
        assert!(msg.contains("byte 4"), "{msg}");
    }
}
