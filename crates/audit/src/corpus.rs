//! Timeline-invariant audits over a corpus of simulated traces.
//!
//! The engine's debug builds audit every timeline they produce (see
//! `espresso_sim::audit` and the `finish()` hook), but release builds —
//! the ones CI actually benchmarks with — skip that check. This module
//! is the release-mode counterpart: it simulates a corpus spanning the
//! six paper models, the paper's three GC algorithms, and a bank of
//! seeded fault plans, runs [`espresso_sim::audit()`] over every resulting
//! Gantt trace, and reports any violation with enough context to replay
//! it (`model/algo/option index/fault seed`).

use espresso_models::Model;
use espresso_gc::GcAlgorithm;
use espresso_cluster::Cluster;
use espresso_sim::{audit, simulate, simulate_with_faults, FaultPlan, Job, SimConfig};
use espresso_strategy::{OptionSpace, Strategy};

use crate::jobs::sample;

/// One audited trace that came back dirty.
#[derive(Debug)]
pub struct CorpusViolation {
    /// Which trace ("VGG16/DGC uniform#3 fault-seed 7").
    pub trace: String,
    /// The violations the auditor found.
    pub violations: Vec<audit::Violation>,
}

/// Corpus outcome.
#[derive(Debug)]
pub struct CorpusReport {
    /// Timelines audited.
    pub audited: usize,
    /// Total spans checked across them.
    pub spans: usize,
    /// Every dirty trace.
    pub dirty: Vec<CorpusViolation>,
}

impl CorpusReport {
    /// True when every audited timeline was clean.
    pub fn ok(&self) -> bool {
        self.dirty.is_empty()
    }
}

/// Corpus scale knobs.
#[derive(Debug, Clone, Copy)]
pub struct CorpusConfig {
    /// Uniform strategies per paper-model/algorithm pair (drawn evenly
    /// from the GPU-compressed space, plus the uncompressed baseline).
    pub options_per_job: usize,
    /// Seeded fault plans replayed per small sampled job.
    pub fault_seeds: u64,
    /// Small sampled jobs (from the shared [`sample`] stream).
    pub sampled_jobs: u64,
}

impl Default for CorpusConfig {
    fn default() -> Self {
        Self {
            options_per_job: 3,
            fault_seeds: 8,
            sampled_jobs: 24,
        }
    }
}

fn audit_one(
    name: String,
    job: &Job,
    strategy: &Strategy,
    config: &SimConfig,
    plan: Option<&FaultPlan>,
    report: &mut CorpusReport,
) {
    let result = match plan {
        Some(plan) => simulate_with_faults(job, strategy, config, plan),
        None => simulate(job, strategy, config),
    };
    report.audited += 1;
    report.spans += result.tasks.len();
    let violations = audit::audit(job, strategy, config, &result);
    if !violations.is_empty() {
        report.dirty.push(CorpusViolation {
            trace: name,
            violations,
        });
    }
}

/// Runs the corpus: paper models × paper algorithms × a few uniform
/// strategies (nominal), plus the shared sampled-job stream × seeded
/// fault plans (faulted).
pub fn run(config: &CorpusConfig) -> CorpusReport {
    let sim_config = SimConfig::default();
    let mut report = CorpusReport {
        audited: 0,
        spans: 0,
        dirty: Vec::new(),
    };

    // Nominal, full-size traces: every paper model under every paper
    // algorithm, with a spread of uniform strategies.
    let cluster = Cluster::pcie_25g(2, 2);
    for model in Model::ALL {
        for algo in GcAlgorithm::paper_suite() {
            let job = Job::new(model.profile(), cluster, algo);
            let space = OptionSpace::enumerate(&job.cluster);
            let gpu = space.gpu_compressed();
            let picks = config.options_per_job.min(gpu.len());
            for k in 0..picks {
                let idx = k * (gpu.len() - 1) / picks.max(1);
                let strategy = Strategy::uniform(job.num_tensors(), gpu[idx].clone());
                audit_one(
                    format!("{}/{} uniform#{idx}", model.name(), algo.name()),
                    &job,
                    &strategy,
                    &sim_config,
                    None,
                    &mut report,
                );
            }
        }
    }

    // Faulted, small traces: the shared audit stream under a bank of
    // fault seeds — stragglers, bursts, and jitter all exercise the
    // auditor's exclusivity and dependency checks hardest.
    for job_seed in 0..config.sampled_jobs {
        let case = sample(job_seed);
        let space = OptionSpace::enumerate(&case.job.cluster);
        let gpu = space.gpu_compressed();
        let strategy = Strategy::uniform(
            case.job.num_tensors(),
            gpu[(job_seed as usize * 7) % gpu.len()].clone(),
        );
        for fault_seed in 0..config.fault_seeds {
            let plan = FaultPlan::from_seed(fault_seed, case.job.cluster.total_gpus());
            audit_one(
                format!("{} fault-seed {fault_seed}", case.describe()),
                &case.job,
                &strategy,
                &sim_config,
                Some(&plan),
                &mut report,
            );
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_is_clean_at_reduced_scale() {
        let report = run(&CorpusConfig {
            options_per_job: 1,
            fault_seeds: 2,
            sampled_jobs: 6,
        });
        assert!(report.audited >= 18 + 12);
        assert!(report.spans > 1000);
        assert!(
            report.ok(),
            "auditor found violations: {:#?}",
            report.dirty
        );
    }
}
