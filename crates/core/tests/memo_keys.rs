//! The planner memo's keys separate exactly what the planner reads.
//!
//! A memo hit replays a stored selection, so two inputs that could plan
//! differently must never share a key. These tests change one planner
//! input at a time and require a new key, pin the `to_bits` encoding of
//! floats, and check over the zoo that keys are equal exactly when the
//! jobs are.

use espresso::{ContentKey, WarmStartCache};
use espresso_cluster::{Cluster, ClusterHealth, LinkState};
use espresso_gc::GcAlgorithm;
use espresso_models::Model;
use espresso_sim::Job;

fn base() -> Job {
    Job::new(
        Model::Lstm.profile(),
        Cluster::pcie_25g(2, 4),
        GcAlgorithm::Dgc { density: 0.01 },
    )
}

/// Both key kinds of a job, for a fixed non-nominal health.
fn keys(job: &Job) -> [ContentKey; 2] {
    [
        WarmStartCache::nominal_key(job),
        WarmStartCache::robust_key(job, &ClusterHealth::inter_degraded(2.0), Some("seed=7")),
    ]
}

#[test]
fn every_planner_input_moves_the_key() {
    let reference = keys(&base());
    let mut variants: Vec<(String, Job)> = Vec::new();
    let mut vary = |label: String, edit: &dyn Fn(&mut Job)| {
        let mut job = base();
        edit(&mut job);
        variants.push((label, job));
    };
    for i in 0..base().model.tensors.len() {
        vary(format!("tensors[{i}].elems"), &|j| j.model.tensors[i].elems += 1);
        vary(format!("tensors[{i}].compute_time"), &|j| {
            j.model.tensors[i].compute_time *= 1.0 + f64::EPSILON;
        });
    }
    vary("tensor count".into(), &|j| {
        j.model.tensors.pop();
    });
    vary("forward_time".into(), &|j| j.model.forward_time *= 1.0 + f64::EPSILON);
    vary("batch_size".into(), &|j| j.model.batch_size += 1);
    vary("machines".into(), &|j| j.cluster.machines += 1);
    vary("gpus_per_machine".into(), &|j| j.cluster.gpus_per_machine += 1);
    vary("intra.bandwidth".into(), &|j| j.cluster.intra.bandwidth *= 2.0);
    vary("intra.alpha".into(), &|j| j.cluster.intra.alpha *= 2.0);
    vary("inter.bandwidth".into(), &|j| j.cluster.inter.bandwidth *= 2.0);
    vary("inter.alpha".into(), &|j| j.cluster.inter.alpha *= 2.0);
    vary("staging_shares_intra".into(), &|j| {
        j.cluster.staging_shares_intra = !j.cluster.staging_shares_intra;
    });
    vary("algorithm knob".into(), &|j| j.algo = GcAlgorithm::Dgc { density: 0.02 });
    vary("algorithm family".into(), &|j| j.algo = GcAlgorithm::RandomK { density: 0.01 });
    vary("tensor_algos present".into(), &|j| {
        j.tensor_algos = Some(vec![j.algo; j.model.tensors.len()]);
    });
    vary("tensor_algos entry".into(), &|j| {
        let mut plan = vec![j.algo; j.model.tensors.len()];
        plan[3] = GcAlgorithm::Dgc { density: 0.05 };
        j.tensor_algos = Some(plan);
    });
    for (label, job) in &variants {
        let moved = keys(job);
        assert_ne!(moved[0], reference[0], "nominal key ignores {label}");
        assert_ne!(moved[1], reference[1], "robust key ignores {label}");
    }
}

#[test]
fn health_and_fault_spec_move_the_robust_key() {
    let job = base();
    let key = |health: ClusterHealth, faults: Option<&str>| {
        WarmStartCache::robust_key(&job, &health, faults)
    };
    let degraded = |intra, inter| ClusterHealth { intra, inter };
    let distinct = [
        key(ClusterHealth::nominal(), None),
        key(ClusterHealth::inter_degraded(2.0), None),
        key(ClusterHealth::inter_degraded(2.0 + f64::EPSILON * 2.0), None),
        key(ClusterHealth::intra_degraded(2.0), None),
        key(degraded(LinkState::Down, LinkState::Nominal), None),
        key(degraded(LinkState::Nominal, LinkState::Down), None),
        key(ClusterHealth::inter_degraded(2.0), Some("seed=7")),
        key(ClusterHealth::inter_degraded(2.0), Some("seed=8")),
        key(ClusterHealth::inter_degraded(2.0), Some("")),
        WarmStartCache::nominal_key(&job),
    ];
    for (i, a) in distinct.iter().enumerate() {
        for (j, b) in distinct.iter().enumerate().skip(i + 1) {
            assert_ne!(a, b, "keys {i} and {j} collide");
        }
    }
}

#[test]
fn signed_zeros_are_two_keys() {
    let (mut pos, mut neg) = (base(), base());
    pos.model.tensors[0].compute_time = 0.0;
    neg.model.tensors[0].compute_time = -0.0;
    assert_ne!(WarmStartCache::nominal_key(&pos), WarmStartCache::nominal_key(&neg));
    pos.model.forward_time = 0.0;
    neg.model = pos.model.clone();
    neg.model.forward_time = -0.0;
    assert_ne!(WarmStartCache::nominal_key(&pos), WarmStartCache::nominal_key(&neg));
}

#[test]
fn keys_are_equal_exactly_when_zoo_jobs_are() {
    let mut jobs = Vec::new();
    for model in Model::ALL {
        for cluster in [Cluster::nvlink_100g(2, 4), Cluster::pcie_25g(2, 4)] {
            for algo in GcAlgorithm::paper_suite() {
                // Each job twice, built independently: equal jobs must
                // land on equal keys, not merely distinct ones apart.
                for _ in 0..2 {
                    jobs.push(Job::new(model.profile(), cluster, algo));
                }
            }
        }
    }
    let debug: Vec<String> = jobs.iter().map(|j| format!("{j:?}")).collect();
    let keys: Vec<ContentKey> = jobs.iter().map(WarmStartCache::nominal_key).collect();
    for i in 0..jobs.len() {
        for j in 0..jobs.len() {
            assert_eq!(
                keys[i] == keys[j],
                debug[i] == debug[j],
                "jobs {i} and {j}: key equality disagrees with job equality"
            );
        }
    }
}
