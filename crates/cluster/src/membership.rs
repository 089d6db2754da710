//! Worker membership: which ranks of a data-parallel job are still alive.
//!
//! [`ClusterHealth`] models *fabric* degradation;
//! this module models *worker* loss — the other failure mode a long
//! training run must survive. A [`Membership`] starts with every rank of
//! the configured job alive and records crashes as they happen; its
//! [`effective_cluster`](Membership::effective_cluster) maps the surviving
//! ranks back onto a [`Cluster`] topology so the decision algorithms can
//! re-plan against the cluster that actually remains.
//!
//! # Placement policy
//!
//! Ranks are placed densely: worker `w` lives on machine
//! `w / gpus_per_machine` (the layout every launcher in the paper's
//! testbeds uses). A machine survives while at least one of its workers
//! does. Because [`Cluster`] is homogeneous — `machines ×
//! gpus_per_machine` with no per-machine shape — the shrunken topology is
//! conservative: it keeps the surviving machines and takes the *minimum*
//! surviving worker count among them as the uniform GPUs-per-machine.
//! That under-counts stragglers' siblings slightly but never over-promises
//! intra-machine aggregation capacity, which is the safe direction for a
//! planner choosing between intra-first and direct-inter strategies.

use crate::health::{ClusterError, ClusterHealth};
use crate::topology::Cluster;

/// Live/lost status of every rank in a data-parallel job, plus the
/// observed fabric health of what remains.
///
/// Every observed change — a worker loss or a health report — advances a
/// monotone **cluster epoch**. Consumers that cache decisions against a
/// membership (the fleet control plane in `espresso-serve`) invalidate by
/// comparing epochs instead of comparing full cluster state, and a
/// lossy/reordered delivery of health deltas stays safe:
/// [`Membership::apply_health_delta`] only ever moves the epoch forward,
/// so duplicates and stale reorders are ignored idempotently.
#[derive(Debug, Clone, PartialEq)]
pub struct Membership {
    total: usize,
    lost: Vec<usize>,
    health: ClusterHealth,
    epoch: u64,
}

impl Membership {
    /// A fresh membership: `total` ranks, all alive, fabrics nominal,
    /// epoch 0.
    ///
    /// # Panics
    ///
    /// Panics if `total` is zero — a job with no workers cannot train.
    pub fn new(total: usize) -> Self {
        assert!(total > 0, "a job needs at least one worker");
        Self {
            total,
            lost: Vec::new(),
            health: ClusterHealth::nominal(),
            epoch: 0,
        }
    }

    /// The cluster epoch: a counter that advances on every observed
    /// change (worker loss or health report) and never moves backward.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Number of ranks the job was configured with.
    pub fn total(&self) -> usize {
        self.total
    }

    /// Ranks recorded as lost, in the order they failed.
    pub fn lost(&self) -> &[usize] {
        &self.lost
    }

    /// Ranks still alive, in ascending order.
    pub fn alive(&self) -> Vec<usize> {
        (0..self.total).filter(|w| !self.lost.contains(w)).collect()
    }

    /// Number of ranks still alive.
    pub fn alive_count(&self) -> usize {
        self.total - self.lost.len()
    }

    /// Whether rank `worker` is still alive (out-of-range ranks are not).
    pub fn is_alive(&self, worker: usize) -> bool {
        worker < self.total && !self.lost.contains(&worker)
    }

    /// Records rank `worker` as lost.
    ///
    /// # Errors
    ///
    /// [`ClusterError::InvalidTopology`] if the rank is out of range, was
    /// already lost, or is the last survivor — a membership must always
    /// describe a runnable job, so the final worker cannot be removed.
    pub fn lose_worker(&mut self, worker: usize) -> Result<(), ClusterError> {
        if worker >= self.total {
            return Err(ClusterError::InvalidTopology {
                message: format!("worker {worker} out of range for {} ranks", self.total),
            });
        }
        if self.lost.contains(&worker) {
            return Err(ClusterError::InvalidTopology {
                message: format!("worker {worker} was already lost"),
            });
        }
        if self.alive_count() == 1 {
            return Err(ClusterError::InvalidTopology {
                message: "cannot lose the last surviving worker".into(),
            });
        }
        self.lost.push(worker);
        self.epoch += 1;
        Ok(())
    }

    /// Records rank `worker` as alive again — the inverse of
    /// [`Membership::lose_worker`], for elastic fleets where a preempted
    /// spot instance comes back.
    ///
    /// # Errors
    ///
    /// [`ClusterError::InvalidTopology`] if the rank is out of range or
    /// is not currently lost — a rank that never left (or already
    /// re-joined) cannot re-join, which keeps duplicate rejoin requests
    /// from silently advancing the epoch.
    pub fn rejoin_worker(&mut self, worker: usize) -> Result<(), ClusterError> {
        if worker >= self.total {
            return Err(ClusterError::InvalidTopology {
                message: format!("worker {worker} out of range for {} ranks", self.total),
            });
        }
        let Some(at) = self.lost.iter().position(|&w| w == worker) else {
            return Err(ClusterError::InvalidTopology {
                message: format!("worker {worker} is not lost and cannot re-join"),
            });
        };
        self.lost.remove(at);
        self.epoch += 1;
        Ok(())
    }

    /// Applies a *stamped* batched membership delta carrying losses and
    /// re-joins (and optionally a fresh health reading) under the same
    /// epoch-monotone discipline as [`Membership::apply_health_delta`]:
    /// the delta takes effect only when its stamp is strictly newer than
    /// the current epoch, in which case the membership adopts the stamp.
    /// Returns whether the delta was applied.
    ///
    /// Within an applied delta, `rejoined` ranks are processed before
    /// `lost` ranks, so a rank named in both lists ends up lost. Entries
    /// that do not describe a real transition — out-of-range ranks,
    /// losses of already-lost ranks, re-joins of alive ranks, or a loss
    /// that would remove the last survivor — are skipped rather than
    /// rejected: a streaming producer's view can lag the receiver's, and
    /// a delta must converge the same way however it is retried. Skipping
    /// is deterministic, so replaying a journal of applied deltas
    /// reconstructs the membership byte-for-byte.
    pub fn apply_membership_delta(
        &mut self,
        epoch: u64,
        rejoined: &[usize],
        lost: &[usize],
        health: Option<ClusterHealth>,
    ) -> bool {
        if epoch <= self.epoch {
            return false;
        }
        for &w in rejoined {
            if w < self.total {
                if let Some(at) = self.lost.iter().position(|&l| l == w) {
                    self.lost.remove(at);
                }
            }
        }
        for &w in lost {
            if w < self.total && !self.lost.contains(&w) && self.alive_count() > 1 {
                self.lost.push(w);
            }
        }
        if let Some(health) = health {
            self.health = health;
        }
        self.epoch = epoch;
        true
    }

    /// The observed fabric health of the surviving cluster.
    pub fn health(&self) -> &ClusterHealth {
        &self.health
    }

    /// Replaces the observed fabric health, advancing the epoch.
    pub fn set_health(&mut self, health: ClusterHealth) {
        self.health = health;
        self.epoch += 1;
    }

    /// Applies a *stamped* health delta: the delta takes effect only when
    /// its epoch is strictly newer than the current one, in which case the
    /// membership adopts both the health and the stamp. Returns whether
    /// the delta was applied.
    ///
    /// This is the streaming-ingestion form of [`Membership::set_health`]:
    /// a producer stamps each delta once, and however the network reorders,
    /// duplicates, or retries them, the membership converges to the
    /// highest-stamped delta — the epoch never rolls backward, and
    /// re-applying an already-seen delta is a no-op.
    pub fn apply_health_delta(&mut self, epoch: u64, health: ClusterHealth) -> bool {
        if epoch <= self.epoch {
            return false;
        }
        self.epoch = epoch;
        self.health = health;
        true
    }

    /// Maps the surviving ranks onto `template` (the configured topology)
    /// using the placement policy above, then re-costs the result under
    /// the recorded fabric health.
    ///
    /// # Errors
    ///
    /// [`ClusterError::InvalidTopology`] if `template` has fewer GPUs than
    /// the membership has ranks; fabric errors as
    /// [`Cluster::effective`].
    pub fn effective_cluster(&self, template: &Cluster) -> Result<Cluster, ClusterError> {
        if template.total_gpus() < self.total {
            return Err(ClusterError::InvalidTopology {
                message: format!(
                    "template has {} GPUs but membership tracks {} ranks",
                    template.total_gpus(),
                    self.total
                ),
            });
        }
        let per_machine = template.gpus_per_machine;
        // Survivors per machine under dense placement; machines beyond the
        // ranks actually used (total < template capacity) don't exist.
        let machines_used = self.total.div_ceil(per_machine);
        let mut survivors = vec![0usize; machines_used];
        for w in self.alive() {
            survivors[w / per_machine] += 1;
        }
        let alive_machines: Vec<usize> = survivors.iter().copied().filter(|&s| s > 0).collect();
        // lose_worker never removes the last rank, so at least one machine
        // still has a survivor.
        let machines = alive_machines.len();
        let min_gpus = alive_machines.iter().copied().min().unwrap();
        let mut shrunk = *template;
        shrunk.machines = machines;
        shrunk.gpus_per_machine = min_gpus;
        shrunk.effective(&self.health)
    }
}

impl espresso_json::ToJson for Membership {
    fn to_json(&self) -> espresso_json::Json {
        use espresso_json::Json;
        Json::obj(vec![
            ("total", Json::Num(self.total as f64)),
            (
                "lost",
                Json::Arr(self.lost.iter().map(|&w| Json::Num(w as f64)).collect()),
            ),
            ("health", self.health.to_json()),
            ("epoch", Json::Num(self.epoch as f64)),
        ])
    }
}

impl espresso_json::FromJson for Membership {
    fn from_json(v: &espresso_json::Json) -> Result<Self, espresso_json::DecodeError> {
        use espresso_json::DecodeError;
        let total: usize = v.req("total")?;
        if total == 0 {
            return Err(DecodeError::new("membership total must be positive").at("total"));
        }
        let lost: Vec<usize> = v.req("lost")?;
        let health: ClusterHealth = v.req("health")?;
        for (i, &w) in lost.iter().enumerate() {
            if w >= total {
                return Err(
                    DecodeError::new(format!("lost worker {w} out of range for {total} ranks"))
                        .at("lost"),
                );
            }
            if lost[..i].contains(&w) {
                return Err(DecodeError::new(format!("worker {w} listed lost twice")).at("lost"));
            }
        }
        if lost.len() >= total {
            return Err(DecodeError::new("membership must keep at least one survivor").at("lost"));
        }
        Ok(Self {
            total,
            lost,
            health,
            // Documents written before epochs existed read as epoch 0.
            epoch: v.opt("epoch")?.unwrap_or(0),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::health::LinkState;

    #[test]
    fn fresh_membership_is_all_alive() {
        let m = Membership::new(8);
        assert_eq!(m.alive_count(), 8);
        assert_eq!(m.alive(), (0..8).collect::<Vec<_>>());
        assert!(m.is_alive(7));
        assert!(!m.is_alive(8));
        assert!(m.health().is_nominal());
    }

    #[test]
    fn losing_workers_tracks_order_and_rejects_repeats() {
        let mut m = Membership::new(4);
        m.lose_worker(2).unwrap();
        m.lose_worker(0).unwrap();
        assert_eq!(m.lost(), &[2, 0]);
        assert_eq!(m.alive(), vec![1, 3]);
        assert!(m.lose_worker(2).is_err(), "already lost");
        assert!(m.lose_worker(9).is_err(), "out of range");
    }

    #[test]
    fn last_survivor_cannot_be_lost() {
        let mut m = Membership::new(2);
        m.lose_worker(0).unwrap();
        let err = m.lose_worker(1).unwrap_err();
        assert!(matches!(err, ClusterError::InvalidTopology { .. }), "{err}");
        assert_eq!(m.alive_count(), 1);
    }

    #[test]
    fn effective_cluster_shrinks_by_dense_placement() {
        // 2 machines x 4 GPUs; losing rank 5 (machine 1) leaves machine 0
        // with 4 survivors and machine 1 with 3 -> homogeneous 2 x 3.
        let template = Cluster::nvlink_100g(2, 4);
        let mut m = Membership::new(8);
        m.lose_worker(5).unwrap();
        let c = m.effective_cluster(&template).unwrap();
        assert_eq!((c.machines, c.gpus_per_machine), (2, 3));

        // Losing every rank of machine 1 drops the machine entirely.
        for w in [4, 6, 7] {
            m.lose_worker(w).unwrap();
        }
        let c = m.effective_cluster(&template).unwrap();
        assert_eq!((c.machines, c.gpus_per_machine), (1, 4));
    }

    #[test]
    fn effective_cluster_applies_recorded_health() {
        let template = Cluster::nvlink_100g(2, 4);
        let mut m = Membership::new(8);
        m.set_health(ClusterHealth::inter_degraded(2.0));
        let c = m.effective_cluster(&template).unwrap();
        assert!((c.inter.bandwidth - template.inter.bandwidth / 2.0).abs() < 1.0);
        m.set_health(ClusterHealth {
            intra: LinkState::Nominal,
            inter: LinkState::Down,
        });
        assert!(m.effective_cluster(&template).is_err(), "partitioned");
    }

    #[test]
    fn template_too_small_is_rejected() {
        let template = Cluster::nvlink_100g(1, 4);
        let m = Membership::new(8);
        assert!(matches!(
            m.effective_cluster(&template),
            Err(ClusterError::InvalidTopology { .. })
        ));
    }

    #[test]
    fn every_observed_change_advances_the_epoch() {
        let mut m = Membership::new(4);
        assert_eq!(m.epoch(), 0);
        m.lose_worker(2).unwrap();
        assert_eq!(m.epoch(), 1);
        m.set_health(ClusterHealth::inter_degraded(2.0));
        assert_eq!(m.epoch(), 2);
        // A failed mutation must not advance the epoch.
        assert!(m.lose_worker(2).is_err());
        assert!(m.lose_worker(9).is_err());
        assert_eq!(m.epoch(), 2);
    }

    #[test]
    fn health_deltas_apply_monotonically_and_idempotently() {
        let mut m = Membership::new(4);
        assert!(m.apply_health_delta(3, ClusterHealth::inter_degraded(2.0)));
        assert_eq!(m.epoch(), 3);
        assert_eq!(m.health(), &ClusterHealth::inter_degraded(2.0));
        // Duplicate: ignored, nothing changes.
        assert!(!m.apply_health_delta(3, ClusterHealth::inter_degraded(9.0)));
        assert_eq!(m.health(), &ClusterHealth::inter_degraded(2.0));
        // Out-of-order older delta: ignored.
        assert!(!m.apply_health_delta(1, ClusterHealth::intra_degraded(5.0)));
        assert_eq!((m.epoch(), *m.health()), (3, ClusterHealth::inter_degraded(2.0)));
        // Newer delta wins, even with an epoch gap.
        assert!(m.apply_health_delta(7, ClusterHealth::nominal()));
        assert_eq!(m.epoch(), 7);
        assert!(m.health().is_nominal());
    }

    #[test]
    fn rejoin_restores_a_lost_rank_and_rejects_nonsense() {
        let mut m = Membership::new(4);
        m.lose_worker(2).unwrap();
        m.lose_worker(0).unwrap();
        assert_eq!(m.epoch(), 2);
        m.rejoin_worker(2).unwrap();
        assert_eq!(m.alive(), vec![1, 2, 3]);
        assert_eq!(m.lost(), &[0]);
        assert_eq!(m.epoch(), 3);
        // A rank that is alive (or never existed) cannot re-join, and the
        // failed attempt must not advance the epoch.
        assert!(m.rejoin_worker(2).is_err(), "already alive");
        assert!(m.rejoin_worker(9).is_err(), "out of range");
        assert_eq!(m.epoch(), 3);
        // The round trip restores the full topology.
        m.rejoin_worker(0).unwrap();
        assert_eq!(m.alive_count(), 4);
        let template = Cluster::nvlink_100g(2, 2);
        let c = m.effective_cluster(&template).unwrap();
        assert_eq!((c.machines, c.gpus_per_machine), (2, 2));
    }

    #[test]
    fn membership_deltas_are_epoch_gated_and_batched() {
        let mut m = Membership::new(4);
        // Rejoins before losses; a fresh health rides along.
        assert!(m.apply_membership_delta(
            5,
            &[],
            &[1, 3],
            Some(ClusterHealth::inter_degraded(2.0))
        ));
        assert_eq!((m.epoch(), m.alive()), (5, vec![0, 2]));
        assert_eq!(m.health(), &ClusterHealth::inter_degraded(2.0));
        // Duplicate stamp: idempotently ignored, nothing moves.
        assert!(!m.apply_membership_delta(5, &[1], &[], None));
        assert_eq!(m.alive(), vec![0, 2]);
        // A newer stamp re-joins one rank and keeps the health.
        assert!(m.apply_membership_delta(6, &[3], &[], None));
        assert_eq!(m.alive(), vec![0, 2, 3]);
        assert_eq!(m.health(), &ClusterHealth::inter_degraded(2.0));
        // Tolerant skips: out-of-range ranks, re-join of an alive rank,
        // re-loss of a lost rank — the delta still applies its stamp.
        assert!(m.apply_membership_delta(9, &[0, 9], &[1, 9], None));
        assert_eq!((m.epoch(), m.alive()), (9, vec![0, 2, 3]));
        // The last survivor can never be removed by a batched delta.
        assert!(m.apply_membership_delta(12, &[], &[0, 2, 3], None));
        assert_eq!(m.alive_count(), 1);
    }

    #[test]
    fn membership_delta_orders_rejoins_before_losses() {
        let mut m = Membership::new(3);
        m.lose_worker(1).unwrap();
        // Rank 1 is named on both sides: it re-joins, then is lost again,
        // so the net effect is lost — and the epoch advances exactly once.
        assert!(m.apply_membership_delta(4, &[1], &[1], None));
        assert_eq!((m.epoch(), m.alive()), (4, vec![0, 2]));
    }

    #[test]
    fn json_round_trip_and_validation() {
        use espresso_json::Json;
        let mut m = Membership::new(6);
        m.lose_worker(4).unwrap();
        m.set_health(ClusterHealth::intra_degraded(1.5));
        let back: Membership = Json::decode(&Json::encode(&m)).unwrap();
        assert_eq!(back, m);

        for bad in [
            r#"{"total": 0, "lost": [], "health": {}}"#,
            r#"{"total": 2, "lost": [2], "health": {}}"#,
            r#"{"total": 2, "lost": [0, 0], "health": {}}"#,
            r#"{"total": 2, "lost": [0, 1], "health": {}}"#,
        ] {
            assert!(Json::decode::<Membership>(bad).is_err(), "{bad}");
        }
    }
}
