//! Seeded runtime fault injection for the trainer.
//!
//! `espresso_sim::FaultPlan` perturbs the *simulated timeline*; a
//! [`TrainFaultPlan`] perturbs the *actual training run*: workers crash
//! at a given step, gradient pushes are dropped, workers turn transiently
//! slow, and the inter-machine fabric degrades. The same determinism
//! discipline applies — a plan is a pure function of its seed (or spec
//! string), and the same `(plan, run)` pair always produces bit-identical
//! training: every query below is a pure function of `(plan, step)`.

use std::fmt;

use espresso_cluster::ClusterHealth;
use rand::{rngs::StdRng, Rng, SeedableRng};

/// Worker `worker` crashes permanently before executing step `step`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Crash {
    /// Step at which the crash is observed.
    pub step: usize,
    /// Global rank of the crashing worker.
    pub worker: usize,
}

/// A window of steps during which the job runs slower than predicted
/// (a transient straggler, observed as inflated iteration times).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SlowWindow {
    /// First affected step (inclusive).
    pub from: usize,
    /// First unaffected step (exclusive).
    pub until: usize,
    /// Iteration-time multiplier while active (≥ 1).
    pub factor: f64,
}

/// Worker `worker` re-joins the job before executing step `step` — a
/// preempted spot instance coming back. Only a previously crashed worker
/// can re-join.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Rejoin {
    /// Step at which the re-join is observed.
    pub step: usize,
    /// Global rank of the re-joining worker.
    pub worker: usize,
}

/// Worker `worker`'s gradient push is lost at step `step` (the worker
/// itself survives; its error feedback still advances).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DroppedPush {
    /// Step at which the push is lost.
    pub step: usize,
    /// Global rank of the sender whose push is lost.
    pub worker: usize,
}

/// From step `step` onward, the inter-machine fabric runs degraded by
/// `factor` (a NIC renegotiation — permanent until re-provisioned).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InterDegrade {
    /// First affected step.
    pub step: usize,
    /// Bandwidth-reduction factor (≥ 1).
    pub factor: f64,
}

/// A malformed train-fault plan or spec.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainFaultError {
    /// What was wrong.
    pub message: String,
}

impl TrainFaultError {
    fn new(message: impl Into<String>) -> Self {
        Self {
            message: message.into(),
        }
    }
}

impl fmt::Display for TrainFaultError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.message)
    }
}

impl std::error::Error for TrainFaultError {}

/// A deterministic runtime failure scenario.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TrainFaultPlan {
    /// Seed the plan was drawn from (0 for hand-written plans).
    pub seed: u64,
    /// Worker crashes (permanent unless a later [`Rejoin`] names the
    /// same rank).
    pub crashes: Vec<Crash>,
    /// Worker re-joins (each must follow a crash of the same rank).
    pub rejoins: Vec<Rejoin>,
    /// Transient slow windows.
    pub slowdowns: Vec<SlowWindow>,
    /// Dropped gradient pushes.
    pub drops: Vec<DroppedPush>,
    /// Permanent inter-fabric degradations.
    pub inter_degrades: Vec<InterDegrade>,
}

impl TrainFaultPlan {
    /// A plan that injects nothing.
    pub fn nominal() -> Self {
        Self::default()
    }

    /// Whether this plan injects nothing.
    pub fn is_nominal(&self) -> bool {
        self.crashes.is_empty()
            && self.rejoins.is_empty()
            && self.slowdowns.is_empty()
            && self.drops.is_empty()
            && self.inter_degrades.is_empty()
    }

    /// Draws a random-but-plausible failure scenario for a run of
    /// `workers` ranks over `steps` steps. A pure function of its
    /// arguments: the same `(seed, workers, steps)` always produces the
    /// same plan and therefore the same run.
    pub fn from_seed(seed: u64, workers: usize, steps: usize) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut plan = Self {
            seed,
            ..Self::default()
        };
        let step_range = steps.max(2);
        // At most one crash (keeping a quorum), p = 0.5 when there is a
        // worker to spare.
        if workers > 1 && rng.random::<f64>() < 0.5 {
            plan.crashes.push(Crash {
                step: rng.random_range(1..step_range),
                worker: rng.random_range(0..workers),
            });
        }
        // 0-2 slow windows, each starting inside the run so it is never
        // empty.
        for _ in 0..rng.random_range(0..3usize) {
            let from = rng.random_range(0..steps.max(1));
            let len = rng.random_range(1..(steps / 4).max(2));
            plan.slowdowns.push(SlowWindow {
                from,
                until: (from + len).min(steps),
                factor: 1.2 + 1.8 * rng.random::<f64>(),
            });
        }
        // 0-3 dropped pushes.
        for _ in 0..rng.random_range(0..4usize) {
            plan.drops.push(DroppedPush {
                step: rng.random_range(0..step_range),
                worker: rng.random_range(0..workers),
            });
        }
        // Occasionally a permanent inter-fabric degradation.
        if rng.random::<f64>() < 0.3 {
            plan.inter_degrades.push(InterDegrade {
                step: rng.random_range(0..step_range),
                factor: 1.5 + 2.5 * rng.random::<f64>(),
            });
        }
        plan
    }

    /// Draws a **churn plan**: interleaved preemptions and re-joins, the
    /// spot-fleet scenario where membership moves in both directions. A
    /// pure function of `(seed, workers, steps)`, like
    /// [`TrainFaultPlan::from_seed`]; unlike it, crashes here are not
    /// permanent — a lost rank may come back, and a returned rank may be
    /// preempted again. The generated plan always validates: every
    /// re-join follows a crash of the same rank, and a quorum of one
    /// survivor is preserved at every point. A slow window and a fabric
    /// degradation are sprinkled in with the same odds as `from_seed`, so
    /// churn composes with the monitor/fallback machinery.
    pub fn churn(seed: u64, workers: usize, steps: usize) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut plan = Self {
            seed,
            ..Self::default()
        };
        let mut lost: Vec<usize> = Vec::new();
        let stride = (steps / 8).max(2);
        let mut step = 0usize;
        loop {
            step += 1 + rng.random_range(0..stride);
            if step >= steps {
                break;
            }
            let can_lose = workers - lost.len() > 1;
            let can_rejoin = !lost.is_empty();
            if can_rejoin && (!can_lose || rng.random::<f64>() < 0.5) {
                let w = lost.remove(rng.random_range(0..lost.len()));
                plan.rejoins.push(Rejoin { step, worker: w });
            } else if can_lose {
                let alive: Vec<usize> =
                    (0..workers).filter(|w| !lost.contains(w)).collect();
                let w = alive[rng.random_range(0..alive.len())];
                lost.push(w);
                plan.crashes.push(Crash { step, worker: w });
            }
        }
        let step_range = steps.max(2);
        if rng.random::<f64>() < 0.5 {
            let from = rng.random_range(0..steps.max(1));
            let len = rng.random_range(1..(steps / 4).max(2));
            plan.slowdowns.push(SlowWindow {
                from,
                until: (from + len).min(steps),
                factor: 1.2 + 1.8 * rng.random::<f64>(),
            });
        }
        if rng.random::<f64>() < 0.3 {
            plan.inter_degrades.push(InterDegrade {
                step: rng.random_range(0..step_range),
                factor: 1.5 + 2.5 * rng.random::<f64>(),
            });
        }
        plan
    }

    /// Parses a `--faults` specification.
    ///
    /// Two forms:
    ///
    /// * a bare integer — a seed for [`TrainFaultPlan::from_seed`]
    ///   (`workers`/`steps` come from the run configuration);
    /// * comma-separated events, repeatable:
    ///   `crash=<step>:<worker>`, `rejoin=<step>:<worker>`,
    ///   `drop=<step>:<worker>`, `slow=<from>-<until>:<factor>`,
    ///   `degrade=<step>:<factor>`.
    ///
    /// Example: `crash=20:1,rejoin=45:1,slow=30-60:2.5,degrade=20:2.0`.
    ///
    /// Worker indices and factors are validated; step numbers are not
    /// bounded by `steps` — an event past the end of the run simply never
    /// fires, so one plan can be reused across runs of different lengths
    /// (`steps` only sizes the seed-expanded form).
    ///
    /// # Errors
    ///
    /// [`TrainFaultError`] naming the offending event or value.
    pub fn parse(spec: &str, workers: usize, steps: usize) -> Result<Self, TrainFaultError> {
        let spec = spec.trim();
        if spec.is_empty() {
            return Err(TrainFaultError::new("empty fault spec"));
        }
        if let Ok(seed) = spec.parse::<u64>() {
            return Ok(Self::from_seed(seed, workers, steps));
        }
        let mut plan = Self::nominal();
        for pair in spec.split(',') {
            let (key, value) = pair.split_once('=').ok_or_else(|| {
                TrainFaultError::new(format!(
                    "expected key=value, got `{pair}` (keys: crash, rejoin, drop, slow, degrade)"
                ))
            })?;
            let (key, value) = (key.trim(), value.trim());
            let two = |sep: char| -> Result<(&str, &str), TrainFaultError> {
                value.split_once(sep).ok_or_else(|| {
                    TrainFaultError::new(format!("`{key}` needs `a{sep}b`, got `{value}`"))
                })
            };
            let step_of = |s: &str| -> Result<usize, TrainFaultError> {
                s.parse()
                    .map_err(|_| TrainFaultError::new(format!("`{key}` needs a step, got `{s}`")))
            };
            let factor_of = |s: &str| -> Result<f64, TrainFaultError> {
                s.parse()
                    .map_err(|_| TrainFaultError::new(format!("`{key}` needs a factor, got `{s}`")))
            };
            match key {
                "crash" => {
                    let (step, worker) = two(':')?;
                    plan.crashes.push(Crash {
                        step: step_of(step)?,
                        worker: step_of(worker)?,
                    });
                }
                "rejoin" => {
                    let (step, worker) = two(':')?;
                    plan.rejoins.push(Rejoin {
                        step: step_of(step)?,
                        worker: step_of(worker)?,
                    });
                }
                "drop" => {
                    let (step, worker) = two(':')?;
                    plan.drops.push(DroppedPush {
                        step: step_of(step)?,
                        worker: step_of(worker)?,
                    });
                }
                "slow" => {
                    let (window, factor) = two(':')?;
                    let (from, until) = window.split_once('-').ok_or_else(|| {
                        TrainFaultError::new(format!(
                            "`slow` needs `from-until:factor`, got `{value}`"
                        ))
                    })?;
                    plan.slowdowns.push(SlowWindow {
                        from: step_of(from)?,
                        until: step_of(until)?,
                        factor: factor_of(factor)?,
                    });
                }
                "degrade" => {
                    let (step, factor) = two(':')?;
                    plan.inter_degrades.push(InterDegrade {
                        step: step_of(step)?,
                        factor: factor_of(factor)?,
                    });
                }
                other => {
                    return Err(TrainFaultError::new(format!(
                        "unknown fault key `{other}` (keys: crash, rejoin, drop, slow, degrade)"
                    )));
                }
            }
        }
        plan.validate(workers)?;
        Ok(plan)
    }

    /// Checks every event is in range for a job of `workers` ranks.
    ///
    /// # Errors
    ///
    /// [`TrainFaultError`] naming the out-of-range event.
    pub fn validate(&self, workers: usize) -> Result<(), TrainFaultError> {
        for (i, c) in self.crashes.iter().enumerate() {
            if c.worker >= workers {
                return Err(TrainFaultError::new(format!(
                    "crashes[{i}]: worker {} out of range for {workers} ranks",
                    c.worker
                )));
            }
        }
        for (i, r) in self.rejoins.iter().enumerate() {
            if r.worker >= workers {
                return Err(TrainFaultError::new(format!(
                    "rejoins[{i}]: worker {} out of range for {workers} ranks",
                    r.worker
                )));
            }
        }
        if self.rejoins.is_empty() {
            if self.crashes.len() >= workers {
                return Err(TrainFaultError::new(format!(
                    "{} crashes would leave no survivor of {workers} ranks",
                    self.crashes.len()
                )));
            }
        } else {
            // With re-joins the crash count alone says nothing; walk the
            // membership through the merged event sequence instead.
            // Crashes apply before re-joins at the same step, mirroring
            // the runtime's processing order.
            let mut events: Vec<(usize, bool, usize)> = self
                .crashes
                .iter()
                .map(|c| (c.step, false, c.worker))
                .chain(self.rejoins.iter().map(|r| (r.step, true, r.worker)))
                .collect();
            events.sort_by_key(|&(step, is_rejoin, _)| (step, is_rejoin));
            let mut lost: Vec<usize> = Vec::new();
            for (step, is_rejoin, worker) in events {
                if is_rejoin {
                    let Some(at) = lost.iter().position(|&w| w == worker) else {
                        return Err(TrainFaultError::new(format!(
                            "rejoin of worker {worker} at step {step}: the rank is not lost there"
                        )));
                    };
                    lost.remove(at);
                } else {
                    if lost.contains(&worker) {
                        return Err(TrainFaultError::new(format!(
                            "crash of worker {worker} at step {step}: the rank is already lost there"
                        )));
                    }
                    if workers - lost.len() == 1 {
                        return Err(TrainFaultError::new(format!(
                            "crash of worker {worker} at step {step} would leave no survivor"
                        )));
                    }
                    lost.push(worker);
                }
            }
        }
        for (i, d) in self.drops.iter().enumerate() {
            if d.worker >= workers {
                return Err(TrainFaultError::new(format!(
                    "drops[{i}]: worker {} out of range for {workers} ranks",
                    d.worker
                )));
            }
        }
        for (i, s) in self.slowdowns.iter().enumerate() {
            if !(s.factor.is_finite() && s.factor >= 1.0) {
                return Err(TrainFaultError::new(format!(
                    "slowdowns[{i}].factor must be finite and >= 1, got {}",
                    s.factor
                )));
            }
            if s.until <= s.from {
                return Err(TrainFaultError::new(format!(
                    "slowdowns[{i}]: empty window {}-{}",
                    s.from, s.until
                )));
            }
        }
        for (i, d) in self.inter_degrades.iter().enumerate() {
            if !(d.factor.is_finite() && d.factor >= 1.0) {
                return Err(TrainFaultError::new(format!(
                    "inter_degrades[{i}].factor must be finite and >= 1, got {}",
                    d.factor
                )));
            }
        }
        Ok(())
    }

    /// Workers that crash at exactly `step`, in plan order.
    pub fn crashes_at(&self, step: usize) -> Vec<usize> {
        self.crashes
            .iter()
            .filter(|c| c.step == step)
            .map(|c| c.worker)
            .collect()
    }

    /// Workers that re-join at exactly `step`, in plan order.
    pub fn rejoins_at(&self, step: usize) -> Vec<usize> {
        self.rejoins
            .iter()
            .filter(|r| r.step == step)
            .map(|r| r.worker)
            .collect()
    }

    /// Global ranks whose pushes are lost at `step`.
    pub fn drops_at(&self, step: usize) -> Vec<usize> {
        self.drops
            .iter()
            .filter(|d| d.step == step)
            .map(|d| d.worker)
            .collect()
    }

    /// The iteration-time multiplier in effect at `step` (active windows
    /// stack multiplicatively; 1.0 when none is active).
    pub fn slow_factor(&self, step: usize) -> f64 {
        self.slowdowns
            .iter()
            .filter(|s| step >= s.from && step < s.until)
            .map(|s| s.factor)
            .product()
    }

    /// The fabric health in effect at `step`: the *worst* (largest)
    /// inter-degradation whose start step has passed, or nominal.
    pub fn health_at(&self, step: usize) -> ClusterHealth {
        let worst = self
            .inter_degrades
            .iter()
            .filter(|d| d.step <= step)
            .map(|d| d.factor)
            .fold(1.0, f64::max);
        if worst > 1.0 {
            ClusterHealth::inter_degraded(worst)
        } else {
            ClusterHealth::nominal()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_seed_is_pure() {
        let a = TrainFaultPlan::from_seed(7, 4, 100);
        let b = TrainFaultPlan::from_seed(7, 4, 100);
        assert_eq!(a, b);
        a.validate(4).unwrap();
        // Some nearby seed differs (the draw actually depends on seed).
        assert!((0..20u64).any(|s| TrainFaultPlan::from_seed(s, 4, 100) != a));
    }

    #[test]
    fn parse_accepts_seed_and_event_forms() {
        let by_seed = TrainFaultPlan::parse("99", 4, 100).unwrap();
        assert_eq!(by_seed, TrainFaultPlan::from_seed(99, 4, 100));

        let plan =
            TrainFaultPlan::parse("crash=20:1, slow=30-60:2.5, drop=40:0, degrade=20:2.0", 4, 100)
                .unwrap();
        assert_eq!(plan.crashes, vec![Crash { step: 20, worker: 1 }]);
        assert_eq!(plan.drops_at(40), vec![0]);
        assert_eq!(plan.slow_factor(30), 2.5);
        assert_eq!(plan.slow_factor(60), 1.0);
        assert_eq!(
            plan.health_at(25),
            ClusterHealth::inter_degraded(2.0)
        );
        assert!(plan.health_at(19).is_nominal());
    }

    #[test]
    fn parse_rejects_bad_specs() {
        for bad in [
            "",
            "crash",
            "crash=20",
            "crash=x:1",
            "crash=20:9", // worker out of range for 4 ranks
            "slow=30:2.0",
            "slow=30-30:2.0",
            "slow=30-60:0.5",
            "bogus=1:2",
        ] {
            assert!(TrainFaultPlan::parse(bad, 4, 100).is_err(), "{bad}");
        }
    }

    #[test]
    fn validate_rejects_total_loss() {
        let plan = TrainFaultPlan {
            crashes: vec![
                Crash { step: 1, worker: 0 },
                Crash { step: 2, worker: 1 },
            ],
            ..TrainFaultPlan::nominal()
        };
        assert!(plan.validate(2).is_err());
        assert!(plan.validate(3).is_ok());
    }

    #[test]
    fn rejoin_specs_parse_and_validate_against_the_membership_walk() {
        let plan =
            TrainFaultPlan::parse("crash=20:1,rejoin=45:1,crash=60:1", 4, 100).unwrap();
        assert_eq!(plan.rejoins, vec![Rejoin { step: 45, worker: 1 }]);
        assert_eq!(plan.rejoins_at(45), vec![1]);
        assert!(plan.rejoins_at(44).is_empty());

        for bad in [
            "rejoin=10:1",                       // never crashed
            "crash=10:1,rejoin=5:1",             // rejoin precedes the crash
            "crash=10:1,rejoin=20:1,rejoin=30:1", // double rejoin
            "crash=10:1,rejoin=20:9",            // out of range
            "crash=10:0,crash=10:1,crash=10:2,crash=10:3,rejoin=20:0", // no survivor
        ] {
            assert!(TrainFaultPlan::parse(bad, 4, 100).is_err(), "{bad}");
        }
        // With rejoins, more crashes than ranks is fine when interleaved.
        let churny = TrainFaultPlan::parse(
            "crash=10:1,rejoin=20:1,crash=30:1,rejoin=40:1,crash=50:1",
            2,
            100,
        )
        .unwrap();
        assert_eq!(churny.crashes.len(), 3);
    }

    #[test]
    fn churn_plans_are_pure_and_always_valid() {
        let a = TrainFaultPlan::churn(11, 4, 120);
        let b = TrainFaultPlan::churn(11, 4, 120);
        assert_eq!(a, b);
        let mut saw_rejoin = false;
        for seed in 0..64u64 {
            let plan = TrainFaultPlan::churn(seed, 4, 120);
            plan.validate(4).unwrap_or_else(|e| {
                panic!("churn seed {seed} generated an invalid plan: {e}")
            });
            saw_rejoin |= !plan.rejoins.is_empty();
        }
        assert!(saw_rejoin, "64 churn seeds produced zero re-joins");
    }

    #[test]
    fn generated_plans_validate_for_the_shortest_runs() {
        // A slow window drawn to start at `steps` would be the empty
        // window `steps-steps`, which `validate` rejects; both generators
        // must draw its start inside the run even when `steps == 1`.
        for steps in 1..=4 {
            for seed in 0..2000u64 {
                for (kind, plan) in [
                    ("from_seed", TrainFaultPlan::from_seed(seed, 4, steps)),
                    ("churn", TrainFaultPlan::churn(seed, 4, steps)),
                ] {
                    plan.validate(4).unwrap_or_else(|e| {
                        panic!("{kind} seed {seed} with {steps} steps is invalid: {e}")
                    });
                }
            }
        }
    }

    #[test]
    fn queries_are_pure_step_functions() {
        let plan = TrainFaultPlan::parse("slow=10-20:2.0,slow=15-25:3.0", 4, 100).unwrap();
        assert_eq!(plan.slow_factor(9), 1.0);
        assert_eq!(plan.slow_factor(12), 2.0);
        assert_eq!(plan.slow_factor(17), 6.0, "windows stack");
        assert_eq!(plan.slow_factor(22), 3.0);
        assert!(plan.crashes_at(5).is_empty());
    }

    #[test]
    fn seeded_plans_stay_in_range() {
        for seed in 0..50 {
            let plan = TrainFaultPlan::from_seed(seed, 4, 80);
            plan.validate(4).unwrap();
            for c in &plan.crashes {
                assert!(c.step < 80 && c.worker < 4);
            }
            for s in &plan.slowdowns {
                assert!(s.until > s.from && s.factor >= 1.0);
            }
        }
    }
}
