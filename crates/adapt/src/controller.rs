//! GraVAC-style online ratio controller.
//!
//! The allocator plans ratios *offline* from profiled curves; training
//! reality drifts. This controller closes the loop at runtime: each sync
//! round it observes the per-tensor **relative compression error** (the
//! error-feedback residual norm over the gradient norm — exactly what the
//! trainer's [`espresso_gc::ErrorFeedback`] state already tracks) and
//! walks each tensor along its ratio grid:
//!
//! * error above the high watermark for `patience` consecutive rounds →
//!   **relax** (one grid step less aggressive, smaller error),
//! * error below the low watermark for `patience` rounds → **tighten**
//!   (one step more aggressive, more compression),
//! * after any move, a per-tensor `cooldown` of rounds with no further
//!   moves — hysteresis, so a tensor cannot oscillate every round.
//!
//! The controller is a pure, serializable state machine: the training
//! runtime owns it, feeds it measurements, applies the plans it emits via
//! the existing re-planning path, and checkpoints its state so crash +
//! resume replays bit-identically.

use espresso_gc::GcAlgorithm;
use espresso_json::{DecodeError, FromJson, Json, ToJson};

/// Watermarks and hysteresis parameters of the controller.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ControllerConfig {
    /// Relative error below which a tensor's ratio tightens.
    pub low: f64,
    /// Relative error above which a tensor's ratio relaxes.
    pub high: f64,
    /// Consecutive out-of-band rounds required before a move.
    pub patience: u32,
    /// Rounds a tensor holds still after a move.
    pub cooldown: u32,
}

impl Default for ControllerConfig {
    fn default() -> Self {
        Self {
            low: 0.5,
            high: 0.9,
            patience: 2,
            cooldown: 2,
        }
    }
}

impl ToJson for ControllerConfig {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("low", self.low.to_json()),
            ("high", self.high.to_json()),
            ("patience", self.patience.to_json()),
            ("cooldown", self.cooldown.to_json()),
        ])
    }
}

impl FromJson for ControllerConfig {
    fn from_json(v: &Json) -> Result<Self, DecodeError> {
        Ok(Self {
            low: v.req("low")?,
            high: v.req("high")?,
            patience: v.req("patience")?,
            cooldown: v.req("cooldown")?,
        })
    }
}

/// Per-tensor ratio adaptation state machine.
#[derive(Debug, Clone, PartialEq)]
pub struct RatioController {
    /// The job's base (uniform default) algorithm; defines the grid.
    base: GcAlgorithm,
    cfg: ControllerConfig,
    /// The shared settings grid, most → least aggressive.
    grid: Vec<GcAlgorithm>,
    /// Per-tensor current grid level.
    levels: Vec<usize>,
    /// Consecutive rounds each tensor spent above the high watermark.
    high_streaks: Vec<u32>,
    /// Consecutive rounds each tensor spent below the low watermark.
    low_streaks: Vec<u32>,
    /// Remaining hold-still rounds per tensor.
    cooldowns: Vec<u32>,
    /// Total grid moves made over the controller's lifetime.
    adjustments: u64,
}

impl RatioController {
    /// A controller for `num_tensors` tensors of `base`'s family, starting
    /// every tensor at `base`'s own grid level (middle of the grid if
    /// `base` is off-grid).
    pub fn new(base: GcAlgorithm, num_tensors: usize, cfg: ControllerConfig) -> Self {
        let grid = base.ratio_settings();
        let start = grid
            .iter()
            .position(|s| *s == base)
            .unwrap_or(grid.len() / 2);
        Self {
            base,
            cfg,
            grid,
            levels: vec![start; num_tensors],
            high_streaks: vec![0; num_tensors],
            low_streaks: vec![0; num_tensors],
            cooldowns: vec![0; num_tensors],
            adjustments: 0,
        }
    }

    /// A controller starting from an allocator-chosen plan instead of the
    /// uniform default.
    ///
    /// # Panics
    ///
    /// Panics if any level is outside `base`'s grid.
    pub fn with_levels(base: GcAlgorithm, levels: Vec<usize>, cfg: ControllerConfig) -> Self {
        let mut c = Self::new(base, levels.len(), cfg);
        assert!(
            levels.iter().all(|&k| k < c.grid.len()),
            "plan level outside the settings grid"
        );
        c.levels = levels;
        c
    }

    /// The current per-tensor plan.
    pub fn plan(&self) -> Vec<GcAlgorithm> {
        self.levels.iter().map(|&k| self.grid[k]).collect()
    }

    /// Current per-tensor grid levels.
    pub fn levels(&self) -> &[usize] {
        &self.levels
    }

    /// Total moves made so far.
    pub fn adjustments(&self) -> u64 {
        self.adjustments
    }

    /// Whether the controller's grid has more than one setting (knobless
    /// algorithms have nothing to adapt).
    pub fn can_adapt(&self) -> bool {
        self.grid.len() > 1
    }

    /// Feeds one sync round of per-tensor relative compression errors.
    /// Returns `true` if any tensor moved — the caller should then fetch
    /// [`RatioController::plan`] and re-plan.
    ///
    /// # Panics
    ///
    /// Panics if `rel_errors` length differs from the tensor count.
    pub fn observe(&mut self, rel_errors: &[f64]) -> bool {
        assert_eq!(
            rel_errors.len(),
            self.levels.len(),
            "one error sample per tensor"
        );
        let mut changed = false;
        for (i, &err) in rel_errors.iter().enumerate() {
            if self.cooldowns[i] > 0 {
                self.cooldowns[i] -= 1;
                continue;
            }
            if err > self.cfg.high {
                self.low_streaks[i] = 0;
                self.high_streaks[i] += 1;
                if self.high_streaks[i] >= self.cfg.patience && self.levels[i] + 1 < self.grid.len()
                {
                    self.levels[i] += 1; // relax: looser ratio, less error
                    self.after_move(i);
                    changed = true;
                }
            } else if err < self.cfg.low {
                self.high_streaks[i] = 0;
                self.low_streaks[i] += 1;
                if self.low_streaks[i] >= self.cfg.patience && self.levels[i] > 0 {
                    self.levels[i] -= 1; // tighten: more compression
                    self.after_move(i);
                    changed = true;
                }
            } else {
                self.high_streaks[i] = 0;
                self.low_streaks[i] = 0;
            }
        }
        changed
    }

    fn after_move(&mut self, i: usize) {
        self.high_streaks[i] = 0;
        self.low_streaks[i] = 0;
        self.cooldowns[i] = self.cfg.cooldown;
        self.adjustments += 1;
    }
}

impl ToJson for RatioController {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("base", self.base.to_json()),
            ("cfg", self.cfg.to_json()),
            ("levels", self.levels.to_json()),
            ("high_streaks", self.high_streaks.to_json()),
            ("low_streaks", self.low_streaks.to_json()),
            ("cooldowns", self.cooldowns.to_json()),
            ("adjustments", self.adjustments.to_json()),
        ])
    }
}

impl FromJson for RatioController {
    fn from_json(v: &Json) -> Result<Self, DecodeError> {
        let base: GcAlgorithm = v.req("base")?;
        let levels: Vec<usize> = v.req("levels")?;
        let mut c = Self::new(base, levels.len(), v.req("cfg")?);
        // Decoded input, so an out-of-grid level is an error, not the
        // panic `with_levels` reserves for a caller's bug.
        if let Some(i) = levels.iter().position(|&k| k >= c.grid.len()) {
            return Err(DecodeError::new(format!(
                "level {} outside the {}-setting grid",
                levels[i],
                c.grid.len()
            ))
            .at(&format!("levels[{i}]")));
        }
        c.levels = levels;
        c.high_streaks = v.req("high_streaks")?;
        c.low_streaks = v.req("low_streaks")?;
        c.cooldowns = v.req("cooldowns")?;
        c.adjustments = v.req("adjustments")?;
        let n = c.levels.len();
        for (field, len) in [
            ("high_streaks", c.high_streaks.len()),
            ("low_streaks", c.low_streaks.len()),
            ("cooldowns", c.cooldowns.len()),
        ] {
            if len != n {
                return Err(
                    DecodeError::new(format!("expected {n} entries, found {len}")).at(field),
                );
            }
        }
        Ok(c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctl() -> RatioController {
        RatioController::new(
            GcAlgorithm::dgc_1pct(),
            3,
            ControllerConfig {
                low: 0.5,
                high: 0.9,
                patience: 2,
                cooldown: 2,
            },
        )
    }

    #[test]
    fn starts_at_the_default_grid_level() {
        let c = ctl();
        assert!(c.can_adapt());
        assert_eq!(c.plan(), vec![GcAlgorithm::dgc_1pct(); 3]);
    }

    #[test]
    fn relaxes_after_patience_rounds_above_the_high_watermark() {
        let mut c = ctl();
        let hot = [0.95, 0.7, 0.7];
        assert!(!c.observe(&hot), "one round is below patience");
        assert!(c.observe(&hot), "second round trips the move");
        let d0 = c.plan()[0].density().unwrap();
        assert!(d0 > 0.01, "tensor 0 must relax, got {d0}");
        assert_eq!(c.plan()[1], GcAlgorithm::dgc_1pct());
        assert_eq!(c.adjustments(), 1);
    }

    #[test]
    fn tightens_after_patience_rounds_below_the_low_watermark() {
        let mut c = ctl();
        let quiet = [0.1, 0.7, 0.7];
        c.observe(&quiet);
        assert!(c.observe(&quiet));
        let d0 = c.plan()[0].density().unwrap();
        assert!(d0 < 0.01, "tensor 0 must tighten, got {d0}");
    }

    #[test]
    fn cooldown_blocks_immediate_reversal() {
        let mut c = ctl();
        let hot = [0.95; 3];
        c.observe(&hot);
        c.observe(&hot); // move; cooldown = 2
        let after_move = c.plan();
        c.observe(&hot);
        c.observe(&hot); // both absorbed by cooldown
        assert_eq!(c.plan(), after_move);
        // Cooldown over: patience counts again from zero.
        c.observe(&hot);
        assert_eq!(c.plan(), after_move);
        assert!(c.observe(&hot));
    }

    #[test]
    fn in_band_errors_reset_streaks() {
        let mut c = ctl();
        c.observe(&[0.95; 3]);
        c.observe(&[0.7; 3]); // back in band: streak resets
        assert!(!c.observe(&[0.95; 3]), "streak must restart at one");
        assert_eq!(c.adjustments(), 0);
    }

    #[test]
    fn moves_saturate_at_the_grid_ends() {
        let grid = GcAlgorithm::dgc_1pct().ratio_settings();
        let mut c = RatioController::with_levels(
            GcAlgorithm::dgc_1pct(),
            vec![grid.len() - 1],
            ControllerConfig {
                patience: 1,
                cooldown: 0,
                ..ControllerConfig::default()
            },
        );
        assert!(!c.observe(&[0.99]), "already loosest: no move");
        let mut c = RatioController::with_levels(
            GcAlgorithm::dgc_1pct(),
            vec![0],
            ControllerConfig {
                patience: 1,
                cooldown: 0,
                ..ControllerConfig::default()
            },
        );
        assert!(!c.observe(&[0.01]), "already tightest: no move");
    }

    #[test]
    fn knobless_algorithms_cannot_adapt() {
        let c = RatioController::new(GcAlgorithm::EfSignSgd, 4, ControllerConfig::default());
        assert!(!c.can_adapt());
        assert_eq!(c.plan(), vec![GcAlgorithm::EfSignSgd; 4]);
    }

    #[test]
    fn state_round_trips_through_json() {
        let mut c = ctl();
        c.observe(&[0.95, 0.1, 0.7]);
        c.observe(&[0.95, 0.1, 0.7]);
        let json = espresso_json::Json::encode(&c);
        let back: RatioController =
            espresso_json::Json::decode(&json).expect("controller state decodes");
        assert_eq!(back, c);
    }

    #[test]
    fn corrupt_state_vectors_are_rejected() {
        let mut c = ctl();
        c.observe(&[0.95, 0.1, 0.7]);
        let json = espresso_json::Json::encode(&c).replace(
            "\"cooldowns\":[0,0,0]",
            "\"cooldowns\":[0,0]",
        );
        let err = espresso_json::Json::decode::<RatioController>(&json)
            .expect_err("length mismatch must fail");
        assert!(err.to_string().contains("cooldowns"), "{err}");
    }
}
