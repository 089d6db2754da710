//! The [`Compressor`] trait and the [`GcAlgorithm`] configuration enum.

use crate::{
    algorithms::{Dgc, EfSignSgd, Fp16, Natural, Qsgd, RandomK, TernGrad},
    tensor::{quantized_wire_bytes, CompressedTensor},
};

/// Identifies *where in the run* a compression happens, so randomized
/// compressors can derive reproducible — and, where required,
/// cross-worker-coordinated — randomness.
///
/// RandomK must pick the *same* indices on every worker of a
/// synchronization round (otherwise the selected values cannot be
/// aggregated); it therefore seeds from `(round, tensor)` only. Unbiased
/// stochastic quantizers (QSGD) mix in `worker` so each replica rounds
/// independently.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct CompressCtx {
    /// Synchronization round (training iteration).
    pub round: u64,
    /// Worker (GPU) rank.
    pub worker: u64,
    /// Tensor identifier within the model.
    pub tensor: u64,
}

impl CompressCtx {
    /// Seed shared by all workers in a round (index-coordination seed).
    pub fn shared_seed(&self) -> u64 {
        splitmix(self.round ^ self.tensor.rotate_left(17) ^ 0x9e37_79b9_7f4a_7c15)
    }

    /// Seed unique to this worker in this round.
    pub fn worker_seed(&self) -> u64 {
        splitmix(self.shared_seed() ^ splitmix(self.worker.wrapping_add(0x5851_f42d_4c95_7f2d)))
    }
}

/// One round of the SplitMix64 mixer; enough avalanche for seeding.
fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Direction of [`Compressor::accumulate_into`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Accumulate {
    /// `acc += decompressed` — aggregation.
    Add,
    /// `acc -= decompressed` — the error-feedback residual update.
    Subtract,
}

/// A gradient compression algorithm.
///
/// Implementations must be deterministic given `(grad, ctx)` and must
/// produce a wire size that depends only on `grad.len()` — the paper's
/// section 4.3 requires deterministic compression time and ratio per
/// tensor size, and the strategy search relies on it.
pub trait Compressor: Send + Sync {
    /// Human-readable algorithm name (as used in the paper's figures).
    fn name(&self) -> &'static str;

    /// Compresses a dense gradient.
    fn compress(&self, grad: &[f32], ctx: CompressCtx) -> CompressedTensor;

    /// Reconstructs a dense gradient from a compressed tensor.
    fn decompress(&self, compressed: &CompressedTensor) -> Vec<f32>;

    /// Adds (or subtracts) the decompressed tensor into `acc`, element by
    /// element, without materializing it: `acc[i] = acc[i] ± d[i]` where
    /// `d = self.decompress(compressed)`.
    ///
    /// The default does exactly that. Overrides must be bit-identical to
    /// it for every `acc` without `-0.0` or signalling-NaN entries — a
    /// sparse override may skip the elements whose decompressed value is
    /// `+0.0`, because `a + 0.0 == a` and `a - 0.0 == a` bit for bit for
    /// every other `a`. Both callers qualify: aggregation sums into a
    /// buffer that starts at `+0.0` (and a sum that starts at `+0.0` can
    /// never become `-0.0`), and error feedback subtracts from a residual
    /// it just computed (a subtraction of `+0.0` is exact for `-0.0` too).
    ///
    /// # Panics
    ///
    /// Panics if `acc.len()` differs from `compressed.len()`, or if the
    /// tensor is not this compressor's representation.
    fn accumulate_into(&self, compressed: &CompressedTensor, acc: &mut [f32], op: Accumulate) {
        assert_eq!(compressed.len(), acc.len(), "accumulating mismatched tensor lengths");
        let dense = self.decompress(compressed);
        match op {
            Accumulate::Add => acc.iter_mut().zip(&dense).for_each(|(a, &d)| *a += d),
            Accumulate::Subtract => acc.iter_mut().zip(&dense).for_each(|(a, &d)| *a -= d),
        }
    }

    /// Exact wire size in bytes for a tensor of `elems` elements.
    fn compressed_bytes(&self, elems: usize) -> usize;

    /// Wire size as a fraction of the dense `f32` size.
    fn ratio(&self, elems: usize) -> f64 {
        if elems == 0 {
            return 0.0;
        }
        self.compressed_bytes(elems) as f64 / (elems * 4) as f64
    }

    /// Whether the compressor is biased (requires error feedback for
    /// convergence). Unbiased compressors (RandomK with rescaling, QSGD)
    /// tolerate plain averaging, but the paper applies error feedback to
    /// all of them.
    fn is_biased(&self) -> bool;
}

/// Configuration-level identification of a GC algorithm — the "GC
/// information" file of the paper's Figure 6 (algorithm + compression
/// ratio).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum GcAlgorithm {
    /// Random-k sparsification with the given density (e.g. 0.01 keeps 1%).
    RandomK {
        /// Fraction of elements kept.
        density: f64,
    },
    /// Deep Gradient Compression: top-k by magnitude, same density knob.
    Dgc {
        /// Fraction of elements kept.
        density: f64,
    },
    /// EFSignSGD 1-bit quantization.
    EfSignSgd,
    /// QSGD stochastic quantization with `levels` levels per sign.
    Qsgd {
        /// Quantization levels (e.g. 127 for 8-bit codes).
        levels: u8,
    },
    /// TernGrad ternary quantization.
    TernGrad,
    /// FP16 truncation.
    Fp16,
    /// Natural compression (unbiased power-of-two rounding).
    Natural,
}

impl GcAlgorithm {
    /// The paper's default sparsifier settings: 1% density.
    pub fn dgc_1pct() -> Self {
        GcAlgorithm::Dgc { density: 0.01 }
    }

    /// RandomK at 1% density.
    pub fn randomk_1pct() -> Self {
        GcAlgorithm::RandomK { density: 0.01 }
    }

    /// The three algorithms the paper evaluates (section 5.1).
    pub fn paper_suite() -> [GcAlgorithm; 3] {
        [
            Self::randomk_1pct(),
            Self::dgc_1pct(),
            GcAlgorithm::EfSignSgd,
        ]
    }

    /// Short display name matching the paper's terminology.
    pub fn name(&self) -> &'static str {
        match self {
            GcAlgorithm::RandomK { .. } => "Randomk",
            GcAlgorithm::Dgc { .. } => "DGC",
            GcAlgorithm::EfSignSgd => "EFSignSGD",
            GcAlgorithm::Qsgd { .. } => "QSGD",
            GcAlgorithm::TernGrad => "TernGrad",
            GcAlgorithm::Fp16 => "FP16",
            GcAlgorithm::Natural => "Natural",
        }
    }

    /// Instantiates the algorithm.
    ///
    /// # Panics
    ///
    /// Panics if a sparsifier density is outside `(0, 1]` or a QSGD level
    /// count is zero — these are configuration errors.
    pub fn build(&self) -> Box<dyn Compressor> {
        match *self {
            GcAlgorithm::RandomK { density } => Box::new(RandomK::new(density)),
            GcAlgorithm::Dgc { density } => Box::new(Dgc::new(density)),
            GcAlgorithm::EfSignSgd => Box::new(EfSignSgd::new()),
            GcAlgorithm::Qsgd { levels } => Box::new(Qsgd::new(levels)),
            GcAlgorithm::TernGrad => Box::new(TernGrad::new()),
            GcAlgorithm::Fp16 => Box::new(Fp16::new()),
            GcAlgorithm::Natural => Box::new(Natural::new()),
        }
    }

    /// Exact wire size in bytes for `elems` elements, without building the
    /// compressor. Must agree with the built instance (tested) — this is
    /// on the strategy-search hot path, so it is computed arithmetically.
    pub fn compressed_bytes(&self, elems: usize) -> usize {
        match *self {
            GcAlgorithm::RandomK { density } | GcAlgorithm::Dgc { density } => {
                let kept = if elems == 0 {
                    0
                } else {
                    (((elems as f64) * density).ceil() as usize).clamp(1, elems)
                };
                4 + kept * 8
            }
            GcAlgorithm::EfSignSgd => 4 + 4 + elems.div_ceil(64) * 8,
            GcAlgorithm::Qsgd { levels } => quantized_wire_bytes(levels, elems),
            GcAlgorithm::TernGrad => 4 + 4 + elems.div_ceil(4),
            GcAlgorithm::Fp16 => 4 + elems * 2,
            GcAlgorithm::Natural => 4 + elems.div_ceil(64) * 8 + elems,
        }
    }

    /// Wire size as a fraction of the dense `f32` size.
    pub fn ratio(&self, elems: usize) -> f64 {
        if elems == 0 {
            return 0.0;
        }
        self.compressed_bytes(elems) as f64 / (elems * 4) as f64
    }

    /// Whether compressing with this algorithm is element-wise "simple"
    /// (quantizers) or requires selection (sparsifiers) — sparsifier
    /// kernels are slower per element; the timing model keys off this.
    pub fn is_sparsifier(&self) -> bool {
        matches!(self, GcAlgorithm::RandomK { .. } | GcAlgorithm::Dgc { .. })
    }

    /// The sparsifier density, if this is a sparsifier.
    pub fn density(&self) -> Option<f64> {
        match *self {
            GcAlgorithm::RandomK { density } | GcAlgorithm::Dgc { density } => Some(density),
            _ => None,
        }
    }

    /// The QSGD level count, if this is QSGD.
    pub fn levels(&self) -> Option<u8> {
        match *self {
            GcAlgorithm::Qsgd { levels } => Some(levels),
            _ => None,
        }
    }

    /// Whether `other` is the same algorithm *family* (variant), possibly
    /// with a different knob setting — the invariant the per-tensor ratio
    /// plan preserves: the adaptive layer varies the ratio, never the
    /// algorithm, of a tensor.
    pub fn same_family(&self, other: &Self) -> bool {
        std::mem::discriminant(self) == std::mem::discriminant(other)
    }

    /// This algorithm with its continuous ratio knob set to `ratio`.
    ///
    /// For sparsifiers the knob is the kept-element density. Returns
    /// `None` if the variant has no ratio knob (quantizers' aggressiveness
    /// is the discrete bit width — see [`GcAlgorithm::with_bits`]) or if
    /// `ratio` is outside `(0, 1]` / not finite.
    pub fn with_ratio(&self, ratio: f64) -> Option<Self> {
        if !(ratio > 0.0 && ratio <= 1.0) {
            return None; // also rejects NaN/∞ — comparisons are false
        }
        match *self {
            GcAlgorithm::RandomK { .. } => Some(GcAlgorithm::RandomK { density: ratio }),
            GcAlgorithm::Dgc { .. } => Some(GcAlgorithm::Dgc { density: ratio }),
            _ => None,
        }
    }

    /// This algorithm with its code width set to `bits`.
    ///
    /// For QSGD, `bits ∈ 2..=8` selects the level count `2^(bits−1) − 1`
    /// (the largest that packs into `bits`-bit signed codes); TernGrad's
    /// codes are fixed at 2 bits, so only `bits == 2` is accepted. Returns
    /// `None` for other variants or out-of-range widths.
    pub fn with_bits(&self, bits: u8) -> Option<Self> {
        match *self {
            GcAlgorithm::Qsgd { .. } if (2..=8).contains(&bits) => Some(GcAlgorithm::Qsgd {
                levels: ((1u16 << (bits - 1)) - 1) as u8,
            }),
            GcAlgorithm::TernGrad if bits == 2 => Some(GcAlgorithm::TernGrad),
            _ => None,
        }
    }

    /// The discrete settings grid of this algorithm's knob, ordered most
    /// aggressive (smallest wire size, largest error) to least. Knobless
    /// variants return a single-entry grid of themselves, so callers can
    /// treat every algorithm uniformly.
    pub fn ratio_settings(&self) -> Vec<Self> {
        match *self {
            GcAlgorithm::RandomK { .. } | GcAlgorithm::Dgc { .. } => {
                [0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1]
                    .iter()
                    .map(|&d| self.with_ratio(d).expect("grid densities are in (0, 1]"))
                    .collect()
            }
            GcAlgorithm::Qsgd { .. } => (2..=8)
                .map(|b| self.with_bits(b).expect("grid widths are in 2..=8"))
                .collect(),
            _ => vec![*self],
        }
    }

    /// Compact human-readable label of the knob setting ("d=0.01" for a
    /// sparsifier density, "s=127" for QSGD levels, "-" for knobless
    /// variants) — used by strategy descriptions and bench reports.
    pub fn setting_label(&self) -> String {
        match *self {
            GcAlgorithm::RandomK { density } | GcAlgorithm::Dgc { density } => {
                format!("d={density}")
            }
            GcAlgorithm::Qsgd { levels } => format!("s={levels}"),
            _ => "-".into(),
        }
    }

    /// Filesystem-safe slug of the knob setting ("d0p01", "s127", "" for
    /// knobless variants) — used to disambiguate golden-trace file names
    /// across ratio variants of the same algorithm.
    pub fn setting_slug(&self) -> String {
        match *self {
            GcAlgorithm::RandomK { density } | GcAlgorithm::Dgc { density } => {
                format!("d{}", format!("{density}").replace('.', "p"))
            }
            GcAlgorithm::Qsgd { levels } => format!("s{levels}"),
            _ => String::new(),
        }
    }

    /// Effective dense-element workload of decompressing `pieces`
    /// compressed pieces of `piece_elems` elements each into one dense
    /// buffer.
    ///
    /// Quantized pieces must be fully dequantized (`pieces * piece_elems`
    /// work); sparse pieces are scatter-added into a single zeroed dense
    /// buffer, so the work is one dense pass plus ~2 ops per nonzero.
    pub fn decompress_effective_elems(&self, piece_elems: usize, pieces: usize) -> usize {
        match self.density() {
            Some(d) => {
                let nnz = ((piece_elems as f64 * d).ceil() as usize).clamp(1, piece_elems.max(1));
                piece_elems + 2 * pieces * nnz
            }
            None => pieces * piece_elems,
        }
    }

    /// Effective dense-element workload of summing `pieces` decompressed
    /// pieces of `piece_elems` elements each.
    ///
    /// For sparse algorithms the summation is fused into the scatter-add
    /// (near-free beyond the nonzeros); quantized pieces are dense sums.
    pub fn aggregate_effective_elems(&self, piece_elems: usize, pieces: usize) -> usize {
        match self.density() {
            Some(d) => {
                let nnz = ((piece_elems as f64 * d).ceil() as usize).clamp(1, piece_elems.max(1));
                pieces * nnz
            }
            None => pieces * piece_elems,
        }
    }
}

use espresso_json::{enums, DecodeError, FromJson, Json, ToJson};

impl ToJson for GcAlgorithm {
    fn to_json(&self) -> Json {
        match self {
            GcAlgorithm::RandomK { density } => {
                enums::tagged("RandomK", Json::obj(vec![("density", density.to_json())]))
            }
            GcAlgorithm::Dgc { density } => {
                enums::tagged("Dgc", Json::obj(vec![("density", density.to_json())]))
            }
            GcAlgorithm::EfSignSgd => Json::Str("EfSignSgd".into()),
            GcAlgorithm::Qsgd { levels } => {
                enums::tagged("Qsgd", Json::obj(vec![("levels", levels.to_json())]))
            }
            GcAlgorithm::TernGrad => Json::Str("TernGrad".into()),
            GcAlgorithm::Fp16 => Json::Str("Fp16".into()),
            GcAlgorithm::Natural => Json::Str("Natural".into()),
        }
    }
}

impl FromJson for GcAlgorithm {
    fn from_json(v: &Json) -> Result<Self, DecodeError> {
        const VARIANTS: &[&str] = &[
            "RandomK", "Dgc", "EfSignSgd", "Qsgd", "TernGrad", "Fp16", "Natural",
        ];
        let (name, payload) = enums::variant(v)?;
        let decode_density = |payload: &Json| -> Result<f64, DecodeError> {
            let density: f64 = payload.req("density").map_err(|e| e.at(name))?;
            if !(density > 0.0 && density <= 1.0) {
                return Err(DecodeError::new(format!(
                    "density must be in (0, 1], got {density}"
                ))
                .at("density")
                .at(name));
            }
            Ok(density)
        };
        match name {
            "RandomK" => Ok(GcAlgorithm::RandomK {
                density: decode_density(payload)?,
            }),
            "Dgc" => Ok(GcAlgorithm::Dgc {
                density: decode_density(payload)?,
            }),
            "EfSignSgd" => Ok(GcAlgorithm::EfSignSgd),
            "Qsgd" => {
                let levels: u8 = payload.req("levels").map_err(|e| e.at(name))?;
                if levels == 0 {
                    return Err(DecodeError::new("levels must be at least 1")
                        .at("levels")
                        .at(name));
                }
                Ok(GcAlgorithm::Qsgd { levels })
            }
            "TernGrad" => Ok(GcAlgorithm::TernGrad),
            "Fp16" => Ok(GcAlgorithm::Fp16),
            "Natural" => Ok(GcAlgorithm::Natural),
            other => Err(enums::unknown(other, VARIANTS)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ctx_shared_seed_ignores_worker() {
        let a = CompressCtx {
            round: 3,
            worker: 0,
            tensor: 7,
        };
        let b = CompressCtx {
            round: 3,
            worker: 5,
            tensor: 7,
        };
        assert_eq!(a.shared_seed(), b.shared_seed());
        assert_ne!(a.worker_seed(), b.worker_seed());
    }

    #[test]
    fn ctx_seeds_differ_across_rounds_and_tensors() {
        let base = CompressCtx {
            round: 1,
            worker: 0,
            tensor: 1,
        };
        let other_round = CompressCtx { round: 2, ..base };
        let other_tensor = CompressCtx { tensor: 2, ..base };
        assert_ne!(base.shared_seed(), other_round.shared_seed());
        assert_ne!(base.shared_seed(), other_tensor.shared_seed());
    }

    #[test]
    fn algorithm_names_match_paper() {
        assert_eq!(GcAlgorithm::dgc_1pct().name(), "DGC");
        assert_eq!(GcAlgorithm::randomk_1pct().name(), "Randomk");
        assert_eq!(GcAlgorithm::EfSignSgd.name(), "EFSignSGD");
    }

    #[test]
    fn paper_suite_has_three_algorithms() {
        assert_eq!(GcAlgorithm::paper_suite().len(), 3);
    }

    #[test]
    fn sparsifier_classification() {
        assert!(GcAlgorithm::dgc_1pct().is_sparsifier());
        assert!(GcAlgorithm::randomk_1pct().is_sparsifier());
        assert!(!GcAlgorithm::EfSignSgd.is_sparsifier());
        assert!(!GcAlgorithm::Fp16.is_sparsifier());
    }

    #[test]
    fn enum_and_instance_sizes_agree() {
        let base = [
            GcAlgorithm::randomk_1pct(),
            GcAlgorithm::dgc_1pct(),
            GcAlgorithm::EfSignSgd,
            GcAlgorithm::Qsgd { levels: 127 },
            GcAlgorithm::TernGrad,
            GcAlgorithm::Fp16,
            GcAlgorithm::Natural,
        ];
        // Check every point of every knob grid, not just the defaults.
        for algo in base.iter().flat_map(|a| a.ratio_settings()) {
            let built = algo.build();
            for elems in [0usize, 1, 63, 64, 1000, 1_000_000] {
                assert_eq!(
                    algo.compressed_bytes(elems),
                    built.compressed_bytes(elems),
                    "{algo:?} at {elems}"
                );
            }
        }
    }

    #[test]
    fn with_ratio_sets_sparsifier_density_and_rejects_bad_values() {
        let algo = GcAlgorithm::dgc_1pct();
        assert_eq!(
            algo.with_ratio(0.05),
            Some(GcAlgorithm::Dgc { density: 0.05 })
        );
        assert_eq!(algo.with_ratio(1.0), Some(GcAlgorithm::Dgc { density: 1.0 }));
        assert_eq!(algo.with_ratio(0.0), None);
        assert_eq!(algo.with_ratio(1.5), None);
        assert_eq!(algo.with_ratio(f64::NAN), None);
        assert_eq!(GcAlgorithm::EfSignSgd.with_ratio(0.5), None);
        assert_eq!(GcAlgorithm::Qsgd { levels: 127 }.with_ratio(0.5), None);
    }

    #[test]
    fn with_bits_maps_widths_to_level_counts() {
        let q = GcAlgorithm::Qsgd { levels: 127 };
        assert_eq!(q.with_bits(8), Some(GcAlgorithm::Qsgd { levels: 127 }));
        assert_eq!(q.with_bits(4), Some(GcAlgorithm::Qsgd { levels: 7 }));
        assert_eq!(q.with_bits(2), Some(GcAlgorithm::Qsgd { levels: 1 }));
        assert_eq!(q.with_bits(1), None);
        assert_eq!(q.with_bits(9), None);
        assert_eq!(GcAlgorithm::TernGrad.with_bits(2), Some(GcAlgorithm::TernGrad));
        assert_eq!(GcAlgorithm::TernGrad.with_bits(3), None);
        assert_eq!(GcAlgorithm::Fp16.with_bits(8), None);
    }

    #[test]
    fn ratio_settings_are_ordered_most_to_least_aggressive() {
        let elems = 1_000_000;
        for base in [
            GcAlgorithm::randomk_1pct(),
            GcAlgorithm::dgc_1pct(),
            GcAlgorithm::Qsgd { levels: 127 },
        ] {
            let grid = base.ratio_settings();
            assert!(grid.len() >= 2, "{base:?}");
            for pair in grid.windows(2) {
                assert!(
                    pair[0].compressed_bytes(elems) < pair[1].compressed_bytes(elems),
                    "{base:?}: {pair:?}"
                );
            }
            assert!(grid.iter().all(|s| s.same_family(&base)));
            // The paper's default settings sit on their own grids.
            assert!(grid.contains(&base), "{base:?} not on its grid");
        }
        // Knobless variants degenerate to a one-point grid.
        assert_eq!(GcAlgorithm::EfSignSgd.ratio_settings(), vec![
            GcAlgorithm::EfSignSgd
        ]);
    }

    #[test]
    fn setting_labels_and_slugs_disambiguate_knobs() {
        assert_eq!(GcAlgorithm::dgc_1pct().setting_label(), "d=0.01");
        assert_eq!(GcAlgorithm::dgc_1pct().setting_slug(), "d0p01");
        assert_eq!(GcAlgorithm::Qsgd { levels: 127 }.setting_label(), "s=127");
        assert_eq!(GcAlgorithm::Qsgd { levels: 127 }.setting_slug(), "s127");
        assert_eq!(GcAlgorithm::EfSignSgd.setting_label(), "-");
        assert_eq!(GcAlgorithm::EfSignSgd.setting_slug(), "");
        // Distinct grid points get distinct slugs.
        let grid = GcAlgorithm::dgc_1pct().ratio_settings();
        let slugs: std::collections::BTreeSet<String> =
            grid.iter().map(|s| s.setting_slug()).collect();
        assert_eq!(slugs.len(), grid.len());
    }

    #[test]
    fn same_family_ignores_the_knob() {
        let a = GcAlgorithm::Dgc { density: 0.01 };
        let b = GcAlgorithm::Dgc { density: 0.05 };
        assert!(a.same_family(&b));
        assert!(!a.same_family(&GcAlgorithm::randomk_1pct()));
        assert!(!a.same_family(&GcAlgorithm::EfSignSgd));
    }

    #[test]
    fn one_percent_sparsifiers_shrink_large_tensors_by_50x() {
        let algo = GcAlgorithm::dgc_1pct();
        // (index, value) pairs double the per-kept-element cost: 1% density
        // is a 2% wire ratio.
        let r = algo.ratio(1_000_000);
        assert!((r - 0.02).abs() < 0.001, "ratio={r}");
    }

    #[test]
    fn efsignsgd_ratio_is_about_one_thirty_second() {
        let r = GcAlgorithm::EfSignSgd.ratio(1_000_000);
        assert!((r - 1.0 / 32.0).abs() < 0.001, "ratio={r}");
    }
}
