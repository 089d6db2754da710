//! Bit-identity of the fused gradient kernels against their references.
//!
//! The training step runs compress-with-error-feedback and aggregation
//! through `Compressor::accumulate_into` and the lane-friendly FP16 and
//! sign kernels. Every property here compares those paths against the
//! straightforward formulation, bit for bit (`to_bits`, so `-0.0` and
//! subnormals count; NaN only as NaN, since Rust leaves arithmetic NaN
//! payloads unspecified):
//!
//! 1. one fused error-feedback round versus compensate → compress →
//!    decompress → subtract, over several rounds, for all seven
//!    compressors;
//! 2. `aggregate::Average` (and `synchronize_masked`) versus
//!    decompress-and-add;
//! 3. `accumulate_into` overrides versus the provided default, on every
//!    accumulator the trait contract admits;
//! 4. EFSignSGD's word-at-a-time packing and decoding versus the
//!    bit-at-a-time scalar code.
//!
//! Inputs mix ordinary values with ±0, subnormals, NaN, ±inf, arbitrary
//! bit patterns and values on the binary16 boundaries.

use espresso_gc::{
    aggregate::{synchronize_masked, Average},
    algorithms::{Dgc, EfSignSgd, Fp16, Natural, Qsgd, RandomK, TernGrad},
    Accumulate, CompressCtx, CompressedTensor, Compressor, ErrorFeedback,
};
use proptest::prelude::*;

fn all_compressors() -> Vec<Box<dyn Compressor>> {
    vec![
        Box::new(RandomK::new(0.1)),
        Box::new(Dgc::new(0.1)),
        Box::new(EfSignSgd::new()),
        Box::new(Qsgd::new(127)),
        Box::new(TernGrad::new()),
        Box::new(Fp16::new()),
        Box::new(Natural::new()),
    ]
}

/// Values every kernel must treat exactly like the reference.
const EDGES: [f32; 30] = [
    0.0,
    -0.0,
    f32::MIN_POSITIVE, // smallest normal f32
    -f32::MIN_POSITIVE,
    1e-45, // smallest subnormal f32
    -1e-45,
    1.1754942e-38, // largest subnormal f32
    f32::INFINITY,
    f32::NEG_INFINITY,
    f32::NAN,
    -f32::NAN,
    f32::MAX,
    f32::MIN,
    65504.0, // largest finite half
    -65504.0,
    65519.996,    // rounds down to 65504 in binary16
    65520.0,      // rounds up to infinity in binary16
    6.1035156e-5, // 2^-14, smallest normal half
    6.1035153e-5, // just below it
    5.9604645e-8, // 2^-24, smallest subnormal half
    -5.9604645e-8,
    2.9802322e-8, // 2^-25, the flush tie
    4.4703484e-8, // 1.5 * 2^-25, flushed to zero
    8.940697e-8,  // 1.5 * 2^-24, a subnormal tie
    1.0004883,    // 1 + 2^-11, a normal tie
    1.0014648,    // 1 + 3 * 2^-11
    1.0,
    -1.0,
    0.5,
    -3.0e-3,
];

/// A gradient element: mostly ordinary magnitudes, often an edge value,
/// sometimes an arbitrary bit pattern (signalling NaNs included).
fn element() -> impl Strategy<Value = f32> {
    (0u32..8, 0u32..u32::MAX, -4.0f32..4.0).prop_map(|(kind, bits, x)| match kind {
        0 | 1 => EDGES[bits as usize % EDGES.len()],
        2 => f32::from_bits(bits),
        _ => x,
    })
}

fn tensor() -> impl Strategy<Value = Vec<f32>> {
    prop::collection::vec(element(), 0..300)
}

/// Bit patterns for comparison. Every NaN maps to one pattern: Rust does
/// not specify which NaN an arithmetic operation returns, so only the
/// NaN-ness is a property of the code. Every other pattern, `-0.0` and
/// subnormals included, must match exactly.
fn bits(v: &[f32]) -> Vec<u32> {
    v.iter()
        .map(|x| {
            if x.is_nan() {
                f32::NAN.to_bits()
            } else {
                x.to_bits()
            }
        })
        .collect()
}

/// The unfused error-feedback round: materialize the compensated
/// gradient and its reconstruction, then take the difference.
fn reference_round(
    c: &dyn Compressor,
    residual: &mut [f32],
    grad: &[f32],
    ctx: CompressCtx,
) -> CompressedTensor {
    let compensated: Vec<f32> = grad.iter().zip(&*residual).map(|(&g, &e)| g + e).collect();
    let compressed = c.compress(&compensated, ctx);
    let reconstructed = c.decompress(&compressed);
    for ((r, &c), &d) in residual.iter_mut().zip(&compensated).zip(&reconstructed) {
        *r = c - d;
    }
    compressed
}

/// Decompress-and-add aggregation.
fn reference_sum(c: &dyn Compressor, parts: &[CompressedTensor], len: usize) -> Vec<f32> {
    let mut acc = vec![0.0f32; len];
    for part in parts {
        for (a, v) in acc.iter_mut().zip(c.decompress(part)) {
            *a += v;
        }
    }
    acc
}

/// The provided `accumulate_into`, which the overrides must match.
fn reference_accumulate(c: &dyn Compressor, t: &CompressedTensor, acc: &mut [f32], op: Accumulate) {
    let dense = c.decompress(t);
    for (a, d) in acc.iter_mut().zip(dense) {
        match op {
            Accumulate::Add => *a += d,
            Accumulate::Subtract => *a -= d,
        }
    }
}

/// Quiets a signalling NaN (arithmetic never produces one).
fn quiet(x: f32) -> f32 {
    if x.is_nan() {
        f32::from_bits(x.to_bits() | 0x0040_0000)
    } else {
        x
    }
}

/// EFSignSGD as first written: one bit per iteration, indexed division.
fn scalar_signs(grad: &[f32]) -> CompressedTensor {
    let n = grad.len();
    let scale = if n == 0 {
        0.0
    } else {
        grad.iter().map(|g| g.abs()).sum::<f32>() / n as f32
    };
    let mut bits = vec![0u64; n.div_ceil(64)];
    for (i, &g) in grad.iter().enumerate() {
        if g >= 0.0 {
            bits[i / 64] |= 1u64 << (i % 64);
        }
    }
    CompressedTensor::Signs {
        len: n,
        scale,
        bits,
    }
}

fn scalar_unsigns(t: &CompressedTensor) -> Vec<f32> {
    let CompressedTensor::Signs { len, scale, bits } = t else {
        panic!("not a sign tensor");
    };
    (0..*len)
        .map(|i| {
            if bits[i / 64] >> (i % 64) & 1 == 1 {
                *scale
            } else {
                -*scale
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn fused_feedback_round_matches_the_unfused_reference(
        grads in prop::collection::vec(tensor(), 3..4),
        round in 0u64..1000,
    ) {
        let len = grads.iter().map(Vec::len).min().unwrap_or(0);
        for c in all_compressors() {
            let mut fused = ErrorFeedback::new(len);
            let mut reference = vec![0.0f32; len];
            // Several rounds, so the residual carries edge values forward.
            for (r, grad) in grads.iter().enumerate() {
                let ctx = CompressCtx { round: round + r as u64, worker: 1, tensor: 2 };
                let grad = &grad[..len];
                let got = fused.compress_with_feedback(c.as_ref(), grad, ctx);
                let want = reference_round(c.as_ref(), &mut reference, grad, ctx);
                prop_assert_eq!(
                    bits(fused.residual()),
                    bits(&reference),
                    "{} residual, round {}", c.name(), r
                );
                prop_assert_eq!(
                    bits(&c.decompress(&got)),
                    bits(&c.decompress(&want)),
                    "{} blob, round {}", c.name(), r
                );
            }
        }
    }

    #[test]
    fn aggregation_matches_decompress_and_add(
        grads in prop::collection::vec(tensor(), 1..6),
        round in 0u64..1000,
        mask_bits in 0u32..64,
    ) {
        let len = grads.iter().map(Vec::len).min().unwrap_or(0);
        let grads: Vec<&[f32]> = grads.iter().map(|g| &g[..len]).collect();
        let mut mask: Vec<bool> = (0..grads.len()).map(|w| mask_bits >> w & 1 == 1).collect();
        mask[0] = true;
        for c in all_compressors() {
            let parts: Vec<CompressedTensor> = grads
                .iter()
                .enumerate()
                .map(|(w, g)| c.compress(g, CompressCtx { round, worker: w as u64, tensor: 0 }))
                .collect();
            // One part averages to itself (scale 1, so the sum is compared
            // exactly); all parts to the reference sum, scaled alike.
            for parts in [&parts[..1], &parts[..]] {
                let mut got = vec![f32::NAN; len];
                let mut average = Average::new(&mut got);
                parts.iter().for_each(|part| average.add(c.as_ref(), part));
                average.finish();
                let mut want = reference_sum(c.as_ref(), parts, len);
                let scale = 1.0 / parts.len() as f32;
                want.iter_mut().for_each(|v| *v *= scale);
                prop_assert_eq!(bits(&got), bits(&want), "{} Average of {}", c.name(), parts.len());
            }

            // A full masked round against the same steps spelled out.
            let mut efs = vec![ErrorFeedback::new(len); grads.len()];
            let got = synchronize_masked(c.as_ref(), &grads, &mut efs, round, 3, Some(&mask));
            let mut residuals = vec![vec![0.0f32; len]; grads.len()];
            let arrived: Vec<CompressedTensor> = grads
                .iter()
                .zip(residuals.iter_mut())
                .enumerate()
                .map(|(w, (g, r))| {
                    reference_round(c.as_ref(), r, g, CompressCtx { round, worker: w as u64, tensor: 3 })
                })
                .zip(&mask)
                .filter_map(|(t, &d)| d.then_some(t))
                .collect();
            let mut want = reference_sum(c.as_ref(), &arrived, len);
            let scale = 1.0 / arrived.len() as f32;
            want.iter_mut().for_each(|v| *v *= scale);
            prop_assert_eq!(bits(&got), bits(&want), "{} synchronize_masked", c.name());
            for (ef, r) in efs.iter().zip(&residuals) {
                prop_assert_eq!(bits(ef.residual()), bits(r), "{} residuals", c.name());
            }
        }
    }

    #[test]
    fn accumulate_overrides_match_the_default(
        grad in tensor(),
        acc in tensor(),
        round in 0u64..1000,
    ) {
        let len = grad.len().min(acc.len());
        let grad = &grad[..len];
        for c in all_compressors() {
            let t = c.compress(grad, CompressCtx { round, worker: 0, tensor: 0 });
            for op in [Accumulate::Add, Accumulate::Subtract] {
                // The contract: no signalling NaN, and no -0.0 under Add.
                let start: Vec<f32> = acc[..len]
                    .iter()
                    .map(|&a| match op {
                        Accumulate::Add if a == 0.0 => 0.0,
                        _ => quiet(a),
                    })
                    .collect();
                let mut got = start.clone();
                c.accumulate_into(&t, &mut got, op);
                let mut want = start;
                reference_accumulate(c.as_ref(), &t, &mut want, op);
                prop_assert_eq!(bits(&got), bits(&want), "{} {:?}", c.name(), op);
            }
        }
    }

    #[test]
    fn sign_words_match_the_scalar_packing(grad in tensor()) {
        let c = EfSignSgd::new();
        let packed = c.compress(&grad, CompressCtx::default());
        let scalar = scalar_signs(&grad);
        match (&packed, &scalar) {
            (
                CompressedTensor::Signs { len, scale, bits: words },
                CompressedTensor::Signs { len: want_len, scale: want_scale, bits: want_words },
            ) => {
                prop_assert_eq!(len, want_len);
                prop_assert_eq!(bits(&[*scale]), bits(&[*want_scale]));
                prop_assert_eq!(words, want_words);
            }
            other => prop_assert!(false, "expected sign tensors, got {:?}", other),
        }
        prop_assert_eq!(bits(&c.decompress(&packed)), bits(&scalar_unsigns(&scalar)));
    }
}

#[test]
fn dgc_skip_is_exact_for_a_negative_zero_residual() {
    // Subtracting the implicit +0.0 of an unselected element must leave a
    // -0.0 residual alone, exactly as the dense subtraction does.
    let c = Dgc::new(0.5);
    let t = c.compress(&[4.0, 1.0], CompressCtx::default());
    let mut acc = [-0.0f32, -0.0];
    c.accumulate_into(&t, &mut acc, Accumulate::Subtract);
    let mut want = [-0.0f32, -0.0];
    reference_accumulate(&c, &t, &mut want, Accumulate::Subtract);
    assert_eq!(bits(&acc), bits(&want));
    assert!(acc[1].is_sign_negative());
}

#[test]
#[should_panic(expected = "mismatched tensor lengths")]
fn accumulate_rejects_a_length_mismatch() {
    let c = Fp16::new();
    let t = c.compress(&[1.0, 2.0], CompressCtx::default());
    c.accumulate_into(&t, &mut [0.0], Accumulate::Add);
}
