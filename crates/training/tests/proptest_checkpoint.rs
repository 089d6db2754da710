//! Property-based tests of the checkpoint file format (v3: JSON metadata
//! plus a raw little-endian `f32` tensor section under a Lane64 checksum;
//! v2 files, the same payload under FNV-1a 64, still decode).
//!
//! Three properties back the fault-tolerance headline guarantee:
//!
//! 1. **Bitwise round-trip** — for arbitrary trainer states,
//!    `encode_file -> decode_file` reproduces every field exactly,
//!    including the bit patterns of all `f32` weights and residuals —
//!    `-0.0`, subnormals, infinities and NaN payloads too, since the
//!    tensor section stores raw bits.
//! 2. **Total corruption detection** — substituting any single byte
//!    anywhere in an encoded checkpoint, truncating it, or appending to it
//!    makes `decode_file` return `CheckpointError::Corrupt` (never a
//!    panic, never a silently wrong state). Payload substitutions are
//!    caught by the Lane64 checksum (each round is a bijection in the
//!    lane state and injective in the word, so a change confined to one
//!    word cannot cancel), and header bytes by the canonical-header check or
//!    length/checksum mismatch. Positions are sampled over the whole file
//!    and, separately, inside the tensor section and the `len=` / `meta=`
//!    header values.
//! 3. **Consistent metadata** — a file whose header and checksum are valid
//!    but whose metadata element counts disagree with the tensor section
//!    is `Corrupt`, without a panic or an allocation sized from the bad
//!    count.

use espresso_cluster::{ClusterHealth, LinkState, Membership};
use espresso_gc::{ErrorFeedback, GcAlgorithm};
use espresso_json::{fnv1a64, lane64, Json};
use espresso_training::checkpoint::{decode_file, encode_file, CheckpointError, MonitorState, TrainerState};
use espresso_training::distributed::{SyncMode, TrainLog};
use espresso_training::optimizer::Optimizer;
use proptest::prelude::*;
use rand::{rngs::StdRng, Rng, SeedableRng};

/// A finite, non-NaN f32 derived from a seeded RNG: mixes magnitudes from
/// subnormal-ish to large so shortest-round-trip rendering is stressed.
fn finite_f32(rng: &mut StdRng) -> f32 {
    let exponent = rng.random_range(0u32..60) as i32 - 30;
    let mantissa: f32 = rng.random_range(-1.0..1.0);
    mantissa * (exponent as f32).exp2()
}

fn tensor(rng: &mut StdRng, len: usize) -> Vec<f32> {
    (0..len).map(|_| finite_f32(rng)).collect()
}

/// Builds an arbitrary-but-consistent trainer state from a seed: random
/// shapes, random optimizer (with velocity for momentum), a random subset
/// of lost workers, random health, random monitor/fallback bookkeeping.
fn arbitrary_state(seed: u64) -> TrainerState {
    let mut rng = StdRng::seed_from_u64(seed);
    let dims = rng.random_range(2usize..6);
    let hidden = rng.random_range(2usize..8);
    let classes = rng.random_range(2usize..5);
    let shapes = [dims * hidden, hidden, hidden * classes, classes];
    let params: Vec<Vec<f32>> = shapes.iter().map(|&n| tensor(&mut rng, n)).collect();
    let optimizer = if rng.random_bool(0.5) {
        Optimizer::sgd(rng.random_range(0.01f32..1.0))
    } else {
        let mut momentum =
            Optimizer::momentum(rng.random_range(0.01f32..1.0), rng.random_range(0.1f32..0.99));
        // Exercise non-empty velocity buffers.
        if let Optimizer::Momentum { velocity, .. } = &mut momentum {
            *velocity = shapes.iter().map(|&n| tensor(&mut rng, n)).collect();
        }
        momentum
    };
    let total = rng.random_range(1usize..5);
    let mut membership = Membership::new(total);
    for worker in 0..total {
        if membership.alive_count() > 1 && rng.random_bool(0.3) {
            membership.lose_worker(worker).unwrap();
        }
    }
    if rng.random_bool(0.4) {
        membership.set_health(ClusterHealth {
            inter: LinkState::Degraded {
                factor: rng.random_range(1.0f64..4.0),
            },
            intra: LinkState::Nominal,
        });
    }
    let ef: Vec<Vec<ErrorFeedback>> = (0..membership.alive_count())
        .map(|_| {
            shapes
                .iter()
                .map(|&n| ErrorFeedback::from_residual(tensor(&mut rng, n)))
                .collect()
        })
        .collect();
    let mode = match rng.random_range(0u32..4) {
        0 => SyncMode::Fp32,
        1 => SyncMode::Compressed(GcAlgorithm::RandomK {
            density: rng.random_range(0.001..0.5),
        }),
        2 => SyncMode::Compressed(GcAlgorithm::EfSignSgd),
        _ => SyncMode::Compressed(GcAlgorithm::Qsgd {
            levels: rng.random_range(3..255),
        }),
    };
    let evals = rng.random_range(0usize..4);
    let log = TrainLog {
        loss: (0..evals).map(|_| finite_f32(&mut rng).abs()).collect(),
        accuracy: (0..evals).map(|_| rng.random_range(0.0f64..1.0)).collect(),
    };
    let monitor = rng.random_bool(0.7).then(|| MonitorState {
        predicted: rng.random_range(1e-4f64..1.0),
        divergence: rng.random_range(0.0f64..2.0),
        samples: rng.random_range(0usize..100),
    });
    let controller = rng.random_bool(0.5).then(|| {
        let mut c = espresso_adapt::RatioController::new(
            GcAlgorithm::Dgc {
                density: rng.random_range(0.001..0.2),
            },
            shapes.len(),
            espresso_adapt::ControllerConfig {
                low: rng.random_range(0.1..0.5),
                high: rng.random_range(0.6..0.95),
                patience: rng.random_range(1u32..4),
                cooldown: rng.random_range(0u32..4),
            },
        );
        // Accumulate some non-trivial streak/cooldown/level state.
        for _ in 0..rng.random_range(0usize..6) {
            let errs: Vec<f64> = (0..shapes.len())
                .map(|_| rng.random_range(0.0f64..1.0))
                .collect();
            c.observe(&errs);
        }
        c
    });
    TrainerState {
        step: rng.random_range(0usize..10_000),
        dims,
        hidden,
        classes,
        params,
        optimizer,
        ef,
        mode,
        log,
        membership,
        monitor,
        fallback_active: rng.random_bool(0.3),
        healthy_streak: rng.random_range(0usize..10),
        redecide_attempted: rng.random_bool(0.5),
        fallback_trips: rng.random_range(0usize..5),
        replans: rng.random_range(0usize..20),
        controller,
    }
}

/// Every tensor element's bit pattern, in the v2 section's order:
/// `params`, momentum velocity, then `ef` row by row.
fn tensor_bits(state: &TrainerState) -> Vec<u32> {
    let velocity: &[Vec<f32>] = match &state.optimizer {
        Optimizer::Momentum { velocity, .. } => velocity,
        Optimizer::Sgd { .. } => &[],
    };
    let residuals = state.ef.iter().flatten().map(|e| e.residual());
    state
        .params
        .iter()
        .chain(velocity)
        .map(Vec::as_slice)
        .chain(residuals)
        .flatten()
        .map(|v| v.to_bits())
        .collect()
}

/// Values JSON cannot carry and decimal round trips could blur: signed
/// zero, subnormals, infinities and NaNs with distinct payloads.
const SPECIAL_BITS: [u32; 10] = [
    0x8000_0000, // -0.0
    0x0000_0001, // smallest subnormal
    0x807f_ffff, // largest negative subnormal
    0x7f80_0000, // +inf
    0xff80_0000, // -inf
    0x7fc0_0000, // canonical quiet NaN
    0x7fc0_1234, // quiet NaN with a payload
    0x7f80_0001, // signalling NaN
    0xffbf_ffff, // negative signalling NaN, full payload
    0xffff_ffff, // negative quiet NaN, full payload
];

/// Overwrites random elements of every tensor of `state` with special
/// values.
fn sprinkle_specials(state: &mut TrainerState, rng: &mut StdRng) {
    let sprinkle = |tensor: &mut Vec<f32>, rng: &mut StdRng| {
        for _ in 0..3 {
            if !tensor.is_empty() {
                let at = rng.random_range(0..tensor.len());
                tensor[at] = f32::from_bits(SPECIAL_BITS[rng.random_range(0..SPECIAL_BITS.len())]);
            }
        }
    };
    for tensor in &mut state.params {
        sprinkle(tensor, rng);
    }
    if let Optimizer::Momentum { velocity, .. } = &mut state.optimizer {
        for tensor in velocity {
            sprinkle(tensor, rng);
        }
    }
    for row in &mut state.ef {
        for ef in row.iter_mut() {
            let mut residual = ef.residual().to_vec();
            sprinkle(&mut residual, rng);
            *ef = ErrorFeedback::from_residual(residual);
        }
    }
}

/// The parts of an encoded v2/v3 file: header line length (newline
/// included), metadata text, and tensor section.
fn split_file(file: &[u8]) -> (usize, String, Vec<u8>) {
    let newline = file.iter().position(|&b| b == b'\n').expect("header line");
    let header = std::str::from_utf8(&file[..newline]).expect("UTF-8 header");
    let meta_len: usize = header
        .split(' ')
        .find_map(|f| f.strip_prefix("meta="))
        .expect("meta field")
        .parse()
        .expect("decimal meta");
    let payload = &file[newline + 1..];
    let meta = std::str::from_utf8(&payload[..meta_len]).expect("UTF-8 metadata");
    (newline + 1, meta.to_string(), payload[meta_len..].to_vec())
}

/// Reassembles a file of format `version` with a valid header and
/// checksum around arbitrary metadata and tensor section.
fn join(version: u32, meta: &str, section: &[u8]) -> Vec<u8> {
    let mut payload = meta.as_bytes().to_vec();
    payload.extend_from_slice(section);
    let sum = match version {
        2 => format!("fnv1a64={:016x}", fnv1a64(&payload)),
        _ => format!("lane64={:016x}", lane64(&payload)),
    };
    let mut file = format!(
        "ESPRESSO-CKPT v{version} len={} meta={} {sum}\n",
        payload.len(),
        meta.len(),
    )
    .into_bytes();
    file.extend_from_slice(&payload);
    file
}

/// A v2 file, as older builds wrote it.
fn join_v2(meta: &str, section: &[u8]) -> Vec<u8> {
    join(2, meta, section)
}

/// A v3 file, the format `encode_file` writes.
fn join_v3(meta: &str, section: &[u8]) -> Vec<u8> {
    join(3, meta, section)
}

/// Byte range of the value of header field `key` (`len`, `meta`).
fn header_value(file: &[u8], key: &str) -> std::ops::Range<usize> {
    let newline = file.iter().position(|&b| b == b'\n').expect("header line");
    let header = std::str::from_utf8(&file[..newline]).expect("UTF-8 header");
    let start = header.find(&format!(" {key}=")).expect("field present") + key.len() + 2;
    let end = start + header[start..].find(' ').expect("a field follows");
    start..end
}

/// Amounts a `params` count is moved by: off by a few, fractional, too
/// large to allocate, beyond `usize` (rejected), and exactly 2^64, which
/// saturates to `usize::MAX` so that summing the counts overflows.
const COUNT_DELTAS: [f64; 9] = [
    -3.0,
    -1.0,
    1.0,
    2.0,
    0.5,
    1e12,
    4.6e18,
    1e300,
    18_446_744_073_709_551_616.0,
];

fn doc_field<'a>(doc: &'a mut Json, key: &str) -> Option<&'a mut Json> {
    match doc {
        Json::Obj(pairs) => pairs.iter_mut().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

/// Asserts that `bytes` decodes to `CheckpointError::Corrupt`.
fn assert_corrupt(bytes: &[u8], what: &str) {
    match decode_file(bytes) {
        Err(CheckpointError::Corrupt { .. }) => {}
        Err(other) => panic!("{what}: wrong error kind: {other}"),
        Ok(decoded) => panic!("{what} went undetected (decoded step {})", decoded.step),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn encode_decode_is_bit_identical(seed in 0u64..100_000) {
        let state = arbitrary_state(seed);
        let decoded = decode_file(&encode_file(&state)).expect("intact file decodes");
        // Structural equality first (clear failure messages)...
        prop_assert_eq!(&decoded, &state);
        // ...then the exact f32 bit patterns, which PartialEq alone would
        // conflate for -0.0 vs 0.0.
        for (a, b) in state.params.iter().flatten().zip(decoded.params.iter().flatten()) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
        for (wa, wb) in state.ef.iter().zip(decoded.ef.iter()) {
            for (ta, tb) in wa.iter().zip(wb.iter()) {
                for (a, b) in ta.residual().iter().zip(tb.residual().iter()) {
                    prop_assert_eq!(a.to_bits(), b.to_bits());
                }
            }
        }
        prop_assert_eq!(decoded.fingerprint(), state.fingerprint());
    }

    #[test]
    fn any_single_flipped_byte_is_detected(seed in 0u64..10_000, flip_seed in 0u64..10_000) {
        let state = arbitrary_state(seed);
        let good = encode_file(&state);
        let mut rng = StdRng::seed_from_u64(flip_seed);
        // A handful of random positions per case; the dedicated unit test
        // in `checkpoint.rs` sweeps every position of a small file.
        for _ in 0..16 {
            let pos = rng.random_range(0..good.len());
            let mut bad = good.clone();
            // Substitute with a *different* byte (equal-length corruption,
            // the case only the checksum can catch).
            bad[pos] = bad[pos].wrapping_add(rng.random_range(1u8..=255));
            match decode_file(&bad) {
                Err(CheckpointError::Corrupt { .. }) => {}
                Err(other) => prop_assert!(false, "wrong error kind at byte {pos}: {other}"),
                Ok(decoded) => prop_assert!(
                    false,
                    "corruption at byte {} of {} went undetected (decoded step {})",
                    pos,
                    good.len(),
                    decoded.step
                ),
            }
        }
    }

    #[test]
    fn truncation_at_any_point_is_detected(seed in 0u64..10_000, cut_ppm in 0u32..1_000_000) {
        let state = arbitrary_state(seed);
        let good = encode_file(&state);
        let cut = (good.len() as u64 * cut_ppm as u64 / 1_000_000) as usize;
        let result = decode_file(&good[..cut]);
        prop_assert!(
            matches!(result, Err(CheckpointError::Corrupt { .. })),
            "truncation to {cut} of {} bytes went undetected",
            good.len()
        );
    }

    #[test]
    fn special_floats_round_trip_by_bit_pattern(seed in 0u64..100_000) {
        let mut state = arbitrary_state(seed);
        sprinkle_specials(&mut state, &mut StdRng::seed_from_u64(seed ^ 0x5bec));
        let decoded = decode_file(&encode_file(&state)).expect("intact file decodes");
        // PartialEq cannot compare NaNs; bit patterns can.
        prop_assert_eq!(tensor_bits(&decoded), tensor_bits(&state));
        // The fingerprint covers every other field.
        prop_assert_eq!(decoded.fingerprint(), state.fingerprint());
    }

    #[test]
    fn substitutions_in_section_and_header_values_are_detected(
        seed in 0u64..10_000,
        flip_seed in 0u64..10_000,
    ) {
        let state = arbitrary_state(seed);
        let good = encode_file(&state);
        let (header_len, meta, section) = split_file(&good);
        let section_start = header_len + meta.len();
        prop_assert_eq!(section.len(), 4 * tensor_bits(&state).len());
        let regions = [
            ("tensor section", section_start..good.len()),
            ("len= value", header_value(&good, "len")),
            ("meta= value", header_value(&good, "meta")),
        ];
        let mut rng = StdRng::seed_from_u64(flip_seed);
        for (name, range) in regions {
            for _ in 0..6 {
                let pos = rng.random_range(range.clone());
                let mut bad = good.clone();
                bad[pos] = bad[pos].wrapping_add(rng.random_range(1u8..=255));
                assert_corrupt(&bad, &format!("substitution at byte {pos} ({name})"));
            }
        }
    }

    #[test]
    fn truncated_or_extended_sections_are_detected(
        seed in 0u64..10_000,
        cut in 1usize..64,
        extra in prop::collection::vec(0u8..=255, 1..16),
    ) {
        let good = encode_file(&arbitrary_state(seed));
        let (header_len, meta, _) = split_file(&good);
        let section_start = header_len + meta.len();
        // Cuts inside the tensor section, incl. whole-f32 ones.
        let keep = good.len().saturating_sub(cut).max(section_start);
        if keep < good.len() {
            assert_corrupt(&good[..keep], &format!("truncation to {keep} bytes"));
        }
        let mut longer = good.clone();
        longer.extend_from_slice(&extra);
        assert_corrupt(&longer, &format!("{} trailing bytes", extra.len()));
    }

    #[test]
    fn counts_disagreeing_with_the_section_are_corrupt(
        seed in 0u64..10_000,
        which in 0usize..64,
        delta in 0usize..COUNT_DELTAS.len(),
    ) {
        let state = arbitrary_state(seed);
        let good = encode_file(&state);
        let (_, meta, section) = split_file(&good);
        // Sanity: the reassembled file is the encoded one, and the same
        // payload under a v2 header still decodes to the same state.
        prop_assert!(join_v3(&meta, &section) == good);
        prop_assert_eq!(decode_file(&join_v2(&meta, &section)).ok(), Some(state));

        // Change one of the four `params` counts by a small or a huge
        // amount (a huge count must not size an allocation).
        let mut doc = Json::parse(&meta).expect("metadata parses");
        let Some(Json::Arr(params)) = doc_field(&mut doc, "params") else {
            panic!("params is not an array");
        };
        let slot = &mut params[which % 4];
        let Json::Num(count) = *slot else {
            panic!("count is not a number");
        };
        let changed = count + COUNT_DELTAS[delta];
        if changed != count {
            *slot = Json::Num(changed);
            assert_corrupt(&join_v3(&doc.render(), &section), &format!("count {count} -> {changed}"));
        }

        // Or keep the metadata and grow / shrink the section by whole f32s.
        let words = 1 + which % 4;
        let mut grown = section.clone();
        grown.extend(std::iter::repeat_n(0u8, 4 * words));
        assert_corrupt(&join_v3(&meta, &grown), "a section longer than the counts");
        if section.len() >= 4 * words {
            let shrunk = &section[..section.len() - 4 * words];
            assert_corrupt(&join_v3(&meta, shrunk), "a section shorter than the counts");
        }
    }
}
