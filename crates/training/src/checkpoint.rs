//! Checkpoint/restore of the full trainer state.
//!
//! A checkpoint captures everything the fault-tolerant runtime needs to
//! resume *bit-identically*: model weights, optimizer state, the
//! per-worker error-feedback grid, the telemetry log, cluster membership,
//! and the degradation-monitor / fallback bookkeeping.
//!
//! # File format (v3)
//!
//! A framed file of [`espresso_json::durable`]:
//!
//! ```text
//! ESPRESSO-CKPT v3 len=<N> meta=<M> lane64=<16 hex digits>\n
//! <M bytes of compact JSON metadata><N - M bytes of tensor section>
//! ```
//!
//! The metadata is the trainer-state document with every `f32` tensor —
//! the weights, the momentum velocity and the error-feedback residuals —
//! replaced by its element count. The tensor section holds those tensors'
//! raw little-endian `f32` bit patterns back to back, in document order:
//! `params`, then `velocity`, then `ef` row by row. Raw bits make the
//! round trip exact for every value, `-0.0`, subnormals and NaN payloads
//! included, at 4 bytes per element; the error-feedback grid alone holds
//! one model's worth of floats per surviving worker. This payload is the
//! v2 payload byte for byte, its metadata `"version":2` included; v3
//! changes only the header's checksum.
//!
//! The checksum is [`espresso_json::lane64`]: eight lanes of `u64` words
//! that run in parallel in the pipeline, where FNV-1a is one serial chain
//! of about four cycles per byte, and that still change under every
//! single-byte substitution. The framing and its checks are
//! [`espresso_json::durable`]'s. Once they pass, decoding checks that the
//! metadata's element counts sum to exactly `(N - M) / 4` before any
//! tensor is allocated, so an inconsistent file is reported as corrupt
//! and never sizes an allocation.
//!
//! [`TrainerState::fingerprint`] is FNV-1a 64 of the same payload, as it
//! was under v2. It is no longer a header field: it is the comparator of
//! the bitwise-resume guarantee and stays fixed across format changes.
//!
//! # v2 and v1 read paths
//!
//! [`decode_file`] dispatches on the magic, so checkpoints already on disk
//! resume; [`encode_file`] and [`CheckpointStore::save`] write only v3.
//! v2 (`ESPRESSO-CKPT v2 len=<N> meta=<M> fnv1a64=<hex>\n`) carries the
//! same payload under an FNV-1a 64 checksum. v1 (`ESPRESSO-CKPT v1
//! len=<N> fnv1a64=<hex>\n`) is followed by the whole state as one JSON
//! document (the [`ToJson`] form of [`TrainerState`]), every float as a
//! shortest-round-trip decimal.
//!
//! # Atomicity and rotation
//!
//! [`CheckpointStore`] is the durable [`Store`] under the stem
//! `checkpoint` (the `.json` names predate v2 and are kept so that a v1
//! directory still resumes), with the guarantees that module states: a
//! process crash (`kill -9`) at any point leaves an intact generation; a
//! power loss or kernel crash may not, since nothing is fsynced.

use std::io::{self, BufRead};
use std::path::PathBuf;

use espresso_cluster::Membership;
use espresso_gc::{ErrorFeedback, GcAlgorithm};
use espresso_json::durable::{self, corrupt, Format, Frame, Store, Sum};
use espresso_json::{enums, fnv1a64, fnv1a64_extend, DecodeError, FromJson, Json, ToJson};

use crate::{distributed::SyncMode, distributed::TrainLog, mlp::Mlp, optimizer::Optimizer};

/// Checkpointed [`espresso::DegradationMonitor`] state.
#[derive(Debug, Clone, PartialEq)]
pub struct MonitorState {
    /// Predicted iteration time the monitor is armed with.
    pub predicted: f64,
    /// Smoothed relative divergence accumulated so far.
    pub divergence: f64,
    /// Observations consumed since the last rebase.
    pub samples: usize,
}

/// The complete state of an interrupted training run.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainerState {
    /// Next step to execute (steps `0..step` are already applied).
    pub step: usize,
    /// Model input dimensionality.
    pub dims: usize,
    /// Model hidden width.
    pub hidden: usize,
    /// Model output classes.
    pub classes: usize,
    /// Model parameter tensors `[w1, b1, w2, b2]`.
    pub params: Vec<Vec<f32>>,
    /// Optimizer, including velocity buffers.
    pub optimizer: Optimizer,
    /// Per-worker (outer), per-tensor (inner) error-feedback residuals,
    /// one row per *surviving* worker.
    pub ef: Vec<Vec<ErrorFeedback>>,
    /// The configured synchronization mode (the mode compressed training
    /// returns to after a fallback recovery).
    pub mode: SyncMode,
    /// Telemetry accumulated so far.
    pub log: TrainLog,
    /// Cluster membership (lost workers + observed fabric health).
    pub membership: Membership,
    /// Degradation-monitor state, when the runtime is monitoring.
    pub monitor: Option<MonitorState>,
    /// Whether the FP32 fallback is currently engaged.
    pub fallback_active: bool,
    /// Consecutive healthy observations while in fallback (recovery
    /// hysteresis progress).
    pub healthy_streak: usize,
    /// Whether a `Redecide` verdict already triggered a re-plan since the
    /// last monitor rebase (one re-decision attempt per regime).
    pub redecide_attempted: bool,
    /// Total fallback engagements so far.
    pub fallback_trips: usize,
    /// Total online re-plans so far.
    pub replans: usize,
    /// Layerwise ratio-adaptation controller, when the runtime runs with
    /// adaptive compression enabled.
    pub controller: Option<espresso_adapt::RatioController>,
}

impl TrainerState {
    /// Reconstructs the model this state describes.
    pub fn model(&self) -> Mlp {
        Mlp::from_params(self.dims, self.hidden, self.classes, self.params.clone())
    }

    /// FNV-1a 64 over the checkpoint payload (the same bytes under v2
    /// and v3), computed without assembling the file. The payload holds
    /// every field, and every tensor as raw bits, so two states are
    /// bit-identical iff their fingerprints match (the comparator of the
    /// bitwise-resume guarantee).
    pub fn fingerprint(&self) -> u64 {
        let mut hash = fnv1a64(self.meta().as_bytes());
        self.section(&mut |bytes| hash = fnv1a64_extend(hash, bytes));
        hash
    }

    /// FNV-1a 64 fingerprint of the weight tensors alone (stable across
    /// runtime-bookkeeping differences such as event counters).
    pub fn weights_fingerprint(&self) -> u64 {
        weights_fingerprint(&self.params)
    }

    /// Every `f32` tensor in document order — `params`, momentum
    /// `velocity`, then `ef` row by row — which is the order of the
    /// tensor section and of the tensor callbacks in
    /// [`TrainerState::from_document`].
    fn tensors(&self) -> impl Iterator<Item = &[f32]> {
        let velocity: &[Vec<f32>] = match &self.optimizer {
            Optimizer::Momentum { velocity, .. } => velocity,
            Optimizer::Sgd { .. } => &[],
        };
        self.params
            .iter()
            .chain(velocity)
            .map(Vec::as_slice)
            .chain(self.ef.iter().flatten().map(ErrorFeedback::residual))
    }

    /// The v2 metadata: the state document with tensors as element counts.
    fn meta(&self) -> String {
        self.document(2, element_count).render()
    }

    /// Feeds the tensor section to `sink`, one encoding block at a time.
    fn section(&self, sink: &mut dyn FnMut(&[u8])) {
        for tensor in self.tensors() {
            put_le(tensor, sink);
        }
    }

    /// The state as a document of format `version`, each tensor rendered
    /// by `tensor`.
    fn document(&self, version: u32, tensor: TensorOut) -> Json {
        Json::obj(vec![
            ("version", Json::Num(f64::from(version))),
            ("step", Json::Num(self.step as f64)),
            ("dims", Json::Num(self.dims as f64)),
            ("hidden", Json::Num(self.hidden as f64)),
            ("classes", Json::Num(self.classes as f64)),
            ("params", tensor_list(&self.params, tensor)),
            ("optimizer", optimizer_document(&self.optimizer, tensor)),
            (
                "ef",
                Json::Arr(
                    self.ef
                        .iter()
                        .map(|row| Json::Arr(row.iter().map(|e| tensor(e.residual())).collect()))
                        .collect(),
                ),
            ),
            ("mode", self.mode.to_json()),
            ("log", self.log.to_json()),
            ("membership", self.membership.to_json()),
            ("monitor", self.monitor.to_json()),
            ("fallback_active", Json::Bool(self.fallback_active)),
            ("healthy_streak", Json::Num(self.healthy_streak as f64)),
            ("redecide_attempted", Json::Bool(self.redecide_attempted)),
            ("fallback_trips", Json::Num(self.fallback_trips as f64)),
            ("replans", Json::Num(self.replans as f64)),
            ("controller", self.controller.to_json()),
        ])
    }

    /// Decodes a document of format `version`, reading each tensor with
    /// `tensor` in document order (the struct literal evaluates its fields
    /// in the order written: `params`, `optimizer`, `ef`).
    fn from_document(v: &Json, version: u32, tensor: &mut TensorIn) -> Result<Self, DecodeError> {
        let found: u32 = v.req("version")?;
        if found != version {
            return Err(DecodeError::new(format!(
                "unsupported checkpoint version {found} (expected {version})"
            )));
        }
        Ok(Self {
            step: v.req("step")?,
            dims: v.req("dims")?,
            hidden: v.req("hidden")?,
            classes: v.req("classes")?,
            params: list(field(v, "params")?, &mut *tensor).map_err(|e| e.at("params"))?,
            optimizer: optimizer_from_document(field(v, "optimizer")?, tensor)
                .map_err(|e| e.at("optimizer"))?,
            ef: list(field(v, "ef")?, |row| {
                list(row, |t| tensor(t).map(ErrorFeedback::from_residual))
            })
            .map_err(|e| e.at("ef"))?,
            mode: v.req("mode")?,
            log: v.req("log")?,
            membership: v.req("membership")?,
            monitor: v.opt("monitor")?,
            fallback_active: v.req("fallback_active")?,
            healthy_streak: v.req("healthy_streak")?,
            redecide_attempted: v.req("redecide_attempted")?,
            fallback_trips: v.req("fallback_trips")?,
            replans: v.req("replans")?,
            controller: v.opt("controller")?,
        })
    }
}

/// FNV-1a 64 over the exact little-endian bit patterns of `params`.
pub fn weights_fingerprint(params: &[Vec<f32>]) -> u64 {
    let mut hash = fnv1a64(&[]);
    for tensor in params {
        put_le(tensor, &mut |bytes| hash = fnv1a64_extend(hash, bytes));
    }
    hash
}

/// Feeds the little-endian bit patterns of `tensor` to `sink`, one
/// fixed-size block at a time.
fn put_le(tensor: &[f32], sink: &mut dyn FnMut(&[u8])) {
    let mut block = [0u8; 4096];
    for chunk in tensor.chunks(block.len() / 4) {
        for (out, v) in block.chunks_exact_mut(4).zip(chunk) {
            out.copy_from_slice(&v.to_bits().to_le_bytes());
        }
        sink(&block[..4 * chunk.len()]);
    }
}

/// Renders one `f32` tensor inside a state document.
type TensorOut = fn(&[f32]) -> Json;

/// Reads one `f32` tensor back out of a state document.
type TensorIn<'a> = dyn FnMut(&Json) -> Result<Vec<f32>, DecodeError> + 'a;

/// v1 tensors: inline arrays of numbers.
fn inline(tensor: &[f32]) -> Json {
    Json::Arr(tensor.iter().map(|&v| Json::Num(f64::from(v))).collect())
}

/// v2 tensors: the element count; the values live in the tensor section.
fn element_count(tensor: &[f32]) -> Json {
    Json::Num(tensor.len() as f64)
}

fn tensor_list(tensors: &[Vec<f32>], tensor: TensorOut) -> Json {
    Json::Arr(tensors.iter().map(|t| tensor(t)).collect())
}

/// Required object field `key`.
fn field<'a>(v: &'a Json, key: &str) -> Result<&'a Json, DecodeError> {
    v.get(key)
        .ok_or_else(|| DecodeError::new("missing required field").at(key))
}

/// Decodes an array item by item, with `[i]` path context.
fn list<T>(
    v: &Json,
    mut item: impl FnMut(&Json) -> Result<T, DecodeError>,
) -> Result<Vec<T>, DecodeError> {
    match v {
        Json::Arr(items) => items
            .iter()
            .enumerate()
            .map(|(i, x)| item(x).map_err(|e| e.at(&format!("[{i}]"))))
            .collect(),
        other => Err(DecodeError::new(format!(
            "expected array, found {}",
            other.type_name()
        ))),
    }
}

fn optimizer_document(optimizer: &Optimizer, tensor: TensorOut) -> Json {
    match optimizer {
        Optimizer::Sgd { lr } => {
            enums::tagged("Sgd", Json::obj(vec![("lr", Json::Num(f64::from(*lr)))]))
        }
        Optimizer::Momentum {
            lr,
            momentum,
            velocity,
        } => enums::tagged(
            "Momentum",
            Json::obj(vec![
                ("lr", Json::Num(f64::from(*lr))),
                ("momentum", Json::Num(f64::from(*momentum))),
                ("velocity", tensor_list(velocity, tensor)),
            ]),
        ),
    }
}

fn optimizer_from_document(v: &Json, tensor: &mut TensorIn) -> Result<Optimizer, DecodeError> {
    let (name, payload) = enums::variant(v)?;
    match name {
        "Sgd" => Ok(Optimizer::Sgd {
            lr: payload.req("lr").map_err(|e| e.at("Sgd"))?,
        }),
        "Momentum" => Ok(Optimizer::Momentum {
            lr: payload.req("lr").map_err(|e| e.at("Momentum"))?,
            momentum: payload.req("momentum").map_err(|e| e.at("Momentum"))?,
            velocity: field(payload, "velocity")
                .and_then(|v| list(v, tensor).map_err(|e| e.at("velocity")))
                .map_err(|e| e.at("Momentum"))?,
        }),
        other => Err(enums::unknown(other, &["Sgd", "Momentum"])),
    }
}

/// The v1 tensor reader: a JSON array of numbers.
fn read_inline(v: &Json) -> Result<Vec<f32>, DecodeError> {
    Vec::from_json(v)
}

impl ToJson for SyncMode {
    fn to_json(&self) -> Json {
        match self {
            SyncMode::Fp32 => Json::Str("Fp32".into()),
            SyncMode::Compressed(algo) => enums::tagged("Compressed", algo.to_json()),
        }
    }
}

impl FromJson for SyncMode {
    fn from_json(v: &Json) -> Result<Self, DecodeError> {
        let (name, payload) = enums::variant(v)?;
        match name {
            "Fp32" => Ok(SyncMode::Fp32),
            "Compressed" => Ok(SyncMode::Compressed(
                GcAlgorithm::from_json(payload).map_err(|e| e.at("Compressed"))?,
            )),
            other => Err(enums::unknown(other, &["Fp32", "Compressed"])),
        }
    }
}

impl ToJson for TrainLog {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("loss", self.loss.to_json()),
            ("accuracy", self.accuracy.to_json()),
        ])
    }
}

impl FromJson for TrainLog {
    fn from_json(v: &Json) -> Result<Self, DecodeError> {
        Ok(Self {
            loss: v.req("loss")?,
            accuracy: v.req("accuracy")?,
        })
    }
}

impl ToJson for MonitorState {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("predicted", Json::Num(self.predicted)),
            ("divergence", Json::Num(self.divergence)),
            ("samples", Json::Num(self.samples as f64)),
        ])
    }
}

impl FromJson for MonitorState {
    fn from_json(v: &Json) -> Result<Self, DecodeError> {
        Ok(Self {
            predicted: v.req("predicted")?,
            divergence: v.req("divergence")?,
            samples: v.req("samples")?,
        })
    }
}

/// The v1 document: the whole state, tensors inline.
impl ToJson for TrainerState {
    fn to_json(&self) -> Json {
        self.document(1, inline)
    }
}

impl FromJson for TrainerState {
    fn from_json(v: &Json) -> Result<Self, DecodeError> {
        Self::from_document(v, 1, &mut read_inline)
    }
}

/// Why a checkpoint could not be saved or loaded: the durable layer's
/// error, `Corrupt` when a file is torn or corrupt or its payload does
/// not decode.
pub type CheckpointError = durable::Error;

const V1: Format = Format {
    magic: "ESPRESSO-CKPT v1",
    meta: false,
    sum: Sum::Fnv1a64,
};
const V2: Format = Format {
    magic: "ESPRESSO-CKPT v2",
    meta: true,
    sum: Sum::Fnv1a64,
};
const V3: Format = Format {
    magic: "ESPRESSO-CKPT v3",
    meta: true,
    sum: Sum::Lane64,
};

/// The formats a checkpoint is read in; the first, v3, is the one written.
const FORMATS: &[Format] = &[V3, V2, V1];

/// Renders `state` in the on-disk checkpoint format (v3 header + payload):
/// the bytes [`CheckpointStore::save`] streams into its file.
pub fn encode_file(state: &TrainerState) -> Vec<u8> {
    durable::encode(V3, state.meta().as_bytes(), &|sink| state.section(sink))
}

/// Parses the on-disk checkpoint format (v3, or v2 and v1 from older
/// builds), verifying length and checksum.
///
/// # Errors
///
/// [`CheckpointError::Corrupt`] naming the first integrity violation
/// found: bad header, payload length mismatch, checksum mismatch, element
/// counts that disagree with the tensor section, or an undecodable
/// payload.
pub fn decode_file(bytes: &[u8]) -> Result<TrainerState, CheckpointError> {
    let mut input = io::Cursor::new(bytes);
    let frame = durable::read(&mut input, bytes.len() as u64, FORMATS)?;
    decode(frame, &mut input)
}

/// Decodes a verified frame: the v1 document, or the v2/v3 metadata and
/// the tensor section `input` is positioned at.
fn decode(frame: Frame, input: &mut impl BufRead) -> Result<TrainerState, CheckpointError> {
    let text = std::str::from_utf8(&frame.kept).map_err(|_| corrupt("metadata is not UTF-8"))?;
    if frame.format.meta {
        decode_v2(text, frame.section, input)
    } else {
        Json::decode(text).map_err(|e| corrupt(format!("payload does not decode: {e}")))
    }
}

/// Rebuilds the state from verified v2/v3 metadata `meta` and the
/// `section` bytes of tensors `input` continues with. The element counts
/// are summed and checked against the tensor section before any tensor is
/// allocated.
fn decode_v2(
    meta: &str,
    section: u64,
    input: &mut impl BufRead,
) -> Result<TrainerState, CheckpointError> {
    if !section.is_multiple_of(4) {
        return Err(corrupt(format!(
            "tensor section is {section} bytes, not a whole number of f32s"
        )));
    }
    let doc = Json::parse(meta).map_err(|e| corrupt(format!("metadata does not parse: {e}")))?;
    let undecodable = |e: DecodeError| corrupt(format!("metadata does not decode: {e}"));

    let mut elements = 0usize;
    TrainerState::from_document(&doc, 2, &mut |v| {
        elements = elements
            .checked_add(usize::from_json(v)?)
            .ok_or_else(|| DecodeError::new("element counts overflow"))?;
        Ok(Vec::new())
    })
    .map_err(undecodable)?;
    if elements as u64 != section / 4 {
        return Err(corrupt(format!(
            "metadata counts {elements} elements, the tensor section holds {}",
            section / 4
        )));
    }

    // Every count is now bounded by the section, which the file holds.
    let mut failed = None;
    let state = TrainerState::from_document(&doc, 2, &mut |v| {
        read_f32s(input, usize::from_json(v)?).map_err(|e| {
            let message = format!("reading the tensor section: {e}");
            failed = Some(e);
            DecodeError::new(message)
        })
    });
    match (state, failed) {
        (_, Some(e)) => Err(e.into()),
        (state, None) => state.map_err(undecodable),
    }
}

/// Reads `n` little-endian `f32`s, converting straight out of `input`'s
/// buffer.
fn read_f32s(input: &mut impl BufRead, n: usize) -> io::Result<Vec<f32>> {
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let buf = input.fill_buf()?;
        let whole = (buf.len() / 4).min(n - out.len());
        if whole == 0 {
            // An f32 split across two refills of the buffer.
            let mut word = [0u8; 4];
            input.read_exact(&mut word)?;
            out.push(f32::from_le_bytes(word));
            continue;
        }
        out.extend(
            buf[..4 * whole]
                .chunks_exact(4)
                .map(|b| f32::from_le_bytes([b[0], b[1], b[2], b[3]])),
        );
        input.consume(4 * whole);
    }
    Ok(out)
}

/// A two-generation checkpoint directory: the durable [`Store`] with stem
/// `checkpoint`, so `checkpoint.json` (current) and `checkpoint.prev.json`
/// (previous good generation).
#[derive(Debug, Clone)]
pub struct CheckpointStore(Store);

impl CheckpointStore {
    /// Opens (creating if needed) the checkpoint directory: [`Store::new`].
    pub fn new(dir: impl Into<PathBuf>) -> Result<Self, CheckpointError> {
        Store::new(dir, "checkpoint", FORMATS).map(Self)
    }

    /// Path of the current checkpoint file.
    pub fn current_path(&self) -> PathBuf {
        self.0.current_path()
    }

    /// Persists `state` through [`Store::save`]: [`encode_file`]'s bytes,
    /// streamed.
    pub fn save(&self, state: &TrainerState) -> Result<(), CheckpointError> {
        self.0
            .save(state.meta().as_bytes(), &|sink| state.section(sink))
    }

    /// The newest intact checkpoint, through [`Store::load`]; `Ok(None)`
    /// when no checkpoint exists at all (a fresh start).
    pub fn load(&self) -> Result<Option<TrainerState>, CheckpointError> {
        Ok(self.0.load(decode)?.map(|(state, _)| state))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use espresso_cluster::ClusterHealth;
    use espresso_json::Lane64;
    use std::fs;
    use std::io::BufReader;

    fn sample_state() -> TrainerState {
        TrainerState {
            step: 17,
            dims: 3,
            hidden: 4,
            classes: 2,
            params: Mlp::new(3, 4, 2, 9).params().to_vec(),
            optimizer: Optimizer::momentum(0.05, 0.9),
            ef: vec![
                vec![ErrorFeedback::from_residual(vec![0.25, -1.5e-7])],
                vec![ErrorFeedback::from_residual(vec![0.0, 3.75])],
            ],
            mode: SyncMode::Compressed(GcAlgorithm::Dgc { density: 0.05 }),
            log: TrainLog {
                loss: vec![1.25, 0.5],
                accuracy: vec![0.625, 0.875],
            },
            membership: {
                let mut m = Membership::new(3);
                m.lose_worker(1).unwrap();
                m.set_health(ClusterHealth::inter_degraded(2.0));
                m
            },
            monitor: Some(MonitorState {
                predicted: 0.125,
                divergence: 0.0625,
                samples: 9,
            }),
            fallback_active: false,
            healthy_streak: 2,
            redecide_attempted: true,
            fallback_trips: 1,
            replans: 3,
            controller: Some({
                let mut c = espresso_adapt::RatioController::new(
                    GcAlgorithm::Dgc { density: 0.05 },
                    4,
                    espresso_adapt::ControllerConfig::default(),
                );
                c.observe(&[0.95, 0.1, 0.7, 0.95]);
                c
            }),
        }
    }

    #[test]
    fn state_round_trips_bit_identically() {
        let state = sample_state();
        let back: TrainerState = Json::decode(&Json::encode(&state)).unwrap();
        assert_eq!(back, state);
        assert_eq!(back.fingerprint(), state.fingerprint());
        assert_eq!(back.weights_fingerprint(), state.weights_fingerprint());
    }

    #[test]
    fn file_format_round_trips() {
        let state = sample_state();
        let bytes = encode_file(&state);
        let back = decode_file(&bytes).unwrap();
        assert_eq!(back, state);
    }

    /// Every position of a small v3 file, two substitutions each: header,
    /// metadata and tensor section alike.
    #[test]
    fn any_single_byte_substitution_is_detected() {
        let bytes = encode_file(&sample_state());
        assert!(bytes.starts_with(V3.magic.as_bytes()));
        for pos in 0..bytes.len() {
            for mask in [0x01, 0x20] {
                let mut flipped = bytes.clone();
                flipped[pos] ^= mask;
                assert!(
                    matches!(decode_file(&flipped), Err(CheckpointError::Corrupt { .. })),
                    "substitution ^{mask:#04x} at byte {pos} went undetected"
                );
            }
        }
    }

    #[test]
    fn truncation_is_detected() {
        let bytes = encode_file(&sample_state());
        for cut in [bytes.len() - 1, bytes.len() - 4, bytes.len() / 2, 10, 0] {
            assert!(
                matches!(
                    decode_file(&bytes[..cut]),
                    Err(CheckpointError::Corrupt { .. })
                ),
                "truncation to {cut} bytes went undetected"
            );
        }
    }

    #[test]
    fn trailing_bytes_are_detected() {
        let bytes = encode_file(&sample_state());
        for extra in [&[0u8][..], &[0, 0, 0, 0], b"\n"] {
            let mut longer = bytes.clone();
            longer.extend_from_slice(extra);
            assert!(
                matches!(decode_file(&longer), Err(CheckpointError::Corrupt { .. })),
                "{} trailing bytes went undetected",
                extra.len()
            );
        }
    }

    /// The file's bytes after its header line.
    fn payload(file: &[u8]) -> &[u8] {
        &file[file.iter().position(|&b| b == b'\n').unwrap() + 1..]
    }

    #[test]
    fn fingerprint_is_fnv1a64_of_the_file_payload() {
        let state = sample_state();
        let bytes = encode_file(&state);
        assert_eq!(state.fingerprint(), fnv1a64(payload(&bytes)));

        let mut moved = state.clone();
        moved.ef[1][0] = ErrorFeedback::from_residual(vec![-0.0, 3.75]);
        assert_ne!(moved.fingerprint(), state.fingerprint(), "-0.0 is not 0.0");
        let mut stepped = state.clone();
        stepped.step += 1;
        assert_ne!(stepped.fingerprint(), state.fingerprint());
    }

    /// A v1 file as older builds wrote it: the unchanged JSON document of
    /// the state behind the v1 header.
    fn v1_file(state: &TrainerState) -> Vec<u8> {
        let payload = Json::encode(state);
        format!(
            "ESPRESSO-CKPT v1 len={} fnv1a64={:016x}\n{payload}",
            payload.len(),
            fnv1a64(payload.as_bytes())
        )
        .into_bytes()
    }

    /// A v2 file as older builds wrote it: the v3 payload behind the v2
    /// header and its FNV-1a 64 checksum.
    fn v2_file(state: &TrainerState) -> Vec<u8> {
        let v3 = encode_file(state);
        let payload = payload(&v3);
        let header = std::str::from_utf8(&v3[..v3.len() - payload.len() - 1]).unwrap();
        let meta = header
            .split(' ')
            .find_map(|f| f.strip_prefix("meta="))
            .unwrap();
        let mut file = V2
            .header(
                payload.len() as u64,
                meta.parse().unwrap(),
                fnv1a64(payload),
            )
            .into_bytes();
        file.push(b'\n');
        file.extend_from_slice(payload);
        file
    }

    /// A checksum-valid v3 file whose ratio controller names a grid level
    /// that does not exist: the decoder answers `Corrupt` (so the store
    /// falls back a generation) rather than panicking.
    #[test]
    fn out_of_grid_controller_level_is_corrupt_not_a_panic() {
        let v3 = encode_file(&sample_state());
        let payload = payload(&v3);
        let header = std::str::from_utf8(&v3[..v3.len() - payload.len() - 1]).unwrap();
        let meta_len: usize = header
            .split(' ')
            .find_map(|f| f.strip_prefix("meta="))
            .unwrap()
            .parse()
            .unwrap();
        let (meta, tensors) = payload.split_at(meta_len);
        let meta = std::str::from_utf8(meta).unwrap();
        let at = meta.find("\"levels\":[").unwrap() + "\"levels\":[".len();
        let end = at + meta[at..].find([',', ']']).unwrap();
        let meta = format!("{}999{}", &meta[..at], &meta[end..]);
        let mut sum = Lane64::new();
        sum.update(meta.as_bytes());
        sum.update(tensors);
        let mut file = V3
            .header(
                (meta.len() + tensors.len()) as u64,
                meta.len() as u64,
                sum.finish(),
            )
            .into_bytes();
        file.push(b'\n');
        file.extend_from_slice(meta.as_bytes());
        file.extend_from_slice(tensors);
        match decode_file(&file) {
            Err(CheckpointError::Corrupt { message }) => {
                assert!(message.contains("levels"), "{message}");
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn v2_files_still_decode() {
        let state = sample_state();
        let bytes = v2_file(&state);
        assert!(bytes.starts_with(V2.magic.as_bytes()));
        assert_eq!(decode_file(&bytes).unwrap(), state);
        for pos in [20, bytes.len() / 2, bytes.len() - 1] {
            let mut flipped = bytes.clone();
            flipped[pos] ^= 0x20;
            assert!(
                matches!(decode_file(&flipped), Err(CheckpointError::Corrupt { .. })),
                "substitution at byte {pos} went undetected"
            );
        }
    }

    #[test]
    fn streamed_save_writes_exactly_the_encoded_file() {
        let dir = std::env::temp_dir().join(format!("espresso-ckpt-save-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let store = CheckpointStore::new(&dir).unwrap();
        let mut state = sample_state();
        // Tensors longer than one encoding block and the writer's buffer.
        state.ef[0][0] =
            ErrorFeedback::from_residual((0..40_000).map(|i| i as f32 * 0.5).collect());
        store.save(&state).unwrap();
        assert!(fs::read(store.current_path()).unwrap() == encode_file(&state));
        // And back through the load's buffered reader.
        assert_eq!(store.load().unwrap().unwrap(), state);
        let _ = fs::remove_dir_all(&dir);
    }

    /// A reader whose buffer refills split `f32`s, as a short read can.
    #[test]
    fn f32s_split_across_buffer_refills_read_back() {
        let values: Vec<f32> = (0..100).map(|i| i as f32 - 0.25).collect();
        let bytes: Vec<u8> = values.iter().flat_map(|v| v.to_le_bytes()).collect();
        let mut input = BufReader::with_capacity(7, bytes.as_slice());
        assert_eq!(read_f32s(&mut input, 60).unwrap(), values[..60]);
        assert_eq!(read_f32s(&mut input, 40).unwrap(), values[60..]);
        assert!(read_f32s(&mut input, 1).is_err());
    }

    #[test]
    fn v1_files_still_decode() {
        let state = sample_state();
        let bytes = v1_file(&state);
        assert_eq!(decode_file(&bytes).unwrap(), state);
        let mut flipped = bytes.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0x20;
        assert!(matches!(
            decode_file(&flipped),
            Err(CheckpointError::Corrupt { .. })
        ));
    }

    #[test]
    fn store_falls_back_from_corrupt_v2_to_v1_previous_generation() {
        let dir = std::env::temp_dir().join(format!("espresso-ckpt-v1-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let store = CheckpointStore::new(&dir).unwrap();
        let mut old = sample_state();
        old.step = 10;
        fs::write(store.current_path(), v1_file(&old)).unwrap();
        assert_eq!(
            store.load().unwrap().unwrap(),
            old,
            "a v1 directory resumes"
        );

        let mut new = sample_state();
        new.step = 20;
        store.save(&new).unwrap();
        assert_eq!(store.load().unwrap().unwrap(), new);
        let mut bytes = fs::read(store.current_path()).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        fs::write(store.current_path(), &bytes).unwrap();
        assert_eq!(store.load().unwrap().unwrap(), old);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn store_falls_back_from_corrupt_v3_to_v2_previous_generation() {
        let dir = std::env::temp_dir().join(format!("espresso-ckpt-v2-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let store = CheckpointStore::new(&dir).unwrap();
        let mut old = sample_state();
        old.step = 10;
        fs::write(store.current_path(), v2_file(&old)).unwrap();
        assert_eq!(
            store.load().unwrap().unwrap(),
            old,
            "a v2 directory resumes"
        );

        let mut new = sample_state();
        new.step = 20;
        store.save(&new).unwrap();
        let mut bytes = fs::read(store.current_path()).unwrap();
        assert!(bytes.starts_with(V3.magic.as_bytes()));
        assert_eq!(store.load().unwrap().unwrap(), new);
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        fs::write(store.current_path(), &bytes).unwrap();
        assert_eq!(store.load().unwrap().unwrap(), old);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn store_rotates_and_falls_back_on_corruption() {
        let dir = std::env::temp_dir().join(format!("espresso-ckpt-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let store = CheckpointStore::new(&dir).unwrap();
        assert!(store.load().unwrap().is_none(), "fresh dir has no state");

        let mut first = sample_state();
        first.step = 10;
        store.save(&first).unwrap();
        let mut second = sample_state();
        second.step = 20;
        store.save(&second).unwrap();
        assert_eq!(store.load().unwrap().unwrap().step, 20);
        assert!(
            store.0.prev_path().exists(),
            "rotation kept the previous gen"
        );

        // Corrupt the current file: load falls back to the previous one.
        let mut bytes = fs::read(store.current_path()).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        fs::write(store.current_path(), &bytes).unwrap();
        assert_eq!(store.load().unwrap().unwrap().step, 10);

        // Corrupt both (the fallback made generation 10 current again): a
        // Corrupt error, not a panic.
        fs::write(store.current_path(), b"garbage").unwrap();
        fs::write(store.0.prev_path(), b"garbage").unwrap();
        assert!(matches!(store.load(), Err(CheckpointError::Corrupt { .. })));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn version_gate_rejects_future_documents() {
        let state = sample_state();
        let text = Json::encode(&state).replace("\"version\":1", "\"version\":2");
        assert!(Json::decode::<TrainerState>(&text).is_err());
    }

    /// `sample_state()` as the v3 writer wrote it before the framing moved
    /// into `espresso_json::durable`.
    const V3_FIXTURE: &[u8] = include_bytes!("../tests/fixtures/sample_state.v3.ckpt");

    #[test]
    fn an_earlier_v3_file_decodes_and_is_rewritten_byte_for_byte() {
        assert_eq!(decode_file(V3_FIXTURE).unwrap(), sample_state());
        assert!(encode_file(&sample_state()) == V3_FIXTURE);
        let dir =
            std::env::temp_dir().join(format!("espresso-ckpt-fixture-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let store = CheckpointStore::new(&dir).unwrap();
        store.save(&sample_state()).unwrap();
        assert!(fs::read(store.current_path()).unwrap() == V3_FIXTURE);
        let _ = fs::remove_dir_all(&dir);
    }

    /// A load that falls back promotes the previous generation, so the
    /// next save rotates it, not the corrupt file, into
    /// `checkpoint.prev.json`.
    #[test]
    fn a_fallback_load_keeps_the_good_generation_through_the_next_save() {
        let dir =
            std::env::temp_dir().join(format!("espresso-ckpt-promote-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let store = CheckpointStore::new(&dir).unwrap();
        let generation = |step| TrainerState {
            step,
            ..sample_state()
        };
        store.save(&generation(1)).unwrap();
        store.save(&generation(2)).unwrap();
        let mut bytes = fs::read(store.current_path()).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        fs::write(store.current_path(), &bytes).unwrap();
        assert_eq!(store.load().unwrap().unwrap().step, 1);
        store.save(&generation(3)).unwrap();
        let prev = decode_file(&fs::read(store.0.prev_path()).unwrap()).unwrap();
        assert_eq!(prev.step, 1);
        let _ = fs::remove_dir_all(&dir);
    }
}
