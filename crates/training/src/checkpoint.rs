//! Checkpoint/restore of the full trainer state.
//!
//! A checkpoint captures everything the fault-tolerant runtime needs to
//! resume *bit-identically*: model weights, optimizer state, the
//! per-worker error-feedback grid, the telemetry log, cluster membership,
//! and the degradation-monitor / fallback bookkeeping.
//!
//! # File format (v2)
//!
//! ```text
//! ESPRESSO-CKPT v2 len=<N> meta=<M> fnv1a64=<16 hex digits>\n
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
//! one model's worth of floats per surviving worker.
//!
//! The checksum is FNV-1a 64 over the whole payload. Every single-byte
//! substitution at equal length changes an FNV-1a hash (each round is a
//! bijection in the accumulator), length changes trip the `len` field, and
//! the header must be byte for byte the one [`encode_file`] writes for the
//! values it carries — so header damage that still parses to the same
//! values (a `+` sign, an upper-case hex digit, a tab for a space) is
//! caught too, and any flipped byte anywhere in the file is detected.
//! Before any tensor is allocated, decoding checks that the metadata's
//! element counts sum to exactly `(N - M) / 4`: an inconsistent file is
//! reported as corrupt and never sizes an allocation.
//!
//! # v1 read path
//!
//! Older builds wrote `ESPRESSO-CKPT v1 len=<N> fnv1a64=<hex>\n` followed
//! by the whole state as one JSON document (the [`ToJson`] form of
//! [`TrainerState`]), every float as a shortest-round-trip decimal.
//! [`decode_file`] dispatches on the magic and still reads v1, so
//! checkpoints already on disk resume; [`encode_file`] writes only v2.
//!
//! # Atomicity and rotation
//!
//! [`CheckpointStore::save`] writes to a temp file, rotates the current
//! checkpoint to `checkpoint.prev.json`, then renames the temp file into
//! place (the `.json` names predate v2 and are kept so that a v1
//! directory still resumes). A process crash (`kill -9`) at any point
//! leaves at least one intact generation on disk, and
//! [`CheckpointStore::load`] falls back to the previous generation when
//! the current file is torn or corrupt. Nothing is fsynced, so the
//! sequence does not survive a power loss or kernel crash: the renamed
//! file's data may never have reached the disk.

use std::fmt;
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};

use espresso_cluster::Membership;
use espresso_gc::{ErrorFeedback, GcAlgorithm};
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

    /// FNV-1a 64 over the v2 payload — exactly the `fnv1a64` field
    /// [`encode_file`] writes, computed without assembling the file. The
    /// payload holds every field, and every tensor as raw bits, so two
    /// states are bit-identical iff their fingerprints match (the
    /// comparator of the bitwise-resume guarantee).
    pub fn fingerprint(&self) -> u64 {
        self.payload_hash(&self.meta())
    }

    /// FNV-1a 64 fingerprint of the weight tensors alone (stable across
    /// runtime-bookkeeping differences such as event counters).
    pub fn weights_fingerprint(&self) -> u64 {
        weights_fingerprint(&self.params)
    }

    /// Every `f32` tensor in document order — `params`, momentum
    /// `velocity`, then `ef` row by row — which is the order of the v2
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

    /// FNV-1a 64 of `meta` followed by the tensor section, streamed.
    fn payload_hash(&self, meta: &str) -> u64 {
        let mut hash = fnv1a64(meta.as_bytes());
        for tensor in self.tensors() {
            put_le(tensor, &mut |bytes| hash = fnv1a64_extend(hash, bytes));
        }
        hash
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
fn put_le(tensor: &[f32], sink: &mut impl FnMut(&[u8])) {
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

/// Why a checkpoint could not be saved or loaded.
#[derive(Debug)]
pub enum CheckpointError {
    /// Filesystem failure (create, write, rename, read).
    Io(std::io::Error),
    /// The file exists but is torn or corrupt (bad header, length
    /// mismatch, checksum mismatch, or undecodable payload) — and no
    /// previous good generation could be loaded either.
    Corrupt {
        /// Which file, and what was wrong with it.
        message: String,
    },
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint I/O error: {e}"),
            CheckpointError::Corrupt { message } => {
                write!(f, "corrupt checkpoint: {message}")
            }
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

const MAGIC_V1: &str = "ESPRESSO-CKPT v1";
const MAGIC_V2: &str = "ESPRESSO-CKPT v2";

fn header_v1(len: u64, hash: u64) -> String {
    format!("{MAGIC_V1} len={len} fnv1a64={hash:016x}")
}

fn header_v2(len: u64, meta: u64, hash: u64) -> String {
    format!("{MAGIC_V2} len={len} meta={meta} fnv1a64={hash:016x}")
}

/// Renders `state` in the on-disk checkpoint format (v2 header + payload).
pub fn encode_file(state: &TrainerState) -> Vec<u8> {
    let meta = state.meta();
    let elements: usize = state.tensors().map(<[f32]>::len).sum();
    let len = meta.len() + 4 * elements;
    let header = header_v2(len as u64, meta.len() as u64, state.payload_hash(&meta));
    let mut bytes = Vec::with_capacity(header.len() + 1 + len);
    bytes.extend_from_slice(header.as_bytes());
    bytes.push(b'\n');
    bytes.extend_from_slice(meta.as_bytes());
    for tensor in state.tensors() {
        put_le(tensor, &mut |le| bytes.extend_from_slice(le));
    }
    bytes
}

/// Parses the on-disk checkpoint format (v2, or v1 from older builds),
/// verifying length and checksum.
///
/// # Errors
///
/// [`CheckpointError::Corrupt`] naming the first integrity violation
/// found: bad header, payload length mismatch, checksum mismatch, element
/// counts that disagree with the tensor section, or an undecodable
/// payload.
pub fn decode_file(bytes: &[u8]) -> Result<TrainerState, CheckpointError> {
    decode(bytes).map_err(|message| CheckpointError::Corrupt { message })
}

fn decode(bytes: &[u8]) -> Result<TrainerState, String> {
    let newline = bytes
        .iter()
        .position(|&b| b == b'\n')
        .ok_or("missing header line")?;
    let header = std::str::from_utf8(&bytes[..newline]).map_err(|_| "header is not UTF-8")?;
    let payload = &bytes[newline + 1..];
    if let Some(rest) = header.strip_prefix(MAGIC_V2) {
        let [len, meta, hash] = header_fields(rest, ["len", "meta", "fnv1a64"])?;
        check_canonical(header, &header_v2(len, meta, hash))?;
        verify(payload, len, hash)?;
        decode_v2(payload, meta)
    } else if let Some(rest) = header.strip_prefix(MAGIC_V1) {
        let [len, hash] = header_fields(rest, ["len", "fnv1a64"])?;
        check_canonical(header, &header_v1(len, hash))?;
        verify(payload, len, hash)?;
        let text = std::str::from_utf8(payload).map_err(|_| "payload is not UTF-8")?;
        Json::decode(text).map_err(|e| format!("payload does not decode: {e}"))
    } else {
        Err(format!("bad magic in header `{}`", excerpt(header)))
    }
}

/// Reads the `key=value` fields after the magic, in the order `keys`
/// names them: `fnv1a64` in hex, the rest in decimal.
fn header_fields<const K: usize>(rest: &str, keys: [&str; K]) -> Result<[u64; K], String> {
    let mut values = [0u64; K];
    let mut fields = rest.split_whitespace();
    for (value, key) in values.iter_mut().zip(keys) {
        let field = fields
            .next()
            .ok_or_else(|| format!("header missing {key} field"))?;
        let text = field
            .strip_prefix(key)
            .and_then(|f| f.strip_prefix('='))
            .ok_or_else(|| format!("expected {key}= in header, found `{}`", excerpt(field)))?;
        let radix = if key == "fnv1a64" { 16 } else { 10 };
        *value = u64::from_str_radix(text, radix)
            .map_err(|_| format!("bad {key} field `{}`", excerpt(text)))?;
    }
    match fields.next() {
        Some(extra) => Err(format!("unknown header field `{}`", excerpt(extra))),
        None => Ok(values),
    }
}

/// The header must be byte for byte the one the encoder writes for the
/// values it parsed to: `+` signs, leading zeros, upper-case hex and
/// stray whitespace all parse to the same values but are damage.
fn check_canonical(header: &str, canonical: &str) -> Result<(), String> {
    if header == canonical {
        Ok(())
    } else {
        Err(format!(
            "header `{}` is not in canonical form",
            excerpt(header)
        ))
    }
}

fn verify(payload: &[u8], len: u64, hash: u64) -> Result<(), String> {
    if payload.len() as u64 != len {
        return Err(format!(
            "payload is {} bytes, header says {len} (torn write?)",
            payload.len()
        ));
    }
    let actual = fnv1a64(payload);
    if actual != hash {
        return Err(format!(
            "checksum mismatch: payload hashes to {actual:016x}, header says {hash:016x}"
        ));
    }
    Ok(())
}

/// Splits a verified v2 payload at `meta` and rebuilds the state. The
/// element counts are summed and checked against the tensor section
/// before any tensor is allocated.
fn decode_v2(payload: &[u8], meta: u64) -> Result<TrainerState, String> {
    let meta = usize::try_from(meta)
        .ok()
        .filter(|&m| m <= payload.len())
        .ok_or_else(|| format!("meta={meta} exceeds the {}-byte payload", payload.len()))?;
    let (meta, section) = payload.split_at(meta);
    if section.len() % 4 != 0 {
        return Err(format!(
            "tensor section is {} bytes, not a whole number of f32s",
            section.len()
        ));
    }
    let text = std::str::from_utf8(meta).map_err(|_| "metadata is not UTF-8")?;
    let doc = Json::parse(text).map_err(|e| format!("metadata does not parse: {e}"))?;
    let undecodable = |e: DecodeError| format!("metadata does not decode: {e}");

    let mut elements = 0usize;
    TrainerState::from_document(&doc, 2, &mut |v| {
        elements = elements
            .checked_add(usize::from_json(v)?)
            .ok_or_else(|| DecodeError::new("element counts overflow"))?;
        Ok(Vec::new())
    })
    .map_err(undecodable)?;
    if elements != section.len() / 4 {
        return Err(format!(
            "metadata counts {elements} elements, the tensor section holds {}",
            section.len() / 4
        ));
    }

    let mut rest = section;
    TrainerState::from_document(&doc, 2, &mut |v| {
        let (tensor, tail) = usize::from_json(v)?
            .checked_mul(4)
            .and_then(|bytes| rest.split_at_checked(bytes))
            .ok_or_else(|| DecodeError::new("tensor overruns the tensor section"))?;
        rest = tail;
        Ok(tensor
            .chunks_exact(4)
            .map(|b| f32::from_le_bytes([b[0], b[1], b[2], b[3]]))
            .collect())
    })
    .map_err(undecodable)
}

/// At most 64 characters of `text`, for error messages about headers
/// that may run into the payload.
fn excerpt(text: &str) -> String {
    match text.char_indices().nth(64) {
        Some((cut, _)) => format!("{}…", &text[..cut]),
        None => text.to_string(),
    }
}

/// A two-generation checkpoint directory: `checkpoint.json` (current) and
/// `checkpoint.prev.json` (previous good generation).
#[derive(Debug, Clone)]
pub struct CheckpointStore {
    dir: PathBuf,
}

impl CheckpointStore {
    /// Opens (creating if needed) the checkpoint directory.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Io`] if the directory cannot be created.
    pub fn new(dir: impl Into<PathBuf>) -> Result<Self, CheckpointError> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(Self { dir })
    }

    /// Path of the current checkpoint file.
    pub fn current_path(&self) -> PathBuf {
        self.dir.join("checkpoint.json")
    }

    /// Path of the previous-generation checkpoint file.
    pub fn prev_path(&self) -> PathBuf {
        self.dir.join("checkpoint.prev.json")
    }

    /// Persists `state`: write temp, rotate current to previous, rename
    /// temp into place. A process crash between any two of these
    /// operations leaves at least one loadable generation; nothing is
    /// fsynced, so a power loss is not covered.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Io`] on any filesystem failure.
    pub fn save(&self, state: &TrainerState) -> Result<(), CheckpointError> {
        let tmp = self.dir.join("checkpoint.tmp");
        {
            let mut f = fs::File::create(&tmp)?;
            f.write_all(&encode_file(state))?;
        }
        let current = self.current_path();
        if current.exists() {
            fs::rename(&current, self.prev_path())?;
        }
        fs::rename(&tmp, &current)?;
        Ok(())
    }

    /// Loads the newest intact checkpoint: the current generation if it
    /// verifies, else the previous generation. Returns `Ok(None)` when no
    /// checkpoint exists at all (a fresh start, not an error).
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Corrupt`] when files exist but none verifies;
    /// [`CheckpointError::Io`] for filesystem failures other than
    /// not-found.
    pub fn load(&self) -> Result<Option<TrainerState>, CheckpointError> {
        let mut first_corruption: Option<String> = None;
        for path in [self.current_path(), self.prev_path()] {
            match read_if_exists(&path)? {
                None => continue,
                Some(bytes) => match decode_file(&bytes) {
                    Ok(state) => return Ok(Some(state)),
                    Err(e) => {
                        first_corruption
                            .get_or_insert_with(|| format!("{}: {e}", path.display()));
                    }
                },
            }
        }
        match first_corruption {
            None => Ok(None),
            Some(message) => Err(CheckpointError::Corrupt { message }),
        }
    }
}

fn read_if_exists(path: &Path) -> Result<Option<Vec<u8>>, CheckpointError> {
    match fs::read(path) {
        Ok(bytes) => Ok(Some(bytes)),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
        Err(e) => Err(e.into()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use espresso_cluster::ClusterHealth;

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

    /// Every position of a small file, two substitutions each: header,
    /// metadata and tensor section alike.
    #[test]
    fn any_single_byte_substitution_is_detected() {
        let bytes = encode_file(&sample_state());
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

    /// Header damage that still parses to the same values.
    #[test]
    fn non_canonical_headers_are_rejected() {
        let bytes = encode_file(&sample_state());
        let newline = bytes.iter().position(|&b| b == b'\n').unwrap();
        let header = std::str::from_utf8(&bytes[..newline]).unwrap();
        let hex = header.rsplit('=').next().unwrap();
        let mut variants = vec![
            header.replacen(" len=", "\tlen=", 1),
            header.replacen(" meta=", "  meta=", 1),
            header.replacen("len=", "len=+", 1),
            header.replacen("meta=", "meta=0", 1),
            header.replacen(hex, &hex.to_uppercase(), 1),
            format!("{header} "),
        ];
        variants.retain(|v| v != header);
        assert!(
            variants.len() >= 5,
            "the hash has a hex letter to upper-case"
        );
        for variant in variants {
            let mut damaged = variant.into_bytes();
            damaged.extend_from_slice(&bytes[newline..]);
            assert!(
                matches!(decode_file(&damaged), Err(CheckpointError::Corrupt { .. })),
                "header `{}` was accepted",
                String::from_utf8_lossy(&damaged[..damaged.len() + newline - bytes.len()])
            );
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

    #[test]
    fn fingerprint_is_the_file_checksum() {
        let state = sample_state();
        let bytes = encode_file(&state);
        let header =
            std::str::from_utf8(&bytes[..bytes.iter().position(|&b| b == b'\n').unwrap()]).unwrap();
        assert!(header.ends_with(&format!("fnv1a64={:016x}", state.fingerprint())));

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
        assert!(store.prev_path().exists(), "rotation kept the previous gen");

        // Corrupt the current file: load falls back to the previous one.
        let mut bytes = fs::read(store.current_path()).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        fs::write(store.current_path(), &bytes).unwrap();
        assert_eq!(store.load().unwrap().unwrap().step, 10);

        // Corrupt both: a Corrupt error, not a panic.
        fs::write(store.prev_path(), b"garbage").unwrap();
        assert!(matches!(
            store.load(),
            Err(CheckpointError::Corrupt { .. })
        ));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn version_gate_rejects_future_documents() {
        let state = sample_state();
        let text = Json::encode(&state).replace("\"version\":1", "\"version\":2");
        assert!(Json::decode::<TrainerState>(&text).is_err());
    }
}
