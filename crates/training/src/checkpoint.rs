//! Checkpoint/restore of the full trainer state.
//!
//! A checkpoint captures everything the fault-tolerant runtime needs to
//! resume *bit-identically*: model weights, optimizer state, the
//! per-worker error-feedback grid, the telemetry log, cluster membership,
//! and the degradation-monitor / fallback bookkeeping.
//!
//! # File format (v3)
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
//! The checksum is [`espresso_json::lane64`] over the whole payload: the
//! payload's little-endian `u64` words dealt round-robin to eight lanes,
//! each lane absorbing a word by `s = m((s ^ w) * K)` with `K` odd and
//! `m(x) = x ^ (x >> 32)`, the zero-padded tail word absorbed next in
//! turn, then the lanes and the length folded into one value by the same
//! round. That round is a bijection in either argument when the other is
//! fixed, so a change confined to one word — every single-byte
//! substitution — changes its lane's final state and then the folded
//! value (the proof is in that module's docs). The eight lanes run in
//! parallel in the pipeline, where FNV-1a is one serial chain of about
//! four cycles per byte. Length changes trip the `len` field, and the
//! header must be byte for byte the one [`encode_file`] writes for the
//! values it carries — so header damage that still parses to the same
//! values (a `+` sign, an upper-case hex digit, a tab for a space) is
//! caught too, and any flipped byte anywhere in the file is detected.
//! Before any tensor is allocated, decoding checks that the metadata's
//! element counts sum to exactly `(N - M) / 4`: an inconsistent file is
//! reported as corrupt and never sizes an allocation.
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
//! [`CheckpointStore::save`] streams the file into a temp file through a
//! buffered writer — the checksum is computed in a first pass over the
//! state, so the file is never assembled in memory — then rotates the
//! current checkpoint to `checkpoint.prev.json` and renames the temp file
//! into place (the `.json` names predate v2 and are kept so that a v1
//! directory still resumes). A process crash (`kill -9`) at any point
//! leaves at least one intact generation on disk, and
//! [`CheckpointStore::load`] falls back to the previous generation when
//! the current file is torn or corrupt. Nothing is fsynced, so the
//! sequence does not survive a power loss or kernel crash: the renamed
//! file's data may never have reached the disk.

use std::fmt;
use std::fs;
use std::io::{self, BufRead, BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::PathBuf;

use espresso_cluster::Membership;
use espresso_gc::{ErrorFeedback, GcAlgorithm};
use espresso_json::{enums, fnv1a64, fnv1a64_extend, DecodeError, FromJson, Json, Lane64, ToJson};

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
        for tensor in self.tensors() {
            put_le(tensor, &mut |bytes| hash = fnv1a64_extend(hash, bytes));
        }
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

    /// The file checksum: Lane64 of `meta` followed by the tensor
    /// section, streamed.
    fn payload_sum(&self, meta: &str) -> u64 {
        let mut sum = Lane64::new();
        sum.update(meta.as_bytes());
        for tensor in self.tensors() {
            put_le(tensor, &mut |bytes| sum.update(bytes));
        }
        sum.finish()
    }

    /// Writes the file: the v3 header, the metadata, then the tensor
    /// section, each tensor encoded one block at a time. The checksum is a
    /// first pass over the state, so nothing the size of the file is
    /// allocated.
    fn write_file(&self, out: &mut impl Write) -> io::Result<()> {
        let meta = self.meta();
        let elements: usize = self.tensors().map(<[f32]>::len).sum();
        let len = meta.len() + 4 * elements;
        let header = header_v3(len as u64, meta.len() as u64, self.payload_sum(&meta));
        out.write_all(header.as_bytes())?;
        out.write_all(b"\n")?;
        out.write_all(meta.as_bytes())?;
        for tensor in self.tensors() {
            let mut written = Ok(());
            put_le(tensor, &mut |le| {
                if written.is_ok() {
                    written = out.write_all(le);
                }
            });
            written?;
        }
        Ok(())
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
const MAGIC_V3: &str = "ESPRESSO-CKPT v3";

fn header_v1(len: u64, hash: u64) -> String {
    format!("{MAGIC_V1} len={len} fnv1a64={hash:016x}")
}

fn header_v2(len: u64, meta: u64, hash: u64) -> String {
    format!("{MAGIC_V2} len={len} meta={meta} fnv1a64={hash:016x}")
}

fn header_v3(len: u64, meta: u64, sum: u64) -> String {
    format!("{MAGIC_V3} len={len} meta={meta} lane64={sum:016x}")
}

/// Renders `state` in the on-disk checkpoint format (v3 header + payload):
/// the bytes [`CheckpointStore::save`] streams into its file.
pub fn encode_file(state: &TrainerState) -> Vec<u8> {
    let mut bytes = Vec::new();
    state
        .write_file(&mut bytes)
        .expect("writing into a Vec cannot fail");
    bytes
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
    decode(&mut io::Cursor::new(bytes), bytes.len() as u64)
}

/// Longer than any header line a format writes: a first line that does
/// not end within it is corrupt.
const MAX_HEADER: u64 = 256;

/// The running checksum a header names.
enum Checksum {
    Fnv1a64(u64),
    Lane64(Lane64),
}

impl Checksum {
    fn update(&mut self, bytes: &[u8]) {
        match self {
            Checksum::Fnv1a64(hash) => *hash = fnv1a64_extend(*hash, bytes),
            Checksum::Lane64(sum) => sum.update(bytes),
        }
    }

    fn finish(&self) -> u64 {
        match self {
            Checksum::Fnv1a64(hash) => *hash,
            Checksum::Lane64(sum) => sum.finish(),
        }
    }
}

fn corrupt(message: impl Into<String>) -> CheckpointError {
    CheckpointError::Corrupt {
        message: message.into(),
    }
}

/// A read that ran out of bytes met a file shorter than its header said
/// (it shrank while being read): corruption, not an I/O failure.
fn read_error(e: io::Error) -> CheckpointError {
    if e.kind() == io::ErrorKind::UnexpectedEof {
        corrupt("the file ended before the length its header gives")
    } else {
        CheckpointError::Io(e)
    }
}

/// Decodes a checkpoint of `file_len` bytes from `input`, positioned at
/// its start, in two passes. The first verifies the payload's length and
/// checksum, keeping the metadata (or the v1 document) and streaming the
/// tensor section through `input`'s buffer; the second seeks back to the
/// tensor section and decodes it straight into the state's tensors. So
/// nothing is decoded before it is verified, and a file read through a
/// small buffer allocates no copy of itself.
fn decode<R: BufRead + Seek>(
    input: &mut R,
    file_len: u64,
) -> Result<TrainerState, CheckpointError> {
    let mut line = Vec::new();
    input
        .by_ref()
        .take(MAX_HEADER)
        .read_until(b'\n', &mut line)
        .map_err(read_error)?;
    if line.pop() != Some(b'\n') {
        return Err(corrupt(format!(
            "no header line in the first {MAX_HEADER} bytes"
        )));
    }
    let header = std::str::from_utf8(&line).map_err(|_| corrupt("header is not UTF-8"))?;
    let (len, meta, sum, mut checksum) = if let Some(rest) = header.strip_prefix(MAGIC_V3) {
        let [len, meta, sum] = header_fields(rest, ["len", "meta", "lane64"])?;
        check_canonical(header, &header_v3(len, meta, sum))?;
        (len, Some(meta), sum, Checksum::Lane64(Lane64::new()))
    } else if let Some(rest) = header.strip_prefix(MAGIC_V2) {
        let [len, meta, hash] = header_fields(rest, ["len", "meta", "fnv1a64"])?;
        check_canonical(header, &header_v2(len, meta, hash))?;
        (len, Some(meta), hash, Checksum::Fnv1a64(fnv1a64(&[])))
    } else if let Some(rest) = header.strip_prefix(MAGIC_V1) {
        let [len, hash] = header_fields(rest, ["len", "fnv1a64"])?;
        check_canonical(header, &header_v1(len, hash))?;
        (len, None, hash, Checksum::Fnv1a64(fnv1a64(&[])))
    } else {
        return Err(corrupt(format!(
            "bad magic in header `{}`",
            excerpt(header)
        )));
    };
    let header_len = line.len() as u64 + 1;
    let payload_len = file_len.saturating_sub(header_len);
    if payload_len != len {
        return Err(corrupt(format!(
            "payload is {payload_len} bytes, header says {len} (torn write?)"
        )));
    }

    // Pass 1. The metadata is at most the payload, which the file holds.
    let kept = meta.unwrap_or(len);
    if kept > len {
        return Err(corrupt(format!(
            "meta={kept} exceeds the {len}-byte payload"
        )));
    }
    let mut text = vec![0; usize::try_from(kept).map_err(|_| corrupt("metadata too large"))?];
    input.read_exact(&mut text).map_err(read_error)?;
    checksum.update(&text);
    let mut rest = len - kept;
    while rest > 0 {
        let buf = input.fill_buf().map_err(read_error)?;
        if buf.is_empty() {
            return Err(read_error(io::ErrorKind::UnexpectedEof.into()));
        }
        let take = buf.len().min(usize::try_from(rest).unwrap_or(usize::MAX));
        checksum.update(&buf[..take]);
        input.consume(take);
        rest -= take as u64;
    }
    let actual = checksum.finish();
    if actual != sum {
        return Err(corrupt(format!(
            "checksum mismatch: payload hashes to {actual:016x}, header says {sum:016x}"
        )));
    }

    // Pass 2, on verified bytes.
    let text = std::str::from_utf8(&text).map_err(|_| corrupt("metadata is not UTF-8"))?;
    match meta {
        None => Json::decode(text).map_err(|e| corrupt(format!("payload does not decode: {e}"))),
        Some(meta) => {
            input
                .seek(SeekFrom::Start(header_len + meta))
                .map_err(read_error)?;
            decode_v2(text, len - meta, input)
        }
    }
}

/// Reads the `key=value` fields after the magic, in the order `keys`
/// names them: the checksum (`fnv1a64`, `lane64`) in hex, the rest in
/// decimal.
fn header_fields<const K: usize>(rest: &str, keys: [&str; K]) -> Result<[u64; K], CheckpointError> {
    let mut values = [0u64; K];
    let mut fields = rest.split_whitespace();
    for (value, key) in values.iter_mut().zip(keys) {
        let field = fields
            .next()
            .ok_or_else(|| corrupt(format!("header missing {key} field")))?;
        let text = field
            .strip_prefix(key)
            .and_then(|f| f.strip_prefix('='))
            .ok_or_else(|| {
                corrupt(format!(
                    "expected {key}= in header, found `{}`",
                    excerpt(field)
                ))
            })?;
        let radix = if matches!(key, "fnv1a64" | "lane64") {
            16
        } else {
            10
        };
        *value = u64::from_str_radix(text, radix)
            .map_err(|_| corrupt(format!("bad {key} field `{}`", excerpt(text))))?;
    }
    match fields.next() {
        Some(extra) => Err(corrupt(format!(
            "unknown header field `{}`",
            excerpt(extra)
        ))),
        None => Ok(values),
    }
}

/// The header must be byte for byte the one the encoder writes for the
/// values it parsed to: `+` signs, leading zeros, upper-case hex and
/// stray whitespace all parse to the same values but are damage.
fn check_canonical(header: &str, canonical: &str) -> Result<(), CheckpointError> {
    if header == canonical {
        Ok(())
    } else {
        Err(corrupt(format!(
            "header `{}` is not in canonical form",
            excerpt(header)
        )))
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
        (_, Some(e)) => Err(read_error(e)),
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

    /// Persists `state`: stream the file ([`encode_file`]'s bytes) into a
    /// temp file, rotate current to previous, rename temp into place. A
    /// process crash between any two of these operations leaves at least
    /// one loadable generation; nothing is fsynced, so a power loss is not
    /// covered.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Io`] on any filesystem failure.
    pub fn save(&self, state: &TrainerState) -> Result<(), CheckpointError> {
        let tmp = self.dir.join("checkpoint.tmp");
        {
            let mut out = BufWriter::with_capacity(1 << 16, fs::File::create(&tmp)?);
            state.write_file(&mut out)?;
            out.flush()?;
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
            let file = match fs::File::open(&path) {
                Ok(file) => file,
                Err(e) if e.kind() == io::ErrorKind::NotFound => continue,
                Err(e) => return Err(e.into()),
            };
            let len = file.metadata()?.len();
            match decode(&mut BufReader::with_capacity(1 << 16, file), len) {
                Ok(state) => return Ok(Some(state)),
                Err(e @ CheckpointError::Corrupt { .. }) => {
                    first_corruption.get_or_insert_with(|| format!("{}: {e}", path.display()));
                }
                Err(e) => return Err(e),
            }
        }
        match first_corruption {
            None => Ok(None),
            Some(message) => Err(CheckpointError::Corrupt { message }),
        }
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

    /// Every position of a small v3 file, two substitutions each: header,
    /// metadata and tensor section alike.
    #[test]
    fn any_single_byte_substitution_is_detected() {
        let bytes = encode_file(&sample_state());
        assert!(bytes.starts_with(MAGIC_V3.as_bytes()));
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
        let mut file = header_v2(
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
        let mut file = header_v3(
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
        assert!(bytes.starts_with(MAGIC_V2.as_bytes()));
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
        assert!(bytes.starts_with(MAGIC_V3.as_bytes()));
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
