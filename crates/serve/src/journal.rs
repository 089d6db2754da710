//! Crash-safe persistence for the fleet controller: a write-ahead journal
//! plus a two-generation snapshot store.
//!
//! # Journal format
//!
//! The journal is a flat file of records, each framed as
//!
//! ```text
//! [u32 le payload length][u64 le sequence number][u64 le fnv1a64(payload)][payload]
//! ```
//!
//! Records are appended *before* the state change they describe is
//! acknowledged, so a controller killed at any instant can rebuild its
//! exact state from disk. Replay is **torn-tail tolerant**: a crash mid-
//! append leaves a final record whose frame is incomplete, whose payload
//! runs past end-of-file, or whose checksum does not match — replay stops
//! at the first such record and reports the clean prefix length, and
//! [`Journal::open`] truncates the file back to that prefix so the next
//! append starts from a well-formed tail.
//!
//! # Snapshot format and rotation
//!
//! A snapshot bounds replay time: the full state is written as
//!
//! ```text
//! ESPRESSO-FLEET v1 len=<N> fnv1a64=<16 hex digits>\n
//! <exactly N bytes of compact JSON payload>
//! ```
//!
//! (the checkpoint layer's header discipline — any single flipped byte
//! anywhere in the file is detected). [`SnapshotStore::save`] is atomic:
//! temp write, rotate current to `snapshot.prev.json`, rename into place.
//! [`SnapshotStore::load`] returns the newest intact generation, falling
//! back to the previous one when the current file is torn or corrupt —
//! recovery then replays the journal suffix (records with a sequence
//! number past the snapshot's) on top, so a corrupt current snapshot
//! costs nothing but a longer replay.
//!
//! Durability note: appends flush to the file (so they survive `kill -9`
//! of the process — the bytes are in the page cache and the file), but do
//! not `fsync` (whole-machine power loss can lose the last instants).
//! That is the same trade the decision cache's clients make, and the
//! recovery path tolerates the resulting torn tail either way.

use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};

use espresso_json::fnv1a64;

/// Bytes of one record frame before the payload: length, sequence,
/// checksum.
pub const FRAME_BYTES: usize = 4 + 8 + 8;

/// One replayed journal record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Record {
    /// Monotone sequence number assigned at append time.
    pub seq: u64,
    /// The record payload (an encoded fleet event).
    pub payload: Vec<u8>,
}

/// Frames `payload` as one journal record.
pub fn encode_record(seq: u64, payload: &[u8]) -> Vec<u8> {
    let mut bytes = Vec::with_capacity(FRAME_BYTES + payload.len());
    bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    bytes.extend_from_slice(&seq.to_le_bytes());
    bytes.extend_from_slice(&fnv1a64(payload).to_le_bytes());
    bytes.extend_from_slice(payload);
    bytes
}

/// Decodes records from the front of `bytes`, stopping at the torn tail.
///
/// Returns the records of the clean prefix and that prefix's byte length.
/// Anything after the first incomplete frame, overlong length, or
/// checksum mismatch is unreachable (frames carry no resync marker) and
/// is treated as a torn tail from an interrupted append.
pub fn decode_records(bytes: &[u8]) -> (Vec<Record>, usize) {
    let mut records = Vec::new();
    let mut offset = 0usize;
    while bytes.len() - offset >= FRAME_BYTES {
        let len = u32::from_le_bytes([
            bytes[offset],
            bytes[offset + 1],
            bytes[offset + 2],
            bytes[offset + 3],
        ]) as usize;
        let seq = u64::from_le_bytes(
            bytes[offset + 4..offset + 12].try_into().unwrap_or_default(),
        );
        let hash = u64::from_le_bytes(
            bytes[offset + 12..offset + 20].try_into().unwrap_or_default(),
        );
        let start = offset + FRAME_BYTES;
        let Some(end) = start.checked_add(len) else {
            break; // Absurd length: corrupt frame, stop here.
        };
        if end > bytes.len() {
            break; // Payload runs past EOF: torn append.
        }
        let payload = &bytes[start..end];
        if fnv1a64(payload) != hash {
            break; // Bytes flipped mid-record: stop at the clean prefix.
        }
        records.push(Record {
            seq,
            payload: payload.to_vec(),
        });
        offset = end;
    }
    (records, offset)
}

/// An append-only journal file.
#[derive(Debug)]
pub struct Journal {
    path: PathBuf,
    file: fs::File,
    bytes: u64,
    records: u64,
}

impl Journal {
    /// Opens (creating if needed) the journal at `path`, replaying every
    /// intact record and truncating any torn tail left by a crash.
    ///
    /// # Errors
    ///
    /// Filesystem failures opening, reading, or repairing the file.
    pub fn open(path: impl Into<PathBuf>) -> std::io::Result<(Journal, Vec<Record>)> {
        let path = path.into();
        let bytes = match fs::read(&path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(e),
        };
        let (records, clean_len) = decode_records(&bytes);
        if clean_len < bytes.len() {
            // Torn tail: repair in place so appends resume cleanly.
            fs::write(&path, &bytes[..clean_len])?;
        }
        let file = fs::OpenOptions::new().create(true).append(true).open(&path)?;
        let journal = Journal {
            path,
            file,
            bytes: clean_len as u64,
            records: records.len() as u64,
        };
        Ok((journal, records))
    }

    /// Appends one record and flushes it to the file.
    ///
    /// # Errors
    ///
    /// Filesystem write failures.
    pub fn append(&mut self, seq: u64, payload: &[u8]) -> std::io::Result<()> {
        let bytes = encode_record(seq, payload);
        self.file.write_all(&bytes)?;
        self.file.flush()?;
        self.bytes += bytes.len() as u64;
        self.records += 1;
        Ok(())
    }

    /// Bytes currently in the journal's clean prefix.
    pub fn len_bytes(&self) -> u64 {
        self.bytes
    }

    /// Records appended (or replayed) so far.
    pub fn len_records(&self) -> u64 {
        self.records
    }

    /// The journal file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Atomically rewrites the journal to hold only records with
    /// `seq > keep_after` — the snapshot-rotation truncation. The rewrite
    /// goes through a temp file + rename, so a crash leaves either the
    /// old journal or the new one, never a mix.
    ///
    /// # Errors
    ///
    /// Filesystem failures reading, writing, or renaming.
    pub fn truncate_through(&mut self, keep_after: u64) -> std::io::Result<()> {
        let bytes = fs::read(&self.path)?;
        let (records, _) = decode_records(&bytes);
        let mut kept = Vec::new();
        let mut count = 0u64;
        for record in records.iter().filter(|r| r.seq > keep_after) {
            kept.extend_from_slice(&encode_record(record.seq, &record.payload));
            count += 1;
        }
        let tmp = self.path.with_extension("tmp");
        {
            let mut f = fs::File::create(&tmp)?;
            f.write_all(&kept)?;
        }
        fs::rename(&tmp, &self.path)?;
        self.file = fs::OpenOptions::new().append(true).open(&self.path)?;
        self.bytes = kept.len() as u64;
        self.records = count;
        Ok(())
    }
}

const MAGIC: &str = "ESPRESSO-FLEET v1";

/// Why a snapshot could not be read or written.
#[derive(Debug)]
pub enum SnapshotError {
    /// Filesystem failure.
    Io(std::io::Error),
    /// Files exist but none verifies: bad header, length mismatch,
    /// checksum mismatch.
    Corrupt {
        /// Which file, and what was wrong with it.
        message: String,
    },
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "snapshot I/O error: {e}"),
            SnapshotError::Corrupt { message } => write!(f, "corrupt snapshot: {message}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<std::io::Error> for SnapshotError {
    fn from(e: std::io::Error) -> Self {
        SnapshotError::Io(e)
    }
}

/// The header line (without its newline) for a payload of `len` bytes
/// hashing to `hash`.
fn snapshot_header(len: usize, hash: u64) -> String {
    format!("{MAGIC} len={len} fnv1a64={hash:016x}")
}

/// Wraps `payload` in the checksummed snapshot file format.
pub fn encode_snapshot(payload: &[u8]) -> Vec<u8> {
    let mut bytes = snapshot_header(payload.len(), fnv1a64(payload)).into_bytes();
    bytes.push(b'\n');
    bytes.extend_from_slice(payload);
    bytes
}

/// Verifies and unwraps a snapshot file, returning the payload.
///
/// # Errors
///
/// [`SnapshotError::Corrupt`] naming the first integrity violation: bad
/// magic, malformed or missing header fields, payload length mismatch, or
/// checksum mismatch, or a header that is not byte for byte the one
/// [`encode_snapshot`] writes for the values it parsed to (a tab, an
/// upper-case hex digit, a `+` sign, a leading zero or reordered fields
/// all parse to the same values but are damage). Every single-byte
/// substitution anywhere in the file trips one of these (the same
/// argument as the checkpoint format: FNV-1a rounds are bijections, so
/// equal-length payload substitutions always change the hash, and header
/// damage fails the parse or the re-render).
pub fn decode_snapshot(bytes: &[u8]) -> Result<Vec<u8>, SnapshotError> {
    let corrupt = |message: String| SnapshotError::Corrupt { message };
    let newline = bytes
        .iter()
        .position(|&b| b == b'\n')
        .ok_or_else(|| corrupt("missing header line".into()))?;
    let header = std::str::from_utf8(&bytes[..newline])
        .map_err(|_| corrupt("header is not UTF-8".into()))?;
    let rest = header
        .strip_prefix(MAGIC)
        .ok_or_else(|| corrupt(format!("bad magic in header `{header}`")))?;
    let mut len: Option<usize> = None;
    let mut hash: Option<u64> = None;
    for field in rest.split_whitespace() {
        if let Some(v) = field.strip_prefix("len=") {
            len = Some(v.parse().map_err(|_| corrupt(format!("bad len field `{v}`")))?);
        } else if let Some(v) = field.strip_prefix("fnv1a64=") {
            hash = Some(
                u64::from_str_radix(v, 16)
                    .map_err(|_| corrupt(format!("bad fnv1a64 field `{v}`")))?,
            );
        } else {
            return Err(corrupt(format!("unknown header field `{field}`")));
        }
    }
    let len = len.ok_or_else(|| corrupt("header missing len field".into()))?;
    let hash = hash.ok_or_else(|| corrupt("header missing fnv1a64 field".into()))?;
    if header != snapshot_header(len, hash) {
        return Err(corrupt(format!("header `{header}` is not in canonical form")));
    }
    let payload = &bytes[newline + 1..];
    if payload.len() != len {
        return Err(corrupt(format!(
            "payload is {} bytes, header says {len} (torn write?)",
            payload.len()
        )));
    }
    let actual = fnv1a64(payload);
    if actual != hash {
        return Err(corrupt(format!(
            "checksum mismatch: payload hashes to {actual:016x}, header says {hash:016x}"
        )));
    }
    Ok(payload.to_vec())
}

/// Which snapshot generation a load came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Generation {
    /// `snapshot.json` verified.
    Current,
    /// `snapshot.json` was missing or corrupt; `snapshot.prev.json`
    /// verified.
    Previous,
}

/// A two-generation snapshot directory, in the mold of the training
/// runtime's `CheckpointStore`: `snapshot.json` (current) and
/// `snapshot.prev.json` (previous good generation).
#[derive(Debug, Clone)]
pub struct SnapshotStore {
    dir: PathBuf,
}

impl SnapshotStore {
    /// Opens (creating if needed) the snapshot directory.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Io`] if the directory cannot be created.
    pub fn new(dir: impl Into<PathBuf>) -> Result<Self, SnapshotError> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(Self { dir })
    }

    /// Path of the current snapshot file.
    pub fn current_path(&self) -> PathBuf {
        self.dir.join("snapshot.json")
    }

    /// Path of the previous-generation snapshot file.
    pub fn prev_path(&self) -> PathBuf {
        self.dir.join("snapshot.prev.json")
    }

    /// Atomically persists `payload`: temp write, rotate current to
    /// previous, rename into place. A crash between any two operations
    /// leaves at least one loadable generation.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Io`] on any filesystem failure.
    pub fn save(&self, payload: &[u8]) -> Result<(), SnapshotError> {
        let tmp = self.dir.join("snapshot.tmp");
        {
            let mut f = fs::File::create(&tmp)?;
            f.write_all(&encode_snapshot(payload))?;
        }
        let current = self.current_path();
        if current.exists() {
            fs::rename(&current, self.prev_path())?;
        }
        fs::rename(&tmp, &current)?;
        Ok(())
    }

    /// Loads the newest intact generation's payload. `Ok(None)` when no
    /// snapshot exists at all (a fresh directory, not an error).
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Corrupt`] when files exist but none verifies
    /// (naming the current generation's violation); [`SnapshotError::Io`]
    /// for filesystem failures other than not-found.
    pub fn load(&self) -> Result<Option<(Vec<u8>, Generation)>, SnapshotError> {
        let mut first_corruption: Option<String> = None;
        for (path, generation) in [
            (self.current_path(), Generation::Current),
            (self.prev_path(), Generation::Previous),
        ] {
            let bytes = match fs::read(&path) {
                Ok(bytes) => bytes,
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => continue,
                Err(e) => return Err(e.into()),
            };
            match decode_snapshot(&bytes) {
                Ok(payload) => return Ok(Some((payload, generation))),
                Err(e) => {
                    first_corruption.get_or_insert_with(|| format!("{}: {e}", path.display()));
                }
            }
        }
        match first_corruption {
            None => Ok(None),
            Some(message) => Err(SnapshotError::Corrupt { message }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "espresso-journal-{tag}-{}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn records_round_trip_and_tolerate_torn_tails() {
        let payloads: Vec<&[u8]> = vec![b"alpha", b"", b"a longer third payload"];
        let mut bytes = Vec::new();
        for (i, p) in payloads.iter().enumerate() {
            bytes.extend_from_slice(&encode_record(i as u64 + 1, p));
        }
        let (records, clean) = decode_records(&bytes);
        assert_eq!(clean, bytes.len());
        assert_eq!(records.len(), 3);
        assert_eq!(records[2].payload, payloads[2]);
        assert_eq!(records[1].seq, 2);

        // Every truncation of the file recovers exactly the records whose
        // full frames survive — never a partial record, never a panic.
        let bounds: Vec<usize> = {
            let mut b = vec![0];
            let mut acc = 0;
            for p in &payloads {
                acc += FRAME_BYTES + p.len();
                b.push(acc);
            }
            b
        };
        for cut in 0..=bytes.len() {
            let (records, clean) = decode_records(&bytes[..cut]);
            let expected = bounds.iter().filter(|&&b| b <= cut).count() - 1;
            assert_eq!(records.len(), expected, "cut at {cut}");
            assert_eq!(clean, bounds[expected], "cut at {cut}");
        }
    }

    #[test]
    fn corrupt_record_stops_replay_at_the_clean_prefix() {
        let mut bytes = encode_record(1, b"first");
        let first_len = bytes.len();
        bytes.extend_from_slice(&encode_record(2, b"second"));
        // Flip a payload byte of the second record.
        let pos = first_len + FRAME_BYTES + 2;
        bytes[pos] ^= 0x01;
        let (records, clean) = decode_records(&bytes);
        assert_eq!(records.len(), 1);
        assert_eq!(clean, first_len);
    }

    #[test]
    fn journal_survives_reopen_and_repairs_torn_tail() {
        let dir = temp_dir("reopen");
        let path = dir.join("journal.log");
        {
            let (mut journal, replayed) = Journal::open(&path).unwrap();
            assert!(replayed.is_empty());
            journal.append(1, b"one").unwrap();
            journal.append(2, b"two").unwrap();
        }
        // Simulate a crash mid-append: append garbage half-frame.
        let mut bytes = fs::read(&path).unwrap();
        let clean_len = bytes.len();
        bytes.extend_from_slice(&[9, 0, 0, 0, 1, 2, 3]);
        fs::write(&path, &bytes).unwrap();

        let (mut journal, replayed) = Journal::open(&path).unwrap();
        assert_eq!(replayed.len(), 2);
        assert_eq!(replayed[1].payload, b"two");
        assert_eq!(journal.len_bytes(), clean_len as u64, "tail repaired");
        // Appending after repair produces a decodable file.
        journal.append(3, b"three").unwrap();
        let (records, _) = decode_records(&fs::read(&path).unwrap());
        assert_eq!(records.len(), 3);
        assert_eq!(records[2].seq, 3);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncate_through_keeps_only_newer_records() {
        let dir = temp_dir("truncate");
        let path = dir.join("journal.log");
        let (mut journal, _) = Journal::open(&path).unwrap();
        for seq in 1..=5u64 {
            journal.append(seq, format!("r{seq}").as_bytes()).unwrap();
        }
        journal.truncate_through(3).unwrap();
        assert_eq!(journal.len_records(), 2);
        let (records, _) = decode_records(&fs::read(&path).unwrap());
        assert_eq!(
            records.iter().map(|r| r.seq).collect::<Vec<_>>(),
            vec![4, 5]
        );
        // Appends keep working on the rewritten file.
        journal.append(6, b"r6").unwrap();
        let (records, _) = decode_records(&fs::read(&path).unwrap());
        assert_eq!(records.len(), 3);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn snapshot_file_detects_every_single_byte_substitution() {
        let payload = br#"{"version":1,"seq":9,"jobs":[]}"#;
        let bytes = encode_snapshot(payload);
        assert_eq!(decode_snapshot(&bytes).unwrap(), payload);
        for pos in 0..bytes.len() {
            for mask in [0x01u8, 0x20, 0x80] {
                let mut flipped = bytes.clone();
                flipped[pos] ^= mask;
                // Even a substitution that parses to the same values
                // (a hex-case flip in the checksum field) fails the
                // canonical re-render.
                match decode_snapshot(&flipped) {
                    Err(SnapshotError::Corrupt { .. }) => {}
                    Ok(_) => panic!("substitution at byte {pos} (mask {mask:#x}) went undetected"),
                    Err(e) => panic!("unexpected error at byte {pos}: {e}"),
                }
            }
        }
        for cut in [0, 5, bytes.len() / 2, bytes.len() - 1] {
            assert!(matches!(
                decode_snapshot(&bytes[..cut]),
                Err(SnapshotError::Corrupt { .. })
            ));
        }
    }

    /// `bytes` with its header line replaced by `edit(header)`.
    fn with_header(bytes: &[u8], edit: impl Fn(&str) -> String) -> Vec<u8> {
        let newline = bytes.iter().position(|&b| b == b'\n').unwrap();
        let header = std::str::from_utf8(&bytes[..newline]).unwrap();
        let edited = edit(header);
        assert_ne!(edited, header, "the edit must change the header");
        let mut out = edited.into_bytes();
        out.extend_from_slice(&bytes[newline..]);
        out
    }

    /// A header that parses to the same values as the canonical one but
    /// is not byte for byte what the encoder writes.
    fn assert_non_canonical_rejected(edit: impl Fn(&str) -> String) {
        // The payload is chosen so its checksum has a hex letter to
        // upper-case.
        let bytes = encode_snapshot(b"{\"version\":1,\"seq\":3,\"jobs\":[]}");
        let damaged = with_header(&bytes, edit);
        assert!(
            matches!(decode_snapshot(&damaged), Err(SnapshotError::Corrupt { .. })),
            "header `{}` was accepted",
            String::from_utf8_lossy(&damaged[..damaged.iter().position(|&b| b == b'\n').unwrap()])
        );
    }

    #[test]
    fn snapshot_header_with_a_tab_is_corrupt() {
        assert_non_canonical_rejected(|h| h.replacen(" len=", "\tlen=", 1));
    }

    #[test]
    fn snapshot_header_with_upper_case_hex_is_corrupt() {
        assert_non_canonical_rejected(|h| {
            let (head, hex) = h.rsplit_once('=').unwrap();
            format!("{head}={}", hex.to_uppercase())
        });
    }

    #[test]
    fn snapshot_header_with_a_plus_sign_is_corrupt() {
        assert_non_canonical_rejected(|h| h.replacen("len=", "len=+", 1));
    }

    #[test]
    fn snapshot_header_with_leading_zeros_is_corrupt() {
        assert_non_canonical_rejected(|h| h.replacen("len=", "len=00", 1));
    }

    #[test]
    fn snapshot_header_with_reordered_fields_is_corrupt() {
        assert_non_canonical_rejected(|h| {
            let mut fields: Vec<&str> = h.split(' ').collect();
            let n = fields.len();
            fields.swap(n - 2, n - 1);
            fields.join(" ")
        });
    }

    #[test]
    fn store_rotates_and_falls_back_on_corruption() {
        let dir = temp_dir("store");
        let store = SnapshotStore::new(&dir).unwrap();
        assert!(store.load().unwrap().is_none());

        store.save(b"gen-1").unwrap();
        store.save(b"gen-2").unwrap();
        let (payload, generation) = store.load().unwrap().unwrap();
        assert_eq!((payload.as_slice(), generation), (b"gen-2".as_slice(), Generation::Current));
        assert!(store.prev_path().exists());

        // Corrupt the current generation: load falls back to previous.
        let mut bytes = fs::read(store.current_path()).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        fs::write(store.current_path(), &bytes).unwrap();
        let (payload, generation) = store.load().unwrap().unwrap();
        assert_eq!((payload.as_slice(), generation), (b"gen-1".as_slice(), Generation::Previous));

        // Corrupt both: a Corrupt error naming the current file.
        fs::write(store.prev_path(), b"garbage").unwrap();
        match store.load() {
            Err(SnapshotError::Corrupt { message }) => {
                assert!(message.contains("snapshot.json"), "{message}");
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
        let _ = fs::remove_dir_all(&dir);
    }
}
