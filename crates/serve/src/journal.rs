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
//! [`Journal::open`] truncates the file back to that prefix (one
//! `set_len` on the handle it appends with, so the prefix is never
//! rewritten) so the next append starts from a well-formed tail.
//!
//! # Snapshot format and rotation
//!
//! A snapshot bounds replay time. The full state is written as a framed
//! file of [`espresso_json::durable`] without a `meta` field, so the whole
//! payload is kept and any single flipped byte in the file is detected:
//!
//! ```text
//! ESPRESSO-FLEET v1 len=<N> fnv1a64=<16 hex digits>\n
//! <exactly N bytes of compact JSON payload>
//! ```
//!
//! [`SnapshotStore`] is the durable [`Store`] under the stem `snapshot`.
//! Recovery replays the journal suffix (records with a sequence number
//! past the snapshot's) on top, so a corrupt current snapshot costs
//! nothing but a longer replay.
//!
//! Durability note: appends flush to the file, so they survive `kill -9`
//! of the process (the bytes are in the page cache and the file), as the
//! snapshot store does. Nothing is fsynced: whole-machine power loss or a
//! kernel crash can lose the last instants. That is the same trade the
//! decision cache's clients make, and the recovery path tolerates the
//! resulting torn tail either way.

use std::fs;
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

use espresso_json::durable::{self, Format, Store, Sum};
use espresso_json::fnv1a64;

pub use espresso_json::durable::Generation;

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
        let mut file = fs::OpenOptions::new()
            .create(true)
            .read(true)
            .append(true)
            .open(&path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;
        let (records, clean_len) = decode_records(&bytes);
        if clean_len < bytes.len() {
            // Torn tail: cut it off in one truncation, so appends resume
            // cleanly and the clean prefix is never rewritten.
            file.set_len(clean_len as u64)?;
        }
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

/// Why a snapshot could not be read or written: the durable layer's
/// error.
pub type SnapshotError = durable::Error;

const SNAPSHOT: Format = Format {
    magic: "ESPRESSO-FLEET v1",
    meta: false,
    sum: Sum::Fnv1a64,
};

/// A two-generation snapshot directory: the durable [`Store`] with stem
/// `snapshot`, so `snapshot.json` (current) and `snapshot.prev.json`
/// (previous good generation).
#[derive(Debug, Clone)]
pub struct SnapshotStore(Store);

impl SnapshotStore {
    /// Opens (creating if needed) the snapshot directory: [`Store::new`].
    pub fn new(dir: impl Into<PathBuf>) -> Result<Self, SnapshotError> {
        Store::new(dir, "snapshot", &[SNAPSHOT]).map(Self)
    }

    /// Persists `payload` through [`Store::save`].
    pub fn save(&self, payload: &[u8]) -> Result<(), SnapshotError> {
        self.0.save(payload, &|_| {})
    }

    /// The newest intact generation's payload, through [`Store::load`].
    pub fn load(&self) -> Result<Option<(Vec<u8>, Generation)>, SnapshotError> {
        self.0.load(|frame, _| Ok(frame.kept))
    }

    /// The previous generation's payload, when that file verifies.
    pub fn load_prev(&self) -> Option<Vec<u8>> {
        self.0.load_prev(|frame, _| Ok(frame.kept)).ok().flatten()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn encode_snapshot(payload: &[u8]) -> Vec<u8> {
        durable::encode(SNAPSHOT, payload, &|_| {})
    }

    fn decode_snapshot(bytes: &[u8]) -> Result<Vec<u8>, SnapshotError> {
        let mut input = std::io::Cursor::new(bytes);
        durable::read(&mut input, bytes.len() as u64, &[SNAPSHOT]).map(|frame| frame.kept)
    }

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

    #[test]
    fn store_rotates_and_falls_back_on_corruption() {
        let dir = temp_dir("store");
        let store = SnapshotStore::new(&dir).unwrap();
        assert!(store.load().unwrap().is_none());

        store.save(b"gen-1").unwrap();
        store.save(b"gen-2").unwrap();
        let (payload, generation) = store.load().unwrap().unwrap();
        assert_eq!((payload.as_slice(), generation), (b"gen-2".as_slice(), Generation::Current));
        assert!(store.0.prev_path().exists());

        // Corrupt the current generation: load falls back to previous.
        let mut bytes = fs::read(store.0.current_path()).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        fs::write(store.0.current_path(), &bytes).unwrap();
        let (payload, generation) = store.load().unwrap().unwrap();
        assert_eq!((payload.as_slice(), generation), (b"gen-1".as_slice(), Generation::Previous));

        // Corrupt both (the fallback made gen-1 current again): a Corrupt
        // error naming the current file.
        fs::write(store.0.current_path(), &bytes).unwrap();
        fs::write(store.0.prev_path(), b"garbage").unwrap();
        match store.load() {
            Err(SnapshotError::Corrupt { message }) => {
                assert!(message.contains("snapshot.json"), "{message}");
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
        let _ = fs::remove_dir_all(&dir);
    }

    /// A snapshot as the writer wrote it before the framing moved into
    /// `espresso_json::durable`, and its payload.
    const FIXTURE: &[u8] = include_bytes!("../tests/fixtures/small.v1.snapshot");
    const FIXTURE_PAYLOAD: &[u8] = br#"{"version":1,"seq":9,"clusters":{},"jobs":[]}"#;

    #[test]
    fn an_earlier_snapshot_decodes_and_is_rewritten_byte_for_byte() {
        assert_eq!(decode_snapshot(FIXTURE).unwrap(), FIXTURE_PAYLOAD);
        let dir = temp_dir("fixture");
        let store = SnapshotStore::new(&dir).unwrap();
        store.save(FIXTURE_PAYLOAD).unwrap();
        assert_eq!(fs::read(store.0.current_path()).unwrap(), FIXTURE);
        let (payload, generation) = store.load().unwrap().unwrap();
        assert_eq!(
            (payload.as_slice(), generation),
            (FIXTURE_PAYLOAD, Generation::Current)
        );
        let _ = fs::remove_dir_all(&dir);
    }

    /// A load that falls back promotes the previous generation, so the
    /// next save rotates it, not the corrupt file, into
    /// `snapshot.prev.json`.
    #[test]
    fn a_fallback_load_keeps_the_good_generation_through_the_next_save() {
        let dir = temp_dir("promote");
        let store = SnapshotStore::new(&dir).unwrap();
        store.save(b"gen-1").unwrap();
        store.save(b"gen-2").unwrap();
        let mut bytes = fs::read(store.0.current_path()).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        fs::write(store.0.current_path(), &bytes).unwrap();
        let (payload, generation) = store.load().unwrap().unwrap();
        assert_eq!(
            (payload.as_slice(), generation),
            (b"gen-1".as_slice(), Generation::Previous)
        );
        store.save(b"gen-3").unwrap();
        let prev = fs::read(store.0.prev_path()).unwrap();
        assert_eq!(decode_snapshot(&prev).unwrap(), b"gen-1");
        assert_eq!(store.load_prev().unwrap(), b"gen-1");
        let _ = fs::remove_dir_all(&dir);
    }
}
