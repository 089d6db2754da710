//! Durable framed files, under both the training checkpoint and the
//! fleet snapshot: one header, one streamed writer, one verify-then-decode
//! reader and one two-generation store.
//!
//! ```text
//! <MAGIC vN> len=<N>[ meta=<M>] <fnv1a64|lane64>=<16 hex digits>\n
//! <N bytes of payload>
//! ```
//!
//! The payload's first `M` bytes (all `N` without `meta`) are *kept*: the
//! reader returns them. The rest is the *section*, which the writer
//! streams from a callback and the reader streams through the checksum,
//! leaving its decoding to the caller once the payload verified. The
//! header must end within [`MAX_HEADER`] bytes and be byte for byte what
//! [`Format::header`] renders for the values it parses to, so damage that
//! parses to the same values (a tab, a `+` sign, a leading zero,
//! upper-case hex, reordered fields) is caught. Both checksums change
//! under every single-byte substitution at equal length (see
//! [`fnv1a64`](crate::fnv1a64) and [`lane64`](crate::lane64())), and `len`
//! catches the rest, so any one substituted byte in a file is detected.
//!
//! A [`Store`] is a directory and a file stem: `<stem>.json` holds the
//! current generation, `<stem>.prev.json` the previous one. `save`
//! streams the file into `<stem>.tmp` through a 64 KB buffer, renames the
//! current file to the previous one, then the temp file into place.
//! `load` returns the newest generation that verifies; when that is the
//! previous one, it first renames it over the current file, so the next
//! `save` rotates a good generation into `prev`, not the corrupt one. A
//! process crash (`kill -9`) between any two of these operations leaves
//! at least one intact generation on disk. Nothing is fsynced, so this
//! does not survive a power loss or kernel crash: a renamed file's data
//! may never have reached the disk.

use std::fmt;
use std::fs;
use std::io::{self, BufRead, BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use crate::{fnv1a64_extend, Lane64};

/// Longer than any header line a format writes: a first line that does
/// not end within it is corrupt.
pub const MAX_HEADER: u64 = 256;

/// The checksum a header names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sum {
    /// FNV-1a 64, header field `fnv1a64=`.
    Fnv1a64,
    /// Lane64, header field `lane64=`.
    Lane64,
}

/// One framed file format.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Format {
    /// The header's leading words, such as `ESPRESSO-CKPT v3`.
    pub magic: &'static str,
    /// Whether the header carries `meta=<M>`, the length of the kept
    /// prefix. Without it the whole payload is kept.
    pub meta: bool,
    /// The payload checksum.
    pub sum: Sum,
}

impl Format {
    /// The header line, without its newline, of a `len`-byte payload whose
    /// first `kept` bytes are kept and whose checksum is `sum`.
    pub fn header(&self, len: u64, kept: u64, sum: u64) -> String {
        let magic = self.magic;
        let name = match self.sum {
            Sum::Fnv1a64 => "fnv1a64",
            Sum::Lane64 => "lane64",
        };
        if self.meta {
            format!("{magic} len={len} meta={kept} {name}={sum:016x}")
        } else {
            format!("{magic} len={len} {name}={sum:016x}")
        }
    }

    /// The `(len, kept, sum)` of a header line that starts with the magic,
    /// if the line is byte for byte [`Format::header`] of those values.
    fn parse(&self, header: &str) -> Option<(u64, u64, u64)> {
        let mut values = header[self.magic.len()..]
            .split_whitespace()
            .map(|field| field.split_once('=').map_or("", |(_, value)| value));
        let mut next = |radix| u64::from_str_radix(values.next()?, radix).ok();
        let len = next(10)?;
        let kept = if self.meta { next(10)? } else { len };
        let sum = next(16)?;
        (header == self.header(len, kept, sum)).then_some((len, kept, sum))
    }
}

impl Sum {
    /// The checksum of the bytes `feed` passes to its sink, in order.
    fn of(
        self,
        feed: impl FnOnce(&mut dyn FnMut(&[u8])) -> Result<(), Error>,
    ) -> Result<u64, Error> {
        Ok(match self {
            Sum::Fnv1a64 => {
                let mut hash = crate::fnv1a64(&[]);
                feed(&mut |bytes| hash = fnv1a64_extend(hash, bytes))?;
                hash
            }
            Sum::Lane64 => {
                let mut sum = Lane64::new();
                feed(&mut |bytes| sum.update(bytes))?;
                sum.finish()
            }
        })
    }
}

/// The streamed part of a payload. The writer calls it twice, once into
/// the checksum and once into the file, and it must feed the same bytes
/// in the same order both times. A format without `meta` has no section.
pub type Section<'a> = &'a dyn Fn(&mut dyn FnMut(&[u8]));

/// Writes one framed file in two passes, the checksum and length first,
/// so nothing the size of the payload is allocated.
///
/// # Errors
///
/// [`Error::Io`] with the first error `out` returns.
pub fn write(
    out: &mut impl Write,
    format: Format,
    kept: &[u8],
    section: Section,
) -> Result<(), Error> {
    let mut len = kept.len() as u64;
    let sum = format.sum.of(|sink| {
        sink(kept);
        section(&mut |bytes| {
            len += bytes.len() as u64;
            sink(bytes);
        });
        Ok(())
    })?;
    debug_assert!(
        format.meta || len == kept.len() as u64,
        "a section needs a meta field"
    );
    let header = format.header(len, kept.len() as u64, sum);
    out.write_all(header.as_bytes())?;
    out.write_all(b"\n")?;
    out.write_all(kept)?;
    let mut written = Ok(());
    section(&mut |bytes| {
        if written.is_ok() {
            written = out.write_all(bytes);
        }
    });
    Ok(written?)
}

/// [`write()`] into memory: the bytes [`Store::save`] streams into its file.
pub fn encode(format: Format, kept: &[u8], section: Section) -> Vec<u8> {
    let mut bytes = Vec::new();
    write(&mut bytes, format, kept, section).expect("writing into a Vec cannot fail");
    bytes
}

/// A verified frame.
#[derive(Debug)]
pub struct Frame {
    /// The format its header named.
    pub format: Format,
    /// The kept prefix of the payload.
    pub kept: Vec<u8>,
    /// Bytes of the section, which the input is positioned at.
    pub section: u64,
}

/// Verifies the `file_len`-byte file `input` starts with (in one of
/// `formats`), keeping the kept prefix and streaming the section through
/// the checksum, then seeks back to the section: the caller decodes
/// nothing unverified, and no copy of the section is made.
///
/// # Errors
///
/// [`Error::Corrupt`] naming the first integrity violation; [`Error::Io`]
/// for other read failures.
pub fn read<R: BufRead + Seek>(
    input: &mut R,
    file_len: u64,
    formats: &[Format],
) -> Result<Frame, Error> {
    let mut line = Vec::new();
    input
        .by_ref()
        .take(MAX_HEADER)
        .read_until(b'\n', &mut line)?;
    if line.pop() != Some(b'\n') {
        return Err(corrupt(format!(
            "no header line in the first {MAX_HEADER} bytes"
        )));
    }
    let header = std::str::from_utf8(&line).map_err(|_| corrupt("header is not UTF-8"))?;
    let format = *formats
        .iter()
        .find(|f| header.starts_with(f.magic))
        .ok_or_else(|| corrupt(format!("bad magic in header `{}`", excerpt(header))))?;
    let (len, kept, sum) = format.parse(header).ok_or_else(|| {
        corrupt(format!(
            "header `{}` is malformed or not in canonical form",
            excerpt(header)
        ))
    })?;
    let header_len = line.len() as u64 + 1;
    let payload_len = file_len.saturating_sub(header_len);
    if payload_len != len {
        return Err(corrupt(format!(
            "payload is {payload_len} bytes, header says {len} (torn write?)"
        )));
    }
    // The kept prefix is at most the payload, which the file holds.
    if kept > len {
        return Err(corrupt(format!(
            "meta={kept} exceeds the {len}-byte payload"
        )));
    }
    let mut bytes = vec![0; usize::try_from(kept).map_err(|_| corrupt("metadata too large"))?];
    let actual = format.sum.of(|sink| {
        input.read_exact(&mut bytes)?;
        sink(&bytes);
        let mut rest = len - kept;
        while rest > 0 {
            let buf = input.fill_buf()?;
            if buf.is_empty() {
                return Err(io::Error::from(io::ErrorKind::UnexpectedEof).into());
            }
            let take = buf.len().min(usize::try_from(rest).unwrap_or(usize::MAX));
            sink(&buf[..take]);
            input.consume(take);
            rest -= take as u64;
        }
        Ok(())
    })?;
    if actual != sum {
        return Err(corrupt(format!(
            "checksum mismatch: payload hashes to {actual:016x}, header says {sum:016x}"
        )));
    }
    if len > kept {
        input.seek(SeekFrom::Start(header_len + kept))?;
    }
    Ok(Frame {
        format,
        kept: bytes,
        section: len - kept,
    })
}

/// Why a framed file could not be saved or loaded.
#[derive(Debug)]
pub enum Error {
    /// Filesystem failure (create, write, rename, read).
    Io(io::Error),
    /// The file exists but is torn or corrupt: bad header, length or
    /// checksum mismatch, or a payload that does not decode. From a
    /// [`Store`], no other generation loaded either.
    Corrupt {
        /// Which file, and what was wrong with it.
        message: String,
    },
}

/// An [`Error::Corrupt`] carrying `message`.
pub fn corrupt(message: impl Into<String>) -> Error {
    Error::Corrupt {
        message: message.into(),
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Io(e) => write!(f, "I/O error: {e}"),
            Error::Corrupt { message } => write!(f, "corrupt file: {message}"),
        }
    }
}

impl std::error::Error for Error {}

/// A read that ran out of bytes met a file shorter than its header said
/// (it shrank while being read): corruption, not an I/O failure.
impl From<io::Error> for Error {
    fn from(e: io::Error) -> Self {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            corrupt("the file ended before the length its header gives")
        } else {
            Error::Io(e)
        }
    }
}

/// At most 64 characters of `text`, for error messages about headers
/// that may run into the payload.
fn excerpt(text: &str) -> String {
    match text.char_indices().nth(64) {
        Some((cut, _)) => format!("{}…", &text[..cut]),
        None => text.to_string(),
    }
}

/// Which generation a load came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Generation {
    /// The current file verified.
    Current,
    /// The current file was missing or corrupt and the previous one
    /// verified; it is now the current file.
    Previous,
}

/// The input a [`Store`] decodes a verified [`Frame`]'s section from.
pub type Input = BufReader<fs::File>;

/// A two-generation directory of one kind of framed file (see the module
/// docs), read in any of its formats and written in the first.
#[derive(Debug, Clone)]
pub struct Store {
    dir: PathBuf,
    stem: &'static str,
    formats: &'static [Format],
}

impl Store {
    /// Opens (creating if needed) `dir` for files named after `stem` in
    /// `formats`, the first of which is written.
    ///
    /// # Errors
    ///
    /// [`Error::Io`] if the directory cannot be created.
    pub fn new(
        dir: impl Into<PathBuf>,
        stem: &'static str,
        formats: &'static [Format],
    ) -> Result<Self, Error> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(Self { dir, stem, formats })
    }

    /// Path of the current generation, `<stem>.json`.
    pub fn current_path(&self) -> PathBuf {
        self.dir.join(format!("{}.json", self.stem))
    }

    /// Path of the previous generation, `<stem>.prev.json`.
    pub fn prev_path(&self) -> PathBuf {
        self.dir.join(format!("{}.prev.json", self.stem))
    }

    /// Streams [`write()`]'s file into `<stem>.tmp`, rotates the current
    /// file to the previous one and renames the temp file into place.
    ///
    /// # Errors
    ///
    /// [`Error::Io`] on any filesystem failure.
    pub fn save(&self, kept: &[u8], section: Section) -> Result<(), Error> {
        let tmp = self.dir.join(format!("{}.tmp", self.stem));
        let mut out = BufWriter::with_capacity(1 << 16, fs::File::create(&tmp)?);
        write(&mut out, self.formats[0], kept, section)?;
        out.flush()?;
        drop(out);
        let current = self.current_path();
        if current.exists() {
            fs::rename(&current, self.prev_path())?;
        }
        fs::rename(&tmp, &current)?;
        Ok(())
    }

    /// Loads the newest generation that verifies and `decode`s, promoting
    /// the previous one to current when it is that one. `Ok(None)` when
    /// neither file exists.
    ///
    /// # Errors
    ///
    /// [`Error::Corrupt`] naming the first file's violation when files
    /// exist but none loads; [`Error::Io`] for filesystem failures other
    /// than not-found.
    pub fn load<T>(
        &self,
        mut decode: impl FnMut(Frame, &mut Input) -> Result<T, Error>,
    ) -> Result<Option<(T, Generation)>, Error> {
        let mut first_corruption = None;
        for (path, generation) in [
            (self.current_path(), Generation::Current),
            (self.prev_path(), Generation::Previous),
        ] {
            match self.read(&path, &mut decode) {
                Ok(None) => {}
                Ok(Some(value)) => {
                    if generation == Generation::Previous {
                        fs::rename(&path, self.current_path())?;
                    }
                    return Ok(Some((value, generation)));
                }
                Err(Error::Corrupt { message }) => {
                    first_corruption
                        .get_or_insert_with(|| format!("{}: {message}", path.display()));
                }
                Err(e) => return Err(e),
            }
        }
        match first_corruption {
            None => Ok(None),
            Some(message) => Err(Error::Corrupt { message }),
        }
    }

    /// Loads the previous generation alone (errors as [`Store::load`]).
    pub fn load_prev<T>(
        &self,
        mut decode: impl FnMut(Frame, &mut Input) -> Result<T, Error>,
    ) -> Result<Option<T>, Error> {
        self.read(&self.prev_path(), &mut decode)
    }

    /// Verifies and decodes the file at `path`; `Ok(None)` if it does not
    /// exist.
    fn read<T>(
        &self,
        path: &Path,
        decode: &mut impl FnMut(Frame, &mut Input) -> Result<T, Error>,
    ) -> Result<Option<T>, Error> {
        let file = match fs::File::open(path) {
            Ok(file) => file,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e.into()),
        };
        let len = file.metadata()?.len();
        let mut input = BufReader::with_capacity(1 << 16, file);
        let frame = read(&mut input, len, self.formats)?;
        decode(frame, &mut input).map(Some)
    }
}
