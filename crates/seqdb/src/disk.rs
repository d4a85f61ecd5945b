//! Disk-resident sequence database.
//!
//! The paper assumes a database "far beyond the memory capacity" (§2.2), so
//! algorithm cost is dominated by full scans of the data. This module
//! provides a checksummed binary format and a reader whose
//! [`SequenceScan`] implementation streams the file with a buffered
//! reader, never materializing more than one sequence at a time, and counts
//! each scan. Scans are *fallible* ([`SequenceScan::try_scan`]) and run
//! under a [`FaultPolicy`]: fail fast, retry transient I/O, or quarantine
//! corrupt records and mine the surviving subset.
//!
//! ## Format v2 (current)
//!
//! ```text
//! header:
//!   magic   : 8 bytes  b"NMSEQDB\0"
//!   version : u32 LE   (2)
//!   count   : u64 LE   number of sequences
//! per sequence:
//!   id      : u64 LE
//!   len     : u32 LE   number of symbols
//!   crc     : u32 LE   CRC32C over id bytes ‖ len bytes ‖ data bytes
//!   data    : len × u16 LE symbol ids
//! footer:
//!   magic   : 8 bytes  b"NMSEQFT\0"
//!   count   : u64 LE   must equal the header count
//!   fcrc    : u32 LE   CRC32C over every preceding byte of the file
//! ```
//!
//! The per-record CRC localizes corruption to one sequence (so
//! [`FaultPolicy::Quarantine`] can skip it and resynchronize), while the
//! footer pins the record count and whole-file integrity — a single bit
//! flip anywhere in a finished v2 file, including one that zeroes the
//! header count, is detected by a strict scan. The flip side: a v2 file
//! whose writer died before [`DiskDbWriter::finish`] has no footer and
//! fails strict scans; reopen it with [`DiskDbWriter::append`] (which
//! truncates the unfinished tail) or scan it under `Quarantine`.
//!
//! ## Format v1 (read compatibility)
//!
//! Identical header with `version = 1`; records are `id ‖ len ‖ data` with
//! no checksum, and there is no footer. v1 files written by earlier
//! releases load and scan bit-identically through this reader. Bytes past
//! the counted records are tolerated on v1 (a crashed append's tail), as
//! before.

use std::fs::{File, OpenOptions};
use std::io::{self, BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

use noisemine_core::matching::SequenceScan;
use noisemine_core::{ScanError, ScanErrorKind, Symbol};

use crate::bytes::{ByteReader, ByteWriter};
use crate::crc::Crc32c;
use crate::fault::{FaultPlan, FaultPolicy, FaultyRead, QuarantinedRecord};

/// File magic for the sequence-database format.
pub const MAGIC: &[u8; 8] = b"NMSEQDB\0";
/// Current format version (checksummed records + footer).
pub const VERSION: u32 = 2;
/// Legacy format version (no checksums), still readable.
pub const VERSION_V1: u32 = 1;
/// Footer magic of format v2.
pub const FOOTER_MAGIC: &[u8; 8] = b"NMSEQFT\0";

/// Header length (shared by v1 and v2).
const HEADER_LEN: u64 = 20;
/// Footer length (v2 only).
const FOOTER_LEN: u64 = 20;
/// Record head length in v1: id + len.
const V1_HEAD_LEN: u64 = 12;
/// Record head length in v2: id + len + crc.
const V2_HEAD_LEN: u64 = 16;
/// Read buffer of a scan pass.
const SCAN_BUFFER: usize = 1 << 20;
/// Transient-fault retries granted per read under `Quarantine` — skipping
/// records is for *corruption*; a flaky device still deserves a few tries
/// before the scan gives up.
const QUARANTINE_TRANSIENT_ATTEMPTS: u32 = 3;

/// Errors from the disk layer.
#[derive(Debug)]
pub enum DiskError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The file is not a sequence database or is corrupt.
    Format(String),
}

impl std::fmt::Display for DiskError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DiskError::Io(e) => write!(f, "i/o error: {e}"),
            DiskError::Format(msg) => write!(f, "format error: {msg}"),
        }
    }
}

impl std::error::Error for DiskError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DiskError::Io(e) => Some(e),
            DiskError::Format(_) => None,
        }
    }
}

impl From<io::Error> for DiskError {
    fn from(e: io::Error) -> Self {
        DiskError::Io(e)
    }
}

impl From<ScanError> for DiskError {
    fn from(e: ScanError) -> Self {
        match e.kind() {
            ScanErrorKind::Corrupt | ScanErrorKind::Truncated => DiskError::Format(e.to_string()),
            ScanErrorKind::Transient | ScanErrorKind::Io => {
                DiskError::Io(io::Error::other(e.to_string()))
            }
        }
    }
}

/// Result alias for the disk layer.
pub type DiskResult<T> = Result<T, DiskError>;

/// Classifies an I/O error for the retry machinery: timeouts and
/// would-blocks are worth retrying, a short read means truncation,
/// everything else is a hard I/O fault.
fn classify_io(e: &io::Error) -> ScanErrorKind {
    match e.kind() {
        io::ErrorKind::TimedOut | io::ErrorKind::WouldBlock | io::ErrorKind::Interrupted => {
            ScanErrorKind::Transient
        }
        io::ErrorKind::UnexpectedEof => ScanErrorKind::Truncated,
        _ => ScanErrorKind::Io,
    }
}

fn io_scan_error(e: &io::Error, pos: u64) -> ScanError {
    ScanError::new(classify_io(e), e.to_string()).at_offset(pos)
}

/// `expect` reason for a field read from a buffer sized to hold it.
const FIXED: &str = "a fixed-size field fits its buffer";

/// A buffered reader that tracks its absolute position, retries transient
/// faults per the active policy, and restores its position on failed reads
/// so callers can resynchronize.
struct RetryReader {
    /// The file as the fault plan lets it be seen (as it is, under the
    /// empty plan every database outside the chaos harness has).
    inner: BufReader<FaultyRead<File>>,
    /// Absolute offset of the next byte a successful read returns. Kept
    /// valid across failed reads by rewinding in the error path.
    pos: u64,
    bytes_read: u64,
    attempts: u32,
    backoff: Duration,
}

impl RetryReader {
    fn pos(&self) -> u64 {
        self.pos
    }

    fn bytes_read(&self) -> u64 {
        self.bytes_read
    }

    /// Reads exactly `buf.len()` bytes, retrying transient faults up to the
    /// policy's budget. On any error the stream is rewound to the tracked
    /// position (`read_exact` leaves it unspecified on failure), so the
    /// reader stays consistent whether the caller retries, resynchronizes,
    /// or gives up.
    fn read_exact(&mut self, buf: &mut [u8]) -> Result<(), ScanError> {
        let mut tries = 0u32;
        loop {
            match self.inner.read_exact(buf) {
                Ok(()) => {
                    self.pos += buf.len() as u64;
                    self.bytes_read += buf.len() as u64;
                    return Ok(());
                }
                Err(e) => {
                    // Absolute seek: also discards the BufReader buffer,
                    // which a partial failed read may have invalidated.
                    self.inner
                        .seek(SeekFrom::Start(self.pos))
                        .map_err(|se| io_scan_error(&se, self.pos))?;
                    if classify_io(&e) == ScanErrorKind::Transient && tries < self.attempts {
                        tries += 1;
                        crate::obs::fault_retries().inc();
                        if !self.backoff.is_zero() {
                            std::thread::sleep(self.backoff);
                        }
                        continue;
                    }
                    return Err(io_scan_error(&e, self.pos));
                }
            }
        }
    }

    /// Repositions to absolute offset `pos`. Relative seeks keep the
    /// buffer warm when the target is nearby (the resync sweep moves one
    /// byte at a time).
    fn seek_to(&mut self, pos: u64) -> Result<(), ScanError> {
        if pos != self.pos {
            let delta = pos as i64 - self.pos as i64;
            self.inner
                .seek_relative(delta)
                .map_err(|e| io_scan_error(&e, self.pos))?;
            self.pos = pos;
        }
        Ok(())
    }
}

/// The fixed-size header every format version starts with.
struct Header {
    raw: [u8; HEADER_LEN as usize],
    magic_ok: bool,
    version: u32,
    count: u64,
}

/// Reads the header at the reader's position (the start of the file).
fn read_header(reader: &mut RetryReader) -> Result<Header, ScanError> {
    let mut raw = [0u8; HEADER_LEN as usize];
    reader.read_exact(&mut raw)?;
    let mut r = ByteReader::new(&raw);
    let magic_ok = r.take(8, "magic").expect(FIXED) == MAGIC;
    let version = r.u32("version").expect(FIXED);
    let count = r.u64("count").expect(FIXED);
    Ok(Header {
        raw,
        magic_ok,
        version,
        count,
    })
}

/// Record head length: id + len, plus the CRC on checksummed (v2) files.
fn head_len(checksummed: bool) -> u64 {
    if checksummed {
        V2_HEAD_LEN
    } else {
        V1_HEAD_LEN
    }
}

/// Decodes a record head into its id and symbol count; a v2 head's CRC
/// follows at byte 12.
fn parse_head(head: &[u8]) -> (u64, u64) {
    let mut r = ByteReader::new(head);
    let id = r.u64("record id").expect(FIXED);
    (id, r.u32("record length").expect(FIXED).into())
}

/// Decodes one record at the reader's current position, verifying its CRC
/// when `checksummed` (format v2). On success the symbols are in
/// `symbols`, the raw data bytes in `raw`, and the record's bytes have been
/// folded into `file_crc` (when given). Errors carry the record's start
/// offset and `index`.
fn read_record(
    reader: &mut RetryReader,
    index: u64,
    file_len: u64,
    checksummed: bool,
    symbols: &mut Vec<Symbol>,
    raw: &mut Vec<u8>,
    file_crc: Option<&mut Crc32c>,
) -> Result<u64, ScanError> {
    let start = reader.pos();
    let head_len = head_len(checksummed);
    let mut buf = [0u8; V2_HEAD_LEN as usize];
    let head = &mut buf[..head_len as usize];
    reader.read_exact(head).map_err(|e| e.at_record(index))?;
    let (id, len) = parse_head(head);
    // Bound the length before allocating: a corrupt length field must not
    // trigger a huge allocation or a long bogus read.
    if start + head_len + len * 2 > file_len {
        return Err(ScanError::new(
            ScanErrorKind::Corrupt,
            format!("record length {len} overruns the file"),
        )
        .at_offset(start)
        .at_record(index));
    }
    raw.resize((len * 2) as usize, 0);
    reader.read_exact(raw).map_err(|e| e.at_record(index))?;
    if checksummed {
        let stored = ByteReader::new(&head[12..]).u32("record crc").expect(FIXED);
        let mut crc = Crc32c::new();
        crc.update(&head[..12]);
        crc.update(raw);
        let computed = crc.finish();
        if computed != stored {
            crate::obs::fault_crc_failures().inc();
            return Err(ScanError::new(
                ScanErrorKind::Corrupt,
                format!(
                    "record checksum mismatch (stored {stored:#010x}, computed {computed:#010x})"
                ),
            )
            .at_offset(start)
            .at_record(index));
        }
        if let Some(fc) = file_crc {
            fc.update(head);
            fc.update(raw);
        }
    }
    symbols.clear();
    symbols.extend(
        raw.chunks_exact(2)
            .map(|c| Symbol(u16::from_le_bytes([c[0], c[1]]))),
    );
    Ok(id)
}

/// Whether the v2 footer starts at `pos`: exactly [`FOOTER_LEN`] bytes
/// remain and they open with the footer magic. Checked before decoding a
/// record there, since a genuine footer carries no record CRC and would
/// otherwise read as a corrupt record.
fn footer_at(reader: &mut RetryReader, pos: u64, file_len: u64) -> Result<bool, ScanError> {
    if file_len - pos != FOOTER_LEN {
        return Ok(false);
    }
    reader.seek_to(pos)?;
    let mut magic = [0u8; 8];
    reader.read_exact(&mut magic)?;
    Ok(&magic == FOOTER_MAGIC)
}

/// The result of the quarantine census: which byte ranges to skip, where
/// the records end, and how many sequences survive.
#[derive(Debug)]
struct Census {
    survivors: u64,
    /// Offset one past the last record byte (start of the footer on an
    /// intact v2 file).
    records_end: u64,
    /// The byte ranges to skip, in file order.
    quarantined: Vec<QuarantinedRecord>,
}

/// Streaming writer for the on-disk format.
///
/// The writer keeps a running CRC32C of every byte it writes, so
/// [`DiskDbWriter::finish`] computes the v2 footer without reading the
/// file back: the header count, written before the records it counts, is
/// folded in afterwards by CRC linearity ([`Crc32c::patch`]).
pub struct DiskDbWriter {
    out: BufWriter<File>,
    count: u64,
    path: PathBuf,
    version: u32,
    /// Bytes in the file so far: the header and every record.
    len: u64,
    /// CRC32C state over those bytes as they are on disk, the header
    /// holding the count `start.index` it had when the writer opened
    /// (v2 only).
    crc: Crc32c,
    /// Where this writer's first record goes.
    start: Resume,
}

/// A position in a file's records: the index and byte offset of a record,
/// and the CRC32C state of every byte before it.
#[derive(Debug, Clone, Copy)]
struct Resume {
    index: u64,
    offset: u64,
    crc: Crc32c,
}

impl DiskDbWriter {
    /// Creates (truncating) a v2 database file at `path`.
    ///
    /// The header count and the footer are written by
    /// [`DiskDbWriter::finish`]; a writer that is dropped without `finish`
    /// leaves a footer-less file that strict scans reject (reopen it with
    /// [`DiskDbWriter::append`] to repair).
    pub fn create(path: impl AsRef<Path>) -> DiskResult<Self> {
        Self::create_with_version(path, VERSION)
    }

    /// Creates (truncating) a *v1* database file — bit-identical to what
    /// earlier releases wrote. Exists for compatibility tooling and tests;
    /// new data should use [`DiskDbWriter::create`].
    pub fn create_v1(path: impl AsRef<Path>) -> DiskResult<Self> {
        Self::create_with_version(path, VERSION_V1)
    }

    fn create_with_version(path: impl AsRef<Path>, version: u32) -> DiskResult<Self> {
        let path = path.as_ref().to_path_buf();
        let file = File::create(&path)?;
        let mut out = BufWriter::new(file);
        let header = header_bytes(version, 0); // count placeholder
        out.write_all(&header)?;
        let mut crc = Crc32c::new();
        crc.update(&header);
        Ok(Self::resume_at(out, path, version, 0, HEADER_LEN, crc))
    }

    fn resume_at(
        out: BufWriter<File>,
        path: PathBuf,
        version: u32,
        count: u64,
        len: u64,
        crc: Crc32c,
    ) -> Self {
        Self {
            out,
            count,
            path,
            version,
            len,
            crc,
            start: Resume {
                index: count,
                offset: len,
                crc,
            },
        }
    }

    /// Reopens an existing database file for appending: validates the
    /// header, finds the end of the last counted record, truncates
    /// anything after it (a v2 footer, or the tail of a crashed append),
    /// and continues the sequence count, so `append(p)` followed by writes
    /// and [`DiskDbWriter::finish`] extends the database in place. The
    /// file's format version is preserved. This is the substrate of the
    /// streaming ingestion engine's append-only log.
    ///
    /// A finished v2 file costs O(1) here: its footer marks where the
    /// records end, and its stored whole-file CRC, with the footer's bytes
    /// taken back out, is the checksum state of everything before it. Any
    /// other file (v1, a torn tail, a footer whose count disagrees with
    /// the header) is walked record head by record head, and on v2 the
    /// kept prefix is checksummed once.
    pub fn append(path: impl AsRef<Path>) -> DiskResult<Self> {
        let path = path.as_ref().to_path_buf();
        // Validate header + count via the reader path.
        let existing = DiskDb::open(&path)?;
        let count = existing.count;
        let version = existing.version;
        let mut file = OpenOptions::new().read(true).write(true).open(&path)?;
        let file_len = file.metadata()?.len();
        let seed = footer_seed(&file, version, count, file_len)?;
        let end = match seed {
            Some((end, _)) => end,
            None => walk_heads(&file, version, count)?,
        };
        file.set_len(end)?;
        // Checksummed after truncating: a walk past the end of a torn file
        // extends it with zeros, and the checksum covers those.
        let crc = match seed {
            Some((_, crc)) => crc,
            None if version == VERSION_V1 => Crc32c::new(),
            None => prefix_crc(&file, end)?,
        };
        file.seek(SeekFrom::Start(end))?;
        Ok(Self::resume_at(
            BufWriter::new(file),
            path,
            version,
            count,
            end,
            crc,
        ))
    }

    /// Number of sequences written so far (including pre-existing ones when
    /// opened with [`DiskDbWriter::append`]).
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Appends one sequence (checksummed under v2).
    pub fn write_sequence(&mut self, id: u64, symbols: &[Symbol]) -> DiskResult<()> {
        let mut data = Vec::with_capacity(symbols.len() * 2);
        for s in symbols {
            data.put_u16(s.0);
        }
        let mut buf = Vec::with_capacity(V2_HEAD_LEN as usize + data.len());
        buf.put_u64(id);
        buf.put_u32(symbols.len() as u32);
        if self.version != VERSION_V1 {
            let mut crc = Crc32c::new();
            crc.update(&buf);
            crc.update(&data);
            buf.put_u32(crc.finish());
        }
        buf.extend_from_slice(&data);
        self.out.write_all(&buf)?;
        if self.version != VERSION_V1 {
            self.crc.update(&buf);
        }
        self.len += buf.len() as u64;
        self.count += 1;
        Ok(())
    }

    /// Flushes, patches the header count, writes the v2 footer, fsyncs,
    /// and returns a reader for the file. Reads nothing back: the footer
    /// CRC is the running checksum with the new header count folded in.
    /// The reader remembers where this writer's records start, so a
    /// [`SequenceScan::try_scan_from`] that skips exactly the records the
    /// file held before reads only the new ones (see [`DiskDb`]).
    pub fn finish(mut self) -> DiskResult<DiskDb> {
        self.out.flush()?;
        let file = self.out.into_inner().map_err(|e| e.into_error())?;
        use std::os::unix::fs::FileExt;
        // Patch the count field (offset 12).
        file.write_all_at(&self.count.to_le_bytes(), 12)?;
        let header = header_bytes(self.version, self.count);
        let mut start = self.start;
        let mut file_len = self.len;
        if self.version != VERSION_V1 {
            // Both checksums saw the count the header held when this
            // writer opened; the bytes after the count field carry the
            // change forward.
            let delta = (start.index ^ self.count).to_le_bytes();
            self.crc.patch(&delta, self.len - HEADER_LEN);
            start.crc.patch(&delta, start.offset - HEADER_LEN);
            let mut footer = Vec::with_capacity(FOOTER_LEN as usize);
            footer.extend_from_slice(FOOTER_MAGIC);
            footer.put_u64(self.count);
            self.crc.update(&footer);
            footer.put_u32(self.crc.finish());
            file.write_all_at(&footer, self.len)?;
            file_len += FOOTER_LEN;
        }
        file.sync_all()?;
        drop(file);
        Ok(DiskDb {
            path: self.path,
            count: self.count,
            version: self.version,
            policy: FaultPolicy::Strict,
            plan: FaultPlan::new(),
            census: None,
            appended: Some(Box::new(Appended {
                start,
                header,
                file_len,
            })),
            scans: AtomicUsize::new(0),
        })
    }
}

/// The header of a `version` file holding `count` sequences.
fn header_bytes(version: u32, count: u64) -> [u8; HEADER_LEN as usize] {
    let mut header = [0u8; HEADER_LEN as usize];
    header[..8].copy_from_slice(MAGIC);
    header[8..12].copy_from_slice(&version.to_le_bytes());
    header[12..].copy_from_slice(&count.to_le_bytes());
    header
}

/// The fast path of [`DiskDbWriter::append`]: on a v2 file that ends in
/// a footer agreeing with the header count, where the records end and the
/// CRC32C state of everything before that. `None` sends the caller to
/// the head walk.
fn footer_seed(
    file: &File,
    version: u32,
    count: u64,
    file_len: u64,
) -> io::Result<Option<(u64, Crc32c)>> {
    use std::os::unix::fs::FileExt;
    if version == VERSION_V1 || file_len < HEADER_LEN + FOOTER_LEN {
        return Ok(None);
    }
    let end = file_len - FOOTER_LEN;
    let mut footer = [0u8; FOOTER_LEN as usize];
    file.read_exact_at(&mut footer, end)?;
    let mut r = ByteReader::new(&footer);
    let magic_ok = r.take(8, "footer magic").expect(FIXED) == FOOTER_MAGIC;
    let foot_count = r.u64("footer count").expect(FIXED);
    if !magic_ok || foot_count != count {
        return Ok(None);
    }
    // The stored CRC covers every byte before it, the footer's first 16
    // included; take those back out.
    let mut crc = Crc32c::resume(r.u32("file crc").expect(FIXED));
    crc.rewind(&footer[..16]);
    Ok(Some((end, crc)))
}

/// Walks `count` record heads from the first record and returns the
/// offset one past the last counted record. Skips each record's data with
/// a relative seek, which stays inside the read buffer for short records.
fn walk_heads(file: &File, version: u32, count: u64) -> DiskResult<u64> {
    let head_len = head_len(version != VERSION_V1) as usize;
    let mut reader = BufReader::new(file);
    reader.seek(SeekFrom::Start(HEADER_LEN))?;
    let mut head = [0u8; V2_HEAD_LEN as usize];
    let mut pos = HEADER_LEN;
    for i in 0..count {
        reader
            .read_exact(&mut head[..head_len])
            .map_err(|e| DiskError::Format(format!("truncated record {i}: {e}")))?;
        let (_, len) = parse_head(&head[..head_len]);
        pos += head_len as u64 + len * 2;
        reader.seek_relative((len * 2) as i64)?;
    }
    Ok(pos)
}

/// CRC32C state over the first `end` bytes of `file`.
fn prefix_crc(mut file: &File, end: u64) -> io::Result<Crc32c> {
    file.seek(SeekFrom::Start(0))?;
    let mut crc = Crc32c::new();
    let mut rest = file.take(end);
    let mut chunk = vec![0u8; 1 << 16];
    loop {
        let n = rest.read(&mut chunk)?;
        if n == 0 {
            return Ok(crc);
        }
        crc.update(&chunk[..n]);
    }
}

/// What a [`DiskDb`] returned by [`DiskDbWriter::finish`] knows about the
/// file it just wrote.
#[derive(Debug)]
struct Appended {
    /// The writer's first record, with the CRC32C state (final header
    /// count included) of every byte before it.
    start: Resume,
    /// The header and file length the writer left.
    header: [u8; HEADER_LEN as usize],
    file_len: u64,
}

/// A read-only disk-resident sequence database.
///
/// Each scan reopens and streams the file — deliberately, to model the
/// paper's disk-resident cost model — and increments the scan counter.
/// Fault handling is governed by the [`FaultPolicy`] chosen at open time;
/// the infallible [`SequenceScan::scan`] panics where
/// [`SequenceScan::try_scan`] would return an error.
///
/// A database returned by [`DiskDbWriter::finish`] also remembers where
/// that writer's records start. [`SequenceScan::try_scan_from`] with
/// `skip` equal to that record's index — the tail read of an append-only
/// log — then reads only the new records, if the header and the file
/// length are still the ones the writer left. It checks each new record's
/// CRC, the footer's magic and count, the whole-file CRC (continued from
/// the state the writer remembered, not recomputed over the old bytes),
/// and that nothing trails the footer. Old records are not re-read: a
/// corruption there is caught by the next full strict scan. Every other
/// `try_scan_from` is a full scan that drops the first `skip` sequences.
#[derive(Debug)]
pub struct DiskDb {
    path: PathBuf,
    /// Header count — or, under `Quarantine`, the census's survivor count.
    count: u64,
    version: u32,
    policy: FaultPolicy,
    plan: FaultPlan,
    census: Option<Census>,
    /// Set only by [`DiskDbWriter::finish`].
    appended: Option<Box<Appended>>,
    scans: AtomicUsize,
}

impl DiskDb {
    /// Opens an existing database file under [`FaultPolicy::Strict`].
    pub fn open(path: impl AsRef<Path>) -> DiskResult<Self> {
        Self::open_opts(path, FaultPolicy::Strict, FaultPlan::new())
    }

    /// Opens an existing database file under `policy`. Under
    /// [`FaultPolicy::Quarantine`] this walks the file once up front (the
    /// *census*) to locate corrupt regions, so
    /// [`SequenceScan::num_sequences`] and every subsequent scan agree on
    /// the surviving subset.
    pub fn open_with_policy(path: impl AsRef<Path>, policy: FaultPolicy) -> DiskResult<Self> {
        Self::open_opts(path, policy, FaultPlan::new())
    }

    /// Full-control constructor: `plan` (used by
    /// [`crate::fault::FaultyStore`]) injects deterministic faults into
    /// every read this database performs, including this open. The open
    /// reads the header alone.
    pub(crate) fn open_opts(
        path: impl AsRef<Path>,
        policy: FaultPolicy,
        plan: FaultPlan,
    ) -> DiskResult<Self> {
        let path = path.as_ref().to_path_buf();
        let mut db = Self {
            path,
            count: 0,
            version: 0,
            policy,
            plan,
            census: None,
            appended: None,
            scans: AtomicUsize::new(0),
        };
        let header = read_header(&mut db.retry_reader(HEADER_LEN as usize)?)?;
        if !header.magic_ok {
            return Err(DiskError::Format("bad magic; not a noisemine seqdb".into()));
        }
        let version = header.version;
        if version != VERSION && version != VERSION_V1 {
            return Err(DiskError::Format(format!(
                "unsupported version {version}, expected {VERSION_V1} or {VERSION}"
            )));
        }
        db.version = version;
        db.count = header.count;
        if matches!(db.policy, FaultPolicy::Quarantine) {
            let census = db.run_census()?;
            db.count = census.survivors;
            db.census = Some(census);
        }
        Ok(db)
    }

    /// Writes `sequences` to `path` (format v2) and opens the result.
    pub fn create_from<'a, I>(path: impl AsRef<Path>, sequences: I) -> DiskResult<Self>
    where
        I: IntoIterator<Item = &'a [Symbol]>,
    {
        let mut w = DiskDbWriter::create(path)?;
        for (i, seq) in sequences.into_iter().enumerate() {
            w.write_sequence(i as u64, seq)?;
        }
        w.finish()
    }

    /// Number of full scans performed so far.
    pub fn scans_performed(&self) -> usize {
        self.scans.load(Ordering::Relaxed)
    }

    /// Resets the scan counter.
    pub fn reset_scans(&self) {
        self.scans.store(0, Ordering::Relaxed);
    }

    /// The backing file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The file's format version ([`VERSION`] or [`VERSION_V1`]).
    pub fn version(&self) -> u32 {
        self.version
    }

    /// The fault policy this database was opened under.
    pub fn policy(&self) -> FaultPolicy {
        self.policy
    }

    /// Regions skipped by the quarantine census (empty unless opened under
    /// [`FaultPolicy::Quarantine`]).
    pub fn quarantined(&self) -> &[QuarantinedRecord] {
        self.census
            .as_ref()
            .map(|c| c.quarantined.as_slice())
            .unwrap_or(&[])
    }

    /// The file length a scan should believe, honoring an injected
    /// truncation. Re-statted per scan so legitimate appends between scans
    /// are observed.
    fn effective_len(&self) -> Result<u64, ScanError> {
        let len = std::fs::metadata(&self.path)
            .map_err(|e| io_scan_error(&e, 0))?
            .len();
        Ok(match self.plan.truncate_at() {
            Some(t) => len.min(t),
            None => len,
        })
    }

    /// Opens a fresh reader for one scan pass, wired through the fault
    /// plan and granted the policy's transient-retry budget, buffering
    /// `capacity` bytes per read.
    fn retry_reader(&self, capacity: usize) -> Result<RetryReader, ScanError> {
        let file = File::open(&self.path).map_err(|e| io_scan_error(&e, 0))?;
        let (attempts, backoff) = match self.policy {
            FaultPolicy::Strict => (0, Duration::ZERO),
            FaultPolicy::Retry { attempts, backoff } => (attempts, backoff),
            FaultPolicy::Quarantine => (QUARANTINE_TRANSIENT_ATTEMPTS, Duration::ZERO),
        };
        Ok(RetryReader {
            inner: BufReader::with_capacity(capacity, self.plan.wrap(file)),
            pos: 0,
            bytes_read: 0,
            attempts,
            backoff,
        })
    }

    /// One scan pass under the active policy. Strict and retry scans
    /// validate as they go: the header, every record (and on v2 its CRC),
    /// then the v2 footer and whole-file checksum; the first failure
    /// aborts. Bytes past the counted records are tolerated on v1 (legacy
    /// semantics). Under `Quarantine` the census has already classified
    /// the file, so the scan skips its bad ranges and stops where its
    /// records end; a record that fails to decode then means the file
    /// changed since the census, surfaced as corruption rather than
    /// silently diverging from the reported survivor count. The first
    /// `skip` sequences the pass yields are read and checked but not
    /// visited.
    fn scan_records(
        &self,
        skip: u64,
        visit: &mut dyn FnMut(u64, &[Symbol]),
    ) -> Result<(), ScanError> {
        let file_len = self.effective_len()?;
        let mut reader = self.retry_reader(SCAN_BUFFER)?;
        let header = read_header(&mut reader)?;
        let checksummed = self.version != VERSION_V1;
        let (skipped, records_end, count) = match &self.census {
            Some(census) => (census.quarantined.as_slice(), census.records_end, u64::MAX),
            None => {
                if !header.magic_ok {
                    return Err(ScanError::new(
                        ScanErrorKind::Corrupt,
                        "bad magic; not a noisemine seqdb",
                    )
                    .at_offset(0));
                }
                if checksummed && header.version != VERSION {
                    return Err(ScanError::new(
                        ScanErrorKind::Corrupt,
                        format!("header version is not {VERSION}"),
                    )
                    .at_offset(8));
                }
                // Count as the header reads *now* — the open-time count may
                // lag a legitimate append (see `SequenceScan::num_sequences`).
                (&[][..], u64::MAX, header.count)
            }
        };
        let verify_file = checksummed && self.census.is_none();
        let mut file_crc = Crc32c::new();
        file_crc.update(&header.raw);
        let mut symbols: Vec<Symbol> = Vec::new();
        let mut raw: Vec<u8> = Vec::new();
        let mut bad = skipped.iter().peekable();
        let mut index = 0u64;
        let mut seen = 0u64;
        while index < count && reader.pos() < records_end {
            if let Some(q) = bad.next_if(|q| q.offset == reader.pos()) {
                reader.seek_to(q.offset + q.skipped)?;
                index += 1;
                continue;
            }
            let id = read_record(
                &mut reader,
                index,
                file_len,
                checksummed,
                &mut symbols,
                &mut raw,
                verify_file.then_some(&mut file_crc),
            )?;
            index += 1;
            if seen >= skip {
                visit(id, &symbols);
            }
            seen += 1;
        }
        if verify_file {
            check_footer(&mut reader, count, file_crc, file_len)?;
        }
        crate::obs::disk_bytes_read().add(reader.bytes_read());
        Ok(())
    }

    /// The tail scan behind [`SequenceScan::try_scan_from`] (see
    /// [`DiskDb`]): reads the records from `a.start` on and the footer.
    /// Returns `Ok(false)`, having visited nothing, when the header or the
    /// file length is no longer the one the writer left.
    fn scan_appended(
        &self,
        a: &Appended,
        visit: &mut dyn FnMut(u64, &[Symbol]),
    ) -> Result<bool, ScanError> {
        let file_len = self.effective_len()?;
        let mut head_reader = self.retry_reader(HEADER_LEN as usize)?;
        let header = read_header(&mut head_reader)?;
        if header.raw != a.header || file_len != a.file_len {
            return Ok(false);
        }
        let checksummed = self.version != VERSION_V1;
        let mut reader = self.retry_reader(SCAN_BUFFER)?;
        reader.seek_to(a.start.offset)?;
        let mut file_crc = a.start.crc;
        let mut symbols: Vec<Symbol> = Vec::new();
        let mut raw: Vec<u8> = Vec::new();
        for index in a.start.index..header.count {
            let id = read_record(
                &mut reader,
                index,
                file_len,
                checksummed,
                &mut symbols,
                &mut raw,
                checksummed.then_some(&mut file_crc),
            )?;
            visit(id, &symbols);
        }
        if checksummed {
            check_footer(&mut reader, header.count, file_crc, file_len)?;
        }
        crate::obs::disk_bytes_read().add(head_reader.bytes_read() + reader.bytes_read());
        Ok(true)
    }

    /// Counts one scan of `pass` (a full or a tail scan), and its failure.
    fn counted(&self, pass: impl FnOnce() -> Result<(), ScanError>) -> Result<(), ScanError> {
        self.scans.fetch_add(1, Ordering::Relaxed);
        crate::obs::disk_scans().inc();
        pass().inspect_err(|_| crate::obs::fault_scan_failures().inc())
    }

    /// The quarantine census: one validation walk that classifies every
    /// byte of the file as record, footer, or quarantined. Scans under
    /// `Quarantine` then skip the bad ranges, so the visit stream is
    /// identical to a clean database holding only the survivors.
    ///
    /// v1 has no checksums to resynchronize on: the census walks the
    /// counted records and quarantines everything from the first
    /// undecodable record onward. v2 ignores the (unprotected-by-itself)
    /// header count and walks the checksummed records until the footer or
    /// EOF, sweeping forward past anything that fails validation.
    fn run_census(&self) -> DiskResult<Census> {
        let file_len = self.effective_len()?;
        let mut reader = self.retry_reader(SCAN_BUFFER)?;
        let header = read_header(&mut reader)?;
        let checksummed = self.version != VERSION_V1;
        let mut symbols: Vec<Symbol> = Vec::new();
        let mut raw: Vec<u8> = Vec::new();
        let mut survivors = 0u64;
        let mut quarantined: Vec<QuarantinedRecord> = Vec::new();
        let mut index = 0u64;
        let mut pos = HEADER_LEN;
        loop {
            let done = if checksummed {
                pos >= file_len || footer_at(&mut reader, pos, file_len)?
            } else {
                index >= header.count
            };
            if done {
                break;
            }
            reader.seek_to(pos)?;
            match read_record(
                &mut reader,
                index,
                file_len,
                checksummed,
                &mut symbols,
                &mut raw,
                None,
            ) {
                Ok(_) => {
                    survivors += 1;
                    pos = reader.pos();
                }
                Err(e) if matches!(e.kind(), ScanErrorKind::Corrupt | ScanErrorKind::Truncated) => {
                    let end = if checksummed {
                        crate::obs::fault_resyncs().inc();
                        resync(&mut reader, pos, file_len)?.unwrap_or(file_len)
                    } else {
                        file_len
                    };
                    crate::obs::fault_quarantined().inc();
                    quarantined.push(QuarantinedRecord {
                        index,
                        offset: pos,
                        skipped: end - pos,
                    });
                    pos = end;
                    if !checksummed {
                        break;
                    }
                }
                // Persistent transient / hard I/O: quarantine handles
                // *corruption*; an unreadable device stays fatal.
                Err(e) => return Err(e.into()),
            }
            index += 1;
        }
        Ok(Census {
            survivors,
            records_end: pos.min(file_len),
            quarantined,
        })
    }
}

/// Verifies the v2 footer at the reader's position against the header
/// `count` and the running whole-file checksum `crc`, and that nothing
/// follows it. The check is unconditional — even a count of zero must be
/// pinned, since a single bit flip can turn a real count into zero.
fn check_footer(
    reader: &mut RetryReader,
    count: u64,
    mut crc: Crc32c,
    file_len: u64,
) -> Result<(), ScanError> {
    let foot_pos = reader.pos();
    let mut footer = [0u8; FOOTER_LEN as usize];
    reader.read_exact(&mut footer).map_err(|e| {
        if e.kind() == ScanErrorKind::Truncated {
            ScanError::new(
                ScanErrorKind::Corrupt,
                "missing footer (file truncated, or writer never finished)",
            )
            .at_offset(foot_pos)
        } else {
            e
        }
    })?;
    let mut r = ByteReader::new(&footer);
    if r.take(8, "footer magic").expect(FIXED) != FOOTER_MAGIC {
        return Err(
            ScanError::new(ScanErrorKind::Corrupt, "missing or corrupt footer").at_offset(foot_pos),
        );
    }
    let foot_count = r.u64("footer count").expect(FIXED);
    if foot_count != count {
        return Err(ScanError::new(
            ScanErrorKind::Corrupt,
            format!("footer count {foot_count} does not match header count {count}"),
        )
        .at_offset(foot_pos + 8));
    }
    crc.update(&footer[..16]);
    let stored = r.u32("file crc").expect(FIXED);
    let computed = crc.finish();
    if computed != stored {
        crate::obs::fault_crc_failures().inc();
        return Err(ScanError::new(
            ScanErrorKind::Corrupt,
            format!("file checksum mismatch (stored {stored:#010x}, computed {computed:#010x})"),
        )
        .at_offset(foot_pos + 16));
    }
    if reader.pos() != file_len {
        return Err(ScanError::new(
            ScanErrorKind::Corrupt,
            format!("{} trailing bytes after footer", file_len - reader.pos()),
        )
        .at_offset(reader.pos()));
    }
    Ok(())
}

/// Sweeps forward from a failed record at `from`, looking for the next
/// position that decodes as a valid record — or the footer, when exactly
/// [`FOOTER_LEN`] bytes remain. Returns `None` if nothing downstream
/// validates (the rest of the file is quarantined).
fn resync(reader: &mut RetryReader, from: u64, file_len: u64) -> Result<Option<u64>, ScanError> {
    let mut symbols: Vec<Symbol> = Vec::new();
    let mut raw: Vec<u8> = Vec::new();
    let mut candidate = from + 1;
    while candidate + V2_HEAD_LEN <= file_len {
        if footer_at(reader, candidate, file_len)? {
            return Ok(Some(candidate));
        }
        reader.seek_to(candidate)?;
        match read_record(reader, 0, file_len, true, &mut symbols, &mut raw, None) {
            Ok(_) => return Ok(Some(candidate)),
            Err(e) if matches!(e.kind(), ScanErrorKind::Corrupt | ScanErrorKind::Truncated) => {
                candidate += 1;
            }
            Err(e) => return Err(e),
        }
    }
    Ok(None)
}

impl SequenceScan for DiskDb {
    fn num_sequences(&self) -> usize {
        self.count as usize
    }

    fn scan(&self, visit: &mut dyn FnMut(u64, &[Symbol])) {
        // The infallible API is for callers that treat the database as a
        // reliable substrate; surface errors loudly rather than silently
        // returning partial data.
        match self.try_scan(visit) {
            Ok(()) => {}
            Err(e) => panic!("scan of {} failed: {e}", self.path.display()),
        }
    }

    fn try_scan(&self, visit: &mut dyn FnMut(u64, &[Symbol])) -> Result<(), ScanError> {
        self.counted(|| self.scan_records(0, visit))
    }

    fn try_scan_from(
        &self,
        skip: u64,
        visit: &mut dyn FnMut(u64, &[Symbol]),
    ) -> Result<(), ScanError> {
        self.counted(|| {
            let tail = self
                .appended
                .as_ref()
                .filter(|a| a.start.index == skip && self.census.is_none());
            if let Some(a) = tail {
                if self.scan_appended(a, visit)? {
                    return Ok(());
                }
            }
            self.scan_records(skip, visit)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn syms(v: &[u16]) -> Vec<Symbol> {
        v.iter().map(|&x| Symbol(x)).collect()
    }

    fn tmp(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("noisemine-test-{}-{name}", std::process::id()));
        p
    }

    #[test]
    fn round_trip() {
        let path = tmp("roundtrip.db");
        let data = [syms(&[0, 1, 2]), syms(&[]), syms(&[65535, 7])];
        let db = DiskDb::create_from(&path, data.iter().map(Vec::as_slice)).unwrap();
        assert_eq!(db.num_sequences(), 3);
        assert_eq!(db.version(), VERSION);
        let mut seen = Vec::new();
        db.scan(&mut |id, s| seen.push((id, s.to_vec())));
        assert_eq!(
            seen,
            vec![
                (0, data[0].clone()),
                (1, data[1].clone()),
                (2, data[2].clone())
            ]
        );
        assert_eq!(db.scans_performed(), 1);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn empty_db() {
        let path = tmp("empty.db");
        let db = DiskDb::create_from(&path, std::iter::empty()).unwrap();
        assert_eq!(db.num_sequences(), 0);
        db.scan(&mut |_, _| panic!("no sequences expected"));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn rejects_bad_magic() {
        let path = tmp("badmagic.db");
        std::fs::write(&path, b"NOTADB!!aaaaaaaaaaaa").unwrap();
        assert!(matches!(DiskDb::open(&path), Err(DiskError::Format(_))));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn rejects_bad_version() {
        let path = tmp("badversion.db");
        let mut bytes = Vec::new();
        bytes.extend_from_slice(MAGIC);
        bytes.extend_from_slice(&99u32.to_le_bytes());
        bytes.extend_from_slice(&0u64.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(DiskDb::open(&path), Err(DiskError::Format(_))));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn detects_truncation() {
        let path = tmp("trunc.db");
        let data = [syms(&[1, 2, 3, 4])];
        let db = DiskDb::create_from(&path, data.iter().map(Vec::as_slice)).unwrap();
        drop(db);
        // Chop off the last two bytes (into the footer).
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 2]).unwrap();
        let db = DiskDb::open(&path).unwrap();
        let err = db.try_scan(&mut |_, _| {}).unwrap_err();
        assert_eq!(err.kind(), ScanErrorKind::Corrupt);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn detects_missing_footer() {
        // A writer that never called finish leaves no footer; strict scans
        // must reject the file rather than trust the (zero) header count.
        let path = tmp("nofooter.db");
        let mut w = DiskDbWriter::create(&path).unwrap();
        w.write_sequence(0, &syms(&[1, 2])).unwrap();
        drop(w); // BufWriter flushes on drop; no count patch, no footer.
        let db = DiskDb::open(&path).unwrap();
        let err = db.try_scan(&mut |_, _| {}).unwrap_err();
        assert_eq!(err.kind(), ScanErrorKind::Corrupt);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn v1_reads_through_v2_reader() {
        let path = tmp("v1compat.db");
        let data = [syms(&[5, 6, 7]), syms(&[]), syms(&[9])];
        let mut w = DiskDbWriter::create_v1(&path).unwrap();
        for (i, s) in data.iter().enumerate() {
            w.write_sequence(i as u64, s).unwrap();
        }
        let db = w.finish().unwrap();
        assert_eq!(db.version(), VERSION_V1);
        assert_eq!(db.num_sequences(), 3);
        let mut seen = Vec::new();
        db.scan(&mut |id, s| seen.push((id, s.to_vec())));
        assert_eq!(
            seen,
            vec![
                (0, data[0].clone()),
                (1, data[1].clone()),
                (2, data[2].clone())
            ]
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn v1_layout_is_bit_identical_to_legacy() {
        // The v1 writer must produce exactly the bytes the original format
        // specified: 20-byte header (version 1) + id/len/data records.
        let path = tmp("v1layout.db");
        let mut w = DiskDbWriter::create_v1(&path).unwrap();
        w.write_sequence(7, &syms(&[0x0102, 0x0304])).unwrap();
        w.finish().unwrap();
        let bytes = std::fs::read(&path).unwrap();
        let mut expected = Vec::new();
        expected.extend_from_slice(MAGIC);
        expected.extend_from_slice(&1u32.to_le_bytes());
        expected.extend_from_slice(&1u64.to_le_bytes());
        expected.extend_from_slice(&7u64.to_le_bytes());
        expected.extend_from_slice(&2u32.to_le_bytes());
        expected.extend_from_slice(&[0x02, 0x01, 0x04, 0x03]);
        assert_eq!(bytes, expected);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn append_extends_in_place() {
        let path = tmp("append.db");
        let first = [syms(&[1, 2]), syms(&[3])];
        let db = DiskDb::create_from(&path, first.iter().map(Vec::as_slice)).unwrap();
        assert_eq!(db.num_sequences(), 2);
        drop(db);

        let mut w = DiskDbWriter::append(&path).unwrap();
        assert_eq!(w.count(), 2);
        w.write_sequence(2, &syms(&[4, 5, 6])).unwrap();
        w.write_sequence(3, &syms(&[])).unwrap();
        let db = w.finish().unwrap();
        assert_eq!(db.num_sequences(), 4);
        let mut seen = Vec::new();
        db.scan(&mut |id, s| seen.push((id, s.to_vec())));
        assert_eq!(
            seen,
            vec![
                (0, syms(&[1, 2])),
                (1, syms(&[3])),
                (2, syms(&[4, 5, 6])),
                (3, syms(&[])),
            ]
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn append_preserves_v1_format() {
        let path = tmp("append-v1.db");
        let mut w = DiskDbWriter::create_v1(&path).unwrap();
        w.write_sequence(0, &syms(&[1])).unwrap();
        w.finish().unwrap();

        let mut w = DiskDbWriter::append(&path).unwrap();
        w.write_sequence(1, &syms(&[2, 3])).unwrap();
        let db = w.finish().unwrap();
        assert_eq!(db.version(), VERSION_V1);
        let mut seen = Vec::new();
        db.scan(&mut |id, s| seen.push((id, s.to_vec())));
        assert_eq!(seen, vec![(0, syms(&[1])), (1, syms(&[2, 3]))]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn append_truncates_uncounted_tail() {
        // A crashed append leaves bytes past the counted records; reopening
        // for append must discard them so the file stays self-consistent.
        let path = tmp("append-tail.db");
        let data = [syms(&[7, 8])];
        let db = DiskDb::create_from(&path, data.iter().map(Vec::as_slice)).unwrap();
        drop(db);
        use std::io::Write as _;
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(&[0xde, 0xad, 0xbe, 0xef]).unwrap();
        drop(f);

        let mut w = DiskDbWriter::append(&path).unwrap();
        w.write_sequence(1, &syms(&[9])).unwrap();
        let db = w.finish().unwrap();
        let mut seen = Vec::new();
        db.scan(&mut |id, s| seen.push((id, s.to_vec())));
        assert_eq!(seen, vec![(0, syms(&[7, 8])), (1, syms(&[9]))]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn append_to_missing_file_fails() {
        let path = tmp("append-missing.db");
        std::fs::remove_file(&path).ok();
        assert!(DiskDbWriter::append(&path).is_err());
    }

    #[test]
    fn scan_blocks_streams_in_order_and_counts() {
        let path = tmp("blocks.db");
        let data: Vec<Vec<Symbol>> = (0..10u16).map(|i| syms(&[i, i + 1])).collect();
        let db = DiskDb::create_from(&path, data.iter().map(Vec::as_slice)).unwrap();
        let mut seen = Vec::new();
        let mut sizes = Vec::new();
        db.try_scan_blocks(4, &mut |block| {
            sizes.push(block.len());
            for (id, s) in block.iter() {
                seen.push((id, s.to_vec()));
            }
            block
        })
        .unwrap();
        assert_eq!(sizes, vec![4, 4, 2]);
        let expected: Vec<(u64, Vec<Symbol>)> = data
            .iter()
            .enumerate()
            .map(|(i, s)| (i as u64, s.clone()))
            .collect();
        assert_eq!(seen, expected);
        assert_eq!(db.scans_performed(), 1);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn multiple_scans_count() {
        let path = tmp("scans.db");
        let data = [syms(&[9])];
        let db = DiskDb::create_from(&path, data.iter().map(Vec::as_slice)).unwrap();
        for _ in 0..3 {
            db.scan(&mut |_, _| {});
        }
        assert_eq!(db.scans_performed(), 3);
        db.reset_scans();
        assert_eq!(db.scans_performed(), 0);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn detects_record_bit_flip() {
        let path = tmp("bitflip.db");
        let data = [syms(&[10, 20, 30]), syms(&[40, 50])];
        let db = DiskDb::create_from(&path, data.iter().map(Vec::as_slice)).unwrap();
        drop(db);
        // Flip one bit in the first record's data.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[(HEADER_LEN + V2_HEAD_LEN) as usize] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        let db = DiskDb::open(&path).unwrap();
        let err = db.try_scan(&mut |_, _| {}).unwrap_err();
        assert_eq!(err.kind(), ScanErrorKind::Corrupt);
        assert_eq!(err.record(), Some(0));
        assert_eq!(err.offset(), Some(HEADER_LEN));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn quarantine_skips_corrupt_record_and_renormalizes() {
        let path = tmp("quarantine.db");
        let data = [syms(&[10, 20]), syms(&[30, 40]), syms(&[50, 60])];
        let db = DiskDb::create_from(&path, data.iter().map(Vec::as_slice)).unwrap();
        drop(db);
        // Corrupt the middle record's data.
        let rec = (V2_HEAD_LEN + 4) as usize; // each record: head + 2 symbols
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[HEADER_LEN as usize + rec + V2_HEAD_LEN as usize] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();

        let db = DiskDb::open_with_policy(&path, FaultPolicy::Quarantine).unwrap();
        assert_eq!(db.num_sequences(), 2);
        assert_eq!(db.quarantined().len(), 1);
        assert_eq!(db.quarantined()[0].offset, HEADER_LEN + rec as u64);
        let mut seen = Vec::new();
        db.try_scan(&mut |id, s| seen.push((id, s.to_vec())))
            .unwrap();
        assert_eq!(seen, vec![(0, data[0].clone()), (2, data[2].clone())]);
        std::fs::remove_file(&path).unwrap();
    }
}
