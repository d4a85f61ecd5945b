//! Fault policies and a deterministic fault-injection harness.
//!
//! The disk scan path ([`crate::disk`]) can hit three kinds of trouble:
//!
//! - **transient I/O faults** — a read times out or would block, but the
//!   same bytes are readable on retry (flaky NFS, overloaded device);
//! - **corruption** — bit flips or torn writes that the NMSEQDB v2
//!   checksums detect;
//! - **truncation** — the file ends before the data it promises.
//!
//! A [`FaultPolicy`] decides what a scan does about each: fail fast
//! ([`FaultPolicy::Strict`]), retry transients
//! ([`FaultPolicy::Retry`]), or skip corrupt records and mine the
//! surviving subset ([`FaultPolicy::Quarantine`]).
//!
//! The rest of this module is the chaos-test harness: a [`FaultPlan`]
//! describes a *deterministic* schedule of injected faults keyed by
//! absolute file offset, and a [`FaultyStore`] is a [`DiskDb`] whose every
//! read goes through that plan. Because faults are keyed by offset — not by
//! read call — the same plan produces the same observable failures
//! regardless of buffer sizes, thread counts, or how the reader chunks its
//! reads, which is what makes the chaos suite's bit-identity assertions
//! meaningful.

use std::fs::File;
use std::io::{self, Read, Seek, SeekFrom};
use std::path::Path;
use std::time::Duration;

use noisemine_core::matching::SequenceScan;
use noisemine_core::{ScanError, Symbol};

use crate::disk::{DiskDb, DiskResult};

/// What the scan path does when the store misbehaves.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FaultPolicy {
    /// Fail fast: the first error aborts the scan and surfaces with the
    /// offending byte offset (and record index when known). The default.
    #[default]
    Strict,
    /// Retry transient I/O errors (timeouts, `WouldBlock`) up to `attempts`
    /// extra times per read, sleeping `backoff` between tries. Corruption
    /// and truncation still fail fast — retrying cannot fix a bad checksum.
    Retry {
        /// Extra attempts per failing read (0 behaves like `Strict`).
        attempts: u32,
        /// Sleep between attempts (use `Duration::ZERO` in tests).
        backoff: Duration,
    },
    /// Skip records that fail validation, resynchronize to the next intact
    /// record, and report only the surviving sequences via
    /// [`SequenceScan::num_sequences`] — so `db_match` denominators are
    /// renormalized over the sequences actually visited (Definition 3.7
    /// over the surviving subset). Quarantined regions are listed by
    /// [`DiskDb::quarantined`]. Transient faults are still retried a fixed
    /// number of times; a persistently unreadable device remains fatal.
    Quarantine,
}

/// One region of a file skipped by [`FaultPolicy::Quarantine`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuarantinedRecord {
    /// Zero-based position in file walk order at which the bad region sat.
    pub index: u64,
    /// Byte offset where the quarantined region starts.
    pub offset: u64,
    /// Number of bytes skipped before the scan resynchronized (or hit EOF).
    pub skipped: u64,
}

/// One injected transient-fault site.
#[derive(Debug, Clone)]
struct TransientSite {
    /// Absolute file offset the fault guards.
    offset: u64,
    /// How many reads touching that offset fail before it heals.
    fails: u32,
}

/// A deterministic schedule of injected faults, keyed by absolute file
/// offset.
///
/// Compose with the builder methods, or draw a reproducible random plan
/// with [`FaultPlan::random`]. A plan only takes effect through
/// [`FaultyStore`] (or `DiskDb::open_opts`); it never touches the file on
/// disk.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    transient: Vec<TransientSite>,
    /// Absolute *bit* indices to flip in returned data.
    bit_flips: Vec<u64>,
    /// Pretend the file ends here.
    truncate_at: Option<u64>,
}

impl FaultPlan {
    /// An empty plan (injects nothing).
    pub fn new() -> Self {
        Self::default()
    }

    /// Any read covering byte `offset` fails with a timeout, `fails` times
    /// per scan pass; after that the site heals (the fault was transient).
    pub fn transient_at(mut self, offset: u64, fails: u32) -> Self {
        self.transient.push(TransientSite { offset, fails });
        self
    }

    /// Flips absolute bit `bit` (i.e. bit `bit % 8` of byte `bit / 8`) in
    /// every read that covers it — persistent corruption.
    pub fn flip_bit(mut self, bit: u64) -> Self {
        self.bit_flips.push(bit);
        self
    }

    /// Pretends the file ends at byte `at` (reads past it see EOF).
    pub fn truncate(mut self, at: u64) -> Self {
        self.truncate_at = Some(at);
        self
    }

    /// The simulated truncation point, if any.
    pub fn truncate_at(&self) -> Option<u64> {
        self.truncate_at
    }

    /// A reproducible random plan over a file of `len` bytes: `transients`
    /// transient sites (each failing once or twice) and `flips` single-bit
    /// corruptions. The same `seed` always yields the same plan.
    pub fn random(seed: u64, len: u64, transients: usize, flips: usize) -> Self {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let len = len.max(1);
        let mut plan = Self::default();
        for _ in 0..transients {
            plan.transient.push(TransientSite {
                offset: rng.gen_range(0..len),
                fails: rng.gen_range(1u32..=2),
            });
        }
        for _ in 0..flips {
            plan.bit_flips.push(rng.gen_range(0..len * 8));
        }
        plan
    }

    /// Applies this plan's bit flips directly to an in-memory byte buffer
    /// (flips landing beyond `bytes.len()` are ignored), returning how
    /// many were applied.
    ///
    /// This lets integrity tests for formats that are read whole — such
    /// as the serving layer's `NMMODEL` artifacts — reuse a deterministic
    /// [`FaultPlan::random`] corruption schedule without routing the bytes
    /// through a [`FaultyStore`]. Transient sites and truncation have no
    /// meaning for an in-memory buffer and are not applied; model them by
    /// slicing the buffer (`&bytes[..n]`) for truncation.
    pub fn corrupt_bytes(&self, bytes: &mut [u8]) -> usize {
        let mut applied = 0;
        for &bit in &self.bit_flips {
            let byte = (bit / 8) as usize;
            if byte < bytes.len() {
                bytes[byte] ^= 1 << (bit % 8);
                applied += 1;
            }
        }
        applied
    }

    /// Wraps an open file handle so its reads observe this plan's faults.
    /// Fresh per scan pass, so transient-failure budgets reset each pass.
    pub(crate) fn wrap(&self, file: File) -> FaultyRead<File> {
        FaultyRead::new(file, self.clone())
    }
}

/// A reader that injects a [`FaultPlan`]'s faults, keyed by absolute file
/// offset so the observable failures are independent of read chunking.
/// Every [`DiskDb`] scan reads through one; under the empty plan it passes
/// reads through unchanged.
pub(crate) struct FaultyRead<R> {
    inner: R,
    plan: FaultPlan,
    /// Per transient site: failures left in this pass.
    remaining: Vec<u32>,
    /// Absolute offset of the next byte `read` would return.
    pos: u64,
}

impl<R> FaultyRead<R> {
    fn new(inner: R, plan: FaultPlan) -> Self {
        let remaining = plan.transient.iter().map(|s| s.fails).collect();
        Self {
            inner,
            plan,
            remaining,
            pos: 0,
        }
    }
}

impl<R: Read + Seek> Read for FaultyRead<R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        // Simulated truncation: EOF at the configured length.
        let mut want = buf.len() as u64;
        if let Some(t) = self.plan.truncate_at {
            if self.pos >= t {
                return Ok(0);
            }
            want = want.min(t - self.pos);
        }
        let buf = &mut buf[..want as usize];
        if buf.is_empty() {
            return Ok(0);
        }
        // Transient faults: a read covering an armed site fails without
        // consuming input. `TimedOut` (not `Interrupted`) so `read_exact`
        // does not silently swallow the injection.
        let end = self.pos + buf.len() as u64;
        for (site, left) in self.plan.transient.iter().zip(self.remaining.iter_mut()) {
            if *left > 0 && site.offset >= self.pos && site.offset < end {
                *left -= 1;
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    format!("injected transient fault at offset {}", site.offset),
                ));
            }
        }
        let n = self.inner.read(buf)?;
        // Bit flips: applied to returned bytes by absolute offset.
        for &bit in &self.plan.bit_flips {
            let byte = bit / 8;
            if byte >= self.pos && byte < self.pos + n as u64 {
                buf[(byte - self.pos) as usize] ^= 1 << (bit % 8);
            }
        }
        self.pos += n as u64;
        Ok(n)
    }
}

impl<R: Read + Seek> Seek for FaultyRead<R> {
    fn seek(&mut self, pos: SeekFrom) -> io::Result<u64> {
        let p = self.inner.seek(pos)?;
        self.pos = p;
        Ok(p)
    }
}

/// A [`DiskDb`] whose reads deterministically observe a [`FaultPlan`] —
/// the chaos-test harness's store.
///
/// The wrapped database behaves exactly as a real one would on equally
/// damaged media: `Strict` opens/scans fail on the first injected fault,
/// `Retry` rides out transient sites, `Quarantine` mines the surviving
/// subset. The file itself is never modified.
#[derive(Debug)]
pub struct FaultyStore {
    db: DiskDb,
}

impl FaultyStore {
    /// Opens `path` with `plan`'s faults injected under `policy`.
    pub fn open(path: impl AsRef<Path>, plan: FaultPlan, policy: FaultPolicy) -> DiskResult<Self> {
        Ok(Self {
            db: DiskDb::open_opts(path, policy, plan)?,
        })
    }

    /// The wrapped database (for scan counts, quarantine reports, …).
    pub fn db(&self) -> &DiskDb {
        &self.db
    }
}

impl SequenceScan for FaultyStore {
    fn num_sequences(&self) -> usize {
        self.db.num_sequences()
    }
    fn scan(&self, visit: &mut dyn FnMut(u64, &[Symbol])) {
        self.db.scan(visit)
    }
    fn try_scan(&self, visit: &mut dyn FnMut(u64, &[Symbol])) -> Result<(), ScanError> {
        self.db.try_scan(visit)
    }
}

#[cfg(test)]
mod tests {
    use std::io::Cursor;

    use super::*;

    #[test]
    fn bit_flips_are_chunking_independent() {
        let data: Vec<u8> = (0u8..64).collect();
        let plan = FaultPlan::new().flip_bit(8 * 10 + 3).flip_bit(8 * 40);
        let read_all = |chunk: usize| {
            let mut r = FaultyRead::new(Cursor::new(data.clone()), plan.clone());
            let mut out = Vec::new();
            let mut buf = vec![0u8; chunk];
            loop {
                let n = r.read(&mut buf).unwrap();
                if n == 0 {
                    break;
                }
                out.extend_from_slice(&buf[..n]);
            }
            out
        };
        let whole = read_all(64);
        assert_eq!(whole[10], 10 ^ 0b1000);
        assert_eq!(whole[40], 40 ^ 1);
        for chunk in [1, 3, 7, 64] {
            assert_eq!(read_all(chunk), whole, "chunk size {chunk}");
        }
    }

    #[test]
    fn transient_site_fails_then_heals() {
        let data = vec![7u8; 16];
        let plan = FaultPlan::new().transient_at(5, 2);
        let mut r = FaultyRead::new(Cursor::new(data.clone()), plan);
        let mut buf = [0u8; 16];
        assert_eq!(
            r.read(&mut buf).unwrap_err().kind(),
            io::ErrorKind::TimedOut
        );
        assert_eq!(
            r.read(&mut buf).unwrap_err().kind(),
            io::ErrorKind::TimedOut
        );
        assert_eq!(r.read(&mut buf).unwrap(), 16);
        assert_eq!(buf.to_vec(), data);
    }

    #[test]
    fn truncation_hides_the_tail() {
        let data = vec![1u8; 32];
        let plan = FaultPlan::new().truncate(20);
        let mut r = FaultyRead::new(Cursor::new(data), plan);
        let mut out = Vec::new();
        r.read_to_end(&mut out).unwrap();
        assert_eq!(out.len(), 20);
    }

    #[test]
    fn corrupt_bytes_matches_faulty_read() {
        let data: Vec<u8> = (0u8..64).collect();
        let plan = FaultPlan::new()
            .flip_bit(8 * 10 + 3)
            .flip_bit(8 * 40)
            .flip_bit(8 * 200);
        let mut direct = data.clone();
        // The out-of-range flip (byte 200) is ignored.
        assert_eq!(plan.corrupt_bytes(&mut direct), 2);
        let mut r = FaultyRead::new(Cursor::new(data), plan);
        let mut streamed = Vec::new();
        r.read_to_end(&mut streamed).unwrap();
        assert_eq!(direct, streamed);
    }

    #[test]
    fn random_plan_is_reproducible() {
        let a = FaultPlan::random(42, 1000, 3, 5);
        let b = FaultPlan::random(42, 1000, 3, 5);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        let c = FaultPlan::random(43, 1000, 3, 5);
        assert_ne!(format!("{a:?}"), format!("{c:?}"));
    }
}
