//! Checkpoint/restore of the full engine state.
//!
//! A checkpoint captures everything [`StreamState`] holds — configuration,
//! per-symbol match sums, the reservoir (with the exact RNG state driving
//! its replacements), tracked border patterns with their online match sums,
//! and the drift anchor — so ingestion can resume after a restart and
//! produce *bit-identical* results to an uninterrupted run.
//!
//! ## On-disk format (all integers little-endian)
//!
//! ```text
//! magic            8 bytes  "NMSTRCK\0"
//! version          u32      currently 2
//! config           min_match f64, delta f64, sample_size u64,
//!                  counters_per_scan u64, max_gap u64, max_len u64,
//!                  spread_mode u8, probe_strategy u8, seed u64,
//!                  max_sample_patterns u64
//! matrix check     m u32, fnv-1a u64 over the entries' f64 bits
//! total            u64
//! match_sums       m × f64          (completed-block sums)
//! pending          m × f64          (current block's partial sums; v2+)
//! rng state        4 × u64          (xoshiro256** words)
//! reservoir        count u64, then per sequence: len u32 + len × u16
//! tracked          count u64, then per pattern: elems u32,
//!                  elems × u32 (0 = eternal, sym+1 otherwise), sum f64
//! drift anchor     u8 flag, then if set: total u64 + m × f64
//! ```
//!
//! The compatibility matrix itself is *not* stored — the caller supplies it
//! at restore time, and the checkpoint's fingerprint guards against mixing
//! state with a different matrix. The config's `threads` field is also not
//! stored: it is purely operational (results are bit-identical at any
//! thread count), so a restored engine starts with `threads = 0` (auto)
//! until the caller sets it with [`StreamState::set_threads`].
//! Writes go through a temporary file and a rename, so a crash
//! mid-checkpoint leaves the previous checkpoint intact.

use std::fs;
use std::path::Path;

use noisemine_core::border_collapse::ProbeStrategy;
use noisemine_core::chernoff::SpreadMode;
use noisemine_core::matching::SymbolMatchScratch;
use noisemine_core::miner::MinerConfig;
use noisemine_core::{CompatibilityMatrix, Pattern, PatternElem, PatternSpace, Symbol};
use noisemine_seqdb::bytes::{write_durable, ByteReader, ByteWriter};
use rand::rngs::StdRng;

use crate::error::{Error, Result};
use crate::state::{MineSnapshot, StreamState};

const MAGIC: &[u8; 8] = b"NMSTRCK\0";
const VERSION: u32 = 2;

/// FNV-1a over the bit patterns of every matrix entry, row-major.
fn matrix_fingerprint(matrix: &CompatibilityMatrix) -> u64 {
    let m = matrix.len();
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for i in 0..m {
        for j in 0..m {
            let bits = matrix.get(Symbol(i as u16), Symbol(j as u16)).to_bits();
            for b in bits.to_le_bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    h
}

fn encode_pattern(out: &mut Vec<u8>, pattern: &Pattern) {
    out.put_u32(pattern.elems().len() as u32);
    for e in pattern.elems() {
        match e.symbol() {
            None => out.put_u32(0),
            Some(Symbol(s)) => out.put_u32(s as u32 + 1),
        }
    }
}

fn decode_pattern(r: &mut ByteReader<'_>) -> Result<Pattern> {
    // Each element is a u32 code: bound the length by the bytes left
    // before allocating for it.
    let len = r.count_u32(4, "pattern length")?;
    let mut elems = Vec::with_capacity(len);
    for _ in 0..len {
        let code = r.u32("pattern element")?;
        elems.push(match code {
            0 => PatternElem::Any,
            s if s <= u16::MAX as u32 + 1 => PatternElem::Sym(Symbol((s - 1) as u16)),
            s => {
                return Err(Error::Corrupt(format!(
                    "pattern element code {s} out of range"
                )));
            }
        });
    }
    Pattern::new(elems).map_err(|e| Error::Corrupt(format!("invalid tracked pattern: {e}")))
}

impl StreamState {
    /// Serializes the full engine state to `path`, atomically (temp file +
    /// rename).
    pub fn checkpoint(&self, path: &Path) -> Result<()> {
        let span = crate::obs::checkpoint_write_seconds().span();
        let mut out = Vec::new();
        out.extend_from_slice(MAGIC);
        out.put_u32(VERSION);

        // Config.
        let cfg = &self.config;
        out.put_f64(cfg.min_match);
        out.put_f64(cfg.delta);
        out.put_u64(cfg.sample_size as u64);
        out.put_u64(cfg.counters_per_scan as u64);
        out.put_u64(cfg.space.max_gap as u64);
        out.put_u64(cfg.space.max_len as u64);
        out.put_u8(match cfg.spread_mode {
            SpreadMode::Full => 0,
            SpreadMode::Restricted => 1,
        });
        out.put_u8(match cfg.probe_strategy {
            ProbeStrategy::BorderCollapsing => 0,
            ProbeStrategy::LevelWise => 1,
        });
        out.put_u64(cfg.seed);
        out.put_u64(cfg.max_sample_patterns as u64);

        // Matrix fingerprint.
        out.put_u32(self.matrix.len() as u32);
        out.put_u64(matrix_fingerprint(&self.matrix));

        // Counters and RNG.
        out.put_u64(self.total);
        for &s in &self.match_sums {
            out.put_f64(s);
        }
        // The in-flight block partial is stored as-is (NOT folded into the
        // sums): a restored engine must resume mid-block so its addition
        // grouping — and therefore its results — stay bit-identical to an
        // uninterrupted run.
        for &p in &self.pending {
            out.put_f64(p);
        }
        for w in self.rng.state() {
            out.put_u64(w);
        }

        // Reservoir.
        out.put_u64(self.reservoir.len() as u64);
        for seq in &self.reservoir {
            out.put_u32(seq.len() as u32);
            for &Symbol(s) in seq {
                out.put_u16(s);
            }
        }

        // Tracked borders.
        out.put_u64(self.tracked.len() as u64);
        for (pattern, sum) in &self.tracked {
            encode_pattern(&mut out, pattern);
            out.put_f64(*sum);
        }

        // Drift anchor.
        match &self.last_mine {
            None => out.put_u8(0),
            Some(snap) => {
                out.put_u8(1);
                out.put_u64(snap.total);
                for &v in &snap.symbol_match {
                    out.put_f64(v);
                }
            }
        }

        // Durability against torn writes: the payload is synced to the
        // temporary file *before* the rename, so after a crash the
        // destination holds either the previous checkpoint or this one in
        // full — never a partial payload.
        write_durable(path, &path.with_extension("tmp"), &out)?;
        span.finish();
        Ok(())
    }

    /// Rebuilds an engine from a checkpoint, resuming deterministically.
    ///
    /// `matrix` must be the same compatibility matrix the checkpointed
    /// engine was created with (validated by fingerprint).
    pub fn restore(path: &Path, matrix: CompatibilityMatrix) -> Result<Self> {
        let buf = fs::read(path)?;
        let mut r = ByteReader::new(&buf);

        if r.take(8, "magic")? != MAGIC {
            return Err(Error::Corrupt("bad magic".into()));
        }
        let version = r.u32("version")?;
        if version != VERSION {
            return Err(Error::Corrupt(format!(
                "unsupported checkpoint version {version} (expected {VERSION})"
            )));
        }

        // Config.
        let min_match = r.f64("min_match")?;
        let delta = r.f64("delta")?;
        let sample_size = r.u64("sample_size")? as usize;
        let counters_per_scan = r.u64("counters_per_scan")? as usize;
        let max_gap = r.u64("max_gap")? as usize;
        let max_len = r.u64("max_len")? as usize;
        let spread_mode = match r.u8("spread_mode")? {
            0 => SpreadMode::Full,
            1 => SpreadMode::Restricted,
            v => return Err(Error::Corrupt(format!("unknown spread mode {v}"))),
        };
        let probe_strategy = match r.u8("probe_strategy")? {
            0 => ProbeStrategy::BorderCollapsing,
            1 => ProbeStrategy::LevelWise,
            v => return Err(Error::Corrupt(format!("unknown probe strategy {v}"))),
        };
        let seed = r.u64("seed")?;
        let max_sample_patterns = r.u64("max_sample_patterns")? as usize;
        let space = PatternSpace::new(max_gap, max_len)
            .map_err(|e| Error::Corrupt(format!("invalid pattern space: {e}")))?;
        let config = MinerConfig {
            min_match,
            delta,
            sample_size,
            counters_per_scan,
            space,
            spread_mode,
            probe_strategy,
            seed,
            max_sample_patterns,
            // Operational only, never checkpointed: 0 = auto-detect.
            threads: 0,
            // Operational only, never checkpointed: the kernels are
            // bit-identical, so a restore always uses the default.
            match_kernel: noisemine_core::MatchKernel::default(),
        };
        config
            .validate()
            .map_err(|e| Error::Corrupt(format!("invalid checkpointed config: {e}")))?;

        // Matrix fingerprint.
        let m = r.u32("alphabet size")? as usize;
        if m != matrix.len() {
            return Err(Error::MatrixMismatch {
                expected: m,
                got: matrix.len(),
            });
        }
        let fp = r.u64("matrix fingerprint")?;
        if fp != matrix_fingerprint(&matrix) {
            return Err(Error::Corrupt(
                "matrix fingerprint mismatch: checkpoint was taken against \
                 different compatibility values"
                    .into(),
            ));
        }

        // Counters and RNG.
        let total = r.u64("total")?;
        let mut match_sums = Vec::with_capacity(m);
        for _ in 0..m {
            match_sums.push(r.f64("match sum")?);
        }
        let mut pending = Vec::with_capacity(m);
        for _ in 0..m {
            pending.push(r.f64("pending block sum")?);
        }
        let mut words = [0u64; 4];
        for w in &mut words {
            *w = r.u64("rng state")?;
        }
        let rng = StdRng::from_state(words);

        // Reservoir.
        let count = r.count_u64(4, "reservoir count")?;
        if count > sample_size {
            return Err(Error::Corrupt(format!(
                "reservoir holds {count} sequences, above the configured \
                 capacity {sample_size}"
            )));
        }
        let mut reservoir = Vec::with_capacity(count);
        for _ in 0..count {
            let len = r.u32("sequence length")? as usize;
            let raw = r.take(len * 2, "sequence symbols")?;
            reservoir.push(
                raw.chunks_exact(2)
                    .map(|c| Symbol(u16::from_le_bytes([c[0], c[1]])))
                    .collect(),
            );
        }

        // Tracked borders.
        let count = r.count_u64(12, "tracked count")?;
        let mut tracked = Vec::with_capacity(count);
        for _ in 0..count {
            let pattern = decode_pattern(&mut r)?;
            let sum = r.f64("tracked sum")?;
            tracked.push((pattern, sum));
        }

        // Drift anchor.
        let last_mine = match r.u8("drift anchor flag")? {
            0 => None,
            1 => {
                let anchor_total = r.u64("drift anchor total")?;
                let mut symbol_match = Vec::with_capacity(m);
                for _ in 0..m {
                    symbol_match.push(r.f64("drift anchor match")?);
                }
                Some(MineSnapshot {
                    total: anchor_total,
                    symbol_match,
                })
            }
            v => return Err(Error::Corrupt(format!("unknown drift anchor flag {v}"))),
        };

        if r.remaining() != 0 {
            return Err(Error::Corrupt(format!(
                "{} trailing bytes after checkpoint payload",
                r.remaining()
            )));
        }

        Ok(StreamState {
            scratch: SymbolMatchScratch::new(m),
            matrix,
            config,
            total,
            match_sums,
            pending,
            rng,
            reservoir,
            tracked,
            last_mine,
        })
    }
}
