//! `NMMODEL` — the checksummed on-disk format for pattern-model artifacts:
//! the framing and the model payload inside it. This module is the only
//! code that reads or writes either.
//!
//! Framing (all integers little-endian), mirroring the NMSEQDB v2 idiom of
//! a magic-framed header plus CRC32C integrity at two granularities:
//!
//! ```text
//! offset  size  field
//! 0       8     magic "NMMODEL\0"
//! 8       4     format version (u32, currently 1)
//! 12      8     payload length L (u64)
//! 20      L     model payload (below)
//! 20+L    4     payload CRC32C
//! 24+L    4     file CRC32C (over bytes 0 .. 24+L)
//! ```
//!
//! The payload CRC detects corruption of the model data itself; the file
//! CRC additionally covers the header, so a bit flip *anywhere* in the
//! artifact is rejected with a descriptive error. Checksums use the same
//! CRC32C implementation as the sequence database ([`noisemine_seqdb::crc`]).
//!
//! The payload ([`encode_payload`]) is a [`PatternModel`] in symbol order:
//!
//! ```text
//! payload version  u32   (PAYLOAD_VERSION, currently 1)
//! model version    u64
//! min_match        f64
//! alphabet         m u32, then per symbol: name length u32 + UTF-8 bytes
//! matrix           per observed symbol j < m: entry count u32, then per
//!                  entry: symbol u16 + weight f64 (stored column order)
//! patterns         count u32, then per pattern: element count u32, per
//!                  element tag u8 (0 = `*`, 1 = symbol, followed by its
//!                  u16 id), match estimate f64, provenance u8
//!                  (0 sample-confident, 1 verified, 2 implied)
//! trie nodes       u64   node count of the compiled candidate trie
//! ```
//!
//! Decoding re-compiles the trie and checks its node count against the
//! stored one, so a loaded model provably compiles to the same kernel.
//!
//! Writing is deterministic: the same model always produces the same file
//! bytes, so artifacts can be content-addressed or diffed by checksum.

use std::fmt;
use std::io;
use std::path::Path;

use noisemine_core::error::Error;
use noisemine_core::match_kernel::CandidateTrie;
use noisemine_core::miner::Provenance;
use noisemine_core::{
    Alphabet, CompatibilityMatrix, ModelPattern, Pattern, PatternElem, PatternModel, Symbol,
};
use noisemine_seqdb::bytes::{write_durable, ByteError, ByteReader, ByteWriter};
use noisemine_seqdb::crc::crc32c;

/// The 8-byte magic that opens every NMMODEL file.
pub const NMMODEL_MAGIC: &[u8; 8] = b"NMMODEL\0";
/// Current format version.
pub const NMMODEL_VERSION: u32 = 1;
/// Version of the payload encoding itself (bumped on layout changes;
/// distinct from [`PatternModel::version`], which identifies the *data*
/// the model was mined from).
pub const PAYLOAD_VERSION: u32 = 1;
/// Fixed header length (magic + version + payload length).
pub const HEADER_LEN: usize = 20;
/// Bytes of framing after the payload (payload CRC + file CRC).
pub const TRAILER_LEN: usize = 8;

/// Errors reading or writing an NMMODEL artifact.
#[derive(Debug)]
pub enum ModelIoError {
    /// An underlying I/O failure.
    Io(io::Error),
    /// The file is not a valid NMMODEL artifact; the message says exactly
    /// what was malformed (bad magic, checksum mismatch, truncation, or a
    /// payload decode failure).
    Format(String),
}

impl fmt::Display for ModelIoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelIoError::Io(e) => write!(f, "model artifact i/o error: {e}"),
            ModelIoError::Format(msg) => write!(f, "invalid NMMODEL artifact: {msg}"),
        }
    }
}

impl std::error::Error for ModelIoError {}

impl From<io::Error> for ModelIoError {
    fn from(e: io::Error) -> Self {
        ModelIoError::Io(e)
    }
}

/// Result alias for artifact I/O.
pub type ModelIoResult<T> = Result<T, ModelIoError>;

/// Serializes a model to its complete NMMODEL file bytes (deterministic).
pub fn model_bytes(model: &PatternModel) -> Vec<u8> {
    frame(&encode_payload(model))
}

/// Frames a payload as complete NMMODEL file bytes.
fn frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len() + TRAILER_LEN);
    out.extend_from_slice(NMMODEL_MAGIC);
    out.put_u32(NMMODEL_VERSION);
    out.put_u64(payload.len() as u64);
    out.extend_from_slice(payload);
    out.put_u32(crc32c(payload));
    out.put_u32(crc32c(&out));
    out
}

/// Writes a model artifact atomically (`path.tmp` then rename).
pub fn write_model(path: impl AsRef<Path>, model: &PatternModel) -> ModelIoResult<()> {
    let path = path.as_ref();
    let bytes = model_bytes(model);
    write_durable(path, &path.with_extension("nmmodel.tmp"), &bytes)?;
    Ok(())
}

/// Decodes a model from complete NMMODEL file bytes, verifying both
/// checksums before touching the payload.
pub fn decode_model_file(bytes: &[u8]) -> ModelIoResult<PatternModel> {
    if bytes.len() < HEADER_LEN + TRAILER_LEN {
        return Err(ModelIoError::Format(format!(
            "file is {} bytes, shorter than the {}-byte minimum (header + checksums); \
             truncated write?",
            bytes.len(),
            HEADER_LEN + TRAILER_LEN
        )));
    }
    // Every framing read below is in bounds: the file holds at least the
    // header and the trailer, and the payload length is checked against
    // the file length before the payload is taken.
    const FRAMED: &str = "framing fits the checked file length";
    let mut r = ByteReader::new(bytes);
    let magic = r.take(8, "magic").expect(FRAMED);
    if magic != NMMODEL_MAGIC {
        return Err(ModelIoError::Format(format!(
            "bad magic {magic:02x?} (expected {NMMODEL_MAGIC:02x?} — not an NMMODEL file, or \
             the header is corrupt)"
        )));
    }
    let version = r.u32("format version").expect(FRAMED);
    if version != NMMODEL_VERSION {
        return Err(ModelIoError::Format(format!(
            "format version {version} (this build reads version {NMMODEL_VERSION})"
        )));
    }
    // Whole-file CRC first: it covers the header, so a flipped length or
    // version byte is caught before it can misdirect the payload parse.
    let file_crc_at = bytes.len() - 4;
    let stored_file_crc = ByteReader::new(&bytes[file_crc_at..])
        .u32("file checksum")
        .expect(FRAMED);
    let actual_file_crc = crc32c(&bytes[..file_crc_at]);
    if stored_file_crc != actual_file_crc {
        return Err(ModelIoError::Format(format!(
            "file checksum mismatch: stored {stored_file_crc:#010x}, computed \
             {actual_file_crc:#010x} — the artifact is corrupt"
        )));
    }
    let payload_len = r.u64("payload length").expect(FRAMED);
    let expected_total = payload_len.saturating_add((HEADER_LEN + TRAILER_LEN) as u64);
    if bytes.len() as u64 != expected_total {
        return Err(ModelIoError::Format(format!(
            "header promises a {payload_len}-byte payload ({expected_total} bytes total) but the \
             file is {} bytes",
            bytes.len()
        )));
    }
    let payload = r.take(payload_len as usize, "payload").expect(FRAMED);
    let stored_payload_crc = r.u32("payload checksum").expect(FRAMED);
    let actual_payload_crc = crc32c(payload);
    if stored_payload_crc != actual_payload_crc {
        return Err(ModelIoError::Format(format!(
            "payload checksum mismatch: stored {stored_payload_crc:#010x}, computed \
             {actual_payload_crc:#010x} — the model data is corrupt"
        )));
    }
    decode_payload(payload).map_err(|e| ModelIoError::Format(format!("payload decode failed: {e}")))
}

/// Reads and verifies a model artifact from disk.
pub fn read_model(path: impl AsRef<Path>) -> ModelIoResult<PatternModel> {
    let path = path.as_ref();
    let bytes = std::fs::read(path)?;
    decode_model_file(&bytes).map_err(|e| match e {
        ModelIoError::Format(msg) => ModelIoError::Format(format!("{}: {msg}", path.display())),
        other => other,
    })
}

/// Serializes a model to its canonical payload (layout in the module docs).
///
/// Deterministic: the same model always yields the same bytes, so two
/// models are equal exactly when their payloads are.
pub fn encode_payload(model: &PatternModel) -> Vec<u8> {
    let mut out = Vec::with_capacity(1024);
    out.put_u32(PAYLOAD_VERSION);
    out.put_u64(model.version);
    out.put_f64(model.min_match);
    // Alphabet: names in symbol order.
    let m = model.alphabet.len();
    out.put_u32(m as u32);
    for (_, name) in model.alphabet.iter() {
        let bytes = name.as_bytes();
        out.put_u32(bytes.len() as u32);
        out.extend_from_slice(bytes);
    }
    // Matrix: sparse columns (observed-major), entries in stored order.
    for j in 0..m {
        let col = model.matrix.column(Symbol(j as u16));
        out.put_u32(col.len() as u32);
        for &(sym, w) in col {
            out.put_u16(sym.0);
            out.put_f64(w);
        }
    }
    // Patterns.
    out.put_u32(model.patterns.len() as u32);
    for mp in &model.patterns {
        let elems = mp.pattern.elems();
        out.put_u32(elems.len() as u32);
        for e in elems {
            match e {
                PatternElem::Any => out.put_u8(0),
                PatternElem::Sym(s) => {
                    out.put_u8(1);
                    out.put_u16(s.0);
                }
            }
        }
        out.put_f64(mp.match_estimate);
        out.put_u8(match mp.provenance {
            Provenance::SampleConfident => 0,
            Provenance::Verified => 1,
            Provenance::Implied => 2,
        });
    }
    out.put_u64(model.trie_nodes);
    out
}

/// Decodes a payload produced by [`encode_payload`].
///
/// Every failure carries a description of what was malformed and where.
/// The compiled trie's node count is re-derived and checked against the
/// stored metadata.
fn decode_payload(bytes: &[u8]) -> Result<PatternModel, Error> {
    let mut r = ByteReader::new(bytes);
    let payload_version = r.u32("payload version").map_err(field)?;
    if payload_version != PAYLOAD_VERSION {
        return Err(payload_err(format!(
            "unsupported model payload version {payload_version} (this build reads {PAYLOAD_VERSION})"
        )));
    }
    let version = r.u64("model version").map_err(field)?;
    let min_match = r.f64("min_match").map_err(field)?;
    if !(0.0..=1.0).contains(&min_match) {
        return Err(payload_err(format!("min_match {min_match} outside [0, 1]")));
    }
    let m = r.u32("alphabet size").map_err(field)? as usize;
    if m == 0 || m > usize::from(u16::MAX) + 1 {
        return Err(payload_err(format!("alphabet size {m} out of range")));
    }
    let mut names = Vec::with_capacity(m);
    for i in 0..m {
        let len = r.u32("symbol name length").map_err(field)? as usize;
        if len > 4096 {
            return Err(payload_err(format!(
                "symbol {i} name length {len} exceeds the 4096-byte cap"
            )));
        }
        let raw = r.take(len, "symbol name").map_err(field)?;
        let name = std::str::from_utf8(raw)
            .map_err(|_| payload_err(format!("symbol {i} name is not valid UTF-8")))?;
        names.push(name.to_string());
    }
    let alphabet = Alphabet::new(names)?;
    let mut columns = Vec::with_capacity(m);
    for j in 0..m {
        let entries = r.u32("matrix column entry count").map_err(field)? as usize;
        if entries > m {
            return Err(payload_err(format!(
                "matrix column {j} has {entries} entries for an alphabet of {m}"
            )));
        }
        let mut col = Vec::with_capacity(entries);
        for _ in 0..entries {
            let sym = r.u16("matrix entry symbol").map_err(field)?;
            let w = r.f64("matrix entry weight").map_err(field)?;
            col.push((Symbol(sym), w));
        }
        columns.push(col);
    }
    let matrix = CompatibilityMatrix::scores_from_sparse_columns(columns)?;
    // Both counts are bounded by the bytes left before anything is
    // reserved; an element takes at least its tag byte.
    let count = r
        .count_u32(MIN_PATTERN_LEN, "pattern count")
        .map_err(field)?;
    let mut patterns = Vec::with_capacity(count);
    for i in 0..count {
        let elems_len = r.count_u32(1, "pattern length").map_err(field)?;
        if elems_len == 0 {
            return Err(payload_err(format!("pattern {i} is empty")));
        }
        let mut elems = Vec::with_capacity(elems_len);
        for _ in 0..elems_len {
            match r.u8("pattern element tag").map_err(field)? {
                0 => elems.push(PatternElem::Any),
                1 => {
                    let s = r.u16("pattern symbol").map_err(field)?;
                    if usize::from(s) >= m {
                        return Err(payload_err(format!(
                            "pattern {i} references symbol id {s} outside the {m}-symbol alphabet"
                        )));
                    }
                    elems.push(PatternElem::Sym(Symbol(s)));
                }
                t => {
                    return Err(payload_err(format!(
                        "pattern {i} has unknown element tag {t}"
                    )))
                }
            }
        }
        let pattern = Pattern::new(elems)?;
        let match_estimate = r.f64("match estimate").map_err(field)?;
        let provenance = match r.u8("provenance tag").map_err(field)? {
            0 => Provenance::SampleConfident,
            1 => Provenance::Verified,
            2 => Provenance::Implied,
            t => {
                return Err(payload_err(format!(
                    "pattern {i} has unknown provenance tag {t}"
                )))
            }
        };
        patterns.push(ModelPattern {
            pattern,
            match_estimate,
            provenance,
        });
    }
    let trie_nodes = r.u64("trie node count").map_err(field)?;
    if r.remaining() != 0 {
        return Err(payload_err(format!(
            "{} trailing bytes after the model payload",
            r.remaining()
        )));
    }
    let model = PatternModel {
        version,
        min_match,
        alphabet,
        matrix,
        patterns,
        trie_nodes,
    };
    let plain = model.plain_patterns();
    let actual = if plain.is_empty() {
        0
    } else {
        CandidateTrie::new(&plain).num_nodes() as u64
    };
    if actual != model.trie_nodes {
        return Err(payload_err(format!(
            "compiled trie has {actual} nodes but the model metadata recorded {}",
            model.trie_nodes
        )));
    }
    Ok(model)
}

/// Fewest bytes an encoded pattern takes: element count u32, one element
/// tag u8, match estimate f64, provenance u8.
const MIN_PATTERN_LEN: usize = 4 + 1 + 8 + 1;

/// A payload field that failed to decode.
fn field(e: ByteError) -> Error {
    match e {
        ByteError::Truncated {
            what,
            at,
            need,
            left,
        } => payload_err(format!(
            "truncated while reading {what} at byte {at} (need {need} bytes, {left} left)"
        )),
        ByteError::Overlong { what, .. } => payload_err(format!("{what} is out of range")),
    }
}

fn payload_err(msg: String) -> Error {
    Error::InvalidConfig(format!("pattern model: {msg}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use noisemine_core::lattice::Border;
    use noisemine_core::miner::{FrequentPattern, MineOutcome, MineStats, Provenance};
    use noisemine_core::{Alphabet, CompatibilityMatrix, Pattern, Symbol};

    fn sample_model() -> PatternModel {
        let alphabet = Alphabet::synthetic(5);
        let matrix = CompatibilityMatrix::uniform_noise(5, 0.1).unwrap();
        let outcome = MineOutcome {
            frequent: vec![FrequentPattern {
                pattern: Pattern::contiguous(&[Symbol(0), Symbol(2), Symbol(4)]).unwrap(),
                match_estimate: 0.5,
                provenance: Provenance::Verified,
            }],
            border: Border::default(),
            symbol_match: vec![0.4; 5],
            stats: MineStats::default(),
        };
        PatternModel::from_outcome(&outcome, &alphabet, &matrix, 0.25, 7)
    }

    #[test]
    fn file_bytes_are_deterministic() {
        let model = sample_model();
        assert_eq!(model_bytes(&model), model_bytes(&model));
    }

    #[test]
    fn file_round_trips() {
        let model = sample_model();
        let bytes = model_bytes(&model);
        let back = decode_model_file(&bytes).unwrap();
        assert_eq!(model_bytes(&back), bytes);
        assert_eq!(back.version, 7);
    }

    #[test]
    fn every_single_bit_flip_is_rejected() {
        let model = sample_model();
        let clean = model_bytes(&model);
        for bit in 0..clean.len() * 8 {
            let mut corrupt = clean.clone();
            corrupt[bit / 8] ^= 1 << (bit % 8);
            assert!(
                decode_model_file(&corrupt).is_err(),
                "bit {bit} flip went undetected"
            );
        }
    }

    #[test]
    fn truncation_is_descriptive() {
        let model = sample_model();
        let bytes = model_bytes(&model);
        let err = decode_model_file(&bytes[..10]).unwrap_err();
        assert!(err.to_string().contains("truncated write"), "{err}");
        let err = decode_model_file(&bytes[..bytes.len() - 1]).unwrap_err();
        assert!(err.to_string().contains("checksum"), "{err}");
    }

    #[test]
    fn oversized_payload_length_is_rejected() {
        // A payload length near `u64::MAX` under a matching file checksum
        // must be rejected by the length check, not overflow the offsets.
        let mut bytes = model_bytes(&sample_model());
        let crc_at = bytes.len() - 4;
        for len in [u64::MAX, u64::MAX - 27, (bytes.len() as u64) << 1] {
            bytes[12..20].copy_from_slice(&len.to_le_bytes());
            let crc = crc32c(&bytes[..crc_at]);
            bytes[crc_at..].copy_from_slice(&crc.to_le_bytes());
            let err = decode_model_file(&bytes).unwrap_err();
            assert!(err.to_string().contains("header promises"), "{err}");
        }
    }

    #[test]
    fn wrong_magic_is_descriptive() {
        let err = decode_model_file(b"NOTAMODELFILE_AT_ALL_____PADDING").unwrap_err();
        assert!(err.to_string().contains("magic"), "{err}");
    }

    fn payload_sample_model() -> PatternModel {
        let alphabet = Alphabet::synthetic(6);
        let matrix = CompatibilityMatrix::uniform_noise(6, 0.2)
            .unwrap()
            .diagonal_normalized_clamped()
            .unwrap();
        let p1 = Pattern::contiguous(&[Symbol(0), Symbol(1), Symbol(2)]).unwrap();
        let p2 = Pattern::new(vec![
            PatternElem::Sym(Symbol(3)),
            PatternElem::Any,
            PatternElem::Sym(Symbol(4)),
        ])
        .unwrap();
        let outcome = MineOutcome {
            frequent: vec![
                FrequentPattern {
                    pattern: p1,
                    match_estimate: 0.625,
                    provenance: Provenance::Verified,
                },
                FrequentPattern {
                    pattern: p2,
                    match_estimate: 0.1875,
                    provenance: Provenance::Implied,
                },
            ],
            border: Border::default(),
            symbol_match: vec![0.5; 6],
            stats: MineStats::default(),
        };
        PatternModel::from_outcome(&outcome, &alphabet, &matrix, 0.125, 42)
    }

    #[test]
    fn encode_is_byte_stable() {
        let model = payload_sample_model();
        assert_eq!(encode_payload(&model), encode_payload(&model));
    }

    #[test]
    fn round_trips_exactly() {
        let model = payload_sample_model();
        let bytes = encode_payload(&model);
        let back = decode_payload(&bytes).unwrap();
        assert_eq!(encode_payload(&back), bytes);
        assert_eq!(back.version, model.version);
        assert_eq!(back.patterns.len(), model.patterns.len());
    }

    #[test]
    fn round_trips_non_stochastic_matrix() {
        // diagonal_normalized produces a *score* matrix whose columns do
        // not sum to 1 — the payload must survive it.
        let model = payload_sample_model();
        assert!(decode_payload(&encode_payload(&model)).is_ok());
    }

    #[test]
    fn rejects_truncation_with_context() {
        let model = payload_sample_model();
        let bytes = encode_payload(&model);
        let err = decode_payload(&bytes[..bytes.len() - 3]).unwrap_err();
        assert!(err.to_string().contains("truncated"), "{err}");
    }

    #[test]
    fn rejects_trailing_garbage() {
        let model = payload_sample_model();
        let mut bytes = encode_payload(&model);
        bytes.extend_from_slice(&[0, 1, 2]);
        let err = decode_payload(&bytes).unwrap_err();
        assert!(err.to_string().contains("trailing"), "{err}");
    }

    #[test]
    fn rejects_wrong_trie_metadata() {
        let model = payload_sample_model();
        let mut bytes = encode_payload(&model);
        let n = bytes.len();
        // trie_nodes is the final u64; nudge it.
        bytes[n - 8] ^= 1;
        let err = decode_payload(&bytes).unwrap_err();
        assert!(err.to_string().contains("trie"), "{err}");
    }

    #[test]
    fn forged_counts_fail_before_any_reservation() {
        // An empty model's pattern count sits just before the trailing
        // trie node count. Claiming 2^20 patterns under valid checksums
        // used to reserve 2^20 pattern slots (40 MiB) before the first
        // pattern read failed; the count is now checked against the bytes
        // left first.
        let alphabet = Alphabet::synthetic(3);
        let matrix = CompatibilityMatrix::identity(3);
        let empty = MineOutcome {
            frequent: Vec::new(),
            border: Border::default(),
            symbol_match: vec![0.0; 3],
            stats: MineStats::default(),
        };
        let model = PatternModel::from_outcome(&empty, &alphabet, &matrix, 0.5, 1);
        let mut payload = encode_payload(&model);
        let at = payload.len() - 12;
        payload[at..at + 4].copy_from_slice(&(1u32 << 20).to_le_bytes());
        let err = decode_model_file(&frame(&payload)).unwrap_err();
        assert!(
            err.to_string().contains("pattern count is out of range"),
            "{err}"
        );

        // One pattern claiming 2^20 elements, with bytes for a single one.
        let mut payload = encode_payload(&model);
        payload.truncate(payload.len() - 12);
        payload.put_u32(1);
        payload.put_u32(1 << 20);
        payload.extend_from_slice(&[0; 1 + 8 + 1 + 8]);
        let err = decode_model_file(&frame(&payload)).unwrap_err();
        assert!(
            err.to_string().contains("pattern length is out of range"),
            "{err}"
        );
    }

    #[test]
    fn rejects_unknown_payload_version() {
        let model = payload_sample_model();
        let mut bytes = encode_payload(&model);
        bytes[0] = 99;
        let err = decode_payload(&bytes).unwrap_err();
        assert!(err.to_string().contains("payload version"), "{err}");
    }

    #[test]
    fn empty_pattern_set_round_trips() {
        let alphabet = Alphabet::synthetic(3);
        let matrix = CompatibilityMatrix::identity(3);
        let outcome = MineOutcome {
            frequent: Vec::new(),
            border: Border::default(),
            symbol_match: vec![0.0; 3],
            stats: MineStats::default(),
        };
        let model = PatternModel::from_outcome(&outcome, &alphabet, &matrix, 0.5, 1);
        assert_eq!(model.trie_nodes, 0);
        let back = decode_payload(&encode_payload(&model)).unwrap();
        assert_eq!(encode_payload(&back), encode_payload(&model));
    }
}
