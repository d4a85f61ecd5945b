//! # noisemine-seqdb
//!
//! The sequence-database substrate for the noisemine workspace: in-memory
//! and disk-resident stores implementing the core crate's
//! [`noisemine_core::matching::SequenceScan`] contract, with **scan
//! accounting** — the paper's principal cost metric for disk-resident data.
//!
//! The disk store is fault-tolerant: scans are fallible, records are
//! checksummed (NMSEQDB format v2), and a [`FaultPolicy`] chooses between
//! failing fast, retrying transient I/O, and quarantining corrupt records.
//! See `docs/ROBUSTNESS.md` for the fault model and [`fault`] for the
//! deterministic fault-injection harness used by the chaos tests.

pub mod bytes;
pub mod crc;
pub mod disk;
pub mod fault;
pub mod memory;
pub(crate) mod obs;
pub mod text;

pub use disk::{DiskDb, DiskDbWriter, DiskError, DiskResult};
pub use fault::{FaultPlan, FaultPolicy, FaultyStore, QuarantinedRecord};
pub use memory::MemoryDb;
pub use text::{
    infer_alphabet, read_sequences, read_sequences_file, write_sequences, write_sequences_file,
};
