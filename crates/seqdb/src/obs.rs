//! Metric handles for the seqdb crate's instrumentation: disk-scan
//! accounting (the paper's cost model counts full scans of a disk-resident
//! database) and the fault-tolerance counters.
//!
//! Handles are lazily registered in the process-wide
//! [`noisemine_obs::global`] registry and cached in `OnceLock`s; recording
//! is gated on [`noisemine_obs::enabled`] and never affects scan contents.
//! Every metric is documented in `docs/OBSERVABILITY.md`.

use noisemine_obs::{self as obs, Counter};
use std::sync::OnceLock;

macro_rules! counter {
    ($fn_name:ident, $name:literal, $help:literal, $unit:literal) => {
        pub(crate) fn $fn_name() -> &'static Counter {
            static H: OnceLock<Counter> = OnceLock::new();
            H.get_or_init(|| obs::counter($name, $help, $unit))
        }
    };
}

counter!(
    disk_scans,
    "seqdb_disk_scans_total",
    "Full scans of a disk-resident database (the unit of cost in the paper's model)",
    "scans"
);
counter!(
    disk_bytes_read,
    "seqdb_disk_bytes_read_total",
    "Bytes decoded from disk-resident databases across all scans",
    "bytes"
);
counter!(
    fault_retries,
    "seqdb_fault_retries_total",
    "Reads retried after a transient I/O fault (Retry/Quarantine policies)",
    "retries"
);
counter!(
    fault_crc_failures,
    "seqdb_fault_crc_failures_total",
    "Checksum mismatches detected while scanning (per-record or whole-file)",
    "failures"
);
counter!(
    fault_resyncs,
    "seqdb_fault_resyncs_total",
    "Record-resynchronization sweeps started by the quarantine census",
    "sweeps"
);
counter!(
    fault_quarantined,
    "seqdb_fault_quarantined_total",
    "Corrupt regions skipped by the Quarantine fault policy",
    "records"
);
counter!(
    fault_scan_failures,
    "seqdb_fault_scan_failures_total",
    "Scans that surfaced an error to the caller",
    "scans"
);
