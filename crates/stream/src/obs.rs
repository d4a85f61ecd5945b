//! Metric handles for the streaming engine's instrumentation: ingest
//! volume, drift-detector fires, re-mines with border reuse, and checkpoint
//! write latency.
//!
//! Handles are lazily registered in the process-wide
//! [`noisemine_obs::global`] registry and cached in `OnceLock`s; recording
//! is gated on [`noisemine_obs::enabled`] and never influences reservoir
//! contents, drift decisions, or mining output. Every metric is documented
//! in `docs/OBSERVABILITY.md`.

use noisemine_obs::metric;

metric!(
    counter sequences_ingested,
    "stream_sequences_ingested_total",
    "Sequences ingested into the incremental engine (online Algorithm 4.1 updates)",
    "sequences"
);
metric!(
    counter remines,
    "stream_remines_total",
    "Re-mines executed (phase 2 on the reservoir + phase 3 against the prefix)",
    "runs"
);
metric!(
    counter drift_fires,
    "stream_drift_fires_total",
    "Drift checks that found a symbol match beyond the Chernoff deviation since the last mine",
    "fires"
);
metric!(
    counter border_reuse_hits,
    "stream_border_reuse_hits_total",
    "Tracked border patterns whose online exact matches were reused by a re-mine (zero-scan collapses)",
    "patterns"
);
metric!(
    gauge tracked_patterns,
    "stream_tracked_patterns",
    "Border patterns whose exact matches are currently maintained online",
    "patterns"
);
metric!(
    duration_histogram checkpoint_write_seconds,
    "stream_checkpoint_write_seconds",
    "Wall-clock time to serialize and atomically persist one engine checkpoint"
);
