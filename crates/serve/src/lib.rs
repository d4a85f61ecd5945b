//! # noisemine-serve
//!
//! The online match-serving layer: loads mined pattern sets as versioned,
//! checksummed `NMMODEL` artifacts and classifies incoming event sequences
//! against them in real time over a thin HTTP/JSON API — the hot path to
//! the paper's offline three-phase miner (Yang, Wang, Yu, Han — SIGMOD
//! 2002), mirroring the offline-mine/online-classify split of
//! prebuilt-index serving systems.
//!
//! ## Pieces
//!
//! - [`model_io`] — the `NMMODEL` on-disk artifact format: a byte-stable
//!   model payload ([`noisemine_core::model`]) framed with magic, format
//!   version, and CRC32C checksums shared with the sequence database.
//! - [`registry`] — per-tenant model slots with atomic hot-swap: an
//!   ArcSwap-style `Mutex<Arc<ServeModel>>` epoch pointer; in-flight
//!   requests finish on the model they started with.
//! - [`classify`](mod@classify) — the scoring hot path, **bit-identical**
//!   to offline [`db_match_many`] over the same sequences (same batched
//!   trie kernel, same block-ordered float reduction).
//! - [`admission`] — deterministic per-tenant token buckets; exhausted
//!   quota answers HTTP 429.
//! - [`server`] — the zero-dependency server: a `poll(2)` readiness event
//!   loop (raw libc FFI, no external runtime) multiplexing persistent
//!   HTTP/1.1 keep-alive connections across a worker thread pool, with
//!   `/v1/classify`, `/admin/swap`, `/admin/models`, `/admin/shutdown`,
//!   `/metrics` (Prometheus), `/healthz` (liveness), and `/readyz`
//!   (readiness with per-tenant degradation reasons) routes. Idle
//!   connections park in the event loop (no worker held); drain answers
//!   late requests `503` and closes.
//! - [`json`] — the small JSON parser/writer the API uses (floats render
//!   shortest-roundtrip, so scores survive HTTP bit-exactly).
//! - [`catalog`] — the crash-safe model catalog: a directory of
//!   `NMMODEL` artifacts (`<tenant>/<version>.nmmodel`) whose sync pass
//!   validates every artifact end-to-end before adoption and hot-swaps
//!   the newest valid version in. Torn, truncated, corrupt, or mislabeled
//!   files are ignored; the last-good model keeps serving.
//! - [`drift`] — in-server drift detection: classified traffic feeds a
//!   per-tenant [`noisemine_stream::StreamState`]; when the Chernoff
//!   detector fires, a supervised (panic-isolated, time-bounded,
//!   circuit-broken) background re-mine produces a new model, persists it
//!   through the catalog, and self-swaps — mine → serve → drift closes
//!   with no operator.
//! - [`supervisor`] — one tick-driven thread that runs the catalog pass
//!   and the drift ticks; `tick(now)` takes time as an argument, so tests
//!   step it instead of sleeping.
//!
//! See `docs/SERVING.md` for the API reference and operational notes.
//!
//! [`db_match_many`]: noisemine_core::matching::db_match_many

pub mod admission;
pub mod catalog;
pub mod classify;
pub mod drift;
pub mod http;
pub mod json;
pub mod model_io;
pub(crate) mod obs;
pub(crate) mod poll;
pub mod registry;
pub mod server;
pub mod supervisor;

pub use admission::TokenBucket;
pub use catalog::{Catalog, SyncReport, TenantScan};
pub use classify::{classify, Classification};
pub use drift::{DriftConfig, DriftFault};
pub use model_io::{decode_model_file, model_bytes, read_model, write_model, ModelIoError};
pub use registry::{
    Admission, Adoption, ModelRegistry, ServeModel, ServingState, TenantInfo, TenantLookup,
};
pub use server::{ServeConfig, Server};
pub use supervisor::{DriftController, Supervisor, SupervisorHandle};
