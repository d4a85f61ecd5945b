//! The serve supervisor: catalog sync and drift re-mining on one
//! tick-driven thread.
//!
//! [`Supervisor`] owns the optional [`Catalog`] with its scan interval and
//! the optional per-tenant drift state ([`crate::drift`]). Its core is two
//! calls with no thread and no clock of their own:
//!
//! - [`Supervisor::absorb`] folds one classified batch into its tenant's
//!   drift engine;
//! - [`Supervisor::tick`] runs whatever is due at the `now` it is given —
//!   the catalog pass first, then every tenant's drift tick.
//!
//! Tests drive those two directly and step `now` instead of sleeping.
//! [`Supervisor::spawn`] runs the first catalog pass synchronously, then
//! hands the supervisor to one background thread that receives samples
//! from [`DriftController`]s until the next due instant and then ticks at
//! [`Instant::now`]. A re-mine blocks its tick (see [`crate::drift`]), so
//! a catalog pass that falls due during a re-mine runs right after it.

use std::sync::mpsc::{self, Receiver, RecvTimeoutError, SyncSender, TrySendError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use noisemine_core::Symbol;

use crate::catalog::{Catalog, SyncReport};
use crate::drift::{Drift, DriftConfig};
use crate::registry::ModelRegistry;

/// The catalog and drift supervisor (see the module docs).
pub struct Supervisor {
    registry: Arc<ModelRegistry>,
    catalog: Option<(Catalog, Duration)>,
    next_catalog: Instant,
    pub(crate) drift: Option<Drift>,
    next_drift: Instant,
}

impl Supervisor {
    /// A supervisor over `registry` whose first catalog pass and drift
    /// tick are both due at `now`. `catalog` is the watched directory and
    /// its scan interval; re-mined models are persisted there before
    /// adoption (in-memory only without one). `drift` enables the drift
    /// loop.
    ///
    /// Fails if the drift pattern space is invalid (`max_len == 0`).
    pub fn new(
        registry: Arc<ModelRegistry>,
        catalog: Option<(Catalog, Duration)>,
        drift: Option<DriftConfig>,
        now: Instant,
    ) -> noisemine_core::Result<Self> {
        Ok(Self {
            registry,
            catalog,
            next_catalog: now,
            drift: drift.map(Drift::new).transpose()?,
            next_drift: now,
        })
    }

    /// Folds one classified batch for `tenant` into its drift engine (a
    /// no-op without drift).
    pub fn absorb(&mut self, tenant: &str, sequences: Vec<Vec<Symbol>>) {
        if let Some(drift) = &mut self.drift {
            drift.absorb(&self.registry, tenant, sequences);
        }
    }

    /// Runs whatever is due at `now`: the catalog pass (returning its
    /// report), then every tenant's drift tick. Each reschedules itself
    /// one interval after `now`.
    pub fn tick(&mut self, now: Instant) -> Option<SyncReport> {
        let report = match &self.catalog {
            Some((catalog, interval)) if now >= self.next_catalog => {
                self.next_catalog = now + *interval;
                Some(catalog.sync(&self.registry))
            }
            _ => None,
        };
        if let Some(drift) = &mut self.drift {
            if now >= self.next_drift {
                self.next_drift = now + drift.interval();
                let catalog = self.catalog.as_ref().map(|(c, _)| c);
                drift.tick(&self.registry, catalog, now);
            }
        }
        report
    }

    /// The earliest instant something is due, or `None` when neither a
    /// catalog nor drift is configured.
    pub fn next_due(&self) -> Option<Instant> {
        let catalog = self.catalog.as_ref().map(|_| self.next_catalog);
        let drift = self.drift.as_ref().map(|_| self.next_drift);
        catalog.into_iter().chain(drift).min()
    }

    /// Runs the first catalog pass on the calling thread (so `/readyz` is
    /// meaningful from the first request) and moves the supervisor onto
    /// its background thread. Returns the handle and that pass's report
    /// (empty without a catalog).
    pub fn spawn(mut self) -> (SupervisorHandle, SyncReport) {
        noisemine_obs::enable();
        let report = self.tick(Instant::now()).unwrap_or_default();
        let drift = self.drift.is_some();
        let (tx, rx) = mpsc::sync_channel(SAMPLE_CHANNEL_CAP);
        let thread = std::thread::Builder::new()
            .name("serve-supervisor".to_string())
            .spawn(move || run(self, &rx))
            .expect("spawn serve supervisor");
        let handle = SupervisorHandle {
            tx,
            drift,
            thread: Some(thread),
        };
        (handle, report)
    }
}

/// The supervisor thread's loop: tick when due, otherwise wait for a
/// sample until the next due instant.
fn run(mut supervisor: Supervisor, rx: &Receiver<Msg>) {
    loop {
        let now = Instant::now();
        let msg = match supervisor.next_due() {
            Some(due) if due <= now => {
                supervisor.tick(now);
                continue;
            }
            Some(due) => rx.recv_timeout(due - now),
            None => rx.recv().map_err(|_| RecvTimeoutError::Disconnected),
        };
        match msg {
            Ok(Msg::Sample(tenant, sequences)) => supervisor.absorb(&tenant, sequences),
            Err(RecvTimeoutError::Timeout) => {}
            Ok(Msg::Stop) | Err(RecvTimeoutError::Disconnected) => return,
        }
    }
}

/// What the supervisor thread receives.
enum Msg {
    /// One classified batch for a tenant.
    Sample(String, Vec<Vec<Symbol>>),
    Stop,
}

/// Channel capacity for classify → supervisor samples. Overflow is
/// dropped (and counted), never blocks a request.
const SAMPLE_CHANNEL_CAP: usize = 1024;

/// The running supervisor thread. Dropping the handle (or calling
/// [`Self::stop`]) stops the thread once its current tick has finished,
/// and joins it.
#[derive(Debug)]
pub struct SupervisorHandle {
    tx: SyncSender<Msg>,
    drift: bool,
    thread: Option<JoinHandle<()>>,
}

impl SupervisorHandle {
    /// The classify route's feed into the drift loop, or `None` when the
    /// supervisor runs without drift.
    pub fn controller(&self) -> Option<Arc<DriftController>> {
        self.drift.then(|| {
            Arc::new(DriftController {
                tx: self.tx.clone(),
            })
        })
    }

    /// Stops and joins the supervisor thread; `Err` carries its panic.
    pub fn stop(mut self) -> std::thread::Result<()> {
        self.shutdown()
    }

    fn shutdown(&mut self) -> std::thread::Result<()> {
        let Some(thread) = self.thread.take() else {
            return Ok(());
        };
        // Queued behind any pending samples; a thread that already exited
        // makes the send fail, and the join reports why.
        let _ = self.tx.send(Msg::Stop);
        thread.join()
    }
}

impl Drop for SupervisorHandle {
    fn drop(&mut self) {
        let _ = self.shutdown();
    }
}

/// The classify route's handle into the drift loop: forwards classified
/// batches, best-effort.
#[derive(Debug)]
pub struct DriftController {
    tx: SyncSender<Msg>,
}

impl DriftController {
    /// Forwards one classified batch to the supervisor. Non-blocking: a
    /// full channel (or a stopped supervisor) drops the sample and bumps
    /// `serve_drift_samples_dropped_total` — drift sampling is best-effort
    /// by design, classification latency is never taxed.
    pub fn ingest(&self, tenant: &str, sequences: &[Vec<Symbol>]) {
        if sequences.is_empty() {
            return;
        }
        let sample = Msg::Sample(tenant.to_string(), sequences.to_vec());
        match self.tx.try_send(sample) {
            Ok(()) => crate::obs::drift_samples().add(sequences.len() as u64),
            Err(TrySendError::Full(_) | TrySendError::Disconnected(_)) => {
                crate::obs::drift_samples_dropped().add(sequences.len() as u64);
            }
        }
    }
}
