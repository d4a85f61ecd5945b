//! The long-running server: a `poll(2)` readiness event loop, a worker
//! thread pool, persistent HTTP/1.1 connections, and the JSON route
//! handlers.
//!
//! ## Architecture
//!
//! One event-loop thread owns the listener and every **parked** (idle
//! keep-alive) connection, multiplexing them through a single `poll(2)`
//! call (raw FFI in the private `poll` module — no external runtime, matching the
//! workspace's zero-dependency ethos). When a parked connection becomes
//! readable it is handed to a fixed pool of worker threads over an `mpsc`
//! channel; the worker reads requests, answers them, serves any pipelined
//! followers already buffered, and then *returns* the connection to the
//! event loop (a self-pipe wakeup interrupts the poll). Many idle
//! connections therefore cost no worker at all — workers only ever hold
//! connections that have bytes to process.
//!
//! Connection lifetime is bounded two ways: an **idle timeout** (parked
//! connections that stay silent are evicted; the same duration bounds
//! reads inside a trickled request, so a slow-loris peer cannot pin a
//! worker) and an optional **requests-per-connection cap** (the final
//! response carries `Connection: close`).
//!
//! Shutdown (the `/admin/shutdown` route, or [`Server::stop`]) starts a
//! graceful drain: the listener closes immediately, requests already
//! dispatched complete normally (their response switches to
//! `Connection: close`), and parked connections get a **drain grace**
//! window in which any request they submit is answered `503` + close.
//! No dispatched request is ever dropped — including across a model
//! hot-swap, which only replaces an `Arc` in the registry.
//!
//! ## Routes
//!
//! | Route                  | Method | Purpose |
//! |------------------------|--------|---------|
//! | `/v1/classify`         | POST   | Score sequences against the tenant's active model |
//! | `/metrics`             | GET    | Prometheus rendering of the process metrics registry |
//! | `/healthz`             | GET    | Liveness probe — always `200` while the process can answer |
//! | `/readyz`              | GET    | Readiness probe — `200` only when every tenant has a valid model; degraded tenants listed with reasons |
//! | `/admin/models`        | GET    | Tenants, active versions, pattern counts, serving states |
//! | `/admin/swap`          | POST   | Load an `NMMODEL` artifact and hot-swap it in |
//! | `/admin/shutdown`      | POST   | Graceful drain + shutdown |
//!
//! Liveness and readiness are deliberately distinct: `/healthz` answers
//! `200` as long as the event loop breathes (restart the process only if
//! *that* fails), while `/readyz` reports whether every configured tenant
//! can actually be served (`503` + per-tenant reasons otherwise — route
//! traffic away, don't restart; the supervisor's catalog pass or drift
//! loop is already working the problem).
//!
//! See `docs/SERVING.md` for request/response examples and the full
//! connection-lifecycle contract.

use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use noisemine_core::Symbol;

use crate::classify::classify;
use crate::http::{
    read_request_buffered, try_parse_request, write_response, ConnBuf, Request, Response,
};
use crate::json::{self, Value};
use crate::model_io::read_model;
use crate::poll::{poll_fds, PollFd, WakePipe};
use crate::registry::{Admission, ModelRegistry, ServeModel, TenantLookup};
use crate::supervisor::DriftController;

/// Bound on one response write (a stuck reader cannot pin a worker).
const WRITE_TIMEOUT: Duration = Duration::from_secs(10);

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address, e.g. `127.0.0.1:7700` (`:0` picks a free port).
    pub addr: String,
    /// Worker threads handling requests.
    pub threads: usize,
    /// Maximum requests served on one connection before the server closes
    /// it (`Connection: close` on the final response). `0` = unlimited.
    pub max_requests_per_conn: usize,
    /// Parked keep-alive connections idle longer than this are evicted;
    /// the same duration bounds socket reads inside a trickled request.
    pub idle_timeout: Duration,
    /// After shutdown is requested, how long parked connections may still
    /// submit a final request (answered `503` + `Connection: close`)
    /// before the event loop exits.
    pub drain_grace: Duration,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            threads: 4,
            max_requests_per_conn: 0,
            idle_timeout: Duration::from_secs(10),
            drain_grace: Duration::from_millis(500),
        }
    }
}

/// A running server. Dropping the handle does **not** stop it; call
/// [`Server::stop`] (or POST `/admin/shutdown`) and then [`Server::join`].
pub struct Server {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    wake: Arc<WakePipe>,
    event_thread: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    registry: Arc<ModelRegistry>,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("addr", &self.addr)
            .field("workers", &self.workers.len())
            .finish()
    }
}

/// Shared request-handling context.
pub(crate) struct Ctx {
    registry: Arc<ModelRegistry>,
    shutdown: Arc<AtomicBool>,
    /// Epoch for admission-control timestamps.
    start: Instant,
    /// Interrupts the event loop's poll when shutdown is requested from a
    /// route handler (`None` in router-only tests).
    wake: Option<Arc<WakePipe>>,
    /// Classified batches are forwarded here (best-effort) when the
    /// in-server drift loop is enabled.
    drift: Option<Arc<DriftController>>,
}

impl Ctx {
    /// Flips the shutdown flag and kicks the event loop awake so the
    /// drain starts immediately rather than at the next poll timeout.
    fn notify_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(wake) = &self.wake {
            wake.wake();
        }
    }
}

/// One live connection: the socket, its carry-over parse buffer, and the
/// per-connection request count the keep-alive cap is enforced against.
struct Conn {
    stream: TcpStream,
    buf: ConnBuf,
    /// Requests already served on this connection.
    served: usize,
    /// When the connection was last parked (or accepted) — the idle
    /// timeout measures from here.
    parked_at: Instant,
    /// Open-connection accounting; decrements on drop wherever the
    /// connection dies (worker close, idle eviction, drain teardown).
    _track: ConnTrack,
}

struct ConnTrack {
    open: Arc<AtomicI64>,
}

impl Drop for ConnTrack {
    fn drop(&mut self) {
        let now = self.open.fetch_sub(1, Ordering::SeqCst) - 1;
        crate::obs::open_connections().set(now as f64);
    }
}

/// A readable connection handed to a worker, with the drain flag captured
/// at dispatch time (requests dispatched before drain complete normally;
/// requests dispatched after answer 503).
struct Job {
    conn: Conn,
    draining: bool,
}

/// State the workers share with the event loop.
struct Shared {
    ctx: Arc<Ctx>,
    /// Workers park still-alive keep-alive connections back here…
    return_tx: mpsc::Sender<Conn>,
    /// …and wake the event loop so the poll set picks them up.
    wake: Arc<WakePipe>,
    max_requests_per_conn: usize,
}

impl Server {
    /// Binds, spawns the event loop and worker pool, and returns.
    ///
    /// Also enables the process metrics registry — a serving process is an
    /// observability surface by definition (`/metrics` is a core route).
    pub fn start(config: &ServeConfig, registry: Arc<ModelRegistry>) -> io::Result<Server> {
        Self::start_with(config, registry, None)
    }

    /// [`Server::start`] with the in-server drift loop attached: every
    /// successfully classified batch is forwarded to `drift` (best-effort,
    /// never blocking the request).
    pub fn start_with(
        config: &ServeConfig,
        registry: Arc<ModelRegistry>,
        drift: Option<Arc<DriftController>>,
    ) -> io::Result<Server> {
        noisemine_obs::enable();
        let listener = TcpListener::bind(&config.addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let wake = Arc::new(WakePipe::new()?);
        let ctx = Arc::new(Ctx {
            registry: Arc::clone(&registry),
            shutdown: Arc::clone(&shutdown),
            start: Instant::now(),
            wake: Some(Arc::clone(&wake)),
            drift,
        });
        let (dispatch_tx, dispatch_rx) = mpsc::channel::<Job>();
        let (return_tx, return_rx) = mpsc::channel::<Conn>();
        let dispatch_rx = Arc::new(Mutex::new(dispatch_rx));
        let shared = Arc::new(Shared {
            ctx: Arc::clone(&ctx),
            return_tx,
            wake: Arc::clone(&wake),
            max_requests_per_conn: config.max_requests_per_conn,
        });
        let threads = config.threads.max(1);
        let mut workers = Vec::with_capacity(threads);
        for i in 0..threads {
            let rx = Arc::clone(&dispatch_rx);
            let shared = Arc::clone(&shared);
            workers.push(
                std::thread::Builder::new()
                    .name(format!("serve-worker-{i}"))
                    .spawn(move || worker_loop(&rx, &shared))
                    .expect("spawn worker"),
            );
        }
        let loop_ctx = Arc::clone(&ctx);
        let loop_wake = Arc::clone(&wake);
        let idle_timeout = config.idle_timeout;
        let drain_grace = config.drain_grace;
        let event_thread = std::thread::Builder::new()
            .name("serve-events".to_string())
            .spawn(move || {
                // `dispatch_tx` moves in here; dropping it on exit
                // disconnects the workers once they drain the queue.
                event_loop(
                    listener,
                    &loop_ctx,
                    &dispatch_tx,
                    &return_rx,
                    &loop_wake,
                    idle_timeout,
                    drain_grace,
                );
            })
            .expect("spawn event loop");
        Ok(Server {
            addr,
            shutdown,
            wake,
            event_thread: Some(event_thread),
            workers,
            registry,
        })
    }

    /// The actual bound address (resolves `:0`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The registry this server serves from (for out-of-band swaps).
    pub fn registry(&self) -> &Arc<ModelRegistry> {
        &self.registry
    }

    /// Requests a graceful drain + shutdown (idempotent, non-blocking).
    pub fn stop(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.wake.wake();
    }

    /// Whether shutdown has been requested.
    pub fn is_stopping(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Blocks until the event loop and every worker have exited. Workers
    /// finish every connection dispatched before shutdown.
    pub fn join(mut self) {
        if let Some(t) = self.event_thread.take() {
            let _ = t.join();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

/// The readiness loop: one `poll(2)` over the wake pipe, the listener,
/// and every parked connection.
fn event_loop(
    listener: TcpListener,
    ctx: &Ctx,
    dispatch_tx: &mpsc::Sender<Job>,
    return_rx: &mpsc::Receiver<Conn>,
    wake: &WakePipe,
    idle_timeout: Duration,
    drain_grace: Duration,
) {
    let open = Arc::new(AtomicI64::new(0));
    let mut listener = Some(listener);
    let mut idle: Vec<Conn> = Vec::new();
    let mut drain_started: Option<Instant> = None;
    loop {
        // Absorb connections the workers parked back.
        while let Ok(mut conn) = return_rx.try_recv() {
            conn.parked_at = Instant::now();
            idle.push(conn);
        }
        if ctx.shutdown.load(Ordering::SeqCst) && drain_started.is_none() {
            drain_started = Some(Instant::now());
            // Closing the listener refuses new connections at once; the
            // already-parked ones get the drain-grace window below.
            listener = None;
        }
        let now = Instant::now();
        let before = idle.len();
        idle.retain(|c| now.duration_since(c.parked_at) < idle_timeout);
        if idle.len() != before {
            crate::obs::idle_evictions().add((before - idle.len()) as u64);
        }
        if let Some(t0) = drain_started {
            // Exit when every connection is gone — parked AND worker-held
            // (a worker may still be finishing an in-flight request and
            // about to park its connection back; exiting on an empty
            // `idle` alone would drop that connection unanswered) — or
            // when the grace window runs out.
            let all_closed = open.load(Ordering::SeqCst) == 0 && idle.is_empty();
            if all_closed || now.duration_since(t0) >= drain_grace {
                break;
            }
        }
        crate::obs::idle_connections().set(idle.len() as f64);

        // Poll until the nearest deadline: the soonest idle eviction, or
        // the end of the drain grace. With neither, sleep until woken.
        let mut timeout_ms: i32 = -1;
        let consider = |timeout_ms: &mut i32, d: Duration| {
            let ms = (d.as_millis().min(i32::MAX as u128) as i32).max(1);
            if *timeout_ms < 0 || ms < *timeout_ms {
                *timeout_ms = ms;
            }
        };
        if let Some(soonest) = idle
            .iter()
            .map(|c| idle_timeout.saturating_sub(now.duration_since(c.parked_at)))
            .min()
        {
            consider(&mut timeout_ms, soonest);
        }
        if let Some(t0) = drain_started {
            consider(
                &mut timeout_ms,
                drain_grace.saturating_sub(now.duration_since(t0)),
            );
            // Workers closing their last connection don't wake the loop;
            // poll on a short leash so the drain notices `open == 0`
            // promptly instead of sleeping out the grace window.
            consider(&mut timeout_ms, Duration::from_millis(10));
        }

        let mut fds = Vec::with_capacity(idle.len() + 2);
        fds.push(wake.poll_fd());
        let listener_slot = listener.as_ref().map(|l| {
            fds.push(PollFd::readable(l.as_raw_fd()));
            fds.len() - 1
        });
        let base = fds.len();
        for conn in &idle {
            fds.push(PollFd::readable(conn.stream.as_raw_fd()));
        }
        if poll_fds(&mut fds, timeout_ms).is_err() {
            // poll(2) failing outright (EBADF etc.) would spin; back off a
            // beat and rebuild the set from scratch.
            std::thread::sleep(Duration::from_millis(1));
            continue;
        }
        crate::obs::poll_wakeups().inc();
        if fds[0].is_ready() {
            wake.drain();
        }

        // Dispatch parked connections with pending bytes (back-to-front so
        // swap_remove leaves earlier indices aligned with `fds`).
        let draining = drain_started.is_some();
        for i in (0..idle.len()).rev() {
            if fds[base + i].is_ready() {
                let conn = idle.swap_remove(i);
                if dispatch_tx.send(Job { conn, draining }).is_err() {
                    return;
                }
            }
        }

        // Accept everything pending; new connections park until readable,
        // so probe connects that never send cost no worker.
        if let (Some(slot), Some(l)) = (listener_slot, listener.as_ref()) {
            if fds[slot].is_ready() {
                loop {
                    match l.accept() {
                        Ok((stream, _peer)) => {
                            crate::obs::connections().inc();
                            let count = open.fetch_add(1, Ordering::SeqCst) + 1;
                            crate::obs::open_connections().set(count as f64);
                            // Accepted sockets inherit the listener's
                            // non-blocking flag; workers read blocking
                            // with bounded timeouts.
                            let _ = stream.set_nonblocking(false);
                            let _ = stream.set_read_timeout(Some(idle_timeout));
                            let _ = stream.set_write_timeout(Some(WRITE_TIMEOUT));
                            let _ = crate::poll::set_tcp_nodelay(stream.as_raw_fd());
                            idle.push(Conn {
                                stream,
                                buf: ConnBuf::new(),
                                served: 0,
                                parked_at: Instant::now(),
                                _track: ConnTrack {
                                    open: Arc::clone(&open),
                                },
                            });
                        }
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                        Err(_) => break,
                    }
                }
            }
        }
    }
    crate::obs::idle_connections().set(0.0);
    // Returning drops the event thread's `dispatch_tx`, disconnecting the
    // workers once they finish the queued jobs; still-parked connections
    // close on drop.
}

fn worker_loop(rx: &Mutex<mpsc::Receiver<Job>>, shared: &Shared) {
    loop {
        let job = {
            let rx = rx.lock().expect("worker channel poisoned");
            rx.recv()
        };
        match job {
            Ok(job) => handle_conn(job, shared),
            // The event loop exited and the queue is drained: every
            // dispatched connection has been served.
            Err(_) => break,
        }
    }
}

/// How long a worker lingers on an active connection waiting for its next
/// request before parking it back in the event loop. An active client's
/// turnaround is typically well under this, so the hot path skips the full
/// park → poll → dispatch round trip per request.
const HOT_POLL_MS: i32 = 1;

/// Consecutive hot-window requests a worker serves before force-parking
/// the connection — bounds how long one busy client can hold a worker
/// while other connections queue.
const HOT_BUDGET: usize = 128;

/// Reads the next request off a dispatched connection. `None` means the
/// connection is done: clean close, timeout/hangup, or a malformed request
/// (answered with 400 before closing).
fn read_or_reject(conn: &mut Conn) -> Option<Request> {
    // The caller saw pending bytes (poll readiness), so this blocking read
    // does not stall on an idle peer; the socket read timeout bounds
    // trickle.
    match read_request_buffered(&mut conn.stream, &mut conn.buf) {
        Ok(request) => request, // None: clean close between requests (or a probe)
        Err(e) => {
            if e.kind() == io::ErrorKind::InvalidData {
                crate::obs::client_errors().inc();
                let _ = write_response(
                    &mut conn.stream,
                    &Response::error(400, &format!("malformed request: {e}")),
                    false,
                );
            }
            // Read timeouts / mid-request hangups: nothing to answer.
            None
        }
    }
}

/// Serves one dispatched connection: the request that made it readable,
/// any pipelined followers already buffered, then any follow-up requests
/// that land within the hot window, then parks it back in the event loop
/// (or closes it).
fn handle_conn(job: Job, shared: &Shared) {
    let Job { mut conn, draining } = job;
    let ctx = &*shared.ctx;
    let mut request = match read_or_reject(&mut conn) {
        Some(request) => request,
        None => return,
    };
    let mut hot_served = 0usize;
    loop {
        if draining {
            crate::obs::drain_rejects().inc();
            let _ = write_response(
                &mut conn.stream,
                &Response::error(503, "server is draining; connection closing"),
                false,
            );
            return;
        }
        conn.served += 1;
        if conn.served > 1 {
            crate::obs::keepalive_reuses().inc();
        }
        let response = handle_request(ctx, &request);
        let at_cap =
            shared.max_requests_per_conn > 0 && conn.served >= shared.max_requests_per_conn;
        let close = request.close || at_cap || ctx.shutdown.load(Ordering::SeqCst);
        if write_response(&mut conn.stream, &response, !close).is_err() || close {
            return;
        }
        match try_parse_request(&mut conn.buf) {
            // A pipelined follower is already buffered — serve it now;
            // parking would strand it (no new socket bytes, no poll event).
            Ok(Some(next)) => {
                crate::obs::pipelined_requests().inc();
                request = next;
            }
            Ok(None) => {
                // Hot window: linger briefly for the client's next request
                // before paying the park → poll → dispatch round trip.
                if hot_served < HOT_BUDGET && !ctx.shutdown.load(Ordering::SeqCst) {
                    let mut fds = [PollFd::readable(conn.stream.as_raw_fd())];
                    let hit = matches!(
                        poll_fds(&mut fds, HOT_POLL_MS),
                        Ok(n) if n > 0 && fds[0].is_ready()
                    );
                    if hit {
                        hot_served += 1;
                        match read_or_reject(&mut conn) {
                            Some(next) => {
                                request = next;
                                continue;
                            }
                            None => return,
                        }
                    }
                }
                conn.parked_at = Instant::now();
                // Park the connection; the wake makes the event loop pick
                // it up immediately. A send error means the loop already
                // exited — dropping the connection closes it.
                if shared.return_tx.send(conn).is_ok() {
                    shared.wake.wake();
                }
                return;
            }
            Err(e) => {
                crate::obs::client_errors().inc();
                let _ = write_response(
                    &mut conn.stream,
                    &Response::error(400, &format!("malformed request: {e}")),
                    false,
                );
                return;
            }
        }
    }
}

/// Routes one request. Public crate-wide so tests can drive the router
/// without a socket.
pub(crate) fn handle_request(ctx: &Ctx, request: &Request) -> Response {
    // Counted here — at parse/route time — so probe connections that never
    // send a request don't inflate request volume (connections are counted
    // separately at accept).
    crate::obs::requests().inc();
    match (request.method.as_str(), request.path.as_str()) {
        // Pure liveness: the process parsed and routed this request, so it
        // is alive. Model availability is /readyz's business.
        ("GET", "/healthz") => Response::json(200, "{\"status\": \"ok\"}".to_string()),
        ("GET", "/readyz") => readyz_response(&ctx.registry),
        ("GET", "/metrics") => Response {
            status: 200,
            content_type: "text/plain; version=0.0.4",
            body: noisemine_obs::global().snapshot().to_prometheus(),
        },
        ("GET", "/admin/models") => models_response(&ctx.registry),
        ("POST", "/admin/swap") => swap(ctx, request),
        ("POST", "/admin/shutdown") => {
            ctx.notify_shutdown();
            Response::json(200, "{\"status\": \"shutting down\"}".to_string())
        }
        ("POST", "/v1/classify") => classify_route(ctx, request),
        (
            _,
            "/healthz" | "/readyz" | "/metrics" | "/admin/models" | "/admin/swap"
            | "/admin/shutdown" | "/v1/classify",
        ) => {
            crate::obs::client_errors().inc();
            Response::error(405, "method not allowed for this route")
        }
        _ => {
            crate::obs::client_errors().inc();
            Response::error(404, &format!("no such route: {}", request.path))
        }
    }
}

fn models_response(registry: &ModelRegistry) -> Response {
    let rows: Vec<String> = registry
        .tenants()
        .into_iter()
        .map(|info| {
            let version = match info.version {
                Some(v) => v.to_string(),
                None => "null".to_string(),
            };
            format!(
                "{{\"tenant\": {}, \"version\": {version}, \"patterns\": {}, \
                 \"state\": {}, \"reason\": {}}}",
                json::escape(&info.tenant),
                info.patterns,
                json::escape(info.state.name()),
                json::escape(&info.reason)
            )
        })
        .collect();
    Response::json(200, format!("{{\"tenants\": [{}]}}", rows.join(", ")))
}

/// Readiness: `200` only when every known tenant has a model to serve.
/// Degraded tenants (modelless, or with an open breaker) are listed with
/// their reasons so an operator — or a load balancer — can see exactly
/// what is wrong without grepping logs. The server itself keeps serving
/// every healthy tenant; readiness is per-process, degradation per-tenant.
fn readyz_response(registry: &ModelRegistry) -> Response {
    let tenants = registry.tenants();
    let degraded: Vec<&crate::registry::TenantInfo> =
        tenants.iter().filter(|t| t.version.is_none()).collect();
    let rows: Vec<String> = tenants
        .iter()
        .map(|info| {
            format!(
                "{{\"tenant\": {}, \"ready\": {}, \"state\": {}, \"reason\": {}}}",
                json::escape(&info.tenant),
                info.version.is_some(),
                json::escape(info.state.name()),
                json::escape(&info.reason)
            )
        })
        .collect();
    let ready = degraded.is_empty();
    let status = if ready { 200 } else { 503 };
    Response::json(
        status,
        format!(
            "{{\"ready\": {ready}, \"degraded\": {}, \"tenants\": [{}]}}",
            degraded.len(),
            rows.join(", ")
        ),
    )
}

fn swap(ctx: &Ctx, request: &Request) -> Response {
    let doc = match json::parse(&request.body) {
        Ok(doc) => doc,
        Err(e) => {
            crate::obs::client_errors().inc();
            return Response::error(400, &format!("swap request: {e}"));
        }
    };
    let tenant = doc
        .get("tenant")
        .and_then(Value::as_str)
        .unwrap_or("default")
        .to_string();
    let Some(path) = doc.get("path").and_then(Value::as_str) else {
        crate::obs::client_errors().inc();
        return Response::error(
            400,
            "swap request needs a \"path\" field (NMMODEL artifact)",
        );
    };
    let spec = match read_model(path) {
        Ok(spec) => spec,
        Err(e) => {
            crate::obs::client_errors().inc();
            return Response::error(400, &format!("cannot load model: {e}"));
        }
    };
    let model = ServeModel::compile(spec);
    let new_version = model.version();
    let patterns = model.num_patterns();
    let old_version = ctx.registry.swap(&tenant, model);
    crate::obs::swaps().inc();
    let old = match old_version {
        Some(v) => v.to_string(),
        None => "null".to_string(),
    };
    Response::json(
        200,
        format!(
            "{{\"tenant\": {}, \"old_version\": {old}, \"new_version\": {new_version}, \
             \"patterns\": {patterns}}}",
            json::escape(&tenant)
        ),
    )
}

fn classify_route(ctx: &Ctx, request: &Request) -> Response {
    let doc = match json::parse(&request.body) {
        Ok(doc) => doc,
        Err(e) => {
            crate::obs::client_errors().inc();
            return Response::error(400, &format!("classify request: {e}"));
        }
    };
    let tenant = doc
        .get("tenant")
        .and_then(Value::as_str)
        .unwrap_or("default")
        .to_string();
    let model = match ctx.registry.lookup(&tenant) {
        TenantLookup::Model(model) => model,
        TenantLookup::Unknown => {
            crate::obs::client_errors().inc();
            return Response::error(404, &format!("no model installed for tenant {tenant:?}"));
        }
        // Known tenant, no valid model yet (catalog had nothing adoptable):
        // degraded, not a client error — 503 says "retry later", and
        // /readyz carries the reason.
        TenantLookup::NoModel => {
            return Response::error(
                503,
                &format!("tenant {tenant:?} is degraded: no valid model available"),
            );
        }
    };
    let Some(raw) = doc.get("sequences").and_then(Value::as_arr) else {
        crate::obs::client_errors().inc();
        return Response::error(
            400,
            "classify request needs a \"sequences\" field: an array of symbol-name arrays",
        );
    };
    let mut sequences: Vec<Vec<Symbol>> = Vec::with_capacity(raw.len());
    for (i, seq) in raw.iter().enumerate() {
        let Some(elems) = seq.as_arr() else {
            crate::obs::client_errors().inc();
            return Response::error(400, &format!("sequence {i} is not an array"));
        };
        let mut encoded = Vec::with_capacity(elems.len());
        for (j, e) in elems.iter().enumerate() {
            let Some(name) = e.as_str() else {
                crate::obs::client_errors().inc();
                return Response::error(
                    400,
                    &format!("sequence {i} element {j} is not a symbol-name string"),
                );
            };
            match model.spec.alphabet.symbol(name) {
                Ok(sym) => encoded.push(sym),
                Err(_) => {
                    crate::obs::client_errors().inc();
                    return Response::error(
                        400,
                        &format!(
                            "sequence {i} element {j}: symbol {name:?} is not in the model's \
                             {}-symbol alphabet",
                            model.spec.alphabet.len()
                        ),
                    );
                }
            }
        }
        sequences.push(encoded);
    }
    // Admission runs *after* validation: a malformed request must not burn
    // a quota token, or N garbage posts could 429 a well-formed retry.
    match ctx
        .registry
        .admit(&tenant, ctx.start.elapsed().as_secs_f64())
    {
        Admission::Granted => {}
        Admission::UnknownTenant => {
            crate::obs::client_errors().inc();
            return Response::error(404, &format!("no model installed for tenant {tenant:?}"));
        }
        Admission::Throttled => {
            return Response::error(429, &format!("quota exhausted for tenant {tenant:?}"));
        }
    }
    let span = crate::obs::classify_seconds().span();
    let result = classify(&model, &sequences);
    span.finish();
    crate::obs::classifications().inc();
    crate::obs::sequences_classified().add(sequences.len() as u64);
    ctx.registry
        .record_classification(&tenant, sequences.len() as u64);
    // Feed the drift loop *after* the response is computed: sampling is
    // best-effort and must never affect what the client receives.
    if let Some(drift) = &ctx.drift {
        drift.ingest(&tenant, &sequences);
    }
    let mut patterns_json = Vec::with_capacity(model.num_patterns());
    for (p, fragment) in model.pattern_json.iter().enumerate() {
        let scores: Vec<String> = result
            .per_sequence
            .iter()
            .map(|row| json::num(row[p]))
            .collect();
        patterns_json.push(format!(
            "{{{fragment}, \"db_match\": {}, \"sequence_scores\": [{}]}}",
            json::num(result.db_match[p]),
            scores.join(", ")
        ));
    }
    Response::json(
        200,
        format!(
            "{{\"tenant\": {}, \"model_version\": {}, \"num_patterns\": {}, \
             \"num_sequences\": {}, \"patterns\": [{}]}}",
            json::escape(&tenant),
            result.model_version,
            model.num_patterns(),
            sequences.len(),
            patterns_json.join(", ")
        ),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use noisemine_core::lattice::Border;
    use noisemine_core::miner::{FrequentPattern, MineOutcome, MineStats, Provenance};
    use noisemine_core::{Alphabet, CompatibilityMatrix, Pattern, PatternModel};

    fn ctx_with_model(quota: f64) -> Arc<Ctx> {
        let alphabet = Alphabet::synthetic(4);
        let matrix = CompatibilityMatrix::uniform_noise(4, 0.1).unwrap();
        let outcome = MineOutcome {
            frequent: vec![FrequentPattern {
                pattern: Pattern::contiguous(&[Symbol(0), Symbol(1)]).unwrap(),
                match_estimate: 0.5,
                provenance: Provenance::Verified,
            }],
            border: Border::default(),
            symbol_match: vec![0.4; 4],
            stats: MineStats::default(),
        };
        let registry = Arc::new(ModelRegistry::new(quota));
        registry.swap(
            "default",
            ServeModel::compile(PatternModel::from_outcome(
                &outcome, &alphabet, &matrix, 0.1, 3,
            )),
        );
        Arc::new(Ctx {
            registry,
            shutdown: Arc::new(AtomicBool::new(false)),
            start: Instant::now(),
            wake: None,
            drift: None,
        })
    }

    fn post(ctx: &Ctx, path: &str, body: &str) -> Response {
        handle_request(
            ctx,
            &Request {
                method: "POST".to_string(),
                path: path.to_string(),
                body: body.to_string(),
                close: false,
            },
        )
    }

    fn get(ctx: &Ctx, path: &str) -> Response {
        handle_request(
            ctx,
            &Request {
                method: "GET".to_string(),
                path: path.to_string(),
                body: String::new(),
                close: false,
            },
        )
    }

    /// `/healthz` is liveness only; `/readyz` is readiness. A declared
    /// tenant without a model degrades readiness (503 + reason) while
    /// liveness stays green.
    #[test]
    fn readyz_distinguishes_liveness_from_readiness() {
        let ctx = ctx_with_model(0.0);
        assert_eq!(get(&ctx, "/healthz").status, 200);
        let r = get(&ctx, "/readyz");
        assert_eq!(r.status, 200, "{}", r.body);
        assert!(r.body.contains("\"ready\": true"), "{}", r.body);

        ctx.registry.declare("pending");
        assert_eq!(get(&ctx, "/healthz").status, 200, "liveness must not dip");
        let r = get(&ctx, "/readyz");
        assert_eq!(r.status, 503, "{}", r.body);
        assert!(r.body.contains("\"degraded\": 1"), "{}", r.body);
        assert!(r.body.contains("pending"), "{}", r.body);
    }

    /// A known-but-modelless tenant answers 503 (degraded, retry later),
    /// not 404 (no such tenant).
    #[test]
    fn degraded_tenant_classify_is_503_not_404() {
        let ctx = ctx_with_model(0.0);
        ctx.registry.declare("pending");
        let r = post(
            &ctx,
            "/v1/classify",
            r#"{"tenant": "pending", "sequences": [["d0"]]}"#,
        );
        assert_eq!(r.status, 503, "{}", r.body);
        assert!(r.body.contains("degraded"), "{}", r.body);
    }

    /// `/admin/models` reports the per-tenant serving state.
    #[test]
    fn models_response_reports_serving_state() {
        let ctx = ctx_with_model(0.0);
        let r = get(&ctx, "/admin/models");
        assert_eq!(r.status, 200, "{}", r.body);
        assert!(r.body.contains("\"state\": \"current\""), "{}", r.body);
        ctx.registry.set_state(
            "default",
            crate::registry::ServingState::Remining,
            "drift detected; re-mining",
        );
        let r = get(&ctx, "/admin/models");
        assert!(r.body.contains("\"state\": \"remining\""), "{}", r.body);
        assert!(r.body.contains("drift detected"), "{}", r.body);
    }

    #[test]
    fn classify_route_scores() {
        let ctx = ctx_with_model(0.0);
        let r = post(
            &ctx,
            "/v1/classify",
            r#"{"sequences": [["d0", "d1", "d2"]]}"#,
        );
        assert_eq!(r.status, 200, "{}", r.body);
        assert!(r.body.contains("\"model_version\": 3"), "{}", r.body);
        assert!(r.body.contains("\"db_match\""), "{}", r.body);
    }

    #[test]
    fn unknown_symbol_is_400() {
        let ctx = ctx_with_model(0.0);
        let r = post(&ctx, "/v1/classify", r#"{"sequences": [["nope"]]}"#);
        assert_eq!(r.status, 400);
        assert!(r.body.contains("nope"), "{}", r.body);
    }

    #[test]
    fn unknown_tenant_is_404() {
        let ctx = ctx_with_model(0.0);
        let r = post(
            &ctx,
            "/v1/classify",
            r#"{"tenant": "ghost", "sequences": []}"#,
        );
        assert_eq!(r.status, 404);
    }

    #[test]
    fn bad_json_is_400() {
        let ctx = ctx_with_model(0.0);
        let r = post(&ctx, "/v1/classify", "{nope");
        assert_eq!(r.status, 400);
    }

    #[test]
    fn unknown_route_is_404_and_wrong_method_is_405() {
        let ctx = ctx_with_model(0.0);
        assert_eq!(post(&ctx, "/nope", "").status, 404);
        assert_eq!(post(&ctx, "/metrics", "").status, 405);
    }

    /// Regression (PR 7): validation failures must not burn quota tokens.
    /// A burst-1 bucket survives any number of malformed posts and still
    /// admits the first well-formed request.
    #[test]
    fn malformed_requests_do_not_burn_quota() {
        let ctx = ctx_with_model(1.0); // 1 req/s, burst 1
        let full = ctx
            .registry
            .available_quota("default")
            .expect("tenant installed");
        let malformed = [
            "{nope",                              // bad JSON
            "{}",                                 // missing sequences
            r#"{"sequences": "x"}"#,              // sequences not an array
            r#"{"sequences": [["d0", "nope"]]}"#, // unknown symbol
            r#"{"sequences": [["d0"], "flat"]}"#, // element not an array
        ];
        for body in malformed {
            for _ in 0..3 {
                let r = post(&ctx, "/v1/classify", body);
                assert_eq!(r.status, 400, "{}", r.body);
            }
        }
        assert_eq!(
            ctx.registry.available_quota("default"),
            Some(full),
            "malformed posts burned quota tokens"
        );
        // The bucket is still full, so a well-formed retry is admitted…
        let r = post(&ctx, "/v1/classify", r#"{"sequences": [["d0", "d1"]]}"#);
        assert_eq!(r.status, 200, "{}", r.body);
        // …and only now is a token spent.
        let r = post(&ctx, "/v1/classify", r#"{"sequences": [["d0", "d1"]]}"#);
        assert_eq!(r.status, 429, "{}", r.body);
    }
}
