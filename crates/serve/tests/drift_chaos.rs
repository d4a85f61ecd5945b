//! Chaos suite for the self-healing drift loop: injected re-mine panics,
//! timeouts, and corrupt writes must never disturb serving — the last-good
//! model answers bit-identically to the offline kernel throughout, the
//! circuit breaker opens exactly on its failure budget and half-opens on
//! its cooldown schedule, and the loop recovers (re-mines, validates,
//! self-swaps) once the faults stop.
//!
//! The schedule tests drive [`Supervisor::tick`] at instants they choose,
//! so every backoff and cooldown is checked at an exact instant; only the
//! HTTP end-to-end test runs the real supervisor thread.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use noisemine_core::matching::{db_match_many, MemorySequences};
use noisemine_core::miner::{mine, MinerConfig};
use noisemine_core::{Alphabet, PatternModel, PatternSpace, Symbol};
use noisemine_datagen::{ProteinWorkload, ProteinWorkloadConfig};
use noisemine_seqdb::MemoryDb;
use noisemine_serve::json::{self, Value};
use noisemine_serve::{
    Catalog, DriftConfig, DriftFault, ModelRegistry, ServeConfig, ServeModel, Server, ServingState,
    Supervisor,
};

/// The chaos fixture: a protein workload, an offline-mined model over its
/// clean regime, and noisy renderings for both regimes.
struct Fixture {
    workload: ProteinWorkload,
    model: PatternModel,
    clean: Vec<Vec<Symbol>>,
}

const INITIAL_VERSION: u64 = 5;

fn fixture() -> Fixture {
    let workload = ProteinWorkload::new(ProteinWorkloadConfig {
        num_sequences: 120,
        min_len: 15,
        max_len: 25,
        num_motifs: 2,
        min_motif_len: 4,
        max_motif_len: 5,
        occurrence: 0.6,
        seed: 21,
    });
    let (_, matrix) = workload.uniform_test_db(0.1, 1);
    let matrix = matrix.diagonal_normalized_clamped().unwrap();
    let (clean, _) = workload.uniform_test_db(0.05, 2);
    let config = MinerConfig {
        min_match: 0.25,
        sample_size: clean.len(),
        space: PatternSpace::new(0, 8).unwrap(),
        ..MinerConfig::default()
    };
    let db = MemoryDb::from_sequences(clean.clone());
    let outcome = mine(&db, &matrix, &config).expect("offline mine");
    assert!(!outcome.frequent.is_empty(), "fixture yields patterns");
    let model =
        PatternModel::from_outcome(&outcome, &workload.alphabet, &matrix, 0.25, INITIAL_VERSION);
    Fixture {
        workload,
        model,
        clean,
    }
}

fn tmp_catalog(name: &str) -> Catalog {
    let root = std::env::temp_dir().join(format!("noisemine-chaos-{}-{name}", std::process::id()));
    std::fs::remove_dir_all(&root).ok();
    Catalog::new(root)
}

/// Asserts the serving guarantee: whatever model the registry hands out
/// right now classifies `batch` bit-identically to the offline
/// `db_match_many` over the same patterns and matrix. A torn or corrupt
/// model could not satisfy this.
fn assert_bit_identical(registry: &ModelRegistry, batch: &[Vec<Symbol>]) -> u64 {
    let model = registry.model("t").expect("tenant serves a model");
    let online = noisemine_serve::classify(&model, batch);
    let offline = db_match_many(
        &model.patterns,
        &MemorySequences(batch.to_vec()),
        &model.spec.matrix,
    );
    for (i, (a, b)) in online.db_match.iter().zip(&offline).enumerate() {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "pattern {i} diverged from offline kernel on v{}",
            model.version()
        );
    }
    model.version()
}

/// The drift-loop tick interval every test here uses; the stepped tests
/// advance `now` by exactly this much per tick.
const STEP: Duration = Duration::from_millis(10);

/// A supervisor for tenant `t` (no thread) whose baseline is anchored on
/// clean traffic at `t0`, with enough drifted traffic absorbed behind it
/// that the Chernoff detector must fire on the next tick (empirically 2
/// drifted renderings past a 120-clean anchor; 4 leave margin).
fn drifted_supervisor(
    fx: &Fixture,
    registry: &Arc<ModelRegistry>,
    catalog: Option<Catalog>,
    config: DriftConfig,
    t0: Instant,
) -> Supervisor {
    // The catalog only persists re-mines here; an hour-long scan interval
    // keeps its passes out of the schedule under test.
    let catalog = catalog.map(|c| (c, Duration::from_secs(3600)));
    let mut sup = Supervisor::new(Arc::clone(registry), catalog, Some(config), t0).unwrap();
    sup.absorb("t", fx.clean.clone());
    sup.tick(t0);
    for round in 0..4 {
        let (noisy, _) = fx.workload.uniform_test_db(0.35, 100 + round);
        sup.absorb("t", noisy);
    }
    sup
}

fn state(registry: &ModelRegistry) -> (ServingState, String) {
    let info = registry
        .tenants()
        .into_iter()
        .find(|t| t.tenant == "t")
        .unwrap();
    (info.state, info.reason)
}

/// The acceptance chaos scenario: panic, corrupt-write, panic → breaker
/// opens on its 3-failure budget; a half-open trial fails → re-opens; the
/// next trial succeeds → self-swap. Serving stays on last-good v5,
/// bit-identical, through every failure; every attempt runs at the exact
/// tick the backoff and cooldown schedule names.
#[test]
fn chaos_panics_and_corrupt_writes_never_disturb_serving() {
    let fx = fixture();
    let cat = tmp_catalog("chaos");
    let registry = Arc::new(ModelRegistry::new(0.0));
    registry.swap("t", ServeModel::compile(fx.model.clone()));

    let attempts: Arc<Mutex<Vec<u32>>> = Arc::new(Mutex::new(Vec::new()));
    let hook_attempts = Arc::clone(&attempts);
    let cooldown = Duration::from_millis(500);
    let config = DriftConfig {
        interval: STEP,
        min_sequences: 100,
        remine_timeout: Duration::from_secs(60),
        backoff_base: Duration::from_millis(30),
        backoff_max: Duration::from_millis(100),
        breaker_threshold: 3,
        breaker_cooldown: cooldown,
        sample_size: 400,
        max_len: 8,
        max_gap: 0,
        fault_hook: Some(Arc::new(move |tenant: &str, n: u32| {
            assert_eq!(tenant, "t");
            hook_attempts.lock().unwrap().push(n);
            match n {
                // Three straight failures exhaust the breaker budget…
                1 | 3 => Some(DriftFault::Panic),
                2 => Some(DriftFault::CorruptWrite),
                // …the half-open trial fails too (re-open)…
                4 => Some(DriftFault::Panic),
                // …and the next trial is allowed to succeed.
                _ => None,
            }
        })),
        ..DriftConfig::default()
    };
    let t0 = Instant::now();
    let mut sup = drifted_supervisor(&fx, &registry, Some(cat.clone()), config, t0);

    // Step time one interval per tick until the self-swap lands, checking
    // the serving guarantee and recording the tick each attempt ran at.
    let batch: Vec<Vec<Symbol>> = fx.clean.iter().take(24).cloned().collect();
    let mut ran_at: Vec<Instant> = Vec::new();
    let mut saw_circuit_open = false;
    let mut now = t0;
    while assert_bit_identical(&registry, &batch) == INITIAL_VERSION {
        assert!(
            now < t0 + Duration::from_secs(10),
            "drift loop never recovered"
        );
        now += STEP;
        sup.tick(now);
        if attempts.lock().unwrap().len() > ran_at.len() {
            ran_at.push(now);
        }
        let (state, reason) = state(&registry);
        if state == ServingState::CircuitOpen {
            saw_circuit_open = true;
            assert_eq!(
                registry.current_version("t"),
                Some(INITIAL_VERSION),
                "breaker open yet serving already moved off last-good"
            );
            assert!(
                reason.contains("consecutive re-mine failures"),
                "open-state reason should carry the failure count: {reason:?}"
            );
        }
    }
    assert!(saw_circuit_open, "breaker open state was never observable");

    // The failure schedule: 4 failures then the successful 5th attempt, at
    // exact instants. Backoff doubles from 30 ms after failures 1 and 2;
    // failure 3 opens the breaker, which half-opens exactly one cooldown
    // later (attempt 4); that trial's failure re-opens it for another.
    assert_eq!(*attempts.lock().unwrap(), [1, 2, 3, 4, 5]);
    let ms = Duration::from_millis;
    let first = t0 + STEP;
    assert_eq!(
        ran_at,
        [
            first,
            first + ms(30),
            first + ms(30 + 60),
            first + ms(30 + 60) + cooldown,
            first + ms(30 + 60) + cooldown + cooldown,
        ]
    );

    // Recovery left a coherent world: the adopted version is on disk in
    // the catalog, validates, and matches what the registry serves.
    let final_version = registry.current_version("t").unwrap();
    assert!(final_version > INITIAL_VERSION);
    let (cat_version, cat_model) = cat.latest_valid("t").expect("artifact persisted");
    assert_eq!(cat_version, final_version);
    assert_eq!(cat_model.version, final_version);
    assert_eq!(state(&registry).0, ServingState::Current);
    std::fs::remove_dir_all(cat.root()).ok();
}

/// A timeout storm: every re-mine stalls past the deadline. Failures
/// accumulate, the breaker opens on its budget, and serving never leaves
/// the last-good model — bit-identical the whole time.
#[test]
fn remine_timeout_storm_keeps_last_good_serving() {
    let fx = fixture();
    let registry = Arc::new(ModelRegistry::new(0.0));
    registry.swap("t", ServeModel::compile(fx.model.clone()));

    let attempts: Arc<Mutex<u32>> = Arc::default();
    let hook_attempts = Arc::clone(&attempts);
    let config = DriftConfig {
        interval: STEP,
        min_sequences: 100,
        remine_timeout: Duration::from_millis(40),
        backoff_base: Duration::from_millis(20),
        backoff_max: Duration::from_millis(50),
        breaker_threshold: 2,
        breaker_cooldown: Duration::from_secs(300),
        sample_size: 400,
        max_len: 8,
        max_gap: 0,
        fault_hook: Some(Arc::new(move |_: &str, _: u32| {
            *hook_attempts.lock().unwrap() += 1;
            Some(DriftFault::Stall(Duration::from_millis(400)))
        })),
        ..DriftConfig::default()
    };
    // No catalog: a timed-out mine must fail before any artifact I/O.
    let t0 = Instant::now();
    let mut sup = drifted_supervisor(&fx, &registry, None, config, t0);

    // Attempt 1 starts at t0 + 10 ms and times out at its 40 ms deadline,
    // then backs off 20 ms from there; attempt 2 starts at t0 + 70 ms and
    // opens the breaker. The rest of the second of ticks stays open (300 s
    // cooldown) and on last-good v5.
    let batch: Vec<Vec<Symbol>> = fx.clean.iter().take(24).cloned().collect();
    for step in 1..=100u32 {
        sup.tick(t0 + STEP * step);
        assert_eq!(
            assert_bit_identical(&registry, &batch),
            INITIAL_VERSION,
            "a timed-out mine was adopted"
        );
        let expected = match step {
            1..=6 => ServingState::Stale,
            _ => ServingState::CircuitOpen,
        };
        assert_eq!(state(&registry).0, expected, "tick {step}");
    }
    assert_eq!(*attempts.lock().unwrap(), 2);
}

/// One raw HTTP/1.1 exchange over a real socket (`Connection: close`).
fn http(addr: &str, method: &str, path: &str, body: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect to server");
    let req = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\n\
         Connection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(req.as_bytes()).unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).unwrap();
    let status: u16 = raw
        .split_whitespace()
        .nth(1)
        .unwrap_or_else(|| panic!("no status line in {raw:?}"))
        .parse()
        .unwrap();
    let body = raw
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}

/// Renders sequences as the classify request's symbol-name JSON.
fn classify_body(tenant: &str, sequences: &[Vec<Symbol>], alphabet: &Alphabet) -> String {
    let seqs: Vec<String> = sequences
        .iter()
        .map(|seq| {
            let names: Vec<String> = seq
                .iter()
                .map(|&s| json::escape(alphabet.name(s).unwrap()))
                .collect();
            format!("[{}]", names.join(", "))
        })
        .collect();
    format!(
        "{{\"tenant\": {}, \"sequences\": [{}]}}",
        json::escape(tenant),
        seqs.join(", ")
    )
}

/// Extracts `(model_version, db_match per pattern)` from a classify
/// response.
fn db_match_from_response(body: &str) -> (u64, Vec<f64>) {
    let doc = json::parse(body).unwrap_or_else(|e| panic!("bad response JSON: {e}\n{body}"));
    let version = doc.get("model_version").and_then(Value::as_f64).unwrap() as u64;
    let patterns = doc.get("patterns").and_then(Value::as_arr).unwrap();
    let scores = patterns
        .iter()
        .map(|p| p.get("db_match").and_then(Value::as_f64).unwrap())
        .collect();
    (version, scores)
}

/// The end-to-end self-healing loop over a live HTTP server: classified
/// traffic drives the drift detector, the server re-mines and self-swaps
/// with no operator, every request throughout answers 200 with scores
/// bit-identical to the offline kernel for whichever model version served
/// it, and `/readyz` stays ready the whole time.
#[test]
fn http_traffic_drives_drift_remine_and_self_swap() {
    let fx = fixture();
    let cat = tmp_catalog("http");
    let registry = Arc::new(ModelRegistry::new(0.0));
    registry.swap("t", ServeModel::compile(fx.model.clone()));

    let drift_config = DriftConfig {
        interval: STEP,
        min_sequences: 100,
        remine_timeout: Duration::from_secs(60),
        sample_size: 400,
        max_len: 8,
        max_gap: 0,
        ..DriftConfig::default()
    };
    let catalog = Some((cat.clone(), Duration::from_millis(50)));
    let (supervisor, _) = Supervisor::new(
        Arc::clone(&registry),
        catalog,
        Some(drift_config),
        Instant::now(),
    )
    .unwrap()
    .spawn();
    let server = Server::start_with(
        &ServeConfig::default(),
        Arc::clone(&registry),
        supervisor.controller(),
    )
    .unwrap();
    let addr = server.addr().to_string();

    // Offline reference for the initial model over the probe batch.
    let batch: Vec<Vec<Symbol>> = fx.clean.iter().take(16).cloned().collect();
    let offline_v5 = db_match_many(
        &ServeModel::compile(fx.model.clone()).patterns,
        &MemorySequences(batch.clone()),
        &fx.model.matrix,
    );
    let probe = classify_body("t", &batch, &fx.workload.alphabet);

    // Clean traffic anchors the baseline (every response must be a 200 —
    // zero dropped requests is part of the contract).
    for chunk in fx.clean.chunks(30) {
        let body = classify_body("t", chunk, &fx.workload.alphabet);
        let (status, resp) = http(&addr, "POST", "/v1/classify", &body);
        assert_eq!(status, 200, "{resp}");
    }
    // Give the supervisor thread a few ticks to anchor on clean traffic
    // alone. Nothing below depends on it: an anchor that also saw some
    // drifted traffic only delays the swap the loop waits for.
    std::thread::sleep(Duration::from_millis(150));

    // Drifted traffic: keep classifying until the server swaps itself.
    let deadline = Instant::now() + Duration::from_secs(60);
    let mut swapped_version = None;
    'outer: for round in 0.. {
        let (noisy, _) = fx.workload.uniform_test_db(0.35, 100 + (round % 8));
        for chunk in noisy.chunks(30) {
            let body = classify_body("t", chunk, &fx.workload.alphabet);
            let (status, resp) = http(&addr, "POST", "/v1/classify", &body);
            assert_eq!(status, 200, "mid-drift request dropped: {resp}");
            // Probe with the fixed batch: whatever version answers must
            // match the offline kernel for that version, bit for bit.
            let (status, resp) = http(&addr, "POST", "/v1/classify", &probe);
            assert_eq!(status, 200, "{resp}");
            let (version, scores) = db_match_from_response(&resp);
            if version == INITIAL_VERSION {
                for (i, (a, b)) in scores.iter().zip(&offline_v5).enumerate() {
                    assert_eq!(a.to_bits(), b.to_bits(), "v5 pattern {i} diverged");
                }
            } else {
                swapped_version = Some(version);
                break 'outer;
            }
            let (status, ready) = http(&addr, "GET", "/readyz", "");
            assert_eq!(status, 200, "server went unready mid-drift: {ready}");
        }
        assert!(
            Instant::now() < deadline,
            "server never self-swapped under drifted traffic"
        );
    }

    // The swapped model: strictly newer, persisted in the catalog, and the
    // HTTP scores it returns are bit-identical to the offline kernel run
    // over the artifact read back from disk. Drift may legitimately fire
    // again under the continuing drifted traffic, so resolve the artifact
    // for whichever version actually answers — every adopted version's
    // artifact stays on disk.
    let new_version = swapped_version.unwrap();
    assert!(new_version > INITIAL_VERSION);
    let (status, resp) = http(&addr, "POST", "/v1/classify", &probe);
    assert_eq!(status, 200, "{resp}");
    let (version, scores) = db_match_from_response(&resp);
    assert!(version >= new_version, "serving downgraded to v{version}");
    let cat_model =
        noisemine_serve::read_model(cat.model_path("t", version)).expect("artifact persisted");
    let offline_new = db_match_many(
        &ServeModel::compile(cat_model.clone()).patterns,
        &MemorySequences(batch.clone()),
        &cat_model.matrix,
    );
    for (i, (a, b)) in scores.iter().zip(&offline_new).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "v{version} pattern {i} diverged");
    }
    // /admin/models reports a version at least as new, in a drift-loop
    // state (current if quiesced, stale/remining if the detector has
    // already fired again — never circuit_open: no faults were injected).
    let (status, models) = http(&addr, "GET", "/admin/models", "");
    assert_eq!(status, 200);
    assert!(!models.contains("circuit_open"), "{models}");
    let doc = json::parse(&models).unwrap();
    let row = &doc.get("tenants").and_then(Value::as_arr).unwrap()[0];
    let reported = row.get("version").and_then(Value::as_f64).unwrap() as u64;
    assert!(reported >= new_version, "{models}");

    server.stop();
    server.join();
    supervisor.stop().expect("supervisor thread exits cleanly");
    std::fs::remove_dir_all(cat.root()).ok();
}

/// Without faults, the first tick after planted drift re-mines once,
/// writes the artifact crash-safely, and self-swaps a strictly newer
/// version — and the adopted model classifies bit-identically to the
/// offline kernel over drifted traffic too.
#[test]
fn fault_free_drift_self_swaps_once() {
    let fx = fixture();
    let cat = tmp_catalog("healthy");
    let registry = Arc::new(ModelRegistry::new(0.0));
    registry.swap("t", ServeModel::compile(fx.model.clone()));

    let attempts: Arc<Mutex<u32>> = Arc::default();
    let hook_attempts = Arc::clone(&attempts);
    let config = DriftConfig {
        interval: STEP,
        min_sequences: 100,
        remine_timeout: Duration::from_secs(60),
        sample_size: 400,
        max_len: 8,
        max_gap: 0,
        fault_hook: Some(Arc::new(move |_: &str, _: u32| {
            *hook_attempts.lock().unwrap() += 1;
            None
        })),
        ..DriftConfig::default()
    };
    let t0 = Instant::now();
    let mut sup = drifted_supervisor(&fx, &registry, Some(cat.clone()), config, t0);
    sup.tick(t0 + STEP);
    let new_version = registry.current_version("t").unwrap();
    assert!(
        new_version > INITIAL_VERSION,
        "no self-swap on the drift tick"
    );
    assert_eq!(state(&registry).0, ServingState::Current);
    // The re-mine re-anchored the detector: with no new traffic, later
    // ticks do not mine again.
    for step in 2..=10u32 {
        sup.tick(t0 + STEP * step);
    }
    assert_eq!(*attempts.lock().unwrap(), 1);
    assert_eq!(registry.current_version("t"), Some(new_version));

    // The new model serves drifted traffic bit-identically to offline.
    let (drifted, _) = fx.workload.uniform_test_db(0.35, 100);
    let batch: Vec<Vec<Symbol>> = drifted.into_iter().take(24).collect();
    assert_eq!(assert_bit_identical(&registry, &batch), new_version);
    // Crash-safety: the artifact on disk is the adopted model, validated.
    assert_eq!(cat.latest_valid("t").unwrap().0, new_version);
    std::fs::remove_dir_all(cat.root()).ok();
}
