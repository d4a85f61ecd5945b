//! Serving through a real in-process `Server`: request pools with
//! verified reference responses, a closed-loop keep-alive client, and the
//! serve-layer probes (parse, decode, classify) on the same request bytes.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use noisemine_core::matching::{db_match_many, sequence_match, MemorySequences};
use noisemine_core::{PatternModel, Symbol};
use noisemine_serve::http::{try_parse_request, ConnBuf};
use noisemine_serve::{classify, json, ModelRegistry, ServeConfig, ServeModel, Server};
use rand::Rng;

use crate::stats::{mean, median, Metrics};
use crate::trace::Tracer;

/// One classify request with its wire bytes and verified reference
/// response.
pub struct Req {
    /// Index of the tenant in [`Fixture::tenants`].
    pub tenant: usize,
    pub large: bool,
    pub seqs: Vec<Vec<Symbol>>,
    pub body: String,
    pub wire: Vec<u8>,
    /// The whole response (head and body) the server gave at warm-up.
    pub reference: Vec<u8>,
    /// The reference's scores equal offline scoring bit for bit.
    pub reference_ok: bool,
}

/// A running server with its tenants and request pools.
pub struct Fixture {
    pub server: Server,
    pub tenants: Vec<(String, ServeModel)>,
    pub small: Vec<Req>,
    pub large: Vec<Req>,
}

/// Worker threads of the server: one per available core.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

impl Fixture {
    /// Installs the models, starts the server, and answers every pooled
    /// request once. The answer becomes the request's reference, and is
    /// checked to be a 200 whose scores are bit-identical to offline
    /// `db_match_many` / `sequence_match`. Pools are `(tenant, large, seqs)`.
    pub fn start(
        models: Vec<(String, PatternModel)>,
        pool: Vec<(usize, bool, Vec<Vec<Symbol>>)>,
    ) -> Self {
        let registry = Arc::new(ModelRegistry::new(0.0));
        for (name, spec) in &models {
            registry.swap(name, ServeModel::compile(spec.clone()));
        }
        let server = Server::start(
            &ServeConfig {
                threads: nproc(),
                ..ServeConfig::default()
            },
            registry,
        )
        .expect("server starts");
        let tenants: Vec<(String, ServeModel)> = models
            .into_iter()
            .map(|(name, spec)| (name, ServeModel::compile(spec)))
            .collect();
        let mut client = Client::connect(&server.addr().to_string());
        let (mut small, mut large) = (Vec::new(), Vec::new());
        for (tenant, is_large, seqs) in pool {
            let (name, model) = &tenants[tenant];
            let body = request_body(name, &seqs, model);
            let wire = format!(
                "POST /v1/classify HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n{body}",
                body.len()
            )
            .into_bytes();
            let reference = client.round_trip(&wire);
            let reference_ok = matches_offline(&reference, model, &seqs);
            let req = Req {
                tenant,
                large: is_large,
                seqs,
                body,
                wire,
                reference,
                reference_ok,
            };
            if is_large {
                large.push(req);
            } else {
                small.push(req);
            }
        }
        Fixture {
            server,
            tenants,
            small,
            large,
        }
    }

    pub fn stop(self) {
        self.server.stop();
        self.server.join();
    }
}

fn request_body(tenant: &str, seqs: &[Vec<Symbol>], model: &ServeModel) -> String {
    let alphabet = &model.spec.alphabet;
    let rows: Vec<String> = seqs
        .iter()
        .map(|s| {
            let names: Vec<String> = s
                .iter()
                .map(|&sym| format!("\"{}\"", alphabet.name(sym).expect("symbol in alphabet")))
                .collect();
            format!("[{}]", names.join(","))
        })
        .collect();
    format!(
        "{{\"tenant\": \"{tenant}\", \"sequences\": [{}]}}",
        rows.join(",")
    )
}

/// Whether a raw response is a 200 whose every score equals offline
/// scoring of the same sequences bit for bit.
fn matches_offline(response: &[u8], model: &ServeModel, seqs: &[Vec<Symbol>]) -> bool {
    let text = std::str::from_utf8(response).expect("utf-8 response");
    let Some((head, body)) = text.split_once("\r\n\r\n") else {
        return false;
    };
    if !head.starts_with("HTTP/1.1 200 ") {
        return false;
    }
    let doc = json::parse(body).expect("response is JSON");
    let Some(rows) = doc.get("patterns").and_then(json::Value::as_arr) else {
        return false;
    };
    let matrix = &model.spec.matrix;
    let db_match = db_match_many(&model.patterns, &MemorySequences(seqs.to_vec()), matrix);
    rows.len() == model.patterns.len()
        && rows
            .iter()
            .zip(&model.patterns)
            .zip(&db_match)
            .all(|((row, p), &want)| {
                let got = row.get("db_match").and_then(json::Value::as_f64);
                let scores = row.get("sequence_scores").and_then(json::Value::as_arr);
                got.map(f64::to_bits) == Some(want.to_bits())
                    && scores.is_some_and(|sc| {
                        sc.len() == seqs.len()
                            && sc.iter().zip(seqs).all(|(v, s)| {
                                v.as_f64().map(f64::to_bits)
                                    == Some(sequence_match(p, s, matrix).to_bits())
                            })
                    })
            })
}

/// A persistent HTTP/1.1 connection; responses are framed by
/// `Content-Length`.
pub struct Client {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Client {
    pub fn connect(addr: &str) -> Self {
        let stream = TcpStream::connect(addr).expect("connect to server");
        stream.set_nodelay(true).expect("set TCP_NODELAY");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .expect("set read timeout");
        Client {
            stream,
            buf: Vec::with_capacity(1 << 16),
        }
    }

    /// Sends one request and returns exactly one whole response.
    pub fn round_trip(&mut self, wire: &[u8]) -> Vec<u8> {
        self.stream.write_all(wire).expect("send request");
        self.buf.clear();
        let mut chunk = [0u8; 1 << 16];
        loop {
            if let Some(total) = framed_len(&self.buf) {
                if self.buf.len() >= total {
                    assert_eq!(self.buf.len(), total, "unrequested bytes after response");
                    return std::mem::take(&mut self.buf);
                }
            }
            let n = self.stream.read(&mut chunk).expect("read response");
            assert!(n > 0, "server closed the connection mid-response");
            self.buf.extend_from_slice(&chunk[..n]);
        }
    }
}

/// Head length plus `Content-Length`, once the head is complete.
fn framed_len(raw: &[u8]) -> Option<usize> {
    let head_end = raw.windows(4).position(|w| w == b"\r\n\r\n")?;
    let head = std::str::from_utf8(&raw[..head_end]).ok()?;
    let len: usize = head.lines().find_map(|l| {
        let (name, value) = l.split_once(':')?;
        name.eq_ignore_ascii_case("content-length")
            .then(|| value.trim().parse().ok())?
    })?;
    Some(head_end + 4 + len)
}

/// What one closed-loop client measured.
pub struct ClientRun {
    /// `(large, seconds)` per request, in send order.
    pub requests: Vec<(bool, f64)>,
    pub sequences: usize,
    pub verified: usize,
    pub tracer: Tracer,
}

/// Closed loop on one keep-alive connection: three small requests, then
/// one large, bodies drawn by the seeded `rng`, until `deadline` or
/// `max_requests`. A request is verified when its reference matched
/// offline scoring and the response equals the reference byte for byte.
pub fn closed_loop(
    fx: &Fixture,
    client_id: u64,
    mut rng: impl Rng,
    deadline: Instant,
    max_requests: usize,
    mut tracer: Tracer,
) -> ClientRun {
    let mut client = Client::connect(&fx.server.addr().to_string());
    let mut run = ClientRun {
        requests: Vec::new(),
        sequences: 0,
        verified: 0,
        tracer: Tracer::new(false, tracer.epoch()),
    };
    let mut k = 0u64;
    while Instant::now() < deadline && run.requests.len() < max_requests {
        let pool = if k % 4 == 3 { &fx.large } else { &fx.small };
        let req = &pool[rng.gen_range(0..pool.len())];
        k += 1;
        tracer.set_op((client_id << 40) | k);
        let t0 = Instant::now();
        let ok = tracer.span("bench", "op", |tr| {
            let response = tr.span("serve", "round_trip", |_| client.round_trip(&req.wire));
            req.reference_ok && response == req.reference
        });
        run.requests.push((req.large, t0.elapsed().as_secs_f64()));
        run.sequences += req.seqs.len();
        run.verified += usize::from(ok);
    }
    run.tracer = tracer;
    run
}

/// Serve-layer metrics: the layer functions timed on the pooled requests,
/// and what the measured round trips leave unattributed.
pub fn layer_metrics(fx: &Fixture, runs: &[ClientRun], poll_wakeups: u64, m: &mut Metrics) {
    const REPS: usize = 20;
    let per_req_us = |pool: &[Req], f: &dyn Fn(&Req)| -> f64 {
        let mut samples = Vec::new();
        for _ in 0..REPS {
            for req in pool {
                let t = Instant::now();
                f(req);
                samples.push(t.elapsed().as_secs_f64() * 1e6);
            }
        }
        median(&samples)
    };
    let parse = |req: &Req| {
        let mut buf = ConnBuf::new();
        buf.extend(&req.wire);
        let parsed = try_parse_request(&mut buf).expect("request parses");
        std::hint::black_box(parsed.expect("request is complete"));
    };
    let decode = |req: &Req| {
        std::hint::black_box(json::parse(&req.body).expect("body decodes"));
    };
    let score = |req: &Req| {
        std::hint::black_box(classify(&fx.tenants[req.tenant].1, &req.seqs));
    };
    let [parse_s, parse_l] = [&fx.small, &fx.large].map(|p| per_req_us(p, &parse));
    let [decode_s, decode_l] = [&fx.small, &fx.large].map(|p| per_req_us(p, &decode));
    let [class_s, class_l] = [&fx.small, &fx.large].map(|p| per_req_us(p, &score));

    let requests: Vec<(bool, f64)> = runs.iter().flat_map(|r| r.requests.clone()).collect();
    let n = requests.len();
    let large = requests.iter().filter(|(l, _)| *l).count() as f64 / n as f64;
    let mix = |s: f64, l: f64| (1.0 - large) * s + large * l;
    let round_trip_us = 1e6 * mean(&requests.iter().map(|&(_, t)| t).collect::<Vec<_>>());
    let attributed = mix(parse_s, parse_l) + mix(decode_s, decode_l) + mix(class_s, class_l);
    let pooled = REPS * (fx.small.len() + fx.large.len());
    m.push("http.parse_us", mix(parse_s, parse_l), "us", pooled);
    m.push("json.decode_us", mix(decode_s, decode_l), "us", pooled);
    m.push("classify.small_us", class_s, "us", REPS * fx.small.len());
    m.push("classify.large_us", class_l, "us", REPS * fx.large.len());
    m.push("serve.unattributed_us", round_trip_us - attributed, "us", n);
    m.push(
        "serve.poll_wakeups_per_req",
        poll_wakeups as f64 / n as f64,
        "count",
        n,
    );
}

/// The process-wide count of event-loop wakeups so far.
pub fn poll_wakeups() -> u64 {
    noisemine_obs::global()
        .snapshot()
        .counter_value("serve_poll_wakeups_total")
        .unwrap_or(0)
}

/// Serve-layer probe for a workload that does not serve: its own model as
/// the only tenant, one of its sequences per small request and eight per
/// large one, on one closed-loop client. Returns whether every request
/// was verified.
pub fn probe(model: PatternModel, seqs: &[Vec<Symbol>], seed: u64, m: &mut Metrics) -> bool {
    const REQUESTS: usize = 400;
    let mut rng = crate::gen::rng(seed, 0x5e);
    let mut draw = |k| -> Vec<Vec<Symbol>> {
        (0..k)
            .map(|_| seqs[rng.gen_range(0..seqs.len())].clone())
            .collect()
    };
    let mut pool: Vec<(usize, bool, Vec<Vec<Symbol>>)> =
        (0..16).map(|_| (0, false, draw(1))).collect();
    pool.extend((0..4).map(|_| (0, true, draw(8))));
    let fx = Fixture::start(vec![("probe".to_string(), model)], pool);
    let wakeups = poll_wakeups();
    let run = closed_loop(
        &fx,
        1,
        crate::gen::rng(seed, 0x5f),
        Instant::now() + Duration::from_secs(10),
        REQUESTS,
        Tracer::new(false, Instant::now()),
    );
    let verified = run.verified == run.requests.len();
    layer_metrics(&fx, &[run], poll_wakeups() - wakeups, m);
    fx.stop();
    verified
}
