//! Integration tests driving the `noisemine` binary end to end through its
//! real command-line surface (via `CARGO_BIN_EXE_noisemine`).

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn noisemine(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_noisemine"))
        .args(args)
        .output()
        .expect("binary runs")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("noisemine-cli-test-{}-{name}", std::process::id()))
}

/// Generates a small noisy database + matrix for the other tests.
fn generate(db: &Path, matrix: &Path) {
    let out = noisemine(&[
        "gen",
        "--out",
        db.to_str().unwrap(),
        "--matrix-out",
        matrix.to_str().unwrap(),
        "--sequences",
        "120",
        "--min-len",
        "20",
        "--max-len",
        "30",
        "--motifs",
        "AMTKY:0.5",
        "--noise",
        "partner:0.3",
        "--seed",
        "11",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
}

#[test]
fn gen_stats_match_mine_round_trip() {
    let db = tmp("db.txt");
    let matrix = tmp("m.txt");
    generate(&db, &matrix);

    // stats reports the generated shape.
    let out = noisemine(&[
        "stats",
        "--db",
        db.to_str().unwrap(),
        "--matrix",
        matrix.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("sequences:        120"), "{text}");
    assert!(text.contains("alphabet size:    20"), "{text}");
    assert!(text.contains("match"), "{text}");

    // match: the planted motif survives under --normalize.
    let out = noisemine(&[
        "match",
        "--db",
        db.to_str().unwrap(),
        "--matrix",
        matrix.to_str().unwrap(),
        "--pattern",
        "AMTKY",
        "--normalize",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("support:"), "{text}");
    assert!(text.contains("match:"), "{text}");

    // mine finds the motif with every algorithm.
    for algorithm in ["three-phase", "levelwise", "depth-first", "max-miner"] {
        let out = noisemine(&[
            "mine",
            "--db",
            db.to_str().unwrap(),
            "--matrix",
            matrix.to_str().unwrap(),
            "--normalize",
            "--min-match",
            "0.15",
            "--max-len",
            "6",
            "--algorithm",
            algorithm,
            "--limit",
            "2000",
        ]);
        assert!(out.status.success(), "{algorithm}: {}", stderr(&out));
        let text = stdout(&out);
        assert!(
            text.contains("AMTKY"),
            "{algorithm} did not recover the motif:\n{text}"
        );
    }

    std::fs::remove_file(&db).ok();
    std::fs::remove_file(&matrix).ok();
}

#[test]
fn top_k_mode() {
    let db = tmp("topk-db.txt");
    let matrix = tmp("topk-m.txt");
    generate(&db, &matrix);
    let out = noisemine(&[
        "mine",
        "--db",
        db.to_str().unwrap(),
        "--matrix",
        matrix.to_str().unwrap(),
        "--normalize",
        "--top",
        "5",
        "--max-len",
        "6",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let status = stderr(&out);
    assert!(status.contains("top-5 patterns"), "{status}");
    assert!(status.contains("implied threshold"), "{status}");
    assert!(stdout(&out).contains("pattern"), "{}", stdout(&out));
    std::fs::remove_file(&db).ok();
    std::fs::remove_file(&matrix).ok();
}

#[test]
fn convert_to_binary() {
    let db = tmp("conv-db.txt");
    let matrix = tmp("conv-m.txt");
    let bin = tmp("conv.nmdb");
    generate(&db, &matrix);
    let out = noisemine(&[
        "convert",
        "--db",
        db.to_str().unwrap(),
        "--out",
        bin.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(bin.exists());
    // The binary file carries the seqdb magic.
    let bytes = std::fs::read(&bin).unwrap();
    assert_eq!(&bytes[..8], b"NMSEQDB\0");
    std::fs::remove_file(&db).ok();
    std::fs::remove_file(&matrix).ok();
    std::fs::remove_file(&bin).ok();
}

#[test]
fn retired_index_and_kernel_options_are_rejected() {
    // Rejected before any file is read, so the paths need not exist.
    let mine = ["mine", "--db", "db.txt"];
    let convert = ["convert", "--db", "db.txt", "--out", "db.nmdb"];
    let stream = ["stream", "--db", "db.txt"];
    let serve = ["serve", "--model", "m.nmmodel"];
    for (command, option, value) in [
        (&mine[..], "index", "build"),
        (&convert[..], "index", "build"),
        (&mine[..], "kernel", "simd"),
        (&stream[..], "kernel", "naive"),
        (&serve[..], "kernel", "trie"),
    ] {
        let flag = format!("--{option}");
        let mut args = command.to_vec();
        args.extend([flag.as_str(), value]);
        let out = noisemine(&args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(
            stderr(&out).contains(&format!("unrecognized option {flag}")),
            "{args:?}: {}",
            stderr(&out)
        );
    }
}

#[test]
fn error_paths_exit_nonzero_with_usage() {
    // Unknown subcommand.
    let out = noisemine(&["frobnicate"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("unknown subcommand"));
    assert!(stderr(&out).contains("USAGE"));

    // Missing required option.
    let out = noisemine(&["mine"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("--db"));

    // Typo'd option names the command's known options.
    let out = noisemine(&["stats", "--bd", "x"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("unrecognized option --bd"));
    assert!(stderr(&out).contains("USAGE"));

    // Nonexistent database file: a runtime failure, one line, no usage.
    let out = noisemine(&["stats", "--db", "/definitely/not/here.txt"]);
    assert_eq!(out.status.code(), Some(2));
    let err = stderr(&out);
    assert!(err.contains("does not exist"));
    assert_eq!(err.lines().count(), 1, "{err}");
    assert!(!err.contains("USAGE"), "{err}");

    // Bad noise spec.
    let db = tmp("noise-db.txt");
    let out = noisemine(&["gen", "--out", db.to_str().unwrap(), "--noise", "gamma:0.5"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("unknown noise kind"));

    // blosum noise requires the amino alphabet.
    let out = noisemine(&[
        "gen",
        "--out",
        db.to_str().unwrap(),
        "--alphabet",
        "d10",
        "--noise",
        "blosum:0.2",
    ]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("amino"));
    std::fs::remove_file(&db).ok();
}

#[test]
fn output_formats() {
    let db = tmp("fmt-db.txt");
    let matrix = tmp("fmt-m.txt");
    generate(&db, &matrix);
    // JSON is machine-parseable and status lines stay on stderr.
    let out = noisemine(&[
        "mine",
        "--db",
        db.to_str().unwrap(),
        "--matrix",
        matrix.to_str().unwrap(),
        "--normalize",
        "--top",
        "3",
        "--max-len",
        "4",
        "--format",
        "json",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.trim_start().starts_with('['), "{text}");
    assert!(text.contains("\"pattern\""), "{text}");
    assert!(!text.contains("top-3"), "status leaked into stdout: {text}");
    assert!(stderr(&out).contains("top-3"), "{}", stderr(&out));

    // CSV has a clean header as the first stdout line.
    let out = noisemine(&[
        "mine",
        "--db",
        db.to_str().unwrap(),
        "--matrix",
        matrix.to_str().unwrap(),
        "--normalize",
        "--min-match",
        "0.5",
        "--max-len",
        "3",
        "--format",
        "csv",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(
        stdout(&out).starts_with("pattern,match"),
        "{}",
        stdout(&out)
    );

    // Unknown format fails before mining.
    let out = noisemine(&["mine", "--db", db.to_str().unwrap(), "--format", "yaml"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("unknown --format"));

    std::fs::remove_file(&db).ok();
    std::fs::remove_file(&matrix).ok();
}

#[test]
fn learn_round_trip() {
    let clean = tmp("learn-clean.txt");
    let noisy = tmp("learn-noisy.txt");
    let matrix = tmp("learn-m.txt");
    for (path, noise) in [(&clean, None), (&noisy, Some("partner:0.3"))] {
        let mut args = vec![
            "gen",
            "--out",
            path.to_str().unwrap(),
            "--sequences",
            "150",
            "--min-len",
            "30",
            "--max-len",
            "30",
            "--seed",
            "3",
        ];
        if let Some(n) = noise {
            args.push("--noise");
            args.push(n);
        }
        let out = noisemine(&args);
        assert!(out.status.success(), "{}", stderr(&out));
    }
    let out = noisemine(&[
        "learn",
        "--truth",
        clean.to_str().unwrap(),
        "--observed",
        noisy.to_str().unwrap(),
        "--out",
        matrix.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(stdout(&out).contains("learned a 20x20"), "{}", stdout(&out));
    let contents = std::fs::read_to_string(&matrix).unwrap();
    assert!(contents.starts_with("#noisemine-matrix dense"));
    // The learned matrix is usable downstream.
    let out = noisemine(&[
        "stats",
        "--db",
        noisy.to_str().unwrap(),
        "--matrix",
        matrix.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    std::fs::remove_file(&clean).ok();
    std::fs::remove_file(&noisy).ok();
    std::fs::remove_file(&matrix).ok();
}

#[test]
fn metrics_out_is_observe_only_and_emits_documented_counters() {
    let db = tmp("obs-db.txt");
    let matrix = tmp("obs-m.txt");
    let metrics = tmp("obs-metrics.json");
    generate(&db, &matrix);

    let mine_args = |extra: &[&str]| {
        let mut args = vec![
            "mine",
            "--db",
            db.to_str().unwrap(),
            "--matrix",
            matrix.to_str().unwrap(),
            "--normalize",
            "--min-match",
            "0.15",
            "--max-len",
            "6",
            "--format",
            "json",
        ];
        args.extend_from_slice(extra);
        noisemine(&args)
    };

    let plain = mine_args(&[]);
    assert!(plain.status.success(), "{}", stderr(&plain));
    let with_metrics = mine_args(&["--metrics-out", metrics.to_str().unwrap()]);
    assert!(with_metrics.status.success(), "{}", stderr(&with_metrics));

    // The mined output is byte-identical with and without instrumentation.
    assert_eq!(
        stdout(&plain),
        stdout(&with_metrics),
        "--metrics-out changed the mined pattern set"
    );

    // The snapshot is written, self-describing, and the collapse-scan
    // counter (Algorithm 4.3's cost) is live on a planted workload.
    let snap = std::fs::read_to_string(&metrics).expect("metrics file written");
    assert!(
        snap.contains("\"format\": \"noisemine-metrics/1\""),
        "{snap}"
    );
    for metric in [
        "core_collapse_db_scans",
        "core_candidates_frequent_total",
        "core_chernoff_epsilon_max",
        "core_phase1_seconds",
        "core_scan_sequences_total",
    ] {
        assert!(snap.contains(metric), "snapshot missing {metric}:\n{snap}");
    }
    let scans_field = snap
        .split("\"core_collapse_db_scans\"")
        .nth(1)
        .and_then(|rest| rest.split("\"value\": ").nth(1))
        .and_then(|rest| rest.split(['}', ','].as_ref()).next())
        .expect("collapse scan value present");
    let scans: u64 = scans_field.trim().parse().expect("integer scan count");
    assert!(scans >= 1, "expected >= 1 collapse scan, got {scans}");

    // A .prom path switches to Prometheus text exposition.
    let prom = tmp("obs-metrics.prom");
    let out = mine_args(&["--metrics-out", prom.to_str().unwrap()]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = std::fs::read_to_string(&prom).expect("prom file written");
    assert!(
        text.contains("# TYPE core_collapse_db_scans counter"),
        "{text}"
    );
    assert!(text.contains("core_phase1_seconds_bucket{le="), "{text}");

    std::fs::remove_file(&db).ok();
    std::fs::remove_file(&matrix).ok();
    std::fs::remove_file(&metrics).ok();
    std::fs::remove_file(&prom).ok();
}

#[test]
fn stream_metrics_out_tracks_ingest() {
    let db = tmp("obs-stream-db.txt");
    let matrix = tmp("obs-stream-m.txt");
    let metrics = tmp("obs-stream-metrics.json");
    generate(&db, &matrix);

    let out = noisemine(&[
        "stream",
        "--db",
        db.to_str().unwrap(),
        "--matrix",
        matrix.to_str().unwrap(),
        "--normalize",
        "--min-match",
        "0.4",
        "--delta",
        "0.05",
        "--max-len",
        "6",
        "--chunk",
        "60",
        "--metrics-out",
        metrics.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let snap = std::fs::read_to_string(&metrics).expect("metrics file written");
    assert!(
        snap.contains("\"stream_sequences_ingested_total\""),
        "{snap}"
    );
    // generate() plants 120 sequences; all of them must be counted.
    assert!(snap.contains("\"value\": 120"), "{snap}");
    assert!(snap.contains("\"stream_remines_total\""), "{snap}");

    std::fs::remove_file(&db).ok();
    std::fs::remove_file(&matrix).ok();
    std::fs::remove_file(&metrics).ok();
}

#[test]
fn stream_resume_applies_operational_flags() {
    let db = tmp("resume-db.txt");
    let prefix = tmp("resume-prefix.txt");
    let matrix = tmp("resume-m.txt");
    let ckpt = tmp("resume.ckpt");
    let out = noisemine(&[
        "gen",
        "--out",
        db.to_str().unwrap(),
        "--matrix-out",
        matrix.to_str().unwrap(),
        "--sequences",
        "4000",
        "--min-len",
        "20",
        "--max-len",
        "30",
        "--motifs",
        "AMTKY:0.5",
        "--noise",
        "partner:0.3",
        "--seed",
        "11",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = std::fs::read_to_string(&db).unwrap();
    let head: Vec<&str> = text.lines().take(1000).collect();
    std::fs::write(&prefix, head.join("\n") + "\n").unwrap();
    let out = noisemine(&[
        "stream",
        "--db",
        prefix.to_str().unwrap(),
        "--matrix",
        matrix.to_str().unwrap(),
        "--normalize",
        "--min-match",
        "0.1",
        "--delta",
        "0.05",
        "--max-len",
        "8",
        "--checkpoint",
        ckpt.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", stderr(&out));

    // The 3 000-sequence tail drifts, and its re-mine's last scan is large
    // enough that `--threads 0` would use every core. The restored engine
    // must run on the worker count this command line asks for.
    for threads in [1, 2] {
        let resumed = tmp(&format!("resume-{threads}.ckpt"));
        let metrics = tmp(&format!("resume-{threads}-metrics.json"));
        std::fs::copy(&ckpt, &resumed).unwrap();
        let out = noisemine(&[
            "stream",
            "--db",
            db.to_str().unwrap(),
            "--matrix",
            matrix.to_str().unwrap(),
            "--normalize",
            "--checkpoint",
            resumed.to_str().unwrap(),
            "--chunk",
            "5000",
            "--threads",
            &threads.to_string(),
            "--metrics-out",
            metrics.to_str().unwrap(),
        ]);
        assert!(out.status.success(), "{}", stderr(&out));
        assert!(
            stderr(&out).contains("re-mined at 4000 sequences"),
            "{}",
            stderr(&out)
        );
        let snap = std::fs::read_to_string(&metrics).expect("metrics file written");
        let workers = snap
            .lines()
            .find(|l| l.contains("\"parallel_scan_workers\""))
            .expect("worker gauge registered");
        assert!(
            workers.contains(&format!("\"value\": {threads}}}")),
            "{workers}"
        );
        std::fs::remove_file(&resumed).ok();
        std::fs::remove_file(&metrics).ok();
    }

    for path in [&db, &prefix, &matrix, &ckpt] {
        std::fs::remove_file(path).ok();
    }
}

/// Generates a text database, converts it to `.nmdb`, and returns the
/// paths (text, matrix, binary).
fn generate_binary(stem: &str) -> (PathBuf, PathBuf, PathBuf) {
    let db = tmp(&format!("{stem}-db.txt"));
    let matrix = tmp(&format!("{stem}-m.txt"));
    let bin = tmp(&format!("{stem}.nmdb"));
    generate(&db, &matrix);
    let out = noisemine(&[
        "convert",
        "--db",
        db.to_str().unwrap(),
        "--out",
        bin.to_str().unwrap(),
        "--matrix",
        matrix.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    (db, matrix, bin)
}

#[test]
fn mine_binary_database_matches_text_mining() {
    let (db, matrix, bin) = generate_binary("binmine");
    let run = |input: &Path| {
        let out = noisemine(&[
            "mine",
            "--db",
            input.to_str().unwrap(),
            "--matrix",
            matrix.to_str().unwrap(),
            "--normalize",
            "--min-match",
            "0.15",
            "--max-len",
            "6",
            "--format",
            "json",
        ]);
        assert!(out.status.success(), "{}", stderr(&out));
        stdout(&out)
    };
    // Mining the binary file from disk gives byte-identical output to
    // mining the text original in memory.
    assert_eq!(run(&bin), run(&db));
    std::fs::remove_file(&db).ok();
    std::fs::remove_file(&matrix).ok();
    std::fs::remove_file(&bin).ok();
}

#[test]
fn corrupt_binary_database_fails_strict_and_survives_quarantine() {
    let (db, matrix, bin) = generate_binary("corrupt");

    // Flip one byte inside the first record's data.
    let mut bytes = std::fs::read(&bin).unwrap();
    bytes[20 + 16 + 3] ^= 0x40;
    std::fs::write(&bin, &bytes).unwrap();

    // Strict (the default): non-zero exit, human-readable diagnosis.
    let out = noisemine(&[
        "mine",
        "--db",
        bin.to_str().unwrap(),
        "--matrix",
        matrix.to_str().unwrap(),
        "--on-fault",
        "strict",
    ]);
    assert_eq!(out.status.code(), Some(2), "strict must fail on corruption");
    let err = stderr(&out);
    assert!(err.contains("corrupt"), "not a readable diagnosis: {err}");
    assert!(err.contains("record"), "no record pointer: {err}");

    // Quarantine: mines the surviving subset and says what it skipped.
    let out = noisemine(&[
        "mine",
        "--db",
        bin.to_str().unwrap(),
        "--matrix",
        matrix.to_str().unwrap(),
        "--normalize",
        "--min-match",
        "0.15",
        "--max-len",
        "6",
        "--on-fault",
        "quarantine",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let status = stderr(&out);
    assert!(status.contains("quarantined 1 corrupt record"), "{status}");
    assert!(status.contains("119 surviving"), "{status}");

    // An invalid policy is rejected up front.
    let out = noisemine(&["mine", "--db", bin.to_str().unwrap(), "--on-fault", "panic"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("unknown --on-fault"));

    // --on-fault is meaningless for text databases.
    let out = noisemine(&[
        "mine",
        "--db",
        db.to_str().unwrap(),
        "--on-fault",
        "quarantine",
    ]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains(".nmdb"));

    std::fs::remove_file(&db).ok();
    std::fs::remove_file(&matrix).ok();
    std::fs::remove_file(&bin).ok();
}

#[test]
fn help_prints_usage() {
    let out = noisemine(&["help"]);
    assert!(out.status.success());
    assert!(stdout(&out).contains("USAGE"));
}

#[test]
fn synthetic_alphabet_and_uniform_noise() {
    let db = tmp("synth-db.txt");
    let matrix = tmp("synth-m.txt");
    let out = noisemine(&[
        "gen",
        "--out",
        db.to_str().unwrap(),
        "--matrix-out",
        matrix.to_str().unwrap(),
        "--sequences",
        "50",
        "--min-len",
        "10",
        "--max-len",
        "15",
        "--alphabet",
        "d8",
        "--motifs",
        "d0 d1 d2:0.6",
        "--noise",
        "uniform:0.2",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let out = noisemine(&[
        "mine",
        "--db",
        db.to_str().unwrap(),
        "--matrix",
        matrix.to_str().unwrap(),
        "--normalize",
        "--min-match",
        "0.2",
        "--max-len",
        "4",
        "--algorithm",
        "levelwise",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(stdout(&out).contains("d0 d1 d2"), "{}", stdout(&out));
    std::fs::remove_file(&db).ok();
    std::fs::remove_file(&matrix).ok();
}

/// One raw HTTP/1.1 exchange over a real socket (`Connection: close`).
fn http(addr: &str, method: &str, path: &str, body: &str) -> (u16, String) {
    use std::io::{Read, Write};
    let mut stream = std::net::TcpStream::connect(addr).expect("connect to server");
    let req = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\n\
         Connection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(req.as_bytes()).unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).unwrap();
    let status: u16 = raw.split_whitespace().nth(1).unwrap().parse().unwrap();
    let body = raw
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}

#[test]
fn mine_model_out_then_serve_smoke() {
    let db = tmp("serve-db.txt");
    let matrix = tmp("serve-m.txt");
    let model = tmp("serve.nmmodel");
    generate(&db, &matrix);

    // Mine and write the serving artifact.
    let out = noisemine(&[
        "mine",
        "--db",
        db.to_str().unwrap(),
        "--matrix",
        matrix.to_str().unwrap(),
        "--normalize",
        "--min-match",
        "0.15",
        "--max-len",
        "6",
        "--model-out",
        model.to_str().unwrap(),
        "--model-version",
        "7",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(stderr(&out).contains("wrote model v7"), "{}", stderr(&out));

    // --model-out is three-phase-only.
    let out = noisemine(&[
        "mine",
        "--db",
        db.to_str().unwrap(),
        "--algorithm",
        "levelwise",
        "--model-out",
        model.to_str().unwrap(),
    ]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("three-phase"), "{}", stderr(&out));

    // Serve the artifact on an ephemeral port and talk to it for real.
    let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_noisemine"))
        .args([
            "serve",
            "--model",
            model.to_str().unwrap(),
            "--addr",
            "127.0.0.1:0",
            "--threads",
            "2",
        ])
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("serve starts");
    let mut announce = String::new();
    {
        use std::io::BufRead;
        let mut reader = std::io::BufReader::new(child.stdout.take().unwrap());
        reader.read_line(&mut announce).unwrap();
    }
    let addr = announce
        .trim()
        .strip_prefix("serving on http://")
        .unwrap_or_else(|| panic!("unexpected announce line {announce:?}"))
        .to_string();

    let (status, body) = http(&addr, "GET", "/healthz", "");
    assert_eq!(status, 200, "{body}");

    let (status, body) = http(
        &addr,
        "POST",
        "/v1/classify",
        r#"{"tenant": "default", "sequences": [["A", "M", "T", "K", "Y"]]}"#,
    );
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"model_version\": 7"), "{body}");
    assert!(body.contains("\"num_sequences\": 1"), "{body}");
    assert!(body.contains("\"db_match\""), "{body}");

    let (status, body) = http(&addr, "GET", "/metrics", "");
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("serve_requests_total"), "{body}");
    assert!(
        body.contains("serve_tenant_default_requests_total"),
        "{body}"
    );

    let (status, _) = http(&addr, "POST", "/admin/shutdown", "");
    assert_eq!(status, 200);
    let out = child.wait_with_output().expect("clean exit");
    assert!(out.status.success(), "serve exited {:?}", out.status);

    std::fs::remove_file(&db).ok();
    std::fs::remove_file(&matrix).ok();
    std::fs::remove_file(&model).ok();
}

#[test]
fn serve_rejects_an_unusable_drift_config_at_startup() {
    let db = tmp("drift-cfg-db.txt");
    let matrix = tmp("drift-cfg-m.txt");
    let model = tmp("drift-cfg.nmmodel");
    generate(&db, &matrix);
    let out = noisemine(&[
        "mine",
        "--db",
        db.to_str().unwrap(),
        "--matrix",
        matrix.to_str().unwrap(),
        "--normalize",
        "--min-match",
        "0.15",
        "--max-len",
        "4",
        "--model-out",
        model.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", stderr(&out));

    // --drift-max-len 0 admits no pattern at all: serve must refuse to
    // start rather than accept traffic it can never re-mine. A zero idle
    // timeout is refused the same way. A server that starts anyway is
    // killed after the deadline.
    let refused: [(&[&str], &str); 2] = [
        (&["--drift", "--drift-max-len", "0"], "--drift-max-len"),
        (
            &["--idle-timeout", "0"],
            "--idle-timeout must be positive seconds, got 0",
        ),
    ];
    for (flags, message) in refused {
        let mut child = Command::new(env!("CARGO_BIN_EXE_noisemine"))
            .args(["serve", "--model", model.to_str().unwrap()])
            .args(flags)
            .args(["--addr", "127.0.0.1:0"])
            .stdout(std::process::Stdio::null())
            .stderr(std::process::Stdio::piped())
            .spawn()
            .expect("serve runs");
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(20);
        while child.try_wait().unwrap().is_none() {
            if std::time::Instant::now() > deadline {
                child.kill().ok();
                panic!("serve started with {flags:?}");
            }
            std::thread::sleep(std::time::Duration::from_millis(20));
        }
        let out = child.wait_with_output().unwrap();
        assert_eq!(out.status.code(), Some(2));
        assert!(stderr(&out).contains(message), "{}", stderr(&out));
    }

    std::fs::remove_file(&db).ok();
    std::fs::remove_file(&matrix).ok();
    std::fs::remove_file(&model).ok();
}
