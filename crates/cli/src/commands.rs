//! Implementations of the `noisemine` subcommands.

use std::path::Path;

use noisemine_baselines::{
    mine_depth_first, mine_levelwise, mine_maxminer, mine_top_k, MaxMinerConfig,
};
use noisemine_core::border_collapse::ProbeStrategy;
use noisemine_core::matching::{db_match, db_support, MatchMetric, MemorySequences, SequenceScan};
use noisemine_core::miner::{mine, MinerConfig};
use noisemine_core::{
    matrix_io, Alphabet, CompatibilityMatrix, Pattern, PatternModel, PatternSpace, Symbol,
};
use noisemine_datagen::learn_matrix;
use noisemine_datagen::noise::{channel_to_compatibility, partner_channel};
use noisemine_datagen::{
    apply_channel, apply_uniform_noise, blosum, generate, Background, GeneratorConfig, PlantedMotif,
};
use noisemine_seqdb::{text, DiskDb, FaultPolicy};
use noisemine_stream::StreamState;

use crate::opts::{CliResult, Opts};

/// `noisemine gen` — generate a synthetic sequence database (and its
/// compatibility matrix) as text files.
pub fn cmd_gen(opts: &Opts) -> CliResult<()> {
    opts.deny_unknown(&[
        "out",
        "matrix-out",
        "sequences",
        "min-len",
        "max-len",
        "alphabet",
        "motifs",
        "occurrence",
        "noise",
        "seed",
    ])?;
    let out = opts.required("out")?;
    let n = opts.num("sequences", 1000usize)?;
    let min_len = opts.num("min-len", 40usize)?;
    let max_len = opts.num("max-len", 60usize)?;
    let seed = opts.num("seed", 2002u64)?;
    let occurrence = opts.num("occurrence", 0.4f64)?;

    let alphabet = parse_alphabet(opts.get_or("alphabet", "amino"))?;
    let m = alphabet.len();

    let motifs: Vec<PlantedMotif> = match opts.get("motifs") {
        None => Vec::new(),
        Some(spec) => spec
            .split(',')
            .map(|tok| {
                let (pat, occ) = match tok.split_once(':') {
                    Some((p, o)) => (
                        p,
                        o.parse::<f64>()
                            .map_err(|_| format!("motif occurrence {o:?} is not a number"))?,
                    ),
                    None => (tok, occurrence),
                };
                let pattern = Pattern::parse(pat.trim(), &alphabet)
                    .map_err(|e| format!("motif {pat:?}: {e}"))?;
                Ok(PlantedMotif::new(pattern, occ))
            })
            .collect::<CliResult<_>>()?,
    };

    let standard = generate(&GeneratorConfig {
        num_sequences: n,
        min_len,
        max_len,
        alphabet_size: m,
        background: Background::Uniform,
        motifs,
        seed,
    });

    // Optional noise channel: "uniform:0.2", "partner:0.3", "blosum:0.2".
    let (sequences, matrix) = match opts.get("noise") {
        None => (standard, CompatibilityMatrix::identity(m)),
        Some(spec) => {
            let (kind, level) = spec
                .split_once(':')
                .ok_or_else(|| format!("--noise {spec:?} must be kind:level, e.g. uniform:0.2"))?;
            let level: f64 = level
                .parse()
                .map_err(|_| format!("noise level {level:?} is not a number"))?;
            let mut rng =
                <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(seed ^ 0x006e_015e);
            match kind {
                "uniform" => {
                    let noisy = apply_uniform_noise(&standard, level, m, &mut rng);
                    let matrix =
                        CompatibilityMatrix::uniform_noise(m, level).map_err(|e| e.to_string())?;
                    (noisy, matrix)
                }
                "partner" => {
                    let partners: Vec<Vec<usize>> = if m == 20 {
                        blosum::partner_map(1)
                    } else {
                        (0..m).map(|i| vec![i_xor_1_clamped(i, m)]).collect()
                    };
                    let channel = partner_channel(m, level, &partners);
                    let noisy = apply_channel(&standard, &channel, &mut rng);
                    (noisy, channel_to_compatibility(&channel))
                }
                "blosum" => {
                    if m != 20 {
                        return Err("--noise blosum requires the amino alphabet".into());
                    }
                    let channel = blosum::mutation_channel(level);
                    let noisy = apply_channel(&standard, &channel, &mut rng);
                    (noisy, blosum::compatibility_matrix(level))
                }
                other => return Err(format!("unknown noise kind {other:?}").into()),
            }
        }
    };

    text::write_sequences_file(out, &sequences, &alphabet).map_err(|e| e.to_string())?;
    println!("wrote {} sequences to {out}", sequences.len());
    if let Some(matrix_out) = opts.get("matrix-out") {
        let rendered = if m > 64 {
            matrix_io::to_sparse_string(&alphabet, &matrix)
        } else {
            matrix_io::to_dense_string(&alphabet, &matrix)
        }
        .map_err(|e| e.to_string())?;
        std::fs::write(matrix_out, rendered).map_err(|e| e.to_string())?;
        println!("wrote compatibility matrix to {matrix_out}");
    }
    Ok(())
}

/// `noisemine learn` — estimate a compatibility matrix from paired
/// (truth, observed) sequence files.
pub fn cmd_learn(opts: &Opts) -> CliResult<()> {
    opts.deny_unknown(&["truth", "observed", "out", "lambda"])?;
    let truth_path = opts.required("truth")?;
    let observed_path = opts.required("observed")?;
    let out = opts.required("out")?;
    let lambda = opts.num("lambda", 0.0f64)?;

    // The alphabet must cover both files; infer from their concatenation.
    let mut text_both =
        std::fs::read_to_string(truth_path).map_err(|e| format!("{truth_path}: {e}"))?;
    text_both.push('\n');
    text_both.push_str(
        &std::fs::read_to_string(observed_path).map_err(|e| format!("{observed_path}: {e}"))?,
    );
    let alphabet =
        noisemine_seqdb::infer_alphabet(text_both.as_bytes()).map_err(|e| e.to_string())?;

    let truth = text::read_sequences_file(truth_path, &alphabet).map_err(|e| e.to_string())?;
    let observed =
        text::read_sequences_file(observed_path, &alphabet).map_err(|e| e.to_string())?;
    let matrix =
        learn_matrix(&truth, &observed, alphabet.len(), lambda).map_err(|e| e.to_string())?;

    let rendered = if alphabet.len() > 64 {
        matrix_io::to_sparse_string(&alphabet, &matrix)
    } else {
        matrix_io::to_dense_string(&alphabet, &matrix)
    }
    .map_err(|e| e.to_string())?;
    std::fs::write(out, rendered).map_err(|e| e.to_string())?;
    println!(
        "learned a {m}x{m} compatibility matrix from {} paired sequences (lambda = {lambda});          wrote {out}",
        truth.len(),
        m = alphabet.len(),
    );
    Ok(())
}

/// `noisemine stats` — database statistics (and per-symbol matches when a
/// matrix is given).
pub fn cmd_stats(opts: &Opts) -> CliResult<()> {
    opts.deny_unknown(&["db", "matrix"])?;
    let (alphabet, sequences) = load_db(opts)?;
    let db = MemorySequences(sequences);
    let n = db.num_sequences();
    let total: usize = db.0.iter().map(Vec::len).sum();
    let (min_l, max_l) =
        db.0.iter()
            .map(Vec::len)
            .fold((usize::MAX, 0), |(lo, hi), l| (lo.min(l), hi.max(l)));
    println!("sequences:        {n}");
    println!("symbols total:    {total}");
    println!("alphabet size:    {}", alphabet.len());
    if n > 0 {
        println!(
            "length min/avg/max: {min_l} / {:.1} / {max_l}",
            total as f64 / n as f64
        );
    }

    // Symbol frequencies.
    let mut counts = vec![0usize; alphabet.len()];
    for seq in &db.0 {
        for s in seq {
            counts[s.index()] += 1;
        }
    }
    println!("\n{:<10} {:>10} {:>10}", "symbol", "count", "freq");
    let mut order: Vec<usize> = (0..alphabet.len()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(counts[i]));
    for &i in order.iter().take(20) {
        println!(
            "{:<10} {:>10} {:>9.2}%",
            alphabet.name(Symbol(i as u16)).map_err(|e| e.to_string())?,
            counts[i],
            100.0 * counts[i] as f64 / total.max(1) as f64,
        );
    }

    if let Some(matrix_path) = opts.get("matrix") {
        let (_, matrix) = load_matrix(matrix_path, &alphabet)?;
        let matches = noisemine_core::matching::symbol_db_match(&db, &matrix);
        println!("\n{:<10} {:>10}", "symbol", "match");
        for &i in order.iter().take(20) {
            println!(
                "{:<10} {:>10.4}",
                alphabet.name(Symbol(i as u16)).map_err(|e| e.to_string())?,
                matches[i],
            );
        }
    }
    Ok(())
}

/// `noisemine match` — support and match of one pattern.
pub fn cmd_match(opts: &Opts) -> CliResult<()> {
    opts.deny_unknown(&["db", "matrix", "pattern", "normalize"])?;
    let (alphabet, sequences) = load_db(opts)?;
    let db = MemorySequences(sequences);
    let pattern =
        Pattern::parse(opts.required("pattern")?, &alphabet).map_err(|e| e.to_string())?;
    println!(
        "pattern {} (length {}, {} concrete symbols)",
        pattern.display(&alphabet).map_err(|e| e.to_string())?,
        pattern.len(),
        pattern.non_eternal_count(),
    );
    println!("support: {:.6}", db_support(&pattern, &db));
    if let Some(matrix_path) = opts.get("matrix") {
        let (_, matrix) = load_matrix(matrix_path, &alphabet)?;
        let matrix = maybe_normalize(matrix, opts)?;
        println!("match:   {:.6}", db_match(&pattern, &db, &matrix));
    }
    Ok(())
}

/// `noisemine convert` — text ↔ binary sequence database conversion.
pub fn cmd_convert(opts: &Opts) -> CliResult<()> {
    opts.deny_unknown(&["db", "out", "matrix"])?;
    let input = opts.required("db")?;
    let out = opts.required("out")?;
    let to_binary = out.ends_with(".nmdb");
    if to_binary {
        // Binary files store symbol ids, so the encoding alphabet must
        // match whatever matrix is used at mining time — pass --matrix to
        // pin it; inference orders symbols by first occurrence.
        let (alphabet, how) = match opts.get("matrix") {
            Some(matrix_path) => (load_matrix_alphabet(matrix_path)?, "from --matrix"),
            None => (infer(input)?, "inferred"),
        };
        let sequences = text::read_sequences_file(input, &alphabet).map_err(|e| e.to_string())?;
        DiskDb::create_from(out, sequences.iter().map(Vec::as_slice)).map_err(|e| e.to_string())?;
        println!(
            "wrote {} sequences to binary database {out} (alphabet {how}: {} symbols; \
             note: binary files store ids, keep the alphabet alongside)",
            sequences.len(),
            alphabet.len(),
        );
    } else {
        return Err("convert currently writes binary .nmdb only; name the output *.nmdb".into());
    }
    Ok(())
}

/// The database `noisemine mine` runs on: a text file read whole, or a
/// binary `.nmdb` file whose every scan streams from disk under the
/// `--on-fault` policy (see docs/ROBUSTNESS.md).
enum Store {
    Text(MemorySequences),
    Disk(DiskDb),
}

impl Store {
    fn scan(&self) -> &dyn SequenceScan {
        match self {
            Store::Text(db) => db,
            Store::Disk(db) => db,
        }
    }
}

/// Opens `--db` with the alphabet and matrix that go with it. Binary files
/// store symbol ids only: names come from `--matrix`, and without one a
/// sizing scan (itself under the fault policy) picks a synthetic alphabet
/// large enough for every surviving symbol.
fn open_store(opts: &Opts, path: &str) -> CliResult<(Store, Alphabet, CompatibilityMatrix)> {
    if !path.ends_with(".nmdb") {
        if opts.get("on-fault").is_some() {
            return Err(
                "--on-fault applies to binary .nmdb databases (text files are read whole)".into(),
            );
        }
        let (alphabet, sequences) = load_db(opts)?;
        let matrix = text_matrix(opts, &alphabet)?;
        return Ok((Store::Text(MemorySequences(sequences)), alphabet, matrix));
    }
    let db = DiskDb::open_with_policy(path, parse_on_fault(opts)?)
        .map_err(|e| format!("{path}: {e}"))?;
    if !db.quarantined().is_empty() {
        eprintln!(
            "quarantined {} corrupt record(s); mining the {} surviving sequence(s)",
            db.quarantined().len(),
            db.num_sequences(),
        );
    }
    let algorithm = opts.get_or("algorithm", "three-phase");
    if algorithm != "three-phase" {
        return Err(format!(
            "binary databases mine with --algorithm three-phase (got {algorithm:?}); \
             the baseline miners need a text database"
        )
        .into());
    }
    if opts.get("top").is_some() {
        return Err("--top needs a text database".into());
    }
    let (alphabet, matrix) = match opts.get("matrix") {
        Some(matrix_path) => {
            let alphabet = load_matrix_alphabet(matrix_path)?;
            let matrix = load_matrix(matrix_path, &alphabet)?.1;
            (alphabet, matrix)
        }
        None => {
            let mut max = 0usize;
            db.try_scan(&mut |_, seq| {
                for s in seq {
                    max = max.max(s.index());
                }
            })
            .map_err(|e| format!("{path}: {e}"))?;
            let alphabet = Alphabet::synthetic((max + 1).max(2));
            let m = alphabet.len();
            (alphabet, CompatibilityMatrix::identity(m))
        }
    };
    Ok((Store::Disk(db), alphabet, matrix))
}

/// `noisemine mine` — run a miner over a text database, or the three-phase
/// miner over a binary `.nmdb` database.
pub fn cmd_mine(opts: &Opts) -> CliResult<()> {
    opts.deny_unknown(&[
        "db",
        "matrix",
        "min-match",
        "normalize",
        "max-gap",
        "max-len",
        "algorithm",
        "sample",
        "delta",
        "counters",
        "strategy",
        "seed",
        "threads",
        "limit",
        "top",
        "format",
        "metrics-out",
        "on-fault",
        "model-out",
        "model-version",
    ])?;
    let sink = metrics_sink(opts);
    let path = opts.required("db")?;
    let (store, alphabet, matrix) = open_store(opts, path)?;
    let matrix = maybe_normalize(matrix, opts)?;
    let config = miner_config(opts, store.scan().num_sequences())?;
    let (min_match, space) = (config.min_match, config.space);
    let algorithm = opts.get_or("algorithm", "three-phase");
    let limit = opts.num("limit", 50usize)?;
    let format = parse_format(opts)?;
    if opts.get("model-out").is_some() && (algorithm != "three-phase" || opts.get("top").is_some())
    {
        return Err(
            "--model-out needs the three-phase miner (it serializes the miner's full \
             outcome); drop --top and use --algorithm three-phase"
                .into(),
        );
    }

    // `--top k` switches to threshold-free best-first mining. Binary stores
    // reach only the three-phase arm below: `open_store` rejects `--top`
    // and the baseline algorithms for them.
    if let (Some(k), Store::Text(db)) = (opts.get("top"), &store) {
        let k: usize = k
            .parse()
            .map_err(|_| format!("--top got unparsable value {k:?}"))?;
        let r = mine_top_k(&db.0, &matrix, k, &space);
        eprintln!(
            "top-{k} patterns ({} evaluated, implied threshold {:.4}):",
            r.evaluated, r.implied_threshold
        );
        write_metrics(sink.as_ref())?;
        return emit(&r.patterns, r.patterns.len(), &alphabet, format);
    }

    let frequent: Vec<(Pattern, f64)> = match (&store, algorithm) {
        (_, "three-phase") => {
            let outcome = mine(store.scan(), &matrix, &config).map_err(|e| match store {
                Store::Text(_) => e.to_string(),
                Store::Disk(_) => format!("{path}: {e}"),
            })?;
            eprintln!(
                "three-phase miner: {} db scans, {} sample-confident, {} verified, {} implied",
                outcome.stats.db_scans,
                outcome.stats.sample_frequent,
                outcome.stats.verified_patterns,
                outcome.stats.propagated_patterns,
            );
            maybe_write_model(opts, &outcome, &alphabet, &matrix, min_match)?;
            outcome
                .frequent
                .into_iter()
                .map(|f| (f.pattern, f.match_estimate))
                .collect()
        }
        (Store::Text(db), "levelwise") => {
            let r = mine_levelwise(
                db,
                &MatchMetric { matrix: &matrix },
                alphabet.len(),
                min_match,
                &space,
                usize::MAX,
            );
            eprintln!(
                "level-wise miner: {} scans, {} levels",
                r.scans,
                r.trace.levels()
            );
            r.frequent
        }
        (Store::Text(db), "depth-first") => {
            let r = mine_depth_first(&db.0, &matrix, min_match, &space);
            eprintln!(
                "depth-first miner: {} patterns evaluated, depth {}",
                r.patterns_evaluated, r.max_depth
            );
            r.frequent
        }
        (Store::Text(db), "max-miner") => {
            let r = mine_maxminer(
                db,
                &MatchMetric { matrix: &matrix },
                alphabet.len(),
                min_match,
                &space,
                &MaxMinerConfig::default(),
            );
            eprintln!(
                "max-miner: {} scans, {} look-ahead hits",
                r.scans, r.lookahead_hits
            );
            r.frequent
                .into_iter()
                .map(|(p, v)| (p, v.unwrap_or(min_match)))
                .collect()
        }
        (_, other) => {
            return Err(format!(
                "unknown algorithm {other:?}; use three-phase, levelwise, depth-first, or max-miner"
            )
            .into())
        }
    };

    let mut sorted = frequent;
    sorted.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    eprintln!(
        "{} frequent patterns (match >= {min_match}); top {}:",
        sorted.len(),
        limit.min(sorted.len())
    );
    write_metrics(sink.as_ref())?;
    emit(&sorted, limit, &alphabet, format)
}

/// The three-phase miner's configuration from the flags `mine` and
/// `stream` share; `--sample` defaults to `default_sample`.
fn miner_config(opts: &Opts, default_sample: usize) -> CliResult<MinerConfig> {
    Ok(MinerConfig {
        min_match: opts.num("min-match", 0.1f64)?,
        delta: opts.num("delta", 0.001f64)?,
        sample_size: opts.num("sample", default_sample)?,
        counters_per_scan: opts.num("counters", 100_000usize)?,
        space: PatternSpace::new(opts.num("max-gap", 0usize)?, opts.num("max-len", 16usize)?)
            .map_err(|e| e.to_string())?,
        probe_strategy: match opts.get_or("strategy", "border") {
            "border" => ProbeStrategy::BorderCollapsing,
            "levelwise" => ProbeStrategy::LevelWise,
            other => return Err(format!("unknown strategy {other:?}").into()),
        },
        seed: opts.num("seed", 2002u64)?,
        threads: opts.num("threads", 0usize)?,
        ..MinerConfig::default()
    })
}

/// Writes the mined outcome as a versioned `NMMODEL` serving artifact
/// when `--model-out` is given (see docs/SERVING.md).
fn maybe_write_model(
    opts: &Opts,
    outcome: &noisemine_core::miner::MineOutcome,
    alphabet: &Alphabet,
    matrix: &CompatibilityMatrix,
    min_match: f64,
) -> CliResult<()> {
    let Some(path) = opts.get("model-out") else {
        return Ok(());
    };
    let version = opts.num("model-version", 1u64)?;
    let model = PatternModel::from_outcome(outcome, alphabet, matrix, min_match, version);
    noisemine_serve::write_model(path, &model).map_err(|e| format!("{path}: {e}"))?;
    eprintln!(
        "wrote model v{version} ({} patterns) to {path}",
        model.patterns.len()
    );
    Ok(())
}

/// `noisemine serve` — the online match-serving HTTP server: loads
/// `NMMODEL` artifacts into per-tenant slots (from explicit `--model`
/// specs and/or a watched `--catalog` directory) and classifies incoming
/// sequences against them until `POST /admin/shutdown` (or SIGKILL). With
/// `--drift`, classified traffic feeds per-tenant drift detectors and the
/// server re-mines and self-swaps its own models. See docs/SERVING.md for
/// the API and lifecycle.
pub fn cmd_serve(opts: &Opts) -> CliResult<()> {
    opts.deny_unknown(&[
        "model",
        "addr",
        "threads",
        "tenant-quota",
        "metrics-out",
        "max-requests-per-conn",
        "idle-timeout",
        "catalog",
        "catalog-interval",
        "drift",
        "drift-interval",
        "drift-min-seqs",
        "remine-timeout",
        "remine-backoff",
        "remine-backoff-max",
        "breaker-threshold",
        "breaker-cooldown",
        "drift-sample",
        "drift-max-len",
        "drift-max-gap",
        "drift-max-buffer",
    ])?;
    let sink = metrics_sink(opts);
    let catalog_root = opts.get("catalog");
    if opts.get("model").is_none() && catalog_root.is_none() {
        return Err("serve needs --model <spec> and/or --catalog <dir>".into());
    }
    let quota = opts.num("tenant-quota", 0.0f64)?;
    let registry = std::sync::Arc::new(noisemine_serve::ModelRegistry::new(quota));
    for part in opts.get("model").unwrap_or("").split(',') {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        // `tenant=path`, or a bare path served as the "default" tenant.
        let (tenant, path) = match part.split_once('=') {
            Some((t, p)) => (t, p),
            None => ("default", part),
        };
        if tenant.is_empty() {
            return Err(format!("--model entry {part:?} has an empty tenant name").into());
        }
        let model = noisemine_serve::read_model(path).map_err(|e| e.to_string())?;
        let compiled = noisemine_serve::ServeModel::compile(model);
        eprintln!(
            "tenant {tenant}: model v{} ({} patterns) from {path}",
            compiled.version(),
            compiled.num_patterns()
        );
        registry.swap(tenant, compiled);
    }
    // One supervisor runs the catalog and the drift loop; its first
    // catalog pass runs here, before serving, so /readyz is meaningful
    // from the first request.
    let catalog = match catalog_root {
        Some(root) => Some((
            noisemine_serve::Catalog::new(root),
            positive_secs(opts, "catalog-interval", 2.0)?,
        )),
        None => None,
    };
    let drift = if opts.flag("drift") {
        Some(noisemine_serve::DriftConfig {
            interval: positive_secs(opts, "drift-interval", 1.0)?,
            min_sequences: opts.num("drift-min-seqs", 256u64)?,
            remine_timeout: positive_secs(opts, "remine-timeout", 30.0)?,
            backoff_base: positive_secs(opts, "remine-backoff", 1.0)?,
            backoff_max: positive_secs(opts, "remine-backoff-max", 60.0)?,
            breaker_threshold: opts.num("breaker-threshold", 5u32)?.max(1),
            breaker_cooldown: positive_secs(opts, "breaker-cooldown", 30.0)?,
            max_buffer: opts.num("drift-max-buffer", 100_000usize)?,
            sample_size: opts.num("drift-sample", 512usize)?,
            max_len: opts.num("drift-max-len", 8usize)?,
            max_gap: opts.num("drift-max-gap", 0usize)?,
            ..noisemine_serve::DriftConfig::default()
        })
    } else {
        None
    };
    let supervisor = if catalog.is_some() || drift.is_some() {
        let supervisor = noisemine_serve::Supervisor::new(
            std::sync::Arc::clone(&registry),
            catalog,
            drift,
            std::time::Instant::now(),
        )
        .map_err(|e| format!("--drift-max-len: {e}"))?;
        let (handle, report) = supervisor.spawn();
        for (tenant, version) in &report.adopted {
            eprintln!("tenant {tenant}: adopted v{version} from catalog");
        }
        for tenant in &report.modelless {
            eprintln!("tenant {tenant}: no valid model in catalog yet (degraded)");
        }
        Some(handle)
    } else {
        None
    };
    let drift_controller = supervisor.as_ref().and_then(|s| s.controller());
    let config = noisemine_serve::ServeConfig {
        addr: opts.get_or("addr", "127.0.0.1:7700").to_string(),
        threads: opts.num("threads", 4usize)?.max(1),
        max_requests_per_conn: opts.num("max-requests-per-conn", 0usize)?,
        idle_timeout: positive_secs(opts, "idle-timeout", 10.0)?,
        ..noisemine_serve::ServeConfig::default()
    };
    let server = noisemine_serve::Server::start_with(&config, registry, drift_controller)
        .map_err(|e| e.to_string())?;
    // Printed (and flushed) so scripts binding port 0 can discover the
    // actual address before the first request.
    println!("serving on http://{}", server.addr());
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    server.join();
    if supervisor.is_some_and(|s| s.stop().is_err()) {
        eprintln!("warning: the catalog/drift supervisor thread panicked");
    }
    write_metrics(sink.as_ref())?;
    eprintln!("server stopped");
    Ok(())
}

/// Parses `--<name>` as positive seconds into a `Duration`.
fn positive_secs(opts: &Opts, name: &str, default: f64) -> CliResult<std::time::Duration> {
    let secs = opts.num(name, default)?;
    if !secs.is_finite() || secs <= 0.0 {
        return Err(format!("--{name} must be positive seconds, got {secs}").into());
    }
    Ok(std::time::Duration::from_secs_f64(secs))
}

/// Parses `--on-fault strict|retry[:N]|quarantine` into a [`FaultPolicy`]
/// (default: strict — fail on the first damaged byte).
fn parse_on_fault(opts: &Opts) -> CliResult<FaultPolicy> {
    let spec = opts.get_or("on-fault", "strict");
    if spec == "strict" {
        return Ok(FaultPolicy::Strict);
    }
    if spec == "quarantine" {
        return Ok(FaultPolicy::Quarantine);
    }
    if spec == "retry" || spec.starts_with("retry:") {
        let attempts = match spec.strip_prefix("retry:") {
            None => 3,
            Some(n) => n
                .parse::<u32>()
                .map_err(|_| format!("--on-fault retry:{n}: attempts must be an integer"))?,
        };
        return Ok(FaultPolicy::Retry {
            attempts,
            backoff: std::time::Duration::from_millis(20),
        });
    }
    Err(format!("unknown --on-fault {spec:?}; use strict, retry[:N], or quarantine").into())
}

/// `noisemine stream` — incremental ingestion + drift-triggered re-mining.
///
/// Reads a text database (or stdin with `--db -`), feeds it to a
/// [`StreamState`] in `--chunk`-sized batches, and re-mines only when the
/// per-symbol match estimates drift past the Chernoff bound. With
/// `--checkpoint`, engine state persists across invocations: a later run
/// against a *grown* file restores the engine and ingests only the tail
/// (the miner configuration is then taken from the checkpoint, not the
/// flags).
pub fn cmd_stream(opts: &Opts) -> CliResult<()> {
    opts.deny_unknown(&[
        "db",
        "matrix",
        "normalize",
        "checkpoint",
        "chunk",
        "min-match",
        "sample",
        "delta",
        "counters",
        "max-gap",
        "max-len",
        "strategy",
        "seed",
        "threads",
        "limit",
        "format",
        "metrics-out",
    ])?;
    let sink = metrics_sink(opts);
    let (alphabet, sequences) = load_db_or_stdin(opts)?;
    let matrix = maybe_normalize(text_matrix(opts, &alphabet)?, opts)?;
    let limit = opts.num("limit", 50usize)?;
    let chunk = opts.num("chunk", 1000usize)?.max(1);
    let format = parse_format(opts)?;

    let config = miner_config(opts, 1000)?;
    let checkpoint_path = opts.get("checkpoint").map(Path::new);
    let mut engine = match checkpoint_path {
        Some(path) if path.exists() => {
            let mut engine = StreamState::restore(path, matrix.clone())
                .map_err(|e| format!("{}: {e}", path.display()))?;
            // The checkpoint holds the mining configuration; the worker
            // count still comes from this command line.
            engine.set_threads(config.threads);
            eprintln!(
                "restored checkpoint {} ({} sequences already ingested)",
                path.display(),
                engine.total_seen(),
            );
            engine
        }
        _ => StreamState::new(matrix.clone(), config).map_err(|e| e.to_string())?,
    };

    let already = engine.total_seen() as usize;
    if already > sequences.len() {
        return Err(format!(
            "checkpoint has ingested {already} sequences but the input holds only {} — \
             the database shrank; delete the checkpoint to start over",
            sequences.len(),
        )
        .into());
    }
    let fresh = sequences.len() - already;
    eprintln!(
        "ingesting {fresh} new sequences in chunks of {chunk} ({} total)",
        sequences.len(),
    );

    let mut ingested = already;
    let mut remines = 0usize;
    let mut last_outcome = None;
    for batch in sequences[already..].chunks(chunk) {
        engine.ingest_all(batch);
        ingested += batch.len();
        if engine.drift_exceeded() {
            let outcome = engine
                .mine(&sequences[..ingested])
                .map_err(|e| e.to_string())?;
            remines += 1;
            eprintln!(
                "re-mined at {ingested} sequences: {} frequent, {} db scans \
                 (drift exceeded the Chernoff bound)",
                outcome.frequent.len(),
                outcome.stats.db_scans,
            );
            last_outcome = Some(outcome);
        }
        // Periodic emission: refresh the snapshot after every chunk so a
        // long-running ingest can be watched from outside.
        write_metrics(sink.as_ref())?;
    }

    if let Some(path) = checkpoint_path {
        engine
            .checkpoint(path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        eprintln!("checkpoint written to {}", path.display());
    }
    write_metrics(sink.as_ref())?;

    match last_outcome {
        Some(outcome) => {
            let mut sorted: Vec<(Pattern, f64)> = outcome
                .frequent
                .into_iter()
                .map(|f| (f.pattern, f.match_estimate))
                .collect();
            sorted.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
            eprintln!(
                "{} frequent patterns after {remines} re-mine(s); top {}:",
                sorted.len(),
                limit.min(sorted.len()),
            );
            emit(&sorted, limit, &alphabet, format)
        }
        None => {
            eprintln!(
                "estimates stable after {fresh} new sequences — no re-mine needed \
                 (borders unchanged since the last run)"
            );
            Ok(())
        }
    }
}

/// Prints mined patterns in the chosen output format. `json` emits an
/// array of `{"pattern": ..., "match": ...}` objects (strings escaped per
/// RFC 8259 by the serving layer's JSON escaper); `csv` a two-column file;
/// `table` an aligned listing.
fn emit(
    patterns: &[(Pattern, f64)],
    limit: usize,
    alphabet: &Alphabet,
    format: &str,
) -> CliResult<()> {
    use std::io::Write;
    let rows: Vec<(String, f64)> = patterns
        .iter()
        .take(limit)
        .map(|(p, v)| Ok((p.display(alphabet).map_err(|e| e.to_string())?, *v)))
        .collect::<CliResult<_>>()?;
    // Buffered and broken-pipe tolerant: `noisemine mine ... | head` must
    // exit cleanly when the reader closes early.
    let stdout = std::io::stdout();
    let mut out = std::io::BufWriter::new(stdout.lock());
    let result: std::io::Result<()> = (|| {
        match format {
            "table" => {
                writeln!(out, "{:<30} {:>10}", "pattern", "match")?;
                for (p, v) in &rows {
                    writeln!(out, "{p:<30} {v:>10.4}")?;
                }
            }
            "csv" => {
                writeln!(out, "pattern,match")?;
                for (p, v) in &rows {
                    let field = if p.contains(',') || p.contains('"') {
                        format!("\"{}\"", p.replace('"', "\"\""))
                    } else {
                        p.clone()
                    };
                    writeln!(out, "{field},{v}")?;
                }
            }
            "json" => {
                writeln!(out, "[")?;
                for (i, (p, v)) in rows.iter().enumerate() {
                    let comma = if i + 1 < rows.len() { "," } else { "" };
                    writeln!(
                        out,
                        "  {{\"pattern\": {}, \"match\": {v}}}{comma}",
                        noisemine_serve::json::escape(p)
                    )?;
                }
                writeln!(out, "]")?;
            }
            _ => unreachable!("format validated in cmd_mine"),
        }
        out.flush()
    })();
    match result {
        Ok(()) => Ok(()),
        // Reader went away (e.g. `| head`); not an error for a CLI.
        Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => Ok(()),
        Err(e) => Err(format!("i/o error: {e}").into()),
    }
}

// -- helpers ---------------------------------------------------------------

/// Turns `--metrics-out <path>` into a live metrics sink. Enabling the
/// global registry is what arms the (otherwise dormant) instrumentation in
/// core/seqdb/stream, so this must run before any mining starts.
fn metrics_sink(opts: &Opts) -> Option<noisemine_obs::FileSink> {
    opts.get("metrics-out").map(|path| {
        noisemine_obs::enable();
        noisemine_obs::FileSink::new(path)
    })
}

/// Writes the current registry snapshot through the sink (no-op without
/// `--metrics-out`). Format follows the sink path's extension: `.prom` /
/// `.txt` get Prometheus text exposition, anything else JSON.
fn write_metrics(sink: Option<&noisemine_obs::FileSink>) -> CliResult<()> {
    let Some(sink) = sink else { return Ok(()) };
    sink.write(&noisemine_obs::global().snapshot())
        .map_err(|e| format!("{}: {e}", sink.path().display()).into())
}

/// Symmetric pairing partner (`i ^ 1`); the last symbol of an odd-sized
/// alphabet pairs with its predecessor instead of falling off the end.
fn i_xor_1_clamped(i: usize, m: usize) -> usize {
    let p = i ^ 1;
    if p >= m {
        i - 1
    } else {
        p
    }
}

fn parse_alphabet(spec: &str) -> CliResult<Alphabet> {
    if spec == "amino" {
        Ok(Alphabet::amino_acids())
    } else if let Some(n) = spec.strip_prefix('d') {
        let m: usize = n
            .parse()
            .map_err(|_| format!("alphabet {spec:?}: expected `amino` or `dN`"))?;
        if m < 2 {
            return Err("alphabet needs at least 2 symbols".into());
        }
        Ok(Alphabet::synthetic(m))
    } else {
        Err(format!("alphabet {spec:?}: expected `amino` or `dN` (e.g. d50)").into())
    }
}

fn infer(path: &str) -> CliResult<Alphabet> {
    let file = std::fs::File::open(path).map_err(|e| format!("{path}: {e}"))?;
    noisemine_seqdb::infer_alphabet(file).map_err(|e| e.to_string().into())
}

/// Like [`load_db`], but `--db -` reads the whole of stdin instead.
fn load_db_or_stdin(opts: &Opts) -> CliResult<(Alphabet, Vec<Vec<Symbol>>)> {
    let path = opts.required("db")?;
    if path != "-" {
        return load_db(opts);
    }
    let mut buf = String::new();
    use std::io::Read;
    std::io::stdin()
        .read_to_string(&mut buf)
        .map_err(|e| format!("stdin: {e}"))?;
    let alphabet = match opts.get("matrix") {
        Some(matrix_path) => load_matrix_alphabet(matrix_path)?,
        None => noisemine_seqdb::infer_alphabet(buf.as_bytes()).map_err(|e| e.to_string())?,
    };
    let sequences =
        noisemine_seqdb::read_sequences(buf.as_bytes(), &alphabet).map_err(|e| e.to_string())?;
    Ok((alphabet, sequences))
}

/// Loads `--db` (text) with the alphabet from `--matrix` when given, else
/// inferred from the data.
fn load_db(opts: &Opts) -> CliResult<(Alphabet, Vec<Vec<Symbol>>)> {
    let path = opts.required("db")?;
    if !Path::new(path).exists() {
        return Err(format!("database file {path} does not exist").into());
    }
    let alphabet = match opts.get("matrix") {
        Some(matrix_path) => load_matrix_alphabet(matrix_path)?,
        None => infer(path)?,
    };
    let sequences = text::read_sequences_file(path, &alphabet).map_err(|e| e.to_string())?;
    Ok((alphabet, sequences))
}

fn load_matrix_alphabet(path: &str) -> CliResult<Alphabet> {
    let file = std::fs::File::open(path).map_err(|e| format!("{path}: {e}"))?;
    let (alphabet, _) = matrix_io::read_matrix(file).map_err(|e| e.to_string())?;
    Ok(alphabet)
}

fn load_matrix(path: &str, expected: &Alphabet) -> CliResult<(Alphabet, CompatibilityMatrix)> {
    let file = std::fs::File::open(path).map_err(|e| format!("{path}: {e}"))?;
    let (alphabet, matrix) = matrix_io::read_matrix(file).map_err(|e| e.to_string())?;
    if alphabet.len() != expected.len() {
        return Err(format!(
            "matrix alphabet has {} symbols but the database alphabet has {}",
            alphabet.len(),
            expected.len()
        )
        .into());
    }
    Ok((alphabet, matrix))
}

/// `--format table|csv|json` (default table).
fn parse_format(opts: &Opts) -> CliResult<&str> {
    let format = opts.get_or("format", "table");
    if !["table", "csv", "json"].contains(&format) {
        return Err(format!("unknown --format {format:?}; use table, csv, or json").into());
    }
    Ok(format)
}

/// The matrix for a text database: `--matrix` read against `alphabet`, or
/// the identity (plain support) without one.
fn text_matrix(opts: &Opts, alphabet: &Alphabet) -> CliResult<CompatibilityMatrix> {
    match opts.get("matrix") {
        Some(path) => Ok(load_matrix(path, alphabet)?.1),
        None => Ok(CompatibilityMatrix::identity(alphabet.len())),
    }
}

fn maybe_normalize(matrix: CompatibilityMatrix, opts: &Opts) -> CliResult<CompatibilityMatrix> {
    if opts.flag("normalize") {
        matrix
            .diagonal_normalized_clamped()
            .map_err(|e| e.to_string().into())
    } else {
        Ok(matrix)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_alphabet_variants() {
        assert_eq!(parse_alphabet("amino").unwrap().len(), 20);
        assert_eq!(parse_alphabet("d50").unwrap().len(), 50);
        assert!(parse_alphabet("d1").is_err()); // below 2 symbols
        assert!(parse_alphabet("protein").is_err());
        assert!(parse_alphabet("dxyz").is_err());
    }

    #[test]
    fn symmetric_pairing_clamps_at_odd_end() {
        assert_eq!(i_xor_1_clamped(0, 5), 1);
        assert_eq!(i_xor_1_clamped(1, 5), 0);
        assert_eq!(i_xor_1_clamped(3, 5), 2);
        // Last symbol of an odd alphabet pairs backwards.
        assert_eq!(i_xor_1_clamped(4, 5), 3);
    }

    #[test]
    fn parse_on_fault_variants() {
        let policy = |args: &[&str]| {
            let mut v = vec!["mine", "--db", "x.nmdb"];
            v.extend_from_slice(args);
            parse_on_fault(&Opts::parse(v).unwrap())
        };
        assert_eq!(policy(&[]).unwrap(), FaultPolicy::Strict);
        assert_eq!(
            policy(&["--on-fault", "strict"]).unwrap(),
            FaultPolicy::Strict
        );
        assert_eq!(
            policy(&["--on-fault", "quarantine"]).unwrap(),
            FaultPolicy::Quarantine
        );
        assert!(matches!(
            policy(&["--on-fault", "retry"]).unwrap(),
            FaultPolicy::Retry { attempts: 3, .. }
        ));
        assert!(matches!(
            policy(&["--on-fault", "retry:7"]).unwrap(),
            FaultPolicy::Retry { attempts: 7, .. }
        ));
        assert!(policy(&["--on-fault", "retry:x"]).is_err());
        assert!(policy(&["--on-fault", "panic"]).is_err());
    }

    #[test]
    fn maybe_normalize_respects_flag() {
        let matrix = CompatibilityMatrix::uniform_noise(4, 0.2).unwrap();
        let plain = Opts::parse(["mine", "--db", "x"]).unwrap();
        let kept = maybe_normalize(matrix.clone(), &plain).unwrap();
        assert!((kept.get(Symbol(0), Symbol(0)) - 0.8).abs() < 1e-12);
        let normalized = Opts::parse(["mine", "--db", "x", "--normalize"]).unwrap();
        let scaled = maybe_normalize(matrix, &normalized).unwrap();
        assert!((scaled.get(Symbol(0), Symbol(0)) - 1.0).abs() < 1e-12);
    }
}
