//! Layer probes of the traced run: each calls one layer's public
//! functions on the workload's own inputs and times them from outside.

use std::path::Path;
use std::time::Instant;

use noisemine_core::index::{SkipPlan, SymbolIndexBuilder};
use noisemine_core::matching::SequenceScan;
use noisemine_core::parallel::SCAN_BLOCK_SIZE;
use noisemine_core::{CandidateTrie, CompatibilityMatrix, Pattern, Symbol};
use noisemine_seqdb::{DiskDb, DiskDbWriter};

use crate::mining::{phase2_batches, phase3_batches, Composed};
use crate::stats::{median, Metrics};
use crate::trace::Tracer;

/// Bytes the disk store has read in this process (the obs registry must
/// be enabled).
pub fn bytes_read() -> u64 {
    noisemine_obs::global()
        .snapshot()
        .counter_value("seqdb_disk_bytes_read_total")
        .unwrap_or(0)
}

const REPEATS: usize = 3;

fn median_ms(mut f: impl FnMut() -> f64) -> f64 {
    median(&(0..REPEATS).map(|_| f()).collect::<Vec<_>>())
}

/// One bare `try_scan_blocks` pass over the file.
pub fn scan_ms(db: &DiskDb) -> f64 {
    median_ms(|| {
        let t = Instant::now();
        db.try_scan_blocks(SCAN_BLOCK_SIZE, &mut |block| block)
            .expect("bare scan");
        t.elapsed().as_secs_f64() * 1e3
    })
}

/// A `try_scan` that keeps only the last `tail` sequences, as a tail read
/// of an append-only log does.
pub fn tail_read_ms(db: &DiskDb, tail: usize) -> f64 {
    let skip = db.num_sequences().saturating_sub(tail);
    median_ms(|| {
        let mut kept: Vec<Vec<Symbol>> = Vec::with_capacity(tail);
        let mut seen = 0;
        let t = Instant::now();
        db.try_scan(&mut |_, seq| {
            if seen >= skip {
                kept.push(seq.to_vec());
            }
            seen += 1;
        })
        .expect("tail read");
        t.elapsed().as_secs_f64() * 1e3
    })
}

/// Appending `chunk` to an existing log: open for append, write, and the
/// fsyncing `finish`.
pub fn append_ms(dir: &Path, chunk: &[Vec<Symbol>]) -> f64 {
    let path = dir.join("append-probe.db");
    let write = |mut w: DiskDbWriter| {
        for seq in chunk {
            let id = w.count();
            w.write_sequence(id, seq).expect("write sequence");
        }
        w.finish().expect("finish log");
    };
    let ms = median_ms(|| {
        write(DiskDbWriter::create(&path).expect("create log"));
        let t = Instant::now();
        write(DiskDbWriter::append(&path).expect("open log for append"));
        t.elapsed().as_secs_f64() * 1e3
    });
    std::fs::remove_file(&path).ok();
    ms
}

/// Every sequence of a store, in scan order.
pub fn load(db: &impl SequenceScan) -> Vec<Vec<Symbol>> {
    let mut out = Vec::with_capacity(db.num_sequences());
    db.scan(&mut |_, s| out.push(s.to_vec()));
    out
}

/// A batch of patterns the workload evaluates against some sequences.
pub struct KernelBatch<'a> {
    pub patterns: Vec<Pattern>,
    pub seqs: &'a [Vec<Symbol>],
    pub matrix: &'a CompatibilityMatrix,
}

/// A mine's phase-2 levels over its sample and its phase-3 probe batches
/// over `db_seqs`.
pub fn phase_batches<'a>(
    c: &'a Composed,
    db_seqs: &'a [Vec<Symbol>],
    matrix: &'a CompatibilityMatrix,
) -> Vec<KernelBatch<'a>> {
    let phase2 = phase2_batches(&c.p2)
        .into_iter()
        .map(|patterns| KernelBatch {
            patterns,
            seqs: &c.sample,
            matrix,
        });
    let phase3 = phase3_batches(&c.p3)
        .into_iter()
        .map(|patterns| KernelBatch {
            patterns,
            seqs: db_seqs,
            matrix,
        });
    phase2.chain(phase3).collect()
}

/// Both production kernels on the same batches, one sequence at a time on
/// one thread: the trie walk and the columnar (simd) walk. Returns whether
/// their outputs agreed bit for bit on every sequence.
pub fn kernel_metrics(batches: &[KernelBatch], m: &mut Metrics) -> bool {
    let (mut trie_s, mut simd_s, mut nodes, mut prunes, mut calls) = (0.0, 0.0, 0, 0, 0);
    let mut agree = true;
    for KernelBatch {
        patterns,
        seqs,
        matrix,
    } in batches
    {
        let trie = CandidateTrie::new(patterns);
        let mut ts = trie.scratch();
        let mut ss = trie.simd_scratch();
        let mut a = vec![0.0; patterns.len()];
        let mut b = vec![0.0; patterns.len()];
        for seq in seqs.iter() {
            let t0 = Instant::now();
            trie.batch_sequence_match(seq, matrix, &mut ts, &mut a);
            let t1 = Instant::now();
            trie.batch_sequence_match_columnar(seq, matrix, &mut ss, &mut b);
            let t2 = Instant::now();
            trie_s += (t1 - t0).as_secs_f64();
            simd_s += (t2 - t1).as_secs_f64();
            agree &= a.iter().zip(&b).all(|(x, y)| x.to_bits() == y.to_bits());
        }
        nodes += ts.nodes_visited;
        prunes += ts.prunes;
        calls += seqs.len();
    }
    m.push("match_kernel.nodes_visited", nodes as f64, "count", calls);
    m.push(
        "match_kernel.prune_ratio",
        prunes as f64 / nodes.max(1) as f64,
        "ratio",
        calls,
    );
    m.push("match_kernel.trie_ms", trie_s * 1e3, "ms", calls);
    m.push("match_kernel.simd_ms", simd_s * 1e3, "ms", calls);
    m.push(
        "match_kernel.simd_over_trie",
        simd_s / trie_s,
        "ratio",
        calls,
    );
    agree
}

/// Phase-level metrics of the composed mines: span medians, and the
/// work counts of the last mine.
pub fn push_phase_metrics(tr: &Tracer, c: &Composed, m: &mut Metrics) {
    let med = |layer, call| median(&tr.durations(layer, call));
    let n = |layer, call| tr.durations(layer, call).len();
    m.push(
        "miner.phase1_ms",
        med("core::miner", "try_phase1_threads"),
        "ms",
        n("core::miner", "try_phase1_threads"),
    );
    let p2 = ("core::sample_miner", "mine_sample_budgeted_kernel");
    m.push(
        "sample_miner.phase2_ms",
        med(p2.0, p2.1),
        "ms",
        n(p2.0, p2.1),
    );
    m.push(
        "sample_miner.candidates",
        c.p2.trace.candidates.iter().sum::<usize>() as f64,
        "count",
        1,
    );
    m.push(
        "sample_miner.ambiguous",
        c.p2.ambiguous.len() as f64,
        "count",
        1,
    );
    let p3 = ("core::border_collapse", "try_collapse_with_known");
    m.push(
        "border_collapse.phase3_ms",
        med(p3.0, p3.1),
        "ms",
        n(p3.0, p3.1),
    );
    m.push("border_collapse.probes", c.p3.probes as f64, "count", 1);
    m.push(
        "border_collapse.resolved_per_probe",
        (c.p3.probes + c.p3.propagated) as f64 / c.p3.probes.max(1) as f64,
        "ratio",
        1,
    );
}

/// Share of sequences a `SkipPlan` would skip, over the probe batches.
pub fn skip_ratio(
    db: &impl SequenceScan,
    m_symbols: usize,
    batches: &[Vec<Pattern>],
    matrix: &CompatibilityMatrix,
) -> f64 {
    let mut builder = SymbolIndexBuilder::new(m_symbols);
    db.scan(&mut |_, s| builder.add_sequence(s));
    let index = builder.finish();
    let (mut skipped, mut total) = (0, 0);
    for batch in batches {
        let plan = SkipPlan::build(&index, batch, matrix);
        skipped += plan.num_sequences() - plan.candidates();
        total += plan.num_sequences();
    }
    skipped as f64 / total.max(1) as f64
}

/// Stream-layer metrics, however the workload exercised the engine.
pub struct StreamLayer {
    pub ingest_us_per_seq: f64,
    pub drift_check_us: f64,
    pub remines: usize,
    pub stationary_remines: usize,
    pub remine_ms: f64,
    pub tracked_patterns: usize,
    pub checkpoint_ms: f64,
}

impl StreamLayer {
    pub fn push(&self, samples: usize, m: &mut Metrics) {
        m.push(
            "stream.ingest_us_per_seq",
            self.ingest_us_per_seq,
            "us",
            samples,
        );
        m.push("stream.drift_check_us", self.drift_check_us, "us", samples);
        m.push("stream.remines", self.remines as f64, "count", 1);
        m.push(
            "stream.stationary_remines",
            self.stationary_remines as f64,
            "count",
            1,
        );
        m.push("stream.remine_ms", self.remine_ms, "ms", self.remines);
        m.push(
            "stream.tracked_patterns",
            self.tracked_patterns as f64,
            "count",
            1,
        );
        m.push("stream.checkpoint_ms", self.checkpoint_ms, "ms", 1);
    }
}
