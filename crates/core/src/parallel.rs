//! Deterministic parallel kernels: chunked match evaluation for
//! memory-resident data, and the block-scan map-reduce that parallelizes
//! the full-database scans of phases 1 and 3.
//!
//! Phase 2 evaluates every candidate against every sample sequence — an
//! embarrassingly parallel product that dominates wall-clock time on large
//! samples. This module splits the sample into fixed-size chunks, processes
//! chunks across threads, and reduces the per-chunk partial sums **in chunk
//! order**, so results are bit-for-bit identical for any thread count
//! (including 1). Chunk boundaries are a constant, not a function of the
//! thread count, which is what makes the reduction order stable.
//!
//! [`scan_map_reduce`] extends the same determinism contract to streaming
//! scans over a [`SequenceScan`]: the scan is cut into blocks of exactly
//! [`SCAN_BLOCK_SIZE`] sequences, per-block results are computed on worker
//! threads, and the caller receives them **in block order** — so any fold
//! over them is bit-identical at every thread count, while order-sensitive
//! work (sequential sampling) runs on the in-order block stream before the
//! fan-out.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Mutex};

use crate::error::ScanError;
use crate::match_kernel::{CandidateTrie, MatchKernel};
use crate::matching::{sequence_match, SequenceBlock, SequenceScan};
use crate::matrix::CompatibilityMatrix;
use crate::pattern::Pattern;
use crate::Symbol;

/// Sequences per work chunk. Constant so that chunk boundaries (and thus
/// the floating-point reduction order) do not depend on the thread count.
pub const CHUNK_SIZE: usize = 64;

/// Sequences per scan block in [`scan_map_reduce`]. Like [`CHUNK_SIZE`],
/// this is a constant so the per-block accumulation grouping — and with it
/// every floating-point result derived from a block scan — is independent
/// of machine, thread count, and backing store.
pub const SCAN_BLOCK_SIZE: usize = 256;

/// Work size (patterns × sequences) below which the serial path is used —
/// thread startup costs more than it saves.
pub const PARALLEL_THRESHOLD: usize = 50_000;

/// Resolves a thread-count knob: `0` means all available cores.
pub fn resolve_threads(threads: usize) -> usize {
    if threads == 0 {
        std::thread::available_parallelism().map_or(1, |t| t.get())
    } else {
        threads
    }
}

/// Runs a deterministic map-reduce over the blocks of one database scan.
///
/// - `inspect` runs on the scanning thread, in block order, *before* the
///   block is handed to a worker — the hook for order-sensitive work
///   (sequential sampling, visit counting).
/// - `map` runs on one of `threads` workers with that worker's private
///   scratch value (from `make_scratch`) and the block's zero-based index
///   in scan order, producing one `T` per block. The index gives the
///   ordinal of the block's first sequence (`index * block_size`) — the
///   addressing scheme of [`crate::index::SkipPlan`].
///
/// Returns the per-block results **in block order**, regardless of which
/// worker produced each or when. Block boundaries are fixed by
/// `block_size`, so the caller's fold over the results is bit-identical for
/// every thread count; with `threads <= 1` everything runs on the calling
/// thread with the same block grouping. Blocks circulate by value — worker
/// → scanner → refill — so the steady state allocates nothing and never
/// copies a sequence out of its block.
pub fn scan_map_reduce<S, W, T>(
    db: &S,
    block_size: usize,
    threads: usize,
    inspect: &mut dyn FnMut(&SequenceBlock),
    make_scratch: &(dyn Fn() -> W + Sync),
    map: &(dyn Fn(&mut W, usize, &SequenceBlock) -> T + Sync),
) -> Vec<T>
where
    S: SequenceScan + ?Sized,
    T: Send,
{
    match try_scan_map_reduce(db, block_size, threads, inspect, make_scratch, map) {
        Ok(results) => results,
        Err(e) => panic!("database scan failed: {e}"),
    }
}

/// Fallible variant of [`scan_map_reduce`]: if the underlying scan fails
/// ([`SequenceScan::try_scan_blocks`] returns `Err`), in-flight worker
/// results are drained and discarded and the scan error is returned. No
/// partial per-block results escape — a failed scan yields `Err`, never a
/// shortened result vector.
pub fn try_scan_map_reduce<S, W, T>(
    db: &S,
    block_size: usize,
    threads: usize,
    inspect: &mut dyn FnMut(&SequenceBlock),
    make_scratch: &(dyn Fn() -> W + Sync),
    map: &(dyn Fn(&mut W, usize, &SequenceBlock) -> T + Sync),
) -> Result<Vec<T>, ScanError>
where
    S: SequenceScan + ?Sized,
    T: Send,
{
    crate::obs::parallel_scan_workers().set(threads.max(1) as f64);
    if threads <= 1 {
        let mut results = Vec::new();
        let mut scratch = make_scratch();
        db.try_scan_blocks(block_size, &mut |block| {
            inspect(&block);
            crate::obs::parallel_scan_blocks().inc();
            crate::obs::scan_sequences().add(block.len() as u64);
            let idx = results.len();
            results.push(map(&mut scratch, idx, &block));
            block
        })?;
        return Ok(results);
    }

    // Everything the scoped threads borrow must be declared before the
    // scope (its implicit join happens after the closure body returns).
    let (work_tx, work_rx) = mpsc::sync_channel::<(usize, SequenceBlock)>(threads * 2);
    let work_rx = Mutex::new(work_rx);
    let (done_tx, done_rx) = mpsc::channel::<(usize, T, SequenceBlock)>();
    let mut slots: Vec<Option<T>> = Vec::new();
    let mut scanned: Result<(), ScanError> = Ok(());
    std::thread::scope(|scope| {
        for _ in 0..threads {
            let done_tx = done_tx.clone();
            let work_rx = &work_rx;
            scope.spawn(move || {
                let mut scratch = make_scratch();
                loop {
                    // Lock scoped to the recv: workers contend only on the
                    // hand-off, not while mapping.
                    let received = work_rx.lock().expect("scan worker panicked").recv();
                    let Ok((idx, block)) = received else { break };
                    let value = map(&mut scratch, idx, &block);
                    if done_tx.send((idx, value, block)).is_err() {
                        break;
                    }
                }
            });
        }
        // Workers hold their own clones; drop ours so `done_rx` disconnects
        // once they all finish.
        drop(done_tx);

        let mut next = 0usize;
        let mut completed = 0usize;
        let mut spare: Vec<SequenceBlock> = Vec::new();
        scanned = db.try_scan_blocks(block_size, &mut |block| {
            inspect(&block);
            crate::obs::parallel_scan_blocks().inc();
            crate::obs::scan_sequences().add(block.len() as u64);
            work_tx
                .send((next, block))
                .expect("scan workers exited early");
            next += 1;
            // Opportunistically collect finished results and recycle their
            // blocks back into the scan.
            while let Ok((idx, value, recycled)) = done_rx.try_recv() {
                store(&mut slots, idx, value);
                completed += 1;
                spare.push(recycled);
            }
            crate::obs::parallel_reduce_queue_peak().set_max((next - completed) as f64);
            spare.pop().unwrap_or_default()
        });
        // Closing the work channel ends the worker loops; drain whatever is
        // still in flight (even after a failed scan, so workers shut down
        // cleanly before the scope's implicit join).
        drop(work_tx);
        for (idx, value, _) in done_rx.iter() {
            store(&mut slots, idx, value);
        }
    });
    scanned?;
    Ok(slots
        .into_iter()
        .map(|slot| slot.expect("scan worker produced no result for a block"))
        .collect())
}

fn store<T>(slots: &mut Vec<Option<T>>, idx: usize, value: T) {
    if slots.len() <= idx {
        slots.resize_with(idx + 1, || None);
    }
    slots[idx] = Some(value);
}

/// Sum over all sequences of each pattern's sequence match, computed with
/// up to `threads` worker threads. Returns sums (not means) aligned with
/// `patterns`. The accumulation grouping is fixed by [`CHUNK_SIZE`], not by
/// the thread count, so every thread count produces bit-identical results.
/// Equivalent to [`sum_sequence_matches_kernel`] with the default kernel.
pub fn sum_sequence_matches(
    patterns: &[Pattern],
    sequences: &[Vec<Symbol>],
    matrix: &CompatibilityMatrix,
    threads: usize,
) -> Vec<f64> {
    sum_sequence_matches_kernel(patterns, sequences, matrix, threads, MatchKernel::default())
}

/// [`sum_sequence_matches`] with an explicit [`MatchKernel`] choice.
///
/// With [`MatchKernel::Trie`] the pattern batch is loaded into one
/// [`CandidateTrie`] shared read-only by every worker (each with private
/// scratch). Per-(pattern, sequence) values are bit-identical to
/// [`sequence_match`] and the [`CHUNK_SIZE`] accumulation grouping is
/// unchanged, so both kernels produce bit-identical sums at every thread
/// count.
pub fn sum_sequence_matches_kernel(
    patterns: &[Pattern],
    sequences: &[Vec<Symbol>],
    matrix: &CompatibilityMatrix,
    threads: usize,
    kernel: MatchKernel,
) -> Vec<f64> {
    let p = patterns.len();
    if p == 0 || sequences.is_empty() {
        return vec![0.0; p];
    }
    let trie = match kernel {
        MatchKernel::Naive => None,
        MatchKernel::Trie | MatchKernel::Simd => {
            crate::obs::kernel_patterns_per_scan().set(p as f64);
            Some(CandidateTrie::new(patterns))
        }
    };
    // One reusable evaluation context per worker thread.
    let make_eval = || EvalContext::new(patterns, matrix, trie.as_ref(), kernel);
    let threads = threads.max(1).min(sequences.len().div_ceil(CHUNK_SIZE));
    if threads == 1 || p * sequences.len() < PARALLEL_THRESHOLD {
        // Serial path, but with the *same* chunked accumulation grouping as
        // the parallel path, so every thread count produces bit-identical
        // sums (floating-point addition is not associative).
        let mut eval = make_eval();
        let mut totals = vec![0.0f64; p];
        let mut partial = vec![0.0f64; p];
        for chunk in sequences.chunks(CHUNK_SIZE) {
            partial.fill(0.0);
            eval.accumulate(chunk, &mut partial);
            for (t, &v) in totals.iter_mut().zip(&partial) {
                *t += v;
            }
        }
        return totals;
    }

    let chunks: Vec<&[Vec<Symbol>]> = sequences.chunks(CHUNK_SIZE).collect();
    let num_chunks = chunks.len();
    let next = AtomicUsize::new(0);
    let mut partials: Vec<Vec<f64>> = vec![Vec::new(); num_chunks];
    {
        let partial_slots: Vec<std::sync::Mutex<&mut Vec<f64>>> =
            partials.iter_mut().map(std::sync::Mutex::new).collect();
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| {
                    let mut eval = make_eval();
                    loop {
                        let idx = next.fetch_add(1, Ordering::Relaxed);
                        if idx >= num_chunks {
                            break;
                        }
                        let mut totals = vec![0.0f64; p];
                        eval.accumulate(chunks[idx], &mut totals);
                        **partial_slots[idx]
                            .lock()
                            .expect("match-evaluation worker panicked") = totals;
                    }
                });
            }
        });
    }

    // Ordered reduction: chunk 0 + chunk 1 + … regardless of which thread
    // produced each.
    let mut totals = vec![0.0f64; p];
    for partial in &partials {
        for (t, &v) in totals.iter_mut().zip(partial) {
            *t += v;
        }
    }
    totals
}

/// One worker's evaluation state: either the naive per-pattern loop or a
/// shared [`CandidateTrie`] plus this worker's private scratch.
enum EvalContext<'a> {
    Naive {
        patterns: &'a [Pattern],
        matrix: &'a CompatibilityMatrix,
    },
    Trie {
        trie: &'a CandidateTrie,
        matrix: &'a CompatibilityMatrix,
        scratch: crate::match_kernel::TrieScratch,
    },
    Simd {
        trie: &'a CandidateTrie,
        matrix: &'a CompatibilityMatrix,
        scratch: crate::match_kernel::simd::SimdScratch,
        out: Vec<f64>,
    },
}

impl<'a> EvalContext<'a> {
    fn new(
        patterns: &'a [Pattern],
        matrix: &'a CompatibilityMatrix,
        trie: Option<&'a CandidateTrie>,
        kernel: MatchKernel,
    ) -> Self {
        match trie {
            None => Self::Naive { patterns, matrix },
            Some(trie) if kernel == MatchKernel::Simd => Self::Simd {
                trie,
                matrix,
                scratch: trie.simd_scratch(),
                out: vec![0.0; trie.num_patterns()],
            },
            Some(trie) => Self::Trie {
                trie,
                matrix,
                scratch: trie.scratch(),
            },
        }
    }

    /// Adds each pattern's sequence match over `sequences` into `totals`,
    /// in sequence order — the same addition order for both variants.
    fn accumulate(&mut self, sequences: &[Vec<Symbol>], totals: &mut [f64]) {
        match self {
            Self::Naive { patterns, matrix } => {
                for seq in sequences {
                    for (total, pattern) in totals.iter_mut().zip(*patterns) {
                        *total += sequence_match(pattern, seq, matrix);
                    }
                }
            }
            Self::Trie {
                trie,
                matrix,
                scratch,
            } => {
                // Adds only the patterns each sequence matched: `x += 0.0`
                // leaves a non-negative total's bits unchanged.
                for seq in sequences {
                    trie.batch_sequence_match_sum(seq, matrix, scratch, totals);
                }
            }
            Self::Simd {
                trie,
                matrix,
                scratch,
                out,
            } => {
                for seq in sequences {
                    trie.batch_sequence_match_columnar(seq, matrix, scratch, out);
                    for (total, &v) in totals.iter_mut().zip(out.iter()) {
                        *total += v;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Alphabet;

    fn workload() -> (Vec<Pattern>, Vec<Vec<Symbol>>, CompatibilityMatrix) {
        let a = Alphabet::synthetic(6);
        let patterns: Vec<Pattern> = (0..6u16)
            .flat_map(|x| {
                (0..6u16).map(move |y| Pattern::contiguous(&[Symbol(x), Symbol(y)]).unwrap())
            })
            .collect();
        let sequences: Vec<Vec<Symbol>> = (0..500)
            .map(|i| {
                (0..40)
                    .map(|j| Symbol(((i * 7 + j * 3) % 6) as u16))
                    .collect()
            })
            .collect();
        let _ = a;
        let matrix = CompatibilityMatrix::uniform_noise(6, 0.2).unwrap();
        (patterns, sequences, matrix)
    }

    #[test]
    fn parallel_equals_serial_bit_for_bit() {
        let (patterns, sequences, matrix) = workload();
        let serial = sum_sequence_matches(&patterns, &sequences, &matrix, 1);
        for threads in [2, 3, 8] {
            let parallel = sum_sequence_matches(&patterns, &sequences, &matrix, threads);
            assert_eq!(serial, parallel, "threads = {threads}");
        }
    }

    #[test]
    fn agrees_with_direct_computation() {
        let (patterns, sequences, matrix) = workload();
        let sums = sum_sequence_matches(&patterns, &sequences, &matrix, 4);
        for (p, &s) in patterns.iter().zip(&sums).take(5) {
            let direct: f64 = sequences
                .iter()
                .map(|seq| sequence_match(p, seq, &matrix))
                .sum();
            assert!((s - direct).abs() < 1e-9, "{p}");
        }
    }

    #[test]
    fn empty_inputs() {
        let (_, sequences, matrix) = workload();
        assert!(sum_sequence_matches(&[], &sequences, &matrix, 4).is_empty());
        let (patterns, _, matrix2) = workload();
        assert_eq!(
            sum_sequence_matches(&patterns, &[], &matrix2, 4),
            vec![0.0; patterns.len()]
        );
    }

    #[test]
    fn small_work_takes_serial_path() {
        let (patterns, sequences, matrix) = workload();
        let tiny = &sequences[..2];
        let v = sum_sequence_matches(&patterns[..2], tiny, &matrix, 8);
        assert_eq!(v.len(), 2);
    }

    #[test]
    fn scan_map_reduce_returns_results_in_block_order() {
        let db = crate::matching::MemorySequences(
            (0..1000u16).map(|i| vec![Symbol(i % 6); 2]).collect(),
        );
        for threads in [1, 2, 3, 8] {
            let mut inspected = Vec::new();
            let ids = scan_map_reduce(
                &db,
                64,
                threads,
                &mut |block| inspected.push(block.get(0).0),
                &|| (),
                &|_, _, block| block.iter().map(|(id, _)| id).collect::<Vec<u64>>(),
            );
            let flat: Vec<u64> = ids.into_iter().flatten().collect();
            assert_eq!(
                flat,
                (0..1000u64).collect::<Vec<_>>(),
                "threads = {threads}"
            );
            // `inspect` saw every block first symbol, in scan order.
            assert_eq!(inspected, (0..1000u64).step_by(64).collect::<Vec<_>>());
        }
    }

    #[test]
    fn scan_map_reduce_serial_and_parallel_agree_bitwise() {
        let (_, sequences, matrix) = workload();
        let db = crate::matching::MemorySequences(sequences);
        let pattern = Pattern::contiguous(&[Symbol(1), Symbol(2)]).unwrap();
        let run = |threads: usize| -> Vec<f64> {
            scan_map_reduce(
                &db,
                SCAN_BLOCK_SIZE,
                threads,
                &mut |_| {},
                &|| (),
                &|_, _, block| {
                    block
                        .iter()
                        .map(|(_, seq)| sequence_match(&pattern, seq, &matrix))
                        .sum::<f64>()
                },
            )
        };
        let serial = run(1);
        for threads in [2, 4, 16] {
            assert_eq!(serial, run(threads), "threads = {threads}");
        }
    }

    #[test]
    fn scan_map_reduce_on_empty_db() {
        let db = crate::matching::MemorySequences(Vec::new());
        let out = scan_map_reduce(&db, 8, 4, &mut |_| {}, &|| (), &|_, _, block| block.len());
        assert!(out.is_empty());
    }
}
