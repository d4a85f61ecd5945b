//! The deterministic block-scan map-reduce behind every multi-sequence
//! match evaluation: the phase-1 symbol-match scan, the phase-2 sample
//! match, and the phase-3 probe scans.
//!
//! [`try_scan_map_reduce`] cuts a [`SequenceScan`] into blocks of a fixed
//! size, computes per-block results on worker threads, and hands the caller
//! the results **in block order**, so any fold over them is bit-identical
//! at every thread count (including 1): floating-point addition is not
//! associative, and block boundaries are a constant, not a function of the
//! thread count. Order-sensitive work (sequential sampling, visit counting)
//! runs on the in-order block stream before the fan-out.

use std::sync::{mpsc, Mutex};

use crate::error::ScanError;
use crate::matching::{SequenceBlock, SequenceScan};

/// Sequences per block when phase 2 evaluates its in-memory sample. A
/// constant so that the accumulation grouping (and thus every sample match)
/// does not depend on the thread count.
pub const CHUNK_SIZE: usize = 64;

/// Sequences per block of a full-database scan (phases 1 and 3). Like
/// [`CHUNK_SIZE`], this is a constant so the per-block accumulation
/// grouping — and with it every floating-point result derived from a block
/// scan — is independent of machine, thread count, and backing store.
pub const SCAN_BLOCK_SIZE: usize = 256;

/// Work size (patterns × sequences) below which an automatic thread count
/// (`0`) runs the match scans on the calling thread — thread startup costs
/// more than it saves.
pub const PARALLEL_THRESHOLD: usize = 50_000;

/// Resolves a thread-count knob: `0` means all available cores.
pub fn resolve_threads(threads: usize) -> usize {
    if threads == 0 {
        std::thread::available_parallelism().map_or(1, |t| t.get())
    } else {
        threads
    }
}

/// Runs a deterministic map-reduce over the blocks of one scan.
///
/// - `inspect` runs on the scanning thread — the calling thread, which
///   reads the store and assembles the blocks itself through
///   [`SequenceScan::try_scan_blocks`] — in block order, *before* the
///   block is handed to a worker — the hook for order-sensitive work
///   (sequential sampling, visit counting, scan accounting).
/// - `map` runs on a worker with that worker's private scratch value (from
///   `make_scratch`) and the block's zero-based index in scan order,
///   producing one `T` per block. The index gives the ordinal of the
///   block's first sequence (`index * block_size`) — the addressing scheme
///   of [`crate::index::SkipPlan`].
///
/// Returns the per-block results **in block order**, regardless of which
/// worker produced each or when. Block boundaries are fixed by
/// `block_size`, so the caller's fold over the results is bit-identical for
/// every thread count. At most `threads` workers run, and never more than
/// the reported [`SequenceScan::num_sequences`] fills blocks (at least
/// one); with a single worker everything runs on the calling thread with
/// the same block grouping. The worker count never changes a result, so a
/// stale report can only cost speed. Blocks circulate by value — worker →
/// scanner → refill — so the steady state allocates nothing and never
/// copies a sequence out of its block.
///
/// If the underlying scan fails ([`SequenceScan::try_scan_blocks`] returns
/// `Err`), in-flight worker results are drained and discarded and the scan
/// error is returned: a failed scan yields `Err`, never a shortened result
/// vector.
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
    let blocks = db.num_sequences().div_ceil(block_size.max(1));
    let threads = threads.min(blocks).max(1);
    crate::obs::parallel_scan_workers().set(threads as f64);
    if threads == 1 {
        let mut results = Vec::new();
        let mut scratch = make_scratch();
        db.try_scan_blocks(block_size, &mut |block| {
            inspect(&block);
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matching::{sequence_match, MemorySequences};
    use crate::matrix::CompatibilityMatrix;
    use crate::pattern::Pattern;
    use crate::Symbol;

    /// [`try_scan_map_reduce`] over an in-memory store, which cannot fail.
    fn scan<W, T: Send>(
        db: &MemorySequences,
        block_size: usize,
        threads: usize,
        inspect: &mut dyn FnMut(&SequenceBlock),
        make_scratch: &(dyn Fn() -> W + Sync),
        map: &(dyn Fn(&mut W, usize, &SequenceBlock) -> T + Sync),
    ) -> Vec<T> {
        try_scan_map_reduce(db, block_size, threads, inspect, make_scratch, map)
            .expect("in-memory scans cannot fail")
    }

    #[test]
    fn scan_map_reduce_returns_results_in_block_order() {
        let db = MemorySequences((0..1000u16).map(|i| vec![Symbol(i % 6); 2]).collect());
        for threads in [1, 2, 3, 8] {
            let mut inspected = Vec::new();
            let ids = scan(
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
        let sequences: Vec<Vec<Symbol>> = (0..500)
            .map(|i| {
                (0..40)
                    .map(|j| Symbol(((i * 7 + j * 3) % 6) as u16))
                    .collect()
            })
            .collect();
        let db = MemorySequences(sequences);
        let matrix = CompatibilityMatrix::uniform_noise(6, 0.2).unwrap();
        let pattern = Pattern::contiguous(&[Symbol(1), Symbol(2)]).unwrap();
        let run = |threads: usize| -> Vec<f64> {
            scan(
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
        let db = MemorySequences(Vec::new());
        let out = scan(&db, 8, 4, &mut |_| {}, &|| (), &|_, _, block| block.len());
        assert!(out.is_empty());
    }
}
