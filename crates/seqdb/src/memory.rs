//! In-memory sequence database with scan accounting.

use std::sync::atomic::{AtomicUsize, Ordering};

use noisemine_core::matching::SequenceScan;
use noisemine_core::Symbol;

/// An in-memory sequence database.
///
/// Unlike the bare [`noisemine_core::matching::MemorySequences`], this type
/// assigns stable sequence ids and counts how many full scans have been
/// performed — the paper's principal cost metric (Figures 14(b), 15(a)).
#[derive(Debug, Default)]
pub struct MemoryDb {
    sequences: Vec<(u64, Vec<Symbol>)>,
    scans: AtomicUsize,
}

impl MemoryDb {
    /// Creates an empty database.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a database from sequences, assigning ids `0..n`.
    pub fn from_sequences<I: IntoIterator<Item = Vec<Symbol>>>(sequences: I) -> Self {
        Self {
            sequences: sequences
                .into_iter()
                .enumerate()
                .map(|(i, s)| (i as u64, s))
                .collect(),
            scans: AtomicUsize::new(0),
        }
    }

    /// Appends a sequence, returning its id.
    pub fn push(&mut self, sequence: Vec<Symbol>) -> u64 {
        let id = self.sequences.len() as u64;
        self.sequences.push((id, sequence));
        id
    }

    /// Number of full scans performed so far.
    pub fn scans_performed(&self) -> usize {
        self.scans.load(Ordering::Relaxed)
    }

    /// Resets the scan counter (e.g. between benchmark runs).
    pub fn reset_scans(&self) {
        self.scans.store(0, Ordering::Relaxed);
    }

    /// The stored sequences with their ids.
    pub fn sequences(&self) -> &[(u64, Vec<Symbol>)] {
        &self.sequences
    }

    /// Looks up a sequence by id (ids are dense, so this is an index).
    pub fn get(&self, id: u64) -> Option<&[Symbol]> {
        self.sequences.get(id as usize).map(|(_, s)| s.as_slice())
    }

    /// Total number of symbol positions across all sequences.
    pub fn total_symbols(&self) -> usize {
        self.sequences.iter().map(|(_, s)| s.len()).sum()
    }

    /// Average sequence length (`l̄` in the paper's complexity analysis).
    pub fn mean_length(&self) -> f64 {
        if self.sequences.is_empty() {
            0.0
        } else {
            self.total_symbols() as f64 / self.sequences.len() as f64
        }
    }
}

impl SequenceScan for MemoryDb {
    fn num_sequences(&self) -> usize {
        self.sequences.len()
    }

    fn scan(&self, visit: &mut dyn FnMut(u64, &[Symbol])) {
        self.scans.fetch_add(1, Ordering::Relaxed);
        for (id, seq) in &self.sequences {
            visit(*id, seq);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn syms(v: &[u16]) -> Vec<Symbol> {
        v.iter().map(|&x| Symbol(x)).collect()
    }

    #[test]
    fn scan_visits_in_order_and_counts() {
        let db = MemoryDb::from_sequences(vec![syms(&[0, 1]), syms(&[2])]);
        assert_eq!(db.num_sequences(), 2);
        let mut seen = Vec::new();
        db.scan(&mut |id, s| seen.push((id, s.to_vec())));
        assert_eq!(seen, vec![(0, syms(&[0, 1])), (1, syms(&[2]))]);
        assert_eq!(db.scans_performed(), 1);
        db.scan(&mut |_, _| {});
        assert_eq!(db.scans_performed(), 2);
        db.reset_scans();
        assert_eq!(db.scans_performed(), 0);
    }

    #[test]
    fn push_assigns_dense_ids() {
        let mut db = MemoryDb::new();
        assert_eq!(db.push(syms(&[1])), 0);
        assert_eq!(db.push(syms(&[2, 3])), 1);
        assert_eq!(db.get(1), Some(syms(&[2, 3]).as_slice()));
        assert_eq!(db.get(9), None);
    }

    #[test]
    fn scan_blocks_streams_in_order_and_counts() {
        let data: Vec<Vec<Symbol>> = (0..7u16).map(|i| syms(&[i])).collect();
        let db = MemoryDb::from_sequences(data.clone());
        let mut seen = Vec::new();
        let mut sizes = Vec::new();
        db.try_scan_blocks(3, &mut |block| {
            sizes.push(block.len());
            for (id, s) in block.iter() {
                seen.push((id, s.to_vec()));
            }
            block
        })
        .unwrap();
        assert_eq!(sizes, vec![3, 3, 1]);
        let expected: Vec<(u64, Vec<Symbol>)> = data
            .iter()
            .enumerate()
            .map(|(i, s)| (i as u64, s.clone()))
            .collect();
        assert_eq!(seen, expected);
        assert_eq!(db.scans_performed(), 1);
    }

    #[test]
    fn length_statistics() {
        let db = MemoryDb::from_sequences(vec![syms(&[0, 1, 2]), syms(&[3])]);
        assert_eq!(db.total_symbols(), 4);
        assert!((db.mean_length() - 2.0).abs() < 1e-12);
        assert_eq!(MemoryDb::new().mean_length(), 0.0);
    }
}
