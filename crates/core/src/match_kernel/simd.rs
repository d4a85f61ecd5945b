//! Columnar SIMD evaluation of a [`CandidateTrie`] batch: 8 windows per
//! step, compatibility columns gathered into per-symbol stripes.
//!
//! # Layout
//!
//! The trie kernel walks one window at a time; its inner loop is a chain of
//! scalar f64 multiplies with a data-dependent branch per node. This module
//! transposes the work: for each distinct concrete symbol `t` in the batch,
//! a *stripe* `stripe_t[pos] = C(t, S[pos])` is gathered once per sequence
//! (lazily — a stripe is built only when a surviving trie path first
//! touches it), zero-padded past the sequence end. The window loop then
//! advances **eight windows at once**: the same depth-first trie walk, but
//! each node multiplies a vector of eight running products by eight
//! contiguous stripe entries instead of one. On x86-64 with AVX2 the eight
//! lanes are two `__m256d` registers; everywhere else (and under
//! [`FORCE_SCALAR_ENV`] or Miri) a portable scalar loop performs the
//! identical arithmetic.
//!
//! # Value contract: [`SIMD_MAX_ULP`]
//!
//! Per window, products are multiplied in the same left-to-right order as
//! [`sequence_match`](crate::matching::sequence_match), and the max over
//! windows is order-independent for the non-negative finite values the
//! match metric produces — so the kernel does not merely approximate the
//! trie kernel, it reproduces it: the documented tolerance
//! [`SIMD_MAX_ULP`] is **zero** and the property suite
//! (`tests/property_simd.rs`) asserts exact bit-identity of both the AVX2
//! and the scalar path against the trie oracle. The constant exists as the
//! public contract so that a future layout that *does* reorder multiplies
//! (e.g. log-domain accumulation) has a named bound to widen, with callers
//! already coded against it.
//!
//! # Pruning
//!
//! The trie's exact best-window floor (Claim 3.1 monotonicity lifted to
//! subtrees) carries over at *chunk* granularity: a subtree is cut when
//! **all eight** lane products are at or below the subtree floor — every
//! lane could only shrink further, so no descendant's best can improve.
//! Windows that run past the sequence end multiply by the stripe's zero
//! padding; windows too late for a given pattern length are masked out of
//! the terminal max (`n + 1 − len` valid windows), which also keeps
//! trailing-`*` patterns exact.
//!
//! # Observability
//!
//! With the [`noisemine_obs`] registry enabled the kernel reports, besides
//! the shared `core_kernel_*` counters: sequences evaluated per path
//! (`core_simd_sequences_total`, `core_simd_scalar_fallback_total`) and
//! lane occupancy (`core_simd_lane_slots_total`,
//! `core_simd_lanes_filled_total`, ratio in `core_simd_lane_occupancy`).
//! A scratch collects these per sequence and adds them to the registry
//! when it drops, so a scan's counts appear when its scratch is done.
//! See `docs/OBSERVABILITY.md`.

use std::sync::OnceLock;

use super::{CandidateTrie, PreNode, NO_PATTERN, NO_STRIPE};
use crate::alphabet::Symbol;
use crate::matrix::CompatibilityMatrix;

/// Windows advanced per vector step (two `__m256d` of f64 on AVX2).
pub const LANES: usize = 8;

/// Maximum ULP distance between a columnar-kernel result and the
/// bit-exact trie/naive result. Zero: the kernel preserves the per-window
/// multiplication order and max over windows is order-independent for
/// non-negative finite f64, so results are bit-identical (enforced by
/// `tests/property_simd.rs`). Kept as a named constant so any future
/// reordering layout widens a documented contract instead of silently
/// changing values.
pub const SIMD_MAX_ULP: u32 = 0;

/// Environment variable forcing the portable scalar path even on AVX2
/// hosts (any non-empty value other than `"0"`). Read once per process —
/// the CI forced-fallback lane sets it for a full test-suite run.
pub const FORCE_SCALAR_ENV: &str = "NOISEMINE_FORCE_SCALAR";

/// `true` when [`MatchKernel::Simd`](super::MatchKernel::Simd) will run the
/// AVX2 path in this process: the host supports AVX2+FMA, the build is not
/// under Miri, and [`FORCE_SCALAR_ENV`] is not set. Cached after the first
/// call.
pub fn simd_active() -> bool {
    static ACTIVE: OnceLock<bool> = OnceLock::new();
    *ACTIVE.get_or_init(|| {
        let forced = std::env::var_os(FORCE_SCALAR_ENV).is_some_and(|v| !v.is_empty() && v != "0");
        !forced && avx2_available()
    })
}

#[cfg(all(not(miri), target_arch = "x86_64"))]
fn avx2_available() -> bool {
    std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
}

/// Miri has no SIMD intrinsics (and non-x86 hosts no AVX2): the scalar
/// path — plain safe Rust — is what those configurations execute, which is
/// exactly what makes the columnar layout Miri-checkable.
#[cfg(any(miri, not(target_arch = "x86_64")))]
fn avx2_available() -> bool {
    false
}

/// Per-thread state for the columnar kernel: best/floor (same invariants
/// as [`TrieScratch`](super::TrieScratch)), the lazily built compatibility
/// stripes, and the per-depth lane buffers of the current DFS path. Also
/// accumulates work counters so callers can inspect the kernel without the
/// metrics registry.
#[derive(Debug, Clone)]
pub struct SimdScratch {
    best: Vec<f64>,
    floor: Vec<f64>,
    /// Patterns whose best left zero this sequence; the reset zeroes only
    /// these instead of memsetting `best` (the memsets, not the walk,
    /// dominate per-sequence cost on sparse matrices).
    best_dirty: Vec<u32>,
    /// Nodes whose floor left zero this sequence (same reset strategy).
    floor_dirty: Vec<u32>,
    /// `stripe_syms.len()` rows of `stride` entries each;
    /// `stripes[r * stride + pos] = C(stripe_syms[r], seq[pos])`, zero past
    /// the sequence end.
    stripes: Vec<f64>,
    stripe_built: Vec<bool>,
    stride: usize,
    /// `(max_depth + 2)` rows of [`LANES`] running products: row 0 is the
    /// constant 1.0 seed, row `d + 1` holds the products of the node at
    /// depth `d` on the current DFS path.
    bufs: Vec<f64>,
    /// Trie nodes expanded (one count per 8-window vector visit).
    pub nodes_visited: u64,
    /// Subtrees cut because every lane fell to the subtree floor.
    pub prunes: u64,
    /// Total window-lane slots across all chunks processed.
    pub lane_slots: u64,
    /// Slots that held a real window (the rest were tail padding).
    pub lanes_filled: u64,
    /// Sequences evaluated on the AVX2 path.
    pub simd_sequences: u64,
    /// Sequences evaluated on the portable scalar path.
    pub scalar_sequences: u64,
    /// Metric deltas not yet added to the registry.
    pending: PendingObs,
}

impl SimdScratch {
    /// Adds one sequence's work counts to the public counters and to the
    /// deltas flushed into the registry when the scratch drops.
    fn record(&mut self, nodes_visited: u64, prunes: u64, lane_slots: u64, lanes_filled: u64) {
        self.nodes_visited += nodes_visited;
        self.prunes += prunes;
        self.lane_slots += lane_slots;
        self.lanes_filled += lanes_filled;
        let p = &mut self.pending;
        p.nodes_visited += nodes_visited;
        p.prunes += prunes;
        p.lane_slots += lane_slots;
        p.lanes_filled += lanes_filled;
    }
}

/// The columnar kernel's metric deltas since its scratch was made. The
/// kernel counts six metrics per sequence; adding them to the shared
/// atomics once, when the scratch drops (after a scan block, a phase scan
/// or a request), keeps atomic operations out of the per-sequence path. A
/// clone starts empty, so no delta is flushed twice.
#[derive(Debug, Default)]
struct PendingObs {
    simd_sequences: u64,
    scalar_sequences: u64,
    nodes_visited: u64,
    prunes: u64,
    lane_slots: u64,
    lanes_filled: u64,
}

impl Clone for PendingObs {
    fn clone(&self) -> Self {
        Self::default()
    }
}

impl Drop for PendingObs {
    fn drop(&mut self) {
        if !noisemine_obs::enabled() {
            return;
        }
        crate::obs::simd_sequences().add(self.simd_sequences);
        crate::obs::simd_scalar_fallback().add(self.scalar_sequences);
        crate::obs::kernel_nodes_visited().add(self.nodes_visited);
        crate::obs::kernel_prunes().add(self.prunes);
        crate::obs::simd_lane_slots().add(self.lane_slots);
        crate::obs::simd_lanes_filled().add(self.lanes_filled);
        if self.lane_slots > 0 {
            crate::obs::simd_lane_occupancy()
                .set(self.lanes_filled as f64 / self.lane_slots as f64);
        }
    }
}

impl CandidateTrie {
    /// Allocates columnar-kernel scratch sized for this trie. Reuse it
    /// across sequences of a scan; sharing one trie across threads requires
    /// one scratch per thread.
    pub fn simd_scratch(&self) -> SimdScratch {
        SimdScratch {
            best: vec![0.0; self.patterns],
            floor: vec![0.0; self.nodes.len()],
            best_dirty: Vec::new(),
            floor_dirty: Vec::new(),
            stripes: Vec::new(),
            stripe_built: vec![false; self.stripe_syms.len()],
            stride: 0,
            bufs: vec![0.0; (self.max_depth as usize + 2) * LANES],
            nodes_visited: 0,
            prunes: 0,
            lane_slots: 0,
            lanes_filled: 0,
            simd_sequences: 0,
            scalar_sequences: 0,
            pending: PendingObs::default(),
        }
    }

    /// Columnar counterpart of
    /// [`batch_sequence_match`](Self::batch_sequence_match): computes
    /// `out[i] = sequence_match(patterns[i], sequence, matrix)` for the
    /// whole batch, eight windows per step. Dispatches to AVX2 when
    /// [`simd_active`], otherwise to the portable scalar walk; both produce
    /// results within [`SIMD_MAX_ULP`] (= 0, i.e. bit-identical) of the
    /// trie kernel.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != self.num_patterns()` in debug builds; a
    /// shorter `out` panics on indexing in all builds.
    pub fn batch_sequence_match_columnar(
        &self,
        sequence: &[Symbol],
        matrix: &CompatibilityMatrix,
        scratch: &mut SimdScratch,
        out: &mut [f64],
    ) {
        debug_assert_eq!(out.len(), self.patterns);
        self.columnar_walk(sequence, matrix, scratch);
        out.copy_from_slice(&scratch.best);
        for &(dup, canon) in &self.dups {
            out[dup as usize] = out[canon as usize];
        }
    }

    /// Accumulating variant for database scans: `acc[i] += match(i)` for
    /// every pattern, returning whether any value was non-zero. Only
    /// patterns whose best left zero this sequence are touched — adding
    /// `+0.0` is a bitwise no-op on the non-negative partials these scans
    /// accumulate, so the skipped additions cannot change a single bit,
    /// while on sparse matrices they are the vast majority of the batch.
    pub fn batch_sequence_match_columnar_sum(
        &self,
        sequence: &[Symbol],
        matrix: &CompatibilityMatrix,
        scratch: &mut SimdScratch,
        acc: &mut [f64],
    ) -> bool {
        debug_assert_eq!(acc.len(), self.patterns);
        self.columnar_walk(sequence, matrix, scratch);
        for &pi in &scratch.best_dirty {
            acc[pi as usize] += scratch.best[pi as usize];
        }
        for &(dup, canon) in &self.dups {
            acc[dup as usize] += scratch.best[canon as usize];
        }
        !scratch.best_dirty.is_empty()
    }

    /// The portable scalar columnar walk — the exact arithmetic of the
    /// AVX2 path in plain safe Rust. Public so the property suite and the
    /// Miri job can pin this path regardless of host features; production
    /// callers use [`Self::batch_sequence_match_columnar`], which prefers
    /// AVX2.
    pub fn batch_sequence_match_columnar_scalar(
        &self,
        sequence: &[Symbol],
        matrix: &CompatibilityMatrix,
        scratch: &mut SimdScratch,
        out: &mut [f64],
    ) {
        debug_assert_eq!(out.len(), self.patterns);
        scratch.scalar_sequences += 1;
        scratch.pending.scalar_sequences += 1;
        self.columnar_scalar(sequence, matrix, scratch);
        out.copy_from_slice(&scratch.best);
        for &(dup, canon) in &self.dups {
            out[dup as usize] = out[canon as usize];
        }
    }

    /// Runs the columnar walk on the preferred path (AVX2 when
    /// [`simd_active`], scalar otherwise), leaving per-pattern bests in
    /// `scratch.best` and the touched patterns in `scratch.best_dirty`.
    fn columnar_walk(
        &self,
        sequence: &[Symbol],
        matrix: &CompatibilityMatrix,
        scratch: &mut SimdScratch,
    ) {
        #[cfg(all(not(miri), target_arch = "x86_64"))]
        if simd_active() {
            scratch.simd_sequences += 1;
            scratch.pending.simd_sequences += 1;
            // SAFETY: `simd_active()` verified AVX2+FMA at runtime.
            unsafe { self.columnar_avx2(sequence, matrix, scratch) };
            return;
        }
        scratch.scalar_sequences += 1;
        scratch.pending.scalar_sequences += 1;
        self.columnar_scalar(sequence, matrix, scratch);
    }

    /// Resets per-sequence state and returns the number of chunk-base
    /// windows, or `None` when nothing can match (empty batch handled by
    /// the caller).
    fn columnar_reset(&self, scratch: &mut SimdScratch, n: usize) -> Option<usize> {
        // Zero only what the previous sequence dirtied — full fills of
        // `best` and `floor` would cost more than the pruned walk itself.
        for pi in scratch.best_dirty.drain(..) {
            scratch.best[pi as usize] = 0.0;
        }
        for ni in scratch.floor_dirty.drain(..) {
            scratch.floor[ni as usize] = 0.0;
        }
        let min_len = self.min_len as usize;
        if min_len == 0 || n < min_len {
            return None;
        }
        // Stripe rows must cover every load `w0 + depth + lane`; the bound
        // below is `(nw - 1) + max_depth + LANES` rounded up. Rows are not
        // pre-zeroed: `build_stripe` writes every slot of a row it builds,
        // and unbuilt rows are never read.
        scratch.stride = n + self.max_depth as usize + LANES;
        scratch
            .stripes
            .resize(self.stripe_syms.len() * scratch.stride, 0.0);
        scratch.stripe_built.fill(false);
        scratch.bufs[..LANES].fill(1.0);
        Some(n + 1 - min_len)
    }

    /// Gathers the compatibility stripe for row `sr` of `scratch.stripes`.
    fn build_stripe(
        &self,
        sr: usize,
        sequence: &[Symbol],
        matrix: &CompatibilityMatrix,
        scratch: &mut SimdScratch,
    ) {
        let sym = Symbol(self.stripe_syms[sr]);
        let row = &mut scratch.stripes[sr * scratch.stride..(sr + 1) * scratch.stride];
        let (body, tail) = row.split_at_mut(sequence.len());
        for (slot, &obs) in body.iter_mut().zip(sequence) {
            *slot = matrix.get(sym, obs);
        }
        // Zero padding past the sequence end: off-end window positions
        // multiply to 0, matching the trie walk's skip. Written here (not
        // pre-zeroed in reset) so reuse never re-zeroes untouched rows.
        tail.fill(0.0);
        scratch.stripe_built[sr] = true;
    }

    /// Records `m`, above the current best, as the best window of the
    /// pattern ending at `pn` and raises the floors above it. Returns 1 if
    /// the pattern just reached a perfect match, else 0.
    #[inline]
    fn improve(&self, scratch: &mut SimdScratch, pn: PreNode, m: f64) -> usize {
        let pi = pn.pattern as usize;
        let old = scratch.best[pi];
        if old == 0.0 {
            scratch.best_dirty.push(pi as u32);
        }
        scratch.best[pi] = m;
        self.raise_floors(
            pn.node,
            old,
            &scratch.best,
            &mut scratch.floor,
            &mut scratch.floor_dirty,
        );
        usize::from(old < 1.0 && m >= 1.0)
    }

    /// The scalar columnar walk over one sequence. Fills `scratch.best`;
    /// the caller copies it out and aliases duplicates.
    fn columnar_scalar(
        &self,
        sequence: &[Symbol],
        matrix: &CompatibilityMatrix,
        scratch: &mut SimdScratch,
    ) {
        if self.patterns == 0 {
            return;
        }
        let n = sequence.len();
        let Some(nw) = self.columnar_reset(scratch, n) else {
            return;
        };
        let distinct = self.patterns - self.dups.len();
        let mut saturated = 0usize;
        let mut nodes_visited = 0u64;
        let mut prunes = 0u64;
        let mut lane_slots = 0u64;
        let mut lanes_filled = 0u64;

        'chunks: for w0 in (0..nw).step_by(LANES) {
            lane_slots += LANES as u64;
            lanes_filled += LANES.min(nw - w0) as u64;
            // Stackless DFS: `pre` is the trie in visit order, pruning a
            // subtree jumps straight past it.
            let mut i = 0usize;
            while i < self.pre.len() {
                let pn = self.pre[i];
                let d = pn.depth as usize;
                nodes_visited += 1;
                let sr = pn.stripe;
                if sr != NO_STRIPE && !scratch.stripe_built[sr as usize] {
                    self.build_stripe(sr as usize, sequence, matrix, scratch);
                }
                // Rows are disjoint: the parent's products live in row
                // `d` (+1 for the constant seed row), this node writes
                // row `d + 1`.
                let (up_rows, own_rows) = scratch.bufs.split_at_mut((d + 1) * LANES);
                let up = &up_rows[d * LANES..(d + 1) * LANES];
                let own = &mut own_rows[..LANES];
                if sr == NO_STRIPE {
                    // The eternal symbol: C(*, x) = 1, products unchanged
                    // (and, like the trie walk, no floor check here).
                    own.copy_from_slice(up);
                } else {
                    let base = sr as usize * scratch.stride + w0 + d;
                    let stripe = &scratch.stripes[base..base + LANES];
                    let fl = scratch.floor[pn.node as usize];
                    let mut alive = false;
                    for ((o, &u), &s) in own.iter_mut().zip(up).zip(stripe) {
                        let p = u * s;
                        *o = p;
                        alive |= p > fl;
                    }
                    if !alive {
                        // Every lane at or below the subtree floor: exact
                        // cut — each lane's product can only shrink.
                        prunes += 1;
                        i = pn.skip as usize;
                        continue;
                    }
                }
                if pn.pattern != NO_PATTERN {
                    let pi = pn.pattern as usize;
                    // Valid windows for a length-(d + 1) pattern: w < n - d.
                    let t = n.saturating_sub(d).saturating_sub(w0).min(LANES);
                    let mut m = scratch.best[pi];
                    for &p in &own[..t] {
                        if p > m {
                            m = p;
                        }
                    }
                    if m > scratch.best[pi] {
                        saturated += self.improve(scratch, pn, m);
                    }
                }
                i += 1;
            }
            if saturated == distinct {
                break 'chunks; // every candidate already has a perfect match
            }
        }

        scratch.record(nodes_visited, prunes, lane_slots, lanes_filled);
    }

    /// The AVX2 walk — identical control flow and arithmetic to
    /// [`Self::columnar_scalar`], with the eight lanes held in two
    /// `__m256d`. The hot loop uses unchecked indexing: at ~tens of
    /// surviving nodes per sequence, slice bounds checks were the dominant
    /// per-node cost (the scalar twin keeps checked slices and the property
    /// suite pins the two paths bit-identical, so an index bug here cannot
    /// ship silently — ASan and the oracle suite both trip on it).
    ///
    /// # Safety
    ///
    /// The caller must have verified AVX2 (and FMA) support, e.g. via
    /// [`simd_active`]. In-bounds invariants of the unchecked accesses,
    /// all established by [`CandidateTrie::new`] and
    /// [`Self::columnar_reset`]:
    /// - `i < pre.len()` is the loop condition, and every `skip` target is
    ///   `<= pre.len()`; `pre[i].node` is a valid id into `floor`
    ///   (sized to `nodes.len()`);
    /// - `stripe != NO_STRIPE` indexes `stripe_syms`/`stripe_built`, sized
    ///   together;
    /// - rows `d` and `d + 1` of `bufs` exist because `depth <= max_depth`
    ///   and `bufs` holds `max_depth + 2` rows;
    /// - stripe loads at `sr * stride + w0 + d .. + LANES` fit because
    ///   `w0 <= n - min_len`, `d <= max_depth`, `min_len >= 1`, and
    ///   `stride = n + max_depth + LANES`.
    #[cfg(all(not(miri), target_arch = "x86_64"))]
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn columnar_avx2(
        &self,
        sequence: &[Symbol],
        matrix: &CompatibilityMatrix,
        scratch: &mut SimdScratch,
    ) {
        use std::arch::x86_64::*;

        if self.patterns == 0 {
            return;
        }
        let n = sequence.len();
        let Some(nw) = self.columnar_reset(scratch, n) else {
            return;
        };
        let distinct = self.patterns - self.dups.len();
        let mut saturated = 0usize;
        let mut nodes_visited = 0u64;
        let mut prunes = 0u64;
        let mut lane_slots = 0u64;
        let mut lanes_filled = 0u64;
        // Lane-index vectors for the terminal window mask: lane `l` is a
        // valid window iff `l < t`.
        let idx_lo = _mm256_set_pd(3.0, 2.0, 1.0, 0.0);
        let idx_hi = _mm256_set_pd(7.0, 6.0, 5.0, 4.0);

        'chunks: for w0 in (0..nw).step_by(LANES) {
            lane_slots += LANES as u64;
            lanes_filled += LANES.min(nw - w0) as u64;
            // Stackless DFS over the preorder array; prune = jump past the
            // subtree. The array is read near-sequentially, which is most
            // of the speedup over the pointer-chasing stack walk.
            let mut i = 0usize;
            while i < self.pre.len() {
                let pn = *self.pre.get_unchecked(i);
                let d = pn.depth as usize;
                nodes_visited += 1;
                let sr = pn.stripe;
                if sr != NO_STRIPE && !*scratch.stripe_built.get_unchecked(sr as usize) {
                    self.build_stripe(sr as usize, sequence, matrix, scratch);
                }
                // Pointers taken after `build_stripe` (which may touch
                // `scratch`), never across iterations; `stripes`/`bufs` are
                // not resized inside the walk.
                let bufs = scratch.bufs.as_mut_ptr();
                let up = bufs.add(d * LANES);
                let own = bufs.add((d + 1) * LANES);
                let (p_lo, p_hi);
                if sr == NO_STRIPE {
                    p_lo = _mm256_loadu_pd(up);
                    p_hi = _mm256_loadu_pd(up.add(4));
                    _mm256_storeu_pd(own, p_lo);
                    _mm256_storeu_pd(own.add(4), p_hi);
                } else {
                    let stripe = scratch
                        .stripes
                        .as_ptr()
                        .add(sr as usize * scratch.stride + w0 + d);
                    let u_lo = _mm256_loadu_pd(up);
                    let u_hi = _mm256_loadu_pd(up.add(4));
                    let s_lo = _mm256_loadu_pd(stripe);
                    let s_hi = _mm256_loadu_pd(stripe.add(4));
                    p_lo = _mm256_mul_pd(u_lo, s_lo);
                    p_hi = _mm256_mul_pd(u_hi, s_hi);
                    let fl = _mm256_set1_pd(*scratch.floor.get_unchecked(pn.node as usize));
                    let alive = _mm256_movemask_pd(_mm256_cmp_pd::<_CMP_GT_OQ>(p_lo, fl))
                        | _mm256_movemask_pd(_mm256_cmp_pd::<_CMP_GT_OQ>(p_hi, fl));
                    if alive == 0 {
                        prunes += 1;
                        i = pn.skip as usize;
                        continue;
                    }
                    _mm256_storeu_pd(own, p_lo);
                    _mm256_storeu_pd(own.add(4), p_hi);
                }
                if pn.pattern != NO_PATTERN {
                    let pi = pn.pattern as usize;
                    let t = n.saturating_sub(d).saturating_sub(w0).min(LANES);
                    if t > 0 {
                        let mx = if t >= LANES {
                            // Full chunk (every lane a valid window) — the
                            // common case needs no tail masking.
                            _mm256_max_pd(p_lo, p_hi)
                        } else {
                            // Zero the invalid tail lanes (products are
                            // >= 0, so zeros never win the max).
                            let tv = _mm256_set1_pd(t as f64);
                            let m_lo = _mm256_and_pd(p_lo, _mm256_cmp_pd::<_CMP_LT_OQ>(idx_lo, tv));
                            let m_hi = _mm256_and_pd(p_hi, _mm256_cmp_pd::<_CMP_LT_OQ>(idx_hi, tv));
                            _mm256_max_pd(m_lo, m_hi)
                        };
                        let half =
                            _mm_max_pd(_mm256_castpd256_pd128(mx), _mm256_extractf128_pd::<1>(mx));
                        let m = _mm_cvtsd_f64(_mm_max_sd(half, _mm_unpackhi_pd(half, half)));
                        if m > scratch.best[pi] {
                            saturated += self.improve(scratch, pn, m);
                        }
                    }
                }
                i += 1;
            }
            if saturated == distinct {
                break 'chunks;
            }
        }

        scratch.record(nodes_visited, prunes, lane_slots, lanes_filled);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alphabet::Alphabet;
    use crate::matching::sequence_match;
    use crate::pattern::Pattern;

    fn pat(text: &str) -> Pattern {
        Pattern::parse(text, &Alphabet::synthetic(5)).unwrap()
    }

    fn seq(text: &str) -> Vec<Symbol> {
        Alphabet::synthetic(5).encode(text).unwrap()
    }

    /// Both columnar paths (auto-dispatch and pinned-scalar) must be
    /// bit-identical to the naive oracle.
    fn assert_columnar_matches_naive(
        patterns: &[Pattern],
        sequence: &[Symbol],
        matrix: &CompatibilityMatrix,
    ) {
        let trie = CandidateTrie::new(patterns);
        let mut scratch = trie.simd_scratch();
        let mut auto_out = vec![f64::NAN; patterns.len()];
        trie.batch_sequence_match_columnar(sequence, matrix, &mut scratch, &mut auto_out);
        let mut scalar_out = vec![f64::NAN; patterns.len()];
        trie.batch_sequence_match_columnar_scalar(sequence, matrix, &mut scratch, &mut scalar_out);
        for (i, p) in patterns.iter().enumerate() {
            let want = sequence_match(p, sequence, matrix);
            assert!(
                auto_out[i] == want,
                "{p}: columnar {} != naive {want}",
                auto_out[i]
            );
            assert!(
                scalar_out[i].to_bits() == want.to_bits(),
                "{p}: scalar columnar {} != naive {want}",
                scalar_out[i]
            );
        }
    }

    #[test]
    fn agrees_with_naive_on_paper_database() {
        let matrix = CompatibilityMatrix::paper_figure2();
        let patterns = vec![
            pat("d0"),
            pat("d0 d1"),
            pat("d0 d1 d1"),
            pat("d0 * d1"),
            pat("d1 d0"),
            pat("d2 d0 d1"),
            pat("d4 d4"),
        ];
        for text in ["d0 d1 d1 d2 d3 d0", "d2 d0 d1", "d0 d0", "d1"] {
            assert_columnar_matches_naive(&patterns, &seq(text), &matrix);
        }
    }

    #[test]
    fn long_sequences_cross_chunk_boundaries() {
        // > LANES windows: the chunk loop runs several full + one partial
        // vector, exercising the tail masking.
        let matrix = CompatibilityMatrix::paper_figure2();
        let patterns = vec![pat("d0 d1"), pat("d1 * d1"), pat("d2 d3 d0 d1")];
        let s: Vec<Symbol> = (0..37u16).map(|i| Symbol((i * 3 + 1) % 5)).collect();
        assert_columnar_matches_naive(&patterns, &s, &matrix);
    }

    #[test]
    fn interior_wildcards_and_short_windows_are_exact() {
        // Patterns may not start/end with `*` (type invariant), so the
        // deepest element of every terminal path is concrete and off-end
        // windows die on the stripe's zero padding; interior `*`s copy the
        // parent lane row untouched. Both interplay with the terminal
        // window mask here.
        let matrix = CompatibilityMatrix::paper_figure2();
        let patterns = vec![pat("d0 * d1"), pat("d0 * * d2"), pat("d1 d0")];
        for text in ["d0 d1", "d0 d1 d2", "d1 d0", "d0", "d0 d3 d1 d3 d2"] {
            assert_columnar_matches_naive(&patterns, &seq(text), &matrix);
        }
    }

    #[test]
    fn pattern_longer_than_sequence_yields_zero() {
        let matrix = CompatibilityMatrix::paper_figure2();
        let patterns = vec![pat("d0 d1 d2 d3"), pat("d0")];
        assert_columnar_matches_naive(&patterns, &seq("d0 d1"), &matrix);
    }

    #[test]
    fn empty_sequence_and_empty_trie() {
        let matrix = CompatibilityMatrix::paper_figure2();
        let patterns = vec![pat("d0"), pat("d1 d2")];
        let trie = CandidateTrie::new(&patterns);
        let mut out = vec![1.0; 2];
        trie.batch_sequence_match_columnar(&[], &matrix, &mut trie.simd_scratch(), &mut out);
        assert_eq!(out, vec![0.0, 0.0]);

        let empty = CandidateTrie::new(&[]);
        let mut none: Vec<f64> = Vec::new();
        empty.batch_sequence_match_columnar(
            &seq("d0 d1"),
            &matrix,
            &mut empty.simd_scratch(),
            &mut none,
        );
    }

    #[test]
    fn duplicates_alias_and_scratch_reuse_is_clean() {
        let matrix = CompatibilityMatrix::paper_figure2();
        let patterns = vec![pat("d0 d1"), pat("d2"), pat("d0 d1")];
        let trie = CandidateTrie::new(&patterns);
        let mut scratch = trie.simd_scratch();
        let mut out = vec![0.0; 3];
        // High-match sequence first: bests/floors/stripes must not leak.
        trie.batch_sequence_match_columnar(&seq("d0 d1 d0"), &matrix, &mut scratch, &mut out);
        let s2 = seq("d4 d4");
        trie.batch_sequence_match_columnar(&s2, &matrix, &mut scratch, &mut out);
        for (p, &got) in patterns.iter().zip(&out) {
            assert_eq!(got, sequence_match(p, &s2, &matrix), "{p}");
        }
        assert_eq!(out[0], out[2], "duplicate must alias its canonical");
        assert!(scratch.nodes_visited > 0);
        assert!(scratch.lane_slots >= scratch.lanes_filled);
    }

    #[test]
    fn chunk_pruning_fires_on_repetitive_sequences() {
        let matrix = CompatibilityMatrix::paper_figure2();
        let patterns = vec![pat("d1 d1"), pat("d1 d1 d1")];
        let trie = CandidateTrie::new(&patterns);
        let mut scratch = trie.simd_scratch();
        let mut out = vec![0.0; 2];
        let s: Vec<Symbol> = std::iter::repeat_n(Symbol(1), 64).collect();
        trie.batch_sequence_match_columnar(&s, &matrix, &mut scratch, &mut out);
        for (p, &got) in patterns.iter().zip(&out) {
            assert_eq!(got, sequence_match(p, &s, &matrix), "{p}");
        }
    }

    #[test]
    fn scalar_and_auto_paths_count_their_sequences() {
        let matrix = CompatibilityMatrix::paper_figure2();
        let trie = CandidateTrie::new(&[pat("d0 d1")]);
        let mut scratch = trie.simd_scratch();
        let mut out = vec![0.0; 1];
        let s = seq("d0 d1 d2");
        trie.batch_sequence_match_columnar(&s, &matrix, &mut scratch, &mut out);
        trie.batch_sequence_match_columnar_scalar(&s, &matrix, &mut scratch, &mut out);
        assert_eq!(scratch.simd_sequences + scratch.scalar_sequences, 2);
        assert!(scratch.scalar_sequences >= 1);
        if simd_active() {
            assert_eq!(scratch.simd_sequences, 1);
        }
    }

    #[test]
    fn pending_metrics_match_the_counters_and_a_clone_starts_empty() {
        let matrix = CompatibilityMatrix::paper_figure2();
        let trie = CandidateTrie::new(&[pat("d0 d1"), pat("d1 * d1")]);
        let mut scratch = trie.simd_scratch();
        let mut out = vec![0.0; 2];
        for text in ["d0 d1 d1 d2 d3 d0", "d1 d0 d1"] {
            trie.batch_sequence_match_columnar(&seq(text), &matrix, &mut scratch, &mut out);
        }
        trie.batch_sequence_match_columnar_scalar(&seq("d0 d1"), &matrix, &mut scratch, &mut out);
        let p = &scratch.pending;
        assert_eq!(
            (p.simd_sequences, p.scalar_sequences),
            (scratch.simd_sequences, scratch.scalar_sequences)
        );
        assert_eq!(
            (p.nodes_visited, p.prunes, p.lane_slots, p.lanes_filled),
            (
                scratch.nodes_visited,
                scratch.prunes,
                scratch.lane_slots,
                scratch.lanes_filled
            )
        );
        assert!(p.nodes_visited > 0 && p.lane_slots > 0);
        // Both scratches flush when dropped: only the original may carry
        // the deltas, or they would be counted twice.
        let copy = scratch.clone();
        assert_eq!(copy.pending.nodes_visited, 0);
        assert_eq!(
            copy.pending.simd_sequences + copy.pending.scalar_sequences,
            0
        );
        assert_eq!(copy.nodes_visited, scratch.nodes_visited);
    }
}
