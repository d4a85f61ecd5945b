//! Batched candidate-trie match kernel (Definitions 3.5/3.6 at scale).
//!
//! Every phase of the miner bottlenecks on the same primitive: evaluate
//! `M(P, S) = max over windows of ∏ C(pᵢ, sᵢ)` for *many* candidate
//! patterns against *every* sequence. Phase 2 evaluates whole candidate
//! levels against the sample, and phase 3's border collapsing probes entire
//! lattice layers per scan. Evaluating each pattern independently with
//! [`sequence_match`](crate::matching::sequence_match) redoes identical
//! prefix products for candidates that share prefixes — and by Apriori
//! generation ([`crate::candidates::next_level`] extends each survivor on
//! the right) almost all candidates in a level share long prefixes.
//!
//! [`CandidateTrie`] stores an arbitrary batch of patterns keyed by shared
//! prefixes, and [`CandidateTrie::batch_sequence_match`] walks each window
//! of a sequence **once**, maintaining the incremental prefix product down
//! the trie so a prefix shared by `k` candidates is multiplied once instead
//! of `k` times.
//!
//! # Pruning, and why the kernel is bit-identical to the naive path
//!
//! Compatibility values never exceed 1 (each column of the matrix is a
//! conditional distribution), so the running product down a trie path is
//! non-increasing — the monotonicity behind Claim 3.1's Apriori property,
//! reused here at window granularity. Each trie node carries a *floor*: the
//! minimum best-window-so-far over every candidate in its subtree. When the
//! running product falls to (or below) the floor, no candidate below can
//! improve on a window it has already seen, and the entire subtree is cut
//! for this window. This is exactly the per-pattern abandonment of
//! [`sequence_match`](crate::matching::sequence_match) lifted to subtrees,
//! and — like it — the cut is *exact*, never heuristic: a pruned window
//! could only have produced a value `<=` an already-recorded one.
//!
//! The cheapest cut is structural. A child whose true symbol is
//! incompatible with the observed one has product 0, which is at or below
//! every floor, so the walk never offers it at all: siblings are stored
//! sorted by symbol, and when a sibling list is longer than the non-zero
//! support of the observed symbol's column
//! ([`CompatibilityMatrix::column`]), the children are found by a binary
//! search per column entry and the compatibility comes from that entry.
//! On the sparse matrices of the paper's large-alphabet regimes (two of 20
//! symbols in the Fig-14 partner channel, ≈0.5% of a 1 000-item catalog)
//! this skips almost every child; a `*` child is always expanded.
//!
//! Because a pattern's product is multiplied in the same left-to-right
//! order as the naive scan and a window's maximum does not depend on the
//! order its patterns are visited in, every per-pattern result is
//! **bit-identical** to `sequence_match` (floating-point multiplication
//! order and max order are preserved, not merely mathematically
//! equivalent). The naive path is kept as a reference oracle, selectable
//! with [`MatchKernel::Naive`].
//!
//! Per-sequence cost follows the work done, not the batch width: `best`
//! and `floor` are reset through dirty lists, a floor raise stops at the
//! first ancestor whose floor another candidate holds, and database scans
//! accumulate through
//! [`CandidateTrie::batch_sequence_match_sum`], which adds only the
//! patterns a sequence matched.
//!
//! # Observability
//!
//! With the [`noisemine_obs`] registry enabled, the kernel counts trie
//! nodes visited (`core_kernel_nodes_visited_total`) and subtree cuts at a
//! floor (`core_kernel_prunes_total`). A zero-compatibility child is never
//! offered, so it counts in neither. The batch width of each
//! kernel-evaluated scan is tracked by `core_kernel_patterns_per_scan`. See
//! `docs/OBSERVABILITY.md`.

pub mod simd;

use serde::{Deserialize, Serialize};

use crate::alphabet::Symbol;
use crate::matrix::CompatibilityMatrix;
use crate::pattern::{Pattern, PatternElem};

/// Which implementation evaluates multi-pattern match batches.
///
/// All kernels produce the same values on every input (asserted by the
/// property suites and the `match_kernel` bench): `Naive` and `Trie` are
/// bit-identical by construction, and `Simd` preserves the same
/// multiplication order per window, so its results agree within
/// [`simd::SIMD_MAX_ULP`] (currently zero — see `simd` module docs). The
/// naive path is retained as a reference oracle and for ablation
/// benchmarks. Every product path (the CLI, streaming, serving) uses the
/// default `Trie`; `Naive` and `Simd` are library and benchmark paths only.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum MatchKernel {
    /// Evaluate each pattern independently with
    /// [`sequence_match`](crate::matching::sequence_match).
    Naive,
    /// Batched candidate-trie kernel: one window walk per sequence,
    /// shared-prefix products, subtree pruning.
    #[default]
    Trie,
    /// Columnar kernel: 8 sequence windows per vector lane group, matrix
    /// columns gathered into per-symbol stripes, AVX2 on capable x86-64
    /// hosts with a portable scalar fallback (see [`simd`]).
    Simd,
}

impl MatchKernel {
    /// Short human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            Self::Naive => "naive",
            Self::Trie => "trie",
            Self::Simd => "simd",
        }
    }
}

/// Sentinel: node has no terminal pattern.
const NO_PATTERN: u32 = u32::MAX;
/// Sentinel: node has no parent (it is a root).
const NO_PARENT: u32 = u32::MAX;
/// Element id for the eternal symbol inside a node — the largest id, so a
/// `*` child always sorts after its concrete siblings.
const ANY_ELEM: u32 = u32::MAX;
/// Sentinel stripe index: node consumes the eternal symbol (no stripe).
const NO_STRIPE: u32 = u32::MAX;

/// One trie node, laid out for the window walk: its depth (window offset),
/// its parent (for floor propagation), an optional terminal pattern index,
/// and a contiguous child range in [`CandidateTrie::children`]. The element
/// it consumes lives in [`CandidateTrie::child_elems`].
#[derive(Debug, Clone)]
struct TrieNode {
    /// Window offset consumed by this node (root = 0).
    depth: u32,
    /// Parent node index, [`NO_PARENT`] for roots.
    parent: u32,
    /// Terminal pattern index, [`NO_PATTERN`] if none ends here.
    pattern: u32,
    /// Start of the child range in `children`.
    child_start: u32,
    /// End (exclusive) of the child range in `children`.
    child_end: u32,
}

/// A batch of candidate patterns stored as a prefix trie.
///
/// The trie is immutable after construction and holds no per-evaluation
/// state, so one trie can be shared by any number of worker threads; each
/// worker brings its own [`TrieScratch`].
#[derive(Debug, Clone)]
pub struct CandidateTrie {
    nodes: Vec<TrieNode>,
    /// Flat child adjacency: the roots own `children[..num_roots]`, every
    /// node owns `children[child_start..child_end]`. Each sibling range is
    /// sorted by element, so a `*` child comes last.
    children: Vec<u32>,
    /// `child_elems[i]` is the element of `children[i]` — the sorted
    /// sibling keys the column-driven expansion binary-searches, stored
    /// beside `children` so a lookup never loads a [`TrieNode`].
    child_elems: Vec<u32>,
    /// Number of root nodes (depth 0), one per distinct leading element.
    num_roots: u32,
    /// `(duplicate, canonical)` pattern-index pairs: a duplicate pattern
    /// shares the canonical's terminal node and copies its result.
    dups: Vec<(u32, u32)>,
    patterns: usize,
    /// Distinct concrete symbols across the batch — one compatibility
    /// stripe per entry in the columnar kernel (see [`simd`]); per-node
    /// stripe indices live in [`PreNode::stripe`].
    stripe_syms: Vec<u16>,
    /// Shortest terminal pattern length (0 when the trie has no patterns);
    /// windows past `n + 1 - min_len` cannot complete any pattern.
    min_len: u32,
    /// Deepest node depth — the columnar kernel's stripe padding bound.
    max_depth: u32,
    /// Preorder flattening of the trie for the columnar kernel's stackless
    /// walk: visiting slots in order is a DFS, and pruning a subtree is a
    /// jump to its `skip` slot. One contiguous read stream instead of a
    /// stack plus scattered `nodes`/`children` loads.
    pre: Vec<PreNode>,
}

/// One slot of [`CandidateTrie::pre`]: the hot per-node metadata of the
/// columnar walk, packed in visit order.
#[derive(Debug, Clone, Copy)]
struct PreNode {
    /// Node id — indexes `nodes` (for the raise-floors parent walk) and the
    /// scratch floor array.
    node: u32,
    /// Preorder slot just past this node's subtree — where a pruned walk
    /// resumes.
    skip: u32,
    /// Stripe row, [`NO_STRIPE`] for `*` nodes.
    stripe: u32,
    /// Pattern index, [`NO_PATTERN`] for interior nodes.
    pattern: u32,
    /// Node depth: the walk multiplies lane-buffer row `depth` into row
    /// `depth + 1`.
    depth: u32,
}

/// Intermediate adjacency used only during construction.
struct BuildNode {
    /// Concrete symbol id, or [`ANY_ELEM`] for `*`.
    elem: u32,
    depth: u32,
    parent: u32,
    pattern: u32,
    /// `(elem, node)` pairs, kept sorted by element.
    children: Vec<(u32, u32)>,
}

impl CandidateTrie {
    /// Builds a trie over `patterns`. Pattern indices in every evaluation
    /// output are aligned with this slice. Duplicate patterns are allowed —
    /// each occupies its own output slot (the first duplicate owns the
    /// terminal marker, the rest alias its result), so a batch with
    /// repeats still returns one value per input pattern.
    pub fn new(patterns: &[Pattern]) -> Self {
        let mut nodes: Vec<BuildNode> = Vec::new();
        let mut roots: Vec<(u32, u32)> = Vec::new();
        let mut dups: Vec<(u32, u32)> = Vec::new();
        // `path[d]` is the node the previous pattern reached at depth `d`.
        // Batches usually arrive in lexicographic order (Apriori levels),
        // so a pattern resumes below the prefix it shares with the previous
        // one instead of searching from the roots.
        let mut path: Vec<u32> = Vec::new();
        let mut prev: &[PatternElem] = &[];
        for (pi, pattern) in patterns.iter().enumerate() {
            let elems = pattern.elems();
            let shared = elems.iter().zip(prev).take_while(|(a, b)| a == b).count();
            path.truncate(shared);
            let mut at: Option<u32> = path.last().copied();
            for (depth, e) in elems.iter().enumerate().skip(shared) {
                let elem = match e {
                    PatternElem::Any => ANY_ELEM,
                    PatternElem::Sym(s) => s.0 as u32,
                };
                // Siblings stay sorted, so finding (or placing) a child is
                // a binary search rather than a scan of every sibling.
                let fresh = nodes.len() as u32;
                let siblings = match at {
                    None => &mut roots,
                    Some(n) => &mut nodes[n as usize].children,
                };
                let next = match siblings.binary_search_by_key(&elem, |&(e, _)| e) {
                    Ok(i) => siblings[i].1,
                    Err(i) => {
                        siblings.insert(i, (elem, fresh));
                        fresh
                    }
                };
                if next == fresh {
                    nodes.push(BuildNode {
                        elem,
                        depth: depth as u32,
                        parent: at.unwrap_or(NO_PARENT),
                        pattern: NO_PATTERN,
                        children: Vec::new(),
                    });
                }
                path.push(next);
                at = Some(next);
            }
            prev = elems;
            let terminal = at.expect("patterns are non-empty") as usize;
            if nodes[terminal].pattern == NO_PATTERN {
                nodes[terminal].pattern = pi as u32;
            } else {
                dups.push((pi as u32, nodes[terminal].pattern));
            }
        }

        // Flatten the roots and the per-node child vectors into one
        // contiguous array, with the sibling elements beside it.
        let mut children = Vec::with_capacity(nodes.len());
        let mut child_elems = Vec::with_capacity(nodes.len());
        let mut flatten = |sorted: &[(u32, u32)]| {
            for &(e, c) in sorted {
                child_elems.push(e);
                children.push(c);
            }
            children.len() as u32
        };
        let num_roots = flatten(&roots);
        let mut flat = Vec::with_capacity(nodes.len());
        let mut child_start = num_roots;
        for n in &nodes {
            let child_end = flatten(&n.children);
            flat.push(TrieNode {
                depth: n.depth,
                parent: n.parent,
                pattern: n.pattern,
                child_start,
                child_end,
            });
            child_start = child_end;
        }
        // Columnar metadata: distinct concrete symbols (one compatibility
        // stripe each, numbered in node order through a symbol -> row
        // map), shortest terminal, deepest node.
        let sym_bound = nodes
            .iter()
            .filter(|n| n.elem != ANY_ELEM)
            .map(|n| n.elem as usize + 1)
            .max()
            .unwrap_or(0);
        let mut row_of = vec![NO_STRIPE; sym_bound];
        let mut stripe_syms: Vec<u16> = Vec::new();
        let stripe_of: Vec<u32> = nodes
            .iter()
            .map(|n| {
                if n.elem == ANY_ELEM {
                    return NO_STRIPE;
                }
                let row = &mut row_of[n.elem as usize];
                if *row == NO_STRIPE {
                    *row = stripe_syms.len() as u32;
                    stripe_syms.push(n.elem as u16);
                }
                *row
            })
            .collect();
        let min_len = flat
            .iter()
            .filter(|n| n.pattern != NO_PATTERN)
            .map(|n| n.depth + 1)
            .min()
            .unwrap_or(0);
        let max_depth = flat.iter().map(|n| n.depth).max().unwrap_or(0);
        let mut pre = Vec::with_capacity(flat.len());
        for &r in &children[..num_roots as usize] {
            Self::emit_preorder(r, &flat, &children, &stripe_of, &mut pre);
        }
        Self {
            nodes: flat,
            children,
            child_elems,
            num_roots,
            dups,
            patterns: patterns.len(),
            stripe_syms,
            min_len,
            max_depth,
            pre,
        }
    }

    /// Appends `ni`'s subtree to `pre` in preorder and backpatches each
    /// slot's prune jump. Recursion depth is the pattern length.
    fn emit_preorder(
        ni: u32,
        flat: &[TrieNode],
        children: &[u32],
        stripe_of: &[u32],
        pre: &mut Vec<PreNode>,
    ) {
        let slot = pre.len();
        let n = &flat[ni as usize];
        pre.push(PreNode {
            node: ni,
            skip: 0,
            stripe: stripe_of[ni as usize],
            pattern: n.pattern,
            depth: n.depth,
        });
        for &c in &children[n.child_start as usize..n.child_end as usize] {
            Self::emit_preorder(c, flat, children, stripe_of, pre);
        }
        pre[slot].skip = pre.len() as u32;
    }

    /// Number of patterns in the batch.
    pub fn num_patterns(&self) -> usize {
        self.patterns
    }

    /// Number of trie nodes — `sum of pattern lengths` minus the positions
    /// saved by prefix sharing.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Allocates evaluation scratch sized for this trie. Reuse it across
    /// sequences; sharing one trie across threads requires one scratch per
    /// thread.
    pub fn scratch(&self) -> TrieScratch {
        TrieScratch {
            best: vec![0.0; self.patterns],
            floor: vec![0.0; self.nodes.len()],
            best_dirty: Vec::new(),
            node_dirty: Vec::new(),
            stack: Vec::with_capacity(self.nodes.len().min(1024)),
            nodes_visited: 0,
            prunes: 0,
        }
    }

    /// Computes `out[i] = sequence_match(patterns[i], sequence, matrix)`
    /// for every pattern in the batch, walking each window of the sequence
    /// once. Results are bit-identical to per-pattern
    /// [`sequence_match`](crate::matching::sequence_match) (see the module
    /// docs for the argument).
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != self.num_patterns()` in debug builds; a
    /// shorter `out` panics on indexing in all builds.
    pub fn batch_sequence_match(
        &self,
        sequence: &[Symbol],
        matrix: &CompatibilityMatrix,
        scratch: &mut TrieScratch,
        out: &mut [f64],
    ) {
        debug_assert_eq!(out.len(), self.patterns);
        self.walk(sequence, matrix, scratch);
        out.copy_from_slice(&scratch.best);
        for &(dup, canon) in &self.dups {
            out[dup as usize] = out[canon as usize];
        }
    }

    /// Accumulating variant for database scans: `acc[i] += match(i)` for
    /// every pattern, returning whether any value was non-zero. Only the
    /// patterns this sequence matched are added — `x += 0.0` never changes
    /// the bits of the non-negative partials these scans accumulate, so
    /// skipping the zeros is exact, and the per-sequence cost follows the
    /// walk instead of the batch width.
    ///
    /// # Panics
    ///
    /// Panics if `acc.len() != self.num_patterns()` in debug builds; a
    /// shorter `acc` panics on indexing in all builds.
    pub fn batch_sequence_match_sum(
        &self,
        sequence: &[Symbol],
        matrix: &CompatibilityMatrix,
        scratch: &mut TrieScratch,
        acc: &mut [f64],
    ) -> bool {
        debug_assert_eq!(acc.len(), self.patterns);
        self.walk(sequence, matrix, scratch);
        for &pi in &scratch.best_dirty {
            acc[pi as usize] += scratch.best[pi as usize];
        }
        for &(dup, canon) in &self.dups {
            acc[dup as usize] += scratch.best[canon as usize];
        }
        !scratch.best_dirty.is_empty()
    }

    /// The window walk behind both entry points: leaves each distinct
    /// pattern's match in `scratch.best`, and every pattern whose best
    /// left zero in `scratch.best_dirty`.
    fn walk(&self, sequence: &[Symbol], matrix: &CompatibilityMatrix, scratch: &mut TrieScratch) {
        // Zero only what the previous sequence dirtied: the walk touches a
        // small part of a large batch on sparse matrices, and full fills
        // of `best` and `floor` would dominate its cost.
        for pi in scratch.best_dirty.drain(..) {
            scratch.best[pi as usize] = 0.0;
        }
        for ni in scratch.node_dirty.drain(..) {
            scratch.floor[ni as usize] = 0.0;
        }
        let n = sequence.len();
        let min_len = self.min_len as usize;
        if min_len == 0 || n < min_len {
            return; // no pattern, or no window long enough for any
        }
        let TrieScratch {
            best,
            floor,
            best_dirty,
            node_dirty,
            stack,
            ..
        } = scratch;
        // Only distinct patterns own terminal nodes; duplicates alias a
        // canonical slot after the walk and never saturate on their own.
        let distinct = self.patterns - self.dups.len();
        let mut saturated = 0usize;
        let mut expanded = 0u64;
        let mut prunes = 0u64;

        stack.clear();
        // Windows past `n - min_len` cannot complete any pattern.
        for w in 0..=n - min_len {
            self.push_children(
                0,
                self.num_roots,
                sequence[w],
                1.0,
                matrix,
                floor,
                stack,
                &mut prunes,
            );
            while let Some((ni, product)) = stack.pop() {
                expanded += 1;
                let node = &self.nodes[ni as usize];
                if node.pattern != NO_PATTERN {
                    let pi = node.pattern as usize;
                    let old = best[pi];
                    if product > old {
                        if old == 0.0 {
                            best_dirty.push(pi as u32);
                        }
                        if old < 1.0 && product >= 1.0 {
                            saturated += 1;
                        }
                        best[pi] = product;
                        self.raise_floors(ni, old, best, floor, node_dirty);
                    }
                }
                let pos = w + node.depth as usize + 1;
                if pos < n {
                    self.push_children(
                        node.child_start,
                        node.child_end,
                        sequence[pos],
                        product,
                        matrix,
                        floor,
                        stack,
                        &mut prunes,
                    );
                }
            }
            if saturated == distinct {
                break; // every candidate already has a perfect match
            }
        }

        // A node is visited when it is offered with a non-zero product:
        // it is then either cut at its floor or expanded.
        let nodes_visited = expanded + prunes;
        scratch.nodes_visited += nodes_visited;
        scratch.prunes += prunes;
        if noisemine_obs::enabled() {
            crate::obs::kernel_nodes_visited().add(nodes_visited);
            crate::obs::kernel_prunes().add(prunes);
        }
    }

    /// Offers the children in `children[start..end]` that `observed` can
    /// match, each with its running product `upstream * C(child, observed)`,
    /// and pushes those that survive their floor, in reverse so they pop in
    /// ascending element order.
    ///
    /// A child whose compatibility with `observed` is zero would carry the
    /// product 0, which is at or below every floor: it is never offered.
    /// When the siblings outnumber the non-zero entries of `observed`'s
    /// column, the column drives the expansion (one binary search of the
    /// sorted sibling elements per entry) and the other siblings are never
    /// touched; otherwise every sibling is looked up in the matrix. Both
    /// branches offer the same children with the same products in the same
    /// order.
    ///
    /// A concrete child whose product is at or below its floor is cut here
    /// rather than after popping: the floor cannot change in between,
    /// because only a terminal in the child's own subtree raises it, and
    /// the walk reaches none before popping the child. The eternal symbol
    /// (`C(*, x) = 1`) passes its product through uncut, like the naive
    /// scan.
    #[inline]
    #[allow(clippy::too_many_arguments)]
    fn push_children(
        &self,
        start: u32,
        end: u32,
        observed: Symbol,
        upstream: f64,
        matrix: &CompatibilityMatrix,
        floor: &[f64],
        stack: &mut Vec<(u32, f64)>,
        prunes: &mut u64,
    ) {
        let (start, end) = (start as usize, end as usize);
        if start == end {
            return;
        }
        let kids = &self.children[start..end];
        let elems = &self.child_elems[start..end];
        let mut concrete = kids.len();
        if elems[concrete - 1] == ANY_ELEM {
            concrete -= 1;
            stack.push((kids[concrete], upstream));
        }
        let mut offer = |kid: u32, c: f64| {
            let p = upstream * c;
            if p > floor[kid as usize] {
                stack.push((kid, p));
            } else {
                // Below every candidate's best in this subtree: exact cut
                // (the product can only shrink further).
                *prunes += 1;
            }
        };
        let column = matrix.column(observed);
        if concrete > column.len() {
            // Each column entry sits below the previous one's position, so
            // the search range shrinks as the column is walked downward.
            let mut hi = concrete;
            for &(sym, c) in column.iter().rev() {
                match elems[..hi].binary_search(&(sym.0 as u32)) {
                    Ok(i) => {
                        offer(kids[i], c);
                        hi = i;
                    }
                    Err(i) => hi = i,
                }
                if hi == 0 {
                    break;
                }
            }
        } else {
            for i in (0..concrete).rev() {
                let c = matrix.get(Symbol(elems[i] as u16), observed);
                if c > 0.0 {
                    offer(kids[i], c);
                }
            }
        }
    }

    /// Re-establishes the floor invariant (`floor[n]` = min best over
    /// terminal descendants of `n`, including `n` itself) after the best of
    /// the terminal at `node` rose from `old`, walking toward the root until
    /// a floor stops changing. Every node whose floor leaves zero goes to
    /// `dirty`, which resets `floor` for the next sequence.
    ///
    /// A floor below `old` is held by another terminal, whose best did not
    /// move, so neither it nor any ancestor's floor can change: the walk
    /// stops there without rescanning children. The columnar kernel raises
    /// through here too: its floors obey the same invariant.
    fn raise_floors(
        &self,
        node: u32,
        old: f64,
        best: &[f64],
        floor: &mut [f64],
        dirty: &mut Vec<u32>,
    ) {
        let mut ni = node;
        loop {
            let current = floor[ni as usize];
            if current < old {
                return;
            }
            let n = &self.nodes[ni as usize];
            let f = self.min_slot(n, best, floor);
            if f == current {
                return; // ancestors already see this minimum
            }
            if current == 0.0 {
                dirty.push(ni);
            }
            floor[ni as usize] = f;
            if n.parent == NO_PARENT {
                return;
            }
            ni = n.parent;
        }
    }

    /// The minimum over `n`'s slots: its own best if it is a terminal, and
    /// its children's floors.
    fn min_slot(&self, n: &TrieNode, best: &[f64], floor: &[f64]) -> f64 {
        let mut f = if n.pattern == NO_PATTERN {
            f64::INFINITY
        } else {
            best[n.pattern as usize]
        };
        for &c in &self.children[n.child_start as usize..n.child_end as usize] {
            let cf = floor[c as usize];
            if cf < f {
                f = cf;
            }
        }
        f
    }
}

/// Per-thread evaluation state for one [`CandidateTrie`]: best-window
/// values per pattern, per-node pruning floors, the dirty lists that reset
/// them, and the DFS stack. Also accumulates the kernel's work counters so
/// callers can inspect pruning effectiveness without the metrics registry.
#[derive(Debug, Clone)]
pub struct TrieScratch {
    best: Vec<f64>,
    floor: Vec<f64>,
    /// Patterns whose best left zero during the last sequence.
    best_dirty: Vec<u32>,
    /// Nodes whose floor left zero during the last sequence.
    node_dirty: Vec<u32>,
    /// DFS stack of `(node, running product including the node)`.
    stack: Vec<(u32, f64)>,
    /// Trie nodes reached with a non-zero product (expanded or cut at their
    /// floor) across all evaluations with this scratch; a child whose
    /// compatibility with the observed symbol is zero is never counted.
    pub nodes_visited: u64,
    /// Subtrees cut by the floor across all evaluations with this scratch.
    pub prunes: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alphabet::Alphabet;
    use crate::matching::sequence_match;

    fn pat(text: &str) -> Pattern {
        Pattern::parse(text, &Alphabet::synthetic(5)).unwrap()
    }

    fn seq(text: &str) -> Vec<Symbol> {
        Alphabet::synthetic(5).encode(text).unwrap()
    }

    fn assert_batch_matches_naive(
        patterns: &[Pattern],
        sequence: &[Symbol],
        matrix: &CompatibilityMatrix,
    ) {
        let trie = CandidateTrie::new(patterns);
        let mut scratch = trie.scratch();
        let mut out = vec![f64::NAN; patterns.len()];
        trie.batch_sequence_match(sequence, matrix, &mut scratch, &mut out);
        for (p, &got) in patterns.iter().zip(&out) {
            let want = sequence_match(p, sequence, matrix);
            assert!(
                got == want,
                "{p}: trie {got} != naive {want} (bit-identity broken)"
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
            assert_batch_matches_naive(&patterns, &seq(text), &matrix);
        }
    }

    #[test]
    fn empty_trie_is_a_no_op() {
        let trie = CandidateTrie::new(&[]);
        let mut scratch = trie.scratch();
        let mut out: Vec<f64> = Vec::new();
        trie.batch_sequence_match(
            &seq("d0 d1"),
            &CompatibilityMatrix::paper_figure2(),
            &mut scratch,
            &mut out,
        );
        assert_eq!(trie.num_patterns(), 0);
        assert_eq!(trie.num_nodes(), 0);
    }

    #[test]
    fn pattern_longer_than_sequence_yields_zero() {
        let matrix = CompatibilityMatrix::paper_figure2();
        let patterns = vec![pat("d0 d1 d2 d3"), pat("d0")];
        let s = seq("d0 d1");
        assert_batch_matches_naive(&patterns, &s, &matrix);
        let trie = CandidateTrie::new(&patterns);
        let mut out = vec![1.0; 2];
        trie.batch_sequence_match(&s, &matrix, &mut trie.scratch(), &mut out);
        assert_eq!(out[0], 0.0);
    }

    #[test]
    fn empty_sequence_yields_all_zero() {
        let matrix = CompatibilityMatrix::paper_figure2();
        let patterns = vec![pat("d0"), pat("d1 d2")];
        let trie = CandidateTrie::new(&patterns);
        let mut out = vec![1.0; 2];
        trie.batch_sequence_match(&[], &matrix, &mut trie.scratch(), &mut out);
        assert_eq!(out, vec![0.0, 0.0]);
    }

    #[test]
    fn wildcard_columns_share_prefix_nodes() {
        let matrix = CompatibilityMatrix::paper_figure2();
        // d0 * d1 and d0 * d2 share the "d0 *" prefix (2 nodes), then fork.
        let patterns = vec![pat("d0 * d1"), pat("d0 * d2"), pat("d0 * * d1")];
        let trie = CandidateTrie::new(&patterns);
        // Shared: d0, *; distinct: d1, d2, second *, final d1 -> 6 nodes.
        assert_eq!(trie.num_nodes(), 6);
        for text in ["d0 d3 d1 d4 d2", "d0 d0 d0 d0", "d3 d3"] {
            assert_batch_matches_naive(&patterns, &seq(text), &matrix);
        }
    }

    #[test]
    fn prefix_sharing_reduces_node_count() {
        // 4 patterns of length 3 with a common 2-prefix: 2 + 4 nodes.
        let patterns: Vec<Pattern> = (0..4u16)
            .map(|i| Pattern::contiguous(&[Symbol(0), Symbol(1), Symbol(i)]).unwrap())
            .collect();
        let trie = CandidateTrie::new(&patterns);
        assert_eq!(trie.num_nodes(), 6);
        assert_eq!(trie.num_patterns(), 4);
    }

    #[test]
    fn terminal_prefix_of_longer_pattern() {
        // d0 d1 is itself terminal AND the prefix of d0 d1 d2 — both must
        // report their own (different) match values.
        let matrix = CompatibilityMatrix::paper_figure2();
        let patterns = vec![pat("d0 d1"), pat("d0 d1 d2")];
        for text in ["d0 d1 d2 d0", "d0 d1", "d1 d0 d1 d2"] {
            assert_batch_matches_naive(&patterns, &seq(text), &matrix);
        }
    }

    #[test]
    fn identity_matrix_exact_hits() {
        let matrix = CompatibilityMatrix::identity(5);
        let patterns = vec![pat("d0 d1"), pat("d1 d1"), pat("d0 * d0")];
        for text in ["d0 d1 d1 d0", "d0 d2 d0", "d1 d1 d1"] {
            assert_batch_matches_naive(&patterns, &seq(text), &matrix);
        }
    }

    #[test]
    fn scratch_reuse_across_sequences_is_clean() {
        let matrix = CompatibilityMatrix::paper_figure2();
        let patterns = vec![pat("d0 d1"), pat("d1 d0"), pat("d2 d3 d1")];
        let trie = CandidateTrie::new(&patterns);
        let mut scratch = trie.scratch();
        let mut out = vec![0.0; 3];
        // A high-match sequence first: its bests/floors must not leak into
        // the evaluation of the later, low-match sequence.
        trie.batch_sequence_match(&seq("d0 d1 d0"), &matrix, &mut scratch, &mut out);
        let s2 = seq("d4 d4");
        trie.batch_sequence_match(&s2, &matrix, &mut scratch, &mut out);
        for (p, &got) in patterns.iter().zip(&out) {
            assert_eq!(got, sequence_match(p, &s2, &matrix), "{p}");
        }
        assert!(scratch.nodes_visited > 0);
    }

    #[test]
    fn pruning_fires_on_repetitive_sequences() {
        // A long repetitive sequence: after the first window establishes a
        // best, later windows with equal products are cut at the floor.
        let matrix = CompatibilityMatrix::paper_figure2();
        let patterns = vec![pat("d1 d1"), pat("d1 d1 d1")];
        let trie = CandidateTrie::new(&patterns);
        let mut scratch = trie.scratch();
        let mut out = vec![0.0; 2];
        let s: Vec<Symbol> = std::iter::repeat_n(Symbol(1), 64).collect();
        trie.batch_sequence_match(&s, &matrix, &mut scratch, &mut out);
        assert!(scratch.prunes > 0, "floor pruning never fired");
        for (p, &got) in patterns.iter().zip(&out) {
            assert_eq!(got, sequence_match(p, &s, &matrix), "{p}");
        }
    }

    #[test]
    fn kernel_names() {
        assert_eq!(MatchKernel::default(), MatchKernel::Trie);
        assert_eq!(MatchKernel::Trie.name(), "trie");
        assert_eq!(MatchKernel::Naive.name(), "naive");
        assert_eq!(MatchKernel::Simd.name(), "simd");
    }

    #[test]
    fn columnar_metadata_is_computed() {
        let patterns = vec![pat("d0 d1"), pat("d0 * d2"), pat("d1 d0 d3 d4")];
        let trie = CandidateTrie::new(&patterns);
        // Distinct concrete symbols: d0, d1, d2, d3, d4 (the `*` has none).
        assert_eq!(trie.stripe_syms.len(), 5);
        assert_eq!(trie.min_len, 2);
        assert_eq!(trie.max_depth, 3);
        let any_nodes = trie.pre.iter().filter(|pn| pn.stripe == NO_STRIPE).count();
        assert_eq!(any_nodes, 1);
    }

    #[test]
    fn zero_compatibility_children_are_never_visited() {
        // Column-driven siblings: under the identity, `d1` is compatible
        // only with itself, so of d0's four children only `d0 d1` is
        // expanded. The root `d0` and that child are the whole walk.
        let matrix = CompatibilityMatrix::identity(5);
        let patterns = vec![pat("d0 d1"), pat("d0 d2"), pat("d0 d3"), pat("d0 d4")];
        let trie = CandidateTrie::new(&patterns);
        let mut scratch = trie.scratch();
        let mut out = vec![0.0; patterns.len()];
        trie.batch_sequence_match(&seq("d0 d1"), &matrix, &mut scratch, &mut out);
        assert_eq!(out, vec![1.0, 0.0, 0.0, 0.0]);
        assert_eq!((scratch.nodes_visited, scratch.prunes), (2, 0));

        // Matrix-lookup siblings: `d1`'s column has two entries and d0 has
        // two children, so each child is looked up; `d2` has C(d2, d1) = 0
        // and is still never offered.
        let matrix = CompatibilityMatrix::scores_from_sparse_columns(vec![
            vec![(Symbol(0), 1.0)],
            vec![(Symbol(0), 0.5), (Symbol(1), 1.0)],
            vec![(Symbol(2), 1.0)],
        ])
        .unwrap();
        let patterns = vec![pat("d0 d2"), pat("d0 d1")];
        let trie = CandidateTrie::new(&patterns);
        let mut scratch = trie.scratch();
        let mut out = vec![0.0; patterns.len()];
        trie.batch_sequence_match(&seq("d0 d1"), &matrix, &mut scratch, &mut out);
        assert_eq!(out, vec![0.0, 1.0]);
        assert_eq!((scratch.nodes_visited, scratch.prunes), (2, 0));
    }

    #[test]
    fn thousand_root_trie_builds_sorted() {
        // One root per symbol of a 1 000-item alphabet, inserted in
        // descending order, plus one two-symbol pattern per tenth root.
        let mut patterns: Vec<Pattern> = (0..1000u16)
            .rev()
            .map(|s| Pattern::single(Symbol(s)))
            .collect();
        patterns.extend(
            (0..1000u16)
                .step_by(10)
                .map(|s| Pattern::contiguous(&[Symbol(s), Symbol(999 - s)]).unwrap()),
        );
        let trie = CandidateTrie::new(&patterns);
        assert_eq!(trie.num_nodes(), 1100);
        let roots = &trie.child_elems[..trie.num_roots as usize];
        assert_eq!(roots.len(), 1000);
        assert!(roots.windows(2).all(|w| w[0] < w[1]), "roots are sorted");
        assert_eq!(trie.stripe_syms.len(), 1000);
        let matrix = CompatibilityMatrix::identity(1000);
        let s: Vec<Symbol> = [0u16, 999, 10, 989, 500].map(Symbol).to_vec();
        let mut out = vec![0.0; patterns.len()];
        trie.batch_sequence_match(&s, &matrix, &mut trie.scratch(), &mut out);
        for (p, &got) in patterns.iter().zip(&out) {
            assert_eq!(got, sequence_match(p, &s, &matrix), "{p}");
        }
        assert_eq!(out.iter().filter(|&&v| v == 1.0).count(), 7);
    }

    #[test]
    fn duplicate_patterns_each_get_a_result() {
        let matrix = CompatibilityMatrix::paper_figure2();
        let patterns = vec![pat("d0 d1"), pat("d2"), pat("d0 d1"), pat("d0 d1")];
        let trie = CandidateTrie::new(&patterns);
        // The three copies of `d0 d1` share one terminal node.
        assert_eq!(trie.num_nodes(), 3);
        for text in ["d0 d1 d2", "d3 d4", "d0"] {
            assert_batch_matches_naive(&patterns, &seq(text), &matrix);
        }
    }
}
