//! Generic abstract interpretation: a worklist fixpoint solver over the
//! CFG-lite of [`crate::cfg`], pluggable join-semilattice domains, and
//! Tarjan SCC condensation for bottom-up interprocedural summaries.
//!
//! The solver is deliberately small and textbook: states attach to block
//! *boundaries*, the transfer function is a caller-supplied closure over
//! a block's token range, joins happen where edges meet, and widening
//! kicks in at loop heads after a configurable number of visits so
//! infinite-height domains (intervals) still terminate. Domains are
//! values implementing [`JoinSemiLattice`]; the two shipped here —
//! [`EffectSet`] and [`Interval`] — power rules A0015–A0019 in
//! [`crate::effects`].

use std::collections::BTreeSet;
use std::collections::VecDeque;

use crate::cfg::{BlockKind, Cfg};

/// A join-semilattice: a partial order with least element and least
/// upper bound, plus a widening operator for infinite-height domains.
///
/// Laws the property tests in `tests/absint_props.rs` exercise:
/// `bottom ⊑ x`, `x ⊑ x ⊔ y`, `y ⊑ x ⊔ y`, and `x ⊔ y ⊑ x.widen(y)`
/// with widening chains stabilizing in finitely many steps.
pub trait JoinSemiLattice: Clone + PartialEq {
    /// The least element (unreachable / no information).
    fn bottom() -> Self;
    /// Least upper bound.
    fn join(&self, other: &Self) -> Self;
    /// `self ⊑ other`.
    fn leq(&self, other: &Self) -> bool;
    /// Widening: an upper bound of `self ⊔ next` that guarantees
    /// stabilization. Finite domains can keep the default (plain join).
    fn widen(&self, next: &Self) -> Self {
        self.join(next)
    }
}

/// Result of a fixpoint run: the state at entry to and exit from every
/// block, plus how many transfer applications it took.
pub struct Fixpoint<S> {
    /// Per block: state on entry (join over predecessors' exits).
    pub inputs: Vec<S>,
    /// Per block: state on exit (transfer applied to the input).
    pub outputs: Vec<S>,
    /// Total number of transfer-function applications.
    pub steps: usize,
}

/// How many times a loop head is revisited before widening replaces
/// plain join. Small enough to terminate fast, large enough to let
/// short constant chains settle exactly.
pub const WIDEN_DELAY: usize = 3;

/// Solve a forward dataflow problem over `cfg` to fixpoint.
///
/// `transfer(block, input) -> output` must be monotone in `input` for
/// the result to be the least fixpoint; the solver itself terminates for
/// any transfer as long as widening stabilizes (a hard step bound backs
/// that up defensively, so malformed domains degrade to an over-wide
/// answer instead of hanging).
pub fn fixpoint<S, F>(cfg: &Cfg, entry: S, transfer: F) -> Fixpoint<S>
where
    S: JoinSemiLattice,
    F: Fn(usize, &S) -> S,
{
    let n = cfg.blocks.len();
    let mut inputs: Vec<S> = vec![S::bottom(); n];
    let mut outputs: Vec<S> = vec![S::bottom(); n];
    if n == 0 {
        return Fixpoint {
            inputs,
            outputs,
            steps: 0,
        };
    }

    let mut preds: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (b, block) in cfg.blocks.iter().enumerate() {
        for &s in &block.succs {
            if s < n {
                preds[s].push(b);
            }
        }
    }

    let mut visits: Vec<usize> = vec![0; n];
    let mut queued: Vec<bool> = vec![true; n];
    let mut worklist: VecDeque<usize> = (0..n).collect();
    let mut steps = 0usize;
    // Defensive ceiling: widening makes real domains stabilize long
    // before this; a buggy domain ends with a wide-but-finite answer.
    let max_steps = 64 * n + 256;

    while let Some(b) = worklist.pop_front() {
        queued[b] = false;
        let mut incoming = if b == 0 { entry.clone() } else { S::bottom() };
        for &p in &preds[b] {
            incoming = incoming.join(&outputs[p]);
        }
        visits[b] += 1;
        let next_in =
            if matches!(cfg.blocks[b].kind, BlockKind::LoopHead) && visits[b] > WIDEN_DELAY {
                inputs[b].widen(&incoming)
            } else {
                inputs[b].join(&incoming)
            };
        let first = visits[b] == 1;
        if !first && next_in == inputs[b] && steps > 0 {
            continue;
        }
        inputs[b] = next_in;
        let out = transfer(b, &inputs[b]);
        steps += 1;
        if first || out != outputs[b] {
            outputs[b] = out;
            for &s in &cfg.blocks[b].succs {
                if s < n && !queued[s] {
                    queued[s] = true;
                    worklist.push_back(s);
                }
            }
        }
        if steps >= max_steps {
            break;
        }
    }

    Fixpoint {
        inputs,
        outputs,
        steps,
    }
}

// ---------------------------------------------------------------------
// Effect lattice
// ---------------------------------------------------------------------

/// Effect bit: the function may allocate.
pub const EFFECT_ALLOC: u8 = 1;
/// Effect bit: the function may take a lock.
pub const EFFECT_LOCK: u8 = 2;
/// Effect bit: the function may perform I/O.
pub const EFFECT_IO: u8 = 4;
/// Effect bit: the function may panic.
pub const EFFECT_PANIC: u8 = 8;

/// All effect bits, paired with their report names, in emission order.
pub const EFFECT_BITS: [(u8, &str); 4] = [
    (EFFECT_ALLOC, "alloc"),
    (EFFECT_LOCK, "lock"),
    (EFFECT_IO, "io"),
    (EFFECT_PANIC, "panic"),
];

/// The effect lattice: a powerset of {alloc, lock, io, panic} ordered by
/// inclusion. Finite height, so widening is plain join.
#[derive(Clone, Copy, PartialEq, Eq, Default, Debug)]
pub struct EffectSet(pub u8);

impl EffectSet {
    /// The pure (bottom) element.
    pub fn pure() -> EffectSet {
        EffectSet(0)
    }

    pub fn is_pure(&self) -> bool {
        self.0 == 0
    }

    pub fn has(&self, bit: u8) -> bool {
        self.0 & bit != 0
    }

    pub fn insert(&mut self, bit: u8) {
        self.0 |= bit;
    }

    /// Report names of the effects present, in fixed order.
    pub fn names(&self) -> Vec<&'static str> {
        EFFECT_BITS
            .iter()
            .filter(|(bit, _)| self.has(*bit))
            .map(|&(_, name)| name)
            .collect()
    }
}

impl JoinSemiLattice for EffectSet {
    fn bottom() -> Self {
        EffectSet(0)
    }
    fn join(&self, other: &Self) -> Self {
        EffectSet(self.0 | other.0)
    }
    fn leq(&self, other: &Self) -> bool {
        self.0 & !other.0 == 0
    }
}

// ---------------------------------------------------------------------
// Interval lattice
// ---------------------------------------------------------------------

/// Sentinel for an unbounded lower end.
pub const NEG_INF: i128 = i128::MIN;
/// Sentinel for an unbounded upper end.
pub const POS_INF: i128 = i128::MAX;

/// A (possibly empty) integer interval `[lo, hi]` with ±∞ sentinels.
///
/// The counters it tracks are unsigned (`u64` fitting comfortably in
/// `i128`), so the conventional "unknown" element used by the rules is
/// `[0, +∞]` rather than full top; `lo > hi` encodes bottom (empty).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Interval {
    pub lo: i128,
    pub hi: i128,
}

impl Interval {
    /// The empty interval (bottom).
    pub fn empty() -> Interval {
        Interval { lo: 1, hi: 0 }
    }

    /// The full interval `[-∞, +∞]`.
    pub fn top() -> Interval {
        Interval {
            lo: NEG_INF,
            hi: POS_INF,
        }
    }

    /// The unknown unsigned value `[0, +∞]`.
    pub fn unsigned_top() -> Interval {
        Interval { lo: 0, hi: POS_INF }
    }

    pub fn exact(v: i128) -> Interval {
        Interval { lo: v, hi: v }
    }

    pub fn range(lo: i128, hi: i128) -> Interval {
        Interval { lo, hi }
    }

    pub fn is_empty(&self) -> bool {
        self.lo > self.hi
    }

    pub fn contains(&self, v: i128) -> bool {
        !self.is_empty() && self.lo <= v && v <= self.hi
    }

    pub fn contains_zero(&self) -> bool {
        self.contains(0)
    }

    fn sat_add(a: i128, b: i128) -> i128 {
        if a == NEG_INF || b == NEG_INF {
            NEG_INF
        } else if a == POS_INF || b == POS_INF {
            POS_INF
        } else {
            a.saturating_add(b)
        }
    }

    /// Interval addition (sentinel-saturating).
    pub fn add(&self, other: &Interval) -> Interval {
        if self.is_empty() || other.is_empty() {
            return Interval::empty();
        }
        Interval {
            lo: Interval::sat_add(self.lo, other.lo),
            hi: Interval::sat_add(self.hi, other.hi),
        }
    }

    /// Interval subtraction (sentinel-saturating).
    pub fn sub(&self, other: &Interval) -> Interval {
        if self.is_empty() || other.is_empty() {
            return Interval::empty();
        }
        let neg = |v: i128| {
            if v == NEG_INF {
                POS_INF
            } else if v == POS_INF {
                NEG_INF
            } else {
                v.saturating_neg()
            }
        };
        Interval {
            lo: Interval::sat_add(self.lo, neg(other.hi)),
            hi: Interval::sat_add(self.hi, neg(other.lo)),
        }
    }

    /// Interval multiplication (sentinel-saturating, sign-correct).
    pub fn mul(&self, other: &Interval) -> Interval {
        if self.is_empty() || other.is_empty() {
            return Interval::empty();
        }
        let one = |a: i128, b: i128| -> i128 {
            let inf_a = a == NEG_INF || a == POS_INF;
            let inf_b = b == NEG_INF || b == POS_INF;
            if (inf_a && b == 0) || (inf_b && a == 0) {
                0
            } else if inf_a || inf_b {
                if (a < 0) == (b < 0) {
                    POS_INF
                } else {
                    NEG_INF
                }
            } else {
                a.saturating_mul(b)
            }
        };
        let products = [
            one(self.lo, other.lo),
            one(self.lo, other.hi),
            one(self.hi, other.lo),
            one(self.hi, other.hi),
        ];
        let mut lo = products[0];
        let mut hi = products[0];
        for &p in &products[1..] {
            lo = lo.min(p);
            hi = hi.max(p);
        }
        Interval { lo, hi }
    }

    /// `max(self, other)` pointwise (models `x.max(y)`).
    pub fn max_of(&self, other: &Interval) -> Interval {
        if self.is_empty() || other.is_empty() {
            return Interval::empty();
        }
        Interval {
            lo: self.lo.max(other.lo),
            hi: self.hi.max(other.hi),
        }
    }

    /// `min(self, other)` pointwise (models `x.min(y)`).
    pub fn min_of(&self, other: &Interval) -> Interval {
        if self.is_empty() || other.is_empty() {
            return Interval::empty();
        }
        Interval {
            lo: self.lo.min(other.lo),
            hi: self.hi.min(other.hi),
        }
    }
}

impl JoinSemiLattice for Interval {
    fn bottom() -> Self {
        Interval::empty()
    }
    fn join(&self, other: &Self) -> Self {
        if self.is_empty() {
            *other
        } else if other.is_empty() {
            *self
        } else {
            Interval {
                lo: self.lo.min(other.lo),
                hi: self.hi.max(other.hi),
            }
        }
    }
    fn leq(&self, other: &Self) -> bool {
        self.is_empty() || (!other.is_empty() && other.lo <= self.lo && self.hi <= other.hi)
    }
    fn widen(&self, next: &Self) -> Self {
        let j = self.join(next);
        if self.is_empty() {
            return j;
        }
        Interval {
            lo: if j.lo < self.lo { NEG_INF } else { self.lo },
            hi: if j.hi > self.hi { POS_INF } else { self.hi },
        }
    }
}

// ---------------------------------------------------------------------
// Bit sets + Tarjan SCC condensation
// ---------------------------------------------------------------------

/// A dense bit set over `0..n`, the representation of one row of the
/// condensed reachability relation.
#[derive(Clone, Default)]
pub struct BitSet {
    words: Vec<u64>,
}

impl BitSet {
    pub fn new(n: usize) -> BitSet {
        BitSet {
            words: vec![0; n.div_ceil(64)],
        }
    }

    pub fn insert(&mut self, i: usize) {
        if let Some(w) = self.words.get_mut(i / 64) {
            *w |= 1u64 << (i % 64);
        }
    }

    pub fn contains(&self, i: usize) -> bool {
        self.words
            .get(i / 64)
            .is_some_and(|w| w & (1u64 << (i % 64)) != 0)
    }

    /// `self |= other`.
    pub fn union_with(&mut self, other: &BitSet) {
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= *b;
        }
    }
}

/// Tarjan SCC condensation of a directed graph.
///
/// Components are emitted in **reverse topological order**: every edge
/// of the condensation points from a later component to an earlier one
/// (`comp_succs[c]` only contains indices `< c`), so a bottom-up
/// interprocedural pass is a single ascending sweep over `comps`.
pub struct CondensedGraph {
    /// Node → component index.
    pub comp_of: Vec<usize>,
    /// Component → member nodes (sorted), callees-first order.
    pub comps: Vec<Vec<usize>>,
    /// Condensation edges (deduped, each strictly decreasing).
    pub comp_succs: Vec<Vec<usize>>,
}

impl CondensedGraph {
    /// Per component: the set of components reachable from it,
    /// including itself — one ascending sweep thanks to the reverse
    /// topological component order.
    pub fn reachable_sets(&self) -> Vec<BitSet> {
        let n = self.comps.len();
        let mut reach: Vec<BitSet> = Vec::with_capacity(n);
        for c in 0..n {
            let mut set = BitSet::new(n);
            set.insert(c);
            for &s in &self.comp_succs[c] {
                if let Some(prev) = reach.get(s) {
                    set.union_with(prev);
                }
            }
            reach.push(set);
        }
        reach
    }
}

/// Iterative Tarjan over `0..n` with adjacency `succs` (out-of-range
/// targets are ignored). No recursion, so workspace-deep call chains
/// cannot overflow the stack.
pub fn condense(n: usize, succs: &[Vec<usize>]) -> CondensedGraph {
    const UNSEEN: usize = usize::MAX;
    let mut index = vec![UNSEEN; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut comp_of = vec![0usize; n];
    let mut comps: Vec<Vec<usize>> = Vec::new();
    let mut next_index = 0usize;
    let mut frames: Vec<(usize, usize)> = Vec::new();

    for root in 0..n {
        if index[root] != UNSEEN {
            continue;
        }
        index[root] = next_index;
        low[root] = next_index;
        next_index += 1;
        stack.push(root);
        on_stack[root] = true;
        frames.push((root, 0));
        while let Some(&mut (v, ref mut child)) = frames.last_mut() {
            let edges: &[usize] = succs.get(v).map(|e| e.as_slice()).unwrap_or(&[]);
            if *child < edges.len() {
                let w = edges[*child];
                *child += 1;
                if w >= n {
                    continue;
                }
                if index[w] == UNSEEN {
                    index[w] = next_index;
                    low[w] = next_index;
                    next_index += 1;
                    stack.push(w);
                    on_stack[w] = true;
                    frames.push((w, 0));
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
            } else {
                frames.pop();
                if let Some(&(p, _)) = frames.last() {
                    low[p] = low[p].min(low[v]);
                }
                if low[v] == index[v] {
                    let mut comp = Vec::new();
                    while let Some(w) = stack.pop() {
                        on_stack[w] = false;
                        comp_of[w] = comps.len();
                        comp.push(w);
                        if w == v {
                            break;
                        }
                    }
                    comp.sort_unstable();
                    comps.push(comp);
                }
            }
        }
    }

    let mut succ_sets: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); comps.len()];
    for (v, out) in succs.iter().enumerate().take(n) {
        for &w in out {
            if w < n && comp_of[v] != comp_of[w] {
                succ_sets[comp_of[v]].insert(comp_of[w]);
            }
        }
    }
    CondensedGraph {
        comp_of,
        comps,
        comp_succs: succ_sets
            .into_iter()
            .map(|s| s.into_iter().collect())
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

    use super::*;
    use crate::cfg::{Block, BlockKind};

    fn block(kind: BlockKind, succs: Vec<usize>) -> Block {
        Block {
            start: 0,
            end: 0,
            line: 1,
            kind,
            succs,
        }
    }

    #[test]
    fn effect_lattice_laws() {
        let a = EffectSet(EFFECT_ALLOC | EFFECT_LOCK);
        let b = EffectSet(EFFECT_IO);
        let j = a.join(&b);
        assert!(a.leq(&j) && b.leq(&j));
        assert!(EffectSet::bottom().leq(&a));
        assert_eq!(j.names(), vec!["alloc", "lock", "io"]);
    }

    #[test]
    fn interval_ops_are_sound() {
        let a = Interval::range(1, 5);
        let b = Interval::range(0, 3);
        assert_eq!(a.add(&b), Interval::range(1, 8));
        assert_eq!(a.sub(&b), Interval::range(-2, 5));
        assert_eq!(a.mul(&b), Interval::range(0, 15));
        assert_eq!(a.max_of(&Interval::exact(3)), Interval::range(3, 5));
        assert_eq!(a.min_of(&Interval::exact(3)), Interval::range(1, 3));
        assert!(Interval::unsigned_top().contains_zero());
        assert!(!Interval::range(1, POS_INF).contains_zero());
    }

    #[test]
    fn interval_widening_stabilizes() {
        let mut cur = Interval::exact(0);
        let mut next = Interval::range(0, 1);
        for _ in 0..4 {
            let w = cur.widen(&next);
            assert!(cur.join(&next).leq(&w));
            cur = w;
            next = next.add(&Interval::exact(1));
        }
        assert_eq!(cur.hi, POS_INF);
        assert_eq!(cur.widen(&next), cur);
    }

    #[test]
    fn fixpoint_reaches_loop_closure() {
        // entry -> loop head -> body -> loop head; head -> exit.
        let cfg = Cfg {
            blocks: vec![
                block(BlockKind::Entry, vec![1]),
                block(BlockKind::LoopHead, vec![2, 3]),
                block(BlockKind::Seq, vec![1]),
                block(BlockKind::Exit, vec![]),
            ],
        };
        // Transfer: body adds the IO effect; everything else passes
        // through. The loop must propagate IO around the back edge.
        let result = fixpoint(&cfg, EffectSet(EFFECT_ALLOC), |b, s: &EffectSet| {
            let mut out = *s;
            if b == 2 {
                out.insert(EFFECT_IO);
            }
            out
        });
        assert!(result.outputs[3].has(EFFECT_ALLOC));
        assert!(result.outputs[3].has(EFFECT_IO));
        assert!(result.steps < 64);
    }

    #[test]
    fn fixpoint_widens_interval_loops() {
        // A counting loop: the interval at the head must widen to +∞
        // rather than iterating forever.
        let cfg = Cfg {
            blocks: vec![
                block(BlockKind::Entry, vec![1]),
                block(BlockKind::LoopHead, vec![2, 3]),
                block(BlockKind::Seq, vec![1]),
                block(BlockKind::Exit, vec![]),
            ],
        };
        let result = fixpoint(&cfg, Interval::exact(0), |b, s: &Interval| {
            if b == 2 {
                s.add(&Interval::exact(1))
            } else {
                *s
            }
        });
        assert_eq!(result.inputs[1].lo, 0);
        assert_eq!(result.inputs[1].hi, POS_INF);
        assert!(result.steps < 64);
    }

    #[test]
    fn condensation_is_reverse_topological() {
        // 0 -> 1 <-> 2 -> 3, 0 -> 3.
        let succs = vec![vec![1, 3], vec![2], vec![1, 3], vec![]];
        let g = condense(4, &succs);
        assert_eq!(g.comps.len(), 3);
        assert_eq!(g.comp_of[1], g.comp_of[2]);
        for (c, out) in g.comp_succs.iter().enumerate() {
            for &s in out {
                assert!(s < c, "condensation edge {c} -> {s} not reverse-topo");
            }
        }
        let reach = g.reachable_sets();
        assert!(reach[g.comp_of[0]].contains(g.comp_of[3]));
        assert!(reach[g.comp_of[1]].contains(g.comp_of[3]));
        assert!(!reach[g.comp_of[3]].contains(g.comp_of[0]));
    }

    #[test]
    fn bitset_roundtrip() {
        let mut s = BitSet::new(130);
        s.insert(0);
        s.insert(64);
        s.insert(129);
        let mut t = BitSet::new(130);
        t.insert(65);
        s.union_with(&t);
        for i in [0usize, 64, 65, 129] {
            assert!(s.contains(i));
        }
        assert!(!s.contains(1));
        assert!(!s.contains(200));
    }
}
