//! Array-theory elimination.
//!
//! `Read(Write(...), i)` chains become ITE chains (one comparison per
//! store), and reads of base arrays at symbolic indices become fresh
//! variables constrained by one axiom for the array's most common value
//! plus one per reachable cell holding another (the constant-array reads
//! of KLEE, Cadar, Dunbar & Engler, OSDI 2008). The cell budget still
//! charges every read the whole array, so elimination cost is accounted
//! as **write-chain length × array size** — the two constraint-complexity
//! sources §3.3.1 of the paper identifies — and a configurable cell budget
//! turns excessive work into a reported *stall* instead of an unbounded
//! solve.
//!
//! A stall is decided before anything is built: [`Eliminator::would_trip`]
//! counts the cells a rewrite would instantiate by walking the constraint
//! without interning a node, so a lowering that would trip the budget
//! leaves no trace in the pool.

use crate::expr::{ArrayDecl, ArrayNode, ArrayRef, ExprPool, ExprRef, Node};
use crate::hash::{FxHashMap, FxHashSet};
use crate::known::KnownBits;
use std::fmt;

/// Elimination exceeded its cell budget: the solver stalls.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArrayBudgetExceeded {
    /// Cells instantiated before giving up.
    pub cells: u64,
    /// The configured budget.
    pub budget: u64,
}

impl fmt::Display for ArrayBudgetExceeded {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "array elimination stalled: {} cells exceeds budget {}",
            self.cells, self.budget
        )
    }
}

impl std::error::Error for ArrayBudgetExceeded {}

/// What [`Eliminator::would_trip`] learned about a rewrite without building
/// it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DryRun {
    /// The rewrite stays within the cell budget.
    Fits,
    /// The rewrite would fail with exactly this error.
    Trips(ArrayBudgetExceeded),
    /// The walk met an index containing a read not yet rewritten whose
    /// rewritten form decides what a read costs: a read's own index, or a
    /// store index a constant-index read compares against. Only the
    /// rewrite can tell.
    Declined,
}

/// Cumulative elimination statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ElimStats {
    /// Base-array cells instantiated as axioms.
    pub cells: u64,
    /// Store nodes traversed while expanding reads.
    pub stores_traversed: u64,
}

/// Persistent array-elimination state, reusable across queries.
///
/// Rewrite results and the fresh variables minted for base reads are cached
/// per [`ExprRef`] (the pool is hash-consed, so equal expressions share a
/// ref), which means a growing constraint prefix is only ever lowered once.
/// [`Eliminator::begin_scope`] / [`Eliminator::rollback_scope`] bracket
/// *assumption-only* lowering: anything learned inside the scope (including
/// the in-bounds axiom a base read emits, which is a real constraint on the
/// index) is undone so it cannot leak into later prefix-only queries.
#[derive(Debug, Default, Clone)]
pub struct Eliminator {
    cache: FxHashMap<ExprRef, ExprRef>,
    /// Fresh variable per (base array, rewritten index) pair.
    base_reads: FxHashMap<(u32, ExprRef), ExprRef>,
    stats: ElimStats,
    scope: Option<ElimScope>,
    dry: DryScratch,
}

/// What one [`Eliminator::would_trip`] walk has met so far. Only scratch:
/// it is empty between walks, and a clone starts empty.
#[derive(Debug, Default)]
struct DryScratch {
    /// Nodes walked to the end, as [`Eliminator::rewrite`]'s cache would
    /// hold them.
    walked: FxHashSet<ExprRef>,
    /// Base reads costed, as `base_reads` would hold them.
    reads: FxHashSet<(u32, ExprRef)>,
    cells: u64,
}

impl Clone for DryScratch {
    fn clone(&self) -> Self {
        DryScratch::default()
    }
}

#[derive(Debug, Clone)]
struct ElimScope {
    cache_keys: Vec<ExprRef>,
    base_read_keys: Vec<(u32, ExprRef)>,
    stats_before: ElimStats,
}

impl Eliminator {
    /// Empty persistent state.
    pub fn new() -> Self {
        Eliminator::default()
    }

    /// Cumulative statistics over every committed rewrite.
    pub fn stats(&self) -> ElimStats {
        self.stats
    }

    /// Starts recording insertions for a later rollback or commit.
    ///
    /// # Panics
    ///
    /// Panics if a scope is already open (scopes do not nest).
    pub fn begin_scope(&mut self) {
        assert!(self.scope.is_none(), "elimination scopes do not nest");
        self.scope = Some(ElimScope {
            cache_keys: Vec::new(),
            base_read_keys: Vec::new(),
            stats_before: self.stats,
        });
    }

    /// Keeps everything added since [`Eliminator::begin_scope`].
    pub fn commit_scope(&mut self) {
        self.scope = None;
    }

    /// Undoes everything added since [`Eliminator::begin_scope`].
    pub fn rollback_scope(&mut self) {
        let scope = self.scope.take().expect("scope open");
        for k in scope.cache_keys {
            self.cache.remove(&k);
        }
        for k in scope.base_read_keys {
            self.base_reads.remove(&k);
        }
        self.stats = scope.stats_before;
    }

    /// Whether [`Eliminator::rewrite`] of `e` under `max_cells` would trip
    /// the cell budget, decided without interning a node.
    ///
    /// The walk mirrors the rewrite's accounting exactly: the same visiting
    /// order (operands left to right; at a store its index, then its value,
    /// then the array below), the same memo on nodes already rewritten, the
    /// same dedup of base reads on `(base id, rewritten index)`, the same
    /// constant-index store shortcut, and a count that starts from the
    /// committed cells. It skips subtrees without a read, which rewrite to
    /// themselves and cost nothing. Where a cost hangs on the rewritten
    /// form of an index containing a read not yet rewritten, it declines
    /// (see [`DryRun::Declined`]).
    pub fn would_trip(&mut self, pool: &ExprPool, e: ExprRef, max_cells: u64) -> DryRun {
        if !pool.contains_read(e) {
            return DryRun::Fits;
        }
        self.dry.cells = self.stats.cells;
        let mut walk = DryWalk {
            pool,
            cache: &self.cache,
            base_reads: &self.base_reads,
            scratch: &mut self.dry,
            max_cells,
        };
        let verdict = match walk.expr(e) {
            Ok(()) => DryRun::Fits,
            Err(stop) => stop,
        };
        self.dry.walked.clear();
        self.dry.reads.clear();
        verdict
    }

    /// Rewrites `e` into array-free form, appending any new axioms to
    /// `axioms`. Cached sub-results are reused; `max_cells` bounds the
    /// *cumulative* cells instantiated by this eliminator, which matches
    /// what a fresh whole-query elimination would count (the cache dedups
    /// identical reads exactly as a single pass would).
    ///
    /// # Errors
    ///
    /// Returns [`ArrayBudgetExceeded`] when the cumulative cell count
    /// crosses `max_cells`.
    pub fn rewrite(
        &mut self,
        pool: &mut ExprPool,
        e: ExprRef,
        max_cells: u64,
        axioms: &mut Vec<ExprRef>,
    ) -> Result<ExprRef, ArrayBudgetExceeded> {
        if let Some(&r) = self.cache.get(&e) {
            return Ok(r);
        }
        let node = pool.node(e).clone();
        let r = match node {
            Node::Const { .. } | Node::BoolConst(_) | Node::Var { .. } => e,
            Node::Bin { op, a, b } => {
                let a = self.rewrite(pool, a, max_cells, axioms)?;
                let b = self.rewrite(pool, b, max_cells, axioms)?;
                pool.bin(op, a, b)
            }
            Node::Cmp { op, a, b } => {
                let a = self.rewrite(pool, a, max_cells, axioms)?;
                let b = self.rewrite(pool, b, max_cells, axioms)?;
                pool.cmp(op, a, b)
            }
            Node::Not(a) => {
                let a = self.rewrite(pool, a, max_cells, axioms)?;
                pool.not(a)
            }
            Node::AndB(a, b) => {
                let a = self.rewrite(pool, a, max_cells, axioms)?;
                let b = self.rewrite(pool, b, max_cells, axioms)?;
                pool.and(a, b)
            }
            Node::OrB(a, b) => {
                let a = self.rewrite(pool, a, max_cells, axioms)?;
                let b = self.rewrite(pool, b, max_cells, axioms)?;
                pool.or(a, b)
            }
            Node::Ite {
                cond,
                then_e,
                else_e,
            } => {
                let c = self.rewrite(pool, cond, max_cells, axioms)?;
                let t = self.rewrite(pool, then_e, max_cells, axioms)?;
                let el = self.rewrite(pool, else_e, max_cells, axioms)?;
                pool.ite(c, t, el)
            }
            Node::ZExt { a, bits } => {
                let a = self.rewrite(pool, a, max_cells, axioms)?;
                pool.zext(a, bits)
            }
            Node::Trunc { a, bits } => {
                let a = self.rewrite(pool, a, max_cells, axioms)?;
                pool.trunc(a, bits)
            }
            Node::BoolToBv { a, bits } => {
                let a = self.rewrite(pool, a, max_cells, axioms)?;
                pool.bool_to_bv(a, bits)
            }
            Node::Read { arr, index } => {
                let idx = self.rewrite(pool, index, max_cells, axioms)?;
                self.expand_read(pool, arr, idx, max_cells, axioms)?
            }
        };
        self.cache.insert(e, r);
        if let Some(scope) = &mut self.scope {
            scope.cache_keys.push(e);
        }
        Ok(r)
    }

    fn expand_read(
        &mut self,
        pool: &mut ExprPool,
        arr: ArrayRef,
        idx: ExprRef,
        max_cells: u64,
        axioms: &mut Vec<ExprRef>,
    ) -> Result<ExprRef, ArrayBudgetExceeded> {
        match pool.array_node(arr).clone() {
            ArrayNode::Store {
                arr: below,
                index: si,
                value,
            } => {
                self.stats.stores_traversed += 1;
                let si = self.rewrite(pool, si, max_cells, axioms)?;
                let value = self.rewrite(pool, value, max_cells, axioms)?;
                // Fast path: both indices concrete.
                if let (Some(a), Some(b)) = (pool.as_const(si), pool.as_const(idx)) {
                    return if a == b {
                        Ok(value)
                    } else {
                        self.expand_read(pool, below, idx, max_cells, axioms)
                    };
                }
                let cond = pool.cmp(crate::expr::CmpKind::Eq, idx, si);
                let under = self.expand_read(pool, below, idx, max_cells, axioms)?;
                Ok(pool.ite(cond, value, under))
            }
            ArrayNode::Base(id) => {
                let decl = pool.array_decl(id);
                let (len, elem_bits) = (decl.len, decl.elem_bits);
                if let Some(k) = pool.as_const(idx) {
                    let v = decl.init_value(k);
                    return Ok(pool.bv_const(v, elem_bits));
                }
                if let Some(&var) = self.base_reads.get(&(id, idx)) {
                    return Ok(var);
                }
                self.stats.cells += len;
                if self.stats.cells > max_cells {
                    return Err(ArrayBudgetExceeded {
                        cells: self.stats.cells,
                        budget: max_cells,
                    });
                }
                let name = format!("{}[{}]", decl.name, idx);
                let (default, exceptions) = split_cells(decl, pool.known_bits(idx));
                let fresh = pool.var(name, elem_bits);
                self.base_reads.insert((id, idx), fresh);
                if let Some(scope) = &mut self.scope {
                    scope.base_read_keys.push((id, idx));
                }
                // One axiom per exception cell, (idx == k) -> fresh ==
                // init[k], and one for the rest: no exception hit ->
                // fresh == default. Under the in-bounds axiom `idx` is one
                // reachable cell, so both force `fresh` to that cell's
                // value, as one axiom per cell would. Every cell still
                // counts in `cells` above, so budget trip points do not
                // depend on the contents or on the known bits.
                let idx_bits = pool.sort(idx).bits();
                let mut any_hit = pool.bool_const(false);
                for (k, v) in exceptions {
                    let kv = pool.bv_const(k, idx_bits);
                    let hit = pool.cmp(crate::expr::CmpKind::Eq, idx, kv);
                    if pool.as_const(hit) == Some(0) {
                        continue;
                    }
                    let nhit = pool.not(hit);
                    let cv = pool.bv_const(v, elem_bits);
                    let eqv = pool.cmp(crate::expr::CmpKind::Eq, fresh, cv);
                    let ax = pool.or(nhit, eqv);
                    axioms.push(ax);
                    any_hit = pool.or(any_hit, hit);
                }
                let dv = pool.bv_const(default, elem_bits);
                let is_default = pool.cmp(crate::expr::CmpKind::Eq, fresh, dv);
                let ax = pool.or(any_hit, is_default);
                axioms.push(ax);
                // In-bounds axiom: the memory model faults on out-of-range
                // accesses, and the trace says this access did not fault.
                let len_v = pool.bv_const(len, idx_bits);
                let inb = pool.cmp(crate::expr::CmpKind::Ult, idx, len_v);
                axioms.push(inb);
                Ok(fresh)
            }
        }
    }
}

/// Splits the cells a symbolic read can reach into a default value and the
/// exception cells that hold another, as `(k, init[k])` in index order.
///
/// A cell `k < len` is reachable when the index's known bits admit `k`:
/// the others' `idx == k` folds to false. The default is the value most
/// reachable cells hold; a tie goes to the value of the lowest-index
/// reachable cell among the tied ones, so hash order never decides. An
/// array without initial contents is all zeros and is not scanned.
fn split_cells(decl: &ArrayDecl, known: KnownBits) -> (u64, Vec<(u64, u64)>) {
    if decl.init.is_none() {
        return (0, Vec::new());
    }
    let reachable = (0..decl.len).filter(|&k| known.admits(k));
    // Per value: how many reachable cells hold it, and the first of them.
    let mut tally: FxHashMap<u64, (u64, u64)> = FxHashMap::default();
    for k in reachable.clone() {
        tally.entry(decl.init_value(k)).or_insert((0, k)).0 += 1;
    }
    let default = tally
        .iter()
        .max_by_key(|&(_, &(count, first))| (count, std::cmp::Reverse(first)))
        .map_or(0, |(&v, _)| v);
    let exceptions = reachable
        .map(|k| (k, decl.init_value(k)))
        .filter(|&(_, v)| v != default)
        .collect();
    (default, exceptions)
}

/// One [`Eliminator::would_trip`] walk: the eliminator's committed state,
/// read-only, and the scratch it counts in.
struct DryWalk<'a> {
    pool: &'a ExprPool,
    cache: &'a FxHashMap<ExprRef, ExprRef>,
    base_reads: &'a FxHashMap<(u32, ExprRef), ExprRef>,
    scratch: &'a mut DryScratch,
    max_cells: u64,
}

impl DryWalk<'_> {
    /// Mirrors [`Eliminator::rewrite`]. `Err` stops the walk with its
    /// verdict.
    fn expr(&mut self, e: ExprRef) -> Result<(), DryRun> {
        if !self.pool.contains_read(e)
            || self.cache.contains_key(&e)
            || self.scratch.walked.contains(&e)
        {
            return Ok(());
        }
        match *self.pool.node(e) {
            Node::Const { .. } | Node::BoolConst(_) | Node::Var { .. } => {}
            Node::Bin { a, b, .. }
            | Node::Cmp { a, b, .. }
            | Node::AndB(a, b)
            | Node::OrB(a, b) => {
                self.expr(a)?;
                self.expr(b)?;
            }
            Node::Not(a)
            | Node::ZExt { a, .. }
            | Node::Trunc { a, .. }
            | Node::BoolToBv { a, .. } => self.expr(a)?,
            Node::Ite {
                cond,
                then_e,
                else_e,
            } => {
                self.expr(cond)?;
                self.expr(then_e)?;
                self.expr(else_e)?;
            }
            Node::Read { arr, index } => {
                self.expr(index)?;
                let idx = self.rewritten(index).ok_or(DryRun::Declined)?;
                self.read(arr, idx)?;
            }
        }
        self.scratch.walked.insert(e);
        Ok(())
    }

    /// The rewrite of `x`, if it is known without building it: the cached
    /// one, or `x` itself when no read is below it.
    fn rewritten(&self, x: ExprRef) -> Option<ExprRef> {
        match self.cache.get(&x) {
            Some(&r) => Some(r),
            None => (!self.pool.contains_read(x)).then_some(x),
        }
    }

    /// Mirrors [`Eliminator::expand_read`] of the rewritten index `idx`.
    fn read(&mut self, arr: ArrayRef, idx: ExprRef) -> Result<(), DryRun> {
        match *self.pool.array_node(arr) {
            ArrayNode::Store {
                arr: below,
                index: si,
                value,
            } => {
                self.expr(si)?;
                self.expr(value)?;
                if let Some(k) = self.pool.as_const(idx) {
                    let si = self.rewritten(si).ok_or(DryRun::Declined)?;
                    if self.pool.as_const(si) == Some(k) {
                        return Ok(());
                    }
                }
                self.read(below, idx)
            }
            ArrayNode::Base(id) => {
                if self.pool.as_const(idx).is_some()
                    || self.base_reads.contains_key(&(id, idx))
                    || !self.scratch.reads.insert((id, idx))
                {
                    return Ok(());
                }
                self.scratch.cells += self.pool.array_decl(id).len;
                if self.scratch.cells > self.max_cells {
                    return Err(DryRun::Trips(ArrayBudgetExceeded {
                        cells: self.scratch.cells,
                        budget: self.max_cells,
                    }));
                }
                Ok(())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitblast::BitBlaster;
    use crate::expr::{BvOp, CmpKind};
    use crate::sat::{load, SatOutcome};

    fn check(pool: &mut ExprPool, exprs: &[ExprRef], max_cells: u64) -> SatOutcome {
        let mut elim = Eliminator::new();
        let mut axioms = Vec::new();
        let mut bb = BitBlaster::new();
        for &e in exprs {
            let flat = elim.rewrite(pool, e, max_cells, &mut axioms).unwrap();
            bb.assert_true(pool, flat).unwrap();
        }
        for ax in axioms {
            bb.assert_true(pool, ax).unwrap();
        }
        load(&bb.cnf).solve(1_000_000)
    }

    #[test]
    fn store_then_read_same_symbolic_index() {
        // V[i] = 7; V[i] == 7 must be valid (negation UNSAT).
        let mut p = ExprPool::new();
        let arr = p.array("V", 16, 32, None);
        let i = p.var("i", 64);
        let seven = p.bv_const(7, 32);
        let w = p.write(arr, i, seven);
        let r = p.read(w, i);
        let neq = p.ne(r, seven);
        assert_eq!(check(&mut p, &[neq], 1_000), SatOutcome::Unsat);
    }

    #[test]
    fn aliasing_reasoning() {
        // V[i] = 1; V[j] = 2; read V[i]. If i == j the read is 2.
        let mut p = ExprPool::new();
        let arr = p.array("V", 8, 32, None);
        let i = p.var("i", 64);
        let j = p.var("j", 64);
        let one = p.bv_const(1, 32);
        let two = p.bv_const(2, 32);
        let w1 = p.write(arr, i, one);
        let w2 = p.write(w1, j, two);
        let r = p.read(w2, i);
        let ieqj = p.cmp(CmpKind::Eq, i, j);
        let r_is_1 = p.cmp(CmpKind::Eq, r, one);
        // i == j AND V[i] == 1 is UNSAT (it must be 2).
        let both = p.and(ieqj, r_is_1);
        assert_eq!(check(&mut p, &[both], 1_000), SatOutcome::Unsat);
        // i != j AND V[i] == 1 is SAT.
        let mut p2 = ExprPool::new();
        let arr = p2.array("V", 8, 32, None);
        let i = p2.var("i", 64);
        let j = p2.var("j", 64);
        let one = p2.bv_const(1, 32);
        let two = p2.bv_const(2, 32);
        let w1 = p2.write(arr, i, one);
        let w2 = p2.write(w1, j, two);
        let r = p2.read(w2, i);
        let ineqj = p2.ne(i, j);
        let r_is_1 = p2.cmp(CmpKind::Eq, r, one);
        let both = p2.and(ineqj, r_is_1);
        assert!(matches!(check(&mut p2, &[both], 1_000), SatOutcome::Sat(_)));
    }

    #[test]
    fn base_init_contents_respected() {
        // V initialized to squares; read at symbolic i with V[i] == 9 forces
        // i == 3 (within bounds).
        let mut p = ExprPool::new();
        let init: Vec<u64> = (0..8).map(|k| k * k).collect();
        let arr = p.array("V", 8, 32, Some(init));
        let i = p.var("i", 64);
        let r = p.read(arr, i);
        let nine = p.bv_const(9, 32);
        let eq9 = p.cmp(CmpKind::Eq, r, nine);
        let three = p.bv_const(3, 64);
        let not3 = p.ne(i, three);
        assert_eq!(check(&mut p, &[eq9, not3], 1_000), SatOutcome::Unsat);
    }

    #[test]
    fn in_bounds_axiom_enforced() {
        let mut p = ExprPool::new();
        let arr = p.array("V", 8, 32, None);
        let i = p.var("i", 64);
        let r = p.read(arr, i);
        let zero = p.bv_const(0, 32);
        let eq = p.cmp(CmpKind::Eq, r, zero);
        let eight = p.bv_const(8, 64);
        let oob = p.cmp(CmpKind::Ule, eight, i);
        assert_eq!(check(&mut p, &[eq, oob], 1_000), SatOutcome::Unsat);
    }

    #[test]
    fn budget_exceeded_is_a_stall() {
        let mut p = ExprPool::new();
        let arr = p.array("BIG", 100_000, 32, None);
        let i = p.var("i", 64);
        let r = p.read(arr, i);
        let zero = p.bv_const(0, 32);
        let eq = p.cmp(CmpKind::Eq, r, zero);
        let err = Eliminator::new()
            .rewrite(&mut p, eq, 1_000, &mut Vec::new())
            .unwrap_err();
        assert!(err.cells > 1_000);
        assert_eq!(err.budget, 1_000);
    }

    #[test]
    fn known_bits_drop_unreachable_cell_axioms_but_not_their_cost() {
        // T[(i & 31) * 8 + 3] over 256 bytes: only cells k ≡ 3 (mod 8)
        // are reachable, so 32 cell axioms survive, yet the read still
        // costs all 256 cells against the budget.
        let mut p = ExprPool::new();
        let init: Vec<u64> = (0..256).collect();
        let arr = p.array("T", 256, 8, Some(init));
        let i = p.var("i", 64);
        let m31 = p.bv_const(31, 64);
        let eight = p.bv_const(8, 64);
        let three = p.bv_const(3, 64);
        let masked = p.bin(BvOp::And, i, m31);
        let scaled = p.bin(BvOp::Mul, masked, eight);
        let idx = p.bin(BvOp::Add, scaled, three);
        let r = p.read(arr, idx);
        let eleven = p.bv_const(11, 8);
        let hit = p.cmp(CmpKind::Eq, r, eleven);

        let mut elim = Eliminator::new();
        let mut axioms = Vec::new();
        elim.rewrite(&mut p, hit, 10_000, &mut axioms).unwrap();
        assert_eq!(elim.stats().cells, 256);
        assert!(axioms.iter().all(|&ax| p.as_const(ax).is_none()));
        let cell_axioms = axioms
            .iter()
            .filter(|&&ax| matches!(p.node(ax), Node::OrB(..)))
            .count();
        assert_eq!(cell_axioms, 32);
        assert_eq!(axioms.len(), 33, "32 cells and the in-bounds axiom");

        // A tight budget's stall counts every cell, not just the reachable
        // ones.
        let err = Eliminator::new()
            .rewrite(&mut p, hit, 200, &mut Vec::new())
            .unwrap_err();
        assert_eq!(err.cells, 256);

        // T[idx] == 11 forces i & 31 == 1; T[idx] == 12 is unreachable.
        let SatOutcome::Sat(_) = check(&mut p, &[hit], 10_000) else {
            panic!("cell 11 is reachable");
        };
        let twelve = p.bv_const(12, 8);
        let miss = p.cmp(CmpKind::Eq, r, twelve);
        assert_eq!(check(&mut p, &[miss], 10_000), SatOutcome::Unsat);
    }

    /// `T[(i & 31) * 8 + 3]` over a 256-cell, 8-bit array.
    fn strided_read(p: &mut ExprPool, init: Option<Vec<u64>>) -> (ExprRef, ExprRef) {
        let arr = p.array("T", 256, 8, init);
        let i = p.var("i", 64);
        let m31 = p.bv_const(31, 64);
        let eight = p.bv_const(8, 64);
        let three = p.bv_const(3, 64);
        let masked = p.bin(BvOp::And, i, m31);
        let scaled = p.bin(BvOp::Mul, masked, eight);
        let idx = p.bin(BvOp::Add, scaled, three);
        (idx, p.read(arr, idx))
    }

    #[test]
    fn uniform_array_read_is_one_value_axiom() {
        for init in [Some(vec![0; 256]), None] {
            let mut p = ExprPool::new();
            let (idx, r) = strided_read(&mut p, init);
            let zero = p.bv_const(0, 8);
            let hit = p.cmp(CmpKind::Eq, r, zero);
            let mut elim = Eliminator::new();
            let mut axioms = Vec::new();
            let flat = elim.rewrite(&mut p, hit, 10_000, &mut axioms).unwrap();
            assert_eq!(elim.stats().cells, 256, "the whole array is charged");
            let Node::Cmp { a: fresh, .. } = *p.node(flat) else {
                panic!("the read became a fresh variable");
            };
            assert_eq!(axioms.len(), 2, "the value axiom and the in-bounds axiom");
            assert_eq!(axioms[0], p.cmp(CmpKind::Eq, fresh, zero));
            let len = p.bv_const(256, 64);
            assert_eq!(axioms[1], p.cmp(CmpKind::Ult, idx, len));
            let compares_idx = (0..p.len() as u32).map(ExprRef).any(|e| {
                matches!(*p.node(e), Node::Cmp { op: CmpKind::Eq, a, b }
                    if a == idx && p.as_const(b).is_some())
            });
            assert!(!compares_idx, "no `idx == k` node is interned");
            let one = p.bv_const(1, 8);
            let other = p.cmp(CmpKind::Eq, r, one);
            assert!(matches!(check(&mut p, &[hit], 10_000), SatOutcome::Sat(_)));
            assert_eq!(check(&mut p, &[other], 10_000), SatOutcome::Unsat);
        }
    }

    #[test]
    fn exception_cells_get_their_own_axioms() {
        // V is zero except V[5] = 9 and V[12] = 4.
        let mut init = vec![0; 16];
        init[5] = 9;
        init[12] = 4;
        let mut p = ExprPool::new();
        let arr = p.array("V", 16, 8, Some(init));
        let i = p.var("i", 64);
        let r = p.read(arr, i);
        let nine = p.bv_const(9, 8);
        let is9 = p.cmp(CmpKind::Eq, r, nine);
        let mut elim = Eliminator::new();
        let mut axioms = Vec::new();
        let flat = elim.rewrite(&mut p, is9, 10_000, &mut axioms).unwrap();
        assert_eq!(elim.stats().cells, 16);
        let Node::Cmp { a: fresh, .. } = *p.node(flat) else {
            panic!("the read became a fresh variable");
        };
        // The pool is hash-consed, so the expected axioms are the same refs.
        let cell = |p: &mut ExprPool, k: u64, v: u64| {
            let kv = p.bv_const(k, 64);
            let hit = p.cmp(CmpKind::Eq, i, kv);
            let nhit = p.not(hit);
            let vv = p.bv_const(v, 8);
            let eqv = p.cmp(CmpKind::Eq, fresh, vv);
            (hit, p.or(nhit, eqv))
        };
        let (hit5, ax5) = cell(&mut p, 5, 9);
        let (hit12, ax12) = cell(&mut p, 12, 4);
        let either = p.or(hit5, hit12);
        let zero = p.bv_const(0, 8);
        let is0 = p.cmp(CmpKind::Eq, fresh, zero);
        let default = p.or(either, is0);
        let len = p.bv_const(16, 64);
        let inb = p.cmp(CmpKind::Ult, i, len);
        assert_eq!(axioms, [ax5, ax12, default, inb]);

        // V[i] == 9 forces i == 5; V[i] == 0 rules out cells 5 and 12.
        let not5 = p.not(hit5);
        assert_eq!(check(&mut p, &[is9, not5], 10_000), SatOutcome::Unsat);
        let read0 = p.cmp(CmpKind::Eq, r, zero);
        assert!(matches!(
            check(&mut p, &[read0, not5], 10_000),
            SatOutcome::Sat(_)
        ));
        assert_eq!(check(&mut p, &[read0, hit12], 10_000), SatOutcome::Unsat);
    }

    #[test]
    fn default_value_tie_goes_to_the_lowest_reachable_cell() {
        let cells = |init: &[u64]| ArrayDecl {
            name: "V".into(),
            len: init.len() as u64,
            elem_bits: 8,
            init: Some(init.to_vec()),
        };
        let all = KnownBits::UNKNOWN;
        // 7 and 3 both hold two cells; 7 is met first.
        let (default, exceptions) = split_cells(&cells(&[7, 3, 3, 7, 1]), all);
        assert_eq!(default, 7);
        assert_eq!(exceptions, [(1, 3), (2, 3), (4, 1)]);
        // Only odd cells reachable: 3 (cell 1) comes before 7 (cell 3).
        let odd = KnownBits { zeros: 0, ones: 1 };
        let (default, exceptions) = split_cells(&cells(&[7, 3, 3, 7, 1, 8]), odd);
        assert_eq!(default, 3);
        assert_eq!(exceptions, [(3, 7), (5, 8)]);
        // The same contents always give the same split.
        for _ in 0..8 {
            let d = split_cells(&cells(&[9, 4, 4, 9, 2, 2]), all);
            assert_eq!(d, (9, vec![(1, 4), (2, 4), (4, 2), (5, 2)]));
        }
        // A majority wins over the first cell.
        assert_eq!(split_cells(&cells(&[1, 2, 2]), all).0, 2);
    }

    #[test]
    fn chain_cost_scales_with_length() {
        // Same array, growing symbolic write chains: stores_traversed grows.
        let mut costs = Vec::new();
        for n in [1usize, 4, 16] {
            let mut p = ExprPool::new();
            let mut arr = p.array("V", 8, 32, None);
            for k in 0..n {
                let i = p.var(format!("i{k}"), 64);
                let v = p.bv_const(k as u64, 32);
                arr = p.write(arr, i, v);
            }
            let j = p.var("j", 64);
            let r = p.read(arr, j);
            let zero = p.bv_const(0, 32);
            let eq = p.cmp(CmpKind::Eq, r, zero);
            let mut elim = Eliminator::new();
            elim.rewrite(&mut p, eq, 10_000, &mut Vec::new()).unwrap();
            costs.push(elim.stats().stores_traversed);
        }
        assert!(costs[0] < costs[1] && costs[1] < costs[2], "{costs:?}");
    }

    #[test]
    fn concrete_chain_costs_nothing() {
        let mut p = ExprPool::new();
        let arr = p.array("V", 256, 32, None);
        let i0 = p.bv_const(3, 64);
        let v0 = p.bv_const(77, 32);
        let w = p.write(arr, i0, v0);
        let r = p.read(w, i0); // folds in the pool already
        assert_eq!(p.as_const(r), Some(77));
        let c = p.bool_const(true);
        let mut elim = Eliminator::new();
        elim.rewrite(&mut p, c, 10, &mut Vec::new()).unwrap();
        assert_eq!(elim.stats().cells, 0);
    }

    #[test]
    fn shared_reads_reuse_the_same_fresh_var() {
        let mut p = ExprPool::new();
        let arr = p.array("V", 4, 32, None);
        let i = p.var("i", 64);
        let r1 = p.read(arr, i);
        let r2 = p.read(arr, i);
        assert_eq!(r1, r2, "hash consing");
        let diff = p.ne(r1, r2);
        // r1 != r2 is trivially UNSAT.
        assert_eq!(check(&mut p, &[diff], 100), SatOutcome::Unsat);
    }
}
