//! Array-theory elimination.
//!
//! `Read(Write(...), i)` chains become ITE chains (one comparison per
//! store), and reads of base arrays at symbolic indices become fresh
//! variables constrained by one axiom per array cell. Elimination work is
//! therefore proportional to **write-chain length × array size** — the two
//! constraint-complexity sources §3.3.1 of the paper identifies — and a
//! configurable cell budget turns excessive work into a reported *stall*
//! instead of an unbounded solve.

use crate::expr::{ArrayNode, ArrayRef, ExprPool, ExprRef, Node};
use crate::hash::FxHashMap;
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
                let decl = pool.array_decl(id).clone();
                if let Some(k) = pool.as_const(idx) {
                    let v = decl
                        .init
                        .as_ref()
                        .map(|init| init.get(k as usize).copied().unwrap_or(0))
                        .unwrap_or(0);
                    return Ok(pool.bv_const(v, decl.elem_bits));
                }
                if let Some(&var) = self.base_reads.get(&(id, idx)) {
                    return Ok(var);
                }
                self.stats.cells += decl.len;
                if self.stats.cells > max_cells {
                    return Err(ArrayBudgetExceeded {
                        cells: self.stats.cells,
                        budget: max_cells,
                    });
                }
                let fresh = pool.var(format!("{}[{}]", decl.name, idx), decl.elem_bits);
                self.base_reads.insert((id, idx), fresh);
                if let Some(scope) = &mut self.scope {
                    scope.base_read_keys.push((id, idx));
                }
                // One axiom per cell: (idx == k) -> fresh == init[k].
                let idx_bits = pool.sort(idx).bits();
                for k in 0..decl.len {
                    let kv = pool.bv_const(k, idx_bits);
                    let hit = pool.cmp(crate::expr::CmpKind::Eq, idx, kv);
                    let nhit = pool.not(hit);
                    let v = decl
                        .init
                        .as_ref()
                        .map(|init| init.get(k as usize).copied().unwrap_or(0))
                        .unwrap_or(0);
                    let cv = pool.bv_const(v, decl.elem_bits);
                    let eqv = pool.cmp(crate::expr::CmpKind::Eq, fresh, cv);
                    let ax = pool.or(nhit, eqv);
                    axioms.push(ax);
                }
                // In-bounds axiom: the memory model faults on out-of-range
                // accesses, and the trace says this access did not fault.
                let len_v = pool.bv_const(decl.len, idx_bits);
                let inb = pool.cmp(crate::expr::CmpKind::Ult, idx, len_v);
                axioms.push(inb);
                Ok(fresh)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitblast::BitBlaster;
    use crate::expr::CmpKind;
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
