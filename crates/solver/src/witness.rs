//! Answering "is this address unique?" with a concrete witness.
//!
//! Address resolution asks whether `path ∧ e != v` is satisfiable, where
//! `v` is the value of `e` under a model of the path. A model of that
//! formula near the first one usually exists: flip one bit of one variable
//! under `e`. [`find_witness`] tries such flips, low bits first, and
//! accepts an assignment only if it is a model of the whole formula the
//! solver would be handed (KLEE's counterexample cache idea, Cadar, Dunbar
//! & Engler, OSDI 2008):
//!
//! - `e` evaluates to something other than `v`;
//! - every path constraint evaluates true;
//! - every read reachable from the path and from `e` whose index is not a
//!   constant has its index below its base array's length. These are the
//!   in-bounds axioms [`Eliminator`](crate::arrays::Eliminator) emits.
//!   The walk covers both arms of every `Ite` and the index and value of
//!   every store in a read's chain, as the eliminator's rewrite does.
//!
//! The eliminator's other axioms (a read's fresh variable holds the cell
//! its index names) hold by construction: the evaluator reads cells the
//! same way. So an accepted assignment, extended with those cell values,
//! satisfies the formula, and the solver's answer would have been "not
//! unique" too. When no flip qualifies the caller asks the solver.
//!
//! [`Model::eval`] cannot serve here: it skips the in-bounds axioms and
//! re-walks shared DAG nodes. This evaluator walks each node once under
//! the model, remembering which of the tried variables it depends on, and
//! each try re-evaluates only the nodes below the flipped variable.

use crate::expr::{ArrayNode, ExprPool, ExprRef, Node, Sort, VarId};
use crate::hash::FxHashMap;
use crate::solve::Model;

/// Assignments [`find_witness`] tries before it leaves the question to the
/// solver.
pub const MAX_TRIES: usize = 64;

/// A witness: the model it was found near, with `var` set to `value`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Flip {
    /// The variable whose bit was flipped.
    pub var: VarId,
    /// Its value in the witness.
    pub value: u64,
}

impl Flip {
    /// The witness as a whole model: `model` with the flip applied.
    pub fn apply(self, model: &Model) -> Model {
        let mut witness = model.clone();
        witness.set(self.var, self.value);
        witness
    }
}

/// A model of `path ∧ e != v ∧` the in-bounds axioms of every read below
/// them, one bit away from `model` in one variable under `e`, if one of
/// the first [`MAX_TRIES`] flips (low bits first, variables in the order
/// the walk of `e` meets them) is one. `model` must satisfy `path`, and
/// `v` is `e`'s value under it.
pub fn find_witness(
    pool: &ExprPool,
    path: &[ExprRef],
    e: ExprRef,
    v: u64,
    model: &Model,
) -> Option<Flip> {
    let mut search = Search::new(pool, model);
    search.walk_base(e, true);
    if search.vars.is_empty() {
        return None;
    }
    // A constraint no flip reaches keeps the value and the in-bounds
    // axioms it has under `model`, which satisfies it. The variable masks
    // rule most of them out without a walk.
    let under_e = pool.var_mask(e);
    let mut reached = Vec::new();
    for &c in path {
        if pool.var_mask(c) & under_e != 0 {
            search.walk_base(c, false);
            if search.base[&c].deps != 0 {
                reached.push(c);
            }
        }
    }
    let widest = search.vars.iter().map(|&(_, bits)| bits).max().unwrap_or(0);
    let mut tries = 0;
    for bit in 0..widest {
        for slot in 0..search.vars.len() {
            let (var, bits) = search.vars[slot];
            if bit >= bits {
                continue;
            }
            if tries == MAX_TRIES {
                return None;
            }
            tries += 1;
            let value = (model.value(var) & Sort::Bv(bits).mask()) ^ (1 << bit);
            search.flip(slot, value);
            let (moved, ok) = search.eval(e);
            if ok && moved != v && reached.iter().all(|&c| search.eval(c) == (1, true)) {
                return Some(Flip { var, value });
            }
        }
    }
    None
}

/// What the evaluator learned about a node under the unflipped model.
#[derive(Debug, Clone, Copy)]
struct Base {
    value: u64,
    /// Whether every read at or below the node is in bounds.
    ok: bool,
    /// The tried variables at or below the node, one bit per slot.
    deps: u64,
}

struct Search<'a> {
    pool: &'a ExprPool,
    model: &'a Model,
    /// The variables under `e`, in the order its walk meets them, at most
    /// 64; a variable's slot is its position here.
    vars: Vec<(VarId, u32)>,
    base: FxHashMap<ExprRef, Base>,
    /// The current try: the flipped slot and its value.
    flipped: (usize, u64),
    /// Nodes below the flipped variable, under the current try; cleared
    /// between tries, its storage kept.
    memo: FxHashMap<ExprRef, (u64, bool)>,
    /// Scratch for the post-order walks.
    stack: Vec<(ExprRef, bool)>,
    kids: Vec<ExprRef>,
}

impl<'a> Search<'a> {
    fn new(pool: &'a ExprPool, model: &'a Model) -> Self {
        Search {
            pool,
            model,
            vars: Vec::new(),
            // Sized for a typical address and the few constraints it
            // shares a variable with, so that small walks do not regrow.
            base: FxHashMap::with_capacity_and_hasher(64, Default::default()),
            flipped: (0, 0),
            memo: FxHashMap::with_capacity_and_hasher(32, Default::default()),
            stack: Vec::with_capacity(64),
            kids: Vec::with_capacity(16),
        }
    }

    /// Evaluates every node under `root` not yet walked under the model.
    /// The walk of `e` (`slots`) gives each variable it meets a slot.
    fn walk_base(&mut self, root: ExprRef, slots: bool) {
        let Search {
            pool,
            model,
            vars,
            base,
            stack,
            kids,
            ..
        } = self;
        stack.push((root, false));
        while let Some((n, expanded)) = stack.pop() {
            if base.contains_key(&n) {
                continue;
            }
            operands(pool, n, kids);
            if !expanded {
                stack.push((n, true));
                stack.extend(kids.iter().map(|&k| (k, false)));
                continue;
            }
            let mut deps = kids.iter().fold(0, |d, k| d | base[k].deps);
            let (value, ok) = match *pool.node(n) {
                Node::Var { id, bits } => {
                    // The walk of `e` comes first, so it meets every
                    // variable under `e`; later walks meet only the others.
                    if slots && vars.len() < 64 {
                        deps |= 1 << vars.len();
                        vars.push((id, bits));
                    }
                    (model.value(id), true)
                }
                _ => node_value(pool, n, |k| {
                    let b = base[&k];
                    (b.value, b.ok)
                }),
            };
            let value = value & pool.sort(n).mask();
            base.insert(n, Base { value, ok, deps });
        }
    }

    /// Starts a try: slot `slot` takes `value`.
    fn flip(&mut self, slot: usize, value: u64) {
        self.flipped = (slot, value);
        self.memo.clear();
    }

    /// `(value, in bounds)` of `root`, already walked, under the current
    /// try.
    fn eval(&mut self, root: ExprRef) -> (u64, bool) {
        let Search {
            pool,
            vars,
            base,
            flipped: (slot, flip_value),
            memo,
            stack,
            kids,
            ..
        } = self;
        let bit = 1u64 << *slot;
        let clean = |n: &ExprRef| base[n].deps & bit == 0;
        stack.push((root, false));
        while let Some((n, expanded)) = stack.pop() {
            if clean(&n) || memo.contains_key(&n) {
                continue;
            }
            if !expanded {
                operands(pool, n, kids);
                stack.push((n, true));
                stack.extend(kids.iter().map(|&k| (k, false)));
                continue;
            }
            let (value, ok) = match *pool.node(n) {
                // The only variable below the flip that is not clean.
                Node::Var { id, .. } => {
                    debug_assert_eq!(id, vars[*slot].0);
                    (*flip_value, true)
                }
                _ => node_value(pool, n, |k| {
                    if clean(&k) {
                        let b = base[&k];
                        (b.value, b.ok)
                    } else {
                        memo[&k]
                    }
                }),
            };
            memo.insert(n, (value & pool.sort(n).mask(), ok));
        }
        if clean(&root) {
            let b = base[&root];
            (b.value, b.ok)
        } else {
            memo[&root]
        }
    }
}

/// The nodes `n`'s value and in-bounds flag are computed from: its
/// operands, and for a read its index plus the index and value of every
/// store in its chain, top down.
fn operands(pool: &ExprPool, n: ExprRef, out: &mut Vec<ExprRef>) {
    out.clear();
    match *pool.node(n) {
        Node::Const { .. } | Node::BoolConst(_) | Node::Var { .. } => {}
        Node::Bin { a, b, .. } | Node::Cmp { a, b, .. } | Node::AndB(a, b) | Node::OrB(a, b) => {
            out.extend([a, b]);
        }
        Node::Not(a) | Node::ZExt { a, .. } | Node::Trunc { a, .. } | Node::BoolToBv { a, .. } => {
            out.push(a);
        }
        Node::Ite {
            cond,
            then_e,
            else_e,
        } => out.extend([cond, then_e, else_e]),
        Node::Read { mut arr, index } => {
            out.push(index);
            while let ArrayNode::Store {
                arr: below,
                index,
                value,
            } = *pool.array_node(arr)
            {
                out.extend([index, value]);
                arr = below;
            }
        }
    }
}

/// `(value, in bounds)` of a non-variable node from its operands' (`get`).
/// The value is not yet masked to the node's width.
fn node_value(pool: &ExprPool, n: ExprRef, get: impl Fn(ExprRef) -> (u64, bool)) -> (u64, bool) {
    let bits_of = |x: ExprRef| pool.sort(x).bits();
    match *pool.node(n) {
        Node::Const { value, .. } => (value, true),
        Node::BoolConst(b) => (u64::from(b), true),
        Node::Var { .. } => unreachable!("variables are looked up, not computed"),
        Node::Bin { op, a, b } => {
            let ((va, oa), (vb, ob)) = (get(a), get(b));
            (op.eval(bits_of(a), va, vb), oa && ob)
        }
        Node::Cmp { op, a, b } => {
            let ((va, oa), (vb, ob)) = (get(a), get(b));
            (u64::from(op.eval(bits_of(a), va, vb)), oa && ob)
        }
        Node::Not(a) => {
            let (va, oa) = get(a);
            (u64::from(va == 0), oa)
        }
        Node::AndB(a, b) => {
            let ((va, oa), (vb, ob)) = (get(a), get(b));
            (u64::from(va != 0 && vb != 0), oa && ob)
        }
        Node::OrB(a, b) => {
            let ((va, oa), (vb, ob)) = (get(a), get(b));
            (u64::from(va != 0 || vb != 0), oa && ob)
        }
        Node::Ite {
            cond,
            then_e,
            else_e,
        } => {
            let ((vc, oc), (vt, ot), (ve, oe)) = (get(cond), get(then_e), get(else_e));
            (if vc != 0 { vt } else { ve }, oc && ot && oe)
        }
        Node::ZExt { a, .. } | Node::Trunc { a, .. } => get(a),
        Node::BoolToBv { a, .. } => {
            let (va, oa) = get(a);
            (u64::from(va != 0), oa)
        }
        Node::Read { mut arr, index } => {
            let (idx, mut ok) = get(index);
            let mut hit = None;
            let id = loop {
                match *pool.array_node(arr) {
                    ArrayNode::Store {
                        arr: below,
                        index: si,
                        value,
                    } => {
                        let (vs, os) = get(si);
                        let (vv, ov) = get(value);
                        ok &= os && ov;
                        if hit.is_none() && vs == idx {
                            hit = Some(vv);
                        }
                        arr = below;
                    }
                    ArrayNode::Base(id) => break id,
                }
            };
            let decl = pool.array_decl(id);
            if pool.as_const(index).is_none() {
                // The in-bounds axiom compares at the index's width.
                ok &= idx < (decl.len & Sort::Bv(bits_of(index)).mask());
            }
            (hit.unwrap_or_else(|| decl.init_value(idx)), ok)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{BvOp, CmpKind};

    #[test]
    fn a_free_variable_moves_the_address() {
        let mut pool = ExprPool::new();
        let x = pool.var("x", 64);
        let m31 = pool.bv_const(31, 64);
        let masked = pool.bin(BvOp::And, x, m31);
        let model = Model::default();
        let w = find_witness(&pool, &[], masked, 0, &model).expect("bit 0 moves it");
        assert_eq!(w.apply(&model).eval(&pool, masked), 1);
    }

    #[test]
    fn a_pinned_variable_has_no_witness() {
        let mut pool = ExprPool::new();
        let x = pool.var("x", 8);
        let five = pool.bv_const(5, 8);
        let pin = pool.cmp(CmpKind::Eq, x, five);
        let mut model = Model::default();
        if let Node::Var { id, .. } = *pool.node(x) {
            model.set(id, 5);
        }
        assert!(find_witness(&pool, &[pin], x, 5, &model).is_none());
    }

    #[test]
    fn a_flip_that_breaks_the_path_is_skipped() {
        // x < 4: flipping bit 0 keeps it, bit 2 would not.
        let mut pool = ExprPool::new();
        let x = pool.var("x", 8);
        let four = pool.bv_const(4, 8);
        let lt = pool.cmp(CmpKind::Ult, x, four);
        let mut model = Model::default();
        if let Node::Var { id, .. } = *pool.node(x) {
            model.set(id, 3);
        }
        let w = find_witness(&pool, &[lt], x, 3, &model).expect("bit 0");
        assert_eq!(w.apply(&model).eval(&pool, x), 2);
    }
}
