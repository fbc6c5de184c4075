//! Algebraic simplification rules applied by [`ExprPool`] constructors.
//!
//! Folding keeps the DAG small during shepherded symbolic execution — on a
//! mostly-concrete path (the common case once key data values are recorded)
//! almost everything folds away and the solver is never invoked, which is
//! exactly why recording a handful of values collapses the paper's stalls.

use crate::expr::{ArrayNode, BvOp, CmpKind, ExprPool, ExprRef, Node, Sort};

/// Folds a binary bitvector operation if a rule applies.
pub fn fold_bin(pool: &mut ExprPool, op: BvOp, a: ExprRef, b: ExprRef) -> Option<ExprRef> {
    let bits = pool.sort(a).bits();
    let ca = pool.as_const(a);
    let cb = pool.as_const(b);
    if let (Some(x), Some(y)) = (ca, cb) {
        return Some(pool.bv_const(op.eval(bits, x, y), bits));
    }
    match (op, ca, cb) {
        // x + 0, x - 0, x | 0, x ^ 0, x << 0, x >> 0
        (
            BvOp::Add | BvOp::Sub | BvOp::Or | BvOp::Xor | BvOp::Shl | BvOp::LShr | BvOp::AShr,
            _,
            Some(0),
        ) => Some(a),
        // 0 + x, 0 | x, 0 ^ x
        (BvOp::Add | BvOp::Or | BvOp::Xor, Some(0), _) => Some(b),
        // x * 0, 0 * x, x & 0, 0 & x, 0 << x, 0 >> x, 0 / x, 0 % x
        (BvOp::Mul | BvOp::And, _, Some(0))
        | (BvOp::Mul | BvOp::And | BvOp::Shl | BvOp::LShr | BvOp::UDiv | BvOp::URem, Some(0), _) => {
            Some(pool.bv_const(0, bits))
        }
        // x * 1, 1 * x, x / 1
        (BvOp::Mul | BvOp::UDiv, _, Some(1)) => Some(a),
        (BvOp::Mul, Some(1), _) => Some(b),
        // x % 1
        (BvOp::URem, _, Some(1)) => Some(pool.bv_const(0, bits)),
        // x & all-ones, all-ones & x
        (BvOp::And, _, Some(m)) if m == Sort::Bv(bits).mask() => Some(a),
        (BvOp::And, Some(m), _) if m == Sort::Bv(bits).mask() => Some(b),
        // x | all-ones
        (BvOp::Or, _, Some(m)) | (BvOp::Or, Some(m), _) if m == Sort::Bv(bits).mask() => {
            Some(pool.bv_const(m, bits))
        }
        _ => {
            if a == b {
                match op {
                    BvOp::Sub | BvOp::Xor => Some(pool.bv_const(0, bits)),
                    BvOp::And | BvOp::Or => Some(a),
                    _ => None,
                }
            } else {
                None
            }
        }
    }
}

/// Folds a comparison if a rule applies.
pub fn fold_cmp(pool: &mut ExprPool, op: CmpKind, a: ExprRef, b: ExprRef) -> Option<ExprRef> {
    let bits = pool.sort(a).bits();
    if let (Some(x), Some(y)) = (pool.as_const(a), pool.as_const(b)) {
        return Some(pool.bool_const(op.eval(bits, x, y)));
    }
    if a == b {
        return Some(pool.bool_const(matches!(op, CmpKind::Eq | CmpKind::Ule | CmpKind::Sle)));
    }
    // Sides that disagree on a known bit are never equal.
    if op == CmpKind::Eq && pool.known_bits(a).conflicts(pool.known_bits(b)) {
        return Some(pool.bool_const(false));
    }
    match (op, pool.as_const(b)) {
        // unsigned x < 0 is false; x <= max is true; x >= 0 via Ule(0, x).
        (CmpKind::Ult, Some(0)) => Some(pool.bool_const(false)),
        (CmpKind::Ule, Some(m)) if m == Sort::Bv(bits).mask() => Some(pool.bool_const(true)),
        _ => match (op, pool.as_const(a)) {
            (CmpKind::Ule, Some(0)) => Some(pool.bool_const(true)),
            (CmpKind::Ult, Some(m)) if m == Sort::Bv(bits).mask() => Some(pool.bool_const(false)),
            _ => None,
        },
    }
}

/// Folds `Read(arr, index)` when it can be resolved without the solver:
/// walks the store chain as long as indices compare concretely, and reads
/// base-array initial contents for concrete indices.
pub fn fold_read(
    pool: &mut ExprPool,
    arr: crate::expr::ArrayRef,
    index: ExprRef,
) -> Option<ExprRef> {
    let idx = pool.as_const(index)?;
    let mut cur = arr;
    loop {
        match pool.array_node(cur).clone() {
            ArrayNode::Store {
                arr: below,
                index: si,
                value,
            } => {
                match pool.as_const(si) {
                    Some(s) if s == idx => return Some(value),
                    Some(_) => cur = below, // definitely a different slot
                    None => return None,    // symbolic store index: can't skip
                }
            }
            ArrayNode::Base(id) => {
                let decl = pool.array_decl(id);
                if idx >= decl.len {
                    // Out-of-range reads are left symbolic; the memory model
                    // upstream faults before building them, but stay safe.
                    return None;
                }
                let bits = decl.elem_bits;
                let v = decl.init_value(idx);
                return Some(pool.bv_const(v, bits));
            }
        }
    }
}

/// Recursively evaluates `e` with every variable bound by `lookup` and
/// arrays resolved against their declared initial contents. Used by model
/// validation and property tests; not a hot path.
pub fn eval_concrete(
    pool: &ExprPool,
    e: ExprRef,
    lookup: &dyn Fn(crate::expr::VarId) -> u64,
) -> u64 {
    match pool.node(e) {
        Node::Const { value, .. } => *value,
        Node::BoolConst(b) => u64::from(*b),
        Node::Var { id, bits } => lookup(*id) & Sort::Bv(*bits).mask(),
        Node::Bin { op, a, b } => {
            let bits = pool.sort(*a).bits();
            op.eval(
                bits,
                eval_concrete(pool, *a, lookup),
                eval_concrete(pool, *b, lookup),
            )
        }
        Node::Cmp { op, a, b } => {
            let bits = pool.sort(*a).bits();
            u64::from(op.eval(
                bits,
                eval_concrete(pool, *a, lookup),
                eval_concrete(pool, *b, lookup),
            ))
        }
        Node::Not(a) => u64::from(eval_concrete(pool, *a, lookup) == 0),
        Node::AndB(a, b) => {
            u64::from(eval_concrete(pool, *a, lookup) != 0 && eval_concrete(pool, *b, lookup) != 0)
        }
        Node::OrB(a, b) => {
            u64::from(eval_concrete(pool, *a, lookup) != 0 || eval_concrete(pool, *b, lookup) != 0)
        }
        Node::Ite {
            cond,
            then_e,
            else_e,
        } => {
            if eval_concrete(pool, *cond, lookup) != 0 {
                eval_concrete(pool, *then_e, lookup)
            } else {
                eval_concrete(pool, *else_e, lookup)
            }
        }
        Node::ZExt { a, .. } => eval_concrete(pool, *a, lookup),
        Node::Trunc { a, bits } => eval_concrete(pool, *a, lookup) & Sort::Bv(*bits).mask(),
        Node::BoolToBv { a, bits } => {
            u64::from(eval_concrete(pool, *a, lookup) != 0) & Sort::Bv(*bits).mask()
        }
        Node::Read { arr, index } => {
            let idx = eval_concrete(pool, *index, lookup);
            eval_array(pool, *arr, idx, lookup)
        }
    }
}

fn eval_array(
    pool: &ExprPool,
    arr: crate::expr::ArrayRef,
    idx: u64,
    lookup: &dyn Fn(crate::expr::VarId) -> u64,
) -> u64 {
    match pool.array_node(arr) {
        ArrayNode::Store { arr, index, value } => {
            if eval_concrete(pool, *index, lookup) == idx {
                eval_concrete(pool, *value, lookup)
            } else {
                eval_array(pool, *arr, idx, lookup)
            }
        }
        ArrayNode::Base(id) => pool.array_decl(*id).init_value(idx),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::ExprPool;

    #[test]
    fn identity_rules() {
        let mut p = ExprPool::new();
        let x = p.var("x", 32);
        let zero = p.bv_const(0, 32);
        let one = p.bv_const(1, 32);
        assert_eq!(p.bin(BvOp::Add, x, zero), x);
        assert_eq!(p.bin(BvOp::Mul, x, one), x);
        let mul0 = p.bin(BvOp::Mul, x, zero);
        assert_eq!(p.as_const(mul0), Some(0));
    }

    #[test]
    fn self_rules() {
        let mut p = ExprPool::new();
        let x = p.var("x", 32);
        let sub = p.bin(BvOp::Sub, x, x);
        assert_eq!(p.as_const(sub), Some(0));
        let and = p.bin(BvOp::And, x, x);
        assert_eq!(and, x);
        let eq = p.cmp(CmpKind::Eq, x, x);
        assert_eq!(p.as_const(eq), Some(1));
    }

    #[test]
    fn unsigned_bounds() {
        let mut p = ExprPool::new();
        let x = p.var("x", 8);
        let zero = p.bv_const(0, 8);
        let max = p.bv_const(0xff, 8);
        let lt0 = p.cmp(CmpKind::Ult, x, zero);
        assert_eq!(p.as_const(lt0), Some(0));
        let lemax = p.cmp(CmpKind::Ule, x, max);
        assert_eq!(p.as_const(lemax), Some(1));
    }

    #[test]
    fn eval_concrete_matches_ops() {
        let mut p = ExprPool::new();
        let x = p.var("x", 16);
        let y = p.var("y", 16);
        let s = p.bin(BvOp::Mul, x, y);
        let c = p.cmp(CmpKind::Ult, s, x);
        let v = eval_concrete(&p, c, &|_| 300);
        // 300*300 = 90000 & 0xffff = 24464; 24464 < 300 is false.
        assert_eq!(v, 0);
    }

    #[test]
    fn eval_reads_through_stores() {
        let mut p = ExprPool::new();
        let arr = p.array("A", 8, 32, Some(vec![1, 2, 3, 4, 5, 6, 7, 8]));
        let i = p.var("i", 64);
        let v99 = p.bv_const(99, 32);
        let w = p.write(arr, i, v99);
        let j = p.bv_const(3, 64);
        let r = p.read(w, j);
        // With i = 3 the store hits; with i = 0 it misses.
        assert_eq!(eval_concrete(&p, r, &|_| 3), 99);
        assert_eq!(eval_concrete(&p, r, &|_| 0), 4);
    }
}
