//! Unsigned bounds: an interval that holds every value of an expression.
//!
//! Address resolution asks whether a symbolic address can leave its
//! object. When every value the address can take lies inside the object,
//! the solver's answer is "no" on every path, and [`unsigned_bound`] often
//! shows it from the address's shape alone: `base + (x & 31) * 8` lies in
//! `[base, base + 248]`. Known bits cannot: the low bits of `x & 31` are
//! unknown, so its known bits bound nothing above `base + 255`.
//!
//! The rules are sound, not complete; anything they do not cover has the
//! full range of its width, and so does any node the walk does not reach
//! within [`MAX_DEPTH`] levels.

use crate::expr::{BvOp, ExprPool, ExprRef, Node};
use crate::hash::FxHashMap;

/// Levels below the root the walk looks at; deeper nodes have the full
/// range.
pub const MAX_DEPTH: u32 = 64;

/// `(lo, hi)`, inclusive: every value `e` takes at its width, under any
/// assignment, lies in `lo..=hi`.
pub fn unsigned_bound(pool: &ExprPool, e: ExprRef) -> (u64, u64) {
    bound(
        pool,
        e,
        MAX_DEPTH,
        &mut FxHashMap::with_capacity_and_hasher(16, Default::default()),
    )
}

fn bound(
    pool: &ExprPool,
    e: ExprRef,
    depth: u32,
    memo: &mut FxHashMap<ExprRef, (u64, u64)>,
) -> (u64, u64) {
    let mask = pool.sort(e).mask();
    let full = (0, mask);
    if depth == 0 {
        return full;
    }
    if let Some(&b) = memo.get(&e) {
        return b;
    }
    let mut sub = |x: ExprRef| bound(pool, x, depth - 1, memo);
    // The range of a monotone operation, or the full range if its largest
    // value wraps at the node's width.
    let unwrapped = |lo: u128, hi: u128| {
        if hi <= u128::from(mask) {
            (lo as u64, hi as u64)
        } else {
            full
        }
    };
    let b = match *pool.node(e) {
        Node::Const { value, .. } => (value, value),
        Node::ZExt { a, .. } => sub(a),
        Node::Trunc { a, .. } => {
            let (lo, hi) = sub(a);
            if hi <= mask {
                (lo, hi)
            } else {
                full
            }
        }
        Node::Bin { op, a, b } => {
            let shift = pool
                .as_const(b)
                .map(|s| (s % u64::from(pool.sort(a).bits())) as u32);
            match (op, shift) {
                (BvOp::Add, _) => {
                    let ((la, ha), (lb, hb)) = (sub(a), sub(b));
                    unwrapped(
                        u128::from(la) + u128::from(lb),
                        u128::from(ha) + u128::from(hb),
                    )
                }
                (BvOp::Mul, _) => {
                    let ((la, ha), (lb, hb)) = (sub(a), sub(b));
                    unwrapped(
                        u128::from(la) * u128::from(lb),
                        u128::from(ha) * u128::from(hb),
                    )
                }
                (BvOp::And, _) => {
                    let ((_, ha), (_, hb)) = (sub(a), sub(b));
                    (0, ha.min(hb))
                }
                (BvOp::Shl, Some(s)) => {
                    let (lo, hi) = sub(a);
                    unwrapped(u128::from(lo) << s, u128::from(hi) << s)
                }
                (BvOp::LShr, Some(s)) => {
                    let (lo, hi) = sub(a);
                    (lo >> s, hi >> s)
                }
                _ => full,
            }
        }
        Node::Ite { then_e, else_e, .. } => {
            let ((lt, ht), (le, he)) = (sub(then_e), sub(else_e));
            (lt.min(le), ht.max(he))
        }
        _ => full,
    };
    memo.insert(e, b);
    b
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_masked_scaled_index_is_bounded() {
        let mut pool = ExprPool::new();
        let x = pool.var("x", 64);
        let m31 = pool.bv_const(31, 64);
        let eight = pool.bv_const(8, 64);
        let base = pool.bv_const(0x1000, 64);
        let masked = pool.bin(BvOp::And, x, m31);
        let scaled = pool.bin(BvOp::Mul, masked, eight);
        let addr = pool.bin(BvOp::Add, base, scaled);
        assert_eq!(unsigned_bound(&pool, addr), (0x1000, 0x1000 + 248));
    }

    #[test]
    fn a_variable_has_the_full_range() {
        let mut pool = ExprPool::new();
        let x = pool.var("x", 16);
        assert_eq!(unsigned_bound(&pool, x), (0, 0xffff));
    }
}
