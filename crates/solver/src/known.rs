//! Known bits: the bits of a bitvector node that every assignment agrees on.
//!
//! [`ExprPool`](crate::expr::ExprPool) computes them once per node, when the
//! node is interned, from the known bits of its operands. The rules follow
//! LLVM's `KnownBits`. They are sound, not complete: a bit left unknown may
//! still be constant. The only consumer is the `Eq` fold in
//! [`crate::simplify::fold_cmp`]: two sides that disagree on a known bit
//! can never be equal, which is what decides most of the per-cell index
//! comparisons array elimination would otherwise hand to the bit-blaster.

use crate::expr::{BvOp, ExprRef, Node, Sort};

/// Bits known to be 0 (`zeros`) and known to be 1 (`ones`) in every
/// assignment. Both masks stay within the node's width and never overlap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KnownBits {
    /// Bits known to be 0.
    pub zeros: u64,
    /// Bits known to be 1.
    pub ones: u64,
}

impl KnownBits {
    /// Nothing known.
    pub const UNKNOWN: KnownBits = KnownBits { zeros: 0, ones: 0 };

    /// Every bit of `value` known, at the width `mask` covers.
    fn constant(value: u64, mask: u64) -> KnownBits {
        KnownBits {
            zeros: !value & mask,
            ones: value & mask,
        }
    }

    /// Whether `value` agrees with every known bit.
    pub fn admits(self, value: u64) -> bool {
        value & self.zeros == 0 && value & self.ones == self.ones
    }

    /// Whether some bit is known 1 on one side and known 0 on the other, so
    /// the two values can never be equal.
    pub fn conflicts(self, other: KnownBits) -> bool {
        (self.ones & other.zeros) | (self.zeros & other.ones) != 0
    }

    /// The value, if every bit under `mask` is known.
    fn value(self, mask: u64) -> Option<u64> {
        (self.zeros | self.ones == mask).then_some(self.ones)
    }

    /// What holds on both sides of a choice.
    fn meet(self, other: KnownBits) -> KnownBits {
        KnownBits {
            zeros: self.zeros & other.zeros,
            ones: self.ones & other.ones,
        }
    }

    /// `a + b + carry`, after LLVM's `KnownBits::computeForAddCarry`: the
    /// sum of the largest possible operands and the sum of the smallest
    /// bound the carry into each bit; where both bounds agree and both
    /// operand bits are known, the sum bit is known.
    fn add_carry(a: KnownBits, b: KnownBits, carry: bool, mask: u64) -> KnownBits {
        let max_sum = (!a.zeros & mask)
            .wrapping_add(!b.zeros & mask)
            .wrapping_add(u64::from(carry));
        let min_sum = a.ones.wrapping_add(b.ones).wrapping_add(u64::from(carry));
        let carry_zero = !(max_sum ^ a.zeros ^ b.zeros);
        let carry_one = min_sum ^ a.ones ^ b.ones;
        let known = (a.zeros | a.ones) & (b.zeros | b.ones) & (carry_zero | carry_one) & mask;
        KnownBits {
            zeros: !max_sum & known,
            ones: min_sum & known,
        }
    }
}

/// Mask of the low `n` bits, `n <= 64`.
fn low_mask(n: u32) -> u64 {
    if n >= 64 {
        u64::MAX
    } else {
        (1u64 << n) - 1
    }
}

/// The known bits of `node` of sort `sort`, given the sort and known bits
/// of each operand through `operand`.
pub(crate) fn transfer(
    node: &Node,
    sort: Sort,
    operand: impl Fn(ExprRef) -> (Sort, KnownBits),
) -> KnownBits {
    let mask = sort.mask();
    let known = |e| operand(e).1;
    match *node {
        Node::Const { value, .. } => KnownBits::constant(value, mask),
        Node::BoolConst(b) => KnownBits::constant(u64::from(b), mask),
        Node::Bin { op, a, b } => bin(op, known(a), known(b), sort.bits()),
        Node::Ite { then_e, else_e, .. } => known(then_e).meet(known(else_e)),
        Node::ZExt { a, .. } => {
            let (inner, k) = operand(a);
            KnownBits {
                zeros: k.zeros | (mask & !inner.mask()),
                ones: k.ones,
            }
        }
        Node::Trunc { a, .. } => {
            let k = known(a);
            KnownBits {
                zeros: k.zeros & mask,
                ones: k.ones & mask,
            }
        }
        Node::BoolToBv { .. } => KnownBits {
            zeros: mask & !1,
            ones: 0,
        },
        Node::Var { .. }
        | Node::Read { .. }
        | Node::Cmp { .. }
        | Node::Not(_)
        | Node::AndB(..)
        | Node::OrB(..) => KnownBits::UNKNOWN,
    }
}

/// Known bits of `a op b` at width `bits`.
fn bin(op: BvOp, a: KnownBits, b: KnownBits, bits: u32) -> KnownBits {
    let mask = low_mask(bits);
    match op {
        BvOp::And => KnownBits {
            zeros: a.zeros | b.zeros,
            ones: a.ones & b.ones,
        },
        BvOp::Or => KnownBits {
            zeros: a.zeros & b.zeros,
            ones: a.ones | b.ones,
        },
        BvOp::Xor => KnownBits {
            zeros: (a.zeros & b.zeros) | (a.ones & b.ones),
            ones: (a.zeros & b.ones) | (a.ones & b.zeros),
        },
        BvOp::Add => KnownBits::add_carry(a, b, false, mask),
        // a - b = a + !b + 1.
        BvOp::Sub => {
            let not_b = KnownBits {
                zeros: b.ones,
                ones: b.zeros,
            };
            KnownBits::add_carry(a, not_b, true, mask)
        }
        // Trailing zeros add up; nothing above them is known.
        BvOp::Mul => KnownBits {
            zeros: low_mask(a.zeros.trailing_ones() + b.zeros.trailing_ones()) & mask,
            ones: 0,
        },
        BvOp::Shl | BvOp::LShr => {
            let Some(amount) = b.value(mask) else {
                return KnownBits::UNKNOWN;
            };
            let sh = (amount % u64::from(bits)) as u32;
            if op == BvOp::Shl {
                KnownBits {
                    zeros: ((a.zeros << sh) | low_mask(sh)) & mask,
                    ones: (a.ones << sh) & mask,
                }
            } else {
                KnownBits {
                    zeros: (a.zeros >> sh) | (mask & !(mask >> sh)),
                    ones: a.ones >> sh,
                }
            }
        }
        BvOp::UDiv | BvOp::URem | BvOp::AShr => KnownBits::UNKNOWN,
    }
}
