//! Scalar widths and wrapping machine arithmetic.
//!
//! IR registers hold `u64` values; every operation carries a [`Width`] and
//! wraps modulo 2^width, exactly like machine registers. The symbolic
//! executor mirrors these semantics bit-for-bit so that a model produced by
//! the solver replays identically on the concrete interpreter.

use std::fmt;

/// Operand width in bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Width {
    /// 8-bit.
    W8,
    /// 16-bit.
    W16,
    /// 32-bit.
    W32,
    /// 64-bit.
    W64,
}

impl Width {
    /// Number of bits.
    #[inline]
    pub fn bits(self) -> u32 {
        match self {
            Width::W8 => 8,
            Width::W16 => 16,
            Width::W32 => 32,
            Width::W64 => 64,
        }
    }

    /// Number of bytes.
    #[inline]
    pub fn bytes(self) -> u64 {
        u64::from(self.bits() / 8)
    }

    /// Bit mask selecting the low `bits()` bits.
    #[inline]
    pub fn mask(self) -> u64 {
        match self {
            Width::W64 => u64::MAX,
            w => (1u64 << w.bits()) - 1,
        }
    }

    /// Truncates `v` to this width.
    #[inline]
    pub fn trunc(self, v: u64) -> u64 {
        v & self.mask()
    }

    /// Sign-extends the low `bits()` bits of `v` to 64 bits.
    #[inline]
    pub fn sext(self, v: u64) -> u64 {
        let b = self.bits();
        if b == 64 {
            return v;
        }
        let shift = 64 - b;
        (((v << shift) as i64) >> shift) as u64
    }

    /// Width with exactly `bits` bits, if one exists.
    pub fn from_bits(bits: u32) -> Option<Width> {
        match bits {
            8 => Some(Width::W8),
            16 => Some(Width::W16),
            32 => Some(Width::W32),
            64 => Some(Width::W64),
            _ => None,
        }
    }
}

impl fmt::Display for Width {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "i{}", self.bits())
    }
}

/// Binary operations on IR registers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// Wrapping addition.
    Add,
    /// Wrapping subtraction.
    Sub,
    /// Wrapping multiplication.
    Mul,
    /// Unsigned division. Divisor zero faults.
    UDiv,
    /// Unsigned remainder. Divisor zero faults.
    URem,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise xor.
    Xor,
    /// Left shift; shift amounts are taken modulo the width.
    Shl,
    /// Logical right shift; shift amounts are taken modulo the width.
    LShr,
    /// Arithmetic right shift; shift amounts are taken modulo the width.
    AShr,
}

impl BinOp {
    /// Evaluates the operation at `w`, wrapping. Returns `None` for division
    /// by zero (the interpreter turns that into a fault).
    #[inline]
    pub fn eval(self, w: Width, a: u64, b: u64) -> Option<u64> {
        let (a, b) = (w.trunc(a), w.trunc(b));
        let r = match self {
            BinOp::Add => a.wrapping_add(b),
            BinOp::Sub => a.wrapping_sub(b),
            BinOp::Mul => a.wrapping_mul(b),
            BinOp::UDiv => {
                if b == 0 {
                    return None;
                }
                a / b
            }
            BinOp::URem => {
                if b == 0 {
                    return None;
                }
                a % b
            }
            BinOp::And => a & b,
            BinOp::Or => a | b,
            BinOp::Xor => a ^ b,
            BinOp::Shl => a << (b % u64::from(w.bits())),
            BinOp::LShr => a >> (b % u64::from(w.bits())),
            BinOp::AShr => {
                let sh = b % u64::from(w.bits());
                w.trunc((w.sext(a) as i64 >> sh) as u64)
            }
        };
        Some(w.trunc(r))
    }
}

impl fmt::Display for BinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BinOp::Add => "add",
            BinOp::Sub => "sub",
            BinOp::Mul => "mul",
            BinOp::UDiv => "udiv",
            BinOp::URem => "urem",
            BinOp::And => "and",
            BinOp::Or => "or",
            BinOp::Xor => "xor",
            BinOp::Shl => "shl",
            BinOp::LShr => "lshr",
            BinOp::AShr => "ashr",
        };
        f.write_str(s)
    }
}

/// Comparison predicates; results are 0 or 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Unsigned less-than.
    Ult,
    /// Unsigned less-or-equal.
    Ule,
    /// Signed less-than.
    Slt,
    /// Signed less-or-equal.
    Sle,
}

impl CmpOp {
    /// Evaluates the predicate at width `w`.
    #[inline]
    pub fn eval(self, w: Width, a: u64, b: u64) -> bool {
        let (a, b) = (w.trunc(a), w.trunc(b));
        match self {
            CmpOp::Eq => a == b,
            CmpOp::Ne => a != b,
            CmpOp::Ult => a < b,
            CmpOp::Ule => a <= b,
            CmpOp::Slt => (w.sext(a) as i64) < (w.sext(b) as i64),
            CmpOp::Sle => (w.sext(a) as i64) <= (w.sext(b) as i64),
        }
    }

    /// The predicate testing the negation of `self`.
    pub fn negate(self) -> CmpOp {
        match self {
            CmpOp::Eq => CmpOp::Ne,
            CmpOp::Ne => CmpOp::Eq,
            // !(a < b) is b <= a: negation also swaps operands for orderings,
            // which this helper cannot express, so orderings map to their
            // complements with swapped operands handled by the caller.
            CmpOp::Ult => CmpOp::Ule,
            CmpOp::Ule => CmpOp::Ult,
            CmpOp::Slt => CmpOp::Sle,
            CmpOp::Sle => CmpOp::Slt,
        }
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CmpOp::Eq => "eq",
            CmpOp::Ne => "ne",
            CmpOp::Ult => "ult",
            CmpOp::Ule => "ule",
            CmpOp::Slt => "slt",
            CmpOp::Sle => "sle",
        };
        f.write_str(s)
    }
}

/// Unary operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnOp {
    /// Two's-complement negation.
    Neg,
    /// Bitwise not.
    Not,
    /// Boolean not: 0 becomes 1, nonzero becomes 0.
    LNot,
}

impl UnOp {
    /// Evaluates the operation at width `w`, wrapping.
    #[inline]
    pub fn eval(self, w: Width, a: u64) -> u64 {
        let a = w.trunc(a);
        let r = match self {
            UnOp::Neg => a.wrapping_neg(),
            UnOp::Not => !a,
            UnOp::LNot => u64::from(a == 0),
        };
        w.trunc(r)
    }
}

impl fmt::Display for UnOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            UnOp::Neg => "neg",
            UnOp::Not => "not",
            UnOp::LNot => "lnot",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn widths() {
        assert_eq!(Width::W8.mask(), 0xff);
        assert_eq!(Width::W64.mask(), u64::MAX);
        assert_eq!(Width::W16.trunc(0x1_2345), 0x2345);
        assert_eq!(Width::W8.sext(0x80), 0xffff_ffff_ffff_ff80);
        assert_eq!(Width::W8.sext(0x7f), 0x7f);
        assert_eq!(Width::from_bits(32), Some(Width::W32));
        assert_eq!(Width::from_bits(12), None);
    }

    #[test]
    fn add_wraps_at_width() {
        assert_eq!(BinOp::Add.eval(Width::W8, 0xff, 1), Some(0));
        assert_eq!(BinOp::Add.eval(Width::W32, u32::MAX as u64, 2), Some(1));
        assert_eq!(BinOp::Mul.eval(Width::W16, 0x8000, 2), Some(0));
    }

    #[test]
    fn division_by_zero_is_none() {
        assert_eq!(BinOp::UDiv.eval(Width::W32, 5, 0), None);
        assert_eq!(BinOp::URem.eval(Width::W32, 5, 0), None);
        assert_eq!(BinOp::UDiv.eval(Width::W32, 7, 2), Some(3));
    }

    #[test]
    fn shifts_mod_width() {
        assert_eq!(BinOp::Shl.eval(Width::W8, 1, 9), Some(2));
        assert_eq!(BinOp::LShr.eval(Width::W32, 0x8000_0000, 31), Some(1));
        assert_eq!(BinOp::AShr.eval(Width::W8, 0x80, 7), Some(0xff));
    }

    #[test]
    fn signed_comparisons() {
        // 0xff is -1 at width 8.
        assert!(CmpOp::Slt.eval(Width::W8, 0xff, 0));
        assert!(!CmpOp::Ult.eval(Width::W8, 0xff, 0));
        assert!(CmpOp::Sle.eval(Width::W32, 0xffff_ffff, 0xffff_ffff));
    }

    #[test]
    fn unary_ops() {
        assert_eq!(UnOp::Neg.eval(Width::W8, 1), 0xff);
        assert_eq!(UnOp::Not.eval(Width::W8, 0), 0xff);
        assert_eq!(UnOp::LNot.eval(Width::W32, 0), 1);
        assert_eq!(UnOp::LNot.eval(Width::W32, 99), 0);
    }
}
