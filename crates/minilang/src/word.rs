//! The one definition of the ops that touch nothing but their frame's
//! registers, on machine words.
//!
//! [`Op::eval_words`] runs every such op of [`Code::ops`] and of
//! [`Code::fast_ops`]: constants, every generic ALU, unary, cast and
//! compare op, the speed forms (`Mov`, the specialized `<op>RR`/`<op>RI`
//! forms and the fused pairs), jumps and branches. Both block loops
//! dispatch on it over `fast_ops()`: the interpreter's, which reports a
//! branch to its trace sink, and the symbolic executor's over an
//! all-concrete frame, which checks a branch against the trace. The
//! interpreter's per-op path runs the generic forms of `ops()` through it
//! too. How a branch is taken is the caller's; the evaluator only says
//! where it goes. A speed form's arm must mean what its generic op (or
//! its two ops) mean in their own arms; `code.rs`'s tests check that for
//! every form.
//!
//! [`Code::fast_ops`]: crate::code::Code::fast_ops
//! [`Code::ops`]: crate::code::Code::ops

use crate::code::{BranchPair, MovPair, Op, Pc};
use crate::ir::{Operand, Reg};

/// What [`Op::eval_words`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WordFlow {
    /// Wrote its destination, if any: on to the next op.
    Next,
    /// Ran a fused op→move pair: two ops on.
    Pair,
    /// A jump to this pc.
    Jump(Pc),
    /// A branch, which goes to `to` because its condition is `taken`.
    Branch {
        /// The condition's truth: the branch's TNT bit.
        taken: bool,
        /// The successor.
        to: Pc,
    },
    /// A fused compare→branch: the compare wrote its destination, and the
    /// branch after it goes to `to` because the compare is `taken`.
    CmpBranch {
        /// The compare's result: the branch's TNT bit.
        taken: bool,
        /// The successor.
        to: Pc,
    },
    /// A division by zero: the op faults, having written nothing.
    DivByZero,
    /// Not a register-only op: nothing ran.
    Other,
}

impl Op {
    /// Runs `self` against a frame's registers `regs` if it touches
    /// nothing else, and says how the run goes on.
    #[inline(always)]
    #[allow(clippy::too_many_lines)]
    pub fn eval_words(&self, regs: &mut [u64]) -> WordFlow {
        match *self {
            Op::Const { dst, value } => set(regs, dst, value),
            Op::Mov { dst, src } => set(regs, dst, regs[src.0 as usize]),
            Op::AddRR { dst, a, b } => bin(regs, dst, a, b, u64::wrapping_add),
            Op::AddRI { dst, a, imm } => bin(regs, dst, a, imm, u64::wrapping_add),
            Op::SubRR { dst, a, b } => bin(regs, dst, a, b, u64::wrapping_sub),
            Op::SubRI { dst, a, imm } => bin(regs, dst, a, imm, u64::wrapping_sub),
            Op::MulRR { dst, a, b } => bin(regs, dst, a, b, u64::wrapping_mul),
            Op::MulRI { dst, a, imm } => bin(regs, dst, a, imm, u64::wrapping_mul),
            Op::AndRR { dst, a, b } => bin(regs, dst, a, b, and),
            Op::AndRI { dst, a, imm } => bin(regs, dst, a, imm, and),
            Op::OrRR { dst, a, b } => bin(regs, dst, a, b, or),
            Op::OrRI { dst, a, imm } => bin(regs, dst, a, imm, or),
            Op::XorRR { dst, a, b } => bin(regs, dst, a, b, xor),
            Op::XorRI { dst, a, imm } => bin(regs, dst, a, imm, xor),
            Op::ShlRR { dst, a, b } => bin(regs, dst, a, b, shl),
            Op::ShlRI { dst, a, imm } => bin(regs, dst, a, imm, shl),
            Op::LShrRR { dst, a, b } => bin(regs, dst, a, b, lshr),
            Op::LShrRI { dst, a, imm } => bin(regs, dst, a, imm, lshr),
            Op::AShrRR { dst, a, b } => bin(regs, dst, a, b, ashr),
            Op::AShrRI { dst, a, imm } => bin(regs, dst, a, imm, ashr),
            Op::EqRR { dst, a, b } => cmp(regs, dst, a, b, eq),
            Op::EqRI { dst, a, imm } => cmp(regs, dst, a, imm, eq),
            Op::NeRR { dst, a, b } => cmp(regs, dst, a, b, ne),
            Op::NeRI { dst, a, imm } => cmp(regs, dst, a, imm, ne),
            Op::UltRR { dst, a, b } => cmp(regs, dst, a, b, ult),
            Op::UltRI { dst, a, imm } => cmp(regs, dst, a, imm, ult),
            Op::UleRR { dst, a, b } => cmp(regs, dst, a, b, ule),
            Op::UleRI { dst, a, imm } => cmp(regs, dst, a, imm, ule),
            Op::SltRR { dst, a, b } => cmp(regs, dst, a, b, slt),
            Op::SltRI { dst, a, imm } => cmp(regs, dst, a, imm, slt),
            Op::SleRR { dst, a, b } => cmp(regs, dst, a, b, sle),
            Op::SleRI { dst, a, imm } => cmp(regs, dst, a, imm, sle),
            Op::Bin {
                dst,
                op,
                a,
                b,
                width,
            } => match op.eval(width, get(regs, a), get(regs, b)) {
                Some(v) => set(regs, dst, v),
                None => WordFlow::DivByZero,
            },
            Op::Cmp {
                dst,
                pred,
                a,
                b,
                width,
            } => set(
                regs,
                dst,
                u64::from(pred.eval(width, get(regs, a), get(regs, b))),
            ),
            Op::Un { dst, op, a, width } => set(regs, dst, op.eval(width, get(regs, a))),
            Op::Cast { dst, a, from } => set(regs, dst, from.trunc(get(regs, a))),
            Op::Jump { to } => WordFlow::Jump(to),
            Op::Branch {
                cond,
                then_pc,
                else_pc,
            } => {
                let taken = get(regs, cond) != 0;
                WordFlow::Branch {
                    taken,
                    to: if taken { then_pc } else { else_pc },
                }
            }
            Op::AddRRMov(p) => bin_mov(regs, p, u64::wrapping_add),
            Op::AddRIMov(p) => bin_mov(regs, p, u64::wrapping_add),
            Op::SubRRMov(p) => bin_mov(regs, p, u64::wrapping_sub),
            Op::SubRIMov(p) => bin_mov(regs, p, u64::wrapping_sub),
            Op::MulRRMov(p) => bin_mov(regs, p, u64::wrapping_mul),
            Op::MulRIMov(p) => bin_mov(regs, p, u64::wrapping_mul),
            Op::AndRRMov(p) => bin_mov(regs, p, and),
            Op::AndRIMov(p) => bin_mov(regs, p, and),
            Op::OrRRMov(p) => bin_mov(regs, p, or),
            Op::OrRIMov(p) => bin_mov(regs, p, or),
            Op::XorRRMov(p) => bin_mov(regs, p, xor),
            Op::XorRIMov(p) => bin_mov(regs, p, xor),
            Op::ShlRRMov(p) => bin_mov(regs, p, shl),
            Op::ShlRIMov(p) => bin_mov(regs, p, shl),
            Op::LShrRRMov(p) => bin_mov(regs, p, lshr),
            Op::LShrRIMov(p) => bin_mov(regs, p, lshr),
            Op::AShrRRMov(p) => bin_mov(regs, p, ashr),
            Op::AShrRIMov(p) => bin_mov(regs, p, ashr),
            Op::EqRRMov(p) => cmp_mov(regs, p, eq),
            Op::EqRIMov(p) => cmp_mov(regs, p, eq),
            Op::NeRRMov(p) => cmp_mov(regs, p, ne),
            Op::NeRIMov(p) => cmp_mov(regs, p, ne),
            Op::UltRRMov(p) => cmp_mov(regs, p, ult),
            Op::UltRIMov(p) => cmp_mov(regs, p, ult),
            Op::UleRRMov(p) => cmp_mov(regs, p, ule),
            Op::UleRIMov(p) => cmp_mov(regs, p, ule),
            Op::SltRRMov(p) => cmp_mov(regs, p, slt),
            Op::SltRIMov(p) => cmp_mov(regs, p, slt),
            Op::SleRRMov(p) => cmp_mov(regs, p, sle),
            Op::SleRIMov(p) => cmp_mov(regs, p, sle),
            Op::EqRRBranch(p) => cmp_branch(regs, p, eq),
            Op::EqRIBranch(p) => cmp_branch(regs, p, eq),
            Op::NeRRBranch(p) => cmp_branch(regs, p, ne),
            Op::NeRIBranch(p) => cmp_branch(regs, p, ne),
            Op::UltRRBranch(p) => cmp_branch(regs, p, ult),
            Op::UltRIBranch(p) => cmp_branch(regs, p, ult),
            Op::UleRRBranch(p) => cmp_branch(regs, p, ule),
            Op::UleRIBranch(p) => cmp_branch(regs, p, ule),
            Op::SltRRBranch(p) => cmp_branch(regs, p, slt),
            Op::SltRIBranch(p) => cmp_branch(regs, p, slt),
            Op::SleRRBranch(p) => cmp_branch(regs, p, sle),
            Op::SleRIBranch(p) => cmp_branch(regs, p, sle),
            Op::Load { .. }
            | Op::Store { .. }
            | Op::StackAlloc { .. }
            | Op::Alloc { .. }
            | Op::Free { .. }
            | Op::Input { .. }
            | Op::Clock { .. }
            | Op::PtWrite { .. }
            | Op::Print { .. }
            | Op::Assert { .. }
            | Op::Abort { .. }
            | Op::Call { .. }
            | Op::Spawn { .. }
            | Op::Join { .. }
            | Op::Lock { .. }
            | Op::Unlock { .. }
            | Op::Return { .. } => WordFlow::Other,
        }
    }
}

/// Reads `op` against a frame's registers.
#[inline(always)]
pub(crate) fn get(regs: &[u64], op: Operand) -> u64 {
    match op {
        Operand::Reg(r) => regs[r.0 as usize],
        Operand::Imm(v) => v,
    }
}

/// The right operand of a specialized ALU form: a register or an
/// immediate.
trait Rhs: Copy {
    fn value(self, regs: &[u64]) -> u64;
}

impl Rhs for Reg {
    #[inline(always)]
    fn value(self, regs: &[u64]) -> u64 {
        regs[self.0 as usize]
    }
}

impl Rhs for u64 {
    #[inline(always)]
    fn value(self, _: &[u64]) -> u64 {
        self
    }
}

/// `dst = v`.
#[inline(always)]
fn set(regs: &mut [u64], dst: Reg, v: u64) -> WordFlow {
    regs[dst.0 as usize] = v;
    WordFlow::Next
}

/// `dst = f(a, b)`.
#[inline(always)]
fn bin<B: Rhs>(regs: &mut [u64], dst: Reg, a: Reg, b: B, f: impl Fn(u64, u64) -> u64) -> WordFlow {
    set(regs, dst, f(regs[a.0 as usize], b.value(regs)))
}

/// `dst = pred(a, b)` as 0 or 1.
#[inline(always)]
fn cmp<B: Rhs>(
    regs: &mut [u64],
    dst: Reg,
    a: Reg,
    b: B,
    pred: impl Fn(u64, u64) -> bool,
) -> WordFlow {
    bin(regs, dst, a, b, |x, y| u64::from(pred(x, y)))
}

/// A fused op→move: `dst = f(a, b); mov = dst`.
#[inline(always)]
fn bin_mov<B: Rhs>(regs: &mut [u64], p: MovPair<B>, f: impl Fn(u64, u64) -> u64) -> WordFlow {
    let v = f(regs[p.a.0 as usize], p.b.value(regs));
    regs[p.dst.0 as usize] = v;
    regs[p.mov.0 as usize] = v;
    WordFlow::Pair
}

/// A fused compare→move: `dst = pred(a, b); mov = dst`.
#[inline(always)]
fn cmp_mov<B: Rhs>(regs: &mut [u64], p: MovPair<B>, pred: impl Fn(u64, u64) -> bool) -> WordFlow {
    bin_mov(regs, p, |x, y| u64::from(pred(x, y)))
}

/// A fused compare→branch: the compare's write, then where the branch
/// goes.
#[inline(always)]
fn cmp_branch<B: Rhs>(
    regs: &mut [u64],
    p: BranchPair<B>,
    pred: impl Fn(u64, u64) -> bool,
) -> WordFlow {
    let taken = pred(regs[p.a.0 as usize], p.b.value(regs));
    regs[p.dst.0 as usize] = u64::from(taken);
    WordFlow::CmpBranch {
        taken,
        to: if taken { p.then_pc } else { p.else_pc },
    }
}

// The specialized forms' operations on 64-bit words. `wrapping_*` shifts
// take the amount modulo 64, the IR's shift semantics at 64 bits.
#[inline(always)]
fn and(x: u64, y: u64) -> u64 {
    x & y
}
#[inline(always)]
fn or(x: u64, y: u64) -> u64 {
    x | y
}
#[inline(always)]
fn xor(x: u64, y: u64) -> u64 {
    x ^ y
}
#[inline(always)]
fn shl(x: u64, y: u64) -> u64 {
    x.wrapping_shl(y as u32)
}
#[inline(always)]
fn lshr(x: u64, y: u64) -> u64 {
    x.wrapping_shr(y as u32)
}
#[inline(always)]
fn ashr(x: u64, y: u64) -> u64 {
    (x as i64).wrapping_shr(y as u32) as u64
}
#[inline(always)]
fn eq(x: u64, y: u64) -> bool {
    x == y
}
#[inline(always)]
fn ne(x: u64, y: u64) -> bool {
    x != y
}
#[inline(always)]
fn ult(x: u64, y: u64) -> bool {
    x < y
}
#[inline(always)]
fn ule(x: u64, y: u64) -> bool {
    x <= y
}
#[inline(always)]
fn slt(x: u64, y: u64) -> bool {
    (x as i64) < (y as i64)
}
#[inline(always)]
fn sle(x: u64, y: u64) -> bool {
    (x as i64) <= (y as i64)
}
