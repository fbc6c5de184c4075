//! Tseitin bit-blasting: pure bitvector expressions to CNF.
//!
//! Arrays must be eliminated first (see [`crate::arrays`]); encountering a
//! `Read` node here is an internal error surfaced as [`BlastError`].

use crate::cnf::{Cnf, CnfMark, Lit, Var};
use crate::expr::{BvOp, CmpKind, ExprPool, ExprRef, Node, VarId};
use crate::hash::FxHashMap;
use std::collections::HashMap;
use std::fmt;

/// Bit-blasting failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BlastError {
    /// A `Read` node survived array elimination.
    UnexpectedRead(ExprRef),
}

impl fmt::Display for BlastError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BlastError::UnexpectedRead(e) => {
                write!(f, "array read {e} reached the bit-blaster")
            }
        }
    }
}

impl std::error::Error for BlastError {}

#[derive(Debug, Clone)]
enum Blasted {
    Bits(Vec<Lit>),
    Bool(Lit),
}

/// Converts expressions to CNF, caching shared subterms.
///
/// The blaster holds no pool borrow — each call takes the pool — so it can
/// persist across queries and keep its Tseitin cache warm. Gates and
/// variable encodings are definitional (they constrain nothing by
/// themselves), so cached entries stay sound as the formula grows.
/// [`BitBlaster::begin_scope`] / [`BitBlaster::rollback_scope`] bracket
/// assumption-only blasting so its clauses and cache entries can be undone.
#[derive(Debug, Default, Clone)]
pub struct BitBlaster {
    /// The CNF being built.
    pub cnf: Cnf,
    cache: FxHashMap<ExprRef, Blasted>,
    var_bits: HashMap<VarId, Vec<Var>>,
    scope: Option<BlastScope>,
}

#[derive(Debug, Clone)]
struct BlastScope {
    cache_keys: Vec<ExprRef>,
    var_keys: Vec<VarId>,
    cnf_mark: CnfMark,
}

impl BitBlaster {
    /// An empty blaster.
    pub fn new() -> Self {
        BitBlaster::default()
    }

    /// Asserts boolean expression `e` as a unit constraint.
    ///
    /// # Errors
    ///
    /// Returns [`BlastError`] if `e` contains array reads.
    pub fn assert_true(&mut self, pool: &ExprPool, e: ExprRef) -> Result<(), BlastError> {
        let l = self.blast_bool(pool, e)?;
        self.cnf.add_clause(&[l]);
        Ok(())
    }

    /// The expression-variable bit map used for model extraction.
    pub fn var_bits(&self) -> &HashMap<VarId, Vec<Var>> {
        &self.var_bits
    }

    /// Starts recording CNF growth and cache insertions for rollback.
    ///
    /// # Panics
    ///
    /// Panics if a scope is already open (scopes do not nest).
    pub fn begin_scope(&mut self) {
        assert!(self.scope.is_none(), "blast scopes do not nest");
        self.scope = Some(BlastScope {
            cache_keys: Vec::new(),
            var_keys: Vec::new(),
            cnf_mark: self.cnf.mark(),
        });
    }

    /// Undoes everything added since [`BitBlaster::begin_scope`].
    pub fn rollback_scope(&mut self) {
        let scope = self.scope.take().expect("scope open");
        for k in scope.cache_keys {
            self.cache.remove(&k);
        }
        for k in scope.var_keys {
            self.var_bits.remove(&k);
        }
        self.cnf.rollback(&scope.cnf_mark);
    }

    fn blast_bool(&mut self, pool: &ExprPool, e: ExprRef) -> Result<Lit, BlastError> {
        match self.blast(pool, e)? {
            Blasted::Bool(l) => Ok(l),
            Blasted::Bits(bits) => {
                // Nonzero test.
                let mut acc = self.cnf.false_lit();
                for b in bits {
                    acc = self.cnf.or_gate(acc, b);
                }
                Ok(acc)
            }
        }
    }

    fn blast_bits(&mut self, pool: &ExprPool, e: ExprRef) -> Result<Vec<Lit>, BlastError> {
        match self.blast(pool, e)? {
            Blasted::Bits(b) => Ok(b),
            Blasted::Bool(l) => Ok(vec![l]),
        }
    }

    fn blast(&mut self, pool: &ExprPool, e: ExprRef) -> Result<Blasted, BlastError> {
        if let Some(b) = self.cache.get(&e) {
            return Ok(b.clone());
        }
        let result = match pool.node(e).clone() {
            Node::Const { bits, value } => {
                let t = self.cnf.true_lit();
                let f = !t;
                Blasted::Bits(
                    (0..bits)
                        .map(|i| if value >> i & 1 == 1 { t } else { f })
                        .collect(),
                )
            }
            Node::BoolConst(b) => {
                let t = self.cnf.true_lit();
                Blasted::Bool(if b { t } else { !t })
            }
            Node::Var { id, bits } => {
                let vars: Vec<Var> = (0..bits).map(|_| self.cnf.new_var()).collect();
                self.var_bits.insert(id, vars.clone());
                if let Some(scope) = &mut self.scope {
                    scope.var_keys.push(id);
                }
                Blasted::Bits(vars.into_iter().map(Lit::pos).collect())
            }
            Node::Bin { op, a, b } => {
                let av = self.blast_bits(pool, a)?;
                let bv = self.blast_bits(pool, b)?;
                Blasted::Bits(self.bin_op(op, &av, &bv))
            }
            Node::Cmp { op, a, b } => {
                let av = self.blast_bits(pool, a)?;
                let bv = self.blast_bits(pool, b)?;
                Blasted::Bool(self.cmp_op(op, &av, &bv))
            }
            Node::Not(a) => {
                let l = self.blast_bool(pool, a)?;
                Blasted::Bool(!l)
            }
            Node::AndB(a, b) => {
                let la = self.blast_bool(pool, a)?;
                let lb = self.blast_bool(pool, b)?;
                Blasted::Bool(self.cnf.and_gate(la, lb))
            }
            Node::OrB(a, b) => {
                let la = self.blast_bool(pool, a)?;
                let lb = self.blast_bool(pool, b)?;
                Blasted::Bool(self.cnf.or_gate(la, lb))
            }
            Node::Ite {
                cond,
                then_e,
                else_e,
            } => {
                let c = self.blast_bool(pool, cond)?;
                let t = self.blast_bits(pool, then_e)?;
                let el = self.blast_bits(pool, else_e)?;
                Blasted::Bits(
                    t.iter()
                        .zip(&el)
                        .map(|(&ti, &ei)| self.cnf.ite_gate(c, ti, ei))
                        .collect(),
                )
            }
            Node::ZExt { a, bits } => {
                let mut v = self.blast_bits(pool, a)?;
                let f = self.cnf.false_lit();
                v.resize(bits as usize, f);
                Blasted::Bits(v)
            }
            Node::Trunc { a, bits } => {
                let v = self.blast_bits(pool, a)?;
                Blasted::Bits(v[..bits as usize].to_vec())
            }
            Node::BoolToBv { a, bits } => {
                let l = self.blast_bool(pool, a)?;
                let f = self.cnf.false_lit();
                let mut v = vec![f; bits as usize];
                v[0] = l;
                Blasted::Bits(v)
            }
            Node::Read { .. } => return Err(BlastError::UnexpectedRead(e)),
        };
        self.cache.insert(e, result.clone());
        if let Some(scope) = &mut self.scope {
            scope.cache_keys.push(e);
        }
        Ok(result)
    }

    fn adder(&mut self, a: &[Lit], b: &[Lit], mut carry: Lit) -> Vec<Lit> {
        let mut out = Vec::with_capacity(a.len());
        for (&x, &y) in a.iter().zip(b) {
            let (s, c) = self.cnf.full_adder(x, y, carry);
            out.push(s);
            carry = c;
        }
        out
    }

    /// Adder that also returns the final carry (for comparisons).
    fn adder_with_carry(&mut self, a: &[Lit], b: &[Lit], mut carry: Lit) -> (Vec<Lit>, Lit) {
        let mut out = Vec::with_capacity(a.len());
        for (&x, &y) in a.iter().zip(b) {
            let (s, c) = self.cnf.full_adder(x, y, carry);
            out.push(s);
            carry = c;
        }
        (out, carry)
    }

    fn bin_op(&mut self, op: BvOp, a: &[Lit], b: &[Lit]) -> Vec<Lit> {
        let w = a.len();
        match op {
            BvOp::Add => {
                let f = self.cnf.false_lit();
                self.adder(a, b, f)
            }
            BvOp::Sub => {
                let nb: Vec<Lit> = b.iter().map(|&l| !l).collect();
                let t = self.cnf.true_lit();
                self.adder(a, &nb, t)
            }
            BvOp::Mul => {
                let f = self.cnf.false_lit();
                let mut acc = vec![f; w];
                for (i, &bi) in b.iter().enumerate() {
                    // partial = (a << i) & bi, added into acc.
                    let mut partial = vec![f; w];
                    for j in 0..w - i {
                        partial[i + j] = self.cnf.and_gate(a[j], bi);
                    }
                    acc = self.adder(&acc, &partial, f);
                }
                acc
            }
            BvOp::UDiv => self.divide(a, b).0,
            BvOp::URem => self.divide(a, b).1,
            BvOp::And => a
                .iter()
                .zip(b)
                .map(|(&x, &y)| self.cnf.and_gate(x, y))
                .collect(),
            BvOp::Or => a
                .iter()
                .zip(b)
                .map(|(&x, &y)| self.cnf.or_gate(x, y))
                .collect(),
            BvOp::Xor => a
                .iter()
                .zip(b)
                .map(|(&x, &y)| self.cnf.xor_gate(x, y))
                .collect(),
            BvOp::Shl => self.shifter(a, b, ShiftKind::Left),
            BvOp::LShr => self.shifter(a, b, ShiftKind::LogicalRight),
            BvOp::AShr => self.shifter(a, b, ShiftKind::ArithRight),
        }
    }

    /// Restoring long division producing (quotient, remainder); matches
    /// SMT-LIB semantics for a zero divisor (quotient all-ones, remainder =
    /// dividend).
    fn divide(&mut self, a: &[Lit], b: &[Lit]) -> (Vec<Lit>, Vec<Lit>) {
        let w = a.len();
        let f = self.cnf.false_lit();
        // rem uses w+1 bits to absorb the shifted-in bit before compare.
        let mut rem: Vec<Lit> = vec![f; w + 1];
        let mut q = vec![f; w];
        let b_ext: Vec<Lit> = b.iter().copied().chain(std::iter::once(f)).collect();
        for i in (0..w).rev() {
            // rem = (rem << 1) | a[i]
            rem.rotate_right(1);
            rem[0] = a[i];
            // ge = rem >= b  (unsigned, w+1 bits): carry of rem + ~b + 1.
            let nb: Vec<Lit> = b_ext.iter().map(|&l| !l).collect();
            let t = self.cnf.true_lit();
            let (diff, carry) = self.adder_with_carry(&rem, &nb, t);
            let ge = carry; // carry-out 1 means rem >= b
            q[i] = ge;
            // rem = ge ? diff : rem
            rem = rem
                .iter()
                .zip(&diff)
                .map(|(&r, &d)| self.cnf.ite_gate(ge, d, r))
                .collect();
        }
        rem.truncate(w);
        (q, rem)
    }

    fn shifter(&mut self, a: &[Lit], b: &[Lit], kind: ShiftKind) -> Vec<Lit> {
        let w = a.len();
        let stages = w.trailing_zeros() as usize; // w is a power of two
        let fill_base = match kind {
            ShiftKind::ArithRight => a[w - 1],
            _ => self.cnf.false_lit(),
        };
        let mut cur: Vec<Lit> = a.to_vec();
        for (stage, &sel) in b.iter().enumerate().take(stages) {
            let amount = 1usize << stage;
            let mut shifted = vec![fill_base; w];
            match kind {
                ShiftKind::Left => {
                    let f = self.cnf.false_lit();
                    for slot in shifted.iter_mut().take(amount.min(w)) {
                        *slot = f;
                    }
                    let n = w - amount.min(w);
                    shifted[amount.min(w)..].copy_from_slice(&cur[..n]);
                }
                ShiftKind::LogicalRight | ShiftKind::ArithRight => {
                    let n = w.saturating_sub(amount);
                    shifted[..n].copy_from_slice(&cur[amount..amount + n]);
                }
            }
            cur = cur
                .iter()
                .zip(&shifted)
                .map(|(&c, &sh)| self.cnf.ite_gate(sel, sh, c))
                .collect();
        }
        cur
    }

    fn cmp_op(&mut self, op: CmpKind, a: &[Lit], b: &[Lit]) -> Lit {
        match op {
            CmpKind::Eq => {
                let mut acc = self.cnf.true_lit();
                for (&x, &y) in a.iter().zip(b) {
                    let eq = self.cnf.iff_gate(x, y);
                    acc = self.cnf.and_gate(acc, eq);
                }
                acc
            }
            CmpKind::Ult => self.ult(a, b),
            CmpKind::Ule => {
                let gt = self.ult(b, a);
                !gt
            }
            CmpKind::Slt => self.slt(a, b),
            CmpKind::Sle => {
                let gt = self.slt(b, a);
                !gt
            }
        }
    }

    fn ult(&mut self, a: &[Lit], b: &[Lit]) -> Lit {
        // a < b  iff  carry-out of a + ~b + 1 is 0.
        let nb: Vec<Lit> = b.iter().map(|&l| !l).collect();
        let t = self.cnf.true_lit();
        let (_, carry) = self.adder_with_carry(a, &nb, t);
        !carry
    }

    fn slt(&mut self, a: &[Lit], b: &[Lit]) -> Lit {
        let w = a.len();
        let sa = a[w - 1];
        let sb = b[w - 1];
        let ult = self.ult(a, b);
        // signs differ: a < b iff sign(a)=1; signs equal: unsigned compare.
        let diff = self.cnf.xor_gate(sa, sb);
        self.cnf.ite_gate(diff, sa, ult)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ShiftKind {
    Left,
    LogicalRight,
    ArithRight,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sat::{load, solve_for_tests, SatOutcome};

    /// Asserts `lhs op rhs == expected` is SAT and `!= expected` is UNSAT
    /// for concrete inputs pushed in as equality constraints on variables.
    fn check_bin(op: BvOp, bits: u32, x: u64, y: u64) {
        let mut pool = ExprPool::new();
        let a = pool.var("a", bits);
        let b = pool.var("b", bits);
        let r = pool.intern(Node::Bin { op, a, b });
        let xa = pool.bv_const(x, bits);
        let xb = pool.bv_const(y, bits);
        let expect = pool.bv_const(op.eval(bits, x, y), bits);
        let c1 = pool.cmp(CmpKind::Eq, a, xa);
        let c2 = pool.cmp(CmpKind::Eq, b, xb);
        let c3 = pool.cmp(CmpKind::Eq, r, expect);
        let mut bb = BitBlaster::new();
        bb.assert_true(&pool, c1).unwrap();
        bb.assert_true(&pool, c2).unwrap();
        bb.assert_true(&pool, c3).unwrap();
        assert!(
            solve_for_tests(&bb.cnf),
            "{op:?}({x},{y})@{bits}: expected SAT"
        );
        // Negative check: forcing a different result must be UNSAT.
        let mut pool2 = ExprPool::new();
        let a2 = pool2.var("a", bits);
        let b2 = pool2.var("b", bits);
        let r2 = pool2.intern(Node::Bin { op, a: a2, b: b2 });
        let xa2 = pool2.bv_const(x, bits);
        let xb2 = pool2.bv_const(y, bits);
        let wrong = pool2.bv_const(op.eval(bits, x, y) ^ 1, bits);
        let c1 = pool2.cmp(CmpKind::Eq, a2, xa2);
        let c2 = pool2.cmp(CmpKind::Eq, b2, xb2);
        let c3 = pool2.cmp(CmpKind::Eq, r2, wrong);
        let mut bb = BitBlaster::new();
        bb.assert_true(&pool2, c1).unwrap();
        bb.assert_true(&pool2, c2).unwrap();
        bb.assert_true(&pool2, c3).unwrap();
        assert!(
            !solve_for_tests(&bb.cnf),
            "{op:?}({x},{y})@{bits}: wrong result must be UNSAT"
        );
    }

    #[test]
    fn add_sub_mul_blast_correctly() {
        for &(x, y) in &[(0u64, 0u64), (1, 1), (200, 100), (255, 255), (37, 219)] {
            check_bin(BvOp::Add, 8, x, y);
            check_bin(BvOp::Sub, 8, x, y);
            check_bin(BvOp::Mul, 8, x, y);
        }
        check_bin(BvOp::Add, 32, 0xffff_ffff, 2);
        check_bin(BvOp::Mul, 16, 300, 300);
    }

    #[test]
    fn division_blasts_correctly_including_zero() {
        for &(x, y) in &[(100u64, 7u64), (7, 100), (0, 3), (255, 1), (13, 0), (0, 0)] {
            check_bin(BvOp::UDiv, 8, x, y);
            check_bin(BvOp::URem, 8, x, y);
        }
    }

    #[test]
    fn bitwise_and_shifts_blast_correctly() {
        for &(x, y) in &[(0b1100u64, 0b1010u64), (0xff, 0x0f), (5, 3), (128, 7)] {
            check_bin(BvOp::And, 8, x, y);
            check_bin(BvOp::Or, 8, x, y);
            check_bin(BvOp::Xor, 8, x, y);
            check_bin(BvOp::Shl, 8, x, y);
            check_bin(BvOp::LShr, 8, x, y);
            check_bin(BvOp::AShr, 8, x, y);
        }
        check_bin(BvOp::Shl, 8, 1, 9); // shift mod width
    }

    #[test]
    fn comparisons_blast_correctly() {
        let cases = [
            (3u64, 5u64),
            (5, 3),
            (5, 5),
            (0xff, 0),
            (0, 0xff),
            (0x80, 0x7f),
        ];
        for op in [
            CmpKind::Eq,
            CmpKind::Ult,
            CmpKind::Ule,
            CmpKind::Slt,
            CmpKind::Sle,
        ] {
            for &(x, y) in &cases {
                let mut pool = ExprPool::new();
                let a = pool.var("a", 8);
                let b = pool.var("b", 8);
                let c = pool.intern(Node::Cmp { op, a, b });
                let xa = pool.bv_const(x, 8);
                let xb = pool.bv_const(y, 8);
                let e1 = pool.cmp(CmpKind::Eq, a, xa);
                let e2 = pool.cmp(CmpKind::Eq, b, xb);
                let expected = op.eval(8, x, y);
                let goal = if expected { c } else { pool.not(c) };
                let mut bb = BitBlaster::new();
                bb.assert_true(&pool, e1).unwrap();
                bb.assert_true(&pool, e2).unwrap();
                bb.assert_true(&pool, goal).unwrap();
                assert!(
                    solve_for_tests(&bb.cnf),
                    "{op:?}({x},{y}) should be {expected}"
                );
            }
        }
    }

    #[test]
    fn solve_for_variable() {
        // x + 7 == 50 at 32 bits has exactly x = 43.
        let mut pool = ExprPool::new();
        let x = pool.var("x", 32);
        let seven = pool.bv_const(7, 32);
        let fifty = pool.bv_const(50, 32);
        let sum = pool.bin(BvOp::Add, x, seven);
        let eq = pool.cmp(CmpKind::Eq, sum, fifty);
        let mut bb = BitBlaster::new();
        bb.assert_true(&pool, eq).unwrap();
        let SatOutcome::Sat(m) = load(&bb.cnf).solve(100_000) else {
            panic!("SAT expected");
        };
        let bits = &bb.var_bits()[&VarId(0)];
        let val: u64 = bits
            .iter()
            .enumerate()
            .map(|(i, v)| u64::from(m[v.0 as usize]) << i)
            .sum();
        assert_eq!(val, 43);
    }

    #[test]
    fn read_nodes_are_rejected() {
        let mut pool = ExprPool::new();
        let arr = pool.array("A", 4, 32, None);
        let i = pool.var("i", 64);
        let r = pool.read(arr, i);
        let zero = pool.bv_const(0, 32);
        let c = pool.cmp(CmpKind::Eq, r, zero);
        let mut bb = BitBlaster::new();
        assert!(matches!(
            bb.assert_true(&pool, c),
            Err(BlastError::UnexpectedRead(_))
        ));
    }

    #[test]
    fn zext_trunc_booltobv() {
        let mut pool = ExprPool::new();
        let x = pool.var("x", 8);
        let z = pool.zext(x, 16);
        let big = pool.bv_const(0x00ff, 16);
        let le = pool.cmp(CmpKind::Ule, z, big);
        // zext(x,16) <= 0xff for all x: negation must be UNSAT.
        let neg = pool.not(le);
        let mut bb = BitBlaster::new();
        bb.assert_true(&pool, neg).unwrap();
        assert!(!solve_for_tests(&bb.cnf));
    }
}
