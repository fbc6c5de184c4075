//! Tseitin bit-blasting: pure bitvector expressions to CNF.
//!
//! Arrays must be eliminated first (see [`crate::arrays`]); encountering a
//! `Read` node here is an internal error surfaced as [`BlastError`].

use crate::cnf::{Cnf, CnfMark, Lit, Var};
use crate::expr::{BvOp, CmpKind, ExprPool, ExprRef, Node, VarId};
use crate::hash::FxHashMap;
use std::fmt;
use std::ops::Range;

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

/// `len` literals of the blaster's arena, from `start`.
#[derive(Debug, Clone, Copy)]
struct Span {
    start: u32,
    len: u32,
}

impl Span {
    fn range(self) -> Range<usize> {
        self.start as usize..(self.start + self.len) as usize
    }

    /// The low `len` bits.
    fn low(self, len: u32) -> Span {
        Span { len, ..self }
    }
}

#[derive(Debug, Clone, Copy)]
enum Blasted {
    /// The low bits of a bitvector: as many as it was blasted at.
    Bits(Span),
    Bool(Lit),
}

/// Converts expressions to CNF, caching shared subterms.
///
/// The blaster holds no pool borrow — each call takes the pool — so it can
/// persist across queries and keep its Tseitin cache warm. Gates and
/// variable encodings are definitional (they constrain nothing by
/// themselves), so cached entries stay sound as the formula grows.
/// [`BitBlaster::begin_scope`] / [`BitBlaster::rollback_scope`] bracket
/// assumption-only blasting so its clauses and cache entries can be undone,
/// along with the [`Cnf`]'s shared gates that the scope defined.
///
/// Lowering is demand-driven: a node is blasted at the number of low bits
/// its consumers read (the low `k` bits of a sum, product or bitwise
/// operation depend only on the low `k` bits of its operands), so no gate
/// is built for a bit nothing observes. A cache entry holds the bits it
/// was blasted at; a consumer that reads more re-blasts the node wider.
/// Variables are always blasted at full width, so [`BitBlaster::var_bits`]
/// covers every bit a model reports.
///
/// Blasted bits live back to back in one append-only arena: a cache entry
/// is a span of it, a cache hit reads the span in place, and a rollback
/// truncates the arena to where the scope began.
#[derive(Debug, Default, Clone)]
pub struct BitBlaster {
    /// The CNF being built.
    pub cnf: Cnf,
    arena: Vec<Lit>,
    cache: FxHashMap<ExprRef, Blasted>,
    var_bits: FxHashMap<VarId, Vec<Var>>,
    scope: Option<BlastScope>,
    /// The literals of the operation being lowered, before they are
    /// appended to the arena.
    scratch: Vec<Lit>,
}

#[derive(Debug, Clone)]
struct BlastScope {
    /// Each cache key written in the scope, with the entry it replaced.
    cache_writes: Vec<(ExprRef, Option<Blasted>)>,
    var_keys: Vec<VarId>,
    cnf_mark: CnfMark,
    arena_len: usize,
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
    pub fn var_bits(&self) -> &FxHashMap<VarId, Vec<Var>> {
        &self.var_bits
    }

    /// Starts recording CNF growth and cache writes for rollback.
    ///
    /// # Panics
    ///
    /// Panics if a scope is already open (scopes do not nest).
    pub fn begin_scope(&mut self) {
        assert!(self.scope.is_none(), "blast scopes do not nest");
        self.scope = Some(BlastScope {
            cache_writes: Vec::new(),
            var_keys: Vec::new(),
            cnf_mark: self.cnf.mark(),
            arena_len: self.arena.len(),
        });
    }

    /// Undoes everything added since [`BitBlaster::begin_scope`]. A cache
    /// entry the scope re-blasted wider gets its narrower lowering back,
    /// whose clauses and arena span predate the scope.
    pub fn rollback_scope(&mut self) {
        let scope = self.scope.take().expect("scope open");
        for (k, before) in scope.cache_writes.into_iter().rev() {
            match before {
                Some(b) => self.cache.insert(k, b),
                None => self.cache.remove(&k),
            };
        }
        for k in scope.var_keys {
            self.var_bits.remove(&k);
        }
        self.arena.truncate(scope.arena_len);
        self.cnf.rollback(&scope.cnf_mark);
    }

    fn blast_bool(&mut self, pool: &ExprPool, e: ExprRef) -> Result<Lit, BlastError> {
        let width = pool.sort(e).bits();
        match self.blast(pool, e, width)? {
            Blasted::Bool(l) => Ok(l),
            Blasted::Bits(bits) => {
                // Nonzero test.
                let mut acc = self.cnf.false_lit();
                for i in bits.range() {
                    acc = self.cnf.or_gate(acc, self.arena[i]);
                }
                Ok(acc)
            }
        }
    }

    /// Lowers `e` at the low `demand` bits (at most its width) and returns
    /// their literals, least significant first; none for a demand of 0.
    ///
    /// # Errors
    ///
    /// Returns [`BlastError`] if `e` contains array reads.
    pub fn blast_bits(
        &mut self,
        pool: &ExprPool,
        e: ExprRef,
        demand: u32,
    ) -> Result<Vec<Lit>, BlastError> {
        let bits = self.span(pool, e, demand)?;
        Ok(self.arena[bits.range()].to_vec())
    }

    /// [`BitBlaster::blast_bits`], as a span of the arena.
    fn span(&mut self, pool: &ExprPool, e: ExprRef, demand: u32) -> Result<Span, BlastError> {
        if demand == 0 {
            return Ok(Span { start: 0, len: 0 });
        }
        Ok(match self.blast(pool, e, demand)? {
            Blasted::Bits(bits) => bits,
            Blasted::Bool(l) => self.emit(|_, _, out| out.push(l)),
        })
    }

    /// All of `e`'s bits.
    fn span_full(&mut self, pool: &ExprPool, e: ExprRef) -> Result<Span, BlastError> {
        let width = pool.sort(e).bits();
        self.span(pool, e, width)
    }

    /// Appends the literals `lower` writes, given the CNF and the arena as
    /// it stands, to the arena as a new span.
    fn emit(&mut self, lower: impl FnOnce(&mut Cnf, &[Lit], &mut Vec<Lit>)) -> Span {
        let mut out = std::mem::take(&mut self.scratch);
        out.clear();
        lower(&mut self.cnf, &self.arena, &mut out);
        let start = u32::try_from(self.arena.len()).expect("arena indices fit in u32");
        let len = u32::try_from(out.len()).expect("span lengths fit in u32");
        self.arena.extend_from_slice(&out);
        self.scratch = out;
        Span { start, len }
    }

    /// Lowers `e` and returns its low `d` bits (`1..=` its width), or its
    /// literal if it is boolean.
    fn blast(&mut self, pool: &ExprPool, e: ExprRef, d: u32) -> Result<Blasted, BlastError> {
        let previous = match self.cache.get(&e) {
            Some(&Blasted::Bits(bits)) if bits.len >= d => return Ok(Blasted::Bits(bits.low(d))),
            Some(&Blasted::Bool(l)) => return Ok(Blasted::Bool(l)),
            narrower => narrower.copied(),
        };
        let result = match pool.node(e).clone() {
            Node::Const { value, .. } => {
                let t = self.cnf.true_lit();
                Blasted::Bits(self.emit(|_, _, out| {
                    out.extend((0..d).map(|i| if value >> i & 1 == 1 { t } else { !t }));
                }))
            }
            Node::BoolConst(b) => {
                let t = self.cnf.true_lit();
                Blasted::Bool(if b { t } else { !t })
            }
            Node::Var { id, bits } => {
                let vars: Vec<Var> = (0..bits).map(|_| self.cnf.new_var()).collect();
                let span = self.emit(|_, _, out| out.extend(vars.iter().map(|&v| Lit::pos(v))));
                self.var_bits.insert(id, vars);
                if let Some(scope) = &mut self.scope {
                    scope.var_keys.push(id);
                }
                Blasted::Bits(span)
            }
            Node::Bin { op, a, b } => Blasted::Bits(self.blast_bin(pool, op, a, b, d)?),
            Node::Cmp { op, a, b } => {
                let av = self.span_full(pool, a)?;
                let bv = self.span_full(pool, b)?;
                let (a, b) = (&self.arena[av.range()], &self.arena[bv.range()]);
                Blasted::Bool(cmp_op(&mut self.cnf, op, a, b))
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
                let t = self.span(pool, then_e, d)?;
                let el = self.span(pool, else_e, d)?;
                // A constant selector is one side, as `ite_gate` returns
                // for every bit.
                Blasted::Bits(match self.cnf.known(c) {
                    Some(true) => t,
                    Some(false) => el,
                    None => self.emit(|cnf, arena, out| {
                        select(cnf, c, &arena[t.range()], &arena[el.range()], out);
                    }),
                })
            }
            Node::ZExt { a, .. } => {
                let inner = d.min(pool.sort(a).bits());
                let v = self.span(pool, a, inner)?;
                Blasted::Bits(self.zero_extend(v, d))
            }
            Node::Trunc { a, .. } => Blasted::Bits(self.span(pool, a, d)?),
            Node::BoolToBv { a, .. } => {
                let l = self.blast_bool(pool, a)?;
                let f = self.cnf.false_lit();
                Blasted::Bits(self.emit(|_, _, out| {
                    out.push(l);
                    out.resize(d as usize, f);
                }))
            }
            Node::Read { .. } => return Err(BlastError::UnexpectedRead(e)),
        };
        self.cache.insert(e, result);
        if let Some(scope) = &mut self.scope {
            scope.cache_writes.push((e, previous));
        }
        Ok(match result {
            Blasted::Bits(bits) => Blasted::Bits(bits.low(d)),
            bool => bool,
        })
    }

    /// `bits` extended with constant-false literals to `len`: `bits`
    /// itself if it is that long.
    fn zero_extend(&mut self, bits: Span, len: u32) -> Span {
        if bits.len == len {
            return bits;
        }
        let f = self.cnf.false_lit();
        self.emit(|_, arena, out| {
            out.extend_from_slice(&arena[bits.range()]);
            out.resize(len as usize, f);
        })
    }

    /// The low `d` bits of `a op b`.
    ///
    /// Sums, products and bitwise operations pass the demand to both
    /// operands. A constant mask caps the other operand of `And` at its
    /// highest set bit, and a constant shift moves the demand by the shift
    /// amount. Division, remainder, arithmetic shifts and shifts by a
    /// symbolic amount read every bit of both operands.
    fn blast_bin(
        &mut self,
        pool: &ExprPool,
        op: BvOp,
        a: ExprRef,
        b: ExprRef,
        d: u32,
    ) -> Result<Span, BlastError> {
        let width = pool.sort(a).bits();
        let shift = pool.as_const(b).map(|c| (c % u64::from(width)) as u32);
        match (op, shift) {
            (BvOp::Add | BvOp::Sub | BvOp::Mul | BvOp::Or | BvOp::Xor, _) => {
                let av = self.span(pool, a, d)?;
                let bv = self.span(pool, b, d)?;
                Ok(self.emit(|cnf, arena, out| {
                    bin_op(cnf, op, &arena[av.range()], &arena[bv.range()], out);
                }))
            }
            (BvOp::And, _) => {
                // Bits above a constant's highest set bit are and-ed with 0.
                let cap = |e| {
                    pool.as_const(e)
                        .map_or(d, |c| d.min(64 - c.leading_zeros()))
                };
                let (da, db) = (cap(b), cap(a));
                let av = self.span(pool, a, da)?;
                let av = self.zero_extend(av, d);
                let bv = self.span(pool, b, db)?;
                let bv = self.zero_extend(bv, d);
                Ok(self.emit(|cnf, arena, out| {
                    bin_op(cnf, op, &arena[av.range()], &arena[bv.range()], out);
                }))
            }
            // Result bit i is a[i - sh], or 0 below the shift.
            (BvOp::Shl, Some(sh)) => {
                let sh = sh.min(d);
                let av = self.span(pool, a, d - sh)?;
                let f = self.cnf.false_lit();
                Ok(self.emit(|_, arena, out| {
                    out.resize(sh as usize, f);
                    out.extend_from_slice(&arena[av.range()]);
                }))
            }
            // Result bit i is a[i + sh], or 0 past the top.
            (BvOp::LShr, Some(sh)) => {
                let av = self.span(pool, a, (d + sh).min(width))?;
                let f = self.cnf.false_lit();
                Ok(self.emit(|_, arena, out| {
                    out.extend_from_slice(&arena[av.range()][sh as usize..]);
                    out.resize(d as usize, f);
                }))
            }
            (BvOp::UDiv | BvOp::URem | BvOp::AShr | BvOp::Shl | BvOp::LShr, _) => {
                let av = self.span_full(pool, a)?;
                let bv = self.span_full(pool, b)?;
                Ok(self.emit(|cnf, arena, out| {
                    bin_op(cnf, op, &arena[av.range()], &arena[bv.range()], out);
                    out.truncate(d as usize);
                }))
            }
        }
    }
}

/// The constant literal of `value`.
fn constant(cnf: &mut Cnf, value: bool) -> Lit {
    let t = cnf.true_lit();
    if value {
        t
    } else {
        !t
    }
}

/// Ripple-carry `a + b + carry`: passes each sum bit to `sum` and
/// returns the carry out.
///
/// A bit whose operand bits and incoming carry are all constant is added
/// in plain arithmetic. Every gate of its full adder would fold to the
/// same constant literals and build nothing, so the CNF is the gate-level
/// adder's; the chain builds gates again from the first bit with an
/// unknown input.
fn adder(
    cnf: &mut Cnf,
    a: &[Lit],
    b: impl IntoIterator<Item = Lit>,
    mut carry: Lit,
    mut sum: impl FnMut(Lit),
) -> Lit {
    for (&x, y) in a.iter().zip(b) {
        let known = (cnf.known(x), cnf.known(y), cnf.known(carry));
        let (s, c) = if let (Some(x), Some(y), Some(c)) = known {
            let s = constant(cnf, x ^ y ^ c);
            (s, constant(cnf, (x & y) | (c & (x ^ y))))
        } else {
            cnf.full_adder(x, y, carry)
        };
        sum(s);
        carry = c;
    }
    carry
}

/// `c ? t : e`, bit by bit, appended to `out`. A constant selector copies
/// one side, which is what `ite_gate` returns for every bit.
fn select(cnf: &mut Cnf, c: Lit, t: &[Lit], e: &[Lit], out: &mut Vec<Lit>) {
    match cnf.known(c) {
        Some(true) => out.extend_from_slice(t),
        Some(false) => out.extend_from_slice(e),
        None => out.extend(t.iter().zip(e).map(|(&ti, &ei)| cnf.ite_gate(c, ti, ei))),
    }
}

/// Appends the bits of `a op b` to `out`.
fn bin_op(cnf: &mut Cnf, op: BvOp, a: &[Lit], b: &[Lit], out: &mut Vec<Lit>) {
    let w = a.len();
    match op {
        BvOp::Add => {
            let f = cnf.false_lit();
            adder(cnf, a, b.iter().copied(), f, |s| out.push(s));
        }
        BvOp::Sub => {
            let t = cnf.true_lit();
            adder(cnf, a, b.iter().map(|&l| !l), t, |s| out.push(s));
        }
        BvOp::Mul => {
            // Shift-and-add, building only gates that survive folding.
            // A row whose multiplier bit is constant-false is all
            // constant-false, and the low `i` bits of row `i` are too,
            // so the full-width adder would pass `acc` through there:
            // skipping both emits the same clauses and variables. A
            // row whose multiplier bit is constant-true is `a` itself,
            // as each of its `and_gate`s would return.
            let f = cnf.false_lit();
            let mut acc = vec![f; w];
            let mut row = Vec::with_capacity(w);
            let mut high = Vec::with_capacity(w);
            for (i, &bi) in b.iter().enumerate() {
                // (a << i) & bi, above its constant-false low bits.
                let row: &[Lit] = match cnf.known(bi) {
                    Some(false) => continue,
                    Some(true) => &a[..w - i],
                    None => {
                        row.clear();
                        row.extend(a[..w - i].iter().map(|&aj| cnf.and_gate(aj, bi)));
                        &row
                    }
                };
                high.clear();
                adder(cnf, &acc[i..], row.iter().copied(), f, |s| high.push(s));
                acc[i..].copy_from_slice(&high);
            }
            out.extend_from_slice(&acc);
        }
        BvOp::UDiv => out.extend(divide(cnf, a, b).0),
        BvOp::URem => out.extend(divide(cnf, a, b).1),
        BvOp::And => out.extend(a.iter().zip(b).map(|(&x, &y)| cnf.and_gate(x, y))),
        BvOp::Or => out.extend(a.iter().zip(b).map(|(&x, &y)| cnf.or_gate(x, y))),
        BvOp::Xor => out.extend(a.iter().zip(b).map(|(&x, &y)| cnf.xor_gate(x, y))),
        BvOp::Shl => shifter(cnf, a, b, ShiftKind::Left, out),
        BvOp::LShr => shifter(cnf, a, b, ShiftKind::LogicalRight, out),
        BvOp::AShr => shifter(cnf, a, b, ShiftKind::ArithRight, out),
    }
}

/// Restoring long division producing (quotient, remainder); matches
/// SMT-LIB semantics for a zero divisor (quotient all-ones, remainder =
/// dividend).
fn divide(cnf: &mut Cnf, a: &[Lit], b: &[Lit]) -> (Vec<Lit>, Vec<Lit>) {
    let w = a.len();
    let f = cnf.false_lit();
    // rem uses w+1 bits to absorb the shifted-in bit before compare.
    let mut rem: Vec<Lit> = vec![f; w + 1];
    let mut q = vec![f; w];
    let mut diff = Vec::with_capacity(w + 1);
    for i in (0..w).rev() {
        // rem = (rem << 1) | a[i]
        rem.rotate_right(1);
        rem[0] = a[i];
        // ge = rem >= b  (unsigned, w+1 bits): carry of rem + ~b + 1.
        let nb = b.iter().chain(std::iter::once(&f)).map(|&l| !l);
        let t = cnf.true_lit();
        diff.clear();
        let ge = adder(cnf, &rem, nb, t, |s| diff.push(s)); // carry-out 1 means rem >= b
        q[i] = ge;
        // rem = ge ? diff : rem
        let mut next = Vec::with_capacity(w + 1);
        select(cnf, ge, &diff, &rem, &mut next);
        rem = next;
    }
    rem.truncate(w);
    (q, rem)
}

/// Appends the barrel shift of `a` by `b` to `out`.
fn shifter(cnf: &mut Cnf, a: &[Lit], b: &[Lit], kind: ShiftKind, out: &mut Vec<Lit>) {
    let w = a.len();
    let stages = w.trailing_zeros() as usize; // w is a power of two
    let fill_base = match kind {
        ShiftKind::ArithRight => a[w - 1],
        _ => cnf.false_lit(),
    };
    let mut cur: Vec<Lit> = a.to_vec();
    for (stage, &sel) in b.iter().enumerate().take(stages) {
        // A constant-false stage keeps `cur`, as its `ite_gate`s would.
        if cnf.known(sel) == Some(false) {
            continue;
        }
        let amount = 1usize << stage;
        let mut shifted = vec![fill_base; w];
        match kind {
            ShiftKind::Left => {
                let f = cnf.false_lit();
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
        let mut next = Vec::with_capacity(w);
        select(cnf, sel, &shifted, &cur, &mut next);
        cur = next;
    }
    out.extend_from_slice(&cur);
}

fn cmp_op(cnf: &mut Cnf, op: CmpKind, a: &[Lit], b: &[Lit]) -> Lit {
    match op {
        CmpKind::Eq => {
            // A constant pair folds as `and_gate` would fold its constant
            // `iff`: equal bits leave the chain as it is, unequal ones
            // make it false.
            let mut acc = cnf.true_lit();
            for (&x, &y) in a.iter().zip(b) {
                match (cnf.known(x), cnf.known(y)) {
                    (Some(p), Some(q)) if p == q => {}
                    (Some(_), Some(_)) => acc = cnf.false_lit(),
                    _ => {
                        let eq = cnf.iff_gate(x, y);
                        acc = cnf.and_gate(acc, eq);
                    }
                }
            }
            acc
        }
        CmpKind::Ult => ult(cnf, a, b),
        CmpKind::Ule => !ult(cnf, b, a),
        CmpKind::Slt => slt(cnf, a, b),
        CmpKind::Sle => !slt(cnf, b, a),
    }
}

/// `a < b` iff the carry out of `a + ~b + 1` is 0.
fn ult(cnf: &mut Cnf, a: &[Lit], b: &[Lit]) -> Lit {
    let t = cnf.true_lit();
    !adder(cnf, a, b.iter().map(|&l| !l), t, |_| {})
}

fn slt(cnf: &mut Cnf, a: &[Lit], b: &[Lit]) -> Lit {
    let w = a.len();
    let sa = a[w - 1];
    let sb = b[w - 1];
    let ult = ult(cnf, a, b);
    // signs differ: a < b iff sign(a)=1; signs equal: unsigned compare.
    let diff = cnf.xor_gate(sa, sb);
    cnf.ite_gate(diff, sa, ult)
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

    /// Width of `e`'s cached lowering.
    fn cached_width(bb: &BitBlaster, e: ExprRef) -> Option<usize> {
        match bb.cache.get(&e)? {
            Blasted::Bits(bits) => Some(bits.len as usize),
            Blasted::Bool(_) => Some(1),
        }
    }

    #[test]
    fn nodes_are_blasted_at_the_bits_their_consumers_read() {
        // (x * y) & 0xff reads 8 bits of a 64-bit product; asking for all
        // of it inside a scope re-blasts it wider, and the rollback puts
        // the 8-bit lowering back.
        let mut pool = ExprPool::new();
        let x = pool.var("x", 64);
        let y = pool.var("y", 64);
        let prod = pool.bin(BvOp::Mul, x, y);
        let byte = pool.bv_const(0xff, 64);
        let low = pool.bin(BvOp::And, prod, byte);
        let c = pool.bv_const(0x21, 64);
        let low_is_c = pool.cmp(CmpKind::Eq, low, c);
        let mut bb = BitBlaster::new();
        bb.assert_true(&pool, low_is_c).unwrap();
        assert_eq!(cached_width(&bb, prod), Some(8));
        assert_eq!(
            bb.var_bits()[&VarId(0)].len(),
            64,
            "variables stay full width"
        );
        let narrow = bb.cnf.clause_count();

        let big = pool.bv_const(1 << 40, 64);
        let prod_is_big = pool.cmp(CmpKind::Eq, prod, big);
        bb.begin_scope();
        bb.assert_true(&pool, prod_is_big).unwrap();
        assert_eq!(cached_width(&bb, prod), Some(64));
        assert!(bb.cnf.clause_count() > 10 * narrow, "a 64-bit multiplier");
        bb.rollback_scope();
        assert_eq!(cached_width(&bb, prod), Some(8));
        assert_eq!(bb.cnf.clause_count(), narrow);
    }

    /// `a + b + carry`, one `full_adder` per bit, as carry chains were
    /// lowered before constant bits folded.
    fn ripple(cnf: &mut Cnf, a: &[Lit], b: &[Lit], mut carry: Lit) -> Vec<Lit> {
        let mut out = Vec::new();
        for (&x, &y) in a.iter().zip(b) {
            let (s, c) = cnf.full_adder(x, y, carry);
            out.push(s);
            carry = c;
        }
        out
    }

    /// Blasts `a` and `b` at 64 bits, then `e` (over them) at 64 bits,
    /// and checks `e`'s lowering against `oracle` built on a copy of the
    /// formula before it: same literals, clauses and variables.
    fn assert_lowers_as(
        pool: &ExprPool,
        (a, b, e): (ExprRef, ExprRef, ExprRef),
        oracle: impl FnOnce(&mut Cnf, &[Lit], &[Lit]) -> Vec<Lit>,
    ) -> (BitBlaster, Vec<Lit>) {
        let mut bb = BitBlaster::new();
        let av = bb.blast_bits(pool, a, 64).unwrap();
        let bv = bb.blast_bits(pool, b, 64).unwrap();
        let mut reference = bb.cnf.clone();
        let out = bb.blast_bits(pool, e, 64).unwrap();
        assert_eq!(out, oracle(&mut reference, &av, &bv));
        assert_eq!(bb.cnf.var_count(), reference.var_count());
        let clauses = |cnf: &Cnf| cnf.pending().map(<[Lit]>::to_vec).collect::<Vec<_>>();
        assert_eq!(clauses(&bb.cnf), clauses(&reference));
        (bb, out)
    }

    #[test]
    fn a_carry_chain_folds_until_its_first_unknown_bit() {
        // (x & 0xff00) + 0x01ff: bits 0-7 are constant, bit 8 makes the
        // carry unknown, and from bit 16 up the carry is constant again.
        let mut pool = ExprPool::new();
        let x = pool.var("x", 64);
        let mask = pool.bv_const(0xff00, 64);
        let a = pool.bin(BvOp::And, x, mask);
        let b = pool.bv_const(0x01ff, 64);
        let sum = pool.intern(Node::Bin {
            op: BvOp::Add,
            a,
            b,
        });
        let (mut bb, out) = assert_lowers_as(&pool, (a, b, sum), |cnf, av, bv| {
            let f = cnf.false_lit();
            ripple(cnf, av, bv, f)
        });
        let t = bb.cnf.true_lit();
        assert_eq!(&out[..8], &[t; 8], "the low byte is all ones");
        assert_eq!(out[8], !bb.blast_bits(&pool, x, 64).unwrap()[8]);
    }

    #[test]
    fn subtraction_folds_from_its_constant_true_carry_in() {
        // (x << 4) - 3: a + !b + 1 over constant low bits is 0 - 3 there.
        let mut pool = ExprPool::new();
        let x = pool.var("x", 64);
        let four = pool.bv_const(4, 64);
        let a = pool.bin(BvOp::Shl, x, four);
        let b = pool.bv_const(3, 64);
        let diff = pool.intern(Node::Bin {
            op: BvOp::Sub,
            a,
            b,
        });
        let (mut bb, out) = assert_lowers_as(&pool, (a, b, diff), |cnf, av, bv| {
            let nb: Vec<Lit> = bv.iter().map(|&l| !l).collect();
            let t = cnf.true_lit();
            ripple(cnf, av, &nb, t)
        });
        let t = bb.cnf.true_lit();
        assert_eq!(&out[..4], &[t, !t, t, t], "0 - 3 ends in 0b1101");
    }

    #[test]
    fn an_all_constant_64_bit_overflow_builds_nothing() {
        let mut pool = ExprPool::new();
        let max = pool.bv_const(u64::MAX, 64);
        let one = pool.bv_const(1, 64);
        let zero = pool.bv_const(0, 64);
        let wrap = pool.intern(Node::Bin {
            op: BvOp::Add,
            a: max,
            b: one,
        });
        let borrow = pool.intern(Node::Bin {
            op: BvOp::Sub,
            a: zero,
            b: one,
        });
        let square = pool.intern(Node::Bin {
            op: BvOp::Mul,
            a: max,
            b: max,
        });
        let lt = pool.intern(Node::Cmp {
            op: CmpKind::Ult,
            a: max,
            b: one,
        });
        let slt = pool.intern(Node::Cmp {
            op: CmpKind::Slt,
            a: max,
            b: one,
        });
        let eq = pool.intern(Node::Cmp {
            op: CmpKind::Eq,
            a: max,
            b: one,
        });
        let mut bb = BitBlaster::new();
        let t = bb.cnf.true_lit();
        let (vars, clauses) = (bb.cnf.var_count(), bb.cnf.clause_count());
        assert_eq!(bb.blast_bits(&pool, wrap, 64).unwrap(), vec![!t; 64]);
        assert_eq!(bb.blast_bits(&pool, borrow, 64).unwrap(), vec![t; 64]);
        let mut one_bits = vec![!t; 64];
        one_bits[0] = t;
        assert_eq!(bb.blast_bits(&pool, square, 64).unwrap(), one_bits);
        assert_eq!(bb.blast_bits(&pool, lt, 1).unwrap(), vec![!t]);
        assert_eq!(bb.blast_bits(&pool, slt, 1).unwrap(), vec![t], "-1 < 1");
        assert_eq!(bb.blast_bits(&pool, eq, 1).unwrap(), vec![!t]);
        assert_eq!((bb.cnf.var_count(), bb.cnf.clause_count()), (vars, clauses));
    }

    #[test]
    fn a_known_shift_stage_or_ite_selector_copies_one_side() {
        // x << ((y & 5) | 2) at 8 bits: stage 1's selector is constant
        // true, stages 0 and 2 are symbolic.
        let mut pool = ExprPool::new();
        let x = pool.var("x", 8);
        let y = pool.var("y", 8);
        let five = pool.bv_const(5, 8);
        let two = pool.bv_const(2, 8);
        let y5 = pool.bin(BvOp::And, y, five);
        let amount = pool.bin(BvOp::Or, y5, two);
        let shifted = pool.intern(Node::Bin {
            op: BvOp::Shl,
            a: x,
            b: amount,
        });
        let mut bb = BitBlaster::new();
        let xv = bb.blast_bits(&pool, x, 8).unwrap();
        let sel = bb.blast_bits(&pool, amount, 8).unwrap();
        let mut reference = bb.cnf.clone();
        let out = bb.blast_bits(&pool, shifted, 8).unwrap();
        // The barrel shifter with one `ite_gate` per bit and stage.
        let f = reference.false_lit();
        let mut cur = xv.clone();
        for (stage, &s) in sel.iter().enumerate().take(3) {
            let amount = 1 << stage;
            let mut moved = vec![f; 8];
            moved[amount..].copy_from_slice(&cur[..8 - amount]);
            cur = cur
                .iter()
                .zip(&moved)
                .map(|(&c, &m)| reference.ite_gate(s, m, c))
                .collect();
        }
        assert_eq!(out, cur);
        assert_eq!(bb.cnf.var_count(), reference.var_count());
        assert_eq!(bb.cnf.clause_count(), reference.clause_count());

        // An ITE on a constant condition is its branch, with no clause.
        let yes = pool.bool_const(true);
        let ite = pool.intern(Node::Ite {
            cond: yes,
            then_e: x,
            else_e: y,
        });
        let clauses = bb.cnf.clause_count();
        assert_eq!(bb.blast_bits(&pool, ite, 8).unwrap(), xv);
        assert_eq!(bb.cnf.clause_count(), clauses);
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
