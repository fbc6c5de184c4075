//! The bit-blaster folds constant bits without calling the gate builders,
//! and none of its shortcuts may show in the CNF. Against the per-bit
//! circuits kept here as oracles, the clause stream, the variable count
//! and the output literals are identical for every operand shape and
//! demand, inside a blast scope and outside one:
//!
//! - the multiplier skips rows whose multiplier bit is constant-false,
//!   adds each remaining row above its constant-false low bits only, and
//!   takes a constant-true row as the operand itself (the schoolbook
//!   shift-and-add circuit is the oracle);
//! - carry chains add bits whose inputs are all constant in plain
//!   arithmetic, and `Eq` skips constant pairs (a ripple-carry adder of
//!   `full_adder`s and an `iff`/`and_gate` chain are the oracles for Add,
//!   Sub, the four orderings and Eq).

use er_solver::bitblast::BitBlaster;
use er_solver::cnf::{Cnf, Lit};
use er_solver::expr::{BvOp, CmpKind, ExprPool, ExprRef, Node};
use proptest::prelude::*;

/// Shift-and-add over every row at full width, as the multiplier was
/// lowered before it skipped anything.
fn schoolbook(cnf: &mut Cnf, a: &[Lit], b: &[Lit]) -> Vec<Lit> {
    let w = a.len();
    let f = cnf.false_lit();
    let mut acc = vec![f; w];
    for (i, &bi) in b.iter().enumerate() {
        let mut partial = vec![f; w];
        for j in 0..w - i {
            partial[i + j] = cnf.and_gate(a[j], bi);
        }
        let mut carry = f;
        acc = acc
            .iter()
            .zip(&partial)
            .map(|(&x, &y)| {
                let (s, c) = cnf.full_adder(x, y, carry);
                carry = c;
                s
            })
            .collect();
    }
    acc
}

/// A 64-bit operand of shape `kind`: a constant, a variable, a masked
/// variable (known-zero bits, so known-zero rows), a variable shifted left
/// (known-zero low bits), or a zero-extended narrow variable.
fn operand(pool: &mut ExprPool, kind: u8, k: u64, x: ExprRef, narrow: ExprRef) -> ExprRef {
    match kind % 5 {
        0 => pool.bv_const(k, 64),
        1 => x,
        2 => {
            let mask = pool.bv_const(k, 64);
            pool.bin(BvOp::And, x, mask)
        }
        3 => {
            let sh = pool.bv_const(k % 64, 64);
            pool.bin(BvOp::Shl, x, sh)
        }
        _ => pool.zext(narrow, 64),
    }
}

/// `k` with a few bit patterns made likely: sparse, dense, small.
fn pattern(k: u64, style: u8) -> u64 {
    match style % 4 {
        0 => k & (k >> 7) & (k >> 13),
        1 => k | (k << 3),
        2 => k % 64,
        _ => k,
    }
}

fn pending(cnf: &Cnf) -> Vec<Vec<Lit>> {
    cnf.pending().map(<[Lit]>::to_vec).collect()
}

/// Lowers `a`, `b` and then `node` (an operation on them) at `demand`
/// bits, and checks the node's lowering against `oracle` built on a copy
/// of the formula as it stood before it.
fn assert_oracle_cnf(
    bb: &mut BitBlaster,
    pool: &ExprPool,
    (a, b, node): (ExprRef, ExprRef, ExprRef),
    demand: u32,
    oracle: impl FnOnce(&mut Cnf, &[Lit], &[Lit]) -> Vec<Lit>,
) {
    let av = bb.blast_bits(pool, a, demand).unwrap();
    let bv = bb.blast_bits(pool, b, demand).unwrap();
    let mut reference = bb.cnf.clone();
    let out = bb.blast_bits(pool, node, demand).unwrap();
    let expected = oracle(&mut reference, &av, &bv);
    assert_eq!(out, expected, "output literals");
    assert_eq!(bb.cnf.var_count(), reference.var_count(), "variable count");
    assert_eq!(
        bb.cnf.clause_count(),
        reference.clause_count(),
        "clause count"
    );
    assert_eq!(pending(&bb.cnf), pending(&reference), "clause stream");
}

/// [`assert_oracle_cnf`] for `product = a * b` against the schoolbook
/// circuit.
fn assert_schoolbook_cnf(
    bb: &mut BitBlaster,
    pool: &ExprPool,
    (a, b, product): (ExprRef, ExprRef, ExprRef),
    demand: u32,
) {
    assert_oracle_cnf(bb, pool, (a, b, product), demand, schoolbook);
}

/// `a + b + carry`, one `full_adder` per bit: the sum and the carry out.
fn ripple(cnf: &mut Cnf, a: &[Lit], b: &[Lit], mut carry: Lit) -> (Vec<Lit>, Lit) {
    let sum = a
        .iter()
        .zip(b)
        .map(|(&x, &y)| {
            let (s, c) = cnf.full_adder(x, y, carry);
            carry = c;
            s
        })
        .collect();
    (sum, carry)
}

fn negated(bits: &[Lit]) -> Vec<Lit> {
    bits.iter().map(|&l| !l).collect()
}

/// `a < b` unsigned: no carry out of `a + !b + 1`.
fn ult(cnf: &mut Cnf, a: &[Lit], b: &[Lit]) -> Lit {
    let t = cnf.true_lit();
    !ripple(cnf, a, &negated(b), t).1
}

/// `a < b` signed: the sign bit when the signs differ, else unsigned.
fn slt(cnf: &mut Cnf, a: &[Lit], b: &[Lit]) -> Lit {
    let (sa, sb) = (a[a.len() - 1], b[b.len() - 1]);
    let unsigned = ult(cnf, a, b);
    let differ = cnf.xor_gate(sa, sb);
    cnf.ite_gate(differ, sa, unsigned)
}

/// An operation whose lowering folds constant bits.
#[derive(Debug, Clone, Copy)]
enum Op {
    Bin(BvOp),
    Cmp(CmpKind),
}

const OPS: [Op; 7] = [
    Op::Bin(BvOp::Add),
    Op::Bin(BvOp::Sub),
    Op::Cmp(CmpKind::Eq),
    Op::Cmp(CmpKind::Ult),
    Op::Cmp(CmpKind::Ule),
    Op::Cmp(CmpKind::Slt),
    Op::Cmp(CmpKind::Sle),
];

/// The per-bit circuit of `op`: one `full_adder` per bit, or for `Eq`
/// one `iff_gate` and one `and_gate` per bit pair.
fn per_bit(op: Op, cnf: &mut Cnf, a: &[Lit], b: &[Lit]) -> Vec<Lit> {
    let out = match op {
        Op::Bin(BvOp::Add) => {
            let f = cnf.false_lit();
            return ripple(cnf, a, b, f).0;
        }
        Op::Bin(BvOp::Sub) => {
            let t = cnf.true_lit();
            return ripple(cnf, a, &negated(b), t).0;
        }
        Op::Bin(other) => unreachable!("no per-bit oracle for {other:?}"),
        Op::Cmp(CmpKind::Eq) => {
            let mut acc = cnf.true_lit();
            for (&x, &y) in a.iter().zip(b) {
                let eq = cnf.iff_gate(x, y);
                acc = cnf.and_gate(acc, eq);
            }
            acc
        }
        Op::Cmp(CmpKind::Ult) => ult(cnf, a, b),
        Op::Cmp(CmpKind::Ule) => !ult(cnf, b, a),
        Op::Cmp(CmpKind::Slt) => slt(cnf, a, b),
        Op::Cmp(CmpKind::Sle) => !slt(cnf, b, a),
    };
    vec![out]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn row_skipping_multiplier_emits_the_schoolbook_cnf(
        kinds in (any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>()),
        ks in (any::<u64>(), any::<u64>()),
        demand in 1u32..=64,
        scoped in any::<bool>(),
        warm in any::<bool>(),
    ) {
        let (kind_a, style_a, kind_b, style_b) = kinds;
        let mut pool = ExprPool::new();
        let x = pool.var("x", 64);
        let y = pool.var("y", 64);
        let narrow = pool.var("n", 12);
        let a = operand(&mut pool, kind_a, pattern(ks.0, style_a), x, narrow);
        let b = operand(&mut pool, kind_b, pattern(ks.1, style_b), y, narrow);
        // Straight through `intern`, so constant operands still meet the
        // multiplier instead of folding in the constructor.
        let product = pool.intern(Node::Bin { op: BvOp::Mul, a, b });

        let mut bb = BitBlaster::new();
        if warm {
            // Committed clauses, and the constant literal, before any scope.
            let hundred = pool.bv_const(100, 64);
            let small = pool.cmp(CmpKind::Ult, x, hundred);
            bb.assert_true(&pool, small).unwrap();
        }
        if scoped {
            let committed = bb.cnf.clause_count();
            bb.begin_scope();
            assert_schoolbook_cnf(&mut bb, &pool, (a, b, product), demand);
            bb.rollback_scope();
            prop_assert_eq!(bb.cnf.clause_count(), committed);
        }
        // Outside a scope, after a rolled-back one if there was one.
        assert_schoolbook_cnf(&mut bb, &pool, (a, b, product), demand);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn constant_carry_chains_and_comparators_emit_the_per_bit_cnf(
        kinds in (any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>()),
        ks in (any::<u64>(), any::<u64>()),
        which in 0..OPS.len(),
        width in 1u32..=64,
        scoped in any::<bool>(),
        warm in any::<bool>(),
    ) {
        let (kind_a, style_a, kind_b, style_b) = kinds;
        let mut pool = ExprPool::new();
        let x = pool.var("x", 64);
        let y = pool.var("y", 64);
        let narrow = pool.var("n", 12);
        let a = operand(&mut pool, kind_a, pattern(ks.0, style_a), x, narrow);
        let b = operand(&mut pool, kind_b, pattern(ks.1, style_b), y, narrow);
        // A sum is lowered at `width` demanded bits; a comparison compares
        // the operands' low `width` bits. Straight through `intern`, so
        // constant operands reach the blaster.
        let op = OPS[which];
        let (a, b, node) = match op {
            Op::Bin(op) => (a, b, pool.intern(Node::Bin { op, a, b })),
            Op::Cmp(op) => {
                let (a, b) = (pool.trunc(a, width), pool.trunc(b, width));
                (a, b, pool.intern(Node::Cmp { op, a, b }))
            }
        };
        let oracle = |cnf: &mut Cnf, av: &[Lit], bv: &[Lit]| per_bit(op, cnf, av, bv);

        let mut bb = BitBlaster::new();
        if warm {
            let hundred = pool.bv_const(100, 64);
            let small = pool.cmp(CmpKind::Ult, x, hundred);
            bb.assert_true(&pool, small).unwrap();
        }
        if scoped {
            let committed = bb.cnf.clause_count();
            bb.begin_scope();
            assert_oracle_cnf(&mut bb, &pool, (a, b, node), width, oracle);
            bb.rollback_scope();
            prop_assert_eq!(bb.cnf.clause_count(), committed);
        }
        assert_oracle_cnf(&mut bb, &pool, (a, b, node), width, oracle);
    }
}
