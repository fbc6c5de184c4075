//! The multiplier skips rows whose multiplier bit is constant-false and
//! adds each remaining row above its constant-false low bits only. Both
//! skips must be invisible in the CNF: against the full shift-and-add
//! circuit, kept here as the oracle, the clause stream, the variable count
//! and the output literals are identical for every operand shape and
//! demand, inside a blast scope and outside one.

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

/// Lowers `a`, `b` and then `product = a * b` at `demand` bits, and
/// checks the product's lowering against the schoolbook circuit built on a
/// copy of the formula as it stood before it.
fn assert_schoolbook_cnf(
    bb: &mut BitBlaster,
    pool: &ExprPool,
    (a, b, product): (ExprRef, ExprRef, ExprRef),
    demand: u32,
) {
    let av = bb.blast_bits(pool, a, demand).unwrap();
    let bv = bb.blast_bits(pool, b, demand).unwrap();
    let mut oracle = bb.cnf.clone();
    let out = bb.blast_bits(pool, product, demand).unwrap();
    let expected = schoolbook(&mut oracle, &av, &bv);
    assert_eq!(out, expected, "output literals");
    assert_eq!(bb.cnf.var_count(), oracle.var_count(), "variable count");
    assert_eq!(bb.cnf.clause_count(), oracle.clause_count(), "clause count");
    assert_eq!(pending(&bb.cnf), pending(&oracle), "clause stream");
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
