//! Property tests for the solver stack: the simplifier must agree with
//! concrete machine arithmetic, models must satisfy the formulas they were
//! produced for, and the CDCL core must agree with brute force.

use er_solver::cnf::{Lit, Var};
use er_solver::expr::{BvOp, CmpKind, ExprPool, ExprRef, VarId};
use er_solver::inc::IncrementalSolver;
use er_solver::sat::{SatOutcome, SatSolver};
use er_solver::simplify::eval_concrete;
use er_solver::solve::{Budget, SatResult};
use proptest::prelude::*;

fn bvop() -> impl Strategy<Value = BvOp> {
    prop_oneof![
        Just(BvOp::Add),
        Just(BvOp::Sub),
        Just(BvOp::Mul),
        Just(BvOp::UDiv),
        Just(BvOp::URem),
        Just(BvOp::And),
        Just(BvOp::Or),
        Just(BvOp::Xor),
        Just(BvOp::Shl),
        Just(BvOp::LShr),
        Just(BvOp::AShr),
    ]
}

fn cmpkind() -> impl Strategy<Value = CmpKind> {
    prop_oneof![
        Just(CmpKind::Eq),
        Just(CmpKind::Ult),
        Just(CmpKind::Ule),
        Just(CmpKind::Slt),
        Just(CmpKind::Sle),
    ]
}

fn width() -> impl Strategy<Value = u32> {
    prop_oneof![Just(8u32), Just(16), Just(32), Just(64)]
}

/// A random expression over two variables, returned with the pool.
fn random_expr(ops: Vec<(BvOp, bool)>, bits: u32) -> (ExprPool, ExprRef) {
    let mut pool = ExprPool::new();
    let x = pool.var("x", bits);
    let y = pool.var("y", bits);
    let mut acc = x;
    for (i, (op, use_y)) in ops.into_iter().enumerate() {
        let rhs = if use_y {
            y
        } else {
            pool.bv_const(i as u64 + 1, bits)
        };
        acc = pool.bin(op, acc, rhs);
    }
    (pool, acc)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Constructor-time simplification never changes semantics: evaluating
    /// the (possibly folded) DAG equals direct machine arithmetic.
    #[test]
    fn simplifier_agrees_with_machine_arithmetic(
        ops in prop::collection::vec((bvop(), any::<bool>()), 1..8),
        bits in width(),
        xv in any::<u64>(),
        yv in any::<u64>(),
    ) {
        let (pool, expr) = random_expr(ops.clone(), bits);
        let got = eval_concrete(&pool, expr, &|id| if id == VarId(0) { xv } else { yv });
        // Reference: replay the op list with BvOp::eval.
        let mask = if bits == 64 { u64::MAX } else { (1u64 << bits) - 1 };
        let mut expect = xv & mask;
        for (i, (op, use_y)) in ops.iter().enumerate() {
            let rhs = if *use_y { yv & mask } else { i as u64 + 1 };
            expect = op.eval(bits, expect, rhs);
        }
        prop_assert_eq!(got, expect);
    }

    /// Any SAT answer comes with a model that satisfies the assertion.
    #[test]
    fn models_satisfy_assertions(
        ops in prop::collection::vec((bvop(), any::<bool>()), 1..6),
        cmp in cmpkind(),
        bits in width(),
        target in any::<u64>(),
    ) {
        let (mut pool, expr) = random_expr(ops, bits);
        let t = pool.bv_const(target, bits);
        let c = pool.cmp(cmp, expr, t);
        match IncrementalSolver::new().check(&mut pool, &[c], &Budget::default()) {
            SatResult::Sat(model) => prop_assert!(model.eval_bool(&pool, c)),
            SatResult::Unsat | SatResult::Unknown(_) => {}
        }
    }

    /// The negation of a satisfied constraint is never also reported SAT
    /// under the same model.
    #[test]
    fn negation_is_consistent(
        bits in width(),
        a in any::<u64>(),
        b in any::<u64>(),
        cmp in cmpkind(),
    ) {
        let mut pool = ExprPool::new();
        let x = pool.var("x", bits);
        let av = pool.bv_const(a, bits);
        let sum = pool.bin(BvOp::Add, x, av);
        let bv = pool.bv_const(b, bits);
        let c = pool.cmp(cmp, sum, bv);
        let nc = pool.not(c);
        prop_assert_eq!(
            IncrementalSolver::new().check(&mut pool, &[c, nc], &Budget::default()),
            SatResult::Unsat
        );
    }

    /// CDCL agrees with brute force on random small CNFs.
    #[test]
    fn sat_agrees_with_bruteforce(
        clauses in prop::collection::vec(
            prop::collection::vec((0u32..6, any::<bool>()), 1..4),
            1..24,
        ),
    ) {
        let clauses: Vec<Vec<Lit>> = clauses
            .iter()
            .map(|c| c.iter().map(|&(v, pos)| Lit::new(Var(v), pos)).collect())
            .collect();
        let holds = |assignment: &[bool]| {
            clauses.iter().all(|c| {
                c.iter()
                    .any(|l| assignment[l.var().0 as usize] == l.is_pos())
            })
        };
        let brute = (0u32..64).any(|bits| {
            let assignment: Vec<bool> = (0..6).map(|i| bits >> i & 1 == 1).collect();
            holds(&assignment)
        });
        let mut solver = SatSolver::new();
        solver.ensure_vars(6);
        for c in &clauses {
            solver.push_clause(c);
        }
        let got = match solver.solve(1_000_000) {
            SatOutcome::Sat(m) => {
                prop_assert!(holds(&m));
                true
            }
            SatOutcome::Unsat => false,
            SatOutcome::Unknown => return Err(TestCaseError::fail("budget exhausted")),
        };
        prop_assert_eq!(got, brute);
    }

    /// Concrete store chains fold reads to the right value (the reference
    /// model is a plain array).
    #[test]
    fn concrete_array_chains_fold(
        writes in prop::collection::vec((0u64..16, any::<u8>()), 0..12),
        read_at in 0u64..16,
    ) {
        let mut pool = ExprPool::new();
        let mut arr = pool.array("A", 16, 8, None);
        let mut reference = [0u8; 16];
        for (idx, val) in &writes {
            let i = pool.bv_const(*idx, 64);
            let v = pool.bv_const(u64::from(*val), 8);
            arr = pool.write(arr, i, v);
            reference[*idx as usize] = *val;
        }
        let i = pool.bv_const(read_at, 64);
        let r = pool.read(arr, i);
        prop_assert_eq!(pool.as_const(r), Some(u64::from(reference[read_at as usize])));
    }

    /// A symbolic read constrained to a unique index is forced to the
    /// written value.
    #[test]
    fn symbolic_read_respects_unique_index(
        idx in 0u64..8,
        val in 1u64..200,
    ) {
        let mut pool = ExprPool::new();
        let arr = pool.array("A", 8, 32, None);
        let i = pool.var("i", 64);
        let iv = pool.bv_const(idx, 64);
        let vv = pool.bv_const(val, 32);
        let w = pool.write(arr, i, vv);
        let r = pool.read(w, iv);
        let pin = pool.cmp(CmpKind::Eq, i, iv);
        let wrong = pool.ne(r, vv);
        prop_assert_eq!(
            IncrementalSolver::new().check(&mut pool, &[pin, wrong], &Budget::default()),
            SatResult::Unsat
        );
    }
}
