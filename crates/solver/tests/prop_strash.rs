//! Gate sharing must not change an answer. A persistent
//! [`IncrementalSolver`] is driven through random small-width formulas
//! that repeat sub-shapes, so many gates are found in the table instead of
//! built: across committed constraints, across assumption probes, and from
//! a probe whose scope was rolled back to a later committed constraint.
//! Every answer is checked against brute-force evaluation over all inputs,
//! every model against everything asserted, and a clone of the engine
//! taken before each query must answer it identically.

use er_solver::expr::{BvOp, CmpKind, ExprPool, ExprRef, VarId};
use er_solver::inc::IncrementalSolver;
use er_solver::solve::{Budget, Model, SatResult};
use proptest::prelude::*;
use std::collections::HashMap;

/// Width of every term.
const BITS: u32 = 4;
/// Input variables and their widths: `z` is narrower and zero-extended.
const INPUTS: [(&str, u32); 3] = [("x", 4), ("y", 4), ("z", 2)];
/// Every assignment of the inputs.
const ASSIGNMENTS: u64 = 1 << 10;

fn bvop() -> impl Strategy<Value = BvOp> {
    prop_oneof![
        Just(BvOp::Add),
        Just(BvOp::Sub),
        Just(BvOp::Mul),
        Just(BvOp::And),
        Just(BvOp::Or),
        Just(BvOp::Xor),
        Just(BvOp::Shl),
        Just(BvOp::LShr),
        Just(BvOp::UDiv),
        Just(BvOp::URem),
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

/// A shared sub-term: `op(l, r)` over earlier terms, operands swapped if
/// `swap` (commutative operations then meet the same gates).
type TermSpec = (BvOp, u8, u8, bool);
/// A constraint: `cmp(left, right)`, where `right` is a term or, past the
/// terms, a constant, and `left` is a term, or the minimum or maximum of
/// the two (ITEs under both polarities of one condition, over the same
/// branches), or `left` and `right` become that minimum and maximum.
type ConstraintSpec = (CmpKind, u8, u8, u8, u8);

/// Builds the leaves (`x`, `y`, `zext(z)`, a constant) and then each term
/// over what came before it.
fn terms(pool: &mut ExprPool, specs: &[TermSpec], k: u64) -> Vec<ExprRef> {
    let mut out: Vec<ExprRef> = INPUTS
        .iter()
        .map(|&(name, bits)| {
            let v = pool.var(name, bits);
            pool.zext(v, BITS)
        })
        .collect();
    out.push(pool.bv_const(k, BITS));
    for &(op, l, r, swap) in specs {
        let (a, b) = (out[l as usize % out.len()], out[r as usize % out.len()]);
        let (a, b) = if swap { (b, a) } else { (a, b) };
        out.push(pool.bin(op, a, b));
    }
    out
}

fn constraint(pool: &mut ExprPool, ts: &[ExprRef], spec: ConstraintSpec) -> ExprRef {
    let (cmp, l, r, k, ite) = spec;
    let left = ts[l as usize % ts.len()];
    let pick = r as usize % (ts.len() + 1);
    let right = match ts.get(pick) {
        Some(&t) => t,
        None => pool.bv_const(u64::from(k), BITS),
    };
    let lt = pool.cmp(CmpKind::Ult, left, right);
    let ge = pool.not(lt);
    let (left, right) = match ite % 4 {
        0 => (left, right),
        1 => (pool.ite(lt, left, right), right),
        2 => (pool.ite(ge, left, right), right),
        _ => (pool.ite(lt, left, right), pool.ite(ge, left, right)),
    };
    pool.cmp(cmp, left, right)
}

/// Whether `e` holds, for every assignment of the inputs (bit `i` of the
/// index is input bit `i`, `x` lowest).
fn truth(pool: &ExprPool, e: ExprRef) -> Vec<bool> {
    (0..ASSIGNMENTS)
        .map(|bits| {
            let mut m = Model::default();
            let mut shift = 0;
            for (id, &(_, width)) in INPUTS.iter().enumerate() {
                m.set(VarId(id as u32), bits >> shift & ((1 << width) - 1));
                shift += width;
            }
            m.eval_bool(pool, e)
        })
        .collect()
}

/// Whether some assignment satisfies every one of `es`.
fn brute_sat(pool: &ExprPool, table: &mut HashMap<ExprRef, Vec<bool>>, es: &[ExprRef]) -> bool {
    for &e in es {
        table.entry(e).or_insert_with(|| truth(pool, e));
    }
    (0..ASSIGNMENTS as usize).any(|i| es.iter().all(|e| table[e][i]))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn shared_gates_answer_like_brute_force(
        k in any::<u8>(),
        term_specs in prop::collection::vec((bvop(), any::<u8>(), any::<u8>(), any::<bool>()), 1..5),
        shapes in prop::collection::vec(
            (cmpkind(), any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>()),
            1..6,
        ),
        steps in prop::collection::vec((any::<bool>(), any::<u8>()), 1..10),
    ) {
        let mut pool = ExprPool::new();
        let ts = terms(&mut pool, &term_specs, u64::from(k) % (1 << BITS));
        let shapes: Vec<ExprRef> = shapes
            .into_iter()
            .map(|s| constraint(&mut pool, &ts, s))
            .collect();
        // The first shape is probed, rolled back, and then committed.
        let steps = [(true, 0), (false, 0)].into_iter().chain(steps);

        let budget = Budget::default();
        let mut inc = IncrementalSolver::new();
        let mut committed: Vec<ExprRef> = Vec::new();
        let mut table = HashMap::new();
        for (probe, pick) in steps {
            let shape = shapes[pick as usize % shapes.len()];
            let mut twin = inc.clone();
            let (answer, twin_answer, asserted) = if probe {
                let a = inc.check_assuming(&mut pool, &committed, &[shape], &budget);
                let b = twin.check_assuming(&mut pool, &committed, &[shape], &budget);
                let mut all = committed.clone();
                all.push(shape);
                (a, b, all)
            } else {
                committed.push(shape);
                let a = inc.check(&mut pool, &committed, &budget);
                let b = twin.check(&mut pool, &committed, &budget);
                (a, b, committed.clone())
            };
            prop_assert_eq!(&answer, &twin_answer, "a clone answers identically");
            let expect = brute_sat(&pool, &mut table, &asserted);
            match &answer {
                SatResult::Sat(m) => {
                    prop_assert!(expect, "Sat where no assignment satisfies");
                    prop_assert!(asserted.iter().all(|&e| m.eval_bool(&pool, e)));
                }
                SatResult::Unsat => prop_assert!(!expect, "Unsat where an assignment satisfies"),
                SatResult::Unknown(r) => prop_assert!(false, "stalled: {r:?}"),
            }
        }
    }
}
