//! Default-value base reads must not change an answer. A symbolic read of
//! a base array is constrained by one axiom for the array's most common
//! reachable value plus one per reachable cell that holds another, instead
//! of one per cell. Small arrays whose contents are dominated by one value,
//! uniform, all distinct or absent (all zeros) are read at masked and
//! shifted indices, so known bits prune cells, through optional store
//! chains. A persistent [`IncrementalSolver`] takes committed constraints
//! and assumption probes; every answer is checked against brute force over
//! all inputs, and every model against everything asserted and every
//! read's bounds. Separately, the cells elimination charges must not
//! depend on what the array holds.

use er_solver::arrays::Eliminator;
use er_solver::expr::{ArrayNode, ArrayRef, BvOp, CmpKind, ExprPool, ExprRef, Node, VarId};
use er_solver::inc::IncrementalSolver;
use er_solver::solve::{Budget, Model, SatResult};
use proptest::prelude::*;
use std::collections::{HashMap, HashSet};

/// Input variables and their widths.
const INPUTS: [(&str, u32); 3] = [("x", 4), ("y", 4), ("z", 2)];
/// Every assignment of the inputs.
const ASSIGNMENTS: u64 = 1 << 10;
/// Element width.
const ELEM: u32 = 4;
/// Index width: wide enough that an index can leave a 16-cell array.
const INDEX: u32 = 8;

/// The array: length byte, contents kind, dominant value, and the
/// `(cell, value)` exceptions a dominated array carries.
type ArraySpec = (u8, u8, u8, Vec<(u8, u8)>);
/// An index: input, mask, shape, constant.
type IndexSpec = (u8, u8, u8, u8);
/// A store: its index and a value byte (high bit: the input `y`).
type StoreSpec = (IndexSpec, u8);
/// A constraint: `cmp(read(chain, index), rhs)`, the right side picked and
/// parameterized by the last two bytes.
type ConstraintSpec = (CmpKind, IndexSpec, u8, u8);

fn cmpkind() -> impl Strategy<Value = CmpKind> {
    prop_oneof![
        Just(CmpKind::Eq),
        Just(CmpKind::Ult),
        Just(CmpKind::Ule),
        Just(CmpKind::Slt),
    ]
}

fn index_spec() -> impl Strategy<Value = IndexSpec> {
    (any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>())
}

/// Array contents by kind: 0 dominant (the exceptions over one value), 1
/// uniform, 2 all distinct, 3 absent (all zeros).
fn contents(spec: &ArraySpec) -> (u64, Option<Vec<u64>>) {
    let (len, kind, v0, exceptions) = spec;
    let len = 1 + u64::from(*len) % 16;
    let v0 = u64::from(*v0) % (1 << ELEM);
    let init = match kind % 4 {
        0 => {
            let mut cells = vec![v0; len as usize];
            for &(k, v) in exceptions {
                cells[usize::from(k) % len as usize] = u64::from(v) % (1 << ELEM);
            }
            Some(cells)
        }
        1 => Some(vec![v0; len as usize]),
        2 => Some((0..len).map(|k| (k * 5 + v0) % (1 << ELEM)).collect()),
        _ => None,
    };
    (len, init)
}

/// The input `which` picks, zero-extended to the index width.
fn input(pool: &mut ExprPool, vars: &[ExprRef], which: u8) -> ExprRef {
    pool.zext(vars[usize::from(which) % vars.len()], INDEX)
}

/// `(v & mask)` shifted, scaled or offset, so that some index bits are
/// known and some cells unreachable.
fn index(pool: &mut ExprPool, vars: &[ExprRef], spec: IndexSpec) -> ExprRef {
    let (which, mask, shape, c) = spec;
    let v = input(pool, vars, which);
    let m = pool.bv_const(u64::from(mask % 16), INDEX);
    let base = pool.bin(BvOp::And, v, m);
    let c = u64::from(c);
    match shape % 4 {
        0 => {
            let k = pool.bv_const(c % 16, INDEX);
            pool.bin(BvOp::Add, base, k)
        }
        1 => {
            let s = pool.bv_const(c % 3, INDEX);
            let shifted = pool.bin(BvOp::Shl, base, s);
            let k = pool.bv_const(c >> 6, INDEX);
            pool.bin(BvOp::Or, shifted, k)
        }
        2 => {
            let four = pool.bv_const(4, INDEX);
            let scaled = pool.bin(BvOp::Mul, base, four);
            let k = pool.bv_const(c % 4, INDEX);
            pool.bin(BvOp::Add, scaled, k)
        }
        _ => base,
    }
}

/// The inputs, the array with its store chain, and one expression per
/// constraint spec.
fn build(
    pool: &mut ExprPool,
    array: &ArraySpec,
    stores: &[StoreSpec],
    shapes: &[ConstraintSpec],
) -> Vec<ExprRef> {
    let vars: Vec<ExprRef> = INPUTS
        .iter()
        .map(|&(name, bits)| pool.var(name, bits))
        .collect();
    let (len, init) = contents(array);
    let mut arr: ArrayRef = pool.array("A", len, ELEM, init);
    for &(at, value) in stores {
        let i = index(pool, &vars, at);
        let v = if value & 0x80 != 0 {
            vars[1]
        } else {
            pool.bv_const(u64::from(value) % (1 << ELEM), ELEM)
        };
        arr = pool.write(arr, i, v);
    }
    shapes
        .iter()
        .map(|&(cmp, at, kind, k)| {
            let i = index(pool, &vars, at);
            let left = pool.read(arr, i);
            let right = match kind % 3 {
                0 => pool.bv_const(u64::from(k) % (1 << ELEM), ELEM),
                1 => vars[0],
                _ => {
                    let j = index(pool, &vars, (1, k, k >> 4, 0));
                    pool.read(arr, j)
                }
            };
            pool.cmp(cmp, left, right)
        })
        .collect()
}

fn model(bits: u64) -> Model {
    let mut m = Model::default();
    let mut shift = 0;
    for (id, &(_, width)) in INPUTS.iter().enumerate() {
        m.set(VarId(id as u32), bits >> shift & ((1 << width) - 1));
        shift += width;
    }
    m
}

/// Every read below `e` with a symbolic index, with its array's length:
/// elimination asserts each such index in bounds.
fn symbolic_reads(pool: &ExprPool, e: ExprRef, out: &mut Vec<(ExprRef, u64)>) {
    fn expr(
        pool: &ExprPool,
        e: ExprRef,
        seen: &mut HashSet<ExprRef>,
        out: &mut Vec<(ExprRef, u64)>,
    ) {
        if !seen.insert(e) {
            return;
        }
        match *pool.node(e) {
            Node::Const { .. } | Node::BoolConst(_) | Node::Var { .. } => {}
            Node::Bin { a, b, .. }
            | Node::Cmp { a, b, .. }
            | Node::AndB(a, b)
            | Node::OrB(a, b) => {
                expr(pool, a, seen, out);
                expr(pool, b, seen, out);
            }
            Node::Not(a)
            | Node::ZExt { a, .. }
            | Node::Trunc { a, .. }
            | Node::BoolToBv { a, .. } => expr(pool, a, seen, out),
            Node::Ite {
                cond,
                then_e,
                else_e,
            } => {
                expr(pool, cond, seen, out);
                expr(pool, then_e, seen, out);
                expr(pool, else_e, seen, out);
            }
            Node::Read { arr, index } => {
                expr(pool, index, seen, out);
                if pool.as_const(index).is_none() {
                    out.push((index, pool.array_len(arr)));
                }
                let mut a = arr;
                while let ArrayNode::Store { arr, index, value } = *pool.array_node(a) {
                    expr(pool, index, seen, out);
                    expr(pool, value, seen, out);
                    a = arr;
                }
            }
        }
    }
    expr(pool, e, &mut HashSet::new(), out);
}

/// Whether `e` holds with every read below it in bounds, per assignment.
fn truth(pool: &ExprPool, e: ExprRef) -> Vec<bool> {
    let mut reads = Vec::new();
    symbolic_reads(pool, e, &mut reads);
    (0..ASSIGNMENTS)
        .map(|bits| {
            let m = model(bits);
            m.eval_bool(pool, e) && reads.iter().all(|&(i, len)| m.eval(pool, i) < len)
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

/// Whether `m` satisfies every one of `es` with every read in bounds.
fn model_holds(pool: &ExprPool, m: &Model, es: &[ExprRef]) -> bool {
    es.iter().all(|&e| {
        let mut reads = Vec::new();
        symbolic_reads(pool, e, &mut reads);
        m.eval_bool(pool, e) && reads.iter().all(|&(i, len)| m.eval(pool, i) < len)
    })
}

/// Cells a fresh eliminator charges for rewriting every one of `es`.
fn cells(pool: &mut ExprPool, es: &[ExprRef]) -> u64 {
    let mut elim = Eliminator::new();
    for &e in es {
        elim.rewrite(pool, e, u64::MAX, &mut Vec::new())
            .expect("an unbounded budget never trips");
    }
    elim.stats().cells
}

fn array_spec() -> impl Strategy<Value = ArraySpec> {
    (
        any::<u8>(),
        any::<u8>(),
        any::<u8>(),
        prop::collection::vec((any::<u8>(), any::<u8>()), 0..4),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn default_reads_answer_like_brute_force(
        array in array_spec(),
        stores in prop::collection::vec((index_spec(), any::<u8>()), 0..3),
        shapes in prop::collection::vec((cmpkind(), index_spec(), any::<u8>(), any::<u8>()), 1..5),
        steps in prop::collection::vec((any::<bool>(), any::<u8>()), 1..8),
    ) {
        let mut pool = ExprPool::new();
        let shapes = build(&mut pool, &array, &stores, &shapes);
        let budget = Budget::default();
        let mut inc = IncrementalSolver::new();
        let mut committed: Vec<ExprRef> = Vec::new();
        let mut table = HashMap::new();
        for (probe, pick) in steps {
            let shape = shapes[usize::from(pick) % shapes.len()];
            let (answer, asserted) = if probe {
                let a = inc.check_assuming(&mut pool, &committed, &[shape], &budget);
                let mut all = committed.clone();
                all.push(shape);
                (a, all)
            } else {
                committed.push(shape);
                (inc.check(&mut pool, &committed, &budget), committed.clone())
            };
            let expect = brute_sat(&pool, &mut table, &asserted);
            match &answer {
                SatResult::Sat(m) => {
                    prop_assert!(expect, "Sat where no assignment satisfies");
                    prop_assert!(model_holds(&pool, m, &asserted), "model violates an assertion");
                }
                SatResult::Unsat => prop_assert!(!expect, "Unsat where an assignment satisfies"),
                SatResult::Unknown(r) => prop_assert!(false, "stalled: {r:?}"),
            }
        }
    }

    #[test]
    fn cells_do_not_depend_on_contents(
        array in array_spec(),
        stores in prop::collection::vec((index_spec(), any::<u8>()), 0..3),
        shapes in prop::collection::vec((cmpkind(), index_spec(), any::<u8>(), any::<u8>()), 1..5),
    ) {
        let mut counts = Vec::new();
        for kind in 0..4u8 {
            let mut pool = ExprPool::new();
            let spec = (array.0, kind, array.2, array.3.clone());
            let es = build(&mut pool, &spec, &stores, &shapes);
            counts.push(cells(&mut pool, &es));
        }
        prop_assert!(counts.windows(2).all(|w| w[0] == w[1]), "cells by contents: {counts:?}");
    }
}
