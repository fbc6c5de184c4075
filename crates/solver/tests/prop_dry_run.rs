//! `Eliminator::would_trip` decides a cell-budget trip without building
//! anything. On random constraints over read/store chains it must agree
//! with the rewrite it predicts, on the verdict and on the cell count, and
//! it may decline only where a read's index, or a store index below it,
//! contains a read.

use er_solver::arrays::{DryRun, Eliminator};
use er_solver::expr::{ArrayNode, ArrayRef, BvOp, CmpKind, ExprPool, ExprRef, Node};
use er_solver::inc::IncrementalSolver;
use er_solver::solve::{Budget, SatResult, StallReason};
use proptest::prelude::*;

/// Base-array lengths, from far under to far over the budgets drawn.
const LENS: [u64; 4] = [4, 16, 300, 1024];

/// A pool of reads over random store chains, and constraints over them.
struct Built {
    pool: ExprPool,
    constraints: Vec<ExprRef>,
}

/// Builds arrays, indices and reads step by step from a few bases and
/// indices, so that reads repeat `(base, index)` pairs through different
/// chains. Indices are constants, variables, variables with known low
/// bits, and reads themselves; stored values are constants, variables and
/// reads. Some steps put a symbolic store over a constant one and read at
/// the constant, which the constant-index store shortcut decides.
fn build(steps: &[(u8, u8, u8, u64)]) -> Built {
    let mut pool = ExprPool::new();
    let mut arrays: Vec<ArrayRef> = LENS
        .iter()
        .enumerate()
        .map(|(n, &len)| {
            let init = (n % 2 == 0).then(|| (0..len).map(|k| k * 7 % 256).collect());
            pool.array(format!("A{n}"), len, 8, init)
        })
        .collect();
    let i0 = pool.var("i0", 64);
    let i1 = pool.var("i1", 64);
    let seven = pool.bv_const(7, 64);
    let masked = pool.bin(BvOp::And, i1, seven);
    let consts: Vec<ExprRef> = [1, 3].iter().map(|&k| pool.bv_const(k, 64)).collect();
    let mut indices: Vec<ExprRef> = vec![i0, i1, masked, consts[0], consts[1]];
    let v = pool.var("v", 8);
    let mut values: Vec<ExprRef> = vec![v, pool.bv_const(5, 8)];
    let mut constraints = Vec::new();
    for &(kind, pick_a, pick_b, k) in steps {
        let arr = arrays[pick_a as usize % arrays.len()];
        let idx = indices[pick_b as usize % indices.len()];
        let value = values[(k % values.len() as u64) as usize];
        match kind % 7 {
            0 | 1 => arrays.push(pool.write(arr, idx, value)),
            2 => {
                let r = pool.read(arr, idx);
                values.push(r);
            }
            3 => {
                // An index that contains a read.
                let r = pool.read(arr, idx);
                let wide = pool.zext(r, 64);
                let k = pool.bv_const(k % 4, 64);
                indices.push(pool.bin(BvOp::Add, wide, k));
            }
            4 => {
                let r = pool.read(arr, idx);
                let c = pool.bv_const(k % 256, 8);
                let eq = pool.cmp(CmpKind::Eq, r, c);
                constraints.push(eq);
            }
            5 => {
                // A constant read under a symbolic store, over an equal
                // constant store: the rewrite never looks below it.
                let at = consts[(k >> 8) as usize % consts.len()];
                let under = pool.write(arr, at, value);
                let over = pool.write(under, idx, v);
                let r = pool.read(over, at);
                let c = pool.bv_const(k % 256, 8);
                constraints.push(pool.cmp(CmpKind::Ult, r, c));
            }
            _ => {
                let a = values[pick_b as usize % values.len()];
                let lt = pool.cmp(CmpKind::Ult, a, value);
                let pick = pool.ite(lt, a, value);
                let r = pool.read(arr, idx);
                let eq = pool.cmp(CmpKind::Eq, pick, r);
                let c = pool.bv_const(k % 256, 8);
                let is_c = pool.cmp(CmpKind::Eq, r, c);
                constraints.push(if k & 1 == 0 {
                    pool.or(eq, is_c)
                } else {
                    pool.and(eq, is_c)
                });
            }
        }
    }
    // A constraint that folded to a constant has nothing to rewrite.
    constraints.retain(|&c| pool.as_const(c).is_none());
    Built { pool, constraints }
}

/// Whether some read below `e` has an index, or a store index in its
/// chain, that contains a read.
fn has_nested_read(pool: &ExprPool, e: ExprRef) -> bool {
    let mut stack = vec![e];
    let mut seen = std::collections::HashSet::new();
    while let Some(e) = stack.pop() {
        if !pool.contains_read(e) || !seen.insert(e) {
            continue;
        }
        match *pool.node(e) {
            Node::Read { arr, index } => {
                if pool.contains_read(index) {
                    return true;
                }
                stack.push(index);
                let mut a = arr;
                while let ArrayNode::Store { arr, index, value } = *pool.array_node(a) {
                    if pool.contains_read(index) {
                        return true;
                    }
                    stack.push(index);
                    stack.push(value);
                    a = arr;
                }
            }
            Node::Bin { a, b, .. }
            | Node::Cmp { a, b, .. }
            | Node::AndB(a, b)
            | Node::OrB(a, b) => {
                stack.push(a);
                stack.push(b);
            }
            Node::Not(a)
            | Node::ZExt { a, .. }
            | Node::Trunc { a, .. }
            | Node::BoolToBv { a, .. } => stack.push(a),
            Node::Ite {
                cond,
                then_e,
                else_e,
            } => stack.extend([cond, then_e, else_e]),
            Node::Const { .. } | Node::BoolConst(_) | Node::Var { .. } => {}
        }
    }
    false
}

/// Budget slack over the committed cells: none, under, around and over
/// one array's worth.
const SLACK: [u64; 10] = [0, 3, 15, 19, 63, 100, 299, 319, 1023, 5000];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn dry_run_agrees_with_the_rewrite(
        steps in prop::collection::vec((any::<u8>(), any::<u8>(), any::<u8>(), any::<u64>()), 4..28),
        committed in 0usize..6,
        slack in 0usize..SLACK.len(),
    ) {
        let Built { mut pool, constraints } = build(&steps);
        if constraints.is_empty() {
            return Ok(());
        }
        // The first few constraints are committed; the target is the rest,
        // joined, so it meets their reads again through other nodes.
        let (prefix, rest) = constraints.split_at(committed.min(constraints.len() - 1));
        let target = rest[1..].iter().fold(rest[0], |acc, &c| pool.and(acc, c));
        // Committed rewrites fill the cache and the base-read table first.
        let mut elim = Eliminator::new();
        for &c in prefix {
            elim.rewrite(&mut pool, c, u64::MAX, &mut Vec::new()).unwrap();
        }
        let budget = elim.stats().cells + SLACK[slack];
        let nodes = pool.len();
        let stats = elim.stats();
        let verdict = elim.would_trip(&pool, target, budget);
        prop_assert_eq!(elim.stats(), stats);
        let real = elim.clone().rewrite(&mut pool.clone(), target, budget, &mut Vec::new());
        match verdict {
            DryRun::Fits => prop_assert!(real.is_ok(), "missed trip: {real:?}"),
            DryRun::Trips(err) => prop_assert_eq!(real, Err(err)),
            DryRun::Declined => prop_assert!(has_nested_read(&pool, target)),
        }
        if !has_nested_read(&pool, target) {
            prop_assert_ne!(verdict, DryRun::Declined);
        }
        prop_assert_eq!(pool.len(), nodes);

        // Through the solver: a predicted trip is the stall, and it builds
        // nothing.
        if let DryRun::Trips(err) = verdict {
            let mut inc = IncrementalSolver::new();
            let b = Budget {
                max_conflicts: 1_000,
                max_array_cells: budget,
                max_clauses: usize::MAX,
            };
            let mut query = prefix.to_vec();
            inc.check(&mut pool, &query, &b);
            let nodes = pool.len();
            query.push(target);
            prop_assert_eq!(
                inc.check(&mut pool, &query, &b),
                SatResult::Unknown(StallReason::ArrayCells { cells: err.cells })
            );
            prop_assert_eq!(pool.len(), nodes);
        }
    }
}

#[test]
fn an_index_that_contains_a_read_declines_until_it_is_rewritten() {
    let mut pool = ExprPool::new();
    let outer = pool.array("OUT", 64, 8, None);
    let inner = pool.array("IN", 8, 8, None);
    let i = pool.var("i", 64);
    let r = pool.read(inner, i);
    let idx = pool.zext(r, 64);
    let nested = pool.read(outer, idx);
    let zero = pool.bv_const(0, 8);
    let c = pool.cmp(CmpKind::Eq, nested, zero);
    let mut elim = Eliminator::new();
    assert_eq!(elim.would_trip(&pool, c, 1_000), DryRun::Declined);
    // A trip met before the nested index is still a trip.
    assert!(matches!(elim.would_trip(&pool, c, 7), DryRun::Trips(e) if e.cells == 8));
    // Once the index is rewritten, its rewrite is known.
    let three = pool.bv_const(3, 64);
    let idx_is_three = pool.cmp(CmpKind::Eq, idx, three);
    elim.rewrite(&mut pool, idx_is_three, 1_000, &mut Vec::new())
        .unwrap();
    assert_eq!(elim.would_trip(&pool, c, 1_000), DryRun::Fits);
    let DryRun::Trips(err) = elim.would_trip(&pool, c, 70) else {
        panic!("64 more cells cross 70");
    };
    assert_eq!(err.cells, 72);
    assert_eq!(elim.rewrite(&mut pool, c, 70, &mut Vec::new()), Err(err));
}
