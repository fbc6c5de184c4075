//! Address resolution answers two questions without a search where it can
//! ([`find_witness`], [`unsigned_bound`]); each answer must be the one a
//! search gives. Random read-free address expressions at widths 8 to 64,
//! built from masks, sums, products, shifts, choices and width changes,
//! are checked over random paths, some of which read arrays short enough
//! that an index can leave them, through store chains and under `Ite`s:
//!
//! - the bound holds the address's value under random assignments;
//! - every witness is a model of the path and moves the address, and a
//!   fresh uniqueness query (`path ∧ e != v`) answers `Sat`;
//! - a fresh containment query (`path ∧ e ∉ bound`) answers `Unsat`.
//!
//! The unit cases pin the edges: an out-of-bounds read in an untaken arm
//! or below a matching store blocks a witness, and sums, products and
//! shifts that can wrap have the full range.

use er_solver::expr::{BvOp, CmpKind, ExprPool, ExprRef, Node, VarId};
use er_solver::inc::IncrementalSolver;
use er_solver::interval::unsigned_bound;
use er_solver::solve::{Budget, Model, SatResult};
use er_solver::witness::find_witness;
use proptest::prelude::*;

/// Input variables and their widths.
const INPUTS: [(&str, u32); 3] = [("x", 8), ("y", 8), ("z", 16)];
/// Address widths.
const WIDTHS: [u32; 4] = [8, 16, 32, 64];
/// Array index and element width.
const INDEX: u32 = 8;

/// One step of the address program: opcode and two operand bytes.
type Step = (u8, u8, u8);
/// One path constraint: kind, and three parameter bytes.
type Constraint = (u8, u8, u8, u8);

fn var_id(pool: &ExprPool, v: ExprRef) -> VarId {
    match *pool.node(v) {
        Node::Var { id, .. } => id,
        _ => unreachable!("an input is a variable"),
    }
}

/// Input `which` at width `w`: zero-extended or truncated.
fn leaf(pool: &mut ExprPool, vars: &[ExprRef], which: u8, w: u32) -> ExprRef {
    let v = vars[usize::from(which) % vars.len()];
    let bits = pool.sort(v).bits();
    if bits <= w {
        pool.zext(v, w)
    } else {
        pool.trunc(v, w)
    }
}

/// Runs `steps` as a stack program at width `w`; the address is what is
/// left on top.
fn address(pool: &mut ExprPool, vars: &[ExprRef], steps: &[Step], w: u32) -> ExprRef {
    let mut stack: Vec<ExprRef> = Vec::new();
    for &(op, a, b) in steps {
        let top = match stack.pop() {
            Some(t) => t,
            None => leaf(pool, vars, a, w),
        };
        let k = pool.bv_const(u64::from(b) << (u32::from(a) % w.min(57)), w);
        let e = match op % 12 {
            0 => {
                stack.push(top);
                leaf(pool, vars, a, w)
            }
            1 => {
                let m = pool.bv_const(u64::from(b), w);
                pool.bin(BvOp::And, top, m)
            }
            2 => pool.bin(BvOp::Add, top, k),
            3 => {
                let c = pool.bv_const(u64::from(b % 16), w);
                pool.bin(BvOp::Mul, top, c)
            }
            4 => {
                let s = pool.bv_const(u64::from(b), w);
                pool.bin(BvOp::Shl, top, s)
            }
            5 => {
                let s = pool.bv_const(u64::from(b), w);
                pool.bin(BvOp::LShr, top, s)
            }
            6 => {
                let other = stack.pop().unwrap_or(k);
                let cut = pool.bv_const(u64::from(a), w);
                let cond = pool.cmp(CmpKind::Ult, top, cut);
                pool.ite(cond, top, other)
            }
            7 => {
                let other = stack.pop().unwrap_or(k);
                pool.bin(BvOp::Add, top, other)
            }
            8 => {
                let other = stack.pop().unwrap_or(k);
                pool.bin(BvOp::Mul, top, other)
            }
            9 => {
                // A narrower masked input, widened.
                let x = leaf(pool, vars, a, 8);
                let m = pool.bv_const(u64::from(b), 8);
                let masked = pool.bin(BvOp::And, x, m);
                let wide = pool.zext(masked, w);
                pool.bin(BvOp::Add, top, wide)
            }
            10 => {
                // A wider expression, cut down to `w`.
                let z = leaf(pool, vars, 2, 64);
                let m = pool.bv_const(u64::from(b) << (a % 16), 64);
                let masked = pool.bin(BvOp::And, z, m);
                let cut = if w == 64 {
                    masked
                } else {
                    pool.trunc(masked, w)
                };
                pool.bin(BvOp::Add, top, cut)
            }
            _ => match a % 3 {
                0 => pool.bin(BvOp::Or, top, k),
                1 => pool.bin(BvOp::Xor, top, k),
                _ => pool.bin(BvOp::Sub, top, k),
            },
        };
        stack.push(e);
    }
    match stack.pop() {
        Some(e) => e,
        None => leaf(pool, vars, 0, w),
    }
}

/// An index into a short array: an input masked and offset, so it can
/// run past the end.
fn index(pool: &mut ExprPool, vars: &[ExprRef], which: u8, p: u8) -> ExprRef {
    let v = leaf(pool, vars, which, INDEX);
    let m = pool.bv_const(u64::from(p % 32), INDEX);
    let masked = pool.bin(BvOp::And, v, m);
    let k = pool.bv_const(u64::from(p >> 5), INDEX);
    pool.bin(BvOp::Add, masked, k)
}

/// The path: plain comparisons on the inputs, reads of short arrays
/// (some through a store), and reads in one arm of an `Ite`.
fn path(pool: &mut ExprPool, vars: &[ExprRef], shapes: &[Constraint]) -> Vec<ExprRef> {
    shapes
        .iter()
        .enumerate()
        .map(|(n, &(kind, a, b, c))| {
            let len = 1 + u64::from(c % 12);
            let init = (c & 0x80 != 0).then(|| (0..len).map(|k| (k * 3 + 1) % 16).collect());
            let arr = pool.array(format!("A{n}"), len, INDEX, init);
            match kind % 4 {
                0 => {
                    let v = leaf(pool, vars, a, 8);
                    let k = pool.bv_const(u64::from(b), 8);
                    let op =
                        [CmpKind::Ult, CmpKind::Ule, CmpKind::Eq, CmpKind::Slt][usize::from(c % 4)];
                    let cmp = pool.cmp(op, v, k);
                    if c & 0x40 != 0 {
                        pool.not(cmp)
                    } else {
                        cmp
                    }
                }
                1 => {
                    let i = index(pool, vars, a, b);
                    let r = pool.read(arr, i);
                    let k = pool.bv_const(u64::from(c % 16), INDEX);
                    pool.cmp(CmpKind::Ule, r, k)
                }
                2 => {
                    let si = index(pool, vars, a.wrapping_add(1), b.rotate_left(3));
                    let sv = pool.bv_const(u64::from(c % 16), INDEX);
                    let stored = pool.write(arr, si, sv);
                    let i = index(pool, vars, a, b);
                    let r = pool.read(stored, i);
                    let k = pool.bv_const(u64::from(b % 16), INDEX);
                    pool.cmp(CmpKind::Ult, r, k)
                }
                _ => {
                    let i = index(pool, vars, a, b);
                    let r = pool.read(arr, i);
                    let g = leaf(pool, vars, b, 8);
                    let cut = pool.bv_const(u64::from(c), 8);
                    let guard = pool.cmp(CmpKind::Ult, g, cut);
                    let zero = pool.bv_const(0, INDEX);
                    let chosen = pool.ite(guard, r, zero);
                    let k = pool.bv_const(u64::from(a % 16), INDEX);
                    pool.cmp(CmpKind::Ule, chosen, k)
                }
            }
        })
        .collect()
}

fn inputs(pool: &mut ExprPool) -> Vec<ExprRef> {
    INPUTS
        .iter()
        .map(|&(name, bits)| pool.var(name, bits))
        .collect()
}

fn fresh(pool: &mut ExprPool, path: &[ExprRef], assume: ExprRef) -> SatResult {
    IncrementalSolver::new().check_assuming(pool, path, &[assume], &Budget::default())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn shortcuts_answer_like_the_solver(
        width in 0usize..4,
        steps in prop::collection::vec((any::<u8>(), any::<u8>(), any::<u8>()), 1..7),
        shapes in prop::collection::vec((any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>()), 0..4),
        draws in prop::collection::vec(any::<u64>(), 8),
    ) {
        let w = WIDTHS[width];
        let mut pool = ExprPool::new();
        let vars = inputs(&mut pool);
        let e = address(&mut pool, &vars, &steps, w);
        let path = path(&mut pool, &vars, &shapes);
        prop_assert!(!pool.contains_read(e));

        // The bound holds every value.
        let (lo, hi) = unsigned_bound(&pool, e);
        prop_assert!(lo <= hi);
        for (n, &draw) in draws.iter().enumerate() {
            let mut m = Model::default();
            for (k, &v) in vars.iter().enumerate() {
                m.set(var_id(&pool, v), draw.rotate_left(17 * (n + k) as u32));
            }
            let value = m.eval(&pool, e);
            prop_assert!(lo <= value && value <= hi, "{} = {value} outside [{lo}, {hi}]", pool.display(e));
        }

        // A bound the address cannot leave: the containment query is Unsat.
        if hi < pool.sort(e).mask() {
            let lo_c = pool.bv_const(lo, w);
            let end = pool.bv_const(hi + 1, w);
            let ge = pool.cmp(CmpKind::Ule, lo_c, e);
            let lt = pool.cmp(CmpKind::Ult, e, end);
            let inside = pool.and(ge, lt);
            let outside = pool.not(inside);
            prop_assert!(matches!(fresh(&mut pool, &path, outside), SatResult::Unsat));
        }

        // A witness is a model of the uniqueness query.
        let SatResult::Sat(model) =
            IncrementalSolver::new().check(&mut pool, &path, &Budget::default())
        else {
            return Ok(());
        };
        let v = model.eval(&pool, e);
        if let Some(flip) = find_witness(&pool, &path, e, v, &model) {
            let witness = flip.apply(&model);
            prop_assert!(witness.eval(&pool, e) != v);
            prop_assert!(path.iter().all(|&c| witness.eval_bool(&pool, c)));
            let vc = pool.bv_const(v, w);
            let ne = pool.ne(e, vc);
            prop_assert!(matches!(fresh(&mut pool, &path, ne), SatResult::Sat(_)));
        }
    }
}

/// `x`, 8 bits, with the model `x = 0`; an array of one cell.
fn one_cell() -> (ExprPool, ExprRef, er_solver::ArrayRef, Model) {
    let mut pool = ExprPool::new();
    let x = pool.var("x", 8);
    let arr = pool.array("A", 1, 8, None);
    let mut model = Model::default();
    model.set(var_id(&pool, x), 0);
    (pool, x, arr, model)
}

/// `x` is unique: every other value reads the one-cell array out of
/// bounds. The shortcut must not say otherwise, and the solver agrees.
fn assert_unique(pool: &mut ExprPool, path: &[ExprRef], x: ExprRef, model: &Model) {
    assert!(path.iter().all(|&c| model.eval_bool(pool, c)));
    assert!(find_witness(pool, path, x, 0, model).is_none());
    let zero = pool.bv_const(0, 8);
    let ne = pool.ne(x, zero);
    assert_eq!(fresh(pool, path, ne), SatResult::Unsat);
}

#[test]
fn an_out_of_bounds_read_in_an_untaken_arm_blocks_a_witness() {
    let (mut pool, x, arr, model) = one_cell();
    let y = pool.var("y", 8);
    let seven = pool.bv_const(7, 8);
    // y == 7 is false under the model (y = 0): the read is never taken,
    // but its in-bounds axiom pins x all the same.
    let taken = pool.cmp(CmpKind::Eq, y, seven);
    let r = pool.read(arr, x);
    let zero = pool.bv_const(0, 8);
    let chosen = pool.ite(taken, r, zero);
    let c = pool.cmp(CmpKind::Eq, chosen, zero);
    assert_unique(&mut pool, &[c], x, &model);
}

#[test]
fn an_out_of_bounds_read_below_a_store_blocks_a_witness() {
    let (mut pool, x, arr, model) = one_cell();
    // The store at x always matches the read at x, so no evaluation reaches
    // the base array; its in-bounds axiom is emitted all the same.
    let five = pool.bv_const(5, 8);
    let stored = pool.write(arr, x, five);
    let r = pool.read(stored, x);
    let c = pool.cmp(CmpKind::Eq, r, five);
    assert_unique(&mut pool, &[c], x, &model);
}

#[test]
fn an_out_of_bounds_read_in_a_stored_value_blocks_a_witness() {
    let (mut pool, x, arr, model) = one_cell();
    let other = pool.array("B", 4, 8, None);
    let r = pool.read(arr, x);
    let one = pool.bv_const(1, 8);
    let stored = pool.write(other, one, r);
    let two = pool.bv_const(2, 8);
    let y = pool.var("y", 8);
    let at = pool.bin(BvOp::And, y, two);
    let read = pool.read(stored, at);
    let zero = pool.bv_const(0, 8);
    let c = pool.cmp(CmpKind::Eq, read, zero);
    assert_unique(&mut pool, &[c], x, &model);
}

/// The full range at `w` bits.
fn full(w: u32) -> (u64, u64) {
    (0, u64::MAX >> (64 - w))
}

#[test]
fn sums_products_and_shifts_that_may_wrap_have_the_full_range() {
    for w in [8u32, 32, 64] {
        let mut pool = ExprPool::new();
        let x = pool.var("x", w);
        let m15 = pool.bv_const(15, w);
        let masked = pool.bin(BvOp::And, x, m15);
        let top = full(w).1;
        // Largest value + 1 wraps to 0.
        let near_top = pool.bv_const(top - 14, w);
        let sum = pool.bin(BvOp::Add, masked, near_top);
        assert_eq!(unsigned_bound(&pool, sum), full(w), "add at {w}");
        let fits = pool.bv_const(top - 15, w);
        let sum = pool.bin(BvOp::Add, masked, fits);
        assert_eq!(unsigned_bound(&pool, sum), (top - 15, top), "add at {w}");
        // 15 * k > top.
        let k = pool.bv_const(top / 15 + 1, w);
        let product = pool.bin(BvOp::Mul, masked, k);
        assert_eq!(unsigned_bound(&pool, product), full(w), "mul at {w}");
        let k = pool.bv_const(top / 15, w);
        let product = pool.bin(BvOp::Mul, masked, k);
        assert_eq!(
            unsigned_bound(&pool, product),
            (0, top / 15 * 15),
            "mul at {w}"
        );
        // 15 << (w - 3) loses its top bit.
        let s = pool.bv_const(u64::from(w - 3), w);
        let shifted = pool.bin(BvOp::Shl, masked, s);
        assert_eq!(unsigned_bound(&pool, shifted), full(w), "shl at {w}");
        let s = pool.bv_const(u64::from(w - 4), w);
        let shifted = pool.bin(BvOp::Shl, masked, s);
        assert_eq!(
            unsigned_bound(&pool, shifted),
            (0, 15 << (w - 4)),
            "shl at {w}"
        );
    }
}

#[test]
fn a_truncation_that_cuts_the_interval_has_the_full_range() {
    let mut pool = ExprPool::new();
    let x = pool.var("x", 16);
    let m = pool.bv_const(0x1ff, 16);
    let masked = pool.bin(BvOp::And, x, m);
    let cut = pool.trunc(masked, 8);
    assert_eq!(unsigned_bound(&pool, cut), full(8));
    let m = pool.bv_const(0x7f, 16);
    let masked = pool.bin(BvOp::And, x, m);
    let cut = pool.trunc(masked, 8);
    assert_eq!(unsigned_bound(&pool, cut), (0, 0x7f));
}

#[test]
fn a_table_access_is_decided_by_both() {
    // The shape of a store to a 32-entry table at a masked input, after a
    // read of another table at a second input: not unique, and contained.
    let mut pool = ExprPool::new();
    let k = pool.var("k", 64);
    let p = pool.var("p", 64);
    let m31 = pool.bv_const(31, 64);
    let earlier = pool.array("T1", 32, 64, None);
    let pk = pool.bin(BvOp::And, p, m31);
    let r = pool.read(earlier, pk);
    let zero = pool.bv_const(0, 64);
    let c = pool.cmp(CmpKind::Eq, r, zero);
    let masked = pool.bin(BvOp::And, k, m31);
    let eight = pool.bv_const(8, 64);
    let scaled = pool.bin(BvOp::Mul, masked, eight);
    let base = pool.bv_const(0x1_0000, 64);
    let addr = pool.bin(BvOp::Add, base, scaled);
    let path = [c];
    let SatResult::Sat(model) =
        IncrementalSolver::new().check(&mut pool, &path, &Budget::default())
    else {
        panic!("satisfiable");
    };
    let v = model.eval(&pool, addr);
    assert!(find_witness(&pool, &path, addr, v, &model).is_some());
    let (lo, hi) = unsigned_bound(&pool, addr);
    assert!(0x1_0000 <= lo && hi + 8 <= 0x1_0000 + 32 * 8);
}
