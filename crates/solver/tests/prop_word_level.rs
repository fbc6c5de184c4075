//! Property tests for the word-level front end: every node's known bits
//! must hold under every assignment, and demand-driven bit-blasting must
//! give the brute-force verdict, in a fresh engine and in an incremental
//! one driven through assumption probes.

use er_solver::expr::{BvOp, CmpKind, ExprPool, ExprRef, Node, Sort, VarId};
use er_solver::inc::IncrementalSolver;
use er_solver::simplify::eval_concrete;
use er_solver::solve::{Budget, SatResult};
use proptest::prelude::*;

const OPS: [BvOp; 11] = [
    BvOp::Add,
    BvOp::Sub,
    BvOp::Mul,
    BvOp::UDiv,
    BvOp::URem,
    BvOp::And,
    BvOp::Or,
    BvOp::Xor,
    BvOp::Shl,
    BvOp::LShr,
    BvOp::AShr,
];

const CMPS: [CmpKind; 5] = [
    CmpKind::Eq,
    CmpKind::Ult,
    CmpKind::Ule,
    CmpKind::Slt,
    CmpKind::Sle,
];

/// A constant for width `bits` drawn from `k`: small values, shift
/// amounts, masks and raw words all turn up.
fn constant(pool: &mut ExprPool, k: u64, bits: u32) -> ExprRef {
    let v = match k % 4 {
        0 => k >> 2 & 0xf,
        1 => u64::from(bits) - 1 + (k >> 2) % 3,
        2 => (1u64 << ((k >> 2) % 64)).wrapping_sub(1) << ((k >> 8) % 8),
        _ => k >> 2,
    };
    pool.bv_const(v, bits)
}

/// A random DAG over 8-, 16- and 64-bit variables and constants. Every
/// step adds one node built from earlier ones, through the simplifying
/// constructors or, for some binary operations, straight through `intern`
/// so the transfer rules also meet operand shapes the constructors would
/// fold. Returns the pool and the `(a, b)` pairs whose `Eq` folded to
/// `false`.
fn random_dag(steps: &[(u8, u32, u32, u64)]) -> (ExprPool, Vec<(ExprRef, ExprRef)>) {
    let mut pool = ExprPool::new();
    let mut nodes = vec![
        pool.var("x8", 8),
        pool.var("y8", 8),
        pool.var("x16", 16),
        pool.var("x64", 64),
        pool.var("y64", 64),
        // Constant operands, so interned nodes meet fully known inputs.
        pool.bv_const(0xa5, 8),
        pool.bv_const(0x0ff0, 16),
        pool.bv_const(0xdead_beef_0000_ffff, 64),
    ];
    let mut folded = Vec::new();
    for &(kind, pick_a, pick_b, k) in steps {
        let a = nodes[pick_a as usize % nodes.len()];
        let bits = pool.sort(a).bits();
        let same: Vec<ExprRef> = nodes
            .iter()
            .copied()
            .filter(|&n| pool.sort(n).bits() == bits)
            .collect();
        let other = same[pick_b as usize % same.len()];
        let b = if k & 1 == 0 {
            other
        } else {
            constant(&mut pool, k >> 1, bits)
        };
        let node = match kind % 8 {
            0 | 1 => {
                let op = OPS[(k >> 8) as usize % OPS.len()];
                if kind % 8 == 0 {
                    pool.bin(op, a, b)
                } else {
                    pool.intern(Node::Bin { op, a, b })
                }
            }
            2 => {
                let c = pool.cmp(CMPS[(k >> 8) as usize % CMPS.len()], a, other);
                pool.ite(c, a, b)
            }
            3 => {
                let wide = [16, 32, 64][(k >> 8) as usize % 3].max(bits);
                pool.zext(a, wide)
            }
            4 => {
                let narrow = [1, 3, 8, 16][(k >> 8) as usize % 4].min(bits);
                pool.trunc(a, narrow)
            }
            5 => {
                let c = pool.cmp(CMPS[(k >> 8) as usize % CMPS.len()], a, b);
                pool.bool_to_bv(c, bits)
            }
            6 => {
                // A product with known trailing zeros, plus or minus an
                // offset.
                let scale = pool.bv_const(1 << ((k >> 8) % 6), bits);
                let offset = pool.bv_const((k >> 16) % 8, bits);
                let m = pool.bin(BvOp::Mul, a, scale);
                let op = if k >> 20 & 1 == 0 {
                    BvOp::Add
                } else {
                    BvOp::Sub
                };
                pool.bin(op, m, offset)
            }
            _ => {
                let eq = pool.cmp(CmpKind::Eq, a, b);
                if pool.as_const(eq) == Some(0) {
                    folded.push((a, b));
                }
                continue;
            }
        };
        if let Sort::Bv(_) = pool.sort(node) {
            nodes.push(node);
        }
    }
    (pool, folded)
}

fn lookup(values: [u64; 5]) -> impl Fn(VarId) -> u64 {
    move |id| values[id.0 as usize]
}

/// Term over `x` and `y` (8-bit, zero-extended to `wide`) built by `steps`.
fn wide_term(
    pool: &mut ExprPool,
    x: ExprRef,
    y: ExprRef,
    wide: u32,
    steps: &[(u8, u64)],
) -> ExprRef {
    let xw = pool.zext(x, wide);
    let yw = pool.zext(y, wide);
    let mut t = xw;
    for &(kind, k) in steps {
        let c = pool.bv_const(k, wide);
        // Short shifts and masks of every length keep the low bits live.
        let sh = pool.bv_const(k % 12, wide);
        let mask = pool.bv_const(k >> (k % 64), wide);
        t = match kind % 8 {
            0 => pool.bin(BvOp::Mul, t, c),
            1 => pool.bin(BvOp::Add, t, yw),
            2 => pool.bin(BvOp::Shl, t, sh),
            3 => pool.bin(BvOp::LShr, t, sh),
            4 => pool.bin(BvOp::And, t, mask),
            5 => pool.bin(BvOp::Mul, t, yw),
            6 => {
                let low = pool.trunc(t, 8);
                let mixed = pool.bin(BvOp::Xor, low, y);
                pool.zext(mixed, wide)
            }
            _ => pool.bin(BvOp::Sub, c, t),
        };
    }
    t
}

/// A comparison reading some of `t`'s bits: its low byte, a masked
/// slice, a shifted byte, or all of it.
fn view_cmp(pool: &mut ExprPool, t: ExprRef, (kind, k, op, target): (u8, u64, u8, u64)) -> ExprRef {
    let wide = pool.sort(t).bits();
    let v = match kind % 4 {
        0 => pool.trunc(t, 8),
        1 => {
            let m = pool.bv_const(k >> (k % 64), wide);
            pool.bin(BvOp::And, t, m)
        }
        2 => {
            let sh = pool.bv_const(k % 20, wide);
            let shifted = pool.bin(BvOp::LShr, t, sh);
            let byte = pool.bv_const(0xff, wide);
            pool.bin(BvOp::And, shifted, byte)
        }
        _ => t,
    };
    let bits = pool.sort(v).bits();
    let rhs = pool.bv_const(target, bits);
    pool.cmp(CMPS[op as usize % CMPS.len()], v, rhs)
}

/// Truth table of boolean `e` over every `(x, y)` pair of 8-bit values.
fn table(pool: &ExprPool, e: ExprRef) -> Vec<bool> {
    (0..1u64 << 16)
        .map(|xy| {
            let (xv, yv) = (xy & 0xff, xy >> 8);
            eval_concrete(pool, e, &|id| if id == VarId(0) { xv } else { yv }) != 0
        })
        .collect()
}

fn brute(tables: &[&[bool]]) -> bool {
    (0..1usize << 16).any(|i| tables.iter().all(|t| t[i]))
}

fn verdict(result: &SatResult) -> Option<bool> {
    match result {
        SatResult::Sat(_) => Some(true),
        SatResult::Unsat => Some(false),
        SatResult::Unknown(_) => None,
    }
}

fn width() -> impl Strategy<Value = u32> {
    prop_oneof![Just(16u32), Just(32), Just(64)]
}

fn view() -> impl Strategy<Value = (u8, u64, u8, u64)> {
    (any::<u8>(), any::<u64>(), any::<u8>(), 0u64..300)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every node's known bits hold for its value under every assignment,
    /// and every `Eq` folded to `false` has sides that always differ.
    #[test]
    fn known_bits_are_sound(
        steps in prop::collection::vec((any::<u8>(), any::<u32>(), any::<u32>(), any::<u64>()), 1..40),
        assignments in prop::collection::vec((any::<u64>(), any::<u64>(), any::<u64>(), 0u32..64), 4..8),
    ) {
        let (pool, folded) = random_dag(&steps);
        for &(a, b, c, shift) in &assignments {
            // Shifted-down draws put small values into the 64-bit vars too.
            let values = [a & 0xff, b & 0xff, c & 0xffff, a >> shift, b.rotate_left(shift)];
            let env = lookup(values);
            for n in 0..pool.len() as u32 {
                let e = ExprRef(n);
                let v = eval_concrete(&pool, e, &env);
                let known = pool.known_bits(e);
                prop_assert!(
                    known.admits(v) && known.zeros & known.ones == 0,
                    "{} = {v:#x} under {values:x?}, known {known:?}",
                    pool.display(e)
                );
            }
            for &(a, b) in &folded {
                prop_assert_ne!(eval_concrete(&pool, a, &env), eval_concrete(&pool, b, &env));
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Compare queries that read a few low, masked or shifted bits of a
    /// wide term get the brute-force verdict, from a fresh engine and from
    /// one incremental engine probed with other views of the same term
    /// (which re-blast shared nodes wider inside the probe's scope).
    #[test]
    fn demanded_bits_blasting_matches_brute_force(
        wide in width(),
        steps in prop::collection::vec((any::<u8>(), any::<u64>()), 1..6),
        prefix_view in view(),
        probe_views in prop::collection::vec(view(), 1..4),
    ) {
        let mut pool = ExprPool::new();
        let x = pool.var("x", 8);
        let y = pool.var("y", 8);
        let t = wide_term(&mut pool, x, y, wide, &steps);
        let prefix = view_cmp(&mut pool, t, prefix_view);
        let prefix_table = table(&pool, prefix);
        let budget = Budget::default();

        let fresh = IncrementalSolver::new().check(&mut pool, &[prefix], &budget);
        prop_assert_eq!(verdict(&fresh), Some(brute(&[&prefix_table])));

        let mut inc = IncrementalSolver::new();
        let first = inc.check(&mut pool, &[prefix], &budget);
        prop_assert_eq!(verdict(&first), verdict(&fresh));
        for &pv in &probe_views {
            let probe = view_cmp(&mut pool, t, pv);
            let expect = brute(&[&prefix_table, &table(&pool, probe)]);
            let got = inc.check_assuming(&mut pool, &[prefix], &[probe], &budget);
            let fresh = IncrementalSolver::new().check_assuming(&mut pool, &[prefix], &[probe], &budget);
            prop_assert_eq!(verdict(&got), Some(expect));
            prop_assert_eq!(verdict(&fresh), Some(expect));
            if let SatResult::Sat(m) = &got {
                prop_assert!(m.eval_bool(&pool, prefix) && m.eval_bool(&pool, probe));
            }
        }
        // The probes left nothing behind: the prefix alone answers as before.
        let again = inc.check(&mut pool, &[prefix], &budget);
        prop_assert_eq!(verdict(&again), Some(brute(&[&prefix_table])));
        if let SatResult::Sat(m) = &again {
            prop_assert!(m.eval_bool(&pool, prefix));
        }
    }
}
