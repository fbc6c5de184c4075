//! Criterion micro-benchmarks for the constraint solver: the costs behind
//! ER's stall model (bitvector solving, array-chain elimination).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use er_solver::bitblast::BitBlaster;
use er_solver::cnf::{Lit, Var};
use er_solver::expr::{BvOp, CmpKind, ExprPool};
use er_solver::inc::IncrementalSolver;
use er_solver::sat::{SatOutcome, SatSolver};
use er_solver::solve::{Budget, SatResult, StallReason};

fn bench_linear_bv(c: &mut Criterion) {
    c.bench_function("solver/linear_equation_32bit", |b| {
        b.iter(|| {
            let mut pool = ExprPool::new();
            let x = pool.var("x", 32);
            let three = pool.bv_const(3, 32);
            let five = pool.bv_const(5, 32);
            let target = pool.bv_const(3 * 1234 + 5, 32);
            let t = pool.bin(BvOp::Mul, x, three);
            let t = pool.bin(BvOp::Add, t, five);
            let eq = pool.cmp(CmpKind::Eq, t, target);
            let mut s = IncrementalSolver::new();
            assert!(matches!(
                s.check(&mut pool, &[eq], &Budget::default()),
                SatResult::Sat(_)
            ));
        });
    });
}

fn bench_mul_inversion(c: &mut Criterion) {
    c.bench_function("solver/factor_16bit_product", |b| {
        b.iter(|| {
            let mut pool = ExprPool::new();
            let x = pool.var("x", 16);
            let y = pool.var("y", 16);
            let m = pool.bin(BvOp::Mul, x, y);
            let target = pool.bv_const(143, 16);
            let eq = pool.cmp(CmpKind::Eq, m, target);
            let two = pool.bv_const(2, 16);
            let gx = pool.cmp(CmpKind::Ule, two, x);
            let gy = pool.cmp(CmpKind::Ule, two, y);
            let mut s = IncrementalSolver::new();
            assert!(matches!(
                s.check(&mut pool, &[eq, gx, gy], &Budget::default()),
                SatResult::Sat(_)
            ));
        });
    });
}

/// The paper's §3.3.1 complexity sources: solving cost vs write-chain
/// length over a fixed-size object.
fn bench_write_chains(c: &mut Criterion) {
    let mut group = c.benchmark_group("solver/write_chain");
    for &chain in &[2usize, 8, 16] {
        group.bench_with_input(BenchmarkId::from_parameter(chain), &chain, |b, &chain| {
            b.iter(|| {
                let mut pool = ExprPool::new();
                let mut arr = pool.array("V", 256, 8, None);
                for i in 0..chain {
                    let idx = pool.var(format!("i{i}"), 64);
                    let val = pool.bv_const(i as u64, 8);
                    arr = pool.write(arr, idx, val);
                }
                let j = pool.var("j", 64);
                let r = pool.read(arr, j);
                let zero = pool.bv_const(0, 8);
                let eq = pool.cmp(CmpKind::Eq, r, zero);
                let _ = IncrementalSolver::new().check(&mut pool, &[eq], &Budget::default());
            });
        });
    }
    group.finish();
}

/// Object size is the second complexity source.
fn bench_object_size(c: &mut Criterion) {
    let mut group = c.benchmark_group("solver/object_size");
    for &len in &[64u64, 512, 2048] {
        group.bench_with_input(BenchmarkId::from_parameter(len), &len, |b, &len| {
            b.iter(|| {
                let mut pool = ExprPool::new();
                let arr = pool.array("V", len, 8, None);
                let i = pool.var("i", 64);
                let r = pool.read(arr, i);
                let v = pool.bv_const(0, 8);
                let eq = pool.cmp(CmpKind::Eq, r, v);
                let _ = IncrementalSolver::new().check(&mut pool, &[eq], &Budget::default());
            });
        });
    }
    group.finish();
}

/// The probe pair the symbolic executor makes at a symbolic access
/// `T[k & 31]` to a table of 8-byte elements: is the address unique
/// (`addr != v`), and does it stay inside `T` (its complement)? The path
/// has committed a read of a byte table at `k & 31`, so each probe lowers
/// the address `T + (k & 31) * 8` afresh inside its rollback scope.
fn bench_address_probe(c: &mut Criterion) {
    let mut pool = ExprPool::new();
    // Distinct entries (37 is odd), so the marker pins `k & 31` to 5.
    let bytes = pool.array("B", 32, 8, Some((0..32).map(|b| b * 37 % 256).collect()));
    let k = pool.var("k", 64);
    let m31 = pool.bv_const(31, 64);
    let slot = pool.bin(BvOp::And, k, m31);
    let byte = pool.read(bytes, slot);
    let marker = pool.bv_const(5 * 37, 8);
    let path = [pool.cmp(CmpKind::Eq, byte, marker)];
    let eight = pool.bv_const(8, 64);
    let offset = pool.bin(BvOp::Mul, slot, eight);
    let table = pool.bv_const(0x4000, 64);
    let addr = pool.bin(BvOp::Add, table, offset);

    let budget = Budget::default();
    let mut solver = IncrementalSolver::new();
    let SatResult::Sat(model) = solver.check(&mut pool, &path, &budget) else {
        panic!("the path is satisfiable");
    };
    let v = pool.bv_const(model.eval(&pool, addr), 64);
    let moved = pool.ne(addr, v);
    let end = pool.bv_const(0x4000 + 32 * 8 - 7, 64);
    let above = pool.cmp(CmpKind::Ule, table, addr);
    let below = pool.cmp(CmpKind::Ult, addr, end);
    let inside = pool.and(above, below);
    let outside = pool.not(inside);
    c.bench_function("solver/address_probe", |b| {
        b.iter(|| {
            let unique = solver.check_assuming(&mut pool, &path, &[moved], &budget);
            let contained = solver.check_assuming(&mut pool, &path, &[outside], &budget);
            assert_eq!(unique, SatResult::Unsat, "k & 31 is pinned to 5");
            assert_eq!(contained, SatResult::Unsat);
        });
    });
}

/// A check that stalls in array elimination: three symbolic reads of
/// 1,024-cell objects under a write chain, against a budget the third one
/// crosses. The stall is decided before anything is built.
fn bench_stalled_elimination(c: &mut Criterion) {
    let mut pool = ExprPool::new();
    let mut sum = pool.bv_const(0, 8);
    for obj in 0..3 {
        let mut arr = pool.array(format!("O{obj}"), 1024, 8, None);
        for w in 0..8 {
            let idx = pool.var(format!("w{obj}_{w}"), 64);
            let val = pool.bv_const(w, 8);
            arr = pool.write(arr, idx, val);
        }
        let i = pool.var(format!("i{obj}"), 64);
        let r = pool.read(arr, i);
        sum = pool.bin(BvOp::Add, sum, r);
    }
    let zero = pool.bv_const(0, 8);
    let eq = pool.cmp(CmpKind::Eq, sum, zero);
    let budget = Budget {
        max_array_cells: 2_500,
        ..Budget::default()
    };
    let mut solver = IncrementalSolver::new();
    c.bench_function("solver/stalled_elimination", |b| {
        b.iter(|| {
            assert_eq!(
                solver.check(&mut pool, &[eq], &budget),
                SatResult::Unknown(StallReason::ArrayCells { cells: 3 * 1024 })
            );
        });
    });
}

/// The deep-solve shape: three stages that each store a 64-bit marker
/// into a 32-entry table at one masked symbolic index and branch on
/// reading it back at another, then a 64-bit multiply-xorshift hash whose
/// low 16 bits must hit a target. Tables are byte arrays, as the symbolic
/// executor keeps memory, so each element access is eight byte accesses
/// at `offset + i`, and eliminating a read compares every byte address
/// read against every byte address written: adders over the same offsets
/// that repeat gates, which the blaster's gate table builds once. The path
/// grows one stage per check, as shepherding commits it, and the final
/// check adds the hash condition.
fn bench_deep_table_hash(c: &mut Criterion) {
    const SHIFT: u64 = 29;
    const MUL: u64 = 0x9e37_79b9_7f4a_7c15;
    const SECRET: u64 = 0x0123_4567_89ab_cdef;
    let target = (SECRET ^ (SECRET >> SHIFT)).wrapping_mul(MUL) & 0xffff;
    c.bench_function("solver/deep_table_hash", |b| {
        b.iter(|| {
            let mut pool = ExprPool::new();
            let budget = Budget::default();
            let eight = pool.bv_const(8, 64);
            let m31 = pool.bv_const(31, 64);
            // The byte offset of entry `input & 31`.
            let offset = |pool: &mut ExprPool, name: String| {
                let input = pool.var(name, 64);
                let slot = pool.bin(BvOp::And, input, m31);
                pool.bin(BvOp::Mul, slot, eight)
            };
            let mut path = Vec::new();
            let mut solver = IncrementalSolver::new();
            for stage in 1..=3u64 {
                let marker = 40 + stage;
                let mut table = pool.array(format!("T{stage}"), 256, 8, Some(vec![0; 256]));
                let at = offset(&mut pool, format!("k{stage}"));
                for i in 0..8 {
                    let ic = pool.bv_const(i, 64);
                    let idx = pool.bin(BvOp::Add, at, ic);
                    let byte = pool.bv_const(marker >> (8 * i) & 0xff, 8);
                    table = pool.write(table, idx, byte);
                }
                let from = offset(&mut pool, format!("p{stage}"));
                let mut value = pool.bv_const(0, 64);
                for i in 0..8 {
                    let ic = pool.bv_const(i, 64);
                    let idx = pool.bin(BvOp::Add, from, ic);
                    let byte = pool.read(table, idx);
                    let wide = pool.zext(byte, 64);
                    let sh = pool.bv_const(8 * i, 64);
                    let placed = pool.bin(BvOp::Shl, wide, sh);
                    value = pool.bin(BvOp::Or, value, placed);
                }
                let expect = pool.bv_const(marker, 64);
                path.push(pool.cmp(CmpKind::Eq, value, expect));
                let verdict = solver.check(&mut pool, &path, &budget);
                assert!(matches!(verdict, SatResult::Sat(_)));
            }
            let h = pool.var("h", 64);
            let shift = pool.bv_const(SHIFT, 64);
            let shifted = pool.bin(BvOp::LShr, h, shift);
            let mixed = pool.bin(BvOp::Xor, h, shifted);
            let mul = pool.bv_const(MUL, 64);
            let hash = pool.bin(BvOp::Mul, mixed, mul);
            let mask = pool.bv_const(0xffff, 64);
            let low = pool.bin(BvOp::And, hash, mask);
            let goal = pool.bv_const(target, 64);
            path.push(pool.cmp(CmpKind::Eq, low, goal));
            let SatResult::Sat(model) = solver.check(&mut pool, &path, &budget) else {
                panic!("the hash target is reachable");
            };
            assert_eq!(model.eval(&pool, low), target);
        });
    });
}

/// Lowering alone, on the deep-solve shape whose bits are mostly
/// constant: the byte addresses `base + (k & 31) * 8 + i` of one table
/// entry, each bounded by and compared against constants, and a 64-bit
/// multiply-xorshift hash whose low 16 bits must hit a target. The mask
/// leaves 59 of each address's 64 bits constant and the multiplier is a
/// constant, so most carry-chain bits and multiplier rows fold without a
/// gate. Each iteration blasts the formula into a fresh [`BitBlaster`].
fn bench_const_carry_chain(c: &mut Criterion) {
    const BASE: u64 = 0x7f00_4000;
    let mut pool = ExprPool::new();
    let k = pool.var("k", 64);
    let m31 = pool.bv_const(31, 64);
    let slot = pool.bin(BvOp::And, k, m31);
    let eight = pool.bv_const(8, 64);
    let offset = pool.bin(BvOp::Mul, slot, eight);
    let base = pool.bv_const(BASE, 64);
    let entry = pool.bin(BvOp::Add, base, offset);
    let end = pool.bv_const(BASE + 32 * 8, 64);
    let mut constraints = Vec::new();
    for i in 0..8 {
        let ic = pool.bv_const(i, 64);
        let addr = pool.bin(BvOp::Add, entry, ic);
        let hit = pool.bv_const(BASE + 5 * 8 + i, 64);
        constraints.push(pool.cmp(CmpKind::Ule, base, addr));
        constraints.push(pool.cmp(CmpKind::Ult, addr, end));
        constraints.push(pool.cmp(CmpKind::Eq, addr, hit));
    }
    let h = pool.var("h", 64);
    let shift = pool.bv_const(29, 64);
    let shifted = pool.bin(BvOp::LShr, h, shift);
    let mixed = pool.bin(BvOp::Xor, h, shifted);
    let mul = pool.bv_const(0x9e37_79b9_7f4a_7c15, 64);
    let hash = pool.bin(BvOp::Mul, mixed, mul);
    let mask = pool.bv_const(0xffff, 64);
    let low = pool.bin(BvOp::And, hash, mask);
    let goal = pool.bv_const(0x1234, 64);
    constraints.push(pool.cmp(CmpKind::Eq, low, goal));
    c.bench_function("solver/const_carry_chain", |b| {
        b.iter(|| {
            let mut bb = BitBlaster::new();
            for &e in &constraints {
                bb.assert_true(&pool, e).expect("no array reads");
            }
            criterion::black_box(bb.cnf.clause_count())
        });
    });
}

/// The SAT solver's fixed costs at the size of one deep-solve engine:
/// 2,200 variables and 6,400 random 3-clauses (satisfiable at that ratio)
/// fed into a fresh solver, one search, and four clones. Feeding grows
/// every literal's watch list and a clone copies them all.
fn bench_sat_feed_clone(c: &mut Criterion) {
    const VARS: u32 = 2_200;
    let mut seed = 0x2545_f491_4f6c_dd1d_u64;
    let mut rand = move || {
        seed ^= seed << 13;
        seed ^= seed >> 7;
        seed ^= seed << 17;
        seed
    };
    let clauses: Vec<[Lit; 3]> = (0..6_400)
        .map(|_| {
            [(); 3].map(|()| Lit::new(Var((rand() % u64::from(VARS)) as u32), rand() & 1 == 0))
        })
        .collect();
    c.bench_function("solver/sat_feed_clone", |b| {
        b.iter(|| {
            let mut s = SatSolver::new();
            s.ensure_vars(VARS as usize);
            for clause in &clauses {
                s.push_clause(clause);
            }
            assert!(matches!(s.solve(100_000), SatOutcome::Sat(_)));
            let clones: Vec<SatSolver> = (0..4).map(|_| s.clone()).collect();
            criterion::black_box(clones);
        });
    });
}

criterion_group!(
    benches,
    bench_linear_bv,
    bench_mul_inversion,
    bench_write_chains,
    bench_object_size,
    bench_address_probe,
    bench_stalled_elimination,
    bench_deep_table_hash,
    bench_const_carry_chain,
    bench_sat_feed_clone
);
criterion_main!(benches);
