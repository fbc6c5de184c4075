//! Criterion micro-benchmarks for the incremental solver:
//!
//! - repeated `check_assuming` against a shared growing constraint prefix —
//!   the query pattern shepherded symbolic execution issues at every
//!   symbolic memory access — on one persistent engine vs a fresh solve per
//!   query;
//! - the final solve of a deep-solve-shaped path (a multiply-xorshift hash
//!   pinned to 16 bits behind three 32-entry symbolic tables) on a fresh
//!   engine vs on the engine that already checked the path, as a shepherded
//!   run hands it over;
//! - assumption probes on that path answered by cloning the persistent SAT
//!   solver per probe vs by activation literals on the solver itself.
//!
//! Run with `cargo bench -p er-bench --bench incremental`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use er_solver::arrays;
use er_solver::bitblast::BitBlaster;
use er_solver::cnf::Lit;
use er_solver::expr::{BvOp, CmpKind, ExprPool, ExprRef};
use er_solver::inc::IncrementalSolver;
use er_solver::sat::SatSolver;
use er_solver::solve::Budget;

/// A shepherding-shaped workload: a write chain over a medium array plus a
/// stack of bitvector path constraints, probed with per-access assumptions.
fn build(pool: &mut ExprPool, prefix_len: usize) -> (Vec<ExprRef>, Vec<ExprRef>) {
    let mut arr = pool.array("V", 256, 8, None);
    for i in 0..8u64 {
        let idx = pool.var(format!("w{i}"), 64);
        let val = pool.bv_const(i, 8);
        arr = pool.write(arr, idx, val);
    }
    let j = pool.var("j", 64);
    let r = pool.read(arr, j);
    let zero = pool.bv_const(0, 8);
    let mut prefix = vec![pool.cmp(CmpKind::Eq, r, zero)];
    let x = pool.var("x", 32);
    let y = pool.var("y", 32);
    for i in 0..prefix_len as u64 {
        let k = pool.bv_const(i.wrapping_mul(2654435761) & 0xffff, 32);
        let t = pool.bin(BvOp::Add, x, k);
        prefix.push(pool.cmp(CmpKind::Ule, t, y));
    }
    let probes = (0..16u64)
        .map(|i| {
            let k = pool.bv_const(i * 3 + 1, 64);
            pool.cmp(CmpKind::Ult, j, k)
        })
        .collect();
    (prefix, probes)
}

fn bench_repeated_check_assuming(c: &mut Criterion) {
    let mut group = c.benchmark_group("incremental/repeated_check_assuming");
    for &prefix_len in &[4usize, 16, 64] {
        group.bench_with_input(
            BenchmarkId::new("shared", prefix_len),
            &prefix_len,
            |b, &n| {
                b.iter(|| {
                    let mut pool = ExprPool::new();
                    let (prefix, probes) = build(&mut pool, n);
                    let mut inc = IncrementalSolver::new();
                    for &p in &probes {
                        let _ = inc.check_assuming(&mut pool, &prefix, &[p], &Budget::default());
                    }
                });
            },
        );
        group.bench_with_input(
            BenchmarkId::new("fresh", prefix_len),
            &prefix_len,
            |b, &n| {
                b.iter(|| {
                    let mut pool = ExprPool::new();
                    let (prefix, probes) = build(&mut pool, n);
                    for &p in &probes {
                        let mut fresh = IncrementalSolver::new();
                        let _ = fresh.check_assuming(&mut pool, &prefix, &[p], &Budget::default());
                    }
                });
            },
        );
    }
    group.finish();
}

/// The deep-solve query shape: `(path, failure constraint, probes)`. Each
/// of three stages stores a marker into a 32-entry table at one masked
/// symbolic index and reads it back at another; the failure constraint pins
/// the low 16 bits of a multiply-xorshift hash of a 64-bit input. The
/// probes are the ones symbolic execution issues at each table access:
/// "can the index differ from its model value" and "can it leave the
/// table".
fn deep_shape(pool: &mut ExprPool) -> (Vec<ExprRef>, ExprRef, Vec<ExprRef>) {
    let mut path = Vec::new();
    let mut probes = Vec::new();
    let mask = pool.bv_const(31, 64);
    let len = pool.bv_const(32, 64);
    for stage in 0..3u64 {
        let table = pool.array(format!("T{stage}"), 32, 64, Some(vec![0; 32]));
        let k = pool.var(format!("k{stage}"), 64);
        let k = pool.bin(BvOp::And, k, mask);
        let p = pool.var(format!("p{stage}"), 64);
        let p = pool.bin(BvOp::And, p, mask);
        let marker = pool.bv_const(41 + stage, 64);
        let stored = pool.write(table, k, marker);
        let read = pool.read(stored, p);
        path.push(pool.cmp(CmpKind::Eq, read, marker));
        for idx in [k, p] {
            let model = pool.bv_const(stage * 7 % 32, 64);
            probes.push(pool.ne(idx, model));
            let inside = pool.cmp(CmpKind::Ult, idx, len);
            probes.push(pool.not(inside));
        }
    }
    let h = pool.var("h", 64);
    let shift = pool.bv_const(17, 64);
    let shifted = pool.bin(BvOp::LShr, h, shift);
    let mixed = pool.bin(BvOp::Xor, h, shifted);
    let mul = pool.bv_const(0x9e37_79b9_7f4a_7c15, 64);
    let hash = pool.bin(BvOp::Mul, mixed, mul);
    let low = pool.bv_const(0xffff, 64);
    let low_bits = pool.bin(BvOp::And, hash, low);
    let target = pool.bv_const(0x1d2c, 64);
    let failure = pool.cmp(CmpKind::Eq, low_bits, target);
    (path, failure, probes)
}

fn bench_final_solve(c: &mut Criterion) {
    let mut group = c.benchmark_group("incremental/deep_final_solve");
    let budget = Budget::default();
    let mut pool = ExprPool::new();
    let (path, failure, _) = deep_shape(&mut pool);
    let full: Vec<ExprRef> = path.iter().copied().chain([failure]).collect();
    let mut handed = IncrementalSolver::new();
    let _ = handed.check(&mut pool, &path, &budget);
    group.bench_function("fresh", |b| {
        b.iter(|| {
            let mut pool = pool.clone();
            IncrementalSolver::new().check(&mut pool, &full, &budget)
        });
    });
    // The engine is cloned per iteration so each one starts from the
    // handed-over state; the clone is part of the measured time.
    group.bench_function("handed_off", |b| {
        b.iter(|| {
            let mut pool = pool.clone();
            handed.clone().check(&mut pool, &full, &budget)
        });
    });
    group.finish();
}

/// A persistent SAT solver that has solved the lowered deep-solve path,
/// the blaster that lowered it, and the probes (array-free).
fn probe_setup() -> (SatSolver, BitBlaster, ExprPool, Vec<ExprRef>) {
    let mut pool = ExprPool::new();
    let (path, _, probes) = deep_shape(&mut pool);
    let (flat, _) =
        arrays::eliminate(&mut pool, &path, u64::MAX).expect("no cell budget to exceed");
    let mut blast = BitBlaster::new();
    for &e in &flat {
        blast.assert_true(&pool, e).expect("arrays eliminated");
    }
    let mut sat = SatSolver::new(&blast.cnf);
    let _ = sat.solve(100_000);
    (sat, blast, pool, probes)
}

fn bench_assumption_probes(c: &mut Criterion) {
    let mut group = c.benchmark_group("incremental/deep_assumption_probes");
    let (warm_sat, warm_blast, pool, probes) = probe_setup();
    // Each iteration answers every probe once, starting from a copy of the
    // warmed solver so state never accumulates across iterations.
    group.bench_function("clone_per_probe", |b| {
        b.iter(|| {
            let sat = warm_sat.clone();
            let mut blast = warm_blast.clone();
            let fed = blast.cnf.clause_count();
            for &p in &probes {
                blast.begin_scope();
                blast.assert_true(&pool, p).expect("array-free");
                let mut probe = sat.clone();
                probe.ensure_vars(blast.cnf.var_count() as usize);
                for i in fed..blast.cnf.clause_count() {
                    probe.push_clause(blast.cnf.clause(i));
                }
                let _ = probe.solve(100_000);
                blast.rollback_scope();
            }
        });
    });
    group.bench_function("activation_literal", |b| {
        b.iter(|| {
            let mut sat = warm_sat.clone();
            let mut blast = warm_blast.clone();
            let fed = blast.cnf.clause_count();
            let mut guarded = Vec::new();
            for &p in &probes {
                blast.begin_scope();
                blast.assert_true(&pool, p).expect("array-free");
                let act = Lit::pos(blast.cnf.new_var());
                sat.ensure_vars(blast.cnf.var_count() as usize);
                for i in fed..blast.cnf.clause_count() {
                    guarded.clear();
                    guarded.push(!act);
                    guarded.extend_from_slice(blast.cnf.clause(i));
                    sat.push_clause(&guarded);
                }
                let _ = sat.solve_assuming(&[act], 100_000);
                sat.release(act);
                blast.rollback_scope();
            }
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_repeated_check_assuming,
    bench_final_solve,
    bench_assumption_probes
);
criterion_main!(benches);
