//! Criterion micro-benchmarks for the constraint solver: the costs behind
//! ER's stall model (bitvector solving, array-chain elimination).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use er_solver::expr::{BvOp, CmpKind, ExprPool};
use er_solver::inc::IncrementalSolver;
use er_solver::solve::{Budget, SatResult};

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

criterion_group!(
    benches,
    bench_linear_bv,
    bench_mul_inversion,
    bench_write_chains,
    bench_object_size
);
criterion_main!(benches);
