//! Criterion micro-benchmarks for constraint-graph analysis and key data
//! value selection (the paper reports <= 15 s on 40K-node graphs).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use er_core::graph::ConstraintGraph;
use er_core::select::{self, SelectionInput};
use er_minilang::ir::{BlockId, FuncId, InstrId};
use er_solver::expr::{BvOp, ExprPool, ExprRef};
use er_symex::{Origins, SiteCounts};

fn build_pool(stages: usize) -> (ExprPool, Origins, SiteCounts) {
    let mut pool = ExprPool::new();
    let mut origins = Origins::default();
    let mut counts = SiteCounts::default();
    let mut site = 0usize;
    let mut next_site = |origins: &mut Origins, counts: &mut SiteCounts, e: ExprRef| {
        let id = InstrId {
            func: FuncId(0),
            block: BlockId(0),
            index: site,
        };
        origins.insert(e, id);
        counts.insert(id, 1);
        site += 1;
    };
    for s in 0..stages {
        let mut arr = pool.array(format!("T{s}"), 2048, 8, None);
        let k = pool.var(format!("k{s}"), 64);
        next_site(&mut origins, &mut counts, k);
        let eight = pool.bv_const(8, 64);
        let addr = pool.bin(BvOp::Mul, k, eight);
        next_site(&mut origins, &mut counts, addr);
        for byte in 0..8u64 {
            let off = pool.bv_const(byte, 64);
            let idx = pool.bin(BvOp::Add, addr, off);
            let v = pool.bv_const(byte, 8);
            arr = pool.write(arr, idx, v);
        }
        let p = pool.var(format!("p{s}"), 64);
        next_site(&mut origins, &mut counts, p);
        let r = pool.read(arr, p);
        next_site(&mut origins, &mut counts, r);
    }
    (pool, origins, counts)
}

fn bench_analyze_and_select(c: &mut Criterion) {
    let mut group = c.benchmark_group("selection/analyze_and_select");
    for &stages in &[4usize, 32, 128] {
        let (pool, origins, counts) = build_pool(stages);
        group.bench_with_input(BenchmarkId::from_parameter(stages), &stages, |b, _| {
            b.iter(|| {
                let graph = ConstraintGraph::analyze(&pool);
                let input = SelectionInput {
                    pool: &pool,
                    origins: &origins,
                    site_counts: &counts,
                };
                let set = select::select_key_values(&graph, &input);
                assert!(!set.is_empty());
                set
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_analyze_and_select);
criterion_main!(benches);
