//! Criterion micro-benchmarks for shepherded symbolic execution.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use er_minilang::compile;
use er_minilang::env::Env;
use er_minilang::interp::{Machine, RunOutcome};
use er_pt::sink::{PtConfig, PtSink};
use er_symex::{SymConfig, SymMachine};

fn record(
    src: &str,
    input: u32,
) -> (
    er_minilang::ir::Program,
    Vec<er_pt::TraceEvent>,
    er_minilang::error::Failure,
) {
    let mut env = Env::new();
    env.push_input(0, &input.to_le_bytes());
    record_env(src, env)
}

fn record_env(
    src: &str,
    env: Env,
) -> (
    er_minilang::ir::Program,
    Vec<er_pt::TraceEvent>,
    er_minilang::error::Failure,
) {
    let program = compile(src).unwrap();
    let report = Machine::with_sink(&program, env, PtSink::new(PtConfig::default())).run();
    let RunOutcome::Failure(f) = report.outcome else {
        panic!()
    };
    let events = report.sink.finish().decode().unwrap().events;
    (program, events, f)
}

/// Mostly-concrete shepherding: the fast path that dominates real traces.
fn bench_concrete_path(c: &mut Criterion) {
    let src = r#"
        fn main() {
            let n: u32 = input_u32(0);
            let h: u32 = 2166136261;
            for i: u32 = 0; i < 20000; i = i + 1 {
                h = (h ^ i) * 16777619;
            }
            if h == n { print(1); }
            abort("end");
        }
    "#;
    let (program, events, failure) = record(src, 5);
    let mut group = c.benchmark_group("symex/concrete_shepherd");
    group.throughput(Throughput::Elements(events.len() as u64));
    group.bench_function("20k_iteration_loop", |b| {
        b.iter(|| {
            let r = SymMachine::new(&program, SymConfig::default()).run(&events, Some(&failure));
            assert!(matches!(r.status, er_symex::ShepherdStatus::Completed));
        });
    });
    group.finish();
}

/// Symbolic dataflow shepherding: input-tainted arithmetic each iteration.
fn bench_symbolic_path(c: &mut Criterion) {
    let src = r#"
        fn main() {
            let n: u32 = input_u32(0);
            let h: u32 = n;
            for i: u32 = 0; i < 2000; i = i + 1 {
                h = (h ^ i) * 31;
            }
            if h == 0 { print(1); }
            abort("end");
        }
    "#;
    let (program, events, failure) = record(src, 77);
    c.bench_function("symex/symbolic_dataflow_2k", |b| {
        b.iter(|| {
            let r = SymMachine::new(&program, SymConfig::default()).run(&events, Some(&failure));
            assert!(matches!(r.status, er_symex::ShepherdStatus::Completed));
        });
    });
}

/// Symbolic table accesses: three stages, each a store to a 32-entry table
/// at a masked input and a branch on a read of it at another, guarding a
/// hash check. Every access is symbolic, not unique and inside its table,
/// so the run's time is address resolution.
fn bench_table_accesses(c: &mut Criterion) {
    let (shift, mul, secret) = (17u64, 0x9e37_79b9_7f4a_7c15u64, 0x1234_5678_9abc_def0u64);
    let target = (secret ^ (secret >> shift)).wrapping_mul(mul) & 0xffff;
    let mut src = String::new();
    for s in 1..=3 {
        src += &format!("global T{s}: [u64; 32];\n");
    }
    src += &format!(
        "fn main() {{\n    let h: u64 = input_u64(0);\n    h = (h ^ (h >> {shift})) * {mul};\n"
    );
    for s in 1..=3 {
        src += &format!(
            "    let k{s}: u64 = input_u64(1) & 31;\n    let p{s}: u64 = input_u64(1) & 31;\n    T{s}[k{s}] = {m};\n    if T{s}[p{s}] == {m} {{\n",
            m = 40 + s
        );
    }
    src += &format!("    if (h & 65535) == {target} {{ abort(\"target reached\"); }}\n");
    src += "    }\n    }\n    }\n    print(h);\n}\n";
    let mut env = Env::new();
    env.push_input(0, &secret.to_le_bytes());
    for k in [5u64, 17, 30] {
        env.push_input(1, &k.to_le_bytes());
        env.push_input(1, &k.to_le_bytes());
    }
    let (program, events, failure) = record_env(&src, env);
    c.bench_function("symex/table_accesses_3_stages", |b| {
        b.iter(|| {
            let r = SymMachine::new(&program, SymConfig::default()).run(&events, Some(&failure));
            assert!(matches!(r.status, er_symex::ShepherdStatus::Completed));
            assert_eq!(r.stats.symbolic_accesses, 6);
            // Each decided without a uniqueness or containment query.
            assert_eq!((r.stats.addr_witnessed, r.stats.addr_bounded), (6, 6));
        });
    });
}

criterion_group!(
    benches,
    bench_concrete_path,
    bench_symbolic_path,
    bench_table_accesses
);
criterion_main!(benches);
