//! Criterion benchmarks for the two step loops: the production
//! interpreter, untraced and under PT tracing, and the shepherded symbolic
//! executor.
//!
//! Throughput is reported per dynamic instruction (interpreter) or per
//! symbolic step (symex), so `1000 / (M elem/s)` is the cost in ns of one
//! instruction or step. Run with `cargo bench -p er-bench --bench exec`.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use er_core::instrument::InstrumentedProgram;
use er_minilang::interp::Machine;
use er_pt::sink::{PtConfig, PtSink};
use er_symex::SymMachine;
use er_workloads::{by_name, Scale};

/// One production run of each workload, untraced and traced.
fn bench_interpreter(c: &mut Criterion) {
    for name in ["PHP-74194", "Python-2018-1000030"] {
        let w = by_name(name).expect("registered workload");
        let d = w.deployment(Scale::TEST);
        let (env, sched) = (d.env_for(0), d.sched_for(0));
        let instrs = Machine::new(d.program(), env.clone())
            .with_sched(sched)
            .run()
            .instr_count;
        let mut group = c.benchmark_group(&format!("exec/interp/{name}"));
        group.throughput(Throughput::Elements(instrs));
        group.bench_function("untraced", |b| {
            b.iter(|| {
                Machine::new(d.program(), env.clone())
                    .with_sched(sched)
                    .run()
                    .instr_count
            });
        });
        group.bench_function("pt_traced", |b| {
            b.iter(|| {
                let report =
                    Machine::with_sink(d.program(), env.clone(), PtSink::new(PtConfig::default()))
                        .with_sched(sched)
                        .run();
                report.sink.finish().bytes.len()
            });
        });
        group.finish();
    }
}

/// Shepherding the first recorded failure trace of each workload:
/// `Python-2018-1000030`'s is step-bound, `SQLite-7be932d`'s is mostly
/// its stall query.
fn bench_shepherd(c: &mut Criterion) {
    for name in ["Python-2018-1000030", "SQLite-7be932d"] {
        let w = by_name(name).expect("registered workload");
        let d = w.deployment(Scale::TEST);
        let config = w.er_config();
        let inst = InstrumentedProgram::unmodified(d.program());
        let occ = d
            .run_until_failure(&inst, None, 0, config.max_runs_per_occurrence)
            .expect("workload fails in production");
        let events = occ.trace.decode().expect("trace decodes").events;
        let failure = occ.failure;
        let steps = SymMachine::new(&inst.program, config.sym)
            .run(&events, Some(&failure))
            .stats
            .steps;
        let mut group = c.benchmark_group(&format!("exec/symex/{name}"));
        group.throughput(Throughput::Elements(steps));
        group.bench_function("first_occurrence", |b| {
            b.iter(|| {
                SymMachine::new(&inst.program, config.sym)
                    .run(&events, Some(&failure))
                    .stats
                    .steps
            });
        });
        group.finish();
    }
}

criterion_group!(benches, bench_interpreter, bench_shepherd);
criterion_main!(benches);
