//! Criterion benchmarks for the two step loops: the production
//! interpreter, untraced and under PT tracing, and the shepherded symbolic
//! executor; and for warm starts, captured once per binary, translated
//! to each rebuild, and started from by each traced production run.
//!
//! Throughput is reported per dynamic instruction (interpreter) or per
//! symbolic step (symex), so `1000 / (M elem/s)` is the cost in ns of one
//! instruction or step. Run with `cargo bench -p er-bench --bench exec`;
//! `-- --test` runs each routine once, untimed.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use er_core::instrument::InstrumentedProgram;
use er_minilang::interp::{Machine, WarmStart};
use er_minilang::ir::{BlockId, FuncId, InstrId, Program};
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

/// A warm start of `PHP-2012-2386`: capturing its prefix, translating it
/// to a rebuild that records one site, and one traced production run
/// started from it, next to the same run executed from the entry
/// (`cold_run`). Throughput is per instruction of the whole run.
fn bench_warm_start(c: &mut Criterion) {
    let name = "PHP-2012-2386";
    let w = by_name(name).expect("registered workload");
    let d = w.deployment(Scale::TEST);
    let (env, sched) = (d.env_for(0), d.sched_for(0));
    let program = d.program();
    let warm = WarmStart::capture(program).expect("the workload has a prefix");
    // The first site whose recording the prefix does not reach.
    let rebuilt = value_sites(program)
        .map(|site| program.recording(&[site]))
        .find(|rebuilt| warm.translate(rebuilt).is_some())
        .expect("a site after the prefix");
    let instrs = Machine::new(program, env.clone())
        .with_sched(sched)
        .run()
        .instr_count;
    let mut group = c.benchmark_group(&format!("exec/warm/{name}"));
    group.throughput(Throughput::Elements(instrs));
    group.bench_function("warm_capture", |b| {
        b.iter(|| WarmStart::capture(program).map(|w| w.instrs()));
    });
    group.bench_function("warm_translate", |b| {
        b.iter(|| warm.translate(&rebuilt).map(|w| w.instrs()));
    });
    group.bench_function("cold_run", |b| {
        b.iter(|| {
            let sink = PtSink::new(PtConfig::default());
            let report = Machine::with_sink(program, env.clone(), sink)
                .with_sched(sched)
                .run();
            report.sink.finish().bytes.len()
        });
    });
    group.bench_function("warm_run", |b| {
        b.iter(|| {
            let sink = PtSink::new(PtConfig::default());
            let report = Machine::warm(program, &warm, env.clone(), sink, sched)
                .expect("the budget covers the prefix")
                .run();
            report.sink.finish().bytes.len()
        });
    });
    group.finish();
}

/// Every value-defining instruction of `program`, in order.
fn value_sites(program: &Program) -> impl Iterator<Item = InstrId> + '_ {
    program.funcs().iter().enumerate().flat_map(|(f, func)| {
        func.blocks.iter().enumerate().flat_map(move |(b, block)| {
            block
                .instrs
                .iter()
                .enumerate()
                .filter(|(_, instr)| instr.dst().is_some())
                .map(move |(index, _)| InstrId {
                    func: FuncId(f as u32),
                    block: BlockId(b as u32),
                    index,
                })
        })
    })
}

/// Shepherding the first recorded failure trace of each workload:
/// `Python-2018-1000030`'s is step-bound, `PHP-2012-2386`'s is step-bound
/// up to its stall query, and `SQLite-7be932d`'s is mostly that query.
fn bench_shepherd(c: &mut Criterion) {
    for name in ["Python-2018-1000030", "PHP-2012-2386", "SQLite-7be932d"] {
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

criterion_group!(benches, bench_interpreter, bench_warm_start, bench_shepherd);
criterion_main!(benches);
