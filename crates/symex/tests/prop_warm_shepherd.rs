//! Property tests for the symbolic warm start: a shepherd that starts
//! from [`MachineState::from_warm`] is the shepherd that starts at the
//! entry, past the prefix.
//!
//! Random programs (the generator of `er-minilang`'s `prop_warm.rs`) run
//! a loop of calls with arguments and return values, prints, global,
//! stack and heap stores, then reach one of the ops a capture stops
//! before: an input or clock read, a `ptwrite`, a spawn, a join, a lock
//! or an unlock, and go on. For the trace of a production run under a
//! random schedule, the converted state must be the state of a cold
//! shepherd stopped after the prefix's instruction count, and the run
//! from it must end as the cold run does: the same status, path, site
//! counts and steps past the prefix, and, when it completes, the same
//! generated test case.
//!
//! A start translated to a rebuild ([`WarmStart::translate`]) converts
//! the same way: random programs of calls pause in `main` or one or two
//! frames down, random builds record random value-defining sites, and
//! each translation's state is a cold shepherd's on the rebuild.

use er_minilang::compile;
use er_minilang::env::Env;
use er_minilang::error::{Failure, FailureKind};
use er_minilang::interp::{Machine, RunOutcome, SchedConfig, WarmStart};
use er_minilang::ir::{BlockId, FuncId, InstrId, Program};
use er_pt::sink::{PtConfig, PtSink};
use er_pt::TraceEvent;
use er_solver::inc::IncrementalSolver;
use er_solver::solve::{Budget, SatResult};
use er_symex::{MachineState, ShepherdStatus, SymConfig, SymMachine, SymRunResult};
use proptest::prelude::*;

/// The first op of each stop kind a capture pauses before. The input
/// read lands in `S`, not in the hash chain, which keeps solves small.
const STOPS: [&str; 7] = [
    "S = S ^ input_u64(0);",
    "h = h ^ clock();",
    "ptwrite(h);",
    "let t: u64 = spawn worker(h); join(t);",
    "join(0);",
    "lock(1); S = S + h; unlock(1);",
    "unlock(2);",
];

/// A program with a `iters`-round prefix of calls, prints and stores,
/// then `STOPS[stop]` and a suffix of `tail` more rounds, an input read
/// and a store through it.
fn program(iters: u32, tail: u32, salt: u64, size: u32, stop: usize) -> Program {
    let src = format!(
        r#"
        global G: [u64; 8];
        global T: [u8; 8];
        global S: u64 = 5;
        fn mix(a: u64, b: u64) -> u64 {{
            var buf: [u64; 4];
            buf[a % 4] = b;
            return (a ^ buf[a % 4]) * 1099511628211 + (a >> 7);
        }}
        fn step(h: u64, i: u64) -> u64 {{
            if i % 3 == 0 {{ G[i % 8] = h; }}
            return mix(h, i) ^ G[(i + 1) % 8];
        }}
        fn worker(x: u64) {{
            lock(1);
            S = S + x;
            unlock(1);
        }}
        fn main() {{
            let h: u64 = {salt};
            for i: u64 = 0; i < {iters}; i = i + 1 {{
                h = step(h, i);
                if h % 5 == 0 {{ print(h); }}
            }}
            let p: u64 = alloc({size});
            let q: u64 = alloc(8);
            free(q);
            store64(p, h);
            {stop}
            let x: u64 = input_u64(0);
            for j: u64 = 0; j < {tail}; j = j + 1 {{
                h = step(h, j + load64(p));
            }}
            T[x & 7] = 1;
            if T[3] == 1 {{ print(x); }}
            print(h + S);
        }}
        "#,
        stop = STOPS[stop],
    );
    compile(&src).expect("the template compiles")
}

fn env() -> Env {
    let mut env = Env::new();
    env.push_input(0, &0x0123_4567_89ab_cdefu64.to_le_bytes());
    env.push_input(0, &0x0fed_cba9_8765_4323u64.to_le_bytes());
    env.set_clock(1_000, 7);
    env
}

/// The decoded trace and the failure of `program`'s production run.
fn record(program: &Program, sched: SchedConfig) -> (Vec<TraceEvent>, Option<Failure>) {
    let report = Machine::with_sink(program, env(), PtSink::new(PtConfig::default()))
        .with_sched(sched)
        .run();
    let failure = match report.outcome {
        RunOutcome::Failure(f) => Some(f),
        RunOutcome::Completed => None,
    };
    let events = report.sink.finish().decode().expect("trace decodes").events;
    (events, failure)
}

/// The input streams a solve of `run`'s path and failure constraint
/// generates, by stream and offset.
fn test_case(run: &mut SymRunResult) -> Vec<(u32, usize, u64)> {
    let assertions: Vec<_> = run
        .path
        .iter()
        .copied()
        .chain(run.failure_constraint)
        .collect();
    let SatResult::Sat(model) =
        IncrementalSolver::new().check(&mut run.pool, &assertions, &Budget::default())
    else {
        panic!("a completed path is satisfiable");
    };
    run.inputs
        .iter()
        .map(|r| (r.source, r.offset, model.eval(&run.pool, r.var)))
        .collect()
}

/// Asserts that `warm` converts, for `program`'s run under `sched`, into
/// a cold shepherd's state at the pause, and that the run from it ends as
/// the cold run does.
fn assert_warm_shepherd_is_cold(program: &Program, warm: &WarmStart, sched: SchedConfig) {
    let (events, failure) = record(program, sched);
    assert!(
        warm.prefix_matches(&events),
        "{sched:?}: a trace starts with the prefix's events"
    );
    if events.len() == warm.events() {
        // The run deadlocked at the pause: a cold shepherd concludes a
        // liveness failure after the last event, before the ops that
        // lead up to the pause, so no warm start applies.
        assert!(failure.is_some_and(|f| f.fault.kind() == FailureKind::Liveness));
        return;
    }
    let state = MachineState::from_warm(program, warm);
    assert_eq!(state.cursor(), warm.events());
    let cold_state = MachineState::shepherded(program, &events, warm.instrs());
    assert_eq!(state.mismatch(&cold_state), None, "{sched:?}");

    let config = SymConfig::default();
    let mut cold = SymMachine::new(program, config).run(&events, failure.as_ref());
    let mut hot = SymMachine::resume(program, config, state).run(&events, failure.as_ref());
    assert_eq!(hot.status, cold.status, "{sched:?}");
    assert_eq!(hot.path, cold.path, "{sched:?}");
    assert_eq!(hot.pool.len(), cold.pool.len(), "{sched:?}");
    assert_eq!(hot.failure_constraint, cold.failure_constraint, "{sched:?}");
    assert_eq!(
        hot.site_counts.iter().collect::<Vec<_>>(),
        cold.site_counts.iter().collect::<Vec<_>>(),
        "{sched:?}"
    );
    assert_eq!(
        hot.stats.steps + warm.instrs(),
        cold.stats.steps,
        "{sched:?}"
    );
    if cold.status == ShepherdStatus::Completed {
        assert_eq!(test_case(&mut hot), test_case(&mut cold), "{sched:?}");
    }
}

/// A trace whose prefix events differ in one branch outcome, or that is
/// cut inside the prefix, does not match it.
fn assert_tampered_prefixes_mismatch(warm: &WarmStart, events: &[TraceEvent]) {
    let n = warm.events();
    assert!(
        !warm.prefix_matches(&events[..n - 1]),
        "cut inside the prefix"
    );
    for (i, ev) in events[..n].iter().enumerate() {
        if let TraceEvent::Branch(taken) = *ev {
            let mut flipped = events.to_vec();
            flipped[i] = TraceEvent::Branch(!taken);
            assert!(!warm.prefix_matches(&flipped), "branch {i} flipped");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn warm_shepherds_are_cold_shepherds(
        iters in 0u32..40,
        tail in 0u32..12,
        salt in any::<u64>(),
        size in 0u32..64,
        stop in 0usize..STOPS.len(),
        quantum in 2u64..2000,
        seed in any::<u64>(),
    ) {
        let program = program(iters, tail, salt, size, stop);
        let warm = WarmStart::capture(&program).expect("the program reaches its stop");
        let sched = SchedConfig { quantum, seed, max_instrs: 1 << 24 };
        assert_warm_shepherd_is_cold(&program, &warm, sched);
        let (events, _) = record(&program, sched);
        if warm.events() > 0 {
            assert_tampered_prefixes_mismatch(&warm, &events);
        }
    }
}

/// Where [`nested`] pauses: in `main` after its call, in `probe` before or
/// after its own call, or in `inner`, two frames down.
const PAUSES: usize = 4;

/// A program whose `main` runs `iters` rounds of calls, then calls `probe`
/// and reads an input in the same block; the prefix pauses at the read
/// given by `pause` (see [`PAUSES`]). The input lands in `V`, which only
/// indexes a table at the end, so solves stay small.
fn nested(iters: u32, salt: u64, pause: usize) -> Program {
    let at = |k: usize| {
        if k == pause {
            "V = V ^ input_u64(0);".to_string()
        } else {
            String::new()
        }
    };
    let src = format!(
        r#"
        global G: [u64; 8];
        global T: [u8; 8];
        global V: u64;
        fn mix(a: u64, b: u64) -> u64 {{
            var buf: [u64; 4];
            buf[a % 4] = b;
            return (a ^ buf[a % 4]) * 1099511628211 + (a >> 7);
        }}
        fn step(h: u64, i: u64) -> u64 {{
            if i % 3 == 0 {{ G[i % 8] = h; }}
            return mix(h, i) ^ G[(i + 1) % 8];
        }}
        fn inner(a: u64) -> u64 {{
            var t: [u64; 2];
            let x: u64 = a * 7;
            t[x % 2] = x;
            {p3}
            let y: u64 = x + t[1];
            return x ^ y;
        }}
        fn probe(h: u64) -> u64 {{
            var t: [u64; 2];
            let x: u64 = h * 3;
            {p1}
            let y: u64 = inner(x) + mix(x, h);
            t[y % 2] = y;
            {p2}
            return x + y + t[0];
        }}
        fn main() {{
            let h: u64 = {salt};
            for i: u64 = 0; i < {iters}; i = i + 1 {{
                h = step(h, i);
            }}
            let x: u64 = probe(h) + 5;
            {p0}
            let z: u64 = x * h;
            T[V & 7] = 1;
            if T[3] == 1 {{ print(z); }}
            print(z + input_u64(0));
        }}
        "#,
        p0 = at(0),
        p1 = at(1),
        p2 = at(2),
        p3 = at(3),
    );
    compile(&src).expect("the template compiles")
}

/// `program` recording the value-defining sites `picks` name, each taken
/// modulo their number.
fn recording(program: &Program, picks: &[usize]) -> Program {
    let mut all = Vec::new();
    for (fi, f) in program.funcs().iter().enumerate() {
        for (bi, b) in f.blocks.iter().enumerate() {
            for (index, instr) in b.instrs.iter().enumerate() {
                if instr.dst().is_some() {
                    all.push(InstrId {
                        func: FuncId(fi as u32),
                        block: BlockId(bi as u32),
                        index,
                    });
                }
            }
        }
    }
    let mut sites: Vec<InstrId> = picks.iter().map(|&k| all[k % all.len()]).collect();
    sites.sort_unstable();
    sites.dedup();
    program.recording(&sites)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn translated_warm_shepherds_are_cold_shepherds(
        iters in 0u32..12,
        salt in any::<u64>(),
        pause in 0..PAUSES,
        picks in prop::collection::vec(any::<usize>(), 0..4),
        quantum in 2u64..300,
        seed in any::<u64>(),
    ) {
        let program = nested(iters, salt, pause);
        let rebuilt = recording(&program, &picks);
        let sched = SchedConfig { quantum, seed, max_instrs: 1 << 24 };
        let warm = WarmStart::capture(&program).expect("the program reaches its read");
        assert_warm_shepherd_is_cold(&program, &warm, sched);
        // A rebuild whose prefix is not the same captures its own start.
        let moved = warm.translate(&rebuilt);
        let start = moved.unwrap_or_else(|| {
            WarmStart::capture(&rebuilt).expect("a rebuild pauses no later")
        });
        assert_warm_shepherd_is_cold(&rebuilt, &start, sched);
    }
}
