//! Property tests for warm starts: a run started from a program's
//! captured prefix is the cold run, hook for hook.
//!
//! Random programs run a loop of calls with arguments and return values,
//! prints, global, stack and heap stores, then reach one of the ops a
//! capture stops before: an input or clock read, a `ptwrite`, a spawn, a
//! join, a lock or an unlock. The warm run must match the cold run of the
//! same environment and schedule in outcome, instruction count, output,
//! final memory and every sink hook, thread resumes and their timestamps
//! included, across quanta from 2 to 2000 and budgets that end at the
//! prefix, one instruction past it, inside the rest of the run, or where a
//! quantum boundary falls exactly on the prefix's end.
//!
//! A start translated to a rebuild ([`WarmStart::translate`]) must be the
//! rebuild's own capture: random programs of calls pause in `main` or one
//! or two frames down, random builds record random value-defining sites,
//! and the translation exists exactly when the rebuild's capture pauses at
//! the same count before the same op, and then equals that capture.

use er_minilang::compile;
use er_minilang::env::{Env, InputEvent};
use er_minilang::interp::{Machine, RunOutcome, SchedConfig, WarmStart};
use er_minilang::ir::{BlockId, FuncId, InstrId, Program};
use er_minilang::trace::TraceSink;
use proptest::prelude::*;

/// Every sink hook, in order, with its arguments.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Hook {
    Branch(bool),
    Call(FuncId),
    Ret,
    CallArgs(FuncId, Vec<u64>),
    RetValue(FuncId, u64),
    PtWrite(u64),
    Resume { tid: u64, tsc: u64 },
    Input(InputEvent),
    Clock(u64),
}

#[derive(Debug, Default)]
struct LogSink(Vec<Hook>);

impl TraceSink for LogSink {
    fn cond_branch(&mut self, taken: bool) {
        self.0.push(Hook::Branch(taken));
    }
    fn call(&mut self, func: FuncId) {
        self.0.push(Hook::Call(func));
    }
    fn ret(&mut self) {
        self.0.push(Hook::Ret);
    }
    fn call_args(&mut self, func: FuncId, args: &[u64]) {
        self.0.push(Hook::CallArgs(func, args.to_vec()));
    }
    fn ret_value(&mut self, func: FuncId, value: u64) {
        self.0.push(Hook::RetValue(func, value));
    }
    fn ptwrite(&mut self, value: u64) {
        self.0.push(Hook::PtWrite(value));
    }
    fn thread_resume(&mut self, tid: u64, tsc: u64) {
        self.0.push(Hook::Resume { tid, tsc });
    }
    fn input(&mut self, event: &InputEvent) {
        self.0.push(Hook::Input(*event));
    }
    fn clock_read(&mut self, value: u64) {
        self.0.push(Hook::Clock(value));
    }
}

/// The first op of each stop kind a capture pauses before, then programs
/// that complete or fault before reaching any.
const STOPS: [&str; 9] = [
    "h = h ^ input_u64(0);",
    "h = h ^ clock();",
    "ptwrite(h);",
    "let t: u64 = spawn worker(h); join(t);",
    "join(0);",
    "lock(1); S = S + h; unlock(1);",
    "unlock(2);",
    "",
    "abort(\"before any stop\");",
];

/// A program with a `iters`-round prefix of calls, prints and stores,
/// then `STOPS[stop]` and a suffix of `tail` more rounds.
fn program(iters: u32, tail: u32, salt: u64, size: u32, stop: usize) -> Program {
    let src = format!(
        r#"
        global G: [u64; 8];
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
            store64(p, h);
            {stop}
            for j: u64 = 0; j < {tail}; j = j + 1 {{
                h = step(h, j + load64(p));
            }}
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
    env.set_clock(1_000, 7);
    env
}

/// Asserts that the run of `program` from `warm` under `sched` is the
/// cold run.
fn assert_warm_is_cold(program: &Program, warm: &WarmStart, sched: SchedConfig) {
    let cold = Machine::with_sink(program, env(), LogSink::default())
        .with_sched(sched)
        .run();
    let Some(machine) = Machine::warm(program, warm, env(), LogSink::default(), sched) else {
        panic!(
            "{sched:?}: the budget covers the prefix of {}",
            warm.instrs()
        );
    };
    let hot = machine.run();
    assert_eq!(hot.outcome, cold.outcome, "{sched:?}");
    assert_eq!(hot.instr_count, cold.instr_count, "{sched:?}");
    assert_eq!(hot.output, cold.output, "{sched:?}");
    assert_eq!(hot.mem.dump(), cold.mem.dump(), "{sched:?}");
    assert_eq!(hot.sink.0, cold.sink.0, "{sched:?}");
}

/// The first schedule among seeds `0..200` with `quantum` whose cold run
/// resumes thread 0 exactly at instruction count `at`.
fn boundary_at(program: &Program, quantum: u64, at: u64) -> Option<SchedConfig> {
    (0..200)
        .map(|seed| SchedConfig {
            quantum,
            seed,
            max_instrs: 1 << 24,
        })
        .find(|&sched| {
            let cold = Machine::with_sink(program, env(), LogSink::default())
                .with_sched(sched)
                .run();
            cold.sink.0.contains(&Hook::Resume { tid: 0, tsc: at })
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn warm_runs_are_cold_runs(
        iters in 0u32..40,
        tail in 0u32..20,
        salt in any::<u64>(),
        size in 1u32..64,
        stop in 0usize..7,
        quantum in 2u64..2000,
        seed in any::<u64>(),
        slack in 1u64..400,
    ) {
        let program = program(iters, tail, salt, size, stop);
        let warm = WarmStart::capture(&program).expect("the program reaches its stop");
        let p = warm.instrs();
        let sched = |max_instrs| SchedConfig { quantum, seed, max_instrs };

        // A budget ending at the prefix hangs inside it: no warm start.
        prop_assert!(Machine::warm(&program, &warm, env(), LogSink::default(), sched(p)).is_none());
        let cold = Machine::new(&program, env()).with_sched(sched(p)).run();
        prop_assert_eq!(cold.instr_count, p);
        prop_assert!(matches!(cold.outcome, RunOutcome::Failure(_)));

        // One instruction past it, inside the rest of the run, and ample.
        for max_instrs in [p + 1, p + slack, 1 << 24] {
            assert_warm_is_cold(&program, &warm, sched(max_instrs));
        }
        // A quantum boundary exactly at the prefix's end.
        let short = 2 + quantum % 7;
        if let Some(on_boundary) = boundary_at(&program, short, p) {
            assert_warm_is_cold(&program, &warm, on_boundary);
        }
    }

    #[test]
    fn programs_that_end_before_any_stop_have_no_warm_start(
        iters in 0u32..40,
        salt in any::<u64>(),
        size in 1u32..64,
        stop in 7usize..9,
    ) {
        let program = program(iters, 0, salt, size, stop);
        prop_assert!(WarmStart::capture(&program).is_none());
    }
}

/// The boundary case is reachable: some short quantum puts a boundary on
/// every stop kind's prefix end, so the property above exercises it.
#[test]
fn a_quantum_boundary_lands_on_each_prefix_end() {
    for stop in 0..7 {
        let program = program(12, 3, 99, 16, stop);
        let warm = WarmStart::capture(&program).expect("the program reaches its stop");
        let sched = boundary_at(&program, 3, warm.instrs())
            .unwrap_or_else(|| panic!("stop {stop}: no boundary at {}", warm.instrs()));
        assert_warm_is_cold(&program, &warm, sched);
    }
}

/// Where [`nested`] pauses: in `main` after its call, in `probe` before or
/// after its own call, or in `inner`, two frames down.
const PAUSES: usize = 4;

/// A program whose `main` runs `iters` rounds of calls, then calls `probe`
/// and reads an input in the same block; the prefix pauses at the read
/// given by `pause` (see [`PAUSES`]), which is a clock read when `clock`.
fn nested(iters: u32, salt: u64, pause: usize, clock: bool) -> Program {
    let read = if clock { "clock()" } else { "input_u64(0)" };
    let at = |k: usize| {
        if k == pause {
            format!("x = x ^ {read};")
        } else {
            String::new()
        }
    };
    let src = format!(
        r#"
        global G: [u64; 8];
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
            let x: u64 = a * 7;
            {p3}
            let y: u64 = x + 1;
            return x ^ y;
        }}
        fn probe(h: u64) -> u64 {{
            let x: u64 = h * 3;
            {p1}
            let y: u64 = inner(x) + mix(x, h);
            {p2}
            return x + y;
        }}
        fn main() {{
            let h: u64 = {salt};
            for i: u64 = 0; i < {iters}; i = i + 1 {{
                h = step(h, i);
            }}
            let x: u64 = probe(h) + 5;
            {p0}
            let z: u64 = x * h;
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

/// Every value-defining site of `p`.
fn dst_sites(p: &Program) -> Vec<InstrId> {
    let mut sites = Vec::new();
    for (fi, f) in p.funcs().iter().enumerate() {
        for (bi, b) in f.blocks.iter().enumerate() {
            for (index, instr) in b.instrs.iter().enumerate() {
                if instr.dst().is_some() {
                    sites.push(InstrId {
                        func: FuncId(fi as u32),
                        block: BlockId(bi as u32),
                        index,
                    });
                }
            }
        }
    }
    sites
}

/// `program` recording the sites `picks` name, each taken modulo the
/// number of value-defining sites.
fn recording(program: &Program, picks: &[usize]) -> Program {
    let all = dst_sites(program);
    let mut sites: Vec<InstrId> = picks.iter().map(|&k| all[k % all.len()]).collect();
    sites.sort_unstable();
    sites.dedup();
    program.recording(&sites)
}

/// Checks the translation of `original`'s capture to `rebuilt` against
/// `rebuilt`'s own capture; whether there was one.
fn check_translation(original: &Program, rebuilt: &Program, sched: SchedConfig) -> bool {
    let warm = WarmStart::capture(original).expect("the program reaches its read");
    let fresh = WarmStart::capture(rebuilt).expect("a rebuild pauses no later");
    let same = fresh.instrs() == warm.instrs() && fresh.paused_op() == warm.paused_op();
    let Some(moved) = warm.translate(rebuilt) else {
        assert!(
            !same,
            "no translation, yet the rebuild pauses where the original does"
        );
        return false;
    };
    assert!(same, "a translation, yet the rebuild pauses elsewhere");
    assert_eq!(moved.instrs(), fresh.instrs());
    assert!(
        moved == fresh,
        "the translation equals the rebuild's capture"
    );
    // A run from the translation is the run from the capture, and cold.
    let run = |warm: &WarmStart| {
        Machine::warm(rebuilt, warm, env(), LogSink::default(), sched)
            .expect("the budget covers the prefix")
            .run()
    };
    let (a, b) = (run(&moved), run(&fresh));
    let cold = Machine::with_sink(rebuilt, env(), LogSink::default())
        .with_sched(sched)
        .run();
    for other in [&b, &cold] {
        assert_eq!(a.outcome, other.outcome);
        assert_eq!(a.instr_count, other.instr_count);
        assert_eq!(a.output, other.output);
        assert_eq!(a.mem.dump(), other.mem.dump());
        assert_eq!(a.sink.0, other.sink.0);
    }
    true
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn translated_starts_are_the_rebuilds_captures(
        iters in 0u32..12,
        salt in any::<u64>(),
        pause in 0..PAUSES,
        clock in any::<bool>(),
        picks in prop::collection::vec(any::<usize>(), 0..4),
        original_picks in prop::collection::vec(any::<usize>(), 0..2),
        quantum in 2u64..300,
        seed in any::<u64>(),
    ) {
        let program = nested(iters, salt, pause, clock);
        let sched = SchedConfig { quantum, seed, max_instrs: 1 << 24 };
        // From the plain build, as a session rebuilds, and from a build
        // that records sites of its own.
        check_translation(&program, &recording(&program, &picks), sched);
        let original = recording(&program, &original_picks);
        check_translation(&original, &recording(&program, &picks), sched);
    }
}

/// Both answers occur at every pause: recording each value-defining site
/// alone, some rebuilds translate and some do not, and a site that runs
/// after the pause never stops a translation.
#[test]
fn each_pause_has_sites_that_translate_and_sites_that_do_not() {
    let sched = SchedConfig {
        quantum: 50,
        seed: 3,
        max_instrs: 1 << 24,
    };
    for pause in 0..PAUSES {
        let program = nested(4, 17, pause, false);
        let n = dst_sites(&program).len();
        let translated = (0..n)
            .filter(|&k| check_translation(&program, &recording(&program, &[k]), sched))
            .count();
        assert!(
            0 < translated && translated < n,
            "pause {pause}: {translated} of {n}"
        );
    }
}
