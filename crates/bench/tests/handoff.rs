//! The final input solve continues on the solver engine the shepherded run
//! hands over instead of re-lowering the whole path. Its verdict must match
//! a fresh `IncrementalSolver` given the same constraints, its test case
//! must replay the failure, and an injected solver stall must still surface
//! from it.
//!
//! Covers the thirteen Table-1 workloads at test scale, each occurrence
//! shepherded as a session shepherds it: from its binary's symbolic warm
//! start when the trace starts with the warm prefix's events. It also
//! covers a few programs written here in the shape of the solver-bound
//! benchmark workload: a multiply-xorshift hash pinned to 16 bits behind
//! three 32-entry symbolic tables, which read input first and so start
//! from the entry.

use er_core::deploy::{Deployment, FailureOccurrence};
use er_core::instrument::InstrumentedProgram;
use er_core::reconstruct::{ErConfig, Reconstructor};
use er_core::shepherd::{self, SolveFailure};
use er_core::testcase::{TestCase, VerifyResult};
use er_minilang::env::Env;
use er_minilang::ir::{InstrId, Program};
use er_pt::TraceEvent;
use er_solver::inc::IncrementalSolver;
use er_solver::solve::{Budget, SatResult, StallReason};
use er_symex::{MachineState, ShepherdStatus};
use er_workloads::Scale;
use std::fmt::Write as _;
use std::sync::Mutex;

/// Chaos arming is process-global; tests in this binary take turns.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// The state a session shepherds `events` of `inst` from: the binary's
/// symbolic warm start if the trace starts with the warm prefix's events
/// and goes on past them, else `None`, the entry.
fn start_state(inst: &InstrumentedProgram, events: &[TraceEvent]) -> Option<MachineState> {
    let warm = inst.symbolic_warm_start()?;
    let start = inst
        .warm_start()
        .expect("a symbolic warm start has a warm start");
    (events.len() > start.events() && start.prefix_matches(events)).then(|| warm.clone())
}

/// Shepherds `events` of `occ` (produced by `inst`), from `from` if
/// given, and checks the handed-off final solve against a fresh solve of
/// `path + failure constraint`. Returns the clauses the final solve took
/// over from the run's engine; `None` without checking if shepherding did
/// not complete.
fn handoff_agrees(
    name: &str,
    program: &Program,
    inst: &InstrumentedProgram,
    occ: &FailureOccurrence,
    events: &[TraceEvent],
    from: Option<MachineState>,
    config: &ErConfig,
) -> Option<usize> {
    let mut run =
        shepherd::shepherd_events(&inst.program, events, Some(&occ.failure), config.sym, from).run;
    if run.status != ShepherdStatus::Completed {
        return None;
    }
    let assertions: Vec<_> = run
        .path
        .iter()
        .copied()
        .chain(run.failure_constraint)
        .collect();
    let reused = run
        .solver
        .reusable_clauses(&assertions, &config.final_budget);
    let mut pool = run.pool.clone();
    let fresh = IncrementalSolver::new().check(&mut pool, &assertions, &config.final_budget);
    match (
        &fresh,
        shepherd::solve_inputs(&mut run, &config.final_budget),
    ) {
        (SatResult::Sat(_), Ok(inputs)) => {
            let tc = TestCase {
                inputs,
                sched: occ.sched,
                expected: occ.failure.clone(),
            };
            let verdict = tc.verify(program);
            assert!(
                matches!(verdict, VerifyResult::Reproduced { .. }),
                "{name}: handed-off test case does not replay: {verdict:?}"
            );
        }
        (SatResult::Unsat, Err(SolveFailure::Unsat))
        | (SatResult::Unknown(_), Err(SolveFailure::Stall(_))) => {}
        (fresh, handed) => panic!("{name}: fresh solve {fresh:?} but handed-off {handed:?}"),
    }
    Some(reused)
}

#[test]
fn table1_final_solves_match_a_fresh_solver() {
    let _s = serial();
    for w in er_workloads::all() {
        let deployment = w.deployment(Scale::TEST);
        let config = w.er_config();
        let report = Reconstructor::new(config).reconstruct(&deployment);
        assert!(report.reproduced(), "{}: {:?}", w.name, report.outcome);
        // The recording set the reconstruction ended with: occurrences of
        // this binary shepherd to completion.
        let sites: Vec<InstrId> = report
            .iterations
            .iter()
            .flat_map(|it| it.new_sites.iter().copied())
            .collect();
        let program = deployment.program();
        let inst = InstrumentedProgram::new(program, &sites);
        let mut start = 0;
        let mut completed = false;
        for _ in 0..8 {
            let occ = deployment
                .run_until_failure(
                    &inst,
                    report.target.as_ref(),
                    start,
                    config.max_runs_per_occurrence,
                )
                .unwrap_or_else(|| panic!("{}: failure does not reoccur", w.name));
            start = occ.run_index + 1;
            let events = occ.trace.decode().expect("trace decodes").events;
            let from = start_state(&inst, &events);
            assert!(from.is_some(), "{}: the trace starts warm", w.name);
            completed =
                handoff_agrees(w.name, program, &inst, &occ, &events, from, &config).is_some();
            if completed {
                break;
            }
        }
        assert!(
            completed,
            "{}: no occurrence shepherded to completion",
            w.name
        );
    }
}

/// Splitmix64 step.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// A program whose crash needs a 16-bit preimage of a multiply-xorshift
/// hash, guarded by three symbolic-table stages (store at one masked
/// symbolic index, branch on a read at another). Every fourth production
/// run crashes it.
fn deep_deployment(key: u64) -> Deployment {
    let shift = 13 + mix(key) % 20;
    let mul = mix(key ^ 1) | 1;
    let secret = mix(key ^ 2);
    let target = (secret ^ (secret >> shift)).wrapping_mul(mul) & 0xffff;
    let mut src = String::new();
    for s in 1..=3 {
        writeln!(src, "global T{s}: [u64; 32];").unwrap();
    }
    writeln!(
        src,
        "fn main() {{\n    let h: u64 = input_u64(0);\n    h = (h ^ (h >> {shift})) * {mul};"
    )
    .unwrap();
    for s in 1..=3 {
        writeln!(
            src,
            "    let k{s}: u64 = input_u64(1) & 31;\n    let p{s}: u64 = input_u64(1) & 31;\n    T{s}[k{s}] = {m};\n    if T{s}[p{s}] == {m} {{",
            m = 40 + s
        )
        .unwrap();
    }
    writeln!(src, "    if (h & 65535) == {target} {{ abort(\"deep\"); }}").unwrap();
    src.push_str("    }\n    }\n    }\n    print(h);\n}\n");
    let program = er_minilang::compile(&src).expect("generated program compiles");
    Deployment::new(program, move |run| {
        let failing = run % 4 == 3;
        let r = mix(key ^ run.wrapping_mul(0x100));
        let mut env = Env::new();
        env.push_input(0, &(if failing { secret } else { r }).to_le_bytes());
        for s in 0..3 {
            let k = mix(r.wrapping_add(s)) % 32;
            let p = if failing { k } else { (k + 1) % 32 };
            env.push_input(1, &k.to_le_bytes());
            env.push_input(1, &p.to_le_bytes());
        }
        env
    })
}

/// Generous enough that no query stalls: the solver resolves everything.
fn deep_config() -> ErConfig {
    let budget = Budget {
        max_conflicts: 2_000_000,
        max_array_cells: 1_000_000,
        max_clauses: 8_000_000,
    };
    let mut config = ErConfig::default();
    config.sym.solver_budget = budget;
    config.final_budget = budget;
    config
}

#[test]
fn deep_solve_shaped_final_solves_match_a_fresh_solver() {
    let _s = serial();
    let config = deep_config();
    for key in 1..=4u64 {
        let name = format!("deep-{key}");
        let deployment = deep_deployment(key);
        let program = deployment.program();
        let inst = InstrumentedProgram::unmodified(program);
        let occ = deployment
            .run_until_failure(&inst, None, 0, 16)
            .expect("every fourth run crashes");
        let events = occ.trace.decode().expect("trace decodes").events;
        let from = start_state(&inst, &events);
        assert!(from.is_none(), "{name}: the program reads input first");
        let reused = handoff_agrees(&name, program, &inst, &occ, &events, from, &config)
            .unwrap_or_else(|| panic!("{name}: shepherding did not complete"));
        assert!(
            reused > 0,
            "{name}: the final solve reuses the run's engine"
        );
        let report = Reconstructor::new(config).reconstruct(&deployment);
        assert!(report.reproduced(), "{name}: {:?}", report.outcome);
        assert_eq!(report.occurrences, 1, "{name}: one occurrence suffices");
    }
}

#[test]
fn injected_stall_surfaces_from_the_handed_off_final_solve() {
    let _s = serial();
    let config = deep_config();
    let deployment = deep_deployment(7);
    let inst = InstrumentedProgram::unmodified(deployment.program());
    let occ = deployment
        .run_until_failure(&inst, None, 0, 16)
        .expect("every fourth run crashes");
    let events = occ.trace.decode().expect("trace decodes").events;
    let mut run =
        shepherd::shepherd_events(&inst.program, &events, Some(&occ.failure), config.sym, None).run;
    assert_eq!(run.status, ShepherdStatus::Completed);

    // Armed to stall every solver check: the final solve still makes
    // exactly one check, and reports the injection as a budget stall.
    let plan = er_chaos::ChaosPlan::new(0x5eed).with(
        er_chaos::Fault::SolverStall,
        er_chaos::FaultPolicy::always(u64::MAX),
    );
    let guard = er_chaos::arm(plan);
    let budget = config.final_budget;
    assert_eq!(
        shepherd::solve_inputs(&mut run, &budget),
        Err(SolveFailure::Stall(StallReason::Conflicts {
            conflicts: budget.max_conflicts
        }))
    );
    let stats = er_chaos::stats().expect("armed");
    assert_eq!(stats.domain(er_chaos::Domain::Solver).injected, 1);
    drop(guard);
}
