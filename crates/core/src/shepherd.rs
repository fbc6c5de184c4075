//! Shepherded symbolic execution and final input solving (paper §3.2).
//!
//! The per-instruction trace-following engine lives in [`er_symex`]; this
//! module drives it for ER: decode the shipped trace, follow it, and — when
//! the whole path has been executed — solve the accumulated path constraint
//! for concrete failure-inducing inputs.

use er_minilang::error::Failure;
use er_minilang::ir::Program;
use er_pt::sink::PtTrace;
use er_solver::solve::{Budget, SatResult, StallReason};
use er_symex::{MachineState, SymConfig, SymMachine, SymRunResult};
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// A shepherded run plus wall-clock accounting (Table 1's "Symbex Time").
#[derive(Debug)]
pub struct ShepherdReport {
    /// The symbolic run.
    pub run: SymRunResult,
    /// Wall-clock time of the shepherded execution.
    pub wall: Duration,
}

/// Decodes `trace` and follows it symbolically from the program entry.
///
/// # Errors
///
/// Returns the trace decoder's error if the byte stream is corrupt.
pub fn shepherd(
    program: &Program,
    trace: &PtTrace,
    failure: Option<&Failure>,
    config: SymConfig,
) -> Result<ShepherdReport, er_pt::DecodeError> {
    let decoded = {
        let _span = er_telemetry::span!("shepherd.decode");
        trace.decode()?
    };
    Ok(shepherd_events(
        program,
        &decoded.events,
        failure,
        config,
        None,
    ))
}

/// Follows already-decoded events symbolically: from the program entry,
/// or — given `from` — from `program`'s symbolic warm start
/// ([`crate::instrument::InstrumentedProgram::symbolic_warm_start`]). The
/// caller must have verified that `events` starts with the warm prefix's
/// events ([`er_minilang::interp::WarmStart::prefix_matches`]).
pub fn shepherd_events(
    program: &Program,
    events: &[er_pt::TraceEvent],
    failure: Option<&Failure>,
    config: SymConfig,
    from: Option<MachineState>,
) -> ShepherdReport {
    let _span = er_telemetry::span!("shepherd.symbex");
    let start = Instant::now();
    let machine = match from {
        Some(state) => SymMachine::resume(program, config, state),
        None => SymMachine::new(program, config),
    };
    let run = machine.run(events, failure);
    ShepherdReport {
        run,
        wall: start.elapsed(),
    }
}

/// Why final input solving failed.
#[derive(Debug, Clone, PartialEq)]
pub enum SolveFailure {
    /// The solver stalled on the final query — treated like any other
    /// stall: select more data values and wait for a reoccurrence.
    Stall(StallReason),
    /// The path constraint is unsatisfiable (indicates an engine bug or a
    /// corrupted trace).
    Unsat,
}

/// Solves the run's path constraint (plus failure constraint) and extracts
/// concrete input streams.
///
/// The solve continues on the engine the symbolic machine handed over in
/// `run.solver`: `path + failure constraint` extends the prefix that engine
/// already lowered, so only the tail is new. The engine is consumed.
///
/// # Errors
///
/// Returns [`SolveFailure`] on a stall or an unsatisfiable path.
pub fn solve_inputs(
    run: &mut SymRunResult,
    budget: &Budget,
) -> Result<Vec<(u32, Vec<u8>)>, SolveFailure> {
    let _span = er_telemetry::span!("shepherd.solve");
    er_solver::cancel::begin_phase(er_solver::cancel::Phase::Solve);
    let assertions: Vec<_> = run
        .path
        .iter()
        .copied()
        .chain(run.failure_constraint)
        .collect();
    let mut engine = std::mem::take(&mut run.solver);
    if er_telemetry::enabled() {
        er_telemetry::counter!("solver.handoff_reused_clauses")
            .add(engine.reusable_clauses(&assertions, budget) as u64);
    }
    let model = match engine.check(&mut run.pool, &assertions, budget) {
        SatResult::Sat(m) => m,
        SatResult::Unsat => return Err(SolveFailure::Unsat),
        SatResult::Unknown(reason) => return Err(SolveFailure::Stall(reason)),
    };
    let mut streams: HashMap<u32, Vec<u8>> = HashMap::new();
    let mut recs = run.inputs.clone();
    recs.sort_by_key(|r| (r.source, r.offset));
    for rec in recs {
        let v = model.eval(&run.pool, rec.var);
        let stream = streams.entry(rec.source).or_default();
        debug_assert_eq!(stream.len(), rec.offset, "inputs are consumed in order");
        stream.extend_from_slice(&v.to_le_bytes()[..rec.width.bytes() as usize]);
    }
    let mut out: Vec<(u32, Vec<u8>)> = streams.into_iter().collect();
    out.sort_by_key(|(s, _)| *s);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use er_minilang::compile;
    use er_minilang::env::Env;
    use er_minilang::interp::{Machine, RunOutcome};
    use er_pt::sink::{PtConfig, PtSink};
    use er_symex::ShepherdStatus;

    #[test]
    fn shepherd_and_solve_end_to_end() {
        let program = compile(
            r#"
            fn main() {
                let a: u32 = input_u32(0);
                let b: u32 = input_u32(0);
                if a * b == 391 {
                    if a < b { abort("factored"); }
                }
            }
            "#,
        )
        .unwrap();
        let mut env = Env::new();
        env.push_input(0, &[17u32.to_le_bytes(), 23u32.to_le_bytes()].concat());
        let report = Machine::with_sink(&program, env, PtSink::new(PtConfig::default())).run();
        let RunOutcome::Failure(f) = report.outcome else {
            panic!("17 * 23 == 391 crashes")
        };
        let trace = report.sink.finish();
        let mut rep = shepherd(&program, &trace, Some(&f), SymConfig::default()).unwrap();
        assert_eq!(rep.run.status, ShepherdStatus::Completed);
        assert!(rep.run.stats.steps > 0);
        let inputs = solve_inputs(&mut rep.run, &Budget::default()).unwrap();
        // Verify the solved inputs crash identically.
        let mut env2 = Env::new();
        for (s, b) in &inputs {
            env2.push_input(*s, b);
        }
        let RunOutcome::Failure(f2) = Machine::new(&program, env2).run().outcome else {
            panic!("solved inputs must crash")
        };
        assert!(f2.same_failure(&f));
    }

    #[test]
    fn unsat_reported_when_constraints_contradict() {
        let program = compile(
            r#"
            fn main() {
                let a: u32 = input_u32(0);
                if a == 1 { abort("one"); }
            }
            "#,
        )
        .unwrap();
        let mut env = Env::new();
        env.push_input(0, &1u32.to_le_bytes());
        let report = Machine::with_sink(&program, env, PtSink::new(PtConfig::default())).run();
        let RunOutcome::Failure(f) = report.outcome else {
            panic!()
        };
        let trace = report.sink.finish();
        let mut rep = shepherd(&program, &trace, Some(&f), SymConfig::default()).unwrap();
        // Inject a contradiction.
        let fl = rep.run.pool.bool_const(false);
        rep.run.path.push(fl);
        assert_eq!(
            solve_inputs(&mut rep.run, &Budget::default()),
            Err(SolveFailure::Unsat)
        );
    }
}
