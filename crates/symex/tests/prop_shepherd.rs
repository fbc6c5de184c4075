//! Property test for the headline guarantee: for randomly generated
//! input-dependent failures, shepherded symbolic execution plus constraint
//! solving yields inputs that replay to the *same* failure.

use er_minilang::compile;
use er_minilang::env::Env;
use er_minilang::interp::{Machine, RunOutcome};
use er_pt::sink::{PtConfig, PtSink};
use er_solver::inc::IncrementalSolver;
use er_solver::solve::{Budget, SatResult};
use er_symex::{ShepherdStatus, SymConfig, SymMachine};
use proptest::prelude::*;
use std::collections::HashMap;

/// One step of a random arithmetic pipeline over the accumulator and a
/// fresh input word.
#[derive(Debug, Clone)]
enum Step {
    Add,
    Xor,
    Mul3,
    Shr(u8),
    Mask(u32),
}

fn step() -> impl Strategy<Value = Step> {
    prop_oneof![
        Just(Step::Add),
        Just(Step::Xor),
        Just(Step::Mul3),
        (1u8..8).prop_map(Step::Shr),
        (0xffu32..0xffff).prop_map(Step::Mask),
    ]
}

/// Builds a program that folds `steps.len()` input words into an
/// accumulator and crashes iff the result equals a magic constant.
fn build_source(steps: &[Step]) -> String {
    let mut body = String::from("    let acc: u32 = 1;\n");
    for (i, s) in steps.iter().enumerate() {
        body.push_str(&format!("    let v{i}: u32 = input_u32(0);\n"));
        let update = match s {
            Step::Add => format!("acc + v{i}"),
            Step::Xor => format!("acc ^ v{i}"),
            Step::Mul3 => format!("acc * 3 + v{i}"),
            Step::Shr(k) => format!("(acc >> {k}) + v{i}"),
            Step::Mask(m) => format!("(acc & {m}) ^ v{i}"),
        };
        body.push_str(&format!("    acc = {update};\n"));
    }
    format!(
        "fn main() {{\n{body}    if acc == @MAGIC@ {{\n        abort(\"pipeline hit\");\n    }}\n    print(acc);\n}}\n"
    )
}

/// Runs the pipeline concretely in Rust to find the accumulator the given
/// inputs produce (so the generated magic makes the program crash).
fn reference(steps: &[Step], inputs: &[u32]) -> u32 {
    let mut acc: u32 = 1;
    for (s, &v) in steps.iter().zip(inputs) {
        acc = match s {
            Step::Add => acc.wrapping_add(v),
            Step::Xor => acc ^ v,
            Step::Mul3 => acc.wrapping_mul(3).wrapping_add(v),
            Step::Shr(k) => (acc >> k).wrapping_add(v),
            Step::Mask(m) => (acc & m) ^ v,
        };
    }
    acc
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The reconstruction guarantee on random arithmetic pipelines.
    #[test]
    fn generated_inputs_reproduce_random_failures(
        steps in prop::collection::vec(step(), 1..6),
        inputs in prop::collection::vec(any::<u32>(), 6),
    ) {
        let inputs = &inputs[..steps.len()];
        let magic = reference(&steps, inputs);
        let src = build_source(&steps).replace("@MAGIC@", &magic.to_string());
        let program = compile(&src).unwrap();

        // Production run: crashes by construction.
        let mut env = Env::new();
        for v in inputs {
            env.push_input(0, &v.to_le_bytes());
        }
        let report = Machine::with_sink(&program, env, PtSink::new(PtConfig::default())).run();
        let RunOutcome::Failure(failure) = report.outcome else {
            return Err(TestCaseError::fail("production run must crash"));
        };
        let events = report.sink.finish().decode().unwrap().events;

        // Shepherd + solve.
        let mut run = SymMachine::new(&program, SymConfig::default()).run(&events, Some(&failure));
        prop_assert_eq!(&run.status, &ShepherdStatus::Completed);
        let assertions: Vec<_> = run.path.iter().copied().chain(run.failure_constraint).collect();
        let SatResult::Sat(model) =
            IncrementalSolver::new().check(&mut run.pool, &assertions, &Budget::default())
        else {
            return Err(TestCaseError::fail("path must be satisfiable"));
        };
        let mut streams: HashMap<u32, Vec<u8>> = HashMap::new();
        let mut recs = run.inputs.clone();
        recs.sort_by_key(|r| (r.source, r.offset));
        for rec in recs {
            let v = model.eval(&run.pool, rec.var);
            streams
                .entry(rec.source)
                .or_default()
                .extend_from_slice(&v.to_le_bytes()[..rec.width.bytes() as usize]);
        }

        // Replay: the generated inputs must hit the same failure.
        let mut env2 = Env::new();
        for (s, b) in &streams {
            env2.push_input(*s, b);
        }
        let replay = Machine::new(&program, env2).run();
        let RunOutcome::Failure(f2) = replay.outcome else {
            return Err(TestCaseError::fail("generated inputs must crash"));
        };
        prop_assert!(f2.same_failure(&failure));
    }
}
