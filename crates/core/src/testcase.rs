//! Concrete test cases generated by ER and their replay verification.

use er_minilang::env::Env;
use er_minilang::error::Failure;
use er_minilang::interp::{Machine, RunOutcome, RunReport, SchedConfig, WarmStart};
use er_minilang::ir::Program;
use er_minilang::trace::NullSink;

/// A failure-reproducing test case: concrete inputs plus the schedule under
/// which the failure manifests.
///
/// Per the paper, "the generated test case may not include the same inputs
/// that caused the production failure, but is guaranteed to lead the
/// program along the same recorded control flow and reproduce the same
/// failure."
#[derive(Debug, Clone)]
pub struct TestCase {
    /// Input streams: `(source id, bytes)`.
    pub inputs: Vec<(u32, Vec<u8>)>,
    /// Scheduler configuration of the failing occurrence (the substrate's
    /// analogue of the paper's PT-timestamp-derived thread ordering).
    pub sched: SchedConfig,
    /// The production failure this test case reproduces (original program
    /// coordinates).
    pub expected: Failure,
}

impl TestCase {
    /// Builds the environment this test case describes.
    pub fn env(&self) -> Env {
        let mut env = Env::new();
        for (source, bytes) in &self.inputs {
            env.push_input(*source, bytes);
        }
        env
    }

    /// Replays the test case against the (uninstrumented) program and
    /// checks that it reproduces the expected failure.
    pub fn verify(&self, program: &Program) -> VerifyResult {
        self.verdict(
            Machine::new(program, self.env())
                .with_sched(self.sched)
                .run(),
        )
    }

    /// [`verify`](Self::verify), with the replay started from `warm`, a
    /// warm start of `program`, when the schedule's budget covers it. The
    /// prefix it skips reads no input, so the verdict is the same.
    pub fn verify_warm(&self, program: &Program, warm: Option<&WarmStart>) -> VerifyResult {
        match warm.and_then(|w| Machine::warm(program, w, self.env(), NullSink, self.sched)) {
            Some(machine) => self.verdict(machine.run()),
            None => self.verify(program),
        }
    }

    fn verdict(&self, report: RunReport<NullSink>) -> VerifyResult {
        match report.outcome {
            RunOutcome::Failure(f) if f.same_failure(&self.expected) => VerifyResult::Reproduced {
                instr_count: report.instr_count,
            },
            RunOutcome::Failure(f) => VerifyResult::DifferentFailure(f),
            RunOutcome::Completed => VerifyResult::NoFailure,
        }
    }

    /// Total input bytes across streams.
    pub fn input_bytes(&self) -> usize {
        self.inputs.iter().map(|(_, b)| b.len()).sum()
    }
}

/// Outcome of [`TestCase::verify`].
#[derive(Debug, Clone, PartialEq)]
pub enum VerifyResult {
    /// The same failure occurred at the same program point.
    Reproduced {
        /// Instructions executed during the replay.
        instr_count: u64,
    },
    /// A failure occurred, but not the expected one.
    DifferentFailure(Failure),
    /// The replay completed without failing.
    NoFailure,
}

impl VerifyResult {
    /// Whether the expected failure was reproduced.
    pub fn reproduced(&self) -> bool {
        matches!(self, VerifyResult::Reproduced { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use er_minilang::compile;

    #[test]
    fn verify_detects_reproduction_and_mismatch() {
        let program = compile(
            r#"
            fn main() {
                let a: u32 = input_u32(0);
                if a == 9 { abort("nine"); }
                print(a);
            }
            "#,
        )
        .unwrap();
        // Record the genuine failure.
        let mut env = Env::new();
        env.push_input(0, &9u32.to_le_bytes());
        let RunOutcome::Failure(f) = Machine::new(&program, env).run().outcome else {
            panic!()
        };
        let good = TestCase {
            inputs: vec![(0, 9u32.to_le_bytes().to_vec())],
            sched: SchedConfig::default(),
            expected: f.clone(),
        };
        assert!(good.verify(&program).reproduced());
        assert_eq!(good.input_bytes(), 4);

        let bad = TestCase {
            inputs: vec![(0, 8u32.to_le_bytes().to_vec())],
            sched: SchedConfig::default(),
            expected: f,
        };
        assert_eq!(bad.verify(&program), VerifyResult::NoFailure);

        // From a warm start, the same verdicts.
        let warm = WarmStart::capture(&program);
        assert!(warm.is_some());
        assert!(good.verify_warm(&program, warm.as_ref()).reproduced());
        assert_eq!(
            bad.verify_warm(&program, warm.as_ref()),
            VerifyResult::NoFailure
        );
    }
}
