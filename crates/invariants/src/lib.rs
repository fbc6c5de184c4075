//! Daikon/MIMIC-style likely-invariant inference and failure localization
//! (paper §5.4).
//!
//! MIMIC mines *likely invariants* — predicates observed to hold on every
//! successful execution — and, given a failing execution, reports the
//! invariants it violates as candidate root causes. The paper's case study
//! shows ER-reconstructed executions drive this analysis as well as the
//! real failing inputs do. This crate provides the Daikon-lite miner:
//!
//! * [`observe`] runs a program and captures function entry/exit
//!   observations (argument and return values);
//! * [`InvariantSet::mine`] infers unary (constant, range, nonzero) and
//!   binary (`a <= b`, `a == b`) invariants from passing runs;
//! * [`InvariantSet::violations`] checks a run's observations and reports
//!   what broke, ranked by observation point.
//!
//! # Example
//!
//! ```
//! use er_invariants::{observe, InvariantSet};
//! use er_minilang::compile;
//! use er_minilang::env::Env;
//!
//! let program = compile(
//!     "fn half(n: u64) -> u64 { return n / 2; }\n fn main() { print(half(input_u64(0))); }",
//! )?;
//! let run = |v: u64| {
//!     let mut env = Env::new();
//!     env.push_input(0, &v.to_le_bytes());
//!     observe(&program, env).1
//! };
//! let passing = vec![run(10), run(20), run(30)];
//! let invariants = InvariantSet::mine(&program, &passing);
//! let bad = run(1_000_000);
//! assert!(!invariants.violations(&bad).is_empty());
//! # Ok::<(), er_minilang::CompileError>(())
//! ```

use er_minilang::env::Env;
use er_minilang::interp::{Machine, RunOutcome, SchedConfig};
use er_minilang::ir::{FuncId, Program};
use er_minilang::trace::TraceSink;
use std::collections::HashMap;
use std::fmt;

/// Which side of a function an observation was taken at.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Point {
    /// Function entry: values are the arguments.
    Entry,
    /// Function exit: the single value is the return value.
    Exit,
}

/// One dynamic observation at a program point.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Observation {
    /// Observed function.
    pub func: FuncId,
    /// Entry or exit.
    pub point: Point,
    /// The observed values (arguments, or `[return value]`).
    pub values: Vec<u64>,
}

/// A [`TraceSink`] that captures entry/exit observations.
#[derive(Debug, Default)]
pub struct ObservationSink {
    /// Captured observations in order.
    pub observations: Vec<Observation>,
}

impl TraceSink for ObservationSink {
    fn call_args(&mut self, func: FuncId, args: &[u64]) {
        self.observations.push(Observation {
            func,
            point: Point::Entry,
            values: args.to_vec(),
        });
    }

    fn ret_value(&mut self, func: FuncId, value: u64) {
        self.observations.push(Observation {
            func,
            point: Point::Exit,
            values: vec![value],
        });
    }
}

/// Runs `program` under `env`, capturing observations.
pub fn observe(program: &Program, env: Env) -> (RunOutcome, Vec<Observation>) {
    observe_with_sched(program, env, SchedConfig::default())
}

/// [`observe`] with an explicit schedule (for reconstructed test cases).
pub fn observe_with_sched(
    program: &Program,
    env: Env,
    sched: SchedConfig,
) -> (RunOutcome, Vec<Observation>) {
    let report = Machine::with_sink(program, env, ObservationSink::default())
        .with_sched(sched)
        .run();
    (report.outcome, report.sink.observations)
}

/// A likely invariant over the values at one observation point.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Invariant {
    /// `values[slot] == value` on every passing run.
    Constant {
        /// Value index.
        slot: usize,
        /// The constant.
        value: u64,
    },
    /// `min <= values[slot] <= max` across passing runs.
    Range {
        /// Value index.
        slot: usize,
        /// Smallest observed value.
        min: u64,
        /// Largest observed value.
        max: u64,
    },
    /// `values[slot] != 0` on every passing run.
    NonZero {
        /// Value index.
        slot: usize,
    },
    /// `values[a] <= values[b]` on every passing run.
    Le {
        /// Left value index.
        a: usize,
        /// Right value index.
        b: usize,
    },
    /// `values[a] == values[b]` on every passing run.
    EqSlots {
        /// Left value index.
        a: usize,
        /// Right value index.
        b: usize,
    },
}

impl Invariant {
    /// Whether the invariant holds for `values`.
    pub fn holds(&self, values: &[u64]) -> bool {
        match *self {
            Invariant::Constant { slot, value } => values.get(slot) == Some(&value),
            Invariant::Range { slot, min, max } => {
                values.get(slot).is_some_and(|&v| (min..=max).contains(&v))
            }
            Invariant::NonZero { slot } => values.get(slot).is_some_and(|&v| v != 0),
            Invariant::Le { a, b } => match (values.get(a), values.get(b)) {
                (Some(&x), Some(&y)) => x <= y,
                _ => false,
            },
            Invariant::EqSlots { a, b } => match (values.get(a), values.get(b)) {
                (Some(&x), Some(&y)) => x == y,
                _ => false,
            },
        }
    }
}

impl fmt::Display for Invariant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Invariant::Constant { slot, value } => write!(f, "v{slot} == {value}"),
            Invariant::Range { slot, min, max } => write!(f, "{min} <= v{slot} <= {max}"),
            Invariant::NonZero { slot } => write!(f, "v{slot} != 0"),
            Invariant::Le { a, b } => write!(f, "v{a} <= v{b}"),
            Invariant::EqSlots { a, b } => write!(f, "v{a} == v{b}"),
        }
    }
}

/// A violated invariant, reported as a candidate root cause.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Function name.
    pub func_name: String,
    /// Observation point.
    pub point: Point,
    /// The violated invariant.
    pub invariant: Invariant,
    /// The witnessing values from the failing run.
    pub witness: Vec<u64>,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} @ {:?}: {} violated by {:?}",
            self.func_name, self.point, self.invariant, self.witness
        )
    }
}

/// Likely invariants mined from passing runs.
#[derive(Debug, Clone, Default)]
pub struct InvariantSet {
    by_point: HashMap<(FuncId, Point), Vec<Invariant>>,
    func_names: HashMap<FuncId, String>,
}

/// Mining options.
#[derive(Debug, Clone, Copy)]
pub struct MineOptions {
    /// Emit `Range` invariants. Daikon suppresses low-confidence
    /// invariants; with few passing runs, ranges over genuinely varying
    /// values are noise, so root-cause comparisons usually disable them.
    pub include_ranges: bool,
}

impl Default for MineOptions {
    fn default() -> Self {
        MineOptions {
            include_ranges: true,
        }
    }
}

impl InvariantSet {
    /// Mines invariants from the observations of several passing runs.
    pub fn mine(program: &Program, passing_runs: &[Vec<Observation>]) -> InvariantSet {
        Self::mine_with_options(program, passing_runs, MineOptions::default())
    }

    /// [`InvariantSet::mine`] with explicit [`MineOptions`].
    pub fn mine_with_options(
        program: &Program,
        passing_runs: &[Vec<Observation>],
        options: MineOptions,
    ) -> InvariantSet {
        // Group observations by point across all runs.
        let mut grouped: HashMap<(FuncId, Point), Vec<&[u64]>> = HashMap::new();
        for run in passing_runs {
            for obs in run {
                grouped
                    .entry((obs.func, obs.point))
                    .or_default()
                    .push(&obs.values);
            }
        }
        let mut by_point = HashMap::new();
        for (key, samples) in grouped {
            let Some(width) = samples.iter().map(|v| v.len()).min() else {
                continue;
            };
            let mut invs: Vec<Invariant> = Vec::new();
            for slot in 0..width {
                let col: Vec<u64> = samples.iter().map(|v| v[slot]).collect();
                let (min, max) = (
                    *col.iter().min().expect("nonempty"),
                    *col.iter().max().expect("nonempty"),
                );
                if min == max {
                    invs.push(Invariant::Constant { slot, value: min });
                } else if options.include_ranges {
                    invs.push(Invariant::Range { slot, min, max });
                }
                if col.iter().all(|&v| v != 0) {
                    invs.push(Invariant::NonZero { slot });
                }
            }
            for a in 0..width {
                for b in 0..width {
                    if a == b {
                        continue;
                    }
                    if samples.iter().all(|v| v[a] == v[b]) {
                        if a < b {
                            invs.push(Invariant::EqSlots { a, b });
                        }
                    } else if samples.iter().all(|v| v[a] <= v[b]) {
                        invs.push(Invariant::Le { a, b });
                    }
                }
            }
            by_point.insert(key, invs);
        }
        let func_names = program
            .funcs()
            .iter()
            .enumerate()
            .map(|(i, f)| (FuncId(i as u32), f.name.clone()))
            .collect();
        InvariantSet {
            by_point,
            func_names,
        }
    }

    /// Total invariants mined.
    pub fn len(&self) -> usize {
        self.by_point.values().map(Vec::len).sum()
    }

    /// Whether nothing was mined.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Checks a (failing) run's observations, reporting every violated
    /// invariant — MIMIC's candidate root causes.
    pub fn violations(&self, run: &[Observation]) -> Vec<Violation> {
        let mut out = Vec::new();
        let mut seen = std::collections::HashSet::new();
        for obs in run {
            let Some(invs) = self.by_point.get(&(obs.func, obs.point)) else {
                continue;
            };
            for inv in invs {
                if !inv.holds(&obs.values) && seen.insert((obs.func, obs.point, inv.clone())) {
                    out.push(Violation {
                        func_name: self
                            .func_names
                            .get(&obs.func)
                            .cloned()
                            .unwrap_or_else(|| format!("f{}", obs.func.0)),
                        point: obs.point,
                        invariant: inv.clone(),
                        witness: obs.values.clone(),
                    });
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use er_minilang::compile;
    use er_workloads::coreutils;

    #[test]
    fn mines_constants_ranges_and_relations() {
        let program = compile(
            r#"
            fn f(a: u64, b: u64) -> u64 { return a + b; }
            fn main() {
                let x: u64 = input_u64(0);
                print(f(x, x + 10));
            }
            "#,
        )
        .unwrap();
        let run = |v: u64| {
            let mut env = Env::new();
            env.push_input(0, &v.to_le_bytes());
            observe(&program, env).1
        };
        let passing = vec![run(1), run(5), run(9)];
        let invs = InvariantSet::mine(&program, &passing);
        assert!(!invs.is_empty());
        // a <= b always held (b = a + 10).
        let bad = run(u64::MAX - 3); // wraps: b < a
        let violations = invs.violations(&bad);
        assert!(
            violations
                .iter()
                .any(|v| matches!(v.invariant, Invariant::Le { .. })),
            "expected a <= b violation: {violations:?}"
        );
    }

    #[test]
    fn od_case_study_localizes_the_wrapped_length() {
        let program = coreutils::od_program();
        let passing: Vec<_> = coreutils::od_passing_envs()
            .into_iter()
            .map(|env| observe(&program, env).1)
            .collect();
        let invs = InvariantSet::mine(&program, &passing);
        let (outcome, failing) = observe(&program, coreutils::od_failing_env());
        assert!(matches!(outcome, RunOutcome::Failure(_)));
        let violations = invs.violations(&failing);
        assert!(!violations.is_empty(), "od violations expected");
        // The root cause surfaces at dump's entry: skip > len.
        assert!(
            violations.iter().any(|v| v.func_name == "dump"
                && v.point == Point::Entry
                && matches!(v.invariant, Invariant::Le { a: 1, b: 0 })),
            "skip <= len violation expected: {violations:#?}"
        );
    }

    #[test]
    fn pr_case_study_localizes_zero_columns() {
        let program = coreutils::pr_program();
        let passing: Vec<_> = coreutils::pr_passing_envs()
            .into_iter()
            .map(|env| observe(&program, env).1)
            .collect();
        let invs = InvariantSet::mine(&program, &passing);
        let (outcome, failing) = observe(&program, coreutils::pr_failing_env());
        assert!(matches!(outcome, RunOutcome::Failure(_)));
        let violations = invs.violations(&failing);
        assert!(
            violations.iter().any(|v| v.func_name == "layout"
                && matches!(v.invariant, Invariant::NonZero { slot: 1 })),
            "cols != 0 violation expected: {violations:#?}"
        );
    }

    #[test]
    fn passing_runs_have_no_violations() {
        let program = coreutils::pr_program();
        let passing: Vec<_> = coreutils::pr_passing_envs()
            .into_iter()
            .map(|env| observe(&program, env).1)
            .collect();
        let invs = InvariantSet::mine(&program, &passing);
        for run in &passing {
            assert!(invs.violations(run).is_empty());
        }
    }

    #[test]
    fn invariant_display_is_readable() {
        assert_eq!(Invariant::NonZero { slot: 1 }.to_string(), "v1 != 0");
        assert_eq!(
            Invariant::Range {
                slot: 0,
                min: 2,
                max: 9
            }
            .to_string(),
            "2 <= v0 <= 9"
        );
        assert_eq!(Invariant::Le { a: 1, b: 0 }.to_string(), "v1 <= v0");
    }
}
