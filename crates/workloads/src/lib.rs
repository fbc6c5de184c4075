//! The evaluation workloads: one mini-language program per Table-1 bug,
//! plus the coreutils programs for the §5.4 MIMIC case study.
//!
//! Each workload reproduces its paper counterpart's *bug class* and
//! *constraint-complexity regime* (see DESIGN.md §4): programs whose
//! failures resolve from control flow alone reproduce in one occurrence;
//! the others embed one or more "symbolic table stages" — a store through a
//! masked symbolic index followed by a branch on a symbolic read — each of
//! which costs one solver stall and therefore one additional failure
//! occurrence, mirroring the paper's iterative recording counts.
//!
//! # Example
//!
//! ```
//! use er_workloads::{by_name, Scale};
//!
//! let w = by_name("Libpng-2004-0597").expect("registered workload");
//! let deployment = w.deployment(Scale::TEST);
//! let report = er_core::Reconstructor::new(w.er_config()).reconstruct(&deployment);
//! assert!(report.reproduced());
//! assert_eq!(report.occurrences, w.expected_occurrences);
//! ```

mod apps;
pub mod coreutils;

use er_core::deploy::{Deployment, NextFailing, ReoccurrenceModel};
use er_core::reconstruct::ErConfig;
use er_minilang::env::Env;
use er_minilang::interp::SchedConfig;
use er_minilang::ir::Program;
use er_solver::solve::Budget;
use er_symex::SymConfig;

/// Workload size multiplier: how much bulk (non-bug) work each run does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale(pub u32);

impl Scale {
    /// Small inputs for unit/integration tests.
    pub const TEST: Scale = Scale(1);
    /// Full-size runs for Table 1 (hundreds of thousands to millions of
    /// dynamic instructions).
    pub const FULL: Scale = Scale(40);
}

/// A registered evaluation workload.
pub struct Workload {
    /// Table-1 identifier, e.g. `"PHP-2012-2386"`.
    pub name: &'static str,
    /// Application and version, e.g. `"PHP 5.3.6"`.
    pub app: &'static str,
    /// Bug class as reported in Table 1.
    pub bug_type: &'static str,
    /// Whether the program is multithreaded.
    pub multithreaded: bool,
    /// Occurrences ER needs (by construction; matches the paper's column).
    pub expected_occurrences: u32,
    /// Builds the program source at a given scale.
    pub source: fn(Scale) -> String,
    /// Production input distribution: run index to environment.
    pub input_gen: fn(u64) -> Env,
    /// Performance-benchmark inputs (non-failing; Fig. 6).
    pub perf_gen: fn(u64) -> Env,
    /// Per-run scheduler configuration (None: deployment default).
    pub sched_gen: Option<fn(u64) -> SchedConfig>,
    /// Exact failing-run predictor `(offset, period)`: runs fail iff
    /// `run % period == offset`. Only single-threaded workloads have one —
    /// their failures are a pure function of the input stream — and it
    /// enables deploy fast-forward without changing which runs fail.
    /// Multithreaded failures are schedule-dependent, so `None`: every run
    /// must actually execute.
    pub failure_phase: Option<(u64, u64)>,
}

impl std::fmt::Debug for Workload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Workload")
            .field("name", &self.name)
            .finish()
    }
}

impl Workload {
    /// Compiles the workload's program at `scale`.
    ///
    /// # Panics
    ///
    /// Panics if the embedded source fails to compile (a bug in this
    /// crate, caught by tests).
    pub fn program(&self, scale: Scale) -> Program {
        er_minilang::compile(&(self.source)(scale))
            .unwrap_or_else(|e| panic!("workload {} does not compile: {e}", self.name))
    }

    /// A simulated production deployment of this workload.
    pub fn deployment(&self, scale: Scale) -> Deployment {
        let d = Deployment::new(self.program(scale), self.input_gen);
        match self.sched_gen {
            Some(s) => d.with_sched(s),
            None => d,
        }
    }

    /// The reoccurrence model fleet runs use: fast-forward past
    /// predictably healthy runs where the workload has an exact failure
    /// period, scan otherwise.
    pub fn reoccurrence_model(&self, inter_arrival_ns: u64) -> ReoccurrenceModel {
        ReoccurrenceModel {
            inter_arrival_ns,
            fast_forward: self.failure_phase.is_some(),
            predictor: self
                .failure_phase
                .map(|(offset, period)| NextFailing::Periodic { offset, period }),
        }
    }

    /// A deployment with the fleet reoccurrence model attached: identical
    /// occurrence sequence to [`deployment`](Self::deployment), but healthy
    /// runs between failures are skipped instead of executed where the
    /// failure period is known.
    pub fn fleet_deployment(&self, scale: Scale, inter_arrival_ns: u64) -> Deployment {
        self.deployment(scale)
            .with_reoccurrence(self.reoccurrence_model(inter_arrival_ns))
    }

    /// The ER configuration used in the evaluation: a deterministic budget
    /// small enough that symbolic-table stages stall (the analogue of the
    /// paper's 30-second solver timeout).
    pub fn er_config(&self) -> ErConfig {
        ErConfig {
            sym: SymConfig {
                solver_budget: Budget {
                    max_conflicts: 20_000,
                    max_array_cells: 3_000,
                    max_clauses: 1_000_000,
                },
                max_steps: 500_000_000,
                always_concretize: false,
                ..SymConfig::default()
            },
            final_budget: Budget {
                max_conflicts: 200_000,
                max_array_cells: 3_000,
                max_clauses: 2_000_000,
            },
            max_occurrences: 24,
            max_runs_per_occurrence: 50_000,
            ..ErConfig::default()
        }
    }
}

/// All thirteen Table-1 workloads, in the paper's row order.
pub fn all() -> Vec<Workload> {
    vec![
        apps::php_2012_2386(),
        apps::php_74194(),
        apps::sqlite_7be932d(),
        apps::sqlite_787fa71(),
        apps::sqlite_4e8e485(),
        apps::nasm_2004_1287(),
        apps::objdump_2018_6323(),
        apps::matrixssl_2014_1569(),
        apps::memcached_2019_11596(),
        apps::libpng_2004_0597(),
        apps::bash_108885(),
        apps::python_2018_1000030(),
        apps::pbzip2_094(),
    ]
}

/// Looks up a workload by its Table-1 name.
pub fn by_name(name: &str) -> Option<Workload> {
    all().into_iter().find(|w| w.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_thirteen_compile_at_test_scale() {
        let ws = all();
        assert_eq!(ws.len(), 13);
        for w in &ws {
            let p = w.program(Scale::TEST);
            assert!(p.static_instr_count() > 0, "{} is empty", w.name);
        }
    }

    #[test]
    fn names_are_unique_and_match_paper_rows() {
        let ws = all();
        let names: Vec<&str> = ws.iter().map(|w| w.name).collect();
        assert_eq!(names.len(), 13);
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), 13);
        assert!(names.contains(&"Memcached-2019-11596"));
        assert!(names.contains(&"Pbzip2"));
    }

    #[test]
    fn expected_occurrences_average_matches_paper() {
        let ws = all();
        let total: u32 = ws.iter().map(|w| w.expected_occurrences).sum();
        let avg = f64::from(total) / 13.0;
        assert!(
            (3.0..4.0).contains(&avg),
            "paper reports ~3.5 average occurrences, got {avg}"
        );
        let single: usize = ws.iter().filter(|w| w.expected_occurrences == 1).count();
        assert_eq!(single, 2, "paper: 2/13 reproduce on first occurrence");
    }

    #[test]
    fn multithreaded_flags_match_table1() {
        let mt: Vec<&str> = all()
            .iter()
            .filter(|w| w.multithreaded)
            .map(|w| w.name)
            .collect();
        assert_eq!(
            mt,
            vec!["Memcached-2019-11596", "Python-2018-1000030", "Pbzip2"]
        );
    }

    #[test]
    fn perf_inputs_do_not_fail() {
        use er_minilang::interp::{Machine, RunOutcome};
        for w in all() {
            let p = w.program(Scale::TEST);
            for run in 0..3 {
                let env = (w.perf_gen)(run);
                let outcome = Machine::new(&p, env).run();
                assert!(
                    matches!(outcome.outcome, RunOutcome::Completed),
                    "{} perf run {run} failed: {:?}",
                    w.name,
                    outcome.outcome
                );
            }
        }
    }

    #[test]
    fn failure_kinds_match_table1_bug_types() {
        use er_core::instrument::InstrumentedProgram;
        use er_minilang::error::FailureKind;
        for w in all() {
            let d = w.deployment(Scale::TEST);
            let inst = InstrumentedProgram::unmodified(d.program());
            let occ = d
                .run_until_failure(&inst, None, 0, 2_000)
                .unwrap_or_else(|| panic!("{} must fail", w.name));
            let kind = occ.failure.fault.kind();
            let expected = match w.bug_type {
                "NULL pointer dereference" => FailureKind::NullDeref,
                "Use-after-free" => FailureKind::MemoryCorruption,
                // Overflows/overruns/corruptions are latent: the crash is
                // the downstream integrity check.
                _ => FailureKind::Assertion,
            };
            assert_eq!(kind, expected, "{}: {:?}", w.name, occ.failure.fault);
        }
    }

    #[test]
    fn table1_metadata_matches_paper_rows() {
        let expect: &[(&str, &str, u32)] = &[
            ("PHP-2012-2386", "Integer overflow", 6),
            ("PHP-74194", "Heap buffer overflow", 10),
            ("SQLite-7be932d", "NULL pointer dereference", 3),
            ("SQLite-787fa71", "Inconsistent data-structure", 4),
            ("SQLite-4e8e485", "NULL pointer dereference", 3),
            ("Nasm-2004-1287", "Stack buffer overrun", 3),
            ("Objdump-2018-6323", "Integer overflow", 3),
            ("Matrixssl-2014-1569", "Stack buffer overrun", 6),
            ("Memcached-2019-11596", "NULL pointer dereference", 2),
            ("Libpng-2004-0597", "Buffer overflow", 1),
            ("Bash-108885", "NULL pointer dereference", 1),
            ("Python-2018-1000030", "Shared data corruption", 2),
            ("Pbzip2", "Use-after-free", 2),
        ];
        let ws = all();
        for ((name, bug, occ), w) in expect.iter().zip(&ws) {
            assert_eq!(w.name, *name);
            assert_eq!(w.bug_type, *bug, "{name}");
            assert_eq!(w.expected_occurrences, *occ, "{name}");
        }
    }

    #[test]
    fn scale_changes_instruction_volume() {
        use er_core::instrument::InstrumentedProgram;
        let w = by_name("Objdump-2018-6323").unwrap();
        let count = |scale: Scale| {
            let d = w.deployment(scale);
            let inst = InstrumentedProgram::unmodified(d.program());
            d.run_until_failure(&inst, None, 0, 2_000)
                .unwrap()
                .instr_count
        };
        let small = count(Scale::TEST);
        let big = count(Scale(8));
        assert!(
            big > small * 4,
            "scale 8 should be much bigger: {small} vs {big}"
        );
    }

    #[test]
    fn failure_phase_predictors_are_exact() {
        // The predictor contract (deploy fast-forward) is that *every* run
        // it skips is healthy and every failing run lands on the period.
        // Scan the first 30 runs of each single-threaded workload and
        // compare the observed failing set against the declared phase.
        use er_minilang::interp::{Machine, RunOutcome};
        for w in all() {
            let Some((offset, period)) = w.failure_phase else {
                assert!(w.multithreaded, "{}: only MT workloads may omit", w.name);
                continue;
            };
            assert!(!w.multithreaded, "{}: MT failures are not periodic", w.name);
            let p = w.program(Scale::TEST);
            for run in 0..30u64 {
                let failed = matches!(
                    Machine::new(&p, (w.input_gen)(run)).run().outcome,
                    RunOutcome::Failure(_)
                );
                assert_eq!(
                    failed,
                    run % period == offset,
                    "{}: run {run} contradicts phase ({offset}, {period})",
                    w.name
                );
            }
        }
    }

    #[test]
    fn fleet_deployment_matches_plain_occurrences() {
        use er_core::instrument::InstrumentedProgram;
        let w = by_name("Libpng-2004-0597").unwrap();
        let plain = w.deployment(Scale::TEST);
        let fast = w.fleet_deployment(Scale::TEST, 1_000);
        let inst = InstrumentedProgram::unmodified(plain.program());
        let mut at = 0;
        for _ in 0..3 {
            let a = plain.run_until_failure(&inst, None, at, 1_000).unwrap();
            let b = fast.run_until_failure(&inst, None, at, 1_000).unwrap();
            assert_eq!(a.run_index, b.run_index);
            assert_eq!(a.trace.stats.bytes, b.trace.stats.bytes);
            at = a.run_index + 1;
        }
    }

    #[test]
    fn production_inputs_eventually_fail() {
        use er_core::instrument::InstrumentedProgram;
        for w in all() {
            let d = w.deployment(Scale::TEST);
            let inst = InstrumentedProgram::unmodified(d.program());
            let occ = d.run_until_failure(&inst, None, 0, 2_000);
            assert!(occ.is_some(), "{} never fails in 2000 runs", w.name);
        }
    }
}
