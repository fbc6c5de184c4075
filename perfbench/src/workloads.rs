//! The benchmark's workloads. Each is a closed loop with one client: the
//! next failure investigation starts when the previous one returns.
//!
//! * `repro-mix` — the thirteen Table-1 failures, reconstructed in a
//!   seeded order through the serial loop. Production is scanned run by
//!   run, so every layer (deployment under tracing, decode, symbolic
//!   execution, solving, selection, re-instrumentation) is on the path,
//!   and 11 of 13 failures need several occurrences.
//! * `deep-solve` — 64 generated programs whose failure hides behind
//!   symbolic tables and a hash inversion, reconstructed with a generous
//!   solver budget: one occurrence, no selection, solver-bound.
//! * `fleet-stream` — the Table-1 failures streamed from a fleet of
//!   mirrored instances through ingestion, the content-addressed trace
//!   store, triage and the reconstruction scheduler, with healthy runs
//!   fast-forwarded where the failure period is known.
//!
//! The seed draws the order of every pass over the cases, the production
//! run each investigation starts watching from, and the `deep-solve`
//! programs; the mix of failures is the same for every seed.

use crate::deep::{self, DeepProgram};
use er_core::deploy::{Deployment, NextFailing, ReoccurrenceModel};
use er_core::instrument::InstrumentedProgram;
use er_core::reconstruct::ErConfig;
use er_core::testcase::VerifyResult;
use er_core::{ReconstructionReport, Reconstructor};
use er_fleet::sim::{Fleet, FleetConfig, FleetSpec, Traffic};
use er_minilang::env::Env;
use er_minilang::error::Failure;
use er_minilang::interp::SchedConfig;
use er_minilang::ir::Program;
use er_solver::solve::Budget;
use er_workloads::{Scale, Workload};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Instances in the `fleet-stream` fleet; every occurrence reaches the
/// ingest queue once per instance.
const FLEET_INSTANCES: usize = 4;
/// Production runs between two failing requests are simulated this far
/// apart (ns) by the fleet's reoccurrence model.
const INTER_ARRIVAL_NS: u64 = 1_000;
/// Generated programs compiled per `deep-solve` set-up and cycled through.
const DEEP_PROGRAMS: u64 = 64;
/// Production runs an investigation may wait for one occurrence.
const MAX_RUNS: u64 = 50_000;

/// The workload names `--workload` accepts.
pub const NAMES: [&str; 3] = ["repro-mix", "deep-solve", "fleet-stream"];

/// One finished investigation as the benchmark saw it.
pub struct Sample {
    /// Wall time of the investigation, from the first production run
    /// watched to the verified test case.
    pub latency: Duration,
    /// Failure occurrences the investigation consumed.
    pub occurrences: u32,
    /// Whether the result passed the benchmark's own checks.
    pub ok: bool,
}

/// A failure to investigate with its oracle.
struct Case {
    name: &'static str,
    program: Program,
    input: Arc<dyn Fn(u64) -> Env + Send + Sync>,
    sched: Option<Arc<dyn Fn(u64) -> SchedConfig + Send + Sync>>,
    /// `(offset, period)`: runs fail iff `run % period == offset`.
    failure_phase: Option<(u64, u64)>,
    config: ErConfig,
    /// Occurrences the investigation must consume, when known.
    occurrences: Option<u32>,
    /// The failure production shows, observed directly by the benchmark.
    expected: Option<Failure>,
}

impl Case {
    fn table1(w: &Workload) -> Case {
        let input = w.input_gen;
        Case {
            name: w.name,
            program: w.program(Scale::TEST),
            input: Arc::new(input),
            sched: w.sched_gen.map(|s| {
                let s: Arc<dyn Fn(u64) -> SchedConfig + Send + Sync> = Arc::new(s);
                s
            }),
            failure_phase: w.failure_phase,
            config: w.er_config(),
            // A schedule the symbolic executor cannot follow costs a
            // multithreaded investigation another occurrence, so only
            // single-threaded counts are exact.
            occurrences: (!w.multithreaded).then_some(w.expected_occurrences),
            expected: None,
        }
    }

    fn deep(key: u64) -> Case {
        let generated = DeepProgram::generate(key);
        let program = er_minilang::compile(&generated.source)
            .unwrap_or_else(|e| panic!("generated program does not compile: {e}"));
        let mut config = ErConfig::default();
        // Generous enough that no query stalls: the solver, not another
        // occurrence, resolves every constraint.
        let deep_budget = Budget {
            max_conflicts: 2_000_000,
            max_array_cells: 1_000_000,
            max_clauses: 8_000_000,
        };
        config.sym.solver_budget = deep_budget;
        config.final_budget = deep_budget;
        Case {
            name: "deep-solve",
            program,
            input: Arc::new(move |run| generated.input(run)),
            sched: None,
            failure_phase: Some((deep::PERIOD - 1, deep::PERIOD)),
            config,
            occurrences: Some(1),
            expected: None,
        }
    }

    /// The production stream shifted to start at run `offset`.
    fn deployment(&self, offset: u64) -> Deployment {
        let input = self.input.clone();
        let d = Deployment::new(self.program.clone(), move |run| input(run + offset));
        match &self.sched {
            Some(s) => {
                let s = s.clone();
                d.with_sched(move |run| s(run + offset))
            }
            None => d,
        }
    }

    /// Records the failure the unshifted stream produces first.
    fn observe_oracle(&mut self) {
        let d = self.deployment(0);
        let inst = InstrumentedProgram::unmodified(&self.program);
        let occ = d
            .run_until_failure(&inst, None, 0, MAX_RUNS)
            .unwrap_or_else(|| panic!("{}: production never fails", self.name));
        self.expected = Some(occ.failure);
    }

    /// Whether `report` is a verified reproduction of this case's failure;
    /// a mismatch is reported on stderr.
    fn check(&self, report: &ReconstructionReport, offset: u64) -> bool {
        let expected = self.expected.as_ref().expect("oracle observed in set-up");
        let problem = match report.outcome.test_case() {
            None => Some(format!("gave up: {:?}", report.outcome)),
            Some(tc) if !tc.expected.same_failure(expected) => {
                Some(format!("reproduced another failure: {}", tc.expected))
            }
            Some(tc) => match tc.verify(&self.program) {
                VerifyResult::Reproduced { .. } => self
                    .occurrences
                    .filter(|&n| n != report.occurrences)
                    .map(|n| format!("took {} occurrences, expected {n}", report.occurrences)),
                other => Some(format!("test case does not replay: {other:?}")),
            },
        };
        if let Some(problem) = &problem {
            eprintln!("check failed: {} at offset {offset}: {problem}", self.name);
        }
        problem.is_none()
    }

    /// One serial investigation of the stream starting at `offset`.
    fn reconstruct(&self, offset: u64) -> Sample {
        let deployment = self.deployment(offset);
        let start = Instant::now();
        let report = Reconstructor::new(self.config).reconstruct(&deployment);
        let latency = start.elapsed();
        Sample {
            latency,
            occurrences: report.occurrences,
            ok: self.check(&report, offset),
        }
    }

    /// One fleet investigation of the stream starting at `offset`.
    fn fleet(&self, offset: u64) -> Sample {
        let input = self.input.clone();
        let mut reoccurrence = ReoccurrenceModel {
            inter_arrival_ns: INTER_ARRIVAL_NS,
            ..ReoccurrenceModel::default()
        };
        if let Some((phase, period)) = self.failure_phase {
            reoccurrence.fast_forward = true;
            reoccurrence.predictor = Some(NextFailing::Periodic {
                offset: (phase + period - offset % period) % period,
                period,
            });
        }
        let spec = FleetSpec {
            program: self.program.clone(),
            input_gen: Arc::new(move |run| input(run + offset)),
            sched_gen: self.sched.clone().map(|s| {
                let s: Arc<dyn Fn(u64) -> SchedConfig + Send + Sync> =
                    Arc::new(move |run| s(run + offset));
                s
            }),
            pt: er_pt::PtConfig::default(),
            reoccurrence,
            er: self.config,
            label: self.name.to_string(),
        };
        let fleet = Fleet::new(
            spec,
            FleetConfig {
                instances: FLEET_INSTANCES,
                traffic: Traffic::Mirrored,
                ..FleetConfig::default()
            },
        );
        let start = Instant::now();
        let report = fleet.run();
        let latency = start.elapsed();
        let ok = match report.groups.as_slice() {
            [only] => self.check(&only.report, offset),
            groups => {
                eprintln!(
                    "check failed: {} at offset {offset}: {} failure groups",
                    self.name,
                    groups.len()
                );
                false
            }
        };
        Sample {
            latency,
            occurrences: report.groups.iter().map(|g| g.report.occurrences).sum(),
            ok,
        }
    }
}

/// A workload's prepared inputs: built in set-up, then investigated
/// until the run's time is up.
pub struct Plan {
    /// Investigate through the fleet rather than the serial loop.
    fleet: bool,
    cases: Vec<Case>,
    rng: u64,
    /// Cases in the current pass, in the order still to run.
    queue: Vec<usize>,
}

impl Plan {
    /// Compiles the workload's programs: the work `setup_s` times.
    pub fn set_up(workload: &str, seed: u64) -> Option<Plan> {
        let table1 = || er_workloads::all().iter().map(Case::table1).collect();
        let (fleet, cases) = match workload {
            "repro-mix" => (false, table1()),
            "deep-solve" => (
                false,
                (0..DEEP_PROGRAMS)
                    .map(|i| Case::deep(deep::mix(seed ^ deep::mix(i))))
                    .collect(),
            ),
            "fleet-stream" => (true, table1()),
            _ => return None,
        };
        Some(Plan {
            fleet,
            cases,
            rng: deep::mix(seed),
            queue: Vec::new(),
        })
    }

    /// Observes every case's failure once, outside any timed region.
    pub fn observe_oracles(&mut self) {
        for case in &mut self.cases {
            case.observe_oracle();
        }
    }

    fn draw(&mut self) -> u64 {
        self.rng = deep::mix(self.rng);
        self.rng
    }

    /// Runs the next investigation. Passes visit every case once, in a
    /// seeded order.
    pub fn next(&mut self) -> Sample {
        if self.queue.is_empty() {
            self.queue = (0..self.cases.len()).collect();
            for i in (1..self.queue.len()).rev() {
                let j = (self.draw() % (i as u64 + 1)) as usize;
                self.queue.swap(i, j);
            }
        }
        let case = self.queue.pop().expect("queue refilled above");
        // Each investigation watches production from a seeded run on.
        let offset = self.draw() % (1 << 20);
        let case = &self.cases[case];
        if self.fleet {
            case.fleet(offset)
        } else {
            case.reconstruct(offset)
        }
    }
}
