//! The simulated production deployment (paper Fig. 2, left half).
//!
//! A [`Deployment`] owns the original program and a model of its production
//! workload: an input generator indexed by run number (different users send
//! different requests) and a per-run schedule (different machines interleave
//! threads differently). ER runs the *instrumented* program under always-on
//! PT tracing until the target failure reoccurs.

use crate::instrument::InstrumentedProgram;
use er_minilang::env::Env;
use er_minilang::error::Failure;
use er_minilang::interp::{Machine, RunOutcome, SchedConfig};
use er_minilang::ir::Program;
use er_pt::sink::{PtConfig, PtSink, PtStats, PtTrace};

/// One observed production failure with its shipped runtime trace.
#[derive(Debug)]
pub struct FailureOccurrence {
    /// Failure identity in *original* program coordinates.
    pub failure: Failure,
    /// Failure identity in the instrumented program's coordinates (what
    /// shepherded symbolic execution must match).
    pub failure_instrumented: Failure,
    /// The runtime trace shipped to the analysis engine.
    pub trace: PtTrace,
    /// Which production run failed (0-based).
    pub run_index: u64,
    /// Scheduler configuration of the failing run.
    pub sched: SchedConfig,
    /// Dynamic instructions of the failing run (Table 1's `#Instr`).
    pub instr_count: u64,
    /// Online tracing counters for the failing run.
    pub pt_stats: PtStats,
}

/// Where the next failing run comes from, relative to a run cursor.
///
/// A predictor is an *exactness* contract: every run it skips is guaranteed
/// failure-free. Single-threaded Table-1 workloads fail on a fixed period
/// of their input stream, so their predictors are exact; multithreaded
/// workloads (schedule-dependent failures) get no predictor and fall back
/// to scanning every run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NextFailing {
    /// Runs fail exactly when `run % period == offset`.
    Periodic {
        /// Failing residue.
        offset: u64,
        /// Period of the failing-input pattern.
        period: u64,
    },
}

impl NextFailing {
    /// The smallest *possibly failing* run at or after `from`.
    pub fn next(&self, from: u64) -> u64 {
        match *self {
            NextFailing::Periodic { offset, period } => {
                debug_assert!(period > 0 && offset < period);
                let rem = from % period;
                if rem <= offset {
                    from + (offset - rem)
                } else {
                    from + period - rem + offset
                }
            }
        }
    }
}

/// How often failures reoccur in production, and whether the simulator may
/// skip the guaranteed-healthy runs in between.
///
/// The paper treats the wait for a reoccurrence as free (the fleet absorbs
/// it); a simulator that *executes* every healthy run serializes on it
/// instead (the wall-time domination noted in PR 2). `fast_forward` plus an
/// exact [`NextFailing`] predictor removes that cost without changing which
/// runs fail, which traces ship, or what gets reconstructed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReoccurrenceModel {
    /// Simulated inter-arrival time between production runs (drives the
    /// `deploy.sim_wait_ns` counter and fleet time-to-repro accounting).
    pub inter_arrival_ns: u64,
    /// Skip runs the predictor proves healthy instead of executing them.
    pub fast_forward: bool,
    /// Which runs can fail; `None` means every run must be executed.
    pub predictor: Option<NextFailing>,
}

impl Default for ReoccurrenceModel {
    fn default() -> Self {
        ReoccurrenceModel {
            inter_arrival_ns: 1_000_000, // 1 ms between production runs
            fast_forward: false,
            predictor: None,
        }
    }
}

impl ReoccurrenceModel {
    /// Simulated timestamp at which run `run` completes.
    pub fn sim_ns_for_run(&self, run: u64) -> u64 {
        (run + 1).saturating_mul(self.inter_arrival_ns)
    }
}

/// A simulated production environment for one application.
///
/// Generators are `Send + Sync` so one deployment can serve many concurrent
/// fleet instances (see `er-fleet`).
pub struct Deployment {
    program: Program,
    input_gen: Box<dyn Fn(u64) -> Env + Send + Sync>,
    sched_gen: Box<dyn Fn(u64) -> SchedConfig + Send + Sync>,
    pt_config: PtConfig,
    reoccurrence: ReoccurrenceModel,
}

impl std::fmt::Debug for Deployment {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Deployment")
            .field("funcs", &self.program.funcs.len())
            .finish_non_exhaustive()
    }
}

impl Deployment {
    /// A deployment of `program` whose run `k` receives `input_gen(k)`.
    pub fn new(program: Program, input_gen: impl Fn(u64) -> Env + Send + Sync + 'static) -> Self {
        Deployment {
            program,
            input_gen: Box::new(input_gen),
            sched_gen: Box::new(|run| SchedConfig {
                quantum: 1_000,
                seed: run + 1,
                max_instrs: 500_000_000,
            }),
            pt_config: PtConfig::default(),
            reoccurrence: ReoccurrenceModel::default(),
        }
    }

    /// Overrides the per-run scheduler configuration.
    pub fn with_sched(
        mut self,
        sched_gen: impl Fn(u64) -> SchedConfig + Send + Sync + 'static,
    ) -> Self {
        self.sched_gen = Box::new(sched_gen);
        self
    }

    /// Overrides the PT configuration (e.g. ring-buffer size).
    pub fn with_pt_config(mut self, config: PtConfig) -> Self {
        self.pt_config = config;
        self
    }

    /// Overrides the reoccurrence inter-arrival model.
    pub fn with_reoccurrence(mut self, model: ReoccurrenceModel) -> Self {
        self.reoccurrence = model;
        self
    }

    /// The reoccurrence model in effect.
    pub fn reoccurrence(&self) -> ReoccurrenceModel {
        self.reoccurrence
    }

    /// The original (uninstrumented) program.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// The environment production run `k` would receive.
    pub fn env_for(&self, run: u64) -> Env {
        (self.input_gen)(run)
    }

    /// The schedule production run `k` would use.
    pub fn sched_for(&self, run: u64) -> SchedConfig {
        (self.sched_gen)(run)
    }

    /// Executes one production run of `inst` under PT tracing.
    pub fn run_once(&self, inst: &InstrumentedProgram, run: u64) -> (RunOutcome, PtTrace, u64) {
        let env = self.env_for(run);
        let sched = self.sched_for(run);
        let report = Machine::with_sink(&inst.program, env, PtSink::new(self.pt_config))
            .with_sched(sched)
            .run();
        // Batched per run, like the `pt.*` counters the sink flushes.
        er_telemetry::counter!("deploy.instrs").add(report.instr_count);
        (report.outcome, report.sink.finish(), report.instr_count)
    }

    /// Executes one *unmonitored* production run (tracing disabled — the
    /// paper's §3.1 option of enabling tracing only after a failure has
    /// been observed several times).
    pub fn run_once_untraced(&self, inst: &InstrumentedProgram, run: u64) -> (RunOutcome, u64) {
        let env = self.env_for(run);
        let sched = self.sched_for(run);
        let report = Machine::new(&inst.program, env).with_sched(sched).run();
        (report.outcome, report.instr_count)
    }

    /// Fast-forward: the next run at or after `run` worth executing. Runs
    /// in between are proven healthy by the predictor and are skipped
    /// (counted, and charged simulated waiting time, but never executed).
    fn skip_healthy(&self, run: u64, end: u64) -> u64 {
        let next = match (self.reoccurrence.fast_forward, self.reoccurrence.predictor) {
            (true, Some(p)) => p.next(run).min(end),
            _ => run,
        };
        if next > run {
            er_telemetry::counter!("deploy.runs_skipped").add(next - run);
            er_telemetry::counter!("deploy.sim_wait_ns")
                .add((next - run).saturating_mul(self.reoccurrence.inter_arrival_ns));
        }
        next
    }

    /// Waits (without tracing) until a failure matching `target` occurs;
    /// returns the failing run index and the failure in original
    /// coordinates.
    pub fn observe_failure_untraced(
        &self,
        inst: &InstrumentedProgram,
        target: Option<&Failure>,
        start_run: u64,
        max_runs: u64,
    ) -> Option<(u64, Failure)> {
        let end = start_run.saturating_add(max_runs);
        let mut run = start_run;
        while run < end {
            run = self.skip_healthy(run, end);
            if run >= end {
                break;
            }
            let (outcome, _) = self.run_once_untraced(inst, run);
            er_telemetry::counter!("deploy.sim_wait_ns").add(self.reoccurrence.inter_arrival_ns);
            if let RunOutcome::Failure(f) = outcome {
                let original = inst.failure_to_original(&f);
                if target.is_none_or(|t| original.same_failure(t)) {
                    return Some((run, original));
                }
            }
            run += 1;
        }
        None
    }

    /// Runs production until a failure occurs that matches `target` (any
    /// failure if `target` is `None`), starting at `start_run` and giving
    /// up after `max_runs` runs.
    pub fn run_until_failure(
        &self,
        inst: &InstrumentedProgram,
        target: Option<&Failure>,
        start_run: u64,
        max_runs: u64,
    ) -> Option<FailureOccurrence> {
        let end = start_run.saturating_add(max_runs);
        let mut run = start_run;
        while run < end {
            run = self.skip_healthy(run, end);
            if run >= end {
                break;
            }
            let (outcome, mut trace, instr_count) = self.run_once(inst, run);
            er_telemetry::counter!("deploy.runs").incr();
            er_telemetry::counter!("deploy.sim_wait_ns").add(self.reoccurrence.inter_arrival_ns);
            if let RunOutcome::Failure(f) = outcome {
                er_telemetry::counter!("deploy.failures").incr();
                let original = inst.failure_to_original(&f);
                if target.is_none_or(|t| original.same_failure(t)) {
                    // Fault injection tampers with the shipped trace only
                    // (never the healthy runs in between), modeling ring
                    // corruption between the CPU and the crash handler.
                    trace.chaos_tamper();
                    let pt_stats = trace.stats;
                    return Some(FailureOccurrence {
                        failure: original,
                        failure_instrumented: f,
                        trace,
                        run_index: run,
                        sched: self.sched_for(run),
                        instr_count,
                        pt_stats,
                    });
                }
            }
            run += 1;
        }
        None
    }
}

/// A stream of failure occurrences for one investigation — the abstraction
/// that lets [`crate::Reconstructor`] consume failures from a single
/// simulated deployment *or* from a fleet of instances (`er-fleet`) without
/// knowing which.
pub trait FailureSource {
    /// The original (uninstrumented) program under investigation.
    fn program(&self) -> &Program;

    /// Blocks (in simulation terms) until the next failure matching
    /// `target` occurs on an instance running `inst`, and ships its trace.
    /// `None` means the source gave up waiting.
    fn next_occurrence(
        &mut self,
        inst: &InstrumentedProgram,
        target: Option<&Failure>,
    ) -> Option<FailureOccurrence>;

    /// Like [`next_occurrence`](Self::next_occurrence) but unmonitored
    /// (tracing off) — the warmup posture of paper §3.1. Returns the
    /// failing run index and the failure in original coordinates.
    fn next_untraced(
        &mut self,
        inst: &InstrumentedProgram,
        target: Option<&Failure>,
    ) -> Option<(u64, Failure)>;
}

/// The single-deployment [`FailureSource`]: a cursor over one simulated
/// production run stream.
pub struct DeploymentSource<'a> {
    deployment: &'a Deployment,
    next_run: u64,
    max_runs_per_wait: u64,
}

impl<'a> DeploymentSource<'a> {
    /// A source scanning `deployment` from run 0, giving up on any single
    /// wait after `max_runs_per_wait` runs.
    pub fn new(deployment: &'a Deployment, max_runs_per_wait: u64) -> Self {
        DeploymentSource {
            deployment,
            next_run: 0,
            max_runs_per_wait,
        }
    }

    /// The next run index the source would execute.
    pub fn cursor(&self) -> u64 {
        self.next_run
    }
}

impl FailureSource for DeploymentSource<'_> {
    fn program(&self) -> &Program {
        self.deployment.program()
    }

    fn next_occurrence(
        &mut self,
        inst: &InstrumentedProgram,
        target: Option<&Failure>,
    ) -> Option<FailureOccurrence> {
        let occ = self.deployment.run_until_failure(
            inst,
            target,
            self.next_run,
            self.max_runs_per_wait,
        )?;
        self.next_run = occ.run_index + 1;
        Some(occ)
    }

    fn next_untraced(
        &mut self,
        inst: &InstrumentedProgram,
        target: Option<&Failure>,
    ) -> Option<(u64, Failure)> {
        let (run, failure) = self.deployment.observe_failure_untraced(
            inst,
            target,
            self.next_run,
            self.max_runs_per_wait,
        )?;
        self.next_run = run + 1;
        Some((run, failure))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use er_minilang::compile;

    fn deployment() -> Deployment {
        let program = compile(
            r#"
            fn main() {
                let a: u32 = input_u32(0);
                if a % 5 == 3 { abort("mod5"); }
                print(a);
            }
            "#,
        )
        .unwrap();
        Deployment::new(program, |run| {
            let mut env = Env::new();
            env.push_input(0, &(run as u32).to_le_bytes());
            env
        })
    }

    #[test]
    fn waits_for_matching_failure() {
        let d = deployment();
        let inst = InstrumentedProgram::unmodified(d.program());
        let occ = d.run_until_failure(&inst, None, 0, 100).unwrap();
        assert_eq!(occ.run_index, 3, "run 3 is the first with a%5==3");
        assert!(occ.instr_count > 0);
        assert!(occ.pt_stats.branches > 0);
        // The next occurrence of the same failure.
        let occ2 = d
            .run_until_failure(&inst, Some(&occ.failure), occ.run_index + 1, 100)
            .unwrap();
        assert_eq!(occ2.run_index, 8);
        assert!(occ2.failure.same_failure(&occ.failure));
    }

    #[test]
    fn gives_up_when_no_failure() {
        let program = compile("fn main() { print(1); }").unwrap();
        let d = Deployment::new(program, |_| Env::new());
        let inst = InstrumentedProgram::unmodified(d.program());
        assert!(d.run_until_failure(&inst, None, 0, 10).is_none());
    }

    #[test]
    fn periodic_predictor_finds_next_failing_run() {
        let p = NextFailing::Periodic {
            offset: 3,
            period: 5,
        };
        assert_eq!(p.next(0), 3);
        assert_eq!(p.next(3), 3);
        assert_eq!(p.next(4), 8);
        assert_eq!(p.next(8), 8);
        assert_eq!(p.next(9), 13);
    }

    #[test]
    fn fast_forward_is_occurrence_exact() {
        // The mod-5 deployment fails exactly when run % 5 == 3, so the
        // periodic predictor is exact: fast-forwarding must yield the same
        // occurrence sequence as scanning every run.
        let scan = deployment();
        let fast = deployment().with_reoccurrence(ReoccurrenceModel {
            inter_arrival_ns: 500,
            fast_forward: true,
            predictor: Some(NextFailing::Periodic {
                offset: 3,
                period: 5,
            }),
        });
        let inst = InstrumentedProgram::unmodified(scan.program());
        let mut at = 0;
        for _ in 0..4 {
            let a = scan.run_until_failure(&inst, None, at, 100).unwrap();
            let b = fast.run_until_failure(&inst, None, at, 100).unwrap();
            assert_eq!(a.run_index, b.run_index);
            assert_eq!(a.trace.bytes, b.trace.bytes);
            assert_eq!(a.instr_count, b.instr_count);
            at = a.run_index + 1;
        }
    }

    #[test]
    fn fast_forward_respects_run_budget() {
        let fast = deployment().with_reoccurrence(ReoccurrenceModel {
            inter_arrival_ns: 500,
            fast_forward: true,
            predictor: Some(NextFailing::Periodic {
                offset: 3,
                period: 5,
            }),
        });
        let inst = InstrumentedProgram::unmodified(fast.program());
        // Budget of 3 runs starting at 0 never reaches run 3.
        assert!(fast.run_until_failure(&inst, None, 0, 3).is_none());
        assert!(fast.run_until_failure(&inst, None, 0, 4).is_some());
    }

    #[test]
    fn deployment_source_advances_cursor() {
        let d = deployment();
        let inst = InstrumentedProgram::unmodified(d.program());
        let mut src = DeploymentSource::new(&d, 100);
        let occ = src.next_occurrence(&inst, None).unwrap();
        assert_eq!(occ.run_index, 3);
        assert_eq!(src.cursor(), 4);
        let (run, failure) = src.next_untraced(&inst, Some(&occ.failure)).unwrap();
        assert_eq!(run, 8);
        assert!(failure.same_failure(&occ.failure));
        assert_eq!(src.cursor(), 9);
    }
}
