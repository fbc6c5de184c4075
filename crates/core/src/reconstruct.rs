//! The iterative reconstruction driver (paper Fig. 2 and §3.3.4).
//!
//! Each iteration waits for the failure to reoccur in the deployment,
//! shepherds symbolic execution along the shipped trace, and either solves
//! for a concrete test case or — on a stall — selects key data values,
//! instruments the program, and redeploys. The loop is guaranteed to make
//! progress because every iteration concretizes at least the newly recorded
//! values; it gives up only on divergence or after `max_occurrences`.

use crate::deploy::{Deployment, FailureOccurrence};
use crate::graph::ConstraintGraph;
use crate::instrument::InstrumentedProgram;
use crate::select::{self, RecordingSet, SelectionInput, SelectorKind};
use crate::shepherd::{self, SolveFailure};
use crate::testcase::{TestCase, VerifyResult};
use er_minilang::error::Failure;
use er_minilang::interp::SchedConfig;
use er_minilang::ir::{InstrId, Program};
use er_pt::TraceEvent;
use er_solver::solve::Budget;
use er_symex::{MachineState, ShepherdStatus, SymConfig, TraceDivergence};
use er_telemetry::counters::Handle;
use std::sync::Arc;
use std::time::Duration;

/// Configuration of the reconstruction loop.
#[derive(Debug, Clone, Copy)]
pub struct ErConfig {
    /// Shepherded-symbolic-execution configuration (per-query budget).
    pub sym: SymConfig,
    /// Budget for the final input solve.
    pub final_budget: Budget,
    /// Maximum failure occurrences to harvest before giving up.
    pub max_occurrences: u32,
    /// Maximum production runs to wait for each reoccurrence.
    pub max_runs_per_occurrence: u64,
    /// Data-value selection strategy.
    pub selector: SelectorKind,
}

impl Default for ErConfig {
    fn default() -> Self {
        ErConfig {
            sym: SymConfig::default(),
            final_budget: Budget::default(),
            max_occurrences: 16,
            max_runs_per_occurrence: 50_000,
            selector: SelectorKind::KeyValue,
        }
    }
}

/// Why reconstruction gave up.
#[derive(Debug, Clone, PartialEq)]
pub enum GiveUpReason {
    /// The deployment never produced (a reoccurrence of) the failure.
    NoFailureObserved,
    /// `max_occurrences` exhausted while still stalling.
    OccurrenceLimit,
    /// Shepherded execution disagreed with the trace.
    Diverged(TraceDivergence),
    /// The path constraint was unsatisfiable.
    Unsat,
    /// The trace could not be decoded.
    TraceDecode(String),
    /// A stall occurred but selection produced no new site to record.
    NothingToRecord,
    /// The generated test case failed replay verification.
    VerificationFailed,
    /// The watchdog cancelled this session's iterations until its
    /// escalation ladder was exhausted — every retry, each with a larger
    /// phase budget, tripped again.
    WatchdogExhausted {
        /// The phase whose budget tripped on the final attempt.
        phase: &'static str,
        /// Escalations spent before giving up.
        escalations: u32,
    },
}

/// Final outcome of a reconstruction.
#[derive(Debug)]
pub enum Outcome {
    /// A verified failure-reproducing test case.
    Reproduced(TestCase),
    /// Reconstruction failed.
    GaveUp(GiveUpReason),
}

impl Outcome {
    /// The test case, if reproduction succeeded.
    pub fn test_case(&self) -> Option<&TestCase> {
        match self {
            Outcome::Reproduced(tc) => Some(tc),
            Outcome::GaveUp(_) => None,
        }
    }
}

/// Per-iteration statistics (feeds Table 1 and §5.3).
#[derive(Debug, Clone)]
pub struct IterationStats {
    /// 1-based occurrence number.
    pub occurrence: u32,
    /// Which production run failed.
    pub run_index: u64,
    /// Dynamic instructions in the failing run.
    pub instr_count: u64,
    /// Trace bytes shipped.
    pub trace_bytes: u64,
    /// Wall-clock time of shepherded symbolic execution.
    pub symbex_wall: Duration,
    /// Instructions symbolically executed.
    pub symbex_steps: u64,
    /// The trace event the shepherd started at: 0 from the entry, else
    /// the cursor of the binary's symbolic warm start.
    pub start_cursor: usize,
    /// Solver work units expended.
    pub solver_work: u64,
    /// Stall description, if the iteration stalled.
    pub stalled: Option<String>,
    /// Constraint-graph node count at analysis time.
    pub graph_nodes: usize,
    /// Longest symbolic write chain observed.
    pub longest_chain: u64,
    /// Sites selected for the next iteration.
    pub sites_selected: usize,
    /// Projected recording cost (bytes/run) of the cumulative set.
    pub recorded_bytes: u64,
    /// Newly selected sites.
    pub new_sites: Vec<InstrId>,
}

/// The full reconstruction record.
#[derive(Debug)]
pub struct ReconstructionReport {
    /// Outcome.
    pub outcome: Outcome,
    /// Failure occurrences consumed (Table 1's `#Occur`).
    pub occurrences: u32,
    /// Per-iteration details.
    pub iterations: Vec<IterationStats>,
    /// The target failure, once observed.
    pub target: Option<Failure>,
}

impl ReconstructionReport {
    /// Whether a verified test case was produced.
    pub fn reproduced(&self) -> bool {
        matches!(self.outcome, Outcome::Reproduced(_))
    }

    /// Total shepherded-symbolic-execution wall time (Table 1's "Symbex
    /// Time"): every shepherded run logs one iteration.
    pub fn total_symbex(&self) -> Duration {
        self.iterations.iter().map(|it| it.symbex_wall).sum()
    }
}

/// Metadata of one failure occurrence, minus the trace itself. The fleet
/// path decodes each trace at ingest and stores its events compressed, so
/// the session accepts `(OccurrenceInfo, events)` instead of a raw
/// [`FailureOccurrence`].
#[derive(Debug, Clone, PartialEq)]
pub struct OccurrenceInfo {
    /// Which production run failed.
    pub run_index: u64,
    /// Dynamic instructions of the failing run.
    pub instr_count: u64,
    /// Trace bytes shipped (before compression).
    pub trace_bytes: u64,
    /// Scheduler configuration of the failing run.
    pub sched: SchedConfig,
    /// Failure identity.
    pub failure: Failure,
}

impl OccurrenceInfo {
    /// The metadata of `occ`.
    pub fn of(occ: &FailureOccurrence) -> Self {
        OccurrenceInfo {
            run_index: occ.run_index,
            instr_count: occ.instr_count,
            trace_bytes: occ.trace.stats.bytes,
            sched: occ.sched,
            failure: occ.failure.clone(),
        }
    }
}

/// What a [`ReconstructionSession`] needs next after consuming an
/// occurrence.
///
/// `Done` carries the full report inline: it is constructed once per
/// session, so boxing it would buy nothing.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
pub enum SessionStep {
    /// Feed another occurrence, produced by
    /// [`ReconstructionSession::binary`].
    NeedOccurrence {
        /// The recording set grew and the session rebuilt its binary:
        /// occurrences produced by the previous binary are stale, and
        /// instances must roll out the new one before collecting.
        reinstrumented: bool,
    },
    /// Terminal: reconstruction finished (reproduced or gave up).
    Done(ReconstructionReport),
}

/// One failure investigation, resumable between occurrences.
///
/// This is the per-failure-group state the fleet scheduler parks between
/// reoccurrences: the accumulated recording set and the binary that
/// records it, the target failure, the iteration log, and the run cursor.
/// [`consume`](Self::consume) runs exactly one iteration of the paper's
/// loop on an occurrence produced by [`binary`](Self::binary); the serial
/// driver ([`Reconstructor::reconstruct`]) is a thin wrapper that deploys
/// that binary from [`next_run`](Self::next_run) and feeds its failures
/// back.
///
/// The session owns its binary: it starts as the unmodified program and is
/// rebuilt, with a `ptwrite` after every recorded site, exactly when an
/// iteration grows the recording set (the step then reports
/// `reinstrumented`). Callers only lend it out to the deployment: the
/// binary sits behind an `Arc`, so a fleet shares it with the threads that
/// run it, and cloning a session never copies it.
#[derive(Debug, Clone)]
pub struct ReconstructionSession {
    config: ErConfig,
    /// The unmodified program, as the first occurrence's binary:
    /// verification replays test cases from its warm start.
    original: Arc<InstrumentedProgram>,
    sites: Vec<InstrId>,
    binary: Arc<InstrumentedProgram>,
    target: Option<Failure>,
    iterations: Vec<IterationStats>,
    occurrences: u32,
    next_run: u64,
}

impl ReconstructionSession {
    /// A fresh investigation of `program`.
    pub fn new(config: ErConfig, program: Program) -> Self {
        Self::with_original(config, Arc::new(InstrumentedProgram::unmodified(&program)))
    }

    /// A fresh investigation whose first occurrences run `original`, an
    /// unmodified binary shared with whoever else deploys it (a fleet's
    /// baseline), so verification reuses that binary's warm start.
    ///
    /// # Panics
    ///
    /// If `original` records any site.
    pub fn with_original(config: ErConfig, original: Arc<InstrumentedProgram>) -> Self {
        assert!(
            original.sites.is_empty(),
            "the original binary records nothing"
        );
        ReconstructionSession {
            config,
            binary: Arc::clone(&original),
            original,
            sites: Vec::new(),
            target: None,
            iterations: Vec::new(),
            occurrences: 0,
            next_run: 0,
        }
    }

    /// The original (uninstrumented) program.
    pub fn program(&self) -> &Program {
        &self.original.program
    }

    /// The target failure, once one has been observed.
    pub fn target(&self) -> Option<&Failure> {
        self.target.as_ref()
    }

    /// Occurrences consumed so far.
    pub fn occurrences(&self) -> u32 {
        self.occurrences
    }

    /// The first production run not yet consumed: the last consumed
    /// occurrence's run index + 1 (0 before the first). Earlier runs, and
    /// later deliveries of consumed ones, are stale.
    pub fn next_run(&self) -> u64 {
        self.next_run
    }

    /// The accumulated recording set.
    pub fn sites(&self) -> &[InstrId] {
        &self.sites
    }

    /// How many iterations stalled so far — the "how much more data does
    /// this group still need" signal the fleet scheduler prioritizes by.
    pub fn stall_depth(&self) -> u32 {
        self.iterations
            .iter()
            .filter(|it| it.stalled.is_some())
            .count() as u32
    }

    /// Whether another occurrence may still be consumed.
    pub fn wants_more(&self) -> bool {
        self.occurrences < self.config.max_occurrences
    }

    /// The binary the deployment must run for the next occurrence: the
    /// program recording every site of [`sites`](Self::sites) that defines
    /// a value.
    pub fn binary(&self) -> &Arc<InstrumentedProgram> {
        &self.binary
    }

    /// Consumes one traced occurrence, produced by [`binary`](Self::binary):
    /// decodes the trace and runs one iteration of the reconstruction loop.
    pub fn consume(&mut self, occ: FailureOccurrence) -> SessionStep {
        let info = OccurrenceInfo::of(&occ);
        let decoded = {
            let _s = er_telemetry::span!("shepherd.decode");
            occ.trace.decode()
        };
        match decoded {
            Ok(d) => self.consume_events(info, d.events),
            Err(e) => self.note_undecodable(info, e.to_string()),
        }
    }

    /// Consumes an occurrence whose trace could not be decoded — the fleet
    /// ingestion path reports these without shipping events. A corrupt or
    /// truncated trace costs one occurrence, not the investigation: the
    /// failure will reoccur (the reoccurrence hypothesis of §3.1) and the
    /// next trace may decode. Only when the occurrence budget is spent does
    /// the session close with [`GiveUpReason::TraceDecode`].
    pub fn note_undecodable(&mut self, info: OccurrenceInfo, error: String) -> SessionStep {
        self.occurrences += 1;
        self.next_run = info.run_index + 1;
        self.target.get_or_insert(info.failure);
        self.retry_or_close(
            er_telemetry::counter!("reconstruct.retry.undecodable"),
            GiveUpReason::TraceDecode(error),
        )
    }

    /// Like [`consume`](Self::consume), but on pre-decoded events — the
    /// fleet ingestion path decodes with [`er_pt::PtTrace::decode`], as
    /// `consume` does, stores the events compressed, and hands the worker
    /// [`er_pt::compress::decompress_events`] of them, the same events.
    pub fn consume_events(&mut self, info: OccurrenceInfo, events: Vec<TraceEvent>) -> SessionStep {
        self.occurrences += 1;
        self.next_run = info.run_index + 1;
        let occurrence = self.occurrences;
        self.target.get_or_insert(info.failure.clone());

        let from = self.start_state(&events);
        let start_cursor = from.as_ref().map_or(0, MachineState::cursor);
        er_solver::cancel::begin_phase(er_solver::cancel::Phase::Shepherd);
        let report = shepherd::shepherd_events(
            &self.binary.program,
            &events,
            Some(&info.failure),
            self.config.sym,
            from,
        );
        let mut run = report.run;
        let mut stats = IterationStats {
            occurrence,
            run_index: info.run_index,
            instr_count: info.instr_count,
            trace_bytes: info.trace_bytes,
            symbex_wall: report.wall,
            // The run's own accounting: a warm-started run counts only the
            // work after the warm prefix, exactly what the symex.steps and
            // solver.work_units counters receive for this shepherd span.
            symbex_steps: run.stats.steps,
            start_cursor,
            solver_work: run.stats.work_units,
            stalled: None,
            graph_nodes: run.pool.len(),
            longest_chain: run.longest_chain,
            sites_selected: 0,
            recorded_bytes: 0,
            new_sites: Vec::new(),
        };

        let stalled = match &run.status {
            ShepherdStatus::Completed => {
                match shepherd::solve_inputs(&mut run, &self.config.final_budget) {
                    Ok(inputs) => {
                        let tc = TestCase {
                            inputs,
                            sched: info.sched,
                            expected: self.target.clone().expect("target set"),
                        };
                        let verify =
                            tc.verify_warm(&self.original.program, self.original.warm_start());
                        self.iterations.push(stats);
                        if matches!(verify, VerifyResult::Reproduced { .. }) {
                            return SessionStep::Done(self.report(Outcome::Reproduced(tc)));
                        }
                        // A non-reproducing test case means the solved
                        // inputs exercised a schedule- or trace-sensitive
                        // path; another occurrence may verify.
                        return self.retry_or_close(
                            er_telemetry::counter!("reconstruct.retry.verification"),
                            GiveUpReason::VerificationFailed,
                        );
                    }
                    Err(SolveFailure::Stall(reason)) => format!("final solve: {reason}"),
                    Err(SolveFailure::Unsat) => {
                        // Unsat from the final solve usually means the
                        // occurrence's trace (or an injected stall budget)
                        // over-constrained the path; the next occurrence
                        // solves a fresh constraint set.
                        stats.stalled = Some("final solve: unsat".to_string());
                        self.iterations.push(stats);
                        return self.retry_or_close(
                            er_telemetry::counter!("reconstruct.retry.unsat"),
                            GiveUpReason::Unsat,
                        );
                    }
                }
            }
            ShepherdStatus::Stalled { reason, at } => format!("{reason} at {at}"),
            ShepherdStatus::Diverged(d) => {
                // Most divergences come from interleavings finer than
                // the chunk order can express (§3.4). The paper's remedy
                // is the iterative loop itself: wait for the failure to
                // reoccur — the next occurrence's schedule may satisfy
                // the coarse-interleaving hypothesis.
                stats.stalled = Some(format!("diverged: {d:?}"));
                self.iterations.push(stats);
                return self.need_more();
            }
        };
        stats.stalled = Some(stalled);

        // Key data value selection on the constraint graph.
        let set = {
            let _s = er_telemetry::span!("phase.select");
            er_solver::cancel::begin_phase(er_solver::cancel::Phase::Select);
            // Selection cost scales with the constraint graph; bill it up
            // front in pool-node units. A trip here surfaces through the
            // supervisor's post-iteration check, not mid-selection.
            er_solver::cancel::tick(run.pool.len() as u64);
            self.select(&run, occurrence)
        };
        let new_sites: Vec<InstrId> = set
            .site_ids()
            .into_iter()
            .filter(|s| !self.sites.contains(s))
            .collect();
        stats.sites_selected = new_sites.len();
        stats.recorded_bytes = set.total_cost();
        stats.new_sites = new_sites.clone();
        self.iterations.push(stats);
        if new_sites.is_empty() {
            // Selection found nothing new to record for *this* stall; a
            // different occurrence (schedule, inputs) may stall elsewhere
            // and yield fresh sites, so spend the budget before giving up.
            return self.retry_or_close(
                er_telemetry::counter!("reconstruct.retry.nothing_to_record"),
                GiveUpReason::NothingToRecord,
            );
        }
        if !self.wants_more() {
            // No occurrence would run a rebuilt binary.
            return SessionStep::Done(self.give_up(GiveUpReason::OccurrenceLimit));
        }
        self.sites.extend(new_sites);
        self.sites.sort_unstable();
        self.sites.dedup();
        self.binary = {
            let _s = er_telemetry::span!("phase.instrument");
            if er_telemetry::enabled() {
                er_telemetry::counter!("instrument.rebuilds").incr();
                er_telemetry::counter!("instrument.sites_requested").add(self.sites.len() as u64);
            }
            Arc::new(InstrumentedProgram::rebuild(&self.original, &self.sites))
        };
        SessionStep::NeedOccurrence {
            reinstrumented: true,
        }
    }

    /// The state the shepherd of `events` on the current binary starts
    /// from: the binary's symbolic warm start, if the trace starts with the
    /// warm prefix's events and goes on past them. `None`, the entry, when
    /// the binary has no warm prefix or the trace does not start with its
    /// events (a wrapped ring or a tampered trace, which the cold shepherd
    /// then judges).
    fn start_state(&self, events: &[TraceEvent]) -> Option<MachineState> {
        let binary = &*self.binary;
        let warm = binary.symbolic_warm_start()?;
        let start = binary
            .warm_start()
            .expect("a symbolic warm start has a warm start");
        // A trace that ends with the prefix's events ends before the ops
        // that lead up to the pause, where a cold shepherd may already
        // conclude.
        if events.len() <= start.events() || !start.prefix_matches(events) {
            er_telemetry::counter!("symex.warm_fallbacks").incr();
            return None;
        }
        if binary.check_symbolic_warm() {
            let cold = MachineState::shepherded(&binary.program, events, start.instrs());
            assert_eq!(
                warm.mismatch(&cold),
                None,
                "a symbolic warm start is the cold shepherd's state at the pause"
            );
        }
        if er_telemetry::enabled() {
            er_telemetry::counter!("symex.warm_starts").incr();
            er_telemetry::counter!("symex.warm_steps").add(start.instrs());
        }
        Some(warm.clone())
    }

    /// Asks for another occurrence while the budget lasts — a corrupt
    /// trace, an unverified or unsat solve, or an empty selection costs one
    /// occurrence, not the investigation — counting the retry on `retry`.
    /// Once the budget is spent, closes with `reason`.
    fn retry_or_close(&mut self, retry: Handle, reason: GiveUpReason) -> SessionStep {
        if self.wants_more() {
            retry.incr();
            return SessionStep::NeedOccurrence {
                reinstrumented: false,
            };
        }
        SessionStep::Done(self.report(Outcome::GaveUp(reason)))
    }

    /// Either asks for another occurrence or, at the occurrence limit,
    /// closes the investigation exactly like the serial loop's exit.
    fn need_more(&mut self) -> SessionStep {
        if self.wants_more() {
            SessionStep::NeedOccurrence {
                reinstrumented: false,
            }
        } else {
            SessionStep::Done(self.give_up(GiveUpReason::OccurrenceLimit))
        }
    }

    /// Closes the investigation unsuccessfully (e.g. the source stopped
    /// producing occurrences). The session is spent afterwards.
    pub fn give_up(&mut self, reason: GiveUpReason) -> ReconstructionReport {
        self.report(Outcome::GaveUp(reason))
    }

    fn report(&mut self, outcome: Outcome) -> ReconstructionReport {
        ReconstructionReport {
            outcome,
            occurrences: self.occurrences,
            iterations: std::mem::take(&mut self.iterations),
            target: self.target.clone(),
        }
    }

    fn select(&self, run: &er_symex::SymRunResult, occurrence: u32) -> RecordingSet {
        let site_counts: select::SiteCountMap = run.site_counts.iter().collect();
        let input = SelectionInput {
            pool: &run.pool,
            origins: &run.origins,
            site_counts: &site_counts,
        };
        let graph = ConstraintGraph::analyze(&run.pool);
        // The stalled query's subject always joins the element set: the
        // value whose resolution timed out is by definition worth knowing.
        let mut elements: Vec<er_solver::ExprRef> =
            graph.bottleneck.iter().map(|b| b.expr).collect();
        elements.extend(run.stall_subject);
        let mut key = select::select_from_elements(&elements, &input);
        if key.is_empty() {
            // Stall-site fallback: no write chains to blame, so seed
            // selection with the symbolic operands of the path constraints.
            let mut elements: Vec<er_solver::ExprRef> = Vec::new();
            for &c in &run.path {
                for child in crate::graph::children(&run.pool, c) {
                    if run.pool.as_const(child).is_none() {
                        elements.push(child);
                    }
                }
            }
            elements.sort_unstable();
            elements.dedup();
            key = select::select_from_elements(&elements, &input);
        }
        match self.config.selector {
            SelectorKind::KeyValue => key,
            SelectorKind::Random { seed } => {
                // The ablation records the *same amount of data*, chosen
                // randomly from the graph (paper §5.2); a fresh draw each
                // occurrence, like re-instrumenting with new random values.
                select::select_random(
                    &input,
                    key.total_cost().max(1),
                    seed.wrapping_add(u64::from(occurrence).wrapping_mul(0x9e37_79b9)),
                )
            }
        }
    }
}

/// The ER analysis engine.
#[derive(Debug, Clone, Default)]
pub struct Reconstructor {
    config: ErConfig,
}

impl Reconstructor {
    /// An engine with the given configuration.
    pub fn new(config: ErConfig) -> Self {
        Reconstructor { config }
    }

    /// Reconstructs the first failure the deployment produces.
    pub fn reconstruct(&self, deployment: &Deployment) -> ReconstructionReport {
        let _span = er_telemetry::span!("reconstruct");
        let mut session = ReconstructionSession::new(self.config, deployment.program().clone());
        loop {
            if !session.wants_more() {
                return session.give_up(GiveUpReason::OccurrenceLimit);
            }
            let _iter_span = er_telemetry::span!("reconstruct.iteration");
            let deployed = {
                let _s = er_telemetry::span!("phase.deploy");
                deployment.run_until_failure(
                    session.binary(),
                    session.target(),
                    session.next_run(),
                    self.config.max_runs_per_occurrence,
                )
            };
            let Some(occ) = deployed else {
                return session.give_up(GiveUpReason::NoFailureObserved);
            };
            if let SessionStep::Done(report) = session.consume(occ) {
                return report;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use er_minilang::compile;
    use er_minilang::env::Env;
    use std::sync::Arc;

    fn deploy(src: &str, input_gen: impl Fn(u64) -> Env + Send + Sync + 'static) -> Deployment {
        Deployment::new(compile(src).unwrap(), input_gen)
    }

    #[test]
    fn single_occurrence_reproduction() {
        // Purely control-flow-determined failure: one occurrence suffices.
        let d = deploy(
            r#"
            fn main() {
                let a: u32 = input_u32(0);
                if a * 3 == 21 { abort("boom"); }
                print(a);
            }
            "#,
            |run| {
                let mut env = Env::new();
                env.push_input(0, &(run as u32).to_le_bytes());
                env
            },
        );
        let report = Reconstructor::default().reconstruct(&d);
        assert!(report.reproduced(), "outcome: {:?}", report.outcome);
        assert_eq!(report.occurrences, 1);
        let tc = report.outcome.test_case().unwrap();
        assert_eq!(tc.inputs[0].1, 7u32.to_le_bytes().to_vec());
    }

    /// A paper-style aliasing bug over a large object: trace-only symbex
    /// stalls under a small budget; recorded key values fix it. Masked
    /// indexing keeps containment provable so the write chain forms.
    /// Failures occur when `i == j`, on every run `r` with `r % 7 == 3`.
    fn aliasing_deployment() -> Deployment {
        let src = r#"
            global TBL: [u64; 2048];
            fn main() {
                let a: u64 = input_u64(0);
                let b: u64 = input_u64(0);
                let i: u64 = a & 2047;
                let j: u64 = b & 2047;
                TBL[i] = 41;
                if TBL[j] == 41 { abort("aliased"); }
                print(i);
            }
        "#;
        deploy(src, |run| {
            let mut env = Env::new();
            let a = run * 13 + 5;
            let b = if run % 7 == 3 { a } else { a + 1 };
            env.push_input(0, &a.to_le_bytes());
            env.push_input(0, &b.to_le_bytes());
            env
        })
    }

    fn stalling_config() -> ErConfig {
        ErConfig {
            sym: SymConfig {
                solver_budget: Budget::small(),
                max_steps: 50_000_000,
                always_concretize: false,
                ..SymConfig::default()
            },
            final_budget: Budget::small(),
            ..ErConfig::default()
        }
    }

    #[test]
    fn iterative_reconstruction_with_stalls() {
        let d = aliasing_deployment();
        let report = Reconstructor::new(stalling_config()).reconstruct(&d);
        assert!(report.reproduced(), "outcome: {:?}", report.outcome);
        assert!(
            report.occurrences >= 2,
            "expected at least one stall iteration, got {}",
            report.occurrences
        );
        assert!(report.iterations[0].stalled.is_some());
        assert!(report.iterations[0].sites_selected > 0);
        assert!(report.iterations[0].longest_chain > 0);
        // Each wait resumes after the previous failing run, and every
        // iteration analyzed a run the production inputs make fail.
        let runs: Vec<u64> = report.iterations.iter().map(|it| it.run_index).collect();
        assert!(runs.windows(2).all(|w| w[0] < w[1]), "runs {runs:?}");
        for &run in &runs {
            let outcome = er_minilang::interp::Machine::new(d.program(), d.env_for(run))
                .with_sched(d.sched_for(run))
                .run()
                .outcome;
            assert!(
                matches!(outcome, er_minilang::interp::RunOutcome::Failure(_)),
                "run {run} does not fail: {outcome:?}"
            );
        }
    }

    #[test]
    fn session_rebuilds_its_binary_only_when_reinstrumenting() {
        let d = aliasing_deployment();
        let mut session = ReconstructionSession::new(stalling_config(), d.program().clone());
        assert!(Arc::ptr_eq(
            session.binary().program.code(),
            session.program().code()
        ));
        let (mut next_run, mut rebuilds) = (0, 0);
        let report = loop {
            let occ = d
                .run_until_failure(session.binary(), session.target(), next_run, 100)
                .expect("the failure reoccurs");
            next_run = occ.run_index + 1;
            let before = Arc::clone(session.binary().program.code());
            let step = session.consume(occ);
            assert_eq!(session.binary().sites, session.sites());
            let same = Arc::ptr_eq(&before, session.binary().program.code());
            match step {
                SessionStep::NeedOccurrence {
                    reinstrumented: true,
                } => {
                    assert!(!same, "reinstrumenting rebuilds the binary");
                    rebuilds += 1;
                }
                SessionStep::NeedOccurrence {
                    reinstrumented: false,
                } => assert!(same, "no new sites, same binary"),
                SessionStep::Done(report) => {
                    assert!(same, "a closing step does not rebuild");
                    break report;
                }
            }
        };
        assert!(report.reproduced(), "outcome: {:?}", report.outcome);
        assert!(rebuilds > 0, "the investigation must stall at least once");
        assert!(!session.sites().is_empty());
    }

    #[test]
    fn occurrence_limit_closes_before_rebuilding_the_binary() {
        // The one occurrence the budget allows stalls and selects sites,
        // but no occurrence would run a binary recording them.
        let d = aliasing_deployment();
        let config = ErConfig {
            max_occurrences: 1,
            ..stalling_config()
        };
        let mut session = ReconstructionSession::new(config, d.program().clone());
        let occ = d
            .run_until_failure(session.binary(), None, 0, 100)
            .expect("the failure occurs");
        let run = occ.run_index;
        let SessionStep::Done(report) = session.consume(occ) else {
            panic!("the occurrence budget is spent");
        };
        assert!(matches!(
            report.outcome,
            Outcome::GaveUp(GiveUpReason::OccurrenceLimit)
        ));
        assert!(report.iterations[0].stalled.is_some());
        assert!(!report.iterations[0].new_sites.is_empty());
        assert!(session.binary().sites.is_empty(), "no rebuild");
        assert!(Arc::ptr_eq(
            session.binary().program.code(),
            session.program().code()
        ));
        assert_eq!(session.next_run(), run + 1);
    }

    #[test]
    fn flipped_prefix_branch_falls_back_to_the_cold_shepherd() {
        // A trace whose first branch inside the warm prefix is flipped
        // does not start with the prefix's events: the session shepherds
        // it from the entry, and ends where the cold shepherd ends.
        let _l = er_telemetry::counters::test_mutex()
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let d = deploy(
            r#"
            fn main() {
                let h: u64 = 1;
                for k: u64 = 0; k < 50; k = k + 1 {
                    if (h & 1) == 1 { h = h * 3 + 1; } else { h = h / 2 + k; }
                }
                if input_u64(0) == 3 { abort("three"); }
                print(h);
            }
            "#,
            |run| {
                let mut env = Env::new();
                env.push_input(0, &run.to_le_bytes());
                env
            },
        );
        let config = ErConfig::default();
        let mut session = ReconstructionSession::new(config, d.program().clone());
        let occ = d
            .run_until_failure(session.binary(), None, 0, 100)
            .expect("the failure occurs");
        let info = OccurrenceInfo::of(&occ);
        let mut events = occ.trace.decode().expect("trace decodes").events;
        let warm = session
            .binary()
            .warm_start()
            .expect("the program has a prefix");
        assert!(warm.prefix_matches(&events));
        let first = events
            .iter()
            .position(|e| matches!(e, TraceEvent::Branch(_)))
            .expect("the prefix branches");
        assert!(first < warm.events());
        let TraceEvent::Branch(taken) = events[first] else {
            unreachable!()
        };
        events[first] = TraceEvent::Branch(!taken);
        let cold = shepherd::shepherd_events(
            &session.binary().program,
            &events,
            Some(&info.failure),
            config.sym,
            None,
        )
        .run;
        let ShepherdStatus::Diverged(divergence) = cold.status else {
            panic!("a flipped concrete branch diverges, got {:?}", cold.status)
        };

        let mode = er_telemetry::mode();
        er_telemetry::set_mode(er_telemetry::Mode::Counters);
        let before = er_telemetry::local_snapshot();
        session.consume_events(info, events);
        let delta = er_telemetry::local_snapshot().delta(&before);
        er_telemetry::set_mode(mode);
        assert_eq!(delta.get("symex.warm_fallbacks"), 1);
        assert_eq!(delta.get("symex.warm_starts"), 0);
        let it = &session.iterations[0];
        assert_eq!(it.start_cursor, 0, "shepherded from the entry");
        assert_eq!(it.symbex_steps, cold.stats.steps);
        assert_eq!(it.stalled, Some(format!("diverged: {divergence:?}")));
    }

    #[test]
    fn reconstruction_under_mode_off_records_no_telemetry() {
        // IterationStats come from the shepherded run's own accounting, so
        // a reconstruction must neither need nor switch on telemetry: under
        // `Mode::Off` no counter anywhere moves, yet every iteration still
        // reports its effort.
        let _l = er_telemetry::counters::test_mutex()
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let d = deploy(
            r#"
            global V: [u32; 16];
            fn main() {
                let a: u32 = input_u32(0);
                V[a % 16] = 7;
                if V[5] == 7 { abort("five"); }
            }
            "#,
            |run| {
                let mut env = Env::new();
                env.push_input(0, &(run as u32).to_le_bytes());
                env
            },
        );
        let mode = er_telemetry::mode();
        er_telemetry::set_mode(er_telemetry::Mode::Off);
        let before = er_telemetry::global_snapshot();
        let report = Reconstructor::default().reconstruct(&d);
        let after = er_telemetry::global_snapshot();
        let mode_after = er_telemetry::mode();
        er_telemetry::set_mode(mode);
        assert_eq!(mode_after, er_telemetry::Mode::Off);
        assert_eq!(after, before, "counters moved under Mode::Off");
        assert!(report.reproduced(), "outcome: {:?}", report.outcome);
        assert!(!report.iterations.is_empty());
        for it in &report.iterations {
            assert!(it.symbex_steps > 0, "iteration {}", it.occurrence);
            assert!(it.solver_work > 0, "iteration {}", it.occurrence);
        }
    }

    #[test]
    fn wrapped_ring_buffer_cannot_be_shepherded() {
        // The paper sizes the 64 MB ring to the largest trace it collects
        // (§4); an undersized ring drops the trace prefix and shepherding
        // correctly refuses to follow the gap rather than mis-replaying.
        let d = deploy(
            r#"
            fn main() {
                let a: u32 = input_u32(0);
                let h: u32 = a;
                for i: u32 = 0; i < 20000; i = i + 1 {
                    if (h & 1) == 1 { h = h * 3 + 1; } else { h = h / 2 + i; }
                }
                if a == 3 { abort("three"); }
                print(h);
            }
            "#,
            |run| {
                let mut env = Env::new();
                env.push_input(0, &(run as u32).to_le_bytes());
                env
            },
        )
        .with_pt_config(er_pt::sink::PtConfig {
            ring_bytes: 512, // far too small: the trace wraps
            ..er_pt::sink::PtConfig::default()
        });
        let config = ErConfig {
            max_occurrences: 3,
            // This failure is one-shot (a == 3 happens on exactly one run),
            // so the gap-stall retry would otherwise scan the full default
            // reoccurrence window before giving up.
            max_runs_per_occurrence: 100,
            ..ErConfig::default()
        };
        let report = Reconstructor::new(config).reconstruct(&d);
        assert!(!report.reproduced());
        // Every iteration sees the gap and is retried until the limit.
        assert!(report.iterations.iter().all(|it| it
            .stalled
            .as_deref()
            .is_some_and(|s| s.contains("TraceGap"))));
    }

    #[test]
    fn gives_up_without_failures() {
        let d = deploy("fn main() { print(1); }", |_| Env::new());
        let config = ErConfig {
            max_runs_per_occurrence: 5,
            ..ErConfig::default()
        };
        let report = Reconstructor::new(config).reconstruct(&d);
        assert!(matches!(
            report.outcome,
            Outcome::GaveUp(GiveUpReason::NoFailureObserved)
        ));
    }

    #[test]
    fn random_selector_can_be_configured() {
        let d = deploy(
            r#"
            fn main() {
                let a: u32 = input_u32(0);
                if a == 3 { abort("three"); }
            }
            "#,
            |run| {
                let mut env = Env::new();
                env.push_input(0, &(run as u32).to_le_bytes());
                env
            },
        );
        let config = ErConfig {
            selector: SelectorKind::Random { seed: 42 },
            ..ErConfig::default()
        };
        // This failure solves on the first trace, so the selector is moot;
        // the test checks the configuration path.
        let report = Reconstructor::new(config).reconstruct(&d);
        assert!(report.reproduced());
    }
}
