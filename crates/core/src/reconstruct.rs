//! The iterative reconstruction driver (paper Fig. 2 and §3.3.4).
//!
//! Each iteration waits for the failure to reoccur in the deployment,
//! shepherds symbolic execution along the shipped trace, and either solves
//! for a concrete test case or — on a stall — selects key data values,
//! instruments the program, and redeploys. The loop is guaranteed to make
//! progress because every iteration concretizes at least the newly recorded
//! values; it gives up only on divergence or after `max_occurrences`.

use crate::deploy::{Deployment, DeploymentSource, FailureOccurrence, FailureSource};
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
use er_symex::{MachineState, Origins, ShepherdStatus, SiteCounts, SymConfig, TraceDivergence};
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
    /// Observe this many failures *without* tracing before enabling the
    /// always-on trace (paper §3.1: "developers can configure ER to enable
    /// tracing only after a failure is observed multiple times"). These
    /// count toward the reported occurrences.
    pub tracing_warmup: u32,
}

impl Default for ErConfig {
    fn default() -> Self {
        ErConfig {
            sym: SymConfig::default(),
            final_budget: Budget::default(),
            max_occurrences: 16,
            max_runs_per_occurrence: 50_000,
            selector: SelectorKind::KeyValue,
            tracing_warmup: 0,
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
    /// Newly selected sites (original coordinates).
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
    /// Total shepherded-symbolic-execution wall time (Table 1's
    /// "Symbex Time", summed over iterations).
    pub total_symbex: Duration,
    /// The target failure (original coordinates), once observed.
    pub target: Option<Failure>,
}

impl ReconstructionReport {
    /// Whether a verified test case was produced.
    pub fn reproduced(&self) -> bool {
        matches!(self.outcome, Outcome::Reproduced(_))
    }
}

/// Everything the driver retains from one shepherded occurrence so the
/// next one can resume mid-trace instead of re-executing the shared
/// prefix (the tentpole of the checkpoint/resume optimization): the
/// decoded events (to find the longest common prefix with the new trace),
/// the instrumentation that produced them (to remap instruction
/// coordinates), and the machine snapshots taken along the way.
#[derive(Debug, Clone)]
struct ResumeCache {
    events: Vec<TraceEvent>,
    inst: InstrumentedProgram,
    checkpoints: Vec<MachineState>,
}

/// Walks two event streams of the same program in lockstep and returns
/// cursor-mapping ranges `(old_from, old_to, new_cursor)`: machine state at
/// any old-trace cursor in `[old_from, old_to]` equals machine state at
/// `new_cursor` in the new trace. The walk tolerates *scheduling noise* —
/// timestamps, and a resume of the thread that is already running — which
/// the production scheduler injects at per-run positions (quantum
/// boundaries drift between runs) and which the symbolic machine skips
/// without touching state. Everything else (branches, recorded values,
/// real thread switches) must match exactly; the ranges stop at the first
/// semantic difference.
fn align_schedules(a: &[TraceEvent], b: &[TraceEvent]) -> Vec<(usize, usize, usize)> {
    let noise = |ev: &TraceEvent, running: Option<u64>| match ev {
        TraceEvent::Timestamp(_) => true,
        TraceEvent::ThreadResume(t) => Some(*t) == running,
        _ => false,
    };
    let mut ranges = Vec::new();
    let (mut i, mut j) = (0usize, 0usize);
    // The tid last handed the CPU. A repeat resume of it is a quantum
    // boundary: the interpreter cannot re-resume a *blocked* thread without
    // an intervening switch to whoever unblocks it, so tracking the last
    // resume is enough to classify without simulating thread states.
    let mut running: Option<u64> = None;
    loop {
        let from = i;
        while a.get(i).is_some_and(|ev| noise(ev, running)) {
            i += 1;
        }
        while b.get(j).is_some_and(|ev| noise(ev, running)) {
            j += 1;
        }
        ranges.push((from, i, j));
        match (a.get(i), b.get(j)) {
            (Some(x), Some(y)) if x == y => {
                if let TraceEvent::ThreadResume(t) = x {
                    running = Some(*t);
                }
                i += 1;
                j += 1;
            }
            _ => return ranges,
        }
    }
}

/// Metadata of one failure occurrence, minus the trace itself. The fleet
/// path stores traces compressed and re-derives events later, so the
/// session accepts `(OccurrenceInfo, events)` instead of a raw
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
    /// Failure identity in original coordinates.
    pub failure: Failure,
    /// Failure identity in instrumented coordinates.
    pub failure_instrumented: Failure,
}

impl OccurrenceInfo {
    /// The metadata of `occ`.
    pub fn of(occ: &FailureOccurrence) -> Self {
        OccurrenceInfo {
            run_index: occ.run_index,
            instr_count: occ.instr_count,
            trace_bytes: occ.pt_stats.bytes,
            sched: occ.sched,
            failure: occ.failure.clone(),
            failure_instrumented: occ.failure_instrumented.clone(),
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
    /// Feed another occurrence, produced under
    /// [`ReconstructionSession::instrumented`] (which changed if
    /// `reinstrumented` is true — redeploy before collecting).
    NeedOccurrence {
        /// The recording set grew; instances must roll out the new binary.
        reinstrumented: bool,
    },
    /// Terminal: reconstruction finished (reproduced or gave up).
    Done(ReconstructionReport),
}

/// One failure investigation, resumable between occurrences.
///
/// This is the per-failure-group state the fleet scheduler parks between
/// reoccurrences: the accumulated recording set, the target failure, the
/// iteration log, and the checkpoint cache. [`consume`](Self::consume) runs
/// exactly one iteration of the paper's loop; the serial driver
/// ([`Reconstructor::reconstruct`]) is now a thin wrapper that feeds it
/// from a [`DeploymentSource`].
#[derive(Debug, Clone)]
pub struct ReconstructionSession {
    config: ErConfig,
    program: Program,
    sites: Vec<InstrId>,
    target: Option<Failure>,
    iterations: Vec<IterationStats>,
    total_symbex: Duration,
    prev: Option<ResumeCache>,
    occurrences: u32,
}

impl ReconstructionSession {
    /// A fresh investigation of `program`.
    pub fn new(config: ErConfig, program: Program) -> Self {
        ReconstructionSession {
            config,
            program,
            sites: Vec::new(),
            target: None,
            iterations: Vec::new(),
            total_symbex: Duration::ZERO,
            prev: None,
            occurrences: 0,
        }
    }

    /// The original (uninstrumented) program.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// The target failure, once one has been observed.
    pub fn target(&self) -> Option<&Failure> {
        self.target.as_ref()
    }

    /// Occurrences consumed so far (including untraced warmups).
    pub fn occurrences(&self) -> u32 {
        self.occurrences
    }

    /// The accumulated recording set (original coordinates).
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

    /// Event cursors of the symbex snapshots retained from the last
    /// consumed occurrence — what a durability layer records to prove (and
    /// later assert) that a restarted session resumes mid-trace rather
    /// than from occurrence zero.
    pub fn checkpoint_cursors(&self) -> Vec<usize> {
        self.prev
            .as_ref()
            .map(|cache| cache.checkpoints.iter().map(MachineState::cursor).collect())
            .unwrap_or_default()
    }

    /// The most recently completed iteration's statistics.
    pub fn last_iteration(&self) -> Option<&IterationStats> {
        self.iterations.last()
    }

    /// Records an *untraced* warmup observation (paper §3.1): counts toward
    /// occurrences and pins the target, but is not analyzed.
    pub fn note_untraced(&mut self, failure: Failure) {
        self.occurrences += 1;
        self.target.get_or_insert(failure);
    }

    /// Builds the binary the deployment must run for the next occurrence:
    /// the program instrumented with the accumulated recording set.
    pub fn instrumented(&self) -> InstrumentedProgram {
        let _s = er_telemetry::span!("phase.instrument");
        if self.sites.is_empty() {
            return InstrumentedProgram::unmodified(&self.program);
        }
        match InstrumentedProgram::try_new(&self.program, &self.sites) {
            Ok(inst) => inst,
            Err(e) => {
                // Degraded: a bogus recording site must not kill the
                // investigation. Deploy the uninstrumented binary instead —
                // the first-iteration posture (control flow only).
                er_telemetry::counter!("instrument.rejected").incr();
                er_telemetry::log!(
                    warn,
                    "instrumentation rejected ({e}); deploying uninstrumented"
                );
                InstrumentedProgram::unmodified(&self.program)
            }
        }
    }

    /// Consumes one traced occurrence: decodes the trace and runs one
    /// iteration of the reconstruction loop. `inst` must be the
    /// instrumentation that produced `occ` (i.e. a binary built by
    /// [`instrumented`](Self::instrumented) since the last
    /// `reinstrumented` step).
    pub fn consume(&mut self, inst: &InstrumentedProgram, occ: FailureOccurrence) -> SessionStep {
        let info = OccurrenceInfo::of(&occ);
        let decoded = {
            let _s = er_telemetry::span!("shepherd.decode");
            occ.trace.decode()
        };
        match decoded {
            Ok(d) => self.consume_events(inst, info, d.events),
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
        self.target.get_or_insert(info.failure);
        if self.wants_more() {
            er_telemetry::counter!("reconstruct.retry.undecodable").incr();
            return SessionStep::NeedOccurrence {
                reinstrumented: false,
            };
        }
        SessionStep::Done(self.report(Outcome::GaveUp(GiveUpReason::TraceDecode(error))))
    }

    /// Like [`consume`](Self::consume), but on pre-decoded events — the
    /// fleet ingestion path stores packets compressed and flattens them
    /// with [`er_pt::packets_to_events`], which reproduces
    /// [`er_pt::PtTrace::decode`] bit-for-bit.
    pub fn consume_events(
        &mut self,
        inst: &InstrumentedProgram,
        info: OccurrenceInfo,
        events: Vec<TraceEvent>,
    ) -> SessionStep {
        // IterationStats are derived from telemetry counter snapshots (one
        // source of truth), so collection must be live even when the user
        // asked for no telemetry output.
        let _counters = er_telemetry::ensure_counters();
        self.occurrences += 1;
        let occurrence = self.occurrences;
        self.target.get_or_insert(info.failure.clone());

        // Checkpoint resume: if a previous occurrence left snapshots and
        // the new trace agrees with the old one on a prefix, pick the
        // latest snapshot inside that prefix and remap its instruction
        // coordinates from the old instrumentation to the new one
        // (through original coordinates). A snapshot parked on an
        // instruction that no longer exists remaps to `None` and the
        // next-older one is tried.
        let resume_state = self
            .prev
            .as_ref()
            .filter(|_| self.config.sym.checkpoint_every > 0)
            .and_then(|cache| {
                let aligned = align_schedules(&cache.events, &events);
                cache
                    .checkpoints
                    .iter()
                    .rev()
                    .filter_map(|s| {
                        let c = s.cursor();
                        let &(_, _, new_cursor) = aligned
                            .iter()
                            .find(|&&(from, to, _)| from <= c && c <= to)?;
                        Some((s, new_cursor))
                    })
                    .find_map(|(s, new_cursor)| {
                        s.clone()
                            .remap_sites(&inst.program, |id| {
                                cache.inst.to_original(id).map(|o| inst.from_original(o))
                            })
                            .map(|s| s.with_cursor(new_cursor))
                    })
            });

        // Counter deltas around the shepherded execution are the single
        // source of truth for per-iteration effort: the same numbers
        // feed IterationStats here and the journal's span events.
        let snap_before = er_telemetry::local_snapshot();
        er_solver::cancel::begin_phase(er_solver::cancel::Phase::Shepherd);
        let report = match resume_state {
            Some(state) => {
                er_telemetry::counter!("symex.checkpoint_resumes").incr();
                shepherd::shepherd_resume(
                    &inst.program,
                    &events,
                    Some(&info.failure_instrumented),
                    self.config.sym,
                    state,
                )
            }
            None => shepherd::shepherd_events(
                &inst.program,
                &events,
                Some(&info.failure_instrumented),
                self.config.sym,
            ),
        };
        let shepherd_delta = er_telemetry::local_snapshot().delta(&snap_before);
        self.total_symbex += report.wall;
        let mut run = report.run;
        let checkpoints = std::mem::take(&mut run.checkpoints);
        let mut stats = IterationStats {
            occurrence,
            run_index: info.run_index,
            instr_count: info.instr_count,
            trace_bytes: info.trace_bytes,
            symbex_wall: report.wall,
            symbex_steps: shepherd_delta.get("symex.steps"),
            solver_work: shepherd_delta.get("solver.work_units"),
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
                        let verify = tc.verify(&self.program);
                        self.iterations.push(stats);
                        if matches!(verify, VerifyResult::Reproduced { .. }) {
                            return SessionStep::Done(self.report(Outcome::Reproduced(tc)));
                        }
                        // A non-reproducing test case means the solved
                        // inputs exercised a schedule- or trace-sensitive
                        // path; another occurrence may verify.
                        if self.wants_more() {
                            er_telemetry::counter!("reconstruct.retry.verification").incr();
                            return SessionStep::NeedOccurrence {
                                reinstrumented: false,
                            };
                        }
                        return SessionStep::Done(
                            self.report(Outcome::GaveUp(GiveUpReason::VerificationFailed)),
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
                        if self.wants_more() {
                            er_telemetry::counter!("reconstruct.retry.unsat").incr();
                            return SessionStep::NeedOccurrence {
                                reinstrumented: false,
                            };
                        }
                        return SessionStep::Done(
                            self.report(Outcome::GaveUp(GiveUpReason::Unsat)),
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
                self.prev = Some(ResumeCache {
                    events,
                    inst: inst.clone(),
                    checkpoints,
                });
                return self.need_more(false);
            }
        };
        stats.stalled = Some(stalled);

        // Key data value selection on the constraint graph, with ids
        // translated back to original program coordinates.
        let set = {
            let _s = er_telemetry::span!("phase.select");
            er_solver::cancel::begin_phase(er_solver::cancel::Phase::Select);
            // Selection cost scales with the constraint graph; bill it up
            // front in pool-node units. A trip here surfaces through the
            // supervisor's post-iteration check, not mid-selection.
            er_solver::cancel::tick(run.pool.len() as u64);
            self.select(&run, inst, occurrence)
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
            if self.wants_more() {
                er_telemetry::counter!("reconstruct.retry.nothing_to_record").incr();
                self.prev = Some(ResumeCache {
                    events,
                    inst: inst.clone(),
                    checkpoints,
                });
                return SessionStep::NeedOccurrence {
                    reinstrumented: false,
                };
            }
            return SessionStep::Done(self.report(Outcome::GaveUp(GiveUpReason::NothingToRecord)));
        }
        self.sites.extend(new_sites);
        self.sites.sort_unstable();
        self.sites.dedup();
        self.prev = Some(ResumeCache {
            events,
            inst: inst.clone(),
            checkpoints,
        });
        self.need_more(true)
    }

    /// Either asks for another occurrence or, at the occurrence limit,
    /// closes the investigation exactly like the serial loop's exit.
    fn need_more(&mut self, reinstrumented: bool) -> SessionStep {
        if self.occurrences >= self.config.max_occurrences {
            SessionStep::Done(self.give_up(GiveUpReason::OccurrenceLimit))
        } else {
            SessionStep::NeedOccurrence { reinstrumented }
        }
    }

    /// Closes the investigation unsuccessfully (e.g. the source stopped
    /// producing occurrences). The session is spent afterwards.
    pub fn give_up(&mut self, reason: GiveUpReason) -> ReconstructionReport {
        // The serial loop reports the occurrence *limit* when it exhausts
        // the budget, even if warmups overshot it.
        let occurrences = if matches!(reason, GiveUpReason::OccurrenceLimit) {
            self.config.max_occurrences
        } else {
            self.occurrences
        };
        let mut report = self.report(Outcome::GaveUp(reason));
        report.occurrences = occurrences;
        report
    }

    fn report(&mut self, outcome: Outcome) -> ReconstructionReport {
        ReconstructionReport {
            outcome,
            occurrences: self.occurrences,
            iterations: std::mem::take(&mut self.iterations),
            total_symbex: self.total_symbex,
            target: self.target.clone(),
        }
    }

    fn select(
        &self,
        run: &er_symex::SymRunResult,
        inst: &InstrumentedProgram,
        occurrence: u32,
    ) -> RecordingSet {
        // Translate origins and counts into original coordinates so sites
        // accumulate stably across differently instrumented iterations.
        let mut origins = Origins::default();
        for (&e, &site) in &run.origins {
            if let Some(o) = inst.to_original(site) {
                origins.insert(e, o);
            }
        }
        let mut site_counts = SiteCounts::default();
        for (&site, &count) in &run.site_counts {
            if let Some(o) = inst.to_original(site) {
                *site_counts.entry(o).or_insert(0) += count;
            }
        }
        let input = SelectionInput {
            pool: &run.pool,
            origins: &origins,
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
        let mut source = DeploymentSource::new(deployment, self.config.max_runs_per_occurrence);
        self.reconstruct_from(&mut source)
    }

    /// Reconstructs the first failure `source` produces — the fleet-aware
    /// entry point: any [`FailureSource`] (one deployment, or a pool of
    /// instances) can feed the loop.
    pub fn reconstruct_from(&self, source: &mut dyn FailureSource) -> ReconstructionReport {
        // Counter collection must be live even when the user asked for no
        // telemetry output; the guard raises `off` to `counters` for the
        // duration of this call only.
        let _counters = er_telemetry::ensure_counters();
        let _span = er_telemetry::span!("reconstruct");
        let mut session = ReconstructionSession::new(self.config, source.program().clone());

        // Optional unmonitored warm-up: confirm the failure actually
        // reoccurs before paying for always-on tracing.
        if self.config.tracing_warmup > 0 {
            let inst = InstrumentedProgram::unmodified(session.program());
            for _ in 0..self.config.tracing_warmup {
                let target = session.target().cloned();
                match source.next_untraced(&inst, target.as_ref()) {
                    Some((_, failure)) => session.note_untraced(failure),
                    None => return session.give_up(GiveUpReason::NoFailureObserved),
                }
            }
        }

        loop {
            if !session.wants_more() {
                return session.give_up(GiveUpReason::OccurrenceLimit);
            }
            let _iter_span = er_telemetry::span!("reconstruct.iteration");
            let inst = session.instrumented();
            let deployed = {
                let _s = er_telemetry::span!("phase.deploy");
                let target = session.target().cloned();
                source.next_occurrence(&inst, target.as_ref())
            };
            let Some(occ) = deployed else {
                return session.give_up(GiveUpReason::NoFailureObserved);
            };
            match session.consume(&inst, occ) {
                SessionStep::Done(report) => return report,
                SessionStep::NeedOccurrence { .. } => {}
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use er_minilang::compile;
    use er_minilang::env::Env;

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

    #[test]
    fn iterative_reconstruction_with_stalls() {
        // A paper-style aliasing bug over a large object: trace-only symbex
        // stalls under a small budget; recorded key values fix it. Masked
        // indexing keeps containment provable so the write chain forms.
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
        let d = deploy(src, |run| {
            let mut env = Env::new();
            // Failures occur when i == j; make that happen every 7th run.
            let a = run * 13 + 5;
            let b = if run % 7 == 3 { a } else { a + 1 };
            env.push_input(0, &a.to_le_bytes());
            env.push_input(0, &b.to_le_bytes());
            env
        });
        let config = ErConfig {
            sym: SymConfig {
                solver_budget: Budget::small(),
                max_steps: 50_000_000,
                always_concretize: false,
                ..SymConfig::default()
            },
            final_budget: Budget::small(),
            ..ErConfig::default()
        };
        let report = Reconstructor::new(config).reconstruct(&d);
        assert!(report.reproduced(), "outcome: {:?}", report.outcome);
        assert!(
            report.occurrences >= 2,
            "expected at least one stall iteration, got {}",
            report.occurrences
        );
        assert!(report.iterations[0].stalled.is_some());
        assert!(report.iterations[0].sites_selected > 0);
        assert!(report.iterations[0].longest_chain > 0);
    }

    #[test]
    fn checkpoint_resume_fires_and_preserves_outcome() {
        // A long input-independent crunch prefix (identical events across
        // occurrences) followed by the aliasing stall: the second
        // occurrence must resume from a snapshot inside the shared prefix,
        // and the reproduction must be bit-identical to the uncached,
        // checkpoint-free baseline.
        let _l = er_telemetry::counters::test_mutex().lock().unwrap();
        let src = r#"
            global TBL: [u64; 2048];
            fn main() {
                let h: u64 = 1;
                for k: u64 = 0; k < 300; k = k + 1 {
                    if (h & 1) == 1 { h = h * 3 + 1; } else { h = h / 2 + k; }
                }
                let a: u64 = input_u64(0);
                let b: u64 = input_u64(0);
                let i: u64 = a & 2047;
                let j: u64 = b & 2047;
                TBL[i] = 41;
                if TBL[j] == 41 { abort("aliased"); }
                print(i + h);
            }
        "#;
        let gen = |run: u64| {
            let mut env = Env::new();
            let a = run * 13 + 5;
            let b = if run % 7 == 3 { a } else { a + 1 };
            env.push_input(0, &a.to_le_bytes());
            env.push_input(0, &b.to_le_bytes());
            env
        };
        let run_with = |sym: SymConfig| {
            let d = deploy(src, gen);
            let config = ErConfig {
                sym,
                final_budget: Budget::small(),
                ..ErConfig::default()
            };
            Reconstructor::new(config).reconstruct(&d)
        };
        let _g = er_telemetry::ensure_counters();
        let before = er_telemetry::local_snapshot();
        let optimized = run_with(SymConfig {
            solver_budget: Budget::small(),
            checkpoint_every: 64,
            ..SymConfig::default()
        });
        let resumes = er_telemetry::local_snapshot()
            .delta(&before)
            .get("symex.checkpoint_resumes");
        assert!(resumes > 0, "expected at least one checkpoint resume");
        let baseline = run_with(SymConfig {
            solver_budget: Budget::small(),
            incremental_solver: false,
            checkpoint_every: 0,
            ..SymConfig::default()
        });
        assert!(optimized.reproduced(), "{:?}", optimized.outcome);
        assert!(baseline.reproduced(), "{:?}", baseline.outcome);
        assert_eq!(optimized.occurrences, baseline.occurrences);
        assert_eq!(
            optimized.outcome.test_case().unwrap().inputs,
            baseline.outcome.test_case().unwrap().inputs
        );
        let summarize = |r: &ReconstructionReport| {
            r.iterations
                .iter()
                .map(|it| {
                    (
                        it.recorded_bytes,
                        it.new_sites.clone(),
                        it.stalled.is_some(),
                    )
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(summarize(&optimized), summarize(&baseline));
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
    fn tracing_warmup_defers_monitoring() {
        let d = deploy(
            r#"
            fn main() {
                let a: u32 = input_u32(0);
                if a % 3 == 1 { abort("mod3"); }
                print(a);
            }
            "#,
            |run| {
                let mut env = Env::new();
                env.push_input(0, &(run as u32).to_le_bytes());
                env
            },
        );
        let config = ErConfig {
            tracing_warmup: 2,
            ..ErConfig::default()
        };
        let report = Reconstructor::new(config).reconstruct(&d);
        assert!(report.reproduced(), "{:?}", report.outcome);
        // Two untraced observations + one traced reconstruction.
        assert_eq!(report.occurrences, 3);
        assert_eq!(
            report.iterations.len(),
            1,
            "only the traced occurrence is analyzed"
        );
        // The traced occurrence is the third failing run (runs 1, 4, 7).
        assert_eq!(report.iterations[0].run_index, 7);
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
