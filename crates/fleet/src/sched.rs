//! The concurrent reconstruction scheduler.
//!
//! One [`ReconstructionSession`] per failure group, parked between
//! reoccurrences. Each analyze round picks the highest-priority groups —
//! priority is reoccurrence rate × (1 + stall depth), i.e. "fails often
//! and still needs data" — and drives at most [`MAX_CONCURRENT`] of them
//! one iteration each, fanning out over [`crate::pool::try_parallel_map`].
//!
//! Version discipline keeps the fleet path bit-identical to the serial
//! loop: a group only consumes occurrences produced by its *current*
//! instrumented binary, in run order, and never re-consumes a run its
//! session has already advanced past. When an iteration grows the
//! recording set, settling it bumps the group's version, drops the queued
//! stale occurrences (counted), and the new binary rolls out to the
//! instrumented slice of instances.

use crate::ingest::PendingOccurrence;
use crate::pool;
use crate::store::{StoreError, TraceStore};
use er_core::instrument::InstrumentedProgram;
use er_core::reconstruct::{
    ErConfig, GiveUpReason, Outcome, ReconstructionReport, ReconstructionSession, SessionStep,
};
use er_durable::{ConsumeOutcome, DurableEvent, Wal, WatchdogConfig, WatchdogState};
use er_minilang::ir::Program;
use er_pt::compress::decompress_events;
use er_solver::cancel::Phase;
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

/// Reconstruction iterations driven concurrently per analyze round.
pub const MAX_CONCURRENT: usize = 2;

/// Scheduler policy knobs.
#[derive(Debug, Clone, Copy)]
pub struct SchedulerConfig {
    /// Fraction of instances that receive a group's instrumented binary
    /// (at least one instance always does).
    pub rollout: f64,
    /// Watchdog supervision of analyze iterations: per-phase work budgets
    /// plus the escalation ladder. `None` disables supervision (iterations
    /// run unbudgeted, as before).
    pub watchdog: Option<WatchdogConfig>,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        SchedulerConfig {
            rollout: 1.0,
            watchdog: None,
        }
    }
}

/// One failure group's investigation state: its session, which owns the
/// group's current binary and everything the investigation has consumed,
/// and its queue of pending occurrences.
#[derive(Debug)]
pub struct GroupState {
    /// Group id (signature hash).
    pub id: u64,
    /// Short label for telemetry context.
    pub label: String,
    /// Current instrumentation version (0 = uninstrumented), bumped when
    /// a settled iteration rebuilt the session's binary.
    pub version: u32,
    session: ReconstructionSession,
    pending: VecDeque<PendingOccurrence>,
    /// Final report, once the investigation closed.
    pub report: Option<ReconstructionReport>,
    /// Total sightings across all instances (triage's count, including
    /// redundant ones) — the numerator of the reoccurrence rate.
    pub occurrences_seen: u64,
    /// Position on the watchdog escalation ladder (present iff the
    /// scheduler supervises iterations).
    watchdog: Option<WatchdogState>,
}

impl GroupState {
    /// Whether this group still wants occurrences.
    fn open(&self) -> bool {
        self.report.is_none() && self.session.wants_more()
    }

    /// Watchdog escalations this group has taken (0 when unsupervised).
    pub fn watchdog_escalations(&self) -> u32 {
        self.watchdog.map(|w| w.escalations()).unwrap_or(0)
    }

    /// Runs below this index are already consumed; later-arriving
    /// occurrences of them are duplicates from other instances.
    pub fn next_run(&self) -> u64 {
        self.session.next_run()
    }

    /// The session's accumulated recording set.
    pub fn sites(&self) -> &[er_minilang::ir::InstrId] {
        self.session.sites()
    }

    /// Occurrences the session has consumed.
    pub fn occurrences_consumed(&self) -> u32 {
        self.session.occurrences()
    }

    /// Queued occurrences not yet consumed.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// The oldest queued occurrence consumable right now: produced by the
    /// current-version binary for this group (or the baseline binary while
    /// the group is still at version 0), at a run not yet consumed.
    fn next_eligible(&self) -> Option<usize> {
        self.pending.iter().position(|p| {
            p.version == self.version
                && (p.for_group.is_none() || p.for_group == Some(self.id))
                && p.info.run_index >= self.next_run()
        })
    }

    /// Stall depth of the underlying session.
    pub fn stall_depth(&self) -> u32 {
        self.session.stall_depth()
    }

    /// Drops every queued occurrence, unpinning its trace; returns how many
    /// were dropped.
    fn drop_pending(&mut self, store: &mut TraceStore) -> u64 {
        let mut dropped = 0;
        for p in self.pending.drain(..) {
            if let Ok(id) = p.trace {
                store.unpin(id);
            }
            dropped += 1;
        }
        dropped
    }
}

/// What a (possibly supervised) analyze worker reported back.
#[derive(Debug, Clone, Copy)]
enum IterResult {
    /// The iteration ran to completion.
    Done(ConsumeOutcome),
    /// The watchdog tripped `phase` mid-iteration; the worker restored the
    /// pre-iteration session, so the occurrence can be retried.
    Cancelled { phase: Phase },
}

/// The per-fleet scheduler.
#[derive(Debug)]
pub struct Scheduler {
    er: ErConfig,
    policy: SchedulerConfig,
    groups: BTreeMap<u64, GroupState>,
    /// Durable event log: every scheduler transition is appended (and
    /// flushed) before it is applied, and replayed by
    /// [`Scheduler::recover`] through the same code.
    wal: Option<Wal>,
}

impl Scheduler {
    /// A scheduler creating sessions with `er` for every new group.
    pub fn new(er: ErConfig, policy: SchedulerConfig) -> Scheduler {
        Scheduler {
            er,
            policy,
            groups: BTreeMap::new(),
            wal: None,
        }
    }

    /// Attaches a durable event log: session starts, accepted occurrences
    /// (trace bytes included), consumptions, watchdog trips, and verdicts
    /// are journaled so [`Scheduler::recover`] can rebuild this scheduler
    /// after a crash.
    pub fn with_wal(mut self, wal: Wal) -> Scheduler {
        self.wal = Some(wal);
        self
    }

    /// Appends one event to the WAL, if one is attached. An I/O failure
    /// degrades durability (logged and counted) rather than killing the
    /// investigation; an injected [`er_chaos::Fault::WalTear`] panics
    /// through here by design — that *is* the simulated crash.
    fn append_wal(&mut self, ev: &DurableEvent) {
        let Some(wal) = self.wal.as_mut() else { return };
        if let Err(e) = wal.append(ev) {
            er_telemetry::counter!("durable.append_failures").incr();
            er_telemetry::log!(warn, "wal append failed ({e}); durability degraded");
        }
    }

    /// Ensures a group exists, creating its session on first sight. A new
    /// session's first occurrences run `original`, the unmodified binary
    /// the fleet deploys as its baseline, so the session verifies from
    /// that binary's warm start.
    pub fn note_group(&mut self, id: u64, original: &Arc<InstrumentedProgram>, label: &str) {
        let er = self.er;
        let watchdog = self.policy.watchdog.as_ref().map(WatchdogState::new);
        let mut started = false;
        self.groups.entry(id).or_insert_with(|| {
            started = true;
            GroupState {
                id,
                label: label.to_string(),
                version: 0,
                session: ReconstructionSession::with_original(er, Arc::clone(original)),
                pending: VecDeque::new(),
                report: None,
                occurrences_seen: 0,
                watchdog,
            }
        });
        if started {
            self.append_wal(&DurableEvent::SessionStarted {
                group: id,
                label: label.to_string(),
            });
        }
    }

    /// Refreshes each group's sighting count from the triage table (called
    /// after every drain, so priorities track live reoccurrence rates).
    pub fn update_rates(&mut self, triage: &crate::triage::Triage) {
        for g in self.groups.values_mut() {
            if let Some(t) = triage.group(g.id) {
                g.occurrences_seen = t.occurrences;
            }
        }
    }

    /// Queues drained occurrences on their groups, pinning their traces.
    /// Stale occurrences (old version, already-consumed run, or a
    /// duplicate of a queued one from another instance) are dropped
    /// immediately and counted.
    pub fn enqueue(&mut self, pending: Vec<PendingOccurrence>, store: &mut TraceStore) {
        let journaling = self.wal.is_some();
        for p in pending {
            let Some(g) = self.groups.get_mut(&p.group) else {
                continue; // group must be noted first
            };
            let stale = g.report.is_some()
                || p.version != g.version
                || (p.for_group.is_some() && p.for_group != Some(g.id))
                || p.info.run_index < g.next_run();
            let duplicate = g.pending.iter().any(|q| {
                q.version == p.version && q.info.run_index == p.info.run_index && q.trace == p.trace
            });
            if stale {
                er_telemetry::counter!("fleet.sched.stale_dropped").incr();
            } else if duplicate {
                er_telemetry::counter!("fleet.sched.redundant").incr();
            } else {
                if let Ok(id) = p.trace {
                    store.pin(id);
                }
                let journal = journaling.then(|| DurableEvent::OccurrenceIngested {
                    group: p.group,
                    for_group: p.for_group,
                    version: p.version,
                    info: Box::new(p.info.clone()),
                    trace: fetch_trace(store, &p),
                });
                g.pending.push_back(p);
                if let Some(ev) = journal {
                    self.append_wal(&ev);
                }
            }
        }
    }

    /// Whether any open group has a consumable occurrence queued — the
    /// production pause signal: analysis must catch up before instances
    /// run further ahead.
    pub fn has_eligible_pending(&self) -> bool {
        self.groups
            .values()
            .any(|g| g.open() && g.next_eligible().is_some())
    }

    /// Whether any group's investigation is still open.
    pub fn any_open(&self) -> bool {
        self.groups.values().any(|g| g.open())
    }

    /// All groups, by id.
    pub fn groups(&self) -> impl Iterator<Item = &GroupState> {
        self.groups.values()
    }

    /// The binaries the `total` instances should run right now: the
    /// highest-priority open group's current binary on the instrumented
    /// slice (`ceil(rollout × total)`, at least 1), the uninstrumented
    /// baseline elsewhere. Returns `(group, version, binary)` per instance,
    /// each binary lent (shared, never copied) from the group's session or
    /// from `baseline`.
    pub fn assignments(
        &self,
        total: usize,
        runs_observed: u64,
        baseline: &Arc<InstrumentedProgram>,
    ) -> Vec<(Option<u64>, u32, Arc<InstrumentedProgram>)> {
        let instrumented = ((self.policy.rollout * total as f64).ceil() as usize).clamp(1, total);
        let lead = self.lead_group(runs_observed).filter(|g| g.version > 0);
        (0..total)
            .map(|idx| match lead {
                Some(g) if idx < instrumented => {
                    (Some(g.id), g.version, Arc::clone(g.session.binary()))
                }
                _ => (None, 0, Arc::clone(baseline)),
            })
            .collect()
    }

    /// The first group of [`priority_order`](Self::priority_order),
    /// found without sorting: the open group with the highest score, the
    /// smallest id among equals.
    fn lead_group(&self, runs_observed: u64) -> Option<&GroupState> {
        self.groups
            .values()
            .filter(|g| g.open())
            .min_by_key(|g| (std::cmp::Reverse(Self::priority(g, runs_observed)), g.id))
    }

    /// A group's priority: reoccurrence rate × (1 + stall depth), rate in
    /// occurrences per 1000 observed runs.
    fn priority(g: &GroupState, runs_observed: u64) -> u64 {
        let rate = g.occurrences_seen.max(1) * 1000 / runs_observed.max(1);
        rate.max(1) * (1 + u64::from(g.stall_depth()))
    }

    /// Open groups in descending [`priority`](Self::priority) order. Ties
    /// break toward the smaller group id, so the order is total and
    /// deterministic.
    fn priority_order(&self, runs_observed: u64) -> Vec<u64> {
        let mut scored: Vec<(u64, u64)> = self
            .groups
            .values()
            .filter(|g| g.open())
            .map(|g| (Self::priority(g, runs_observed), g.id))
            .collect();
        scored.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
        scored.into_iter().map(|(_, id)| id).collect()
    }

    /// Runs one analyze round: up to [`MAX_CONCURRENT`] highest-priority
    /// groups each consume their oldest eligible occurrence, in parallel
    /// unless `serial`. Returns `(group, outcome)` per iteration driven.
    pub fn analyze_round(
        &mut self,
        store: &mut TraceStore,
        runs_observed: u64,
        serial: bool,
    ) -> Vec<(u64, ConsumeOutcome)> {
        // Pick and detach the work: group state + its popped occurrence.
        let mut selected: Vec<(GroupState, PendingOccurrence)> = Vec::new();
        for id in self.priority_order(runs_observed) {
            if selected.len() >= MAX_CONCURRENT {
                break;
            }
            let g = self.groups.get_mut(&id).expect("scored group exists");
            if let Some(at) = g.next_eligible() {
                let p = g.pending.remove(at).expect("eligible index valid");
                let g = self.groups.remove(&id).expect("group present");
                selected.push((g, p));
            }
        }
        if selected.is_empty() {
            return Vec::new();
        }

        // Sessions of different groups are independent, so their
        // iterations run concurrently. Each trace is fetched here, on the
        // calling thread, so workers never touch the store. A chaos worker
        // kill is drawn here too, per item in input order, so a plan kills
        // the same items serial or parallel; a killed item never reaches
        // the pool, and its occurrence is requeued intact.
        let mut work: Vec<Work> = Vec::with_capacity(selected.len());
        for (mut g, p) in selected {
            let trace = {
                let _s = er_telemetry::span!("fleet.fetch");
                fetch_trace(store, &p)
            };
            if er_chaos::inject(er_chaos::Fault::WorkerPanic).is_some() {
                // The trace stays pinned for the retry.
                er_telemetry::counter!("fleet.sched.requeued").incr();
                er_telemetry::log!(
                    warn,
                    "analyze worker killed for group {:#x}; occurrence requeued",
                    g.id
                );
                er_chaos::note_recovered(er_chaos::Domain::Pool);
                g.pending.push_front(p);
                self.groups.insert(g.id, g);
            } else {
                work.push((g, p, trace));
            }
        }
        let outcomes = pool::try_parallel_map(work, serial, |_, (mut g, p, trace)| {
            er_telemetry::set_context(&g.label);
            let result = Self::run_supervised(&mut g, &p, &trace);
            er_telemetry::set_context("");
            (g, p, result)
        });

        let mut out = Vec::with_capacity(outcomes.len());
        for outcome in outcomes {
            let Ok((mut g, p, result)) = outcome else {
                // The closure panicked mid-iteration: the session state
                // unwound with it. The group is lost — log it, count it,
                // and keep the round (and every other group) alive.
                er_telemetry::counter!("fleet.sched.lost_groups").incr();
                er_telemetry::log!(
                    warn,
                    "analyze worker panicked mid-iteration; group state lost"
                );
                er_chaos::note_typed_error(er_chaos::Domain::Pool);
                continue;
            };
            match result {
                IterResult::Done(outcome) => {
                    self.settle(&mut g, &p, outcome, store);
                    out.push((g.id, outcome));
                }
                IterResult::Cancelled { phase } => {
                    // The worker already restored the pre-iteration
                    // session: requeue the occurrence (its trace stays
                    // pinned) and let the escalation ladder decide.
                    er_telemetry::counter!("watchdog.cancelled").incr();
                    g.pending.push_front(p);
                    self.watchdog_tripped(&mut g, phase, store);
                    if g.report.is_some() {
                        out.push((g.id, ConsumeOutcome::Closed));
                    }
                }
            }
            self.groups.insert(g.id, g);
        }
        out
    }

    /// The epilogue of every consumed occurrence, live or replayed: unpins
    /// its trace, journals the consumption, and applies the outcome — a
    /// rollout bumps the group's version and drops the work queued under
    /// the old binary, a closure drops everything and journals the verdict.
    fn settle(
        &mut self,
        g: &mut GroupState,
        p: &PendingOccurrence,
        outcome: ConsumeOutcome,
        store: &mut TraceStore,
    ) {
        if let Ok(id) = p.trace {
            store.unpin(id);
        }
        er_telemetry::counter!("fleet.sched.consumed").incr();
        self.append_wal(&DurableEvent::OccurrenceConsumed {
            group: g.id,
            run_index: p.info.run_index,
            outcome,
        });
        match outcome {
            ConsumeOutcome::NeedMore => {}
            ConsumeOutcome::Reinstrumented => {
                er_telemetry::counter!("fleet.sched.rollouts").incr();
                g.version += 1;
                // Everything queued was produced by the old binary.
                let stale = g.drop_pending(store);
                er_telemetry::counter!("fleet.sched.stale_dropped").add(stale);
            }
            ConsumeOutcome::Closed => self.close(g, store),
        }
    }

    /// Applies one watchdog trip to supervised `g`, live or replayed. The
    /// cancelled occurrence is already back on the queue: climb one rung
    /// so it is retried with scaled budgets or, with the ladder exhausted,
    /// close the group with a typed give-up.
    fn watchdog_tripped(&mut self, g: &mut GroupState, phase: Phase, store: &mut TraceStore) {
        self.append_wal(&DurableEvent::WatchdogTripped { group: g.id, phase });
        let cfg = self.policy.watchdog.expect("a trip implies supervision");
        let wd = g.watchdog.as_mut().expect("supervised group has a ladder");
        let phase = phase.name();
        if wd.escalate(&cfg) {
            er_telemetry::counter!("watchdog.escalations").incr();
            er_telemetry::counter!("watchdog.requeued").incr();
            er_telemetry::log!(
                warn,
                "watchdog tripped {phase} for group {:#x}; retrying at escalation {}",
                g.id,
                wd.escalations()
            );
        } else {
            let escalations = wd.escalations();
            er_telemetry::counter!("watchdog.gave_up").incr();
            er_telemetry::log!(
                warn,
                "watchdog exhausted for group {:#x} in {phase} after {escalations} escalations",
                g.id
            );
            self.give_up(
                g,
                GiveUpReason::WatchdogExhausted { phase, escalations },
                store,
            );
        }
    }

    /// Closes open `g` with a typed give-up.
    fn give_up(&mut self, g: &mut GroupState, why: GiveUpReason, store: &mut TraceStore) {
        g.report = Some(g.session.give_up(why));
        self.close(g, store);
    }

    /// Closes `g`, whose report is set: drops its queued work and journals
    /// the verdict.
    fn close(&mut self, g: &mut GroupState, store: &mut TraceStore) {
        g.drop_pending(store);
        let r = g.report.as_ref().expect("a closed group has its report");
        let reason = match &r.outcome {
            Outcome::Reproduced(_) => "reproduced".to_string(),
            Outcome::GaveUp(why) => format!("{why:?}"),
        };
        let ev = DurableEvent::Terminal {
            group: g.id,
            reproduced: r.reproduced(),
            reason,
            occurrences: r.occurrences,
        };
        self.append_wal(&ev);
    }

    /// Runs `f` on group `id` detached from the map, so it can call the
    /// transition helpers; `None` if the group is unknown.
    fn with_group<R>(
        &mut self,
        id: u64,
        f: impl FnOnce(&mut Scheduler, &mut GroupState) -> R,
    ) -> Option<R> {
        let mut g = self.groups.remove(&id)?;
        let r = f(self, &mut g);
        self.groups.insert(id, g);
        Some(r)
    }

    /// One worker-side iteration, under the watchdog when configured: arms
    /// the cooperative cancellation token with the group's current phase
    /// budgets, copies the session first, and — if any phase budget trips
    /// mid-iteration — restores that copy and clears the report, so the
    /// cancelled work leaves no trace on the group.
    fn run_supervised(g: &mut GroupState, p: &PendingOccurrence, trace: &Trace) -> IterResult {
        let Some(budgets) = g.watchdog.map(|w| w.budgets()) else {
            return IterResult::Done(Self::run_iteration(g, p, trace));
        };
        let session = g.session.clone();
        let guard = er_solver::cancel::arm(budgets);
        let outcome = Self::run_iteration(g, p, trace);
        let tripped = er_solver::cancel::tripped_phase();
        drop(guard);
        match tripped {
            Some(phase) => {
                g.session = session;
                g.report = None;
                IterResult::Cancelled { phase }
            }
            None => IterResult::Done(outcome),
        }
    }

    /// One group iteration: decompress `p`'s fetched events and feed the
    /// session. Mutates only `g`'s session and report.
    fn run_iteration(g: &mut GroupState, p: &PendingOccurrence, trace: &Trace) -> ConsumeOutcome {
        let _iter = er_telemetry::span!("reconstruct.iteration");
        let decoded = trace.as_ref().map_err(Clone::clone).and_then(|bytes| {
            let _s = er_telemetry::span!("shepherd.decode");
            let events = decompress_events(bytes)
                .map_err(|_| format!("trace unavailable: {}", StoreError::Corrupt))?;
            // Bill the decode-phase budget (the cancel token, when armed,
            // starts in Decode); a trip here surfaces as a cancelled
            // iteration.
            er_solver::cancel::tick(events.len() as u64);
            Ok(events)
        });
        let step = match decoded {
            Ok(events) => g.session.consume_events(p.info.clone(), events),
            Err(error) => g.session.note_undecodable(p.info.clone(), error),
        };
        match step {
            SessionStep::Done(report) => {
                g.report = Some(report);
                ConsumeOutcome::Closed
            }
            SessionStep::NeedOccurrence {
                reinstrumented: true,
            } => ConsumeOutcome::Reinstrumented,
            SessionStep::NeedOccurrence {
                reinstrumented: false,
            } => ConsumeOutcome::NeedMore,
        }
    }

    /// Consumes the scheduler, yielding every group's final state by id.
    pub fn into_states(self) -> Vec<GroupState> {
        self.groups.into_values().collect()
    }

    /// Closes every still-open group as having seen no (further) failure
    /// reoccurrence — the fleet stopped producing.
    pub fn close_all(&mut self, store: &mut TraceStore) {
        let open: Vec<u64> = self
            .groups
            .values()
            .filter(|g| g.report.is_none())
            .map(|g| g.id)
            .collect();
        for id in open {
            self.with_group(id, |s, g| {
                s.give_up(g, GiveUpReason::NoFailureObserved, store);
            });
        }
    }

    /// Rebuilds a scheduler from a recovered WAL: replays the logged
    /// events in order, applying each through the same transition the
    /// live scheduler journaled it from. Every consumed occurrence is
    /// re-fed (journaled trace bytes re-enter the content-addressed store,
    /// yielding the original [`crate::store::TraceId`]s) through fresh
    /// sessions. The pipeline is deterministic, so replay reconverges on
    /// the crashed scheduler's state. Divergence between
    /// replay and what the log acknowledged is counted
    /// (`durable.replay_divergence`), not fatal.
    ///
    /// `wal` is attached only *after* replay, so replay appends nothing.
    pub fn recover(
        er: ErConfig,
        policy: SchedulerConfig,
        program: &Program,
        wal: Wal,
        events: &[DurableEvent],
        store: &mut TraceStore,
    ) -> Scheduler {
        let _span = er_telemetry::span!("durable.recover");
        let mut s = Scheduler::new(er, policy);
        let original = Arc::new(InstrumentedProgram::unmodified(program));
        for ev in events {
            match ev {
                DurableEvent::SessionStarted { group, label } => {
                    s.note_group(*group, &original, label);
                }
                DurableEvent::OccurrenceIngested {
                    group,
                    for_group,
                    version,
                    info,
                    trace,
                } => {
                    let trace = trace
                        .as_ref()
                        .map_err(Clone::clone)
                        .and_then(|bytes| match store.put_compressed(*group, bytes) {
                            Ok(put) => Ok(put.id),
                            Err(e) => {
                                diverged(format_args!(
                                    "journaled trace for group {group:#x} unusable: {e}"
                                ));
                                Err(format!("trace unavailable: {e}"))
                            }
                        });
                    er_telemetry::counter!("durable.replayed_occurrences").incr();
                    s.enqueue(
                        vec![PendingOccurrence {
                            group: *group,
                            for_group: *for_group,
                            version: *version,
                            trace,
                            info: info.as_ref().clone(),
                        }],
                        store,
                    );
                }
                DurableEvent::OccurrenceConsumed {
                    group,
                    run_index,
                    outcome,
                } => {
                    let replayed = s.with_group(*group, |s, g| {
                        s.replay_consume(g, *run_index, *outcome, store);
                    });
                    if replayed.is_none() {
                        diverged(format_args!("consumed event for unknown group {group:#x}"));
                    }
                }
                DurableEvent::WatchdogTripped { group, phase } => {
                    let replayed = s.with_group(*group, |s, g| {
                        let live = g.watchdog.is_some() && g.report.is_none();
                        if live {
                            s.watchdog_tripped(g, *phase, store);
                        }
                        live
                    });
                    if replayed != Some(true) {
                        diverged(format_args!(
                            "watchdog trip for group {group:#x}, which is not open and supervised"
                        ));
                    }
                }
                DurableEvent::Terminal {
                    group, reproduced, ..
                } => {
                    let got = s.with_group(*group, |s, g| {
                        // A group replay left open was closed by
                        // `close_all`: the fleet stopped producing.
                        if g.report.is_none() && !reproduced {
                            s.give_up(g, GiveUpReason::NoFailureObserved, store);
                        }
                        g.report.as_ref().map(ReconstructionReport::reproduced)
                    });
                    // Durable assertion: replay must have re-derived the
                    // same verdict the crashed process acknowledged.
                    let got = got.flatten();
                    if got != Some(*reproduced) {
                        diverged(format_args!(
                            "group {group:#x} verdict {got:?} != journaled {reproduced}"
                        ));
                    }
                }
            }
        }
        er_telemetry::counter!("durable.resumes").incr();
        er_telemetry::log!(
            info,
            "recovered scheduler from {} WAL events ({} groups)",
            events.len(),
            s.groups.len()
        );
        s.wal = Some(wal);
        s
    }

    /// Replays one journaled consumption: pops the logged occurrence, runs
    /// the iteration serially, settles it like a live round, and checks
    /// the outcome against the journaled one.
    fn replay_consume(
        &mut self,
        g: &mut GroupState,
        run_index: u64,
        logged: ConsumeOutcome,
        store: &mut TraceStore,
    ) {
        let at = g
            .next_eligible()
            .filter(|&at| g.pending[at].info.run_index == run_index);
        let Some(at) = at else {
            diverged(format_args!(
                "group {:#x} run {run_index} not next-eligible; skipping",
                g.id
            ));
            return;
        };
        let p = g.pending.remove(at).expect("eligible index valid");
        er_telemetry::set_context(&g.label);
        let got = Self::run_iteration(g, &p, &fetch_trace(store, &p));
        er_telemetry::set_context("");
        self.settle(g, &p, got, store);
        if got != logged {
            diverged(format_args!(
                "group {:#x} run {run_index} outcome {got:?} != journaled {logged:?}",
                g.id
            ));
        }
    }
}

/// An occurrence's trace as an iteration receives it: the stored
/// compressed events, or why they are unavailable. The worker
/// decompresses them.
type Trace = Result<Vec<u8>, String>;

/// One analyze worker's share of a round: the detached group, the
/// occurrence it consumes, and that occurrence's trace.
type Work = (GroupState, PendingOccurrence, Trace);

/// Retrieves `p`'s trace from the store.
fn fetch_trace(store: &TraceStore, p: &PendingOccurrence) -> Trace {
    p.trace.clone().and_then(|id| {
        store
            .compressed_bytes(id)
            .map_err(|e| format!("trace unavailable: {e}"))
    })
}

/// Counts and logs a replayed event that disagrees with the state replay
/// rebuilt.
fn diverged(why: std::fmt::Arguments<'_>) {
    er_telemetry::counter!("durable.replay_divergence").incr();
    er_telemetry::log!(warn, "replay: {why}");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ingest::{CrashReport, IngestConfig, Ingestor};
    use crate::store::StoreConfig;
    use crate::triage::Triage;
    use er_core::deploy::Deployment;
    use er_minilang::env::Env;
    use er_solver::cancel::PhaseBudgets;
    use er_solver::solve::Budget;

    /// The per-instance answer `assignments` replaces: sort every group
    /// through `priority_order` and take the first, once per instance.
    fn per_instance(
        s: &Scheduler,
        idx: usize,
        total: usize,
        runs_observed: u64,
        baseline: &Arc<InstrumentedProgram>,
    ) -> (Option<u64>, u32, Arc<InstrumentedProgram>) {
        let instrumented = ((s.policy.rollout * total as f64).ceil() as usize).clamp(1, total);
        let lead = s
            .priority_order(runs_observed)
            .into_iter()
            .next()
            .and_then(|id| s.groups.get(&id));
        match lead {
            Some(g) if idx < instrumented && g.version > 0 => {
                (Some(g.id), g.version, Arc::clone(g.session.binary()))
            }
            _ => (None, 0, Arc::clone(baseline)),
        }
    }

    fn assert_same(s: &Scheduler, runs_observed: u64, baseline: &Arc<InstrumentedProgram>) {
        for total in 1..=5 {
            let got = s.assignments(total, runs_observed, baseline);
            assert_eq!(got.len(), total);
            for (idx, (group, version, binary)) in got.iter().enumerate() {
                let (want_group, want_version, want_binary) =
                    per_instance(s, idx, total, runs_observed, baseline);
                assert_eq!((*group, *version), (want_group, want_version));
                assert!(
                    Arc::ptr_eq(binary, &want_binary),
                    "instance {idx} of {total}"
                );
            }
        }
    }

    #[test]
    fn assignments_match_the_per_instance_lead() {
        let program = er_minilang::compile("fn main() { }").unwrap();
        let baseline = Arc::new(InstrumentedProgram::unmodified(&program));
        let mut s = Scheduler::new(
            ErConfig::default(),
            SchedulerConfig {
                rollout: 0.5,
                watchdog: None,
            },
        );
        assert_same(&s, 100, &baseline); // no groups
        for (id, seen, version) in [(30, 4, 1), (10, 4, 2), (20, 9, 3), (40, 2, 0)] {
            s.note_group(id, &baseline, "g");
            let g = s.groups.get_mut(&id).unwrap();
            g.occurrences_seen = seen;
            g.version = version;
        }
        // Group 20 leads outright; at a large run count every rate floors
        // to the same score and the smallest id, 10, wins the tie.
        assert_same(&s, 100, &baseline);
        assert_same(&s, 1_000_000, &baseline);
        // Close the lead: the tie between 10 and 30 breaks toward 10.
        let g = s.groups.get_mut(&20).unwrap();
        g.report = Some(g.session.give_up(GiveUpReason::NoFailureObserved));
        assert_same(&s, 100, &baseline);
        // A lead still at version 0 rolls out the baseline everywhere.
        s.groups.get_mut(&40).unwrap().occurrences_seen = 50;
        assert_same(&s, 100, &baseline);
        assert!(s
            .assignments(4, 100, &baseline)
            .iter()
            .all(|(g, v, _)| g.is_none() && *v == 0));
    }

    #[test]
    fn a_cancelled_iteration_leaves_the_group_as_it_was() {
        let _l = crate::testsync::chaos_lock();
        // An aliasing read over a large table stalls under a small budget,
        // so the first occurrence selects sites and reinstruments. Runs
        // `r` with `r % 7 == 3` fail.
        let program = er_minilang::compile(
            r#"
            global TBL: [u64; 2048];
            fn main() {
                let a: u64 = input_u64(0);
                let b: u64 = input_u64(0);
                TBL[a & 2047] = 41;
                if TBL[b & 2047] == 41 { abort("aliased"); }
            }
            "#,
        )
        .unwrap();
        let d = Deployment::new(program.clone(), |run| {
            let mut env = Env::new();
            let a = run * 13 + 5;
            env.push_input(0, &a.to_le_bytes());
            env.push_input(0, &(if run % 7 == 3 { a } else { a + 1 }).to_le_bytes());
            env
        });
        let mut er = ErConfig {
            final_budget: Budget::small(),
            ..ErConfig::default()
        };
        er.sym.solver_budget = Budget::small();
        er.sym.always_concretize = false;
        // The select budget trips once the iteration has run to its end:
        // the session consumed the occurrence and rebuilt its binary. The
        // first escalation lifts the budget out of reach.
        let watchdog = WatchdogConfig {
            budgets: PhaseBudgets {
                select: 1,
                ..PhaseBudgets::unlimited()
            },
            escalation_factor: 1 << 40,
            max_escalations: 1,
        };
        let mut s = Scheduler::new(
            er,
            SchedulerConfig {
                rollout: 1.0,
                watchdog: Some(watchdog),
            },
        );
        let mut store = TraceStore::new(StoreConfig::default());
        let mut ingest = Ingestor::new(IngestConfig::default());
        let baseline = Arc::new(InstrumentedProgram::unmodified(&program));
        let first = d.run_until_failure(&baseline, None, 0, 100).unwrap();
        let second = d
            .run_until_failure(&baseline, None, first.run_index + 1, 100)
            .unwrap();
        let run = first.run_index;
        for occ in [first, second] {
            assert!(ingest.offer(CrashReport {
                instance: 0,
                for_group: None,
                version: 0,
                occ,
            }));
        }
        let pending = ingest.drain(&mut Triage::new(), &mut store);
        let id = pending[0].group;
        s.note_group(id, &baseline, "aliasing");
        s.enqueue(pending, &mut store);
        let state = |s: &Scheduler| {
            let g = &s.groups[&id];
            (
                g.occurrences_consumed(),
                g.next_run(),
                g.version,
                g.sites().to_vec(),
                g.pending_len(),
                g.report.is_some(),
            )
        };
        let before = state(&s);
        assert_eq!(before, (0, 0, 0, Vec::new(), 2, false));

        assert!(s.analyze_round(&mut store, 100, true).is_empty(), "trips");
        assert_eq!(s.groups[&id].watchdog_escalations(), 1);
        assert_eq!(state(&s), before, "the trip rolls the group back");

        // The retry consumes the same, oldest occurrence.
        assert_eq!(
            s.analyze_round(&mut store, 100, true),
            vec![(id, ConsumeOutcome::Reinstrumented)]
        );
        let g = &s.groups[&id];
        assert_eq!(
            (g.occurrences_consumed(), g.next_run(), g.version),
            (1, run + 1, 1)
        );
        assert!(!g.sites().is_empty());
        assert_eq!(g.pending_len(), 0, "the rollout drops the stale one");
    }

    #[test]
    fn chaos_kills_only_the_drawn_items_serial_or_parallel() {
        let _l = crate::testsync::chaos_lock();
        // Runs 1 and 2 fail at different sites: two groups, one queued
        // occurrence each.
        let program = er_minilang::compile(
            r#"
            fn main() {
                let x: u64 = input_u64(0);
                if x % 3 == 1 { abort("one"); }
                if x % 3 == 2 { abort("two"); }
            }
            "#,
        )
        .unwrap();
        let d = Deployment::new(program.clone(), |run| {
            let mut env = Env::new();
            env.push_input(0, &run.to_le_bytes());
            env
        });
        let baseline = Arc::new(InstrumentedProgram::unmodified(&program));
        // One round with the second drawn item killed; returns, per group
        // in priority order, (id, consumed, queued) and the round's
        // outcomes.
        let round = |serial: bool| {
            let mut s = Scheduler::new(ErConfig::default(), SchedulerConfig::default());
            let mut store = TraceStore::new(StoreConfig::default());
            let mut ingest = Ingestor::new(IngestConfig::default());
            for run in [0, 2] {
                let occ = d.run_until_failure(&baseline, None, run, 100).unwrap();
                assert!(ingest.offer(CrashReport {
                    instance: 0,
                    for_group: None,
                    version: 0,
                    occ,
                }));
            }
            let pending = ingest.drain(&mut Triage::new(), &mut store);
            for p in &pending {
                s.note_group(p.group, &baseline, "g");
            }
            s.enqueue(pending, &mut store);
            let order = s.priority_order(100);
            assert_eq!(order.len(), 2);
            let _chaos = er_chaos::arm(er_chaos::ChaosPlan::new(5).with(
                er_chaos::Fault::WorkerPanic,
                er_chaos::FaultPolicy::at_nth(1),
            ));
            let stepped = s.analyze_round(&mut store, 100, serial);
            let books = er_chaos::stats().unwrap().domain(er_chaos::Domain::Pool);
            assert_eq!(
                (books.injected, books.recovered),
                (1, 1),
                "one kill, requeued"
            );
            let groups: Vec<_> = order
                .iter()
                .map(|id| {
                    let g = &s.groups[id];
                    (g.id, g.occurrences_consumed(), g.pending_len())
                })
                .collect();
            (groups, stepped)
        };
        let (groups, stepped) = round(true);
        let [(first, 1, 0), (second, 0, 1)] = groups[..] else {
            panic!("only the second drawn item is killed: {groups:?}");
        };
        assert_eq!(stepped.iter().map(|o| o.0).collect::<Vec<_>>(), [first]);
        assert_ne!(first, second);
        assert_eq!(round(false), (groups, stepped), "the same items parallel");
    }
}
