//! Trace ingestion: the bounded queue between producing instances and the
//! analysis side, and the drain that compresses, triages, and stores each
//! crash report.
//!
//! Ingestion is where the fleet pays its storage bill, so everything is
//! counted: truncated traces (ring wrapped / packets overwritten),
//! undecodable traces, backpressure rejections when the queue is full.
//! A rejected report is *not lost* — the producing instance's cursor does
//! not advance past the failing run, so the same occurrence is re-offered
//! next round (no group can lose its first occurrence to backpressure).

use crate::store::{TraceId, TraceStore};
use crate::triage::Triage;
use er_core::deploy::FailureOccurrence;
use er_core::reconstruct::OccurrenceInfo;
use std::collections::VecDeque;

/// Queue sizing.
#[derive(Debug, Clone, Copy)]
pub struct IngestConfig {
    /// Maximum crash reports held between drains; offers beyond this are
    /// rejected (backpressure).
    pub queue_cap: usize,
}

impl Default for IngestConfig {
    fn default() -> Self {
        IngestConfig { queue_cap: 64 }
    }
}

/// One instance's crash report: the occurrence plus which binary produced
/// it, so the scheduler can tell current-version occurrences from stale
/// ones.
#[derive(Debug)]
pub struct CrashReport {
    /// Reporting instance index.
    pub instance: usize,
    /// Group whose instrumented binary the instance ran; `None` for the
    /// uninstrumented baseline binary.
    pub for_group: Option<u64>,
    /// Instrumentation version of that binary (0 = uninstrumented).
    pub version: u32,
    /// The occurrence itself (global run coordinates).
    pub occ: FailureOccurrence,
}

/// An ingested occurrence parked for analysis: trace in the store, failure
/// routed to its group. `Clone` exists for duplicate-delivery fault
/// injection ([`er_chaos::Fault::IngestDuplicate`]).
#[derive(Debug, Clone)]
pub struct PendingOccurrence {
    /// Failure group this occurrence belongs to.
    pub group: u64,
    /// Binary provenance (see [`CrashReport`]).
    pub for_group: Option<u64>,
    /// Instrumentation version that produced the trace.
    pub version: u32,
    /// Stored compressed trace, or why the trace failed to decode — a
    /// failure is delivered to the session as a decode failure, exactly
    /// like the serial path.
    pub trace: Result<TraceId, String>,
    /// Ring wrapped: the decoded stream starts with a gap.
    pub leading_gap: bool,
    /// Occurrence metadata for the session.
    pub info: OccurrenceInfo,
}

/// Cumulative ingestion statistics (serialized into the fleet report).
#[derive(Debug, Clone, Copy, Default, serde::Serialize)]
pub struct IngestStats {
    /// Reports accepted into the queue.
    pub accepted: u64,
    /// Reports rejected by backpressure (re-offered by the producer).
    pub backpressure: u64,
    /// Accepted reports whose ring wrapped or dropped packets.
    pub truncated: u64,
    /// Accepted reports whose trace failed to decode.
    pub decode_errors: u64,
    /// Reports dropped by injected packet loss (re-offered like
    /// backpressure) — 0 outside fault-injection runs.
    pub chaos_dropped: u64,
    /// Duplicate deliveries injected into a drain — 0 outside
    /// fault-injection runs.
    pub chaos_duplicates: u64,
}

/// The bounded ingest queue and its drain.
#[derive(Debug, Default)]
pub struct Ingestor {
    config: IngestConfig,
    queue: VecDeque<CrashReport>,
    stats: IngestStats,
}

impl Ingestor {
    /// An empty queue with the given capacity.
    pub fn new(config: IngestConfig) -> Ingestor {
        Ingestor {
            config,
            queue: VecDeque::new(),
            stats: IngestStats::default(),
        }
    }

    /// Offers one crash report. `false` means the queue is full and the
    /// producer must hold its cursor and retry after the next drain.
    pub fn offer(&mut self, report: CrashReport) -> bool {
        if er_chaos::inject(er_chaos::Fault::IngestDrop).is_some() {
            // Injected packet loss rides the backpressure contract: `false`
            // rolls the producer's cursor back, so the same occurrence is
            // re-executed and re-offered next round — nothing is lost.
            self.stats.chaos_dropped += 1;
            er_chaos::note_recovered(er_chaos::Domain::Ingest);
            return false;
        }
        if self.queue.len() >= self.config.queue_cap {
            self.stats.backpressure += 1;
            er_telemetry::counter!("fleet.ingest.backpressure").incr();
            return false;
        }
        self.stats.accepted += 1;
        er_telemetry::counter!("fleet.ingest.accepted").incr();
        self.queue.push_back(report);
        true
    }

    /// Queued reports awaiting the next drain.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> IngestStats {
        self.stats
    }

    /// Drains the queue: decodes, compresses, stores, and triages every
    /// queued report in deterministic `(run_index, instance)` order —
    /// independent of the thread interleaving that produced them — and
    /// returns the pending occurrences for the scheduler.
    pub fn drain(&mut self, triage: &mut Triage, store: &mut TraceStore) -> Vec<PendingOccurrence> {
        let mut batch: Vec<CrashReport> = self.queue.drain(..).collect();
        batch.sort_by_key(|r| (r.occ.run_index, r.instance));
        let mut out = Vec::with_capacity(batch.len());
        for report in batch {
            let info = OccurrenceInfo::of(&report.occ);
            if report.occ.trace.wrapped || report.occ.trace.stats.packets_dropped > 0 {
                self.stats.truncated += 1;
                er_telemetry::counter!("fleet.ingest.truncated").incr();
            }
            let (group, _new) = triage.classify(&info.failure, info.run_index);
            let (trace, leading_gap) = match report.occ.trace.packets() {
                Ok((packets, gap)) => (Ok(store.put(group, &packets, gap).id), gap),
                Err(e) => {
                    self.stats.decode_errors += 1;
                    er_telemetry::counter!("fleet.ingest.decode_errors").incr();
                    (Err(e.to_string()), false)
                }
            };
            let pending = PendingOccurrence {
                group,
                for_group: report.for_group,
                version: report.version,
                trace,
                leading_gap,
                info,
            };
            if er_chaos::inject(er_chaos::Fault::IngestDuplicate).is_some() {
                // Deliver the occurrence twice: the scheduler's run-index
                // watermark and duplicate checks drop the second copy, so a
                // double-delivered crash report costs nothing downstream.
                self.stats.chaos_duplicates += 1;
                er_chaos::note_recovered(er_chaos::Domain::Ingest);
                out.push(pending.clone());
            }
            out.push(pending);
        }
        out
    }
}
