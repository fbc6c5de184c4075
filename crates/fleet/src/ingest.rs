//! Trace ingestion: the bounded queue between producing instances and the
//! analysis side, and the drain that decodes, triages, and stores each
//! crash report. A report's trace is decoded with `PtTrace::decode`, the
//! serial session's own decode, and the store keeps the compressed
//! events, so an analysis worker reads exactly what the serial path
//! would have shepherded.
//!
//! Ingestion is where the fleet pays its storage bill, so everything is
//! counted: truncated traces (ring wrapped / packets overwritten),
//! undecodable traces, backpressure rejections when the queue is full.
//! A rejected report is *not lost* — the producing instance's cursor does
//! not advance past the failing run, so the same occurrence is re-offered
//! next round (no group can lose its first occurrence to backpressure).

use crate::store::{PutResult, TraceId, TraceStore};
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
    /// Stored compressed events, or why the trace failed to decode — a
    /// failure is delivered to the session as a decode failure, exactly
    /// like the serial path.
    pub trace: Result<TraceId, String>,
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

    /// Drains the queue: decodes, triages, compresses and stores every
    /// queued report in deterministic `(run_index, instance)` order —
    /// independent of the thread interleaving that produced them — and
    /// returns the pending occurrences for the scheduler.
    ///
    /// Mirrored instances ship byte-identical traces. A report whose raw
    /// trace bytes and wrap flag equal an earlier stored report's in the
    /// same group decodes to the same events, so it is not decoded or
    /// compressed again: it reuses that report's put through
    /// [`TraceStore::put_duplicate`], which counts it as the dedup hit
    /// `put` would have found. Only untampered reports
    /// take that path (decoding a tampered trace accounts for its chaos
    /// fault), and the batch already holds the bytes it compares.
    pub fn drain(&mut self, triage: &mut Triage, store: &mut TraceStore) -> Vec<PendingOccurrence> {
        let mut batch: Vec<CrashReport> = self.queue.drain(..).collect();
        batch.sort_by_key(|r| (r.occ.run_index, r.instance));
        let mut out = Vec::with_capacity(batch.len());
        // Untampered reports stored this drain: (batch index, group, put).
        let mut stored: Vec<(usize, u64, PutResult)> = Vec::new();
        for (idx, report) in batch.iter().enumerate() {
            let info = OccurrenceInfo::of(&report.occ);
            let raw = &report.occ.trace;
            if raw.wrapped {
                self.stats.truncated += 1;
                er_telemetry::counter!("fleet.ingest.truncated").incr();
            }
            let (group, _new) = triage.classify(&info.failure);
            let untampered = raw.stats.chaos_tampered == 0;
            let duplicate = stored
                .iter()
                .filter(|&&(earlier, g, _)| {
                    let t = &batch[earlier].occ.trace;
                    untampered && g == group && t.wrapped == raw.wrapped && t.bytes == raw.bytes
                })
                .find_map(|(_, _, put)| store.put_duplicate(put, group));
            let trace = match duplicate {
                Some(put) => Ok(put.id),
                None => match raw.decode() {
                    Ok(decoded) => {
                        let put = store.put(group, &decoded.events, raw.bytes.len());
                        if untampered {
                            stored.push((idx, group, put));
                        }
                        Ok(put.id)
                    }
                    Err(e) => {
                        self.stats.decode_errors += 1;
                        er_telemetry::counter!("fleet.ingest.decode_errors").incr();
                        Err(e.to_string())
                    }
                },
            };
            let pending = PendingOccurrence {
                group,
                for_group: report.for_group,
                version: report.version,
                trace,
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::{StoreConfig, StoreStats};
    use er_minilang::error::{Failure, RuntimeFault};
    use er_minilang::interp::SchedConfig;
    use er_minilang::ir::{BlockId, FuncId, InstrId};
    use er_minilang::trace::TraceSink;
    use er_pt::{PtConfig, PtSink, PtTrace};

    fn failure(site: usize) -> Failure {
        Failure {
            fault: RuntimeFault::Abort {
                message: "boom".to_string(),
            },
            at: InstrId {
                func: FuncId(0),
                block: BlockId(0),
                index: site,
            },
            call_stack: vec![FuncId(0)],
            tid: 0,
        }
    }

    /// A trace of `n` branches and ptwrites seeded by `seed`; a small ring
    /// wraps.
    fn trace(seed: u64, n: u64, ring: usize) -> PtTrace {
        let mut s = PtSink::new(PtConfig {
            ring_bytes: ring,
            psb_period: 16,
        });
        for i in 0..n {
            s.cond_branch((i * seed).is_multiple_of(3));
            if i.is_multiple_of(5) {
                s.ptwrite(i ^ seed);
            }
        }
        s.finish()
    }

    fn report(instance: usize, run_index: u64, site: usize, trace: PtTrace) -> CrashReport {
        CrashReport {
            instance,
            for_group: None,
            version: 0,
            occ: FailureOccurrence {
                failure: failure(site),
                trace,
                run_index,
                sched: SchedConfig::default(),
                instr_count: 100,
            },
        }
    }

    /// Mirrored reports with every way a copy can differ: a tampered copy
    /// with the same bytes, one with flipped bytes, an undecodable report,
    /// the same bytes in another group, and the same bytes under the other
    /// wrap flag. Shuffled: the drain sorts them.
    fn mirrored_batch() -> Vec<CrashReport> {
        let a = trace(7, 400, 1 << 16);
        let wrapped = trace(11, 400, 128);
        assert!(wrapped.wrapped);
        let mut tampered = a.clone();
        tampered.stats.chaos_tampered = 1;
        let mut flipped = a.clone();
        flipped.bytes[40] ^= 0x5a;
        flipped.stats.chaos_tampered = 1;
        let undecodable = PtTrace {
            bytes: vec![0x42, 0x00],
            ..a.clone()
        };
        let mut unwrapped = wrapped.clone();
        unwrapped.wrapped = false;
        vec![
            report(3, 5, 1, a.clone()),
            report(0, 5, 1, a.clone()),
            report(1, 5, 1, tampered),
            report(2, 5, 1, flipped),
            report(4, 5, 1, undecodable),
            report(5, 5, 2, a.clone()),
            report(0, 6, 2, wrapped.clone()),
            report(1, 6, 2, wrapped.clone()),
            report(2, 6, 2, unwrapped),
            report(3, 6, 2, wrapped),
            report(0, 7, 1, trace(13, 300, 1 << 16)),
            report(1, 7, 1, a.clone()),
            report(2, 7, 1, a),
        ]
    }

    /// What the drain must match: every report decoded and `put`.
    fn reference(
        mut batch: Vec<CrashReport>,
        config: StoreConfig,
    ) -> (Vec<PendingOccurrence>, StoreStats) {
        let mut triage = Triage::new();
        let mut store = TraceStore::new(config);
        batch.sort_by_key(|r| (r.occ.run_index, r.instance));
        let pending = batch
            .iter()
            .map(|r| {
                let info = OccurrenceInfo::of(&r.occ);
                let (group, _) = triage.classify(&info.failure);
                let raw = &r.occ.trace;
                let trace = match raw.decode() {
                    Ok(d) => Ok(store.put(group, &d.events, raw.bytes.len()).id),
                    Err(e) => Err(e.to_string()),
                };
                PendingOccurrence {
                    group,
                    for_group: r.for_group,
                    version: r.version,
                    trace,
                    info,
                }
            })
            .collect();
        (pending, store.stats())
    }

    #[test]
    fn raw_byte_dedup_matches_putting_every_report() {
        // Default retention, and a per-group cap of 1 that evicts a
        // group's entry between two copies of its trace, so the copy
        // after the eviction must be stored anew.
        for config in [
            StoreConfig::default(),
            StoreConfig {
                per_group_cap: 1,
                ..StoreConfig::default()
            },
        ] {
            // An armed plan with no faults records how decoding accounted
            // for the tampered copies; both paths must account alike.
            let _l = crate::testsync::chaos_lock();
            let chaos = || er_chaos::stats().unwrap().domain(er_chaos::Domain::Trace);
            let g = er_chaos::arm(er_chaos::ChaosPlan::new(1));
            let (want, want_stats) = reference(mirrored_batch(), config.clone());
            let want_chaos = chaos();
            drop(g);
            let g = er_chaos::arm(er_chaos::ChaosPlan::new(1));
            let mut ingestor = Ingestor::new(IngestConfig::default());
            for r in mirrored_batch() {
                assert!(ingestor.offer(r));
            }
            let mut store = TraceStore::new(config);
            let got = ingestor.drain(&mut Triage::new(), &mut store);
            assert_eq!(format!("{:?}", chaos()), format!("{want_chaos:?}"));
            assert!(want_chaos.handled() >= 2, "{want_chaos:?}");
            drop(g);
            assert_eq!(format!("{got:?}"), format!("{want:?}"));
            assert_eq!(store.stats(), want_stats);
            assert!(want_stats.dedup_hits >= 5, "{want_stats:?}");
            let undecodable = want.iter().filter(|p| p.trace.is_err()).count();
            assert!(undecodable >= 1);
            assert_eq!(ingestor.stats().decode_errors, undecodable as u64);
        }
    }
}
