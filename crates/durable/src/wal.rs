//! The write-ahead log: append-with-flush, torn-tail recovery, and the
//! simulated crash point.
//!
//! ## Durability model (fsync simulation)
//!
//! Appends write one framed record and `flush` it — the same
//! retry-or-degrade I/O discipline as the trace store's spill layer
//! ([`er_chaos::retry`] with bounded attempts). `flush` on this simulated
//! fleet plays the role of `fsync`: the *fsync point* is modeled, not
//! enforced against real power loss — see DESIGN.md §12 for the caveat.
//! What the model does enforce, via [`er_chaos::Fault::WalTear`], is the
//! crash-consistency contract: a crash can land mid-append, leaving a torn
//! frame that [`Wal::open`] must silently truncate, and everything already
//! acknowledged must survive.

use crate::event::DurableEvent;
use crate::record;
use std::fs::OpenOptions;
use std::io::Write;
use std::path::{Path, PathBuf};

/// How many attempts an append or open gives a transiently failing log
/// device (mirrors the spill layer's policy).
pub const WAL_IO_ATTEMPTS: u32 = 3;

/// Panic payload for a simulated crash ([`er_chaos::Fault::WalTear`]): the
/// "process" dies mid-append; a kill-restart harness catches the unwind at
/// its `catch_unwind` boundary, re-opens the WAL, and resumes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashSignal {
    /// Records fully appended before the torn one.
    pub records_appended: u64,
}

/// What [`Wal::open`] found and repaired.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryInfo {
    /// Complete records recovered.
    pub records: u64,
    /// Bytes of torn tail truncated (0 = the log was clean).
    pub torn_bytes: u64,
    /// Records whose frame was intact but whose payload failed to decode
    /// (truncated away with everything after them).
    pub undecodable: u64,
}

/// An append-only, checksummed event log.
#[derive(Debug)]
pub struct Wal {
    path: PathBuf,
    records: u64,
}

impl Wal {
    /// Creates (or truncates) the log at `path`.
    ///
    /// # Errors
    ///
    /// Propagates the underlying I/O error once retries are exhausted.
    pub fn create(path: &Path) -> std::io::Result<Wal> {
        er_chaos::retry(WAL_IO_ATTEMPTS, |_| std::fs::write(path, []))?;
        Ok(Wal {
            path: path.to_path_buf(),
            records: 0,
        })
    }

    /// Opens an existing log, truncating any torn tail, and returns the
    /// surviving events in append order.
    ///
    /// # Errors
    ///
    /// Propagates the underlying I/O error once retries are exhausted. A
    /// torn or partially corrupt log is NOT an error — that is the case
    /// this layer exists for.
    pub fn open(path: &Path) -> std::io::Result<(Wal, Vec<DurableEvent>, RecoveryInfo)> {
        let bytes = er_chaos::retry(WAL_IO_ATTEMPTS, |_| std::fs::read(path))?;
        let scan = record::scan(&bytes);
        let mut events = Vec::with_capacity(scan.records.len());
        let mut clean_len = 0usize;
        let mut undecodable = 0u64;
        for payload in &scan.records {
            match DurableEvent::decode(payload) {
                Ok(ev) => {
                    events.push(ev);
                    clean_len += record::HEADER_LEN + payload.len();
                }
                Err(e) => {
                    // A frame that checksums but does not decode is as
                    // untrustworthy as a torn one; keep the prefix only.
                    er_telemetry::log!(warn, "wal record {} undecodable: {e}", events.len());
                    undecodable += 1;
                    break;
                }
            }
        }
        let torn_bytes = (bytes.len() - clean_len) as u64;
        if torn_bytes > 0 {
            er_telemetry::counter!("durable.torn_tail_truncated").incr();
            er_telemetry::log!(
                warn,
                "wal torn tail: truncating {torn_bytes} bytes after {} records",
                events.len()
            );
            let file = OpenOptions::new().write(true).open(path)?;
            er_chaos::retry(WAL_IO_ATTEMPTS, |_| file.set_len(clean_len as u64))?;
            if er_chaos::armed() {
                // The torn write was (or could have been) injected; its
                // recovery is complete here.
                er_chaos::note_recovered(er_chaos::Domain::Store);
            }
        }
        er_telemetry::counter!("durable.opens").incr();
        let records = events.len() as u64;
        Ok((
            Wal {
                path: path.to_path_buf(),
                records,
            },
            events,
            RecoveryInfo {
                records,
                torn_bytes,
                undecodable,
            },
        ))
    }

    /// Appends one event and flushes it — the record's fsync point: once
    /// this returns, the event survives a crash.
    ///
    /// Under an armed [`er_chaos::Fault::WalTear`] policy, the append may
    /// instead write a torn prefix of the frame and *crash the process*
    /// (an unwind carrying [`CrashSignal`]); the entropy picks how much of
    /// the frame lands.
    ///
    /// # Errors
    ///
    /// Propagates the underlying I/O error once retries are exhausted.
    pub fn append(&mut self, ev: &DurableEvent) -> std::io::Result<()> {
        let frame = record::frame(&ev.encode());
        if let Some(entropy) = er_chaos::inject(er_chaos::Fault::WalTear) {
            // Power loss mid-write: some prefix of the frame (possibly
            // empty, never the whole frame) reaches the log, then the
            // process dies.
            let cut = (entropy as usize) % frame.len();
            let _ = self.write_all(&frame[..cut]);
            er_telemetry::counter!("durable.wal_tears").incr();
            er_telemetry::log!(
                warn,
                "wal tear injected at record {} ({cut}/{} bytes landed)",
                self.records,
                frame.len()
            );
            std::panic::panic_any(CrashSignal {
                records_appended: self.records,
            });
        }
        self.write_all(&frame)?;
        self.records += 1;
        er_telemetry::counter!("durable.appends").incr();
        Ok(())
    }

    fn write_all(&self, bytes: &[u8]) -> std::io::Result<()> {
        er_chaos::retry(WAL_IO_ATTEMPTS, |attempt| {
            if attempt > 0 && er_chaos::armed() {
                er_chaos::note_recovered(er_chaos::Domain::Store);
            }
            let mut f = OpenOptions::new().append(true).open(&self.path)?;
            f.write_all(bytes)?;
            f.flush()
        })
    }

    /// Records appended (or recovered) so far.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// The log's path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::ConsumeOutcome;

    /// A per-process scratch path, so concurrent test processes (two
    /// `cargo test` runs, or CI's parallel rounds) never share a file.
    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("er-durable-tests-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("tmp dir");
        dir.join(name)
    }

    fn ev(run_index: u64) -> DurableEvent {
        DurableEvent::OccurrenceConsumed {
            group: 7,
            run_index,
            outcome: ConsumeOutcome::NeedMore,
        }
    }

    #[test]
    fn append_then_open_round_trips() {
        // `Wal::append` consults the process-global chaos plan.
        let _l = crate::testsync::chaos_lock();
        let path = tmp("round_trip.wal");
        let mut wal = Wal::create(&path).expect("create");
        for i in 0..5 {
            wal.append(&ev(i)).expect("append");
        }
        assert_eq!(wal.records(), 5);
        let (wal2, events, info) = Wal::open(&path).expect("open");
        assert_eq!(wal2.records(), 5);
        assert_eq!(info.torn_bytes, 0);
        assert_eq!(events, (0..5).map(ev).collect::<Vec<_>>());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn reopened_wal_keeps_appending() {
        // `Wal::append` consults the process-global chaos plan.
        let _l = crate::testsync::chaos_lock();
        let path = tmp("reopen_append.wal");
        let mut wal = Wal::create(&path).expect("create");
        wal.append(&ev(0)).expect("append");
        drop(wal);
        let (mut wal, _, _) = Wal::open(&path).expect("open");
        wal.append(&ev(1)).expect("append");
        let (_, events, _) = Wal::open(&path).expect("open again");
        assert_eq!(events, vec![ev(0), ev(1)]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_tail_is_truncated_on_open() {
        // `Wal::append` consults the process-global chaos plan.
        let _l = crate::testsync::chaos_lock();
        let path = tmp("torn_tail.wal");
        let mut wal = Wal::create(&path).expect("create");
        wal.append(&ev(0)).expect("append");
        wal.append(&ev(1)).expect("append");
        // Simulate the crash: half of a third frame lands.
        let frame = record::frame(&ev(2).encode());
        let mut bytes = std::fs::read(&path).expect("read");
        let clean = bytes.len();
        bytes.extend_from_slice(&frame[..frame.len() / 2]);
        std::fs::write(&path, &bytes).expect("write");
        let (wal, events, info) = Wal::open(&path).expect("open");
        assert_eq!(events, vec![ev(0), ev(1)]);
        assert_eq!(info.torn_bytes, (bytes.len() - clean) as u64);
        assert_eq!(wal.records(), 2);
        // The file itself was repaired: a second open is clean.
        let (_, _, info2) = Wal::open(&path).expect("open repaired");
        assert_eq!(info2.torn_bytes, 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn injected_tear_crashes_and_recovers() {
        let _l = crate::testsync::chaos_lock();
        let path = tmp("chaos_tear.wal");
        let mut wal = Wal::create(&path).expect("create");
        wal.append(&ev(0)).expect("append");
        let guard = er_chaos::arm(
            er_chaos::ChaosPlan::new(0x7ea2)
                .with(er_chaos::Fault::WalTear, er_chaos::FaultPolicy::at_nth(1)),
        );
        wal.append(&ev(1)).expect("tear waits for its position");
        let crash = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| wal.append(&ev(2))))
            .expect_err("injected tear must crash the append");
        let signal = crash
            .downcast_ref::<CrashSignal>()
            .expect("crash carries the signal");
        assert_eq!(signal.records_appended, 2);
        // Restart: the two acknowledged records survive; the torn one is
        // gone without a trace.
        let (_, events, _) = Wal::open(&path).expect("open after crash");
        assert_eq!(events, vec![ev(0), ev(1)]);
        drop(guard);
        std::fs::remove_file(&path).ok();
    }
}
