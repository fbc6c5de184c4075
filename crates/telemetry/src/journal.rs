//! JSONL event journal: one JSON object per line, appended to a
//! per-process file under `ER_TELEMETRY_DIR` (default `telemetry/`).
//!
//! Only `Full` mode writes events. The file is opened lazily on the
//! first emission, so setting the environment before any instrumentation
//! fires is sufficient. Lines are flushed on every write — a crash while
//! reconstructing loses at most the event being written, which is the
//! property a failure-diagnosis journal needs.

use serde::{Deserialize, Serialize};
use std::fs;
use std::io::{BufWriter, Write as _};
use std::path::{Path, PathBuf};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One journal line.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Event {
    /// Nanoseconds since process telemetry start.
    pub ts_ns: u64,
    /// Event kind (currently `"span"`).
    pub kind: String,
    /// Span name, e.g. `"shepherd.symbex"`.
    pub name: String,
    /// Thread context label (workload name) at emission.
    pub ctx: String,
    /// Enclosing span's name, if any.
    pub parent: Option<String>,
    /// Nesting depth of the enclosing span (0 = top level).
    pub depth: u32,
    /// Span duration in nanoseconds.
    pub dur_ns: u64,
    /// Counter deltas attributable to this span (`Full` mode, local
    /// table), nonzero entries only.
    pub counters: Vec<(String, u64)>,
}

/// Nanoseconds since the process's telemetry epoch.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    let epoch = *EPOCH.get_or_init(Instant::now);
    u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

struct Sink {
    writer: BufWriter<fs::File>,
}

fn sink() -> &'static Mutex<Option<Sink>> {
    static S: OnceLock<Mutex<Option<Sink>>> = OnceLock::new();
    S.get_or_init(|| Mutex::new(None))
}

fn open_sink() -> Option<Sink> {
    let dir = std::env::var("ER_TELEMETRY_DIR").unwrap_or_else(|_| "telemetry".to_string());
    let dir = PathBuf::from(dir);
    if let Err(e) = fs::create_dir_all(&dir) {
        crate::log!(
            warn,
            "telemetry journal disabled: cannot create {dir:?}: {e}"
        );
        return None;
    }
    let path = dir.join(format!("er-journal-{}.jsonl", std::process::id()));
    match fs::OpenOptions::new().create(true).append(true).open(&path) {
        Ok(f) => Some(Sink {
            writer: BufWriter::new(f),
        }),
        Err(e) => {
            crate::log!(
                warn,
                "telemetry journal disabled: cannot open {path:?}: {e}"
            );
            None
        }
    }
}

/// Appends one event (no-op unless the journal can be opened).
pub fn emit(ev: &Event) {
    let mut guard = sink().lock().unwrap();
    if guard.is_none() {
        *guard = open_sink();
    }
    let Some(s) = guard.as_mut() else { return };
    if let Ok(line) = serde_json::to_string(ev) {
        let _ = writeln!(s.writer, "{line}");
        let _ = s.writer.flush();
    }
}

/// Flushes buffered events to disk.
pub fn flush() {
    if let Some(s) = sink().lock().unwrap().as_mut() {
        let _ = s.writer.flush();
    }
}

/// Parses a journal file back into events. Malformed lines are
/// reported in the error rather than silently skipped.
pub fn read_journal(path: &Path) -> Result<Vec<Event>, String> {
    let text = fs::read_to_string(path).map_err(|e| format!("read {path:?}: {e}"))?;
    text.lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
        .map(|(i, l)| {
            serde_json::from_str::<Event>(l).map_err(|e| format!("{path:?}:{}: {e}", i + 1))
        })
        .collect()
}

/// Reads every `er-journal-*.jsonl` under `dir`, sorted by file name.
pub fn read_journal_dir(dir: &Path) -> Result<Vec<Event>, String> {
    let mut paths: Vec<PathBuf> = fs::read_dir(dir)
        .map_err(|e| format!("read dir {dir:?}: {e}"))?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("er-journal-") && n.ends_with(".jsonl"))
        })
        .collect();
    paths.sort();
    let mut events = Vec::new();
    for p in paths {
        events.extend(read_journal(&p)?);
    }
    Ok(events)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_round_trip_through_jsonl() {
        let ev = Event {
            ts_ns: 123,
            kind: "span".to_string(),
            name: "shepherd.symbex".to_string(),
            ctx: "Libpng-2004-0597".to_string(),
            parent: Some("reconstruct.iteration".to_string()),
            depth: 1,
            dur_ns: 456_789,
            counters: vec![("symex.steps".to_string(), 42)],
        };
        let line = serde_json::to_string(&ev).unwrap();
        let back: Event = serde_json::from_str(&line).unwrap();
        assert_eq!(back, ev);
    }

    #[test]
    fn missing_parent_round_trips_as_none() {
        let ev = Event {
            ts_ns: 0,
            kind: "span".to_string(),
            name: "x".to_string(),
            ctx: String::new(),
            parent: None,
            depth: 0,
            dur_ns: 1,
            counters: vec![],
        };
        let line = serde_json::to_string(&ev).unwrap();
        let back: Event = serde_json::from_str(&line).unwrap();
        assert_eq!(back.parent, None);
    }

    #[test]
    fn now_ns_is_monotonic() {
        let a = now_ns();
        let b = now_ns();
        assert!(b >= a);
    }
}
