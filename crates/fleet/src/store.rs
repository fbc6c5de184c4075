//! The deduplicating trace store.
//!
//! Every ingested trace is stored as its *compressed decoded events*
//! (`er_pt::compress`): exactly what `PtTrace::decode` yields and the
//! shepherd reads, a wrapped ring's lost prefix included as the leading
//! `Gap`. Entries live under a content address (FNV-1a of the compressed
//! bytes). Reoccurrences of the same failure produce identical events,
//! even where scheduling noise (timestamps, quantum-boundary resumes) made
//! their PT bytes differ, so the store keeps one copy and counts a dedup
//! hit. Retention is bounded twice: a per-group cap (old reoccurrences of
//! a well-sampled failure are worthless) and a global in-memory byte
//! budget, beyond which the oldest unpinned traces are evicted — spilled
//! to disk when a spill directory is configured, dropped otherwise.
//! Traces referenced by a scheduler's pending queue are *pinned* and never
//! evicted, so an investigation can always retrieve the occurrence it is
//! about to consume.

use er_pt::compress::{compress_events, decompress_events};
use er_pt::TraceEvent;
use std::borrow::Cow;
use std::collections::{HashMap, VecDeque};
use std::path::PathBuf;

/// Retention policy of a [`TraceStore`].
#[derive(Debug, Clone)]
pub struct StoreConfig {
    /// Maximum retained traces per failure group (oldest evicted first).
    pub per_group_cap: usize,
    /// In-memory compressed-byte budget across all groups.
    pub byte_budget: usize,
    /// Where evicted traces spill; `None` drops them instead.
    pub spill_dir: Option<PathBuf>,
}

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig {
            per_group_cap: 4,
            byte_budget: 64 << 20,
            spill_dir: None,
        }
    }
}

/// Handle to one stored trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TraceId(pub u64);

/// Why a stored trace could not be retrieved. Every variant is a typed,
/// recoverable condition: the scheduler reports the occurrence as
/// undecodable and the session retries with the next reoccurrence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// Never stored, or evicted without a spill directory.
    Missing,
    /// Spilled to disk, but the spill file could not be read back (even
    /// after retries).
    SpillUnreadable {
        /// The unreadable spill file.
        path: PathBuf,
    },
    /// Trace bytes failed to decompress.
    Corrupt,
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Missing => write!(f, "trace evicted or never stored"),
            StoreError::SpillUnreadable { path } => {
                write!(f, "spill file unreadable: {}", path.display())
            }
            StoreError::Corrupt => write!(f, "stored trace failed to decompress"),
        }
    }
}

impl std::error::Error for StoreError {}

/// Attempts per spill-file read or write before giving up — the retry half
/// of the store's retry-or-degrade policy for transient disk trouble.
const SPILL_IO_ATTEMPTS: u32 = 3;

/// Cumulative store statistics (serialized into the fleet report).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize)]
pub struct StoreStats {
    /// `put` calls.
    pub puts: u64,
    /// Puts resolved by content-address dedup.
    pub dedup_hits: u64,
    /// Traces evicted (spilled or dropped).
    pub evictions: u64,
    /// Evicted traces written to the spill directory.
    pub spills: u64,
    /// Spill writes that failed (after retries); the trace stayed in
    /// memory at degraded budget fidelity instead of being lost.
    pub spill_failures: u64,
    /// Decoded events offered, cumulative (ingestion-throughput numerator).
    pub events: u64,
    /// Raw PT trace bytes offered, cumulative.
    pub raw_bytes: u64,
    /// Compressed bytes actually stored, cumulative (dedup excluded).
    pub stored_bytes: u64,
}

impl StoreStats {
    /// Raw/compressed ratio over everything offered; >1 is compression.
    /// Dedup hits count their raw bytes but store nothing, so fleet-wide
    /// redundancy amplifies this beyond the per-trace codec ratio.
    pub fn compression_ratio(&self) -> f64 {
        if self.stored_bytes == 0 {
            return 1.0;
        }
        self.raw_bytes as f64 / self.stored_bytes as f64
    }
}

/// What [`TraceStore::put`] did with an offered trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PutResult {
    /// Handle for later retrieval.
    pub id: TraceId,
    /// The identical trace was already stored; no new bytes were kept.
    pub deduped: bool,
    /// Compressed size of the offered trace.
    pub compressed_len: usize,
    /// Raw PT size of the offered trace.
    pub raw_len: usize,
    /// Decoded events of the offered trace.
    pub events: usize,
}

#[derive(Debug)]
enum Slot {
    Mem(Vec<u8>),
    Disk(PathBuf),
}

#[derive(Debug)]
struct Entry {
    group: u64,
    addr: u64,
    data: Slot,
    pinned: u32,
}

impl Entry {
    /// The stored compressed bytes: borrowed from memory, read back from
    /// the spill file otherwise (`None` if that read fails).
    fn bytes(&self) -> Option<Cow<'_, [u8]>> {
        match &self.data {
            Slot::Mem(b) => Some(Cow::Borrowed(b)),
            Slot::Disk(p) => read_spill(p).ok().map(Cow::Owned),
        }
    }
}

/// The content-addressed, deduplicating, budgeted trace store.
#[derive(Debug)]
pub struct TraceStore {
    config: StoreConfig,
    entries: HashMap<u64, Entry>,
    /// Insertion order, oldest first — the eviction scan order.
    order: VecDeque<u64>,
    by_addr: HashMap<u64, Vec<u64>>,
    per_group: HashMap<u64, VecDeque<u64>>,
    mem_bytes: usize,
    seq: u64,
    stats: StoreStats,
}

impl TraceStore {
    /// An empty store with the given retention policy.
    pub fn new(config: StoreConfig) -> TraceStore {
        TraceStore {
            config,
            entries: HashMap::new(),
            order: VecDeque::new(),
            by_addr: HashMap::new(),
            per_group: HashMap::new(),
            mem_bytes: 0,
            seq: 0,
            stats: StoreStats::default(),
        }
    }

    /// Stores the decoded events of one occurrence of `group`, compressing
    /// and deduplicating them; `raw_len` is the size of the PT trace they
    /// were decoded from.
    pub fn put(&mut self, group: u64, events: &[TraceEvent], raw_len: usize) -> PutResult {
        self.insert(group, compress_events(events), raw_len, events.len())
    }

    /// Stores compressed events under their content address, or counts a
    /// dedup hit on the identical entry of the same group.
    fn insert(
        &mut self,
        group: u64,
        compressed: Vec<u8>,
        raw_len: usize,
        events: usize,
    ) -> PutResult {
        let addr = er_durable::fnv64(&compressed);
        self.count_put(raw_len, events);
        let hit = self.by_addr.get(&addr).and_then(|ids| {
            ids.iter().copied().find(|id| {
                let e = &self.entries[id];
                e.group == group && e.bytes().as_deref() == Some(&compressed[..])
            })
        });
        let compressed_len = compressed.len();
        if let Some(id) = hit {
            self.count_dedup_hit();
            return PutResult {
                id: TraceId(id),
                deduped: true,
                compressed_len,
                raw_len,
                events,
            };
        }

        let id = self.seq;
        self.seq += 1;
        self.stats.stored_bytes += compressed_len as u64;
        er_telemetry::counter!("fleet.store.bytes_compressed").add(compressed_len as u64);
        self.mem_bytes += compressed_len;
        self.entries.insert(
            id,
            Entry {
                group,
                addr,
                data: Slot::Mem(compressed),
                pinned: 0,
            },
        );
        self.order.push_back(id);
        self.by_addr.entry(addr).or_default().push(id);
        self.per_group.entry(group).or_default().push_back(id);
        self.enforce_caps(group);
        PutResult {
            id: TraceId(id),
            deduped: false,
            compressed_len,
            raw_len,
            events,
        }
    }

    fn count_put(&mut self, raw_len: usize, events: usize) {
        self.stats.puts += 1;
        self.stats.events += events as u64;
        self.stats.raw_bytes += raw_len as u64;
        er_telemetry::counter!("fleet.store.puts").incr();
        er_telemetry::counter!("fleet.store.bytes_raw").add(raw_len as u64);
    }

    fn count_dedup_hit(&mut self) {
        self.stats.dedup_hits += 1;
        er_telemetry::counter!("fleet.store.dedup_hits").incr();
    }

    /// Puts again the events of an earlier [`put`](Self::put) that
    /// returned `prev`, without decoding or compressing them again:
    /// ingestion calls this for a crash report whose raw trace bytes equal
    /// an earlier report's, so its events are known to be identical.
    /// Counts exactly what a dedup-hit `put` counts and returns what it
    /// returns, or returns `None` and counts nothing where `put` might
    /// resolve otherwise: the entry is gone, spilled (`put` would read it
    /// back, and a failed read makes a new entry), or not the first of its
    /// address and group (`put` would compare that one first). The caller
    /// then `put`s.
    pub fn put_duplicate(&mut self, prev: &PutResult, group: u64) -> Option<PutResult> {
        let e = self.entries.get(&prev.id.0)?;
        if e.group != group || !matches!(e.data, Slot::Mem(_)) {
            return None;
        }
        let first = self
            .by_addr
            .get(&e.addr)?
            .iter()
            .copied()
            .find(|id| self.entries.get(id).is_some_and(|c| c.group == group));
        if first != Some(prev.id.0) {
            return None;
        }
        self.count_put(prev.raw_len, prev.events);
        self.count_dedup_hit();
        Some(PutResult {
            deduped: true,
            ..*prev
        })
    }

    /// The stored compressed events of a trace: what a durability layer
    /// journals so a restarted scheduler can store the identical bytes
    /// again (content addressing then yields the identical [`TraceId`]),
    /// and what an analysis worker decompresses.
    ///
    /// # Errors
    ///
    /// [`StoreError::Missing`] if the trace was evicted without a spill
    /// directory (or never existed), [`StoreError::SpillUnreadable`] if
    /// the spill file failed to read back after retries.
    pub fn compressed_bytes(&self, id: TraceId) -> Result<Vec<u8>, StoreError> {
        let e = self.entries.get(&id.0).ok_or(StoreError::Missing)?;
        match &e.data {
            Slot::Mem(b) => Ok(b.clone()),
            Slot::Disk(p) => read_spill(p),
        }
    }

    /// Stores compressed events recovered from a WAL as they are, after
    /// checking that they decompress: identical bytes for the same group
    /// dedup to the already-stored copy, exactly as [`put`](Self::put)
    /// would. The trace's raw PT size is not journaled, so it counts as
    /// its compressed size.
    ///
    /// # Errors
    ///
    /// [`StoreError::Corrupt`] if the bytes do not decompress — a WAL
    /// record damaged beyond its checksum's ability to notice.
    pub fn put_compressed(
        &mut self,
        group: u64,
        compressed: &[u8],
    ) -> Result<PutResult, StoreError> {
        let events = decompress_events(compressed)
            .map_err(|_| StoreError::Corrupt)?
            .len();
        Ok(self.insert(group, compressed.to_vec(), compressed.len(), events))
    }

    /// Marks a trace in use by a pending occurrence: it will not be
    /// evicted until [`unpin`](Self::unpin)ned as many times.
    pub fn pin(&mut self, id: TraceId) {
        if let Some(e) = self.entries.get_mut(&id.0) {
            e.pinned += 1;
        }
    }

    /// Releases one pin.
    pub fn unpin(&mut self, id: TraceId) {
        if let Some(e) = self.entries.get_mut(&id.0) {
            e.pinned = e.pinned.saturating_sub(1);
        }
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> StoreStats {
        self.stats
    }

    /// Compressed bytes currently held in memory.
    pub fn mem_bytes(&self) -> usize {
        self.mem_bytes
    }

    fn enforce_caps(&mut self, group: u64) {
        // Entries that refused eviction this call (spill write failed and
        // the degraded policy kept them in memory); skipping them keeps
        // both loops terminating under persistent disk failure.
        let mut refused: Vec<u64> = Vec::new();
        // Per-group retention counts *in-memory* traces: oldest unpinned
        // beyond the cap are evicted first (spilled copies don't count).
        let in_mem = |entries: &HashMap<u64, Entry>, id: &u64| {
            entries
                .get(id)
                .is_some_and(|e| matches!(e.data, Slot::Mem(_)))
        };
        while self.per_group.get(&group).is_some_and(|q| {
            q.iter().filter(|id| in_mem(&self.entries, id)).count() > self.config.per_group_cap
        }) {
            let victim = self.per_group.get(&group).and_then(|q| {
                q.iter()
                    .find(|id| {
                        !refused.contains(id)
                            && in_mem(&self.entries, id)
                            && self.entries.get(id).is_some_and(|e| e.pinned == 0)
                    })
                    .copied()
            });
            match victim {
                Some(v) => {
                    if !self.evict(v) {
                        refused.push(v);
                    }
                }
                None => break, // everything pinned or refusing: over cap but safe
            }
        }
        // Global byte budget: evict oldest unpinned in-memory entries.
        while self.mem_bytes > self.config.byte_budget {
            let victim = self.order.iter().copied().find(|id| {
                !refused.contains(id)
                    && self
                        .entries
                        .get(id)
                        .is_some_and(|e| e.pinned == 0 && matches!(e.data, Slot::Mem(_)))
            });
            match victim {
                Some(v) => {
                    if !self.evict(v) {
                        refused.push(v);
                    }
                }
                None => break,
            }
        }
    }

    /// Evicts one entry: spilled to disk, dropped, or — when the spill
    /// write fails after retries — kept in memory as the degraded
    /// fallback. Returns whether memory was actually freed.
    fn evict(&mut self, id: u64) -> bool {
        let Some(mut e) = self.entries.remove(&id) else {
            return true;
        };
        if let Slot::Mem(bytes) = &e.data {
            let len = bytes.len();
            if let Some(dir) = &self.config.spill_dir {
                let _ = std::fs::create_dir_all(dir);
                let path = dir.join(format!("trace-{id}.erz"));
                if write_spill(&path, bytes) {
                    self.mem_bytes -= len;
                    self.stats.evictions += 1;
                    self.stats.spills += 1;
                    er_telemetry::counter!("fleet.store.evictions").incr();
                    er_telemetry::counter!("fleet.store.spills").incr();
                    e.data = Slot::Disk(path);
                    self.entries.insert(id, e);
                    return true;
                }
                // Degraded: losing a trace is worse than blowing the byte
                // budget, so a failed spill keeps its entry in memory; the
                // caller skips it and retries eviction on a later put.
                self.stats.spill_failures += 1;
                er_telemetry::counter!("fleet.store.spill_failures").incr();
                er_telemetry::log!(warn, "spill write failed for trace {id}; keeping in memory");
                self.entries.insert(id, e);
                return false;
            }
            self.mem_bytes -= len;
            self.stats.evictions += 1;
            er_telemetry::counter!("fleet.store.evictions").incr();
        }
        // Dropped entirely: forget the content address and group slot.
        if let Some(ids) = self.by_addr.get_mut(&e.addr) {
            ids.retain(|&i| i != id);
        }
        if let Some(q) = self.per_group.get_mut(&e.group) {
            q.retain(|&i| i != id);
        }
        self.order.retain(|&i| i != id);
        true
    }
}

/// Reads one spill file with bounded retries; an armed chaos plan can fail
/// individual attempts ([`er_chaos::Fault::SpillRead`]).
fn read_spill(path: &std::path::Path) -> Result<Vec<u8>, StoreError> {
    let mut injected = false;
    let result = er_chaos::retry(SPILL_IO_ATTEMPTS, |_| {
        if er_chaos::inject(er_chaos::Fault::SpillRead).is_some() {
            injected = true;
            return Err(StoreError::SpillUnreadable {
                path: path.to_path_buf(),
            });
        }
        std::fs::read(path).map_err(|_| StoreError::SpillUnreadable {
            path: path.to_path_buf(),
        })
    });
    if injected {
        match &result {
            Ok(_) => er_chaos::note_recovered(er_chaos::Domain::Store),
            Err(_) => er_chaos::note_typed_error(er_chaos::Domain::Store),
        }
    }
    result
}

/// Writes one spill file with bounded retries; an armed chaos plan can
/// fail individual attempts ([`er_chaos::Fault::SpillWrite`]). The caller
/// degrades to keeping the trace in memory on `false`.
fn write_spill(path: &std::path::Path, bytes: &[u8]) -> bool {
    let mut injected = false;
    let result = er_chaos::retry(SPILL_IO_ATTEMPTS, |_| {
        if er_chaos::inject(er_chaos::Fault::SpillWrite).is_some() {
            injected = true;
            return Err(());
        }
        std::fs::write(path, bytes).map_err(|_| ())
    });
    if injected {
        match result {
            Ok(()) => er_chaos::note_recovered(er_chaos::Domain::Store),
            Err(()) => er_chaos::note_degraded(er_chaos::Domain::Store),
        }
    }
    result.is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn events(n: u64) -> Vec<TraceEvent> {
        (0..n).map(|i| TraceEvent::Call((i % 7) as u32)).collect()
    }

    /// Stores `events` as a trace of `events.len()` raw bytes.
    fn put(s: &mut TraceStore, group: u64, events: &[TraceEvent]) -> PutResult {
        s.put(group, events, events.len())
    }

    /// A stored trace's events.
    fn get(s: &TraceStore, id: TraceId) -> Result<Vec<TraceEvent>, StoreError> {
        s.compressed_bytes(id)
            .map(|bytes| decompress_events(&bytes).expect("stored bytes decompress"))
    }

    #[test]
    fn identical_streams_dedup() {
        let mut s = TraceStore::new(StoreConfig::default());
        let a = put(&mut s, 1, &events(50));
        let b = put(&mut s, 1, &events(50));
        assert!(!a.deduped && b.deduped);
        assert_eq!(a.id, b.id);
        assert_eq!(s.stats().dedup_hits, 1);
        // Same bytes for a *different group* are a different occurrence.
        let c = put(&mut s, 2, &events(50));
        assert!(!c.deduped);
    }

    #[test]
    fn put_duplicate_counts_only_where_put_would_hit() {
        let mut s = TraceStore::new(StoreConfig {
            per_group_cap: 1,
            ..StoreConfig::default()
        });
        let p = events(50);
        let first = put(&mut s, 1, &p);
        let before = s.stats();
        // Another group is another entry to `put`.
        assert_eq!(s.put_duplicate(&first, 2), None);
        assert_eq!(s.stats(), before);
        let dup = s.put_duplicate(&first, 1).expect("stored");
        let mut reference = TraceStore::new(StoreConfig::default());
        put(&mut reference, 1, &p);
        let hit = put(&mut reference, 1, &p);
        assert_eq!(dup, hit);
        assert_eq!(s.stats(), reference.stats());
        // Once the per-group cap drops the entry, only `put` can store it.
        put(&mut s, 1, &events(51));
        assert_eq!(s.put_duplicate(&first, 1), None);
    }

    #[test]
    fn put_duplicate_declines_spilled_entries() {
        // Serialized with the chaos tests: an armed spill fault would
        // reach these spills too.
        let _l = crate::testsync::chaos_lock();
        let dir = std::env::temp_dir().join(format!("er-fleet-dup-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut s = TraceStore::new(StoreConfig {
            per_group_cap: 1,
            byte_budget: 1 << 20,
            spill_dir: Some(dir.clone()),
        });
        let p = events(30);
        let first = put(&mut s, 1, &p);
        put(&mut s, 1, &events(31));
        assert_eq!(s.stats().spills, 1);
        // `put` would read the spill file back (and may fail to): decline.
        assert_eq!(s.put_duplicate(&first, 1), None);
        assert!(put(&mut s, 1, &p).deduped);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn put_duplicate_declines_entries_put_would_not_reach_first() {
        // Serialized with the chaos tests: an armed spill fault would
        // reach these spills too.
        let _l = crate::testsync::chaos_lock();
        let dir = std::env::temp_dir().join(format!("er-fleet-dup2-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut s = TraceStore::new(StoreConfig {
            per_group_cap: 1,
            byte_budget: 1 << 20,
            spill_dir: Some(dir.clone()),
        });
        let p = events(30);
        let spilled = put(&mut s, 1, &p).id;
        put(&mut s, 1, &events(31));
        assert_eq!(s.stats().spills, 1);
        // While the spilled copy cannot be read back, a put of the same
        // events stores a second copy, behind the first under the same
        // address.
        let path = dir.join(format!("trace-{}.erz", spilled.0));
        let saved = std::fs::read(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        let second = put(&mut s, 1, &p);
        assert!(!second.deduped);
        std::fs::write(&path, saved).unwrap();
        // `put` now compares the readable first copy first and resolves
        // to it, so the second copy is not a known hit.
        assert_eq!(s.put_duplicate(&second, 1), None);
        assert_eq!(put(&mut s, 1, &p).id, spilled);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn round_trips_events_with_a_leading_gap() {
        let mut s = TraceStore::new(StoreConfig::default());
        let mut p = events(20);
        p.insert(0, TraceEvent::Gap);
        let r = put(&mut s, 1, &p);
        assert_eq!(get(&s, r.id).unwrap(), p);
        assert_eq!(r.events, p.len());
        // A stream without the gap is another trace.
        assert!(!put(&mut s, 1, &p[1..]).deduped);
    }

    #[test]
    fn recovered_bytes_keep_their_address() {
        let mut s = TraceStore::new(StoreConfig::default());
        let first = put(&mut s, 1, &events(20));
        let bytes = s.compressed_bytes(first.id).unwrap();
        let again = s.put_compressed(1, &bytes).unwrap();
        assert!(again.deduped);
        assert_eq!((again.id, again.events), (first.id, 20));
        let mut fresh = TraceStore::new(StoreConfig::default());
        assert_eq!(fresh.put_compressed(1, &bytes).unwrap().id, first.id);
        assert_eq!(fresh.compressed_bytes(first.id).unwrap(), bytes);
        let cut = &bytes[..bytes.len() - 1];
        assert_eq!(fresh.put_compressed(1, cut), Err(StoreError::Corrupt));
    }

    #[test]
    fn per_group_cap_evicts_oldest() {
        let mut s = TraceStore::new(StoreConfig {
            per_group_cap: 2,
            ..StoreConfig::default()
        });
        let ids: Vec<TraceId> = (0..4).map(|i| put(&mut s, 1, &events(10 + i)).id).collect();
        assert_eq!(get(&s, ids[0]), Err(StoreError::Missing), "oldest evicted");
        assert_eq!(get(&s, ids[1]), Err(StoreError::Missing));
        assert!(get(&s, ids[2]).is_ok() && get(&s, ids[3]).is_ok());
        assert_eq!(s.stats().evictions, 2);
    }

    #[test]
    fn pinned_traces_survive_budget_pressure() {
        let mut s = TraceStore::new(StoreConfig {
            per_group_cap: 100,
            byte_budget: 200,
            spill_dir: None,
        });
        let first = put(&mut s, 1, &events(40)).id;
        s.pin(first);
        for i in 0..5 {
            put(&mut s, 1, &events(41 + i));
        }
        assert!(get(&s, first).is_ok(), "pinned entry never evicted");
        s.unpin(first);
        put(&mut s, 1, &events(99));
        assert_eq!(
            get(&s, first),
            Err(StoreError::Missing),
            "unpinned entry is fair game"
        );
    }

    #[test]
    fn spill_dir_keeps_evicted_traces_readable() {
        // Serialized with the chaos tests: an armed spill fault would
        // reach these spills too.
        let _l = crate::testsync::chaos_lock();
        let dir = std::env::temp_dir().join(format!("er-fleet-spill-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut s = TraceStore::new(StoreConfig {
            per_group_cap: 1,
            byte_budget: 1 << 20,
            spill_dir: Some(dir.clone()),
        });
        let p = events(30);
        let first = put(&mut s, 1, &p).id;
        put(&mut s, 1, &events(31));
        assert_eq!(s.stats().spills, 1);
        let back = get(&s, first).expect("spilled trace readable");
        assert_eq!(back, p);
        // And spilled bytes still dedup against a reoffer.
        assert!(put(&mut s, 1, &p).deduped);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn deleted_spill_file_is_a_typed_error() {
        // Serialized with the chaos tests: an armed spill fault would
        // reach these spills too.
        let _l = crate::testsync::chaos_lock();
        let dir = std::env::temp_dir().join(format!("er-fleet-rm-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut s = TraceStore::new(StoreConfig {
            per_group_cap: 1,
            byte_budget: 1 << 20,
            spill_dir: Some(dir.clone()),
        });
        let first = put(&mut s, 1, &events(30)).id;
        put(&mut s, 1, &events(31));
        assert_eq!(s.stats().spills, 1);
        // An operator (or a disk) losing the spill file must surface as a
        // typed error, not a panic or a silent `None`.
        std::fs::remove_dir_all(&dir).unwrap();
        assert!(matches!(
            get(&s, first),
            Err(StoreError::SpillUnreadable { .. })
        ));
    }

    #[test]
    fn spill_read_fault_recovers_with_retry() {
        let _l = crate::testsync::chaos_lock();
        let dir = std::env::temp_dir().join(format!("er-fleet-cr-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut s = TraceStore::new(StoreConfig {
            per_group_cap: 1,
            byte_budget: 1 << 20,
            spill_dir: Some(dir.clone()),
        });
        let p = events(30);
        let first = put(&mut s, 1, &p).id;
        put(&mut s, 1, &events(31)); // evicts + spills `first`
        assert_eq!(s.stats().spills, 1);
        // Fewer injections than retry attempts: the read must recover.
        let _g = er_chaos::arm(er_chaos::ChaosPlan::new(3).with(
            er_chaos::Fault::SpillRead,
            er_chaos::FaultPolicy::always(u64::from(SPILL_IO_ATTEMPTS) - 1),
        ));
        let back = get(&s, first).expect("retry absorbs transient read faults");
        assert_eq!(back, p);
        let st = er_chaos::stats().unwrap().domain(er_chaos::Domain::Store);
        assert_eq!(st.injected, u64::from(SPILL_IO_ATTEMPTS) - 1);
        assert_eq!(st.recovered, 1);
        drop(_g);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn spill_write_fault_degrades_to_memory() {
        let _l = crate::testsync::chaos_lock();
        let dir = std::env::temp_dir().join(format!("er-fleet-cw-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut s = TraceStore::new(StoreConfig {
            per_group_cap: 1,
            byte_budget: 1 << 20,
            spill_dir: Some(dir.clone()),
        });
        let p = events(30);
        let first = put(&mut s, 1, &p).id;
        // Enough injections to exhaust every write attempt for both
        // eviction candidates the cap loop will try: every spill fails and
        // the degraded policy keeps both traces in memory.
        let _g = er_chaos::arm(er_chaos::ChaosPlan::new(3).with(
            er_chaos::Fault::SpillWrite,
            er_chaos::FaultPolicy::always(u64::from(SPILL_IO_ATTEMPTS) * 2),
        ));
        put(&mut s, 1, &events(31)); // tries to evict + spill `first`
        assert_eq!(s.stats().spills, 0);
        assert_eq!(s.stats().spill_failures, 2, "both candidates refused");
        let back = get(&s, first).expect("degraded entry still readable");
        assert_eq!(back, p);
        let st = er_chaos::stats().unwrap().domain(er_chaos::Domain::Store);
        assert_eq!(st.degraded, 2);
        drop(_g);
        // With chaos disarmed the next eviction pressure spills cleanly.
        put(&mut s, 1, &events(32));
        assert!(s.stats().spills >= 1);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
