//! The online tracing sink: packetizes interpreter events PT-style.

use crate::codec::{self, DecodeError, OP_PGE, OP_PSB, OP_PTW, OP_RET, OP_TIP, OP_TNT, OP_TSC};
use crate::packet::{EventStream, PacketSink, TraceEvent};
use crate::ring::RingBuffer;
use er_minilang::env::InputEvent;
use er_minilang::ir::FuncId;
use er_minilang::trace::TraceSink;

/// Configuration for [`PtSink`].
#[derive(Debug, Clone, Copy)]
pub struct PtConfig {
    /// Ring buffer capacity in bytes (the paper uses 64 MB).
    pub ring_bytes: usize,
    /// Emit a PSB sync packet every this many packets.
    pub psb_period: u32,
}

impl Default for PtConfig {
    fn default() -> Self {
        PtConfig {
            ring_bytes: 64 << 20,
            psb_period: 4096,
        }
    }
}

/// Counters describing what a run's tracing cost.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PtStats {
    /// Conditional branches traced.
    pub branches: u64,
    /// Calls traced.
    pub calls: u64,
    /// Returns traced.
    pub rets: u64,
    /// `ptwrite` payloads traced.
    pub ptwrites: u64,
    /// Thread resumes traced.
    pub resumes: u64,
    /// Packets emitted.
    pub packets: u64,
    /// Bytes emitted (before any ring-buffer overwrite).
    pub bytes: u64,
    /// Chaos faults applied to the finalized bytes ([`PtTrace::chaos_tamper`]);
    /// 0 outside fault-injection runs.
    pub chaos_tampered: u64,
}

/// An online PT encoder implementing the interpreter's [`TraceSink`].
///
/// Branch outcomes accumulate into TNT packets (~1 bit per branch); other
/// events flush the pending TNT run first so that event order survives the
/// round trip.
#[derive(Debug)]
pub struct PtSink {
    ring: RingBuffer,
    config: PtConfig,
    tnt_acc: u64,
    tnt_count: u32,
    packets_since_psb: u32,
    stats: PtStats,
}

impl PtSink {
    /// A sink with the given configuration; writes an initial PSB.
    pub fn new(config: PtConfig) -> Self {
        let mut s = PtSink {
            ring: RingBuffer::new(config.ring_bytes),
            config,
            tnt_acc: 0,
            tnt_count: 0,
            packets_since_psb: 0,
            stats: PtStats::default(),
        };
        s.emit(&[OP_PSB]);
        s
    }

    /// Writes one encoded packet straight into the ring. Callers encode
    /// on the stack (at most 10 bytes), in [`codec`]'s byte format.
    #[inline]
    fn emit(&mut self, packet: &[u8]) {
        self.put(packet);
        self.packets_since_psb += 1;
        if self.packets_since_psb >= self.config.psb_period {
            self.packets_since_psb = 0;
            self.put(&[OP_PSB]);
        }
    }

    #[inline]
    fn put(&mut self, packet: &[u8]) {
        self.ring.write(packet);
        self.stats.packets += 1;
        self.stats.bytes += packet.len() as u64;
    }

    /// Emits `op` followed by a little-endian 64-bit payload.
    #[inline]
    fn emit_u64(&mut self, op: u8, value: u64) {
        let mut p = [0u8; 9];
        p[0] = op;
        p[1..].copy_from_slice(&value.to_le_bytes());
        self.emit(&p);
    }

    fn flush_tnt(&mut self) {
        if self.tnt_count == 0 {
            return;
        }
        // Opcode, count, then ceil(count / 8) bit bytes.
        let nb = (self.tnt_count as usize).div_ceil(8);
        let mut p = [0u8; 10];
        p[0] = OP_TNT;
        p[1] = self.tnt_count as u8;
        p[2..].copy_from_slice(&self.tnt_acc.to_le_bytes());
        self.tnt_acc = 0;
        self.tnt_count = 0;
        self.emit(&p[..2 + nb]);
    }

    /// Finalizes the trace: flushes pending TNT bits and snapshots the ring.
    pub fn finish(mut self) -> PtTrace {
        self.flush_tnt();
        let trace = PtTrace {
            wrapped: self.ring.wrapped(),
            bytes: self.ring.snapshot(),
            stats: self.stats,
        };
        if er_telemetry::enabled() {
            // Batched per trace so the per-packet emit path stays bare.
            er_telemetry::counter!("pt.packets_encoded").add(self.stats.packets);
            er_telemetry::counter!("pt.trace_bytes").add(trace.bytes.len() as u64);
            er_telemetry::counter!("ring.overwrites").add(self.ring.overwrites());
            if trace.wrapped {
                er_telemetry::counter!("pt.wrapped_traces").incr();
            }
        }
        trace
    }

    /// Tracing counters so far.
    pub fn stats(&self) -> PtStats {
        self.stats
    }
}

impl TraceSink for PtSink {
    #[inline]
    fn cond_branch(&mut self, taken: bool) {
        self.stats.branches += 1;
        self.tnt_acc |= u64::from(taken) << self.tnt_count;
        self.tnt_count += 1;
        if self.tnt_count == 64 {
            self.flush_tnt();
        }
    }

    /// A word of TNT bits at once, flushed exactly where `n` single
    /// branches would flush them.
    #[inline]
    fn cond_branches(&mut self, taken: u64, n: u32) {
        self.stats.branches += u64::from(n);
        let room = 64 - self.tnt_count;
        self.tnt_acc |= taken << self.tnt_count;
        if n < room {
            self.tnt_count += n;
            return;
        }
        self.tnt_count = 64;
        self.flush_tnt();
        if n > room {
            self.tnt_acc = taken >> room;
            self.tnt_count = n - room;
        }
    }

    fn call(&mut self, func: FuncId) {
        self.stats.calls += 1;
        self.flush_tnt();
        let mut p = [0u8; 5];
        p[0] = OP_TIP;
        p[1..].copy_from_slice(&func.0.to_le_bytes());
        self.emit(&p);
    }

    fn ret(&mut self) {
        self.stats.rets += 1;
        self.flush_tnt();
        self.emit(&[OP_RET]);
    }

    fn ptwrite(&mut self, value: u64) {
        self.stats.ptwrites += 1;
        self.flush_tnt();
        self.emit_u64(OP_PTW, value);
    }

    fn thread_resume(&mut self, tid: u64, tsc: u64) {
        self.stats.resumes += 1;
        self.flush_tnt();
        self.emit_u64(OP_PGE, tid);
        self.emit_u64(OP_TSC, tsc);
    }

    #[inline]
    fn input(&mut self, _event: &InputEvent) {
        // Intel PT does not observe inputs; nothing to record.
    }
}

/// A finalized trace: the ring-buffer contents plus bookkeeping.
#[derive(Debug, Clone)]
pub struct PtTrace {
    /// Raw encoded bytes, oldest first.
    pub bytes: Vec<u8>,
    /// Whether the ring wrapped (oldest packets lost).
    pub wrapped: bool,
    /// Online tracing counters.
    pub stats: PtStats,
}

impl PtTrace {
    /// Walks the packets into `sink`, resynchronizing at a PSB if the
    /// ring wrapped.
    fn walk(&self, sink: &mut impl PacketSink) -> Result<(), DecodeError> {
        let result = self.walk_inner(sink);
        if self.stats.chaos_tampered > 0 {
            // Account for injected trace damage: either the decoder walked
            // through it (recovered) or it surfaced as a typed error.
            match &result {
                Ok(()) => er_chaos::note_recovered(er_chaos::Domain::Trace),
                Err(_) => er_chaos::note_typed_error(er_chaos::Domain::Trace),
            }
        }
        result
    }

    fn walk_inner(&self, sink: &mut impl PacketSink) -> Result<(), DecodeError> {
        if !self.wrapped {
            return codec::walk_from(&self.bytes, 0, sink);
        }
        let mut at = codec::resync(&self.bytes, 0).ok_or(DecodeError::NoSyncPoint)?;
        loop {
            match codec::walk_from(&self.bytes, at, sink) {
                Ok(()) => return Ok(()),
                // resync validates a bounded window, so an accepted sync
                // point can still run into damage further out; everything
                // up to the damage is part of the (already reported) gap,
                // and decoding restarts at the next sync point after it.
                Err(DecodeError::BadOpcode { at: bad, .. } | DecodeError::Corrupt { at: bad }) => {
                    sink.restart();
                    at = codec::resync(&self.bytes, bad + 1).ok_or(DecodeError::NoSyncPoint)?;
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Applies any armed Trace-domain chaos faults to the finalized bytes,
    /// in place. The deployment layer calls this on the failing occurrence
    /// that ships to ingestion — never on healthy runs — so injection
    /// budgets are spent on traces the pipeline actually has to survive.
    pub fn chaos_tamper(&mut self) {
        if !er_chaos::armed() || self.bytes.is_empty() {
            return;
        }
        if let Some(e) = er_chaos::inject(er_chaos::Fault::TraceCorrupt) {
            // Flip a few bytes at entropy-chosen offsets: models silent
            // DMA/transport corruption.
            let n = self.bytes.len() as u64;
            for k in 0..3u64 {
                let idx = (e.rotate_left(17 * k as u32) ^ k.wrapping_mul(0x9e37_79b9)) % n;
                self.bytes[idx as usize] ^= 0x5a;
            }
            self.stats.chaos_tampered += 1;
        }
        if let Some(e) = er_chaos::inject(er_chaos::Fault::TraceTruncate) {
            // Cut the tail short: models a snapshot racing the writer.
            let n = self.bytes.len();
            let keep = 1 + (e as usize) % n.max(1);
            self.bytes.truncate(keep.min(n.saturating_sub(1)).max(1));
            self.stats.chaos_tampered += 1;
        }
        if let Some(e) = er_chaos::inject(er_chaos::Fault::TraceReorder) {
            // Rotate the byte stream: models out-of-order chunk delivery.
            let n = self.bytes.len();
            if n >= 4 {
                self.bytes.rotate_left(1 + (e as usize) % (n - 2));
                // A rotated stream no longer starts at a packet boundary;
                // decoding must resynchronize like a wrapped ring.
                self.wrapped = true;
                self.stats.chaos_tampered += 1;
            }
        }
    }

    /// Decodes the byte stream straight into flattened [`TraceEvent`]s,
    /// resynchronizing at a PSB if the ring wrapped; a wrapped ring's
    /// events start with a [`TraceEvent::Gap`]. This is every consumer's
    /// decode: the serial session's, and fleet ingest's, which stores the
    /// events compressed ([`crate::compress::compress_events`]).
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] if the stream is corrupt or a wrapped
    /// stream contains no sync point.
    pub fn decode(&self) -> Result<DecodedTrace, DecodeError> {
        let _span = er_telemetry::span!("pt.decode");
        let mut out = EventStream::new(self.wrapped, self.event_capacity());
        self.walk(&mut out)?;
        let (events, packets) = out.finish();
        if er_telemetry::enabled() {
            er_telemetry::counter!("pt.packets_decoded").add(packets as u64);
            er_telemetry::counter!("pt.events_decoded").add(events.len() as u64);
        }
        Ok(DecodedTrace { events })
    }

    /// Room to reserve for the decoded events, from the sink's own
    /// counters: exact for an intact trace. A wrapped ring kept only a
    /// suffix of what the counters saw, so there the guess is one event
    /// per byte and the vector grows from it; a TNT byte carries at most 8
    /// branches, which bounds a damaged trace.
    fn event_capacity(&self) -> usize {
        let s = &self.stats;
        let counted = s.branches + s.calls + s.rets + s.ptwrites + s.resumes;
        let per_byte = if self.wrapped { 1 } else { 8 };
        let bound = self.bytes.len().saturating_mul(per_byte);
        usize::try_from(counted).map_or(bound, |c| c.min(bound)) + 1
    }
}

/// A decoded trace ready for offline analysis.
#[derive(Debug, Clone, Default)]
pub struct DecodedTrace {
    /// Flattened events, oldest first.
    pub events: Vec<TraceEvent>,
}

impl DecodedTrace {
    /// Number of conditional-branch events.
    pub fn branch_count(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e, TraceEvent::Branch(_)))
            .count()
    }

    /// All branch outcomes in order.
    pub fn branches(&self) -> Vec<bool> {
        self.events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Branch(b) => Some(*b),
                _ => None,
            })
            .collect()
    }

    /// All `ptwrite` payloads in order.
    pub fn ptwrites(&self) -> Vec<u64> {
        self.events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::PtWrite(v) => Some(*v),
                _ => None,
            })
            .collect()
    }

    /// Whether any packets were lost.
    pub fn has_gap(&self) -> bool {
        self.events.iter().any(|e| matches!(e, TraceEvent::Gap))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(ring: usize) -> PtSink {
        PtSink::new(PtConfig {
            ring_bytes: ring,
            psb_period: 64,
        })
    }

    #[test]
    fn branches_round_trip_in_order() {
        let mut s = tiny(1 << 16);
        let pattern: Vec<bool> = (0..300).map(|i| i % 3 == 0).collect();
        for &b in &pattern {
            s.cond_branch(b);
        }
        let t = s.finish();
        let d = t.decode().unwrap();
        assert_eq!(d.branches(), pattern);
        assert!(!d.has_gap());
    }

    #[test]
    fn branch_words_encode_like_single_branches() {
        // Runs of 0..=64 outcomes between other packets, from every TNT
        // fill level, so words split across flushes at every offset.
        let mut rng = 0x9e37_79b9_7f4a_7c15u64;
        let (mut single, mut word) = (tiny(1 << 20), tiny(1 << 20));
        for round in 0..2_000u32 {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            let n = (rng % 65) as u32;
            let taken = if n == 64 { rng } else { rng & ((1 << n) - 1) };
            for i in 0..n {
                single.cond_branch(taken >> i & 1 != 0);
            }
            word.cond_branches(taken, n);
            if round % 7 == 0 {
                single.ret();
                word.ret();
            }
        }
        let (single, word) = (single.finish(), word.finish());
        assert_eq!(word.bytes, single.bytes);
        assert_eq!(word.stats, single.stats);
    }

    #[test]
    fn mixed_events_preserve_order() {
        let mut s = tiny(1 << 16);
        s.cond_branch(true);
        s.call(FuncId(5));
        s.cond_branch(false);
        s.ptwrite(99);
        s.ret();
        let d = s.finish().decode().unwrap();
        let evs: Vec<_> = d.events;
        assert_eq!(
            evs,
            vec![
                TraceEvent::Branch(true),
                TraceEvent::Call(5),
                TraceEvent::Branch(false),
                TraceEvent::PtWrite(99),
                TraceEvent::Ret,
            ]
        );
    }

    #[test]
    fn thread_resume_emits_pge_and_tsc() {
        use crate::packet::Packet;
        let mut s = tiny(1 << 16);
        s.thread_resume(0, 5);
        s.thread_resume(2, 777);
        s.thread_resume(2, 999);
        let t = s.finish();
        let packets = codec::decode(&t.bytes).unwrap();
        assert_eq!(
            packets[1..3],
            [Packet::Pge { tid: 0 }, Packet::Tsc { tsc: 5 }]
        );
        // Only the switch away from the main thread decodes to an event.
        assert_eq!(
            t.decode().unwrap().events,
            vec![TraceEvent::ThreadResume(2)]
        );
    }

    #[test]
    fn branch_cost_is_about_one_bit() {
        let mut s = tiny(1 << 20);
        for i in 0..100_000u32 {
            s.cond_branch(i % 2 == 0);
        }
        let t = s.finish();
        // 100k branches in well under 2 bytes/branch-byte budget: expect
        // ~12.5 KB of TNT payload plus small header overhead.
        assert!(
            t.stats.bytes < 16_000,
            "branch bytes too high: {}",
            t.stats.bytes
        );
        assert_eq!(t.stats.branches, 100_000);
    }

    #[test]
    fn wrap_resyncs_at_psb_and_reports_gap() {
        let mut s = PtSink::new(PtConfig {
            ring_bytes: 256,
            psb_period: 8,
        });
        for i in 0..2_000u64 {
            s.ptwrite(i);
        }
        let t = s.finish();
        assert!(t.wrapped);
        // The sink counted more bytes than the ring kept.
        assert!(t.stats.bytes > t.bytes.len() as u64);
        let d = t.decode().unwrap();
        assert!(d.has_gap());
        // Newest ptwrites must survive.
        let ptws = d.ptwrites();
        assert_eq!(*ptws.last().unwrap(), 1_999);
        assert!(ptws.len() >= 8);
        // And they are consecutive (suffix of the original stream).
        for w in ptws.windows(2) {
            assert_eq!(w[1], w[0] + 1);
        }
    }

    #[test]
    fn stats_count_everything() {
        let mut s = tiny(1 << 16);
        s.cond_branch(true);
        s.call(FuncId(1));
        s.ret();
        s.ptwrite(3);
        s.thread_resume(0, 1);
        let st = s.stats();
        assert_eq!(st.branches, 1);
        assert_eq!(st.calls, 1);
        assert_eq!(st.rets, 1);
        assert_eq!(st.ptwrites, 1);
        assert_eq!(st.resumes, 1);
    }
}

#[cfg(test)]
mod chaos_tests {
    use super::*;
    use er_chaos::{ChaosPlan, Domain, Fault, FaultPolicy};
    use std::sync::Mutex;

    // The chaos plan is process-global; tamper tests must not overlap.
    static LOCK: Mutex<()> = Mutex::new(());

    fn lock() -> std::sync::MutexGuard<'static, ()> {
        LOCK.lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn trace_with_traffic() -> PtTrace {
        let mut s = PtSink::new(PtConfig {
            ring_bytes: 1 << 16,
            psb_period: 16,
        });
        for i in 0..200u64 {
            s.cond_branch(i % 3 == 0);
            s.ptwrite(i);
        }
        s.finish()
    }

    #[test]
    fn tamper_is_inert_when_disarmed() {
        let _l = lock();
        er_chaos::disarm();
        let mut t = trace_with_traffic();
        let before = t.bytes.clone();
        t.chaos_tamper();
        assert_eq!(t.bytes, before);
        assert_eq!(t.stats.chaos_tampered, 0);
    }

    #[test]
    fn truncated_trace_surfaces_a_typed_error_never_a_panic() {
        let _l = lock();
        let _g =
            er_chaos::arm(ChaosPlan::new(11).with(Fault::TraceTruncate, FaultPolicy::always(1)));
        let mut t = trace_with_traffic();
        t.chaos_tamper();
        assert_eq!(t.stats.chaos_tampered, 1);
        // Damaged or not, decoding must terminate without panicking.
        let _ = t.decode();
        let s = er_chaos::stats().unwrap();
        let d = s.domain(Domain::Trace);
        assert_eq!(d.injected, 1);
        assert!(d.handled() >= 1, "tamper outcome must be accounted: {d:?}");
    }

    #[test]
    fn reordered_trace_resyncs_or_errors_without_panicking() {
        let _l = lock();
        let _g =
            er_chaos::arm(ChaosPlan::new(23).with(Fault::TraceReorder, FaultPolicy::always(1)));
        let mut t = trace_with_traffic();
        t.chaos_tamper();
        assert_eq!(t.stats.chaos_tampered, 1);
        assert!(t.wrapped, "a rotated stream must resynchronize like a wrap");
        match t.decode() {
            Ok(d) => {
                assert_eq!(
                    d.events.first(),
                    Some(&TraceEvent::Gap),
                    "resynced decode reports the lost prefix"
                );
            }
            Err(e) => {
                // Typed, never a panic.
                let _ = e.to_string();
            }
        }
        assert!(er_chaos::stats().unwrap().domain(Domain::Trace).handled() >= 1);
    }

    #[test]
    fn corrupted_trace_decodes_or_errors_without_panicking() {
        let _l = lock();
        let _g = er_chaos::arm(ChaosPlan::new(5).with(Fault::TraceCorrupt, FaultPolicy::always(1)));
        let mut t = trace_with_traffic();
        let before = t.bytes.clone();
        t.chaos_tamper();
        assert_ne!(t.bytes, before, "corruption must actually flip bytes");
        assert_eq!(t.bytes.len(), before.len());
        let _ = t.decode();
        assert!(er_chaos::stats().unwrap().domain(Domain::Trace).handled() >= 1);
    }
}

/// Drops a deterministic pseudo-random fraction of branch events from a
/// decoded trace — a model of the paper's x86→LLVM mapping loss (§4: only
/// 91.5% of control-flow events mapped back to LLVM IR). Shepherded
/// execution requires a complete trace, so ER's prototype traces inside
/// KLEE instead; this adapter exists to *measure* that design pressure.
pub fn drop_branches(trace: &DecodedTrace, drop_per_mille: u32, seed: u64) -> DecodedTrace {
    let mut rng = seed | 1;
    let mut next = move || {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        rng
    };
    let events = trace
        .events
        .iter()
        .filter(|e| {
            !(matches!(e, TraceEvent::Branch(_)) && next() % 1000 < u64::from(drop_per_mille))
        })
        .copied()
        .collect();
    DecodedTrace { events }
}

#[cfg(test)]
mod lossy_tests {
    use super::*;

    #[test]
    fn drop_branches_removes_roughly_the_requested_fraction() {
        let trace = DecodedTrace {
            events: (0..10_000)
                .map(|i| TraceEvent::Branch(i % 2 == 0))
                .collect(),
        };
        let lossy = drop_branches(&trace, 85, 42);
        let kept = lossy.branch_count() as f64 / 10_000.0;
        assert!((0.88..0.95).contains(&kept), "kept {kept}");
        // Non-branch events are never dropped.
        let trace2 = DecodedTrace {
            events: vec![TraceEvent::Ret, TraceEvent::PtWrite(1)],
        };
        assert_eq!(drop_branches(&trace2, 999, 1).events.len(), 2);
        // Deterministic per seed.
        assert_eq!(
            drop_branches(&trace, 85, 7).events,
            drop_branches(&trace, 85, 7).events
        );
    }
}
