//! Property tests for decoding straight to events: `PtTrace::decode`
//! walks the bytes once into flat events, and must equal decoding the
//! packets with the codec's reference decode and flattening them — events
//! and errors alike — on clean, wrapped, damaged and arbitrary streams.

use er_minilang::ir::FuncId;
use er_minilang::trace::TraceSink;
use er_pt::codec::DecodeError;
use er_pt::sink::PtStats;
use er_pt::{codec, Packet, PtConfig, PtSink, PtTrace, TraceEvent};
use proptest::prelude::*;

/// The reference: decode to packets with `codec::decode_from`,
/// resynchronizing a wrapped ring at its first sync point and again past
/// any damage, then flatten the packets.
fn reference(trace: &PtTrace) -> Result<Vec<TraceEvent>, DecodeError> {
    if !trace.wrapped {
        return codec::decode(&trace.bytes).map(|packets| flatten(&packets, false));
    }
    let mut at = codec::resync(&trace.bytes, 0).ok_or(DecodeError::NoSyncPoint)?;
    loop {
        match codec::decode_from(&trace.bytes, at) {
            Ok(packets) => return Ok(flatten(&packets, true)),
            Err(DecodeError::BadOpcode { at: bad, .. } | DecodeError::Corrupt { at: bad }) => {
                at = codec::resync(&trace.bytes, bad + 1).ok_or(DecodeError::NoSyncPoint)?;
            }
            Err(e) => return Err(e),
        }
    }
}

/// An independent flattening of well-formed packets, one event per TNT
/// bit, kept apart from the library's so the two check each other. TSCs
/// and resumes of the running thread (the main thread at first, unknown
/// past a gap) yield nothing.
fn flatten(packets: &[Packet], leading_gap: bool) -> Vec<TraceEvent> {
    let mut events = Vec::new();
    let mut running = Some(0);
    if leading_gap {
        events.push(TraceEvent::Gap);
        running = None;
    }
    for p in packets {
        match p {
            Packet::Psb | Packet::Tsc { .. } => {}
            Packet::Ovf => {
                events.push(TraceEvent::Gap);
                running = None;
            }
            Packet::Tnt { count, bits } => {
                for i in 0..*count as usize {
                    events.push(TraceEvent::Branch(bits[i / 8] >> (i % 8) & 1 == 1));
                }
            }
            Packet::Tip { target } => events.push(TraceEvent::Call(*target)),
            Packet::Ret => events.push(TraceEvent::Ret),
            Packet::Ptw { value } => events.push(TraceEvent::PtWrite(*value)),
            Packet::Pge { tid } => {
                if running != Some(*tid) {
                    events.push(TraceEvent::ThreadResume(*tid));
                }
                running = Some(*tid);
            }
        }
    }
    events
}

fn direct(trace: &PtTrace) -> Result<Vec<TraceEvent>, DecodeError> {
    trace.decode().map(|d| d.events)
}

/// One sink event: a branch, call, return, ptwrite or thread resume.
fn op() -> impl Strategy<Value = (u8, u64)> {
    (0u8..8, any::<u64>())
}

/// A real trace of `ops` through a sink with a `ring`-byte ring, so small
/// rings wrap.
fn traced(ops: &[(u8, u64)], ring: usize, psb_period: u32) -> PtTrace {
    let mut sink = PtSink::new(PtConfig {
        ring_bytes: ring,
        psb_period,
    });
    for &(kind, v) in ops {
        match kind {
            0..=3 => sink.cond_branch(v & 1 == 1),
            4 => sink.call(FuncId(v as u32 % 16)),
            5 => sink.ret(),
            6 => sink.ptwrite(v),
            _ => sink.thread_resume(v % 3, v >> 8),
        }
    }
    sink.finish()
}

/// A trace whose bytes are not what its sink counted: `stats` claim
/// `claimed` branches, which must not change what decodes.
fn raw(bytes: Vec<u8>, wrapped: bool, claimed: u64) -> PtTrace {
    PtTrace {
        bytes,
        wrapped,
        stats: PtStats {
            branches: claimed,
            ..PtStats::default()
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Intact and wrapped sink traces decode to the same events both ways.
    #[test]
    fn sink_traces_decode_alike(
        ops in prop::collection::vec(op(), 0..400),
        small_ring in any::<bool>(),
        psb_period in 1u32..32,
    ) {
        let ring = if small_ring { 96 } else { 1 << 16 };
        let trace = traced(&ops, ring, psb_period);
        prop_assert_eq!(direct(&trace), reference(&trace));
    }

    /// Damaged sink traces — bytes flipped, cut short, rotated — give the
    /// same events or the same error both ways.
    #[test]
    fn tampered_traces_decode_alike(
        ops in prop::collection::vec(op(), 1..300),
        flips in prop::collection::vec((any::<prop::sample::Index>(), any::<u8>()), 0..4),
        keep in any::<prop::sample::Index>(),
        rot in any::<prop::sample::Index>(),
        wrapped in any::<bool>(),
    ) {
        let mut trace = traced(&ops, 1 << 16, 8);
        let n = trace.bytes.len();
        for (at, x) in flips {
            trace.bytes[at.index(n)] ^= x;
        }
        trace.bytes.rotate_left(rot.index(n));
        trace.bytes.truncate(keep.index(n) + 1);
        trace.wrapped = wrapped;
        trace.stats.chaos_tampered = 1;
        prop_assert_eq!(direct(&trace), reference(&trace));
    }

    /// A wrapped trace damaged past the resync lookahead window: the
    /// first sync point validates, decoding runs into the damage, and
    /// both paths must drop what they decoded and restart at the next
    /// sync point after it.
    #[test]
    fn damage_past_the_resync_window_restarts_alike(
        ops in prop::collection::vec(op(), 1500..2500),
        damage in prop::collection::vec(any::<prop::sample::Index>(), 1..3),
    ) {
        let mut trace = traced(&ops, 1 << 16, 8);
        let packets = codec::decode(&trace.bytes).unwrap();
        // Packet starts far enough out that the first sync point's
        // validation window cannot see them.
        let starts: Vec<usize> = packets
            .iter()
            .scan(0, |at, p| {
                let start = *at;
                *at += p.encoded_len();
                Some(start)
            })
            .filter(|&at| at > codec::RESYNC_LOOKAHEAD + 16)
            .collect();
        prop_assert!(!starts.is_empty());
        for d in damage {
            trace.bytes[starts[d.index(starts.len())]] = 0xFF;
        }
        trace.wrapped = true;
        let direct = direct(&trace);
        prop_assert_eq!(&direct, &reference(&trace));
        // Damage with no sync point after it is a typed error.
        if let Ok(events) = direct {
            prop_assert_eq!(events.first(), Some(&TraceEvent::Gap));
        }
    }

    /// Completely arbitrary bytes, wrapped or not, with sink counters that
    /// may over- or under-state the content.
    #[test]
    fn arbitrary_bytes_decode_alike(
        bytes in prop::collection::vec(any::<u8>(), 0..300),
        wrapped in any::<bool>(),
        claimed in 0u64..5000,
    ) {
        let trace = raw(bytes, wrapped, claimed);
        prop_assert_eq!(direct(&trace), reference(&trace));
    }

    /// Arbitrary bytes made mostly of valid opcodes, so decoding gets far
    /// before any damage.
    #[test]
    fn opcode_soup_decodes_alike(
        bytes in prop::collection::vec(prop_oneof![0xA0u8..=0xA7, any::<u8>()], 0..300),
        wrapped in any::<bool>(),
    ) {
        let trace = raw(bytes, wrapped, 0);
        prop_assert_eq!(direct(&trace), reference(&trace));
    }
}
