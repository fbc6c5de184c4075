//! Property tests for the PT model: codec round trips, sink/decoder
//! agreement, and ring-buffer suffix semantics.

use er_minilang::ir::FuncId;
use er_minilang::trace::TraceSink;
use er_pt::codec;
use er_pt::packet::{Packet, TraceEvent};
use er_pt::ring::RingBuffer;
use er_pt::sink::{PtConfig, PtSink};
use proptest::prelude::*;

fn packet() -> impl Strategy<Value = Packet> {
    prop_oneof![
        Just(Packet::Psb),
        Just(Packet::Ovf),
        Just(Packet::Ret),
        (1u8..=255, prop::collection::vec(any::<u8>(), 32)).prop_map(|(count, bytes)| {
            let nb = (count as usize).div_ceil(8);
            Packet::Tnt {
                count,
                bits: bytes[..nb].to_vec(),
            }
        }),
        any::<u32>().prop_map(|target| Packet::Tip { target }),
        any::<u64>().prop_map(|value| Packet::Ptw { value }),
        any::<u64>().prop_map(|tsc| Packet::Tsc { tsc }),
        any::<u64>().prop_map(|tid| Packet::Pge { tid }),
    ]
}

/// A random sink-level event.
#[derive(Debug, Clone)]
enum Ev {
    Branch(bool),
    Call(u32),
    Ret,
    Ptw(u64),
    Resume(u64, u64),
}

fn event() -> impl Strategy<Value = Ev> {
    prop_oneof![
        any::<bool>().prop_map(Ev::Branch),
        (0u32..64).prop_map(Ev::Call),
        Just(Ev::Ret),
        any::<u64>().prop_map(Ev::Ptw),
        (0u64..4, any::<u64>()).prop_map(|(t, ts)| Ev::Resume(t, ts)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Packet sequences survive the byte codec byte-for-byte.
    #[test]
    fn codec_round_trips(packets in prop::collection::vec(packet(), 0..40)) {
        let bytes = codec::encode(&packets);
        let decoded = codec::decode(&bytes).unwrap();
        prop_assert_eq!(decoded, packets);
    }

    /// `encoded_len` is the length `encode` would produce.
    #[test]
    fn encoded_len_matches_encode(packets in prop::collection::vec(packet(), 0..40)) {
        let len: usize = packets.iter().map(Packet::encoded_len).sum();
        prop_assert_eq!(len, codec::encode(&packets).len());
    }

    /// Truncating an encoded stream never panics: it either still decodes
    /// (clean packet boundary) or reports a structured error.
    #[test]
    fn truncation_is_graceful(
        packets in prop::collection::vec(packet(), 1..20),
        cut in any::<prop::sample::Index>(),
    ) {
        let bytes = codec::encode(&packets);
        let cut = cut.index(bytes.len() + 1);
        let _ = codec::decode(&bytes[..cut]);
    }

    /// Whatever the interpreter-style event order, the sink encodes and the
    /// decoder returns exactly that order.
    #[test]
    fn sink_and_decoder_agree(events in prop::collection::vec(event(), 0..300)) {
        let mut sink = PtSink::new(PtConfig {
            ring_bytes: 1 << 20,
            psb_period: 32,
        });
        for e in &events {
            match e {
                Ev::Branch(b) => sink.cond_branch(*b),
                Ev::Call(f) => sink.call(FuncId(*f)),
                Ev::Ret => sink.ret(),
                Ev::Ptw(v) => sink.ptwrite(*v),
                Ev::Resume(t, ts) => sink.thread_resume(*t, *ts),
            }
        }
        let decoded = sink.finish().decode().unwrap();
        // Timestamps and resumes of the running thread (the main thread at
        // first) decode to nothing.
        let mut expect = Vec::new();
        let mut running = 0;
        for e in &events {
            match e {
                Ev::Branch(b) => expect.push(TraceEvent::Branch(*b)),
                Ev::Call(f) => expect.push(TraceEvent::Call(*f)),
                Ev::Ret => expect.push(TraceEvent::Ret),
                Ev::Ptw(v) => expect.push(TraceEvent::PtWrite(*v)),
                Ev::Resume(t, _) => {
                    if *t != running {
                        expect.push(TraceEvent::ThreadResume(*t));
                    }
                    running = *t;
                }
            }
        }
        prop_assert_eq!(decoded.events, expect);
    }

    /// The ring buffer always retains exactly the newest `capacity` bytes.
    #[test]
    fn ring_keeps_newest_suffix(
        chunks in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..40), 0..20),
        capacity in 1usize..64,
    ) {
        let mut ring = RingBuffer::new(capacity);
        let mut all = Vec::new();
        for chunk in &chunks {
            ring.write(chunk);
            all.extend_from_slice(chunk);
        }
        let expect: Vec<u8> = if all.len() <= capacity {
            all.clone()
        } else {
            all[all.len() - capacity..].to_vec()
        };
        prop_assert_eq!(ring.snapshot(), expect);
        prop_assert_eq!(ring.total_written(), all.len() as u64);
        prop_assert_eq!(ring.wrapped(), all.len() > capacity);
    }

    /// A wrapped trace still decodes from its first sync point, and the
    /// surviving ptwrites are a contiguous suffix.
    #[test]
    fn wrapped_traces_resync(n in 50u64..400) {
        let mut sink = PtSink::new(PtConfig {
            ring_bytes: 256,
            psb_period: 8,
        });
        for i in 0..n {
            sink.ptwrite(i);
        }
        let trace = sink.finish();
        let decoded = trace.decode().unwrap();
        let ptws = decoded.ptwrites();
        prop_assert!(!ptws.is_empty());
        prop_assert_eq!(*ptws.last().unwrap(), n - 1);
        for w in ptws.windows(2) {
            prop_assert_eq!(w[1], w[0] + 1);
        }
    }

    /// `codec::decode` on completely arbitrary bytes never panics and
    /// always terminates: every outcome is `Ok` or a typed `DecodeError`.
    #[test]
    fn decode_survives_arbitrary_bytes(bytes in prop::collection::vec(any::<u8>(), 0..2048)) {
        let _ = codec::decode(&bytes);
    }

    /// Bit-flipping a well-formed stream never panics the decoder.
    #[test]
    fn decode_survives_bit_flips(
        packets in prop::collection::vec(packet(), 1..40),
        pos in any::<prop::sample::Index>(),
        bit in 0u8..8,
    ) {
        let mut bytes = codec::encode(&packets);
        let pos = pos.index(bytes.len());
        bytes[pos] ^= 1 << bit;
        let _ = codec::decode(&bytes);
    }

    /// Truncating a well-formed stream anywhere yields `Ok` (clean packet
    /// boundary) or `Truncated` — never a panic, never `BadOpcode`.
    #[test]
    fn decode_truncation_is_typed(
        packets in prop::collection::vec(packet(), 1..40),
        cut in any::<prop::sample::Index>(),
    ) {
        let bytes = codec::encode(&packets);
        let cut = cut.index(bytes.len() + 1);
        match codec::decode(&bytes[..cut]) {
            Ok(_) | Err(codec::DecodeError::Truncated { .. }) => {}
            Err(e) => prop_assert!(false, "unexpected error on truncation: {e}"),
        }
    }

    /// `resync` terminates on arbitrary bytes, and any sync point it
    /// returns really is a PSB opcode byte within bounds.
    #[test]
    fn resync_survives_arbitrary_bytes(
        bytes in prop::collection::vec(any::<u8>(), 0..2048),
        from in any::<prop::sample::Index>(),
    ) {
        let from = from.index(bytes.len() + 1);
        if let Some(at) = codec::resync(&bytes, from) {
            prop_assert!(at >= from && at < bytes.len());
            prop_assert_eq!(bytes[at], 0xA0);
        }
    }

    /// A tampered `PtTrace` (rotated + truncated, the worst chaos does)
    /// decodes to a typed result, never a panic, even when forced through
    /// the wrapped-path resynchronization loop.
    #[test]
    fn wrapped_decode_survives_tampering(
        branches in prop::collection::vec(any::<bool>(), 16..400),
        rot in any::<prop::sample::Index>(),
        keep in any::<prop::sample::Index>(),
    ) {
        let mut sink = PtSink::new(PtConfig {
            ring_bytes: 1 << 20,
            psb_period: 16,
        });
        for &b in &branches {
            sink.cond_branch(b);
            sink.ptwrite(u64::from(b));
        }
        let mut trace = sink.finish();
        let n = trace.bytes.len();
        trace.bytes.rotate_left(rot.index(n));
        trace.bytes.truncate(keep.index(n) + 1);
        trace.wrapped = true; // force the resync loop
        let _ = trace.decode();
    }
}
