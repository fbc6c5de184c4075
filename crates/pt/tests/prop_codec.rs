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
        prop_assert_eq!(codec::encoded_len(&packets), codec::encode(&packets).len());
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
}
