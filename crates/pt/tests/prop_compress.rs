//! Property tests for the compressed trace codec: `compress` →
//! `decompress` must be the identity on arbitrary packet streams, i.e.
//! exactly as faithful as the raw `pt::codec` byte format it wraps.

use er_pt::compress::{compress, decompress, ratio};
use er_pt::packet::Packet;
use er_pt::{codec, PtConfig, PtSink};
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

/// A canonical-shape TNT packet, the kind `PtSink` emits and the kind the
/// compressor merges into runs.
fn canonical_tnt() -> impl Strategy<Value = Packet> {
    (1u8..=64, any::<u64>()).prop_map(|(count, acc)| {
        let nb = (count as usize).div_ceil(8);
        Packet::Tnt {
            count,
            bits: acc.to_le_bytes()[..nb].to_vec(),
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Arbitrary packet streams — including non-canonical TNT shapes the
    /// sink never emits — survive compression byte-for-byte.
    #[test]
    fn compress_round_trips(packets in prop::collection::vec(packet(), 0..60)) {
        let packed = compress(&packets);
        prop_assert_eq!(decompress(&packed).unwrap(), packets);
    }

    /// Round trip composed with the raw codec: encoding the decompressed
    /// stream reproduces the original codec bytes exactly.
    #[test]
    fn compress_matches_codec(packets in prop::collection::vec(packet(), 0..60)) {
        let raw = codec::encode(&packets);
        let packed = compress(&packets);
        let back = decompress(&packed).unwrap();
        prop_assert_eq!(codec::encode(&back), raw);
    }

    /// Canonical (sink-shaped) streams round trip through merged TNT runs.
    #[test]
    fn canonical_tnt_runs_round_trip(packets in prop::collection::vec(canonical_tnt(), 0..80)) {
        let packed = compress(&packets);
        prop_assert_eq!(decompress(&packed).unwrap(), packets);
    }

    /// Truncating a compressed stream never panics: it either decodes
    /// (clean record boundary) or reports a structured error.
    #[test]
    fn truncation_is_graceful(
        packets in prop::collection::vec(packet(), 1..30),
        cut in any::<prop::sample::Index>(),
    ) {
        let packed = compress(&packets);
        let cut = cut.index(packed.len() + 1);
        let _ = decompress(&packed[..cut]);
    }

    /// Corrupting one byte never panics and never silently grows memory:
    /// the decoder returns a structured error or a (possibly wrong) stream.
    #[test]
    fn corruption_is_graceful(
        packets in prop::collection::vec(packet(), 1..30),
        pos in any::<prop::sample::Index>(),
        flip in 1u8..=255,
    ) {
        let mut packed = compress(&packets);
        let pos = pos.index(packed.len());
        packed[pos] ^= flip;
        let _ = decompress(&packed);
    }

    /// What the sink actually produces — interpreter-style event mixes —
    /// round trips through decode → compress → decompress, so the fleet
    /// store path reproduces exactly what the serial path decodes.
    #[test]
    fn sink_output_round_trips(branches in prop::collection::vec(any::<bool>(), 0..500)) {
        let mut sink = PtSink::new(PtConfig {
            ring_bytes: 1 << 20,
            psb_period: 32,
        });
        use er_minilang::trace::TraceSink;
        for (i, &b) in branches.iter().enumerate() {
            sink.cond_branch(b);
            if i % 37 == 0 {
                sink.ptwrite(i as u64);
            }
        }
        let trace = sink.finish();
        let (packets, gap) = trace.packets().unwrap();
        prop_assert!(!gap);
        let packed = compress(&packets);
        prop_assert_eq!(decompress(&packed).unwrap(), packets);
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

    /// `decompress` on completely arbitrary bytes never panics and always
    /// terminates.
    #[test]
    fn decompress_survives_arbitrary_bytes(bytes in prop::collection::vec(any::<u8>(), 0..2048)) {
        let _ = decompress(&bytes);
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
        use er_minilang::trace::TraceSink;
        for &b in &branches {
            sink.cond_branch(b);
            sink.ptwrite(u64::from(b));
        }
        let mut trace = sink.finish();
        let n = trace.bytes.len();
        trace.bytes.rotate_left(rot.index(n));
        trace.bytes.truncate(keep.index(n) + 1);
        trace.wrapped = true; // force the resync loop
        let _ = trace.packets();
    }

    /// Loop-heavy (all-taken) branch runs always compress by a wide margin
    /// — the fleet acceptance bar is 1.5x, canonical traces clear it easily.
    #[test]
    fn loop_traces_beat_ratio_bar(n in 500usize..4000) {
        let mut sink = PtSink::new(PtConfig {
            ring_bytes: 1 << 20,
            psb_period: 4096,
        });
        use er_minilang::trace::TraceSink;
        for _ in 0..n {
            sink.cond_branch(true);
        }
        let (packets, _) = sink.finish().packets().unwrap();
        prop_assert!(ratio(&packets) > 1.5);
    }
}
