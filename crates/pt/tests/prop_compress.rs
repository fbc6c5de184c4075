//! Property tests for the trace store's event codec (`er_pt::compress`):
//! any event sequence round-trips exactly; a sink trace, wrapped ring
//! included, stores exactly what `PtTrace::decode` yields; and truncated,
//! garbage or bit-flipped bytes give a typed `DecodeError`, never a panic,
//! and never an allocation their bytes do not describe.

use er_minilang::ir::FuncId;
use er_minilang::trace::TraceSink;
use er_pt::compress::{compress_events, decompress_events, MAX_RUN};
use er_pt::{DecodeError, PtConfig, PtSink, PtTrace, TraceEvent};
use proptest::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Records the largest allocation request made on each thread, so a test
/// can bound what one decode asked for.
struct Largest;

thread_local! {
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn note(size: usize) {
    let _ = LARGEST.try_with(|l| l.set(l.get().max(size)));
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// `Largest` keeps `System`'s guarantees; `note` only reads the size and
// never allocates.
unsafe impl GlobalAlloc for Largest {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with
        // `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: `ptr` came from `System` with `layout`, and the caller
        // upholds `realloc`'s contract for `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: Largest = Largest;

/// Most a vector of `n` events may hold: it grows by at most doubling.
fn events_bytes(n: usize) -> usize {
    2 * std::mem::size_of::<TraceEvent>() * n.max(4)
}

/// Decodes `bytes`, checking that no allocation exceeded what they
/// describe. A decode allocates the events it returns, or on an error the
/// events of the records before the failing one (which must decode on
/// their own) plus at most one record's branch payload.
fn decode_checked(bytes: &[u8]) -> Result<Vec<TraceEvent>, DecodeError> {
    LARGEST.with(|l| l.set(0));
    let result = decompress_events(bytes);
    let largest = LARGEST.with(Cell::get);
    let allowed = match &result {
        Ok(events) => events_bytes(events.len()),
        Err(e) => {
            let at = match *e {
                DecodeError::Truncated { at }
                | DecodeError::Corrupt { at }
                | DecodeError::BadOpcode { at, .. } => at,
                DecodeError::NoSyncPoint => panic!("compressed streams have no sync points"),
            };
            let before = if at == 0 {
                0
            } else {
                decompress_events(&bytes[..at])
                    .expect("the records before the failing one decode")
                    .len()
            };
            events_bytes(before).max(2 * MAX_RUN.div_ceil(8) + 16)
        }
    };
    assert!(
        largest <= allowed,
        "allocated {largest} bytes, allowed {allowed}: {result:?}"
    );
    result
}

/// One event, or a run of one kind: branch runs that cross byte and
/// 64-bit boundaries (random or all one way), long return runs, ptwrites
/// at `u64` extremes, large tids and call targets, gaps.
fn chunk() -> impl Strategy<Value = Vec<TraceEvent>> {
    prop_oneof![
        prop::collection::vec(any::<bool>().prop_map(TraceEvent::Branch), 1..200),
        (any::<bool>(), 1usize..3000).prop_map(|(b, n)| vec![TraceEvent::Branch(b); n]),
        (1usize..3000).prop_map(|n| vec![TraceEvent::Ret; n]),
        any::<u32>().prop_map(|t| vec![TraceEvent::Call(t)]),
        prop_oneof![
            Just(0u64),
            Just(1),
            Just(u64::MAX),
            Just(u64::MAX - 1),
            Just(1 << 63),
            any::<u64>(),
        ]
        .prop_map(|v| vec![TraceEvent::PtWrite(v)]),
        prop_oneof![Just(u64::MAX), any::<u64>(), 0u64..4]
            .prop_map(|t| vec![TraceEvent::ThreadResume(t)]),
        Just(vec![TraceEvent::Gap]),
    ]
}

/// An event sequence, with a leading gap (a wrapped ring's) half the time.
fn events() -> impl Strategy<Value = Vec<TraceEvent>> {
    (any::<bool>(), prop::collection::vec(chunk(), 0..24)).prop_map(|(gap, chunks)| {
        let mut events = Vec::new();
        if gap {
            events.push(TraceEvent::Gap);
        }
        events.extend(chunks.into_iter().flatten());
        events
    })
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Any event sequence survives compression exactly.
    #[test]
    fn events_round_trip(events in events()) {
        let packed = compress_events(&events);
        prop_assert_eq!(decode_checked(&packed), Ok(events));
    }

    /// What the store keeps of a sink trace — intact, wrapped or damaged —
    /// decompresses to exactly what `PtTrace::decode` yields, a wrapped
    /// ring's leading gap included.
    #[test]
    fn sink_traces_store_what_decode_yields(
        ops in prop::collection::vec(op(), 0..400),
        small_ring in any::<bool>(),
        psb_period in 1u32..32,
        flips in prop::collection::vec((any::<prop::sample::Index>(), 1u8..=255), 0..2),
    ) {
        let ring = if small_ring { 96 } else { 1 << 16 };
        let mut trace = traced(&ops, ring, psb_period);
        let n = trace.bytes.len();
        for (at, x) in flips {
            trace.bytes[at.index(n)] ^= x;
        }
        let Ok(decoded) = trace.decode() else {
            return Ok(());
        };
        if trace.wrapped {
            prop_assert_eq!(decoded.events.first(), Some(&TraceEvent::Gap));
        }
        let stored = compress_events(&decoded.events);
        prop_assert_eq!(decode_checked(&stored), Ok(decoded.events));
    }

    /// A cut-short stream decodes to a prefix of its events (the cut fell
    /// between records) or is `Truncated`.
    #[test]
    fn truncation_is_a_prefix_or_truncated(
        events in events(),
        cut in any::<prop::sample::Index>(),
    ) {
        let packed = compress_events(&events);
        let cut = cut.index(packed.len());
        match decode_checked(&packed[..cut]) {
            Ok(prefix) => prop_assert!(events.starts_with(&prefix)),
            Err(DecodeError::Truncated { .. }) => {}
            Err(e) => prop_assert!(false, "unexpected error on truncation: {e}"),
        }
    }

    /// Flipping bits of a well-formed stream gives events or a typed
    /// error, within the allocation bound.
    #[test]
    fn bit_flips_are_typed(
        events in events(),
        flips in prop::collection::vec((any::<prop::sample::Index>(), 0u8..8), 1..4),
    ) {
        let mut packed = compress_events(&events);
        let n = packed.len();
        for (at, bit) in flips {
            packed[at.index(n)] ^= 1 << bit;
        }
        let _ = decode_checked(&packed);
    }

    /// Arbitrary bytes, behind a valid version tag half the time, give
    /// events or a typed error, within the allocation bound.
    #[test]
    fn garbage_is_typed(
        tagged in any::<bool>(),
        bytes in prop::collection::vec(any::<u8>(), 0..2048),
    ) {
        let mut input = if tagged { compress_events(&[]) } else { Vec::new() };
        input.extend(bytes);
        let _ = decode_checked(&input);
    }

    /// Loop-heavy (all-taken) traces store in far fewer bytes than the
    /// ring held: the fleet acceptance bar is 1.5x.
    #[test]
    fn loop_traces_beat_ratio_bar(n in 500usize..4000) {
        let mut sink = PtSink::new(PtConfig {
            ring_bytes: 1 << 20,
            psb_period: 4096,
        });
        for _ in 0..n {
            sink.cond_branch(true);
        }
        let trace = sink.finish();
        let stored = compress_events(&trace.decode().unwrap().events);
        prop_assert!(stored.len() * 3 < trace.bytes.len() * 2);
    }
}

/// Headers that claim far more than the bytes behind them hold are typed
/// errors, and nothing is allocated on the claim alone.
#[test]
fn unbacked_claims_allocate_nothing() {
    let version = compress_events(&[])[0];
    let long = compress_events(&vec![TraceEvent::Branch(true); MAX_RUN]);
    for cut in 2..long.len() {
        // `long` is a header and a short RLE run; any cut loses the run.
        let (result, largest) = {
            LARGEST.with(|l| l.set(0));
            let r = decompress_events(&long[..cut]);
            (r, LARGEST.with(Cell::get))
        };
        assert!(
            matches!(result, Err(DecodeError::Truncated { at: 1 })),
            "{result:?}"
        );
        assert_eq!(largest, 0, "cut at {cut}");
    }
    // Runs one past the cap, in a branch and a return record.
    for tag in [0x01, 0x03] {
        let mut bytes = vec![version, tag];
        let mut n = MAX_RUN as u64 + 1;
        while n >= 0x80 {
            bytes.push((n as u8) | 0x80);
            n >>= 7;
        }
        bytes.push(n as u8);
        assert_eq!(decode_checked(&bytes), Err(DecodeError::Corrupt { at: 1 }));
    }
}
