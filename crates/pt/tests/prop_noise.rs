//! Property tests for the decoder's noise rule: packet streams that differ
//! only in timestamps, repeat resumes of the running thread and TNT packet
//! boundaries decode to equal events, which the trace store then keeps as
//! equal bytes; a real thread switch or a different branch still shows,
//! exactly where it happens. This is what lets a warm start tell whether a
//! trace starts with its prefix's events (`WarmStart::prefix_matches`)
//! with a plain compare of events.

use er_pt::compress::{compress_events, decompress_events};
use er_pt::sink::PtStats;
use er_pt::{codec, Packet, PtTrace, TraceEvent};
use proptest::prelude::*;

/// What a traced program does: the events a noise-free decode yields, plus
/// switches to a thread that may already be running (then a repeat
/// resume, which is noise).
#[derive(Debug, Clone, Copy)]
enum Op {
    Branch(bool),
    Call(u32),
    Ret,
    Ptw(u64),
    Switch(u64),
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        any::<bool>().prop_map(Op::Branch),
        any::<bool>().prop_map(Op::Branch),
        any::<bool>().prop_map(Op::Branch),
        (0u32..3).prop_map(Op::Call),
        Just(Op::Ret),
        (0u64..3).prop_map(Op::Ptw),
        (0u64..3).prop_map(Op::Switch),
    ]
}

/// The events `ops` must decode to, and for each op the number of events
/// before it.
fn expected(ops: &[Op]) -> (Vec<TraceEvent>, Vec<usize>) {
    let mut events = Vec::new();
    let mut before = Vec::with_capacity(ops.len());
    let mut running = 0;
    for &op in ops {
        before.push(events.len());
        match op {
            Op::Branch(b) => events.push(TraceEvent::Branch(b)),
            Op::Call(f) => events.push(TraceEvent::Call(f)),
            Op::Ret => events.push(TraceEvent::Ret),
            Op::Ptw(v) => events.push(TraceEvent::PtWrite(v)),
            Op::Switch(t) => {
                if t != running {
                    events.push(TraceEvent::ThreadResume(t));
                }
                running = t;
            }
        }
    }
    (events, before)
}

/// Packetizes `ops` the way the sink does (branches pack into TNT packets,
/// a switch is a PGE and a TSC), and where `mask` says so adds noise: a
/// lone TSC, a repeat PGE of the running thread, a PSB. Noise breaks the
/// pending TNT run, so two masks also pack the branches differently.
fn packets(ops: &[Op], mask: &[u8]) -> Vec<Packet> {
    let mut out = vec![Packet::Psb];
    let mut tnt: Vec<bool> = Vec::new();
    let flush = |tnt: &mut Vec<bool>, out: &mut Vec<Packet>| {
        if tnt.is_empty() {
            return;
        }
        let mut bits = vec![0u8; tnt.len().div_ceil(8)];
        for (i, &b) in tnt.iter().enumerate() {
            bits[i / 8] |= u8::from(b) << (i % 8);
        }
        out.push(Packet::Tnt {
            count: tnt.len() as u8,
            bits,
        });
        tnt.clear();
    };
    let mut running = 0;
    for (k, &op) in ops.iter().enumerate() {
        let m = mask.get(k).copied().unwrap_or(0);
        if m % 8 != 0 {
            flush(&mut tnt, &mut out);
        }
        match m % 8 {
            1 | 2 => out.push(Packet::Tsc {
                tsc: u64::from(m) * 977,
            }),
            3 | 4 => out.extend([
                Packet::Pge { tid: running },
                Packet::Tsc {
                    tsc: u64::from(m) + k as u64,
                },
            ]),
            5 => out.push(Packet::Psb),
            _ => {}
        }
        let packet = match op {
            Op::Branch(b) => {
                tnt.push(b);
                if tnt.len() == 64 {
                    flush(&mut tnt, &mut out);
                }
                continue;
            }
            Op::Call(target) => Packet::Tip { target },
            Op::Ret => Packet::Ret,
            Op::Ptw(value) => Packet::Ptw { value },
            Op::Switch(tid) => {
                running = tid;
                Packet::Pge { tid }
            }
        };
        flush(&mut tnt, &mut out);
        out.push(packet);
        if matches!(op, Op::Switch(_)) {
            out.push(Packet::Tsc { tsc: k as u64 });
        }
    }
    flush(&mut tnt, &mut out);
    out
}

/// A ring holding `packets`, `wrapped` or not.
fn ring(packets: &[Packet], wrapped: bool) -> PtTrace {
    PtTrace {
        bytes: codec::encode(packets),
        wrapped,
        stats: PtStats::default(),
    }
}

/// The events of `packets`, which the store's format keeps exactly.
fn decode(packets: &[Packet]) -> Vec<TraceEvent> {
    let events = ring(packets, false)
        .decode()
        .expect("clean stream decodes")
        .events;
    let stored = compress_events(&events);
    assert_eq!(decompress_events(&stored).as_ref(), Ok(&events));
    events
}

/// How many leading events `a` and `b` share.
fn shared(a: &[TraceEvent], b: &[TraceEvent]) -> usize {
    a.iter().zip(b).take_while(|(x, y)| x == y).count()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Streams of the same run under different noise decode to the same
    /// events: the run's noise-free events.
    #[test]
    fn noise_only_differences_decode_alike(
        ops in prop::collection::vec(op(), 0..300),
        a_mask in prop::collection::vec(any::<u8>(), 0..300),
        b_mask in prop::collection::vec(any::<u8>(), 0..300),
    ) {
        let (want, _) = expected(&ops);
        let a = decode(&packets(&ops, &a_mask));
        let b = decode(&packets(&ops, &b_mask));
        prop_assert_eq!(&a, &want);
        prop_assert_eq!(&b, &want);
        prop_assert_eq!(compress_events(&a), compress_events(&b));
    }

    /// A real switch inserted at `at` makes the decoded streams part
    /// exactly there, whatever noise either stream carries.
    #[test]
    fn a_real_switch_shows_where_it_happens(
        ops in prop::collection::vec(op(), 0..200),
        at in any::<prop::sample::Index>(),
        a_mask in prop::collection::vec(any::<u8>(), 0..200),
        b_mask in prop::collection::vec(any::<u8>(), 0..200),
    ) {
        let k = at.index(ops.len() + 1);
        let (want, before) = expected(&ops);
        let split = before.get(k).copied().unwrap_or(want.len());
        // A thread that is neither running at `k` nor the next one the
        // old stream switches to, so the new stream's switch is real and
        // the old stream's next event differs from it.
        let running = ops[..k]
            .iter()
            .rev()
            .find_map(|op| match op {
                Op::Switch(t) => Some(*t),
                _ => None,
            })
            .unwrap_or(0);
        let next = match want.get(split) {
            Some(TraceEvent::ThreadResume(t)) => Some(*t),
            _ => None,
        };
        let tid = (0..3).find(|&t| t != running && Some(t) != next).expect("three tids");
        let mut changed = ops.clone();
        changed.insert(k, Op::Switch(tid));
        let old = decode(&packets(&ops, &a_mask));
        let new = decode(&packets(&changed, &b_mask));
        prop_assert_eq!(shared(&old, &new), split);
        prop_assert_eq!(new.get(split), Some(&TraceEvent::ThreadResume(tid)));
    }

    /// A flipped branch makes the decoded streams part exactly at it.
    #[test]
    fn a_flipped_branch_shows_where_it_happens(
        ops in prop::collection::vec(op(), 1..200),
        at in any::<prop::sample::Index>(),
        a_mask in prop::collection::vec(any::<u8>(), 0..200),
        b_mask in prop::collection::vec(any::<u8>(), 0..200),
    ) {
        let mut changed = ops.clone();
        let Some(k) = (at.index(ops.len())..ops.len())
            .find(|&k| matches!(ops[k], Op::Branch(_)))
        else {
            return Ok(());
        };
        let Op::Branch(b) = ops[k] else { unreachable!() };
        changed[k] = Op::Branch(!b);
        let (_, before) = expected(&ops);
        let old = decode(&packets(&ops, &a_mask));
        let new = decode(&packets(&changed, &b_mask));
        prop_assert_eq!(shared(&old, &new), before[k]);
    }
}

/// The running thread is unknown past lost packets, so the first resume
/// after a gap shows even when it names the thread that ran before it.
#[test]
fn the_first_resume_after_a_gap_shows() {
    let stream = [
        Packet::Psb,
        Packet::Pge { tid: 0 },
        Packet::Tsc { tsc: 1 },
        Packet::Pge { tid: 1 },
        Packet::Pge { tid: 1 },
        Packet::Ovf,
        Packet::Pge { tid: 1 },
        Packet::Pge { tid: 1 },
    ];
    assert_eq!(
        decode(&stream),
        [
            TraceEvent::ThreadResume(1),
            TraceEvent::Gap,
            TraceEvent::ThreadResume(1),
        ]
    );
    // A wrapped ring starts past a gap, so its first resume shows too.
    let events = ring(&stream[..2], true).decode().unwrap().events;
    assert_eq!(events, [TraceEvent::Gap, TraceEvent::ThreadResume(0)]);
}
