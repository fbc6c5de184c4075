//! Property test for checkpoint alignment: `align_cursors` must map every
//! old-trace cursor exactly as the per-event range table it replaced did
//! (kept here as the oracle), on streams that share a prefix under
//! independent scheduling noise and then diverge.

use er_core::reconstruct::align_cursors;
use er_pt::TraceEvent;
use proptest::prelude::*;

/// The per-event alignment the reconstruction driver used to build:
/// cursor-mapping ranges `(old_from, old_to, new_cursor)`, one per matched
/// event, stopping at the first semantic difference.
fn align_schedules(a: &[TraceEvent], b: &[TraceEvent]) -> Vec<(usize, usize, usize)> {
    let noise = |ev: &TraceEvent, running: Option<u64>| match ev {
        TraceEvent::Timestamp(_) => true,
        TraceEvent::ThreadResume(t) => Some(*t) == running,
        _ => false,
    };
    let mut ranges = Vec::new();
    let (mut i, mut j) = (0usize, 0usize);
    let mut running: Option<u64> = None;
    loop {
        let from = i;
        while a.get(i).is_some_and(|ev| noise(ev, running)) {
            i += 1;
        }
        while b.get(j).is_some_and(|ev| noise(ev, running)) {
            j += 1;
        }
        ranges.push((from, i, j));
        match (a.get(i), b.get(j)) {
            (Some(x), Some(y)) if x == y => {
                if let TraceEvent::ThreadResume(t) = x {
                    running = Some(*t);
                }
                i += 1;
                j += 1;
            }
            _ => return ranges,
        }
    }
}

/// The oracle's answer for one cursor: the first range containing it.
fn oracle(a: &[TraceEvent], b: &[TraceEvent], cursors: &[usize]) -> Vec<Option<usize>> {
    let ranges = align_schedules(a, b);
    cursors
        .iter()
        .map(|&c| {
            ranges
                .iter()
                .find(|&&(from, to, _)| from <= c && c <= to)
                .map(|&(_, _, new)| new)
        })
        .collect()
}

/// A semantic event: branches dominate, as in real traces, with recorded
/// values, calls, returns and real thread switches mixed in.
fn semantic() -> impl Strategy<Value = TraceEvent> {
    prop_oneof![
        any::<bool>().prop_map(TraceEvent::Branch),
        any::<bool>().prop_map(TraceEvent::Branch),
        any::<bool>().prop_map(TraceEvent::Branch),
        (0u64..3).prop_map(TraceEvent::PtWrite),
        (0u32..2).prop_map(TraceEvent::Call),
        Just(TraceEvent::Ret),
        (0u64..3).prop_map(TraceEvent::ThreadResume),
    ]
}

/// Interleaves scheduling noise into `base`: where `mask` says so, a
/// timestamp, a repeat resume of the running thread, or (rarely) a resume
/// of some other thread, which is a real switch the other stream lacks.
fn with_noise(base: &[TraceEvent], mask: &[u8]) -> Vec<TraceEvent> {
    let mut out = Vec::with_capacity(base.len() * 2);
    let mut running = None;
    for (k, &ev) in base.iter().enumerate() {
        match mask.get(k).copied().unwrap_or(0) % 16 {
            1 | 2 => out.push(TraceEvent::Timestamp(k as u64)),
            3 => out.extend([TraceEvent::Timestamp(7), TraceEvent::Timestamp(9)]),
            4 | 5 => out.extend(running.map(TraceEvent::ThreadResume)),
            6 => out.push(TraceEvent::ThreadResume(u64::from(mask[k]) % 3)),
            _ => {}
        }
        if let TraceEvent::ThreadResume(t) = ev {
            running = Some(t);
        }
        out.push(ev);
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn cursor_mapping_matches_the_range_table(
        base in prop::collection::vec(semantic(), 0..200),
        suffix in prop::collection::vec(semantic(), 0..20),
        diverge in any::<prop::sample::Index>(),
        old_mask in prop::collection::vec(any::<u8>(), 0..220),
        new_mask in prop::collection::vec(any::<u8>(), 0..220),
        picks in prop::collection::vec(any::<prop::sample::Index>(), 0..10),
    ) {
        // The new trace follows the old one's program up to `diverge`,
        // then runs its own suffix.
        let cut = diverge.index(base.len() + 1);
        let mut new_base = base[..cut].to_vec();
        new_base.extend(&suffix);
        let old = with_noise(&base, &old_mask);
        let new = with_noise(&new_base, &new_mask);
        // Cursors before, at and past the divergence, and past the end.
        let mut cursors: Vec<usize> = picks.iter().map(|p| p.index(old.len() + 4)).collect();
        cursors.sort_unstable();
        prop_assert_eq!(align_cursors(&old, &new, &cursors), oracle(&old, &new, &cursors));
    }

    /// Identical streams up to noise map every cursor, including the end.
    #[test]
    fn noise_only_differences_map_every_cursor(
        base in prop::collection::vec(semantic(), 0..200),
        old_mask in prop::collection::vec(any::<u8>(), 0..200),
        new_mask in prop::collection::vec(any::<u8>(), 0..200),
    ) {
        let old = with_noise(&base, &old_mask);
        let new = with_noise(&base, &new_mask);
        let cursors: Vec<usize> = (0..=old.len()).collect();
        let mapped = align_cursors(&old, &new, &cursors);
        prop_assert_eq!(&mapped, &oracle(&old, &new, &cursors));
        // Real switches the mask injected into only one stream are the
        // only way a cursor can go unmapped.
        if old_mask.iter().chain(&new_mask).all(|m| m % 16 != 6) {
            prop_assert!(mapped.iter().all(Option::is_some));
        }
    }
}

#[test]
fn empty_streams_map_cursor_zero_only() {
    assert_eq!(align_cursors(&[], &[], &[0, 1]), vec![Some(0), None]);
}
